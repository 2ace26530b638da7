
PROGRAM snasa7
  INTEGER d0, d1, d2, d3, d4, d5, k
  INTEGER grid(40)
  DO k = 1, 40
    grid(k) = k
  ENDDO
  d0 = 8
  CALL nas0(grid, d0)
  d1 = 12
  CALL nas1(grid, d1)
  d2 = 16
  CALL nas2(grid, d2)
  d3 = 20
  CALL nas3(grid, d3)
  d4 = 24
  CALL nas4(grid, d4)
  d5 = 28
  CALL nas5(grid, d5)
  PRINT *, d0 + d5
END

SUBROUTINE nas0(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 3
  w2 = 7
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END


SUBROUTINE nas1(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 4
  w2 = 9
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END


SUBROUTINE nas2(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 5
  w2 = 11
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END


SUBROUTINE nas3(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 6
  w2 = 13
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END


SUBROUTINE nas4(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 7
  w2 = 15
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END


SUBROUTINE nas5(v, dim)
  INTEGER v(40), dim, j, w1, w2
  w1 = 8
  w2 = 17
  ! local constants and the constant-variable formal, used up front
  PRINT *, w1, w2, w1 * w2
  PRINT *, dim, dim + w1, dim - w2, dim * 2
  DO j = 1, dim
    v(j) = v(j) + w1 - w2
  ENDDO
  PRINT *, dim + 1, w1 + 1, w2 + 1
END
