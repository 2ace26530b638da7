
PROGRAM matrix300
  INTEGER n, nrep, j
  INTEGER a(30), b(30), c(30)
  n = 20
  nrep = 2
  ! main's own constant uses
  PRINT *, n, nrep, n * nrep
  DO j = 1, n
    a(j) = j
    b(j) = 2
    c(j) = 0
  ENDDO
  CALL mxdrv(a, b, c, n)
  PRINT *, n + 1, nrep + 1
END

SUBROUTINE mxdrv(a, b, c, n)
  INTEGER a(30), b(30), c(30), n, blk, half
  blk = 5
  half = 10
  ! driver-level uses: visible to the intraprocedural jump function
  ! (gcp sees the constant variable at main's call site) but not literal
  PRINT *, n, n / blk, n - half
  CALL mxk0(a, b, c, n)
  PRINT *, blk, half, blk * half
  CALL mxk1(a, b, c, n)
  CALL mxk2(a, b, c, n)
  CALL mxk3(a, b, c, n)
  ! polynomial actual with an ignored formal: builds a polynomial jump
  ! function without changing the constant counts
  CALL mxflop(c, n * n + 2 * n)
  PRINT *, n + blk, n + half
END

SUBROUTINE mxflop(c, nops)
  INTEGER c(30), nops
  c(1) = c(1) + 1
END

SUBROUTINE mxk0(a, b, c, n)
  INTEGER a(30), b(30), c(30), n, i
  ! four uses of n, two edges away from the constant
  DO i = 1, n
    c(i) = c(i) + a(i) * b(i)
  ENDDO
  PRINT *, n + 0, n - 0, n * 1
END


SUBROUTINE mxk1(a, b, c, n)
  INTEGER a(30), b(30), c(30), n, i
  ! four uses of n, two edges away from the constant
  DO i = 1, n
    c(i) = c(i) + a(i) * b(i)
  ENDDO
  PRINT *, n + 1, n - 1, n * 2
END


SUBROUTINE mxk2(a, b, c, n)
  INTEGER a(30), b(30), c(30), n, i
  ! four uses of n, two edges away from the constant
  DO i = 1, n
    c(i) = c(i) + a(i) * b(i)
  ENDDO
  PRINT *, n + 2, n - 2, n * 3
END


SUBROUTINE mxk3(a, b, c, n)
  INTEGER a(30), b(30), c(30), n, i
  ! four uses of n, two edges away from the constant
  DO i = 1, n
    c(i) = c(i) + a(i) * b(i)
  ENDDO
  PRINT *, n + 3, n - 3, n * 4
END
