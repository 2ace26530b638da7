
PROGRAM spec77
  COMMON /ctl/ idbg
  INTEGER nlat, nlon, ngauss, k
  INTEGER fld(60)
  DATA idbg /0/
  nlat = 12
  nlon = 24
  ! the debug branch: dead, but only complete propagation proves it and
  ! removes the conflicting definitions of nlat and nlon
  IF (idbg .EQ. 1) THEN
    nlat = 999
    nlon = 999
  ENDIF
  ! these four uses are exposed only by complete propagation
  PRINT *, nlat, nlon, nlat + nlon
  DO k = 1, 60
    fld(k) = k
  ENDDO
  CALL spc0(fld, 20, 5)
  CALL spc1(fld, 21, 6)
  CALL spc2(fld, 22, 7)
  ! a constant-variable actual: literal loses gwater's uses
  ngauss = 8
  CALL gwater(fld, ngauss)
  PRINT *, idbg
END

SUBROUTINE gwater(f, nl)
  INTEGER f(60), nl, j, rain
  rain = 3
  PRINT *, nl, rain
  DO j = 1, nl
    f(j) = f(j) + rain
  ENDDO
  CALL sptrns(f, 60)
  PRINT *, nl + rain, nl * 2, rain * 2
END

SUBROUTINE sptrns(f, len)
  INTEGER f(60), len, j
  DO j = 2, 59
    f(j) = (f(j - 1) + f(j + 1)) / 2
  ENDDO
  f(1) = len
END

SUBROUTINE spc0(f, n, trunc)
  INTEGER f(60), n, trunc, i, nw
  nw = 6
  PRINT *, nw, n, trunc
  DO i = 1, n
    f(i) = f(i) + nw
  ENDDO
  CALL sptrns(f, 60)
  ! MOD-protected uses after the transform call
  PRINT *, nw + 1, n - 1, trunc * 2, nw * trunc
END


SUBROUTINE spc1(f, n, trunc)
  INTEGER f(60), n, trunc, i, nw
  nw = 9
  PRINT *, nw, n, trunc
  DO i = 1, n
    f(i) = f(i) + nw
  ENDDO
  CALL sptrns(f, 60)
  ! MOD-protected uses after the transform call
  PRINT *, nw + 1, n - 1, trunc * 2, nw * trunc
END


SUBROUTINE spc2(f, n, trunc)
  INTEGER f(60), n, trunc, i, nw
  nw = 12
  PRINT *, nw, n, trunc
  DO i = 1, n
    f(i) = f(i) + nw
  ENDDO
  CALL sptrns(f, 60)
  ! MOD-protected uses after the transform call
  PRINT *, nw + 1, n - 1, trunc * 2, nw * trunc
END
