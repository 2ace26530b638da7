
PROGRAM linpackd
  INTEGER n, lda, i
  INTEGER a(120), b(120), ipvt(120)
  n = 100
  lda = 110
  ! main's own uses of its constants
  PRINT *, n, lda, lda - n
  DO i = 1, n
    a(i) = i
    b(i) = 1
  ENDDO
  CALL dgefa(a, lda, n, ipvt)
  PRINT *, n + lda
  CALL dgesl(a, lda, n, ipvt, b)
  PRINT *, n * 2
END

SUBROUTINE dgefa(a, lda, n, ipvt)
  INTEGER a(120), ipvt(120), lda, n, k, inc, piv
  inc = 1
  ! uses of the constant-variable formals before any inner call
  PRINT *, lda, n, inc
  DO k = 1, n
    piv = idamax(a, n)
    ipvt(k) = piv
    CALL dscal(a, n - k)
    CALL daxpy(a, a, n - k, inc)
  ENDDO
  ! MOD keeps lda, n and inc alive across the BLAS calls
  PRINT *, lda - 1, n - 1, inc + 1
  PRINT *, lda * 2, n * 2
END

SUBROUTINE dgesl(a, lda, n, ipvt, b)
  INTEGER a(120), ipvt(120), b(120), lda, n, k, inc
  inc = 1
  PRINT *, lda, n
  DO k = 1, n
    CALL daxpy(b, a, n - k, inc)
  ENDDO
  PRINT *, lda + n, inc, n - 1
END

SUBROUTINE dscal(v, len)
  INTEGER v(120), len, j
  DO j = 1, 120
    v(j) = v(j) * 2
  ENDDO
  v(1) = len
END

SUBROUTINE daxpy(x, y, len, incr)
  INTEGER x(120), y(120), len, incr, j
  DO j = 1, 120
    x(j) = x(j) + y(j)
  ENDDO
  x(1) = len + incr
END

INTEGER FUNCTION idamax(v, len)
  INTEGER v(120), len, j, best
  best = 1
  DO j = 1, 120
    IF (v(j) .GT. v(best)) best = j
  ENDDO
  idamax = best
END
