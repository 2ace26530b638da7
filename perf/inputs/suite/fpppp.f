
PROGRAM fpppp
  INTEGER nprim, mxang
  INTEGER ints(90), work(90)
  nprim = 16
  CALL fmtgen(ints, work, 90, 4)
  ! nprim is a constant-variable actual: literal jump functions lose the
  ! five uses inside twoel
  CALL twoel(ints, nprim)
  mxang = 3
  PRINT *, mxang, nprim
END

! the single dominant routine, as in the real fpppp
SUBROUTINE fmtgen(v, w, len, nang)
  INTEGER v(90), w(90), len, nang, i, nroot, mmax, acc
  nroot = 5
  mmax = 12
  ! uses before the first call
  PRINT *, nroot, mmax, nroot * mmax
  DO i = 1, len
    v(i) = nroot
  ENDDO
  CALL aux(v, w)
  ! MOD-protected uses of locals and literal formals
  PRINT *, nroot + mmax, mmax - nroot
  DO i = 1, mmax
    w(i) = v(i) * nang
  ENDDO
  CALL aux(w, v)
  PRINT *, nroot * 2, mmax * 2, nang + nroot
  acc = seedfn()
  ! four uses needing the return jump function of seedfn
  PRINT *, acc, acc + 1, acc * 2, acc - 1
  ! the chain: len flows through unchanged
  CALL inner(v, len)
  ! a genuinely polynomial actual (len - 2*nang): the polynomial jump
  ! function represents it; scale is never read by vscale, so — as the
  ! paper found — the polynomial technique builds the function without
  ! gaining constants over pass-through
  CALL vscale(v, len - nang * 2)
  PRINT *, len + nang
END

SUBROUTINE vscale(v, scale)
  INTEGER v(90), scale, j
  DO j = 1, 90
    v(j) = v(j) * 2
  ENDDO
END

SUBROUTINE inner(v, n)
  INTEGER v(90), n, j
  ! six uses at the end of a pass-through chain (main -> fmtgen -> inner)
  DO j = 1, n
    v(j) = v(j) + n
  ENDDO
  PRINT *, n, n + 1, n - 1, n / 2
END

SUBROUTINE twoel(v, np)
  INTEGER v(90), np, j
  ! five uses of the constant-variable formal np
  DO j = 1, np
    v(j) = v(j) * np
  ENDDO
  PRINT *, np + 2, np - 2, np * np
END

SUBROUTINE aux(a, b)
  INTEGER a(90), b(90), j
  DO j = 1, 90
    a(j) = a(j) + b(j)
  ENDDO
END

INTEGER FUNCTION seedfn()
  seedfn = 100
END
