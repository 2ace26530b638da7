
PROGRAM trfd
  INTEGER norb, npass, nrs, i
  INTEGER xrsiq(40)
  norb = 8
  npass = 2
  nrs = norb * (norb + 1) / 2
  ! intraprocedural constant uses before any call
  PRINT *, norb, npass, nrs
  DO i = 1, nrs
    xrsiq(i) = norb + npass
  ENDDO
  CALL trfa(xrsiq, 40)
  ! these uses survive a call only thanks to MOD information
  PRINT *, norb - 1, npass + 1
  CALL trfb(xrsiq, 40)
  PRINT *, nrs - norb
END

SUBROUTINE trfa(v, len)
  INTEGER v(40), len, i
  ! len arrives as the literal 40: one interprocedural constant use
  DO i = 1, len
    v(i) = v(i) * 2
  ENDDO
END

SUBROUTINE trfb(w, len)
  INTEGER w(40), len, j
  ! len is never read as a scalar value here (the loop bound is local),
  ! so this routine contributes no interprocedural uses
  INTEGER bound
  bound = 40
  DO j = 1, bound
    w(j) = w(j) + 1
  ENDDO
END
