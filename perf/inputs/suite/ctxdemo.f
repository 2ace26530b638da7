
PROGRAM ctxdemo
  INTEGER a(1), b(1)
  a(1) = 0
  b(1) = 0
  CALL cpair(a, 1, 1)
  CALL cpair(a, 5, 5)
  CALL codd(b, 3)
  CALL codd(b, 7)
  PRINT *, a(1), b(1)
END

SUBROUTINE cpair(a, x, y)
  INTEGER a(1), x, y, d
  d = y - x + 1
  a(d) = a(d) + x
END

SUBROUTINE codd(b, x)
  INTEGER b(1), x
  CALL cuse(b, MOD(x, 2))
END

SUBROUTINE cuse(b, r)
  INTEGER b(1), r
  b(r) = b(r) + 1
END
