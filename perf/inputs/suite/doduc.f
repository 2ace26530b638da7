
PROGRAM doduc
  INTEGER seed, t0, i
  INTEGER state(60)
  CALL dod0(state, 60, 3)
  CALL dod1(state, 60, 5)
  CALL dod2(state, 60, 7)
  CALL dod3(state, 60, 9)
  CALL dod4(state, 60, 11)
  CALL dod5(state, 60, 13)
  CALL dod6(state, 60, 15)
  CALL dod7(state, 60, 17)
  CALL dod8(state, 60, 19)
  CALL dod9(state, 60, 21)
  ! one constant-variable actual: the literal technique loses the single
  ! use inside dodvar
  seed = 12
  CALL dodvar(state, seed)
  ! a constant-returning function feeding two uses
  t0 = inittm()
  PRINT *, t0, t0 + 1
  i = 7
  CALL dodvar(state, seed)
  ! exactly one use after a call: lost without MOD information
  PRINT *, i
END

SUBROUTINE dodvar(s, sd)
  INTEGER s(60), sd
  s(3) = sd
END

INTEGER FUNCTION inittm()
  inittm = 1977
END

SUBROUTINE dod0(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 1
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod1(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 2
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod2(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 3
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod3(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 4
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod4(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 5
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod5(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 6
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod6(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 7
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod7(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 8
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod8(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 9
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END


SUBROUTINE dod9(s, n, k)
  INTEGER s(60), n, k, i
  DO i = 1, n
    s(i) = s(i) + k * 10
  ENDDO
  PRINT *, n + k, n - k, n * k
  PRINT *, k / 2, k ** 2
  s(1) = s(2) + n
END
