PROGRAM main
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  DATA g0 /5/, g1 /0/, g3 /4/
  v0 = 4
  v1 = 0
  g2 = 4
  DO v0 = 1, 12
    la(v0) = 2 * v0
  ENDDO
  v0 = 0
  g2 = la(3)
  g1 = la(5)
  la(12) = abs(-4)
  DO g1 = 0, 3
    g0 = 0
  ENDDO
  g2 = (abs(la(6)) - la(8))
  CALL proc0(4)
  CALL proc666(6)
  CALL proc1333(4, v0)
  PRINT *, v0
  PRINT *, v1
  PRINT *, g0
  PRINT *, g1
  PRINT *, g2
  PRINT *, g3
END

SUBROUTINE proc0(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 13
  v2 = -1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(v1, la(12))
  la(10) = (f0 * 13)
  g0 = v3
  IF (.NOT. (-5 .GT. max(la(6), 11))) g1 = (15 - 12)
  v2 = 3
  v3 = la(4)
  g3 = -3
  CALL proc1((f0 + 1))
END

SUBROUTINE proc1(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 11
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = la(1)
  la(2) = 14
  IF (.NOT. (mod(la(4), 2) .GT. g0)) THEN
    g0 = (la(2) - la(10))
    v1 = g2
  ELSE
    v2 = la(10)
    IF (abs(-3) .NE. la(1) .OR. max(g1, 3) .EQ. g0) v2 = (9 * 15)
  ENDIF
  g1 = (max(8, g1) - abs(la(11)))
  PRINT *, (la(3) * g2)
  g0 = 14
  g1 = la(1)
  CALL proc2((f0 + 1), (0 + (la(9) + 11)))
END

SUBROUTINE proc2(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = 9
  CALL proc3(5, 4)
END

SUBROUTINE proc3(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 0
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(6) = (9 * 8)
  CALL proc4(5, 0)
END

SUBROUTINE proc4(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g1 = 3, 5
    PRINT *, -4
  ENDDO
  IF (la(6) .GE. la(9) .OR. (g3 - -4) .EQ. (la(3) / (6 + 5))) THEN
    PRINT *, 4
  ELSE
    g1 = ((la(3) + 0) + -4)
  ENDIF
  la(1) = la(6)
  IF (-1 .GE. 3 .OR. (f0 / (4 + 5)) .LE. (-4 / (5 + f0))) THEN
    g2 = la(8)
    g1 = 5
  ENDIF
  PRINT *, la(6)
  IF (la(4) .GE. mod(-4, 5) .OR. f0 .LT. mod(5, 4)) g2 = mod(g2, 5)
  PRINT *, g0
  CALL proc5((0 + (5 + la(11))), 7)
END

SUBROUTINE proc5(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = (g0 / (6 + f1))
  g1 = la(12)
  g3 = abs(f0)
  g1 = mod(g3, 5)
  CALL proc6((f0 + 1))
END

SUBROUTINE proc6(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = 5
  f0 = (la(7) * 14)
  g3 = mod((-4 - 15), 3)
  g2 = abs((la(4) - la(11)))
  PRINT *, la(10)
  g3 = g0
  PRINT *, v0
  CALL proc7((f0 + 1), v1)
END

SUBROUTINE proc7(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -2
  v2 = -2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = abs(6)
  CALL proc8((f0 + 1), v3)
END

SUBROUTINE proc8(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 14
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (6 * 15)
  v2 = 9
  IF (.NOT. (abs(4) .LE. v1)) THEN
    IF (.NOT. (la(9) .EQ. (-2 - la(3)))) g0 = -4
  ELSE
    IF ((f1 * g1) .NE. (3 + f0) .AND. 5 .EQ. g2) THEN
      g2 = ((0 + -4) * g3)
    ELSE
      PRINT *, (g0 * la(3))
    ENDIF
    IF (.NOT. ((la(6) + 2) .NE. la(12))) f1 = 12
  ENDIF
  CALL proc9(3)
END

SUBROUTINE proc9(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 3
  v2 = 14
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = v3
  g2 = la(11)
  PRINT *, abs((13 * 3))
  IF (abs(0) .GT. (-2 / (5 + g3))) g3 = (la(1) / (5 + la(8)))
  v0 = 8
  f0 = mod(max(la(2), la(3)), 3)
  g1 = la(1)
  IF (13 .LE. (v3 / (2 + g1)) .OR. la(7) .GT. (la(10) - -4)) THEN
    v0 = la(4)
  ENDIF
  CALL proc10(2)
END

SUBROUTINE proc10(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 5
  v2 = -3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(3)
  DO g1 = 2, 6
    v2 = la(5)
    la(11) = abs(mod(la(4), 6))
  ENDDO
  g0 = 3
  la(1) = 1
  IF (la(1) .LE. (2 * la(6)) .AND. la(10) .GT. (v3 - 9)) THEN
    g0 = 9
    v2 = abs(abs(4))
  ELSE
    g2 = g0
  ENDIF
  v2 = -2
  v3 = (mod(10, 4) * v1)
  v3 = max(g3, 15)
  CALL proc11((f0 + 1))
END

SUBROUTINE proc11(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = max(-4, la(10))
  PRINT *, 5
  g1 = -4
  g0 = 8
  v1 = la(11)
  PRINT *, la(2)
  PRINT *, g1
  CALL proc12(6)
END

SUBROUTINE proc12(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -4
  v2 = 4
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = ((la(12) - v2) * la(7))
  g0 = abs(max(v3, 10))
  DO v2 = 2, 3
    PRINT *, 9
    DO f0 = 2, 4
      PRINT *, 9
    ENDDO
  ENDDO
  IF (.NOT. (abs(6) .LT. (7 + f0))) THEN
    IF (9 .GT. 8 .OR. abs(la(2)) .LT. mod(7, 7)) v3 = (la(1) / (3 + v0))
  ELSE
    v0 = (12 * -3)
  ENDIF
  IF (la(9) .LE. max(v1, 8) .AND. v2 .LE. abs(la(3))) v1 = mod(v3, 3)
  CALL proc13((0 + (6 + la(11))))
END

SUBROUTINE proc13(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((-5 - la(10)) / (6 + 1))
  v1 = abs(v0)
  DO g0 = 1, 3
    g2 = ((la(8) / (6 + la(2))) - (v2 + g3))
  ENDDO
  la(5) = ((-4 * v1) + (g3 - g2))
  g2 = ((5 / (4 + -2)) + mod(-1, 4))
  g1 = (abs(-3) + (la(10) / (3 + 13)))
  IF (g2 .GT. (15 / (5 + la(2))) .AND. v1 .EQ. -3) v0 = 4
  g2 = ((10 * 6) - abs(g0))
  g0 = 5
  g2 = ((g0 + 10) / (6 + 11))
  CALL proc14((0 + (g1 / (5 + v0))))
END

SUBROUTINE proc14(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = 11
  CALL proc15(5, (0 + g3))
END

SUBROUTINE proc15(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -4
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(6) = 1
  IF ((-1 + g2) .NE. (7 - 4)) g3 = max(1, v0)
  g1 = (abs(f0) + (8 - 1))
  DO v2 = 0, 3
    PRINT *, 3
    PRINT *, 4
  ENDDO
  CALL proc16((0 + g3))
END

SUBROUTINE proc16(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 3
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = max(v0, la(7))
  g1 = f0
  g1 = g0
  v1 = -2
  IF (-2 .LT. la(2) .AND. (5 + 14) .GT. mod(v0, 8)) f0 = la(6)
  g0 = max(la(4), 11)
  DO f0 = 0, 2
    IF (.NOT. (g1 .EQ. (la(1) - -4))) THEN
      la(7) = mod(12, 3)
    ENDIF
  ENDDO
  CALL proc17((0 + g0))
END

SUBROUTINE proc17(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 0, 0
    g0 = abs((5 - f0))
    g1 = mod(2, 7)
  ENDDO
  la(8) = ((la(4) + g2) / (3 + la(10)))
  DO g1 = 3, 4
    g2 = f0
  ENDDO
  v1 = 6
  v2 = la(9)
  g0 = la(6)
  IF (la(12) .GT. (g2 + g1) .OR. max(v2, v1) .GE. g1) g1 = abs(la(10))
  v2 = abs(-3)
  DO v2 = 1, 3
    IF (v0 .EQ. f0) THEN
      IF (2 .LT. 7 .AND. abs(la(3)) .LE. (15 + la(3))) g3 = la(2)
      g1 = (12 / (5 + 6))
    ELSE
      g1 = v0
      g1 = 14
    ENDIF
  ENDDO
  CALL proc18(7)
END

SUBROUTINE proc18(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 13
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((g3 - la(10)) .GT. 3 .OR. 14 .NE. g3) v0 = -5
  DO g1 = 0, 0
    DO g2 = 3, 5
      PRINT *, 3
      v2 = la(4)
    ENDDO
  ENDDO
  g3 = (max(g3, 1) / (2 + 10))
  v2 = max(-5, v2)
  PRINT *, g1
  CALL proc19(5, 8)
END

SUBROUTINE proc19(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(6) = (mod(g2, 6) * 15)
  IF ((la(2) / (5 + la(7))) .EQ. 10) THEN
    v0 = max(11, -5)
    IF ((la(4) + g0) .LE. la(2) .AND. max(6, f0) .LE. la(1)) THEN
      v0 = ((11 - 5) - (-3 * f0))
      v0 = ((g1 - la(7)) * v1)
    ELSE
      g2 = (f0 / (4 + -5))
      la(2) = 12
    ENDIF
  ENDIF
  f0 = g0
  f0 = 5
  IF (g0 .EQ. (f0 - 3) .AND. (la(9) + 7) .GT. la(11)) f1 = (f0 * -4)
  CALL proc20((0 + 2))
END

SUBROUTINE proc20(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 5
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, v2
  CALL proc21(5, v0)
END

SUBROUTINE proc21(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, mod(13, 2)
  f1 = (mod(9, 7) + 14)
  g0 = (la(11) + (la(12) / (6 + la(7))))
  g2 = la(2)
  CALL proc22((0 + (la(12) * v0)), (0 + 4))
END

SUBROUTINE proc22(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = 8
  CALL proc23(7)
END

SUBROUTINE proc23(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = ((g2 + 8) / (2 + 14))
  f0 = (la(6) * 5)
  g0 = 2
  v0 = la(3)
  g0 = abs(15)
  CALL proc24(6, (0 + max(5, g0)))
END

SUBROUTINE proc24(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = ((3 / (3 + la(12))) * -5)
  v0 = mod(7, 6)
  IF (mod(la(6), 5) .LE. 13 .OR. max(f0, 3) .EQ. mod(g2, 4)) THEN
    DO g0 = 2, 2
      f1 = v0
    ENDDO
  ELSE
    IF (.NOT. (12 .LT. (la(7) + f1))) THEN
      g2 = 15
      g2 = la(7)
    ENDIF
    g2 = la(12)
  ENDIF
  g2 = v1
  DO g2 = 0, 4
    f1 = mod(f1, 3)
  ENDDO
  g2 = ((-5 * 10) * 11)
  v0 = 6
  CALL proc25(2)
END

SUBROUTINE proc25(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 4
  v2 = -1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(la(7), la(7)) .EQ. 5 .AND. (la(8) / (5 + la(4))) .NE. max(-4, 6)) v0 = 5
  f0 = mod((3 * 0), 4)
  g0 = la(4)
  CALL proc26(2, (0 + 14))
END

SUBROUTINE proc26(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO f0 = 3, 4
    PRINT *, mod(abs(-3), 3)
    g2 = max(-3, la(7))
  ENDDO
  g1 = 10
  IF (-2 .EQ. (9 - 14) .AND. -5 .GE. (la(9) / (4 + la(6)))) f0 = 9
  g3 = la(11)
  PRINT *, 3
  v1 = max(f0, -2)
  v0 = la(2)
  v1 = (g0 - (g3 / (5 + la(3))))
  v0 = g2
  CALL proc27((f0 + 1), (0 + g3))
END

SUBROUTINE proc27(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 7
  v2 = 0
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (abs(la(6)) .LE. 12) g1 = (14 * g2)
  CALL proc28(2, (0 + max(13, 4)))
END

SUBROUTINE proc28(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 0
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-4 .GE. (g0 / (5 + la(12)))) THEN
    v0 = mod(12, 6)
    IF ((4 * la(8)) .GT. v1 .OR. (5 * 2) .GE. -4) THEN
      g1 = mod(mod(g3, 6), 4)
      g3 = ((14 * 4) / (5 + -1))
    ENDIF
  ENDIF
  g2 = 8
  f1 = abs((4 + g2))
  g1 = 11
  la(4) = la(2)
  IF (.NOT. (-3 .LT. (la(9) + la(10)))) g1 = max(7, 15)
  g0 = ((la(3) + la(8)) * -3)
  v1 = g3
  CALL proc29((0 + g2), (0 + 0))
END

SUBROUTINE proc29(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(1) = max(7, -5)
  IF (la(11) .GE. v0) v2 = la(12)
  g1 = abs(max(f1, 2))
  v0 = abs((g0 * 11))
  g0 = 11
  PRINT *, (abs(6) / (5 + -2))
  IF (abs(la(8)) .GT. abs(g0)) g0 = (-5 / (4 + 3))
  g2 = (abs(la(12)) - (-2 + -4))
  IF (abs(-4) .LE. -3 .AND. (v2 + 3) .GT. v0) THEN
    IF (abs(la(8)) .LE. g0 .OR. mod(la(11), 6) .EQ. la(2)) g3 = (g1 - 11)
  ELSE
    DO g0 = 1, 1
      g3 = 2
    ENDDO
  ENDIF
  CALL proc30((0 + (g1 - 7)), f1)
END

SUBROUTINE proc30(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f1 = 1, 1
    PRINT *, -4
    g0 = max(7, 4)
  ENDDO
  IF ((12 - 10) .EQ. mod(g3, 7) .AND. f1 .LE. 13) THEN
    f0 = 0
  ELSE
    IF (max(4, la(8)) .LE. v0 .OR. 8 .GE. 15) THEN
      g1 = 4
    ENDIF
    PRINT *, (max(-5, 9) - la(1))
  ENDIF
  IF (9 .GT. (1 / (4 + 9))) THEN
    v0 = ((15 / (2 + 10)) - -4)
  ENDIF
  DO g1 = 1, 4
    v1 = 8
  ENDDO
  PRINT *, ((5 + g3) * 8)
  CALL proc31(5, f0)
END

SUBROUTINE proc31(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = 14
  v1 = (g0 / (2 + -5))
  DO g1 = 3, 7
    g0 = (max(4, la(12)) + 1)
  ENDDO
  g1 = la(6)
  g2 = 15
  g0 = ((f0 + g2) / (2 + 8))
  CALL proc32(3, (0 + 9))
END

SUBROUTINE proc32(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = mod((9 * 8), 6)
  PRINT *, max(v0, f1)
  IF (8 .NE. g1 .AND. la(7) .LE. abs(12)) THEN
    v2 = 7
    la(6) = la(5)
  ENDIF
  f0 = ((la(5) * f0) / (4 + 14))
  la(11) = ((-1 + 2) + -3)
  f1 = g2
  v2 = 10
  g0 = f1
  CALL proc33(7, v0)
END

SUBROUTINE proc33(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 5
  v2 = 4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = mod((8 + 13), 3)
  PRINT *, la(4)
  CALL proc34(2, (0 + mod(v1, 4)))
END

SUBROUTINE proc34(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = la(5)
  f0 = mod((-5 * -3), 4)
  DO f0 = 3, 4
    g3 = (max(12, la(9)) + 1)
  ENDDO
  PRINT *, (4 - -1)
  IF (max(la(9), 6) .GT. la(1)) THEN
    PRINT *, la(4)
    v1 = g0
  ENDIF
  CALL proc35(5)
END

SUBROUTINE proc35(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 7
  v2 = -1
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = -4
  v2 = mod(1, 6)
  IF (7 .GT. 8 .OR. g2 .GE. (7 * la(9))) THEN
    g1 = 3
    g2 = ((g1 * la(7)) * f0)
  ENDIF
  f0 = -3
  f0 = la(5)
  IF (.NOT. (mod(g0, 8) .GT. -1)) THEN
    v0 = la(8)
  ENDIF
  g0 = 9
  la(1) = mod((la(1) + 5), 7)
  IF (.NOT. (la(8) .NE. (14 * la(4)))) THEN
    g0 = la(5)
  ELSE
    PRINT *, 4
    IF ((6 + 0) .LE. mod(la(7), 5)) v0 = mod(12, 5)
  ENDIF
  CALL proc36((0 + abs(3)), (0 + (10 - la(8))))
END

SUBROUTINE proc36(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(8) .EQ. la(6)) THEN
    g3 = (11 - max(la(3), -2))
  ELSE
    v1 = f1
    g0 = (abs(-5) - (f1 - 9))
  ENDIF
  g0 = 0
  v1 = la(10)
  v1 = 8
  IF (abs(la(2)) .LT. (9 * la(5)) .OR. 2 .NE. (5 / (4 + g0))) THEN
    la(2) = (9 * -1)
  ENDIF
  CALL proc37((0 + 8), v0)
END

SUBROUTINE proc37(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -1
  v2 = 5
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(la(10), 1)
  g1 = (la(11) - la(11))
  CALL proc38((f0 + 1))
END

SUBROUTINE proc38(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 5
  v2 = 6
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(7) = (7 / (6 + la(1)))
  la(4) = max(g3, la(8))
  g0 = (v0 - abs(la(6)))
  IF ((7 - -2) .LT. la(1) .AND. max(la(1), la(1)) .EQ. v3) THEN
    IF ((6 + v2) .GT. (g2 / (2 + 3)) .AND. g0 .GE. (-5 + g0)) g0 = mod(4, 4)
  ENDIF
  v3 = (abs(v1) + la(9))
  CALL proc39(5, v3)
END

SUBROUTINE proc39(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 14
  v2 = 8
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (g0 * -2)
  v0 = ((-4 * 1) * 8)
  f1 = (g3 / (2 + g2))
  g0 = 13
  IF (1 .LE. abs(-3) .AND. abs(2) .LE. mod(8, 6)) g2 = max(g2, 11)
  CALL proc40((0 + 1))
END

SUBROUTINE proc40(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = -3
  g1 = la(7)
  g2 = mod((0 / (5 + 4)), 7)
  IF (.NOT. (v0 .NE. (f0 * la(8)))) g0 = (6 + 6)
  g0 = (10 / (3 + 3))
  g2 = f0
  CALL proc41(6)
END

SUBROUTINE proc41(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 5
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (g0 * 2)
  PRINT *, 1
  f0 = 7
  IF (-5 .LE. (g2 - 2) .OR. 14 .EQ. 7) THEN
    IF (la(5) .GT. -1 .OR. v0 .NE. (1 * 8)) v1 = max(15, la(5))
    la(11) = -2
  ENDIF
  CALL proc42((f0 + 1))
END

SUBROUTINE proc42(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 9
  v2 = -3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = ((la(8) - 0) * 14)
  g3 = g2
  g0 = ((5 + 9) / (5 + la(3)))
  f0 = (max(v3, 3) + (la(3) - 2))
  la(6) = -2
  IF (-5 .NE. (6 / (4 + la(12))) .OR. la(5) .EQ. (la(8) / (3 + g0))) g1 = g2
  v3 = ((-2 + g1) / (6 + la(3)))
  v0 = f0
  g3 = g1
  la(10) = 15
  CALL proc43((0 + (la(11) / (6 + g2))), 4)
END

SUBROUTINE proc43(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 1
  v2 = 9
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (la(1) + max(-5, v1))
  CALL proc44(3, v1)
END

SUBROUTINE proc44(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (9 .GE. 13) v0 = max(g2, 11)
  v2 = (-5 - abs(0))
  IF (g1 .GT. la(12) .OR. (la(3) + g3) .LE. (la(10) / (6 + 8))) THEN
    IF ((7 - 12) .GE. 15 .AND. g3 .LT. abs(10)) g2 = 4
    la(12) = -4
  ELSE
    v0 = (7 * -4)
  ENDIF
  v0 = 8
  IF (.NOT. ((3 + v2) .GT. (la(5) * -1))) g2 = max(-2, -3)
  v0 = g0
  CALL proc45(5)
END

SUBROUTINE proc45(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = v0
  v1 = (-3 * g3)
  g0 = f0
  IF ((11 * -5) .GT. v0 .AND. 8 .LT. (la(12) * g2)) THEN
    g3 = 15
  ENDIF
  IF (v1 .GT. la(7)) v0 = -3
  v1 = v2
  g1 = v2
  DO g2 = 3, 3
    la(10) = -3
    DO v1 = 1, 2
      f0 = g3
      IF (abs(9) .LE. (la(3) - la(6))) v0 = g3
    ENDDO
  ENDDO
  CALL proc46(3, 2)
END

SUBROUTINE proc46(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = 4
  v2 = la(1)
  DO v2 = 0, 2
    la(9) = ((2 + 13) - g2)
    g3 = ((g0 - 9) * la(12))
  ENDDO
  CALL proc47(7, (0 + (15 * la(12))))
END

SUBROUTINE proc47(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v0 = 3, 3
    g0 = ((la(11) - 8) * g0)
    f0 = (f0 * 0)
  ENDDO
  CALL proc48(4)
END

SUBROUTINE proc48(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = 9
  g2 = (mod(v0, 2) * v1)
  PRINT *, mod((la(4) + 10), 5)
  g2 = 11
  CALL proc49(7, (0 + (9 * 7)))
END

SUBROUTINE proc49(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 4
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = 6
  v1 = g0
  g2 = la(7)
  CALL proc50((f0 + 1))
END

SUBROUTINE proc50(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = -1
  g2 = -2
  g3 = mod(abs(la(11)), 8)
  DO f0 = 2, 2
    IF (11 .LE. (2 / (4 + la(8))) .OR. g1 .EQ. la(2)) g0 = mod(-4, 5)
  ENDDO
  g2 = (g1 + mod(7, 3))
  CALL proc51((f0 + 1), 2)
END

SUBROUTINE proc51(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 13
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 13
  la(11) = (8 / (4 + 8))
  g3 = -1
  PRINT *, 7
  CALL proc52((0 + max(0, 1)))
END

SUBROUTINE proc52(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = -1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (g0 - mod(8, 4))
  g1 = mod(v3, 6)
  v3 = ((la(2) * v0) * v3)
  v0 = max(la(8), 3)
  IF (la(4) .GT. -4) THEN
    DO g1 = 1, 4
      PRINT *, 5
    ENDDO
  ELSE
    IF (14 .NE. 4 .OR. mod(3, 2) .EQ. max(f0, 11)) THEN
      v1 = 4
      g2 = v1
    ENDIF
  ENDIF
  PRINT *, (abs(0) * 5)
  g3 = mod(mod(la(1), 5), 2)
  la(6) = la(11)
  DO v0 = 2, 4
    DO f0 = 2, 5
      v2 = (la(4) * v2)
      g3 = g3
    ENDDO
    v1 = (abs(-2) + mod(3, 5))
  ENDDO
  g0 = mod(-5, 5)
  CALL proc53((f0 + 1))
END

SUBROUTINE proc53(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 4
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = 14
  g0 = v0
  v1 = mod((8 * 0), 5)
  IF (.NOT. ((la(9) - 13) .GT. la(3))) THEN
    f0 = ((10 * 5) - abs(7))
  ENDIF
  v0 = mod((12 - la(12)), 4)
  v2 = max(4, 11)
  CALL proc54(4)
END

SUBROUTINE proc54(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((11 + -2) .LT. abs(-1) .OR. la(10) .LE. -5) THEN
    f0 = 6
    IF (.NOT. (0 .LT. abs(g2))) v0 = mod(g1, 5)
  ELSE
    v0 = mod(abs(12), 7)
    g1 = 7
  ENDIF
  f0 = (13 - mod(-5, 6))
  v1 = max(4, 9)
  PRINT *, (la(6) + (g3 * 7))
  DO g3 = 0, 0
    g1 = la(1)
  ENDDO
  la(6) = g3
  CALL proc55((f0 + 1))
END

SUBROUTINE proc55(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 7
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v2 = 0, 0
    g1 = mod(abs(la(5)), 3)
    DO g3 = 0, 1
      v0 = (mod(la(11), 8) - (la(11) - 15))
      g0 = (abs(g1) / (6 + v0))
    ENDDO
  ENDDO
  g0 = mod(g3, 2)
  g3 = g0
  v1 = abs(la(12))
  la(11) = ((la(12) - 0) / (5 + -1))
  IF (.NOT. ((13 * f0) .NE. mod(la(7), 6))) v2 = (1 - 14)
  CALL proc56((0 + la(2)), v2)
END

SUBROUTINE proc56(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 14
  v2 = 4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = mod(la(11), 7)
  g3 = -2
  IF (la(4) .EQ. max(la(3), v2) .AND. (13 - 7) .EQ. mod(-3, 5)) THEN
    DO g1 = 2, 5
      IF (.NOT. ((12 + f1) .NE. abs(2))) v0 = 4
      g3 = (g1 * 4)
    ENDDO
  ELSE
    PRINT *, (mod(15, 8) * la(11))
  ENDIF
  PRINT *, ((g2 / (4 + 6)) / (2 + 0))
  v2 = v0
  g1 = (v1 + 5)
  v3 = -2
  la(11) = mod((v1 - g2), 2)
  CALL proc57(7, v2)
END

SUBROUTINE proc57(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (5 .GE. (4 * 9) .OR. max(6, v1) .LE. la(5)) THEN
    IF (mod(la(6), 3) .NE. la(9) .AND. -2 .LE. abs(-2)) f0 = (la(9) + 2)
  ELSE
    g1 = 0
    g3 = (mod(-5, 6) * 13)
  ENDIF
  g1 = mod((v0 * 10), 7)
  PRINT *, (9 * 5)
  PRINT *, 11
  la(11) = -1
  g1 = (mod(g1, 6) / (5 + f1))
  v1 = la(12)
  IF (abs(-4) .LT. (la(9) - -5)) THEN
    g3 = la(12)
  ENDIF
  PRINT *, f0
  CALL proc58(2)
END

SUBROUTINE proc58(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (mod(6, 5) .GE. (f0 * g3)) THEN
    v0 = (max(la(8), g3) - (la(4) + 7))
    v1 = v0
  ELSE
    g0 = abs((g3 + -5))
  ENDIF
  la(6) = abs(g2)
  g3 = (max(8, 1) + max(g3, -3))
  CALL proc59(3)
END

SUBROUTINE proc59(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 10
  g1 = 6
  g2 = ((g0 * -1) / (2 + 6))
  IF (g3 .LT. max(la(4), g2) .OR. (-3 - 9) .GT. 13) v0 = v0
  f0 = (5 / (6 + 1))
  v1 = la(6)
  CALL proc60((0 + 10))
END

SUBROUTINE proc60(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 6
  v2 = 14
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = max(g2, 5)
  g2 = (v0 * la(8))
  CALL proc61((f0 + 1), f0)
END

SUBROUTINE proc61(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 3
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (11 .GT. g3 .AND. mod(f0, 4) .EQ. -1) f0 = la(8)
  f0 = 1
  la(6) = abs(mod(3, 6))
  g3 = max(la(10), -1)
  IF ((la(8) / (3 + la(11))) .GE. -2) THEN
    la(10) = (7 - (-4 + 12))
    v3 = v0
  ELSE
    DO v2 = 2, 2
      f1 = mod(la(9), 2)
    ENDDO
  ENDIF
  v0 = ((1 + 2) + 13)
  PRINT *, g2
  DO g2 = 3, 7
    IF (abs(15) .EQ. v3 .OR. (11 + la(10)) .LT. max(v1, f1)) v0 = la(5)
  ENDDO
  CALL proc62((0 + 11))
END

SUBROUTINE proc62(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -1
  v2 = -1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = (max(5, 3) / (3 + v1))
  IF ((g1 - la(4)) .LE. mod(la(7), 8) .OR. 11 .LT. -3) v1 = abs(11)
  DO g1 = 1, 2
    IF (.NOT. ((g0 - f0) .GT. max(-3, la(4)))) g3 = -3
  ENDDO
  v1 = abs(0)
  DO v2 = 1, 5
    f0 = max(15, 15)
  ENDDO
  v1 = la(11)
  g0 = -3
  CALL proc63(6, -1)
END

SUBROUTINE proc63(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 3
  v2 = 8
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(la(9), 4) .GT. 1) THEN
    g3 = la(7)
  ELSE
    g1 = g3
    IF (abs(14) .GE. abs(7)) THEN
      IF (abs(10) .GE. (la(2) + f1) .AND. abs(10) .NE. max(14, f1)) g0 = (la(12) * 3)
    ELSE
      v0 = (max(g3, 14) * 1)
    ENDIF
  ENDIF
  v0 = (la(11) * 1)
  v1 = (la(8) * la(1))
  la(4) = max(la(9), 4)
  v0 = -4
  CALL proc64((0 + max(g0, v0)))
END

SUBROUTINE proc64(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(5) = mod((13 / (5 + g2)), 5)
  g0 = 7
  CALL proc65((0 + mod(la(9), 4)))
END

SUBROUTINE proc65(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((g1 + g2) .EQ. abs(f0)) THEN
    DO f0 = 1, 4
      la(9) = ((15 * 13) * 10)
      la(6) = 6
    ENDDO
  ELSE
    IF (abs(v0) .EQ. (3 * 11) .AND. 8 .LT. 9) THEN
      g2 = ((1 - 7) - abs(f0))
      PRINT *, (14 / (2 + 3))
    ELSE
      PRINT *, 9
      IF (.NOT. ((la(10) - la(9)) .LT. -5)) g2 = (la(3) / (4 + g1))
    ENDIF
  ENDIF
  la(4) = la(11)
  CALL proc66(4, v0)
END

SUBROUTINE proc66(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 2
  v2 = -4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = g0
  g3 = la(5)
  CALL proc67(4)
END

SUBROUTINE proc67(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 5
  v2 = 1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (12 .LT. f0 .OR. (la(10) / (3 + 8)) .GT. (1 * 13)) THEN
    v2 = max(v0, 13)
    IF (la(8) .NE. (la(10) - v0)) g3 = (la(12) / (3 + v1))
  ELSE
    la(10) = -1
  ENDIF
  PRINT *, (g0 - max(-4, la(11)))
  IF (mod(la(12), 8) .EQ. (8 / (5 + la(12)))) THEN
    v1 = mod(2, 3)
  ENDIF
  v0 = mod(max(11, 4), 3)
  f0 = abs(v3)
  g3 = abs(1)
  f0 = abs((la(1) + 13))
  CALL proc68((f0 + 1), v1)
END

SUBROUTINE proc68(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 10
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((-3 + -1) .GE. (v2 - 2))) f1 = 9
  DO g1 = 0, 3
    la(12) = -2
  ENDDO
  v0 = la(1)
  IF (12 .LT. (0 - v2) .OR. (15 + 6) .LE. abs(0)) f0 = 14
  DO v0 = 0, 4
    DO g0 = 0, 4
      g3 = g3
      la(11) = abs(g1)
    ENDDO
    IF (.NOT. ((-2 / (2 + 2)) .LT. 6)) f0 = -2
  ENDDO
  CALL proc69(3, (0 + 9))
END

SUBROUTINE proc69(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (max(la(6), g2) .GT. 10) THEN
    IF ((g1 - -2) .LE. 10) THEN
      g1 = abs(max(3, v0))
    ENDIF
  ELSE
    v0 = -2
  ENDIF
  IF (3 .NE. 0) THEN
    g2 = v1
  ELSE
    IF (7 .NE. v1) THEN
      g1 = abs(f0)
      g3 = 6
    ENDIF
  ENDIF
  DO g1 = 2, 6
    la(8) = (14 / (5 + 0))
    DO g0 = 1, 2
      la(1) = la(6)
    ENDDO
  ENDDO
  g1 = g0
  IF (-1 .EQ. (1 * -2) .AND. la(1) .GE. (7 * la(12))) THEN
    v0 = (mod(la(12), 8) / (4 + la(7)))
    DO g0 = 3, 3
      f1 = (5 + 10)
    ENDDO
  ELSE
    PRINT *, 3
  ENDIF
  PRINT *, 5
  v0 = (abs(7) / (2 + 5))
  CALL proc70((f0 + 1), v1)
END

SUBROUTINE proc70(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(-4, 2)
  g3 = (-4 + (3 / (6 + v0)))
  g0 = max(la(9), f1)
  la(8) = (15 * -2)
  CALL proc71(6)
END

SUBROUTINE proc71(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 8
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((10 * la(2)) .LE. la(11) .OR. (14 + v2) .EQ. (la(2) - 1)) THEN
    PRINT *, max(13, g0)
    IF (.NOT. ((2 - f0) .LE. 5)) v2 = mod(v2, 4)
  ENDIF
  g0 = mod(-1, 7)
  IF (mod(15, 2) .GT. 11 .AND. v1 .LT. mod(8, 3)) THEN
    g1 = 2
    g0 = max(2, 14)
  ELSE
    IF (max(8, v0) .GT. abs(5)) THEN
      v1 = mod(10, 5)
    ENDIF
  ENDIF
  f0 = v1
  DO v1 = 2, 2
    IF (2 .GE. 4 .OR. la(11) .LE. (la(11) - 4)) THEN
      f0 = (la(5) + la(6))
    ENDIF
    v2 = la(12)
  ENDDO
  PRINT *, -3
  v1 = la(8)
  CALL proc72((f0 + 1))
END

SUBROUTINE proc72(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = max(la(3), la(10))
  IF ((la(8) - 7) .LT. 15) THEN
    g3 = 10
  ELSE
    v0 = (g2 - la(7))
  ENDIF
  g2 = mod(g0, 6)
  IF (.NOT. (v1 .LE. 10)) g3 = mod(f0, 5)
  v0 = g3
  g0 = max(1, la(3))
  IF (mod(v0, 4) .LT. 10 .AND. la(3) .LT. 10) g1 = abs(v0)
  f0 = (abs(10) - (9 - -2))
  CALL proc73((0 + 0), f0)
END

SUBROUTINE proc73(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (la(5) .GE. (v0 * 7))) g0 = 10
  v0 = (la(4) * la(12))
  la(1) = 2
  IF (4 .GT. abs(7)) g0 = (13 * 7)
  PRINT *, la(8)
  DO f1 = 2, 4
    IF (.NOT. (la(2) .LE. abs(11))) v0 = la(1)
    v0 = (la(11) * 11)
  ENDDO
  CALL proc74(7, v1)
END

SUBROUTINE proc74(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(6, 3) .NE. la(11) .AND. -1 .GE. (6 * la(12))) THEN
    v0 = ((la(5) + la(7)) / (5 + g2))
  ENDIF
  PRINT *, mod((v2 / (6 + 12)), 4)
  v1 = v2
  f1 = (v2 - 0)
  v2 = v1
  v2 = f1
  f1 = max(3, v2)
  CALL proc75((f0 + 1))
END

SUBROUTINE proc75(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 3
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, -5
  la(1) = (10 + -1)
  IF (la(5) .LT. 1) f0 = max(8, 8)
  PRINT *, 1
  g1 = (7 / (5 + la(2)))
  f0 = (5 * 14)
  IF (v3 .LE. -3 .OR. 12 .EQ. (v2 * g2)) THEN
    PRINT *, 10
    g0 = mod(4, 8)
  ENDIF
  IF (.NOT. (-1 .EQ. la(3))) THEN
    la(2) = abs(max(5, la(6)))
    g3 = mod(la(12), 7)
  ELSE
    v1 = abs(abs(la(2)))
    PRINT *, la(4)
  ENDIF
  CALL proc76(3, (0 + 0))
END

SUBROUTINE proc76(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO f1 = 0, 4
    g2 = la(1)
    IF (5 .EQ. (12 + la(7)) .OR. 10 .NE. 1) g1 = mod(11, 2)
  ENDDO
  PRINT *, ((1 + la(12)) * la(6))
  DO v1 = 3, 3
    IF (v1 .LE. mod(-2, 3)) v0 = -5
    PRINT *, la(5)
  ENDDO
  la(6) = f1
  g0 = (la(4) - la(2))
  g0 = 9
  DO g3 = 3, 3
    g2 = (g2 * 1)
    g0 = la(2)
  ENDDO
  CALL proc77(3, v1)
END

SUBROUTINE proc77(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = la(5)
  g2 = 6
  CALL proc78((0 + (la(11) + 11)), v0)
END

SUBROUTINE proc78(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = 6
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(3) = mod(abs(-4), 7)
  PRINT *, la(2)
  f0 = 4
  v3 = la(4)
  DO v2 = 1, 2
    v1 = la(5)
    IF (.NOT. ((8 / (2 + 15)) .LE. (la(8) * 1))) THEN
      f1 = f0
      g2 = max(0, g3)
    ELSE
      PRINT *, ((13 + -4) + la(9))
      f0 = g1
    ENDIF
  ENDDO
  v0 = (0 - (9 * v3))
  g2 = abs(la(5))
  v0 = v2
  IF (.NOT. (la(11) .NE. la(12))) g3 = -5
  CALL proc79((f0 + 1), v0)
END

SUBROUTINE proc79(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(6) = ((11 * g3) + la(12))
  CALL proc80((0 + max(3, v1)), f0)
END

SUBROUTINE proc80(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = (abs(la(7)) + abs(5))
  IF (.NOT. (abs(2) .GT. mod(v1, 8))) g2 = (v0 / (5 + v2))
  IF (.NOT. (4 .LT. abs(6))) f0 = max(g0, 0)
  g2 = -1
  f1 = v2
  v1 = ((-3 - g2) * la(6))
  g2 = f0
  g3 = la(8)
  CALL proc81(6, 10)
END

SUBROUTINE proc81(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 13
  v2 = 0
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = (2 + 7)
  IF (0 .NE. 6) THEN
    DO g1 = 0, 2
      v3 = (abs(3) - abs(v1))
      v0 = la(10)
    ENDDO
  ENDIF
  DO g1 = 0, 2
    v3 = (-4 / (3 + 3))
  ENDDO
  v1 = ((0 - 7) + abs(14))
  la(12) = ((g3 * la(11)) + v0)
  f0 = 2
  IF (.NOT. (la(11) .GT. (5 / (3 + la(10))))) v3 = la(9)
  CALL proc82(6, f1)
END

SUBROUTINE proc82(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = ((f0 * 8) / (4 + 7))
  PRINT *, (la(5) + 5)
  g3 = v1
  g3 = (8 * g3)
  g0 = ((13 / (5 + la(12))) / (4 + -1))
  DO g0 = 3, 4
    f0 = mod(la(7), 8)
  ENDDO
  IF (.NOT. (abs(-1) .LT. g1)) THEN
    la(3) = -4
  ELSE
    g0 = ((la(1) * f1) / (2 + 7))
    g1 = (max(9, -3) / (3 + g1))
  ENDIF
  v1 = (la(8) * la(6))
  PRINT *, g0
  g1 = la(8)
  CALL proc83((0 + mod(0, 5)))
END

SUBROUTINE proc83(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, ((v0 / (4 + 9)) + abs(8))
  f0 = mod(15, 7)
  PRINT *, abs((la(4) / (2 + g2)))
  g1 = (g2 * la(3))
  v0 = mod((13 * 14), 2)
  v1 = abs((7 + la(1)))
  la(7) = 4
  IF (.NOT. (max(10, la(3)) .NE. (la(8) / (3 + g2)))) g1 = (-2 - 11)
  CALL proc84((0 + (g0 * 12)), v1)
END

SUBROUTINE proc84(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = abs((3 / (2 + -4)))
  IF (.NOT. ((la(2) - g3) .LE. g0)) THEN
    g2 = 11
    g0 = la(10)
  ELSE
    IF (f0 .GE. -2 .AND. -3 .EQ. g1) THEN
      la(1) = max(la(1), 11)
      IF (.NOT. ((11 - 13) .EQ. la(3))) v1 = mod(la(11), 3)
    ELSE
      la(6) = ((la(7) / (3 + 10)) - (la(6) / (5 + la(2))))
    ENDIF
  ENDIF
  g0 = max(g2, la(6))
  f0 = v0
  IF ((10 - 5) .LT. la(12) .AND. (f1 - 9) .GE. (7 + la(4))) g0 = 4
  IF (max(2, la(4)) .GT. (6 + g2) .OR. la(12) .LT. (0 + 13)) v1 = mod(5, 5)
  PRINT *, (mod(la(5), 5) + 2)
  PRINT *, mod(-2, 3)
  IF (max(6, -4) .EQ. (g2 + v1)) THEN
    v0 = (v1 / (6 + 3))
    PRINT *, abs((la(3) / (5 + g1)))
  ENDIF
  CALL proc85((0 + (4 - g0)))
END

SUBROUTINE proc85(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = (3 * g3)
  IF (la(7) .GE. la(10) .OR. (11 - la(7)) .NE. -4) THEN
    PRINT *, v0
  ENDIF
  PRINT *, max(14, g3)
  IF (-3 .GE. mod(g3, 8) .OR. (4 / (6 + la(10))) .GE. (la(5) / (4 + 1))) THEN
    v1 = 5
    IF ((g2 - la(1)) .LT. g0) g2 = abs(la(3))
  ENDIF
  DO v0 = 2, 4
    DO g2 = 1, 5
      PRINT *, 2
    ENDDO
  ENDDO
  DO g3 = 0, 3
    v1 = v1
  ENDDO
  PRINT *, max(la(9), la(7))
  g0 = abs(abs(6))
  g2 = 9
  IF (.NOT. ((-4 + v0) .EQ. (8 + la(12)))) g3 = (v2 * 11)
  CALL proc86(7)
END

SUBROUTINE proc86(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 7
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(7) = 0
  g1 = g2
  g1 = 8
  la(7) = 4
  CALL proc87(2, (0 + g2))
END

SUBROUTINE proc87(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 14
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = mod(mod(-1, 6), 4)
  f1 = 11
  IF ((f0 * 8) .LE. mod(3, 7) .OR. 8 .NE. la(7)) f0 = (4 + g3)
  g2 = ((la(6) + -5) - v2)
  IF ((15 / (5 + v1)) .GT. abs(0) .AND. v0 .GT. (11 * v3)) g0 = max(v2, 11)
  v0 = abs(max(g2, g1))
  DO f0 = 3, 5
    IF (.NOT. (la(5) .GE. la(8))) THEN
      g3 = (mod(14, 5) + g3)
      v0 = (1 * la(4))
    ENDIF
    v3 = 5
  ENDDO
  f1 = mod(la(10), 7)
  IF (.NOT. (v2 .NE. 7)) v1 = max(g3, -4)
  v2 = la(8)
  CALL proc88(6)
END

SUBROUTINE proc88(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 7
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = 8
  IF ((g2 - v2) .EQ. la(5) .OR. abs(-1) .GE. 12) THEN
    g0 = (abs(14) + (13 * 15))
    DO f0 = 0, 3
      v2 = 9
    ENDDO
  ELSE
    DO g3 = 2, 5
      f0 = mod(abs(la(8)), 8)
      g2 = ((12 + g2) * 10)
    ENDDO
    g3 = (abs(f0) + mod(la(7), 8))
  ENDIF
  g0 = ((3 * 15) - -1)
  la(8) = mod(15, 8)
  IF (abs(la(3)) .EQ. -4 .AND. (-1 - g1) .LT. la(8)) v2 = v0
  v2 = -2
  g3 = (4 * v1)
  f0 = la(10)
  la(6) = (la(3) - (10 - 11))
  la(7) = g1
  CALL proc89(5, (0 + (0 * 5)))
END

SUBROUTINE proc89(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, la(5)
  v1 = la(12)
  IF ((f0 / (6 + 7)) .NE. (g1 / (3 + la(11))) .AND. max(14, -2) .GT. max(f0, la(10))) THEN
    IF (.NOT. ((-3 * g2) .EQ. (la(12) * 11))) f1 = (9 + la(9))
    IF (13 .NE. (-3 - g1) .OR. 11 .LE. 2) f0 = v0
  ENDIF
  f0 = ((la(7) - g2) * 5)
  la(3) = abs((la(3) + -2))
  f0 = mod((f1 / (2 + la(5))), 8)
  CALL proc90(7)
END

SUBROUTINE proc90(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = (abs(0) * la(9))
  v1 = 7
  g3 = 3
  CALL proc91(6)
END

SUBROUTINE proc91(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -2
  v2 = 6
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = la(8)
  DO v0 = 1, 5
    f0 = mod(la(4), 3)
    v1 = v0
  ENDDO
  g0 = max(11, 1)
  la(7) = -3
  g3 = abs((la(2) - 14))
  g1 = ((v1 * la(7)) + (la(2) * la(1)))
  g3 = -3
  CALL proc92((0 + (-2 / (3 + 13))))
END

SUBROUTINE proc92(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 2
  v2 = -4
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 14
  DO v0 = 1, 4
    la(12) = v1
  ENDDO
  g1 = (4 * 10)
  v3 = (la(10) + (-4 * -3))
  IF (.NOT. (la(8) .LT. (4 / (2 + v3)))) THEN
    PRINT *, mod(max(1, 3), 7)
    IF ((0 / (2 + v3)) .NE. (la(8) + 14) .OR. max(-1, g1) .LT. -4) g3 = (5 / (5 + 3))
  ELSE
    g3 = 15
    v2 = max(la(7), g2)
  ENDIF
  CALL proc93(5)
END

SUBROUTINE proc93(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((g1 * -5) .NE. (8 + la(7)))) THEN
    IF (la(6) .GE. (4 / (6 + 4)) .OR. la(8) .LE. g2) THEN
      la(3) = abs(7)
      la(6) = la(8)
    ENDIF
  ENDIF
  DO g1 = 0, 1
    g0 = (la(10) + 10)
  ENDDO
  PRINT *, 12
  g2 = mod(abs(la(12)), 7)
  la(9) = (max(f0, la(10)) * la(12))
  CALL proc94(2)
END

SUBROUTINE proc94(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = max(la(11), 13)
  IF ((-2 / (3 + 11)) .LT. 15) THEN
    f0 = g2
  ELSE
    g2 = max(15, -4)
  ENDIF
  CALL proc95((f0 + 1), v1)
END

SUBROUTINE proc95(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = 15
  v1 = -1
  CALL proc96(3)
END

SUBROUTINE proc96(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 8
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = 10
  g1 = g3
  la(4) = 12
  IF ((-3 + 15) .LT. g3) THEN
    g2 = -2
    g0 = la(8)
  ENDIF
  la(4) = (abs(2) + abs(5))
  IF (.NOT. ((f0 - la(6)) .LE. la(1))) THEN
    PRINT *, (la(1) - -5)
    g1 = mod(0, 6)
  ENDIF
  CALL proc97(3, f0)
END

SUBROUTINE proc97(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 10
  v2 = -2
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g3 = 0, 1
    DO g2 = 1, 4
      f0 = ((0 - la(8)) / (6 + f0))
      g0 = ((1 - la(9)) * 3)
    ENDDO
    v1 = ((8 + la(4)) + f1)
  ENDDO
  CALL proc98(5, 5)
END

SUBROUTINE proc98(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 3
  v2 = 14
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = (mod(12, 4) / (5 + 4))
  g2 = mod(abs(la(5)), 7)
  v2 = la(12)
  PRINT *, abs((-4 - 4))
  v2 = (7 * f0)
  v2 = abs(g0)
  la(5) = (2 * 10)
  g3 = 15
  DO v0 = 3, 5
    la(10) = 13
    v2 = la(5)
  ENDDO
  DO f1 = 3, 7
    f0 = 7
    IF (mod(f1, 2) .LT. 12) THEN
      PRINT *, abs(g0)
    ENDIF
  ENDDO
  CALL proc99((0 + (-4 - g2)))
END

SUBROUTINE proc99(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g3 = 3, 4
    g2 = abs(max(g0, v0))
  ENDDO
  IF (-3 .NE. mod(11, 6) .AND. (g0 * 1) .LT. -3) g1 = la(12)
  CALL proc100((f0 + 1))
END

SUBROUTINE proc100(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = g3
  v1 = v1
  PRINT *, -3
  la(7) = abs(mod(v0, 3))
  IF (.NOT. (la(4) .GT. (g0 + 15))) v0 = max(g1, la(6))
  DO v0 = 3, 6
    f0 = 12
  ENDDO
  v1 = 8
  g2 = 2
  g1 = (mod(la(9), 2) - (v2 + 14))
  CALL proc101(4)
END

SUBROUTINE proc101(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -2
  v2 = -1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((6 - 4) .GT. (la(9) - 13))) v3 = v0
  PRINT *, la(6)
  g0 = (abs(10) - max(5, -1))
  v1 = (-4 * -1)
  IF (.NOT. (-3 .LT. abs(la(8)))) v2 = v3
  DO v1 = 2, 4
    IF (g0 .LE. g3) v3 = la(4)
  ENDDO
  CALL proc102(2)
END

SUBROUTINE proc102(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = g0
  la(10) = (v0 / (2 + la(3)))
  g2 = -5
  PRINT *, (5 + abs(la(8)))
  PRINT *, v1
  la(12) = la(6)
  g0 = 6
  PRINT *, (1 * 14)
  CALL proc103(7, (0 + g3))
END

SUBROUTINE proc103(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = la(7)
  f1 = ((3 * 13) / (6 + la(3)))
  g2 = (max(8, g3) - -4)
  v0 = (0 - la(9))
  v0 = (g2 - -1)
  g1 = max(la(11), 2)
  g3 = mod((la(2) - la(5)), 3)
  v1 = -1
  IF (.NOT. (9 .LE. (g3 + -3))) v1 = (g0 / (5 + -4))
  CALL proc104(7)
END

SUBROUTINE proc104(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((14 / (2 + 15)) .GT. 7 .AND. la(5) .LT. (g1 + 11)) THEN
    PRINT *, 6
    g1 = la(3)
  ENDIF
  CALL proc105(4)
END

SUBROUTINE proc105(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (la(4) * g2)
  g3 = la(6)
  DO v1 = 2, 5
    f0 = la(9)
  ENDDO
  v0 = 4
  CALL proc106((f0 + 1))
END

SUBROUTINE proc106(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 7
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(12) = (g3 * g3)
  v0 = max(3, 15)
  IF ((2 * 3) .GT. la(6) .AND. la(9) .GE. (9 * g2)) g1 = 11
  v1 = (6 + v2)
  g0 = -5
  IF (la(9) .GE. (5 / (2 + -3))) g2 = abs(g2)
  DO g1 = 3, 3
    IF (.NOT. ((9 - la(7)) .GT. la(7))) THEN
      PRINT *, (mod(la(3), 4) + max(g2, -4))
    ELSE
      g0 = (max(la(8), la(9)) * la(11))
      PRINT *, ((-3 + la(9)) * la(6))
    ENDIF
    g2 = (max(2, 6) - v0)
  ENDDO
  CALL proc107(3, (0 + 11))
END

SUBROUTINE proc107(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (f1 .GE. abs(la(9))) g1 = -4
  CALL proc108((0 + 7))
END

SUBROUTINE proc108(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 3
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(8) = la(1)
  CALL proc109((0 + (0 - f0)))
END

SUBROUTINE proc109(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = 14
  IF (max(9, v1) .GE. 10 .OR. abs(-1) .GT. (-5 * 2)) g3 = mod(11, 2)
  g3 = 11
  PRINT *, 1
  IF ((v1 / (5 + v0)) .NE. max(la(11), -3)) THEN
    IF (.NOT. (0 .LT. (13 + g0))) THEN
      IF (.NOT. ((la(2) - g1) .LT. la(3))) g1 = (g3 * 7)
      f0 = (g2 / (5 + la(10)))
    ELSE
      IF (.NOT. (abs(6) .GE. -3)) v0 = -5
      f0 = ((-1 + 7) / (4 + -4))
    ENDIF
  ELSE
    g0 = -5
  ENDIF
  la(10) = max(la(7), 12)
  v1 = 1
  CALL proc110(4)
END

SUBROUTINE proc110(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 9
  v2 = 2
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(3) = ((11 + la(6)) / (4 + -5))
  v0 = v0
  IF ((la(8) - la(12)) .GT. mod(v2, 4) .OR. (2 - v0) .LE. abs(10)) THEN
    la(9) = 6
    v0 = la(7)
  ENDIF
  CALL proc111((0 + (-4 + -5)))
END

SUBROUTINE proc111(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = 13
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (mod(-1, 7) - -5)
  g0 = -2
  DO v0 = 3, 4
    g3 = mod(abs(f0), 6)
    v1 = ((g3 - g1) / (4 + g2))
  ENDDO
  v3 = ((la(8) + 3) + 1)
  DO v2 = 1, 3
    g0 = la(1)
  ENDDO
  v3 = abs((4 - 5))
  la(1) = ((la(9) - g3) - v3)
  g2 = abs(-4)
  la(9) = 4
  g2 = abs(-1)
  CALL proc112(7)
END

SUBROUTINE proc112(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 13
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = 10
  g0 = (v0 - -5)
  PRINT *, la(3)
  v0 = abs(mod(la(7), 7))
  PRINT *, v3
  IF (.NOT. ((g0 / (5 + 0)) .GE. mod(6, 2))) THEN
    IF (9 .GE. la(6)) f0 = la(7)
  ELSE
    g1 = ((v1 + f0) - (-3 * 9))
  ENDIF
  la(7) = (abs(la(11)) * 9)
  DO g0 = 2, 6
    g3 = (la(12) - v1)
  ENDDO
  IF ((4 * -1) .LT. (la(6) / (4 + la(11))) .OR. 14 .GT. abs(g0)) THEN
    DO g3 = 3, 3
      la(3) = g2
    ENDDO
    IF (6 .EQ. (v2 - la(7)) .OR. 2 .LT. mod(f0, 2)) g1 = (10 / (5 + v3))
  ENDIF
  g2 = mod((v3 + la(8)), 2)
  CALL proc113(3)
END

SUBROUTINE proc113(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 14
  v2 = 0
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 0, 2
    IF (-4 .EQ. 3 .OR. (0 * g2) .EQ. (g0 + v3)) g1 = -5
  ENDDO
  v0 = la(8)
  PRINT *, (-4 * g1)
  DO v0 = 2, 2
    v2 = la(5)
  ENDDO
  IF (la(7) .GE. v3 .OR. (g1 - -5) .LT. la(9)) g1 = g0
  v3 = (9 + g2)
  g3 = (la(7) / (4 + 1))
  PRINT *, 12
  PRINT *, la(10)
  CALL proc114((f0 + 1))
END

SUBROUTINE proc114(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 13
  v2 = 10
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 0, 3
    v0 = 11
    IF (.NOT. (12 .NE. (2 / (6 + 13)))) THEN
      IF (.NOT. (3 .GE. max(5, la(12)))) v1 = (9 / (6 + 14))
    ELSE
      v3 = la(7)
      v3 = mod((g0 + 5), 3)
    ENDIF
  ENDDO
  g1 = la(8)
  PRINT *, la(11)
  DO v1 = 0, 0
    f0 = mod(mod(la(6), 8), 4)
    v2 = ((g0 * 12) / (2 + 5))
  ENDDO
  g0 = (12 - -4)
  IF (.NOT. (-3 .GE. la(1))) THEN
    g3 = ((-3 / (5 + -1)) - (14 - 10))
  ENDIF
  la(7) = mod(6, 2)
  DO g0 = 3, 4
    g3 = max(12, 10)
  ENDDO
  CALL proc115((f0 + 1))
END

SUBROUTINE proc115(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((14 * 6) .LE. 3) THEN
    g0 = la(12)
  ELSE
    f0 = v2
  ENDIF
  PRINT *, -1
  v0 = (-5 / (6 + v2))
  g0 = (mod(la(4), 2) - abs(-5))
  la(6) = ((-3 + la(3)) + max(13, la(10)))
  IF ((10 * 10) .EQ. -2 .OR. 7 .LT. (8 - 2)) v0 = 0
  v0 = max(g1, 5)
  IF ((v0 / (3 + -1)) .LE. la(12) .AND. mod(g1, 2) .LE. la(10)) THEN
    f0 = la(3)
    v1 = max(0, la(11))
  ENDIF
  v0 = la(12)
  IF (14 .GE. v0) THEN
    v0 = la(7)
    v1 = (13 + max(11, la(1)))
  ENDIF
  CALL proc116(3)
END

SUBROUTINE proc116(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = -1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((g0 * 11) .NE. -3)) THEN
    IF (-3 .EQ. f0) g3 = mod(4, 6)
  ENDIF
  IF (la(6) .GE. v2 .AND. la(2) .LT. (8 / (4 + 8))) THEN
    IF (.NOT. (la(12) .GT. abs(-2))) g3 = abs(3)
  ELSE
    la(11) = ((v1 * 13) + max(-5, la(10)))
    f0 = ((3 * -3) + (1 * v3))
  ENDIF
  DO v0 = 0, 2
    IF (la(3) .EQ. 15 .OR. 5 .EQ. max(f0, 5)) v3 = 15
    v3 = (-1 + 15)
  ENDDO
  v1 = 13
  CALL proc117((0 + 10))
END

SUBROUTINE proc117(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 13
  v2 = 3
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(g1) .LE. -5 .AND. (g1 * la(9)) .NE. (3 * v1)) g1 = (12 * la(6))
  g3 = max(g2, -5)
  DO v1 = 2, 3
    v0 = max(la(2), la(8))
    v0 = (mod(12, 4) * g2)
  ENDDO
  DO v0 = 1, 1
    g0 = ((2 - 14) * la(2))
    PRINT *, ((9 * 4) - f0)
  ENDDO
  IF ((la(12) * la(5)) .LE. la(12)) v3 = max(la(12), la(9))
  g1 = abs((la(2) - la(11)))
  IF (.NOT. (max(2, 0) .LT. f0)) THEN
    DO v3 = 0, 1
      g0 = 4
    ENDDO
    DO g1 = 2, 6
      v1 = max(v3, 5)
      g0 = mod(abs(g3), 3)
    ENDDO
  ENDIF
  g1 = abs(4)
  CALL proc118((0 + g1))
END

SUBROUTINE proc118(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 3, 4
    DO g0 = 3, 7
      PRINT *, 5
      IF (v1 .NE. v1 .OR. max(9, la(4)) .LE. 12) g1 = (g1 / (3 + 2))
    ENDDO
  ENDDO
  PRINT *, v1
  f0 = la(2)
  v1 = 0
  CALL proc119(3, v0)
END

SUBROUTINE proc119(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 5
  PRINT *, la(2)
  DO f0 = 3, 3
    v0 = ((-3 - 0) * la(8))
  ENDDO
  CALL proc120((0 + mod(5, 4)), (0 + 15))
END

SUBROUTINE proc120(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = abs(abs(la(7)))
  DO v0 = 1, 5
    PRINT *, (abs(g2) / (2 + v2))
  ENDDO
  v0 = abs(-2)
  v2 = ((la(8) - -5) + (v0 * g2))
  la(12) = la(9)
  CALL proc121((f0 + 1))
END

SUBROUTINE proc121(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 8
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (abs(1) .GT. (v2 - 3)) g3 = g3
  g2 = max(g3, 0)
  v2 = -2
  CALL proc122((f0 + 1), (0 + 0))
END

SUBROUTINE proc122(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = mod(14, 7)
  IF (la(2) .GE. -3 .AND. la(8) .GT. max(la(4), 11)) v1 = max(la(10), 4)
  v0 = ((la(10) - 14) / (6 + 7))
  v0 = mod((la(5) / (4 + v0)), 5)
  g0 = f0
  v0 = (g1 + 13)
  g3 = g3
  DO g3 = 3, 3
    f0 = ((v1 - 9) * -1)
  ENDDO
  IF (6 .LT. max(v0, 15) .AND. (f0 / (5 + 13)) .LE. 9) g1 = max(12, g1)
  CALL proc123(3)
END

SUBROUTINE proc123(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = 13
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(4) = mod(13, 3)
  v1 = 6
  g3 = g3
  CALL proc124(7)
END

SUBROUTINE proc124(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = max(g0, la(7))
  la(6) = la(5)
  DO g3 = 3, 3
    DO g1 = 1, 4
      g0 = la(4)
    ENDDO
  ENDDO
  CALL proc125((0 + (la(9) + 1)), (0 + mod(la(12), 4)))
END

SUBROUTINE proc125(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (g2 + (la(8) / (3 + 7)))
  IF (.NOT. (abs(5) .LT. max(-1, f0))) g3 = -1
  CALL proc126(3, 9)
END

SUBROUTINE proc126(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 4
  v2 = 6
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. (12 .EQ. abs(3))) THEN
    g3 = 14
  ENDIF
  PRINT *, (0 / (3 + 9))
  PRINT *, (v2 + mod(14, 4))
  v2 = la(8)
  g0 = g2
  la(9) = 0
  v1 = f1
  g3 = 0
  PRINT *, mod((la(5) - g2), 6)
  v1 = 14
  CALL proc127((f0 + 1), 1)
END

SUBROUTINE proc127(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 2
  v2 = 12
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (la(10) .LT. la(3)) THEN
    v3 = mod(3, 8)
  ENDIF
  f1 = abs(-2)
  CALL proc128((0 + (la(1) + 9)), f1)
END

SUBROUTINE proc128(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 11
  v2 = 8
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(6) = (max(la(9), 10) / (2 + la(8)))
  CALL proc129((f0 + 1), v1)
END

SUBROUTINE proc129(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (9 .LT. abs(11)) g1 = abs(14)
  IF (.NOT. (la(11) .GE. max(-5, 6))) f0 = (la(3) - la(1))
  PRINT *, (f1 / (3 + la(3)))
  DO f0 = 3, 7
    PRINT *, ((4 / (2 + g3)) - g0)
    g1 = g2
  ENDDO
  PRINT *, 5
  v0 = mod(abs(-3), 3)
  g3 = abs(g2)
  IF (.NOT. (15 .LE. 13)) g1 = -4
  DO g1 = 3, 6
    v0 = 14
    g3 = la(3)
  ENDDO
  CALL proc130((f0 + 1), 1)
END

SUBROUTINE proc130(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = -3
  PRINT *, (la(8) / (3 + la(3)))
  IF (la(10) .GT. la(3)) v2 = (0 * 15)
  g0 = (-1 / (5 + 7))
  IF (la(11) .LE. abs(v2)) v1 = -2
  IF (.NOT. (abs(g3) .LT. (-2 - 9))) f1 = la(1)
  CALL proc131((0 + 7))
END

SUBROUTINE proc131(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 0
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = ((g0 / (5 + 3)) / (6 + 4))
  CALL proc132(3, (0 + (10 + v0)))
END

SUBROUTINE proc132(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 7
  v2 = 12
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, 14
  IF (.NOT. (abs(-1) .EQ. (v1 - la(6)))) g3 = 12
  DO v3 = 2, 6
    IF (abs(la(6)) .NE. (15 - 14) .OR. 2 .NE. f0) THEN
      la(5) = (15 * la(6))
      PRINT *, -3
    ELSE
      g2 = (la(6) * 4)
    ENDIF
    g3 = 8
  ENDDO
  f1 = mod(abs(f0), 6)
  g1 = 9
  v0 = mod((-2 + la(4)), 2)
  v1 = 11
  f1 = 5
  IF (.NOT. ((7 - la(8)) .LT. abs(la(4)))) g3 = 5
  PRINT *, (max(8, g0) + (-2 + 9))
  CALL proc133((f0 + 1))
END

SUBROUTINE proc133(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 0
  v2 = 1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = g2
  IF (.NOT. ((4 * 2) .NE. -5)) THEN
    IF ((la(2) - g3) .GT. 3) THEN
      v2 = (abs(g0) + max(la(11), f0))
    ELSE
      IF (14 .GT. 2 .OR. (g1 / (5 + 13)) .GE. (v3 * la(4))) g3 = v0
    ENDIF
    g0 = la(3)
  ELSE
    g3 = ((2 * 8) * 0)
  ENDIF
  v0 = 4
  IF ((g3 / (3 + la(11))) .LT. v0) g0 = 14
  CALL proc134((f0 + 1), v0)
END

SUBROUTINE proc134(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 0
  v2 = 0
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = f1
  g0 = (7 * la(9))
  CALL proc135(5, (0 + abs(13)))
END

SUBROUTINE proc135(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (g3 + f0)
  la(8) = (max(la(4), 9) * -4)
  g3 = la(6)
  DO g1 = 1, 1
    la(7) = ((8 / (4 + f1)) - (g0 + la(8)))
    IF (abs(g0) .LT. la(6)) f1 = -4
  ENDDO
  IF (12 .GT. (-1 * la(12)) .OR. abs(8) .LE. 3) g1 = la(5)
  f0 = (f1 / (4 + 0))
  IF (.NOT. (f0 .LT. g2)) v1 = -4
  la(11) = -5
  CALL proc136((f0 + 1))
END

SUBROUTINE proc136(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = 2
  CALL proc137(5)
END

SUBROUTINE proc137(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -2
  v2 = 10
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v3 = abs((v3 - 4))
  g1 = ((9 + 2) / (6 + 9))
  f0 = (7 * 1)
  PRINT *, mod(8, 2)
  CALL proc138(3)
END

SUBROUTINE proc138(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 11
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = max(la(3), g1)
  la(7) = max(14, g0)
  g2 = abs((11 - 9))
  g1 = g0
  g0 = 14
  PRINT *, abs((15 - la(6)))
  v3 = (max(2, 14) * g2)
  v3 = (la(2) / (3 + g2))
  g0 = (la(5) + g2)
  CALL proc139((0 + la(1)))
END

SUBROUTINE proc139(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = -3
  CALL proc140(5, v1)
END

SUBROUTINE proc140(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 0
  v2 = 9
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (v1 .EQ. la(2) .OR. (2 * 9) .LE. mod(g0, 8)) THEN
    f0 = (abs(la(10)) * -5)
  ENDIF
  g2 = ((1 / (6 + 8)) * v2)
  la(2) = max(12, 5)
  CALL proc141((0 + (-3 - f0)), f0)
END

SUBROUTINE proc141(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 11
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = max(v0, f0)
  CALL proc142((f0 + 1), f0)
END

SUBROUTINE proc142(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 2
  v2 = 0
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, 4
  DO g2 = 1, 1
    DO g0 = 0, 0
      g3 = (g3 * -5)
    ENDDO
    IF (-3 .LE. -4) g0 = 7
  ENDDO
  la(8) = abs(max(4, 9))
  la(12) = la(3)
  IF (.NOT. (10 .NE. abs(la(4)))) THEN
    la(11) = la(3)
  ELSE
    IF (.NOT. (abs(8) .LT. max(la(2), la(8)))) THEN
      f1 = max(g2, -3)
      v0 = (f1 * la(11))
    ELSE
      g2 = ((2 / (4 + g0)) + 7)
    ENDIF
  ENDIF
  g2 = la(6)
  PRINT *, mod(max(la(8), -5), 5)
  CALL proc143((0 + la(2)))
END

SUBROUTINE proc143(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = g3
  CALL proc144((f0 + 1), v1)
END

SUBROUTINE proc144(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 13
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = la(7)
  v2 = abs((la(5) + la(9)))
  PRINT *, mod(max(g0, v0), 8)
  la(12) = (la(12) + la(2))
  g0 = g2
  CALL proc145((0 + (11 / (4 + la(11)))), -3)
END

SUBROUTINE proc145(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 6
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g1 = 3, 4
    IF (max(la(11), g0) .GE. abs(la(10)) .OR. 13 .LE. (14 * 15)) v1 = g1
  ENDDO
  IF (f1 .GE. (-1 * g3)) THEN
    IF ((13 / (3 + la(7))) .GT. abs(12) .OR. (10 - g1) .NE. abs(-1)) g2 = abs(f1)
  ELSE
    IF ((v0 - la(4)) .LT. abs(v1) .OR. (7 - 6) .GE. (g1 - la(11))) THEN
      v1 = mod((3 * la(1)), 5)
      g0 = 5
    ELSE
      f0 = ((la(10) * v0) * 1)
    ENDIF
  ENDIF
  g2 = 2
  g3 = (la(7) + -1)
  DO g1 = 2, 2
    IF ((10 * la(10)) .LT. (la(7) * 14) .AND. 2 .EQ. mod(v2, 4)) THEN
      g3 = la(6)
      g3 = ((g3 + f1) + max(la(3), la(1)))
    ENDIF
    DO v0 = 1, 2
      f0 = mod((3 / (2 + la(12))), 6)
    ENDDO
  ENDDO
  IF (abs(g1) .GT. max(la(2), g2) .AND. max(4, -5) .GE. abs(-1)) THEN
    f1 = abs(6)
    g1 = la(6)
  ENDIF
  v0 = -2
  IF (abs(la(1)) .EQ. (g0 - la(5)) .OR. (la(10) / (5 + la(5))) .NE. (2 / (2 + 7))) f1 = mod(la(12), 8)
  la(6) = 13
  la(5) = 7
  CALL proc146(3)
END

SUBROUTINE proc146(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = la(6)
  DO v1 = 1, 5
    IF ((la(12) - 14) .LE. 1 .OR. (13 / (6 + g1)) .GE. -4) THEN
      IF (la(5) .LE. max(8, la(8)) .OR. max(5, la(5)) .NE. (la(12) + 4)) g3 = max(-1, g3)
      v2 = 10
    ELSE
      f0 = (v0 * la(9))
      g2 = (la(3) - 14)
    ENDIF
    f0 = g0
  ENDDO
  v0 = -1
  g2 = max(g1, 4)
  IF (max(la(12), 8) .EQ. v2 .AND. la(2) .LE. abs(g0)) f0 = g2
  CALL proc147(3, (0 + 4))
END

SUBROUTINE proc147(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 9
  v2 = 7
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = 12
  f0 = (9 - (v2 - 5))
  CALL proc148((f0 + 1), (0 + 7))
END

SUBROUTINE proc148(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, ((1 / (2 + 2)) + la(1))
  IF (g3 .LT. -2 .AND. la(7) .LT. 2) THEN
    IF (g3 .LT. max(7, 13) .AND. (la(3) + la(10)) .GE. la(1)) v0 = abs(8)
  ELSE
    f0 = (mod(5, 4) * la(11))
  ENDIF
  g0 = f0
  g3 = max(0, v0)
  g2 = v1
  la(4) = g0
  DO v0 = 0, 3
    v1 = g2
    g2 = la(5)
  ENDDO
  PRINT *, la(6)
  PRINT *, (f0 * g0)
  CALL proc149(4)
END

SUBROUTINE proc149(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = 7
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (v2 .GT. la(12))) THEN
    v2 = la(6)
  ENDIF
  IF (f0 .NE. (7 / (5 + 9))) v0 = 12
  DO g3 = 0, 1
    g1 = ((4 / (5 + g1)) - (2 - la(1)))
    v0 = ((-5 + 5) / (2 + -3))
  ENDDO
  CALL proc150((0 + max(la(7), 1)))
END

SUBROUTINE proc150(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(3) = la(10)
  IF (9 .EQ. 3 .OR. (g1 * 8) .NE. la(8)) THEN
    g2 = -4
    IF (max(14, la(12)) .GT. (-4 + -2) .OR. (1 + v0) .EQ. f0) THEN
      g1 = (7 / (5 + 5))
    ELSE
      PRINT *, 8
      IF ((4 - 6) .GT. 8) v0 = (9 * 9)
    ENDIF
  ENDIF
  g3 = 3
  CALL proc151((0 + la(8)))
END

SUBROUTINE proc151(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g3 = 3, 3
    IF (12 .NE. f0 .AND. f0 .NE. (3 * 3)) THEN
      IF (abs(9) .LE. abs(g3) .AND. abs(15) .LT. 3) v0 = (la(5) + la(5))
    ENDIF
    g0 = 7
  ENDDO
  g1 = (la(9) - mod(4, 8))
  la(9) = max(-5, f0)
  g1 = (abs(3) + (-2 / (3 + f0)))
  v0 = (4 - (5 + v0))
  g0 = v1
  IF ((la(4) / (5 + 13)) .EQ. 5 .AND. 15 .GE. v1) THEN
    g2 = ((g3 * g2) - -1)
    f0 = 6
  ENDIF
  IF ((v0 * la(4)) .NE. 4 .AND. mod(3, 3) .GT. 9) THEN
    g3 = 1
  ELSE
    la(8) = (0 * la(6))
  ENDIF
  DO g1 = 1, 2
    v1 = (g3 + (v0 * 13))
    IF (la(2) .GE. (-1 / (2 + 1))) g0 = 5
  ENDDO
  IF (2 .GE. -2) THEN
    g1 = abs((15 + la(4)))
    IF ((-2 - la(11)) .NE. -2) THEN
      la(9) = g3
      f0 = v0
    ENDIF
  ELSE
    g1 = la(6)
  ENDIF
  CALL proc152(4, v1)
END

SUBROUTINE proc152(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 8
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (9 .GE. 9)) v2 = f1
  IF (mod(la(5), 2) .LT. 13 .AND. la(2) .EQ. (f0 * -4)) g1 = mod(la(12), 8)
  f1 = g1
  g1 = v0
  la(10) = v1
  v2 = g0
  g1 = la(1)
  CALL proc153((0 + (8 * 0)), v1)
END

SUBROUTINE proc153(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(8) = (abs(g3) + la(7))
  la(9) = mod(la(2), 8)
  v1 = 1
  v2 = (mod(v2, 4) / (6 + la(5)))
  v1 = v0
  g2 = 1
  f1 = 8
  g0 = abs(max(v0, -1))
  CALL proc154((0 + (7 * 15)))
END

SUBROUTINE proc154(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, abs(-2)
  DO g2 = 0, 2
    la(7) = abs(la(9))
  ENDDO
  CALL proc155(5, 9)
END

SUBROUTINE proc155(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 11
  v2 = -2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = la(6)
  DO f1 = 2, 3
    IF (.NOT. (max(v1, g1) .LT. la(5))) v3 = (f0 * 5)
    f0 = g0
  ENDDO
  v3 = 0
  g1 = 12
  g3 = ((v2 * la(5)) * la(6))
  DO g2 = 3, 6
    PRINT *, (-3 / (5 + 12))
    g1 = (abs(v2) * 10)
  ENDDO
  v0 = ((-3 * -4) * 3)
  v0 = 2
  g3 = v0
  IF (-1 .LT. 3 .OR. 10 .GT. abs(-1)) THEN
    IF ((-4 * 10) .GT. 14 .AND. la(10) .EQ. (9 / (5 + v2))) g3 = (-3 - 14)
  ELSE
    g2 = abs((g1 + v3))
  ENDIF
  CALL proc156(7)
END

SUBROUTINE proc156(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = 12
  g3 = ((la(8) / (5 + 6)) * v2)
  IF (.NOT. ((v0 - 15) .LT. (g2 / (4 + la(5))))) THEN
    v2 = la(7)
  ELSE
    la(11) = 3
    g0 = (abs(la(11)) + (10 / (6 + g0)))
  ENDIF
  f0 = v1
  v1 = g0
  IF ((g3 - la(1)) .NE. la(3) .OR. max(la(6), 10) .GT. (1 * g1)) THEN
    v3 = v2
  ELSE
    la(2) = f0
    g0 = max(f0, -1)
  ENDIF
  g2 = ((4 * -1) / (6 + -5))
  g2 = (-3 + (7 * 3))
  DO g3 = 2, 4
    v3 = 5
    DO v1 = 2, 4
      g2 = max(-5, -1)
    ENDDO
  ENDDO
  DO g2 = 1, 1
    g0 = (0 - (7 - la(10)))
  ENDDO
  CALL proc157(7)
END

SUBROUTINE proc157(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 8
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((8 * -2) + 9)
  DO g1 = 1, 3
    PRINT *, v0
  ENDDO
  IF (la(9) .GE. mod(14, 2) .AND. 9 .EQ. -5) THEN
    f0 = max(3, 2)
  ENDIF
  g2 = max(la(1), 7)
  IF (v1 .LT. mod(1, 6) .AND. 11 .EQ. abs(0)) THEN
    g2 = la(7)
    PRINT *, (mod(la(2), 3) - 15)
  ENDIF
  IF ((7 * la(9)) .LE. g3 .AND. -2 .EQ. mod(la(8), 5)) THEN
    g1 = 12
  ENDIF
  IF ((10 / (4 + la(8))) .GT. abs(2)) THEN
    v0 = la(7)
    DO f0 = 1, 3
      g3 = 8
      PRINT *, 3
    ENDDO
  ELSE
    IF (max(13, -1) .EQ. (15 - -1) .AND. max(14, la(5)) .GE. (la(12) + v2)) g0 = mod(g3, 8)
  ENDIF
  v0 = abs(g3)
  IF (11 .GT. (13 - -2) .OR. mod(la(11), 3) .LT. abs(2)) THEN
    g3 = 7
  ENDIF
  CALL proc158(4)
END

SUBROUTINE proc158(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = abs((14 * g1))
  IF (la(4) .LE. la(3) .AND. 10 .GT. mod(g1, 5)) THEN
    PRINT *, (-3 / (3 + f0))
  ELSE
    IF (v0 .GT. la(1) .OR. 1 .LT. (7 + -5)) g3 = abs(0)
    DO f0 = 2, 3
      IF ((la(12) / (2 + la(12))) .GT. mod(g0, 6)) g2 = la(11)
      PRINT *, -2
    ENDDO
  ENDIF
  v0 = f0
  CALL proc159(4, v1)
END

SUBROUTINE proc159(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = abs((v1 * la(9)))
  CALL proc160((f0 + 1), (0 + (12 + v0)))
END

SUBROUTINE proc160(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 14
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, mod(0, 2)
  IF (-1 .LT. (9 - la(3))) THEN
    PRINT *, ((la(2) / (6 + 1)) / (6 + 14))
  ENDIF
  g3 = g3
  g1 = la(5)
  la(8) = ((14 * g2) + 2)
  g2 = abs(-3)
  IF (abs(6) .GT. (la(12) / (6 + 11)) .AND. 6 .GE. 1) THEN
    g2 = max(10, 10)
    v0 = 15
  ENDIF
  PRINT *, (mod(9, 6) / (4 + la(7)))
  v0 = (-2 / (2 + la(11)))
  la(4) = f0
  CALL proc161((0 + -1))
END

SUBROUTINE proc161(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 3, 7
    g0 = g2
  ENDDO
  DO g3 = 2, 6
    v0 = (max(2, la(1)) / (2 + 12))
    IF ((6 * 2) .LT. 14 .AND. g0 .GE. (5 + la(4))) g2 = 12
  ENDDO
  DO g0 = 0, 0
    g1 = mod((-5 - g1), 8)
    la(7) = 8
  ENDDO
  IF (.NOT. ((la(5) / (4 + -4)) .GE. la(8))) g0 = v1
  IF (max(-5, 3) .GT. (f0 * 8) .OR. (-2 - f0) .GE. (la(1) - 15)) g3 = la(9)
  CALL proc162((0 + max(13, la(4))), 7)
END

SUBROUTINE proc162(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 12
  v2 = 10
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = g1
  DO v0 = 3, 5
    la(4) = (la(10) - 7)
  ENDDO
  g1 = max(9, -2)
  g1 = ((g0 + g0) * la(9))
  g1 = v0
  g1 = (la(9) - la(1))
  CALL proc163(5, v0)
END

SUBROUTINE proc163(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = 5
  g2 = 9
  la(6) = max(la(2), f0)
  g2 = max(v1, 2)
  DO g0 = 1, 1
    la(1) = mod(10, 5)
    IF ((13 / (3 + g0)) .LT. -4 .AND. mod(6, 3) .LE. 12) f1 = la(5)
  ENDDO
  DO g0 = 2, 5
    DO f0 = 1, 1
      g3 = 4
      v1 = (g1 * la(8))
    ENDDO
    g3 = mod((la(12) + la(8)), 3)
  ENDDO
  f1 = abs(la(8))
  v1 = 14
  DO v0 = 2, 6
    f0 = g0
  ENDDO
  f0 = v0
  CALL proc164(4)
END

SUBROUTINE proc164(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((v0 * 0) .EQ. 3 .OR. 1 .NE. (15 / (2 + g1))) THEN
    v0 = max(8, 7)
  ENDIF
  PRINT *, -4
  f0 = 9
  PRINT *, g0
  IF (.NOT. (mod(12, 6) .GE. 15)) THEN
    g1 = mod((9 * 7), 3)
  ENDIF
  g1 = la(4)
  IF (max(la(12), g3) .LE. 12) THEN
    PRINT *, g0
  ENDIF
  IF (la(12) .GT. abs(la(9)) .AND. max(la(6), 3) .GT. 13) g0 = (g3 * -2)
  IF (g1 .GE. 3 .OR. (-2 * la(9)) .LE. (10 * -2)) THEN
    PRINT *, la(11)
  ELSE
    PRINT *, v0
  ENDIF
  v0 = la(12)
  CALL proc165((0 + la(3)))
END

SUBROUTINE proc165(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = la(2)
  IF (.NOT. (la(9) .EQ. la(2))) f0 = mod(g2, 2)
  la(12) = v1
  IF (14 .EQ. g0 .AND. (-4 + f0) .LE. mod(3, 8)) g0 = (-2 - 5)
  CALL proc166((f0 + 1))
END

SUBROUTINE proc166(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = la(8)
  DO g2 = 1, 3
    la(7) = ((f0 - la(7)) - g2)
  ENDDO
  la(4) = la(1)
  la(4) = la(4)
  DO g1 = 2, 2
    g0 = (v2 / (6 + 1))
    f0 = max(v2, 1)
  ENDDO
  la(2) = (8 * f0)
  PRINT *, la(2)
  PRINT *, -5
  CALL proc167((0 + (la(12) + la(10))))
END

SUBROUTINE proc167(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 5
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, la(12)
  g1 = (la(4) * 14)
  f0 = la(5)
  IF (.NOT. (v1 .GE. abs(3))) THEN
    g2 = ((8 / (3 + g1)) - 12)
    f0 = ((5 * la(2)) * g3)
  ENDIF
  la(3) = la(6)
  IF (.NOT. (5 .GE. g2)) THEN
    g1 = 6
    la(11) = 4
  ELSE
    PRINT *, ((v1 * g2) - mod(la(11), 6))
    la(10) = (abs(7) + mod(g3, 6))
  ENDIF
  PRINT *, 15
  PRINT *, la(2)
  g3 = la(2)
  v0 = 4
  CALL proc168(7, v1)
END

SUBROUTINE proc168(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 6
  v2 = 7
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 13
  CALL proc169((f0 + 1))
END

SUBROUTINE proc169(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = 0
  f0 = 7
  v1 = (4 / (3 + 9))
  IF (.NOT. (max(la(8), g0) .LT. la(8))) g2 = (v0 * -1)
  IF ((la(2) - g3) .GT. 7 .AND. la(6) .GT. la(9)) THEN
    DO g3 = 3, 4
      g1 = 5
    ENDDO
    f0 = max(8, la(3))
  ENDIF
  PRINT *, la(2)
  v1 = (f0 / (5 + g1))
  f0 = g2
  PRINT *, (9 + abs(10))
  f0 = 6
  CALL proc170((0 + (g1 * g2)), v0)
END

SUBROUTINE proc170(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = g1
  CALL proc171((f0 + 1), f1)
END

SUBROUTINE proc171(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 10
  v2 = 2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v3 = f1
  PRINT *, g1
  CALL proc172((f0 + 1), f0)
END

SUBROUTINE proc172(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 7
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = g3
  g0 = la(10)
  IF (10 .EQ. max(la(8), v0)) THEN
    PRINT *, abs(11)
    g3 = (12 - -2)
  ELSE
    la(6) = f0
  ENDIF
  IF (8 .EQ. f1 .AND. 8 .GE. mod(la(12), 7)) THEN
    la(6) = (v1 * la(12))
  ENDIF
  IF (v2 .LT. 6) THEN
    DO f0 = 0, 1
      v1 = g0
      v2 = 14
    ENDDO
    v0 = 2
  ENDIF
  CALL proc173((f0 + 1), f0)
END

SUBROUTINE proc173(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g2 = 2, 4
    v1 = 1
    f1 = ((12 / (3 + 7)) - -5)
  ENDDO
  PRINT *, 1
  DO f0 = 1, 3
    g3 = (15 + (v1 / (5 + 6)))
    IF (abs(8) .NE. la(11) .AND. (-4 / (4 + v1)) .GE. (la(2) / (3 + g1))) f1 = 11
  ENDDO
  f1 = 8
  DO g1 = 0, 0
    f1 = f0
    f1 = la(3)
  ENDDO
  f0 = abs((-1 + g0))
  IF (max(7, -1) .LT. la(4) .OR. la(3) .EQ. (la(9) * la(5))) THEN
    PRINT *, ((f0 * la(8)) - -2)
  ENDIF
  PRINT *, g3
  v0 = ((5 / (6 + la(5))) / (4 + 5))
  IF (abs(g0) .LT. g2 .AND. (la(7) - g2) .GE. 6) THEN
    la(2) = mod(f0, 2)
  ENDIF
  CALL proc174((f0 + 1))
END

SUBROUTINE proc174(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -4
  v2 = 9
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = max(5, -2)
  IF (la(4) .LT. 12 .AND. abs(-5) .EQ. mod(g0, 5)) THEN
    g1 = max(-1, la(8))
    g1 = -1
  ENDIF
  IF (max(14, -3) .NE. 0 .OR. g2 .GT. abs(la(10))) g0 = la(2)
  v0 = la(11)
  CALL proc175((0 + (-4 * g3)))
END

SUBROUTINE proc175(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((v1 - -2) .EQ. -5 .OR. (4 + 4) .EQ. (5 * g3)) THEN
    v0 = la(2)
    f0 = la(5)
  ENDIF
  g0 = la(1)
  IF ((11 / (6 + 4)) .NE. f0 .AND. f0 .LE. v2) g0 = v0
  v2 = 9
  g2 = la(10)
  f0 = 0
  v1 = 9
  CALL proc176(4, 6)
END

SUBROUTINE proc176(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 2
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(3) .GT. 12 .OR. abs(-2) .GE. v2) v0 = mod(14, 5)
  CALL proc177(3, f1)
END

SUBROUTINE proc177(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -2
  v2 = 11
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = la(1)
  CALL proc178((f0 + 1), 5)
END

SUBROUTINE proc178(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = g3
  PRINT *, mod(-3, 5)
  g0 = ((-1 * g2) + abs(-5))
  PRINT *, ((la(4) + 5) * -3)
  g3 = 3
  CALL proc179((f0 + 1))
END

SUBROUTINE proc179(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 6
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(11) = (la(1) + abs(v2))
  g3 = (la(11) / (4 + 0))
  v0 = 13
  DO g3 = 2, 5
    g1 = (abs(la(4)) * 11)
    v1 = 3
  ENDDO
  g1 = max(6, la(8))
  f0 = la(2)
  g2 = -5
  g3 = 0
  v0 = (g1 - (la(2) / (3 + la(11))))
  CALL proc180((f0 + 1))
END

SUBROUTINE proc180(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (mod(4, 4) + g3)
  f0 = la(9)
  v1 = 1
  CALL proc181((0 + (14 - 0)), (0 + g2))
END

SUBROUTINE proc181(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 8
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(2) = max(la(6), la(10))
  CALL proc182(7)
END

SUBROUTINE proc182(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 0
  v2 = -3
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 2
  PRINT *, mod(g2, 2)
  PRINT *, 4
  la(4) = v2
  IF (mod(v2, 3) .GT. la(10) .AND. max(1, 3) .EQ. (la(8) + v2)) v1 = 10
  v3 = 5
  f0 = la(4)
  v3 = 14
  g1 = g0
  g0 = -2
  CALL proc183(6)
END

SUBROUTINE proc183(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((la(9) / (3 + -2)) .EQ. abs(13))) f0 = -2
  g2 = ((g2 / (3 + la(5))) / (6 + -1))
  IF ((v1 - la(10)) .GE. (5 - 0) .OR. abs(la(10)) .GE. abs(la(5))) THEN
    DO g3 = 2, 5
      f0 = ((11 - 14) * 7)
      la(5) = (mod(12, 8) / (3 + 12))
    ENDDO
    la(3) = 1
  ENDIF
  PRINT *, -5
  g0 = ((9 + 6) - abs(1))
  DO f0 = 1, 2
    v0 = -2
  ENDDO
  g3 = max(12, la(2))
  PRINT *, g2
  CALL proc184(6, (0 + g1))
END

SUBROUTINE proc184(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 12
  v2 = 1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g3 = 3, 3
    DO f0 = 0, 2
      g0 = (abs(v0) + (la(11) * 7))
      PRINT *, g2
    ENDDO
  ENDDO
  PRINT *, la(2)
  la(8) = abs(abs(-4))
  v1 = v2
  CALL proc185(6, 0)
END

SUBROUTINE proc185(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 4
  v2 = -2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((g1 - g0) .EQ. -4 .OR. la(5) .GT. abs(5)) g3 = mod(g3, 3)
  g0 = (-5 / (6 + g1))
  CALL proc186(4, v0)
END

SUBROUTINE proc186(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 9
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = 9
  CALL proc187((0 + la(1)))
END

SUBROUTINE proc187(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (f0 .NE. 11)) g3 = g0
  g1 = 7
  g0 = -3
  g3 = 9
  PRINT *, abs(max(-1, v1))
  DO f0 = 0, 3
    g2 = 14
    g1 = (8 - (11 + g0))
  ENDDO
  PRINT *, 0
  g1 = ((-5 * 7) + (g3 / (2 + la(5))))
  g0 = -2
  g0 = 14
  CALL proc188(3)
END

SUBROUTINE proc188(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g0 = 0, 1
    v1 = v0
    PRINT *, -5
  ENDDO
  v1 = la(10)
  IF (mod(la(8), 4) .NE. 12 .AND. 10 .LT. (la(4) * la(4))) THEN
    f0 = (g3 / (2 + 10))
  ENDIF
  v1 = 13
  DO g0 = 2, 3
    g3 = (10 - la(5))
  ENDDO
  CALL proc189((0 + mod(8, 4)), v1)
END

SUBROUTINE proc189(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g1 = 0, 0
    IF (.NOT. ((la(9) - v0) .EQ. -4)) THEN
      la(11) = max(v0, la(7))
      g0 = mod((la(12) - la(10)), 7)
    ELSE
      g0 = g3
      la(9) = 0
    ENDIF
    g3 = abs((11 - 4))
  ENDDO
  f1 = mod(g3, 5)
  la(5) = abs((7 * la(5)))
  PRINT *, -4
  CALL proc190((f0 + 1))
END

SUBROUTINE proc190(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = f0
  DO g2 = 2, 6
    IF (g3 .GE. 12) THEN
      v1 = la(12)
    ELSE
      g3 = max(v0, 8)
    ENDIF
    la(3) = abs((4 - 12))
  ENDDO
  IF (.NOT. ((1 - v0) .GT. (12 - la(7)))) v1 = mod(11, 5)
  f0 = -2
  IF (v0 .GE. mod(14, 6) .AND. la(7) .LE. (12 / (6 + 7))) v0 = (v1 - g2)
  DO g3 = 3, 5
    g1 = la(10)
    PRINT *, la(5)
  ENDDO
  g0 = 5
  la(3) = (2 * -5)
  CALL proc191((0 + 6), (0 + (12 + 2)))
END

SUBROUTINE proc191(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, max(la(5), 8)
  DO f1 = 3, 4
    g3 = 5
    g2 = abs((la(11) - la(11)))
  ENDDO
  g1 = ((v0 - 8) * la(12))
  IF (g2 .LT. mod(-3, 3) .OR. (0 - -2) .LE. abs(13)) THEN
    g3 = f0
    la(10) = (la(5) + (-2 + 1))
  ENDIF
  v2 = 0
  IF (.NOT. ((3 + 3) .LE. max(la(7), v2))) f0 = mod(9, 7)
  PRINT *, max(la(11), 7)
  CALL proc192(5, (0 + abs(10)))
END

SUBROUTINE proc192(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 14
  la(10) = max(la(11), la(8))
  CALL proc193(6, v0)
END

SUBROUTINE proc193(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = la(7)
  g1 = ((15 + 6) - (la(2) / (5 + 9)))
  v1 = f0
  CALL proc194(3)
END

SUBROUTINE proc194(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(12) = (2 * la(5))
  CALL proc195((f0 + 1))
END

SUBROUTINE proc195(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 8
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = (g0 * -3)
  g0 = g1
  PRINT *, (mod(g3, 6) / (3 + 8))
  g0 = la(7)
  la(5) = v0
  g1 = ((15 / (3 + 9)) * -3)
  g2 = abs(2)
  g2 = 14
  CALL proc196(2, (0 + (la(7) + v2)))
END

SUBROUTINE proc196(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = max(6, 15)
  g0 = ((la(10) - la(5)) - g0)
  PRINT *, ((f0 - f1) - mod(7, 3))
  g3 = f0
  la(7) = g1
  DO f0 = 2, 5
    IF (13 .EQ. g3 .OR. max(10, 10) .EQ. 1) v0 = la(7)
    PRINT *, abs(2)
  ENDDO
  IF ((g1 + la(4)) .GT. (g2 * 6) .AND. abs(-2) .LT. 12) g0 = 8
  IF (10 .LE. -1 .OR. max(-3, v0) .NE. 0) THEN
    IF (.NOT. (4 .GE. abs(4))) THEN
      g3 = 7
      IF (10 .GE. mod(g0, 5) .AND. (15 - 4) .LE. (12 - 12)) f1 = 10
    ELSE
      f0 = 12
    ENDIF
  ELSE
    v0 = v1
    f1 = ((la(5) - 3) / (3 + la(10)))
  ENDIF
  v1 = ((-2 * g2) * 12)
  f0 = (abs(13) * -3)
  CALL proc197(4)
END

SUBROUTINE proc197(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -1
  v2 = 2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (-2 - g1)
  IF (g0 .LE. (6 - la(4)) .OR. (g1 + 11) .GE. la(12)) THEN
    PRINT *, la(7)
    v2 = (max(la(2), la(5)) / (3 + 14))
  ELSE
    g2 = abs((9 - -5))
    g2 = la(6)
  ENDIF
  CALL proc198(6)
END

SUBROUTINE proc198(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = abs(v0)
  g1 = mod(11, 4)
  g1 = la(6)
  DO v0 = 1, 2
    IF (.NOT. (13 .NE. g0)) g0 = (la(2) + 9)
    IF ((la(11) + la(12)) .GT. 2 .OR. max(g0, 14) .GT. g1) g3 = (13 - 11)
  ENDDO
  v0 = max(v0, 7)
  g1 = (mod(11, 8) * 9)
  CALL proc199((0 + (la(5) * 10)), (0 + mod(2, 4)))
END

SUBROUTINE proc199(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 7
  v2 = 5
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (v0 + v3)
  CALL proc200(3)
END

SUBROUTINE proc200(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (abs(la(8)) .EQ. (f0 - 9)) v1 = -5
  v1 = 2
  f0 = (7 + 3)
  f0 = la(8)
  DO g2 = 2, 4
    DO g1 = 0, 2
      g0 = (abs(la(10)) - abs(15))
    ENDDO
    IF (mod(la(7), 4) .GT. (la(3) * 2)) v0 = (0 - 10)
  ENDDO
  la(5) = (6 * 6)
  v0 = (-4 + (la(3) / (3 + -4)))
  CALL proc201(4)
END

SUBROUTINE proc201(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(3) .GT. v1 .OR. 3 .LT. max(g0, v0)) THEN
    la(1) = la(4)
    PRINT *, abs(la(7))
  ENDIF
  g0 = ((la(3) / (4 + 1)) / (2 + g0))
  PRINT *, (mod(7, 6) / (4 + 14))
  PRINT *, max(v0, la(9))
  g1 = v0
  CALL proc202((0 + v0), v1)
END

SUBROUTINE proc202(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = mod((3 / (2 + 2)), 8)
  g0 = abs(11)
  IF (.NOT. (5 .LT. 7)) v0 = 14
  la(6) = (f0 - 14)
  g3 = ((la(9) - la(12)) + g1)
  f0 = 7
  f1 = max(5, f1)
  v0 = -4
  CALL proc203((0 + la(9)), 6)
END

SUBROUTINE proc203(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = 13
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(11) = 3
  g1 = (g2 - la(7))
  CALL proc204((0 + (2 / (2 + la(4)))), (0 + 0))
END

SUBROUTINE proc204(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (f1 + max(10, -3))
  g2 = max(f1, g2)
  IF (la(9) .NE. la(6) .AND. mod(la(9), 5) .NE. abs(12)) THEN
    DO g0 = 0, 4
      f0 = ((la(7) - 7) - 6)
    ENDDO
  ENDIF
  g3 = la(3)
  la(8) = g3
  g2 = max(g0, g1)
  DO f0 = 1, 2
    g1 = (la(4) / (6 + 15))
  ENDDO
  g1 = (la(3) / (3 + 4))
  CALL proc205(2, v1)
END

SUBROUTINE proc205(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 1
  PRINT *, abs((g1 - 11))
  la(6) = la(11)
  CALL proc206(3, (0 + abs(g2)))
END

SUBROUTINE proc206(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (la(3) - la(3))
  CALL proc207(2, v1)
END

SUBROUTINE proc207(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -3
  v2 = 13
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f1 = 3, 6
    DO g1 = 1, 2
      la(11) = -2
    ENDDO
    IF (.NOT. (abs(6) .NE. v2)) THEN
      g0 = (mod(2, 4) / (2 + 8))
    ELSE
      IF (10 .GT. -3) g2 = (14 - 13)
    ENDIF
  ENDDO
  DO f1 = 1, 5
    f0 = (la(7) - abs(11))
  ENDDO
  f1 = la(4)
  f1 = (8 + la(7))
  g0 = 3
  IF (.NOT. (-5 .NE. 7)) THEN
    PRINT *, mod(max(f0, la(12)), 6)
    g3 = abs(max(12, f0))
  ENDIF
  CALL proc208((f0 + 1))
END

SUBROUTINE proc208(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = 8
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = 14
  DO v3 = 3, 6
    g1 = (la(3) + max(6, -1))
  ENDDO
  g2 = max(-3, la(6))
  v1 = v3
  v0 = abs(-3)
  v1 = max(5, la(3))
  g1 = la(4)
  PRINT *, ((la(4) * 4) / (5 + la(12)))
  IF (mod(la(6), 4) .GE. 3 .AND. la(12) .GE. 3) THEN
    IF (.NOT. (mod(la(10), 4) .EQ. (-1 * -3))) THEN
      g1 = la(2)
      PRINT *, (mod(12, 3) + abs(la(10)))
    ELSE
      v3 = 8
    ENDIF
    v3 = max(la(1), -5)
  ENDIF
  v3 = g2
  CALL proc209((f0 + 1))
END

SUBROUTINE proc209(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 9
  v2 = 7
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (max(2, 5) .LE. la(8)) THEN
    g1 = 14
  ENDIF
  IF ((0 - 15) .LT. abs(-4)) v0 = (9 + la(6))
  f0 = 10
  v3 = (f0 - 12)
  la(2) = (la(12) - (g2 + v1))
  DO g3 = 1, 2
    IF (la(12) .LT. mod(v2, 4)) v2 = (6 + la(12))
  ENDDO
  g3 = max(v2, la(5))
  DO v3 = 3, 6
    la(7) = 5
  ENDDO
  DO v3 = 1, 2
    IF ((la(7) + g0) .GT. 6 .OR. max(11, la(7)) .LE. 5) THEN
      la(9) = 7
    ENDIF
    DO v2 = 1, 2
      g0 = 0
      v0 = la(6)
    ENDDO
  ENDDO
  CALL proc210((0 + mod(la(6), 5)), v1)
END

SUBROUTINE proc210(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 10
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = 1
  g1 = 15
  g0 = 12
  g2 = max(-3, la(1))
  IF (la(8) .GT. la(12)) f0 = max(7, -5)
  v1 = (1 + (10 + 14))
  IF ((la(11) / (6 + la(2))) .LT. -4 .OR. 6 .GT. 9) THEN
    v2 = v1
  ENDIF
  CALL proc211(2, v3)
END

SUBROUTINE proc211(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(12) - 4) .LE. -5 .OR. -3 .EQ. la(4)) v0 = la(11)
  DO g1 = 2, 4
    f0 = 6
  ENDDO
  DO v0 = 1, 2
    g2 = abs((-4 + -2))
  ENDDO
  la(5) = (abs(la(9)) - 5)
  g0 = (la(10) * f1)
  CALL proc212((0 + 9))
END

SUBROUTINE proc212(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (v1 .EQ. (la(9) * 14))) g0 = (-1 / (4 + 1))
  PRINT *, abs(g2)
  CALL proc213(7)
END

SUBROUTINE proc213(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = 11
  CALL proc214(4, (0 + -4))
END

SUBROUTINE proc214(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = 4
  PRINT *, 8
  IF ((5 + la(5)) .LE. f1 .AND. 0 .LT. la(1)) THEN
    DO g3 = 3, 4
      f0 = max(la(8), -2)
    ENDDO
  ENDIF
  IF (.NOT. ((1 * g2) .NE. f0)) g3 = g0
  IF ((7 / (3 + 11)) .GE. g0 .OR. (1 / (3 + la(3))) .GE. la(3)) g3 = la(8)
  CALL proc215((0 + la(9)), f0)
END

SUBROUTINE proc215(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((v1 * v0) .GT. la(6)) g0 = (la(11) / (3 + 14))
  IF (g1 .LT. (g2 + la(10)) .AND. (g3 * 7) .LE. 9) f1 = (-1 / (2 + 11))
  DO g1 = 0, 0
    g0 = (mod(la(6), 5) - mod(12, 8))
    IF ((10 * -4) .GT. -5 .AND. (9 / (5 + la(6))) .GE. (14 * 7)) g0 = mod(v1, 2)
  ENDDO
  PRINT *, 0
  g0 = f1
  f1 = 4
  DO g0 = 2, 3
    v0 = 10
  ENDDO
  CALL proc216(3, 1)
END

SUBROUTINE proc216(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(3) = v0
  g2 = max(-1, 10)
  IF (.NOT. (la(1) .GT. (-3 * 7))) THEN
    DO f1 = 1, 1
      PRINT *, -1
      v1 = (abs(-3) + (la(6) / (6 + 14)))
    ENDDO
    IF (-3 .GE. -5) THEN
      v1 = 3
      g3 = 0
    ELSE
      g3 = max(10, -2)
      g3 = g1
    ENDIF
  ENDIF
  v0 = 1
  PRINT *, la(8)
  PRINT *, abs(8)
  f0 = v1
  CALL proc217((f0 + 1))
END

SUBROUTINE proc217(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 6
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(3)
  v0 = (-1 - 10)
  IF (14 .LE. 7 .OR. 13 .NE. 11) THEN
    g1 = abs(3)
  ENDIF
  IF (la(1) .LT. (g0 + 7)) THEN
    la(12) = abs(max(la(3), 9))
    g1 = mod(mod(la(8), 6), 8)
  ENDIF
  g1 = -1
  CALL proc218(6)
END

SUBROUTINE proc218(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = ((-5 / (3 + la(6))) * 0)
  DO v0 = 1, 2
    g3 = g3
  ENDDO
  v0 = max(la(1), 7)
  g0 = (max(-5, 14) - (13 + g0))
  PRINT *, la(8)
  PRINT *, mod((15 * 14), 8)
  DO v1 = 3, 6
    IF (la(2) .GE. f0) f0 = -4
    g1 = ((v1 + 3) * 13)
  ENDDO
  la(5) = max(la(11), la(6))
  v1 = (-4 - (f0 / (3 + la(8))))
  g0 = la(8)
  CALL proc219((f0 + 1), (0 + mod(-5, 8)))
END

SUBROUTINE proc219(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = (la(10) - f0)
  IF (abs(13) .NE. la(2)) v0 = max(v1, la(7))
  PRINT *, la(5)
  DO g1 = 0, 2
    f1 = mod(11, 7)
    IF (3 .LT. (8 + 13) .OR. (13 / (4 + 1)) .LE. (15 - la(11))) THEN
      IF (-1 .LE. g3 .OR. (la(12) - 5) .GT. abs(12)) v0 = (v1 - la(6))
    ENDIF
  ENDDO
  CALL proc220((f0 + 1), 1)
END

SUBROUTINE proc220(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = 8
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (max(la(3), g1) - 12)
  v2 = v3
  v0 = la(9)
  f1 = (la(11) + (10 / (4 + la(9))))
  DO g1 = 1, 3
    v2 = mod(max(la(4), 0), 5)
  ENDDO
  f1 = la(4)
  la(12) = g0
  la(11) = 9
  PRINT *, ((14 * la(9)) - (9 + 10))
  CALL proc221(3)
END

SUBROUTINE proc221(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((-1 / (3 + la(6))) .LT. 6 .AND. -1 .LE. 5) THEN
    DO v0 = 2, 6
      g1 = 14
    ENDDO
    DO g3 = 3, 7
      v0 = (la(7) - 3)
      PRINT *, la(3)
    ENDDO
  ELSE
    DO f0 = 3, 6
      g3 = (0 / (5 + 6))
      v2 = 7
    ENDDO
    f0 = (max(-3, 2) - max(3, la(10)))
  ENDIF
  v1 = ((11 * 11) - max(g1, 2))
  CALL proc222(4)
END

SUBROUTINE proc222(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 10
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = abs(mod(la(6), 7))
  la(3) = ((g3 * 12) / (2 + v1))
  CALL proc223((f0 + 1), 7)
END

SUBROUTINE proc223(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, mod(la(7), 4)
  g3 = max(12, 6)
  g1 = la(10)
  g0 = (la(7) + la(12))
  IF ((f1 - la(11)) .LE. abs(-3) .AND. g0 .LT. -5) THEN
    v0 = 3
  ELSE
    la(11) = la(7)
  ENDIF
  CALL proc224((0 + (la(9) / (2 + 5))), 6)
END

SUBROUTINE proc224(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = 4
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = max(la(6), la(3))
  PRINT *, la(6)
  g1 = (mod(7, 7) + (2 + la(9)))
  v0 = ((la(8) + -2) * la(1))
  IF (la(7) .EQ. abs(la(12)) .AND. la(4) .GT. max(g2, la(3))) v3 = 4
  CALL proc225(2)
END

SUBROUTINE proc225(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 3
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, g2
  la(10) = ((-2 - v1) - 14)
  g3 = la(6)
  g2 = abs((4 / (3 + 0)))
  v0 = (la(11) + la(1))
  g0 = la(10)
  IF (mod(-4, 4) .LT. la(6) .OR. 1 .GE. la(1)) g1 = (12 / (5 + 5))
  IF (.NOT. ((-4 * la(10)) .GT. 13)) THEN
    la(10) = (la(5) + mod(0, 8))
    v0 = 4
  ELSE
    f0 = (mod(15, 6) * f0)
  ENDIF
  PRINT *, -4
  CALL proc226(7)
END

SUBROUTINE proc226(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -3
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(v1, 6) .GT. -4 .AND. mod(7, 5) .LT. max(7, la(4))) g1 = -2
  CALL proc227(7, v1)
END

SUBROUTINE proc227(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 3
  v2 = 1
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(4) = v1
  f1 = v2
  v0 = abs(la(9))
  v0 = max(la(7), 0)
  PRINT *, (-5 * g1)
  IF ((4 * v0) .LE. la(1)) THEN
    g3 = (la(2) * -3)
  ENDIF
  IF (10 .EQ. max(15, 15) .OR. g2 .EQ. (-1 * v3)) g1 = mod(f0, 8)
  v3 = -3
  PRINT *, la(3)
  g1 = (0 + mod(12, 6))
  CALL proc228(5)
END

SUBROUTINE proc228(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = (-4 - max(10, f0))
  CALL proc229(4)
END

SUBROUTINE proc229(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (g1 + la(2))
  PRINT *, (v0 + (2 - la(2)))
  v1 = abs((14 / (4 + -2)))
  la(8) = (5 / (6 + -2))
  IF (f0 .LT. (13 / (4 + f0)) .OR. g2 .LT. (8 * la(8))) THEN
    la(8) = 11
    IF ((9 - 0) .LT. g2 .AND. 10 .NE. g0) g2 = g1
  ENDIF
  CALL proc230((f0 + 1))
END

SUBROUTINE proc230(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((4 - v1) .EQ. g2 .OR. 10 .LT. (6 * la(8))) f0 = la(6)
  g1 = max(v1, la(1))
  CALL proc231((f0 + 1), v1)
END

SUBROUTINE proc231(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 9
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = la(8)
  g3 = max(8, 2)
  v0 = (v1 + 15)
  DO g2 = 1, 1
    IF (.NOT. (11 .GT. (8 + -4))) THEN
      g3 = v0
    ELSE
      f0 = (abs(la(6)) / (5 + 10))
    ENDIF
  ENDDO
  PRINT *, la(12)
  CALL proc232(3)
END

SUBROUTINE proc232(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 8
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, v2
  la(4) = (3 - v3)
  PRINT *, max(15, 0)
  CALL proc233(2)
END

SUBROUTINE proc233(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, v1
  g3 = la(11)
  g2 = ((g0 / (5 + 0)) - (la(1) - 4))
  v0 = -4
  IF ((6 * la(5)) .NE. la(3) .AND. mod(g3, 7) .GT. 9) THEN
    v1 = (-2 + abs(g3))
  ELSE
    IF (g0 .LT. 12) g0 = (v1 * f0)
    la(5) = g3
  ENDIF
  v0 = la(1)
  g1 = -5
  IF (max(7, 10) .EQ. (-3 / (4 + 13))) v1 = (9 / (5 + la(7)))
  CALL proc234((0 + v0))
END

SUBROUTINE proc234(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(9) = ((g3 - 15) / (2 + la(3)))
  g1 = la(10)
  g0 = abs(v0)
  g0 = 7
  IF ((9 * 5) .GT. v0 .OR. max(-5, 11) .EQ. (-1 / (3 + g0))) g0 = mod(6, 5)
  IF (.NOT. ((la(10) + la(7)) .GE. (f0 * 10))) g0 = la(7)
  v1 = ((la(12) + 7) - g2)
  la(12) = 2
  g1 = abs(-1)
  la(2) = (max(5, la(1)) + (g1 + g0))
  CALL proc235((f0 + 1), v0)
END

SUBROUTINE proc235(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(3) = (1 * g2)
  la(1) = 15
  la(10) = 2
  DO g1 = 1, 2
    PRINT *, 5
  ENDDO
  v0 = 10
  IF (.NOT. (abs(2) .EQ. 14)) g0 = (f0 - la(9))
  CALL proc236(6)
END

SUBROUTINE proc236(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = v1
  PRINT *, mod((0 / (4 + -1)), 7)
  f0 = (1 + v1)
  CALL proc237(7)
END

SUBROUTINE proc237(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = abs(v0)
  g2 = 10
  IF (.NOT. (-4 .GT. mod(-5, 4))) THEN
    DO v0 = 3, 3
      g1 = -1
    ENDDO
  ENDIF
  f0 = (la(8) / (5 + 6))
  v1 = abs(g2)
  CALL proc238((0 + (g2 - 6)))
END

SUBROUTINE proc238(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, ((g1 * 4) - 0)
  IF (0 .NE. la(2)) g2 = 12
  g1 = (mod(la(7), 3) - (8 + 10))
  CALL proc239(7, (0 + abs(la(5))))
END

SUBROUTINE proc239(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 1, 5
    f0 = ((v0 + 14) / (5 + la(6)))
  ENDDO
  PRINT *, v1
  IF (13 .LT. la(3) .OR. 12 .GT. (v1 / (5 + g1))) v0 = (13 * la(5))
  g3 = ((10 - f0) - 11)
  IF ((v2 * -2) .GT. mod(la(7), 6) .AND. -3 .LE. la(8)) THEN
    PRINT *, (v2 * v2)
    f1 = la(4)
  ENDIF
  IF (la(7) .GT. 4 .AND. la(2) .GT. la(1)) THEN
    DO g3 = 3, 5
      IF ((6 / (6 + 13)) .LT. (4 + la(3)) .OR. (la(9) - f0) .GT. la(12)) g2 = (la(2) * g0)
      v2 = (2 - g2)
    ENDDO
  ENDIF
  la(7) = 1
  DO g0 = 2, 4
    PRINT *, -4
  ENDDO
  IF (.NOT. (max(v0, 6) .EQ. (12 / (2 + 15)))) v2 = la(2)
  IF ((11 + g2) .GE. mod(8, 8)) v1 = v0
  CALL proc240((f0 + 1))
END

SUBROUTINE proc240(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 10
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = abs(v0)
  CALL proc241(3, v0)
END

SUBROUTINE proc241(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 8
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = (15 * 0)
  CALL proc242(4, f0)
END

SUBROUTINE proc242(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 14
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(9) = mod((5 * 3), 5)
  la(8) = la(4)
  DO v1 = 2, 6
    DO f0 = 0, 1
      g3 = g2
    ENDDO
  ENDDO
  g3 = v2
  IF (.NOT. ((4 * -5) .GE. 3)) THEN
    IF ((7 + la(7)) .NE. f1) THEN
      la(7) = 14
    ELSE
      v3 = ((10 * v0) + (la(3) + 0))
    ENDIF
  ENDIF
  la(2) = 5
  DO v2 = 1, 2
    DO v3 = 1, 4
      g2 = 14
    ENDDO
  ENDDO
  IF ((g1 * la(10)) .NE. 0 .OR. 0 .EQ. la(6)) THEN
    PRINT *, g2
  ELSE
    f1 = la(1)
  ENDIF
  PRINT *, (g2 + abs(la(5)))
  g2 = la(2)
  CALL proc243((f0 + 1))
END

SUBROUTINE proc243(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(9) = (8 + la(12))
  f0 = mod(mod(-3, 8), 2)
  v1 = abs(max(14, v1))
  g0 = g0
  g1 = (la(2) - (5 * la(8)))
  g1 = -3
  f0 = mod(la(4), 2)
  CALL proc244((0 + (g0 * la(2))))
END

SUBROUTINE proc244(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 2
  v2 = -1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = abs((-3 * -1))
  CALL proc245((f0 + 1), (0 + (la(8) * la(1))))
END

SUBROUTINE proc245(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -1
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = la(2)
  IF ((la(12) - f0) .EQ. max(3, la(2)) .OR. -3 .LE. mod(v0, 7)) THEN
    g2 = la(6)
    g0 = ((-4 - 2) / (2 + la(10)))
  ENDIF
  g0 = la(8)
  PRINT *, 4
  IF (.NOT. (9 .GE. 3)) f0 = la(5)
  la(9) = max(9, g2)
  PRINT *, 8
  v0 = 14
  CALL proc246(3, f1)
END

SUBROUTINE proc246(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(4) = max(10, g0)
  v1 = abs((la(6) * 11))
  f1 = (10 * la(9))
  v1 = (la(11) + (9 + 6))
  f1 = 8
  IF (la(7) .GE. la(6) .OR. g2 .GT. max(g2, 12)) THEN
    g3 = la(9)
    v0 = v0
  ELSE
    IF (.NOT. (abs(2) .LT. (7 / (5 + 6)))) THEN
      g0 = (la(11) + 5)
    ENDIF
    f1 = la(4)
  ENDIF
  v2 = 7
  PRINT *, v2
  la(1) = abs((0 / (6 + v0)))
  v2 = -2
  CALL proc247(7, (0 + max(g3, 6)))
END

SUBROUTINE proc247(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = la(12)
  PRINT *, ((15 + 3) - (10 - -1))
  g3 = max(la(1), 2)
  IF (.NOT. (abs(la(2)) .EQ. v0)) THEN
    IF (-3 .LT. abs(g0)) THEN
      g1 = f1
      PRINT *, 3
    ELSE
      PRINT *, -2
      g0 = 6
    ENDIF
    PRINT *, (f1 * la(12))
  ENDIF
  g1 = 11
  IF (6 .GE. v0 .AND. 2 .LE. (5 + v1)) THEN
    DO g0 = 3, 7
      v0 = -3
      f1 = g2
    ENDDO
    IF (la(4) .LT. abs(-1)) THEN
      g2 = ((2 - 3) - g1)
      v1 = (la(6) - max(la(6), 12))
    ELSE
      g1 = la(8)
    ENDIF
  ENDIF
  DO v0 = 3, 5
    DO g1 = 0, 4
      la(12) = mod((10 - 13), 5)
    ENDDO
  ENDDO
  PRINT *, (g3 - 1)
  g2 = (max(3, 1) * -1)
  CALL proc248((0 + 14), (0 + la(4)))
END

SUBROUTINE proc248(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 9
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = la(8)
  g2 = (abs(la(5)) / (2 + la(3)))
  PRINT *, 6
  g0 = ((11 * la(12)) + la(11))
  PRINT *, mod(10, 7)
  DO g1 = 1, 4
    g0 = -4
  ENDDO
  f0 = 9
  v2 = (-2 / (2 + la(12)))
  f0 = 3
  v1 = v2
  CALL proc249((0 + 2))
END

SUBROUTINE proc249(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 0
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (abs(v2) .EQ. la(4) .AND. (g1 + v2) .EQ. (-5 * 15)) THEN
    PRINT *, v1
    PRINT *, (max(1, 1) - (v2 / (5 + la(3))))
  ENDIF
  g0 = abs(la(10))
  la(9) = (10 / (5 + g3))
  g2 = g3
  la(11) = la(11)
  DO v1 = 1, 4
    f0 = (la(5) + 13)
    la(3) = la(5)
  ENDDO
  v2 = g2
  g3 = abs((-5 - v0))
  v2 = la(7)
  DO v2 = 0, 3
    f0 = g0
    DO g0 = 3, 6
      f0 = g2
    ENDDO
  ENDDO
  CALL proc250((0 + 4))
END

SUBROUTINE proc250(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = ((g2 - la(9)) + 12)
  v2 = (max(la(12), la(7)) + mod(g0, 3))
  g1 = 4
  g3 = v2
  v2 = (-4 / (4 + 12))
  PRINT *, v0
  g1 = 14
  IF (abs(7) .LT. v2 .AND. (7 * 9) .LE. 1) THEN
    la(6) = mod(g0, 6)
  ENDIF
  IF (abs(g3) .NE. -1 .OR. v1 .EQ. abs(la(8))) THEN
    g0 = (13 * la(3))
    DO v2 = 2, 3
      g0 = ((g3 - -5) - -2)
    ENDDO
  ENDIF
  v0 = (3 - v0)
  CALL proc251(4, (0 + max(la(10), 1)))
END

SUBROUTINE proc251(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = 0
  la(10) = (la(11) * 14)
  IF (.NOT. (mod(v2, 5) .GE. g1)) THEN
    f0 = (la(4) * g2)
    g3 = (abs(la(10)) - g2)
  ENDIF
  g0 = 2
  IF (.NOT. (abs(7) .EQ. mod(8, 7))) THEN
    g0 = ((la(7) + 2) * 10)
    g3 = la(8)
  ELSE
    la(12) = 8
    IF (.NOT. (10 .LE. mod(-3, 7))) THEN
      g1 = la(2)
      v1 = -5
    ENDIF
  ENDIF
  v2 = v2
  la(10) = max(-5, 15)
  IF (max(la(6), la(5)) .NE. (v0 + la(4))) THEN
    DO g3 = 3, 3
      v2 = (la(11) + (g3 / (5 + 5)))
    ENDDO
  ELSE
    f0 = la(1)
    IF (.NOT. ((g1 - -1) .LT. (-4 / (4 + la(7))))) g2 = la(8)
  ENDIF
  DO v0 = 1, 3
    f1 = (abs(la(7)) + la(4))
    g3 = v0
  ENDDO
  IF (g3 .NE. 1) g3 = abs(la(3))
  CALL proc252(4)
END

SUBROUTINE proc252(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = la(7)
  la(4) = abs(10)
  la(12) = 6
  CALL proc253((0 + (v1 * -2)), 8)
END

SUBROUTINE proc253(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 2
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (mod(-2, 2) .NE. abs(2) .AND. 5 .EQ. 0) v1 = 3
  CALL proc254(6, (0 + (la(8) * 14)))
END

SUBROUTINE proc254(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 11
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(6) = g2
  g3 = mod((la(6) / (4 + la(11))), 8)
  v2 = ((la(5) - 9) * 0)
  CALL proc255((0 + 15))
END

SUBROUTINE proc255(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((la(1) - 8) / (3 + la(10)))
  la(11) = ((v0 + 6) / (6 + 4))
  IF (.NOT. ((f0 + g0) .EQ. la(10))) v0 = 12
  g0 = (6 * la(6))
  IF ((14 - 0) .EQ. 2 .AND. 0 .GE. 6) f0 = abs(-2)
  CALL proc256((0 + abs(la(11))))
END

SUBROUTINE proc256(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(11) = abs((v2 + v1))
  g0 = mod(4, 7)
  DO f0 = 1, 1
    g3 = la(1)
  ENDDO
  g2 = -4
  IF (g1 .EQ. 4 .OR. max(-5, 7) .LT. mod(14, 3)) THEN
    f0 = (g1 + 15)
  ENDIF
  v0 = (g3 / (5 + la(11)))
  v1 = la(12)
  IF (.NOT. ((g1 + -5) .GE. (0 + 13))) g2 = g2
  IF ((7 + 11) .LE. max(la(7), -1) .OR. (la(4) + g2) .NE. (g0 + la(8))) THEN
    DO v2 = 0, 3
      g1 = la(1)
      g1 = g0
    ENDDO
    PRINT *, mod(9, 5)
  ELSE
    la(3) = 13
    g0 = abs((v1 - la(12)))
  ENDIF
  v2 = f0
  CALL proc257(5)
END

SUBROUTINE proc257(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(11) = mod(la(11), 2)
  CALL proc258(5)
END

SUBROUTINE proc258(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (11 / (5 + 7))
  IF (-4 .NE. max(14, 9) .AND. 7 .NE. -1) THEN
    g0 = (max(f0, 7) / (6 + 10))
    f0 = -1
  ENDIF
  PRINT *, f0
  PRINT *, la(3)
  v1 = 7
  DO g3 = 1, 3
    v1 = 0
  ENDDO
  g1 = max(v0, la(7))
  v0 = 3
  CALL proc259((f0 + 1), v0)
END

SUBROUTINE proc259(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(10) = (v0 + 10)
  PRINT *, max(6, 11)
  IF (la(4) .GE. (3 * -4) .AND. (10 + 14) .GT. max(4, la(12))) THEN
    la(9) = 2
  ELSE
    PRINT *, (13 - la(3))
    la(10) = 7
  ENDIF
  DO v0 = 0, 1
    g2 = (mod(3, 2) * 7)
    PRINT *, v0
  ENDDO
  IF (.NOT. ((la(2) / (4 + 10)) .EQ. mod(la(8), 3))) THEN
    DO g0 = 0, 0
      v0 = ((la(6) - 13) + (-3 * g1))
    ENDDO
  ENDIF
  IF (mod(-2, 2) .EQ. v1 .OR. (f0 / (3 + 0)) .GT. mod(2, 5)) THEN
    f1 = (abs(8) * 6)
  ENDIF
  la(8) = (abs(la(1)) + (la(7) - la(10)))
  g1 = abs(la(4))
  IF (mod(la(1), 8) .LT. (6 / (5 + g3))) THEN
    g3 = 7
  ELSE
    IF (.NOT. (5 .GT. (v1 / (3 + f0)))) g2 = max(-5, 1)
    f1 = 4
  ENDIF
  CALL proc260(6)
END

SUBROUTINE proc260(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 13
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g3 = 3, 6
    g2 = (abs(5) + la(12))
    v0 = -3
  ENDDO
  g3 = max(v0, f0)
  g3 = v2
  g1 = la(12)
  DO v0 = 1, 5
    PRINT *, 6
  ENDDO
  g3 = -5
  PRINT *, (15 + (g2 * 14))
  CALL proc261((f0 + 1), 10)
END

SUBROUTINE proc261(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 4
  v2 = 3
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO f0 = 1, 5
    IF (-4 .LE. abs(-4) .OR. -1 .GE. -2) THEN
      f1 = abs(-3)
    ENDIF
    DO v3 = 0, 4
      la(11) = abs(max(la(7), v3))
      PRINT *, abs(12)
    ENDDO
  ENDDO
  CALL proc262((0 + 6))
END

SUBROUTINE proc262(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (max(g1, g3) .GT. (15 - 10))) THEN
    v1 = (-1 + (la(8) * 15))
    v1 = 2
  ELSE
    g1 = 1
    g1 = v1
  ENDIF
  g1 = 9
  g0 = (g2 / (6 + la(9)))
  IF (.NOT. (-3 .GE. (-4 * v0))) THEN
    PRINT *, -1
    PRINT *, la(11)
  ENDIF
  DO f0 = 1, 1
    g1 = la(12)
  ENDDO
  g0 = max(la(10), la(2))
  v0 = v1
  CALL proc263(7, v1)
END

SUBROUTINE proc263(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -2
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = v1
  PRINT *, abs(la(11))
  g0 = 12
  g0 = -5
  IF (.NOT. (abs(la(12)) .GE. (v0 * g0))) THEN
    IF (.NOT. (3 .LE. 6)) v1 = (la(12) + 3)
    PRINT *, 12
  ENDIF
  g1 = ((10 - 1) - la(9))
  CALL proc264(7, f0)
END

SUBROUTINE proc264(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = max(la(4), la(10))
  la(6) = f1
  DO v2 = 1, 5
    g0 = (5 * 7)
  ENDDO
  IF (g1 .LE. g1 .AND. (la(4) * -4) .LT. (g3 * la(7))) THEN
    IF (abs(0) .LE. -3 .AND. (la(3) + 10) .LT. (8 / (5 + 10))) v2 = (g3 + la(2))
  ELSE
    v2 = (max(-5, la(9)) + 2)
  ENDIF
  g2 = 10
  g3 = la(3)
  PRINT *, la(3)
  CALL proc265((0 + v1))
END

SUBROUTINE proc265(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = ((11 / (4 + -2)) - abs(3))
  DO g3 = 1, 4
    g0 = max(g0, v0)
  ENDDO
  g2 = mod(14, 7)
  v0 = (6 + (v0 + v1))
  la(2) = abs(la(2))
  IF (la(3) .GT. -4 .OR. la(9) .LT. 3) g0 = (-2 + g1)
  CALL proc266((0 + (-5 + g2)), v0)
END

SUBROUTINE proc266(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 0
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = (mod(-5, 8) / (4 + -2))
  v1 = la(6)
  PRINT *, la(9)
  CALL proc267((0 + (la(11) / (3 + 7))))
END

SUBROUTINE proc267(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 13
  v2 = 8
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 0, 4
    DO g3 = 1, 5
      la(5) = (v1 + -1)
      IF ((-2 * -5) .EQ. (la(2) * v3)) v1 = (g3 - la(7))
    ENDDO
    PRINT *, max(1, -1)
  ENDDO
  IF (-4 .EQ. (-4 - g1) .OR. mod(-5, 6) .LE. 7) THEN
    IF ((12 * la(10)) .LT. f0 .AND. -3 .GT. (la(9) * la(4))) v1 = abs(4)
    PRINT *, (la(5) / (5 + 4))
  ELSE
    v3 = ((la(3) / (3 + v2)) + v2)
  ENDIF
  DO v1 = 0, 1
    IF (.NOT. ((la(12) + la(3)) .EQ. abs(g2))) THEN
      v2 = mod(la(5), 5)
    ELSE
      PRINT *, 7
    ENDIF
    IF ((la(9) * -5) .LE. (f0 / (5 + -5))) f0 = 11
  ENDDO
  DO g2 = 2, 4
    DO v2 = 3, 4
      IF (mod(v0, 7) .LE. max(5, f0) .AND. 12 .LE. 15) g3 = -2
    ENDDO
    la(1) = max(la(9), 5)
  ENDDO
  CALL proc268((0 + 4))
END

SUBROUTINE proc268(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 8
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = abs(4)
  g1 = 3
  IF (mod(f0, 3) .GE. (f0 * f0) .OR. 8 .LE. max(la(9), 8)) g2 = abs(la(2))
  g1 = 14
  g2 = ((v2 - 15) / (2 + la(11)))
  g1 = ((-3 / (4 + 3)) + 13)
  CALL proc269((0 + (g3 - -1)), (0 + g3))
END

SUBROUTINE proc269(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 0
  v2 = 2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(13, 3)
  f0 = (5 - (f1 + 0))
  IF (.NOT. ((v2 - la(1)) .EQ. f1)) v2 = v1
  la(7) = (mod(g1, 4) + abs(g0))
  DO v0 = 3, 3
    g0 = 10
  ENDDO
  IF (-2 .NE. -3 .OR. (f0 * 11) .LT. abs(la(3))) g0 = la(7)
  v1 = v2
  CALL proc270(6)
END

SUBROUTINE proc270(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = 2
  CALL proc271((f0 + 1))
END

SUBROUTINE proc271(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(5) = v0
  la(7) = la(5)
  la(4) = la(6)
  CALL proc272(3)
END

SUBROUTINE proc272(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 12
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((8 + g2) .LT. 2 .AND. abs(v1) .EQ. (8 - 5)) THEN
    v0 = mod(mod(la(12), 7), 8)
    IF ((la(6) + la(4)) .LE. (11 * 4) .OR. g3 .LE. (3 / (3 + 8))) v0 = (g1 + -1)
  ELSE
    v2 = ((3 + 7) * g2)
  ENDIF
  CALL proc273((f0 + 1))
END

SUBROUTINE proc273(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (2 / (2 + 10))
  IF (la(4) .EQ. la(10) .AND. mod(v1, 2) .LE. 11) f0 = 3
  CALL proc274((0 + mod(-3, 7)), f0)
END

SUBROUTINE proc274(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(6) .LT. (7 - 4)) THEN
    PRINT *, la(5)
    DO g1 = 1, 4
      IF (la(5) .GE. 14 .OR. mod(2, 7) .GT. 4) g0 = max(13, 5)
    ENDDO
  ENDIF
  IF (3 .LT. (g1 / (4 + 12)) .AND. 12 .GE. (-1 * -5)) THEN
    v0 = (abs(g3) + la(10))
    v0 = la(3)
  ELSE
    IF (abs(-3) .GT. (la(3) - 8)) THEN
      la(11) = 15
      g1 = -4
    ELSE
      PRINT *, (abs(v0) + (g2 - 14))
    ENDIF
  ENDIF
  g0 = abs(la(12))
  g0 = (0 / (3 + la(7)))
  v0 = ((f0 + 2) + (-2 + g3))
  v2 = -1
  DO v1 = 1, 2
    g3 = v1
  ENDDO
  PRINT *, la(7)
  CALL proc275(6, -2)
END

SUBROUTINE proc275(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (f1 - max(g0, -3))
  f1 = -4
  IF (g1 .NE. mod(la(4), 5)) g1 = f1
  g1 = (g2 - (8 / (4 + 1)))
  IF ((11 - la(8)) .LE. (g0 + 4)) THEN
    v1 = f1
  ELSE
    f0 = la(6)
  ENDIF
  v0 = (g0 * -1)
  PRINT *, 4
  CALL proc276(2)
END

SUBROUTINE proc276(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 3
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = -3
  g2 = 8
  CALL proc277((f0 + 1))
END

SUBROUTINE proc277(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 8
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = g0
  g3 = abs(la(7))
  la(6) = g1
  DO g0 = 0, 0
    la(11) = abs(max(7, la(6)))
  ENDDO
  IF ((g1 - -5) .EQ. (la(9) - 7)) THEN
    IF (la(7) .GT. (g1 / (6 + g0)) .OR. (g2 * 1) .GT. max(-5, 12)) g3 = -5
    IF ((la(9) - la(9)) .GE. 8 .AND. (g3 / (6 + -1)) .GE. (la(3) / (2 + 10))) g2 = max(2, v2)
  ELSE
    IF (g2 .GT. (la(4) * 10)) v2 = abs(la(4))
  ENDIF
  g3 = abs((la(10) / (4 + g0)))
  f0 = abs(g1)
  CALL proc278(4, v2)
END

SUBROUTINE proc278(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 6
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = g1
  la(8) = ((5 * g1) / (5 + 7))
  PRINT *, mod((v1 * v1), 4)
  f0 = (mod(la(9), 8) / (2 + g3))
  la(4) = ((9 * la(9)) * f1)
  v2 = 1
  PRINT *, la(4)
  IF ((5 + 0) .LE. 12 .OR. max(la(11), 9) .NE. 3) v2 = (6 - 13)
  g1 = ((la(4) * 3) / (4 + 10))
  DO g0 = 2, 2
    la(9) = 2
  ENDDO
  CALL proc279((0 + -2))
END

SUBROUTINE proc279(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 5
  v2 = 7
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = 2
  g2 = (12 + (9 + 3))
  v1 = la(6)
  la(11) = la(9)
  v2 = ((v2 / (4 + g3)) / (3 + la(5)))
  CALL proc280((f0 + 1), 6)
END

SUBROUTINE proc280(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 13
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = 6
  IF ((8 * la(11)) .LE. (la(9) - f0) .OR. v0 .LT. max(v3, 11)) g0 = abs(f1)
  v2 = 4
  v3 = (13 / (2 + v1))
  f0 = abs(mod(5, 8))
  IF (.NOT. (abs(la(10)) .LE. la(10))) g1 = abs(13)
  g3 = f1
  DO v1 = 0, 3
    g0 = (f0 - (g3 * 6))
  ENDDO
  la(1) = 4
  CALL proc281((f0 + 1), f0)
END

SUBROUTINE proc281(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = 12
  v1 = 3
  CALL proc282((f0 + 1), (0 + la(7)))
END

SUBROUTINE proc282(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -1
  v2 = -4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. ((5 * -5) .LE. la(5))) THEN
    IF (14 .NE. 8 .AND. la(4) .GT. la(1)) g0 = max(13, 12)
  ELSE
    DO v2 = 3, 6
      g0 = 0
      v1 = v1
    ENDDO
  ENDIF
  v0 = (g0 * v2)
  v1 = (6 / (5 + -4))
  DO v2 = 3, 3
    f0 = (-5 / (5 + g1))
  ENDDO
  v2 = la(4)
  IF ((g1 - 8) .GE. -1) THEN
    IF (5 .EQ. -5 .AND. (10 + 13) .GT. la(12)) g0 = v3
    g3 = (g3 + 12)
  ENDIF
  g2 = la(11)
  CALL proc283((0 + (la(2) * -4)), -3)
END

SUBROUTINE proc283(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 7
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, mod(la(6), 4)
  g1 = (la(12) * 13)
  PRINT *, mod(-1, 6)
  g1 = 9
  v1 = la(12)
  v1 = -2
  IF (.NOT. (12 .EQ. la(5))) THEN
    g3 = max(f0, 2)
    DO v0 = 2, 2
      g0 = la(7)
    ENDDO
  ENDIF
  IF (la(7) .GE. (g1 * -2)) THEN
    PRINT *, 8
  ELSE
    IF (la(1) .GT. (15 - 13)) g2 = -1
    g2 = mod((3 + g0), 6)
  ENDIF
  IF ((13 - la(5)) .GE. 9 .AND. (v1 + 14) .NE. mod(la(10), 5)) THEN
    la(8) = (max(la(6), g3) - (v1 / (4 + -4)))
  ENDIF
  CALL proc284((0 + (13 + 15)), -1)
END

SUBROUTINE proc284(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((f0 * -2) .NE. abs(g2) .AND. (-1 * 2) .GT. (g2 + g3)) THEN
    IF (la(2) .LT. 7) g2 = -3
    IF (.NOT. ((15 * la(3)) .NE. (5 * g0))) v1 = -1
  ELSE
    g2 = 9
  ENDIF
  DO g1 = 3, 6
    IF (la(2) .LE. 10) THEN
      la(4) = f0
    ELSE
      v1 = (mod(4, 5) + f1)
      IF (max(la(6), 1) .NE. (la(12) * la(4)) .OR. g0 .GE. mod(6, 6)) g2 = max(6, la(2))
    ENDIF
    DO v1 = 3, 7
      g2 = 13
    ENDDO
  ENDDO
  g3 = la(10)
  DO g0 = 3, 3
    IF (f1 .GT. (g3 + 11) .OR. (la(10) + -1) .LT. 10) v1 = 13
  ENDDO
  IF ((5 * -3) .GE. f0 .OR. f1 .LE. 5) THEN
    PRINT *, ((8 / (5 + f0)) * g0)
    v0 = la(8)
  ENDIF
  g1 = g0
  g2 = ((11 - 13) / (3 + f0))
  f1 = 7
  IF (.NOT. (5 .LE. mod(10, 3))) THEN
    v0 = abs(8)
  ENDIF
  CALL proc285(5, v1)
END

SUBROUTINE proc285(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = 9
  IF (g2 .LE. la(7) .OR. (g0 + 5) .NE. g0) THEN
    IF (.NOT. (9 .NE. g3)) THEN
      IF (12 .LE. (la(2) / (6 + la(8)))) g1 = f1
    ELSE
      f1 = g1
    ENDIF
    IF (0 .GT. 14) THEN
      v0 = -1
      v0 = (la(3) * 8)
    ELSE
      f0 = ((14 * 14) / (5 + 14))
    ENDIF
  ELSE
    g3 = (g3 + abs(g1))
  ENDIF
  g0 = max(-1, la(6))
  IF ((-4 + -2) .LE. g0 .OR. max(9, la(6)) .LT. mod(la(5), 7)) THEN
    IF ((v1 / (5 + 8)) .GT. (-5 - g0) .OR. (11 * g1) .GE. max(-1, 11)) f0 = (4 / (4 + 3))
  ELSE
    v0 = ((la(4) / (2 + la(8))) * 2)
    DO f0 = 1, 5
      g3 = max(9, -2)
    ENDDO
  ENDIF
  IF (v1 .NE. la(7) .OR. max(-1, la(6)) .GT. la(5)) v0 = 6
  g1 = la(2)
  CALL proc286(5)
END

SUBROUTINE proc286(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 5
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((1 * g2) .GE. 10)) THEN
    g1 = g2
    IF ((la(2) + -1) .LE. g0) THEN
      PRINT *, (mod(4, 2) / (3 + 10))
      f0 = abs((9 * la(4)))
    ENDIF
  ELSE
    v0 = v1
    v0 = mod(max(13, la(2)), 2)
  ENDIF
  PRINT *, (max(5, -3) + abs(0))
  PRINT *, la(9)
  v2 = -5
  IF ((-4 * 5) .LE. max(0, la(12)) .OR. (-4 / (5 + la(5))) .EQ. 1) THEN
    g0 = 15
  ENDIF
  la(6) = 1
  la(11) = g3
  IF (-1 .NE. abs(-3) .AND. g3 .EQ. (f0 / (2 + la(12)))) THEN
    DO v1 = 3, 5
      g3 = ((g0 + -3) * 3)
    ENDDO
    IF (g3 .GE. v0 .AND. (2 * g2) .LT. -5) g3 = (2 - 11)
  ELSE
    g0 = 5
  ENDIF
  DO v0 = 2, 4
    v2 = mod(abs(g3), 4)
    DO g3 = 3, 4
      v2 = ((15 + 1) / (6 + g0))
    ENDDO
  ENDDO
  CALL proc287((0 + la(11)), v2)
END

SUBROUTINE proc287(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 12
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = abs(mod(-4, 8))
  v2 = mod((v0 - 11), 5)
  PRINT *, g3
  v2 = (g3 + (8 + la(8)))
  v2 = v0
  la(7) = ((6 - la(2)) * 15)
  CALL proc288((f0 + 1), (0 + la(5)))
END

SUBROUTINE proc288(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -4
  v2 = 6
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(3) = max(-3, g2)
  DO f1 = 1, 5
    g2 = ((g2 / (6 + la(3))) * la(1))
  ENDDO
  g1 = 12
  PRINT *, (f1 / (4 + 11))
  g2 = abs(abs(0))
  v0 = la(6)
  CALL proc289((f0 + 1))
END

SUBROUTINE proc289(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 13
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = max(5, la(6))
  IF ((la(6) - 1) .LE. la(10)) v0 = (v0 - g0)
  CALL proc290(4)
END

SUBROUTINE proc290(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = max(9, -2)
  v1 = -1
  PRINT *, abs(mod(la(10), 3))
  PRINT *, max(-4, 2)
  IF (1 .LE. abs(7) .AND. 7 .GT. 5) f0 = (la(9) + 8)
  CALL proc291(5)
END

SUBROUTINE proc291(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (10 .LE. (5 - la(9))) g1 = la(7)
  DO v1 = 1, 4
    IF (.NOT. ((6 * la(2)) .LE. la(8))) THEN
      g1 = 4
    ENDIF
    g2 = la(1)
  ENDDO
  IF (-1 .GE. (v1 * f0) .OR. (13 * la(2)) .GE. 1) THEN
    PRINT *, max(10, 4)
  ELSE
    g0 = ((3 - g3) / (4 + g3))
  ENDIF
  g1 = 3
  g2 = (12 * 0)
  IF (.NOT. ((11 - la(6)) .GT. (6 - -5))) THEN
    IF (la(11) .GE. (-1 / (6 + la(2))) .OR. (15 * g1) .GE. (4 / (6 + 14))) g0 = 14
  ELSE
    IF (la(7) .LE. max(-2, -2) .OR. mod(9, 2) .EQ. 2) THEN
      g3 = la(11)
      IF (.NOT. (max(v1, g2) .EQ. (7 + la(2)))) g2 = abs(13)
    ELSE
      IF (7 .GT. (g2 + g2)) g3 = 9
      g1 = v1
    ENDIF
    PRINT *, 11
  ENDIF
  v0 = (max(5, -1) / (5 + la(7)))
  g1 = la(2)
  PRINT *, g0
  PRINT *, (la(7) / (6 + la(3)))
  CALL proc292((0 + mod(10, 4)))
END

SUBROUTINE proc292(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(5) = g1
  la(7) = -4
  v2 = abs(0)
  g1 = 8
  IF (.NOT. (6 .EQ. -3)) g3 = (12 + la(10))
  DO v2 = 2, 2
    v1 = 3
  ENDDO
  v2 = la(9)
  g0 = 6
  IF (.NOT. ((v2 * la(12)) .LE. (la(8) * -3))) THEN
    PRINT *, 13
    g0 = f0
  ELSE
    g2 = (v2 / (6 + la(8)))
  ENDIF
  CALL proc293((0 + (la(7) - la(9))))
END

SUBROUTINE proc293(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -3
  v2 = 1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = abs(la(3))
  g2 = g0
  v1 = la(6)
  IF (0 .LE. (la(9) - v2) .OR. abs(v0) .LT. la(1)) f0 = (la(8) - v1)
  v3 = 4
  v3 = abs(-3)
  PRINT *, v2
  v2 = max(la(3), -5)
  CALL proc294((f0 + 1), -2)
END

SUBROUTINE proc294(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 1
  v2 = 13
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(9) = (max(6, la(1)) - v1)
  IF ((g1 / (5 + v3)) .LT. abs(v1) .OR. (g3 / (6 + la(11))) .GE. (0 / (3 + 12))) THEN
    DO f1 = 3, 5
      IF (.NOT. ((6 / (3 + v3)) .LT. abs(-4))) v0 = la(7)
    ENDDO
    g0 = la(12)
  ELSE
    v2 = 12
  ENDIF
  g2 = 9
  IF ((f0 - 3) .LT. (la(7) + 10) .AND. 5 .LE. 11) g1 = mod(1, 4)
  la(11) = 11
  IF (11 .LE. (f0 / (2 + 10)) .AND. (la(12) * 14) .NE. v3) g1 = 8
  v0 = v0
  la(3) = abs(15)
  DO v2 = 0, 2
    v3 = la(12)
    IF (la(6) .LE. mod(-1, 3) .OR. mod(15, 6) .GT. mod(la(9), 8)) v3 = 5
  ENDDO
  CALL proc295((0 + (-5 / (4 + g2))))
END

SUBROUTINE proc295(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 5
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = abs(abs(g2))
  g0 = 12
  g1 = la(8)
  IF (abs(g2) .GE. mod(11, 5)) g3 = la(7)
  la(1) = (abs(v1) + (-3 + v1))
  v3 = abs(v3)
  CALL proc296(5)
END

SUBROUTINE proc296(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = -3
  CALL proc297((0 + 7))
END

SUBROUTINE proc297(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = -3
  IF (-4 .EQ. 4 .OR. max(1, 5) .NE. (g2 - v1)) v0 = -4
  g3 = (la(8) * la(3))
  la(2) = (abs(g3) - la(4))
  PRINT *, ((la(6) + 12) - abs(v1))
  g0 = (la(10) * la(11))
  v1 = ((la(1) - g0) * f0)
  g0 = max(15, 14)
  CALL proc298((0 + (4 / (6 + 15))), 4)
END

SUBROUTINE proc298(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = -5
  IF (11 .GT. f1 .OR. (g1 / (2 + 7)) .GE. max(v1, g0)) g2 = 2
  PRINT *, 11
  la(6) = ((la(5) * -3) - g3)
  g0 = la(3)
  PRINT *, mod(5, 4)
  DO g1 = 0, 3
    g2 = -3
    v0 = mod((f1 - -2), 8)
  ENDDO
  g3 = ((6 * la(7)) - (f0 / (4 + g2)))
  g3 = ((9 / (4 + 7)) / (2 + v1))
  g1 = abs(-4)
  CALL proc299((f0 + 1))
END

SUBROUTINE proc299(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((7 - -1) / (4 + 4))
  v0 = g0
  f0 = la(6)
  g2 = f0
  IF (max(f0, 12) .NE. 15) g3 = mod(12, 6)
  la(1) = max(la(11), -4)
  v1 = 10
  CALL proc300((0 + -5), (0 + (la(11) - la(6))))
END

SUBROUTINE proc300(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (max(v0, la(6)) .NE. 14 .OR. la(9) .GT. (0 + g2)) f1 = (-1 * g1)
  f1 = (v1 + 11)
  IF (v1 .LE. (la(4) * g0) .OR. max(3, la(7)) .NE. max(4, -2)) THEN
    IF (max(f1, 10) .LT. (la(2) / (6 + -1)) .AND. abs(8) .NE. 8) g2 = g3
  ENDIF
  IF ((-2 * la(12)) .LE. abs(la(8)) .AND. la(5) .NE. mod(g3, 5)) THEN
    f0 = abs(15)
  ELSE
    DO g0 = 3, 6
      IF (.NOT. (la(12) .LE. la(7))) v0 = la(8)
    ENDDO
  ENDIF
  v1 = max(v0, 3)
  f1 = 3
  v1 = 14
  g3 = v0
  IF ((la(10) / (4 + v0)) .NE. f1 .AND. abs(la(9)) .GT. -5) f0 = la(3)
  IF (abs(g1) .LE. la(11) .OR. (v1 / (4 + 14)) .LE. la(6)) g3 = 3
  CALL proc301((0 + g0))
END

SUBROUTINE proc301(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 14
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (4 .GT. abs(13) .AND. v0 .LT. 1) THEN
    g3 = mod(mod(-1, 7), 8)
    v2 = max(v0, f0)
  ELSE
    v3 = ((7 * la(3)) + (la(8) - 7))
  ENDIF
  v1 = f0
  v2 = (mod(la(1), 4) + (14 + g2))
  IF (-1 .GE. 7) v3 = abs(-5)
  la(6) = (abs(g2) - la(2))
  CALL proc302((0 + (11 - la(3))), (0 + (11 - 4)))
END

SUBROUTINE proc302(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 9
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (max(14, la(9)) / (6 + la(10)))
  IF (.NOT. ((9 * v3) .GT. max(0, v1))) THEN
    v0 = (max(v1, -4) - (2 / (4 + la(8))))
    g2 = g1
  ELSE
    DO v0 = 0, 3
      v1 = 3
    ENDDO
  ENDIF
  IF (f1 .LT. (la(3) / (6 + 13)) .OR. abs(v2) .LT. (12 + 14)) THEN
    f1 = (la(5) + (g3 / (6 + 4)))
    g1 = 9
  ELSE
    IF (.NOT. (15 .GT. 0)) f1 = 5
  ENDIF
  la(12) = v2
  PRINT *, 7
  g3 = g1
  DO g0 = 1, 2
    v2 = (abs(1) + (4 + 9))
    g2 = la(6)
  ENDDO
  g2 = v2
  g0 = (la(8) * 7)
  CALL proc303(5)
END

SUBROUTINE proc303(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 8
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = -2
  la(4) = mod(max(-2, v0), 4)
  IF ((0 - la(4)) .EQ. la(5)) g2 = -4
  g2 = (-2 + (9 / (6 + 5)))
  PRINT *, 10
  PRINT *, -5
  CALL proc304((0 + (1 / (4 + -4))), (0 + 7))
END

SUBROUTINE proc304(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (f0 .GT. (g0 - la(10))) g0 = mod(f0, 8)
  f0 = max(la(4), v1)
  la(9) = g2
  la(2) = 7
  v0 = (12 - 2)
  g0 = ((-3 + la(5)) * 6)
  g1 = mod(7, 7)
  g1 = abs(abs(g2))
  v1 = max(7, g2)
  CALL proc305((0 + (g2 / (2 + f1))))
END

SUBROUTINE proc305(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = v1
  la(9) = (la(3) - 6)
  v1 = (la(11) + (1 / (2 + la(5))))
  v1 = g1
  f0 = la(2)
  CALL proc306(4)
END

SUBROUTINE proc306(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = -4
  g3 = 15
  g3 = la(8)
  IF ((11 * 15) .EQ. abs(la(2)) .AND. (la(5) * g0) .GE. g1) THEN
    PRINT *, (max(13, 15) + max(g0, la(8)))
  ELSE
    DO g2 = 2, 2
      g1 = abs(la(1))
      la(8) = max(14, 5)
    ENDDO
    DO f0 = 3, 4
      g0 = mod(7, 8)
    ENDDO
  ENDIF
  CALL proc307((0 + 14), 6)
END

SUBROUTINE proc307(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -2
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = mod(mod(la(5), 7), 3)
  g3 = -3
  PRINT *, (10 + la(10))
  IF (-1 .LT. (10 * -5) .OR. (la(2) / (4 + la(3))) .EQ. mod(g0, 5)) THEN
    v3 = v1
  ENDIF
  la(4) = (12 - (la(9) - -2))
  g1 = (mod(3, 5) * v2)
  DO v3 = 0, 2
    DO g0 = 2, 2
      la(11) = g1
    ENDDO
    la(3) = v3
  ENDDO
  CALL proc308(6)
END

SUBROUTINE proc308(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 8
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = abs(max(v2, la(1)))
  IF (v0 .NE. abs(0) .OR. la(9) .EQ. la(3)) v2 = mod(v2, 5)
  v1 = ((la(5) * f0) / (2 + 3))
  g2 = mod(-5, 4)
  PRINT *, (abs(la(12)) * 4)
  DO g0 = 2, 4
    v0 = (mod(g1, 5) + (11 - v2))
  ENDDO
  g3 = la(6)
  v0 = max(v2, 0)
  CALL proc309(5)
END

SUBROUTINE proc309(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(4) = abs(mod(g2, 7))
  DO f0 = 2, 3
    DO g2 = 0, 4
      g0 = 12
    ENDDO
    v1 = (-3 - g1)
  ENDDO
  CALL proc310(6, v0)
END

SUBROUTINE proc310(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -1
  v2 = 5
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, ((-4 * la(8)) + (la(2) * la(11)))
  PRINT *, ((-1 / (3 + la(11))) - abs(-2))
  g0 = ((g1 * g3) / (5 + la(12)))
  f0 = (v1 - (la(11) + g3))
  v1 = mod((-1 * 6), 3)
  CALL proc311((0 + (-5 - la(7))), f0)
END

SUBROUTINE proc311(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (la(7) .LT. 2) v1 = (1 + la(8))
  g1 = abs(v1)
  v1 = 7
  DO v1 = 1, 3
    v0 = (max(v0, 15) * g1)
    f0 = (la(3) + -5)
  ENDDO
  g2 = mod(abs(la(1)), 6)
  g2 = (0 + 5)
  IF (12 .GE. la(10)) g2 = 8
  CALL proc312((0 + max(la(9), 14)), 11)
END

SUBROUTINE proc312(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -1
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = ((la(9) / (2 + v2)) - (la(11) * 10))
  PRINT *, abs(-2)
  g1 = -4
  g0 = (mod(la(12), 6) / (3 + f0))
  f0 = mod(-2, 2)
  v2 = la(2)
  CALL proc313(5)
END

SUBROUTINE proc313(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v2 = 2, 3
    la(8) = mod(mod(la(1), 6), 3)
    g1 = 8
  ENDDO
  g2 = mod((4 - la(5)), 6)
  DO g1 = 0, 1
    la(10) = 14
    v1 = (max(la(11), -2) - max(la(11), g3))
  ENDDO
  IF (0 .GT. (g1 / (2 + g1)) .AND. f0 .LT. mod(la(10), 3)) g3 = (la(2) + la(10))
  v1 = la(2)
  g2 = v0
  g3 = (2 + (8 * 6))
  v0 = g3
  g1 = la(3)
  CALL proc314(6)
END

SUBROUTINE proc314(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 3
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((la(1) / (5 + g0)) .GT. (6 / (5 + -3)))) v0 = mod(-5, 4)
  IF (abs(f0) .LE. (6 + la(6)) .OR. -1 .EQ. (g3 - v1)) THEN
    g0 = (g3 / (3 + 12))
    g0 = -2
  ENDIF
  g2 = max(la(6), 6)
  IF (13 .EQ. mod(-3, 2)) THEN
    f0 = max(la(9), la(2))
    IF ((13 * la(7)) .NE. 8) v2 = (5 / (2 + v1))
  ELSE
    g1 = -3
  ENDIF
  la(6) = la(12)
  g0 = la(7)
  g0 = mod(abs(4), 7)
  g2 = (v2 * 1)
  g0 = (f0 / (6 + -5))
  CALL proc315(4, f0)
END

SUBROUTINE proc315(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f1 = 2, 3
    g2 = abs(12)
  ENDDO
  DO v0 = 3, 5
    g3 = abs((v1 - 14))
    PRINT *, 2
  ENDDO
  IF (max(3, la(5)) .EQ. la(7)) THEN
    PRINT *, 7
  ENDIF
  f0 = (abs(la(9)) / (4 + la(8)))
  v0 = -5
  la(5) = 5
  IF ((14 / (4 + 9)) .NE. (3 - la(7))) f1 = (7 * la(1))
  g3 = v0
  CALL proc316(2)
END

SUBROUTINE proc316(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO f0 = 0, 0
    g0 = v1
  ENDDO
  PRINT *, 1
  g0 = ((4 / (6 + 8)) + mod(v0, 5))
  PRINT *, 13
  v0 = f0
  g1 = v1
  v1 = mod(g0, 6)
  CALL proc317((f0 + 1))
END

SUBROUTINE proc317(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, la(4)
  IF (g2 .LT. 2) THEN
    v1 = 2
  ENDIF
  IF (v0 .LE. -2 .OR. 10 .GE. max(-5, -1)) THEN
    DO f0 = 1, 2
      v2 = mod(15, 6)
    ENDDO
  ELSE
    f0 = v0
    IF (g0 .EQ. mod(8, 5) .OR. la(3) .NE. 4) THEN
      v2 = 10
    ENDIF
  ENDIF
  v1 = la(2)
  v1 = abs((12 / (6 + 7)))
  CALL proc318((f0 + 1))
END

SUBROUTINE proc318(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 0
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(1) = (-5 * v2)
  DO g2 = 3, 7
    v1 = abs(f0)
    g1 = ((g2 * v2) + 12)
  ENDDO
  CALL proc319(4)
END

SUBROUTINE proc319(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 5
  v2 = 14
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = ((14 * 8) + max(7, 13))
  la(2) = (la(7) * 0)
  v3 = 11
  v0 = la(8)
  CALL proc320(3, v3)
END

SUBROUTINE proc320(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(1) = (la(6) / (2 + la(2)))
  f1 = 15
  PRINT *, v1
  CALL proc321((f0 + 1))
END

SUBROUTINE proc321(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(1)
  CALL proc322((f0 + 1), v1)
END

SUBROUTINE proc322(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = la(6)
  g1 = (la(8) / (5 + -3))
  PRINT *, (la(2) * la(7))
  f0 = 5
  g3 = (mod(15, 5) / (3 + 13))
  v0 = v2
  v0 = abs(abs(-5))
  IF (.NOT. (abs(-3) .EQ. max(4, 1))) g3 = la(5)
  g2 = (3 - max(la(7), 8))
  CALL proc323(4)
END

SUBROUTINE proc323(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(la(11)) .LT. g1 .AND. (la(10) / (5 + 7)) .GT. 5) THEN
    IF (.NOT. (la(9) .LT. (la(12) + 13))) THEN
      g0 = 4
      IF ((la(8) / (5 + la(10))) .EQ. abs(la(2))) g2 = 0
    ENDIF
    PRINT *, 7
  ELSE
    IF (g0 .EQ. g1 .OR. f0 .LT. max(la(5), -2)) v1 = (3 / (6 + la(12)))
  ENDIF
  la(4) = la(2)
  v0 = (la(1) - 14)
  la(4) = la(1)
  PRINT *, (2 * v1)
  la(12) = (-4 * 12)
  g1 = 6
  CALL proc324((0 + g0), (0 + max(-1, la(9))))
END

SUBROUTINE proc324(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -3
  v2 = 5
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(7) = la(8)
  v0 = g1
  IF (6 .GT. 4 .AND. (la(1) / (2 + la(12))) .LT. 13) THEN
    g2 = 3
  ENDIF
  g2 = g1
  v3 = 10
  CALL proc325(5)
END

SUBROUTINE proc325(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 6
  v2 = 7
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = (-2 + v3)
  v2 = (mod(la(4), 7) * g1)
  g3 = 1
  IF (.NOT. (la(12) .GT. 6)) v3 = (11 - -4)
  CALL proc326((0 + 3))
END

SUBROUTINE proc326(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g3 = 1, 5
    PRINT *, -1
    f0 = 5
  ENDDO
  CALL proc327((0 + 2))
END

SUBROUTINE proc327(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = (mod(g1, 5) / (3 + 3))
  la(1) = abs(-4)
  PRINT *, g0
  CALL proc328((f0 + 1), 10)
END

SUBROUTINE proc328(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 4
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(12) = la(3)
  g2 = ((la(4) / (2 + g1)) - -2)
  f0 = ((5 - 9) + (la(12) / (5 + la(8))))
  CALL proc329((0 + 14))
END

SUBROUTINE proc329(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 8
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(9) = 6
  DO v1 = 0, 4
    v0 = abs(la(7))
  ENDDO
  CALL proc330(5)
END

SUBROUTINE proc330(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(3) = -4
  IF (abs(la(10)) .GE. 12 .AND. la(4) .EQ. 15) v1 = (g2 + 6)
  IF (.NOT. (abs(la(3)) .GE. (-1 - la(5)))) THEN
    PRINT *, (abs(g1) - la(9))
  ENDIF
  g0 = la(9)
  f0 = ((la(8) - g1) - la(4))
  g3 = la(5)
  v0 = g0
  g3 = ((14 - -1) * 15)
  g2 = v2
  g1 = ((la(4) / (3 + g0)) / (6 + 13))
  CALL proc331(6)
END

SUBROUTINE proc331(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 7
  v2 = 12
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = v2
  v1 = la(8)
  IF ((15 - 15) .LE. (la(6) + -2) .AND. 14 .NE. (9 * -3)) v1 = 12
  CALL proc332((f0 + 1), 11)
END

SUBROUTINE proc332(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -2
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = (la(8) * v0)
  v3 = la(9)
  IF (.NOT. ((g3 / (5 + la(6))) .GE. (la(2) / (5 + -5)))) THEN
    PRINT *, ((g1 * -3) / (5 + la(9)))
    DO v0 = 3, 5
      g2 = 2
    ENDDO
  ENDIF
  IF ((la(9) * la(8)) .LT. abs(la(2)) .AND. abs(la(11)) .EQ. g2) f0 = -3
  PRINT *, max(2, 6)
  v2 = (abs(7) - 15)
  CALL proc333((0 + 7))
END

SUBROUTINE proc333(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 7
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(4) = abs(v1)
  DO g2 = 2, 3
    g1 = g3
  ENDDO
  PRINT *, 6
  g2 = g2
  g2 = g2
  IF ((v1 - la(7)) .EQ. abs(f0)) v1 = max(10, 15)
  v2 = max(la(10), 8)
  f0 = max(6, v2)
  CALL proc334((0 + g0), (0 + la(12)))
END

SUBROUTINE proc334(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 14
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (8 .LT. (la(2) * -2) .AND. -1 .GE. la(6)) v0 = mod(la(8), 2)
  CALL proc335(7)
END

SUBROUTINE proc335(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = mod((v1 / (2 + v0)), 2)
  la(1) = g3
  la(11) = (max(g2, 12) / (4 + 13))
  CALL proc336(7, (0 + la(3)))
END

SUBROUTINE proc336(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 11
  v2 = 8
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v2 = 1, 5
    v0 = abs((g0 / (6 + la(10))))
  ENDDO
  g0 = mod(f0, 8)
  IF ((v2 + 0) .EQ. 9) THEN
    IF (.NOT. (13 .EQ. 4)) v1 = la(7)
    DO g0 = 3, 4
      la(11) = -3
      g2 = (abs(0) - (f0 - 9))
    ENDDO
  ELSE
    g3 = la(8)
  ENDIF
  v3 = ((v3 / (3 + la(11))) / (3 + la(2)))
  g0 = 12
  IF (g2 .EQ. (-1 / (6 + v2))) f1 = la(9)
  f1 = max(0, g0)
  v0 = (g0 + mod(8, 5))
  g0 = abs((2 + 9))
  la(12) = g3
  CALL proc337((f0 + 1), 7)
END

SUBROUTINE proc337(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = 2
  IF (.NOT. (max(12, 13) .LT. abs(g0))) THEN
    IF (g1 .NE. 8 .OR. (la(8) / (2 + la(3))) .LT. la(4)) g3 = 8
  ENDIF
  DO g1 = 2, 2
    IF (.NOT. (la(12) .LE. mod(g2, 7))) f1 = 13
    la(3) = abs(11)
  ENDDO
  IF (max(7, v0) .GT. max(10, 8)) g1 = 6
  CALL proc338((0 + g1), v0)
END

SUBROUTINE proc338(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (10 .EQ. (-5 * la(1))) f0 = v1
  f0 = 8
  DO f0 = 3, 5
    v0 = ((la(10) * la(1)) * la(3))
  ENDDO
  la(10) = 11
  la(10) = (abs(la(4)) + v1)
  IF (abs(1) .EQ. 6) v2 = g1
  f1 = (la(1) + mod(v1, 7))
  f0 = 9
  g0 = -2
  CALL proc339((f0 + 1))
END

SUBROUTINE proc339(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 6
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((12 - g1) .EQ. mod(g2, 2) .OR. la(7) .LT. max(-4, la(10))) THEN
    g2 = (la(12) + 14)
  ENDIF
  g2 = 3
  DO v2 = 3, 5
    v1 = la(10)
    IF (v0 .LE. (9 * 5) .AND. (5 + 3) .LE. 6) g0 = -1
  ENDDO
  IF ((v0 - -1) .EQ. max(-1, la(2))) v1 = la(6)
  CALL proc340((f0 + 1), v0)
END

SUBROUTINE proc340(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 0
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = max(la(9), la(12))
  v1 = ((8 / (6 + g2)) * la(6))
  la(11) = (mod(v2, 7) / (4 + la(5)))
  g3 = mod(9, 7)
  g1 = -4
  DO g3 = 2, 3
    v0 = mod(7, 5)
    IF (.NOT. (7 .LE. g1)) v2 = (la(5) * la(10))
  ENDDO
  DO g3 = 3, 6
    IF (12 .LE. (la(3) + 7)) THEN
      la(11) = (mod(g2, 5) - la(9))
      v1 = (-4 - (g1 + 4))
    ELSE
      g2 = 7
      g0 = 13
    ENDIF
  ENDDO
  CALL proc341(4)
END

SUBROUTINE proc341(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = 3
  g1 = v0
  PRINT *, 0
  PRINT *, 0
  IF (la(5) .GT. (g2 / (2 + g3))) THEN
    IF (.NOT. (la(4) .EQ. abs(la(6)))) THEN
      g1 = abs(max(g2, v0))
    ENDIF
  ELSE
    la(2) = g0
    PRINT *, (mod(-5, 8) / (6 + 8))
  ENDIF
  PRINT *, (mod(la(2), 2) + -3)
  CALL proc342((f0 + 1), v1)
END

SUBROUTINE proc342(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 2
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(3) .LE. 12 .OR. (la(4) / (4 + la(8))) .EQ. g0) v1 = abs(-1)
  PRINT *, abs((1 - 6))
  IF ((-4 + f0) .GE. la(5)) v0 = max(v1, la(3))
  v0 = abs(f1)
  g3 = (abs(la(1)) * 8)
  v1 = (5 * g3)
  v2 = 7
  CALL proc343((f0 + 1))
END

SUBROUTINE proc343(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((v2 + la(2)) .LT. (v2 - 3)) g2 = -2
  DO f0 = 3, 6
    IF (la(7) .LE. 4 .AND. 1 .NE. v2) g2 = abs(g3)
    IF (abs(la(1)) .GE. max(la(3), la(8)) .OR. abs(la(7)) .LT. abs(g0)) THEN
      g2 = (mod(8, 2) / (6 + la(1)))
      PRINT *, la(6)
    ELSE
      g2 = la(2)
    ENDIF
  ENDDO
  DO g3 = 0, 0
    f0 = 10
    PRINT *, la(7)
  ENDDO
  IF (.NOT. (mod(10, 4) .LT. v0)) THEN
    PRINT *, (max(9, -5) - max(15, 2))
  ENDIF
  g2 = abs(v2)
  CALL proc344(4, v0)
END

SUBROUTINE proc344(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = max(g1, g0)
  CALL proc345(3)
END

SUBROUTINE proc345(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 1, 2
    v1 = g0
  ENDDO
  CALL proc346((f0 + 1))
END

SUBROUTINE proc346(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 2
  v2 = 9
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, ((g1 - la(12)) / (6 + -3))
  g0 = mod(0, 6)
  DO f0 = 1, 5
    DO g3 = 0, 0
      la(6) = la(9)
    ENDDO
    g2 = 0
  ENDDO
  IF (mod(7, 4) .GT. abs(la(8))) g0 = la(6)
  IF (.NOT. (la(11) .GE. 3)) THEN
    la(8) = 1
  ELSE
    v2 = v0
  ENDIF
  DO v1 = 0, 3
    PRINT *, la(4)
    g2 = 2
  ENDDO
  IF ((10 - -3) .LT. -2) v2 = 15
  CALL proc347(4)
END

SUBROUTINE proc347(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 5
  v2 = 7
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(5) = (max(la(8), -4) * -3)
  g3 = ((la(8) / (5 + v0)) - 12)
  PRINT *, 2
  IF (12 .GE. 0 .AND. mod(6, 5) .LT. (3 * la(4))) f0 = abs(v2)
  CALL proc348(6, 7)
END

SUBROUTINE proc348(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = g3
  g2 = g1
  IF ((la(11) / (3 + g1)) .LT. 2 .AND. mod(f1, 2) .NE. g2) THEN
    la(1) = la(8)
    g0 = max(-4, 11)
  ENDIF
  f0 = f1
  f0 = (max(la(7), 15) + 1)
  CALL proc349(4)
END

SUBROUTINE proc349(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 11
  v2 = -4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (v0 .NE. 1) g2 = 8
  IF (2 .GE. (13 * v1) .OR. la(2) .NE. 13) v2 = g2
  v2 = (4 + max(la(9), -5))
  IF ((-2 + 10) .NE. 12) g1 = (la(11) - 7)
  la(8) = (mod(3, 5) / (3 + 6))
  IF (.NOT. (abs(15) .LT. abs(4))) g3 = (g1 * g0)
  DO v0 = 1, 2
    la(12) = g2
  ENDDO
  g1 = 15
  DO g3 = 2, 3
    v0 = max(f0, 7)
    IF (v2 .GT. abs(6) .OR. la(10) .LT. 12) v2 = (g2 / (4 + la(11)))
  ENDDO
  DO v1 = 0, 0
    IF (abs(g2) .EQ. (6 + la(10)) .OR. 4 .EQ. 4) THEN
      v0 = 5
      v3 = la(11)
    ENDIF
  ENDDO
  CALL proc350((0 + mod(5, 5)), 4)
END

SUBROUTINE proc350(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = abs((15 - g2))
  IF (13 .EQ. (8 / (5 + 6)) .OR. 2 .GE. -4) f0 = la(10)
  f0 = 9
  PRINT *, (mod(-4, 6) * la(3))
  IF (.NOT. ((7 * la(8)) .GE. g2)) THEN
    IF (f0 .GE. (8 * la(9))) v0 = g0
    la(11) = g2
  ENDIF
  v1 = la(7)
  IF ((la(3) / (5 + la(12))) .NE. (la(8) + 8) .AND. mod(10, 6) .LT. la(2)) THEN
    IF (.NOT. ((4 + la(2)) .LT. max(4, v0))) g0 = 6
    IF (13 .GE. (v1 / (5 + la(2))) .AND. 13 .LE. max(3, g2)) v0 = (-5 * 2)
  ENDIF
  v1 = (la(7) + la(6))
  v1 = 15
  CALL proc351(4)
END

SUBROUTINE proc351(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(8) = abs(1)
  g0 = abs(mod(la(1), 8))
  v0 = -1
  g0 = 15
  la(4) = abs((0 + 15))
  g1 = la(12)
  v1 = -1
  la(8) = 0
  IF (.NOT. (g3 .LT. 6)) THEN
    g0 = g0
  ELSE
    la(4) = (1 * la(5))
    IF (-2 .LT. -3 .OR. abs(la(11)) .GE. la(7)) v0 = (f0 / (2 + g1))
  ENDIF
  g3 = (g0 - 11)
  CALL proc352(6, -1)
END

SUBROUTINE proc352(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = 4
  g3 = 5
  IF (.NOT. (-5 .EQ. (7 / (4 + 15)))) f0 = f1
  IF (11 .GE. -3 .AND. 10 .EQ. (1 + 1)) THEN
    PRINT *, la(5)
  ENDIF
  CALL proc353(7, (0 + 12))
END

SUBROUTINE proc353(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (4 .GE. v1)) THEN
    g2 = -1
  ENDIF
  g0 = g3
  v0 = (13 / (6 + 9))
  CALL proc354((f0 + 1), f1)
END

SUBROUTINE proc354(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(3) = g1
  g0 = v0
  IF (la(1) .NE. (1 - 9) .OR. abs(g1) .NE. v1) THEN
    PRINT *, 1
    PRINT *, (max(8, la(7)) * la(10))
  ENDIF
  DO v1 = 1, 4
    PRINT *, (-5 + (la(12) - -2))
    la(10) = la(2)
  ENDDO
  v1 = max(4, 6)
  CALL proc355(3)
END

SUBROUTINE proc355(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, max(g3, 13)
  v0 = la(7)
  IF (.NOT. (g0 .GE. (15 * -5))) g2 = (la(12) / (2 + f0))
  g0 = v1
  g3 = 5
  PRINT *, mod(max(13, -2), 7)
  IF (-2 .GE. (la(12) * la(9)) .AND. -3 .GE. mod(v1, 5)) THEN
    v1 = f0
    v0 = -1
  ELSE
    DO g3 = 1, 1
      g1 = f0
    ENDDO
  ENDIF
  g1 = g2
  CALL proc356((f0 + 1), f0)
END

SUBROUTINE proc356(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = 2
  f1 = abs(mod(v1, 4))
  f0 = (-4 - la(10))
  f1 = 14
  CALL proc357(3, 3)
END

SUBROUTINE proc357(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -4
  v2 = 1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, -2
  v1 = (-2 - 1)
  v3 = (g1 - g3)
  IF (.NOT. ((v2 * 11) .LT. (6 * -4))) g0 = (la(4) * 2)
  v1 = (-3 - (g0 / (6 + la(10))))
  DO f0 = 3, 7
    la(2) = la(11)
    v1 = la(11)
  ENDDO
  g1 = v1
  IF (3 .LE. la(7) .AND. la(9) .LT. la(6)) f0 = (3 - v2)
  CALL proc358(6, -1)
END

SUBROUTINE proc358(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 15
  v1 = la(2)
  PRINT *, ((f1 - 14) / (3 + 0))
  v2 = 9
  v2 = f1
  DO g1 = 0, 4
    v0 = mod(abs(1), 5)
  ENDDO
  f1 = (15 / (5 + 9))
  CALL proc359(4, (0 + 9))
END

SUBROUTINE proc359(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = ((3 + 3) * -1)
  g1 = 8
  la(9) = -5
  la(10) = la(12)
  g1 = 8
  DO g0 = 1, 2
    g3 = g2
    IF (.NOT. (3 .NE. g0)) THEN
      v0 = -5
    ENDIF
  ENDDO
  g2 = la(7)
  CALL proc360((0 + (la(7) - 0)), (0 + la(1)))
END

SUBROUTINE proc360(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = la(11)
  PRINT *, la(10)
  DO f0 = 0, 0
    g0 = la(1)
    v1 = abs(5)
  ENDDO
  g0 = 4
  la(1) = g0
  la(4) = -2
  IF (5 .EQ. v0 .OR. 7 .EQ. (4 - la(6))) THEN
    la(8) = (11 / (2 + -5))
  ELSE
    g1 = la(3)
    PRINT *, -5
  ENDIF
  g1 = v0
  PRINT *, v0
  CALL proc361((f0 + 1))
END

SUBROUTINE proc361(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (5 * g0)
  la(6) = abs(mod(la(2), 7))
  DO v0 = 0, 0
    g1 = 2
    g3 = (-1 + (9 * 5))
  ENDDO
  PRINT *, (-3 + la(10))
  DO v1 = 3, 3
    IF (.NOT. (la(11) .EQ. 12)) v0 = max(la(1), la(1))
    f0 = (8 * la(12))
  ENDDO
  v0 = g2
  IF ((-2 + 7) .LT. v1 .OR. la(3) .GT. (la(10) + g3)) THEN
    g1 = (5 * v0)
  ENDIF
  la(8) = la(1)
  CALL proc362((f0 + 1))
END

SUBROUTINE proc362(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -3
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g2 = 1, 1
    la(10) = g1
  ENDDO
  v2 = 7
  CALL proc363(3, v1)
END

SUBROUTINE proc363(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 11
  v2 = 1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v3 = 7
  IF (la(7) .NE. v1) THEN
    IF ((g3 - la(4)) .GT. (4 - v1) .OR. 13 .GT. mod(la(2), 7)) THEN
      PRINT *, f1
    ENDIF
  ENDIF
  v3 = ((f0 / (6 + v3)) / (4 + la(2)))
  v0 = ((5 - v2) / (2 + 6))
  CALL proc364(5)
END

SUBROUTINE proc364(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(4)
  v1 = ((la(1) * la(8)) + la(6))
  f0 = max(la(1), g2)
  IF (g2 .NE. (la(6) - 1) .OR. v0 .LT. (3 + 8)) THEN
    IF (.NOT. (-2 .GE. abs(0))) f0 = g2
  ELSE
    la(6) = 9
    v1 = 3
  ENDIF
  g2 = (5 * -3)
  CALL proc365((0 + mod(la(6), 6)))
END

SUBROUTINE proc365(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((-2 / (3 + la(6))) .LT. 8 .AND. abs(v0) .GE. la(12)) THEN
    v0 = la(4)
    v2 = abs(mod(g3, 6))
  ENDIF
  g2 = la(2)
  g3 = g0
  la(4) = la(8)
  IF (g1 .EQ. mod(la(9), 8) .OR. (8 - v0) .GT. (g0 / (2 + la(1)))) g3 = g3
  g3 = la(8)
  IF (-1 .NE. max(-4, 5) .AND. mod(7, 7) .LE. 10) f0 = abs(la(2))
  v0 = (mod(g3, 7) + mod(6, 6))
  v1 = ((la(11) - 2) * v2)
  CALL proc366((0 + max(11, g0)), v0)
END

SUBROUTINE proc366(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 1
  v2 = 3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 4
  g2 = la(12)
  g2 = abs(-1)
  v3 = -2
  CALL proc367(7)
END

SUBROUTINE proc367(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = -1
  CALL proc368(2)
END

SUBROUTINE proc368(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = -4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(7) / (5 + -3)) .GT. abs(la(1)) .AND. (v0 - la(12)) .EQ. 7) v2 = (v3 * -1)
  g0 = 8
  v0 = 12
  CALL proc369((0 + abs(v1)))
END

SUBROUTINE proc369(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 5
  v2 = 1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = 1
  IF ((f0 / (2 + v1)) .LE. (10 - v2) .AND. mod(v0, 4) .GE. v2) THEN
    v0 = 10
    g1 = (g2 * la(7))
  ELSE
    PRINT *, 7
    la(9) = (-5 - 0)
  ENDIF
  g1 = mod(abs(f0), 4)
  IF (.NOT. (abs(la(6)) .LE. (g0 * la(5)))) v3 = g0
  IF (abs(10) .GE. (2 / (6 + v2))) THEN
    v0 = (abs(la(8)) / (2 + g0))
    v3 = v3
  ELSE
    la(4) = ((v1 / (3 + la(5))) + abs(la(3)))
  ENDIF
  CALL proc370(5, (0 + (6 * g2)))
END

SUBROUTINE proc370(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 14
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = g0
  la(1) = abs(abs(12))
  IF ((-1 * 3) .GT. max(v2, 3) .AND. la(2) .LE. (0 + g1)) v2 = -1
  f1 = g2
  PRINT *, -5
  g3 = ((6 / (5 + 5)) - 11)
  DO g0 = 0, 3
    v0 = (12 + mod(11, 2))
  ENDDO
  CALL proc371(7)
END

SUBROUTINE proc371(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (abs(la(7)) .GE. la(5))) THEN
    v1 = mod(8, 7)
  ENDIF
  PRINT *, ((la(2) * 13) + (g2 * 10))
  PRINT *, 15
  CALL proc372((f0 + 1), f0)
END

SUBROUTINE proc372(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 9
  v2 = 13
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (-2 .GE. (la(11) - 6) .AND. 6 .GE. la(3)) THEN
    PRINT *, 13
    IF (.NOT. (mod(la(4), 4) .LE. (7 - v2))) v1 = -1
  ELSE
    g3 = ((v2 + la(12)) / (4 + la(10)))
    f1 = mod((9 - la(10)), 6)
  ENDIF
  IF (abs(la(9)) .LE. g0 .AND. mod(f1, 3) .LT. (la(9) + 7)) THEN
    f1 = max(la(2), g1)
    DO g3 = 0, 2
      v0 = (abs(la(11)) + mod(6, 7))
    ENDDO
  ENDIF
  CALL proc373(5, -3)
END

SUBROUTINE proc373(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 2, 2
    g1 = (la(5) - 10)
  ENDDO
  CALL proc374(2, f1)
END

SUBROUTINE proc374(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 7
  v2 = 11
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = la(2)
  g1 = (mod(la(3), 7) + la(8))
  CALL proc375(3, 8)
END

SUBROUTINE proc375(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 6
  v2 = -4
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 7
  v3 = la(8)
  g3 = 6
  DO v1 = 0, 3
    IF (.NOT. ((-5 + 7) .GT. 0)) g1 = (la(2) - f0)
    v3 = 10
  ENDDO
  g3 = max(-2, g2)
  g0 = f0
  CALL proc376((0 + (la(7) / (2 + la(3)))))
END

SUBROUTINE proc376(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 2
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = -1
  v2 = mod((1 * 6), 4)
  g0 = v1
  v2 = la(9)
  IF (max(g2, v0) .EQ. abs(8) .AND. mod(5, 2) .EQ. max(5, la(5))) THEN
    la(11) = 6
  ELSE
    IF (abs(la(3)) .LE. 10 .AND. 15 .NE. (g0 - v0)) THEN
      v2 = (la(7) / (5 + g3))
    ELSE
      g3 = la(4)
      g2 = (v1 + (la(12) + -5))
    ENDIF
    DO g2 = 0, 4
      g1 = mod(9, 2)
    ENDDO
  ENDIF
  PRINT *, mod(6, 3)
  g2 = ((-2 - g0) / (3 + -2))
  PRINT *, 2
  g3 = max(0, -5)
  g3 = (6 * -5)
  CALL proc377((0 + (g0 - f0)), 2)
END

SUBROUTINE proc377(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (7 * 8)
  IF (-3 .GT. (8 - 1) .OR. mod(f0, 7) .GT. la(9)) f0 = (g2 * la(9))
  v0 = (max(2, la(7)) * -2)
  CALL proc378(6)
END

SUBROUTINE proc378(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 10
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (abs(2) .LT. (-1 + -4)) v0 = 2
  v0 = g2
  g1 = 2
  g0 = max(5, 1)
  la(11) = 9
  IF (-4 .EQ. 14 .OR. g0 .GT. mod(-3, 8)) THEN
    PRINT *, ((v2 + 13) / (4 + -1))
    g0 = v2
  ENDIF
  IF (abs(9) .GE. (g2 * -4) .AND. la(2) .LE. 10) THEN
    v0 = 9
  ENDIF
  IF (8 .GE. -4 .AND. (0 / (4 + 14)) .NE. mod(la(3), 4)) v1 = (la(3) / (6 + -2))
  CALL proc379(3)
END

SUBROUTINE proc379(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (la(7) .GE. (6 - g3))) THEN
    g2 = max(5, g3)
  ENDIF
  PRINT *, f0
  v0 = (la(12) + la(4))
  IF (11 .LT. (-1 * -1)) THEN
    IF (13 .NE. 13 .OR. 2 .EQ. max(la(9), -2)) THEN
      PRINT *, ((g0 * -1) + la(11))
      IF (la(11) .GT. (g2 + 13) .OR. -5 .LT. -1) v1 = max(la(9), 1)
    ENDIF
  ELSE
    DO v1 = 1, 5
      la(6) = abs(la(2))
      g3 = 4
    ENDDO
    g3 = v1
  ENDIF
  g3 = (abs(g3) + 10)
  DO g2 = 3, 6
    g1 = la(11)
    g3 = la(8)
  ENDDO
  DO g0 = 3, 3
    v1 = (-5 - 12)
  ENDDO
  f0 = abs(mod(la(8), 8))
  PRINT *, abs(11)
  la(9) = -1
  CALL proc380((f0 + 1))
END

SUBROUTINE proc380(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 7
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, abs(abs(10))
  v0 = la(5)
  v0 = la(10)
  g0 = max(v1, g2)
  CALL proc381(4)
END

SUBROUTINE proc381(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 2
  IF (.NOT. ((-2 / (2 + 4)) .EQ. la(10))) g2 = abs(la(11))
  g2 = 8
  v1 = mod(-4, 7)
  f0 = la(3)
  v0 = (g3 - 2)
  g3 = la(1)
  g2 = (-1 + -3)
  v0 = ((-1 / (3 + g3)) - 6)
  g1 = la(11)
  CALL proc382((f0 + 1), f0)
END

SUBROUTINE proc382(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = ((g0 * 9) - (-5 / (3 + la(9))))
  v0 = (la(4) - mod(f0, 4))
  IF (.NOT. (abs(-4) .NE. (g1 / (4 + la(11))))) g0 = 5
  PRINT *, mod((la(7) - 1), 3)
  CALL proc383((0 + abs(5)))
END

SUBROUTINE proc383(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = ((v1 / (4 + la(10))) / (3 + 15))
  CALL proc384(2, v1)
END

SUBROUTINE proc384(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 1
  PRINT *, 11
  IF (6 .GT. (la(4) / (3 + la(3))) .OR. v0 .GT. mod(g3, 5)) g3 = 6
  v0 = 14
  CALL proc385(6, (0 + (f0 + 4)))
END

SUBROUTINE proc385(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 14
  v2 = 4
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = 13
  IF (3 .EQ. mod(la(10), 8) .AND. (v3 + la(12)) .NE. 12) THEN
    DO v0 = 0, 3
      PRINT *, la(9)
    ENDDO
  ELSE
    g1 = (max(v2, 14) * 9)
  ENDIF
  v0 = mod(abs(g2), 5)
  v0 = mod(15, 5)
  PRINT *, (max(la(8), 10) - (-1 / (5 + la(9))))
  CALL proc386((f0 + 1), 1)
END

SUBROUTINE proc386(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 2, 2
    g0 = abs(la(1))
    IF ((14 * la(3)) .GE. (f0 / (5 + 9)) .AND. mod(11, 4) .GE. 12) THEN
      v1 = (max(6, f0) - 5)
      IF ((la(6) + la(9)) .EQ. -3 .AND. max(4, 3) .NE. abs(la(8))) f1 = la(4)
    ENDIF
  ENDDO
  IF (max(13, 13) .EQ. 11) g1 = 9
  IF (mod(la(8), 2) .LT. mod(10, 4) .OR. (la(7) - f1) .GE. 1) THEN
    IF (abs(g2) .LE. (11 / (2 + 5)) .OR. (15 - v0) .GT. (10 * la(1))) g3 = g3
  ENDIF
  DO f1 = 2, 5
    DO f0 = 0, 4
      g3 = abs(mod(2, 4))
      g0 = v1
    ENDDO
    IF (mod(la(11), 5) .LT. max(-4, -5) .OR. max(la(2), la(11)) .GE. g0) THEN
      v1 = la(2)
      g2 = mod((la(2) + la(2)), 7)
    ENDIF
  ENDDO
  IF ((-4 + 15) .GE. max(1, la(7)) .AND. max(8, la(8)) .GE. v1) THEN
    g0 = la(6)
    g2 = ((-4 / (2 + la(11))) - v0)
  ELSE
    v0 = mod(-1, 2)
  ENDIF
  PRINT *, ((la(5) * 3) + (1 * 0))
  g1 = -4
  IF (g2 .LT. -3) THEN
    v0 = 10
  ENDIF
  CALL proc387((f0 + 1))
END

SUBROUTINE proc387(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = la(5)
  PRINT *, la(6)
  v0 = mod(abs(-3), 2)
  g3 = (3 * f0)
  v0 = (1 + (la(8) + 10))
  v1 = g3
  DO g2 = 2, 2
    IF ((3 + 6) .LT. mod(-2, 3) .AND. mod(-3, 2) .LE. abs(-5)) THEN
      v1 = mod(la(11), 5)
      IF (.NOT. (abs(v1) .EQ. 1)) g0 = (14 - g0)
    ENDIF
    v1 = la(1)
  ENDDO
  la(1) = max(la(9), 1)
  CALL proc388(7, f0)
END

SUBROUTINE proc388(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 14
  v2 = -2
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(12) .NE. (-4 - f0) .AND. la(11) .GT. abs(la(4))) v0 = 6
  g0 = la(12)
  g1 = mod((g0 - 9), 4)
  la(7) = ((15 / (5 + f1)) - la(1))
  v2 = (-5 + (15 - la(12)))
  v2 = abs(12)
  g1 = ((5 + 3) / (6 + la(3)))
  g2 = 15
  f0 = ((-1 - 5) + (la(10) - 11))
  CALL proc389((0 + (la(1) - v0)), (0 + abs(-1)))
END

SUBROUTINE proc389(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 4
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = f1
  v0 = mod(1, 6)
  DO g1 = 0, 4
    f0 = -1
  ENDDO
  IF ((g2 * la(9)) .GT. abs(3) .AND. mod(g3, 3) .LE. 9) g2 = la(9)
  g0 = max(v2, -3)
  DO g0 = 1, 2
    la(5) = 2
    IF (-2 .LT. mod(la(12), 8) .AND. mod(6, 7) .GE. (3 / (2 + -2))) THEN
      la(7) = (0 + (-5 - v1))
      v2 = 12
    ENDIF
  ENDDO
  CALL proc390((f0 + 1))
END

SUBROUTINE proc390(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -3
  v2 = 5
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(12) = (-5 / (6 + 13))
  g3 = (-1 * 15)
  f0 = max(3, la(8))
  v1 = 8
  CALL proc391((f0 + 1), 2)
END

SUBROUTINE proc391(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 5
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (max(v0, 12) .NE. (-4 + f0) .OR. 6 .GT. (6 + 9)) v2 = la(8)
  f0 = ((v0 + 13) + 14)
  CALL proc392(5)
END

SUBROUTINE proc392(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 4
  v2 = 13
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (max(15, la(1)) .LE. abs(8))) g0 = mod(-4, 7)
  g3 = -3
  IF (la(8) .GE. (v2 * 13) .OR. (la(11) * 13) .GT. (la(2) / (2 + 1))) g1 = la(5)
  DO g2 = 1, 1
    la(2) = la(1)
    g3 = 14
  ENDDO
  v2 = mod(la(12), 6)
  v3 = 9
  v1 = abs(10)
  PRINT *, (abs(-4) + 6)
  DO f0 = 0, 0
    IF ((v2 + la(3)) .GT. (f0 / (4 + g0))) THEN
      v2 = 12
    ELSE
      la(10) = 12
    ENDIF
    v3 = 7
  ENDDO
  CALL proc393(6)
END

SUBROUTINE proc393(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = (g1 + abs(-2))
  CALL proc394((f0 + 1))
END

SUBROUTINE proc394(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 11
  v2 = -3
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = la(7)
  CALL proc395(4)
END

SUBROUTINE proc395(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -4
  v2 = 13
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = v2
  g2 = max(10, 13)
  PRINT *, g3
  IF ((-3 - g2) .GE. v3 .AND. (-2 * -2) .NE. (v1 * 9)) v0 = (la(7) / (4 + g3))
  v1 = (mod(-4, 2) * 7)
  g2 = mod((9 * v3), 2)
  v2 = mod((la(4) - 5), 6)
  CALL proc396((f0 + 1), -2)
END

SUBROUTINE proc396(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = (mod(g3, 4) + la(3))
  g3 = la(12)
  la(1) = (g3 / (2 + g0))
  f0 = abs(la(1))
  DO v0 = 0, 2
    f1 = ((la(6) / (6 + g2)) * 10)
    PRINT *, la(4)
  ENDDO
  v0 = la(11)
  IF (mod(g3, 2) .NE. (-3 - 1) .AND. g1 .LE. v1) v0 = 1
  CALL proc397(4)
END

SUBROUTINE proc397(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = ((-2 + g3) - v2)
  IF ((la(1) - 14) .LT. max(f0, 2) .AND. 5 .EQ. la(12)) THEN
    IF (-5 .LE. (la(5) - g3)) v0 = la(7)
    DO v2 = 2, 2
      PRINT *, la(8)
      v0 = v0
    ENDDO
  ENDIF
  IF (abs(la(7)) .NE. (la(6) * 13)) g1 = mod(-1, 7)
  g3 = mod(la(5), 3)
  g3 = la(5)
  f0 = 1
  DO v0 = 1, 2
    g3 = -3
    g3 = mod(v1, 6)
  ENDDO
  g1 = (abs(g0) - 14)
  g0 = 1
  CALL proc398((0 + 4), -1)
END

SUBROUTINE proc398(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, abs((8 + 2))
  IF (.NOT. (max(5, la(8)) .EQ. (la(9) + -1))) f0 = abs(3)
  IF (max(g1, la(1)) .LE. 15) v0 = mod(v2, 3)
  g1 = 11
  f1 = g0
  f1 = la(10)
  IF (11 .EQ. mod(12, 2) .OR. (13 - v1) .GE. f0) THEN
    IF ((13 / (2 + la(8))) .NE. (12 / (5 + la(7))) .OR. la(10) .LT. abs(6)) THEN
      g2 = max(f0, 14)
      f1 = (mod(la(1), 5) - -1)
    ENDIF
  ELSE
    IF (max(g2, 3) .GE. 9 .OR. max(f0, g3) .NE. -1) THEN
      IF ((f1 + f0) .NE. (0 - v0)) f0 = (g1 + 9)
      PRINT *, max(1, 0)
    ELSE
      g3 = ((9 / (3 + 5)) - -1)
      f0 = 4
    ENDIF
    g2 = (max(11, -5) - 15)
  ENDIF
  f0 = max(la(4), g1)
  DO v0 = 3, 5
    v2 = ((2 - -5) - 14)
  ENDDO
  v1 = max(la(12), f1)
  CALL proc399(4)
END

SUBROUTINE proc399(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 2
  v2 = 8
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v3 = 1, 1
    v2 = v1
  ENDDO
  v1 = ((la(8) + 0) / (5 + -3))
  g3 = max(13, la(10))
  g1 = (la(3) + abs(-2))
  v3 = max(2, la(7))
  v3 = la(11)
  v3 = (v1 - g3)
  CALL proc400((0 + max(f0, -5)), 10)
END

SUBROUTINE proc400(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = max(11, v0)
  CALL proc401(4)
END

SUBROUTINE proc401(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 5
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(10) .GT. v2 .AND. 2 .NE. (f0 - 5)) THEN
    PRINT *, mod((la(2) * 11), 3)
    IF (.NOT. ((la(7) + la(9)) .EQ. v1)) g3 = g1
  ELSE
    DO v1 = 3, 4
      v0 = (mod(0, 6) - v1)
      v2 = g1
    ENDDO
  ENDIF
  IF (la(7) .GT. (-1 - 11) .OR. (la(3) + f0) .LT. -5) THEN
    DO v0 = 1, 5
      f0 = 2
      g2 = (g0 * la(1))
    ENDDO
  ELSE
    IF ((7 * -5) .NE. (7 * la(7))) THEN
      g3 = (14 + (v0 * v2))
    ENDIF
  ENDIF
  g2 = -5
  PRINT *, 12
  v0 = max(-3, la(2))
  g0 = ((3 - la(9)) * la(7))
  PRINT *, ((5 + la(2)) + mod(-2, 8))
  la(10) = la(9)
  v2 = mod(5, 7)
  v1 = 9
  CALL proc402(5)
END

SUBROUTINE proc402(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 7
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = la(2)
  g3 = 6
  DO v1 = 2, 6
    g3 = (5 / (5 + g2))
  ENDDO
  DO v2 = 0, 1
    IF (.NOT. (max(v0, 12) .GT. v0)) THEN
      g3 = 15
    ENDIF
    PRINT *, 13
  ENDDO
  g0 = mod(la(11), 2)
  PRINT *, g0
  IF (g1 .LT. mod(14, 3) .AND. g2 .EQ. max(-3, 4)) v1 = la(3)
  DO v2 = 3, 5
    IF (max(v1, f0) .EQ. (g3 * -3)) THEN
      PRINT *, g2
    ELSE
      PRINT *, la(8)
      g1 = -4
    ENDIF
  ENDDO
  IF (14 .NE. max(-1, -3)) THEN
    DO v1 = 1, 3
      g1 = 15
    ENDDO
  ELSE
    v0 = g3
  ENDIF
  g0 = max(12, 11)
  CALL proc403((0 + (f0 + v1)), -2)
END

SUBROUTINE proc403(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 4
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = la(10)
  v3 = la(4)
  la(7) = la(5)
  v2 = (13 / (4 + 3))
  g1 = 8
  IF (.NOT. (abs(11) .LE. v2)) THEN
    f1 = la(11)
  ENDIF
  PRINT *, max(-1, la(7))
  CALL proc404(7, (0 + la(11)))
END

SUBROUTINE proc404(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 3
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 1, 3
    DO f0 = 3, 6
      g2 = 14
    ENDDO
    g0 = max(la(5), 6)
  ENDDO
  g2 = abs((-4 / (5 + la(4))))
  la(9) = -3
  DO g0 = 2, 5
    g1 = v1
  ENDDO
  DO v1 = 0, 2
    v0 = f0
  ENDDO
  DO f1 = 2, 3
    v1 = ((11 * 0) / (6 + f1))
    la(7) = mod(abs(-4), 7)
  ENDDO
  g2 = la(5)
  g1 = la(5)
  CALL proc405(4, f0)
END

SUBROUTINE proc405(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g2 = 3, 7
    IF ((g1 - 6) .GT. 3 .OR. (g1 - 14) .LE. 5) g3 = 3
    f0 = ((g3 - la(12)) * 11)
  ENDDO
  IF (.NOT. ((12 - -3) .GT. mod(v2, 4))) THEN
    f0 = max(v2, la(1))
  ENDIF
  DO f1 = 3, 7
    v1 = 7
    g2 = (-3 * -3)
  ENDDO
  PRINT *, -2
  v0 = 11
  PRINT *, ((la(3) / (3 + 8)) * g3)
  PRINT *, abs(abs(f0))
  DO g2 = 2, 5
    v0 = (-2 * 8)
    PRINT *, (max(15, -1) / (3 + la(3)))
  ENDDO
  CALL proc406(6, v2)
END

SUBROUTINE proc406(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = v1
  f1 = la(11)
  IF (g1 .GT. 13 .OR. max(la(5), 11) .EQ. (13 + -5)) f1 = abs(3)
  f1 = 1
  IF (.NOT. (abs(g0) .GT. (-2 + la(12)))) THEN
    g0 = (max(-1, g0) + la(6))
  ENDIF
  CALL proc407((f0 + 1))
END

SUBROUTINE proc407(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 12
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v0 = 1, 5
    IF (-1 .GT. g1) THEN
      v2 = (la(2) * -1)
    ENDIF
    IF (.NOT. (la(4) .LT. 13)) f0 = -5
  ENDDO
  IF (1 .NE. (15 - 6)) g2 = g1
  v2 = mod(mod(-5, 5), 5)
  PRINT *, la(7)
  g0 = la(7)
  CALL proc408(4)
END

SUBROUTINE proc408(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(11) = ((g2 * g0) * 13)
  g3 = ((v1 * la(11)) + la(11))
  PRINT *, (-5 * la(8))
  IF (.NOT. (2 .LT. la(10))) THEN
    v0 = (la(8) + (g2 - la(8)))
    PRINT *, 14
  ELSE
    PRINT *, la(8)
  ENDIF
  CALL proc409(4)
END

SUBROUTINE proc409(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (2 .LT. (la(8) / (6 + f0))) g2 = abs(g0)
  IF (.NOT. (3 .GE. 9)) g2 = (7 * la(8))
  v1 = la(3)
  g1 = 9
  la(7) = g0
  la(9) = (v0 - g0)
  g0 = (1 / (6 + 5))
  g1 = ((-2 - g2) + g3)
  g0 = la(11)
  CALL proc410((0 + abs(1)), v1)
END

SUBROUTINE proc410(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 4
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 13
  g0 = max(5, g0)
  IF (.NOT. (abs(f0) .NE. (la(2) - v2))) g1 = (2 + 14)
  CALL proc411(3)
END

SUBROUTINE proc411(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 15
  g0 = (max(g1, 10) - 11)
  v1 = 2
  la(4) = (4 + (4 - 2))
  v1 = v0
  f0 = ((-4 / (5 + 12)) + abs(la(5)))
  IF ((v0 / (2 + g0)) .EQ. -2 .OR. 3 .GT. la(5)) THEN
    g3 = g3
  ELSE
    IF (.NOT. ((v0 * 6) .GE. 7)) THEN
      la(1) = (mod(-2, 7) - -5)
    ELSE
      v1 = mod(max(15, -3), 6)
      g3 = -5
    ENDIF
    v1 = (13 - g1)
  ENDIF
  v1 = g2
  CALL proc412(5)
END

SUBROUTINE proc412(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -4
  v2 = 0
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (mod(v1, 7) .LT. 1 .AND. la(1) .NE. (g0 * g1)) g3 = -4
  g3 = (2 / (4 + -1))
  g2 = abs(abs(g2))
  v0 = 4
  f0 = mod(max(11, -3), 2)
  v3 = ((g0 + la(10)) / (5 + g3))
  IF (3 .EQ. (-1 + 7)) v0 = (la(7) + 14)
  CALL proc413((0 + (g0 + 6)))
END

SUBROUTINE proc413(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v1 = 2, 5
    g0 = g1
  ENDDO
  f0 = 14
  la(4) = mod(g3, 7)
  g2 = mod((3 - la(1)), 8)
  CALL proc414(4)
END

SUBROUTINE proc414(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = f0
  v2 = g3
  IF (.NOT. ((14 - 15) .NE. 12)) v0 = g1
  CALL proc415(5, (0 + 0))
END

SUBROUTINE proc415(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 9
  v2 = 11
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 6
  CALL proc416((0 + (13 + -4)), f0)
END

SUBROUTINE proc416(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 8
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(3) = (la(8) / (5 + 3))
  DO g0 = 2, 2
    g2 = max(13, v0)
    IF (14 .GT. -2 .AND. max(g2, f0) .NE. (0 / (3 + la(8)))) g3 = (-5 - la(10))
  ENDDO
  PRINT *, 9
  g3 = (f0 / (3 + la(2)))
  g0 = abs((6 - v0))
  la(11) = abs(1)
  CALL proc417(3, v1)
END

SUBROUTINE proc417(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 6
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = ((la(9) - v0) / (2 + v2))
  DO g2 = 1, 3
    PRINT *, -5
    IF (la(12) .GE. max(15, 13) .AND. -3 .GT. abs(15)) f0 = abs(la(3))
  ENDDO
  la(11) = 15
  IF ((0 / (5 + 6)) .GE. abs(7) .AND. 1 .EQ. 3) THEN
    v1 = g3
    IF (.NOT. ((la(9) * v0) .GT. max(-5, 4))) v0 = abs(v2)
  ENDIF
  CALL proc418((0 + 2))
END

SUBROUTINE proc418(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 6
  v2 = -3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = abs((-4 * f0))
  PRINT *, abs((6 / (4 + g0)))
  IF (v1 .LT. mod(g3, 4) .OR. (g2 * v3) .LT. v3) THEN
    IF (.NOT. ((g1 - la(10)) .LE. (11 - v0))) THEN
      v2 = max(7, -1)
    ELSE
      IF (la(1) .LE. (1 - 3) .OR. la(10) .LT. 9) v0 = (-5 - v0)
    ENDIF
  ELSE
    PRINT *, max(f0, 4)
    IF ((g3 * g3) .EQ. (la(2) + la(6)) .AND. -2 .GT. 2) THEN
      IF (15 .NE. abs(15)) g2 = la(10)
    ENDIF
  ENDIF
  IF (.NOT. (-5 .LT. (g2 - -5))) g0 = (0 + v2)
  g2 = g2
  PRINT *, max(la(7), -1)
  IF (la(4) .LT. la(7) .AND. (-1 - la(8)) .NE. abs(-1)) v0 = -2
  PRINT *, (max(v3, -3) / (2 + la(4)))
  v1 = max(la(11), 0)
  PRINT *, la(2)
  CALL proc419(7, v0)
END

SUBROUTINE proc419(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 0
  v2 = 8
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f0 = 0, 0
    DO v1 = 1, 5
      IF (abs(-4) .GE. la(12)) f1 = abs(8)
      g3 = (max(8, la(2)) / (4 + la(12)))
    ENDDO
  ENDDO
  DO v0 = 1, 5
    f0 = g3
  ENDDO
  CALL proc420(5, v1)
END

SUBROUTINE proc420(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = mod(v2, 7)
  DO g3 = 1, 3
    f0 = mod(7, 5)
  ENDDO
  PRINT *, la(8)
  v0 = la(7)
  CALL proc421(4)
END

SUBROUTINE proc421(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = (abs(la(11)) / (4 + la(3)))
  CALL proc422(4, (0 + max(la(3), 14)))
END

SUBROUTINE proc422(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 9
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = abs((f0 * la(10)))
  g0 = (f0 / (2 + g0))
  g3 = (3 * 0)
  DO v0 = 0, 1
    IF (mod(2, 3) .GT. max(la(1), -1) .AND. la(4) .EQ. f1) THEN
      PRINT *, g2
    ELSE
      la(11) = mod((v0 * 5), 4)
      v2 = v1
    ENDIF
    IF (-1 .EQ. 15 .AND. (6 + la(1)) .EQ. max(15, v1)) THEN
      v2 = mod(f0, 2)
    ENDIF
  ENDDO
  v2 = f1
  v1 = -1
  PRINT *, -5
  v0 = f1
  DO g2 = 3, 3
    v0 = mod(g3, 5)
  ENDDO
  g3 = f0
  CALL proc423((0 + la(6)), (0 + max(11, g2)))
END

SUBROUTINE proc423(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = -3
  v2 = ((9 / (5 + la(9))) * v2)
  g0 = v2
  g3 = (g0 - abs(7))
  g2 = ((3 / (2 + 0)) * 0)
  f0 = abs(abs(13))
  DO g3 = 3, 3
    DO g1 = 3, 6
      PRINT *, la(4)
    ENDDO
  ENDDO
  v2 = abs(v0)
  g0 = f0
  CALL proc424((0 + g0))
END

SUBROUTINE proc424(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (9 + g2)
  g0 = la(5)
  PRINT *, (15 + (la(11) + la(1)))
  PRINT *, 0
  IF (g1 .EQ. (la(6) - la(8)) .AND. abs(-3) .LT. abs(v1)) THEN
    v0 = ((f0 + 11) * -4)
    IF (mod(3, 8) .LT. max(g0, 8) .OR. mod(-2, 4) .LE. -2) g3 = (13 + 14)
  ELSE
    PRINT *, (la(6) - -4)
    g2 = 14
  ENDIF
  g0 = mod(-2, 3)
  CALL proc425(3)
END

SUBROUTINE proc425(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -4
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = ((la(5) * 5) * v2)
  v2 = 6
  v1 = ((15 - g0) / (6 + v1))
  v1 = ((la(9) * 0) * f0)
  la(1) = la(3)
  la(9) = max(la(3), v0)
  la(5) = 2
  g0 = ((4 - la(7)) - -5)
  CALL proc426((0 + abs(15)))
END

SUBROUTINE proc426(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = 1
  IF ((g2 / (6 + -5)) .GT. (la(7) + v1) .OR. -3 .LT. abs(14)) g3 = (12 + 5)
  la(11) = -5
  IF ((9 / (6 + v0)) .EQ. mod(7, 5) .AND. 7 .EQ. la(6)) v2 = -5
  v1 = 7
  DO g3 = 3, 5
    la(1) = la(5)
  ENDDO
  la(6) = ((2 / (3 + 13)) * la(1))
  IF (la(2) .GT. la(2) .OR. g3 .EQ. g1) v2 = v2
  v0 = ((la(9) / (2 + la(3))) - max(g3, la(6)))
  v2 = abs(v2)
  CALL proc427((f0 + 1))
END

SUBROUTINE proc427(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 12
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (1 .LT. la(4)) THEN
    la(10) = 12
    DO g1 = 2, 6
      g0 = g1
      v0 = max(-3, 9)
    ENDDO
  ENDIF
  DO g2 = 0, 4
    f0 = f0
    PRINT *, -1
  ENDDO
  IF (la(4) .GE. la(7)) THEN
    PRINT *, 6
    g3 = la(3)
  ELSE
    la(5) = (5 - 1)
  ENDIF
  v2 = 1
  DO g0 = 2, 2
    IF ((-3 * la(9)) .LE. la(3) .OR. 10 .LE. abs(la(5))) g3 = (v0 / (3 + g1))
  ENDDO
  g1 = -3
  IF (max(la(1), 8) .NE. 11 .OR. (la(9) * la(11)) .LE. abs(0)) THEN
    IF (.NOT. (10 .EQ. la(9))) THEN
      v0 = (v1 - (la(4) / (3 + la(10))))
      v2 = v0
    ELSE
      f0 = v1
    ENDIF
  ELSE
    v2 = ((3 + 4) * -5)
    g2 = mod((6 + 8), 2)
  ENDIF
  g3 = -1
  la(5) = g3
  CALL proc428(6)
END

SUBROUTINE proc428(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = ((la(12) - la(11)) / (2 + 12))
  v1 = (7 - (9 + v2))
  PRINT *, (v0 / (3 + 12))
  IF (.NOT. ((15 / (2 + 15)) .GT. f0)) THEN
    IF ((-1 - la(12)) .GE. (5 * 14)) v2 = abs(la(4))
    IF (2 .GT. 5 .AND. 4 .EQ. max(8, f0)) THEN
      g1 = ((f0 * la(7)) * -2)
    ENDIF
  ENDIF
  DO f0 = 2, 5
    la(9) = g1
    la(11) = ((6 * g1) - (13 + la(12)))
  ENDDO
  f0 = -1
  g3 = 0
  CALL proc429(2, v1)
END

SUBROUTINE proc429(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 9
  v2 = 11
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (g3 .LE. 12 .AND. mod(4, 7) .LE. -5) THEN
    g1 = (f0 + 15)
    IF (.NOT. (abs(la(8)) .NE. max(6, 0))) THEN
      g1 = mod(6, 8)
    ENDIF
  ELSE
    g1 = abs(max(la(5), g3))
    DO g0 = 0, 2
      PRINT *, abs((g2 * la(10)))
    ENDDO
  ENDIF
  DO v0 = 0, 0
    DO g0 = 2, 6
      g2 = abs(11)
    ENDDO
    IF ((4 / (5 + 12)) .LT. 12 .OR. 4 .GT. 0) g2 = mod(5, 3)
  ENDDO
  CALL proc430((f0 + 1), v3)
END

SUBROUTINE proc430(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = -3
  g2 = -4
  v0 = -2
  PRINT *, max(4, f0)
  PRINT *, 12
  la(1) = 9
  IF ((11 * la(4)) .NE. f1 .OR. v1 .LT. (f0 - -1)) f1 = max(la(3), f0)
  v2 = la(1)
  g0 = max(v0, 1)
  CALL proc431((f0 + 1))
END

SUBROUTINE proc431(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 0
  v2 = 7
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 0
  la(12) = la(5)
  la(6) = la(4)
  g0 = abs(la(1))
  CALL proc432(3, -3)
END

SUBROUTINE proc432(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (10 .NE. abs(6) .AND. -2 .NE. la(11)) g1 = la(8)
  la(4) = la(5)
  IF (.NOT. (max(12, 8) .LT. (14 / (4 + 13)))) THEN
    la(11) = (la(12) - f0)
    f1 = la(8)
  ELSE
    f1 = 14
    PRINT *, mod((-4 * la(10)), 4)
  ENDIF
  la(12) = (mod(-5, 8) + 9)
  DO f1 = 3, 6
    DO f0 = 3, 5
      g3 = la(6)
      g2 = abs(8)
    ENDDO
  ENDDO
  v0 = (la(12) - (8 / (4 + 4)))
  f0 = (1 * -5)
  CALL proc433(2, (0 + (1 + 11)))
END

SUBROUTINE proc433(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 3
  v2 = 3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f1 = 2, 6
    IF (.NOT. ((3 * v3) .GT. mod(8, 7))) THEN
      f0 = (mod(g2, 8) / (5 + g0))
      la(6) = la(2)
    ENDIF
    PRINT *, max(-2, 12)
  ENDDO
  la(8) = (-5 + (7 + v3))
  DO v0 = 1, 2
    v2 = (mod(f1, 2) - la(1))
  ENDDO
  CALL proc434((0 + (g3 + 8)), f1)
END

SUBROUTINE proc434(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 11
  v2 = -4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = (mod(la(7), 6) * la(6))
  DO g0 = 1, 5
    IF (.NOT. ((la(3) / (5 + 11)) .GE. 12)) THEN
      f1 = (max(7, 6) / (3 + la(12)))
    ELSE
      v2 = f1
      f0 = (v2 * la(8))
    ENDIF
    v2 = (mod(4, 7) / (2 + f1))
  ENDDO
  g2 = v2
  v3 = v2
  v0 = ((v0 * la(7)) * v1)
  la(2) = abs(9)
  IF (7 .GT. mod(v0, 3)) THEN
    v2 = (la(6) * -1)
  ENDIF
  f0 = 8
  CALL proc435(2, 3)
END

SUBROUTINE proc435(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 12
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = g3
  CALL proc436((f0 + 1), f0)
END

SUBROUTINE proc436(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = 12
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (9 .LT. max(g2, -3)) THEN
    PRINT *, la(11)
    v1 = max(-4, 10)
  ENDIF
  PRINT *, mod(abs(la(12)), 5)
  g2 = (abs(-1) / (4 + -5))
  PRINT *, mod(max(9, -2), 7)
  g0 = v1
  IF ((10 + 3) .LT. max(-1, 10)) g3 = v3
  IF (9 .EQ. la(10) .OR. max(10, 6) .NE. mod(14, 5)) THEN
    PRINT *, g2
    IF ((g1 + la(4)) .NE. 10 .AND. abs(8) .GT. abs(12)) g2 = la(2)
  ELSE
    IF ((la(6) - 5) .NE. v1 .OR. 7 .GE. (10 * 3)) g3 = (g2 + 2)
  ENDIF
  PRINT *, la(11)
  v3 = abs((-3 + 2))
  g3 = abs(v0)
  CALL proc437((0 + 4))
END

SUBROUTINE proc437(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 8
  IF (la(5) .NE. mod(9, 6) .AND. (v2 / (6 + 7)) .NE. (1 * -3)) THEN
    g1 = 15
    v1 = la(7)
  ENDIF
  IF (.NOT. (10 .NE. 2)) v0 = (11 - 2)
  la(12) = la(3)
  la(11) = -5
  IF (abs(-3) .EQ. (g2 / (2 + la(5))) .OR. 3 .LE. 2) THEN
    v0 = 6
    la(3) = max(-4, 2)
  ENDIF
  v2 = 2
  IF (.NOT. ((la(8) / (2 + la(9))) .LT. v2)) THEN
    DO f0 = 2, 2
      la(2) = max(2, 1)
      v1 = la(6)
    ENDDO
    v1 = (v1 * -3)
  ENDIF
  PRINT *, 12
  CALL proc438(6)
END

SUBROUTINE proc438(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 0, 0
    v1 = (max(15, 14) + mod(14, 3))
  ENDDO
  IF ((la(4) - 4) .NE. (v1 - la(10)) .OR. 13 .EQ. (4 / (2 + 8))) THEN
    IF (.NOT. (la(1) .LT. la(7))) THEN
      g2 = 7
      f0 = 8
    ELSE
      g1 = g1
      v1 = (abs(la(11)) + f0)
    ENDIF
  ELSE
    g1 = la(6)
  ENDIF
  IF (1 .LT. 0 .OR. (la(6) - la(8)) .EQ. mod(1, 8)) THEN
    DO f0 = 2, 6
      g2 = max(3, v0)
      PRINT *, f0
    ENDDO
    la(7) = mod(mod(7, 7), 4)
  ELSE
    IF (9 .GT. mod(la(10), 5) .AND. la(3) .NE. -3) g0 = mod(5, 2)
    g0 = (la(8) * 10)
  ENDIF
  CALL proc439(3, f0)
END

SUBROUTINE proc439(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -2
  v2 = 12
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = la(9)
  v3 = abs(max(g0, la(12)))
  DO f1 = 2, 6
    IF (.NOT. ((g0 * 14) .EQ. -5)) THEN
      v0 = mod(abs(v3), 4)
    ENDIF
  ENDDO
  IF ((f1 + 9) .LE. (la(6) / (4 + 8)) .OR. 7 .LE. v2) THEN
    DO v0 = 2, 5
      f0 = mod(-5, 8)
      la(9) = la(8)
    ENDDO
    f1 = v1
  ELSE
    v1 = v1
    DO v0 = 0, 0
      v1 = la(4)
    ENDDO
  ENDIF
  IF (.NOT. (la(12) .LT. (v0 + 15))) g0 = abs(la(11))
  PRINT *, -1
  IF (max(-3, la(2)) .EQ. 3 .AND. (0 + -1) .GE. -1) g1 = mod(v2, 3)
  PRINT *, (7 / (4 + 0))
  CALL proc440((0 + 8), v3)
END

SUBROUTINE proc440(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 6
  v2 = 1
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v0 = 2, 5
    la(8) = (abs(g1) / (4 + 5))
  ENDDO
  g1 = max(-5, la(4))
  la(11) = mod((la(7) * v1), 8)
  la(11) = (max(f1, la(6)) * v0)
  DO g3 = 2, 4
    la(9) = max(13, v0)
    PRINT *, (f1 * la(1))
  ENDDO
  g3 = (15 * 0)
  v1 = 5
  CALL proc441(6)
END

SUBROUTINE proc441(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (14 .EQ. (13 - la(8)) .AND. (-1 + -3) .NE. 0) THEN
    PRINT *, (la(8) - 9)
    v2 = mod(la(10), 5)
  ELSE
    IF (4 .LE. 15 .AND. (v1 - 15) .NE. (10 + -4)) g2 = mod(la(12), 2)
  ENDIF
  g1 = abs(mod(-5, 4))
  v0 = (mod(la(10), 4) / (5 + v2))
  v2 = g1
  PRINT *, la(10)
  v2 = ((-4 - 5) / (5 + 4))
  g0 = (abs(11) + -3)
  g0 = -4
  IF (.NOT. (11 .NE. g3)) THEN
    g3 = v0
    v1 = 2
  ELSE
    IF (max(f0, 5) .LE. max(g1, f0)) g0 = (-4 * 5)
  ENDIF
  g2 = 0
  CALL proc442(5)
END

SUBROUTINE proc442(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (la(8) .EQ. (0 * 2) .AND. max(10, g1) .LT. (la(3) - g1)) g0 = -2
  IF (g1 .GE. mod(14, 2) .OR. -1 .EQ. (g1 / (6 + -1))) f0 = mod(la(3), 2)
  la(2) = (g3 - (v1 - -1))
  IF ((9 * la(1)) .GT. mod(-5, 3) .AND. mod(g3, 2) .GE. (la(12) * -1)) v1 = -1
  la(11) = (la(7) / (5 + 7))
  g1 = 12
  v1 = mod(g1, 7)
  f0 = max(8, 3)
  g1 = la(7)
  v0 = 14
  CALL proc443(4)
END

SUBROUTINE proc443(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = f0
  IF ((la(7) * f0) .NE. (la(11) * -5)) g1 = la(9)
  la(8) = mod(abs(4), 4)
  DO v0 = 0, 1
    v1 = la(1)
    g2 = (la(7) * la(4))
  ENDDO
  v0 = ((-5 - la(8)) * v0)
  PRINT *, 2
  g1 = (11 / (6 + 0))
  g3 = abs(g1)
  v0 = abs((v0 * 11))
  CALL proc444(4, 2)
END

SUBROUTINE proc444(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = ((g2 / (6 + 9)) / (2 + la(12)))
  CALL proc445(3, (0 + mod(la(5), 8)))
END

SUBROUTINE proc445(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 5
  v2 = 3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(11) = g2
  g2 = -1
  CALL proc446(6)
END

SUBROUTINE proc446(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(la(4), 6)
  IF (8 .GE. (la(11) * -5)) THEN
    v0 = 5
    DO g2 = 2, 3
      f0 = abs((-4 - la(9)))
      f0 = (mod(g0, 2) * 9)
    ENDDO
  ENDIF
  IF ((la(9) / (6 + 1)) .EQ. la(2) .OR. la(1) .GE. (0 * 2)) THEN
    IF (.NOT. (g0 .GT. (0 - la(12)))) THEN
      v0 = abs(mod(4, 4))
    ENDIF
    g1 = ((g0 / (2 + v1)) * la(8))
  ENDIF
  IF (g2 .LT. mod(g1, 8) .AND. 11 .GT. v1) g3 = max(f0, la(2))
  v0 = 8
  v1 = max(10, 2)
  DO g1 = 0, 0
    g3 = -5
  ENDDO
  CALL proc447((f0 + 1), (0 + (la(12) / (6 + 8))))
END

SUBROUTINE proc447(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(11) = abs(max(g2, g0))
  IF (f0 .LE. (-1 * 1)) f1 = la(9)
  IF (f1 .EQ. la(5)) THEN
    la(6) = -1
    PRINT *, (3 - 6)
  ENDIF
  g1 = abs(12)
  CALL proc448((f0 + 1), v1)
END

SUBROUTINE proc448(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, la(2)
  la(2) = v0
  PRINT *, (max(g3, v0) * g2)
  v0 = 1
  la(12) = (la(2) / (3 + -3))
  f1 = f0
  g0 = 2
  IF (.NOT. (mod(-4, 6) .LT. 3)) g0 = f1
  CALL proc449(2)
END

SUBROUTINE proc449(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 3
  v2 = 1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = (8 + 4)
  PRINT *, max(g0, 14)
  IF ((g3 + g0) .LT. (10 / (5 + 3)) .AND. (la(9) * la(12)) .LE. (2 / (4 + 0))) v3 = (3 / (2 + f0))
  IF (mod(la(3), 4) .GT. g3 .OR. v2 .LT. max(15, la(9))) g2 = 12
  g0 = (la(12) + max(1, 1))
  v1 = 5
  IF (abs(g3) .GT. max(la(12), la(2)) .OR. g0 .LT. la(6)) v2 = (-1 / (4 + 1))
  f0 = ((11 * la(9)) * 9)
  la(9) = max(la(4), la(1))
  CALL proc450(6)
END

SUBROUTINE proc450(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 13
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, g3
  v2 = mod(v1, 2)
  DO f0 = 3, 5
    g1 = ((v2 / (2 + 1)) * la(9))
    IF (.NOT. (1 .LE. max(2, 0))) THEN
      g3 = v0
    ELSE
      PRINT *, 1
    ENDIF
  ENDDO
  g3 = la(8)
  v1 = mod(la(10), 7)
  g3 = g1
  v0 = (mod(g2, 3) * g1)
  CALL proc451((0 + max(la(7), v0)))
END

SUBROUTINE proc451(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g2 = 3, 7
    PRINT *, la(3)
  ENDDO
  PRINT *, -1
  CALL proc452((0 + (0 + la(7))))
END

SUBROUTINE proc452(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 13
  v2 = -4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = (-1 - 3)
  f0 = ((g0 / (4 + 7)) / (5 + 9))
  g0 = -3
  la(11) = (2 * 10)
  CALL proc453(7, v0)
END

SUBROUTINE proc453(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = (7 + -3)
  DO g0 = 3, 7
    g2 = abs((6 - 13))
    IF (13 .NE. (la(10) * 10) .AND. -2 .LT. (la(12) - 6)) THEN
      PRINT *, 12
    ELSE
      la(12) = g3
    ENDIF
  ENDDO
  la(11) = abs(la(10))
  g2 = la(3)
  v0 = 10
  CALL proc454(3, v2)
END

SUBROUTINE proc454(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 0, 1
    g3 = (14 + abs(5))
    la(1) = mod(la(8), 5)
  ENDDO
  g3 = la(3)
  DO g3 = 0, 4
    la(5) = 13
    IF ((la(1) * la(1)) .GE. g3 .OR. 4 .GT. (la(7) + 8)) THEN
      IF (.NOT. (-5 .GT. max(g0, 6))) f0 = mod(15, 5)
      f0 = abs(la(6))
    ENDIF
  ENDDO
  IF (max(6, v1) .GE. la(1) .AND. la(1) .LE. g1) THEN
    g0 = mod(v0, 5)
    v1 = mod(max(v1, la(11)), 7)
  ELSE
    f0 = g1
    v1 = mod(f1, 5)
  ENDIF
  IF (13 .GE. mod(4, 4) .OR. (la(9) / (4 + 14)) .LT. la(6)) THEN
    IF (v1 .GE. (f0 * g1) .AND. (9 * 1) .NE. 14) THEN
      la(2) = la(9)
    ENDIF
  ENDIF
  CALL proc455(4)
END

SUBROUTINE proc455(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = (4 + (-3 * 4))
  la(6) = (1 / (4 + 14))
  g2 = abs(la(9))
  g3 = (abs(g1) - g3)
  IF (la(9) .GT. la(11) .AND. 0 .GT. la(5)) g1 = (la(12) - la(10))
  g2 = (mod(g0, 5) * g1)
  IF (-5 .GT. la(3) .OR. (8 + g2) .GT. mod(la(9), 2)) g0 = abs(la(10))
  CALL proc456((0 + v0))
END

SUBROUTINE proc456(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 11
  v2 = -2
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = ((-1 / (5 + g1)) / (6 + la(12)))
  f0 = la(12)
  IF (mod(la(4), 8) .LT. (f0 * 2)) g1 = 9
  DO v1 = 1, 1
    g1 = (14 + max(10, 8))
  ENDDO
  CALL proc457((f0 + 1))
END

SUBROUTINE proc457(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 5
  v2 = 10
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = ((la(11) - 4) * la(3))
  g3 = f0
  v0 = abs(mod(12, 2))
  g3 = f0
  IF ((la(9) + 8) .EQ. 15 .OR. (2 - la(3)) .LT. (12 * f0)) THEN
    v0 = ((-3 - v2) - mod(0, 8))
    v2 = 5
  ENDIF
  PRINT *, abs(14)
  IF (.NOT. (7 .NE. (5 * 13))) g3 = (15 / (4 + g1))
  v2 = la(9)
  IF ((12 + la(10)) .LT. abs(v0)) g3 = (la(9) / (4 + la(10)))
  CALL proc458(7)
END

SUBROUTINE proc458(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (2 .GE. (g3 / (2 + 10))) THEN
    v2 = -4
  ENDIF
  DO v1 = 0, 1
    g1 = (1 + (la(5) + 15))
    IF (12 .EQ. max(la(2), 9) .AND. 6 .GT. abs(g3)) g3 = g1
  ENDDO
  la(3) = g0
  DO g0 = 0, 0
    v1 = 9
  ENDDO
  PRINT *, ((g1 - 9) + (2 - 12))
  CALL proc459(4)
END

SUBROUTINE proc459(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 1
  IF (la(8) .GE. (-4 * g1) .OR. 9 .GT. (-5 * g3)) g0 = abs(g2)
  DO v1 = 0, 4
    v0 = (mod(la(12), 7) / (5 + g2))
  ENDDO
  g1 = (2 + 2)
  la(5) = abs(-5)
  DO v1 = 1, 2
    PRINT *, -1
  ENDDO
  g1 = (-1 * -1)
  CALL proc460(2)
END

SUBROUTINE proc460(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 9
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, f0
  g1 = max(9, 10)
  la(12) = (g3 * -3)
  v1 = ((g2 / (4 + f0)) / (4 + -3))
  IF (.NOT. (8 .EQ. abs(g0))) THEN
    g3 = -5
    PRINT *, g0
  ENDIF
  IF (la(6) .LT. (-5 / (3 + la(10))) .AND. mod(la(7), 8) .NE. (11 + 1)) g1 = (la(7) - g3)
  IF (g1 .NE. -4 .AND. max(3, 12) .LT. (v2 / (3 + 10))) v2 = max(7, g2)
  CALL proc461((0 + max(g3, g0)))
END

SUBROUTINE proc461(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(8) = ((v0 / (2 + 0)) / (6 + 4))
  v0 = ((g1 + 9) * g2)
  DO g1 = 1, 3
    PRINT *, 5
    v2 = -5
  ENDDO
  la(11) = 2
  g0 = abs(la(6))
  IF (10 .NE. 3 .AND. (la(6) + 6) .LT. (g0 * 15)) g3 = -5
  f0 = 9
  g1 = la(6)
  CALL proc462(2, v2)
END

SUBROUTINE proc462(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 3
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = la(7)
  f0 = (la(9) / (3 + -1))
  v1 = 5
  g0 = la(5)
  v1 = (f0 * 15)
  g0 = v2
  CALL proc463(4, (0 + max(g1, 7)))
END

SUBROUTINE proc463(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = (v1 * 1)
  la(2) = 7
  g0 = la(6)
  la(10) = la(6)
  f0 = 3
  PRINT *, (v1 - v1)
  f0 = (2 / (3 + la(12)))
  DO g0 = 0, 2
    f0 = 0
  ENDDO
  g1 = f0
  CALL proc464(5, 9)
END

SUBROUTINE proc464(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = ((1 * -3) * -1)
  la(12) = (9 - 8)
  g3 = g1
  CALL proc465((f0 + 1), 8)
END

SUBROUTINE proc465(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = ((-3 * f0) / (2 + la(7)))
  IF (abs(la(6)) .GE. (14 * g0) .AND. la(1) .LE. 9) g3 = (10 / (3 + v0))
  la(8) = 14
  IF (max(g3, la(12)) .GT. -5) g0 = g1
  CALL proc466((f0 + 1))
END

SUBROUTINE proc466(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((v1 + g0) .GT. la(9)) THEN
    IF (mod(la(9), 8) .LE. max(-5, v0) .AND. mod(la(1), 6) .LT. (la(10) * g2)) g0 = la(9)
  ELSE
    g1 = v1
    PRINT *, 11
  ENDIF
  PRINT *, 7
  g3 = ((g1 - la(11)) + mod(la(2), 6))
  DO g2 = 2, 2
    IF ((f0 + f0) .EQ. v0 .AND. mod(15, 2) .LT. (10 + la(12))) f0 = abs(9)
    IF (.NOT. ((g0 * -3) .GT. (g2 - g3))) g3 = (8 / (5 + g1))
  ENDDO
  f0 = (max(-4, g2) + f0)
  g1 = g0
  CALL proc467(5)
END

SUBROUTINE proc467(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 8
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(12) .LT. f0 .AND. f0 .NE. 11) g0 = (-5 / (3 + 14))
  IF (mod(v0, 8) .GT. (v2 + 2) .OR. (la(5) * g2) .EQ. -1) THEN
    g0 = (mod(-3, 5) - max(v2, la(11)))
  ENDIF
  v3 = g3
  v3 = 8
  v3 = f0
  g3 = ((-1 * v3) - abs(9))
  DO g3 = 0, 3
    IF (mod(0, 6) .EQ. la(6) .OR. v0 .NE. abs(f0)) THEN
      la(1) = 13
      PRINT *, la(8)
    ELSE
      g1 = (mod(1, 5) + (10 - la(3)))
    ENDIF
  ENDDO
  g1 = la(2)
  g0 = v3
  CALL proc468(3)
END

SUBROUTINE proc468(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 0
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 3
  DO v1 = 1, 2
    g2 = 11
    v0 = la(12)
  ENDDO
  g2 = abs((6 - v1))
  la(11) = 10
  DO v0 = 1, 1
    g2 = max(la(9), -5)
  ENDDO
  IF (la(4) .GE. (g1 - v2) .AND. 12 .LE. la(4)) THEN
    IF (.NOT. (2 .LT. (-4 + 4))) g1 = -4
  ELSE
    g2 = la(2)
    DO g3 = 1, 3
      g1 = 11
      v2 = mod(mod(v1, 7), 2)
    ENDDO
  ENDIF
  g1 = 0
  v2 = (g1 + (la(6) / (6 + -3)))
  IF (.NOT. (4 .NE. la(5))) v1 = (f0 * -5)
  g3 = 3
  CALL proc469(5)
END

SUBROUTINE proc469(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v0 = 2, 3
    f0 = (la(5) + g0)
  ENDDO
  DO f0 = 3, 3
    v0 = (la(10) - g1)
  ENDDO
  v1 = mod((la(1) * g0), 4)
  g3 = f0
  v1 = 10
  g2 = g2
  v1 = abs(10)
  IF (8 .LE. 15 .OR. g0 .NE. (g3 / (3 + g1))) THEN
    g0 = la(10)
    f0 = la(7)
  ENDIF
  v0 = (la(7) - (g1 + la(2)))
  la(3) = 1
  CALL proc470(3, (0 + f0))
END

SUBROUTINE proc470(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -3
  v2 = 8
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO f1 = 1, 5
    IF (.NOT. ((14 * -5) .NE. 15)) v3 = abs(f1)
  ENDDO
  g2 = (la(4) / (2 + 4))
  g3 = 14
  IF (-1 .NE. 11) THEN
    g0 = max(2, la(9))
  ELSE
    g3 = mod(la(9), 2)
  ENDIF
  g0 = 1
  CALL proc471(3)
END

SUBROUTINE proc471(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 5
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = ((la(1) - la(9)) + (v0 + 5))
  g2 = 4
  v2 = mod(5, 7)
  f0 = -5
  g1 = (f0 + 12)
  v0 = la(2)
  f0 = (v2 * la(3))
  CALL proc472((f0 + 1), 6)
END

SUBROUTINE proc472(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g2 = 2, 4
    v0 = v1
  ENDDO
  la(8) = abs(6)
  f1 = g0
  g3 = 11
  PRINT *, mod(v0, 2)
  g3 = ((la(6) / (6 + v0)) / (6 + la(3)))
  IF (4 .LE. 12) v0 = (-3 + la(4))
  v1 = (abs(11) - (g3 / (3 + -5)))
  v0 = abs((la(10) - 2))
  g0 = abs(2)
  CALL proc473((0 + (15 * 10)))
END

SUBROUTINE proc473(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 12
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = mod(g1, 3)
  g3 = la(7)
  g2 = g2
  CALL proc474((0 + (15 / (6 + la(1)))), (0 + abs(la(1))))
END

SUBROUTINE proc474(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = (max(v2, g2) - mod(g2, 6))
  CALL proc475(4, f1)
END

SUBROUTINE proc475(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = max(la(12), g1)
  v2 = la(4)
  v1 = g3
  CALL proc476(5, f0)
END

SUBROUTINE proc476(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 4
  v2 = 4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = ((-4 / (6 + 7)) - (f1 / (6 + 12)))
  IF (v2 .LT. 8 .AND. (la(2) * 1) .LE. (0 + la(5))) THEN
    IF ((la(9) + la(5)) .GE. 0 .OR. (la(2) + 7) .GT. (la(8) - g2)) THEN
      v1 = abs(la(3))
      f0 = 10
    ELSE
      f1 = 3
      g2 = abs((-2 + 10))
    ENDIF
  ENDIF
  v3 = -3
  DO v1 = 0, 1
    DO g1 = 0, 0
      v3 = (1 / (5 + 8))
      IF ((0 + 6) .GT. abs(-5)) g0 = la(3)
    ENDDO
    DO v3 = 0, 0
      f0 = (0 * 12)
    ENDDO
  ENDDO
  f1 = abs(f0)
  CALL proc477((0 + (14 / (4 + 4))))
END

SUBROUTINE proc477(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 2
  v2 = -2
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(10)
  v1 = g1
  IF (max(8, la(7)) .EQ. v1 .AND. 4 .NE. -3) g1 = 14
  CALL proc478((f0 + 1), f0)
END

SUBROUTINE proc478(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (f1 .GE. 15) THEN
    g3 = la(3)
  ENDIF
  DO v0 = 2, 5
    g2 = la(5)
    v1 = ((11 + 5) / (4 + -2))
  ENDDO
  IF (.NOT. ((la(12) / (6 + 3)) .LT. (la(12) + 4))) THEN
    g0 = 15
    f1 = (la(3) - (la(11) - -2))
  ENDIF
  v0 = 15
  la(2) = g3
  CALL proc479(4, 0)
END

SUBROUTINE proc479(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 5
  v2 = 10
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = ((la(12) + la(10)) * 7)
  DO g0 = 0, 4
    g1 = (g1 - 7)
    la(10) = -1
  ENDDO
  v2 = (abs(g2) * -5)
  DO v2 = 0, 2
    g1 = mod(5, 7)
  ENDDO
  g0 = 1
  CALL proc480(2, (0 + (g1 * f0)))
END

SUBROUTINE proc480(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(1) = f1
  g1 = (v0 + g1)
  DO g0 = 1, 2
    f0 = g1
    IF (g0 .EQ. 14) THEN
      v0 = -1
      la(5) = la(11)
    ENDIF
  ENDDO
  IF (.NOT. (la(12) .EQ. (2 - 0))) THEN
    PRINT *, v0
  ELSE
    g2 = 2
  ENDIF
  g3 = la(8)
  DO v0 = 1, 4
    la(8) = mod(max(g0, -5), 4)
    IF (f0 .NE. la(1) .OR. abs(g2) .GT. g2) THEN
      PRINT *, ((la(5) * 15) + -2)
      v1 = (f1 / (5 + la(5)))
    ENDIF
  ENDDO
  PRINT *, la(11)
  IF ((la(7) + 4) .GT. 5 .OR. -1 .GT. v1) f0 = g2
  CALL proc481((0 + g1), f1)
END

SUBROUTINE proc481(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 6
  v2 = -2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(10) = g2
  la(8) = max(f1, g1)
  DO f0 = 0, 4
    IF ((-4 - -4) .GT. 12 .OR. (-1 / (5 + la(11))) .NE. (la(12) * 4)) v2 = mod(13, 7)
  ENDDO
  v3 = -4
  DO v2 = 0, 3
    v1 = 12
    f1 = 7
  ENDDO
  v2 = la(6)
  CALL proc482((f0 + 1), v3)
END

SUBROUTINE proc482(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 11
  v2 = -3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(1)
  g3 = la(8)
  CALL proc483(3, v3)
END

SUBROUTINE proc483(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 11
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = mod((la(2) / (3 + 0)), 6)
  PRINT *, mod(g2, 3)
  v2 = la(5)
  la(10) = -3
  g3 = (max(10, la(7)) * la(11))
  g0 = max(v0, -1)
  g1 = 11
  v2 = ((14 * 4) * -5)
  PRINT *, v2
  IF (.NOT. (la(8) .LE. (4 / (6 + v0)))) THEN
    IF (.NOT. (la(10) .GT. (g2 + la(12)))) g3 = mod(2, 2)
    g3 = la(1)
  ELSE
    IF ((2 + 13) .NE. (la(7) / (6 + 14))) g0 = 0
    PRINT *, 0
  ENDIF
  CALL proc484((f0 + 1), 6)
END

SUBROUTINE proc484(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = ((-1 + v1) / (3 + la(2)))
  IF ((8 * 8) .LE. 3 .OR. (la(1) - 9) .GE. 12) THEN
    g1 = -2
    f1 = 6
  ELSE
    DO g2 = 3, 3
      f1 = max(14, g1)
    ENDDO
    v1 = ((la(2) / (5 + la(6))) * la(4))
  ENDIF
  f0 = (la(10) + (3 * f1))
  v0 = la(2)
  CALL proc485(6)
END

SUBROUTINE proc485(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = 8
  g0 = 14
  CALL proc486((f0 + 1), (0 + la(6)))
END

SUBROUTINE proc486(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 12
  v2 = 11
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (3 .LE. -5 .AND. v0 .LE. -3) v2 = f0
  IF (f0 .GT. mod(11, 3) .AND. 4 .LT. 11) THEN
    IF (v2 .NE. 3 .OR. (la(8) + g3) .NE. (g3 - la(8))) v0 = (-2 / (5 + v1))
  ENDIF
  PRINT *, 2
  v1 = 7
  v3 = la(10)
  v1 = 3
  f1 = -3
  v1 = abs(la(8))
  CALL proc487((0 + 1))
END

SUBROUTINE proc487(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -1
  v2 = -4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (max(g1, 0) .LT. la(8) .OR. (-2 / (5 + v0)) .LE. (5 * f0)) THEN
    f0 = la(5)
    IF (v2 .EQ. 4 .AND. (la(6) * g1) .LE. abs(la(3))) g2 = g2
  ELSE
    DO f0 = 0, 0
      v0 = max(v3, la(5))
      PRINT *, abs(14)
    ENDDO
  ENDIF
  v2 = (la(1) * v1)
  PRINT *, abs((0 / (4 + v1)))
  CALL proc488((0 + (0 - g1)))
END

SUBROUTINE proc488(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(-1, 3) .LT. v0 .OR. abs(9) .LT. 1) THEN
    IF (11 .EQ. 2 .OR. (la(4) * -4) .EQ. la(2)) g0 = max(g1, 13)
    g0 = 12
  ENDIF
  v1 = (-3 - f0)
  PRINT *, 11
  v0 = (0 + mod(v1, 3))
  IF (.NOT. (f0 .GT. mod(15, 5))) THEN
    g2 = -1
    DO v0 = 2, 5
      g3 = (abs(la(9)) - la(4))
    ENDDO
  ENDIF
  CALL proc489(6)
END

SUBROUTINE proc489(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = v0
  f0 = -2
  CALL proc490((f0 + 1))
END

SUBROUTINE proc490(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(g2) .GE. 13) v0 = 2
  PRINT *, abs(g3)
  la(5) = max(g3, 2)
  v1 = (15 / (2 + v0))
  CALL proc491(3)
END

SUBROUTINE proc491(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 13
  v2 = -2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v0 = 1, 1
    IF (f0 .EQ. -1 .AND. v2 .LE. g3) THEN
      v1 = (max(g3, 2) + (f0 * g0))
      v2 = v1
    ENDIF
  ENDDO
  DO v1 = 0, 2
    PRINT *, (8 * la(12))
    IF (.NOT. (max(v1, 14) .NE. abs(5))) v3 = (la(6) / (5 + 3))
  ENDDO
  v3 = (max(10, 4) + mod(7, 8))
  PRINT *, 4
  IF ((9 / (6 + 10)) .EQ. abs(15)) g2 = (g1 - 7)
  PRINT *, v1
  v3 = 6
  IF (.NOT. ((la(5) * 9) .LT. (15 / (4 + 0)))) THEN
    DO v1 = 1, 2
      g0 = 4
    ENDDO
    v3 = ((la(4) / (3 + f0)) * -3)
  ENDIF
  DO v3 = 1, 3
    f0 = abs(max(14, la(12)))
    g1 = max(11, la(4))
  ENDDO
  CALL proc492((0 + 5))
END

SUBROUTINE proc492(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 10
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (max(0, -4) .LT. (-4 / (6 + v0)))) THEN
    g1 = max(la(11), 7)
  ENDIF
  v1 = max(11, g0)
  g0 = 0
  f0 = 14
  la(5) = ((g3 + f0) / (4 + 10))
  IF (9 .LE. abs(v0) .OR. la(3) .LE. la(10)) f0 = 13
  la(4) = mod(f0, 3)
  v2 = -2
  IF (max(g3, 3) .GE. -4) THEN
    la(6) = (9 - (15 + v0))
  ENDIF
  CALL proc493(3)
END

SUBROUTINE proc493(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = (g0 / (3 + 4))
  DO v0 = 0, 1
    PRINT *, max(0, la(2))
    f0 = (max(15, 2) - f0)
  ENDDO
  v1 = mod((6 + -5), 4)
  IF (12 .EQ. -5 .OR. la(9) .GT. -3) v0 = 1
  la(9) = ((4 - g2) - la(4))
  g2 = (max(la(11), 10) * -5)
  v1 = (mod(7, 5) + (f0 + -3))
  CALL proc494((0 + abs(15)), 4)
END

SUBROUTINE proc494(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 14
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((5 - g2) .GE. max(15, 5)) THEN
    g2 = (mod(11, 4) - 9)
    la(1) = (-2 - f0)
  ENDIF
  v0 = (14 * 10)
  v1 = v2
  g3 = (abs(la(2)) - (v1 / (5 + v1)))
  CALL proc495((f0 + 1), (0 + 1))
END

SUBROUTINE proc495(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -1
  v2 = 1
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = 11
  la(6) = (abs(-2) * g0)
  DO v3 = 3, 4
    DO g0 = 1, 3
      la(9) = max(-1, -2)
    ENDDO
    IF (.NOT. ((1 - la(3)) .LE. max(-1, 6))) g2 = (g0 / (2 + g1))
  ENDDO
  g3 = la(9)
  f0 = f1
  PRINT *, (la(2) / (2 + g2))
  CALL proc496(7, (0 + 13))
END

SUBROUTINE proc496(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 3
  v2 = 7
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(5) .LE. 14 .AND. 0 .EQ. (-5 / (3 + la(11)))) THEN
    DO f0 = 1, 2
      f1 = max(10, 3)
    ENDDO
    la(5) = f1
  ELSE
    PRINT *, la(8)
    PRINT *, la(4)
  ENDIF
  DO g3 = 2, 6
    v2 = (f0 - g0)
  ENDDO
  v2 = max(la(4), la(6))
  IF (-3 .NE. -4) THEN
    v2 = ((10 * la(10)) * -2)
    IF (la(10) .LE. la(2)) g1 = 13
  ELSE
    IF (.NOT. ((10 / (3 + -1)) .GT. max(g0, 13))) f0 = mod(12, 7)
  ENDIF
  DO g1 = 2, 6
    g3 = f0
  ENDDO
  IF (4 .GT. 1 .AND. (-3 / (3 + f1)) .LE. 9) g1 = (la(5) / (3 + 5))
  CALL proc497(3)
END

SUBROUTINE proc497(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v1 = 3, 7
    g0 = -4
  ENDDO
  v1 = 0
  la(4) = mod((g3 / (2 + g0)), 3)
  g2 = (mod(g2, 5) + la(7))
  g0 = la(5)
  g0 = (la(3) - (-4 + 6))
  PRINT *, (max(la(12), 1) + 13)
  g0 = ((11 * 14) * 9)
  CALL proc498((0 + g3), 5)
END

SUBROUTINE proc498(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (mod(v0, 8) .LE. mod(10, 3) .AND. (12 - 14) .NE. la(11)) THEN
    IF (la(8) .GT. -4 .AND. abs(v2) .LE. (f0 - g1)) THEN
      f1 = g3
    ELSE
      v0 = max(g3, f1)
      PRINT *, max(8, la(7))
    ENDIF
    v0 = 15
  ENDIF
  IF (9 .EQ. abs(v0) .AND. (v0 - la(2)) .LT. 3) THEN
    DO f1 = 2, 6
      la(12) = la(3)
    ENDDO
  ENDIF
  IF (max(g0, f1) .GE. abs(la(5)) .AND. abs(f1) .NE. abs(11)) THEN
    IF (v1 .LE. la(12)) THEN
      g2 = (la(9) - 4)
    ENDIF
    v0 = 2
  ELSE
    la(7) = (la(2) - la(10))
  ENDIF
  CALL proc499((f0 + 1))
END

SUBROUTINE proc499(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 6
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = max(14, 11)
  CALL proc500(5, v1)
END

SUBROUTINE proc500(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 14
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = f1
  IF (.NOT. ((9 - la(7)) .EQ. (10 * v0))) THEN
    IF (v1 .EQ. la(8) .AND. (la(11) + v0) .NE. v2) f1 = 11
  ENDIF
  CALL proc501(4, -1)
END

SUBROUTINE proc501(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 13
  v2 = 4
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = (v3 * 3)
  v0 = max(11, 2)
  f0 = la(11)
  CALL proc502((f0 + 1))
END

SUBROUTINE proc502(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 0, 4
    v0 = (max(la(7), la(11)) + mod(10, 3))
  ENDDO
  v1 = mod(g1, 6)
  IF (15 .LE. 11 .AND. (-5 + g3) .GT. abs(13)) THEN
    v0 = f0
  ENDIF
  g2 = 8
  g3 = ((g0 + 1) + (11 - 1))
  g0 = g0
  g0 = 9
  PRINT *, (abs(15) + max(6, -1))
  v0 = 4
  g3 = mod(8, 2)
  CALL proc503((0 + 2))
END

SUBROUTINE proc503(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 12
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. (-4 .LE. 13)) v0 = la(1)
  g0 = (6 + -2)
  IF ((la(9) + la(1)) .LT. mod(g1, 2) .AND. la(5) .GE. (-5 + 6)) THEN
    g2 = mod((v0 / (4 + la(7))), 2)
    PRINT *, 6
  ELSE
    la(12) = 10
    PRINT *, la(8)
  ENDIF
  DO f0 = 3, 4
    g0 = 3
  ENDDO
  IF ((la(6) - v0) .NE. v2) THEN
    g1 = (g2 * 7)
    g2 = mod(g1, 7)
  ENDIF
  g0 = mod((12 / (3 + 15)), 4)
  PRINT *, 1
  CALL proc504(7)
END

SUBROUTINE proc504(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, g3
  CALL proc505(2, 7)
END

SUBROUTINE proc505(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (-4 + 10)
  CALL proc506((0 + g2), (0 + 8))
END

SUBROUTINE proc506(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 0
  v2 = 1
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = 11
  g1 = abs(mod(-1, 6))
  DO v1 = 1, 3
    g1 = g0
  ENDDO
  IF (.NOT. (max(la(3), la(2)) .GT. (la(12) * 12))) f1 = 1
  v3 = (6 + mod(g1, 6))
  CALL proc507((0 + -3), (0 + (v3 + -3)))
END

SUBROUTINE proc507(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 1
  v2 = -4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((la(8) / (5 + 8)) .LE. 12 .AND. (la(4) * 13) .GE. la(4)) v1 = 13
  IF ((g1 - 8) .GT. la(6) .AND. 11 .NE. max(la(8), la(8))) THEN
    v3 = (abs(la(4)) + mod(v0, 2))
    f1 = la(1)
  ENDIF
  g2 = la(5)
  CALL proc508((0 + (v2 * 14)))
END

SUBROUTINE proc508(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = abs((g0 + v1))
  v0 = max(3, g3)
  IF (la(9) .LT. abs(la(5))) THEN
    PRINT *, -2
  ENDIF
  la(5) = la(3)
  DO v0 = 3, 7
    g3 = (15 * 2)
    g3 = max(-5, la(9))
  ENDDO
  la(2) = ((la(1) / (5 + v0)) * la(1))
  PRINT *, max(la(4), la(2))
  PRINT *, -5
  IF (3 .LT. (la(3) - 11) .OR. 7 .LT. (g0 - la(6))) g0 = (1 + la(4))
  IF (.NOT. (v0 .EQ. la(12))) v0 = (15 / (4 + v1))
  CALL proc509((0 + abs(11)))
END

SUBROUTINE proc509(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -3
  v2 = 14
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 2, 2
    g2 = (abs(5) / (6 + la(2)))
  ENDDO
  CALL proc510((0 + la(9)))
END

SUBROUTINE proc510(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = -2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = max(4, 8)
  DO g2 = 3, 7
    la(8) = 3
    v0 = f0
  ENDDO
  g0 = 12
  IF (.NOT. ((la(9) + g2) .LT. (-4 + la(6)))) THEN
    PRINT *, (abs(-1) - (la(7) / (6 + g3)))
  ELSE
    IF (-5 .EQ. abs(13)) THEN
      v3 = 9
      v3 = g2
    ELSE
      v2 = la(2)
    ENDIF
    v2 = (la(10) * la(9))
  ENDIF
  v0 = abs((g3 + g3))
  CALL proc511(6, v0)
END

SUBROUTINE proc511(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (9 .EQ. g2) THEN
    DO v1 = 0, 0
      f1 = max(g2, v1)
      f0 = abs(14)
    ENDDO
  ENDIF
  IF ((-1 * la(8)) .EQ. max(-3, 4) .OR. 5 .EQ. f1) THEN
    IF (-3 .GT. la(10)) THEN
      PRINT *, 15
    ENDIF
    IF (.NOT. ((4 - la(7)) .GT. (la(2) - la(7)))) v2 = 15
  ENDIF
  f1 = (v1 + max(la(1), -5))
  CALL proc512(6, (0 + (la(6) + f1)))
END

SUBROUTINE proc512(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 10
  v2 = 1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(-2, 4) .NE. abs(la(3))) v2 = (4 * -5)
  CALL proc513((0 + la(7)))
END

SUBROUTINE proc513(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v1 = 3, 5
    g3 = 5
    IF ((la(6) - 10) .LE. 10 .AND. 7 .EQ. -5) g2 = max(v1, la(7))
  ENDDO
  f0 = (mod(la(6), 3) - la(10))
  g0 = 6
  v1 = ((v0 - 8) - 10)
  v1 = (g1 - 4)
  la(7) = v0
  IF (2 .NE. (g3 - 0) .OR. (g2 - 7) .LE. v0) g0 = 15
  IF (0 .NE. mod(la(4), 8)) THEN
    g1 = -2
  ENDIF
  PRINT *, la(9)
  DO g0 = 2, 3
    la(9) = abs(g1)
    v0 = abs(11)
  ENDDO
  CALL proc514(7, (0 + 14))
END

SUBROUTINE proc514(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = max(la(5), g2)
  f1 = ((la(9) * la(2)) / (3 + la(3)))
  g2 = la(1)
  g1 = g1
  DO g0 = 2, 3
    f1 = ((5 + la(11)) / (5 + la(5)))
  ENDDO
  PRINT *, 6
  CALL proc515(4, 2)
END

SUBROUTINE proc515(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO f1 = 3, 3
    g1 = abs(max(12, 10))
    la(12) = abs((14 + f1))
  ENDDO
  DO f1 = 0, 4
    v2 = v1
    g2 = abs(v2)
  ENDDO
  IF (13 .LT. (la(11) / (4 + la(2)))) THEN
    PRINT *, la(2)
    DO v0 = 1, 2
      la(10) = (la(3) * f0)
    ENDDO
  ENDIF
  DO g1 = 3, 4
    PRINT *, la(7)
  ENDDO
  PRINT *, (-3 - max(g0, la(1)))
  CALL proc516((f0 + 1), (0 + (f0 - -1)))
END

SUBROUTINE proc516(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = mod((v0 * 5), 8)
  DO f1 = 0, 1
    v1 = max(la(6), f0)
    g1 = -2
  ENDDO
  IF (max(-1, 3) .GE. max(la(9), 4) .OR. g2 .GE. (g3 / (5 + v0))) THEN
    g3 = g0
    g3 = (mod(2, 4) + v0)
  ENDIF
  la(5) = 15
  IF (mod(la(10), 7) .GE. max(g0, -5) .AND. (la(11) * 3) .LE. 11) THEN
    f0 = mod(mod(g0, 7), 4)
  ELSE
    f0 = (10 - 11)
    g3 = la(1)
  ENDIF
  IF ((4 * -4) .EQ. 5 .OR. f0 .LE. (la(1) + 11)) f1 = (5 * la(1))
  la(7) = max(g2, 5)
  CALL proc517((0 + mod(la(4), 5)), (0 + max(2, la(10))))
END

SUBROUTINE proc517(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = (12 / (3 + 4))
  PRINT *, la(10)
  IF (max(2, 10) .LT. (f0 / (5 + la(2)))) THEN
    v0 = (la(7) - max(la(10), la(2)))
    g0 = la(8)
  ELSE
    v0 = max(2, -4)
  ENDIF
  la(7) = max(2, 14)
  v2 = (la(3) / (2 + la(7)))
  v3 = mod(la(9), 6)
  la(6) = f0
  DO g1 = 2, 3
    v1 = la(4)
    la(6) = g1
  ENDDO
  f0 = max(la(10), f0)
  g1 = mod(g0, 7)
  CALL proc518(4)
END

SUBROUTINE proc518(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (9 - (8 + 10))
  v1 = v0
  v0 = ((11 / (2 + 7)) + (3 / (4 + la(4))))
  la(7) = -4
  IF ((-4 + f0) .GT. (15 / (3 + la(3)))) THEN
    g2 = 12
    IF (-3 .GT. (f0 - v0)) THEN
      v1 = ((la(3) - f0) * 10)
    ENDIF
  ENDIF
  IF ((g0 * 3) .GT. (-4 - v1)) THEN
    g0 = (abs(g0) + (-4 - f0))
    g2 = mod((v0 / (3 + 0)), 3)
  ELSE
    PRINT *, la(4)
  ENDIF
  f0 = -5
  CALL proc519(5, 11)
END

SUBROUTINE proc519(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 3
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v0 = 2, 2
    f1 = mod((-2 / (2 + la(7))), 3)
  ENDDO
  g2 = v2
  g0 = (abs(11) / (6 + la(11)))
  CALL proc520(7, v1)
END

SUBROUTINE proc520(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = (f0 - max(la(7), 4))
  CALL proc521(4)
END

SUBROUTINE proc521(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = (v1 - 15)
  IF (.NOT. (max(-3, 4) .LE. g2)) g1 = max(0, 8)
  CALL proc522((f0 + 1))
END

SUBROUTINE proc522(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 4
  v2 = 12
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = (7 * g2)
  DO g1 = 0, 1
    DO g0 = 1, 3
      g3 = mod((-2 - g3), 6)
      f0 = max(5, 5)
    ENDDO
    g2 = (mod(15, 6) / (5 + f0))
  ENDDO
  IF (g2 .NE. (-4 * 11)) THEN
    g3 = (g1 / (6 + -3))
    f0 = abs(0)
  ENDIF
  g0 = 8
  g1 = (7 - (la(11) * 2))
  PRINT *, (max(la(12), v2) - abs(g1))
  PRINT *, ((-3 - -4) / (3 + -4))
  la(6) = (max(8, g2) + mod(g1, 7))
  v2 = max(12, la(7))
  CALL proc523(5, (0 + abs(g2)))
END

SUBROUTINE proc523(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 1, 5
    f0 = max(-3, -5)
    g0 = -2
  ENDDO
  v0 = max(1, 5)
  f0 = -3
  g3 = max(la(6), la(11))
  PRINT *, ((g0 * la(7)) - (9 * f0))
  PRINT *, -1
  CALL proc524(5)
END

SUBROUTINE proc524(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, g0
  la(7) = 0
  g2 = (g3 * la(12))
  la(8) = ((-1 - -3) - g1)
  g3 = ((6 * -3) / (5 + 2))
  CALL proc525(7)
END

SUBROUTINE proc525(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 8
  DO g1 = 3, 4
    la(2) = mod(abs(g1), 8)
  ENDDO
  v1 = (abs(v0) * 5)
  v0 = ((5 + la(7)) / (4 + 10))
  g3 = f0
  g2 = (12 * la(4))
  CALL proc526(7)
END

SUBROUTINE proc526(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(11) = 4
  CALL proc527((f0 + 1), 0)
END

SUBROUTINE proc527(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = max(12, 13)
  IF ((la(5) - -2) .NE. g3 .AND. (5 * la(1)) .LT. la(11)) v0 = la(4)
  PRINT *, la(6)
  CALL proc528((0 + g0))
END

SUBROUTINE proc528(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 12
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (mod(f0, 3) * 15)
  DO v1 = 0, 2
    PRINT *, max(-1, la(7))
    IF (.NOT. (f0 .NE. abs(v1))) THEN
      v2 = max(g0, -5)
      v0 = g2
    ELSE
      g1 = la(9)
      la(5) = ((8 + 1) - (5 - 15))
    ENDIF
  ENDDO
  IF (mod(g0, 4) .GE. -1) v0 = 6
  g0 = 12
  DO g1 = 3, 6
    g3 = 9
    v2 = -1
  ENDDO
  IF ((-5 - 14) .GT. (la(11) * 14)) g3 = -5
  DO v2 = 3, 7
    v1 = max(la(10), -4)
    DO g3 = 1, 5
      PRINT *, ((la(9) + 2) - (13 * 12))
    ENDDO
  ENDDO
  la(6) = max(la(2), 2)
  IF (la(11) .LT. -3 .AND. 9 .LT. mod(13, 3)) g1 = la(4)
  CALL proc529(4)
END

SUBROUTINE proc529(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g0 = 3, 4
    IF (.NOT. ((la(5) - 10) .LE. 8)) THEN
      la(6) = (la(9) - -5)
    ELSE
      g1 = ((11 + -3) * 15)
      g3 = max(2, la(9))
    ENDIF
  ENDDO
  g1 = la(7)
  IF (g1 .GE. max(7, 15) .OR. max(10, -1) .GE. 7) f0 = mod(v0, 6)
  v2 = -1
  g2 = ((la(3) + la(11)) / (2 + 13))
  IF ((10 / (5 + g3)) .GE. 2 .OR. la(5) .LT. (-3 * la(5))) v2 = (0 - la(2))
  CALL proc530((f0 + 1))
END

SUBROUTINE proc530(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = (g1 - g3)
  IF (.NOT. (0 .LE. v0)) THEN
    g0 = ((13 / (6 + 11)) + abs(2))
  ENDIF
  IF (mod(g3, 5) .GE. g2) g3 = (v1 / (4 + g2))
  g2 = mod((la(1) * g1), 8)
  DO g0 = 3, 3
    v0 = 2
    DO f0 = 0, 1
      v1 = -2
      PRINT *, mod(-4, 4)
    ENDDO
  ENDDO
  g0 = (6 / (2 + la(1)))
  f0 = (g3 / (4 + 12))
  IF (la(2) .NE. (6 + 7) .OR. 15 .LE. 7) v0 = (la(9) - la(7))
  CALL proc531((0 + 7), (0 + max(-3, 4)))
END

SUBROUTINE proc531(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 13
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = abs((la(10) / (5 + la(6))))
  DO g3 = 2, 6
    g2 = 14
    v0 = (g1 + la(3))
  ENDDO
  g1 = -4
  IF (-4 .GE. max(1, v0)) THEN
    g3 = 12
    g2 = 14
  ELSE
    v0 = -3
  ENDIF
  DO g3 = 1, 2
    g1 = g0
    IF (la(5) .LE. mod(12, 2) .AND. 11 .LT. la(1)) f1 = v1
  ENDDO
  IF (mod(8, 4) .GT. max(13, 14)) g1 = g3
  IF (max(f0, 10) .EQ. max(f0, 7) .AND. 15 .GE. 3) THEN
    v2 = ((la(12) + v1) - max(la(10), 11))
  ELSE
    g0 = 3
    DO g1 = 3, 6
      g0 = -2
    ENDDO
  ENDIF
  f1 = 15
  CALL proc532(7)
END

SUBROUTINE proc532(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 12
  v2 = 10
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (max(-2, f0) .LT. la(9) .OR. abs(la(1)) .GE. abs(v2)) THEN
    la(6) = 2
  ELSE
    DO g1 = 2, 6
      g0 = 0
    ENDDO
    PRINT *, (1 * -4)
  ENDIF
  v2 = ((1 - g1) * 5)
  PRINT *, v3
  CALL proc533((f0 + 1), v1)
END

SUBROUTINE proc533(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (f0 .GT. mod(1, 3)) g0 = max(g3, la(2))
  CALL proc534((f0 + 1), (0 + -5))
END

SUBROUTINE proc534(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 12
  v2 = -3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = la(2)
  g1 = 2
  f0 = g1
  g1 = (max(1, 5) * 4)
  f0 = la(6)
  g1 = g1
  g2 = (f1 / (3 + 5))
  DO f0 = 3, 6
    IF (.NOT. (abs(la(10)) .LE. (8 + v3))) v0 = max(v1, la(1))
    IF (mod(la(11), 7) .GE. -5) v2 = 14
  ENDDO
  CALL proc535(2)
END

SUBROUTINE proc535(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (la(3) .GT. (14 * 12))) THEN
    la(8) = v0
  ENDIF
  g0 = 1
  IF (-2 .GE. max(g3, 6)) THEN
    IF (abs(la(4)) .GE. 8) v1 = -3
  ENDIF
  g1 = 9
  IF (abs(la(9)) .GE. g3) THEN
    IF ((la(2) / (3 + la(2))) .GE. max(0, g1)) THEN
      g2 = (-4 + 10)
    ENDIF
  ENDIF
  la(5) = g2
  IF (.NOT. ((v2 * v1) .GE. la(3))) v0 = abs(v1)
  DO f0 = 0, 4
    PRINT *, v2
  ENDDO
  IF (abs(la(8)) .GE. 2 .OR. 3 .LT. -5) v1 = la(2)
  f0 = (-2 + (la(5) - -5))
  CALL proc536((0 + mod(v1, 2)), (0 + v1))
END

SUBROUTINE proc536(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = -3
  CALL proc537(7, f0)
END

SUBROUTINE proc537(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 5
  v2 = 0
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = 15
  IF (la(3) .LE. max(0, g1)) THEN
    IF (.NOT. (-1 .GE. la(9))) THEN
      PRINT *, g1
      f0 = abs(v3)
    ENDIF
    la(2) = mod((la(2) - 14), 6)
  ENDIF
  v0 = (mod(g0, 4) / (3 + 5))
  g3 = ((v3 + la(1)) + 5)
  CALL proc538((0 + v0))
END

SUBROUTINE proc538(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = (g2 * g1)
  DO v1 = 3, 6
    DO g3 = 1, 4
      g0 = mod((f0 + -5), 2)
      f0 = 0
    ENDDO
  ENDDO
  IF (abs(0) .GE. abs(g2)) g3 = la(11)
  g2 = ((5 - -1) + (-4 * 0))
  g0 = max(g2, 4)
  IF (.NOT. (max(g2, 14) .NE. (g0 + -3))) THEN
    f0 = mod(g2, 3)
    g2 = mod(max(la(2), g0), 4)
  ENDIF
  IF (v1 .GT. max(2, -3) .AND. (f0 * g3) .EQ. max(9, g0)) THEN
    IF (abs(-4) .NE. (6 / (6 + 2)) .OR. (-4 + -1) .GT. max(12, 10)) THEN
      PRINT *, max(g3, -1)
      PRINT *, (max(la(12), g3) * 0)
    ELSE
      v1 = -3
      g1 = -3
    ENDIF
  ELSE
    g0 = -4
    la(1) = mod(9, 2)
  ENDIF
  g1 = mod(la(8), 8)
  v1 = max(f0, la(7))
  f0 = 12
  CALL proc539((0 + max(15, v0)), v0)
END

SUBROUTINE proc539(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = -4
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = ((1 * 8) - (3 + la(9)))
  v2 = (g1 + (g3 * 10))
  g3 = mod((g2 / (5 + la(11))), 5)
  CALL proc540((f0 + 1))
END

SUBROUTINE proc540(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -2
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (abs(10) + 7)
  v0 = abs(mod(-4, 5))
  IF (.NOT. (la(8) .GE. la(12))) v0 = 12
  DO v2 = 2, 6
    IF (max(g1, g2) .EQ. (9 / (2 + la(12)))) v1 = 7
  ENDDO
  CALL proc541(7)
END

SUBROUTINE proc541(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = f0
  CALL proc542(4, v1)
END

SUBROUTINE proc542(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(5) = g2
  PRINT *, (f1 / (3 + la(10)))
  IF (.NOT. (g1 .EQ. max(la(4), -2))) THEN
    g0 = max(la(11), la(1))
    v1 = (max(g1, g3) / (2 + 6))
  ELSE
    f1 = max(-1, -2)
    g2 = v1
  ENDIF
  CALL proc543((0 + (la(5) / (2 + f1))))
END

SUBROUTINE proc543(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = g1
  CALL proc544((f0 + 1))
END

SUBROUTINE proc544(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = (g0 / (5 + 0))
  v1 = 7
  g3 = (6 / (6 + 11))
  CALL proc545(6)
END

SUBROUTINE proc545(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -3
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g2 .EQ. mod(v2, 7) .AND. g0 .EQ. 12) v0 = max(la(12), -1)
  CALL proc546(7)
END

SUBROUTINE proc546(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 2
  v2 = 9
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = (g1 / (3 + la(4)))
  IF (g1 .GT. la(5)) v2 = v1
  CALL proc547(5, (0 + 6))
END

SUBROUTINE proc547(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 0
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = la(5)
  CALL proc548(5, 8)
END

SUBROUTINE proc548(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 9
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = g0
  IF (v2 .EQ. v0 .AND. (la(1) - 7) .GT. g0) THEN
    f1 = ((la(1) - g1) * la(6))
    DO f1 = 1, 5
      g0 = la(10)
      IF (g0 .LT. (7 - -5) .OR. (10 / (5 + 11)) .GT. 4) f0 = 1
    ENDDO
  ELSE
    IF ((7 + la(2)) .EQ. 0 .OR. mod(2, 7) .LE. 5) THEN
      la(7) = (12 - (6 + 1))
    ENDIF
    f0 = ((la(7) * la(11)) + (13 * v1))
  ENDIF
  v1 = 1
  DO g1 = 2, 3
    IF (.NOT. (v2 .GE. abs(v1))) THEN
      la(9) = ((9 - la(6)) - (v1 + la(7)))
    ELSE
      PRINT *, abs(11)
    ENDIF
  ENDDO
  g2 = 15
  g0 = max(la(7), 15)
  v1 = mod(f1, 4)
  IF (v0 .LE. max(f0, la(9)) .AND. 7 .LT. (5 / (3 + 10))) THEN
    g3 = (mod(14, 4) - f1)
  ENDIF
  CALL proc549(3, (0 + (4 / (2 + 0))))
END

SUBROUTINE proc549(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 8
  v2 = 10
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v2 = 2, 2
    la(12) = (14 - max(la(7), g3))
  ENDDO
  g1 = v3
  f1 = 8
  v2 = mod(abs(la(11)), 3)
  v0 = abs(f0)
  DO g2 = 1, 5
    f1 = -5
    v2 = la(7)
  ENDDO
  g2 = max(la(3), la(10))
  v3 = mod(6, 8)
  CALL proc550((f0 + 1), f1)
END

SUBROUTINE proc550(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 14
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = ((v1 - v0) + (la(7) - v0))
  v2 = 11
  g0 = 2
  DO g1 = 3, 7
    g2 = ((g0 / (4 + 6)) * 15)
    f0 = (la(5) + mod(6, 3))
  ENDDO
  CALL proc551((0 + la(3)), v0)
END

SUBROUTINE proc551(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = 6
  g3 = abs(max(8, v1))
  f1 = f0
  IF (8 .GT. mod(la(6), 2) .OR. 14 .GT. 12) g0 = mod(f1, 4)
  PRINT *, la(10)
  la(10) = ((8 / (3 + la(6))) / (2 + 0))
  v0 = (mod(5, 3) / (4 + f0))
  DO f0 = 0, 0
    IF (max(-4, 11) .LE. 7 .AND. (6 * 6) .NE. 8) THEN
      la(4) = la(9)
    ELSE
      PRINT *, la(8)
      v0 = 1
    ENDIF
    DO v1 = 2, 2
      PRINT *, 9
    ENDDO
  ENDDO
  IF (-3 .GE. -5) g3 = f1
  CALL proc552((0 + 12))
END

SUBROUTINE proc552(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 7
  v2 = -2
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = mod((4 / (3 + -1)), 4)
  v2 = la(1)
  g1 = la(1)
  DO v0 = 0, 2
    IF ((v0 + v2) .NE. la(7) .AND. (-5 + g2) .GT. (-5 / (6 + v1))) THEN
      PRINT *, la(5)
      la(8) = (v0 + (g1 / (2 + -2)))
    ELSE
      v3 = la(2)
      g2 = ((la(11) - 6) * v3)
    ENDIF
    la(2) = g2
  ENDDO
  CALL proc553(4, (0 + max(la(3), 14)))
END

SUBROUTINE proc553(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = ((f0 * la(2)) - abs(6))
  CALL proc554((0 + mod(0, 2)))
END

SUBROUTINE proc554(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = (-4 + (la(3) * v2))
  PRINT *, ((v0 + v1) / (2 + la(2)))
  IF (.NOT. (g0 .NE. la(7))) g0 = la(8)
  v2 = g1
  IF (max(la(3), -2) .GE. (la(1) * g2)) THEN
    g3 = 6
    DO v2 = 1, 2
      v0 = la(3)
      IF (10 .NE. (10 / (2 + 3))) f0 = -3
    ENDDO
  ENDIF
  g3 = 11
  CALL proc555((f0 + 1), v2)
END

SUBROUTINE proc555(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (v0 + (10 - v1))
  PRINT *, abs(-4)
  PRINT *, ((2 + 15) - 4)
  IF (.NOT. (f0 .GE. mod(g3, 8))) v1 = 5
  CALL proc556(6, (0 + la(10)))
END

SUBROUTINE proc556(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((-3 * la(10)) .NE. (5 + la(10)))) THEN
    f0 = f0
  ELSE
    PRINT *, (v2 * la(6))
    v0 = 0
  ENDIF
  la(11) = (mod(g1, 6) / (4 + f1))
  PRINT *, (max(-4, 4) - la(11))
  PRINT *, 6
  f0 = f1
  IF (12 .EQ. g3 .AND. mod(la(7), 4) .GT. max(1, v2)) v1 = -5
  IF ((8 / (6 + 8)) .NE. abs(-3) .OR. 11 .EQ. (8 + 1)) v2 = (14 * la(5))
  v1 = g0
  la(7) = (la(3) / (6 + 1))
  CALL proc557(3, v1)
END

SUBROUTINE proc557(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (f1 .EQ. (6 * -5)) THEN
    v1 = 13
  ELSE
    DO g2 = 0, 1
      v1 = 12
    ENDDO
  ENDIF
  g0 = -2
  IF (la(5) .LE. (la(8) + 3) .OR. -1 .GE. 5) v0 = (la(5) * la(8))
  v1 = abs(-1)
  PRINT *, mod(-5, 5)
  PRINT *, la(4)
  g1 = -4
  g2 = v1
  IF (.NOT. (mod(v0, 6) .EQ. mod(v0, 3))) g3 = max(v1, 15)
  g1 = f1
  CALL proc558((f0 + 1))
END

SUBROUTINE proc558(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 0
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (8 - la(4))
  la(6) = g1
  g0 = abs(abs(11))
  PRINT *, (la(10) - 14)
  g1 = g0
  CALL proc559(4, 1)
END

SUBROUTINE proc559(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -1
  v2 = 8
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = max(8, -1)
  CALL proc560(7, v3)
END

SUBROUTINE proc560(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((-5 / (4 + 14)) .GE. g0) THEN
    IF (-1 .GT. f1) THEN
      IF (.NOT. ((1 + 2) .EQ. (v0 / (3 + -5)))) g0 = la(8)
    ELSE
      g2 = (la(2) + 6)
    ENDIF
  ENDIF
  v0 = (7 / (2 + 14))
  PRINT *, ((v1 - 0) + mod(14, 5))
  la(1) = v0
  g2 = -3
  v1 = -3
  IF ((la(10) + g1) .LE. (13 + 8) .OR. 4 .LE. max(3, g2)) THEN
    v1 = (3 - (la(11) / (6 + g2)))
  ELSE
    g3 = (5 + (v1 - g2))
  ENDIF
  v2 = -5
  CALL proc561(2, v1)
END

SUBROUTINE proc561(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(2) = mod((la(10) * g3), 6)
  v1 = mod((v2 * 6), 2)
  f1 = ((la(1) / (2 + g0)) * 1)
  IF (mod(2, 7) .GT. (-1 / (2 + 9)) .AND. (-1 + 12) .LT. mod(la(2), 5)) THEN
    f1 = g0
    IF (mod(v2, 6) .NE. g3 .OR. g1 .NE. -3) v0 = abs(la(9))
  ENDIF
  PRINT *, -2
  CALL proc562((f0 + 1))
END

SUBROUTINE proc562(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 9
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (abs(0) - (v2 * la(3)))
  g3 = v2
  f0 = 6
  PRINT *, max(-5, -4)
  la(2) = 5
  v0 = abs(max(g3, la(12)))
  IF ((la(1) / (4 + 0)) .EQ. abs(6) .AND. 1 .EQ. la(5)) f0 = mod(-3, 3)
  v0 = ((9 - 9) + la(1))
  IF (abs(g3) .EQ. (0 + v2) .AND. mod(la(11), 2) .GT. 4) v0 = 4
  CALL proc563((f0 + 1))
END

SUBROUTINE proc563(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -2
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = (mod(15, 3) - (la(7) - 14))
  g2 = 11
  v1 = f0
  v2 = ((-5 + -2) - (v1 / (2 + 10)))
  IF (la(3) .EQ. (g2 * f0) .AND. 8 .LE. (15 / (3 + 8))) g3 = v2
  PRINT *, la(9)
  IF (12 .GT. la(7) .OR. f0 .LE. 2) THEN
    PRINT *, mod(6, 3)
  ELSE
    IF (.NOT. (max(la(7), g0) .LT. 15)) v2 = 8
  ENDIF
  CALL proc564(3, v0)
END

SUBROUTINE proc564(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 12
  v2 = -2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = (v2 + (9 + la(3)))
  CALL proc565((f0 + 1), 5)
END

SUBROUTINE proc565(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = ((9 / (4 + 13)) / (4 + -5))
  DO g3 = 1, 1
    v0 = la(10)
    DO v1 = 1, 1
      g0 = mod(mod(la(12), 6), 5)
    ENDDO
  ENDDO
  IF (g3 .EQ. abs(g1)) THEN
    DO g0 = 2, 5
      f0 = f0
    ENDDO
  ELSE
    PRINT *, la(12)
    v0 = -4
  ENDIF
  v1 = max(1, 15)
  g3 = v0
  la(7) = 5
  DO f0 = 2, 6
    IF ((la(9) + 11) .EQ. max(4, f1)) g0 = (g3 - 14)
  ENDDO
  v1 = ((g0 * la(11)) / (6 + 3))
  la(10) = (mod(-3, 3) / (4 + -4))
  CALL proc566((f0 + 1))
END

SUBROUTINE proc566(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -3
  v2 = 1
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = mod(la(8), 2)
  g1 = 7
  IF (mod(10, 5) .LT. la(6) .AND. abs(-3) .GT. (g2 / (6 + 4))) THEN
    v0 = ((6 + 8) * v2)
  ENDIF
  f0 = (f0 / (4 + 9))
  g0 = la(4)
  DO v3 = 2, 6
    g1 = abs(la(6))
  ENDDO
  PRINT *, (7 + abs(11))
  g0 = la(11)
  la(7) = -5
  v0 = (14 + mod(4, 3))
  CALL proc567((0 + (-5 / (2 + 14))))
END

SUBROUTINE proc567(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 11
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = abs(max(v2, -5))
  la(3) = la(4)
  IF (g2 .NE. (13 * -1) .AND. la(11) .EQ. 6) g0 = (-2 * g0)
  IF (la(11) .LE. max(v2, 1)) g3 = (1 * g3)
  CALL proc568(3)
END

SUBROUTINE proc568(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 1
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, ((g3 - 1) - (g0 + g1))
  la(11) = (max(g1, v3) + 7)
  IF (.NOT. (mod(la(12), 3) .GE. abs(9))) g2 = la(9)
  g2 = (mod(la(11), 5) * 1)
  IF ((-5 / (6 + v1)) .GT. (14 + g0)) THEN
    la(9) = (max(3, 3) / (3 + v3))
  ENDIF
  IF (.NOT. (2 .EQ. 3)) v2 = g2
  CALL proc569((0 + (-2 * 10)), v2)
END

SUBROUTINE proc569(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = g2
  IF (mod(v0, 2) .EQ. -5 .AND. (5 - la(7)) .EQ. 4) g1 = mod(15, 7)
  g0 = -1
  PRINT *, la(11)
  g0 = (max(4, 5) + (6 * f1))
  v0 = la(2)
  v0 = (g1 * f1)
  v0 = (abs(-2) + g0)
  CALL proc570((0 + la(6)), v0)
END

SUBROUTINE proc570(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = max(10, g2)
  g0 = v0
  f0 = mod(g0, 5)
  la(5) = 2
  g0 = (7 - abs(9))
  v1 = (max(g3, 3) + (la(11) * la(1)))
  g0 = 8
  g0 = (g1 * la(11))
  CALL proc571((0 + 0))
END

SUBROUTINE proc571(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = 2
  v0 = (la(1) - v1)
  CALL proc572((f0 + 1), v1)
END

SUBROUTINE proc572(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 0
  v2 = -4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(1) = 7
  v1 = abs(v2)
  CALL proc573(5, (0 + la(11)))
END

SUBROUTINE proc573(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 7
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, abs((12 - la(10)))
  PRINT *, v2
  f1 = 13
  la(3) = g0
  g1 = ((8 / (4 + la(9))) - g2)
  IF (.NOT. ((5 - -3) .LE. abs(8))) v1 = 10
  g2 = ((15 + -4) + (v0 / (5 + la(10))))
  v1 = la(9)
  CALL proc574(6, f1)
END

SUBROUTINE proc574(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = -4
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = g0
  PRINT *, (abs(la(9)) - mod(8, 8))
  v3 = 11
  IF ((2 + la(4)) .GT. max(la(11), la(8)) .OR. abs(la(1)) .NE. f1) f1 = g0
  la(2) = (15 * 6)
  CALL proc575(4)
END

SUBROUTINE proc575(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = 12
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 1, 4
    v0 = 12
  ENDDO
  g1 = la(9)
  CALL proc576((f0 + 1), v2)
END

SUBROUTINE proc576(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(7) = ((g2 * g2) + 15)
  IF (.NOT. (12 .LE. 6)) THEN
    g0 = (14 + -4)
  ELSE
    v2 = 2
  ENDIF
  CALL proc577(5, v2)
END

SUBROUTINE proc577(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 12
  v2 = -2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (la(11) / (2 + 12))
  g2 = la(7)
  v0 = 14
  IF ((la(10) / (2 + f1)) .EQ. (5 + v3) .AND. v1 .GE. la(4)) g0 = (10 / (4 + 8))
  f1 = la(5)
  v3 = (1 - (9 * v2))
  f1 = 13
  DO v1 = 3, 3
    la(6) = la(11)
    IF ((11 * 11) .NE. v1) THEN
      la(2) = mod(la(3), 2)
    ELSE
      IF (.NOT. (2 .GT. max(-5, la(8)))) g0 = (f1 * 5)
      v3 = -4
    ENDIF
  ENDDO
  v0 = 0
  PRINT *, 10
  CALL proc578((0 + g2))
END

SUBROUTINE proc578(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v1 = 3, 3
    v0 = 2
  ENDDO
  g2 = g2
  v1 = (abs(10) / (2 + 14))
  DO g2 = 0, 0
    f0 = (15 + g0)
    IF (max(0, -2) .EQ. (f0 / (5 + -5)) .OR. max(g1, g0) .LT. (11 * la(12))) v1 = max(v1, la(10))
  ENDDO
  IF (mod(8, 4) .NE. mod(8, 4)) g3 = abs(-4)
  IF (.NOT. (la(9) .GE. (la(7) - la(2)))) v0 = (13 + g1)
  IF (max(la(1), 4) .GT. 15) THEN
    g2 = 5
    PRINT *, la(8)
  ELSE
    g1 = 13
    g2 = la(4)
  ENDIF
  CALL proc579(4)
END

SUBROUTINE proc579(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((la(8) * v1) .LE. 4) THEN
    g0 = (12 - (la(6) + la(8)))
  ENDIF
  CALL proc580((0 + max(la(5), 11)), 3)
END

SUBROUTINE proc580(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(4, g1)
  IF ((-2 / (6 + -1)) .LT. 2) THEN
    DO g0 = 0, 1
      g3 = (-4 + g1)
    ENDDO
    f1 = (v0 * la(2))
  ELSE
    IF (.NOT. (la(1) .GE. 0)) THEN
      v2 = 12
    ENDIF
    DO g3 = 0, 1
      g1 = max(3, 14)
      f1 = abs(max(g3, la(4)))
    ENDDO
  ENDIF
  la(1) = g0
  CALL proc581(2, v0)
END

SUBROUTINE proc581(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = mod(mod(la(1), 7), 3)
  f1 = max(la(7), la(4))
  g1 = 9
  IF (abs(14) .LE. 15 .OR. (g0 / (2 + la(2))) .LE. la(2)) THEN
    la(4) = la(6)
    f1 = ((-1 * g3) * 2)
  ENDIF
  PRINT *, ((g1 / (3 + la(6))) * g2)
  CALL proc582(2, v1)
END

SUBROUTINE proc582(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 4
  v2 = 5
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(8) = la(4)
  la(2) = max(-5, la(7))
  DO v3 = 1, 5
    IF (.NOT. (max(15, 6) .LE. 7)) g2 = g1
  ENDDO
  f0 = mod(-2, 4)
  v2 = abs(v0)
  la(4) = -1
  CALL proc583((f0 + 1))
END

SUBROUTINE proc583(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 5
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = g0
  v0 = g3
  IF (.NOT. (g3 .EQ. 1)) v0 = 14
  la(11) = 2
  IF (.NOT. ((2 / (5 + -1)) .GE. (-1 * -1))) THEN
    DO f0 = 2, 6
      IF ((12 - 10) .EQ. 5 .OR. (-3 + 11) .GE. -5) g2 = la(1)
      v0 = g1
    ENDDO
    PRINT *, v2
  ENDIF
  IF (g0 .GE. mod(13, 6)) g3 = -5
  CALL proc584((f0 + 1), 5)
END

SUBROUTINE proc584(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = abs(3)
  CALL proc585((f0 + 1), f0)
END

SUBROUTINE proc585(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -1
  v2 = 0
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (15 .LT. -1) v1 = v3
  PRINT *, (max(14, -3) * 9)
  v1 = (la(6) - (9 * la(9)))
  g3 = (v0 - la(12))
  v1 = ((la(1) / (5 + g0)) + (9 + 14))
  CALL proc586((f0 + 1))
END

SUBROUTINE proc586(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v0 = 3, 3
    PRINT *, (-1 * 9)
    v1 = mod(la(2), 7)
  ENDDO
  g3 = (-4 - abs(v0))
  IF (9 .NE. la(1) .OR. (0 + g2) .EQ. (g0 / (6 + g1))) v2 = -2
  la(5) = la(2)
  v0 = 7
  g1 = abs((g1 * g0))
  f0 = (max(8, g3) / (5 + v2))
  v1 = max(g2, -3)
  CALL proc587((0 + la(10)), v0)
END

SUBROUTINE proc587(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = 13
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = (max(la(4), 5) * f1)
  g1 = 12
  DO v3 = 3, 7
    v2 = -3
    g2 = (4 - f1)
  ENDDO
  DO g0 = 0, 4
    v2 = f0
    v0 = mod(mod(7, 8), 6)
  ENDDO
  IF (.NOT. ((9 + 15) .LT. 3)) THEN
    v2 = -3
    v1 = -4
  ENDIF
  PRINT *, abs(-4)
  g1 = -5
  f0 = abs(la(12))
  v3 = -3
  CALL proc588((f0 + 1), v3)
END

SUBROUTINE proc588(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 2, 6
    DO f1 = 3, 6
      v1 = g3
      g3 = (-1 * -5)
    ENDDO
    DO v1 = 3, 3
      g0 = 6
    ENDDO
  ENDDO
  g0 = mod(g3, 6)
  CALL proc589((f0 + 1), (0 + (-4 * la(10))))
END

SUBROUTINE proc589(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = abs(2)
  IF ((-4 + -5) .GT. la(5) .AND. (4 / (3 + -3)) .GE. 1) g1 = max(la(10), la(4))
  la(10) = ((-1 + la(6)) / (4 + la(2)))
  g3 = (8 * la(8))
  IF (.NOT. (g2 .LE. (-1 + 12))) THEN
    la(12) = mod(mod(la(1), 5), 2)
    PRINT *, -1
  ELSE
    g0 = (12 - 9)
    DO f0 = 3, 5
      v1 = (abs(g2) * -2)
    ENDDO
  ENDIF
  DO f1 = 2, 2
    g0 = max(8, -3)
    g0 = la(12)
  ENDDO
  g2 = 13
  v0 = 15
  IF (f0 .EQ. (-4 + 13) .OR. (2 * 0) .LE. mod(la(11), 4)) f1 = (la(5) - 11)
  CALL proc590(4, -1)
END

SUBROUTINE proc590(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 8
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(7) * 10) .NE. 14) f0 = 0
  CALL proc591((f0 + 1))
END

SUBROUTINE proc591(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(2, 8) .GT. 6 .OR. (g0 * 4) .LE. la(2)) THEN
    g2 = mod((-5 + 0), 5)
  ENDIF
  IF (abs(4) .NE. 2 .AND. max(f0, 11) .LE. 12) THEN
    g2 = la(3)
    DO g0 = 1, 3
      g3 = -5
      v1 = (4 + la(1))
    ENDDO
  ELSE
    PRINT *, (1 / (6 + f0))
  ENDIF
  PRINT *, (max(la(5), 13) + (-2 - 14))
  g0 = g3
  g3 = g3
  v0 = (6 - 11)
  PRINT *, (max(f0, 2) * g3)
  IF ((la(7) + 6) .EQ. (la(1) - la(1)) .OR. (la(2) - 1) .EQ. max(12, 10)) g1 = (-4 - 12)
  CALL proc592(6)
END

SUBROUTINE proc592(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 3
  v2 = 0
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (mod(la(2), 4) + (7 / (6 + g2)))
  v1 = ((4 * la(9)) + (4 - g0))
  PRINT *, la(8)
  v2 = 8
  CALL proc593(5, 0)
END

SUBROUTINE proc593(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -3
  v2 = 13
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = v1
  PRINT *, ((1 * 13) + (g0 * f1))
  la(7) = f1
  DO f0 = 3, 3
    PRINT *, mod((la(1) * 13), 5)
  ENDDO
  CALL proc594((0 + la(1)), 11)
END

SUBROUTINE proc594(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -1
  v2 = 4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (la(1) .GE. mod(8, 2))) THEN
    g1 = abs((la(11) + 2))
    f1 = 11
  ELSE
    la(8) = v0
  ENDIF
  v1 = mod(mod(la(6), 2), 8)
  IF ((g2 + la(11)) .GE. 11 .OR. (9 / (5 + -1)) .LT. 12) g0 = (la(6) + -1)
  la(2) = v2
  v2 = (f1 - 5)
  f0 = -5
  v0 = (la(1) * -3)
  g1 = la(10)
  DO g1 = 2, 4
    v0 = (abs(13) + mod(v3, 6))
  ENDDO
  CALL proc595(2)
END

SUBROUTINE proc595(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (la(9) / (6 + v0))
  DO g3 = 2, 4
    g1 = 1
  ENDDO
  IF ((g2 / (3 + 11)) .GT. 15 .OR. (v1 * la(1)) .GE. 11) g1 = -4
  g0 = f0
  IF ((2 / (2 + 4)) .NE. (la(10) / (5 + 14)) .AND. (g3 / (2 + 5)) .LT. (v1 / (2 + la(3)))) THEN
    IF (la(1) .NE. -1 .OR. mod(g3, 7) .EQ. g2) THEN
      f0 = (abs(9) + abs(9))
      PRINT *, la(4)
    ENDIF
    v0 = max(6, 0)
  ENDIF
  f0 = 8
  v1 = ((la(2) * 11) - -2)
  g0 = (1 - 10)
  f0 = v1
  CALL proc596((0 + abs(g0)))
END

SUBROUTINE proc596(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 2
  v2 = 9
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, abs(-3)
  IF (.NOT. (3 .LE. mod(la(7), 7))) THEN
    DO v2 = 3, 5
      g1 = -2
    ENDDO
  ENDIF
  CALL proc597((0 + abs(3)), v0)
END

SUBROUTINE proc597(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = ((g1 - f1) + 2)
  v1 = (la(5) * 15)
  f1 = la(2)
  CALL proc598((f0 + 1), v1)
END

SUBROUTINE proc598(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, max(7, 0)
  IF (g1 .GT. abs(g0)) v1 = la(8)
  IF ((f1 * -4) .GT. (la(2) + 3) .OR. (10 * 7) .LE. max(v2, 1)) g2 = f0
  IF (-2 .LE. (0 * 7) .AND. (v0 / (4 + la(10))) .LT. la(5)) g3 = la(10)
  g2 = g2
  CALL proc599(6)
END

SUBROUTINE proc599(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = abs(13)
  PRINT *, abs(mod(-2, 4))
  IF (.NOT. (2 .EQ. max(la(12), v0))) THEN
    g2 = (g3 * 10)
    IF (max(-1, g1) .EQ. max(-4, la(11))) v0 = la(9)
  ELSE
    IF (.NOT. (10 .EQ. (-5 / (2 + -1)))) v1 = (v0 - 13)
  ENDIF
  la(4) = g3
  IF ((9 * 4) .LT. 12 .OR. mod(-4, 6) .EQ. 3) g3 = mod(1, 6)
  g0 = max(2, la(12))
  IF (5 .NE. (la(9) - 1) .OR. -4 .EQ. g0) THEN
    la(11) = ((la(9) / (5 + 6)) - (10 / (4 + la(2))))
    v0 = (-5 / (5 + -1))
  ELSE
    g1 = abs((la(12) / (3 + -1)))
  ENDIF
  v0 = max(v0, 5)
  IF (14 .LE. (4 + 2) .AND. (la(5) / (6 + 12)) .EQ. 12) g2 = (v1 - f0)
  DO v1 = 2, 2
    DO g0 = 0, 1
      g1 = ((-4 + g1) - (-4 / (4 + la(7))))
      g2 = mod(mod(la(1), 4), 6)
    ENDDO
  ENDDO
  CALL proc600(6)
END

SUBROUTINE proc600(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 11
  v2 = -2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v3 = la(10)
  g0 = mod(mod(-5, 5), 4)
  IF ((f0 + 0) .LT. la(5)) v1 = v1
  f0 = (5 * la(4))
  v3 = 4
  IF ((v2 - la(6)) .EQ. (g3 + g2)) g1 = (8 + la(12))
  IF (.NOT. (3 .GE. (6 / (3 + 13)))) THEN
    g3 = max(6, 11)
    la(6) = la(11)
  ELSE
    g2 = ((g1 * g0) - abs(13))
  ENDIF
  CALL proc601((0 + (-2 + g3)), 7)
END

SUBROUTINE proc601(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (8 / (6 + 15))
  v0 = abs((4 * la(4)))
  g2 = abs(11)
  g2 = mod(abs(-2), 3)
  g0 = (mod(-4, 8) * 4)
  CALL proc602(7, f1)
END

SUBROUTINE proc602(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 14
  v2 = 9
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = 6
  IF (5 .GE. mod(10, 7) .AND. (g1 + 7) .NE. la(2)) THEN
    v0 = -5
    IF (.NOT. (3 .NE. -1)) THEN
      f1 = (0 / (2 + 7))
      IF (.NOT. (-1 .EQ. 5)) g2 = max(la(3), la(2))
    ENDIF
  ELSE
    la(2) = (abs(2) / (3 + 2))
    f0 = la(4)
  ENDIF
  v1 = ((-5 - f1) - mod(14, 5))
  CALL proc603((f0 + 1), -3)
END

SUBROUTINE proc603(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 3
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(6) = v1
  DO g3 = 1, 1
    PRINT *, la(3)
  ENDDO
  DO f0 = 1, 3
    la(11) = (v2 + 4)
    PRINT *, mod(la(3), 2)
  ENDDO
  g2 = max(v1, g0)
  v2 = mod(g2, 2)
  PRINT *, -2
  CALL proc604((f0 + 1))
END

SUBROUTINE proc604(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 12
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = ((v1 + g1) - abs(g0))
  g0 = max(12, v0)
  g1 = ((g3 * 10) - mod(-2, 2))
  g2 = 13
  IF ((v1 + 7) .LT. v0) THEN
    g1 = -3
  ENDIF
  CALL proc605((f0 + 1))
END

SUBROUTINE proc605(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 5
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = max(la(8), 2)
  CALL proc606(4)
END

SUBROUTINE proc606(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 6
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = ((la(8) + 6) / (2 + 13))
  la(12) = 14
  g1 = (g3 - abs(g3))
  v2 = la(2)
  CALL proc607(7)
END

SUBROUTINE proc607(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (5 * la(12))
  PRINT *, (la(4) * g2)
  g1 = abs((-1 + v1))
  v1 = abs((la(9) / (4 + la(9))))
  PRINT *, 4
  f0 = 3
  la(5) = -4
  g1 = (-3 / (4 + la(12)))
  PRINT *, mod(2, 6)
  CALL proc608((f0 + 1))
END

SUBROUTINE proc608(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 11
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = ((12 + g1) - 5)
  IF (13 .NE. mod(15, 8) .OR. (2 - la(6)) .NE. mod(-1, 5)) THEN
    f0 = abs(abs(g1))
    IF ((la(10) / (6 + v3)) .GE. 13 .OR. (g2 - -1) .EQ. (-3 / (2 + 12))) THEN
      v1 = (g0 - mod(7, 5))
    ELSE
      la(10) = 12
    ENDIF
  ELSE
    IF (10 .GT. 11 .OR. f0 .NE. 10) g1 = -3
    v0 = (max(g0, la(2)) - (2 - 0))
  ENDIF
  v3 = mod((la(12) / (2 + la(10))), 8)
  IF ((4 / (6 + la(8))) .LE. la(11) .OR. -3 .LE. v2) g1 = (-4 + la(9))
  PRINT *, abs(mod(12, 5))
  f0 = 10
  f0 = 11
  la(3) = 12
  CALL proc609(3)
END

SUBROUTINE proc609(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = 1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g1 = 1, 4
    v1 = abs(9)
    IF (max(v2, 13) .EQ. 5) g3 = mod(0, 7)
  ENDDO
  f0 = mod((1 + g3), 5)
  g2 = f0
  IF (g2 .NE. -1 .OR. -3 .NE. la(2)) v2 = (-2 - v2)
  v1 = mod(mod(12, 6), 2)
  PRINT *, (g0 / (3 + 0))
  DO v1 = 2, 2
    f0 = 5
    v0 = la(4)
  ENDDO
  la(10) = abs(la(4))
  CALL proc610((f0 + 1), (0 + 4))
END

SUBROUTINE proc610(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 8
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = g0
  PRINT *, (f0 - (-1 + 5))
  v2 = la(9)
  g1 = ((-1 * v1) - 12)
  f0 = la(7)
  PRINT *, (la(12) / (6 + g2))
  f1 = (9 - v2)
  CALL proc611(3)
END

SUBROUTINE proc611(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 11
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (g2 .LT. g2)) THEN
    IF (4 .NE. max(g2, 11) .AND. la(10) .GE. max(f0, 8)) THEN
      la(2) = (9 + mod(la(8), 2))
      la(9) = 15
    ELSE
      PRINT *, mod((la(12) * la(1)), 6)
    ENDIF
    IF (max(la(10), la(5)) .GE. (11 - la(5))) THEN
      v1 = -3
      v1 = (abs(la(6)) / (6 + 4))
    ELSE
      g2 = (4 + max(v0, -4))
      g3 = ((9 / (5 + la(4))) + v1)
    ENDIF
  ELSE
    la(1) = (0 - (la(9) * la(12)))
  ENDIF
  g3 = (mod(-4, 4) * la(4))
  f0 = 9
  IF ((-2 + la(10)) .EQ. 0 .OR. (la(8) - v0) .GE. (la(7) - 9)) g1 = 7
  IF (max(la(8), la(2)) .LE. (6 - v1) .OR. v0 .EQ. (2 - g0)) g1 = v0
  g1 = (4 + abs(12))
  CALL proc612((0 + 4), v2)
END

SUBROUTINE proc612(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 7
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 3, 6
    g0 = -4
  ENDDO
  CALL proc613(7)
END

SUBROUTINE proc613(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = mod((v1 * la(10)), 6)
  la(6) = v1
  PRINT *, la(12)
  v0 = 6
  f0 = 7
  v0 = max(f0, 4)
  f0 = g2
  g2 = abs((-3 - la(6)))
  CALL proc614((f0 + 1))
END

SUBROUTINE proc614(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (mod(8, 2) .LE. 10 .AND. max(1, 13) .GT. la(8)) v0 = (13 + g0)
  PRINT *, v2
  IF ((15 - la(1)) .NE. (la(7) + v0) .AND. (-3 - v1) .GE. abs(la(10))) v3 = g0
  IF (.NOT. (5 .NE. (v3 - la(12)))) g0 = mod(0, 8)
  CALL proc615(5, v2)
END

SUBROUTINE proc615(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 12
  v2 = 11
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, -4
  DO g3 = 2, 4
    DO f0 = 3, 7
      v2 = la(5)
    ENDDO
    DO v0 = 1, 5
      g0 = mod((g0 + la(12)), 4)
      g1 = mod((-1 / (6 + 6)), 7)
    ENDDO
  ENDDO
  f1 = abs(mod(la(10), 6))
  CALL proc616(5, 11)
END

SUBROUTINE proc616(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = max(11, g0)
  DO g0 = 2, 2
    g3 = (mod(-1, 2) - la(7))
  ENDDO
  g1 = mod(mod(la(11), 3), 7)
  v0 = g3
  v0 = abs(la(8))
  CALL proc617(2)
END

SUBROUTINE proc617(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, mod(f0, 7)
  DO g1 = 1, 4
    g0 = (-2 / (3 + 0))
  ENDDO
  DO v2 = 1, 1
    g3 = ((5 / (4 + v1)) + abs(7))
    la(7) = (g1 - la(9))
  ENDDO
  DO v1 = 0, 2
    DO v0 = 3, 6
      g2 = max(9, 11)
      g1 = abs((12 / (5 + g1)))
    ENDDO
  ENDDO
  v2 = 15
  IF (la(7) .EQ. g3) f0 = max(la(12), g2)
  IF (.NOT. (g0 .LT. mod(v0, 7))) g2 = mod(g3, 2)
  DO v0 = 3, 4
    v1 = abs(la(11))
  ENDDO
  DO v2 = 1, 5
    v1 = g1
  ENDDO
  DO f0 = 3, 3
    v2 = f0
  ENDDO
  CALL proc618((0 + v2), v0)
END

SUBROUTINE proc618(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, mod(abs(la(8)), 4)
  DO v0 = 3, 7
    IF (mod(-1, 6) .GT. -2 .AND. mod(v1, 4) .EQ. (f0 + 3)) v2 = la(8)
    g1 = 4
  ENDDO
  v0 = g2
  IF (la(7) .GE. 8 .AND. abs(f0) .EQ. la(6)) g2 = g3
  g3 = 14
  f0 = v0
  f0 = 5
  CALL proc619(2)
END

SUBROUTINE proc619(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = (g3 / (6 + 13))
  v0 = la(7)
  DO f0 = 1, 2
    DO v1 = 3, 5
      IF (g2 .NE. 15 .OR. g0 .NE. v0) v0 = la(8)
    ENDDO
  ENDDO
  v0 = la(6)
  f0 = g0
  DO g1 = 2, 6
    IF (g1 .EQ. 4 .AND. abs(v0) .LE. (v0 + la(7))) v1 = (10 + -4)
    g3 = abs(mod(la(6), 2))
  ENDDO
  v1 = max(g2, la(4))
  CALL proc620((f0 + 1))
END

SUBROUTINE proc620(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = la(2)
  v1 = 9
  g1 = la(9)
  f0 = 15
  IF ((-5 + -3) .GT. (la(1) / (3 + la(2))) .AND. (la(1) * g1) .EQ. mod(-2, 2)) g0 = mod(2, 6)
  DO v0 = 3, 7
    la(11) = 3
    IF (.NOT. ((12 + la(6)) .GT. la(3))) THEN
      g1 = max(la(3), -5)
      g3 = abs((1 - la(7)))
    ENDIF
  ENDDO
  v0 = -1
  CALL proc621(7)
END

SUBROUTINE proc621(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = ((g2 / (2 + v1)) * la(9))
  g2 = ((13 + la(12)) + (g1 / (3 + f0)))
  v0 = abs(max(10, -2))
  IF (v1 .EQ. 14 .OR. la(12) .LE. mod(la(9), 2)) g3 = 4
  DO v0 = 0, 0
    DO v1 = 3, 3
      g0 = mod(7, 3)
    ENDDO
    DO f0 = 3, 6
      g1 = mod(12, 2)
    ENDDO
  ENDDO
  v0 = 6
  IF (-4 .GE. 8) v0 = max(14, -1)
  DO g1 = 0, 4
    IF (mod(g1, 8) .LE. mod(g3, 6)) f0 = la(9)
    la(10) = la(12)
  ENDDO
  CALL proc622(5)
END

SUBROUTINE proc622(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 7
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO f0 = 3, 3
    IF ((4 / (2 + 8)) .LT. -1 .AND. v2 .LE. -4) g1 = (g0 * la(7))
  ENDDO
  CALL proc623(2, f0)
END

SUBROUTINE proc623(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = la(6)
  PRINT *, max(f0, la(10))
  la(2) = abs(-4)
  CALL proc624((f0 + 1))
END

SUBROUTINE proc624(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 3
  v2 = 7
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g1 = 1, 3
    DO v3 = 2, 6
      v2 = 6
    ENDDO
  ENDDO
  IF (mod(f0, 5) .EQ. (12 * 9) .AND. la(12) .NE. (9 * la(3))) g2 = (11 / (3 + la(5)))
  v2 = g0
  f0 = max(v1, 13)
  CALL proc625((0 + (-1 * la(6))))
END

SUBROUTINE proc625(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = max(v0, 13)
  v1 = max(g2, -3)
  v1 = max(13, 3)
  v1 = (max(5, f0) * v0)
  v1 = 8
  g1 = -5
  f0 = abs(mod(g1, 2))
  v0 = la(11)
  g0 = g1
  CALL proc626(2)
END

SUBROUTINE proc626(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 2
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = 2
  CALL proc627((f0 + 1))
END

SUBROUTINE proc627(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 4
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = la(6)
  DO g1 = 2, 5
    g3 = (g2 - (la(8) + 7))
    PRINT *, 7
  ENDDO
  g1 = 5
  g0 = abs(abs(5))
  IF ((la(8) - la(4)) .EQ. (10 / (5 + 14)) .OR. mod(12, 5) .EQ. 12) THEN
    g3 = v2
    PRINT *, max(f0, la(3))
  ELSE
    IF ((g2 * -2) .NE. mod(2, 2)) THEN
      la(5) = (g3 * g0)
    ENDIF
    DO v0 = 3, 7
      g3 = -4
    ENDDO
  ENDIF
  g0 = g1
  v0 = ((10 - -1) - 13)
  CALL proc628((f0 + 1))
END

SUBROUTINE proc628(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(9) = ((12 / (3 + la(9))) / (6 + g1))
  v0 = ((11 * g2) * 14)
  DO g0 = 1, 5
    IF (max(v1, la(5)) .EQ. (v0 + 6) .AND. (la(11) * la(9)) .GT. g3) g3 = (12 / (4 + 13))
    g2 = 11
  ENDDO
  la(9) = (abs(6) * 15)
  DO f0 = 3, 5
    v1 = g0
    la(2) = g0
  ENDDO
  PRINT *, 12
  g1 = (la(6) * g2)
  IF (abs(f0) .LE. 4 .AND. (la(8) + la(6)) .GE. la(12)) THEN
    PRINT *, (5 - (5 + 12))
  ELSE
    g2 = abs((la(3) / (5 + la(9))))
    la(12) = (-2 / (2 + 12))
  ENDIF
  la(4) = (v1 + max(5, -2))
  DO g3 = 1, 5
    IF (max(la(3), g0) .LE. (v1 - la(11)) .OR. v1 .LT. la(6)) THEN
      IF (g1 .NE. (6 * v0) .OR. (v0 - la(4)) .LE. (-4 / (2 + 7))) g1 = g0
      IF (15 .GT. max(g0, 11) .OR. max(g2, g2) .NE. -4) g2 = la(7)
    ELSE
      v1 = (mod(2, 6) / (6 + 10))
    ENDIF
    IF (la(3) .LE. 4) g0 = (la(5) / (6 + 4))
  ENDDO
  CALL proc629(7, 5)
END

SUBROUTINE proc629(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((-3 + la(12)) .LE. la(6))) g0 = v0
  IF (abs(9) .GE. abs(la(7)) .AND. -1 .GT. la(8)) THEN
    g2 = g3
  ENDIF
  f0 = g3
  CALL proc630(5, f0)
END

SUBROUTINE proc630(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g2 .GT. la(2)) g2 = max(15, 7)
  PRINT *, (4 / (2 + 4))
  f1 = max(la(1), -1)
  CALL proc631(4, (0 + max(6, g0)))
END

SUBROUTINE proc631(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -3
  v2 = 0
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = max(12, la(8))
  CALL proc632((f0 + 1))
END

SUBROUTINE proc632(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 3
  v2 = 5
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = g1
  CALL proc633((f0 + 1))
END

SUBROUTINE proc633(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = max(v0, la(10))
  g1 = (v1 - (-3 * 9))
  IF (g0 .GE. (9 * la(5)) .OR. (g0 * la(1)) .EQ. mod(la(12), 6)) v1 = (13 * 6)
  CALL proc634((f0 + 1), -2)
END

SUBROUTINE proc634(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 12
  g1 = g1
  f0 = 2
  IF (.NOT. (13 .EQ. la(5))) THEN
    v0 = la(5)
  ENDIF
  v0 = 10
  PRINT *, (5 - 7)
  DO f0 = 1, 4
    g0 = g2
    DO g3 = 3, 6
      v0 = -3
    ENDDO
  ENDDO
  v0 = (la(2) / (3 + la(9)))
  v2 = 2
  CALL proc635((f0 + 1), v0)
END

SUBROUTINE proc635(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 7
  v2 = 2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = (mod(g3, 7) + (la(11) + la(11)))
  PRINT *, -1
  v0 = max(14, f0)
  g1 = 13
  CALL proc636(4, (0 + f0))
END

SUBROUTINE proc636(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 10
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = (mod(g0, 5) / (2 + la(10)))
  v0 = (la(6) + (f0 * g2))
  g1 = abs(la(1))
  CALL proc637((f0 + 1))
END

SUBROUTINE proc637(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 5
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = -4
  f0 = g2
  IF (.NOT. (9 .GE. (g1 * f0))) g2 = (la(5) + la(9))
  IF ((3 * 13) .EQ. g0 .AND. mod(la(9), 4) .LE. (10 * g2)) f0 = 7
  IF (mod(12, 5) .NE. (f0 / (5 + -2)) .OR. v1 .NE. la(4)) THEN
    la(1) = abs(3)
  ELSE
    f0 = g0
  ENDIF
  la(2) = g3
  PRINT *, max(la(12), la(1))
  DO g0 = 3, 6
    v2 = 7
    la(12) = (9 + (4 / (5 + 7)))
  ENDDO
  CALL proc638(4)
END

SUBROUTINE proc638(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 2
  DO g2 = 2, 4
    g1 = 7
    IF (.NOT. (v1 .LE. -5)) THEN
      la(6) = 7
      g3 = f0
    ELSE
      g3 = ((-3 * la(4)) - v1)
    ENDIF
  ENDDO
  g0 = la(7)
  PRINT *, (max(7, la(6)) / (6 + la(5)))
  g0 = la(11)
  g1 = -1
  CALL proc639((f0 + 1), 11)
END

SUBROUTINE proc639(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 8
  v2 = -2
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = ((v0 - 9) / (6 + 12))
  f1 = (v2 - la(1))
  g1 = la(10)
  CALL proc640((f0 + 1), v3)
END

SUBROUTINE proc640(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = v0
  PRINT *, v0
  g2 = 15
  g3 = (12 - v0)
  DO g2 = 1, 2
    PRINT *, f0
    g0 = -4
  ENDDO
  PRINT *, g1
  g2 = (v0 - (la(10) * la(9)))
  g0 = (abs(15) + g0)
  g0 = (5 + f0)
  DO f1 = 1, 2
    la(3) = la(11)
  ENDDO
  CALL proc641((f0 + 1), f0)
END

SUBROUTINE proc641(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(11) = (g3 / (5 + 7))
  la(8) = (max(-4, la(12)) / (5 + 9))
  f0 = mod(14, 3)
  f0 = max(4, 6)
  CALL proc642((0 + max(6, la(6))))
END

SUBROUTINE proc642(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 2
  v2 = -3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((v3 / (6 + 8)) .EQ. max(15, la(4)))) g2 = -4
  g0 = 15
  v2 = (mod(la(9), 8) - (g3 - -1))
  IF (.NOT. (g0 .LE. max(3, -3))) g1 = (8 - la(3))
  DO f0 = 3, 7
    g2 = max(-1, 8)
    IF ((la(12) - v1) .EQ. (g1 + -1) .OR. 11 .GE. 10) THEN
      v2 = v2
      g3 = 15
    ELSE
      g1 = 12
    ENDIF
  ENDDO
  IF ((la(8) - v1) .EQ. (la(7) / (5 + v2)) .OR. 6 .LT. v3) v2 = -4
  IF (.NOT. (la(6) .GT. abs(3))) THEN
    g0 = la(6)
    IF (la(4) .EQ. mod(11, 3) .AND. max(la(7), la(3)) .GE. (10 - -2)) THEN
      g1 = (0 + mod(7, 4))
    ELSE
      g1 = (v0 * v0)
      g1 = g3
    ENDIF
  ENDIF
  g0 = la(3)
  CALL proc643(4)
END

SUBROUTINE proc643(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(9) = g0
  g1 = 14
  CALL proc644(4)
END

SUBROUTINE proc644(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = v1
  IF (.NOT. (0 .EQ. la(7))) THEN
    IF (.NOT. (g1 .LE. la(8))) THEN
      v1 = ((0 + 5) - -1)
      PRINT *, abs(max(8, -5))
    ENDIF
  ELSE
    g1 = -4
    v1 = -1
  ENDIF
  IF (g2 .LE. v1) g1 = abs(1)
  CALL proc645((f0 + 1), 8)
END

SUBROUTINE proc645(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO f0 = 1, 5
    g3 = (-1 / (4 + 1))
    IF (g2 .GE. 12 .AND. la(11) .LE. -4) g3 = g0
  ENDDO
  v1 = mod((11 + g2), 4)
  g2 = ((g2 - g0) / (6 + -2))
  f0 = mod(abs(10), 5)
  g2 = mod(v0, 6)
  v1 = 11
  g1 = mod((g2 * la(9)), 4)
  CALL proc646(6, (0 + g0))
END

SUBROUTINE proc646(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = max(15, 7)
  IF (.NOT. (3 .EQ. (v0 - 13))) v1 = la(5)
  CALL proc647((0 + max(1, 3)))
END

SUBROUTINE proc647(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((10 / (4 + g0)) .LE. (15 + -4))) v2 = 13
  PRINT *, la(9)
  IF (3 .GE. (la(7) / (5 + 4)) .OR. mod(14, 2) .LT. -4) g3 = 9
  v2 = ((7 - 3) * la(11))
  CALL proc648(5)
END

SUBROUTINE proc648(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 6
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (v2 .LT. la(10)) v2 = g3
  PRINT *, 0
  la(7) = ((-5 * v2) / (5 + -3))
  PRINT *, la(2)
  IF (9 .LE. 10) v1 = 3
  PRINT *, abs((-1 + v0))
  IF ((2 * 7) .NE. mod(v2, 4) .AND. (5 - v0) .LE. (3 - -3)) THEN
    la(6) = v0
  ENDIF
  IF (abs(g1) .LE. -3 .AND. la(8) .EQ. mod(g2, 2)) THEN
    PRINT *, la(10)
  ENDIF
  g3 = (mod(14, 8) + -5)
  CALL proc649(5)
END

SUBROUTINE proc649(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 14
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, abs((2 + v0))
  PRINT *, abs(5)
  PRINT *, ((-3 / (4 + 12)) * -4)
  g1 = la(6)
  PRINT *, v0
  v2 = la(9)
  f0 = mod((7 * la(3)), 2)
  la(4) = mod(11, 4)
  CALL proc650((f0 + 1))
END

SUBROUTINE proc650(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 6
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, max(5, v1)
  IF (mod(la(5), 2) .NE. g3 .AND. la(1) .NE. 1) v1 = la(10)
  g2 = (abs(-4) / (4 + la(1)))
  v0 = (la(10) * 8)
  IF (-5 .GT. mod(f0, 8) .AND. abs(12) .EQ. (10 - la(4))) THEN
    DO v3 = 3, 5
      v0 = 5
      g1 = la(11)
    ENDDO
    g0 = abs((14 / (5 + g2)))
  ENDIF
  IF (.NOT. ((-3 + 8) .LT. (7 + 7))) THEN
    v3 = abs(g2)
  ENDIF
  CALL proc651((0 + g3), (0 + (4 - v3)))
END

SUBROUTINE proc651(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = la(3)
  CALL proc652((f0 + 1), 3)
END

SUBROUTINE proc652(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = ((v0 + la(7)) - 9)
  IF (la(11) .LT. v1) g3 = (5 + la(5))
  DO v1 = 0, 4
    g3 = g3
  ENDDO
  CALL proc653(4, v0)
END

SUBROUTINE proc653(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = 3
  f1 = (mod(la(8), 6) + la(9))
  f0 = la(7)
  v0 = (g1 * 4)
  CALL proc654(2)
END

SUBROUTINE proc654(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 0
  v2 = 7
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = abs((la(11) / (4 + 7)))
  PRINT *, la(5)
  g1 = abs(11)
  IF (g3 .LT. (-5 - -5) .OR. abs(v1) .LT. 15) THEN
    la(11) = ((9 / (3 + 8)) * g0)
    v0 = g2
  ENDIF
  PRINT *, la(3)
  g1 = ((v0 / (2 + la(6))) + abs(la(9)))
  IF (15 .GE. (la(4) / (6 + 3)) .OR. mod(la(10), 5) .EQ. g2) v2 = la(10)
  v1 = abs(la(11))
  f0 = la(12)
  DO v0 = 0, 4
    f0 = (f0 / (3 + 14))
  ENDDO
  CALL proc655(2)
END

SUBROUTINE proc655(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 12
  v2 = 0
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = (mod(-2, 8) * 13)
  la(11) = v3
  g0 = la(12)
  PRINT *, max(5, la(2))
  la(12) = 6
  g2 = max(g0, g1)
  PRINT *, 4
  g0 = (max(v3, la(9)) * v2)
  g2 = (max(f0, -1) - mod(15, 3))
  IF (abs(10) .EQ. abs(v0) .AND. 15 .EQ. la(3)) THEN
    DO v0 = 0, 4
      f0 = la(7)
    ENDDO
    f0 = la(12)
  ELSE
    g1 = la(10)
  ENDIF
  CALL proc656((f0 + 1))
END

SUBROUTINE proc656(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = 8
  IF (abs(g1) .GT. la(3) .OR. mod(la(2), 6) .GE. la(11)) f0 = (f0 * f0)
  g3 = abs(10)
  IF (-4 .NE. mod(g1, 2) .OR. max(g3, la(2)) .NE. g1) v0 = mod(-2, 2)
  IF (v1 .NE. v1 .AND. 10 .LT. -5) g2 = la(8)
  PRINT *, max(la(5), 13)
  CALL proc657(3)
END

SUBROUTINE proc657(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = 12
  CALL proc658(3, f0)
END

SUBROUTINE proc658(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 8
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (la(5) .LE. (11 / (6 + g3)))) THEN
    la(8) = 15
  ELSE
    f0 = (abs(0) / (6 + 9))
  ENDIF
  PRINT *, la(12)
  IF ((8 / (3 + -5)) .LT. max(v2, 13) .AND. 0 .GT. abs(la(5))) f0 = mod(6, 2)
  la(5) = (-5 * 6)
  g0 = mod(13, 8)
  IF ((3 / (2 + 4)) .GT. la(4) .AND. la(1) .GT. mod(2, 4)) g2 = (0 + g0)
  CALL proc659((f0 + 1), -1)
END

SUBROUTINE proc659(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 11
  v2 = 8
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(9) = (1 * g2)
  g3 = 15
  v0 = 3
  f1 = (abs(la(6)) - abs(2))
  IF (mod(la(8), 2) .GE. (la(10) / (3 + la(12))) .OR. (6 - 5) .EQ. (g0 / (6 + f0))) THEN
    DO f1 = 1, 5
      v3 = ((-3 / (2 + g0)) / (5 + 4))
      la(11) = la(8)
    ENDDO
  ELSE
    la(10) = max(10, 1)
    v0 = la(6)
  ENDIF
  v2 = ((f0 / (4 + f0)) - -1)
  CALL proc660(5)
END

SUBROUTINE proc660(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = 5
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = max(la(11), v3)
  f0 = max(9, -1)
  g2 = (la(3) * la(11))
  IF ((3 + 10) .NE. g2 .OR. (-3 + 11) .EQ. mod(-1, 6)) THEN
    DO f0 = 2, 5
      la(7) = max(g3, la(3))
    ENDDO
    g1 = (abs(2) + la(4))
  ELSE
    la(12) = 7
  ENDIF
  v1 = g1
  IF (.NOT. (abs(la(4)) .GE. (la(12) * 14))) THEN
    PRINT *, 0
    IF (.NOT. (la(1) .LT. max(la(4), g3))) THEN
      g1 = g0
    ELSE
      PRINT *, (abs(6) / (3 + la(4)))
      PRINT *, la(8)
    ENDIF
  ELSE
    v3 = max(la(11), g1)
  ENDIF
  f0 = v0
  v2 = 2
  g0 = g3
  IF ((6 / (5 + la(7))) .GE. mod(-5, 8) .AND. (la(6) - -2) .EQ. la(7)) THEN
    v2 = ((9 * 1) / (4 + la(8)))
    g0 = 10
  ENDIF
  CALL proc661(3, f0)
END

SUBROUTINE proc661(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -3
  v2 = 3
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((8 - 15) + la(12))
  IF (.NOT. (max(-1, -4) .GE. 10)) THEN
    v0 = g2
  ELSE
    f0 = max(4, la(12))
  ENDIF
  g3 = ((v1 + g2) / (4 + 3))
  IF (v1 .LT. abs(13) .OR. (la(5) / (5 + -1)) .LE. 13) f0 = g1
  f0 = v0
  la(2) = (la(8) - max(9, -1))
  IF (8 .LE. (la(7) + la(11))) g0 = la(5)
  CALL proc662(6)
END

SUBROUTINE proc662(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 7
  v2 = 14
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f0 = 3, 4
    DO g0 = 3, 4
      v0 = (la(1) + -1)
    ENDDO
    v1 = la(6)
  ENDDO
  g0 = mod(abs(0), 4)
  PRINT *, abs(10)
  g3 = 7
  CALL proc663(2, f0)
END

SUBROUTINE proc663(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = 15
  CALL proc664((0 + (-1 - v1)))
END

SUBROUTINE proc664(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = (2 * la(5))
  PRINT *, ((13 - la(7)) / (2 + la(3)))
  f0 = (9 - (v0 - 4))
  CALL proc665((0 + mod(15, 6)))
END

SUBROUTINE proc665(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(3) = (13 * la(8))
  g1 = -4
  PRINT *, g0
  g1 = abs((la(8) - f0))
  IF (.NOT. (la(11) .LT. la(9))) THEN
    g0 = ((4 - 15) * 10)
    DO g1 = 2, 4
      g3 = abs((la(4) - 4))
      g2 = la(1)
    ENDDO
  ENDIF
  la(11) = abs(la(9))
  PRINT *, mod(mod(-3, 2), 2)
  g3 = la(10)
  g1 = 10
END

SUBROUTINE proc666(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -4
  v2 = 8
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = max(v2, v3)
  g1 = (la(10) + v3)
  g1 = la(4)
  DO g1 = 2, 2
    DO v2 = 3, 4
      g3 = la(9)
    ENDDO
  ENDDO
  g2 = -1
  f0 = mod(-3, 3)
  v2 = la(6)
  DO v1 = 1, 4
    la(7) = v0
    v0 = max(-4, -1)
  ENDDO
  CALL proc667(3)
  CALL proc677(5)
  CALL proc688((0 + (la(8) - 3)))
  CALL proc699(3, v2)
  CALL proc710((0 + (la(6) / (6 + 8))), (0 + abs(14)))
  CALL proc721(6, v0)
  CALL proc732((0 + g3), v3)
  CALL proc743(5, v1)
  CALL proc754(7, (0 + g3))
  CALL proc765((0 + v1))
  CALL proc776(5, 0)
  CALL proc787((f0 + 1))
  CALL proc798((f0 + 1))
  CALL proc809(3)
  CALL proc820((f0 + 1))
  CALL proc831((f0 + 1), (0 + -1))
  CALL proc842((0 + (la(6) * 9)))
  CALL proc853(3, -3)
  CALL proc864(4, v0)
  CALL proc875(6)
  CALL proc886((0 + la(3)))
  CALL proc897(3)
  CALL proc908((f0 + 1), f0)
  CALL proc919((0 + max(la(7), -4)))
  CALL proc930(2)
  CALL proc941((0 + la(11)))
  CALL proc952((0 + mod(12, 2)), v2)
  CALL proc963((f0 + 1), (0 + -3))
  CALL proc974(5)
  CALL proc985((f0 + 1))
  CALL proc996(5, (0 + 6))
  CALL proc1007(2)
  CALL proc1018((f0 + 1))
  CALL proc1029((f0 + 1))
  CALL proc1040(7)
  CALL proc1051((f0 + 1))
  CALL proc1062(2)
  CALL proc1073((f0 + 1))
  CALL proc1084((0 + (g0 + -2)))
  CALL proc1095((f0 + 1), (0 + 4))
  CALL proc1106((0 + (la(6) + f0)))
  CALL proc1117(5, v0)
  CALL proc1128((0 + la(2)))
  CALL proc1139(3, 8)
  CALL proc1150(5, f0)
  CALL proc1161((f0 + 1), v3)
  CALL proc1172((0 + 4), (0 + (-1 - la(10))))
  CALL proc1183((0 + la(12)), 3)
  CALL proc1194(4, (0 + la(6)))
  CALL proc1205(5, (0 + (la(2) / (2 + v0))))
  CALL proc1216(7)
  CALL proc1227(4, (0 + la(1)))
  CALL proc1238(3)
  CALL proc1249((f0 + 1), 0)
  CALL proc1260(3, (0 + mod(12, 8)))
  CALL proc1271(6)
  CALL proc1282(7, 4)
  CALL proc1293(4, (0 + (g3 - 10)))
  CALL proc1304((0 + -5), v0)
  CALL proc1315((f0 + 1))
  CALL proc1326(7)
END

SUBROUTINE proc667(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(8) = 10
  g0 = g2
  g1 = g2
  PRINT *, max(7, la(12))
  IF (10 .LE. la(10) .OR. v0 .GT. max(la(12), 0)) THEN
    la(7) = 0
  ENDIF
  DO f0 = 0, 3
    v0 = 10
  ENDDO
  DO g1 = 1, 3
    IF (.NOT. (max(la(8), v1) .GE. max(la(3), 12))) f0 = (-1 / (5 + v0))
    g0 = 5
  ENDDO
  g3 = f0
  CALL proc668((f0 + 1), 9)
  CALL proc678((0 + (3 / (6 + la(1)))))
  CALL proc689((0 + 2))
  CALL proc700((f0 + 1))
  CALL proc711(2)
  CALL proc722(3)
  CALL proc733(4)
  CALL proc744(5)
  CALL proc755((0 + max(-2, la(4))))
  CALL proc766(2)
  CALL proc777((0 + abs(12)), v1)
  CALL proc788((0 + (2 / (5 + -2))))
  CALL proc799((0 + mod(13, 4)), f0)
  CALL proc810((f0 + 1))
  CALL proc821(5, (0 + (la(1) + -2)))
  CALL proc832(3)
  CALL proc843((f0 + 1), v0)
  CALL proc854((0 + max(la(8), 11)), (0 + (la(1) - g2)))
  CALL proc865(6, -1)
  CALL proc876(5)
  CALL proc887((f0 + 1), v1)
  CALL proc898((0 + max(5, 7)), (0 + -2))
  CALL proc909(3, (0 + 8))
  CALL proc920((f0 + 1))
  CALL proc931((f0 + 1))
  CALL proc942(4, v0)
  CALL proc953(4, f0)
  CALL proc964(5)
  CALL proc975((f0 + 1), (0 + (2 - 4)))
  CALL proc986((0 + la(2)), v0)
  CALL proc997((f0 + 1))
  CALL proc1008((0 + la(6)), -3)
  CALL proc1019((f0 + 1), 2)
  CALL proc1030((0 + la(1)), f0)
  CALL proc1041(6)
  CALL proc1052((0 + 0))
  CALL proc1063((f0 + 1))
  CALL proc1074((f0 + 1), 8)
  CALL proc1085(7, v1)
  CALL proc1096(4)
  CALL proc1107(7)
  CALL proc1118(2, v1)
  CALL proc1129(4)
  CALL proc1140(2, v1)
  CALL proc1151((0 + 2))
  CALL proc1162(2)
  CALL proc1173((f0 + 1), 7)
  CALL proc1184((f0 + 1))
  CALL proc1195((0 + 0), (0 + mod(14, 8)))
  CALL proc1206((f0 + 1), v0)
  CALL proc1217((f0 + 1), v0)
  CALL proc1228(5)
  CALL proc1239((f0 + 1))
  CALL proc1250(4, 2)
  CALL proc1261((f0 + 1), f0)
  CALL proc1272(4, v0)
  CALL proc1283(6, -3)
  CALL proc1294((f0 + 1))
  CALL proc1305((f0 + 1))
  CALL proc1316(3)
  CALL proc1327(4)
END

SUBROUTINE proc668(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v1 = 3, 6
    DO g0 = 2, 3
      g3 = 6
      la(12) = ((10 / (5 + f1)) + (la(4) / (3 + -5)))
    ENDDO
    DO g0 = 0, 1
      f0 = f1
    ENDDO
  ENDDO
  v0 = max(0, 13)
  la(7) = (g1 * la(4))
  IF (11 .LT. abs(-3) .OR. 4 .GE. la(8)) v1 = (8 - la(5))
  la(10) = la(5)
  IF (abs(g2) .GE. g3 .OR. 9 .GE. (la(11) + 9)) f0 = f0
  PRINT *, la(12)
  v1 = (abs(v1) / (5 + -4))
  g2 = 3
  CALL proc669((0 + abs(la(3))))
  CALL proc679((f0 + 1), (0 + la(4)))
  CALL proc690(2, (0 + f1))
  CALL proc701((0 + la(6)))
  CALL proc712((0 + -1))
  CALL proc723(7, (0 + (-1 / (5 + la(6)))))
  CALL proc734(6, 9)
  CALL proc745((0 + -5), v0)
  CALL proc756((0 + la(4)), v1)
  CALL proc767((0 + 5), f1)
  CALL proc778((f0 + 1), f0)
  CALL proc789((f0 + 1), v1)
  CALL proc800(4, (0 + (6 * g0)))
  CALL proc811(6, f0)
  CALL proc822((0 + max(v0, -1)))
  CALL proc833(3, (0 + la(9)))
  CALL proc844(5, 6)
  CALL proc855((f0 + 1))
  CALL proc866(7, f1)
  CALL proc877(3, (0 + abs(2)))
  CALL proc888(6)
  CALL proc899((f0 + 1), v0)
  CALL proc910(6, 4)
  CALL proc921(2, f1)
  CALL proc932(7)
  CALL proc943(6)
  CALL proc954((0 + 13))
  CALL proc965((0 + g0))
  CALL proc976(2, (0 + (14 - g0)))
  CALL proc987(4)
  CALL proc998(4, (0 + abs(g2)))
  CALL proc1009(6)
  CALL proc1020(3, (0 + -3))
  CALL proc1031((f0 + 1))
  CALL proc1042(4)
  CALL proc1053(3)
  CALL proc1064((f0 + 1), v0)
  CALL proc1075((f0 + 1), (0 + (15 - 2)))
  CALL proc1086(2)
  CALL proc1097((0 + 8))
  CALL proc1108(5)
  CALL proc1119(2)
  CALL proc1130((0 + abs(la(6))))
  CALL proc1141((f0 + 1))
  CALL proc1152(5)
  CALL proc1163((0 + la(12)))
  CALL proc1174(7, f1)
  CALL proc1185(7)
  CALL proc1196(2)
  CALL proc1207(4, v1)
  CALL proc1218(6)
  CALL proc1229((f0 + 1), 1)
  CALL proc1240((f0 + 1), v1)
  CALL proc1251(4)
  CALL proc1262((0 + max(v0, la(3))))
  CALL proc1273((0 + v1))
  CALL proc1284((f0 + 1))
  CALL proc1295((0 + 1), (0 + max(la(9), la(4))))
  CALL proc1306((0 + (la(12) + v1)), (0 + 9))
  CALL proc1317((0 + (la(9) + g2)), f0)
  CALL proc1328(5, v0)
END

SUBROUTINE proc669(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 1
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (3 .LE. (la(8) + la(6)) .AND. -1 .GE. 0) g3 = la(3)
  CALL proc670(5, -3)
  CALL proc680(5, v0)
  CALL proc691((0 + 4))
  CALL proc702((0 + (v1 - g2)), (0 + abs(4)))
  CALL proc713(2)
  CALL proc724((0 + abs(-4)), 1)
  CALL proc735((0 + abs(la(8))))
  CALL proc746((0 + (10 - la(11))))
  CALL proc757(7)
  CALL proc768((0 + 12), v2)
  CALL proc779(6)
  CALL proc790(6, 8)
  CALL proc801((0 + (12 * 1)), 11)
  CALL proc812((f0 + 1), 6)
  CALL proc823((f0 + 1), (0 + v1))
  CALL proc834(6)
  CALL proc845((f0 + 1))
  CALL proc856(5, 3)
  CALL proc867((0 + 2), (0 + mod(-4, 8)))
  CALL proc878((f0 + 1))
  CALL proc889((0 + -5), f0)
  CALL proc900((f0 + 1), (0 + 7))
  CALL proc911(2, (0 + mod(10, 4)))
  CALL proc922(4, (0 + max(-1, 2)))
  CALL proc933(4)
  CALL proc944(4)
  CALL proc955((f0 + 1))
  CALL proc966((0 + la(8)), 4)
  CALL proc977(6)
  CALL proc988((0 + (v2 * f0)), f0)
  CALL proc999(3)
  CALL proc1010((0 + la(3)), (0 + v0))
  CALL proc1021((f0 + 1), -3)
  CALL proc1032(6)
  CALL proc1043((0 + abs(11)))
  CALL proc1054((f0 + 1))
  CALL proc1065((f0 + 1), v1)
  CALL proc1076((0 + g0))
  CALL proc1087(6)
  CALL proc1098(2)
  CALL proc1109((0 + (5 * 10)))
  CALL proc1120(3, v2)
  CALL proc1131((f0 + 1), 2)
  CALL proc1142((0 + 1), (0 + 6))
  CALL proc1153(6, 10)
  CALL proc1164((f0 + 1), v2)
  CALL proc1175(4)
  CALL proc1186(3, 8)
  CALL proc1197(4)
  CALL proc1208((f0 + 1))
  CALL proc1219(4)
  CALL proc1230(7)
  CALL proc1241((f0 + 1), f0)
  CALL proc1252(5)
  CALL proc1263((f0 + 1), v2)
  CALL proc1274(4, 4)
  CALL proc1285((0 + 13), 8)
  CALL proc1296((f0 + 1), 0)
  CALL proc1307((0 + (-5 - 4)), (0 + (v0 / (6 + v0))))
  CALL proc1318((0 + (v0 + f0)), v2)
  CALL proc1329((0 + max(11, -2)), (0 + 12))
END

SUBROUTINE proc670(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = abs((11 * la(4)))
  f1 = abs(max(12, g0))
  g0 = -1
  IF (-1 .GT. la(11) .AND. la(4) .GE. 4) v2 = la(8)
  g1 = la(11)
  IF ((4 * f0) .GE. (-2 / (2 + la(5)))) g2 = (11 / (6 + -2))
  CALL proc671(2, (0 + 13))
  CALL proc681((0 + (g1 + -5)), v2)
  CALL proc692((0 + v1), f0)
  CALL proc703((f0 + 1), f0)
  CALL proc714(2)
  CALL proc725(5, 9)
  CALL proc736((f0 + 1), 3)
  CALL proc747((f0 + 1))
  CALL proc758(7)
  CALL proc769((0 + max(11, la(2))), (0 + -3))
  CALL proc780(4)
  CALL proc791(5, f1)
  CALL proc802((f0 + 1))
  CALL proc813((0 + 3), 3)
  CALL proc824(3)
  CALL proc835((0 + (la(3) - la(5))))
  CALL proc846(6)
  CALL proc857((f0 + 1))
  CALL proc868(4)
  CALL proc879(2)
  CALL proc890((0 + max(7, la(3))))
  CALL proc901((0 + max(g0, 4)))
  CALL proc912((f0 + 1))
  CALL proc923((f0 + 1), f1)
  CALL proc934((f0 + 1), v0)
  CALL proc945((0 + 10))
  CALL proc956(7)
  CALL proc967((f0 + 1))
  CALL proc978(5, 1)
  CALL proc989(6)
  CALL proc1000(3)
  CALL proc1011(3)
  CALL proc1022(4)
  CALL proc1033(3)
  CALL proc1044(2)
  CALL proc1055((f0 + 1), v0)
  CALL proc1066((0 + -2))
  CALL proc1077(2)
  CALL proc1088((0 + (-2 * v1)))
  CALL proc1099((0 + abs(la(1))), (0 + (la(6) * g0)))
  CALL proc1110((0 + mod(g2, 6)))
  CALL proc1121((0 + (v1 + 5)), (0 + abs(v1)))
  CALL proc1132((f0 + 1))
  CALL proc1143((0 + abs(5)), (0 + (g0 / (5 + 13))))
  CALL proc1154((f0 + 1))
  CALL proc1165(5, v2)
  CALL proc1176((0 + (4 + la(11))))
  CALL proc1187((0 + la(2)))
  CALL proc1198(5)
  CALL proc1209(3, v0)
  CALL proc1220((f0 + 1), v2)
  CALL proc1231(5, v0)
  CALL proc1242(5, f0)
  CALL proc1253((f0 + 1), 2)
  CALL proc1264(4)
  CALL proc1275(2)
  CALL proc1286((0 + (g2 - 4)))
  CALL proc1297((f0 + 1))
  CALL proc1308(5, (0 + (la(11) * 13)))
  CALL proc1319((f0 + 1), -3)
  CALL proc1330(3)
END

SUBROUTINE proc671(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(11) = la(3)
  v1 = g2
  DO g1 = 2, 3
    v0 = (1 * -1)
    v0 = abs(v0)
  ENDDO
  IF (15 .GT. la(8)) THEN
    g2 = ((2 + la(2)) - f0)
    IF (.NOT. ((la(3) * la(7)) .LE. 13)) g3 = 1
  ELSE
    IF (max(5, 2) .GT. (12 * 4)) g0 = 15
    f0 = max(la(1), la(9))
  ENDIF
  IF ((8 + 9) .NE. 11) g0 = (-2 * f0)
  CALL proc672(3)
  CALL proc682(3, f1)
  CALL proc693(6)
  CALL proc704((f0 + 1), 2)
  CALL proc715(7, 4)
  CALL proc726(3)
  CALL proc737(2)
  CALL proc748((0 + max(12, la(7))))
  CALL proc759((f0 + 1))
  CALL proc770((f0 + 1))
  CALL proc781((0 + (v0 / (6 + la(5)))))
  CALL proc792((f0 + 1))
  CALL proc803((f0 + 1), f1)
  CALL proc814((0 + (0 * g1)))
  CALL proc825(5)
  CALL proc836((f0 + 1), (0 + (14 + g3)))
  CALL proc847((f0 + 1))
  CALL proc858(2)
  CALL proc869((0 + f0))
  CALL proc880(3)
  CALL proc891((0 + la(12)), v0)
  CALL proc902((0 + (f1 * 15)), v1)
  CALL proc913(5, (0 + mod(0, 5)))
  CALL proc924(2, v1)
  CALL proc935(5)
  CALL proc946((0 + (g2 / (3 + -4))), 5)
  CALL proc957(2)
  CALL proc968((f0 + 1))
  CALL proc979((0 + la(11)), 2)
  CALL proc990(6)
  CALL proc1001((0 + f1), f0)
  CALL proc1012(5)
  CALL proc1023((f0 + 1), 10)
  CALL proc1034((0 + 2))
  CALL proc1045((f0 + 1), v1)
  CALL proc1056((0 + g0))
  CALL proc1067(7)
  CALL proc1078((f0 + 1), v0)
  CALL proc1089((0 + (g3 * g1)))
  CALL proc1100(5, (0 + 5))
  CALL proc1111((0 + g2))
  CALL proc1122((f0 + 1))
  CALL proc1133((0 + la(8)), (0 + abs(6)))
  CALL proc1144(5, -3)
  CALL proc1155((0 + -3), (0 + (la(2) * 8)))
  CALL proc1166((0 + g0), f0)
  CALL proc1177((f0 + 1))
  CALL proc1188((0 + (la(1) / (3 + la(7)))))
  CALL proc1199(3)
  CALL proc1210((f0 + 1), v1)
  CALL proc1221((f0 + 1), (0 + (g3 + 8)))
  CALL proc1232((0 + mod(f1, 8)))
  CALL proc1243((f0 + 1))
  CALL proc1254(6, 11)
  CALL proc1265((f0 + 1), f1)
  CALL proc1276((f0 + 1), v1)
  CALL proc1287(7, v1)
  CALL proc1298(3)
  CALL proc1309(2, (0 + la(8)))
  CALL proc1320((f0 + 1), (0 + la(8)))
  CALL proc1331(2, f0)
END

SUBROUTINE proc672(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = la(8)
  g0 = (2 / (2 + -3))
  IF ((la(11) - la(12)) .GT. (la(7) - la(7)) .OR. -3 .GT. f0) THEN
    f0 = max(la(8), la(9))
    PRINT *, g3
  ENDIF
  IF (.NOT. (mod(la(10), 2) .EQ. -4)) THEN
    PRINT *, la(9)
    IF (-3 .LE. g0 .OR. 3 .EQ. 14) THEN
      la(8) = ((v0 * v2) * 7)
    ELSE
      v1 = 14
    ENDIF
  ELSE
    v1 = (10 / (5 + 3))
    g1 = 7
  ENDIF
  IF (mod(la(7), 6) .LT. abs(la(7)) .AND. (g3 / (5 + 11)) .LE. (14 + v0)) f0 = 12
  CALL proc673(7, (0 + la(4)))
  CALL proc683((f0 + 1))
  CALL proc694(6)
  CALL proc705((0 + mod(la(6), 7)))
  CALL proc716(2)
  CALL proc727((f0 + 1))
  CALL proc738(3, v2)
  CALL proc749((0 + la(9)), v0)
  CALL proc760(7, (0 + (v2 - 4)))
  CALL proc771((0 + 10))
  CALL proc782((f0 + 1), f0)
  CALL proc793(4, f0)
  CALL proc804((f0 + 1), (0 + 8))
  CALL proc815((f0 + 1), v2)
  CALL proc826((0 + abs(la(2))), f0)
  CALL proc837((0 + (15 * g3)))
  CALL proc848(4, (0 + mod(g2, 5)))
  CALL proc859(7, -3)
  CALL proc870((f0 + 1))
  CALL proc881((0 + mod(0, 8)))
  CALL proc892((f0 + 1))
  CALL proc903((0 + 1))
  CALL proc914((0 + (11 / (3 + v1))), (0 + 5))
  CALL proc925(6)
  CALL proc936((0 + abs(2)), (0 + (6 / (5 + la(5)))))
  CALL proc947(7, (0 + 5))
  CALL proc958((f0 + 1), 7)
  CALL proc969((f0 + 1))
  CALL proc980((0 + (7 + g1)), v0)
  CALL proc991((0 + (la(5) * -4)), -1)
  CALL proc1002(4, f0)
  CALL proc1013((f0 + 1))
  CALL proc1024((0 + (4 - -5)))
  CALL proc1035((f0 + 1), 1)
  CALL proc1046(5, v2)
  CALL proc1057(4, (0 + 6))
  CALL proc1068(2, f0)
  CALL proc1079(4)
  CALL proc1090(4)
  CALL proc1101(7)
  CALL proc1112(4, (0 + (13 * v0)))
  CALL proc1123(5)
  CALL proc1134(3, f0)
  CALL proc1145(6)
  CALL proc1156(4, 8)
  CALL proc1167(7, v2)
  CALL proc1178((0 + (-2 * -5)), (0 + (15 / (5 + 12))))
  CALL proc1189((0 + (f0 + 7)))
  CALL proc1200(2, 7)
  CALL proc1211(6)
  CALL proc1222((f0 + 1), v2)
  CALL proc1233(2)
  CALL proc1244((0 + (la(4) - la(4))), v1)
  CALL proc1255(7)
  CALL proc1266(6)
  CALL proc1277(5)
  CALL proc1288((f0 + 1), v0)
  CALL proc1299(5)
  CALL proc1310((f0 + 1))
  CALL proc1321(5, v2)
  CALL proc1332((0 + 7))
END

SUBROUTINE proc673(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = -2
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = mod(v1, 7)
  f0 = (5 - -5)
  v3 = max(v1, v1)
  g3 = la(5)
  v2 = 7
  IF (11 .EQ. v2) g0 = -4
  CALL proc674(7)
  CALL proc684((f0 + 1))
  CALL proc695(7, v3)
  CALL proc706(6, v2)
  CALL proc717((f0 + 1))
  CALL proc728((f0 + 1))
  CALL proc739((f0 + 1), v0)
  CALL proc750((f0 + 1), 7)
  CALL proc761((f0 + 1))
  CALL proc772(2)
  CALL proc783(5)
  CALL proc794((f0 + 1), (0 + -1))
  CALL proc805((0 + 8))
  CALL proc816((0 + max(g2, 6)), v2)
  CALL proc827(2)
  CALL proc838((f0 + 1))
  CALL proc849(4, v2)
  CALL proc860(6)
  CALL proc871((f0 + 1), v3)
  CALL proc882((0 + mod(14, 2)), v1)
  CALL proc893((0 + 13))
  CALL proc904(7)
  CALL proc915(5, v3)
  CALL proc926(4)
  CALL proc937((0 + la(8)), (0 + (la(9) - v0)))
  CALL proc948((f0 + 1), v0)
  CALL proc959(2, v2)
  CALL proc970(6, (0 + la(10)))
  CALL proc981((0 + la(10)))
  CALL proc992((f0 + 1))
  CALL proc1003((0 + (v3 - g3)), f0)
  CALL proc1014((f0 + 1))
  CALL proc1025(6)
  CALL proc1036(4, 6)
  CALL proc1047(5, (0 + v0))
  CALL proc1058((f0 + 1))
  CALL proc1069(3, f0)
  CALL proc1080((0 + la(5)))
  CALL proc1091(6)
  CALL proc1102(3, 11)
  CALL proc1113(2, (0 + -1))
  CALL proc1124(7)
  CALL proc1135(5, v1)
  CALL proc1146((0 + (v1 - 10)), f1)
  CALL proc1157((f0 + 1), -3)
  CALL proc1168((f0 + 1))
  CALL proc1179(2, 9)
  CALL proc1190(3)
  CALL proc1201(7)
  CALL proc1212((f0 + 1), f0)
  CALL proc1223((f0 + 1))
  CALL proc1234(7, f1)
  CALL proc1245(3, 6)
  CALL proc1256(5, (0 + mod(8, 8)))
  CALL proc1267((f0 + 1), v2)
  CALL proc1278((f0 + 1))
  CALL proc1289(6, (0 + (12 * v0)))
  CALL proc1300(2, 11)
  CALL proc1311(6, v2)
  CALL proc1322(4)
END

SUBROUTINE proc674(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 8
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((3 - g1) .NE. (11 - 12)) THEN
    v2 = v1
    v0 = 4
  ELSE
    g0 = la(1)
    DO v2 = 2, 5
      g1 = la(12)
      g0 = abs(11)
    ENDDO
  ENDIF
  PRINT *, (max(-4, la(8)) - la(4))
  g1 = mod(la(5), 7)
  PRINT *, -1
  PRINT *, la(11)
  f0 = -4
  CALL proc675((0 + max(15, la(6))), (0 + mod(-5, 6)))
  CALL proc685(4)
  CALL proc696((0 + la(6)))
  CALL proc707(7, 2)
  CALL proc718((f0 + 1), f0)
  CALL proc729(2)
  CALL proc740((f0 + 1))
  CALL proc751((f0 + 1))
  CALL proc762((f0 + 1), v0)
  CALL proc773((0 + 3), (0 + la(6)))
  CALL proc784(6, 5)
  CALL proc795(2, v0)
  CALL proc806((f0 + 1))
  CALL proc817((f0 + 1))
  CALL proc828((0 + (v0 * 9)))
  CALL proc839(2)
  CALL proc850((f0 + 1), f0)
  CALL proc861(2, 0)
  CALL proc872((f0 + 1))
  CALL proc883((f0 + 1))
  CALL proc894(7)
  CALL proc905(7, (0 + v2))
  CALL proc916((0 + (la(5) / (3 + 8))), v2)
  CALL proc927(4, f0)
  CALL proc938(4, (0 + 9))
  CALL proc949((0 + 14), 8)
  CALL proc960((f0 + 1))
  CALL proc971(6)
  CALL proc982((0 + (f0 / (6 + 15))))
  CALL proc993((0 + 6), -1)
  CALL proc1004(3, 6)
  CALL proc1015(7, 9)
  CALL proc1026((f0 + 1))
  CALL proc1037(2)
  CALL proc1048((f0 + 1))
  CALL proc1059(7)
  CALL proc1070(7)
  CALL proc1081((0 + 1))
  CALL proc1092((f0 + 1), f0)
  CALL proc1103(4)
  CALL proc1114(2, v1)
  CALL proc1125(7, v0)
  CALL proc1136(3, v0)
  CALL proc1147(7, v1)
  CALL proc1158(5)
  CALL proc1169(3, (0 + abs(la(2))))
  CALL proc1180((0 + (g0 * la(5))), v0)
  CALL proc1191(6, 4)
  CALL proc1202(3, v1)
  CALL proc1213(6, v2)
  CALL proc1224((f0 + 1))
  CALL proc1235(4, v2)
  CALL proc1246(6, v2)
  CALL proc1257(5)
  CALL proc1268(5, v0)
  CALL proc1279(3, (0 + 4))
  CALL proc1290((f0 + 1), v2)
  CALL proc1301(4)
  CALL proc1312(3)
  CALL proc1323((0 + la(1)))
END

SUBROUTINE proc675(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 0
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, 2
  v1 = f1
  PRINT *, 10
  la(12) = f0
  IF (2 .NE. (v2 + 12) .AND. max(-3, f0) .EQ. (la(8) / (3 + la(2)))) THEN
    v1 = la(5)
    IF (13 .GE. v0 .AND. max(14, 4) .NE. (10 * 13)) f1 = (la(1) + la(7))
  ELSE
    v0 = la(9)
  ENDIF
  IF (g0 .GT. max(3, 1) .OR. (11 - la(3)) .GE. mod(g2, 5)) g3 = max(2, v0)
  CALL proc676((f0 + 1))
  CALL proc686(7, (0 + la(1)))
  CALL proc697(2)
  CALL proc708(6)
  CALL proc719((f0 + 1), 10)
  CALL proc730((0 + 5), v2)
  CALL proc741((f0 + 1), f0)
  CALL proc752(6)
  CALL proc763(4, -3)
  CALL proc774(4, (0 + la(1)))
  CALL proc785((f0 + 1))
  CALL proc796(5)
  CALL proc807(2)
  CALL proc818((0 + v2), 11)
  CALL proc829((0 + 15))
  CALL proc840((0 + max(11, 9)))
  CALL proc851((0 + 13), v0)
  CALL proc862((f0 + 1), f1)
  CALL proc873((0 + la(2)), f1)
  CALL proc884((f0 + 1))
  CALL proc895((0 + max(la(12), g2)), (0 + f1))
  CALL proc906(4)
  CALL proc917((0 + (-4 / (5 + la(7)))))
  CALL proc928((0 + abs(2)), f0)
  CALL proc939(3)
  CALL proc950((0 + abs(la(9))))
  CALL proc961((f0 + 1), (0 + (4 * 6)))
  CALL proc972((0 + mod(v1, 3)))
  CALL proc983((0 + f1))
  CALL proc994(3, v1)
  CALL proc1005(5, 9)
  CALL proc1016((f0 + 1))
  CALL proc1027(5, (0 + (10 * la(2))))
  CALL proc1038((0 + mod(1, 2)), (0 + (la(3) * 10)))
  CALL proc1049((0 + la(10)), 10)
  CALL proc1060((f0 + 1))
  CALL proc1071(5)
  CALL proc1082((f0 + 1))
  CALL proc1093(6, v0)
  CALL proc1104(3, f0)
  CALL proc1115(4)
  CALL proc1126(2)
  CALL proc1137((f0 + 1))
  CALL proc1148((f0 + 1), -1)
  CALL proc1159((0 + f1), 1)
  CALL proc1170((f0 + 1), f1)
  CALL proc1181((0 + la(1)))
  CALL proc1192((f0 + 1), (0 + la(11)))
  CALL proc1203(6, (0 + -3))
  CALL proc1214((f0 + 1))
  CALL proc1225(7, 4)
  CALL proc1236((f0 + 1))
  CALL proc1247((f0 + 1), v2)
  CALL proc1258(6)
  CALL proc1269((0 + la(2)))
  CALL proc1280(2)
  CALL proc1291(5, f1)
  CALL proc1302(5)
  CALL proc1313(3)
  CALL proc1324((f0 + 1), (0 + (v1 / (3 + la(6)))))
END

SUBROUTINE proc676(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 7
  v2 = -3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (9 - -2)
  IF (-3 .LE. (g1 / (6 + v2))) THEN
    IF ((-3 * 6) .GT. -4 .OR. (la(12) - la(6)) .EQ. la(12)) g2 = (la(5) + -2)
  ELSE
    v2 = mod(1, 6)
    g1 = abs((11 / (5 + g0)))
  ENDIF
  la(1) = mod((la(5) - 5), 3)
  IF (2 .GE. (la(5) - g0) .OR. max(la(5), g3) .NE. 3) THEN
    la(5) = ((13 + la(4)) / (4 + v0))
    v3 = 1
  ENDIF
  g2 = mod(f0, 2)
  g0 = ((la(5) / (6 + la(12))) + abs(12))
  la(8) = abs((la(8) + 13))
  DO v0 = 0, 2
    g3 = abs(abs(g2))
  ENDDO
  CALL proc687((f0 + 1))
  CALL proc698((f0 + 1), (0 + 12))
  CALL proc709((0 + abs(g1)))
  CALL proc720((f0 + 1))
  CALL proc731(5, 2)
  CALL proc742((0 + la(6)))
  CALL proc753(4)
  CALL proc764(6, v0)
  CALL proc775((0 + (-5 / (4 + 8))))
  CALL proc786(4, v3)
  CALL proc797((f0 + 1))
  CALL proc808(6)
  CALL proc819(4, (0 + abs(la(4))))
  CALL proc830(6)
  CALL proc841((f0 + 1))
  CALL proc852(5)
  CALL proc863((0 + -4), v1)
  CALL proc874((f0 + 1), 1)
  CALL proc885((0 + (-3 * 8)))
  CALL proc896((0 + (4 / (6 + la(10)))))
  CALL proc907((f0 + 1))
  CALL proc918((f0 + 1))
  CALL proc929((f0 + 1), v3)
  CALL proc940(5)
  CALL proc951((0 + mod(-2, 4)), -2)
  CALL proc962((f0 + 1), v2)
  CALL proc973(4, 8)
  CALL proc984(6, v3)
  CALL proc995(3)
  CALL proc1006((f0 + 1))
  CALL proc1017(4, v1)
  CALL proc1028((0 + mod(4, 8)), (0 + (la(10) * 12)))
  CALL proc1039(6, v2)
  CALL proc1050(6, v1)
  CALL proc1061(2, v1)
  CALL proc1072(2, v2)
  CALL proc1083(5, -2)
  CALL proc1094(2)
  CALL proc1105((0 + abs(v1)), v3)
  CALL proc1116(5, v0)
  CALL proc1127(3, f0)
  CALL proc1138((0 + abs(8)), v1)
  CALL proc1149((0 + v2), v3)
  CALL proc1160((f0 + 1))
  CALL proc1171(5, v3)
  CALL proc1182((0 + max(la(6), la(11))), (0 + 13))
  CALL proc1193((f0 + 1))
  CALL proc1204(7, (0 + max(0, la(2))))
  CALL proc1215(3, v3)
  CALL proc1226((f0 + 1), (0 + 10))
  CALL proc1237((f0 + 1), v0)
  CALL proc1248((f0 + 1))
  CALL proc1259((f0 + 1))
  CALL proc1270(2, v1)
  CALL proc1281((0 + 9), v1)
  CALL proc1292((f0 + 1))
  CALL proc1303((f0 + 1), v2)
  CALL proc1314((0 + 1))
  CALL proc1325(3)
END

SUBROUTINE proc677(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (max(3, la(3)) .GT. max(f0, g1))) v0 = max(15, g2)
  la(12) = (la(4) / (5 + la(3)))
  DO g1 = 1, 3
    v1 = 10
  ENDDO
  PRINT *, 5
  v0 = mod(abs(v1), 6)
END

SUBROUTINE proc678(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = (abs(f0) + 10)
  la(5) = 13
END

SUBROUTINE proc679(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 3
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = (7 / (6 + 10))
  DO v2 = 3, 4
    la(10) = (la(8) * 1)
  ENDDO
  PRINT *, g1
  PRINT *, max(-3, 14)
  v0 = (v0 - mod(v1, 6))
  la(6) = max(-4, v0)
  IF (max(la(6), -2) .GE. (4 + 4)) g0 = (12 * la(1))
  IF (.NOT. (max(g3, g0) .NE. max(-5, g1))) g3 = -2
END

SUBROUTINE proc680(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 11
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(12) .GE. 7 .OR. -2 .GE. 1) g2 = 0
END

SUBROUTINE proc681(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO f1 = 1, 2
    v0 = la(6)
    f0 = abs(-3)
  ENDDO
  IF (.NOT. ((11 + 2) .LE. (4 - la(1)))) THEN
    la(8) = max(-5, -2)
  ELSE
    IF (v0 .EQ. (la(9) + f0) .OR. max(14, 4) .EQ. -2) THEN
      v0 = max(6, la(6))
    ENDIF
  ENDIF
  f1 = (g3 * 3)
  g3 = la(9)
  IF (3 .LT. (f0 - -4) .AND. (3 - 8) .NE. (v0 - la(6))) THEN
    g0 = -1
  ENDIF
END

SUBROUTINE proc682(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (0 .GE. -2 .OR. (g2 + v1) .GE. (la(1) + 9)) v0 = (10 + 0)
END

SUBROUTINE proc683(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (la(4) * 4)
  v0 = (8 * la(8))
  IF (.NOT. (13 .EQ. abs(g1))) THEN
    v1 = g0
  ENDIF
  g0 = -5
END

SUBROUTINE proc684(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v0 = 1, 1
    la(9) = 7
  ENDDO
  f0 = (8 + 10)
  g2 = 7
  la(6) = (mod(14, 7) * 9)
  g2 = la(12)
  DO g1 = 2, 6
    PRINT *, g1
  ENDDO
  v1 = max(7, f0)
  v1 = (g1 - 3)
END

SUBROUTINE proc685(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = max(g3, 0)
  f0 = la(8)
  f0 = g0
  la(4) = max(g2, v1)
  PRINT *, abs(abs(-1))
  DO g1 = 2, 4
    IF ((g3 - la(5)) .LT. (-3 - f0) .OR. (1 * 13) .LT. 3) f0 = 5
    g2 = la(12)
  ENDDO
  g2 = g1
END

SUBROUTINE proc686(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(4, la(8)) .LT. (la(9) - la(6)) .AND. f1 .GT. 15) g2 = (2 / (6 + 8))
  g3 = la(6)
  PRINT *, 0
  DO v1 = 3, 4
    IF (.NOT. (5 .NE. 8)) g3 = f1
  ENDDO
  DO f1 = 0, 0
    DO g0 = 0, 1
      IF (abs(la(11)) .LT. 12 .AND. la(7) .GT. (g1 / (4 + f1))) v1 = (0 - la(3))
    ENDDO
    v1 = mod(8, 6)
  ENDDO
  DO g1 = 2, 4
    g3 = max(8, v0)
  ENDDO
  g1 = mod((la(5) + 14), 7)
END

SUBROUTINE proc687(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g1 = 0, 3
    v1 = ((la(2) / (4 + 0)) - 3)
    v1 = mod((-5 - la(4)), 2)
  ENDDO
  PRINT *, g2
  DO g0 = 1, 3
    g2 = (10 + la(4))
    DO v0 = 3, 7
      PRINT *, 11
    ENDDO
  ENDDO
  PRINT *, -2
  g0 = (abs(la(10)) + la(6))
  IF (f0 .LT. la(8) .AND. -2 .LT. (la(6) - g2)) THEN
    v1 = (v0 / (6 + 4))
  ENDIF
  DO f0 = 3, 6
    g2 = (la(5) / (2 + -4))
  ENDDO
  IF (max(la(10), 15) .LE. (la(7) / (3 + g3))) g1 = -3
  g0 = abs(g2)
END

SUBROUTINE proc688(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 4
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(2) = -1
  v0 = -5
  g3 = la(3)
  g3 = (-5 + max(10, 1))
  IF (.NOT. (v1 .NE. g2)) THEN
    DO v1 = 3, 3
      g3 = g1
      PRINT *, 0
    ENDDO
    g0 = (la(4) / (2 + la(10)))
  ELSE
    g2 = 14
  ENDIF
  la(3) = max(5, 15)
  IF (.NOT. (-4 .LT. abs(6))) v2 = g2
  g3 = mod(g1, 5)
END

SUBROUTINE proc689(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -3
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 4
  IF (mod(4, 4) .NE. -3) v2 = (11 * g2)
  la(2) = 10
  la(1) = 0
  g1 = (13 - la(12))
  IF (la(11) .LT. 9 .OR. (la(3) - v2) .LE. max(la(7), 10)) f0 = 7
END

SUBROUTINE proc690(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 0
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = (v2 * 1)
  DO v2 = 1, 2
    f0 = ((la(10) / (2 + v2)) * la(2))
    v1 = (g1 + mod(g0, 7))
  ENDDO
  la(1) = ((la(8) * la(7)) + 10)
  g0 = (10 + max(-3, la(12)))
  f0 = abs(6)
  IF (.NOT. (max(3, 0) .NE. v2)) v3 = f0
  IF (.NOT. (-5 .NE. 5)) THEN
    v1 = la(10)
    v1 = mod(max(5, 4), 3)
  ELSE
    IF ((la(12) * la(3)) .EQ. la(9)) g1 = (la(4) / (4 + g3))
  ENDIF
  g0 = 14
END

SUBROUTINE proc691(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 5
  v2 = 6
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = abs(-1)
  IF (2 .LE. la(4)) v3 = 6
  g3 = -4
  IF (.NOT. (-5 .NE. 14)) THEN
    PRINT *, max(3, v2)
    f0 = ((12 / (2 + -2)) + la(2))
  ELSE
    f0 = (mod(la(9), 3) + abs(v0))
    v0 = ((v3 * v0) - la(2))
  ENDIF
  IF (la(11) .GE. g1) f0 = max(la(3), v2)
  IF (la(1) .EQ. (g3 - 15) .OR. -3 .GE. (la(7) / (2 + g2))) THEN
    PRINT *, g1
    IF (.NOT. ((g0 * v1) .LE. mod(-4, 5))) g3 = v0
  ENDIF
END

SUBROUTINE proc692(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = -1
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = g1
  DO g1 = 2, 4
    IF (mod(f1, 6) .GT. (14 * la(4))) g0 = mod(2, 6)
  ENDDO
END

SUBROUTINE proc693(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(2) = 9
  DO f0 = 2, 6
    g0 = g2
    IF (14 .NE. (la(3) - g1)) THEN
      g3 = la(7)
    ENDIF
  ENDDO
  IF (.NOT. ((v1 / (3 + 14)) .LT. (3 * la(11)))) v0 = abs(14)
  f0 = (mod(g1, 5) / (2 + g1))
  IF (9 .LT. (la(1) / (4 + 5)) .OR. (-3 + 3) .EQ. v0) g0 = la(2)
  PRINT *, (mod(la(12), 3) * -2)
  DO g3 = 3, 6
    la(7) = 11
  ENDDO
  la(4) = la(8)
  g2 = max(-3, 7)
END

SUBROUTINE proc694(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 5
  v2 = 1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (-4 .GE. 14 .AND. (15 * 12) .NE. abs(la(9))) THEN
    v0 = abs(max(-1, -3))
    IF (.NOT. ((la(11) - 0) .EQ. (-1 - la(8)))) v2 = la(2)
  ELSE
    v3 = (la(1) / (5 + 7))
  ENDIF
  f0 = mod(la(8), 4)
  la(1) = max(v2, v2)
  v0 = 15
  g0 = mod((-5 / (4 + la(11))), 3)
  v3 = (la(7) - (f0 / (3 + 12)))
  f0 = mod(max(11, g2), 8)
  v2 = max(-1, v2)
  IF (9 .GE. g0 .OR. 7 .GT. (g0 / (3 + la(11)))) v2 = (g0 + -3)
END

SUBROUTINE proc695(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -4
  v2 = -4
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, ((-4 - 2) / (4 + 2))
END

SUBROUTINE proc696(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = (g3 * la(9))
  v0 = la(7)
  la(12) = 15
  DO g3 = 1, 4
    DO g2 = 1, 5
      v1 = ((g2 / (6 + la(7))) - max(-3, f0))
    ENDDO
    v0 = (mod(-1, 7) + 12)
  ENDDO
END

SUBROUTINE proc697(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = -4
  f0 = (mod(-3, 8) * 14)
  v2 = (mod(3, 3) + (v1 * g1))
END

SUBROUTINE proc698(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 8
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(7) = (abs(v2) + abs(8))
  la(3) = la(9)
END

SUBROUTINE proc699(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (13 / (5 + -1))
  la(6) = v0
  g3 = (la(9) / (3 + g1))
  PRINT *, max(v1, la(7))
  f1 = 4
  g2 = 5
  g1 = 10
  la(10) = -2
  IF ((g1 - la(11)) .GT. (-5 + v2) .AND. (-1 / (4 + 13)) .LT. abs(11)) THEN
    g3 = max(-4, 8)
    DO v2 = 3, 6
      la(12) = la(12)
      la(5) = 4
    ENDDO
  ENDIF
  f0 = 15
END

SUBROUTINE proc700(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = 2
  g0 = abs(abs(f0))
  g1 = max(la(3), la(9))
  la(12) = mod(la(1), 5)
  IF (.NOT. ((0 - -4) .NE. g2)) THEN
    g0 = mod(f0, 2)
    f0 = max(-1, g2)
  ENDIF
  la(4) = (abs(10) - 8)
  g0 = max(la(4), -1)
  IF (.NOT. ((4 - la(7)) .LT. 13)) g1 = (-5 - -3)
  v0 = mod((la(4) + 1), 5)
  v0 = (la(4) + 12)
END

SUBROUTINE proc701(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = 6
  IF ((9 * -3) .LE. max(9, -4) .OR. la(7) .GE. -5) f0 = (13 + la(9))
  la(10) = 0
  f0 = 1
  g1 = 8
  g3 = la(4)
  v1 = g3
END

SUBROUTINE proc702(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = (v0 + (4 + 9))
  f0 = la(6)
END

SUBROUTINE proc703(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 7
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = la(2)
  g1 = max(la(8), -4)
  IF (-5 .EQ. -5 .AND. -2 .LT. la(7)) THEN
    g2 = (-3 / (2 + 9))
  ENDIF
  g2 = ((-3 * v2) - mod(la(4), 3))
  PRINT *, ((g0 * v2) * 8)
END

SUBROUTINE proc704(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = max(3, 12)
  IF ((12 / (4 + 6)) .EQ. (la(7) / (4 + la(9))) .OR. max(14, la(5)) .GE. g1) THEN
    g0 = ((14 - 4) + 11)
    DO v0 = 1, 4
      g2 = (abs(15) * 7)
      la(11) = mod(11, 8)
    ENDDO
  ENDIF
END

SUBROUTINE proc705(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = mod((6 - v1), 6)
  IF (.NOT. ((g0 - 7) .EQ. la(5))) THEN
    IF (abs(v0) .GT. g2 .AND. (v1 / (3 + v1)) .LE. (la(9) - g3)) THEN
      PRINT *, 1
      v0 = g1
    ELSE
      v1 = f0
    ENDIF
  ENDIF
  f0 = (g2 - (7 * 2))
  PRINT *, (la(5) / (6 + g3))
  v0 = (-5 * -3)
  g1 = g2
  IF (la(2) .LT. la(10)) THEN
    DO v1 = 3, 6
      la(4) = ((la(3) / (3 + la(6))) * g2)
    ENDDO
  ENDIF
  g3 = 0
  IF (mod(la(4), 7) .LT. (-5 / (5 + -2)) .OR. (13 + la(3)) .EQ. (9 - la(2))) v0 = 6
  g2 = ((14 - v1) / (2 + la(11)))
END

SUBROUTINE proc706(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 7
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 14
  f0 = abs(0)
  DO v0 = 1, 2
    DO v2 = 0, 3
      g2 = (la(7) * 12)
    ENDDO
    g1 = la(6)
  ENDDO
  g2 = mod(g2, 5)
  la(2) = ((v0 + 2) / (2 + 1))
  IF ((g2 + 0) .EQ. g3) THEN
    f1 = la(12)
    v2 = -3
  ELSE
    IF ((7 * f0) .LE. g3) g1 = (la(3) / (4 + 3))
  ENDIF
  f1 = 14
  la(2) = 14
END

SUBROUTINE proc707(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = mod(la(10), 3)
  v0 = 5
  g0 = g0
  IF ((la(3) / (6 + g2)) .EQ. -4 .OR. g3 .GE. 15) THEN
    v0 = g3
    IF ((-2 + 1) .LE. max(12, g2) .AND. 7 .LT. 7) g2 = (la(7) + 7)
  ENDIF
  g0 = f1
  v2 = g0
  g2 = abs(mod(la(4), 5))
  PRINT *, -3
END

SUBROUTINE proc708(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 12
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(6)
  g3 = 4
  la(5) = (-5 + v0)
  v2 = 3
  IF (.NOT. (2 .GE. abs(g3))) THEN
    la(11) = abs(-4)
  ELSE
    PRINT *, -2
  ENDIF
  g0 = f0
  f0 = ((g0 * 5) - (v2 + v2))
END

SUBROUTINE proc709(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 6
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (v2 / (3 + -2))
  f0 = la(3)
  IF (6 .EQ. la(8)) THEN
    la(1) = 9
  ELSE
    IF (max(4, 9) .EQ. g1 .OR. (g1 * 10) .GE. g2) g3 = (7 * g1)
  ENDIF
  g3 = la(10)
  f0 = la(11)
  g1 = 1
  v2 = ((la(5) + -4) / (2 + 10))
END

SUBROUTINE proc710(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 9
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = g0
  PRINT *, max(-2, la(10))
  la(1) = f1
  f1 = 9
  g0 = 14
  g2 = ((0 * f1) - la(10))
END

SUBROUTINE proc711(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = abs((g3 * g1))
  v1 = (max(la(9), 0) / (2 + la(7)))
END

SUBROUTINE proc712(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = la(2)
END

SUBROUTINE proc713(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 11
  v2 = 12
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((la(8) + la(2)) .LT. mod(la(7), 7)) g3 = -1
  IF ((8 - f0) .LE. la(8)) THEN
    v3 = (1 / (5 + la(9)))
    v3 = abs(g0)
  ENDIF
  v3 = f0
  IF ((la(10) / (3 + v0)) .GT. abs(v0) .OR. (-2 + 8) .LT. (8 / (5 + 11))) v1 = (8 / (2 + v0))
  g1 = (9 + abs(g0))
  DO g0 = 2, 2
    PRINT *, la(6)
    PRINT *, la(10)
  ENDDO
  IF (.NOT. (la(8) .EQ. 12)) v0 = (la(9) + 0)
  la(10) = 5
END

SUBROUTINE proc714(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 14
  v2 = 4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = g0
  v3 = la(8)
END

SUBROUTINE proc715(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((3 - 1) .GT. la(11))) g2 = mod(15, 6)
  IF (g3 .LE. abs(-1)) THEN
    g0 = max(1, la(1))
    la(3) = g1
  ELSE
    g2 = (f0 + mod(la(11), 4))
    f1 = la(9)
  ENDIF
  f0 = la(8)
  f1 = mod(g1, 6)
  f0 = ((2 / (5 + f1)) / (2 + la(2)))
  la(10) = (3 * la(6))
  DO f0 = 2, 6
    v0 = (la(1) / (6 + 2))
    DO v1 = 1, 3
      la(8) = (max(0, f1) + la(11))
      v0 = (f1 - (la(1) + la(4)))
    ENDDO
  ENDDO
  la(7) = mod(5, 7)
  v1 = (10 / (3 + 13))
END

SUBROUTINE proc716(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 1
  v2 = 2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = 3
  PRINT *, 5
  IF (10 .LE. (-3 / (3 + 6))) f0 = mod(la(12), 4)
  DO v1 = 0, 0
    f0 = la(8)
    PRINT *, f0
  ENDDO
  v1 = la(9)
  v1 = (abs(la(8)) / (6 + 5))
  DO f0 = 0, 0
    v2 = v1
  ENDDO
END

SUBROUTINE proc717(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 10
  v2 = 5
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = (abs(la(8)) - (la(8) - la(7)))
  IF ((f0 * -5) .EQ. mod(v1, 5) .OR. mod(-2, 5) .GE. (la(2) * g1)) THEN
    DO v2 = 1, 2
      f0 = -5
      PRINT *, la(1)
    ENDDO
    f0 = la(2)
  ELSE
    la(3) = la(10)
    PRINT *, max(8, v1)
  ENDIF
  g2 = g3
  IF (2 .LT. max(la(12), la(12)) .OR. abs(f0) .LE. (la(6) * g2)) THEN
    PRINT *, (max(v3, 4) - abs(10))
    g3 = abs(la(9))
  ENDIF
  IF (mod(4, 4) .GT. -1 .OR. (v2 + 8) .EQ. (v2 + la(3))) v1 = la(7)
  IF (g3 .GT. mod(2, 8)) THEN
    g2 = (v1 + la(2))
    g3 = 5
  ELSE
    v2 = mod(6, 5)
    la(1) = la(3)
  ENDIF
  IF (3 .NE. 4 .OR. mod(1, 8) .GT. 6) THEN
    v1 = la(6)
    PRINT *, max(-5, -2)
  ENDIF
  g0 = g0
  g2 = 10
END

SUBROUTINE proc718(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (mod(14, 2) .GE. 9 .AND. mod(8, 5) .NE. mod(10, 3)) THEN
    IF ((la(7) * v0) .LT. -5) THEN
      g0 = (la(10) + (1 + la(7)))
      f0 = ((-1 / (4 + la(7))) / (3 + 14))
    ENDIF
  ELSE
    v0 = (max(f1, la(7)) + (15 - la(4)))
  ENDIF
  PRINT *, 7
  f1 = (13 + 1)
  v0 = -1
  PRINT *, 6
  f0 = g1
  la(3) = max(0, g2)
  f0 = (2 / (3 + la(10)))
  DO g2 = 1, 5
    PRINT *, 14
  ENDDO
END

SUBROUTINE proc719(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 5
  v2 = 6
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 2
  IF (abs(-5) .GE. abs(la(12))) v3 = (la(10) - g0)
  IF (.NOT. (-4 .LT. (la(8) / (6 + v3)))) g1 = (9 * v3)
  la(1) = 9
  DO g1 = 3, 5
    g2 = (14 * f0)
  ENDDO
  IF (abs(0) .LE. (v3 * 12) .AND. v1 .EQ. mod(-5, 7)) v0 = (v2 - la(9))
  f1 = f1
  v3 = ((g1 - -2) - g2)
  v1 = 2
END

SUBROUTINE proc720(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = ((la(8) / (4 + 11)) * la(7))
END

SUBROUTINE proc721(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (abs(la(6)) .GT. f0 .AND. (9 / (2 + la(2))) .GE. 15) THEN
    v0 = mod(abs(-4), 4)
  ENDIF
  DO f0 = 3, 6
    IF (v2 .LT. g0 .AND. (la(3) * -3) .NE. abs(la(4))) g0 = (11 / (6 + f1))
    IF (la(6) .LE. (11 * la(2)) .AND. 10 .LE. (v0 * 4)) g0 = 11
  ENDDO
  la(11) = max(7, -4)
  g2 = -5
  IF ((8 - v0) .GE. (g1 + 0)) g2 = 2
  IF (.NOT. (abs(0) .NE. (g0 - la(10)))) g3 = mod(10, 3)
  DO v1 = 3, 7
    g2 = (mod(la(4), 6) + la(7))
    g3 = la(7)
  ENDDO
  IF (.NOT. ((7 * la(9)) .NE. (g0 - f1))) g0 = -5
  PRINT *, ((2 / (2 + la(10))) - 15)
END

SUBROUTINE proc722(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (g3 .LT. v1) THEN
    g2 = mod(0, 7)
    v1 = g3
  ENDIF
  g1 = -5
  v0 = 2
  g2 = 3
  IF (.NOT. ((1 * -3) .LE. abs(g2))) THEN
    IF (.NOT. ((0 - v0) .GE. v1)) THEN
      g3 = v0
    ELSE
      v0 = (5 / (6 + 4))
      f0 = -4
    ENDIF
    g3 = v1
  ENDIF
  PRINT *, 4
END

SUBROUTINE proc723(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 7
  v2 = 1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = (abs(v3) / (2 + -1))
  g2 = -5
  g3 = 6
  IF ((v0 + la(6)) .EQ. 15 .OR. (7 / (4 + -1)) .LE. (v2 + g0)) THEN
    v2 = mod((-4 - v0), 7)
  ENDIF
  DO v2 = 2, 5
    IF (max(1, la(7)) .EQ. abs(11) .AND. 12 .LE. abs(la(7))) THEN
      g3 = la(8)
      la(6) = (la(3) / (3 + 3))
    ENDIF
    g0 = v1
  ENDDO
  IF (.NOT. (max(2, -2) .LE. f1)) THEN
    DO f1 = 0, 0
      v3 = mod(la(7), 2)
    ENDDO
  ELSE
    f1 = v1
    DO g2 = 3, 7
      f0 = 8
    ENDDO
  ENDIF
  PRINT *, mod((-4 - 8), 8)
  DO f1 = 2, 3
    PRINT *, la(2)
  ENDDO
  g2 = mod((8 + g2), 7)
END

SUBROUTINE proc724(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -1
  v2 = 14
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = max(10, 9)
  v0 = -3
  IF (la(3) .EQ. la(11) .OR. 11 .EQ. abs(la(11))) v1 = 1
  g2 = (11 / (3 + g1))
  IF ((2 - 14) .LT. v0 .AND. -1 .LT. -3) THEN
    v0 = mod(abs(13), 6)
  ENDIF
  v0 = mod(7, 8)
  f0 = la(6)
  IF (.NOT. (g1 .LT. 9)) THEN
    v3 = 0
    v2 = la(4)
  ELSE
    IF (f1 .LE. (8 - la(8)) .OR. (g2 + v2) .LE. abs(la(12))) v0 = (v2 * 12)
  ENDIF
END

SUBROUTINE proc725(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, mod((v0 - g0), 7)
  v1 = (la(12) * la(10))
  DO g1 = 1, 1
    g2 = 14
    IF (mod(g3, 5) .EQ. la(6) .OR. max(v1, 7) .GT. g2) THEN
      v1 = (0 - g1)
    ELSE
      PRINT *, la(1)
      IF (mod(g1, 3) .GT. 5 .OR. abs(1) .GT. la(4)) g2 = la(3)
    ENDIF
  ENDDO
  v0 = 9
  g1 = 12
  la(3) = mod((la(9) + 3), 4)
  IF (la(9) .EQ. abs(la(6)) .AND. 6 .GE. abs(4)) f1 = 13
  v0 = max(la(7), 4)
  IF (5 .LT. mod(1, 8) .OR. v1 .EQ. 2) g0 = g2
  IF (.NOT. (mod(9, 4) .LT. 2)) v0 = 11
END

SUBROUTINE proc726(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = v1
  g1 = abs((la(6) / (3 + g2)))
  g3 = (-4 + 13)
  g3 = la(6)
  IF (.NOT. (12 .GE. f0)) THEN
    g2 = max(la(7), 5)
    DO g3 = 1, 2
      la(9) = g3
      la(3) = g3
    ENDDO
  ENDIF
  v0 = mod(mod(10, 2), 3)
  v0 = f0
  g0 = 6
END

SUBROUTINE proc727(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = 15
  la(3) = abs(8)
  v1 = -1
  DO g3 = 1, 5
    PRINT *, ((f0 - la(3)) + max(la(6), 11))
    f0 = g2
  ENDDO
  PRINT *, g1
  v0 = max(12, g3)
  v0 = 9
END

SUBROUTINE proc728(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (abs(15) / (3 + 8))
  la(6) = g3
  PRINT *, mod((10 + g2), 2)
  PRINT *, (12 * 15)
  v1 = 15
END

SUBROUTINE proc729(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = v1
  DO g0 = 3, 6
    DO g2 = 0, 1
      g3 = (v2 + (g0 - 11))
      g3 = (mod(la(8), 4) + mod(v0, 7))
    ENDDO
    g2 = (g0 * la(1))
  ENDDO
  DO v1 = 1, 3
    IF ((v0 + -5) .GE. 15) g1 = (-4 - -1)
    f0 = (mod(g1, 7) * g1)
  ENDDO
  PRINT *, 3
  PRINT *, la(5)
  v1 = (15 / (6 + g2))
  g1 = ((9 + la(12)) + la(1))
  v2 = g1
  PRINT *, max(v2, 11)
END

SUBROUTINE proc730(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, abs(mod(v1, 7))
  f1 = mod(max(-3, 5), 6)
  DO v0 = 1, 3
    IF (.NOT. ((la(5) - la(2)) .LT. abs(14))) g0 = abs(la(11))
    g0 = (la(4) + la(7))
  ENDDO
  IF (.NOT. (6 .EQ. 1)) THEN
    v0 = (abs(g2) + (la(7) - la(2)))
  ENDIF
  IF ((g2 - la(5)) .GT. 13 .AND. 8 .GT. (g1 * 4)) v0 = la(8)
  g1 = mod(abs(v0), 5)
END

SUBROUTINE proc731(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 6
  v2 = 5
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(3) = 8
  g1 = max(la(9), g1)
END

SUBROUTINE proc732(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 3
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (3 .NE. (g1 + 11) .OR. g2 .LE. mod(-2, 7)) v0 = (la(2) + -5)
  g0 = la(3)
END

SUBROUTINE proc733(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(9) = (max(15, 6) + g0)
  v0 = mod(-2, 3)
  g0 = 1
  la(11) = -4
  PRINT *, 12
  v1 = (abs(la(10)) + la(1))
  PRINT *, mod(14, 3)
  g2 = la(7)
END

SUBROUTINE proc734(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = 1
  IF (max(0, f0) .GE. abs(la(7)) .OR. la(3) .GT. (g2 / (4 + 6))) f1 = 6
  g0 = g3
END

SUBROUTINE proc735(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (la(11) .LT. g0 .OR. 15 .LT. (-5 - la(4))) THEN
    g1 = -5
    IF ((g1 - la(4)) .LT. max(12, la(4)) .OR. 5 .LE. la(8)) g3 = abs(la(4))
  ENDIF
  PRINT *, (f0 - (f0 * 5))
  f0 = f0
  PRINT *, ((13 * la(3)) + f0)
END

SUBROUTINE proc736(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 10
  v2 = 5
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = max(f1, g1)
  v3 = 8
  g3 = g1
  la(1) = la(3)
END

SUBROUTINE proc737(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, v0
  PRINT *, ((g1 / (5 + 12)) / (6 + 7))
  PRINT *, 9
  IF (g3 .NE. la(7) .AND. (la(2) * g1) .GE. (g0 + 6)) g1 = 9
END

SUBROUTINE proc738(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 3
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = 10
  g0 = abs(mod(-2, 4))
  f0 = (2 + max(la(5), g3))
  IF (.NOT. (12 .LE. (12 + g3))) THEN
    la(12) = ((13 - 1) - v1)
    PRINT *, ((la(2) / (3 + f0)) + g2)
  ENDIF
END

SUBROUTINE proc739(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 13
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(6)
END

SUBROUTINE proc740(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 5
  v2 = 10
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (la(5) .GE. v2 .AND. abs(la(5)) .LT. abs(-1)) THEN
    f0 = (la(9) / (4 + 0))
    DO v1 = 1, 2
      IF (.NOT. ((-4 + 4) .LT. (1 * 0))) g0 = (g2 - -3)
    ENDDO
  ELSE
    IF (7 .EQ. (g2 / (2 + 11))) THEN
      v1 = 0
      v0 = v1
    ENDIF
    g2 = abs(-3)
  ENDIF
  v2 = (5 + max(v0, g0))
  IF (.NOT. ((1 - v1) .GE. max(-1, -4))) THEN
    la(5) = ((la(5) * 7) + 11)
  ELSE
    v2 = ((-5 * g2) - la(5))
  ENDIF
  DO g0 = 1, 2
    IF (mod(la(7), 5) .LE. v2 .OR. -1 .GE. 1) THEN
      v0 = 7
      g2 = max(6, 14)
    ELSE
      v2 = (5 / (5 + la(7)))
    ENDIF
  ENDDO
  v1 = v3
  v2 = (la(3) + la(3))
  IF ((4 - la(8)) .GE. g3 .OR. f0 .LE. la(1)) g1 = mod(g1, 5)
  PRINT *, mod(abs(g1), 6)
  IF (g3 .NE. la(11) .AND. (la(12) * la(6)) .NE. v1) THEN
    g3 = ((-2 * -4) * v0)
    v1 = ((12 * 7) / (6 + la(5)))
  ELSE
    PRINT *, -5
    f0 = g1
  ENDIF
  g1 = ((8 - 8) + mod(4, 5))
END

SUBROUTINE proc741(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 7
  v2 = 11
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, la(6)
  IF ((g0 * f0) .GE. 15 .OR. (la(5) * 14) .LE. max(la(4), 11)) v0 = 11
  g3 = la(9)
END

SUBROUTINE proc742(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = ((v1 - g2) - (la(7) * la(1)))
  g0 = abs(5)
  g2 = ((g2 - la(4)) * la(3))
  g2 = (v1 - (6 + 11))
  g1 = ((la(4) / (6 + g3)) - la(6))
  IF ((13 * v2) .LE. v1 .AND. g1 .GT. max(8, 3)) f0 = abs(5)
  g3 = mod(v2, 5)
END

SUBROUTINE proc743(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (max(-4, la(5)) .GE. g2 .AND. la(8) .LT. abs(la(6))) THEN
    PRINT *, 0
  ENDIF
  la(4) = abs(14)
  DO g3 = 1, 2
    IF (5 .NE. (la(10) * -2)) f0 = v1
  ENDDO
  DO g3 = 2, 6
    IF (.NOT. (14 .LT. la(7))) f0 = 12
    g0 = la(11)
  ENDDO
  PRINT *, g3
  v0 = 11
  f0 = (3 + g0)
  g2 = abs(la(1))
  la(9) = (f0 / (4 + -5))
  g1 = mod(-5, 8)
END

SUBROUTINE proc744(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -3
  v2 = -2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v2 = 0, 2
    IF (-1 .LE. (la(10) * -1)) THEN
      g0 = (la(10) / (6 + la(9)))
      g1 = mod(abs(-3), 4)
    ENDIF
    PRINT *, g2
  ENDDO
  PRINT *, (la(5) * v2)
  IF ((la(6) + g1) .NE. (v2 / (2 + 6))) g0 = (la(11) * 13)
  v2 = mod(la(5), 8)
  la(9) = la(2)
  g3 = mod((la(6) / (2 + 1)), 7)
  la(12) = 0
END

SUBROUTINE proc745(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (6 .GE. mod(8, 5))) THEN
    f1 = (abs(la(6)) - v0)
  ELSE
    g2 = (6 / (6 + 5))
    IF (2 .LT. (v1 / (5 + g2)) .OR. -1 .NE. la(2)) g1 = (11 + la(5))
  ENDIF
  PRINT *, f0
  f1 = (abs(4) - 0)
  g0 = g3
  IF ((-4 / (6 + 15)) .EQ. (v0 / (4 + la(8)))) THEN
    DO g0 = 2, 3
      f1 = (g2 - (la(2) * -5))
      g2 = 15
    ENDDO
    la(3) = abs(3)
  ENDIF
  IF (5 .NE. la(5)) THEN
    PRINT *, mod(-1, 8)
    IF (3 .GT. abs(1) .AND. max(f1, g3) .EQ. f0) THEN
      f0 = abs(g0)
      g1 = (abs(la(1)) / (4 + la(10)))
    ENDIF
  ELSE
    IF (la(11) .GE. abs(la(10)) .OR. (15 + v0) .GE. mod(g2, 6)) v0 = (la(9) - la(12))
    g3 = ((f1 + la(5)) - (6 + 6))
  ENDIF
  g2 = (max(la(10), la(3)) * 3)
  IF (2 .GT. v1) v0 = (g3 - 11)
  la(4) = ((13 * g0) - max(g3, v1))
END

SUBROUTINE proc746(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 12
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (7 .GT. -3)) g2 = 10
  PRINT *, 6
  g1 = 9
END

SUBROUTINE proc747(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = -3
  DO f0 = 3, 6
    g2 = abs((8 / (5 + 0)))
    IF (2 .NE. max(-1, 15) .OR. (13 * la(8)) .LT. (la(7) - la(3))) THEN
      la(10) = mod(la(11), 5)
    ENDIF
  ENDDO
  IF (13 .GT. 0) g0 = f0
  DO g3 = 3, 4
    f0 = 14
    PRINT *, la(8)
  ENDDO
  g0 = (-1 + (-5 + 5))
  v1 = (-1 / (2 + la(9)))
END

SUBROUTINE proc748(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 2, 2
    la(4) = 0
    v1 = (7 - 9)
  ENDDO
  IF (mod(g2, 2) .LT. 0) THEN
    f0 = 1
  ENDIF
  IF (abs(g0) .EQ. max(f0, v0)) THEN
    v0 = 12
  ENDIF
  v0 = mod((la(5) - 11), 8)
END

SUBROUTINE proc749(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 11
  v2 = -1
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = (0 - 4)
  g1 = abs(11)
  la(4) = max(13, la(5))
  f1 = max(7, 0)
  f1 = 7
END

SUBROUTINE proc750(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = abs((la(3) / (4 + f0)))
  IF ((v0 * -4) .LT. mod(14, 6) .OR. (la(2) - la(4)) .EQ. abs(4)) f1 = g1
  IF (1 .LT. la(11) .OR. g3 .LT. max(g2, v1)) THEN
    g0 = mod((12 * la(6)), 6)
  ENDIF
  v0 = ((f1 - v0) / (5 + la(2)))
END

SUBROUTINE proc751(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 8
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (-2 .NE. (g3 + 12))) THEN
    v2 = la(11)
    IF (abs(g0) .GT. (8 * 2) .AND. v1 .NE. max(la(12), la(9))) g0 = 2
  ENDIF
  IF (la(2) .LT. v1) v2 = (g1 + v0)
  IF (3 .GE. max(14, la(7)) .AND. -1 .NE. 7) THEN
    v1 = abs(11)
  ENDIF
END

SUBROUTINE proc752(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 10
  v2 = 13
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = 7
  v1 = (f0 / (4 + 14))
  g2 = 0
  g0 = la(8)
END

SUBROUTINE proc753(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = abs((v0 / (4 + 10)))
  PRINT *, mod((g0 + 4), 5)
  la(11) = max(-5, v1)
  DO v0 = 1, 1
    PRINT *, 12
    f0 = la(12)
  ENDDO
  IF (.NOT. (v1 .LT. (7 + -5))) g3 = mod(-4, 6)
  DO g2 = 2, 3
    f0 = la(11)
  ENDDO
  PRINT *, max(10, 2)
  f0 = ((la(4) / (5 + g3)) * g0)
  la(6) = max(la(6), 5)
END

SUBROUTINE proc754(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 8
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = abs(v1)
  PRINT *, mod(max(5, -4), 7)
  g2 = mod(5, 7)
  f0 = v0
  f0 = 11
  g2 = la(7)
  f1 = -1
  la(10) = (la(4) + (-3 / (4 + la(11))))
  g1 = mod(max(11, la(8)), 3)
  DO g1 = 1, 1
    PRINT *, (v1 - 9)
    IF (la(11) .NE. 8 .AND. g2 .GE. la(4)) g0 = g3
  ENDDO
END

SUBROUTINE proc755(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 0
  v2 = -4
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (mod(g1, 3) .LE. 8)) THEN
    f0 = (abs(10) + g3)
  ENDIF
END

SUBROUTINE proc756(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(8) = (abs(0) + g2)
  v1 = (14 / (6 + -1))
  g0 = (max(la(9), 13) * 2)
  v1 = mod(la(5), 8)
  v0 = g1
  la(7) = abs(0)
  g3 = la(5)
  la(8) = la(9)
  v3 = mod(15, 4)
END

SUBROUTINE proc757(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 6
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = 8
  la(3) = abs(mod(11, 3))
  f0 = (-2 + la(8))
  v2 = 11
  la(5) = (v2 - (4 / (2 + v0)))
  f0 = la(5)
  IF ((5 + la(1)) .GT. max(14, -5)) THEN
    PRINT *, f0
    DO f0 = 0, 1
      PRINT *, la(2)
      v2 = ((g0 - 11) / (2 + 4))
    ENDDO
  ENDIF
  IF (.NOT. ((la(9) / (5 + la(6))) .NE. g3)) g3 = 7
  IF (.NOT. (f0 .NE. (3 + la(1)))) g3 = abs(la(1))
END

SUBROUTINE proc758(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 12
  v2 = 3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = la(4)
  v2 = (g2 * g0)
END

SUBROUTINE proc759(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(1) = (abs(la(4)) - abs(g1))
  v1 = 8
  g3 = la(8)
  g1 = (9 / (6 + 4))
  g0 = la(1)
  v1 = mod(la(1), 8)
END

SUBROUTINE proc760(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (0 .NE. max(v0, -1) .AND. la(2) .GE. v0) THEN
    DO f0 = 0, 0
      v2 = (max(la(5), g0) / (4 + 12))
      v0 = la(7)
    ENDDO
    IF (abs(la(6)) .NE. 11 .OR. (10 / (2 + g0)) .NE. g2) THEN
      g0 = (1 - max(g1, 11))
    ENDIF
  ELSE
    IF (.NOT. (max(la(11), la(9)) .EQ. (la(11) * f0))) THEN
      f0 = max(5, la(8))
    ELSE
      f1 = 3
    ENDIF
  ENDIF
END

SUBROUTINE proc761(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 11
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(3) = 1
END

SUBROUTINE proc762(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = -5
  f1 = 3
  la(8) = (max(g3, -1) / (3 + la(12)))
  IF (g0 .GT. g3 .OR. la(9) .LE. g2) THEN
    v1 = v0
  ELSE
    g3 = 9
  ENDIF
  v1 = f1
  g3 = ((-4 + la(11)) + (10 * 7))
  g3 = g1
  g2 = la(8)
  IF (.NOT. (max(12, -1) .NE. (-4 * 10))) THEN
    IF (.NOT. (max(10, g0) .LE. (0 / (5 + 13)))) THEN
      PRINT *, la(3)
    ENDIF
  ENDIF
END

SUBROUTINE proc763(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 9
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = 8
  DO v2 = 1, 2
    IF ((la(4) + -2) .LE. abs(v0) .AND. max(la(5), 6) .GE. (f0 + f0)) f0 = (7 / (4 + la(8)))
  ENDDO
  v2 = mod(la(3), 8)
  f1 = abs(-5)
END

SUBROUTINE proc764(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 9
  v2 = 3
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO f0 = 1, 4
    la(4) = la(5)
  ENDDO
  DO f1 = 3, 7
    g2 = (la(11) * la(10))
    la(12) = ((-5 * -3) + la(1))
  ENDDO
  la(10) = (abs(f1) - (14 - la(2)))
  DO f1 = 3, 3
    g0 = (abs(g3) + mod(la(3), 4))
    v3 = (-2 + mod(f0, 6))
  ENDDO
  v0 = g0
END

SUBROUTINE proc765(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = (v2 + (g2 * -3))
  la(7) = -4
  g3 = v2
  g2 = la(8)
  g0 = abs((2 / (5 + 15)))
  DO g0 = 2, 3
    g1 = mod(max(10, -5), 8)
    f0 = (5 - (-1 * 6))
  ENDDO
  g0 = ((g2 / (4 + 0)) / (6 + 9))
  g2 = (abs(la(12)) - 2)
  DO f0 = 2, 6
    g1 = max(g0, la(7))
  ENDDO
  IF ((1 * 10) .LT. -2 .OR. mod(v2, 2) .LE. (la(10) + g0)) v0 = 14
END

SUBROUTINE proc766(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = f0
  g1 = -2
  v2 = abs((v1 / (3 + 3)))
  g1 = abs((4 * g0))
  IF (.NOT. ((15 * 4) .GE. (la(7) + -1))) f0 = 4
  PRINT *, 12
  v1 = max(5, g3)
  la(4) = -4
END

SUBROUTINE proc767(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = abs(g0)
  v1 = la(6)
  la(10) = (15 / (3 + f0))
  g0 = -3
  g3 = (9 / (2 + la(6)))
END

SUBROUTINE proc768(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 10
  PRINT *, abs(11)
  la(10) = -3
  g3 = la(2)
  g2 = -4
  IF (la(12) .GT. 15) THEN
    PRINT *, 13
    DO f1 = 2, 4
      IF ((2 - f0) .GT. 9) v1 = 1
    ENDDO
  ELSE
    g1 = max(la(11), 10)
  ENDIF
  v0 = mod((-2 - g1), 2)
  IF (abs(la(8)) .GT. (v0 - 5)) THEN
    g2 = 14
  ELSE
    v0 = (abs(7) * v0)
  ENDIF
END

SUBROUTINE proc769(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = (mod(9, 5) / (2 + f1))
  f0 = la(9)
  f1 = (g1 + mod(la(11), 5))
END

SUBROUTINE proc770(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 6
  v2 = 6
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = abs((v2 + 0))
  g2 = 5
  v3 = (f0 + (3 + g2))
  v0 = 1
  g3 = (abs(5) / (6 + la(8)))
  v0 = la(4)
  PRINT *, (max(v1, 5) / (5 + v1))
  v3 = (max(6, -3) - v0)
  v2 = (1 + (v1 / (2 + 10)))
END

SUBROUTINE proc771(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 11
  v2 = 14
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = la(2)
  DO f0 = 0, 0
    IF (abs(la(2)) .NE. (4 * 8) .OR. max(-2, 10) .GE. max(g1, 1)) THEN
      g1 = mod(v3, 2)
    ELSE
      g2 = (v0 * la(7))
    ENDIF
  ENDDO
END

SUBROUTINE proc772(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = 8
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = la(7)
  v3 = (8 / (5 + la(5)))
  g3 = max(3, -3)
END

SUBROUTINE proc773(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = ((4 / (4 + la(4))) * la(4))
  IF (.NOT. (abs(-1) .LE. (10 / (5 + 3)))) THEN
    v1 = 6
  ENDIF
  g1 = (max(-5, la(11)) / (2 + 11))
  f1 = 12
  f1 = -5
  la(6) = abs(la(10))
  v1 = -2
END

SUBROUTINE proc774(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = g0
  IF ((la(9) * v2) .GT. (4 / (6 + g1))) THEN
    DO f1 = 3, 5
      v2 = v1
    ENDDO
  ENDIF
  g3 = ((la(3) * v0) * f0)
  g3 = f1
END

SUBROUTINE proc775(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(9) = (13 + (-5 + la(12)))
  IF ((8 / (3 + la(6))) .NE. 14) g3 = (la(4) - g3)
  PRINT *, max(v1, 1)
  PRINT *, g3
  DO v0 = 3, 4
    g3 = mod(abs(la(12)), 7)
  ENDDO
  PRINT *, 12
END

SUBROUTINE proc776(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 1
  v2 = 11
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = ((la(9) / (4 + 3)) * la(2))
  v0 = max(la(1), 8)
END

SUBROUTINE proc777(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 5
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(5) = (v0 / (6 + f0))
  g3 = 12
  PRINT *, v0
  f0 = -2
  v1 = 5
  IF (abs(la(9)) .LT. 8 .OR. (9 * f1) .GE. 6) g0 = (1 / (3 + la(6)))
  DO v0 = 2, 6
    la(2) = g2
  ENDDO
  IF ((0 / (5 + la(2))) .GT. (-1 * 0) .OR. g0 .LT. -4) THEN
    IF (.NOT. (3 .GT. (13 * -2))) THEN
      IF ((la(3) / (4 + v0)) .GE. g3) f1 = 13
      la(10) = (4 - (2 * g2))
    ELSE
      la(6) = 2
      IF (max(g0, la(10)) .LE. (9 / (4 + -4))) g1 = v2
    ENDIF
    f0 = la(8)
  ENDIF
END

SUBROUTINE proc778(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 10
  v2 = 14
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = la(2)
  g0 = max(-5, 3)
  g2 = mod(abs(-4), 3)
END

SUBROUTINE proc779(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 11
  v2 = -3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(7) = ((10 - 13) + (3 / (6 + la(8))))
  la(8) = (3 / (5 + 0))
END

SUBROUTINE proc780(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = -5
END

SUBROUTINE proc781(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 12
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = (abs(la(1)) * f0)
END

SUBROUTINE proc782(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 14
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = 8
  PRINT *, 3
  PRINT *, f0
END

SUBROUTINE proc783(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. ((-1 - 14) .LE. max(0, -1))) THEN
    g3 = la(4)
  ELSE
    g3 = (la(8) - mod(la(12), 4))
  ENDIF
  g1 = (11 - 14)
  f0 = (-3 + (1 * 14))
  g0 = la(1)
  IF (13 .EQ. 1 .AND. -3 .LE. (1 * 5)) THEN
    f0 = mod((7 * g0), 4)
  ELSE
    g1 = la(4)
  ENDIF
  g2 = la(12)
  v0 = 10
  DO g3 = 0, 0
    IF (9 .LT. (la(6) + 13)) g0 = (g1 / (3 + -5))
  ENDDO
  IF (la(10) .GT. 4 .OR. f0 .EQ. la(11)) THEN
    PRINT *, g0
  ENDIF
END

SUBROUTINE proc784(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. ((la(7) / (3 + la(1))) .NE. (la(2) - f1))) g0 = mod(la(11), 2)
  g0 = (12 / (6 + f0))
  g1 = 4
  DO f0 = 2, 4
    g3 = max(8, 3)
  ENDDO
END

SUBROUTINE proc785(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 5
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = 11
  g0 = g2
  IF (max(5, -5) .GE. (la(2) - g3)) THEN
    f0 = (mod(1, 7) / (3 + 4))
  ENDIF
  g1 = abs((13 / (6 + la(2))))
  g0 = (v1 * -4)
  g1 = -1
END

SUBROUTINE proc786(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -3
  v2 = 13
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(5)
  v1 = f0
  g2 = (max(-3, 3) - max(la(9), 0))
  DO g2 = 1, 1
    g3 = 14
    f0 = ((13 / (3 + la(1))) - mod(v1, 8))
  ENDDO
  v3 = (mod(0, 5) / (4 + la(4)))
  IF ((la(11) / (2 + 14)) .LT. (la(7) + la(1)) .AND. g0 .GE. mod(-4, 2)) THEN
    PRINT *, la(10)
    g0 = (max(-2, g1) - la(11))
  ENDIF
  f1 = (abs(-5) + mod(la(3), 8))
  IF ((-5 - -1) .EQ. la(12) .AND. la(4) .EQ. 10) g1 = (la(1) / (5 + 12))
  PRINT *, g1
END

SUBROUTINE proc787(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -4
  v2 = 14
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = max(10, v2)
  v2 = 5
  v1 = ((2 - 0) * la(9))
  DO g3 = 2, 2
    g2 = (max(v0, -5) - v2)
  ENDDO
  la(11) = max(f0, 6)
  v3 = la(9)
  IF ((1 * la(8)) .LT. (la(2) * 12) .AND. 1 .LE. 5) THEN
    v2 = abs(12)
  ENDIF
  la(11) = (g1 / (2 + f0))
  g0 = abs((g3 * 12))
  IF (max(5, 2) .GE. 1 .AND. (14 / (2 + la(1))) .EQ. max(la(5), g2)) THEN
    v0 = abs(g0)
    la(12) = v3
  ELSE
    g1 = 11
    la(10) = (7 * -3)
  ENDIF
END

SUBROUTINE proc788(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (f0 .LE. (g2 * la(10)) .AND. (8 / (3 + 5)) .NE. 11) THEN
    g2 = g3
  ELSE
    g3 = f0
  ENDIF
END

SUBROUTINE proc789(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 11
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = 0
  v0 = ((la(5) * 6) * 11)
  IF (.NOT. (2 .LE. abs(1))) THEN
    g1 = ((f0 + -1) * -1)
    IF ((v0 + la(7)) .NE. (la(8) + -5) .OR. 10 .EQ. 5) v2 = (f0 / (5 + 11))
  ENDIF
END

SUBROUTINE proc790(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (la(8) .NE. (5 + la(3))) THEN
    PRINT *, max(-5, 14)
    v1 = f0
  ELSE
    f0 = 8
    IF ((0 / (5 + la(1))) .LE. (v0 * 5) .OR. mod(-1, 6) .LT. 12) THEN
      PRINT *, (mod(-4, 4) - la(5))
    ELSE
      v0 = f1
    ENDIF
  ENDIF
  DO g1 = 0, 2
    f1 = (v0 / (3 + 2))
    v0 = la(5)
  ENDDO
  g2 = (la(11) - (g1 * f0))
  g2 = abs(-2)
  la(10) = -4
END

SUBROUTINE proc791(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 7
  v2 = 8
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(7) = 15
  IF (.NOT. (15 .GE. mod(13, 2))) THEN
    IF (f0 .EQ. (la(9) - 6)) g2 = max(5, la(8))
  ENDIF
  la(7) = abs(la(12))
  DO v3 = 0, 2
    IF (mod(5, 8) .EQ. g1) v1 = mod(g0, 7)
    DO g2 = 2, 4
      v1 = (3 + (v1 + v2))
      v0 = la(5)
    ENDDO
  ENDDO
  f1 = (la(12) / (3 + la(12)))
  IF ((la(2) * f1) .LT. la(10) .AND. f0 .GT. v2) v0 = (14 / (4 + -1))
END

SUBROUTINE proc792(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = 10
  PRINT *, ((7 * 9) - max(f0, g1))
  g0 = 12
  IF (mod(g1, 7) .GE. (la(5) + f0) .OR. -3 .NE. (14 / (4 + v1))) THEN
    DO v0 = 3, 5
      g2 = (0 / (5 + g1))
    ENDDO
  ENDIF
  f0 = la(5)
  IF (abs(g3) .NE. g0 .AND. (0 * g0) .GT. (12 / (4 + g3))) THEN
    v0 = abs((-1 - v0))
  ELSE
    g3 = v1
    f0 = la(7)
  ENDIF
  g3 = abs(mod(g3, 3))
  PRINT *, la(12)
END

SUBROUTINE proc793(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 5
  v2 = -1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v1 = 3, 5
    la(11) = 1
  ENDDO
  la(2) = 0
END

SUBROUTINE proc794(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = mod(abs(15), 3)
END

SUBROUTINE proc795(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 10
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, g0
  v2 = (g0 + (-1 - g2))
  v2 = g1
  v2 = 10
  v0 = ((5 - 3) * 12)
  la(10) = max(g0, f1)
  IF (mod(13, 5) .GT. v1) f0 = g1
  g1 = 2
  la(3) = mod(f1, 2)
  f0 = la(10)
END

SUBROUTINE proc796(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = ((5 / (3 + g2)) + la(11))
END

SUBROUTINE proc797(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -3
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = ((-4 + v2) + la(1))
  IF (la(1) .NE. 5 .AND. 7 .GE. la(5)) v0 = (g3 * 1)
  g2 = 0
  IF (la(4) .LT. abs(la(11))) g0 = la(10)
  IF (.NOT. (abs(-5) .NE. la(10))) THEN
    IF (abs(g3) .GT. la(6) .OR. (11 / (4 + 0)) .GT. (-3 * la(2))) f0 = (-5 + la(8))
  ELSE
    v0 = max(v2, v1)
    IF (mod(la(8), 4) .GT. abs(14) .AND. la(7) .GE. la(4)) THEN
      la(8) = -3
      v0 = la(2)
    ELSE
      v0 = v1
    ENDIF
  ENDIF
  IF (g3 .GT. 9 .OR. 1 .LT. abs(14)) THEN
    la(8) = (g2 * la(6))
    DO g0 = 2, 4
      la(2) = mod((f0 + v0), 3)
    ENDDO
  ELSE
    PRINT *, -4
  ENDIF
END

SUBROUTINE proc798(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -1
  v2 = 11
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = 2
  f0 = g0
  g1 = la(7)
  v0 = v1
  g0 = (la(2) + -5)
END

SUBROUTINE proc799(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (max(-5, 3) + abs(f1))
  v1 = (mod(4, 6) - v0)
  la(11) = max(7, f1)
  f0 = abs((g2 - 12))
  DO g3 = 0, 4
    IF (.NOT. (15 .LT. (f1 / (3 + 3)))) THEN
      v1 = -3
      g0 = 0
    ELSE
      f1 = 3
    ENDIF
    f0 = (g1 * 2)
  ENDDO
END

SUBROUTINE proc800(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = abs(mod(11, 3))
  g1 = ((4 * 0) - v1)
  IF (.NOT. (la(4) .GE. -5)) v0 = (la(11) - la(6))
  IF ((v0 * -4) .LE. (5 * 3) .OR. g2 .NE. (la(7) + 10)) g0 = (la(10) / (5 + g1))
  IF (max(la(11), 15) .EQ. mod(la(7), 7)) THEN
    v1 = 7
    IF (abs(v2) .GE. v2 .OR. 15 .LT. v0) f0 = g2
  ENDIF
  DO v2 = 3, 3
    IF (la(7) .GT. 3 .OR. max(la(2), 9) .EQ. abs(10)) THEN
      PRINT *, g3
    ELSE
      g2 = mod(15, 7)
      g2 = abs((-4 - v0))
    ENDIF
    v1 = 1
  ENDDO
  la(2) = 6
END

SUBROUTINE proc801(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 13
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(3) .NE. la(3)) f0 = 6
  IF (.NOT. ((-1 + v0) .GT. 15)) g1 = -2
  f0 = (5 * la(2))
  PRINT *, ((1 / (4 + la(2))) * 12)
  v2 = (v3 - la(6))
  DO g0 = 2, 4
    PRINT *, (max(-4, la(12)) - g0)
  ENDDO
  IF (8 .GE. (6 / (6 + v0)) .AND. (6 / (5 + g3)) .LT. (v0 + g0)) THEN
    DO g3 = 0, 0
      g0 = 6
    ENDDO
    v0 = (v1 * la(3))
  ELSE
    la(5) = ((11 * 0) * 13)
  ENDIF
  IF (mod(la(10), 7) .LT. v1 .OR. 12 .NE. g1) THEN
    PRINT *, (max(13, 3) + la(7))
    v2 = mod((-3 / (3 + f0)), 2)
  ENDIF
END

SUBROUTINE proc802(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 11
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (la(6) / (6 + 8))
  la(5) = (11 / (5 + 7))
  v2 = (4 / (4 + 8))
END

SUBROUTINE proc803(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v0 = 2, 6
    IF ((10 * g1) .LE. max(la(4), la(11)) .AND. (f1 * 4) .LT. 14) THEN
      PRINT *, (mod(la(6), 5) + (g3 * la(6)))
    ENDIF
  ENDDO
  DO g2 = 1, 4
    g3 = 11
    PRINT *, la(12)
  ENDDO
END

SUBROUTINE proc804(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (-5 .NE. (1 + 11) .OR. (g3 + 1) .LE. -5) THEN
    g3 = max(la(11), 14)
  ENDIF
  la(8) = abs((la(2) - 0))
  f1 = (g0 - (la(7) - la(6)))
  IF ((la(5) * f1) .GT. mod(9, 5)) v0 = mod(g0, 4)
  f1 = la(12)
  g2 = mod(la(11), 7)
  PRINT *, 13
  f0 = (abs(2) + g1)
  DO g2 = 0, 0
    f0 = la(5)
  ENDDO
END

SUBROUTINE proc805(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 8
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = (la(3) - (5 + la(4)))
  g3 = max(9, 8)
END

SUBROUTINE proc806(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = 12
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, f0
  g3 = abs(0)
  la(5) = la(4)
  la(8) = 12
  v0 = mod(f0, 8)
  la(8) = la(10)
END

SUBROUTINE proc807(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = -2
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(2) = mod(10, 5)
  PRINT *, -4
  v3 = (la(6) * 10)
  v1 = abs(mod(14, 2))
  IF ((7 + 5) .LT. g2) THEN
    v1 = la(10)
    g2 = mod((la(5) * f0), 5)
  ELSE
    DO v3 = 2, 3
      la(5) = g0
      v1 = (f0 / (4 + 15))
    ENDDO
    IF (.NOT. (g0 .NE. la(8))) THEN
      v1 = max(la(4), -4)
    ELSE
      v0 = (la(7) + max(7, la(3)))
      f0 = max(la(1), g3)
    ENDIF
  ENDIF
  v2 = la(11)
  PRINT *, la(3)
  PRINT *, 8
END

SUBROUTINE proc808(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 4
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 5
  v0 = la(9)
  DO f0 = 1, 2
    g2 = 11
    g2 = abs((4 - 11))
  ENDDO
  IF (10 .LE. mod(la(10), 6) .AND. g3 .GT. (2 + la(8))) v0 = la(4)
  DO g3 = 2, 4
    g2 = (g3 + (-1 - 1))
    g0 = la(8)
  ENDDO
END

SUBROUTINE proc809(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 11
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 13
  IF (.NOT. ((9 * 10) .GT. max(g3, 8))) THEN
    g2 = 10
    v1 = mod((la(7) - 9), 8)
  ELSE
    PRINT *, max(la(9), v2)
    v1 = g3
  ENDIF
  PRINT *, 1
  g2 = -3
  v0 = (max(-4, g1) / (5 + g1))
  IF (max(1, 6) .GT. -2) v1 = la(3)
  v0 = ((14 / (6 + la(2))) - abs(la(1)))
  f0 = max(2, 2)
  g0 = 8
END

SUBROUTINE proc810(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 11
  v2 = 14
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(1) .GT. max(v2, v2) .AND. 11 .GE. 0) THEN
    g2 = mod(max(la(10), 10), 6)
  ENDIF
  PRINT *, (la(10) + abs(3))
  g1 = 13
  IF (.NOT. ((g1 + 2) .GT. 0)) THEN
    v0 = ((g3 - f0) + (f0 * g3))
    g1 = la(2)
  ELSE
    v0 = abs(-1)
    PRINT *, la(3)
  ENDIF
END

SUBROUTINE proc811(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 5
  v2 = 5
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(2) = la(7)
  f1 = abs(max(6, la(2)))
  f1 = mod((v2 - la(9)), 6)
  f1 = abs(la(9))
  g3 = (abs(la(10)) * la(6))
  v2 = 0
  g3 = g3
  v0 = abs((la(9) + g2))
  f0 = g3
END

SUBROUTINE proc812(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, -2
  v0 = (g0 / (2 + la(2)))
  g1 = (10 / (4 + la(7)))
  v0 = la(3)
  DO g2 = 2, 4
    PRINT *, la(6)
    DO v1 = 3, 3
      g3 = mod((g0 - la(11)), 7)
    ENDDO
  ENDDO
  f1 = abs(abs(13))
  PRINT *, (v1 * g2)
  PRINT *, ((la(7) / (5 + la(12))) + mod(g0, 8))
END

SUBROUTINE proc813(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = (max(13, 6) - la(8))
  DO v0 = 0, 2
    IF (5 .GT. 15 .OR. (10 + 15) .GE. mod(-4, 5)) THEN
      v1 = ((-1 * la(10)) - (v1 - la(6)))
    ENDIF
  ENDDO
  g0 = 3
  g0 = ((3 * la(10)) + la(8))
END

SUBROUTINE proc814(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 9
  v2 = 9
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = abs(la(12))
  IF ((-2 / (5 + v2)) .LT. max(6, 5) .OR. f0 .NE. g2) v2 = 11
END

SUBROUTINE proc815(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 6
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (max(f0, 14) * g0)
END

SUBROUTINE proc816(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 13
  v2 = 9
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = (-4 + -3)
  v1 = (-3 + la(12))
  g0 = la(9)
  f1 = g3
END

SUBROUTINE proc817(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 10
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(5) = -3
  f0 = 1
  v0 = ((la(9) + -4) * -1)
  v1 = mod(v0, 3)
  v2 = g0
  g1 = g2
  DO v1 = 1, 4
    f0 = (g2 * la(12))
    la(1) = mod(v2, 7)
  ENDDO
  PRINT *, 12
END

SUBROUTINE proc818(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = la(9)
  la(5) = (12 * v1)
  la(5) = 6
END

SUBROUTINE proc819(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = la(1)
  g2 = la(5)
  la(11) = (mod(13, 3) + (la(5) * 2))
END

SUBROUTINE proc820(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, (6 * 0)
  IF (la(8) .LE. (la(2) - g2) .OR. abs(-4) .GT. 13) g2 = (-5 - 5)
  f0 = la(8)
  v1 = 6
  g1 = (v0 + max(g0, la(12)))
  g2 = (abs(f0) - (5 + 6))
END

SUBROUTINE proc821(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 9
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = ((g2 - v1) / (6 + 15))
  IF (.NOT. (f0 .NE. 9)) v0 = (1 - la(11))
  v1 = 14
  v0 = max(f1, 0)
  g0 = ((la(1) - 13) - abs(g0))
  v0 = 11
END

SUBROUTINE proc822(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 7
  v2 = 8
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. (f0 .LE. (la(4) - 5))) THEN
    IF ((2 + 9) .GE. (11 + 4)) THEN
      IF (.NOT. (3 .EQ. 14)) f0 = 10
    ENDIF
    IF (la(9) .LT. (15 + la(7)) .AND. 9 .NE. -3) g2 = g0
  ELSE
    DO v3 = 3, 4
      g2 = (la(5) / (5 + 3))
      PRINT *, (-1 / (6 + la(5)))
    ENDDO
  ENDIF
  PRINT *, (v2 - 10)
  IF (.NOT. ((g2 + la(6)) .GT. abs(la(6)))) f0 = v2
  la(7) = la(3)
  v3 = abs((0 + g1))
END

SUBROUTINE proc823(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, max(f0, g0)
  f1 = g2
END

SUBROUTINE proc824(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = la(4)
  IF (la(1) .LT. v1) f0 = (9 / (5 + g0))
  g2 = g0
  PRINT *, abs(la(9))
  g3 = (13 - 1)
END

SUBROUTINE proc825(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 0
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = abs(mod(la(1), 2))
END

SUBROUTINE proc826(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -1
  v2 = 12
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, max(-1, g1)
  v3 = abs(max(la(7), la(11)))
  IF ((9 + 5) .LE. (la(8) * g3) .AND. max(f0, g1) .GT. v3) THEN
    la(4) = -3
    PRINT *, mod((la(10) + 4), 8)
  ENDIF
  IF (-5 .GT. g0 .OR. (la(1) - 10) .LE. (la(9) * la(11))) g1 = (-1 + 8)
  PRINT *, 8
  g2 = (mod(v0, 5) - la(6))
  IF ((f1 * la(12)) .EQ. abs(f0)) THEN
    v2 = mod(v0, 4)
    v1 = (10 - g3)
  ENDIF
  g3 = 14
END

SUBROUTINE proc827(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (1 / (4 + -1))
  la(3) = abs((5 + g1))
  v1 = 3
  g3 = v0
END

SUBROUTINE proc828(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (-3 + 5)
  g3 = (v0 / (5 + -3))
  v0 = mod(max(la(1), la(9)), 5)
  PRINT *, 3
  f0 = g3
  IF (max(g3, 15) .GT. 7) THEN
    DO g1 = 2, 3
      f0 = la(9)
    ENDDO
    v2 = 8
  ELSE
    DO g3 = 3, 4
      v2 = g2
    ENDDO
  ENDIF
  la(1) = la(9)
  DO g2 = 2, 2
    v1 = v2
    PRINT *, -4
  ENDDO
  f0 = (6 / (3 + la(11)))
END

SUBROUTINE proc829(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -3
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = (v1 / (2 + la(8)))
  g0 = (la(2) * la(4))
  DO v2 = 0, 3
    PRINT *, (4 + max(la(4), la(1)))
    la(8) = v0
  ENDDO
  IF (la(1) .LE. max(la(11), 6)) v2 = max(13, 11)
  IF (mod(g0, 3) .EQ. (g0 * v0)) v1 = (la(11) + -1)
  PRINT *, max(9, g0)
END

SUBROUTINE proc830(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 6
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, mod(la(12), 3)
  v1 = la(10)
  f0 = 14
  v2 = abs(mod(f0, 4))
  g2 = (la(6) + (f0 + la(4)))
  g1 = f0
  f0 = 14
  IF ((la(7) * g1) .NE. mod(8, 3) .AND. v2 .NE. mod(6, 8)) g3 = la(8)
  g2 = v1
  v1 = max(-1, f0)
END

SUBROUTINE proc831(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (mod(la(10), 7) + mod(0, 7))
  g3 = abs(la(12))
  IF (.NOT. (mod(6, 8) .LT. 11)) v1 = g0
  IF (.NOT. ((9 / (6 + -5)) .LT. 1)) f0 = (10 - g1)
  PRINT *, 5
  DO v2 = 0, 2
    v0 = ((la(10) * 14) - f0)
  ENDDO
  g1 = 13
  IF (.NOT. (13 .LT. (v2 - -2))) v2 = f1
  g0 = (abs(-5) / (5 + 2))
  IF (13 .LT. la(2)) THEN
    v1 = 5
  ENDIF
END

SUBROUTINE proc832(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(4) = abs((1 - 3))
  la(3) = ((la(2) + g1) * 9)
  IF (v1 .GT. (-1 + la(7))) THEN
    DO g1 = 2, 3
      g2 = la(4)
      g0 = 13
    ENDDO
    DO g0 = 2, 5
      v1 = (la(6) * g2)
      f0 = (max(la(8), -5) - max(-2, 14))
    ENDDO
  ELSE
    g3 = mod(1, 8)
    PRINT *, la(12)
  ENDIF
END

SUBROUTINE proc833(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 7
  v0 = ((g2 / (4 + 14)) + max(f0, 14))
  PRINT *, (mod(g1, 7) / (2 + la(12)))
  IF (.NOT. (mod(6, 8) .NE. la(3))) THEN
    g1 = 5
  ENDIF
  g1 = (15 - la(9))
  IF (.NOT. (la(9) .GT. 12)) g2 = 15
END

SUBROUTINE proc834(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 9
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = mod(abs(-1), 2)
  g2 = 12
  v2 = la(10)
  v0 = mod((-3 + 9), 4)
  IF (.NOT. ((-4 / (6 + 9)) .LE. 0)) g3 = (la(11) - la(6))
  g2 = (max(-1, 7) - -3)
  v0 = ((v2 * -4) / (3 + v3))
  g3 = la(10)
  v0 = 14
  g2 = (v1 + f0)
END

SUBROUTINE proc835(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v1 = 2, 3
    PRINT *, ((la(4) + 8) * 0)
    DO v0 = 0, 3
      g3 = ((la(7) / (4 + 8)) / (4 + -1))
    ENDDO
  ENDDO
END

SUBROUTINE proc836(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 11
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = mod(g3, 3)
  DO g0 = 2, 4
    PRINT *, 8
    la(11) = (f0 - (v2 * 0))
  ENDDO
END

SUBROUTINE proc837(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, -2
  v2 = (max(f0, la(10)) * la(8))
  v0 = la(6)
  g1 = mod(max(la(5), 0), 4)
  IF (la(8) .LT. (7 * 7) .AND. (11 * la(3)) .NE. (f0 * 6)) g2 = abs(g0)
  IF (abs(11) .LT. mod(v1, 8)) THEN
    g2 = (max(v0, 9) * la(12))
    g0 = ((0 / (3 + 13)) - la(1))
  ELSE
    g2 = 9
    g0 = ((la(6) / (4 + la(9))) / (2 + v1))
  ENDIF
  v2 = abs((4 / (6 + la(8))))
END

SUBROUTINE proc838(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 11
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = 8
  v1 = (abs(-3) + max(8, la(8)))
  g0 = (mod(la(2), 8) * v2)
  IF (.NOT. (-3 .LE. 5)) g3 = abs(v1)
  g1 = 15
END

SUBROUTINE proc839(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 13
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = la(4)
  DO g1 = 1, 5
    la(7) = 0
  ENDDO
  DO v1 = 2, 5
    v0 = (f0 * g0)
  ENDDO
END

SUBROUTINE proc840(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 11
  v2 = -1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = max(2, -2)
  PRINT *, max(g1, -1)
END

SUBROUTINE proc841(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = (13 + 10)
  g2 = ((g1 + la(1)) * la(3))
END

SUBROUTINE proc842(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (mod(v1, 8) / (6 + 5))
  g1 = mod(abs(la(6)), 3)
  IF ((6 - g0) .NE. abs(la(4))) g2 = mod(f0, 6)
  v1 = 11
  g0 = abs((-3 / (6 + la(6))))
  g1 = 14
END

SUBROUTINE proc843(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 12
  v2 = 0
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = 10
  IF (3 .EQ. la(10) .AND. abs(1) .EQ. (f1 - 8)) g1 = max(la(8), la(11))
  la(12) = (mod(la(1), 4) + 11)
END

SUBROUTINE proc844(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 4
  v2 = 13
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 2, 4
    la(2) = max(la(2), v3)
  ENDDO
  v0 = 3
  IF ((-4 * 4) .LE. (la(7) - la(2)) .OR. (la(1) * v2) .EQ. mod(v3, 7)) THEN
    PRINT *, ((2 * v0) * v1)
    v0 = abs(mod(15, 5))
  ELSE
    g0 = (la(7) * v2)
  ENDIF
  g1 = mod(4, 5)
END

SUBROUTINE proc845(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = ((la(1) / (2 + -4)) - (14 + 10))
  DO f0 = 3, 3
    IF (max(v0, -4) .EQ. (12 - v1) .AND. max(la(11), g3) .NE. (0 * 8)) THEN
      IF ((1 * la(2)) .GT. max(g2, 5)) g0 = -2
    ENDIF
  ENDDO
  DO v0 = 1, 2
    g0 = abs(11)
    IF (-1 .LT. (-4 / (3 + la(8))) .AND. mod(v1, 7) .LT. (8 / (5 + 7))) g3 = (1 - la(6))
  ENDDO
  IF (.NOT. (12 .GT. mod(la(9), 5))) f0 = (v0 / (3 + la(10)))
  IF (la(7) .EQ. 13) THEN
    v1 = v1
  ENDIF
END

SUBROUTINE proc846(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -3
  v2 = 1
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = (mod(la(11), 5) / (4 + 13))
  DO g1 = 1, 2
    IF (max(f0, la(11)) .GT. (11 / (4 + v0))) f0 = v1
    v2 = (g2 + 7)
  ENDDO
  g2 = 14
  la(8) = 5
  la(3) = la(7)
  DO v2 = 0, 3
    g2 = mod(v2, 5)
  ENDDO
  la(9) = la(11)
  g0 = ((g2 - la(11)) / (2 + g0))
  v2 = (mod(la(12), 4) + (g2 * 3))
END

SUBROUTINE proc847(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(5)
  la(6) = ((-2 / (2 + -3)) + max(la(10), -5))
  PRINT *, (max(-5, 6) * 4)
END

SUBROUTINE proc848(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(14, 3) .EQ. g0 .AND. max(la(10), 8) .EQ. (la(3) + 12)) f1 = max(la(4), f1)
  PRINT *, (g1 - v1)
  g2 = max(6, la(7))
  v1 = -2
  IF (abs(6) .LE. v1 .OR. la(7) .LE. -4) f0 = abs(5)
  v0 = mod(la(5), 8)
  g2 = max(f0, 15)
  g3 = (mod(la(10), 6) + g2)
END

SUBROUTINE proc849(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -4
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g1 = 3, 6
    PRINT *, -3
    PRINT *, (-5 / (2 + la(11)))
  ENDDO
  v2 = -1
END

SUBROUTINE proc850(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (7 * -2)
  g3 = (la(9) + (f0 / (2 + f1)))
  g3 = abs(la(4))
  v0 = -5
  g3 = max(-3, 3)
  DO g0 = 1, 3
    g2 = 9
  ENDDO
  DO v0 = 2, 4
    IF ((5 - la(7)) .LE. g0 .OR. 6 .GT. v1) THEN
      f1 = (g1 + 4)
    ENDIF
  ENDDO
END

SUBROUTINE proc851(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = -2
  DO g1 = 1, 5
    g3 = la(2)
    v2 = (15 - mod(la(10), 2))
  ENDDO
END

SUBROUTINE proc852(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (-1 .EQ. abs(la(9)))) THEN
    la(1) = ((-5 + -4) * f0)
    g1 = la(11)
  ELSE
    IF (max(1, la(8)) .NE. (-1 / (3 + 2)) .AND. 13 .EQ. (-1 - 2)) v0 = 3
    IF (mod(6, 2) .LT. (la(7) + la(9)) .OR. 0 .NE. 3) THEN
      g0 = g0
    ELSE
      v2 = (mod(15, 7) / (5 + la(6)))
    ENDIF
  ENDIF
  DO g2 = 0, 4
    la(9) = 9
  ENDDO
  f0 = ((-1 / (2 + g2)) + g1)
  PRINT *, 11
  f0 = la(8)
END

SUBROUTINE proc853(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (max(v1, -5) .NE. (la(3) * g0))) v2 = 13
  v1 = 14
  g1 = -1
  la(7) = v2
  IF (abs(g3) .EQ. abs(v2) .OR. mod(12, 8) .GT. (-5 - -3)) g1 = la(3)
  g2 = la(5)
  g1 = (mod(la(7), 3) * la(1))
END

SUBROUTINE proc854(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (g0 .LT. (8 / (3 + 15)))) g0 = la(11)
  g2 = 12
  f1 = 6
  v1 = la(7)
  v1 = la(9)
  f1 = ((v1 - la(12)) * la(11))
  g3 = (la(11) - (-2 + 7))
  IF (-5 .NE. g1 .AND. v1 .GT. 0) g2 = (la(2) - 15)
  v0 = abs(max(f1, -4))
  v1 = abs(max(la(11), 9))
END

SUBROUTINE proc855(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = abs(max(la(12), g0))
END

SUBROUTINE proc856(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = la(4)
  v0 = abs(0)
  DO f0 = 1, 4
    PRINT *, 3
  ENDDO
  f1 = 6
  IF (-1 .GT. abs(la(5)) .AND. max(-2, -2) .GE. 9) f0 = abs(-3)
  g1 = (10 + max(f0, 14))
  DO g1 = 3, 6
    PRINT *, (-3 * 3)
  ENDDO
END

SUBROUTINE proc857(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 10
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = abs((f0 / (2 + g1)))
  g0 = (10 * 15)
  g1 = abs(max(la(7), 10))
  v0 = 2
  v2 = (la(5) + la(6))
  la(2) = ((-3 / (6 + -5)) + g2)
END

SUBROUTINE proc858(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 9
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, max(la(12), la(9))
  IF (.NOT. ((la(11) + g2) .LT. (la(7) - la(7)))) g2 = 6
  PRINT *, 6
  IF (.NOT. (abs(1) .LE. la(9))) f0 = 15
  IF ((4 - v0) .LE. (13 - f0) .AND. (f0 * 3) .NE. 0) THEN
    PRINT *, 7
    DO v2 = 2, 5
      PRINT *, 10
    ENDDO
  ELSE
    la(9) = -1
    v0 = abs(13)
  ENDIF
  v1 = (mod(g3, 4) / (3 + 2))
  la(8) = (0 + mod(la(12), 6))
  v2 = v0
  IF (.NOT. (mod(g3, 8) .LT. la(10))) v0 = (g2 / (5 + la(9)))
END

SUBROUTINE proc859(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, f1
  v1 = mod((g1 + 1), 5)
  la(5) = abs(10)
  la(7) = 2
  DO g3 = 2, 3
    la(9) = (v2 / (6 + 7))
    IF (.NOT. (mod(la(5), 4) .NE. 6)) v0 = mod(2, 6)
  ENDDO
  DO v1 = 3, 3
    IF ((0 - 12) .NE. mod(la(2), 5) .OR. 8 .GE. 4) THEN
      f0 = 15
    ELSE
      v0 = v0
    ENDIF
    f1 = max(la(3), -3)
  ENDDO
  v2 = mod((15 * 12), 3)
END

SUBROUTINE proc860(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(9) = 10
  DO g3 = 1, 4
    PRINT *, 4
  ENDDO
  PRINT *, abs(mod(la(12), 3))
  g2 = 13
END

SUBROUTINE proc861(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = 10
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = abs((9 / (2 + g3)))
  f1 = g2
  IF ((v3 - v0) .GE. f0 .OR. abs(la(9)) .NE. max(3, 5)) v2 = 12
END

SUBROUTINE proc862(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = la(7)
  v0 = -2
  la(10) = max(f1, -5)
END

SUBROUTINE proc863(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (mod(g0, 3) .LT. (v1 - 7)) THEN
    g2 = 10
    DO g3 = 1, 3
      v1 = max(2, v1)
      f1 = (la(7) - (la(11) - la(11)))
    ENDDO
  ENDIF
  IF (-2 .LE. 1 .OR. (5 + 6) .NE. max(6, la(7))) g2 = (la(1) + 13)
  IF (.NOT. (7 .LE. 4)) THEN
    PRINT *, v0
  ENDIF
  PRINT *, ((f1 * 4) + (f1 / (6 + 6)))
  DO g3 = 1, 5
    v0 = g2
  ENDDO
  g2 = la(3)
END

SUBROUTINE proc864(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 12
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(11) = 2
  g0 = la(10)
  la(3) = (5 / (5 + la(4)))
  la(10) = la(12)
  DO g2 = 3, 5
    la(3) = f0
  ENDDO
  IF (10 .NE. 9 .OR. v1 .LT. 9) THEN
    IF (v0 .LT. (-5 / (3 + 13))) THEN
      PRINT *, max(v0, g3)
      g3 = v0
    ELSE
      IF (abs(f0) .NE. (13 - g1) .AND. -3 .NE. 1) f0 = max(3, 11)
    ENDIF
  ELSE
    DO f0 = 1, 1
      IF (abs(2) .EQ. (-1 * -4) .OR. 6 .LE. 12) v0 = -4
    ENDDO
  ENDIF
END

SUBROUTINE proc865(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -4
  v2 = 9
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (g1 .GT. (la(5) + v3) .OR. (f1 / (2 + la(3))) .LT. (la(3) + v2)) g0 = max(f0, -4)
  IF (15 .LE. 5 .OR. (-2 - -3) .LE. -2) g1 = 3
  PRINT *, max(8, v0)
  IF (.NOT. (max(la(5), g3) .NE. 4)) THEN
    la(10) = max(-2, la(2))
  ELSE
    PRINT *, (12 - la(8))
    la(2) = (-5 - max(-5, la(2)))
  ENDIF
  f1 = 8
  v2 = v1
END

SUBROUTINE proc866(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 2
  v2 = 5
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (mod(la(7), 4) .GE. max(la(11), 15) .OR. (-1 - f0) .EQ. mod(2, 4)) THEN
    IF ((g0 / (3 + 13)) .LT. 1) THEN
      v3 = (la(1) - (la(6) / (5 + g0)))
    ENDIF
  ENDIF
END

SUBROUTINE proc867(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 1
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, max(la(3), g3)
  IF (max(8, 10) .NE. 12 .AND. (f0 + 5) .GT. -2) THEN
    g0 = abs((-1 + -5))
  ENDIF
  v2 = v0
  IF (1 .EQ. la(12) .AND. 11 .LT. (la(1) / (4 + 15))) f0 = g2
  DO v0 = 1, 2
    IF ((g1 + 8) .GE. max(2, 10) .OR. abs(v0) .GT. mod(-4, 5)) g3 = la(12)
  ENDDO
END

SUBROUTINE proc868(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = -5
  PRINT *, max(3, 6)
  g2 = 9
  IF (.NOT. (g1 .LT. 13)) v2 = (la(2) - 9)
  PRINT *, 3
  g3 = max(la(12), 2)
  g3 = ((7 - 10) * v1)
  IF (.NOT. (6 .LT. (-5 / (2 + la(9))))) THEN
    IF (la(3) .NE. (10 / (6 + la(2))) .AND. 12 .EQ. 12) THEN
      f0 = v0
    ELSE
      g0 = ((la(1) - 14) + (13 - g3))
      g3 = la(10)
    ENDIF
    la(3) = mod((10 - g1), 2)
  ELSE
    PRINT *, la(2)
    v0 = v0
  ENDIF
  g0 = -2
  f0 = g3
END

SUBROUTINE proc869(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (abs(la(12)) .GE. (4 + g1) .OR. (14 * 8) .GT. (g3 / (4 + la(11)))) g0 = 13
  PRINT *, (g2 + -5)
  DO v1 = 2, 5
    IF (abs(8) .LT. -2) THEN
      la(6) = 11
    ELSE
      g1 = mod(-4, 4)
      g3 = 5
    ENDIF
    IF ((11 * la(1)) .LE. max(g3, 15) .AND. mod(la(9), 6) .LE. v0) g0 = mod(la(1), 5)
  ENDDO
  g2 = -1
  f0 = 5
  IF (la(10) .LT. mod(la(11), 4) .AND. mod(v1, 8) .LT. mod(la(8), 5)) v1 = (7 + la(10))
  v1 = (g0 - -4)
  la(4) = 5
END

SUBROUTINE proc870(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f0 = 3, 4
    la(6) = (v1 / (5 + -5))
    g2 = v1
  ENDDO
END

SUBROUTINE proc871(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -4
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(1)
  la(12) = max(5, g1)
  la(8) = ((g3 / (2 + 2)) - 4)
END

SUBROUTINE proc872(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(8) = la(9)
  g0 = la(11)
  g0 = mod(9, 8)
  v0 = mod(-2, 8)
  PRINT *, mod(v1, 2)
  g1 = v0
  g1 = la(2)
  IF (.NOT. (la(6) .LT. (g0 + la(10)))) THEN
    la(2) = 4
  ELSE
    DO f0 = 2, 4
      IF (abs(3) .NE. g2 .AND. (-5 - 8) .LT. mod(11, 6)) v1 = 5
      g1 = (mod(la(4), 5) + v2)
    ENDDO
    PRINT *, ((v1 - 14) * 15)
  ENDIF
  IF (.NOT. (la(11) .GE. (la(2) / (3 + 14)))) THEN
    DO f0 = 3, 7
      v1 = v0
    ENDDO
    g0 = g2
  ENDIF
END

SUBROUTINE proc873(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -4
  v2 = -3
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (12 .GE. la(7) .OR. v2 .GE. (la(11) * 1)) g1 = (la(4) - 6)
  PRINT *, mod(-5, 7)
  v0 = f0
  la(1) = ((10 / (6 + 1)) / (5 + 12))
  IF (.NOT. ((la(12) / (4 + -3)) .EQ. (la(6) - f1))) THEN
    v0 = 6
  ENDIF
  v2 = 14
  IF (.NOT. ((-3 * f0) .GE. 1)) g3 = -1
  g1 = (11 - max(g2, 0))
END

SUBROUTINE proc874(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 11
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = (g0 * -4)
  la(2) = -2
  v0 = 6
  g2 = 12
  DO f1 = 1, 4
    v2 = ((11 / (4 + 2)) - la(5))
  ENDDO
  g3 = max(f1, g3)
  PRINT *, max(-1, 7)
  g1 = 6
END

SUBROUTINE proc875(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (v1 .EQ. (9 * 4) .AND. 6 .LT. g0) THEN
    g2 = (abs(14) * 7)
  ENDIF
  v1 = 9
END

SUBROUTINE proc876(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 11
  v2 = -3
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = g2
  g1 = g2
  g3 = mod((-1 / (6 + la(5))), 4)
  g1 = (mod(1, 8) - (0 * 13))
  DO g1 = 0, 1
    la(4) = abs(-4)
    v1 = ((g3 / (3 + 2)) + 0)
  ENDDO
  f0 = 7
END

SUBROUTINE proc877(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(3) .LE. f0 .AND. (f1 - 5) .EQ. abs(la(11))) THEN
    g1 = (14 / (4 + 2))
    IF ((-1 - -3) .GT. v1) g2 = la(2)
  ENDIF
  IF ((10 + la(12)) .LT. la(8) .AND. abs(5) .LT. -1) THEN
    g2 = -1
  ELSE
    g3 = (0 / (6 + la(5)))
    f1 = (-3 + f1)
  ENDIF
  f1 = 8
  IF (-5 .LT. (f0 / (2 + v0))) THEN
    g3 = ((-3 - 3) / (2 + -4))
  ENDIF
  g0 = mod((f0 - -1), 7)
  DO g3 = 2, 3
    g2 = ((g2 * -1) / (6 + 7))
  ENDDO
  la(11) = ((5 / (5 + f0)) / (5 + -2))
  f0 = abs((5 * f0))
END

SUBROUTINE proc878(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 9
  v2 = 8
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((1 - v1) .GT. (g3 / (5 + 10))) f0 = mod(3, 8)
  v0 = (la(6) * 8)
  v3 = abs(mod(la(1), 4))
  la(1) = (mod(la(4), 6) - (la(2) + 3))
END

SUBROUTINE proc879(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 6
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = mod(12, 4)
  IF ((la(3) * 4) .EQ. 3) g2 = la(11)
  g0 = 6
  DO v1 = 1, 2
    PRINT *, la(5)
  ENDDO
  IF (.NOT. (0 .EQ. 5)) v0 = (la(2) * v2)
  la(3) = (g0 - (-2 + la(2)))
  g3 = (-5 * 13)
  IF (8 .NE. la(1) .OR. mod(11, 6) .NE. mod(13, 3)) g0 = max(4, 13)
  f0 = abs((14 / (4 + la(9))))
  g1 = (11 - la(3))
END

SUBROUTINE proc880(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 2
  v2 = 0
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = la(5)
  la(4) = (abs(g3) + 3)
  f0 = g2
  PRINT *, (v2 - abs(-3))
  g1 = la(4)
  g2 = mod(12, 3)
  g3 = g2
  g0 = la(6)
END

SUBROUTINE proc881(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 12
  v2 = 10
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = 3
  la(5) = v1
  IF (v0 .GT. mod(la(3), 2)) f0 = 7
END

SUBROUTINE proc882(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g3 = 3, 6
    PRINT *, max(f1, la(4))
  ENDDO
  PRINT *, (mod(la(7), 7) / (6 + -4))
  la(2) = f1
  g1 = mod(3, 4)
  g1 = (-3 * f0)
  g2 = 12
  IF (.NOT. (-2 .EQ. (8 + 13))) THEN
    f1 = ((-1 + 13) / (6 + -2))
    IF (.NOT. (mod(15, 6) .LE. 5)) g1 = la(10)
  ELSE
    f1 = -5
    la(1) = 6
  ENDIF
END

SUBROUTINE proc883(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 14
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = abs(max(v1, 11))
  IF (abs(v1) .LE. -5 .AND. 7 .LT. (f0 / (6 + la(12)))) v0 = la(5)
  v0 = 4
  la(1) = (g0 + 14)
  DO g1 = 1, 3
    la(8) = la(12)
  ENDDO
  la(1) = ((10 / (3 + g3)) + abs(-1))
  DO v0 = 2, 3
    g3 = ((-4 * la(7)) + 4)
  ENDDO
  IF (mod(-1, 5) .EQ. g1 .AND. la(6) .LT. v0) g1 = abs(5)
  g3 = (v0 / (4 + la(7)))
  PRINT *, 12
END

SUBROUTINE proc884(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (abs(la(7)) .NE. 13)) THEN
    g0 = max(g1, -4)
    IF (10 .GT. 1 .AND. abs(-5) .GE. (9 - la(4))) THEN
      f0 = (4 * 0)
      la(5) = la(11)
    ENDIF
  ELSE
    la(11) = la(10)
  ENDIF
  g1 = max(14, 0)
  g1 = (6 / (2 + 9))
  g3 = (mod(la(1), 8) + (v0 / (3 + la(10))))
  IF (.NOT. ((3 / (5 + -1)) .LT. mod(11, 8))) v1 = 15
END

SUBROUTINE proc885(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 8
  g1 = -2
  IF (.NOT. ((g3 * g2) .LT. g1)) f0 = -1
  g2 = mod(abs(v0), 2)
END

SUBROUTINE proc886(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 1
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 12
  g2 = abs((5 + la(1)))
  g0 = (mod(-2, 4) / (3 + g1))
  IF (la(9) .EQ. abs(g1) .AND. (13 * 5) .GT. v0) f0 = la(12)
  IF (la(1) .LE. mod(la(9), 5) .OR. -1 .GT. -5) THEN
    f0 = mod((v1 - 10), 2)
    g3 = la(12)
  ENDIF
  g1 = la(7)
  v2 = (abs(-4) + g2)
  DO g3 = 3, 4
    v1 = (la(10) - abs(la(2)))
  ENDDO
END

SUBROUTINE proc887(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g3 = 0, 3
    v1 = la(12)
    la(8) = la(3)
  ENDDO
  v0 = mod(-4, 2)
END

SUBROUTINE proc888(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = 6
  v1 = mod(5, 5)
  g0 = 1
  IF (la(8) .EQ. abs(f0)) THEN
    PRINT *, 11
  ELSE
    v0 = max(la(1), 10)
  ENDIF
  IF (.NOT. (g1 .GT. max(11, la(4)))) THEN
    la(9) = max(4, 9)
  ENDIF
  IF (.NOT. ((la(11) - la(9)) .LE. mod(g0, 2))) THEN
    IF (max(la(12), g0) .GT. (11 + v1) .OR. abs(12) .GT. v1) v0 = (la(3) / (5 + la(4)))
  ELSE
    f0 = (7 - v0)
    IF (.NOT. (abs(f0) .EQ. 3)) THEN
      PRINT *, (-4 / (6 + v0))
      g3 = (max(15, 0) / (5 + la(3)))
    ELSE
      g2 = -2
    ENDIF
  ENDIF
  g3 = (mod(g2, 3) * g0)
  PRINT *, mod((-1 - 7), 8)
END

SUBROUTINE proc889(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 3
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 2, 2
    IF (-4 .NE. v0 .OR. mod(la(8), 6) .EQ. la(2)) g2 = abs(11)
  ENDDO
  v1 = (f1 / (6 + g2))
  f0 = (la(5) - 2)
  PRINT *, max(la(3), -3)
  v1 = 14
  g2 = g0
END

SUBROUTINE proc890(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = 12
  IF (.NOT. ((13 * -2) .GE. (1 / (2 + la(5))))) THEN
    IF ((9 + 4) .EQ. la(11) .AND. 13 .NE. 9) v0 = abs(6)
  ENDIF
END

SUBROUTINE proc891(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -4
  v2 = 14
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, -1
  f0 = (la(8) - 5)
  f0 = ((11 / (2 + 7)) + 15)
  IF (-5 .NE. (v2 + la(7)) .AND. 13 .EQ. f1) f1 = la(1)
END

SUBROUTINE proc892(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, mod((4 - 5), 5)
  PRINT *, -2
  DO f0 = 2, 3
    IF ((la(11) * 6) .LE. max(g3, la(11))) THEN
      g1 = mod((v1 - -2), 7)
    ELSE
      g2 = la(6)
    ENDIF
  ENDDO
  DO g1 = 1, 1
    f0 = abs(6)
    la(2) = (6 + mod(la(1), 5))
  ENDDO
END

SUBROUTINE proc893(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 7
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = g2
  IF (abs(f0) .EQ. 6) g2 = (11 / (2 + g3))
  la(1) = mod((-2 / (5 + -3)), 8)
  g1 = g1
  IF (4 .GT. (la(10) * -4)) THEN
    PRINT *, 9
  ELSE
    v1 = v2
  ENDIF
  g1 = max(g2, 13)
  DO v1 = 0, 2
    v2 = ((g0 / (4 + 7)) * la(2))
  ENDDO
END

SUBROUTINE proc894(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(3) = ((2 / (6 + -1)) * -3)
  DO v1 = 0, 4
    g3 = (g1 * la(12))
  ENDDO
  la(1) = v0
END

SUBROUTINE proc895(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -2
  v2 = 13
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (max(g3, 4) .LE. abs(4)) THEN
    PRINT *, 9
    f0 = la(10)
  ENDIF
  PRINT *, (v2 + f1)
  IF (7 .EQ. (f0 - g1) .AND. (0 + la(9)) .EQ. (14 + 14)) THEN
    PRINT *, ((2 * 6) - 15)
    IF (.NOT. (v2 .GT. la(2))) THEN
      g3 = (9 + mod(f1, 4))
    ENDIF
  ELSE
    la(8) = la(3)
    DO v3 = 1, 2
      v1 = la(6)
      PRINT *, 6
    ENDDO
  ENDIF
  f1 = max(la(2), la(12))
  g1 = (la(10) / (6 + la(11)))
  v2 = max(2, 11)
  DO v0 = 3, 7
    PRINT *, ((la(5) - 4) / (2 + f0))
    g3 = -5
  ENDDO
  IF (.NOT. (15 .GT. -4)) THEN
    v2 = la(8)
    f0 = la(8)
  ELSE
    PRINT *, (v2 / (4 + la(1)))
    la(9) = ((-2 / (2 + 15)) - abs(12))
  ENDIF
  v1 = v1
  v2 = g1
END

SUBROUTINE proc896(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 1
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 0
  g2 = 14
  la(11) = (abs(-5) * 1)
  IF (abs(v2) .NE. v0) THEN
    IF (la(9) .LE. max(0, la(4)) .AND. (0 + 9) .GT. g2) v3 = g3
    la(6) = la(7)
  ENDIF
  IF (.NOT. (la(4) .LE. -3)) THEN
    DO g1 = 2, 5
      IF (la(1) .LT. (9 - la(5)) .OR. abs(la(12)) .LT. (8 * v2)) g2 = g1
      v0 = ((14 + 5) / (3 + la(3)))
    ENDDO
    v0 = la(4)
  ELSE
    DO v3 = 1, 4
      v2 = 3
      v0 = (6 * la(8))
    ENDDO
  ENDIF
  la(9) = (mod(12, 3) / (3 + 6))
  DO g3 = 1, 3
    v3 = (abs(1) - max(v0, -4))
  ENDDO
  DO g2 = 2, 2
    v2 = v1
    g0 = ((v1 - 15) - g2)
  ENDDO
  IF (abs(2) .LE. la(11) .AND. la(4) .GT. (v1 / (2 + la(12)))) THEN
    la(2) = 10
  ENDIF
  DO v2 = 0, 1
    IF (max(la(11), g2) .GE. -3) g1 = (-2 + la(10))
    PRINT *, -2
  ENDDO
END

SUBROUTINE proc897(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 9
  g1 = v0
  g0 = abs((5 + v0))
END

SUBROUTINE proc898(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 11
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = max(g0, g0)
  IF ((la(11) - 3) .NE. (la(3) / (2 + -2)) .AND. g1 .GE. (la(7) * v0)) g2 = (-1 + 12)
  v2 = (abs(g0) - (f0 * 1))
  PRINT *, ((g2 / (6 + la(4))) - 9)
  g0 = g0
  v1 = la(4)
  f1 = g0
  g1 = ((9 * v0) - (la(11) - v2))
  v0 = (mod(7, 7) + mod(8, 5))
  v2 = la(11)
END

SUBROUTINE proc899(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 14
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v1 = 1, 2
    g1 = -2
    la(9) = (12 - la(6))
  ENDDO
  IF (la(1) .GT. max(la(5), la(9))) f0 = g3
  f0 = (la(4) - abs(la(5)))
  g2 = (abs(la(6)) / (4 + 0))
  g1 = la(11)
  v1 = abs(v2)
END

SUBROUTINE proc900(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = la(5)
  g2 = (mod(7, 6) / (6 + 2))
  g0 = 15
  DO v1 = 2, 5
    la(12) = abs(g3)
    IF (la(7) .LE. la(4) .OR. mod(la(4), 7) .NE. (v1 - la(5))) g0 = (0 * 2)
  ENDDO
  g1 = la(10)
  g1 = la(9)
END

SUBROUTINE proc901(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 1
  v2 = 0
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, -3
  IF (13 .NE. v1 .OR. (v2 + g2) .EQ. (12 + -5)) v0 = la(10)
  v3 = abs((v0 - 14))
  DO v3 = 0, 0
    v1 = 0
  ENDDO
  DO f0 = 2, 3
    g3 = ((g2 + v2) / (2 + la(4)))
  ENDDO
  IF (f0 .LE. abs(g3) .AND. abs(v1) .LE. g1) THEN
    v3 = max(14, 7)
  ELSE
    DO g2 = 1, 5
      IF ((1 - -4) .GE. -1) g3 = max(3, 7)
    ENDDO
    DO g2 = 3, 7
      g3 = (abs(-3) - abs(v2))
      v1 = ((g0 + -3) + 0)
    ENDDO
  ENDIF
END

SUBROUTINE proc902(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 8
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 13
  g1 = g0
  DO v1 = 2, 2
    PRINT *, ((-2 + v2) - la(8))
    g3 = f0
  ENDDO
  f0 = -3
  PRINT *, max(g1, la(5))
  DO g1 = 1, 2
    la(9) = max(la(2), la(3))
    la(2) = mod(14, 8)
  ENDDO
  v1 = 7
  v0 = (10 - (la(11) + 5))
  la(8) = -2
END

SUBROUTINE proc903(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, abs(max(f0, 9))
  PRINT *, 3
  DO g3 = 0, 1
    PRINT *, abs(mod(6, 8))
  ENDDO
  la(8) = 14
  f0 = (v0 - abs(la(1)))
  g0 = -4
  IF (0 .LE. (9 - la(7))) THEN
    IF (.NOT. ((12 * 13) .LE. g3)) THEN
      g2 = (-1 / (3 + la(4)))
    ENDIF
    g0 = max(5, 11)
  ELSE
    PRINT *, f0
    g1 = g0
  ENDIF
  g2 = -1
END

SUBROUTINE proc904(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 1
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (15 + v3)
  v3 = mod(max(14, 13), 4)
  IF (1 .NE. abs(8)) THEN
    f0 = 12
  ENDIF
  g0 = 15
  la(3) = -1
  PRINT *, -3
  g2 = la(12)
END

SUBROUTINE proc905(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v0 = 2, 3
    v1 = abs(4)
    f1 = (f1 * 14)
  ENDDO
  g2 = (11 + 12)
  PRINT *, ((0 / (6 + g1)) / (2 + 15))
  f1 = 3
  IF ((14 / (2 + 15)) .LE. (2 * v1) .AND. mod(2, 5) .NE. (7 + 4)) g0 = (4 * -4)
  v0 = 5
  g2 = -5
  v0 = la(3)
END

SUBROUTINE proc906(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(12) = g1
  g1 = 10
  g3 = -5
  g2 = max(5, -1)
  g3 = abs((la(3) / (5 + v1)))
END

SUBROUTINE proc907(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = ((5 - 12) - g0)
  IF (la(6) .GE. la(4) .OR. la(4) .EQ. (7 + 13)) THEN
    g1 = -1
    g0 = g2
  ENDIF
  v1 = ((v0 + 12) / (6 + 5))
  v0 = mod(g0, 4)
  f0 = -5
  IF (.NOT. (3 .GE. la(12))) THEN
    g2 = (-5 - mod(2, 8))
    v0 = abs((f0 / (6 + g1)))
  ELSE
    IF (max(la(9), g0) .LT. 3 .OR. (-1 * la(5)) .GT. max(13, la(3))) g1 = la(12)
    la(1) = (g2 / (2 + v1))
  ENDIF
  IF (.NOT. (abs(la(9)) .EQ. max(2, la(11)))) THEN
    PRINT *, la(10)
    IF (abs(15) .LE. 0) g2 = -5
  ELSE
    f0 = max(8, 15)
  ENDIF
  g3 = max(la(12), g2)
  la(7) = 13
  v1 = ((8 / (5 + g0)) + max(la(6), la(5)))
END

SUBROUTINE proc908(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 6
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (mod(13, 8) .GE. max(1, 5)) THEN
    PRINT *, -1
  ENDIF
  PRINT *, mod(la(6), 2)
  v2 = (la(9) * 5)
  la(4) = la(6)
  la(10) = mod((la(9) / (5 + g0)), 2)
  v2 = 7
  f1 = la(7)
  f0 = mod(15, 5)
  DO g2 = 2, 5
    la(10) = (g1 * -5)
    g0 = ((g0 - 6) * 5)
  ENDDO
END

SUBROUTINE proc909(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = 14
  f0 = ((g0 * -3) - 13)
  la(4) = ((f0 + g1) / (6 + v1))
  PRINT *, v0
  la(5) = ((v1 - 14) / (3 + 13))
  f0 = la(11)
  IF ((g3 * 3) .EQ. la(5) .OR. (la(5) - -4) .LT. 12) THEN
    g3 = (abs(-1) - (g0 + g3))
  ELSE
    v2 = (abs(5) / (6 + 12))
  ENDIF
END

SUBROUTINE proc910(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 8
  v2 = 5
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = max(5, -4)
END

SUBROUTINE proc911(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = g1
  f0 = v0
  g3 = mod(abs(f1), 5)
  g0 = 10
  g3 = (v0 * 6)
  la(1) = abs((-4 / (6 + la(7))))
  g3 = max(g1, g3)
END

SUBROUTINE proc912(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 12
  v2 = 0
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = (mod(4, 6) * v3)
END

SUBROUTINE proc913(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 8
  f0 = ((3 * la(1)) + -3)
  v0 = f0
  PRINT *, 2
  v0 = (10 / (5 + la(10)))
END

SUBROUTINE proc914(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 4
  v2 = 13
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(6)
  g1 = mod(8, 6)
  f1 = la(6)
  g3 = (la(12) + -5)
  la(6) = mod(la(10), 5)
  IF ((v1 * 14) .LT. (la(8) + 11) .AND. v3 .GT. la(12)) v3 = (v3 / (4 + 12))
  IF (v0 .GT. v2 .OR. 6 .NE. (la(4) / (4 + 12))) v1 = 3
END

SUBROUTINE proc915(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(10) = (12 * 4)
  g3 = 11
  f0 = 7
  g3 = (g1 + g2)
  g3 = v0
END

SUBROUTINE proc916(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(8) = -3
  la(3) = -1
  g3 = abs(11)
  v0 = (14 + v0)
END

SUBROUTINE proc917(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -2
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v1 = 0, 2
    IF (abs(la(8)) .GT. -1) g2 = 14
    IF (.NOT. (la(12) .GE. abs(-2))) v0 = abs(f0)
  ENDDO
  f0 = ((15 + 1) + 6)
  la(7) = v3
  f0 = max(g3, 4)
  g3 = -3
  f0 = max(0, la(3))
  IF (g2 .GT. mod(-2, 3)) g1 = v2
END

SUBROUTINE proc918(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(12) = (mod(la(10), 2) + mod(la(9), 7))
  g0 = (max(5, -3) * la(3))
  la(5) = max(la(4), 13)
  f0 = (la(8) + mod(g2, 5))
  DO g1 = 2, 3
    f0 = -1
    la(12) = 8
  ENDDO
  IF ((la(9) + v0) .GE. 10) THEN
    IF (g2 .NE. v2 .AND. mod(v0, 8) .LE. la(11)) v2 = mod(la(10), 3)
    IF (max(la(7), f0) .LE. mod(la(1), 2) .AND. la(2) .GT. (14 * la(2))) THEN
      IF (.NOT. (3 .LT. mod(la(1), 8))) v0 = abs(6)
      la(11) = v2
    ENDIF
  ENDIF
  g3 = la(4)
END

SUBROUTINE proc919(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 2, 4
    g2 = (10 * 2)
    IF (-4 .EQ. 1 .OR. (g1 / (4 + -3)) .NE. (la(2) * la(5))) g2 = g3
  ENDDO
END

SUBROUTINE proc920(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 13
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v1 = 2, 5
    g3 = -5
    v3 = -4
  ENDDO
  g0 = (-2 - (v3 - 0))
  la(9) = 11
  g1 = la(4)
  v2 = (g2 / (2 + la(6)))
  la(3) = (3 / (6 + -1))
  g1 = -1
  g0 = (13 / (4 + la(6)))
  IF (0 .NE. mod(g1, 6)) THEN
    IF (g3 .LT. (la(1) - 12)) THEN
      v3 = v1
      la(8) = max(g2, g2)
    ELSE
      g3 = (v0 / (5 + 5))
    ENDIF
  ENDIF
END

SUBROUTINE proc921(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = (abs(8) * 1)
  IF (.NOT. ((13 + -1) .GT. mod(11, 3))) f0 = 5
  la(5) = (la(6) - v0)
  v0 = (max(la(7), 11) * g2)
END

SUBROUTINE proc922(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 8
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = v2
  v1 = (max(la(5), -1) / (4 + la(9)))
END

SUBROUTINE proc923(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (la(1) - (12 / (3 + 12)))
  IF (max(13, 7) .EQ. mod(-2, 2) .OR. (14 / (5 + la(6))) .EQ. mod(-3, 4)) THEN
    IF (abs(la(6)) .LT. g3 .AND. 1 .GE. max(-2, g3)) v0 = la(2)
  ENDIF
END

SUBROUTINE proc924(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = ((f0 / (4 + la(11))) + max(10, 2))
  IF (la(10) .LT. max(g2, -4) .AND. abs(la(6)) .LE. la(11)) g3 = (la(6) + g0)
  f1 = 11
  DO v1 = 3, 5
    g3 = mod((f1 - 7), 8)
  ENDDO
END

SUBROUTINE proc925(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 6
  v2 = 11
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = ((2 - -2) * -5)
  g3 = la(7)
  DO g3 = 3, 4
    la(7) = g1
  ENDDO
  g3 = f0
  g2 = 4
  g3 = abs(1)
  v0 = 9
  g1 = (max(la(12), 8) + (la(10) * la(7)))
  f0 = abs(max(la(1), v3))
  la(10) = la(5)
END

SUBROUTINE proc926(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 7
  v2 = -1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 2, 2
    v3 = max(la(6), 14)
  ENDDO
  g2 = 13
  v3 = la(8)
  PRINT *, -2
  IF ((la(6) * g2) .LE. 14) THEN
    PRINT *, (g1 * g0)
  ENDIF
  la(8) = (g2 - abs(la(7)))
  IF ((la(4) * 15) .LT. mod(-3, 7) .OR. (-5 * la(10)) .GT. -5) f0 = (4 + 11)
  DO g0 = 1, 1
    g1 = ((2 / (4 + la(3))) - max(-4, la(11)))
  ENDDO
END

SUBROUTINE proc927(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g0 = 0, 0
    g1 = max(-3, 9)
  ENDDO
  g2 = (2 * 11)
END

SUBROUTINE proc928(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 12
  v2 = 3
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = 15
  g2 = max(15, -2)
END

SUBROUTINE proc929(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 0
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = la(9)
  v2 = (4 + 6)
  la(12) = 12
  v0 = g3
  la(6) = (la(12) * la(6))
  v0 = -1
  PRINT *, (14 / (4 + la(8)))
  g2 = (abs(1) - (f1 / (5 + 2)))
  IF (abs(12) .LT. (v0 - 6)) THEN
    g3 = (13 - g1)
  ELSE
    IF (.NOT. (max(15, la(7)) .LE. mod(13, 8))) g0 = abs(g0)
  ENDIF
  IF (2 .LE. 5 .AND. la(12) .EQ. v2) THEN
    v1 = abs(la(8))
    IF (.NOT. (0 .GE. g3)) v1 = v1
  ENDIF
END

SUBROUTINE proc930(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 12
  v2 = 11
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = la(12)
  la(1) = -1
  IF ((7 - 14) .GE. la(1) .AND. mod(1, 6) .LT. max(la(12), la(12))) g2 = v1
END

SUBROUTINE proc931(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 10
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = f0
  g1 = f0
  DO g0 = 0, 2
    IF (.NOT. ((f0 - la(5)) .NE. 14)) THEN
      PRINT *, mod(3, 2)
    ENDIF
    IF (.NOT. ((v1 * g3) .LE. (2 / (6 + 2)))) THEN
      g1 = 10
    ELSE
      IF ((g0 * 14) .LE. (9 - 12) .AND. g1 .GE. g1) v1 = (2 * 10)
    ENDIF
  ENDDO
  PRINT *, ((g2 - g3) - (6 / (6 + la(8))))
  IF ((-4 + la(7)) .LT. (3 / (5 + -4)) .AND. la(9) .LE. 5) f0 = 6
  f0 = la(10)
  IF (la(3) .EQ. max(7, g3) .AND. (g1 * -3) .LE. mod(v2, 8)) THEN
    IF (la(3) .LE. max(v0, 4)) THEN
      g3 = v1
    ENDIF
    g0 = (la(6) / (2 + la(8)))
  ELSE
    g1 = max(g1, la(9))
    f0 = v1
  ENDIF
  la(3) = v1
  DO g3 = 0, 1
    v0 = (10 + -4)
  ENDDO
  v0 = mod(v1, 3)
END

SUBROUTINE proc932(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 11
  v2 = 2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(9, v2) .GE. max(-4, la(7)) .OR. v0 .NE. max(la(7), g3)) THEN
    PRINT *, (v3 - max(la(12), f0))
  ENDIF
  v2 = abs((-5 * 5))
  g3 = la(9)
  la(4) = (max(f0, v2) / (3 + 12))
END

SUBROUTINE proc933(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = (v0 + g2)
  IF (.NOT. (11 .NE. 1)) THEN
    f0 = la(10)
    v1 = mod(max(-1, 11), 2)
  ENDIF
  v0 = 12
  g1 = -4
END

SUBROUTINE proc934(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -1
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = abs((7 + -5))
  v1 = v0
  IF (g1 .NE. 10 .AND. 5 .GT. v2) v2 = (f1 / (2 + 2))
  IF (g2 .NE. 15 .OR. v0 .EQ. 14) g3 = (8 - -3)
  IF (8 .LT. max(12, v0) .OR. mod(g2, 4) .LE. (-4 * 4)) THEN
    PRINT *, (1 - (la(7) - g0))
    f0 = ((15 / (6 + la(10))) * -1)
  ENDIF
END

SUBROUTINE proc935(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = 11
  v1 = g1
  IF ((g3 - la(12)) .LT. g2 .AND. 1 .LT. max(f0, 6)) v1 = (10 / (6 + la(12)))
  IF (mod(-4, 6) .NE. la(4) .OR. la(2) .GE. f0) THEN
    PRINT *, abs(max(5, la(2)))
  ENDIF
END

SUBROUTINE proc936(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = la(10)
  v1 = 0
  PRINT *, (f0 * la(5))
  f1 = mod(mod(1, 3), 6)
  IF (la(6) .EQ. (f0 * -5) .OR. (4 / (4 + 2)) .EQ. la(10)) g1 = (15 * -2)
  g1 = mod((-4 + la(7)), 8)
END

SUBROUTINE proc937(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = 0
  f0 = 15
  DO g2 = 0, 0
    g3 = 0
  ENDDO
  IF ((g0 - -2) .GT. (la(9) * 9) .AND. 2 .LT. abs(0)) f0 = (la(3) + 14)
  v0 = la(11)
END

SUBROUTINE proc938(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 13
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, -2
  f1 = -5
  DO g3 = 3, 6
    IF (-3 .GT. (7 + 0) .AND. abs(-2) .NE. (-3 / (5 + 1))) THEN
      la(5) = la(2)
    ENDIF
    IF (max(7, -1) .LT. abs(g3) .OR. v3 .GT. max(g2, -5)) v3 = (g0 + la(6))
  ENDDO
  IF (.NOT. (la(9) .LT. (15 + la(9)))) g3 = max(f1, 13)
  g1 = (max(6, 1) * -1)
  la(12) = (max(5, g0) + (g3 - la(11)))
END

SUBROUTINE proc939(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 13
  v2 = 5
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (0 .GT. (4 + g0) .OR. la(4) .EQ. abs(la(11))) g1 = (-5 + 14)
  IF (abs(v0) .LE. g2 .OR. (la(8) + la(2)) .LT. 14) g1 = 1
  IF ((6 * -4) .GE. (3 - 11) .OR. 3 .LE. 7) THEN
    g1 = 6
  ENDIF
  IF (la(3) .LE. (3 * 12) .AND. (la(10) * v3) .GT. la(1)) THEN
    g1 = v1
  ELSE
    IF (la(3) .LT. la(9) .OR. la(1) .LT. v3) THEN
      v3 = max(v3, la(1))
      g0 = max(-5, f0)
    ENDIF
  ENDIF
  g0 = (la(8) / (4 + g3))
  f0 = max(g2, g1)
  IF (mod(v1, 2) .GT. 4 .OR. mod(la(4), 3) .EQ. -1) g0 = v1
  IF (.NOT. (la(7) .NE. -1)) g0 = (la(9) - la(4))
  v0 = (mod(2, 8) / (2 + 1))
END

SUBROUTINE proc940(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 8
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = mod(7, 2)
  g3 = 4
  v1 = (1 - g1)
  v3 = (mod(g2, 2) / (6 + v1))
  v3 = la(10)
  IF (max(g0, 9) .GT. (12 + 13) .OR. la(7) .LE. la(10)) g2 = 2
END

SUBROUTINE proc941(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = -2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (max(2, 15) + (la(4) + -3))
  la(9) = 15
  g1 = la(7)
  v3 = -1
  la(2) = (abs(la(4)) / (5 + f0))
  g1 = ((la(4) * 4) / (2 + la(12)))
  g0 = 13
  IF (la(2) .EQ. v2 .AND. (15 - g3) .GE. (0 + v2)) g0 = (4 / (3 + 7))
  g2 = abs(v0)
END

SUBROUTINE proc942(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 9
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = 8
END

SUBROUTINE proc943(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(10) .LT. (2 + 3) .OR. max(5, 7) .LE. 1) v1 = 7
  g2 = ((1 + v1) * la(6))
  g3 = (-4 * 15)
  la(5) = ((f0 * g3) + la(9))
  IF ((4 - v0) .EQ. (g1 - g0)) THEN
    IF (.NOT. (la(7) .GT. max(13, la(10)))) THEN
      g3 = -4
    ELSE
      IF (abs(11) .LE. v1 .AND. 2 .EQ. max(la(6), la(7))) g0 = la(2)
    ENDIF
  ELSE
    PRINT *, abs(mod(1, 2))
    v0 = ((13 + 5) / (3 + 1))
  ENDIF
  g3 = 15
END

SUBROUTINE proc944(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 11
  v2 = -4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = v2
  v2 = 4
  g3 = la(3)
  v1 = max(la(8), v0)
  IF (la(11) .EQ. v0 .OR. la(10) .LE. abs(la(11))) THEN
    IF ((1 + 14) .NE. mod(3, 8) .OR. la(5) .EQ. -2) THEN
      v0 = 10
    ENDIF
    f0 = 8
  ELSE
    v2 = 12
    la(2) = la(4)
  ENDIF
  IF (1 .EQ. 10 .OR. -5 .LE. 9) THEN
    DO g3 = 0, 1
      v1 = la(7)
      la(9) = 3
    ENDDO
  ENDIF
  v0 = max(la(5), 4)
END

SUBROUTINE proc945(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 2
  v2 = 7
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = mod((v0 - -4), 3)
END

SUBROUTINE proc946(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((g3 / (2 + 10)) .GT. g1) f0 = g3
  IF (.NOT. (0 .EQ. (la(9) - la(8)))) THEN
    IF (.NOT. (la(6) .LT. (f0 / (5 + 11)))) THEN
      v1 = ((la(7) / (3 + 7)) - abs(10))
      f1 = la(7)
    ENDIF
  ELSE
    g3 = (f1 * la(5))
    g3 = g1
  ENDIF
  f0 = (f0 * f1)
  g2 = 6
  g2 = la(9)
  f0 = la(4)
  g3 = 1
  IF (.NOT. (-4 .LE. f1)) THEN
    g2 = 14
    g3 = f0
  ENDIF
  g0 = ((9 + -2) * v0)
  g2 = (2 + 13)
END

SUBROUTINE proc947(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 11
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (la(3) .LT. g3 .AND. 9 .NE. max(-3, 10)) g2 = (la(8) + la(11))
  g0 = la(3)
  la(4) = ((la(8) + la(7)) - max(la(2), 14))
  f1 = f1
END

SUBROUTINE proc948(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 14
  v2 = 13
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = 0
  la(6) = abs(abs(la(6)))
  IF ((g2 / (3 + 6)) .GT. la(10)) THEN
    g2 = 15
  ENDIF
  PRINT *, v2
  IF (mod(14, 7) .NE. (-3 + la(5)) .AND. (la(11) / (3 + -4)) .GE. 10) THEN
    IF (abs(0) .LE. (3 * la(11)) .AND. la(11) .GT. la(11)) THEN
      v1 = abs(abs(15))
    ELSE
      g0 = 9
      f1 = max(2, 1)
    ENDIF
  ELSE
    IF (la(10) .EQ. (la(12) + v3) .AND. f0 .GT. la(2)) v3 = la(12)
  ENDIF
  la(3) = (g0 + f0)
  DO g3 = 0, 2
    DO g2 = 3, 7
      PRINT *, abs(la(9))
    ENDDO
    f1 = max(12, g3)
  ENDDO
  v2 = (max(13, v0) / (5 + la(11)))
END

SUBROUTINE proc949(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = (v0 - (la(8) + 5))
  g1 = -1
END

SUBROUTINE proc950(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = g2
  la(8) = la(10)
  v0 = 10
  g1 = ((2 - v0) - 2)
  PRINT *, max(g3, la(9))
  PRINT *, v0
  PRINT *, g0
END

SUBROUTINE proc951(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -1
  v2 = 3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = 1
  la(11) = max(g2, 6)
  la(6) = max(13, la(6))
  f1 = (-3 / (6 + la(2)))
  v1 = 9
  f0 = 2
  IF (1 .EQ. (6 - la(12)) .OR. (2 / (5 + -5)) .GT. (-1 + g0)) THEN
    f0 = la(2)
    g2 = la(6)
  ENDIF
  IF (max(la(2), g0) .NE. abs(la(11))) THEN
    la(4) = v3
  ENDIF
  g1 = 2
  IF ((la(9) * la(11)) .NE. -1 .AND. 7 .EQ. 6) THEN
    DO g1 = 2, 2
      g3 = max(la(6), g2)
    ENDDO
  ENDIF
END

SUBROUTINE proc952(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 4
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (9 .LT. (6 * -5)) THEN
    v3 = mod(11, 3)
    v2 = abs(mod(v3, 2))
  ENDIF
  DO v2 = 3, 7
    v1 = max(v0, g2)
    la(1) = (mod(5, 3) - 9)
  ENDDO
  IF ((9 / (4 + 0)) .GT. 15 .AND. mod(10, 5) .NE. (v3 - v3)) g2 = mod(4, 4)
  la(10) = la(12)
  f1 = max(5, la(12))
  DO g0 = 2, 6
    f1 = mod(abs(1), 8)
    PRINT *, mod((la(9) / (6 + la(5))), 7)
  ENDDO
END

SUBROUTINE proc953(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 7
  v2 = 9
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = la(10)
  DO f0 = 1, 1
    IF ((g2 * f1) .LT. abs(0) .AND. (f1 / (5 + 9)) .GT. -5) f1 = 6
  ENDDO
  f0 = max(3, 14)
  f0 = abs(la(10))
  IF (5 .GT. (-5 / (4 + f1))) v2 = (-3 - -5)
  DO g2 = 0, 2
    v0 = 12
    v0 = mod((1 + la(2)), 4)
  ENDDO
  IF (abs(g1) .NE. -1 .AND. mod(la(9), 4) .LT. la(10)) THEN
    v0 = 9
  ELSE
    v0 = ((la(1) / (3 + 15)) * v0)
  ENDIF
  g0 = 3
  g0 = -3
  la(10) = max(la(4), 15)
END

SUBROUTINE proc954(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 13
  v2 = 1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(2) .GE. -2 .OR. (2 * la(8)) .EQ. (v1 - g0)) g0 = mod(la(9), 8)
  IF ((g1 * 5) .GT. abs(14)) g3 = (g0 / (2 + 10))
  PRINT *, v2
  f0 = (la(8) - 12)
  la(7) = (mod(3, 5) - la(6))
END

SUBROUTINE proc955(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = g1
  g2 = (abs(1) - max(la(10), la(11)))
  IF (-4 .LT. (12 * 15) .AND. (5 / (5 + -1)) .LT. f0) v1 = mod(14, 2)
  DO v1 = 3, 5
    v0 = 0
    la(7) = max(g0, la(7))
  ENDDO
END

SUBROUTINE proc956(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 5
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, max(v1, la(8))
END

SUBROUTINE proc957(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = max(5, 1)
  g2 = v0
  IF (abs(la(11)) .LT. -5 .OR. 12 .LE. 3) THEN
    g1 = la(4)
  ELSE
    f0 = max(la(11), la(10))
    v2 = mod(abs(la(4)), 3)
  ENDIF
  PRINT *, g2
  DO g3 = 3, 5
    v2 = 5
    v2 = la(3)
  ENDDO
  g0 = la(7)
  g3 = 7
  la(11) = (14 + 1)
END

SUBROUTINE proc958(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (2 .EQ. la(4) .AND. v1 .GT. abs(2)) THEN
    v0 = mod(15, 8)
  ENDIF
END

SUBROUTINE proc959(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 13
  v2 = -4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, g2
  DO g0 = 2, 6
    IF (g2 .GE. 9 .OR. (la(6) - 5) .NE. 5) THEN
      g2 = abs((15 / (2 + la(6))))
      v1 = (mod(la(2), 6) - (1 + -5))
    ENDIF
    f0 = f1
  ENDDO
  v0 = (max(10, la(4)) / (2 + v2))
  v0 = max(la(4), la(10))
  g1 = mod(la(7), 7)
  la(1) = la(1)
END

SUBROUTINE proc960(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((f0 + g0) .NE. max(4, 12) .AND. la(5) .EQ. -5) g1 = (la(1) - 6)
END

SUBROUTINE proc961(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 12
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = f1
  g2 = g2
  IF (la(12) .LE. (la(9) - la(8)) .OR. (g3 * 13) .GT. -1) THEN
    g2 = ((la(3) / (2 + g3)) - 11)
  ENDIF
  g2 = (mod(la(6), 5) - max(v0, 2))
  v0 = abs(-1)
  g3 = (g3 * la(9))
END

SUBROUTINE proc962(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (v1 .NE. (g2 + g0)) THEN
    f0 = mod((f1 * 14), 4)
  ELSE
    g3 = f0
  ENDIF
END

SUBROUTINE proc963(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = -2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = v0
END

SUBROUTINE proc964(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 14
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (15 .GT. 10)) THEN
    g2 = mod((2 - la(4)), 5)
  ENDIF
  IF (9 .EQ. f0 .OR. max(la(8), 9) .GE. max(la(9), g0)) g0 = abs(g3)
  la(6) = g3
  g1 = 5
  v0 = 9
  la(3) = mod(4, 4)
  g2 = g2
  la(11) = f0
  DO g0 = 1, 2
    v1 = mod(9, 3)
    v1 = la(6)
  ENDDO
  la(9) = max(g3, 13)
END

SUBROUTINE proc965(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO f0 = 2, 4
    v0 = mod(la(3), 6)
  ENDDO
  v0 = 2
  g0 = abs(la(11))
  v2 = la(12)
  IF ((12 / (2 + 11)) .EQ. la(2) .OR. 6 .NE. 13) THEN
    g3 = abs((la(1) * 2))
  ELSE
    g1 = la(1)
  ENDIF
END

SUBROUTINE proc966(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 7
  v2 = -1
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v2 = 1, 3
    g1 = 15
    IF (max(g1, la(9)) .GT. la(9) .AND. 3 .EQ. (12 + la(12))) g1 = (9 * v0)
  ENDDO
END

SUBROUTINE proc967(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, 2
  g0 = (mod(1, 4) + la(1))
  g1 = ((g3 / (3 + la(11))) * g3)
  g3 = abs((2 * 3))
  IF (max(v0, -3) .GE. 11 .AND. 3 .LT. 14) THEN
    la(1) = (15 - max(la(1), f0))
  ENDIF
  IF (9 .GT. 11 .OR. max(la(2), la(8)) .GT. abs(v0)) g2 = 14
  la(8) = abs(mod(15, 6))
END

SUBROUTINE proc968(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -4
  v2 = -4
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = (15 * 1)
  g3 = (abs(la(12)) * la(4))
  v3 = ((8 + 1) + mod(-1, 6))
  v2 = max(11, g0)
  IF ((g0 - f0) .GE. (7 * 12)) THEN
    la(1) = ((4 * f0) / (4 + la(6)))
    IF ((f0 * la(7)) .LE. (la(9) - 12)) g2 = v3
  ELSE
    IF (.NOT. ((7 + la(12)) .EQ. 14)) g0 = (la(1) * 10)
    PRINT *, abs((5 - la(5)))
  ENDIF
  PRINT *, la(6)
  IF (-3 .EQ. 14 .AND. la(5) .GT. la(9)) v3 = -1
  DO v1 = 3, 5
    g1 = max(la(2), 11)
  ENDDO
END

SUBROUTINE proc969(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 5
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g2 = 2, 2
    PRINT *, -1
  ENDDO
  f0 = 0
  DO g1 = 1, 3
    g0 = (la(11) - mod(9, 5))
  ENDDO
  DO v0 = 2, 6
    g0 = max(8, la(3))
  ENDDO
  g0 = abs((-2 - la(10)))
  v0 = mod((3 / (3 + v0)), 3)
  PRINT *, v0
  DO g3 = 2, 3
    la(5) = (abs(v1) - mod(-1, 6))
    PRINT *, mod(-1, 4)
  ENDDO
  f0 = abs(abs(-2))
END

SUBROUTINE proc970(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 2
  v2 = -3
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((-5 + v0) .GE. g0) v0 = 7
  la(9) = mod(v3, 2)
END

SUBROUTINE proc971(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 6
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((g0 - g1) .LT. (la(9) * 14) .AND. (f0 * 8) .GT. 8) v2 = g2
  g1 = la(5)
  g1 = 9
  f0 = abs(g2)
  v2 = (max(0, g1) * la(10))
  PRINT *, la(1)
  IF ((11 * la(5)) .EQ. (g2 + -2) .OR. (11 - 0) .LT. la(5)) v0 = (la(11) + g1)
END

SUBROUTINE proc972(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, f0
  g2 = (v1 * 14)
  la(3) = abs(mod(la(6), 2))
  f0 = g2
  la(4) = (abs(15) - la(7))
END

SUBROUTINE proc973(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = -1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (mod(la(11), 5) * la(5))
  v3 = (f0 + (v1 + 15))
  v3 = la(7)
  DO v0 = 2, 5
    IF (g3 .LT. (12 + la(1))) THEN
      PRINT *, la(12)
    ENDIF
    la(10) = (14 * f1)
  ENDDO
  g2 = 15
END

SUBROUTINE proc974(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -3
  v2 = 14
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (5 .GT. 15 .OR. v3 .GT. (11 - 6)) g1 = la(9)
  la(4) = 10
  IF (-1 .LE. max(la(2), 15) .AND. la(4) .NE. (v3 * 12)) v0 = (10 / (4 + la(2)))
  PRINT *, la(1)
  PRINT *, (g0 - v3)
  v3 = 7
  f0 = 7
  IF ((3 + -5) .LT. abs(3) .AND. (9 * -3) .NE. (la(11) / (2 + 0))) THEN
    v0 = ((g2 - la(2)) + la(9))
  ENDIF
END

SUBROUTINE proc975(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(2) + la(5)) .NE. -2 .OR. abs(g0) .LE. la(12)) v1 = 13
  f0 = 10
END

SUBROUTINE proc976(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = max(v0, 0)
END

SUBROUTINE proc977(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 6
  IF ((13 + la(10)) .GE. mod(4, 2) .AND. abs(la(8)) .GE. la(1)) v1 = (la(6) - 5)
  g1 = ((g0 - 11) + (f0 / (6 + g2)))
  f0 = f0
  g3 = ((-5 * g0) * 5)
  g3 = abs(max(-3, 0))
END

SUBROUTINE proc978(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((13 / (5 + -5)) .GT. -1) THEN
    g2 = 6
  ELSE
    g1 = mod((f0 + la(6)), 5)
  ENDIF
  PRINT *, (la(5) + (v1 - 15))
  g0 = 11
  la(5) = v2
  DO v0 = 0, 4
    g3 = (10 * 0)
  ENDDO
  g2 = mod((la(3) - f0), 7)
  la(7) = (la(5) / (3 + v1))
  f0 = g2
  g1 = max(la(1), 9)
  g3 = (abs(v0) / (3 + la(4)))
END

SUBROUTINE proc979(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = 5
  g0 = (3 + (5 * g1))
  v0 = ((14 * 3) + 5)
  DO v2 = 1, 5
    v1 = la(5)
  ENDDO
  f1 = 14
  la(9) = 1
  IF (mod(-2, 6) .EQ. -4) g1 = 15
  PRINT *, (v1 + la(2))
  DO g2 = 1, 3
    f0 = abs((5 - v1))
  ENDDO
  DO g1 = 2, 2
    la(8) = la(3)
    v2 = abs((-1 * 10))
  ENDDO
END

SUBROUTINE proc980(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 0
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(5) = mod(la(9), 6)
  la(1) = 12
  f1 = 8
  g3 = (13 - la(11))
  v2 = v0
  IF (.NOT. (15 .GT. 1)) v0 = v2
  g0 = g3
  la(5) = ((la(8) / (4 + -2)) + max(la(12), la(12)))
  g3 = la(6)
  g3 = (v0 - (7 - f1))
END

SUBROUTINE proc981(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = max(7, 3)
  g2 = ((la(8) * 11) * v2)
  PRINT *, (8 * 3)
  IF ((6 + 2) .LE. max(g0, g0) .OR. (la(2) + v1) .NE. (f0 + g0)) g1 = la(7)
  DO g2 = 3, 5
    PRINT *, la(11)
  ENDDO
  PRINT *, -3
  IF (.NOT. (-1 .LE. -5)) THEN
    g3 = (abs(11) + (12 + v1))
    PRINT *, ((la(5) - 8) + (g3 * la(5)))
  ELSE
    IF ((7 * v1) .LT. abs(-2) .AND. (g0 + la(6)) .EQ. (2 - -3)) THEN
      v0 = -3
      IF (g0 .LE. v0 .AND. max(0, 1) .NE. 7) v0 = (la(5) / (3 + -2))
    ELSE
      IF (g1 .LT. (v1 * -3) .OR. -2 .LT. mod(la(2), 6)) g2 = la(8)
      la(9) = 13
    ENDIF
    la(12) = max(12, 10)
  ENDIF
END

SUBROUTINE proc982(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 5
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = abs(mod(11, 8))
  IF (.NOT. (max(la(11), -2) .LT. (1 / (2 + v2)))) f0 = v2
  v1 = max(la(6), la(1))
  v1 = 7
  g1 = la(2)
  v2 = max(la(2), -2)
  IF (4 .LT. 14 .OR. v2 .LT. (g1 + la(4))) g1 = la(4)
  IF (1 .LE. la(4)) g1 = -3
  PRINT *, mod(la(12), 5)
  IF (max(f0, 11) .NE. 14 .AND. mod(v2, 7) .GE. max(v0, -4)) g1 = -5
END

SUBROUTINE proc983(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((11 * la(2)) .GT. g3 .OR. (12 / (4 + la(7))) .NE. max(2, 11)) THEN
    PRINT *, (1 - mod(la(4), 8))
    la(6) = max(g1, la(7))
  ELSE
    PRINT *, -4
  ENDIF
  DO v0 = 0, 2
    g1 = abs((-4 / (4 + v0)))
  ENDDO
  v0 = la(5)
  g3 = (abs(9) - abs(g3))
  v1 = 0
  IF (.NOT. (g1 .NE. 14)) f0 = 7
  PRINT *, 9
  IF (f0 .EQ. (5 - -3) .AND. 11 .GE. 7) v0 = (11 * la(3))
END

SUBROUTINE proc984(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (3 .NE. abs(g3) .AND. v0 .NE. f0) THEN
    g2 = (abs(2) * 4)
  ENDIF
  g1 = la(10)
  v1 = abs(max(la(3), 0))
  v0 = 6
END

SUBROUTINE proc985(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -2
  v2 = 0
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v3 = (g1 + (2 - la(6)))
  v1 = ((7 / (6 + la(5))) / (6 + la(1)))
  v0 = abs((v3 + v0))
  g1 = max(la(11), v1)
END

SUBROUTINE proc986(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 10
  f0 = 10
  DO v0 = 1, 5
    IF (.NOT. (abs(f0) .EQ. -1)) THEN
      g2 = v1
      v1 = (-3 * 15)
    ELSE
      f1 = abs(f1)
    ENDIF
  ENDDO
END

SUBROUTINE proc987(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = f0
  DO g2 = 1, 2
    v0 = la(7)
    DO g3 = 0, 3
      IF (.NOT. ((la(2) - la(11)) .GE. (-1 - v0))) v0 = abs(g0)
    ENDDO
  ENDDO
  PRINT *, 5
  g1 = ((-1 - 0) - mod(g1, 8))
  IF (.NOT. ((12 / (6 + g0)) .LE. g3)) THEN
    DO g0 = 1, 2
      g1 = 9
    ENDDO
    IF (abs(f0) .LT. mod(9, 3) .AND. 3 .GE. abs(v0)) g3 = 12
  ELSE
    DO g0 = 3, 6
      g3 = 5
      f0 = (mod(-3, 4) * v1)
    ENDDO
  ENDIF
  f0 = (6 - (la(2) * la(9)))
  g1 = ((la(11) * la(6)) * g2)
  g3 = ((8 / (6 + la(10))) * 1)
END

SUBROUTINE proc988(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, mod(-1, 3)
  g2 = 3
  f0 = g2
END

SUBROUTINE proc989(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 3, 4
    la(4) = (g2 + g2)
    DO f0 = 2, 5
      PRINT *, max(6, la(6))
      g0 = max(la(5), la(9))
    ENDDO
  ENDDO
  g0 = mod(-1, 3)
  g3 = (abs(la(9)) - (la(10) - la(8)))
  g3 = 9
  PRINT *, -5
END

SUBROUTINE proc990(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 3
  v2 = -2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(4)
  la(9) = mod(la(2), 6)
  IF (la(6) .EQ. v0 .AND. max(7, -1) .LE. 8) THEN
    PRINT *, g1
    v1 = ((la(2) * -1) * 5)
  ENDIF
  IF (.NOT. (abs(5) .EQ. (12 / (3 + la(8))))) THEN
    DO g0 = 1, 4
      g3 = -2
      g1 = mod(mod(0, 5), 5)
    ENDDO
    IF (.NOT. (8 .EQ. 1)) f0 = max(13, la(10))
  ENDIF
END

SUBROUTINE proc991(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = mod((12 - 0), 2)
END

SUBROUTINE proc992(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 11
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (max(v0, 6) * -4)
  IF (.NOT. (5 .LT. (g1 + 8))) THEN
    IF (.NOT. (la(1) .LT. (6 - 12))) THEN
      f0 = 3
      la(5) = f0
    ELSE
      g3 = 11
    ENDIF
    v2 = la(5)
  ENDIF
  IF (abs(v1) .NE. mod(g3, 8) .OR. max(0, 0) .EQ. la(7)) THEN
    g1 = la(7)
    IF (.NOT. (g0 .GE. v0)) v0 = (-5 + g2)
  ELSE
    v2 = f0
    DO g1 = 3, 6
      g2 = -4
      IF (.NOT. (-4 .NE. 1)) v1 = abs(la(10))
    ENDDO
  ENDIF
  PRINT *, 3
  IF (.NOT. ((g1 + 4) .GE. (-1 / (5 + 15)))) THEN
    IF (g0 .GT. f0 .OR. (g3 / (3 + g3)) .GT. la(7)) v2 = max(6, v3)
  ELSE
    PRINT *, 5
  ENDIF
  DO g1 = 2, 4
    v2 = mod(la(6), 3)
    g3 = 2
  ENDDO
  PRINT *, (g0 + abs(la(2)))
  IF (.NOT. (abs(v0) .GT. 0)) THEN
    g1 = la(3)
    v0 = 11
  ELSE
    PRINT *, v3
    la(7) = (7 / (3 + 4))
  ENDIF
  f0 = abs(-1)
  g2 = max(15, la(12))
END

SUBROUTINE proc993(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = abs((10 * 4))
  IF (.NOT. ((f0 - 14) .LT. g3)) g2 = la(3)
END

SUBROUTINE proc994(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 13
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = v2
  v2 = abs((la(6) - la(8)))
  v1 = g0
  PRINT *, mod((la(3) + 7), 8)
  g3 = ((v1 / (4 + 8)) * 8)
  PRINT *, g2
  g2 = 7
END

SUBROUTINE proc995(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = v1
  IF (.NOT. (abs(8) .GE. mod(la(9), 2))) THEN
    IF (f0 .EQ. f0) THEN
      f0 = max(la(4), 15)
    ENDIF
  ELSE
    g1 = abs(v0)
  ENDIF
  g2 = (1 / (2 + la(6)))
  g2 = la(7)
  DO g2 = 3, 3
    la(8) = la(9)
  ENDDO
  g1 = f0
  PRINT *, 6
  IF (.NOT. ((v0 + 7) .NE. 7)) v0 = (la(7) + g1)
END

SUBROUTINE proc996(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = ((la(12) / (2 + f0)) - f0)
  f0 = ((g1 + la(11)) + max(5, la(6)))
  IF ((g0 + g3) .NE. mod(v2, 5)) v1 = (13 + la(3))
  g2 = mod(max(la(12), 1), 5)
  PRINT *, v0
  f1 = (abs(10) / (2 + la(10)))
  la(7) = mod((8 / (5 + g2)), 3)
END

SUBROUTINE proc997(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 12
  v2 = 6
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = (g3 - (14 / (4 + -5)))
  IF (.NOT. ((14 / (6 + 6)) .GT. 10)) g2 = (1 - -1)
  f0 = 7
  DO v3 = 3, 3
    IF ((v2 + v2) .LT. 5 .AND. 13 .GT. abs(la(3))) THEN
      g3 = g3
    ENDIF
  ENDDO
  g1 = g2
  IF (mod(13, 6) .EQ. 10 .OR. -2 .GT. (4 - la(4))) g2 = max(11, 11)
  v1 = (la(9) / (6 + v1))
  v2 = max(la(8), la(11))
  la(2) = mod(mod(la(2), 6), 3)
END

SUBROUTINE proc998(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, abs(4)
  IF (2 .GE. 7) THEN
    DO v0 = 1, 3
      g3 = max(10, la(9))
    ENDDO
    v1 = (mod(la(6), 4) + mod(-2, 2))
  ENDIF
  DO g1 = 1, 2
    IF (la(1) .GT. 8) THEN
      IF (.NOT. (mod(4, 3) .LT. (g1 * -5))) f0 = la(11)
    ELSE
      f0 = g2
      la(12) = max(la(10), 1)
    ENDIF
    g3 = -3
  ENDDO
  DO g0 = 0, 0
    PRINT *, 11
    f0 = la(8)
  ENDDO
  g2 = -3
  DO v1 = 0, 2
    DO f0 = 1, 1
      v0 = 3
    ENDDO
    v0 = g0
  ENDDO
END

SUBROUTINE proc999(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = -1
END

SUBROUTINE proc1000(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -1
  v2 = 13
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (abs(12) .GE. g2 .OR. mod(v3, 5) .LT. mod(7, 2)) g0 = abs(la(7))
  f0 = -1
  g2 = 13
  g3 = mod(abs(15), 7)
  v0 = (la(5) - -2)
  IF ((v0 + -4) .LT. max(12, -4)) v3 = mod(-3, 7)
END

SUBROUTINE proc1001(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 8
  v2 = 1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = v2
  v3 = (max(10, la(4)) - v0)
  v0 = abs((-2 - v0))
  g3 = 8
END

SUBROUTINE proc1002(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 4
  v2 = 3
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g0 = 0, 1
    IF (mod(15, 8) .GT. 9 .OR. v0 .EQ. abs(0)) v2 = max(9, f0)
  ENDDO
  v2 = (max(la(5), g2) / (5 + f0))
  g2 = max(g2, g1)
  v2 = ((f0 + -5) - 15)
  DO v2 = 3, 4
    PRINT *, f0
    g0 = la(12)
  ENDDO
  v0 = -1
END

SUBROUTINE proc1003(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(-5) .NE. -5 .AND. (10 * 2) .NE. mod(13, 7)) g0 = (la(12) + f1)
  DO f0 = 3, 6
    DO g2 = 0, 4
      v1 = ((la(1) * 1) - (8 * 11))
    ENDDO
    g0 = abs(max(8, la(3)))
  ENDDO
  v1 = g2
END

SUBROUTINE proc1004(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -4
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = -3
  PRINT *, abs(12)
  g3 = (mod(g1, 2) - (g3 * 13))
  la(11) = 3
  g3 = -1
  IF (13 .NE. 3 .OR. (-1 / (3 + 6)) .LT. (14 - v0)) v1 = (la(5) + 6)
  PRINT *, -4
  la(12) = (7 + max(la(11), 3))
END

SUBROUTINE proc1005(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -3
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = f0
  la(5) = mod((9 * 3), 5)
  PRINT *, ((la(7) + v0) * v0)
  IF ((5 / (3 + la(4))) .EQ. 0) f1 = (2 - v2)
  la(7) = la(11)
  IF (.NOT. ((la(11) - -2) .NE. (la(3) + g0))) THEN
    g2 = g2
    v2 = max(-2, la(9))
  ENDIF
  IF (la(7) .LE. -1 .AND. la(12) .GT. 11) THEN
    g3 = -5
    IF ((5 * 13) .NE. -5) v0 = 9
  ENDIF
  v2 = ((la(12) * v0) - 13)
  f0 = la(10)
END

SUBROUTINE proc1006(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 12
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = -4
  v2 = abs((f0 + la(6)))
  g2 = ((g2 + la(12)) * f0)
  v2 = 10
  v3 = (max(la(10), la(5)) + -2)
  v1 = (6 * 15)
  PRINT *, (abs(la(8)) - -4)
  IF ((la(1) + 4) .GT. (11 - v1) .AND. (-3 * 7) .LT. -1) THEN
    g1 = g1
    PRINT *, (mod(v3, 2) + g0)
  ENDIF
  la(4) = (la(12) - abs(g1))
END

SUBROUTINE proc1007(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (g0 * 12)
  PRINT *, abs(la(5))
  IF (2 .LT. 10 .AND. mod(3, 7) .GE. abs(g0)) THEN
    g3 = (g1 - 3)
  ELSE
    la(10) = 10
    IF ((-4 + v0) .NE. -2 .AND. g2 .EQ. (v0 - 12)) v0 = (la(7) + g2)
  ENDIF
  DO f0 = 2, 5
    DO g0 = 0, 4
      g2 = 9
      g3 = max(-3, la(11))
    ENDDO
  ENDDO
  g2 = f0
  la(3) = la(10)
  v0 = (la(8) / (3 + la(5)))
END

SUBROUTINE proc1008(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 5
  IF (max(g0, 2) .NE. g0 .OR. -3 .LE. (v1 * la(1))) f0 = 8
END

SUBROUTINE proc1009(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 10
  v2 = 7
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, g2
  la(2) = (2 - la(7))
  g0 = max(g0, 13)
END

SUBROUTINE proc1010(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 4
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = max(-3, g3)
  f0 = la(11)
  IF (mod(0, 4) .EQ. 12 .OR. 14 .LT. max(f1, 5)) THEN
    f1 = abs((la(4) + f0))
  ELSE
    g1 = 7
  ENDIF
  IF (la(6) .LT. g2 .OR. la(11) .GT. (5 - -1)) THEN
    g3 = ((-4 + g2) + 4)
  ELSE
    la(4) = mod(4, 6)
    g1 = abs(g2)
  ENDIF
  la(4) = 6
END

SUBROUTINE proc1011(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 3
  v2 = 2
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = (mod(g3, 6) + la(3))
  PRINT *, -3
  f0 = (-2 - mod(la(4), 6))
  g2 = max(12, v3)
  v0 = la(7)
  PRINT *, abs(mod(5, 2))
  IF (.NOT. (max(la(4), g0) .LT. max(v2, 0))) g3 = g2
  DO g0 = 2, 2
    v1 = v0
    DO g3 = 3, 6
      g2 = mod(-1, 5)
      v0 = 14
    ENDDO
  ENDDO
END

SUBROUTINE proc1012(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = la(8)
  g3 = la(8)
  DO v0 = 1, 4
    IF (.NOT. (la(7) .NE. abs(la(11)))) THEN
      IF (8 .GE. -5 .AND. la(7) .EQ. la(4)) g0 = 14
    ELSE
      la(6) = f0
    ENDIF
    IF ((g2 * 9) .EQ. (la(7) - 8) .OR. abs(v1) .EQ. -5) THEN
      IF (-5 .GT. v1 .OR. (10 + v0) .LE. (la(2) * la(1))) g3 = mod(-2, 3)
    ENDIF
  ENDDO
  la(9) = ((g1 - la(4)) - mod(12, 7))
  g0 = 10
END

SUBROUTINE proc1013(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = abs(la(6))
  v1 = g1
  DO g2 = 2, 6
    v1 = la(2)
  ENDDO
  g1 = max(14, 10)
  v0 = (abs(1) / (5 + g3))
  f0 = mod((la(11) * -1), 3)
  DO f0 = 2, 6
    IF (.NOT. (8 .LT. -3)) THEN
      la(2) = -2
      g0 = mod(max(15, v1), 6)
    ELSE
      v1 = -3
      g3 = (la(12) + max(la(3), 14))
    ENDIF
    g2 = v1
  ENDDO
  v0 = (la(9) * g3)
  la(1) = -2
  la(9) = max(la(10), la(4))
END

SUBROUTINE proc1014(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 8
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = 4
END

SUBROUTINE proc1015(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -3
  v2 = -1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = la(6)
  PRINT *, 13
  la(11) = la(1)
  IF ((9 * 3) .GE. (13 + -4) .AND. max(la(2), f1) .LE. mod(la(3), 8)) THEN
    IF (7 .GT. f1) g2 = (15 * 6)
    v0 = la(6)
  ELSE
    g0 = (mod(g3, 6) - (la(9) - 0))
    v3 = mod(v2, 2)
  ENDIF
  IF ((la(10) - la(3)) .GT. 14 .AND. v2 .EQ. (2 + -5)) g0 = g2
  IF ((-5 / (4 + la(4))) .GT. -2 .AND. 7 .LE. 6) f0 = max(la(2), la(7))
  g3 = ((11 * la(3)) / (2 + la(1)))
  IF (.NOT. (max(6, 11) .EQ. (la(10) * g3))) THEN
    la(5) = ((la(2) + 12) - mod(la(1), 7))
  ELSE
    v3 = 7
  ENDIF
  la(9) = max(8, la(4))
  DO f0 = 2, 5
    IF ((-1 - -5) .EQ. max(-3, 11) .AND. v2 .GT. 2) g3 = (12 * la(6))
    IF (.NOT. (2 .GE. (11 * 1))) THEN
      f1 = 3
    ENDIF
  ENDDO
END

SUBROUTINE proc1016(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 4
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(6) = la(3)
  DO v1 = 2, 6
    g3 = (abs(13) - (-1 / (3 + v2)))
  ENDDO
  g3 = 13
  DO g3 = 2, 3
    g2 = (f0 + (la(11) * -5))
  ENDDO
  f0 = mod(la(1), 8)
END

SUBROUTINE proc1017(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 11
  v2 = 13
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = ((9 - v0) * 7)
  IF (.NOT. ((-4 + v0) .GE. v3)) THEN
    v0 = 13
    la(7) = mod(la(1), 2)
  ENDIF
END

SUBROUTINE proc1018(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = g0
END

SUBROUTINE proc1019(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 14
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v1 = 1, 3
    IF (-5 .NE. g0 .AND. -5 .GE. (3 - la(10))) THEN
      v2 = 0
    ELSE
      g3 = max(13, -5)
      f1 = 5
    ENDIF
  ENDDO
  IF (-4 .LE. (6 - -2) .OR. f1 .LT. 9) g2 = v0
  IF (mod(v1, 3) .LE. 1 .AND. (2 + 10) .NE. (v2 * 4)) THEN
    g1 = (g1 - 12)
  ENDIF
  la(8) = (la(2) * la(10))
  la(10) = ((g2 / (6 + la(5))) - 2)
END

SUBROUTINE proc1020(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = ((f1 - la(1)) - 6)
  la(6) = abs(max(la(10), 3))
  v1 = ((-3 + 12) - 13)
  IF (7 .EQ. max(la(2), -5)) THEN
    DO f0 = 0, 3
      IF ((g2 + 7) .LT. la(9) .AND. max(13, la(4)) .EQ. 9) g0 = 6
      PRINT *, (la(8) + mod(g1, 7))
    ENDDO
    g3 = f1
  ELSE
    g0 = (10 + -4)
  ENDIF
END

SUBROUTINE proc1021(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, la(1)
END

SUBROUTINE proc1022(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(1) = (la(5) + 4)
  PRINT *, g2
  DO g1 = 2, 2
    la(12) = 2
  ENDDO
  v2 = (abs(15) - (2 - v1))
  la(2) = (mod(la(1), 3) * 7)
  g1 = (max(13, 3) * la(11))
  IF (la(11) .NE. (la(9) + -4) .OR. (la(3) - 6) .GT. (12 - 7)) THEN
    g2 = mod((la(11) - 9), 6)
  ENDIF
  IF (abs(g0) .LT. (la(8) * la(11)) .AND. (f0 - la(10)) .NE. 0) THEN
    g3 = la(9)
    v0 = ((2 * 6) * 13)
  ENDIF
  g1 = (mod(9, 4) + la(11))
END

SUBROUTINE proc1023(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 5
  v2 = 14
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = abs((la(12) - 15))
  DO f0 = 3, 6
    IF (v2 .EQ. mod(3, 2) .OR. 7 .GE. (-3 - -1)) THEN
      IF (.NOT. (la(7) .LE. (la(9) - la(3)))) g2 = mod(la(12), 4)
    ENDIF
  ENDDO
  IF (la(6) .LE. g0 .AND. la(11) .EQ. (2 - la(1))) g1 = 0
  f0 = abs(g0)
  f1 = (v2 / (6 + 3))
  la(5) = la(2)
  g2 = la(11)
END

SUBROUTINE proc1024(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. ((f0 - 14) .GE. v0)) g1 = (1 * la(1))
END

SUBROUTINE proc1025(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 13
  v2 = -3
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (v0 - (la(10) + -3))
END

SUBROUTINE proc1026(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f0 = 0, 0
    v0 = v1
    g2 = max(v0, la(5))
  ENDDO
  DO g0 = 1, 3
    v0 = (abs(g0) * 0)
  ENDDO
  v0 = 3
  g0 = max(la(4), -2)
  f0 = 1
  IF (-5 .GE. la(8) .AND. abs(la(4)) .EQ. v1) f0 = v1
  g2 = mod((-3 - 4), 3)
  g3 = la(4)
END

SUBROUTINE proc1027(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((2 + v1) .LE. g0 .OR. abs(7) .GT. g0) THEN
    v1 = (v0 * 12)
  ELSE
    IF ((-1 / (6 + la(2))) .EQ. (la(1) / (2 + v2))) g3 = 15
    f0 = 10
  ENDIF
END

SUBROUTINE proc1028(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 7
  v2 = 8
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. ((-1 - g1) .NE. max(-5, 8))) g3 = la(11)
END

SUBROUTINE proc1029(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 7
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((la(7) - 5) .LE. (7 / (3 + 0)) .AND. max(1, 14) .LE. -2) THEN
    g2 = la(1)
    PRINT *, (abs(3) - (-5 - la(4)))
  ENDIF
  IF (.NOT. (2 .LE. (-3 / (2 + v1)))) THEN
    IF (mod(-2, 2) .GT. (g1 + -3)) g3 = (g2 - 1)
  ELSE
    IF (g2 .GE. abs(-5) .AND. abs(3) .NE. max(11, la(8))) g1 = (6 / (5 + v1))
  ENDIF
  PRINT *, f0
  g1 = (f0 - (11 / (3 + la(11))))
  v2 = abs(f0)
  g0 = g1
  f0 = (la(10) - (3 - 13))
  PRINT *, v0
END

SUBROUTINE proc1030(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = mod((-1 + 2), 8)
  DO g1 = 2, 6
    PRINT *, max(15, 11)
    f0 = ((1 / (3 + 8)) * la(12))
  ENDDO
  IF (3 .LT. abs(la(11))) v0 = la(8)
  IF (10 .GT. (-5 + 13)) g3 = g0
  g0 = (f0 - 3)
  v1 = mod(max(11, -4), 6)
  f1 = 15
END

SUBROUTINE proc1031(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = la(5)
  g1 = la(2)
  PRINT *, 1
  g2 = max(la(7), 6)
  g0 = 4
  PRINT *, max(3, la(4))
  DO g2 = 0, 0
    PRINT *, (abs(4) + f0)
  ENDDO
  g0 = (g2 / (6 + la(4)))
  IF (max(v1, 12) .GE. la(1) .OR. abs(4) .NE. (14 / (2 + -2))) g3 = (g1 + la(2))
  IF (.NOT. (0 .GT. (11 * 7))) f0 = (la(4) + la(5))
END

SUBROUTINE proc1032(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((8 * f0) .GT. (g2 - g3) .AND. (v1 + 15) .LT. 9) v0 = (g3 + -2)
  f0 = 4
  g1 = abs((v1 * -3))
  DO g2 = 3, 3
    v1 = la(11)
  ENDDO
  f0 = v1
  g2 = 12
  f0 = (mod(la(9), 5) - v1)
  la(7) = max(g3, g3)
  g3 = ((la(8) - v1) + -4)
  f0 = abs(f0)
END

SUBROUTINE proc1033(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 8
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 3, 6
    la(9) = ((12 * -3) * 8)
  ENDDO
  PRINT *, g2
  DO f0 = 3, 3
    PRINT *, max(v2, la(1))
    PRINT *, -1
  ENDDO
  IF ((4 / (5 + g0)) .LE. la(6) .AND. (12 * 15) .EQ. max(12, la(7))) THEN
    la(5) = 14
    la(6) = abs(max(f0, 3))
  ENDIF
  v0 = 15
  f0 = abs(2)
  g3 = max(7, g2)
  g3 = 14
END

SUBROUTINE proc1034(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(2) = la(11)
  g1 = (la(5) + mod(g1, 7))
  g0 = mod(g3, 4)
  la(11) = la(4)
  PRINT *, la(8)
  IF (.NOT. (5 .LE. mod(g3, 5))) THEN
    v1 = 10
    DO g0 = 0, 3
      g3 = abs(10)
      la(11) = 10
    ENDDO
  ELSE
    v1 = 8
  ENDIF
  g3 = 11
  f0 = max(0, la(2))
END

SUBROUTINE proc1035(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(7, 6) .GE. (g2 * la(1)) .OR. max(4, g0) .GT. max(10, f1)) THEN
    DO g0 = 2, 3
      v0 = f1
    ENDDO
    IF (mod(g3, 5) .LT. abs(5) .OR. (g1 + g0) .GE. mod(7, 8)) g2 = 5
  ELSE
    g0 = -3
    g3 = la(1)
  ENDIF
  f0 = -3
  g1 = la(3)
  g2 = g1
END

SUBROUTINE proc1036(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 3
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(9) = max(la(8), la(10))
  f0 = ((-3 + v2) * 10)
  f0 = la(7)
  PRINT *, ((2 * 1) - mod(la(11), 6))
  v3 = ((la(9) - 0) + la(10))
  f0 = (-4 + 3)
  DO g0 = 2, 4
    f0 = 9
  ENDDO
END

SUBROUTINE proc1037(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (max(f0, f0) .LE. v1) THEN
    IF (.NOT. (10 .NE. v2)) g1 = v1
  ELSE
    v2 = g3
    IF (.NOT. (12 .LT. (la(11) / (2 + -3)))) THEN
      g0 = g1
    ENDIF
  ENDIF
  v2 = 11
  v1 = (la(12) * v0)
END

SUBROUTINE proc1038(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -1
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = abs(1)
  v2 = mod(max(g3, 15), 2)
  g2 = la(10)
  PRINT *, (v1 / (5 + la(11)))
END

SUBROUTINE proc1039(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = ((la(8) / (2 + 11)) - (la(3) + 9))
  la(7) = g0
  v0 = la(9)
  g1 = 1
END

SUBROUTINE proc1040(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = 4
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = v1
  g0 = (g1 / (3 + g1))
  f0 = (2 * -3)
  v0 = ((15 + la(8)) * g3)
  IF ((la(8) + 15) .EQ. la(10)) g0 = v2
  v2 = v0
END

SUBROUTINE proc1041(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = g1
  g0 = 13
END

SUBROUTINE proc1042(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = 13
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = g1
  la(10) = v3
  g1 = 6
  IF (g3 .GE. 5) v1 = abs(10)
END

SUBROUTINE proc1043(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 7
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (1 .GT. 7)) v1 = (10 - la(11))
  la(12) = max(1, la(1))
  g0 = 15
  IF (abs(la(6)) .GT. mod(-5, 6)) v0 = (v1 * 2)
  IF (la(6) .LT. (f0 + 5) .OR. max(7, la(11)) .LE. (la(10) - 14)) THEN
    PRINT *, 6
    g0 = la(12)
  ENDIF
  IF (abs(4) .LE. la(3)) f0 = (la(4) - 9)
  g0 = abs(la(3))
END

SUBROUTINE proc1044(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g1 = 1, 2
    g0 = (la(8) - f0)
  ENDDO
  IF (la(9) .NE. 4) THEN
    v1 = max(v0, 3)
  ELSE
    PRINT *, la(3)
    IF (abs(-5) .LT. mod(v0, 2) .AND. max(-2, 15) .EQ. 6) v0 = v0
  ENDIF
  PRINT *, (max(la(1), 10) - (v1 / (3 + 0)))
  la(9) = -4
  g2 = (g0 * 9)
END

SUBROUTINE proc1045(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v1 = 2, 5
    IF (.NOT. (max(-2, 13) .NE. (0 * 8))) THEN
      la(1) = mod((9 - la(6)), 2)
    ELSE
      IF (f1 .LE. 8) v0 = g3
    ENDIF
    f0 = mod(abs(la(4)), 2)
  ENDDO
  PRINT *, abs((-5 - la(8)))
  IF (5 .GT. mod(v0, 7) .OR. -2 .LT. (g0 - 11)) THEN
    f0 = (g0 * 10)
  ENDIF
  v1 = max(-2, f1)
  v0 = (max(la(5), 0) / (6 + g3))
  DO g2 = 2, 4
    f1 = max(-5, 1)
  ENDDO
  DO g3 = 2, 2
    f0 = 7
  ENDDO
  g0 = -4
  f1 = (mod(13, 7) / (3 + f0))
  la(4) = mod((la(7) + la(8)), 7)
END

SUBROUTINE proc1046(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 12
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (v1 - (f1 - v0))
  DO g0 = 0, 4
    IF (.NOT. ((la(9) + la(5)) .GT. v2)) THEN
      g2 = (mod(g1, 3) * f0)
      g1 = g3
    ENDIF
  ENDDO
  IF (f1 .GT. abs(g0)) THEN
    g2 = abs(max(la(4), 1))
  ENDIF
END

SUBROUTINE proc1047(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = g2
  v0 = f1
  g2 = (10 - v0)
  DO g0 = 2, 3
    v0 = 5
    f1 = max(-2, -5)
  ENDDO
END

SUBROUTINE proc1048(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 1
  v2 = 1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (v2 .NE. 0) THEN
    g0 = 9
    la(11) = abs(la(6))
  ENDIF
  v2 = la(8)
  v1 = (max(v3, 0) - (5 / (2 + -4)))
  v0 = (14 - la(3))
END

SUBROUTINE proc1049(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 6
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = ((6 * g3) * v0)
  IF (6 .GE. 10 .AND. max(14, v1) .GE. (g1 / (2 + la(7)))) g3 = (la(7) + la(5))
  g2 = 8
  la(10) = 14
  g1 = mod(max(-1, f1), 6)
  IF (-4 .NE. (la(12) * la(6)) .AND. 1 .LE. -3) THEN
    g0 = (v1 / (5 + la(12)))
  ELSE
    f0 = 13
  ENDIF
END

SUBROUTINE proc1050(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = (5 + max(la(10), v0))
  la(11) = -5
END

SUBROUTINE proc1051(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = g3
  DO g1 = 2, 5
    IF ((4 * la(9)) .EQ. la(7) .AND. la(8) .LT. (la(1) / (4 + g0))) THEN
      v0 = max(5, 7)
      g0 = (11 * g3)
    ENDIF
    v0 = 3
  ENDDO
  PRINT *, ((la(12) * 0) - 10)
END

SUBROUTINE proc1052(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = max(la(7), 12)
  g1 = (abs(5) * -5)
  DO v0 = 2, 4
    v1 = (6 - -5)
    DO g2 = 1, 5
      la(4) = 11
      g0 = ((2 + 2) + (la(2) - v1))
    ENDDO
  ENDDO
  g2 = g0
  PRINT *, 12
  g3 = ((-3 / (2 + 3)) / (5 + la(3)))
  la(2) = ((-2 / (6 + -2)) + (2 / (6 + la(1))))
  f0 = (2 * -1)
  f0 = g0
END

SUBROUTINE proc1053(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 6
  v2 = 4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = (g1 + 4)
  v0 = (9 + (13 + 14))
  PRINT *, f0
  v1 = (15 / (2 + g2))
  v1 = ((g3 * g2) / (4 + -3))
END

SUBROUTINE proc1054(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = (max(8, -2) - (11 / (3 + 10)))
  g0 = max(15, la(5))
  IF ((1 - g0) .NE. 6 .OR. f0 .EQ. 3) g3 = (3 - 7)
  PRINT *, abs(la(11))
  v0 = v1
  PRINT *, ((9 * 8) + mod(v1, 3))
  IF ((la(6) / (2 + g2)) .LE. (12 * g2) .AND. (1 + v0) .LE. (15 / (3 + la(9)))) THEN
    IF (g0 .LE. 0) THEN
      IF (.NOT. (11 .EQ. -5)) f0 = -1
    ENDIF
  ENDIF
  la(1) = la(6)
  la(8) = max(12, la(7))
END

SUBROUTINE proc1055(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -1
  v2 = 12
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = 0
  IF (mod(0, 6) .LE. (v3 * g0)) THEN
    v2 = 0
  ELSE
    g0 = (max(v0, g1) - la(6))
    DO v0 = 0, 2
      v1 = la(4)
    ENDDO
  ENDIF
  v3 = mod((8 + -3), 8)
  IF ((la(11) + 14) .GE. la(3)) THEN
    IF (.NOT. (-4 .GE. abs(-2))) f0 = (v1 / (4 + 0))
  ELSE
    PRINT *, max(v1, la(4))
    IF (-2 .GE. -3) THEN
      f0 = 4
      g0 = 1
    ENDIF
  ENDIF
  f1 = (la(8) + v0)
  DO g1 = 3, 7
    IF (4 .GE. (2 - la(5)) .OR. la(2) .EQ. mod(13, 4)) v0 = 2
  ENDDO
  v1 = (9 - g2)
  DO v1 = 1, 5
    g0 = 13
    PRINT *, (4 + (1 * -1))
  ENDDO
  la(4) = mod((-3 / (2 + la(7))), 6)
  g2 = -1
END

SUBROUTINE proc1056(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((f0 * -4) .NE. (2 * f0) .OR. 6 .LE. max(-2, g2)) THEN
    f0 = ((15 / (6 + -1)) - la(11))
    PRINT *, max(la(9), -4)
  ELSE
    la(5) = mod((12 - g2), 3)
  ENDIF
  v1 = (abs(-3) * la(3))
  g3 = g0
  la(7) = 8
  la(9) = -1
  v0 = 8
  v0 = (la(1) / (5 + 8))
  g3 = mod(la(9), 4)
  IF (14 .EQ. g0) g0 = (v0 * g1)
  v0 = abs((-1 * g2))
END

SUBROUTINE proc1057(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = ((la(4) / (2 + la(4))) / (6 + -1))
  la(2) = (8 * -5)
  f0 = ((v1 + la(9)) - max(la(1), 7))
  f0 = la(6)
  PRINT *, 11
  v0 = (g3 - 11)
  PRINT *, 1
END

SUBROUTINE proc1058(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 2
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = (abs(6) * 7)
  g0 = (max(la(6), f0) - (-1 + 10))
  g1 = (g3 * -1)
  IF (.NOT. (abs(-3) .LE. (9 / (6 + la(1))))) THEN
    IF ((15 / (6 + -3)) .LT. -4 .OR. max(-3, 5) .EQ. v1) g1 = abs(la(2))
  ENDIF
  v0 = max(3, la(6))
  g2 = (max(1, g0) * 3)
  DO g3 = 2, 3
    v0 = mod(8, 4)
    DO g0 = 2, 5
      la(7) = -2
      g1 = (abs(v2) / (3 + la(3)))
    ENDDO
  ENDDO
  g3 = (g0 * -2)
END

SUBROUTINE proc1059(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(6) = la(6)
  IF (max(12, la(5)) .EQ. (0 * g0) .OR. (v0 - 5) .GE. abs(la(8))) v0 = (la(10) + 7)
  la(3) = 3
  g3 = max(v0, 13)
  g3 = (-1 - 15)
  la(9) = -4
END

SUBROUTINE proc1060(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, mod((14 + 5), 8)
  v0 = ((la(2) - la(5)) - -1)
  la(9) = (mod(3, 5) - -5)
  PRINT *, (-2 - mod(1, 2))
  PRINT *, v1
  v2 = 5
  v0 = f0
  PRINT *, (la(7) * la(10))
END

SUBROUTINE proc1061(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 8
  v2 = 0
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = 15
  IF (.NOT. (la(5) .LT. la(11))) v3 = mod(f0, 4)
  g1 = ((v1 + la(5)) / (2 + 10))
END

SUBROUTINE proc1062(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g3 = 1, 3
    v0 = 2
  ENDDO
  IF (.NOT. (7 .LT. (v1 - 15))) v0 = abs(la(11))
  IF (-3 .GT. la(8) .OR. (la(2) * la(7)) .LE. 7) THEN
    PRINT *, 7
    v1 = (3 + (0 * g3))
  ENDIF
  PRINT *, mod(-4, 5)
  g1 = 5
  DO g3 = 0, 1
    IF (6 .GT. (la(12) - la(5)) .OR. 7 .EQ. (g3 / (5 + 7))) THEN
      g2 = g2
    ELSE
      PRINT *, la(12)
      v1 = la(5)
    ENDIF
    la(12) = la(1)
  ENDDO
  g3 = g2
  DO v0 = 2, 3
    DO f0 = 1, 2
      g2 = ((-4 - la(4)) / (2 + 9))
      la(12) = max(g3, la(5))
    ENDDO
    v1 = f0
  ENDDO
  g1 = ((la(7) / (4 + -3)) + (9 * la(5)))
  IF (abs(11) .GE. -3 .AND. v0 .GE. (la(8) - -3)) THEN
    la(10) = mod(mod(la(3), 2), 7)
    la(7) = abs(la(11))
  ELSE
    f0 = (la(1) * v0)
  ENDIF
END

SUBROUTINE proc1063(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 7
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(la(10), -5) .GE. -4) v0 = g3
END

SUBROUTINE proc1064(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 12
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = 0
  IF (13 .LT. abs(la(10))) THEN
    g2 = abs((5 * -2))
  ENDIF
  f0 = g1
  f1 = (11 * 9)
END

SUBROUTINE proc1065(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 6
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = -1
  g2 = la(2)
  la(11) = abs(mod(0, 7))
  f0 = g3
  g2 = 4
  DO g2 = 1, 5
    la(5) = mod((v1 - v0), 6)
    f1 = 7
  ENDDO
  DO g1 = 3, 5
    IF (max(15, 8) .NE. abs(13)) THEN
      v0 = f1
    ELSE
      v0 = -3
      la(7) = mod(la(7), 3)
    ENDIF
    g0 = v2
  ENDDO
  v1 = ((11 + 6) / (5 + v2))
  g2 = (v0 / (6 + 1))
END

SUBROUTINE proc1066(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -4
  v2 = 6
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = la(10)
  g2 = max(v3, g3)
  IF ((g1 - g2) .LT. v1) THEN
    IF (.NOT. (g0 .GE. -1)) THEN
      v3 = (-4 - (g2 / (2 + g3)))
      IF (.NOT. (11 .EQ. max(v0, f0))) f0 = g0
    ENDIF
  ELSE
    PRINT *, mod(mod(-3, 5), 8)
  ENDIF
  v2 = mod(mod(v3, 7), 8)
  IF (3 .LE. -3) f0 = abs(g0)
  v3 = g0
  IF ((-3 - la(1)) .GT. g1 .OR. max(v0, la(8)) .GT. mod(7, 5)) THEN
    g2 = mod(abs(g0), 2)
  ELSE
    PRINT *, 1
  ENDIF
END

SUBROUTINE proc1067(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 11
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 1, 3
    g0 = (mod(-3, 2) * g0)
    v2 = la(10)
  ENDDO
  f0 = 6
  f0 = 1
  IF (.NOT. (f0 .NE. g0)) THEN
    PRINT *, mod(max(v2, la(10)), 5)
  ENDIF
  g2 = (14 / (3 + 14))
  IF ((v0 / (3 + 2)) .NE. abs(2)) g1 = g3
END

SUBROUTINE proc1068(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 0
  v2 = -2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g0 = 1, 4
    v2 = la(5)
  ENDDO
END

SUBROUTINE proc1069(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 6
  v2 = 13
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = max(g2, la(2))
  g1 = 9
  g1 = 7
  v3 = (7 * v1)
  la(10) = g0
END

SUBROUTINE proc1070(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 13
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = -1
  v2 = g3
  v0 = g2
END

SUBROUTINE proc1071(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g0 = 3, 5
    DO v1 = 0, 1
      PRINT *, abs(10)
      f0 = g2
    ENDDO
  ENDDO
  la(8) = la(7)
  f0 = max(4, -2)
  v0 = la(11)
  PRINT *, v0
  f0 = v0
  g1 = g2
END

SUBROUTINE proc1072(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 2
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g1 = 0, 2
    la(7) = v2
  ENDDO
  IF (mod(-1, 4) .LT. la(6) .AND. 14 .GE. f0) g2 = mod(v0, 4)
  g2 = la(4)
  f0 = (11 + mod(1, 7))
END

SUBROUTINE proc1073(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 4
  v2 = 5
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. ((la(7) - v3) .LE. (f0 + g2))) g1 = v1
  f0 = 0
  DO v2 = 3, 7
    v1 = g2
    IF (6 .GT. (3 * la(8)) .OR. (-4 - 3) .EQ. 10) THEN
      IF (max(la(2), v0) .LT. v2 .AND. abs(-4) .GT. la(5)) g2 = 15
    ELSE
      IF (3 .LT. 14) g2 = la(7)
      la(7) = 2
    ENDIF
  ENDDO
  v3 = (la(3) / (2 + f0))
  f0 = (max(13, 3) + (la(10) - la(2)))
  g1 = v0
  v3 = mod(g1, 2)
  g0 = 4
  v2 = g3
  f0 = ((-5 * la(11)) * g2)
END

SUBROUTINE proc1074(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 2, 4
    DO f0 = 3, 3
      PRINT *, mod(max(-5, f1), 6)
      g1 = 6
    ENDDO
  ENDDO
END

SUBROUTINE proc1075(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 0
  v2 = -4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((9 + la(8)) .NE. max(v0, 15)) v3 = abs(g0)
  g3 = max(g3, 7)
  f0 = 10
END

SUBROUTINE proc1076(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 13
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = la(9)
  v1 = 1
  IF (-4 .LE. mod(la(4), 2)) THEN
    v3 = abs((v2 - la(11)))
    IF ((7 * la(10)) .NE. g1) THEN
      v2 = abs(5)
    ELSE
      PRINT *, la(7)
      v1 = la(5)
    ENDIF
  ENDIF
END

SUBROUTINE proc1077(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 2
  IF ((-3 - v1) .NE. g1 .OR. -2 .LT. mod(la(12), 6)) g2 = g3
  g0 = ((0 / (4 + f0)) * la(8))
  IF (v1 .EQ. 13 .AND. (11 * 11) .GT. la(6)) THEN
    DO v0 = 2, 5
      g0 = (la(5) - la(10))
    ENDDO
    la(3) = max(la(2), g3)
  ENDIF
  PRINT *, (abs(13) / (5 + 5))
  IF (-4 .NE. 11 .AND. abs(la(7)) .GE. max(0, g3)) THEN
    IF (13 .EQ. 11) g0 = g2
  ELSE
    v0 = max(-1, -1)
    f0 = (11 / (4 + 6))
  ENDIF
  g0 = 11
END

SUBROUTINE proc1078(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 0
  v2 = 10
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (abs(11) .EQ. g2)) f0 = -4
  DO g1 = 2, 2
    IF (f1 .GT. 1) f0 = abs(13)
    f0 = la(10)
  ENDDO
  f1 = max(-4, 7)
  IF (.NOT. (f0 .LT. abs(5))) THEN
    g2 = la(12)
  ENDIF
  PRINT *, (la(12) - g1)
  f0 = f0
  IF (max(-5, la(2)) .LT. (g1 - la(11)) .OR. f0 .LE. 8) THEN
    la(8) = g1
    v1 = la(3)
  ELSE
    PRINT *, v0
  ENDIF
  f1 = (la(1) - (7 + la(5)))
  IF (.NOT. ((la(12) + 8) .EQ. 15)) g1 = -5
END

SUBROUTINE proc1079(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = la(7)
  PRINT *, -1
  v3 = (abs(2) - 7)
  la(3) = la(8)
  IF (f0 .LT. (g1 / (3 + -5)) .AND. 6 .GE. (-2 - la(7))) g3 = g3
  g2 = -4
  v1 = mod((v3 * 10), 2)
  la(12) = (-5 * g2)
  IF (15 .GE. -1) v0 = mod(g3, 3)
END

SUBROUTINE proc1080(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(7) = -5
  IF ((2 - 14) .NE. la(8) .OR. max(v1, la(9)) .LT. (9 - 3)) f0 = mod(-1, 3)
  IF ((11 - 8) .LE. v2 .OR. (4 * -4) .LE. mod(1, 7)) THEN
    PRINT *, ((la(6) * v1) - 8)
  ELSE
    g0 = (la(3) * 13)
    g3 = (v1 * la(8))
  ENDIF
  v2 = -3
  IF (.NOT. ((-5 / (6 + -2)) .NE. mod(-1, 8))) v2 = 11
  f0 = (7 - (la(12) - v2))
  DO v0 = 0, 4
    DO v2 = 0, 3
      g2 = 7
      g2 = (15 / (5 + la(6)))
    ENDDO
    la(1) = g2
  ENDDO
  la(3) = ((v1 - 7) - 6)
END

SUBROUTINE proc1081(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -1
  v2 = 8
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f0 = 2, 5
    la(11) = g1
  ENDDO
  PRINT *, mod((la(2) - -1), 8)
  DO v3 = 2, 4
    v0 = ((la(2) + 4) - (la(6) * v1))
  ENDDO
END

SUBROUTINE proc1082(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 3
  v0 = 15
  g2 = (12 / (3 + la(4)))
  PRINT *, 8
  la(1) = 0
  PRINT *, la(3)
  f0 = 9
  PRINT *, 12
  DO g3 = 0, 0
    v1 = g0
  ENDDO
END

SUBROUTINE proc1083(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((5 + 5) .LE. abs(2) .OR. (la(8) * la(1)) .LT. 5) THEN
    g3 = max(1, 2)
    DO f0 = 2, 6
      v2 = 2
    ENDDO
  ENDIF
END

SUBROUTINE proc1084(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -4
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = v1
  g0 = ((9 / (4 + 5)) * la(8))
  IF (.NOT. (abs(15) .LE. 3)) THEN
    la(9) = la(11)
    g3 = mod(-2, 8)
  ENDIF
  la(4) = v1
  PRINT *, (la(6) - (15 / (4 + la(9))))
  g3 = ((la(4) / (5 + 7)) * g1)
END

SUBROUTINE proc1085(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 7
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 0
END

SUBROUTINE proc1086(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = ((-5 + 6) - mod(g1, 5))
  g0 = v0
  la(3) = 3
  DO v1 = 1, 5
    v0 = g3
    f0 = abs((4 - g3))
  ENDDO
  g2 = (3 / (6 + g2))
  v1 = (-4 / (4 + -3))
  IF (max(6, 14) .NE. g1 .AND. 13 .LE. 9) THEN
    IF (.NOT. ((f0 / (5 + -5)) .NE. mod(7, 2))) THEN
      PRINT *, abs(f0)
      v0 = g1
    ENDIF
  ELSE
    PRINT *, abs((la(8) - 10))
    DO g3 = 3, 4
      v1 = 4
    ENDDO
  ENDIF
  la(12) = la(6)
  g0 = (max(-2, 6) + 11)
END

SUBROUTINE proc1087(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 7
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = mod(v2, 8)
  v0 = v0
  v1 = mod(g3, 2)
  IF (mod(g0, 6) .NE. f0 .AND. 2 .NE. v1) THEN
    g3 = ((la(8) / (4 + la(5))) / (2 + la(11)))
  ELSE
    IF ((0 - -4) .GT. (la(4) - g1) .OR. 0 .EQ. 7) THEN
      f0 = -3
    ELSE
      g0 = abs(-5)
    ENDIF
    la(7) = abs((11 - la(9)))
  ENDIF
  IF ((15 * g0) .NE. mod(14, 7) .AND. 3 .GT. (g1 / (3 + 7))) g2 = (g2 / (4 + 15))
  la(12) = 9
END

SUBROUTINE proc1088(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 7
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (6 * f0)
  v2 = max(-5, g3)
  la(7) = (v2 + (13 + la(11)))
  DO v0 = 2, 3
    g2 = ((11 / (5 + 5)) + g2)
  ENDDO
  DO g1 = 3, 4
    IF (.NOT. ((g2 - 9) .LE. v2)) g0 = (la(11) - la(2))
  ENDDO
  v1 = la(7)
  g0 = g3
  DO g1 = 3, 6
    DO v1 = 2, 6
      v2 = ((la(6) + 11) * g3)
      v0 = v2
    ENDDO
    v2 = g2
  ENDDO
  PRINT *, max(g2, -5)
  PRINT *, 0
END

SUBROUTINE proc1089(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = ((5 * la(7)) / (3 + la(12)))
  la(11) = (abs(v0) - (-1 * la(8)))
  IF (2 .NE. (10 - -2) .AND. (-4 + 6) .LT. (-5 * g1)) THEN
    v2 = -1
    IF (mod(f0, 6) .LE. 11 .OR. max(-2, la(1)) .EQ. max(13, la(3))) v3 = 11
  ENDIF
  v3 = 14
  g2 = 5
  g0 = la(2)
  v0 = mod(-2, 8)
  PRINT *, (-4 * -3)
END

SUBROUTINE proc1090(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = (5 / (6 + 5))
  IF (abs(la(7)) .GE. g2 .OR. mod(2, 6) .EQ. (11 / (2 + 7))) g2 = (7 / (6 + 13))
END

SUBROUTINE proc1091(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 6
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 1, 2
    IF (la(6) .EQ. (0 * la(3)) .AND. 9 .GE. f0) g0 = la(10)
  ENDDO
  v1 = mod(mod(g3, 7), 4)
  f0 = mod(abs(11), 4)
  IF (mod(g3, 6) .GE. v2 .OR. 7 .GT. (12 * 14)) f0 = mod(v0, 6)
  IF (.NOT. (9 .GT. (la(5) + la(10)))) THEN
    la(10) = mod(10, 8)
  ELSE
    v2 = mod(max(13, 10), 6)
    PRINT *, mod(2, 8)
  ENDIF
  g2 = v3
  g0 = 3
  g1 = 8
END

SUBROUTINE proc1092(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, v1
  v0 = la(6)
  v0 = 6
  f1 = la(1)
  IF (.NOT. (10 .GE. la(11))) THEN
    g2 = 3
    f0 = (-2 + la(2))
  ELSE
    f0 = (max(f1, 10) - (9 / (2 + 12)))
    v1 = abs((10 * 6))
  ENDIF
  la(10) = 10
  PRINT *, abs(mod(la(1), 3))
  IF (13 .LT. 4 .AND. la(11) .GT. (la(9) + -5)) THEN
    f0 = mod(7, 8)
    v0 = 1
  ENDIF
  la(5) = g1
END

SUBROUTINE proc1093(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = (la(10) - f1)
  v1 = (-3 * v0)
  la(11) = 1
  g1 = (max(0, 4) + max(g0, f0))
  f1 = abs(9)
  g0 = ((2 - la(11)) + (3 / (5 + 6)))
END

SUBROUTINE proc1094(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (la(10) .LT. v1)) THEN
    IF (11 .LT. la(7) .OR. la(5) .EQ. mod(8, 3)) g3 = max(la(5), 1)
    g3 = la(6)
  ENDIF
  la(6) = la(1)
  g3 = g2
  PRINT *, la(4)
  PRINT *, -4
  IF ((-1 / (3 + g1)) .LE. (la(5) / (4 + 4))) THEN
    PRINT *, ((9 + -4) - (la(8) + f0))
  ELSE
    IF (la(12) .LE. 12) THEN
      g1 = mod(mod(la(6), 2), 7)
    ELSE
      g2 = (g3 - max(v1, la(7)))
      v1 = abs(14)
    ENDIF
  ENDIF
  la(6) = la(9)
END

SUBROUTINE proc1095(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 3, 6
    la(3) = -1
    IF (8 .EQ. -5 .OR. la(7) .EQ. -1) g1 = mod(g2, 4)
  ENDDO
  g1 = mod(11, 5)
  g2 = -2
  g3 = la(6)
  g1 = la(8)
  v1 = la(12)
END

SUBROUTINE proc1096(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -2
  v2 = 7
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = mod(max(3, f0), 2)
  g1 = la(3)
END

SUBROUTINE proc1097(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = mod((6 - la(10)), 7)
  IF (v1 .EQ. 0 .OR. f0 .LT. v0) g3 = g1
  g2 = f0
END

SUBROUTINE proc1098(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 7
  v2 = 11
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v3 = 5
  v0 = 8
  IF (.NOT. (g0 .NE. 10)) THEN
    la(9) = mod(14, 5)
    PRINT *, la(3)
  ELSE
    IF (6 .GE. abs(14)) THEN
      g0 = mod(2, 6)
    ENDIF
  ENDIF
END

SUBROUTINE proc1099(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 9
  v2 = 8
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = mod(g1, 6)
  v2 = g3
  IF ((-4 - 5) .LE. -1) THEN
    g3 = (la(2) * 12)
  ELSE
    f0 = (max(11, 5) + 2)
  ENDIF
  v3 = max(la(10), -4)
  la(11) = 9
  la(6) = (abs(la(2)) / (5 + la(3)))
  la(9) = max(v0, 7)
END

SUBROUTINE proc1100(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 2
  v2 = 14
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g0 = 1, 2
    g1 = 12
    v1 = ((v3 + 12) - mod(13, 5))
  ENDDO
  IF (g0 .LT. (4 + 0)) g1 = la(6)
END

SUBROUTINE proc1101(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 0
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 5
  v0 = v0
  g2 = 2
  f0 = g0
  DO g3 = 0, 1
    v0 = la(5)
    v2 = ((la(9) * la(7)) - g3)
  ENDDO
  v1 = -1
  la(5) = la(1)
  g3 = f0
  g1 = -4
END

SUBROUTINE proc1102(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = max(la(12), 0)
  v1 = (mod(9, 4) - g2)
  IF (la(5) .GE. max(6, la(9))) f0 = 4
  PRINT *, max(11, f1)
  v0 = f1
  IF (.NOT. ((14 - f1) .GE. abs(12))) g1 = la(3)
  la(1) = (v0 + (-2 + f1))
  la(8) = 14
  DO v2 = 1, 5
    DO f0 = 2, 3
      g0 = 3
    ENDDO
  ENDDO
  g2 = la(1)
END

SUBROUTINE proc1103(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 10
  v2 = -2
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((7 * 3) .LT. 11 .AND. la(6) .LT. mod(g3, 6)) v2 = (0 / (6 + v3))
END

SUBROUTINE proc1104(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 0
  v2 = 12
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (14 .EQ. (1 + la(9))) THEN
    g1 = ((2 + 12) * 1)
  ENDIF
  v1 = -3
  la(10) = abs(la(5))
  DO v3 = 0, 0
    g2 = v3
    g1 = 8
  ENDDO
  DO v1 = 1, 1
    IF ((v1 / (2 + -1)) .LT. 7 .OR. (la(5) - la(7)) .GE. (0 * g0)) v3 = 11
  ENDDO
  la(9) = (max(5, 5) * la(4))
  DO g0 = 3, 4
    g1 = abs((10 * 3))
  ENDDO
END

SUBROUTINE proc1105(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 10
  v2 = 8
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (11 .GT. 3 .AND. 3 .EQ. max(2, 5)) v1 = (la(12) + 12)
  f1 = abs((-5 + g3))
  g3 = mod(la(8), 7)
  IF (.NOT. (f0 .GE. (g0 - la(1)))) v1 = 7
  g3 = (mod(v3, 4) + (9 / (2 + 1)))
  g3 = mod((la(1) + 8), 8)
  g3 = 13
  g2 = max(la(3), v2)
  IF ((la(11) / (3 + la(1))) .GE. abs(f0)) v0 = la(10)
END

SUBROUTINE proc1106(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. ((la(3) / (4 + 1)) .EQ. v1)) THEN
    IF (7 .LT. la(3) .AND. 11 .LE. 0) g3 = (la(11) + v1)
  ELSE
    la(2) = (g3 * 3)
  ENDIF
  g2 = 8
END

SUBROUTINE proc1107(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((5 * la(2)) / (3 + v0))
  f0 = ((v2 - 15) * 11)
  DO g2 = 3, 7
    la(12) = mod(la(1), 7)
    PRINT *, abs((la(6) * 12))
  ENDDO
END

SUBROUTINE proc1108(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((g2 / (4 + g2)) .LE. 6) THEN
    g3 = 14
    g0 = mod(v0, 8)
  ELSE
    v0 = 3
  ENDIF
  IF (.NOT. (-5 .LE. g3)) THEN
    f0 = la(10)
    v0 = mod((v0 + -5), 7)
  ENDIF
  la(4) = (abs(la(3)) - 3)
  IF ((12 / (2 + -2)) .GE. (15 - 10) .OR. (3 / (6 + 14)) .GE. g2) THEN
    la(4) = abs(f0)
  ENDIF
  PRINT *, abs((g2 - -4))
  la(11) = (la(7) + (la(8) * 3))
  la(10) = abs(g2)
  g2 = 13
  DO v0 = 3, 5
    DO g3 = 2, 2
      IF (max(v1, 4) .GT. (la(12) - 11)) v1 = (4 / (6 + g3))
      PRINT *, max(3, 14)
    ENDDO
  ENDDO
  v1 = 15
END

SUBROUTINE proc1109(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 11
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. ((g0 - la(8)) .GT. -2)) THEN
    v2 = ((-3 + 5) / (3 + 4))
    g1 = 2
  ENDIF
END

SUBROUTINE proc1110(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 11
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = mod(la(11), 6)
  la(1) = 7
  g0 = (g0 / (2 + 4))
  g1 = g3
  f0 = mod((7 - v2), 3)
  g0 = ((3 + -2) / (6 + 2))
  f0 = mod(8, 3)
  v2 = abs(-1)
  la(11) = la(11)
END

SUBROUTINE proc1111(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 2
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v0 = 1, 5
    DO v1 = 2, 5
      g0 = (g3 + max(g1, 11))
      g2 = max(9, g3)
    ENDDO
    g0 = max(-5, 9)
  ENDDO
  f0 = v0
  PRINT *, (max(15, -2) / (3 + la(2)))
  DO g3 = 2, 3
    g0 = mod((12 - v2), 2)
    g2 = 4
  ENDDO
  la(9) = ((-2 - 15) - 13)
  v1 = v2
  IF (.NOT. ((8 * la(12)) .GE. abs(la(7)))) THEN
    g0 = g1
  ENDIF
  la(2) = mod(-4, 3)
END

SUBROUTINE proc1112(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = la(8)
  g3 = (abs(12) + v0)
END

SUBROUTINE proc1113(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -4
  v2 = 9
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((-5 / (3 + la(4))) - g0)
  v2 = g2
  g3 = mod(abs(-3), 5)
  g3 = 10
  v0 = (10 - v2)
  la(4) = (12 * v3)
END

SUBROUTINE proc1114(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 14
  v2 = 13
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO f1 = 2, 4
    v3 = ((7 - la(4)) - (la(12) + 10))
    v0 = la(9)
  ENDDO
  PRINT *, (8 / (5 + v1))
  f0 = (max(14, -3) + max(g3, -5))
  g1 = (4 + 11)
  v2 = abs((la(12) * la(9)))
  g1 = f1
END

SUBROUTINE proc1115(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 14
  v2 = 1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = la(10)
  PRINT *, g3
  PRINT *, abs(f0)
  g2 = la(8)
  DO g2 = 1, 1
    IF (2 .LE. (3 * la(12)) .AND. mod(v1, 4) .NE. (2 + -3)) THEN
      v1 = f0
    ENDIF
  ENDDO
  DO g2 = 2, 6
    f0 = g0
  ENDDO
  g1 = 13
  v3 = max(4, 3)
  la(6) = ((la(2) + 7) / (2 + 10))
END

SUBROUTINE proc1116(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 11
  v2 = 10
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. ((v2 + la(10)) .LT. -2)) THEN
    IF (la(5) .LE. mod(10, 4) .OR. max(0, -5) .EQ. la(8)) THEN
      g2 = 13
      IF (v1 .NE. la(10)) g1 = la(1)
    ELSE
      IF (max(6, la(9)) .EQ. la(12)) g2 = mod(la(8), 5)
    ENDIF
    v3 = (la(10) - la(8))
  ENDIF
  v3 = 11
  g0 = ((11 - la(1)) - (8 - la(7)))
  IF (.NOT. ((5 + f1) .LT. 9)) THEN
    IF (6 .LE. (4 - la(8)) .AND. max(g1, -2) .LT. -1) g3 = (11 + 3)
  ELSE
    IF ((2 - 7) .GE. max(8, la(2))) f1 = 5
  ENDIF
  DO v3 = 1, 2
    g1 = f0
  ENDDO
END

SUBROUTINE proc1117(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = mod(-2, 8)
  g0 = (abs(f1) + (4 * 5))
  g2 = 2
END

SUBROUTINE proc1118(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -4
  v2 = 8
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(7) = abs((g3 + -4))
  DO g1 = 0, 4
    v0 = 9
    v0 = 10
  ENDDO
  f1 = (5 + 9)
  IF (la(7) .EQ. 8) THEN
    DO v0 = 3, 4
      g2 = max(v3, -2)
      v2 = max(g1, -1)
    ENDDO
    v1 = v2
  ELSE
    g1 = 15
  ENDIF
  IF (max(13, la(6)) .LE. (g3 - -3)) THEN
    DO g2 = 2, 5
      v1 = (mod(la(8), 4) - abs(14))
      la(1) = 13
    ENDDO
  ENDIF
  IF (.NOT. (abs(v1) .GT. (f0 / (5 + -2)))) THEN
    v0 = -2
  ELSE
    g0 = abs((-5 + 11))
  ENDIF
  g1 = ((f1 - 10) - mod(-3, 5))
  DO g3 = 1, 4
    g1 = la(11)
  ENDDO
  v2 = (la(9) * v3)
END

SUBROUTINE proc1119(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -4
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 2, 5
    g1 = 13
    f0 = (14 / (4 + g2))
  ENDDO
  la(2) = 4
  la(7) = g1
  IF (-2 .GE. (1 / (5 + -1))) f0 = la(1)
  g1 = f0
  la(2) = v0
  v3 = 3
  v0 = la(6)
END

SUBROUTINE proc1120(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, abs(5)
  f1 = (14 + la(2))
  PRINT *, max(f0, g0)
  g0 = (abs(la(9)) * la(8))
  g3 = -1
  v0 = (max(13, v1) / (6 + 3))
END

SUBROUTINE proc1121(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g0 = 3, 6
    g1 = ((5 - la(6)) * -4)
  ENDDO
  f1 = la(9)
  DO f0 = 1, 3
    v0 = ((la(10) / (3 + 5)) - -3)
    f1 = 7
  ENDDO
  IF ((f1 + 11) .NE. g2) g1 = mod(la(7), 4)
  IF (2 .LT. la(3) .AND. g1 .GT. mod(-3, 6)) f0 = 13
  PRINT *, ((14 + g1) + la(11))
  g0 = g0
  IF (g2 .LE. (2 * 4)) f1 = (la(4) + la(2))
  la(7) = la(12)
  PRINT *, (g3 - abs(la(10)))
END

SUBROUTINE proc1122(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 9
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(1) = abs(v1)
  v1 = mod(4, 8)
END

SUBROUTINE proc1123(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = 10
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (la(12) .EQ. 5 .OR. 12 .EQ. (-5 / (2 + v2))) g3 = g2
  IF (-5 .LE. (4 * la(8))) g2 = 14
END

SUBROUTINE proc1124(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = 0
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = ((12 * 14) * la(3))
END

SUBROUTINE proc1125(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -4
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, la(10)
  f0 = 10
  IF (v2 .LE. 5) f0 = (-4 + g0)
  IF (.NOT. (abs(la(9)) .NE. f0)) THEN
    g2 = (la(10) * 14)
  ELSE
    v1 = la(11)
    f1 = (-2 / (5 + la(5)))
  ENDIF
  v0 = -5
END

SUBROUTINE proc1126(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 13
  v2 = 4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v2 = 3, 6
    f0 = la(1)
    g3 = abs(g0)
  ENDDO
  DO v3 = 1, 3
    la(3) = v2
  ENDDO
  IF (v0 .EQ. (la(1) + la(11)) .AND. la(8) .NE. (g0 - 11)) g0 = (13 * 13)
  v2 = 0
  v3 = 9
  la(10) = mod(abs(7), 5)
  v1 = 1
END

SUBROUTINE proc1127(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -2
  v2 = 8
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((la(12) * la(8)) .EQ. 1) g0 = la(7)
  v3 = la(2)
  v2 = ((la(6) + 12) + f0)
  PRINT *, g0
  DO f0 = 1, 1
    g1 = g1
    v2 = abs((0 + g0))
  ENDDO
  DO g2 = 0, 4
    la(4) = mod(abs(g0), 3)
  ENDDO
END

SUBROUTINE proc1128(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = -3
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(2) = max(15, 4)
  g3 = v2
  la(3) = 10
  PRINT *, g1
  IF ((10 * v3) .GE. abs(-2) .AND. mod(14, 5) .GT. g1) THEN
    g3 = max(g0, la(9))
    v1 = (la(4) / (5 + v1))
  ENDIF
  IF (1 .GE. 12) g2 = 0
  IF (max(la(1), la(10)) .LT. max(-3, 0) .AND. g2 .EQ. 14) THEN
    g1 = la(12)
    v0 = v3
  ENDIF
  g1 = -2
  la(4) = -1
END

SUBROUTINE proc1129(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 6
  v2 = -1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = -5
  PRINT *, 8
  IF (.NOT. (mod(la(7), 5) .GT. (-3 - 5))) THEN
    PRINT *, 15
  ENDIF
  IF (mod(v1, 2) .NE. f0) THEN
    v3 = max(la(11), 13)
    v1 = la(5)
  ELSE
    v0 = (la(6) - (9 * 6))
    v3 = la(12)
  ENDIF
  IF (.NOT. (1 .NE. 7)) THEN
    IF ((f0 / (5 + la(2))) .LT. (10 / (5 + v3)) .OR. (8 / (3 + 0)) .LT. v3) THEN
      v0 = la(3)
    ELSE
      v1 = la(3)
    ENDIF
    v2 = la(10)
  ENDIF
  IF (la(3) .GE. (g2 * v3)) THEN
    g2 = 4
    la(7) = 10
  ELSE
    v3 = (v2 / (6 + la(6)))
  ENDIF
  f0 = max(-1, v2)
  v0 = la(7)
END

SUBROUTINE proc1130(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 8
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(4) = 1
  la(1) = 12
  IF (g0 .NE. (7 + g3) .AND. (-5 - g2) .NE. (g3 - 10)) THEN
    g0 = (max(14, la(3)) * la(5))
  ELSE
    v1 = f0
  ENDIF
END

SUBROUTINE proc1131(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = -2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = mod(8, 2)
  g3 = la(9)
END

SUBROUTINE proc1132(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 9
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((14 / (6 + la(7))) .NE. 8 .AND. 8 .LE. 2) g1 = (la(8) / (6 + -2))
END

SUBROUTINE proc1133(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = la(10)
  v1 = ((g3 + 7) / (4 + -5))
  g0 = 11
  g0 = 9
  v0 = -3
  f0 = 2
  DO f1 = 0, 4
    g1 = ((la(2) / (2 + 15)) / (4 + g1))
  ENDDO
  f0 = max(la(12), 12)
END

SUBROUTINE proc1134(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 7
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 1, 4
    g2 = g0
  ENDDO
  la(6) = 6
END

SUBROUTINE proc1135(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = (-4 * f0)
  IF ((-5 * 8) .GT. g3 .OR. max(g2, la(11)) .LT. max(2, 8)) THEN
    v0 = ((la(6) / (6 + la(4))) / (6 + f0))
    PRINT *, (la(1) - max(14, f1))
  ELSE
    f0 = la(10)
    g3 = 7
  ENDIF
  IF ((la(1) * 9) .LE. (0 / (3 + 15)) .OR. max(la(9), 8) .LT. la(8)) THEN
    g2 = f1
    g3 = -5
  ELSE
    f0 = g2
  ENDIF
  g0 = g3
  PRINT *, (v0 + (12 / (2 + f0)))
  f0 = mod((7 - 5), 5)
  PRINT *, la(2)
  g0 = abs((f0 - -3))
  PRINT *, (max(4, la(6)) + 15)
END

SUBROUTINE proc1136(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 3
  v2 = 8
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (mod(7, 5) .GE. abs(0) .OR. max(3, 8) .LT. g3) g1 = 9
END

SUBROUTINE proc1137(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 6
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = ((-5 + v1) - g2)
  v0 = mod(max(-4, 10), 3)
  PRINT *, (abs(v2) - g3)
  la(7) = 7
  g1 = (3 / (3 + f0))
  DO g2 = 2, 5
    IF (.NOT. (mod(-3, 5) .GE. la(4))) THEN
      g3 = ((-4 * la(12)) + (-5 + 8))
      v1 = v1
    ENDIF
  ENDDO
  v1 = v2
  g0 = la(1)
END

SUBROUTINE proc1138(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 13
  v2 = 8
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = 10
  DO g2 = 0, 1
    v0 = (max(la(9), g3) - max(la(5), g1))
    la(8) = (11 - (-1 - 6))
  ENDDO
  PRINT *, la(10)
END

SUBROUTINE proc1139(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 8
  v2 = 4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (max(1, 4) .LT. g2)) THEN
    IF (la(1) .GE. (la(8) * 3) .AND. 13 .LT. -5) v2 = mod(1, 5)
    IF (max(-3, 7) .EQ. (15 / (6 + -5)) .AND. 12 .NE. 1) v2 = (la(5) + 0)
  ELSE
    f1 = la(9)
    g1 = 11
  ENDIF
  v2 = (0 - (8 - la(7)))
END

SUBROUTINE proc1140(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (4 - 12)
  DO f0 = 0, 1
    IF (la(5) .NE. 4 .OR. abs(-5) .GE. (v0 / (4 + la(3)))) g2 = 7
    DO v2 = 1, 3
      PRINT *, (g3 / (2 + la(11)))
      g0 = (v1 / (5 + -5))
    ENDDO
  ENDDO
  IF (3 .LE. -2) THEN
    g0 = 1
  ELSE
    IF ((g0 * -1) .GE. -1 .AND. (10 - 1) .EQ. mod(la(8), 8)) g0 = 6
    IF (.NOT. (mod(g3, 8) .EQ. -1)) THEN
      g2 = -5
      f0 = ((v2 - -2) + (v1 + 12))
    ELSE
      la(12) = 11
      PRINT *, ((15 * -4) - (-2 / (5 + 5)))
    ENDIF
  ENDIF
END

SUBROUTINE proc1141(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = abs((11 - la(4)))
  IF (8 .LE. (6 - 3) .AND. mod(la(11), 7) .LT. -5) v1 = abs(f0)
  g3 = (mod(13, 8) * g1)
  g3 = g0
  g3 = 8
  v0 = -2
  g2 = abs(max(6, la(3)))
  v1 = ((4 * la(4)) * -4)
  DO v1 = 1, 1
    PRINT *, -5
    g0 = max(la(12), 6)
  ENDDO
END

SUBROUTINE proc1142(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (abs(-3) .LT. g0 .OR. (g0 * 6) .LE. (13 + v1)) THEN
    v1 = 9
    g2 = abs((11 / (4 + -1)))
  ELSE
    g0 = 10
  ENDIF
  DO v0 = 2, 4
    f0 = (la(3) / (3 + 2))
    IF (la(12) .GE. v1 .OR. g3 .GT. (-5 / (2 + 8))) THEN
      g3 = -2
      f0 = (la(7) / (3 + 10))
    ENDIF
  ENDDO
  g0 = la(6)
  PRINT *, (v0 + g2)
  g3 = g0
  PRINT *, -1
END

SUBROUTINE proc1143(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = ((6 * f0) * 9)
  IF (.NOT. (mod(f1, 7) .GT. (la(11) - 12))) v0 = max(la(12), -5)
  IF (.NOT. (mod(la(5), 6) .LT. 15)) THEN
    DO g1 = 2, 4
      la(3) = (3 + la(2))
      v1 = (f0 - 3)
    ENDDO
    IF (g2 .EQ. max(la(11), 1)) THEN
      PRINT *, mod(la(3), 3)
    ENDIF
  ELSE
    DO g0 = 0, 4
      IF (g3 .GE. max(-1, g3) .AND. abs(5) .EQ. 14) v1 = mod(la(10), 7)
    ENDDO
    g1 = mod((6 - 15), 8)
  ENDIF
  IF (12 .NE. abs(la(4))) THEN
    g3 = g0
  ELSE
    la(3) = (max(v0, 14) * la(8))
    IF (.NOT. (11 .GT. (12 + la(9)))) THEN
      g0 = g2
    ELSE
      la(11) = abs(abs(la(2)))
    ENDIF
  ENDIF
  g1 = ((g3 * la(9)) / (6 + -1))
  IF (.NOT. (0 .LT. la(7))) f1 = v0
  g1 = g1
  f1 = ((12 - 7) / (2 + 11))
END

SUBROUTINE proc1144(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 11
  v2 = 14
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, (3 / (6 + la(9)))
  DO g3 = 1, 3
    f0 = 0
    DO v0 = 1, 5
      f1 = (abs(f0) + (la(10) / (4 + la(4))))
      v1 = (abs(7) - 9)
    ENDDO
  ENDDO
  IF (13 .LT. v2 .AND. 9 .LT. (la(7) + la(8))) THEN
    v0 = 0
  ENDIF
  v3 = (abs(6) * la(1))
  la(2) = 0
  PRINT *, mod((11 * la(2)), 2)
END

SUBROUTINE proc1145(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 11
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (abs(la(8)) .EQ. 8) THEN
    v1 = ((14 / (2 + 10)) * la(3))
    IF (la(12) .GT. abs(la(9)) .AND. v2 .LE. abs(6)) g2 = max(13, 14)
  ENDIF
  g1 = ((8 / (2 + f0)) / (6 + la(12)))
  v0 = abs((g2 + v1))
  DO g0 = 2, 4
    PRINT *, la(8)
    DO v1 = 0, 4
      g1 = la(8)
      IF ((15 + 10) .LT. (la(12) * 11)) g2 = (v1 / (4 + -2))
    ENDDO
  ENDDO
  g3 = ((g3 / (4 + g1)) + max(-3, g0))
END

SUBROUTINE proc1146(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = 12
  IF (mod(14, 3) .NE. v0 .OR. (13 * g1) .NE. (g3 / (4 + g3))) g1 = (0 / (3 + 5))
  f0 = g2
  DO f0 = 3, 3
    DO v1 = 2, 5
      g2 = -3
      f1 = v0
    ENDDO
  ENDDO
  g1 = -5
  g3 = (abs(13) + abs(la(8)))
  IF (.NOT. (11 .GE. (v0 / (5 + 9)))) THEN
    f0 = g3
  ENDIF
END

SUBROUTINE proc1147(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v0 = 2, 3
    g0 = mod((6 + 2), 3)
  ENDDO
  g1 = f1
  IF (la(7) .GT. la(6) .AND. la(2) .GE. mod(9, 2)) THEN
    la(7) = (max(g0, la(2)) / (6 + v1))
  ENDIF
  f0 = (-1 / (5 + v1))
  v1 = la(1)
  DO v0 = 1, 5
    g1 = max(5, 15)
    g1 = (-4 + (3 - 6))
  ENDDO
  IF ((f0 - g3) .NE. (9 - 6) .AND. la(9) .GT. (-5 * 4)) THEN
    g2 = (max(g0, -2) + (v1 - la(4)))
    la(7) = ((-3 * 9) / (3 + -5))
  ELSE
    IF (abs(f1) .LE. (-4 - la(9))) g1 = 12
    PRINT *, ((8 * f0) - -2)
  ENDIF
  IF (max(0, 15) .LT. (12 * 8) .AND. g2 .GE. max(g3, 9)) THEN
    f1 = (mod(12, 8) - la(7))
  ELSE
    DO g0 = 1, 5
      la(10) = f0
    ENDDO
    g3 = la(11)
  ENDIF
  DO g1 = 2, 2
    la(1) = max(10, 13)
  ENDDO
END

SUBROUTINE proc1148(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (11 .LE. -3 .OR. mod(v0, 7) .NE. (13 * 14)) f0 = abs(f0)
  la(1) = 13
END

SUBROUTINE proc1149(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = g1
  la(5) = mod((la(1) / (5 + 8)), 2)
  g2 = (0 / (6 + 12))
  g1 = mod((13 - g3), 7)
  PRINT *, ((la(2) + 15) / (5 + -4))
  la(11) = ((g1 + g0) / (6 + 6))
  g0 = -3
  la(10) = (7 * la(1))
  PRINT *, mod(f0, 2)
END

SUBROUTINE proc1150(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = (max(0, v2) / (2 + -5))
END

SUBROUTINE proc1151(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 4
  v2 = 8
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (9 .GE. max(10, 1)) THEN
    la(5) = (la(11) / (5 + -1))
    v3 = (abs(la(7)) + (g2 / (5 + la(5))))
  ENDIF
  la(6) = -5
  g2 = 2
  DO v2 = 2, 3
    DO f0 = 1, 3
      g1 = g1
      g3 = max(-2, 13)
    ENDDO
  ENDDO
  la(4) = -3
  f0 = la(7)
  g2 = mod((la(2) * la(8)), 5)
  IF (max(la(10), la(12)) .GE. abs(-1) .AND. (-3 * la(6)) .GE. g1) f0 = -1
  IF (6 .EQ. g2) g2 = (v3 / (6 + -5))
  PRINT *, max(12, 8)
END

SUBROUTINE proc1152(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(1) = f0
  PRINT *, f0
  v1 = la(1)
END

SUBROUTINE proc1153(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 1
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = abs(la(9))
  v1 = abs(g0)
  v0 = ((la(11) + la(8)) - 1)
END

SUBROUTINE proc1154(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 8
  v2 = 7
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = abs(14)
  v3 = 0
  g3 = 2
  la(3) = la(4)
END

SUBROUTINE proc1155(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 8
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(9) = abs(f1)
  IF (la(7) .EQ. mod(la(11), 4)) g3 = f1
  DO f1 = 2, 6
    DO g2 = 3, 5
      g3 = max(6, la(12))
      PRINT *, max(g1, la(11))
    ENDDO
  ENDDO
  g3 = abs((la(4) * 12))
  g0 = (10 / (6 + 5))
END

SUBROUTINE proc1156(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 10
  g1 = abs((2 - -5))
  IF (g1 .EQ. mod(v0, 8) .OR. -2 .NE. g2) f1 = g3
  DO g0 = 0, 1
    la(4) = (15 - (v2 + v2))
  ENDDO
END

SUBROUTINE proc1157(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 11
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(9)
  v0 = mod(13, 5)
  v0 = ((g0 + -2) + abs(g2))
  la(10) = (12 / (6 + 14))
  g1 = mod(max(15, 2), 3)
  v0 = g1
  g3 = 5
END

SUBROUTINE proc1158(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 13
  g3 = max(la(10), 2)
  PRINT *, 0
  v0 = la(2)
  PRINT *, 9
  DO g2 = 2, 2
    g0 = v1
    IF (.NOT. (max(g3, g1) .GT. (14 / (6 + la(1))))) THEN
      f0 = ((v2 / (4 + v2)) - (9 - la(1)))
      la(1) = (3 / (4 + 5))
    ELSE
      la(5) = mod(g2, 2)
    ENDIF
  ENDDO
  g3 = (la(1) + (g2 / (5 + la(11))))
  g2 = g1
END

SUBROUTINE proc1159(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = 1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = max(la(12), v0)
  g3 = la(1)
  la(4) = mod(v0, 5)
  IF (-4 .EQ. max(la(8), 6) .AND. -1 .EQ. (0 * 5)) v3 = 12
  v0 = (mod(3, 7) * la(2))
  PRINT *, (15 - v2)
  v0 = mod(mod(f1, 6), 4)
  g2 = (v2 * la(5))
END

SUBROUTINE proc1160(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 9
  v2 = -4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = mod(13, 8)
  v3 = la(8)
  g0 = 15
  IF (.NOT. (max(6, v0) .GT. -2)) f0 = (5 * 7)
  g1 = f0
  la(10) = 10
  IF (.NOT. (10 .NE. (15 - 14))) v0 = 11
END

SUBROUTINE proc1161(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 9
  v2 = 1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = mod(14, 3)
  g1 = -2
  g2 = (13 * 2)
  la(11) = f1
  PRINT *, f0
END

SUBROUTINE proc1162(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(7) = g3
  g3 = v0
  g1 = (la(3) / (6 + la(9)))
  v0 = 8
  la(4) = (-5 + (g0 * 14))
  g2 = la(11)
  PRINT *, 5
  DO g1 = 1, 2
    v0 = la(7)
    la(9) = -5
  ENDDO
  DO g0 = 3, 6
    v1 = v1
    DO g2 = 2, 3
      v0 = -3
      PRINT *, mod((13 / (4 + 12)), 4)
    ENDDO
  ENDDO
END

SUBROUTINE proc1163(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (15 .LT. (la(5) * -2))) THEN
    PRINT *, (max(g2, -1) * la(7))
  ELSE
    DO g3 = 2, 5
      g2 = max(10, v1)
    ENDDO
  ENDIF
  v0 = mod(mod(11, 7), 3)
  IF (.NOT. ((6 - la(1)) .LE. (la(2) + 0))) v0 = g3
  PRINT *, la(11)
  la(11) = g2
  IF ((g3 / (5 + 15)) .EQ. g2 .AND. la(2) .LT. (-1 + 11)) g1 = abs(10)
  g1 = (g0 * -5)
  v1 = abs(la(4))
  IF (15 .EQ. g1 .AND. la(5) .NE. la(10)) g2 = max(8, 7)
END

SUBROUTINE proc1164(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = (la(8) - (-1 * 13))
  la(1) = abs(max(la(2), 5))
  IF (f0 .GT. (la(3) - g0) .AND. (1 + la(7)) .GE. abs(10)) THEN
    g0 = abs(g2)
    PRINT *, abs(la(9))
  ENDIF
  v1 = (la(10) - (15 + la(3)))
END

SUBROUTINE proc1165(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = -2
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (f1 .EQ. 2) THEN
    g2 = (la(2) / (2 + v1))
  ENDIF
  PRINT *, 11
  f0 = mod(f0, 7)
END

SUBROUTINE proc1166(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 14
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g3 = 3, 5
    PRINT *, (14 + max(v2, g2))
  ENDDO
  DO v0 = 2, 3
    DO f0 = 3, 7
      v2 = abs(la(12))
      PRINT *, max(g2, 6)
    ENDDO
  ENDDO
  PRINT *, v2
  DO g3 = 3, 5
    IF (.NOT. (mod(la(7), 6) .NE. g0)) v2 = (la(9) * -4)
    IF (-4 .GT. 11) THEN
      v2 = -1
      la(5) = f1
    ENDIF
  ENDDO
  DO g3 = 2, 2
    f1 = abs(11)
    IF (mod(-3, 8) .LE. max(la(11), 11) .AND. abs(g3) .NE. (g2 / (6 + la(8)))) THEN
      f1 = max(g2, la(1))
    ELSE
      g0 = (la(4) / (6 + la(1)))
      f0 = ((la(12) - la(7)) / (2 + la(9)))
    ENDIF
  ENDDO
  IF (max(14, 12) .GT. la(3)) THEN
    IF ((v1 * 2) .EQ. la(9) .AND. 6 .EQ. (-4 - g1)) v1 = (1 / (2 + v2))
    f1 = max(f0, v1)
  ELSE
    PRINT *, abs((la(6) * la(5)))
  ENDIF
  g2 = (g3 * -3)
  IF (v2 .GE. 9 .OR. la(7) .NE. max(la(1), f1)) g2 = max(f0, la(12))
  IF (mod(-4, 2) .GE. mod(0, 6)) f0 = v2
  g3 = (f0 + (la(8) / (4 + 15)))
END

SUBROUTINE proc1167(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 6
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = mod(0, 7)
  la(6) = (abs(v0) - abs(la(12)))
  v3 = 6
  v1 = -4
  f1 = la(12)
  g2 = 8
  f1 = ((la(7) + la(7)) / (4 + 14))
  DO g2 = 1, 3
    f0 = (-4 + max(la(5), la(7)))
    f1 = la(7)
  ENDDO
  g0 = (la(7) + la(4))
END

SUBROUTINE proc1168(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = 6
  PRINT *, max(11, la(7))
  v1 = (-5 - abs(10))
  g2 = 6
  f0 = (la(3) + mod(la(10), 8))
  v0 = 14
  DO v0 = 2, 4
    f0 = max(-5, g1)
  ENDDO
  g1 = abs((12 - 0))
END

SUBROUTINE proc1169(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 3
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = -2
END

SUBROUTINE proc1170(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = la(4)
  f0 = la(12)
  g3 = abs((la(7) - -2))
END

SUBROUTINE proc1171(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = g0
  IF (.NOT. (la(3) .LE. (v3 * la(10)))) THEN
    v0 = max(la(12), la(2))
    g2 = v3
  ENDIF
  v1 = mod(mod(13, 8), 4)
  PRINT *, 10
  IF (.NOT. (mod(1, 3) .LT. mod(g0, 6))) g1 = 10
  v3 = mod((v1 / (6 + 0)), 8)
  PRINT *, (abs(13) - mod(8, 4))
  IF (4 .EQ. la(3) .AND. abs(g1) .LE. (v1 - 3)) g3 = max(g2, 1)
  la(4) = 11
END

SUBROUTINE proc1172(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((-5 + -1) .GT. (7 + 1) .OR. (4 + g1) .GT. 10) f1 = mod(la(4), 2)
  IF (max(9, f1) .EQ. (5 + 7) .OR. mod(g1, 8) .GT. -2) g0 = v1
  PRINT *, abs(g2)
  la(8) = g3
  g1 = mod(-2, 6)
  PRINT *, (mod(11, 7) / (5 + 5))
  g3 = -2
  DO g1 = 0, 0
    IF (mod(la(8), 7) .LE. max(la(9), 12)) g3 = max(la(10), 4)
    f0 = v0
  ENDDO
END

SUBROUTINE proc1173(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = (13 - -2)
  PRINT *, f1
  la(6) = -1
  IF (f0 .LT. mod(3, 3) .OR. (v1 * la(9)) .GT. (g3 + la(3))) g0 = (4 + -1)
  IF (.NOT. (-1 .GE. (8 * g2))) THEN
    g1 = ((5 - 2) / (4 + 2))
  ENDIF
  g3 = f0
  IF (-1 .EQ. mod(1, 8) .AND. (3 + la(1)) .GE. max(6, v1)) THEN
    DO f1 = 1, 3
      g1 = 0
    ENDDO
    DO f1 = 1, 1
      f0 = -4
    ENDDO
  ENDIF
END

SUBROUTINE proc1174(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, f0
  f1 = (abs(13) / (5 + 13))
  DO f1 = 1, 5
    la(12) = g1
  ENDDO
  v0 = (3 * 10)
END

SUBROUTINE proc1175(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 9
  v2 = 3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = ((la(4) + la(7)) / (5 + f0))
  v3 = 11
END

SUBROUTINE proc1176(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = -2
  la(8) = la(12)
  DO g1 = 2, 5
    g2 = abs(v1)
    g0 = la(4)
  ENDDO
  v1 = abs(4)
  g0 = (max(-2, la(11)) / (5 + 2))
  DO g1 = 1, 5
    PRINT *, (mod(13, 3) / (3 + -3))
    DO g3 = 2, 4
      PRINT *, abs(1)
      f0 = -4
    ENDDO
  ENDDO
  g0 = 4
  la(1) = (2 - mod(-2, 3))
  v1 = max(g0, -1)
END

SUBROUTINE proc1177(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 7
  v2 = 4
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g0 = 3, 3
    v0 = mod((g1 + -4), 4)
  ENDDO
END

SUBROUTINE proc1178(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 2, 2
    IF ((-4 - -2) .LE. la(3) .OR. la(9) .NE. (1 - 1)) THEN
      v1 = max(7, g3)
      PRINT *, la(11)
    ENDIF
  ENDDO
  g2 = ((la(6) - 12) + abs(la(11)))
  DO v1 = 2, 2
    f0 = (g0 + 0)
  ENDDO
END

SUBROUTINE proc1179(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g3 = 3, 3
    IF ((la(11) * g3) .NE. abs(-4) .OR. (la(6) + f1) .NE. (la(6) + -5)) THEN
      g0 = 4
      v1 = -2
    ELSE
      PRINT *, mod(mod(g1, 5), 8)
      PRINT *, la(6)
    ENDIF
    g1 = mod((-2 + 5), 2)
  ENDDO
  g3 = (3 - 8)
  v0 = max(la(10), la(12))
  la(4) = (g3 * la(11))
  g2 = 12
  g2 = (2 - 5)
  g0 = (mod(la(10), 6) - -4)
  v1 = (la(2) / (2 + f1))
END

SUBROUTINE proc1180(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 10
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(7) = v2
END

SUBROUTINE proc1181(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = (max(g0, g0) * 7)
END

SUBROUTINE proc1182(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 5
  v2 = 14
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(10) = 10
  IF (max(f1, 13) .GT. 6) THEN
    v2 = (la(11) + (la(12) * g0))
    v3 = (abs(la(10)) * la(12))
  ENDIF
  v3 = mod(-4, 4)
  PRINT *, 7
  v0 = (la(6) - (2 * f1))
  v2 = 1
  IF (.NOT. (la(1) .EQ. 1)) THEN
    IF (-4 .LE. 7 .OR. max(-2, g0) .NE. la(5)) THEN
      la(9) = abs(v2)
      PRINT *, ((la(4) + la(10)) + mod(g2, 8))
    ELSE
      la(1) = 8
      g0 = la(8)
    ENDIF
    g0 = (la(1) - la(12))
  ENDIF
  la(5) = mod(g2, 6)
END

SUBROUTINE proc1183(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = ((g3 + -2) + la(11))
  DO g0 = 0, 2
    IF (max(10, 5) .GT. (la(5) - -1)) g2 = (la(4) + 6)
  ENDDO
  IF (13 .GE. (g2 - 2) .OR. la(1) .GE. abs(14)) THEN
    g3 = max(g3, 15)
    g2 = (abs(5) * g1)
  ELSE
    la(1) = g3
    PRINT *, mod((-1 - g1), 4)
  ENDIF
  IF (abs(la(2)) .EQ. (la(2) + v1) .OR. (g0 + la(1)) .EQ. (10 * 15)) THEN
    g1 = v0
    PRINT *, (la(10) - f0)
  ELSE
    v0 = 14
  ENDIF
  IF (.NOT. (f1 .NE. 0)) f0 = abs(la(6))
  f1 = mod((7 + la(8)), 8)
  g3 = ((10 - 3) + 13)
  f1 = 2
END

SUBROUTINE proc1184(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 9
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (8 .EQ. g0 .AND. 8 .LT. (3 + la(4))) THEN
    PRINT *, g1
  ENDIF
  PRINT *, abs((la(3) / (5 + v2)))
  g1 = mod(mod(0, 6), 2)
  g1 = 4
END

SUBROUTINE proc1185(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = v0
  IF (la(12) .LE. (2 + -2)) THEN
    IF (mod(la(11), 3) .NE. (g2 - la(5)) .OR. mod(g0, 4) .LE. (3 / (2 + la(12)))) g1 = la(1)
    PRINT *, -4
  ENDIF
  g3 = -2
  g0 = -1
  g3 = 10
  g3 = la(2)
  g1 = (v1 - g3)
  IF (max(f0, g3) .NE. -5 .AND. 10 .GT. abs(2)) v1 = 13
  IF ((11 - la(8)) .EQ. (5 - la(10)) .OR. g2 .LT. g2) THEN
    DO g1 = 0, 4
      PRINT *, 15
      g2 = (8 - 4)
    ENDDO
    la(6) = -2
  ELSE
    DO g2 = 0, 4
      v1 = la(11)
      IF ((-2 - 9) .LT. la(1) .OR. (la(4) * 14) .EQ. la(1)) g1 = mod(la(12), 8)
    ENDDO
    PRINT *, ((la(2) / (6 + la(8))) + mod(la(10), 2))
  ENDIF
  DO g0 = 1, 4
    DO g1 = 0, 2
      v0 = mod(abs(la(2)), 8)
      g2 = (mod(15, 3) * 14)
    ENDDO
  ENDDO
END

SUBROUTINE proc1186(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = (g1 - (-3 * v1))
END

SUBROUTINE proc1187(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 12
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = 1
  g3 = v2
  DO v1 = 1, 1
    IF (v1 .LE. max(8, -5) .OR. (la(9) / (3 + la(2))) .NE. max(6, 4)) THEN
      v0 = g2
    ENDIF
    la(9) = max(14, 9)
  ENDDO
  la(11) = abs(la(5))
  la(12) = -1
  IF (.NOT. ((g0 * -4) .EQ. 5)) g3 = 6
  la(11) = g3
  DO g1 = 1, 3
    v1 = v2
    g3 = (4 - abs(15))
  ENDDO
  IF (la(2) .NE. (9 + la(11)) .AND. (14 - la(8)) .EQ. la(5)) THEN
    v1 = abs((6 + 15))
  ENDIF
END

SUBROUTINE proc1188(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -4
  v2 = 7
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = la(6)
  v1 = max(15, 1)
  la(7) = mod(max(8, -3), 5)
  IF (.NOT. (3 .GE. max(la(10), la(2)))) THEN
    v0 = max(la(2), f0)
    g3 = mod((2 - 9), 5)
  ENDIF
  g3 = la(8)
  v0 = 14
  g3 = ((-2 * 7) + (4 * 10))
  PRINT *, max(la(8), la(9))
  DO v0 = 2, 3
    IF (15 .LE. (11 / (3 + 4)) .OR. (7 + la(6)) .GE. max(-2, 3)) THEN
      v3 = la(12)
      f0 = g0
    ELSE
      g3 = (10 * g1)
    ENDIF
  ENDDO
END

SUBROUTINE proc1189(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, abs((g2 * v0))
END

SUBROUTINE proc1190(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(3) = 3
  g3 = (-2 / (2 + -3))
  v0 = (15 / (4 + la(8)))
  g3 = max(la(4), 5)
  IF (.NOT. ((la(3) + 14) .NE. max(la(11), -1))) v1 = la(11)
  IF (max(7, la(5)) .EQ. 4) THEN
    v1 = mod(g0, 8)
    g1 = 1
  ENDIF
  DO g2 = 0, 1
    IF (.NOT. ((2 - 8) .LE. abs(12))) g1 = abs(la(1))
  ENDDO
  IF (.NOT. ((14 * g2) .EQ. max(-2, 10))) THEN
    la(11) = g2
  ENDIF
END

SUBROUTINE proc1191(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = ((6 + -1) * f0)
  DO f1 = 3, 6
    DO v0 = 2, 2
      g3 = ((11 * v1) / (2 + la(6)))
      PRINT *, (g1 - v0)
    ENDDO
    v0 = -4
  ENDDO
  PRINT *, la(6)
  f1 = (la(1) + mod(13, 5))
  f1 = (g1 + (4 + 11))
END

SUBROUTINE proc1192(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = la(3)
  IF (abs(v1) .LT. (5 - la(6)) .AND. 8 .GT. -3) THEN
    IF (.NOT. (la(11) .GE. abs(la(5)))) f0 = abs(3)
  ENDIF
  IF (mod(la(3), 8) .NE. la(4)) v1 = (la(4) - -3)
  la(2) = g3
  PRINT *, mod(3, 3)
  IF (g3 .GE. (f0 - la(4))) THEN
    g2 = (la(1) * g2)
  ELSE
    g2 = (7 - 4)
    PRINT *, la(11)
  ENDIF
  IF (.NOT. ((14 - f0) .LE. -4)) g2 = (15 - 7)
  la(8) = 15
  IF (3 .GT. (3 - la(8))) f1 = mod(11, 8)
  IF (abs(15) .LE. (13 + la(10))) f0 = 5
END

SUBROUTINE proc1193(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 9
  v2 = -1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = (-1 - -5)
END

SUBROUTINE proc1194(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = mod(max(la(7), la(8)), 6)
  IF (la(3) .LE. mod(la(8), 8) .OR. abs(13) .LT. mod(0, 7)) v0 = (-3 - 10)
  f1 = 1
  DO v1 = 3, 7
    IF ((la(10) * 2) .LT. (1 - 1) .OR. abs(la(7)) .GE. f0) THEN
      IF ((g3 - la(10)) .GT. 9 .AND. abs(f1) .EQ. mod(-5, 4)) f1 = v1
      la(10) = (mod(g1, 7) / (6 + la(12)))
    ENDIF
    la(4) = la(6)
  ENDDO
  PRINT *, 11
  f1 = (la(4) * -5)
  g0 = (mod(v0, 7) + (-5 + 12))
  g2 = max(la(7), 4)
  g3 = 4
END

SUBROUTINE proc1195(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 0
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = mod(0, 8)
  IF (.NOT. (15 .LT. la(12))) f0 = (v2 / (3 + 9))
  DO f0 = 2, 2
    IF (.NOT. (f1 .EQ. (la(4) * 7))) THEN
      PRINT *, f1
      f1 = ((g3 * la(3)) * -4)
    ENDIF
  ENDDO
END

SUBROUTINE proc1196(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -3
  v2 = 13
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((-3 - 12) .LE. la(4) .AND. g1 .GE. mod(la(11), 4)) THEN
    g3 = -5
    IF (13 .GT. (la(5) * 12) .AND. (g0 * 14) .GE. abs(-1)) THEN
      f0 = (la(8) - v3)
      v0 = (abs(g1) + 9)
    ELSE
      f0 = (max(la(3), la(10)) + abs(f0))
    ENDIF
  ELSE
    v2 = la(6)
  ENDIF
  IF (mod(la(5), 8) .EQ. abs(la(8))) v0 = la(2)
  f0 = 3
  DO v0 = 2, 3
    g3 = ((-3 - v3) / (2 + la(2)))
    v2 = max(8, v1)
  ENDDO
  IF ((g3 / (6 + la(11))) .LE. mod(7, 6) .OR. (-1 / (4 + g2)) .GE. la(2)) g2 = g1
  g1 = g1
END

SUBROUTINE proc1197(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (8 .GT. 9)) g0 = la(11)
  la(11) = la(2)
  g3 = (-1 * la(4))
END

SUBROUTINE proc1198(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 0
  v2 = 5
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = la(5)
  g1 = mod(7, 8)
  g0 = 3
END

SUBROUTINE proc1199(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -1
  v2 = -2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(6) = g1
  v0 = (mod(15, 3) + (1 / (3 + la(1))))
END

SUBROUTINE proc1200(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 3
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = la(9)
  PRINT *, la(6)
  g0 = 2
  la(2) = ((10 * 5) * 14)
  v1 = -4
  la(2) = 13
  PRINT *, -3
END

SUBROUTINE proc1201(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 11
  v2 = 0
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (-1 / (5 + 13))
  IF (mod(-1, 5) .EQ. g3 .AND. g1 .GE. la(11)) THEN
    DO f0 = 1, 4
      la(8) = ((f0 * la(5)) * -1)
      g3 = -4
    ENDDO
    g1 = (v2 * g0)
  ELSE
    PRINT *, la(2)
  ENDIF
  g2 = v0
  f0 = f0
END

SUBROUTINE proc1202(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 7
  la(10) = (la(1) + (6 - la(12)))
  v1 = -4
  f0 = 7
  PRINT *, -5
  g0 = 3
  la(2) = (v0 + g0)
  f0 = la(2)
END

SUBROUTINE proc1203(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v0 = 1, 2
    f1 = v0
    f1 = max(g1, 8)
  ENDDO
  DO g2 = 0, 3
    la(1) = (max(v1, -1) - g1)
    v0 = 4
  ENDDO
  la(5) = ((la(1) - f1) - 11)
  DO v0 = 0, 1
    g3 = (mod(g1, 5) - (f1 + 3))
    g0 = g2
  ENDDO
  IF (abs(3) .GE. mod(12, 2) .OR. -4 .LT. (v1 / (3 + g2))) THEN
    v0 = ((-5 * 12) + 0)
    g2 = g3
  ENDIF
  g2 = 6
  PRINT *, ((8 / (4 + 6)) + (v0 + v1))
END

SUBROUTINE proc1204(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 14
  v2 = 11
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = la(11)
  f0 = (11 * la(5))
END

SUBROUTINE proc1205(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 8
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(11) = (-5 - -1)
  IF ((la(9) + 11) .GT. abs(0)) THEN
    la(6) = 8
    PRINT *, f0
  ELSE
    PRINT *, abs(11)
  ENDIF
  v1 = max(g0, v1)
  v2 = abs(-5)
  PRINT *, la(7)
  IF (5 .LE. max(f0, f0) .OR. (la(5) + la(11)) .LT. (g1 * 1)) v1 = (g1 * v2)
  g2 = ((g2 * f1) / (2 + la(12)))
  IF (12 .LT. max(15, v1) .AND. max(-4, v0) .EQ. max(10, 5)) THEN
    IF ((la(12) + 12) .GT. la(10) .OR. (15 * 12) .LE. g3) g3 = (14 - 1)
  ELSE
    DO g3 = 3, 7
      v2 = max(v2, 11)
      v2 = (la(4) * 7)
    ENDDO
    v1 = 1
  ENDIF
  f1 = 8
END

SUBROUTINE proc1206(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(5) = mod((-4 * 7), 8)
END

SUBROUTINE proc1207(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 8
  v2 = -2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = 6
  v2 = (-3 + 10)
END

SUBROUTINE proc1208(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -1
  v2 = -1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((g3 + 7) .NE. 2 .AND. la(12) .LE. 10) THEN
    g2 = la(3)
  ENDIF
  g1 = mod(mod(9, 2), 6)
  IF (la(6) .LT. (v1 - 12) .OR. mod(10, 4) .LT. v1) THEN
    PRINT *, max(v0, 12)
  ELSE
    g0 = ((v1 / (5 + 13)) - abs(14))
  ENDIF
  la(7) = max(3, 8)
  g1 = abs((-5 / (5 + v1)))
  IF ((v1 / (2 + g2)) .GE. v0 .AND. la(12) .NE. g1) THEN
    v3 = ((5 + v2) / (6 + la(2)))
  ENDIF
  IF (5 .NE. 6 .AND. 12 .LT. la(6)) v0 = max(la(11), 1)
  DO g1 = 1, 2
    IF ((-2 + -3) .NE. max(g1, la(4)) .AND. la(2) .LE. max(13, -3)) THEN
      v0 = g0
    ENDIF
  ENDDO
END

SUBROUTINE proc1209(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 14
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 15
  g0 = mod(mod(-3, 5), 4)
  g0 = 8
  v2 = 2
  f0 = 14
  g0 = max(la(2), -2)
  v0 = ((la(10) * 13) - max(la(10), v2))
  f0 = v1
  IF (9 .GE. abs(-4) .AND. (v2 + la(2)) .EQ. (10 * 7)) f0 = (f0 + 3)
  IF ((-3 * 0) .LE. (10 * 3) .AND. max(g3, la(9)) .EQ. (f1 / (6 + 10))) THEN
    la(10) = -4
  ENDIF
END

SUBROUTINE proc1210(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -3
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = la(5)
  g1 = la(9)
  f1 = 15
  la(7) = mod(v0, 3)
  v0 = (-5 * f0)
  g2 = (abs(v0) * la(7))
  IF (10 .EQ. 8 .AND. max(v2, -4) .LT. (-4 + 6)) f1 = g1
END

SUBROUTINE proc1211(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -2
  v2 = 11
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, max(6, v2)
  f0 = la(2)
  v3 = v1
  IF ((la(10) * 2) .NE. la(9) .AND. (g0 + -3) .EQ. mod(la(10), 8)) THEN
    PRINT *, 0
    f0 = max(0, -4)
  ELSE
    v2 = (g3 + 6)
  ENDIF
  PRINT *, (4 / (4 + f0))
  IF (7 .GT. v3) THEN
    v2 = la(6)
  ELSE
    DO v2 = 0, 3
      f0 = -3
    ENDDO
    v3 = 5
  ENDIF
END

SUBROUTINE proc1212(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 4
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = (abs(0) * v2)
  v1 = (3 * v2)
  f0 = f0
  DO v0 = 2, 4
    v2 = f0
  ENDDO
  la(9) = max(2, 14)
  la(11) = ((v2 / (6 + 9)) + v1)
  g0 = g2
END

SUBROUTINE proc1213(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 6
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = mod((la(1) - f0), 7)
  g0 = ((la(2) / (6 + la(3))) * g3)
  f0 = -4
  PRINT *, -1
  g0 = la(1)
  PRINT *, -4
  IF ((la(11) / (4 + 11)) .LT. -4 .OR. 14 .LT. f1) g2 = g2
  IF (-2 .GT. (la(12) / (4 + g2))) THEN
    DO f1 = 0, 3
      v1 = mod(-4, 8)
      v1 = f1
    ENDDO
  ELSE
    g3 = 8
  ENDIF
END

SUBROUTINE proc1214(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 12
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = abs(v2)
END

SUBROUTINE proc1215(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 8
  v2 = 2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = max(v2, la(12))
  v0 = 15
  v2 = ((v2 / (5 + la(12))) - (la(5) + 11))
  IF ((la(12) - v2) .EQ. abs(-1) .OR. (15 + la(5)) .LE. 3) THEN
    PRINT *, 9
  ELSE
    PRINT *, abs(g3)
    v1 = f1
  ENDIF
  g2 = (la(5) / (4 + -2))
  f1 = 15
END

SUBROUTINE proc1216(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 11
  v2 = 8
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = v2
  f0 = -2
  v3 = v3
  v0 = g2
  v3 = la(1)
  la(12) = 4
  IF (.NOT. ((la(8) - la(6)) .GE. -1)) THEN
    DO g0 = 3, 4
      g3 = v2
      v3 = 5
    ENDDO
    IF (1 .EQ. (-3 * 8) .OR. (la(1) / (2 + la(7))) .NE. abs(g0)) v3 = max(v0, -2)
  ELSE
    IF (la(6) .NE. (3 + la(8)) .AND. mod(0, 5) .GE. 8) g2 = la(2)
  ENDIF
END

SUBROUTINE proc1217(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (f0 + mod(la(9), 6))
  la(7) = (max(v1, la(10)) - 8)
  IF (max(v0, g3) .LT. 1) THEN
    g3 = v0
    la(11) = mod(5, 3)
  ENDIF
  PRINT *, (g2 / (6 + 9))
  f0 = (mod(-2, 3) - (-3 + f1))
END

SUBROUTINE proc1218(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, -4
  v0 = abs(v1)
END

SUBROUTINE proc1219(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((g2 - f0) .GE. 6) THEN
    la(2) = 2
    v0 = la(2)
  ELSE
    g1 = 6
    DO g1 = 0, 0
      g3 = 13
      f0 = mod(la(2), 5)
    ENDDO
  ENDIF
  g2 = 3
  g3 = abs(10)
END

SUBROUTINE proc1220(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 12
  v2 = 11
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-1 .LE. -1) v2 = 2
  DO v3 = 3, 5
    PRINT *, (15 + -1)
    IF (15 .LE. la(11)) THEN
      f0 = la(5)
      la(11) = la(7)
    ELSE
      v1 = mod((5 + 0), 6)
    ENDIF
  ENDDO
  f1 = la(3)
  IF ((-4 * f0) .NE. (12 / (5 + la(10))) .AND. la(10) .LT. max(8, g2)) THEN
    g3 = -3
  ELSE
    la(10) = g0
    g1 = v0
  ENDIF
  IF (mod(7, 5) .EQ. (2 / (6 + la(9))) .OR. max(-4, 9) .LT. 10) THEN
    f0 = la(5)
    v0 = mod(la(3), 3)
  ENDIF
  g1 = (max(-1, la(1)) / (4 + la(1)))
  DO g0 = 1, 2
    PRINT *, 0
  ENDDO
  PRINT *, abs(max(f0, 1))
  v1 = g3
  g3 = (f1 + (6 * la(3)))
END

SUBROUTINE proc1221(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 10
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, mod(la(9), 2)
  PRINT *, (8 - (14 / (3 + la(4))))
  IF (abs(la(8)) .LE. (3 - v0)) THEN
    DO v0 = 0, 1
      la(5) = la(5)
    ENDDO
  ELSE
    la(1) = la(12)
    v1 = ((g1 - la(7)) + (g2 * 15))
  ENDIF
  IF (.NOT. (abs(10) .LT. (v1 * g0))) v2 = la(2)
  v2 = mod(0, 5)
  PRINT *, -5
  la(11) = abs((la(12) * 12))
  IF (.NOT. (mod(v1, 2) .EQ. (-5 + v1))) THEN
    v0 = (14 / (3 + -1))
    v0 = 4
  ENDIF
END

SUBROUTINE proc1222(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 9
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = (8 / (6 + la(1)))
END

SUBROUTINE proc1223(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 10
  v2 = 0
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = -3
  PRINT *, 0
END

SUBROUTINE proc1224(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 4
  v2 = 11
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v3 = la(4)
  v1 = f0
  DO g2 = 0, 1
    la(12) = la(7)
  ENDDO
  v1 = 3
  v2 = g2
END

SUBROUTINE proc1225(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (f0 .LE. 4 .OR. 4 .GT. (12 * la(10))) THEN
    PRINT *, f0
  ELSE
    PRINT *, g3
    g3 = la(7)
  ENDIF
  g1 = ((la(10) / (5 + g3)) / (6 + la(2)))
  IF ((g0 + v0) .EQ. max(12, -5)) v1 = la(9)
  g0 = 4
  g1 = 0
END

SUBROUTINE proc1226(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = la(1)
  IF (.NOT. (mod(g0, 4) .NE. (la(7) / (4 + -4)))) THEN
    PRINT *, 7
    PRINT *, g2
  ELSE
    PRINT *, la(10)
    g2 = mod(15, 6)
  ENDIF
  la(1) = la(12)
  DO f0 = 2, 3
    g0 = (la(11) + (la(4) - 13))
    PRINT *, (la(2) * 8)
  ENDDO
  g0 = 11
END

SUBROUTINE proc1227(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((3 / (4 + la(3))) + mod(3, 7))
  g1 = (la(2) / (5 + g3))
  g3 = f1
  IF (.NOT. (-5 .LE. f0)) THEN
    v1 = abs(abs(-2))
  ENDIF
  PRINT *, max(la(12), 9)
  IF ((11 - la(3)) .LT. (6 / (4 + v1))) f0 = 3
  v0 = -2
  f0 = (5 / (3 + 13))
END

SUBROUTINE proc1228(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = mod(la(12), 7)
  g0 = 4
  f0 = (abs(la(1)) / (6 + 7))
END

SUBROUTINE proc1229(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = 14
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((8 - -2) .GE. 8 .AND. max(12, la(3)) .NE. (10 + 3)) THEN
    DO g3 = 0, 0
      v2 = la(4)
      g1 = abs(f1)
    ENDDO
    v1 = 11
  ELSE
    v1 = mod(15, 6)
    IF ((8 - 13) .GE. 0 .OR. -1 .LE. la(1)) f1 = max(0, 2)
  ENDIF
  PRINT *, 14
  g3 = -4
END

SUBROUTINE proc1230(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (v0 - 4)
  v2 = (g3 / (6 + g3))
  g3 = v2
  v1 = 1
  PRINT *, -3
  DO v2 = 0, 3
    DO v1 = 0, 4
      g2 = abs((11 / (6 + v2)))
      g2 = max(v2, 5)
    ENDDO
  ENDDO
  v2 = -5
  g2 = max(5, -5)
  g2 = 8
  IF ((g1 - 1) .GE. g3 .OR. la(1) .GE. 2) THEN
    v2 = mod(v1, 4)
  ENDIF
END

SUBROUTINE proc1231(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 0, 1
    IF (.NOT. ((1 / (2 + -1)) .GT. la(6))) THEN
      v0 = (max(-3, 14) + (v1 * 3))
    ELSE
      f1 = 3
    ENDIF
  ENDDO
  la(2) = ((f1 + -1) / (6 + 0))
  IF ((la(7) - 0) .NE. mod(3, 4) .OR. (la(5) - -3) .NE. 13) v0 = la(3)
  g0 = la(2)
  g0 = 3
  g2 = la(2)
  g1 = la(1)
END

SUBROUTINE proc1232(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = 4
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = -5
  IF ((8 / (6 + -4)) .NE. la(4) .OR. (la(6) / (5 + la(9))) .GE. max(v0, -1)) THEN
    v2 = (11 * la(3))
    v2 = (7 + la(6))
  ELSE
    v0 = ((6 * 13) - g3)
    v2 = g1
  ENDIF
  v2 = (v1 - g1)
  PRINT *, -4
END

SUBROUTINE proc1233(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 4
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = 5
  f0 = (v1 + 2)
  g1 = f0
  v2 = max(la(6), 1)
  g3 = la(6)
END

SUBROUTINE proc1234(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 10
  v2 = 4
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, f0
  IF (.NOT. ((g0 * -3) .GE. la(12))) v2 = abs(13)
  la(5) = g0
  g1 = -3
  DO g0 = 2, 6
    PRINT *, 1
    DO v0 = 0, 0
      IF (max(la(5), v3) .LE. (v1 * v3) .OR. (la(9) - g3) .NE. mod(-1, 7)) v1 = (la(7) * v3)
    ENDDO
  ENDDO
  v0 = la(11)
  v2 = g1
  v2 = la(7)
  g3 = 5
  v1 = f1
END

SUBROUTINE proc1235(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = ((-1 / (5 + la(3))) - 7)
  IF ((6 - -3) .LT. g0 .OR. 6 .LE. abs(la(6))) g3 = la(4)
  g1 = (mod(la(4), 2) - 14)
  la(12) = -5
  g0 = la(10)
  g1 = (max(12, 4) * 1)
  DO g3 = 1, 3
    PRINT *, mod((g0 + g0), 5)
  ENDDO
  v0 = 14
END

SUBROUTINE proc1236(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -3
  v2 = -1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((3 / (6 + 10)) .LT. la(5) .OR. la(9) .LE. la(12)) THEN
    g0 = la(4)
    IF (abs(f0) .LT. la(2) .AND. -1 .GE. abs(la(8))) THEN
      v3 = 11
      la(12) = ((0 * g2) * g1)
    ENDIF
  ELSE
    g1 = g1
  ENDIF
  IF (f0 .LE. v0 .AND. -3 .LT. mod(v0, 8)) THEN
    v3 = 9
    f0 = (abs(-5) / (4 + 13))
  ENDIF
END

SUBROUTINE proc1237(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(10) = 8
  g3 = 6
  la(10) = 3
  PRINT *, ((-5 - 8) / (6 + la(6)))
  f0 = (v0 * -5)
  f1 = -5
END

SUBROUTINE proc1238(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 9
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = g2
  IF (g2 .GE. (la(11) - v1) .AND. (13 / (4 + 7)) .NE. (-5 / (4 + g1))) THEN
    g0 = (-5 * v0)
  ELSE
    DO f0 = 0, 3
      g0 = (12 - max(4, v1))
    ENDDO
  ENDIF
  IF (7 .GT. v0 .AND. mod(g2, 6) .NE. (la(1) - g1)) THEN
    IF (7 .LE. la(4) .AND. (la(10) - v2) .LT. (-5 * la(7))) g1 = abs(g0)
  ENDIF
  DO g2 = 3, 4
    v1 = mod(max(f0, la(11)), 3)
  ENDDO
  IF (max(8, la(4)) .GT. mod(13, 4) .OR. max(1, g2) .LE. 13) THEN
    PRINT *, 9
  ELSE
    g3 = (13 / (2 + 0))
    IF ((g3 - la(4)) .GT. max(g3, g0) .AND. (la(9) / (2 + 3)) .GE. v1) f0 = max(v0, 0)
  ENDIF
  IF (9 .NE. (8 * 2) .OR. (-5 - la(9)) .NE. g0) THEN
    DO v2 = 1, 1
      la(3) = 1
      PRINT *, abs(mod(1, 4))
    ENDDO
  ENDIF
  PRINT *, la(7)
  v0 = (mod(g2, 7) / (5 + la(5)))
END

SUBROUTINE proc1239(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 2, 3
    DO v1 = 3, 7
      IF (mod(la(5), 3) .EQ. v1) f0 = g1
      f0 = ((la(6) - 4) - f0)
    ENDDO
  ENDDO
  v0 = abs(7)
  g2 = v0
  DO v0 = 2, 3
    PRINT *, v0
  ENDDO
  g0 = 9
  IF ((v1 * 8) .GE. 15 .OR. (13 * -4) .LT. abs(10)) THEN
    g1 = (mod(-1, 4) + (3 + la(10)))
  ENDIF
  IF (v1 .EQ. (12 - la(9)) .OR. 5 .NE. -4) THEN
    g0 = abs((la(1) + 2))
  ELSE
    g2 = (7 / (3 + la(3)))
  ENDIF
  g0 = (g3 - (g1 + 14))
  g2 = 11
  g2 = ((la(8) - 5) / (2 + 5))
END

SUBROUTINE proc1240(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 0
  v2 = 6
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = (f0 / (2 + la(1)))
  IF (g3 .EQ. la(1) .AND. (la(12) + -1) .LT. (6 - 13)) v3 = (v3 / (3 + g2))
  v0 = 0
  v0 = 12
  IF (6 .EQ. (-5 * la(8))) v0 = 2
  IF (5 .GT. mod(9, 8) .AND. la(9) .GE. (la(11) - g1)) v3 = 0
  IF (3 .NE. 1 .AND. (g2 * g0) .GE. f0) f1 = la(5)
  IF ((la(9) / (5 + la(10))) .GE. la(9) .OR. (la(7) / (3 + la(6))) .LE. f1) v2 = 8
END

SUBROUTINE proc1241(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = ((12 - f1) - v1)
  g2 = ((2 * 11) / (4 + -2))
  la(6) = abs(-4)
  IF (8 .LT. (la(11) * 12) .AND. max(-3, 4) .GT. (g3 / (3 + g1))) THEN
    v1 = la(7)
    PRINT *, mod(abs(13), 6)
  ENDIF
  DO g3 = 1, 4
    la(3) = mod((1 / (3 + 10)), 4)
  ENDDO
  la(6) = (4 * g0)
  g3 = mod(v0, 2)
END

SUBROUTINE proc1242(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 5
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((15 + -4) .NE. 2 .AND. la(8) .EQ. abs(2)) v2 = (la(12) * -1)
  IF (.NOT. (mod(-1, 5) .NE. (5 / (3 + la(1))))) THEN
    g0 = f1
    la(3) = (f1 + (3 - la(3)))
  ELSE
    v2 = 6
  ENDIF
  la(2) = abs(la(8))
END

SUBROUTINE proc1243(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 9
  v2 = 9
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (v0 - v2)
  IF (5 .GE. (la(9) / (6 + la(8))) .AND. mod(-2, 4) .LE. (6 + la(9))) THEN
    IF (7 .LT. v1 .AND. la(12) .LT. 2) v3 = (1 + 2)
  ELSE
    g1 = ((5 / (4 + -1)) + 5)
    IF (la(2) .GT. (5 + g1)) v0 = v3
  ENDIF
END

SUBROUTINE proc1244(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 13
  v2 = 12
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = la(4)
  DO v0 = 3, 7
    IF (v3 .NE. la(11) .OR. (-2 + g2) .LE. -2) THEN
      PRINT *, 15
    ELSE
      IF (la(3) .GT. v2 .OR. (la(5) / (2 + g2)) .EQ. 5) v2 = (la(9) * -3)
    ENDIF
    g2 = g0
  ENDDO
END

SUBROUTINE proc1245(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(6) = mod((la(9) * f1), 7)
  f0 = (abs(11) * g1)
  v2 = ((la(2) - 11) / (6 + g2))
  v2 = (6 / (6 + v0))
END

SUBROUTINE proc1246(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 14
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(3) = f0
  PRINT *, abs((f0 / (5 + la(12))))
  g3 = la(6)
  v1 = v2
  f1 = (v0 - g2)
  la(1) = ((la(11) + v2) - (v3 + 13))
  IF (.NOT. (g1 .EQ. (-2 / (4 + -4)))) THEN
    DO g2 = 2, 6
      v1 = max(13, la(8))
    ENDDO
  ELSE
    g2 = 12
  ENDIF
  IF (abs(la(9)) .GE. g1 .OR. 13 .EQ. mod(-3, 6)) v0 = (11 + la(5))
  IF (.NOT. (13 .LE. 15)) g0 = abs(-4)
END

SUBROUTINE proc1247(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = -1
  IF (f0 .LE. abs(3) .AND. (la(11) + v2) .GT. (v0 - 15)) THEN
    g3 = (-3 - (la(8) + f0))
  ELSE
    DO g3 = 1, 3
      v2 = la(10)
      v1 = 3
    ENDDO
    f0 = ((10 / (6 + -2)) / (5 + -3))
  ENDIF
  PRINT *, -3
  PRINT *, (10 * 13)
  DO g2 = 2, 5
    g3 = ((-1 + 11) / (3 + g2))
  ENDDO
  g0 = 5
END

SUBROUTINE proc1248(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 7
  v2 = 6
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(5) = g2
  IF (.NOT. (abs(v0) .EQ. (3 * v1))) THEN
    g3 = ((12 - 10) + (la(8) / (2 + 8)))
  ENDIF
  v0 = (max(1, -4) * la(11))
  f0 = la(9)
  v2 = -4
END

SUBROUTINE proc1249(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 3
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 9
END

SUBROUTINE proc1250(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = 11
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = ((v1 + 2) / (4 + 11))
  v3 = max(-2, 10)
  f0 = (0 / (4 + la(10)))
  f1 = 0
END

SUBROUTINE proc1251(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = mod(la(12), 4)
  IF (5 .NE. abs(la(2)) .AND. (-4 / (2 + la(12))) .GT. abs(la(10))) THEN
    g0 = 14
  ENDIF
  la(11) = mod(abs(v0), 3)
  DO v0 = 3, 6
    g1 = 3
  ENDDO
  la(3) = 9
END

SUBROUTINE proc1252(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(12) = 14
  IF (mod(-4, 8) .EQ. 15 .AND. 13 .LE. 14) THEN
    IF (.NOT. (la(9) .LE. 4)) g0 = g0
    PRINT *, ((la(10) + 12) / (4 + 3))
  ENDIF
  la(8) = ((13 / (2 + 13)) / (5 + la(8)))
  DO g0 = 0, 1
    g2 = la(8)
  ENDDO
  v0 = 9
  f0 = mod(13, 4)
  IF (la(2) .LE. -1) g2 = la(4)
  v2 = ((14 + 10) / (6 + g2))
  IF (.NOT. (v1 .LE. (11 * la(10)))) THEN
    la(7) = 13
  ENDIF
  g2 = max(la(8), 13)
END

SUBROUTINE proc1253(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = g2
  g3 = mod(-4, 3)
  IF (max(f0, la(10)) .LT. (la(1) * la(6)) .AND. (f0 - la(11)) .EQ. (la(5) + f1)) f0 = g0
END

SUBROUTINE proc1254(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = g1
  v1 = g0
  v1 = f0
  f1 = v0
  g0 = mod(abs(la(8)), 5)
  f1 = abs(abs(-1))
  g1 = abs((g0 + 8))
END

SUBROUTINE proc1255(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -3
  v2 = -3
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = la(12)
  v3 = 0
  g1 = 1
  v3 = g1
  g2 = mod(max(1, g2), 2)
  g2 = (-1 / (4 + 4))
END

SUBROUTINE proc1256(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 1
  v0 = la(11)
  la(3) = abs(mod(4, 4))
  g2 = la(2)
  g0 = max(7, f1)
  IF ((13 / (4 + 0)) .GE. (-3 / (6 + 10))) v2 = mod(f1, 7)
  g3 = max(2, la(8))
  IF (la(7) .GT. (la(6) * 12) .AND. (9 / (2 + -3)) .NE. max(la(8), 3)) g2 = (g2 * la(8))
  v0 = 4
END

SUBROUTINE proc1257(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = abs((6 - la(12)))
  v1 = 0
  la(2) = v0
  g0 = la(2)
  DO v1 = 1, 1
    g0 = v1
    f0 = (4 - la(1))
  ENDDO
  DO g3 = 0, 2
    IF ((-3 + v1) .LE. (12 - la(8))) THEN
      PRINT *, mod(0, 4)
    ENDIF
  ENDDO
  PRINT *, f0
END

SUBROUTINE proc1258(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 2
  v2 = 14
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, max(v0, v1)
END

SUBROUTINE proc1259(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 8
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = max(-2, 0)
  IF (9 .LT. 3) g2 = (5 * v2)
  la(8) = g3
  g1 = -2
  v2 = abs(max(-2, 1))
  DO v0 = 0, 4
    IF (abs(g3) .EQ. 0) THEN
      v3 = ((v0 + 11) - -5)
    ENDIF
  ENDDO
  v2 = max(11, 6)
  la(4) = abs((12 + la(12)))
END

SUBROUTINE proc1260(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 5
  v2 = 6
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = v2
  DO f1 = 3, 7
    v2 = max(v3, v1)
  ENDDO
  g3 = g3
END

SUBROUTINE proc1261(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 4
  v2 = 7
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, ((2 + g1) + (g1 / (5 + la(9))))
  DO v1 = 0, 4
    g2 = max(-3, f1)
    IF (mod(la(9), 7) .LT. la(2)) f1 = (v3 * v2)
  ENDDO
END

SUBROUTINE proc1262(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 4
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 5
  g2 = abs((-3 - -4))
  g1 = max(-2, g0)
  g3 = mod((g1 - -2), 2)
END

SUBROUTINE proc1263(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 13
  PRINT *, (max(la(12), la(2)) + (g0 - g1))
  la(4) = (mod(la(12), 7) * v2)
  IF (-1 .NE. (la(1) - g0) .OR. abs(la(11)) .LE. la(8)) v2 = mod(14, 7)
  g0 = mod(mod(la(1), 7), 7)
  g3 = 3
  IF (.NOT. (g2 .LT. f1)) g1 = mod(la(9), 6)
  g1 = g0
END

SUBROUTINE proc1264(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (la(9) / (6 + g1))
  IF (.NOT. (abs(g3) .NE. g0)) g3 = (la(8) / (3 + v2))
  DO g3 = 1, 5
    DO g1 = 3, 4
      v2 = -2
      v2 = (15 - (la(3) - 0))
    ENDDO
    g0 = f0
  ENDDO
  IF ((6 * 5) .LT. mod(7, 2) .OR. (la(12) / (5 + g2)) .LT. (13 - 6)) g3 = (la(8) - 7)
  f0 = (abs(8) / (3 + 10))
  v2 = (la(4) / (5 + f0))
  v1 = ((8 + -2) + 7)
  v2 = max(-1, -5)
  g1 = (la(2) * 1)
  v0 = (v1 - abs(13))
END

SUBROUTINE proc1265(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 1
  v2 = 13
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = -5
  f0 = abs((10 - 9))
  PRINT *, 3
  DO v2 = 0, 0
    PRINT *, (-4 * 5)
  ENDDO
  g3 = max(g2, 8)
  PRINT *, -2
  f1 = (-4 * 15)
  IF (g2 .LT. (la(2) - la(11)) .OR. abs(la(6)) .GT. -1) THEN
    DO g0 = 2, 4
      IF (f0 .NE. abs(v0)) f0 = 13
    ENDDO
  ELSE
    f1 = ((0 * 10) + (la(3) / (5 + v0)))
    DO f1 = 0, 2
      f0 = v1
    ENDDO
  ENDIF
END

SUBROUTINE proc1266(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((7 - 2) .GE. (7 - f0) .AND. 11 .LT. (-4 / (3 + 14))) THEN
    IF (la(3) .EQ. -2) f0 = -3
  ELSE
    IF (la(11) .LT. -2) f0 = (v1 * 1)
    f0 = la(10)
  ENDIF
  g3 = (4 + (g3 * la(2)))
  v0 = 1
  v1 = 11
  IF (mod(1, 6) .GE. la(1) .OR. 3 .GE. -5) THEN
    g1 = 1
    la(1) = la(4)
  ELSE
    v1 = ((g2 - -1) + (la(6) + -4))
    g1 = abs(14)
  ENDIF
  PRINT *, la(3)
  IF (g0 .GT. g0 .OR. (1 * -2) .EQ. (-5 + 6)) THEN
    v0 = max(v1, la(1))
    IF (abs(-1) .GE. (f0 * -5) .OR. (6 + g0) .LE. (6 / (2 + la(1)))) THEN
      g0 = max(la(8), 12)
    ENDIF
  ENDIF
  g3 = 4
  g3 = v0
  f0 = (max(la(6), 0) * 6)
END

SUBROUTINE proc1267(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -3
  v2 = 11
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 3, 4
    f0 = -4
    g3 = la(9)
  ENDDO
  f1 = v0
  f0 = max(f0, 4)
  g2 = mod(max(v0, -5), 4)
  v2 = mod(la(5), 4)
  v0 = (mod(9, 8) - la(10))
  v1 = g3
  PRINT *, (mod(g3, 2) / (4 + la(5)))
  v0 = la(1)
  IF (la(12) .LE. (la(4) + g2)) THEN
    IF (.NOT. (la(4) .LE. 5)) g3 = (f1 + g2)
    PRINT *, max(-5, f1)
  ELSE
    v0 = (v0 / (3 + f1))
  ENDIF
END

SUBROUTINE proc1268(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = (0 / (5 + 14))
  IF (14 .NE. abs(6) .AND. (la(8) / (2 + v1)) .EQ. v0) THEN
    IF (max(la(4), -1) .EQ. 14) f0 = (la(3) + la(3))
    IF (la(6) .EQ. g3 .AND. 14 .GT. -4) v1 = f0
  ENDIF
END

SUBROUTINE proc1269(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 2
  v2 = 13
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = (la(1) + 1)
  IF (15 .LE. la(5) .OR. (la(8) + 9) .LT. la(10)) THEN
    g2 = ((g1 - la(9)) * la(8))
  ENDIF
  DO v0 = 0, 4
    DO v3 = 1, 1
      g2 = abs(8)
    ENDDO
  ENDDO
END

SUBROUTINE proc1270(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 8
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = 11
END

SUBROUTINE proc1271(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -1
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = (la(7) / (2 + 9))
  DO g0 = 0, 3
    f0 = (abs(la(5)) - (v0 + v0))
    f0 = abs((la(3) * 0))
  ENDDO
END

SUBROUTINE proc1272(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (-4 .GE. g1 .AND. f1 .LE. la(10)) g1 = v0
  la(10) = (3 + -3)
  la(3) = mod((v2 * -3), 3)
END

SUBROUTINE proc1273(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = f0
  IF (max(2, 0) .LE. 7 .OR. la(2) .GT. la(6)) g3 = (v1 - v0)
  v0 = -5
  DO g0 = 3, 3
    IF ((g3 / (6 + 7)) .NE. (-1 / (2 + g1)) .AND. mod(15, 2) .EQ. la(10)) g2 = (13 - 0)
    v1 = 2
  ENDDO
END

SUBROUTINE proc1274(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g0 = 0, 0
    IF (.NOT. (10 .EQ. (15 - v0))) THEN
      IF (.NOT. ((la(4) / (5 + 10)) .GE. mod(4, 4))) f1 = la(10)
      g2 = max(-3, la(6))
    ELSE
      f1 = la(4)
    ENDIF
  ENDDO
END

SUBROUTINE proc1275(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (mod(2, 4) - 5)
  g0 = (g3 + abs(8))
  v1 = (max(4, la(12)) - la(2))
  v1 = mod((la(9) / (3 + f0)), 3)
  g1 = la(8)
  PRINT *, (1 * g3)
  v0 = abs((la(3) + 12))
  g3 = g0
  g1 = la(2)
END

SUBROUTINE proc1276(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (f1 / (2 + g1))
  DO g0 = 1, 2
    g2 = 1
  ENDDO
  DO g2 = 0, 1
    DO g0 = 2, 6
      IF ((f0 + g2) .NE. (la(5) + -4) .AND. 1 .GE. 1) v0 = max(f1, g3)
    ENDDO
    IF (6 .NE. la(10) .OR. 13 .GE. abs(-4)) v1 = -2
  ENDDO
  PRINT *, ((8 - v0) / (6 + la(7)))
  IF (.NOT. (mod(2, 2) .NE. (9 + -1))) g1 = v0
  g3 = mod(la(12), 8)
  g0 = (max(la(11), 1) * la(1))
  f0 = la(1)
END

SUBROUTINE proc1277(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(8, 8) .GT. la(2) .AND. la(2) .EQ. -5) THEN
    v2 = v0
  ENDIF
  PRINT *, g2
  g1 = 7
  IF (.NOT. ((-1 / (4 + -4)) .EQ. 0)) THEN
    g1 = 15
  ELSE
    DO g3 = 2, 3
      PRINT *, 9
      IF (3 .GE. v2) g1 = 10
    ENDDO
  ENDIF
  PRINT *, 3
  DO v2 = 0, 1
    g2 = la(6)
    g1 = abs(max(g1, -4))
  ENDDO
  PRINT *, abs(la(5))
  IF ((g3 * g3) .EQ. la(11)) v0 = 14
  v0 = -5
END

SUBROUTINE proc1278(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 13
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = 5
END

SUBROUTINE proc1279(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (2 .GT. max(6, 8))) g3 = -5
  g1 = la(9)
END

SUBROUTINE proc1280(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 0
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (la(6) / (4 + -4))
  v0 = 0
  IF (la(3) .NE. la(2) .OR. abs(la(12)) .GT. la(8)) THEN
    v2 = (max(la(7), g2) * g3)
    IF (-5 .LT. abs(6) .AND. 8 .LE. abs(-4)) v1 = max(9, la(5))
  ELSE
    IF (.NOT. (abs(9) .LT. 12)) v0 = 3
    g0 = g0
  ENDIF
  la(8) = (max(g0, la(7)) * la(5))
END

SUBROUTINE proc1281(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 12
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(4) .GE. max(v1, la(11)) .AND. (la(6) * la(4)) .GT. -1) THEN
    IF (.NOT. (mod(15, 4) .EQ. 13)) THEN
      g2 = 5
      g3 = ((g2 * g3) + (13 - 10))
    ELSE
      v1 = (g3 - max(la(8), la(7)))
      f0 = abs((g0 - f0))
    ENDIF
  ELSE
    IF (la(2) .NE. g3 .OR. -2 .LE. la(2)) THEN
      f1 = ((14 * la(7)) / (2 + g2))
    ELSE
      v2 = -4
      g0 = mod((la(9) + 12), 5)
    ENDIF
    DO v2 = 0, 0
      v0 = 5
    ENDDO
  ENDIF
  g3 = ((v1 * la(10)) - -3)
  IF (v0 .LT. mod(la(7), 3)) v1 = la(5)
  g0 = 10
  PRINT *, la(11)
  f0 = la(10)
  IF (max(12, g3) .LE. (la(1) - la(4)) .OR. mod(v2, 3) .GT. (14 / (2 + 13))) f0 = abs(2)
  g1 = -5
  IF (v2 .LT. (9 * la(11))) THEN
    IF (v1 .NE. mod(la(4), 8)) f0 = (la(7) + la(10))
  ENDIF
END

SUBROUTINE proc1282(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = -1
  v0 = (la(3) - (4 * g3))
  la(1) = g1
  g1 = max(la(12), 11)
  g1 = f1
  IF (abs(-3) .EQ. -1 .OR. la(6) .NE. la(9)) g2 = (f0 - -4)
END

SUBROUTINE proc1283(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -3
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((v2 + la(1)) .NE. (g0 / (2 + 10)) .OR. 4 .EQ. f1) THEN
    DO v0 = 3, 4
      g3 = max(g0, 11)
    ENDDO
    IF (mod(-2, 8) .GT. mod(5, 7) .AND. f1 .NE. abs(la(4))) v2 = 4
  ELSE
    v0 = -3
    PRINT *, (la(11) * la(8))
  ENDIF
  v0 = 3
  IF (abs(6) .NE. mod(13, 5)) THEN
    IF ((1 + -1) .NE. 8 .AND. (la(9) + la(9)) .GE. max(f0, la(12))) v1 = -2
    f0 = (5 + la(11))
  ENDIF
  la(10) = 6
  g0 = max(1, -2)
  g2 = (v0 * la(2))
  v1 = la(12)
  IF (.NOT. ((la(8) / (4 + 13)) .EQ. (la(3) - 7))) f0 = max(13, 11)
  v0 = abs(g1)
  DO f1 = 0, 3
    IF (.NOT. (g3 .EQ. mod(v0, 3))) v0 = (-3 / (2 + v2))
    IF (.NOT. (la(6) .GT. mod(6, 6))) v1 = g3
  ENDDO
END

SUBROUTINE proc1284(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 6
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((-4 - -5) .NE. 6) THEN
    g3 = (-4 * 11)
  ELSE
    DO g3 = 1, 3
      v1 = (f0 - la(2))
      v2 = 1
    ENDDO
  ENDIF
  g1 = max(0, la(5))
  la(5) = g2
  g0 = mod((-3 * 4), 6)
  v1 = la(12)
  v0 = g0
  g2 = 9
  IF (.NOT. (g0 .LE. (la(1) + 0))) THEN
    v0 = g0
  ELSE
    v1 = (mod(1, 2) + (la(2) + v2))
  ENDIF
  DO v1 = 3, 4
    v0 = ((-4 - 6) * v1)
  ENDDO
END

SUBROUTINE proc1285(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = 9
  DO f1 = 2, 2
    g2 = (6 * g1)
    DO v0 = 1, 2
      g3 = abs(g3)
      g3 = 6
    ENDDO
  ENDDO
  f0 = 3
  f0 = abs((v1 + la(1)))
END

SUBROUTINE proc1286(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 12
  v2 = 9
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((11 * la(6)) .NE. g1 .AND. abs(-2) .GE. (-4 / (6 + 3))) v2 = max(8, -3)
  g0 = la(10)
  DO g1 = 3, 5
    la(3) = ((-2 + 7) + max(9, 10))
    la(3) = 3
  ENDDO
  g2 = ((la(7) - 4) - (g0 - la(6)))
  v0 = (max(-2, -1) - -5)
  IF (mod(v3, 7) .LT. 15 .AND. mod(-3, 4) .EQ. mod(-3, 2)) THEN
    IF ((8 * f0) .NE. 4) g0 = g3
    IF (max(v2, -3) .EQ. (6 * 12) .OR. 15 .EQ. (la(11) - 13)) THEN
      PRINT *, 6
    ENDIF
  ENDIF
  DO g2 = 3, 4
    IF (-5 .NE. mod(la(9), 3) .OR. (4 - -2) .EQ. (15 - la(1))) v2 = mod(la(12), 4)
  ENDDO
  PRINT *, ((14 + 5) + g2)
END

SUBROUTINE proc1287(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 6
  g2 = ((v1 + la(5)) * -3)
  DO v1 = 3, 4
    DO g0 = 3, 6
      g2 = 7
    ENDDO
  ENDDO
END

SUBROUTINE proc1288(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 4
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (12 .LE. v2 .AND. max(-2, g3) .GE. 4) v1 = la(11)
  IF (.NOT. (g1 .LT. max(15, -1))) f0 = mod(14, 4)
  v0 = mod(mod(g2, 2), 2)
END

SUBROUTINE proc1289(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 0, 2
    PRINT *, -4
  ENDDO
  la(12) = mod((la(9) - 12), 8)
END

SUBROUTINE proc1290(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = 13
  f1 = g2
  IF (.NOT. ((la(12) * 14) .LT. mod(10, 8))) g1 = (-4 / (5 + la(3)))
  g2 = -1
  la(8) = abs(la(3))
  f0 = (-2 * la(10))
  g1 = la(9)
  IF (max(1, la(6)) .EQ. abs(-5)) g3 = (9 - g1)
  g3 = 4
END

SUBROUTINE proc1291(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -3
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (-3 .NE. la(5))) THEN
    g2 = (g1 + (f0 - la(10)))
    g0 = max(11, v1)
  ENDIF
  PRINT *, v2
  la(4) = 3
  la(12) = 9
  la(11) = ((-2 * v0) / (4 + v2))
  la(10) = v1
  DO f0 = 0, 4
    IF (mod(15, 2) .EQ. la(2) .AND. (2 + v0) .LT. (5 * v2)) THEN
      v1 = la(5)
    ENDIF
    f1 = mod(v1, 7)
  ENDDO
  v0 = abs(mod(11, 2))
END

SUBROUTINE proc1292(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (abs(-3) .LT. (-1 - 5) .AND. (la(2) + 11) .GE. (13 - 3)) g2 = mod(9, 3)
  PRINT *, g1
  PRINT *, v1
  g1 = max(la(12), 11)
  DO g1 = 3, 7
    PRINT *, (12 + (v0 * -3))
    PRINT *, (7 * 10)
  ENDDO
  g2 = la(10)
  DO v0 = 1, 5
    IF (.NOT. (la(4) .LT. (-2 - la(9)))) g0 = mod(f0, 5)
  ENDDO
  la(8) = (max(14, 9) * la(8))
END

SUBROUTINE proc1293(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -3
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (f1 .LT. 4) THEN
    la(7) = -5
  ELSE
    IF ((la(4) * la(5)) .EQ. -2 .AND. (la(4) + 5) .GE. mod(-2, 7)) g3 = abs(12)
  ENDIF
  DO v1 = 2, 6
    g3 = la(10)
    PRINT *, ((15 - -4) * -4)
  ENDDO
  PRINT *, 10
  IF (g3 .GT. la(5) .OR. 6 .EQ. (la(12) - -5)) f0 = (g3 + 14)
  PRINT *, 8
  la(11) = ((la(10) / (3 + g3)) / (4 + -1))
  la(7) = mod((v0 + v0), 6)
  g1 = mod(max(-2, la(7)), 7)
  IF (.NOT. ((14 / (5 + la(10))) .GT. la(7))) v0 = 15
  IF ((la(9) * -5) .EQ. v0) g1 = (g2 * 12)
END

SUBROUTINE proc1294(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -4
  v2 = 10
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = (10 / (2 + 10))
  f0 = 9
  IF (f0 .EQ. abs(10) .AND. -4 .EQ. max(-5, la(2))) THEN
    v1 = ((v1 - v1) * la(7))
    PRINT *, (la(12) + abs(v3))
  ELSE
    f0 = la(7)
  ENDIF
END

SUBROUTINE proc1295(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = ((1 - g2) + g0)
  v1 = (4 - abs(f1))
END

SUBROUTINE proc1296(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 10
  IF ((6 / (2 + 3)) .GT. mod(8, 6) .AND. (f1 - la(8)) .EQ. 2) THEN
    g1 = la(4)
    v0 = mod((g2 + -4), 5)
  ELSE
    f1 = v1
  ENDIF
  v0 = f0
  g0 = ((g3 / (2 + g1)) + f1)
  IF (la(9) .EQ. abs(13) .OR. g3 .LE. mod(-4, 8)) v1 = (la(11) / (5 + 15))
  DO v0 = 2, 3
    g2 = (9 * 9)
  ENDDO
  g1 = -4
  v1 = max(v0, 13)
END

SUBROUTINE proc1297(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 5
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = abs((la(1) * 8))
  IF (.NOT. (max(v2, la(10)) .GE. max(la(7), la(3)))) THEN
    v2 = -4
    la(5) = la(9)
  ENDIF
  g1 = max(15, g0)
  IF (.NOT. (g2 .LE. la(4))) THEN
    v2 = la(5)
    g2 = la(6)
  ENDIF
  g2 = max(3, -4)
END

SUBROUTINE proc1298(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = (abs(8) / (6 + la(11)))
  PRINT *, abs(11)
  g1 = mod(-5, 8)
  IF ((5 / (2 + 14)) .GE. 15 .OR. 3 .EQ. mod(10, 6)) THEN
    g1 = ((9 - 6) / (4 + 13))
    PRINT *, g0
  ENDIF
END

SUBROUTINE proc1299(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (2 .EQ. 6) THEN
    IF (-3 .LT. (la(3) - 8) .OR. g0 .LT. la(3)) THEN
      PRINT *, (g1 + 10)
    ELSE
      v0 = abs((15 / (5 + v1)))
      g0 = 8
    ENDIF
  ENDIF
  g1 = (5 + 2)
  g0 = abs((g3 * la(2)))
  PRINT *, ((-1 * la(3)) + 5)
  DO g0 = 2, 2
    DO v0 = 1, 3
      g3 = abs(mod(-3, 3))
      g3 = ((v1 / (3 + -5)) - mod(la(8), 5))
    ENDDO
  ENDDO
END

SUBROUTINE proc1300(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(6) = (la(4) / (2 + 10))
  f1 = (la(7) * g3)
  v0 = la(4)
  v1 = (-3 + mod(10, 7))
  g1 = v0
END

SUBROUTINE proc1301(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 6
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(3) = (abs(13) / (2 + 14))
  g2 = g0
  g2 = la(12)
  v1 = ((f0 - 9) / (2 + -2))
  la(6) = 4
  IF (.NOT. (6 .GT. -5)) THEN
    la(6) = (mod(5, 7) * 1)
  ENDIF
END

SUBROUTINE proc1302(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(6) = (14 * g0)
  la(1) = 11
  v0 = v1
  IF (15 .LE. mod(10, 4) .AND. 7 .EQ. (7 / (2 + v0))) THEN
    IF (.NOT. ((7 - 8) .GE. (la(8) - 10))) g1 = (4 * g0)
  ELSE
    v0 = la(1)
  ENDIF
  g0 = abs((9 / (3 + 3)))
  f0 = (la(12) / (6 + 0))
  la(6) = -2
  v0 = g1
END

SUBROUTINE proc1303(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = v1
  g1 = -3
  g0 = (abs(la(1)) * 9)
  g3 = (la(9) + (13 / (4 + 15)))
  f1 = (la(1) - f1)
  f0 = abs(2)
END

SUBROUTINE proc1304(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(3) = -3
  DO g2 = 0, 0
    g1 = mod(la(11), 7)
    f0 = g2
  ENDDO
  PRINT *, abs(max(la(7), v1))
END

SUBROUTINE proc1305(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 11
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = 12
  g0 = la(2)
  DO g3 = 1, 5
    g0 = 7
  ENDDO
  g2 = 15
  IF (v1 .GE. la(3) .OR. mod(15, 7) .NE. -2) g0 = -3
  IF (6 .LE. mod(f0, 2)) THEN
    v1 = (3 - 10)
    v0 = mod((la(6) * 14), 8)
  ELSE
    PRINT *, ((10 / (6 + la(6))) - mod(la(7), 8))
    g2 = 9
  ENDIF
  v1 = ((-1 + -1) / (4 + 3))
  la(11) = 12
END

SUBROUTINE proc1306(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = max(5, v0)
END

SUBROUTINE proc1307(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 9
  v2 = 0
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = v0
  DO g1 = 3, 3
    v0 = 15
  ENDDO
END

SUBROUTINE proc1308(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (abs(15) .LT. max(la(12), 11) .AND. (la(11) * f0) .EQ. v1) THEN
    g0 = abs((g1 + 6))
    v1 = 2
  ENDIF
  la(9) = -2
  IF (max(-5, 12) .EQ. 6 .OR. (10 - la(2)) .NE. abs(f1)) THEN
    f1 = -4
  ELSE
    g1 = abs(8)
  ENDIF
  v1 = mod(-2, 5)
  la(4) = f0
END

SUBROUTINE proc1309(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 2
  v2 = 10
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = 6
  PRINT *, mod(la(2), 4)
  IF (.NOT. ((9 / (5 + la(4))) .LE. (-1 * v3))) THEN
    v0 = max(4, 0)
  ENDIF
  IF ((12 + la(8)) .NE. abs(f0) .AND. abs(10) .NE. (g0 * v0)) v2 = mod(f0, 7)
  la(1) = (14 / (2 + la(1)))
  PRINT *, f0
END

SUBROUTINE proc1310(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(1)
  g1 = la(1)
  la(4) = 2
  g1 = -2
  g0 = la(6)
  IF (9 .EQ. -3 .AND. la(1) .LE. -3) THEN
    f0 = -1
    g0 = max(-5, la(3))
  ELSE
    la(12) = -3
    PRINT *, -2
  ENDIF
  IF (.NOT. ((la(3) + la(8)) .GE. (3 / (2 + f0)))) v1 = la(6)
  g1 = la(7)
  IF (2 .NE. v1 .OR. max(g2, 10) .LE. abs(13)) THEN
    g0 = ((5 - 13) / (3 + -2))
  ELSE
    g1 = abs(-5)
    IF ((9 + la(10)) .GE. mod(10, 8) .AND. la(10) .GT. -3) THEN
      g1 = ((5 + 13) / (4 + la(5)))
    ELSE
      v1 = 13
    ENDIF
  ENDIF
END

SUBROUTINE proc1311(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = (-4 - 4)
END

SUBROUTINE proc1312(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 4
  v2 = 12
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(7) = ((14 / (5 + g1)) - 15)
  v3 = ((-4 - 8) / (6 + v1))
  DO v0 = 3, 5
    DO g1 = 2, 4
      PRINT *, 2
      g2 = abs(la(5))
    ENDDO
    IF (.NOT. (-1 .EQ. la(11))) THEN
      g1 = abs(mod(g1, 7))
      g2 = max(g2, g2)
    ENDIF
  ENDDO
  g0 = (abs(la(3)) / (4 + la(11)))
  v3 = (max(f0, 10) + (2 / (6 + f0)))
  g3 = 13
  v1 = ((0 - 0) * 0)
END

SUBROUTINE proc1313(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 0
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g0 = 2, 5
    la(3) = (max(15, 13) / (3 + 9))
  ENDDO
END

SUBROUTINE proc1314(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 10
  v2 = 14
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((-2 / (5 + v1)) .LE. abs(11) .AND. max(f0, 10) .GE. (la(5) + -5)) g0 = g3
  IF (v3 .EQ. la(8) .OR. (v3 * 11) .EQ. (la(4) + 4)) f0 = 2
  DO v3 = 2, 4
    IF (.NOT. ((0 - 0) .LT. max(14, la(8)))) v2 = (11 * -1)
  ENDDO
  g3 = max(f0, la(5))
  IF (4 .LT. (v1 + 11) .OR. (-3 + v3) .GE. abs(-4)) v1 = (la(8) - g2)
  la(9) = la(6)
  PRINT *, v3
END

SUBROUTINE proc1315(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(2) = 5
  v1 = (g0 / (2 + 7))
  IF (la(8) .NE. v1 .OR. max(9, -3) .EQ. (g1 - g1)) THEN
    g0 = ((v0 / (3 + -4)) - (-3 + f0))
  ELSE
    g3 = (max(0, v0) + 12)
    g0 = 7
  ENDIF
  g3 = v1
  la(5) = -1
  DO g0 = 3, 6
    g2 = 10
    g2 = la(8)
  ENDDO
  PRINT *, g2
  g0 = f0
END

SUBROUTINE proc1316(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 10
  v2 = g2
  IF (abs(la(1)) .LT. 10 .AND. g1 .NE. (12 * 7)) g3 = abs(-1)
  la(9) = abs((14 - 1))
  v0 = (g1 / (6 + -5))
  PRINT *, (v2 + (la(3) - -5))
  IF (mod(la(9), 3) .GT. (la(1) / (2 + la(11))) .AND. 11 .LT. 1) THEN
    IF (la(5) .LE. 11 .OR. -2 .NE. g0) THEN
      PRINT *, ((5 / (5 + f0)) - 4)
    ENDIF
  ENDIF
  g2 = la(5)
  PRINT *, ((la(11) - -1) * la(10))
  g1 = v2
END

SUBROUTINE proc1317(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. (g2 .EQ. 12)) f1 = la(1)
  PRINT *, 6
  la(7) = mod(abs(13), 7)
  IF (.NOT. (10 .LT. abs(g2))) g1 = max(-2, 3)
END

SUBROUTINE proc1318(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 6
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (abs(la(5)) - (la(7) * la(1)))
  IF (.NOT. ((7 + la(1)) .LT. la(3))) THEN
    v1 = (8 - max(la(1), g0))
  ELSE
    IF (abs(v0) .LE. 1) THEN
      g1 = la(8)
    ENDIF
  ENDIF
  PRINT *, 2
  g3 = la(8)
  f1 = -5
  v3 = (-3 / (4 + la(1)))
  PRINT *, (15 * 7)
  g0 = la(2)
  IF (max(la(10), 4) .GE. la(9) .AND. (14 - -1) .LE. (la(9) - v2)) THEN
    IF (0 .GT. (la(10) + 3) .AND. (la(5) * 14) .GE. (la(11) / (2 + -5))) g1 = (la(11) * g1)
    la(3) = g3
  ELSE
    g1 = -2
    PRINT *, max(g3, f0)
  ENDIF
END

SUBROUTINE proc1319(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -3
  v2 = -2
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = abs(5)
  v2 = max(la(1), la(4))
  f0 = 2
  g3 = max(v0, -3)
END

SUBROUTINE proc1320(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 9
  v2 = 13
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 3, 7
    g2 = 2
    v2 = 3
  ENDDO
  la(4) = (f1 / (3 + la(5)))
  g2 = mod(la(9), 6)
  DO f1 = 3, 3
    g0 = mod((12 / (3 + 7)), 8)
    DO v1 = 2, 6
      v3 = la(5)
    ENDDO
  ENDDO
  IF ((0 * 4) .GT. (la(8) * 12) .OR. la(4) .EQ. abs(v0)) v0 = la(5)
  IF (g3 .LE. 13) THEN
    v3 = (13 * v3)
  ELSE
    g2 = la(9)
  ENDIF
END

SUBROUTINE proc1321(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (g1 .LT. la(3))) f0 = g0
  f0 = -3
  f1 = (g2 * 1)
  IF (2 .LT. 6) g2 = abs(v0)
  f1 = (-3 / (3 + 3))
  g0 = ((la(6) + la(10)) + (13 - 11))
  DO g3 = 2, 5
    PRINT *, mod(10, 7)
    f0 = 14
  ENDDO
  PRINT *, 13
END

SUBROUTINE proc1322(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 0
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = ((g1 + -2) - abs(5))
  v0 = (3 + la(9))
  v2 = ((g2 + la(2)) + la(12))
  IF (mod(14, 8) .NE. mod(6, 4) .OR. la(4) .LE. v1) g0 = (f0 / (6 + g3))
  f0 = v1
END

SUBROUTINE proc1323(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v0 = 2, 2
    la(1) = abs((f0 / (5 + 13)))
  ENDDO
  la(12) = 4
  g2 = f0
END

SUBROUTINE proc1324(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = g3
  DO v2 = 0, 3
    DO v1 = 1, 4
      g1 = (0 - -3)
    ENDDO
    la(2) = 10
  ENDDO
  IF (max(8, -4) .GT. (v0 - 5) .OR. (13 + 7) .EQ. (11 + -4)) g2 = f0
END

SUBROUTINE proc1325(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (5 .GE. (la(8) - -2)) THEN
    DO f0 = 3, 6
      v1 = 14
      g1 = la(9)
    ENDDO
    la(11) = 6
  ELSE
    IF (.NOT. (g2 .LT. abs(-1))) THEN
      la(5) = (la(10) + (g1 - la(9)))
      g1 = la(3)
    ENDIF
  ENDIF
  g3 = (-5 * g0)
  v1 = mod(la(9), 2)
  DO g0 = 2, 2
    g1 = 0
  ENDDO
  DO v0 = 3, 3
    PRINT *, 10
    PRINT *, mod(max(la(12), 1), 6)
  ENDDO
  IF (.NOT. (4 .LT. la(1))) THEN
    DO v0 = 2, 5
      g1 = f0
      g3 = (v0 * v1)
    ENDDO
    DO g0 = 2, 6
      PRINT *, la(12)
      IF (mod(g0, 5) .LT. mod(la(11), 7) .AND. (la(3) + g2) .NE. v1) v0 = (5 + 10)
    ENDDO
  ENDIF
  g0 = (g3 + (la(3) - la(10)))
END

SUBROUTINE proc1326(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 8
  v2 = 0
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = ((la(2) - 0) + 10)
  g0 = 9
  IF (11 .LE. (v1 + la(10)) .OR. (la(9) / (4 + la(11))) .GT. v0) v0 = -3
  IF (la(9) .EQ. la(8) .OR. (-4 / (4 + v2)) .LT. (v2 + v1)) v3 = 12
  DO v3 = 1, 3
    g1 = g0
    DO v0 = 2, 5
      g3 = 9
    ENDDO
  ENDDO
  v3 = (la(7) / (2 + 7))
  PRINT *, (g1 * v3)
  f0 = (mod(la(12), 7) + la(8))
  IF (abs(g1) .EQ. (13 - -4) .OR. (2 + 8) .GT. (-4 - f0)) g2 = abs(-4)
END

SUBROUTINE proc1327(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 3
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 6
  IF (v0 .GE. mod(g3, 2)) v0 = 5
  g1 = g1
  IF (abs(la(1)) .GE. 15) THEN
    f0 = (max(6, la(1)) + 4)
  ELSE
    IF ((-4 + g3) .LT. la(6) .AND. (-5 / (4 + la(9))) .GE. (14 - 4)) THEN
      v1 = 4
    ENDIF
  ENDIF
  PRINT *, 6
  v0 = v2
  v2 = la(7)
  IF ((1 + 3) .NE. mod(7, 8)) THEN
    v0 = ((g3 + g3) - (-2 + la(8)))
    IF ((8 / (4 + la(12))) .NE. la(5) .AND. abs(-3) .LE. 1) g3 = 7
  ENDIF
  DO g1 = 0, 4
    g3 = max(9, 5)
  ENDDO
END

SUBROUTINE proc1328(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 8
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = g2
  g0 = la(2)
  v2 = 9
  g3 = (mod(1, 4) + 2)
  la(7) = (12 / (2 + la(12)))
  v0 = 10
END

SUBROUTINE proc1329(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = v1
  v0 = 11
  IF (3 .GE. 9 .AND. 4 .LE. (g2 + v1)) f1 = g3
  PRINT *, 6
  DO f1 = 3, 3
    g2 = (la(9) - -3)
    f0 = (13 / (6 + v1))
  ENDDO
  la(7) = (2 - 6)
  g3 = la(11)
  v0 = 1
END

SUBROUTINE proc1330(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 1
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = mod(max(v2, 4), 5)
  f0 = mod(la(1), 3)
  IF (.NOT. (11 .GE. (f0 - la(7)))) THEN
    v1 = 14
  ELSE
    g0 = (la(12) + mod(g0, 5))
  ENDIF
  la(4) = 0
END

SUBROUTINE proc1331(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -4
  v2 = 13
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = max(la(8), 0)
  IF (-5 .EQ. 7) g1 = (v2 / (2 + 5))
  g3 = la(6)
  DO v2 = 2, 5
    PRINT *, f0
    g3 = ((3 - -5) * 6)
  ENDDO
  v0 = mod(6, 8)
  v1 = la(4)
  f0 = (la(5) + abs(14))
  v0 = mod((6 * 4), 8)
  v1 = max(6, la(1))
  v3 = f1
END

SUBROUTINE proc1332(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = 10
  g2 = (v0 / (4 + 8))
  g2 = mod((g3 + 2), 2)
  g1 = g2
  PRINT *, mod((-3 + f0), 2)
  la(6) = la(8)
  DO g3 = 3, 4
    PRINT *, (la(2) / (3 + -4))
  ENDDO
  IF ((g0 / (4 + la(3))) .GE. 15 .AND. max(-5, f0) .EQ. la(7)) v0 = (-1 + v1)
END

SUBROUTINE proc1333(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = mod((8 + f0), 4)
  f1 = max(g0, v2)
  la(7) = ((6 / (5 + -5)) * 2)
  f1 = f0
  PRINT *, la(3)
  IF (11 .EQ. abs(g1) .AND. (la(9) + la(9)) .EQ. 11) THEN
    g0 = la(7)
  ENDIF
  v0 = 5
  g2 = abs((v1 + 3))
  IF (f0 .GT. 0) THEN
    CALL proc1334(f0 - 1, -3)
  ENDIF
  CALL proc1338(6, -3)
  CALL proc1342(6, (0 + abs(11)))
END

SUBROUTINE proc1334(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 0
  v2 = 7
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = 13
  la(10) = mod(-5, 8)
  IF (.NOT. ((13 / (4 + la(3))) .LT. (2 - f1))) THEN
    PRINT *, ((la(10) + la(4)) / (2 + 4))
    g3 = (mod(1, 2) + (la(7) + 11))
  ELSE
    g0 = abs((g2 * la(5)))
  ENDIF
  g2 = 11
  PRINT *, mod(8, 5)
  IF (max(v0, 14) .LT. (11 / (6 + la(6))) .OR. 10 .LT. (v1 / (2 + 7))) THEN
    la(11) = mod((la(10) * la(2)), 4)
  ELSE
    g1 = v2
    IF (.NOT. (-4 .LE. abs(14))) g0 = (-2 * -5)
  ENDIF
  g3 = (max(g2, 8) * g3)
  PRINT *, la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1335(f0 - 1, (0 + g3))
  ENDIF
END

SUBROUTINE proc1335(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = g2
  v2 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1336(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1336(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = ((14 * la(9)) - 2)
  PRINT *, (max(5, -1) * 12)
  la(5) = mod(abs(la(10)), 4)
  g0 = (2 * -2)
  IF ((9 - 3) .GE. v0 .OR. la(11) .EQ. f1) g2 = (la(8) - 11)
  IF (2 .EQ. max(14, g1) .AND. -4 .LE. 1) g0 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1337(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1337(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g0 = 2, 4
    PRINT *, mod(la(1), 7)
  ENDDO
  DO g1 = 0, 3
    PRINT *, max(11, 1)
  ENDDO
  v1 = la(7)
  DO g1 = 3, 3
    DO g2 = 3, 7
      IF ((la(10) + 3) .GT. max(g2, g3) .AND. max(11, v0) .LE. (10 + -5)) v0 = 12
      v1 = mod(-4, 2)
    ENDDO
    g2 = la(8)
  ENDDO
  g3 = (abs(-5) - 6)
  g3 = g0
  DO g0 = 1, 1
    g3 = (max(-5, f1) / (6 + 1))
    PRINT *, max(10, 15)
  ENDDO
  g1 = abs(mod(v1, 5))
  IF ((-4 * la(11)) .LE. (la(3) / (6 + la(2))) .AND. la(7) .LT. (8 + g0)) THEN
    IF (13 .GE. (f0 + g3) .AND. g3 .GT. g0) THEN
      la(7) = (max(la(1), 13) + max(10, la(6)))
      g0 = la(6)
    ENDIF
    v0 = abs((-3 - 14))
  ELSE
    v0 = 5
    g1 = -5
  ENDIF
  g2 = mod(f0, 6)
  IF (f0 .GT. 0) THEN
    CALL proc1333(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1338(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 14
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g3 = 2, 6
    v2 = g3
  ENDDO
  DO v2 = 3, 7
    DO f1 = 1, 3
      PRINT *, 9
      g1 = (2 * 8)
    ENDDO
  ENDDO
  g3 = 9
  v0 = (mod(12, 4) - (la(7) - la(2)))
  la(5) = la(10)
  g1 = (v2 + 9)
  IF (f0 .GT. 0) THEN
    CALL proc1339(f0 - 1, (0 + max(v0, g2)))
  ENDIF
  CALL proc1345(5, v0)
  CALL proc1351(5, 0)
END

SUBROUTINE proc1339(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = mod(2, 8)
  g1 = mod(15, 7)
  IF (f0 .GT. 0) THEN
    CALL proc1340(f0 - 1, (0 + -3))
  ENDIF
END

SUBROUTINE proc1340(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 7
  v2 = -2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 7
  IF (abs(f1) .GT. mod(f1, 6)) THEN
    la(10) = (8 * 12)
  ELSE
    IF (mod(3, 6) .NE. (8 * v0)) g1 = (g0 - 4)
    IF (g1 .NE. -5 .OR. (5 / (5 + 1)) .LE. v2) THEN
      v1 = max(g3, -5)
    ELSE
      IF (.NOT. (la(7) .NE. mod(6, 8))) g0 = f0
      la(12) = la(4)
    ENDIF
  ENDIF
  v2 = abs((11 / (6 + f1)))
  IF (f0 .GT. 0) THEN
    CALL proc1341(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1341(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 3, 5
    g0 = 12
  ENDDO
  v0 = (mod(13, 2) + (la(10) * -4))
  DO g1 = 0, 0
    g2 = 5
    IF (6 .EQ. (6 + 8) .AND. (g3 * la(8)) .GT. la(4)) f1 = max(4, la(10))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1338(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1342(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((0 * 10) .LT. 14 .AND. (g2 * 8) .GE. mod(la(3), 5)) g0 = 5
  DO v1 = 1, 3
    DO g3 = 2, 6
      g1 = 10
      PRINT *, max(-2, 15)
    ENDDO
    DO g2 = 2, 6
      v0 = abs(10)
      g1 = max(15, la(12))
    ENDDO
  ENDDO
  IF ((la(6) * -4) .EQ. abs(la(7))) v0 = mod(11, 2)
  DO f1 = 3, 3
    v0 = 7
  ENDDO
  DO g3 = 2, 2
    IF ((-1 / (6 + f0)) .GE. 0) g0 = (8 / (6 + -2))
  ENDDO
  g2 = max(la(2), f0)
  IF (v0 .LT. la(2) .OR. (la(4) + 15) .GE. v0) f1 = 10
  v1 = ((-1 - 2) - la(2))
  f1 = -2
  g0 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1343(f0 - 1, v1)
  ENDIF
  CALL proc1357(5, (0 + 2))
  CALL proc1362(5, f1)
END

SUBROUTINE proc1343(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g3 = 1, 2
    g0 = (max(la(9), -2) / (3 + 7))
    PRINT *, max(g0, v0)
  ENDDO
  g1 = -4
  DO v1 = 3, 6
    v0 = (la(8) * 14)
    IF (max(la(12), la(10)) .NE. (14 + g1)) g1 = (13 / (6 + la(6)))
  ENDDO
  v0 = 4
  v2 = 15
  v0 = 6
  IF (4 .NE. mod(2, 7) .OR. 13 .NE. v2) THEN
    PRINT *, v1
  ENDIF
  PRINT *, abs(7)
  f1 = (0 * 11)
  IF (f0 .GT. 0) THEN
    CALL proc1344(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1344(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -4
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = (12 / (2 + la(7)))
  g2 = -4
  IF ((4 - -1) .GE. (-4 + v1)) THEN
    g1 = f0
  ELSE
    g3 = (mod(g1, 3) + 7)
  ENDIF
  DO g2 = 3, 5
    v1 = 5
  ENDDO
  la(12) = g1
  IF (.NOT. (max(f1, la(4)) .GT. (f1 / (5 + la(1))))) THEN
    la(4) = g2
    g1 = g0
  ELSE
    g0 = v2
    PRINT *, la(2)
  ENDIF
  v0 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc1342(f0 - 1, (0 + -1))
  ENDIF
END

SUBROUTINE proc1345(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 13
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 1, 5
    v3 = (abs(g1) - -2)
    IF (.NOT. (12 .LT. mod(v0, 5))) THEN
      v0 = 7
      v0 = abs((11 - -2))
    ENDIF
  ENDDO
  IF (.NOT. (abs(1) .GE. la(7))) THEN
    f1 = -3
    g3 = (11 + (g1 - la(2)))
  ELSE
    g2 = -5
  ENDIF
  v1 = (9 - 7)
  la(6) = g3
  v1 = abs(2)
  IF (f0 .GT. 0) THEN
    CALL proc1346(f0 - 1, v0)
  ENDIF
  CALL proc1365(4, v2)
  CALL proc1371(4, v1)
END

SUBROUTINE proc1346(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 1
  v2 = 2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g2 = 0, 2
    g0 = (la(2) / (5 + -3))
  ENDDO
  g0 = (-2 / (2 + la(1)))
  v1 = la(12)
  v3 = (max(la(12), 3) + la(4))
  f1 = mod(max(la(5), g1), 8)
  DO v0 = 3, 4
    PRINT *, 8
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1347(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1347(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 0
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = max(la(5), 4)
  v0 = la(1)
  IF (mod(g3, 7) .EQ. v1 .OR. -3 .GT. 0) v2 = la(6)
  DO v1 = 1, 2
    PRINT *, (6 * la(12))
  ENDDO
  g2 = mod((g3 / (5 + 8)), 2)
  f1 = g3
  f1 = (max(g1, v0) * 10)
  v1 = (mod(13, 5) - f0)
  DO g3 = 3, 4
    IF (abs(3) .GE. la(1)) THEN
      v2 = f1
    ELSE
      la(11) = -1
      v2 = abs(9)
    ENDIF
  ENDDO
  IF (.NOT. ((la(12) - v0) .EQ. 7)) v2 = (10 / (2 + -3))
  IF (f0 .GT. 0) THEN
    CALL proc1348(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1348(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1349(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1349(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 5
  v2 = 12
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = max(3, v0)
  v3 = abs(3)
  f1 = v1
  g0 = 6
  la(8) = ((g3 * la(7)) / (2 + 7))
  IF (f0 .GT. 0) THEN
    CALL proc1350(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1350(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (abs(15) .LE. (la(5) + f0))) v0 = (v1 / (3 + la(6)))
  g0 = 14
  v2 = 6
  g0 = (8 / (2 + 9))
  PRINT *, abs((g1 - 2))
  IF ((11 - 2) .NE. g3 .AND. 0 .EQ. max(5, 3)) THEN
    v2 = g3
    IF (max(-3, v1) .GE. (g3 * la(12)) .OR. (g2 + 7) .NE. g0) f1 = (v2 * v2)
  ELSE
    g3 = 13
    PRINT *, mod(1, 3)
  ENDIF
  g3 = (la(6) + la(11))
  PRINT *, 14
  IF (f0 .GT. 0) THEN
    CALL proc1345(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1351(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 8
  PRINT *, max(g2, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1352(f0 - 1, 1)
  ENDIF
  CALL proc1376(4, v1)
  CALL proc1379(4, v0)
END

SUBROUTINE proc1352(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 9
  v2 = 6
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = (abs(g2) * la(5))
  la(11) = -5
  la(4) = g1
  v0 = 6
  g2 = 1
  v0 = g0
  v0 = 13
  IF (f0 .GT. 0) THEN
    CALL proc1353(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1353(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(8)
  la(1) = mod(g2, 2)
  DO g3 = 1, 3
    g1 = (la(3) * la(11))
    DO g1 = 3, 4
      f1 = g0
      v1 = mod((-1 - f1), 6)
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1354(f0 - 1, (0 + v2))
  ENDIF
END

SUBROUTINE proc1354(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -2
  v2 = 3
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (13 .NE. la(6)) v2 = (f1 + 0)
  DO g3 = 3, 5
    DO v2 = 2, 6
      v1 = (max(15, v2) / (3 + 10))
      f1 = g3
    ENDDO
  ENDDO
  DO g0 = 1, 3
    g1 = max(la(7), la(10))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1355(f0 - 1, (0 + max(14, 1)))
  ENDIF
END

SUBROUTINE proc1355(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 11
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = (abs(-5) / (2 + 1))
  IF (.NOT. ((la(6) / (6 + v1)) .LT. 2)) v0 = (4 * 6)
  DO g2 = 3, 3
    g1 = 2
  ENDDO
  g3 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1356(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1356(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 8
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = (15 * 10)
  DO f1 = 2, 4
    IF (f0 .NE. (3 / (4 + 7)) .AND. (13 * g3) .EQ. la(7)) v0 = la(3)
    g1 = 1
  ENDDO
  g0 = (la(11) / (3 + v2))
  IF (la(12) .LE. -5) v1 = 14
  g2 = ((la(1) - la(10)) / (6 + f0))
  DO g1 = 2, 5
    f1 = (la(9) - 3)
    g2 = 11
  ENDDO
  IF (0 .NE. (-4 + la(11))) THEN
    IF (.NOT. (12 .GT. 2)) g0 = 11
    DO g1 = 1, 2
      v0 = la(11)
      v1 = 8
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1351(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1357(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = mod(la(1), 3)
  PRINT *, -2
  v1 = (v1 - abs(la(11)))
  IF (mod(10, 4) .EQ. abs(2) .AND. mod(15, 7) .GT. g2) g1 = abs(la(9))
  DO v0 = 2, 6
    PRINT *, g1
  ENDDO
  la(10) = 1
  IF (la(11) .GE. (g3 * la(7)) .AND. max(11, 9) .GE. 11) THEN
    IF (.NOT. (-1 .LT. 10)) THEN
      v1 = 0
    ENDIF
    PRINT *, -3
  ELSE
    g0 = la(1)
    DO v1 = 0, 2
      v0 = mod(6, 8)
    ENDDO
  ENDIF
  v0 = 12
  IF (.NOT. (max(g1, 15) .GT. abs(g1))) v1 = (la(7) * 4)
  IF (f0 .GT. 0) THEN
    CALL proc1358(f0 - 1, (0 + max(v1, la(6))))
  ENDIF
  CALL proc1383(4, f1)
  CALL proc1389(4, (0 + g0))
END

SUBROUTINE proc1358(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 12
  v2 = 10
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(3)
  IF (abs(-1) .LE. mod(v2, 6) .AND. 8 .LT. 13) THEN
    v2 = la(6)
    v0 = 0
  ENDIF
  IF (.NOT. (f1 .GT. abs(0))) THEN
    DO f1 = 3, 5
      g1 = la(2)
    ENDDO
    IF (13 .GT. abs(5)) THEN
      g2 = 0
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1359(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1359(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 8
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. ((g3 / (2 + g0)) .GE. la(5))) g0 = abs(g3)
  la(7) = max(4, la(9))
  g1 = max(14, la(12))
  PRINT *, (7 + v2)
  la(8) = la(10)
  DO v2 = 0, 1
    v1 = (la(4) + (-3 * la(11)))
  ENDDO
  v1 = la(5)
  g0 = mod((v0 - la(9)), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1360(f0 - 1, (0 + (v0 + 3)))
  ENDIF
END

SUBROUTINE proc1360(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 12
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = la(3)
  DO v2 = 2, 5
    IF (.NOT. (f0 .LT. g3)) THEN
      g1 = ((7 - la(3)) / (4 + 14))
      g3 = abs((8 - 2))
    ELSE
      g2 = (abs(1) + f1)
      v0 = max(15, la(1))
    ENDIF
  ENDDO
  g2 = max(la(3), 4)
  PRINT *, mod(mod(la(3), 7), 2)
  g3 = v2
  DO v0 = 0, 4
    IF (.NOT. (abs(3) .NE. g1)) g0 = la(9)
    v1 = (g0 / (4 + 2))
  ENDDO
  IF ((1 / (6 + 9)) .NE. abs(f1) .OR. -3 .EQ. mod(11, 7)) THEN
    v2 = la(2)
    v0 = la(8)
  ENDIF
  g2 = abs((v1 * 12))
  g3 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1361(f0 - 1, (0 + la(12)))
  ENDIF
END

SUBROUTINE proc1361(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 3
  f1 = la(1)
  g0 = f1
  g3 = mod((15 / (3 + -1)), 6)
  f1 = 4
  g0 = (la(2) + f1)
  g3 = abs(mod(g3, 3))
  f1 = (la(8) / (6 + 4))
  IF (f0 .GT. 0) THEN
    CALL proc1357(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1362(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = abs(abs(la(2)))
  PRINT *, abs(la(2))
  la(12) = 2
  IF (7 .GT. (la(6) / (3 + v1))) THEN
    v0 = 15
  ELSE
    IF (.NOT. ((g2 / (2 + f0)) .LT. mod(f0, 3))) THEN
      g2 = ((1 * f1) / (5 + 6))
    ELSE
      g1 = max(v1, 3)
      v1 = la(1)
    ENDIF
    g2 = (g1 * g0)
  ENDIF
  la(4) = ((la(2) - 15) * la(10))
  f1 = abs(f1)
  DO g3 = 0, 1
    IF ((f1 / (3 + g1)) .LT. (3 * -4) .AND. (-1 * 2) .GT. abs(0)) THEN
      v1 = la(12)
      PRINT *, max(la(11), la(11))
    ENDIF
    IF (.NOT. (8 .LT. abs(12))) g0 = -5
  ENDDO
  g3 = (3 - max(la(1), la(5)))
  IF (f0 .GT. 0) THEN
    CALL proc1363(f0 - 1, 8)
  ENDIF
  CALL proc1394(4, 9)
  CALL proc1397(4, (0 + la(2)))
END

SUBROUTINE proc1363(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = 11
  v0 = ((8 / (4 + g1)) - v2)
  la(5) = ((g3 / (6 + la(9))) - (la(9) / (4 + la(3))))
  la(4) = 3
  g2 = 10
  IF ((6 * -5) .GT. max(f1, 6) .OR. (0 + g0) .GE. g0) THEN
    v0 = (-1 - la(10))
  ELSE
    DO g1 = 2, 3
      v2 = max(v1, f1)
    ENDDO
  ENDIF
  v2 = 1
  g1 = (-2 / (5 + 14))
  f1 = v2
  la(7) = (-4 + (g0 / (6 + 12)))
  IF (f0 .GT. 0) THEN
    CALL proc1364(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1364(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 0
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (13 .NE. g3)) g2 = (15 - 9)
  IF (f0 .GT. 0) THEN
    CALL proc1362(f0 - 1, (0 + 8))
  ENDIF
END

SUBROUTINE proc1365(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (mod(v0, 6) - (0 + 15))
  la(3) = g2
  la(7) = abs(mod(5, 3))
  IF (f0 .GT. 0) THEN
    CALL proc1366(f0 - 1, 5)
  ENDIF
  CALL proc1401(3, 7)
  CALL proc1407(3, v1)
END

SUBROUTINE proc1366(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = v1
  v1 = max(15, 5)
  la(1) = ((7 / (2 + la(3))) * v0)
  IF (f0 .GT. 0) THEN
    CALL proc1367(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1367(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = 10
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(11) = (g0 - la(6))
  DO v1 = 3, 7
    g0 = mod((2 + g3), 2)
    IF (g0 .NE. g0 .AND. g1 .EQ. g0) g1 = (f0 + la(12))
  ENDDO
  IF (.NOT. ((la(7) + la(3)) .GT. (0 * la(6)))) g2 = (14 * g2)
  g0 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1368(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1368(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = v0
  IF (la(8) .LE. (-5 - 4)) g2 = 13
  PRINT *, (mod(la(5), 4) + -5)
  f1 = 13
  IF ((8 / (6 + -5)) .GE. la(12)) THEN
    g0 = la(2)
    g1 = ((7 - la(1)) * la(11))
  ELSE
    PRINT *, 10
  ENDIF
  g3 = (max(la(2), la(2)) * -2)
  IF (f0 .GT. 0) THEN
    CALL proc1369(f0 - 1, (0 + (f1 - 14)))
  ENDIF
END

SUBROUTINE proc1369(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = abs((-1 - 0))
  IF (5 .GT. -3 .AND. v0 .LE. mod(g3, 5)) THEN
    IF (.NOT. (max(6, -2) .LT. f1)) THEN
      g2 = abs((5 / (2 + 12)))
      g2 = la(10)
    ELSE
      f1 = (15 * v1)
    ENDIF
  ENDIF
  PRINT *, -2
  g2 = abs(max(7, f0))
  la(10) = la(4)
  v1 = g3
  DO g3 = 1, 1
    g2 = max(3, g3)
    g2 = -3
  ENDDO
  la(10) = 0
  IF (f0 .GT. 0) THEN
    CALL proc1370(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1370(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(-3, 4) .GE. 13) v0 = g1
  la(1) = abs(12)
  IF (mod(11, 6) .GE. 3 .AND. abs(la(9)) .EQ. (-4 / (4 + g2))) g3 = la(5)
  IF ((v0 * la(9)) .LE. g2 .AND. f1 .NE. abs(7)) THEN
    g1 = ((-4 * 14) - abs(g1))
  ELSE
    IF (6 .NE. (la(12) * la(4)) .OR. (la(2) - -5) .EQ. mod(g2, 3)) g0 = (-5 - la(8))
  ENDIF
  la(6) = abs(abs(6))
  v1 = 5
  v1 = la(9)
  IF (.NOT. (mod(8, 7) .LT. v0)) THEN
    la(1) = (la(8) + abs(g0))
  ENDIF
  g2 = 6
  IF (f0 .GT. 0) THEN
    CALL proc1365(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1371(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 5
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v2 = 2, 3
    g3 = (mod(-3, 4) - la(3))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1372(f0 - 1, f1)
  ENDIF
  CALL proc1412(3, 2)
  CALL proc1417(3, 1)
END

SUBROUTINE proc1372(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 6
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = la(1)
  DO f1 = 2, 5
    PRINT *, -1
    v2 = abs((la(9) / (2 + 6)))
  ENDDO
  g0 = (f0 / (3 + la(3)))
  v0 = mod(g2, 6)
  DO v2 = 1, 2
    la(9) = mod(max(8, g0), 4)
    la(12) = la(1)
  ENDDO
  PRINT *, (la(10) - abs(f0))
  DO g1 = 0, 0
    v1 = (abs(v0) / (2 + la(7)))
  ENDDO
  PRINT *, (v1 - abs(la(10)))
  f1 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1373(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1373(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 11
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = v1
  v1 = -1
  f1 = ((g0 + -3) * la(6))
  IF (f0 .GT. 0) THEN
    CALL proc1374(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1374(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 0
  la(3) = mod(9, 5)
  IF (la(9) .LE. la(12)) THEN
    v1 = g3
  ELSE
    g1 = abs((g3 + 2))
  ENDIF
  IF (g0 .GE. (la(3) - g1)) THEN
    la(3) = (8 - -5)
  ELSE
    f1 = mod(4, 6)
  ENDIF
  g0 = la(9)
  IF (max(g1, 11) .EQ. la(12)) g0 = (la(6) * g1)
  IF (f0 .GT. 0) THEN
    CALL proc1375(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1375(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 1
  v2 = -3
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = 15
  g1 = g2
  DO v1 = 0, 3
    DO g2 = 2, 5
      v0 = ((0 / (6 + 1)) * 1)
      g1 = f0
    ENDDO
    DO g1 = 2, 2
      g3 = (mod(11, 8) - mod(v3, 4))
    ENDDO
  ENDDO
  DO v3 = 0, 3
    v1 = la(11)
    g2 = f1
  ENDDO
  g2 = abs((v3 - 11))
  g0 = (mod(12, 8) + -1)
  IF (.NOT. ((la(1) - la(6)) .LE. la(10))) THEN
    IF ((la(1) - g3) .EQ. (11 - la(5)) .AND. (5 + 12) .LT. g2) THEN
      g1 = v2
    ENDIF
    g1 = 1
  ELSE
    IF (la(8) .GT. (la(4) - 10)) g3 = max(1, 5)
    PRINT *, abs(f1)
  ENDIF
  PRINT *, la(12)
  IF (abs(-1) .LE. (12 + -3) .AND. la(12) .EQ. 12) v0 = mod(-3, 3)
  IF (f0 .GT. 0) THEN
    CALL proc1371(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1376(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = max(v0, -3)
  v0 = (max(la(11), la(5)) - (f1 - la(9)))
  IF (f0 .GT. 0) THEN
    CALL proc1377(f0 - 1, f1)
  ENDIF
  CALL proc1422(3, f1)
  CALL proc1426(3, f1)
END

SUBROUTINE proc1377(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 0
  v2 = 2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(9) = mod((14 * 5), 6)
  f1 = v1
  IF ((f1 - la(11)) .NE. la(6) .OR. max(la(2), 8) .LT. la(2)) THEN
    IF (la(12) .EQ. la(12)) g2 = abs(3)
  ELSE
    g2 = f0
    v1 = la(5)
  ENDIF
  v2 = -3
  v3 = 8
  IF (mod(la(5), 7) .GE. g0 .OR. la(7) .EQ. (la(9) * g3)) f1 = la(6)
  g2 = mod(1, 4)
  v3 = 10
  v2 = (0 / (6 + 2))
  IF (f0 .GT. 0) THEN
    CALL proc1378(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1378(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (f1 .EQ. mod(g2, 8) .OR. v0 .LT. 11) g3 = (la(1) * -4)
  DO g0 = 2, 4
    la(4) = la(6)
    f1 = 0
  ENDDO
  DO f1 = 0, 1
    la(5) = 1
    DO g3 = 0, 0
      g1 = (max(v0, 2) - abs(la(5)))
      la(6) = (abs(la(10)) - la(4))
    ENDDO
  ENDDO
  DO g0 = 2, 5
    IF (mod(10, 4) .LE. 14 .AND. max(la(9), 13) .GE. la(11)) v0 = 4
    IF (.NOT. (max(la(10), 15) .EQ. (la(4) + -2))) f1 = (2 - -3)
  ENDDO
  la(7) = max(11, v0)
  la(7) = (-3 + la(6))
  DO v1 = 0, 4
    g0 = g1
  ENDDO
  IF (15 .NE. (-1 / (6 + la(11))) .AND. (12 - 8) .EQ. mod(f1, 7)) THEN
    f1 = (abs(la(2)) + 1)
    v1 = (max(v1, 8) - (g1 * -1))
  ENDIF
  g3 = abs(15)
  g0 = (la(3) + abs(5))
  IF (f0 .GT. 0) THEN
    CALL proc1376(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1379(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 13
  v2 = 13
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = (13 + (v0 + v3))
  g3 = 4
  la(9) = v3
  g3 = (abs(la(5)) / (6 + f0))
  la(3) = 1
  DO g0 = 1, 4
    g2 = v2
    la(1) = max(14, -1)
  ENDDO
  v3 = v3
  v1 = (abs(la(11)) * la(5))
  g2 = (0 * 9)
  IF (f0 .GT. 0) THEN
    CALL proc1380(f0 - 1, (0 + 8))
  ENDIF
  CALL proc1429(3, (0 + (la(3) / (3 + -3))))
  CALL proc1432(3, v0)
END

SUBROUTINE proc1380(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 11
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 8
  IF (f0 .GT. 0) THEN
    CALL proc1381(f0 - 1, (0 + 6))
  ENDIF
END

SUBROUTINE proc1381(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (la(12) .NE. 10 .AND. (v1 + 11) .LT. v1) v3 = mod(8, 5)
  PRINT *, ((v1 / (3 + la(9))) / (5 + la(2)))
  IF ((6 + g3) .NE. la(1) .OR. la(1) .EQ. g2) THEN
    IF (.NOT. ((f1 * 0) .EQ. la(7))) THEN
      v2 = (4 * 5)
      g2 = 5
    ELSE
      g1 = mod(la(6), 5)
      v3 = ((la(7) - g1) - 1)
    ENDIF
  ELSE
    IF ((-2 * 5) .EQ. (la(3) * 5) .OR. abs(9) .GE. (v0 / (6 + 6))) v1 = abs(la(6))
    g0 = -5
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1382(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1382(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((1 - la(5)) .NE. 11) v0 = g0
  g1 = 15
  g2 = -3
  g2 = ((v0 / (2 + 2)) * v2)
  g3 = (max(1, g2) - la(12))
  v0 = 14
  g3 = (abs(9) + max(la(10), 5))
  v2 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1379(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1383(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -1
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = g1
  f1 = (mod(la(7), 5) - (g0 * f0))
  f1 = mod((3 / (4 + la(2))), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1384(f0 - 1, f1)
  ENDIF
  CALL proc1437(3, v1)
  CALL proc1443(3, v2)
END

SUBROUTINE proc1384(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = (max(la(2), -2) + abs(la(8)))
  g1 = 1
  PRINT *, (mod(9, 3) * v1)
  f1 = max(6, g0)
  IF (la(7) .LT. (-2 + 13) .OR. (7 + 5) .LT. (4 / (3 + v2))) THEN
    IF ((11 - la(11)) .EQ. max(11, g3) .OR. v2 .GT. mod(g1, 4)) g3 = 4
    IF (mod(la(1), 2) .EQ. (2 + g1)) THEN
      la(12) = (3 + 8)
    ELSE
      IF ((-1 + -3) .GE. max(11, la(9))) g1 = g0
    ENDIF
  ELSE
    DO v2 = 2, 6
      g1 = (9 - (f0 - -4))
    ENDDO
    v0 = ((8 + 2) - max(-1, g2))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1385(f0 - 1, (0 + max(14, g3)))
  ENDIF
END

SUBROUTINE proc1385(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g0 = 0, 3
    IF (la(6) .NE. v1) g3 = (7 / (2 + g0))
  ENDDO
  g0 = la(11)
  la(1) = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1386(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1386(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (-1 .EQ. -5) v0 = 0
  v0 = la(4)
  g1 = mod(2, 7)
  la(11) = ((g2 * 5) - la(12))
  v1 = mod(la(2), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1387(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1387(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 3, 7
    IF (.NOT. ((2 / (6 + 14)) .NE. mod(8, 2))) g0 = la(12)
  ENDDO
  v1 = abs((v1 - v0))
  IF (6 .EQ. 8 .AND. f1 .GE. (13 - -3)) THEN
    la(1) = g0
  ENDIF
  g3 = g1
  v0 = abs(v1)
  v2 = abs(v2)
  IF (f0 .GT. 0) THEN
    CALL proc1388(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1388(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = -2
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(10)
  v3 = ((7 * 7) / (6 + 11))
  g2 = 13
  IF (.NOT. (v0 .LT. la(5))) g0 = (v0 * v1)
  g2 = 7
  IF (max(la(8), v0) .GT. v3 .OR. mod(g2, 7) .LT. v2) THEN
    g2 = abs(la(7))
  ELSE
    la(7) = 13
  ENDIF
  la(5) = (1 + -3)
  v0 = (g2 - mod(-4, 8))
  IF (f0 .GT. 0) THEN
    CALL proc1383(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1389(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 9
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = (mod(la(1), 5) / (3 + v3))
  v1 = 10
  IF (.NOT. (g1 .LE. v0)) g2 = 12
  IF (f0 .GT. 0) THEN
    CALL proc1390(f0 - 1, 6)
  ENDIF
  CALL proc1447(3, f1)
  CALL proc1453(3, v1)
END

SUBROUTINE proc1390(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = 14
  g2 = mod((la(8) * la(9)), 3)
  f1 = abs((f0 - 3))
  f1 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1391(f0 - 1, (0 + mod(14, 5)))
  ENDIF
END

SUBROUTINE proc1391(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 13
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(11) .NE. (g2 + v2) .AND. mod(g0, 2) .GE. max(9, 6)) g3 = (la(3) * 8)
  PRINT *, (mod(la(10), 5) * 14)
  IF (1 .EQ. (v0 / (2 + 11))) THEN
    IF ((-3 / (5 + 2)) .LE. 8 .AND. (-2 + -2) .GE. abs(v0)) THEN
      v0 = g0
      v0 = ((1 / (4 + -2)) - (v2 + 5))
    ELSE
      g1 = la(10)
    ENDIF
    DO f1 = 0, 3
      v0 = max(la(11), g3)
      g2 = abs(6)
    ENDDO
  ELSE
    v1 = max(0, g2)
  ENDIF
  IF (-4 .GE. (f0 / (3 + 6)) .OR. 4 .LT. max(la(3), 0)) v0 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1392(f0 - 1, (0 + la(8)))
  ENDIF
END

SUBROUTINE proc1392(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 14
  v2 = 8
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (5 .EQ. max(-5, la(3)) .OR. (-5 - 10) .GT. la(11)) THEN
    la(2) = max(15, 11)
  ENDIF
  DO v0 = 3, 5
    PRINT *, max(v2, g1)
  ENDDO
  v2 = (1 + f0)
  g0 = max(7, la(1))
  v3 = 7
  g2 = ((g0 - f1) * g3)
  DO v0 = 3, 7
    IF (.NOT. ((f1 + la(1)) .GE. 4)) g0 = la(12)
    IF (mod(v1, 4) .GE. -2 .AND. (v2 + 2) .LT. 12) THEN
      f1 = ((la(5) + v1) - la(2))
      g3 = la(6)
    ELSE
      v3 = 15
      v3 = abs(abs(2))
    ENDIF
  ENDDO
  v2 = 4
  PRINT *, max(14, 13)
  g1 = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc1393(f0 - 1, (0 + mod(f1, 3)))
  ENDIF
END

SUBROUTINE proc1393(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -4
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(f1, 5) .NE. g2 .AND. 12 .EQ. abs(-5)) g1 = abs(-2)
  la(6) = abs((la(6) / (3 + 14)))
  IF (g1 .EQ. mod(-4, 7) .OR. g0 .LT. 13) THEN
    IF (.NOT. (la(10) .LE. mod(-5, 8))) g0 = 9
    IF (.NOT. ((f0 / (5 + 4)) .GT. la(8))) THEN
      v1 = max(2, 4)
      f1 = 1
    ENDIF
  ELSE
    g1 = max(0, 14)
  ENDIF
  v1 = f1
  IF (5 .GT. (f0 * v0)) THEN
    IF ((3 * la(10)) .GT. (3 / (2 + v0)) .OR. (g2 * la(3)) .LE. la(5)) g2 = max(8, g0)
  ELSE
    PRINT *, f1
    f1 = max(2, la(9))
  ENDIF
  PRINT *, la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1389(f0 - 1, (0 + 6))
  ENDIF
END

SUBROUTINE proc1394(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = abs(mod(-3, 7))
  IF (.NOT. (6 .GE. (5 + 12))) THEN
    g2 = (abs(g0) * 10)
    IF (9 .LE. mod(la(3), 7) .AND. mod(3, 8) .GE. (15 - 2)) g0 = (-4 / (4 + la(7)))
  ELSE
    g2 = la(8)
  ENDIF
  g2 = 7
  g3 = 2
  DO v0 = 2, 2
    g1 = 11
  ENDDO
  g3 = g0
  g1 = (abs(la(12)) + la(12))
  IF (max(la(3), 0) .LE. abs(9) .AND. la(6) .EQ. max(g0, v1)) v0 = (-1 / (6 + 9))
  g3 = g0
  DO v1 = 2, 2
    g3 = mod(3, 3)
    f1 = ((la(3) + -4) * la(11))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1395(f0 - 1, (0 + (-5 + la(7))))
  ENDIF
  CALL proc1456(3, 8)
  CALL proc1461(3, f1)
END

SUBROUTINE proc1395(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (abs(g3) .LT. 13 .AND. (-5 - -1) .NE. (2 / (4 + g2))) THEN
    la(5) = (11 / (6 + g3))
    f1 = la(9)
  ELSE
    g2 = -2
  ENDIF
  IF (.NOT. (f0 .EQ. (g1 * v1))) v0 = (f0 - f1)
  IF (.NOT. (11 .GE. (g2 + -4))) THEN
    IF (1 .NE. mod(g0, 5) .AND. 5 .EQ. (la(2) * f1)) THEN
      g2 = v0
      g3 = f1
    ENDIF
  ELSE
    DO g2 = 1, 2
      f1 = (2 - abs(la(7)))
    ENDDO
    DO v1 = 1, 4
      g2 = 3
    ENDDO
  ENDIF
  v2 = f1
  g0 = f0
  g0 = la(5)
  g1 = abs(-3)
  IF (f0 .GT. 0) THEN
    CALL proc1396(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1396(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = v2
  g0 = 0
  f1 = abs(la(8))
  v0 = (abs(-2) + 0)
  f1 = 14
  PRINT *, la(11)
  DO g2 = 1, 4
    v2 = abs(f1)
  ENDDO
  IF (12 .LT. 1 .OR. la(6) .LE. la(8)) g2 = (-5 - 7)
  la(6) = (la(12) * 14)
  IF (f0 .GT. 0) THEN
    CALL proc1394(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc1397(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 1, 4
    DO g2 = 2, 2
      v1 = 2
      g0 = (1 * la(10))
    ENDDO
    g2 = la(11)
  ENDDO
  la(11) = 7
  IF (mod(9, 6) .GE. abs(4) .AND. la(5) .LE. max(g2, g3)) THEN
    IF (f0 .EQ. (f0 - 15) .AND. 12 .LE. (la(3) + 0)) THEN
      IF (abs(6) .GT. v0 .AND. v1 .NE. 1) g1 = 9
      PRINT *, 15
    ELSE
      g0 = (mod(f0, 8) - 0)
      g3 = f0
    ENDIF
    v0 = la(7)
  ELSE
    DO g3 = 3, 7
      PRINT *, 3
      g0 = -4
    ENDDO
    IF (.NOT. (max(8, 2) .GT. 5)) g0 = mod(6, 3)
  ENDIF
  f1 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1398(f0 - 1, v0)
  ENDIF
  CALL proc1467(3, (0 + (v1 / (3 + la(9)))))
  CALL proc1471(3, (0 + 1))
END

SUBROUTINE proc1398(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = ((12 * v1) + f1)
  la(9) = max(1, la(3))
  v0 = 9
  IF (10 .EQ. (la(1) / (2 + 14))) f1 = abs(0)
  IF (f0 .GT. 0) THEN
    CALL proc1399(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1399(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (g3 .GE. 13)) f1 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1400(f0 - 1, (0 + max(-2, v1)))
  ENDIF
END

SUBROUTINE proc1400(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 13
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (mod(v0, 3) / (3 + 12))
  v1 = 10
  IF (max(la(2), 8) .NE. (g2 + 9)) THEN
    IF (.NOT. (max(12, 8) .GT. (la(3) / (3 + la(9))))) THEN
      g2 = abs((-4 - g2))
      v0 = max(14, la(4))
    ENDIF
  ENDIF
  IF ((6 / (6 + la(1))) .LE. mod(g0, 7) .AND. g1 .GT. v2) g3 = max(g3, 6)
  la(10) = 0
  v0 = -3
  la(12) = -2
  IF (max(g2, la(2)) .GE. -4) THEN
    PRINT *, ((la(12) - 6) - 9)
  ELSE
    la(5) = max(v1, la(4))
    v1 = 13
  ENDIF
  PRINT *, mod(la(10), 8)
  g1 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1397(f0 - 1, (0 + g0))
  ENDIF
END

SUBROUTINE proc1401(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (la(1) .EQ. abs(-3)) v1 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1402(f0 - 1, 6)
  ENDIF
  CALL proc1474(2, 0)
  CALL proc1480(2, (0 + abs(11)))
END

SUBROUTINE proc1402(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g0 .LE. (3 * -2) .OR. la(1) .LE. (g3 / (6 + 1))) v0 = mod(1, 6)
  g3 = la(2)
  g2 = f0
  DO g3 = 1, 2
    v0 = la(12)
  ENDDO
  g0 = (-2 - (v0 + f1))
  PRINT *, (la(3) - (-3 - la(12)))
  g2 = g2
  v0 = la(1)
  IF (f0 .GT. 0) THEN
    CALL proc1403(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1403(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 9
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = la(5)
  DO f1 = 1, 5
    la(8) = 1
    IF (max(15, v0) .LT. (4 * g2)) g2 = (13 * la(9))
  ENDDO
  la(8) = (4 / (6 + la(5)))
  PRINT *, (mod(la(10), 6) + (11 + g3))
  IF (-3 .NE. (2 + la(4)) .OR. la(6) .LT. mod(-1, 7)) g2 = (la(2) + la(11))
  DO g1 = 3, 5
    PRINT *, max(la(5), 15)
  ENDDO
  g0 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1404(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc1404(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 2
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v3 = (abs(0) - max(9, -3))
  g1 = mod(max(la(12), g1), 6)
  v1 = (g0 / (6 + 9))
  IF ((8 + g1) .LT. (-2 - 7)) g0 = 5
  IF (f0 .GT. 0) THEN
    CALL proc1405(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1405(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 6
  v2 = 11
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = v3
  DO g1 = 0, 1
    v2 = 4
    v0 = v3
  ENDDO
  v3 = (la(11) / (5 + 13))
  IF (la(8) .GE. (la(11) + 0) .OR. la(9) .GE. (15 + 6)) v3 = g1
  la(6) = 15
  IF (la(12) .NE. (-2 - 1)) v0 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1406(f0 - 1, (0 + (f0 + 13)))
  ENDIF
END

SUBROUTINE proc1406(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 0
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (g3 + g2)
  la(1) = 0
  g0 = g3
  la(7) = (v1 - la(7))
  v0 = (f1 + (la(4) - la(6)))
  f1 = max(g3, 8)
  IF (la(5) .GT. (9 / (3 + la(4))) .OR. la(6) .LT. la(7)) THEN
    la(6) = f0
    PRINT *, 13
  ELSE
    IF (.NOT. (mod(v1, 6) .GT. 9)) g2 = (f0 * 13)
  ENDIF
  la(7) = -4
  la(8) = g2
  g2 = mod(-3, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1401(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1407(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (abs(la(3)) .LE. la(1) .AND. -3 .GT. max(9, 6)) THEN
    IF (-4 .LE. 8 .OR. la(12) .NE. -3) THEN
      g0 = mod(la(6), 8)
      f1 = 4
    ELSE
      v0 = 4
    ENDIF
    g3 = la(10)
  ENDIF
  v0 = max(4, la(12))
  g2 = v0
  g1 = la(11)
  PRINT *, g2
  la(4) = la(2)
  g1 = (abs(9) - abs(la(9)))
  g2 = max(la(6), 7)
  PRINT *, g1
  IF (f0 .GT. 0) THEN
    CALL proc1408(f0 - 1, 5)
  ENDIF
  CALL proc1486(2, (0 + 7))
  CALL proc1489(2, 11)
END

SUBROUTINE proc1408(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 10
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = mod(11, 3)
  DO g3 = 0, 0
    IF (.NOT. ((-3 * la(12)) .LE. (7 / (2 + -5)))) g2 = (la(9) * 6)
  ENDDO
  g3 = 5
  g3 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc1409(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1409(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 13
  v2 = 5
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = (0 + la(6))
  v3 = 4
  IF (.NOT. (mod(la(11), 4) .NE. abs(g1))) THEN
    DO g1 = 2, 2
      IF (8 .EQ. la(8) .OR. la(12) .LT. la(12)) v2 = (6 * 7)
    ENDDO
  ELSE
    PRINT *, max(la(7), 3)
  ENDIF
  DO v0 = 0, 3
    g3 = 12
    g0 = 9
  ENDDO
  IF (la(6) .NE. max(v1, v3)) v3 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1410(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1410(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = abs(11)
  PRINT *, max(la(4), 2)
  IF (14 .NE. 4 .AND. mod(g0, 4) .GE. (la(5) + la(6))) THEN
    g3 = (abs(v2) * la(3))
    v2 = 14
  ENDIF
  f1 = la(4)
  v0 = 1
  PRINT *, (6 * la(8))
  IF (.NOT. (mod(8, 4) .EQ. 3)) THEN
    la(7) = (12 - abs(la(8)))
  ELSE
    IF (.NOT. ((la(7) * -3) .GT. la(4))) g1 = 9
    g3 = la(10)
  ENDIF
  la(11) = 6
  f1 = g0
  v1 = (la(1) - 6)
  IF (f0 .GT. 0) THEN
    CALL proc1411(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1411(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 7
  v2 = 7
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 7
  g2 = mod((la(8) - -4), 6)
  IF (abs(1) .NE. (5 + 9)) THEN
    v2 = 15
  ENDIF
  DO g2 = 2, 4
    la(5) = la(3)
  ENDDO
  g3 = la(11)
  g3 = f1
  g0 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1407(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1412(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = max(12, g3)
  PRINT *, (3 + g0)
  PRINT *, abs((14 + f1))
  IF (la(4) .LE. (la(8) * la(12)) .OR. (la(1) - 7) .GT. 9) THEN
    v0 = la(5)
  ELSE
    IF ((9 - f1) .GT. g0 .OR. mod(10, 3) .LT. g1) f1 = abs(-2)
    DO v0 = 3, 3
      PRINT *, 12
      la(8) = (1 / (5 + g2))
    ENDDO
  ENDIF
  g3 = (mod(-5, 8) - g1)
  IF (mod(f0, 4) .LE. v0) g3 = max(g0, la(6))
  v1 = ((9 / (6 + 12)) * f1)
  g3 = 9
  IF (14 .EQ. g0) v1 = la(9)
  IF (11 .GT. 4) v0 = (9 / (5 + la(11)))
  IF (f0 .GT. 0) THEN
    CALL proc1413(f0 - 1, -3)
  ENDIF
  CALL proc1493(2, v0)
  CALL proc1499(2, v1)
END

SUBROUTINE proc1413(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 0
  v2 = -2
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v3 = ((5 * f1) / (6 + 11))
  la(9) = 9
  la(7) = (abs(la(6)) + g1)
  g0 = (la(8) + g3)
  la(12) = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1414(f0 - 1, (0 + g2))
  ENDIF
END

SUBROUTINE proc1414(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -1
  v2 = 5
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = abs((la(8) / (3 + f1)))
  DO v1 = 0, 4
    g2 = abs(11)
  ENDDO
  IF (la(5) .GT. 12 .OR. la(11) .NE. (la(12) - g2)) THEN
    g1 = ((15 / (2 + v0)) - (f1 * 0))
  ENDIF
  DO g0 = 1, 1
    IF ((10 + la(4)) .LT. v0) THEN
      PRINT *, abs(v0)
      g1 = max(0, la(7))
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1415(f0 - 1, (0 + max(9, la(2))))
  ENDIF
END

SUBROUTINE proc1415(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (f1 .NE. v0) v1 = (2 - f1)
  g3 = f1
  la(4) = (max(-5, g0) - 6)
  f1 = mod(max(la(7), la(10)), 4)
  IF (f0 .GT. 0) THEN
    CALL proc1416(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc1416(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 5
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = ((-5 + 3) + v1)
  IF (f0 .GT. 0) THEN
    CALL proc1412(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1417(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(12)
  g2 = 13
  v0 = -2
  IF (.NOT. ((la(3) + 14) .NE. (7 + la(9)))) THEN
    g2 = -2
  ENDIF
  g1 = 15
  IF (abs(g3) .LT. (9 - 6)) g2 = max(14, -5)
  f1 = mod((f0 + 5), 7)
  g1 = (abs(v0) + (9 + 1))
  v1 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1418(f0 - 1, v1)
  ENDIF
  CALL proc1502(2, 5)
  CALL proc1508(2, (0 + abs(la(6))))
END

SUBROUTINE proc1418(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (1 .LT. -3) THEN
    v1 = (mod(v1, 4) * 11)
  ENDIF
  g0 = (-5 / (4 + g1))
  v0 = 15
  IF (mod(la(7), 7) .EQ. max(2, 3) .OR. max(v0, g1) .EQ. mod(6, 4)) THEN
    IF (mod(g0, 4) .GE. (g2 * f1) .AND. (-3 * 9) .LT. 5) v0 = (f1 - 0)
    DO g0 = 1, 3
      g2 = 4
    ENDDO
  ELSE
    IF (-2 .LE. 8) THEN
      g1 = -3
      g2 = -2
    ELSE
      g0 = mod((6 + g0), 8)
      v1 = g0
    ENDIF
  ENDIF
  DO g3 = 1, 1
    v1 = 11
    la(8) = (14 + (2 / (6 + 6)))
  ENDDO
  f1 = max(la(10), 3)
  PRINT *, g2
  g3 = 0
  la(1) = 8
  IF (f0 .GT. 0) THEN
    CALL proc1419(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1419(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 12
  v2 = 4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = mod((9 + la(4)), 7)
  v0 = (mod(5, 3) + (la(1) * g1))
  PRINT *, abs(mod(la(5), 3))
  DO v0 = 0, 0
    IF (.NOT. ((10 + f1) .LT. 3)) THEN
      PRINT *, la(12)
    ENDIF
    g1 = la(2)
  ENDDO
  v0 = f0
  PRINT *, max(6, v2)
  IF (f0 .GT. 0) THEN
    CALL proc1420(f0 - 1, (0 + (10 * v1)))
  ENDIF
END

SUBROUTINE proc1420(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (v0 .LE. v0 .OR. (-1 / (6 + -1)) .GT. la(11)) v1 = 1
  g0 = ((13 / (5 + 0)) - (la(5) / (4 + 2)))
  IF (.NOT. (g2 .LE. 15)) THEN
    v1 = ((g1 - v1) + -4)
  ELSE
    g1 = la(12)
  ENDIF
  v0 = 4
  v0 = -5
  g0 = 7
  g1 = (10 / (3 + -4))
  v1 = la(7)
  la(9) = (la(2) * v1)
  IF (mod(f1, 8) .GT. la(3)) THEN
    IF (.NOT. (max(la(4), 9) .GT. mod(-4, 3))) g0 = v1
    la(6) = g3
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1421(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1421(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 5
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v2 = 2, 6
    la(11) = la(2)
    v0 = la(9)
  ENDDO
  g2 = mod(max(10, v0), 7)
  la(5) = la(10)
  v3 = abs(v0)
  IF ((5 * 13) .GT. -2 .OR. max(g3, -5) .NE. (v0 * v2)) v2 = la(2)
  IF (v2 .LE. -3) v2 = 12
  IF (.NOT. (max(15, -4) .EQ. v1)) v0 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1417(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1422(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 11
  v2 = 1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, 3
  g0 = ((la(9) * 3) - 3)
  DO g0 = 1, 2
    PRINT *, abs((la(12) / (2 + g1)))
  ENDDO
  la(7) = abs(la(7))
  IF (f0 .GT. 0) THEN
    CALL proc1423(f0 - 1, v1)
  ENDIF
  CALL proc1514(2, v0)
  CALL proc1518(2, 6)
END

SUBROUTINE proc1423(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 10
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (10 / (6 + g2))
  IF ((-4 + la(8)) .LT. (12 / (3 + la(12))) .OR. v2 .EQ. abs(10)) v2 = (6 * 1)
  g2 = 2
  v0 = (-1 - 4)
  g2 = 13
  v1 = g0
  DO f1 = 0, 3
    IF (la(10) .EQ. (la(11) * 11)) g1 = max(v1, f1)
    g1 = (2 / (5 + 0))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1424(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1424(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 6
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = v0
  v0 = (v2 - mod(g2, 3))
  DO g1 = 3, 6
    PRINT *, mod(max(la(10), 14), 2)
    g0 = g0
  ENDDO
  la(10) = max(6, -1)
  f1 = abs(f0)
  v0 = la(11)
  g2 = g3
  PRINT *, (4 + (15 + la(2)))
  IF ((la(4) + -2) .GE. 2 .OR. mod(f1, 8) .LT. (v0 - -5)) THEN
    g3 = abs((la(4) + 11))
    f1 = ((13 / (4 + v0)) + 14)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1425(f0 - 1, (0 + (la(5) / (5 + g2))))
  ENDIF
END

SUBROUTINE proc1425(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 5
  v2 = 1
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = -5
  IF (f0 .GT. 0) THEN
    CALL proc1422(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1426(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = (max(11, la(7)) * la(1))
  g0 = 12
  IF ((11 * 3) .LE. f1 .OR. 9 .EQ. abs(6)) g2 = -3
  v0 = g1
  la(9) = (abs(la(10)) / (4 + 5))
  IF (f0 .GT. 0) THEN
    CALL proc1427(f0 - 1, (0 + (6 - -2)))
  ENDIF
  CALL proc1524(2, v0)
  CALL proc1528(2, (0 + 5))
END

SUBROUTINE proc1427(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 13
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = mod(-4, 5)
  DO f1 = 3, 7
    v1 = la(3)
    v0 = la(12)
  ENDDO
  g2 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc1428(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1428(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = 11
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(10) = v2
  IF (f1 .LT. 8 .AND. mod(v2, 5) .LT. g0) THEN
    g1 = (abs(v1) - mod(10, 8))
    g0 = 4
  ELSE
    DO g0 = 0, 1
      v2 = (f1 + abs(la(6)))
      g1 = mod(1, 8)
    ENDDO
  ENDIF
  IF (3 .GT. (la(2) * 13)) g0 = 2
  PRINT *, v2
  IF (.NOT. (g0 .LE. 4)) v3 = max(la(1), 9)
  IF (f0 .GT. 0) THEN
    CALL proc1426(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1429(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 12
  v2 = 11
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(5) = (-1 - (13 + g2))
  IF (abs(la(10)) .EQ. (13 - 15) .OR. (g2 / (2 + g0)) .GE. 4) v2 = (12 * -3)
  PRINT *, 3
  PRINT *, la(11)
  PRINT *, -4
  v3 = f0
  f1 = abs(la(10))
  v0 = ((2 / (5 + la(2))) + (1 - -4))
  IF (f0 .GT. 0) THEN
    CALL proc1430(f0 - 1, 6)
  ENDIF
  CALL proc1534(2, 5)
  CALL proc1539(2, (0 + max(2, -5)))
END

SUBROUTINE proc1430(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -3
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (mod(la(7), 2) .GE. g0)) g3 = 3
  IF ((-2 * 12) .LE. mod(6, 4) .AND. (f1 - 6) .GE. 12) v0 = (v0 - la(1))
  PRINT *, la(5)
  IF ((-3 / (3 + f0)) .LT. la(7)) THEN
    g1 = max(la(9), 3)
    v1 = 14
  ENDIF
  PRINT *, g1
  g3 = (la(8) - (la(8) + la(8)))
  g0 = mod(max(la(5), -4), 6)
  IF (f0 .GT. 0) THEN
    CALL proc1431(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1431(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -1
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = 10
  g3 = 7
  v0 = -2
  f1 = 13
  DO v2 = 1, 3
    g0 = (2 - g1)
  ENDDO
  g0 = 2
  la(9) = 4
  g3 = 5
  la(10) = 6
  v1 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1429(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1432(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, g3
  PRINT *, (la(2) + max(g3, g0))
  IF (6 .LE. abs(-4)) THEN
    DO g0 = 2, 2
      la(5) = g1
      v1 = 11
    ENDDO
    f1 = 13
  ELSE
    IF ((14 * la(12)) .GE. 2) v1 = 12
  ENDIF
  v1 = ((f0 - la(4)) * la(1))
  v1 = mod(v1, 8)
  v0 = mod(12, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1433(f0 - 1, f1)
  ENDIF
  CALL proc1542(2, 9)
  CALL proc1545(2, (0 + 14))
END

SUBROUTINE proc1433(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (la(9) .NE. 6 .OR. f1 .GE. (g1 + g0)) THEN
    g0 = 12
  ELSE
    g0 = la(11)
  ENDIF
  g3 = g2
  IF (.NOT. ((la(3) / (3 + 0)) .GE. 11)) g0 = la(11)
  IF ((5 * 4) .GT. max(2, v1)) THEN
    DO g3 = 3, 7
      g2 = (max(v0, -3) / (5 + la(8)))
      la(12) = abs(abs(12))
    ENDDO
    IF ((la(12) + 4) .GE. 12) THEN
      v1 = (g3 - (g2 * 3))
    ELSE
      g2 = (13 * g2)
    ENDIF
  ELSE
    g2 = max(-5, g1)
    v0 = ((7 / (5 + 10)) * -4)
  ENDIF
  g0 = -4
  g0 = ((-2 - la(5)) - abs(la(8)))
  g0 = mod(v0, 3)
  IF (abs(14) .GE. (v1 * 5) .OR. g3 .EQ. max(0, g1)) THEN
    la(10) = f0
    PRINT *, (abs(7) + g0)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1434(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1434(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 6
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (abs(la(6)) - f0)
  IF (f0 .GT. 0) THEN
    CALL proc1435(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1435(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((la(11) + 5) + la(6))
  g1 = 3
  v1 = max(14, la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1436(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1436(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 11
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = v2
  la(4) = 11
  v3 = ((5 * v1) * 14)
  v3 = mod(v3, 4)
  g3 = la(6)
  IF (5 .LE. la(8) .AND. (la(4) - 9) .EQ. (6 / (6 + la(5)))) THEN
    IF (f0 .LE. (g0 * g2) .AND. (4 / (4 + 9)) .GT. abs(2)) f1 = abs(f1)
    IF (.NOT. (mod(9, 3) .LT. 3)) THEN
      la(8) = v1
      v1 = max(3, -3)
    ENDIF
  ELSE
    DO v3 = 0, 0
      g2 = -2
      v0 = la(1)
    ENDDO
  ENDIF
  v2 = (max(la(5), la(9)) * 9)
  g0 = (-5 - 12)
  g1 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1432(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1437(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 1
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = la(10)
  PRINT *, (mod(7, 4) + la(8))
  DO v3 = 2, 3
    PRINT *, 7
    IF (mod(11, 2) .NE. (g0 - la(9))) THEN
      v2 = 0
      f1 = f0
    ENDIF
  ENDDO
  DO v3 = 3, 7
    IF (-4 .EQ. (la(10) / (5 + la(9))) .AND. -4 .GE. 8) THEN
      g3 = (f1 - (la(5) * g1))
    ENDIF
  ENDDO
  IF (la(4) .LT. (la(7) / (3 + 13)) .OR. la(6) .GT. (-4 / (5 + -1))) THEN
    v1 = (f0 / (5 + 14))
    v3 = (8 * g2)
  ELSE
    IF (.NOT. (la(11) .LE. 10)) THEN
      f1 = 12
      f1 = (5 * v0)
    ELSE
      la(4) = abs(abs(v3))
      v1 = la(6)
    ENDIF
  ENDIF
  PRINT *, ((13 / (6 + g1)) / (4 + 15))
  IF (f0 .GT. 0) THEN
    CALL proc1438(f0 - 1, 0)
  ENDIF
  CALL proc1550(2, 10)
  CALL proc1553(2, 8)
END

SUBROUTINE proc1438(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, -3
  v2 = f0
  IF ((g3 / (4 + la(4))) .LT. la(1)) v1 = (v2 / (6 + 0))
  DO g2 = 1, 3
    la(8) = max(15, -4)
  ENDDO
  PRINT *, v1
  v2 = -2
  la(10) = (-5 - v1)
  g2 = ((6 + -1) / (2 + f0))
  IF (f0 .GT. 0) THEN
    CALL proc1439(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1439(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = abs((la(5) - 4))
  g3 = max(f1, 1)
  IF (.NOT. ((f0 - 10) .LT. 7)) THEN
    IF (max(g2, la(2)) .GE. f0 .AND. v0 .NE. 7) THEN
      v1 = (9 * 1)
      la(8) = 8
    ENDIF
  ELSE
    IF (15 .GE. 15 .OR. (f1 - 11) .EQ. (2 - v0)) THEN
      v1 = abs(g0)
      g1 = g1
    ENDIF
  ENDIF
  IF (g0 .EQ. f0 .OR. (1 * 6) .LE. (11 * 6)) THEN
    PRINT *, 12
    DO f1 = 2, 6
      IF (.NOT. ((9 - 1) .LT. 2)) g0 = mod(8, 2)
    ENDDO
  ENDIF
  g3 = 13
  DO g1 = 3, 6
    g3 = max(0, 6)
  ENDDO
  IF (g3 .LE. abs(la(9))) THEN
    g0 = g1
  ENDIF
  IF (la(3) .EQ. 9 .OR. (la(1) + -2) .GT. 3) v1 = 0
  IF (f0 .GT. 0) THEN
    CALL proc1440(f0 - 1, (0 + abs(f1)))
  ENDIF
END

SUBROUTINE proc1440(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 10
  v2 = 14
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(9) = (la(1) * la(9))
  IF (.NOT. ((la(7) + 3) .GE. (-2 / (3 + -3)))) THEN
    v2 = (v1 / (4 + g1))
  ELSE
    g1 = la(11)
    g1 = ((11 + -3) - max(4, g1))
  ENDIF
  IF (4 .LE. (v0 * f0)) v3 = (g2 - 1)
  DO v3 = 3, 3
    v1 = la(11)
  ENDDO
  g3 = 15
  g1 = ((g2 + la(11)) * 11)
  f1 = 3
  IF (f0 .GT. 0) THEN
    CALL proc1441(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1441(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 6
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (13 .LT. mod(5, 6) .AND. max(-4, g0) .GE. mod(1, 7)) THEN
    DO v1 = 3, 4
      PRINT *, f0
    ENDDO
    v2 = (v2 * la(8))
  ENDIF
  g1 = mod(1, 3)
  la(4) = mod((v0 * 2), 3)
  g1 = 7
  IF (g2 .NE. mod(13, 4) .AND. (la(11) * g3) .EQ. g3) THEN
    DO v2 = 3, 5
      g1 = abs(4)
      v0 = f1
    ENDDO
  ENDIF
  g3 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1442(f0 - 1, (0 + -2))
  ENDIF
END

SUBROUTINE proc1442(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (-4 .EQ. (la(3) - 10) .AND. (la(3) - la(7)) .EQ. v1) THEN
    g2 = la(12)
  ELSE
    v0 = v1
  ENDIF
  g0 = 13
  la(5) = (g1 + la(1))
  PRINT *, abs(la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1437(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1443(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = max(10, la(10))
  v0 = max(g3, g3)
  g2 = ((la(12) + 3) * -1)
  la(11) = (mod(9, 5) - 12)
  IF (f0 .GT. 0) THEN
    CALL proc1444(f0 - 1, v0)
  ENDIF
  CALL proc1558(2, v2)
  CALL proc1563(2, f1)
END

SUBROUTINE proc1444(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = ((1 - g2) * 11)
  IF ((4 * la(7)) .NE. (f1 * f0)) g1 = (g1 * 3)
  la(6) = 15
  IF (max(la(7), 2) .GT. max(-4, f0) .OR. (la(7) * 7) .NE. mod(-3, 3)) v0 = (la(10) / (5 + 4))
  IF (.NOT. (11 .LT. f1)) v0 = (-2 + 11)
  IF (max(6, 3) .GT. la(2)) g0 = (f1 * v0)
  DO g3 = 0, 2
    PRINT *, abs(max(9, g2))
  ENDDO
  la(2) = f1
  IF (10 .LE. 10) THEN
    g3 = max(-3, -2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1445(f0 - 1, (0 + abs(g2)))
  ENDIF
END

SUBROUTINE proc1445(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 13
  v2 = -4
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (max(5, -2) .GT. la(6)) g0 = g1
  IF ((-2 * la(3)) .NE. 13 .AND. abs(2) .NE. la(8)) g3 = 0
  v0 = mod((v1 / (2 + 6)), 2)
  g1 = mod(3, 8)
  g1 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1446(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1446(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -3
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(11) = la(3)
  la(7) = (la(1) / (4 + la(4)))
  IF ((f1 / (2 + 12)) .EQ. (-4 / (4 + la(5))) .OR. max(11, g3) .NE. 7) THEN
    g3 = (mod(10, 3) * la(12))
  ELSE
    DO v2 = 1, 5
      g1 = ((15 + -3) * 10)
      la(1) = (v2 * 2)
    ENDDO
  ENDIF
  v2 = la(1)
  DO v0 = 0, 4
    IF (mod(la(7), 8) .LT. (f1 - la(11))) g3 = 1
  ENDDO
  DO v0 = 3, 3
    f1 = la(12)
    IF (.NOT. ((la(8) * la(5)) .GT. (13 / (3 + 4)))) g0 = mod(la(1), 5)
  ENDDO
  IF (abs(1) .EQ. (f0 * 4) .AND. (1 + g2) .EQ. (2 + -3)) v0 = mod(la(2), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1443(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1447(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = max(-4, 8)
  v0 = (la(7) - -4)
  IF (f0 .GT. 0) THEN
    CALL proc1448(f0 - 1, (0 + abs(g2)))
  ENDIF
  CALL proc1567(2, 3)
  CALL proc1573(2, v1)
END

SUBROUTINE proc1448(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 5
  v2 = 3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = v0
  la(2) = ((g1 / (6 + 12)) / (4 + la(6)))
  IF (f0 .GT. 0) THEN
    CALL proc1449(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1449(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -3
  v2 = 5
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, abs(f1)
  IF (max(la(11), 7) .GE. mod(v3, 6) .OR. v2 .LE. 2) THEN
    DO v1 = 0, 3
      IF (la(8) .EQ. (8 / (6 + la(2)))) v0 = (g2 - 10)
      la(6) = 2
    ENDDO
  ELSE
    v3 = g1
  ENDIF
  v0 = mod(abs(la(11)), 3)
  g0 = mod(la(6), 3)
  v0 = v2
  IF (4 .NE. 1 .AND. 11 .LT. v2) THEN
    DO g1 = 1, 4
      g0 = f0
      v2 = ((la(10) + g2) - 14)
    ENDDO
  ELSE
    IF (.NOT. (max(14, 7) .GT. la(6))) g0 = f0
    IF ((6 * v3) .GE. la(6)) v2 = (4 + 4)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1450(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1450(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (f0 .LT. abs(f1) .OR. -3 .NE. 2) THEN
    g1 = (3 * -5)
    PRINT *, la(2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1451(f0 - 1, (0 + la(8)))
  ENDIF
END

SUBROUTINE proc1451(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 14
  v2 = 12
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = mod((15 - 5), 2)
  IF ((la(2) + -2) .LE. max(7, 8)) THEN
    PRINT *, -1
  ELSE
    f1 = ((la(1) / (5 + la(5))) * -4)
  ENDIF
  PRINT *, la(12)
  IF ((-4 - 8) .NE. abs(2) .AND. (f0 / (6 + la(1))) .EQ. (0 * 11)) THEN
    la(10) = ((v3 * 12) + f1)
    v2 = 14
  ELSE
    DO v2 = 0, 4
      g1 = ((g1 / (2 + g1)) + mod(la(12), 3))
      PRINT *, la(6)
    ENDDO
  ENDIF
  g3 = max(-3, 6)
  v3 = max(-5, la(7))
  v2 = ((f0 - 12) + (la(1) + 14))
  g3 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1452(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1452(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g3 = 0, 3
    IF ((g0 / (4 + 14)) .GE. mod(la(10), 6) .OR. 8 .NE. (12 / (5 + v0))) THEN
      v2 = la(12)
      f1 = abs(max(g1, g1))
    ENDIF
  ENDDO
  f1 = 2
  PRINT *, (9 + 12)
  g1 = 5
  g1 = mod(max(v2, la(1)), 4)
  v0 = (abs(9) + 15)
  PRINT *, la(10)
  la(9) = abs(la(1))
  IF (f0 .GT. 0) THEN
    CALL proc1447(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1453(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 7
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = la(1)
  f1 = la(8)
  IF (14 .GE. 14 .OR. 13 .LE. mod(10, 6)) THEN
    v2 = max(1, 9)
  ENDIF
  v1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1454(f0 - 1, -1)
  ENDIF
  CALL proc1579(2, 1)
  CALL proc1582(2, 2)
END

SUBROUTINE proc1454(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = v2
  g2 = la(6)
  v2 = abs(8)
  g2 = 7
  v2 = ((la(12) * -5) / (6 + -3))
  v2 = 6
  g2 = 15
  PRINT *, (g0 + abs(3))
  IF (f0 .GT. 0) THEN
    CALL proc1455(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1455(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(6) = (v2 * -5)
  IF (f0 .GT. 0) THEN
    CALL proc1453(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1456(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(10) = v1
  g0 = g3
  la(11) = 3
  IF ((la(2) + la(10)) .LE. g0 .OR. mod(f1, 5) .LE. (la(1) / (3 + la(12)))) g1 = la(6)
  PRINT *, abs(9)
  g2 = -4
  DO g0 = 1, 4
    g1 = f0
    IF (-1 .GT. 5 .OR. (0 + 4) .LE. max(g0, -4)) THEN
      g3 = mod(g0, 4)
    ELSE
      g1 = abs(la(7))
    ENDIF
  ENDDO
  v0 = ((la(7) / (3 + 6)) * -2)
  IF ((15 / (3 + 0)) .NE. (la(4) / (5 + g3)) .AND. (10 * -3) .GT. abs(g0)) THEN
    g2 = 1
    IF ((g0 - la(11)) .EQ. v0 .OR. la(12) .GE. max(10, 2)) v1 = (la(11) * la(11))
  ENDIF
  PRINT *, mod((1 + g0), 4)
  IF (f0 .GT. 0) THEN
    CALL proc1457(f0 - 1, v0)
  ENDIF
  CALL proc1585(2, (0 + (13 * la(4))))
  CALL proc1589(2, (0 + (la(8) + g0)))
END

SUBROUTINE proc1457(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 0
  v2 = 1
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f1 = 0, 4
    v3 = max(-1, -4)
  ENDDO
  v1 = abs(g2)
  g3 = (v3 - 4)
  v0 = la(10)
  g2 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc1458(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1458(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = 3
  PRINT *, ((3 / (4 + 5)) - (la(2) / (2 + 12)))
  IF (f0 .GT. 0) THEN
    CALL proc1459(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1459(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = v0
  PRINT *, ((la(5) / (2 + g1)) + mod(f1, 6))
  v0 = (1 - (14 / (2 + 3)))
  f1 = g0
  DO g2 = 2, 2
    DO g0 = 3, 6
      g1 = max(15, -4)
      g1 = g1
    ENDDO
    g3 = 9
  ENDDO
  IF (abs(f1) .LT. 1 .AND. (5 * la(4)) .LT. v0) g0 = (4 + f1)
  IF (mod(g2, 8) .GT. (6 * la(10)) .OR. (v0 / (6 + 15)) .EQ. 13) THEN
    f1 = 15
    IF (.NOT. (g1 .LE. (9 - 11))) v0 = (4 + g2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1460(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1460(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (11 .GE. mod(la(6), 4) .AND. la(7) .GT. (13 * 14)) g3 = (5 * 9)
  IF ((la(7) * f0) .GT. g3 .AND. 9 .NE. max(g2, g3)) THEN
    g2 = g2
    g3 = (f1 + 9)
  ELSE
    DO g1 = 1, 3
      g2 = (la(1) + abs(-4))
    ENDDO
    IF (14 .GE. (-1 - v1) .AND. la(2) .NE. v1) v1 = g0
  ENDIF
  IF (g0 .NE. g2 .OR. max(g1, g1) .EQ. la(8)) THEN
    IF ((v0 / (6 + 7)) .NE. la(7) .AND. (13 + 4) .LT. la(10)) THEN
      la(4) = max(la(3), 10)
    ELSE
      IF (abs(la(8)) .LE. 14) g0 = 15
      g0 = 11
    ENDIF
  ENDIF
  IF (.NOT. (3 .EQ. 0)) g1 = (la(6) + g2)
  IF (f1 .GE. max(la(4), la(1)) .OR. g0 .GT. max(2, 14)) THEN
    v0 = v1
  ELSE
    f1 = mod(max(-2, v0), 2)
  ENDIF
  v0 = la(7)
  v1 = abs(la(3))
  la(7) = 15
  v0 = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1456(f0 - 1, (0 + (3 + la(12))))
  ENDIF
END

SUBROUTINE proc1461(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = f1
  IF (f0 .GT. 0) THEN
    CALL proc1462(f0 - 1, v1)
  ENDIF
  CALL proc1592(2, (0 + mod(la(2), 3)))
  CALL proc1596(2, -1)
END

SUBROUTINE proc1462(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 9
  v2 = 3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (v3 * 3)
  IF (v2 .NE. mod(11, 2) .AND. (la(11) / (3 + v3)) .EQ. max(f0, g1)) g2 = 1
  DO v3 = 1, 2
    PRINT *, la(2)
    IF (.NOT. (g2 .LE. (3 - la(2)))) v0 = (la(3) / (4 + v2))
  ENDDO
  la(1) = max(-4, g2)
  IF (abs(14) .NE. 5 .AND. 1 .GE. mod(3, 5)) g3 = 5
  DO v3 = 2, 5
    f1 = (la(10) - (-3 + -4))
    g2 = 2
  ENDDO
  la(8) = (g2 * v2)
  v3 = (v1 - 11)
  IF (f0 .GT. 0) THEN
    CALL proc1463(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1463(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = -1
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v2 = 2, 2
    g2 = 13
    g2 = (v3 / (6 + 2))
  ENDDO
  DO v0 = 1, 3
    IF (.NOT. (max(la(8), la(3)) .EQ. 14)) THEN
      PRINT *, 12
    ENDIF
    v2 = -1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1464(f0 - 1, (0 + max(-3, 8)))
  ENDIF
END

SUBROUTINE proc1464(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 11
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = abs(12)
  g1 = max(11, g0)
  v2 = v2
  g2 = abs(f1)
  PRINT *, la(6)
  g0 = ((la(7) - -3) * -3)
  g2 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1465(f0 - 1, (0 + max(g0, la(12))))
  ENDIF
END

SUBROUTINE proc1465(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(10) = f0
  v1 = la(1)
  la(12) = (max(0, -1) * f0)
  IF (f0 .GT. 0) THEN
    CALL proc1466(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc1466(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = mod(max(la(9), 5), 7)
  v1 = ((-1 / (3 + la(7))) * f1)
  g1 = 5
  g3 = 3
  la(1) = 2
  IF (f0 .GT. 0) THEN
    CALL proc1461(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1467(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -2
  v2 = 1
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, g1
  f1 = 5
  IF (f0 .GT. 0) THEN
    CALL proc1468(f0 - 1, v3)
  ENDIF
  CALL proc1602(2, (0 + 2))
  CALL proc1608(2, f1)
END

SUBROUTINE proc1468(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 12
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g0 = 3, 6
    la(4) = (12 * g3)
  ENDDO
  g0 = abs(v1)
  IF (f0 .GT. 0) THEN
    CALL proc1469(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1469(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((12 * la(6)) .LT. la(10) .AND. 6 .EQ. 14) v0 = (la(2) - la(2))
  PRINT *, ((13 / (2 + f0)) * la(6))
  g2 = max(la(12), 4)
  PRINT *, (14 - abs(-5))
  v0 = max(la(12), g0)
  f1 = -1
  la(10) = la(10)
  g0 = -4
  g2 = (4 / (6 + 7))
  PRINT *, abs(max(-1, la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc1470(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1470(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (mod(la(9), 2) / (6 + 12))
  DO v0 = 3, 4
    PRINT *, max(la(8), la(5))
  ENDDO
  IF (la(1) .EQ. f0) THEN
    g0 = 11
    v0 = (f0 - abs(g1))
  ELSE
    g3 = (-5 - (3 - 10))
  ENDIF
  PRINT *, abs(15)
  la(12) = 6
  PRINT *, 2
  g0 = 6
  IF (max(v2, 3) .LE. (3 - 2) .OR. abs(10) .EQ. mod(13, 7)) THEN
    IF ((14 / (4 + la(7))) .GT. (v2 / (5 + la(8))) .OR. abs(g3) .LT. (la(4) - 3)) g1 = la(9)
    v2 = abs((v1 * 0))
  ELSE
    IF (.NOT. (la(10) .GT. 8)) g0 = (-2 * la(9))
    g2 = mod((5 + 13), 5)
  ENDIF
  IF (.NOT. (g1 .NE. (la(4) * 14))) v2 = 5
  PRINT *, ((la(2) / (6 + la(12))) + g3)
  IF (f0 .GT. 0) THEN
    CALL proc1467(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc1471(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = la(9)
  PRINT *, (mod(v1, 2) - -1)
  v0 = f0
  v1 = (la(8) - (g2 * 5))
  IF ((la(2) * 7) .EQ. la(8) .AND. (13 / (6 + -4)) .LE. -1) THEN
    la(10) = (abs(g0) / (3 + -1))
    f1 = max(2, f1)
  ELSE
    IF ((la(3) + g1) .GT. (la(10) * la(9))) THEN
      g0 = -1
      PRINT *, (g1 - mod(la(11), 8))
    ELSE
      g1 = ((f1 * g2) + la(5))
    ENDIF
    PRINT *, max(f0, 9)
  ENDIF
  IF (g3 .NE. (-3 + la(1))) THEN
    PRINT *, 14
    v0 = mod((0 * 0), 8)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1472(f0 - 1, 8)
  ENDIF
  CALL proc1613(2, f1)
  CALL proc1617(2, f1)
END

SUBROUTINE proc1472(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -3
  v2 = 5
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (f0 * -4)
  IF (.NOT. (mod(la(8), 8) .LE. la(7))) THEN
    g2 = ((v3 * la(8)) / (3 + g3))
    PRINT *, ((la(11) / (3 + v3)) * 13)
  ELSE
    PRINT *, max(g2, v3)
    PRINT *, -5
  ENDIF
  g0 = (max(la(4), -4) * 13)
  IF (f0 .GT. 0) THEN
    CALL proc1473(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1473(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (1 - (v2 + 11))
  la(6) = mod((la(1) / (5 + la(11))), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1471(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1474(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (8 / (2 + 10))
  IF (.NOT. ((1 + f1) .NE. 12)) THEN
    PRINT *, f1
  ELSE
    v1 = mod(g2, 7)
    PRINT *, (f0 + (v1 * g3))
  ENDIF
  g0 = (f0 / (6 + g1))
  IF (f0 .GT. 0) THEN
    CALL proc1475(f0 - 1, v1)
  ENDIF
  CALL proc1623(1, 7)
  CALL proc1627(1, 2)
END

SUBROUTINE proc1475(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 5
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (g0 / (2 + la(2)))
  g1 = v2
  f1 = (la(10) - abs(4))
  IF (f0 .GT. 0) THEN
    CALL proc1476(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1476(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 14
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = v0
  IF (f0 .GT. 0) THEN
    CALL proc1477(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1477(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (g2 .LT. (la(1) - -4))) THEN
    la(7) = la(7)
  ELSE
    la(4) = mod(5, 3)
    IF (2 .LE. 6 .AND. 6 .EQ. (v0 / (6 + la(12)))) THEN
      g3 = 0
      v1 = f1
    ENDIF
  ENDIF
  v1 = (f1 / (6 + 15))
  f1 = la(11)
  g3 = 2
  v0 = 13
  IF (f0 .GT. 0) THEN
    CALL proc1478(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1478(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 11
  v2 = -4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = la(11)
  g0 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1479(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1479(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 11
  v2 = 6
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 2, 5
    g3 = max(la(4), 13)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1474(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1480(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = (-4 - f1)
  IF (la(10) .LT. (g3 * 6)) v1 = (12 - 5)
  DO g2 = 0, 1
    g0 = (max(f0, 2) + la(8))
    DO g3 = 2, 6
      f1 = f1
    ENDDO
  ENDDO
  DO g2 = 0, 3
    PRINT *, ((-4 / (5 + 10)) - 4)
    g3 = la(1)
  ENDDO
  la(7) = 15
  PRINT *, la(5)
  f1 = 15
  v0 = (5 * g2)
  g0 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1481(f0 - 1, -3)
  ENDIF
  CALL proc1632(1, f1)
  CALL proc1638(1, -1)
END

SUBROUTINE proc1481(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = la(6)
  la(2) = 10
  DO v1 = 3, 6
    f1 = (g2 * la(9))
    g0 = v1
  ENDDO
  PRINT *, abs((-5 + v1))
  IF (.NOT. ((la(6) + 5) .LT. max(la(10), la(9)))) THEN
    IF ((7 - 10) .LT. (9 - la(7)) .AND. 15 .NE. -5) v1 = la(6)
    IF (-1 .NE. (la(6) + f1) .OR. max(6, la(10)) .EQ. mod(-2, 6)) v1 = 5
  ELSE
    PRINT *, max(v0, 9)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1482(f0 - 1, (0 + (v1 * 0)))
  ENDIF
END

SUBROUTINE proc1482(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, v0
  IF (f0 .GT. 0) THEN
    CALL proc1483(f0 - 1, (0 + (g1 + la(8))))
  ENDIF
END

SUBROUTINE proc1483(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 0, 1
    g3 = ((la(8) / (4 + f1)) + la(10))
    IF (la(11) .EQ. f1) THEN
      PRINT *, ((5 * v0) * 11)
      g3 = (-5 + mod(g0, 4))
    ENDIF
  ENDDO
  la(12) = 5
  g2 = (la(6) * la(10))
  IF (.NOT. ((6 - -2) .LT. la(6))) g2 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1484(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1484(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -3
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = 6
  PRINT *, mod(abs(la(8)), 2)
  IF (mod(12, 8) .LE. 6 .OR. g2 .GT. 0) THEN
    la(11) = (-5 + max(3, 13))
  ENDIF
  f1 = mod(3, 7)
  PRINT *, la(4)
  DO f1 = 0, 4
    v0 = mod(mod(13, 6), 8)
    la(9) = ((g0 - -2) + (-3 / (3 + 1)))
  ENDDO
  g1 = max(13, f1)
  PRINT *, (4 + la(5))
  IF ((la(10) + 15) .LT. (g2 + -3) .OR. max(v1, la(6)) .EQ. max(la(8), v2)) THEN
    v1 = la(4)
    v0 = mod(la(1), 2)
  ELSE
    la(12) = la(8)
    DO g1 = 1, 3
      v1 = g1
      PRINT *, max(la(6), -2)
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1485(f0 - 1, (0 + (10 / (4 + 14))))
  ENDIF
END

SUBROUTINE proc1485(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 6
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = 3
  la(6) = mod(mod(la(9), 4), 5)
  g2 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1480(f0 - 1, (0 + la(6)))
  ENDIF
END

SUBROUTINE proc1486(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = 13
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = -1
  DO g0 = 1, 1
    IF (la(7) .LT. 1 .AND. v3 .LT. max(-1, 12)) THEN
      v2 = v0
    ENDIF
    g2 = 9
  ENDDO
  la(11) = (max(la(6), f0) * 2)
  DO g1 = 0, 4
    f1 = mod(10, 5)
    IF (la(9) .GT. 11) v1 = la(1)
  ENDDO
  IF ((g0 / (2 + g2)) .LE. mod(la(9), 8) .OR. la(7) .NE. (f0 + la(12))) THEN
    v0 = abs(f1)
  ELSE
    DO g3 = 2, 2
      g0 = abs((la(5) + 11))
    ENDDO
    DO g2 = 2, 3
      PRINT *, 6
      g3 = (abs(13) * 15)
    ENDDO
  ENDIF
  g1 = 0
  IF (f0 .GT. 0) THEN
    CALL proc1487(f0 - 1, v0)
  ENDIF
  CALL proc1644(1, v1)
  CALL proc1647(1, v1)
END

SUBROUTINE proc1487(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g2 = 0, 4
    IF (mod(g1, 4) .LT. 1 .OR. 8 .EQ. la(8)) g0 = (g0 * 11)
  ENDDO
  v1 = g2
  IF (f0 .GT. 0) THEN
    CALL proc1488(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1488(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g1 = 3, 5
    IF (mod(10, 4) .LT. la(6)) THEN
      la(12) = ((f1 / (2 + la(1))) - la(7))
    ENDIF
  ENDDO
  la(12) = -1
  v2 = (la(4) + la(12))
  v2 = 6
  v0 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1486(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1489(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 6
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g1 = 1, 1
    la(12) = (g1 / (5 + 11))
    IF (9 .GE. abs(v2) .OR. (8 / (2 + 10)) .NE. (la(3) / (3 + v2))) v2 = (9 / (2 + la(10)))
  ENDDO
  g2 = (12 + -4)
  IF (-5 .GE. la(5) .AND. mod(8, 5) .GT. mod(-4, 4)) THEN
    g1 = ((-4 - g2) * 1)
  ELSE
    IF (.NOT. (abs(8) .GE. 8)) v1 = 9
  ENDIF
  g3 = mod(abs(-3), 3)
  v1 = la(1)
  IF (f0 .GT. 0) THEN
    CALL proc1490(f0 - 1, f1)
  ENDIF
  CALL proc1653(1, 7)
  CALL proc1658(1, v2)
END

SUBROUTINE proc1490(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v1 = 2, 6
    f1 = abs(max(la(3), -5))
  ENDDO
  g1 = max(2, 5)
  PRINT *, abs(13)
  g0 = (mod(13, 3) * la(7))
  IF ((11 * 9) .GE. max(-4, 7) .OR. (g3 + 2) .GE. mod(-2, 8)) THEN
    g1 = abs(la(12))
  ENDIF
  f1 = max(9, 2)
  v0 = (9 + g2)
  v0 = 7
  IF (f0 .GT. 0) THEN
    CALL proc1491(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1491(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 4
  v2 = 7
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((la(9) - 13) / (2 + 6))
  v2 = (-1 + (la(4) / (4 + 15)))
  IF (11 .NE. (v1 / (4 + 11)) .AND. max(la(5), la(11)) .EQ. (g0 - 14)) THEN
    IF ((1 * 0) .GE. v3 .OR. la(7) .GT. mod(v0, 8)) v0 = (g3 - la(8))
  ELSE
    g3 = -3
  ENDIF
  la(7) = (0 - (g3 + -5))
  f1 = abs(mod(13, 8))
  PRINT *, (v2 / (3 + -4))
  DO f1 = 2, 2
    la(4) = max(la(2), g3)
  ENDDO
  DO g1 = 2, 5
    g3 = ((7 + la(12)) * la(8))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1492(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1492(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = mod(7, 8)
  PRINT *, 4
  PRINT *, (f1 + 7)
  g0 = f0
  DO v0 = 3, 5
    IF (.NOT. (15 .LT. 2)) THEN
      PRINT *, la(3)
      PRINT *, mod(mod(la(3), 2), 6)
    ELSE
      v1 = la(7)
    ENDIF
    DO g0 = 2, 2
      g1 = max(la(3), la(4))
      v1 = -1
    ENDDO
  ENDDO
  g0 = 0
  DO f1 = 0, 2
    g1 = 1
    IF ((la(1) - la(12)) .GE. (la(2) / (2 + -3)) .AND. 3 .EQ. 9) v1 = la(2)
  ENDDO
  v0 = ((10 - v1) + 11)
  IF (f0 .GT. 0) THEN
    CALL proc1489(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1493(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g0 = 1, 1
    PRINT *, ((la(9) - g0) - g1)
    g3 = -4
  ENDDO
  IF (12 .LT. max(v0, -3) .OR. (13 * g2) .GT. 7) THEN
    g2 = max(-3, la(6))
    IF (.NOT. ((la(12) * 0) .NE. (6 * 4))) g0 = (2 - 6)
  ELSE
    g0 = max(g0, la(8))
    g2 = (f1 - (-1 + 6))
  ENDIF
  g0 = ((f1 / (4 + la(6))) / (4 + 8))
  la(9) = ((0 - 10) * 9)
  v1 = 13
  IF (f0 .GT. 0) THEN
    CALL proc1494(f0 - 1, f1)
  ENDIF
  CALL proc1661(1, 8)
  CALL proc1664(1, 1)
END

SUBROUTINE proc1494(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 13
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v0 = 0, 3
    v1 = (mod(0, 8) + -3)
    la(6) = 0
  ENDDO
  PRINT *, g3
  DO v0 = 3, 7
    g0 = mod(abs(v1), 8)
  ENDDO
  PRINT *, v2
  IF (f0 .GT. 0) THEN
    CALL proc1495(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1495(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 1
  v2 = 4
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = ((g1 - la(6)) - g1)
  IF (f0 .GT. 0) THEN
    CALL proc1496(f0 - 1, (0 + mod(v0, 6)))
  ENDIF
END

SUBROUTINE proc1496(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = mod((la(3) - g1), 7)
  DO g3 = 3, 5
    la(7) = (10 - (-4 * 13))
    DO g1 = 3, 5
      IF (.NOT. (abs(0) .EQ. mod(15, 6))) v0 = abs(14)
    ENDDO
  ENDDO
  v2 = abs(abs(g1))
  v2 = g2
  g0 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1497(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1497(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 10
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = max(-5, -3)
  IF (f0 .GT. 0) THEN
    CALL proc1498(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc1498(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -2
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = (abs(la(12)) + (f0 / (3 + 8)))
  IF (f0 .GT. 0) THEN
    CALL proc1493(f0 - 1, (0 + max(f1, g1)))
  ENDIF
END

SUBROUTINE proc1499(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 6
  v2 = 8
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1500(f0 - 1, -2)
  ENDIF
  CALL proc1668(1, v3)
  CALL proc1671(1, (0 + 14))
END

SUBROUTINE proc1500(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 6
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = abs(15)
  IF (10 .LT. (-4 + 4) .OR. 2 .NE. la(6)) g1 = (la(4) * la(11))
  IF (f0 .GT. 0) THEN
    CALL proc1501(f0 - 1, (0 + la(6)))
  ENDIF
END

SUBROUTINE proc1501(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(1) = ((-2 / (4 + 12)) + (10 - 12))
  g3 = 11
  IF (mod(-5, 4) .NE. la(10)) THEN
    f1 = (la(6) - 2)
    v0 = f1
  ENDIF
  IF (.NOT. (la(12) .LT. -4)) THEN
    v2 = (6 / (3 + la(3)))
  ENDIF
  g1 = 12
  g0 = la(3)
  v2 = v2
  g2 = (8 - la(4))
  IF (f0 .GT. 0) THEN
    CALL proc1499(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1502(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 14
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (la(7) / (4 + la(9)))
  g1 = (mod(9, 5) + 12)
  DO v1 = 1, 1
    DO v3 = 0, 3
      g1 = -4
      g2 = ((la(1) * 11) / (6 + la(7)))
    ENDDO
    PRINT *, (12 + g0)
  ENDDO
  la(12) = 10
  v3 = v0
  DO v0 = 3, 3
    IF ((g1 * la(8)) .GT. g1 .AND. (2 * la(12)) .EQ. (5 / (2 + v0))) THEN
      IF ((g0 - 8) .GE. -3) v2 = 7
      la(6) = mod(max(v1, 2), 2)
    ELSE
      g3 = 13
    ENDIF
    DO g2 = 0, 2
      v3 = (max(v1, 14) / (5 + 5))
    ENDDO
  ENDDO
  g0 = (max(v3, 15) / (4 + la(12)))
  DO v2 = 3, 4
    v3 = la(1)
  ENDDO
  DO g3 = 0, 2
    g2 = mod(3, 7)
  ENDDO
  PRINT *, la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1503(f0 - 1, -1)
  ENDIF
  CALL proc1674(1, (0 + (g2 - la(7))))
  CALL proc1679(1, (0 + (v1 + 6)))
END

SUBROUTINE proc1503(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -3
  v2 = 0
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, 3
  v0 = v3
  g3 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1504(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1504(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g0 = 2, 6
    g3 = (v1 - g2)
    v1 = 7
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1505(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1505(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(9) = max(13, 9)
  PRINT *, la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1506(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1506(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (abs(13) * la(4))
  g0 = abs(la(2))
  IF (max(4, 5) .NE. (la(2) + 11)) THEN
    IF (.NOT. (la(10) .NE. (la(7) * g0))) THEN
      g3 = v1
      g1 = -4
    ENDIF
  ELSE
    PRINT *, 3
  ENDIF
  g2 = 10
  v1 = mod(la(4), 3)
  g1 = 4
  IF (abs(la(11)) .EQ. (la(2) - la(4)) .AND. abs(g2) .NE. la(3)) g1 = max(-2, -2)
  g1 = max(la(7), -4)
  IF (f0 .GT. 0) THEN
    CALL proc1507(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc1507(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -4
  v2 = 5
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = ((la(3) + -4) * la(1))
  v0 = (max(-2, 3) - (v1 * -1))
  g0 = la(10)
  f1 = (mod(la(10), 6) / (5 + -3))
  IF (f0 .GT. 0) THEN
    CALL proc1502(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1508(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = g1
  f1 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1509(f0 - 1, (0 + la(7)))
  ENDIF
  CALL proc1685(1, v0)
  CALL proc1688(1, v1)
END

SUBROUTINE proc1509(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = la(1)
  v0 = (max(la(6), la(11)) / (5 + la(4)))
  IF (15 .GE. (la(11) / (3 + 13)) .OR. 0 .GT. 13) g0 = (4 + g0)
  la(1) = la(11)
  IF ((15 - 8) .GT. g1 .AND. (-2 * la(8)) .GE. 5) THEN
    f1 = ((la(7) + 6) - (la(8) / (6 + 11)))
  ENDIF
  PRINT *, mod(abs(6), 8)
  PRINT *, la(3)
  DO v0 = 3, 7
    DO g1 = 1, 2
      f1 = (1 + (8 + la(7)))
      g3 = max(la(10), la(11))
    ENDDO
  ENDDO
  g2 = -4
  g3 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1510(f0 - 1, (0 + la(9)))
  ENDIF
END

SUBROUTINE proc1510(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (-5 .LE. max(2, -3) .AND. la(6) .GT. la(4)) v1 = abs(-5)
  PRINT *, 7
  IF (f0 .GT. 0) THEN
    CALL proc1511(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1511(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -1
  v2 = 14
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = abs(v1)
  PRINT *, ((g1 / (3 + 2)) / (2 + 7))
  g1 = ((1 / (4 + la(9))) / (2 + 7))
  f1 = (8 + la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1512(f0 - 1, (0 + v0))
  ENDIF
END

SUBROUTINE proc1512(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = mod(mod(-1, 8), 3)
  IF (f0 .GT. 0) THEN
    CALL proc1513(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1513(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 1
  v2 = 0
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (13 .EQ. 10) THEN
    g3 = ((la(7) - la(1)) - max(g0, 8))
  ELSE
    la(11) = 6
  ENDIF
  v2 = max(la(9), -3)
  g0 = (13 / (3 + v2))
  v3 = v0
  g2 = la(11)
  g0 = la(10)
  IF (.NOT. (9 .NE. la(3))) v3 = mod(f1, 3)
  g3 = ((la(4) * -1) / (5 + la(1)))
  v1 = (-1 + la(9))
  IF (la(10) .LE. (la(3) * -5)) g0 = (-2 / (5 + 11))
  IF (f0 .GT. 0) THEN
    CALL proc1508(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1514(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -1
  v2 = 0
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 7
  f1 = (-1 + (2 * la(6)))
  DO v1 = 0, 4
    la(9) = -4
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1515(f0 - 1, -3)
  ENDIF
  CALL proc1691(1, v1)
  CALL proc1694(1, (0 + la(4)))
END

SUBROUTINE proc1515(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = la(1)
  g0 = (max(g0, la(9)) / (6 + la(8)))
  IF (f0 .GT. 0) THEN
    CALL proc1516(f0 - 1, (0 + 0))
  ENDIF
END

SUBROUTINE proc1516(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g0 = 2, 5
    IF (mod(la(2), 3) .NE. 7 .AND. (15 * f0) .GE. 8) f1 = -2
    g1 = ((f1 + la(10)) - 1)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1517(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1517(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = v1
  IF ((la(5) / (5 + 14)) .LE. mod(13, 8) .OR. max(v0, 3) .GT. la(5)) g2 = (15 * g3)
  PRINT *, (v2 * la(12))
  PRINT *, mod((-5 + f1), 6)
  v0 = ((-3 - 8) * v2)
  g3 = (g2 / (2 + 9))
  v2 = g3
  g1 = (mod(f1, 8) - abs(-5))
  IF (f0 .GT. 0) THEN
    CALL proc1514(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1518(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -2
  v2 = -3
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(1) = la(11)
  v1 = -3
  IF (.NOT. (3 .EQ. g1)) g0 = (la(4) / (5 + 3))
  DO v3 = 1, 3
    g0 = ((f1 + g3) + -4)
    DO v2 = 0, 2
      v0 = (g3 / (4 + 12))
      PRINT *, la(9)
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1519(f0 - 1, -3)
  ENDIF
  CALL proc1699(1, (0 + la(12)))
  CALL proc1705(1, v0)
END

SUBROUTINE proc1519(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, f1
  IF (f0 .GE. mod(15, 8)) THEN
    g0 = max(la(12), g3)
    g3 = la(7)
  ENDIF
  PRINT *, -1
  PRINT *, la(7)
  IF (.NOT. (g0 .LT. abs(13))) THEN
    v0 = abs((g0 / (3 + v0)))
    f1 = (4 / (6 + 4))
  ELSE
    f1 = ((-1 - 6) - (la(5) / (6 + la(7))))
  ENDIF
  v1 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1520(f0 - 1, (0 + 14))
  ENDIF
END

SUBROUTINE proc1520(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = 14
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v3 = 2, 2
    IF (la(11) .LE. v2) g2 = 10
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1521(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1521(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 13
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO f1 = 0, 0
    DO g3 = 2, 3
      v1 = g1
      v0 = ((la(11) - g3) + (v2 / (5 + -4)))
    ENDDO
    v2 = (-3 - la(7))
  ENDDO
  IF (la(1) .GE. la(4) .OR. 12 .GE. 11) v2 = 15
  IF (f0 .GT. 0) THEN
    CALL proc1522(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1522(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = la(10)
  v0 = (la(5) + g2)
  la(10) = max(11, la(3))
  v1 = mod(la(6), 6)
  IF (.NOT. (3 .NE. g1)) THEN
    DO g0 = 3, 4
      f1 = (f1 * g3)
      IF (abs(f0) .EQ. (f0 + -5) .OR. mod(-1, 3) .LE. f1) v0 = 12
    ENDDO
    IF (la(6) .GT. abs(la(10)) .AND. (-2 - g1) .GE. mod(6, 5)) THEN
      PRINT *, 9
      v2 = mod(6, 6)
    ELSE
      g1 = 15
    ENDIF
  ELSE
    PRINT *, mod(4, 7)
    la(7) = 5
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1523(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1523(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 8
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = -1
  v0 = la(4)
  DO f1 = 3, 7
    g0 = 4
  ENDDO
  v1 = abs((5 + v2))
  f1 = max(la(9), 15)
  IF (f0 .GT. 0) THEN
    CALL proc1518(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1524(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 14
  v2 = 12
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, g3
  IF (f0 .GT. 0) THEN
    CALL proc1525(f0 - 1, f1)
  ENDIF
  CALL proc1708(1, v1)
  CALL proc1712(1, -1)
END

SUBROUTINE proc1525(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(2) = (1 / (2 + 14))
  IF (4 .LE. f1 .AND. (-4 - la(12)) .LE. la(6)) THEN
    g3 = ((la(11) / (4 + la(7))) + (la(6) - v0))
    g0 = la(4)
  ENDIF
  la(12) = (la(10) / (5 + 3))
  g3 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1526(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1526(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = 10
  DO v0 = 1, 1
    IF (.NOT. (-3 .LT. (13 + 15))) THEN
      la(12) = 15
    ENDIF
    PRINT *, ((la(9) - g1) * 6)
  ENDDO
  g3 = (g1 + (la(2) + la(2)))
  g1 = ((-1 / (5 + v1)) + mod(9, 7))
  IF ((f0 * -2) .GT. max(9, 14)) THEN
    DO f1 = 2, 2
      v1 = max(la(5), la(3))
      v0 = la(4)
    ENDDO
  ELSE
    la(12) = g1
  ENDIF
  PRINT *, 10
  IF (.NOT. (la(11) .GT. la(12))) THEN
    DO v1 = 3, 6
      g0 = 8
      f1 = la(10)
    ENDDO
  ELSE
    g1 = 4
    v0 = (max(-5, v0) / (6 + f1))
  ENDIF
  v1 = la(2)
  la(5) = ((la(8) * la(3)) * g1)
  g2 = abs(abs(la(8)))
  IF (f0 .GT. 0) THEN
    CALL proc1527(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1527(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 0
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(6) = v2
  IF (8 .GT. (5 + 7) .AND. mod(la(7), 8) .NE. v2) f1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1524(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1528(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 8
  v2 = 13
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 2
  g2 = (abs(la(6)) - abs(la(4)))
  g0 = 8
  g0 = (la(10) + la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1529(f0 - 1, f1)
  ENDIF
  CALL proc1717(1, v0)
  CALL proc1722(1, v0)
END

SUBROUTINE proc1529(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(8) = 12
  PRINT *, mod((la(11) + 12), 6)
  IF (f0 .GT. 0) THEN
    CALL proc1530(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1530(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 7
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g0 = 3, 7
    IF (abs(la(9)) .NE. mod(-2, 8) .AND. max(10, 13) .GT. mod(-3, 2)) THEN
      PRINT *, f1
    ELSE
      v1 = (9 / (2 + 8))
      v1 = ((14 - v1) + mod(-5, 2))
    ENDIF
  ENDDO
  DO g0 = 1, 3
    DO g1 = 3, 5
      v2 = (max(-3, 4) - g0)
      g2 = la(8)
    ENDDO
  ENDDO
  v2 = abs(la(7))
  f1 = abs(v2)
  IF (f0 .GT. 0) THEN
    CALL proc1531(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1531(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 7
  v2 = 12
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g2 = 0, 1
    DO g0 = 2, 6
      g1 = 13
      g1 = (mod(la(1), 6) * g3)
    ENDDO
  ENDDO
  v0 = (g0 / (6 + -5))
  v3 = mod(abs(12), 6)
  PRINT *, (la(1) * -3)
  la(6) = ((-5 - f0) + -5)
  IF (la(2) .EQ. mod(5, 8) .OR. -5 .LT. mod(la(9), 2)) THEN
    v0 = g2
  ENDIF
  IF (la(2) .NE. (v2 * la(11)) .AND. 5 .NE. g1) g1 = v3
  la(10) = ((g2 + la(3)) + (-1 * g1))
  g3 = ((4 - v3) + max(f0, -2))
  IF (f0 .GT. 0) THEN
    CALL proc1532(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1532(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = ((f0 - 0) * -1)
  PRINT *, (la(7) * la(11))
  f1 = (la(2) - 1)
  la(4) = ((v1 - 9) - la(5))
  g1 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1533(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1533(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, ((10 / (6 + g3)) - max(9, la(10)))
  IF (f0 .GT. 0) THEN
    CALL proc1528(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1534(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 13
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v2 = 0, 4
    g0 = g1
    IF (abs(12) .LT. g3 .AND. (1 * la(11)) .NE. v2) v1 = 14
  ENDDO
  g3 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1535(f0 - 1, v2)
  ENDIF
  CALL proc1728(1, 3)
  CALL proc1732(1, v1)
END

SUBROUTINE proc1535(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 2
  v2 = 6
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g1 = 3, 3
    PRINT *, ((1 * g1) * v3)
    IF (15 .NE. abs(la(3))) THEN
      g3 = v2
    ENDIF
  ENDDO
  f1 = ((la(7) / (2 + 1)) / (2 + 0))
  la(1) = la(1)
  v3 = (9 + (5 - 15))
  IF (la(2) .GT. la(12) .AND. la(9) .EQ. 7) THEN
    DO v1 = 1, 3
      g1 = max(9, -1)
    ENDDO
  ELSE
    g3 = max(la(1), la(7))
  ENDIF
  la(7) = 0
  g1 = 1
  la(7) = ((la(8) / (2 + g0)) - la(6))
  IF (f0 .GT. 0) THEN
    CALL proc1536(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1536(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((g3 / (6 + 8)) .NE. la(1) .AND. (f1 + 3) .GT. max(la(3), 0)) THEN
    DO g1 = 1, 5
      f1 = (g0 - (la(10) + 11))
      g0 = -4
    ENDDO
  ELSE
    IF (mod(12, 8) .NE. v0) g0 = la(2)
  ENDIF
  g1 = (la(4) / (6 + -1))
  IF (f0 .GT. 0) THEN
    CALL proc1537(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1537(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -2
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (v2 * -1)
  g3 = abs(v2)
  g2 = ((la(6) / (3 + g3)) - abs(-4))
  la(3) = (-3 - 2)
  f1 = 0
  v0 = max(g2, la(9))
  DO g2 = 1, 5
    PRINT *, mod(f0, 4)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1538(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1538(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -4
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = f0
  la(6) = mod(4, 5)
  g1 = ((v0 / (4 + 10)) + (la(5) + -1))
  g0 = mod((la(2) * -4), 5)
  DO g1 = 0, 3
    IF ((7 * la(7)) .EQ. (la(1) + g3) .OR. (15 * g3) .GT. mod(3, 3)) g0 = la(12)
    DO g3 = 1, 2
      IF ((-4 - v2) .LT. (5 * la(11)) .AND. la(8) .LE. max(g0, la(10))) v2 = mod(3, 5)
      la(1) = mod((la(12) - la(3)), 2)
    ENDDO
  ENDDO
  g3 = la(5)
  g0 = ((g0 + v2) * la(6))
  g0 = max(g1, -1)
  IF (f0 .GT. 0) THEN
    CALL proc1534(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1539(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (abs(14) .NE. max(6, v1))) f1 = abs(1)
  IF (la(11) .EQ. mod(la(12), 3)) THEN
    v0 = max(11, 10)
  ELSE
    DO g0 = 2, 3
      v1 = 3
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1540(f0 - 1, (0 + 14))
  ENDIF
  CALL proc1737(1, v0)
  CALL proc1741(1, 10)
END

SUBROUTINE proc1540(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = max(v0, 10)
  g3 = abs(8)
  IF (2 .LE. la(2) .AND. abs(g0) .EQ. 2) THEN
    g2 = 13
  ENDIF
  IF (.NOT. (max(-2, g1) .EQ. -1)) g3 = 7
  v0 = mod(13, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1541(f0 - 1, (0 + abs(v1)))
  ENDIF
END

SUBROUTINE proc1541(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (3 / (3 + 2))
  IF (la(8) .EQ. 13) THEN
    la(10) = ((la(12) - v1) / (4 + 14))
    g3 = 9
  ELSE
    v2 = ((3 / (2 + la(9))) + g2)
  ENDIF
  IF (mod(5, 4) .LT. (la(1) / (5 + -2)) .OR. 13 .GT. (la(11) - 15)) v2 = f0
  g3 = (abs(v1) - (10 * v2))
  PRINT *, f0
  g2 = max(8, 10)
  v1 = 2
  IF (f0 .GT. 0) THEN
    CALL proc1539(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1542(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = la(5)
  DO f1 = 3, 5
    g3 = max(15, -5)
  ENDDO
  g3 = v0
  IF (13 .LT. max(la(1), la(12))) THEN
    IF (max(6, g1) .EQ. (v0 * 12)) THEN
      la(4) = (max(la(4), la(11)) * la(1))
      g1 = -3
    ENDIF
  ENDIF
  IF (mod(g1, 3) .GE. g1) v0 = 6
  IF (.NOT. (2 .NE. mod(-2, 7))) THEN
    PRINT *, 12
  ELSE
    IF ((la(11) / (5 + la(10))) .NE. 5 .OR. g3 .NE. f1) g2 = 15
    f1 = la(4)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1543(f0 - 1, (0 + (la(11) + 14)))
  ENDIF
  CALL proc1746(1, -3)
  CALL proc1752(1, v0)
END

SUBROUTINE proc1543(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 10
  v2 = -1
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = (abs(0) * f1)
  IF (f0 .GT. 0) THEN
    CALL proc1544(f0 - 1, (0 + (la(6) - g0)))
  ENDIF
END

SUBROUTINE proc1544(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 4
  v2 = 11
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = abs(4)
  IF (f1 .NE. -1 .OR. (f0 + 8) .EQ. max(la(8), -4)) THEN
    g3 = g2
    DO g1 = 3, 3
      v2 = abs((3 + v3))
    ENDDO
  ELSE
    IF (.NOT. ((g3 / (5 + 14)) .GE. -4)) THEN
      PRINT *, la(12)
    ELSE
      g2 = ((la(2) * la(12)) / (3 + -3))
    ENDIF
    g3 = ((-5 / (4 + 4)) * 7)
  ENDIF
  v3 = 7
  DO g0 = 1, 4
    IF ((2 + 12) .LE. (la(2) - v3) .AND. (14 / (3 + 2)) .GT. mod(la(1), 7)) THEN
      PRINT *, abs((la(11) + 5))
      IF (.NOT. (-5 .LE. (14 - f1))) v1 = 11
    ELSE
      v3 = mod(10, 2)
      IF (mod(v1, 6) .EQ. (4 - v1) .AND. la(10) .LE. 1) g2 = g3
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1542(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1545(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 6
  v2 = 12
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (max(la(7), v1) .NE. (la(4) / (5 + 10)))) THEN
    IF ((la(8) / (4 + 5)) .EQ. (13 + -4) .OR. v2 .GE. la(5)) g3 = 0
    DO g1 = 2, 2
      g2 = (la(4) * 3)
      f1 = la(8)
    ENDDO
  ELSE
    IF (abs(la(5)) .GT. la(6)) v0 = (-1 - la(9))
    IF (v2 .LT. (la(5) / (3 + 2)) .AND. mod(la(10), 6) .GT. max(6, v2)) g0 = mod(g0, 2)
  ENDIF
  DO g2 = 3, 7
    g1 = abs(mod(la(4), 7))
  ENDDO
  la(10) = mod(f1, 8)
  IF (f0 .GT. 0) THEN
    CALL proc1546(f0 - 1, (0 + la(5)))
  ENDIF
  CALL proc1755(1, v2)
  CALL proc1761(1, -3)
END

SUBROUTINE proc1546(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 1
  v2 = 13
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = 7
  f1 = max(1, la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1547(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1547(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (la(5) * 11)
  g1 = g1
  v1 = (abs(la(11)) / (2 + g1))
  g3 = (mod(12, 7) * f0)
  v1 = max(f1, -4)
  g0 = f0
  la(12) = (abs(la(9)) - (11 / (4 + 5)))
  IF (v1 .LT. (3 * 9) .OR. (la(7) / (2 + la(8))) .LT. 7) THEN
    DO v0 = 0, 1
      v1 = ((v0 + 2) + 12)
    ENDDO
    v1 = 9
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1548(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc1548(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -2
  v2 = 5
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((v2 * 9) * g2)
  PRINT *, max(v2, 4)
  DO g2 = 2, 3
    IF (.NOT. (v3 .LT. (1 - 1))) THEN
      g0 = abs((g3 + la(6)))
      g1 = ((1 * la(12)) / (2 + la(6)))
    ENDIF
    DO v3 = 1, 1
      g0 = ((f1 + f0) + max(5, 0))
    ENDDO
  ENDDO
  IF (la(2) .GT. max(v1, g0)) THEN
    DO v2 = 0, 3
      IF (la(4) .LT. (v3 * 7) .OR. mod(f1, 5) .LE. abs(13)) g3 = -2
      v1 = (12 / (6 + la(11)))
    ENDDO
    v3 = mod((-3 / (4 + la(6))), 2)
  ENDIF
  g1 = mod((2 * 6), 4)
  v1 = -3
  PRINT *, -4
  g2 = (1 * v2)
  PRINT *, la(5)
  la(2) = mod(15, 2)
  IF (f0 .GT. 0) THEN
    CALL proc1549(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1549(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = ((-4 / (5 + 13)) / (4 + 8))
  IF (g0 .NE. la(7) .AND. la(4) .NE. mod(g0, 3)) THEN
    v1 = g3
    IF (max(6, la(1)) .GE. abs(la(5)) .OR. (la(11) / (2 + g0)) .NE. abs(v0)) g2 = la(4)
  ENDIF
  v1 = abs(9)
  g1 = ((-5 * -3) + mod(g1, 5))
  IF (abs(g3) .LT. (f1 * la(6)) .AND. 6 .LT. la(2)) g0 = mod(la(1), 3)
  IF (f0 .GT. 0) THEN
    CALL proc1545(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1550(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (11 + la(10))
  IF (mod(6, 3) .GT. la(4) .AND. 1 .LE. 3) THEN
    g3 = (abs(3) + abs(3))
    IF (mod(la(5), 6) .EQ. abs(11) .OR. g0 .EQ. (g3 / (3 + 14))) g2 = 7
  ELSE
    la(8) = 7
  ENDIF
  DO g0 = 3, 4
    v2 = abs(la(2))
  ENDDO
  v2 = abs(v0)
  PRINT *, (v2 * f1)
  IF (7 .LE. (13 + g0) .AND. (14 + g1) .GT. max(-1, v2)) THEN
    v1 = la(6)
  ELSE
    g0 = max(f0, f1)
    g2 = g0
  ENDIF
  g1 = (mod(la(7), 2) - (v2 - la(11)))
  IF (f0 .GT. 0) THEN
    CALL proc1551(f0 - 1, (0 + 3))
  ENDIF
  CALL proc1765(1, (0 + g0))
  CALL proc1770(1, v1)
END

SUBROUTINE proc1551(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = 7
  g0 = (-5 + la(12))
  g2 = 15
  IF ((-1 / (6 + v1)) .LT. 8 .OR. 11 .LE. max(g1, g1)) v2 = 15
  v0 = (-5 - max(la(7), la(7)))
  v2 = la(12)
  v1 = 13
  PRINT *, mod(la(4), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1552(f0 - 1, (0 + 0))
  ENDIF
END

SUBROUTINE proc1552(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 6
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(f0, la(1)) .LE. (v2 - 0) .AND. abs(g3) .GE. 11) v2 = la(5)
  IF (-5 .GT. mod(v0, 5)) THEN
    DO g1 = 2, 2
      la(7) = -5
      PRINT *, ((la(11) / (3 + -5)) / (5 + la(4)))
    ENDDO
    la(5) = 10
  ELSE
    g2 = v2
  ENDIF
  v1 = 12
  g2 = ((11 / (6 + la(1))) * v0)
  IF (f0 .GT. 0) THEN
    CALL proc1550(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1553(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, max(-5, 2)
  v1 = max(12, -4)
  IF (f0 .GT. 0) THEN
    CALL proc1554(f0 - 1, 5)
  ENDIF
  CALL proc1775(1, (0 + 6))
  CALL proc1779(1, v2)
END

SUBROUTINE proc1554(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 7
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(2)
  PRINT *, (la(8) * -3)
  la(12) = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1555(f0 - 1, (0 + la(6)))
  ENDIF
END

SUBROUTINE proc1555(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -1
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v2 = 1, 5
    la(6) = 1
  ENDDO
  DO g0 = 1, 4
    g1 = ((-2 + la(8)) - la(5))
  ENDDO
  PRINT *, mod(7, 4)
  IF (abs(1) .LT. (la(5) * 11) .AND. abs(8) .NE. la(9)) v1 = 4
  g3 = ((f0 - -4) + v2)
  DO f1 = 3, 3
    la(4) = abs(la(1))
    la(1) = ((10 - g0) * 12)
  ENDDO
  v0 = ((g0 - 1) - abs(11))
  IF (f0 .GT. 0) THEN
    CALL proc1556(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1556(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 10
  v2 = -4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO f1 = 0, 4
    IF (.NOT. (mod(la(4), 5) .GE. g0)) THEN
      g3 = ((15 / (6 + 6)) / (4 + v2))
    ENDIF
    v3 = la(5)
  ENDDO
  DO v0 = 3, 4
    g0 = abs((12 / (2 + la(1))))
  ENDDO
  DO v3 = 2, 4
    la(5) = (g2 + (la(5) + la(8)))
    IF (2 .NE. 9 .AND. (la(11) - 4) .LE. 8) g2 = 5
  ENDDO
  v1 = ((la(10) * g0) - la(7))
  v1 = 5
  IF (g2 .EQ. v0) g2 = (la(6) - la(9))
  v2 = ((la(7) + la(6)) + 11)
  IF (11 .GE. abs(la(5)) .AND. 5 .EQ. (la(6) - v1)) THEN
    PRINT *, 13
  ELSE
    PRINT *, f0
    v2 = 3
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1557(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1557(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (6 .EQ. (la(10) / (5 + 7)))) v0 = (g3 - la(4))
  DO v0 = 2, 6
    IF (3 .NE. (g2 * la(8))) g2 = -4
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1553(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1558(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 13
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = la(12)
  IF (la(2) .EQ. (la(6) + 9) .AND. 0 .LT. 1) f1 = (4 + la(1))
  v2 = 11
  DO v2 = 0, 1
    la(6) = la(1)
  ENDDO
  IF (5 .LE. v0) THEN
    g2 = g0
    f1 = -4
  ENDIF
  g0 = 2
  la(12) = -5
  IF (f0 .GT. 0) THEN
    CALL proc1559(f0 - 1, 6)
  ENDIF
  CALL proc1783(1, 7)
  CALL proc1787(1, 8)
END

SUBROUTINE proc1559(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -2
  v2 = -4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = 7
  IF (f0 .GT. 0) THEN
    CALL proc1560(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1560(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = la(10)
  v0 = (f1 / (6 + la(10)))
  f1 = abs(g0)
  DO g3 = 3, 6
    g0 = (mod(la(12), 2) + (10 * la(1)))
    DO g0 = 3, 6
      v0 = ((-5 - 9) / (6 + v0))
    ENDDO
  ENDDO
  g1 = abs((1 * 2))
  g0 = mod(10, 2)
  v0 = 1
  IF (f0 .GT. 0) THEN
    CALL proc1561(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1561(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -2
  v2 = 10
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = ((-5 - la(10)) * la(5))
  v2 = mod(max(7, 2), 4)
  la(7) = 13
  IF (f0 .GT. 0) THEN
    CALL proc1562(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1562(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(8)
  IF ((v0 * f0) .EQ. 6) THEN
    g0 = (2 / (4 + v0))
    g0 = 1
  ELSE
    v1 = 1
  ENDIF
  la(2) = (10 * f1)
  IF (f1 .LE. max(la(6), 1) .AND. 15 .LE. la(12)) g1 = (9 + -4)
  PRINT *, g0
  IF (v1 .LT. -4 .OR. (la(12) - 4) .LT. (f0 * v2)) v2 = mod(la(9), 5)
  f1 = (max(la(1), f1) / (5 + -5))
  IF (f0 .GT. 0) THEN
    CALL proc1558(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1563(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 13
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (mod(4, 6) .LT. mod(6, 8) .AND. (f1 + 2) .LE. la(8)) THEN
    DO g0 = 1, 5
      g3 = v1
      f1 = (0 * -5)
    ENDDO
  ENDIF
  IF (.NOT. (2 .GE. la(10))) g1 = la(11)
  v2 = 6
  IF (.NOT. (abs(15) .GE. -3)) g0 = (2 + la(7))
  g3 = mod(la(6), 6)
  v2 = 10
  v1 = g1
  g2 = max(5, 13)
  IF (f0 .GT. 0) THEN
    CALL proc1564(f0 - 1, v1)
  ENDIF
  CALL proc1790(1, (0 + la(12)))
  CALL proc1796(1, -1)
END

SUBROUTINE proc1564(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = f0
  g1 = ((g3 / (2 + f0)) / (3 + 0))
  g3 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1565(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1565(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = ((3 + 5) / (5 + 11))
  g3 = mod((la(12) * f1), 7)
  la(5) = 5
  la(11) = abs(mod(10, 3))
  g2 = (g0 / (6 + la(7)))
  IF (14 .LE. (g3 / (4 + 1)) .OR. (6 / (2 + 4)) .GT. la(12)) g1 = (g2 * la(8))
  PRINT *, v1
  f1 = 14
  DO f1 = 3, 5
    la(11) = la(4)
    g3 = (la(4) * 12)
  ENDDO
  DO v0 = 3, 3
    v1 = mod(-4, 8)
    g3 = la(9)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1566(f0 - 1, (0 + la(4)))
  ENDIF
END

SUBROUTINE proc1566(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = abs(abs(15))
  IF (-1 .GE. max(la(4), g2)) f1 = 4
  g3 = la(6)
  g0 = g2
  v1 = ((la(8) / (6 + 13)) / (2 + 15))
  IF (f0 .GT. 0) THEN
    CALL proc1563(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1567(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 14
  PRINT *, mod(la(11), 8)
  f1 = v0
  v2 = mod(la(10), 7)
  v1 = ((-4 - f1) - max(la(11), 1))
  IF (2 .GE. (12 + -2)) g0 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1568(f0 - 1, (0 + la(5)))
  ENDIF
  CALL proc1799(1, (0 + (0 / (4 + g1))))
  CALL proc1803(1, v0)
END

SUBROUTINE proc1568(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = mod((g0 + la(3)), 6)
  f1 = la(2)
  g1 = max(f0, g0)
  PRINT *, 9
  v1 = abs((f0 * 10))
  la(10) = la(12)
  v0 = la(12)
  PRINT *, (la(9) + max(g1, -1))
  la(4) = la(1)
  IF (f0 .GT. 0) THEN
    CALL proc1569(f0 - 1, (0 + mod(4, 8)))
  ENDIF
END

SUBROUTINE proc1569(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (abs(la(9)) .LT. 13)) THEN
    g1 = max(14, -5)
    IF ((la(5) - 12) .NE. mod(la(4), 7)) THEN
      v0 = (2 - (-3 / (2 + la(10))))
      la(2) = 6
    ELSE
      v1 = g3
      PRINT *, (7 / (2 + la(2)))
    ENDIF
  ELSE
    PRINT *, g3
  ENDIF
  IF (max(v1, g0) .LT. 2 .OR. abs(5) .LE. abs(v1)) v0 = abs(1)
  g2 = (mod(11, 5) + abs(la(1)))
  v1 = abs(15)
  IF (.NOT. ((13 + g0) .LE. (la(3) + f0))) THEN
    f1 = abs(max(12, 8))
  ELSE
    g0 = (max(-4, v1) / (2 + g2))
  ENDIF
  DO g0 = 3, 5
    g1 = 1
    PRINT *, ((13 / (4 + f1)) * la(9))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1570(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1570(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 0
  v2 = 1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 11
  IF (f0 .GT. 0) THEN
    CALL proc1571(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1571(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 13
  v2 = -3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = v1
  IF (la(2) .EQ. g0 .AND. (la(2) * 4) .EQ. v2) v2 = la(11)
  v2 = la(12)
  IF (la(6) .NE. (la(7) / (4 + g1)) .OR. (9 / (3 + la(12))) .NE. f1) THEN
    f1 = (la(1) + abs(1))
    v1 = -2
  ENDIF
  v2 = la(11)
  PRINT *, v0
  PRINT *, -3
  PRINT *, (abs(-2) / (3 + f0))
  PRINT *, (4 + mod(la(1), 6))
  IF (f0 .GT. 0) THEN
    CALL proc1572(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1572(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g1 = 3, 4
    f1 = max(-2, la(2))
    g3 = max(v1, la(10))
  ENDDO
  la(5) = abs((f0 * g2))
  IF (abs(la(4)) .LE. la(9)) THEN
    v1 = f0
  ENDIF
  g3 = (g3 * la(9))
  IF (.NOT. (la(2) .GT. la(11))) THEN
    g3 = f1
  ELSE
    la(12) = la(7)
    la(2) = (la(3) * 4)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1567(f0 - 1, (0 + max(7, -3)))
  ENDIF
END

SUBROUTINE proc1573(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (8 .GT. -1 .OR. g2 .GT. g2) THEN
    la(1) = 9
  ELSE
    PRINT *, abs(max(la(12), 5))
  ENDIF
  v1 = abs(g2)
  la(5) = abs(-5)
  g1 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1574(f0 - 1, f1)
  ENDIF
  CALL proc1809(1, 10)
  CALL proc1814(1, v0)
END

SUBROUTINE proc1574(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 11
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(0, 4)
  v0 = la(2)
  v0 = mod((5 + -1), 8)
  g0 = (mod(7, 3) / (2 + g1))
  v2 = mod(8, 6)
  PRINT *, 10
  la(8) = abs(0)
  g1 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1575(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc1575(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = la(9)
  PRINT *, mod(v1, 3)
  IF (f0 .GT. 0) THEN
    CALL proc1576(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1576(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((la(11) * v1) .LT. (g2 * 14)) THEN
    v2 = 0
    f1 = mod(abs(la(6)), 5)
  ELSE
    g1 = la(12)
  ENDIF
  g2 = abs((2 / (4 + 3)))
  PRINT *, mod(9, 3)
  g3 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1577(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1577(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (-4 - (1 / (4 + la(7))))
  IF (.NOT. (v0 .EQ. mod(g3, 2))) g0 = f1
  v1 = max(5, v1)
  IF (f0 .GT. 0) THEN
    CALL proc1578(f0 - 1, (0 + la(7)))
  ENDIF
END

SUBROUTINE proc1578(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (g3 * la(12))
  v1 = v0
  f1 = 12
  IF (f0 .GT. 0) THEN
    CALL proc1573(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1579(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v0 = 2, 4
    g1 = -4
  ENDDO
  DO v1 = 3, 5
    g0 = mod(la(10), 4)
  ENDDO
  f1 = mod(v1, 8)
  g2 = ((la(11) - 2) + max(11, -3))
  f1 = (la(9) - mod(la(10), 2))
  IF (f0 .GT. 0) THEN
    CALL proc1580(f0 - 1, v1)
  ENDIF
  CALL proc1819(1, f1)
  CALL proc1825(1, v0)
END

SUBROUTINE proc1580(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = 12
  v1 = mod(abs(5), 2)
  IF (la(12) .LE. (la(7) + la(8)) .OR. (-1 / (5 + 12)) .GE. 9) f1 = (la(5) + 14)
  IF (mod(v1, 2) .GE. (5 / (4 + 11))) THEN
    IF (f0 .LT. (7 * 6)) THEN
      g2 = ((0 + g3) - mod(8, 3))
    ELSE
      g2 = ((g0 * 4) + la(3))
      g1 = ((la(6) * f0) - (11 - -5))
    ENDIF
    IF ((g2 / (3 + la(12))) .LE. la(1) .AND. (la(1) / (5 + 6)) .LT. max(v0, la(2))) THEN
      g1 = 1
    ELSE
      g2 = (max(9, -3) - max(la(8), 1))
      f1 = abs((la(6) - la(10)))
    ENDIF
  ELSE
    IF (mod(11, 8) .GE. abs(la(11)) .OR. g2 .NE. mod(2, 8)) THEN
      IF (.NOT. (la(11) .NE. (12 / (2 + -4)))) v1 = abs(la(10))
      PRINT *, abs(3)
    ELSE
      g1 = -4
      PRINT *, (2 * -1)
    ENDIF
  ENDIF
  v0 = (6 / (4 + 5))
  v0 = 6
  IF (f0 .GT. 0) THEN
    CALL proc1581(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1581(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 3
  v2 = 0
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = 11
  IF (f0 .GT. 0) THEN
    CALL proc1579(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1582(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 0
  DO g2 = 1, 3
    IF ((2 - -2) .GE. -1 .OR. 12 .NE. (g2 * 2)) v1 = -4
    IF (la(1) .EQ. (g2 / (6 + -2)) .OR. (la(2) + la(11)) .GT. la(12)) THEN
      la(10) = mod(14, 3)
      v1 = (abs(-4) + mod(la(7), 2))
    ELSE
      g3 = ((g1 / (2 + v0)) * la(6))
      PRINT *, (0 - 5)
    ENDIF
  ENDDO
  la(11) = 9
  IF (.NOT. (la(11) .LE. mod(la(4), 6))) f1 = g2
  IF (.NOT. (mod(la(6), 7) .GE. -5)) THEN
    la(9) = ((la(10) - g3) / (3 + 14))
    la(10) = (max(g2, v1) - (-5 / (4 + 4)))
  ELSE
    la(12) = g1
  ENDIF
  IF (.NOT. (la(1) .GE. la(12))) g3 = (la(7) + la(9))
  IF (3 .NE. abs(g1) .AND. mod(1, 5) .GT. (-1 + la(11))) THEN
    IF (.NOT. (14 .NE. (9 + 3))) g0 = (2 * f1)
    PRINT *, max(la(2), g3)
  ELSE
    v1 = abs(abs(g3))
  ENDIF
  DO g1 = 1, 1
    PRINT *, ((7 / (4 + 8)) / (2 + -1))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1583(f0 - 1, (0 + v1))
  ENDIF
  CALL proc1831(1, 5)
  CALL proc1834(1, v0)
END

SUBROUTINE proc1583(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 5
  v2 = 6
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (mod(5, 3) .NE. la(6)) THEN
    f1 = mod(9, 6)
    v2 = mod(abs(f1), 2)
  ENDIF
  IF (3 .NE. (la(4) / (2 + f0))) THEN
    PRINT *, (mod(la(9), 2) + 3)
    g3 = (la(1) / (2 + v0))
  ENDIF
  la(3) = la(12)
  v1 = (v2 / (5 + f1))
  g0 = f0
  g1 = la(10)
  DO g2 = 1, 1
    la(6) = 4
  ENDDO
  la(7) = (14 + la(11))
  IF (f0 .GT. 0) THEN
    CALL proc1584(f0 - 1, (0 + v3))
  ENDIF
END

SUBROUTINE proc1584(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 0
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = -2
  g1 = 15
  PRINT *, max(5, la(2))
  v1 = g1
  g1 = (la(8) - (g3 * 10))
  PRINT *, -3
  IF (f0 .GT. 0) THEN
    CALL proc1582(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1585(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 3
  v2 = 12
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = abs(v2)
  g3 = (2 + -5)
  PRINT *, la(5)
  v1 = (11 / (3 + 6))
  v2 = mod((14 - -4), 7)
  v3 = max(-2, v3)
  v1 = max(v2, -3)
  IF (f0 .GT. 0) THEN
    CALL proc1586(f0 - 1, 8)
  ENDIF
  CALL proc1838(1, 6)
  CALL proc1844(1, v1)
END

SUBROUTINE proc1586(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 11
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = max(-5, g3)
  IF (f0 .GT. 0) THEN
    CALL proc1587(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1587(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (abs(v0) .GE. la(7))) THEN
    f1 = la(3)
  ELSE
    IF (12 .GT. f1 .AND. (0 - 14) .LT. max(4, la(1))) v1 = abs(12)
  ENDIF
  g0 = abs(max(8, la(9)))
  PRINT *, (-1 + (la(6) * 8))
  v0 = 11
  IF (abs(la(1)) .GT. 11 .AND. la(3) .EQ. max(v0, 0)) g1 = (g2 - la(10))
  IF (f0 .GT. 0) THEN
    CALL proc1588(f0 - 1, (0 + 11))
  ENDIF
END

SUBROUTINE proc1588(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 8
  v2 = 3
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (14 .EQ. (0 - 12))) THEN
    f1 = mod(la(11), 2)
    IF ((g2 - la(7)) .NE. 13 .AND. (-2 * 3) .EQ. abs(f0)) g0 = la(8)
  ELSE
    PRINT *, la(11)
    IF (la(10) .EQ. (la(2) + 13) .OR. -4 .LE. abs(la(8))) g0 = mod(la(6), 3)
  ENDIF
  PRINT *, mod((v1 / (3 + la(12))), 8)
  la(8) = abs(la(1))
  PRINT *, ((v2 - 11) * la(5))
  g0 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1585(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc1589(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 6
  v1 = f1
  DO v0 = 0, 2
    IF (12 .EQ. (12 + 10) .OR. f0 .GE. 4) THEN
      g2 = (-5 * g1)
    ELSE
      f1 = 13
      f1 = mod(max(7, 2), 6)
    ENDIF
  ENDDO
  DO g2 = 3, 4
    la(5) = 5
    PRINT *, ((la(10) + la(12)) - abs(v1))
  ENDDO
  f1 = la(8)
  g2 = g3
  PRINT *, (max(-5, 12) / (3 + la(4)))
  g1 = ((la(1) * la(2)) / (2 + 3))
  IF (f0 .GT. 0) THEN
    CALL proc1590(f0 - 1, v1)
  ENDIF
  CALL proc1849(1, f1)
  CALL proc1854(1, v0)
END

SUBROUTINE proc1590(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = abs((la(12) / (4 + 3)))
  f1 = (mod(7, 3) / (4 + v0))
  PRINT *, g0
  IF (max(14, f0) .LT. g1 .OR. (15 + 2) .GT. (2 + 12)) g1 = (8 * 4)
  g0 = (max(0, v2) * 7)
  IF (la(4) .EQ. la(12)) THEN
    IF (g2 .LT. (v2 + f0) .OR. (la(7) + la(9)) .EQ. g1) g3 = f1
    DO g3 = 1, 4
      g1 = (la(8) - f1)
      f1 = la(12)
    ENDDO
  ELSE
    DO v2 = 2, 3
      g2 = 2
    ENDDO
  ENDIF
  f1 = (4 * -1)
  IF (.NOT. (mod(0, 6) .NE. max(-5, v2))) f1 = 2
  IF (f0 .GT. 0) THEN
    CALL proc1591(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1591(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f1 = 2, 6
    g1 = ((1 / (3 + -1)) - mod(-1, 7))
  ENDDO
  IF (abs(g3) .LE. la(6) .AND. 15 .GT. g3) THEN
    v0 = (la(7) * 11)
  ELSE
    PRINT *, abs((9 * f0))
  ENDIF
  v2 = -3
  v1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1589(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1592(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 8
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g1 = 1, 4
    DO f1 = 0, 1
      IF (max(-1, la(11)) .GT. 12 .OR. 6 .LE. la(10)) g0 = (3 + 6)
      v1 = -1
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1593(f0 - 1, (0 + (v1 + 9)))
  ENDIF
  CALL proc1859(1, v3)
  CALL proc1865(1, v2)
END

SUBROUTINE proc1593(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 10
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, v1
  la(8) = max(0, la(8))
  g3 = (15 / (4 + g2))
  v1 = ((-3 + 2) + (v1 * f0))
  IF (la(10) .LE. abs(la(3))) f1 = 12
  g3 = (g1 - 14)
  IF (la(9) .NE. mod(la(2), 4)) THEN
    DO g2 = 2, 3
      PRINT *, f1
      g3 = -2
    ENDDO
    IF ((9 / (2 + 6)) .LT. (12 - 5) .OR. 5 .LT. la(5)) THEN
      la(4) = mod(max(-1, f0), 2)
    ENDIF
  ELSE
    DO g2 = 1, 2
      g3 = (abs(v0) + g1)
    ENDDO
  ENDIF
  g0 = (4 / (5 + 4))
  g0 = mod(la(7), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1594(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1594(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 11
  v2 = -2
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = ((g0 - la(2)) * la(12))
  PRINT *, (-5 / (2 + v2))
  v2 = (abs(la(3)) * la(5))
  IF (f0 .GT. 0) THEN
    CALL proc1595(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1595(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((-3 - g2) .LE. (6 * v1) .AND. g2 .GE. max(la(12), g2)) THEN
    g1 = abs(mod(4, 7))
    IF (.NOT. (v0 .NE. la(9))) THEN
      la(2) = (g1 / (5 + la(2)))
    ELSE
      f1 = 6
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1592(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1596(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 8
  v2 = 0
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(10) = (la(9) + 1)
  IF (g1 .GT. la(5) .OR. (12 + v3) .NE. (g0 - 10)) v2 = la(5)
  v0 = g2
  la(12) = 8
  IF (12 .NE. abs(la(2)) .OR. 14 .NE. (3 / (4 + la(10)))) THEN
    IF (f1 .GT. g2) THEN
      la(1) = (-5 + abs(f1))
    ELSE
      v2 = (max(g1, 15) / (6 + la(8)))
    ENDIF
    la(6) = v0
  ENDIF
  v2 = (mod(la(12), 3) / (4 + la(8)))
  v0 = la(8)
  IF (max(-4, g3) .LE. (-5 * la(6))) v2 = 1
  IF ((g1 + f1) .NE. g0 .OR. (13 + la(8)) .GE. g1) THEN
    g3 = mod(mod(v0, 4), 7)
    la(1) = g2
  ELSE
    g2 = abs(14)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1597(f0 - 1, (0 + mod(6, 3)))
  ENDIF
  CALL proc1870(1, (0 + abs(-4)))
  CALL proc1873(1, v1)
END

SUBROUTINE proc1597(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = g0
  IF (.NOT. (2 .LE. (-5 + 13))) THEN
    v0 = (6 + la(3))
  ELSE
    v0 = 10
  ENDIF
  g3 = g3
  DO v1 = 0, 2
    IF (3 .LE. 10) f1 = la(2)
    IF (.NOT. ((9 * -1) .EQ. abs(la(2)))) f1 = max(g2, f1)
  ENDDO
  PRINT *, abs(0)
  IF (.NOT. (max(13, la(8)) .GE. (-1 + la(6)))) THEN
    v1 = mod(abs(14), 8)
    IF (abs(7) .GT. v1 .OR. la(10) .GE. (la(9) + f1)) g1 = 2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1598(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1598(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = max(la(1), f0)
  v1 = (-1 + 7)
  g1 = abs(abs(v0))
  v0 = abs(abs(la(10)))
  PRINT *, ((la(10) - 14) - 7)
  IF (mod(la(12), 7) .GT. 14 .AND. abs(9) .LT. (-3 + 0)) THEN
    la(9) = (la(4) / (3 + v1))
    g0 = 6
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1599(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1599(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = 7
  la(8) = 9
  IF ((la(6) - g3) .EQ. (g0 + 12)) THEN
    DO f1 = 2, 3
      g1 = 13
      g1 = g0
    ENDDO
  ENDIF
  g1 = (la(1) / (6 + 14))
  DO g1 = 1, 1
    IF (abs(10) .LE. (13 + -1) .AND. la(7) .LE. max(la(11), -3)) g0 = la(3)
    PRINT *, g2
  ENDDO
  la(11) = ((v1 - 2) * 13)
  IF (3 .GE. la(1)) f1 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1600(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1600(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (15 / (2 + 14))
  IF (f0 .GT. 0) THEN
    CALL proc1601(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1601(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((la(5) * -3) .GE. mod(13, 5)) v2 = v1
  DO g1 = 1, 1
    IF (.NOT. ((la(5) / (6 + f0)) .GT. (la(3) - la(6)))) v0 = (-3 - g1)
  ENDDO
  g2 = 4
  g2 = (la(11) + 2)
  IF (mod(la(5), 4) .GT. abs(6) .AND. 5 .NE. (la(11) / (3 + v0))) THEN
    PRINT *, mod(12, 2)
    v1 = (0 * la(1))
  ELSE
    DO g1 = 1, 2
      g2 = 14
      f1 = abs(abs(11))
    ENDDO
  ENDIF
  IF (v2 .LE. (6 + la(1))) g1 = 2
  g1 = 10
  g3 = ((la(12) - 8) + (f0 - la(6)))
  v1 = g0
  IF (f0 .GT. 0) THEN
    CALL proc1596(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1602(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(9) = la(5)
  DO v0 = 0, 3
    g3 = 11
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1603(f0 - 1, v1)
  ENDIF
  CALL proc1879(1, -2)
  CALL proc1883(1, 11)
END

SUBROUTINE proc1603(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = max(la(7), g2)
  la(2) = (-1 / (3 + 6))
  IF ((4 * 9) .LE. 11) g2 = (-1 + -1)
  IF (g2 .LE. v0) g2 = -5
  IF ((la(12) + 4) .NE. 9) THEN
    la(1) = (abs(-5) + f1)
  ELSE
    la(3) = ((15 - 14) + mod(9, 6))
  ENDIF
  IF (mod(-4, 8) .GT. 10 .OR. (g3 - 2) .LE. la(9)) f1 = max(6, 13)
  IF (.NOT. ((g2 / (5 + f1)) .LE. 5)) v0 = v0
  g2 = la(2)
  IF (.NOT. (1 .GE. abs(0))) g3 = (g1 + 11)
  IF (.NOT. (7 .GT. la(3))) f1 = abs(10)
  IF (f0 .GT. 0) THEN
    CALL proc1604(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1604(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(7) = (max(-2, -2) + (la(11) * -5))
  IF (.NOT. (max(f0, la(9)) .NE. (0 + 11))) THEN
    IF (.NOT. ((14 * g0) .LE. (la(3) - 5))) THEN
      IF (abs(4) .GE. abs(8)) g1 = (6 + g1)
    ELSE
      v0 = (v0 - -3)
    ENDIF
    f1 = la(6)
  ENDIF
  PRINT *, ((g3 * v1) - abs(14))
  IF ((10 - 14) .EQ. 10 .AND. mod(la(6), 5) .GE. la(11)) THEN
    v0 = la(3)
  ENDIF
  g2 = (4 - 9)
  g2 = f0
  v1 = ((la(9) * 5) - (14 + g0))
  g1 = v1
  g2 = (mod(f1, 7) + 7)
  IF (f0 .GT. 0) THEN
    CALL proc1605(f0 - 1, (0 + 13))
  ENDIF
END

SUBROUTINE proc1605(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (2 + abs(5))
  DO g0 = 3, 5
    IF ((8 / (4 + 8)) .GE. g1) THEN
      g2 = mod(la(7), 6)
      g1 = (g2 + la(8))
    ELSE
      g2 = f0
      v0 = max(la(10), v1)
    ENDIF
    g2 = abs(la(5))
  ENDDO
  g1 = ((-1 - 6) * 6)
  DO f1 = 1, 5
    IF ((la(12) / (2 + 4)) .GE. 9 .AND. 13 .LT. la(6)) THEN
      g0 = v0
      g0 = mod(max(la(12), la(7)), 7)
    ENDIF
  ENDDO
  v1 = g1
  IF (v0 .NE. max(-5, la(8)) .AND. (v1 + 8) .EQ. 3) THEN
    v0 = (abs(la(3)) / (4 + la(2)))
  ENDIF
  g1 = f1
  f1 = -1
  la(6) = (15 * f1)
  IF (f0 .GT. 0) THEN
    CALL proc1606(f0 - 1, (0 + g3))
  ENDIF
END

SUBROUTINE proc1606(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, 4
  IF (-2 .LT. la(2) .OR. (g2 + g3) .GE. (-3 * -2)) f1 = abs(8)
  f1 = g1
  IF (3 .LE. (0 * 0)) THEN
    DO v1 = 2, 5
      IF (la(4) .NE. abs(-3)) g2 = (g2 - g3)
    ENDDO
  ENDIF
  la(10) = 2
  IF (f0 .GT. 0) THEN
    CALL proc1607(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1607(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 0
  v2 = 5
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = max(la(8), 6)
  IF (f0 .GT. 0) THEN
    CALL proc1602(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1608(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(8) = mod(la(1), 3)
  IF (-1 .GT. f0) THEN
    g3 = g0
  ENDIF
  PRINT *, la(2)
  IF (max(3, la(7)) .EQ. max(8, 10) .AND. g1 .LT. 11) THEN
    g1 = mod((la(9) * la(10)), 5)
  ELSE
    g0 = abs((-1 + v0))
    g1 = mod(9, 7)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1609(f0 - 1, (0 + la(7)))
  ENDIF
  CALL proc1888(1, (0 + (7 / (3 + -4))))
  CALL proc1894(1, f1)
END

SUBROUTINE proc1609(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(la(6)) .EQ. abs(14) .OR. (-4 * -3) .EQ. -5) THEN
    IF (mod(-1, 5) .LE. -2) v1 = la(3)
    v1 = v0
  ELSE
    g3 = f1
    v0 = (g1 * -2)
  ENDIF
  la(11) = abs((la(11) * la(9)))
  DO g1 = 0, 3
    g0 = la(4)
  ENDDO
  la(5) = abs(la(2))
  g0 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1610(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1610(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 0
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (abs(g3) .LE. 13)) g0 = (f0 * 7)
  v1 = mod((0 * 5), 3)
  IF (abs(1) .GE. abs(-4)) THEN
    g2 = (la(8) * la(2))
  ENDIF
  g0 = (v2 + mod(1, 7))
  IF (f0 .GT. 0) THEN
    CALL proc1611(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1611(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, g2
  g2 = (10 / (4 + 5))
  la(7) = v1
  g1 = mod(max(la(1), f1), 6)
  IF (f0 .GT. 0) THEN
    CALL proc1612(f0 - 1, (0 + (la(10) * la(8))))
  ENDIF
END

SUBROUTINE proc1612(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 10
  v2 = 2
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1608(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1613(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((10 * la(5)) .LE. la(11))) THEN
    g3 = f1
    la(8) = 4
  ENDIF
  g0 = 3
  IF ((-2 / (6 + 1)) .LT. -5 .OR. 11 .GE. max(la(2), g2)) THEN
    v1 = la(12)
    f1 = ((la(12) + g2) / (3 + 4))
  ELSE
    g3 = ((0 - 8) / (4 + 1))
    la(3) = la(12)
  ENDIF
  g1 = (mod(la(12), 7) / (2 + 4))
  la(3) = ((g3 + la(1)) - 5)
  v0 = la(3)
  la(9) = abs(11)
  g0 = ((-4 - la(4)) + mod(-2, 6))
  IF (f0 .GT. 0) THEN
    CALL proc1614(f0 - 1, 0)
  ENDIF
  CALL proc1897(1, v0)
  CALL proc1901(1, v1)
END

SUBROUTINE proc1614(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = 8
  IF (max(12, v0) .GT. g0 .AND. 5 .LT. 5) g0 = 8
  IF (.NOT. ((-3 * f1) .LE. (8 / (5 + v0)))) g3 = mod(la(8), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1615(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1615(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (la(8) .GT. la(5)) THEN
    DO v1 = 0, 1
      IF (g1 .LE. f0 .AND. 2 .EQ. (g3 * v0)) g2 = abs(6)
      v2 = 6
    ENDDO
    PRINT *, (la(10) + max(6, la(3)))
  ENDIF
  PRINT *, mod(-1, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1616(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1616(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -3
  v2 = 9
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = (la(1) - (la(1) - 1))
  la(5) = abs(abs(la(4)))
  IF (.NOT. ((la(6) / (3 + -5)) .GE. -1)) THEN
    PRINT *, la(8)
    IF (abs(v2) .GT. la(6) .AND. la(6) .GE. abs(f0)) g3 = la(11)
  ELSE
    v3 = 4
  ENDIF
  v3 = (abs(4) / (3 + 12))
  IF (.NOT. (max(la(10), 3) .LT. v3)) v2 = -5
  g2 = ((1 - la(2)) - -1)
  IF (f0 .GT. 0) THEN
    CALL proc1613(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1617(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 5
  g0 = mod((f1 - la(9)), 6)
  DO g2 = 0, 4
    la(1) = la(6)
    DO g1 = 1, 3
      g0 = (15 - (la(5) - g2))
      g0 = la(2)
    ENDDO
  ENDDO
  v0 = ((8 - la(6)) * 8)
  DO f1 = 1, 4
    IF (.NOT. (-4 .LE. 5)) THEN
      g2 = (g0 + la(10))
      g3 = -4
    ELSE
      g2 = mod(f1, 6)
    ENDIF
    g3 = la(1)
  ENDDO
  f1 = (abs(g3) / (3 + -4))
  IF (f0 .GT. 0) THEN
    CALL proc1618(f0 - 1, v0)
  ENDIF
  CALL proc1904(1, v0)
  CALL proc1907(1, 7)
END

SUBROUTINE proc1618(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 4
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((la(7) / (3 + v3)) .GT. mod(la(2), 2) .OR. v0 .GT. 8) v1 = max(9, -1)
  DO g3 = 0, 1
    v3 = (11 + -1)
    la(1) = la(2)
  ENDDO
  DO v0 = 2, 4
    la(5) = ((-4 - v3) * la(10))
  ENDDO
  v0 = 3
  PRINT *, g2
  PRINT *, g0
  IF (g0 .NE. abs(6) .OR. 7 .LT. max(v1, 9)) THEN
    g0 = (mod(la(11), 6) - v0)
    v2 = max(g2, v0)
  ELSE
    g2 = la(8)
    la(2) = la(5)
  ENDIF
  IF (3 .LT. mod(1, 2) .AND. (la(6) * -4) .LT. g1) v1 = abs(2)
  g1 = -4
  g0 = abs(la(8))
  IF (f0 .GT. 0) THEN
    CALL proc1619(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1619(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 12
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(10) = ((11 - la(11)) + 2)
  PRINT *, ((g3 - -3) * g2)
  IF (f0 .GT. 0) THEN
    CALL proc1620(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1620(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((f0 + f1) .LE. la(7) .AND. g3 .GE. la(6)) THEN
    g1 = ((12 * -4) / (3 + 14))
    IF ((la(11) * -1) .GE. la(2) .AND. 5 .GE. abs(4)) THEN
      g2 = 7
    ELSE
      g0 = (la(8) - (la(9) * la(4)))
      la(10) = (-1 / (4 + 1))
    ENDIF
  ENDIF
  g3 = 6
  DO g0 = 0, 1
    v0 = (max(g1, 15) + (g1 - v1))
    PRINT *, 1
  ENDDO
  g0 = max(g0, 6)
  v1 = (abs(f0) * la(9))
  IF (max(3, v1) .NE. mod(6, 5) .OR. (3 + la(2)) .GT. (-1 * la(8))) g1 = 1
  PRINT *, (3 / (3 + la(7)))
  f1 = 0
  v1 = 10
  IF (f0 .GT. 0) THEN
    CALL proc1621(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1621(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -4
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(3) = (mod(la(10), 2) - -2)
  g0 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1622(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1622(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = g3
  v0 = (3 / (6 + f1))
  PRINT *, 11
  g2 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1617(f0 - 1, (0 + (-1 * f1)))
  ENDIF
END

SUBROUTINE proc1623(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = 2
  g0 = f1
  v2 = (0 + (la(12) * 12))
  PRINT *, abs((-5 / (2 + -1)))
  DO v1 = 3, 4
    la(10) = mod((5 / (6 + la(12))), 5)
    g2 = (abs(f0) * 0)
  ENDDO
  PRINT *, -4
  IF (15 .LE. g0 .OR. 10 .EQ. 0) THEN
    g1 = la(6)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1624(f0 - 1, f1)
  ENDIF
  CALL proc1911(1, 4)
  CALL proc1915(1, v1)
END

SUBROUTINE proc1624(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (14 .GT. (v0 / (4 + 8)))) THEN
    PRINT *, (-5 + (-2 + v1))
    g1 = max(f1, -2)
  ENDIF
  g0 = abs(mod(g2, 5))
  g1 = max(f1, la(4))
  g2 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1625(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1625(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 13
  v2 = 10
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(6) = (13 + max(11, la(1)))
  v0 = (v3 * la(7))
  g2 = v1
  IF ((v2 / (4 + la(8))) .NE. (8 - la(3)) .OR. -4 .GE. v2) THEN
    PRINT *, 15
    la(9) = ((9 / (3 + -4)) * la(5))
  ENDIF
  PRINT *, (abs(g2) + g1)
  PRINT *, (la(3) - g1)
  g2 = (-5 / (5 + v3))
  v3 = la(6)
  IF (.NOT. (v3 .NE. la(9))) g3 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1626(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1626(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 10
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = f1
  v1 = 5
  g1 = la(3)
  v1 = max(11, 15)
  DO v2 = 3, 3
    g2 = 13
    DO g1 = 1, 4
      g0 = g1
    ENDDO
  ENDDO
  IF (13 .GE. (-4 - 5)) THEN
    g1 = 0
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1623(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1627(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 10
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = mod(-4, 6)
  la(12) = (v3 - mod(la(6), 7))
  g3 = (-5 + max(10, la(12)))
  g0 = 7
  IF (g3 .EQ. f0 .OR. 9 .EQ. max(la(6), 1)) THEN
    PRINT *, mod(abs(9), 6)
  ENDIF
  la(4) = 6
  g3 = mod(abs(la(1)), 4)
  la(12) = (15 + abs(15))
  IF (f0 .GT. 0) THEN
    CALL proc1628(f0 - 1, v3)
  ENDIF
  CALL proc1918(1, v2)
  CALL proc1924(1, v0)
END

SUBROUTINE proc1628(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 4
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(12) = 1
  la(3) = (10 + abs(6))
  IF (f0 .GT. 0) THEN
    CALL proc1629(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1629(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 4
  v2 = 3
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = ((0 + la(1)) * 5)
  IF (3 .GT. -4 .AND. la(12) .EQ. la(9)) THEN
    DO g1 = 3, 5
      IF (la(2) .LE. 3 .AND. v1 .LE. la(5)) v1 = f0
      IF ((5 - g0) .NE. -5 .OR. (10 - la(7)) .LT. v3) f1 = (g2 * v3)
    ENDDO
    PRINT *, la(9)
  ENDIF
  f1 = mod(7, 7)
  v2 = la(3)
  la(9) = g3
  g2 = 12
  IF (mod(g3, 7) .EQ. 14 .AND. abs(9) .LE. max(f0, v2)) THEN
    v2 = (abs(la(8)) + (13 * 1))
    v2 = (-1 - abs(7))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1630(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1630(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 8
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = (abs(5) - max(4, la(2)))
  PRINT *, la(8)
  IF (g2 .GT. (v1 - -5) .OR. max(la(5), la(5)) .LE. mod(la(8), 7)) v1 = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1631(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1631(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 7
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 2, 5
    IF (8 .LT. la(4) .OR. la(7) .GT. 10) THEN
      f1 = la(9)
    ELSE
      f1 = (la(3) - abs(14))
    ENDIF
  ENDDO
  DO g2 = 1, 3
    g3 = -2
  ENDDO
  PRINT *, la(2)
  IF ((la(12) / (2 + la(9))) .LE. 3 .OR. (-2 - la(3)) .EQ. 6) THEN
    g1 = mod(8, 6)
    g1 = ((g3 - la(12)) / (5 + g1))
  ELSE
    g1 = la(12)
  ENDIF
  v1 = (g3 - (7 / (4 + 7)))
  v0 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1627(f0 - 1, (0 + (8 - la(9))))
  ENDIF
END

SUBROUTINE proc1632(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 6
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = f0
  g1 = la(12)
  v0 = -2
  g3 = mod((v1 - la(12)), 8)
  f1 = max(3, la(9))
  IF (14 .EQ. f1) THEN
    g3 = -1
  ELSE
    IF (.NOT. ((7 + 4) .LE. 8)) THEN
      v2 = (mod(12, 2) + (-2 / (5 + 13)))
      v1 = mod(-3, 4)
    ELSE
      g3 = la(4)
    ENDIF
  ENDIF
  DO v2 = 3, 7
    g0 = ((8 + 6) / (6 + la(4)))
    DO f1 = 3, 5
      g3 = ((-2 / (5 + la(9))) / (4 + 13))
    ENDDO
  ENDDO
  g3 = abs(6)
  PRINT *, abs(la(3))
  v2 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1633(f0 - 1, -2)
  ENDIF
  CALL proc1929(1, (0 + (f1 / (5 + 6))))
  CALL proc1934(1, v1)
END

SUBROUTINE proc1633(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (la(9) + g2)
  IF (f0 .GT. 0) THEN
    CALL proc1634(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1634(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = la(2)
  g2 = (5 + 2)
  PRINT *, -1
  IF (f0 .GT. 0) THEN
    CALL proc1635(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1635(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 13
  v2 = 6
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = abs((la(1) + la(6)))
  IF (10 .EQ. (f1 / (4 + la(5)))) f1 = max(g0, -2)
  IF ((4 / (3 + la(1))) .LE. max(v1, 11) .OR. mod(v3, 3) .EQ. 5) THEN
    PRINT *, (-1 - abs(8))
    DO v0 = 2, 5
      g1 = la(1)
    ENDDO
  ENDIF
  IF ((la(10) + la(8)) .NE. (7 + 15) .AND. (3 * 4) .EQ. (la(5) + la(3))) THEN
    v3 = abs(v1)
  ELSE
    v3 = abs(7)
    la(12) = abs(abs(v3))
  ENDIF
  PRINT *, 10
  IF (f0 .GT. 0) THEN
    CALL proc1636(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1636(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, abs(v1)
  IF (abs(6) .GE. mod(v0, 3)) g1 = mod(la(8), 5)
  g0 = (g3 * v0)
  v1 = (11 + abs(13))
  IF ((1 + 3) .NE. 6 .AND. 1 .EQ. mod(-2, 5)) g0 = la(5)
  g1 = (g3 * la(4))
  g1 = (max(f0, g1) + max(la(12), -3))
  IF (abs(14) .NE. (la(6) / (6 + 4)) .OR. la(6) .NE. g3) THEN
    v0 = -4
    f1 = abs(13)
  ELSE
    v0 = ((la(4) * -5) - la(2))
  ENDIF
  f1 = 12
  g0 = max(la(7), 13)
  IF (f0 .GT. 0) THEN
    CALL proc1637(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1637(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -3
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (1 / (4 + -3))
  IF (f0 .GT. 0) THEN
    CALL proc1632(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1638(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = g2
  IF (v1 .LT. mod(-4, 6) .OR. la(3) .GT. (la(5) + 7)) g2 = abs(la(6))
  IF (g2 .LE. la(5)) THEN
    IF (v1 .LE. (la(1) / (5 + 3)) .AND. (la(4) + g0) .GE. -3) v1 = 15
    g2 = (0 / (2 + la(12)))
  ELSE
    IF (4 .LE. v0 .OR. mod(-2, 6) .GE. 6) THEN
      g2 = (-5 + -1)
    ENDIF
    g1 = f1
  ENDIF
  g0 = abs(-4)
  g1 = max(g3, 12)
  IF (f0 .GT. 0) THEN
    CALL proc1639(f0 - 1, 1)
  ENDIF
  CALL proc1939(1, (0 + (v0 - la(1))))
  CALL proc1943(1, v0)
END

SUBROUTINE proc1639(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 12
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((3 * -1) .LE. 15)) v1 = 3
  v0 = abs(max(la(11), 1))
  IF ((1 / (5 + 6)) .LE. max(-2, la(3)) .OR. (la(12) * 12) .LE. (0 + la(1))) THEN
    g3 = ((la(3) + v1) + abs(-5))
    v0 = g1
  ENDIF
  f1 = g0
  PRINT *, ((la(9) / (2 + 10)) - 7)
  IF (f0 .GT. 0) THEN
    CALL proc1640(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1640(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 9
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, mod((12 * 13), 2)
  g2 = (v2 / (2 + la(1)))
  PRINT *, max(g0, -3)
  IF (f0 .GT. 0) THEN
    CALL proc1641(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1641(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 1
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (la(3) .EQ. max(13, g3))) THEN
    PRINT *, la(11)
    DO v1 = 1, 4
      g2 = 7
    ENDDO
  ENDIF
  la(11) = 7
  g2 = (mod(-5, 2) - (12 - v0))
  la(11) = (g2 / (4 + 2))
  IF (f0 .GT. 0) THEN
    CALL proc1642(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1642(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (13 .GE. abs(la(8)) .AND. (la(7) * la(10)) .NE. la(8)) g2 = 14
  g2 = -5
  DO v1 = 1, 1
    IF (-5 .LE. f0 .AND. v1 .LE. max(g1, 10)) THEN
      g2 = (abs(6) * 13)
    ENDIF
  ENDDO
  g1 = (abs(13) * f0)
  v1 = (max(v1, 8) * la(5))
  g3 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1643(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1643(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -4
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO f1 = 1, 2
    g2 = 5
    la(12) = ((15 - -1) - max(10, 13))
  ENDDO
  IF (mod(15, 6) .GE. v2) THEN
    g0 = (g0 / (4 + 7))
    IF ((12 / (2 + v1)) .GT. (g2 + 2) .OR. abs(2) .NE. 9) g2 = 2
  ELSE
    la(6) = -4
    IF ((la(10) + 14) .GT. 1 .OR. -5 .GE. -5) THEN
      v2 = (max(2, 11) * 1)
    ELSE
      g1 = max(v1, -2)
    ENDIF
  ENDIF
  g1 = (abs(10) + (0 * 13))
  g1 = mod(mod(la(6), 6), 3)
  v0 = (15 - -3)
  v0 = (la(5) / (4 + la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc1638(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1644(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 7
  v2 = 11
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = 7
  f1 = mod(mod(12, 6), 6)
  IF (.NOT. ((v3 + v0) .GE. (g0 * -2))) f1 = abs(15)
  IF ((la(6) * la(7)) .LT. (9 / (3 + -2)) .AND. 6 .NE. (-4 + la(8))) THEN
    v0 = la(8)
    v2 = max(v0, 11)
  ELSE
    g3 = la(5)
  ENDIF
  g0 = (14 - (-4 * la(8)))
  IF (f0 .GT. 0) THEN
    CALL proc1645(f0 - 1, 8)
  ENDIF
  CALL proc1948(1, (0 + v2))
  CALL proc1953(1, (0 + mod(g2, 5)))
END

SUBROUTINE proc1645(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = (mod(9, 3) * la(11))
  g2 = 15
  IF (abs(0) .LT. 10 .AND. 5 .LE. f1) THEN
    g3 = max(la(3), g3)
  ELSE
    g1 = abs(-2)
    f1 = mod(la(11), 7)
  ENDIF
  f1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1646(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1646(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 5
  v2 = 4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(5) = ((10 - 4) - -3)
  v3 = abs((8 / (6 + 0)))
  IF (0 .NE. g2) g0 = v2
  v2 = 11
  IF (f0 .GT. 0) THEN
    CALL proc1644(f0 - 1, (0 + -4))
  ENDIF
END

SUBROUTINE proc1647(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = mod(max(la(12), 7), 7)
  IF (.NOT. ((la(10) - 14) .GE. 9)) THEN
    v0 = ((g1 / (2 + la(5))) + g1)
  ELSE
    la(6) = ((la(7) / (6 + -1)) - max(f1, v0))
  ENDIF
  PRINT *, g2
  IF ((9 / (3 + v0)) .EQ. (12 * f0)) THEN
    g1 = 13
    g2 = la(1)
  ELSE
    IF (abs(5) .LT. -4 .AND. 6 .GT. mod(v1, 8)) THEN
      la(2) = (mod(la(4), 8) + 12)
      g2 = la(4)
    ELSE
      g2 = abs((f1 + 5))
      f1 = ((la(6) * 10) - max(-2, 4))
    ENDIF
    g3 = (abs(15) / (5 + 12))
  ENDIF
  g1 = (mod(8, 4) - abs(13))
  g0 = (g2 / (4 + la(5)))
  DO v0 = 1, 2
    PRINT *, (la(7) + 5)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1648(f0 - 1, v0)
  ENDIF
  CALL proc1959(1, v1)
  CALL proc1963(1, f1)
END

SUBROUTINE proc1648(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = 11
  la(12) = 8
  PRINT *, 2
  la(8) = 14
  v0 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1649(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1649(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = g3
  v0 = (mod(la(2), 4) + 14)
  v1 = abs(la(10))
  DO v0 = 0, 3
    PRINT *, -2
    la(10) = 11
  ENDDO
  IF ((g0 - 10) .GE. g3 .OR. g1 .GE. v0) g1 = (la(10) * la(7))
  f1 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1650(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1650(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(10) = ((la(3) / (3 + 0)) + (4 * la(2)))
  IF (4 .LE. la(10)) THEN
    g2 = mod(mod(v0, 7), 8)
  ENDIF
  IF (abs(14) .GE. (6 + g2) .AND. 5 .EQ. f0) v1 = max(v1, g0)
  IF ((13 + 5) .LE. (12 * 9) .AND. mod(3, 8) .NE. -1) v0 = (10 + 11)
  v1 = -5
  v0 = (la(4) - la(9))
  v1 = 3
  IF (f0 .GT. 0) THEN
    CALL proc1651(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1651(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 13
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = f1
  la(11) = abs(mod(v0, 8))
  v2 = 1
  v1 = 6
  g2 = 6
  IF (-2 .LE. 11) g2 = 3
  IF (.NOT. ((la(4) / (5 + v0)) .LT. (g1 / (6 + -5)))) v0 = max(-5, 15)
  IF (.NOT. (v0 .LT. abs(8))) v0 = 4
  g0 = g1
  v0 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1652(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1652(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = mod(-2, 2)
  IF (f0 .GT. 0) THEN
    CALL proc1647(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1653(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, mod((8 / (6 + la(11))), 4)
  v2 = (f1 - g0)
  DO g1 = 0, 0
    la(6) = 10
    v0 = max(la(12), v2)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1654(f0 - 1, v1)
  ENDIF
  CALL proc1967(1, f1)
  CALL proc1972(1, v0)
END

SUBROUTINE proc1654(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v1 = 3, 7
    v0 = -1
  ENDDO
  IF (mod(6, 7) .LE. -4 .AND. la(1) .LE. la(8)) g3 = g3
  f1 = 7
  v0 = (g3 + la(6))
  PRINT *, (la(12) + max(13, 11))
  IF (abs(2) .NE. (4 * v1) .AND. 12 .GE. (g1 * la(10))) g0 = 1
  la(6) = la(4)
  v0 = ((9 + -3) - -2)
  IF (f0 .GT. 0) THEN
    CALL proc1655(f0 - 1, (0 + mod(11, 2)))
  ENDIF
END

SUBROUTINE proc1655(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 2
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, 5
  IF (f0 .GT. 0) THEN
    CALL proc1656(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1656(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = ((f0 / (5 + -1)) / (2 + 1))
  g0 = f0
  PRINT *, max(7, la(7))
  PRINT *, 6
  IF (f0 .GT. 0) THEN
    CALL proc1657(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1657(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 12
  v2 = 8
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = mod(max(-1, la(4)), 5)
  g2 = 0
  v1 = (15 - 11)
  PRINT *, -2
  IF (.NOT. (la(9) .LE. la(8))) THEN
    g2 = (v3 + max(8, 13))
    PRINT *, abs((-3 - la(5)))
  ELSE
    la(6) = 9
  ENDIF
  PRINT *, (f1 * 7)
  la(3) = la(4)
  g0 = (max(0, g2) * 9)
  DO f1 = 0, 0
    v3 = v3
    PRINT *, la(3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1653(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1658(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 11
  v2 = -2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (-2 - (v3 / (2 + f1)))
  IF (6 .LT. (-5 + la(3)) .OR. max(0, 12) .GE. (g1 / (3 + f1))) g3 = max(8, f1)
  IF (f0 .GT. 0) THEN
    CALL proc1659(f0 - 1, 5)
  ENDIF
  CALL proc1978(1, v2)
  CALL proc1981(1, v2)
END

SUBROUTINE proc1659(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (-3 .GE. (f1 * 5)) THEN
    g1 = 0
  ELSE
    la(2) = 0
    g2 = 8
  ENDIF
  v0 = ((11 + la(7)) - (la(11) / (2 + g3)))
  v0 = la(5)
  g1 = abs(max(15, la(11)))
  IF (.NOT. (max(la(4), f1) .GT. la(6))) g3 = -3
  g3 = mod((v1 * v1), 8)
  f1 = (abs(9) + g2)
  f1 = la(9)
  f1 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1660(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1660(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(la(10), 7) .EQ. la(1) .AND. mod(g1, 4) .GT. la(11)) THEN
    DO g1 = 1, 1
      IF ((la(11) - la(1)) .GE. 3 .AND. (3 * -5) .GE. la(12)) v0 = la(10)
      g0 = 11
    ENDDO
    g1 = ((v0 - 8) * la(11))
  ELSE
    g0 = (mod(-1, 3) * 6)
  ENDIF
  g3 = 7
  f1 = max(9, 6)
  DO g1 = 2, 6
    PRINT *, ((la(8) + f0) - max(15, 10))
    la(9) = f0
  ENDDO
  IF (mod(-4, 3) .GT. la(12)) THEN
    DO v0 = 2, 3
      g2 = ((13 * 10) * 2)
    ENDDO
  ENDIF
  IF (-1 .GE. g0) g2 = 7
  g1 = g2
  g0 = ((v0 * 15) + max(g1, la(2)))
  f1 = g2
  IF (f0 .GT. 0) THEN
    CALL proc1658(f0 - 1, (0 + la(8)))
  ENDIF
END

SUBROUTINE proc1661(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 4
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = -5
  DO g1 = 3, 4
    g0 = ((v3 * 8) - (f0 / (3 + g3)))
  ENDDO
  DO v2 = 1, 3
    DO v0 = 0, 3
      g1 = 8
      g0 = ((la(2) + la(5)) * 6)
    ENDDO
  ENDDO
  v3 = la(8)
  g1 = max(-5, -2)
  la(8) = 2
  PRINT *, ((la(11) / (3 + g3)) - (6 * 10))
  PRINT *, la(12)
  g3 = (la(7) - g3)
  PRINT *, max(v2, 11)
  IF (f0 .GT. 0) THEN
    CALL proc1662(f0 - 1, 1)
  ENDIF
  CALL proc1984(1, v1)
  CALL proc1990(1, v0)
END

SUBROUTINE proc1662(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 11
  v2 = 6
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = (mod(g0, 5) + mod(4, 8))
  v2 = ((f0 / (5 + 6)) + 0)
  IF (g0 .EQ. la(1)) g0 = (v1 * la(3))
  g3 = abs((5 / (2 + 9)))
  v0 = (abs(2) - g1)
  g3 = ((la(12) * f0) / (2 + la(1)))
  la(8) = (v3 * v1)
  v3 = ((14 / (5 + -2)) / (6 + 0))
  IF (mod(la(12), 2) .LT. (7 / (5 + -4)) .OR. la(4) .LE. la(11)) THEN
    IF (3 .GE. mod(la(7), 6) .OR. (f1 / (5 + 10)) .EQ. la(8)) v2 = 2
    PRINT *, ((la(12) + 15) - g2)
  ENDIF
  IF (.NOT. (-4 .LE. la(1))) THEN
    g1 = -3
    IF (la(8) .NE. abs(6) .OR. max(-2, g0) .EQ. v0) g3 = (f1 / (3 + la(11)))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1663(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1663(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 9
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1661(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1664(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (mod(la(8), 6) .LT. g2)) g0 = la(12)
  la(6) = 10
  g3 = (la(8) * 9)
  IF (7 .EQ. 13 .AND. abs(8) .NE. v0) THEN
    v0 = 8
    DO v1 = 3, 6
      PRINT *, 10
    ENDDO
  ELSE
    PRINT *, la(9)
  ENDIF
  g2 = (14 - 12)
  IF ((11 / (2 + la(11))) .NE. 0 .OR. abs(4) .NE. f0) g1 = la(4)
  f1 = 8
  IF (0 .EQ. (f1 - la(4)) .OR. (g1 / (3 + 14)) .GT. 6) THEN
    v1 = max(12, g2)
    DO g0 = 3, 7
      IF (abs(g3) .GT. (la(5) * -5) .AND. (g0 / (3 + -2)) .LT. -4) g1 = g0
      IF (.NOT. (g3 .GT. g2)) f1 = mod(12, 8)
    ENDDO
  ENDIF
  la(4) = (mod(la(10), 4) / (4 + la(2)))
  IF (f0 .GT. 0) THEN
    CALL proc1665(f0 - 1, 4)
  ENDIF
  CALL proc1994(1, v1)
END

SUBROUTINE proc1665(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 5
  v2 = 10
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (8 + (15 - -4))
  DO v1 = 1, 4
    DO g1 = 2, 3
      PRINT *, (-1 / (2 + -2))
    ENDDO
  ENDDO
  v2 = max(g1, 0)
  IF (abs(la(8)) .EQ. abs(la(12))) v1 = max(la(5), 1)
  IF (mod(-2, 2) .LE. (14 - 0)) THEN
    PRINT *, (13 - (-4 - la(9)))
    IF (15 .LE. max(-1, 3)) THEN
      IF (2 .LE. 4 .OR. g0 .LE. (11 * 0)) v3 = (7 + v3)
      v3 = la(9)
    ENDIF
  ELSE
    PRINT *, (mod(v3, 2) - (6 + la(10)))
    g3 = ((14 * la(10)) / (4 + v2))
  ENDIF
  PRINT *, 13
  v1 = 4
  PRINT *, 14
  IF (f0 .GT. 0) THEN
    CALL proc1666(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1666(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 4
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = (4 / (5 + 13))
  DO g3 = 3, 6
    v1 = 2
  ENDDO
  v0 = mod((1 / (2 + 1)), 2)
  g0 = ((11 + 14) / (2 + 14))
  la(2) = abs(abs(la(11)))
  IF (8 .LE. mod(g0, 4)) THEN
    v1 = la(7)
    DO v1 = 1, 5
      PRINT *, (la(8) - (2 + la(5)))
    ENDDO
  ELSE
    IF (5 .GT. g3) THEN
      g3 = 7
      f1 = mod(la(4), 7)
    ELSE
      la(10) = mod((-5 + la(8)), 5)
    ENDIF
  ENDIF
  IF (mod(g2, 8) .GE. (la(5) * g0) .AND. abs(f1) .LT. -3) THEN
    IF (.NOT. (la(11) .LT. -5)) g0 = la(11)
  ELSE
    PRINT *, (1 * g1)
    IF ((2 + la(10)) .EQ. (g3 - f0)) THEN
      g3 = -4
      v1 = ((f1 - -3) * f1)
    ELSE
      g3 = (abs(f0) + -4)
    ENDIF
  ENDIF
  g0 = max(-4, la(9))
  IF ((-3 / (6 + 2)) .NE. la(1) .OR. abs(g0) .LT. mod(2, 7)) g2 = 1
  DO g1 = 3, 6
    v1 = abs(max(9, f1))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1667(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1667(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (-2 .NE. -3 .OR. 8 .EQ. (8 - la(9))) THEN
    IF (.NOT. ((la(7) * v0) .LT. (la(2) + 9))) THEN
      g0 = (0 - 10)
      v1 = max(4, 0)
    ENDIF
  ENDIF
  g0 = abs(-1)
  v0 = -3
  PRINT *, 1
  IF ((f0 / (2 + -2)) .EQ. (la(3) - 10) .OR. -2 .LE. f1) g0 = 12
  g0 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1664(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1668(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = f0
  g0 = (13 - (g0 + -1))
  IF ((la(3) / (2 + -2)) .LE. max(3, 9)) THEN
    g3 = 8
    IF (max(5, -3) .LT. mod(2, 5) .OR. f1 .NE. la(2)) g3 = (f1 * 14)
  ELSE
    PRINT *, la(9)
  ENDIF
  PRINT *, 2
  IF (.NOT. (abs(5) .GT. (10 * 15))) THEN
    v1 = abs(max(3, la(10)))
    g3 = f0
  ELSE
    PRINT *, abs(1)
    la(9) = (f1 / (3 + -1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1669(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1669(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, max(8, 7)
  g2 = (abs(la(6)) / (2 + 3))
  f1 = la(1)
  IF ((3 / (3 + 11)) .GT. -3) THEN
    la(11) = max(7, g0)
    DO g1 = 3, 3
      PRINT *, (g3 * 10)
      v2 = -3
    ENDDO
  ELSE
    IF (13 .EQ. v2) f1 = (8 / (4 + -3))
    PRINT *, max(la(6), g0)
  ENDIF
  PRINT *, la(1)
  la(12) = 11
  IF (f0 .GT. 0) THEN
    CALL proc1670(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1670(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 6
  v2 = 11
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = la(2)
  la(1) = (-1 * la(8))
  g1 = abs(f0)
  IF ((la(2) / (6 + la(5))) .GT. (-2 + -1) .OR. la(9) .LE. la(2)) THEN
    PRINT *, -1
    v2 = v1
  ELSE
    g1 = la(11)
    f1 = la(2)
  ENDIF
  IF (mod(9, 6) .GE. (la(12) + la(1)) .AND. max(g1, 11) .EQ. 8) THEN
    g3 = -5
  ENDIF
  PRINT *, 9
  PRINT *, 2
  g1 = abs(max(6, 14))
  IF (f0 .GT. 0) THEN
    CALL proc1668(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1671(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = ((15 * la(3)) - v1)
  g3 = mod(la(3), 6)
  g2 = v1
  f1 = (0 / (2 + g3))
  PRINT *, abs((v1 * f1))
  IF (.NOT. (la(11) .GT. -3)) v0 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1672(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1672(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 3
  v2 = -2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = -4
  v2 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1673(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1673(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(7) .NE. la(5) .OR. 12 .LT. -5) THEN
    f1 = -4
    g0 = (-4 / (4 + la(8)))
  ENDIF
  g3 = (mod(-2, 5) - (11 + 13))
  f1 = v1
  IF (mod(3, 7) .EQ. (2 * la(9)) .AND. (0 - g2) .NE. -4) g2 = (g3 - 13)
  f1 = (mod(g1, 5) * la(11))
  DO g1 = 1, 2
    DO v1 = 0, 3
      PRINT *, 7
      g0 = (mod(2, 6) - 7)
    ENDDO
    g3 = la(9)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1671(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1674(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 14
  v2 = 9
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = mod(1, 7)
  v3 = -1
  g3 = abs(mod(la(12), 7))
  g2 = ((v2 - -1) / (6 + la(9)))
  DO v2 = 0, 3
    g1 = 14
  ENDDO
  IF (.NOT. (v2 .GE. la(10))) THEN
    la(7) = f0
    g3 = abs(-4)
  ENDIF
  g3 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1675(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1675(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((7 / (2 + 0)) .EQ. 15 .AND. la(5) .NE. v1) THEN
    IF (.NOT. ((la(7) + la(3)) .GT. (-2 / (6 + g0)))) THEN
      f1 = mod(max(g3, g1), 8)
      v0 = (15 + (la(8) * g1))
    ENDIF
    IF (g3 .LE. abs(5) .OR. abs(-5) .LE. (la(9) + 0)) THEN
      la(10) = abs((5 - la(3)))
    ENDIF
  ENDIF
  g2 = max(14, v1)
  g0 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1676(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1676(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -4
  v2 = 0
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = (la(2) + la(10))
  PRINT *, max(v1, 14)
  g0 = (10 / (6 + la(4)))
  v1 = (la(9) / (6 + 8))
  v3 = 2
  g3 = (11 * g2)
  g3 = 10
  DO v2 = 3, 5
    v3 = la(8)
    DO g3 = 2, 2
      v0 = v3
      PRINT *, (abs(0) * v3)
    ENDDO
  ENDDO
  DO g3 = 0, 4
    la(9) = 15
    DO g0 = 0, 2
      IF ((1 - 4) .LT. -1 .AND. (1 / (3 + 4)) .EQ. (14 + la(8))) v0 = -4
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1677(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1677(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((9 + 13) .GE. (-1 + 0))) g2 = (g1 + g0)
  DO f1 = 3, 6
    DO g2 = 0, 0
      v0 = (max(-3, 1) / (6 + la(11)))
    ENDDO
  ENDDO
  v1 = mod(mod(8, 3), 4)
  v0 = abs(10)
  IF (g3 .LT. (3 * g2) .OR. abs(la(9)) .GE. la(11)) v0 = 7
  IF (f0 .GT. 0) THEN
    CALL proc1678(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1678(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -4
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, -3
  PRINT *, -5
  DO v2 = 3, 4
    IF (.NOT. ((g2 + la(9)) .LE. la(6))) THEN
      PRINT *, v2
    ENDIF
    PRINT *, max(14, f1)
  ENDDO
  IF (.NOT. ((f1 * -3) .LT. 5)) g1 = (9 * v0)
  f1 = 4
  IF (.NOT. (2 .GT. (g1 / (3 + g1)))) THEN
    v1 = mod(max(8, -4), 7)
  ELSE
    f1 = 9
    PRINT *, 4
  ENDIF
  g3 = abs((la(12) + -2))
  IF (15 .GE. la(5)) THEN
    g1 = v2
    v0 = la(1)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1674(f0 - 1, (0 + mod(la(7), 4)))
  ENDIF
END

SUBROUTINE proc1679(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 1
  v2 = -1
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 4
  g2 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1680(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1680(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((la(11) + g3) .EQ. max(f1, -2) .OR. max(3, f0) .LE. la(9)) g0 = (13 - f1)
  v0 = 8
  PRINT *, la(5)
  v0 = ((11 - g1) / (5 + g2))
  IF (f0 .GT. 0) THEN
    CALL proc1681(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1681(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = (mod(-4, 8) / (3 + 5))
  DO v1 = 0, 4
    g0 = (la(9) / (5 + g1))
    g2 = abs(max(13, 6))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1682(f0 - 1, (0 + (la(9) * v1)))
  ENDIF
END

SUBROUTINE proc1682(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (abs(-4) * 12)
  v0 = g3
  g3 = 7
  DO v1 = 3, 5
    IF (.NOT. (mod(g1, 7) .LT. abs(-3))) THEN
      g3 = la(6)
    ELSE
      PRINT *, 6
      la(3) = max(0, g2)
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1683(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1683(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 11
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (mod(g2, 8) - (la(11) - la(5)))
  la(6) = abs(8)
  IF ((la(5) * la(1)) .EQ. 15) g1 = mod(10, 8)
  IF (mod(10, 3) .GE. abs(-3) .OR. abs(9) .LE. abs(g2)) THEN
    g3 = 8
  ENDIF
  la(1) = (la(4) + 4)
  v0 = la(5)
  PRINT *, ((la(5) / (3 + la(1))) + 14)
  g1 = max(la(4), 9)
  f1 = -2
  f1 = g0
  IF (f0 .GT. 0) THEN
    CALL proc1684(f0 - 1, (0 + -4))
  ENDIF
END

SUBROUTINE proc1684(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 0
  v2 = 14
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (f0 * 13)
  DO g2 = 3, 5
    g0 = (g0 + -1)
    v0 = la(9)
  ENDDO
  IF (.NOT. (g3 .GT. 1)) THEN
    v3 = 12
    DO g0 = 3, 6
      IF (7 .LT. 6) v1 = abs(2)
    ENDDO
  ENDIF
  g2 = -5
  PRINT *, ((v2 + g3) * 8)
  DO f1 = 2, 2
    la(4) = la(3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1679(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1685(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(7) = max(v0, 2)
  v2 = (13 + (la(2) + 0))
  IF (.NOT. (1 .GE. abs(7))) g3 = mod(1, 3)
  g2 = v2
  la(4) = abs((la(5) / (6 + f1)))
  DO g2 = 1, 3
    PRINT *, 1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1686(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1686(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v1 = 3, 3
    g1 = 9
    g2 = g0
  ENDDO
  IF (.NOT. (0 .LE. g2)) THEN
    IF (.NOT. (14 .GT. abs(7))) THEN
      f1 = (5 + (la(9) / (4 + -2)))
    ELSE
      PRINT *, la(12)
    ENDIF
    g3 = mod(0, 8)
  ENDIF
  IF (0 .LT. 10) THEN
    v0 = (abs(g1) * f1)
  ELSE
    IF ((la(12) / (4 + la(2))) .LT. 8 .OR. max(2, -5) .GT. max(la(9), la(5))) v0 = abs(2)
  ENDIF
  IF (abs(13) .EQ. la(9)) THEN
    g0 = (g0 + 12)
    g0 = abs(mod(la(4), 3))
  ELSE
    IF ((11 / (5 + 13)) .GE. max(11, la(5)) .OR. (la(3) / (4 + 5)) .NE. (v0 / (2 + -2))) v1 = max(g1, la(11))
  ENDIF
  la(2) = (abs(7) / (3 + 5))
  PRINT *, mod(la(1), 2)
  v0 = (la(11) / (5 + v0))
  f1 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1687(f0 - 1, (0 + abs(5)))
  ENDIF
END

SUBROUTINE proc1687(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 5
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (4 .NE. 11 .OR. (f1 - -1) .LE. abs(0)) THEN
    IF (abs(10) .EQ. (7 / (2 + f1)) .OR. 11 .EQ. la(1)) THEN
      la(7) = (f1 / (6 + la(12)))
    ELSE
      la(7) = 1
    ENDIF
  ELSE
    la(4) = la(1)
  ENDIF
  v0 = mod(g1, 3)
  IF (max(la(9), -1) .EQ. 3 .AND. (g3 * v1) .EQ. mod(-2, 2)) THEN
    IF (max(15, 15) .LT. mod(la(7), 5) .AND. max(6, 10) .LT. g2) THEN
      g1 = ((4 - -1) + mod(8, 6))
    ENDIF
    v0 = (max(g2, 5) + v2)
  ENDIF
  DO g0 = 3, 4
    PRINT *, 0
  ENDDO
  g1 = (11 - la(12))
  IF (-3 .LE. (-1 + -5) .AND. (12 - 7) .LT. 10) g2 = abs(la(7))
  IF (.NOT. (12 .NE. (-2 - 8))) f1 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1685(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1688(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, mod((g0 + la(3)), 4)
  IF ((la(1) / (4 + -3)) .GE. (g0 * la(1)) .OR. la(12) .NE. (g3 + la(10))) f1 = -2
  v1 = f0
  IF (9 .EQ. (1 - 4)) g0 = 9
  IF (.NOT. ((-2 + 4) .GE. la(6))) v1 = la(11)
  g1 = mod(-1, 3)
  g1 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1689(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1689(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -1
  v2 = -3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g3 = 1, 4
    DO f1 = 3, 4
      g2 = la(1)
    ENDDO
  ENDDO
  v3 = ((-2 * la(8)) + max(-2, g1))
  g0 = la(3)
  v2 = max(v2, la(1))
  DO v3 = 3, 4
    f1 = f1
  ENDDO
  IF (.NOT. (la(11) .NE. (g0 + v0))) THEN
    g0 = (la(1) / (6 + la(9)))
    IF (.NOT. ((la(5) + 8) .EQ. 14)) g0 = (la(8) * la(7))
  ENDIF
  PRINT *, 15
  v3 = la(7)
  v0 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1690(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1690(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = ((g0 / (3 + g1)) + v0)
  g2 = la(5)
  g2 = f1
  IF (.NOT. (max(v0, 10) .GT. (15 / (2 + la(7))))) g0 = la(12)
  v0 = abs(4)
  IF (f0 .GT. 0) THEN
    CALL proc1688(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1691(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 7
  v2 = 2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, mod(la(5), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1692(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1692(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 14
  v2 = 13
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g0 = 2, 3
    f1 = ((0 * 11) - 8)
  ENDDO
  la(8) = la(1)
  DO v1 = 3, 7
    g1 = la(5)
  ENDDO
  g0 = ((-1 - la(10)) - f0)
  v2 = (la(6) / (4 + v1))
  IF (f0 .GT. 0) THEN
    CALL proc1693(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1693(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -4
  v2 = 14
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = 7
  g1 = ((14 / (2 + la(7))) - max(la(7), v3))
  PRINT *, 0
  v3 = la(10)
  v2 = (g1 / (5 + 12))
  f1 = 2
  IF (f0 .GT. 0) THEN
    CALL proc1691(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1694(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = 14
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = mod(la(9), 4)
  v3 = 10
  v3 = 7
  DO g0 = 2, 4
    IF (la(1) .GE. max(f1, -2) .AND. la(8) .EQ. (0 + 5)) THEN
      v2 = 6
      v1 = 12
    ENDIF
    IF (abs(-2) .NE. 5) THEN
      PRINT *, la(11)
      IF (8 .LT. (1 * 1) .OR. (g0 * 4) .LT. max(la(7), 5)) f1 = (la(7) + v1)
    ENDIF
  ENDDO
  DO g1 = 2, 6
    g0 = max(g0, la(9))
  ENDDO
  DO g3 = 3, 7
    IF (.NOT. (-1 .LT. (v3 - 11))) THEN
      v3 = v0
      la(9) = mod(11, 6)
    ELSE
      v0 = mod(max(14, 8), 2)
    ENDIF
    IF (g1 .NE. v2) THEN
      g2 = (5 + abs(-2))
      v1 = 5
    ELSE
      f1 = -3
    ENDIF
  ENDDO
  IF (.NOT. ((8 / (6 + la(4))) .LT. (11 - f1))) THEN
    DO g2 = 0, 3
      g1 = (abs(-5) - max(g0, 13))
      v3 = (abs(10) / (4 + 6))
    ENDDO
    v1 = 7
  ELSE
    g3 = max(v3, la(10))
    IF (6 .GT. (la(4) - 5) .OR. (v1 * la(3)) .LE. 7) THEN
      g2 = 3
      IF (abs(15) .NE. (0 + 9)) v2 = max(la(4), 12)
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1695(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1695(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 9
  v2 = -2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = 15
  g1 = abs(3)
  v0 = 8
  v0 = (10 + 6)
  IF (f0 .GT. 0) THEN
    CALL proc1696(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1696(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 12
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, ((5 / (3 + -1)) / (2 + v0))
  v1 = la(11)
  PRINT *, (3 - max(la(11), 12))
  IF (15 .GT. 6 .OR. 9 .GT. 3) THEN
    IF (mod(la(6), 6) .EQ. la(10) .OR. g1 .LT. la(3)) THEN
      f1 = la(10)
      f1 = (-2 + (4 / (2 + f1)))
    ENDIF
    la(7) = (g1 / (6 + 13))
  ENDIF
  PRINT *, (2 * 0)
  v2 = max(la(3), 14)
  g2 = mod(g1, 6)
  la(5) = (g3 * 8)
  DO g0 = 2, 3
    IF (la(2) .GE. 10) THEN
      v2 = (g3 + (13 * f0))
    ELSE
      v0 = 9
      f1 = la(12)
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1697(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1697(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = v0
  IF (g1 .NE. (-3 / (4 + la(2)))) THEN
    IF (.NOT. ((g0 / (5 + -4)) .LE. -5)) THEN
      PRINT *, g2
      g0 = ((la(10) / (4 + g3)) + g3)
    ELSE
      g1 = la(4)
    ENDIF
  ENDIF
  v1 = max(la(7), -4)
  PRINT *, g0
  DO v0 = 0, 2
    g3 = (5 / (5 + 4))
  ENDDO
  DO g1 = 0, 2
    v1 = la(10)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1698(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1698(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 2
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (14 * la(3))
  v2 = v1
  DO g1 = 2, 5
    DO g2 = 0, 1
      v0 = ((7 - 9) - 14)
    ENDDO
    g2 = 5
  ENDDO
  PRINT *, v1
  g3 = 11
  v0 = (mod(v0, 6) + max(g2, 1))
  IF (f0 .GT. 0) THEN
    CALL proc1694(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1699(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (la(8) + (8 / (4 + la(9))))
  v1 = ((f1 / (4 + 13)) * la(12))
  IF ((4 + la(5)) .LE. -4 .AND. la(11) .GT. mod(0, 5)) g3 = (la(3) + 8)
  DO v0 = 3, 4
    IF ((-4 + v0) .NE. 3) THEN
      g0 = (abs(f0) / (4 + 2))
      g3 = (11 + (g0 - 4))
    ENDIF
  ENDDO
  v0 = ((la(10) - 12) * la(10))
  IF (abs(v1) .LT. v0 .AND. abs(9) .NE. -2) THEN
    DO g1 = 0, 0
      IF (2 .LE. (f1 + g1)) f1 = la(9)
      la(4) = v1
    ENDDO
  ENDIF
  IF (g1 .GE. (11 - g2) .AND. g0 .LE. v1) THEN
    g0 = (g0 * la(1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1700(f0 - 1, (0 + 12))
  ENDIF
END

SUBROUTINE proc1700(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -2
  v2 = 11
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = mod((-4 / (4 + v2)), 6)
  IF (f0 .GT. 0) THEN
    CALL proc1701(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1701(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = la(1)
  PRINT *, 2
  v0 = (la(11) - (13 - 7))
  IF (f0 .GT. 0) THEN
    CALL proc1702(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1702(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 3
  v2 = -1
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(12) .NE. 14) THEN
    v2 = la(4)
  ENDIF
  v0 = (g0 + (f0 / (3 + 14)))
  DO g0 = 2, 2
    la(7) = 1
  ENDDO
  DO v2 = 1, 5
    la(3) = ((-5 / (6 + 2)) + max(-1, 13))
  ENDDO
  IF (max(g3, f1) .LT. 8) g0 = (-2 * la(9))
  IF (la(9) .NE. 6 .AND. la(1) .EQ. (2 / (5 + f1))) THEN
    la(2) = 15
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1703(f0 - 1, (0 + (v3 / (4 + f0))))
  ENDIF
END

SUBROUTINE proc1703(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = la(5)
  DO g3 = 0, 1
    IF ((-3 + la(7)) .LE. 0) v1 = (-1 * 0)
  ENDDO
  IF (v0 .LT. -4 .OR. (-4 / (6 + la(1))) .EQ. f0) THEN
    v0 = abs(7)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1704(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1704(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 7
  v2 = 0
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 12
  PRINT *, abs((13 * g0))
  DO g1 = 3, 5
    v0 = f0
    v3 = max(6, -5)
  ENDDO
  PRINT *, -2
  f1 = abs(la(6))
  PRINT *, max(g1, 2)
  DO v2 = 0, 0
    IF (.NOT. ((la(11) + f1) .GT. f0)) g0 = mod(v0, 2)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1699(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1705(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = g1
  v1 = 12
  IF (f0 .GT. 0) THEN
    CALL proc1706(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1706(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = (la(12) + -4)
  DO g2 = 2, 6
    g1 = ((15 * la(8)) / (4 + la(4)))
    v1 = (g2 - (g0 / (5 + la(11))))
  ENDDO
  g0 = (g2 / (6 + la(7)))
  g2 = abs(max(v2, 3))
  DO v0 = 2, 4
    PRINT *, (abs(-2) - 14)
    g2 = la(4)
  ENDDO
  v0 = mod(abs(1), 6)
  v1 = ((v0 / (3 + la(10))) + abs(la(2)))
  v1 = 2
  DO g3 = 3, 7
    PRINT *, -5
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1707(f0 - 1, (0 + (g1 - 12)))
  ENDIF
END

SUBROUTINE proc1707(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 12
  v2 = -4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = la(3)
  g3 = la(7)
  IF (7 .GT. (2 / (3 + v2))) v0 = 13
  g1 = max(v2, 9)
  g1 = max(la(8), la(10))
  IF (la(3) .EQ. (0 / (4 + la(7))) .AND. abs(5) .EQ. mod(0, 7)) v0 = 15
  IF (f0 .GT. 0) THEN
    CALL proc1705(f0 - 1, (0 + (f0 + la(11))))
  ENDIF
END

SUBROUTINE proc1708(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 9
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((g0 + 10) .EQ. (g0 / (6 + 6))) v0 = (-1 + f0)
  g3 = mod(v0, 3)
  g1 = (10 - mod(11, 2))
  PRINT *, ((15 / (5 + -2)) * -5)
  IF (f0 .GT. 0) THEN
    CALL proc1709(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1709(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 5
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (v1 .NE. -4) g0 = (9 * 9)
  IF (f0 .GT. 0) THEN
    CALL proc1710(f0 - 1, (0 + (-3 / (2 + 1))))
  ENDIF
END

SUBROUTINE proc1710(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g1 .GT. (5 * 4)) f1 = v2
  IF (mod(5, 2) .EQ. (g0 / (4 + v2))) THEN
    PRINT *, la(11)
    f1 = 14
  ELSE
    v2 = ((0 / (4 + v1)) + f0)
  ENDIF
  PRINT *, max(-3, 2)
  IF (f0 .GT. 0) THEN
    CALL proc1711(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1711(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(1) = la(8)
  v0 = 11
  DO v1 = 2, 5
    v0 = (7 + max(v1, v0))
    g2 = (f1 - 15)
  ENDDO
  la(5) = ((g2 + 0) - 1)
  PRINT *, -1
  g0 = 5
  g2 = 10
  f1 = (15 * 14)
  la(7) = la(12)
  g3 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1708(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1712(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = v1
  IF (0 .NE. (-1 - 4) .AND. -4 .EQ. la(11)) THEN
    DO f1 = 1, 1
      g0 = (abs(3) * 11)
    ENDDO
  ELSE
    DO v0 = 3, 7
      PRINT *, 9
      v2 = la(4)
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1713(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1713(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 10
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (-5 * 3)
  g3 = (la(1) - (-2 * 3))
  PRINT *, ((la(5) * f0) / (2 + 6))
  g1 = (abs(0) + 13)
  IF (f0 .GT. 0) THEN
    CALL proc1714(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1714(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v2 = 1, 1
    IF ((7 * la(7)) .GT. (f0 - la(11)) .AND. la(12) .NE. abs(g1)) THEN
      la(12) = la(5)
    ELSE
      f1 = (11 / (4 + 0))
      g0 = ((v0 + f1) / (5 + la(2)))
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1715(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1715(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = (abs(-1) / (4 + -4))
  IF (.NOT. ((g3 + 9) .GE. 12)) THEN
    g0 = la(7)
    g3 = v0
  ELSE
    la(3) = -4
  ENDIF
  v0 = (la(3) / (2 + -2))
  PRINT *, f0
  g2 = g2
  IF (9 .EQ. -2 .OR. (la(11) + 10) .LT. (g1 - 9)) THEN
    IF ((-3 - g1) .EQ. la(3) .AND. (la(2) * v1) .GE. mod(0, 3)) THEN
      f1 = (la(7) * g2)
      g2 = (max(la(5), -3) + abs(6))
    ELSE
      g0 = (mod(g0, 8) - g2)
    ENDIF
    v1 = (la(3) - 8)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1716(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1716(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 2
  v2 = 8
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v3 = la(6)
  DO g1 = 3, 7
    IF (11 .EQ. (3 + g3)) THEN
      PRINT *, ((la(12) * g0) / (6 + -2))
      IF (max(f0, la(2)) .LE. (11 - v2) .AND. (la(11) / (2 + v3)) .LT. abs(f0)) g0 = (13 + 1)
    ENDIF
    PRINT *, (la(7) + mod(1, 5))
  ENDDO
  IF (g0 .GT. (-5 - 4) .OR. la(4) .LT. g3) v0 = (la(12) - f1)
  f1 = (4 / (3 + -4))
  IF (.NOT. (max(la(9), -5) .EQ. (12 * la(12)))) g2 = (12 - la(2))
  g3 = (abs(g3) - la(5))
  v3 = 3
  IF (f0 .GT. 0) THEN
    CALL proc1712(f0 - 1, (0 + (2 - 4)))
  ENDIF
END

SUBROUTINE proc1717(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -4
  v2 = 5
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = la(1)
  PRINT *, ((-5 - la(2)) - (8 + 5))
  la(10) = (v3 / (6 + 14))
  IF (-4 .GT. abs(g1) .OR. (-2 - 9) .EQ. abs(v2)) THEN
    v2 = ((la(1) * g0) / (3 + -4))
  ENDIF
  v1 = 6
  la(4) = (10 * 11)
  IF (f0 .GT. 0) THEN
    CALL proc1718(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1718(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 5
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (f1 .NE. 0 .AND. abs(2) .GT. (la(1) - la(11))) THEN
    v3 = -4
  ENDIF
  v2 = 7
  PRINT *, la(3)
  PRINT *, g3
  IF (f0 .GT. 0) THEN
    CALL proc1719(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1719(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 2
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = -4
  g3 = mod(max(7, la(4)), 3)
  DO v0 = 2, 3
    la(2) = (abs(v2) + abs(la(1)))
    PRINT *, mod(-3, 5)
  ENDDO
  IF (la(4) .LE. (f1 / (5 + f0))) THEN
    PRINT *, g1
    v2 = max(la(11), g2)
  ELSE
    v0 = la(6)
  ENDIF
  v0 = abs((g3 + la(12)))
  v2 = (la(11) * v3)
  IF (f0 .GT. 0) THEN
    CALL proc1720(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1720(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, ((la(8) + 14) / (5 + g1))
  IF (f0 .GT. 0) THEN
    CALL proc1721(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1721(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 4
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (7 .GT. la(3)) THEN
    IF ((2 + 11) .NE. -5 .OR. la(5) .GT. la(8)) g3 = mod(4, 7)
  ENDIF
  v1 = max(7, f1)
  v2 = la(9)
  IF ((15 / (2 + f0)) .LT. 13 .AND. (la(2) + -1) .LE. (14 * la(10))) v1 = 15
  PRINT *, 9
  IF (f0 .GT. 0) THEN
    CALL proc1717(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1722(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(5) = la(10)
  IF (-4 .LE. max(la(4), 3)) THEN
    v2 = (f1 * 5)
  ENDIF
  g3 = 15
  IF (11 .LE. la(1) .OR. v1 .NE. g3) THEN
    f1 = 12
  ENDIF
  PRINT *, -3
  la(10) = mod(mod(9, 7), 4)
  v0 = la(7)
  g3 = 3
  g0 = (f0 - 3)
  IF (f0 .GT. 0) THEN
    CALL proc1723(f0 - 1, (0 + mod(v1, 5)))
  ENDIF
END

SUBROUTINE proc1723(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -2
  v2 = -1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((la(2) - la(7)) .LT. (7 + -2) .AND. max(la(1), la(9)) .NE. (v3 - 7)) THEN
    la(2) = 4
    v0 = 1
  ELSE
    v3 = (la(12) + (la(11) - 11))
    DO g3 = 3, 3
      v1 = ((-5 / (5 + 11)) - mod(12, 7))
      la(7) = ((g2 / (3 + la(10))) + g2)
    ENDDO
  ENDIF
  la(9) = la(3)
  la(7) = 1
  PRINT *, g3
  IF ((g0 + 1) .GT. max(-2, la(8)) .AND. f1 .EQ. max(la(12), v1)) THEN
    IF (f0 .NE. (12 - -1) .AND. 10 .EQ. 13) THEN
      v1 = 14
      g0 = abs((14 / (5 + 14)))
    ENDIF
  ENDIF
  g0 = f0
  DO v3 = 3, 3
    IF (-3 .GT. 12 .OR. (g2 * 11) .GE. la(12)) v0 = la(2)
    g1 = max(la(11), 0)
  ENDDO
  la(9) = 4
  IF (f0 .GT. 0) THEN
    CALL proc1724(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1724(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (v1 + (1 / (2 + 4)))
  IF (f0 .GT. 0) THEN
    CALL proc1725(f0 - 1, (0 + la(9)))
  ENDIF
END

SUBROUTINE proc1725(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 6
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g1 = 0, 0
    v2 = la(4)
  ENDDO
  IF (la(3) .NE. la(1) .OR. 2 .GE. 9) f1 = la(5)
  PRINT *, abs((-3 / (6 + v0)))
  IF (f0 .GT. 0) THEN
    CALL proc1726(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1726(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 0
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((1 - 3) .GT. la(10)) THEN
    PRINT *, la(8)
  ELSE
    la(4) = 4
  ENDIF
  g0 = abs(6)
  IF ((-3 / (6 + v1)) .GT. (la(11) / (4 + g0))) g0 = 7
  IF (f0 .GT. 0) THEN
    CALL proc1727(f0 - 1, (0 + abs(la(3))))
  ENDIF
END

SUBROUTINE proc1727(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 0
  v2 = 2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (2 .LE. mod(g0, 3)) THEN
    IF (abs(2) .GE. mod(9, 3)) THEN
      PRINT *, la(10)
    ELSE
      v2 = mod(la(2), 3)
    ENDIF
  ELSE
    IF ((11 * la(1)) .LT. (0 * 0)) THEN
      v0 = (mod(la(8), 7) / (4 + 4))
    ENDIF
    v0 = 15
  ENDIF
  g0 = g3
  g0 = abs((la(9) - 0))
  PRINT *, (7 + abs(12))
  IF (la(12) .LT. (12 + f1) .AND. -2 .LT. mod(-2, 2)) THEN
    g1 = max(g3, 10)
  ELSE
    v0 = max(7, la(5))
  ENDIF
  f1 = ((la(8) - la(8)) + mod(la(2), 3))
  v1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1722(f0 - 1, (0 + (v1 * 4)))
  ENDIF
END

SUBROUTINE proc1728(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = (la(9) / (6 + -4))
  g2 = 11
  IF (la(8) .LT. v2) THEN
    DO f1 = 0, 1
      g2 = g1
      v1 = la(3)
    ENDDO
  ENDIF
  IF ((g0 - 6) .GT. (f1 / (4 + 13)) .AND. (f0 * la(12)) .GT. (la(11) * v0)) THEN
    v0 = (la(9) + mod(6, 7))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1729(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1729(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = abs((g3 * 13))
  IF (g3 .NE. (11 + 9)) THEN
    IF (la(8) .GE. 4 .OR. -3 .GE. la(10)) v0 = (v0 - -1)
  ELSE
    la(2) = max(g0, 4)
    la(10) = (la(3) / (4 + 6))
  ENDIF
  DO g0 = 1, 2
    IF (g3 .NE. v1 .OR. g3 .EQ. 12) THEN
      IF (8 .EQ. mod(15, 8) .AND. -3 .LT. -5) g1 = abs(v1)
    ELSE
      g3 = g3
      v1 = ((g1 + 3) * 14)
    ENDIF
  ENDDO
  IF ((-2 * f0) .LE. 14 .OR. f1 .GT. (12 - 9)) THEN
    DO g0 = 1, 4
      PRINT *, ((1 + la(10)) - abs(g2))
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1730(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc1730(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 2, 4
    PRINT *, v0
  ENDDO
  la(11) = la(1)
  v2 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1731(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1731(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 8
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(8) .NE. la(9) .AND. 4 .GE. max(14, la(11))) f1 = (g0 * g3)
  f1 = abs(14)
  IF (max(la(6), la(5)) .GE. f0 .AND. (-1 / (4 + -5)) .LT. max(14, 9)) THEN
    f1 = 1
  ELSE
    la(9) = mod((7 - g3), 4)
  ENDIF
  IF (v1 .LT. (f0 / (2 + 1)) .OR. g2 .NE. la(6)) v0 = f0
  PRINT *, (9 * v1)
  v0 = (la(9) - la(4))
  PRINT *, (mod(la(2), 2) * la(8))
  f1 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1728(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1732(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 5
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = la(6)
  v1 = 9
  g3 = 8
  DO v1 = 0, 3
    DO f1 = 2, 3
      v0 = la(7)
      g1 = -5
    ENDDO
  ENDDO
  IF (f0 .LT. abs(2) .AND. g1 .GT. (15 - la(10))) THEN
    f1 = (10 - v1)
    DO g2 = 0, 0
      f1 = (abs(-2) + max(g3, 1))
    ENDDO
  ENDIF
  g1 = 10
  PRINT *, (abs(0) * -5)
  IF (abs(f1) .LE. mod(la(3), 5) .OR. max(13, 2) .NE. abs(la(5))) g0 = g3
  DO v0 = 1, 4
    PRINT *, ((14 - la(5)) + la(7))
    g2 = 4
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1733(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1733(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, max(la(9), la(8))
  PRINT *, max(-4, 4)
  v1 = 6
  IF (f0 .GT. 0) THEN
    CALL proc1734(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1734(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -4
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = -5
  g0 = g3
  v0 = ((la(5) - 9) - (la(11) * la(5)))
  g1 = -2
  la(1) = (mod(12, 3) + (6 + g2))
  la(1) = abs(mod(la(10), 8))
  v2 = mod((v0 / (3 + la(5))), 3)
  g0 = 1
  IF (f0 .GT. 0) THEN
    CALL proc1735(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1735(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 2
  v2 = 6
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = (la(11) - (14 - 15))
  PRINT *, max(v1, g0)
  la(2) = ((v0 + 4) / (3 + g2))
  g0 = 9
  IF ((la(12) / (2 + f1)) .LT. -1) THEN
    IF (.NOT. ((15 * la(8)) .NE. (12 * la(7)))) g2 = max(2, g3)
    IF (10 .LT. (12 - 4)) g2 = la(10)
  ELSE
    IF (abs(11) .EQ. 11 .OR. 12 .LT. 8) THEN
      v2 = f1
    ELSE
      v1 = ((2 * 6) * 0)
      g3 = mod(3, 8)
    ENDIF
    IF ((9 / (4 + la(3))) .GT. mod(v0, 5) .AND. (15 * v2) .GE. 12) THEN
      g3 = abs((g3 + -2))
      g3 = 6
    ELSE
      v1 = la(9)
    ENDIF
  ENDIF
  la(5) = 5
  f1 = mod(v1, 6)
  g0 = (abs(13) / (3 + -3))
  PRINT *, mod((g3 + -3), 7)
  IF (8 .LE. v3 .OR. max(la(9), f1) .EQ. la(6)) THEN
    g3 = abs(9)
    g0 = 9
  ELSE
    v2 = mod((g1 * v1), 4)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1736(f0 - 1, (0 + max(la(5), v3)))
  ENDIF
END

SUBROUTINE proc1736(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = mod((f0 / (4 + 7)), 4)
  PRINT *, mod(5, 3)
  la(5) = g0
  g2 = (7 - (1 / (6 + g0)))
  g2 = g1
  PRINT *, max(5, la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1732(f0 - 1, (0 + max(la(1), g2)))
  ENDIF
END

SUBROUTINE proc1737(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (mod(-4, 2) .GT. g1)) THEN
    g2 = (-1 + (5 * 10))
  ELSE
    f1 = g2
    IF ((12 - 9) .LE. 8 .AND. (0 + g2) .LE. max(la(5), 7)) THEN
      PRINT *, ((la(7) / (5 + la(2))) * 7)
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1738(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc1738(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 0
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (max(-4, 1) + -1)
  IF (f0 .GT. 0) THEN
    CALL proc1739(f0 - 1, (0 + 1))
  ENDIF
END

SUBROUTINE proc1739(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 14
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, abs((8 + -3))
  IF (g2 .LE. (v1 / (5 + la(1))) .OR. -2 .NE. max(la(1), 7)) THEN
    g3 = abs((la(12) / (3 + 3)))
    g2 = max(8, 2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1740(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1740(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 2
  g2 = (v2 / (3 + la(1)))
  g3 = 7
  DO v0 = 3, 7
    DO g0 = 1, 5
      f1 = (max(la(5), v2) * 1)
      g1 = 12
    ENDDO
    g2 = max(la(9), v2)
  ENDDO
  v0 = abs((g0 / (3 + la(10))))
  IF (f0 .GT. 0) THEN
    CALL proc1737(f0 - 1, (0 + -2))
  ENDIF
END

SUBROUTINE proc1741(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (5 .NE. v2 .OR. (g3 * 2) .NE. max(7, f1)) g0 = (la(2) * f1)
  PRINT *, (max(la(12), 4) + la(2))
  la(10) = mod(abs(2), 2)
  g1 = (f0 - 0)
  IF (f0 .GT. 0) THEN
    CALL proc1742(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1742(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 12
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = mod(v0, 5)
  v0 = -3
  v2 = v3
  IF (mod(15, 3) .GE. 5 .OR. mod(4, 3) .EQ. v2) g2 = la(11)
  g3 = -2
  PRINT *, f0
  v2 = 11
  v2 = (7 * 14)
  g3 = abs(g3)
  IF (f0 .GT. 0) THEN
    CALL proc1743(f0 - 1, (0 + (12 + la(1))))
  ENDIF
END

SUBROUTINE proc1743(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, max(la(4), -1)
  g3 = -4
  g2 = (mod(v1, 2) * 4)
  DO g2 = 3, 7
    v0 = ((0 / (6 + la(2))) - max(la(12), la(5)))
  ENDDO
  DO g2 = 2, 4
    IF (mod(la(4), 2) .NE. max(la(10), 3) .OR. la(2) .LE. (la(5) + 6)) v1 = (la(10) - g1)
  ENDDO
  f1 = -2
  g0 = max(12, -3)
  g1 = 6
  v0 = -3
  PRINT *, ((la(9) + v0) / (4 + -3))
  IF (f0 .GT. 0) THEN
    CALL proc1744(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1744(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 10
  v2 = 7
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(11) = mod(la(3), 8)
  v3 = la(3)
  v3 = mod((-2 + la(4)), 4)
  f1 = 8
  g3 = g2
  v0 = (g1 / (6 + la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc1745(f0 - 1, (0 + g1))
  ENDIF
END

SUBROUTINE proc1745(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (13 .GE. -3)) f1 = 2
  g2 = (13 / (3 + 7))
  g2 = ((la(12) * v0) * 11)
  f1 = mod((6 * f1), 7)
  f1 = 13
  g2 = f1
  IF ((g1 - -3) .GT. (9 / (2 + la(7)))) THEN
    v0 = v2
  ENDIF
  PRINT *, la(5)
  IF (f0 .GT. 0) THEN
    CALL proc1741(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1746(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 0
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = abs(-4)
  DO g1 = 3, 4
    IF (mod(13, 4) .LE. la(5) .AND. (v1 * 0) .LE. (la(10) / (5 + -1))) g2 = v0
    DO v0 = 3, 6
      g2 = mod(v0, 2)
    ENDDO
  ENDDO
  IF (g2 .NE. 4 .AND. (8 * la(11)) .NE. la(11)) THEN
    f1 = abs(max(la(9), 11))
  ELSE
    g0 = g0
  ENDIF
  v0 = f0
  v0 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1747(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1747(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = v0
  v0 = 12
  g1 = la(12)
  g1 = max(12, v1)
  DO g1 = 0, 0
    la(7) = -5
    la(9) = 11
  ENDDO
  g0 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1748(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1748(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 10
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(5)
  g3 = ((v2 + g2) - 6)
  g3 = ((12 - 2) * 4)
  DO g1 = 2, 4
    DO g2 = 1, 3
      g0 = max(2, la(1))
    ENDDO
    g2 = (12 - -5)
  ENDDO
  v1 = abs((0 * g3))
  v2 = (max(la(11), 1) * g0)
  g2 = mod(mod(12, 5), 8)
  PRINT *, v2
  PRINT *, la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1749(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1749(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -4
  v2 = 10
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (v2 .LT. (4 - v2) .AND. abs(la(3)) .GE. la(11)) v0 = (10 * la(8))
  DO v3 = 3, 3
    v2 = (la(11) * 15)
  ENDDO
  IF (-4 .NE. (v1 / (2 + v0)) .AND. 1 .GT. v0) THEN
    IF (la(4) .LE. (6 + la(10)) .AND. 10 .NE. v0) v3 = g1
    g3 = (v3 + (11 / (4 + la(7))))
  ELSE
    f1 = (max(la(4), g1) - 1)
  ENDIF
  la(2) = v2
  f1 = max(v2, la(12))
  g1 = mod(7, 7)
  IF (f0 .GT. 0) THEN
    CALL proc1750(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1750(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = abs((la(4) + 2))
  DO g0 = 2, 6
    v0 = ((11 * 2) / (5 + la(1)))
  ENDDO
  v0 = g0
  v1 = 10
  f1 = 4
  IF (.NOT. ((1 + f0) .NE. (10 - -1))) f1 = abs(-5)
  IF (f0 .GT. 0) THEN
    CALL proc1751(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1751(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = max(12, 12)
  v2 = 7
  f1 = max(la(7), 14)
  g3 = 14
  g1 = (max(f0, f0) / (5 + g1))
  PRINT *, (v2 / (3 + 0))
  v0 = 9
  PRINT *, (max(-3, 2) + mod(11, 8))
  IF (3 .LT. 10) f1 = 0
  g3 = 11
  IF (f0 .GT. 0) THEN
    CALL proc1746(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1752(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 6
  v2 = 14
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = 10
  v1 = la(9)
  v0 = ((13 - la(8)) * f0)
  IF (.NOT. ((-2 - 10) .GE. v2)) THEN
    v2 = ((g3 * la(8)) * la(4))
  ENDIF
  DO g3 = 2, 2
    la(8) = mod(-1, 2)
    PRINT *, 10
  ENDDO
  v3 = (5 + (3 + 7))
  g3 = 10
  la(10) = (mod(la(3), 7) * 8)
  g3 = -3
  IF (f0 .GT. 0) THEN
    CALL proc1753(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc1753(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = ((0 + g2) * la(4))
  la(1) = 1
  IF (.NOT. ((v1 * la(3)) .LE. (v0 / (5 + 10)))) g2 = 15
  PRINT *, ((g1 + -3) + max(4, g0))
  la(4) = la(11)
  g2 = abs(4)
  v1 = la(6)
  la(2) = la(11)
  g2 = 3
  IF (f0 .GT. 0) THEN
    CALL proc1754(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1754(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 12
  v2 = 4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(9) = v2
  PRINT *, max(-2, la(12))
  v2 = v1
  DO g2 = 2, 2
    g1 = ((6 / (4 + 14)) + la(5))
    IF ((la(11) * 6) .GT. la(10) .OR. mod(la(6), 6) .NE. (la(11) * 8)) v1 = g3
  ENDDO
  v0 = 7
  g1 = la(8)
  g2 = la(9)
  la(1) = 9
  g2 = 7
  la(12) = abs((la(1) / (2 + g1)))
  IF (f0 .GT. 0) THEN
    CALL proc1752(f0 - 1, (0 + 1))
  ENDIF
END

SUBROUTINE proc1755(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (abs(la(3)) .NE. 1 .AND. f0 .GT. (-1 / (6 + -3))) THEN
    f1 = (la(2) + (8 + la(6)))
  ENDIF
  f1 = (abs(13) - (13 / (3 + 5)))
  g0 = 13
  g2 = la(6)
  g0 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1756(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1756(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 12
  v2 = 0
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(6) = 2
  IF (f0 .GT. 0) THEN
    CALL proc1757(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1757(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 13
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = f0
  la(11) = 4
  v0 = v2
  v0 = ((la(9) / (2 + la(10))) * 5)
  v1 = (la(3) / (4 + 10))
  DO v2 = 1, 2
    IF (11 .LT. (13 + la(8)) .AND. (9 / (3 + g0)) .GT. max(la(10), g0)) v1 = f1
  ENDDO
  v0 = -3
  IF (f0 .GT. 0) THEN
    CALL proc1758(f0 - 1, (0 + f1))
  ENDIF
END

SUBROUTINE proc1758(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 2
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 14
  PRINT *, (g2 / (5 + la(4)))
  v1 = (la(7) * 13)
  la(3) = 0
  DO v2 = 2, 4
    f1 = 7
    f1 = 14
  ENDDO
  g3 = (abs(v2) + mod(1, 3))
  v1 = la(10)
  g3 = -4
  g0 = ((g0 + v0) / (6 + -3))
  IF (f0 .GT. 0) THEN
    CALL proc1759(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1759(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 0
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = (v1 + la(11))
  v1 = -4
  v0 = abs(5)
  g1 = 1
  la(6) = (la(10) + (-5 - la(11)))
  IF (f0 .GT. 0) THEN
    CALL proc1760(f0 - 1, (0 + (g2 + g2)))
  ENDIF
END

SUBROUTINE proc1760(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, -5
  DO g1 = 1, 2
    PRINT *, 3
  ENDDO
  g3 = -3
  g2 = (6 * -2)
  f1 = (g2 * v1)
  la(11) = ((g0 - g2) - f0)
  DO f1 = 3, 6
    IF (14 .NE. 6 .AND. g3 .NE. 4) g2 = mod(-1, 6)
  ENDDO
  IF (la(10) .LE. g2 .OR. (8 + -4) .NE. 2) g3 = mod(g2, 5)
  IF (max(v1, 12) .NE. abs(4) .OR. (f0 + 0) .GE. (la(12) + la(5))) THEN
    g2 = abs(la(6))
    v0 = la(10)
  ELSE
    g3 = (13 / (3 + 4))
  ENDIF
  PRINT *, mod((f0 * g2), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1755(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1761(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 11
  v2 = 10
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = ((v1 / (5 + la(1))) + (la(9) * la(2)))
  IF (mod(14, 2) .GT. -4 .AND. max(la(12), 7) .GE. g1) THEN
    v0 = max(g3, 12)
    g2 = 10
  ENDIF
  IF (9 .GT. max(0, la(4))) v2 = (15 + 6)
  IF (7 .GE. (3 + 14)) g3 = max(6, -4)
  f1 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1762(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1762(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 10
  v2 = 5
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (abs(4) .GT. abs(12) .AND. la(12) .GE. (la(6) - la(10))) v1 = la(8)
  v2 = mod(0, 3)
  v1 = mod(la(1), 5)
  v1 = f1
  DO g3 = 2, 2
    IF ((5 / (5 + f0)) .NE. 9 .OR. (f0 * 9) .LT. 5) THEN
      f1 = la(4)
    ENDIF
    la(4) = ((8 * la(8)) + (6 / (4 + g2)))
  ENDDO
  v3 = 3
  IF ((-1 - -5) .EQ. g1) THEN
    la(2) = 8
  ENDIF
  IF (9 .GT. (la(8) * la(5)) .AND. 15 .LE. max(la(3), 13)) THEN
    PRINT *, mod(9, 4)
    g1 = (abs(g2) + v3)
  ENDIF
  la(11) = v3
  v1 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1763(f0 - 1, (0 + 9))
  ENDIF
END

SUBROUTINE proc1763(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 10
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((la(11) / (5 + la(10))) .LE. la(11))) g2 = 2
  IF (g2 .NE. la(5) .AND. g3 .LT. (-3 / (4 + -3))) THEN
    v0 = max(-1, 8)
    la(9) = mod(g1, 8)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1764(f0 - 1, (0 + 8))
  ENDIF
END

SUBROUTINE proc1764(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = (-3 - (g2 * la(7)))
  DO g2 = 2, 4
    f1 = (la(2) * 12)
  ENDDO
  v1 = (abs(v1) + (-1 - 2))
  IF (f0 .GT. 0) THEN
    CALL proc1761(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1765(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 7
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = (abs(9) + max(12, g0))
  f1 = max(la(1), g0)
  g3 = (15 / (4 + f0))
  DO g1 = 2, 6
    IF (.NOT. ((g0 + g3) .GT. max(g3, 7))) v1 = 8
  ENDDO
  IF (15 .LT. v1 .AND. (g2 - f1) .LE. 6) g2 = -1
  IF (-1 .GE. (la(11) / (3 + la(7))) .OR. la(12) .GE. (v2 / (4 + g0))) g0 = 12
  v0 = max(f1, v1)
  IF (f0 .GT. 0) THEN
    CALL proc1766(f0 - 1, (0 + (6 - -5)))
  ENDIF
END

SUBROUTINE proc1766(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -4
  v2 = 1
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = ((-5 + v0) - max(v1, -3))
  v3 = mod(v1, 7)
  IF (f0 .GT. 0) THEN
    CALL proc1767(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1767(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 10
  v2 = 10
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, max(g2, f0)
  PRINT *, la(7)
  g2 = 6
  IF (14 .GT. la(2) .OR. abs(12) .GT. -5) THEN
    IF (abs(f0) .GT. mod(la(3), 2)) g3 = la(5)
  ELSE
    g3 = (abs(-5) - la(6))
  ENDIF
  v0 = la(12)
  f1 = 4
  IF ((3 * v2) .GE. 2) v2 = 8
  IF ((3 * 3) .LT. v3 .AND. 8 .GT. 14) THEN
    DO v1 = 0, 2
      v0 = la(11)
      v2 = 3
    ENDDO
    v1 = 3
  ENDIF
  IF ((v3 - -3) .GE. max(g3, la(9)) .OR. abs(6) .LT. v0) THEN
    IF (13 .LT. f0 .AND. (v3 + g3) .GE. abs(9)) g3 = (4 - 5)
    IF ((f0 * v1) .GE. -3) THEN
      g2 = 6
    ENDIF
  ELSE
    f1 = max(10, -3)
    v0 = (g2 * -3)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1768(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1768(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -3
  v2 = -2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(10) = -3
  g0 = max(7, la(4))
  v0 = abs(max(14, 15))
  v0 = ((la(11) / (3 + -1)) * la(6))
  IF (f0 .GT. 0) THEN
    CALL proc1769(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1769(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (la(10) - max(v0, 3))
  IF (9 .EQ. abs(-2) .AND. (f0 - la(6)) .LE. abs(-1)) v1 = la(4)
  DO v2 = 2, 2
    IF (.NOT. (0 .NE. (15 + g2))) THEN
      f1 = g1
    ELSE
      f1 = (11 / (4 + 15))
      IF (8 .LT. (7 + 5) .AND. abs(8) .LE. abs(g1)) g0 = (-1 + 3)
    ENDIF
  ENDDO
  v1 = g1
  g2 = max(-4, 6)
  la(6) = (-2 - -1)
  g3 = (g3 - (2 + la(7)))
  IF (f0 .GT. 0) THEN
    CALL proc1765(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1770(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = (max(la(4), v1) * 15)
  v1 = g3
  PRINT *, -4
  PRINT *, ((g3 / (2 + 11)) * -4)
  la(11) = abs(v0)
  DO g2 = 2, 2
    v0 = g1
  ENDDO
  g0 = la(7)
  la(4) = 5
  v0 = 4
  g2 = (6 / (4 + la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc1771(f0 - 1, (0 + g0))
  ENDIF
END

SUBROUTINE proc1771(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g0 = 0, 2
    IF (.NOT. (3 .NE. (la(8) * -5))) g3 = (la(4) - la(10))
    g2 = la(8)
  ENDDO
  PRINT *, mod(f0, 5)
  g1 = (12 - (-5 + 8))
  f1 = abs(g2)
  f1 = ((la(11) + g2) / (2 + 8))
  DO g2 = 3, 6
    IF (max(13, 8) .NE. v0 .OR. la(1) .GT. max(5, la(3))) THEN
      IF (abs(4) .GE. 5 .OR. la(6) .LE. -2) g1 = (9 - -1)
    ELSE
      PRINT *, g1
    ENDIF
  ENDDO
  g0 = -2
  g3 = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc1772(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1772(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 13
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1773(f0 - 1, (0 + (v2 / (5 + la(11)))))
  ENDIF
END

SUBROUTINE proc1773(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = 10
  IF (.NOT. (la(7) .GE. la(8))) THEN
    v2 = 8
  ELSE
    g2 = f0
  ENDIF
  PRINT *, (abs(la(7)) * v0)
  PRINT *, 11
  IF ((5 - 5) .NE. mod(7, 8) .OR. (la(10) * 4) .GT. (v1 + v2)) f1 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1774(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1774(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 4
  v2 = 9
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(11) = max(la(7), -4)
  g1 = abs(mod(0, 6))
  IF (la(12) .EQ. la(9) .AND. abs(la(8)) .EQ. la(12)) g1 = 0
  la(4) = mod(2, 2)
  IF (abs(10) .GE. (la(7) * v2) .OR. 10 .GT. mod(6, 5)) THEN
    v1 = ((7 / (3 + -4)) + g3)
  ENDIF
  v3 = mod(15, 4)
  DO g3 = 0, 0
    la(11) = (max(g2, f1) * g0)
    v0 = abs(mod(4, 7))
  ENDDO
  PRINT *, la(5)
  g0 = la(2)
  g0 = 3
  IF (f0 .GT. 0) THEN
    CALL proc1770(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1775(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1776(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1776(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 8
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = mod(v1, 3)
  IF ((4 / (2 + g0)) .GT. 13 .AND. abs(1) .GT. (13 - 11)) g2 = la(6)
  v0 = 7
  PRINT *, -1
  IF (f0 .GT. 0) THEN
    CALL proc1777(f0 - 1, (0 + g3))
  ENDIF
END

SUBROUTINE proc1777(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 8
  DO g1 = 3, 6
    IF (.NOT. (la(5) .GT. -2)) g2 = abs(11)
  ENDDO
  v1 = g2
  f1 = v1
  IF (g0 .LT. (0 + v0) .AND. (la(6) * v0) .LE. la(10)) g2 = mod(la(11), 7)
  v1 = 10
  IF (f0 .GT. 0) THEN
    CALL proc1778(f0 - 1, (0 + max(la(5), 15)))
  ENDIF
END

SUBROUTINE proc1778(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (-4 .LT. abs(g3))) g3 = mod(la(2), 5)
  DO g2 = 0, 1
    la(6) = la(6)
    IF (.NOT. (8 .EQ. mod(la(7), 8))) f1 = abs(6)
  ENDDO
  g3 = -3
  g0 = (abs(la(1)) + max(15, la(7)))
  f1 = (la(8) / (6 + la(6)))
  DO g1 = 1, 4
    v0 = 12
  ENDDO
  v0 = (abs(8) + (g3 * g0))
  DO g2 = 0, 1
    la(3) = g0
    f1 = max(5, 10)
  ENDDO
  g3 = abs((la(10) + 5))
  IF (f0 .GT. 0) THEN
    CALL proc1775(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1779(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = f1
  v0 = ((la(2) / (2 + la(11))) * 15)
  PRINT *, -3
  la(4) = (g2 + (4 * 5))
  g2 = mod((la(12) - la(5)), 7)
  v0 = 8
  IF (f0 .GT. 0) THEN
    CALL proc1780(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1780(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 1
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = g2
  IF (.NOT. (g3 .GT. max(g3, la(8)))) g2 = (8 - 10)
  la(4) = (g0 * g2)
  v2 = la(3)
  g3 = la(10)
  g0 = ((7 / (6 + g2)) * 0)
  PRINT *, ((2 / (2 + la(4))) - la(9))
  IF (f0 .GT. 0) THEN
    CALL proc1781(f0 - 1, (0 + 2))
  ENDIF
END

SUBROUTINE proc1781(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = max(la(9), 3)
  la(12) = 7
  DO g0 = 1, 2
    PRINT *, mod(mod(-4, 4), 6)
  ENDDO
  PRINT *, abs((1 / (4 + -3)))
  v1 = 6
  DO v1 = 2, 6
    g1 = 3
    la(11) = la(5)
  ENDDO
  g1 = 11
  IF (la(8) .EQ. max(la(4), g2) .AND. (la(8) - 15) .LE. v1) THEN
    la(7) = max(v0, 13)
  ELSE
    v0 = 4
    IF (max(g1, -5) .GE. (-2 / (4 + -4)) .AND. max(f1, g2) .GT. (-4 / (3 + la(1)))) THEN
      v1 = 14
    ELSE
      IF (.NOT. (la(7) .GE. mod(-2, 4))) g1 = (g2 / (3 + 10))
      g0 = la(3)
    ENDIF
  ENDIF
  f1 = (la(4) / (4 + g3))
  IF ((10 * 14) .LE. g0 .AND. -4 .GT. mod(5, 4)) THEN
    g2 = mod(max(-1, la(8)), 6)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1782(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1782(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = g3
  IF (.NOT. (abs(3) .GT. g2)) THEN
    PRINT *, 3
    v1 = 10
  ENDIF
  PRINT *, max(10, 1)
  DO g0 = 2, 4
    f1 = abs(-5)
  ENDDO
  v1 = 9
  g3 = mod(max(10, 6), 5)
  PRINT *, max(15, -3)
  la(10) = ((-2 * 9) / (5 + -2))
  DO g3 = 3, 5
    f1 = (mod(g3, 8) - 15)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1779(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1783(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = mod(abs(g1), 3)
  la(3) = la(6)
  f1 = mod(g0, 5)
  PRINT *, ((g1 / (3 + 9)) - 1)
  DO g2 = 0, 4
    DO v0 = 1, 4
      g1 = mod((f0 / (6 + la(10))), 8)
    ENDDO
    DO g0 = 0, 4
      f1 = 2
      v1 = v0
    ENDDO
  ENDDO
  DO g3 = 0, 0
    g1 = v1
    g0 = abs((11 - 1))
  ENDDO
  la(6) = (mod(-2, 6) + la(12))
  IF (.NOT. (-5 .GE. 4)) THEN
    g0 = 6
    IF (.NOT. (g3 .LE. 11)) THEN
      v0 = 9
    ELSE
      PRINT *, (max(0, la(7)) + mod(0, 8))
    ENDIF
  ELSE
    la(2) = 5
    IF (.NOT. (abs(la(4)) .GE. -2)) THEN
      f1 = la(10)
      v0 = 14
    ELSE
      v1 = g2
    ENDIF
  ENDIF
  DO g2 = 0, 2
    IF (.NOT. (mod(3, 5) .NE. la(9))) THEN
      v1 = (-2 + la(5))
      f1 = g2
    ENDIF
  ENDDO
  DO g1 = 0, 1
    g3 = mod(abs(-3), 6)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1784(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1784(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, ((0 - 10) - (5 - 8))
  DO g0 = 2, 6
    g2 = ((7 * la(8)) + 15)
    IF (.NOT. (la(9) .EQ. la(4))) v0 = 13
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1785(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1785(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 3
  v2 = 4
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, f1
  PRINT *, 4
  PRINT *, v2
  IF (f0 .GT. 0) THEN
    CALL proc1786(f0 - 1, (0 + f1))
  ENDIF
END

SUBROUTINE proc1786(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 1
  v2 = -2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = abs(f1)
  g1 = max(f1, -5)
  IF (.NOT. (g2 .LE. (-1 / (4 + v0)))) v1 = v0
  IF (v2 .EQ. f1 .AND. abs(la(5)) .GE. (la(8) + g1)) THEN
    g0 = (7 / (6 + la(8)))
  ENDIF
  f1 = abs(f1)
  g1 = f0
  g3 = ((-1 * 9) / (3 + 0))
  PRINT *, v2
  g1 = max(f0, g3)
  v0 = ((la(9) / (5 + v3)) / (5 + -5))
  IF (f0 .GT. 0) THEN
    CALL proc1783(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1787(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 9
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((g1 - 1) * 6)
  DO v2 = 1, 3
    v0 = mod((la(4) - v0), 3)
  ENDDO
  IF (max(f1, v1) .GT. -2 .OR. la(1) .LE. la(2)) g3 = la(2)
  DO f1 = 3, 6
    la(2) = (9 + 12)
  ENDDO
  DO v0 = 2, 5
    DO g1 = 1, 2
      la(9) = ((g1 + 7) * la(8))
    ENDDO
  ENDDO
  v0 = 10
  IF (v0 .LE. (12 - la(7)) .AND. (la(12) - 15) .EQ. (10 + -3)) THEN
    IF (v0 .LT. 4 .OR. 8 .GE. max(-2, 12)) v2 = 0
  ENDIF
  PRINT *, 3
  IF (-5 .NE. (6 + 13) .AND. (-5 / (4 + v1)) .EQ. 15) THEN
    DO g2 = 1, 1
      PRINT *, 2
      f1 = -2
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1788(f0 - 1, (0 + (g3 - 13)))
  ENDIF
END

SUBROUTINE proc1788(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 1
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO f1 = 1, 3
    IF (-4 .LE. max(g3, 3)) THEN
      v0 = 1
    ENDIF
    g0 = mod(la(7), 8)
  ENDDO
  IF (.NOT. (8 .LT. v1)) THEN
    v1 = 10
    v0 = (abs(5) / (4 + -4))
  ELSE
    DO g0 = 3, 7
      v0 = (f1 * la(11))
      v0 = abs(la(3))
    ENDDO
    la(6) = v0
  ENDIF
  g0 = mod((9 - 15), 3)
  la(1) = la(8)
  v2 = (13 / (3 + g0))
  g2 = max(11, la(6))
  g3 = (la(3) / (6 + 14))
  v2 = la(8)
  g3 = mod(f0, 2)
  IF (f0 .GT. 0) THEN
    CALL proc1789(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1789(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (max(11, 8) + la(10))
  IF (abs(11) .EQ. mod(v1, 3) .AND. la(10) .LE. la(4)) THEN
    g1 = la(7)
    IF (abs(-5) .LT. mod(-2, 7) .OR. la(10) .LE. 10) v1 = (6 + -4)
  ELSE
    PRINT *, 7
    f1 = v0
  ENDIF
  IF (g0 .GE. 3 .OR. f0 .GE. (-2 * 8)) THEN
    g0 = g3
  ENDIF
  PRINT *, ((7 * 13) / (4 + g1))
  IF (la(1) .LT. 6) v1 = 9
  DO f1 = 2, 3
    v0 = 6
  ENDDO
  g0 = ((-2 - 15) + -4)
  DO v0 = 1, 3
    la(6) = la(11)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1787(f0 - 1, (0 + 1))
  ENDIF
END

SUBROUTINE proc1790(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (la(6) .LE. la(8))) g3 = (9 / (6 + 10))
  g1 = la(11)
  f1 = 12
  g1 = (v1 / (4 + la(10)))
  IF (.NOT. (abs(la(5)) .GE. la(9))) THEN
    f1 = (7 / (2 + g1))
    la(4) = abs(v0)
  ENDIF
  g1 = (la(11) * 8)
  IF (f0 .GT. 0) THEN
    CALL proc1791(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1791(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 8
  v2 = 7
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-5 .GE. (la(6) - la(11)) .OR. (2 / (4 + -1)) .GE. v1) THEN
    g3 = (la(9) * 8)
    IF (la(4) .LT. g2) THEN
      g1 = max(6, 1)
      v0 = max(4, g0)
    ELSE
      PRINT *, abs(mod(-5, 6))
    ENDIF
  ENDIF
  v3 = v0
  IF (f0 .GT. 0) THEN
    CALL proc1792(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1792(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -3
  v2 = 5
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, -4
  IF (f0 .GT. 0) THEN
    CALL proc1793(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1793(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 5
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (5 .EQ. (15 - v0))) f1 = (g1 * 4)
  IF (f0 .GT. 0) THEN
    CALL proc1794(f0 - 1, (0 + (g1 + 7)))
  ENDIF
END

SUBROUTINE proc1794(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 9
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (14 .EQ. max(la(11), la(5)) .OR. (12 - 2) .EQ. (v2 * 14)) v0 = (11 - 8)
  g3 = f0
  g0 = mod(max(-2, la(11)), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1795(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1795(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, 0
  f1 = mod((la(8) / (2 + 0)), 5)
  f1 = mod((6 - 14), 5)
  g0 = (la(8) - abs(6))
  v1 = (mod(14, 2) * 11)
  g0 = (14 / (3 + la(6)))
  DO v0 = 1, 4
    PRINT *, (mod(12, 7) * -3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1790(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1796(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 0
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (max(v0, g0) - (f1 / (3 + la(10))))
  IF (.NOT. (la(1) .LE. la(10))) g2 = (-4 / (3 + -5))
  IF (f0 .GT. 0) THEN
    CALL proc1797(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1797(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 2
  v2 = 4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = 13
  g1 = mod((la(7) + la(7)), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1798(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1798(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = g2
  g0 = -2
  g3 = g3
  IF (max(-4, 3) .NE. abs(-3) .AND. la(10) .EQ. g0) THEN
    v1 = 13
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1796(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1799(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = g3
  la(10) = -5
  IF ((la(2) * la(8)) .LE. (la(9) - g2) .AND. -5 .LE. max(la(5), 5)) THEN
    g1 = max(f0, 3)
  ENDIF
  f1 = 8
  g2 = 13
  DO g3 = 1, 5
    DO g2 = 0, 1
      f1 = 2
    ENDDO
  ENDDO
  g0 = ((la(12) + 4) / (3 + -1))
  IF (la(6) .LE. (1 - g2)) f1 = (15 - -1)
  IF (f0 .GT. 0) THEN
    CALL proc1800(f0 - 1, (0 + (la(12) / (4 + v1))))
  ENDIF
END

SUBROUTINE proc1800(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(2)
  g2 = 11
  PRINT *, abs(max(9, 10))
  g1 = ((la(12) + la(7)) / (2 + v1))
  la(1) = 7
  PRINT *, v0
  IF (f0 .GT. 0) THEN
    CALL proc1801(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1801(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 4
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = mod(la(11), 6)
  v2 = max(7, v2)
  g3 = 3
  v2 = abs((12 - 9))
  v0 = (mod(la(1), 6) * g0)
  v1 = g2
  v3 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1802(f0 - 1, (0 + (12 * v2)))
  ENDIF
END

SUBROUTINE proc1802(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((9 + 2) .LE. (8 + la(7)))) THEN
    la(5) = 1
    PRINT *, g2
  ENDIF
  g1 = (2 / (5 + la(10)))
  v2 = mod(la(11), 4)
  IF ((g2 * f1) .EQ. v1) THEN
    v1 = 12
  ELSE
    IF (.NOT. (abs(13) .EQ. mod(-4, 5))) THEN
      g3 = 7
    ENDIF
  ENDIF
  g1 = -1
  v1 = ((la(4) * 4) + max(g3, 6))
  PRINT *, la(8)
  g2 = mod(mod(4, 2), 3)
  la(2) = (10 * v1)
  la(1) = abs(la(4))
  IF (f0 .GT. 0) THEN
    CALL proc1799(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1803(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1804(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1804(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = g2
  IF (f0 .GT. 0) THEN
    CALL proc1805(f0 - 1, (0 + (la(2) + g0)))
  ENDIF
END

SUBROUTINE proc1805(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (6 - (f0 - 13))
  v0 = max(g3, 1)
  PRINT *, (la(12) / (6 + 9))
  g0 = (13 - (6 * la(12)))
  v0 = -1
  g3 = (la(12) / (5 + 15))
  IF (f0 .GT. 0) THEN
    CALL proc1806(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1806(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 8
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = max(v0, 10)
  g1 = la(9)
  v2 = (max(1, 1) * 6)
  g1 = mod(f1, 3)
  v1 = mod((4 * -5), 4)
  DO g3 = 1, 2
    IF (mod(la(4), 7) .LE. -1 .OR. (9 + f0) .LT. (5 / (4 + 9))) g2 = -2
    la(5) = 4
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1807(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1807(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (8 * f1)
  v1 = 7
  f1 = abs(la(10))
  IF (.NOT. (max(7, 12) .NE. 9)) THEN
    v1 = ((5 * g3) + la(2))
    IF ((la(2) - la(4)) .GT. max(g2, 5) .AND. (la(4) + 4) .NE. 14) THEN
      la(10) = mod(abs(la(10)), 5)
      f1 = (3 / (3 + la(4)))
    ELSE
      IF (max(15, g0) .LT. (1 - -5) .AND. 15 .EQ. (0 - la(6))) g3 = g0
    ENDIF
  ELSE
    v1 = mod((11 / (4 + g1)), 8)
  ENDIF
  g0 = abs(7)
  g1 = mod(-5, 5)
  g2 = mod(mod(v1, 6), 7)
  IF ((la(7) * -2) .LT. (g0 + la(1)) .AND. g2 .LT. mod(7, 8)) THEN
    g0 = (-2 * la(5))
  ELSE
    IF (6 .GT. (11 * la(6)) .AND. (12 / (2 + la(12))) .EQ. 3) v0 = mod(15, 3)
    IF ((5 + g3) .GT. la(7) .OR. (-5 / (3 + 1)) .EQ. mod(8, 8)) THEN
      f1 = 1
      v1 = 4
    ENDIF
  ENDIF
  la(10) = g3
  v0 = 2
  IF (f0 .GT. 0) THEN
    CALL proc1808(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc1808(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(-1) .LT. abs(4) .AND. -3 .LT. la(9)) g0 = (-2 - -3)
  PRINT *, abs(abs(f1))
  DO v1 = 1, 4
    PRINT *, max(5, 2)
  ENDDO
  g1 = max(-5, la(11))
  g2 = (max(g2, 3) * la(1))
  g2 = (v0 - mod(g0, 3))
  IF (max(la(4), la(4)) .EQ. (la(3) - f0)) v0 = -5
  g0 = 4
  DO g2 = 3, 6
    DO v0 = 1, 1
      g3 = -4
      f1 = (-2 + f1)
    ENDDO
  ENDDO
  v0 = abs(7)
  IF (f0 .GT. 0) THEN
    CALL proc1803(f0 - 1, (0 + max(-1, la(2))))
  ENDIF
END

SUBROUTINE proc1809(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -4
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = mod(max(-4, f1), 6)
  v2 = g0
  v1 = 5
  IF (-2 .LE. -1 .OR. (-5 / (4 + la(6))) .LT. (la(10) / (4 + la(9)))) g1 = abs(7)
  g0 = ((-3 * la(5)) + 10)
  IF (f0 .GT. 0) THEN
    CALL proc1810(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1810(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = -2
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(12, 8) .NE. -2 .AND. (1 - v1) .NE. la(2)) v1 = (6 + la(8))
  v3 = max(g1, v1)
  v0 = 13
  g3 = abs(-2)
  IF ((13 - 1) .GT. (6 * la(10)) .AND. 7 .LE. mod(10, 7)) THEN
    v1 = 3
    IF (15 .EQ. (la(3) / (6 + f0))) g0 = (v1 / (6 + la(12)))
  ELSE
    g1 = f1
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1811(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1811(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = -3
  f1 = v0
  PRINT *, mod(abs(la(1)), 4)
  IF (f0 .GT. 0) THEN
    CALL proc1812(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1812(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = ((la(9) / (4 + 7)) + abs(3))
  f1 = (8 - la(1))
  g1 = 13
  v1 = mod(mod(11, 4), 2)
  g1 = ((3 - -1) + (f1 / (4 + 9)))
  IF ((g0 + -3) .NE. 14 .OR. g0 .GE. (la(8) / (2 + la(3)))) v0 = 0
  g1 = 10
  DO v0 = 3, 6
    la(8) = la(3)
    g2 = ((la(9) - f0) - 8)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1813(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1813(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 9
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (mod(0, 3) * 11)
  IF ((15 * la(4)) .NE. 8 .AND. 0 .GE. g2) THEN
    la(4) = (-4 - la(9))
    g1 = mod((1 * 12), 2)
  ELSE
    la(6) = ((g2 / (4 + la(1))) / (4 + 15))
    IF ((-1 - 15) .GT. 8 .AND. (6 + 0) .NE. -2) v2 = (g3 / (2 + v2))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1809(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1814(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 13
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, -3
  v2 = mod((9 * -2), 2)
  IF (f0 .GT. 0) THEN
    CALL proc1815(f0 - 1, (0 + (la(11) / (2 + -4))))
  ENDIF
END

SUBROUTINE proc1815(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 3
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = max(v0, 13)
  la(12) = abs((0 * la(9)))
  IF (mod(1, 8) .LE. 4) THEN
    g1 = (abs(2) * la(4))
  ELSE
    v2 = 12
  ENDIF
  IF (.NOT. (max(1, la(12)) .LT. -4)) THEN
    g3 = (mod(la(9), 6) - f1)
    g2 = (3 - g1)
  ENDIF
  IF (v1 .EQ. (-5 / (6 + -2)) .AND. (la(3) + -1) .NE. 0) THEN
    g1 = 11
  ELSE
    IF (1 .NE. (g0 / (3 + g3)) .AND. 10 .LT. (la(2) - -3)) g2 = (f0 / (2 + la(6)))
  ENDIF
  PRINT *, ((la(7) + 4) * v2)
  g0 = max(la(3), f0)
  IF (f0 .GT. 0) THEN
    CALL proc1816(f0 - 1, (0 + -5))
  ENDIF
END

SUBROUTINE proc1816(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = la(5)
  DO v1 = 3, 6
    g3 = (-2 / (4 + g1))
  ENDDO
  IF (.NOT. (abs(g3) .LE. v0)) g1 = (15 / (4 + 2))
  PRINT *, 13
  IF ((g3 * 1) .LT. (15 + 9) .OR. abs(la(11)) .GE. (f0 * g2)) f1 = 2
  g2 = (la(8) - (8 / (3 + 7)))
  g2 = mod(g3, 7)
  la(4) = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1817(f0 - 1, (0 + 11))
  ENDIF
END

SUBROUTINE proc1817(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (mod(10, 2) .LE. la(6) .OR. f0 .GE. la(8)) THEN
    v0 = g1
  ELSE
    IF (max(g2, la(7)) .NE. (la(11) - -2) .AND. la(2) .LT. g1) THEN
      IF (max(g3, la(10)) .LT. la(6) .AND. (-1 * 1) .EQ. max(g1, 10)) g2 = (-1 / (6 + la(2)))
      f1 = g0
    ELSE
      f1 = (mod(0, 3) - abs(5))
      la(1) = mod(-3, 5)
    ENDIF
  ENDIF
  f1 = la(5)
  g3 = ((la(5) - g2) - abs(g1))
  IF (f0 .GT. 0) THEN
    CALL proc1818(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1818(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, -1
  f1 = max(la(5), v2)
  f1 = g3
  f1 = 15
  PRINT *, g0
  IF ((-4 + 12) .NE. v2 .OR. 5 .EQ. mod(la(6), 2)) THEN
    v0 = -5
    f1 = g3
  ELSE
    PRINT *, mod(max(la(2), 4), 2)
    g3 = (11 - g2)
  ENDIF
  PRINT *, -1
  IF ((g1 / (4 + f0)) .LE. (f0 - g1) .OR. max(6, la(3)) .LE. (5 * 14)) THEN
    g3 = 8
  ENDIF
  la(4) = abs(max(f0, v1))
  IF (f0 .GT. 0) THEN
    CALL proc1814(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1819(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 10
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(10) .LE. g0) g3 = (f0 - la(6))
  DO v2 = 0, 1
    v0 = ((g2 - -4) * f1)
  ENDDO
  g3 = (max(0, 3) / (4 + -3))
  v1 = 2
  g3 = mod(-5, 8)
  DO f1 = 3, 6
    g1 = (abs(la(7)) * la(10))
    g2 = 10
  ENDDO
  g0 = (0 - (9 / (2 + 3)))
  IF (g3 .NE. (la(8) * 0) .OR. abs(11) .EQ. (9 / (2 + 9))) THEN
    PRINT *, max(v2, 7)
  ELSE
    g2 = (-4 - 0)
    DO g3 = 3, 5
      g1 = la(2)
      g1 = abs(max(f0, 11))
    ENDDO
  ENDIF
  DO v2 = 1, 2
    PRINT *, la(2)
    PRINT *, ((4 * g0) + la(3))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1820(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1820(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 11
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g1 = 3, 7
    IF (2 .GT. g3 .AND. (la(6) / (4 + la(12))) .NE. (-4 * la(11))) g3 = (la(8) * -2)
  ENDDO
  DO v0 = 0, 0
    g0 = la(7)
  ENDDO
  IF (.NOT. (9 .LE. 14)) THEN
    v0 = f0
  ENDIF
  v1 = (-1 / (6 + g0))
  v1 = (15 / (6 + g0))
  la(10) = f1
  v0 = (la(4) * 3)
  IF (f0 .GT. 0) THEN
    CALL proc1821(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1821(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 3
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(7, 1) .GT. abs(10) .AND. la(5) .NE. max(-2, la(8))) THEN
    g1 = la(4)
    DO g2 = 3, 4
      g0 = (mod(g3, 3) / (4 + la(4)))
    ENDDO
  ENDIF
  f1 = -5
  f1 = g2
  IF (f0 .GT. 0) THEN
    CALL proc1822(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1822(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (max(-4, 5) + (f0 - -5))
  g2 = g0
  g3 = ((5 / (4 + g0)) + 7)
  f1 = (mod(4, 7) - (-4 + 1))
  IF (max(la(3), 11) .NE. v0) THEN
    v0 = -3
  ELSE
    IF (-3 .NE. v1 .AND. (v1 - 0) .LE. max(g2, f1)) THEN
      g0 = la(10)
    ELSE
      PRINT *, abs((v0 + 0))
      IF (la(8) .GE. (la(11) * la(2))) g3 = (-1 * 6)
    ENDIF
  ENDIF
  v0 = (mod(14, 5) * 10)
  DO g0 = 1, 4
    IF (mod(0, 5) .EQ. la(7)) THEN
      IF ((la(8) + f1) .LT. f1 .OR. 8 .EQ. -3) g1 = -4
      v0 = 1
    ELSE
      f1 = 8
    ENDIF
    g1 = 14
  ENDDO
  g2 = 2
  g3 = (abs(7) - g3)
  DO v1 = 1, 2
    g3 = (6 + 6)
    IF (.NOT. (-4 .LT. v1)) THEN
      la(9) = ((la(3) / (5 + 8)) - max(11, la(7)))
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1823(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1823(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = 14
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((la(3) + g3) .GE. 0 .OR. la(7) .LE. (g2 * 8)) v0 = max(g1, v1)
  IF (6 .GT. 11 .OR. max(9, la(7)) .LE. (11 - v0)) THEN
    IF (la(1) .EQ. (14 / (5 + 13)) .AND. la(2) .NE. max(7, la(6))) THEN
      g1 = la(10)
      g2 = ((v2 + g2) * v2)
    ENDIF
  ENDIF
  IF ((la(9) - la(10)) .LE. (la(1) + 8)) THEN
    DO v0 = 1, 5
      PRINT *, mod(abs(v0), 2)
    ENDDO
    v3 = ((3 / (4 + -2)) / (5 + 3))
  ELSE
    la(5) = la(4)
  ENDIF
  v2 = ((-5 + f0) + la(12))
  IF ((8 - 12) .GE. 10) g1 = max(14, la(12))
  IF (11 .NE. 10 .OR. abs(2) .LE. abs(-5)) THEN
    v3 = ((la(6) + la(3)) + g2)
  ELSE
    v3 = abs(f0)
  ENDIF
  DO f1 = 2, 3
    la(1) = max(f0, la(8))
  ENDDO
  IF ((la(8) / (5 + g1)) .LT. (6 - 9) .OR. f1 .NE. la(5)) g1 = la(7)
  PRINT *, abs(mod(g0, 5))
  IF (f0 .GT. 0) THEN
    CALL proc1824(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1824(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((la(12) - la(6)) .GT. (9 - 1) .AND. (v1 * la(3)) .GT. 11) THEN
    v1 = mod(mod(0, 3), 3)
    la(9) = v0
  ELSE
    g1 = g2
  ENDIF
  g0 = la(12)
  g0 = 15
  g3 = (f1 + 4)
  PRINT *, 1
  IF (f0 .GT. 0) THEN
    CALL proc1819(f0 - 1, (0 + max(-3, 7)))
  ENDIF
END

SUBROUTINE proc1825(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (v0 .GE. (la(5) + la(8)) .AND. la(9) .GT. max(-4, la(10))) g3 = 7
  PRINT *, mod(-3, 7)
  g2 = la(8)
  PRINT *, (la(1) * 0)
  PRINT *, -2
  IF (f0 .GT. 0) THEN
    CALL proc1826(f0 - 1, (0 + mod(2, 7)))
  ENDIF
END

SUBROUTINE proc1826(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 1
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = f1
  g2 = (14 + abs(0))
  IF (f0 .GT. 0) THEN
    CALL proc1827(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1827(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = (g0 - la(9))
  la(10) = f0
  la(9) = 11
  v0 = ((la(1) * g1) + abs(la(11)))
  IF (.NOT. (5 .LE. la(2))) THEN
    IF (1 .LT. 13 .AND. (13 * -2) .NE. max(la(3), 1)) v1 = 7
  ELSE
    IF (.NOT. (abs(13) .EQ. 15)) g0 = abs(8)
  ENDIF
  la(5) = g3
  PRINT *, (12 - abs(v3))
  g2 = ((la(6) / (3 + la(12))) * v2)
  IF (.NOT. ((la(8) - 12) .NE. g0)) v1 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc1828(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1828(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 12
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(12) = f1
  DO v0 = 3, 7
    g2 = abs(3)
  ENDDO
  g2 = max(la(1), 1)
  v0 = 13
  v3 = la(2)
  IF ((15 * v2) .LE. abs(-3)) THEN
    v2 = (la(8) - -4)
  ENDIF
  g0 = 5
  la(1) = f1
  IF (f0 .GT. 0) THEN
    CALL proc1829(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1829(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (5 .LE. (v0 / (2 + g0))) THEN
    IF (f1 .NE. f0 .OR. (la(12) + f0) .NE. la(3)) f1 = abs(-4)
    IF (-3 .LT. g1) THEN
      g1 = abs(abs(8))
    ELSE
      PRINT *, ((14 - la(2)) + 0)
    ENDIF
  ENDIF
  IF ((v1 / (3 + -2)) .LT. la(7) .OR. mod(la(1), 5) .GE. f0) THEN
    v0 = max(11, 9)
    la(11) = mod(la(3), 7)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1830(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc1830(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(6, 5) .NE. abs(f0)) THEN
    g3 = max(8, f0)
    IF (-5 .NE. (-4 - la(3)) .OR. (f0 + la(4)) .LT. 13) f1 = v1
  ENDIF
  g3 = ((13 + g0) - v1)
  g1 = abs(abs(10))
  f1 = -2
  g0 = 13
  PRINT *, abs((v1 - la(11)))
  PRINT *, -5
  IF (f0 .GT. 0) THEN
    CALL proc1825(f0 - 1, (0 + mod(7, 5)))
  ENDIF
END

SUBROUTINE proc1831(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 14
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (abs(la(5)) .GT. 10) THEN
    IF (g2 .GE. -5) THEN
      PRINT *, -3
      v3 = (14 * -4)
    ELSE
      PRINT *, v1
    ENDIF
  ENDIF
  la(6) = 6
  DO g0 = 1, 2
    la(8) = abs((la(12) / (5 + la(4))))
    g1 = ((v0 * -1) * 12)
  ENDDO
  v1 = ((g1 + f1) + max(v1, 1))
  g2 = abs(-2)
  IF (f0 .GT. 0) THEN
    CALL proc1832(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1832(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -1
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = mod((f0 + f1), 8)
  DO g0 = 0, 4
    g2 = g3
  ENDDO
  g3 = max(la(5), la(4))
  IF (la(6) .NE. (11 / (3 + -3)) .OR. -3 .LT. (1 + -2)) f1 = (g3 + 12)
  IF (max(8, la(7)) .GE. 6) v1 = 0
  v2 = 6
  g1 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1833(f0 - 1, (0 + la(3)))
  ENDIF
END

SUBROUTINE proc1833(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc1831(f0 - 1, (0 + (la(8) / (2 + 5))))
  ENDIF
END

SUBROUTINE proc1834(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((5 - la(4)) .EQ. max(8, 12)) THEN
    DO g0 = 2, 6
      v0 = 15
    ENDDO
    v0 = ((12 * la(12)) + abs(0))
  ELSE
    v0 = abs((3 + la(12)))
    DO v1 = 2, 5
      la(2) = 2
    ENDDO
  ENDIF
  PRINT *, f0
  IF (abs(12) .NE. -1 .AND. la(8) .NE. 2) THEN
    DO g2 = 0, 2
      v1 = la(5)
      g3 = mod((5 - 4), 3)
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1835(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1835(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 12
  v2 = 6
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v1 = 1, 5
    g0 = -3
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1836(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1836(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 11
  v2 = 6
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = (10 * la(1))
  v0 = (-5 * 5)
  la(10) = (la(1) * 2)
  la(10) = la(9)
  PRINT *, abs(la(3))
  g2 = abs(10)
  la(3) = ((f1 / (2 + f1)) - 12)
  IF (f0 .GT. 0) THEN
    CALL proc1837(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1837(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 14
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = max(-1, g0)
  g2 = mod(mod(10, 2), 6)
  g2 = 1
  IF (mod(2, 5) .LE. -1) THEN
    IF ((3 - g0) .LT. (f0 - la(12)) .AND. (8 + 8) .LE. abs(0)) v2 = abs(la(1))
    g0 = -1
  ELSE
    IF ((g3 / (4 + f1)) .GE. v0) THEN
      g2 = la(5)
      v2 = (15 * 6)
    ELSE
      g1 = la(2)
    ENDIF
  ENDIF
  v2 = 0
  IF ((3 / (4 + g1)) .EQ. 8) g0 = 13
  PRINT *, la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1834(f0 - 1, (0 + la(3)))
  ENDIF
END

SUBROUTINE proc1838(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (abs(g1) .EQ. 12)) f1 = -1
  IF (0 .GT. -4) THEN
    IF (.NOT. ((7 + -5) .GE. max(la(3), -1))) f1 = (v1 * 0)
  ENDIF
  IF ((0 / (6 + g0)) .NE. (g2 + 3)) THEN
    g2 = (15 + (12 / (3 + g1)))
    f1 = v0
  ENDIF
  g0 = (la(3) - max(la(8), v1))
  IF (.NOT. ((la(9) / (6 + g0)) .GT. 11)) v0 = 10
  g0 = ((0 * 2) + la(8))
  IF ((5 - g0) .EQ. (2 - 3)) THEN
    v0 = (abs(-3) * la(9))
  ELSE
    IF (.NOT. (12 .NE. la(7))) g2 = (f0 / (5 + 11))
    g1 = (9 / (6 + 9))
  ENDIF
  g1 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1839(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1839(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 13
  v2 = 10
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((0 + la(3)) .LT. mod(v2, 3) .OR. v0 .GT. 11) f1 = (la(6) + 14)
  IF (f0 .GT. 0) THEN
    CALL proc1840(f0 - 1, (0 + 6))
  ENDIF
END

SUBROUTINE proc1840(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = 0
  f1 = (-4 * la(4))
  IF (.NOT. ((-2 + la(3)) .NE. -5)) THEN
    g2 = la(9)
    v0 = la(5)
  ELSE
    IF (max(g2, -4) .EQ. v1) v0 = (-2 / (5 + -2))
  ENDIF
  IF (g0 .LE. (la(4) + g0) .OR. 4 .GT. 15) g3 = (la(7) + la(7))
  IF (f0 .GT. 0) THEN
    CALL proc1841(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1841(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = mod(0, 5)
  v0 = 14
  g3 = g0
  g2 = abs(-2)
  IF (9 .LT. (g3 / (4 + la(6))) .OR. la(5) .LT. (7 - -5)) THEN
    g0 = (9 * la(11))
  ELSE
    g2 = (7 - 5)
    la(11) = -2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1842(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1842(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 7
  v2 = -4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (12 .LE. abs(-5)) g1 = (15 - 12)
  g1 = (10 / (4 + la(5)))
  PRINT *, abs(f1)
  la(7) = 8
  g1 = la(3)
  f1 = 9
  PRINT *, la(9)
  g2 = f1
  IF (f0 .GT. 0) THEN
    CALL proc1843(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1843(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 7
  v2 = 7
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(11) = (4 - mod(14, 3))
  la(10) = ((-3 * 7) * 10)
  la(4) = 5
  v3 = 4
  v0 = v1
  v0 = (la(7) * -1)
  IF (f0 .GT. 0) THEN
    CALL proc1838(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1844(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (v0 .GE. max(-2, la(7)) .OR. (g0 / (6 + 7)) .NE. -5) g0 = max(4, la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1845(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1845(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 13
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 2, 6
    la(2) = g0
  ENDDO
  la(3) = g1
  IF (f0 .GT. 0) THEN
    CALL proc1846(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1846(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = la(1)
  f1 = max(5, la(10))
  IF (f0 .GT. 0) THEN
    CALL proc1847(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1847(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 9
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = 8
  IF (4 .EQ. g2 .OR. g2 .GT. (0 / (2 + 10))) g3 = -1
  g2 = g3
  g3 = abs(la(3))
  f1 = ((6 + g2) - 5)
  IF ((g3 * 15) .EQ. mod(g1, 2) .AND. 6 .LE. mod(g3, 6)) g0 = 10
  g3 = 9
  v1 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1848(f0 - 1, (0 + 10))
  ENDIF
END

SUBROUTINE proc1848(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (2 .LT. max(g1, v1) .AND. (la(12) * g0) .NE. la(5)) f1 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc1844(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1849(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = mod((f1 / (4 + 12)), 3)
  f1 = g0
  g3 = (mod(la(2), 7) + 4)
  DO v1 = 1, 2
    IF (.NOT. (mod(6, 8) .NE. mod(la(5), 2))) THEN
      v0 = max(g2, la(12))
      PRINT *, 2
    ELSE
      g2 = ((la(9) / (6 + 7)) - (la(7) * -5))
      v0 = mod(la(6), 7)
    ENDIF
    g1 = ((g0 - -1) / (4 + f1))
  ENDDO
  g2 = -3
  IF (f0 .GT. 0) THEN
    CALL proc1850(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1850(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 5
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = 0
  la(12) = mod(12, 6)
  IF (f0 .GT. 0) THEN
    CALL proc1851(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1851(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 5
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = (mod(7, 3) * la(2))
  g1 = abs((la(8) + v3))
  DO v0 = 3, 3
    IF ((11 - 13) .LT. (2 / (5 + la(7))) .AND. (g2 / (5 + 15)) .NE. g1) THEN
      v1 = la(11)
    ENDIF
  ENDDO
  IF (.NOT. ((15 * la(4)) .EQ. f0)) THEN
    g2 = ((-2 * 9) / (6 + g3))
  ELSE
    PRINT *, la(5)
  ENDIF
  IF (.NOT. (mod(1, 6) .EQ. max(la(4), -2))) v0 = la(2)
  la(9) = 15
  v2 = ((f0 + 1) - -3)
  IF (f0 .GT. 0) THEN
    CALL proc1852(f0 - 1, (0 + v0))
  ENDIF
END

SUBROUTINE proc1852(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 10
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v1 = 2, 2
    DO v2 = 2, 3
      IF (mod(1, 5) .EQ. abs(f0) .OR. abs(-2) .GE. (la(3) / (2 + 7))) g3 = la(4)
      g2 = ((-4 + 9) + abs(-1))
    ENDDO
  ENDDO
  v1 = (-4 / (3 + la(12)))
  v0 = 12
  IF (g3 .LT. g2 .AND. g2 .GE. mod(la(2), 7)) v2 = f1
  g2 = ((7 - g1) * la(8))
  v0 = la(8)
  IF (-4 .EQ. max(9, -3) .OR. max(f0, f0) .NE. la(9)) THEN
    g3 = abs(5)
    DO v2 = 0, 0
      PRINT *, g0
    ENDDO
  ELSE
    g0 = v1
    v0 = mod(7, 4)
  ENDIF
  DO g3 = 3, 5
    PRINT *, mod(abs(4), 7)
  ENDDO
  la(3) = ((5 + g2) * 1)
  g3 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1853(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1853(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 4
  v2 = 8
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = v2
  v2 = 6
  g3 = 5
  IF (abs(g0) .GT. (la(5) + f0)) THEN
    la(11) = 8
  ENDIF
  DO v1 = 1, 1
    f1 = 12
  ENDDO
  PRINT *, v3
  f1 = (g0 / (2 + -4))
  g2 = (max(f0, 4) / (5 + v3))
  IF (f0 .GT. 0) THEN
    CALL proc1849(f0 - 1, (0 + (f0 + -5)))
  ENDIF
END

SUBROUTINE proc1854(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -4
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = ((la(6) / (2 + -5)) - la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1855(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1855(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = -2
  g3 = abs(-3)
  IF (la(11) .LT. (la(3) * v0) .AND. max(la(11), 1) .NE. 12) g0 = (10 - la(2))
  g1 = ((14 * 7) / (2 + -5))
  v0 = ((3 + 11) / (3 + 7))
  la(6) = (mod(5, 8) - abs(10))
  v0 = f0
  IF (f0 .GT. 0) THEN
    CALL proc1856(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1856(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = 5
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (f1 .NE. la(11) .AND. (la(3) + 8) .NE. 5) THEN
    PRINT *, (max(g1, 13) + g3)
  ENDIF
  v3 = 10
  v3 = 4
  PRINT *, (la(2) - max(11, 9))
  IF ((la(10) + 15) .NE. f1) THEN
    f1 = 12
  ELSE
    IF ((0 / (3 + g3)) .EQ. la(9)) v2 = -2
  ENDIF
  PRINT *, -4
  v0 = (9 / (3 + la(5)))
  IF (f0 .GT. 0) THEN
    CALL proc1857(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1857(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((9 + la(7)) .LE. -4 .OR. f0 .GT. mod(v1, 5)) g3 = -2
  g1 = g3
  IF (.NOT. (3 .EQ. 11)) f1 = g2
  g1 = ((la(7) / (6 + 15)) - (10 + la(1)))
  IF (-1 .EQ. (4 - v1)) THEN
    PRINT *, mod(f1, 5)
  ELSE
    PRINT *, mod((la(9) - 6), 7)
    DO g2 = 2, 5
      IF (.NOT. (max(3, g3) .EQ. (12 + 7))) f1 = 15
      f1 = (5 / (2 + 6))
    ENDDO
  ENDIF
  g2 = max(g0, 9)
  v0 = la(3)
  v0 = ((la(6) * la(10)) + (11 + 5))
  la(12) = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1858(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1858(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = -5
  v1 = (la(6) * 2)
  g2 = abs(-3)
  IF (abs(3) .EQ. (7 - g1)) THEN
    g3 = (la(9) * -2)
  ELSE
    f1 = max(la(5), 9)
    IF (la(9) .GE. -2) THEN
      IF ((-1 + la(9)) .GE. v1) g0 = 3
    ELSE
      v0 = v1
    ENDIF
  ENDIF
  g3 = ((4 * v1) + mod(6, 8))
  f1 = abs(max(g1, la(8)))
  PRINT *, la(4)
  g0 = (la(5) - (-3 - 12))
  IF (.NOT. ((3 / (5 + 0)) .LE. (9 * 6))) THEN
    v1 = ((la(7) / (2 + 6)) / (2 + -2))
  ENDIF
  IF (.NOT. (max(f1, 6) .NE. mod(g1, 4))) v0 = (3 * 14)
  IF (f0 .GT. 0) THEN
    CALL proc1854(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1859(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v0 = 2, 3
    g1 = (la(8) * -1)
    g1 = 0
  ENDDO
  la(7) = v2
  DO g3 = 1, 4
    DO g2 = 3, 6
      g0 = max(4, la(10))
      v1 = mod(f1, 2)
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1860(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1860(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = mod(11, 5)
  IF ((la(9) / (4 + la(10))) .LE. (-1 / (4 + la(5)))) THEN
    la(5) = mod((4 + 2), 7)
  ELSE
    IF (13 .GE. la(11) .OR. (la(2) * v1) .GT. 4) THEN
      g3 = ((2 / (6 + g2)) * la(5))
      PRINT *, 3
    ELSE
      v0 = max(g2, 9)
    ENDIF
    la(5) = max(la(1), g1)
  ENDIF
  la(3) = mod(6, 8)
  IF (.NOT. (4 .LT. (-1 + g1))) THEN
    IF (la(5) .GT. la(7) .AND. (v0 - 5) .LT. abs(5)) f1 = -3
  ELSE
    v1 = (la(10) - abs(la(3)))
  ENDIF
  f1 = (mod(g3, 5) / (5 + la(6)))
  IF (9 .EQ. max(3, -5)) f1 = max(12, la(10))
  IF (f0 .GT. 0) THEN
    CALL proc1861(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1861(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f1 = 1, 3
    g0 = g0
    IF (.NOT. (2 .LE. 8)) g3 = (g2 + 13)
  ENDDO
  g1 = v1
  IF (f0 .GT. 0) THEN
    CALL proc1862(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1862(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 7
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(2) = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1863(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1863(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = max(la(12), f1)
  IF (max(6, g0) .EQ. 13 .AND. v1 .GT. (la(12) * g2)) THEN
    g0 = ((5 + la(1)) * la(10))
    la(4) = (9 - (la(12) + la(5)))
  ELSE
    g0 = (la(10) / (2 + g0))
  ENDIF
  IF (.NOT. ((15 - v1) .LT. (2 / (5 + v1)))) f1 = (la(5) - 5)
  PRINT *, mod((la(8) * f1), 4)
  g2 = 4
  g3 = la(10)
  g3 = la(12)
  v0 = mod((2 * g1), 4)
  la(3) = la(4)
  f1 = g0
  IF (f0 .GT. 0) THEN
    CALL proc1864(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1864(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 14
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = la(2)
  la(1) = la(9)
  IF (la(12) .GE. mod(15, 4)) THEN
    PRINT *, ((v0 + 13) * la(9))
  ELSE
    f1 = (la(8) - 2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1859(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1865(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 12
  v2 = -3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(10) = -4
  g2 = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc1866(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1866(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = max(g1, g1)
  g2 = (abs(13) / (6 + 2))
  IF ((la(7) / (5 + v1)) .NE. abs(12)) v0 = abs(la(11))
  IF (f0 .GT. 0) THEN
    CALL proc1867(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1867(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 7
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = (mod(la(7), 5) * la(3))
  f1 = abs(la(7))
  IF ((la(11) - g0) .NE. 1) THEN
    g0 = la(4)
  ENDIF
  PRINT *, g0
  f1 = (abs(5) * -4)
  IF (-2 .EQ. 11 .AND. 7 .GE. v0) v0 = mod(8, 8)
  la(4) = la(5)
  g3 = g0
  IF (f0 .GT. 0) THEN
    CALL proc1868(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc1868(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 2
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, max(la(4), g1)
  IF ((-5 - f1) .GT. (la(7) - g0) .AND. 5 .EQ. 4) THEN
    v2 = la(12)
    PRINT *, abs(max(-2, 15))
  ELSE
    IF (mod(6, 8) .LT. abs(la(9))) v2 = (12 + 2)
  ENDIF
  v0 = mod((la(12) + 8), 2)
  PRINT *, g1
  IF (.NOT. (-5 .GT. g2)) THEN
    IF (-3 .LT. 2) f1 = -3
    v0 = g0
  ENDIF
  la(11) = 8
  IF (v0 .EQ. 2 .OR. la(7) .NE. g1) v1 = (f0 * 0)
  v2 = max(10, -1)
  g1 = -4
  v1 = max(g0, 0)
  IF (f0 .GT. 0) THEN
    CALL proc1869(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1869(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = 9
  f1 = ((g1 + g0) * v0)
  g3 = (-5 + la(9))
  f1 = ((6 + la(9)) / (4 + v1))
  la(5) = (abs(12) / (6 + la(2)))
  v1 = (7 - abs(14))
  v1 = g0
  v0 = (la(10) / (2 + la(10)))
  IF (f0 .GT. 0) THEN
    CALL proc1865(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1870(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(2) = (la(3) + la(11))
  IF (-1 .GE. -1 .AND. 9 .NE. mod(f1, 2)) THEN
    IF (.NOT. (f0 .LE. mod(la(10), 8))) g3 = abs(8)
    g0 = ((la(12) / (3 + g3)) * 14)
  ELSE
    g3 = (mod(v0, 8) + (1 * g3))
    DO v0 = 0, 4
      g3 = g2
    ENDDO
  ENDIF
  DO g0 = 1, 3
    v0 = abs(1)
  ENDDO
  DO g1 = 2, 5
    PRINT *, -1
    IF (-1 .NE. 2) v0 = 2
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1871(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc1871(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 6
  v2 = 11
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v3 = 0, 2
    DO g1 = 1, 5
      v1 = v2
      v1 = mod(14, 3)
    ENDDO
    PRINT *, (6 + (-1 - 12))
  ENDDO
  g3 = max(f1, f0)
  PRINT *, -4
  IF ((la(1) * la(2)) .EQ. abs(2) .OR. v2 .EQ. 10) v3 = (la(9) * la(9))
  g0 = ((10 / (3 + 13)) - v2)
  IF (f0 .GT. 0) THEN
    CALL proc1872(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1872(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 4
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = la(4)
  DO v2 = 0, 4
    PRINT *, abs(mod(la(11), 6))
    IF (.NOT. (7 .EQ. 11)) v1 = max(la(6), g0)
  ENDDO
  v2 = g3
  v2 = ((la(12) - 5) + abs(g3))
  IF (.NOT. ((10 + 10) .NE. abs(15))) v0 = 14
  IF (.NOT. (la(10) .EQ. max(f0, 9))) THEN
    DO g2 = 3, 5
      g1 = (abs(10) * 2)
      PRINT *, v1
    ENDDO
  ELSE
    v0 = mod(max(la(9), f0), 4)
    g1 = (abs(g3) / (6 + 8))
  ENDIF
  g2 = (la(4) * 14)
  v0 = (-3 * -4)
  IF (f0 .GT. 0) THEN
    CALL proc1870(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1873(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = (-5 / (3 + v1))
  f1 = (max(la(5), 14) - (g0 / (3 + 11)))
  v0 = (f1 - 9)
  IF (g0 .LT. (la(11) * 15) .OR. 3 .GE. (g2 - la(11))) THEN
    g1 = 5
  ENDIF
  DO v0 = 3, 7
    g3 = (mod(-4, 4) + la(3))
    g1 = -2
  ENDDO
  v0 = abs(4)
  DO g2 = 1, 1
    v0 = (mod(g3, 5) / (4 + 2))
  ENDDO
  v0 = abs(abs(3))
  IF (max(15, g2) .GE. la(10) .OR. g1 .GE. (14 * la(7))) THEN
    la(5) = 2
  ELSE
    g0 = (la(12) - -2)
    f1 = v1
  ENDIF
  f1 = (-1 * -1)
  IF (f0 .GT. 0) THEN
    CALL proc1874(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1874(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 3
  v0 = 9
  v0 = (mod(g2, 7) / (6 + la(8)))
  IF (f0 .GT. 0) THEN
    CALL proc1875(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1875(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 11
  v2 = 3
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, 3
  IF (13 .LE. (8 / (6 + g0)) .OR. f0 .LE. mod(12, 8)) THEN
    la(4) = la(5)
  ENDIF
  g3 = v1
  v3 = mod(max(g3, 11), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1876(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1876(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 6
  f1 = 14
  IF (f0 .GT. 0) THEN
    CALL proc1877(f0 - 1, (0 + max(la(9), 14)))
  ENDIF
END

SUBROUTINE proc1877(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -4
  v2 = 5
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v3 = ((v0 / (2 + la(1))) / (3 + 13))
  IF (abs(6) .LE. la(1) .OR. la(10) .GT. max(7, g0)) THEN
    g2 = ((-2 - 8) / (5 + la(7)))
  ELSE
    f1 = f0
  ENDIF
  v3 = max(7, v2)
  v1 = (3 / (6 + 4))
  v0 = la(10)
  g3 = -2
  IF (f0 .GT. 0) THEN
    CALL proc1878(f0 - 1, (0 + 13))
  ENDIF
END

SUBROUTINE proc1878(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 8
  v2 = 4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = f0
  IF (la(4) .LE. (v2 / (4 + f0)) .AND. v3 .LT. mod(la(11), 7)) g1 = la(7)
  IF (.NOT. (10 .NE. max(g2, 11))) THEN
    IF (.NOT. (5 .GT. (g2 / (6 + 8)))) v1 = la(1)
  ELSE
    g2 = (max(la(9), 7) / (5 + 5))
  ENDIF
  DO g1 = 1, 1
    g2 = 2
  ENDDO
  g3 = g2
  PRINT *, la(5)
  v1 = v0
  IF (f0 .GT. 0) THEN
    CALL proc1873(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1879(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = max(10, la(12))
  v1 = (g0 / (6 + 8))
  v0 = max(la(12), la(1))
  g1 = ((v0 - 15) * la(8))
  IF (15 .EQ. (5 * 10)) THEN
    v0 = abs(6)
    g2 = v0
  ELSE
    IF (abs(-4) .LE. la(4) .AND. (f0 / (4 + la(10))) .LT. max(la(7), -3)) THEN
      PRINT *, f1
    ENDIF
  ENDIF
  PRINT *, abs((la(4) / (2 + 0)))
  g2 = 13
  IF (f0 .GT. 0) THEN
    CALL proc1880(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1880(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((la(11) + 6) .GE. mod(8, 8) .AND. max(-5, la(6)) .LT. 12) g1 = la(3)
  g3 = f1
  la(12) = max(-2, la(5))
  g1 = abs(la(5))
  PRINT *, 9
  IF (f0 .GT. 0) THEN
    CALL proc1881(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1881(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 11
  v2 = 2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (la(4) / (4 + v0))
  PRINT *, g0
  IF (la(10) .GE. mod(11, 6) .OR. -2 .GT. abs(8)) g2 = (la(4) + 2)
  DO g3 = 1, 5
    IF (g3 .GT. v3) THEN
      PRINT *, 5
    ELSE
      IF (mod(9, 4) .GT. (la(7) * 2)) v3 = max(-5, -2)
    ENDIF
  ENDDO
  IF (.NOT. (max(f0, g1) .GT. mod(f0, 3))) f1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1882(f0 - 1, (0 + la(4)))
  ENDIF
END

SUBROUTINE proc1882(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 1
  v2 = -1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = v2
  g2 = 8
  IF (.NOT. (abs(4) .NE. 11)) v1 = max(9, la(5))
  IF (f0 .GT. 0) THEN
    CALL proc1879(f0 - 1, (0 + -3))
  ENDIF
END

SUBROUTINE proc1883(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 12
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, abs(8)
  IF (f0 .GT. 0) THEN
    CALL proc1884(f0 - 1, (0 + max(11, 5)))
  ENDIF
END

SUBROUTINE proc1884(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 3, 7
    g2 = (9 * -5)
  ENDDO
  g1 = abs(max(g3, la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc1885(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1885(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = abs((g2 - v0))
  f1 = max(la(12), 9)
  IF (.NOT. (g2 .GT. -4)) g0 = mod(la(12), 6)
  IF (.NOT. (15 .LE. mod(7, 6))) f1 = 4
  PRINT *, 9
  DO g3 = 1, 2
    g0 = abs(mod(12, 4))
    g0 = (-3 / (3 + 3))
  ENDDO
  g3 = (la(12) * 0)
  IF ((12 - 0) .EQ. f1 .AND. 3 .GE. g3) THEN
    v1 = g3
  ENDIF
  DO g2 = 2, 5
    IF (max(f1, v1) .EQ. -1) THEN
      g0 = 13
      g0 = g3
    ELSE
      g0 = abs((-1 * 0))
    ENDIF
    DO g1 = 1, 4
      f1 = max(7, 11)
    ENDDO
  ENDDO
  v1 = mod(v0, 6)
  IF (f0 .GT. 0) THEN
    CALL proc1886(f0 - 1, (0 + (la(7) - la(6))))
  ENDIF
END

SUBROUTINE proc1886(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (la(9) .GT. (la(10) + 13))) THEN
    DO g0 = 1, 2
      PRINT *, (v2 - (0 + g0))
      v0 = v2
    ENDDO
    g3 = max(-1, la(8))
  ELSE
    g0 = abs(la(12))
    g3 = (12 / (4 + g1))
  ENDIF
  g0 = mod(mod(1, 7), 7)
  PRINT *, abs(la(6))
  DO f1 = 0, 2
    g2 = 8
  ENDDO
  g3 = 7
  la(12) = la(2)
  g3 = -1
  v1 = mod(g3, 4)
  IF (abs(-2) .EQ. max(5, la(7)) .AND. 11 .EQ. -4) v2 = -3
  v0 = (la(5) - v1)
  IF (f0 .GT. 0) THEN
    CALL proc1887(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1887(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 4
  v2 = 11
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (6 .GE. max(la(5), g0) .OR. -5 .NE. 13) THEN
    g1 = abs((f1 - 8))
    la(9) = -1
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1883(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1888(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1889(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1889(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 3
  v2 = -1
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = -5
  IF (.NOT. ((-1 / (6 + g2)) .LT. mod(la(1), 4))) THEN
    PRINT *, la(7)
    la(5) = f1
  ENDIF
  g1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1890(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1890(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = (abs(la(4)) + 14)
  la(12) = f1
  v2 = -1
  PRINT *, (la(7) * -3)
  g1 = 1
  IF ((-1 + 10) .LT. abs(10)) g2 = la(7)
  v2 = la(5)
  g1 = (13 / (4 + la(6)))
  v1 = 5
  IF (.NOT. (g0 .GE. (la(10) / (3 + la(11))))) THEN
    g0 = la(11)
  ELSE
    g3 = abs(max(9, v0))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1891(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1891(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = abs(la(2))
  g0 = g1
  v1 = g3
  la(5) = la(8)
  g1 = mod((g2 * 14), 7)
  g0 = f0
  g3 = mod((11 / (5 + g1)), 4)
  la(7) = max(12, -3)
  v0 = ((14 * 3) / (6 + la(5)))
  IF (f0 .GT. 0) THEN
    CALL proc1892(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1892(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -2
  v2 = -3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (v0 .GE. mod(12, 7) .AND. mod(-4, 7) .LT. g1) f1 = 1
  PRINT *, v0
  IF (.NOT. (v2 .GT. abs(-4))) THEN
    PRINT *, (-5 - abs(-5))
  ENDIF
  g3 = la(12)
  g1 = ((4 + v2) * 15)
  g0 = 9
  IF (la(3) .GT. 5) v0 = f1
  v3 = 9
  IF (f0 .GT. 0) THEN
    CALL proc1893(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1893(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = la(10)
  v2 = g1
  IF (max(10, 11) .LE. (10 * -1) .AND. 0 .LE. (la(3) / (5 + g3))) THEN
    la(8) = (mod(g2, 7) / (2 + -3))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1888(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1894(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = ((0 * g2) + (6 / (3 + -5)))
  PRINT *, max(-5, 14)
  DO g1 = 3, 6
    DO g2 = 1, 1
      PRINT *, 8
      g0 = -5
    ENDDO
    v0 = (g1 * 0)
  ENDDO
  v2 = ((-4 - la(1)) + mod(la(3), 8))
  DO v1 = 2, 4
    f1 = (8 + (la(4) * 4))
  ENDDO
  IF (mod(v2, 3) .LE. 11 .OR. abs(g2) .NE. mod(g1, 7)) v1 = (v2 + 11)
  g0 = (14 - max(7, la(11)))
  IF (f0 .GT. 0) THEN
    CALL proc1895(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1895(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 11
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (g1 - (f0 / (3 + 10)))
  g2 = -3
  g2 = la(1)
  v1 = (abs(-2) - 4)
  g1 = g3
  g2 = (v0 / (3 + 7))
  IF (f0 .GT. 0) THEN
    CALL proc1896(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1896(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 8
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(9)
  g0 = 12
  IF (3 .LE. la(10)) g3 = mod(0, 2)
  g2 = max(9, 9)
  v2 = g3
  g3 = max(-1, v2)
  g1 = 12
  v2 = max(la(2), -2)
  v1 = la(6)
  IF (.NOT. (g2 .EQ. 7)) THEN
    IF ((11 * -5) .GE. la(2) .OR. v1 .EQ. mod(2, 3)) v2 = max(-2, -4)
  ELSE
    la(3) = 15
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1894(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1897(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = 1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(4) = 14
  DO g0 = 2, 5
    v3 = la(7)
  ENDDO
  g2 = max(la(7), 10)
  v2 = g2
  IF (7 .GT. max(-2, la(9)) .AND. g2 .GE. (15 * 11)) v3 = (0 * la(6))
  g3 = mod(13, 5)
  la(5) = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1898(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1898(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(3)
  IF (la(8) .GT. 0 .OR. la(10) .GE. (la(10) / (5 + 0))) THEN
    IF (.NOT. ((g0 * g0) .GT. mod(14, 4))) g2 = 12
    g3 = max(la(7), 4)
  ELSE
    g1 = 5
    la(6) = mod((-4 / (6 + v1)), 3)
  ENDIF
  la(4) = ((15 * la(1)) + 7)
  la(2) = 15
  v1 = (la(8) * la(11))
  f1 = (5 * la(10))
  g0 = max(g3, g1)
  g2 = ((10 + -5) - 14)
  v1 = g0
  IF (f0 .GT. 0) THEN
    CALL proc1899(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc1899(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = g0
  g3 = la(8)
  IF (mod(la(2), 5) .GE. 4 .OR. (la(11) * 12) .GE. -5) v0 = abs(f1)
  g2 = max(-1, f0)
  v0 = max(6, g2)
  IF (10 .EQ. mod(10, 7) .AND. (f1 / (2 + -4)) .LE. la(6)) THEN
    IF ((10 + la(1)) .GT. abs(8) .OR. abs(f1) .GE. (g3 - v1)) f1 = mod(5, 3)
    g2 = -1
  ENDIF
  IF (mod(8, 7) .NE. 6 .OR. max(9, la(5)) .GT. la(10)) v1 = 12
  IF (f0 .GT. 0) THEN
    CALL proc1900(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1900(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 2
  v2 = 10
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 9
  g0 = max(-4, -1)
  DO v3 = 3, 7
    v0 = (g3 * la(7))
  ENDDO
  PRINT *, mod(4, 8)
  DO v3 = 2, 3
    v2 = v2
  ENDDO
  IF (mod(8, 5) .LT. la(4)) THEN
    g3 = 2
  ELSE
    v3 = ((la(11) * la(6)) - (v2 / (2 + 2)))
  ENDIF
  g3 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1897(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc1901(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((0 - 0) .EQ. 6 .OR. 6 .NE. (-2 - 1)) THEN
    IF (f0 .EQ. 1) THEN
      v0 = (1 / (5 + 8))
      v0 = (-4 / (4 + 11))
    ELSE
      g0 = (10 * 7)
      la(7) = g1
    ENDIF
    PRINT *, g2
  ENDIF
  la(9) = mod(10, 7)
  la(5) = (la(9) - (f0 + 10))
  IF (f1 .GE. mod(-1, 4)) g1 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc1902(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc1902(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (-1 .NE. (la(10) / (3 + 7)))) v0 = (4 / (3 + g2))
  IF ((v2 * v0) .GT. (v1 + -5)) THEN
    la(4) = 3
    g1 = 0
  ENDIF
  IF (g0 .LT. (v1 + la(8)) .AND. f0 .GT. 3) v2 = -2
  DO g0 = 3, 3
    g1 = la(6)
    g2 = ((7 - 11) - 12)
  ENDDO
  g1 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1903(f0 - 1, (0 + f1))
  ENDIF
END

SUBROUTINE proc1903(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 4
  v2 = 2
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 3, 3
    PRINT *, 4
    g3 = 6
  ENDDO
  IF ((14 - g2) .LT. mod(2, 3) .OR. 8 .GE. mod(la(7), 8)) v0 = g1
  PRINT *, mod(abs(la(3)), 3)
  v0 = g3
  IF ((4 * 4) .EQ. g3 .AND. max(g2, g2) .LE. la(1)) THEN
    PRINT *, (abs(v0) / (3 + 6))
  ENDIF
  DO g3 = 1, 4
    v2 = mod(g0, 8)
  ENDDO
  v1 = (-5 + 5)
  DO v1 = 1, 1
    g2 = ((g1 / (3 + la(10))) + g0)
  ENDDO
  la(5) = ((13 + la(1)) - (v0 / (6 + la(9))))
  IF (f0 .GT. 0) THEN
    CALL proc1901(f0 - 1, (0 + (4 + v3)))
  ENDIF
END

SUBROUTINE proc1904(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (10 .GT. mod(1, 7))) THEN
    g0 = g0
    PRINT *, (2 - (14 * f0))
  ELSE
    v2 = la(1)
  ENDIF
  IF (9 .LT. v0 .AND. (la(12) + g3) .LE. (la(7) * g3)) THEN
    v1 = la(8)
  ELSE
    DO v1 = 1, 2
      IF (.NOT. (g1 .LE. la(7))) v2 = 7
      f1 = abs(max(la(7), la(8)))
    ENDDO
  ENDIF
  IF (15 .LE. (g2 - v2)) THEN
    v2 = ((v0 - -4) + abs(7))
  ELSE
    g3 = (la(9) / (5 + f0))
    g3 = v0
  ENDIF
  IF (abs(10) .LT. 6) THEN
    v1 = la(3)
  ENDIF
  IF (la(10) .EQ. mod(3, 3)) THEN
    g0 = 11
  ENDIF
  DO v1 = 2, 3
    v2 = la(4)
    IF (6 .EQ. mod(f1, 5)) v2 = max(0, 13)
  ENDDO
  IF ((9 - 10) .GT. (g0 - 15) .AND. abs(la(3)) .NE. v0) THEN
    la(8) = (la(2) / (5 + g1))
    la(3) = mod((12 / (3 + 11)), 7)
  ELSE
    g2 = 1
    DO g3 = 3, 6
      IF (0 .LT. 4 .OR. (g2 * v1) .EQ. (9 + la(9))) g0 = abs(f0)
    ENDDO
  ENDIF
  g3 = g2
  IF (f0 .GT. 0) THEN
    CALL proc1905(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1905(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 6
  v2 = 9
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = abs((-2 + v2))
  IF (.NOT. (max(-4, 15) .LT. g0)) f1 = max(g3, 6)
  IF (f0 .GT. 0) THEN
    CALL proc1906(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1906(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 11
  v2 = 14
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = la(8)
  DO g2 = 2, 2
    PRINT *, (max(-5, -1) / (5 + 15))
    v0 = (mod(g0, 6) - 14)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1904(f0 - 1, (0 + la(12)))
  ENDIF
END

SUBROUTINE proc1907(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 14
  v2 = 2
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = g3
  v1 = 8
  g1 = (-3 / (3 + v2))
  v1 = v2
  la(8) = ((11 * 3) + (2 + v3))
  f1 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1908(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc1908(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (max(-2, 14) / (4 + 0))
  g1 = f0
  g1 = la(12)
  f1 = (14 - g0)
  IF (f0 .GT. 0) THEN
    CALL proc1909(f0 - 1, (0 + 1))
  ENDIF
END

SUBROUTINE proc1909(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (-5 / (3 + 0))
  g3 = max(10, v0)
  v2 = la(2)
  f1 = 4
  g1 = (v1 - la(10))
  IF (v0 .EQ. (la(8) + -3) .OR. 8 .NE. la(9)) THEN
    f1 = 15
    DO f1 = 2, 2
      IF (.NOT. ((8 - la(7)) .EQ. max(11, v1))) g2 = (la(8) - 15)
    ENDDO
  ELSE
    f1 = max(6, 11)
  ENDIF
  PRINT *, g2
  IF (f0 .GT. 0) THEN
    CALL proc1910(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1910(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 11
  v2 = 2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v3 = (mod(la(3), 3) * g3)
  la(6) = -5
  g2 = f1
  DO f1 = 1, 2
    v2 = (la(9) - 1)
  ENDDO
  g2 = (max(la(9), la(5)) / (3 + la(4)))
  PRINT *, (la(11) - la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1907(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1911(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 6
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(5) + 8) .LE. f1 .OR. (12 + v0) .NE. (la(3) - 10)) THEN
    g2 = la(6)
  ELSE
    la(10) = f1
    f1 = (8 + 9)
  ENDIF
  IF ((v1 + g2) .GT. (4 * la(7)) .AND. (v0 + g1) .EQ. (la(3) - la(5))) THEN
    g1 = g2
    PRINT *, g1
  ENDIF
  IF (15 .EQ. (7 + v0)) THEN
    PRINT *, 4
  ELSE
    v2 = ((15 * 15) + 11)
  ENDIF
  DO g2 = 0, 1
    g3 = la(10)
  ENDDO
  v1 = ((la(9) + 14) * 1)
  g2 = 5
  IF ((12 * v0) .GE. (8 * g3)) THEN
    g3 = 3
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1912(f0 - 1, (0 + mod(15, 7)))
  ENDIF
END

SUBROUTINE proc1912(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = max(2, v1)
  g2 = abs(mod(la(4), 7))
  f1 = abs(la(10))
  v2 = 8
  la(10) = (la(2) / (2 + -1))
  IF (f0 .GT. 0) THEN
    CALL proc1913(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1913(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = ((la(3) / (5 + la(2))) * -3)
  v0 = ((12 - -1) / (6 + 11))
  v0 = mod(v0, 5)
  IF (f0 .GT. 0) THEN
    CALL proc1914(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1914(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 8
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, la(2)
  DO g1 = 2, 6
    v0 = max(v1, la(12))
  ENDDO
  IF (abs(3) .LT. (11 + la(6)) .OR. 7 .LE. (g2 + -3)) THEN
    IF (-5 .GE. mod(-4, 3) .AND. (la(4) * v1) .GE. v2) THEN
      f1 = (14 * 7)
    ENDIF
    IF (max(la(9), -4) .EQ. 10 .AND. 13 .GE. mod(9, 6)) g1 = 0
  ELSE
    g2 = 14
    g2 = (max(1, la(4)) / (4 + 10))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1911(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1915(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = (7 + g0)
  v0 = ((la(11) * 1) + 7)
  la(12) = 0
  g1 = (max(6, 10) * la(10))
  g1 = ((1 * g3) + (v1 * g0))
  IF (g1 .GT. (v1 * 1) .AND. la(3) .GE. (la(12) + 2)) THEN
    g3 = (v1 - (-5 + 14))
    la(5) = la(6)
  ENDIF
  g0 = ((12 * la(4)) - abs(la(2)))
  v1 = abs((g2 * g3))
  g1 = f0
  g2 = -3
  IF (f0 .GT. 0) THEN
    CALL proc1916(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1916(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 3
  v2 = 5
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = mod(max(2, la(12)), 2)
  PRINT *, (12 + la(2))
  f1 = la(4)
  v3 = ((-5 / (4 + v0)) * la(2))
  v2 = (f0 + (12 - 1))
  v1 = (mod(11, 3) * -4)
  f1 = ((g0 / (4 + v3)) + (f1 - v2))
  v3 = abs(8)
  g0 = abs(la(7))
  IF (f0 .GT. 0) THEN
    CALL proc1917(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1917(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = (5 + (7 * g2))
  g2 = ((la(12) + -4) + la(3))
  v1 = max(-2, f1)
  la(2) = 7
  g3 = la(12)
  g3 = ((13 - g1) * la(6))
  la(1) = v0
  f1 = abs(la(12))
  IF (f0 .GT. 0) THEN
    CALL proc1915(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc1918(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = max(la(6), 1)
  IF (la(7) .LE. abs(la(9)) .AND. (f1 - f1) .GT. (-4 + f0)) THEN
    DO g0 = 1, 1
      IF (-5 .LE. max(la(11), 6)) v1 = la(6)
    ENDDO
  ENDIF
  PRINT *, v0
  la(12) = (2 * la(2))
  IF (f0 .GT. 0) THEN
    CALL proc1919(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1919(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = g1
  v1 = 1
  g2 = -3
  IF (.NOT. ((12 * 11) .GT. (v0 * la(2)))) v0 = la(7)
  DO v2 = 2, 3
    v0 = ((v2 / (2 + la(5))) + (14 - 11))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1920(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1920(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 8
  v2 = 8
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = (mod(8, 8) * 8)
  la(1) = 8
  DO g0 = 2, 5
    v1 = ((g3 * -1) * 8)
  ENDDO
  g1 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc1921(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1921(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 8
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((la(10) + 0) .GT. 0) v0 = (12 - 11)
  IF (f0 .GT. 0) THEN
    CALL proc1922(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1922(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 2
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = v0
  v2 = (-3 + (12 + la(7)))
  IF (f0 .GT. 0) THEN
    CALL proc1923(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1923(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((13 / (3 + la(10))) .GT. (5 * 5) .AND. (g1 - 7) .GT. (g3 - f1)) f1 = (la(1) / (2 + -4))
  g2 = max(la(11), 11)
  IF (max(-5, 2) .GT. (la(3) + v1) .AND. (5 / (3 + 9)) .LT. g2) v1 = 5
  v0 = abs((4 / (4 + 7)))
  IF (f0 .GT. 0) THEN
    CALL proc1918(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1924(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -1
  v2 = -3
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v2 = 3, 7
    v1 = la(6)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1925(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1925(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = g1
  IF (.NOT. (g3 .LT. 10)) THEN
    IF (max(v1, v0) .EQ. 6) g2 = la(1)
  ENDIF
  DO g2 = 2, 4
    g1 = f0
  ENDDO
  IF (max(-4, la(4)) .NE. (la(8) - -5)) f1 = 13
  v1 = max(f1, v0)
  DO v0 = 1, 5
    v1 = v1
    v1 = 1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1926(f0 - 1, (0 + la(4)))
  ENDIF
END

SUBROUTINE proc1926(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 2
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((la(7) + v2) .LT. (-2 + 14)) g2 = 13
  g2 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1927(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1927(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = mod((la(8) / (2 + 3)), 7)
  g2 = v1
  g0 = -3
  IF ((5 * g2) .GT. la(3)) THEN
    g1 = max(v0, g3)
  ELSE
    f1 = -1
    g1 = (abs(g0) - (-1 / (5 + 2)))
  ENDIF
  IF (-5 .GE. 8) g3 = (la(2) + -3)
  f1 = (15 - la(3))
  IF ((6 - -1) .GT. (4 * g3) .AND. 9 .LT. 11) THEN
    v1 = (-4 + -5)
    v0 = abs(2)
  ELSE
    g1 = ((10 + la(3)) + (2 * 6))
    v1 = (max(0, la(10)) + mod(9, 5))
  ENDIF
  v1 = la(5)
  DO f1 = 2, 3
    g1 = (g0 * 0)
    PRINT *, ((la(12) * g2) - 5)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1928(f0 - 1, (0 + (2 * la(2))))
  ENDIF
END

SUBROUTINE proc1928(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1924(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc1929(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 13
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 2, 3
    g3 = (la(9) / (4 + 11))
  ENDDO
  g1 = ((la(5) * 7) / (5 + 1))
  g1 = -1
  la(11) = mod(abs(g0), 5)
  la(8) = 7
  g0 = abs(abs(v2))
  DO g2 = 0, 0
    DO v2 = 0, 1
      v0 = (g1 * g0)
      IF ((15 / (6 + -4)) .GE. abs(la(5))) g1 = (-5 + 3)
    ENDDO
    v2 = abs(la(2))
  ENDDO
  v0 = (4 - mod(13, 2))
  g3 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1930(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1930(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 11
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, (-3 - max(2, v0))
  f1 = abs((g2 * la(11)))
  g2 = (abs(5) - g3)
  PRINT *, max(la(10), la(5))
  g0 = mod(10, 8)
  IF (12 .NE. 8 .AND. abs(2) .LT. la(12)) THEN
    PRINT *, ((v2 - 2) / (4 + 2))
    IF (.NOT. (g3 .GE. 6)) THEN
      PRINT *, la(10)
      IF (.NOT. (abs(la(7)) .NE. -3)) v1 = (10 * la(2))
    ENDIF
  ELSE
    PRINT *, 15
    la(3) = max(la(6), 14)
  ENDIF
  PRINT *, 15
  g3 = la(3)
  v0 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1931(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc1931(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 3, 6
    IF (0 .LT. (8 + 15) .AND. (v1 / (5 + 15)) .LT. g0) THEN
      g3 = la(8)
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1932(f0 - 1, (0 + -1))
  ENDIF
END

SUBROUTINE proc1932(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = ((8 * 12) - 9)
  g2 = abs(la(12))
  IF (0 .GT. (g2 + la(10))) THEN
    v0 = 10
  ENDIF
  g3 = (max(5, v1) * la(12))
  g2 = la(10)
  IF (max(10, 8) .LT. abs(15) .AND. g2 .EQ. f0) THEN
    g0 = abs(6)
  ELSE
    DO g3 = 2, 6
      g1 = max(v1, la(10))
    ENDDO
  ENDIF
  g2 = g0
  g3 = (15 + (f0 / (3 + -2)))
  DO v1 = 2, 5
    g2 = la(3)
    v0 = 0
  ENDDO
  g1 = ((1 / (3 + v0)) * 4)
  IF (f0 .GT. 0) THEN
    CALL proc1933(f0 - 1, (0 + (-1 - -4)))
  ENDIF
END

SUBROUTINE proc1933(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -3
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = -5
  v0 = 10
  g2 = la(11)
  g3 = la(3)
  IF (mod(10, 7) .NE. 9) THEN
    f1 = ((1 - la(11)) / (5 + la(7)))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1929(f0 - 1, (0 + v1))
  ENDIF
END

SUBROUTINE proc1934(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 0
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = max(-4, 13)
  DO g2 = 2, 2
    f1 = (-1 + mod(7, 6))
    DO v0 = 1, 1
      PRINT *, mod(la(4), 3)
    ENDDO
  ENDDO
  f1 = mod(g2, 2)
  v0 = la(11)
  g0 = max(la(12), la(10))
  g3 = mod((2 * 3), 7)
  PRINT *, 11
  IF (f0 .GT. 0) THEN
    CALL proc1935(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1935(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 12
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (8 .GT. 5) g3 = (v2 / (3 + g1))
  IF (max(3, v1) .GE. abs(f1) .OR. 0 .LE. (9 + -5)) g0 = v0
  la(1) = g3
  g0 = v2
  v1 = 6
  DO v0 = 2, 4
    la(6) = ((2 + 5) + (la(2) / (6 + 8)))
  ENDDO
  v0 = ((-2 - la(11)) - v1)
  DO v1 = 3, 7
    v2 = max(v1, 1)
  ENDDO
  v2 = 10
  IF (f0 .GT. 0) THEN
    CALL proc1936(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc1936(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -3
  v2 = 3
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = g1
  g0 = mod(0, 8)
  IF (.NOT. (mod(la(12), 7) .NE. (-2 + -5))) THEN
    v0 = f1
    g1 = mod(abs(la(2)), 3)
  ENDIF
  IF (-2 .GT. la(6)) g3 = -4
  IF (f0 .GT. 0) THEN
    CALL proc1937(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1937(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 1
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (7 - -5)
  g2 = 5
  la(11) = 1
  v1 = la(6)
  IF (-1 .LT. 9 .OR. (la(4) / (2 + 5)) .EQ. mod(v2, 8)) THEN
    la(5) = abs((1 + la(2)))
    la(5) = max(-1, 6)
  ELSE
    DO g1 = 2, 6
      PRINT *, 9
      IF (f0 .GT. la(8) .OR. (2 * 12) .NE. (6 * la(12))) g3 = (-4 - v0)
    ENDDO
  ENDIF
  PRINT *, abs(abs(la(2)))
  v0 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc1938(f0 - 1, (0 + g3))
  ENDIF
END

SUBROUTINE proc1938(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -2
  v2 = 7
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 2
  DO g2 = 1, 4
    g3 = la(9)
    PRINT *, 2
  ENDDO
  IF (la(8) .LT. max(la(2), -5) .AND. (13 / (4 + la(12))) .LE. la(7)) THEN
    g3 = mod(max(1, g0), 5)
    g1 = ((15 * 12) + 2)
  ELSE
    la(12) = g0
    v2 = la(10)
  ENDIF
  g3 = -5
  DO v0 = 0, 3
    PRINT *, 10
  ENDDO
  v0 = 9
  f1 = la(10)
  PRINT *, max(2, la(9))
  v3 = 11
  g0 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1934(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1939(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 8
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g1 = 3, 3
    g3 = g1
  ENDDO
  g2 = (abs(6) * v0)
  v2 = (v1 - (0 + 7))
  v1 = abs(g0)
  v1 = -3
  g3 = la(9)
  g3 = ((la(8) / (2 + -5)) + 0)
  v1 = -4
  g2 = abs((2 / (4 + la(1))))
  IF (f0 .GT. 0) THEN
    CALL proc1940(f0 - 1, (0 + la(10)))
  ENDIF
END

SUBROUTINE proc1940(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = (8 * la(8))
  IF (.NOT. (v0 .EQ. (6 / (2 + -2)))) THEN
    g1 = (1 - v0)
    PRINT *, (mod(15, 7) / (5 + 8))
  ENDIF
  v1 = max(11, la(10))
  g3 = -3
  la(6) = la(6)
  g0 = max(7, 5)
  DO v0 = 1, 5
    g0 = (la(11) + 8)
  ENDDO
  g3 = max(f0, 15)
  IF (f0 .GT. 0) THEN
    CALL proc1941(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1941(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = 4
  g1 = max(-4, 11)
  IF (.NOT. (la(5) .LE. 14)) g2 = la(7)
  PRINT *, max(11, 9)
  g3 = la(2)
  DO v0 = 1, 1
    IF (.NOT. (10 .NE. abs(f0))) v1 = la(6)
    g1 = 15
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1942(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1942(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO f1 = 3, 3
    PRINT *, f0
    PRINT *, max(la(9), f1)
  ENDDO
  g0 = abs((la(7) * g2))
  IF (f1 .EQ. max(0, 6) .OR. (g0 / (2 + 13)) .EQ. v1) THEN
    f1 = mod(mod(-3, 2), 3)
    IF (.NOT. (la(10) .GT. (7 * -3))) g1 = g3
  ELSE
    v0 = max(la(2), 1)
  ENDIF
  IF (.NOT. (g2 .NE. la(12))) THEN
    g2 = mod(la(7), 3)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1939(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1943(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = ((4 * la(4)) - (la(12) / (6 + 14)))
  v2 = g1
  DO v1 = 0, 0
    v2 = 5
  ENDDO
  v0 = mod(f1, 7)
  IF (.NOT. ((la(12) / (6 + g0)) .LT. 3)) THEN
    PRINT *, ((la(2) * la(9)) * g1)
  ENDIF
  IF (f1 .LE. mod(5, 4)) v2 = f0
  g3 = 0
  DO g1 = 3, 4
    IF (abs(v0) .NE. max(v1, 15) .OR. -3 .EQ. abs(la(10))) THEN
      PRINT *, 12
    ELSE
      v2 = (mod(g3, 2) * 9)
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1944(f0 - 1, (0 + max(-1, -5)))
  ENDIF
END

SUBROUTINE proc1944(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 13
  v2 = 14
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = f1
  g2 = f0
  IF ((-3 / (2 + g1)) .EQ. f1) v2 = (-4 * 11)
  PRINT *, v2
  g1 = v3
  v1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc1945(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1945(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 9
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = ((10 + -3) / (3 + -1))
  IF (13 .GT. mod(g2, 6) .OR. -1 .EQ. mod(g2, 3)) v2 = mod(6, 7)
  v1 = (v0 * la(9))
  PRINT *, abs((la(8) + 6))
  la(8) = mod(mod(7, 4), 8)
  IF (f0 .GT. 0) THEN
    CALL proc1946(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1946(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = (mod(la(9), 8) - (f1 - 0))
  IF ((3 - f0) .EQ. abs(-1) .OR. (f1 + v0) .LE. max(la(2), la(10))) g2 = 0
  g1 = la(8)
  DO g3 = 0, 1
    g0 = la(8)
    PRINT *, (abs(0) - (-2 - la(12)))
  ENDDO
  g2 = 11
  g0 = v0
  g3 = ((f1 / (2 + -2)) / (4 + la(12)))
  v1 = f1
  la(4) = (g2 - mod(la(5), 6))
  IF (f0 .GT. 0) THEN
    CALL proc1947(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1947(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = 5
  la(11) = 6
  IF (.NOT. ((-3 - la(4)) .GT. (la(12) + la(10)))) THEN
    g2 = abs(abs(la(4)))
  ENDIF
  g3 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1943(f0 - 1, (0 + (v2 - g3)))
  ENDIF
END

SUBROUTINE proc1948(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = 5
  DO g0 = 2, 2
    v0 = ((la(3) / (2 + la(2))) + mod(la(6), 7))
    DO g2 = 3, 7
      PRINT *, g0
      v0 = max(g3, 14)
    ENDDO
  ENDDO
  g0 = mod(la(3), 2)
  g2 = ((la(11) - f1) / (5 + v0))
  DO g1 = 3, 5
    g3 = la(4)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1949(f0 - 1, (0 + (-3 + g1)))
  ENDIF
END

SUBROUTINE proc1949(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 0
  v2 = -4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v3 = ((la(12) + la(3)) - f1)
  v0 = (-5 + 6)
  g1 = 11
  v1 = mod(max(6, 9), 4)
  g3 = 15
  IF (f0 .GT. 0) THEN
    CALL proc1950(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1950(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = max(-5, 13)
  g3 = -3
  g2 = (g2 * 13)
  IF (f0 .GT. 0) THEN
    CALL proc1951(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1951(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -4
  v2 = 7
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = ((v3 * 15) - (la(7) / (6 + la(8))))
  PRINT *, la(7)
  v2 = (la(11) / (4 + 4))
  la(8) = abs(la(10))
  g0 = la(12)
  la(4) = (-2 - g3)
  IF (2 .LE. mod(la(6), 4)) THEN
    IF ((-1 - g0) .GE. mod(14, 6) .OR. (la(2) * la(3)) .NE. (la(5) + g2)) THEN
      v1 = (mod(4, 8) / (3 + 1))
    ENDIF
    g1 = -4
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1952(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc1952(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 3
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = v0
  IF ((10 * la(2)) .GE. 2 .AND. mod(la(2), 8) .LE. (4 - 8)) f1 = (v0 * v1)
  g0 = mod(max(la(12), -4), 5)
  f1 = 14
  IF (.NOT. (2 .NE. max(0, la(11)))) v1 = abs(la(8))
  f1 = ((g1 - 2) - f0)
  g1 = 7
  v0 = 9
  v2 = ((4 / (4 + v2)) + 9)
  PRINT *, 9
  IF (f0 .GT. 0) THEN
    CALL proc1948(f0 - 1, (0 + mod(la(6), 6)))
  ENDIF
END

SUBROUTINE proc1953(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -3
  v2 = -4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (mod(la(12), 2) .EQ. (12 + 8) .OR. (4 * 2) .GE. (la(8) + v3)) THEN
    v0 = max(la(7), 3)
    DO v1 = 0, 4
      la(10) = la(3)
    ENDDO
  ENDIF
  g0 = v2
  la(7) = mod(g3, 2)
  IF (f0 .GT. 0) THEN
    CALL proc1954(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1954(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO f1 = 0, 3
    v2 = 1
  ENDDO
  f1 = 4
  DO v1 = 2, 2
    g3 = 7
  ENDDO
  g1 = (abs(la(7)) + (5 + 13))
  PRINT *, abs(mod(-3, 7))
  v1 = abs(mod(v2, 2))
  IF (f0 .GT. 0) THEN
    CALL proc1955(f0 - 1, (0 + g1))
  ENDIF
END

SUBROUTINE proc1955(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = la(7)
  g2 = -4
  IF ((la(10) * f1) .EQ. 8 .AND. mod(9, 8) .LT. 5) THEN
    PRINT *, 8
    IF (la(10) .GE. abs(8) .OR. 0 .GT. la(1)) THEN
      PRINT *, mod((f0 / (4 + g0)), 5)
      IF ((-4 / (4 + v0)) .GT. (la(1) * f0)) v1 = (7 * 1)
    ELSE
      v0 = (abs(la(10)) / (4 + 5))
      la(8) = 10
    ENDIF
  ELSE
    IF (mod(12, 7) .GT. max(g1, la(10))) g1 = abs(13)
  ENDIF
  v0 = mod(1, 2)
  IF ((g3 * g2) .LT. abs(11) .OR. 2 .LE. g2) g0 = 9
  IF (mod(la(1), 3) .GT. 3) THEN
    g2 = ((f0 - g1) * -5)
    g2 = 5
  ENDIF
  g2 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1956(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1956(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = -1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = ((v2 - 12) / (2 + -5))
  v0 = abs(mod(la(9), 7))
  g1 = g3
  IF (f0 .GT. 0) THEN
    CALL proc1957(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1957(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 3
  v2 = 4
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1958(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1958(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 11
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (la(9) .GE. 14)) THEN
    v0 = v0
  ELSE
    f1 = (la(3) - abs(f1))
  ENDIF
  PRINT *, max(g3, 10)
  g1 = -3
  la(9) = v3
  IF (g3 .GE. la(12)) THEN
    v3 = -3
    DO v1 = 2, 3
      g1 = (-2 - 15)
      la(3) = 1
    ENDDO
  ENDIF
  v3 = 11
  IF (f0 .GT. 0) THEN
    CALL proc1953(f0 - 1, (0 + (la(4) - -3)))
  ENDIF
END

SUBROUTINE proc1959(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g1 = 1, 2
    PRINT *, (la(3) / (2 + f0))
    la(7) = -2
  ENDDO
  g2 = 15
  g1 = g3
  v0 = ((14 + 13) - 9)
  IF (f0 .GT. 0) THEN
    CALL proc1960(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1960(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g0 = 1, 5
    f1 = (max(g0, g3) / (4 + g1))
    la(2) = f0
  ENDDO
  f1 = la(6)
  IF (.NOT. (f0 .EQ. f0)) g2 = abs(7)
  g0 = mod(13, 2)
  la(10) = 4
  g1 = ((11 * -5) - f0)
  g0 = (la(3) + abs(la(10)))
  la(2) = g3
  g2 = (abs(-4) + (1 / (2 + f0)))
  IF (f0 .GT. 0) THEN
    CALL proc1961(f0 - 1, (0 + 11))
  ENDIF
END

SUBROUTINE proc1961(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 1
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = 13
  v1 = max(g3, la(6))
  f1 = abs((v3 - 12))
  DO g2 = 2, 3
    f1 = abs(15)
    PRINT *, 13
  ENDDO
  g3 = abs(-1)
  v1 = abs(mod(v1, 4))
  PRINT *, (la(10) / (6 + f0))
  IF (f0 .GT. 0) THEN
    CALL proc1962(f0 - 1, (0 + (-1 - v1)))
  ENDIF
END

SUBROUTINE proc1962(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -4
  v2 = 8
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g0 = 3, 5
    g1 = -3
    f1 = abs((v1 - 6))
  ENDDO
  v0 = v1
  g0 = (mod(-2, 7) - mod(-2, 4))
  PRINT *, (6 / (2 + 2))
  PRINT *, abs(abs(12))
  IF (f0 .GT. 0) THEN
    CALL proc1959(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1963(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 8
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((v0 + v0) .NE. (7 * la(4))) THEN
    g0 = g0
    v0 = (max(f0, la(12)) - g0)
  ENDIF
  g3 = (abs(la(6)) - mod(2, 4))
  f1 = max(12, 6)
  v1 = la(10)
  IF (.NOT. (9 .LT. mod(g2, 5))) g3 = g0
  PRINT *, la(11)
  g0 = la(2)
  la(10) = mod((la(1) / (5 + v0)), 5)
  IF (.NOT. (-2 .EQ. f1)) THEN
    IF (mod(-5, 3) .LT. 10 .OR. -3 .GT. mod(la(12), 7)) v2 = (6 - 4)
    IF ((-4 / (6 + la(7))) .GT. v0 .AND. g0 .NE. -3) THEN
      g2 = max(-4, 0)
    ENDIF
  ENDIF
  IF (.NOT. ((2 + g3) .NE. f0)) v0 = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc1964(f0 - 1, (0 + max(9, -2)))
  ENDIF
END

SUBROUTINE proc1964(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc1965(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc1965(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = -1
  g1 = 7
  g3 = max(11, 3)
  IF (max(g0, 14) .EQ. (la(9) - g0) .AND. (15 * la(2)) .GT. (5 - g0)) g3 = (13 + f0)
  g3 = abs((7 * 4))
  IF ((la(9) - 12) .GE. g2 .AND. (g3 - -4) .GE. (la(5) / (4 + g2))) v0 = 1
  g1 = la(5)
  v0 = 9
  v1 = max(v0, 10)
  PRINT *, (f0 + (-3 + 5))
  IF (f0 .GT. 0) THEN
    CALL proc1966(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1966(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = g0
  IF (.NOT. ((3 - 1) .LE. abs(9))) THEN
    DO g1 = 0, 4
      f1 = la(8)
    ENDDO
    IF (.NOT. ((15 * v0) .LT. (v1 + la(6)))) f1 = la(5)
  ELSE
    g1 = f1
    g2 = 2
  ENDIF
  g3 = la(5)
  g3 = g1
  IF (f0 .GT. 0) THEN
    CALL proc1963(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1967(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 7
  v2 = 4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = max(1, g3)
  v3 = ((11 + 9) - la(10))
  v2 = f1
  IF ((la(1) / (4 + 4)) .NE. abs(3)) v3 = (2 * la(5))
  v1 = 13
  la(6) = v1
  IF (f0 .GT. 0) THEN
    CALL proc1968(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc1968(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(10) = (4 - (la(7) + -5))
  DO g0 = 2, 5
    PRINT *, 3
  ENDDO
  DO g2 = 3, 3
    DO g3 = 3, 3
      IF (0 .GE. 3 .OR. (la(1) - v1) .LT. (-3 * g0)) f1 = 8
    ENDDO
    IF (mod(14, 4) .NE. la(1) .OR. -5 .LE. f0) v0 = 7
  ENDDO
  la(10) = 3
  v0 = (la(6) - (v1 - la(11)))
  IF (f0 .GT. (la(10) + la(12)) .OR. g1 .LE. max(la(8), -5)) THEN
    IF ((9 / (2 + g0)) .LE. (9 / (4 + -5))) THEN
      PRINT *, ((6 + 8) + (9 * g3))
      v1 = la(12)
    ENDIF
    IF (.NOT. (max(la(6), 8) .EQ. abs(12))) THEN
      v1 = (v0 - g0)
      v0 = v0
    ELSE
      v0 = 3
      v1 = (la(1) + (8 + 6))
    ENDIF
  ELSE
    v1 = la(9)
  ENDIF
  v1 = g1
  g3 = 15
  DO v0 = 1, 3
    g1 = 0
    IF (13 .GT. 1 .OR. (la(6) / (6 + la(10))) .EQ. f1) THEN
      g0 = (la(8) * g0)
      f1 = ((13 - -1) * 13)
    ENDIF
  ENDDO
  g0 = -5
  IF (f0 .GT. 0) THEN
    CALL proc1969(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1969(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 2
  v2 = 13
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = max(g3, 15)
  DO v2 = 2, 6
    v3 = (la(9) + v2)
  ENDDO
  DO f1 = 3, 5
    IF (15 .GE. -5) v3 = (v3 - v2)
    v2 = mod((g3 - v3), 3)
  ENDDO
  f1 = la(11)
  v1 = (f0 - 4)
  v2 = 2
  DO v0 = 2, 4
    DO f1 = 0, 3
      v1 = 12
    ENDDO
    v1 = 9
  ENDDO
  v3 = max(la(6), v3)
  IF (g0 .GT. mod(la(8), 7) .OR. -3 .GE. la(12)) v1 = max(-2, 5)
  la(7) = v0
  IF (f0 .GT. 0) THEN
    CALL proc1970(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc1970(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v1 = 1, 4
    g2 = -2
  ENDDO
  IF (10 .GE. g3 .OR. (-4 - la(4)) .LE. g3) THEN
    IF ((-5 * g2) .NE. 14 .AND. max(13, 0) .GE. 12) g2 = g3
    IF (v1 .LT. v0) THEN
      g2 = 12
    ELSE
      la(11) = 0
    ENDIF
  ELSE
    IF (.NOT. (mod(la(4), 5) .GE. mod(g2, 6))) THEN
      v0 = 12
      IF (.NOT. (la(1) .GT. max(g0, -5))) v0 = abs(g2)
    ENDIF
    DO v1 = 0, 0
      PRINT *, f1
    ENDDO
  ENDIF
  DO g2 = 3, 7
    la(8) = abs(la(5))
    f1 = g0
  ENDDO
  f1 = ((14 * la(10)) / (3 + 9))
  la(8) = -2
  g2 = 13
  PRINT *, (la(6) + (la(7) * 2))
  la(1) = mod(la(10), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1971(f0 - 1, (0 + 4))
  ENDIF
END

SUBROUTINE proc1971(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -4
  v2 = 13
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f1 = 0, 4
    IF ((0 - 12) .GT. la(10)) v0 = v1
  ENDDO
  IF (3 .LT. f1 .OR. 1 .LE. (7 * la(11))) v1 = -2
  f1 = (la(1) * v0)
  IF (f0 .GT. 0) THEN
    CALL proc1967(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc1972(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(7) .LE. (la(6) * 4) .AND. -5 .EQ. (4 - v1)) v2 = la(9)
  IF (la(7) .LT. mod(1, 4) .OR. 13 .LE. g3) THEN
    PRINT *, la(4)
    la(4) = ((3 - g1) / (5 + la(8)))
  ELSE
    DO g3 = 3, 4
      v2 = abs(5)
      la(4) = 8
    ENDDO
    IF (.NOT. (la(4) .LT. -5)) v1 = (f1 + -3)
  ENDIF
  IF ((7 - g3) .NE. abs(13) .AND. (-3 - 1) .EQ. v2) g2 = 7
  g2 = la(8)
  v0 = v1
  g1 = max(g0, 8)
  v0 = -1
  IF (6 .EQ. mod(la(10), 3) .AND. 3 .EQ. g3) g0 = abs(la(9))
  la(8) = abs((la(6) / (6 + 12)))
  IF (f0 .GT. 0) THEN
    CALL proc1973(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1973(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(5) = 13
  f1 = -1
  v1 = mod(12, 6)
  v0 = max(11, la(7))
  IF (max(v0, la(11)) .LE. max(g0, 15)) v1 = (la(4) + la(7))
  PRINT *, 13
  la(11) = abs((0 - 5))
  la(9) = (9 + (4 / (2 + g0)))
  v0 = 7
  IF (f0 .GT. 0) THEN
    CALL proc1974(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1974(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 10
  v2 = 10
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v3 = 1, 5
    v0 = mod((la(2) / (6 + la(11))), 7)
  ENDDO
  g3 = 2
  PRINT *, la(10)
  v0 = (v2 / (6 + la(9)))
  g2 = -1
  la(5) = -5
  DO v2 = 2, 6
    IF (.NOT. (mod(f0, 5) .LT. la(1))) THEN
      f1 = abs(mod(3, 4))
      la(10) = (abs(v2) - (v3 + 8))
    ELSE
      g3 = 9
      g2 = (abs(2) - (4 / (6 + 2)))
    ENDIF
  ENDDO
  g2 = (12 + 7)
  IF (f0 .GT. 0) THEN
    CALL proc1975(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1975(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((v1 * v0) .LT. 0 .AND. mod(f1, 7) .GE. (g1 + -3)) THEN
    g2 = 6
    la(9) = 10
  ELSE
    g2 = mod(g3, 2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1976(f0 - 1, (0 + mod(1, 7)))
  ENDIF
END

SUBROUTINE proc1976(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(12, 5) .GE. (-5 * -1) .OR. (12 + -2) .LT. g2) THEN
    DO g1 = 3, 7
      g0 = f0
      g3 = (mod(la(9), 8) * la(7))
    ENDDO
    IF (g0 .GE. (9 / (6 + -1))) THEN
      g2 = ((g3 / (6 + 10)) - (-5 * g2))
      la(7) = ((v0 - 9) / (6 + f1))
    ELSE
      g1 = (abs(13) - mod(v0, 3))
    ENDIF
  ENDIF
  PRINT *, (la(1) * g1)
  IF (f0 .GT. 0) THEN
    CALL proc1977(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1977(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -4
  v2 = 7
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(12) = (abs(11) * 1)
  PRINT *, 15
  v1 = (mod(f0, 4) / (3 + f1))
  IF (f0 .GT. 0) THEN
    CALL proc1972(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1978(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 6
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = (v2 - mod(3, 3))
  g1 = (g1 - 10)
  la(3) = 8
  PRINT *, (12 * la(12))
  g1 = g0
  la(7) = 6
  PRINT *, -5
  IF (f0 .GT. 0) THEN
    CALL proc1979(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1979(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1980(f0 - 1, (0 + la(11)))
  ENDIF
END

SUBROUTINE proc1980(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 8
  v2 = 12
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, g2
  f1 = mod(-2, 4)
  v2 = ((v0 + la(10)) + -4)
  v0 = -2
  IF ((15 + la(10)) .LT. (15 - 7) .AND. -2 .LT. f1) THEN
    DO v0 = 1, 3
      g0 = (mod(8, 3) - mod(la(9), 5))
      v3 = ((v1 / (2 + v3)) - (v3 - la(6)))
    ENDDO
  ENDIF
  IF (11 .EQ. (f1 / (3 + v0)) .OR. 8 .LE. (2 / (4 + g1))) v1 = (g2 / (4 + 15))
  IF (f0 .GT. 0) THEN
    CALL proc1978(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1981(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 2, 3
    DO v0 = 0, 1
      IF ((-3 / (2 + la(7))) .GT. (5 * -5)) f1 = max(-3, g0)
      la(3) = (g0 * la(7))
    ENDDO
  ENDDO
  f1 = (-4 - (la(3) + v0))
  v0 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc1982(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1982(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 10
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = (11 + la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1983(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc1983(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 5
  v2 = -1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = v0
  DO g2 = 3, 6
    v2 = la(6)
    la(7) = v0
  ENDDO
  DO v2 = 2, 6
    DO g2 = 3, 5
      g0 = (8 - -3)
    ENDDO
  ENDDO
  PRINT *, (max(14, v3) * 3)
  g3 = 13
  la(12) = 0
  g2 = ((-3 + 6) + 6)
  PRINT *, 11
  IF (.NOT. ((14 / (5 + -2)) .GT. f0)) v1 = 13
  v2 = mod(la(11), 5)
  IF (f0 .GT. 0) THEN
    CALL proc1981(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1984(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = 0
  v1 = la(9)
  la(3) = (mod(la(3), 4) + (13 * 11))
  PRINT *, g2
  IF (f0 .GT. 0) THEN
    CALL proc1985(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc1985(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 11
  v2 = 4
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = mod(6, 2)
  DO g1 = 1, 5
    f1 = mod(-4, 5)
    la(9) = (8 / (4 + la(8)))
  ENDDO
  PRINT *, g3
  g3 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc1986(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc1986(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 11
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (v0 .LE. 14)) THEN
    v1 = abs(abs(la(12)))
    v0 = max(la(10), f0)
  ENDIF
  DO g3 = 3, 7
    f1 = 13
  ENDDO
  g1 = (1 + v1)
  IF (f0 .GT. 0) THEN
    CALL proc1987(f0 - 1, (0 + (la(11) - la(7))))
  ENDIF
END

SUBROUTINE proc1987(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = abs((g0 - 3))
  IF (f0 .GT. 0) THEN
    CALL proc1988(f0 - 1, (0 + 8))
  ENDIF
END

SUBROUTINE proc1988(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(12) = max(-5, la(3))
  v1 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc1989(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1989(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g0 = 3, 5
    g3 = mod(-1, 8)
  ENDDO
  PRINT *, mod(v0, 8)
  g1 = 2
  DO v1 = 0, 3
    g3 = g0
  ENDDO
  la(3) = (-3 * -4)
  DO g2 = 1, 3
    g0 = la(6)
    g0 = -1
  ENDDO
  g1 = ((3 - la(12)) * g0)
  IF (f0 .GT. 0) THEN
    CALL proc1984(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc1990(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = ((14 / (4 + 15)) + mod(-3, 3))
  IF (f0 .GT. 0) THEN
    CALL proc1991(f0 - 1, (0 + -4))
  ENDIF
END

SUBROUTINE proc1991(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, max(g2, f1)
  g1 = abs(v1)
  DO v2 = 1, 3
    g0 = g0
    g3 = -2
  ENDDO
  g0 = mod(la(6), 4)
  g1 = -3
  g1 = v0
  IF ((2 + v0) .EQ. (la(11) / (4 + -3)) .AND. la(8) .LE. (la(5) / (3 + 9))) g0 = 13
  v0 = abs(mod(12, 4))
  IF (f0 .GT. 0) THEN
    CALL proc1992(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1992(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 8
  v2 = 10
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 2
  DO v2 = 3, 6
    DO g3 = 3, 3
      v1 = v3
      v0 = 11
    ENDDO
    DO v0 = 1, 3
      v3 = (abs(la(9)) + mod(11, 6))
      g3 = g1
    ENDDO
  ENDDO
  PRINT *, f1
  DO f1 = 0, 2
    IF (6 .LE. (v1 - la(10))) g0 = (v3 - 15)
    la(5) = (mod(6, 5) * 8)
  ENDDO
  f1 = abs(la(3))
  IF (f0 .GT. 0) THEN
    CALL proc1993(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1993(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = la(3)
  IF ((10 + v0) .LE. 0 .OR. g2 .LT. mod(la(12), 5)) v0 = (g2 * f0)
  la(6) = 13
  PRINT *, max(5, g0)
  g0 = 4
  IF (f0 .GT. 0) THEN
    CALL proc1990(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc1994(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 1, 1
    g1 = mod((la(10) / (2 + v1)), 6)
  ENDDO
  g2 = max(g1, 11)
  g1 = mod(mod(v1, 6), 6)
  v0 = 13
  la(11) = ((14 / (6 + v0)) / (4 + 6))
  la(2) = la(10)
  DO v0 = 1, 5
    DO v1 = 2, 5
      g1 = 6
      v2 = mod(max(-4, 7), 5)
    ENDDO
    PRINT *, g1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc1995(f0 - 1, (0 + (12 - la(3))))
  ENDIF
END

SUBROUTINE proc1995(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 11
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (abs(-3) .LT. 6 .AND. (la(8) + 12) .GT. 3) THEN
    IF (5 .LT. la(11) .OR. (-1 / (6 + la(11))) .GE. la(1)) THEN
      g1 = la(4)
    ENDIF
    IF ((13 - 3) .EQ. max(la(1), 8)) THEN
      g3 = (-2 - 9)
      PRINT *, 2
    ENDIF
  ELSE
    PRINT *, 7
    g2 = abs(5)
  ENDIF
  IF ((12 + -5) .LT. abs(la(1))) v0 = la(3)
  v0 = 0
  f1 = 11
  v0 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc1996(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc1996(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -4
  v2 = 5
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = (abs(-1) / (2 + -1))
  g1 = g3
  g1 = mod(abs(g0), 6)
  la(6) = max(-2, 14)
  g3 = ((2 - 5) / (2 + 15))
  g3 = ((7 / (5 + la(9))) * v1)
  f1 = ((la(5) - g1) * 0)
  IF (.NOT. (la(7) .GE. (14 - -4))) THEN
    g2 = (v0 + la(9))
  ENDIF
  v1 = f1
  g0 = v2
  IF (f0 .GT. 0) THEN
    CALL proc1997(f0 - 1, (0 + la(9)))
  ENDIF
END

SUBROUTINE proc1997(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 2
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (v2 .GT. 3 .OR. la(4) .GE. (la(1) - g2)) g1 = max(11, -5)
  v1 = (la(1) + (-2 - 6))
  DO g1 = 2, 6
    f1 = f0
  ENDDO
  la(9) = mod(la(10), 3)
  g1 = v0
  PRINT *, 10
  g1 = max(-4, v1)
  IF (f0 .GT. 0) THEN
    CALL proc1998(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc1998(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 1
  v2 = 9
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = 7
  PRINT *, la(5)
  PRINT *, ((la(12) + 8) * 2)
  IF (v3 .GE. la(5) .AND. (8 / (2 + 8)) .GE. 0) THEN
    DO v0 = 2, 6
      g0 = mod((11 + 2), 5)
      g3 = abs(4)
    ENDDO
    g2 = abs(-2)
  ELSE
    v2 = abs(max(-5, la(6)))
    v3 = la(1)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc1999(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc1999(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 5
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = max(la(9), 13)
  IF (f0 .GT. 0) THEN
    CALL proc1994(f0 - 1, v0)
  ENDIF
END
