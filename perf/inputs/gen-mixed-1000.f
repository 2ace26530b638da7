PROGRAM main
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  DATA g0 /5/, g1 /11/, g3 /7/
  v0 = 7
  v1 = 10
  v2 = 6
  v3 = -3
  g2 = 9
  DO v0 = 1, 12
    la(v0) = 2 * v0
  ENDDO
  v0 = 0
  g3 = abs(v2)
  g0 = (3 + mod(0, 7))
  DO g1 = 1, 2
    v2 = la(3)
  ENDDO
  DO g3 = 2, 3
    PRINT *, v2
  ENDDO
  la(3) = la(10)
  v0 = (abs(v0) * 0)
  CALL proc0(6, (0 + (la(1) - 3)))
  CALL proc333(4)
  CALL proc666(4, 7)
  PRINT *, v0
  PRINT *, v1
  PRINT *, v2
  PRINT *, v3
  PRINT *, g0
  PRINT *, g1
  PRINT *, g2
  PRINT *, g3
END

SUBROUTINE proc0(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = max(f1, f0)
  g2 = max(la(4), g0)
  f0 = abs(max(-2, -2))
  g1 = (v1 + la(4))
  g1 = 8
  f0 = (la(7) / (6 + -1))
  f0 = -3
  g3 = (13 + (la(3) * -5))
  f0 = (max(la(12), 6) + max(v0, 10))
  IF ((15 / (3 + 15)) .LT. v0 .OR. (f0 / (3 + la(11))) .LT. (la(11) + 2)) v1 = (-2 * la(5))
  CALL proc1((0 + abs(2)))
END

SUBROUTINE proc1(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -3
  v2 = 6
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = 0
  v0 = mod(abs(v2), 3)
  v2 = (2 - -2)
  g3 = ((g1 - -1) - 7)
  v0 = max(la(1), v1)
  v0 = abs((9 + 13))
  IF (.NOT. (abs(v2) .EQ. max(la(2), 11))) THEN
    IF ((-3 / (3 + 1)) .NE. la(2)) THEN
      g2 = abs(10)
      v3 = ((la(9) / (5 + 0)) + 14)
    ELSE
      v3 = abs((g0 - 3))
      f0 = mod((g3 / (3 + 6)), 6)
    ENDIF
  ELSE
    v0 = -4
  ENDIF
  CALL proc2(3)
END

SUBROUTINE proc2(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g0 = 1, 5
    v1 = (-5 / (6 + la(9)))
  ENDDO
  PRINT *, la(6)
  IF (.NOT. ((v1 * la(6)) .GT. g1)) f0 = 8
  g0 = g2
  g1 = g1
  CALL proc3(7)
END

SUBROUTINE proc3(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = -5
  f0 = abs(mod(g0, 2))
  g0 = g0
  DO v1 = 0, 1
    IF (-1 .EQ. g1) g0 = (11 - g3)
    IF (.NOT. (mod(la(4), 5) .GE. (la(6) * g3))) THEN
      g0 = 0
      IF ((6 - 13) .GE. 3 .OR. (1 * la(1)) .LT. (3 / (2 + 13))) g3 = 6
    ELSE
      g2 = abs((0 - 3))
    ENDIF
  ENDDO
  la(9) = 5
  CALL proc4(3)
END

SUBROUTINE proc4(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = 14
  g3 = la(3)
  g1 = la(1)
  IF (la(4) .NE. 6 .AND. abs(-5) .NE. 12) g2 = 2
  g2 = 1
  la(3) = (la(6) - 4)
  la(6) = 10
  la(9) = (14 * 1)
  CALL proc5((0 + 11), v1)
END

SUBROUTINE proc5(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = abs(-1)
  g0 = (mod(4, 3) / (3 + la(3)))
  CALL proc6(3)
END

SUBROUTINE proc6(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = la(10)
  IF (la(3) .GT. la(10)) THEN
    PRINT *, la(4)
    PRINT *, (9 - (2 + 7))
  ENDIF
  IF (.NOT. ((f0 - v0) .LT. g1)) THEN
    IF ((v0 - v1) .LE. (8 - la(8)) .AND. g2 .LE. max(1, 9)) g2 = abs(5)
    g3 = ((g2 * 2) / (5 + 7))
  ENDIF
  la(11) = la(2)
  la(1) = abs(mod(la(2), 7))
  g1 = max(v0, la(12))
  la(10) = (v1 * 13)
  g0 = g3
  IF (.NOT. (-5 .GT. max(la(6), 11))) f0 = (15 - 12)
  CALL proc7((f0 + 1), (0 + 6))
END

SUBROUTINE proc7(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 14
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = v0
  PRINT *, mod(3, 5)
  g2 = f1
  CALL proc8(7)
END

SUBROUTINE proc8(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = (mod(la(9), 2) + 11)
  la(8) = max(-4, 13)
  IF (-4 .GT. la(10) .OR. la(10) .NE. (la(11) - la(9))) THEN
    g3 = g3
    IF (max(g2, -1) .LT. abs(f0) .AND. (la(1) * -5) .GT. v0) THEN
      f0 = g3
      PRINT *, 1
    ENDIF
  ENDIF
  la(1) = (mod(14, 3) - f0)
  g0 = la(1)
  CALL proc9((f0 + 1))
END

SUBROUTINE proc9(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = g3
  PRINT *, (-2 + mod(9, 6))
  IF (max(7, g1) .EQ. f0 .OR. -4 .NE. (1 * g3)) THEN
    f0 = (la(9) - 0)
  ELSE
    IF (.NOT. (f0 .GT. la(9))) THEN
      IF (.NOT. ((-1 * -1) .EQ. (g3 + la(6)))) g1 = (g0 - la(11))
    ENDIF
    g1 = g3
  ENDIF
  g0 = g0
  la(1) = la(6)
  CALL proc10((f0 + 1), v0)
END

SUBROUTINE proc10(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 6
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = (3 + abs(g0))
  v0 = la(4)
  la(2) = 5
  f1 = max(g1, 3)
  CALL proc11(4, v0)
END

SUBROUTINE proc11(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (la(4) .GE. mod(-4, 5))) g1 = (g1 - 5)
  PRINT *, f0
  g3 = (mod(la(7), 2) + abs(v2))
  la(8) = mod((g0 / (4 + 9)), 8)
  la(4) = (max(g2, g2) / (2 + 15))
  g2 = abs(g3)
  IF ((la(1) - -4) .GE. (v2 - la(8)) .OR. (g2 + la(8)) .GT. abs(5)) f1 = (g2 + la(3))
  IF (la(7) .NE. (g2 / (5 + 11)) .AND. (-3 / (4 + la(10))) .GE. v0) THEN
    IF (.NOT. ((la(5) - v0) .LE. la(7))) g2 = mod(-5, 5)
  ELSE
    DO v0 = 2, 6
      IF (v2 .GE. 9) f0 = (v0 - 4)
      f0 = max(4, 9)
    ENDDO
  ENDIF
  IF (.NOT. (la(9) .EQ. (-2 - la(3)))) g0 = -4
  f0 = 6
  CALL proc12(2)
END

SUBROUTINE proc12(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(11) = 13
  IF ((-4 * 8) .LT. g3) THEN
    f0 = (la(3) / (2 + 13))
    f0 = g1
  ELSE
    DO g3 = 3, 5
      PRINT *, 2
      g1 = 2
    ENDDO
  ENDIF
  la(2) = 8
  CALL proc13(7, v0)
END

SUBROUTINE proc13(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, ((la(7) - 4) / (5 + -1))
  CALL proc14((0 + -1))
END

SUBROUTINE proc14(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 12
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = la(2)
  IF (.NOT. (8 .LT. abs(-3))) THEN
    f0 = mod(max(la(2), la(3)), 3)
  ENDIF
  CALL proc15((f0 + 1), -1)
END

SUBROUTINE proc15(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (13 .LE. (f1 / (2 + g3)) .OR. la(7) .GT. abs(la(10))) THEN
    g2 = la(4)
  ENDIF
  f1 = (la(2) * la(2))
  IF (la(11) .LE. abs(la(5)) .AND. 10 .GE. max(la(12), -2)) f0 = -5
  g1 = 3
  la(1) = 1
  IF (la(1) .LE. (2 * la(6)) .AND. la(10) .GT. (v0 - 9)) THEN
    g0 = 9
    g2 = abs(abs(4))
  ELSE
    f1 = g1
  ENDIF
  CALL proc16((0 + -2))
END

SUBROUTINE proc16(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 3
  v2 = 5
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = mod(abs(v3), 3)
  CALL proc17(4, f0)
END

SUBROUTINE proc17(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, abs(7)
  DO v1 = 2, 2
    IF ((-4 * la(8)) .EQ. 8 .OR. (6 / (5 + -4)) .NE. 5) THEN
      g3 = max(g3, g3)
      g1 = la(5)
    ELSE
      f1 = mod(abs(-3), 7)
      f1 = (abs(9) / (3 + g1))
    ENDIF
    DO g3 = 1, 1
      f0 = la(2)
      la(3) = la(7)
    ENDDO
  ENDDO
  g0 = 13
  g2 = max(v1, 7)
  g0 = mod(g3, 5)
  PRINT *, g0
  f0 = 0
  CALL proc18((f0 + 1), 3)
END

SUBROUTINE proc18(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 0
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (mod(6, 4) .EQ. 12 .AND. -3 .LT. (g1 - 15)) THEN
    g3 = v1
    PRINT *, (8 + abs(g0))
  ELSE
    PRINT *, la(9)
  ENDIF
  CALL proc19((0 + (6 + la(11))))
END

SUBROUTINE proc19(f0)
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
  CALL proc20((0 + (g1 / (5 + v0))))
END

SUBROUTINE proc20(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = 11
  CALL proc21(5, (0 + g3))
END

SUBROUTINE proc21(f0, f1)
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
  CALL proc22((0 + g3), v1)
END

SUBROUTINE proc22(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = (abs(3) / (4 + f0))
  g1 = g0
  CALL proc23((0 + -2), v0)
END

SUBROUTINE proc23(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = v0
  PRINT *, max(la(10), 11)
  PRINT *, f0
  g1 = g1
  PRINT *, la(5)
  DO f1 = 0, 2
    IF (.NOT. (g1 .EQ. (la(1) - -4))) THEN
      la(7) = mod(12, 3)
    ENDIF
  ENDDO
  CALL proc24((0 + g0))
END

SUBROUTINE proc24(f0)
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
  CALL proc25(7, (0 + 10))
END

SUBROUTINE proc25(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 14
  v2 = 8
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 2, 5
    g1 = 14
    IF (3 .GE. la(2) .AND. mod(5, 4) .NE. (v3 - la(10))) THEN
      IF (abs(la(12)) .EQ. (f1 / (2 + 10))) f1 = la(3)
      v3 = max(-5, v2)
    ELSE
      f1 = ((la(3) / (6 + v2)) - max(0, la(8)))
    ENDIF
  ENDDO
  IF (.NOT. (mod(la(7), 3) .LE. (2 - 10))) THEN
    PRINT *, abs(max(-5, 10))
    v1 = v0
  ENDIF
  IF (la(6) .EQ. la(1) .OR. max(-1, g1) .GT. 10) THEN
    f1 = abs(g2)
    f1 = ((g1 * f1) - (8 * 11))
  ENDIF
  CALL proc26((f0 + 1))
END

SUBROUTINE proc26(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 7
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = mod((g1 + v2), 2)
  PRINT *, g1
  IF (mod(-4, 3) .LT. 5 .AND. g1 .GT. la(1)) THEN
    IF ((8 - v2) .NE. 14) THEN
      g0 = abs((v2 - 3))
      g0 = (15 / (5 + 13))
    ELSE
      g3 = v0
      la(2) = (g0 + 7)
    ENDIF
  ELSE
    f0 = ((9 - la(1)) * 15)
  ENDIF
  g0 = (la(11) + (la(12) / (6 + la(7))))
  g2 = la(2)
  f0 = v0
  PRINT *, (max(8, 5) / (5 + 10))
  CALL proc27(3, 7)
END

SUBROUTINE proc27(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = g3
  g0 = 14
  la(6) = ((g3 * 5) - la(8))
  f0 = ((la(3) + g1) * 2)
  v0 = abs(15)
  f1 = (abs(la(3)) / (4 + la(10)))
  f0 = 12
  g0 = ((2 - 9) / (3 + la(12)))
  CALL proc28((0 + 7), 6)
END

SUBROUTINE proc28(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (4 .GT. 15 .AND. 14 .LT. la(12)) f0 = max(f0, 3)
  g2 = abs(7)
  IF (.NOT. (12 .LT. la(7))) THEN
    IF (.NOT. (la(7) .GT. 12)) THEN
      f1 = la(12)
    ENDIF
    g3 = v1
  ELSE
    v1 = f0
  ENDIF
  IF (.NOT. (max(-1, 6) .EQ. (v0 + 8))) g2 = (g0 / (4 + -3))
  IF (5 .GT. (11 * -1)) THEN
    v1 = 6
  ELSE
    DO v0 = 3, 5
      la(10) = -1
      IF (.NOT. ((2 / (2 + 3)) .LT. 9)) g0 = max(la(7), la(7))
    ENDDO
    PRINT *, max(9, g2)
  ENDIF
  f0 = ((-3 * la(3)) - mod(-3, 3))
  g0 = (8 + max(-3, 15))
  v2 = (g2 + 10)
  la(5) = mod(-1, 6)
  CALL proc29(3)
END

SUBROUTINE proc29(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 5
  v2 = 9
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(3, 3) .LE. la(11)) v0 = max(-2, v3)
  g2 = max(f0, -2)
  g1 = la(2)
  v2 = (v1 - (g0 / (5 + la(3))))
  g0 = g2
  CALL proc30((f0 + 1))
END

SUBROUTINE proc30(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (13 * la(12))
  IF ((g3 / (5 + -2)) .GT. mod(4, 2) .OR. -5 .GE. (f0 + 6)) g2 = g3
  IF (-4 .GE. (g2 / (5 + la(12)))) THEN
    g3 = mod(12, 6)
    IF ((4 * la(8)) .GT. g2 .OR. (5 * 2) .GE. -4) THEN
      f0 = mod(mod(g1, 6), 4)
      v0 = ((14 * 4) / (5 + -1))
    ENDIF
  ENDIF
  g2 = 8
  g2 = abs((4 + f0))
  g3 = 11
  la(4) = la(2)
  IF (.NOT. (-3 .LT. (la(9) + la(10)))) g2 = max(7, 15)
  CALL proc31((0 + g0), v0)
END

SUBROUTINE proc31(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 4
  v2 = 2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = v0
  CALL proc32((0 + g3), (0 + 0))
END

SUBROUTINE proc32(f0, f1)
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
  CALL proc33((0 + (g1 - 7)))
END

SUBROUTINE proc33(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 0
  v2 = 4
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 1, 1
    PRINT *, -4
    v2 = max(7, 4)
  ENDDO
  IF ((12 - 10) .EQ. mod(v3, 7) .AND. g2 .LE. 13) THEN
    f0 = 0
  ELSE
    IF (max(4, la(8)) .LE. g1 .OR. 8 .GE. 15) THEN
      g0 = 4
    ENDIF
    PRINT *, (max(-5, 9) - la(1))
  ENDIF
  IF (9 .GT. (1 / (4 + 9))) THEN
    v2 = ((15 / (2 + 10)) - -4)
  ENDIF
  DO v0 = 1, 4
    v1 = 8
  ENDDO
  PRINT *, ((5 + g1) * 8)
  CALL proc34(5, v2)
END

SUBROUTINE proc34(f0, f1)
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
  CALL proc35(3, (0 + 9))
END

SUBROUTINE proc35(f0, f1)
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
  CALL proc36(7)
END

SUBROUTINE proc36(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 10
  v2 = 2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = 5
  CALL proc37(3)
END

SUBROUTINE proc37(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 0
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, la(4)
  DO g1 = 3, 6
    DO v2 = 1, 5
      g0 = (1 + abs(la(5)))
      v3 = (max(14, g2) + -5)
    ENDDO
  ENDDO
  IF ((8 + v0) .GE. max(-1, la(6)) .OR. max(12, la(9)) .EQ. 13) THEN
    IF (max(la(11), 1) .LE. mod(g1, 7) .AND. (la(7) + la(4)) .GE. max(la(9), 6)) THEN
      v2 = -4
    ENDIF
  ENDIF
  v2 = v2
  DO v2 = 2, 6
    v1 = g2
  ENDDO
  v2 = g2
  g0 = f0
  IF ((8 / (3 + -3)) .LT. (11 * la(11)) .OR. (-1 * f0) .LT. (la(10) - 0)) THEN
    IF ((g2 + 15) .LE. (5 * -1) .AND. la(8) .EQ. mod(10, 7)) g2 = (-1 / (6 + 12))
    g1 = max(1, 12)
  ENDIF
  IF (.NOT. (la(8) .NE. (14 * la(4)))) THEN
    g0 = la(5)
  ELSE
    PRINT *, 4
    IF ((6 + 0) .LE. mod(la(7), 5)) v0 = mod(12, 5)
  ENDIF
  CALL proc38((0 + abs(3)))
END

SUBROUTINE proc38(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 2
  v2 = -3
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(14, 8)
  g1 = v1
  v2 = ((-4 * 1) * v0)
  PRINT *, 11
  CALL proc39((0 + 2), v2)
END

SUBROUTINE proc39(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 6
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((14 + 0) + (la(1) / (4 + 4)))
  IF ((3 * 10) .LT. max(f1, v2)) THEN
    v2 = (v2 - 4)
    la(9) = abs((10 - f1))
  ELSE
    IF (0 .EQ. (6 * la(11)) .OR. (g1 + v2) .NE. la(2)) g3 = la(4)
    la(12) = ((la(11) * g3) + g0)
  ENDIF
  f0 = 11
  CALL proc40((f0 + 1))
END

SUBROUTINE proc40(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 6
  v2 = 13
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = 7
  IF (v1 .NE. (la(11) + g3)) g1 = 15
  v3 = (v3 + la(3))
  CALL proc41(5)
END

SUBROUTINE proc41(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -2
  v2 = 0
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(2) = 9
  CALL proc42(5, v2)
END

SUBROUTINE proc42(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 14
  v2 = 8
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((6 + g3) .GT. (g1 / (2 + 3)) .AND. g2 .GE. (-5 + f1)) THEN
    g0 = (abs(v2) + la(9))
  ELSE
    g0 = la(11)
    IF (0 .EQ. (g0 + 3) .AND. -5 .GT. 15) THEN
      f0 = mod(abs(-5), 5)
    ELSE
      g0 = abs((la(5) - 2))
    ENDIF
  ENDIF
  IF (1 .LE. abs(-3) .AND. abs(2) .LE. mod(8, 6)) g2 = max(g2, 11)
  DO g2 = 0, 1
    f1 = max(1, 4)
    la(3) = (f0 + g1)
  ENDDO
  v3 = ((6 + la(1)) / (5 + 4))
  IF (la(3) .LT. (la(6) / (3 + 3)) .OR. (v3 / (5 + la(8))) .EQ. (la(8) * g2)) THEN
    IF (7 .GE. la(6) .AND. max(g2, g2) .LT. (0 / (2 + 4))) THEN
      v0 = (14 / (3 + 7))
      la(6) = (-5 * g1)
    ENDIF
    v1 = 2
  ENDIF
  PRINT *, 0
  CALL proc43(3, 3)
END

SUBROUTINE proc43(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 5
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = g2
  CALL proc44(4)
END

SUBROUTINE proc44(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -3
  v2 = 13
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = -3
  la(3) = 2
  IF (la(3) .GT. g0 .AND. g2 .GE. (la(1) - g3)) THEN
    f0 = (14 - f0)
    f0 = (max(la(11), 12) / (5 + g3))
  ELSE
    g1 = abs((6 + la(11)))
  ENDIF
  v3 = (la(5) / (6 + la(8)))
  g3 = la(6)
  v0 = -5
  IF ((-2 + g1) .NE. g3) THEN
    v0 = f0
  ENDIF
  g1 = 6
  la(12) = v0
  CALL proc45(7, v2)
END

SUBROUTINE proc45(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (v1 + la(12))
  IF (7 .NE. mod(11, 8)) g3 = max(-5, f1)
  IF (1 .GT. (11 / (2 + 3))) THEN
    v1 = (4 / (3 + 11))
    PRINT *, max(v1, la(3))
  ENDIF
  CALL proc46(7)
END

SUBROUTINE proc46(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, (abs(v2) - f0)
  v0 = (max(4, la(11)) * g3)
  CALL proc47(6, v1)
END

SUBROUTINE proc47(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = la(6)
  IF (mod(-3, 3) .GE. (v1 - -1)) g0 = max(f1, f0)
  g1 = 12
  v1 = (abs(f0) - (la(10) * 10))
  v0 = max(4, v0)
  v1 = (abs(f0) + (la(1) - g1))
  PRINT *, abs(v0)
  f0 = -2
  v1 = -3
  g0 = f1
  CALL proc48((f0 + 1))
END

SUBROUTINE proc48(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = (f0 + 8)
  f0 = 8
  g3 = 1
  DO f0 = 0, 4
    IF (g0 .EQ. (12 - la(7)) .AND. v0 .GT. abs(la(7))) THEN
      g1 = (-3 / (6 + la(6)))
      g1 = (la(3) - 0)
    ELSE
      IF (-2 .LT. (3 * 2) .OR. 7 .GE. (la(7) / (6 + g1))) g3 = 12
      g3 = mod(mod(0, 5), 2)
    ENDIF
  ENDDO
  g3 = v0
  DO v0 = 2, 3
    g3 = mod(max(v0, g3), 2)
    IF (.NOT. (la(1) .EQ. (-3 - 12))) THEN
      PRINT *, (12 - mod(-1, 7))
      g3 = (v0 / (2 + la(6)))
    ENDIF
  ENDDO
  IF (9 .EQ. (14 * 14) .OR. 9 .EQ. (6 + g1)) g1 = la(11)
  CALL proc49((0 + abs(g1)))
END

SUBROUTINE proc49(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(4) + 10) .EQ. la(11)) THEN
    g2 = 11
  ENDIF
  la(12) = (14 * 7)
  DO g0 = 0, 4
    DO g3 = 1, 5
      v1 = 13
      g2 = la(7)
    ENDDO
  ENDDO
  IF (max(-2, -1) .GT. 15) THEN
    PRINT *, g2
    g3 = mod(abs(la(11)), 8)
  ENDIF
  PRINT *, 2
  CALL proc50((f0 + 1), v1)
END

SUBROUTINE proc50(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO f1 = 0, 2
    g0 = (la(10) / (4 + la(8)))
    g0 = (g2 + mod(7, 3))
  ENDDO
  IF (-5 .LE. 5 .AND. (g3 - la(9)) .LE. (15 * -1)) THEN
    g1 = (12 / (6 + g1))
  ELSE
    IF (11 .GE. max(0, 1)) THEN
      f0 = la(10)
      g0 = mod(la(10), 3)
    ELSE
      g0 = abs(max(f0, 14))
      IF (la(11) .NE. g2 .AND. la(12) .EQ. max(la(8), 3)) f0 = mod(4, 5)
    ENDIF
    DO g1 = 1, 4
      PRINT *, 5
    ENDDO
  ENDIF
  CALL proc51(2, 2)
END

SUBROUTINE proc51(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (v1 .LE. g2 .OR. max(12, 15) .EQ. 12) f1 = mod(3, 2)
  f0 = 4
  IF (mod(la(9), 6) .GE. mod(15, 2)) f0 = abs(0)
  la(10) = 0
  la(3) = (max(5, g3) / (2 + 8))
  CALL proc52(5)
END

SUBROUTINE proc52(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = max(-3, g1)
  IF (-5 .GE. (10 * v1) .OR. max(la(5), g0) .LT. (-2 * 3)) THEN
    g2 = 14
    g0 = v0
  ENDIF
  IF ((g0 - la(7)) .NE. abs(-1) .OR. max(g3, 2) .NE. (la(8) / (5 + 7))) g1 = mod(6, 5)
  IF ((v1 * 9) .GE. 11 .AND. (la(6) / (3 + 12)) .NE. la(4)) g1 = (v0 / (3 + 10))
  DO f0 = 3, 7
    IF (11 .LT. g2 .OR. -1 .GE. max(7, g2)) THEN
      v1 = 6
      IF (.NOT. (0 .LT. abs(g2))) g1 = mod(g1, 5)
    ELSE
      v1 = mod(abs(12), 7)
      v0 = 7
    ENDIF
    g2 = (13 - mod(-5, 6))
  ENDDO
  v1 = max(4, 9)
  CALL proc53(3, 3)
END

SUBROUTINE proc53(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 0
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, g1
  g3 = 15
  IF (.NOT. (f1 .EQ. 6)) v1 = la(1)
  DO v0 = 3, 3
    DO f1 = 2, 6
      la(5) = mod(abs(la(5)), 3)
    ENDDO
    la(6) = la(11)
  ENDDO
  la(1) = (la(11) / (6 + v1))
  f0 = (abs(v2) * 12)
  g3 = mod(f1, 2)
  g3 = g3
  CALL proc54(2)
END

SUBROUTINE proc54(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = -5
  CALL proc55((0 + la(6)))
END

SUBROUTINE proc55(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 11
  v2 = 7
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, mod((g1 - g0), 7)
  f0 = ((la(2) - la(4)) / (6 + la(12)))
  IF (v2 .LE. (la(3) / (2 + la(7))) .AND. (v2 + 9) .LE. (la(12) / (5 + 4))) THEN
    v3 = (la(3) + mod(la(6), 6))
  ELSE
    DO v2 = 2, 2
      g0 = v2
      g1 = 10
    ENDDO
    v0 = (4 + (la(6) - 12))
  ENDIF
  v3 = abs(-1)
  IF ((0 - -3) .GE. mod(15, 6)) THEN
    g3 = (g2 + v3)
  ELSE
    PRINT *, (g3 + 5)
    PRINT *, abs((14 * 12))
  ENDIF
  v2 = v3
  IF (mod(la(11), 6) .EQ. (6 + v3) .OR. mod(v0, 4) .LT. max(12, g1)) v2 = 14
  v1 = 3
  v2 = g2
  CALL proc56(3)
END

SUBROUTINE proc56(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g3 = 0, 4
    g2 = ((la(6) * 3) * la(9))
    g0 = 0
  ENDDO
  g3 = (mod(-5, 6) * 13)
  v1 = mod((g2 * 10), 7)
  CALL proc57((0 + (v1 * 5)), f0)
END

SUBROUTINE proc57(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -1
  v2 = 9
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = max(g1, la(9))
  g1 = g0
  f1 = (g1 + g1)
  PRINT *, -2
  v0 = -4
  g1 = la(12)
  PRINT *, mod(-2, 4)
  CALL proc58((f0 + 1))
END

SUBROUTINE proc58(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 0
  v2 = 14
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (mod(6, 5) .GE. g2)) THEN
    v1 = (max(la(8), v2) - (la(4) + 7))
    v2 = v0
  ELSE
    v2 = abs((v3 + -5))
  ENDIF
  la(6) = abs(g3)
  g0 = (max(8, 1) + max(g0, -3))
  g0 = v1
  DO f0 = 3, 6
    la(6) = 6
  ENDDO
  PRINT *, ((v1 * -1) / (2 + 6))
  g0 = 1
  CALL proc59((f0 + 1))
END

SUBROUTINE proc59(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((la(5) + 2) .GE. la(4) .OR. mod(g2, 6) .NE. 9) THEN
    PRINT *, 11
  ENDIF
  IF (10 .LE. 10) THEN
    v1 = (v1 + 7)
    DO g0 = 2, 5
      v1 = (g3 * la(8))
      IF (la(10) .LT. (la(8) / (5 + v0))) v0 = mod(14, 6)
    ENDDO
  ELSE
    g3 = v0
  ENDIF
  g1 = (-3 - abs(la(8)))
  CALL proc60((0 + 10), 8)
END

SUBROUTINE proc60(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 2
  v2 = 13
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (la(10) / (6 + 1))
  DO g0 = 3, 6
    v2 = la(2)
  ENDDO
  g1 = (7 - (-4 + 12))
  v3 = v0
  IF (.NOT. (la(9) .LE. 11)) v0 = la(3)
  f1 = (abs(-4) + v3)
  IF (.NOT. (12 .NE. (5 / (6 + g1)))) v2 = abs(4)
  la(3) = max(v1, f1)
  CALL proc61(5, f0)
END

SUBROUTINE proc61(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 12
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(10) = abs(f1)
  CALL proc62((0 + abs(v1)), v1)
END

SUBROUTINE proc62(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = max(5, 3)
  IF ((g0 - la(4)) .LE. mod(la(7), 8) .OR. 11 .LT. -3) g0 = abs(11)
  CALL proc63(5)
END

SUBROUTINE proc63(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(6) = v1
  g0 = (f0 + 2)
  IF (.NOT. (mod(15, 8) .GE. (g0 + -2))) g2 = abs(-5)
  PRINT *, abs(la(11))
  v0 = ((1 * g1) + mod(2, 4))
  DO g0 = 2, 5
    DO v0 = 0, 2
      g3 = (la(7) + abs(g3))
    ENDDO
  ENDDO
  DO g0 = 0, 0
    IF ((v0 - la(12)) .LT. mod(13, 2) .OR. la(10) .GE. abs(la(1))) THEN
      g1 = mod(la(3), 7)
    ELSE
      g3 = la(2)
    ENDIF
    la(4) = mod(mod(g0, 2), 2)
  ENDDO
  CALL proc64(6, f0)
END

SUBROUTINE proc64(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = (mod(g3, 5) + la(11))
  g3 = la(8)
  CALL proc65(2)
END

SUBROUTINE proc65(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -1
  v2 = 8
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = -2
  CALL proc66((f0 + 1))
END

SUBROUTINE proc66(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = abs(11)
  CALL proc67(4, -2)
END

SUBROUTINE proc67(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((f0 + g3) .EQ. abs(g2) .AND. (f0 + 0) .EQ. max(la(9), 4)) g1 = (2 + -4)
  IF (.NOT. (mod(-1, 4) .LE. mod(v0, 7))) f0 = (15 / (6 + 15))
  v1 = mod(abs(la(7)), 6)
  g0 = ((v2 + g2) / (3 + g0))
  IF (.NOT. (abs(v1) .LE. (-3 * g1))) THEN
    DO v0 = 0, 1
      IF (la(3) .EQ. 13 .OR. 9 .LE. 10) g3 = (g3 * la(9))
      v1 = -5
    ENDDO
    v2 = 9
  ENDIF
  la(5) = la(4)
  g2 = ((v0 / (3 + la(3))) * 15)
  g0 = la(7)
  v2 = -3
  CALL proc68(4, v0)
END

SUBROUTINE proc68(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (7 .GE. 1 .OR. (f1 - g0) .NE. 8) f1 = 1
  v2 = max(v0, 13)
  IF (la(8) .NE. (la(10) - v0)) g3 = (la(12) / (3 + v1))
  PRINT *, (10 * 6)
  v0 = 15
  DO g3 = 2, 6
    la(5) = la(1)
  ENDDO
  la(7) = (mod(la(12), 8) / (6 + 8))
  CALL proc69(3, 1)
END

SUBROUTINE proc69(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = mod(max(11, 4), 3)
  f0 = abs(g3)
  g0 = abs(1)
  f0 = abs((la(1) + 13))
  la(10) = (f0 - la(4))
  IF (.NOT. ((-3 + -1) .GE. (g3 - 2))) THEN
    IF ((10 - v1) .LE. mod(14, 7) .AND. (-3 + la(12)) .GE. (-2 + la(5))) THEN
      v1 = max(9, 4)
      la(5) = mod(7, 5)
    ELSE
      f0 = (1 * 2)
      f0 = max(f0, la(3))
    ENDIF
    f0 = ((6 * 5) * -2)
  ENDIF
  g1 = g2
  v1 = 8
  CALL proc70((0 + (f1 * 15)))
END

SUBROUTINE proc70(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 11
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (abs(10) .EQ. 10) THEN
    IF (la(12) .LE. 3 .OR. (11 + 15) .LT. (g1 + v2)) THEN
      g3 = la(7)
    ENDIF
    IF (abs(la(11)) .GE. (v1 - g0) .OR. mod(la(5), 5) .EQ. (v3 + g3)) THEN
      v2 = 6
      g3 = v3
    ENDIF
  ELSE
    g2 = (la(10) * f0)
  ENDIF
  CALL proc71(3)
END

SUBROUTINE proc71(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 1
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v0 = 0, 2
    IF (.NOT. (-2 .EQ. 13)) g0 = mod(-3, 3)
    g0 = ((f0 / (3 + g0)) * -2)
  ENDDO
  DO g0 = 3, 3
    IF ((5 / (6 + 10)) .GE. abs(v2) .AND. 7 .EQ. mod(la(12), 8)) THEN
      g1 = max(13, 10)
    ELSE
      v0 = (abs(7) / (2 + 5))
      g2 = -5
    ENDIF
  ENDDO
  g1 = max(2, la(11))
  v2 = max(la(12), v0)
  v0 = ((f0 / (3 + -4)) + -4)
  DO v0 = 0, 0
    g3 = 7
    g3 = 14
  ENDDO
  CALL proc72((0 + (la(10) / (3 + 2))))
END

SUBROUTINE proc72(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (max(2, la(6)) .EQ. abs(la(10))) g2 = abs(v1)
  CALL proc73(7)
END

SUBROUTINE proc73(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (5 .GT. v2) THEN
    IF ((v2 - 9) .GT. mod(-4, 7) .OR. (v1 + 0) .GT. la(10)) THEN
      g0 = 12
      g0 = (max(la(10), 4) / (3 + la(9)))
    ELSE
      g0 = (8 * la(12))
      v1 = (2 + 1)
    ENDIF
    la(3) = max(3, -5)
  ELSE
    DO g2 = 1, 1
      g0 = max(g0, 14)
    ENDDO
    g1 = max(10, la(5))
  ENDIF
  CALL proc74((f0 + 1))
END

SUBROUTINE proc74(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 14
  v2 = 11
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = la(5)
  f0 = la(12)
  PRINT *, -3
  v3 = la(8)
  IF (v2 .LE. -5) THEN
    v1 = v2
    IF ((la(8) - 7) .LT. 15) THEN
      g0 = 10
    ELSE
      v1 = (f0 - la(7))
    ENDIF
  ENDIF
  IF (0 .GE. (la(2) / (3 + -5)) .OR. 10 .GE. (g0 * 5)) v0 = mod(g0, 6)
  CALL proc75(7, v1)
END

SUBROUTINE proc75(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = max(la(2), 12)
  g3 = (mod(5, 7) * 15)
  v1 = -5
  f0 = 9
  f1 = ((14 - la(1)) * la(9))
  CALL proc76(5, (0 + max(f0, 15)))
END

SUBROUTINE proc76(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = -4
  f0 = la(12)
  PRINT *, 2
  la(1) = 2
  CALL proc77(7, v0)
END

SUBROUTINE proc77(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = 7
  g3 = la(7)
  PRINT *, la(3)
  PRINT *, la(4)
  CALL proc78(4, 10)
END

SUBROUTINE proc78(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 7
  v2 = 5
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(10)
  v2 = la(4)
  CALL proc79((0 + max(g1, g3)))
END

SUBROUTINE proc79(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(la(9), 8) .NE. la(11) .AND. (6 - la(1)) .GT. -2) v1 = (6 * la(12))
  IF (max(-5, 12) .GE. abs(la(1)) .OR. 12 .LT. la(9)) g1 = la(5)
  IF (.NOT. (g0 .LT. 1)) g3 = 0
  v1 = la(9)
  g3 = 6
  CALL proc80(7, f0)
END

SUBROUTINE proc80(f0, f1)
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
  IF (la(5) .LT. 1) g3 = max(8, 8)
  PRINT *, 1
  f1 = (7 / (5 + la(2)))
  g2 = (5 * 14)
  IF (v2 .LE. -3 .OR. 12 .EQ. (v1 * f1)) THEN
    PRINT *, 10
    v3 = mod(4, 8)
  ENDIF
  IF (.NOT. (-1 .EQ. la(3))) THEN
    la(2) = abs(max(5, la(6)))
    v2 = mod(la(12), 7)
  ELSE
    v1 = abs(abs(la(2)))
    PRINT *, la(4)
  ENDIF
  CALL proc81(3, (0 + 0))
END

SUBROUTINE proc81(f0, f1)
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
  CALL proc82(3)
END

SUBROUTINE proc82(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 3
  v2 = 5
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(3) = (abs(-4) / (6 + la(5)))
  f0 = ((g1 / (4 + v2)) + 15)
  g2 = abs(3)
  IF (.NOT. ((5 - f0) .LT. mod(g1, 6))) THEN
    la(8) = 10
    v1 = max(0, g2)
  ENDIF
  v3 = la(5)
  DO v2 = 1, 3
    DO g2 = 3, 7
      g1 = abs(la(12))
      g3 = f0
    ENDDO
    IF (10 .NE. (6 + v0) .OR. 4 .GE. (5 - la(6))) g1 = v2
  ENDDO
  CALL proc83((f0 + 1))
END

SUBROUTINE proc83(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = 4
  g1 = abs(la(5))
  f0 = v0
  CALL proc84((f0 + 1))
END

SUBROUTINE proc84(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 1
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = ((7 * 4) - la(11))
  la(9) = v3
  CALL proc85((0 + -2))
END

SUBROUTINE proc85(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(3, g3)
  g1 = mod(8, 6)
  g2 = 5
  v1 = (max(1, la(11)) * 7)
  CALL proc86(6)
END

SUBROUTINE proc86(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -3
  v2 = -3
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = 7
  DO g1 = 3, 3
    v1 = abs(g0)
    la(5) = (v2 + (g3 + -1))
  ENDDO
  g0 = -3
  v2 = 9
  IF ((6 - -2) .GE. (8 / (2 + 10)) .AND. la(2) .EQ. v1) THEN
    IF (abs(1) .GE. la(8) .OR. (10 * 1) .GE. (11 / (5 + g0))) g2 = (11 + la(1))
    v3 = abs(6)
  ENDIF
  la(12) = max(15, 12)
  PRINT *, 14
  DO g1 = 1, 4
    v1 = ((0 - 7) + abs(14))
    la(12) = ((g0 * la(11)) + v0)
  ENDDO
  CALL proc87((0 + 2))
END

SUBROUTINE proc87(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = (mod(4, 5) / (3 + 8))
  IF (11 .EQ. (g2 * 8) .AND. (g1 / (3 + 14)) .GE. (-2 * la(10))) THEN
    v1 = la(8)
    v3 = g1
  ELSE
    v3 = la(2)
  ENDIF
  v0 = ((10 * 13) + (la(12) + la(3)))
  la(7) = (g2 - (la(4) * 15))
  CALL proc88(4, f0)
END

SUBROUTINE proc88(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (la(1) .LT. mod(f0, 4) .AND. f1 .GT. abs(la(11))) THEN
    g1 = (max(9, -3) / (3 + g1))
  ENDIF
  g0 = (max(1, 9) - f1)
  g1 = la(8)
  PRINT *, mod(max(g3, 9), 5)
  PRINT *, mod(abs(8), 6)
  g1 = max(g0, -1)
  g0 = 6
  PRINT *, -3
  IF (max(la(11), la(9)) .GE. (f1 / (3 + g0)) .AND. la(2) .GE. g0) THEN
    g3 = max(-2, 13)
    IF ((4 * 6) .LE. v1) v0 = 7
  ENDIF
  IF (g1 .NE. la(5)) g2 = g2
  CALL proc89((0 + g0))
END

SUBROUTINE proc89(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = max(13, 14)
  CALL proc90(4)
END

SUBROUTINE proc90(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(10) = 3
  CALL proc91((f0 + 1))
END

SUBROUTINE proc91(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = 2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = max(-3, 10)
  v1 = abs(la(10))
  v1 = v0
  CALL proc92((f0 + 1), v3)
END

SUBROUTINE proc92(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = f0
  la(1) = max(la(1), 11)
  IF (.NOT. ((11 - 13) .EQ. la(3))) v1 = mod(la(11), 3)
  CALL proc93(6)
END

SUBROUTINE proc93(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 7
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = ((9 / (3 + g1)) - max(la(1), 2))
  IF (14 .EQ. v0) v1 = (g0 / (6 + 5))
  la(9) = (la(4) + la(9))
  v2 = la(12)
  v0 = ((7 / (2 + 5)) + mod(v0, 3))
  v1 = mod(la(12), 2)
  la(5) = mod(mod(la(4), 4), 6)
  PRINT *, (mod(la(5), 5) + 2)
  PRINT *, mod(-2, 3)
  IF (max(6, -4) .EQ. (g2 + v1)) THEN
    v0 = (v1 / (6 + 3))
    PRINT *, abs((la(3) / (5 + g1)))
  ENDIF
  CALL proc94((0 + (4 - g0)), 7)
END

SUBROUTINE proc94(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -2
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (mod(-4, 7) .GT. mod(-2, 5))) THEN
    PRINT *, la(7)
    IF (la(6) .LE. g1 .OR. f0 .EQ. la(10)) g2 = g3
  ELSE
    DO v0 = 1, 5
      la(6) = la(5)
      PRINT *, -4
    ENDDO
  ENDIF
  IF ((f1 - g2) .GE. 5 .AND. (la(7) / (6 + 10)) .EQ. abs(8)) THEN
    la(6) = mod((g1 - la(1)), 2)
  ELSE
    PRINT *, 14
  ENDIF
  la(6) = max(2, -2)
  g2 = 1
  g3 = (mod(12, 2) - (la(7) - 13))
  IF (.NOT. (v2 .EQ. 9)) v0 = abs(6)
  v1 = v1
  f1 = mod((6 * 5), 8)
  PRINT *, g2
  v2 = la(5)
  CALL proc95(4, f1)
END

SUBROUTINE proc95(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -4
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = 8
  la(7) = 4
  la(3) = (v0 + v2)
  v1 = mod(mod(-1, 6), 4)
  g1 = 11
  IF ((g2 * 8) .LE. mod(3, 7) .OR. 8 .NE. la(7)) v0 = (4 + v0)
  g3 = ((la(6) + -5) - v0)
  IF ((15 / (5 + v0)) .GT. abs(0) .AND. g3 .GT. (11 * g2)) v2 = max(g2, 11)
  CALL proc96((f0 + 1))
END

SUBROUTINE proc96(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 5
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, v0
  DO g0 = 3, 5
    IF (.NOT. (la(5) .GE. la(8))) THEN
      v1 = (mod(14, 5) + v1)
      g2 = (1 * la(4))
    ENDIF
    v2 = 5
  ENDDO
  g1 = mod(la(10), 7)
  IF (.NOT. (v0 .NE. 7)) v1 = max(f0, -4)
  g0 = la(8)
  la(11) = 8
  v1 = (mod(-2, 8) / (3 + -5))
  CALL proc97(7, (0 + -1))
END

SUBROUTINE proc97(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 7
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = g0
  CALL proc98((0 + 0))
END

SUBROUTINE proc98(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 13
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = mod(13, 4)
  f0 = 9
  v1 = la(11)
  DO f0 = 0, 1
    IF (la(7) .EQ. (f0 + 2) .AND. la(6) .NE. g2) v1 = (v1 / (5 + la(10)))
    PRINT *, max(8, la(2))
  ENDDO
  g1 = (la(5) * 15)
  la(8) = la(9)
  IF (abs(la(3)) .EQ. -4 .AND. (-1 - g1) .LT. la(8)) v2 = v0
  v2 = -2
  g3 = (4 * v1)
  f0 = la(10)
  CALL proc99((0 + 9), -2)
END

SUBROUTINE proc99(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = -3
  la(7) = g1
  DO f1 = 3, 5
    f0 = ((la(5) - -5) + la(11))
  ENDDO
  v1 = la(12)
  IF ((f0 / (6 + 7)) .NE. (g1 / (3 + la(11))) .AND. max(14, -2) .GT. max(f0, la(10))) THEN
    IF (.NOT. ((-3 * g2) .EQ. (la(12) * 11))) f1 = (9 + la(9))
    IF (13 .NE. (-3 - g1) .OR. 11 .LE. 2) f0 = v0
  ENDIF
  f0 = ((la(7) - g2) * 5)
  la(3) = abs((la(3) + -2))
  f0 = mod((f1 / (2 + la(5))), 8)
  IF (mod(g2, 2) .GT. 6) g2 = 0
  PRINT *, la(6)
  CALL proc100((f0 + 1), f0)
END

SUBROUTINE proc100(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 2
  g3 = la(10)
  f0 = mod((10 / (2 + 0)), 3)
  PRINT *, abs(abs(-2))
  g3 = 5
  IF ((la(2) - 14) .LT. (la(2) - g2) .AND. (g3 + -2) .LT. (1 - 15)) THEN
    f0 = ((f0 * la(7)) + (la(2) * la(1)))
    f0 = -3
  ELSE
    g3 = v0
    f0 = (la(6) * 3)
  ENDIF
  DO g3 = 1, 4
    la(12) = v0
  ENDDO
  v0 = (4 * 10)
  g2 = (la(10) + (-4 * -3))
  IF (.NOT. (la(8) .LT. (4 / (2 + g1)))) THEN
    PRINT *, mod(max(1, 3), 7)
    IF ((0 / (2 + g2)) .NE. (la(8) + 14) .OR. max(-1, v0) .LT. -4) f1 = (5 / (5 + 3))
  ELSE
    g0 = 15
    g3 = max(la(7), v0)
  ENDIF
  CALL proc101(5, (0 + f0))
END

SUBROUTINE proc101(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = 14
  IF ((4 / (6 + 4)) .GT. la(8) .OR. f1 .GE. abs(la(9))) THEN
    g0 = max(la(5), la(12))
    PRINT *, abs(mod(12, 5))
  ENDIF
  PRINT *, (11 - (7 / (5 + la(8))))
  IF ((la(5) / (3 + la(2))) .LE. mod(la(8), 3)) THEN
    IF (g1 .LE. (g1 * la(12))) f0 = la(9)
    f1 = 4
  ELSE
    IF (g2 .GT. abs(v1) .OR. (10 - la(6)) .LT. abs(la(3))) g2 = (-2 / (2 + g1))
  ENDIF
  IF (v0 .LE. 5 .AND. abs(-1) .LT. (v0 + 4)) THEN
    DO v0 = 3, 3
      g2 = 3
    ENDDO
    DO g2 = 2, 2
      la(2) = mod(v1, 8)
      IF (15 .LT. -5 .AND. (la(9) + 0) .GE. (0 / (5 + 6))) g1 = (-5 * -5)
    ENDDO
  ENDIF
  la(5) = -3
  v0 = -4
  f1 = 2
  CALL proc102(6, v1)
END

SUBROUTINE proc102(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -1
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = g3
  DO v2 = 2, 6
    f1 = ((14 - 6) - 9)
    IF (abs(g1) .NE. abs(la(4)) .OR. max(la(8), 7) .EQ. 0) g2 = (g3 - 11)
  ENDDO
  v2 = (abs(13) - (la(11) * -1))
  v2 = la(3)
  CALL proc103(5, v0)
END

SUBROUTINE proc103(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -4
  v2 = 9
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g0 = 3, 6
    DO f0 = 0, 2
      f1 = (la(12) / (3 + 5))
      g2 = 3
    ENDDO
    f0 = max(la(5), v0)
  ENDDO
  v2 = la(12)
  PRINT *, abs((-4 - 4))
  v2 = (7 * f0)
  v2 = abs(g0)
  la(5) = (2 * 10)
  g3 = 15
  CALL proc104((0 + la(12)), v3)
END

SUBROUTINE proc104(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((6 + 5) .GT. 13 .AND. 3 .GT. 9) THEN
    IF ((12 - 7) .EQ. 0 .OR. mod(g0, 2) .GT. la(9)) g0 = 8
    f0 = max(1, la(10))
  ENDIF
  DO g1 = 2, 5
    g2 = (13 * 1)
  ENDDO
  CALL proc105(7, v1)
END

SUBROUTINE proc105(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -3
  v2 = 14
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((-5 / (2 + g3)) .GE. (g2 / (4 + 7))) f1 = (la(9) * 11)
  IF (1 .LE. abs(10)) v1 = (la(5) - -2)
  f0 = mod((7 - 2), 6)
  la(11) = v0
  DO g1 = 2, 2
    v2 = mod(12, 7)
  ENDDO
  CALL proc106(5, 2)
END

SUBROUTINE proc106(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -4
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, la(12)
  g3 = abs((12 * 11))
  IF (.NOT. (mod(v0, 8) .GE. 5)) g3 = -3
  PRINT *, ((-4 + 11) / (6 + -3))
  v0 = la(12)
  g0 = f1
  CALL proc107((f0 + 1), v2)
END

SUBROUTINE proc107(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (-4 + -1)
  IF (.NOT. (-3 .LT. abs(la(8)))) v2 = f0
  DO v1 = 2, 4
    IF (g0 .LE. g3) f0 = la(4)
  ENDDO
  la(8) = (g3 / (6 + la(9)))
  IF (.NOT. (v0 .GE. v2)) THEN
    IF (g2 .NE. (5 / (3 + la(5)))) g0 = (la(8) * -5)
    la(12) = la(6)
  ELSE
    la(6) = 7
    v1 = 12
  ENDIF
  g2 = max(-5, la(1))
  CALL proc108((0 + -1))
END

SUBROUTINE proc108(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = ((3 * 13) / (6 + la(3)))
  f0 = (max(8, g3) - -4)
  f0 = (0 - la(9))
  g0 = (g1 - -1)
  g1 = max(la(11), 2)
  v1 = mod((la(2) - la(5)), 3)
  g2 = -1
  IF (.NOT. (9 .LE. (g2 + -3))) g2 = (v0 / (5 + -4))
  CALL proc109(7, f0)
END

SUBROUTINE proc109(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 4
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = -1
  CALL proc110((f0 + 1), f0)
END

SUBROUTINE proc110(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, max(14, -5)
  f1 = 6
  la(10) = g0
  IF (.NOT. ((la(8) * g1) .LE. (13 * 11))) THEN
    g3 = max(-2, la(6))
  ELSE
    IF (v2 .LE. la(3) .OR. (la(9) / (5 + f1)) .GE. 4) f1 = mod(la(9), 7)
  ENDIF
  PRINT *, ((11 - la(6)) * 13)
  CALL proc111((f0 + 1))
END

SUBROUTINE proc111(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 12
  v2 = 9
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (g1 .GT. (10 / (5 + 2)) .OR. abs(g2) .GE. (la(2) / (4 + 11))) THEN
    g0 = (abs(-5) - 12)
  ENDIF
  g0 = abs(la(8))
  DO f0 = 1, 4
    DO v3 = 0, 2
      v2 = ((la(7) * 14) - abs(la(4)))
      g2 = la(1)
    ENDDO
    PRINT *, g3
  ENDDO
  DO g0 = 1, 1
    DO v0 = 1, 3
      PRINT *, g0
    ENDDO
  ENDDO
  v1 = mod(13, 2)
  CALL proc112(6, (0 + (la(9) + v1)))
END

SUBROUTINE proc112(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 13
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (mod(la(12), 7) + max(2, 6))
  DO f0 = 3, 3
    la(10) = -4
  ENDDO
  v2 = la(9)
  g0 = (0 / (2 + 11))
  g2 = la(12)
  IF (.NOT. (4 .NE. (f1 + la(6)))) THEN
    g0 = -2
  ELSE
    IF (max(9, v2) .GE. 10 .OR. abs(-1) .GT. (-5 * 2)) g2 = mod(11, 2)
    g1 = 11
  ENDIF
  PRINT *, 1
  IF ((g3 / (5 + g2)) .NE. max(la(11), -3)) THEN
    IF (.NOT. (0 .LT. (13 + v0))) THEN
      IF (.NOT. ((la(2) - g0) .LT. la(3))) f0 = (f1 * 7)
      g1 = (v2 / (5 + la(10)))
    ELSE
      IF (.NOT. (abs(6) .GE. -3)) v2 = -5
      f0 = ((-1 + 7) / (4 + -4))
    ENDIF
  ELSE
    g1 = -5
  ENDIF
  la(10) = max(la(7), 12)
  v2 = 1
  CALL proc113(4)
END

SUBROUTINE proc113(f0)
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
  CALL proc114((0 + (-4 + -5)))
END

SUBROUTINE proc114(f0)
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
  CALL proc115(7)
END

SUBROUTINE proc115(f0)
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
  CALL proc116(3, 11)
END

SUBROUTINE proc116(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v1 = 0, 2
    IF (-4 .EQ. 3 .OR. (0 * g0) .EQ. (f1 + g3)) g2 = -5
  ENDDO
  f0 = la(8)
  PRINT *, (-4 * g1)
  DO g1 = 2, 2
    g0 = la(5)
  ENDDO
  IF (la(7) .GE. g3 .OR. (f1 - -5) .LT. la(9)) f0 = g1
  g0 = (9 + g1)
  v1 = (la(7) / (4 + 1))
  PRINT *, 12
  PRINT *, la(10)
  CALL proc117((f0 + 1), f1)
END

SUBROUTINE proc117(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 6
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (7 .EQ. 4)) THEN
    IF (g3 .LE. 13 .AND. 12 .NE. (2 - 4)) THEN
      g3 = (la(1) * g3)
      v3 = 3
    ENDIF
  ENDIF
  CALL proc118((0 + la(7)))
END

SUBROUTINE proc118(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = 5
  IF ((la(8) - la(11)) .EQ. la(8)) THEN
    g0 = mod(mod(la(6), 8), 4)
  ELSE
    PRINT *, abs(10)
    f0 = 2
  ENDIF
  f0 = -4
  f0 = (4 + la(1))
  g2 = (-5 / (4 + 2))
  PRINT *, max(-3, 14)
  v0 = (abs(v0) + mod(13, 2))
  CALL proc119(7, (0 + (10 + 9)))
END

SUBROUTINE proc119(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 7
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = max(v0, 0)
  CALL proc120(5, v0)
END

SUBROUTINE proc120(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = 13
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = (12 * 15)
  v0 = max(la(3), la(8))
  g1 = ((4 / (6 + 15)) * 9)
  f0 = 11
  CALL proc121((0 + (12 / (5 + la(9)))))
END

SUBROUTINE proc121(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = (la(6) + g3)
  g1 = max(-4, -3)
  DO g1 = 0, 4
    IF (.NOT. ((10 * 10) .EQ. -2)) THEN
      v0 = 5
    ELSE
      f0 = la(10)
    ENDIF
  ENDDO
  g1 = abs((-2 / (4 + la(12))))
  v1 = ((g1 / (2 + g1)) + max(la(3), 4))
  IF ((g1 - 6) .GT. g2 .OR. (la(4) - 14) .GT. (la(4) / (6 + la(5)))) f0 = 7
  CALL proc122((0 + mod(5, 3)), v0)
END

SUBROUTINE proc122(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = -1
  IF (.NOT. ((g0 * 11) .NE. -3)) THEN
    IF (-3 .EQ. f1) g3 = mod(4, 6)
  ENDIF
  IF (la(6) .GE. v2 .AND. la(2) .LT. (8 / (4 + 8))) THEN
    IF (.NOT. (la(12) .GT. abs(-2))) g3 = abs(3)
  ELSE
    la(11) = ((v1 * 13) + max(-5, la(10)))
    f1 = ((3 * -3) + (1 * f0))
  ENDIF
  DO v0 = 0, 2
    IF (la(3) .EQ. 15 .OR. 5 .EQ. max(f1, 5)) f0 = 15
    f0 = (-1 + 15)
  ENDDO
  v1 = 13
  PRINT *, 10
  f0 = 2
  IF (abs(g1) .LE. -5 .AND. (g1 * la(9)) .NE. (3 * v1)) g1 = (12 * la(6))
  g3 = max(g2, -5)
  CALL proc123(6)
END

SUBROUTINE proc123(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = -4
  v0 = g0
  g1 = (mod(13, 3) / (4 + 12))
  CALL proc124((f0 + 1), f0)
END

SUBROUTINE proc124(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 14
  v2 = 4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = -1
  la(7) = -4
  la(6) = g1
  f1 = la(4)
  DO g1 = 3, 5
    PRINT *, (mod(-2, 8) / (3 + 3))
    f1 = (max(v1, la(7)) - v0)
  ENDDO
  CALL proc125((0 + abs(-4)))
END

SUBROUTINE proc125(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -3
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = la(3)
  v0 = -5
  g2 = g2
  DO g2 = 1, 2
    g0 = (abs(g3) * -4)
  ENDDO
  g1 = abs(4)
  v3 = g1
  PRINT *, (10 * 3)
  DO v3 = 3, 7
    PRINT *, 5
    IF (v1 .NE. g3 .OR. max(9, la(4)) .LE. 12) v2 = (g0 / (3 + 2))
  ENDDO
  PRINT *, g3
  CALL proc126((f0 + 1))
END

SUBROUTINE proc126(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -3
  v2 = 11
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(8) = g3
  CALL proc127(6)
END

SUBROUTINE proc127(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 5
  PRINT *, la(2)
  DO g0 = 3, 3
    f0 = ((-3 - 0) * la(8))
  ENDDO
  CALL proc128((0 + mod(5, 4)))
END

SUBROUTINE proc128(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v1 = 2, 4
    g0 = abs(abs(la(7)))
  ENDDO
  DO g2 = 1, 5
    PRINT *, (abs(v1) / (2 + g2))
  ENDDO
  v0 = abs(-2)
  v1 = ((la(8) - -5) + (v0 * v0))
  la(12) = la(9)
  f0 = -2
  g0 = abs(g1)
  g2 = (abs(1) + abs(v1))
  g1 = max(f0, 0)
  g2 = -2
  CALL proc129((f0 + 1), (0 + 0))
END

SUBROUTINE proc129(f0, f1)
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
  CALL proc130(3, f0)
END

SUBROUTINE proc130(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 8
  v2 = 5
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = mod((-5 - la(4)), 8)
  IF (.NOT. (9 .LT. g2)) THEN
    DO g3 = 1, 3
      g0 = max(v2, la(7))
      la(6) = la(5)
    ENDDO
  ELSE
    v3 = (max(la(4), -5) / (5 + g3))
  ENDIF
  PRINT *, (la(12) + (-3 / (6 + la(9))))
  IF (.NOT. (la(2) .GE. 7)) g0 = (la(4) * f0)
  la(11) = -3
  IF (.NOT. (abs(la(7)) .GE. max(1, la(5)))) v2 = max(-1, g1)
  CALL proc131((0 + g0))
END

SUBROUTINE proc131(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 10
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = g0
  v0 = (la(5) + f0)
  PRINT *, -2
  IF (g3 .EQ. (-4 / (4 + 9)) .AND. 13 .EQ. 13) THEN
    DO v1 = 1, 5
      v0 = g1
    ENDDO
  ENDIF
  IF ((10 * 3) .LT. abs(-4) .OR. 14 .NE. mod(13, 8)) g3 = max(la(1), -5)
  IF (la(10) .LT. la(3)) THEN
    g1 = mod(3, 8)
  ENDIF
  v1 = abs(-2)
  g3 = (la(3) + 7)
  g0 = (la(10) * la(10))
  g1 = la(9)
  CALL proc132((0 + v1))
END

SUBROUTINE proc132(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (9 .LT. abs(11)) g3 = abs(14)
  IF (.NOT. (la(11) .GE. max(-5, 6))) f0 = (la(3) - la(1))
  PRINT *, (v1 / (3 + la(3)))
  DO g0 = 3, 7
    PRINT *, ((4 / (2 + v1)) - v0)
    v0 = v0
  ENDDO
  PRINT *, 5
  g2 = mod(abs(-3), 3)
  g0 = abs(g3)
  IF (.NOT. (15 .LE. 13)) g1 = -4
  DO g3 = 3, 6
    g1 = 14
    v0 = la(3)
  ENDDO
  CALL proc133((f0 + 1))
END

SUBROUTINE proc133(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 14
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = ((g2 / (6 + la(12))) - -3)
  g3 = (la(8) + (0 * 15))
  f0 = max(0, v0)
  DO v0 = 3, 5
    PRINT *, v2
    g1 = abs((13 - v2))
  ENDDO
  la(8) = 1
  IF (3 .NE. max(la(8), la(5)) .OR. (g2 + 9) .GT. v1) THEN
    IF ((10 + v0) .LE. 5 .OR. g0 .LT. max(la(8), 4)) THEN
      f0 = 5
      PRINT *, 14
    ELSE
      g0 = abs((f0 - la(6)))
      la(12) = 5
    ENDIF
  ENDIF
  v2 = (13 - v0)
  IF (8 .NE. 3) g2 = max(-5, la(1))
  DO g1 = 3, 5
    IF (max(-1, g0) .GT. (0 - 0) .OR. f0 .NE. (v2 + 9)) f0 = 11
  ENDDO
  CALL proc134(2, v0)
END

SUBROUTINE proc134(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(1)
  IF (.NOT. ((g0 - 1) .EQ. v1)) g0 = la(10)
  DO f1 = 2, 3
    la(4) = 0
    v0 = la(2)
  ENDDO
  PRINT *, abs(la(9))
  g2 = -2
  f0 = 8
  f0 = 7
  CALL proc135(3)
END

SUBROUTINE proc135(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((4 * 2) .NE. -5)) THEN
    IF ((la(2) - g2) .GT. 3) THEN
      g2 = (abs(g2) + max(la(11), g3))
    ELSE
      IF (14 .GT. 2 .OR. (g2 / (5 + 13)) .GE. (v1 * la(4))) v0 = g2
    ENDIF
    f0 = la(3)
  ELSE
    v0 = ((2 * 8) * 0)
  ENDIF
  v2 = 4
  CALL proc136((f0 + 1), (0 + mod(la(2), 5)))
END

SUBROUTINE proc136(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (mod(la(11), 5) .LT. f1) THEN
    PRINT *, 15
  ELSE
    IF (-4 .LE. max(-2, -2) .OR. 7 .LE. mod(la(9), 6)) THEN
      PRINT *, -3
      v1 = (-1 + la(4))
    ELSE
      v1 = ((la(4) + la(6)) / (5 + la(4)))
    ENDIF
    DO g3 = 3, 3
      f1 = la(8)
      v1 = abs(abs(8))
    ENDDO
  ENDIF
  la(4) = -4
  la(10) = ((13 + 11) + g2)
  PRINT *, 13
  g0 = 8
  IF (max(f0, g2) .LE. (-4 * g0) .AND. (14 / (4 + 0)) .LT. 12) g3 = la(11)
  g3 = ((15 + f1) - -5)
  v1 = (g3 - la(11))
  CALL proc137((0 + (15 / (4 + 14))))
END

SUBROUTINE proc137(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = ((9 + 2) / (6 + 9))
  g3 = (7 * 1)
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
  CALL proc139((0 + la(1)), v1)
END

SUBROUTINE proc139(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 1
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = max(12, 1)
  IF ((la(2) - -3) .GT. mod(-1, 7) .OR. 1 .EQ. 1) THEN
    DO f0 = 3, 3
      g0 = (11 - abs(f1))
    ENDDO
  ENDIF
  CALL proc140((f0 + 1))
END

SUBROUTINE proc140(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g0 = 3, 3
    IF (g1 .EQ. v2 .OR. max(5, la(10)) .GT. la(5)) f0 = (v0 / (6 + 0))
  ENDDO
  IF (g0 .GE. max(g2, v2)) THEN
    la(1) = 2
    IF (mod(7, 5) .NE. (la(12) - v1)) g0 = max(0, la(8))
  ELSE
    PRINT *, -4
    la(4) = 6
  ENDIF
  g3 = max(4, 9)
  IF (.NOT. (abs(la(4)) .EQ. la(10))) f0 = 2
  la(8) = la(1)
  DO g2 = 3, 6
    IF (13 .LE. abs(8) .AND. -3 .GE. (la(8) * g1)) THEN
      v2 = (la(11) * la(8))
    ELSE
      la(11) = la(3)
      g3 = v0
    ENDIF
    PRINT *, (la(2) + (15 / (5 + la(6))))
  ENDDO
  DO f0 = 3, 5
    PRINT *, max(4, 7)
    DO v2 = 3, 6
      g1 = ((v0 - 1) - la(3))
    ENDDO
  ENDDO
  IF ((la(2) / (6 + v0)) .GE. (11 * la(2)) .OR. (0 / (5 + la(5))) .LE. abs(1)) g2 = 10
  CALL proc141((0 + 0), v0)
END

SUBROUTINE proc141(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 12
  v2 = 11
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, g3
  PRINT *, la(5)
  CALL proc142(6, (0 + 1))
END

SUBROUTINE proc142(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = 1
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-3 .GE. v1 .AND. la(6) .LE. (-2 / (6 + 0))) v1 = (g0 - 6)
  DO g3 = 2, 3
    IF (14 .LT. (5 * -1)) g1 = (g2 - v2)
  ENDDO
  IF ((-4 / (5 + 5)) .NE. 15 .OR. abs(12) .LE. -5) THEN
    f0 = la(11)
  ELSE
    IF (abs(4) .LE. 14 .OR. abs(v0) .EQ. 7) THEN
      v2 = (3 / (5 + f1))
    ENDIF
    DO v0 = 2, 2
      f0 = ((la(10) * g0) * 1)
    ENDDO
  ENDIF
  CALL proc143(7, (0 + g1))
END

SUBROUTINE proc143(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 8
  v2 = 8
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((v0 * 4) .LT. 13)) f1 = abs(f1)
  CALL proc144((f0 + 1))
END

SUBROUTINE proc144(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = ((10 * la(10)) / (2 + g2))
  g2 = la(6)
  DO v0 = 0, 3
    PRINT *, la(3)
    g1 = (5 / (5 + g3))
  ENDDO
  f0 = mod((3 / (2 + la(12))), 6)
  IF (abs(g1) .GT. max(la(2), g0) .AND. max(4, -5) .GE. abs(-1)) THEN
    g0 = abs(6)
    f0 = la(6)
  ENDIF
  g3 = -2
  IF (abs(la(1)) .EQ. (g2 - la(5)) .OR. (la(10) / (5 + la(5))) .NE. (2 / (2 + 7))) g3 = mod(la(12), 8)
  CALL proc145(3)
END

SUBROUTINE proc145(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(5) = 7
  DO g0 = 0, 1
    f0 = (15 + (g3 / (4 + -2)))
  ENDDO
  DO g3 = 1, 4
    DO g2 = 3, 7
      v0 = 3
    ENDDO
    v1 = (la(7) - la(8))
  ENDDO
  g3 = -1
  PRINT *, (la(5) + (la(6) / (4 + la(12))))
  CALL proc146((0 + (la(8) / (6 + la(7)))), 9)
END

SUBROUTINE proc146(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = la(1)
  v0 = 3
  IF ((4 + la(5)) .LT. la(12) .AND. max(g0, 14) .LT. f1) v0 = v1
  IF (la(2) .LE. g0 .OR. abs(la(1)) .LE. 1) THEN
    g1 = v0
  ELSE
    DO f1 = 0, 2
      v0 = la(3)
      g1 = (-2 - la(9))
    ENDDO
  ENDIF
  g2 = ((la(9) * f1) - (7 + v0))
  IF (v0 .GT. (12 / (5 + -4))) g2 = (-2 - v1)
  CALL proc147((f0 + 1), 1)
END

SUBROUTINE proc147(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -4
  v2 = 3
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = (abs(8) - la(1))
  v1 = la(1)
  f1 = 14
  IF ((v0 * la(11)) .LT. v1 .OR. g1 .LT. max(7, 13)) THEN
    DO v0 = 2, 2
      g0 = ((3 - -1) * 11)
    ENDDO
    la(7) = v3
  ELSE
    IF (mod(14, 8) .GE. abs(1) .AND. (f0 + 6) .EQ. 0) THEN
      PRINT *, -5
    ELSE
      v3 = ((6 * la(8)) * g2)
    ENDIF
    g3 = 6
  ENDIF
  v0 = la(11)
  f0 = la(6)
  g0 = 12
  f1 = max(7, 9)
  v3 = max(la(7), la(5))
  v1 = (abs(-5) - (la(8) + 14))
  CALL proc148((f0 + 1))
END

SUBROUTINE proc148(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -4
  v2 = 0
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = 0
  CALL proc149(5, v2)
END

SUBROUTINE proc149(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = (la(10) / (2 + g1))
  PRINT *, ((-3 - g1) - la(8))
  f0 = 3
  la(9) = la(6)
  CALL proc150((f0 + 1), v1)
END

SUBROUTINE proc150(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (-2 .LT. 1)) THEN
    IF (13 .GE. 7 .AND. g0 .GE. f1) v0 = (14 / (3 + 11))
  ELSE
    PRINT *, g0
    la(2) = (6 - max(8, 8))
  ENDIF
  f0 = ((la(11) - la(8)) / (5 + 3))
  v1 = max(g0, la(2))
  v1 = -5
  g1 = mod(f1, 7)
  g0 = 12
  IF (abs(9) .LE. abs(g2) .AND. abs(15) .LT. 3) v0 = (la(5) + la(5))
  IF (la(1) .EQ. la(9) .OR. (la(10) - -2) .GE. mod(4, 8)) THEN
    IF (abs(la(5)) .LT. (v1 + 3) .AND. (la(3) - -1) .GE. 5) THEN
      g2 = mod(4, 5)
      f0 = f0
    ENDIF
  ELSE
    v1 = -1
  ENDIF
  CALL proc151(2, f0)
END

SUBROUTINE proc151(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = la(5)
  g3 = (mod(f1, 4) - (-1 + f0))
  g0 = 1
  f1 = (max(4, 1) / (3 + 14))
  CALL proc152((f0 + 1), f1)
END

SUBROUTINE proc152(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = 1
  v0 = 14
  IF ((10 - g1) .LT. 13 .OR. (la(5) + la(10)) .LT. la(3)) v1 = -2
  v1 = 15
  DO v1 = 1, 1
    la(7) = la(2)
  ENDDO
  la(2) = max(12, la(5))
  IF (4 .EQ. mod(-4, 6) .AND. (g0 + 15) .LE. 11) g2 = (15 + la(4))
  DO g2 = 2, 4
    g0 = g0
  ENDDO
  g1 = abs(3)
  CALL proc153(3, v1)
END

SUBROUTINE proc153(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 13
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. (9 .GE. 9)) THEN
    PRINT *, la(8)
  ELSE
    g2 = ((v3 + la(2)) + f0)
  ENDIF
  CALL proc154((f0 + 1), 9)
END

SUBROUTINE proc154(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 12
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (g0 .LE. -3 .AND. v1 .NE. 7) f1 = 14
  v1 = ((g3 - la(5)) - mod(la(8), 2))
  CALL proc155((0 + max(1, f1)), v1)
END

SUBROUTINE proc155(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = 12
  CALL proc156(6)
END

SUBROUTINE proc156(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 2
  v2 = 6
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 1
  CALL proc157((0 + (la(9) / (6 + la(5)))), v2)
END

SUBROUTINE proc157(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -2
  v2 = 14
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = 1
  g3 = 8
  g0 = abs(max(v2, -1))
  PRINT *, (max(3, la(2)) * 15)
  la(4) = abs(-2)
  IF ((8 * la(4)) .GE. -1 .AND. (0 + 9) .GT. (f1 * la(9))) v3 = v1
  DO f1 = 2, 3
    IF (.NOT. (max(v1, g1) .LT. la(5))) v3 = (f0 * 5)
    f0 = g0
  ENDDO
  CALL proc158((f0 + 1))
END

SUBROUTINE proc158(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = 12
  f0 = ((g2 * la(5)) * la(6))
  DO g3 = 3, 6
    PRINT *, (-3 / (5 + 12))
    g1 = (abs(g2) * 10)
  ENDDO
  g0 = ((-3 * -4) * 3)
  CALL proc159(6)
END

SUBROUTINE proc159(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = mod((-1 - 11), 4)
  g1 = max(g3, 3)
  v1 = abs((-3 - 14))
  IF (.NOT. ((-4 * 10) .GT. (14 - 12))) g1 = (9 / (5 + g1))
  CALL proc160(6, (0 + abs(g1)))
END

SUBROUTINE proc160(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 14
  v2 = -2
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = v1
  f0 = (5 - 12)
  IF (la(8) .EQ. 15) v3 = (6 * 12)
  v0 = (max(v0, v3) + f1)
  DO v3 = 2, 2
    f1 = mod(3, 2)
  ENDDO
  DO g0 = 1, 5
    g3 = max(14, 10)
    v0 = (v2 * -5)
  ENDDO
  CALL proc161((f0 + 1))
END

SUBROUTINE proc161(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (g0 * v0)
  f0 = abs(max(la(3), 13))
  g2 = -4
  v2 = (la(3) / (6 + 5))
  IF ((v0 - la(10)) .GE. 0 .AND. mod(-1, 3) .GE. abs(8)) THEN
    v1 = ((3 + v2) * la(4))
  ELSE
    DO g0 = 1, 1
      v1 = (la(4) / (6 + 10))
    ENDDO
    PRINT *, v2
  ENDIF
  CALL proc162(5, (0 + 1))
END

SUBROUTINE proc162(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = (0 - (7 - la(10)))
  CALL proc163(7)
END

SUBROUTINE proc163(f0)
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
  CALL proc164(4)
END

SUBROUTINE proc164(f0)
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
  CALL proc165(4)
END

SUBROUTINE proc165(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 14
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 5
  g2 = la(7)
  v1 = (max(1, la(9)) + 14)
  f0 = 4
  IF (-1 .LT. (9 - la(3))) THEN
    PRINT *, ((la(2) / (6 + 1)) / (6 + 14))
  ENDIF
  v2 = v0
  CALL proc166(7)
END

SUBROUTINE proc166(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = -2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = ((14 * g2) * la(6))
  g2 = max(-3, v2)
  IF (abs(6) .GT. (la(12) / (6 + 11)) .AND. 6 .GE. 1) THEN
    g2 = max(10, 10)
    v0 = 15
  ENDIF
  PRINT *, (mod(9, 6) / (4 + la(7)))
  v0 = (-2 / (2 + la(11)))
  CALL proc167(5)
END

SUBROUTINE proc167(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 5
  v2 = 14
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = (8 / (6 + 1))
  CALL proc168(4, 2)
END

SUBROUTINE proc168(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(4) .LE. 4) THEN
    DO v0 = 3, 7
      g1 = 14
      PRINT *, 7
    ENDDO
    v1 = g1
  ENDIF
  la(2) = f0
  la(12) = 14
  g0 = la(6)
  IF (la(8) .GT. mod(v0, 7) .AND. (7 * 0) .LE. (-5 - f1)) THEN
    v0 = (mod(g2, 7) / (4 + -4))
    IF (la(5) .GT. (la(3) + -2) .OR. la(8) .EQ. (6 - la(10))) THEN
      g2 = (la(5) * la(11))
      g1 = abs(abs(2))
    ENDIF
  ELSE
    PRINT *, la(9)
  ENDIF
  v2 = mod(abs(7), 4)
  g0 = g1
  g2 = max(9, -2)
  CALL proc169(2)
END

SUBROUTINE proc169(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (max(g1, v1) .LE. la(9) .OR. la(1) .GE. (la(2) + la(3))) g2 = -5
  g2 = la(5)
  g2 = -2
  IF (max(v0, 2) .GE. abs(9) .AND. abs(g1) .LE. g3) THEN
    DO g0 = 1, 1
      la(1) = mod(10, 5)
      IF ((13 / (3 + g0)) .LT. -4 .AND. mod(6, 3) .LE. 12) g2 = la(5)
    ENDDO
  ELSE
    IF (11 .NE. v1 .OR. (la(8) - -1) .GE. 4) g3 = max(4, 4)
  ENDIF
  PRINT *, ((v0 / (2 + la(2))) + la(7))
  PRINT *, mod(v0, 4)
  IF ((14 - la(11)) .LT. g1 .AND. abs(f0) .GE. g0) g3 = (6 - 1)
  g2 = abs(abs(15))
  CALL proc170(6, v0)
END

SUBROUTINE proc170(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (8 * 10)
  PRINT *, ((v0 / (2 + la(5))) * 8)
  PRINT *, 9
  DO f1 = 2, 6
    IF (.NOT. (mod(12, 6) .GE. 15)) THEN
      g1 = mod((9 * 7), 3)
    ENDIF
    g1 = la(4)
  ENDDO
  IF (max(la(12), g1) .LE. 12) THEN
    PRINT *, g1
  ENDIF
  IF (la(12) .GT. abs(la(9)) .AND. max(la(6), 3) .GT. 13) g3 = (g2 * -2)
  IF (f1 .GE. 3 .OR. (-2 * la(9)) .LE. (10 * -2)) THEN
    PRINT *, la(11)
  ELSE
    PRINT *, v0
  ENDIF
  CALL proc171((0 + la(12)), f1)
END

SUBROUTINE proc171(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 3
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, la(10)
  f0 = 5
  IF (.NOT. (la(9) .EQ. la(2))) f1 = mod(v2, 2)
  la(12) = g0
  IF (14 .EQ. v2 .AND. (-4 + g2) .LE. mod(3, 8)) v0 = (-2 - 5)
  v0 = abs(max(-5, la(12)))
  PRINT *, max(la(3), la(3))
  f1 = -1
  la(7) = abs(g2)
  CALL proc172((0 + 12))
END

SUBROUTINE proc172(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (1 .LT. max(la(3), g1)) f0 = la(4)
  CALL proc173(2)
END

SUBROUTINE proc173(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 8
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((la(6) * v1) * la(3))
  la(8) = la(2)
  v2 = (12 / (3 + v3))
  v0 = v1
  f0 = la(4)
  g2 = (la(4) * 14)
  g1 = la(5)
  IF (.NOT. (v3 .GE. abs(3))) THEN
    v2 = ((8 / (3 + g1)) - 12)
    f0 = ((5 * la(2)) * v1)
  ENDIF
  CALL proc174((0 + 14))
END

SUBROUTINE proc174(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -1
  v2 = -1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = -1
  v2 = g3
  g3 = (11 - 4)
  PRINT *, ((g1 * g2) - mod(la(11), 6))
  la(10) = (abs(7) + mod(v1, 6))
  PRINT *, 15
  PRINT *, la(2)
  v1 = la(2)
  CALL proc175(7)
END

SUBROUTINE proc175(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 5
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, 7
  v0 = 14
  CALL proc176(5, 3)
END

SUBROUTINE proc176(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 2
  v2 = -4
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((v1 / (3 + 9)) .LE. (11 * 7)) f1 = 0
  g2 = abs((g2 * -1))
  CALL proc177((f0 + 1))
END

SUBROUTINE proc177(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 11
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((la(2) - g2) .GT. 7 .AND. la(6) .GT. la(9)) v0 = la(8)
  g0 = 11
  g2 = 5
  f0 = max(8, la(3))
  IF ((la(5) / (6 + la(6))) .GT. (v0 + v1) .OR. (la(2) * f0) .EQ. (la(7) / (5 + v1))) g2 = abs(la(2))
  v2 = f0
  CALL proc178((0 + g0))
END

SUBROUTINE proc178(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 9
  v2 = -4
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. ((v2 / (3 + la(8))) .GT. la(3))) THEN
    PRINT *, v3
    la(4) = 12
  ENDIF
  IF (abs(la(4)) .EQ. max(13, g0) .OR. 11 .EQ. g3) THEN
    v0 = max(6, g0)
  ELSE
    DO g1 = 1, 4
      g2 = ((4 / (6 + 8)) + mod(-3, 8))
      g2 = mod(9, 7)
    ENDDO
  ENDIF
  la(7) = f0
  g1 = g1
  v1 = ((g1 - 6) / (4 + la(4)))
  DO g3 = 2, 5
    v2 = -3
    g2 = la(8)
  ENDDO
  la(2) = la(4)
  v0 = 2
  CALL proc179((f0 + 1))
END

SUBROUTINE proc179(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (6 - abs(g2))
  PRINT *, ((3 - 6) / (6 + g1))
  CALL proc180((0 + g3), 8)
END

SUBROUTINE proc180(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 1, 3
    g3 = (15 + (v1 / (5 + 6)))
    IF (abs(8) .NE. la(11) .AND. (-4 / (4 + v1)) .GE. (la(2) / (3 + g1))) f1 = 11
  ENDDO
  f1 = 8
  CALL proc181((0 + 4))
END

SUBROUTINE proc181(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 14
  v2 = 4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = la(3)
  v1 = abs((-1 + v1))
  IF (max(7, -1) .LT. la(4) .OR. la(3) .EQ. (la(9) * la(5))) THEN
    PRINT *, ((v1 * la(8)) - -2)
  ENDIF
  CALL proc182((0 + g1))
END

SUBROUTINE proc182(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 11
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = la(5)
  f0 = g0
  PRINT *, 2
  CALL proc183(2)
END

SUBROUTINE proc183(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (mod(la(8), 2) .LE. 15)) g3 = 0
  la(3) = f0
  g3 = max(g3, 15)
  la(2) = (1 / (6 + 7))
  CALL proc184(2)
END

SUBROUTINE proc184(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 1
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(6) = la(4)
  PRINT *, la(8)
  CALL proc185(3)
END

SUBROUTINE proc185(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 0, 3
    v0 = 13
    g1 = f0
  ENDDO
  g3 = 0
  f0 = max(5, 14)
  CALL proc186((0 + g3))
END

SUBROUTINE proc186(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(4) = 7
  f0 = ((-2 - 13) + (la(10) * f0))
  IF (.NOT. (1 .GT. (la(8) - 2))) g0 = max(12, -2)
  la(4) = max(g3, la(1))
  g1 = mod(1, 4)
  CALL proc187(2)
END

SUBROUTINE proc187(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -1
  v2 = 2
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(4) = (max(13, la(5)) / (6 + 4))
  g2 = v3
  IF ((f0 + 13) .NE. la(5)) THEN
    IF (la(7) .EQ. 14 .OR. v3 .GT. g0) THEN
      v2 = 12
      g0 = abs((la(6) * f0))
    ENDIF
    IF (.NOT. ((11 + v1) .GE. (la(1) / (2 + g2)))) THEN
      f0 = (10 - g3)
      g0 = (-5 + (11 + g3))
    ELSE
      v0 = mod((15 * -3), 4)
    ENDIF
  ELSE
    PRINT *, -2
    v1 = max(15, f0)
  ENDIF
  CALL proc188((0 + max(7, v3)))
END

SUBROUTINE proc188(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 10
  v2 = -1
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (max(la(10), la(9)) .LE. (7 + la(2)))) THEN
    DO g1 = 2, 5
      f0 = (abs(la(4)) * 11)
      v3 = 3
    ENDDO
  ENDIF
  g0 = la(7)
  v1 = la(2)
  g2 = -5
  v2 = 0
  v1 = (g0 - (la(2) / (3 + la(11))))
  v0 = (la(12) * v1)
  DO v2 = 0, 0
    IF ((la(5) + v2) .NE. (la(11) + 14) .AND. la(10) .LE. (5 + 4)) g2 = la(8)
  ENDDO
  CALL proc189((0 + max(la(6), la(10))))
END

SUBROUTINE proc189(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 6
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = -1
  IF (4 .NE. v2 .OR. la(1) .LT. 2) THEN
    IF (.NOT. (14 .EQ. (g0 - la(8)))) THEN
      IF (-2 .GT. -3 .OR. mod(g3, 3) .GT. la(10)) g1 = (4 / (5 + la(1)))
    ELSE
      v1 = ((g0 * 15) - la(10))
      v0 = -2
    ENDIF
  ELSE
    g0 = 14
  ENDIF
  v2 = 13
  f0 = abs((la(9) / (3 + -2)))
  IF (mod(la(3), 4) .GT. 13 .AND. 14 .GT. la(5)) v0 = -1
  DO v1 = 1, 3
    v0 = mod((2 + 12), 5)
    g2 = 9
  ENDDO
  g1 = ((4 + 3) + (la(6) * 7))
  CALL proc190((0 + 8))
END

SUBROUTINE proc190(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 11
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g1 = 2, 6
    IF (.NOT. ((4 - la(5)) .LE. la(6))) THEN
      v2 = (v1 + g0)
    ENDIF
  ENDDO
  CALL proc191((f0 + 1))
END

SUBROUTINE proc191(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g2 = 2, 5
    f0 = g2
    la(10) = g2
  ENDDO
  la(7) = (max(15, -5) - abs(0))
  DO f0 = 0, 2
    g3 = (abs(f0) + (la(11) * 7))
    PRINT *, g1
  ENDDO
  PRINT *, la(2)
  la(8) = abs(abs(-4))
  v0 = g1
  la(10) = la(9)
  IF (.NOT. (13 .EQ. abs(la(9)))) THEN
    g3 = (mod(9, 7) + mod(0, 6))
  ELSE
    v1 = (-5 / (6 + f0))
    g3 = abs((10 - g2))
  ENDIF
  IF ((-5 - g2) .EQ. la(1)) g1 = 9
  CALL proc192((f0 + 1), v0)
END

SUBROUTINE proc192(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 7
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = 14
  la(9) = 8
  g3 = 9
  PRINT *, abs(max(-1, f1))
  DO g1 = 0, 3
    v2 = 14
    g0 = (8 - (11 + g1))
  ENDDO
  PRINT *, 0
  v0 = ((-5 * 7) + (v1 / (2 + la(5))))
  CALL proc193((0 + -2), 11)
END

SUBROUTINE proc193(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v0 = 3, 4
    IF (mod(g3, 8) .LE. (2 - la(5)) .OR. la(4) .NE. mod(la(4), 2)) THEN
      f1 = la(3)
      la(2) = 12
    ELSE
      g3 = ((-3 / (2 + la(6))) * f1)
      IF ((10 - 7) .NE. la(11)) g0 = max(g1, v0)
    ENDIF
  ENDDO
  PRINT *, la(6)
  IF (.NOT. ((g1 + la(8)) .LE. (-1 - g2))) g0 = -2
  v1 = g3
  v1 = la(9)
  la(11) = max(v0, la(7))
  g1 = mod((la(12) - la(10)), 7)
  f1 = max(la(4), la(8))
  CALL proc194(3)
END

SUBROUTINE proc194(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 14
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = 1
  g1 = mod(v3, 5)
  la(5) = abs((7 * la(5)))
  PRINT *, -4
  la(8) = -1
  IF (.NOT. (12 .NE. (la(10) / (6 + la(10))))) THEN
    DO f0 = 0, 2
      IF (abs(g0) .GT. (-4 / (2 + g3))) v3 = la(12)
    ENDDO
    g0 = ((11 + 12) - (g3 + 4))
  ELSE
    g0 = 14
  ENDIF
  IF (v3 .LE. 9 .AND. -2 .NE. (g1 * v1)) THEN
    IF (la(7) .LE. (12 - 2)) THEN
      IF (g1 .LE. la(8) .OR. la(5) .LT. (la(8) - -1)) v2 = (la(11) + la(12))
      la(3) = (2 * -5)
    ENDIF
  ELSE
    v0 = ((g3 - 6) + 3)
    PRINT *, max(la(5), 8)
  ENDIF
  CALL proc195((0 + la(3)), f0)
END

SUBROUTINE proc195(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 4
  v2 = 14
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = v3
  v2 = g2
  DO g3 = 3, 6
    g0 = -5
    v2 = abs(-2)
  ENDDO
  PRINT *, (la(2) / (4 + 0))
  IF (.NOT. ((v0 - g2) .LT. (13 - 9))) THEN
    IF (v2 .LT. 0 .AND. -1 .LE. (la(5) + f0)) THEN
      g1 = f1
      IF (max(-3, 6) .LE. la(5) .AND. (10 - la(6)) .NE. max(la(8), la(10))) g0 = (la(9) / (4 + f0))
    ENDIF
  ELSE
    PRINT *, 6
  ENDIF
  f1 = mod(13, 4)
  DO g0 = 3, 5
    f0 = la(7)
    g2 = ((15 + 6) - (la(2) / (5 + 9)))
  ENDDO
  CALL proc196((f0 + 1))
END

SUBROUTINE proc196(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v1 = 2, 3
    g1 = v2
    IF (.NOT. (max(g0, v1) .GT. (v1 * 0))) g1 = (la(9) * 2)
  ENDDO
  IF (max(11, 12) .GT. la(7) .OR. v2 .EQ. (g0 / (3 + 8))) g0 = abs(g1)
  g1 = ((15 / (3 + 9)) / (2 + v0))
  g2 = abs(2)
  g2 = 14
  PRINT *, la(4)
  IF ((la(10) - la(5)) .GT. (7 - la(7)) .AND. mod(6, 8) .EQ. la(12)) v1 = la(7)
  CALL proc197(7)
END

SUBROUTINE proc197(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 1
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = f0
  IF (g3 .NE. la(5) .OR. max(la(7), v0) .NE. (la(6) + v2)) THEN
    IF (13 .EQ. g3 .AND. la(1) .GE. 10) THEN
      IF (.NOT. ((g3 - 12) .EQ. 8)) v2 = v0
      la(2) = 11
    ELSE
      g1 = la(11)
    ENDIF
    IF (10 .LE. -1 .OR. max(-3, v0) .NE. 0) THEN
      g0 = v0
    ENDIF
  ELSE
    g0 = max(la(11), la(2))
  ENDIF
  PRINT *, mod(mod(12, 5), 8)
  DO v0 = 1, 5
    PRINT *, 2
  ENDDO
  CALL proc198((0 + mod(la(10), 5)), v0)
END

SUBROUTINE proc198(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(5) = ((la(4) + g0) * 5)
  IF (la(3) .LT. (v1 * 6) .AND. g2 .GT. (12 / (2 + la(11)))) g3 = 3
  CALL proc199(2, v0)
END

SUBROUTINE proc199(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 4
  v2 = -1
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = (-2 - g0)
  IF (v2 .LE. (6 - la(4)) .OR. (g3 + 11) .GE. la(12)) THEN
    PRINT *, la(7)
    g2 = (max(la(2), la(5)) / (3 + 14))
  ELSE
    v0 = abs((9 - -5))
    f0 = la(6)
  ENDIF
  PRINT *, 4
  DO g3 = 3, 4
    DO v0 = 1, 4
      f1 = -1
    ENDDO
    f1 = 6
  ENDDO
  v1 = max(v3, la(6))
  v1 = la(9)
  la(8) = 8
  IF ((la(12) * 8) .EQ. (13 - -2) .AND. (v0 + g1) .GE. (13 - 11)) v2 = g0
  PRINT *, ((0 - g1) / (3 + 9))
  CALL proc200((0 + (1 + f0)), 1)
END

SUBROUTINE proc200(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 14
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, v2
  la(10) = (g3 - max(8, 15))
  g0 = g3
  f1 = (-5 + (f1 / (2 + 12)))
  v0 = ((2 / (5 + g0)) + (la(7) * f0))
  f0 = (7 + 3)
  g3 = la(8)
  DO v1 = 2, 4
    DO v0 = 0, 2
      g3 = (abs(la(10)) - abs(15))
    ENDDO
    IF (mod(la(7), 4) .GT. (la(3) * 2)) g0 = (0 - 10)
  ENDDO
  la(5) = (6 * 6)
  CALL proc201((0 + (-4 + 8)), -3)
END

SUBROUTINE proc201(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 9
  v2 = 8
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = mod((-2 * g3), 6)
  la(9) = abs(3)
  DO v0 = 0, 1
    IF (abs(la(8)) .NE. abs(15)) g1 = la(9)
    g0 = (la(9) + (g1 * v0))
  ENDDO
  PRINT *, max(14, 11)
  PRINT *, mod(g1, 6)
  PRINT *, (15 / (4 + -2))
  la(11) = v2
  CALL proc202((0 + mod(la(2), 2)), (0 + la(10)))
END

SUBROUTINE proc202(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 2
  v2 = 6
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = ((-4 + 14) / (6 + la(1)))
  PRINT *, abs(5)
  la(6) = (v2 - 14)
  v3 = ((la(9) - la(12)) + g1)
  CALL proc203(3, 4)
END

SUBROUTINE proc203(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = la(4)
  IF (f1 .GE. abs(4)) f0 = mod(13, 3)
  g2 = (8 - g3)
  g1 = (g0 - la(7))
  CALL proc204((0 + (2 / (2 + la(4)))))
END

SUBROUTINE proc204(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 4
  v2 = 12
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v3 = (0 * g3)
  PRINT *, 0
  v2 = abs((v2 / (4 + 7)))
  IF (la(9) .NE. la(6) .AND. mod(la(9), 5) .NE. abs(12)) THEN
    DO f0 = 0, 4
      v3 = ((la(7) - 7) - 6)
    ENDDO
  ENDIF
  g0 = la(3)
  la(8) = v3
  v3 = max(v2, g0)
  CALL proc205(2, v1)
END

SUBROUTINE proc205(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = la(4)
  g1 = (la(3) / (3 + 4))
  IF (mod(8, 5) .NE. la(3) .AND. 1 .GE. 13) f0 = 9
  CALL proc206((f0 + 1))
END

SUBROUTINE proc206(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (v1 .LT. (la(3) - la(10)) .AND. mod(10, 4) .GT. 8) THEN
    IF (.NOT. (12 .NE. v0)) g0 = abs(3)
  ELSE
    DO f0 = 2, 3
      v0 = v0
    ENDDO
    IF (.NOT. (abs(6) .NE. f0)) THEN
      g0 = (mod(2, 4) / (2 + 8))
    ELSE
      IF (10 .GT. -3) f0 = (14 - 13)
    ENDIF
  ENDIF
  DO g2 = 1, 5
    v1 = (la(7) - abs(11))
  ENDDO
  f0 = la(4)
  g1 = (8 + la(7))
  g2 = 3
  IF (.NOT. (-5 .NE. 7)) THEN
    PRINT *, mod(max(g2, la(12)), 6)
    g0 = abs(max(12, g2))
  ENDIF
  CALL proc207((f0 + 1), v1)
END

SUBROUTINE proc207(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 7
  v2 = -2
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, mod((-5 + la(3)), 5)
  v3 = (la(3) - 6)
  f0 = max(-3, la(6))
  g0 = g3
  CALL proc208((0 + abs(v2)), v3)
END

SUBROUTINE proc208(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = -1
  v2 = -3
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = max(la(9), g3)
  la(5) = ((la(8) - 5) / (4 + 7))
  IF ((g0 / (4 + g2)) .GE. mod(f1, 3) .AND. abs(3) .GE. g1) THEN
    v3 = mod(13, 2)
  ENDIF
  f1 = la(2)
  PRINT *, (mod(12, 3) + abs(la(10)))
  v2 = g0
  IF (abs(la(7)) .NE. (v2 / (3 + -1))) g2 = mod(12, 7)
  f1 = abs(-5)
  v2 = (max(v2, 2) * la(8))
  CALL proc209((f0 + 1))
END

SUBROUTINE proc209(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 11
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = (abs(-4) - f0)
  v0 = mod((-2 * 14), 8)
  g0 = (abs(7) + mod(v0, 3))
  DO g2 = 3, 4
    v0 = abs((la(3) / (6 + la(3))))
  ENDDO
  g3 = (v1 + g0)
  CALL proc210(5)
END

SUBROUTINE proc210(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v1 = 0, 1
    la(9) = g3
  ENDDO
  la(10) = (-5 + (4 * 14))
  la(10) = 5
  la(8) = la(5)
  CALL proc211((0 + 3))
END

SUBROUTINE proc211(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 12
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = 7
  PRINT *, (11 * 6)
  v1 = (15 - la(1))
  CALL proc212((0 + mod(la(6), 5)))
END

SUBROUTINE proc212(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(1) - 12) .EQ. (12 + 9) .AND. (la(1) + v0) .LE. mod(g3, 6)) THEN
    PRINT *, g3
  ENDIF
  v1 = ((la(4) * g3) + la(8))
  g2 = (1 + (10 + 14))
  IF ((la(11) / (6 + la(2))) .LT. -4 .OR. 6 .GT. 9) THEN
    g0 = g2
  ENDIF
  g3 = la(4)
  g2 = abs(v0)
  g3 = la(4)
  PRINT *, (max(la(12), 2) - -5)
  CALL proc213(5, v0)
END

SUBROUTINE proc213(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = 14
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g0 = 1, 2
    g1 = abs((-4 + -2))
  ENDDO
  CALL proc214((f0 + 1), v0)
END

SUBROUTINE proc214(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (f0 .NE. la(5)) THEN
    la(1) = -2
  ELSE
    f1 = max(9, 2)
  ENDIF
  IF (f0 .EQ. 9 .OR. mod(14, 7) .LT. -1) THEN
    IF (.NOT. (g1 .LT. g2)) THEN
      la(8) = ((0 + 14) * 11)
    ELSE
      g2 = f0
      g0 = f1
    ENDIF
    PRINT *, mod(la(1), 4)
  ENDIF
  f1 = abs(f1)
  f1 = mod(g2, 3)
  f1 = abs((la(8) / (4 + la(10))))
  la(12) = v0
  g1 = f1
  CALL proc215(6, v0)
END

SUBROUTINE proc215(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 11
  v2 = -3
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(3)
  DO g1 = 3, 4
    v1 = v0
  ENDDO
  f0 = la(4)
  g2 = la(2)
  IF (.NOT. (f1 .LE. mod(14, 4))) f1 = (f1 - v0)
  CALL proc216((0 + -2))
END

SUBROUTINE proc216(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -1
  v2 = 4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = la(12)
  g0 = -1
  la(10) = (la(1) / (5 + v2))
  f0 = v1
  g2 = la(10)
  v1 = (mod(la(6), 5) - mod(12, 8))
  IF ((10 * -4) .GT. -5 .AND. (9 / (5 + la(6))) .GE. (14 * 7)) v2 = mod(v1, 2)
  PRINT *, 0
  CALL proc217(6, f0)
END

SUBROUTINE proc217(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 1
  v2 = -1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = (1 + -1)
  IF (abs(8) .EQ. (la(10) - 0)) THEN
    v0 = -1
    IF (.NOT. (la(1) .GT. (-3 * 7))) THEN
      f1 = (f0 - la(12))
      IF (.NOT. (-5 .NE. la(10))) g1 = (la(6) / (6 + 14))
    ENDIF
  ELSE
    g3 = (5 + 3)
    DO v0 = 3, 7
      v1 = max(v2, 2)
      v3 = 6
    ENDDO
  ENDIF
  DO v3 = 0, 2
    g3 = la(11)
  ENDDO
  g0 = 8
  PRINT *, 1
  IF (0 .LT. 10 .OR. (8 * la(12)) .GT. (9 * 2)) THEN
    DO v0 = 1, 3
      g3 = g1
      PRINT *, v2
    ENDDO
  ENDIF
  CALL proc218(5, v0)
END

SUBROUTINE proc218(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 5
  v2 = 10
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v2 = 0, 3
    IF (-2 .GE. max(la(3), 9) .AND. (6 - v0) .EQ. 15) THEN
      v0 = 13
      PRINT *, 9
    ENDIF
    g3 = -1
  ENDDO
  g3 = (f0 - la(9))
  DO g1 = 3, 6
    g2 = mod((8 / (4 + 3)), 2)
    g0 = max(12, -3)
  ENDDO
  PRINT *, max(6, la(2))
  g0 = g2
  CALL proc219((0 + max(-5, 14)))
END

SUBROUTINE proc219(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = mod((15 * 14), 8)
  IF (.NOT. (13 .EQ. (v0 / (3 + la(4))))) v0 = (f0 / (2 + la(11)))
  DO g1 = 0, 3
    la(8) = mod(13, 8)
  ENDDO
  g3 = la(4)
  g1 = la(8)
  IF (max(8, -2) .EQ. abs(la(8)) .AND. la(8) .LT. -4) THEN
    g0 = (la(10) - g3)
    IF (abs(13) .NE. la(2)) g1 = max(g2, la(7))
  ELSE
    DO v0 = 1, 1
      g0 = la(1)
      g2 = 11
    ENDDO
  ENDIF
  IF (3 .LT. (8 + 13) .OR. (13 / (4 + 1)) .LE. (15 - la(11))) THEN
    IF (-1 .LE. g0 .OR. (la(12) - 5) .GT. abs(12)) v0 = (g0 - la(6))
  ENDIF
  IF (g3 .EQ. (12 - -2) .AND. la(4) .EQ. 3) THEN
    IF (.NOT. ((11 + 5) .GE. abs(15))) v0 = 9
    g2 = ((g1 - la(8)) / (4 + 3))
  ENDIF
  PRINT *, (mod(15, 5) / (6 + v1))
  f0 = la(4)
  CALL proc220(4, 2)
END

SUBROUTINE proc220(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, mod((9 * 9), 2)
  CALL proc221((f0 + 1), -1)
END

SUBROUTINE proc221(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 5
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (mod(11, 8) * la(9))
  f0 = v0
  CALL proc222(4)
END

SUBROUTINE proc222(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((14 / (5 + 14)) .EQ. f0 .OR. la(4) .EQ. -4) g3 = 6
  DO g1 = 1, 1
    DO v0 = 0, 4
      PRINT *, la(11)
    ENDDO
    v1 = abs(v0)
  ENDDO
  v1 = 4
  PRINT *, max(9, 10)
  DO g2 = 2, 3
    g0 = (max(3, la(10)) / (3 + 9))
  ENDDO
  PRINT *, ((5 + 4) * -3)
  la(5) = max(g2, la(7))
  v1 = v1
  g0 = (-2 - (7 * g2))
  la(3) = ((f0 * 12) / (2 + f0))
  CALL proc223((f0 + 1))
END

SUBROUTINE proc223(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = abs(-3)
  CALL proc224((f0 + 1))
END

SUBROUTINE proc224(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 10
  v2 = 4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = g1
  PRINT *, max(6, la(7))
  g0 = abs((10 * la(1)))
  PRINT *, max(10, g1)
  PRINT *, -1
  DO v1 = 2, 3
    f0 = (max(1, g3) * 3)
  ENDDO
  g0 = f0
  g0 = v2
  v2 = (v1 * v0)
  g3 = max(la(6), la(3))
  CALL proc225(4, (0 + (-5 / (2 + 4))))
END

SUBROUTINE proc225(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, ((la(8) + -2) - (la(1) / (4 + la(7))))
  g2 = 4
  f1 = max(g2, la(3))
  g1 = 4
  g2 = f0
  v1 = abs((5 / (6 + g2)))
  CALL proc226((f0 + 1), v1)
END

SUBROUTINE proc226(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 4
  v2 = 14
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = (la(6) - (13 * 3))
  g0 = abs((4 / (3 + 0)))
  CALL proc227((0 + (la(1) * 15)))
END

SUBROUTINE proc227(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = la(10)
  IF (mod(-4, 4) .LT. la(6) .OR. 1 .GE. la(1)) f0 = (12 / (5 + 5))
  IF (.NOT. ((-4 * la(10)) .GT. 13)) THEN
    la(10) = (la(5) + mod(0, 8))
    g1 = 4
  ELSE
    f0 = (mod(15, 6) * g2)
  ENDIF
  PRINT *, -4
  v0 = ((14 + -2) + la(1))
  f0 = (mod(7, 5) / (4 + la(1)))
  la(3) = la(9)
  CALL proc228(7, f0)
END

SUBROUTINE proc228(f0, f1)
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
  CALL proc229(5)
END

SUBROUTINE proc229(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = (-4 - max(10, f0))
  CALL proc230(4)
END

SUBROUTINE proc230(f0)
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
  CALL proc231((f0 + 1))
END

SUBROUTINE proc231(f0)
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
  CALL proc232((f0 + 1), v1)
END

SUBROUTINE proc232(f0, f1)
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
  CALL proc233(3, 6)
END

SUBROUTINE proc233(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 11
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = v2
  v1 = abs(3)
  IF (abs(-1) .GT. (f0 - la(12)) .AND. la(7) .LE. (la(6) + 10)) g1 = abs(la(9))
  DO g2 = 2, 2
    v2 = (g0 - 2)
  ENDDO
  IF (f1 .NE. abs(-3)) THEN
    IF (.NOT. (11 .LT. 9)) THEN
      f1 = (max(v0, la(9)) + 12)
    ELSE
      la(1) = 9
    ENDIF
  ELSE
    g3 = la(2)
    IF ((10 * la(5)) .LE. 1 .OR. la(4) .NE. max(g3, 12)) THEN
      g3 = (la(12) * 14)
    ELSE
      v0 = la(10)
    ENDIF
  ENDIF
  IF (-5 .LE. mod(v2, 5)) f1 = v0
  la(10) = v0
  g1 = -2
  CALL proc234((0 + la(10)))
END

SUBROUTINE proc234(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 6
  v2 = 10
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((0 + -2) .LT. 15) g2 = -2
  DO g0 = 2, 3
    v1 = la(2)
    v0 = g3
  ENDDO
  g0 = 9
  v2 = 2
  IF ((g3 * 1) .LE. 2 .OR. la(7) .NE. abs(15)) THEN
    g0 = la(3)
  ELSE
    g0 = la(11)
    f0 = 11
  ENDIF
  IF (6 .NE. g1 .OR. g0 .LT. 6) THEN
    DO f0 = 3, 7
      v1 = max(7, la(3))
      g1 = v0
    ENDDO
    IF (max(v0, -2) .EQ. 4 .AND. (15 * 10) .NE. (la(2) / (5 + 8))) f0 = 0
  ENDIF
  PRINT *, 6
  CALL proc235((f0 + 1), v1)
END

SUBROUTINE proc235(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 0
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = -3
  f1 = (f0 * la(5))
  g0 = ((0 / (4 + -1)) * 0)
  IF (5 .LE. 9 .AND. 1 .GT. v2) THEN
    f1 = abs(f1)
  ELSE
    IF (mod(6, 3) .GE. 7 .OR. -1 .LE. -4) THEN
      IF (.NOT. (la(8) .LT. max(6, 12))) f0 = abs(-1)
    ENDIF
  ENDIF
  v2 = abs(f0)
  v2 = ((0 * 2) - max(la(6), v1))
  IF (abs(8) .EQ. max(13, la(5)) .AND. -2 .NE. (-3 * 2)) g1 = (f1 * 4)
  IF (abs(9) .NE. 5 .AND. la(8) .LT. la(7)) THEN
    DO g2 = 1, 5
      f0 = ((v0 + 14) / (5 + la(6)))
    ENDDO
    PRINT *, v1
  ENDIF
  f1 = ((la(11) - 1) / (6 + 1))
  f0 = f0
  CALL proc236((0 + la(3)), 10)
END

SUBROUTINE proc236(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 14
  v2 = 10
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = (2 - 0)
  la(11) = g3
  v2 = 1
  g1 = (-4 + -2)
  IF (.NOT. (la(1) .GE. (la(11) + 0))) THEN
    IF (la(7) .GT. 4 .AND. la(2) .GT. la(1)) THEN
      v3 = ((la(2) * v0) / (5 + -5))
    ENDIF
  ELSE
    g2 = 13
    g3 = (la(1) - (4 + la(3)))
  ENDIF
  la(3) = -1
  la(7) = (g0 * v2)
  IF (12 .GE. abs(la(3)) .AND. v1 .NE. f1) g1 = 0
  CALL proc237(7)
END

SUBROUTINE proc237(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = g3
  g2 = 15
  g1 = 11
  g2 = abs((14 - -2))
  PRINT *, abs(v1)
  CALL proc238((0 + max(9, -1)))
END

SUBROUTINE proc238(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(1) = (15 * 0)
  g1 = la(4)
  g3 = ((5 * 3) - mod(5, 6))
  v0 = v1
  g2 = (3 / (3 + 13))
  v0 = (abs(15) + 3)
  IF (.NOT. ((g1 - la(7)) .EQ. 14)) f0 = v1
  v1 = la(7)
  CALL proc239(4)
END

SUBROUTINE proc239(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 7
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(7) = 14
  f0 = 9
  g0 = g1
  IF (mod(g1, 6) .GE. (g3 - -3) .AND. (v2 - 6) .NE. 5) g3 = mod(la(10), 8)
  la(1) = -2
  DO g3 = 0, 4
    DO v2 = 3, 3
      f0 = (g1 / (5 + 9))
    ENDDO
    v2 = la(6)
  ENDDO
  IF (.NOT. (mod(la(2), 6) .LE. (v2 + g0))) THEN
    IF (la(12) .LT. 8 .AND. la(12) .LT. (15 + la(9))) THEN
      g2 = mod((-1 - g3), 8)
    ENDIF
  ENDIF
  CALL proc240((f0 + 1))
END

SUBROUTINE proc240(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 13
  g1 = (mod(la(2), 2) * la(8))
  v2 = -3
  g1 = mod(la(4), 2)
  CALL proc241((0 + (v1 * la(2))), v2)
END

SUBROUTINE proc241(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = abs((-3 * -1))
  CALL proc242((f0 + 1))
END

SUBROUTINE proc242(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g3 = 0, 2
    IF (.NOT. ((g1 - 14) .GT. 4)) THEN
      f0 = (-3 * g1)
      la(2) = max(v1, 3)
    ENDIF
    la(12) = f0
  ENDDO
  CALL proc243(5, 1)
END

SUBROUTINE proc243(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 12
  v2 = 1
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = -1
  IF ((v1 * -2) .GE. la(4) .OR. 4 .NE. (0 - la(8))) THEN
    IF (.NOT. (v2 .LE. g3)) THEN
      la(5) = 11
      v2 = 14
    ELSE
      v3 = 5
      g3 = -1
    ENDIF
  ENDIF
  CALL proc244((f0 + 1), v2)
END

SUBROUTINE proc244(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((10 / (5 + 8)) .EQ. max(g3, -1)) v0 = f0
  IF (max(v1, 12) .GE. (v0 * 8) .AND. g1 .GT. (g3 * 9)) f1 = v0
  IF (.NOT. (g1 .GE. 8)) THEN
    f0 = (g1 / (2 + 9))
  ENDIF
  PRINT *, (abs(f1) * la(8))
  la(9) = ((g0 + g0) - g3)
  IF (7 .LT. v0) g0 = (la(5) - la(11))
  g2 = (abs(2) + abs(g2))
  IF (f0 .LT. g2 .AND. la(7) .LT. -2) f1 = mod(3, 7)
  g3 = ((la(2) - 7) - la(12))
  CALL proc245(2, v0)
END

SUBROUTINE proc245(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 6
  IF (.NOT. (abs(la(2)) .EQ. v2)) THEN
    IF (-3 .LT. abs(g3)) THEN
      g3 = v1
      PRINT *, 3
    ELSE
      PRINT *, -2
      v2 = 6
    ENDIF
    PRINT *, (g2 * la(12))
  ENDIF
  g2 = 11
  IF (6 .GE. v2 .AND. 2 .LE. (5 + f1)) THEN
    DO g2 = 3, 7
      g0 = -3
      v2 = v2
    ENDDO
    IF (la(4) .LT. abs(-1)) THEN
      g2 = ((2 - 3) - g3)
      v2 = (la(6) - max(la(6), 12))
    ELSE
      v0 = la(8)
    ENDIF
  ENDIF
  DO g2 = 3, 5
    DO g0 = 0, 4
      la(12) = mod((10 - 13), 5)
    ENDDO
  ENDDO
  PRINT *, (g2 - 1)
  f1 = (max(3, 1) * -1)
  CALL proc246((0 + 14), (0 + la(4)))
END

SUBROUTINE proc246(f0, f1)
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
  CALL proc247((0 + 2))
END

SUBROUTINE proc247(f0)
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
  CALL proc248((0 + 4))
END

SUBROUTINE proc248(f0)
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
  CALL proc249(4, (0 + max(la(10), 1)))
END

SUBROUTINE proc249(f0, f1)
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
  CALL proc250(4, f0)
END

SUBROUTINE proc250(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(1) .GE. 6 .OR. (la(9) + 10) .GE. -4) v0 = v0
  v0 = (abs(4) - -4)
  IF (mod(-2, 2) .NE. abs(2) .AND. 5 .EQ. 0) g2 = 3
  la(2) = g1
  PRINT *, g3
  g3 = abs(8)
  g3 = 1
  CALL proc251((0 + v1), (0 + (-3 * la(8))))
END

SUBROUTINE proc251(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 1
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = 7
  DO f0 = 1, 2
    la(1) = g1
    DO v3 = 3, 4
      PRINT *, 8
      g3 = max(la(5), g1)
    ENDDO
  ENDDO
  g2 = (7 / (5 + v2))
  g0 = (12 - 15)
  g2 = ((g2 * g0) - (8 * la(6)))
  IF ((14 - 0) .EQ. 2 .AND. 0 .GE. 6) THEN
    g3 = v3
    v0 = max(g0, la(2))
  ENDIF
  g0 = (mod(-3, 7) - (11 * v2))
  v3 = ((g3 + la(1)) / (5 + 9))
  PRINT *, f0
  g3 = (max(-5, 7) / (3 + 14))
  CALL proc252(2)
END

SUBROUTINE proc252(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = (f0 + 15)
  CALL proc253((f0 + 1))
END

SUBROUTINE proc253(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = -3
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((g0 - g3) .GE. 1) g1 = g2
  IF (.NOT. ((v0 + -5) .GE. (0 + 13))) THEN
    DO v0 = 0, 0
      v3 = g0
      g1 = 0
    ENDDO
  ENDIF
  PRINT *, abs(max(11, g3))
  PRINT *, 9
  CALL proc254(5, (0 + 15))
END

SUBROUTINE proc254(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = ((9 + 13) - (v0 + 5))
  IF (f1 .GT. (-5 * v1)) v1 = mod(la(11), 8)
  la(12) = (11 - (v1 / (4 + 15)))
  DO g2 = 1, 5
    la(5) = mod(la(9), 7)
    f0 = abs(mod(-1, 7))
  ENDDO
  g1 = ((14 + la(10)) + mod(9, 5))
  g2 = max(la(2), 14)
  CALL proc255((f0 + 1))
END

SUBROUTINE proc255(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 11
  v2 = -1
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = max(3, v0)
  CALL proc256((f0 + 1))
END

SUBROUTINE proc256(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -1
  v2 = -2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v3 = 3
  v0 = (-4 * 7)
  IF (.NOT. (-4 .LT. (la(6) + 14))) THEN
    IF ((v3 + 13) .GE. -5) THEN
      g0 = max(f0, la(6))
    ELSE
      la(10) = 7
    ENDIF
    g0 = (abs(3) - mod(5, 3))
  ELSE
    DO g2 = 2, 4
      v2 = mod((g3 / (5 + la(2))), 5)
      la(10) = ((la(5) * -2) + f0)
    ENDDO
    f0 = (mod(3, 2) * 7)
  ENDIF
  PRINT *, v1
  IF (.NOT. ((la(2) / (4 + 10)) .EQ. mod(la(8), 3))) THEN
    DO f0 = 0, 0
      v3 = ((la(6) - 13) + (-3 * f0))
    ENDDO
  ENDIF
  IF (mod(-2, 2) .EQ. f0 .OR. (g0 / (3 + 0)) .GT. mod(2, 5)) THEN
    g1 = (abs(8) * 6)
  ENDIF
  CALL proc257((0 + 15), f0)
END

SUBROUTINE proc257(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 8
  v2 = 10
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v3 = ((la(4) + f1) + la(6))
  IF (mod(la(1), 8) .LT. (6 / (5 + v3))) THEN
    g1 = 7
  ELSE
    IF (.NOT. (5 .GT. (v1 / (3 + f0)))) f0 = max(-5, 1)
    v1 = 4
  ENDIF
  IF (la(5) .GE. la(10)) g0 = max(-5, g1)
  v2 = la(1)
  la(3) = (la(12) + -3)
  g1 = (g0 / (6 + -2))
  CALL proc258((0 + abs(11)), 3)
END

SUBROUTINE proc258(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 12
  v2 = -2
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, -5
  CALL proc259((0 + 5), (0 + 14))
END

SUBROUTINE proc259(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 12
  f1 = (la(1) + g0)
  PRINT *, 13
  CALL proc260(6)
END

SUBROUTINE proc260(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -4
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 9
  v0 = -3
  CALL proc261(5)
END

SUBROUTINE proc261(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = la(6)
  v0 = abs((12 / (3 + la(5))))
  CALL proc262((0 + (v1 / (3 + -5))), v1)
END

SUBROUTINE proc262(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 4
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = v2
  la(4) = la(4)
  IF (max(3, 15) .NE. la(6) .AND. (2 - -1) .GT. la(11)) THEN
    PRINT *, mod(9, 5)
  ENDIF
  v2 = (f0 / (6 + la(9)))
  IF (.NOT. (-3 .GE. (-4 * f1))) THEN
    PRINT *, -1
    PRINT *, la(11)
  ENDIF
  DO v1 = 1, 1
    g3 = la(12)
  ENDDO
  f1 = max(la(10), la(2))
  v1 = v2
  IF (.NOT. (v1 .LE. la(5))) f1 = 11
  v0 = abs(la(11))
  CALL proc263((f0 + 1))
END

SUBROUTINE proc263(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -3
  v2 = 3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (6 .GE. (g0 * v3))) THEN
    IF ((la(12) + 3) .LT. f0) THEN
      la(8) = ((la(6) / (5 + 5)) / (6 + 9))
      v3 = 13
    ELSE
      la(7) = mod(max(-4, la(5)), 7)
    ENDIF
    v3 = max(la(4), la(10))
  ENDIF
  f0 = ((v1 / (3 + g3)) + (la(11) - la(9)))
  g3 = 14
  g2 = (la(11) * g3)
  PRINT *, mod((la(11) * 4), 8)
  la(7) = (la(6) + (15 - 3))
  PRINT *, max(v3, 15)
  IF ((v2 - 2) .LT. 10) v3 = (la(5) * -3)
  CALL proc264((0 + abs(-5)), -2)
END

SUBROUTINE proc264(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = abs(max(f0, -3))
  IF (.NOT. ((4 / (3 + 8)) .EQ. -1)) THEN
    v1 = abs(-2)
  ELSE
    v0 = (abs(g2) - mod(15, 6))
    PRINT *, (mod(la(7), 7) + 2)
  ENDIF
  IF (mod(-2, 6) .LT. la(9) .AND. -5 .GE. (3 - 3)) g0 = (g3 + f0)
  la(4) = la(9)
  f0 = -4
  IF (-5 .LT. mod(v0, 7)) THEN
    g3 = max(f0, 10)
  ENDIF
  g2 = 15
  g0 = abs((3 * 9))
  PRINT *, la(9)
  f0 = mod((11 / (3 + f1)), 7)
  CALL proc265(3, (0 + abs(14)))
END

SUBROUTINE proc265(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = (mod(la(7), 8) * la(9))
  g3 = 10
  la(6) = ((-4 / (3 + la(2))) / (5 + la(8)))
  DO f1 = 1, 4
    PRINT *, max(-1, la(7))
    g0 = la(5)
  ENDDO
  v0 = abs(-4)
  CALL proc266(2, (0 + mod(v1, 5)))
END

SUBROUTINE proc266(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = f1
  IF ((la(4) / (6 + 13)) .GE. max(4, f1)) f0 = (11 + la(9))
  la(4) = ((f0 + f0) * f0)
  v1 = (abs(15) * g2)
  IF (.NOT. ((la(12) + la(3)) .EQ. abs(v0))) THEN
    v1 = mod(la(5), 5)
  ELSE
    PRINT *, 7
  ENDIF
  CALL proc267((f0 + 1))
END

SUBROUTINE proc267(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -3
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 8
  DO v1 = 2, 3
    DO v0 = 1, 1
      IF (la(6) .GT. 4) g0 = 6
    ENDDO
  ENDDO
  PRINT *, 9
  v2 = -4
  g1 = (g0 - mod(g2, 7))
  CALL proc268(6)
END

SUBROUTINE proc268(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v0 = 0, 0
    g0 = la(8)
    la(3) = 4
  ENDDO
  DO g2 = 3, 6
    PRINT *, abs((8 / (2 + 5)))
  ENDDO
  DO g2 = 0, 4
    g3 = ((f0 * g1) * 8)
  ENDDO
  g2 = v0
  DO g3 = 1, 5
    f0 = v0
  ENDDO
  IF (.NOT. ((la(12) - 13) .LT. 3)) f0 = 15
  PRINT *, -3
  PRINT *, (la(6) + -1)
  v1 = la(9)
  v1 = abs(max(13, 3))
  CALL proc269((0 + (4 + 1)), f0)
END

SUBROUTINE proc269(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. ((g2 - la(1)) .EQ. g1)) g2 = g3
  la(7) = (mod(g1, 4) + abs(g0))
  DO g2 = 3, 3
    f0 = 10
  ENDDO
  IF (-2 .NE. -3 .OR. (g0 * 11) .LT. abs(la(3))) g0 = la(7)
  v1 = f0
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
  CALL proc272(3, f0)
END

SUBROUTINE proc272(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -1
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO f0 = 0, 4
    la(8) = abs(1)
  ENDDO
  PRINT *, 12
  la(9) = (mod(15, 8) / (4 + 10))
  PRINT *, -1
  IF ((la(4) * la(4)) .LE. (v1 / (4 + v0)) .AND. (3 - -5) .NE. (10 + f0)) THEN
    v2 = v0
    f0 = abs((3 + 7))
  ENDIF
  v1 = f0
  v0 = (mod(3, 6) - 6)
  CALL proc273(6)
END

SUBROUTINE proc273(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 14
  v2 = 11
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = -3
  DO f0 = 3, 5
    v2 = -3
    la(10) = la(12)
  ENDDO
  DO g3 = 1, 5
    v3 = 1
    la(1) = (max(la(11), v1) / (2 + 0))
  ENDDO
  IF ((-1 * -5) .GT. (g3 + la(5)) .AND. (14 - v0) .GT. 11) g2 = mod(-3, 6)
  g1 = (8 * la(12))
  g3 = 3
  v0 = (abs(g3) + la(10))
  CALL proc274((0 + la(3)))
END

SUBROUTINE proc274(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = ((la(6) / (4 + g3)) * la(3))
  DO g2 = 0, 1
    IF (la(2) .LE. (-1 + -1)) THEN
      IF ((g3 - la(6)) .NE. mod(la(12), 8) .OR. g3 .NE. la(11)) g0 = la(7)
      g1 = 5
    ELSE
      v0 = mod(-5, 2)
    ENDIF
    f0 = -1
  ENDDO
  DO v0 = 1, 2
    f0 = v1
  ENDDO
  PRINT *, la(7)
  g1 = 14
  IF ((-2 / (5 + 9)) .GE. (la(5) * la(9)) .AND. mod(f0, 2) .LT. (8 * 1)) THEN
    DO g0 = 3, 6
      v0 = mod((8 / (4 + 1)), 3)
    ENDDO
    v1 = max(8, -2)
  ENDIF
  IF (mod(5, 6) .LE. 12) f0 = (la(9) / (5 + la(6)))
  g1 = (mod(4, 4) + abs(la(7)))
  CALL proc275((0 + (-3 / (3 + 1))), -3)
END

SUBROUTINE proc275(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 2
  v2 = 14
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = 8
  g1 = (max(v1, la(8)) + max(6, g3))
  v0 = ((f0 * la(1)) - la(3))
  IF (.NOT. ((la(1) - -1) .GE. la(10))) THEN
    la(2) = ((v3 - -5) / (6 + 0))
  ELSE
    PRINT *, (9 - max(-5, 12))
    la(12) = g2
  ENDIF
  IF ((g1 * v1) .GT. mod(la(6), 5) .OR. (2 / (3 + 0)) .NE. max(la(4), 13)) THEN
    f0 = 11
  ELSE
    DO f1 = 0, 3
      g1 = -3
      v3 = (10 / (2 + g1))
    ENDDO
    v0 = abs(f0)
  ENDIF
  CALL proc276((f0 + 1), 10)
END

SUBROUTINE proc276(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 2
  v2 = 9
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = 8
  IF ((5 * g3) .LE. (7 + v3) .AND. (g1 / (5 + la(1))) .LE. abs(2)) f0 = abs(4)
  v2 = ((g3 * g3) / (5 + 8))
  g2 = abs((-2 - 2))
  IF (1 .EQ. v0 .AND. (9 * la(9)) .GT. mod(g0, 7)) THEN
    PRINT *, la(4)
  ENDIF
  v3 = max(v3, 6)
  v0 = la(2)
  PRINT *, (la(9) + 12)
  CALL proc277(3, 3)
END

SUBROUTINE proc277(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (la(9) * 3)
  DO g2 = 2, 2
    la(9) = 2
  ENDDO
  PRINT *, -2
  f0 = ((2 * 6) + -4)
  g0 = (12 + (9 + 3))
  f0 = la(6)
  la(11) = la(9)
  f0 = ((g0 / (4 + v0)) / (3 + la(5)))
  IF (5 .NE. 14 .OR. (v1 + 15) .LT. (1 * 5)) g1 = 1
  CALL proc278(4, f1)
END

SUBROUTINE proc278(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(2) .LE. abs(la(11))) THEN
    f0 = v0
    PRINT *, f1
  ELSE
    g2 = v0
  ENDIF
  f0 = 5
  IF (.NOT. (abs(la(10)) .LE. la(10))) g1 = abs(13)
  v1 = f1
  DO f1 = 0, 3
    g0 = (g2 - (g3 * 6))
  ENDDO
  CALL proc279(3, -3)
END

SUBROUTINE proc279(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = g3
  g2 = 12
  v0 = 3
  g3 = la(7)
  f0 = max(g2, -2)
  la(7) = abs(la(7))
  CALL proc280(6, -1)
END

SUBROUTINE proc280(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 8
  v2 = -2
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = la(11)
  DO v0 = 3, 3
    v2 = 14
  ENDDO
  la(6) = la(10)
  CALL proc281((f0 + 1))
END

SUBROUTINE proc281(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(9, la(6)) .GE. g0 .OR. v1 .GT. mod(f0, 4)) THEN
    DO g1 = 0, 3
      v1 = 9
      f0 = (la(4) * 9)
    ENDDO
  ELSE
    DO g0 = 3, 4
      PRINT *, 1
    ENDDO
    PRINT *, mod((v1 - 7), 4)
  ENDIF
  DO g3 = 0, 3
    IF (.NOT. (la(1) .LE. max(g0, -4))) THEN
      g2 = mod((la(8) - la(10)), 4)
    ELSE
      IF (.NOT. (abs(g3) .LT. 5)) g2 = f0
    ENDIF
  ENDDO
  g2 = (13 * 6)
  PRINT *, abs((g0 / (5 + g1)))
  g2 = la(8)
  g1 = 4
  v1 = 11
  la(1) = g3
  CALL proc282(2)
END

SUBROUTINE proc282(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = 12
  v2 = max(v0, 2)
  DO v2 = 2, 2
    DO g3 = 3, 4
      g2 = mod((v2 * -2), 3)
    ENDDO
  ENDDO
  g3 = -1
  IF (-5 .GT. (la(3) + la(1)) .OR. 15 .GE. la(7)) g1 = (v2 * -1)
  f0 = (la(10) - (11 - 8))
  IF (max(la(6), v2) .NE. (12 * la(1)) .OR. v2 .GT. (13 - la(5))) g0 = (la(2) - 6)
  CALL proc283((0 + (la(2) / (3 + la(9)))), -1)
END

SUBROUTINE proc283(f0, f1)
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
  CALL proc284(5, v1)
END

SUBROUTINE proc284(f0, f1)
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
  CALL proc285(5)
END

SUBROUTINE proc285(f0)
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
  CALL proc286((0 + la(11)))
END

SUBROUTINE proc286(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 0
  v2 = 1
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g2 = 2, 6
    f0 = g0
  ENDDO
  v2 = mod((v0 - 11), 5)
  PRINT *, g3
  v2 = (g3 + (8 + la(8)))
  v2 = v0
  la(7) = ((6 - la(2)) * 15)
  g0 = la(5)
  v1 = la(4)
  CALL proc287(7, 2)
END

SUBROUTINE proc287(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 5
  v2 = 1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v3 = 3, 6
    v2 = 12
    la(2) = abs(g2)
  ENDDO
  g1 = mod(-3, 5)
  v0 = max(la(12), 7)
  v0 = (max(g2, v2) + la(7))
  v1 = max(la(10), 2)
  v3 = mod(g0, 5)
  CALL proc288((f0 + 1), 8)
END

SUBROUTINE proc288(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 10
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (10 .LT. mod(la(12), 2) .AND. 0 .GT. la(10)) v0 = (la(6) / (5 + 11))
  g1 = mod(3, 3)
  f0 = max(g3, -4)
  DO g2 = 3, 6
    v2 = 5
  ENDDO
  CALL proc289((f0 + 1), -3)
END

SUBROUTINE proc289(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 0
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (9 .NE. 13 .AND. (la(6) + g3) .NE. mod(f0, 3)) f0 = 13
  DO v2 = 1, 5
    g3 = g3
    DO f1 = 1, 3
      f0 = mod(abs(la(1)), 6)
    ENDDO
  ENDDO
  PRINT *, abs(la(1))
  f0 = ((13 * la(2)) + v2)
  IF (.NOT. (-1 .GE. g1)) THEN
    PRINT *, max(10, 4)
  ELSE
    g1 = ((3 - f0) / (4 + g2))
  ENDIF
  v1 = 3
  v1 = (12 * 0)
  IF (.NOT. ((11 - la(6)) .GT. (6 - -5))) THEN
    IF (la(11) .GE. (-1 / (6 + la(2))) .OR. (15 * g0) .GE. (4 / (6 + 14))) v0 = 14
  ELSE
    IF (la(7) .LE. max(-2, -2) .OR. mod(9, 2) .EQ. 2) THEN
      f0 = la(11)
      IF (.NOT. (max(g1, g3) .EQ. (7 + la(2)))) v2 = abs(13)
    ELSE
      IF (7 .GT. (g0 + v1)) f1 = 9
      f0 = v2
    ENDIF
    PRINT *, 11
  ENDIF
  v1 = (max(5, -1) / (5 + la(7)))
  CALL proc290(3)
END

SUBROUTINE proc290(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, g0
  PRINT *, (la(7) / (6 + la(3)))
  v1 = abs((10 / (6 + la(2))))
  IF (mod(g0, 4) .LE. (10 - 2)) g1 = g0
  la(5) = (9 * 5)
  la(4) = 12
  CALL proc291((f0 + 1))
END

SUBROUTINE proc291(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g2 = 2, 2
    g0 = 3
    f0 = la(9)
  ENDDO
  f0 = 6
  IF (.NOT. ((g2 * la(12)) .LE. (la(8) * -3))) THEN
    PRINT *, 13
    f0 = g0
  ELSE
    f0 = (f0 / (6 + la(8)))
  ENDIF
  v0 = (g3 - mod(la(7), 2))
  v0 = (max(g0, g0) - (f0 / (3 + v1)))
  v1 = la(6)
  IF (0 .LE. (la(9) - v1) .OR. abs(f0) .LT. la(1)) v1 = (la(8) - g0)
  CALL proc292(7, 10)
END

SUBROUTINE proc292(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(6) - 3) .EQ. 12 .AND. (g1 * 3) .NE. (v2 * 1)) THEN
    IF (v2 .NE. (15 / (6 + la(5))) .OR. (f0 + la(9)) .EQ. 14) g2 = (v2 - la(6))
    g3 = mod((la(11) - 5), 4)
  ENDIF
  CALL proc293(5, v0)
END

SUBROUTINE proc293(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 13
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (la(12) .LT. (6 / (3 + v2)))) g2 = (g3 - g3)
  v1 = f1
  g3 = max(9, v1)
  PRINT *, -3
  IF (.NOT. ((g3 / (2 + v0)) .NE. mod(la(2), 5))) f0 = (2 - g1)
  PRINT *, abs(max(11, 9))
  f0 = (6 * 8)
  g1 = ((10 / (6 + g2)) * 14)
  CALL proc294((f0 + 1))
END

SUBROUTINE proc294(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 12
  v2 = 11
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = (abs(la(2)) * -1)
  IF (4 .LE. max(9, 7) .OR. la(1) .GE. g2) v3 = 0
  IF (.NOT. ((v2 / (5 + -1)) .NE. 15)) THEN
    g1 = 13
    IF ((la(12) / (6 + la(10))) .GT. max(la(6), 12) .AND. (2 / (2 + v3)) .LT. abs(la(7))) f0 = mod(-5, 2)
  ELSE
    DO v0 = 0, 2
      g0 = abs(mod(la(5), 3))
    ENDDO
    g1 = (v1 / (6 + -3))
  ENDIF
  v3 = abs((v3 - v3))
  g0 = (-3 / (6 + g2))
  CALL proc295((0 + 7))
END

SUBROUTINE proc295(f0)
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
  CALL proc296((0 + (4 / (6 + 15))), 4)
END

SUBROUTINE proc296(f0, f1)
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
  CALL proc297((f0 + 1), v1)
END

SUBROUTINE proc297(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 10
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(12)
  PRINT *, max(g1, 7)
  la(8) = la(5)
  PRINT *, max(3, g2)
  IF ((5 * 4) .GE. la(7) .AND. (la(1) + f0) .GT. f0) THEN
    g1 = g0
    f1 = 10
  ENDIF
  DO f0 = 2, 5
    f1 = -2
  ENDDO
  v0 = 5
  v1 = ((3 - la(10)) / (2 + v0))
  DO g0 = 0, 3
    g1 = (abs(8) * 14)
    la(9) = la(6)
  ENDDO
  v0 = v1
  CALL proc298(5)
END

SUBROUTINE proc298(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 11
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = ((la(4) * g1) * la(9))
  f0 = mod(v1, 2)
  CALL proc299(3)
END

SUBROUTINE proc299(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = (mod(f0, 3) + (10 + la(2)))
  IF ((-2 * la(12)) .LE. abs(la(8)) .AND. la(5) .NE. mod(g3, 5)) THEN
    v2 = abs(15)
  ELSE
    DO g0 = 3, 6
      IF (.NOT. (la(12) .LE. la(7))) v0 = la(8)
    ENDDO
  ENDIF
  v1 = max(v0, 3)
  f0 = 3
  v1 = 14
  g3 = v0
  IF ((la(10) / (4 + v0)) .NE. f0 .AND. abs(la(9)) .GT. -5) v2 = la(3)
  IF (abs(g1) .LE. la(11) .OR. (v1 / (4 + 14)) .LE. la(6)) g3 = 3
  CALL proc300((0 + g0), v2)
END

SUBROUTINE proc300(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (4 .GT. abs(13) .AND. g3 .LT. 1) THEN
    g2 = mod(mod(-1, 7), 8)
    g3 = max(v1, v1)
  ELSE
    g1 = ((7 * la(3)) + (la(8) - 7))
  ENDIF
  v1 = g0
  g2 = (mod(la(1), 4) + (14 + g2))
  IF (-1 .GE. 7) g3 = abs(-5)
  la(6) = (abs(v1) - la(2))
  CALL proc301((0 + (11 - la(3))))
END

SUBROUTINE proc301(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 14
  v2 = 10
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((2 * 14) .LE. 7 .AND. la(10) .GE. (v2 - -5)) THEN
    PRINT *, la(5)
  ELSE
    v2 = 9
  ENDIF
  f0 = (max(v2, -4) - (2 / (4 + la(8))))
  v2 = v3
  PRINT *, -5
  IF (la(1) .EQ. 7) v2 = 9
  v0 = (abs(-4) * 5)
  g3 = -1
  PRINT *, v3
  DO g1 = 1, 5
    v1 = abs(max(9, g1))
  ENDDO
  v1 = 9
  CALL proc302(4)
END

SUBROUTINE proc302(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -4
  v2 = -2
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = (la(5) - max(0, -4))
  PRINT *, (la(5) - g1)
  g2 = 15
  v2 = (abs(1) * 4)
  g2 = la(6)
  g0 = g1
  v3 = (la(8) * 7)
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
  CALL proc307((0 + 14))
END

SUBROUTINE proc307(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(12) .LT. la(2) .AND. (la(1) / (4 + 4)) .EQ. max(3, g0)) THEN
    v2 = 10
    f0 = abs(mod(12, 3))
  ENDIF
  v1 = ((v0 - la(5)) / (4 + 11))
  DO g2 = 1, 5
    g0 = -5
  ENDDO
  CALL proc308(3, (0 + -2))
END

SUBROUTINE proc308(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 13
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (mod(3, 5) * v2)
  DO v3 = 0, 2
    DO g0 = 2, 2
      la(11) = g1
    ENDDO
    la(3) = v3
  ENDDO
  CALL proc309(6)
END

SUBROUTINE proc309(f0)
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
  CALL proc310(5)
END

SUBROUTINE proc310(f0)
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
  CALL proc311(6)
END

SUBROUTINE proc311(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 13
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (2 .NE. abs(v1))) v3 = f0
  DO v1 = 2, 6
    PRINT *, ((-1 / (3 + la(11))) - abs(-2))
  ENDDO
  v0 = ((v1 * g0) / (5 + la(12)))
  v1 = (v1 - (la(11) + f0))
  g2 = mod((-1 * 6), 3)
  CALL proc312((0 + (-5 - la(7))), v1)
END

SUBROUTINE proc312(f0, f1)
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
  CALL proc313((0 + max(la(9), 14)))
END

SUBROUTINE proc313(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 0
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = v0
  DO g2 = 2, 6
    g0 = ((13 / (3 + la(12))) * 5)
    v1 = max(14, 4)
  ENDDO
  g0 = (mod(la(12), 6) / (3 + g0))
  f0 = mod(-2, 2)
  g1 = la(2)
  f0 = ((5 / (3 + g2)) - 1)
  IF (6 .LT. (-1 / (5 + 6))) v0 = max(g3, 4)
  g1 = la(5)
  g3 = 0
  v1 = 12
  CALL proc314(3, 8)
END

SUBROUTINE proc314(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 8
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = max(la(12), 13)
  IF (g2 .LT. -4 .AND. g2 .LE. (la(2) + la(10))) THEN
    DO v0 = 1, 1
      PRINT *, mod((7 / (6 + 3)), 4)
    ENDDO
  ELSE
    v2 = g1
    f1 = (2 + (8 * 6))
  ENDIF
  v1 = g0
  g2 = la(3)
  PRINT *, max(la(9), v0)
  IF (.NOT. ((la(1) / (5 + g0)) .GT. (6 / (5 + -3)))) g0 = mod(-5, 4)
  IF (abs(v0) .LE. (6 + la(6)) .OR. -1 .EQ. (v1 - g2)) THEN
    f1 = (f0 / (3 + 12))
    f0 = -2
  ENDIF
  g2 = max(la(6), 6)
  CALL proc315((f0 + 1), (0 + mod(-3, 2)))
END

SUBROUTINE proc315(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = max(la(9), la(2))
  IF ((13 * la(7)) .NE. 8) f0 = (5 / (2 + v1))
  la(6) = 7
  la(6) = la(12)
  CALL proc316((0 + (10 + la(7))))
END

SUBROUTINE proc316(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = g1
  IF (.NOT. ((v1 / (4 + 5)) .GT. (g3 - la(12)))) g2 = -3
  g2 = la(6)
  CALL proc317(6)
END

SUBROUTINE proc317(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 0
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, abs((5 / (4 + -4)))
  la(7) = (mod(la(3), 2) - (la(8) + f0))
  g2 = max(3, la(5))
  PRINT *, 7
  la(1) = (abs(la(9)) / (4 + la(8)))
  v1 = -5
  la(5) = 5
  CALL proc318((f0 + 1), (0 + la(1)))
END

SUBROUTINE proc318(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 6
  v2 = -4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = 5
  v1 = mod(max(g3, 14), 2)
  CALL proc319(2, 8)
END

SUBROUTINE proc319(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = la(9)
  la(5) = abs(11)
  g2 = mod((8 * g0), 5)
  v0 = g1
  g0 = g3
  g0 = v1
  g2 = mod(v1, 6)
  CALL proc320((f0 + 1), v0)
END

SUBROUTINE proc320(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(10) = g2
  PRINT *, f1
  IF (-2 .EQ. (f0 + 12) .AND. la(10) .EQ. (6 - 2)) THEN
    g2 = v1
    f0 = 5
  ENDIF
  IF ((1 * f0) .LE. 11) THEN
    la(11) = (v2 / (6 + la(7)))
  ENDIF
  IF (.NOT. (10 .NE. 4)) THEN
    IF (v1 .GE. la(1) .OR. 12 .GT. -4) v2 = g3
  ELSE
    f0 = la(10)
  ENDIF
  f1 = max(9, la(1))
  g0 = 3
  DO g3 = 2, 3
    PRINT *, v0
  ENDDO
  PRINT *, mod((v2 * g3), 8)
  CALL proc321(4, (0 + max(2, 5)))
END

SUBROUTINE proc321(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = (-4 + max(-4, g1))
  DO f0 = 0, 2
    PRINT *, 8
  ENDDO
  g3 = 11
  v0 = la(8)
  CALL proc322(3)
END

SUBROUTINE proc322(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = max(15, la(4))
  g0 = la(6)
  IF (abs(la(5)) .NE. (la(1) / (3 + -3)) .AND. abs(0) .GT. max(la(10), la(9))) THEN
    g1 = la(2)
    f0 = (mod(-1, 4) * g3)
  ELSE
    IF (g3 .GE. la(10) .OR. (g2 * -3) .NE. (v0 * la(7))) THEN
      v0 = ((-3 * g2) / (5 + f0))
    ENDIF
  ENDIF
  v1 = 3
  IF (abs(9) .LT. mod(-3, 7) .OR. 4 .NE. abs(4)) THEN
    DO g3 = 3, 5
      g2 = abs(g1)
      g0 = abs((la(5) + f0))
    ENDDO
    g0 = 10
  ENDIF
  DO v1 = 2, 3
    IF ((la(12) + 13) .LT. 2) THEN
      PRINT *, (4 + la(7))
    ENDIF
    IF ((la(8) / (5 + la(10))) .EQ. abs(la(2))) g2 = 0
  ENDDO
  g2 = 12
  IF (abs(-1) .GE. (-2 - 2) .AND. mod(3, 8) .NE. 15) THEN
    v1 = g1
  ELSE
    g1 = la(11)
  ENDIF
  g3 = ((10 + 2) - (g1 - 2))
  CALL proc323((0 + mod(1, 4)))
END

SUBROUTINE proc323(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (-4 / (2 + la(1)))
  g1 = 6
  g2 = g0
  f0 = la(9)
  IF (.NOT. (la(8) .LT. max(la(11), g0))) THEN
    PRINT *, mod(g3, 3)
  ENDIF
  DO g2 = 3, 4
    v1 = v0
  ENDDO
  IF (g0 .NE. v0) g3 = la(6)
  g2 = (10 - la(9))
  g3 = (la(1) / (3 + g1))
  CALL proc324(7, v0)
END

SUBROUTINE proc324(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = ((g2 - la(4)) * v2)
  g2 = max(-2, 6)
  IF (la(5) .GE. 9) v1 = (6 / (4 + v2))
  CALL proc325((f0 + 1))
END

SUBROUTINE proc325(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 11
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = -1
  la(12) = -2
  DO v2 = 3, 4
    DO v1 = 0, 1
      f0 = max(g1, la(5))
    ENDDO
    la(1) = abs(-4)
  ENDDO
  PRINT *, g0
  g0 = 5
  CALL proc326((0 + (f0 / (3 + v2))), (0 + v0))
END

SUBROUTINE proc326(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 10
  v2 = 6
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = ((la(12) * 0) - g3)
  IF (abs(4) .LE. (g2 + 15) .AND. la(8) .EQ. max(la(11), 10)) v1 = la(10)
  CALL proc327(7, 11)
END

SUBROUTINE proc327(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 1
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = abs(f1)
  PRINT *, abs(la(12))
  DO f0 = 1, 2
    IF (abs(la(10)) .GE. 12 .AND. la(4) .EQ. 15) v1 = (g3 + 6)
  ENDDO
  IF (.NOT. (abs(la(3)) .GE. (-1 - la(5)))) THEN
    PRINT *, (abs(g3) - la(9))
  ENDIF
  g2 = la(9)
  v2 = ((la(8) - v1) - la(4))
  CALL proc328((f0 + 1))
END

SUBROUTINE proc328(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -3
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = la(3)
  g3 = ((14 - -1) * 15)
  CALL proc329((f0 + 1))
END

SUBROUTINE proc329(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 2
  v2 = -4
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (v2 .GE. (f0 - 8) .AND. (5 / (6 + la(2))) .EQ. v2) g3 = 13
  f0 = (-1 + (12 / (3 + la(8))))
  g0 = (f0 - max(-4, 14))
  IF ((0 * f0) .NE. (v1 - 12) .OR. 12 .GT. (15 - 15)) THEN
    g0 = la(1)
    la(8) = f0
  ELSE
    PRINT *, 12
  ENDIF
  v3 = la(6)
  v0 = (abs(g3) / (6 + 7))
  CALL proc330(4)
END

SUBROUTINE proc330(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 8
  v2 = 12
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = 2
  CALL proc331(4)
END

SUBROUTINE proc331(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = -4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. ((la(9) * la(8)) .LT. mod(la(2), 3))) v3 = g0
  PRINT *, max(2, 6)
  f0 = (abs(7) - 15)
  DO g1 = 3, 5
    la(4) = (g1 - max(1, 15))
  ENDDO
  DO v0 = 2, 3
    v2 = v2
  ENDDO
  PRINT *, 6
  g2 = g1
  g0 = v1
  IF ((v3 - la(7)) .EQ. abs(v3)) v2 = max(10, 15)
  CALL proc332(3, v2)
END

SUBROUTINE proc332(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = max(6, g2)
  la(5) = mod(la(12), 7)
  f0 = abs(-5)
END

SUBROUTINE proc333(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 12
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = ((la(2) * -2) / (3 + 12))
  DO g1 = 0, 3
    g3 = (la(7) - mod(g0, 4))
    IF (-4 .NE. g0 .OR. 13 .NE. g3) THEN
      PRINT *, g2
    ELSE
      v1 = (max(la(3), la(12)) / (4 + g3))
    ENDIF
  ENDDO
  v2 = 3
  g3 = (mod(la(2), 6) / (6 + la(10)))
  v0 = abs(la(4))
  g2 = 0
  CALL proc334(5, 2)
  CALL proc339((0 + v1), (0 + abs(4)))
  CALL proc345(2)
  CALL proc351(2, v2)
  CALL proc357((0 + la(5)), 4)
  CALL proc363((0 + v2))
  CALL proc369((0 + -1))
  CALL proc375((0 + (0 + g2)), v0)
  CALL proc381(2)
  CALL proc387(6)
  CALL proc393((0 + (5 * 9)), (0 + g3))
  CALL proc399((0 + g3))
  CALL proc405(6, (0 + 4))
  CALL proc411((0 + (11 + 9)), f0)
  CALL proc417((f0 + 1), (0 + g2))
  CALL proc423(3, f0)
  CALL proc429((0 + 13), (0 + max(0, g0)))
  CALL proc435((0 + la(2)))
  CALL proc441(2)
  CALL proc447((f0 + 1), 7)
  CALL proc453((0 + mod(10, 4)))
  CALL proc459((f0 + 1), v0)
  CALL proc465(4)
  CALL proc471(6, -1)
  CALL proc477(7, f0)
  CALL proc483((0 + abs(5)), (0 + mod(la(4), 4)))
  CALL proc489(3, 11)
  CALL proc495((f0 + 1), v2)
  CALL proc501((f0 + 1))
  CALL proc507(4, v1)
  CALL proc513(5, -1)
  CALL proc519(2)
  CALL proc525(7)
  CALL proc531(5)
  CALL proc537(4, (0 + mod(f0, 2)))
  CALL proc543((0 + g3), (0 + g1))
  CALL proc549(3, v2)
  CALL proc555(4, v1)
  CALL proc561((f0 + 1))
  CALL proc567((0 + 5), f0)
  CALL proc573((f0 + 1), f0)
  CALL proc579(5, v2)
  CALL proc585(6, (0 + la(1)))
  CALL proc591(2)
  CALL proc597((f0 + 1))
  CALL proc603(6)
  CALL proc609((f0 + 1), 10)
  CALL proc615((f0 + 1), 5)
  CALL proc621(7, 4)
  CALL proc627(6)
  CALL proc633(2, 9)
  CALL proc639(4)
  CALL proc645(4, 5)
  CALL proc651((f0 + 1))
  CALL proc657((f0 + 1), v2)
  CALL proc663(6, 1)
END

SUBROUTINE proc334(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = la(12)
  g1 = mod(4, 2)
  v1 = la(6)
  DO g3 = 3, 5
    v0 = ((la(10) * la(1)) * la(3))
  ENDDO
  la(10) = 11
  CALL proc335(6)
  CALL proc340((0 + max(-3, f1)))
  CALL proc346((0 + g1))
  CALL proc352((f0 + 1))
  CALL proc358((f0 + 1), f0)
  CALL proc364(7)
  CALL proc370((0 + 6))
  CALL proc376(5)
  CALL proc382((f0 + 1))
  CALL proc388(2, f1)
  CALL proc394(4)
  CALL proc400(6)
  CALL proc406((f0 + 1))
  CALL proc412((f0 + 1))
  CALL proc418((0 + (g2 / (6 + 4))))
  CALL proc424((0 + max(v1, 10)))
  CALL proc430((0 + (1 / (6 + la(7)))), (0 + (0 * 0)))
  CALL proc436(4, v0)
  CALL proc442((f0 + 1))
  CALL proc448(7, (0 + -2))
  CALL proc454(3)
  CALL proc460((f0 + 1))
  CALL proc466((f0 + 1))
  CALL proc472(4)
  CALL proc478(2, v1)
  CALL proc484((0 + -2))
  CALL proc490(6, v1)
  CALL proc496(3, (0 + 2))
  CALL proc502((0 + max(-2, 4)), (0 + la(8)))
  CALL proc508(6, f1)
  CALL proc514(3)
  CALL proc520(2, 5)
  CALL proc526(7, 5)
  CALL proc532(4)
  CALL proc538((0 + (5 + 3)), 9)
  CALL proc544(3)
  CALL proc550(7)
  CALL proc556((0 + v0), 9)
  CALL proc562((0 + (11 * -1)))
  CALL proc568((0 + la(6)), v1)
  CALL proc574(7, 7)
  CALL proc580(6, v0)
  CALL proc586((f0 + 1))
  CALL proc592(7, (0 + 5))
  CALL proc598(6)
  CALL proc604(7, (0 + la(9)))
  CALL proc610((0 + (-2 + la(11))), f1)
  CALL proc616((f0 + 1))
  CALL proc622(2, 7)
  CALL proc628(4, 6)
  CALL proc634((0 + mod(14, 6)), 4)
  CALL proc640((f0 + 1))
  CALL proc646((f0 + 1), f0)
  CALL proc652((f0 + 1))
  CALL proc658((0 + v1), 2)
  CALL proc664(3)
END

SUBROUTINE proc335(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 8
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = max(-2, la(7))
  g3 = (7 * -4)
  IF (abs(7) .LT. -2) g1 = (g2 * f0)
  DO f0 = 0, 1
    PRINT *, 7
  ENDDO
  g1 = la(4)
  f0 = 2
  CALL proc336(4, f0)
  CALL proc341((f0 + 1))
  CALL proc347((f0 + 1), v1)
  CALL proc353(5, v0)
  CALL proc359(2)
  CALL proc365((f0 + 1))
  CALL proc371(6, 10)
  CALL proc377(4, v0)
  CALL proc383(7, f0)
  CALL proc389(5)
  CALL proc395(2, v1)
  CALL proc401((f0 + 1), v2)
  CALL proc407(3, (0 + 3))
  CALL proc413(7, f0)
  CALL proc419((f0 + 1))
  CALL proc425((f0 + 1), v2)
  CALL proc431((f0 + 1), v0)
  CALL proc437((0 + (la(7) + la(11))))
  CALL proc443((f0 + 1), (0 + -3))
  CALL proc449((0 + 0))
  CALL proc455(7, 11)
  CALL proc461((f0 + 1), 9)
  CALL proc467((0 + (la(3) / (3 + g2))))
  CALL proc473((0 + abs(11)), v0)
  CALL proc479((f0 + 1), v0)
  CALL proc485(7)
  CALL proc491((0 + la(7)))
  CALL proc497(7)
  CALL proc503(7, (0 + 8))
  CALL proc509(2, v1)
  CALL proc515(7)
  CALL proc521(4, v1)
  CALL proc527(6, 0)
  CALL proc533((0 + (4 / (4 + g1))))
  CALL proc539((0 + la(7)))
  CALL proc545(6, v1)
  CALL proc551((f0 + 1), v1)
  CALL proc557((0 + v0), f0)
  CALL proc563((0 + g2))
  CALL proc569((0 + (12 * 7)), (0 + abs(3)))
  CALL proc575(5)
  CALL proc581((f0 + 1))
  CALL proc587(7, 5)
  CALL proc593(5, v2)
  CALL proc599(3)
  CALL proc605((f0 + 1))
  CALL proc611((f0 + 1))
  CALL proc617((f0 + 1))
  CALL proc623(6, (0 + la(5)))
  CALL proc629((0 + (-4 + v2)), f0)
  CALL proc635(4)
  CALL proc641(6)
  CALL proc647(6, (0 + (10 * 8)))
  CALL proc653((0 + (2 - 5)), v1)
  CALL proc659((f0 + 1))
  CALL proc665(3)
END

SUBROUTINE proc336(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 3
  v2 = 6
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (v1 .GT. 9)) THEN
    f1 = ((f1 / (2 + 8)) - (g1 - g0))
  ELSE
    g1 = (mod(v0, 7) - f1)
    f0 = (7 - 4)
  ENDIF
  g0 = v0
  v1 = (mod(0, 5) * v1)
  CALL proc337(3, v3)
  CALL proc342((0 + abs(la(1))), (0 + la(12)))
  CALL proc348(7, (0 + mod(8, 2)))
  CALL proc354((f0 + 1), (0 + la(6)))
  CALL proc360(4, (0 + la(2)))
  CALL proc366((f0 + 1))
  CALL proc372(7)
  CALL proc378(4)
  CALL proc384((0 + mod(10, 8)), (0 + la(12)))
  CALL proc390((f0 + 1))
  CALL proc396((f0 + 1))
  CALL proc402((f0 + 1))
  CALL proc408((f0 + 1))
  CALL proc414(6)
  CALL proc420(4)
  CALL proc426((0 + 2), -3)
  CALL proc432((0 + (2 - 12)), 5)
  CALL proc438((0 + (13 + la(9))))
  CALL proc444(5)
  CALL proc450((f0 + 1), f0)
  CALL proc456((f0 + 1))
  CALL proc462((f0 + 1), v2)
  CALL proc468(4)
  CALL proc474(2)
  CALL proc480(3)
  CALL proc486((f0 + 1))
  CALL proc492(4, f1)
  CALL proc498((f0 + 1))
  CALL proc504(6)
  CALL proc510(3)
  CALL proc516(3)
  CALL proc522((0 + 1))
  CALL proc528(5)
  CALL proc534(3)
  CALL proc540((0 + abs(14)))
  CALL proc546((f0 + 1))
  CALL proc552(2, v2)
  CALL proc558(2)
  CALL proc564(3)
  CALL proc570(6)
  CALL proc576((0 + (la(2) / (6 + -3))))
  CALL proc582((0 + abs(la(8))))
  CALL proc588(4, (0 + 0))
  CALL proc594(5)
  CALL proc600((f0 + 1), v0)
  CALL proc606((0 + la(1)), v1)
  CALL proc612((f0 + 1), f1)
  CALL proc618(7)
  CALL proc624(6, (0 + 0))
  CALL proc630((f0 + 1), v3)
  CALL proc636((0 + v0))
  CALL proc642((0 + abs(la(8))), v1)
  CALL proc648(7)
  CALL proc654(2, v0)
  CALL proc660((f0 + 1), v2)
END

SUBROUTINE proc337(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 13
  v2 = 8
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g3 = 0, 4
    IF (g2 .LT. la(12) .AND. (-2 / (4 + 10)) .GE. (la(7) - 4)) THEN
      la(10) = la(7)
      g0 = (la(6) - (g1 - 12))
    ENDIF
    la(5) = (max(la(8), -4) * -3)
  ENDDO
  g2 = ((la(8) / (5 + f1)) - 12)
  PRINT *, 2
  CALL proc338((f0 + 1))
  CALL proc343(2)
  CALL proc349((f0 + 1))
  CALL proc355(6, 5)
  CALL proc361((f0 + 1), (0 + (v3 * 3)))
  CALL proc367(6, v2)
  CALL proc373(4, f1)
  CALL proc379(7)
  CALL proc385(3, 2)
  CALL proc391((0 + -2))
  CALL proc397(6, v3)
  CALL proc403((f0 + 1))
  CALL proc409((0 + la(3)), v3)
  CALL proc415((f0 + 1), v2)
  CALL proc421(3, v0)
  CALL proc427((0 + mod(v3, 2)), f1)
  CALL proc433(4, (0 + g1))
  CALL proc439((f0 + 1), (0 + (6 + 14)))
  CALL proc445((0 + abs(-1)), v0)
  CALL proc451(5)
  CALL proc457(6, 1)
  CALL proc463(7)
  CALL proc469((f0 + 1), v1)
  CALL proc475((0 + (la(5) / (4 + v2))))
  CALL proc481(5)
  CALL proc487(3)
  CALL proc493(7, (0 + 15))
  CALL proc499(4)
  CALL proc505(4, (0 + (g0 + 2)))
  CALL proc511(3)
  CALL proc517(5, v0)
  CALL proc523(3)
  CALL proc529(6)
  CALL proc535((0 + 1), (0 + 9))
  CALL proc541(2)
  CALL proc547(3, (0 + 14))
  CALL proc553((f0 + 1), f0)
  CALL proc559(7, (0 + (g2 + 15)))
  CALL proc565((f0 + 1))
  CALL proc571(6, 3)
  CALL proc577(7)
  CALL proc583((f0 + 1))
  CALL proc589(2, (0 + max(la(4), -3)))
  CALL proc595((0 + la(6)))
  CALL proc601((0 + la(1)))
  CALL proc607((f0 + 1), 6)
  CALL proc613(4)
  CALL proc619((0 + 6))
  CALL proc625(2)
  CALL proc631(3)
  CALL proc637(4, (0 + mod(f0, 3)))
  CALL proc643((f0 + 1), v3)
  CALL proc649(4, (0 + 4))
  CALL proc655((f0 + 1), 8)
  CALL proc661(7, (0 + max(12, la(5))))
END

SUBROUTINE proc338(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -3
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 1, 5
    DO f0 = 2, 3
      v2 = max(v1, 7)
      IF (v2 .GT. abs(6) .OR. la(10) .LT. 12) v2 = (v0 / (4 + la(11)))
    ENDDO
  ENDDO
  DO v2 = 0, 0
    IF (abs(f0) .EQ. (6 + la(10)) .OR. 4 .EQ. 4) THEN
      g0 = 5
      v1 = la(11)
    ENDIF
  ENDDO
  g2 = 10
  IF (la(10) .EQ. (6 * g0) .AND. (g1 - 6) .GE. -5) THEN
    la(4) = f0
  ENDIF
  g1 = 0
  v1 = 13
  PRINT *, 9
  IF ((15 + la(11)) .EQ. la(5) .AND. max(10, g2) .LT. -4) g2 = (v2 - g3)
  g2 = mod(v1, 7)
  IF (.NOT. ((g0 * -2) .NE. (f0 * la(3)))) THEN
    IF ((la(3) / (5 + la(12))) .NE. (la(8) + 8) .AND. mod(10, 6) .LT. la(2)) THEN
      IF (.NOT. ((4 + la(2)) .LT. max(4, v0))) g0 = 6
      IF (13 .GE. (v1 / (5 + la(2))) .AND. 13 .LE. max(3, g2)) v0 = (-5 * 2)
    ENDIF
    v1 = (la(7) + la(6))
  ELSE
    v1 = (f0 + v0)
  ENDIF
  CALL proc344(4)
  CALL proc350((f0 + 1))
  CALL proc356(5, v2)
  CALL proc362((0 + g2))
  CALL proc368((0 + 13))
  CALL proc374(7)
  CALL proc380((f0 + 1), f0)
  CALL proc386(3)
  CALL proc392((0 + (15 * 15)))
  CALL proc398(4)
  CALL proc404((0 + abs(8)))
  CALL proc410(4, v2)
  CALL proc416((0 + (la(12) + -2)))
  CALL proc422(3)
  CALL proc428((f0 + 1))
  CALL proc434(6)
  CALL proc440((f0 + 1))
  CALL proc446(2, v1)
  CALL proc452((0 + abs(-1)))
  CALL proc458(4, (0 + mod(g2, 4)))
  CALL proc464(2, v0)
  CALL proc470(5)
  CALL proc476((0 + (-4 - la(7))), (0 + (f0 - la(7))))
  CALL proc482((f0 + 1))
  CALL proc488(3, v2)
  CALL proc494((f0 + 1))
  CALL proc500(5)
  CALL proc506((0 + max(g3, 12)), v1)
  CALL proc512((f0 + 1), -1)
  CALL proc518(3, 0)
  CALL proc524((0 + (11 * -1)))
  CALL proc530(4)
  CALL proc536(4, 10)
  CALL proc542(7)
  CALL proc548((0 + (0 - 2)), 3)
  CALL proc554(5, v0)
  CALL proc560((f0 + 1))
  CALL proc566(6)
  CALL proc572(3)
  CALL proc578(4, (0 + (11 + 11)))
  CALL proc584(4, v1)
  CALL proc590((f0 + 1), 5)
  CALL proc596(2, 0)
  CALL proc602(6)
  CALL proc608(5)
  CALL proc614(2)
  CALL proc620(3, f0)
  CALL proc626((f0 + 1), (0 + (6 / (6 + la(4)))))
  CALL proc632(7, 4)
  CALL proc638((f0 + 1), 8)
  CALL proc644((0 + 12))
  CALL proc650((f0 + 1), f0)
  CALL proc656((0 + (v1 + g2)))
  CALL proc662((0 + 4), v1)
END

SUBROUTINE proc339(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = (14 + g3)
  DO v1 = 2, 6
    IF (abs(v0) .EQ. 13) v0 = 7
  ENDDO
  la(11) = 12
  IF (max(la(12), 1) .NE. abs(la(1)) .OR. mod(1, 2) .GT. g1) g1 = (v1 + 4)
  g2 = 3
  DO v1 = 3, 5
    g3 = la(4)
    IF (-1 .GE. -5 .AND. g3 .LE. -2) THEN
      g2 = ((11 * 4) * g1)
      la(10) = v1
    ELSE
      g0 = 1
      f1 = (abs(15) * 12)
    ENDIF
  ENDDO
  f1 = abs((15 * -5))
END

SUBROUTINE proc340(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 12
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g2 = 2, 6
    v0 = la(3)
  ENDDO
  IF (-2 .GE. mod(la(12), 6) .OR. (14 / (3 + g1)) .EQ. (5 * 14)) v2 = -1
  v0 = -1
  g0 = -1
  IF (4 .GT. (-5 + g1) .AND. (13 / (6 + -1)) .GE. (-1 * -2)) THEN
    DO g0 = 2, 5
      v0 = mod((la(2) - la(8)), 4)
      v1 = la(7)
    ENDDO
  ENDIF
  f0 = 14
  IF (la(3) .GT. 0) THEN
    PRINT *, -2
    g3 = (-2 - 1)
  ELSE
    v1 = v1
  ENDIF
END

SUBROUTINE proc341(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 13
  v2 = 11
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (mod(g3, 4) .NE. 3) v3 = (9 / (4 + 3))
  g2 = (-3 - (f0 / (6 + la(10))))
  DO g3 = 3, 7
    la(2) = la(11)
    v2 = la(11)
  ENDDO
END

SUBROUTINE proc342(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 10
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (abs(12) * v3)
  v3 = mod(3, 5)
  g3 = 3
  PRINT *, mod(max(3, -1), 2)
  g3 = abs(15)
  f1 = la(2)
  PRINT *, ((v0 - 14) / (3 + 0))
  g2 = 9
  g0 = g1
END

SUBROUTINE proc343(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 10
  v2 = -2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (la(5) .LE. -4 .AND. mod(15, 2) .LE. max(la(1), g0)) THEN
    f0 = mod(mod(la(11), 2), 4)
  ENDIF
  IF (la(3) .EQ. 12 .AND. la(10) .LE. max(12, 5)) THEN
    DO g0 = 0, 2
      v2 = 8
    ENDDO
    DO g0 = 1, 2
      g3 = g2
      v1 = la(7)
    ENDDO
  ELSE
    v3 = 13
  ENDIF
  v1 = ((-1 * la(11)) / (5 + v0))
  v1 = v3
  IF ((g0 + g3) .LE. la(10) .AND. la(10) .GE. (1 * 8)) v3 = 14
  g2 = ((5 + g3) + v2)
END

SUBROUTINE proc344(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = 2
  IF (-3 .GT. 15 .OR. (10 * la(2)) .NE. 8) THEN
    g2 = g1
  ELSE
    f0 = ((la(8) + 3) * -1)
    DO f0 = 1, 5
      g1 = (g0 * g2)
    ENDDO
  ENDIF
  g1 = g0
  PRINT *, g3
  la(2) = 13
  DO g1 = 2, 4
    g3 = ((la(2) - 7) - g2)
    v1 = -3
  ENDDO
END

SUBROUTINE proc345(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 5
  v2 = -3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = (-1 + (9 * 5))
  PRINT *, (-3 + la(10))
  DO v2 = 3, 3
    IF (.NOT. (la(11) .EQ. 12)) g0 = max(la(1), la(1))
    v1 = (8 * la(12))
  ENDDO
  v3 = f0
  IF ((-2 + 7) .LT. g0 .OR. la(3) .GT. (la(10) + v2)) THEN
    v3 = (5 * g1)
  ENDIF
  la(8) = la(1)
END

SUBROUTINE proc346(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((v1 * 7) .LE. 3 .OR. mod(g0, 3) .LE. v1) THEN
    la(2) = mod(max(8, 7), 4)
    la(8) = g0
  ELSE
    g3 = mod(mod(la(2), 7), 5)
    PRINT *, 3
  ENDIF
  la(11) = 2
  g1 = (g0 - f0)
  g0 = (la(3) - (8 / (4 + 9)))
END

SUBROUTINE proc347(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 9
  v2 = -2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 2, 4
    g0 = 8
    IF (la(1) .NE. abs(v1) .AND. abs(la(8)) .EQ. (g3 + la(4))) THEN
      v3 = max(la(1), f1)
    ELSE
      v3 = ((la(10) - v2) + 3)
      v2 = (abs(la(11)) - g2)
    ENDIF
  ENDDO
  IF ((la(2) - 2) .GE. 9 .AND. (-3 * 9) .NE. mod(-1, 7)) THEN
    v0 = (la(6) + mod(la(4), 5))
    g2 = la(7)
  ELSE
    g0 = -1
    g2 = 8
  ENDIF
END

SUBROUTINE proc348(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 11
  v2 = 12
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f0 = ((g2 / (3 + v2)) * f1)
  g0 = v1
  f0 = abs(-4)
  v1 = g2
END

SUBROUTINE proc349(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (la(6) * v0)
  PRINT *, ((-5 * 11) + max(-1, f0))
  IF (la(11) .NE. g2 .AND. g1 .EQ. 4) THEN
    v0 = (14 - mod(10, 4))
  ELSE
    DO g0 = 2, 5
      PRINT *, -1
      g2 = (mod(g0, 7) + mod(6, 6))
    ENDDO
  ENDIF
  v0 = ((la(11) - 2) * g3)
  g2 = max(11, g2)
  g0 = 8
  la(10) = la(4)
  PRINT *, la(12)
  IF (.NOT. (4 .GE. -2)) v0 = (-1 / (5 + 7))
  v1 = g3
END

SUBROUTINE proc350(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 13
  v2 = 12
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(1) = la(11)
END

SUBROUTINE proc351(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 4
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = g1
  f1 = (abs(la(1)) * v0)
  IF (la(12) .LT. 10 .OR. la(1) .GE. 8) g2 = (g0 + la(8))
  IF (10 .EQ. mod(la(4), 3) .AND. (la(6) + v0) .LE. (1 + g3)) THEN
    g0 = v1
    IF ((7 - -4) .LE. g2 .OR. la(7) .GE. g2) g0 = -1
  ENDIF
  g1 = 0
  f1 = -3
  g0 = g3
  la(11) = 5
END

SUBROUTINE proc352(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (abs(10) .GE. (2 / (6 + g3)) .OR. la(3) .LE. mod(0, 4)) THEN
    f0 = (abs(la(8)) / (2 + v0))
    g0 = g2
  ELSE
    la(4) = ((f0 / (3 + la(5))) + abs(la(3)))
  ENDIF
  f0 = v0
  g3 = (mod(g0, 5) / (3 + la(6)))
  la(1) = abs(abs(12))
END

SUBROUTINE proc353(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = abs((-4 * la(3)))
  g0 = ((-1 * 3) * g2)
  DO v2 = 0, 4
    DO g0 = 2, 3
      la(8) = 5
    ENDDO
    IF ((g2 - g3) .EQ. 12 .AND. mod(11, 2) .EQ. 4) f1 = max(f1, la(6))
  ENDDO
  DO g0 = 2, 4
    la(1) = ((f1 * v2) / (6 + 13))
  ENDDO
  la(8) = 0
END

SUBROUTINE proc354(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 13
  v2 = 13
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 1, 2
    g3 = abs(v2)
    la(12) = ((la(3) / (2 + g0)) * f0)
  ENDDO
END

SUBROUTINE proc355(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (-3 .GE. la(6)) THEN
    v1 = 12
    IF ((la(12) / (4 + g0)) .GE. la(8) .OR. f1 .LE. (f1 - 12)) g0 = max(4, f0)
  ENDIF
END

SUBROUTINE proc356(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 14
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 10
  IF ((v2 - la(9)) .GT. -4) THEN
    IF (mod(12, 2) .NE. abs(la(9))) g0 = g2
  ELSE
    g1 = la(10)
    v1 = ((9 * 6) * -2)
  ENDIF
  IF (la(11) .GE. g0 .OR. 15 .LE. 1) f0 = 9
END

SUBROUTINE proc357(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = v0
  la(6) = 0
  IF (la(8) .LT. abs(la(8))) g2 = -1
  DO f1 = 2, 5
    f0 = (la(6) / (6 + 15))
  ENDDO
  DO g0 = 3, 4
    IF (-2 .NE. 5 .OR. 12 .LE. la(12)) f0 = mod(la(4), 8)
    g3 = 0
  ENDDO
  IF (3 .LE. -3 .OR. mod(-5, 7) .GT. v1) THEN
    g2 = mod(10, 8)
  ELSE
    IF (la(11) .GE. 3 .AND. (g2 * 13) .NE. v2) THEN
      g2 = (max(g0, 1) - mod(13, 4))
    ELSE
      IF ((2 - 5) .GT. max(f0, g1) .AND. (11 / (5 + 5)) .NE. (14 * g1)) g1 = v2
      g0 = la(1)
    ENDIF
  ENDIF
END

SUBROUTINE proc358(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 12
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(la(11), 7) .GT. (g3 - g0) .OR. 10 .LT. (12 + f0)) THEN
    f0 = (la(2) * -2)
  ELSE
    la(7) = (la(12) - 4)
  ENDIF
END

SUBROUTINE proc359(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 6
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (g0 .GE. mod(v1, 2)) THEN
    f0 = max(-2, 2)
  ENDIF
  PRINT *, 13
  DO g2 = 3, 6
    IF (.NOT. (max(f0, la(4)) .NE. 3)) THEN
      g1 = la(2)
    ENDIF
    g1 = (la(7) * la(11))
  ENDDO
  v2 = 5
  DO g3 = 3, 5
    v0 = mod((v2 / (2 + 13)), 5)
  ENDDO
END

SUBROUTINE proc360(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = -4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = g3
  IF (-2 .LT. la(10)) g1 = v2
  PRINT *, ((9 + 2) / (4 + v1))
  la(6) = ((-4 + la(9)) / (2 + 14))
  IF (7 .GE. max(v2, v3) .OR. (-3 / (6 + la(6))) .GT. v2) v1 = abs(2)
END

SUBROUTINE proc361(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 13
  v2 = 3
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = g2
  g2 = 14
  v2 = 12
  v2 = f1
  f1 = v2
  g1 = ((10 + 15) * 4)
  v3 = mod(mod(v0, 3), 7)
  IF (.NOT. ((la(10) + f0) .GE. max(la(4), g0))) THEN
    DO g2 = 1, 4
      PRINT *, la(3)
    ENDDO
    v2 = (g3 / (4 + 14))
  ENDIF
  g3 = (5 / (2 + 2))
END

SUBROUTINE proc362(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(8) = ((6 / (5 + 12)) * la(7))
  g3 = g2
  f0 = (la(5) - la(5))
  IF (.NOT. ((la(2) * -3) .NE. (g3 + -1))) THEN
    la(9) = g2
  ENDIF
  v0 = la(7)
END

SUBROUTINE proc363(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, la(6)
  DO g1 = 2, 5
    la(8) = max(8, la(9))
  ENDDO
  la(3) = -5
  g2 = ((9 - la(6)) + (la(5) + la(8)))
  g0 = g1
  v0 = 1
END

SUBROUTINE proc364(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (10 .EQ. g2)) THEN
    IF (.NOT. (4 .LE. 7)) THEN
      v1 = ((12 - la(12)) * 11)
    ENDIF
    DO v2 = 2, 3
      g2 = 12
    ENDDO
  ELSE
    la(11) = g2
    IF (abs(10) .NE. -3) THEN
      la(9) = -1
    ENDIF
  ENDIF
  la(9) = (abs(9) / (4 + 7))
  v0 = la(5)
  v0 = la(10)
  g0 = max(v1, g2)
END

SUBROUTINE proc365(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(1) = la(5)
  g2 = v0
  g0 = la(10)
  g2 = mod(mod(la(2), 5), 4)
  v1 = abs(mod(8, 7))
  g1 = (-2 / (5 + la(3)))
  v0 = g3
  g3 = la(1)
  g2 = (-1 + -3)
  v0 = ((-1 / (3 + g3)) - 6)
END

SUBROUTINE proc366(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = 4
  g2 = abs((la(8) * 6))
  g2 = (mod(9, 3) / (6 + la(11)))
  v2 = (la(5) / (4 + v2))
  DO g0 = 3, 3
    g2 = v2
  ENDDO
  f0 = (g0 - abs(-4))
END

SUBROUTINE proc367(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, la(3)
  g3 = 12
  f0 = ((f0 / (4 + la(10))) / (3 + 15))
  f0 = -5
  g0 = -5
END

SUBROUTINE proc368(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v3 = 6
  g3 = -2
  la(2) = (mod(6, 2) + (la(4) / (3 + la(3))))
  f0 = (1 + abs(la(9)))
  DO v1 = 3, 3
    IF ((0 - la(10)) .LE. (f0 + la(12)) .AND. mod(2, 6) .GT. (v2 * 2)) THEN
      g2 = 2
      g2 = 4
    ELSE
      IF (abs(-2) .NE. 8 .OR. 14 .NE. 9) g0 = v0
    ENDIF
  ENDDO
END

SUBROUTINE proc369(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 13
  v2 = 4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = v0
  v1 = (max(la(8), 10) - (-1 / (5 + la(9))))
  g1 = la(1)
  DO v3 = 2, 2
    g1 = abs(la(1))
    IF ((14 * la(3)) .GE. (g3 / (5 + 9)) .AND. mod(11, 4) .GE. 12) THEN
      f0 = (max(6, v3) - 5)
      IF ((la(6) + la(9)) .EQ. -3 .AND. max(4, 3) .NE. abs(la(8))) f0 = la(4)
    ENDIF
  ENDDO
  IF (max(13, 13) .EQ. 11) g3 = 9
  IF (mod(la(8), 2) .LT. mod(10, 4) .OR. (la(7) - v0) .GE. 1) THEN
    IF (abs(g1) .LE. (11 / (2 + 5)) .OR. (15 - g2) .GT. (10 * la(1))) g2 = v1
  ENDIF
  DO g0 = 2, 5
    DO g2 = 0, 4
      f0 = abs(mod(2, 4))
      v0 = f0
    ENDDO
    IF (mod(la(11), 5) .LT. max(-4, -5) .OR. max(la(2), la(11)) .GE. g1) THEN
      v3 = la(2)
      g3 = mod((la(2) + la(2)), 7)
    ENDIF
  ENDDO
END

SUBROUTINE proc370(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = la(8)
  v1 = la(7)
  DO g2 = 1, 1
    f0 = 5
    g0 = mod((6 - -1), 8)
  ENDDO
  v1 = 1
  v1 = ((-1 + -1) * 8)
  PRINT *, ((la(5) * 3) + (1 * 0))
  g3 = -4
  IF (g3 .LT. -3) THEN
    g1 = 10
  ENDIF
END

SUBROUTINE proc371(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = 4
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(5, 2) .LT. la(6)) g1 = la(5)
  la(4) = g3
  v1 = 3
END

SUBROUTINE proc372(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 6
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(4) = abs(9)
END

SUBROUTINE proc373(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 9
  v2 = 14
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g1 = 0, 4
    IF (13 .LT. mod(14, 3) .AND. 0 .GT. (-3 / (4 + g0))) THEN
      v1 = la(11)
      IF (.NOT. (abs(f1) .EQ. 1)) v0 = (14 - f0)
    ENDIF
    f0 = la(1)
  ENDDO
  la(1) = max(la(9), 1)
  g1 = f1
END

SUBROUTINE proc374(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(12) .NE. (-4 - g2) .AND. la(11) .GT. abs(la(4))) g2 = 6
  g0 = la(12)
  v1 = mod((v2 - 9), 4)
  la(7) = ((15 / (5 + v1)) - la(1))
  v0 = (-5 + (15 - la(12)))
  g0 = abs(12)
  f0 = ((5 + 3) / (6 + la(3)))
  g2 = 15
  g2 = ((-1 - 5) + (la(10) - 11))
END

SUBROUTINE proc375(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((-1 + g0) .GT. -3) THEN
    v1 = f1
    v0 = mod(1, 6)
  ELSE
    f1 = (mod(g3, 3) - 0)
    la(4) = mod(9, 3)
  ENDIF
  IF ((12 + v1) .GT. la(9)) f1 = (3 * la(6))
  g0 = la(12)
  DO g0 = 1, 1
    PRINT *, (-3 + max(2, g2))
  ENDDO
END

SUBROUTINE proc376(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = abs(mod(la(12), 8))
  g0 = la(6)
  g0 = abs((0 - v1))
END

SUBROUTINE proc377(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = 1
  IF (.NOT. ((9 * 15) .LE. mod(14, 3))) g2 = (la(1) - la(2))
  la(12) = f1
  IF ((6 + 9) .LE. la(12) .AND. 7 .GE. max(g1, 9)) g2 = (v1 / (4 + la(12)))
  IF (g3 .NE. max(4, la(10)) .AND. 12 .NE. mod(v1, 5)) g0 = 6
END

SUBROUTINE proc378(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (la(10) .LT. max(15, la(1)) .AND. (-5 - g1) .GE. mod(-4, 7)) g1 = (la(11) - 13)
  PRINT *, 2
  g0 = 5
  g1 = ((13 / (5 + -1)) * 1)
  IF (12 .GT. v0 .AND. -3 .GE. la(8)) g2 = mod(13, 6)
  v0 = 14
  v0 = mod(la(12), 6)
  f0 = 9
  g2 = abs(10)
  PRINT *, (abs(-4) + 6)
END

SUBROUTINE proc379(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v2 = 3, 5
    la(7) = (abs(la(1)) + (g1 + la(3)))
  ENDDO
  v1 = la(9)
  f0 = 7
  g1 = max(g2, 8)
  v1 = (7 * v1)
END

SUBROUTINE proc380(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = la(7)
  v0 = la(12)
END

SUBROUTINE proc381(f0)
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
END

SUBROUTINE proc382(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 9
  v2 = -2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = (v0 / (3 + -3))
  g2 = (la(12) * la(8))
  la(1) = (g2 / (2 + f0))
  v2 = abs(la(1))
  DO f0 = 0, 2
    v1 = ((la(6) / (6 + g1)) * 10)
    PRINT *, la(4)
  ENDDO
  g0 = la(11)
  IF (mod(g3, 2) .NE. (-3 - 1) .AND. v3 .LE. g1) g2 = 1
  g1 = v3
END

SUBROUTINE proc383(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, -1
  IF (.NOT. ((la(3) + g1) .GE. f1)) f0 = (-2 + g3)
  la(8) = (la(4) / (5 + -4))
  IF (-5 .LE. (la(5) - g3)) v0 = la(7)
  DO f0 = 2, 2
    PRINT *, la(8)
    IF (max(la(7), 14) .GE. (2 + la(7))) THEN
      PRINT *, g1
    ENDIF
  ENDDO
END

SUBROUTINE proc384(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = ((13 + 2) + la(5))
  f1 = 1
  DO v0 = 1, 2
    g3 = -3
    g3 = mod(v1, 6)
  ENDDO
END

SUBROUTINE proc385(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = g0
  g0 = 1
  DO g3 = 0, 2
    PRINT *, mod(la(4), 4)
  ENDDO
  IF ((3 * 15) .EQ. 2) THEN
    f0 = (la(6) - (0 / (3 + 4)))
    IF (max(v1, la(1)) .LE. 15) v0 = mod(g1, 3)
  ELSE
    la(5) = f1
    PRINT *, max(la(10), -5)
  ENDIF
  DO v0 = 1, 3
    la(1) = (max(11, la(7)) - mod(la(2), 8))
  ENDDO
  v0 = 6
  f1 = max(la(7), la(2))
  la(2) = mod((5 / (4 + 2)), 5)
  f0 = mod(la(5), 7)
  v0 = -1
END

SUBROUTINE proc386(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (la(2) .GE. la(5)) THEN
    IF (0 .EQ. la(7) .OR. (g1 + 9) .GT. mod(v0, 2)) g3 = (3 * la(7))
    PRINT *, ((0 - -3) + 6)
  ELSE
    v1 = f0
  ENDIF
  IF (mod(-1, 4) .GE. (g3 - la(5)) .AND. max(2, 4) .LT. (9 / (3 + 5))) THEN
    g2 = 9
    f0 = la(4)
  ELSE
    PRINT *, 14
  ENDIF
  IF (-2 .GE. (la(1) + v1) .OR. (la(12) / (4 + la(10))) .GE. 2) THEN
    DO g2 = 2, 4
      g3 = -1
    ENDDO
  ENDIF
  DO f0 = 0, 3
    IF (max(-5, 13) .NE. la(12)) v1 = f0
    IF (.NOT. (abs(6) .LE. la(3))) g2 = -5
  ENDDO
END

SUBROUTINE proc387(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = la(11)
  v1 = (g2 - v0)
  g0 = max(g3, -5)
  IF (mod(v0, 5) .LT. 0 .OR. abs(15) .GT. (la(10) - 11)) g1 = (0 / (4 + 8))
END

SUBROUTINE proc388(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = ((la(2) / (6 + la(3))) - max(4, g2))
  IF (.NOT. (9 .LT. la(11))) THEN
    g2 = g0
  ELSE
    PRINT *, ((13 - v1) / (3 + 4))
    f1 = -5
  ENDIF
  f0 = max(0, g0)
  g2 = (la(10) + la(4))
  g0 = la(8)
  IF ((la(1) / (5 + la(11))) .LE. max(-1, 1)) THEN
    v2 = abs((la(7) + la(12)))
  ENDIF
  DO g2 = 2, 4
    DO v2 = 0, 3
      g1 = mod((11 * v1), 5)
    ENDDO
    PRINT *, mod((12 / (2 + f1)), 6)
  ENDDO
END

SUBROUTINE proc389(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (max(11, 3) .LE. -4)) g1 = (5 / (4 + -1))
  DO g0 = 0, 1
    IF (-4 .NE. (11 / (5 + 5)) .AND. abs(-3) .LE. max(9, v1)) g1 = (2 - 6)
  ENDDO
  g3 = mod(g3, 3)
  DO g2 = 3, 7
    g3 = la(8)
  ENDDO
  g0 = -5
  g0 = la(12)
END

SUBROUTINE proc390(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 14
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
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
  v2 = v1
END

SUBROUTINE proc391(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -2
  v2 = 4
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((2 + v2) .NE. (-2 * 6) .AND. max(la(8), 8) .LE. 8) g3 = (la(10) * 0)
  g0 = 8
  IF (.NOT. (abs(11) .LE. g1)) THEN
    v1 = la(11)
  ENDIF
  PRINT *, max(-1, la(7))
END

SUBROUTINE proc392(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (abs(0) .LE. mod(15, 8))) THEN
    DO g1 = 3, 6
      g0 = 14
    ENDDO
    f0 = max(la(5), 6)
  ENDIF
  v0 = mod((g2 / (6 + 4)), 5)
  DO f0 = 3, 4
    v1 = 6
    la(10) = f0
  ENDDO
  PRINT *, -1
  f0 = g3
  DO g2 = 2, 3
    g3 = ((11 * 0) / (6 + g0))
    la(7) = mod(abs(-4), 7)
  ENDDO
END

SUBROUTINE proc393(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = 5
  la(11) = -3
  DO g0 = 1, 5
    PRINT *, la(4)
    f1 = 3
  ENDDO
  PRINT *, 5
  v1 = ((14 * 3) - g2)
END

SUBROUTINE proc394(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((-3 / (6 + 1)) .EQ. (la(12) + -1))) THEN
    PRINT *, abs(mod(12, 4))
  ENDIF
  f0 = max(v2, la(1))
  v1 = 14
  la(12) = ((f0 * -3) - abs(la(3)))
  la(7) = la(1)
  DO v2 = 2, 2
    PRINT *, abs((g2 / (4 + g0)))
  ENDDO
END

SUBROUTINE proc395(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -4
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. ((10 * la(11)) .GE. (0 - 5))) v1 = mod(g2, 4)
  v1 = -4
  f1 = abs(mod(v2, 2))
  g2 = (-4 + la(11))
  la(1) = ((la(5) / (3 + 2)) - (13 + -5))
END

SUBROUTINE proc396(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = 1
  IF (.NOT. (abs(f0) .GT. (-2 + la(12)))) THEN
    g0 = (max(-1, g0) + la(6))
  ENDIF
  IF (v1 .NE. max(v1, la(11)) .OR. max(-1, 0) .EQ. max(-5, -3)) g1 = mod(v0, 3)
  PRINT *, abs((13 - la(7)))
END

SUBROUTINE proc397(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 4
  v2 = 6
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v0 = la(2)
  v0 = 9
  v0 = mod(mod(-5, 5), 5)
  PRINT *, la(7)
END

SUBROUTINE proc398(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(8) = (15 * 13)
  v1 = (g2 - (g2 * g0))
  la(7) = la(11)
  v1 = 3
  IF (3 .LT. 15 .OR. la(8) .LT. (la(10) * la(8))) THEN
    g2 = (la(10) - (14 / (2 + g3)))
  ENDIF
  IF (.NOT. (mod(15, 2) .LT. mod(la(3), 5))) THEN
    g2 = g0
  ELSE
    v0 = (v1 * la(8))
  ENDIF
  IF (.NOT. (3 .GE. 9)) g2 = (7 * la(8))
  v1 = la(3)
  g1 = 9
END

SUBROUTINE proc399(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 3
  v2 = 3
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(9) = (g0 - v2)
END

SUBROUTINE proc400(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 6
  v2 = -3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v0 = 2, 3
    IF (8 .GT. g1 .OR. la(11) .LT. max(8, -2)) g0 = v1
  ENDDO
  g2 = ((-4 / (6 + 13)) * f0)
  v1 = (v0 * 5)
  v3 = g1
  v1 = la(2)
  v3 = abs(8)
  g0 = la(7)
END

SUBROUTINE proc401(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 14
  v2 = 6
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((g3 * f0) .LE. mod(la(1), 8) .OR. (f1 * g2) .NE. 2) g2 = max(v2, 10)
  IF (max(-4, 0) .GT. (la(5) + f0)) THEN
    IF ((v2 / (2 + f1)) .EQ. -2 .OR. 3 .GT. la(5)) THEN
      f1 = v1
    ELSE
      f0 = 9
      f0 = ((la(7) + 9) * 6)
    ENDIF
  ENDIF
  DO g3 = 0, 4
    la(2) = mod(max(f1, -1), 5)
    DO g2 = 0, 4
      v0 = la(3)
    ENDDO
  ENDDO
  IF ((v2 + 13) .GT. abs(12) .AND. max(4, f1) .LE. abs(0)) v1 = (4 - 13)
  v1 = abs(mod(v3, 7))
  v3 = mod(v0, 7)
END

SUBROUTINE proc402(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 13
  v2 = 13
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (max(la(11), g1) * -5)
  DO v3 = 2, 4
    v2 = mod(max(11, -3), 2)
    f0 = ((g0 + la(10)) / (5 + g3))
  ENDDO
END

SUBROUTINE proc403(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (3 + (la(2) / (4 + 9)))
  IF ((f0 + -3) .EQ. -4 .AND. -5 .GE. v0) THEN
    IF (la(8) .GT. mod(5, 7) .OR. -5 .GT. 3) THEN
      PRINT *, (max(1, g0) - mod(3, 4))
    ENDIF
    IF (.NOT. (max(6, v1) .EQ. g1)) g1 = (la(2) * la(6))
  ELSE
    g2 = max(f0, 15)
    IF (max(g0, la(9)) .GT. (11 - 6) .OR. la(9) .EQ. (-5 / (4 + 0))) THEN
      g0 = mod(la(6), 8)
      g3 = la(12)
    ELSE
      g2 = v0
    ENDIF
  ENDIF
  v0 = max(13, g2)
  IF (14 .GT. -2 .AND. max(g0, g1) .NE. (0 / (3 + la(8)))) v1 = (-5 - la(10))
  PRINT *, 9
  g1 = (g0 / (3 + la(2)))
END

SUBROUTINE proc404(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = -3
  PRINT *, 4
  DO g3 = 0, 0
    g1 = (la(1) / (3 + 3))
    IF ((v1 + -5) .NE. (10 / (5 + 5))) v0 = la(6)
  ENDDO
  IF (la(2) .LE. (8 - 15) .AND. 9 .GE. 4) g0 = (9 * -2)
  IF (7 .GE. abs(1) .OR. 3 .GT. abs(g3)) THEN
    IF (7 .LE. 1) THEN
      la(7) = abs((f0 * g1))
    ENDIF
    PRINT *, (6 + (g0 + g2))
  ENDIF
  PRINT *, 2
END

SUBROUTINE proc405(f0, f1)
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
  g0 = abs((-4 * f1))
  PRINT *, abs((6 / (4 + g3)))
  IF (f1 .LT. mod(f1, 4) .OR. (v3 * f0) .LT. v1) THEN
    IF (.NOT. ((v2 - la(10)) .LE. (11 - g3))) THEN
      g3 = max(7, -1)
    ELSE
      IF (la(1) .LE. (1 - 3) .OR. la(10) .LT. 9) v2 = (-5 - g1)
    ENDIF
  ELSE
    PRINT *, max(f1, 4)
    IF ((g3 * f1) .EQ. (la(2) + la(6)) .AND. -2 .GT. 2) THEN
      IF (15 .NE. abs(15)) v0 = la(10)
    ENDIF
  ENDIF
  IF (.NOT. (-5 .LT. (g2 - -5))) g3 = (0 + v3)
  g1 = v3
  PRINT *, max(la(7), -1)
  IF (la(4) .LT. la(7) .AND. (-1 - la(8)) .NE. abs(-1)) v1 = -2
  PRINT *, (max(g2, -3) / (2 + la(4)))
  v0 = max(la(11), 0)
  PRINT *, la(2)
END

SUBROUTINE proc406(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 10
  v2 = 1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = max(0, 1)
  DO v1 = 1, 5
    IF (abs(-4) .GE. la(12)) f0 = abs(8)
    IF (.NOT. ((-3 - la(12)) .NE. (-5 / (3 + la(4))))) THEN
      v2 = (abs(la(5)) + la(7))
      v3 = ((la(3) - la(9)) - (-3 + 14))
    ELSE
      g3 = max(la(8), la(12))
    ENDIF
  ENDDO
  IF (.NOT. ((9 / (3 + la(8))) .GT. -5)) g1 = (-3 * 7)
  g0 = 15
END

SUBROUTINE proc407(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (abs(2) - (la(9) + 5))
  f0 = (abs(la(1)) + abs(-1))
  la(7) = ((3 + 3) * g1)
  g2 = mod(-2, 3)
  DO f0 = 2, 3
    la(11) = 4
    IF (.NOT. (-1 .LE. f1)) g3 = mod(-2, 2)
  ENDDO
  g1 = mod(max(f0, f1), 5)
  IF (.NOT. ((la(1) + g1) .EQ. v1)) v2 = -4
  f0 = 15
  f0 = 13
  f0 = la(6)
END

SUBROUTINE proc408(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 14
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (max(7, g1) - -1)
  la(4) = (-1 * la(2))
  la(1) = ((f0 * f0) * 8)
  g1 = (14 / (4 + 15))
  g3 = 12
  g0 = mod((la(8) * g3), 4)
  PRINT *, mod(6, 2)
END

SUBROUTINE proc409(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = g2
END

SUBROUTINE proc410(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = ((3 / (2 + 0)) * 0)
  g3 = abs(abs(13))
  DO f1 = 3, 3
    DO f0 = 3, 6
      PRINT *, la(4)
    ENDDO
  ENDDO
  f1 = abs(f1)
  g0 = f0
  DO v1 = 2, 4
    g3 = la(8)
  ENDDO
END

SUBROUTINE proc411(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = la(5)
  v0 = la(1)
  g2 = g3
  la(2) = la(4)
  IF (f0 .EQ. (la(6) - la(8)) .AND. abs(-3) .LT. abs(v1)) THEN
    g1 = ((f0 + 11) * -4)
    IF (mod(3, 8) .LT. max(f0, 8) .OR. mod(-2, 4) .LE. -2) g3 = (13 + 14)
  ELSE
    PRINT *, (la(6) - -4)
    v0 = 14
  ENDIF
  g0 = mod(-2, 3)
END

SUBROUTINE proc412(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 7
  v2 = 13
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (la(5) + (la(7) * v1))
  g3 = 6
  v0 = ((15 - g2) / (6 + v0))
  v0 = ((la(9) * 0) * v3)
  la(1) = la(3)
  la(9) = max(la(3), v3)
  la(5) = 2
  g0 = ((4 - la(7)) - -5)
  PRINT *, abs((-3 - -3))
  v2 = mod(abs(v1), 2)
END

SUBROUTINE proc413(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g3 = 2, 3
    IF (f1 .LE. (v0 / (6 + -5)) .AND. -1 .NE. (v0 + la(11))) THEN
      v2 = mod((la(6) * -2), 5)
      g1 = abs(mod(7, 5))
    ELSE
      g1 = la(5)
      v1 = 7
    ENDIF
    DO g2 = 3, 5
      la(1) = la(5)
    ENDDO
  ENDDO
  la(6) = ((2 / (3 + 13)) * la(1))
END

SUBROUTINE proc414(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 11
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = abs(g3)
  la(8) = g1
  la(3) = (13 / (6 + 11))
  la(10) = (mod(1, 3) * g1)
END

SUBROUTINE proc415(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = 2
  IF (max(9, v0) .LE. (10 + la(12)) .AND. (1 / (2 + -3)) .EQ. f1) THEN
    f0 = (-3 * 0)
    la(6) = 3
  ELSE
    IF (f0 .LE. (9 / (5 + la(10))) .OR. (9 * 9) .LT. 12) g3 = 11
    la(5) = mod((la(6) - la(9)), 8)
  ENDIF
  f0 = 1
  DO g0 = 2, 2
    IF ((-3 * la(9)) .LE. la(3) .OR. 10 .LE. abs(la(5))) g3 = (v0 / (3 + g1))
  ENDDO
  g1 = -3
  IF (max(la(1), 8) .NE. 11 .OR. (la(9) * la(11)) .LE. abs(0)) THEN
    IF (.NOT. (10 .EQ. la(9))) THEN
      v0 = (v1 - (la(4) / (3 + la(10))))
      f0 = v0
    ELSE
      f1 = v1
    ENDIF
  ELSE
    f0 = ((3 + 4) * -5)
    g2 = mod((6 + 8), 2)
  ENDIF
  g3 = -1
END

SUBROUTINE proc416(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, (7 * la(9))
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
  IF (12 .LE. (4 - 14) .OR. -5 .GT. mod(la(6), 3)) g0 = -2
END

SUBROUTINE proc417(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (g2 + 15)
  IF (.NOT. (abs(la(8)) .NE. max(6, 0))) THEN
    IF (g0 .NE. max(la(5), f1) .OR. (7 / (2 + 4)) .NE. la(9)) THEN
      f1 = abs((g0 * la(10)))
      la(12) = -3
    ENDIF
  ENDIF
  g2 = abs(11)
  IF ((4 / (5 + 12)) .LT. 12 .OR. 4 .GT. 0) g1 = mod(5, 3)
  IF (la(10) .EQ. la(12) .OR. -3 .LE. (g0 - la(2))) THEN
    la(12) = mod((la(4) * 4), 3)
  ELSE
    g1 = g1
    IF ((f1 - -1) .NE. abs(14)) THEN
      la(11) = 9
    ENDIF
  ENDIF
  IF (la(1) .EQ. la(9)) THEN
    g0 = max(g3, 1)
  ENDIF
END

SUBROUTINE proc418(f0)
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
END

SUBROUTINE proc419(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 8
  v2 = -4
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. (max(la(11), 5) .NE. 7)) THEN
    g0 = mod(v1, 4)
    f0 = 11
  ENDIF
  la(6) = ((la(10) * 13) + max(la(2), la(10)))
  DO v0 = 1, 3
    IF ((v2 + la(9)) .GE. 8 .AND. 15 .GE. la(3)) THEN
      v1 = (abs(9) + la(10))
      IF (7 .LT. 8 .AND. (-3 + 5) .GE. mod(la(5), 2)) f0 = 9
    ELSE
      la(5) = 8
      g2 = la(8)
    ENDIF
  ENDDO
END

SUBROUTINE proc420(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 9
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (abs(la(9)) .LT. abs(1) .AND. (la(9) * -2) .GT. (v0 + la(7))) THEN
    DO g3 = 2, 6
      g2 = (-1 / (3 + 14))
      g2 = ((15 / (5 + v0)) - 7)
    ENDDO
  ELSE
    g1 = -1
  ENDIF
  g0 = mod(max(-2, 12), 6)
  f0 = 11
  DO g3 = 1, 1
    g2 = max(15, -4)
    DO g0 = 3, 5
      g2 = mod(max(9, 2), 2)
    ENDDO
  ENDDO
END

SUBROUTINE proc421(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 5
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = abs(12)
  f1 = -3
  g1 = abs(6)
  PRINT *, la(5)
  PRINT *, mod(la(8), 5)
  IF (g1 .LT. (f1 / (5 + la(9))) .AND. 7 .GE. (g1 / (3 + la(12)))) g3 = la(3)
  g3 = la(2)
END

SUBROUTINE proc422(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = (mod(la(1), 7) - (la(6) - 4))
  v2 = ((v0 * la(7)) / (3 + la(3)))
END

SUBROUTINE proc423(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 13
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, max(la(4), -4)
  IF (.NOT. (2 .GE. v2)) THEN
    IF (f1 .GE. g2 .AND. 0 .GE. 8) THEN
      g0 = v1
    ENDIF
  ELSE
    la(4) = f0
    g0 = (max(g3, -3) + max(la(11), 7))
  ENDIF
  f0 = (la(10) - abs(la(11)))
  PRINT *, (mod(v1, 8) / (5 + 13))
END

SUBROUTINE proc424(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 10
  v2 = 12
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = -1
  PRINT *, mod(max(9, -2), 7)
  f0 = f0
END

SUBROUTINE proc425(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(10) .LE. abs(-2) .AND. (-2 + 8) .GT. 3) g0 = mod(-1, 3)
  g1 = 5
  v1 = 12
  g2 = f1
  v1 = 6
  IF (.NOT. (8 .NE. abs(8))) THEN
    v2 = abs(la(11))
    DO f0 = 0, 3
      IF (la(6) .GE. -4 .AND. g2 .LE. 5) g1 = max(3, g2)
    ENDDO
  ENDIF
  v0 = abs(4)
  IF (mod(v2, 8) .GT. 0 .OR. la(6) .EQ. abs(-2)) f0 = la(10)
  g2 = mod((1 * -3), 8)
  g1 = 7
END

SUBROUTINE proc426(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 8
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (0 * la(5))
  g0 = -4
  DO v1 = 2, 5
    f1 = (2 - (8 + 11))
    DO v2 = 2, 3
      PRINT *, (f0 / (4 + g0))
      f0 = ((la(6) + 2) * g3)
    ENDDO
  ENDDO
  g3 = (f0 + (10 / (3 + v0)))
  IF (12 .GT. la(6)) g3 = 6
  g2 = la(4)
  IF (.NOT. ((la(7) / (2 + la(9))) .LT. abs(la(8)))) v1 = f0
END

SUBROUTINE proc427(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 0
  v2 = 2
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(9) = (7 / (3 + -2))
  v1 = -1
  IF (abs(-2) .GT. (3 * 4) .AND. 6 .EQ. (f1 / (4 + v2))) g2 = (11 - g1)
  PRINT *, la(7)
END

SUBROUTINE proc428(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(8) = ((v1 - la(10)) + 13)
  g0 = la(4)
  IF (.NOT. (la(1) .LT. la(7))) THEN
    IF (.NOT. (8 .LT. 12)) THEN
      g3 = (abs(la(1)) + g1)
      v1 = la(11)
    ELSE
      g1 = la(6)
    ENDIF
    IF (1 .LT. 0 .OR. (la(6) - la(8)) .EQ. mod(1, 8)) THEN
      g1 = f0
      g2 = max(3, v0)
    ENDIF
  ELSE
    f0 = 5
  ENDIF
  la(7) = 7
  la(2) = mod((la(9) + la(2)), 8)
  f0 = (g3 + la(8))
  DO g0 = 2, 2
    g3 = la(8)
  ENDDO
  PRINT *, 3
END

SUBROUTINE proc429(f0, f1)
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
END

SUBROUTINE proc430(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = mod((13 - -4), 2)
  la(1) = 4
END

SUBROUTINE proc431(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(10) = max(-5, la(4))
  DO f1 = 0, 2
    IF (.NOT. ((f0 + -3) .GT. g3)) THEN
      g1 = (abs(-5) / (5 + 14))
    ENDIF
  ENDDO
  la(2) = f0
  g2 = ((g0 + g1) + la(2))
  v1 = (5 - (11 - 15))
  la(8) = (0 + mod(la(9), 6))
  g2 = (mod(14, 5) - max(la(1), -3))
  PRINT *, (la(8) - 9)
END

SUBROUTINE proc432(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(4) = (g0 - 8)
  PRINT *, abs((la(2) + 12))
  DO g3 = 1, 5
    IF (mod(-5, 4) .LT. -2 .OR. 4 .LE. 15) THEN
      v0 = (mod(la(10), 4) / (5 + f0))
      v1 = g1
    ENDIF
    la(10) = v1
  ENDDO
  v1 = 6
  f0 = -4
END

SUBROUTINE proc433(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 2
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 2, 5
    v1 = g0
    IF (10 .LE. g3 .AND. v2 .GT. (15 / (2 + g1))) THEN
      v2 = f0
      IF (max(0, 7) .LT. -1 .OR. max(g3, 5) .LE. la(11)) g3 = mod(15, 3)
    ENDIF
  ENDDO
  v0 = -2
  IF (.NOT. (abs(6) .LT. abs(7))) THEN
    PRINT *, -1
  ELSE
    v1 = g1
    g3 = 5
  ENDIF
  g0 = g3
  DO v2 = 3, 3
    g3 = -5
  ENDDO
  f0 = mod(v2, 2)
  IF (-1 .LT. 11 .AND. abs(la(9)) .LE. (g3 * -2)) THEN
    g0 = (la(10) * -1)
    IF ((g0 - 2) .LT. 3) THEN
      IF (13 .LT. abs(14) .OR. g2 .NE. 0) v1 = mod(la(8), 2)
      f0 = la(11)
    ELSE
      f1 = 8
    ENDIF
  ENDIF
  f0 = abs(5)
END

SUBROUTINE proc434(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (mod(la(3), 2) * 15)
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
END

SUBROUTINE proc435(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 2
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = max(v1, -3)
  f0 = -1
  f0 = g3
  f0 = 1
  v1 = (la(2) / (3 + 11))
  g1 = v2
END

SUBROUTINE proc436(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (14 .GE. (g3 / (4 + 8)) .OR. v0 .LT. (la(10) / (6 + la(10)))) g1 = (la(2) + f0)
  g1 = max(g2, 4)
  g3 = 2
  f0 = (-2 * v1)
  g3 = g1
  g3 = 0
  g0 = ((1 * f1) * la(12))
END

SUBROUTINE proc437(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 6
  v2 = 3
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = 9
  la(1) = 9
  g1 = la(1)
END

SUBROUTINE proc438(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (mod(g0, 6) / (4 + 3))
  v0 = la(6)
  DO f0 = 1, 5
    v1 = (11 * 8)
  ENDDO
  IF (la(1) .GT. max(10, 2) .OR. max(la(6), la(1)) .LT. g1) THEN
    g0 = -5
  ELSE
    g0 = 8
    PRINT *, abs(v0)
  ENDIF
  v0 = la(1)
  g2 = mod(f0, 3)
  DO v1 = 3, 5
    PRINT *, (mod(la(6), 6) * g1)
    IF (6 .LE. max(9, 0) .OR. 10 .GE. la(3)) g2 = la(7)
  ENDDO
  la(2) = (12 / (3 + 9))
END

SUBROUTINE proc439(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 11
  v2 = -4
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, la(2)
  la(2) = f0
  PRINT *, (max(v1, v0) * v2)
  g2 = 1
  la(12) = (la(2) / (3 + -3))
  v1 = v2
  g2 = 2
  IF (.NOT. (mod(-4, 6) .LT. 3)) v0 = g3
END

SUBROUTINE proc440(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = -2
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = g0
  v1 = (max(g1, 1) - g3)
  DO g2 = 2, 5
    v0 = max(13, 3)
    g1 = abs(mod(-2, 2))
  ENDDO
  g0 = abs(mod(f0, 2))
  v0 = ((11 / (5 + g3)) / (2 + 13))
  IF (mod(la(3), 4) .GT. v0 .AND. g1 .LT. 15) g3 = g1
  v1 = (la(12) + max(1, 1))
  g0 = 5
  IF (abs(g2) .GT. max(la(12), la(2)) .OR. f0 .LT. la(6)) g2 = (-1 / (4 + 1))
  g3 = ((11 * la(9)) * 9)
END

SUBROUTINE proc441(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (-1 .GE. la(10) .OR. g2 .EQ. -1) v0 = la(4)
  IF (.NOT. (la(4) .NE. -4)) THEN
    la(9) = (v1 + abs(la(5)))
  ELSE
    v0 = mod((g3 * 1), 2)
  ENDIF
END

SUBROUTINE proc442(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -3
  v2 = 9
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((10 * -5) .LT. 10 .AND. (g2 - la(11)) .LE. mod(10, 7)) g1 = (la(12) - 13)
  IF (.NOT. (g1 .GT. 6)) THEN
    IF (v0 .GE. la(7) .OR. max(la(12), -3) .LT. (5 / (4 + 1))) g0 = g0
  ELSE
    PRINT *, ((g1 + 3) / (6 + 2))
  ENDIF
  DO v1 = 0, 0
    g1 = ((la(1) / (2 + g0)) - la(8))
  ENDDO
  IF (11 .GT. 12) THEN
    la(2) = 9
    DO g1 = 0, 4
      la(12) = -3
      la(4) = v1
    ENDDO
  ENDIF
  g1 = 6
  la(3) = abs(1)
  la(10) = abs(mod(v2, 5))
  la(1) = la(6)
  g0 = (g3 / (2 + v3))
  PRINT *, la(3)
END

SUBROUTINE proc443(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = mod(abs(v0), 3)
END

SUBROUTINE proc444(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, ((4 / (6 + g2)) * 10)
  DO f0 = 1, 2
    g2 = la(12)
  ENDDO
END

SUBROUTINE proc445(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(4) = la(6)
END

SUBROUTINE proc446(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = mod(abs(f0), 5)
  g1 = v0
END

SUBROUTINE proc447(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(la(10), la(5)) .GT. (-3 + 7) .OR. (2 - g3) .LE. max(6, 4)) THEN
    la(1) = 2
    IF ((3 - la(8)) .EQ. max(la(5), g1) .AND. abs(v0) .GE. f1) THEN
      v1 = 6
    ENDIF
  ENDIF
  g0 = v0
END

SUBROUTINE proc448(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 3
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = (la(2) / (6 + f0))
  IF (.NOT. (-5 .GE. (12 - f0))) f1 = (5 * 11)
  PRINT *, abs((11 / (2 + 7)))
  IF (la(1) .LT. mod(v0, 6)) THEN
    la(7) = (f1 + 6)
    PRINT *, v1
  ENDIF
  la(2) = la(9)
  v2 = f0
  g2 = (-5 * 13)
  IF ((v2 * v1) .EQ. (-4 / (4 + 14)) .AND. 9 .LE. 5) THEN
    IF (.NOT. (la(2) .EQ. mod(f0, 8))) THEN
      f0 = abs((la(4) / (4 + -5)))
    ELSE
      la(12) = 1
      g1 = mod(14, 6)
    ENDIF
    v0 = v1
  ELSE
    g2 = ((la(9) - la(5)) + abs(la(10)))
    PRINT *, (la(8) * v0)
  ENDIF
  IF (0 .LE. la(2) .AND. v2 .NE. -5) THEN
    DO v2 = 3, 5
      v1 = (la(2) / (5 + g1))
      g0 = (la(5) - mod(9, 3))
    ENDDO
  ELSE
    la(11) = mod(la(7), 8)
  ENDIF
END

SUBROUTINE proc449(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 14
  v2 = 2
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = max(14, la(10))
  v0 = -5
END

SUBROUTINE proc450(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 13
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (3 - la(8))
  g1 = la(4)
  v3 = 5
  v2 = g0
  IF ((la(9) + 8) .EQ. 15 .OR. (2 - la(3)) .LT. (12 * v3)) THEN
    v1 = ((-3 - g2) - mod(0, 8))
    g1 = 5
  ENDIF
  PRINT *, abs(14)
  IF (.NOT. (7 .NE. (5 * 13))) g0 = (15 / (4 + v0))
  f1 = la(9)
  IF ((12 + la(10)) .LT. abs(g0)) g1 = (la(9) / (4 + la(10)))
END

SUBROUTINE proc451(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = (abs(la(3)) + -1)
  g2 = (mod(la(11), 6) * 14)
  g1 = max(2, v1)
  g2 = 5
  g2 = abs((13 - la(3)))
  IF (12 .EQ. max(la(2), 9)) g1 = 2
END

SUBROUTINE proc452(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 2
  v2 = -2
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g2 = 0, 0
    g0 = 9
  ENDDO
  PRINT *, ((g1 - 9) + (2 - 12))
  IF (9 .GT. (-5 * g3) .AND. abs(la(12)) .GE. max(la(5), v3)) g1 = g2
  g2 = mod(-4, 5)
  v1 = -5
  g1 = (mod(la(12), 7) / (5 + v2))
  f0 = (2 + 2)
  la(5) = abs(-5)
END

SUBROUTINE proc453(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, -1
  g1 = (-1 * -1)
  g1 = 3
  v1 = (abs(la(2)) / (4 + g3))
  la(6) = max(g3, 3)
END

SUBROUTINE proc454(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = -3
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = 13
  g2 = 13
  la(5) = v2
  la(3) = 7
  la(9) = -5
  IF (la(6) .LT. (-5 / (3 + la(10))) .AND. mod(la(7), 8) .NE. (11 + 1)) g1 = (la(7) - g3)
  IF (g1 .NE. -4 .AND. max(3, 12) .LT. (v2 / (3 + 10))) v2 = max(7, g2)
  PRINT *, max(g3, g0)
  PRINT *, -1
END

SUBROUTINE proc455(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(5)
  IF (abs(la(5)) .LT. la(9)) v0 = f0
  IF (.NOT. ((g0 / (6 + 5)) .GE. (-2 + 11))) THEN
    v1 = g3
    DO g2 = 2, 3
      f0 = la(6)
    ENDDO
  ENDIF
  PRINT *, abs(mod(v1, 3))
  g3 = mod(6, 8)
  f1 = 3
  IF (mod(la(3), 2) .EQ. (7 / (2 + la(6))) .AND. la(8) .GT. v0) THEN
    g3 = la(7)
    g3 = (la(9) / (3 + -1))
  ENDIF
  f0 = 5
  g1 = la(5)
END

SUBROUTINE proc456(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(f0) .NE. v0 .AND. (13 * g0) .NE. -1) THEN
    v0 = abs((la(3) / (4 + v0)))
    la(2) = 7
  ELSE
    g3 = mod(5, 3)
  ENDIF
  g1 = 14
  PRINT *, (7 * 11)
  IF ((7 * la(5)) .LT. 5) v0 = (13 - v0)
  f0 = 0
  v0 = v0
  g0 = -5
  g2 = (-1 + 3)
END

SUBROUTINE proc457(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 1
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 1, 2
    DO v1 = 0, 4
      la(10) = la(12)
      g1 = g3
    ENDDO
  ENDDO
  v1 = -2
END

SUBROUTINE proc458(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 5
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(2) = (-5 + abs(6))
END

SUBROUTINE proc459(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 9
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = (14 / (5 + 5))
  v2 = -5
  DO g3 = 0, 1
    f1 = v0
    DO f0 = 0, 3
      g2 = la(5)
    ENDDO
  ENDDO
  f0 = -1
  DO f1 = 3, 6
    g1 = 14
    v0 = 4
  ENDDO
  g3 = la(9)
  g3 = (abs(5) * v0)
  g0 = ((la(9) + -5) + 5)
END

SUBROUTINE proc460(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = v1
  PRINT *, 11
  PRINT *, 7
  g3 = ((g1 - la(11)) + mod(la(2), 6))
END

SUBROUTINE proc461(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 12
  v2 = 6
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = (la(4) / (5 + g0))
  v2 = abs(abs(3))
  f0 = v3
  IF (g2 .LT. (1 + la(11)) .AND. max(f0, 7) .GE. (8 / (5 + g0))) THEN
    v1 = 9
  ELSE
    g0 = g3
    la(6) = max(8, 15)
  ENDIF
  v2 = (-5 - 14)
END

SUBROUTINE proc462(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 13
  v2 = -2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, f1
  f0 = la(12)
  PRINT *, -1
  f0 = (12 * v1)
  IF (.NOT. (abs(7) .EQ. 6)) THEN
    IF (.NOT. (g0 .NE. 10)) THEN
      g2 = mod((8 * la(10)), 5)
    ELSE
      la(8) = abs(la(10))
      g3 = ((-1 * f0) - abs(9))
    ENDIF
  ENDIF
  g3 = (la(11) + (v1 - 15))
  la(10) = abs(mod(0, 6))
END

SUBROUTINE proc463(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 6
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(8)
  DO v2 = 2, 5
    g1 = la(3)
  ENDDO
  g2 = 12
  v1 = la(2)
  v0 = g1
END

SUBROUTINE proc464(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = 3
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (7 + 3)
  f1 = 11
  g2 = la(12)
  v2 = abs((6 - v1))
  la(11) = 10
  DO v2 = 1, 1
    v1 = max(la(9), -5)
  ENDDO
  IF (la(4) .GE. (f1 - g2) .AND. 12 .LE. la(4)) THEN
    IF (.NOT. (2 .LT. (-4 + 4))) v1 = -4
  ELSE
    g0 = la(2)
    DO f1 = 1, 3
      g3 = 11
      g3 = mod(mod(g3, 7), 2)
    ENDDO
  ENDIF
  g3 = 0
  g0 = (v3 + (la(6) / (6 + -3)))
  IF (.NOT. (4 .NE. la(5))) v3 = (v1 * -5)
END

SUBROUTINE proc465(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 7
  v2 = 2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, mod((14 / (5 + 9)), 5)
  f0 = (la(5) + g3)
  DO v0 = 3, 3
    g2 = (la(10) - g2)
  ENDDO
  v3 = mod((la(1) * g2), 4)
  v2 = g3
  v1 = 10
  g3 = v1
  v2 = abs(10)
  IF (8 .LE. 15 .OR. g1 .NE. (g1 / (3 + g0))) THEN
    v1 = la(10)
    g0 = la(7)
  ENDIF
  g2 = (la(7) - (g0 + la(2)))
END

SUBROUTINE proc466(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -4
  v2 = 14
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = v0
  la(10) = la(3)
  la(4) = mod(g2, 6)
END

SUBROUTINE proc467(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 9
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, 14
  g2 = (la(4) / (2 + 4))
  f0 = 14
  IF (-1 .NE. 11) THEN
    v0 = max(2, la(9))
  ELSE
    g1 = mod(la(9), 2)
  ENDIF
  v2 = 1
END

SUBROUTINE proc468(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -2
  v2 = -4
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = -2
  IF (abs(4) .GE. 8 .OR. la(9) .GT. v1) THEN
    v3 = mod(5, 7)
  ELSE
    v2 = mod((1 + g2), 2)
  ENDIF
  v0 = (la(2) / (6 + 2))
  f0 = (g2 * la(3))
  g1 = g1
END

SUBROUTINE proc469(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = -1
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = abs(v2)
  la(8) = abs(6)
  v1 = f1
END

SUBROUTINE proc470(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 4
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, mod(v0, 2)
  g3 = ((la(6) / (6 + v0)) / (6 + la(3)))
  IF (4 .LE. 12) v0 = (-3 + la(4))
  v1 = (abs(11) - (g3 / (3 + -5)))
  v0 = abs((la(10) - 2))
  g0 = abs(2)
  PRINT *, (-4 * 10)
  g1 = 12
END

SUBROUTINE proc471(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 11
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = v2
  f0 = ((-5 + la(8)) + mod(g0, 6))
  g1 = (g1 / (3 + f1))
  g2 = mod(mod(5, 3), 7)
  f1 = max(v2, g2)
  IF ((la(4) + -4) .GE. abs(-1) .AND. la(4) .GE. (6 - 3)) THEN
    v1 = g3
    IF ((la(2) / (2 + g0)) .LE. 1 .OR. abs(la(7)) .GE. max(9, -1)) THEN
      PRINT *, g1
    ELSE
      IF (.NOT. (la(10) .NE. (-4 + g1))) f0 = -4
    ENDIF
  ENDIF
  IF (.NOT. ((12 / (5 + la(1))) .GT. (f1 * f0))) THEN
    DO g2 = 1, 1
      IF (10 .LE. la(10) .OR. abs(13) .LT. mod(12, 7)) f1 = abs(8)
    ENDDO
    IF (0 .LT. mod(-3, 5) .OR. (8 - f0) .LE. (3 * 4)) THEN
      g1 = ((la(3) + la(2)) + max(la(10), la(7)))
    ELSE
      f0 = g3
    ENDIF
  ELSE
    IF (.NOT. ((la(4) * 12) .LE. (f1 - la(9)))) g1 = mod(g0, 2)
  ENDIF
END

SUBROUTINE proc472(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = max(4, la(12))
  IF (v1 .EQ. abs(g3) .OR. (la(10) + la(6)) .EQ. la(6)) THEN
    v1 = mod(abs(11), 3)
  ELSE
    IF (mod(v0, 3) .EQ. (11 / (5 + 8))) v1 = 14
  ENDIF
  DO g0 = 0, 3
    PRINT *, la(1)
    g3 = la(3)
  ENDDO
  f0 = (abs(la(4)) * g3)
  f0 = (la(5) * la(5))
  IF (3 .EQ. max(la(12), g0)) v3 = 2
END

SUBROUTINE proc473(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 0
  v2 = 6
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = -2
  g2 = la(10)
  v3 = (la(5) / (5 + la(3)))
  g3 = abs(v1)
END

SUBROUTINE proc474(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 2
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((-1 / (2 + v0)) .EQ. 1) THEN
    DO v1 = 3, 5
      IF (7 .LE. 13) g3 = v0
    ENDDO
    f0 = v0
  ELSE
    DO g1 = 3, 7
      v1 = (abs(7) * 9)
    ENDDO
    v2 = ((1 * f0) + (7 / (5 + 7)))
  ENDIF
  g2 = la(2)
  IF (.NOT. (la(12) .NE. 14)) THEN
    g2 = 12
    IF ((g0 * g1) .LT. (la(7) - la(3)) .AND. mod(la(10), 5) .LE. v0) g1 = 11
  ENDIF
  IF (abs(4) .NE. abs(2) .AND. f0 .LT. f0) THEN
    v2 = g0
    DO g3 = 3, 7
      IF (la(6) .NE. la(10) .AND. max(la(8), v2) .GT. 13) v0 = 1
      IF (.NOT. (g2 .LE. la(2))) v0 = mod(-1, 3)
    ENDDO
  ELSE
    la(7) = max(la(10), la(1))
  ENDIF
  PRINT *, ((la(5) * 15) + -2)
  f0 = (f0 / (5 + la(5)))
  IF (g2 .EQ. la(11)) THEN
    v0 = -4
  ENDIF
  DO f0 = 0, 1
    g1 = 4
  ENDDO
END

SUBROUTINE proc475(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (14 / (4 + 12))
  DO g1 = 2, 6
    IF (la(1) .LT. (-3 / (6 + la(11)))) g2 = (v0 + 10)
  ENDDO
  IF (la(2) .GE. mod(-2, 3)) f0 = mod(la(7), 7)
  la(4) = mod((-4 - -4), 3)
  f0 = la(8)
  IF (10 .LE. f0 .AND. (la(6) * la(9)) .EQ. la(11)) f0 = v1
  IF (mod(v1, 4) .LE. mod(la(8), 8)) g3 = (-4 * 4)
  IF (.NOT. (max(la(7), 1) .NE. (0 * 14))) g3 = (14 - 12)
  la(12) = abs(-1)
END

SUBROUTINE proc476(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 5
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = ((3 / (5 + v0)) + (5 / (2 + v2)))
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
  g3 = v2
  la(10) = (la(9) - la(2))
  v2 = mod(12, 3)
END

SUBROUTINE proc477(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 11
  v2 = -3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = la(7)
  g3 = 1
END

SUBROUTINE proc478(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -1
  v2 = 11
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = la(12)
END

SUBROUTINE proc479(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = mod(5, 7)
  f0 = mod(la(6), 4)
  la(7) = ((la(10) / (6 + 3)) - max(-1, 12))
  v0 = la(2)
  IF ((-4 / (2 + 5)) .LE. mod(f1, 6) .OR. mod(2, 8) .EQ. la(8)) v1 = g3
END

SUBROUTINE proc480(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 11
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (9 + -3)
END

SUBROUTINE proc481(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 7
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 8
  v1 = 4
  v0 = v0
  IF ((la(11) / (6 + 3)) .NE. max(6, la(9)) .OR. 10 .GE. abs(12)) g2 = (la(11) + 2)
  la(5) = 2
  v1 = (max(g2, -4) - 8)
  g3 = max(-3, g0)
  g3 = abs(la(8))
  la(2) = mod((1 + la(3)), 2)
END

SUBROUTINE proc482(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = (4 / (5 + f0))
  DO v1 = 2, 4
    la(12) = -4
    DO g1 = 0, 2
      IF (v1 .EQ. 4 .AND. (la(6) * v0) .LE. abs(la(3))) v0 = f0
    ENDDO
  ENDDO
  DO g0 = 1, 2
    g3 = la(4)
  ENDDO
  g0 = max(3, 12)
  IF (.NOT. ((la(11) + -3) .EQ. (v0 * f0))) THEN
    la(11) = mod(la(5), 8)
    v1 = la(2)
  ENDIF
  g2 = ((6 / (5 + 8)) + 2)
END

SUBROUTINE proc483(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 5
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = abs(5)
  DO v2 = 2, 3
    IF ((1 / (2 + 4)) .GE. (v1 - la(3)) .OR. max(la(11), 12) .EQ. mod(la(2), 3)) v0 = la(4)
  ENDDO
  g3 = 12
  v2 = -5
END

SUBROUTINE proc484(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 0
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(3) = 9
  DO g0 = 1, 5
    g3 = la(6)
  ENDDO
  DO g2 = 1, 1
    g1 = (mod(la(3), 2) / (6 + g1))
    la(5) = ((g3 - 7) + 12)
  ENDDO
END

SUBROUTINE proc485(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = g2
  IF (mod(g1, 8) .GT. 5 .OR. -4 .GE. (g3 - g1)) v1 = -1
  v0 = f0
  v1 = mod(v1, 8)
  v1 = abs((v1 - 4))
  f0 = (-1 - g2)
END

SUBROUTINE proc486(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 2
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = 0
  IF (la(4) .LT. 4 .AND. 2 .LE. (7 * g0)) v2 = (11 / (3 + 7))
  la(10) = la(1)
  DO v2 = 2, 6
    IF (.NOT. ((6 + v2) .GT. mod(la(1), 4))) g2 = (10 - -2)
    DO g2 = 0, 3
      g3 = (abs(2) + la(2))
      v1 = v0
    ENDDO
  ENDDO
  PRINT *, la(2)
  v0 = (6 - 11)
  IF (.NOT. ((la(5) * 9) .LT. (15 / (4 + 0)))) THEN
    DO g1 = 1, 2
      v0 = 4
    ENDDO
    g2 = ((la(4) / (3 + g0)) * -3)
  ENDIF
  DO v1 = 1, 3
    g2 = abs(max(14, la(12)))
    g2 = max(11, la(4))
  ENDDO
END

SUBROUTINE proc487(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 7
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = (abs(0) + abs(v2))
END

SUBROUTINE proc488(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = 15
  g3 = la(12)
  PRINT *, (11 * la(2))
  la(1) = max(6, 0)
  f1 = ((la(1) + 14) / (4 + 13))
  la(12) = (la(2) - g1)
END

SUBROUTINE proc489(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = v0
  PRINT *, mod((-3 / (2 + 2)), 2)
  PRINT *, (abs(-4) - (f0 * la(1)))
  PRINT *, max(g3, 3)
  v0 = la(6)
  IF (2 .EQ. (la(11) / (3 + 4)) .AND. (la(11) + 4) .NE. (6 / (6 + la(10)))) THEN
    PRINT *, max(0, la(2))
    f1 = (max(15, 2) - g2)
  ENDIF
  IF (.NOT. (1 .GT. 3)) v1 = mod(-1, 4)
END

SUBROUTINE proc490(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 9
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, mod(-5, 7)
  IF (7 .EQ. mod(la(12), 8) .OR. 11 .GE. (f0 - la(12))) v0 = 12
  g0 = ((-2 + la(5)) / (4 + la(11)))
END

SUBROUTINE proc491(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = 0
END

SUBROUTINE proc492(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 1
  v2 = -2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(2) = mod((4 + 15), 3)
  f1 = la(9)
  v2 = 9
  g0 = ((la(2) - g0) / (6 + 7))
END

SUBROUTINE proc493(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = 10
  g3 = max(f1, la(11))
  g2 = (abs(la(2)) - (g3 / (5 + g0)))
  IF (max(0, f1) .LT. 1) THEN
    g2 = (la(11) * 11)
    IF (g3 .LT. max(14, 15)) v1 = (g3 - -3)
  ENDIF
  DO f0 = 1, 1
    DO g3 = 2, 2
      PRINT *, (0 * f0)
    ENDDO
  ENDDO
  g0 = mod((1 - la(3)), 4)
  g1 = la(9)
END

SUBROUTINE proc494(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -4
  v2 = -1
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 3
  v2 = (14 - (la(5) / (6 + 9)))
  IF (max(10, 3) .GE. (v2 / (3 + la(2))) .AND. 10 .LE. 9) v0 = (-5 / (3 + la(11)))
  PRINT *, abs(v2)
  v2 = 8
  la(1) = 5
  PRINT *, 14
  v3 = 7
END

SUBROUTINE proc495(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (mod(5, 3) .GE. 5 .OR. la(4) .GE. 9) THEN
    g3 = -5
  ENDIF
  v0 = (12 * la(10))
  f1 = (0 * la(8))
  f0 = (mod(12, 7) - g2)
  g0 = max(g0, 13)
END

SUBROUTINE proc496(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 4
  v2 = 12
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 2, 6
    g3 = f0
  ENDDO
  IF (4 .GT. 1 .AND. (-3 / (3 + f1)) .LE. 9) g1 = (la(5) / (3 + 5))
  f0 = (g3 / (4 + la(6)))
END

SUBROUTINE proc497(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = (1 / (6 + 14))
  IF (.NOT. (la(3) .LE. (g3 / (2 + g0)))) THEN
    PRINT *, f0
  ENDIF
  f0 = abs(mod(v1, 2))
END

SUBROUTINE proc498(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 13
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = (la(3) - -4)
  PRINT *, (max(la(12), 1) + 13)
  g0 = ((11 * 14) * 9)
  g0 = v1
  v1 = 14
  la(1) = ((la(6) + 0) - g3)
END

SUBROUTINE proc499(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(8) .GT. -4 .AND. abs(g1) .LE. (g0 - g3)) v2 = 4
  g1 = v2
  g1 = f0
END

SUBROUTINE proc500(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 3
  v2 = 10
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 2, 4
    g0 = (mod(8, 8) * la(9))
  ENDDO
  la(6) = ((g0 * -5) - (-2 - -2))
END

SUBROUTINE proc501(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 0
  v2 = 3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (la(7) / (2 + g1))
END

SUBROUTINE proc502(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = max(-2, la(7))
  g1 = la(3)
  IF (v0 .LE. la(12)) THEN
    f0 = (la(9) - 4)
  ENDIF
  g1 = 2
  v1 = 9
  IF (abs(la(6)) .EQ. mod(la(2), 6)) THEN
    DO f0 = 3, 4
      f1 = ((8 - 11) - 4)
    ENDDO
  ENDIF
  la(10) = f1
  v1 = f1
  g2 = la(6)
  g2 = (max(g2, g0) * v1)
END

SUBROUTINE proc503(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 0
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = -1
  DO f0 = 0, 4
    IF (la(5) .EQ. la(7) .OR. (v1 * 7) .LT. (0 + la(3))) THEN
      g2 = (la(11) - g1)
    ELSE
      v0 = (abs(-4) + g3)
    ENDIF
  ENDDO
  IF (max(6, -1) .GT. (13 / (3 + v2)) .OR. f1 .NE. (v0 * 10)) THEN
    IF (.NOT. (15 .LE. max(11, -2))) f0 = v1
  ELSE
    la(9) = la(10)
  ENDIF
  v2 = (11 + (5 / (6 + 11)))
END

SUBROUTINE proc504(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, (la(3) * g3)
  la(1) = la(8)
  DO v1 = 1, 4
    PRINT *, 15
  ENDDO
  v0 = 4
  g3 = mod(8, 2)
  DO v1 = 1, 1
    IF ((4 + -4) .LE. abs(f0) .AND. la(1) .GT. 1) THEN
      IF ((6 / (6 + 2)) .GT. la(9) .OR. 4 .EQ. mod(0, 3)) g2 = -2
    ENDIF
    la(1) = mod(la(8), 2)
  ENDDO
  v1 = (-3 / (4 + la(7)))
  v0 = (la(1) - la(10))
END

SUBROUTINE proc505(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = mod(3, 2)
  IF ((la(6) - v0) .NE. f0) THEN
    g1 = (g2 * 7)
    g2 = mod(g1, 7)
  ENDIF
  g0 = mod((12 / (3 + 15)), 4)
  PRINT *, 1
  v1 = max(la(5), 11)
  v0 = 10
  DO f0 = 1, 3
    g2 = (10 + 11)
    g3 = mod(v0, 8)
  ENDDO
  DO g1 = 2, 3
    DO g2 = 1, 2
      v0 = 11
    ENDDO
  ENDDO
END

SUBROUTINE proc506(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = ((f1 + la(2)) + 13)
END

SUBROUTINE proc507(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 11
  v2 = 8
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v2 = la(12)
END

SUBROUTINE proc508(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 10
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (mod(v2, 6) .EQ. v1)) THEN
    IF ((13 + -3) .NE. abs(5) .OR. g2 .LT. la(9)) v0 = la(4)
    g0 = la(4)
  ELSE
    g2 = ((la(1) / (5 + 6)) / (4 + la(3)))
  ENDIF
  IF (la(5) .NE. 9 .AND. -4 .NE. (la(1) + 13)) THEN
    PRINT *, v1
    DO g1 = 3, 5
      f1 = f0
    ENDDO
  ELSE
    PRINT *, (mod(14, 3) - 14)
    g0 = la(5)
  ENDIF
  v1 = 14
  g2 = mod(mod(g2, 8), 6)
  g0 = (-2 * 7)
  IF (.NOT. (la(5) .LE. mod(6, 2))) THEN
    v0 = 10
  ELSE
    v1 = g1
  ENDIF
  IF (.NOT. (8 .LT. la(9))) v1 = mod(9, 4)
  IF (max(la(2), 15) .NE. (la(1) / (5 + g0)) .OR. (la(1) - g2) .GE. mod(-5, 8)) f1 = la(12)
END

SUBROUTINE proc509(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (max(la(6), 11) .LE. (la(7) - 1)) THEN
    g1 = 7
  ENDIF
  v1 = abs((15 * 15))
  PRINT *, la(11)
  IF (11 .GE. abs(-4) .AND. v1 .NE. g3) THEN
    f0 = 13
    DO v1 = 2, 2
      g1 = (abs(5) / (6 + la(2)))
    ENDDO
  ELSE
    g2 = max(2, la(7))
  ENDIF
  la(9) = max(4, 8)
  DO f0 = 3, 7
    la(8) = 3
    g1 = f0
  ENDDO
  g2 = 12
  IF (.NOT. ((la(9) + f0) .LT. (-4 + la(6)))) THEN
    PRINT *, (abs(-1) - (la(7) / (6 + g3)))
  ELSE
    IF (-5 .EQ. abs(13)) THEN
      v0 = 9
      g2 = g1
    ELSE
      g1 = la(2)
    ENDIF
    v1 = (la(10) * la(9))
  ENDIF
END

SUBROUTINE proc510(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 8
  v2 = 6
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v3 = (-1 + mod(f0, 8))
  g2 = v3
  v1 = 13
  IF (.NOT. (14 .GT. la(3))) v1 = max(0, 2)
  g3 = 13
END

SUBROUTINE proc511(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 10
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = -3
  v1 = la(5)
  la(9) = max(g3, la(10))
  la(2) = 15
END

SUBROUTINE proc512(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = v0
  f0 = 5
  f0 = la(7)
  g0 = max(la(1), -5)
  IF ((4 * -5) .LT. abs(5) .AND. (g3 / (3 + 11)) .LT. (v0 + 1)) THEN
    v1 = abs(v1)
  ENDIF
  f1 = -2
  g2 = g3
  g1 = (g3 - f1)
  IF (10 .GE. max(-5, la(9)) .OR. abs(8) .GE. (6 * la(7))) g0 = 6
END

SUBROUTINE proc513(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 5
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = ((v0 - v1) - -4)
  g1 = abs(v1)
  IF ((5 + -2) .EQ. la(11) .OR. (7 - g3) .NE. abs(15)) f0 = max(v1, 15)
  la(8) = -5
  IF (.NOT. ((la(10) + -5) .GE. mod(-2, 8))) THEN
    v2 = mod(la(12), 8)
  ENDIF
  g0 = max(6, 6)
END

SUBROUTINE proc514(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 0
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(10) = 12
  la(3) = 15
  v2 = la(5)
  g1 = g1
  PRINT *, g2
  DO v0 = 3, 7
    IF (.NOT. ((g2 * la(12)) .GE. 7)) THEN
      g1 = (f0 / (5 + 14))
    ELSE
      g0 = abs((10 + g1))
      g0 = ((6 * -5) / (4 + 3))
    ENDIF
    DO g3 = 3, 4
      IF (.NOT. (la(8) .LT. 14)) g1 = max(15, 3)
      la(6) = abs(max(12, 10))
    ENDDO
  ENDDO
END

SUBROUTINE proc515(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 12
  v2 = -4
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, (la(1) / (3 + la(12)))
  v2 = (abs(2) * 8)
  g2 = la(8)
  DO v0 = 3, 6
    IF ((12 - 6) .GE. la(2)) v2 = 13
    g3 = ((-3 / (3 + v2)) * -2)
  ENDDO
  g3 = ((la(1) / (5 + 14)) + la(7))
END

SUBROUTINE proc516(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 13
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v3 = (11 / (5 + v3))
END

SUBROUTINE proc517(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = 0
  PRINT *, -2
  la(2) = (4 + abs(f1))
  g2 = (abs(1) * -2)
  f0 = v1
  DO v1 = 2, 2
    f0 = max(-1, 3)
  ENDDO
  g1 = f0
  v1 = (mod(2, 4) + v0)
  v0 = la(6)
  IF (mod(la(10), 7) .GE. (g3 / (4 + -1)) .OR. (la(4) - la(7)) .GE. -2) THEN
    v1 = mod(mod(g2, 7), 4)
  ELSE
    f1 = (10 - 11)
    g1 = la(1)
  ENDIF
END

SUBROUTINE proc518(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 5
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 10
  v1 = 11
  f0 = (5 - f0)
  v0 = g1
  la(7) = max(g2, 5)
  f0 = ((-3 * -2) * la(4))
  g0 = max(6, 2)
END

SUBROUTINE proc519(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 12
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = (la(9) - abs(la(10)))
  DO g1 = 1, 4
    v2 = max(10, 2)
  ENDDO
  v2 = (la(7) - max(la(10), la(2)))
  g0 = la(8)
  IF (.NOT. (2 .LT. la(12))) v2 = (7 / (5 + 13))
  f0 = 15
  PRINT *, abs(15)
END

SUBROUTINE proc520(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 4
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v3 = la(9)
  la(6) = f0
  DO g1 = 2, 3
    v1 = la(4)
    la(6) = g1
  ENDDO
  f0 = max(la(10), f0)
  g1 = mod(g0, 7)
  f1 = (mod(10, 2) - (v3 / (3 + -5)))
  la(4) = 15
  la(2) = la(7)
  g2 = la(3)
END

SUBROUTINE proc521(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 8
  v2 = 7
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (abs(-1) + 8)
  g2 = (la(5) / (3 + la(3)))
  v3 = -4
  g1 = 12
  IF (-3 .GT. (v0 - g3)) THEN
    g3 = ((la(3) - v0) * 10)
  ENDIF
  PRINT *, la(6)
  g2 = la(11)
  DO v0 = 2, 5
    v3 = (abs(f1) + (-4 - g3))
    v3 = mod((v0 / (3 + 0)), 3)
  ENDDO
END

SUBROUTINE proc522(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 7
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = (mod(6, 3) * -5)
  g0 = (la(4) - (g2 + 13))
END

SUBROUTINE proc523(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 14
  v2 = 7
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(7)
  v3 = (mod(la(2), 3) - (la(11) / (6 + v2)))
  g2 = v1
  IF (.NOT. (v0 .LE. mod(g2, 4))) v2 = (4 - v3)
  DO g2 = 2, 3
    g1 = (max(0, 8) + (la(11) + 7))
    v3 = v3
  ENDDO
  IF (5 .GT. abs(3)) g2 = 4
END

SUBROUTINE proc524(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 14
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = max(5, la(1))
  g0 = la(7)
  g1 = abs(-2)
  v2 = max(5, 5)
  g2 = (mod(15, 6) / (5 + v0))
  IF (g1 .NE. (-4 * 11)) THEN
    v0 = (g2 / (6 + -3))
    g3 = abs(0)
  ENDIF
  f0 = 8
END

SUBROUTINE proc525(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, (mod(12, 6) / (4 + g2))
  g2 = f0
  PRINT *, 3
  la(1) = (11 - -4)
  f0 = g2
END

SUBROUTINE proc526(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = v1
  PRINT *, max(1, g3)
  g3 = abs(10)
  g3 = abs((la(9) * f0))
  la(6) = la(8)
END

SUBROUTINE proc527(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = (mod(1, 5) / (6 + 9))
  g3 = -3
END

SUBROUTINE proc528(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 7
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v2 = 4
  PRINT *, ((f0 * la(7)) - (9 * g1))
  PRINT *, -1
  IF (-3 .GE. g1) THEN
    g3 = (max(g3, g1) * la(2))
  ENDIF
  g3 = (la(2) * -1)
  IF (la(1) .NE. la(2) .AND. (-3 / (5 + 2)) .NE. la(8)) v1 = la(10)
  v0 = abs((f0 - 8))
  g3 = 6
  IF (v2 .NE. abs(g0)) THEN
    IF (.NOT. ((la(1) + la(2)) .GE. abs(g1))) THEN
      IF (.NOT. (max(la(4), -4) .LT. -4)) g0 = 5
      v2 = (f0 + -5)
    ENDIF
  ELSE
    g2 = mod((v2 + 4), 3)
  ENDIF
END

SUBROUTINE proc529(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 11
  v2 = 4
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, g0
  DO v3 = 2, 5
    v0 = g3
  ENDDO
  PRINT *, ((3 / (5 + g3)) / (2 + 13))
  g3 = la(5)
  DO v0 = 1, 5
    g3 = 11
    la(12) = ((f0 - 10) + abs(la(7)))
  ENDDO
  v1 = 15
  la(5) = -1
  PRINT *, v0
  f0 = ((la(3) + 15) * la(12))
  DO v2 = 3, 4
    DO f0 = 3, 6
      IF (mod(g1, 5) .GT. 3) g1 = mod(10, 8)
      g1 = f0
    ENDDO
  ENDDO
END

SUBROUTINE proc530(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 12
  v2 = 12
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(9) = (12 + (g3 * v0))
  v2 = (6 - (9 + g2))
  IF ((-5 - 14) .GT. v1 .AND. mod(14, 2) .LE. mod(-5, 7)) THEN
    v3 = la(8)
    f0 = -2
  ENDIF
  IF (la(10) .GT. (la(9) + 2) .OR. (13 * 12) .NE. abs(-1)) THEN
    DO g2 = 3, 7
      IF (la(11) .LT. -3 .AND. 9 .LT. mod(13, 3)) g0 = la(4)
    ENDDO
    PRINT *, 10
  ENDIF
  IF (.NOT. (8 .LT. (15 / (3 + 10)))) THEN
    la(5) = g2
    IF (v3 .GE. 5 .OR. 2 .LT. 0) THEN
      g1 = mod((11 + -3), 8)
      v3 = max(2, la(9))
    ELSE
      PRINT *, v2
    ENDIF
  ENDIF
  IF (g2 .GE. max(7, 15) .OR. max(10, -1) .GE. 7) g0 = mod(f0, 6)
  g2 = -1
  g3 = ((la(3) + la(11)) / (2 + 13))
  IF ((10 / (5 + f0)) .GE. 2 .OR. la(5) .LT. (-3 * la(5))) f0 = (0 - la(2))
  IF (.NOT. (v0 .LT. (15 - v1))) g0 = la(4)
END

SUBROUTINE proc531(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = 4
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (mod(la(11), 7) .NE. 13 .AND. 11 .GT. abs(2)) g3 = -3
  PRINT *, max(g1, 4)
  DO v2 = 1, 3
    g0 = 1
  ENDDO
  g3 = abs(2)
  DO g1 = 3, 3
    v2 = 2
    DO v2 = 0, 1
      f0 = -2
      PRINT *, mod(-4, 4)
    ENDDO
  ENDDO
  g1 = (6 / (2 + la(1)))
END

SUBROUTINE proc532(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (v1 .LE. 4)) THEN
    g0 = 3
    IF (-3 .EQ. (la(10) - la(6)) .OR. la(2) .NE. (6 + 7)) v1 = g3
  ELSE
    g1 = 3
    PRINT *, ((6 / (5 + 11)) + 9)
  ENDIF
  IF ((f0 - 3) .GT. la(1)) THEN
    v0 = v1
  ELSE
    la(8) = ((-4 - la(6)) + 9)
    v1 = max(la(10), la(10))
  ENDIF
  g0 = abs(la(10))
END

SUBROUTINE proc533(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = abs(g1)
  f0 = (la(8) * la(1))
END

SUBROUTINE proc534(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = 0
  IF (1 .EQ. 0 .OR. 13 .NE. 14) THEN
    IF (.NOT. (max(f0, 10) .EQ. max(f0, 7))) g2 = -2
    IF (4 .GE. la(4) .OR. max(v1, la(12)) .GT. (-5 * 3)) THEN
      la(3) = mod(la(7), 8)
    ELSE
      g3 = 8
    ENDIF
  ELSE
    PRINT *, 13
  ENDIF
  g3 = g1
  g2 = abs(9)
  IF (2 .GE. f0 .OR. (la(6) - 14) .LE. (-4 - 6)) f0 = g2
  IF ((4 * 5) .NE. 1 .AND. -4 .LT. (12 + 0)) THEN
    DO g0 = 1, 1
      la(3) = (10 - g1)
      IF (g0 .GT. mod(1, 3)) f0 = max(g1, la(2))
    ENDDO
  ENDIF
  DO f0 = 1, 4
    v1 = (3 * g3)
  ENDDO
END

SUBROUTINE proc535(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 7
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = (12 * 9)
  IF (.NOT. (la(4) .GE. (la(10) / (6 + -1)))) THEN
    IF (-1 .LT. max(v1, la(11)) .AND. la(4) .LE. g2) THEN
      g1 = la(1)
    ELSE
      g1 = ((8 + v0) + la(1))
      PRINT *, 15
    ENDIF
  ENDIF
  IF (max(2, v1) .NE. g2 .AND. la(10) .GT. abs(la(6))) f0 = la(6)
  g3 = la(3)
  la(8) = v1
END

SUBROUTINE proc536(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (2 .GT. la(1)) f0 = (6 * la(8))
  IF (max(f0, f1) .LT. (g3 - 15)) g2 = (10 / (3 + -1))
  PRINT *, (abs(la(2)) + la(9))
END

SUBROUTINE proc537(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 8
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(12) = f0
  f1 = (abs(g0) + (la(3) + 6))
  f1 = v0
  IF ((g1 * 12) .EQ. (7 - v2) .AND. la(10) .LT. 7) g2 = abs(v1)
  IF (abs(la(8)) .GE. 2 .OR. 3 .LT. -5) g1 = la(2)
END

SUBROUTINE proc538(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = -1
  f1 = -2
  PRINT *, mod((4 - la(7)), 2)
  g2 = 7
  g1 = -2
END

SUBROUTINE proc539(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -2
  v2 = 11
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = 11
  PRINT *, (max(0, v2) * -5)
  la(2) = g2
  IF (.NOT. (-1 .GE. -3)) THEN
    PRINT *, g0
    v3 = abs(g2)
  ENDIF
  la(2) = mod((la(2) - 14), 6)
  v3 = (-2 - (la(1) / (3 + 5)))
  v0 = (-3 + 0)
  g1 = ((g3 + v0) / (5 + v2))
END

SUBROUTINE proc540(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -3
  v2 = 12
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = ((v2 - la(2)) / (2 + la(4)))
  v1 = -5
  g2 = 0
END

SUBROUTINE proc541(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 0
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = abs(v1)
  v1 = mod((0 + 7), 6)
END

SUBROUTINE proc542(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 12
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (g2 .LE. v2) THEN
    DO v0 = 2, 4
      v1 = abs(10)
    ENDDO
  ELSE
    IF ((3 - 1) .GT. max(8, la(2)) .AND. mod(g1, 4) .GE. max(1, g3)) v0 = g2
  ENDIF
  IF ((10 - 13) .EQ. la(7) .AND. mod(2, 4) .NE. (v1 * g2)) THEN
    v0 = (v1 + max(4, -4))
    g1 = abs(max(11, la(4)))
  ELSE
    PRINT *, (max(la(12), g0) * 0)
    v2 = ((-3 - v0) + -3)
  ENDIF
  g3 = 8
  IF (g3 .NE. (-2 * v2) .AND. (3 + 1) .GE. -5) g3 = (9 - la(10))
  f0 = la(10)
  IF ((g3 / (5 + 3)) .LE. (-4 * -2)) g2 = g1
  g1 = (0 / (4 + 7))
END

SUBROUTINE proc543(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 2
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(11) = (max(f0, 13) * 10)
  DO v2 = 0, 1
    g0 = (v1 + g0)
  ENDDO
END

SUBROUTINE proc544(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(1) + 7) .GT. abs(15) .AND. mod(la(1), 3) .EQ. 7) THEN
    g0 = la(12)
  ELSE
    v1 = (g3 * g0)
    PRINT *, la(8)
  ENDIF
  la(10) = (abs(g3) + 8)
  DO v0 = 0, 3
    v1 = f0
  ENDDO
  v1 = abs(6)
  la(12) = (v0 + g1)
  v1 = max(f0, 13)
  g0 = max(la(4), -2)
  DO g2 = 1, 3
    IF (max(g3, la(5)) .EQ. max(la(2), 12) .OR. g1 .NE. max(9, la(1))) f0 = max(la(11), la(1))
    IF ((v1 - 4) .NE. 4) f0 = abs(la(10))
  ENDDO
  g2 = max(g3, g3)
  f0 = max(0, 2)
END

SUBROUTINE proc545(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 4
  v2 = 1
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, 2
  g3 = 11
  IF (-3 .EQ. abs(la(12)) .OR. -1 .GT. v1) v1 = (-4 + g1)
  v1 = v0
  f0 = (abs(9) * v1)
  DO g2 = 2, 6
    v0 = (g3 / (3 + la(4)))
  ENDDO
  IF (v1 .GT. la(5)) v0 = f1
END

SUBROUTINE proc546(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 9
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g3 .LT. abs(8)) THEN
    IF ((la(1) / (6 + 6)) .GE. g2 .AND. 14 .EQ. (la(5) - g3)) f0 = mod(13, 7)
    la(6) = ((f0 / (5 + 11)) * 13)
  ELSE
    g0 = -1
    DO v0 = 1, 5
      v1 = la(10)
      IF (v0 .LT. (7 - -5) .OR. (10 / (5 + 11)) .GT. 4) g0 = 1
    ENDDO
  ENDIF
END

SUBROUTINE proc547(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = -3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = mod(f1, 7)
END

SUBROUTINE proc548(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 13
  v2 = -2
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = ((1 - -5) * -1)
  IF (1 .LE. (la(7) * la(11)) .OR. (13 * g0) .EQ. abs(g3)) g0 = 12
  g0 = v0
  IF (la(10) .EQ. (f0 + 3) .OR. v2 .LT. la(7)) g0 = abs(7)
  PRINT *, mod(la(5), 2)
  PRINT *, abs(11)
END

SUBROUTINE proc549(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 14
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((7 + 14) .NE. abs(la(1)) .AND. 4 .GT. mod(12, 5)) g0 = mod(la(7), 8)
  DO g1 = 3, 6
    v2 = ((9 * 2) - v0)
    g0 = la(10)
  ENDDO
  PRINT *, ((g0 - 12) - mod(0, 7))
  la(3) = la(6)
  IF (14 .GT. 0 .OR. (g1 * la(12)) .LE. 3) THEN
    PRINT *, 4
    g1 = la(6)
  ENDIF
  IF (g1 .LT. (g0 * 6)) THEN
    DO f0 = 1, 5
      v0 = -5
      g0 = la(7)
    ENDDO
  ENDIF
  PRINT *, max(la(3), la(10))
END

SUBROUTINE proc550(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 5
  v2 = -2
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(10) = abs((g2 / (5 + 3)))
  v1 = ((2 / (4 + -2)) - 10)
  IF (.NOT. ((la(9) + g3) .GE. 11)) THEN
    la(4) = max(15, -4)
  ELSE
    PRINT *, max(v0, g3)
    v3 = 6
  ENDIF
  g3 = mod(g0, 6)
END

SUBROUTINE proc551(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 2
  v2 = -3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (la(3) .GT. abs(7) .OR. max(8, g3) .EQ. la(10)) f1 = -2
  IF (8 .GE. (11 - la(6)) .AND. 12 .LT. la(5)) THEN
    g3 = 5
  ENDIF
  v3 = 12
  IF ((10 * 1) .NE. max(la(9), 15)) g1 = mod(la(4), 4)
  f1 = la(11)
  DO f0 = 0, 1
    IF (mod(-5, 6) .LE. (la(9) + v3) .OR. max(-4, 11) .LE. abs(7)) g3 = f1
  ENDDO
  DO f1 = 3, 5
    la(6) = -5
  ENDDO
  g2 = mod(9, 4)
END

SUBROUTINE proc552(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = -3
  g3 = 12
  IF (g2 .GT. max(g0, -5)) THEN
    DO v1 = 3, 4
      g3 = (la(4) * la(4))
      v0 = max(9, g1)
    ENDDO
    IF (.NOT. (mod(la(5), 5) .GE. v1)) THEN
      v1 = la(7)
    ELSE
      v1 = mod((f0 - la(5)), 8)
    ENDIF
  ELSE
    f1 = (mod(-1, 4) + abs(1))
    v2 = la(2)
  ENDIF
  v2 = ((la(11) - 6) * f0)
  la(2) = g2
  g3 = 10
  PRINT *, f1
  v2 = ((6 - 11) + 0)
END

SUBROUTINE proc553(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (14 / (6 + g0))
END

SUBROUTINE proc554(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = ((-4 * -4) * f0)
  PRINT *, ((v0 + v1) / (2 + la(2)))
  IF (.NOT. (g0 .NE. la(7))) g0 = la(8)
  f0 = g1
  IF (max(la(3), -2) .GE. (la(1) * g2)) THEN
    g3 = 6
    DO f0 = 1, 2
      v0 = la(3)
      IF (10 .NE. (10 / (2 + 3))) f1 = -3
    ENDDO
  ENDIF
  g3 = 11
  IF (.NOT. ((la(6) / (6 + f0)) .LT. f1)) THEN
    g3 = v0
    PRINT *, abs(-4)
  ENDIF
  g2 = ((2 + 15) * 4)
  PRINT *, (-3 / (6 + 5))
  v1 = f0
END

SUBROUTINE proc555(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (g2 * g2)
  f0 = (mod(la(10), 8) - 5)
  f1 = g3
  la(10) = 6
  DO g3 = 0, 3
    DO f1 = 0, 3
      v2 = abs((la(5) / (4 + f1)))
      v2 = 15
    ENDDO
  ENDDO
  g0 = g2
  g1 = -4
  PRINT *, la(7)
  la(1) = mod(v1, 5)
END

SUBROUTINE proc556(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = mod(g2, 8)
  g2 = 12
  DO f0 = 3, 6
    DO g2 = 1, 2
      IF ((8 / (4 + v1)) .EQ. (8 / (6 + 8)) .OR. -1 .GT. -5) v0 = 8
    ENDDO
  ENDDO
  PRINT *, 1
END

SUBROUTINE proc557(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 9
  v2 = 3
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, (g2 * 4)
  g2 = ((v1 + la(7)) / (6 + f0))
  v3 = 13
  v3 = abs((f1 * g3))
END

SUBROUTINE proc558(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 1
  v2 = 9
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(5) = (8 * la(8))
  IF (abs(3) .LT. la(5) .OR. g1 .GE. (-2 / (5 + la(2)))) THEN
    PRINT *, (la(4) + (6 * 10))
  ENDIF
  v1 = (abs(v0) + (v3 - 13))
  la(5) = f0
  IF (4 .LE. v1 .AND. max(12, la(7)) .GE. (v3 * -1)) THEN
    g3 = la(4)
  ELSE
    IF (.NOT. ((-3 - 3) .LT. v0)) g1 = (15 * g2)
  ENDIF
  DO g2 = 1, 4
    PRINT *, abs(v2)
    la(12) = 11
  ENDDO
  v0 = la(9)
  g3 = max(la(10), v0)
  la(5) = v1
  PRINT *, la(11)
END

SUBROUTINE proc559(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = -4
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = la(11)
  la(4) = la(9)
  PRINT *, abs(v1)
  PRINT *, (max(5, 15) + (10 * -3))
  IF (v0 .NE. g1 .OR. (13 / (2 + 14)) .EQ. 8) v3 = (11 + g1)
  g2 = (mod(g1, 2) + (v3 - 0))
  DO v0 = 0, 3
    DO g2 = 0, 2
      PRINT *, la(9)
    ENDDO
    la(4) = la(5)
  ENDDO
END

SUBROUTINE proc560(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(7) = la(8)
  DO g1 = 0, 4
    IF (.NOT. ((la(9) - la(11)) .EQ. g1)) THEN
      g2 = abs((-3 - 10))
      g2 = abs(15)
    ENDIF
  ENDDO
  DO g2 = 3, 3
    IF ((la(10) * g2) .GE. -4) v0 = (-5 * la(12))
    f0 = -4
  ENDDO
  g3 = ((la(8) * 1) - mod(13, 4))
  v1 = 8
  v1 = (-1 + (la(9) - 15))
  la(10) = (mod(2, 7) + v1)
END

SUBROUTINE proc561(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -2
  v2 = -1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((g2 + g1) .GE. max(4, 13)) THEN
    PRINT *, mod(3, 6)
    g1 = abs(-3)
  ELSE
    PRINT *, (abs(0) - (f0 * la(3)))
  ENDIF
  v1 = g3
  v1 = 6
  PRINT *, max(-5, -4)
  la(2) = 5
END

SUBROUTINE proc562(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 6
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v1 = 2, 6
    IF ((la(1) / (4 + 0)) .EQ. abs(6) .AND. 1 .EQ. la(5)) v0 = mod(-3, 3)
  ENDDO
  v0 = ((9 - 9) + la(1))
  IF (abs(g3) .EQ. (0 + v2) .AND. mod(la(11), 2) .GT. 4) v0 = 4
  la(7) = max(v2, v1)
  DO g3 = 1, 3
    v1 = 15
  ENDDO
  DO g0 = 3, 4
    PRINT *, 13
  ENDDO
  v1 = f0
  v2 = ((-5 + -2) - (v1 / (2 + 10)))
END

SUBROUTINE proc563(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -1
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, max(15, 15)
END

SUBROUTINE proc564(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = la(11)
  IF (v1 .GE. abs(13)) THEN
    v1 = max(v0, la(10))
    DO v1 = 0, 2
      g3 = max(la(6), 13)
    ENDDO
  ELSE
    IF (.NOT. (max(la(7), g3) .LT. 15)) v1 = 8
  ENDIF
  v1 = ((1 + la(12)) + mod(7, 8))
  g1 = max(g0, la(6))
  g1 = -2
END

SUBROUTINE proc565(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = mod((1 + la(6)), 2)
  v1 = la(2)
  v0 = la(10)
  DO v1 = 1, 1
    g1 = mod(mod(la(12), 6), 5)
  ENDDO
  IF (v0 .EQ. abs(g0)) THEN
    DO g1 = 2, 5
      f0 = g0
    ENDDO
  ELSE
    PRINT *, la(12)
    g0 = -4
  ENDIF
END

SUBROUTINE proc566(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = mod((1 + la(6)), 7)
  v2 = max(7, v2)
  IF (max(la(1), v2) .GT. 15) g2 = 14
  IF ((1 / (6 + 3)) .NE. 12) THEN
    IF ((10 - la(8)) .GT. mod(9, 5)) THEN
      v2 = 13
    ENDIF
    g3 = -2
  ELSE
    g3 = la(4)
    g1 = la(10)
  ENDIF
  IF (mod(10, 5) .LT. la(6) .AND. abs(-3) .GT. (g2 / (6 + 4))) THEN
    g1 = ((6 + 8) * v2)
  ENDIF
  g0 = (v2 / (4 + 9))
END

SUBROUTINE proc567(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = 7
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g2 = 2, 6
    v1 = abs(la(6))
  ENDDO
  PRINT *, (7 + abs(11))
  v1 = la(11)
  la(7) = -5
  v3 = (14 + mod(4, 3))
  v3 = max(-5, 10)
  g2 = (abs(f1) / (2 + 0))
END

SUBROUTINE proc568(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-5 .NE. la(9)) THEN
    v0 = mod(6, 2)
  ENDIF
  v1 = la(1)
  g2 = 14
END

SUBROUTINE proc569(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 1
  v2 = -2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, la(6)
  DO f0 = 2, 3
    PRINT *, -3
  ENDDO
  g3 = -3
  PRINT *, 15
  la(1) = (13 + 4)
  la(1) = 4
  DO v0 = 1, 2
    v1 = g2
  ENDDO
  IF ((la(9) * -4) .LE. la(5) .AND. (g3 + -1) .GE. (g1 - -3)) g2 = (g1 + -4)
  IF (g3 .GT. 8) THEN
    v3 = (g1 + la(4))
    g0 = 3
  ENDIF
END

SUBROUTINE proc570(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 0
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((-1 / (3 + la(9))) .LE. max(1, v0) .OR. -2 .EQ. abs(la(8))) g0 = 3
END

SUBROUTINE proc571(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (v1 .LT. (9 + f1) .AND. (3 * 1) .LE. la(1)) THEN
    v1 = la(4)
  ENDIF
  v0 = ((f0 / (4 + 8)) * f1)
  IF (la(10) .EQ. (11 + -5) .OR. 12 .EQ. (-4 * f1)) v0 = abs(la(2))
  g0 = 11
  DO f0 = 1, 2
    PRINT *, 3
    g0 = (g2 * la(5))
  ENDDO
END

SUBROUTINE proc572(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((la(3) * 3) .EQ. 9 .AND. (-1 - 6) .GT. max(la(9), g3)) THEN
    f0 = -1
  ELSE
    v1 = g3
    g0 = 8
  ENDIF
  g0 = (g1 * la(11))
  DO g1 = 0, 2
    g0 = (g3 - abs(v1))
    DO f0 = 1, 5
      g0 = la(1)
    ENDDO
  ENDDO
END

SUBROUTINE proc573(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 5
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = -2
  IF (.NOT. (la(11) .LE. 1)) g3 = max(la(3), -4)
  f1 = abs(v2)
  la(8) = (14 - 7)
  f1 = 13
  la(3) = g0
END

SUBROUTINE proc574(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 9
  v2 = 0
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (10 + (4 - 8))
  IF (max(-4, -3) .GE. -3) v3 = abs(8)
END

SUBROUTINE proc575(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(9) = -4
  v2 = la(9)
  g1 = 1
  g1 = 10
  f0 = -2
  g1 = (mod(11, 3) - (la(9) * g2))
  IF ((2 + la(4)) .GT. max(la(11), la(8)) .OR. abs(la(1)) .NE. f0) g1 = v2
END

SUBROUTINE proc576(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((11 - g1) .NE. 15) THEN
    IF (la(9) .GE. 2 .AND. la(6) .EQ. la(5)) THEN
      IF (v0 .GT. abs(-2) .OR. 5 .LE. la(9)) v0 = (la(1) + 0)
      g3 = 6
    ELSE
      g2 = abs((-3 + -4))
      g0 = abs(2)
    ENDIF
    f0 = (f0 + 7)
  ELSE
    la(11) = la(8)
    la(2) = abs(4)
  ENDIF
  g1 = -3
  DO g3 = 1, 4
    g2 = 4
    v0 = ((5 + g1) / (3 + g0))
  ENDDO
  PRINT *, abs((g3 * la(10)))
  g2 = mod((f0 * -5), 7)
  IF ((la(2) + la(6)) .GE. (la(11) / (6 + 13)) .OR. la(6) .LE. 13) g2 = la(9)
  IF ((5 / (3 + la(3))) .NE. (v0 + 13) .OR. 1 .GT. 11) THEN
    DO g0 = 2, 3
      g2 = ((la(2) - -4) + (2 + 10))
      la(10) = la(3)
    ENDDO
  ELSE
    IF (9 .LT. abs(g3)) f0 = (10 * la(5))
  ENDIF
END

SUBROUTINE proc577(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 9
  v2 = 4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (max(-1, 14) + abs(v0))
  g0 = (15 + g3)
  IF (max(0, -2) .EQ. (v1 / (5 + -5)) .OR. max(f0, g1) .LT. (11 * la(12))) g2 = max(v2, la(10))
END

SUBROUTINE proc578(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 14
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = mod(max(la(5), la(7)), 4)
  IF (la(9) .GE. g1 .AND. la(2) .GT. (f0 - 13)) THEN
    PRINT *, 15
  ELSE
    g2 = (mod(7, 4) - mod(13, 5))
  ENDIF
  v0 = 0
END

SUBROUTINE proc579(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 12
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = 10
  f1 = max(la(1), -3)
  PRINT *, (la(7) * g3)
  f1 = (12 - (la(6) + la(8)))
  g2 = 11
  PRINT *, (12 - (-4 * 3))
  v0 = abs(max(la(9), la(12)))
  IF (max(8, la(5)) .LT. la(1) .OR. la(8) .NE. (la(6) + 5)) v3 = (-2 / (6 + -1))
  v3 = mod(0, 3)
  v1 = (12 / (2 + v1))
END

SUBROUTINE proc580(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 4
  g2 = abs(la(4))
  v1 = 15
  f0 = g2
  IF (g1 .LE. max(7, v0) .AND. (la(1) + 14) .EQ. (8 * 7)) g1 = (v1 + 13)
  IF ((f1 - 1) .GE. 8) g2 = -1
  PRINT *, (la(9) - abs(la(10)))
END

SUBROUTINE proc581(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -1
  v2 = 12
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f0 = 3, 3
    v0 = 2
    IF (7 .LE. abs(0)) v1 = (3 - -1)
  ENDDO
  v2 = (abs(11) - v2)
END

SUBROUTINE proc582(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (max(-5, la(7)) / (6 + 7))
  DO v1 = 1, 2
    f0 = g2
  ENDDO
  g1 = 7
  PRINT *, 6
  IF (abs(la(3)) .GT. g2) f0 = (-3 - 15)
  la(4) = la(2)
  v0 = g1
END

SUBROUTINE proc583(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 1
  v2 = -4
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = 8
  f0 = 9
  IF ((6 + -5) .GT. (v3 * f0) .OR. 7 .GE. -3) THEN
    f0 = v1
    PRINT *, la(7)
  ENDIF
  IF ((12 - 10) .EQ. 5 .OR. (-3 + 11) .GE. -5) f0 = la(1)
  v3 = g0
  PRINT *, v1
  DO v2 = 0, 4
    PRINT *, abs(13)
    PRINT *, g3
  ENDDO
  IF ((la(7) * v3) .GE. -3 .AND. abs(9) .GT. g0) THEN
    IF (.NOT. (la(7) .GE. (0 / (6 + la(11))))) g2 = g1
  ELSE
    DO f0 = 3, 3
      g3 = (la(6) - (9 * la(9)))
      v1 = (v1 - la(12))
    ENDDO
    v3 = ((la(1) / (5 + v0)) + (9 + 14))
  ENDIF
  v2 = 6
  PRINT *, ((f0 * 9) + 14)
END

SUBROUTINE proc584(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (g0 - la(10))
END

SUBROUTINE proc585(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = (g1 * -4)
END

SUBROUTINE proc586(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 5
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (max(la(2), 15) + (0 + 2))
  g0 = 4
  IF (.NOT. ((la(4) - la(3)) .LE. (v2 * g3))) g2 = 5
  IF ((la(12) - 3) .GT. (la(6) / (5 + 1)) .OR. max(3, 6) .LE. (la(12) * v0)) g3 = mod(la(4), 8)
  IF ((g2 + 8) .GT. 3 .OR. (3 + 3) .LE. (11 - la(9))) THEN
    g1 = max(9, la(11))
    PRINT *, g1
  ENDIF
  v0 = mod(mod(7, 8), 6)
  IF (.NOT. ((9 + 15) .LT. 3)) THEN
    g1 = -3
    v0 = -4
  ENDIF
  PRINT *, abs(-4)
  v1 = -5
END

SUBROUTINE proc587(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((11 / (2 + 8)) .GT. abs(la(4))) v2 = abs(g0)
  DO v0 = 3, 6
    IF ((-3 - la(3)) .GE. (la(8) / (2 + 3)) .OR. (8 + -1) .GE. (13 * la(8))) THEN
      f1 = g2
    ELSE
      g3 = abs(abs(v2))
    ENDIF
    g3 = 2
  ENDDO
  IF ((-4 + -5) .GT. la(5) .AND. (4 / (3 + -3)) .GE. 1) v0 = max(la(10), la(4))
  la(10) = ((-1 + la(6)) / (4 + la(2)))
  g3 = (8 * la(8))
  IF (.NOT. (v0 .LE. (-1 + 12))) THEN
    la(12) = mod(mod(la(1), 5), 2)
    PRINT *, -1
  ELSE
    v0 = (12 - 9)
    DO g1 = 3, 5
      v2 = (abs(v2) * -2)
    ENDDO
  ENDIF
  DO f1 = 2, 2
    v2 = max(8, -3)
    g3 = la(12)
  ENDDO
  f0 = 13
END

SUBROUTINE proc588(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 11
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = ((-3 + la(2)) - -2)
  IF (.NOT. ((-4 + 13) .GT. (12 - v0))) THEN
    DO f0 = 2, 5
      g3 = 9
    ENDDO
  ENDIF
  IF (v1 .NE. max(-3, v1) .AND. max(4, g1) .NE. max(10, -2)) v0 = (la(10) * 2)
  f1 = ((3 + 15) * 12)
  IF (.NOT. ((la(9) + 4) .LT. (-2 - f0))) THEN
    g1 = 12
  ENDIF
  g0 = g3
  v1 = (g1 + (la(3) + v2))
  DO v0 = 1, 3
    v2 = -5
    g1 = (4 + la(1))
  ENDDO
  PRINT *, la(4)
  DO g0 = 2, 2
    PRINT *, (max(la(5), 13) + (-2 - 14))
    g3 = v1
  ENDDO
END

SUBROUTINE proc589(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 14
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(2) = (6 - 11)
  f1 = abs(5)
  IF (.NOT. (max(11, -4) .GE. g2)) THEN
    DO g0 = 3, 6
      f1 = ((la(1) - la(1)) + 15)
    ENDDO
  ENDIF
  IF (.NOT. ((la(8) * 8) .NE. (-1 * 15))) v0 = mod(g3, 7)
  la(5) = f0
  v2 = -4
END

SUBROUTINE proc590(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 11
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v2 = (la(11) * la(9))
  f0 = 14
  la(9) = 10
  g0 = abs((-5 - 7))
  v1 = 14
END

SUBROUTINE proc591(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -4
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = la(2)
  v1 = g3
  IF (13 .NE. (12 * 13)) THEN
    IF (la(3) .NE. 6) g0 = la(6)
    IF (g3 .GE. la(1)) g2 = (8 * -5)
  ENDIF
  PRINT *, max(g0, f0)
  PRINT *, la(1)
  g2 = f0
  g1 = mod(la(11), 4)
END

SUBROUTINE proc592(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((g0 + la(11)) .GE. 11 .OR. (9 / (5 + -1)) .LT. (12 + -2)) g3 = (-1 + v0)
  la(2) = v0
  g2 = (g3 - 5)
  f0 = -5
  f0 = (la(1) * -3)
  g3 = la(10)
END

SUBROUTINE proc593(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = (abs(13) + mod(g1, 6))
END

SUBROUTINE proc594(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 11
  v2 = -2
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = (la(9) / (6 + v3))
  DO g3 = 2, 4
    v2 = 1
  ENDDO
  IF ((g2 / (3 + 11)) .GT. 15 .OR. (v2 * la(1)) .GE. 11) g3 = -4
  v1 = g2
  IF ((2 / (2 + 4)) .NE. (la(10) / (5 + 14)) .AND. (v1 / (2 + 5)) .LT. (g3 / (2 + la(3)))) THEN
    IF (la(1) .NE. -1 .OR. mod(g0, 7) .EQ. v0) THEN
      f0 = (abs(9) + abs(9))
      PRINT *, la(4)
    ENDIF
    g0 = max(6, 0)
  ENDIF
  g1 = 8
  v1 = ((la(2) * 11) - -2)
  g0 = (1 - 10)
  g3 = v2
END

SUBROUTINE proc595(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = -4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (la(9) .GT. -3)) g2 = la(8)
  PRINT *, 7
  IF (11 .LT. max(f0, la(8)) .OR. (la(8) - g1) .GE. v3) THEN
    v3 = 7
    IF (max(la(4), 2) .LE. (la(2) - g1) .OR. la(4) .LE. (la(12) / (6 + g2))) g0 = 2
  ELSE
    PRINT *, max(7, 0)
  ENDIF
  IF (g1 .GT. abs(g0)) v1 = la(8)
  IF ((f0 * -4) .GT. (la(2) + 3) .OR. (10 * 7) .LE. max(v2, 1)) g2 = v3
  IF (-2 .LE. (0 * 7) .AND. (v0 / (4 + la(10))) .LT. la(5)) g3 = la(10)
  g2 = g2
  v3 = ((la(5) - v1) - 14)
  PRINT *, abs(mod(-2, 4))
  IF (.NOT. (2 .EQ. max(la(12), g3))) THEN
    g3 = (g0 * 10)
    IF (max(-1, v3) .EQ. max(-4, la(11))) v1 = la(9)
  ELSE
    IF (.NOT. (10 .EQ. (-5 / (2 + -1)))) g2 = (f0 - 13)
  ENDIF
END

SUBROUTINE proc596(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = max(1, 13)
  g2 = 3
  la(3) = -4
  f1 = la(11)
  IF (.NOT. (mod(1, 4) .EQ. g1)) f1 = (7 * -4)
  g1 = (mod(-4, 3) / (2 + 10))
  DO f1 = 2, 6
    PRINT *, (-3 / (4 + la(2)))
    la(2) = (max(la(2), g1) * la(9))
  ENDDO
END

SUBROUTINE proc597(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 14
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f0 = abs((la(12) / (3 + -1)))
  g3 = max(v0, 5)
  IF (14 .LE. (4 + 2) .AND. (la(5) / (6 + 12)) .EQ. 12) g3 = (g0 - g2)
END

SUBROUTINE proc598(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 5
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f0 = mod((la(8) - 6), 3)
  PRINT *, 3
  IF (mod(7, 6) .GT. 5 .AND. (la(12) - -4) .EQ. mod(15, 3)) g1 = mod(la(8), 7)
  v2 = g0
  g1 = (abs(v1) + 6)
  DO g3 = 3, 3
    v1 = (11 + (la(7) / (3 + v0)))
  ENDDO
END

SUBROUTINE proc599(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 7
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 12
  DO f0 = 1, 1
    g2 = (abs(v1) * 4)
    PRINT *, f0
  ENDDO
  IF (.NOT. (3 .GE. (6 / (3 + 13)))) THEN
    g1 = max(6, 11)
    la(6) = la(11)
  ELSE
    v1 = ((g2 * g2) - abs(13))
  ENDIF
  PRINT *, (la(8) + (11 + -2))
  IF ((1 + 4) .GE. abs(-3) .AND. 8 .NE. (v1 / (6 + 15))) THEN
    IF (.NOT. (abs(-4) .LT. -1)) THEN
      g1 = 12
      g0 = (4 / (6 + g0))
    ENDIF
  ENDIF
  v0 = (6 / (4 + la(11)))
  IF (5 .GE. mod(10, 7) .AND. (g3 + 7) .NE. la(2)) THEN
    g2 = -5
    IF (.NOT. (3 .NE. -1)) THEN
      f0 = (0 / (2 + 7))
      IF (.NOT. (-1 .EQ. 5)) g2 = max(la(3), la(2))
    ENDIF
  ELSE
    la(2) = (abs(2) / (3 + 2))
    g2 = la(4)
  ENDIF
  v1 = ((-5 - g3) - mod(14, 5))
  IF (la(6) .GE. 14 .AND. mod(8, 8) .LT. -3) THEN
    DO g0 = 3, 5
      g3 = la(9)
      f0 = la(9)
    ENDDO
    IF ((g3 / (3 + 11)) .EQ. la(3) .AND. la(5) .GT. abs(8)) THEN
      v0 = mod(v2, 2)
    ELSE
      v0 = (-4 * 10)
    ENDIF
  ELSE
    v0 = abs(1)
  ENDIF
  g1 = 3
END

SUBROUTINE proc600(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -1
  v2 = 10
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = ((v3 * 10) - mod(-2, 2))
  f0 = 13
  IF ((g1 + 7) .LT. v2) THEN
    v1 = -3
  ENDIF
END

SUBROUTINE proc601(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -4
  v2 = 12
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = (-3 + mod(la(8), 2))
  v2 = mod(la(8), 2)
  g0 = v0
  v1 = v3
  g3 = 14
  g0 = (v0 - (v2 - 5))
  f0 = la(2)
  g1 = f0
END

SUBROUTINE proc602(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = -2
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 3, 7
    IF (abs(-4) .LE. (4 * v2)) THEN
      g3 = (abs(g0) + 1)
    ENDIF
  ENDDO
  v0 = g3
  la(3) = ((la(6) + 3) * 4)
  IF (.NOT. ((la(5) - -1) .LE. -3)) g0 = max(la(8), la(12))
  la(6) = v0
  PRINT *, 2
  v1 = 5
  g3 = (mod(-1, 5) + abs(-5))
  PRINT *, la(6)
  DO g0 = 1, 5
    g2 = (abs(-3) / (4 + la(12)))
  ENDDO
END

SUBROUTINE proc603(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -1
  v2 = 4
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = (g0 - (-1 / (2 + v0)))
  DO g3 = 1, 3
    v1 = (la(12) / (6 + 10))
  ENDDO
  v1 = ((3 * g1) - mod(g0, 3))
  DO g3 = 1, 3
    PRINT *, v1
  ENDDO
  g3 = (la(11) - 10)
  g3 = la(2)
  g2 = 11
  IF ((la(4) / (2 + f0)) .LT. 0) v0 = 11
  DO v2 = 0, 4
    g1 = max(12, 14)
    g3 = 3
  ENDDO
END

SUBROUTINE proc604(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(4) .NE. abs(7)) THEN
    v0 = abs(mod(12, 5))
  ELSE
    g3 = 11
    DO g1 = 1, 1
      la(4) = (0 * v0)
    ENDDO
  ENDIF
  la(6) = 10
  v0 = ((la(4) * 0) + (2 / (6 + 9)))
  IF (.NOT. (v1 .GT. max(12, f1))) v0 = -4
  f0 = la(11)
  g2 = (-2 * 5)
END

SUBROUTINE proc605(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO g3 = 0, 0
    IF (.NOT. (-4 .GT. (15 / (3 + v1)))) THEN
      g0 = la(3)
      v1 = g3
    ELSE
      f0 = ((la(4) - -5) - 5)
    ENDIF
    la(10) = abs(la(4))
  ENDDO
  f0 = -2
  v1 = ((v1 - la(3)) / (3 + 9))
END

SUBROUTINE proc606(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 1
  v2 = 2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g3 = ((-1 + la(9)) - f1)
  la(11) = la(3)
  DO g2 = 3, 4
    DO g0 = 1, 2
      IF (max(v3, 15) .GT. (v3 + 8) .AND. abs(-5) .GE. abs(1)) f1 = (la(12) * 13)
      f1 = (abs(-4) + f0)
    ENDDO
    la(11) = (la(2) / (4 + la(1)))
  ENDDO
END

SUBROUTINE proc607(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, abs((15 + g0))
  g1 = 9
  PRINT *, ((la(9) * 6) * la(10))
  IF ((la(6) - f1) .GT. -2 .AND. g0 .GE. 10) THEN
    IF (.NOT. ((g2 - 5) .GT. g3)) g0 = (la(6) - 0)
  ENDIF
  PRINT *, ((la(6) / (4 + v0)) - (g1 / (4 + la(5))))
END

SUBROUTINE proc608(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f0 = 2, 2
    v1 = 7
  ENDDO
  DO f0 = 1, 1
    PRINT *, (0 - (la(9) * la(12)))
    la(1) = (-3 * g3)
  ENDDO
  f0 = 1
END

SUBROUTINE proc609(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = ((la(7) - 9) * 15)
  f1 = v0
  DO g3 = 0, 2
    g1 = la(10)
    DO g1 = 1, 3
      PRINT *, 3
    ENDDO
  ENDDO
  f0 = 4
  g3 = (la(4) * 3)
  PRINT *, la(12)
END

SUBROUTINE proc610(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (abs(la(8)) .LE. 4) g3 = 4
  DO v1 = 1, 3
    IF ((6 - 10) .NE. (v0 - 4)) v2 = -1
    la(3) = (la(2) - v1)
  ENDDO
  DO g3 = 1, 1
    la(10) = ((12 + v0) * 1)
    g2 = max(f1, 4)
  ENDDO
  v0 = g2
  g3 = abs((-3 - la(6)))
  IF ((g0 + v2) .GE. abs(2)) THEN
    IF (mod(12, 8) .NE. -4) THEN
      PRINT *, 5
    ENDIF
    PRINT *, mod(abs(la(3)), 2)
  ELSE
    f0 = mod(abs(v1), 7)
  ENDIF
END

SUBROUTINE proc611(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 12
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (v2 .LT. mod(v1, 8) .OR. (15 - la(1)) .NE. (la(7) + g1)) THEN
    g0 = v2
    g1 = 5
  ENDIF
  g3 = 9
  DO v1 = 2, 4
    g3 = (max(13, la(2)) / (5 + f0))
  ENDDO
  v1 = max(la(2), g1)
  DO f0 = 0, 2
    IF (max(13, g0) .LT. (-1 / (6 + 6))) v0 = (0 / (2 + la(7)))
    g0 = (la(2) + mod(9, 2))
  ENDDO
  g3 = max(11, g0)
  DO g0 = 2, 2
    g3 = (mod(-1, 2) - la(7))
  ENDDO
  g1 = mod(mod(la(11), 3), 7)
  v0 = g3
END

SUBROUTINE proc612(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -2
  v2 = 12
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (-2 .GE. la(1) .AND. max(v1, 12) .LE. (la(8) / (5 + v2))) g1 = (v2 - f1)
  f1 = g3
  v0 = max(g3, 1)
  IF (10 .GE. (v3 - v3)) THEN
    PRINT *, (abs(15) + 2)
  ENDIF
  g2 = la(6)
  v0 = (9 * 6)
END

SUBROUTINE proc613(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 3
  v2 = 2
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = max(v0, -4)
END

SUBROUTINE proc614(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 5
  v2 = 10
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (7 / (5 + -1))
  IF (.NOT. (abs(15) .GT. abs(g1))) v3 = 13
  PRINT *, -3
  g2 = (abs(g2) / (6 + g3))
  DO g2 = 1, 3
    IF (la(8) .GE. 7 .AND. la(4) .EQ. mod(la(7), 2)) THEN
      la(4) = (mod(6, 4) + (f0 / (4 + g3)))
    ELSE
      g3 = la(10)
      v0 = 6
    ENDIF
    IF (mod(-1, 6) .GT. -2 .AND. mod(v1, 4) .EQ. v3) THEN
      la(10) = (g2 / (6 + 4))
      f0 = g2
    ELSE
      g1 = -5
      v1 = la(2)
    ENDIF
  ENDDO
  v1 = g3
  g3 = 14
  v3 = v0
END

SUBROUTINE proc615(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 3
  v2 = 12
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v0 = 1, 3
    v3 = abs((la(11) / (6 + 13)))
  ENDDO
  v2 = la(7)
  DO g1 = 1, 2
    DO g2 = 3, 5
      IF (g0 .NE. 15 .OR. v2 .NE. g0) g0 = la(8)
    ENDDO
  ENDDO
  g0 = la(6)
  g0 = g3
  DO v2 = 2, 6
    IF (g2 .EQ. 4 .AND. abs(f1) .LE. (v2 + la(7))) v1 = (10 + -4)
    g0 = abs(mod(la(6), 2))
  ENDDO
  g2 = max(g2, la(4))
  IF (.NOT. (-3 .NE. (-3 / (3 + -1)))) THEN
    PRINT *, mod(f1, 2)
  ELSE
    f0 = 1
    la(11) = abs(f0)
  ENDIF
  IF ((-5 + -3) .GT. (la(1) / (3 + la(2))) .OR. (la(1) * v1) .EQ. -2) THEN
    g0 = abs((g2 - la(9)))
    IF (.NOT. ((12 + la(6)) .GT. la(3))) THEN
      f1 = max(la(3), -5)
      g1 = abs((1 - la(7)))
    ENDIF
  ELSE
    v0 = (la(7) + mod(la(5), 8))
    PRINT *, (la(2) / (2 + v3))
  ENDIF
  DO g2 = 0, 3
    v0 = abs((13 + la(12)))
  ENDDO
END

SUBROUTINE proc616(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 12
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g0 = 1, 2
    g3 = (9 / (4 + 10))
  ENDDO
  PRINT *, la(11)
END

SUBROUTINE proc617(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 0
  v2 = 9
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = abs(la(1))
  f0 = 6
  DO v1 = 3, 4
    DO f0 = 2, 2
      v0 = 4
    ENDDO
    f0 = 14
  ENDDO
  DO g3 = 1, 4
    g2 = 14
    PRINT *, 8
  ENDDO
  DO g3 = 1, 2
    la(12) = la(5)
    la(3) = 6
  ENDDO
  f0 = la(3)
END

SUBROUTINE proc618(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 12
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g1 = 1, 1
    g0 = ((g0 * la(7)) - (g0 - la(12)))
    g0 = 13
  ENDDO
  IF (.NOT. ((4 / (2 + 8)) .LT. -1)) THEN
    IF (abs(-4) .NE. (3 - v2) .AND. 1 .NE. max(la(6), -3)) g1 = la(7)
    PRINT *, (11 * la(1))
  ENDIF
  DO v2 = 1, 3
    DO f0 = 2, 6
      v0 = 6
    ENDDO
  ENDDO
  IF (mod(g3, 5) .EQ. (12 * 9) .AND. la(12) .NE. (9 * la(3))) g3 = (11 / (3 + la(5)))
  v0 = g2
  g0 = max(v0, 13)
  PRINT *, (mod(14, 5) * la(6))
  g1 = (la(5) - (v2 + -3))
  DO v1 = 1, 2
    v2 = mod((1 * 13), 4)
  ENDDO
  la(3) = g1
END

SUBROUTINE proc619(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = ((3 / (5 + 8)) - -5)
  g2 = (la(10) + la(11))
  v0 = abs((f0 / (6 + v1)))
  PRINT *, 11
  IF (max(-1, la(7)) .GT. 1 .AND. la(6) .NE. (2 + 11)) THEN
    v1 = la(8)
  ENDIF
END

SUBROUTINE proc620(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 0
  v2 = 13
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(7) = max(la(11), -4)
END

SUBROUTINE proc621(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 14
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = mod(max(14, g2), 5)
  la(4) = 2
  v1 = la(9)
  g3 = 8
  g1 = abs(-2)
END

SUBROUTINE proc622(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 5
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v2 = 0, 1
    v0 = ((4 / (4 + la(4))) - (la(7) * f0))
  ENDDO
  la(6) = ((13 / (4 + v3)) - (1 / (2 + 4)))
END

SUBROUTINE proc623(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = g1
  g3 = abs((-5 / (6 + g3)))
  la(9) = 12
END

SUBROUTINE proc624(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -3
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(9) .LE. abs(14) .OR. abs(la(5)) .GE. max(la(9), 2)) v2 = max(4, 11)
END

SUBROUTINE proc625(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 14
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = ((7 + g2) - 8)
  IF (v2 .EQ. 14 .OR. (1 + 7) .LE. -4) v2 = (v1 + 7)
  g2 = f0
  la(1) = 10
  g0 = (la(6) * v0)
  IF (abs(v0) .LE. 4 .AND. (la(8) + la(6)) .GE. la(12)) THEN
    PRINT *, (5 - (5 + 12))
  ELSE
    g3 = abs((la(3) / (5 + la(9))))
    la(12) = (-2 / (2 + 12))
  ENDIF
  la(4) = (f0 + max(5, -2))
  DO g0 = 1, 5
    IF (max(la(3), v2) .LE. (g2 - la(11)) .OR. v1 .LT. la(6)) THEN
      IF (g0 .NE. (6 * v1) .OR. (v0 - la(4)) .LE. (-4 / (2 + 7))) g2 = g2
      IF (15 .GT. max(g2, 11) .OR. max(v0, v2) .NE. -4) f0 = la(7)
    ELSE
      g2 = (mod(2, 6) / (6 + 10))
    ENDIF
    IF (la(3) .LE. 4) f0 = (la(5) / (6 + 4))
  ENDDO
  v2 = -3
END

SUBROUTINE proc626(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -4
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = 5
  g3 = la(10)
  v2 = mod(abs(8), 5)
END

SUBROUTINE proc627(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 10
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = la(7)
  DO g2 = 1, 3
    g0 = g3
  ENDDO
  IF (8 .NE. max(la(7), g2) .AND. (14 / (2 + v2)) .GE. abs(g0)) v2 = abs(g3)
END

SUBROUTINE proc628(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 13
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = (max(la(1), -1) - 3)
  IF (abs(12) .GE. (12 * 8) .AND. (3 / (4 + -5)) .LT. la(10)) THEN
    v0 = 15
  ENDIF
  la(10) = g1
  g0 = ((-5 / (4 + la(6))) * v2)
  g0 = max(f0, -2)
  v0 = v1
  IF (f1 .GE. (9 * la(5)) .OR. (g2 * la(1)) .EQ. mod(la(12), 6)) v0 = (13 * 6)
  g3 = 11
  g2 = -3
  v0 = 10
END

SUBROUTINE proc629(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 3
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(10) = g1
  g0 = -4
  v1 = v2
  PRINT *, la(12)
  f1 = ((la(3) - 11) + 13)
END

SUBROUTINE proc630(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = f0
  DO g3 = 3, 6
    v0 = -3
  ENDDO
  f0 = (la(2) / (3 + la(9)))
  v0 = 2
  la(5) = -5
  f0 = ((la(11) + la(11)) / (6 + g3))
  g1 = (-1 * la(3))
  g1 = ((v1 + la(4)) * v1)
  IF ((8 / (4 + g2)) .NE. v0) THEN
    g1 = (abs(13) + (15 / (3 + 12)))
  ENDIF
  f0 = v0
END

SUBROUTINE proc631(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (8 .GE. max(g1, g1) .OR. max(la(6), la(7)) .NE. (-1 - la(1))) THEN
    g0 = la(5)
    IF (.NOT. (7 .LT. 9)) v1 = (f0 * v1)
  ELSE
    v1 = abs(mod(la(5), 7))
  ENDIF
END

SUBROUTINE proc632(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = -1
  v2 = -3
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((4 / (6 + v0)) .NE. 10 .AND. la(2) .GE. (0 - -5)) THEN
    g1 = v0
  ENDIF
  IF (15 .NE. f1 .OR. mod(v1, 8) .LT. g0) g0 = 3
  v3 = (-1 + la(12))
  v1 = 7
  la(12) = (9 + (4 / (5 + 7)))
  la(4) = la(6)
  v0 = (la(8) + la(7))
  IF (la(7) .GE. 7 .AND. 6 .LT. v0) g2 = f0
END

SUBROUTINE proc633(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 0
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (la(7) .LT. 14 .OR. la(6) .NE. g2) THEN
    PRINT *, (max(7, la(6)) / (6 + la(5)))
    g0 = la(11)
  ELSE
    g0 = mod((la(2) / (4 + -2)), 8)
    f1 = ((v0 - 9) / (6 + 12))
  ENDIF
  g2 = (v1 - la(1))
  g2 = la(10)
  g1 = la(1)
  v1 = mod(v0, 7)
  PRINT *, v0
  g2 = 15
END

SUBROUTINE proc634(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = ((g0 - la(7)) + mod(la(2), 6))
  DO v0 = 0, 0
    la(6) = la(9)
    IF (15 .EQ. g3 .OR. la(1) .GT. abs(g3)) f0 = -4
  ENDDO
  v0 = mod((-4 * g0), 3)
  f0 = ((g2 / (4 + f1)) + 7)
END

SUBROUTINE proc635(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -2
  v2 = -2
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(6) = g0
  v3 = la(11)
  DO g1 = 3, 7
    g0 = la(12)
    v2 = (14 + la(7))
  ENDDO
  v2 = max(4, 6)
END

SUBROUTINE proc636(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 14
  v2 = 4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(9) = ((-5 * la(10)) + g2)
  PRINT *, abs(la(1))
END

SUBROUTINE proc637(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = -2
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 15
  v2 = (mod(la(9), 8) - (g3 - -1))
  IF (.NOT. (g0 .LE. max(3, -3))) g1 = (8 - la(3))
  DO f1 = 3, 7
    g2 = max(-1, 8)
    IF ((la(12) - v1) .EQ. (g1 + -1) .OR. 11 .GE. 10) THEN
      v2 = v2
      g3 = 15
    ELSE
      g1 = 12
    ENDIF
  ENDDO
END

SUBROUTINE proc638(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 12
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((la(7) / (5 + v2)) .LT. abs(6))) THEN
    v0 = la(8)
  ENDIF
  la(6) = (la(1) + (v0 + la(4)))
END

SUBROUTINE proc639(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -2
  v2 = -3
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (abs(2) .NE. mod(la(3), 4)) THEN
    g3 = (mod(7, 4) + (4 / (6 + g3)))
  ENDIF
  g0 = 11
  IF (.NOT. (mod(7, 5) .EQ. la(5))) g2 = abs(9)
  g3 = 11
  v0 = 7
  la(9) = g1
  g2 = 14
END

SUBROUTINE proc640(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 10
  v2 = 14
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = v3
  IF (.NOT. (0 .EQ. la(7))) THEN
    IF (.NOT. (g3 .LE. la(8))) THEN
      v3 = ((0 + 5) - -1)
      PRINT *, abs(max(8, -5))
    ENDIF
  ELSE
    v3 = -4
    g1 = -1
  ENDIF
  IF (v1 .LE. g0) g3 = abs(1)
END

SUBROUTINE proc641(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 13
  v2 = -1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = ((la(2) + 2) * 4)
  g2 = v1
  IF (.NOT. (la(11) .LE. (-4 - -1))) THEN
    la(3) = 8
    g3 = -3
  ENDIF
  v3 = 0
END

SUBROUTINE proc642(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 2
  v2 = 0
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = abs(la(9))
  g2 = abs(12)
END

SUBROUTINE proc643(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 12
  v2 = 14
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, abs(la(4))
  IF (la(5) .GT. max(f1, 6) .OR. max(la(8), 7) .EQ. la(4)) v1 = (g0 * la(9))
  g0 = v3
  g1 = 10
  g0 = max(-3, 6)
  f0 = max(f0, v3)
  IF (9 .GT. max(la(9), 8) .AND. 7 .NE. la(10)) v0 = abs(0)
  v2 = -4
  g1 = 14
  g3 = (3 / (4 + la(7)))
END

SUBROUTINE proc644(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = (g2 + v0)
  g3 = -2
  IF ((v2 * la(7)) .GT. (0 / (6 + 7))) THEN
    la(11) = la(11)
    f0 = abs(la(8))
  ENDIF
  v1 = la(9)
  PRINT *, 10
  la(11) = ((-1 / (3 + 4)) * 11)
  DO v1 = 0, 2
    la(10) = ((v2 * g1) - (g0 + 5))
  ENDDO
  v1 = g2
END

SUBROUTINE proc645(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 4
  v2 = 3
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (mod(la(5), 7) .LE. max(0, g1) .OR. (la(10) / (4 + 11)) .GE. (9 / (2 + v0))) THEN
    IF ((13 + 13) .NE. 2 .OR. la(9) .GE. 4) g2 = 6
  ENDIF
  PRINT *, abs(5)
  PRINT *, ((-3 / (4 + 12)) * -4)
  v3 = la(6)
  PRINT *, v3
END

SUBROUTINE proc646(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = g2
  IF (g3 .GE. (la(7) + 11) .AND. max(8, 10) .GT. la(3)) THEN
    DO g1 = 1, 5
      f0 = (max(14, 2) - f0)
      v1 = la(1)
    ENDDO
    f1 = abs(abs(la(5)))
  ELSE
    f0 = 13
    DO g2 = 0, 4
      g1 = (la(10) * 8)
    ENDDO
  ENDIF
  IF (-5 .GT. mod(g1, 8) .AND. abs(12) .EQ. (10 - la(4))) THEN
    DO f1 = 3, 5
      g3 = 5
      g2 = la(11)
    ENDDO
    f1 = abs((14 / (5 + g3)))
  ENDIF
END

SUBROUTINE proc647(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = mod(8, 3)
  IF (la(3) .EQ. abs(4) .OR. 4 .LT. 12) g2 = (10 * 3)
  f0 = la(3)
  g3 = abs((g2 - v0))
  DO f0 = 3, 6
    la(3) = abs(abs(11))
  ENDDO
  f0 = mod((v1 + la(4)), 7)
  v1 = abs(2)
  IF (la(12) .LE. mod(-2, 4)) f0 = 3
  f1 = 3
  f1 = (mod(la(8), 6) + la(9))
END

SUBROUTINE proc648(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 1
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = la(4)
  IF ((la(5) - v2) .EQ. 13 .OR. (11 * 0) .GT. g1) THEN
    PRINT *, -5
    PRINT *, la(5)
  ENDIF
  la(10) = 11
END

SUBROUTINE proc649(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 5
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((la(1) / (5 + 14)) .GT. f0 .AND. g3 .LT. -5) v0 = -3
  v0 = ((la(3) - 15) / (3 + 1))
  g1 = ((v0 / (2 + la(6))) + abs(la(9)))
  IF (15 .GE. (la(4) / (6 + 3)) .OR. mod(la(10), 5) .EQ. g2) v2 = la(10)
  v1 = abs(la(11))
  f1 = la(12)
  DO v0 = 0, 4
    f1 = (f1 / (3 + 14))
  ENDDO
  f1 = abs(6)
  v1 = ((-2 - 8) * g3)
END

SUBROUTINE proc650(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = (g1 / (3 + la(12)))
  PRINT *, 5
  la(12) = 6
END

SUBROUTINE proc651(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = 3
  IF (la(11) .EQ. v1) THEN
    la(1) = max(2, la(3))
    g0 = abs((g3 - 2))
  ELSE
    v1 = g0
  ENDIF
  g2 = (abs(10) * 7)
  DO f0 = 0, 4
    g3 = la(7)
  ENDDO
  g0 = la(12)
  la(10) = 5
  v1 = max(v1, g1)
  DO v1 = 0, 1
    DO g2 = 2, 6
      f0 = ((la(2) + -1) * la(11))
    ENDDO
  ENDDO
  PRINT *, ((10 / (6 + g0)) - (v0 * g0))
END

SUBROUTINE proc652(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 13
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = g0
  g1 = max(la(10), g2)
  g1 = ((8 / (2 + la(8))) * -4)
END

SUBROUTINE proc653(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = v0
  g1 = la(12)
  f1 = mod(la(11), 2)
  IF (.NOT. ((la(11) / (6 + 11)) .EQ. g1)) THEN
    IF ((la(9) / (4 + la(3))) .LT. -5 .AND. v0 .GT. (6 + 13)) f0 = (7 - f0)
  ENDIF
  PRINT *, 0
  IF (mod(13, 2) .LT. 0 .OR. mod(6, 2) .GT. la(12)) THEN
    PRINT *, max(f1, 13)
    IF (0 .LE. g2 .AND. 1 .EQ. max(8, -5)) THEN
      v1 = ((f0 + v0) + 13)
    ENDIF
  ENDIF
  IF (mod(v0, 4) .GT. (3 / (2 + 4)) .OR. v0 .LT. 6) v0 = mod(2, 4)
  IF (.NOT. (1 .EQ. (f0 / (2 + 2)))) THEN
    v1 = -5
  ENDIF
END

SUBROUTINE proc654(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 10
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = (abs(la(6)) - abs(2))
  IF (mod(la(8), 2) .GE. (la(10) / (3 + la(12))) .OR. (6 - 5) .EQ. (g3 / (6 + g2))) THEN
    DO g1 = 1, 5
      v0 = ((-3 / (2 + g0)) / (5 + 4))
      la(11) = la(8)
    ENDDO
  ELSE
    la(10) = max(10, 1)
    v2 = la(6)
  ENDIF
  f1 = ((g0 / (4 + g3)) - -1)
  DO v0 = 3, 6
    la(11) = 15
  ENDDO
  PRINT *, la(12)
  f1 = abs(max(9, -1))
  g2 = (la(3) * la(11))
  IF ((3 + 10) .NE. g2 .OR. (-3 + 11) .EQ. mod(-1, 6)) THEN
    DO f1 = 2, 5
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
    f0 = max(la(11), g1)
  ENDIF
END

SUBROUTINE proc655(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 5
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = 2
  g0 = g3
  IF ((6 / (5 + la(7))) .GE. mod(-5, 8) .AND. (la(6) - -2) .EQ. la(7)) THEN
    v2 = ((9 * 1) / (4 + la(8)))
    g0 = 10
  ENDIF
  la(7) = (mod(f1, 5) / (2 + g3))
  IF (.NOT. (12 .LE. abs(g3))) g2 = (15 / (3 + -1))
  f1 = ((la(4) * g0) + mod(g1, 5))
  la(10) = ((11 - 3) - (3 - g2))
END

SUBROUTINE proc656(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 13
  g3 = ((13 + la(3)) / (5 + -1))
  PRINT *, max(g1, la(4))
  IF (.NOT. (-1 .GE. 15)) THEN
    v1 = la(8)
  ELSE
    g0 = g3
  ENDIF
  g3 = (la(1) * -5)
END

SUBROUTINE proc657(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 0
  v2 = 9
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 12
  f1 = mod(g0, 8)
  v1 = la(2)
  IF (.NOT. (abs(0) .NE. mod(-2, 6))) v1 = (g3 + 9)
  PRINT *, abs(v2)
  g3 = mod((g1 + 5), 4)
  DO v1 = 2, 4
    la(4) = 15
  ENDDO
  PRINT *, (mod(g2, 4) - (g0 - -1))
  PRINT *, la(5)
  g1 = 5
END

SUBROUTINE proc658(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = ((13 * 12) / (5 + v0))
  g3 = abs(9)
END

SUBROUTINE proc659(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (max(la(8), 5) * 9)
  PRINT *, 6
END

SUBROUTINE proc660(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -3
  v2 = 4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(11) = 2
  PRINT *, 14
  g2 = abs(v3)
  v3 = la(11)
  g2 = ((4 - 15) * 10)
  DO g1 = 2, 4
    g3 = abs((la(4) - 4))
    DO g0 = 3, 6
      g3 = -5
    ENDDO
  ENDDO
  IF (.NOT. (-5 .EQ. la(8))) g2 = 8
  la(12) = ((g1 - g1) - la(10))
END

SUBROUTINE proc661(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = max(v0, v0)
  g0 = (la(10) + g2)
  v1 = la(4)
  DO v0 = 2, 2
    DO g1 = 3, 4
      v1 = la(9)
    ENDDO
  ENDDO
  g3 = -1
  v0 = mod(-3, 3)
  v0 = la(6)
  DO f1 = 1, 4
    la(7) = g0
    v0 = max(-4, -1)
  ENDDO
END

SUBROUTINE proc662(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 11
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = ((8 + la(12)) / (2 + la(1)))
  PRINT *, (max(g3, la(4)) - (8 - g3))
  v1 = 7
END

SUBROUTINE proc663(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO f1 = 3, 5
    IF (g2 .EQ. 6 .OR. (la(6) * 9) .GE. (-1 * la(2))) g1 = mod(f0, 2)
  ENDDO
  g2 = la(5)
  IF (mod(12, 2) .NE. (f1 * la(11)) .OR. max(la(7), -4) .LE. abs(7)) THEN
    g2 = max(1, -3)
    v0 = la(6)
  ELSE
    IF ((la(6) + v1) .NE. (la(10) + g3) .AND. mod(-2, 4) .LT. abs(13)) THEN
      PRINT *, la(4)
      v1 = mod(3, 3)
    ELSE
      g3 = (4 * 12)
      IF (12 .LE. (g3 / (2 + -2))) f1 = (g3 / (5 + 1))
    ENDIF
  ENDIF
  IF (mod(v0, 2) .EQ. (g3 / (3 + 15)) .OR. -5 .LT. mod(g0, 3)) THEN
    f1 = la(5)
  ELSE
    IF (g1 .GE. (la(5) / (5 + v1)) .AND. la(3) .GE. la(9)) THEN
      IF ((la(3) / (6 + la(11))) .GT. g2 .AND. v1 .EQ. v1) v1 = 2
      v0 = la(6)
    ENDIF
    f0 = la(12)
  ENDIF
  IF ((v0 + g2) .GT. 2) f0 = g3
  DO g2 = 0, 0
    g0 = mod((2 - 10), 7)
    DO g3 = 1, 4
      g1 = abs(max(v1, g0))
      v0 = (max(la(8), g2) * g1)
    ENDDO
  ENDDO
  DO g0 = 0, 3
    g3 = g0
    IF (mod(la(4), 7) .NE. 2 .AND. g0 .LT. max(la(3), 3)) f1 = abs(la(1))
  ENDDO
  v0 = la(5)
  IF (la(1) .NE. abs(12)) THEN
    g2 = max(15, f1)
    v0 = (max(la(8), 5) / (3 + v0))
  ELSE
    IF ((la(3) + v1) .NE. la(1) .OR. la(6) .NE. (-1 / (5 + 3))) THEN
      v1 = mod(2, 7)
    ELSE
      f0 = abs(3)
    ENDIF
    v1 = max(g3, -3)
  ENDIF
END

SUBROUTINE proc664(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = 3
  v0 = 10
  la(5) = 13
  f0 = ((15 * 4) / (2 + 6))
  DO g2 = 2, 2
    v0 = abs((-3 - g1))
  ENDDO
  v1 = abs(abs(g1))
  v1 = -2
  g2 = g2
END

SUBROUTINE proc665(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f0 = 1, 3
    PRINT *, max(15, 14)
  ENDDO
  g0 = max(f0, la(5))
END

SUBROUTINE proc666(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 11
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v1 = 0, 2
    g0 = 14
  ENDDO
  DO v1 = 3, 5
    PRINT *, la(6)
    v2 = (la(4) - (-5 + 8))
  ENDDO
  DO v2 = 3, 6
    DO g1 = 0, 0
      la(12) = f0
      v0 = max(0, 13)
    ENDDO
  ENDDO
  la(7) = (g2 * la(4))
  IF (11 .LT. abs(-3) .OR. 4 .GE. la(8)) v1 = (8 - la(5))
  la(10) = la(5)
  IF (abs(v1) .GE. v0 .OR. 9 .GE. (la(11) + 9)) v2 = g2
  PRINT *, la(12)
  v1 = (abs(g1) / (5 + -4))
  g2 = 3
  IF (f0 .GT. 0) THEN
    CALL proc667(f0 - 1, (0 + abs(la(3))))
  ENDIF
  CALL proc671(6, f1)
  CALL proc675(6, f1)
END

SUBROUTINE proc667(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g1 = (la(5) / (3 + 10))
  IF ((la(7) / (5 + v1)) .GE. (8 / (5 + -5)) .OR. 13 .EQ. -1) v0 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc668(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc668(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 3
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 14
  la(6) = mod((g2 - 8), 5)
  DO v2 = 2, 4
    f1 = g2
    g0 = -4
  ENDDO
  g3 = (la(11) / (5 + f0))
  IF ((9 - 7) .EQ. (3 / (5 + 8)) .AND. max(v2, g2) .EQ. (v2 + 7)) g0 = abs(-1)
  g3 = 3
  g2 = ((11 - 7) * f1)
  la(12) = max(7, la(3))
  v0 = (8 + -5)
  IF (f0 .GT. 0) THEN
    CALL proc669(f0 - 1, (0 + 4))
  ENDIF
END

SUBROUTINE proc669(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 13
  v2 = 2
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = la(12)
  g3 = la(5)
  la(11) = (5 - 2)
  PRINT *, abs(14)
  v2 = 10
  IF (f0 .GT. 0) THEN
    CALL proc670(f0 - 1, (0 + v3))
  ENDIF
END

SUBROUTINE proc670(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, max(la(9), la(4))
  g3 = v1
  PRINT *, la(2)
  la(8) = ((v0 * 10) + abs(la(9)))
  IF (f0 .GT. 0) THEN
    CALL proc666(f0 - 1, (0 + (la(3) / (3 + 7))))
  ENDIF
END

SUBROUTINE proc671(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -3
  v2 = 13
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = ((3 / (4 + v1)) + 13)
  f1 = 1
  g2 = 4
  PRINT *, ((v2 / (6 + 12)) * g2)
  IF ((la(9) / (6 + 12)) .LT. abs(-4)) THEN
    DO v0 = 2, 2
      v2 = (abs(11) / (5 + v0))
    ENDDO
    v3 = ((g0 / (3 + 12)) + 11)
  ELSE
    PRINT *, f1
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc672(f0 - 1, 10)
  ENDIF
  CALL proc678(5, v3)
  CALL proc684(5, v3)
END

SUBROUTINE proc672(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = g0
  IF (f1 .LE. -5) THEN
    la(7) = f1
  ENDIF
  g0 = mod(max(-1, 2), 3)
  g0 = abs(la(12))
  la(8) = ((la(5) / (2 + f0)) + f0)
  DO g0 = 2, 3
    DO v0 = 0, 3
      f1 = 13
    ENDDO
    g1 = f0
  ENDDO
  PRINT *, g0
  v0 = 7
  g3 = 10
  g2 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc673(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc673(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 14
  v2 = -1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = 2
  f1 = abs(4)
  g0 = (3 + mod(12, 7))
  PRINT *, max(v2, g2)
  la(1) = 13
  IF ((la(2) + f0) .GE. abs(-2) .AND. (v0 / (6 + f0)) .NE. (-5 / (4 + la(2)))) THEN
    IF (.NOT. (mod(g2, 8) .GE. abs(-3))) g3 = mod(la(12), 8)
  ENDIF
  v0 = (v2 * 11)
  IF (f0 .GT. 0) THEN
    CALL proc674(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc674(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = -1
  IF (-1 .GT. la(11) .AND. la(4) .GE. 4) v0 = la(8)
  g0 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc671(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc675(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 5
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = la(8)
  DO v1 = 0, 1
    g3 = (13 + 4)
    PRINT *, (g3 - g1)
  ENDDO
  IF (2 .LE. g1) THEN
    IF ((-2 - 9) .EQ. max(13, 9) .AND. la(8) .LT. (-2 + -5)) THEN
      g1 = la(2)
    ENDIF
  ELSE
    v2 = (-4 * 2)
  ENDIF
  v0 = abs(9)
  g3 = max(7, la(3))
  IF (f0 .GT. 0) THEN
    CALL proc676(f0 - 1, (0 + mod(g0, 4)))
  ENDIF
  CALL proc690(5, v2)
  CALL proc695(5, f1)
END

SUBROUTINE proc676(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -3
  v2 = 1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(1) = 7
  IF (f0 .GT. 0) THEN
    CALL proc677(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc677(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 0
  v2 = 2
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = v2
  DO g3 = 0, 4
    v0 = (-2 * v1)
  ENDDO
  IF (v2 .GE. abs(2)) v1 = 9
  la(6) = 15
  IF (f0 .GT. 0) THEN
    CALL proc675(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc678(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v2 = 2, 4
    g2 = 13
  ENDDO
  v1 = (f1 + max(v0, -5))
  g1 = la(2)
  PRINT *, ((la(9) + 9) - la(11))
  la(10) = 6
  DO g0 = 3, 3
    g3 = 8
    v0 = (-5 - mod(la(11), 6))
  ENDDO
  la(3) = abs((la(4) + 12))
  PRINT *, la(11)
  g1 = la(10)
  IF (f0 .GT. 0) THEN
    CALL proc679(f0 - 1, v0)
  ENDIF
  CALL proc698(4, v0)
  CALL proc704(4, v0)
END

SUBROUTINE proc679(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 5
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO f1 = 2, 3
    IF (-5 .GT. (g1 * 2) .OR. (5 / (2 + g3)) .LT. la(1)) g0 = (la(2) * la(10))
  ENDDO
  la(1) = mod((la(3) * la(7)), 7)
  IF (f0 .GT. 0) THEN
    CALL proc680(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc680(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -3
  v2 = 12
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v3 = v1
  g0 = max(11, la(12))
  IF (.NOT. ((la(1) - 1) .GT. (14 + la(3)))) THEN
    g3 = ((9 / (6 + -1)) + (la(1) / (5 + 8)))
    DO v1 = 0, 1
      f1 = la(9)
      g2 = 12
    ENDDO
  ENDIF
  v3 = la(5)
  IF ((14 + f1) .GE. 15 .AND. (0 * g1) .LE. abs(v3)) THEN
    f1 = 6
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc681(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc681(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 7
  v2 = 1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (la(10) * 15)
  g3 = mod(0, 8)
  IF (.NOT. ((v2 / (3 + -4)) .NE. 7)) THEN
    g0 = (max(14, -3) * la(4))
  ELSE
    DO v2 = 2, 4
      g0 = la(8)
      v1 = 8
    ENDDO
  ENDIF
  la(11) = 9
  IF ((la(9) / (6 + -3)) .NE. (f1 * f1)) THEN
    la(8) = la(8)
  ENDIF
  DO v2 = 1, 4
    DO f1 = 3, 6
      v3 = ((f0 - la(8)) * 8)
    ENDDO
  ENDDO
  f1 = la(9)
  v0 = (v1 / (6 + 10))
  IF ((9 / (5 + f1)) .NE. la(5)) g0 = 0
  IF (f0 .GT. 0) THEN
    CALL proc682(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc682(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = -1
  IF ((f0 / (2 + la(8))) .LT. la(8)) THEN
    DO g2 = 2, 6
      v0 = max(-1, la(8))
    ENDDO
  ENDIF
  v0 = la(9)
  g1 = la(3)
  g1 = mod(la(7), 4)
  IF (la(11) .GE. la(10)) THEN
    f1 = max(la(8), la(9))
    PRINT *, g3
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc683(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc683(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 13
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = (abs(g1) + g0)
  IF (f0 .GT. 0) THEN
    CALL proc678(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc684(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. ((-1 * 7) .LT. max(f0, la(10)))) THEN
    g1 = (la(9) / (5 + 7))
  ELSE
    v1 = (10 / (5 + 3))
    v0 = 7
  ENDIF
  IF (mod(la(7), 6) .LT. abs(la(7)) .AND. (g3 / (5 + 11)) .LE. (14 + v0)) g0 = 12
  IF (mod(la(6), 7) .NE. -4) g3 = f1
  g3 = abs(13)
  la(12) = mod(1, 4)
  IF (f0 .GT. 0) THEN
    CALL proc685(f0 - 1, v1)
  ENDIF
  CALL proc709(4, 6)
  CALL proc712(4, v0)
END

SUBROUTINE proc685(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = max(5, la(7))
  f1 = 11
  DO v2 = 1, 1
    v1 = la(6)
    v0 = mod(g1, 5)
  ENDDO
  g2 = (0 * la(10))
  f1 = 1
  g3 = abs(g3)
  PRINT *, 5
  v1 = 9
  v0 = (v1 * la(8))
  IF (.NOT. ((7 + f1) .NE. 1)) v2 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc686(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc686(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g0 = ((4 - -5) + (la(3) - 8))
  IF (.NOT. (abs(g3) .GE. abs(la(2)))) v1 = 13
  IF (.NOT. ((-3 / (6 + 6)) .LT. abs(6))) THEN
    f1 = max(8, f1)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc687(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc687(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = mod((f1 / (2 + 8)), 6)
  DO f1 = 2, 6
    IF (.NOT. ((la(6) * 0) .EQ. g1)) g2 = (11 / (4 + -2))
    v1 = max(-4, 6)
  ENDDO
  PRINT *, 11
  IF (mod(5, 7) .NE. (11 + la(12)) .OR. 15 .GE. max(f1, 4)) THEN
    la(3) = (mod(5, 3) * 6)
    DO g3 = 1, 3
      v1 = 5
      v0 = 15
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc688(f0 - 1, (0 + 10))
  ENDIF
END

SUBROUTINE proc688(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = -3
  v2 = 3
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((la(3) - -3) .GT. abs(g2) .AND. (g2 * 3) .LT. f1) g0 = (9 + la(10))
  g0 = 6
  g1 = (max(9, g2) - (f0 - v2))
  v3 = g2
  DO g2 = 0, 3
    v2 = (la(6) / (3 + la(2)))
    v1 = 0
  ENDDO
  DO g2 = 1, 3
    g1 = la(9)
    v0 = g1
  ENDDO
  la(10) = ((g1 - la(10)) * la(10))
  IF (f0 .GT. 0) THEN
    CALL proc689(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc689(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (8 .GT. mod(10, 8) .OR. -4 .EQ. la(12)) v0 = v2
  IF (f0 .GT. 0) THEN
    CALL proc684(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc690(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 0
  v2 = 6
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v1 = 4
  DO g1 = 3, 4
    f1 = (-4 - max(1, g2))
  ENDDO
  IF ((7 - la(5)) .LE. (-3 - v1)) THEN
    g1 = mod(f0, 8)
    g0 = 5
  ENDIF
  IF (3 .LT. v3 .AND. (1 + 10) .LT. abs(10)) THEN
    v0 = 12
  ENDIF
  v2 = f1
  PRINT *, ((4 * 10) * 5)
  la(9) = -5
  IF (f0 .GT. 0) THEN
    CALL proc691(f0 - 1, 1)
  ENDIF
  CALL proc716(4, 7)
  CALL proc722(4, f1)
END

SUBROUTINE proc691(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = mod(abs(la(6)), 6)
  PRINT *, (max(-4, la(8)) - la(4))
  g2 = mod(la(5), 7)
  PRINT *, -1
  PRINT *, la(11)
  v0 = -4
  IF (f0 .GT. 0) THEN
    CALL proc692(f0 - 1, (0 + max(15, la(6))))
  ENDIF
END

SUBROUTINE proc692(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 5
  g0 = ((f0 / (6 + 1)) - g2)
  IF (la(6) .NE. 3) THEN
    IF (v0 .LT. f0 .AND. g2 .NE. -2) THEN
      f1 = la(10)
      IF (mod(0, 4) .LE. (la(8) * f0)) v1 = abs(0)
    ENDIF
    g0 = -1
  ENDIF
  v1 = 9
  g2 = 12
  IF (f0 .GT. 0) THEN
    CALL proc693(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc693(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = ((-2 + -4) / (4 + la(1)))
  g2 = (6 * 4)
  v1 = (6 / (4 + 1))
  v1 = max(4, 0)
  PRINT *, 13
  la(2) = -2
  DO f1 = 2, 2
    la(11) = (mod(-3, 2) * la(5))
    PRINT *, (abs(f0) / (3 + 8))
  ENDDO
  IF (11 .NE. f0 .AND. 4 .NE. (2 - la(11))) f1 = (f0 * g1)
  IF (f0 .GT. 0) THEN
    CALL proc694(f0 - 1, (0 + la(1)))
  ENDIF
END

SUBROUTINE proc694(f0, f1)
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
  v2 = f1
  PRINT *, 10
  la(12) = f0
  IF (2 .NE. (v2 + 12) .AND. max(-3, f0) .EQ. (la(8) / (3 + la(2)))) THEN
    g0 = la(5)
    IF (13 .GE. v0 .AND. max(14, 4) .NE. (10 * 13)) g1 = (la(1) + la(7))
  ELSE
    g0 = la(9)
  ENDIF
  IF (g0 .GT. max(3, 1) .OR. (11 - la(3)) .GE. mod(g2, 5)) v0 = max(2, v0)
  IF (f0 .GT. 0) THEN
    CALL proc690(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc695(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 1
  v2 = 2
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(4) = abs(14)
  IF (.NOT. (12 .LE. (f1 / (6 + 3)))) g3 = max(la(10), la(3))
  v1 = 13
  v2 = v1
  f1 = mod((g0 / (3 + g1)), 2)
  v1 = max(-3, v0)
  v2 = la(2)
  g3 = (la(5) / (2 + 11))
  g1 = 12
  IF (f0 .GT. 0) THEN
    CALL proc696(f0 - 1, (0 + (la(4) * la(4))))
  ENDIF
  CALL proc727(4, v3)
  CALL proc730(4, f1)
END

SUBROUTINE proc696(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 0
  v2 = 5
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = g1
  v1 = 4
  v2 = g0
  IF (.NOT. ((v1 + la(9)) .LT. -1)) THEN
    PRINT *, (la(4) * la(2))
    IF (6 .LT. (6 / (4 + la(3)))) THEN
      g2 = (-4 + 10)
      la(10) = abs(-3)
    ENDIF
  ENDIF
  g0 = ((12 - f0) * la(3))
  g0 = g3
  v2 = (g3 - -5)
  IF (la(5) .LE. 6 .AND. la(2) .GE. (-4 * 6)) THEN
    v2 = (g1 / (5 + la(4)))
    v3 = la(1)
  ELSE
    la(12) = abs(9)
    DO g3 = 3, 6
      v3 = (g2 / (3 + 5))
      v2 = la(5)
    ENDDO
  ENDIF
  PRINT *, la(12)
  f1 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc697(f0 - 1, (0 + la(2)))
  ENDIF
END

SUBROUTINE proc697(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 3
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g3 = 3, 5
    g2 = (abs(14) + max(f0, la(10)))
  ENDDO
  PRINT *, la(7)
  IF (abs(3) .GT. (2 - -3) .OR. (3 * 8) .EQ. (la(5) - 5)) THEN
    g3 = la(7)
    DO g0 = 2, 4
      v0 = g0
      g2 = (f0 - (-5 - 0))
    ENDDO
  ELSE
    f1 = ((g0 + la(3)) + mod(6, 2))
  ENDIF
  PRINT *, mod(6, 4)
  v2 = v2
  g2 = ((2 * 5) / (5 + la(12)))
  f1 = abs(la(3))
  IF (abs(la(7)) .GE. 9) THEN
    v0 = (6 / (3 + 4))
    g3 = max(8, la(5))
  ELSE
    v1 = -5
  ENDIF
  IF (.NOT. ((g2 + 5) .GT. 4)) f1 = g1
  IF (f0 .GT. 0) THEN
    CALL proc695(f0 - 1, (0 + 3))
  ENDIF
END

SUBROUTINE proc698(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, -3
  g0 = (max(f0, g2) / (6 + la(10)))
  la(9) = (mod(g2, 8) / (5 + 4))
  IF (f0 .GT. 0) THEN
    CALL proc699(f0 - 1, 0)
  ENDIF
  CALL proc734(3, v1)
  CALL proc740(3, f1)
END

SUBROUTINE proc699(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 8
  v2 = -4
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = mod(abs(la(3)), 8)
  PRINT *, max(f1, 0)
  PRINT *, 9
  g3 = (abs(8) * 5)
  DO v2 = 1, 4
    DO g1 = 2, 3
      PRINT *, ((la(1) - 4) + 13)
    ENDDO
  ENDDO
  g2 = 7
  IF (f0 .GT. 0) THEN
    CALL proc700(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc700(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 11
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = max(la(6), la(11))
  g1 = ((5 / (2 + 1)) - abs(-3))
  g3 = max(la(5), 8)
  g1 = g0
  IF ((f0 / (3 + 6)) .EQ. 4 .OR. g2 .LT. (0 / (6 + v2))) THEN
    PRINT *, abs((la(2) + la(6)))
  ELSE
    PRINT *, (g0 * -5)
  ENDIF
  la(12) = 13
  f1 = la(4)
  DO f1 = 3, 4
    IF ((14 * la(6)) .LE. 9 .OR. 15 .LT. 6) g3 = (12 / (3 + la(6)))
  ENDDO
  IF (max(v2, v2) .GT. la(1) .OR. g1 .GT. g1) THEN
    PRINT *, (7 / (6 + la(2)))
  ELSE
    v1 = mod(f0, 2)
    v1 = la(8)
  ENDIF
  g3 = v1
  IF (f0 .GT. 0) THEN
    CALL proc701(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc701(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (3 .GE. -2 .OR. 3 .GT. mod(v1, 6)) THEN
    PRINT *, v0
  ENDIF
  v0 = la(1)
  g0 = 4
  g3 = max(la(6), -2)
  f1 = abs((f1 * g1))
  v0 = abs(abs(-4))
  g3 = ((7 + 14) + abs(-5))
  IF (f0 .GT. 0) THEN
    CALL proc702(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc702(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 0
  v2 = 1
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF ((v0 / (2 + 6)) .LT. (13 * 10)) THEN
    g2 = (v2 + (-3 + v2))
    DO g1 = 0, 2
      v1 = ((g2 / (2 + la(4))) + abs(11))
    ENDDO
  ELSE
    v1 = 12
  ENDIF
  g2 = max(14, 4)
  f1 = (13 * la(9))
  la(7) = (13 - la(6))
  IF (f0 .GT. 0) THEN
    CALL proc703(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc703(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 1
  la(7) = (la(6) / (3 + la(11)))
  g0 = 8
  IF (-1 .NE. 8 .OR. v1 .LT. -4) THEN
    g2 = max(f0, la(4))
  ENDIF
  PRINT *, la(1)
  g1 = 9
  IF (13 .EQ. 4 .OR. la(5) .GT. (la(9) / (4 + 1))) g3 = (la(3) / (3 + v0))
  IF (f0 .GT. 0) THEN
    CALL proc698(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc704(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = (la(3) - 12)
  g1 = abs(v0)
  IF (g1 .EQ. 7 .AND. (f0 / (2 + v1)) .LT. (5 * v0)) v1 = 0
  v0 = (la(9) / (4 + 10))
  la(12) = (g0 + (g0 + f1))
  IF (f0 .GT. 0) THEN
    CALL proc705(f0 - 1, 5)
  ENDIF
  CALL proc745(3, (0 + (la(2) - -1)))
  CALL proc750(3, (0 + (la(3) * la(3))))
END

SUBROUTINE proc705(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -3
  v2 = -4
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, ((v2 * 3) * 5)
  g2 = (mod(v3, 7) - (-1 * -2))
  g2 = la(8)
  v3 = v0
  la(4) = max(f1, v0)
  PRINT *, abs(abs(-1))
  DO v2 = 2, 4
    IF ((v0 - la(5)) .LT. (-3 - v2) .OR. (1 * 13) .LT. 3) v0 = 5
    v0 = la(12)
  ENDDO
  g3 = v0
  g1 = max(g2, 9)
  IF (f0 .GT. 0) THEN
    CALL proc706(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc706(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (v1 / (3 + 6))
  v1 = -5
  v1 = la(8)
  g1 = la(6)
  PRINT *, 0
  DO v1 = 3, 4
    IF (.NOT. (5 .NE. 8)) g2 = f1
  ENDDO
  DO g3 = 0, 0
    DO g2 = 0, 1
      IF (abs(la(11)) .LT. 12 .AND. la(7) .GT. (g1 / (4 + f1))) g1 = (0 - la(3))
    ENDDO
    f1 = mod(8, 6)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc707(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc707(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 11
  v2 = 0
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = ((14 - 2) + 3)
  g0 = 10
  g3 = (-2 - mod(-1, 3))
  IF (f0 .GT. 0) THEN
    CALL proc708(f0 - 1, (0 + (4 - la(12))))
  ENDIF
END

SUBROUTINE proc708(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, mod((-5 - la(4)), 2)
  DO v1 = 1, 5
    DO g1 = 3, 7
      g3 = (la(4) * 13)
      la(10) = (la(1) - v0)
    ENDDO
  ENDDO
  la(1) = 5
  f1 = 15
  IF (f0 .GT. 0) THEN
    CALL proc704(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc709(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 11
  v2 = -3
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = 3
  IF (la(9) .GT. abs(-2) .AND. (v2 / (6 + 4)) .GE. 1) g0 = mod(la(8), 4)
  la(5) = 7
  g2 = mod(-3, 6)
  DO v2 = 3, 6
    f1 = g2
    IF (g1 .LE. la(8) .OR. (14 / (2 + -2)) .LE. 2) THEN
      v0 = max(-1, -1)
      g3 = -3
    ENDIF
  ENDDO
  f1 = -4
  g2 = (abs(f1) + (-5 - 4))
  IF (f0 .GT. 0) THEN
    CALL proc710(f0 - 1, v2)
  ENDIF
  CALL proc755(3, v1)
  CALL proc759(3, v3)
END

SUBROUTINE proc710(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = (2 - abs(15))
  IF (f0 .GT. 0) THEN
    CALL proc711(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc711(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = (mod(la(11), 3) / (3 + 12))
  IF (f0 .GT. 0) THEN
    CALL proc709(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc712(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 0
  v2 = 13
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (-2 .LE. mod(-5, 6)) v0 = g2
  DO g0 = 1, 2
    v0 = (g3 - abs(7))
  ENDDO
  IF (mod(4, 4) .NE. -3) g3 = (11 * v2)
  la(2) = 10
  la(1) = 0
  v1 = (13 - la(12))
  IF (la(11) .LT. 9 .OR. (la(3) - f0) .LE. max(la(7), 10)) v0 = 7
  g1 = (abs(la(11)) * la(4))
  IF (.NOT. ((v0 + la(12)) .LE. (8 + la(5)))) f1 = abs(g0)
  IF (f0 .GT. 0) THEN
    CALL proc713(f0 - 1, (0 + v1))
  ENDIF
  CALL proc762(3, v0)
  CALL proc765(3, (0 + abs(14)))
END

SUBROUTINE proc713(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -2
  v2 = 3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = 10
  f1 = (f0 - -5)
  g1 = max(la(9), -3)
  v0 = abs(6)
  IF (f0 .GT. 0) THEN
    CALL proc714(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc714(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 9
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = max(3, 0)
  IF (.NOT. (la(10) .EQ. la(12))) v1 = 5
  f1 = (max(5, 4) * -4)
  PRINT *, (la(4) * 8)
  g0 = la(10)
  IF (.NOT. ((3 * 14) .LE. (la(12) * la(3)))) THEN
    DO v2 = 0, 0
      g1 = abs(-1)
      IF (2 .LE. la(4)) v0 = 6
    ENDDO
  ENDIF
  DO v2 = 0, 3
    IF (.NOT. (-5 .NE. 14)) THEN
      PRINT *, max(3, v2)
      g0 = ((12 / (2 + -2)) + la(2))
    ELSE
      f1 = (mod(la(9), 3) + abs(v0))
      g3 = ((f0 * v0) - la(2))
    ENDIF
    IF (la(11) .GE. g1) g3 = max(la(3), v2)
  ENDDO
  IF (la(1) .EQ. (g3 - 15) .OR. -3 .GE. (la(7) / (2 + g2))) THEN
    PRINT *, g1
    IF (.NOT. ((g0 * v1) .LE. mod(-4, 5))) g1 = v0
  ENDIF
  v0 = g2
  IF (f0 .GT. 0) THEN
    CALL proc715(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc715(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 13
  v2 = -4
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, abs(mod(2, 6))
  v3 = la(11)
  la(3) = mod(mod(-2, 2), 8)
  DO v0 = 3, 4
    IF (f0 .LE. 15) g3 = -2
    la(7) = 9
  ENDDO
  f1 = la(4)
  v2 = la(7)
  PRINT *, la(7)
  IF (f0 .GT. 0) THEN
    CALL proc712(f0 - 1, (0 + abs(15)))
  ENDIF
END

SUBROUTINE proc716(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 1
  v2 = 13
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, (abs(11) - abs(la(1)))
  IF (max(la(4), la(6)) .GE. 13 .AND. (-1 / (3 + 15)) .LT. abs(la(9))) THEN
    PRINT *, 11
    la(9) = ((15 / (2 + la(12))) - max(9, g1))
  ENDIF
  IF (.NOT. (max(1, 7) .LE. (la(9) - 9))) v0 = 11
  la(5) = f0
  v0 = -3
  v1 = 8
  la(2) = (max(la(7), 10) + (-4 - 14))
  IF ((0 * 11) .GE. la(8) .AND. max(f0, 0) .GE. -1) THEN
    IF ((v3 + la(9)) .EQ. 15 .OR. mod(g1, 7) .NE. g3) THEN
      v2 = (5 - g3)
      g1 = la(9)
    ELSE
      g0 = mod((-5 / (4 + la(11))), 3)
    ENDIF
    v3 = (la(7) - (g0 / (3 + 12)))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc717(f0 - 1, v1)
  ENDIF
  CALL proc770(3, (0 + max(11, v0)))
  CALL proc776(3, v3)
END

SUBROUTINE proc717(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO g1 = 1, 4
    IF ((12 * v0) .NE. 13 .AND. abs(-3) .LE. (15 * 0)) THEN
      PRINT *, (max(2, f1) - -1)
    ELSE
      g2 = mod(f0, 3)
      g2 = ((f1 / (5 + la(12))) * f1)
    ENDIF
  ENDDO
  DO g2 = 2, 2
    g3 = 15
  ENDDO
  v1 = (la(6) / (6 + 3))
  v0 = ((g3 / (6 + la(7))) - max(-3, f1))
  f1 = (mod(-1, 7) + 12)
  IF (abs(-3) .EQ. 14 .AND. g1 .GE. -4) v0 = mod(11, 6)
  f1 = max(g2, -4)
  IF ((la(2) * f0) .LT. abs(8) .AND. -2 .LE. (3 * la(5))) v1 = 6
  la(5) = v1
  IF (f0 .GT. 0) THEN
    CALL proc718(f0 - 1, (0 + abs(la(10))))
  ENDIF
END

SUBROUTINE proc718(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g1 = 3, 6
    la(5) = mod(mod(v0, 5), 2)
    v1 = (abs(2) * la(9))
  ENDDO
  f1 = 4
  g2 = 5
  f1 = 10
  la(10) = -2
  IF ((g3 - la(11)) .GT. (-5 + g0) .AND. (-1 / (4 + 13)) .LT. abs(11)) THEN
    g0 = max(-4, 8)
    DO v1 = 3, 6
      la(12) = la(12)
      la(5) = 4
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc719(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc719(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 13
  v2 = 1
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((la(12) / (6 + 9)) .GE. max(la(3), la(9)) .OR. v1 .EQ. (g0 - f0)) f1 = la(10)
  IF (mod(9, 8) .NE. (0 - -4)) g2 = (g2 + 7)
  g3 = g0
  PRINT *, -1
  IF (max(-3, -2) .LE. abs(10) .OR. 8 .GE. g2) THEN
    v1 = ((6 - -1) / (6 + -3))
    g0 = 13
  ENDIF
  g2 = (v0 + (f0 * v3))
  la(4) = ((15 + g0) - 2)
  IF (f0 .GT. 0) THEN
    CALL proc720(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc720(f0, f1)
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
  IF ((9 * -3) .LE. max(9, -4) .OR. la(7) .GE. -5) f1 = (13 + la(9))
  la(10) = 0
  f1 = 1
  g1 = 8
  g3 = la(4)
  v1 = f0
  IF (f0 .GT. 0) THEN
    CALL proc721(f0 - 1, (0 + g3))
  ENDIF
END

SUBROUTINE proc721(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 12
  v2 = 11
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = mod((0 - v0), 2)
  PRINT *, la(6)
  IF (-3 .EQ. max(la(8), -4) .OR. max(2, 9) .LT. (v1 / (6 + 8))) THEN
    v1 = la(10)
    PRINT *, (5 + -5)
  ELSE
    PRINT *, ((-3 - 2) / (4 + -3))
  ENDIF
  PRINT *, la(5)
  IF (.NOT. (mod(g2, 8) .LT. mod(9, 4))) THEN
    g2 = (mod(la(12), 7) * v2)
  ELSE
    g2 = 3
    PRINT *, v1
  ENDIF
  v3 = la(5)
  v2 = ((la(12) * -2) / (4 + la(9)))
  IF (f0 .GT. 0) THEN
    CALL proc716(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc722(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = -2
  v2 = -4
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v0 = ((-3 / (5 + la(4))) - v2)
  IF (.NOT. ((6 / (3 + 14)) .GT. (11 / (6 + la(5))))) g3 = max(v0, 6)
  g0 = mod((6 - g3), 6)
  IF (.NOT. ((f1 - 7) .EQ. la(5))) THEN
    IF (abs(v3) .GT. g3 .AND. (f1 / (3 + g2)) .LE. (la(9) - f1)) THEN
      PRINT *, 1
      f1 = v3
    ELSE
      g0 = f1
    ENDIF
  ENDIF
  g2 = (g1 - (7 * 2))
  PRINT *, (la(5) / (6 + g1))
  v2 = (-5 * -3)
  g0 = g3
  IF (f0 .GT. 0) THEN
    CALL proc723(f0 - 1, f1)
  ENDIF
  CALL proc780(3, f1)
  CALL proc786(3, (0 + -3))
END

SUBROUTINE proc723(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 13
  v2 = 2
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = (la(6) + (-1 / (3 + 6)))
  g3 = 4
  IF (.NOT. (0 .GE. (g1 * g2))) THEN
    v0 = 9
    g1 = ((0 - la(2)) * 2)
  ELSE
    v3 = v2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc724(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc724(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 13
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (0 .GT. la(11) .OR. 15 .GT. 2) f1 = 14
  g1 = (-5 - (13 - 14))
  f1 = -4
  g3 = la(10)
  g3 = max(f0, 10)
  g0 = g2
  IF (.NOT. (4 .LT. (7 - -3))) v0 = (v2 / (2 + 1))
  la(12) = ((la(8) - 15) * g2)
  IF (f0 .GT. 0) THEN
    CALL proc725(f0 - 1, (0 + (la(7) * -3)))
  ENDIF
END

SUBROUTINE proc725(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 5
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, (la(10) + la(8))
  la(5) = (14 + 7)
  la(12) = (f1 + 8)
  f1 = mod(la(10), 3)
  v0 = 5
  g1 = g0
  IF ((la(3) / (6 + g2)) .EQ. -4 .OR. g3 .GE. 15) THEN
    v2 = g3
    IF ((-2 + 1) .LE. max(12, g2) .AND. 7 .LT. 7) f1 = (la(7) + 7)
  ENDIF
  v0 = f1
  IF (f0 .GT. 0) THEN
    CALL proc726(f0 - 1, (0 + g0))
  ENDIF
END

SUBROUTINE proc726(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 3
  v2 = 10
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = v3
  DO g2 = 1, 4
    IF (g0 .LE. (la(2) * v3)) g0 = abs(g1)
  ENDDO
  la(7) = (max(3, -1) + -5)
  g0 = abs((2 - v1))
  la(11) = abs(-4)
  v1 = la(6)
  IF (f0 .GT. 0) THEN
    CALL proc722(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc727(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 11
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = ((f0 * 5) * f0)
  IF (la(1) .NE. 8 .OR. (g0 + la(12)) .GT. (9 / (3 + -2))) g2 = 10
  IF (f0 .GT. 0) THEN
    CALL proc728(f0 - 1, v1)
  ENDIF
  CALL proc789(3, -3)
  CALL proc794(3, v3)
END

SUBROUTINE proc728(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 1
  v2 = 12
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = max(la(6), 7)
  IF (la(3) .NE. (la(1) + la(10)) .OR. max(4, 9) .EQ. v3) v2 = (v0 + g3)
  DO g1 = 3, 5
    DO f1 = 3, 6
      v0 = (v2 + la(8))
      v1 = f1
    ENDDO
  ENDDO
  v0 = (abs(2) * v2)
  la(12) = (v0 + f1)
  IF (mod(f0, 2) .GE. f1) THEN
    v0 = g3
  ENDIF
  IF (.NOT. (-2 .GE. 7)) THEN
    g2 = max(f0, g1)
  ELSE
    g0 = (max(la(9), 0) / (2 + la(7)))
  ENDIF
  la(8) = -3
  v2 = (v2 / (6 + 9))
  IF (f0 .GT. 0) THEN
    CALL proc729(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc729(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g1 = (mod(la(2), 2) - g2)
  DO g1 = 2, 6
    PRINT *, 1
    g0 = ((la(4) / (4 + 2)) * 4)
  ENDDO
  IF (4 .EQ. g3) f1 = 1
  IF (f0 .GT. 0) THEN
    CALL proc727(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc730(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = 8
  g2 = max(8, -4)
  g0 = max(la(7), -2)
  IF (f0 .GT. 0) THEN
    CALL proc731(f0 - 1, 3)
  ENDIF
  CALL proc800(3, (0 + (15 - f1)))
  CALL proc804(3, v1)
END

SUBROUTINE proc731(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 12
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = la(12)
  DO f1 = 1, 1
    IF ((-4 - la(8)) .GE. abs(3) .OR. (la(9) + 0) .LT. la(10)) THEN
      g2 = 6
    ELSE
      g1 = max(g0, la(1))
      v1 = la(8)
    ENDIF
    DO v2 = 0, 2
      IF (.NOT. ((3 - 1) .GT. la(11))) g2 = mod(15, 6)
    ENDDO
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc732(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc732(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = 12
  DO g2 = 0, 4
    IF (la(12) .EQ. f0 .AND. mod(la(11), 4) .GT. la(11)) v0 = (6 / (2 + -1))
    IF ((2 / (5 + f1)) .EQ. la(2) .AND. 2 .LE. mod(f0, 6)) g1 = (la(8) / (6 + 15))
  ENDDO
  IF ((10 * 12) .LE. 11 .OR. v1 .GE. la(11)) THEN
    DO g1 = 3, 7
      PRINT *, 2
    ENDDO
  ENDIF
  IF (f1 .GT. g3 .OR. 10 .NE. la(3)) THEN
    PRINT *, ((la(8) * 11) / (4 + -4))
  ENDIF
  PRINT *, f1
  g2 = g0
  g2 = f0
  v1 = (10 / (3 + 13))
  la(3) = max(f1, 5)
  la(8) = (g1 + (6 / (5 + -3)))
  IF (f0 .GT. 0) THEN
    CALL proc733(f0 - 1, (0 + la(6)))
  ENDIF
END

SUBROUTINE proc733(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = -3
  v2 = 6
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 0, 1
    v2 = (g3 / (4 + -4))
  ENDDO
  IF (2 .GT. (11 - 0) .AND. (f1 + la(1)) .GE. (g1 + 14)) THEN
    f1 = v1
  ELSE
    DO v0 = 2, 2
      la(5) = ((10 / (2 + la(10))) - (la(11) * -2))
      IF ((f0 * -5) .EQ. mod(g2, 5)) v2 = (la(1) / (6 + 3))
    ENDDO
  ENDIF
  PRINT *, la(10)
  DO f1 = 3, 6
    DO v3 = 3, 5
      g0 = max(v2, la(8))
      PRINT *, (v2 * 13)
    ENDDO
  ENDDO
  DO v1 = 1, 2
    v3 = (abs(-1) / (3 + la(4)))
  ENDDO
  g2 = (abs(g2) / (2 + -1))
  IF (f0 .GT. 0) THEN
    CALL proc730(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc734(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 14
  v2 = 8
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = la(5)
  IF (.NOT. ((-5 + 4) .GE. (v0 * -1))) v0 = mod(-5, 4)
  PRINT *, (g0 - max(g0, la(1)))
  v1 = abs(3)
  v2 = mod(5, 4)
  v1 = 3
  f1 = ((f1 * -3) * -1)
  IF (f0 .GT. 0) THEN
    CALL proc735(f0 - 1, v2)
  ENDIF
  CALL proc807(2, v3)
  CALL proc813(2, v1)
END

SUBROUTINE proc735(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 9
  v2 = 5
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g0 = (13 - 6)
  g3 = abs(la(7))
  v1 = (4 + abs(1))
  PRINT *, la(8)
  IF (la(6) .EQ. max(-5, -2)) v1 = la(6)
  la(5) = 10
  PRINT *, mod(mod(v0, 8), 7)
  IF (f0 .GT. 0) THEN
    CALL proc736(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc736(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (f0 .LE. mod(11, 4) .OR. mod(14, 2) .GE. 9) THEN
    la(7) = ((7 - 9) * 13)
  ELSE
    la(4) = abs(mod(la(5), 3))
    PRINT *, (mod(7, 5) * 9)
  ENDIF
  IF (max(f0, la(7)) .LT. la(1)) g0 = 7
  PRINT *, abs(-5)
  IF (f0 .GT. 0) THEN
    CALL proc737(f0 - 1, (0 + (la(6) + la(10))))
  ENDIF
END

SUBROUTINE proc737(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 3
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO v1 = 3, 6
    f1 = g1
    la(3) = max(0, g2)
  ENDDO
  v0 = (2 / (3 + la(10)))
  DO v0 = 1, 5
    PRINT *, 14
  ENDDO
  f1 = la(11)
  IF ((v1 + la(1)) .NE. 0 .AND. max(la(8), 12) .EQ. (13 + la(3))) THEN
    g0 = abs((la(8) / (6 + v2)))
    g0 = -1
  ELSE
    g3 = (max(v1, g1) - la(5))
  ENDIF
  IF (mod(g3, 5) .GE. la(7) .AND. mod(-5, 7) .GT. abs(10)) f1 = mod(v2, 7)
  v0 = 0
  v0 = (15 - (f1 - 2))
  IF (f0 .GT. 0) THEN
    CALL proc738(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc738(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 1, 3
    g1 = ((la(8) / (4 + 11)) + (g0 - g3))
    v1 = 5
  ENDDO
  IF (abs(la(6)) .GT. f0 .AND. (9 / (2 + la(2))) .GE. 15) THEN
    g2 = mod(abs(-4), 4)
  ENDIF
  DO f1 = 3, 6
    IF (g3 .LT. v1 .AND. (la(3) * -3) .NE. abs(la(4))) g2 = (11 / (6 + f0))
    IF (la(6) .LE. (11 * la(2)) .AND. 10 .LE. (g0 * 4)) g2 = 11
  ENDDO
  la(11) = max(7, -4)
  g1 = -5
  IF ((8 - g1) .GE. (g3 + 0)) g0 = 2
  IF (.NOT. (abs(0) .NE. (g2 - la(10)))) f1 = mod(10, 3)
  DO g2 = 3, 7
    v0 = (mod(la(4), 6) + la(7))
    g0 = la(7)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc739(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc739(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(3)
  DO g0 = 2, 3
    DO g2 = 0, 2
      PRINT *, 15
      f1 = (la(7) / (2 + -4))
    ENDDO
  ENDDO
  la(4) = (mod(g0, 8) / (4 + 9))
  g2 = g1
  la(7) = la(4)
  g1 = -5
  IF (f0 .GT. 0) THEN
    CALL proc734(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc740(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 6
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = max(g1, v0)
  IF (f0 .GT. 0) THEN
    CALL proc741(f0 - 1, f1)
  ENDIF
  CALL proc819(2, v1)
  CALL proc822(2, v1)
END

SUBROUTINE proc741(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 0
  v2 = 0
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 2
  IF ((-4 * f1) .NE. (5 / (6 + 4)) .AND. la(3) .NE. (la(11) * 2)) THEN
    v2 = v0
    IF ((3 + v2) .LT. 4) THEN
      g3 = ((g1 - g0) + la(4))
      f1 = -2
    ELSE
      v2 = 4
    ENDIF
  ELSE
    v3 = (15 - (7 / (4 + -1)))
  ENDIF
  v3 = -3
  g3 = ((v0 * -4) + mod(g3, 7))
  la(9) = ((la(7) + la(5)) - mod(v3, 5))
  v0 = v0
  DO v2 = 1, 1
    g1 = v0
    PRINT *, (la(10) + (15 * la(8)))
  ENDDO
  g1 = (f1 / (2 + 4))
  IF (f0 .GT. 0) THEN
    CALL proc742(f0 - 1, (0 + max(9, la(9))))
  ENDIF
END

SUBROUTINE proc742(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (g0 .NE. (la(10) + g3) .OR. 0 .EQ. (g1 - 2)) THEN
    f1 = abs((-5 - 12))
    PRINT *, -4
  ELSE
    IF (.NOT. (la(11) .NE. 10)) THEN
      v1 = abs(8)
      g3 = abs((15 * 1))
    ENDIF
    PRINT *, (f0 - la(5))
  ENDIF
  IF (la(3) .EQ. la(11) .OR. 11 .EQ. abs(la(11))) v0 = 1
  g3 = (11 / (3 + f1))
  IF ((2 - 14) .LT. g2 .AND. -1 .LT. -3) THEN
    g1 = mod(abs(13), 6)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc743(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc743(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(5) = la(6)
  la(2) = abs(v1)
  IF (mod(-1, 8) .GE. (v0 + 12) .AND. -4 .NE. -5) g0 = 0
  IF (mod(10, 7) .LT. -2) THEN
    DO g0 = 3, 6
      v0 = v1
    ENDDO
    g2 = g0
  ENDIF
  f1 = abs(la(10))
  g1 = max(4, la(12))
  g0 = (abs(11) - 14)
  la(5) = max(v1, 7)
  PRINT *, (10 + mod(g3, 5))
  DO g1 = 2, 4
    PRINT *, max(la(7), v1)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc744(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc744(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 0
  v2 = 8
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, v0
  la(3) = mod((g0 - v2), 3)
  g2 = 9
  v1 = 12
  IF (f0 .GT. 0) THEN
    CALL proc740(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc745(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (g0 .GT. (14 / (3 + 13)))) g2 = 3
  g0 = abs(11)
  g1 = la(6)
  IF (.NOT. (v1 .GT. f1)) v0 = la(7)
  g0 = g0
  la(1) = g0
  IF (.NOT. (mod(9, 4) .LT. 2)) v0 = 11
  IF (abs(g1) .GE. la(7) .OR. mod(g1, 2) .EQ. g3) THEN
    IF (.NOT. (-4 .LE. mod(4, 5))) THEN
      f1 = la(6)
    ELSE
      g0 = (max(g0, 3) / (6 + -2))
    ENDIF
    g2 = (max(v0, la(12)) * la(2))
  ELSE
    v2 = -2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc746(f0 - 1, 2)
  ENDIF
  CALL proc826(2, v2)
  CALL proc832(2, 1)
END

SUBROUTINE proc746(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (g2 * 4)
  g0 = 6
  g3 = abs(mod(-1, 3))
  IF (mod(g1, 2) .NE. v1) f1 = 9
  DO g3 = 1, 5
    PRINT *, ((f1 - la(3)) + max(la(6), 11))
    f1 = g3
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc747(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc747(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 10
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(4) = (9 * la(11))
  v0 = 5
  g1 = (f1 + (la(11) / (6 + g3)))
  g2 = max(14, 2)
  IF (f0 .GT. 0) THEN
    CALL proc748(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc748(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g1 = 0, 1
    g3 = -4
  ENDDO
  IF (la(3) .GE. 9) g1 = (f0 * v1)
  g1 = 5
  IF (la(5) .NE. v1 .OR. f0 .EQ. 0) THEN
    IF (1 .LE. 4 .OR. 0 .EQ. g3) v0 = mod(la(8), 4)
  ENDIF
  IF (abs(9) .GT. 1 .OR. mod(15, 6) .GT. la(6)) THEN
    g0 = (la(4) / (2 + 7))
    g2 = la(5)
  ENDIF
  v0 = g2
  la(8) = (mod(-1, 5) - 4)
  IF (f0 .GT. 0) THEN
    CALL proc749(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc749(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = -1
  v2 = 14
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(1) = max(g0, 11)
  v3 = max(8, g2)
  IF (f0 .GT. 0) THEN
    CALL proc745(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc750(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = (la(1) * -3)
  DO g0 = 2, 6
    g2 = g2
    PRINT *, abs((la(5) - la(2)))
  ENDDO
  g0 = (la(4) + la(7))
  IF (.NOT. (6 .EQ. 1)) THEN
    v0 = (abs(g2) + (la(7) - la(2)))
  ENDIF
  IF ((g2 - la(5)) .GT. 13 .AND. 8 .GT. (g1 * 4)) g0 = la(8)
  f1 = mod(abs(v0), 5)
  PRINT *, ((la(3) + g0) / (3 + la(5)))
  g1 = max(la(9), v1)
  g3 = g0
  IF (f0 .GT. 0) THEN
    CALL proc751(f0 - 1, (0 + (f1 * 3)))
  ENDIF
  CALL proc835(2, v0)
  CALL proc841(2, f1)
END

SUBROUTINE proc751(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = f0
  IF (mod(14, 5) .GE. max(v0, 13)) g1 = (0 - g2)
  PRINT *, abs((g0 + 4))
  DO g0 = 0, 2
    g3 = abs((8 * g0))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc752(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc752(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -1
  v2 = 9
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(1) = 8
  DO g0 = 3, 6
    IF (la(7) .LT. mod(14, 7) .AND. (12 / (5 + 15)) .GT. la(1)) THEN
      v1 = mod(6, 5)
    ELSE
      IF (max(0, f0) .GE. abs(la(7)) .OR. la(3) .GT. (g2 / (4 + 6))) v3 = 6
      f1 = f1
    ENDIF
    v3 = max(v1, la(7))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc753(f0 - 1, (0 + (12 - 3)))
  ENDIF
END

SUBROUTINE proc753(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 11
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = la(2)
  g3 = (v3 + (la(12) / (5 + la(10))))
  g0 = g1
  v2 = 12
  v1 = ((f0 - la(10)) / (6 + la(10)))
  v1 = f1
  g3 = 11
  la(9) = v1
  g0 = 13
  v0 = ((f1 / (4 + la(10))) * v3)
  IF (f0 .GT. 0) THEN
    CALL proc754(f0 - 1, (0 + (-1 * g1)))
  ENDIF
END

SUBROUTINE proc754(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 5
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(1) = g2
  g1 = abs((g3 / (4 + la(11))))
  IF (.NOT. ((6 * 15) .LE. -2)) g3 = abs(la(2))
  IF (f0 .GT. 0) THEN
    CALL proc750(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc755(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 13
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v2 = (la(9) * 13)
  PRINT *, max(-1, g3)
  DO v1 = 0, 3
    f1 = 10
    v0 = abs(mod(-2, 4))
  ENDDO
  v2 = (2 + max(la(5), v0))
  IF (.NOT. (12 .LE. (12 + v2))) THEN
    la(12) = ((13 - 1) - g1)
    PRINT *, ((la(2) / (3 + v0)) + v1)
  ENDIF
  g3 = max(f1, la(5))
  g2 = (11 - (g1 - 0))
  DO v0 = 0, 2
    DO g2 = 2, 4
      v2 = la(5)
    ENDDO
  ENDDO
  g1 = (la(9) / (4 + 0))
  DO v0 = 1, 2
    IF (.NOT. ((-4 + 4) .LT. (1 * 0))) v2 = (g2 - -3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc756(f0 - 1, v1)
  ENDIF
  CALL proc847(2, f1)
  CALL proc851(2, f1)
END

SUBROUTINE proc756(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 0
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = la(6)
  la(12) = la(3)
  IF ((7 / (5 + 4)) .LT. (v0 / (5 + g0))) THEN
    g1 = (abs(v2) - 5)
  ENDIF
  f1 = ((la(6) / (4 + la(2))) - (1 - v1))
  g3 = ((la(2) / (2 + f1)) / (2 + 5))
  v1 = (la(6) - abs(la(9)))
  IF (.NOT. (v2 .NE. (v0 / (6 + 1)))) THEN
    DO g0 = 1, 5
      g2 = la(8)
    ENDDO
    IF (.NOT. ((la(7) * g2) .GE. g3)) g1 = abs(g1)
  ENDIF
  v0 = (f0 * 13)
  g0 = (la(3) + la(3))
  IF (f0 .GT. 0) THEN
    CALL proc757(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc757(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g3 = 3, 3
    PRINT *, g3
    la(6) = 10
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc758(f0 - 1, (0 + max(-4, f1)))
  ENDIF
END

SUBROUTINE proc758(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 1
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = la(9)
  DO v3 = 3, 5
    DO g3 = 3, 5
      v0 = abs(-3)
      v1 = la(7)
    ENDDO
  ENDDO
  g0 = ((8 * g2) - (la(5) + v1))
  IF (-5 .EQ. (-2 - la(9)) .OR. (5 + 10) .LE. la(6)) THEN
    IF (11 .EQ. la(6) .AND. 9 .GT. (v1 - -5)) THEN
      PRINT *, max(la(4), 11)
    ELSE
      g2 = 9
      g0 = 15
    ENDIF
    v0 = 6
  ENDIF
  IF (max(v2, 9) .LE. 8 .OR. 10 .GE. 12) v2 = (la(3) + 5)
  IF (f0 .GT. 0) THEN
    CALL proc755(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc759(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 7
  v2 = -2
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = (la(2) + (v3 * la(3)))
  la(3) = (v3 - (la(9) - 2))
  v2 = (la(4) - (la(3) - 9))
  IF ((13 * v0) .LE. g1 .AND. f1 .GT. max(8, 3)) f1 = abs(5)
  IF (f0 .GT. 0) THEN
    CALL proc760(f0 - 1, 0)
  ENDIF
  CALL proc857(2, f1)
  CALL proc861(2, (0 + f0))
END

SUBROUTINE proc760(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = -4
  v2 = 1
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = la(6)
  f1 = (max(la(5), g1) / (5 + 2))
  v0 = ((la(10) + la(1)) * 0)
  g2 = 1
  IF (5 .NE. (la(10) * -2)) g1 = f1
  IF (f0 .GT. 0) THEN
    CALL proc761(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc761(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 6
  v2 = -1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((-5 + g3) .LT. (la(9) / (2 + -1)) .OR. la(11) .NE. v2) g0 = la(7)
  IF (-4 .LE. (7 - v1) .AND. max(f1, -4) .LT. 3) THEN
    DO g3 = 2, 3
      g0 = mod(-5, 8)
      v1 = (3 / (2 + la(11)))
    ENDDO
  ELSE
    g3 = la(4)
    PRINT *, -1
  ENDIF
  g3 = abs(la(9))
  IF (.NOT. ((la(7) / (4 + la(8))) .GE. abs(-3))) f1 = max(v2, 15)
  la(11) = la(5)
  la(9) = la(11)
  v1 = mod((g0 * 14), 6)
  IF (f0 .GT. 0) THEN
    CALL proc759(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc762(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 4
  v2 = -1
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g3 = max(6, g2)
  la(10) = ((la(1) / (5 + 6)) + (la(9) / (3 + la(1))))
  v0 = 13
  v1 = ((la(1) - 15) + 12)
  v3 = (abs(la(6)) - v0)
  la(6) = la(2)
  PRINT *, abs(max(14, 0))
  IF (f0 .GT. 0) THEN
    CALL proc763(f0 - 1, v3)
  ENDIF
  CALL proc867(2, v3)
  CALL proc872(2, (0 + la(2)))
END

SUBROUTINE proc763(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = (2 * -3)
  g1 = ((v2 - -5) + (v0 - v2))
  g3 = 3
  f1 = (14 / (2 + la(6)))
  IF (f0 .GT. 0) THEN
    CALL proc764(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc764(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = -4
  g0 = (g2 - (la(2) * -5))
  g2 = 15
  la(3) = abs(3)
  DO v0 = 3, 7
    v1 = max(la(10), 5)
    g0 = -1
  ENDDO
  IF (v1 .EQ. g3) g2 = f0
  IF (f0 .GT. 0) THEN
    CALL proc762(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc765(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = g3
  g1 = f1
  g0 = ((v0 + 12) - abs(-2))
  IF (la(11) .GE. abs(la(10)) .OR. (15 + v0) .GE. mod(g2, 6)) g2 = (la(9) - la(12))
  g0 = ((f1 + la(5)) - (6 + 6))
  IF (f0 .GT. 0) THEN
    CALL proc766(f0 - 1, (0 + (1 * 3)))
  ENDIF
  CALL proc875(2, (0 + 5))
  CALL proc878(2, v1)
END

SUBROUTINE proc766(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (mod(g0, 7) .EQ. (2 + la(5)))) THEN
    IF (10 .EQ. 5 .AND. (g2 * f1) .LE. abs(8)) g3 = abs(12)
    DO g3 = 0, 0
      IF (13 .LT. 8) v1 = 7
    ENDDO
  ENDIF
  g3 = (11 / (4 + la(9)))
  PRINT *, la(7)
  DO v1 = 1, 4
    g3 = -5
    g0 = g2
  ENDDO
  g0 = la(8)
  DO g3 = 1, 5
    v0 = max(g2, 2)
    v0 = abs(abs(7))
  ENDDO
  g0 = g1
  f1 = 0
  IF (f0 .GT. 0) THEN
    CALL proc767(f0 - 1, (0 + 4))
  ENDIF
END

SUBROUTINE proc767(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 9
  v2 = 8
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, ((-2 * la(10)) * la(3))
  g0 = la(9)
  g0 = g0
  DO g3 = 0, 0
    IF (max(g0, 0) .LT. 8) f1 = la(1)
  ENDDO
  la(4) = la(6)
  v1 = mod(2, 4)
  v2 = 0
  IF (f0 .GT. 0) THEN
    CALL proc768(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc768(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 1
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. (abs(-5) .GT. max(14, -4))) THEN
    IF ((11 - g1) .NE. v1) v1 = max(13, v0)
    v1 = (abs(9) + (v2 * la(7)))
  ENDIF
  IF (8 .LT. 10 .OR. (la(5) * 0) .GE. (11 - g1)) v0 = 0
  g3 = max(12, 7)
  g2 = (g1 - (la(7) + 14))
  la(8) = (g0 * la(3))
  IF (f0 .GT. 0) THEN
    CALL proc769(f0 - 1, (0 + 4))
  ENDIF
END

SUBROUTINE proc769(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (0 .GE. -5 .AND. (v0 * -4) .LT. 14) v1 = 2
  IF (4 .EQ. (1 + -1)) v1 = abs(g3)
  v0 = la(6)
  PRINT *, -3
  v1 = ((f1 - v0) / (5 + 14))
  IF ((7 / (3 + 2)) .GT. la(11) .OR. 11 .NE. (la(2) + f0)) g2 = (g2 + -4)
  la(12) = 1
  DO v0 = 3, 4
    IF (la(2) .LT. v1 .AND. (g3 + g1) .LT. (-2 * -1)) g2 = mod(8, 2)
    IF (3 .GE. max(14, la(7)) .AND. -1 .NE. 7) THEN
      f1 = abs(11)
    ENDIF
  ENDDO
  g0 = ((7 - 15) * 15)
  f1 = (f1 / (4 + 14))
  IF (f0 .GT. 0) THEN
    CALL proc765(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc770(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g0 = -2
  g3 = ((g0 / (4 + 10)) * 0)
  PRINT *, mod((g3 + 4), 5)
  la(11) = max(-5, v2)
  DO g2 = 1, 1
    PRINT *, 12
    f1 = la(12)
  ENDDO
  IF (.NOT. (g3 .LT. (7 + -5))) v2 = mod(-4, 6)
  DO g3 = 2, 3
    v1 = la(11)
  ENDDO
  PRINT *, max(10, 2)
  IF (f0 .GT. 0) THEN
    CALL proc771(f0 - 1, v0)
  ENDIF
  CALL proc883(2, v2)
  CALL proc886(2, (0 + (la(4) / (5 + v0))))
END

SUBROUTINE proc771(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO f1 = 1, 5
    g3 = f0
    g2 = 2
  ENDDO
  IF ((15 - la(9)) .EQ. (v0 - -4) .OR. 13 .LT. (f1 * 5)) f1 = (14 - 12)
  IF (f0 .GT. 0) THEN
    CALL proc772(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc772(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = la(8)
  DO v0 = 3, 7
    PRINT *, ((-4 + 9) / (5 + la(8)))
    PRINT *, la(8)
  ENDDO
  g2 = max(g1, 2)
  IF (f1 .NE. g1 .OR. 8 .GT. 9) THEN
    IF ((g2 * g0) .EQ. 14) g2 = abs(la(7))
    g2 = 1
  ELSE
    DO g3 = 3, 7
      IF (g1 .NE. -3 .AND. mod(la(5), 3) .LT. v0) g1 = la(11)
    ENDDO
  ENDIF
  g1 = (abs(0) + g2)
  DO v1 = 1, 5
    f1 = 14
    g0 = (max(la(9), 13) * 2)
  ENDDO
  g3 = mod(la(5), 8)
  IF (f0 .GT. 0) THEN
    CALL proc773(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc773(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = 0
  PRINT *, (v0 * la(5))
  IF (f0 .GT. 0) THEN
    CALL proc774(f0 - 1, (0 + la(3)))
  ENDIF
END

SUBROUTINE proc774(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 8
  v2 = 3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = la(10)
  v1 = 8
  la(3) = abs(mod(11, 3))
  g1 = (-2 + la(8))
  g0 = 11
  la(5) = (v2 - (4 / (2 + v2)))
  v1 = la(5)
  IF ((5 + la(1)) .GT. max(14, -5)) THEN
    PRINT *, v1
    DO g1 = 0, 1
      PRINT *, la(2)
      f1 = ((f0 - 11) / (2 + 4))
    ENDDO
  ENDIF
  IF (.NOT. ((la(9) / (5 + la(6))) .NE. f1)) v1 = 7
  IF (f0 .GT. 0) THEN
    CALL proc775(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc775(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 14
  v2 = 8
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = v1
  DO g2 = 2, 2
    IF (abs(v0) .EQ. (f0 / (5 + la(4)))) v3 = la(5)
  ENDDO
  f1 = ((v1 - f0) + mod(la(7), 3))
  IF (1 .GT. max(-5, 14)) THEN
    la(3) = 15
  ENDIF
  DO g0 = 3, 7
    PRINT *, max(la(4), 14)
  ENDDO
  g3 = 7
  la(9) = (5 + (0 + 7))
  IF (la(2) .GT. (11 / (6 + la(2)))) THEN
    f1 = 10
    la(11) = (la(5) + (la(2) + 1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc770(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc776(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (11 .EQ. -5) g0 = v1
  g3 = 5
  IF (f0 .GT. 0) THEN
    CALL proc777(f0 - 1, v0)
  ENDIF
  CALL proc891(2, (0 + g1))
  CALL proc896(2, v1)
END

SUBROUTINE proc777(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g1 = 2, 6
    v0 = abs(v1)
  ENDDO
  PRINT *, la(9)
  DO v2 = 0, 3
    g3 = la(8)
    v1 = v2
  ENDDO
  PRINT *, (max(g0, f0) + mod(la(9), 8))
  DO g3 = 0, 0
    IF (la(1) .LT. la(1)) g1 = -2
    PRINT *, la(5)
  ENDDO
  IF (la(9) .LE. g1 .OR. 10 .NE. abs(g0)) THEN
    IF ((15 / (2 + 11)) .LE. 9 .AND. g1 .LE. mod(-5, 5)) g0 = abs(11)
    v0 = max(la(9), v0)
  ENDIF
  PRINT *, max(la(2), -4)
  g2 = max(la(8), la(10))
  IF (.NOT. (max(12, -1) .NE. (-4 * 10))) THEN
    IF (.NOT. (max(10, g2) .LE. (0 / (5 + 13)))) THEN
      PRINT *, la(3)
    ENDIF
  ENDIF
  g3 = g0
  IF (f0 .GT. 0) THEN
    CALL proc778(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc778(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 4
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc779(f0 - 1, (0 + (g3 / (2 + -4))))
  ENDIF
END

SUBROUTINE proc779(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = 10
  PRINT *, 1
  g2 = 10
  IF (-5 .LT. 11 .OR. la(3) .NE. (g0 / (4 + la(7)))) THEN
    g3 = (-2 * 3)
  ENDIF
  f1 = la(8)
  v0 = ((f1 - -1) / (6 + 1))
  IF (.NOT. (v0 .NE. abs(14))) THEN
    g0 = (la(2) - (la(12) + v0))
    g2 = 8
  ENDIF
  IF (.NOT. ((14 - 11) .LT. (-1 - g1))) THEN
    f1 = abs(abs(g1))
  ENDIF
  v0 = mod((-2 * g3), 6)
  IF (f0 .GT. 0) THEN
    CALL proc776(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc780(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 8
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, g2
  g2 = (v1 + (f0 * -3))
  la(7) = -4
  g3 = g1
  g2 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc781(f0 - 1, 10)
  ENDIF
  CALL proc900(2, v0)
  CALL proc906(2, (0 + 2))
END

SUBROUTINE proc781(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 5
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = mod(max(10, -5), 8)
  g3 = (5 - (-1 * 6))
  g0 = ((v0 / (4 + 0)) / (6 + 9))
  g2 = (abs(la(12)) - 2)
  DO f1 = 2, 6
    g1 = max(g1, la(7))
  ENDDO
  IF ((1 * 10) .LT. -2 .OR. mod(g0, 2) .LE. (la(10) + v1)) v0 = 14
  v1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc782(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc782(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 7
  v2 = 12
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g1 = g3
  IF (la(3) .EQ. v1) v1 = 2
  IF (.NOT. (mod(7, 7) .LE. 4)) THEN
    IF (la(2) .GE. 3 .AND. (15 * 4) .GE. mod(g3, 8)) THEN
      g2 = la(11)
      v0 = (14 * 14)
    ENDIF
  ENDIF
  DO g3 = 0, 1
    IF (la(10) .EQ. la(8)) v1 = la(6)
  ENDDO
  g0 = mod(-3, 4)
  v1 = (9 / (2 + la(6)))
  PRINT *, mod((la(1) - 12), 3)
  IF (-3 .GE. 10 .AND. (f1 - v2) .GE. 1) v1 = 2
  g2 = f0
  PRINT *, abs((la(6) * la(12)))
  IF (f0 .GT. 0) THEN
    CALL proc783(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc783(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 9
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = v1
  la(8) = mod((la(12) * g1), 5)
  f1 = 10
  g0 = 13
  v0 = abs((10 - 3))
  DO v0 = 1, 2
    f1 = abs(la(11))
  ENDDO
  IF (.NOT. (9 .GT. (7 + 0))) v0 = max(la(1), -3)
  DO g0 = 0, 2
    v2 = f1
  ENDDO
  g2 = ((-4 / (4 + la(9))) + la(10))
  IF (f0 .GT. 0) THEN
    CALL proc784(f0 - 1, 11)
  ENDIF
END

SUBROUTINE proc784(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = max(3, la(3))
  la(3) = -2
  IF (la(10) .GT. 0 .AND. (f0 + 10) .NE. (3 - 5)) g2 = f0
  IF (f0 .GT. 0) THEN
    CALL proc785(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc785(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g1 = 3, 3
    IF (1 .NE. la(2) .AND. abs(la(7)) .EQ. la(4)) f1 = 5
  ENDDO
  v1 = la(3)
  PRINT *, mod(la(4), 7)
  g3 = (la(10) / (2 + 10))
  g1 = ((11 / (6 + la(4))) / (3 + la(1)))
  IF (4 .GE. (3 - la(9)) .AND. (9 + v0) .LE. abs(10)) THEN
    IF (.NOT. (f0 .LT. max(g1, la(5)))) THEN
      g3 = g0
    ENDIF
    DO g0 = 3, 3
      v1 = mod(14, 3)
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc780(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc786(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 14
  v2 = 8
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = mod(-1, 7)
  v2 = g2
  DO g3 = 1, 4
    g2 = max(la(7), g0)
  ENDDO
  PRINT *, ((12 * la(7)) / (4 + la(4)))
  g1 = abs(4)
  g2 = abs(la(5))
  v1 = (max(-5, la(11)) / (2 + 11))
  v2 = 12
  g0 = -5
  IF (f0 .GT. 0) THEN
    CALL proc787(f0 - 1, f1)
  ENDIF
  CALL proc912(2, -3)
  CALL proc915(2, v3)
END

SUBROUTINE proc787(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(4) = max(14, -1)
  g2 = g1
  IF ((la(9) * f1) .GT. (4 / (6 + g2))) THEN
    DO g0 = 3, 5
      g2 = g3
    ENDDO
  ENDIF
  f1 = ((la(3) * g2) * g3)
  IF (f0 .GT. 0) THEN
    CALL proc788(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc788(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -1
  v2 = 12
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f1 = 3, 5
    v0 = (13 / (2 + v3))
  ENDDO
  g1 = v1
  g0 = 15
  PRINT *, (max(6, 9) - (11 * la(4)))
  la(2) = max(3, 13)
  v3 = abs(mod(f0, 7))
  PRINT *, (5 - la(1))
  g0 = 4
  IF (f0 .GT. 0) THEN
    CALL proc786(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc789(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 4
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = -5
  IF (la(1) .LE. la(10)) g2 = max(9, g3)
  IF (.NOT. (12 .NE. max(15, v0))) THEN
    PRINT *, v0
  ENDIF
  g0 = la(10)
  DO f1 = 3, 6
    PRINT *, max(1, v1)
  ENDDO
  g1 = g0
  IF (f0 .GT. 0) THEN
    CALL proc790(f0 - 1, v2)
  ENDIF
  CALL proc918(2, v2)
  CALL proc922(2, v1)
END

SUBROUTINE proc790(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 0
  v2 = 5
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = la(12)
  IF (2 .LT. (f0 * v3) .AND. (5 * -4) .GT. max(la(2), -1)) THEN
    PRINT *, -3
    g0 = 6
  ENDIF
  g1 = (g1 - (g3 / (6 + 8)))
  v2 = g3
  IF (f0 .GT. 0) THEN
    CALL proc791(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc791(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 1
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(10) = (4 - (2 * g2))
  IF (abs(g0) .GE. (la(1) * 9) .AND. la(12) .EQ. abs(v2)) v1 = (2 + g2)
  g1 = la(8)
  IF (abs(-4) .EQ. (la(5) / (3 + -5)) .AND. -2 .LT. max(-4, -5)) f1 = mod(v1, 8)
  IF (g1 .LT. (la(8) + 4)) v0 = (la(7) * 3)
  DO g0 = 0, 0
    IF (mod(8, 2) .NE. (-4 * 4) .AND. la(2) .GT. (10 + la(4))) THEN
      IF (.NOT. (la(11) .LE. 15)) v1 = (15 - f0)
    ELSE
      g2 = (la(6) - (la(6) / (4 + 8)))
      f1 = v2
    ENDIF
    IF (abs(la(5)) .GE. la(4) .OR. (f0 - g2) .NE. (12 + f0)) g1 = g0
  ENDDO
  la(12) = la(3)
  PRINT *, ((la(3) + v1) + (9 - g3))
  IF (f0 .GT. 0) THEN
    CALL proc792(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc792(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 1
  v2 = 6
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = abs((0 - la(1)))
  DO g3 = 1, 4
    v0 = -3
  ENDDO
  f1 = f0
  IF (.NOT. ((f0 + g2) .EQ. 4)) THEN
    g2 = ((7 - la(4)) / (6 + la(8)))
    IF (max(la(12), 13) .EQ. abs(-2)) THEN
      g3 = 15
    ELSE
      v2 = max(1, v0)
    ENDIF
  ENDIF
  la(1) = g3
  v1 = mod(4, 5)
  v2 = 15
  PRINT *, v2
  DO g2 = 2, 6
    f1 = v3
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc793(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc793(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = 1
  IF ((la(6) + v0) .EQ. 5 .OR. 12 .GE. (la(9) * 5)) g0 = (la(7) / (3 + 2))
  g3 = 8
  PRINT *, (abs(g1) - (11 - la(11)))
  IF (max(7, v0) .LE. la(9) .OR. max(5, -5) .GE. la(2)) g1 = f1
  g2 = 13
  IF (f0 .GT. 0) THEN
    CALL proc789(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc794(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 4
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 15
  la(7) = max(4, la(7))
  v1 = v2
  IF (f0 .GT. 0) THEN
    CALL proc795(f0 - 1, (0 + (v2 + f1)))
  ENDIF
  CALL proc925(2, 11)
  CALL proc929(2, 0)
END

SUBROUTINE proc795(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = max(la(9), 0)
  g1 = la(10)
  DO g2 = 1, 1
    g3 = 14
    g1 = ((13 / (3 + la(1))) - mod(v1, 8))
  ENDDO
  g2 = (mod(0, 5) / (4 + la(4)))
  IF ((la(11) / (2 + 14)) .LT. (la(7) + la(1)) .AND. g2 .GE. mod(-4, 2)) THEN
    PRINT *, la(10)
    g0 = (max(-2, g3) - la(11))
  ENDIF
  g0 = (abs(-5) + mod(la(3), 8))
  IF ((-5 - -1) .EQ. la(12) .AND. la(4) .EQ. 10) g3 = (la(1) / (5 + 12))
  IF (f0 .GT. 0) THEN
    CALL proc796(f0 - 1, (0 + v1))
  ENDIF
END

SUBROUTINE proc796(f0, f1)
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
  g3 = max(10, g0)
  v2 = 5
  v1 = ((2 - 0) * la(9))
  DO g3 = 2, 2
    g2 = (max(f0, -5) - v3)
  ENDDO
  la(11) = max(v0, 6)
  v3 = la(9)
  IF ((1 * la(8)) .LT. (la(2) * 12) .AND. 1 .LE. 5) THEN
    v2 = abs(12)
  ENDIF
  la(11) = (f1 / (2 + f0))
  g0 = abs((g3 * 12))
  IF (max(5, 2) .GE. 1 .AND. (14 / (2 + la(1))) .EQ. max(la(5), g3)) THEN
    v0 = abs(g1)
    la(12) = v2
  ELSE
    g1 = 11
    la(10) = (7 * -3)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc797(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc797(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -3
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, 14
  IF (.NOT. ((la(8) + v2) .LT. max(la(2), la(11)))) g3 = max(8, 13)
  g3 = (2 + 8)
  v1 = -4
  DO v1 = 3, 4
    PRINT *, 11
    la(4) = la(12)
  ENDDO
  IF (.NOT. (2 .LE. abs(1))) THEN
    f1 = ((v2 + -1) * -1)
    IF ((g3 + la(7)) .NE. (la(8) + -5) .OR. 10 .EQ. 5) g2 = (v2 / (5 + 11))
  ENDIF
  IF (la(2) .LE. la(8) .AND. -4 .LE. g2) f1 = abs(la(9))
  IF (f0 .GT. 0) THEN
    CALL proc798(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc798(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(1) = la(7)
  IF (max(13, f0) .GT. -1 .AND. g0 .LT. 2) THEN
    g2 = mod(0, 3)
    PRINT *, (mod(-4, 4) - la(5))
  ELSE
    v0 = f1
  ENDIF
  DO g1 = 0, 2
    v1 = (v0 / (3 + 2))
    g2 = la(5)
  ENDDO
  f1 = (la(11) - (g1 * f0))
  g1 = abs(-2)
  IF (f0 .GT. 0) THEN
    CALL proc799(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc799(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = -4
  v2 = 10
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g1 = (15 - v2)
  DO v3 = 2, 5
    la(12) = v1
  ENDDO
  IF (f0 .EQ. (la(9) - 6)) v2 = max(5, la(8))
  DO g0 = 3, 5
    v3 = abs(12)
  ENDDO
  f1 = g1
  DO g1 = 0, 0
    f1 = la(1)
    v0 = max(la(1), la(7))
  ENDDO
  IF (mod(la(8), 8) .EQ. (-1 / (4 + -2)) .AND. 3 .NE. v0) THEN
    g3 = la(12)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc794(f0 - 1, (0 + max(14, -4)))
  ENDIF
END

SUBROUTINE proc800(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 4
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = (la(8) - (7 - 0))
  IF (f0 .GT. 0) THEN
    CALL proc801(f0 - 1, (0 + max(9, 1)))
  ENDIF
  CALL proc935(2, v1)
  CALL proc941(2, f1)
END

SUBROUTINE proc801(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = (max(la(2), 11) * 9)
  IF (mod(v2, 7) .GE. (la(5) + g1) .OR. -3 .NE. (14 / (4 + v2))) THEN
    DO g1 = 3, 5
      f1 = (0 / (5 + f0))
    ENDDO
  ENDIF
  f1 = la(5)
  IF (abs(g2) .NE. g1 .AND. (0 * f1) .GT. (12 / (4 + v0))) THEN
    v1 = abs((-1 - g3))
  ELSE
    g0 = g3
    v0 = la(7)
  ENDIF
  g2 = abs(mod(f0, 3))
  PRINT *, la(12)
  IF (f0 .GT. 0) THEN
    CALL proc802(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc802(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 3
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = la(5)
  la(8) = ((la(1) / (5 + v2)) - 0)
  g2 = v0
  v0 = g3
  v2 = (9 / (5 + la(1)))
  g2 = 11
  IF (.NOT. ((5 * 3) .LE. abs(13))) f1 = v2
  IF (.NOT. (10 .LT. (f1 * la(9)))) g0 = mod(3, 6)
  IF (mod(13, 5) .GT. v1) g1 = g1
  g1 = 2
  IF (f0 .GT. 0) THEN
    CALL proc803(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc803(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = la(1)
  IF (f0 .GT. 0) THEN
    CALL proc800(f0 - 1, (0 + -5))
  ENDIF
END

SUBROUTINE proc804(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v1 = ((5 / (3 + g0)) + la(11))
  IF (f0 .GT. 0) THEN
    CALL proc805(f0 - 1, (0 + mod(6, 6)))
  ENDIF
  CALL proc946(2, v0)
  CALL proc950(2, 9)
END

SUBROUTINE proc805(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (7 .GE. la(5) .OR. (la(5) - g1) .GT. v1) THEN
    IF (la(10) .EQ. (13 - 6)) g0 = la(6)
  ELSE
    g1 = abs(abs(la(4)))
    IF (.NOT. (abs(-5) .NE. la(10))) THEN
      IF (abs(f1) .GT. la(6) .OR. (11 / (4 + 0)) .GT. (-3 * la(2))) f1 = (-5 + la(8))
    ELSE
      v0 = max(g2, f1)
      f1 = 14
    ENDIF
  ENDIF
  v2 = la(4)
  la(9) = (la(8) * 8)
  la(8) = -3
  v0 = la(2)
  g0 = ((2 + g1) * 5)
  v1 = 1
  PRINT *, g2
  g3 = 12
  IF (f0 .GT. 0) THEN
    CALL proc806(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc806(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -3
  v2 = -4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v1 = 2, 4
    la(2) = mod((g3 + g0), 3)
  ENDDO
  PRINT *, la(9)
  g0 = ((2 + la(4)) - mod(la(6), 4))
  IF (f0 .GT. 0) THEN
    CALL proc804(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc807(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = ((15 - g3) - f1)
  g3 = 0
  g3 = (abs(f1) - 13)
  g3 = ((4 - la(8)) + v0)
  g0 = ((g0 * la(9)) - f1)
  g0 = 6
  g0 = la(9)
  IF (.NOT. (15 .LT. (f1 / (3 + 3)))) THEN
    IF (3 .GE. mod(g0, 6) .AND. g3 .LE. -3) THEN
      f1 = (g1 * 2)
      PRINT *, 1
    ENDIF
    v1 = g2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc808(f0 - 1, v1)
  ENDIF
  CALL proc956(1, -2)
  CALL proc960(1, (0 + (f0 / (5 + -4))))
END

SUBROUTINE proc808(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 14
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g0 = 0, 1
    DO g2 = 3, 6
      f1 = mod(7, 2)
    ENDDO
    v1 = mod(g1, 7)
  ENDDO
  v2 = ((v1 - la(1)) - (f0 - 3))
  g2 = -5
  IF (-1 .EQ. max(la(12), 4) .OR. g0 .LT. (la(7) * v1)) THEN
    v2 = g2
  ENDIF
  IF ((f0 * 4) .LE. 5 .AND. abs(v2) .GE. v2) g0 = (g1 * v0)
  PRINT *, abs((-1 - -4))
  f1 = f0
  IF (6 .LE. (la(8) / (4 + 13))) THEN
    v1 = la(11)
  ELSE
    PRINT *, abs(1)
  ENDIF
  g1 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc809(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc809(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 13
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(3) .NE. la(3)) v0 = 6
  IF (.NOT. ((-1 + f0) .GT. 15)) v1 = -2
  g0 = (5 * la(2))
  PRINT *, ((1 / (4 + la(2))) * 12)
  g2 = (f0 - la(6))
  DO g0 = 2, 4
    PRINT *, (max(-4, la(12)) - f1)
  ENDDO
  IF (8 .GE. (6 / (6 + f0)) .AND. (6 / (5 + g3)) .LT. (v0 + g3)) THEN
    DO g1 = 0, 0
      v2 = 6
    ENDDO
    g2 = (v1 * la(3))
  ELSE
    la(5) = ((11 * 0) * 13)
  ENDIF
  IF (mod(la(10), 7) .LT. v0 .OR. 12 .NE. v0) THEN
    PRINT *, (max(13, 3) + la(7))
    v0 = mod((-3 / (3 + g3)), 2)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc810(f0 - 1, (0 + (g3 / (5 + v0))))
  ENDIF
END

SUBROUTINE proc810(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 14
  v2 = 8
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, ((8 / (5 + 7)) * 8)
  DO f1 = 3, 3
    v1 = la(5)
  ENDDO
  la(5) = 8
  DO v3 = 2, 6
    IF ((10 * g1) .LE. max(la(4), la(11)) .AND. (g1 * 4) .LT. 14) THEN
      PRINT *, (mod(la(6), 5) + (g1 * la(6)))
    ENDIF
  ENDDO
  DO f1 = 1, 4
    v0 = 11
    PRINT *, la(12)
  ENDDO
  PRINT *, (-5 - abs(v1))
  IF (f0 .GT. 0) THEN
    CALL proc811(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc811(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = 11
  PRINT *, (8 / (5 + -5))
  PRINT *, v0
  v0 = mod((la(8) + -4), 3)
  g1 = -3
  g0 = (abs(8) / (4 + la(7)))
  v1 = g0
  g3 = mod(abs(la(11)), 2)
  g1 = abs(la(12))
  g3 = mod(la(11), 7)
  IF (f0 .GT. 0) THEN
    CALL proc812(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc812(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = -4
  v2 = -2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(5) .GE. 3 .OR. v2 .EQ. abs(2)) THEN
    la(8) = 3
  ENDIF
  f1 = la(5)
  g3 = ((g2 - 11) * 2)
  PRINT *, la(2)
  v2 = (mod(14, 8) / (3 + 1))
  PRINT *, 6
  la(5) = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc807(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc813(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = mod(f1, 8)
  la(8) = la(10)
  v1 = (mod(6, 5) + (g2 * g3))
  g2 = ((15 * v1) / (3 + -4))
  PRINT *, mod(g2, 4)
  IF (f0 .GT. 0) THEN
    CALL proc814(f0 - 1, 11)
  ENDIF
  CALL proc965(1, v1)
  CALL proc971(1, v1)
END

SUBROUTINE proc814(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = g0
  g2 = la(10)
  g3 = mod((la(5) * f0), 5)
  IF ((6 / (4 + 15)) .LE. mod(5, 8)) g3 = (-1 / (3 + f0))
  IF (v0 .NE. max(11, 11) .OR. la(7) .NE. abs(8)) THEN
    la(10) = (v0 - 8)
  ELSE
    IF (-4 .EQ. max(la(12), la(4)) .OR. la(11) .LT. max(g0, la(1))) f1 = abs(5)
    PRINT *, max(g0, f1)
  ENDIF
  g2 = la(9)
  DO g0 = 1, 2
    g1 = 11
    g3 = abs((4 - 11))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc815(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc815(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 13
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = ((v0 - f0) * 2)
  v1 = 10
  IF (f0 .GT. 0) THEN
    CALL proc816(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc816(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(2) = (g3 - la(5))
  PRINT *, la(8)
  v1 = 3
  g2 = (la(5) / (5 + la(8)))
  DO g2 = 3, 5
    g3 = (la(8) * 10)
    DO v0 = 2, 6
      f1 = (f0 / (3 + 1))
      g1 = (mod(g3, 7) - max(la(9), f0))
    ENDDO
  ENDDO
  PRINT *, 1
  f1 = -3
  IF (f0 .GT. 0) THEN
    CALL proc817(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc817(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, abs((f0 + 14))
  v1 = ((6 * 4) + -4)
  g3 = ((14 / (6 + la(2))) - abs(la(1)))
  v1 = max(2, 2)
  IF (f0 .GT. 0) THEN
    CALL proc818(f0 - 1, (0 + max(12, 8)))
  ENDIF
END

SUBROUTINE proc818(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 14
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(1) .GT. max(v2, v2) .AND. 11 .GE. 0) THEN
    v0 = mod(max(la(10), 10), 6)
  ENDIF
  PRINT *, (la(10) + abs(3))
  v1 = 13
  IF (.NOT. ((g1 + 2) .GT. 0)) THEN
    v1 = ((g3 - f1) + (f1 * g3))
    f1 = la(2)
  ELSE
    f1 = abs(-1)
    PRINT *, la(3)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc813(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc819(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 8
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = max(5, 4)
  v0 = max(6, la(2))
  v1 = mod((v2 - la(9)), 6)
  v0 = abs(la(9))
  g1 = (abs(la(10)) * la(6))
  g2 = 0
  g1 = g3
  g0 = abs((la(9) + g2))
  v1 = g3
  IF (f0 .GT. 0) THEN
    CALL proc820(f0 - 1, (0 + (la(8) * -1)))
  ENDIF
  CALL proc977(1, v2)
  CALL proc980(1, (0 + (f0 / (2 + la(2)))))
END

SUBROUTINE proc820(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 8
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = la(8)
  f1 = ((8 / (4 + g3)) + la(3))
  IF (f0 .GT. 0) THEN
    CALL proc821(f0 - 1, (0 + (la(8) * 10)))
  ENDIF
END

SUBROUTINE proc821(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f1 = 2, 3
    g3 = abs((13 / (4 + g3)))
  ENDDO
  PRINT *, (g2 * g2)
  PRINT *, ((la(7) / (5 + la(12))) + mod(g3, 8))
  IF ((12 / (3 + 12)) .LT. (f1 - 5) .OR. mod(13, 6) .GE. la(8)) v1 = max(-1, v2)
  IF (.NOT. (5 .GT. 15)) g1 = 15
  IF (0 .LE. max(2, v2) .AND. (-4 * f0) .NE. mod(8, 7)) THEN
    g0 = (-1 - (la(2) + la(8)))
    IF (mod(la(2), 5) .LT. (11 * 5) .AND. (la(12) * g2) .NE. mod(la(1), 8)) THEN
      v0 = max(6, 5)
    ENDIF
  ELSE
    f1 = mod(la(1), 5)
  ENDIF
  la(12) = la(11)
  g2 = abs(g3)
  DO v0 = 3, 6
    f1 = 2
  ENDDO
  v2 = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc819(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc822(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 7
  v2 = 2
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (max(f0, -3) + (la(3) + g0))
  PRINT *, la(3)
  la(1) = 2
  DO g2 = 1, 1
    v2 = mod((7 + 0), 3)
  ENDDO
  IF ((13 - 15) .LE. max(v2, 11) .AND. v0 .NE. v2) THEN
    IF (.NOT. (v1 .GT. la(9))) THEN
      v1 = max(g2, v0)
      PRINT *, 12
    ELSE
      PRINT *, 14
      PRINT *, la(9)
    ENDIF
    DO g0 = 0, 0
      f1 = 12
    ENDDO
  ELSE
    la(1) = max(v0, 6)
  ENDIF
  la(7) = la(1)
  v3 = (11 * v3)
  IF (f0 .GT. 0) THEN
    CALL proc823(f0 - 1, v2)
  ENDIF
  CALL proc986(1, v3)
  CALL proc991(1, 4)
END

SUBROUTINE proc823(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 1
  v2 = -3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, f0
  DO v3 = 2, 3
    g2 = mod((-5 - 5), 6)
    g0 = 13
  ENDDO
  PRINT *, ((la(4) / (2 + -1)) + abs(-3))
  g2 = -2
  IF (f0 .GT. 0) THEN
    CALL proc824(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc824(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (g3 + max(f1, la(12)))
  g0 = (abs(g1) - (5 + 6))
  PRINT *, 15
  f1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc825(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc825(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 12
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((-4 / (6 + 9)) + (1 / (2 + g3)))
  IF ((g2 - -3) .GE. max(g2, f0)) v1 = (v0 * la(5))
  IF ((la(8) + v1) .LT. (-4 + -1) .AND. (13 - 9) .EQ. g3) v1 = 13
  PRINT *, -5
  IF ((2 + 9) .GE. (11 + 4)) THEN
    IF (.NOT. (3 .EQ. 14)) f1 = 10
  ENDIF
  IF (la(9) .LT. (15 + la(7)) .AND. 9 .NE. -3) g2 = v1
  g0 = 10
  g1 = 3
  IF (-1 .LE. 13) g0 = max(g1, la(5))
  PRINT *, (g3 - 10)
  IF (f0 .GT. 0) THEN
    CALL proc822(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc826(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 5
  v2 = 11
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = 8
  la(11) = 3
  g1 = la(3)
  IF ((la(1) - v0) .LT. max(g2, f0) .OR. max(la(4), la(6)) .GT. v3) v0 = 12
  v3 = mod(la(4), 8)
  IF (f0 .GT. 0) THEN
    CALL proc827(f0 - 1, 2)
  ENDIF
  CALL proc994(1, (0 + (13 + la(9))))
  CALL proc997(1, v1)
END

SUBROUTINE proc827(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g2 = g3
  PRINT *, abs(la(9))
  g3 = (13 - 1)
  DO f1 = 3, 4
    g1 = max(-5, g0)
    IF (abs(la(6)) .LE. max(-1, g1) .OR. abs(14) .GE. abs(13)) THEN
      g2 = (v1 * 8)
    ENDIF
  ENDDO
  DO f1 = 1, 3
    IF ((la(11) / (5 + 1)) .NE. (9 + 5)) g1 = abs(la(12))
  ENDDO
  g1 = ((15 + la(1)) + (la(10) + 4))
  PRINT *, abs((11 / (5 + g1)))
  g1 = ((la(6) + 14) - (-5 * la(1)))
  IF (abs(10) .GE. f1 .AND. mod(g2, 5) .GT. mod(la(4), 7)) THEN
    f1 = 2
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc828(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc828(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g3 = (la(12) - (-4 - 4))
  IF (f0 .GT. 0) THEN
    CALL proc829(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc829(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = -2
  v0 = (la(2) / (4 + g0))
  g1 = g2
  DO v1 = 2, 6
    IF (.NOT. ((5 / (4 + 9)) .EQ. (f1 + la(5)))) g3 = abs(la(6))
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc830(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc830(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 7
  v2 = 11
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = v0
  v2 = mod(max(la(1), la(9)), 5)
  PRINT *, 3
  v3 = f1
  IF (max(f1, 15) .GT. 7) THEN
    DO v3 = 2, 3
      g2 = la(9)
    ENDDO
    v0 = 8
  ELSE
    DO g1 = 3, 4
      v2 = g0
    ENDDO
  ENDIF
  la(1) = la(9)
  DO g1 = 2, 2
    g2 = g2
    PRINT *, -4
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc831(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc831(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 10
  v2 = 4
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = (la(2) / (2 + -4))
  f1 = la(6)
  v3 = la(10)
  IF (.NOT. (9 .NE. (la(9) - -5))) g3 = (0 / (3 + la(7)))
  v2 = 4
  g2 = v0
  PRINT *, la(6)
  PRINT *, (abs(la(1)) + (la(11) / (3 + la(2))))
  IF (mod(v0, 3) .EQ. (f0 * g0)) v2 = (la(11) + -1)
  PRINT *, max(9, f0)
  IF (f0 .GT. 0) THEN
    CALL proc826(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc832(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = -3
  v2 = 2
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g0 = la(12)
  IF (f0 .GT. 0) THEN
    CALL proc833(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc833(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 14
  IF (f0 .GT. 0) THEN
    CALL proc834(f0 - 1, (0 + mod(14, 2)))
  ENDIF
END

SUBROUTINE proc834(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = (la(6) + (f1 + la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc832(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc835(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 9
  v2 = -1
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = abs(la(8))
  v2 = mod((11 - la(11)), 3)
  f1 = la(10)
  PRINT *, ((8 - v3) * la(10))
  v2 = la(10)
  IF ((la(3) * la(3)) .LE. abs(la(12)) .AND. (g3 * la(10)) .LT. mod(0, 7)) v3 = (11 * la(2))
  IF (f0 .GT. 0) THEN
    CALL proc836(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc836(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 10
  v2 = 1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (-1 .LE. (5 - la(8)) .OR. abs(la(9)) .LE. g2) v3 = abs(11)
  g0 = ((la(10) * 14) - g3)
  g1 = 13
  IF (.NOT. (13 .LT. (v3 - -2))) v2 = v0
  g0 = (abs(-5) / (5 + 2))
  IF (13 .LT. la(2)) THEN
    v1 = 5
  ENDIF
  v0 = mod(-5, 8)
  g2 = ((la(1) * 9) + max(la(9), 10))
  g2 = f1
  IF (f0 .GT. 0) THEN
    CALL proc837(f0 - 1, (0 + (-1 + la(7))))
  ENDIF
END

SUBROUTINE proc837(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 13
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = la(12)
  f1 = abs((10 + 8))
  g2 = la(9)
  IF (.NOT. ((la(1) - la(6)) .EQ. (v1 - la(4)))) THEN
    PRINT *, (max(la(9), la(5)) * la(8))
    IF (f1 .GT. abs(13) .AND. la(7) .GT. (9 / (2 + 4))) g3 = (12 - 13)
  ELSE
    v0 = v2
  ENDIF
  PRINT *, (mod(v0, 7) / (2 + la(12)))
  IF (.NOT. (mod(6, 8) .NE. la(3))) THEN
    g1 = 5
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc838(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc838(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = 4
  v2 = 6
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = -1
  IF (.NOT. (5 .GE. 6)) THEN
    g3 = la(9)
    la(5) = v3
  ENDIF
  g2 = (v3 - abs(la(5)))
  IF ((9 - 0) .LT. abs(g0)) THEN
    g3 = mod(max(f1, 15), 6)
  ELSE
    PRINT *, (9 - (-4 / (6 + 9)))
    g2 = v1
  ENDIF
  DO v2 = 1, 1
    IF (.NOT. (la(10) .GE. v3)) g2 = (la(11) / (3 + v1))
  ENDDO
  v0 = abs(14)
  IF (f0 .GT. 0) THEN
    CALL proc839(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc839(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((v1 + v2) .GE. (la(4) + 8) .AND. (0 - -4) .EQ. mod(5, 4)) v0 = -2
  v2 = (la(5) / (6 + -1))
  IF (max(v0, la(6)) .GE. abs(3) .AND. 10 .EQ. g1) THEN
    PRINT *, 8
    la(11) = (f0 - (v2 * 0))
  ENDIF
  g2 = la(3)
  PRINT *, (la(1) - abs(-5))
  PRINT *, max(la(3), v1)
  IF (f0 .GT. 0) THEN
    CALL proc840(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc840(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((6 - f0) .NE. max(la(5), 0))) THEN
    v1 = mod(max(g3, la(11)), 2)
  ENDIF
  la(7) = g2
  g3 = la(6)
  IF ((la(1) - -4) .LE. (v2 - f1) .AND. f1 .GE. max(la(3), 2)) g2 = (4 + g3)
  IF (abs(13) .GE. (-5 / (2 + v1)) .AND. abs(11) .EQ. la(7)) g1 = mod(g3, 6)
  g2 = 9
  IF ((11 / (4 + 4)) .GE. (la(9) - 10) .AND. abs(f1) .LT. v2) v0 = la(4)
  DO f1 = 1, 4
    DO g2 = 2, 4
      v0 = max(12, 2)
      v1 = v0
    ENDDO
  ENDDO
  g1 = abs(abs(g0))
  IF (f0 .GT. 0) THEN
    CALL proc835(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc841(f0, f1)
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
    v0 = (f0 * v2)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc842(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc842(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 4
  v2 = 5
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((la(3) + v1) .NE. -2) v1 = -2
  f1 = 14
  IF (v2 .NE. la(3) .AND. abs(8) .LT. abs(g3)) v3 = 13
  g0 = max(5, 1)
  IF (f0 .GT. 0) THEN
    CALL proc843(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc843(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 11
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = (mod(la(7), 5) / (4 + 9))
  IF (f0 .GT. 0) THEN
    CALL proc844(f0 - 1, (0 + abs(la(4))))
  ENDIF
END

SUBROUTINE proc844(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 3
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(5) = la(5)
  IF ((f1 + 10) .NE. 12 .OR. g0 .GT. abs(-3)) f1 = abs(v1)
  IF (la(10) .EQ. (v0 - v0) .AND. mod(8, 7) .LE. max(la(8), la(11))) v2 = 10
  IF (f0 .GT. 0) THEN
    CALL proc845(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc845(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (14 .GE. g1 .AND. g3 .NE. (-3 - 8)) THEN
    PRINT *, (max(la(2), g1) - v0)
    v0 = abs(3)
  ENDIF
  PRINT *, mod(13, 7)
  g2 = abs((-4 / (6 + 9)))
  IF (mod(7, 3) .LE. mod(6, 6)) THEN
    IF (.NOT. ((f0 + la(9)) .LT. abs(g2))) THEN
      f1 = abs(f0)
    ENDIF
  ELSE
    la(9) = f0
  ENDIF
  IF ((14 + 10) .NE. g2 .AND. (-4 + 0) .LE. g1) THEN
    v0 = la(8)
    g2 = la(8)
  ELSE
    f1 = 0
  ENDIF
  IF ((7 + f0) .EQ. g2 .OR. g0 .LE. mod(f0, 8)) THEN
    g3 = f1
  ENDIF
  v0 = ((-5 / (3 + -1)) * la(5))
  g2 = la(2)
  la(10) = (-1 / (6 + f0))
  IF (f0 .GT. 0) THEN
    CALL proc846(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc846(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 7
  v2 = -3
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF ((g0 / (3 + la(10))) .LT. (-1 * 13) .OR. la(7) .LE. v0) THEN
    g2 = mod(mod(v1, 3), 5)
  ENDIF
  la(7) = -5
  IF (abs(g3) .LT. abs(g2)) THEN
    v2 = la(5)
    IF (mod(v3, 7) .EQ. g2 .AND. 2 .LE. (7 + la(11))) g0 = (13 / (2 + v1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc841(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc847(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 6
  v2 = 12
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g2 = 1, 2
    g0 = (g0 * 0)
    PRINT *, v2
  ENDDO
  IF (la(9) .LT. (v3 + -1)) g2 = 5
  g1 = -4
  g3 = v3
  v1 = abs(11)
  IF (f0 .GT. 0) THEN
    CALL proc848(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc848(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 13
  v2 = 8
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = la(7)
  DO v1 = 1, 4
    IF ((la(6) / (2 + 7)) .GE. max(5, 5) .OR. la(5) .GE. abs(la(1))) v0 = mod(la(12), 4)
  ENDDO
  DO v1 = 1, 4
    PRINT *, (max(-5, 6) * 4)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc849(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc849(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (g2 .LE. 6) g3 = abs(la(8))
  v0 = max(la(10), 8)
  PRINT *, (mod(15, 7) - -4)
  PRINT *, v1
  g2 = ((f1 / (4 + v0)) / (2 + 10))
  IF (mod(6, 8) .GT. abs(la(6)) .AND. (9 + -4) .LE. abs(5)) v0 = -2
  g2 = mod(la(5), 8)
  g1 = max(v0, 15)
  f1 = (mod(la(10), 6) + g2)
  IF (f0 .GT. 0) THEN
    CALL proc850(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc850(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = 11
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(4) = 1
  PRINT *, abs((14 / (2 + g0)))
  f1 = (f0 * la(9))
  IF ((v2 * la(10)) .NE. abs(g0) .AND. (v2 + 15) .NE. 15) g3 = (g3 - -4)
  PRINT *, la(4)
  v0 = -5
  g3 = max(-3, 3)
  DO g0 = 1, 3
    g2 = 9
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc847(f0 - 1, (0 + (g1 * 3)))
  ENDIF
END

SUBROUTINE proc851(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(10) = g0
  v1 = abs(mod(6, 5))
  g2 = 4
  g3 = (4 - 7)
  v1 = -2
  DO g1 = 1, 5
    g3 = la(2)
    v0 = (15 - mod(la(10), 2))
  ENDDO
  v1 = mod((1 + -4), 2)
  g1 = -5
  PRINT *, max(f1, 13)
  IF (.NOT. (g1 .GE. -3)) g1 = mod(-5, 3)
  IF (f0 .GT. 0) THEN
    CALL proc852(f0 - 1, (0 + (la(5) + la(8))))
  ENDIF
END

SUBROUTINE proc852(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, 15
  IF (f0 .GT. 0) THEN
    CALL proc853(f0 - 1, (0 + (-1 / (3 + 2))))
  ENDIF
END

SUBROUTINE proc853(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = -2
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((7 * la(1)) .GT. max(g2, 14))) THEN
    g1 = 10
    f1 = (mod(g0, 5) * -1)
  ENDIF
  v1 = la(8)
  DO f1 = 2, 2
    v2 = (mod(3, 2) * f1)
  ENDDO
  IF (la(8) .LE. (11 * la(12)) .AND. abs(v0) .LE. g2) THEN
    IF (mod(v1, 2) .NE. abs(v1) .AND. mod(g0, 8) .GE. 13) v0 = abs(14)
    g3 = 14
  ELSE
    la(7) = mod(la(11), 8)
    IF (abs(g3) .EQ. abs(v2) .OR. mod(12, 8) .GT. (-5 - -3)) v1 = la(3)
  ENDIF
  v1 = la(5)
  v0 = (mod(la(7), 3) * la(1))
  DO g0 = 1, 3
    IF (.NOT. (g2 .LT. (8 / (3 + 15)))) f1 = la(11)
    g2 = 12
  ENDDO
  f1 = 6
  v1 = la(7)
  v1 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc854(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc854(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 11
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = (2 * g3)
  IF (f0 .GT. 0) THEN
    CALL proc855(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc855(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -4
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g3 = v2
  IF (-5 .NE. f0 .AND. v1 .GT. 0) g2 = (la(2) - 15)
  IF (f0 .GT. 0) THEN
    CALL proc856(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc856(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 13
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (1 + mod(-1, 4))
  IF (f0 .GT. 0) THEN
    CALL proc851(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc857(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = la(11)
  v0 = la(10)
  DO g3 = 1, 2
    DO v0 = 3, 4
      f1 = abs(la(9))
      g0 = 5
    ENDDO
  ENDDO
  PRINT *, 3
  g2 = 6
  IF (-1 .GT. abs(la(5)) .AND. max(-2, -2) .GE. 9) f1 = abs(-3)
  v1 = (10 + max(f0, 14))
  IF (f0 .GT. 0) THEN
    CALL proc858(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc858(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 5
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 0, 3
    g0 = g3
  ENDDO
  v2 = 1
  PRINT *, ((6 * v2) * la(7))
  v0 = mod(abs(2), 8)
  v0 = (2 - -5)
  v2 = (la(5) + la(6))
  la(2) = ((-3 / (6 + -5)) + f0)
  IF (f0 .GT. 0) THEN
    CALL proc859(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc859(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 11
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(6) = mod(7, 4)
  DO g1 = 2, 5
    g0 = (mod(-2, 3) * 13)
  ENDDO
  IF (.NOT. (v2 .NE. 15)) f1 = (-3 * v2)
  IF (.NOT. (3 .EQ. v1)) v0 = (-2 / (6 + 11))
  IF ((4 - g3) .LE. (13 - g2)) THEN
    PRINT *, 7
    DO v2 = 2, 5
      PRINT *, 10
    ENDDO
  ELSE
    la(9) = -1
    v0 = abs(13)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc860(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc860(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -1
  v2 = 5
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (la(12) .EQ. (la(1) - g3))) THEN
    PRINT *, (g0 / (2 + 9))
  ELSE
    IF (.NOT. ((la(1) - 15) .NE. 13)) v1 = 2
  ENDIF
  v1 = -3
  DO g1 = 3, 3
    IF (la(9) .GT. abs(la(10)) .OR. mod(-5, 6) .LE. mod(la(9), 5)) THEN
      IF (.NOT. (v2 .GT. abs(la(10)))) v2 = la(8)
    ELSE
      la(5) = 8
      g0 = abs(6)
    ENDIF
  ENDDO
  v2 = (max(1, la(3)) * la(5))
  v3 = la(6)
  g2 = max(-2, 14)
  DO v0 = 3, 5
    IF (g2 .GT. g2) THEN
      v3 = -3
      v3 = (mod(3, 8) / (6 + g1))
    ELSE
      g2 = 9
    ENDIF
  ENDDO
  v1 = 5
  IF (g2 .EQ. max(f1, la(1))) f1 = 6
  IF (f0 .GT. 0) THEN
    CALL proc857(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc861(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (max(la(3), v0) + (la(3) - la(10)))
  la(11) = ((12 - -5) / (5 + 2))
  IF (f0 .GT. 0) THEN
    CALL proc862(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc862(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 3
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f1 = 1
  DO v2 = 1, 1
    IF ((f1 / (4 + -3)) .LE. max(15, 10) .AND. la(9) .GT. f0) g3 = max(13, -5)
  ENDDO
  DO g1 = 0, 0
    DO g0 = 3, 6
      v0 = (-1 * g2)
      PRINT *, 12
    ENDDO
    PRINT *, max(-3, -1)
  ENDDO
  la(8) = max(11, 10)
  DO f1 = 1, 5
    v2 = (la(9) * la(10))
  ENDDO
  g2 = abs(max(v2, 11))
  v0 = v0
  IF (f0 .GT. 0) THEN
    CALL proc863(f0 - 1, (0 + la(4)))
  ENDIF
END

SUBROUTINE proc863(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (7 .LE. 4)) THEN
    PRINT *, v0
  ENDIF
  PRINT *, ((f1 * 4) + (f1 / (6 + 6)))
  DO v0 = 1, 5
    g0 = g2
  ENDDO
  g3 = la(3)
  IF (f0 .GT. 0) THEN
    CALL proc864(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc864(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -3
  v2 = 13
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (1 .GE. (4 / (4 + f1))) THEN
    la(11) = la(11)
  ENDIF
  g0 = la(10)
  v1 = g1
  g3 = (la(5) * la(7))
  v1 = (9 + v1)
  v2 = ((3 - -5) + (5 + 8))
  g2 = abs(3)
  IF (f0 .GT. 0) THEN
    CALL proc865(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc865(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 5
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = ((v2 + 3) + v0)
  IF (f0 .GT. 0) THEN
    CALL proc866(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc866(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 13
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(6, la(4)) .NE. g2 .AND. (2 - g1) .EQ. 4) g2 = (-2 - 5)
  DO v2 = 0, 0
    g0 = abs(3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc861(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc867(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = abs(abs(-2))
  la(3) = (abs(3) / (2 + f1))
  v1 = la(12)
  IF (.NOT. ((-2 - -3) .LE. (-2 - la(2)))) v0 = f1
  PRINT *, abs((12 + 15))
  PRINT *, 3
  IF (f0 .GT. 0) THEN
    CALL proc868(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc868(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 8
  v2 = 9
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = (v3 / (4 + 3))
  f1 = max(-1, -4)
  IF (11 .NE. (g3 / (2 + -2)) .OR. (5 / (5 + 3)) .GT. la(8)) THEN
    la(3) = (9 - mod(10, 8))
    v1 = abs((f0 * g3))
  ENDIF
  v2 = ((la(11) / (2 + -4)) - 7)
  IF ((g0 - 12) .NE. abs(6) .AND. max(la(5), 12) .GE. (g3 / (4 + g0))) THEN
    PRINT *, v0
  ENDIF
  IF (.NOT. (g2 .GE. abs(5))) THEN
    PRINT *, max(la(3), v2)
  ELSE
    v1 = abs((v3 + 5))
  ENDIF
  IF (.NOT. ((v0 - la(9)) .GE. 1)) THEN
    v3 = max(0, -5)
  ENDIF
  la(11) = max(-1, 6)
  IF (f0 .GT. 0) THEN
    CALL proc869(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc869(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f1 = v1
  g0 = -5
  IF (f0 .GT. 0) THEN
    CALL proc870(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc870(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 3
  v2 = 6
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, abs(max(la(10), -5))
  IF (f0 .GT. 0) THEN
    CALL proc871(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc871(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 9
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(9) = la(3)
  IF (-5 .NE. max(8, 5)) THEN
    PRINT *, max(3, 6)
    g2 = 9
  ELSE
    PRINT *, (10 / (2 + la(2)))
    la(6) = g0
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc867(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc872(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 3
  v2 = 3
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, la(11)
  g0 = ((-5 / (2 + la(9))) - (f0 / (5 + 7)))
  IF ((la(2) + la(8)) .GE. -5) f1 = la(10)
  IF ((v1 + 0) .LE. -4 .OR. (v2 * la(1)) .LT. la(6)) THEN
    f1 = (abs(13) - 11)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc873(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc873(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 2
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = max(g2, 10)
  DO f1 = 2, 2
    g3 = (max(10, v0) - abs(14))
    IF ((14 * 8) .GT. (v0 / (4 + la(11))) .AND. v0 .LE. la(11)) g3 = la(4)
  ENDDO
  IF (5 .LT. abs(la(7)) .OR. (g1 + 7) .GE. abs(la(12))) g0 = abs(-1)
  g2 = max(v0, 10)
  IF ((la(1) + -2) .GE. 5 .OR. la(10) .NE. (11 / (6 + la(8)))) v0 = 9
  IF ((11 * la(1)) .LE. max(g0, 15) .AND. mod(la(9), 6) .LE. f1) THEN
    g2 = 14
    g3 = (abs(7) - 8)
  ENDIF
  v0 = (abs(g2) / (5 + la(4)))
  IF (f0 .GT. 0) THEN
    CALL proc874(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc874(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 0
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, 13
  g2 = 14
  g0 = (la(1) / (4 + 6))
  IF (8 .GE. abs(-1)) g0 = (la(8) / (3 + 6))
  g0 = f0
  IF (la(6) .GE. 5 .AND. (2 + 9) .GT. 4) THEN
    la(2) = 8
    DO g3 = 1, 5
      la(8) = la(8)
      g2 = (la(4) * 7)
    ENDDO
  ENDIF
  g0 = la(11)
  g0 = mod(9, 8)
  IF (f0 .GT. 0) THEN
    CALL proc872(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc875(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(9) .LE. -1 .OR. g0 .NE. mod(la(7), 2)) THEN
    v0 = max(12, 1)
  ELSE
    DO g0 = 0, 1
      g2 = 4
    ENDDO
    DO g3 = 3, 5
      la(2) = 5
    ENDDO
  ENDIF
  f1 = 1
  g2 = max(4, la(9))
  IF (f0 .GT. 0) THEN
    CALL proc876(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc876(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 6
  v2 = 0
  v3 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(6) = (6 + 15)
  v1 = 14
  v2 = ((-2 * 13) * f1)
  PRINT *, abs((v3 / (6 + la(8))))
  IF (.NOT. (1 .LT. f0)) v2 = v0
  DO v1 = 2, 4
    v2 = ((la(11) * 1) - la(8))
  ENDDO
  DO g2 = 2, 6
    IF ((10 / (6 + 1)) .LE. max(12, la(7)) .OR. (f0 * g3) .LE. mod(v0, 7)) v2 = 12
    g3 = (f1 * v3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc877(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc877(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, ((-5 - f0) / (6 + la(1)))
  PRINT *, abs(mod(-1, 7))
  v0 = la(10)
  DO g0 = 2, 6
    g3 = g2
  ENDDO
  g1 = 7
  f1 = abs((g3 / (5 + g0)))
  v0 = max(g1, 1)
  la(2) = -2
  IF (f0 .GT. 0) THEN
    CALL proc875(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc878(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = g2
  IF (f0 .GT. 0) THEN
    CALL proc879(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc879(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 3
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  f1 = f1
  IF (f0 .GT. 0) THEN
    CALL proc880(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc880(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -1
  v1 = 8
  v2 = 0
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (g2 .LE. 15 .AND. 6 .GE. (9 + v1)) v3 = abs(3)
  DO g2 = 2, 3
    PRINT *, 4
    f1 = g2
  ENDDO
  v1 = ((v0 - -3) + -2)
  IF (-5 .NE. la(1)) v2 = (10 / (4 + 1))
  g1 = -2
  f1 = ((f0 / (3 + la(12))) + 3)
  IF (f0 .GT. 0) THEN
    CALL proc881(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc881(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 3
  v2 = 7
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (la(4) - mod(1, 8))
  g1 = 9
  v3 = (max(2, 3) + (la(5) / (2 + 10)))
  g0 = 6
  f1 = mod((la(8) - 12), 3)
  la(2) = abs(mod(15, 8))
  IF (f0 .GT. 0) THEN
    CALL proc882(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc882(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 10
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(6) = la(8)
  la(7) = g1
  DO v1 = 3, 5
    f1 = 10
    g2 = f1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc878(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc883(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 4
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = la(9)
  g3 = (9 - (5 + g1))
  g1 = (0 / (6 + la(5)))
  g2 = (-3 + f1)
  g0 = 8
  IF (-5 .LT. (f0 / (2 + v0))) THEN
    g3 = ((-3 - 3) / (2 + -4))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc884(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc884(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 1
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = la(3)
  g3 = ((g2 * -1) / (6 + 7))
  la(11) = ((5 / (5 + f0)) / (5 + -2))
  v2 = abs((5 * f0))
  f1 = -2
  v1 = ((la(8) + 15) * 15)
  v0 = abs((1 - v1))
  PRINT *, (la(6) * 8)
  IF (f0 .GT. 0) THEN
    CALL proc885(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc885(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 1
  v2 = -4
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g3 = (max(-1, -5) + (3 - 0))
  IF (f0 .GT. 0) THEN
    CALL proc883(f0 - 1, (0 + 14))
  ENDIF
END

SUBROUTINE proc886(f0, f1)
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
  IF (.NOT. (0 .EQ. 5)) v0 = (la(2) * g3)
  la(3) = (v2 - (-2 + la(2)))
  g3 = (-5 * 13)
  IF (8 .NE. la(1) .OR. mod(11, 6) .NE. mod(13, 3)) g0 = max(4, 13)
  f1 = abs((14 / (4 + la(9))))
  g1 = (11 - la(3))
  IF (f0 .GT. 0) THEN
    CALL proc887(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc887(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, abs(mod(la(9), 5))
  la(3) = abs(10)
  g0 = la(8)
  IF (f0 .GT. 0) THEN
    CALL proc888(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc888(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = -1
  v2 = 13
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = max(5, -2)
  f1 = la(5)
  g0 = v3
  g1 = (max(v0, -3) / (4 + 13))
  g0 = 3
  la(5) = f1
  IF (v0 .GT. mod(la(3), 2)) f1 = 7
  IF (f0 .GT. 0) THEN
    CALL proc889(f0 - 1, 3)
  ENDIF
END

SUBROUTINE proc889(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 14
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  PRINT *, f0
  g1 = ((7 / (6 + -4)) / (4 + la(3)))
  DO g2 = 0, 2
    la(11) = max(12, la(12))
  ENDDO
  g3 = 13
  v1 = ((la(5) * la(2)) + -3)
  IF (la(4) .GT. -1 .AND. (la(5) / (6 + la(2))) .LE. -2) g2 = g3
  IF (f0 .GT. 0) THEN
    CALL proc890(f0 - 1, (0 + f0))
  ENDIF
END

SUBROUTINE proc890(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = (11 - (-1 - 12))
  PRINT *, 6
  g2 = (0 / (3 + 10))
  v0 = max(v1, 11)
  IF (abs(v1) .LE. -5 .AND. 7 .LT. (f1 / (6 + la(12)))) v1 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc886(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc891(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 10
  v2 = 3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(10) = (abs(2) - v0)
  IF (13 .GT. (11 / (3 + g1)) .OR. 14 .NE. 0) THEN
    DO v2 = 1, 3
      f1 = 15
    ENDDO
  ENDIF
  v1 = ((-4 * la(7)) + 4)
  IF (mod(-1, 5) .EQ. f1 .AND. la(6) .LT. f0) v3 = abs(5)
  v0 = (g2 / (4 + la(7)))
  PRINT *, 12
  IF ((5 - 8) .NE. (g2 * g3) .OR. 13 .LE. (v3 * 11)) THEN
    IF (v0 .LE. (la(1) - la(3)) .AND. -5 .GE. (la(11) - la(8))) g0 = (9 - la(4))
  ELSE
    g0 = -3
    g2 = g0
  ENDIF
  g0 = 3
  DO g3 = 2, 2
    DO g0 = 1, 3
      la(3) = 6
      v2 = (abs(v0) + 11)
    ENDDO
    IF (7 .LT. mod(0, 6) .OR. 3 .LE. (15 * v2)) g2 = (14 + 8)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc892(f0 - 1, (0 + (8 - 1)))
  ENDIF
END

SUBROUTINE proc892(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 12
  v2 = 12
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (.NOT. ((v2 * g0) .LT. g0)) v3 = -1
  g3 = mod(abs(g0), 2)
  IF (f0 .GT. 0) THEN
    CALL proc893(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc893(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = -2
  IF (la(9) .GE. max(f1, 9) .AND. la(1) .EQ. (6 - la(7))) g1 = 7
  IF (v0 .NE. 13 .OR. (9 * 10) .EQ. -1) g0 = mod(v0, 7)
  IF (11 .NE. 7) g0 = la(8)
  f1 = mod((v1 - 10), 2)
  g2 = la(12)
  PRINT *, abs(la(7))
  IF (f0 .GT. 0) THEN
    CALL proc894(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc894(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 8
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (la(12) .LT. 14 .AND. 15 .LE. (3 + g3)) v0 = max(la(12), 7)
  DO g3 = 3, 7
    f1 = 7
  ENDDO
  g1 = -1
  v0 = (13 / (5 + la(6)))
  la(10) = max(la(9), g3)
  v1 = abs(mod(g0, 5))
  v1 = g1
  IF (f0 .GT. 0) THEN
    CALL proc895(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc895(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(1) = la(8)
  v0 = (max(la(1), 10) - 12)
  IF (.NOT. (v0 .GT. max(11, la(4)))) THEN
    la(9) = max(4, 9)
  ENDIF
  IF (.NOT. ((la(11) - la(9)) .LE. mod(g2, 2))) THEN
    IF (max(la(12), g0) .GT. (11 + g2) .OR. abs(12) .GT. f1) v0 = (la(3) / (5 + la(4)))
  ELSE
    f1 = (7 - v1)
    IF (.NOT. (abs(v0) .EQ. 3)) THEN
      PRINT *, (-4 / (6 + g2))
      g3 = (max(15, 0) / (5 + la(3)))
    ELSE
      g2 = -2
    ENDIF
  ENDIF
  g3 = (mod(g1, 3) * f0)
  PRINT *, mod((-1 - 7), 8)
  IF (.NOT. (f0 .GE. la(10))) THEN
    g0 = abs(-4)
    la(5) = mod((-1 * la(8)), 5)
  ELSE
    la(6) = (v1 / (6 + v0))
    g1 = (la(5) * 2)
  ENDIF
  PRINT *, max(la(3), -3)
  v0 = 14
  IF (f0 .GT. 0) THEN
    CALL proc891(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc896(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, 1
  f1 = 12
  IF (.NOT. ((13 * -2) .GE. (1 / (2 + la(5))))) THEN
    IF ((9 + 4) .EQ. la(11) .AND. 13 .NE. 9) v0 = abs(6)
  ENDIF
  f1 = 1
  g1 = max(f1, la(5))
  IF (f0 .GT. 0) THEN
    CALL proc897(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc897(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = -5
  IF (v1 .NE. abs(5)) g0 = 15
  v0 = 4
  DO v1 = 2, 2
    v0 = g0
    la(1) = -5
  ENDDO
  v0 = max(-2, g0)
  la(2) = mod(-2, 6)
  g3 = (max(g0, la(11)) * g3)
  g2 = 6
  IF (f0 .GT. 0) THEN
    CALL proc898(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc898(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(13, 10)
  g3 = f1
  PRINT *, 6
  PRINT *, la(7)
  v1 = 6
  la(2) = (6 + mod(la(1), 5))
  DO v0 = 0, 3
    f1 = (abs(la(6)) - (13 * f1))
    v1 = abs(6)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc899(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc899(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -1
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g1 = (13 / (5 + -3))
  g1 = v0
  IF (4 .GT. (la(10) * -4)) THEN
    PRINT *, 9
  ELSE
    v1 = v0
  ENDIF
  g1 = max(g3, 13)
  DO v1 = 0, 2
    v2 = ((v2 / (4 + 7)) * la(2))
  ENDDO
  la(3) = g1
  la(3) = ((2 / (6 + -1)) * -3)
  DO v0 = 0, 4
    g0 = (g1 * la(12))
  ENDDO
  la(1) = v0
  IF (f0 .GT. 0) THEN
    CALL proc896(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc900(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 9
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g3 = abs(13)
  g0 = (mod(9, 3) / (4 + g3))
  v0 = ((la(3) - 2) - -1)
  IF (.NOT. (0 .LT. (14 + f0))) THEN
    PRINT *, 10
  ELSE
    la(4) = abs(abs(13))
  ENDIF
  PRINT *, ((2 * 6) - 15)
  IF (f0 .GT. 0) THEN
    CALL proc901(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc901(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 12
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = (mod(g1, 4) * 5)
  v2 = (la(4) / (4 + 10))
  v1 = la(10)
  IF ((2 / (4 + 3)) .GE. 3 .AND. 5 .GT. 6) THEN
    DO g3 = 3, 7
      v0 = la(12)
    ENDDO
    DO g3 = 1, 1
      v1 = max(la(9), 10)
      v0 = abs(abs(v0))
    ENDDO
  ELSE
    v1 = 13
    v0 = (1 + (15 - 5))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc902(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc902(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 1
  v2 = 12
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = la(8)
  DO g3 = 3, 3
    DO v0 = 1, 3
      PRINT *, ((la(4) - la(7)) * g2)
      g0 = mod((v1 / (5 + g2)), 5)
    ENDDO
    g1 = g1
  ENDDO
  g3 = 9
  IF (f0 .GT. 0) THEN
    CALL proc903(f0 - 1, (0 + (12 - 10)))
  ENDIF
END

SUBROUTINE proc903(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 8
  v2 = 10
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, (mod(la(11), 4) + (8 + f1))
  PRINT *, abs((g2 - 0))
  IF (4 .EQ. la(9) .AND. max(0, la(4)) .LT. v0) v3 = (14 + -3)
  PRINT *, ((3 - 4) + max(v0, f0))
  DO v1 = 1, 1
    IF (la(1) .LT. (9 - la(5)) .OR. abs(la(12)) .LT. (8 * f1)) g2 = (la(3) - v0)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc904(f0 - 1, (0 + (g0 - la(4))))
  ENDIF
END

SUBROUTINE proc904(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 9
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (g0 / (5 + la(4)))
  DO g0 = 3, 4
    g3 = (la(8) * la(2))
  ENDDO
  g1 = (6 + 4)
  IF (f0 .GT. 0) THEN
    CALL proc905(f0 - 1, (0 + 9))
  ENDIF
END

SUBROUTINE proc905(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -1
  v2 = 5
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v2 = (abs(1) - max(f0, -4))
  DO g2 = 2, 2
    v2 = g0
    g0 = ((g2 - 15) - v3)
  ENDDO
  IF (abs(2) .LE. la(11) .AND. la(4) .GT. (f0 / (2 + la(12)))) THEN
    la(2) = 10
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc900(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc906(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = la(9)
  v0 = -3
  g1 = g1
  g1 = abs(14)
  g3 = (9 * la(1))
  IF (.NOT. ((g1 / (5 + la(8))) .GT. (0 / (5 + 14)))) THEN
    v0 = max(v1, f1)
    IF ((la(11) - 3) .NE. (la(3) / (2 + -2)) .AND. g2 .GE. (la(7) * v1)) g1 = (-1 + 12)
  ENDIF
  IF (mod(la(2), 4) .GE. abs(v1)) v1 = (1 - 11)
  DO g0 = 3, 4
    f1 = 0
    g1 = (la(8) / (4 + la(12)))
  ENDDO
  v0 = ((v0 * la(3)) - (v0 / (4 + 7)))
  IF (f0 .GT. 0) THEN
    CALL proc907(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc907(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (la(6) .EQ. -1 .AND. -3 .LE. abs(5)) g1 = (0 + v0)
  g0 = (g1 / (5 + 0))
  g0 = max(3, la(6))
  f1 = 12
  DO v1 = 0, 4
    g3 = mod(mod(0, 8), 5)
    g1 = g2
  ENDDO
  IF (abs(la(6)) .LT. (la(2) - 2)) g1 = 5
  la(11) = -3
  DO g1 = 0, 2
    IF (.NOT. (3 .NE. (la(5) / (2 + g1)))) g3 = 10
  ENDDO
  DO g3 = 2, 6
    IF ((f1 + 9) .LE. mod(la(5), 5)) f1 = 7
    IF ((v1 - 10) .NE. la(11)) g2 = g3
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc908(f0 - 1, (0 + abs(v1)))
  ENDIF
END

SUBROUTINE proc908(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 5
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(12) = ((15 * 14) / (3 + 7))
  v0 = la(10)
  IF (mod(-5, 4) .LE. (la(10) + -1)) g3 = (la(11) - la(2))
  g2 = (v2 * 0)
  IF (mod(5, 3) .LT. 14 .OR. abs(v0) .LE. la(1)) THEN
    g2 = mod((-2 + 5), 2)
  ELSE
    DO f1 = 3, 5
      g3 = (11 + 14)
    ENDDO
    g2 = max(v0, la(11))
  ENDIF
  la(6) = (8 / (5 + la(11)))
  IF (f0 .GT. 0) THEN
    CALL proc909(f0 - 1, 0)
  ENDIF
END

SUBROUTINE proc909(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 6
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = 2
  la(4) = la(12)
  PRINT *, -2
  IF (g0 .GT. (8 * 0) .OR. (11 + 0) .GE. (v2 - v0)) v1 = max(la(10), la(2))
  DO g3 = 3, 6
    IF ((1 + la(4)) .GT. (2 * g0)) g0 = 10
    PRINT *, max(v2, 12)
  ENDDO
  IF (f1 .NE. (12 - 11) .OR. (g3 + 13) .NE. abs(2)) g3 = (la(11) - la(3))
  DO v1 = 0, 3
    la(2) = mod(14, 8)
    g2 = 7
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc910(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc910(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, g2
  g2 = la(9)
  IF (f0 .GT. 0) THEN
    CALL proc911(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc911(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, max(3, g1)
  DO g1 = 0, 2
    g2 = 10
  ENDDO
  g2 = 0
  g1 = -3
  IF ((11 + -4) .LT. v0 .OR. abs(la(1)) .NE. la(3)) THEN
    g3 = v0
    v0 = max(la(11), 0)
  ELSE
    v0 = (max(la(2), la(8)) + 12)
  ENDIF
  DO g1 = 0, 3
    PRINT *, max(5, 11)
  ENDDO
  la(11) = (5 - v1)
  IF (f0 .GT. 0) THEN
    CALL proc906(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc912(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO v0 = 1, 5
    g0 = 7
    v1 = (g0 / (4 + 15))
  ENDDO
  la(12) = (14 * 14)
  g3 = 10
  IF (f0 .GT. 0) THEN
    CALL proc913(f0 - 1, (0 + (v1 - la(12))))
  ENDIF
END

SUBROUTINE proc913(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 2
  v2 = 1
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = g1
  IF (.NOT. (g0 .GE. 8)) THEN
    la(11) = abs(max(la(4), v3))
    DO g0 = 1, 4
      PRINT *, (5 / (2 + la(6)))
    ENDDO
  ELSE
    DO v1 = 0, 2
      g1 = 12
      v2 = 6
    ENDDO
  ENDIF
  la(4) = max(la(7), -2)
  DO v0 = 0, 1
    la(9) = v0
  ENDDO
  g0 = 2
  g3 = la(8)
  DO g3 = 0, 0
    la(8) = la(4)
  ENDDO
  g2 = la(4)
  PRINT *, (la(3) + max(g3, la(9)))
  IF (f0 .GT. 0) THEN
    CALL proc914(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc914(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(12) = g1
  f1 = 10
  g2 = -5
  v0 = max(5, -1)
  v0 = abs((la(3) / (5 + v1)))
  IF (f0 .GT. 0) THEN
    CALL proc912(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc915(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = -1
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g1 = (10 + (5 - 12))
  g3 = max(4, 10)
  IF (f0 .GT. 0) THEN
    CALL proc916(f0 - 1, (0 + -4))
  ENDIF
END

SUBROUTINE proc916(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO g1 = 1, 2
    la(2) = 13
  ENDDO
  IF (.NOT. (max(v0, 9) .NE. g2)) THEN
    IF (.NOT. ((g3 + 12) .GT. la(8))) f1 = (4 / (5 + 6))
    v1 = (5 * 0)
  ENDIF
  PRINT *, la(5)
  IF (.NOT. ((la(12) - v1) .LE. (f0 / (6 + g1)))) g0 = (-1 / (5 + la(9)))
  v0 = abs(la(3))
  IF (1 .GT. 4 .AND. (0 + -3) .LT. (-1 * la(5))) THEN
    v1 = mod(-5, 4)
  ELSE
    DO g2 = 3, 7
      g3 = 13
    ENDDO
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc917(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc917(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((4 + -4) .GT. abs(-4) .AND. (la(11) - 0) .GT. -5) THEN
    PRINT *, la(3)
    g3 = la(12)
  ENDIF
  g2 = 13
  DO g3 = 3, 3
    PRINT *, ((8 / (5 + g3)) + 4)
    PRINT *, max(6, la(4))
  ENDDO
  f1 = 5
  g0 = mod(3, 8)
  v0 = -1
  PRINT *, mod(la(6), 2)
  f1 = (la(9) * 5)
  IF (f0 .GT. 0) THEN
    CALL proc915(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc918(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 1
  v2 = 8
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  v1 = 14
  g1 = la(9)
  f1 = ((la(7) - g0) - 7)
  IF (f0 .GT. 0) THEN
    CALL proc919(f0 - 1, (0 + -3))
  ENDIF
END

SUBROUTINE proc919(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = abs(13)
  la(9) = max(2, g1)
  PRINT *, 5
  IF (1 .LT. 14) v2 = max(2, -4)
  f1 = max(f0, 15)
  f1 = (mod(la(3), 6) + abs(1))
  IF (f0 .GT. 0) THEN
    CALL proc920(f0 - 1, (0 + (la(8) * la(7))))
  ENDIF
END

SUBROUTINE proc920(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(5) = abs(abs(2))
  g3 = -4
  g3 = mod((9 - g1), 8)
  PRINT *, (mod(8, 3) / (5 + la(5)))
  la(6) = (max(-4, -5) * la(11))
  v1 = mod((0 * g1), 6)
  IF (f0 .GT. 0) THEN
    CALL proc921(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc921(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 7
  v1 = 1
  v2 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = mod(-4, 3)
  DO v1 = 0, 3
    PRINT *, -1
    g0 = abs(g2)
  ENDDO
  v2 = g1
  g3 = mod(abs(g2), 5)
  g0 = 10
  g3 = (v1 * 6)
  IF (f0 .GT. 0) THEN
    CALL proc918(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc922(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 9
  v2 = 10
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((g2 - v1) .LE. max(la(7), la(3)) .OR. mod(f1, 6) .GT. 0) THEN
    IF (13 .NE. (la(1) / (6 + -3)) .AND. 4 .EQ. mod(v2, 4)) THEN
      PRINT *, la(1)
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc923(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc923(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 14
  v2 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  la(9) = (g3 + (la(9) / (5 + la(10))))
  g3 = ((13 - 9) - mod(13, 3))
  v2 = 13
  PRINT *, la(12)
  IF ((5 - -1) .LE. 11 .AND. (-5 / (2 + la(4))) .NE. -5) THEN
    g0 = ((f1 / (2 + f1)) - 9)
  ELSE
    la(5) = 6
    v0 = la(11)
  ENDIF
  g0 = ((g0 - 6) - (la(4) - -5))
  IF (max(la(7), -1) .GT. max(12, -4) .OR. (12 - g1) .EQ. (la(11) - 15)) g0 = g2
  v1 = (v0 - (5 / (2 + 10)))
  IF (f0 .GT. 0) THEN
    CALL proc924(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc924(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, (la(4) - la(11))
  DO g2 = 1, 2
    IF ((4 * -4) .GT. (g0 + -1) .AND. (f0 / (3 + -3)) .EQ. (v0 + 14)) g3 = 11
  ENDDO
  v1 = -1
  IF (f0 .GT. 0) THEN
    CALL proc922(f0 - 1, (0 + la(8)))
  ENDIF
END

SUBROUTINE proc925(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (la(12) .GE. abs(-2))) THEN
    g2 = 6
    IF ((v0 / (2 + 4)) .NE. max(g0, 4) .AND. (2 / (6 + la(7))) .NE. 15) THEN
      g2 = g0
    ELSE
      IF (f0 .GT. mod(-2, 3)) g2 = f1
      g0 = -2
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc926(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc926(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 9
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(12) = mod(9, 2)
  g0 = (max(5, -3) * la(3))
  la(5) = max(la(4), 13)
  f1 = (la(8) + mod(v2, 5))
  DO g1 = 2, 3
    f1 = -1
    la(12) = 8
  ENDDO
  IF ((la(9) + v1) .GE. 10) THEN
    IF (g2 .NE. v2 .AND. mod(g0, 8) .LE. la(11)) v2 = mod(la(10), 3)
    IF (max(la(7), v1) .LE. mod(la(1), 2) .AND. la(2) .GT. (14 * la(2))) THEN
      IF (.NOT. (3 .LT. mod(la(1), 8))) v0 = abs(6)
      la(11) = g0
    ENDIF
  ENDIF
  g3 = la(4)
  la(8) = 4
  IF (.NOT. ((g0 * g1) .GT. abs(la(6)))) v2 = v0
  g3 = 1
  IF (f0 .GT. 0) THEN
    CALL proc927(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc927(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = f0
  la(4) = (max(la(2), la(3)) + max(g0, v0))
  la(1) = 5
  IF (f0 .GT. 0) THEN
    CALL proc928(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc928(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g2 = abs((v1 * -2))
  g3 = 15
  IF (f0 .GT. 0) THEN
    CALL proc925(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc929(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (mod(10, 7) .GE. la(1) .OR. g3 .GT. la(6)) THEN
    IF (.NOT. ((11 - -5) .NE. 9)) g0 = abs(-1)
    g1 = 6
  ELSE
    g1 = max(v0, 0)
    IF ((la(7) + 2) .NE. (13 / (2 + la(12))) .AND. v0 .NE. (9 + 9)) g1 = 12
  ENDIF
  la(1) = mod(-3, 7)
  IF (f0 .GT. 0) THEN
    CALL proc930(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc930(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 3
  v2 = 5
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = ((la(5) - v2) * 8)
  PRINT *, (abs(7) / (4 + 1))
  v0 = v2
  DO g0 = 2, 5
    v0 = (max(la(7), 11) * g0)
  ENDDO
  f1 = g2
  g3 = (max(la(9), la(8)) - g0)
  IF (f0 .GT. 0) THEN
    CALL proc931(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc931(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 7
  v2 = 13
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g3 = 9
  IF (f0 .GT. 0) THEN
    CALL proc932(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc932(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 9
  v1 = -2
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = (mod(-3, 4) + v0)
  la(5) = max(5, la(8))
  la(9) = (15 / (6 + -3))
  v0 = -1
  g2 = (v2 - la(8))
  IF (f0 .GT. 0) THEN
    CALL proc933(f0 - 1, (0 + 15))
  ENDIF
END

SUBROUTINE proc933(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 2
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = max(10, 2)
  PRINT *, abs(abs(g2))
  IF (la(11) .LT. f1) g2 = abs(2)
  v1 = ((v2 + 8) / (3 + 2))
  DO v0 = 1, 2
    DO v1 = 2, 4
      g0 = la(7)
      g0 = abs(7)
    ENDDO
    PRINT *, la(2)
  ENDDO
  IF (.NOT. (v2 .GT. g1)) THEN
    la(5) = la(11)
    PRINT *, max(-3, f1)
  ELSE
    la(7) = v0
  ENDIF
  g3 = f1
  g2 = 4
  g3 = abs(1)
  v0 = 9
  IF (f0 .GT. 0) THEN
    CALL proc934(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc934(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 11
  v2 = -1
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, abs(8)
  v1 = max(v0, g0)
  IF (f0 .GT. 0) THEN
    CALL proc929(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc935(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  la(10) = la(5)
  v0 = la(11)
  PRINT *, la(7)
  IF (f0 .GT. 0) THEN
    CALL proc936(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc936(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, la(7)
  DO g1 = 3, 7
    v1 = (-2 / (4 + -5))
    la(3) = abs(12)
  ENDDO
  DO v1 = 0, 0
    la(11) = ((4 * 6) * la(11))
    la(8) = g2
  ENDDO
  IF ((la(4) * 15) .LT. mod(-3, 7) .OR. (-5 * la(10)) .GT. -5) f1 = (4 + 11)
  DO g3 = 1, 1
    v2 = ((2 / (4 + la(3))) - max(-4, la(11)))
  ENDDO
  g3 = -2
  la(7) = 7
  g2 = (2 + (11 + la(12)))
  IF (f0 .GT. 0) THEN
    CALL proc937(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc937(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 6
  v2 = -4
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (10 .NE. mod(-4, 4) .OR. 3 .LE. mod(-5, 6)) v0 = (la(6) + f1)
  IF (f0 .GT. 0) THEN
    CALL proc938(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc938(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO v0 = 1, 5
    DO g3 = 0, 1
      f1 = ((la(10) - la(8)) / (2 + la(9)))
      v1 = -1
    ENDDO
    PRINT *, (14 / (4 + la(8)))
  ENDDO
  g3 = (abs(1) - (g0 / (5 + 2)))
  IF (abs(12) .LT. (f0 - 6)) THEN
    v0 = (13 - f1)
  ELSE
    IF (.NOT. (max(15, la(7)) .LE. mod(13, 8))) g0 = abs(g2)
  ENDIF
  IF (2 .LE. 5 .AND. la(12) .EQ. v1) THEN
    g3 = abs(la(8))
    IF (.NOT. (0 .GE. g0)) v1 = v0
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc939(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc939(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 10
  v2 = 8
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v2 = 0, 1
    v0 = -1
  ENDDO
  la(8) = g0
  g3 = (2 / (2 + la(5)))
  v0 = -5
  g3 = (la(10) - 7)
  f1 = 9
  g1 = la(1)
  PRINT *, mod((v1 - g0), 4)
  IF (f0 .GT. 0) THEN
    CALL proc940(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc940(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 4
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  g0 = ((la(10) / (5 + -4)) - mod(15, 2))
  g3 = g1
  v0 = mod(10, 3)
  IF (f0 .GT. 0) THEN
    CALL proc935(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc941(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 5
  v2 = 11
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  g2 = (f1 - 6)
  DO g0 = 0, 3
    DO g1 = 2, 6
      v1 = mod((6 / (6 + la(8))), 2)
    ENDDO
    PRINT *, g0
  ENDDO
  IF ((-4 + la(7)) .LT. (3 / (5 + -4)) .AND. la(9) .LE. 5) g3 = 6
  IF (f0 .GT. 0) THEN
    CALL proc942(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc942(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (la(3) .EQ. max(7, g3) .AND. (g1 * -3) .LE. mod(f0, 8)) THEN
    IF (la(3) .LE. max(v0, 4)) THEN
      g2 = v1
    ENDIF
    v0 = (la(6) / (2 + la(8)))
  ELSE
    v1 = max(g1, la(9))
    v1 = v1
  ENDIF
  la(3) = v1
  DO g1 = 0, 1
    v0 = (10 + -4)
  ENDDO
  v0 = mod(v1, 3)
  g2 = 6
  IF (max(9, g3) .GE. max(-4, la(7)) .OR. f0 .NE. max(la(7), g2)) THEN
    PRINT *, (f0 - max(la(12), v1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc943(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc943(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 5
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, (-1 * 14)
  DO g2 = 1, 3
    PRINT *, 5
    PRINT *, la(3)
  ENDDO
  DO g2 = 2, 6
    DO v1 = 3, 5
      g0 = (mod(-1, 6) - v2)
    ENDDO
  ENDDO
  g0 = ((v2 * -5) - (la(1) / (2 + -1)))
  v2 = la(6)
  la(1) = la(9)
  IF (15 .NE. (la(2) - 1) .AND. (la(4) * 12) .LE. abs(la(9))) g2 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc944(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc944(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 8
  v2 = 6
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (g2 .NE. 9 .AND. abs(8) .LE. max(la(1), 6)) THEN
    la(9) = (g1 / (4 + 8))
  ENDIF
  g3 = 2
  la(6) = abs(g1)
  v3 = 8
  IF (f0 .GT. 0) THEN
    CALL proc945(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc945(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = 5
  v2 = 10
  v3 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((15 / (6 + la(10))) .GT. (f0 / (2 + 1)))) THEN
    IF (.NOT. (14 .GT. 14)) THEN
      g3 = mod(2, 8)
      IF ((la(11) * la(10)) .EQ. (5 / (5 + v2)) .AND. 6 .EQ. 12) v0 = la(12)
    ELSE
      la(12) = la(6)
    ENDIF
    DO g3 = 2, 2
      la(10) = mod((g0 * g1), 6)
      g2 = la(10)
    ENDDO
  ENDIF
  PRINT *, 2
  g1 = la(10)
  f1 = 0
  PRINT *, (v2 * la(5))
  g0 = mod(mod(1, 3), 6)
  IF (la(6) .EQ. (f0 * -5) .OR. (4 / (4 + 2)) .EQ. la(10)) v3 = (15 * -2)
  IF (f0 .GT. 0) THEN
    CALL proc941(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc946(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 7
  v2 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = mod((v2 + -5), 8)
  v0 = la(1)
  DO v2 = 1, 5
    g1 = abs(la(9))
  ENDDO
  g2 = (14 * la(3))
  v0 = g3
  f1 = 9
  IF (.NOT. (15 .LE. la(6))) THEN
    g2 = 3
    IF ((la(4) - 2) .EQ. -4) g1 = (0 - g0)
  ENDIF
  g3 = (la(3) - g0)
  v1 = (v0 - la(11))
  IF (.NOT. (12 .LT. (la(3) - 5))) THEN
    v1 = (max(la(3), g2) - max(g0, -5))
  ELSE
    g1 = max(v0, 5)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc947(f0 - 1, (0 + la(6)))
  ENDIF
END

SUBROUTINE proc947(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 3
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF ((3 - 3) .EQ. (la(11) + 3) .AND. (6 - g1) .LE. (10 * -1)) v0 = la(9)
  PRINT *, g3
  v2 = 2
  IF (0 .GT. (4 + v2) .OR. la(4) .EQ. abs(la(11))) g1 = (-5 + 14)
  IF (abs(v1) .LE. g0 .OR. (la(8) + la(2)) .LT. 14) g1 = 1
  IF (f0 .GT. 0) THEN
    CALL proc948(f0 - 1, 10)
  ENDIF
END

SUBROUTINE proc948(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO v0 = 1, 2
    g1 = max(f0, 12)
    g1 = g1
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc949(f0 - 1, (0 + 13))
  ENDIF
END

SUBROUTINE proc949(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g0 = (max(g1, 12) * v1)
  IF (v0 .LE. v0) g0 = (f1 - g3)
  g3 = g0
  v0 = (mod(10, 7) / (2 + 7))
  f1 = g1
  PRINT *, mod(g0, 6)
  IF (la(8) .NE. g1 .OR. la(7) .EQ. abs(v1)) THEN
    g3 = max(g1, g1)
    IF (mod(g2, 2) .GT. 4 .OR. mod(la(4), 3) .EQ. -1) v1 = g3
  ELSE
    PRINT *, g3
  ENDIF
  IF (abs(la(9)) .NE. g1) v0 = (la(6) - f0)
  f1 = mod(max(5, -5), 3)
  IF (f0 .GT. 0) THEN
    CALL proc946(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc950(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 2
  v2 = 12
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (-2 .GE. (4 / (6 + 1)))) THEN
    DO f1 = 2, 2
      la(12) = la(4)
    ENDDO
    la(8) = mod(mod(g1, 6), 2)
  ELSE
    DO f1 = 2, 4
      g3 = -5
    ENDDO
  ENDIF
  PRINT *, ((12 + 13) - la(7))
  v2 = max(v2, 9)
  IF (-4 .LT. (15 / (2 + 13)) .OR. max(g0, 13) .LE. (13 * 10)) v1 = max(v3, g1)
  IF (mod(la(3), 8) .LE. -1) g1 = g2
  IF (la(6) .GT. la(8) .AND. 4 .LT. (la(3) + la(8))) f1 = abs(la(4))
  v3 = ((4 + 15) + 7)
  IF (la(7) .GT. abs(la(7)) .OR. 13 .NE. (v1 / (2 + f0))) g3 = (2 - la(12))
  IF (f0 .GT. 0) THEN
    CALL proc951(f0 - 1, 7)
  ENDIF
END

SUBROUTINE proc951(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 11
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(3) = f0
  PRINT *, la(10)
  g1 = ((3 + g0) - 7)
  la(8) = la(10)
  DO v2 = 3, 3
    g3 = 8
  ENDDO
  v2 = v1
  PRINT *, 8
  la(5) = ((g3 * g3) + la(9))
  IF ((4 - f0) .EQ. (v0 - f0)) THEN
    IF (.NOT. (la(7) .GT. max(13, la(10)))) THEN
      g0 = -4
    ELSE
      IF (abs(11) .LE. g2 .AND. 2 .EQ. max(la(6), la(7))) g1 = la(2)
    ENDIF
  ELSE
    PRINT *, abs(mod(1, 2))
    v0 = ((13 + 5) / (3 + 1))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc952(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc952(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 8
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v2 = v2
  g2 = v2
  g2 = 4
  IF (f0 .GT. 0) THEN
    CALL proc953(f0 - 1, (0 + la(3)))
  ENDIF
END

SUBROUTINE proc953(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 6
  v2 = 1
  v3 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO v0 = 1, 5
    IF (v0 .EQ. la(5) .OR. max(1, 9) .NE. (la(11) + -5)) v2 = (la(4) / (2 + v2))
    DO v2 = 0, 3
      PRINT *, ((2 + 15) + max(v2, -5))
      v1 = 15
    ENDDO
  ENDDO
  v1 = -1
  la(11) = (g3 + -5)
  PRINT *, 10
  IF (f0 .GT. 0) THEN
    CALL proc954(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc954(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = 0
  IF (f0 .GT. 0) THEN
    CALL proc955(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc955(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v1 = 2, 6
    g0 = (la(10) + la(5))
    IF ((-4 - la(2)) .GE. 1) THEN
      g0 = la(9)
      g2 = (max(la(2), v0) * la(11))
    ELSE
      g3 = v1
      v0 = 11
    ENDIF
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc950(f0 - 1, (0 + g2))
  ENDIF
END

SUBROUTINE proc956(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = -1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(3) = (la(10) / (3 + la(4)))
  v1 = (v2 / (3 + 7))
  IF ((-3 + la(12)) .GE. (la(12) * la(5)) .AND. 8 .NE. abs(v2)) THEN
    v0 = ((g3 * g1) * la(6))
    IF (v0 .LT. mod(la(12), 6) .AND. (v2 * la(4)) .GT. la(9)) THEN
      g1 = abs(g2)
      la(7) = -4
    ELSE
      g0 = ((9 + -2) * g1)
      g2 = (2 + 13)
    ENDIF
  ENDIF
  DO g1 = 3, 6
    IF (la(3) .LT. g3 .AND. 9 .NE. max(-3, 10)) g2 = (la(8) + la(11))
    v0 = la(3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc957(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc957(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = 2
  v2 = -3
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = mod(abs(f1), 5)
  g0 = 1
  g2 = v1
  v2 = (-1 * 15)
  IF (max(9, 12) .LT. la(11)) THEN
    v3 = la(11)
    v3 = max(-2, g2)
  ENDIF
  IF (la(4) .LE. 9 .OR. (-3 * la(11)) .NE. la(1)) v2 = (f0 + la(7))
  IF ((g1 / (2 + f1)) .LT. g1 .OR. abs(la(5)) .NE. abs(g2)) THEN
    IF (9 .LT. (la(10) / (5 + 14)) .OR. abs(15) .EQ. mod(-3, 5)) THEN
      g1 = mod(-1, 2)
      PRINT *, la(11)
    ENDIF
  ELSE
    v0 = g2
    IF (2 .LE. abs(la(5)) .AND. 0 .LT. (f0 * la(4))) THEN
      IF ((v1 + 8) .GE. la(11) .OR. la(5) .LE. -2) g3 = f0
      la(2) = abs((v3 / (6 + la(1))))
    ELSE
      la(2) = (la(8) * la(4))
    ENDIF
  ENDIF
  IF (abs(v2) .EQ. max(8, 8) .AND. (10 + -3) .GE. la(8)) THEN
    f1 = mod(-4, 7)
    DO g3 = 0, 0
      IF (-4 .NE. 9 .OR. (6 * 8) .LT. 2) v1 = abs(-5)
      v3 = v1
    ENDDO
  ELSE
    IF (la(10) .GE. (la(7) - la(8))) THEN
      IF (.NOT. (-2 .NE. la(7))) g1 = 6
      g3 = max(v3, 14)
    ELSE
      g1 = -3
      g3 = 9
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc958(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc958(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 13
  v1 = -2
  v2 = 12
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (.NOT. (la(1) .EQ. (-1 - 11))) THEN
    DO v2 = 3, 7
      v1 = 1
    ENDDO
  ENDIF
  v0 = max(g1, la(3))
  PRINT *, v2
  IF (max(la(2), g0) .NE. abs(la(11))) THEN
    la(4) = v3
  ENDIF
  f1 = 2
  IF (f0 .GT. 0) THEN
    CALL proc959(f0 - 1, 9)
  ENDIF
END

SUBROUTINE proc959(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 2
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g2 = mod(la(3), 6)
  v0 = max(6, 4)
  IF (6 .LT. la(12) .AND. (la(5) - la(1)) .GE. max(la(6), v0)) THEN
    g1 = la(12)
  ENDIF
  DO g3 = 1, 2
    g2 = abs(mod(v0, 2))
    g0 = la(10)
  ENDDO
  g3 = ((9 / (2 + la(6))) * v0)
  v0 = (mod(4, 4) + g1)
  IF (.NOT. (15 .LE. 15)) g3 = (f1 - g0)
  v2 = max(9, v2)
  f1 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc956(f0 - 1, (0 + (la(11) - 5)))
  ENDIF
END

SUBROUTINE proc960(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 3
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (-5 * 6)
  la(12) = ((la(9) / (6 + la(5))) / (3 + 7))
  g1 = (la(10) - la(6))
  DO g0 = 1, 1
    IF ((f1 * g2) .LT. abs(0) .AND. (f1 / (5 + 9)) .GT. -5) g1 = 6
  ENDDO
  v0 = max(3, 14)
  g0 = abs(la(10))
  IF (5 .GT. (-5 / (4 + f0))) g2 = (-3 - -5)
  DO v0 = 0, 2
    g2 = 12
    v1 = mod((1 + la(2)), 4)
  ENDDO
  IF (abs(v0) .NE. -1 .AND. mod(la(9), 4) .LT. la(10)) THEN
    g2 = 9
  ELSE
    v0 = ((la(1) / (3 + 15)) * g3)
  ENDIF
  g2 = 3
  IF (f0 .GT. 0) THEN
    CALL proc961(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc961(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 6
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (5 .GE. abs(la(9))) v1 = max(la(4), 15)
  IF (f0 .GT. 0) THEN
    CALL proc962(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc962(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 4
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f1 = v0
  IF (la(9) .GE. la(8)) THEN
    PRINT *, la(2)
    IF ((g1 * 5) .GT. abs(14)) v2 = (g0 / (2 + 10))
  ENDIF
  DO g3 = 2, 5
    g1 = 12
  ENDDO
  DO g3 = 3, 6
    la(7) = (mod(3, 5) - la(6))
  ENDDO
  g0 = mod(max(7, v0), 3)
  g0 = max(la(10), la(11))
  IF (f0 .GT. 0) THEN
    CALL proc963(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc963(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  g2 = abs(10)
  g0 = ((10 - la(7)) / (5 + -1))
  g0 = (0 + (6 * la(1)))
  IF (f0 .GT. 0) THEN
    CALL proc964(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc964(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 11
  v2 = 5
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(la(6), 4) .LT. 14 .OR. f1 .LE. la(5)) v0 = (10 / (2 + la(7)))
  IF (f0 .GT. 0) THEN
    CALL proc960(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc965(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = la(10)
  IF (.NOT. ((4 * la(4)) .LT. la(11))) g1 = -5
  la(12) = mod(-4, 6)
  DO g0 = 2, 3
    DO v0 = 2, 5
      la(12) = max(13, g2)
      g2 = (-5 * la(6))
    ENDDO
  ENDDO
  g2 = la(1)
  IF (f0 .GT. 0) THEN
    CALL proc966(f0 - 1, (0 + 5))
  ENDIF
END

SUBROUTINE proc966(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = -2
  v2 = 7
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 0, 2
    v3 = f0
    g1 = la(3)
  ENDDO
  IF (.NOT. (la(4) .NE. max(f0, g2))) THEN
    f1 = 6
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc967(f0 - 1, v3)
  ENDIF
END

SUBROUTINE proc967(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 7
  v2 = 7
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (.NOT. (la(6) .GT. f1)) g0 = -1
  DO v2 = 3, 5
    DO g0 = 1, 4
      PRINT *, la(6)
      la(10) = g2
    ENDDO
  ENDDO
  g2 = abs((15 / (2 + -5)))
  IF (f0 .GT. 0) THEN
    CALL proc968(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc968(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 5
  v2 = 14
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = mod(7, 6)
  IF (abs(la(12)) .GT. 12) THEN
    v0 = (la(10) + max(10, la(4)))
    la(7) = (max(la(12), 0) / (3 + la(1)))
  ENDIF
  la(1) = la(1)
  v0 = abs((6 + v3))
  IF (f0 .GT. 0) THEN
    CALL proc969(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc969(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(11) = -1
  IF (f0 .GT. 0) THEN
    CALL proc970(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc970(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 12
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g2 = 2, 2
    PRINT *, abs((la(7) - -5))
    v0 = la(8)
  ENDDO
  v2 = v1
  DO g2 = 2, 5
    la(9) = 13
  ENDDO
  g0 = la(12)
  v0 = ((la(3) / (2 + g3)) - 11)
  PRINT *, -1
  v1 = (g2 * g3)
  IF (f0 .GT. 0) THEN
    CALL proc965(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc971(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 3
  g1 = f1
  g0 = v0
  PRINT *, (v1 + mod(g3, 2))
  la(2) = abs(la(2))
  g0 = 13
  IF (f0 .GT. 0) THEN
    CALL proc972(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc972(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO g2 = 1, 1
    f1 = mod((-4 + 4), 4)
    g3 = f0
  ENDDO
  g3 = la(5)
  v0 = -1
  IF (f0 .GT. 0) THEN
    CALL proc973(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc973(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 14
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO g3 = 1, 4
    la(1) = (f0 - max(la(8), 9))
  ENDDO
  g3 = -5
  la(2) = -2
  IF (f0 .GT. 0) THEN
    CALL proc974(f0 - 1, 2)
  ENDIF
END

SUBROUTINE proc974(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 1
  v1 = 6
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v2 = (11 / (5 + la(10)))
  IF (.NOT. (max(-3, g2) .LE. (la(11) - 8))) THEN
    IF (.NOT. (v0 .GE. 9)) THEN
      g0 = (mod(la(9), 6) - f0)
      la(12) = -2
    ELSE
      g0 = (14 + mod(la(8), 6))
      la(4) = 14
    ENDIF
    v2 = (la(1) / (6 + 1))
  ENDIF
  IF ((12 / (2 + 11)) .EQ. la(2)) g1 = la(2)
  IF (f0 .GT. 0) THEN
    CALL proc975(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc975(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v1 = (la(1) / (3 + la(12)))
  IF (9 .LE. (9 / (2 + f0)) .AND. g1 .NE. (-5 / (4 + 2))) g2 = 5
  IF (f0 .GT. 0) THEN
    CALL proc976(f0 - 1, (0 + mod(-4, 5)))
  ENDIF
END

SUBROUTINE proc976(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 14
  v2 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g1 = abs((la(7) / (3 + -2)))
  v0 = (15 - 2)
  g2 = -4
  v2 = la(8)
  g1 = max(v2, la(12))
  IF (la(8) .EQ. g0 .AND. (14 - v2) .GE. la(3)) g0 = 14
  la(9) = max(v0, -3)
  IF (f0 .GT. 0) THEN
    CALL proc971(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc977(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v1 = max(la(1), g0)
  IF (9 .GT. 11 .OR. max(la(2), la(8)) .GT. abs(g0)) g2 = 14
  la(8) = abs(mod(15, 6))
  g1 = 15
  PRINT *, (la(7) - (g3 * 1))
  IF ((14 - 3) .GT. (-2 * f1)) g0 = (15 * la(4))
  IF (max(g2, 4) .LE. 14 .AND. la(12) .GE. max(11, g0)) v1 = 10
  IF (f0 .GT. 0) THEN
    CALL proc978(f0 - 1, (0 + (la(4) + 12)))
  ENDIF
END

SUBROUTINE proc978(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -4
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  PRINT *, abs(10)
  la(11) = -5
  v0 = (f0 + la(11))
  IF (f0 .GT. 0) THEN
    CALL proc979(f0 - 1, (0 + -2))
  ENDIF
END

SUBROUTINE proc979(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g2 = (4 * f1)
  g2 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc977(f0 - 1, (0 + abs(la(2))))
  ENDIF
END

SUBROUTINE proc980(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = -1
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  g0 = -1
  la(8) = -1
  la(3) = mod(14, 6)
  la(10) = -3
  v1 = mod((1 * 6), 3)
  IF (la(5) .GE. (v1 / (4 + la(10))) .AND. max(8, 6) .LE. (v1 / (2 + v0))) g1 = la(7)
  IF (f0 .GT. 0) THEN
    CALL proc981(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc981(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  v0 = (abs(12) + g2)
  g0 = 12
  g0 = ((0 + -2) * 1)
  la(1) = la(8)
  DO v1 = 0, 2
    g3 = la(3)
  ENDDO
  la(5) = (abs(v1) - mod(-1, 6))
  PRINT *, mod(-1, 4)
  g0 = abs(abs(-2))
  IF (1 .EQ. (f0 - f1)) g1 = (la(2) - 1)
  IF (f0 .GT. 0) THEN
    CALL proc982(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc982(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. ((1 / (2 + g2)) .GT. 9)) g0 = max(0, v1)
  IF (f0 .GT. 0) THEN
    CALL proc983(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc983(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 8
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  PRINT *, (4 * 14)
  IF (f0 .GT. 0) THEN
    CALL proc984(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc984(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = -2
  v2 = 5
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v3 = mod(6, 5)
  la(5) = (la(6) / (5 + v1))
  PRINT *, (-3 + max(0, f1))
  f1 = g2
  IF (f0 .GT. 0) THEN
    CALL proc985(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc985(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = mod(abs(-3), 6)
  f1 = (v0 + -2)
  IF ((la(4) * g1) .NE. (g2 / (6 + v1))) f1 = mod(11, 6)
  g0 = (mod(la(6), 2) * la(2))
  f1 = g0
  la(4) = (abs(15) - la(7))
  f1 = max(9, la(5))
  PRINT *, (max(la(10), la(11)) / (2 + 2))
  IF ((la(1) * g0) .LE. (g2 - g3) .AND. mod(6, 5) .EQ. 15) THEN
    la(3) = la(6)
    v0 = mod(la(12), 8)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc980(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc986(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = (max(v0, g3) / (6 + 11))
  PRINT *, -2
  v1 = (g2 - (11 - 6))
  la(11) = abs(5)
  la(12) = la(1)
  DO f1 = 2, 4
    v1 = ((la(10) / (5 + -5)) - 12)
  ENDDO
  g1 = max(9, -2)
  PRINT *, la(1)
  PRINT *, (f0 - g1)
  IF (f0 .GT. 0) THEN
    CALL proc987(f0 - 1, (0 + 7))
  ENDIF
END

SUBROUTINE proc987(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = f1
  g3 = abs(-3)
  IF ((13 + f1) .NE. 4 .OR. (-5 / (3 + 1)) .LT. g0) THEN
    g3 = la(7)
  ENDIF
  f1 = v1
  la(10) = 9
  la(7) = -2
  IF (.NOT. (la(5) .GT. g3)) THEN
    f1 = ((7 - 4) * la(9))
    PRINT *, max(v0, 0)
  ENDIF
  IF (la(4) .GT. 6 .AND. f1 .LT. (la(6) - 5)) g1 = (15 / (4 + v1))
  IF (.NOT. ((f1 / (6 + g2)) .GT. (la(9) / (2 + -2)))) v0 = 4
  IF (f0 .GT. 0) THEN
    CALL proc988(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc988(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f1 = g3
  g3 = ((-5 * v0) * 5)
  IF (f0 .GT. 0) THEN
    CALL proc989(f0 - 1, -1)
  ENDIF
END

SUBROUTINE proc989(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = 0
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((-2 + -5) .GT. (-5 * 2) .AND. 14 .LT. max(g3, g3)) THEN
    la(9) = 3
  ENDIF
  g2 = -4
  f1 = 14
  la(10) = v1
  IF (f0 .GT. 0) THEN
    CALL proc990(f0 - 1, -3)
  ENDIF
END

SUBROUTINE proc990(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (.NOT. (2 .NE. -4)) v1 = 8
  IF ((v1 + 14) .NE. mod(g2, 2) .OR. max(3, 7) .GT. g3) g2 = mod(v1, 6)
  g2 = la(5)
  g0 = (la(7) + g0)
  g1 = la(4)
  v1 = (abs(f0) / (3 + 9))
  IF (3 .NE. max(v1, f0) .AND. -1 .GT. (2 - 13)) THEN
    v0 = ((14 * 3) + 5)
    DO g3 = 1, 5
      g2 = la(5)
    ENDDO
  ELSE
    g3 = (abs(la(8)) - max(9, -2))
    IF (mod(-2, 6) .EQ. -4) THEN
      v1 = la(2)
      g3 = (11 * 13)
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc986(f0 - 1, -2)
  ENDIF
END

SUBROUTINE proc991(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  DO g3 = 2, 2
    la(8) = la(3)
    v0 = abs((-1 * 10))
  ENDDO
  g0 = -5
  g1 = 10
  IF ((la(2) - la(11)) .GT. max(2, 8) .AND. la(1) .GT. la(12)) THEN
    g1 = g1
  ENDIF
  g2 = 1
  v0 = (la(5) * 15)
  IF (f0 .GT. 0) THEN
    CALL proc992(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc992(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 5
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  g2 = la(12)
  g3 = 14
  IF (abs(f0) .GT. 14 .OR. (g2 * la(9)) .LE. (v1 + v0)) v0 = la(10)
  g0 = max(7, 3)
  g1 = ((la(8) * 11) * f0)
  PRINT *, (8 * 3)
  IF ((6 + 2) .LE. max(g0, g0) .OR. (la(2) + v1) .NE. (f1 + g0)) g1 = la(7)
  DO v1 = 3, 5
    PRINT *, la(11)
  ENDDO
  PRINT *, -3
  IF (.NOT. (-1 .LE. -5)) THEN
    v1 = (abs(11) + (12 + v1))
    PRINT *, ((la(5) - 8) + (g3 * la(5)))
  ELSE
    IF ((7 * v1) .LT. abs(-2) .AND. (g0 + la(6)) .EQ. (2 - -3)) THEN
      f1 = -3
      IF (g0 .LE. v0 .AND. max(0, 1) .NE. 7) g2 = (la(5) / (3 + -2))
    ELSE
      IF (g1 .LT. (v1 * -3) .OR. -2 .LT. mod(la(2), 6)) g1 = la(8)
      la(9) = 13
    ENDIF
    la(12) = max(12, 10)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc993(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc993(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 13
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = mod(-4, 8)
  DO g2 = 2, 4
    v0 = ((-2 * -3) * 3)
  ENDDO
  IF ((la(12) - g3) .GE. 6) g1 = g1
  IF (max(la(2), -2) .LE. abs(10)) g2 = -5
  IF (4 .LT. 14 .OR. v0 .LT. (g1 + la(4))) g1 = abs(la(4))
  IF (1 .LE. la(4)) g1 = -3
  PRINT *, mod(la(12), 5)
  IF (max(v1, 11) .NE. 14 .AND. mod(g1, 7) .GE. max(v1, -4)) g1 = -5
  f1 = 0
  IF ((11 * la(2)) .GT. g2 .OR. (12 / (4 + la(7))) .NE. max(2, 11)) THEN
    PRINT *, (1 - mod(la(4), 8))
    la(6) = max(g3, la(7))
  ELSE
    PRINT *, -4
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc991(f0 - 1, (0 + (g2 + 4)))
  ENDIF
END

SUBROUTINE proc994(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  PRINT *, (max(4, f0) - max(la(12), 11))
  IF (.NOT. ((-3 + 0) .GE. (1 + la(11)))) THEN
    v1 = (9 - (5 + 14))
  ELSE
    IF (g1 .EQ. (5 - -3) .AND. 11 .GE. 7) v0 = (11 * la(3))
    DO v1 = 2, 5
      g0 = 12
      la(5) = (abs(3) + abs(g3))
    ENDDO
  ENDIF
  DO v1 = 0, 2
    IF (10 .GE. 0 .AND. la(11) .LE. la(10)) v0 = 6
    v0 = 6
  ENDDO
  la(1) = (la(3) * la(10))
  PRINT *, 15
  IF (f0 .GT. 0) THEN
    CALL proc995(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc995(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 13
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v1 = mod((0 * la(4)), 2)
  la(1) = abs((g0 * 0))
  IF (f0 .GT. 0) THEN
    CALL proc996(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc996(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g3 = 13
  PRINT *, abs(mod(15, 3))
  v0 = 10
  DO f1 = 1, 5
    IF (.NOT. (abs(f0) .EQ. -1)) THEN
      v0 = v1
      v1 = (-3 * 15)
    ELSE
      g0 = abs(f1)
    ENDIF
  ENDDO
  f1 = 15
  la(6) = (mod(-4, 6) * -5)
  g0 = mod(-1, 7)
  IF (.NOT. ((la(2) - la(11)) .GE. (-1 - f1))) v1 = abs(g1)
  IF (f0 .GT. 0) THEN
    CALL proc994(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc997(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -4
  v1 = 9
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  PRINT *, 3
  IF (mod(0, 2) .GT. f0 .OR. mod(g1, 2) .GT. (13 - g0)) THEN
    f1 = (9 * 0)
    IF (abs(v0) .LT. mod(9, 3) .AND. 3 .GE. abs(g3)) g1 = 12
  ELSE
    DO v2 = 3, 6
      v0 = 5
      g2 = (mod(-3, 4) * g0)
    ENDDO
  ENDIF
  v2 = (6 - (la(2) * la(9)))
  g1 = ((la(11) * la(6)) * g0)
  IF (f0 .GT. 0) THEN
    CALL proc998(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc998(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 11
  v1 = 8
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  la(5) = (v2 - 7)
  g0 = mod((la(3) / (2 + la(3))), 8)
  f1 = (la(8) - g0)
  la(4) = (v1 + v0)
  DO g2 = 2, 5
    PRINT *, max(6, la(6))
    g1 = max(la(5), la(9))
  ENDDO
  v1 = mod(-1, 3)
  v0 = (abs(la(9)) - (la(10) - la(8)))
  v1 = 9
  IF (f0 .GT. 0) THEN
    CALL proc999(f0 - 1, (0 + -5))
  ENDIF
END

SUBROUTINE proc999(f0, f1)
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
  IF (la(6) .EQ. v2 .AND. max(7, -1) .LE. 8) THEN
    PRINT *, f1
    v1 = ((la(2) * -1) * 5)
  ENDIF
  IF (.NOT. (abs(5) .EQ. (12 / (3 + la(8))))) THEN
    DO g0 = 1, 4
      g3 = -2
      g1 = mod(mod(0, 5), 5)
    ENDDO
    IF (.NOT. (8 .EQ. 1)) f1 = max(13, la(10))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc997(f0 - 1, f1)
  ENDIF
END
