PROGRAM main
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  DATA g3 /3/
  v0 = 0
  v1 = -1
  g0 = 11
  g1 = 12
  g2 = 11
  DO v0 = 1, 12
    la(v0) = 2 * v0
  ENDDO
  v0 = 2
  PRINT *, la(9)
  v1 = 8
  IF ((g2 / (2 + la(1))) .EQ. -3) THEN
    la(8) = la(6)
  ENDIF
  IF (la(2) .GT. (v1 * la(6)) .AND. abs(v1) .NE. 15) THEN
    v1 = g2
  ENDIF
  PRINT *, (mod(3, 2) * -4)
  IF (1 .GE. (15 / (3 + la(3)))) g2 = -4
  CALL proc0(4, v1)
  CALL proc33(6)
  CALL proc66(7, (0 + max(la(9), 13)))
  PRINT *, v0
  PRINT *, v1
  PRINT *, g0
  PRINT *, g1
  PRINT *, g2
  PRINT *, g3
END

SUBROUTINE proc0(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 0
  v1 = 8
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = (abs(8) - mod(12, 7))
  IF ((la(2) - la(5)) .LT. -4) THEN
    f1 = la(6)
    v1 = (5 * v2)
  ELSE
    g2 = v2
  ENDIF
  CALL proc1(2, v1)
END

SUBROUTINE proc1(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = (v0 + 14)
  IF (.NOT. (0 .LE. 13)) f1 = -5
  g3 = abs((g2 - g2))
  f0 = max(7, la(11))
  v0 = v1
  v1 = 0
  f1 = mod(abs(-4), 4)
  PRINT *, (max(0, 2) + la(6))
  CALL proc2(4)
END

SUBROUTINE proc2(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -2
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  la(10) = abs((2 / (2 + g0)))
  f0 = max(g1, 4)
  v2 = 4
  g2 = abs(max(15, v0))
  IF (max(la(5), 15) .NE. 12 .AND. max(g0, 7) .GE. max(g0, la(2))) v1 = (la(9) / (2 + -2))
  v1 = (-5 * 14)
  IF (4 .EQ. abs(5) .OR. g3 .GE. 2) THEN
    la(7) = max(-4, g1)
  ELSE
    v0 = 8
  ENDIF
  IF (max(-5, 2) .GE. abs(v0)) THEN
    DO v0 = 2, 6
      g1 = abs((v1 - la(11)))
      PRINT *, g0
    ENDDO
  ELSE
    PRINT *, (la(10) - la(11))
  ENDIF
  CALL proc3(2)
END

SUBROUTINE proc3(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = -2
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (max(v1, -3) .EQ. mod(11, 6) .OR. g3 .NE. (la(11) * 4)) v0 = mod(la(10), 5)
  IF (mod(la(6), 2) .GE. (v0 * 15) .AND. (g1 + 8) .LE. (g1 + 13)) v0 = (14 - 2)
  g2 = la(6)
  g3 = la(1)
  IF (.NOT. (max(v2, -4) .NE. (g3 * -3))) g2 = mod(11, 8)
  CALL proc4((0 + (7 / (3 + g3))), (0 + (g3 / (3 + la(4)))))
END

SUBROUTINE proc4(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -1
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (la(7) .EQ. la(3)) THEN
    f1 = (f0 * g2)
  ENDIF
  v0 = la(9)
  g3 = la(1)
  PRINT *, max(la(11), la(5))
  IF (la(4) .EQ. -4 .AND. la(2) .GE. (1 - 13)) g1 = 13
  g3 = (abs(3) / (4 + 8))
  g2 = 6
  CALL proc5((0 + abs(10)), (0 + -4))
END

SUBROUTINE proc5(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = 7
  v2 = 11
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF ((0 + 0) .NE. -5 .AND. g2 .LE. abs(12)) v0 = 9
  CALL proc6((f0 + 1))
END

SUBROUTINE proc6(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  DO g2 = 0, 4
    g0 = 2
    f0 = (mod(la(10), 6) - g1)
  ENDDO
  g3 = (11 - (la(11) * 0))
  CALL proc7(3)
END

SUBROUTINE proc7(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 7
  v2 = 9
  v3 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, max(v1, la(7))
  IF (.NOT. (9 .NE. g3)) g2 = abs(la(11))
  v1 = abs(max(-2, -2))
  CALL proc8(4)
END

SUBROUTINE proc8(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = 0
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g1 = max(8, la(9))
  v2 = (la(7) / (6 + -1))
  v2 = -3
  g3 = (13 + (la(3) * -5))
  v2 = (max(la(12), 6) + max(v0, 10))
  IF ((15 / (3 + 15)) .LT. v0 .OR. (v2 / (3 + la(11))) .LT. (la(11) + 2)) v1 = (-2 * la(5))
  v1 = max(v2, 9)
  CALL proc9(6, v0)
END

SUBROUTINE proc9(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -2
  v1 = 13
  v2 = 2
  v3 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  f0 = abs(12)
  v3 = -2
  DO v0 = 3, 4
    f1 = ((13 - g0) - 11)
  ENDDO
  la(1) = v3
  la(11) = ((la(11) + 9) + -3)
  CALL proc10(6)
END

SUBROUTINE proc10(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 9
  v2 = 10
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO v1 = 0, 3
    DO v2 = 0, 1
      f0 = 10
      v3 = la(8)
    ENDDO
    v0 = la(1)
  ENDDO
  g0 = la(6)
  v3 = la(9)
  CALL proc11((0 + 15))
END

SUBROUTINE proc11(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF ((g3 * la(5)) .EQ. (la(2) + la(6)) .AND. (la(5) / (5 + g2)) .LT. max(-1, la(1))) THEN
    v1 = (-5 / (6 + la(9)))
  ELSE
    la(3) = abs(8)
    la(8) = (11 + (v1 * la(6)))
  ENDIF
  g1 = g1
  la(1) = la(2)
  IF ((la(11) + 7) .GT. (2 + f0)) g3 = -5
  PRINT *, mod(-2, 2)
  g1 = abs((la(3) - f0))
  IF (.NOT. (mod(la(4), 5) .GE. (la(6) * g3))) g2 = -1
  la(5) = max(g1, 0)
  g1 = 0
  CALL proc12(4)
END

SUBROUTINE proc12(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 10
  v2 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF ((la(9) + -5) .GT. 0 .OR. (la(10) - la(8)) .GE. (6 - 13)) g0 = mod(12, 8)
  g1 = (14 + la(12))
  g0 = la(3)
  g1 = la(1)
  IF (la(4) .NE. 6 .AND. abs(-5) .NE. 12) v2 = 2
  g0 = 1
  la(3) = (la(6) - 4)
  la(6) = 10
  la(9) = (14 * 1)
  v1 = 11
  CALL proc13(2, (0 + (-5 * 5)))
END

SUBROUTINE proc13(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g2 = g1
  v0 = ((g3 * la(12)) + -2)
  v1 = max(la(5), 6)
  CALL proc14((f0 + 1), 11)
END

SUBROUTINE proc14(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 3
  v1 = 9
  v2 = 8
  v3 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  PRINT *, la(3)
  IF (la(11) .EQ. (v3 + -4) .OR. abs(11) .LE. 9) v0 = 7
  g1 = mod(max(1, 9), 6)
  PRINT *, 14
  v3 = la(5)
  la(12) = abs(-4)
  DO v1 = 0, 3
    g1 = 0
  ENDDO
  v2 = (abs(la(6)) - la(8))
  CALL proc15((f0 + 1), v2)
END

SUBROUTINE proc15(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 13
  v1 = -1
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v1 = max(v1, la(12))
  la(10) = (f1 * 13)
  g0 = f0
  IF (.NOT. (-5 .GT. max(la(6), 11))) g1 = (15 - 12)
  v2 = 3
  f0 = la(4)
  g3 = -3
  CALL proc16((f0 + 1))
END

SUBROUTINE proc16(f0)
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
  CALL proc17((f0 + 1))
END

SUBROUTINE proc17(f0)
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
  CALL proc18((f0 + 1), v0)
END

SUBROUTINE proc18(f0, f1)
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
  CALL proc19(4, v0)
END

SUBROUTINE proc19(f0, f1)
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
  CALL proc20(2)
END

SUBROUTINE proc20(f0)
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
  CALL proc21(7, v0)
END

SUBROUTINE proc21(f0, f1)
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
  CALL proc22((0 + -1), (0 + (g3 / (3 + la(8)))))
END

SUBROUTINE proc22(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (abs(8) .GT. -5 .OR. 8 .LT. -3) THEN
    f1 = max(la(7), 5)
    IF (13 .LE. (f1 / (2 + g3)) .OR. la(7) .GT. abs(la(10))) f0 = abs(0)
  ELSE
    g1 = la(2)
  ENDIF
  f1 = (la(2) * la(2))
  IF (la(11) .LE. abs(la(5)) .AND. 10 .GE. max(la(12), -2)) f0 = -5
  g1 = 3
  la(1) = 1
  CALL proc23(2)
END

SUBROUTINE proc23(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = 12
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  IF (.NOT. ((la(4) / (5 + 11)) .GE. 2)) THEN
    v0 = (mod(la(10), 2) * la(3))
    g0 = abs(g2)
  ELSE
    PRINT *, ((g0 + la(7)) / (2 + la(1)))
  ENDIF
  IF (.NOT. (max(g3, 15) .EQ. la(1))) THEN
    f0 = (7 + la(3))
  ENDIF
  f0 = abs((12 - 5))
  CALL proc24(3, (0 + la(1)))
END

SUBROUTINE proc24(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 9
  v2 = 14
  v3 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF (.NOT. ((la(7) + la(11)) .GT. abs(g2))) g1 = (la(2) + -1)
  IF (abs(-3) .GE. abs(9) .OR. 5 .GE. 7) v2 = v3
  DO f0 = 2, 3
    PRINT *, 9
    DO g1 = 2, 4
      PRINT *, 9
    ENDDO
  ENDDO
  IF (.NOT. (abs(6) .LT. (7 + g3))) THEN
    IF (9 .GT. 8 .OR. abs(la(2)) .LT. mod(7, 7)) v0 = (la(1) / (3 + g1))
  ELSE
    f0 = (12 * -3)
  ENDIF
  IF (la(9) .LE. max(v2, 8) .AND. v0 .LE. abs(la(3))) g3 = mod(f1, 3)
  g3 = g1
  PRINT *, 1
  DO v2 = 3, 5
    g1 = (f1 - (-5 - la(10)))
    la(5) = (-3 - mod(8, 7))
  ENDDO
  la(12) = (14 * 3)
  g3 = la(9)
  CALL proc25(5, f0)
END

SUBROUTINE proc25(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(7) = g0
  g2 = ((5 / (4 + -2)) - -1)
  g1 = (abs(-3) + (la(10) / (3 + 13)))
  IF (g2 .GT. (15 / (5 + la(2))) .AND. v1 .EQ. -3) v0 = 4
  g2 = ((10 * 6) - abs(g0))
  g0 = 5
  g2 = ((g0 + 10) / (6 + 11))
  PRINT *, (13 / (5 + v0))
  f1 = (13 + abs(11))
  CALL proc26((f0 + 1))
END

SUBROUTINE proc26(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 9
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  IF (-4 .LT. (4 - la(12)) .AND. abs(11) .LE. mod(v0, 8)) g0 = 4
  IF ((-3 + la(12)) .GE. g1 .AND. 1 .NE. (1 + v1)) f0 = -1
  CALL proc27(4, (0 + 4))
END

SUBROUTINE proc27(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 3
  v2 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = (max(f1, la(7)) / (5 + 2))
  f1 = g2
  CALL proc28(3, f0)
END

SUBROUTINE proc28(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = -2
  v2 = 2
  v3 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = (g0 / (5 + la(9)))
  PRINT *, max(la(10), 11)
  PRINT *, v2
  g1 = v3
  PRINT *, la(5)
  DO g1 = 0, 2
    IF (.NOT. (v1 .EQ. (la(1) - -4))) THEN
      la(7) = mod(12, 3)
    ENDIF
  ENDDO
  v3 = f0
  PRINT *, 7
  IF ((la(10) - f1) .GE. 2 .AND. max(la(9), la(10)) .EQ. abs(9)) v1 = abs(6)
  CALL proc29(5, 3)
END

SUBROUTINE proc29(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 8
  v2 = 4
  v3 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f0 = abs(la(12))
  v3 = (la(4) - 10)
  g2 = mod(4, 3)
  v1 = -2
  v1 = f1
  f0 = (v0 * 15)
  CALL proc30(2, f0)
END

SUBROUTINE proc30(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 9
  v1 = 9
  v2 = 12
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  v2 = max(g3, f1)
  la(7) = g3
  IF (4 .GE. g2 .AND. (14 - 15) .GE. -5) THEN
    g3 = 11
  ENDIF
  g0 = (la(3) / (4 + 2))
  g0 = la(12)
  IF (max(v2, -5) .LE. 1 .OR. 10 .NE. 0) f1 = v2
  la(5) = 14
  IF (3 .GE. la(2) .AND. mod(5, 4) .NE. (v3 - la(10))) THEN
    IF (abs(la(12)) .EQ. (f1 / (2 + 10))) v3 = la(3)
    DO v1 = 1, 4
      PRINT *, ((13 - -1) * la(1))
    ENDDO
  ENDIF
  DO g1 = 0, 0
    IF (.NOT. (mod(la(7), 3) .LE. (la(2) - -5))) f1 = mod(g0, 8)
    la(6) = abs(max(-5, 10))
  ENDDO
  IF (.NOT. (10 .NE. la(4))) THEN
    la(10) = la(2)
  ENDIF
  CALL proc31((f0 + 1), 6)
END

SUBROUTINE proc31(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 10
  v1 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v0 = ((5 - 8) * f0)
  PRINT *, ((g1 - la(7)) / (2 + la(11)))
  CALL proc32(5, v0)
END

SUBROUTINE proc32(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 4
  v1 = 5
  v2 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (mod(f1, 2) .NE. (f0 * g3) .OR. la(1) .LT. -4) v2 = abs(13)
  v1 = la(9)
  g3 = (la(9) * g1)
  DO g3 = 1, 2
    IF (max(6, la(7)) .GE. (g0 + la(11)) .AND. g2 .EQ. (g3 / (4 + 1))) f0 = v0
  ENDDO
  g1 = (la(5) / (3 + v2))
  IF ((la(7) + v0) .GE. abs(12) .AND. (g2 / (2 + la(9))) .GE. (la(8) - 7)) v1 = 9
  IF (8 .EQ. (8 / (2 + 15))) f1 = la(2)
END

SUBROUTINE proc33(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  f0 = v0
  v1 = 14
  la(6) = ((g3 * 5) - la(8))
  v0 = ((la(3) + g1) * 2)
  g0 = abs(15)
  g3 = (abs(la(3)) / (4 + la(10)))
  v0 = 12
  g2 = ((2 - 9) / (3 + la(12)))
  CALL proc34((0 + 7))
  CALL proc35(2)
  CALL proc36(4)
  CALL proc37(6)
  CALL proc38((f0 + 1))
  CALL proc39((f0 + 1))
  CALL proc40(3, v0)
  CALL proc41(6, v0)
  CALL proc42(2, (0 + mod(la(6), 5)))
  CALL proc43(3)
  CALL proc44(6)
  CALL proc45((f0 + 1), 3)
  CALL proc46((f0 + 1))
  CALL proc47((f0 + 1), -2)
  CALL proc48((0 + 7), (0 + (6 * la(8))))
  CALL proc49((f0 + 1), f0)
  CALL proc50(2)
  CALL proc51((f0 + 1), f0)
  CALL proc52((f0 + 1), -3)
  CALL proc53((0 + g1), f0)
  CALL proc54((0 + la(3)))
  CALL proc55(3, (0 + (v0 - f0)))
  CALL proc56((0 + g1), 5)
  CALL proc57((f0 + 1))
  CALL proc58((0 + max(11, 12)), f0)
  CALL proc59(2)
  CALL proc60(2)
  CALL proc61((f0 + 1))
  CALL proc62((f0 + 1), (0 + 6))
  CALL proc63(3)
  CALL proc64((f0 + 1))
  CALL proc65((0 + (11 * -1)))
END

SUBROUTINE proc34(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 14
  v2 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(8) = -4
END

SUBROUTINE proc35(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = max(g3, la(10))
  DO g3 = 2, 5
    g1 = g3
  ENDDO
  PRINT *, 0
  f0 = max(la(4), 2)
END

SUBROUTINE proc36(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 2
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = -3
  g1 = (abs(-3) - la(1))
END

SUBROUTINE proc37(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (-1 .GE. 9 .AND. max(la(6), 4) .NE. abs(14)) THEN
    DO f0 = 3, 4
      g3 = mod(1, 3)
      IF (mod(3, 3) .LE. la(11)) v0 = -2
    ENDDO
  ENDIF
  v1 = mod((la(1) * 13), 5)
  g1 = v1
END

SUBROUTINE proc38(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 8
  v1 = 1
  v2 = 0
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  DO v1 = 2, 4
    v0 = g2
    f0 = g3
  ENDDO
  g0 = la(12)
  v2 = (14 + v3)
  v0 = ((v1 / (5 + -5)) / (6 + -1))
  g3 = (6 - 7)
  PRINT *, (la(4) + abs(la(6)))
  g0 = 4
  g3 = la(5)
  f0 = v0
END

SUBROUTINE proc39(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -3
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f0 = la(3)
  g2 = f0
  g1 = -5
  g1 = -3
  v1 = (mod(la(3), 2) * 4)
  la(10) = g2
  v0 = max(v0, 4)
END

SUBROUTINE proc40(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 3
  v2 = 0
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v1 = 0, 4
    IF (.NOT. (-3 .LT. (la(9) + la(10)))) g1 = max(7, 15)
  ENDDO
  v2 = ((la(3) + la(8)) * -3)
  v0 = v0
END

SUBROUTINE proc41(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 4
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = (f1 * 15)
END

SUBROUTINE proc42(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 7
  v1 = 13
  v2 = -3
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  g3 = la(12)
  la(1) = 12
  IF (.NOT. (2 .LT. abs(8))) THEN
    la(6) = (13 / (6 + la(3)))
  ELSE
    PRINT *, la(8)
  ENDIF
  v1 = abs(abs(f1))
  IF (abs(la(8)) .GT. abs(v1)) v2 = (-5 / (4 + 3))
END

SUBROUTINE proc43(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 0
  v1 = -3
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = 8
END

SUBROUTINE proc44(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 0
  v2 = 7
  v3 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  PRINT *, -2
  v0 = (15 * g2)
  g3 = mod((g1 - 11), 7)
  g1 = 8
  f0 = mod((g3 / (6 + la(11))), 3)
END

SUBROUTINE proc45(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 5
  v1 = 10
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  DO f0 = 2, 5
    IF (.NOT. (8 .GT. (1 - 4))) g3 = (7 - la(4))
  ENDDO
  g0 = la(10)
  PRINT *, -4
  g0 = v0
  PRINT *, f0
  IF (la(7) .GT. la(2)) THEN
    IF (g1 .NE. 12 .AND. 15 .GE. (la(2) + 5)) g2 = mod(v2, 5)
    v0 = la(8)
  ENDIF
  IF (4 .LT. abs(-3) .AND. (la(4) / (2 + 7)) .GE. 4) THEN
    v1 = 9
    v1 = (15 - (5 / (5 + 2)))
  ELSE
    g1 = 4
    v1 = (8 * f1)
  ENDIF
END

SUBROUTINE proc46(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g1 = 2, 6
    g3 = (g3 - max(g1, -2))
    IF (1 .EQ. max(12, la(11)) .AND. max(1, v0) .GT. la(12)) THEN
      v0 = -3
    ELSE
      g0 = la(6)
    ENDIF
  ENDDO
  g1 = 15
  v0 = ((g0 + g2) / (2 + 8))
  IF (mod(1, 6) .GT. 11 .OR. (la(11) + 6) .GT. la(2)) THEN
    IF (.NOT. (mod(g3, 6) .GT. 15)) g3 = v1
    v0 = g3
  ELSE
    v1 = (3 + 7)
    IF (abs(la(10)) .GE. g2 .OR. g0 .GE. mod(la(10), 5)) THEN
      v1 = 10
      v0 = mod(g1, 4)
    ENDIF
  ENDIF
  v0 = g0
END

SUBROUTINE proc47(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 14
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  DO f0 = 0, 1
    DO f1 = 3, 5
      g0 = 5
    ENDDO
  ENDDO
  IF (7 .GE. (la(4) - 7) .OR. la(4) .EQ. (8 + 13)) THEN
    g0 = (1 + abs(la(5)))
    v1 = (max(14, g3) + -5)
  ENDIF
  g2 = 13
END

SUBROUTINE proc48(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 11
  v1 = 1
  v2 = 11
  v3 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = la(6)
  DO v3 = 0, 3
    la(6) = (mod(la(9), 6) + 4)
  ENDDO
  la(2) = mod(f0, 8)
  v0 = max(la(11), 1)
  f0 = -4
  g2 = mod(1, 6)
  IF (7 .GT. 8 .OR. g0 .GE. (7 * la(9))) THEN
    g3 = 3
    f0 = ((v3 * la(7)) * f0)
  ENDIF
END

SUBROUTINE proc49(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = 3
  v2 = 14
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  f0 = -4
  la(1) = g2
  IF (.NOT. (la(8) .EQ. 13)) THEN
    f0 = (15 * 9)
  ENDIF
  v2 = max(1, 12)
  DO f0 = 2, 5
    DO v0 = 0, 4
      PRINT *, la(8)
    ENDDO
  ENDDO
  IF (mod(-3, 5) .GT. (v3 - la(1))) v1 = max(4, g3)
  la(10) = v1
  g3 = mod(mod(3, 2), 6)
  PRINT *, la(8)
  g0 = max(14, 8)
END

SUBROUTINE proc50(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 10
  v1 = -4
  v2 = 13
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  PRINT *, ((-4 * 1) * v0)
  v1 = 11
END

SUBROUTINE proc51(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = -4
  v2 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v0 = 14
  f0 = (0 / (4 + 4))
  v2 = mod(la(10), 7)
  v2 = 8
  IF (abs(la(2)) .LT. (9 * la(5)) .OR. 2 .NE. (5 / (4 + g0))) THEN
    la(2) = (9 * -1)
  ENDIF
  g0 = 8
  v0 = ((6 * la(11)) * g1)
  PRINT *, max(11, g2)
  IF (.NOT. (v2 .NE. la(8))) v2 = g0
  la(3) = mod((la(12) - 2), 8)
END

SUBROUTINE proc52(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -3
  v1 = 9
  v2 = 11
  v3 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO g3 = 3, 7
    v1 = g3
  ENDDO
  v2 = -3
  v1 = -4
  IF (la(1) .LT. mod(-4, 5)) v3 = f1
  IF (2 .NE. (f1 + -3) .OR. max(4, 4) .LT. mod(7, 5)) THEN
    IF (.NOT. ((12 * 3) .GE. g3)) g2 = (g1 / (2 + 3))
  ENDIF
  la(7) = la(3)
  g1 = la(2)
END

SUBROUTINE proc53(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 8
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  f1 = (g3 * -2)
  g0 = ((-4 * 1) * 8)
  g2 = (g3 / (2 + f1))
  v1 = 13
  IF (1 .LE. abs(-3) .AND. abs(2) .LE. mod(8, 6)) f1 = max(v1, 11)
END

SUBROUTINE proc54(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 14
  v1 = 6
  v2 = 14
  v3 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO v2 = 1, 3
    IF (mod(la(10), 4) .EQ. abs(0) .AND. v0 .GE. la(3)) THEN
      IF (.NOT. (v1 .NE. (g2 * la(8)))) g2 = (6 + 6)
      g2 = (10 / (3 + 3))
    ELSE
      IF (0 .GE. (la(1) / (6 + la(6))) .OR. (8 * 2) .GE. mod(14, 4)) v0 = 6
      IF (-5 .LE. (v0 - 2)) g1 = 13
    ENDIF
  ENDDO
  g3 = max(15, la(5))
  PRINT *, ((4 - la(12)) * 8)
END

SUBROUTINE proc55(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 12
  v1 = -2
  v2 = 9
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(11) = -2
  g0 = -3
  la(3) = 2
  IF (la(3) .GT. f1 .AND. f1 .GE. (la(1) - g3)) THEN
    v1 = (14 - v2)
    f1 = (max(la(11), 12) / (5 + g3))
  ELSE
    g2 = abs((6 + la(11)))
  ENDIF
END

SUBROUTINE proc56(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -1
  v1 = 1
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = la(5)
  g3 = la(6)
  v0 = -5
  IF ((-2 + g1) .NE. g3) THEN
    v0 = f1
  ENDIF
END

SUBROUTINE proc57(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 5
  v1 = 12
  v2 = 3
  v3 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  v2 = v0
  v3 = ((la(6) * 11) / (6 + g2))
  g0 = mod(0, 7)
  g2 = ((14 - 11) + la(12))
END

SUBROUTINE proc58(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 3
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (9 .GE. 13) g1 = max(g0, 11)
  v1 = (-5 - abs(0))
  IF (g1 .GT. la(12) .OR. (la(3) + f1) .LE. (la(10) / (6 + 8))) THEN
    IF ((7 - 12) .GE. 15 .AND. g1 .LT. abs(10)) v0 = 4
    la(12) = -4
  ELSE
    f1 = (7 * -4)
  ENDIF
  v1 = 8
  IF (.NOT. ((3 + v0) .GT. (la(5) * -1))) g3 = max(-2, -3)
  f1 = g1
END

SUBROUTINE proc59(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 9
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  v0 = 6
END

SUBROUTINE proc60(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 12
  v1 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  f0 = 14
END

SUBROUTINE proc61(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 8
  v1 = 4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  IF (.NOT. (8 .LT. (la(12) / (3 + g0)))) THEN
    la(7) = (9 / (3 + f0))
  ENDIF
  IF (abs(la(7)) .GT. mod(-3, 6)) THEN
    g2 = ((12 * g0) - (12 - la(7)))
  ELSE
    PRINT *, (3 * v1)
    DO v1 = 1, 2
      g0 = v1
      IF (abs(9) .LE. (la(3) - la(6))) v0 = g1
    ENDDO
  ENDIF
  IF (la(1) .LT. (0 - 4) .OR. v1 .GT. la(11)) THEN
    DO g2 = 0, 2
      la(9) = ((2 + 13) - g1)
      g3 = ((v0 - 9) * la(12))
    ENDDO
    la(12) = (mod(-1, 7) + la(12))
  ENDIF
  DO g1 = 3, 3
    g3 = ((la(11) - 8) * v0)
    g0 = (v0 * 0)
  ENDDO
  f0 = ((9 - 3) * 14)
  g2 = (mod(v0, 2) * v1)
  PRINT *, mod((la(4) + 10), 5)
  g2 = 11
END

SUBROUTINE proc62(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  PRINT *, 9
  g1 = la(8)
  IF (la(7) .LT. 13) v1 = 0
  v1 = (max(-2, -1) / (6 + la(6)))
  PRINT *, g0
  v1 = mod(abs(la(11)), 8)
  DO f1 = 2, 2
    IF (11 .LE. (2 / (4 + la(8))) .OR. g2 .EQ. la(2)) g0 = mod(-4, 5)
  ENDDO
END

SUBROUTINE proc63(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g2 = mod(g1, 7)
  IF (-5 .LE. 5 .AND. (g1 - la(9)) .LE. (15 * -1)) THEN
    g0 = (12 / (6 + g2))
  ELSE
    IF (11 .GE. max(0, 1)) THEN
      v1 = la(10)
      v1 = mod(la(10), 3)
    ELSE
      v0 = abs(max(f0, 14))
      IF (la(11) .NE. f0 .AND. la(12) .EQ. max(la(8), 3)) g3 = mod(4, 5)
    ENDIF
    DO g2 = 1, 4
      PRINT *, 5
    ENDDO
  ENDIF
END

SUBROUTINE proc64(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  DO f0 = 3, 6
    IF (g0 .LE. g3 .OR. max(12, 15) .EQ. 12) v1 = mod(3, 2)
  ENDDO
  f0 = 4
  IF (mod(la(9), 6) .GE. mod(15, 2)) v1 = abs(0)
  la(10) = 0
  la(3) = (max(5, v0) / (2 + 8))
  la(6) = (v0 / (2 + 3))
  v0 = max(3, -2)
  IF (-5 .GE. (10 * v1) .OR. mod(12, 5) .GE. 15) THEN
    g2 = 14
    g0 = v0
  ENDIF
  IF ((g0 - la(7)) .NE. abs(-1) .OR. max(g3, 2) .NE. (la(8) / (5 + 7))) g1 = mod(6, 5)
  IF ((v1 * 9) .GE. 11 .AND. (la(6) / (3 + 12)) .NE. la(4)) g1 = (v0 / (3 + 10))
END

SUBROUTINE proc65(f0)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 6
  v1 = 11
  v2 = 1
  v3 = -4
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  la(12) = la(10)
  g3 = g2
  g3 = -5
  DO g0 = 0, 0
    v0 = (la(7) / (6 + g1))
  ENDDO
END

SUBROUTINE proc66(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 10
  v2 = 9
  v3 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  f1 = max(12, 0)
  v0 = 7
  IF (f0 .GT. 0) THEN
    CALL proc67(f0 - 1, 8)
  ENDIF
  CALL proc71(6, (0 + 6))
  CALL proc75(6, f1)
END

SUBROUTINE proc67(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 7
  v1 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  IF (.NOT. (4 .EQ. (la(5) + -5))) THEN
    g1 = g0
  ELSE
    IF ((10 * la(4)) .GE. g2 .OR. (v1 / (3 + -2)) .GE. (g2 + 15)) THEN
      g1 = (abs(la(5)) + (10 - 13))
      v1 = 6
    ELSE
      IF (max(-5, 2) .LT. (-4 * 12) .AND. 15 .EQ. mod(la(11), 8)) g3 = (6 + 11)
    ENDIF
    v1 = la(9)
  ENDIF
  IF (.NOT. (mod(la(2), 2) .NE. la(12))) v0 = 7
  g1 = max(f0, la(8))
  IF (f0 .GT. 0) THEN
    CALL proc68(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc68(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  f1 = mod(abs(la(8)), 6)
  IF ((-3 - 10) .GE. la(4)) THEN
    PRINT *, -5
    v1 = mod(la(11), 7)
  ELSE
    f1 = (v1 / (3 + g0))
    g1 = (la(3) + mod(la(6), 6))
  ENDIF
  DO v1 = 3, 4
    DO g1 = 2, 5
      IF (.NOT. ((12 + v1) .NE. abs(2))) v0 = 4
      g3 = (f1 * 4)
    ENDDO
  ENDDO
  IF ((la(2) * g3) .GT. (f0 + f0) .AND. (0 / (2 + 0)) .GE. 15) g1 = (g0 / (2 + f0))
  g1 = -2
  PRINT *, abs((14 * 12))
  IF (f0 .GT. 0) THEN
    CALL proc69(f0 - 1, 1)
  ENDIF
END

SUBROUTINE proc69(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 6
  v1 = 13
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  v0 = 3
  v1 = max(-3, g0)
  g1 = abs(6)
  PRINT *, f1
  f1 = mod((2 - v0), 6)
  DO g3 = 1, 5
    v1 = (mod(1, 5) * -1)
    IF (.NOT. (max(0, 6) .GE. mod(la(7), 7))) THEN
      g1 = g0
      g2 = g0
    ENDIF
  ENDDO
  PRINT *, mod(max(10, f0), 5)
  g1 = (9 / (5 + la(7)))
  g0 = f1
  IF (f0 .GT. 0) THEN
    CALL proc70(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc70(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 12
  v1 = 6
  v2 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  g1 = max(v0, 1)
  g1 = (g1 + g0)
  PRINT *, -2
  g0 = -4
  IF (f0 .GT. 0) THEN
    CALL proc66(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc71(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 2
  v1 = 11
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v0 = (-2 * -2)
  IF (mod(6, 5) .GE. (g2 * g2)) THEN
    v1 = (max(la(8), v2) - (la(4) + 7))
    g2 = v0
  ELSE
    v0 = abs((f0 + -5))
  ENDIF
  la(6) = abs(g3)
  g3 = (max(8, 1) + max(g0, -3))
  g3 = v1
  DO v1 = 3, 6
    la(6) = 6
  ENDDO
  PRINT *, ((v1 * -1) / (2 + 6))
  v2 = 1
  IF (f0 .GT. 0) THEN
    CALL proc72(f0 - 1, v2)
  ENDIF
  CALL proc78(5, v1)
  CALL proc84(5, v0)
END

SUBROUTINE proc72(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 14
  v2 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF ((la(4) * la(6)) .NE. la(9) .AND. mod(la(5), 2) .LT. (la(9) * la(8))) THEN
    PRINT *, g0
    la(7) = 15
  ENDIF
  PRINT *, max(g2, la(3))
  f1 = v0
  IF (la(10) .LT. (la(8) / (5 + g0))) g0 = mod(14, 6)
  v2 = mod(g3, 4)
  v0 = (-3 - abs(la(8)))
  IF (f0 .GT. 0) THEN
    CALL proc73(f0 - 1, (0 + 10))
  ENDIF
END

SUBROUTINE proc73(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 6
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  v0 = max(la(10), -1)
  IF ((la(8) / (3 + la(11))) .GE. -2) THEN
    la(10) = (7 - (-4 + 12))
    g2 = g0
  ELSE
    DO g0 = 2, 2
      v1 = mod(la(9), 2)
    ENDDO
  ENDIF
  v1 = ((1 + 2) + 13)
  PRINT *, v0
  DO g3 = 3, 7
    IF (abs(15) .EQ. f1 .OR. (11 + la(10)) .LT. max(f1, f1)) v0 = la(5)
  ENDDO
  PRINT *, 11
  PRINT *, abs(f0)
  IF (f0 .GT. 0) THEN
    CALL proc74(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc74(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 0
  v1 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  g0 = 1
  DO g3 = 1, 1
    g2 = 15
  ENDDO
  g1 = 11
  g2 = g1
  DO g3 = 3, 7
    IF (.NOT. (max(-3, la(4)) .EQ. 3)) v0 = (12 - 7)
    v0 = abs((-5 * -2))
  ENDDO
  la(9) = g3
  IF (.NOT. (f1 .LT. la(10))) THEN
    IF (2 .LT. (-5 * la(8))) THEN
      g3 = (abs(la(1)) - -5)
    ELSE
      v0 = la(9)
    ENDIF
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc71(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc75(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 4
  v1 = 0
  v2 = -1
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  DO v1 = 2, 6
    IF (abs(14) .GE. abs(7)) THEN
      IF (abs(10) .GE. (la(2) + f1) .AND. abs(10) .NE. max(14, f1)) v3 = (la(12) * 3)
    ELSE
      v3 = (max(g3, 14) * 1)
    ENDIF
    g0 = (la(11) * 1)
  ENDDO
  g0 = (la(8) * la(1))
  la(4) = max(la(9), 4)
  IF (f0 .GT. 0) THEN
    CALL proc76(f0 - 1, v3)
  ENDIF
  CALL proc90(5, 10)
  CALL proc95(5, v1)
END

SUBROUTINE proc76(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 14
  v1 = 11
  v2 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 2
  IF ((2 + -4) .EQ. 7 .AND. abs(v2) .LT. mod(6, 6)) THEN
    g0 = mod((11 + -2), 4)
    g0 = (la(9) + g2)
  ENDIF
  g0 = la(12)
  v1 = mod((v0 + 14), 3)
  g0 = (abs(la(7)) + (6 / (2 + 3)))
  g0 = ((v2 + g2) / (3 + g0))
  IF (.NOT. (abs(v1) .LE. (-3 * g1))) THEN
    DO g1 = 0, 1
      IF (la(3) .EQ. 13 .OR. 9 .LE. 10) g0 = (g3 * la(9))
      g0 = -5
    ENDDO
    f1 = 9
  ENDIF
  la(5) = la(4)
  IF (f0 .GT. 0) THEN
    CALL proc77(f0 - 1, (0 + abs(f0)))
  ENDIF
END

SUBROUTINE proc77(f0, f1)
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
  v1 = g0
  v1 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc75(f0 - 1, 8)
  ENDIF
END

SUBROUTINE proc78(f0, f1)
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
  IF (12 .LT. g0 .OR. (la(10) / (3 + 8)) .GT. (1 * 13)) THEN
    v2 = max(v2, 13)
    IF (la(8) .NE. (la(10) - v2)) g3 = (la(12) / (3 + v1))
  ELSE
    la(10) = -1
  ENDIF
  PRINT *, (g1 - max(-4, la(11)))
  IF (mod(la(12), 8) .EQ. (8 / (5 + la(12)))) THEN
    v1 = mod(2, 3)
  ENDIF
  v0 = mod(max(11, 4), 3)
  f1 = abs(v3)
  g3 = abs(1)
  f1 = abs((la(1) + 13))
  IF (f0 .GT. 0) THEN
    CALL proc79(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc79(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 2
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(12) = g1
  f1 = 2
  DO v0 = 0, 1
    IF ((10 - v1) .LE. mod(14, 7) .AND. la(1) .GE. (la(1) + la(1))) g1 = mod(g0, 3)
  ENDDO
  DO v0 = 0, 3
    PRINT *, ((f1 / (5 + 7)) - (g0 - 0))
    DO g2 = 0, 4
      g3 = f0
      la(11) = abs(f0)
    ENDDO
  ENDDO
  IF (.NOT. ((-2 / (2 + 2)) .LT. 6)) v1 = -2
  v0 = 8
  IF (f0 .GT. 0) THEN
    CALL proc80(f0 - 1, (0 + (f1 * 15)))
  ENDIF
END

SUBROUTINE proc80(f0, f1)
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
    IF (la(12) .LE. 3 .OR. (11 + 15) .LT. (g3 + v1)) THEN
      g3 = la(7)
    ENDIF
    IF (abs(la(11)) .GE. (g1 - g3) .OR. mod(la(5), 5) .EQ. (g1 + v1)) THEN
      v2 = 6
      g3 = g3
    ENDIF
  ELSE
    g2 = (la(10) * v3)
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc81(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc81(f0, f1)
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
    g0 = ((v1 / (3 + v0)) * -2)
  ENDDO
  DO g0 = 3, 3
    IF ((5 / (6 + 10)) .GE. abs(v0) .AND. 7 .EQ. mod(la(12), 8)) THEN
      g1 = max(13, 10)
    ELSE
      v0 = (abs(7) / (2 + 5))
      g2 = -5
    ENDIF
  ENDDO
  g1 = max(2, la(11))
  v2 = max(la(12), v2)
  v0 = ((f1 / (3 + -4)) + -4)
  DO v0 = 0, 0
    g3 = 7
    g3 = 14
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc82(f0 - 1, (0 + (la(10) / (3 + 2))))
  ENDIF
END

SUBROUTINE proc82(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 1
  v1 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (max(2, la(6)) .EQ. abs(la(10))) g2 = abs(g0)
  IF (f0 .GT. 0) THEN
    CALL proc83(f0 - 1, 5)
  ENDIF
END

SUBROUTINE proc83(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = 2
  v2 = 8
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  IF (5 .GT. v0) THEN
    IF ((v1 - 9) .GT. mod(-4, 7) .OR. (f0 + 0) .GT. la(10)) THEN
      g0 = 12
      g0 = (max(la(10), 4) / (3 + la(9)))
    ELSE
      g0 = (8 * la(12))
      v1 = (2 + 1)
    ENDIF
    la(3) = max(3, -5)
  ELSE
    DO g2 = 1, 1
      g0 = max(v0, 14)
    ENDDO
    g1 = max(10, la(5))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc78(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc84(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 14
  v1 = 11
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 4
  DO f1 = 1, 3
    v1 = mod(la(12), 7)
    PRINT *, -3
  ENDDO
  g0 = la(8)
  IF (g1 .LE. -5) THEN
    v0 = v0
    IF ((la(8) - 7) .LT. 15) THEN
      g3 = 10
    ELSE
      v0 = (f1 - la(7))
    ENDIF
  ENDIF
  IF (0 .GE. (la(2) / (3 + -5)) .OR. 10 .GE. (v1 * 5)) g0 = mod(f0, 6)
  f1 = abs(g0)
  IF (.NOT. (la(3) .LT. max(la(2), 12))) THEN
    f1 = 5
    g0 = -5
  ENDIF
  g0 = 9
  v0 = ((14 - la(1)) * la(9))
  IF (f0 .GT. 0) THEN
    CALL proc85(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc85(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 9
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  v1 = 7
  v0 = ((la(12) + -1) / (3 + la(8)))
  PRINT *, 2
  IF (f0 .GT. 0) THEN
    CALL proc86(f0 - 1, v0)
  ENDIF
END

SUBROUTINE proc86(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -3
  v1 = -4
  v2 = -3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 7
  DO g0 = 3, 4
    IF (la(1) .EQ. max(12, la(12)) .OR. f1 .EQ. 0) THEN
      IF (8 .LE. max(v1, g2) .AND. (9 * la(4)) .LT. (10 - 1)) v1 = abs(11)
    ELSE
      f1 = (mod(la(10), 6) / (2 + g2))
    ENDIF
  ENDDO
  g1 = ((la(7) * la(11)) / (6 + 3))
  DO v0 = 3, 6
    g0 = mod((f0 - la(9)), 6)
  ENDDO
  IF ((g2 + 1) .GE. 0 .AND. max(-5, 12) .GE. la(1)) THEN
    g0 = 1
  ELSE
    g2 = 6
    PRINT *, ((-5 - g1) - (10 * la(1)))
  ENDIF
  la(1) = (10 + -1)
  IF (la(5) .LT. 1) g1 = max(8, 8)
  PRINT *, 1
  f1 = (7 / (5 + la(2)))
  IF (f0 .GT. 0) THEN
    CALL proc87(f0 - 1, 4)
  ENDIF
END

SUBROUTINE proc87(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 11
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF (.NOT. (-3 .GE. (15 / (2 + g3)))) g3 = g1
  PRINT *, f0
  DO g2 = 2, 4
    g3 = mod(4, 8)
    IF (.NOT. (abs(3) .EQ. (-5 - -1))) f1 = abs(g3)
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc88(f0 - 1, (0 + 9))
  ENDIF
END

SUBROUTINE proc88(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 8
  v1 = -2
  v2 = 0
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 7
  la(9) = la(12)
  DO f1 = 2, 4
    IF (9 .GE. la(4)) v2 = 3
  ENDDO
  g1 = (max(la(1), 13) + mod(la(5), 6))
  IF (5 .EQ. (12 + la(7)) .OR. 10 .NE. 1) g1 = mod(11, 2)
  PRINT *, ((1 + la(12)) * la(6))
  IF (f0 .GT. 0) THEN
    CALL proc89(f0 - 1, (0 + (la(5) / (5 + 6))))
  ENDIF
END

SUBROUTINE proc89(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = -2
  v1 = 6
  v2 = 5
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  IF ((9 - 14) .NE. (la(6) / (3 + 2)) .OR. la(5) .LE. g1) THEN
    g0 = mod(9, 7)
    DO g3 = 3, 3
      g2 = (v2 * 1)
      g0 = la(2)
    ENDDO
  ELSE
    v1 = max(la(4), la(9))
    PRINT *, 15
  ENDIF
  IF (abs(-3) .GT. 15 .OR. la(11) .LT. -4) THEN
    v0 = mod(la(10), 3)
  ENDIF
  g3 = abs(9)
  g1 = 5
  la(8) = 10
  g1 = max(0, g2)
  v0 = la(5)
  IF (f0 .GT. 0) THEN
    CALL proc84(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc90(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -2
  v1 = 10
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  DO g3 = 3, 7
    f1 = abs(la(12))
    DO f1 = 2, 6
      IF (10 .NE. (6 + g0) .OR. 4 .GE. (5 - la(6))) v0 = v1
    ENDDO
  ENDDO
  g0 = (0 - (9 * g3))
  g1 = abs(la(5))
  f1 = v0
  IF (f0 .GT. 0) THEN
    CALL proc91(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc91(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 1
  v1 = 2
  v2 = 9
  v3 = -2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 0
  la(3) = la(11)
  v1 = abs(9)
  IF (mod(-5, 3) .EQ. (la(7) + 1) .AND. v3 .LE. la(12)) THEN
    g2 = 7
    v0 = (abs(la(7)) + abs(5))
  ENDIF
  DO f1 = 2, 2
    g0 = (g3 - max(g2, 8))
    IF (.NOT. (4 .LT. abs(6))) v2 = max(g1, 0)
  ENDDO
  g2 = -1
  f1 = v0
  v1 = ((-3 - v2) * la(6))
  g2 = f0
  g3 = la(8)
  g0 = g3
  IF (f0 .GT. 0) THEN
    CALL proc92(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc92(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = 13
  v1 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  v1 = 7
  f1 = -4
  IF (abs(1) .GE. la(8) .OR. (10 * 1) .GE. 11) THEN
    IF (.NOT. (max(15, 12) .EQ. (la(10) - 6))) THEN
      g2 = 3
      g2 = ((v1 / (2 + 5)) - max(5, la(9)))
    ELSE
      f1 = ((g1 * la(11)) * g2)
      IF ((5 / (3 + 8)) .GT. la(12)) g1 = (11 + 2)
    ENDIF
  ENDIF
  IF ((1 - f1) .LE. (f1 * 14)) THEN
    PRINT *, (8 * -5)
  ELSE
    la(10) = (la(5) + 5)
  ENDIF
  DO g1 = 1, 2
    v1 = g3
    PRINT *, mod((v0 + la(5)), 4)
  ENDDO
  f1 = (10 / (4 + f0))
  la(7) = (f0 - (la(4) * 15))
  v1 = abs((v0 / (6 + v0)))
  g1 = la(11)
  IF (f0 .GT. 0) THEN
    CALL proc93(f0 - 1, (0 + mod(f0, 4)))
  ENDIF
END

SUBROUTINE proc93(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = -4
  v1 = -2
  v2 = 4
  v3 = -1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 6
  IF (-3 .LE. -1) THEN
    PRINT *, max(la(6), 13)
  ELSE
    la(5) = 1
    v2 = 13
  ENDIF
  v3 = 0
  DO g3 = 3, 5
    IF (5 .LT. g3 .AND. max(v2, -1) .LE. abs(8)) THEN
      v0 = f0
      PRINT *, 9
    ENDIF
    g2 = (mod(v3, 5) * v3)
  ENDDO
  g1 = mod((13 * 14), 2)
  g1 = abs((7 + la(1)))
  la(7) = 4
  IF (.NOT. (max(10, la(3)) .NE. (la(8) / (3 + f1)))) v1 = (-2 - 11)
  PRINT *, (max(13, 14) * 12)
  IF (v1 .LT. (10 * 4) .AND. v1 .NE. abs(la(1))) g0 = -2
  DO v1 = 1, 3
    DO g1 = 0, 1
      v0 = la(10)
    ENDDO
    g2 = g0
  ENDDO
  IF (f0 .GT. 0) THEN
    CALL proc94(f0 - 1, v2)
  ENDIF
END

SUBROUTINE proc94(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, la(12)
  v0 = -1
  v1 = 3
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 8
  g0 = (abs(13) * f0)
  g2 = -2
  PRINT *, 5
  f1 = ((v1 - la(3)) * -1)
  v1 = max(la(5), -4)
  IF (f0 .GT. 0) THEN
    CALL proc90(f0 - 1, v1)
  ENDIF
END

SUBROUTINE proc95(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 6
  v1 = -2
  v2 = 2
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 5
  IF (g3 .LE. g0 .OR. 5 .NE. v0) v1 = (la(7) / (3 + 10))
  IF ((12 * f0) .GE. abs(la(10)) .AND. 15 .LE. (la(9) + 6)) v1 = 14
  v0 = (max(7, v2) - 2)
  v1 = mod(la(12), 2)
  la(5) = mod(mod(la(4), 4), 6)
  PRINT *, (mod(la(5), 5) + 2)
  PRINT *, mod(-2, 3)
  IF (max(6, -4) .EQ. (f1 + g0)) THEN
    v0 = (g3 / (6 + 3))
    PRINT *, abs((la(3) / (5 + g2)))
  ENDIF
  IF (f0 .GT. 0) THEN
    CALL proc96(f0 - 1, (0 + (4 - v2)))
  ENDIF
END

SUBROUTINE proc96(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 10
  v1 = 1
  v2 = 1
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  f1 = (3 * g0)
  IF (la(7) .GE. la(10) .OR. (11 - la(7)) .NE. -4) THEN
    PRINT *, g1
  ENDIF
  PRINT *, max(14, g3)
  IF (-3 .GE. mod(v0, 8) .OR. (4 / (6 + la(10))) .GE. (la(5) / (4 + 1))) THEN
    v1 = 5
    IF ((g1 - la(1)) .LT. f0) g2 = abs(la(3))
  ENDIF
  DO v0 = 2, 4
    DO g2 = 1, 5
      PRINT *, 2
    ENDDO
  ENDDO
  DO g3 = 0, 3
    v1 = g1
  ENDDO
  PRINT *, max(la(9), la(7))
  g0 = abs(abs(6))
  g2 = 9
  IF (.NOT. ((-4 + f0) .EQ. (8 + la(12)))) g3 = (g0 * 11)
  IF (f0 .GT. 0) THEN
    CALL proc97(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc97(f0, f1)
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
  g1 = v1
  g1 = 8
  la(7) = 4
  IF (f0 .GT. 0) THEN
    CALL proc98(f0 - 1, 6)
  ENDIF
END

SUBROUTINE proc98(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, v3, la(12)
  v0 = 2
  v1 = 4
  v2 = 13
  v3 = 12
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 3
  la(2) = -2
  g1 = mod((11 / (4 + -1)), 6)
  IF ((f0 * 8) .LE. mod(3, 7) .OR. 8 .NE. la(7)) v0 = (4 + g3)
  g3 = ((la(6) + -5) - v2)
  IF ((15 / (5 + v1)) .GT. abs(0) .AND. v0 .GT. (11 * v3)) v2 = max(v2, 11)
  g0 = abs(max(g2, g1))
  IF (f0 .GT. 0) THEN
    CALL proc99(f0 - 1, f1)
  ENDIF
END

SUBROUTINE proc99(f0, f1)
  COMMON /gg/ g0, g1, g2, g3
  INTEGER v0, v1, v2, la(12)
  v0 = 3
  v1 = 7
  v2 = 7
  DO v0 = 1, 12
    la(v0) = v0
  ENDDO
  v0 = 1
  la(8) = (mod(g2, 5) - la(5))
  IF (f0 .GT. 0) THEN
    CALL proc95(f0 - 1, f1)
  ENDIF
END
