
PROGRAM adm
  INTEGER c(80), w(80), k
  DO k = 1, 80
    c(k) = 0
    w(k) = 0
  ENDDO
  CALL adm0(c, w, 2)
  CALL adm1(c, w, 3)
  CALL adm2(c, w, 4)
  CALL adm3(c, w, 5)
END

SUBROUTINE adm0(c, w, nlev)
  INTEGER c(80), w(80), nlev, i, dz, dt
  dz = 10
  dt = 30
  ! a quarter of the uses happen before the first helper call
  PRINT *, dz, dt
  CALL smooth0(c, w)
  ! the rest survive only because MOD knows smooth0 touches no scalars
  DO i = 1, 80
    c(i) = c(i) + dz * dt
  ENDDO
  PRINT *, dz + dt, dz - dt
  CALL smooth0(w, c)
  PRINT *, dz * 2, dt * 2, dz + 1, dt + 1
  c(1) = w(1) + nlev
END

SUBROUTINE smooth0(a, b)
  INTEGER a(80), b(80), j
  DO j = 2, 79
    a(j) = (b(j - 1) + b(j + 1)) / 2
  ENDDO
END


SUBROUTINE adm1(c, w, nlev)
  INTEGER c(80), w(80), nlev, i, dz, dt
  dz = 12
  dt = 30
  ! a quarter of the uses happen before the first helper call
  PRINT *, dz, dt
  CALL smooth1(c, w)
  ! the rest survive only because MOD knows smooth1 touches no scalars
  DO i = 1, 80
    c(i) = c(i) + dz * dt
  ENDDO
  PRINT *, dz + dt, dz - dt
  CALL smooth1(w, c)
  PRINT *, dz * 2, dt * 2, dz + 1, dt + 1
  c(1) = w(1) + nlev
END

SUBROUTINE smooth1(a, b)
  INTEGER a(80), b(80), j
  DO j = 2, 79
    a(j) = (b(j - 1) + b(j + 1)) / 2
  ENDDO
END


SUBROUTINE adm2(c, w, nlev)
  INTEGER c(80), w(80), nlev, i, dz, dt
  dz = 14
  dt = 30
  ! a quarter of the uses happen before the first helper call
  PRINT *, dz, dt
  CALL smooth2(c, w)
  ! the rest survive only because MOD knows smooth2 touches no scalars
  DO i = 1, 80
    c(i) = c(i) + dz * dt
  ENDDO
  PRINT *, dz + dt, dz - dt
  CALL smooth2(w, c)
  PRINT *, dz * 2, dt * 2, dz + 1, dt + 1
  c(1) = w(1) + nlev
END

SUBROUTINE smooth2(a, b)
  INTEGER a(80), b(80), j
  DO j = 2, 79
    a(j) = (b(j - 1) + b(j + 1)) / 2
  ENDDO
END


SUBROUTINE adm3(c, w, nlev)
  INTEGER c(80), w(80), nlev, i, dz, dt
  dz = 16
  dt = 30
  ! a quarter of the uses happen before the first helper call
  PRINT *, dz, dt
  CALL smooth3(c, w)
  ! the rest survive only because MOD knows smooth3 touches no scalars
  DO i = 1, 80
    c(i) = c(i) + dz * dt
  ENDDO
  PRINT *, dz + dt, dz - dt
  CALL smooth3(w, c)
  PRINT *, dz * 2, dt * 2, dz + 1, dt + 1
  c(1) = w(1) + nlev
END

SUBROUTINE smooth3(a, b)
  INTEGER a(80), b(80), j
  DO j = 2, 79
    a(j) = (b(j - 1) + b(j + 1)) / 2
  ENDDO
END
