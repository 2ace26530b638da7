
PROGRAM ocean
  COMMON /grid/ nx, ny, nz, dt, visc, tmax
  COMMON /flags/ irestart
  INTEGER uu(70), vv(70), k
  DATA irestart /0/
  CALL initgr
  ! dead restart branch: reassigns the grid dimensions; only complete
  ! propagation prunes it
  IF (irestart .EQ. 1) THEN
    nx = 128
    ny = 128
  ENDIF
  DO k = 1, 70
    uu(k) = k
    vv(k) = 70 - k
  ENDDO
  CALL tstep0(uu, vv)
  CALL tstep1(vv, uu)
  CALL report(uu)
END

SUBROUTINE initgr
  COMMON /grid/ nx, ny, nz, dt, visc, tmax
  COMMON /flags/ irestart
  ! the ocean effect: constants assigned to COMMON in an initialisation
  ! routine, visible to callers only through return jump functions
  nx = 64
  ny = 32
  nz = 16
  dt = 8
  visc = 5
  tmax = 100
END

SUBROUTINE report(u)
  COMMON /grid/ nx, ny, nz, dt, visc, tmax
  COMMON /flags/ irestart
  INTEGER u(70), s, j
  s = 0
  DO j = 1, nz
    s = s + u(j)
  ENDDO
  PRINT *, s, nz, dt + visc, tmax - 1, nz * 2
  PRINT *, nx - 1, ny - 1
END

SUBROUTINE relax(w, len, niter)
  INTEGER w(70), len, niter, j, omega
  omega = 2
  ! literal actuals: the only constants the no-return configurations keep
  PRINT *, len, niter, omega, len / niter, omega * niter
  DO j = 2, 69
    w(j) = (w(j - 1) + w(j + 1)) / omega
  ENDDO
  PRINT *, niter + 1, omega + len
END

SUBROUTINE tstep0(u, v)
  COMMON /grid/ nx, ny, nz, dt, visc, tmax
  COMMON /flags/ irestart
  INTEGER u(70), v(70), i, beta, cori
  beta = 2
  cori = 9
  ! local constants alongside the initialised globals
  PRINT *, beta, cori, beta * cori, cori - beta
  PRINT *, nz, dt, visc, nz * dt, visc + 0
  DO i = 1, nz
    u(i) = u(i) + v(i) * dt
  ENDDO
  PRINT *, dt - 1, nz + 1, tmax / 2
  ! the restart-branch casualties: nx and ny (recovered by complete
  ! propagation only)
  PRINT *, nx, ny, nx * ny, nx + 0, ny + 0
  CALL relax(u, 70, 4)
  PRINT *, tmax, visc * 2
END


SUBROUTINE tstep1(u, v)
  COMMON /grid/ nx, ny, nz, dt, visc, tmax
  COMMON /flags/ irestart
  INTEGER u(70), v(70), i, beta, cori
  beta = 2
  cori = 9
  ! local constants alongside the initialised globals
  PRINT *, beta, cori, beta * cori, cori - beta
  PRINT *, nz, dt, visc, nz * dt, visc + 1
  DO i = 1, nz
    u(i) = u(i) + v(i) * dt
  ENDDO
  PRINT *, dt - 1, nz + 1, tmax / 2
  ! the restart-branch casualties: nx and ny (recovered by complete
  ! propagation only)
  PRINT *, nx, ny, nx * ny, nx + 1, ny + 1
  CALL relax(u, 70, 4)
  PRINT *, tmax, visc * 2
END
