
PROGRAM simple
  INTEGER cycles
  INTEGER r(80), z(80), p(80)
  cycles = 2
  CALL hydro(r, z, p, 80, cycles)
  PRINT *, cycles
END

! the dominant routine, mirroring simple's skewed line distribution
SUBROUTINE hydro(r, z, p, npts, ncyc)
  INTEGER r(80), z(80), p(80), npts, ncyc, i
  INTEGER gamma, cfl, qdamp, rho0
  gamma = 5
  cfl = 9
  qdamp = 3
  rho0 = 1
  CALL bc(r, z)
  PRINT *, gamma + 0, cfl - 0, qdamp * 1, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 2 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 1, cfl - 1, qdamp * 2, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 3 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 2, cfl - 2, qdamp * 3, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 4 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 3, cfl - 3, qdamp * 4, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 5 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 4, cfl - 4, qdamp * 5, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 6 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 5, cfl - 5, qdamp * 6, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 7 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 6, cfl - 6, qdamp * 7, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 8 - cfl
  ENDDO
  CALL eos(p, r)
  CALL bc(r, z)
  PRINT *, gamma + 7, cfl - 7, qdamp * 8, rho0 + gamma
  DO i = 1, 80
    r(i) = r(i) + gamma * 9 - cfl
  ENDDO
  CALL eos(p, r)
  ! a constant-variable actual: literal loses the five uses in energy
  CALL energy(p, gamma)
  ! the chain: npts flows through unchanged to edit
  CALL edit(r, npts)
  PRINT *, ncyc
END

SUBROUTINE bc(r, z)
  INTEGER r(80), z(80)
  r(1) = z(1)
  r(80) = z(80)
END

SUBROUTINE eos(p, r)
  INTEGER p(80), r(80), j
  DO j = 1, 80
    p(j) = r(j) / 2
  ENDDO
END

SUBROUTINE energy(p, g)
  INTEGER p(80), g, j
  DO j = 1, g
    p(j) = p(j) * g
  ENDDO
  PRINT *, g + 1, g - 1, g * g
END

SUBROUTINE edit(r, n)
  INTEGER r(80), n
  ! four uses at the end of a pass-through chain
  PRINT *, n, n / 2, n - 1, n + 1
END
