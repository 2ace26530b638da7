
PROGRAM qcd
  INTEGER nsite, ncfg, i
  INTEGER link(30)
  nsite = 16
  ncfg = 5
  PRINT *, nsite, ncfg, nsite * ncfg
  DO i = 1, nsite
    link(i) = 1
  ENDDO
  CALL qcdk0(link, 30)
  CALL qcdk1(link, 30)
  CALL qcdk2(link, 30)
  CALL qcdk3(link, 30)
  CALL measure(link, 30)
  ! a few uses after the calls: MOD information keeps them constant
  PRINT *, nsite + 1, ncfg - 1
END

SUBROUTINE measure(u, len)
  INTEGER u(30), len, j, acc
  acc = 0
  ! the single interprocedural use: len arrives as the literal 30
  DO j = 1, len
    acc = acc + u(j)
  ENDDO
  PRINT *, acc
END

SUBROUTINE qcdk0(u, len)
  INTEGER u(30), len, j, beta, ncol
  beta = 4
  ncol = 3
  ! local constants, used before any call
  PRINT *, beta, ncol, beta * ncol, beta + 0
  DO j = 1, 30
    u(j) = u(j) + beta - ncol
  ENDDO
END


SUBROUTINE qcdk1(u, len)
  INTEGER u(30), len, j, beta, ncol
  beta = 5
  ncol = 3
  ! local constants, used before any call
  PRINT *, beta, ncol, beta * ncol, beta + 1
  DO j = 1, 30
    u(j) = u(j) + beta - ncol
  ENDDO
END


SUBROUTINE qcdk2(u, len)
  INTEGER u(30), len, j, beta, ncol
  beta = 6
  ncol = 3
  ! local constants, used before any call
  PRINT *, beta, ncol, beta * ncol, beta + 2
  DO j = 1, 30
    u(j) = u(j) + beta - ncol
  ENDDO
END


SUBROUTINE qcdk3(u, len)
  INTEGER u(30), len, j, beta, ncol
  beta = 7
  ncol = 3
  ! local constants, used before any call
  PRINT *, beta, ncol, beta * ncol, beta + 3
  DO j = 1, 30
    u(j) = u(j) + beta - ncol
  ENDDO
END
