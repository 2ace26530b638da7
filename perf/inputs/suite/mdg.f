
PROGRAM mdg
  INTEGER natoms, nstep, dt, i
  INTEGER x(50), f(50)
  natoms = 9
  nstep = 4
  ! local constant uses
  PRINT *, natoms, nstep
  DO i = 1, natoms
    x(i) = i
    f(i) = 0
  ENDDO
  ! natoms is a constant variable actual: the literal technique loses
  ! everything downstream of these two calls
  CALL predic(x, natoms)
  CALL correc(x, f, natoms)
  ! kineti is invoked for water (3 atoms) and for the dimer (6): the two
  ! edges meet to ⊥, so its nmol uses are lost — unless the procedure is
  ! cloned (the advisor reports exactly this opportunity)
  CALL kineti(f, 50, 3)
  CALL kineti(x, 50, 6)
  ! dt comes back from a constant-returning function: return jump
  ! functions are required to see it
  dt = tstep()
  PRINT *, dt
  PRINT *, natoms * nstep
END

SUBROUTINE predic(p, n)
  INTEGER p(50), n, i, order, cut
  order = 7
  cut = 12
  ! local constants, as in the real mdg's hard-coded water geometry
  PRINT *, order, cut, order * cut, cut - order
  ! five uses of the constant-variable formal n
  DO i = 1, n
    p(i) = p(i) + n
  ENDDO
  PRINT *, n, n + 1, n - 1
  PRINT *, order + 1, cut + 1
  CALL intraf(p, n)
END

SUBROUTINE intraf(q, m)
  INTEGER q(50), m
  ! m arrives through predic unchanged: a pass-through chain of length 2
  q(1) = m
END

SUBROUTINE correc(p, g, n)
  INTEGER p(50), g(50), n, i, wmass, hmass
  wmass = 18
  hmass = 1
  PRINT *, wmass, hmass, wmass - hmass, wmass / 2
  ! four more uses of the constant-variable formal
  DO i = 1, n
    p(i) = p(i) + g(i) / n
  ENDDO
  PRINT *, n * 2, n * 3
  PRINT *, wmass + 2, hmass + 2
END

SUBROUTINE kineti(g, len, nmol)
  INTEGER g(50), len, nmol, j
  ! literal actuals: visible to every technique
  DO j = 1, len
    g(j) = g(j) * nmol
  ENDDO
  PRINT *, len / nmol, nmol + nmol
END

INTEGER FUNCTION tstep()
  tstep = 2
END
