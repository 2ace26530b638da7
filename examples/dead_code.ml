(** Complete propagation: interleaving constant propagation with dead-code
    elimination (Table 3 of the paper).  A configuration flag that is
    constant-false guards reassignments; plain propagation must merge both
    sides of the branch and loses the constants, while complete
    propagation proves the branch dead, removes it, and recovers them —
    the effect the paper observed in ocean and spec77.

    Run with: [dune exec examples/dead_code.exe] *)

open Ipcp_frontend
module Driver = Ipcp_core.Driver
module Complete = Ipcp_opt.Complete
module Clattice = Ipcp_domains.Clattice

let source =
  {|
PROGRAM model
  COMMON /opts/ idebug
  INTEGER nx, ny
  DATA idebug /0/
  nx = 32
  ny = 64
  IF (idebug .EQ. 1) THEN
    ! debugging configuration: tiny grid
    nx = 4
    ny = 4
  ENDIF
  CALL stepper(nx, ny)
END

SUBROUTINE stepper(mx, my)
  INTEGER mx, my
  PRINT *, mx, my, mx * my
END
|}

let show label count t =
  let v name = Ipcp_core.Solver.val_of t.Driver.solver "stepper" name in
  Fmt.pr "%-22s VAL(stepper, mx) = %a, VAL(stepper, my) = %a, substituted = %d@."
    label Clattice.pp (v "mx") Clattice.pp (v "my") count

let () =
  let symtab = Sema.parse_and_analyze ~file:"<dead_code>" source in
  let t = Driver.analyze symtab in
  show "plain propagation:" (Ipcp_opt.Substitute.count t) t;

  let r = Complete.run source in
  show "complete propagation:" r.Complete.count r.Complete.final;
  Fmt.pr "  (converged in %d rounds)@." r.Complete.rounds;
  Fmt.pr "@.final source after pruning:@.@.%s" r.Complete.final_source
