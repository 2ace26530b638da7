(** Alpern–Wegman–Zadeck (optimistic) partition-based value numbering —
    reference [1] of the paper.  Starts from the coarsest same-operator
    partition and refines to the greatest fixed point, proving
    loop-carried congruences (e.g. two identical inductions) that the
    pessimistic hash pass misses. *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg

type t

val compute : Cfg.t -> t

val congruent : t -> Instr.var -> Instr.var -> bool
