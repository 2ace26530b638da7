(** Hash-based (pessimistic) global value numbering over SSA form: one
    reverse-postorder pass, operands' numbers substituted into hashed
    right-hand sides, commutative operations canonicalised, copies
    transparent.  Every congruence found here is also found by the
    optimistic {!Awz} partitioning (a property test). *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg

type vn = int

type t

val compute : Cfg.t -> t
(** Run over an SSA-form CFG. *)

val number : t -> Instr.var -> vn option

val congruent : t -> Instr.var -> Instr.var -> bool

val classes : t -> Instr.var list list
(** Congruence classes with more than one member, sorted. *)
