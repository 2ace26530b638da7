(** Interprocedural MOD/REF side-effect summaries (Cooper–Kennedy style):
    for each procedure, the formal positions and globals it may modify or
    reference, computed bottom-up over the call-graph condensation with
    call-site binding.  Table 3 of the paper shows this is the single most
    valuable ingredient of the analysis. *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Symtab = Ipcp_frontend.Symtab
module Callgraph = Ipcp_callgraph.Callgraph

type item = Pformal of int | Pglobal of string

val pp_item : item Fmt.t

module IS : Set.S with type elt = item

type t

val compute :
  ?clean:(IS.t * IS.t) SM.t -> Symtab.t -> Cfg.t SM.t -> Callgraph.t -> t
(** The MOD and REF sets of every procedure.  A procedure with a
    [(MOD, REF)] row in [clean] keeps it as final, and only the others
    are recomputed.  Sound only when no procedure with a row
    (transitively) calls one without — the incremental engine guarantees
    this by closing its dirty set under callers. *)

val mod_of : t -> string -> IS.t

val ref_of : t -> string -> IS.t

val may_modify : t -> callee:string -> Instr.call_target -> bool
(** May a call to [callee] modify the target?  [Tcaller] targets (unpassed
    caller scalars) are never modifiable when summaries exist. *)

val pp : t Fmt.t
