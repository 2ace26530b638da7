(** Return jump functions (§3.2): for each procedure and each value it can
    hand back — a by-reference formal, a global, or a function result —
    the best symbolic approximation of that value on return, over the
    procedure's entry symbols.  Built in one bottom-up pass over the call
    graph. *)

module Instr = Ipcp_ir.Instr
module Ssa = Ipcp_ir.Ssa
module Symtab = Ipcp_frontend.Symtab
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref

type rtarget = RFormal of int | RGlobal of string | RResult

val pp_rtarget : rtarget Fmt.t

module RT : Map.S with type key = rtarget

type t = Symeval.value RT.t Ipcp_frontend.Names.SM.t
(** procedure -> return target -> value over that procedure's entry
    symbols.  ⊤ means the procedure never returns along any path (STOP
    paths do not contribute). *)

val empty : t

val find : t -> proc:string -> target:rtarget -> Symeval.value option

val eval_at :
  t ->
  callee_psym:Symtab.proc_sym ->
  target:rtarget ->
  view:Symeval.site_view ->
  symbolic:bool ->
  Symeval.value
(** Evaluate a return jump function at a call site.  Paper-faithful mode
    ([symbolic:false]) binds supports to {e intraprocedurally constant}
    actuals only and yields ⊥ otherwise; [symbolic:true] substitutes the
    full symbolic values (the gated-SSA-style extension). *)

val policy :
  symtab:Symtab.t ->
  modref:Modref.t option ->
  rjfs:t ->
  symbolic:bool ->
  Symeval.policy
(** The call-site policy combining MOD information ([None] = worst case)
    with return jump functions: unmodified targets are transparent,
    modified ones take the callee's return jump function value. *)

val compute :
  ?scc:Ipcp_callgraph.Scc.t ->
  ?base:t ->
  symtab:Symtab.t ->
  modref:Modref.t option ->
  convs:Ssa.conv Ipcp_frontend.Names.SM.t ->
  cg:Callgraph.t ->
  symbolic:bool ->
  unit ->
  t
(** Build all return jump functions, bottom-up over the SCC condensation.
    Within a recursive component, not-yet-available callee functions are ⊥
    (conservative).  [?scc] reuses an already-computed condensation.
    A procedure with a row in [?base] keeps it instead of recomputing it —
    sound only when the procedure and its transitive callees are
    unchanged since [base] was computed. *)

val pp : t Fmt.t
