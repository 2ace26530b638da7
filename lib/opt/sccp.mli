(** Sparse conditional constant propagation (Wegman–Zadeck; the paper's §5
    comparison), over SSA with executable-edge tracking: code behind a
    constant-false branch never lowers a phi.  Incomparable in precision
    with the symbolic evaluator (SCCP prunes branches; the symbolic
    engine proves algebraic identities). *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Clattice = Ipcp_domains.Clattice

type t = {
  values : (Instr.var, Clattice.t) Hashtbl.t;
  executable : bool array;  (** per block *)
  edge_executable : (int * int, bool) Hashtbl.t;
}

val value : t -> Instr.var -> Clattice.t

(** Call-effect oracle over the constant lattice. *)
type call_oracle = {
  c_calldef : Instr.site -> Instr.call_target -> Clattice.t -> Clattice.t;
  c_result : Instr.site -> Clattice.t;
}

val worst_case_oracle : call_oracle

val mod_oracle : Ipcp_summary.Modref.t -> call_oracle

val run :
  ?oracle:call_oracle ->
  ?entry_binding:(string -> Clattice.t option) ->
  psym:Ipcp_frontend.Symtab.proc_sym ->
  data:int Ipcp_frontend.Names.SM.t ->
  Cfg.t ->
  t

val count_proc : t -> Cfg.t -> int
(** Constant-valued substitutable uses in executable blocks. *)

val count : ?use_mod:bool -> ?verify_ir:bool -> Ipcp_frontend.Symtab.t -> int
(** Whole-program intraprocedural SCCP count: the conditional-branch-aware
    sibling of {!Intra.count}.  [verify_ir] (default true) sanity-checks
    every SSA CFG handed to the propagation. *)
