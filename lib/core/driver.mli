(** The four-stage pipeline of §4.1: return jump functions (bottom-up) →
    forward jump functions (per-procedure symbolic evaluation) →
    interprocedural propagation → result recording. *)

module Symtab = Ipcp_frontend.Symtab
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref

type t = {
  config : Config.t;
  symtab : Symtab.t;
  cfgs : Cfg.t Ipcp_frontend.Names.SM.t;
  convs : Ssa.conv Ipcp_frontend.Names.SM.t;
  cg : Callgraph.t;
  modref : Modref.t option;  (** absent when [config.use_mod] is false *)
  rjfs : Returnjf.t;  (** empty when [config.return_jfs] is false *)
  evals : Symeval.t Ipcp_frontend.Names.SM.t;
      (** stage-2 symbolic evaluations (entries unbound) *)
  jfs : Jumpfn.site_jfs list Ipcp_frontend.Names.SM.t;
      (** caller -> jump functions of its call sites *)
  solver : Solver.t;
}

val analyze : ?config:Config.t -> Symtab.t -> t
(** Run the whole pipeline.  [config] defaults to {!Config.default}. *)

val analyze_source : ?config:Config.t -> file:string -> string -> Symtab.t * t
(** Parse, check and analyze a complete source text.
    Raises [Ipcp_frontend.Diag.Error] on malformed input. *)

val constants : t -> string -> int Ipcp_frontend.Names.SM.t
(** CONSTANTS(p). *)

val total_constants : t -> int

val final_eval : t -> string -> Symeval.t
(** Stage-4 helper: re-evaluate a procedure with its entry values bound to
    the propagation fixpoint.  SSA names whose values fold to constants
    here are the substitution candidates. *)

val final_evals : t -> Symeval.t Ipcp_frontend.Names.SM.t
(** {!final_eval} for every procedure, parallel across procedures when
    [config.jobs > 1] (results identical to the sequential map). *)

val analyze_ranges : t -> Ranges.t
(** The interval instance: interprocedural range propagation over the
    already-built jump functions plus a per-procedure abstract
    evaluation, yielding the range facts behind
    [ipcp analyze --domain=interval] and the range-aware lint checks. *)

(** Census of the jump functions built, for the §3.1.5 cost ablation. *)
type jf_census = {
  n_bottom : int;
  n_const : int;
  n_passthrough : int;
  n_poly : int;
  total_cost : int;
}

val census : t -> jf_census
