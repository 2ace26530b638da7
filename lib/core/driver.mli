(** The four-stage pipeline of §4.1: return jump functions (bottom-up) →
    forward jump functions (per-procedure symbolic evaluation) →
    interprocedural propagation → result recording.

    {!analyze} is the one implementation of the pipeline, cold or
    incremental: the incremental engine (lib/incr) passes it a {!reuse}
    built from its cache, and a run without one computes everything. *)

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

(** What a run keeps of one procedure's stage 1–2 results: plain data,
    safe to marshal. *)
type summary = {
  su_eval : Symeval.artifact;  (** the stage-2 symbolic evaluation *)
  su_jfs : Jumpfn.site_jfs list;
      (** the jump functions of its call sites; replayed only when the
          procedure's CFG is kept too, rebuilt from [su_eval] otherwise
          (their source locations may have moved) *)
  su_rjf : Symeval.value Returnjf.RT.t;  (** its return jump functions *)
  su_modref : (Modref.IS.t * Modref.IS.t) option;
      (** its MOD and REF rows; absent when [config.use_mod] is false *)
}

(** What an earlier run of the same configuration still justifies
    keeping. *)
type reuse = {
  keep_ir : (Cfg.t * Ssa.conv) Ipcp_frontend.Names.SM.t;
      (** CFG and SSA form of each procedure whose text, source locations
          and first call-site id are unchanged *)
  unchecked_ir : Ipcp_frontend.Names.SS.t;
      (** the procedures of [keep_ir] whose forms no run with
          [config.verify_ir] has checked; a verifying run checks them *)
  keep_summaries : summary Ipcp_frontend.Names.SM.t;
      (** the summaries of procedures whose content is unchanged; the run
          keeps those of {!kept_summaries} *)
  keep_fixpoint : Solver.t option;
      (** the propagation fixpoint, when the whole program is unchanged;
          re-solved and compared under [config.verify_ir] *)
}

val no_reuse : reuse
(** Nothing to keep: the cold run. *)

val kept_summaries :
  reuse -> Callgraph.t -> summary Ipcp_frontend.Names.SM.t
(** The summaries a run over call graph [cg] keeps: those of
    [keep_summaries] outside the caller closure
    ({!Callgraph.caller_closure}) of the procedures without one. *)

val analyze : ?config:Config.t -> ?reuse:reuse -> Symtab.t -> t
(** Run the whole pipeline, keeping what [reuse] (default {!no_reuse})
    holds.  [config] defaults to {!Config.default}.  Raises
    [Ipcp_frontend.Diag.Error] if a kept fixpoint differs from a fresh
    solve under [config.verify_ir]. *)

val summary : t -> string -> summary
(** What a later run may keep of procedure [p]. *)

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

val final_evals : ?procs:string list -> t -> Symeval.t Ipcp_frontend.Names.SM.t
(** {!final_eval} for every procedure, or for [procs] only, parallel
    across procedures when [config.jobs > 1] (results identical to the
    sequential map). *)

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
