(** The incremental reanalysis engine.

    Every per-procedure artifact of the pipeline depends only on that
    procedure's resolved AST and its transitive callees, so after an
    edit only the changed procedures and their transitive {e callers}
    (their caller closure) are rebuilt; everything else is kept from a
    persistent on-disk snapshot (see {!Store}).  This module decides what
    the snapshot still justifies keeping and hands it to
    {!Ipcp_core.Driver.analyze} as its reuse input; the driver runs the
    pipeline, cold or warm, so a cached run without a usable snapshot is
    the cold run.  The converged propagation fixpoint and the
    substitution result are whole-program artifacts, replayed only on an
    exact content match and otherwise re-solved from ⊤ — never resumed
    from stale values.  Behind [Config.verify_ir], a replayed fixpoint is
    checked against a fresh solve (warm ≡ cold). *)

module Symtab = Ipcp_frontend.Symtab
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Substitute = Ipcp_opt.Substitute

type run_stats = {
  rs_counters : (string * int) list;
      (** deterministic analysis counters of the run that produced the
          cached fixpoint (timing/GC/incr keys excluded) *)
  rs_convergence : Ipcp_obs.Metrics.conv_row list;
}

type policy =
  | Disabled  (** plain {!Driver.analyze}, no cache I/O *)
  | Dir of string  (** cache directory *)

type report = {
  r_enabled : bool;
  r_cold : string option;
      (** [Some reason] when no usable snapshot was found *)
  r_procs : int;
  r_changed : int;  (** procedures whose content hash differs *)
  r_dirty : int;  (** changed plus their transitive callers *)
  r_ir_reused : int;
  r_summary_reused : int;
  r_fixpoint_reused : bool;
  r_substitution_reused : bool;
}

type outcome = {
  o_driver : Driver.t;
  o_report : report;
  o_replay : run_stats option;
      (** on a fixpoint hit: the producing run's deterministic counters,
          for byte-identical warm statistics *)
  o_substitution : Substitute.result option;  (** on a fixpoint hit *)
  o_commit : (run_stats -> Substitute.result -> bool) option;
      (** call to persist the snapshot once the whole-program artifacts
          are in hand; [None] when the cache is already exact.  Returns
          [false] (after printing a warning) if the write failed. *)
}

val fingerprints : Symtab.t -> (string * Fingerprint.proc_fp) list
(** Both tiers of every procedure's fingerprint ({!Fingerprint.proc}),
    in declaration order, at its program-wide call-site offset — what a
    cache lookup compares against its snapshot. *)

val content_fingerprints : Symtab.t -> (string * string) list
(** Per-procedure content fingerprints ([fp_content] of
    {!fingerprints}, computed through {!Fingerprint.content} alone), in
    declaration order — stable across whitespace and across edits to
    other procedures.  The diff of two programs' fingerprint lists is the
    changed set of an incremental update. *)

val program_key : Config.t -> Symtab.t -> string
(** The whole-program content key that guards fixpoint reuse: the
    {!Fingerprint.program} digest (hex-encoded) over the configuration
    key, the global table and {!content_fingerprints}.
    Two sources with equal keys produce byte-identical analysis
    results, which is what makes the key usable as a response-cache
    key. *)

val analyze :
  ?config:Config.t -> policy:policy -> key:string -> Symtab.t -> outcome
(** Analyze [symtab], reusing whatever the cache entry under [key]
    still justifies.  [key] names the compilation unit (typically the
    source path); the configuration and global table are fingerprinted
    into the entry, so switching either falls back to a cold run rather
    than a wrong one. *)
