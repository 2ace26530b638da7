(** The incremental reanalysis engine.

    Every per-procedure artifact of the pipeline depends only on that
    procedure's resolved AST and its transitive callees (its stage-4
    substitution also on its entry CONSTANTS), so after an edit only the
    changed procedures and their transitive {e callers} (their caller
    closure) are rebuilt; everything else is kept.  A cache directory
    holds per key a manifest and immutable per-procedure summary and
    substitution objects (see {!Store}); the last manifest of each
    (directory, key) is also kept in process with its decoded objects
    and the lowered IR, trusted while the manifest on disk is unchanged.
    This module decides what the cache still justifies keeping and hands
    it to {!Ipcp_core.Driver.analyze} as its reuse input; the driver runs
    the pipeline, cold or warm, so a cached run without a usable manifest
    is the cold run.  The converged propagation fixpoint is a
    whole-program artifact, replayed only on an exact content match and
    otherwise re-solved from ⊤ — never resumed from stale values.
    Behind [Config.verify_ir], a replayed fixpoint is checked against a
    fresh solve, and kept IR and substitutions no verifying run checked
    are checked (warm ≡ cold). *)

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
      (** [Some reason] when no usable manifest was found *)
  r_procs : int;
  r_changed : int;  (** procedures whose content hash differs *)
  r_dirty : int;  (** changed plus their transitive callers *)
  r_ir_reused : int;  (** CFG + SSA kept from the in-process copy *)
  r_summary_reused : int;
  r_fixpoint_reused : bool;
  r_substitution_reused : bool;
      (** every procedure's substitution came from its object *)
}

type outcome = {
  o_driver : Driver.t;
  o_report : report;
  o_replay : run_stats option;
      (** on a fixpoint hit: the producing run's deterministic counters,
          for byte-identical warm statistics *)
  o_substitution : Substitute.result option;
      (** with a cache directory: the substitution, rewritten from the
          substitution objects that still apply and computed for the
          other procedures; [None] without one *)
  o_commit : (run_stats -> Substitute.result -> bool) option;
      (** call to persist the manifest and the objects not yet on disk
          once the run statistics are in hand; [None] when the cache is
          already exact.  The substitution argument is ignored: the
          objects are those of [o_substitution].  Returns [false] (after
          printing a warning) if a write failed. *)
  o_keys : (string * (string * string) list) option;
      (** with a cache directory: {!program_key} and
          {!content_fingerprints} of the program, as computed for the
          lookup *)
}

val content_fingerprints : Symtab.t -> (string * string) list
(** Per-procedure content fingerprints ({!Fingerprint.content}), in
    declaration order — what a cache lookup compares against its
    manifest; stable across whitespace and across edits to other
    procedures.  The diff of two programs' fingerprint lists is the
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
    than a wrong one.  A missing or damaged object degrades to
    recomputing its procedure (counted as [incr.object.missing] or
    [incr.object.corrupt]). *)

val entries : string -> Store.entry_info list
(** {!Store.entries} of a cache directory, each manifest's objects
    checked. *)

val forget : dir:string -> key:string -> unit
(** Drop the in-process copy of [key]'s cache in [dir]: its next run
    reads the manifest and objects from disk, as a fresh process does. *)
