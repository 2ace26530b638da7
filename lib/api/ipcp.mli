(** The stable public API of the analyzer: [Ipcp_api.Ipcp].

    This facade is the supported entry point for programmatic consumers
    (the CLI, the benchmark harness and the test suite all go through
    it).  Its surface is versioned by {!api_version}: additions bump
    nothing, and any breaking change to a type or function documented
    here bumps it.  Everything underneath — [Driver], [Solver], the IR
    — remains reachable through {!Result.driver}, but with no stability
    promise.

    Typical use:

    {[
      match Ipcp_api.Ipcp.(analyze (Source.of_string text)) with
      | Error e -> prerr_endline e
      | Ok r ->
          List.iter
            (fun p -> ... Ipcp_api.Ipcp.Result.constants r p ...)
            (Ipcp_api.Ipcp.Result.procedures r)
    ]}

    Passing [~cache:(Cache.Dir dir)] turns on the incremental engine:
    per-procedure artifacts and the converged fixpoint are persisted
    under [dir] and replayed on the next run, with only edited
    procedures and their transitive callers reanalyzed. *)

module Config = Ipcp_core.Config
(** Analysis configurations (re-exported; part of the stable surface). *)

val api_version : int
(** Version of this facade's contract.  Currently [2]: the
    session-oriented surface ({!Session}) is the primary entry point and
    the wire contract of the [ipcp serve] daemon; the v1 one-shot
    functions ({!analyze}, {!analyze_symtab}, {!complete}) remain, as
    thin wrappers over an implicit session, with unchanged signatures
    and behaviour. *)

(** A compilation unit: a file name (used in diagnostics, source
    locations, and as the cache key) plus its text. *)
module Source : sig
  type t

  val of_file : string -> (t, string) result
  (** Read a source file; [Error] carries the I/O error message. *)

  val of_string : ?file:string -> string -> t
  (** Wrap in-memory text; [file] defaults to ["<string>"]. *)

  val file : t -> string

  val text : t -> string
end

(** Cache policy and cache-directory management. *)
module Cache : sig
  type policy =
    | Disabled  (** analyze from scratch, no cache I/O *)
    | Dir of string  (** persist to / replay from this directory *)

  val default_dir : string
  (** [".ipcp-cache"] — the conventional location, used by the CLI's
      [--cache] default. *)

  (** What the incremental engine did for one [analyze] call. *)
  type report = {
    r_enabled : bool;  (** a cache directory was in play *)
    r_cold : string option;
        (** [Some reason] when no usable snapshot was found; [None] on a
            warm run (even a fully-dirty one) *)
    r_procs : int;  (** procedures in the program *)
    r_changed : int;  (** procedures whose content changed *)
    r_dirty : int;  (** changed plus their transitive callers *)
    r_ir_reused : int;  (** CFG+SSA replayed from the cache *)
    r_summary_reused : int;
        (** symbolic evaluations / jump functions / MOD rows replayed *)
    r_fixpoint_reused : bool;
    r_substitution_reused : bool;
  }

  type load_error = Missing | Stale of string | Corrupt of string

  val describe_error : load_error -> string

  type entry = {
    ei_file : string;  (** file name within the cache directory *)
    ei_bytes : int;
    ei_status : (unit, load_error) result;
  }

  val entries : string -> entry list
  (** Inventory of a cache directory. *)

  val clear : string -> int
  (** Remove every entry; returns the number of files removed. *)
end

(** The outcome of one analysis. *)
module Result : sig
  (** Jump-function census (the paper's cost ablation, §3.1.5). *)
  type census = {
    n_bottom : int;
    n_const : int;
    n_passthrough : int;
    n_poly : int;
    total_cost : int;
  }

  type solver_stats = {
    pops : int;  (** worklist pops *)
    jf_evals : int;  (** jump-function evaluations *)
    jf_eval_cost : int;  (** Σ cost(J) over evaluations *)
    lowerings : int;  (** VAL entries lowered *)
  }

  (** The constant-substitution transform of the analyzed program. *)
  type substitution = {
    program : Ipcp_frontend.Ast.program;  (** the transformed source *)
    per_proc : int Ipcp_frontend.Names.SM.t;
    total : int;  (** the number every table of the paper reports *)
  }

  type t

  val config : t -> Config.t

  val procedures : t -> string list
  (** Procedure names in declaration order (the main program first). *)

  val constants : t -> string -> (string * int) list
  (** CONSTANTS(p): the (parameter, value) pairs proven constant on
      entry to [p], in name order. *)

  val total_constants : t -> int
  (** Total (procedure, parameter) pairs proven constant. *)

  val census : t -> census

  val solver_stats : t -> solver_stats

  val stats : t -> (string * int) list
  (** Deterministic analysis counters of the run that produced this
      result, sorted by name — wall-clock, GC and cache-bookkeeping
      counters are excluded, so a replayed warm run reports the same
      statistics as the cold run that produced its cache entry.  Empty
      when telemetry ([Ipcp_obs.Obs]) is off. *)

  val convergence : t -> Ipcp_obs.Metrics.conv_row list
  (** The solver's convergence log (empty when telemetry is off). *)

  val cache : t -> Cache.report

  val substitution : t -> substitution

  val ranges : t -> Ipcp_core.Ranges.t
  (** Interprocedural value-range analysis over this result: the interval
      instance of the same jump-function framework (computed on demand;
      see {!Ipcp_core.Ranges}).  Feed it back into {!lints} to upgrade
      the fault checks with proved verdicts. *)

  val lints :
    ?enabled:(Ipcp_analysis.Lint.check -> bool) ->
    ?ranges:Ipcp_core.Ranges.t ->
    t ->
    Ipcp_analysis.Lint.finding list
  (** Interprocedural diagnostics over this result (computed on demand;
      see {!Ipcp_analysis.Lint}).  [ranges] supplies interval facts for
      the range-backed checks; without it the findings match the
      historical engine exactly. *)

  val lints_with_verdicts :
    ?enabled:(Ipcp_analysis.Lint.check -> bool) ->
    ?ranges:Ipcp_core.Ranges.t ->
    t ->
    Ipcp_analysis.Lint.finding list * Ipcp_analysis.Lint.verdict_totals
  (** {!lints} plus the verdict census of the fault-candidate sites
      (meaningful when [ranges] is supplied). *)

  val driver : t -> Ipcp_core.Driver.t
  (** Escape hatch to the underlying pipeline state.  {b Unstable}: not
      covered by {!api_version}.

      {b Deprecated} since api_version 2.  Ranges, lints and the
      registry's reports have stable entry points on {!Result} and
      {!Domains}, but several uses have none yet and reach the driver
      through here: [ipcp explain] (with and without [--contexts]),
      [ipcp lint --contexts], [ipcp compare-precision], [ipcp clone]
      and the [perf/] benchmark.  The escape hatch will be removed when
      api_version 3 gives those a stable entry point; see DESIGN.md
      §"API v2 and the wire protocol" for the migration table. *)
end

(** The analysis registry: every monotone-framework instance behind
    [ipcp analyze --domain=NAME], addressable by name, plus the
    context-sensitive (value-context tabulation) instantiations behind
    [--contexts].  Both read the one table of {!Ipcp_contexts.Registry}.
    Additive over api_version 1 — existing entry points are
    untouched. *)
module Domains : sig
  type report = { text : string; json : string }
  (** Deterministic renderings of one analysis run: human-readable text
      and a JSON document (procedures and facts in sorted order). *)

  val names : unit -> string list
  (** Registered analysis names, in registry order. *)

  val describe : string -> string option
  (** One-line description of a registered analysis. *)

  val run : string -> Result.t -> report option
  (** Run the named analysis over an existing result's artifacts
      (jump functions, call graph, CFGs are reused, not rebuilt);
      [None] if the name is not registered. *)

  val context_names : unit -> string list
  (** Value domains with a context-sensitive (value-context tabulation)
      instantiation — the names [ipcp analyze --contexts] accepts.  A
      subset of {!names}: flow problems have no entry environment to
      tabulate. *)

  val describe_contexts : string -> string option

  val run_contexts :
    ?ctx_limit:int -> ?warm:bool -> string -> Result.t -> report option
  (** Run the named domain's value-context tabulation
      ({!Ipcp_contexts.Tabulation}): a context table keyed by
      (procedure, entry abstract value), reported as the per-context
      entry/exit table plus the per-procedure merged view.  [ctx_limit]
      caps exact contexts per procedure (overflow merges into a widened
      fallback context); [warm] (default true) consults the
      process-global context-exit cache keyed by deep fingerprints.
      [None] if the domain has no context-sensitive instantiation. *)
end

(** A resident analysis session: one compilation unit held warm across
    incremental updates and queries.  This is the primary surface of
    api_version 2 and the contract the [ipcp serve] daemon exposes over
    the wire — one session per served program, queries answered from
    the converged in-memory result, updates reanalyzing only the dirty
    closure (changed procedures and their transitive callers) when a
    persistent cache is attached.

    Sessions are single-owner mutable state: callers that share one
    across domains must serialize access per session (the serve
    dispatcher does). *)
module Session : sig
  type t

  (** What one lifecycle step (open/update/invalidate) dirtied. *)
  type dirty = {
    d_generation : int;  (** session generation after the step; open = 1 *)
    d_procs : int;  (** procedures in the program *)
    d_changed : int;
        (** procedures whose content fingerprint changed (removed
            procedures included) *)
    d_dirty : int;  (** changed plus their transitive callers *)
    d_dirty_procs : string list;
        (** the dirty closure by name, sorted; empty on {!open_} (a
            warm open reports counts from the persistent cache) *)
  }

  val open_ :
    ?config:Config.t -> ?cache:Cache.policy -> Source.t -> (t, string) result
  (** Parse, check and analyze [src] into a resident session at
      generation 1.  [cache] attaches the persistent incremental store
      (replayed on open, updated on every {!update}); [Error] carries a
      rendered diagnostic exactly like {!analyze}. *)

  val update : t -> Source.t -> (dirty, string) result
  (** Replace the session's source and reanalyze incrementally: the
      summary reports the changed set (content-fingerprint diff against
      the previous generation) and its transitive-caller closure.  On
      [Error] (lexical/syntax/semantic) the session is left untouched on
      its previous generation. *)

  val invalidate : t -> string list -> dirty
  (** Drop the session's derived artifacts (memoized ranges; the serve
      layer additionally evicts its cached responses) and bump the
      generation.  The argument names the procedures presumed stale
      ([[]] = all); the summary reports their caller closure.  The
      converged fixpoint is kept — the source is unchanged. *)

  val result : t -> Result.t
  (** The current generation's analysis result. *)

  val ranges : t -> Ipcp_core.Ranges.t
  (** As {!Result.ranges}, memoized per generation — repeated range
      queries against a warm session pay the interval fixpoint once. *)

  val contexts : t -> string -> Domains.report option
  (** As {!Domains.run_contexts} with default cap and warm store,
      memoized per generation; the underlying context-exit cache is
      process-global and keyed by deep per-procedure fingerprints, so
      after an {!update} only the dirty subtree's contexts re-settle.
      [None] if the domain has no context-sensitive instantiation. *)

  val fingerprint : t -> string
  (** The whole-program content key of the current generation (the
      incremental engine's {!Ipcp_incr.Incr.program_key}): equal keys
      guarantee byte-identical analysis results, so the serve layer
      uses it to key its response cache — an edit that reverts to a
      previously-seen program hits warm. *)

  val procedures : t -> string list
  (** Procedure names in declaration order. *)

  val source : t -> Source.t

  val config : t -> Config.t

  val cache_policy : t -> Cache.policy

  val generation : t -> int

  val last_dirty : t -> dirty
  (** The summary of the most recent open/update/invalidate. *)

  val closed : t -> bool

  val close : t -> unit
  (** Mark the session closed; subsequent queries raise
      [Invalid_argument].  Idempotent. *)
end

val analyze :
  ?config:Config.t ->
  ?cache:Cache.policy ->
  Source.t ->
  (Result.t, string) result
(** Parse, semantically check and analyze one source.  [Error] carries a
    rendered diagnostic (lexical/syntax/semantic errors included).
    [cache] defaults to [Disabled].

    When telemetry is enabled the call resets the metrics registry on
    entry, so {!Result.stats} always describes exactly this run. *)

val analyze_symtab :
  ?config:Config.t ->
  ?cache:Cache.policy ->
  key:string ->
  Ipcp_frontend.Symtab.t ->
  Result.t
(** As {!analyze}, for callers that already hold a checked symbol table.
    [key] names the cache entry (use the source path).  Raises
    [Ipcp_frontend.Diag.Error] on analysis errors. *)

type complete = {
  count : int;  (** constants substituted across all rounds *)
  rounds : int;
  final_source : string;
  final : Ipcp_core.Driver.t;  (** unstable, like {!Result.driver} *)
}

val complete :
  ?config:Config.t ->
  ?max_rounds:int ->
  Source.t ->
  (complete, string) result
(** "Complete propagation" (the paper's Table 3): iterate propagation
    with dead-code elimination until the source stabilises. *)
