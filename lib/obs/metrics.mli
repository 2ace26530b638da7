(** Counter registry and solver convergence log (domain-local, gated on
    {!Obs.on}, reset per run).  Every domain accumulates into its own
    registry; the domain pool moves worker accumulators to the
    coordinating domain with {!drain}/{!absorb} when a parallel batch
    joins, so the main domain's registry ends up with the sequential
    totals. *)

val add : string -> int -> unit
(** Add to a named counter (no-op while telemetry is off). *)

val incr : string -> unit

val add_ns : string -> int64 -> unit
(** Add a nanosecond duration to a counter. *)

val observe_ns : string -> int64 -> unit
(** Record one duration observation in the histogram rooted at the given
    name: bumps ["<name>.count"], adds to ["<name>.sum_ns"], and bumps
    one bucket counter among ["<name>.le_1us"], [.le_10us], [.le_100us],
    [.le_1ms], [.le_10ms], [.le_100ms], [.gt_100ms].  Buckets are plain
    counters, so histograms merge across worker domains like any other
    counter.  No-op while telemetry is off. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f] and adds its wall time to the plain counter
    [name]; identity on the thunk while telemetry is off. *)

val time_key : string -> string -> (unit -> 'a) -> 'a
(** [time_key prefix key f] is [time (prefix ^ key) f] that builds the
    counter name only when telemetry is on — for per-procedure timers on
    hot paths, where even the concatenation is measurable waste while
    off. *)

val get : string -> int
(** Current value; [0] for a counter never touched. *)

val snapshot : unit -> (string * int) list
(** All counters of the calling domain, sorted by name. *)

val deterministic : (string * int) list -> (string * int) list
(** The counters that are a pure function of the analysed source and
    configuration: drops wall times, allocation volumes, the incremental
    engine's bookkeeping, and the pool and per-procedure profiles, which
    follow the clock and the scheduler. *)

val drain : unit -> (string * int) list
(** Take the calling domain's non-zero counters and clear its whole
    registry (convergence log included).  Used by the domain pool on
    worker lanes at batch completion; [[]] while telemetry is off. *)

val absorb : (string * int) list -> unit
(** Fold a {!drain}ed accumulator into the calling domain's registry
    (no-op while telemetry is off). *)

(** One solver worklist iteration: queue length after the pop, and the
    VAL-lattice population at that moment. *)
type conv_row = {
  c_iter : int;
  c_worklist : int;
  c_top : int;
  c_const : int;
  c_bottom : int;
}

val converge : worklist:int -> top:int -> const:int -> bottom:int -> unit
(** Append a row to the convergence log (no-op while telemetry is off). *)

val convergence : unit -> conv_row list
(** The log, in iteration order. *)

val reset : unit -> unit
(** Clear every counter and the convergence log. *)
