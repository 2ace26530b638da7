(** The counter registry and the solver convergence log.

    Counters are named monotone integers keyed by dotted paths
    ("solver.pops", "jumpfn.built.const", "gc.minor_words/analyze", …);
    a per-phase family uses a ["family/phase"] suffix so the flat
    namespace still groups naturally when sorted.  Everything is mutable
    state, reset per run by the CLI — the analyzer is a batch program,
    and threading a registry through every pipeline signature would make
    the instrumentation the most invasive part of the code it measures.

    {b Domain safety.}  Since the pipeline's per-procedure stages run on
    a pool of domains ({!Ipcp_par.Pool}), the registry is {e
    domain-local}: every domain accumulates into its own private tables
    (no locks, no contended atomics on the hot increment path).  The
    pool drains each worker's accumulator when a parallel batch
    finishes and {!absorb}s it into the coordinating domain's registry,
    so after a join the main registry holds exactly the totals a
    sequential run would have produced — counters are sums, and sums
    commute.  The convergence log is not merged: the solver is a
    sequential stage and always logs into the domain that runs it.

    The convergence log is the solver's per-iteration trajectory:
    worklist size plus the population of the VAL lattice (how many
    (procedure, parameter) pairs currently sit at ⊤, at a constant, and
    at ⊥).  The solver maintains the population incrementally, so a row
    costs O(1). *)

(* ------------------------------------------------------------------ *)
(* Convergence log rows *)

type conv_row = {
  c_iter : int;  (** worklist iteration (0-based) *)
  c_worklist : int;  (** queue length after the pop *)
  c_top : int;  (** VAL entries still at ⊤ *)
  c_const : int;  (** VAL entries at a constant *)
  c_bottom : int;  (** VAL entries at ⊥ *)
}

(* ------------------------------------------------------------------ *)
(* The per-domain registry *)

type registry = {
  counters : (string, int ref) Hashtbl.t;
  mutable conv_rows : conv_row list;  (** newest first *)
  mutable conv_n : int;
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { counters = Hashtbl.create 128; conv_rows = []; conv_n = 0 })

let registry () = Domain.DLS.get registry_key

let cell name =
  let r = registry () in
  match Hashtbl.find_opt r.counters name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add r.counters name c;
      c

let add name n =
  if Obs.on () then begin
    let r = cell name in
    r := !r + n
  end

let incr name = add name 1

let add_ns name ns = add name (Int64.to_int ns)

(* ------------------------------------------------------------------ *)
(* Duration histograms *)

(* Log-ish fixed buckets: task and wait times in the pool span five
   orders of magnitude, so equal-width buckets would be useless. *)
let hist_buckets =
  [|
    (1_000, "le_1us");
    (10_000, "le_10us");
    (100_000, "le_100us");
    (1_000_000, "le_1ms");
    (10_000_000, "le_10ms");
    (100_000_000, "le_100ms");
  |]

(** Record one duration observation under [name]: bumps
    ["<name>.count"], adds to ["<name>.sum_ns"], and bumps the matching
    ["<name>.le_*"] (or ["<name>.gt_100ms"]) bucket counter.  The
    histogram is just counters, so it drains/absorbs across domains like
    everything else. *)
let observe_ns name ns =
  if Obs.on () then begin
    let ns_i = Int64.to_int ns in
    add (name ^ ".count") 1;
    add (name ^ ".sum_ns") ns_i;
    let rec bucket i =
      if i >= Array.length hist_buckets then "gt_100ms"
      else
        let lim, tag = hist_buckets.(i) in
        if ns_i <= lim then tag else bucket (i + 1)
    in
    add (name ^ "." ^ bucket 0) 1
  end

(** [time name f] runs [f] and adds its wall time to the plain counter
    [name] (identity on the thunk while telemetry is off). *)
let time name f =
  if not (Obs.on ()) then f ()
  else begin
    let t0 = Obs.now_ns () in
    Fun.protect
      ~finally:(fun () -> add_ns name (Int64.sub (Obs.now_ns ()) t0))
      f
  end

(** [time_key prefix key f] is [time (prefix ^ key) f], but builds the
    counter name only when telemetry is on — per-procedure timers sit on
    hot paths where even the concatenation is measurable waste while
    off. *)
let time_key prefix key f =
  if not (Obs.on ()) then f () else time (prefix ^ key) f

(** Current value ([0] when never touched). *)
let get name =
  match Hashtbl.find_opt (registry ()).counters name with
  | Some r -> !r
  | None -> 0

(** All counters of the calling domain, sorted by name. *)
let snapshot () : (string * int) list =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) (registry ()).counters []
  |> List.sort compare

(* Counters that depend on the environment rather than the input: wall
   times, allocation volumes, the incremental engine's own bookkeeping,
   and the pool/per-procedure profiling families (histogram buckets and
   timers follow the scheduler and the clock).  Everything else is a
   pure function of (source, config), which is what makes a replayed
   warm run print the same statistics as the cold run that produced it. *)
let deterministic counters =
  List.filter
    (fun (k, _) ->
      not
        (String.starts_with ~prefix:"time_ns/" k
        || String.starts_with ~prefix:"gc." k
        || String.starts_with ~prefix:"incr." k
        || String.starts_with ~prefix:"pool." k
        || String.starts_with ~prefix:"proc_ns." k))
    counters

(* ------------------------------------------------------------------ *)
(* Worker-domain hand-off *)

(** Take everything the calling domain has accumulated — counters {e
    and} convergence rows — and clear its registry.  The domain pool
    calls this on each worker lane when a batch completes; zero-valued
    counters are dropped.  Returns [[]] when telemetry is off. *)
let drain () : (string * int) list =
  if not (Obs.on ()) then []
  else begin
    let r = registry () in
    let snap =
      Hashtbl.fold
        (fun k c acc -> if !c = 0 then acc else (k, !c) :: acc)
        r.counters []
      |> List.sort compare
    in
    Hashtbl.reset r.counters;
    r.conv_rows <- [];
    r.conv_n <- 0;
    snap
  end

(** Fold a drained accumulator into the calling domain's registry. *)
let absorb (kvs : (string * int) list) = List.iter (fun (k, v) -> add k v) kvs

(* ------------------------------------------------------------------ *)
(* Convergence log *)

let converge ~worklist ~top ~const ~bottom =
  if Obs.on () then begin
    let r = registry () in
    r.conv_rows <-
      {
        c_iter = r.conv_n;
        c_worklist = worklist;
        c_top = top;
        c_const = const;
        c_bottom = bottom;
      }
      :: r.conv_rows;
    r.conv_n <- r.conv_n + 1
  end

let convergence () : conv_row list = List.rev (registry ()).conv_rows

let reset () =
  let r = registry () in
  Hashtbl.reset r.counters;
  r.conv_rows <- [];
  r.conv_n <- 0
