(** The ipcp end-to-end benchmark: see README.md.

    [ipcp_perf --workload NAME --seed N --seconds S --trace 0|1] runs one
    workload in a closed loop (one client, one process) for S seconds of
    op time and prints, as its last line, one JSON object:
    [{"correct", "attempted", "failed", "metrics"}] — the end-to-end
    metrics untraced, the per-layer metrics traced. *)

type source = Self_ms of string | Self_mb of string | Mean_us of string | Count of string | Incl_mb of string list

(* name, unit, source — the per-layer metrics, in BENCHMARK.json order *)
let layer_metrics =
  [
    ("frontend.ms", "ms", Self_ms "frontend");
    ("frontend.alloc_mb", "MB", Self_mb "frontend");
    ("ir.lower_ms", "ms", Self_ms "ir.lower");
    ("ir.ssa_ms", "ms", Self_ms "ir.ssa");
    ("ir.instrs", "count", Count "ir.instrs");
    ("verify.ms", "ms", Self_ms "verify");
    ("verify.alloc_mb", "MB", Self_mb "verify");
    ("callgraph.ms", "ms", Self_ms "callgraph");
    ("summary.modref_ms", "ms", Self_ms "summary.modref");
    ("returnjf.ms", "ms", Self_ms "returnjf");
    ("jumpfn.ms", "ms", Self_ms "jumpfn");
    ("jumpfn.built", "count", Count "jumpfn.built");
    ("solver.ms", "ms", Self_ms "solver");
    ("solver.pops", "count", Count "solver.pops");
    ("solver.jf_evals", "count", Count "solver.jf_evals");
    ("substitute.ms", "ms", Self_ms "substitute");
    ("substitute.alloc_mb", "MB", Self_mb "substitute");
    ("ranges.ms", "ms", Self_ms "ranges");
    ("lint.ms", "ms", Self_ms "lint");
    ("par.cpu_per_wall", "ratio", Count "par.cpu_per_wall");
    ("serve.update_ms", "ms", Self_ms "serve.update");
    ("serve.lint_ms", "ms", Self_ms "serve.lint");
    ("serve.query_ms", "ms", Self_ms "serve.query");
    ("serve.hit_us", "us", Mean_us "serve.hit");
    ("serve.hit_ratio", "ratio", Count "serve.hit_ratio");
    ("incr.fingerprint_ms", "ms", Self_ms "incr.fingerprint");
    ("incr.analyze_ms", "ms", Self_ms "incr.analyze");
    ("incr.persist_ms", "ms", Self_ms "incr.persist");
    ("incr.cache_mb", "MB", Count "incr.cache_mb");
    ("incr.dirty_procs", "count", Count "incr.dirty_procs");
    ("incr.summary_reuse", "ratio", Count "incr.summary_reuse");
    ("contexts.const_ms", "ms", Self_ms "contexts.const");
    ("contexts.interval_ms", "ms", Self_ms "contexts.interval");
    ("contexts.created", "count", Count "contexts.created");
    ("contexts.kept_per_created", "ratio", Count "contexts.kept_per_created");
    ("contexts.evals", "count", Count "contexts.evals");
    ("contexts.alloc_mb", "MB", Incl_mb [ "contexts.const"; "contexts.interval" ]);
  ]

let layer_value spans op = function
  | Count n ->
      List.fold_left (fun acc (m, v) -> if m = n then acc +. v else acc) 0. (Spans.counts_of spans op)
  | Incl_mb ns ->
      List.fold_left
        (fun acc (s : Spans.span) -> if List.mem s.Spans.name ns then acc +. s.Spans.alloc_mb else acc)
        0. (Spans.of_op spans op)
  | (Self_ms n | Self_mb n | Mean_us n) as src -> (
      match (src, Hashtbl.find_opt (Spans.by_name spans op) n) with
      | _, None -> 0.
      | Self_ms _, Some (d, _, _) -> d *. 1e3
      | Self_mb _, Some (_, a, _) -> a
      | _, Some (d, _, k) -> d *. 1e6 /. float_of_int k)

type op_record = {
  index : int;
  traced : bool;
  warmup : bool;
      (** the first op pays for growing the heap and starting the pool's
          domains: it is checked like the others, not timed *)
  sample : Meter.sample option;  (** [None] when the op raised *)
  out : Wl.op_out;
}

let cores = Domain.recommended_domain_count ()

(* How far the traced layer times may sit from the untraced op time
   before the traced run fails: one op's wall time varies by up to 15%
   on a quiet 2-core host, so the share is a median over traced ops, and
   it is judged only when at least [min_pairs] undisturbed traced ops
   have an undisturbed untraced op beside them. *)
let coverage_tolerance = 0.15

let min_pairs = 3

(* How far a traced op's allocation outside its replicas may sit from an
   untraced op's, for workloads whose ops are alike: allocation repeats
   within 0.01% between such ops, and leaving out the smallest pass of
   the pipeline, the verifier's check of the lowered code, moves it by
   0.4%. *)
let alloc_tolerance = 0.002

let commit () = Option.value ~default:"unknown" (Sys.getenv_opt "IPCP_PERF_COMMIT")

let say fmt = Printf.printf (fmt ^^ "\n%!")

let workloads ~dir ~input_seed ~seed ~work =
  [
    ("cold-2k", fun () -> Cold.make ~dir ~input_seed ~seed);
    ("edit-1k", fun () -> Edit.make ~dir ~input_seed ~seed ~work);
    ("ctx-100", fun () -> Ctx.make ~dir ~input_seed ~seed);
  ]

(* the set-up, repeated: at least three times, and more while the
   repeats are short, so that the median of a sub-second set-up is not
   one scheduler hiccup *)
let setups (w : Wl.t) ~once =
  let rec go acc =
    let n = List.length acc in
    if (once && n = 1) || (n >= 3 && (List.fold_left ( +. ) 0. acc >= 1. || n >= 15)) then List.rev acc
    else (
      Gc.compact ();
      let (), s = Meter.measure w.Wl.setup in
      go (s.Meter.wall_s :: acc))
  in
  go []

(* An op during which the hypervisor gave more than this share of the
   process's CPUs to other guests is checked but not timed.  On a shared
   host op time grows about twice as fast as the stolen share (a stalled
   domain holds the others at the next stop-the-world minor collection),
   so one busy minute would otherwise decide a run's median.  Ops on a
   quiet host lose under 2%. *)
let max_stolen_share = 0.03

let stolen_share (s : Meter.sample) = s.Meter.steal_s /. (s.Meter.wall_s *. float_of_int cores)

let disturbed s = stolen_share s > max_stolen_share

(* The ops whose samples the time metrics use: the undisturbed ones, or,
   when fewer than half of the ops are undisturbed, the half that lost
   the least CPU time to other guests. *)
let timed_of ops =
  let sampled = List.filter (fun r -> r.sample <> None) ops in
  let share r = stolen_share (Option.get r.sample) in
  let half = (List.length sampled + 1) / 2 in
  let calm = List.filter (fun r -> share r <= max_stolen_share) sampled in
  if List.length calm >= half then calm
  else
    List.stable_sort (fun a b -> compare (share a) (share b)) sampled
    |> List.filteri (fun i _ -> i < half)
    |> List.sort (fun a b -> compare a.index b.index)

let failed_op index traced warmup what e =
  { index; traced; warmup; sample = None; out = { Wl.consts = nan; failures = [ what ^ Printexc.to_string e ] } }

(* The closed loop: op [i] starts when op [i-1] and its check are done,
   until the ops after the warm-up have taken [seconds] and at least
   [min_ops] ops have run.  A traced run alternates untraced and traced
   ops after the warm-up.  Returns the ops and the peak RSS read right
   after op [peak_after - 1], before its check. *)
let run_ops (w : Wl.t) spans ~seconds ~alternate ~min_ops =
  let ops = ref [] and op_time = ref 0. and i = ref 0 and peak_rss = ref nan in
  Gc.compact ();
  while !op_time < seconds || !i < min_ops do
    let index = !i in
    let traced = alternate && index mod 2 = 1 in
    let warmup = index = 0 in
    Spans.set_op spans index;
    let record =
      match w.Wl.prepare (if traced then Some spans else None) index with
      | exception e -> failed_op index traced warmup "prepare raised " e
      | run -> (
          if not w.Wl.resident then Gc.compact ();
          let measured = try Ok (Meter.measure run) with e -> Error e in
          if index = w.Wl.peak_after - 1 then peak_rss := Meter.peak_rss_mb ();
          match measured with
          | Error e -> failed_op index traced warmup "op raised " e
          | Ok (check, sample) ->
              let out =
                try check () with e -> { Wl.consts = nan; failures = [ "check raised " ^ Printexc.to_string e ] }
              in
              if not warmup then op_time := !op_time +. sample.Meter.wall_s;
              { index; traced; warmup; sample = Some sample; out })
    in
    ops := record :: !ops;
    incr i
  done;
  (List.rev !ops, if Float.is_nan !peak_rss then Meter.peak_rss_mb () else !peak_rss)

(* Time and CPU come from the timed ops; allocation and constants, which
   other guests cannot change, from every measured op. *)
let end_to_end ops ~setups ~peak_rss =
  let measured = List.filter (fun r -> not (r.warmup || r.traced) && r.sample <> None) ops in
  let timed = timed_of measured in
  let samples pick rs = List.map (fun r -> pick (Option.get r.sample)) rs in
  let walls_ms = samples (fun s -> s.Meter.wall_s *. 1e3) timed in
  let median_of name unit xs = (name, unit, xs, Stats.median xs) in
  [
    median_of "op_p50_ms" "ms" walls_ms;
    ("ops_per_s", "1/s", List.map (fun x -> 1e3 /. x) walls_ms, 1e3 /. Stats.mean walls_ms);
    median_of "cpu_ms_per_op" "ms" (samples (fun s -> s.Meter.cpu_s *. 1e3) timed);
    median_of "alloc_mb_per_op" "MB" (samples (fun s -> s.Meter.alloc_mb) measured);
    ("peak_rss_mb", "MB", [ peak_rss ], peak_rss);
    median_of "setup_s" "s" setups;
    median_of "consts_found" "count" (List.map (fun r -> r.out.Wl.consts) measured);
  ]

(* Per-layer metrics of a traced run, with the layer table, the share of
   the untraced op the layer spans account for, and the tracing
   overhead; the spans go to a Chrome trace file.  Also returns the
   failure of a share outside the tolerance. *)
let per_layer (w : Wl.t) spans ops ~path =
  let traced = timed_of (List.filter (fun r -> r.traced && r.sample <> None) ops) in
  let untraced = timed_of (List.filter (fun r -> not (r.traced || r.warmup) && r.sample <> None) ops) in
  let wall_ms r = (Option.get r.sample).Meter.wall_s *. 1e3 in
  let n = float_of_int (max 1 (List.length traced)) in
  say "# %-20s %12s %8s %12s" "layer" "self ms/op" "calls/op" "alloc MB/op";
  List.sort_uniq compare (List.map (fun (s : Spans.span) -> s.Spans.name) spans.Spans.spans)
  |> List.iter (fun name ->
         let d, a, k =
           List.fold_left
             (fun (d, a, k) r ->
               match Hashtbl.find_opt (Spans.by_name spans r.index) name with
               | Some (d', a', k') -> (d +. d', a +. a', k + k')
               | None -> (d, a, k))
             (0., 0., 0) traced
         in
         say "# %-20s %12.3f %8.1f %12.2f" name (d *. 1e3 /. n) (float_of_int k /. n) (a /. n));
  let untraced_ms = Stats.median (List.map wall_ms untraced) in
  (* root spans of one op: the layers it called, and the replicas *)
  let root_ms r ~replica =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.Spans.parent < 0 && List.mem s.Spans.name w.Wl.replica = replica then
          acc +. ((s.Spans.t1 -. s.Spans.t0) *. 1e3)
        else acc)
      0. (Spans.of_op spans r.index)
  in
  let layered = Stats.median (List.map (root_ms ~replica:false) traced) in
  let traced_ms = Stats.median (List.map (fun r -> wall_ms r -. root_ms r ~replica:true) traced) in
  (* each traced op against the untraced ops beside it, so that a slow
     stretch of the host weighs on both sides of a ratio; judged on
     undisturbed ops only *)
  let shares_of ~calm =
    let keep r = r.sample <> None && ((not calm) || not (disturbed (Option.get r.sample))) in
    List.filter_map
      (fun r ->
        match List.filter (fun u -> keep u && (not (u.traced || u.warmup)) && abs (u.index - r.index) = 1) ops with
        | us when keep r && r.traced && us <> [] ->
            Some (root_ms r ~replica:false /. Stats.mean (List.map wall_ms us))
        | _ -> None)
      ops
  in
  let judged = List.length (shares_of ~calm:true) >= min_pairs in
  let shares = shares_of ~calm:judged in
  let share = Stats.median shares in
  let within = Float.abs (share -. 1.) <= coverage_tolerance in
  say "# layer spans account for %.1f%% of the untraced op (median over %d %straced ops, each against the untraced ops beside it: %s; %.1f of %.1f ms in medians): %s"
    (100. *. share) (List.length shares)
    (if judged then "undisturbed " else "")
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f%%" (100. *. x)) shares))
    layered untraced_ms
    (if not judged then Printf.sprintf "not judged, fewer than %d undisturbed pairs" min_pairs
     else Printf.sprintf "%s the %.0f%% tolerance" (if within then "within" else "OUTSIDE") (100. *. coverage_tolerance));
  (* the decomposed op against the untraced one, by the work it does *)
  let replica_mb r =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.Spans.parent < 0 && List.mem s.Spans.name w.Wl.replica then acc +. s.Spans.alloc_mb else acc)
      0. (Spans.of_op spans r.index)
  in
  let alloc_share =
    Stats.median (List.map (fun r -> (Option.get r.sample).Meter.alloc_mb -. replica_mb r) traced)
    /. Stats.median (List.map (fun r -> (Option.get r.sample).Meter.alloc_mb) untraced)
  in
  let alloc_within = Float.abs (alloc_share -. 1.) <= alloc_tolerance in
  say "# a traced op allocates %.2f%% of what an untraced op allocates, outside its replicas (medians): %s"
    (100. *. alloc_share)
    (if w.Wl.resident then "not judged, the ops differ"
     else Printf.sprintf "%s the %.1f%% tolerance" (if alloc_within then "within" else "OUTSIDE") (100. *. alloc_tolerance));
  say "# tracing overhead: traced op %.1f ms - untraced op %.1f ms = %+.1f ms (%+.1f%%)" traced_ms untraced_ms
    (traced_ms -. untraced_ms)
    (100. *. (traced_ms -. untraced_ms) /. untraced_ms);
  Spans.write_chrome spans path;
  say "# trace written to %s" path;
  ( List.map
      (fun (name, unit, src) ->
        let xs = List.map (fun r -> layer_value spans r.index src) traced in
        (name, unit, xs, Stats.median xs))
      layer_metrics,
    (if within || not judged then []
     else
       [
         Printf.sprintf "layer spans account for %.1f%% of the untraced op, outside the %.0f%% tolerance"
           (100. *. share) (100. *. coverage_tolerance);
       ])
    @
    if alloc_within || w.Wl.resident then []
    else
      [
        Printf.sprintf "a traced op allocates %.2f%% of what an untraced op allocates, outside the %.1f%% tolerance"
          (100. *. alloc_share) (100. *. alloc_tolerance);
      ] )

(** Run one workload; returns the result line and whether every check
    held. *)
let run (w : Wl.t) ~seed ~seconds ~trace ~work =
  say "# workload %s  seed %d  seconds %g  trace %b  jobs %d  cores %d  commit %s" w.Wl.name seed seconds trace
    Wl.config.Ipcp_core.Config.jobs cores (commit ());
  let setups = setups w ~once:trace in
  let ref_failures = w.Wl.reference () in
  let spans = Spans.create () in
  let steal0 = Meter.steal_s () and wall0 = Meter.now_s () in
  let min_ops = if trace then 3 else max 3 w.Wl.peak_after in
  let ops, peak_rss = run_ops w spans ~seconds ~alternate:trace ~min_ops in
  say "# host: %.1f s of CPU time stolen by other guests during %.1f s of ops" (Meter.steal_s () -. steal0)
    (Meter.now_s () -. wall0);
  let after_warmup = List.filter (fun r -> not r.warmup && r.sample <> None) ops in
  let lost = List.filter (fun r -> disturbed (Option.get r.sample)) after_warmup in
  let timed = List.length (timed_of after_warmup) in
  say "# host: %d of %d ops lost more than %.0f%% of the CPUs to other guests; the time metrics use %s" (List.length lost)
    (List.length after_warmup) (100. *. max_stolen_share)
    (if lost = [] then "every op"
     else if timed + List.length lost = List.length after_warmup then Printf.sprintf "the %d undisturbed" timed
     else Printf.sprintf "the %d that lost the least" timed);
  let late = w.Wl.finish () in
  let failures_of r =
    r.out.Wl.failures @ ref_failures @ List.filter_map (fun (i, m) -> if i = r.index then Some m else None) late
  in
  List.iter (fun line -> say "# input %s" line) (w.Wl.describe ());
  List.iter
    (fun r ->
      match r.sample with
      | Some s ->
          say "# op %d%s wall %.3f ms  cpu %.3f ms  stolen %.2f s  alloc %.3f MB  consts %g" r.index
            ((if r.traced then " traced" else if r.warmup then " warm-up" else "")
            ^ if (not r.warmup) && disturbed s then " (disturbed)" else "")
            (s.Meter.wall_s *. 1e3) (s.Meter.cpu_s *. 1e3) s.Meter.steal_s s.Meter.alloc_mb r.out.Wl.consts
      | None -> say "# op %d raised" r.index)
    ops;
  let failed = List.filter (fun r -> failures_of r <> []) ops in
  (* each distinct failure once, with the ops it failed *)
  List.sort_uniq compare (List.concat_map failures_of failed)
  |> List.iter (fun m ->
         let which = List.filter (fun r -> List.mem m (failures_of r)) ops in
         say "# FAILED in %d of %d ops (first: op %d): %s" (List.length which) (List.length ops)
           (List.hd which).index m);
  let metrics, run_failures =
    if trace then
      per_layer w spans ops ~path:(Filename.concat work (Printf.sprintf "trace-%s-seed%d.json" w.Wl.name seed))
    else (end_to_end ops ~setups ~peak_rss, [])
  in
  List.iter (fun m -> say "# FAILED (the run): %s" m) run_failures;
  List.iter
    (fun (name, unit, xs, _) ->
      let q1, q2, q3 = Stats.quantiles xs in
      say "# %-26s %-6s n=%-3d q1=%.6g median=%.6g q3=%.6g" name unit (List.length xs) q1 q2 q3)
    metrics;
  say "# ops attempted %d failed %d" (List.length ops) (List.length failed);
  let correct =
    run_failures = []
    && List.for_all (fun r -> List.for_all Wl.is_known (failures_of r)) ops
    && List.for_all (fun (_, _, _, v) -> Float.is_finite v) metrics
  in
  (* numbers with all their digits: Json.to_string rounds floats *)
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
      (List.length ops) (List.length failed)
      (String.concat ", "
         (List.map
            (fun (name, unit, _, v) ->
              Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
                (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
                unit)
            metrics))
  in
  (result, correct)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and input_seed = ref None and inputs = ref "perf/inputs" in
  let work = ref ".perf-work" and make_inputs = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-2k, edit-1k or ctx-100");
      ("--seed", Arg.Set_int seed, "N seed of the edit order and the interpreter");
      ("--seconds", Arg.Set_float seconds, "S op time to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--smoke", Arg.Set smoke, " run every workload for three ops (warm-up, untraced, traced) with all checks");
      ("--input-seed", Arg.Int (fun n -> input_seed := Some n), "N regenerate the generated programs with this seed");
      ("--inputs", Arg.Set_string inputs, "DIR the fixed inputs (default perf/inputs)");
      ("--work", Arg.Set_string work, "DIR working directory for caches and traces (default .perf-work)");
      ("--make-inputs", Arg.Set make_inputs, " write the fixed inputs into --inputs and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ipcp_perf --workload NAME --seed N --seconds S --trace 0|1";
  if !make_inputs then (
    Inputs.make ~dir:!inputs;
    exit 0);
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let all = workloads ~dir:!inputs ~input_seed:!input_seed ~seed:!seed ~work:!work in
  if !smoke then (
    let ok =
      List.for_all Fun.id
        (List.map (fun (_, make) -> snd (run (make ()) ~seed:!seed ~seconds:0. ~trace:true ~work:!work)) all)
    in
    say "# smoke %s" (if ok then "passed" else "FAILED");
    exit (if ok then 0 else 1));
  match List.assoc_opt !workload all with
  | None ->
      prerr_endline ("ipcp_perf: unknown workload " ^ !workload ^ " (cold-2k, edit-1k, ctx-100)");
      exit 2
  | Some make ->
      let result, ok = run (make ()) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~work:!work in
      print_endline result;
      exit (if ok then 0 else 1)
