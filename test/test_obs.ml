(** Telemetry tests: the JSON codec, Chrome-trace validity (nesting +
    monotonicity + stage coverage), agreement between the metric
    registry and the solver's own statistics, and the zero-output
    guarantee when telemetry is disabled. *)

module Obs = Ipcp_obs.Obs
module Trace = Ipcp_obs.Trace
module Metrics = Ipcp_obs.Metrics
module Json = Ipcp_obs.Json
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Substitute = Ipcp_opt.Substitute
module Programs = Ipcp_suite.Programs
module Ipcp = Ipcp_api.Ipcp

(* Every test that turns telemetry on runs under this bracket so the
   global switch and registries never leak into unrelated tests. *)
let with_obs f =
  Obs.set_enabled true;
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Trace.reset ();
      Metrics.reset ())
    f

let analyze name =
  let p = List.find (fun p -> p.Programs.name = name) Programs.all in
  Driver.analyze_source ~file:p.Programs.name p.Programs.source

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Num 1.5);
        ("s", Json.Str "a \"b\"\n\tc");
        ("a", Json.Arr [ Json.Int 1; Json.Str "two"; Json.Bool false ]);
        ("o", Json.Obj [ ("k", Json.Int 7) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' -> Alcotest.(check string) "roundtrip"
               (Json.to_string v) (Json.to_string v')

let test_json_nonfinite () =
  (* non-finite floats must degrade to null, not produce invalid JSON *)
  let s = Json.to_string (Json.Arr [ Json.Num Float.nan;
                                     Json.Num Float.infinity ]) in
  Alcotest.(check string) "nan/inf render as null" "[null,null]" s;
  match Json.parse s with
  | Ok (Json.Arr [ Json.Null; Json.Null ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok j ->
          Alcotest.failf "%S parsed as %s but should fail" s
            (Json.to_string j))
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; "" ]

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

let fail_json what = Alcotest.failf "trace: %s" what

let get_events trace_str =
  match Json.parse trace_str with
  | Error e -> fail_json ("export is not valid JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | None -> fail_json "no traceEvents array"
      | Some evs -> evs)

let ev_field name ev to_x =
  match Option.bind (Json.member name ev) to_x with
  | Some x -> x
  | None -> fail_json ("event missing " ^ name)

(* B/E stack discipline per tid + globally monotonic non-decreasing
   timestamps (the export sorts by stamp; worker lanes interleave with
   the main lane, so nesting only holds within a tid) *)
let check_wellformed evs =
  let last_ts = ref neg_infinity in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun ev ->
      let name = ev_field "name" ev Json.to_str in
      let ph = ev_field "ph" ev Json.to_str in
      let tid = ev_field "tid" ev Json.to_int in
      let ts =
        match Option.bind (Json.member "ts" ev) Json.to_float with
        | Some f -> f
        | None -> float_of_int (ev_field "ts" ev Json.to_int)
      in
      if ts < !last_ts then fail_json "timestamps not monotonic";
      last_ts := ts;
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks tid)
      in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
          match stack with
          | top :: rest when top = name -> Hashtbl.replace stacks tid rest
          | top :: _ ->
              fail_json
                (Printf.sprintf "tid %d: E %S closes open span %S" tid name
                   top)
          | [] ->
              fail_json
                (Printf.sprintf "tid %d: E %s with empty span stack" tid
                   name))
      | p -> fail_json ("unexpected phase " ^ p))
    evs;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        fail_json
          (Printf.sprintf "tid %d: %d unclosed span(s)" tid
             (List.length stack)))
    stacks

let test_trace_valid () =
  with_obs @@ fun () ->
  let _, d = analyze "adm" in
  (* stage 4 (result recording) runs lazily, from the substitution
     pass — same shape as the CLI's analyze command *)
  ignore (Substitute.apply d);
  let evs = get_events (Trace.export_chrome ()) in
  Alcotest.(check bool) "has events" true (evs <> []);
  check_wellformed evs;
  (* the four pipeline stages of §4.1 must all be covered *)
  let names =
    List.map (fun ev -> ev_field "name" ev Json.to_str) evs
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool) ("span " ^ stage) true (List.mem stage names))
    [
      "analyze";
      "stage1:return-jump-functions";
      "stage2:jump-functions";
      "stage3:propagate";
      "stage4:record";
      "verify";
    ]

(* Worker lanes: a 4-lane pool batch records [pool:task] spans on every
   lane's own tid, and the drained events survive the DLS hand-off into
   the main lane's export.  The tasks rendezvous on an atomic so each of
   the four lanes is forced to claim exactly one task — the worker tids
   are then guaranteed to appear, independent of the host's core count
   or scheduling. *)
let test_trace_workers () =
  with_obs @@ fun () ->
  (* the rendezvous needs four truly concurrent lanes even on a
     single-core host, so bypass the pool's hardware lane clamp *)
  Ipcp_par.Pool.oversubscribe := true;
  let started = Atomic.make 0 in
  let out =
    Fun.protect
      ~finally:(fun () -> Ipcp_par.Pool.oversubscribe := false)
      (fun () ->
        Ipcp_par.Pool.map_array ~jobs:4
          (fun i ->
            Atomic.incr started;
            while Atomic.get started < 4 do
              Domain.cpu_relax ()
            done;
            i * 2)
          [| 0; 1; 2; 3 |])
  in
  Alcotest.(check (array int)) "batch result" [| 0; 2; 4; 6 |] out;
  (* per-task telemetry merged back: one [pool.task]/[pool.wait] sample
     per lane, one batch of four tasks *)
  Alcotest.(check int) "pool.task samples" 4 (Metrics.get "pool.task.count");
  Alcotest.(check int) "pool.wait samples" 4 (Metrics.get "pool.wait.count");
  Alcotest.(check int) "one batch" 1 (Metrics.get "pool.batches");
  Alcotest.(check int) "four tasks" 4 (Metrics.get "pool.tasks");
  (* and a full parallel analysis on top, for the driver integration *)
  let p = List.find (fun p -> p.Programs.name = "spec77") Programs.all in
  ignore
    (Driver.analyze_source
       ~config:{ Config.default with Config.jobs = 4 }
       ~file:p.Programs.name p.Programs.source);
  let evs = get_events (Trace.export_chrome ()) in
  check_wellformed evs;
  let tids = List.map (fun ev -> ev_field "tid" ev Json.to_int) evs in
  Alcotest.(check bool) "main-lane events" true (List.mem 1 tids);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "worker tid %d events" w)
        true (List.mem w tids))
    [ 2; 3; 4 ]

let test_trace_disabled () =
  Obs.set_enabled false;
  Trace.reset ();
  Metrics.reset ();
  ignore (analyze "adm");
  Alcotest.(check bool) "no events when off" true (Trace.is_empty ());
  Alcotest.(check (list (pair string int))) "no counters when off" []
    (Metrics.snapshot ());
  Alcotest.(check int) "no convergence log when off" 0
    (List.length (Metrics.convergence ()))

(* ------------------------------------------------------------------ *)
(* metric registry vs. the solver's own numbers *)

let test_counters_match_solver () =
  List.iter
    (fun name ->
      with_obs @@ fun () ->
      let _, d = analyze name in
      let s = d.Driver.solver.Ipcp_core.Solver.stats in
      let chk what counter expect =
        Alcotest.(check int)
          (Printf.sprintf "%s: %s" name what)
          expect (Metrics.get counter)
      in
      chk "pops" "solver.pops" s.Ipcp_core.Solver.pops;
      chk "jf evals" "solver.jf_evals" s.Ipcp_core.Solver.jf_evals;
      chk "jf eval cost" "solver.jf_eval_cost"
        s.Ipcp_core.Solver.jf_eval_cost;
      chk "lowerings" "solver.lowerings" s.Ipcp_core.Solver.lowerings;
      (* every pop logs one convergence row *)
      Alcotest.(check int)
        (name ^ ": convergence rows")
        s.Ipcp_core.Solver.pops
        (List.length (Metrics.convergence ())))
    [ "adm"; "linpackd"; "mdg"; "spec77" ]

let test_convergence_population () =
  with_obs @@ fun () ->
  ignore (analyze "mdg");
  match Metrics.convergence () with
  | [] -> Alcotest.fail "empty convergence log"
  | first :: _ as rows ->
      let size r =
        Metrics.(r.c_top + r.c_const + r.c_bottom)
      in
      List.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "row %d: iteration number" i)
            i r.Metrics.c_iter;
          Alcotest.(check int)
            (Printf.sprintf "row %d: VAL population constant" i)
            (size first) (size r))
        rows

let test_jumpfn_census_agrees () =
  with_obs @@ fun () ->
  let _, d = analyze "spec77" in
  let c = Driver.census d in
  let chk what counter expect =
    Alcotest.(check int) what expect (Metrics.get counter)
  in
  chk "bottom jfs" "jumpfn.built.bottom" c.Driver.n_bottom;
  chk "const jfs" "jumpfn.built.const" c.Driver.n_const;
  chk "pass-through jfs" "jumpfn.built.passthrough" c.Driver.n_passthrough;
  chk "polynomial jfs" "jumpfn.built.polynomial" c.Driver.n_poly

let test_substitute_counter () =
  with_obs @@ fun () ->
  let _, d = analyze "linpackd" in
  let r = Substitute.apply d in
  Alcotest.(check bool) "some substitutions" true (r.Substitute.total > 0);
  Alcotest.(check int) "substitute counter = result total"
    r.Substitute.total
    (Metrics.get "substitute.substituted")

(* The (parent, child) name pairs of the main lane's spans. *)
let main_lane_nesting () =
  let stack = ref [] and pairs = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_tid = 1 then
        match e.Trace.ev_ph with
        | Trace.B ->
            (match !stack with
            | parent :: _ -> pairs := (parent, e.Trace.ev_name) :: !pairs
            | [] -> pairs := ("", e.Trace.ev_name) :: !pairs);
            stack := e.Trace.ev_name :: !stack
        | Trace.E -> stack := List.tl !stack)
    (Trace.events ());
  !pairs

let test_substitute_check_span () =
  with_obs @@ fun () ->
  let _, d = analyze "linpackd" in
  let r = Substitute.apply d in
  Alcotest.(check bool) "the rewrite changed something" true
    (r.Substitute.total > 0);
  Alcotest.(check bool) "substitute:verify under pass:substitute" true
    (List.mem ("pass:substitute", "substitute:verify") (main_lane_nesting ()))

let test_session_fingerprint_span () =
  with_obs @@ fun () ->
  let p = List.find (fun p -> p.Programs.name = "adm") Programs.all in
  (match
     Ipcp.Session.open_
       (Ipcp.Source.of_string ~file:p.Programs.name p.Programs.source)
   with
  | Ok s -> Ipcp.Session.close s
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "top-level session:fingerprint" true
    (List.mem ("", "session:fingerprint") (main_lane_nesting ()))

(* ------------------------------------------------------------------ *)
(* Config.pp renders verify_ir (regression: it used to be dropped) *)

let test_config_pp_verify () =
  let pp c = Fmt.str "%a" Config.pp c in
  let on = { Config.default with Config.verify_ir = true } in
  let off = { Config.default with Config.verify_ir = false } in
  Alcotest.(check bool) "verify_ir visible in Config.pp" true
    (pp on <> pp off);
  Alcotest.(check bool) "+verify marker" true
    (Astring.String.is_infix ~affix:"+verify" (pp on));
  Alcotest.(check bool) "-verify marker" true
    (Astring.String.is_infix ~affix:"-verify" (pp off))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json non-finite" `Quick test_json_nonfinite;
        Alcotest.test_case "json parse errors" `Quick test_json_errors;
        Alcotest.test_case "trace valid + nested + staged" `Quick
          test_trace_valid;
        Alcotest.test_case "worker-lane trace events survive the drain"
          `Quick test_trace_workers;
        Alcotest.test_case "disabled telemetry is silent" `Quick
          test_trace_disabled;
        Alcotest.test_case "counters match Solver.stats" `Quick
          test_counters_match_solver;
        Alcotest.test_case "convergence log population" `Quick
          test_convergence_population;
        Alcotest.test_case "jump-function census agrees" `Quick
          test_jumpfn_census_agrees;
        Alcotest.test_case "substitute counter" `Quick
          test_substitute_counter;
        Alcotest.test_case "substitution check span" `Quick
          test_substitute_check_span;
        Alcotest.test_case "session fingerprint span" `Quick
          test_session_fingerprint_span;
        Alcotest.test_case "Config.pp renders verify_ir" `Quick
          test_config_pp_verify;
      ] );
  ]
