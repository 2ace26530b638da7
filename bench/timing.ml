(** Bechamel timing harness: one [Test.make] per table and per ablation
    axis.  Reported numbers are wall-clock per full regeneration of the
    artifact (monotonic clock, OLS estimate).

    Besides the text table, the results are written to
    [BENCH_ipcp.json] — a flat benchmark-name → ns/run object — so the
    perf trajectory is diffable across commits. *)

open Bechamel
open Toolkit
module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp_core.Config
module Programs = Ipcp_suite.Programs

let source_of (p : Programs.program) =
  Ipcp.Source.of_string ~file:p.Programs.name p.Programs.source

let analyze_one ?cache config (p : Programs.program) =
  match Ipcp.analyze ~config ?cache (source_of p) with
  | Ok r -> r
  | Error e -> failwith e

let analyze_suite config () =
  List.iter (fun p -> ignore (analyze_one config p)) Programs.all

(* timings are about the analysis, not the sanitizer: verifier off *)
let cfg_of jf = { Config.default with Config.jf; verify_ir = false }

(* staged pipeline slices, for the cost decomposition *)
let frontend_only () =
  List.iter
    (fun (p : Programs.program) ->
      ignore
        (Ipcp_frontend.Sema.parse_and_analyze ~file:p.Programs.name
           p.Programs.source))
    Programs.all

let to_ssa () =
  List.iter
    (fun (p : Programs.program) ->
      let symtab =
        Ipcp_frontend.Sema.parse_and_analyze ~file:p.Programs.name
          p.Programs.source
      in
      let cfgs = Ipcp_ir.Lower.lower_program symtab in
      ignore (Ipcp_frontend.Names.SM.map Ipcp_ir.Ssa.convert cfgs))
    Programs.all

let gen_src n_procs =
  Ipcp_gen.Generator.generate
    ~params:
      { Ipcp_gen.Generator.default with Ipcp_gen.Generator.n_procs; seed = 11 }
    ()

let analyze_src config src =
  match Ipcp.analyze ~config (Ipcp.Source.of_string ~file:"<g>" src) with
  | Ok r -> r
  | Error e -> failwith e

(* domain-pool scaling: the same 64-procedure program analyzed with a
   fixed worker count, so the jobs-1/jobs-N ratio reads off the pool's
   win (results are bit-identical across the variants by construction) *)
let par_cfg jobs = { Config.default with Config.verify_ir = false; jobs }

let par_test n =
  Test.make
    ~name:(Fmt.str "par:jobs-%d" n)
    (let src = gen_src 64 in
     Staged.stage (fun () -> ignore (analyze_src (par_cfg n) src)))

(* incremental engine over the whole suite: [incr:cold] starts from a
   cleared cache directory and persists every artifact; [incr:warm]
   replays a prepopulated one.  The warm/cold ratio is the engine's win
   on an unchanged input. *)
let incr_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "ipcp-bench-cache"

let incr_cfg = { Config.default with Config.verify_ir = false }

let incr_run () =
  List.iter
    (fun p -> ignore (analyze_one ~cache:(Ipcp.Cache.Dir incr_dir) incr_cfg p))
    Programs.all

let incr_cold () =
  ignore (Ipcp.Cache.clear incr_dir);
  incr_run ()

(* shared pre-analyzed suite results for the zoo rows; forced in [run]
   before sampling starts so the analysis cost is not charged to
   whichever domain row happens to be measured first *)
let zoo_inputs = lazy (List.map (analyze_one incr_cfg) Programs.all)

(* the serve layer: an in-process server with every suite program open
   as a resident session, reads pre-warmed so the sampled requests hit
   the fingerprint-keyed response cache.  [serve:warm-query] is one
   repeated analyze against a warm session — the ratio to a cold
   one-shot analyze is the daemon's reason to exist.  [serve:qps] is a
   mixed read batch (analyze/ranges/query across all sessions)
   dispatched through the batching path; requests/s = batch size
   divided by the row's time/run. *)
let serve_frame id meth params =
  let module Json = Ipcp_obs.Json in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("method", Json.Str meth);
         ("params", Json.Obj params);
       ])

let serve_state =
  lazy
    (let module Json = Ipcp_obs.Json in
     let module Server = Ipcp_serve.Server in
     let server = Server.create ~config:incr_cfg () in
     let sids =
       List.map
         (fun (p : Programs.program) ->
           let resp =
             Server.handle_line server
               (serve_frame 1 "open"
                  [
                    ("source", Json.Str p.Programs.source);
                    ("file", Json.Str p.Programs.name);
                  ])
           in
           match Json.parse resp with
           | Ok j -> (
               match
                 Option.bind (Json.member "result" j) (fun r ->
                     Option.bind (Json.member "session" r) Json.to_int)
               with
               | Some sid -> sid
               | None -> failwith ("serve bench: open failed: " ^ resp))
           | Error e -> failwith ("serve bench: " ^ e))
         Programs.all
     in
     let mixed =
       List.concat_map
         (fun sid ->
           let p = [ ("session", Json.Int sid) ] in
           [
             serve_frame 2 "analyze" p;
             serve_frame 3 "ranges" p;
             serve_frame 4 "query"
               (("proc", Json.Str "main") :: ("what", Json.Str "constants")
               :: p);
           ])
         sids
     in
     (* warm every sampled read once *)
     ignore (Server.handle_batch server mixed);
     (server, sids, mixed))

let serve_tests =
  [
    Test.make ~name:"serve:warm-query"
      (Staged.stage (fun () ->
           let server, sids, _ = Lazy.force serve_state in
           ignore
             (Ipcp_serve.Server.handle_line server
                (serve_frame 9 "analyze"
                   [ ("session", Ipcp_obs.Json.Int (List.hd sids)) ]))));
    Test.make ~name:"serve:qps"
      (Staged.stage (fun () ->
           let server, _, mixed = Lazy.force serve_state in
           ignore (Ipcp_serve.Server.handle_batch server mixed)));
  ]

let domain_test name =
  Staged.stage (fun () ->
      List.iter
        (fun r -> ignore (Ipcp.Domains.run name r))
        (Lazy.force zoo_inputs))

(* value-context tabulation over the same prebuilt artifacts:
   [ctx:suite] is the cold context-sensitive constant analysis across
   the twelve programs — its ratio to [domain:const:suite] is the price
   of context sensitivity on real program shapes; [ctx:warm] replays
   with the process-global exit cache prepopulated, the resident-session
   ratio *)
let ctx_drivers =
  lazy (List.map Ipcp.Result.driver (Lazy.force zoo_inputs))

let ctx_suite ~warm () =
  List.iter
    (fun d -> ignore (Ipcp_contexts.Registry.Const.run ~warm d))
    (Lazy.force ctx_drivers)

let ctx_tests =
  [
    Test.make ~name:"ctx:suite" (Staged.stage (ctx_suite ~warm:false));
    Test.make ~name:"ctx:warm"
      ((* populate the exit stores once so every sampled run is warm *)
       Ipcp_contexts.Registry.reset_caches ();
       ctx_suite ~warm:true ();
       Staged.stage (ctx_suite ~warm:true));
  ]

let tests =
  Test.make_grouped ~name:"ipcp"
    ([
      (* the three tables, end to end *)
      Test.make ~name:"table1:characteristics"
        (Staged.stage (fun () ->
             List.iter
               (fun p -> ignore (Programs.characteristics p))
               Programs.all));
      Test.make ~name:"table2:all-jump-functions"
        (Staged.stage (fun () ->
             List.iter
               (fun (_, config) -> analyze_suite config ())
               Config.table2));
      Test.make ~name:"table3:mod-ablation"
        (Staged.stage (fun () ->
             analyze_suite { Config.default with Config.use_mod = false } ();
             analyze_suite Config.default ()));
      (* §3.1.5: per-jump-function construction + propagation cost *)
      Test.make ~name:"jf:literal"
        (Staged.stage (analyze_suite (cfg_of Config.Literal)));
      Test.make ~name:"jf:intraprocedural"
        (Staged.stage (analyze_suite (cfg_of Config.Intraconst)));
      Test.make ~name:"jf:pass-through"
        (Staged.stage (analyze_suite (cfg_of Config.Passthrough)));
      Test.make ~name:"jf:polynomial"
        (Staged.stage (analyze_suite (cfg_of Config.Polynomial)));
      (* pipeline decomposition *)
      Test.make ~name:"stage:frontend" (Staged.stage frontend_only);
      Test.make ~name:"stage:frontend+ssa" (Staged.stage to_ssa);
      (* scaling on generated programs *)
      Test.make ~name:"scale:8-procs"
        (let src = gen_src 8 in
         Staged.stage (fun () -> ignore (analyze_src Config.default src)));
      Test.make ~name:"scale:16-procs"
        (let src = gen_src 16 in
         Staged.stage (fun () -> ignore (analyze_src Config.default src)));
      Test.make ~name:"scale:32-procs"
        (let src = gen_src 32 in
         Staged.stage (fun () -> ignore (analyze_src Config.default src)));
      Test.make ~name:"scale:64-procs"
        (let src = gen_src 64 in
         Staged.stage (fun () -> ignore (analyze_src Config.default src)));
      (* multicore pipeline: same work, varying domain count *)
      par_test 1;
      par_test 2;
      par_test 4;
      par_test 8;
      (* interval pipeline: [ranges:suite] pays for the constant
         analysis it builds on; [ranges:warm] re-runs only the interval
         fixpoint on prebuilt stage 1-2 artifacts — the marginal cost of
         the second domain *)
      Test.make ~name:"ranges:suite"
        (Staged.stage (fun () ->
             List.iter
               (fun p -> ignore (Ipcp.Result.ranges (analyze_one incr_cfg p)))
               Programs.all));
      Test.make ~name:"ranges:warm"
        (let rs = List.map (analyze_one incr_cfg) Programs.all in
         Staged.stage (fun () ->
             List.iter (fun r -> ignore (Ipcp.Result.ranges r)) rs));
      (* the analysis zoo: each registered domain re-run over prebuilt
         stage 1-2 artifacts (shared across rows), so every
         [domain:NAME:suite] number is the marginal cost of that
         analysis on the common pipeline *)
      Test.make ~name:"domain:const:suite" (domain_test "const");
      Test.make ~name:"domain:interval:suite" (domain_test "interval");
      Test.make ~name:"domain:copyprop:suite" (domain_test "copyprop");
      Test.make ~name:"domain:live:suite" (domain_test "live");
      Test.make ~name:"domain:avail:suite" (domain_test "avail");
      (* incremental reanalysis: cold populate vs warm replay *)
      Test.make ~name:"incr:cold" (Staged.stage incr_cold);
      Test.make ~name:"incr:warm"
        ((* prepopulate once so every sampled run is genuinely warm *)
         incr_cold ();
         Staged.stage incr_run);
    ]
    @ ctx_tests @ serve_tests)

(* ------------------------------------------------------------------ *)
(* Scaled rows.  At 1k-10k procedures a single analysis takes seconds,
   so bechamel's quota-driven sampling is the wrong tool; each row is
   the best (minimum) of [samples] one-shot wall-clock runs instead,
   which filters scheduler and GC-phase spikes without bechamel's
   warm-up budget.  The
   [meta:cores] row records the machine's core count next to the
   timings so the par:* scaling table is interpretable after the fact
   (a 1-core runner cannot show a parallel win no matter what the
   scheduler does); {!Compare} reports meta rows but never gates on
   them.  [--quick] keeps the 1k rows (cheap enough for CI gating) and
   skips the 10k ones. *)

let now_ns () = Int64.to_float (Ipcp_obs.Obs.now_ns ())

let best_of ~samples name f =
  let one () =
    (* start every sample from a collected heap: a multi-second 10k
       analysis leaves gigabytes of major garbage behind, and without a
       collection here the marking work snowballs run over run (16s ->
       48s observed for *identical* workloads) until the GC catches up *)
    Gc.compact ();
    let t0 = now_ns () in
    f ();
    now_ns () -. t0
  in
  let raw = List.init samples (fun _ -> one ()) in
  (* raw samples to stderr: a single reported number hides warm-up
     drift, and diagnosing it needs the per-run numbers *)
  Fmt.epr "%s: samples%a@." name
    (Fmt.list ~sep:Fmt.nop (fun ppf ns -> Fmt.pf ppf " %.0fms" (ns /. 1e6)))
    raw;
  List.fold_left Float.min Float.infinity raw

let gen_scaled n =
  Ipcp_gen.Generator.generate
    ~params:(Ipcp_gen.Generator.scaled ~n_procs:n ()) ()

let scaled_rows ~quick () : (string * float) list =
  let samples = 3 in
  let row name f = (name, best_of ~samples name f) in
  let row' ~samples name f = (name, best_of ~samples name f) in
  let src1k = gen_scaled 1_000 in
  (* untimed runs before sampling at each new scale: the first runs at
     a new scale grow the major heap from suite size to workload size
     and measure 2-3x slower than steady state (at 10k: ~11-14s vs
     ~5s for identical jobs-1 workloads) — charged to whichever row
     samples first, that fabricated a speedup on every later row.
     Each warm-up run ends with a collection for the same reason the
     samples start with one (see [best_of]); letting garbage pile up
     across runs was tried and snowballed instead of converging.
     Best-of-N rather than median then absorbs any residual first-run
     penalty.  Rows are let-sequenced so execution order is the
     table's reading order, not cons evaluation order. *)
  let warm_up n src =
    for _ = 1 to n do
      ignore (analyze_src (par_cfg 1) src);
      Gc.compact ()
    done
  in
  warm_up 2 src1k;
  let meta =
    ("meta:cores", float_of_int (Domain.recommended_domain_count ()))
  in
  let scale_1k =
    row "scale:1k-procs" (fun () -> ignore (analyze_src (par_cfg 1) src1k))
  in
  let warm_1k =
    (* cold populate once, then every sampled run is a warm replay *)
    let dir =
      Filename.concat (Filename.get_temp_dir_name ()) "ipcp-bench-1k"
    in
    ignore (Ipcp.Cache.clear dir);
    let go () =
      match
        Ipcp.analyze ~config:(par_cfg 1)
          ~cache:(Ipcp.Cache.Dir dir)
          (Ipcp.Source.of_string ~file:"<g1k>" src1k)
      with
      | Ok r -> ignore r
      | Error e -> failwith e
    in
    go ();
    row "incr:warm@1k" go
  in
  let ctx_1k =
    (* the tabulation's scaled row: the same 1k-procedure program,
       cold context-sensitive constant analysis on a prebuilt driver.
       One analysis runs ~20s (≈120k context evaluations), so two
       samples — best-of filters the GC-phase spike well enough at
       this duration and keeps the row affordable in CI *)
    let d =
      snd
        (Ipcp_core.Driver.analyze_source ~config:(par_cfg 1) ~file:"<g1k>"
           src1k)
    in
    row' ~samples:2 "ctx:1k-procs" (fun () ->
        ignore (Ipcp_contexts.Registry.Const.run ~warm:false d))
  in
  let base = [ meta; scale_1k; warm_1k; ctx_1k ] in
  if quick then base
  else begin
    let src10k = gen_scaled 10_000 in
    warm_up 3 src10k;
    let scale_10k =
      row "scale:10k-procs" (fun () ->
          ignore (analyze_src (par_cfg 1) src10k))
    in
    let par_10k j =
      row (Fmt.str "par:jobs-%d@10k" j) (fun () ->
          ignore (analyze_src (par_cfg j) src10k))
    in
    let p1 = par_10k 1 in
    let p2 = par_10k 2 in
    let p4 = par_10k 4 in
    let p8 = par_10k 8 in
    base @ [ scale_10k; p1; p2; p4; p8 ]
  end

(* flat name -> ns/run object; a failed OLS fit (nan) renders as null *)
let write_json rows =
  let module Json = Ipcp_obs.Json in
  let j =
    Json.Obj (List.map (fun (name, ns) -> (name, Json.Num ns)) rows)
  in
  let file = "BENCH_ipcp.json" in
  let oc = open_out file in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote %s (%d benchmarks)@." file (List.length rows)

(** [quick] trims the per-benchmark sampling budget for CI (the OLS
    estimates get noisier, but every bechamel benchmark still runs) and
    drops the 10k-procedure scaled rows; the 1k rows stay, so the CI
    gate still covers the scaled pipeline.  Returns the rows for
    regression gating ({!Compare}). *)
let run ?(quick = false) () : (string * float) list =
  let instance = Instance.monotonic_clock in
  let cfg =
    if quick then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  ignore (Lazy.force zoo_inputs);
  ignore (Lazy.force serve_state);
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        let ns =
          match Analyze.OLS.estimates o with
          | Some [ t ] -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      res []
    |> List.sort compare
  in
  let rows = rows @ scaled_rows ~quick () in
  Fmt.pr "@.Timing (bechamel, monotonic clock; one Test.make per artifact;@.";
  Fmt.pr "        scale/par/incr@Nk rows are best-of-3 one-shot runs)@.";
  Fmt.pr "%-32s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if String.length name >= 5 && String.sub name 0 5 = "meta:" then
          Fmt.str "%8.0f" ns
        else if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Fmt.str "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%8.2f us" (ns /. 1e3)
        else Fmt.str "%8.0f ns" ns
      in
      Fmt.pr "%-32s %14s@." name pretty)
    rows;
  write_json rows;
  rows
