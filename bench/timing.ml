(** Bechamel timing harness: one [Test.make] per row whose work no
    end-to-end [perf/] workload runs.  That is the paper's tables, the
    §3.1.5 cost of each jump-function kind, the two flow analyses
    [perf/] never runs, and a warm context-exit replay.  Reported numbers
    are wall-clock per full regeneration of the artifact (monotonic
    clock, OLS estimate).

    Besides the text table, the results are written to
    [BENCH_ipcp.json] — a flat benchmark-name → ns/run object — so the
    trajectory is diffable across commits. *)

open Bechamel
open Toolkit
module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp_core.Config
module Programs = Ipcp_suite.Programs

let analyze_one config (p : Programs.program) =
  match
    Ipcp.analyze ~config
      (Ipcp.Source.of_string ~file:p.Programs.name p.Programs.source)
  with
  | Ok r -> r
  | Error e -> failwith e

let analyze_suite config () =
  List.iter (fun p -> ignore (analyze_one config p)) Programs.all

(* timings are about the analysis, not the sanitizer: verifier off *)
let cfg_of jf = { Config.default with Config.jf; verify_ir = false }

(* shared pre-analyzed suite results for the domain and context rows;
   forced in [run] before sampling starts so the analysis cost is not
   charged to whichever row happens to be measured first *)
let suite_results =
  lazy
    (List.map
       (analyze_one { Config.default with Config.verify_ir = false })
       Programs.all)

(* each registered domain re-run over the prebuilt stage 1-2 artifacts,
   so a [domain:NAME:suite] number is the marginal cost of that analysis
   on the common pipeline *)
let domain_test name =
  Test.make
    ~name:(Fmt.str "domain:%s:suite" name)
    (Staged.stage (fun () ->
         List.iter
           (fun r -> ignore (Ipcp.Domains.run name r))
           (Lazy.force suite_results)))

(* const value-context tabulation with the process-global exit cache
   populated once, so every sampled run replays warm: what a resident
   session pays for [contexts] after an update that dirtied nothing *)
let ctx_warm () =
  List.iter
    (fun r -> ignore (Ipcp.Domains.run_contexts ~warm:true "const" r))
    (Lazy.force suite_results)

(* a function, so that [--no-timing] builds no row and forces no
   analysis *)
let tests () =
  Test.make_grouped ~name:"ipcp"
    [
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
      domain_test "copyprop";
      domain_test "avail";
      Test.make ~name:"ctx:warm"
        (Ipcp_contexts.Registry.reset_caches ();
         ctx_warm ();
         Staged.stage ctx_warm);
    ]

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

(** Time every row, print the table, write [BENCH_ipcp.json] and return
    the rows for regression gating ({!Compare}).  The [meta:cores] row
    records the machine's core count next to the timings; {!Compare}
    reports meta rows but never gates on them. *)
let run () : (string * float) list =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  ignore (Lazy.force suite_results);
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let timed =
    Hashtbl.fold
      (fun name o acc ->
        let ns =
          match Analyze.OLS.estimates o with
          | Some [ t ] -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      (Analyze.all ols instance raw) []
    |> List.sort compare
  in
  Fmt.pr "@.Timing (bechamel, monotonic clock; one Test.make per artifact)@.";
  Fmt.pr "%-32s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Fmt.str "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%8.2f us" (ns /. 1e3)
        else Fmt.str "%8.0f ns" ns
      in
      Fmt.pr "%-32s %14s@." name pretty)
    timed;
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "%-32s %14d@." "meta:cores" cores;
  let rows = timed @ [ ("meta:cores", float_of_int cores) ] in
  write_json rows;
  rows
