(* The multicore pipeline's contract: analysis results with [jobs = N]
   are identical to the sequential path ([jobs = 1]) — the solver
   fixpoint, the census, the lint diagnostics, the substituted source,
   and the deterministic telemetry (counters and convergence log) — on
   every bundled suite program and on randomly generated ones.  The pool
   makes this true by construction (per-task result slots,
   canonical-order joins), and these tests keep it true. *)

open Ipcp_frontend
module Pool = Ipcp_par.Pool
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Clattice = Ipcp_domains.Clattice
module Substitute = Ipcp_opt.Substitute
module Lint = Ipcp_analysis.Lint
module Programs = Ipcp_suite.Programs
module Generator = Ipcp_gen.Generator
module SM = Names.SM

let cfg_jobs jobs = { Config.default with Config.jobs }

let vals_equal = SM.equal (SM.equal Clattice.equal)

(* ------------------------------------------------------------------ *)
(* Pool combinators *)

let pool_tests =
  [
    Alcotest.test_case "map_list matches List.map at every width" `Quick
      (fun () ->
        let f x = (x * 37) mod 101 in
        List.iter
          (fun n ->
            let xs = List.init n (fun i -> i) in
            let expect = List.map f xs in
            List.iter
              (fun jobs ->
                Alcotest.(check (list int))
                  (Fmt.str "n=%d jobs=%d" n jobs)
                  expect
                  (Pool.map_list ~jobs f xs))
              [ 1; 2; 3; 4; 8 ])
          [ 0; 1; 2; 7; 100 ]);
    Alcotest.test_case "map_sm is SM.mapi, any width" `Quick (fun () ->
        let m =
          List.fold_left
            (fun m i -> SM.add (Fmt.str "k%02d" i) i m)
            SM.empty
            (List.init 40 (fun i -> i))
        in
        let f k v = Fmt.str "%s=%d" k (v * v) in
        let expect = SM.mapi f m in
        List.iter
          (fun jobs ->
            Alcotest.(check bool)
              (Fmt.str "jobs=%d" jobs)
              true
              (SM.equal String.equal expect (Pool.map_sm ~jobs f m)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "first exception in input order is re-raised" `Quick
      (fun () ->
        let boom i = if i >= 3 then failwith (Fmt.str "task %d" i) else i in
        List.iter
          (fun jobs ->
            match Pool.map_list ~jobs boom (List.init 10 (fun i -> i)) with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg ->
                (* tasks 3..9 all raise; input order picks task 3 *)
                Alcotest.(check string) (Fmt.str "jobs=%d" jobs) "task 3" msg)
          [ 1; 2; 4 ]);
    Alcotest.test_case "nested maps flatten and stay correct" `Quick
      (fun () ->
        let inner x = Pool.map_list ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
        let got = Pool.map_list ~jobs:4 inner [ 10; 20 ] in
        Alcotest.(check (list (list int)))
          "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got);
    Alcotest.test_case "iter_sm runs every task exactly once" `Quick
      (fun () ->
        let m =
          List.fold_left
            (fun m i -> SM.add (Fmt.str "k%02d" i) i m)
            SM.empty
            (List.init 30 (fun i -> i))
        in
        List.iter
          (fun jobs ->
            let hits = Array.make 30 0 in
            Pool.iter_sm ~jobs (fun _ v -> hits.(v) <- hits.(v) + 1) m;
            Alcotest.(check (array int))
              (Fmt.str "jobs=%d" jobs)
              (Array.make 30 1) hits)
          [ 1; 4 ]);
  ]

(* Chunked dispatch: batches large enough to group tasks into
   cost-balanced ranges, forced onto genuinely concurrent lanes with
   the oversubscription hook (the host may have one core).  Skewed
   costs make the chunk boundaries land unevenly, which is exactly
   where an off-by-one in range claiming would show. *)
let with_lanes f =
  Pool.oversubscribe := true;
  Fun.protect ~finally:(fun () -> Pool.oversubscribe := false) f

let chunking_tests =
  [
    Alcotest.test_case "skewed costs: map_array output order preserved"
      `Quick (fun () ->
        with_lanes @@ fun () ->
        let n = 257 in
        let xs = Array.init n (fun i -> i) in
        let costs =
          Array.init n (fun i -> if i mod 17 = 0 then 500 else 1)
        in
        let f x = (x * 31) mod 101 in
        let expect = Array.map f xs in
        List.iter
          (fun jobs ->
            Alcotest.(check (array int))
              (Fmt.str "jobs=%d" jobs)
              expect
              (Pool.map_array ~jobs ~costs f xs))
          [ 2; 3; 8 ]);
    Alcotest.test_case "chunked batches re-raise the first exception"
      `Quick (fun () ->
        with_lanes @@ fun () ->
        (* tasks 97..299 all raise; chunked or not, input order wins *)
        let xs = Array.init 300 (fun i -> i) in
        let costs = Array.init 300 (fun i -> if i < 97 then 50 else 1) in
        let boom i = if i >= 97 then failwith (Fmt.str "task %d" i) else i in
        match Pool.map_array ~jobs:8 ~costs boom xs with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg -> Alcotest.(check string) "first" "task 97" msg);
    Alcotest.test_case "run_chunked hits every index exactly once" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let n = 300 in
        let costs = Array.init n (fun i -> if i mod 13 = 0 then 200 else 1) in
        (* lanes claim disjoint index ranges, so plain writes suffice *)
        let hits = Array.make n 0 in
        Pool.run_chunked ~jobs:8 ~costs (fun i -> hits.(i) <- hits.(i) + 1);
        Alcotest.(check (array int)) "once each" (Array.make n 1) hits);
    Alcotest.test_case "seq_below keeps small batches on the caller" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let caller = (Domain.self () :> int) in
        let xs = Array.init 50 (fun i -> i) in
        let doms =
          Pool.map_array ~jobs:8 ~seq_below:max_int
            (fun _ -> (Domain.self () :> int))
            xs
        in
        Alcotest.(check (array int))
          "all on the calling domain" (Array.make 50 caller) doms);
  ]

(* ------------------------------------------------------------------ *)
(* Parallel determinism on the bundled suite *)

(* Everything an analysis run externalises, as comparable values. *)
let observe config (p : Programs.program) =
  let symtab, t =
    Driver.analyze_source ~config ~file:p.Programs.name p.Programs.source
  in
  let sub = Substitute.apply t in
  ( t.Driver.solver.Solver.vals,
    Driver.census t,
    Lint.render_text (Lint.run t),
    Pretty.program_to_string sub.Substitute.program,
    sub.Substitute.total,
    List.map (fun p -> SM.bindings (Driver.constants t p)) symtab.Symtab.order
  )

let determinism_tests =
  [
    Alcotest.test_case "jobs=4 results identical to jobs=1 (12 programs)"
      `Quick (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let vals1, census1, lint1, src1, total1, consts1 =
              observe (cfg_jobs 1) p
            in
            let vals4, census4, lint4, src4, total4, consts4 =
              observe (cfg_jobs 4) p
            in
            let name = p.Programs.name in
            Alcotest.(check bool)
              (name ^ ": solver fixpoint") true (vals_equal vals1 vals4);
            Alcotest.(check bool)
              (name ^ ": census") true (census1 = census4);
            Alcotest.(check string) (name ^ ": lint") lint1 lint4;
            Alcotest.(check string) (name ^ ": substituted source") src1 src4;
            Alcotest.(check int) (name ^ ": substituted count") total1 total4;
            Alcotest.(check bool)
              (name ^ ": CONSTANTS") true (consts1 = consts4))
          Programs.all);
  ]

(* Same determinism contract on generated programs: seeds and program
   sizes vary, so the partitioning and work skew vary with them. *)
let gen_determinism_prop (seed, n_procs) =
  let src =
    Generator.generate
      ~params:{ Generator.default with Generator.seed; n_procs }
      ()
  in
  let run jobs =
    let _, t =
      Driver.analyze_source ~config:(cfg_jobs jobs) ~file:"<gen>" src
    in
    let sub = Substitute.apply t in
    ( t.Driver.solver.Solver.vals,
      Pretty.program_to_string sub.Substitute.program )
  in
  let vals1, src1 = run 1 in
  let vals4, src4 = run 4 in
  if not (vals_equal vals1 vals4) then
    QCheck.Test.fail_reportf "seed %d procs %d: fixpoints differ" seed n_procs;
  if not (String.equal src1 src4) then
    QCheck.Test.fail_reportf "seed %d procs %d: substituted sources differ"
      seed n_procs;
  true

(* The same contract across call-graph shapes, at jobs=8 with
   oversubscribed lanes — this drives the chunked stage dispatch AND
   the solver's SCC wavefronts (cyclic shapes give non-trivial
   components) on genuinely concurrent domains even on a 1-core host.
   Observed surfaces are the ones CI diffs across job counts: the
   fixpoint, the substituted source, the lint report, and the interval
   JSON. *)
let shapes = Generator.[ Chain; Fanout; Cyclic; Mixed ]

let observe_shaped jobs src =
  let _, t = Driver.analyze_source ~config:(cfg_jobs jobs) ~file:"<gen>" src in
  let sub = Substitute.apply t in
  ( t.Driver.solver.Solver.vals,
    Pretty.program_to_string sub.Substitute.program,
    Lint.render_text (Lint.run t),
    Ipcp_obs.Json.to_string (Ipcp_core.Ranges.json (Driver.analyze_ranges t))
  )

let shaped_determinism_prop (seed, n_procs, shape) =
  let src =
    Generator.generate ~params:(Generator.scaled ~shape ~seed ~n_procs ()) ()
  in
  let vals1, src1, lint1, rng1 = observe_shaped 1 src in
  let vals8, src8, lint8, rng8 =
    with_lanes (fun () -> observe_shaped 8 src)
  in
  let where what =
    Fmt.str "seed %d procs %d shape %s: %s differ" seed n_procs
      (Generator.shape_name shape) what
  in
  if not (vals_equal vals1 vals8) then
    QCheck.Test.fail_report (where "fixpoints");
  if not (String.equal src1 src8) then
    QCheck.Test.fail_report (where "substituted sources");
  if not (String.equal lint1 lint8) then
    QCheck.Test.fail_report (where "lint reports");
  if not (String.equal rng1 rng8) then
    QCheck.Test.fail_report (where "interval JSON");
  true

let gen_determinism_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"generated programs: jobs=4 identical to jobs=1" ~count:20
         QCheck.(pair (make Gen.(int_bound 999)) (make Gen.(int_range 2 16)))
         gen_determinism_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"shaped programs: jobs=8 oversubscribed identical to jobs=1"
         ~count:8
         QCheck.(
           triple
             (make Gen.(int_bound 999))
             (make Gen.(int_range 12 40))
             (make (Gen.oneofl shapes)))
         shaped_determinism_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Chunk boundaries must not disturb the global call-site numbering:
   parallel lowering gives each procedure a pre-computed site-id offset,
   so the ids must be exactly the sequential walk's no matter how the
   chunked dispatch splits the procedure list. *)

let site_numbering_tests =
  [
    Alcotest.test_case
      "parallel lowering keeps sequential call-site numbering" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let src =
          Generator.generate
            ~params:(Generator.scaled ~shape:Generator.Mixed ~n_procs:120 ())
            ()
        in
        let symtab = Sema.parse_and_analyze ~file:"<sites>" src in
        let ids cfgs =
          SM.map
            (fun (cfg : Ipcp_ir.Cfg.t) ->
              List.map
                (fun (s : Ipcp_ir.Instr.site) -> s.Ipcp_ir.Instr.site_id)
                cfg.Ipcp_ir.Cfg.sites)
            cfgs
        in
        let seq = ids (Ipcp_ir.Lower.lower_program symtab) in
        let _, t =
          Driver.analyze_source ~config:(cfg_jobs 8) ~file:"<sites>" src
        in
        Alcotest.(check bool)
          "site ids identical" true
          (SM.equal (List.equal Int.equal) seq (ids t.Driver.cfgs)))
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry parity: a run's deterministic counters and convergence log
   are a function of the program, not of the lane count.  The programs
   are large enough that every pool stage dispatches (total cost above
   [Pool.default_seq_cost]), on oversubscribed lanes so they run
   concurrently even on a 1-core host.  Tabulation gets a smaller input
   of its own: it costs far more per procedure. *)

module Ipcp = Ipcp_api.Ipcp
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics

(* the deterministic counters of [f ()], and whether it dispatched a
   pool batch *)
let window f =
  Metrics.reset ();
  ignore (f ());
  ( Metrics.deterministic (Metrics.snapshot ()),
    Metrics.get "pool.batches" > 0 )

let analyze_gen jobs ~shape ~n_procs =
  let src =
    Generator.generate ~params:(Generator.scaled ~shape ~n_procs ()) ()
  in
  match
    Ipcp.analyze ~config:(cfg_jobs jobs)
      (Ipcp.Source.of_string ~file:"<gen>" src)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let parity_tests =
  [
    Alcotest.test_case
      "jobs=4 oversubscribed telemetry identical to jobs=1" `Quick (fun () ->
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
        with_lanes @@ fun () ->
        let same what (c1, _) (c4, dispatched) =
          if not dispatched then
            Alcotest.failf "%s: no pool batch at jobs=4" what;
          let keys = List.sort_uniq compare (List.map fst (c1 @ c4)) in
          let value c k =
            Option.fold ~none:"-" ~some:string_of_int (List.assoc_opt k c)
          in
          match List.filter (fun k -> value c1 k <> value c4 k) keys with
          | [] -> ()
          | ks ->
              Alcotest.failf "%s differ (jobs=1 vs jobs=4): %s" what
                (String.concat ", "
                   (List.map
                      (fun k -> Fmt.str "%s %s/%s" k (value c1 k) (value c4 k))
                      ks))
        in
        List.iter
          (fun shape ->
            let name = Generator.shape_name shape in
            let run jobs =
              let r = analyze_gen jobs ~shape ~n_procs:120 in
              let analyze =
                (Ipcp.Result.stats r, Metrics.get "pool.batches" > 0)
              in
              (r, analyze, window (fun () -> Ipcp.Result.ranges r))
            in
            let r1, a1, g1 = run 1 and r4, a4, g4 = run 4 in
            same (name ^ ": analyze counters") a1 a4;
            Alcotest.(check int)
              (name ^ ": convergence rows")
              (List.length (Ipcp.Result.convergence r1))
              (List.length (Ipcp.Result.convergence r4));
            Alcotest.(check bool)
              (name ^ ": convergence log") true
              (Ipcp.Result.convergence r1 = Ipcp.Result.convergence r4);
            same (name ^ ": ranges counters") g1 g4)
          Generator.[ Mixed; Cyclic ];
        let tabulate jobs =
          let r = analyze_gen jobs ~shape:Generator.Cyclic ~n_procs:8 in
          window (fun () -> Ipcp.Domains.run_contexts ~warm:false "const" r)
        in
        same "const tabulation counters" (tabulate 1) (tabulate 4));
  ]

let suites =
  [
    ("par-pool", pool_tests);
    ("par-chunking", chunking_tests);
    ("par-determinism", determinism_tests);
    ("par-gen-determinism", gen_determinism_tests);
    ("par-sites", site_numbering_tests);
    ("par-telemetry", parity_tests);
  ]
