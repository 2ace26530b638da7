(* Value-context tabulation: the soundness keystone against the 1986
   jump-function solver, determinism under parallel evaluation, the
   bounded-table guarantee for recursion groups, the warm cache, and
   tables and work pinned to recorded runs.
   test_framework.ml repeats the determinism check for every value
   domain and engine.

   The keystone is the refinement relation: every entry constant the
   solver proves must survive in the tabulation's merged projection —
   context sensitivity may only add information, never contradict the
   context-insensitive fixpoint. *)

module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Generator = Ipcp_gen.Generator
module Programs = Ipcp_suite.Programs
module Registry = Ipcp_contexts.Registry
module Tabulation = Ipcp_contexts.Tabulation
module Compare = Ipcp_contexts.Compare
module Lint = Ipcp_analysis.Lint
module Json = Ipcp_obs.Json
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Pool = Ipcp_par.Pool

let driver_of ?config ~file src =
  snd (Driver.analyze_source ?config ~file src)

let row_of (p : Programs.program) =
  Compare.run_program ~name:p.Programs.name
    (driver_of ~file:p.Programs.name p.Programs.source)

(* ------------------------------------------------------------------ *)
(* Keystone on the suite *)

let suite_tests =
  [
    Alcotest.test_case "keystone holds on all twelve programs and extras"
      `Quick (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let r = row_of p in
            (match r.Compare.r_violations with
            | [] -> ()
            | (proc, name, c, m) :: _ ->
                Alcotest.failf "%s: solver has %s.%s = %s but tabulation %s"
                  p.Programs.name proc name c m);
            if r.Compare.r_ctx_consts < r.Compare.r_jf_consts then
              Alcotest.failf "%s: tabulation lost constants (%d < %d)"
                p.Programs.name r.Compare.r_ctx_consts r.Compare.r_jf_consts)
          (Programs.all @ Programs.extras));
    Alcotest.test_case "at least one program is strictly more precise"
      `Quick (fun () ->
        let rows = List.map row_of (Programs.all @ Programs.extras) in
        if
          not
            (List.exists (fun r -> r.Compare.r_extra_consts > 0) rows)
        then Alcotest.fail "no program gained an entry constant");
    Alcotest.test_case
      "ctxdemo: only the context-sensitive ranges decide the subscripts"
      `Quick (fun () ->
        let p = Option.get (Programs.by_name "ctxdemo") in
        let r = row_of p in
        Alcotest.(check int)
          "jf leaves four sites unknown" 4
          r.Compare.r_jf_verdicts.Lint.n_unknown;
        Alcotest.(check int)
          "tabulation decides them all" 0
          r.Compare.r_ctx_verdicts.Lint.n_unknown;
        Alcotest.(check int) "upgraded" 4 r.Compare.r_upgraded;
        Alcotest.(check bool)
          "gains the MOD entry constant" true
          (r.Compare.r_extra_consts >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Keystone across generator shapes (QCheck) *)

let shapes =
  [
    Generator.Acyclic;
    Generator.Chain;
    Generator.Fanout;
    Generator.Cyclic;
    Generator.Mixed;
  ]

let shape_seed_arb =
  QCheck.make
    ~print:(fun (sh, seed) ->
      Fmt.str "%s seed %d" (Generator.shape_name sh) seed)
    QCheck.Gen.(pair (oneofl shapes) (int_range 0 50))

let prop_keystone =
  QCheck.Test.make ~count:20 ~name:"tabulation refines the solver on every shape"
    shape_seed_arb (fun (shape, seed) ->
      let src =
        Generator.generate
          ~params:{ Generator.default with Generator.seed; shape; n_procs = 8 }
          ()
      in
      let d = driver_of ~file:"<gen>" src in
      let r = Compare.run_program ~name:"gen" d in
      r.Compare.r_violations = []
      && r.Compare.r_ctx_consts >= r.Compare.r_jf_consts)

(* ------------------------------------------------------------------ *)
(* Determinism, recursion bounds, warm cache *)

let gen_src ~shape ~n_procs seed =
  Generator.generate
    ~params:{ Generator.default with Generator.seed; shape; n_procs }
    ()

let procedures_json = function
  | Json.Obj fields -> List.assoc "procedures" fields
  | _ -> Alcotest.fail "table JSON is not an object"

let engine_tests =
  [
    Alcotest.test_case "jobs-1 and jobs-4 tables are byte-identical" `Quick
      (fun () ->
        let src = gen_src ~shape:Generator.Mixed ~n_procs:40 7 in
        let table jobs =
          let d =
            driver_of
              ~config:{ Config.default with Config.jobs }
              ~file:"<gen>" src
          in
          let t = Registry.Const.run ~warm:false d in
          ( Fmt.str "%a" Registry.Const.T.render_text t,
            Registry.Const.T.json t )
        in
        let t1, j1 = table 1 and t4, j4 = table 4 in
        Alcotest.(check string) "rendered tables equal" t1 t4;
        Alcotest.(check bool) "JSON equal" true (j1 = j4));
    Alcotest.test_case "recursion groups stay bounded at ctx-limit 2"
      `Quick (fun () ->
        let src = gen_src ~shape:Generator.Cyclic ~n_procs:12 2 in
        let d = driver_of ~file:"<gen>" src in
        let t = Registry.Const.run ~ctx_limit:2 ~warm:false d in
        let s = t.Registry.Const.T.summary in
        if s.Tabulation.s_fallbacks < 1 then
          Alcotest.fail "expected at least one fallback context";
        (* at most ctx_limit exact contexts plus one fallback per proc *)
        if s.Tabulation.s_contexts > 3 * (12 + 1) then
          Alcotest.failf "table not bounded: %d contexts"
            s.Tabulation.s_contexts;
        (match Compare.keystone_violations d t with
        | [] -> ()
        | (proc, name, _, _) :: _ ->
            Alcotest.failf "keystone violated at %s.%s" proc name);
        (* the fixpoint is a pure function of the program *)
        let t' = Registry.Const.run ~ctx_limit:2 ~warm:false d in
        Alcotest.(check string)
          "re-run identical"
          (Fmt.str "%a" Registry.Const.T.render_text t)
          (Fmt.str "%a" Registry.Const.T.render_text t'));
    Alcotest.test_case "warm cache seeds exits and preserves the table"
      `Quick (fun () ->
        Registry.reset_caches ();
        let p = Option.get (Programs.by_name "ctxdemo") in
        let d = driver_of ~file:p.Programs.name p.Programs.source in
        let t1 = Registry.Const.run ~warm:true d in
        let t2 = Registry.Const.run ~warm:true d in
        if t2.Registry.Const.T.summary.Tabulation.s_cache_seeds < 1 then
          Alcotest.fail "second run adopted no cached exits";
        Alcotest.(check bool)
          "same contexts and exits" true
          (procedures_json (Registry.Const.T.json t1)
          = procedures_json (Registry.Const.T.json t2));
        Registry.reset_caches ());
  ]

(* ------------------------------------------------------------------ *)
(* The table and the work to reach it, pinned *)

(* Cold tabulations recorded from the engine that keyed contexts by
   their printed entry strings: program, domain, contexts created,
   evaluations, rounds, contexts kept, fallbacks kept, and the MD5 of
   the JSON report.  Keying by value must reproduce them at every jobs
   setting, and build one canonical key per exact context created (every
   created context but the fallbacks), not one per call-site lookup. *)
let pinned =
  [
    ("ctxdemo", "const", 6, 9, 6, 6, 0, "d6a2df4d5009636928953c8bccfa42f6");
    ("ctxdemo", "interval", 6, 9, 6, 6, 0, "8fc2355ba22c8bb83a08b6ea61169627");
    ("mixed40", "const", 986, 4531, 1035, 41, 14,
     "e08d91e2e992cda7241aa6c3a89ef182");
    ("mixed40", "interval", 142, 298, 207, 55, 0,
     "169bdb07ddadcd21c68e9b59ed86c264");
  ]

let pinned_source = function
  | "ctxdemo" -> (Option.get (Programs.by_name "ctxdemo")).Programs.source
  | _ -> gen_src ~shape:Generator.Mixed ~n_procs:40 7

let pinned_run ~jobs prog dom =
  let d =
    driver_of ~config:{ Config.default with Config.jobs } ~file:prog
      (pinned_source prog)
  in
  match dom with
  | "const" ->
      let t = Registry.Const.run ~warm:false d in
      (t.Registry.Const.T.summary, Registry.Const.T.json t)
  | _ ->
      let t = Registry.Interval.run ~warm:false d in
      (t.Registry.Interval.T.summary, Registry.Interval.T.json t)

let pinned_tests =
  [
    Alcotest.test_case "tables, work and keys match the recorded runs"
      `Quick (fun () ->
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Obs.set_enabled false;
            Pool.oversubscribe := false;
            Metrics.reset ())
        @@ fun () ->
        List.iter
          (fun jobs ->
            Pool.oversubscribe := jobs > 1;
            List.iter
              (fun (prog, dom, created, evals, rounds, contexts, fallbacks, md5)
                 ->
                Metrics.reset ();
                let s, json = pinned_run ~jobs prog dom in
                let what field =
                  Fmt.str "%s %s jobs %d: %s" prog dom jobs field
                in
                let check field want got =
                  Alcotest.(check int) (what field) want got
                in
                check "created" created s.Tabulation.s_created;
                check "evals" evals s.Tabulation.s_evals;
                check "rounds" rounds s.Tabulation.s_rounds;
                check "contexts" contexts s.Tabulation.s_contexts;
                check "fallbacks" fallbacks s.Tabulation.s_fallbacks;
                Alcotest.(check string)
                  (what "JSON digest") md5
                  (Digest.to_hex (Digest.string (Json.to_string json)));
                check "canonical keys built"
                  (created - Metrics.get ("ctx." ^ dom ^ ".fallbacks"))
                  (Metrics.get ("ctx." ^ dom ^ ".keys")))
              pinned)
          [ 1; 4 ]);
  ]

let suites =
  [
    ("contexts-suite", suite_tests);
    ( "contexts-shapes",
      List.map QCheck_alcotest.to_alcotest [ prop_keystone ] );
    ("contexts-engine", engine_tests);
    ("contexts-pinned", pinned_tests);
  ]
