(* Value-context tabulation: the soundness keystone against the 1986
   jump-function solver, determinism under parallel evaluation, the
   bounded-table guarantee for recursion groups, and the warm cache.
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

let suites =
  [
    ("contexts-suite", suite_tests);
    ( "contexts-shapes",
      List.map QCheck_alcotest.to_alcotest [ prop_keystone ] );
    ("contexts-engine", engine_tests);
  ]
