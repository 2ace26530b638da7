(* Property tests over randomly generated programs.

   The keystone is SOUNDNESS: every (variable, value) pair the analyzer
   places in CONSTANTS(p) must hold at every dynamic entry to p, for every
   analysis configuration.  The interpreter's entry trace is the ground
   truth; undefined variables get random values, so optimistic analyzer
   bugs cannot hide. *)

open Ipcp_frontend
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Generator = Ipcp_gen.Generator
module Interp = Ipcp_interp.Interp
module Substitute = Ipcp_opt.Substitute
module Intra = Ipcp_opt.Intra
module Complete = Ipcp_opt.Complete

let gen_src ?(initialised = true) seed =
  Generator.generate
    ~params:{ Generator.default with Generator.seed; initialised }
    ()

let all_configs =
  List.concat_map
    (fun jf ->
      List.concat_map
        (fun return_jfs ->
          List.map
            (fun use_mod ->
              { Config.default with Config.jf; return_jfs; use_mod })
            [ true; false ])
        [ true; false ])
    [ Config.Literal; Config.Intraconst; Config.Passthrough; Config.Polynomial ]

(* ------------------------------------------------------------------ *)
(* Generator validity *)

let generator_tests =
  [
    Alcotest.test_case "generated programs parse and check (100 seeds)"
      `Quick (fun () ->
        for seed = 0 to 99 do
          let src = gen_src seed in
          match Diag.guard_s (fun () -> Sema.parse_and_analyze ~file:"<gen>" src) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed %d: %s\n%s" seed e src
        done);
    Alcotest.test_case "uninitialised variants also check (50 seeds)" `Quick
      (fun () ->
        for seed = 0 to 49 do
          let src = gen_src ~initialised:false seed in
          match Diag.guard_s (fun () -> Sema.parse_and_analyze ~file:"<gen>" src) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed %d: %s" seed e
        done);
    Alcotest.test_case "generated programs terminate in the interpreter"
      `Quick (fun () ->
        for seed = 0 to 49 do
          let src = gen_src seed in
          let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
          let r = Interp.run ~fuel:5_000_000 symtab in
          match r.Interp.status with
          | Interp.Completed | Interp.Stopped | Interp.Fault _ -> ()
          | Interp.Out_of_fuel -> Alcotest.failf "seed %d ran out of fuel" seed
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Soundness: CONSTANTS hold at every dynamic procedure entry *)

let check_soundness ~seed ~config src =
  let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
  let t = Driver.analyze ~config symtab in
  (* two interpreter runs with different undefined-value seeds *)
  List.iter
    (fun iseed ->
      let r = Interp.run ~seed:iseed symtab in
      List.iter
        (fun (snap : Interp.entry_snapshot) ->
          let constants = Driver.constants t snap.Interp.e_proc in
          Names.SM.iter
            (fun name c ->
              match List.assoc_opt name snap.Interp.e_vals with
              | None -> () (* array or untracked: nothing claimed *)
              | Some (Some v) ->
                  if v <> c then
                    Alcotest.failf
                      "seed %d config %s: CONSTANTS(%s) claims %s=%d but a \
                       dynamic entry has %d\n%s"
                      seed
                      (Fmt.str "%a" Config.pp config)
                      snap.Interp.e_proc name c v src
              | Some None ->
                  Alcotest.failf
                    "seed %d config %s: CONSTANTS(%s) claims %s=%d but it is \
                     undefined at a dynamic entry"
                    seed
                    (Fmt.str "%a" Config.pp config)
                    snap.Interp.e_proc name c)
            constants)
        r.Interp.trace)
    [ 7; 1234 ]

let soundness_tests =
  [
    Alcotest.test_case "CONSTANTS sound vs interpreter (all configs)" `Slow
      (fun () ->
        for seed = 0 to 39 do
          let src = gen_src seed in
          List.iter (fun config -> check_soundness ~seed ~config src) all_configs
        done);
    Alcotest.test_case "CONSTANTS sound on uninitialised programs" `Slow
      (fun () ->
        for seed = 0 to 39 do
          let src = gen_src ~initialised:false seed in
          List.iter
            (fun config -> check_soundness ~seed ~config src)
            [
              Config.default;
              { Config.default with Config.jf = Config.Polynomial };
              { Config.default with Config.use_mod = false };
              { Config.default with Config.return_jfs = false };
            ]
        done);
    Alcotest.test_case "symbolic-returns extension is also sound" `Slow
      (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          check_soundness ~seed
            ~config:
              {
                Config.default with
                Config.jf = Config.Polynomial;
                symbolic_returns = true;
              }
            src
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Monotonicity between configurations *)

let count config src =
  let _, t = Driver.analyze_source ~config ~file:"<gen>" src in
  Substitute.count t

let monotonicity_tests =
  [
    Alcotest.test_case "literal <= intra <= pass-through <= polynomial"
      `Quick (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          let c jf = count { Config.default with Config.jf } src in
          let l = c Config.Literal
          and i = c Config.Intraconst
          and p = c Config.Passthrough
          and y = c Config.Polynomial in
          if not (l <= i && i <= p && p <= y) then
            Alcotest.failf "seed %d: %d %d %d %d not ascending" seed l i p y
        done);
    Alcotest.test_case "no MOD <= with MOD; no return JFs <= with" `Quick
      (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          let c use_mod return_jfs =
            count { Config.default with Config.use_mod; return_jfs } src
          in
          if not (c false true <= c true true) then
            Alcotest.failf "seed %d: MOD not monotone" seed;
          if not (c true false <= c true true) then
            Alcotest.failf "seed %d: return JFs not monotone" seed
        done);
    Alcotest.test_case "intraprocedural baseline <= interprocedural" `Quick
      (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
          let intra = Intra.count symtab in
          let inter =
            Substitute.count
              (Driver.analyze
                 ~config:{ Config.default with Config.jf = Config.Polynomial }
                 symtab)
          in
          if intra > inter then
            Alcotest.failf "seed %d: intra %d > inter %d" seed intra inter
        done);
    Alcotest.test_case "paper-faithful returns <= symbolic returns" `Quick
      (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          let c symbolic_returns =
            count
              { Config.default with
                Config.jf = Config.Polynomial; symbolic_returns }
              src
          in
          if c false > c true then
            Alcotest.failf "seed %d: symbolic returns lost constants" seed
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Semantic preservation of the transformations *)

let run_output symtab =
  let r = Interp.run ~fuel:500_000 symtab in
  (r.Interp.status, r.Interp.output)

let preservation_tests =
  [
    Alcotest.test_case "substitution preserves program output" `Slow
      (fun () ->
        for seed = 0 to 39 do
          let src = gen_src seed in
          let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
          let t =
            Driver.analyze
              ~config:{ Config.default with Config.jf = Config.Polynomial }
              symtab
          in
          let sub = Substitute.apply t in
          let src' = Pretty.program_to_string sub.Substitute.program in
          let symtab' = Sema.parse_and_analyze ~file:"<gen'>" src' in
          let s1, o1 = run_output symtab in
          let s2, o2 = run_output symtab' in
          match s1 with
          | Interp.Completed | Interp.Stopped ->
              if o1 <> o2 then
                Alcotest.failf "seed %d: output changed\n%s\n---\n%s" seed src
                  src';
              if s1 <> s2 then Alcotest.failf "seed %d: status changed" seed
          | _ -> () (* faulting programs may fault mid-print; skip *)
        done);
    Alcotest.test_case "complete propagation preserves program output" `Slow
      (fun () ->
        for seed = 0 to 29 do
          let src = gen_src seed in
          let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
          let s1, o1 = run_output symtab in
          match s1 with
          | Interp.Completed | Interp.Stopped ->
              let r = Complete.run src in
              let symtab' =
                Sema.parse_and_analyze ~file:"<c>" r.Complete.final_source
              in
              let s2, o2 = run_output symtab' in
              if o1 <> o2 then
                Alcotest.failf "seed %d: complete propagation changed output\n%s\n---\n%s"
                  seed src r.Complete.final_source;
              if s1 <> s2 then Alcotest.failf "seed %d: status changed" seed
          | _ -> ()
        done);
    Alcotest.test_case "pretty/parse round-trip on generated programs"
      `Quick (fun () ->
        for seed = 0 to 49 do
          let src = gen_src seed in
          let p1 = Parser.parse ~file:"<g>" src in
          let s1 = Pretty.program_to_string p1 in
          let s2 = Pretty.program_to_string (Parser.parse ~file:"<g>" s1) in
          if s1 <> s2 then Alcotest.failf "seed %d: round-trip unstable" seed
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Verifier has no false positives: on generated programs the pass
   sanitizer reports zero violations after lowering, SSA construction,
   and every source-to-source optimization pass. *)

module Verify = Ipcp_verify.Verify

let expect_clean ~seed ~stage = function
  | [] -> ()
  | v :: _ ->
      QCheck.Test.fail_reportf "seed %d: %s: %s" seed stage
        (Verify.violation_to_string v)

let verifier_clean_prop seed =
  let src = gen_src seed in
  let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
  let cfgs = Ipcp_ir.Lower.lower_program symtab in
  Names.SM.iter
    (fun _ cfg ->
      expect_clean ~seed ~stage:"lowering" (Verify.check_lowered ~symtab cfg);
      expect_clean ~seed ~stage:"SSA"
        (Verify.check_ssa ~symtab (Ipcp_ir.Ssa.convert cfg)))
    cfgs;
  (* Driver.analyze and Substitute.apply re-run the verifier internally
     (verify_ir is on in Config.default and raises on violations), the
     substitution per rewritten procedure; going through check_source
     here also checks the printer round trip of the rewritten program. *)
  let t = Driver.analyze symtab in
  let sub = Substitute.apply t in
  expect_clean ~seed ~stage:"substitution"
    (Verify.check_source ~file:"<sub>"
       (Pretty.program_to_string sub.Substitute.program));
  let r = Complete.run src in
  expect_clean ~seed ~stage:"complete propagation"
    (Verify.check_source ~file:"<complete>" r.Complete.final_source);
  true

let verifier_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"verifier clean after lowering, SSA and every opt pass"
         ~count:25
         QCheck.(make Gen.(int_bound 999))
         verifier_clean_prop);
  ]

let suites =
  [
    ("gen-validity", generator_tests);
    ("prop-soundness", soundness_tests);
    ("prop-monotonicity", monotonicity_tests);
    ("prop-preservation", preservation_tests);
    ("prop-verifier", verifier_tests);
  ]
