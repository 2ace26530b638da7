(* Tests for the abstract-domain framework and the value-range pipeline:

   - interval lattice laws and transfer-function soundness on sampled
     concrete values (QCheck);
   - the Const instance of the generic solver reaches the same fixpoint
     as the historical entry points on all bundled suite programs, under
     either worklist discipline;
   - the interval pipeline converges on the suite, is deterministic
     across job counts, and its entry ranges contain every proven
     constant;
   - the range-soundness keystone: every value the interpreter observes
     at a located scalar read lies inside the inferred interval;
   - the range-aware lint checks (proved verdicts, W008) and the
     [--werror] exit codes of the CLI. *)

open Ipcp_frontend
open Ipcp_frontend.Names
module I = Ipcp_domains.Interval
module C = Ipcp_domains.Clattice
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Ranges = Ipcp_core.Ranges
module Lint = Ipcp_analysis.Lint
module Interp = Ipcp_interp.Interp
module Generator = Ipcp_gen.Generator
module Programs = Ipcp_suite.Programs

let analyze ?config src =
  let symtab = Sema.parse_and_analyze ~file:"<dom>" src in
  (symtab, Driver.analyze ?config symtab)

(* ------------------------------------------------------------------ *)
(* Interval domain: lattice laws on generated intervals *)

let interval_gen : I.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, return I.top);
        (1, return I.bot);
        ( 4,
          map2
            (fun a b -> I.of_bounds (min a b) (max a b))
            (int_range (-20) 20) (int_range (-20) 20) );
        (1, map (fun a -> I.Range (I.Ninf, I.Fin a)) (int_range (-20) 20));
        (1, map (fun a -> I.Range (I.Fin a, I.Pinf)) (int_range (-20) 20));
      ])

let interval_arb = QCheck.make ~print:I.to_string interval_gen

let interval_laws =
  let open QCheck in
  [
    Test.make ~count:1000 ~name:"meet commutative"
      (pair interval_arb interval_arb) (fun (a, b) ->
        I.equal (I.meet a b) (I.meet b a));
    Test.make ~count:1000 ~name:"meet associative"
      (triple interval_arb interval_arb interval_arb) (fun (a, b, c) ->
        I.equal (I.meet (I.meet a b) c) (I.meet a (I.meet b c)));
    Test.make ~count:1000 ~name:"meet idempotent" interval_arb (fun a ->
        I.equal (I.meet a a) a);
    Test.make ~count:1000 ~name:"join idempotent" interval_arb (fun a ->
        I.equal (I.join a a) a);
    Test.make ~count:1000 ~name:"top neutral for meet, absorbing for join"
      interval_arb (fun a ->
        I.equal (I.meet I.top a) a && I.equal (I.join I.top a) I.top);
    Test.make ~count:1000 ~name:"bot absorbing for meet, neutral for join"
      interval_arb (fun a ->
        I.equal (I.meet I.bot a) I.bot && I.equal (I.join I.bot a) a);
    Test.make ~count:1000 ~name:"meet is a lower bound"
      (pair interval_arb interval_arb) (fun (a, b) ->
        let m = I.meet a b in
        I.leq m a && I.leq m b);
    Test.make ~count:1000 ~name:"widen keeps every value of the new interval"
      (pair interval_arb interval_arb) (fun (old_, next) ->
        let w = I.widen old_ next in
        List.for_all
          (fun v -> (not (I.contains next v)) || I.contains w v)
          [ -4097; -100; -5; -1; 0; 1; 5; 100; 4097 ]);
    Test.make ~count:1000 ~name:"narrow stays between refit and wide"
      (pair interval_arb interval_arb) (fun (wide, refit) ->
        let n = I.narrow wide refit in
        List.for_all
          (fun v ->
            (not (I.contains refit v && I.contains wide v)) || I.contains n v)
          [ -100; -5; -1; 0; 1; 5; 100 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Interval transfers: sound on sampled concrete values *)

let ops = [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ]

let relops = [ Ast.Req; Ast.Rne; Ast.Rlt; Ast.Rle; Ast.Rgt; Ast.Rge ]

(* a concrete point (x, y) and intervals built around it *)
let sample_gen =
  QCheck.Gen.(
    map
      (fun ((oi, (x, y)), ((a1, a2), (b1, b2))) ->
        (oi, x, y, I.of_bounds (x - a1) (x + a2), I.of_bounds (y - b1) (y + b2)))
      (pair
         (pair (int_range 0 99) (pair (int_range (-30) 30) (int_range (-30) 30)))
         (pair
            (pair (int_range 0 5) (int_range 0 5))
            (pair (int_range 0 5) (int_range 0 5)))))

let sample_arb =
  QCheck.make
    ~print:(fun (oi, x, y, a, b) ->
      Printf.sprintf "op#%d x=%d y=%d a=%s b=%s" oi x y (I.to_string a)
        (I.to_string b))
    sample_gen

let transfer_props =
  let open QCheck in
  [
    Test.make ~count:3000 ~name:"binop sound: f(x,y) ∈ f#(a,b)" sample_arb
      (fun (oi, x, y, a, b) ->
        let op = List.nth ops (oi mod List.length ops) in
        match Ast.eval_binop op x y with
        | None -> true (* faulting op: no value flows *)
        | Some v -> I.contains (I.binop op a b) v);
    Test.make ~count:1000 ~name:"unop sound: -x ∈ neg#(a)" sample_arb
      (fun (_, x, _, a, _) ->
        I.contains (I.unop Ast.Neg a) (Ast.eval_unop Ast.Neg x));
    Test.make ~count:2000 ~name:"intrinsics sound on samples" sample_arb
      (fun (oi, x, y, a, b) ->
        let i =
          List.nth
            [ Ast.Imod; Ast.Imax; Ast.Imin ]
            (oi mod 3)
        in
        match Ast.eval_intrin i [ x; y ] with
        | None -> true
        | Some v -> I.contains (I.intrin i [ a; b ]) v);
    Test.make ~count:2000 ~name:"abs sound on samples" sample_arb
      (fun (_, x, _, a, _) ->
        match Ast.eval_intrin Ast.Iabs [ x ] with
        | None -> true
        | Some v -> I.contains (I.intrin Ast.Iabs [ a ]) v);
    Test.make ~count:3000 ~name:"filter keeps every satisfying point"
      sample_arb (fun (oi, x, y, a, b) ->
        let op = List.nth relops (oi mod List.length relops) in
        if Ast.eval_relop op x y then begin
          let a', b' = I.filter op a b in
          I.contains a' x && I.contains b' y
        end
        else true);
  ]

(* ------------------------------------------------------------------ *)
(* Const instance: the generic solver reaches the historical fixpoint *)

module CS = Solver.Make (Ipcp_domains.Clattice)

let vals_equal = SM.equal (SM.equal C.equal)

let const_identity_tests =
  [
    Alcotest.test_case
      "suite: fresh Const instance matches the pipeline fixpoint" `Quick
      (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let _, t = analyze p.Programs.source in
            let s2 =
              CS.solve ~metrics_ns:"test.solver" ~symtab:t.Driver.symtab
                ~cg:t.Driver.cg ~jfs:t.Driver.jfs ()
            in
            if not (vals_equal t.Driver.solver.Solver.vals s2.CS.vals) then
              Alcotest.failf "%s: VAL sets differ" p.Programs.name)
          Programs.all);
  ]

(* ------------------------------------------------------------------ *)
(* The interval pipeline on the bundled suite *)

let ranges_of ?config src =
  let _, t = analyze ?config src in
  (t, Driver.analyze_ranges t)

let suite_ranges_tests =
  [
    Alcotest.test_case
      "suite: interval pipeline converges and covers every proven constant"
      `Quick (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let t, rng = ranges_of p.Programs.source in
            SM.iter
              (fun proc _ ->
                SM.iter
                  (fun name c ->
                    let r = Ranges.ISolver.val_of rng.Ranges.solver proc name in
                    if not (I.contains r c) then
                      Alcotest.failf "%s: %s.%s = %d outside %s"
                        p.Programs.name proc name c (I.to_string r))
                  (Driver.constants t proc))
              t.Driver.symtab.Symtab.procs;
            Alcotest.(check bool)
              (p.Programs.name ^ ": has range facts")
              true
              (not (Loc.Map.is_empty rng.Ranges.facts)))
          Programs.all);
    Alcotest.test_case "suite: ranges JSON identical for jobs 1 and 4" `Quick
      (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let render jobs =
              let _, rng =
                ranges_of
                  ~config:{ Config.default with Config.jobs }
                  p.Programs.source
              in
              Ipcp_obs.Json.to_string (Ranges.json rng)
            in
            Alcotest.(check string) p.Programs.name (render 1) (render 4))
          Programs.all);
    Alcotest.test_case
      "suite: range facts upgrade fault-site verdicts beyond constants"
      `Quick (fun () ->
        (* an empty fact map reduces the range paths to "no knowledge", so
           the verdict delta counts exactly the sites only ranges decide *)
        let decided (vt : Lint.verdict_totals) = vt.Lint.n_safe + vt.Lint.n_fault in
        let upgraded =
          List.fold_left
            (fun acc (p : Programs.program) ->
              let t, rng = ranges_of p.Programs.source in
              let _, with_ranges = Lint.run_with_verdicts ~ranges:rng t in
              let _, const_only =
                Lint.run_with_verdicts
                  ~ranges:{ rng with Ranges.facts = Loc.Map.empty }
                  t
              in
              acc + (decided with_ranges - decided const_only))
            0 Programs.all
        in
        Alcotest.(check bool)
          "at least one site proved by ranges alone" true (upgraded >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Keystone soundness: observed values lie inside the inferred ranges *)

let ranges_sound_prop =
  QCheck.Test.make ~count:60
    ~name:"every interpreter-observed value lies in the inferred interval"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 400))
    (fun seed ->
      let src =
        Generator.generate
          ~params:
            {
              Generator.default with
              Generator.seed;
              initialised = seed mod 2 = 0;
            }
          ()
      in
      let symtab = Sema.parse_and_analyze ~file:"<gen>" src in
      let t = Driver.analyze symtab in
      let rng = Driver.analyze_ranges t in
      let viol = ref None in
      let observe l v =
        match Loc.Map.find_opt l rng.Ranges.facts with
        | Some r when not (I.contains r v) ->
            if !viol = None then viol := Some (l, v, r)
        | _ -> ()
      in
      ignore (Interp.run ~seed ~observe symtab);
      match !viol with
      | None -> true
      | Some (l, v, r) ->
          QCheck.Test.fail_reportf "seed %d: at %s observed %d outside %s\n%s"
            seed (Loc.to_string l) v (I.to_string r) src)

(* ------------------------------------------------------------------ *)
(* Range-aware lint: proved verdicts and W008 *)

let lint_with_ranges src =
  let _, t = analyze src in
  let rng = Driver.analyze_ranges t in
  Lint.run_with_verdicts ~ranges:rng t

let has_verdict idv v fs =
  List.exists
    (fun f -> Lint.id f.Lint.f_check = idv && f.Lint.f_verdict = Some v)
    fs

let src_refined_divzero =
  {|
PROGRAM p
  INTEGER n, k
  READ *, n
  IF (n .EQ. 0) THEN
    k = 1 / n
    PRINT *, k
  ENDIF
END
|}

let src_refined_subscript =
  {|
PROGRAM p
  INTEGER a(10), i
  READ *, i
  IF (i .GE. 1) THEN
    IF (i .LE. 10) THEN
      a(i) = 1
      PRINT *, a(i)
    ENDIF
  ENDIF
END
|}

let src_const_trip =
  {|
PROGRAM p
  INTEGER n, i, s
  n = 10
  s = 0
  DO i = 1, n
    s = s + i
  ENDDO
  PRINT *, s
END
|}

let range_lint_tests =
  [
    Alcotest.test_case
      "E001 proved by branch refinement where constants are silent" `Quick
      (fun () ->
        let _, t = analyze src_refined_divzero in
        Alcotest.(check bool)
          "no E001 from constants alone" false
          (List.exists
             (fun f -> Lint.id f.Lint.f_check = "IPCP-E001")
             (Lint.run t));
        let fs, vt = lint_with_ranges src_refined_divzero in
        Alcotest.(check bool)
          "E001 with a proved-fault verdict" true
          (has_verdict "IPCP-E001" Lint.Proved_fault fs);
        Alcotest.(check bool) "tallied as proved fault" true (vt.Lint.n_fault >= 1));
    Alcotest.test_case "E002 candidates proved safe by refined ranges" `Quick
      (fun () ->
        let fs, vt = lint_with_ranges src_refined_subscript in
        Alcotest.(check bool)
          "no E002 finding" false
          (List.exists (fun f -> Lint.id f.Lint.f_check = "IPCP-E002") fs);
        Alcotest.(check bool)
          "both subscript sites proved safe" true (vt.Lint.n_safe >= 2);
        Alcotest.(check int) "nothing left unknown" 0 vt.Lint.n_unknown);
    Alcotest.test_case "W008 fires only with range facts" `Quick (fun () ->
        let _, t = analyze src_const_trip in
        Alcotest.(check bool)
          "absent without ranges" false
          (List.exists
             (fun f -> Lint.id f.Lint.f_check = "IPCP-W008")
             (Lint.run t));
        let fs, _ = lint_with_ranges src_const_trip in
        let w8 =
          List.filter (fun f -> Lint.id f.Lint.f_check = "IPCP-W008") fs
        in
        Alcotest.(check int) "one finding" 1 (List.length w8);
        Alcotest.(check bool)
          "names the trip count" true
          (Astring.String.is_infix ~affix:"constant 10" (List.hd w8).Lint.f_msg));
    Alcotest.test_case "literal-bound loops are not flagged by W008" `Quick
      (fun () ->
        let fs, _ =
          lint_with_ranges
            {|
PROGRAM p
  INTEGER i, s
  s = 0
  DO i = 1, 10
    s = s + i
  ENDDO
  PRINT *, s
END
|}
        in
        Alcotest.(check bool)
          "no W008" false
          (List.exists (fun f -> Lint.id f.Lint.f_check = "IPCP-W008") fs));
  ]

(* ------------------------------------------------------------------ *)
(* CLI exit codes: --werror with and without --disable *)

let ipcp_exe = Filename.concat ".." (Filename.concat "bin" "ipcp.exe")

let with_tmp_source src f =
  let path = Filename.temp_file "ipcp_lint" ".f" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let run_lint args path =
  Sys.command
    (Filename.quote_command ipcp_exe ~stdout:"/dev/null" ~stderr:"/dev/null"
       (("lint" :: args) @ [ path ]))

let src_warning_only =
  {|
PROGRAM p
  INTEGER n
  n = 3
  IF (n .GT. 0) THEN
    PRINT *, 1
  ENDIF
END
|}

let cli_tests =
  [
    Alcotest.test_case "--werror promotes a warning to exit 1" `Quick
      (fun () ->
        with_tmp_source src_warning_only (fun path ->
            Alcotest.(check int) "clean without werror" 0 (run_lint [] path);
            Alcotest.(check int)
              "werror fails" 1
              (run_lint [ "--werror" ] path);
            Alcotest.(check int)
              "werror with the check disabled passes" 0
              (run_lint [ "--werror"; "--disable"; "IPCP-W003" ] path)));
    Alcotest.test_case "--werror also promotes range-backed warnings" `Quick
      (fun () ->
        with_tmp_source src_const_trip (fun path ->
            Alcotest.(check int)
              "clean without ranges" 0
              (run_lint [ "--werror" ] path);
            Alcotest.(check int)
              "range-backed W008 fails under werror" 1
              (run_lint [ "--werror"; "--ranges" ] path);
            Alcotest.(check int)
              "disabled W008 passes again" 0
              (run_lint [ "--werror"; "--ranges"; "--disable"; "IPCP-W008" ]
                 path)));
  ]

(* ------------------------------------------------------------------ *)

let suites =
  [
    ("domains-interval", List.map QCheck_alcotest.to_alcotest interval_laws);
    ("domains-transfer", List.map QCheck_alcotest.to_alcotest transfer_props);
    ("domains-const-identity", const_identity_tests);
    ("ranges-suite", suite_ranges_tests);
    ( "ranges-soundness",
      [ QCheck_alcotest.to_alcotest ranges_sound_prop ] );
    ("ranges-lint", range_lint_tests);
    ("ranges-cli", cli_tests);
  ]
