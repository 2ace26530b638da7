(* Tests for the static-analysis subsystem: the structural IR/SSA
   verifier (pass sanitizer) and the interprocedural lint engine.

   The verifier is probed with deliberately corrupted CFGs — every
   rejection must name the offending block.  The lint engine is checked
   against hand-written programs with known defects, and differentially
   against the interpreter: a definite division-by-constant-zero finding
   must coincide with a runtime fault. *)

open Ipcp_frontend
open Names
module Ast = Ipcp_frontend.Ast
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Verify = Ipcp_verify.Verify
module Lint = Ipcp_analysis.Lint
module Substitute = Ipcp_opt.Substitute
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Interp = Ipcp_interp.Interp
module Programs = Ipcp_suite.Programs

(* ------------------------------------------------------------------ *)
(* Helpers *)

let block ?(phis = []) ?(instrs = []) bid term =
  { Cfg.bid; phis; instrs; term }

let cfg ?(name = "bad") ?(sites = []) blocks =
  {
    Cfg.proc_name = name;
    kind = Ast.Subroutine;
    blocks = Array.of_list blocks;
    sites;
  }

let kinds vs = List.map (fun v -> v.Verify.v_kind) vs

let messages vs = String.concat "\n" (List.map Verify.violation_to_string vs)

let analyze ?config src =
  let symtab = Sema.parse_and_analyze ~file:"<lint>" src in
  (symtab, Driver.analyze ?config symtab)

let lint src = Lint.run (snd (analyze src))

let with_id i fs = List.filter (fun f -> Lint.id f.Lint.f_check = i) fs

let has_id i fs = with_id i fs <> []

(* ------------------------------------------------------------------ *)
(* Verifier: corrupted CFGs are rejected, naming the bad block *)

let true_cond = Cfg.Crel (Ast.Req, Instr.Oint 0, Instr.Oint 0)

let verifier_tests =
  [
    Alcotest.test_case "successor out of range names the bad block" `Quick
      (fun () ->
        let vs = Verify.check_lowered (cfg [ block 0 (Cfg.Tjump 5) ]) in
        Alcotest.(check bool) "rejected" true (vs <> []);
        let v = List.hd vs in
        Alcotest.(check int) "block" 0 v.Verify.v_block;
        Alcotest.(check bool) "names the offending block" true
          (Astring.String.is_infix ~affix:"bad/B0" (messages vs));
        Alcotest.(check bool) "names the bad successor" true
          (Astring.String.is_infix ~affix:"B5" (messages vs)));
    Alcotest.test_case "block id mismatch is rejected" `Quick (fun () ->
        let vs =
          Verify.check_lowered
            (cfg [ block 1 (Cfg.Tjump 0); block 0 Cfg.Treturn ])
        in
        Alcotest.(check bool) "rejected" true
          (List.mem Verify.Vblock (kinds vs)));
    Alcotest.test_case "empty CFG is rejected" `Quick (fun () ->
        Alcotest.(check bool) "rejected" true (Verify.check_lowered (cfg []) <> []));
    Alcotest.test_case "phis before SSA construction are rejected" `Quick
      (fun () ->
        let phi = { Cfg.dest = "x#1"; srcs = [] } in
        let vs = Verify.check_lowered (cfg [ block ~phis:[ phi ] 0 Cfg.Treturn ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vphi (kinds vs)));
    Alcotest.test_case "double SSA definition is rejected" `Quick (fun () ->
        let instrs =
          [
            Instr.Idef ("x#1", Instr.Rcopy (Instr.Oint 1), None);
            Instr.Idef ("x#1", Instr.Rcopy (Instr.Oint 2), None);
          ]
        in
        let vs = Verify.check_ssa (cfg [ block ~instrs 0 Cfg.Treturn ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vdef (kinds vs));
        Alcotest.(check bool) "names x#1" true
          (Astring.String.is_infix ~affix:"x#1" (messages vs)));
    Alcotest.test_case "use without a definition is rejected" `Quick (fun () ->
        let instrs =
          [ Instr.Idef ("y#1", Instr.Rcopy (Instr.Ovar ("x#1", None)), None) ]
        in
        let vs = Verify.check_ssa (cfg [ block ~instrs 0 Cfg.Treturn ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vdom (kinds vs)));
    Alcotest.test_case "use not dominated by its definition is rejected" `Quick
      (fun () ->
        (* B0 branches to B1 and B2; B1 defines x#1, B2 uses it *)
        let b0 = block 0 (Cfg.Tbranch (true_cond, 1, 2)) in
        let b1 =
          block ~instrs:[ Instr.Idef ("x#1", Instr.Rcopy (Instr.Oint 1), None) ] 1
            Cfg.Treturn
        in
        let b2 =
          block
            ~instrs:[ Instr.Idef ("y#1", Instr.Rcopy (Instr.Ovar ("x#1", None)), None) ]
            2 Cfg.Treturn
        in
        let vs = Verify.check_ssa (cfg [ b0; b1; b2 ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vdom (kinds vs));
        Alcotest.(check bool) "names B2" true
          (List.exists (fun v -> v.Verify.v_block = 2) vs));
    Alcotest.test_case "phi source that is not a predecessor is rejected"
      `Quick (fun () ->
        (* B3's only predecessors are B1 and B2, but the phi claims B0 *)
        let b0 = block 0 (Cfg.Tbranch (true_cond, 1, 2)) in
        let b1 = block 1 (Cfg.Tjump 3) in
        let b2 = block 2 (Cfg.Tjump 3) in
        let phi = { Cfg.dest = "x#1"; srcs = [ (0, "x#0"); (1, "x#0") ] } in
        let b3 = block ~phis:[ phi ] 3 Cfg.Treturn in
        let vs = Verify.check_ssa (cfg [ b0; b1; b2; b3 ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vedge (kinds vs)));
    Alcotest.test_case "phi arity below predecessor count is rejected" `Quick
      (fun () ->
        let b0 = block 0 (Cfg.Tbranch (true_cond, 1, 2)) in
        let b1 = block 1 (Cfg.Tjump 3) in
        let b2 = block 2 (Cfg.Tjump 3) in
        let phi = { Cfg.dest = "x#1"; srcs = [ (1, "x#0") ] } in
        let b3 = block ~phis:[ phi ] 3 Cfg.Treturn in
        let vs = Verify.check_ssa (cfg [ b0; b1; b2; b3 ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vphi (kinds vs)));
    Alcotest.test_case "call arity mismatch vs symbol table is rejected" `Quick
      (fun () ->
        let symtab =
          Sema.parse_and_analyze ~file:"<v>"
            {|
PROGRAM p
  INTEGER x
  x = 1
  CALL q(x)
END
SUBROUTINE q(m)
  INTEGER m
  PRINT *, m
END
|}
        in
        let site =
          {
            Instr.site_id = 99;
            caller = "bad";
            callee = "q";
            args = [];
            syntactic = [];
            result = None;
            s_loc = Loc.dummy;
          }
        in
        let b0 = block ~instrs:[ Instr.Icall site ] 0 Cfg.Treturn in
        let vs = Verify.check_lowered ~symtab (cfg ~sites:[ site ] [ b0 ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vcall (kinds vs)));
    Alcotest.test_case "Rresult referencing an unknown site is rejected" `Quick
      (fun () ->
        let instrs = [ Instr.Idef ("t#1", Instr.Rresult 42, None) ] in
        let vs = Verify.check_ssa (cfg [ block ~instrs 0 Cfg.Treturn ]) in
        Alcotest.(check bool) "rejected" true (List.mem Verify.Vcall (kinds vs)));
    Alcotest.test_case "expect_ok raises a Diag analysis error" `Quick
      (fun () ->
        match
          Diag.guard (fun () ->
              Verify.expect_ok ~what:"test"
                (Verify.check_lowered (cfg [ block 0 (Cfg.Tjump 5) ])))
        with
        | Ok () -> Alcotest.fail "expected Diag.Error"
        | Error d ->
            Alcotest.(check bool) "analysis phase" true
              (d.Diag.phase = Diag.Analysis);
            Alcotest.(check bool) "names stage" true
              (Astring.String.is_infix ~affix:"test" d.Diag.msg));
    Alcotest.test_case "well-formed pipeline IR passes all checks" `Quick
      (fun () ->
        let symtab, t = analyze (Ipcp_gen.Generator.generate ()) in
        SM.iter
          (fun _ c ->
            Alcotest.(check (list string)) "lowered clean" []
              (List.map Verify.violation_to_string (Verify.check_lowered ~symtab c)))
          t.Driver.cfgs;
        SM.iter
          (fun _ (conv : Ssa.conv) ->
            Alcotest.(check (list string)) "ssa clean" []
              (List.map Verify.violation_to_string
                 (Verify.check_ssa ~symtab conv.Ssa.ssa)))
          t.Driver.convs);
  ]

(* ------------------------------------------------------------------ *)
(* The substitution's per-procedure check: broken rewrites of the main
   program must be rejected by {!Substitute.check_rewrite} and by a
   re-parse of the printed program alike; a legal one passes both. *)

let src_rewrite =
  {|
PROGRAM p
  INTEGER k, arr(3)
  k = 3
  CALL q(arr, k)
  PRINT *, k
END
SUBROUTINE q(a, m)
  INTEGER a(3), m
  a(1) = m
END
|}

let rewrite_tests =
  let rewritten f =
    let symtab, d = analyze src_rewrite in
    let program =
      List.map
        (fun name ->
          let proc = (Symtab.proc symtab name).Symtab.proc in
          if name = symtab.Symtab.main then
            { proc with Ast.body = List.map f proc.Ast.body }
          else proc)
        symtab.Symtab.order
    in
    (d, program)
  in
  let by_check (d, program) =
    Diag.guard (fun () -> Substitute.check_rewrite d program)
  in
  let by_reparse (_, program) =
    Diag.guard (fun () ->
        Verify.expect_ok ~what:"re-parse"
          (Verify.check_source ~file:"<rewrite>"
             (Pretty.program_to_string program)))
  in
  let broken name ~expect f =
    Alcotest.test_case name `Quick (fun () ->
        let r = rewritten f in
        (match by_check r with
        | Ok () -> Alcotest.fail "per-procedure check accepted it"
        | Error e ->
            Alcotest.(check bool)
              ("check names the fault: " ^ e.Diag.msg)
              true
              (Astring.String.is_infix ~affix:expect e.Diag.msg));
        match by_reparse r with
        | Ok () -> Alcotest.fail "re-parse of the printed program accepted it"
        | Error _ -> ())
  in
  [
    broken "whole-array actual replaced by a literal is rejected"
      ~expect:"is scalar but formal a is an array" (function
      | Ast.Call (n, [ Ast.Var (_, l); k ], cl) ->
          Ast.Call (n, [ Ast.Int (7, l); k ], cl)
      | s -> s);
    broken "dropped actual is rejected" ~expect:"with 1 argument(s), 2 formal"
      (function
      | Ast.Call (n, [ arr; _ ], cl) -> Ast.Call (n, [ arr ], cl)
      | s -> s);
    broken "bare array name in a scalar use is rejected"
      ~expect:"array arr used without a subscript" (function
      | Ast.Print ([ Ast.Var (_, l) ], pl) ->
          Ast.Print ([ Ast.Var ("arr", l) ], pl)
      | s -> s);
    broken "subscripted scalar is rejected"
      ~expect:"k is scalar and cannot be subscripted" (function
      | Ast.Print ([ Ast.Var (k, l) ], pl) ->
          Ast.Print ([ Ast.Index (k, Ast.Int (1, l), l) ], pl)
      | s -> s);
    Alcotest.test_case "legal rewrite passes both checks" `Quick (fun () ->
        let r =
          rewritten (function
            | Ast.Print ([ Ast.Var (_, l) ], pl) -> Ast.Print ([ Ast.Int (3, l) ], pl)
            | s -> s)
        in
        Alcotest.(check bool) "per-procedure check" true (by_check r = Ok ());
        Alcotest.(check bool) "re-parse" true (by_reparse r = Ok ()));
  ]

(* ------------------------------------------------------------------ *)
(* Lint engine: hand-written programs with known defects *)

let src_divzero =
  {|
PROGRAM p
  INTEGER n
  n = 0
  CALL q(n)
END
SUBROUTINE q(m)
  INTEGER m, x
  x = 1 / m
  PRINT *, x
END
|}

let lint_tests =
  [
    Alcotest.test_case "E001: division by a propagated constant zero" `Quick
      (fun () ->
        let fs = with_id "IPCP-E001" (lint src_divzero) in
        Alcotest.(check int) "one finding" 1 (List.length fs);
        let f = List.hd fs in
        Alcotest.(check string) "procedure" "q" f.Lint.f_proc;
        Alcotest.(check int) "line of the division" 9 f.Lint.f_loc.Loc.line;
        Alcotest.(check bool) "error severity" true
          (Lint.finding_severity f = Diag.Severity.Error));
    Alcotest.test_case "E001: division by a literal zero, with location"
      `Quick (fun () ->
        let fs =
          with_id "IPCP-E001"
            (lint {|
PROGRAM p
  INTEGER x
  x = 1 / 0
  PRINT *, x
END
|})
        in
        Alcotest.(check int) "one finding" 1 (List.length fs);
        Alcotest.(check int) "line" 4 (List.hd fs).Lint.f_loc.Loc.line);
    Alcotest.test_case "E001: MOD by a propagated zero" `Quick (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER n
  n = 0
  CALL q(n)
END
SUBROUTINE q(m)
  INTEGER m, x
  x = MOD(7, m)
  PRINT *, x
END
|}
        in
        Alcotest.(check bool) "flagged" true (has_id "IPCP-E001" fs));
    Alcotest.test_case "E001 suppressed behind an always-false branch" `Quick
      (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER x
  x = 5
  IF (x .EQ. 6) THEN
    PRINT *, 1 / 0
  ENDIF
END
|}
        in
        Alcotest.(check bool) "no E001" false (has_id "IPCP-E001" fs);
        Alcotest.(check bool) "W003 for the constant condition" true
          (has_id "IPCP-W003" fs));
    Alcotest.test_case "E002: constant subscript out of bounds" `Quick
      (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER a(5), n
  n = 9
  a(n) = 1
  PRINT *, a(n)
END
|}
        in
        let es = with_id "IPCP-E002" fs in
        Alcotest.(check int) "store and load flagged" 2 (List.length es));
    Alcotest.test_case "W003: always-true and always-false conditions" `Quick
      (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER n
  n = 3
  IF (n .GT. 0) THEN
    PRINT *, 1
  ENDIF
  WHILE (n .LT. 0)
    PRINT *, 2
  ENDWHILE
END
|}
        in
        Alcotest.(check int) "two findings" 2
          (List.length (with_id "IPCP-W003" fs)));
    Alcotest.test_case "W004: procedure unreachable from the entry" `Quick
      (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  PRINT *, 1
END
SUBROUTINE orphan(x)
  INTEGER x
  PRINT *, x
END
|}
        in
        Alcotest.(check bool) "flagged" true (has_id "IPCP-W004" fs));
    Alcotest.test_case "W005: formal never referenced" `Quick (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER a
  a = 1
  CALL q(a, 2)
END
SUBROUTINE q(used, unused)
  INTEGER used, unused
  PRINT *, used
END
|}
        in
        let ws = with_id "IPCP-W005" fs in
        Alcotest.(check int) "one finding" 1 (List.length ws);
        Alcotest.(check bool) "names the formal" true
          (Astring.String.is_infix ~affix:"unused" (List.hd ws).Lint.f_msg));
    Alcotest.test_case "W005 not raised for write-only (out) formals" `Quick
      (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER r
  CALL q(r)
  PRINT *, r
END
SUBROUTINE q(out)
  INTEGER out
  out = 42
END
|}
        in
        Alcotest.(check bool) "no W005" false (has_id "IPCP-W005" fs));
    Alcotest.test_case "W006: use with no reaching definition" `Quick
      (fun () ->
        let fs =
          lint {|
PROGRAM p
  INTEGER x, y
  y = x + 1
  PRINT *, y
END
|}
        in
        let ws = with_id "IPCP-W006" fs in
        Alcotest.(check int) "one finding" 1 (List.length ws);
        Alcotest.(check int) "line of the use" 4 (List.hd ws).Lint.f_loc.Loc.line);
    Alcotest.test_case "W006 not raised when a definition reaches every path"
      `Quick (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER x, y, n
  READ *, n
  IF (n .GT. 0) THEN
    x = 1
  ELSE
    x = 2
  ENDIF
  y = x + 1
  PRINT *, y
END
|}
        in
        Alcotest.(check bool) "no W006" false (has_id "IPCP-W006" fs));
    Alcotest.test_case "I007: formal constant at every call site" `Quick
      (fun () ->
        let fs = lint src_divzero in
        let is = with_id "IPCP-I007" fs in
        Alcotest.(check int) "one finding" 1 (List.length is);
        Alcotest.(check bool) "info severity" true
          (Lint.finding_severity (List.hd is) = Diag.Severity.Info));
    Alcotest.test_case "clean program produces no findings" `Quick (fun () ->
        let fs =
          lint
            {|
PROGRAM p
  INTEGER n
  READ *, n
  CALL q(n)
END
SUBROUTINE q(m)
  INTEGER m
  PRINT *, m + 1
END
|}
        in
        Alcotest.(check int) "no findings" 0 (List.length fs));
    Alcotest.test_case "enabled filter disables checks" `Quick (fun () ->
        let _, t = analyze src_divzero in
        let fs =
          Lint.run ~enabled:(fun c -> c <> Lint.Div_by_zero) t
        in
        Alcotest.(check bool) "E001 gone" false (has_id "IPCP-E001" fs));
    Alcotest.test_case "check ids round-trip" `Quick (fun () ->
        List.iter
          (fun c ->
            match Lint.check_of_id (Lint.id c) with
            | Some c' when c' = c -> ()
            | _ -> Alcotest.failf "id %s does not round-trip" (Lint.id c))
          Lint.all_checks);
    Alcotest.test_case "JSON rendering carries checks and summary" `Quick
      (fun () ->
        let json = Lint.render_json (lint src_divzero) in
        List.iter
          (fun affix ->
            Alcotest.(check bool) affix true
              (Astring.String.is_infix ~affix json))
          [
            "\"check\":\"IPCP-E001\"";
            "\"severity\":\"error\"";
            "\"line\":9";
            "\"procedure\":\"q\"";
            "\"summary\"";
            "\"errors\":1";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Differential property: a definite division-by-constant-zero finding
   must coincide with an interpreter fault (lint agrees with the runtime
   semantics), and clean divisions must not fault. *)

let faulting_sources =
  [
    ( "literal zero in main",
      {|
PROGRAM p
  INTEGER x
  x = 1 / 0
  PRINT *, x
END
|} );
    ("propagated zero through a formal", src_divzero);
    ( "propagated zero through COMMON",
      {|
PROGRAM p
  COMMON /g/ d
  d = 0
  CALL q()
END
SUBROUTINE q()
  COMMON /g/ d
  INTEGER x
  x = 10 / d
  PRINT *, x
END
|} );
    ( "zero computed from propagated constants",
      {|
PROGRAM p
  INTEGER n
  n = 2
  CALL q(n)
END
SUBROUTINE q(m)
  INTEGER m, x
  x = 1 / (m - 2)
  PRINT *, x
END
|} );
  ]

let differential_tests =
  [
    Alcotest.test_case "definite E001 findings fault in the interpreter"
      `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let symtab, t = analyze src in
            let fs = Lint.run t in
            if not (has_id "IPCP-E001" fs) then
              Alcotest.failf "%s: lint did not flag the division" name;
            let r = Interp.run symtab in
            match r.Interp.status with
            | Interp.Fault m ->
                Alcotest.(check bool)
                  (name ^ ": fault is the division") true
                  (Astring.String.is_infix ~affix:"division by zero" m)
            | s ->
                Alcotest.failf "%s: expected a fault, got %a" name
                  Interp.pp_status s)
          faulting_sources);
    Alcotest.test_case "E002 findings fault as subscript errors" `Quick
      (fun () ->
        let src =
          {|
PROGRAM p
  INTEGER a(5), n
  n = 9
  a(n) = 1
  PRINT *, a(n)
END
|}
        in
        let symtab, t = analyze src in
        Alcotest.(check bool) "flagged" true (has_id "IPCP-E002" (Lint.run t));
        match (Interp.run symtab).Interp.status with
        | Interp.Fault m ->
            Alcotest.(check bool) "subscript fault" true
              (Astring.String.is_infix ~affix:"out of bounds" m)
        | s -> Alcotest.failf "expected a fault, got %a" Interp.pp_status s);
    Alcotest.test_case "division by a nonzero constant neither flags nor faults"
      `Quick (fun () ->
        let src =
          {|
PROGRAM p
  INTEGER n
  n = 4
  CALL q(n)
END
SUBROUTINE q(m)
  INTEGER m, x
  x = 100 / m
  PRINT *, x
END
|}
        in
        let symtab, t = analyze src in
        Alcotest.(check bool) "not flagged" false
          (has_id "IPCP-E001" (Lint.run t));
        match (Interp.run symtab).Interp.status with
        | Interp.Completed | Interp.Stopped -> ()
        | s -> Alcotest.failf "unexpected status %a" Interp.pp_status s);
  ]

(* ------------------------------------------------------------------ *)
(* Acceptance over the bundled suites: the verifier is clean on every
   program, lint produces at least one true diagnostic overall, and no
   suite program carries an error-severity finding (the CI gate). *)

let suite_tests =
  [
    Alcotest.test_case "suites: verifier clean, lint finds diagnostics"
      `Quick (fun () ->
        let total = ref 0 in
        List.iter
          (fun (p : Programs.program) ->
            let symtab, t =
              let symtab =
                Sema.parse_and_analyze ~file:p.Programs.name p.Programs.source
              in
              (symtab, Driver.analyze symtab)
            in
            SM.iter
              (fun _ c ->
                Alcotest.(check (list string))
                  (p.Programs.name ^ " lowered clean") []
                  (List.map Verify.violation_to_string
                     (Verify.check_lowered ~symtab c)))
              t.Driver.cfgs;
            SM.iter
              (fun _ (conv : Ssa.conv) ->
                Alcotest.(check (list string))
                  (p.Programs.name ^ " ssa clean") []
                  (List.map Verify.violation_to_string
                     (Verify.check_ssa ~symtab conv.Ssa.ssa)))
              t.Driver.convs;
            let fs = Lint.run t in
            let e, _, _ = Lint.summary fs in
            Alcotest.(check int) (p.Programs.name ^ " has no errors") 0 e;
            total := !total + List.length fs)
          Programs.all;
        Alcotest.(check bool) "at least one diagnostic across the suites" true
          (!total >= 1));
  ]

let suites =
  [
    ("verify", verifier_tests);
    ("verify-rewrite", rewrite_tests);
    ("lint", lint_tests);
    ("lint-differential", differential_tests);
    ("lint-suite", suite_tests);
  ]
