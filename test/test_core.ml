(* End-to-end tests of the IPCP pipeline on the paper's motivating shapes. *)

open Ipcp_frontend
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Clattice = Ipcp_domains.Clattice
module Solver = Ipcp_core.Solver
module Substitute = Ipcp_opt.Substitute
module Intra = Ipcp_opt.Intra
module Complete = Ipcp_opt.Complete

let analyze ?config src =
  snd (Driver.analyze_source ?config ~file:"<test>" src)

let val_of t p name = Solver.val_of t.Driver.solver p name

let check_val t p name expected =
  let got = val_of t p name in
  Alcotest.(check string)
    (Fmt.str "VAL(%s,%s)" p name)
    (Clattice.to_string expected) (Clattice.to_string got)

let cfg jf ~retjf ~md =
  { Config.default with Config.jf; return_jfs = retjf; use_mod = md }

(* ------------------------------------------------------------------ *)

(* constants reach a callee along a single edge *)
let direct_src =
  {|
PROGRAM main
  INTEGER x
  x = 2 + 3
  CALL work(10, x)
END

SUBROUTINE work(a, b)
  INTEGER a, b
  PRINT *, a + b
END
|}

(* a pass-through chain of length 2: literal/intra JFs must lose it *)
let chain_src =
  {|
PROGRAM main
  CALL level1(42)
END

SUBROUTINE level1(n)
  INTEGER n
  CALL level2(n)
END

SUBROUTINE level2(m)
  INTEGER m
  PRINT *, m
END
|}

(* a polynomial of the incoming formal: only polynomial JFs keep it *)
let poly_src =
  {|
PROGRAM main
  CALL outer(5)
END

SUBROUTINE outer(n)
  INTEGER n
  CALL inner(2 * n + 1, n * n)
END

SUBROUTINE inner(a, b)
  INTEGER a, b
  PRINT *, a, b
END
|}

(* an initialisation routine assigns constants to globals; return jump
   functions are what lets the analyzer see them afterwards (the ocean
   effect) *)
let init_src =
  {|
PROGRAM main
  COMMON /cfg/ nx, ny
  CALL setup
  CALL compute
END

SUBROUTINE setup
  COMMON /cfg/ nx, ny
  nx = 64
  ny = 32
END

SUBROUTINE compute
  COMMON /cfg/ nx, ny
  PRINT *, nx * ny
END
|}

(* a callee that does NOT modify the global: MOD information preserves the
   constant across the call *)
let mod_src =
  {|
PROGRAM main
  COMMON /g/ c
  c = 7
  CALL noop(1)
  CALL use
END

SUBROUTINE noop(x)
  INTEGER x, t
  t = x + 1
END

SUBROUTINE use
  COMMON /g/ c
  PRINT *, c
END
|}

(* function results: return jump functions for <result> *)
let func_src =
  {|
PROGRAM main
  INTEGER y
  y = magic(3)
  CALL sink(y)
END

INTEGER FUNCTION magic(k)
  INTEGER k
  magic = 100
END

SUBROUTINE sink(v)
  INTEGER v
  PRINT *, v
END
|}

let pipeline_tests =
  [
    Alcotest.test_case "direct literal edge" `Quick (fun () ->
        List.iter
          (fun jf ->
            let t = analyze ~config:(cfg jf ~retjf:false ~md:true) direct_src in
            check_val t "work" "a" (Clattice.Const 10))
          [ Config.Literal; Config.Intraconst; Config.Passthrough; Config.Polynomial ]);
    Alcotest.test_case "intraprocedural constant edge" `Quick (fun () ->
        let t =
          analyze ~config:(cfg Config.Literal ~retjf:false ~md:true) direct_src
        in
        check_val t "work" "b" Clattice.Bottom;
        let t =
          analyze ~config:(cfg Config.Intraconst ~retjf:false ~md:true) direct_src
        in
        check_val t "work" "b" (Clattice.Const 5));
    Alcotest.test_case "pass-through chain needs pass-through JFs" `Quick
      (fun () ->
        let got jf =
          val_of (analyze ~config:(cfg jf ~retjf:false ~md:true) chain_src)
            "level2" "m"
        in
        Alcotest.(check string) "literal" "⊥"
          (Clattice.to_string (got Config.Literal));
        Alcotest.(check string) "intra" "⊥"
          (Clattice.to_string (got Config.Intraconst));
        Alcotest.(check string) "pass-through" "42"
          (Clattice.to_string (got Config.Passthrough));
        Alcotest.(check string) "polynomial" "42"
          (Clattice.to_string (got Config.Polynomial)));
    Alcotest.test_case "polynomial of formal needs polynomial JFs" `Quick
      (fun () ->
        let got jf name =
          val_of (analyze ~config:(cfg jf ~retjf:false ~md:true) poly_src)
            "inner" name
        in
        Alcotest.(check string) "pass-through a" "⊥"
          (Clattice.to_string (got Config.Passthrough "a"));
        Alcotest.(check string) "polynomial a" "11"
          (Clattice.to_string (got Config.Polynomial "a"));
        Alcotest.(check string) "polynomial b" "25"
          (Clattice.to_string (got Config.Polynomial "b")));
    Alcotest.test_case "init routine needs return jump functions" `Quick
      (fun () ->
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:false ~md:true) init_src in
        check_val t "compute" "nx" Clattice.Bottom;
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:true ~md:true) init_src in
        check_val t "compute" "nx" (Clattice.Const 64);
        check_val t "compute" "ny" (Clattice.Const 32));
    Alcotest.test_case "MOD information preserves constants across calls"
      `Quick (fun () ->
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:false ~md:false) mod_src in
        check_val t "use" "c" Clattice.Bottom;
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:false ~md:true) mod_src in
        check_val t "use" "c" (Clattice.Const 7));
    Alcotest.test_case "function result return jump function" `Quick
      (fun () ->
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:true ~md:true) func_src in
        check_val t "sink" "v" (Clattice.Const 100);
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:false ~md:true) func_src in
        check_val t "sink" "v" Clattice.Bottom);
  ]

(* ------------------------------------------------------------------ *)
(* Substitution counting *)

let subst_tests =
  [
    Alcotest.test_case "substitution rewrites and counts uses" `Quick
      (fun () ->
        let t = analyze ~config:(cfg Config.Polynomial ~retjf:true ~md:true) chain_src in
        let r = Substitute.apply t in
        (* the one constant use is [m] in [PRINT *, m]; [n] at the call
           site is an address and is not rewritten *)
        Alcotest.(check int) "total" 1 r.Substitute.total;
        let printed = Pretty.program_to_string r.Substitute.program in
        let contains needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "rewrite visible" true
          (contains "PRINT *, 42" printed));
    Alcotest.test_case "ordering: literal <= intra <= passthrough = poly"
      `Quick (fun () ->
        List.iter
          (fun src ->
            let count jf =
              Substitute.count (analyze ~config:(cfg jf ~retjf:true ~md:true) src)
            in
            let l = count Config.Literal
            and i = count Config.Intraconst
            and p = count Config.Passthrough
            and y = count Config.Polynomial in
            Alcotest.(check bool) "literal <= intra" true (l <= i);
            Alcotest.(check bool) "intra <= passthrough" true (i <= p);
            Alcotest.(check bool) "passthrough <= poly" true (p <= y))
          [ direct_src; chain_src; poly_src; init_src; mod_src; func_src ]);
    Alcotest.test_case "intraprocedural baseline below interprocedural" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let symtab = Sema.parse_and_analyze ~file:"<t>" src in
            let intra = Intra.count symtab in
            let inter =
              Substitute.count
                (Driver.analyze
                   ~config:(cfg Config.Polynomial ~retjf:true ~md:true)
                   symtab)
            in
            Alcotest.(check bool)
              (Fmt.str "intra(%d) <= inter(%d)" intra inter)
              true (intra <= inter))
          [ direct_src; chain_src; poly_src; init_src; mod_src; func_src ]);
  ]

(* ------------------------------------------------------------------ *)
(* Complete propagation: dead-code elimination exposing constants *)

let dead_branch_src =
  {|
PROGRAM main
  COMMON /flags/ debug
  INTEGER n
  debug = 0
  n = 10
  IF (debug .EQ. 1) THEN
    n = 999
  ENDIF
  CALL kernel(n)
END

SUBROUTINE kernel(k)
  INTEGER k
  PRINT *, k
END
|}

let complete_tests =
  [
    Alcotest.test_case "complete propagation prunes dead branches" `Quick
      (fun () ->
        let r = Complete.run dead_branch_src in
        (* after pruning [IF (0 .EQ. 1)], n = 10 flows into kernel *)
        check_val r.Complete.final "kernel" "k" (Clattice.Const 10);
        Alcotest.(check bool) "converged" true (r.Complete.rounds <= 5));
    Alcotest.test_case "plain propagation already gets dead_branch via SSA"
      `Quick (fun () ->
        (* without DCE the conflicting definition under the constant-false
           branch forces a phi-meet to ⊥: complete propagation is strictly
           stronger here *)
        let t = analyze dead_branch_src in
        check_val t "kernel" "k" Clattice.Bottom);
  ]

let suites =
  [
    ("core-pipeline", pipeline_tests);
    ("core-substitution", subst_tests);
    ("core-complete", complete_tests);
  ]
