(* Tests for the interprocedural substrate: call graph, SCCs, MOD/REF
   summaries, return jump functions, and solver behaviour. *)

open Ipcp_frontend
open Names
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Modref = Ipcp_summary.Modref
module Driver = Ipcp_core.Driver
module Config = Ipcp_core.Config
module Solver = Ipcp_core.Solver
module Returnjf = Ipcp_core.Returnjf
module Symeval = Ipcp_core.Symeval

let setup src =
  let symtab = Sema.parse_and_analyze ~file:"<an>" src in
  let cfgs = Ipcp_ir.Lower.lower_program symtab in
  let cg =
    Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order cfgs
  in
  (symtab, cfgs, cg)

let src_diamond =
  {|
PROGRAM main
  INTEGER x
  x = 1
  CALL a(x)
  CALL b(x)
END
SUBROUTINE a(p)
  INTEGER p
  CALL c(p)
END
SUBROUTINE b(q)
  INTEGER q
  CALL c(q)
END
SUBROUTINE c(r)
  INTEGER r
  r = r + 1
END
|}

let src_recursive =
  {|
PROGRAM main
  INTEGER x
  x = even(10)
  PRINT *, x
END
INTEGER FUNCTION even(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    even = 1
  ELSE
    m = n - 1
    even = odd(m)
  ENDIF
END
INTEGER FUNCTION odd(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    odd = 0
  ELSE
    m = n - 1
    odd = even(m)
  ENDIF
END
|}

let callgraph_tests =
  [
    Alcotest.test_case "edges per call site, callees and callers" `Quick
      (fun () ->
        let _, _, cg = setup src_diamond in
        Alcotest.(check (list string)) "main calls" [ "a"; "b" ]
          (Callgraph.callees cg "main");
        Alcotest.(check (list string)) "c's callers" [ "a"; "b" ]
          (Callgraph.callers cg "c");
        Alcotest.(check int) "c has two in-edges" 2
          (List.length (Callgraph.edges_in cg "c"));
        Alcotest.(check bool) "all reachable" true
          (SS.cardinal (Callgraph.reachable_from_main cg) = 4));
    Alcotest.test_case "SCC condensation: bottom-up visits callees first"
      `Quick (fun () ->
        let _, _, cg = setup src_diamond in
        let scc = Scc.compute cg in
        let order = List.concat (Scc.bottom_up scc) in
        let pos p =
          let rec go i = function
            | [] -> -1
            | x :: r -> if x = p then i else go (i + 1) r
          in
          go 0 order
        in
        Alcotest.(check bool) "c before a" true (pos "c" < pos "a");
        Alcotest.(check bool) "a before main" true (pos "a" < pos "main");
        Alcotest.(check bool) "no recursion" false
          (Scc.is_recursive cg scc "c"));
    Alcotest.test_case "mutual recursion forms one SCC" `Quick (fun () ->
        let _, _, cg = setup src_recursive in
        let scc = Scc.compute cg in
        Alcotest.(check bool) "even recursive" true
          (Scc.is_recursive cg scc "even");
        Alcotest.(check bool) "odd recursive" true
          (Scc.is_recursive cg scc "odd");
        let comp =
          List.find (fun c -> List.mem "even" c) (Scc.bottom_up scc)
        in
        Alcotest.(check bool) "same component" true (List.mem "odd" comp));
  ]

(* ------------------------------------------------------------------ *)

let src_modref =
  {|
PROGRAM main
  COMMON /s/ gmod, gref, gquiet
  INTEGER a, b
  a = 1
  b = 2
  gmod = 0
  gref = 0
  gquiet = 0
  CALL direct(a, b)
  CALL indirect(a, b)
END
SUBROUTINE direct(x, y)
  COMMON /s/ gmod, gref, gquiet
  INTEGER x, y
  x = gref + 1
  gmod = y
END
SUBROUTINE indirect(u, v)
  INTEGER u, v
  CALL direct(u, v)
END
|}

let modref_tests =
  [
    Alcotest.test_case "immediate MOD and REF" `Quick (fun () ->
        let symtab, cfgs, cg = setup src_modref in
        let mr = Modref.compute symtab cfgs cg in
        let md = Modref.mod_of mr "direct" in
        Alcotest.(check bool) "direct modifies formal 0" true
          (Modref.IS.mem (Modref.Pformal 0) md);
        Alcotest.(check bool) "direct does not modify formal 1" false
          (Modref.IS.mem (Modref.Pformal 1) md);
        Alcotest.(check bool) "direct modifies gmod" true
          (Modref.IS.mem (Modref.Pglobal "gmod") md);
        Alcotest.(check bool) "direct does not modify gref" false
          (Modref.IS.mem (Modref.Pglobal "gref") md);
        let rf = Modref.ref_of mr "direct" in
        Alcotest.(check bool) "direct references gref" true
          (Modref.IS.mem (Modref.Pglobal "gref") rf));
    Alcotest.test_case "MOD propagates through call sites" `Quick (fun () ->
        let symtab, cfgs, cg = setup src_modref in
        let mr = Modref.compute symtab cfgs cg in
        let md = Modref.mod_of mr "indirect" in
        Alcotest.(check bool) "indirect modifies formal 0 (via direct)" true
          (Modref.IS.mem (Modref.Pformal 0) md);
        Alcotest.(check bool) "but not formal 1" false
          (Modref.IS.mem (Modref.Pformal 1) md);
        Alcotest.(check bool) "and gmod" true
          (Modref.IS.mem (Modref.Pglobal "gmod") md));
    Alcotest.test_case "globals outside MOD(main's callee) are untouched"
      `Quick (fun () ->
        (* dynamic check of MOD soundness for globals: record each global
           before and after every top-level call in random programs; a
           change implies membership in MOD of the callee *)
        for seed = 0 to 19 do
          let src =
            Ipcp_gen.Generator.generate
              ~params:{ Ipcp_gen.Generator.default with Ipcp_gen.Generator.seed }
              ()
          in
          let symtab, cfgs, cg = setup src in
          let mr = Modref.compute symtab cfgs cg in
          let r = Ipcp_interp.Interp.run symtab in
          (* entries appear in call order; compare each procedure entry's
             global snapshot with the next one at the same or shallower
             depth.  A cheap sufficient check: if NO procedure's MOD
             contains global g, then g has the same value at every entry
             after its first definition...  Simpler still and fully valid:
             if g is in no MOD set and not assigned by main, its value is
             identical in every snapshot. *)
          let never_modified g =
            List.for_all
              (fun p ->
                not (Modref.IS.mem (Modref.Pglobal g) (Modref.mod_of mr p)))
              cg.Callgraph.procs
          in
          List.iter
            (fun g ->
              (* [never_modified] quantifies over every procedure,
                 including the main program *)
              if never_modified g then
                let vals =
                  List.filter_map
                    (fun (e : Ipcp_interp.Interp.entry_snapshot) ->
                      List.assoc_opt g e.Ipcp_interp.Interp.e_vals)
                    r.Ipcp_interp.Interp.trace
                in
                match vals with
                | [] -> ()
                | v0 :: rest ->
                    if not (List.for_all (fun v -> v = v0) rest) then
                      Alcotest.failf "seed %d: global %s changed despite empty MOD"
                        seed g)
            (Symtab.global_names symtab)
        done);
  ]

(* ------------------------------------------------------------------ *)

let retjf_tests =
  [
    Alcotest.test_case "return jump functions: constants, identity, poly"
      `Quick (fun () ->
        let src =
          {|
PROGRAM main
  INTEGER a, b, c
  a = 0
  b = 0
  c = 0
  CALL shapes(a, b, c)
  PRINT *, a, b, c
END
SUBROUTINE shapes(x, y, z)
  INTEGER x, y, z
  x = 77
  z = y * 2 + 1
END
|}
        in
        let symtab = Sema.parse_and_analyze ~file:"<r>" src in
        let t = Driver.analyze symtab in
        let find target =
          Returnjf.find t.Driver.rjfs ~proc:"shapes" ~target
        in
        (match find (Returnjf.RFormal 0) with
        | Some v ->
            Alcotest.(check string) "R for x" "77"
              (Fmt.str "%a" Symeval.pp_value v)
        | None -> Alcotest.fail "no R for x");
        (match find (Returnjf.RFormal 1) with
        | Some v ->
            Alcotest.(check string) "R for y is the identity" "y"
              (Fmt.str "%a" Symeval.pp_value v)
        | None -> Alcotest.fail "no R for y");
        match find (Returnjf.RFormal 2) with
        | Some v ->
            Alcotest.(check string) "R for z is a polynomial of y" "1 + 2*y"
              (Fmt.str "%a" Symeval.pp_value v)
        | None -> Alcotest.fail "no R for z");
    Alcotest.test_case "paper rule: R depending on caller formals is ⊥; the \
                        symbolic extension keeps it" `Quick (fun () ->
        let src =
          {|
PROGRAM main
  CALL outer(21)
END
SUBROUTINE outer(n)
  INTEGER n, r
  r = 0
  CALL double(n, r)
  CALL sink(r)
END
SUBROUTINE double(a, out)
  INTEGER a, out
  out = a * 2
END
SUBROUTINE sink(v)
  INTEGER v
  PRINT *, v
END
|}
        in
        (* r = double's return value 2*a where a is outer's formal: the
           paper's implementation cannot evaluate it ("return jump
           functions that depend on parameters to the calling procedure
           can never be evaluated as constant"), the symbolic extension
           can *)
        let count symbolic_returns =
          let _, t =
            Driver.analyze_source
              ~config:
                {
                  Config.default with
                  Config.jf = Config.Polynomial (* Jexpr must cross the edge *);
                  symbolic_returns;
                }
              ~file:"<r>" src
          in
          Solver.val_of t.Driver.solver "sink" "v"
        in
        Alcotest.(check string) "paper-faithful loses it" "⊥"
          (Ipcp_domains.Clattice.to_string (count false));
        Alcotest.(check string) "symbolic extension finds 42" "42"
          (Ipcp_domains.Clattice.to_string (count true)));
    Alcotest.test_case "STOP paths do not contribute to return values"
      `Quick (fun () ->
        let src =
          {|
PROGRAM main
  INTEGER a
  a = 0
  CALL maybe(a, 1)
  PRINT *, a
END
SUBROUTINE maybe(x, flag)
  INTEGER x, flag
  IF (flag .EQ. 0) THEN
    x = 111
    STOP
  ENDIF
  x = 5
END
|}
        in
        let symtab = Sema.parse_and_analyze ~file:"<r>" src in
        let t = Driver.analyze symtab in
        match Returnjf.find t.Driver.rjfs ~proc:"maybe" ~target:(Returnjf.RFormal 0) with
        | Some v ->
            Alcotest.(check string) "only the returning path counts" "5"
              (Fmt.str "%a" Symeval.pp_value v)
        | None -> Alcotest.fail "no R");
  ]

(* ------------------------------------------------------------------ *)

let solver_tests =
  [
    Alcotest.test_case "lowerings bounded by twice the VAL entries" `Quick
      (fun () ->
        (* the lattice has depth 2: each (proc, param) can be lowered at
           most twice, which is what bounds the whole propagation *)
        for seed = 0 to 19 do
          let src =
            Ipcp_gen.Generator.generate
              ~params:{ Ipcp_gen.Generator.default with Ipcp_gen.Generator.seed }
              ()
          in
          let _, t = Driver.analyze_source ~file:"<s>" src in
          let entries =
            SM.fold
              (fun _ m acc -> acc + SM.cardinal m)
              t.Driver.solver.Solver.vals 0
          in
          let lowerings = t.Driver.solver.Solver.stats.Solver.lowerings in
          if lowerings > 2 * entries then
            Alcotest.failf "seed %d: %d lowerings for %d entries" seed
              lowerings entries
        done);
    Alcotest.test_case "unreached procedures keep ⊤ VALs" `Quick (fun () ->
        let src =
          {|
PROGRAM main
  PRINT *, 1
END
SUBROUTINE dead(x)
  INTEGER x
  PRINT *, x
END
|}
        in
        let _, t = Driver.analyze_source ~file:"<s>" src in
        Alcotest.(check string) "dead's formal stays ⊤" "⊤"
          (Ipcp_domains.Clattice.to_string (Solver.val_of t.Driver.solver "dead" "x")));
  ]

let suites =
  [
    ("callgraph", callgraph_tests);
    ("modref", modref_tests);
    ("returnjf", retjf_tests);
    ("solver", solver_tests);
  ]
