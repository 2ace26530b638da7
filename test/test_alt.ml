(* Tests for the alternative engines: SCCP (Wegman-Zadeck) and the
   binding-multigraph solver. *)

open Ipcp_frontend
open Names
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Bindgraph = Ipcp_core.Bindgraph
module Clattice = Ipcp_domains.Clattice
module Sccp = Ipcp_opt.Sccp
module Intra = Ipcp_opt.Intra
module Generator = Ipcp_gen.Generator

(* ------------------------------------------------------------------ *)
(* SCCP *)

let sccp_tests =
  [
    Alcotest.test_case "SCCP ignores code behind constant-false branches"
      `Quick (fun () ->
        (* x is 1 on the only executable path; plain (non-conditional)
           propagation must merge the dead arm's x = 2 and lose it *)
        let src =
          {|
PROGRAM p
  INTEGER flag, x
  flag = 0
  x = 1
  IF (flag .EQ. 1) THEN
    x = 2
  ENDIF
  PRINT *, x
END
|}
        in
        let sccp = Sccp.count (Sema.parse_and_analyze ~file:"<s>" src) in
        let plain = Intra.count (Sema.parse_and_analyze ~file:"<s>" src) in
        (* SCCP sees: flag=1 (cond use counts? the condition's flag use is
           constant in both), x's print use constant only under SCCP *)
        Alcotest.(check bool)
          (Fmt.str "SCCP (%d) > plain (%d)" sccp plain)
          true (sccp > plain));
    Alcotest.test_case "symbolic evaluator wins on algebraic identities"
      `Quick (fun () ->
        (* x - x is 0 even for unknown x: value numbering catches it,
           the flat constant lattice cannot *)
        let src =
          {|
PROGRAM p
  INTEGER z
  READ *, z
  CALL q(z)
END

SUBROUTINE q(x)
  INTEGER x, y
  ! x is unknown at entry, yet x - x is 0: the symbolic evaluator keeps
  ! entry values as symbols and normalises the polynomial
  y = x - x
  PRINT *, y
END
|}
        in
        let sccp = Sccp.count (Sema.parse_and_analyze ~file:"<s>" src) in
        let plain = Intra.count (Sema.parse_and_analyze ~file:"<s>" src) in
        Alcotest.(check bool)
          (Fmt.str "plain (%d) > SCCP (%d)" plain sccp)
          true (plain > sccp));
    Alcotest.test_case "SCCP marks unreachable blocks" `Quick (fun () ->
        let src =
          "PROGRAM p\nINTEGER x\nx = 5\nIF (x .LT. 0) THEN\n PRINT *, 1\nELSE\n PRINT *, 2\nENDIF\nEND\n"
        in
        let symtab = Sema.parse_and_analyze ~file:"<s>" src in
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        let ssa = Ipcp_ir.Ssa.convert (SM.find "p" cfgs) in
        let psym = Symtab.proc symtab "p" in
        let t = Sccp.run ~psym ~data:psym.Symtab.data ssa in
        (* the then-arm is structurally reachable but never executable *)
        let structurally =
          Array.to_list (Ipcp_ir.Cfg.reachable ssa)
          |> List.filter (fun x -> x)
          |> List.length
        in
        let executed =
          Array.to_list t.Sccp.executable
          |> List.filter (fun x -> x)
          |> List.length
        in
        Alcotest.(check bool)
          (Fmt.str "executed %d < reachable %d" executed structurally)
          true
          (executed < structurally));
  ]

(* ------------------------------------------------------------------ *)
(* Binding-multigraph solver *)

let vals_equal (a : Solver.t) (b : Solver.t) =
  SM.for_all
    (fun p m ->
      SM.for_all
        (fun name v ->
          Clattice.equal v (Solver.val_of b p name)
          ||
          (* entries that are Top in one and absent in the other are
             equivalent *)
          false)
        m)
    a.Solver.vals

let bindgraph_tests =
  [
    Alcotest.test_case "binding graph agrees with call-graph solver (suite)"
      `Quick (fun () ->
        List.iter
          (fun (p : Ipcp_suite.Programs.program) ->
            let symtab =
              Sema.parse_and_analyze ~file:p.Ipcp_suite.Programs.name
                p.Ipcp_suite.Programs.source
            in
            let t =
              Driver.analyze
                ~config:{ Config.default with Config.jf = Config.Polynomial }
                symtab
            in
            let bg =
              Bindgraph.solve ~symtab ~cg:t.Driver.cg ~jfs:t.Driver.jfs
            in
            if not (vals_equal t.Driver.solver bg && vals_equal bg t.Driver.solver)
            then
              Alcotest.failf "%s: binding graph fixpoint differs"
                p.Ipcp_suite.Programs.name)
          Ipcp_suite.Programs.all);
    Alcotest.test_case "binding graph agrees on random programs" `Quick
      (fun () ->
        for seed = 0 to 24 do
          let src =
            Generator.generate ~params:{ Generator.default with Generator.seed } ()
          in
          let symtab = Sema.parse_and_analyze ~file:"<g>" src in
          List.iter
            (fun jf ->
              let t =
                Driver.analyze ~config:{ Config.default with Config.jf } symtab
              in
              let bg =
                Bindgraph.solve ~symtab ~cg:t.Driver.cg ~jfs:t.Driver.jfs
              in
              if
                not
                  (vals_equal t.Driver.solver bg && vals_equal bg t.Driver.solver)
              then Alcotest.failf "seed %d: fixpoints differ" seed)
            [ Config.Literal; Config.Passthrough; Config.Polynomial ]
        done);
  ]

let suites = [ ("sccp", sccp_tests); ("bindgraph", bindgraph_tests) ]
