(* IR substrate tests: CFG lowering, dominators, SSA invariants,
   liveness. *)

open Ipcp_frontend
open Names
module Cfg = Ipcp_ir.Cfg
module Dom = Ipcp_ir.Dom
module Ssa = Ipcp_ir.Ssa
module Instr = Ipcp_ir.Instr
module Liveness = Ipcp_ir.Liveness
module Generator = Ipcp_gen.Generator

let cfgs_of src =
  let symtab = Sema.parse_and_analyze ~file:"<ir>" src in
  (symtab, Ipcp_ir.Lower.lower_program symtab)

let gen_cfgs seed =
  cfgs_of
    (Generator.generate
       ~params:{ Generator.default with Generator.seed }
       ())

let all_sources =
  List.map
    (fun (p : Ipcp_suite.Programs.program) -> p.Ipcp_suite.Programs.source)
    Ipcp_suite.Programs.all

(* ------------------------------------------------------------------ *)
(* Dominators *)

let dom_tests =
  [
    Alcotest.test_case "CHK dominators agree with naive algorithm" `Quick
      (fun () ->
        let check cfg =
          let dom = Dom.compute cfg in
          let naive = Dom.dominators_naive cfg in
          List.iter
            (fun b ->
              List.iter
                (fun d ->
                  if not (Dom.dominates dom d b) then
                    Alcotest.failf "%s: naive says %d dom %d, CHK disagrees"
                      cfg.Cfg.proc_name d b)
                naive.(b);
              (* and conversely: CHK's dominators appear in the naive set *)
              List.iter
                (fun d ->
                  if Dom.dominates dom d b && not (List.mem d naive.(b)) then
                    Alcotest.failf "%s: CHK says %d dom %d, naive disagrees"
                      cfg.Cfg.proc_name d b)
                (Dom.reachable_blocks dom))
            (Dom.reachable_blocks dom)
        in
        List.iter
          (fun src -> SM.iter (fun _ cfg -> check cfg) (snd (cfgs_of src)))
          all_sources;
        for seed = 0 to 14 do
          SM.iter (fun _ cfg -> check cfg) (snd (gen_cfgs seed))
        done);
    Alcotest.test_case "dominance frontier characterisation" `Quick
      (fun () ->
        (* b ∈ DF(a) iff a dominates a predecessor of b but does not
           strictly dominate b *)
        let check cfg =
          let dom = Dom.compute cfg in
          let preds = Cfg.preds cfg in
          let reach = Cfg.reachable cfg in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let expected =
                    List.exists
                      (fun p -> reach.(p) && Dom.dominates dom a p)
                      preds.(b)
                    && not (a <> b && Dom.dominates dom a b)
                  in
                  let got = List.mem b (Dom.frontier dom a) in
                  if got <> expected then
                    Alcotest.failf "%s: DF(%d) ∋ %d mismatch (got %b)"
                      cfg.Cfg.proc_name a b got)
                (Dom.reachable_blocks dom))
            (Dom.reachable_blocks dom)
        in
        for seed = 0 to 9 do
          SM.iter (fun _ cfg -> check cfg) (snd (gen_cfgs seed))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* SSA invariants *)

let ssa_tests =
  [
    Alcotest.test_case "single assignment" `Quick (fun () ->
        let check cfg =
          let ssa = Ssa.convert cfg in
          let defs = Hashtbl.create 64 in
          let def v =
            if Hashtbl.mem defs v then
              Alcotest.failf "%s: %s defined twice" cfg.Cfg.proc_name v;
            Hashtbl.add defs v ()
          in
          Array.iter
            (fun (b : Cfg.block) ->
              List.iter (fun (p : Cfg.phi) -> def p.Cfg.dest) b.Cfg.phis;
              List.iter
                (fun i -> Option.iter def (Instr.def i))
                b.Cfg.instrs)
            ssa.Cfg.blocks
        in
        for seed = 0 to 14 do
          SM.iter (fun _ cfg -> check cfg) (snd (gen_cfgs seed))
        done);
    Alcotest.test_case "uses dominated by definitions" `Quick (fun () ->
        let check cfg =
          let ssa = Ssa.convert cfg in
          let dom = Dom.compute ssa in
          (* map each SSA name to its defining block *)
          let def_block = Hashtbl.create 64 in
          Array.iter
            (fun (b : Cfg.block) ->
              List.iter
                (fun (p : Cfg.phi) -> Hashtbl.add def_block p.Cfg.dest b.Cfg.bid)
                b.Cfg.phis;
              List.iter
                (fun i ->
                  Option.iter (fun v -> Hashtbl.add def_block v b.Cfg.bid) (Instr.def i))
                b.Cfg.instrs)
            ssa.Cfg.blocks;
          let check_use here v =
            if not (Ssa.is_entry_version v) then
              match Hashtbl.find_opt def_block v with
              | None ->
                  Alcotest.failf "%s: use of undefined SSA name %s"
                    cfg.Cfg.proc_name v
              | Some d ->
                  if not (Dom.dominates dom d here) then
                    Alcotest.failf "%s: def of %s in B%d does not dominate use in B%d"
                      cfg.Cfg.proc_name v d here
          in
          Array.iter
            (fun (b : Cfg.block) ->
              List.iter
                (fun i -> List.iter (check_use b.Cfg.bid) (Instr.uses i))
                b.Cfg.instrs;
              (* phi arguments must be dominated by their defs at the
                 corresponding predecessor's exit *)
              List.iter
                (fun (p : Cfg.phi) ->
                  List.iter
                    (fun (pred, v) ->
                      if not (Ssa.is_entry_version v) then
                        match Hashtbl.find_opt def_block v with
                        | None ->
                            Alcotest.failf "%s: phi arg %s undefined"
                              cfg.Cfg.proc_name v
                        | Some d ->
                            if not (Dom.dominates dom d pred) then
                              Alcotest.failf
                                "%s: phi arg %s def B%d not dominating pred B%d"
                                cfg.Cfg.proc_name v d pred)
                    p.Cfg.srcs)
                b.Cfg.phis)
            ssa.Cfg.blocks
        in
        for seed = 0 to 14 do
          SM.iter (fun _ cfg -> check cfg) (snd (gen_cfgs seed))
        done);
    Alcotest.test_case "phi arity matches predecessors" `Quick (fun () ->
        let check cfg =
          let ssa = Ssa.convert cfg in
          let preds = Cfg.preds ssa in
          Array.iter
            (fun (b : Cfg.block) ->
              List.iter
                (fun (p : Cfg.phi) ->
                  let srcs = List.map fst p.Cfg.srcs |> List.sort compare in
                  let ps = List.sort compare preds.(b.Cfg.bid) in
                  if srcs <> ps then
                    Alcotest.failf "%s B%d: phi sources %a vs preds %a"
                      cfg.Cfg.proc_name b.Cfg.bid
                      Fmt.(Dump.list int)
                      srcs
                      Fmt.(Dump.list int)
                      ps)
                b.Cfg.phis)
            ssa.Cfg.blocks
        in
        for seed = 0 to 14 do
          SM.iter (fun _ cfg -> check cfg) (snd (gen_cfgs seed))
        done);
    Alcotest.test_case "exit snapshots name valid versions" `Quick (fun () ->
        for seed = 0 to 9 do
          let _, cfgs = gen_cfgs seed in
          SM.iter
            (fun _ cfg ->
              let conv = Ssa.convert_full cfg in
              List.iter
                (fun (bid, term, env) ->
                  (match term with
                  | Cfg.Treturn | Cfg.Tstop -> ()
                  | _ -> Alcotest.fail "exit snapshot on non-exit block");
                  ignore bid;
                  SM.iter
                    (fun base v ->
                      Alcotest.(check string)
                        "base name preserved" base (Ssa.base_name v))
                    env)
                conv.Ssa.exits)
            cfgs
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Liveness *)

let live_src =
  {|
PROGRAM p
  INTEGER a, b, c
  a = 1
  b = 2
  IF (a .GT. 0) THEN
    c = b
  ELSE
    c = 3
  ENDIF
  PRINT *, c
END
|}

let dataflow_tests =
  [
    Alcotest.test_case "liveness: straight-line facts" `Quick (fun () ->
        let symtab, cfgs = cfgs_of live_src in
        let cfg = SM.find "p" cfgs in
        let psym = Symtab.proc symtab "p" in
        let live =
          Liveness.compute ~formals:(Symtab.formals psym)
            ~globals:(Symtab.global_names symtab) cfg
        in
        (* nothing is live out of a main program's exit *)
        Array.iteri
          (fun i (b : Cfg.block) ->
            match b.Cfg.term with
            | Cfg.Tstop ->
                Alcotest.(check int)
                  "exit live-out empty" 0
                  (SS.cardinal live.Liveness.live_out.(i))
            | _ -> ())
          cfg.Cfg.blocks;
        (* 'b' is live into the branch blocks (used by c = b) *)
        let b_live_somewhere =
          Array.exists (fun s -> SS.mem "b" s) live.Liveness.live_in
        in
        Alcotest.(check bool) "b live on some path" true b_live_somewhere);
    Alcotest.test_case "liveness transfer equations hold at fixpoint" `Quick
      (fun () ->
        for seed = 0 to 9 do
          let symtab, cfgs = gen_cfgs seed in
          SM.iter
            (fun p cfg ->
              let psym = Symtab.proc symtab p in
              let live =
                Liveness.compute ~formals:(Symtab.formals psym)
                  ~globals:(Symtab.global_names symtab) cfg
              in
              let reach = Cfg.reachable cfg in
              Array.iteri
                (fun i (b : Cfg.block) ->
                  if reach.(i) then begin
                    let expect =
                      Liveness.transfer_block b live.Liveness.live_out.(i)
                    in
                    if not (SS.equal expect live.Liveness.live_in.(i)) then
                      Alcotest.failf "%s B%d: live-in not a fixpoint" p i
                  end)
                cfg.Cfg.blocks)
            cfgs
        done);
  ]

let suites =
  [ ("ir-dominators", dom_tests); ("ir-ssa", ssa_tests); ("ir-dataflow", dataflow_tests) ]
