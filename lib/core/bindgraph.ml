(** The binding-multigraph formulation of the interprocedural propagation.

    The paper notes (§2) that "alternative formulations based on the
    binding multi-graph are possible [Cooper–Kennedy 1988]; the method
    presented by Callahan et al. essentially models the binding graph
    computation on the call graph".  This module implements that
    alternative directly: the nodes are (procedure, parameter) pairs, and
    there is one edge per jump function per support entry — so when a
    parameter's value lowers, exactly the jump functions that {e read} it
    are re-evaluated, instead of every jump function of the procedure.

    The fixpoint is the same; [solve] returns a value of the same type as
    {!Solver.solve} and a property test checks the two agree on random
    programs.  The difference is the work profile: the binding graph does
    O(dependent jump functions) work per lowering, the call-graph version
    O(all caller jump functions) — the stats fields let the benchmark
    harness show the gap. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Callgraph = Ipcp_callgraph.Callgraph
module Instr = Ipcp_ir.Instr
module Clattice = Ipcp_domains.Clattice

type node = string * string  (** procedure, parameter *)

module NM = Map.Make (struct
  type t = node

  let compare = compare
end)

(* one propagation obligation: evaluating jump function [jf] (attached to
   the call edge caller->callee) updates [target] *)
type oblig = {
  o_caller : string;
  o_target : node;
  o_jf : Jumpfn.t;
}

let solve ~(symtab : Symtab.t) ~(cg : Callgraph.t)
    ~(jfs : Jumpfn.site_jfs list SM.t) : Solver.t =
  let stats =
    { Solver.pops = 0; jf_evals = 0; jf_eval_cost = 0; lowerings = 0 }
  in
  (* all obligations, and an index: which obligations read node n *)
  let obligations = ref [] in
  SM.iter
    (fun caller sjs ->
      List.iter
        (fun (sj : Jumpfn.site_jfs) ->
          let callee = sj.Jumpfn.sj_site.Instr.callee in
          List.iter
            (fun ((param : Jumpfn.param), jf) ->
              obligations :=
                { o_caller = caller; o_target = (callee, param.Jumpfn.p_name); o_jf = jf }
                :: !obligations)
            sj.Jumpfn.jfs)
        sjs)
    jfs;
  let readers = ref NM.empty in
  List.iter
    (fun ob ->
      SS.iter
        (fun sym ->
          let key = (ob.o_caller, sym) in
          readers :=
            NM.update key
              (function None -> Some [ ob ] | Some l -> Some (ob :: l))
              !readers)
        (Jumpfn.support ob.o_jf))
    !obligations;

  (* VAL, seeded exactly as the call-graph solver *)
  let vals = ref SM.empty in
  List.iter
    (fun p ->
      let psym = Symtab.proc symtab p in
      let init =
        List.fold_left
          (fun m name -> SM.add name Clattice.Top m)
          SM.empty
          (Solver.params_of symtab psym)
      in
      vals := SM.add p init !vals)
    cg.Callgraph.procs;
  let () =
    let main = cg.Callgraph.main in
    let seeded =
      SM.union
        (fun _ _ seed -> Some seed)
        (SM.find main !vals) (Solver.main_seed symtab)
    in
    vals := SM.add main seeded !vals
  in

  let val_of (p, name) =
    match SM.find_opt p !vals with
    | None -> Clattice.Bottom
    | Some m -> Option.value ~default:Clattice.Bottom (SM.find_opt name m)
  in

  let queue : oblig Queue.t = Queue.create () in
  List.iter (fun ob -> Queue.add ob queue) !obligations;
  while not (Queue.is_empty queue) do
    let ob = Queue.pop queue in
    stats.Solver.pops <- stats.Solver.pops + 1;
    stats.Solver.jf_evals <- stats.Solver.jf_evals + 1;
    stats.Solver.jf_eval_cost <-
      stats.Solver.jf_eval_cost + Jumpfn.cost ob.o_jf;
    let env name = val_of (ob.o_caller, name) in
    let v = Jumpfn.eval ob.o_jf env in
    let tp, tname = ob.o_target in
    let cur = val_of ob.o_target in
    let nv = Clattice.meet cur v in
    if not (Clattice.equal nv cur) then begin
      stats.Solver.lowerings <- stats.Solver.lowerings + 1;
      vals :=
        SM.update tp
          (function
            | None -> Some (SM.singleton tname nv)
            | Some m -> Some (SM.add tname nv m))
          !vals;
      (* wake exactly the jump functions that read the lowered node *)
      List.iter (fun r -> Queue.add r queue)
        (Option.value ~default:[] (NM.find_opt ob.o_target !readers))
    end
  done;
  { Solver.vals = !vals; stats; prov = None }
