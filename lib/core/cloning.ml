(** Procedure-cloning advisor.

    The paper's experiment feeds its CONSTANTS sets into goal-directed
    procedure cloning (Metzger–Stroud, and Cooper–Hall–Kennedy's
    "Procedure cloning"): when different call sites would give a procedure
    {e different} constant vectors — so that the meet across all sites is
    ⊥ — duplicating the procedure per vector recovers the lost constants.

    [advise] evaluates every call edge's jump functions against the
    propagation fixpoint, groups the edges of each callee by the constant
    vector they deliver, and reports the groupings whose split would
    expose constants the merged analysis lost. *)

open Ipcp_frontend.Names
module Callgraph = Ipcp_callgraph.Callgraph
module Instr = Ipcp_ir.Instr
module Clattice = Ipcp_domains.Clattice

type clone_group = {
  cg_vector : (string * int) list;  (** constants this clone would see *)
  cg_sites : int list;  (** call-site ids routed to this clone *)
}

type advice = {
  a_proc : string;
  a_groups : clone_group list;  (** one clone per distinct vector *)
  a_gained : int;
      (** (parameter, clone) pairs constant after cloning but ⊥ before *)
}

let vector_of_edge (t : Driver.t) (sj : Jumpfn.site_jfs) : (string * int) list
    =
  let caller =
    (List.find
       (fun (e : Callgraph.edge) ->
         e.Callgraph.e_site.Instr.site_id = sj.Jumpfn.sj_site.Instr.site_id)
       t.Driver.cg.Callgraph.edges)
      .Callgraph.e_caller
  in
  let env name = Solver.val_of t.Driver.solver caller name in
  List.filter_map
    (fun ((param : Jumpfn.param), jf) ->
      match Jumpfn.eval jf env with
      | Clattice.Const c -> Some (param.Jumpfn.p_name, c)
      | _ -> None)
    sj.Jumpfn.jfs

(** Cloning advice for every procedure with at least two call edges whose
    split would gain constants.  Sorted by gain, descending. *)
let advise (t : Driver.t) : advice list =
  let edges_by_callee =
    SM.fold
      (fun _caller sjs acc ->
        List.fold_left
          (fun acc (sj : Jumpfn.site_jfs) ->
            let callee = sj.Jumpfn.sj_site.Instr.callee in
            SM.update callee
              (function None -> Some [ sj ] | Some l -> Some (sj :: l))
              acc)
          acc sjs)
      t.Driver.jfs SM.empty
  in
  SM.fold
    (fun callee sjs acc ->
      if List.length sjs < 2 then acc
      else
        let merged = Driver.constants t callee in
        let vectors =
          List.map
            (fun sj ->
              (vector_of_edge t sj, sj.Jumpfn.sj_site.Instr.site_id))
            sjs
        in
        (* group sites by vector *)
        let groups =
          List.fold_left
            (fun m (vec, site) ->
              let key = List.sort compare vec in
              let l = Option.value ~default:[] (List.assoc_opt key m) in
              (key, site :: l) :: List.remove_assoc key m)
            [] vectors
        in
        if List.length groups < 2 then acc
        else
          let gained =
            List.fold_left
              (fun n (vec, _) ->
                n
                + List.length
                    (List.filter
                       (fun (name, _) -> not (SM.mem name merged))
                       vec))
              0 groups
          in
          if gained = 0 then acc
          else
            {
              a_proc = callee;
              a_groups =
                List.map
                  (fun (vec, sites) ->
                    { cg_vector = vec; cg_sites = List.sort compare sites })
                  groups
                |> List.sort compare;
              a_gained = gained;
            }
            :: acc)
    edges_by_callee []
  |> List.sort (fun a b -> compare b.a_gained a.a_gained)

let pp_advice ppf (a : advice) =
  Fmt.pf ppf "clone %s into %d variants (+%d constants):@." a.a_proc
    (List.length a.a_groups) a.a_gained;
  List.iteri
    (fun i g ->
      Fmt.pf ppf "  clone %d at sites %a gets {%a}@." (i + 1)
        Fmt.(list ~sep:(any ", ") int)
        g.cg_sites
        Fmt.(
          list ~sep:(any ", ") (fun ppf (n, c) -> Fmt.pf ppf "%s=%d" n c))
        g.cg_vector)
    a.a_groups
