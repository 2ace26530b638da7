(** The program call graph.

    Nodes are procedures; each edge is a call {e site} (so two calls from
    [p] to [q] are two distinct edges, as the paper's propagation requires —
    the meet at [q] folds the jump-function value of every entering edge).

    The graph is built from the lowered CFGs, so it also covers function
    calls appearing inside expressions. *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg

type edge = {
  e_caller : string;
  e_callee : string;
  e_site : Instr.site;
}

type t = {
  procs : string list;  (** declaration order *)
  main : string;
  edges : edge list;  (** all edges, in call-site order *)
  out_edges : edge list SM.t;  (** caller -> edges *)
  in_edges : edge list SM.t;  (** callee -> edges *)
}

let build ~(main : string) ~(order : string list) (cfgs : Cfg.t SM.t) : t =
  let edges =
    List.concat_map
      (fun p ->
        let cfg = SM.find p cfgs in
        List.map
          (fun (s : Instr.site) ->
            { e_caller = p; e_callee = s.Instr.callee; e_site = s })
          cfg.Cfg.sites)
      order
  in
  let add_multi key e m =
    SM.update key
      (function None -> Some [ e ] | Some l -> Some (e :: l))
      m
  in
  let out_edges =
    List.fold_left (fun m e -> add_multi e.e_caller e m) SM.empty edges
  in
  let in_edges =
    List.fold_left (fun m e -> add_multi e.e_callee e m) SM.empty edges
  in
  {
    procs = order;
    main;
    edges;
    out_edges = SM.map List.rev out_edges;
    in_edges = SM.map List.rev in_edges;
  }

let callees t p =
  List.map (fun e -> e.e_callee) (Option.value ~default:[] (SM.find_opt p t.out_edges))
  |> List.sort_uniq compare

let edges_out t p = Option.value ~default:[] (SM.find_opt p t.out_edges)

let edges_in t p = Option.value ~default:[] (SM.find_opt p t.in_edges)

let caller_closure t seeds =
  let rec go acc = function
    | [] -> acc
    | p :: rest when SS.mem p acc -> go acc rest
    | p :: rest ->
        go (SS.add p acc)
          (List.rev_append
             (List.rev_map (fun e -> e.e_caller) (edges_in t p))
             rest)
  in
  let procs = SS.of_list t.procs in
  go SS.empty (List.filter (fun p -> SS.mem p procs) seeds)

(** Procedures reachable from the main program (the paper only analyses
    those; dead procedures keep their T-initialised VAL sets). *)
let reachable_from_main t =
  let seen = ref SS.empty in
  let rec go p =
    if not (SS.mem p !seen) then begin
      seen := SS.add p !seen;
      List.iter go (callees t p)
    end
  in
  go t.main;
  !seen

let pp ppf t =
  List.iter
    (fun p ->
      Fmt.pf ppf "%s -> %a@." p
        Fmt.(list ~sep:(any ", ") string)
        (callees t p))
    t.procs
