(** The program call graph.

    Nodes are procedures; each edge is a call {e site} (so two calls
    from [p] to [q] are two distinct edges, as the paper's propagation
    requires — the meet at [q] folds the jump-function value of every
    entering edge).

    The graph is built from the lowered CFGs, so it also covers function
    calls appearing inside expressions. *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg

type edge = { e_caller : string; e_callee : string; e_site : Instr.site }

type t = {
  procs : string list;  (** declaration order *)
  main : string;
  edges : edge list;  (** all edges, in call-site order *)
  out_edges : edge list SM.t;  (** caller -> edges *)
  in_edges : edge list SM.t;  (** callee -> edges *)
}

val build : main:string -> order:string list -> Cfg.t SM.t -> t

val callees : t -> string -> string list
(** Distinct callees of [p], sorted. *)

val edges_out : t -> string -> edge list
(** Out-edges of [p] in call-site order ([[]] for leaf procedures). *)

val edges_in : t -> string -> edge list
(** In-edges of [p] in call-site order ([[]] for the main program and
    dead procedures). *)

val caller_closure : t -> string list -> SS.t
(** The seeds that are procedures of the graph, plus every procedure
    that calls one of them, transitively: the set an edit to the seeds
    invalidates, since a procedure's summaries depend only on its own
    body and its transitive callees. *)

val reachable_from_main : t -> SS.t
(** Procedures reachable from the main program (the paper only analyses
    those; dead procedures keep their ⊤-initialised VAL sets). *)

val pp : t Fmt.t
