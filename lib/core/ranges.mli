(** The interprocedural value-range pipeline: the jump-function framework
    of {!Solver} and {!Abseval} instantiated with the interval domain.
    Reuses the constant pipeline's artifacts (jump functions, return jump
    functions, call graph) and produces a location-keyed map of range
    facts for every located scalar-variable use — the input to the
    range-aware lint checks. *)

module Loc = Ipcp_frontend.Loc
module Symtab = Ipcp_frontend.Symtab
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref
module Json = Ipcp_obs.Json
module I = Ipcp_domains.Interval
module ISolver : module type of Solver.Make (Ipcp_domains.Interval)
module IAbs : module type of Abseval.Make (Ipcp_domains.Interval)

type t = {
  solver : ISolver.t;  (** interval VAL sets *)
  evals : IAbs.t Ipcp_frontend.Names.SM.t;
      (** per-procedure abstract evaluations *)
  facts : I.t Loc.Map.t;  (** range per located scalar-variable use *)
}

val compute :
  config:Config.t ->
  symtab:Symtab.t ->
  cg:Callgraph.t ->
  modref:Modref.t option ->
  rjfs:Returnjf.t ->
  jfs:Jumpfn.site_jfs list Ipcp_frontend.Names.SM.t ->
  convs:Ssa.conv Ipcp_frontend.Names.SM.t ->
  unit ->
  t
(** Run interval propagation and per-procedure evaluation over the
    constant pipeline's artifacts; parallel across procedures when
    [config.jobs > 1] (results identical to the sequential run).
    Usually reached through [Driver.analyze_ranges]. *)

val fact : t -> Loc.t -> I.t option
(** The range of the located use at [loc], if any.  [Top] marks a use the
    propagation never reached (dead code). *)

val entry_ranges : t -> string -> I.t Ipcp_frontend.Names.SM.t
(** RANGES(p): the interval VAL set on entry to [p]. *)

(** Aggregate counts over the fact map, as printed by
    [ipcp analyze --domain=interval]. *)
type summary = {
  s_procs : int;
  s_facts : int;
  s_singleton : int;
  s_bounded : int;
  s_unbounded : int;
  s_unreached : int;
}

val summarize : t -> summary

val render_text : Format.formatter -> t -> unit
(** Human-readable listing: RANGES(p) per procedure, one fact per located
    use, then the summary line. *)

val json : t -> Json.t
(** The same content as a deterministic JSON document (procedures and
    facts in sorted order, ranges as strings). *)
