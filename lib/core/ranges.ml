(** The interprocedural value-range pipeline: the domain-generic
    {!Valueflow} stages instantiated with the {!Ipcp_domains.Interval}
    domain, plus the interval-specific fact metrics and the renderers
    behind [ipcp analyze --domain=interval].

    See {!Valueflow} for the three stages (interprocedural propagation,
    intraprocedural evaluation, fact recording); this instance runs them
    under the ["ranges"] telemetry namespace, so spans and solver
    counters are identical to the pre-framework pipeline.

    Soundness inherits from the parts: jump functions and return jump
    functions are exact symbolic values, the interval transfer functions
    over-approximate native integer arithmetic (wrap-around collapses to
    ⊥), and refinement only intersects with branch-implied ranges.  A ⊤
    fact marks a use the propagation never reached. *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Symtab = Ipcp_frontend.Symtab
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Json = Ipcp_obs.Json
module I = Ipcp_domains.Interval
module VF = Valueflow.Make (Ipcp_domains.Interval)
module ISolver = VF.S
module IAbs = VF.A

type t = VF.t = {
  solver : ISolver.t;  (** interval VAL sets *)
  evals : IAbs.t SM.t;  (** per-procedure abstract evaluations *)
  facts : I.t Loc.Map.t;  (** range per located scalar-variable use *)
}

let compute ~(config : Config.t) ~(symtab : Symtab.t) ~(cg : Callgraph.t)
    ~(modref : Modref.t option) ~(rjfs : Returnjf.t)
    ~(jfs : Jumpfn.site_jfs list SM.t) ~(convs : Ssa.conv SM.t) () : t =
  let t =
    VF.compute ~ns:"ranges" ~config ~symtab ~cg ~modref ~rjfs ~jfs ~convs ()
  in
  if Obs.on () then begin
    Metrics.add "ranges.facts" (Loc.Map.cardinal t.facts);
    Loc.Map.iter
      (fun _ v ->
        if I.is_const v <> None then Metrics.incr "ranges.facts.singleton"
        else
          match v with
          | I.Range (I.Fin _, I.Fin _) -> Metrics.incr "ranges.facts.bounded"
          | I.Range _ -> Metrics.incr "ranges.facts.unbounded"
          | I.Top -> Metrics.incr "ranges.facts.unreached")
      t.facts
  end;
  t

(** The range of the located use at [loc], if any. *)
let fact = VF.fact

(** RANGES(p): the interval VAL set on entry to [p]. *)
let entry_ranges = VF.entry_values

(* ------------------------------------------------------------------ *)
(* Rendering, shared by [ipcp analyze --domain=interval] text/JSON output *)

type summary = {
  s_procs : int;
  s_facts : int;
  s_singleton : int;
  s_bounded : int;
  s_unbounded : int;
  s_unreached : int;
}

let summarize (t : t) : summary =
  let s_singleton = ref 0
  and s_bounded = ref 0
  and s_unbounded = ref 0
  and s_unreached = ref 0 in
  Loc.Map.iter
    (fun _ v ->
      if I.is_const v <> None then incr s_singleton
      else
        match v with
        | I.Range (I.Fin _, I.Fin _) -> incr s_bounded
        | I.Range _ -> incr s_unbounded
        | I.Top -> incr s_unreached)
    t.facts;
  {
    s_procs = SM.cardinal t.solver.ISolver.vals;
    s_facts = Loc.Map.cardinal t.facts;
    s_singleton = !s_singleton;
    s_bounded = !s_bounded;
    s_unbounded = !s_unbounded;
    s_unreached = !s_unreached;
  }

let render_text ppf (t : t) =
  SM.iter
    (fun p entry ->
      Fmt.pf ppf "RANGES(%s) = {%a}@." p
        Fmt.(
          list ~sep:(any ", ") (fun ppf (n, v) ->
              Fmt.pf ppf "%s ∈ %a" n I.pp v))
        (SM.bindings entry))
    t.solver.ISolver.vals;
  Loc.Map.iter
    (fun loc v -> Fmt.pf ppf "%a: %a@." Loc.pp loc I.pp v)
    t.facts;
  let s = summarize t in
  Fmt.pf ppf
    "facts: %d uses across %d procedures (%d singleton, %d bounded, %d \
     unbounded, %d unreached)@."
    s.s_facts s.s_procs s.s_singleton s.s_bounded s.s_unbounded s.s_unreached

let json (t : t) : Json.t =
  let procs =
    SM.fold
      (fun p entry acc ->
        Json.Obj
          [
            ("procedure", Json.Str p);
            ( "entry",
              Json.Obj
                (List.map
                   (fun (n, v) -> (n, Json.Str (I.to_string v)))
                   (SM.bindings entry)) );
          ]
        :: acc)
      t.solver.ISolver.vals []
    |> List.rev
  in
  let facts =
    Loc.Map.fold
      (fun loc v acc ->
        Json.Obj
          [
            ("loc", Json.Str (Loc.to_string loc));
            ("range", Json.Str (I.to_string v));
          ]
        :: acc)
      t.facts []
    |> List.rev
  in
  let s = summarize t in
  Json.Obj
    [
      ("procedures", Json.Arr procs);
      ("facts", Json.Arr facts);
      ( "summary",
        Json.Obj
          [
            ("procedures", Json.Int s.s_procs);
            ("facts", Json.Int s.s_facts);
            ("singleton", Json.Int s.s_singleton);
            ("bounded", Json.Int s.s_bounded);
            ("unbounded", Json.Int s.s_unbounded);
            ("unreached", Json.Int s.s_unreached);
          ] );
    ]

