(** The analysis registry: every analysis the pipeline knows how to run,
    under one name-indexed table that both interprocedural engines
    select from.  The CLI ([ipcp analyze --domain=NAME [--contexts]],
    [ipcp explain]), the API ([Ipcp.Domains]), the serve wire methods,
    the bench tables and the test harness all read this one list.

    An {!entry} packages a runnable jump-function analysis (a function
    from the driver's shared artifacts to a {!report} with deterministic
    text and JSON renderings) together with a {!laws} capsule — a
    first-class description of the instance's lattice and a few of its
    transfer functions, which the property-test harness checks
    generically (meet-semilattice laws, absorption against the join when
    one exists, monotonicity of the transfers).

    Two kinds of instance coexist:

    - {e value domains} ({!Ipcp_domains.Domain.S}): run through the full
      interprocedural {!Ipcp_core.Valueflow} pipeline — [const],
      [interval], [copyprop].  Each also carries a {!value} record built
      by the one {!Value} functor: derivation-tree explanation of its
      jump-function solve, value-context tabulation ({!Tabulation}) and
      the explanation of the tabulation's context-creation edges;
    - {e flow problems} ({!Ipcp_dataflow.Monotone.FRAMEWORK}): run per
      procedure by the generic engine — [live], [avail].  They have no
      entry environments to tabulate and record no interprocedural
      provenance.

    Adding a value domain means writing its report renderer, naming its
    jump-function solve and its law-element generator, and appending one
    [Value] application to {!all}. *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Ast = Ipcp_frontend.Ast
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Ranges = Ipcp_core.Ranges
module Valueflow = Ipcp_core.Valueflow
module Explain = Ipcp_core.Explain
module Provenance = Ipcp_core.Provenance
module Ctxcache = Ipcp_incr.Ctxcache
module Live = Ipcp_dataflow.Live
module Avail = Ipcp_dataflow.Avail
module Json = Ipcp_obs.Json
module CL = Ipcp_domains.Clattice
module I = Ipcp_domains.Interval
module C = Ipcp_domains.Copyprop

type report = { r_text : string; r_json : Json.t }

(* ------------------------------------------------------------------ *)
(* Lattice-law capsules *)

(** What the generic property-test harness needs from an instance: the
    lattice operations the engines rely on, a deterministic element
    generator, and a few named transfer functions that must be monotone
    w.r.t. [leq] (where [leq a b ⇔ meet a b = a]). *)
module type LAWS = sig
  type t

  val name : string

  val top : t
  (** must be the identity of [meet] *)

  val bot : t option
  (** absorbing element of [meet], when the instance has one *)

  val equal : t -> t -> bool

  val meet : t -> t -> t

  val join : (t -> t -> t) option
  (** when present, must satisfy the absorption laws against [meet] *)

  val leq : t -> t -> bool

  val elem : int -> t
  (** deterministic element from a seed; should cover every constructor *)

  val transfers : (string * (t -> t)) list
  (** named monotone functions, drawn from the instance's own transfer
      functions *)

  val pp : t Fmt.t
end

type laws = Laws : (module LAWS with type t = 'a) -> laws

(** Laws capsule of a full value domain, with transfers drawn from its
    arithmetic. *)
module Domain_laws (D : Ipcp_domains.Domain.S) (E : sig
  val elem : int -> D.t
end) : LAWS with type t = D.t = struct
  type t = D.t

  let name = D.name

  let top = D.top

  let bot = Some D.bot

  let equal = D.equal

  let meet = D.meet

  let join = Some D.join

  let leq = D.leq

  let elem = E.elem

  let transfers =
    [
      ("neg", D.unop Ast.Neg);
      ("add1", fun v -> D.binop Ast.Add v (D.const 1));
      ("mul2", fun v -> D.binop Ast.Mul v (D.const 2));
      ("meet-const3", fun v -> D.meet v (D.const 3));
    ]

  let pp = D.pp
end

(* a tiny fixed variable universe keeps set elements enumerable *)
let law_universe = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let law_subset seed =
  let s = abs seed in
  Array.to_list law_universe
  |> List.filteri (fun i _ -> (s lsr i) land 1 = 1)
  |> SS.of_list

module Live_laws : LAWS with type t = SS.t = struct
  type t = SS.t

  let name = "live"

  let top = Live.F.top

  let bot = None (* the variable universe is unbounded *)

  let equal = Live.F.equal

  let meet = Live.F.meet

  let join = Some SS.inter

  let leq a b = SS.equal (SS.union a b) a

  let elem = law_subset

  (* a backward gen/kill transfer: gen ∪ (x ∖ kill) *)
  let transfers =
    [
      ( "gen-kill",
        fun v ->
          SS.union
            (SS.of_list [ "a"; "b" ])
            (SS.diff v (SS.singleton "c")) );
      ("gen-only", SS.union (SS.singleton "d"));
    ]

  let pp = Live.F.pp
end

module Avail_laws : LAWS with type t = Avail.elt = struct
  type t = Avail.elt

  let name = "avail"

  let top = Avail.F.top

  let bot = Some (Avail.Set SS.empty)

  let equal = Avail.F.equal

  let meet = Avail.F.meet

  let join = None

  let leq a b = Avail.F.equal (Avail.F.meet a b) a

  let elem seed =
    if abs seed mod 7 = 0 then Avail.Univ else Avail.Set (law_subset seed)

  (* a forward gen/kill transfer over a fixed universe *)
  let transfers =
    [
      ( "gen-kill",
        fun v ->
          let s =
            match v with
            | Avail.Univ -> SS.of_list (Array.to_list law_universe)
            | Avail.Set s -> s
          in
          Avail.Set (SS.union (SS.singleton "a") (SS.diff s (SS.singleton "b")))
      );
    ]

  let pp = Avail.F.pp
end

(* ------------------------------------------------------------------ *)
(* The entry types *)

type explanation = {
  x_text : string;
  x_json : Json.t;
  x_violations : Explain.violation list;
      (** differential re-evaluation failures; empty unless the
          provenance is inconsistent with the final fixpoint *)
}

(** What a value domain adds to its entry. *)
type value = {
  v_doc : string;  (** one line for the value-context instantiation *)
  v_explain :
    Driver.t -> proc:string -> ?param:string -> unit ->
    (explanation, string) result;
      (** derivation trees of [proc] (or [proc.param]) recorded by the
          last jump-function solve; requires {!Provenance} to have been
          enabled before the analysis ran *)
  v_tabulate : ?ctx_limit:int -> ?warm:bool -> Driver.t -> report;
      (** the value-context table; [warm] (default true) consults the
          domain's process-global exit store *)
  v_explain_contexts : Driver.t -> report;
      (** a cold tabulation with provenance forced on: the table plus
          every context-creation edge *)
  v_reset : unit -> unit;  (** empty the warm exit store *)
}

type entry = {
  e_name : string;
  e_doc : string;
  e_laws : laws;
  e_run : Driver.t -> report;  (** the jump-function analysis *)
  e_value : value option;  (** value domains only *)
}

(* ------------------------------------------------------------------ *)
(* Context-creation edges *)

let edge_json (e : Provenance.edge) : Json.t =
  let kind_fields =
    match e.Provenance.e_kind with
    | Provenance.Seed _ -> [ ("kind", Json.Str "root") ]
    | Provenance.Call { caller; site_id; loc; _ } ->
        [
          ("kind", Json.Str "call");
          ("caller", Json.Str caller);
          ("site", Json.Int site_id);
          ("loc", Json.Str loc);
        ]
  in
  Json.Obj
    ([
       ("procedure", Json.Str e.Provenance.e_proc);
       ("context", Json.Str e.Provenance.e_param);
       ("entry", Json.Str e.Provenance.e_contrib);
     ]
    @ kind_fields)

let render_edges ppf (edges : Provenance.edge list) =
  List.iter
    (fun (e : Provenance.edge) ->
      match e.Provenance.e_kind with
      | Provenance.Seed _ ->
          Fmt.pf ppf "%s %s created as root, entry %s@." e.Provenance.e_proc
            e.Provenance.e_param e.Provenance.e_contrib
      | Provenance.Call { caller; loc; site_id; _ } ->
          Fmt.pf ppf "%s %s created by %s at %s (site %d), entry %s@."
            e.Provenance.e_proc e.Provenance.e_param caller loc site_id
            e.Provenance.e_contrib)
    edges

(* ------------------------------------------------------------------ *)
(* Value domains *)

(** The entry of one value domain, from what is specific to it: its
    jump-function report, the VAL sets and provenance of its
    jump-function solve, and its law-element generator.  Everything else
    — explanation, tabulation, the warm exit store and its cache
    adapter — is generic.

    The store is process-global: a resident session (or a bench warm
    pass) that re-analyses a program finds every converged context exit
    keyed by deep fingerprint + entry digest and adopts it at context
    creation, which collapses the suspend/resume rounds of unchanged
    subtrees. *)
module Value
    (D : Ipcp_domains.Domain.S)
    (Spec : sig
      val name : string

      val doc : string

      val ctx_doc : string

      val report : Driver.t -> report

      val solve : Driver.t -> D.t SM.t SM.t * Provenance.t option
      (** VAL sets and recorded provenance *)

      val elem : int -> D.t
    end) =
struct
  module T = Tabulation.Make (D)
  module X = Explain.Make (D)
  module L = Domain_laws (D) (Spec)

  let store : D.t Tabulation.RT.t Ctxcache.t = Ctxcache.create ()

  let cache (d : Driver.t) : T.cache =
    let deep =
      Ctxcache.deep_fingerprints ~config:d.Driver.config d.Driver.symtab
        d.Driver.cg
    in
    let key proc entry =
      Option.map
        (fun fp -> Ctxcache.key ~deep_fp:fp ~entry)
        (SM.find_opt proc deep)
    in
    {
      T.c_find =
        (fun ~proc ~entry -> Option.bind (key proc entry) (Ctxcache.find store));
      c_store =
        (fun ~proc ~entry exits ->
          match key proc entry with
          | Some k -> Ctxcache.add store k exits
          | None -> ());
    }

  (* a cold run never computes the deep fingerprints *)
  let run ?ctx_limit ?(warm = true) (d : Driver.t) : T.t =
    let cache = if warm then Some (cache d) else None in
    T.run ?ctx_limit ?cache d

  let table (t : T.t) =
    { r_text = Fmt.str "%a" T.render_text t; r_json = T.json t }

  (* validate the target, build the derivation trees, render both ways,
     and re-check every edge against the final fixpoint *)
  let explain (d : Driver.t) ~proc ?param () =
    let vals, prov = Spec.solve d in
    match prov with
    | None ->
        Error
          "no derivation provenance was recorded (the solve ran with \
           Provenance disabled)"
    | Some prov -> (
        match SM.find_opt proc vals with
        | None -> Error (Fmt.str "unknown procedure %s" proc)
        | Some entry -> (
            match param with
            | Some n when not (SM.mem n entry) ->
                Error
                  (Fmt.str "procedure %s tracks no scalar parameter %s" proc n)
            | _ ->
                let input =
                  {
                    X.vals;
                    prov;
                    jfs = d.Driver.jfs;
                    seed = T.S.main_seed d.Driver.symtab;
                  }
                in
                let nodes = X.build input ~proc ?param () in
                Ok
                  {
                    x_text = Fmt.str "%a" X.render_text nodes;
                    x_json = X.json nodes;
                    x_violations = X.check input nodes;
                  }))

  (* cold: adopting warm exits would skip the settling whose derivation
     the edges describe *)
  let explain_contexts (d : Driver.t) =
    Provenance.with_enabled @@ fun () ->
    let t = run ~warm:false d in
    let edges =
      match t.T.prov with Some pr -> Provenance.edges pr | None -> []
    in
    {
      r_text =
        Fmt.str "%a" T.render_text t
        ^ Fmt.str "context creation edges: %d@.%a" (List.length edges)
            render_edges edges;
      r_json =
        Json.Obj
          [
            ("contexts", T.json t);
            ("creation_edges", Json.Arr (List.map edge_json edges));
          ];
    }

  let entry =
    {
      e_name = Spec.name;
      e_doc = Spec.doc;
      e_laws = Laws (module L);
      e_run = Spec.report;
      e_value =
        Some
          {
            v_doc = Spec.ctx_doc;
            v_explain = explain;
            v_tabulate =
              (fun ?ctx_limit ?warm d -> table (run ?ctx_limit ?warm d));
            v_explain_contexts = explain_contexts;
            v_reset = (fun () -> Ctxcache.clear store);
          };
    }
end

(* ------------------------------------------------------------------ *)
(* const: the constant-lattice VAL sets, straight off the driver *)

let const_report (d : Driver.t) : report =
  let vals = d.Driver.solver.Solver.vals in
  let consts = SM.mapi (fun p _ -> Driver.constants d p) vals in
  let total = SM.fold (fun _ m n -> n + SM.cardinal m) consts 0 in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p m ->
        Fmt.pf ppf "CONSTANTS(%s) = {%a}@." p
          Fmt.(
            list ~sep:(any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s = %d" n v))
          (SM.bindings m))
      consts;
    Fmt.pf ppf "constants: %d entries across %d procedures@." total
      (SM.cardinal consts);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "const");
        ( "procedures",
          Json.Arr
            (SM.bindings consts
            |> List.map (fun (p, m) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "constants",
                         Json.Obj
                           (List.map
                              (fun (n, v) -> (n, Json.Int v))
                              (SM.bindings m)) );
                     ])) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal consts));
              ("constants", Json.Int total);
            ] );
      ]
  in
  { r_text = text; r_json = json }

module Const = Value (CL) (struct
  let name = "const"

  let doc = "interprocedural constant propagation (the paper's lattice)"

  let ctx_doc = "context-sensitive constant propagation (value contexts)"

  let report = const_report

  let solve (d : Driver.t) =
    let s = d.Driver.solver in
    (s.Solver.vals, s.Solver.prov)

  let elem seed =
    match abs seed mod 4 with
    | 0 -> CL.top
    | 1 -> CL.bot
    | _ -> CL.const ((seed mod 7) - 3)
end)

(* ------------------------------------------------------------------ *)
(* interval: the ranges pipeline, reported verbatim *)

module Interval = Value (I) (struct
  let name = "interval"

  let doc = "interprocedural value ranges (the ipcp-ranges pipeline)"

  let ctx_doc = "context-sensitive value ranges (value contexts)"

  let report (d : Driver.t) =
    let r = Driver.analyze_ranges d in
    { r_text = Fmt.str "%a" Ranges.render_text r; r_json = Ranges.json r }

  let solve (d : Driver.t) =
    let s = (Driver.analyze_ranges d).Ranges.solver in
    (s.Ranges.ISolver.vals, s.Ranges.ISolver.prov)

  let elem seed =
    let s = abs seed in
    match s mod 5 with
    | 0 -> I.top
    | 1 -> I.bot
    | 2 -> I.const ((seed mod 9) - 4)
    | 3 -> I.Range (I.Fin ((seed mod 5) - 2), I.Pinf)
    | _ ->
        let lo = (seed mod 5) - 2 in
        I.of_bounds lo (lo + (s mod 7))
end)

(* ------------------------------------------------------------------ *)
(* copyprop: the copy lattice through the full value-flow pipeline *)

module CVF = Valueflow.Make (C)

(** Run the copy lattice through propagation and evaluation.  The entry
    binding is where [Copy] enters: an entry symbol the solver left ⊥
    becomes the fact "equals its own entry value" — sound only within
    the procedure's frame, which is exactly the evaluation's scope.  The
    solver itself computes over [{⊤, Const, ⊥}] (its values come from
    seeds, literals and jump-function arithmetic over those), so its
    constants coincide with the constant lattice's — the subsumption
    half of the differential test. *)
let copyprop_compute (d : Driver.t) : CVF.t =
  let entry_of solver p name =
    let v = CVF.S.val_of solver p name in
    if C.equal v C.bot then C.copy name else v
  in
  CVF.compute ~ns:"copyprop" ~config:d.Driver.config ~symtab:d.Driver.symtab
    ~cg:d.Driver.cg ~modref:d.Driver.modref ~rjfs:d.Driver.rjfs
    ~jfs:d.Driver.jfs ~convs:d.Driver.convs ~entry_of ()

let copyprop_classify (v : C.t) =
  if C.is_const v <> None then `Const
  else
    match C.copy_of v with
    | Some _ -> `Copy
    | None -> if C.equal v C.top then `Unreached else `Unknown

let copyprop_report (d : Driver.t) : report =
  let t = copyprop_compute d in
  let n_const = ref 0
  and n_copy = ref 0
  and n_unknown = ref 0
  and n_unreached = ref 0 in
  Loc.Map.iter
    (fun _ v ->
      match copyprop_classify v with
      | `Const -> incr n_const
      | `Copy -> incr n_copy
      | `Unknown -> incr n_unknown
      | `Unreached -> incr n_unreached)
    t.CVF.facts;
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p entry ->
        Fmt.pf ppf "COPY(%s) = {%a}@." p
          Fmt.(
            list ~sep:(any ", ") (fun ppf (n, v) ->
                Fmt.pf ppf "%s = %a" n C.pp v))
          (SM.bindings entry))
      t.CVF.solver.CVF.S.vals;
    Loc.Map.iter
      (fun loc v -> Fmt.pf ppf "%a: %a@." Loc.pp loc C.pp v)
      t.CVF.facts;
    Fmt.pf ppf
      "facts: %d uses across %d procedures (%d constant, %d entry-copy, %d \
       unknown, %d unreached)@."
      (Loc.Map.cardinal t.CVF.facts)
      (SM.cardinal t.CVF.solver.CVF.S.vals)
      !n_const !n_copy !n_unknown !n_unreached;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "copyprop");
        ( "procedures",
          Json.Arr
            (SM.bindings t.CVF.solver.CVF.S.vals
            |> List.map (fun (p, entry) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "entry",
                         Json.Obj
                           (List.map
                              (fun (n, v) -> (n, Json.Str (C.to_string v)))
                              (SM.bindings entry)) );
                     ])) );
        ( "facts",
          Json.Arr
            (Loc.Map.fold
               (fun loc v acc ->
                 Json.Obj
                   [
                     ("loc", Json.Str (Loc.to_string loc));
                     ("value", Json.Str (C.to_string v));
                   ]
                 :: acc)
               t.CVF.facts []
            |> List.rev) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal t.CVF.solver.CVF.S.vals));
              ("facts", Json.Int (Loc.Map.cardinal t.CVF.facts));
              ("constant", Json.Int !n_const);
              ("entry_copy", Json.Int !n_copy);
              ("unknown", Json.Int !n_unknown);
              ("unreached", Json.Int !n_unreached);
            ] );
      ]
  in
  { r_text = text; r_json = json }

module Copyprop = Value (C) (struct
  let name = "copyprop"

  let doc = "interprocedural copy propagation (subsumes const)"

  let ctx_doc = "context-sensitive copy propagation (value contexts)"

  let report = copyprop_report

  let solve (d : Driver.t) =
    let s = (copyprop_compute d).CVF.solver in
    (s.CVF.S.vals, s.CVF.S.prov)

  let vars = [| "i"; "j"; "n" |]

  let elem seed =
    match abs seed mod 5 with
    | 0 -> C.top
    | 1 -> C.bot
    | 2 -> C.copy vars.(abs seed mod 3)
    | _ -> C.const ((seed mod 7) - 3)
end)

(* ------------------------------------------------------------------ *)
(* live: the backward instance, per procedure *)

let live_report (d : Driver.t) : report =
  let lv_by_proc = Live.all d.Driver.symtab d.Driver.cfgs in
  let dead = Live.dead_stores d.Driver.cfgs lv_by_proc in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p (lv : Live.t) ->
        let entry = lv.Live.live_in.(0) in
        let total =
          Array.fold_left (fun n s -> n + SS.cardinal s) 0 lv.Live.live_in
        in
        Fmt.pf ppf "LIVE(%s): entry = {%a}, Σ|live-in| = %d over %d blocks@."
          p
          Fmt.(list ~sep:(any ", ") string)
          (SS.elements entry) total
          (Array.length lv.Live.live_in))
      lv_by_proc;
    List.iter
      (fun (p, v, loc) ->
        Fmt.pf ppf "%a: dead store to %s in %s@." Loc.pp loc v p)
      dead;
    Fmt.pf ppf "dead stores: %d across %d procedures@." (List.length dead)
      (SM.cardinal lv_by_proc);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "live");
        ( "procedures",
          Json.Arr
            (SM.bindings lv_by_proc
            |> List.map (fun (p, (lv : Live.t)) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "entry_live",
                         Json.Arr
                           (List.map
                              (fun v -> Json.Str v)
                              (SS.elements lv.Live.live_in.(0))) );
                       ( "live_in_sizes",
                         Json.Arr
                           (Array.to_list lv.Live.live_in
                           |> List.map (fun s -> Json.Int (SS.cardinal s)))
                       );
                     ])) );
        ( "dead_stores",
          Json.Arr
            (List.map
               (fun (p, v, loc) ->
                 Json.Obj
                   [
                     ("loc", Json.Str (Loc.to_string loc));
                     ("variable", Json.Str v);
                     ("procedure", Json.Str p);
                   ])
               dead) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal lv_by_proc));
              ("dead_stores", Json.Int (List.length dead));
            ] );
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* avail: the forward must-instance, per procedure *)

let avail_report (d : Driver.t) : report =
  let by_proc = SM.map Avail.compute d.Driver.cfgs in
  let universe p = (Avail.ctx (SM.find p d.Driver.cfgs)).Avail.universe in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p (av : Avail.t) ->
        let total =
          Array.fold_left (fun n s -> n + SS.cardinal s) 0 av.Avail.avail_in
        in
        Fmt.pf ppf
          "AVAIL(%s): universe = %d expressions, Σ|avail-in| = %d over %d \
           blocks@."
          p
          (SS.cardinal (universe p))
          total
          (Array.length av.Avail.avail_in))
      by_proc;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "avail");
        ( "procedures",
          Json.Arr
            (SM.bindings by_proc
            |> List.map (fun (p, (av : Avail.t)) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ("universe", Json.Int (SS.cardinal (universe p)));
                       ( "avail_in_sizes",
                         Json.Arr
                           (Array.to_list av.Avail.avail_in
                           |> List.map (fun s -> Json.Int (SS.cardinal s)))
                       );
                     ])) );
        ("summary", Json.Obj [ ("procedures", Json.Int (SM.cardinal by_proc)) ]);
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* The registry *)

let all : entry list =
  [
    Const.entry;
    Interval.entry;
    Copyprop.entry;
    {
      e_name = "live";
      e_doc = "backward live variables, with dead-store detection";
      e_laws = Laws (module Live_laws);
      e_run = live_report;
      e_value = None;
    };
    {
      e_name = "avail";
      e_doc = "forward available expressions (must-problem)";
      e_laws = Laws (module Avail_laws);
      e_run = avail_report;
      e_value = None;
    };
  ]

let names = List.map (fun e -> e.e_name) all

let find name = List.find_opt (fun e -> String.equal e.e_name name) all

(** The value domains, in registry order: the names [--contexts] and
    [explain] accept. *)
let value_names =
  List.filter_map (fun e -> Option.map (fun _ -> e.e_name) e.e_value) all

let value name = Option.bind (find name) (fun e -> e.e_value)

let reset_caches () =
  List.iter (fun e -> Option.iter (fun v -> v.v_reset ()) e.e_value) all

(** Explain [proc] (or [proc.param]) under the named domain's
    jump-function solve. *)
let explain ~domain (d : Driver.t) ~proc ?param () :
    (explanation, string) result =
  match find domain with
  | None ->
      Error
        (Fmt.str "unknown domain %s (known: %s)" domain
           (String.concat ", " names))
  | Some { e_value = None; _ } ->
      Error
        (Fmt.str
           "domain %s records no derivation provenance (explainable: %s)"
           domain
           (String.concat ", " value_names))
  | Some { e_value = Some v; _ } -> v.v_explain d ~proc ?param ()

(** The named domain's context table together with every
    context-creation edge (who created which context, at which call
    site, with which entry values). *)
let explain_contexts ~domain (d : Driver.t) : (report, string) result =
  match value domain with
  | None ->
      Error
        (Fmt.str "unknown context-sensitive domain %s (known: %s)" domain
           (String.concat ", " value_names))
  | Some v -> Ok (v.v_explain_contexts d)
