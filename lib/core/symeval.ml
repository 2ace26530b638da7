(** Symbolic evaluation of one procedure over its SSA form.

    This is the analyzer's "global value numbering" stage: every SSA name
    receives a {!value} — ⊤ (not yet known), a symbolic expression over the
    procedure's {e entry symbols} (its scalar formals and the program's
    scalar globals), or ⊥.  Two names with equal expressions are congruent;
    an expression that folds to an integer is an intraprocedural constant;
    an expression that is exactly an entry symbol is a pass-through.  The
    function [gcp(y, s)] of the paper — "the constant value of parameter y
    at call site s, determined with intraprocedural constant propagation or
    value numbering coupled with interprocedural MOD information" — is
    precisely [is_const] of the value computed here for the actual's
    operand.

    The treatment of call sites is delegated to a {!policy}, which is where
    MOD information and return jump functions plug in; the engine itself is
    configuration-independent.  Evaluation iterates to a fixpoint over the
    blocks in reverse postorder; the lattice (⊤ above all expressions above
    ⊥, expressions pairwise incomparable) has height 2, and expression
    growth is capped ({!max_size}), so termination is immediate. *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Symtab = Ipcp_frontend.Symtab
module Symexpr = Ipcp_vn.Symexpr
module Clattice = Ipcp_domains.Clattice

type value = Top | Sexp of Symexpr.t | Bottom

let value_equal a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Sexp x, Sexp y -> Symexpr.equal x y
  | _ -> false

let value_meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Sexp x, Sexp y -> if Symexpr.equal x y then a else Bottom

let const c = Sexp (Symexpr.const c)

let is_const = function Sexp e -> Symexpr.is_const e | _ -> None

(** Convert to the three-level constant lattice (forgetting non-constant
    expression structure). *)
let to_clattice = function
  | Top -> Clattice.Top
  | Bottom -> Clattice.Bottom
  | Sexp e -> (
      match Symexpr.is_const e with
      | Some c -> Clattice.Const c
      | None -> Clattice.Bottom)

let pp_value ppf = function
  | Top -> Fmt.string ppf "⊤"
  | Bottom -> Fmt.string ppf "⊥"
  | Sexp e -> Symexpr.pp ppf e

(** Expressions larger than this are abandoned to ⊥ (protects against
    degenerate growth; never reached by the paper-style workloads). *)
let max_size = 256

let clip = function
  | Sexp e when Symexpr.size e > max_size -> Bottom
  | v -> v

(* ------------------------------------------------------------------ *)
(* Call-site policies *)

type site_view = {
  sv_site : Instr.site;
  actual : int -> value;
      (** symbolic value of scalar actual [j] just before the call
          (⊥ for whole-array actuals) *)
  global_at : string -> value;
      (** symbolic value of a scalar global just before the call *)
}

type policy = {
  on_calldef : site_view -> Instr.call_target -> value -> value;
      (** value of the target after the call; third argument is the
          incoming value *)
  on_result : site_view -> value;  (** value of a function call's result *)
}

(** The most conservative policy: every call kills everything it could
    address (the "no MOD information" world of Table 3, column 1). *)
let worst_case_policy =
  { on_calldef = (fun _ _ _ -> Bottom); on_result = (fun _ -> Bottom) }

(* ------------------------------------------------------------------ *)
(* Engine *)

type t = {
  values : (Instr.var, value) Hashtbl.t;
  cfg : Cfg.t;  (** the SSA-form CFG that was evaluated *)
  views : (int, site_view) Hashtbl.t;  (** keyed by site id *)
  passes : int;  (** fixpoint sweeps until stabilisation *)
}

let value t v = Option.value ~default:Top (Hashtbl.find_opt t.values v)

(* Site views: actual values and pre-call global values, per site.  The
   [operand] closure is late-binding — during [run] it reads the mutable
   value table as the fixpoint evolves; during rehydration it reads the
   final values. *)
let make_views ~operand (ssa_cfg : Cfg.t) : (int, site_view) Hashtbl.t =
  let global_ins : (int, Instr.operand SM.t) Hashtbl.t = Hashtbl.create 16 in
  Cfg.iter_instrs
    (fun _ i ->
      match i with
      | Instr.Idef (_, Instr.Rcalldef (sid, Instr.Tglobal g, inc), _) ->
          let m =
            Option.value ~default:SM.empty (Hashtbl.find_opt global_ins sid)
          in
          Hashtbl.replace global_ins sid (SM.add g inc m)
      | _ -> ())
    ssa_cfg;
  let view_of (s : Instr.site) =
    let args = Array.of_list s.Instr.args in
    {
      sv_site = s;
      actual =
        (fun j ->
          if j < 0 || j >= Array.length args then Bottom
          else
            match args.(j) with
            | Instr.Ascalar (o, _) -> operand o
            | Instr.Aarray _ -> Bottom);
      global_at =
        (fun g ->
          match
            Option.bind
              (Hashtbl.find_opt global_ins s.Instr.site_id)
              (SM.find_opt g)
          with
          | Some o -> operand o
          | None -> Bottom);
    }
  in
  let views : (int, site_view) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Instr.site) ->
      Hashtbl.replace views s.Instr.site_id (view_of s))
    ssa_cfg.Cfg.sites;
  views

(** [entry_binding] optionally binds entry symbols (used by the
    substitution pass, where VAL(p) is known); [None] leaves the symbol
    symbolic. *)
let run ?(entry_binding = fun (_ : string) -> (None : value option))
    ~symtab:(_ : Symtab.t) ~(psym : Symtab.proc_sym) ~(policy : policy)
    (ssa_cfg : Cfg.t) : t =
  let values : (Instr.var, value) Hashtbl.t = Hashtbl.create 256 in
  let is_scalar_entry base =
    match Symtab.var psym base with
    | Some vi when Symtab.is_array vi -> false
    | Some { Symtab.kind = Symtab.Formal _ | Symtab.Global _; _ } -> true
    | _ -> false
  in
  (* value of an entry (version-0) name *)
  let entry_value base =
    if is_scalar_entry base then
      match entry_binding base with
      | Some v -> v
      | None -> Sexp (Symexpr.sym base)
    else
      match SM.find_opt base psym.Symtab.data with
      | Some v -> const v (* DATA-initialised local of the main program *)
      | None -> Bottom (* locals, temporaries, result: undefined at entry *)
  in
  let lookup v =
    match Hashtbl.find_opt values v with
    | Some x -> x
    | None ->
        if Ssa.is_entry_version v then entry_value (Ssa.base_name v)
        else Top
  in
  let operand = function
    | Instr.Oint n -> const n
    | Instr.Ovar (v, _) -> lookup v
  in

  let views = make_views ~operand ssa_cfg in
  let view_by_id sid = Hashtbl.find views sid in

  (* transfer of one right-hand side *)
  let lift1 f a = match a with Top -> Top | Bottom -> Bottom | Sexp x -> clip (Sexp (f x)) in
  let lift2 f a b =
    match (a, b) with
    | Bottom, _ | _, Bottom -> Bottom
    | Top, _ | _, Top -> Top
    | Sexp x, Sexp y -> clip (Sexp (f x y))
  in
  let liftn f args =
    if List.exists (fun v -> v = Bottom) args then Bottom
    else if List.exists (fun v -> v = Top) args then Top
    else
      clip
        (Sexp (f (List.map (function Sexp x -> x | _ -> assert false) args)))
  in
  let steps = ref 0 in
  let eval_rhs (r : Instr.rhs) =
    incr steps;
    match r with
    | Instr.Rcopy o -> operand o
    | Instr.Runop (Ipcp_frontend.Ast.Neg, o) -> lift1 Symexpr.neg (operand o)
    | Instr.Rbinop (op, a, b) ->
        lift2 (Symexpr.binop op) (operand a) (operand b)
    | Instr.Rintrin (i, ops) ->
        liftn (Symexpr.intrin i) (List.map operand ops)
    | Instr.Rload _ -> Bottom (* constants are not tracked through arrays *)
    | Instr.Rread -> Bottom
    | Instr.Rresult sid -> policy.on_result (view_by_id sid)
    | Instr.Rcalldef (sid, target, inc) ->
        policy.on_calldef (view_by_id sid) target (operand inc)
  in

  (* fixpoint sweeps in reverse postorder *)
  let order = Cfg.rev_postorder ssa_cfg in
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr passes;
    List.iter
      (fun bid ->
        let b = ssa_cfg.Cfg.blocks.(bid) in
        List.iter
          (fun (p : Cfg.phi) ->
            let v =
              List.fold_left
                (fun acc (_, src) -> value_meet acc (lookup src))
                Top p.Cfg.srcs
            in
            if not (value_equal v (lookup p.Cfg.dest)) then begin
              Hashtbl.replace values p.Cfg.dest v;
              changed := true
            end)
          b.Cfg.phis;
        List.iter
          (fun i ->
            match i with
            | Instr.Idef (x, r, _) ->
                let v = eval_rhs r in
                if not (value_equal v (lookup x)) then begin
                  Hashtbl.replace values x v;
                  changed := true
                end
            | Instr.Istore _ | Instr.Icall _ | Instr.Iprint _ -> ())
          b.Cfg.instrs)
      order
  done;
  if Ipcp_obs.Obs.on () then begin
    let module Metrics = Ipcp_obs.Metrics in
    Metrics.incr "symeval.runs";
    Metrics.add "symeval.passes" !passes;
    Metrics.add "symeval.steps" !steps;
    Metrics.add
      ("symeval.steps/" ^ psym.Symtab.proc.Ipcp_frontend.Ast.name)
      !steps
  end;
  (* materialise entry names that were only ever read through [lookup], so
     that the exported [value] accessor sees them *)
  Cfg.all_vars ssa_cfg
  |> SS.iter (fun v ->
         if not (Hashtbl.mem values v) then Hashtbl.replace values v (lookup v));
  { values; cfg = ssa_cfg; views; passes = !passes }

(* ------------------------------------------------------------------ *)
(* Persistable form *)

(** The closure-free residue of an evaluation: enough to rebuild [t]
    against the same SSA CFG without re-running the fixpoint.  [run]
    materialises every variable of the CFG into the value table before
    returning, so the table alone determines the site views. *)
type artifact = { a_values : (Instr.var * value) list; a_passes : int }

let to_artifact t =
  {
    a_values = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.values [];
    a_passes = t.passes;
  }

let of_artifact (ssa_cfg : Cfg.t) (a : artifact) : t =
  let values : (Instr.var, value) Hashtbl.t =
    Hashtbl.create (max 16 (List.length a.a_values))
  in
  List.iter (fun (k, v) -> Hashtbl.replace values k v) a.a_values;
  let lookup v = Option.value ~default:Top (Hashtbl.find_opt values v) in
  let operand = function
    | Instr.Oint n -> const n
    | Instr.Ovar (v, _) -> lookup v
  in
  let views = make_views ~operand ssa_cfg in
  { values; cfg = ssa_cfg; views; passes = a.a_passes }

(** The site view for a given call site of the evaluated procedure. *)
let site_view t (s : Instr.site) = Hashtbl.find t.views s.Instr.site_id

(** Value of an operand under this evaluation. *)
let operand_value t = function
  | Instr.Oint n -> const n
  | Instr.Ovar (v, _) -> value t v
