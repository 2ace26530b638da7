(** Intraprocedural abstract interpretation of one procedure over its SSA
    form, for any {!Ipcp_domains.Domain.S}.

    This is the domain-generic counterpart of {!Symeval}.  Symeval is the
    jump-function {e builder}: it assigns every SSA name a symbolic
    expression over the procedure's entry symbols, and those expressions
    are domain-independent by construction.  This engine consumes the
    other direction — given abstract entry values (for the range pipeline,
    the interval VAL set of the interprocedural solve), it folds the
    procedure's instructions through the domain's transfer functions and
    produces an abstract value per SSA name.  The shapes deliberately
    mirror Symeval: the same {!site_view}/{!policy} treatment of call
    sites (MOD information and return jump functions plug in through
    {!returnjf_policy}), the same reverse-postorder fixpoint sweeps.

    Two things Symeval does not need appear here:

    - {b Branch refinement.}  On a conditional edge whose target has a
      single predecessor, [D.filter] refines the compared SSA names under
      the branch condition.  An SSA name never changes, so a constraint
      established on entry to that target holds in every block it
      dominates; refinement environments therefore accumulate down the
      dominator tree and are applied at each read ([D.join] with the raw
      value).  This is what turns a DO-loop header's exit test into
      [v ∈ [lo, limit]] inside the body.
    - {b Termination for infinite-height domains.}  Every SSA data
      recurrence passes through a phi, so widening at phi nodes (from the
      third sweep on) bounds the descending chains; after convergence one
      narrowing sweep re-evaluates each definition and lets [D.narrow]
      recover the borders widening pushed to infinity.  Both are skipped
      when [D.finite_height].

    {b Preparation.}  Everything the engine derives from the CFG alone
    is a {!prep}, computed by {!prepare}: dominators, reverse postorder,
    a dense numbering of the SSA names, and each block's phis,
    definitions and entry guard (the branch condition of its single
    predecessor) rewritten over those numbers, with each call site's
    actuals and global targets alongside.  The value store of an
    evaluation is then an array indexed by name number, and a sweep
    reads no name through a hash table.  A caller that evaluates one
    procedure many times (the value-context tabulation runs it once per
    context and per re-evaluation) prepares it once and passes the
    result to every {!Make.run}; without one, [run] prepares the
    procedure itself. *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Dom = Ipcp_ir.Dom
module Ast = Ipcp_frontend.Ast
module Symtab = Ipcp_frontend.Symtab
module Modref = Ipcp_summary.Modref

(* sweeps of plain descending iteration before phis switch to widening *)
let widen_start = 3

(** An operand whose SSA name is replaced by the name's number. *)
type operand = Lit of int | Name of int

(** A right-hand side over numbered names, with call sites by position. *)
type rhs =
  | Val of operand
  | Unop of Ast.unop * operand
  | Binop of Ast.binop * operand * operand
  | Intrin of Ast.intrinsic * operand list
  | Untracked  (** array loads and READs: values are not tracked there *)
  | Result of int  (** the function result of the call at this site *)
  | Calldef of int * Instr.call_target * operand
      (** a call target after the call, and its incoming value *)

type block = {
  b_phis : (int * int list) list;  (** destination and sources *)
  b_defs : (int * rhs) list;  (** definitions, in order *)
  b_guard : (Ast.relop * operand * operand) option;
      (** the comparison that holds on entry, when the single predecessor
          branches here on a relation *)
}

(** The domain-independent part of an evaluation of one SSA-form CFG. *)
type prep = {
  p_cfg : Cfg.t;
  p_dom : Dom.t;
  p_order : int list;  (** reverse postorder of the reachable blocks *)
  p_blocks : block array;
  p_index : (Instr.var, int) Hashtbl.t;
      (** dense numbering of every SSA name the CFG mentions *)
  p_entry : string option array;
      (** per number: the variable's base name if it is an entry version *)
  p_sites : Instr.site array;  (** the CFG's call sites, in order *)
  p_site_pos : (int, int) Hashtbl.t;  (** site id -> position in [p_sites] *)
  p_args : operand option array array;
      (** per site position: each actual's operand, [None] for a whole
          array *)
  p_global_ins : operand SM.t array;
      (** per site position: the incoming operand of every global the
          call may modify *)
}

let negate_rel = function
  | Ast.Req -> Ast.Rne
  | Ast.Rne -> Ast.Req
  | Ast.Rlt -> Ast.Rge
  | Ast.Rge -> Ast.Rlt
  | Ast.Rle -> Ast.Rgt
  | Ast.Rgt -> Ast.Rle

(** The {!prep} of an SSA-form CFG, for any number of {!Make.run}s. *)
let prepare (ssa_cfg : Cfg.t) : prep =
  let vars = Array.of_list (SS.elements (Cfg.all_vars ssa_cfg)) in
  let index = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let operand = function
    | Instr.Oint n -> Lit n
    | Instr.Ovar (v, _) -> Name (Hashtbl.find index v)
  in
  let sites = Array.of_list ssa_cfg.Cfg.sites in
  let site_pos = Hashtbl.create (Array.length sites) in
  Array.iteri
    (fun i (s : Instr.site) -> Hashtbl.replace site_pos s.Instr.site_id i)
    sites;
  let global_ins = Array.make (Array.length sites) SM.empty in
  let rhs = function
    | Instr.Rcopy o -> Val (operand o)
    | Instr.Runop (op, o) -> Unop (op, operand o)
    | Instr.Rbinop (op, a, b) -> Binop (op, operand a, operand b)
    | Instr.Rintrin (i, ops) -> Intrin (i, List.map operand ops)
    | Instr.Rload _ | Instr.Rread -> Untracked
    | Instr.Rresult sid -> Result (Hashtbl.find site_pos sid)
    | Instr.Rcalldef (sid, target, inc) ->
        let k = Hashtbl.find site_pos sid in
        (match target with
        | Instr.Tglobal g ->
            global_ins.(k) <- SM.add g (operand inc) global_ins.(k)
        | Instr.Tformal _ | Instr.Tcaller -> ());
        Calldef (k, target, operand inc)
  in
  let preds = Cfg.preds ssa_cfg in
  let guard bid =
    match preds.(bid) with
    | [ p ] -> (
        match ssa_cfg.Cfg.blocks.(p).Cfg.term with
        | Cfg.Tbranch (Cfg.Crel (op, oa, ob), tb, eb) when tb <> eb ->
            if bid = tb then Some (op, operand oa, operand ob)
            else if bid = eb then Some (negate_rel op, operand oa, operand ob)
            else None
        | _ -> None)
    | _ -> None
  in
  let block (b : Cfg.block) =
    {
      b_phis =
        List.map
          (fun (p : Cfg.phi) ->
            ( Hashtbl.find index p.Cfg.dest,
              List.map (fun (_, v) -> Hashtbl.find index v) p.Cfg.srcs ))
          b.Cfg.phis;
      b_defs =
        List.filter_map
          (function
            | Instr.Idef (x, r, _) -> Some (Hashtbl.find index x, rhs r)
            | Instr.Istore _ | Instr.Icall _ | Instr.Iprint _ -> None)
          b.Cfg.instrs;
      b_guard = guard b.Cfg.bid;
    }
  in
  let blocks = Array.map block ssa_cfg.Cfg.blocks in
  {
    p_cfg = ssa_cfg;
    p_dom = Dom.compute ssa_cfg;
    p_order = Cfg.rev_postorder ssa_cfg;
    p_blocks = blocks;
    p_index = index;
    p_entry =
      Array.map
        (fun v ->
          if Ssa.is_entry_version v then Some (Ssa.base_name v) else None)
        vars;
    p_sites = sites;
    p_site_pos = site_pos;
    p_args =
      Array.map
        (fun (s : Instr.site) ->
          Array.of_list
            (List.map
               (function
                 | Instr.Ascalar (o, _) -> Some (operand o)
                 | Instr.Aarray _ -> None)
               s.Instr.args))
        sites;
    p_global_ins = global_ins;
  }

module Make (D : Ipcp_domains.Domain.S) = struct
  module E = Ipcp_domains.Expreval.Make (D)

  type site_view = {
    sv_site : Instr.site;
    actual : int -> D.t;
        (** abstract value of scalar actual [j] just before the call
            (⊥ for whole-array actuals) *)
    global_at : string -> D.t;
        (** abstract value of a scalar global just before the call *)
  }

  type policy = {
    on_calldef : site_view -> Instr.call_target -> D.t -> D.t;
        (** value of the target after the call; third argument is the
            incoming value *)
    on_result : site_view -> D.t;  (** value of a function call's result *)
  }

  (** Every call kills everything it could address. *)
  let worst_case_policy =
    { on_calldef = (fun _ _ _ -> D.bot); on_result = (fun _ -> D.bot) }

  (** The {!Returnjf.policy} analogue: a call target keeps its incoming
      value when MOD says the callee cannot touch it; otherwise the
      callee's return jump function — a symbolic expression over the
      callee's entry symbols — is folded through the domain's transfer
      functions at the site's actuals. *)
  let returnjf_policy ~(symtab : Symtab.t) ~(modref : Modref.t option)
      ~(rjfs : Returnjf.t) : policy =
    let may_modify (view : site_view) target =
      match modref with
      | None -> true (* no MOD information: worst case *)
      | Some m ->
          Modref.may_modify m ~callee:view.sv_site.Instr.callee target
    in
    let eval_rjf ~(callee_psym : Symtab.proc_sym) ~target ~(view : site_view)
        : D.t =
      let callee = callee_psym.Symtab.proc.Ast.name in
      match Returnjf.find rjfs ~proc:callee ~target with
      | None -> D.bot
      | Some Symeval.Bottom -> D.bot
      | Some Symeval.Top -> D.top (* callee never returns *)
      | Some (Symeval.Sexp e) ->
          let formals = Array.of_list (Symtab.formals callee_psym) in
          let position name =
            let rec go i =
              if i >= Array.length formals then None
              else if formals.(i) = name then Some i
              else go (i + 1)
            in
            go 0
          in
          let support_value name =
            match position name with
            | Some j -> view.actual j
            | None -> view.global_at name
          in
          E.eval support_value e
    in
    let rtarget_of = function
      | Instr.Tformal i -> Returnjf.RFormal i
      | Instr.Tglobal g -> Returnjf.RGlobal g
      | Instr.Tcaller -> assert false
    in
    {
      on_calldef =
        (fun view target incoming ->
          match target with
          | Instr.Tcaller ->
              (* a callee can never modify an unpassed caller scalar, but
                 only MOD information licenses assuming so *)
              if modref <> None then incoming else D.bot
          | _ -> (
              if not (may_modify view target) then incoming
              else
                match
                  Symtab.find_proc symtab view.sv_site.Instr.callee
                with
                | None -> D.bot
                | Some callee_psym ->
                    eval_rjf ~callee_psym ~target:(rtarget_of target) ~view));
      on_result =
        (fun view ->
          match Symtab.find_proc symtab view.sv_site.Instr.callee with
          | None -> D.bot
          | Some callee_psym ->
              eval_rjf ~callee_psym ~target:Returnjf.RResult ~view);
    }

  (* ---------------------------------------------------------------- *)
  (* Engine *)

  type t = {
    index : (Instr.var, int) Hashtbl.t;  (** [prep.p_index] *)
    values : D.t array;  (** per SSA name, by [index] number *)
    cfg : Cfg.t;  (** the SSA-form CFG that was evaluated *)
    site_pos : (int, int) Hashtbl.t;  (** [prep.p_site_pos] *)
    views : site_view array;  (** per call site, by [site_pos] position *)
    refines : (int * D.t) list array;
        (** per block: the branch constraints dominating it, by name
            number *)
    passes : int;  (** fixpoint sweeps until stabilisation *)
  }

  (** Value of an SSA name under this evaluation; ⊤ for a name the CFG
      does not mention. *)
  let value t v =
    match Hashtbl.find t.index v with
    | i -> t.values.(i)
    | exception Not_found -> D.top

  let rec assoc_name i = function
    | [] -> None
    | (j, d) :: rest -> if i = j then Some d else assoc_name i rest

  (** [entry_binding] binds the procedure's entry symbols (scalar formals
      and globals) to abstract values — for the range pipeline, the
      interval VAL set; [None] for a symbol means no information (⊥,
      since unlike Symeval there is no symbolic fallback).  [prep] must
      be [prepare ssa_cfg]; it is computed here when absent. *)
  let run ?(entry_binding = fun (_ : string) -> (None : D.t option)) ?prep
      ~symtab:(_ : Symtab.t) ~(psym : Symtab.proc_sym) ~(policy : policy)
      (ssa_cfg : Cfg.t) : t =
    let prep =
      match prep with
      | None -> prepare ssa_cfg
      | Some p when p.p_cfg == ssa_cfg -> p
      | Some _ -> invalid_arg "Abseval.run: prep of another CFG"
    in
    let is_scalar_entry base =
      match Symtab.var psym base with
      | Some vi when Symtab.is_array vi -> false
      | Some { Symtab.kind = Symtab.Formal _ | Symtab.Global _; _ } -> true
      | _ -> false
    in
    let entry_value base =
      if is_scalar_entry base then
        match entry_binding base with Some v -> v | None -> D.bot
      else
        match SM.find_opt base psym.Symtab.data with
        | Some v -> D.const v (* DATA-initialised local *)
        | None -> D.bot (* locals, temporaries, result: undefined *)
    in
    (* an entry version reads its entry value until defined (never, in
       SSA form); every other name starts at ⊤ *)
    let values =
      Array.map
        (function Some base -> entry_value base | None -> D.top)
        prep.p_entry
    in
    let operand = function Lit n -> D.const n | Name i -> values.(i) in
    let views =
      Array.mapi
        (fun k (s : Instr.site) ->
          let args = prep.p_args.(k) and globals = prep.p_global_ins.(k) in
          {
            sv_site = s;
            actual =
              (fun j ->
                if j < 0 || j >= Array.length args then D.bot
                else
                  match args.(j) with Some o -> operand o | None -> D.bot);
            global_at =
              (fun g ->
                match SM.find_opt g globals with
                | Some o -> operand o
                | None -> D.bot);
          })
        prep.p_sites
    in

    (* refinement environments: per block, the SSA names constrained by
       the branch conditions dominating it *)
    let nblocks = Array.length ssa_cfg.Cfg.blocks in
    let ref_envs : (int * D.t) list array = Array.make nblocks [] in
    let add_constraint env (v, d) =
      match assoc_name v env with
      | Some d0 -> (v, D.join d0 d) :: List.filter (fun (v', _) -> v' <> v) env
      | None -> (v, d) :: env
    in
    let edge_constraints bid =
      match prep.p_blocks.(bid).b_guard with
      | None -> []
      | Some (op, oa, ob) ->
          let va = operand oa and vb = operand ob in
          let va', vb' = D.filter op va vb in
          let keep o v v' =
            match o with
            | Name x when not (D.equal v' v) -> [ (x, v') ]
            | _ -> []
          in
          keep oa va va' @ keep ob vb vb'
    in
    let env_of bid =
      let parent = if bid = 0 then [] else ref_envs.(Dom.idom prep.p_dom bid) in
      List.fold_left add_constraint parent (edge_constraints bid)
    in
    let operand_in env = function
      | Lit n -> D.const n
      | Name i -> (
          let raw = values.(i) in
          match assoc_name i env with Some r -> D.join raw r | None -> raw)
    in
    let steps = ref 0 in
    let eval_rhs env = function
      | Val o -> operand_in env o
      | Unop (op, o) -> D.unop op (operand_in env o)
      | Binop (op, a, b) -> D.binop op (operand_in env a) (operand_in env b)
      | Intrin (i, ops) -> D.intrin i (List.map (operand_in env) ops)
      | Untracked -> D.bot
      | Result k -> policy.on_result views.(k)
      | Calldef (k, target, inc) ->
          policy.on_calldef views.(k) target (operand_in env inc)
    in
    let rec phi_value acc = function
      | [] -> acc
      | src :: rest -> phi_value (D.meet acc values.(src)) rest
    in

    (* one sweep over the blocks in reverse postorder: a descending step
       (widening phis once the pass count shows a chain), or after
       convergence one narrowing step, which re-evaluates each definition
       at the widened fixpoint and lets the domain recover overshot
       borders; downstream blocks in the same sweep already read the
       narrowed values.  Written as plain recursion so that a sweep
       allocates no closures. *)
    let descending = ref true in
    let passes = ref 0 in
    let changed = ref true in
    let set i v =
      values.(i) <- v;
      changed := true
    in
    let rec phis = function
      | [] -> ()
      | (i, srcs) :: rest ->
          let cur = values.(i) in
          let fresh = phi_value D.top srcs in
          (if !descending then begin
             let v = D.meet cur fresh in
             if not (D.equal v cur) then
               set i
                 (if D.finite_height || !passes < widen_start then v
                  else D.widen cur v)
           end
           else
             let n = D.narrow cur fresh in
             if not (D.equal n cur) then set i n);
          phis rest
    in
    let rec defs env = function
      | [] -> ()
      | (i, r) :: rest ->
          incr steps;
          let cur = values.(i) in
          let fresh = eval_rhs env r in
          let v =
            if !descending then D.meet cur fresh else D.narrow cur fresh
          in
          if not (D.equal v cur) then set i v;
          defs env rest
    in
    let rec sweep = function
      | [] -> ()
      | bid :: rest ->
          let b = prep.p_blocks.(bid) in
          let env = env_of bid in
          ref_envs.(bid) <- env;
          phis b.b_phis;
          defs env b.b_defs;
          sweep rest
    in
    while !changed do
      changed := false;
      incr passes;
      sweep prep.p_order
    done;
    if not D.finite_height then begin
      descending := false;
      sweep prep.p_order
    end;
    if Ipcp_obs.Obs.on () then begin
      let module Metrics = Ipcp_obs.Metrics in
      Metrics.incr ("abseval." ^ D.name ^ ".runs");
      Metrics.add ("abseval." ^ D.name ^ ".passes") !passes;
      Metrics.add ("abseval." ^ D.name ^ ".steps") !steps
    end;
    {
      index = prep.p_index;
      values;
      cfg = ssa_cfg;
      site_pos = prep.p_site_pos;
      views;
      refines = ref_envs;
      passes = !passes;
    }

  (** The site view for a given call site of the evaluated procedure. *)
  let site_view t (s : Instr.site) =
    t.views.(Hashtbl.find t.site_pos s.Instr.site_id)

  (** Value of an operand under this evaluation. *)
  let operand_value t = function
    | Instr.Oint n -> D.const n
    | Instr.Ovar (v, _) -> value t v

  (** Value of an operand as read inside block [bid]: the raw value
      refined by the branch constraints dominating that block. *)
  let operand_value_in t bid = function
    | Instr.Oint n -> D.const n
    | Instr.Ovar (v, _) -> (
        match Hashtbl.find t.index v with
        | exception Not_found -> D.top
        | i -> (
            let raw = t.values.(i) in
            match assoc_name i t.refines.(bid) with
            | Some r -> D.join raw r
            | None -> raw))
end
