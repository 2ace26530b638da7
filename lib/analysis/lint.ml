(** Interprocedural lints: user-facing diagnostics powered by the
    propagation fixpoint.

    The 1986 framework computes, for every procedure, the set of
    parameters that are constant on entry; this module turns those
    lattice facts (plus the call graph and SSA form the driver already
    built) into findings a programmer can act on:

    - [IPCP-E001] division (or [MOD]) whose divisor is a propagated
      constant zero — a guaranteed runtime fault if the site executes;
    - [IPCP-E002] constant array subscript outside the declared bounds;
    - [IPCP-W003] a branch or loop condition that folds to a constant
      (always true / always false) under the propagated constants;
    - [IPCP-W004] a procedure unreachable from the program entry in the
      call graph;
    - [IPCP-W005] a formal parameter the procedure never references;
    - [IPCP-W006] a use of a local variable with no reaching definition
      (it reads the undefined entry value on {e every} path);
    - [IPCP-I007] a formal parameter with the same constant value at
      every call site — a candidate for specialisation or an API smell;
    - [IPCP-W008] a DO loop whose trip count is a propagated constant
      (range facts only);
    - [IPCP-W009] a source assignment whose stored value is never used
      (dead store, from the framework's backward liveness instance).

    Error-level findings are only reported in code not behind a
    condition that itself folds to false, so a definite [IPCP-E001]
    agrees with the interpreter's runtime faults (see the differential
    property test).

    When the interval facts of [Ranges] are supplied, the fault checks
    also consult them: a divisor or subscript the constant lattice left
    unknown can still be {e proved} faulting (range excludes every legal
    value) or safe (range within the legal values), conditions decide
    through range comparison, and every E001/E002 candidate site gets a
    {!verdict}.  Without ranges the output is byte-identical to the
    historical engine. *)

open Ipcp_frontend
open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Driver = Ipcp_core.Driver
module Ranges = Ipcp_core.Ranges
module Live = Ipcp_dataflow.Live
module Substitute = Ipcp_opt.Substitute
module Severity = Diag.Severity
module I = Ipcp_domains.Interval

(* ------------------------------------------------------------------ *)
(* Checks *)

type check =
  | Div_by_zero
  | Subscript_bounds
  | Const_condition
  | Unreachable_proc
  | Dead_formal
  | Undefined_use
  | Const_formal
  | Const_trip
  | Dead_store

let all_checks =
  [
    Div_by_zero;
    Subscript_bounds;
    Const_condition;
    Unreachable_proc;
    Dead_formal;
    Undefined_use;
    Const_formal;
    Const_trip;
    Dead_store;
  ]

let id = function
  | Div_by_zero -> "IPCP-E001"
  | Subscript_bounds -> "IPCP-E002"
  | Const_condition -> "IPCP-W003"
  | Unreachable_proc -> "IPCP-W004"
  | Dead_formal -> "IPCP-W005"
  | Undefined_use -> "IPCP-W006"
  | Const_formal -> "IPCP-I007"
  | Const_trip -> "IPCP-W008"
  | Dead_store -> "IPCP-W009"

let check_of_id s =
  List.find_opt (fun c -> String.equal (id c) (String.uppercase_ascii s)) all_checks

let severity = function
  | Div_by_zero | Subscript_bounds -> Severity.Error
  | Const_condition | Unreachable_proc | Dead_formal | Undefined_use
  | Const_trip | Dead_store ->
      Severity.Warning
  | Const_formal -> Severity.Info

let describe = function
  | Div_by_zero -> "division or MOD by a propagated constant zero"
  | Subscript_bounds -> "constant array subscript outside the declared bounds"
  | Const_condition -> "branch or loop condition that is always true or false"
  | Unreachable_proc -> "procedure unreachable from the program entry"
  | Dead_formal -> "formal parameter never referenced by the procedure"
  | Undefined_use -> "use of a variable with no reaching definition"
  | Const_formal -> "formal parameter constant at every call site"
  | Const_trip -> "DO loop whose trip count is a propagated constant"
  | Dead_store -> "assignment whose stored value is never used"

(** What the interval facts prove about a finding's site: the flagged
    behaviour occurs on every execution reaching it ([Proved_fault]),
    on none ([Proved_safe], no finding emitted), or the ranges cannot
    decide.  [f_verdict = None] on findings produced without range
    facts, keeping the historical rendering byte-identical. *)
type verdict = Proved_safe | Proved_fault | Unknown

let verdict_name = function
  | Proved_safe -> "proved-safe"
  | Proved_fault -> "proved-fault"
  | Unknown -> "unknown"

type finding = {
  f_check : check;
  f_loc : Loc.t;
  f_proc : string;  (** enclosing procedure *)
  f_msg : string;
  f_verdict : verdict option;  (** range-fact judgement; [None] w/o ranges *)
}

let finding_severity f = severity f.f_check

let pp_finding ppf f =
  Fmt.pf ppf "%a: %a[%s]: %s%s" Loc.pp f.f_loc Severity.pp (finding_severity f)
    (id f.f_check) f.f_msg
    (match f.f_verdict with
    | None -> ""
    | Some v -> Fmt.str " [%s]" (verdict_name v))

(* ------------------------------------------------------------------ *)
(* Constant folding over the propagated facts.  [cu] maps the source
   location of every scalar-variable use whose value the interprocedural
   analysis proved constant to that constant (the substitution pass's
   map); PARAMETER constants fold via the symbol table. *)

let const_of cu (psym : Symtab.proc_sym) (e : Ast.expr) : int option =
  let rec go e =
    match e with
    | Ast.Int (n, _) -> Some n
    | Ast.Var (x, l) -> (
        match Loc.Map.find_opt l cu with
        | Some c -> Some c
        | None -> (
            match Symtab.var psym x with
            | Some { Symtab.kind = Symtab.Const c; _ } -> Some c
            | _ -> None))
    | Ast.Unop (Ast.Neg, e, _) -> Option.map (fun v -> -v) (go e)
    | Ast.Binop (op, a, b, _) -> (
        match (go a, go b) with
        | Some x, Some y -> Ast.eval_binop op x y
        | _ -> None)
    | Ast.Intrin (i, args, _) ->
        let cs = List.map go args in
        if List.for_all Option.is_some cs then
          Ast.eval_intrin i (List.map Option.get cs)
        else None
    | Ast.Index _ | Ast.Callf _ -> None
  in
  go e

(* Range folding over the interval facts, the mirror of [const_of]: the
   located-use map gives variable ranges, everything else goes through
   the interval transfer functions.  Unknown leaves are ⊥ = [-∞, +∞]. *)
let range_of rf (psym : Symtab.proc_sym) (e : Ast.expr) : I.t =
  let rec go e =
    match e with
    | Ast.Int (n, _) -> I.const n
    | Ast.Var (x, l) -> (
        match Loc.Map.find_opt l rf with
        | Some r -> r
        | None -> (
            match Symtab.var psym x with
            | Some { Symtab.kind = Symtab.Const c; _ } -> I.const c
            | _ -> I.bot))
    | Ast.Unop (op, e, _) -> I.unop op (go e)
    | Ast.Binop (op, a, b, _) -> I.binop op (go a) (go b)
    | Ast.Intrin (i, args, _) -> I.intrin i (List.map go args)
    | Ast.Index _ | Ast.Callf _ -> I.bot
  in
  go e

let negate_rel = function
  | Ast.Req -> Ast.Rne
  | Ast.Rne -> Ast.Req
  | Ast.Rlt -> Ast.Rge
  | Ast.Rle -> Ast.Rgt
  | Ast.Rgt -> Ast.Rle
  | Ast.Rge -> Ast.Rlt

(* Decide a relation by ranges: the relation never holds iff filtering by
   it leaves an empty (⊤) range, always holds iff its negation does.  ⊤
   operands mean the site is unreached — no decision. *)
let rel_by_ranges er op a b : bool option =
  let ra = er a and rb = er b in
  match (ra, rb) with
  | I.Top, _ | _, I.Top -> None
  | _ ->
      let never o =
        match I.filter o ra rb with I.Top, _ | _, I.Top -> true | _ -> false
      in
      if never op then Some false
      else if never (negate_rel op) then Some true
      else None

(** Short-circuit evaluation of a condition over the constant facts,
    falling back on range comparison when [er] is supplied. *)
let cond_const ?er cu psym (c : Ast.cond) : bool option =
  let ec = const_of cu psym in
  let rec go = function
    | Ast.Rel (op, a, b) -> (
        match (ec a, ec b) with
        | Some x, Some y -> Some (Ast.eval_relop op x y)
        | _ -> Option.bind er (fun er -> rel_by_ranges er op a b))
    | Ast.And (a, b) -> (
        match go a with
        | Some false -> Some false
        | Some true -> go b
        | None -> ( match go b with Some false -> Some false | _ -> None))
    | Ast.Or (a, b) -> (
        match go a with
        | Some true -> Some true
        | Some false -> go b
        | None -> ( match go b with Some true -> Some true | _ -> None))
    | Ast.Not c -> Option.map not (go c)
    | Ast.Btrue -> Some true
    | Ast.Bfalse -> Some false
  in
  go c

(** A representative location inside a condition (the leftmost relation
    operand), for anchoring constant-condition findings. *)
let rec cond_loc = function
  | Ast.Rel (_, a, _) -> Some (Ast.expr_loc a)
  | Ast.And (a, b) | Ast.Or (a, b) -> (
      match cond_loc a with Some l -> Some l | None -> cond_loc b)
  | Ast.Not c -> cond_loc c
  | Ast.Btrue | Ast.Bfalse -> None

(* ------------------------------------------------------------------ *)
(* The per-procedure AST walk: E001 / E002 / W003 (and W008 when range
   facts are present).

   [reachable] is threaded through the walk and cleared inside branches
   whose condition folds to false (and arms following an always-true
   arm): error-level findings are only emitted for reachable code, so
   they are definite.

   [rf] is the optional location-keyed interval-fact map.  Every
   reachable E001/E002 candidate site then gets a verdict (reported
   through [tally]); sites the constant lattice left undecided can be
   proved faulting by their range and produce new findings.  [rf = None]
   reproduces the historical walk exactly. *)

let walk_proc ~add ~cu ~rf ~tally ~psym (proc : Ast.proc) =
  let ec = const_of cu psym in
  let er = Option.map (fun facts -> range_of facts psym) rf in
  (* verdict attached to findings: None without ranges *)
  let proved = Option.map (fun _ -> Proved_fault) er in
  let check_div ~reachable divisor ctx =
    if reachable then
      match ec divisor with
      | Some 0 ->
          tally Proved_fault;
          add ?verdict:proved Div_by_zero (Ast.expr_loc divisor)
            (Fmt.str "%s by zero: the divisor is the constant 0" ctx)
      | Some _ -> tally Proved_safe
      | None -> (
          match er with
          | None -> ()
          | Some er -> (
              match er divisor with
              | I.Top -> tally Proved_safe (* unreached: never executes *)
              | r when I.is_const r = Some 0 ->
                  tally Proved_fault;
                  add ?verdict:(Some Proved_fault) Div_by_zero
                    (Ast.expr_loc divisor)
                    (Fmt.str "%s by zero: the divisor's range is exactly 0"
                       ctx)
              | r when I.disjoint r ~lo:0 ~hi:0 -> tally Proved_safe
              | _ -> tally Unknown))
  in
  let check_subscript ~reachable arr idx =
    match Symtab.var psym arr with
    | Some { Symtab.dim = Some n; _ } when reachable -> (
        match ec idx with
        | Some i when i < 1 || i > n ->
            tally Proved_fault;
            add ?verdict:proved Subscript_bounds (Ast.expr_loc idx)
              (Fmt.str "subscript %d out of bounds for %s(%d)" i arr n)
        | Some _ -> tally Proved_safe
        | None -> (
            match er with
            | None -> ()
            | Some er -> (
                match er idx with
                | I.Top -> tally Proved_safe (* unreached: never executes *)
                | r when I.disjoint r ~lo:1 ~hi:n ->
                    tally Proved_fault;
                    add ?verdict:(Some Proved_fault) Subscript_bounds
                      (Ast.expr_loc idx)
                      (Fmt.str "subscript range %s out of bounds for %s(%d)"
                         (I.to_string r) arr n)
                | r when I.within r ~lo:1 ~hi:n -> tally Proved_safe
                | _ -> tally Unknown)))
    | _ -> ()
  in
  let rec expr ~reachable e =
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Index (a, i, _) ->
        check_subscript ~reachable a i;
        expr ~reachable i
    | Ast.Callf (_, args, _) -> List.iter (expr ~reachable) args
    | Ast.Intrin (i, args, _) ->
        (match (i, args) with
        | Ast.Imod, [ _; b ] -> check_div ~reachable b "MOD"
        | _ -> ());
        List.iter (expr ~reachable) args
    | Ast.Unop (_, e, _) -> expr ~reachable e
    | Ast.Binop (op, a, b, _) ->
        if op = Ast.Div then check_div ~reachable b "division";
        expr ~reachable a;
        expr ~reachable b
  in
  let rec cond ~reachable = function
    | Ast.Rel (_, a, b) ->
        expr ~reachable a;
        expr ~reachable b
    | Ast.And (a, b) | Ast.Or (a, b) ->
        cond ~reachable a;
        cond ~reachable b
    | Ast.Not c -> cond ~reachable c
    | Ast.Btrue | Ast.Bfalse -> ()
  in
  let lvalue ~reachable = function
    | Ast.Lvar _ -> ()
    | Ast.Lindex (a, i, _) ->
        check_subscript ~reachable a i;
        expr ~reachable i
  in
  let flag_const_cond ~reachable c value default_loc what =
    if reachable then
      add ?verdict:proved Const_condition
        (Option.value ~default:default_loc (cond_loc c))
        (Fmt.str "%s is always %s" what
           (if value then ".TRUE." else ".FALSE."))
  in
  let rec stmts ~reachable body = List.iter (stmt ~reachable) body
  and stmt ~reachable s =
    match s with
    | Ast.Assign (lv, e, _) ->
        lvalue ~reachable lv;
        expr ~reachable e
    | Ast.If (branches, els, loc) ->
        (* arms after an always-true arm (and the ELSE) are unreachable *)
        let rec arms ~reachable = function
          | [] -> stmts ~reachable els
          | (c, body) :: rest -> (
              cond ~reachable c;
              match cond_const ?er cu psym c with
              | Some true ->
                  flag_const_cond ~reachable c true loc "branch condition";
                  stmts ~reachable body;
                  arms ~reachable:false rest
              | Some false ->
                  flag_const_cond ~reachable c false loc "branch condition";
                  stmts ~reachable:false body;
                  arms ~reachable rest
              | None ->
                  stmts ~reachable body;
                  arms ~reachable rest)
        in
        arms ~reachable branches
    | Ast.Do (_, lo, hi, step, body, loc) ->
        expr ~reachable lo;
        expr ~reachable hi;
        Option.iter (expr ~reachable) step;
        (* W008: all three loop parameters have singleton ranges, and at
           least one is not a literal (literal-bound loops are trivially
           constant-trip and not worth flagging) *)
        let syntactic_const = function
          | Ast.Int _ | Ast.Unop (Ast.Neg, Ast.Int _, _) -> true
          | _ -> false
        in
        let all_literal =
          syntactic_const lo && syntactic_const hi
          && match step with None -> true | Some s -> syntactic_const s
        in
        (match er with
        | Some er when reachable && not all_literal -> (
            let rs =
              match step with Some s -> er s | None -> I.const 1
            in
            match (I.is_const (er lo), I.is_const (er hi), I.is_const rs)
            with
            | Some l, Some h, Some st when st <> 0 ->
                let trips =
                  if st > 0 then if l > h then 0 else ((h - l) / st) + 1
                  else if l < h then 0
                  else ((l - h) / -st) + 1
                in
                add ?verdict:None Const_trip loc
                  (Fmt.str
                     "DO loop trip count is the constant %d (%d to %d \
                      step %d)"
                     trips l h st)
            | _ -> ())
        | _ -> ());
        (* a constant zero-trip loop never runs its body *)
        let body_reachable =
          match (ec lo, ec hi, Option.map ec step) with
          | Some l, Some h, (None | Some (Some _)) ->
              let st =
                match Option.map ec step with
                | Some (Some s) -> s
                | _ -> 1
              in
              reachable && (if st >= 0 then l <= h else l >= h)
          | _ -> reachable
        in
        stmts ~reachable:body_reachable body
    | Ast.While (c, body, loc) ->
        cond ~reachable c;
        (match cond_const ?er cu psym c with
        | Some v ->
            flag_const_cond ~reachable c v loc "loop condition";
            stmts ~reachable:(reachable && v) body
        | None -> stmts ~reachable body)
    | Ast.Call (_, args, _) -> List.iter (expr ~reachable) args
    | Ast.Print (es, _) -> List.iter (expr ~reachable) es
    | Ast.Read (lvs, _) -> List.iter (lvalue ~reachable) lvs
    | Ast.Return _ | Ast.Stop _ | Ast.Continue _ -> ()
  in
  stmts ~reachable:true proc.Ast.body

(* ------------------------------------------------------------------ *)
(* Whole-CFG name census, for dead-formal detection.  [Cfg.all_vars]
   covers scalar defs and uses; arrays and by-reference addresses are
   referenced by name on loads, stores and call arguments. *)

let referenced_names (cfg : Cfg.t) : SS.t =
  let acc = ref (Cfg.all_vars cfg) in
  let add n = acc := SS.add n !acc in
  Cfg.iter_instrs
    (fun _ i ->
      match i with
      | Instr.Idef (_, Instr.Rload (a, _), _) -> add a
      | Instr.Istore (a, _, _) -> add a
      | Instr.Icall s ->
          List.iter
            (function
              | Instr.Ascalar (_, Some (Instr.Avar v)) -> add v
              | Instr.Ascalar (_, Some (Instr.Aelem (a, _))) -> add a
              | Instr.Aarray a -> add a
              | Instr.Ascalar (_, None) -> ())
            s.Instr.args
      | _ -> ())
    cfg;
  !acc

(* ------------------------------------------------------------------ *)
(* The engine *)

(** Verdict counts over the reachable E001/E002 candidate sites, only
    meaningful when range facts were supplied (all zero otherwise). *)
type verdict_totals = { n_safe : int; n_fault : int; n_unknown : int }

let no_verdicts = { n_safe = 0; n_fault = 0; n_unknown = 0 }

let run_with_verdicts ?(enabled = fun _ -> true) ?ranges (t : Driver.t) :
    finding list * verdict_totals =
  let symtab = t.Driver.symtab in
  let cu = Substitute.constant_uses t in
  let rf = Option.map (fun (r : Ranges.t) -> r.Ranges.facts) ranges in
  let reachable_procs = Callgraph.reachable_from_main t.Driver.cg in
  let findings = ref [] in
  let totals = ref no_verdicts in
  let tally =
    match rf with
    | None -> fun _ -> ()
    | Some _ -> (
        fun v ->
          let c = !totals in
          totals :=
            (match v with
            | Proved_safe -> { c with n_safe = c.n_safe + 1 }
            | Proved_fault -> { c with n_fault = c.n_fault + 1 }
            | Unknown -> { c with n_unknown = c.n_unknown + 1 }))
  in
  let add_in proc ?verdict check loc msg =
    if enabled check then
      findings :=
        {
          f_check = check;
          f_loc = loc;
          f_proc = proc;
          f_msg = msg;
          f_verdict = verdict;
        }
        :: !findings
  in
  List.iter
    (fun p ->
      let psym = Symtab.proc symtab p in
      let proc = psym.Symtab.proc in
      let add = add_in p in
      let is_main = String.equal p symtab.Symtab.main in
      (* W004: unreachable procedure *)
      if (not is_main) && not (SS.mem p reachable_procs) then
        add Unreachable_proc proc.Ast.loc
          (Fmt.str "procedure %s is never called (unreachable from %s)" p
             symtab.Symtab.main);
      (* W005: formals never referenced *)
      let referenced = referenced_names (SM.find p t.Driver.cfgs) in
      List.iteri
        (fun i f ->
          if not (SS.mem f referenced) then
            add Dead_formal proc.Ast.loc
              (Fmt.str "formal parameter %s (position %d) is never referenced"
                 f (i + 1)))
        (Symtab.formals psym);
      (* I007: formals constant at every call site *)
      if (not is_main) && SS.mem p reachable_procs then
        SM.iter
          (fun name c ->
            if Symtab.is_formal psym name then
              add Const_formal proc.Ast.loc
                (Fmt.str
                   "formal parameter %s is the constant %d at every call site"
                   name c))
          (Driver.constants t p);
      (* W006: uses of the undefined entry value of a local *)
      let conv = SM.find p t.Driver.convs in
      Cfg.iter_value_operands
        (function
          | Instr.Ovar (v, Some l) when Ssa.version v = 0 -> (
              let base = Ssa.base_name v in
              match Symtab.var psym base with
              | Some { Symtab.kind = Symtab.Local; _ }
                when not (SM.mem base psym.Symtab.data) ->
                  add Undefined_use l
                    (Fmt.str "%s is used but never defined on any path" base)
              | Some { Symtab.kind = Symtab.Result; _ } ->
                  add Undefined_use l
                    (Fmt.str
                       "function result %s is read before it is assigned" base)
              | _ -> ())
          | _ -> ())
        conv.Ssa.ssa;
      (* E001 / E002 / W003 (/ W008): the AST walk over the facts *)
      walk_proc ~add ~cu ~rf ~tally ~psym proc)
    symtab.Symtab.order;
  (* W009: source assignments whose stored value is dead (liveness over
     the lowered CFG, computed by the generic engine's backward instance) *)
  List.iter
    (fun (p, v, loc) ->
      add_in p Dead_store loc
        (Fmt.str "value assigned to %s is never used" v))
    (Live.dead_stores t.Driver.cfgs
       (Live.all t.Driver.symtab t.Driver.cfgs));
  ( List.sort
      (fun a b ->
        match Loc.compare a.f_loc b.f_loc with
        | 0 -> compare (id a.f_check) (id b.f_check)
        | n -> n)
      (List.rev !findings),
    !totals )

let run ?enabled ?ranges (t : Driver.t) : finding list =
  fst (run_with_verdicts ?enabled ?ranges t)

(* ------------------------------------------------------------------ *)
(* Summaries and rendering *)

(** (errors, warnings, infos). *)
let summary (fs : finding list) : int * int * int =
  List.fold_left
    (fun (e, w, i) f ->
      match finding_severity f with
      | Severity.Error -> (e + 1, w, i)
      | Severity.Warning -> (e, w + 1, i)
      | Severity.Info -> (e, w, i + 1))
    (0, 0, 0) fs

let render_text (fs : finding list) : string =
  Fmt.str "%a"
    Fmt.(list ~sep:(any "@.") pp_finding)
    fs
  ^ if fs = [] then "" else "\n"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_json f =
  Fmt.str
    "{\"check\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"procedure\":\"%s\",\"message\":\"%s\"%s}"
    (id f.f_check)
    (Severity.name (finding_severity f))
    (json_escape f.f_loc.Loc.file)
    f.f_loc.Loc.line f.f_loc.Loc.col (json_escape f.f_proc)
    (json_escape f.f_msg)
    (match f.f_verdict with
    | None -> ""
    | Some v -> Fmt.str ",\"verdict\":\"%s\"" (verdict_name v))

let render_json ?verdicts (fs : finding list) : string =
  let e, w, i = summary fs in
  let vjson =
    match verdicts with
    | None -> ""
    | Some v ->
        Fmt.str
          ",\"verdicts\":{\"proved_safe\":%d,\"proved_fault\":%d,\"unknown\":%d}"
          v.n_safe v.n_fault v.n_unknown
  in
  Fmt.str
    "{\"findings\":[%s],\"summary\":{\"errors\":%d,\"warnings\":%d,\"infos\":%d}%s}"
    (String.concat "," (List.map finding_json fs))
    e w i vjson
