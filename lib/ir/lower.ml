(** Lowering from the resolved AST to {!Cfg} form.

    Design points (see also {!Instr}):

    - [PARAMETER] named constants are folded into literals here, so they are
      intraprocedural constants but {e not} literal tokens at call sites —
      the literal jump function inspects the {e syntactic} actuals kept in
      the {!Instr.site} record.
    - A call site is followed by explicit [Rcalldef] definitions for every
      by-reference scalar actual and for {e every} COMMON global of the
      program.  Whether such a definition is transparent (the callee cannot
      modify the variable), a return-jump-function value, or opaque is
      decided later by the symbolic evaluator, so a single lowering serves
      all analysis configurations.
    - [DO v = lo, hi [, s]] evaluates [lo] and [hi] once, then behaves as a
      while loop testing [v <= limit] (or [>=] for a negative constant
      step).  The interpreter implements exactly the same semantics.
    - [RETURN] in the main program behaves like [STOP].
    - An array read without a subscript, or a scalar read with one, is a
      [Diag.Lower] error.  {!Sema} rejects both in source; lowering
      checks them again because a source-to-source pass's output is
      lowered against the original symbol table, without {!Sema}. *)

open Ipcp_frontend
open Instr
module B = Cfg.Builder

type env = {
  symtab : Symtab.t;
  psym : Symtab.proc_sym;
  b : B.builder;
  site_counter : int ref;
  globals : string list;  (** program-wide global order *)
}

let err loc fmt = Diag.error Diag.Lower loc fmt

let is_array env name =
  match Symtab.var env.psym name with
  | Some vi -> Symtab.is_array vi
  | None -> false

let const_value env name =
  match Symtab.var env.psym name with
  | Some { Symtab.kind = Symtab.Const v; _ } -> Some v
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec lower_expr env (e : Ast.expr) : operand =
  match e with
  | Ast.Int (n, _) -> Oint n
  | Ast.Var (x, l) -> (
      (* a whole array is an operand only as an actual ({!lower_call}) *)
      match Symtab.var env.psym x with
      | Some { Symtab.kind = Symtab.Const v; _ } -> Oint v
      | Some vi when Symtab.is_array vi ->
          err l "array %s used without a subscript" x
      | _ -> Ovar (x, Some l))
  | _ -> (
      match lower_rhs env e with
      | Rcopy o -> o
      | rhs ->
          let t = B.temp env.b in
          B.emit env.b (Idef (t, rhs, None));
          Ovar (t, None))

(* Lower an expression to a right-hand side, emitting instructions for its
   subexpressions. *)
and lower_rhs env (e : Ast.expr) : rhs =
  match e with
  | Ast.Int _ | Ast.Var _ -> Rcopy (lower_expr env e)
  | Ast.Index (a, i, l) ->
      if not (is_array env a) then
        err l "%s is scalar and cannot be subscripted" a;
      Rload (a, lower_expr env i)
  | Ast.Unop (op, e, _) -> Runop (op, lower_expr env e)
  | Ast.Binop (op, e1, e2, _) ->
      let o1 = lower_expr env e1 in
      let o2 = lower_expr env e2 in
      Rbinop (op, o1, o2)
  | Ast.Intrin (i, args, _) -> Rintrin (i, List.map (lower_expr env) args)
  | Ast.Callf (f, args, l) ->
      let t = lower_call env ~callee:f ~args ~loc:l ~want_result:true in
      Rcopy (Ovar (Option.get t, None))

(* ------------------------------------------------------------------ *)
(* Calls *)

and lower_call env ~callee ~args ~loc ~want_result : var option =
  let lowered =
    List.map
      (fun (a : Ast.expr) ->
        match a with
        | Ast.Var (x, _) when is_array env x -> Aarray x
        | Ast.Var (x, l) when const_value env x = None ->
            Ascalar (Ovar (x, Some l), Some (Avar x))
        | Ast.Index (arr, i, _) ->
            let oi = lower_expr env i in
            let t = B.temp env.b in
            B.emit env.b (Idef (t, Rload (arr, oi), None));
            Ascalar (Ovar (t, None), Some (Aelem (arr, oi)))
        | e -> Ascalar (lower_expr env e, None))
      args
  in
  incr env.site_counter;
  let result = if want_result then Some (B.temp env.b) else None in
  let site =
    {
      site_id = !(env.site_counter);
      caller = env.psym.Symtab.proc.Ast.name;
      callee;
      args = lowered;
      syntactic = args;
      result;
      s_loc = loc;
    }
  in
  B.note_site env.b site;
  B.emit env.b (Icall site);
  Option.iter
    (fun r -> B.emit env.b (Idef (r, Rresult site.site_id, None)))
    result;
  (* may-definitions: by-reference scalar actuals ... *)
  List.iteri
    (fun i a ->
      match a with
      | Ascalar (_, Some (Avar x)) ->
          B.emit env.b
            (Idef (x, Rcalldef (site.site_id, Tformal i, Ovar (x, None)), None))
      | Ascalar (_, Some (Aelem (arr, oi))) ->
          let t = B.temp env.b in
          B.emit env.b
            (Idef (t, Rcalldef (site.site_id, Tformal i, Oint 0), None));
          B.emit env.b (Istore (arr, oi, Ovar (t, None)))
      | Ascalar (_, None) | Aarray _ -> ())
    lowered;
  (* ... every COMMON global of the program ... *)
  List.iter
    (fun g ->
      B.emit env.b
        (Idef (g, Rcalldef (site.site_id, Tglobal g, Ovar (g, None)), None)))
    env.globals;
  (* ... and every other scalar of the caller.  These [Tcaller] defs are
     transparent whenever MOD information is available (a callee can never
     modify an unpassed local); without it they model the worst case. *)
  let addressable =
    List.fold_left
      (fun acc a ->
        match a with
        | Ascalar (_, Some (Avar x)) -> Names.SS.add x acc
        | _ -> acc)
      Names.SS.empty lowered
  in
  Names.SM.iter
    (fun x (vi : Symtab.var_info) ->
      match vi.Symtab.kind with
      | (Symtab.Local | Symtab.Formal _ | Symtab.Result)
        when vi.Symtab.dim = None && not (Names.SS.mem x addressable) ->
          B.emit env.b
            (Idef (x, Rcalldef (site.site_id, Tcaller, Ovar (x, None)), None))
      | _ -> ())
    env.psym.Symtab.vars;
  result

(* ------------------------------------------------------------------ *)
(* Conditions: short-circuit lowering into branch chains *)

and lower_cond env (c : Ast.cond) ~(tblk : Cfg.block) ~(fblk : Cfg.block) =
  match c with
  | Ast.Rel (op, e1, e2) ->
      let o1 = lower_expr env e1 in
      let o2 = lower_expr env e2 in
      B.seal env.b (Cfg.Tbranch (Cfg.Crel (op, o1, o2), tblk.bid, fblk.bid))
  | Ast.And (c1, c2) ->
      let mid = B.fresh_block env.b in
      lower_cond env c1 ~tblk:mid ~fblk;
      B.switch env.b mid;
      lower_cond env c2 ~tblk ~fblk
  | Ast.Or (c1, c2) ->
      let mid = B.fresh_block env.b in
      lower_cond env c1 ~tblk ~fblk:mid;
      B.switch env.b mid;
      lower_cond env c2 ~tblk ~fblk
  | Ast.Not c -> lower_cond env c ~tblk:fblk ~fblk:tblk
  | Ast.Btrue -> B.seal env.b (Cfg.Tjump tblk.bid)
  | Ast.Bfalse -> B.seal env.b (Cfg.Tjump fblk.bid)

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec lower_stmt env (s : Ast.stmt) =
  match s with
  | Ast.Assign (Ast.Lvar (x, l), e, _) ->
      let rhs = lower_rhs env e in
      B.emit env.b (Idef (x, rhs, Some l))
  | Ast.Assign (Ast.Lindex (a, i, _), e, _) ->
      let oi = lower_expr env i in
      let ov = lower_expr env e in
      B.emit env.b (Istore (a, oi, ov))
  | Ast.If (branches, els, _) ->
      let join = B.fresh_block env.b in
      let rec go = function
        | [] ->
            lower_body env els;
            B.seal env.b (Cfg.Tjump join.bid);
            B.switch env.b join
        | (c, body) :: rest ->
            let tb = B.fresh_block env.b in
            let nb = B.fresh_block env.b in
            lower_cond env c ~tblk:tb ~fblk:nb;
            B.switch env.b tb;
            lower_body env body;
            B.seal env.b (Cfg.Tjump join.bid);
            B.switch env.b nb;
            go rest
      in
      go branches
  | Ast.Do (v, lo, hi, step, body, loc) ->
      let s =
        match step with
        | None -> 1
        | Some (Ast.Int (n, _)) -> n
        | Some _ -> err loc "DO step must have been folded by Sema"
      in
      let rlo = lower_rhs env lo in
      B.emit env.b (Idef (v, rlo, None));
      let limit = B.temp env.b in
      let rhi = lower_rhs env hi in
      B.emit env.b (Idef (limit, rhi, None));
      let header = B.fresh_block env.b in
      let bodyb = B.fresh_block env.b in
      let exitb = B.fresh_block env.b in
      B.seal env.b (Cfg.Tjump header.bid);
      B.switch env.b header;
      let relop = if s > 0 then Ast.Rle else Ast.Rge in
      B.seal env.b
        (Cfg.Tbranch
           ( Cfg.Crel (relop, Ovar (v, None), Ovar (limit, None)),
             bodyb.bid,
             exitb.bid ));
      B.switch env.b bodyb;
      lower_body env body;
      B.emit env.b
        (Idef (v, Rbinop (Ast.Add, Ovar (v, None), Oint s), None));
      B.seal env.b (Cfg.Tjump header.bid);
      B.switch env.b exitb
  | Ast.While (c, body, _) ->
      let header = B.fresh_block env.b in
      let bodyb = B.fresh_block env.b in
      let exitb = B.fresh_block env.b in
      B.seal env.b (Cfg.Tjump header.bid);
      B.switch env.b header;
      lower_cond env c ~tblk:bodyb ~fblk:exitb;
      B.switch env.b bodyb;
      lower_body env body;
      B.seal env.b (Cfg.Tjump header.bid);
      B.switch env.b exitb
  | Ast.Call (n, args, l) ->
      ignore (lower_call env ~callee:n ~args ~loc:l ~want_result:false)
  | Ast.Return _ ->
      let term =
        if env.psym.Symtab.proc.Ast.kind = Ast.Main then Cfg.Tstop
        else Cfg.Treturn
      in
      B.seal env.b term;
      B.switch env.b (B.fresh_block env.b)
  | Ast.Stop _ ->
      B.seal env.b Cfg.Tstop;
      B.switch env.b (B.fresh_block env.b)
  | Ast.Print (es, _) ->
      let ops = List.map (lower_expr env) es in
      B.emit env.b (Iprint ops)
  | Ast.Read (lvs, _) ->
      List.iter
        (fun lv ->
          match lv with
          | Ast.Lvar (x, _) -> B.emit env.b (Idef (x, Rread, None))
          | Ast.Lindex (a, i, _) ->
              let oi = lower_expr env i in
              let t = B.temp env.b in
              B.emit env.b (Idef (t, Rread, None));
              B.emit env.b (Istore (a, oi, Ovar (t, None))))
        lvs
  | Ast.Continue _ -> ()

and lower_body env body = List.iter (lower_stmt env) body

(* ------------------------------------------------------------------ *)

(** Lower one procedure.  [site_counter] numbers call sites uniquely across
    the whole program. *)
let lower_proc (symtab : Symtab.t) ~site_counter (psym : Symtab.proc_sym) :
    Cfg.t =
  let b = B.create () in
  let env =
    { symtab; psym; b; site_counter; globals = Symtab.global_names symtab }
  in
  lower_body env psym.Symtab.proc.Ast.body;
  let kind = psym.Symtab.proc.Ast.kind in
  let final_term = if kind = Ast.Main then Cfg.Tstop else Cfg.Treturn in
  B.finish b ~proc_name:psym.Symtab.proc.Ast.name ~kind ~final_term

(** Lower every procedure of the program.  The result maps procedure name to
    its CFG; call sites are numbered in procedure-declaration order. *)
let lower_program (symtab : Symtab.t) : Cfg.t Names.SM.t =
  let site_counter = ref 0 in
  Symtab.fold_procs
    (fun psym acc ->
      let cfg = lower_proc symtab ~site_counter psym in
      Names.SM.add psym.Symtab.proc.Ast.name cfg acc)
    symtab Names.SM.empty

(* ------------------------------------------------------------------ *)
(* Syntactic site counting *)

(* [lower_call] runs (and bumps the site counter) exactly once per [CALL]
   statement or function-call expression, so the number of site ids a
   procedure consumes can be read off its AST.  That lets a parallel
   driver pre-compute each procedure's site-id offset — prefix sums over
   the declaration order — and lower procedures independently while
   reproducing the exact numbering of the sequential walk. *)

let rec count_expr (e : Ast.expr) : int =
  match e with
  | Ast.Int _ | Ast.Var _ -> 0
  | Ast.Index (_, i, _) -> count_expr i
  | Ast.Unop (_, e, _) -> count_expr e
  | Ast.Binop (_, e1, e2, _) -> count_expr e1 + count_expr e2
  | Ast.Intrin (_, args, _) -> count_exprs args
  | Ast.Callf (_, args, _) -> 1 + count_exprs args

and count_exprs es = List.fold_left (fun n e -> n + count_expr e) 0 es

let rec count_cond = function
  | Ast.Rel (_, e1, e2) -> count_expr e1 + count_expr e2
  | Ast.And (c1, c2) | Ast.Or (c1, c2) -> count_cond c1 + count_cond c2
  | Ast.Not c -> count_cond c
  | Ast.Btrue | Ast.Bfalse -> 0

let rec count_stmt (s : Ast.stmt) : int =
  match s with
  | Ast.Assign (Ast.Lvar _, e, _) -> count_expr e
  | Ast.Assign (Ast.Lindex (_, i, _), e, _) -> count_expr i + count_expr e
  | Ast.If (branches, els, _) ->
      List.fold_left
        (fun n (c, body) -> n + count_cond c + count_body body)
        (count_body els) branches
  | Ast.Do (_, lo, hi, step, body, _) ->
      count_expr lo + count_expr hi
      + (match step with Some e -> count_expr e | None -> 0)
      + count_body body
  | Ast.While (c, body, _) -> count_cond c + count_body body
  | Ast.Call (_, args, _) -> 1 + count_exprs args
  | Ast.Print (es, _) -> count_exprs es
  | Ast.Read (lvs, _) ->
      List.fold_left
        (fun n lv ->
          match lv with
          | Ast.Lvar _ -> 0 + n
          | Ast.Lindex (_, i, _) -> count_expr i + n)
        0 lvs
  | Ast.Return _ | Ast.Stop _ | Ast.Continue _ -> 0

and count_body body = List.fold_left (fun n s -> n + count_stmt s) 0 body

(** Number of call-site ids [lower_proc] will consume for [proc]. *)
let count_sites (proc : Ast.proc) : int = count_body proc.Ast.body

(** Each procedure's call-site-id offset: the prefix sums of
    {!count_sites} over [procs], given in declaration order.  Lowering a
    procedure with [~site_counter:(ref off)] reproduces the numbering of
    {!lower_program}. *)
let site_offsets (procs : Ast.proc list) : int list =
  let off = ref 0 in
  List.map
    (fun p ->
      let o = !off in
      off := o + count_sites p;
      o)
    procs

(* ------------------------------------------------------------------ *)
(* Syntactic statement counting *)

let rec size_stmt (s : Ast.stmt) : int =
  match s with
  | Ast.Assign _ | Ast.Call _ | Ast.Print _ | Ast.Read _ | Ast.Return _
  | Ast.Stop _ | Ast.Continue _ ->
      1
  | Ast.If (branches, els, _) ->
      List.fold_left
        (fun n (_, body) -> n + size_body body)
        (1 + size_body els) branches
  | Ast.Do (_, _, _, _, body, _) | Ast.While (_, body, _) ->
      1 + size_body body

and size_body body = List.fold_left (fun n s -> n + size_stmt s) 0 body

(** Statements in [proc], nested bodies included — the pre-lowering work
    estimate the parallel driver hands to the pool as a cost hint. *)
let count_stmts (proc : Ast.proc) : int = size_body proc.Ast.body
