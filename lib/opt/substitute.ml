(** Constant substitution — the paper's effectiveness metric.

    "Optionally, the analyzer can produce a transformed version of the
    original source in which the interprocedural constants are textually
    substituted into the code.  The numbers reported ... count the number
    of constants that this option substituted into each program."
    (Metzger–Stroud measure: it relates directly to code improvement and
    factors out procedure length and modularity.)

    The substitution re-evaluates each procedure with its entry values
    bound to the propagation fixpoint ({!Ipcp_core.Driver.final_eval});
    every {e use} of a scalar variable whose value folds to an integer is
    rewritten to that literal.  Uses are identified by source location —
    the lowering kept the location of every variable occurrence on its
    operand.  Variable actuals at call sites are addresses, not values, and
    are never rewritten. *)

open Ipcp_frontend
open Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Driver = Ipcp_core.Driver
module Symeval = Ipcp_core.Symeval
module Lower = Ipcp_ir.Lower
module Verify = Ipcp_verify.Verify
module Pool = Ipcp_par.Pool

(** Locations of scalar-variable uses whose value is constant, across the
    whole program. *)
let constant_uses (t : Driver.t) : int Loc.Map.t =
  SM.fold
    (fun _ (ev : Symeval.t) acc ->
      let acc = ref acc in
      let add = function
        | Instr.Ovar (v, Some loc) -> (
            match Symeval.is_const (Symeval.value ev v) with
            | Some c -> acc := Loc.Map.add loc c !acc
            | None -> ())
        | _ -> ()
      in
      Cfg.iter_value_operands add ev.Symeval.cfg;
      !acc)
    (Driver.final_evals t) Loc.Map.empty

(* ------------------------------------------------------------------ *)
(* AST rewriting.  [lookup] returns the constant for a use location and is
   also how applied substitutions are counted. *)

type ctx = { lookup : Loc.t -> int option }

(* The rewriters preserve physical sharing: a node none of whose
   children changed is returned as-is, so a procedure with no
   substitutions keeps its original body instead of a fresh copy — most
   procedures substitute nothing, and rebuilding the whole AST roughly
   doubled the program's allocation. *)
let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

let rec rw_expr ctx (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ -> e
  | Ast.Var (_, l) -> (
      match ctx.lookup l with Some c -> Ast.Int (c, l) | None -> e)
  | Ast.Index (a, i, l) ->
      let i' = rw_expr ctx i in
      if i' == i then e else Ast.Index (a, i', l)
  | Ast.Callf (f, args, l) ->
      let args' = map_sharing (rw_arg ctx) args in
      if args' == args then e else Ast.Callf (f, args', l)
  | Ast.Intrin (i, args, l) ->
      let args' = map_sharing (rw_expr ctx) args in
      if args' == args then e else Ast.Intrin (i, args', l)
  | Ast.Unop (op, x, l) ->
      let x' = rw_expr ctx x in
      if x' == x then e else Ast.Unop (op, x', l)
  | Ast.Binop (op, a, b, l) ->
      let a' = rw_expr ctx a in
      let b' = rw_expr ctx b in
      if a' == a && b' == b then e else Ast.Binop (op, a', b', l)

(* a [Var] actual is an address (it may be written through); leave it *)
and rw_arg ctx (e : Ast.expr) : Ast.expr =
  match e with Ast.Var _ -> e | _ -> rw_expr ctx e

let rw_cond ctx (c : Ast.cond) : Ast.cond =
  let rec go c =
    match c with
    | Ast.Rel (op, a, b) ->
        let a' = rw_expr ctx a in
        let b' = rw_expr ctx b in
        if a' == a && b' == b then c else Ast.Rel (op, a', b')
    | Ast.And (a, b) ->
        let a' = go a in
        let b' = go b in
        if a' == a && b' == b then c else Ast.And (a', b')
    | Ast.Or (a, b) ->
        let a' = go a in
        let b' = go b in
        if a' == a && b' == b then c else Ast.Or (a', b')
    | Ast.Not x ->
        let x' = go x in
        if x' == x then c else Ast.Not x'
    | Ast.Btrue | Ast.Bfalse -> c
  in
  go c

let rw_lvalue ctx (lv : Ast.lvalue) : Ast.lvalue =
  match lv with
  | Ast.Lvar _ -> lv
  | Ast.Lindex (a, i, l) ->
      let i' = rw_expr ctx i in
      if i' == i then lv else Ast.Lindex (a, i', l)

let rec rw_stmt ctx (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Assign (lv, e, l) ->
      let lv' = rw_lvalue ctx lv in
      let e' = rw_expr ctx e in
      if lv' == lv && e' == e then s else Ast.Assign (lv', e', l)
  | Ast.If (branches, els, l) ->
      let branches' =
        map_sharing
          (fun ((c, b) as br) ->
            let c' = rw_cond ctx c in
            let b' = rw_stmts ctx b in
            if c' == c && b' == b then br else (c', b'))
          branches
      in
      let els' = rw_stmts ctx els in
      if branches' == branches && els' == els then s
      else Ast.If (branches', els', l)
  | Ast.Do (v, lo, hi, step, body, l) ->
      let lo' = rw_expr ctx lo in
      let hi' = rw_expr ctx hi in
      let body' = rw_stmts ctx body in
      if lo' == lo && hi' == hi && body' == body then s
      else Ast.Do (v, lo', hi', step, body', l)
  | Ast.While (c, body, l) ->
      let c' = rw_cond ctx c in
      let body' = rw_stmts ctx body in
      if c' == c && body' == body then s else Ast.While (c', body', l)
  | Ast.Call (n, args, l) ->
      let args' = map_sharing (rw_arg ctx) args in
      if args' == args then s else Ast.Call (n, args', l)
  | Ast.Print (es, l) ->
      let es' = map_sharing (rw_expr ctx) es in
      if es' == es then s else Ast.Print (es', l)
  | Ast.Read (lvs, l) ->
      let lvs' = map_sharing (rw_lvalue ctx) lvs in
      if lvs' == lvs then s else Ast.Read (lvs', l)
  | Ast.Return _ | Ast.Stop _ | Ast.Continue _ -> s

and rw_stmts ctx b = map_sharing (rw_stmt ctx) b

type result = {
  program : Ast.program;  (** the transformed source *)
  per_proc : int SM.t;  (** constants substituted, per procedure *)
  total : int;
}

(* The rewrite is checked per procedure, against the analysis's symbol
   table: a rewrite turns variable uses into literals and leaves every
   declaration alone.  A procedure the sharing rewriters left physically
   equal to its input is the already-verified original; every other one
   is lowered from its declaration-order site offset and checked as
   {!Verify.check_source} checks a parsed program. *)
let check_rewrite (t : Driver.t) (program : Ast.program) : unit =
  let symtab = t.Driver.symtab in
  let tasks =
    Array.of_list
      (List.filter_map
         (fun ((proc : Ast.proc), off) ->
           let psym = Symtab.proc symtab proc.Ast.name in
           if proc == psym.Symtab.proc then None
           else Some ({ psym with Symtab.proc }, off))
         (List.combine program (Lower.site_offsets program)))
  in
  let costs =
    Array.map
      (fun ((psym : Symtab.proc_sym), _) -> Lower.count_stmts psym.Symtab.proc)
      tasks
  in
  let per =
    Ipcp_obs.Trace.span "substitute:verify" @@ fun () ->
    Pool.map_array
      ~jobs:(max 1 t.Driver.config.Ipcp_core.Config.jobs)
      ~costs ~seq_below:Pool.default_seq_cost
      (fun (psym, off) ->
        Verify.check_proc ~symtab
          (Lower.lower_proc symtab ~site_counter:(ref off) psym))
      tasks
  in
  Verify.expect_ok ~what:"constant substitution"
    (List.concat (Array.to_list per))

let apply (t : Driver.t) : result =
  Ipcp_obs.Trace.span "pass:substitute" @@ fun () ->
  let subs = constant_uses t in
  let per_proc = ref SM.empty in
  let program =
    List.map
      (fun pname ->
        let proc = (Symtab.proc t.Driver.symtab pname).Symtab.proc in
        let cnt = ref 0 in
        let ctx =
          {
            lookup =
              (fun l ->
                match Loc.Map.find_opt l subs with
                | Some c ->
                    incr cnt;
                    Some c
                | None -> None);
          }
        in
        let body = rw_stmts ctx proc.Ast.body in
        per_proc := SM.add pname !cnt !per_proc;
        if body == proc.Ast.body then proc else { proc with Ast.body })
      t.Driver.symtab.Symtab.order
  in
  let total = SM.fold (fun _ c acc -> acc + c) !per_proc 0 in
  Ipcp_obs.Metrics.add "substitute.substituted" total;
  (* [total = 0] means the sharing rewriters changed nothing: the
     program is element-wise the already-checked input, so there is
     nothing new to verify *)
  if total > 0 && t.Driver.config.Ipcp_core.Config.verify_ir then
    check_rewrite t program;
  { program; per_proc = !per_proc; total }

(** Just the count (the number every table of the paper reports). *)
let count t = (apply t).total
