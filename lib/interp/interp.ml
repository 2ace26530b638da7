(** A reference interpreter for MiniFortran.

    The interpreter is the analyses' ground truth: the keystone property
    test runs random programs and checks that every (variable, value) pair
    the analyzer puts in CONSTANTS(p) actually holds at {e every} dynamic
    entry to p.  To that end the interpreter records an {e entry trace}: at
    each procedure entry it snapshots the values of all scalar formals and
    globals.

    Semantics notes (deliberately identical to {!Ipcp_ir.Lower}):

    - parameters are passed by reference when the actual is a variable or
      an array element, by value (copy-in, no copy-out) otherwise;
    - [DO v = lo, hi [, s]] evaluates [lo]/[hi] once and iterates while
      [v <= limit] ([>=] for negative constant step);
    - [.AND.]/[.OR.] short-circuit;
    - an {e undefined} variable read yields a fresh pseudo-random value
      (drawn from a seeded generator and then stored, so later reads agree).
      This models FORTRAN's "undefined" and lets the soundness property
      catch an analyzer that calls an uninitialised value constant;
    - [RETURN] in the main program behaves like [STOP];
    - faults (division by zero, bad subscript, READ past end of input) stop
      execution with a [Fault] whose message is prefixed with the source
      location of the faulting statement; the entry trace collected so far
      remains valid. *)

open Ipcp_frontend
open Names

type cell = { mutable v : int option }

type binding = Scalar of cell | Arr of cell array

type status = Completed | Stopped | Out_of_fuel | Fault of string

type entry_snapshot = {
  e_proc : string;
  e_vals : (string * int option) list;  (** scalar formals, then globals *)
}

type result = {
  output : int list;
  trace : entry_snapshot list;
  status : status;
  steps_used : int;
}

exception Return_exc

exception Stop_exc

exception Fault_exc of string

exception Fuel_exc

type state = {
  symtab : Symtab.t;
  globals : binding SM.t;
  mutable input : int list;
  mutable rev_output : int list;
  mutable rev_trace : entry_snapshot list;
  rng : Random.State.t;
  mutable fuel : int;
  fuel0 : int;
  mutable at : Loc.t;
      (** location of the statement being executed, so a fault can name
          the source line it arose on *)
  observe : Loc.t -> int -> unit;
      (** called at every located scalar-variable read with the value it
          yields — the probe behind the range-soundness property test *)
}

let fault fmt = Format.kasprintf (fun m -> raise (Fault_exc m)) fmt

let fresh_cell () = { v = None }

(* reading an undefined cell materialises a random value *)
let read_cell st c =
  match c.v with
  | Some v -> v
  | None ->
      let v = Random.State.int st.rng 2_000_001 - 1_000_000 in
      c.v <- Some v;
      v

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Fuel_exc

(* ------------------------------------------------------------------ *)
(* Frames *)

type frame = { bindings : binding SM.t; psym : Symtab.proc_sym }

let binding frame st name =
  match SM.find_opt name frame.bindings with
  | Some b -> b
  | None -> (
      match SM.find_opt name st.globals with
      | Some b -> b
      | None -> fault "unbound variable %s" name)

let scalar_cell frame st name =
  match binding frame st name with
  | Scalar c -> c
  | Arr _ -> fault "%s is an array, scalar expected" name

let array_cells frame st name =
  match binding frame st name with
  | Arr a -> a
  | Scalar _ -> fault "%s is scalar, array expected" name

let elem_cell frame st name idx =
  let a = array_cells frame st name in
  if idx < 1 || idx > Array.length a then
    fault "subscript %d out of bounds for %s(%d)" idx name (Array.length a)
  else a.(idx - 1)

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let rec eval_expr st frame (e : Ast.expr) : int =
  match e with
  | Ast.Int (n, _) -> n
  | Ast.Var (x, l) ->
      let v =
        match Symtab.var frame.psym x with
        | Some { Symtab.kind = Symtab.Const v; _ } -> v
        | _ -> read_cell st (scalar_cell frame st x)
      in
      st.observe l v;
      v
  | Ast.Index (a, i, _) ->
      let idx = eval_expr st frame i in
      read_cell st (elem_cell frame st a idx)
  | Ast.Callf (f, args, _) -> call_proc st frame f args ~want_result:true
  | Ast.Intrin (i, args, _) -> (
      let vs = List.map (eval_expr st frame) args in
      match Ast.eval_intrin i vs with
      | Some v -> v
      | None -> fault "intrinsic %s faulted" (Ast.intrinsic_name i))
  | Ast.Unop (op, e, _) -> Ast.eval_unop op (eval_expr st frame e)
  | Ast.Binop (op, a, b, _) -> (
      let va = eval_expr st frame a in
      let vb = eval_expr st frame b in
      match Ast.eval_binop op va vb with
      | Some v -> v
      | None -> fault "division by zero")

and eval_cond st frame (c : Ast.cond) : bool =
  match c with
  | Ast.Rel (op, a, b) ->
      (* left operand first, as the lowering evaluates it *)
      let va = eval_expr st frame a in
      let vb = eval_expr st frame b in
      Ast.eval_relop op va vb
  | Ast.And (a, b) -> eval_cond st frame a && eval_cond st frame b
  | Ast.Or (a, b) -> eval_cond st frame a || eval_cond st frame b
  | Ast.Not c -> not (eval_cond st frame c)
  | Ast.Btrue -> true
  | Ast.Bfalse -> false

(* ------------------------------------------------------------------ *)
(* Calls *)

and call_proc st frame callee args ~want_result : int =
  let cpsym =
    match Symtab.find_proc st.symtab callee with
    | Some p -> p
    | None -> fault "call to unknown procedure %s" callee
  in
  let formals = Symtab.formals cpsym in
  if List.length formals <> List.length args then
    fault "arity mismatch calling %s" callee;
  (* bind actuals left-to-right *)
  let bound =
    List.map2
      (fun formal (actual : Ast.expr) ->
        let formal_info = Symtab.var_exn cpsym formal in
        if Symtab.is_array formal_info then
          match actual with
          | Ast.Var (a, _) -> (formal, Arr (array_cells frame st a))
          | _ -> fault "array actual expected for %s.%s" callee formal
        else
          match actual with
          | Ast.Var (x, _) when
              (match Symtab.var frame.psym x with
              | Some { Symtab.kind = Symtab.Const _; _ } -> false
              | Some vi -> not (Symtab.is_array vi)
              | None -> false) ->
              (formal, Scalar (scalar_cell frame st x))
          | Ast.Index (a, i, _) ->
              let idx = eval_expr st frame i in
              (formal, Scalar (elem_cell frame st a idx))
          | e ->
              (formal, Scalar { v = Some (eval_expr st frame e) }))
      formals args
  in
  (* locals, result variable, data-initialised main locals *)
  let bindings =
    SM.fold
      (fun name (vi : Symtab.var_info) acc ->
        match vi.Symtab.kind with
        | Symtab.Local | Symtab.Result ->
            let b =
              match vi.Symtab.dim with
              | Some n -> Arr (Array.init n (fun _ -> fresh_cell ()))
              | None ->
                  Scalar
                    {
                      v = SM.find_opt name cpsym.Symtab.data;
                    }
            in
            SM.add name b acc
        | _ -> acc)
      cpsym.Symtab.vars SM.empty
  in
  let bindings =
    List.fold_left (fun acc (f, b) -> SM.add f b acc) bindings bound
  in
  let cframe = { bindings; psym = cpsym } in
  record_entry st cframe;
  let at = st.at in
  (try exec_body st cframe cpsym.Symtab.proc.Ast.body
   with Return_exc -> ());
  (* the rest of the calling statement faults at the caller's line *)
  st.at <- at;
  if want_result then
    read_cell st (scalar_cell cframe st callee)
  else 0

and record_entry st frame =
  let psym = frame.psym in
  let peek name =
    match SM.find_opt name frame.bindings with
    | Some (Scalar c) -> Some (name, c.v)
    | _ -> (
        match SM.find_opt name st.globals with
        | Some (Scalar c) -> Some (name, c.v)
        | _ -> None)
  in
  let formal_vals = List.filter_map peek (Symtab.formals psym) in
  let global_vals =
    List.filter_map
      (fun g ->
        match SM.find_opt g st.globals with
        | Some (Scalar c) -> Some (g, c.v)
        | _ -> None)
      (Symtab.global_names st.symtab)
  in
  st.rev_trace <-
    { e_proc = psym.Symtab.proc.Ast.name; e_vals = formal_vals @ global_vals }
    :: st.rev_trace

(* ------------------------------------------------------------------ *)
(* Statements *)

and exec_body st frame body = List.iter (exec_stmt st frame) body

and exec_stmt st frame (s : Ast.stmt) =
  tick st;
  st.at <- Ast.stmt_loc s;
  match s with
  | Ast.Assign (lv, e, _) ->
      let v = eval_expr st frame e in
      let c = lvalue_cell st frame lv in
      c.v <- Some v
  | Ast.If (branches, els, _) ->
      let rec go = function
        | [] -> exec_body st frame els
        | (c, body) :: rest ->
            if eval_cond st frame c then exec_body st frame body else go rest
      in
      go branches
  | Ast.Do (v, lo, hi, step, body, _) ->
      let s =
        match step with
        | None -> 1
        | Some (Ast.Int (n, _)) -> n
        | Some e -> eval_expr st frame e
      in
      let c = scalar_cell frame st v in
      c.v <- Some (eval_expr st frame lo);
      let limit = eval_expr st frame hi in
      let cont () =
        let i = read_cell st c in
        if s > 0 then i <= limit else i >= limit
      in
      while cont () do
        tick st;
        exec_body st frame body;
        c.v <- Some (read_cell st c + s)
      done
  | Ast.While (c, body, at) ->
      (* the condition faults at the WHILE, not at the body's last line *)
      while
        st.at <- at;
        eval_cond st frame c
      do
        tick st;
        exec_body st frame body
      done
  | Ast.Call (n, args, _) -> ignore (call_proc st frame n args ~want_result:false)
  | Ast.Return _ ->
      if frame.psym.Symtab.proc.Ast.kind = Ast.Main then raise Stop_exc
      else raise Return_exc
  | Ast.Print (es, _) ->
      List.iter
        (fun e -> st.rev_output <- eval_expr st frame e :: st.rev_output)
        es
  | Ast.Read (lvs, _) ->
      List.iter
        (fun lv ->
          match st.input with
          | [] -> fault "READ past end of input"
          | v :: rest ->
              st.input <- rest;
              (lvalue_cell st frame lv).v <- Some v)
        lvs
  | Ast.Stop _ -> raise Stop_exc
  | Ast.Continue _ -> ()

and lvalue_cell st frame = function
  | Ast.Lvar (x, _) -> scalar_cell frame st x
  | Ast.Lindex (a, i, _) ->
      let idx = eval_expr st frame i in
      elem_cell frame st a idx

(* ------------------------------------------------------------------ *)
(* Entry point *)

(** [run ?seed ?fuel ?input ?observe symtab] executes the program.  [fuel]
    bounds the number of statement steps (default 200_000); [seed]
    determines the values of undefined variables; [input] feeds READ
    statements; [observe] is called at every located scalar-variable read
    with the value it yields. *)
let run ?(seed = 42) ?(fuel = 200_000) ?(input = [])
    ?(observe = fun _ _ -> ()) (symtab : Symtab.t) : result =
  let globals =
    List.fold_left
      (fun acc g ->
        let gi = SM.find g symtab.Symtab.globals in
        let b =
          match gi.Symtab.gdim with
          | Some n -> Arr (Array.init n (fun _ -> fresh_cell ()))
          | None -> Scalar { v = gi.Symtab.init }
        in
        SM.add g b acc)
      SM.empty
      (Symtab.global_names symtab)
  in
  let st =
    {
      symtab;
      globals;
      input;
      rev_output = [];
      rev_trace = [];
      rng = Random.State.make [| seed |];
      fuel;
      fuel0 = fuel;
      at = Loc.dummy;
      observe;
    }
  in
  let main = Symtab.main_proc symtab in
  let status =
    try
      ignore
        (call_proc st
           { bindings = SM.empty; psym = main }
           main.Symtab.proc.Ast.name [] ~want_result:false);
      Completed
    with
    | Stop_exc -> Stopped
    | Fuel_exc -> Out_of_fuel
    | Fault_exc m ->
        Fault
          (if Loc.equal st.at Loc.dummy then m
           else Fmt.str "%a: %s" Loc.pp st.at m)
  in
  {
    output = List.rev st.rev_output;
    trace = List.rev st.rev_trace;
    status;
    steps_used = st.fuel0 - st.fuel;
  }

let pp_status ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Stopped -> Fmt.string ppf "stopped"
  | Out_of_fuel -> Fmt.string ppf "out of fuel"
  | Fault m -> Fmt.pf ppf "fault: %s" m
