(** Symbol information produced by {!Sema}.

    A {!t} value packages a semantically checked program: per-procedure
    variable tables, the program-wide global (COMMON) table, and the static
    ([DATA]) initialisation map.  All later phases consume this type rather
    than the raw AST. *)

open Names

type var_kind =
  | Formal of int  (** 0-based position in the formal list *)
  | Local
  | Global of string  (** member of the named COMMON block *)
  | Const of int  (** PARAMETER named constant, already folded *)
  | Result  (** the function-name variable of an INTEGER FUNCTION *)

type var_info = {
  kind : var_kind;
  dim : int option;  (** [Some n]: an array of [n] elements (1-based) *)
}

let is_array vi = vi.dim <> None

type proc_sym = {
  proc : Ast.proc;  (** body with all names resolved (see {!Sema}) *)
  vars : var_info SM.t;
  data : int SM.t;  (** DATA initialisation of main-program locals *)
}

type global_info = {
  block : string;
  gdim : int option;
  init : int option;  (** DATA initialisation, if any *)
}

type t = {
  procs : proc_sym SM.t;
  order : string list;  (** procedure names in declaration order *)
  main : string;
  globals : global_info SM.t;
  global_order : string list;  (** declaration order of COMMON members *)
}

let proc t name = SM.find name t.procs

let find_proc t name = SM.find_opt name t.procs

let main_proc t = proc t t.main

let var ps name = SM.find_opt name ps.vars

let var_exn ps name =
  match SM.find_opt name ps.vars with
  | Some vi -> vi
  | None -> invalid_arg (Fmt.str "Symtab.var_exn: %s not in %s" name ps.proc.Ast.name)

let is_formal ps name =
  match var ps name with Some { kind = Formal _; _ } -> true | _ -> false

(** Formal names of a procedure, in positional order. *)
let formals ps = ps.proc.Ast.formals

(** All globals of the program, in declaration order. *)
let global_names t = t.global_order

let fold_procs f t acc =
  List.fold_left (fun acc n -> f (proc t n) acc) acc t.order
