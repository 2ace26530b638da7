(** Symbol information produced by {!Sema}.

    A {!t} value packages a semantically checked program: per-procedure
    variable tables, the program-wide global (COMMON) table, and the
    static ([DATA]) initialisation map.  All later phases consume this
    type rather than the raw AST. *)

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

val is_array : var_info -> bool

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

val proc : t -> string -> proc_sym
(** Raises [Not_found] for an unknown procedure. *)

val find_proc : t -> string -> proc_sym option

val main_proc : t -> proc_sym

val var : proc_sym -> string -> var_info option

val var_exn : proc_sym -> string -> var_info
(** Raises [Invalid_argument] for a name not declared in the procedure. *)

val is_formal : proc_sym -> string -> bool

val formals : proc_sym -> string list
(** Formal names of a procedure, in positional order. *)

val global_names : t -> string list
(** All globals of the program, in declaration order. *)

val fold_procs : (proc_sym -> 'a -> 'a) -> t -> 'a -> 'a
