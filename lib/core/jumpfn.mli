(** Forward jump functions: for a call site [s] and actual parameter [y]
    (argument or global), [J_s^y] gives [y]'s value at [s] as a function
    of the calling procedure's entry values.  The four implementations of
    §3.1 are restrictions of the symbolic value computed by {!Symeval}. *)

module Instr = Ipcp_ir.Instr
module Symtab = Ipcp_frontend.Symtab
module Symexpr = Ipcp_vn.Symexpr
module Ast = Ipcp_frontend.Ast

type t =
  | Jbottom
  | Jconst of int
  | Jvar of string  (** pass-through of an entry value *)
  | Jexpr of Symexpr.t  (** polynomial of entry values *)

val equal : t -> t -> bool

val support : t -> Ipcp_frontend.Names.SS.t
(** The entry values the function reads ([support(J_s^y)] in the paper). *)

val pp : t Fmt.t

val kind_tag : t -> string
(** Telemetry tag of the function's class: ["bottom"], ["const"],
    ["passthrough"] or ["polynomial"]. *)

val cost : t -> int
(** Abstract evaluation cost, for the §3.1.5 ablation. *)

val of_value :
  Config.jf_kind -> syntactic:Ast.expr option -> Symeval.value -> t
(** Restrict a symbolic value to a jump-function class.  [syntactic] is
    the actual expression as written (the literal class is "a textual scan
    of the call sites"). *)

(** A parameter of the callee receiving a value along a call edge. *)
type param = { p_name : string; p_kind : [ `Formal of int | `Global ] }

type site_jfs = {
  sj_site : Instr.site;
  jfs : (param * t) list;
}

val of_site :
  symtab:Symtab.t -> kind:Config.jf_kind -> Symeval.t -> Instr.site -> site_jfs
(** Build the jump functions for one call site from the caller's symbolic
    evaluation: one per scalar formal of the callee and one per scalar
    global. *)

(** Evaluation against any {!Ipcp_domains.Domain.S}: jump functions are
    built once and merely evaluated during propagation, so nothing in
    them is constant-specific. *)
module Eval (D : Ipcp_domains.Domain.S) : sig
  val eval : t -> (string -> D.t) -> D.t
  (** Evaluate against the caller's current VAL set.  ⊤ supports yield
      ⊤, ⊥ supports ⊥; all-constant supports fold the polynomial exactly
      (a fault yields ⊥); mixed supports fold it through the domain's
      transfer functions. *)

  val eval_with_support : t -> (string -> D.t) -> D.t * (string * D.t) list
  (** Like {!eval}, additionally returning the entry values the jump
      function read (its support bindings, in canonical order) — the
      derivation edge recorded by {!Provenance} when explain-mode
      recording is enabled. *)
end

val eval :
  t -> (string -> Ipcp_domains.Clattice.t) -> Ipcp_domains.Clattice.t
(** [Eval(Clattice).eval]: the historical constant-lattice evaluation. *)
