(** Symbolic evaluation of one procedure over its SSA form: the analyzer's
    value-numbering stage, and the [gcp(y, s)] oracle of the paper.

    Every SSA name receives a {!value}: ⊤ (not yet known), a symbolic
    expression over the procedure's {e entry symbols} (scalar formals and
    globals), or ⊥.  A value that folds to an integer is an
    intraprocedural constant; one that is exactly an entry symbol is a
    pass-through; any expression is a polynomial jump-function body.
    Call-site treatment is delegated to a {!policy} (where MOD summaries
    and return jump functions plug in). *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Symtab = Ipcp_frontend.Symtab
module Symexpr = Ipcp_vn.Symexpr

type value = Top | Sexp of Symexpr.t | Bottom

val value_equal : value -> value -> bool

val value_meet : value -> value -> value

val const : int -> value

val is_const : value -> int option

val pp_value : value Fmt.t

val max_size : int
(** Expressions larger than this are abandoned to ⊥. *)

val clip : value -> value

(** A call site as seen by policies: accessors for the symbolic values of
    scalar actuals and of globals just before the call. *)
type site_view = {
  sv_site : Instr.site;
  actual : int -> value;
  global_at : string -> value;
}

type policy = {
  on_calldef : site_view -> Instr.call_target -> value -> value;
      (** value of a call target after the call, given its incoming value *)
  on_result : site_view -> value;  (** a function call's result *)
}

val worst_case_policy : policy
(** Every call kills everything (the "no MOD information" world). *)

type t = {
  values : (Instr.var, value) Hashtbl.t;
  cfg : Cfg.t;  (** the SSA-form CFG that was evaluated *)
  views : (int, site_view) Hashtbl.t;
  passes : int;  (** fixpoint sweeps until stabilisation *)
}

val value : t -> Instr.var -> value

val run :
  ?entry_binding:(string -> value option) ->
  symtab:Symtab.t ->
  psym:Symtab.proc_sym ->
  policy:policy ->
  Cfg.t ->
  t
(** Evaluate one procedure.  [entry_binding] optionally binds entry
    symbols (the substitution pass binds them to the propagation
    fixpoint); unbound entries stay symbolic. *)

type artifact = { a_values : (Instr.var * value) list; a_passes : int }
(** The closure-free residue of an evaluation — plain data, safe to
    marshal.  Rebuilding a [t] from it requires the same SSA CFG the
    evaluation ran over. *)

val to_artifact : t -> artifact

val of_artifact : Cfg.t -> artifact -> t
(** Rebuild an evaluation (including its call-site views) from a stored
    artifact, without re-running the fixpoint.  The CFG must be the one
    the artifact was produced from. *)

val site_view : t -> Instr.site -> site_view

val operand_value : t -> Instr.operand -> value
