(** Structural well-formedness verifier for the lowered IR and SSA form
    (the pass sanitizer).

    Checks that block numbering is dense, terminator successors are in
    range, phi sources match the reachable predecessor lists both ways,
    SSA names are defined exactly once with every use dominated by its
    definition, and call sites agree with the symbol table.  Violations
    are structured values naming the offending procedure and block. *)

module Symtab = Ipcp_frontend.Symtab
module Cfg = Ipcp_ir.Cfg

type kind =
  | Vblock  (** block numbering / terminator targets *)
  | Vedge  (** predecessor/successor inconsistency *)
  | Vphi  (** phi shape or arity *)
  | Vdef  (** SSA single-definition discipline *)
  | Vdom  (** a use not dominated by its definition *)
  | Vcall  (** call-site bookkeeping or symbol-table mismatch *)

val kind_name : kind -> string

type violation = {
  v_proc : string;
  v_block : int;  (** offending block id, or -1 for whole-CFG violations *)
  v_kind : kind;
  v_msg : string;
}

val pp_violation : violation Fmt.t

val violation_to_string : violation -> string

val check_cfg : ?symtab:Symtab.t -> ssa:bool -> Cfg.t -> violation list
(** All checks applicable to one CFG.  [ssa] selects the SSA-form
    discipline (versioned single definitions, dominance of uses, phi
    arity); without it, phis must be absent. *)

val check_lowered : ?symtab:Symtab.t -> Cfg.t -> violation list
(** [check_cfg ~ssa:false]. *)

val check_ssa : ?symtab:Symtab.t -> Cfg.t -> violation list
(** [check_cfg ~ssa:true]. *)

val check_proc : symtab:Symtab.t -> Cfg.t -> violation list
(** Check one freshly lowered (pre-SSA) procedure: {!check_lowered},
    then, if that passes, {!check_ssa} of its SSA conversion.  The
    per-procedure check of {!check_source}. *)

val check_source : ?jobs:int -> file:string -> string -> violation list
(** Parse, check, lower and SSA-convert a complete source text,
    collecting violations from both IR stages — the hook source-to-source
    passes use to prove they produced a well-formed program.  Raises
    [Ipcp_frontend.Diag.Error] if the text no longer parses.  [jobs]
    (default 1) parallelizes the per-procedure lower/SSA checks; the
    collected violations are in procedure order either way. *)

val expect_ok : what:string -> violation list -> unit
(** Raise a [Diag] analysis error when violations are present; [what]
    names the producing stage. *)
