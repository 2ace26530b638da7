(** Constant substitution — the paper's effectiveness metric (the
    Metzger–Stroud measure): rewrite every constant-valued scalar use to
    its literal, and count the rewrites.  Variable actuals at call sites
    are addresses and are never rewritten. *)

module Driver = Ipcp_core.Driver

val constant_uses : Driver.t -> int Ipcp_frontend.Loc.Map.t
(** Locations of scalar-variable uses with constant values, program-wide
    (entry values bound to the propagation fixpoint). *)

type result = {
  program : Ipcp_frontend.Ast.program;  (** the transformed source *)
  per_proc : int Ipcp_frontend.Names.SM.t;
  total : int;
}

val apply : Driver.t -> result
(** Rewrite and count.  With [Config.verify_ir] on, the procedures the
    rewrite changed are checked by {!check_rewrite}. *)

val check_rewrite : Driver.t -> Ipcp_frontend.Ast.program -> unit
(** Check a rewrite of [t]'s program, in declaration order, procedure by
    procedure against [t]'s symbol table: each procedure not physically
    equal to its original is lowered at its program-wide call-site offset
    and passed through {!Ipcp_verify.Verify.check_proc}.  Raises
    [Ipcp_frontend.Diag.Error] (a lowering or an analysis error) on a
    malformed rewrite. *)

val count : Driver.t -> int
(** [total] of {!apply} — the number every table of the paper reports. *)
