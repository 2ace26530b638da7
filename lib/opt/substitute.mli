(** Constant substitution — the paper's effectiveness metric (the
    Metzger–Stroud measure): rewrite every constant-valued scalar use to
    its literal, and count the rewrites.  Variable actuals at call sites
    are addresses and are never rewritten. *)

module Driver = Ipcp_core.Driver

val constant_uses : ?procs:string list -> Driver.t -> int Ipcp_frontend.Loc.Map.t
(** Locations of scalar-variable uses with constant values, program-wide
    or in [procs] (entry values bound to the propagation fixpoint). *)

type result = {
  program : Ipcp_frontend.Ast.program;  (** the transformed source *)
  per_proc : int Ipcp_frontend.Names.SM.t;
  total : int;
}

val apply : Driver.t -> result
(** Rewrite and count.  With [Config.verify_ir] on, the procedures the
    rewrite changed are checked by {!check_rewrite}.  This is
    {!apply_reusing} with nothing to reuse. *)

(** What the substitution did to one procedure, free of source
    locations: a function of the procedure's text, its transitive
    callees, its first call-site id and its entry CONSTANTS. *)
type proc_sub = {
  ps_count : int;  (** uses substituted *)
  ps_uses : (int * int) list;
      (** (ordinal, constant) of each substituted use, ascending; the
          ordinal numbers the procedure's [Var] uses in the order the
          rewrite visits them, actual arguments excluded *)
  ps_checked : bool;
      (** the rewrite changed nothing, or passed {!check_rewrite} *)
}

val apply_reusing :
  reuse:(string -> proc_sub option) ->
  Driver.t ->
  result * proc_sub Ipcp_frontend.Names.SM.t
(** {!apply}, rewriting each procedure [reuse] has an object for from
    that object and running stage 4 only for the others.  Under
    [Config.verify_ir], a reused rewrite is checked unless its object
    was.  Returns every procedure's object as well. *)

val check_rewrite :
  ?skip:(string -> bool) -> Driver.t -> Ipcp_frontend.Ast.program -> unit
(** Check a rewrite of [t]'s program, in declaration order, procedure by
    procedure against [t]'s symbol table: each procedure not physically
    equal to its original, and not named by [skip], is lowered at its
    program-wide call-site offset and passed through
    {!Ipcp_verify.Verify.check_proc}.  Raises [Ipcp_frontend.Diag.Error]
    (a lowering or an analysis error) on a malformed rewrite. *)

val count : Driver.t -> int
(** [total] of {!apply} — the number every table of the paper reports. *)
