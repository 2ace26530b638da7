(** Live variables as a {!Monotone.FRAMEWORK} instance.

    Shares its transfer functions with [Ipcp_ir.Liveness], so both
    solvers compute identical sets (checked by the test suite); this
    instance exercises the generic engine on a backward may-problem with
    per-exit boundary values. *)

open Ipcp_frontend.Names
module Cfg = Ipcp_ir.Cfg

type ctx = { exit : SS.t  (** live at a [Treturn] exit *) }

val ctx : formals:string list -> globals:string list -> Cfg.t -> ctx

module F :
  Monotone.FRAMEWORK with type t = SS.t and type ctx = ctx

module Solve : module type of Monotone.Make (F)

type t = { live_in : SS.t array; live_out : SS.t array }

val compute : formals:string list -> globals:string list -> Cfg.t -> t
(** Per-block live-in/live-out sets, as [Ipcp_ir.Liveness.compute]. *)

val scalar_formals : Ipcp_frontend.Symtab.t -> string -> string list
(** Scalar formals of a procedure (arrays carry no scalar value). *)

val all : Ipcp_frontend.Symtab.t -> Cfg.t SM.t -> t SM.t
(** {!compute} for every procedure, over its scalar formals and the
    program's globals. *)

val dead_stores :
  Cfg.t SM.t -> t SM.t -> (string * string * Ipcp_frontend.Loc.t) list
(** Source assignments whose stored value is dead, as (procedure,
    variable, location): the definition has a source location (only
    scalar assignments do), a side-effect-free right-hand side, and a
    variable not live immediately after it.  Ordered by location. *)
