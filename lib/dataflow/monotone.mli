(** The monotone-framework signature over CFG flow problems, and the one
    engine that solves every instance.

    {!Dataflow.Make} is the raw Kildall iteration; this module packages a
    complete analysis as a first-class description — direction, lattice,
    boundary values and per-block transfer — so that an instance is a
    single module and the registry in [Ipcp_contexts.Registry] can
    enumerate them uniformly.  A [ctx] value carries whatever per-procedure inputs
    the instance needs (the escape set for liveness, the expression
    universe for available expressions). *)

module Cfg = Ipcp_ir.Cfg

(** A complete intraprocedural flow analysis.  [t] must be a bounded
    semilattice under [meet] in the chosen direction; [transfer] must be
    monotone in its lattice argument. *)
module type FRAMEWORK = sig
  type t
  (** lattice element *)

  type ctx
  (** per-procedure context the transfer functions close over *)

  val name : string

  val direction : Dataflow.direction

  val top : t
  (** initial optimistic assumption; kept by unreachable blocks *)

  val meet : t -> t -> t
  (** path merge (∪ for may-problems, ∩ for must-problems) *)

  val equal : t -> t -> bool

  val pp : t Fmt.t

  val boundary : ctx -> Cfg.t -> int -> t
  (** value at boundary block [bid]: the entry block for forward
      problems, each [Treturn]/[Tstop] block for backward ones *)

  val transfer : ctx -> Cfg.t -> int -> t -> t
  (** block transfer in the chosen direction *)
end

module Make (F : FRAMEWORK) : sig
  type result = { inv : F.t array; outv : F.t array }
  (** Per-block fixpoint values in the problem's direction: for a
      backward problem [inv] is the block's out-set (successor merge)
      and [outv] its in-set. *)

  val run : ctx:F.ctx -> Cfg.t -> result
  (** Solve [F] over one procedure to its least fixpoint. *)
end
