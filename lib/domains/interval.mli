(** Integer-range domain: ⊤ or a non-empty interval with possibly
    infinite borders (⊥ = [-∞, +∞]).  Same descending orientation as
    {!Clattice}: {!meet} is the convex hull, {!join} the intersection.
    Transfer functions are overflow-conservative — singleton operands
    fold exactly (native wrap-around included), unbounded or possibly
    overflowing computations collapse to ⊥ — so every inferred interval
    over-approximates the values the interpreter can observe.
    Termination comes from jump-to-threshold widening plus one
    narrowing pass. *)

type border = Ninf | Fin of int | Pinf

type t = Top | Range of border * border

include Domain.S with type t := t

val of_bounds : int -> int -> t
(** [of_bounds lo hi] is [[lo, hi]], or ⊤ when empty ([lo > hi]). *)

val contains : t -> int -> bool
(** [contains t c]: [c] may be a value of [t]. *)

val within : t -> lo:int -> hi:int -> bool
(** Every concrete value of [t] lies in [[lo, hi]] (⊤ vacuously so). *)

val disjoint : t -> lo:int -> hi:int -> bool
(** No concrete value of [t] lies in [[lo, hi]] (⊤ vacuously so). *)

val lo_of : t -> border

val hi_of : t -> border
