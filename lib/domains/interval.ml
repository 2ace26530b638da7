(** Integer ranges, the second {!Domain.S} instance.

    An element is either ⊤ (unreached) or a non-empty range [[lo, hi]]
    whose borders may be infinite; ⊥ is the full range [[-∞, +∞]].  The
    lattice runs in the same descending orientation as {!Clattice}: the
    merge of facts is the convex hull, so values only ever grow as the
    propagation lowers them, and termination on the infinite descending
    chains comes from {!widen} (jump-to-threshold) with one {!narrow}
    pass to claw back bounds the widening overshot.

    Concrete values are native OCaml integers, which wrap silently, so
    the transfer functions are {e overflow-conservative}: a
    singleton-by-singleton operation is evaluated exactly with the
    concrete evaluator (matching whatever wrapping the interpreter
    does), while a genuine range computation that cannot be proved free
    of overflow collapses to ⊥.  That costs precision only near the
    extremes of the [int] range and keeps every inferred interval a true
    over-approximation of the values the interpreter can observe. *)

module Ast = Ipcp_frontend.Ast

type border = Ninf | Fin of int | Pinf

(* invariant: [Range (lo, hi)] is non-empty and normalised —
   lo <= hi, lo <> Pinf, hi <> Ninf *)
type t = Top | Range of border * border

let name = "interval"

let top = Top

let bot = Range (Ninf, Pinf)

let const c = Range (Fin c, Fin c)

let of_bounds lo hi = if lo > hi then Top else Range (Fin lo, Fin hi)

let border_equal a b =
  match (a, b) with
  | Ninf, Ninf | Pinf, Pinf -> true
  | Fin x, Fin y -> x = y
  | _ -> false

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Range (l1, h1), Range (l2, h2) -> border_equal l1 l2 && border_equal h1 h2
  | _ -> false

(* total order on borders with Ninf < Fin _ < Pinf *)
let border_cmp a b =
  match (a, b) with
  | Ninf, Ninf | Pinf, Pinf -> 0
  | Ninf, _ -> -1
  | _, Ninf -> 1
  | Pinf, _ -> 1
  | _, Pinf -> -1
  | Fin x, Fin y -> compare x y

let bmin a b = if border_cmp a b <= 0 then a else b

let bmax a b = if border_cmp a b >= 0 then a else b

(** Convex hull: the merge of facts arriving along different paths. *)
let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Range (l1, h1), Range (l2, h2) -> Range (bmin l1 l2, bmax h1 h2)

(** Intersection: facts known to hold simultaneously.  An empty
    intersection is an infeasible state, i.e. ⊤. *)
let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Range (l1, h1), Range (l2, h2) ->
      let lo = bmax l1 l2 and hi = bmin h1 h2 in
      if border_cmp lo hi > 0 then Top else Range (lo, hi)

let leq a b = equal (meet a b) a

let is_const = function
  | Range (Fin a, Fin b) when a = b -> Some a
  | _ -> None

let contains t c =
  match t with
  | Top -> false
  | Range (lo, hi) -> border_cmp lo (Fin c) <= 0 && border_cmp (Fin c) hi <= 0

(** [within t ~lo ~hi]: every concrete value of [t] lies in [lo, hi].
    ⊤ is vacuously within (no concrete value exists). *)
let within t ~lo ~hi =
  match t with
  | Top -> true
  | Range (l, h) -> border_cmp (Fin lo) l <= 0 && border_cmp h (Fin hi) <= 0

(** [disjoint t ~lo ~hi]: no concrete value of [t] lies in [lo, hi]. *)
let disjoint t ~lo ~hi =
  match t with
  | Top -> true
  | Range (l, h) -> border_cmp h (Fin lo) < 0 || border_cmp (Fin hi) l < 0

(* ------------------------------------------------------------------ *)
(* Overflow-checked native arithmetic: [None] = may wrap. *)

let add_ovf a b =
  let s = a + b in
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

let neg_ovf a = if a = min_int then None else Some (-a)

let sub_ovf a b = match neg_ovf b with None -> None | Some nb -> add_ovf a nb

let mul_ovf a b =
  if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int then None
  else
    let p = a * b in
    if p / b = a then Some p else None

(* Lift a checked binary op to borders: any infinite border or any
   overflow means the result range cannot be bounded, signalled as
   [None] so the caller collapses to ⊥. *)
let border2 f a b =
  match (a, b) with Fin x, Fin y -> f x y | _ -> None

let range2 f (l1, h1) (l2, h2) ~corners =
  let cs = List.map (fun (a, b) -> border2 f a b) (corners (l1, h1) (l2, h2)) in
  if List.exists Option.is_none cs then bot
  else
    let cs = List.filter_map Fun.id cs in
    Range
      ( Fin (List.fold_left min (List.hd cs) (List.tl cs)),
        Fin (List.fold_left max (List.hd cs) (List.tl cs)) )

(* ------------------------------------------------------------------ *)
(* Transfer functions *)

let unop op v =
  match (op, v) with
  | Ast.Neg, Top -> Top
  | Ast.Neg, Range (lo, hi) -> (
      match (lo, hi) with
      | Fin l, Fin h -> (
          match (neg_ovf h, neg_ovf l) with
          | Some nl, Some nh -> Range (Fin nl, Fin nh)
          | _ -> bot)
      | _ -> bot)

(* Truncated division of a finite box by a divisor box of one strict
   sign: x/y is monotone in x for fixed y and monotone in y for fixed
   sign of x, so the extrema are at the corners.  min_int corners are
   rejected up front (min_int / -1 wraps). *)
let div_corners (l1, h1) (l2, h2) =
  [ (l1, l2); (l1, h2); (h1, l2); (h1, h2) ]

let div_by_signed_part (l1, h1) (l2, h2) =
  let f a b = if a = min_int || b = 0 then None else Some (a / b) in
  range2 f (l1, h1) (l2, h2) ~corners:div_corners

let div_range (l1, h1) (l2, h2) =
  (* split the divisor at zero; the zero point itself faults, so it
     contributes no values *)
  let neg_part =
    if border_cmp l2 (Fin (-1)) <= 0 then
      Some (div_by_signed_part (l1, h1) (l2, bmin h2 (Fin (-1))))
    else None
  and pos_part =
    if border_cmp (Fin 1) h2 <= 0 then
      Some (div_by_signed_part (l1, h1) (bmax l2 (Fin 1), h2))
    else None
  in
  match (neg_part, pos_part) with
  | None, None -> Top (* divisor is exactly {0}: every path faults *)
  | Some r, None | None, Some r -> r
  | Some r1, Some r2 -> meet r1 r2

let binop op a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Range (l1, h1), Range (l2, h2) -> (
      match (is_const a, is_const b) with
      | Some x, Some y -> (
          (* exact concrete fold, wrap-around included *)
          match Ast.eval_binop op x y with
          | Some r -> const r
          | None -> Top (* faulting op: no value flows *))
      | _ -> (
          match op with
          | Ast.Add ->
              range2 add_ovf (l1, h1) (l2, h2) ~corners:(fun (l1, h1) (l2, h2)
                  -> [ (l1, l2); (h1, h2) ])
          | Ast.Sub ->
              range2 sub_ovf (l1, h1) (l2, h2) ~corners:(fun (l1, h1) (l2, h2)
                  -> [ (l1, h2); (h1, l2) ])
          | Ast.Mul ->
              range2 mul_ovf (l1, h1) (l2, h2) ~corners:(fun (l1, h1) (l2, h2)
                  -> [ (l1, l2); (l1, h2); (h1, l2); (h1, h2) ])
          | Ast.Div -> div_range (l1, h1) (l2, h2)
          | Ast.Pow -> (
              (* only trivial exponents keep a range shape *)
              match is_const b with
              | Some 0 -> const 1
              | Some 1 -> a
              | _ -> bot)))

let intrin i args =
  if List.exists (fun v -> match v with Top -> true | _ -> false) args then
    Top
  else
    let consts = List.filter_map is_const args in
    if List.length consts = List.length args then
      match Ast.eval_intrin i consts with Some r -> const r | None -> Top
    else
      match (i, args) with
      | Ast.Imax, [ Range (l1, h1); Range (l2, h2) ] ->
          Range (bmax l1 l2, bmax h1 h2)
      | Ast.Imin, [ Range (l1, h1); Range (l2, h2) ] ->
          Range (bmin l1 l2, bmin h1 h2)
      | Ast.Iabs, [ Range (lo, hi) ] -> (
          match (lo, hi) with
          | Fin l, Fin h when l > min_int ->
              if l >= 0 then Range (Fin l, Fin h)
              else if h <= 0 then Range (Fin (-h), Fin (-l))
              else Range (Fin 0, Fin (max (-l) h))
          | _ -> bot)
      | Ast.Imod, [ Range (l1, h1); Range (l2, h2) ] -> (
          (* OCaml mod: result sign follows the dividend, |r| < |divisor| *)
          match (l2, h2) with
          | Fin l, Fin h when l > min_int ->
              let m = max (abs l) (abs h) in
              if m = 0 then Top (* divisor is {0}: faults *)
              else
                let lo =
                  if border_cmp (Fin 0) l1 <= 0 then Fin 0 else Fin (-(m - 1))
                and hi =
                  if border_cmp h1 (Fin 0) <= 0 then Fin 0 else Fin (m - 1)
                in
                Range (lo, hi)
          | _ -> bot)
      | _ -> bot

(* ------------------------------------------------------------------ *)
(* Branch refinement *)

let bpred = function Fin x when x > min_int -> Fin (x - 1) | b -> b

let bsucc = function Fin x when x < max_int -> Fin (x + 1) | b -> b

let lo_of = function Top -> Pinf | Range (l, _) -> l

let hi_of = function Top -> Ninf | Range (_, h) -> h

(** Refine [(a, b)] under the assumption that [a op b] holds.  Built
    entirely from {!join}, so it can only raise values toward ⊤ —
    an infeasible assumption surfaces as ⊤ on the refined side. *)
let filter op a b =
  match (a, b) with
  | Top, _ | _, Top -> (a, b)
  | _ -> (
      match op with
      | Ast.Req -> (join a b, join a b)
      | Ast.Rle -> (join a (Range (Ninf, hi_of b)), join b (Range (lo_of a, Pinf)))
      | Ast.Rlt ->
          ( join a (Range (Ninf, bpred (hi_of b))),
            join b (Range (bsucc (lo_of a), Pinf)) )
      | Ast.Rge -> (join a (Range (lo_of b, Pinf)), join b (Range (Ninf, hi_of a)))
      | Ast.Rgt ->
          ( join a (Range (bsucc (lo_of b), Pinf)),
            join b (Range (Ninf, bpred (hi_of a))) )
      | Ast.Rne -> (
          (* a singleton on one side can shave a touching border off the
             other *)
          let shave r = function
            | Some c -> (
                match r with
                | Range (Fin l, _) when l = c ->
                    join r (Range (bsucc (Fin l), Pinf))
                | Range (_, Fin h) when h = c ->
                    join r (Range (Ninf, bpred (Fin h)))
                | _ -> r)
            | None -> r
          in
          (shave a (is_const b), shave b (is_const a))))

(* ------------------------------------------------------------------ *)
(* Widening / narrowing *)

(* jump-to-threshold: a growing border skips to the next magnitude step
   instead of creeping one loop iteration at a time *)
let thresholds = [ 0; 1; 4; 16; 64; 256; 1024; 4096 ]

let widen_hi h =
  match h with
  | Fin x -> (
      match List.find_opt (fun t -> t >= x) thresholds with
      | Some t -> Fin t
      | None -> Pinf)
  | b -> b

let widen_lo l =
  match l with
  | Fin x -> (
      (* ascending thresholds: the first -t below x is the tightest *)
      match List.find_opt (fun t -> -t <= x) thresholds with
      | Some t -> Fin (-t)
      | None -> Ninf)
  | b -> b

let widen old next =
  match (old, next) with
  | Top, _ -> next
  | _, Top -> next
  | Range (l1, h1), Range (l2, h2) ->
      let lo = if border_cmp l2 l1 < 0 then widen_lo l2 else l1
      and hi = if border_cmp h2 h1 > 0 then widen_hi h2 else h1 in
      Range (lo, hi)

(** Standard interval narrowing: keep a finite border the widening
    produced, but let a border that was pushed to infinity recover the
    sound finite bound [refit] computed by one more plain transfer
    round. *)
let narrow wide refit =
  match (wide, refit) with
  | Top, _ -> refit
  | _, Top -> wide
  | Range (l1, h1), Range (l2, h2) ->
      Range ((if l1 = Ninf then l2 else l1), if h1 = Pinf then h2 else h1)

let finite_height = false

let border_string = function
  | Ninf -> "-inf"
  | Pinf -> "+inf"
  | Fin x -> string_of_int x

let to_string = function
  | Top -> "⊤"
  | Range (Ninf, Pinf) -> "⊥"
  | Range (Fin a, Fin b) when a = b -> string_of_int a
  | Range (lo, hi) -> "[" ^ border_string lo ^ ", " ^ border_string hi ^ "]"

let pp ppf t = Fmt.string ppf (to_string t)
