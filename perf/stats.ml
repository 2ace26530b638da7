(** Order statistics, with the same quartile rule as Python's
    [statistics.quantiles(data, n=4)] (the default "exclusive"
    method), so the figures a run prints can be recomputed from its
    samples. *)

let sorted xs = List.sort compare xs |> Array.of_list

let quantiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* the middle quartile is the median *)
let median xs =
  let _, m, _ = quantiles xs in
  m

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
