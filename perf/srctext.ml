(** A reading of MiniFortran source from its text alone — procedure
    blocks, the calls in each block, and the edits of the [edit-1k]
    workload — made without the analyzer's front end or call graph, so
    that the dirty sets the analyzer reports can be checked against it. *)

type block = { name : string; first : int; last : int  (** the END line *) }

let lines text = Array.of_list (String.split_on_char '\n' text)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

(* identifiers of a line, lowercased, each with the index just past it *)
let idents line =
  let l = String.lowercase_ascii line in
  let n = String.length l in
  let rec go i acc =
    if i >= n then List.rev acc
    else if l.[i] >= 'a' && l.[i] <= 'z' then (
      let j = ref i in
      while !j < n && is_ident_char l.[!j] do incr j done;
      go !j ((String.sub l i (!j - i), !j) :: acc))
    else go (i + 1) acc
  in
  go 0 []

let header line =
  match List.map fst (idents line) with
  | ("program" | "subroutine" | "function") :: name :: _ -> Some name
  | "integer" :: "function" :: name :: _ -> Some name
  | _ -> None

let blocks (ls : string array) =
  let acc = ref [] and cur = ref None in
  Array.iteri
    (fun i line ->
      match !cur with
      | None -> (
          match header line with Some name -> cur := Some (name, i) | None -> ())
      | Some (name, first) ->
          if String.uppercase_ascii (String.trim line) = "END" then (
            acc := { name; first; last = i } :: !acc;
            cur := None))
    ls;
  List.rev !acc

let block_text ls b =
  String.concat "\n" (Array.to_list (Array.sub ls b.first (b.last - b.first + 1)))

(** Procedures whose block text differs between two versions (or that
    one of them lacks). *)
let changed a b =
  let la = lines a and lb = lines b in
  let tbl = Hashtbl.create 1024 in
  List.iter (fun blk -> Hashtbl.replace tbl blk.name (block_text la blk)) (blocks la);
  let in_b = Hashtbl.create 1024 in
  let diff =
    List.filter_map
      (fun blk ->
        Hashtbl.replace in_b blk.name ();
        match Hashtbl.find_opt tbl blk.name with
        | Some t when String.equal t (block_text lb blk) -> None
        | _ -> Some blk.name)
      (blocks lb)
  in
  let gone =
    Hashtbl.fold (fun n _ acc -> if Hashtbl.mem in_b n then acc else n :: acc) tbl []
  in
  List.sort_uniq compare (diff @ gone)

(** [seeds] and every procedure that calls one of them, transitively.  A
    call is a procedure name followed by "(" or named by CALL. *)
let caller_closure text seeds =
  let ls = lines text in
  let bs = blocks ls in
  let procs = Hashtbl.create 1024 in
  List.iter (fun b -> Hashtbl.replace procs b.name ()) bs;
  let callers = Hashtbl.create 1024 in
  List.iter
    (fun b ->
      for i = b.first + 1 to b.last - 1 do
        let line = String.lowercase_ascii ls.(i) in
        let rec scan = function
          | [] -> ()
          | ("call", _) :: (callee, _) :: rest when Hashtbl.mem procs callee ->
              Hashtbl.add callers callee b.name;
              scan rest
          | (callee, stop) :: rest ->
              let rec next_char k =
                if k < String.length line && line.[k] = ' ' then next_char (k + 1) else k
              in
              let k = next_char stop in
              if Hashtbl.mem procs callee && k < String.length line && line.[k] = '('
              then Hashtbl.add callers callee b.name;
              scan rest
        in
        scan (idents line)
      done)
    bs;
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] -> ()
    | p :: rest when Hashtbl.mem seen p -> go rest
    | p :: rest ->
        Hashtbl.replace seen p ();
        go (Hashtbl.find_all callers p @ rest)
  in
  go (List.filter (Hashtbl.mem procs) seeds);
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen [])

(* ------------------------------------------------------------------ *)
(* Edits *)

type kind = Const_change | Line_insert

let kind_name = function Const_change -> "const" | Line_insert -> "insert"

type edit = { e_target : string; e_kind : kind; e_text : string }

(* The cost of a save depends on where the edited procedure sits: the
   closure of its callers, and how many later procedures an insertion
   shifts.  The procedures, in declaration order, are cut into this many
   strata of neighbours, so that every run of [strata] consecutive saves
   edits one procedure of each, whatever the seed. *)
let strata = 13

(** A seeded permutation of the procedure blocks, the edit targets:
    each stratum shuffled by the seed, then dealt round-robin. *)
let targets ~seed base =
  let bs = Array.of_list (blocks (lines base)) in
  let n = Array.length bs in
  let k = max 1 (min strata n) in
  let st = Random.State.make [| seed |] in
  let stratum s =
    let a = Array.sub bs (s * n / k) (((s + 1) * n / k) - (s * n / k)) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let groups = Array.init k stratum in
  let dealt = ref [] in
  for r = 0 to (n / k) + 1 do
    Array.iter (fun g -> if r < Array.length g then dealt := g.(r) :: !dealt) groups
  done;
  Array.of_list (List.rev !dealt)

(* the first "name = <int literal>" line of a block, with its value *)
let literal_assignment ls b =
  let rec go i =
    if i >= b.last then None
    else
      match String.index_opt ls.(i) '=' with
      | Some k -> (
          let lhs = String.trim (String.sub ls.(i) 0 k) in
          let rhs = String.trim (String.sub ls.(i) (k + 1) (String.length ls.(i) - k - 1)) in
          match (idents lhs, int_of_string_opt rhs) with
          | [ (_, stop) ], Some v when stop = String.length lhs -> Some (i, k, v)
          | _ -> go (i + 1))
      | None -> go (i + 1)
  in
  go (b.first + 1)

(** Edit [i] of a session, applied to the base text: even edits change
    one literal in place, odd edits insert a PRINT before the target's
    END, shifting the source locations of every later procedure.  A
    block with no literal assignment takes the insertion. *)
let edit ~seed base (targets : block array) i =
  let ls = lines base in
  let b = targets.(i mod Array.length targets) in
  let st = Random.State.make [| seed; i |] in
  let v = Random.State.int st 50 - 10 in
  let insert () =
    let before = Array.to_list (Array.sub ls 0 b.last) in
    let after = Array.to_list (Array.sub ls b.last (Array.length ls - b.last)) in
    String.concat "\n" (before @ [ Printf.sprintf "  PRINT *, %d" v ] @ after)
  in
  let kind, text =
    if i mod 2 = 1 then (Line_insert, insert ())
    else
      match literal_assignment ls b with
      | None -> (Line_insert, insert ())
      | Some (li, k, old) ->
          let v = if v = old then v + 1 else v in
          let ls = Array.copy ls in
          ls.(li) <- Printf.sprintf "%s= %d" (String.sub ls.(li) 0 k) v;
          (Const_change, String.concat "\n" (Array.to_list ls))
  in
  { e_target = b.name; e_kind = kind; e_text = text }
