(** Hash-based global value numbering over SSA form.

    The pessimistic single-pass scheme: process blocks in reverse
    postorder, assign each SSA name a value number determined by hashing
    its right-hand side with the operands' value numbers substituted in
    (after canonicalising commutative operations).  Phi functions whose
    arguments all carry the same number collapse to that number; copies
    are transparent.

    This is the classic counterpart of the optimistic
    Alpern–Wegman–Zadeck partitioning ({!Awz}): every congruence found
    here is also found by AWZ, but AWZ additionally proves congruences
    through loops.  The inclusion is checked by a property test, and the
    symbolic evaluator in [Ipcp_core.Symeval] subsumes both for the
    jump-function use case. *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ast = Ipcp_frontend.Ast

type vn = int

(* structural keys for hashing right-hand sides *)
type key =
  | Kconst of int
  | Kentry of string  (** an entry (version-0) name: its own class *)
  | Kunop of Ast.unop * vn
  | Kbinop of Ast.binop * vn * vn
  | Kintrin of Ast.intrinsic * vn list
  | Kopaque of int  (** loads, reads, call effects: unique each time *)
  | Kphi of int * vn list  (** block id + argument numbers *)

type t = {
  numbers : (Instr.var, vn) Hashtbl.t;
  mutable next : int;
  keys : (key, vn) Hashtbl.t;
}

let commutative (op : Ast.binop) = match op with Ast.Add | Ast.Mul -> true | _ -> false

let create () = { numbers = Hashtbl.create 64; next = 0; keys = Hashtbl.create 64 }

let fresh t =
  let n = t.next in
  t.next <- n + 1;
  n

let of_key t k =
  match Hashtbl.find_opt t.keys k with
  | Some n -> n
  | None ->
      let n = fresh t in
      Hashtbl.add t.keys k n;
      n

let number t v = Hashtbl.find_opt t.numbers v

(** Run value numbering over an SSA-form CFG. *)
let compute (cfg : Cfg.t) : t =
  let t = create () in
  let operand_vn = function
    | Instr.Oint n -> of_key t (Kconst n)
    | Instr.Ovar (v, _) -> (
        match number t v with
        | Some n -> n
        | None ->
            (* an entry (version-0) value, or a name defined in a loop we
               have not reached yet (pessimistic: its own class) *)
            let n =
              if Ipcp_ir.Ssa.is_entry_version v then
                of_key t (Kentry (Ipcp_ir.Ssa.base_name v))
              else of_key t (Kopaque (fresh t))
            in
            Hashtbl.replace t.numbers v n;
            n)
  in
  let rhs_key (r : Instr.rhs) : key =
    match r with
    | Instr.Rcopy o -> (
        match o with
        | Instr.Oint n -> Kconst n
        | Instr.Ovar _ -> Kopaque (-1) (* replaced below: copies forward *) )
    | Instr.Runop (op, o) -> Kunop (op, operand_vn o)
    | Instr.Rbinop (op, a, b) ->
        let va = operand_vn a and vb = operand_vn b in
        if commutative op && vb < va then Kbinop (op, vb, va)
        else Kbinop (op, va, vb)
    | Instr.Rintrin (i, ops) -> Kintrin (i, List.map operand_vn ops)
    | Instr.Rload _ | Instr.Rread | Instr.Rresult _ | Instr.Rcalldef _ ->
        Kopaque (fresh t)
  in
  List.iter
    (fun bid ->
      let b = cfg.Cfg.blocks.(bid) in
      List.iter
        (fun (p : Cfg.phi) ->
          (* two phis of the same block with congruent argument lists are
             congruent.  (A phi is never collapsed onto its argument, even
             when all arguments agree — matching AWZ, whose congruences
             this pass must under-approximate.) *)
          let args =
            List.map (fun (_, v) -> operand_vn (Instr.Ovar (v, None))) p.Cfg.srcs
          in
          Hashtbl.replace t.numbers p.Cfg.dest (of_key t (Kphi (bid, args))))
        b.Cfg.phis;
      List.iter
        (fun i ->
          match i with
          | Instr.Idef (x, Instr.Rcopy o, _) ->
              Hashtbl.replace t.numbers x (operand_vn o)
          | Instr.Idef (x, r, _) ->
              Hashtbl.replace t.numbers x (of_key t (rhs_key r))
          | _ -> ())
        b.Cfg.instrs)
    (Cfg.rev_postorder cfg);
  t

(** Are two SSA names known congruent? *)
let congruent t a b =
  match (number t a, number t b) with
  | Some x, Some y -> x = y
  | _ -> false

(** All congruence classes with more than one member. *)
let classes (t : t) : Instr.var list list =
  let by_vn = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v n ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_vn n) in
      Hashtbl.replace by_vn n (v :: l))
    t.numbers;
  Hashtbl.fold
    (fun _ vs acc -> if List.length vs > 1 then List.sort compare vs :: acc else acc)
    by_vn []
  |> List.sort compare
