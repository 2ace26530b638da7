(** Alpern–Wegman–Zadeck partition-based value numbering ("Detecting
    equality of variables in programs", POPL 1988 — reference [1] of the
    paper, the foundation of its value-numbering infrastructure).

    Where hash-based numbering ({!Gvn}) is {e pessimistic} — names are
    different until proven equal, so congruences through loop-carried phis
    are missed — AWZ is {e optimistic}: it starts from the coarsest
    partition grouping all definitions with the same operator, then
    refines until each class is consistent (members' operands lie in equal
    classes position-wise).  The greatest fixed point proves equalities
    like [i ≡ j] for two inductions [i = phi(0, i+1)], [j = phi(0, j+1)].

    The implementation is the straightforward iterated-refinement version
    (adequate at this repository's scale; Hopcroft-style worklists only
    change the complexity constant). *)

module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ast = Ipcp_frontend.Ast

(* Node labels.  Two definitions can only ever be congruent when their
   labels are equal. *)
type label =
  | Lconst of int
  | Lentry of string
  | Lunop of Ast.unop
  | Lbinop of Ast.binop
  | Lintrin of Ast.intrinsic
  | Lphi of int  (** phis congruent only within the same join block *)
  | Lopaque of int  (** unique: loads, reads, call effects *)

type node = {
  n_var : Instr.var;
  n_label : label;
  n_args : Instr.var list;  (** operand names (constants become nodes too) *)
  n_commutative : bool;
}

type t = { class_of : (Instr.var, int) Hashtbl.t }

let const_name n = Printf.sprintf "$const:%d" n

let compute (cfg : Cfg.t) : t =
  let nodes : (Instr.var, node) Hashtbl.t = Hashtbl.create 64 in
  let opaque = ref 0 in
  let consts = Hashtbl.create 16 in
  let mk_const n =
    let v = const_name n in
    if not (Hashtbl.mem consts n) then begin
      Hashtbl.add consts n ();
      Hashtbl.replace nodes v
        { n_var = v; n_label = Lconst n; n_args = []; n_commutative = false }
    end;
    v
  in
  (* copy chains collapse: find the representative of an operand *)
  let copy_of : (Instr.var, Instr.var) Hashtbl.t = Hashtbl.create 16 in
  let rec repr v =
    match Hashtbl.find_opt copy_of v with Some w -> repr w | None -> v
  in
  let ensure_entry v =
    if not (Hashtbl.mem nodes v) then
      Hashtbl.replace nodes v
        {
          n_var = v;
          n_label =
            (if Ipcp_ir.Ssa.is_entry_version v then
               Lentry (Ipcp_ir.Ssa.base_name v)
             else (
               incr opaque;
               Lopaque !opaque));
          n_args = [];
          n_commutative = false;
        }
  in
  let operand = function
    | Instr.Oint n -> mk_const n
    | Instr.Ovar (v, _) -> repr v
  in
  (* first pass: record copies so they collapse before node construction *)
  Cfg.iter_instrs
    (fun _ i ->
      match i with
      | Instr.Idef (x, Instr.Rcopy (Instr.Ovar (y, _)), _) ->
          Hashtbl.replace copy_of x y
      | _ -> ())
    cfg;
  (* second pass: build nodes *)
  let add x label args commutative =
    Hashtbl.replace nodes x
      { n_var = x; n_label = label; n_args = args; n_commutative = commutative }
  in
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun (p : Cfg.phi) ->
          add p.Cfg.dest (Lphi b.Cfg.bid)
            (List.map (fun (_, v) -> repr v) p.Cfg.srcs)
            false)
        b.Cfg.phis;
      List.iter
        (fun i ->
          match i with
          | Instr.Idef (_, Instr.Rcopy _, _) -> () (* collapsed *)
          | Instr.Idef (x, Instr.Runop (op, o), _) ->
              add x (Lunop op) [ operand o ] false
          | Instr.Idef (x, Instr.Rbinop (op, a, b'), _) ->
              add x (Lbinop op)
                [ operand a; operand b' ]
                (match op with Ast.Add | Ast.Mul -> true | _ -> false)
          | Instr.Idef (x, Instr.Rintrin (intr, ops), _) ->
              add x (Lintrin intr) (List.map operand ops) false
          | Instr.Idef (x, (Instr.Rload _ | Instr.Rread | Instr.Rresult _ | Instr.Rcalldef _), _) ->
              incr opaque;
              add x (Lopaque !opaque) [] false
          | _ -> ())
        b.Cfg.instrs)
    cfg.Cfg.blocks;
  (* copy targets that never got a node (copy of a constant) *)
  Cfg.iter_instrs
    (fun _ i ->
      match i with
      | Instr.Idef (x, Instr.Rcopy (Instr.Oint n), _) ->
          Hashtbl.replace copy_of x (mk_const n)
      | _ -> ())
    cfg;
  (* make sure every referenced operand has a node, including variables
     that only ever appear as copy sources *)
  Hashtbl.iter
    (fun _ (n : node) -> List.iter ensure_entry n.n_args)
    (Hashtbl.copy nodes);
  Hashtbl.iter (fun x _ -> ensure_entry (repr x)) copy_of;

  (* initial partition: by label *)
  let class_of : (Instr.var, int) Hashtbl.t = Hashtbl.create 64 in
  let next_class = ref 0 in
  let by_label = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v (n : node) ->
      let cls =
        match Hashtbl.find_opt by_label n.n_label with
        | Some c -> c
        | None ->
            let c = !next_class in
            incr next_class;
            Hashtbl.add by_label n.n_label c;
            c
      in
      Hashtbl.replace class_of v cls)
    nodes;
  let cls v =
    match Hashtbl.find_opt class_of (repr v) with
    | Some c -> c
    | None -> -1
  in
  (* refinement: split classes whose members disagree on operand classes *)
  let signature (n : node) =
    let args = List.map cls n.n_args in
    if n.n_commutative then List.sort compare args else args
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* group current members per class *)
    let members = Hashtbl.create 16 in
    Hashtbl.iter
      (fun v c ->
        let l = Option.value ~default:[] (Hashtbl.find_opt members c) in
        Hashtbl.replace members c (v :: l))
      class_of;
    Hashtbl.iter
      (fun _ vs ->
        match vs with
        | [] | [ _ ] -> ()
        | vs ->
            (* partition members by operand signature *)
            let groups = Hashtbl.create 8 in
            List.iter
              (fun v ->
                match Hashtbl.find_opt nodes v with
                | None -> ()
                | Some n ->
                    let s = signature n in
                    let l = Option.value ~default:[] (Hashtbl.find_opt groups s) in
                    Hashtbl.replace groups s (v :: l))
              vs;
            if Hashtbl.length groups > 1 then begin
              changed := true;
              (* keep the first group, renumber the rest *)
              let first = ref true in
              Hashtbl.iter
                (fun _ group ->
                  if !first then first := false
                  else begin
                    let c = !next_class in
                    incr next_class;
                    List.iter (fun v -> Hashtbl.replace class_of v c) group
                  end)
                groups
            end)
      members
  done;
  (* copies inherit their representative's class *)
  Hashtbl.iter
    (fun x _ ->
      match Hashtbl.find_opt class_of (repr x) with
      | Some c -> Hashtbl.replace class_of x c
      | None -> ())
    copy_of;
  { class_of }

let congruent (t : t) a b =
  match (Hashtbl.find_opt t.class_of a, Hashtbl.find_opt t.class_of b) with
  | Some x, Some y -> x = y
  | _ -> false
