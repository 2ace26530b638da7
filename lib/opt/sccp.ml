(** Sparse conditional constant propagation (Wegman–Zadeck), on SSA form.

    The paper's §5 contrasts the jump-function framework with
    Wegman–Zadeck's approach of combining constant propagation with
    {e conditional-branch} reasoning; this module supplies that algorithm
    as an intraprocedural engine: the classic optimistic lattice
    propagation that only follows branches whose controlling conditions
    can execute, so code behind a constant-false test never lowers a phi.

    Like the symbolic evaluator, call effects are delegated to a
    {!Ipcp_core.Symeval.policy}-shaped argument — but over the flat
    constant lattice.  SCCP and the symbolic evaluator are incomparable in
    precision: SCCP prunes dead branches ([Symeval] does not), while the
    symbolic evaluator proves algebraic facts like [x - x = 0] (SCCP does
    not).  The test suite exercises both directions. *)

open Ipcp_frontend
open Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Clattice = Ipcp_domains.Clattice

type t = {
  values : (Instr.var, Clattice.t) Hashtbl.t;
  executable : bool array;  (** per block *)
  edge_executable : (int * int, bool) Hashtbl.t;
}

let value t v = Option.value ~default:Clattice.Top (Hashtbl.find_opt t.values v)

(** Call-effect oracle over the constant lattice. *)
type call_oracle = {
  c_calldef : Instr.site -> Instr.call_target -> Clattice.t -> Clattice.t;
      (** site, target, incoming value *)
  c_result : Instr.site -> Clattice.t;
}

let worst_case_oracle =
  {
    c_calldef = (fun _ _ _ -> Clattice.Bottom);
    c_result = (fun _ -> Clattice.Bottom);
  }

(** Build an oracle from MOD summaries: unmodified targets are transparent,
    modified ones unknown (no return jump functions — SCCP is the
    {e intraprocedural} baseline). *)
let mod_oracle (modref : Ipcp_summary.Modref.t) =
  {
    c_calldef =
      (fun site target incoming ->
        if Ipcp_summary.Modref.may_modify modref ~callee:site.Instr.callee target
        then Clattice.Bottom
        else incoming);
    c_result = (fun _ -> Clattice.Bottom);
  }

let run ?(oracle = worst_case_oracle)
    ?(entry_binding = fun (_ : string) -> (None : Clattice.t option))
    ~(psym : Symtab.proc_sym) ~(data : int SM.t) (ssa : Cfg.t) : t =
  let nblocks = Array.length ssa.Cfg.blocks in
  let values : (Instr.var, Clattice.t) Hashtbl.t = Hashtbl.create 128 in
  let executable = Array.make nblocks false in
  let edge_executable : (int * int, bool) Hashtbl.t = Hashtbl.create 32 in

  let entry_value base =
    let scalar_entry =
      match Symtab.var psym base with
      | Some vi when Symtab.is_array vi -> false
      | Some { Symtab.kind = Symtab.Formal _ | Symtab.Global _; _ } -> true
      | _ -> false
    in
    if scalar_entry then
      match entry_binding base with
      | Some v -> v
      | None -> Clattice.Bottom (* unknown caller *)
    else
      match SM.find_opt base data with
      | Some v -> Clattice.Const v
      | None -> Clattice.Bottom
  in
  let lookup v =
    match Hashtbl.find_opt values v with
    | Some x -> x
    | None ->
        if Ssa.is_entry_version v then entry_value (Ssa.base_name v)
        else Clattice.Top
  in
  let operand = function
    | Instr.Oint n -> Clattice.Const n
    | Instr.Ovar (v, _) -> lookup v
  in

  (* worklists *)
  let flow : (int * int) Queue.t = Queue.create () in
  let ssa_work : int Queue.t = Queue.create () in
  (* blocks whose instructions must be (re)visited *)
  let mark_edge (s, d) =
    if Hashtbl.find_opt edge_executable (s, d) <> Some true then begin
      Hashtbl.replace edge_executable (s, d) true;
      Queue.add (s, d) flow
    end
  in
  let set v nv =
    let old = lookup v in
    let nv = Clattice.meet old nv in
    if not (Clattice.equal nv old) then begin
      Hashtbl.replace values v nv;
      (* revisit every executable block: simple and adequate at our
         scale (classic SCCP chases SSA def-use chains instead) *)
      Array.iteri (fun b ex -> if ex then Queue.add b ssa_work) executable
    end
  in

  let eval_rhs (r : Instr.rhs) site_of =
    match r with
    | Instr.Rcopy o -> operand o
    | Instr.Runop (Ast.Neg, o) -> (
        match operand o with
        | Clattice.Const c -> Clattice.Const (-c)
        | v -> v)
    | Instr.Rbinop (op, a, b) -> (
        match (operand a, operand b) with
        | Clattice.Bottom, _ | _, Clattice.Bottom -> Clattice.Bottom
        | Clattice.Top, _ | _, Clattice.Top -> Clattice.Top
        | Clattice.Const x, Clattice.Const y -> (
            match Ast.eval_binop op x y with
            | Some v -> Clattice.Const v
            | None -> Clattice.Bottom))
    | Instr.Rintrin (i, ops) -> (
        let vs = List.map operand ops in
        if List.exists (fun v -> v = Clattice.Bottom) vs then Clattice.Bottom
        else if List.exists (fun v -> v = Clattice.Top) vs then Clattice.Top
        else
          let cs =
            List.map (function Clattice.Const c -> c | _ -> 0) vs
          in
          match Ast.eval_intrin i cs with
          | Some v -> Clattice.Const v
          | None -> Clattice.Bottom)
    | Instr.Rload _ | Instr.Rread -> Clattice.Bottom
    | Instr.Rresult sid -> oracle.c_result (site_of sid)
    | Instr.Rcalldef (sid, target, inc) ->
        oracle.c_calldef (site_of sid) target (operand inc)
  in

  let site_tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Instr.site) -> Hashtbl.replace site_tbl s.Instr.site_id s)
    ssa.Cfg.sites;
  let site_of sid = Hashtbl.find site_tbl sid in

  let visit_phis b =
    let preds_exec p = Hashtbl.find_opt edge_executable (p, b) = Some true in
    List.iter
      (fun (phi : Cfg.phi) ->
        let v =
          List.fold_left
            (fun acc (p, src) ->
              if preds_exec p then Clattice.meet acc (lookup src) else acc)
            Clattice.Top phi.Cfg.srcs
        in
        set phi.Cfg.dest v)
      ssa.Cfg.blocks.(b).Cfg.phis
  in
  let visit_block b =
    visit_phis b;
    List.iter
      (fun i ->
        match i with
        | Instr.Idef (x, r, _) -> set x (eval_rhs r site_of)
        | Instr.Istore _ | Instr.Icall _ | Instr.Iprint _ -> ())
      ssa.Cfg.blocks.(b).Cfg.instrs;
    (* terminator: only mark provably-possible out-edges *)
    match ssa.Cfg.blocks.(b).Cfg.term with
    | Cfg.Tjump d -> mark_edge (b, d)
    | Cfg.Tbranch (Cfg.Crel (op, a, b'), dt, df) -> (
        match (operand a, operand b') with
        | Clattice.Const x, Clattice.Const y ->
            if Ast.eval_relop op x y then mark_edge (b, dt)
            else mark_edge (b, df)
        | Clattice.Top, _ | _, Clattice.Top -> () (* not yet known *)
        | _ ->
            mark_edge (b, dt);
            mark_edge (b, df))
    | Cfg.Treturn | Cfg.Tstop -> ()
  in

  executable.(0) <- true;
  Queue.add 0 ssa_work;
  let continue = ref true in
  while !continue do
    if not (Queue.is_empty flow) then begin
      let s, d = Queue.pop flow in
      ignore s;
      if not executable.(d) then begin
        executable.(d) <- true;
        Queue.add d ssa_work
      end
      else Queue.add d ssa_work (* new edge: phis must re-meet *)
    end
    else if not (Queue.is_empty ssa_work) then begin
      let b = Queue.pop ssa_work in
      if executable.(b) then visit_block b
    end
    else continue := false
  done;
  { values; executable; edge_executable }

(** Count the constant-valued substitutable source uses found by SCCP,
    restricted to executable blocks — the metric shared with the other
    engines. *)
let count_proc (t : t) (ssa : Cfg.t) : int =
  let n = ref 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      if t.executable.(b.Cfg.bid) then begin
        (* reuse the canonical operand walk on a single-block slice *)
        let slice =
          {
            ssa with
            Cfg.blocks = [| { b with Cfg.bid = 0 } |];
          }
        in
        Cfg.iter_value_operands
          (fun o ->
            match o with
            | Instr.Ovar (v, Some _) -> (
                match value t v with
                | Clattice.Const _ -> incr n
                | _ -> ())
            | _ -> ())
          slice
      end)
    ssa.Cfg.blocks;
  !n

(** Whole-program SCCP count (intraprocedural, MOD-aware): the
    conditional-branch-aware sibling of {!Intra.count}.  [verify_ir]
    sanity-checks every SSA CFG handed to the propagation. *)
let count ?(use_mod = true) ?(verify_ir = true) (symtab : Symtab.t) : int =
  Ipcp_obs.Trace.span "pass:sccp" @@ fun () ->
  let cfgs = Ipcp_ir.Lower.lower_program symtab in
  let cg =
    Ipcp_callgraph.Callgraph.build ~main:symtab.Symtab.main
      ~order:symtab.Symtab.order cfgs
  in
  let oracle =
    if use_mod then mod_oracle (Ipcp_summary.Modref.compute symtab cfgs cg)
    else worst_case_oracle
  in
  List.fold_left
    (fun acc p ->
      let psym = Symtab.proc symtab p in
      let ssa = Ssa.convert (SM.find p cfgs) in
      if verify_ir then
        Ipcp_verify.Verify.expect_ok ~what:"SCCP input construction"
          (Ipcp_verify.Verify.check_ssa ~symtab ssa);
      let entry_binding name =
        if p = symtab.Symtab.main then
          match SM.find_opt name symtab.Symtab.globals with
          | Some { Symtab.gdim = None; init = Some c; _ } ->
              Some (Clattice.Const c)
          | _ -> None
        else None
      in
      let t =
        run ~oracle ~entry_binding ~psym ~data:psym.Symtab.data ssa
      in
      acc + count_proc t ssa)
    0 symtab.Symtab.order
  |> fun n ->
  Ipcp_obs.Metrics.add "sccp.constants" n;
  n
