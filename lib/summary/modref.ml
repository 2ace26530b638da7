(** Interprocedural MOD/REF side-effect summaries.

    For each procedure [p], [MOD(p)] is the set of formal positions and
    COMMON globals an invocation of [p] may modify; [REF(p)] the set it may
    reference.  Both are computed in the classic Cooper–Kennedy style: an
    immediate (local) set from the procedure body, plus effects bound
    through call sites, iterated bottom-up over the call-graph SCC
    condensation until stable.

    The paper's Table 3 shows that this information is the single most
    valuable ingredient of interprocedural constant propagation: without
    it, every call kills every global and by-reference actual.

    Arrays are summarised at whole-array granularity.  REF is conservative
    for by-value uses at call sites (evaluating an actual expression counts
    as a reference in the caller). *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Symtab = Ipcp_frontend.Symtab
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc

type item = Pformal of int | Pglobal of string

let pp_item ppf = function
  | Pformal i -> Fmt.pf ppf "arg%d" i
  | Pglobal g -> Fmt.pf ppf "/%s/" g

module IS = Set.Make (struct
  type t = item

  let compare = compare
end)

type t = {
  mod_ : IS.t SM.t;
  ref_ : IS.t SM.t;
}

(* classify a source variable of procedure [psym] as a summary item *)
let item_of (psym : Symtab.proc_sym) v : item option =
  match Symtab.var psym v with
  | Some { Symtab.kind = Symtab.Formal i; _ } -> Some (Pformal i)
  | Some { Symtab.kind = Symtab.Global _; _ } -> Some (Pglobal v)
  | _ -> None

(* immediate (local) MOD and REF of one procedure, from its lowered CFG;
   call-induced effects are excluded here and bound in the fixpoint *)
let immediate (psym : Symtab.proc_sym) (cfg : Cfg.t) =
  let md = ref IS.empty and rf = ref IS.empty in
  let add_mod v = Option.iter (fun i -> md := IS.add i !md) (item_of psym v) in
  let add_ref v = Option.iter (fun i -> rf := IS.add i !rf) (item_of psym v) in
  let ref_operand = function
    | Instr.Ovar (v, _) -> add_ref v
    | Instr.Oint _ -> ()
  in
  Cfg.iter_instrs
    (fun _ i ->
      match i with
      | Instr.Idef (_, Instr.Rcalldef _, _) -> () (* call effect, bound later *)
      | Instr.Idef (x, rhs, _) ->
          add_mod x;
          (match rhs with
          | Instr.Rcopy o | Instr.Runop (_, o) -> ref_operand o
          | Instr.Rbinop (_, a, b) ->
              ref_operand a;
              ref_operand b
          | Instr.Rintrin (_, ops) -> List.iter ref_operand ops
          | Instr.Rload (a, i) ->
              add_ref a;
              ref_operand i
          | Instr.Rread | Instr.Rresult _ -> ()
          | Instr.Rcalldef _ -> assert false)
      | Instr.Istore (a, idx, v) ->
          add_mod a;
          ref_operand idx;
          ref_operand v
      | Instr.Icall s ->
          (* evaluating actual expressions references their variables;
             whole-array and by-reference effects are bound in the
             fixpoint *)
          List.iter
            (function
              | Instr.Ascalar (o, addr) -> (
                  ref_operand o;
                  match addr with
                  | Some (Instr.Aelem (a, i)) ->
                      add_ref a;
                      ref_operand i
                  | _ -> ())
              | Instr.Aarray _ -> ())
            s.Instr.args
      | Instr.Iprint ops -> List.iter ref_operand ops)
    cfg;
  Array.iter
    (fun (b : Cfg.block) ->
      match b.Cfg.term with
      | Cfg.Tbranch (Cfg.Crel (_, a, b'), _, _) ->
          ref_operand a;
          ref_operand b'
      | _ -> ())
    cfg.Cfg.blocks;
  (!md, !rf)

(* effects of callee [q_set] bound through the actuals of call site [s],
   expressed as items of the caller *)
let bind_site (psym : Symtab.proc_sym) (s : Instr.site) (q_set : IS.t) =
  let acc = ref IS.empty in
  List.iteri
    (fun j arg ->
      if IS.mem (Pformal j) q_set then
        match arg with
        | Instr.Ascalar (_, Some (Instr.Avar x)) ->
            Option.iter (fun i -> acc := IS.add i !acc) (item_of psym x)
        | Instr.Ascalar (_, Some (Instr.Aelem (a, _))) ->
            Option.iter (fun i -> acc := IS.add i !acc) (item_of psym a)
        | Instr.Ascalar (_, None) -> () (* by-value temporary *)
        | Instr.Aarray a ->
            Option.iter (fun i -> acc := IS.add i !acc) (item_of psym a))
    s.Instr.args;
  IS.iter
    (fun it -> match it with Pglobal _ -> acc := IS.add it !acc | _ -> ())
    q_set;
  !acc

(* bottom-up fixpoint over the condensation, iterating only the
   procedures with an immediate row in [imm]; the others' entries in the
   initial maps are taken as final (their callees must be final too for
   this to be sound — the incremental engine guarantees it by closing the
   dirty set under callers) *)
let fixpoint (symtab : Symtab.t) (cg : Callgraph.t) ~(imm : (IS.t * IS.t) SM.t)
    ~(mods0 : IS.t SM.t) ~(refs0 : IS.t SM.t) : t =
  let active p = SM.mem p imm in
  let scc = Scc.compute cg in
  let mods = ref mods0 in
  let refs = ref refs0 in
  (* iterate until stable to close recursive cycles *)
  let step () =
    let changed = ref false in
    List.iter
      (fun comp ->
        match List.filter active comp with
        | [] -> ()
        | members ->
            let stable = ref false in
            while not !stable do
              stable := true;
              List.iter
                (fun p ->
                  let psym = Symtab.proc symtab p in
                  let fold_sets get =
                    List.fold_left
                      (fun acc (e : Callgraph.edge) ->
                        let q_set =
                          Option.value ~default:IS.empty
                            (SM.find_opt e.Callgraph.e_callee (get ()))
                        in
                        IS.union acc (bind_site psym e.Callgraph.e_site q_set))
                      IS.empty
                      (Callgraph.edges_out cg p)
                  in
                  let m' =
                    IS.union (fst (SM.find p imm)) (fold_sets (fun () -> !mods))
                  in
                  let r' =
                    IS.union (snd (SM.find p imm)) (fold_sets (fun () -> !refs))
                  in
                  if not (IS.equal m' (SM.find p !mods)) then begin
                    mods := SM.add p m' !mods;
                    stable := false;
                    changed := true
                  end;
                  if not (IS.equal r' (SM.find p !refs)) then begin
                    refs := SM.add p r' !refs;
                    stable := false;
                    changed := true
                  end)
                members
            done)
      (Scc.bottom_up scc);
    !changed
  in
  while step () do
    ()
  done;
  { mod_ = !mods; ref_ = !refs }

let compute ?(clean = SM.empty) (symtab : Symtab.t) (cfgs : Cfg.t SM.t)
    (cg : Callgraph.t) : t =
  let imm =
    SM.mapi
      (fun name cfg -> immediate (Symtab.proc symtab name) cfg)
      (SM.filter (fun name _ -> not (SM.mem name clean)) cfgs)
  in
  let rows = SM.union (fun _ row _ -> Some row) imm clean in
  fixpoint symtab cg ~imm ~mods0:(SM.map fst rows) ~refs0:(SM.map snd rows)

(* ------------------------------------------------------------------ *)
(* Queries *)

let mod_of t p = Option.value ~default:IS.empty (SM.find_opt p t.mod_)

let ref_of t p = Option.value ~default:IS.empty (SM.find_opt p t.ref_)

(** May the call at this site modify the given target (a formal position of
    the callee, or a global)? *)
let may_modify t ~callee (target : Instr.call_target) =
  let s = mod_of t callee in
  match target with
  | Instr.Tformal i -> IS.mem (Pformal i) s
  | Instr.Tglobal g -> IS.mem (Pglobal g) s
  | Instr.Tcaller -> false (* unpassed caller scalars are untouchable *)

let pp ppf t =
  SM.iter
    (fun p m ->
      Fmt.pf ppf "MOD(%s) = {%a}@." p
        Fmt.(list ~sep:(any ", ") pp_item)
        (IS.elements m))
    t.mod_
