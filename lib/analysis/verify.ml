(** Structural well-formedness verifier for the lowered IR and its SSA
    form — the pass sanitizer.

    The analyses and transformations in this repository all assume a set
    of invariants that nothing previously checked:

    - block ids are dense and match their array index, and every
      terminator's successors are in range ("every block terminated");
    - phi sources agree with the predecessor lists in both directions:
      one source per {e reachable} predecessor, and every source block is
      actually a predecessor;
    - in SSA form every versioned name is defined exactly once, and every
      use is dominated by its definition (via {!Ipcp_ir.Dom});
    - call sites are internally consistent ([Icall]/[sites] agree,
      [Rresult]/[Rcalldef] reference real sites) and, when a symbol table
      is supplied, each site's arity and argument shapes match the
      callee's formals.

    [check_*] return a list of structured {!violation}s naming the
    offending procedure and block; {!expect_ok} converts a non-empty list
    into a {!Ipcp_frontend.Diag} analysis error so a corrupting pass
    fails loudly.  The checks are pure observations — a verified CFG is
    returned untouched. *)

open Ipcp_frontend.Names
module Diag = Ipcp_frontend.Diag
module Loc = Ipcp_frontend.Loc
module Ast = Ipcp_frontend.Ast
module Sema = Ipcp_frontend.Sema
module Symtab = Ipcp_frontend.Symtab
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Dom = Ipcp_ir.Dom
module Lower = Ipcp_ir.Lower

type kind =
  | Vblock  (** block numbering / terminator targets *)
  | Vedge  (** predecessor/successor inconsistency *)
  | Vphi  (** phi shape or arity *)
  | Vdef  (** SSA single-definition discipline *)
  | Vdom  (** a use not dominated by its definition *)
  | Vcall  (** call-site bookkeeping or symbol-table mismatch *)

let kind_name = function
  | Vblock -> "block"
  | Vedge -> "edge"
  | Vphi -> "phi"
  | Vdef -> "def"
  | Vdom -> "dom"
  | Vcall -> "call"

type violation = {
  v_proc : string;
  v_block : int;  (** offending block id, or -1 for whole-CFG violations *)
  v_kind : kind;
  v_msg : string;
}

let pp_violation ppf v =
  if v.v_block >= 0 then
    Fmt.pf ppf "%s/B%d: %s: %s" v.v_proc v.v_block (kind_name v.v_kind) v.v_msg
  else Fmt.pf ppf "%s: %s: %s" v.v_proc (kind_name v.v_kind) v.v_msg

let violation_to_string v = Fmt.str "%a" pp_violation v

(* ------------------------------------------------------------------ *)

(** Structural checks that must pass before any graph traversal is safe:
    dense block numbering and in-range terminator successors. *)
let check_structure (cfg : Cfg.t) : violation list =
  let n = Array.length cfg.Cfg.blocks in
  let vs = ref [] in
  let add ~block kind fmt =
    Format.kasprintf
      (fun m ->
        vs :=
          { v_proc = cfg.Cfg.proc_name; v_block = block; v_kind = kind; v_msg = m }
          :: !vs)
      fmt
  in
  if n = 0 then add ~block:(-1) Vblock "CFG has no blocks (missing entry)";
  Array.iteri
    (fun i (b : Cfg.block) ->
      if b.Cfg.bid <> i then
        add ~block:i Vblock "block id %d does not match its index %d" b.Cfg.bid i;
      let target t =
        if t < 0 || t >= n then
          add ~block:i Vblock "terminator successor B%d out of range (%d blocks)"
            t n
      in
      match b.Cfg.term with
      | Cfg.Tjump t -> target t
      | Cfg.Tbranch (_, t1, t2) ->
          target t1;
          target t2
      | Cfg.Treturn | Cfg.Tstop -> ())
    cfg.Cfg.blocks;
  List.rev !vs

(* ------------------------------------------------------------------ *)

let site_ids (cfg : Cfg.t) =
  List.fold_left
    (fun s (site : Instr.site) -> site.Instr.site_id :: s)
    [] cfg.Cfg.sites

(** Call-site bookkeeping: [sites] vs [Icall] instructions, site-id
    references from [Rresult]/[Rcalldef], and — with a symbol table — the
    callee's existence, kind, arity and argument shapes. *)
let check_calls ?symtab (cfg : Cfg.t) : violation list =
  let vs = ref [] in
  let add ~block fmt =
    Format.kasprintf
      (fun m ->
        vs :=
          { v_proc = cfg.Cfg.proc_name; v_block = block; v_kind = Vcall; v_msg = m }
          :: !vs)
      fmt
  in
  let ids = site_ids cfg in
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then
    add ~block:(-1) "duplicate site ids in the CFG's site list";
  List.iter
    (fun (s : Instr.site) ->
      if s.Instr.caller <> cfg.Cfg.proc_name then
        add ~block:(-1) "site %d records caller %s in procedure %s"
          s.Instr.site_id s.Instr.caller cfg.Cfg.proc_name)
    cfg.Cfg.sites;
  let known sid = List.mem sid sorted in
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun i ->
          match i with
          | Instr.Icall s ->
              if not (known s.Instr.site_id) then
                add ~block:b.Cfg.bid "call instruction for unregistered site %d"
                  s.Instr.site_id
          | Instr.Idef (_, Instr.Rresult sid, _) ->
              if not (known sid) then
                add ~block:b.Cfg.bid "Rresult references unknown site %d" sid
          | Instr.Idef (_, Instr.Rcalldef (sid, _, _), _) ->
              if not (known sid) then
                add ~block:b.Cfg.bid "Rcalldef references unknown site %d" sid
          | _ -> ())
        b.Cfg.instrs)
    cfg.Cfg.blocks;
  (match symtab with
  | None -> ()
  | Some st ->
      List.iter
        (fun (s : Instr.site) ->
          match Symtab.find_proc st s.Instr.callee with
          | None ->
              add ~block:(-1) "site %d calls unknown procedure %s"
                s.Instr.site_id s.Instr.callee
          | Some callee ->
              let formals = Symtab.formals callee in
              let n_formals = List.length formals
              and n_args = List.length s.Instr.args in
              if n_args <> n_formals then
                add ~block:(-1)
                  "site %d calls %s with %d argument(s), %d formal(s) declared"
                  s.Instr.site_id s.Instr.callee n_args n_formals
              else
                List.iteri
                  (fun i (f, arg) ->
                    let farr =
                      match Symtab.var callee f with
                      | Some vi -> Symtab.is_array vi
                      | None -> false
                    in
                    match (arg, farr) with
                    | Instr.Aarray _, false ->
                        add ~block:(-1)
                          "site %d: argument %d of %s is a whole array but \
                           formal %s is scalar"
                          s.Instr.site_id (i + 1) s.Instr.callee f
                    | Instr.Ascalar _, true ->
                        add ~block:(-1)
                          "site %d: argument %d of %s is scalar but formal %s \
                           is an array"
                          s.Instr.site_id (i + 1) s.Instr.callee f
                    | _ -> ())
                  (List.combine formals s.Instr.args);
              (match (s.Instr.result, callee.Symtab.proc.Ast.kind) with
              | Some _, (Ast.Main | Ast.Subroutine) ->
                  add ~block:(-1)
                    "site %d expects a result from non-function %s"
                    s.Instr.site_id s.Instr.callee
              | None, Ast.Function ->
                  add ~block:(-1) "site %d drops the result of function %s"
                    s.Instr.site_id s.Instr.callee
              | _ -> ()))
        cfg.Cfg.sites);
  List.rev !vs

(* ------------------------------------------------------------------ *)

(** Phi shape: absent before SSA; in SSA form, one source per reachable
    predecessor, each source block an actual predecessor. *)
let check_phis ~ssa (cfg : Cfg.t) : violation list =
  let vs = ref [] in
  let add ?(kind = Vphi) ~block fmt =
    Format.kasprintf
      (fun m ->
        vs :=
          { v_proc = cfg.Cfg.proc_name; v_block = block; v_kind = kind; v_msg = m }
          :: !vs)
      fmt
  in
  let preds = Cfg.preds cfg in
  let reach = Cfg.reachable cfg in
  Array.iter
    (fun (b : Cfg.block) ->
      match b.Cfg.phis with
      | [] -> ()
      | phis when not ssa ->
          add ~block:b.Cfg.bid "%d phi(s) present before SSA construction"
            (List.length phis)
      | phis ->
          let rpreds =
            List.filter (fun p -> reach.(p)) preds.(b.Cfg.bid)
            |> List.sort_uniq compare
          in
          List.iter
            (fun (p : Cfg.phi) ->
              let srcs = List.map fst p.Cfg.srcs in
              let ssrcs = List.sort_uniq compare srcs in
              if List.length ssrcs <> List.length srcs then
                add ~block:b.Cfg.bid "phi for %s has duplicate source blocks"
                  p.Cfg.dest
              else if List.exists (fun s -> not (List.mem s rpreds)) ssrcs then
                (* a source block with no corresponding CFG edge: the
                   backward edge list disagrees with the forward one *)
                add ~kind:Vedge ~block:b.Cfg.bid
                  "phi for %s has source block(s) {%s} that are not \
                   predecessors"
                  p.Cfg.dest
                  (String.concat ", "
                     (List.filter_map
                        (fun s ->
                          if List.mem s rpreds then None
                          else Some (Fmt.str "B%d" s))
                        ssrcs))
              else if ssrcs <> rpreds then
                add ~block:b.Cfg.bid
                  "phi for %s has sources {%s} but reachable predecessors are \
                   {%s}"
                  p.Cfg.dest
                  (String.concat ", " (List.map (Fmt.str "B%d") ssrcs))
                  (String.concat ", " (List.map (Fmt.str "B%d") rpreds)))
            phis)
    cfg.Cfg.blocks;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* SSA discipline: names versioned, defined exactly once, uses dominated
   by definitions. *)

let is_versioned v = String.contains v '#'

(** Uses of an instruction that are subject to the dominance discipline
    (all of {!Instr.uses}). *)
let instr_uses = Instr.uses

let term_uses (t : Cfg.terminator) =
  match t with
  | Cfg.Tbranch (Cfg.Crel (_, a, b), _, _) -> Instr.operand_vars [ a; b ]
  | _ -> []

let check_ssa_names (cfg : Cfg.t) : violation list =
  let vs = ref [] in
  let add ~block kind fmt =
    Format.kasprintf
      (fun m ->
        vs :=
          { v_proc = cfg.Cfg.proc_name; v_block = block; v_kind = kind; v_msg = m }
          :: !vs)
      fmt
  in
  let reach = Cfg.reachable cfg in
  (* definition sites: name -> (block, position); phis define at -1,
     instruction k defines at k *)
  let defs : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let define ~block ~pos v =
    if not (is_versioned v) then
      add ~block Vdef "definition of unversioned name %s in SSA form" v;
    match Hashtbl.find_opt defs v with
    | Some (b0, _) ->
        add ~block Vdef "%s defined more than once (first in B%d)" v b0
    | None -> Hashtbl.add defs v (block, pos)
  in
  Array.iter
    (fun (b : Cfg.block) ->
      if reach.(b.Cfg.bid) then begin
        List.iter (fun (p : Cfg.phi) -> define ~block:b.Cfg.bid ~pos:(-1) p.Cfg.dest)
          b.Cfg.phis;
        List.iteri
          (fun k i ->
            Option.iter (define ~block:b.Cfg.bid ~pos:k) (Instr.def i))
          b.Cfg.instrs
      end)
    cfg.Cfg.blocks;
  (* entry versions (x#0) are implicitly defined on entry *)
  let dom = Dom.compute cfg in
  let defined_at_entry v = is_versioned v && Ssa.version v = 0 in
  let check_use ~block ~pos v =
    if not (is_versioned v) then
      add ~block Vdom "use of unversioned name %s in SSA form" v
    else if not (defined_at_entry v) then
      match Hashtbl.find_opt defs v with
      | None -> add ~block Vdom "use of %s with no definition" v
      | Some (db, dpos) ->
          let ok =
            if db = block then dpos < pos
            else Dom.dominates dom db block
          in
          if not ok then
            add ~block Vdom "use of %s not dominated by its definition in B%d" v
              db
  in
  Array.iter
    (fun (b : Cfg.block) ->
      if reach.(b.Cfg.bid) then begin
        (* phi arguments must be defined at the end of their source block *)
        List.iter
          (fun (p : Cfg.phi) ->
            List.iter
              (fun (src, v) ->
                if not (is_versioned v) then
                  add ~block:b.Cfg.bid Vdom
                    "phi for %s has unversioned argument %s" p.Cfg.dest v
                else if not (defined_at_entry v) then
                  match Hashtbl.find_opt defs v with
                  | None ->
                      add ~block:b.Cfg.bid Vdom
                        "phi argument %s (from B%d) has no definition" v src
                  | Some (db, _) ->
                      if not (Dom.dominates dom db src) then
                        add ~block:b.Cfg.bid Vdom
                          "phi argument %s (from B%d) not available at the end \
                           of B%d (defined in B%d)"
                          v src src db)
              p.Cfg.srcs)
          b.Cfg.phis;
        List.iteri
          (fun k i ->
            List.iter (check_use ~block:b.Cfg.bid ~pos:k) (instr_uses i))
          b.Cfg.instrs;
        List.iter
          (check_use ~block:b.Cfg.bid ~pos:(List.length b.Cfg.instrs))
          (term_uses b.Cfg.term)
      end)
    cfg.Cfg.blocks;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Entry points *)

let check_cfg ?symtab ~ssa (cfg : Cfg.t) : violation list =
  Ipcp_obs.Trace.span "verify" @@ fun () ->
  Ipcp_obs.Metrics.incr "verify.checks";
  match check_structure cfg with
  | _ :: _ as vs -> vs (* graph traversals are unsafe; stop here *)
  | [] ->
      check_phis ~ssa cfg
      @ check_calls ?symtab cfg
      @ if ssa then check_ssa_names cfg else []

let check_lowered ?symtab cfg = check_cfg ?symtab ~ssa:false cfg

let check_ssa ?symtab cfg = check_cfg ?symtab ~ssa:true cfg

(** Check one freshly lowered procedure: the lowered-form checks, then,
    if they pass, SSA conversion and the SSA-form checks. *)
let check_proc ~symtab cfg =
  match check_lowered ~symtab cfg with
  | _ :: _ as low -> low
  | [] -> check_ssa ~symtab (Ssa.convert cfg)

(** Lower and SSA-convert a complete source text, collecting violations
    from both stages — the hook source-to-source passes use to prove they
    produced a well-formed program.  Raises {!Diag.Error} if the text no
    longer parses or checks (also a pass bug).  [jobs] parallelizes the
    per-procedure lower/SSA checks (the results are order-preserving
    either way). *)
let check_source ?(jobs = 1) ~file (src : string) : violation list =
  let symtab = Sema.parse_and_analyze ~file src in
  let cfgs = Lower.lower_program symtab in
  let check _ cfg = check_proc ~symtab cfg in
  let per =
    if jobs <= 1 then SM.mapi check cfgs
    else
      Ipcp_par.Pool.map_sm ~jobs
        ~cost:(fun _ cfg -> Cfg.weight cfg)
        ~seq_below:Ipcp_par.Pool.default_seq_cost check cfgs
  in
  SM.fold (fun _ vs acc -> acc @ vs) per []

(** Raise a {!Diag} analysis error when violations are present.  [what]
    names the producing stage ("lowering", "SSA construction", a pass). *)
let expect_ok ~what (vs : violation list) : unit =
  match vs with
  | [] -> ()
  | v :: _ ->
      Diag.error Diag.Analysis Loc.dummy
        "IR verification failed after %s: %a%s" what pp_violation v
        (match List.length vs with
        | 1 -> ""
        | n -> Fmt.str " (and %d more violation(s))" (n - 1))
