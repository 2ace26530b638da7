(** Return jump functions.

    For each procedure [p] and each value it can hand back to a caller — a
    by-reference formal it may modify, a COMMON global, or (for functions)
    its result — the return jump function [R_p^x] is the best symbolic
    approximation of that value on return from [p], expressed over [p]'s
    entry symbols.  They are computed in a single bottom-up pass over the
    call graph ("during an initial bottom-up pass through the call graph"),
    using interprocedural MOD information, intraprocedural constants, and
    the return jump functions of procedures already analysed.  Within a
    recursive SCC the not-yet-available callee functions are treated as ⊥,
    which is conservative (FORTRAN programs — and the paper — have acyclic
    call graphs).

    A return jump function is the meet of the exit value over every
    [RETURN] path; [STOP] paths never return and do not contribute.  A
    procedure with no returning path gets ⊤ functions (its callers' post-
    call code is unreachable). *)

open Ipcp_frontend.Names
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Symtab = Ipcp_frontend.Symtab
module Symexpr = Ipcp_vn.Symexpr
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Modref = Ipcp_summary.Modref

type rtarget = RFormal of int | RGlobal of string | RResult

let pp_rtarget ppf = function
  | RFormal i -> Fmt.pf ppf "arg%d" i
  | RGlobal g -> Fmt.pf ppf "/%s/" g
  | RResult -> Fmt.string ppf "<result>"

module RT = Map.Make (struct
  type t = rtarget

  let compare = compare
end)

type t = Symeval.value RT.t SM.t
(** procedure -> return target -> value over the procedure's entry symbols *)

let empty : t = SM.empty

let find (t : t) ~proc ~target =
  Option.bind (SM.find_opt proc t) (RT.find_opt target)

(** Evaluate the return jump function for [target] of [callee] at a call
    site, per the paper's rule: the function is evaluated with
    {e intraprocedurally constant} actuals only; if some support value is
    not constant, the result is ⊥ ("return jump functions that depend on
    parameters to the calling procedure can never be evaluated as
    constant").  With [symbolic] set, supports are substituted by their full
    symbolic values instead — the gated-SSA-style extension. *)
let eval_at (t : t) ~(callee_psym : Symtab.proc_sym) ~target
    ~(view : Symeval.site_view) ~symbolic : Symeval.value =
  let callee = callee_psym.Symtab.proc.Ipcp_frontend.Ast.name in
  match find t ~proc:callee ~target with
  | None -> Symeval.Bottom
  | Some Symeval.Bottom -> Symeval.Bottom
  | Some Symeval.Top -> Symeval.Top (* callee never returns *)
  | Some (Symeval.Sexp e) -> (
      let formals = Array.of_list (Symtab.formals callee_psym) in
      let position name =
        let rec go i =
          if i >= Array.length formals then None
          else if formals.(i) = name then Some i
          else go (i + 1)
        in
        go 0
      in
      (* the value, at the call site, of one of the callee's entry symbols *)
      let support_value (name : string) : Symeval.value =
        match position name with
        | Some j -> view.Symeval.actual j
        | None -> view.Symeval.global_at name
      in
      if symbolic then
        (* substitute full symbolic values; ⊥/⊤ supports dominate *)
        let supports = SS.elements (Symexpr.support e) in
        let values = List.map (fun s -> (s, support_value s)) supports in
        if List.exists (fun (_, v) -> v = Symeval.Bottom) values then
          Symeval.Bottom
        else if List.exists (fun (_, v) -> v = Symeval.Top) values then
          Symeval.Top
        else
          let lookup s =
            match List.assoc_opt s values with
            | Some (Symeval.Sexp x) -> Some x
            | _ -> None
          in
          Symeval.clip (Symeval.Sexp (Symexpr.subst lookup e))
      else
        (* paper-faithful: constants only *)
        let lookup s = Symeval.is_const (support_value s) in
        match Symexpr.eval lookup e with
        | Some c -> Symeval.const c
        | None -> Symeval.Bottom)

(* ------------------------------------------------------------------ *)
(* Construction *)

(** The call-site policy used both while {e building} return jump functions
    and later while building forward jump functions: a call target keeps
    its incoming value when MOD says the callee cannot touch it; otherwise
    the callee's return jump function is evaluated; otherwise ⊥. *)
let policy ~(symtab : Symtab.t) ~(modref : Modref.t option) ~(rjfs : t)
    ~symbolic : Symeval.policy =
  let may_modify (view : Symeval.site_view) target =
    match modref with
    | None -> true (* no MOD information: worst case *)
    | Some m ->
        Modref.may_modify m ~callee:view.Symeval.sv_site.Instr.callee target
  in
  let rtarget_of = function
    | Instr.Tformal i -> RFormal i
    | Instr.Tglobal g -> RGlobal g
    | Instr.Tcaller -> assert false
  in
  {
    Symeval.on_calldef =
      (fun view target incoming ->
        match target with
        | Instr.Tcaller ->
            (* a callee can never modify an unpassed caller scalar, but
               only MOD information licenses assuming so *)
            if modref <> None then incoming else Symeval.Bottom
        | _ ->
            if not (may_modify view target) then incoming
            else
              match
                Symtab.find_proc symtab view.Symeval.sv_site.Instr.callee
              with
              | None -> Symeval.Bottom
              | Some callee_psym ->
                  eval_at rjfs ~callee_psym ~target:(rtarget_of target) ~view
                    ~symbolic);
    on_result =
      (fun view ->
        match Symtab.find_proc symtab view.Symeval.sv_site.Instr.callee with
        | None -> Symeval.Bottom
        | Some callee_psym ->
            eval_at rjfs ~callee_psym ~target:RResult ~view ~symbolic);
  }

(** Return jump functions for one procedure, given those of its callees. *)
let of_proc ~(symtab : Symtab.t) ~(modref : Modref.t option) ~(rjfs : t)
    ~symbolic (psym : Symtab.proc_sym) (conv : Ssa.conv) : Symeval.value RT.t =
  let pol = policy ~symtab ~modref ~rjfs ~symbolic in
  let ev = Symeval.run ~symtab ~psym ~policy:pol conv.Ssa.ssa in
  let exit_value name =
    (* meet over RETURN exits only; STOP paths never return *)
    List.fold_left
      (fun acc (_, term, env) ->
        match term with
        | Cfg.Treturn -> (
            match SM.find_opt name env with
            | Some v -> Symeval.value_meet acc (Symeval.value ev v)
            | None ->
                (* the variable never occurs in the procedure: its exit
                   value is its entry value *)
                Symeval.value_meet acc (Symeval.Sexp (Symexpr.sym name)))
        | _ -> acc)
      Symeval.Top conv.Ssa.exits
  in
  let proc = psym.Symtab.proc in
  let targets = ref RT.empty in
  List.iteri
    (fun i f ->
      if not (Symtab.is_array (Symtab.var_exn psym f)) then
        targets := RT.add (RFormal i) (exit_value f) !targets)
    proc.Ipcp_frontend.Ast.formals;
  List.iter
    (fun g ->
      match SM.find_opt g symtab.Symtab.globals with
      | Some { Symtab.gdim = None; _ } ->
          targets := RT.add (RGlobal g) (exit_value g) !targets
      | _ -> ())
    (Symtab.global_names symtab);
  if proc.Ipcp_frontend.Ast.kind = Ipcp_frontend.Ast.Function then
    targets := RT.add RResult (exit_value proc.Ipcp_frontend.Ast.name) !targets;
  !targets

(** Build all return jump functions, bottom-up over the call graph.
    [?scc] reuses an already-computed condensation of [cg].  [?base]
    lets the incremental engine keep a procedure's stored functions
    instead of re-running its symbolic evaluation: a procedure with an
    entry in [base] takes it verbatim.  Sound only when [p] and
    everything [p] transitively calls are unchanged since [base] was
    computed. *)
let compute ?scc ?(base : t = empty) ~(symtab : Symtab.t)
    ~(modref : Modref.t option) ~(convs : Ssa.conv SM.t) ~(cg : Callgraph.t)
    ~symbolic () : t =
  let scc = match scc with Some s -> s | None -> Scc.compute cg in
  List.fold_left
    (fun rjfs comp ->
      (* within an SCC, callee functions default to ⊥ (absent) *)
      List.fold_left
        (fun rjfs p ->
          match SM.find_opt p base with
          | Some entry -> SM.add p entry rjfs
          | None ->
              let psym = Symtab.proc symtab p in
              let conv = SM.find p convs in
              SM.add p (of_proc ~symtab ~modref ~rjfs ~symbolic psym conv) rjfs)
        rjfs comp)
    empty (Scc.bottom_up scc)

let pp ppf (t : t) =
  SM.iter
    (fun p m ->
      RT.iter
        (fun target v ->
          Fmt.pf ppf "R[%s, %a] = %a@." p pp_rtarget target Symeval.pp_value v)
        m)
    t
