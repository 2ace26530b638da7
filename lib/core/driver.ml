(** The four-stage interprocedural constant propagation pipeline.

    Following the paper's §4.1, execution proceeds in four stages:

    1. {e generation of return jump functions} — a bottom-up walk of the
       call graph ({!Returnjf.compute});
    2. {e generation of forward jump functions} — a pass over every
       procedure's SSA form and value numbering ({!Symeval} and
       {!Jumpfn.of_site});
    3. {e interprocedural propagation of constants} — the worklist solver
       ({!Solver.solve});
    4. {e recording the results} — CONSTANTS sets, plus the entry-bound
       re-evaluation used by the substitution pass ({!final_eval}).

    The preparatory analyses (lowering, SSA conversion, call graph, MOD/REF
    summaries) run before stage 1.

    [analyze] is the only code that sequences these steps.  The
    incremental engine (lib/incr) hands it what an earlier run still
    justifies keeping, as a {!reuse}, and each step takes its part
    through its own reuse entry point: lowering and SSA skip the kept
    CFGs, MOD/REF ({!Modref.compute}'s [clean] rows) and stage 1
    ({!Returnjf.compute}'s [base]) keep the rows of the kept summaries,
    stage 2 rebuilds their evaluations with {!Symeval.of_artifact}, and
    stage 3 keeps a stored fixpoint.  With nothing to keep, every step
    computes everything: the cold run. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Sema = Ipcp_frontend.Sema
module Diag = Ipcp_frontend.Diag
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Lower = Ipcp_ir.Lower
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Modref = Ipcp_summary.Modref
module Verify = Ipcp_verify.Verify
module Metrics = Ipcp_obs.Metrics
module Trace = Ipcp_obs.Trace
module Pool = Ipcp_par.Pool
module Clattice = Ipcp_domains.Clattice

type t = {
  config : Config.t;
  symtab : Symtab.t;
  cfgs : Cfg.t SM.t;
  convs : Ssa.conv SM.t;
  cg : Callgraph.t;
  modref : Modref.t option;
  rjfs : Returnjf.t;
  evals : Symeval.t SM.t;  (** stage-2 symbolic evaluations (unbound) *)
  jfs : Jumpfn.site_jfs list SM.t;  (** caller -> its sites' jump functions *)
  solver : Solver.t;
}

type summary = {
  su_eval : Symeval.artifact;
  su_jfs : Jumpfn.site_jfs list;
  su_rjf : Symeval.value Returnjf.RT.t;
  su_modref : (Modref.IS.t * Modref.IS.t) option;
}

type reuse = {
  keep_ir : (Cfg.t * Ssa.conv) SM.t;
  unchecked_ir : SS.t;
  keep_summaries : summary SM.t;
  keep_fixpoint : Solver.t option;
}

let no_reuse =
  {
    keep_ir = SM.empty;
    unchecked_ir = SS.empty;
    keep_summaries = SM.empty;
    keep_fixpoint = None;
  }

(* a procedure's summaries depend only on its body and its transitive
   callees, so the procedures without a stored summary invalidate their
   callers' *)
let kept_summaries reuse cg =
  if SM.is_empty reuse.keep_summaries then SM.empty
  else
    let dirty =
      Callgraph.caller_closure cg
        (List.filter
           (fun p -> not (SM.mem p reuse.keep_summaries))
           cg.Callgraph.procs)
    in
    SM.filter (fun p _ -> not (SS.mem p dirty)) reuse.keep_summaries

(* Parallel lowering of every procedure without a kept CFG.  Call sites
   are numbered by one counter walking the procedures in declaration
   order; to lower procedures independently we pre-compute each
   procedure's site-id offset ({!Lower.site_offsets}) and give every task
   its own counter starting there — the numbering is exactly the
   sequential one. *)
let lower_parallel ~jobs ~keep (symtab : Symtab.t) : Cfg.t SM.t =
  let procs = List.map (Symtab.proc symtab) symtab.Symtab.order in
  let name (psym : Symtab.proc_sym) = psym.Symtab.proc.Ipcp_frontend.Ast.name in
  let tasks =
    List.combine procs
      (Lower.site_offsets
         (List.map (fun (psym : Symtab.proc_sym) -> psym.Symtab.proc) procs))
    |> List.filter (fun (psym, _) -> not (SM.mem (name psym) keep))
    |> Array.of_list
  in
  let costs =
    Array.map (fun ((psym : Symtab.proc_sym), _) ->
        Lower.count_stmts psym.Symtab.proc)
      tasks
  in
  Array.fold_left
    (fun acc (name, cfg) -> SM.add name cfg acc)
    SM.empty
    (Pool.map_array ~jobs ~costs ~seq_below:Pool.default_seq_cost
       (fun (psym, off) ->
         let p = name psym in
         ( p,
           Metrics.time_key "proc_ns.lower/" p (fun () ->
               Lower.lower_proc symtab ~site_counter:(ref off) psym) ))
       tasks)

let analyze ?(config = Config.default) ?(reuse = no_reuse) (symtab : Symtab.t)
    : t =
  Trace.span "analyze" @@ fun () ->
  let jobs = max 1 config.Config.jobs in
  (* A parallel verification fan-out gets one coordinator-side span so
     the phase shows up as a single block on the main trace lane (the
     workers' own events land on their tids). *)
  let verify_fanout cost check m =
    if jobs <= 1 then SM.iter check m
    else
      Trace.span "verify" (fun () ->
          Pool.iter_sm ~jobs ~cost ~seq_below:Pool.default_seq_cost check m)
  in
  let cfg_cost _ cfg = Cfg.weight cfg in
  let conv_cost _ (conv : Ssa.conv) = Cfg.weight conv.Ssa.ssa in
  (* preparation, of the procedures without a kept CFG and SSA form.
     [lower_parallel] reduces to the sequential map at [jobs = 1] (the
     pool combinators fall back), and either way carries the
     per-procedure timers.  The verifier checks the fresh forms and the
     kept ones no verifying run has checked yet. *)
  let lowered =
    Trace.span "prepare:lower" (fun () ->
        lower_parallel ~jobs ~keep:reuse.keep_ir symtab)
  in
  let unchecked part =
    SM.filter_map
      (fun p ir -> if SS.mem p reuse.unchecked_ir then Some (part ir) else None)
      reuse.keep_ir
  in
  let to_check fresh part = SM.union (fun _ x _ -> Some x) fresh (unchecked part) in
  if config.Config.verify_ir then
    verify_fanout cfg_cost
      (fun _ cfg -> Verify.expect_ok ~what:"lowering" (Verify.check_lowered ~symtab cfg))
      (to_check lowered fst);
  let converted =
    let ssa_one p cfg =
      Metrics.time_key "proc_ns.ssa/" p (fun () -> Ssa.convert_full cfg)
    in
    Trace.span "prepare:ssa" (fun () ->
        if jobs <= 1 then SM.mapi ssa_one lowered
        else
          Pool.map_sm ~jobs ~cost:cfg_cost ~seq_below:Pool.default_seq_cost
            ssa_one lowered)
  in
  if config.Config.verify_ir then
    verify_fanout conv_cost
      (fun _ (conv : Ssa.conv) ->
        Verify.expect_ok ~what:"SSA construction"
          (Verify.check_ssa ~symtab conv.Ssa.ssa))
      (to_check converted snd);
  let cfgs =
    SM.fold (fun p (cfg, _) m -> SM.add p cfg m) reuse.keep_ir lowered
  in
  let convs =
    SM.fold (fun p (_, conv) m -> SM.add p conv m) reuse.keep_ir converted
  in
  let cg =
    Trace.span "prepare:callgraph" (fun () ->
        Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order
          cfgs)
  in
  (* the SCC condensation is shared by stage 1's bottom-up walk and the
     solver's priority worklist *)
  let scc = Trace.span "prepare:scc" (fun () -> Scc.compute cg) in
  let kept = kept_summaries reuse cg in
  let modref =
    Trace.span "prepare:modref" (fun () ->
        if config.Config.use_mod then
          Some
            (Modref.compute
               ~clean:(SM.filter_map (fun _ su -> su.su_modref) kept)
               symtab cfgs cg)
        else None)
  in
  (* stage 1: return jump functions *)
  let rjfs =
    Trace.span "stage1:return-jump-functions" (fun () ->
        if config.Config.return_jfs then
          Returnjf.compute ~scc ~base:(SM.map (fun su -> su.su_rjf) kept)
            ~symtab ~modref ~convs ~cg ~symbolic:config.Config.symbolic_returns
            ()
        else Returnjf.empty)
  in
  (* stage 2: forward jump functions — symbolic evaluation and the jump
     functions of each procedure's sites, fused per procedure so one
     parallel fan-out covers both.  A kept summary rebuilds its
     evaluation against the procedure's SSA form and replays its jump
     functions when the CFG is kept too; a re-lowered procedure gets them
     rebuilt, with its fresh source locations. *)
  let evals, jfs =
    Trace.span "stage2:jump-functions" @@ fun () ->
    let policy =
      Returnjf.policy ~symtab ~modref ~rjfs
        ~symbolic:config.Config.symbolic_returns
    in
    let jump_functions ev =
      List.map
        (Jumpfn.of_site ~symtab ~kind:config.Config.jf ev)
        ev.Symeval.cfg.Cfg.sites
    in
    let pairs =
      Pool.map_sm ~jobs ~cost:conv_cost ~seq_below:Pool.default_seq_cost
        (fun p (conv : Ssa.conv) ->
          match SM.find_opt p kept with
          | None ->
              Metrics.time_key "proc_ns.stage2/" p @@ fun () ->
              let ev =
                Symeval.run ~symtab ~psym:(Symtab.proc symtab p) ~policy
                  conv.Ssa.ssa
              in
              (ev, jump_functions ev)
          | Some su ->
              Metrics.time_key "proc_ns.rehydrate/" p @@ fun () ->
              let ev = Symeval.of_artifact conv.Ssa.ssa su.su_eval in
              ( ev,
                if SM.mem p reuse.keep_ir then su.su_jfs
                else jump_functions ev ))
        convs
    in
    (SM.map fst pairs, SM.map snd pairs)
  in
  (* stage 3: interprocedural propagation.  A kept fixpoint is only ever
     the whole program's (never a resumed stale one, which could pin a
     parameter at a constant the edited program no longer justifies);
     behind [verify_ir] a fresh solve must reproduce it. *)
  let solve () =
    Trace.span "stage3:propagate" (fun () ->
        Solver.solve ~scc ~symtab ~cg ~jfs ())
  in
  let solver =
    match reuse.keep_fixpoint with
    | None -> solve ()
    | Some fixpoint ->
        if
          config.Config.verify_ir
          && not
               (SM.equal (SM.equal Clattice.equal) (solve ()).Solver.vals
                  fixpoint.Solver.vals)
        then
          Diag.error Diag.Analysis Ipcp_frontend.Loc.dummy
            "incremental cache verification failed: warm fixpoint differs \
             from a fresh solve (clear the cache directory to recover)";
        fixpoint
  in
  { config; symtab; cfgs; convs; cg; modref; rjfs; evals; jfs; solver }

let summary t p =
  {
    su_eval = Symeval.to_artifact (SM.find p t.evals);
    su_jfs = SM.find p t.jfs;
    su_rjf = Option.value ~default:Returnjf.RT.empty (SM.find_opt p t.rjfs);
    su_modref =
      Option.map (fun m -> (Modref.mod_of m p, Modref.ref_of m p)) t.modref;
  }

(** CONSTANTS(p). *)
let constants t p = Solver.constants t.solver p

(** Total number of (procedure, parameter) pairs proven constant. *)
let total_constants t =
  SM.fold
    (fun p _ acc -> acc + SM.cardinal (constants t p))
    t.symtab.Symtab.procs 0

(** Stage 4 helper: re-evaluate procedure [p] with its entry values bound
    to the propagation's fixpoint.  Every SSA name whose value folds to a
    constant here is a substitution candidate; the substitution pass maps
    their use-sites back to source locations. *)
let final_eval t p : Symeval.t =
  Trace.span ~args:[ ("proc", p) ] "stage4:record" @@ fun () ->
  Metrics.time_key "proc_ns.stage4/" p @@ fun () ->
  let psym = Symtab.proc t.symtab p in
  let conv = SM.find p t.convs in
  let policy =
    Returnjf.policy ~symtab:t.symtab ~modref:t.modref ~rjfs:t.rjfs
      ~symbolic:t.config.Config.symbolic_returns
  in
  let entry_binding name =
    match Solver.val_of t.solver p name with
    | Clattice.Const c -> Some (Symeval.const c)
    | _ -> None (* stays symbolic: entry value unknown *)
  in
  Symeval.run ~entry_binding ~symtab:t.symtab ~psym ~policy conv.Ssa.ssa

(** Stage 4 over every procedure, or over [procs] — the fan-out the
    substitution pass consumes, parallel across procedures when [config.jobs > 1] (the
    parallel case gets one coordinator-side span; per-procedure spans
    land on the worker tids). *)
let final_evals ?procs (t : t) : Symeval.t SM.t =
  let jobs = max 1 t.config.Config.jobs in
  let convs =
    match procs with
    | None -> t.convs
    | Some ps -> List.fold_left (fun m p -> SM.add p (SM.find p t.convs) m) SM.empty ps
  in
  if jobs <= 1 then SM.mapi (fun p _ -> final_eval t p) convs
  else
    Trace.span "stage4:record" (fun () ->
        Pool.map_sm ~jobs
          ~cost:(fun _ (conv : Ssa.conv) -> Cfg.weight conv.Ssa.ssa)
          ~seq_below:Pool.default_seq_cost
          (fun p _ -> final_eval t p)
          convs)

(** The interval instance of the pipeline: interprocedural range
    propagation over the already-built jump functions, then a
    per-procedure abstract evaluation (parallel like stage 4) producing
    the location-keyed range facts the lint checks consume. *)
let analyze_ranges (t : t) : Ranges.t =
  Ranges.compute ~config:t.config ~symtab:t.symtab ~cg:t.cg ~modref:t.modref
    ~rjfs:t.rjfs ~jfs:t.jfs ~convs:t.convs ()

(* ------------------------------------------------------------------ *)
(* Convenience front ends *)

(** Parse, check and analyze a complete source text. *)
let analyze_source ?config ~file src =
  let symtab = Sema.parse_and_analyze ~file src in
  (symtab, analyze ?config symtab)

(* ------------------------------------------------------------------ *)
(* Statistics for the cost ablation (§3.1.5) *)

type jf_census = {
  n_bottom : int;
  n_const : int;
  n_passthrough : int;
  n_poly : int;
  total_cost : int;  (** Σ cost(J) over all jump functions built *)
}

let census t : jf_census =
  SM.fold
    (fun _ sjs acc ->
      List.fold_left
        (fun acc (sj : Jumpfn.site_jfs) ->
          List.fold_left
            (fun acc (_, jf) ->
              let acc = { acc with total_cost = acc.total_cost + Jumpfn.cost jf } in
              match jf with
              | Jumpfn.Jbottom -> { acc with n_bottom = acc.n_bottom + 1 }
              | Jumpfn.Jconst _ -> { acc with n_const = acc.n_const + 1 }
              | Jumpfn.Jvar _ ->
                  { acc with n_passthrough = acc.n_passthrough + 1 }
              | Jumpfn.Jexpr _ -> { acc with n_poly = acc.n_poly + 1 })
            acc sj.Jumpfn.jfs)
        acc sjs)
    t.jfs
    { n_bottom = 0; n_const = 0; n_passthrough = 0; n_poly = 0; total_cost = 0 }
