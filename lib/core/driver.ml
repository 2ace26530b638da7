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
    summaries) run before stage 1. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Sema = Ipcp_frontend.Sema
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

(* Parallel lowering.  Call sites are numbered by one counter walking the
   procedures in declaration order; to lower procedures independently we
   pre-compute each procedure's site-id offset (prefix sums over the
   AST-level {!Lower.count_sites}) and give every task its own counter
   starting there — the numbering is exactly the sequential one. *)
let lower_parallel ~jobs (symtab : Symtab.t) : Cfg.t SM.t =
  let procs =
    List.rev (Symtab.fold_procs (fun psym acc -> psym :: acc) symtab [])
  in
  let tasks =
    let off = ref 0 in
    Array.of_list
      (List.map
         (fun (psym : Symtab.proc_sym) ->
           let o = !off in
           off := o + Lower.count_sites psym.Symtab.proc;
           (psym, o))
         procs)
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
       (fun ((psym : Symtab.proc_sym), off) ->
         let p = psym.Symtab.proc.Ipcp_frontend.Ast.name in
         ( p,
           Metrics.time_key "proc_ns.lower/" p (fun () ->
               Lower.lower_proc symtab ~site_counter:(ref off) psym) ))
       tasks)

let analyze ?(config = Config.default) (symtab : Symtab.t) : t =
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
  (* preparation *)
  (* [lower_parallel] reduces to the sequential map at [jobs = 1] (the
     pool combinators fall back), and either way carries the
     per-procedure timers *)
  let cfgs =
    Trace.span "prepare:lower" (fun () -> lower_parallel ~jobs symtab)
  in
  if config.Config.verify_ir then
    verify_fanout cfg_cost
      (fun _ cfg -> Verify.expect_ok ~what:"lowering" (Verify.check_lowered ~symtab cfg))
      cfgs;
  let convs =
    let ssa_one p cfg =
      Metrics.time_key "proc_ns.ssa/" p (fun () -> Ssa.convert_full cfg)
    in
    Trace.span "prepare:ssa" (fun () ->
        if jobs <= 1 then SM.mapi ssa_one cfgs
        else
          Pool.map_sm ~jobs ~cost:cfg_cost ~seq_below:Pool.default_seq_cost
            ssa_one cfgs)
  in
  if config.Config.verify_ir then
    verify_fanout conv_cost
      (fun _ (conv : Ssa.conv) ->
        Verify.expect_ok ~what:"SSA construction"
          (Verify.check_ssa ~symtab conv.Ssa.ssa))
      convs;
  let cg =
    Trace.span "prepare:callgraph" (fun () ->
        Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order
          cfgs)
  in
  (* the SCC condensation is shared by stage 1's bottom-up walk and the
     solver's priority worklist *)
  let scc = Trace.span "prepare:scc" (fun () -> Scc.compute cg) in
  let modref =
    Trace.span "prepare:modref" (fun () ->
        if config.Config.use_mod then Some (Modref.compute symtab cfgs cg)
        else None)
  in
  (* stage 1: return jump functions *)
  let rjfs =
    Trace.span "stage1:return-jump-functions" (fun () ->
        if config.Config.return_jfs then
          Returnjf.compute ~scc ~symtab ~modref ~convs ~cg
            ~symbolic:config.Config.symbolic_returns ()
        else Returnjf.empty)
  in
  (* stage 2: forward jump functions — symbolic evaluation and the jump
     functions of each procedure's sites, fused per procedure so one
     parallel fan-out covers both *)
  let evals, jfs =
    Trace.span "stage2:jump-functions" @@ fun () ->
    let policy =
      Returnjf.policy ~symtab ~modref ~rjfs
        ~symbolic:config.Config.symbolic_returns
    in
    let pairs =
      Pool.map_sm ~jobs ~cost:conv_cost ~seq_below:Pool.default_seq_cost
        (fun p (conv : Ssa.conv) ->
          Metrics.time_key "proc_ns.stage2/" p @@ fun () ->
          let ev =
            Symeval.run ~symtab ~psym:(Symtab.proc symtab p) ~policy
              conv.Ssa.ssa
          in
          let sjs =
            List.map
              (Jumpfn.of_site ~symtab ~kind:config.Config.jf ev)
              ev.Symeval.cfg.Cfg.sites
          in
          (ev, sjs))
        convs
    in
    (SM.map fst pairs, SM.map snd pairs)
  in
  (* stage 3: interprocedural propagation *)
  let solver =
    Trace.span "stage3:propagate" (fun () ->
        Solver.solve ~scc ~symtab ~cg ~jfs ())
  in
  { config; symtab; cfgs; convs; cg; modref; rjfs; evals; jfs; solver }

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

(** Stage 4 over every procedure — the fan-out the substitution pass
    consumes, parallel across procedures when [config.jobs > 1] (the
    parallel case gets one coordinator-side span; per-procedure spans
    land on the worker tids). *)
let final_evals (t : t) : Symeval.t SM.t =
  let jobs = max 1 t.config.Config.jobs in
  if jobs <= 1 then SM.mapi (fun p _ -> final_eval t p) t.convs
  else
    Trace.span "stage4:record" (fun () ->
        Pool.map_sm ~jobs
          ~cost:(fun _ (conv : Ssa.conv) -> Cfg.weight conv.Ssa.ssa)
          ~seq_below:Pool.default_seq_cost
          (fun p _ -> final_eval t p)
          t.convs)

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
