(** The incremental reanalysis engine.

    The jump-function framework was designed for exactly this: every
    per-procedure artifact of the pipeline — lowered CFG + SSA, the
    symbolic evaluation, forward and return jump functions, MOD/REF rows
    — depends only on that procedure's resolved AST and on its
    {e transitive callees}, never on its callers.  So after an edit, the
    set that must be rebuilt is the edited procedures plus everything
    that can reach them in the call graph (their SCC-condensation
    upstream closure); everything else is replayed from the cache.

    Validity is two-tiered (see {!Fingerprint}): a procedure whose
    {e content} hash matches keeps its summaries; only if its {e exact}
    hash (which covers source locations) and site-id offset also match
    does it keep its cached IR — a procedure that merely moved in the
    file gets fresh line numbers at the cost of re-lowering, which is
    cheap next to the symbolic-evaluation fixpoints being skipped.

    The converged VAL fixpoint and the substitution result are
    whole-program artifacts, reused only when the program-wide content
    key matches exactly.  On any mismatch the solver re-runs from ⊤ over
    the surviving jump functions: re-seeding VAL sets from a stale
    fixpoint could pin a parameter at a constant the edited program no
    longer justifies (the worklist only revisits entries that lower), so
    stage 3 is always recomputed rather than resumed.  Behind
    [Config.verify_ir], a reused fixpoint is additionally checked against
    a fresh solve — the warm-equals-cold guarantee. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Ast = Ipcp_frontend.Ast
module Diag = Ipcp_frontend.Diag
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Lower = Ipcp_ir.Lower
module Instr = Ipcp_ir.Instr
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Modref = Ipcp_summary.Modref
module Verify = Ipcp_verify.Verify
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Symeval = Ipcp_core.Symeval
module Returnjf = Ipcp_core.Returnjf
module Jumpfn = Ipcp_core.Jumpfn
module Clattice = Ipcp_core.Clattice
module Substitute = Ipcp_opt.Substitute
module Obs = Ipcp_obs.Obs
module Trace = Ipcp_obs.Trace
module Metrics = Ipcp_obs.Metrics
module Pool = Ipcp_par.Pool

(* ------------------------------------------------------------------ *)
(* Cached forms *)

type proc_entry = {
  pe_fp : Fingerprint.proc_fp;
  pe_cfg : Cfg.t;
  pe_conv : Ssa.conv;
  pe_sym : Symeval.artifact;
  pe_jfs : Jumpfn.site_jfs list;
  pe_rjf : Symeval.value Returnjf.RT.t;
  pe_modref : (Modref.IS.t * Modref.IS.t) option;
      (** [None] when the configuration has MOD summaries off *)
}

type run_stats = {
  rs_counters : (string * int) list;
      (** deterministic analysis counters of the run that produced the
          cached fixpoint (timing/GC/incr keys excluded) *)
  rs_convergence : Ipcp_obs.Metrics.conv_row list;
}

(** Everything persisted per (source key, configuration). *)
type snapshot = {
  s_config_key : string;
  s_globals_hash : string;
  s_program_hash : string;  (** content-level whole-program key *)
  s_order : string list;
  s_procs : proc_entry SM.t;
  s_vals : Clattice.t SM.t SM.t;  (** the converged VAL fixpoint *)
  s_solver_stats : Solver.stats;
  s_run : run_stats;
  s_substitution : Substitute.result;
}

(* ------------------------------------------------------------------ *)
(* Public result types *)

type policy = Disabled | Dir of string

type report = {
  r_enabled : bool;  (** was a cache directory in play at all *)
  r_cold : string option;
      (** [Some reason] when no usable snapshot was found; [None] on a
          warm run (even a fully-dirty one) *)
  r_procs : int;
  r_changed : int;  (** content hashes that differ from the snapshot *)
  r_dirty : int;  (** changed plus their transitive callers *)
  r_ir_reused : int;  (** procedures whose CFG+SSA came from the cache *)
  r_summary_reused : int;
      (** procedures whose symbolic evaluation / jump functions / MOD
          rows / return jump functions came from the cache *)
  r_fixpoint_reused : bool;
  r_substitution_reused : bool;
}

let cold_report ~enabled ~reason ~procs =
  {
    r_enabled = enabled;
    r_cold = reason;
    r_procs = procs;
    r_changed = procs;
    r_dirty = procs;
    r_ir_reused = 0;
    r_summary_reused = 0;
    r_fixpoint_reused = false;
    r_substitution_reused = false;
  }

type outcome = {
  o_driver : Driver.t;
  o_report : report;
  o_replay : run_stats option;
      (** on a fixpoint hit: the producing run's deterministic counters *)
  o_substitution : Substitute.result option;  (** on a fixpoint hit *)
  o_commit : (run_stats -> Substitute.result -> bool) option;
      (** persist the snapshot; [None] when the cache is already exact.
          Returns false (with a warning) if the write failed. *)
}

(* ------------------------------------------------------------------ *)
(* Obs helpers *)

let count k n = if Obs.on () then Metrics.add k n

let count1 k = count k 1

let warn fmt = Fmt.epr ("ipcp: warning: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Snapshot I/O *)

let load_snapshot ~dir ~key : (snapshot, string) result =
  match Store.load ~dir ~key with
  | Error Store.Missing ->
      count1 "incr.cold.miss";
      Error "no cache entry"
  | Error (Store.Stale r) ->
      count1 "incr.cold.stale";
      warn "cache entry for %s is stale (%s); running cold" key r;
      Error r
  | Error (Store.Corrupt r) ->
      count1 "incr.cold.corrupt";
      warn "cache entry for %s is corrupt (%s); ignoring it" key r;
      Error r
  | Ok payload -> (
      count "incr.load.bytes" (String.length payload);
      (* the payload passed its checksum, so unmarshalling is safe; the
         guard is belt-and-braces against a snapshot written by a
         different build of the same OCaml version *)
      match
        Trace.span "incr:unmarshal" (fun () ->
            (Marshal.from_string payload 0 : snapshot))
      with
      | s -> Ok s
      | exception _ ->
          count1 "incr.cold.corrupt";
          warn "cache entry for %s does not unmarshal; ignoring it" key;
          Error "unmarshal failure")

let save_snapshot ~dir ~key (s : snapshot) : bool =
  let payload = Marshal.to_string s [] in
  match Store.save ~dir ~key payload with
  | Ok () ->
      count1 "incr.store.saved";
      count "incr.store.bytes" (String.length payload);
      true
  | Error e ->
      warn "could not write cache entry for %s: %s" key e;
      false

(* ------------------------------------------------------------------ *)
(* The engine *)

let solver_stats_copy (st : Solver.stats) : Solver.stats =
  {
    Solver.pops = st.Solver.pops;
    jf_evals = st.Solver.jf_evals;
    jf_eval_cost = st.Solver.jf_eval_cost;
    lowerings = st.Solver.lowerings;
  }

let vals_equal = SM.equal (SM.equal Clattice.equal)

(** Fingerprint every procedure, in declaration order, with the
    program-wide call-site-id prefix sums. *)
let fingerprints (symtab : Symtab.t) : (string * Fingerprint.proc_fp) list =
  let off = ref 0 in
  List.map
    (fun name ->
      let psym = Symtab.proc symtab name in
      let o = !off in
      off := o + Lower.count_sites psym.Symtab.proc;
      (name, Fingerprint.proc ~site_offset:o psym.Symtab.proc))
    symtab.Symtab.order

let content_fingerprints symtab =
  List.map
    (fun (name, fp) -> (name, fp.Fingerprint.fp_content))
    (fingerprints symtab)

let program_key config symtab =
  Digest.to_hex
    (Fingerprint.program
       ~config_key:(Fingerprint.config config)
       ~globals_hash:(Fingerprint.globals symtab)
       (fingerprints symtab))

(** The warm pipeline: mirrors {!Driver.analyze} stage for stage, with
    per-procedure reuse decisions.  With no usable snapshot every
    procedure is dirty and this computes exactly what the driver does. *)
let warm ~(config : Config.t) ~(prev : snapshot option) ~cold_reason
    ~(fps : (string * Fingerprint.proc_fp) list) ~program_hash
    (symtab : Symtab.t) :
    Driver.t
    * report
    * run_stats option
    * Substitute.result option
    * (run_stats -> Substitute.result -> snapshot) option =
  Trace.span "analyze" @@ fun () ->
  let jobs = max 1 config.Config.jobs in
  let n_procs = List.length fps in
  let entry_of name =
    Option.bind prev (fun s -> SM.find_opt name s.s_procs)
  in
  (* content-level diff: which procedures are semantically edited *)
  let changed =
    List.fold_left
      (fun acc (name, (fp : Fingerprint.proc_fp)) ->
        match entry_of name with
        | Some pe
          when pe.pe_fp.Fingerprint.fp_content = fp.Fingerprint.fp_content ->
            acc
        | _ -> SS.add name acc)
      SS.empty fps
  in
  (* IR tier: reusable only when locations and site numbering also match *)
  let ir_hit (name, (fp : Fingerprint.proc_fp)) =
    match entry_of name with
    | Some pe
      when pe.pe_fp.Fingerprint.fp_exact = fp.Fingerprint.fp_exact
           && pe.pe_fp.Fingerprint.fp_site_offset
              = fp.Fingerprint.fp_site_offset ->
        Some pe
    | _ -> None
  in
  let ir =
    Trace.span "prepare:lower" @@ fun () ->
    let tasks = Array.of_list fps in
    let costs =
      Array.map
        (fun (name, _) -> Lower.count_stmts (Symtab.proc symtab name).Symtab.proc)
        tasks
    in
    Array.to_list
    @@ Pool.map_array ~jobs ~costs ~seq_below:Pool.default_seq_cost
      (fun ((name, fp) as pfp) ->
        match ir_hit pfp with
        | Some pe ->
            count1 ("incr.proc.ir.hit/" ^ name);
            (name, pe.pe_cfg, pe.pe_conv, true)
        | None ->
            count1 ("incr.proc.ir.miss/" ^ name);
            Metrics.time_key "proc_ns.lower/" name @@ fun () ->
            let psym = Symtab.proc symtab name in
            let cfg =
              Lower.lower_proc symtab
                ~site_counter:(ref fp.Fingerprint.fp_site_offset)
                psym
            in
            if config.Config.verify_ir then
              Verify.expect_ok ~what:"lowering"
                (Verify.check_lowered ~symtab cfg);
            let conv = Ssa.convert_full cfg in
            if config.Config.verify_ir then
              Verify.expect_ok ~what:"SSA construction"
                (Verify.check_ssa ~symtab conv.Ssa.ssa);
            (name, cfg, conv, false))
      tasks
  in
  let cfgs =
    List.fold_left (fun m (n, cfg, _, _) -> SM.add n cfg m) SM.empty ir
  in
  let convs =
    List.fold_left (fun m (n, _, conv, _) -> SM.add n conv m) SM.empty ir
  in
  let ir_reused =
    List.fold_left (fun n (_, _, _, hit) -> if hit then n + 1 else n) 0 ir
  in
  let cg =
    Trace.span "prepare:callgraph" (fun () ->
        Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order
          cfgs)
  in
  let scc = Trace.span "prepare:scc" (fun () -> Scc.compute cg) in
  (* the dirty set: changed procedures plus everything that can reach
     them — the SCC-condensation upstream (caller-side) closure.  Every
     summary artifact of a procedure depends only on the procedure and
     its transitive callees, so procedures outside this set keep theirs. *)
  let dirty =
    let rec go acc = function
      | [] -> acc
      | p :: rest ->
          if SS.mem p acc then go acc rest
          else
            go (SS.add p acc)
              (List.rev_append
                 (List.rev_map
                    (fun (e : Callgraph.edge) -> e.Callgraph.e_caller)
                    (Callgraph.edges_in cg p))
                 rest)
    in
    go SS.empty (SS.elements changed)
  in
  let is_dirty p = SS.mem p dirty in
  let summary_reused = n_procs - SS.cardinal dirty in
  count "incr.procs" n_procs;
  count "incr.changed" (SS.cardinal changed);
  count "incr.dirty" (SS.cardinal dirty);
  count "incr.ir.reused" ir_reused;
  count "incr.ir.rebuilt" (n_procs - ir_reused);
  count "incr.summary.reused" summary_reused;
  count "incr.summary.rebuilt" (SS.cardinal dirty);
  (* a clean procedure always has a content-matching snapshot entry *)
  let entry_exn p =
    match entry_of p with
    | Some pe -> pe
    | None -> invalid_arg ("Incr: clean procedure without entry: " ^ p)
  in
  let modref =
    Trace.span "prepare:modref" (fun () ->
        if not config.Config.use_mod then None
        else if Option.is_none prev || summary_reused = 0 then
          Some (Modref.compute symtab cfgs cg)
        else
          let clean =
            List.fold_left
              (fun m (name, _) ->
                if is_dirty name then m
                else
                  match (entry_exn name).pe_modref with
                  | Some row -> SM.add name row m
                  | None ->
                      invalid_arg
                        ("Incr: clean procedure without MOD row: " ^ name))
              SM.empty fps
          in
          Some (Modref.compute_partial symtab cfgs cg ~clean ~dirty))
  in
  (* stage 1: return jump functions — clean procedures replay their rows *)
  let rjfs =
    Trace.span "stage1:return-jump-functions" (fun () ->
        if not config.Config.return_jfs then Returnjf.empty
        else
          let base =
            List.fold_left
              (fun m (name, _) ->
                if is_dirty name then m
                else SM.add name (entry_exn name).pe_rjf m)
              SM.empty fps
          in
          Returnjf.compute ~scc ~base ~reuse:(fun p -> not (is_dirty p))
            ~symtab ~modref ~convs ~cg
            ~symbolic:config.Config.symbolic_returns ())
  in
  (* stage 2: symbolic evaluation + forward jump functions.  Dirty
     procedures re-run the fixpoint; clean ones rehydrate the stored
     evaluation against their (possibly re-lowered) SSA form, and their
     jump functions are either replayed verbatim (exact IR hit) or
     rebuilt cheaply from the rehydrated values (fresh line numbers). *)
  let exact_hits =
    List.fold_left
      (fun acc (n, _, _, hit) -> if hit then SS.add n acc else acc)
      SS.empty ir
  in
  let evals, jfs =
    Trace.span "stage2:jump-functions" @@ fun () ->
    let policy =
      Returnjf.policy ~symtab ~modref ~rjfs
        ~symbolic:config.Config.symbolic_returns
    in
    let pairs =
      Pool.map_sm ~jobs
        ~cost:(fun _ (conv : Ssa.conv) -> Cfg.weight conv.Ssa.ssa)
        ~seq_below:Pool.default_seq_cost
        (fun p (conv : Ssa.conv) ->
          if is_dirty p then begin
            count1 ("incr.proc.summary.miss/" ^ p);
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
            (ev, sjs)
          end
          else begin
            count1 ("incr.proc.summary.hit/" ^ p);
            Metrics.time_key "proc_ns.rehydrate/" p @@ fun () ->
            let pe = entry_exn p in
            let ev = Symeval.of_artifact conv.Ssa.ssa pe.pe_sym in
            let sjs =
              if SS.mem p exact_hits then pe.pe_jfs
              else
                List.map
                  (Jumpfn.of_site ~symtab ~kind:config.Config.jf ev)
                  ev.Symeval.cfg.Cfg.sites
            in
            (ev, sjs)
          end)
        convs
    in
    (SM.map fst pairs, SM.map snd pairs)
  in
  (* stage 3: the fixpoint is whole-program — replayed only on an exact
     content-key match, recomputed from ⊤ otherwise (resuming from a
     stale fixpoint is unsound: the worklist only revisits entries that
     lower, so stale constants could survive) *)
  let fixpoint_hit =
    match prev with
    | Some s -> s.s_program_hash = program_hash
    | None -> false
  in
  let solver =
    if fixpoint_hit then begin
      count1 "incr.fixpoint.hit";
      let s = Option.get prev in
      let solver =
        {
          Solver.vals = s.s_vals;
          stats = solver_stats_copy s.s_solver_stats;
          prov = None;
        }
      in
      if config.Config.verify_ir then begin
        (* warm ≡ cold, checked: a fresh solve over the (partly
           rehydrated) jump functions must reproduce the cached fixpoint *)
        let fresh =
          Trace.span "stage3:propagate" (fun () ->
              Solver.solve ~scc ~symtab ~cg ~jfs ())
        in
        if not (vals_equal fresh.Solver.vals solver.Solver.vals) then
          Diag.error Diag.Analysis Ipcp_frontend.Loc.dummy
            "incremental cache verification failed: warm fixpoint differs \
             from a fresh solve (clear the cache directory to recover)"
      end;
      solver
    end
    else begin
      count1 "incr.fixpoint.miss";
      Trace.span "stage3:propagate" (fun () ->
          Solver.solve ~scc ~symtab ~cg ~jfs ())
    end
  in
  let driver =
    {
      Driver.config;
      symtab;
      cfgs;
      convs;
      cg;
      modref;
      rjfs;
      evals;
      jfs;
      solver;
    }
  in
  let report =
    {
      r_enabled = true;
      r_cold = cold_reason;
      r_procs = n_procs;
      r_changed = SS.cardinal changed;
      r_dirty = SS.cardinal dirty;
      r_ir_reused = ir_reused;
      r_summary_reused = summary_reused;
      r_fixpoint_reused = fixpoint_hit;
      r_substitution_reused = fixpoint_hit;
    }
  in
  let replay, substitution =
    if fixpoint_hit then
      let s = Option.get prev in
      (Some s.s_run, Some s.s_substitution)
    else (None, None)
  in
  (* a new snapshot is only worth writing when something changed *)
  let next =
    if fixpoint_hit && ir_reused = n_procs then None
    else
      let procs =
        List.fold_left
          (fun m (name, fp) ->
            let entry =
              {
                pe_fp = fp;
                pe_cfg = SM.find name cfgs;
                pe_conv = SM.find name convs;
                pe_sym = Symeval.to_artifact (SM.find name evals);
                pe_jfs = SM.find name jfs;
                pe_rjf =
                  Option.value ~default:Returnjf.RT.empty
                    (SM.find_opt name rjfs);
                pe_modref =
                  Option.map
                    (fun m -> (Modref.mod_of m name, Modref.ref_of m name))
                    modref;
              }
            in
            (* per-procedure share of the snapshot, for `ipcp profile`'s
               cache attribution; only measured with telemetry on (the
               extra marshal is pure observation) *)
            if Obs.on () then
              count ("incr.proc.bytes/" ^ name)
                (String.length (Marshal.to_string entry []));
            SM.add name entry m)
          SM.empty fps
      in
      Some
        (fun (run : run_stats) (sub : Substitute.result) ->
          {
            s_config_key = Fingerprint.config config;
            s_globals_hash = Fingerprint.globals symtab;
            s_program_hash = program_hash;
            s_order = symtab.Symtab.order;
            s_procs = procs;
            s_vals = solver.Solver.vals;
            s_solver_stats = solver_stats_copy solver.Solver.stats;
            s_run = run;
            s_substitution = sub;
          })
  in
  (driver, report, replay, substitution, next)

let analyze ?(config = Config.default) ~(policy : policy) ~(key : string)
    (symtab : Symtab.t) : outcome =
  match policy with
  | Disabled ->
      {
        o_driver = Driver.analyze ~config symtab;
        o_report =
          cold_report ~enabled:false ~reason:(Some "cache disabled")
            ~procs:(List.length symtab.Symtab.order);
        o_replay = None;
        o_substitution = None;
        o_commit = None;
      }
  | Dir dir ->
      let fps = Trace.span "incr:fingerprint" (fun () -> fingerprints symtab) in
      let config_key = Fingerprint.config config in
      let globals_hash = Fingerprint.globals symtab in
      let program_hash = Fingerprint.program ~config_key ~globals_hash fps in
      let prev, cold_reason =
        match Trace.span "incr:load" (fun () -> load_snapshot ~dir ~key) with
        | Error reason -> (None, Some reason)
        | Ok s ->
            if s.s_config_key <> config_key then begin
              count1 "incr.cold.config";
              (None, Some "configuration changed")
            end
            else if s.s_globals_hash <> globals_hash then begin
              count1 "incr.cold.globals";
              (None, Some "global (COMMON) table changed")
            end
            else (Some s, None)
      in
      if prev = None then count1 "incr.cold";
      let driver, report, replay, substitution, next =
        warm ~config ~prev ~cold_reason ~fps ~program_hash symtab
      in
      let commit =
        Option.map
          (fun mk (run : run_stats) (sub : Substitute.result) ->
            Trace.span "incr:persist" (fun () ->
                save_snapshot ~dir ~key (mk run sub)))
          next
      in
      {
        o_driver = driver;
        o_report = report;
        o_replay = replay;
        o_substitution = substitution;
        o_commit = commit;
      }
