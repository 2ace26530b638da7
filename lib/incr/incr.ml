(** The incremental reanalysis engine: what a cached run may keep, and
    the snapshot it is kept in.

    Every per-procedure artifact of the pipeline — lowered CFG + SSA, the
    symbolic evaluation, forward and return jump functions, MOD/REF rows
    — depends only on that procedure's resolved AST and on its
    {e transitive callees}, never on its callers.  So after an edit, the
    set that must be rebuilt is the edited procedures plus everything
    that can reach them in the call graph (their caller closure);
    everything else can be kept.

    This module turns the snapshot of an earlier run into a
    {!Driver.reuse} and hands it to {!Driver.analyze}, the one
    implementation of the pipeline; a cached run without a usable
    snapshot passes {!Driver.no_reuse} and is the cold run.  Validity is
    two-tiered (see {!Fingerprint}): a procedure whose {e content} hash
    matches offers its summaries; only if its {e exact} hash (which
    covers source locations) and site-id offset also match does it offer
    its IR — a procedure that merely moved in the file gets fresh line
    numbers at the cost of re-lowering, which is cheap next to the
    symbolic-evaluation fixpoints being skipped.

    The converged VAL fixpoint and the substitution result are
    whole-program artifacts, kept only when the program-wide content key
    matches exactly; on any mismatch the solver re-runs from ⊤ over the
    surviving jump functions, because re-seeding VAL sets from a stale
    fixpoint could pin a parameter at a constant the edited program no
    longer justifies.  Behind [Config.verify_ir], the driver checks a
    kept fixpoint against a fresh solve — the warm-equals-cold
    guarantee.  Besides the reuse input, this module owns the
    fingerprints, the snapshot's load and save, the cache report and the
    next snapshot. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Ast = Ipcp_frontend.Ast
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Lower = Ipcp_ir.Lower
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Clattice = Ipcp_domains.Clattice
module Substitute = Ipcp_opt.Substitute
module Obs = Ipcp_obs.Obs
module Trace = Ipcp_obs.Trace
module Metrics = Ipcp_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Cached forms *)

type proc_entry = {
  pe_fp : Fingerprint.proc_fp;
  pe_cfg : Cfg.t;
  pe_conv : Ssa.conv;
  pe_summary : Driver.summary;
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

(** Fingerprint every procedure, in declaration order, with the
    program-wide call-site-id prefix sums. *)
let fingerprints (symtab : Symtab.t) : (string * Fingerprint.proc_fp) list =
  let procs =
    List.map (fun name -> (Symtab.proc symtab name).Symtab.proc)
      symtab.Symtab.order
  in
  List.map2
    (fun (proc : Ast.proc) off ->
      (proc.Ast.name, Fingerprint.proc ~site_offset:off proc))
    procs (Lower.site_offsets procs)

let content_fingerprints symtab =
  List.map
    (fun name -> (name, Fingerprint.content (Symtab.proc symtab name).Symtab.proc))
    symtab.Symtab.order

let program_key config symtab =
  Digest.to_hex
    (Fingerprint.program
       ~config_key:(Fingerprint.config config)
       ~globals_hash:(Fingerprint.globals symtab)
       (content_fingerprints symtab))

(** What snapshot [s] still justifies keeping for a program with
    fingerprints [fps]: the IR of exact-tier hits, the summaries of
    content-tier hits (the driver drops those in the caller closure of
    the misses), and the fixpoint when the program key matches. *)
let reuse_of (s : snapshot) ~fps ~program_hash : Driver.reuse =
  let keep_fixpoint =
    if s.s_program_hash = program_hash then
      Some { Solver.vals = s.s_vals; stats = s.s_solver_stats; prov = None }
    else None
  in
  List.fold_left
    (fun (r : Driver.reuse) (name, (fp : Fingerprint.proc_fp)) ->
      match SM.find_opt name s.s_procs with
      | Some pe
        when pe.pe_fp.Fingerprint.fp_content = fp.Fingerprint.fp_content ->
          let exact =
            pe.pe_fp.Fingerprint.fp_exact = fp.Fingerprint.fp_exact
            && pe.pe_fp.Fingerprint.fp_site_offset
               = fp.Fingerprint.fp_site_offset
          in
          {
            r with
            Driver.keep_ir =
              (if exact then SM.add name (pe.pe_cfg, pe.pe_conv) r.keep_ir
               else r.keep_ir);
            keep_summaries = SM.add name pe.pe_summary r.keep_summaries;
          }
      | _ -> r)
    { Driver.no_reuse with keep_fixpoint }
    fps

let snapshot ~config ~program_hash ~fps (d : Driver.t) run sub =
  let procs =
    List.fold_left
      (fun m (name, fp) ->
        let entry =
          {
            pe_fp = fp;
            pe_cfg = SM.find name d.Driver.cfgs;
            pe_conv = SM.find name d.Driver.convs;
            pe_summary = Driver.summary d name;
          }
        in
        (* per-procedure share of the snapshot, for `ipcp profile`'s
           cache attribution; only measured with telemetry on (the extra
           marshal is pure observation) *)
        if Obs.on () then
          count ("incr.proc.bytes/" ^ name)
            (String.length (Marshal.to_string entry []));
        SM.add name entry m)
      SM.empty fps
  in
  {
    s_config_key = Fingerprint.config config;
    s_globals_hash = Fingerprint.globals d.Driver.symtab;
    s_program_hash = program_hash;
    s_order = d.Driver.symtab.Symtab.order;
    s_procs = procs;
    s_vals = d.Driver.solver.Solver.vals;
    s_solver_stats = d.Driver.solver.Solver.stats;
    s_run = run;
    s_substitution = sub;
  }

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
      let program_hash =
        Fingerprint.program ~config_key ~globals_hash
          (List.map (fun (name, fp) -> (name, fp.Fingerprint.fp_content)) fps)
      in
      let prev, cold_reason =
        match Trace.span "incr:load" (fun () -> load_snapshot ~dir ~key) with
        | Error reason -> (None, Some reason)
        | Ok s when s.s_config_key <> config_key ->
            count1 "incr.cold.config";
            (None, Some "configuration changed")
        | Ok s when s.s_globals_hash <> globals_hash ->
            count1 "incr.cold.globals";
            (None, Some "global (COMMON) table changed")
        | Ok s -> (Some s, None)
      in
      if prev = None then count1 "incr.cold";
      let reuse =
        match prev with
        | Some s -> reuse_of s ~fps ~program_hash
        | None -> Driver.no_reuse
      in
      let driver = Driver.analyze ~config ~reuse symtab in
      let kept = Driver.kept_summaries reuse driver.Driver.cg in
      let n_procs = List.length fps in
      let fixpoint_hit = Option.is_some reuse.Driver.keep_fixpoint in
      let report =
        {
          r_enabled = true;
          r_cold = cold_reason;
          r_procs = n_procs;
          r_changed = n_procs - SM.cardinal reuse.Driver.keep_summaries;
          r_dirty = n_procs - SM.cardinal kept;
          r_ir_reused = SM.cardinal reuse.Driver.keep_ir;
          r_summary_reused = SM.cardinal kept;
          r_fixpoint_reused = fixpoint_hit;
          r_substitution_reused = fixpoint_hit;
        }
      in
      count "incr.procs" n_procs;
      count "incr.changed" report.r_changed;
      count "incr.dirty" report.r_dirty;
      count "incr.ir.reused" report.r_ir_reused;
      count "incr.ir.rebuilt" (n_procs - report.r_ir_reused);
      count "incr.summary.reused" report.r_summary_reused;
      count "incr.summary.rebuilt" report.r_dirty;
      count1
        (if fixpoint_hit then "incr.fixpoint.hit" else "incr.fixpoint.miss");
      if Obs.on () then
        List.iter
          (fun (name, _) ->
            let tier t hit =
              count1
                (Fmt.str "incr.proc.%s.%s/%s" t
                   (if hit then "hit" else "miss")
                   name)
            in
            tier "ir" (SM.mem name reuse.Driver.keep_ir);
            tier "summary" (SM.mem name kept))
          fps;
      let replay, substitution =
        match prev with
        | Some s when fixpoint_hit -> (Some s.s_run, Some s.s_substitution)
        | _ -> (None, None)
      in
      {
        o_driver = driver;
        o_report = report;
        o_replay = replay;
        o_substitution = substitution;
        (* a new snapshot is only worth writing when something changed *)
        o_commit =
          (if fixpoint_hit && report.r_ir_reused = n_procs then None
           else
             Some
               (fun run sub ->
                 Trace.span "incr:persist" (fun () ->
                     save_snapshot ~dir ~key
                       (snapshot ~config ~program_hash ~fps driver run sub))));
      }
