(** The stable [Ipcp] facade — see ipcp.mli for the contract. *)

module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Incr = Ipcp_incr.Incr
module Store = Ipcp_incr.Store
module Lint = Ipcp_analysis.Lint
module Substitute = Ipcp_opt.Substitute
module Complete = Ipcp_opt.Complete
module Sema = Ipcp_frontend.Sema
module Diag = Ipcp_frontend.Diag
module Symtab = Ipcp_frontend.Symtab

let api_version = 2

(* ------------------------------------------------------------------ *)

module Source = struct
  type t = { file : string; text : string }

  let of_string ?(file = "<string>") text = { file; text }

  let of_file path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match really_input_string ic (in_channel_length ic) with
            | text -> Ok { file = path; text }
            | exception Sys_error e -> Error e
            | exception End_of_file -> Error (path ^ ": truncated read"))

  let file t = t.file

  let text t = t.text
end

module Cache = struct
  type policy = Incr.policy = Disabled | Dir of string

  let default_dir = ".ipcp-cache"

  type report = Incr.report = {
    r_enabled : bool;
    r_cold : string option;
    r_procs : int;
    r_changed : int;
    r_dirty : int;
    r_ir_reused : int;
    r_summary_reused : int;
    r_fixpoint_reused : bool;
    r_substitution_reused : bool;
  }

  type load_error = Store.load_error =
    | Missing
    | Stale of string
    | Corrupt of string

  let describe_error = Store.load_error_to_string

  type entry = Store.entry_info = {
    ei_file : string;
    ei_bytes : int;
    ei_objects : int;
    ei_status : (unit, load_error) result;
  }

  let entries = Incr.entries

  let clear = Store.clear
end

(* ------------------------------------------------------------------ *)

module Result = struct
  type census = Driver.jf_census = {
    n_bottom : int;
    n_const : int;
    n_passthrough : int;
    n_poly : int;
    total_cost : int;
  }

  type solver_stats = {
    pops : int;
    jf_evals : int;
    jf_eval_cost : int;
    lowerings : int;
  }

  type substitution = Substitute.result = {
    program : Ipcp_frontend.Ast.program;
    per_proc : int Ipcp_frontend.Names.SM.t;
    total : int;
  }

  type t = {
    driver : Driver.t;
    substitution : substitution;
    stats : (string * int) list;
    convergence : Metrics.conv_row list;
    cache : Cache.report;
  }

  let config t = t.driver.Driver.config

  let procedures t = t.driver.Driver.symtab.Symtab.order

  let constants t p =
    Ipcp_frontend.Names.SM.bindings (Driver.constants t.driver p)

  let total_constants t = Driver.total_constants t.driver

  let census t = Driver.census t.driver

  let solver_stats t =
    let s = t.driver.Driver.solver.Solver.stats in
    {
      pops = s.Solver.pops;
      jf_evals = s.Solver.jf_evals;
      jf_eval_cost = s.Solver.jf_eval_cost;
      lowerings = s.Solver.lowerings;
    }

  let stats t = t.stats

  let convergence t = t.convergence

  let cache t = t.cache

  let substitution t = t.substitution

  let ranges t = Driver.analyze_ranges t.driver

  let lints ?enabled ?ranges ?procs t = Lint.run ?enabled ?ranges ?procs t.driver

  let lints_with_verdicts ?enabled ?ranges ?procs t =
    Lint.run_with_verdicts ?enabled ?ranges ?procs t.driver

  let driver t = t.driver
end

(* ------------------------------------------------------------------ *)

module Domains = struct
  module Registry = Ipcp_contexts.Registry

  type report = { text : string; json : string }

  let of_report (rep : Registry.report) =
    {
      text = rep.Registry.r_text;
      json = Ipcp_obs.Json.to_string rep.Registry.r_json;
    }

  let names () = Registry.names

  let describe name =
    Option.map (fun e -> e.Registry.e_doc) (Registry.find name)

  let run name (r : Result.t) : report option =
    Option.map
      (fun e -> of_report (e.Registry.e_run r.Result.driver))
      (Registry.find name)

  let context_names () = Registry.value_names

  let describe_contexts name =
    Option.map (fun v -> v.Registry.v_doc) (Registry.value name)

  let run_contexts ?ctx_limit ?warm name (r : Result.t) : report option =
    Option.map
      (fun v ->
        of_report (v.Registry.v_tabulate ?ctx_limit ?warm r.Result.driver))
      (Registry.value name)
end

(* ------------------------------------------------------------------ *)

let analyze_symtab_window ~reset_window ?(config = Config.default)
    ?(cache = Cache.Disabled) ~key (symtab : Symtab.t) =
  (* each call owns the telemetry window, so per-run statistics are
     comparable regardless of what the process did before; [analyze]
     opens the window itself, before parsing, so frontend time is
     attributed too *)
  if reset_window && Obs.on () then Metrics.reset ();
  let o = Incr.analyze ~config ~policy:cache ~key symtab in
  let driver = o.Incr.o_driver in
  let substitution =
    match o.Incr.o_substitution with
    | Some s -> s
    | None -> Substitute.apply driver
  in
  let live () =
    if not (Obs.on ()) then { Incr.rs_counters = []; rs_convergence = [] }
    else
      {
        Incr.rs_counters = Metrics.deterministic (Metrics.snapshot ());
        rs_convergence = Metrics.convergence ();
      }
  in
  let run =
    match o.Incr.o_replay with
    (* a manifest written with telemetry off has nothing to replay; fall
       back to the (deterministic, warm-path) live counters *)
    | Some r when r.Incr.rs_counters <> [] || not (Obs.on ()) -> r
    | Some _ | None -> live ()
  in
  (match o.Incr.o_commit with
  | Some commit -> ignore (commit run substitution)
  | None -> ());
  ( {
      Result.driver;
      substitution;
      stats = run.Incr.rs_counters;
      convergence = run.Incr.rs_convergence;
      cache = o.Incr.o_report;
    },
    o.Incr.o_keys )

let analyze_symtab ?config ?cache ~key symtab =
  fst (analyze_symtab_window ~reset_window:true ?config ?cache ~key symtab)

(* ------------------------------------------------------------------ *)
(* Sessions (api_version 2).  A session is the resident-state unit the
   serve layer speaks through: one compilation unit held warm — checked
   symbol table, converged result, program fingerprint — across a
   sequence of incremental updates and queries.  Sessions are not
   domain-safe; concurrent callers must serialize per session (the
   serve dispatcher does). *)

module Session = struct
  type dirty = {
    d_generation : int;
    d_procs : int;
    d_changed : int;
    d_dirty : int;
    d_dirty_procs : string list;
  }

  type t = {
    s_config : Config.t;
    s_cache : Cache.policy;
    mutable s_source : Source.t;
    mutable s_symtab : Symtab.t;
    mutable s_result : Result.t;
    mutable s_fingerprint : string;
    mutable s_fps : (string * string) list;  (** per-proc content hashes *)
    mutable s_generation : int;
    mutable s_dirty : dirty;
    mutable s_ranges : Ipcp_core.Ranges.t option;  (** per-generation memo *)
    mutable s_contexts : (string * Domains.report) list;
        (** per-generation memo of context-sensitive reports, by domain *)
    mutable s_closed : bool;
  }

  let check_open t = if t.s_closed then invalid_arg "Ipcp.Session: closed"

  (* changed ∪ transitive callers, over the current call graph — the
     closure whose summaries the pipeline recomputes — sorted by name *)
  let caller_closure (d : Driver.t) seeds =
    Ipcp_frontend.Names.SS.elements
      (Ipcp_callgraph.Callgraph.caller_closure d.Driver.cg seeds)

  let parse_source (src : Source.t) =
    Ipcp_obs.Trace.span "frontend:parse" (fun () ->
        Sema.parse_and_analyze ~file:src.Source.file src.Source.text)

  (* the response-cache key and the per-procedure content hashes: those
     a cached run computed for its lookup, else computed here *)
  let fingerprint config symtab = function
    | Some keys -> keys
    | None ->
        Ipcp_obs.Trace.span "session:fingerprint" (fun () ->
            (Incr.program_key config symtab, Incr.content_fingerprints symtab))

  let open_ ?(config = Config.default) ?(cache = Cache.Disabled)
      (src : Source.t) : (t, string) result =
    Diag.guard_s (fun () ->
        if Obs.on () then Metrics.reset ();
        let symtab = parse_source src in
        let result, keys =
          analyze_symtab_window ~reset_window:false ~config ~cache
            ~key:src.Source.file symtab
        in
        let n = List.length symtab.Symtab.order in
        (* a warm open replays the persistent cache; its report is the
           honest dirty summary.  Per-procedure names are reported for
           updates only (the on-disk report carries counts). *)
        let c = result.Result.cache in
        let changed, dirty =
          if c.Cache.r_enabled && c.Cache.r_cold = None then
            (c.Cache.r_changed, c.Cache.r_dirty)
          else (n, n)
        in
        let key, fps = fingerprint config symtab keys in
        {
          s_config = config;
          s_cache = cache;
          s_source = src;
          s_symtab = symtab;
          s_result = result;
          s_fingerprint = key;
          s_fps = fps;
          s_generation = 1;
          s_dirty =
            {
              d_generation = 1;
              d_procs = n;
              d_changed = changed;
              d_dirty = dirty;
              d_dirty_procs = [];
            };
          s_ranges = None;
          s_contexts = [];
          s_closed = false;
        })

  let update t (src : Source.t) : (dirty, string) result =
    check_open t;
    Diag.guard_s (fun () ->
        if Obs.on () then Metrics.reset ();
        (* parse/check first: a rejected source leaves the session on its
           previous generation, untouched *)
        let symtab = parse_source src in
        let result, keys =
          analyze_symtab_window ~reset_window:false ~config:t.s_config
            ~cache:t.s_cache ~key:src.Source.file symtab
        in
        let key, fps = fingerprint t.s_config symtab keys in
        let by_name l =
          List.fold_left
            (fun m (name, fp) -> Ipcp_frontend.Names.SM.add name fp m)
            Ipcp_frontend.Names.SM.empty l
        in
        let old_fps = by_name t.s_fps and new_fps = by_name fps in
        let changed_names =
          List.filter_map
            (fun (name, fp) ->
              match Ipcp_frontend.Names.SM.find_opt name old_fps with
              | Some old when String.equal old fp -> None
              | _ -> Some name)
            fps
        in
        let removed =
          List.filter
            (fun (name, _) -> not (Ipcp_frontend.Names.SM.mem name new_fps))
            t.s_fps
        in
        let dirty_procs = caller_closure result.Result.driver changed_names in
        let summary =
          {
            d_generation = t.s_generation + 1;
            d_procs = List.length symtab.Symtab.order;
            d_changed = List.length changed_names + List.length removed;
            d_dirty = List.length dirty_procs;
            d_dirty_procs = dirty_procs;
          }
        in
        t.s_source <- src;
        t.s_symtab <- symtab;
        t.s_result <- result;
        t.s_fingerprint <- key;
        t.s_fps <- fps;
        t.s_generation <- summary.d_generation;
        t.s_dirty <- summary;
        t.s_ranges <- None;
        t.s_contexts <- [];
        summary)

  (* Invalidation drops the session's derived artifacts (the ranges
     memo; the serve layer additionally evicts its cached responses)
     and reports the closure that a reanalysis would rebuild.  The
     converged fixpoint itself is still valid — the source has not
     changed — so it is kept. *)
  let invalidate t procs : dirty =
    check_open t;
    let seeds = if procs = [] then t.s_symtab.Symtab.order else procs in
    let dirty_procs = caller_closure t.s_result.Result.driver seeds in
    let summary =
      {
        d_generation = t.s_generation + 1;
        d_procs = List.length t.s_symtab.Symtab.order;
        d_changed = List.length (List.filter (fun p -> List.mem p t.s_symtab.Symtab.order) seeds);
        d_dirty = List.length dirty_procs;
        d_dirty_procs = dirty_procs;
      }
    in
    t.s_generation <- summary.d_generation;
    t.s_dirty <- summary;
    t.s_ranges <- None;
    t.s_contexts <- [];
    summary

  let result t =
    check_open t;
    t.s_result

  let ranges t =
    check_open t;
    match t.s_ranges with
    | Some r -> r
    | None ->
        let r = Result.ranges t.s_result in
        t.s_ranges <- Some r;
        r

  (* Context-sensitive queries ride the process-global warm store keyed
     by deep fingerprints, so even a fresh memo after an update only
     re-settles the dirty subtree's contexts. *)
  let contexts t domain : Domains.report option =
    check_open t;
    match List.assoc_opt domain t.s_contexts with
    | Some _ as r -> r
    | None ->
        let r = Domains.run_contexts domain t.s_result in
        (match r with
        | Some rep -> t.s_contexts <- (domain, rep) :: t.s_contexts
        | None -> ());
        r

  let source t = t.s_source

  let config t = t.s_config

  let cache_policy t = t.s_cache

  let generation t = t.s_generation

  let last_dirty t = t.s_dirty

  let fingerprint t =
    check_open t;
    t.s_fingerprint

  let procedures t =
    check_open t;
    t.s_symtab.Symtab.order

  let closed t = t.s_closed

  (* the in-process copy of the cache (IR included) is only worth its
     memory while a session may update *)
  let close t =
    if not t.s_closed then begin
      t.s_closed <- true;
      match t.s_cache with
      | Cache.Dir dir -> Incr.forget ~dir ~key:t.s_source.Source.file
      | Cache.Disabled -> ()
    end
end

(* v1 one-shot entry point, now a thin wrapper over an implicit
   session: open, take the result, drop the session. *)
let analyze ?config ?cache (src : Source.t) : (Result.t, string) result =
  match Session.open_ ?config ?cache src with
  | Ok s -> Ok (Session.result s)
  | Error _ as e -> e

type complete = Complete.t = {
  count : int;
  rounds : int;
  final_source : string;
  final : Driver.t;
}

let complete ?config ?max_rounds (src : Source.t) : (complete, string) result
    =
  Diag.guard_s (fun () -> Complete.run ?config ?max_rounds src.Source.text)
