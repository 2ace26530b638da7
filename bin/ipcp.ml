(** The [ipcp] command-line driver.

    Subcommands:
    - [analyze]    run interprocedural constant propagation, print the
                   CONSTANTS sets and the substitution count; or, with
                   [--domain=NAME], a registered analysis's report
                   ([--domain=interval]: the value ranges), and with
                   [--contexts] its value-context table
    - [explain]    derivation tree of an entry value: which call edges and
                   jump functions lowered it, back to the main seed
    - [substitute] print the transformed source with constants substituted
    - [complete]   iterate propagation with dead-code elimination
    - [intra]      the purely intraprocedural baseline count
    - [lint]       interprocedural diagnostics over the propagation results
    - [stats]      telemetry metrics aggregated over the bundled suite
    - [profile]    wall-time attribution of one analysis: phase table,
                   hot procedures, pool and cache behaviour
    - [serve]      the analysis server: JSON-RPC frames over stdio or a
                   Unix socket against resident sessions
    - [watch]      reanalyze a file whenever it changes (a serve client
                   holding the file as a resident session)
    - [loadgen]    drive an analysis server with a mixed query/edit load
    - [cache]      inspect or clear an incremental cache directory
    - [run]        interpret a program (exits nonzero on a fault)
    - [dump]       internal representations (tokens/ast/cfg/ssa/callgraph/
                   mod/rjf/liveness/constants)
    - [clone]      procedure-cloning advice from the CONSTANTS sets
    - [suite]      print a bundled benchmark program
    - [gen]        emit a random well-formed program

    Analysis commands go through the stable {!Ipcp_api.Ipcp} facade.
    [dump] (whose whole point is the internals) reaches below it, and
    [explain], [lint --contexts], [compare-precision] and [clone] reach
    the driver through the unstable [Ipcp.Result.driver]. *)

open Cmdliner
open Ipcp_frontend
open Cli_common
module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp.Config

(* [dump]/[intra]/[run] want the checked symbol table itself *)
let parse_and_check (src : Ipcp.Source.t) =
  or_die
    (Diag.guard_s (fun () ->
         Sema.parse_and_analyze ~file:(Ipcp.Source.file src)
           (Ipcp.Source.text src)))

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let domain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "domain" ] ~docv:"NAME"
          ~doc:
            "Run the named analysis from the registry (e.g. copyprop, \
             live, avail; see --list-domains) over the same pipeline \
             artifacts, instead of the constant-propagation report.")
  in
  let list_domains_arg =
    Arg.(
      value & flag
      & info [ "list-domains" ]
          ~doc:"List the registered analyses and exit.")
  in
  let contexts_arg =
    Arg.(
      value & flag
      & info [ "contexts" ]
          ~doc:
            "Run the context-sensitive (value-context tabulation) \
             instantiation of the selected value domain instead of the \
             jump-function analysis: one entry/exit row per (procedure, \
             entry abstract value), plus the per-procedure merged view.  \
             --domain defaults to const here.")
  in
  let ctx_limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ctx-limit" ] ~docv:"N"
          ~doc:
            "With --contexts: cap of exact contexts per procedure; \
             further entry values merge into one widened fallback \
             context (default 64).")
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniFortran source file.")
  in
  let run config obs cache domain list_domains contexts ctx_limit format path
      =
    if list_domains then (
      List.iter
        (fun n ->
          Fmt.pr "%-10s %s@." n
            (Option.value ~default:"" (Ipcp.Domains.describe n)))
        (Ipcp.Domains.names ());
      List.iter
        (fun n ->
          Fmt.pr "%-10s %s  (with --contexts)@." n
            (Option.value ~default:"" (Ipcp.Domains.describe_contexts n)))
        (Ipcp.Domains.context_names ());
      exit 0);
    (* --contexts defaults the domain to const; both registries reject
       unknown names up front *)
    let domain = if contexts && domain = None then Some "const" else domain in
    (match domain with
    | Some name
      when (if contexts then Ipcp.Domains.describe_contexts name
            else Ipcp.Domains.describe name)
           = None ->
        Fmt.epr "ipcp: unknown %sdomain %s (try --list-domains)@."
          (if contexts then "context-sensitive " else "")
          name;
        exit 2
    | _ -> ());
    let path =
      match path with
      | Some p -> p
      | None ->
          Fmt.epr "ipcp: analyze requires a FILE (or --list-domains)@.";
          exit 2
    in
    let src = load_source path in
    with_obs obs @@ fun () ->
    let r = or_die (Ipcp.analyze ~config ~cache src) in
    (match domain with
    | Some name -> (
        let rep =
          if contexts then
            Ipcp.Domains.run_contexts ?ctx_limit:ctx_limit name r
          else Ipcp.Domains.run name r
        in
        match rep with
        | Some rep -> (
            match format with
            | `Text -> Fmt.pr "%s" rep.Ipcp.Domains.text
            | `Json -> Fmt.pr "%s@." rep.Ipcp.Domains.json)
        | None -> assert false (* name checked above *))
    | None ->
        Fmt.pr "configuration: %a@." Config.pp config;
        List.iter
          (fun p ->
            match Ipcp.Result.constants r p with
            | [] -> ()
            | cs ->
                Fmt.pr "CONSTANTS(%s) = {%a}@." p
                  Fmt.(
                    list ~sep:(any ", ") (fun ppf (n, c) ->
                        Fmt.pf ppf "(%s, %d)" n c))
                  cs)
          (Ipcp.Result.procedures r);
        Fmt.pr "constants substituted: %d@."
          (Ipcp.Result.substitution r).Ipcp.Result.total;
        let census = Ipcp.Result.census r in
        Fmt.pr
          "jump functions built: %d constant, %d pass-through, %d polynomial, %d bottom@."
          census.Ipcp.Result.n_const census.Ipcp.Result.n_passthrough
          census.Ipcp.Result.n_poly census.Ipcp.Result.n_bottom;
        let st = Ipcp.Result.solver_stats r in
        Fmt.pr "solver: %d pops, %d jump-function evaluations, %d lowerings@."
          st.Ipcp.Result.pops st.Ipcp.Result.jf_evals
          st.Ipcp.Result.lowerings);
    cache_note obs (Ipcp.Result.cache r)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run interprocedural constant propagation.")
    Term.(
      const run $ config_term $ obs_term $ cache_term () $ domain_arg
      $ list_domains_arg $ contexts_arg $ ctx_limit_arg $ format_arg
      $ opt_file_arg)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let module Registry = Ipcp_contexts.Registry in
  let module Provenance = Ipcp_core.Provenance in
  let domain_arg =
    Arg.(
      value & opt string "const"
      & info [ "domain" ] ~docv:"NAME"
          ~doc:
            "Value domain to explain: const (default), interval or \
             copyprop.")
  in
  let contexts_arg =
    Arg.(
      value & flag
      & info [ "contexts" ]
          ~doc:
            "Explain the value-context tabulation instead of a single \
             entry value: print the context table of the selected domain \
             together with every context-creation edge (which caller, at \
             which call site, created which context with which entry \
             values).  The positional target is not used.")
  in
  let target_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PROC[.FORMAL]"
          ~doc:
            "Entry to explain: a procedure (every tracked parameter), or \
             PROC.FORMAL for a single one.  Not used with --contexts.")
  in
  let run config obs domain contexts format path target =
    let src = load_source path in
    with_obs obs @@ fun () ->
    (* provenance is recorded fresh per run and never cached, so the
       analysis here deliberately bypasses the incremental store *)
    Provenance.with_enabled @@ fun () ->
    let r = or_die (Ipcp.analyze ~config src) in
    if contexts then (
      match Registry.explain_contexts ~domain (Ipcp.Result.driver r) with
      | Error e ->
          Fmt.epr "ipcp: %s@." e;
          exit 2
      | Ok rep -> (
          match format with
          | `Text -> Fmt.pr "%s" rep.Registry.r_text
          | `Json ->
              Fmt.pr "%s@." (Ipcp_obs.Json.to_string rep.Registry.r_json)))
    else begin
      let target =
        match target with
        | Some t -> t
        | None ->
            Fmt.epr
              "ipcp: explain requires PROC[.FORMAL] (or --contexts)@.";
            exit 2
      in
      let proc, param =
        match String.index_opt target '.' with
        | None -> (target, None)
        | Some i ->
            ( String.sub target 0 i,
              Some (String.sub target (i + 1) (String.length target - i - 1))
            )
      in
      match
        Registry.explain ~domain (Ipcp.Result.driver r) ~proc ?param ()
      with
      | Error e ->
          Fmt.epr "ipcp: %s@." e;
          exit 2
      | Ok x -> (
          (match format with
          | `Text -> Fmt.pr "%s" x.Registry.x_text
          | `Json ->
              Fmt.pr "%s@." (Ipcp_obs.Json.to_string x.Registry.x_json));
          (* every printed edge was re-evaluated against the fixpoint; a
             violation means the tree lies, which is a hard failure *)
          match x.Registry.x_violations with
          | [] -> ()
          | vs ->
              List.iter
                (fun v ->
                  Fmt.epr "! explain: unverified edge %a@."
                    Ipcp_core.Explain.pp_violation v)
                vs;
              exit 3)
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain where an interprocedural fact comes from: rerun the \
          analysis with derivation recording enabled and print, per \
          entry value, the chain of call edges and jump functions that \
          lowered it, back to the main program's seed.")
    Term.(
      const run $ config_term $ obs_term $ domain_arg $ contexts_arg
      $ format_arg $ file_arg $ target_arg)

(* ------------------------------------------------------------------ *)
(* substitute *)

let substitute_cmd =
  let run config obs cache path =
    let src = load_source path in
    with_obs obs @@ fun () ->
    let r = or_die (Ipcp.analyze ~config ~cache src) in
    let sub = Ipcp.Result.substitution r in
    Fmt.pr "%s" (Pretty.program_to_string sub.Ipcp.Result.program);
    note obs "! %d constants substituted@." sub.Ipcp.Result.total;
    cache_note obs (Ipcp.Result.cache r)
  in
  Cmd.v
    (Cmd.info "substitute"
       ~doc:"Print the source with interprocedural constants substituted.")
    Term.(const run $ config_term $ obs_term $ cache_term () $ file_arg)

(* ------------------------------------------------------------------ *)
(* complete *)

let complete_cmd =
  let run config obs path =
    let src = load_source path in
    with_obs obs @@ fun () ->
    let r = or_die (Ipcp.complete ~config src) in
    Fmt.pr "%s" r.Ipcp.final_source;
    note obs "! complete propagation: %d constants in %d round(s)@."
      r.Ipcp.count r.Ipcp.rounds
  in
  Cmd.v
    (Cmd.info "complete"
       ~doc:
         "Iterate constant propagation with dead-code elimination to a \
          fixpoint.")
    Term.(const run $ config_term $ obs_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* intra *)

let intra_cmd =
  let run no_mod path =
    let symtab = parse_and_check (load_source path) in
    Fmt.pr "intraprocedural constants substituted: %d@."
      (Ipcp_opt.Intra.count ~use_mod:(not no_mod) symtab)
  in
  Cmd.v
    (Cmd.info "intra"
       ~doc:"Purely intraprocedural constant propagation baseline.")
    Term.(const run $ no_mod $ file_arg)

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let input_arg =
    Arg.(
      value & opt (list int) []
      & info [ "input" ] ~doc:"Comma-separated integers consumed by READ.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Seed for undefined-variable values.")
  in
  let run input seed path =
    let symtab = parse_and_check (load_source path) in
    let r = Ipcp_interp.Interp.run ~seed ~input symtab in
    List.iter (fun v -> Fmt.pr "%d@." v) r.Ipcp_interp.Interp.output;
    Fmt.epr "! %a after %d steps@." Ipcp_interp.Interp.pp_status
      r.Ipcp_interp.Interp.status r.Ipcp_interp.Interp.steps_used;
    (* a faulted execution is a failure, not just a stderr note *)
    match r.Ipcp_interp.Interp.status with
    | Ipcp_interp.Interp.Fault _ -> exit 1
    | _ -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Interpret a program.")
    Term.(const run $ input_arg $ seed_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* dump *)

let dump_cmd =
  let what_arg =
    Arg.(
      value
      & opt (enum [ ("ast", `Ast); ("cfg", `Cfg); ("ssa", `Ssa); ("callgraph", `Cg); ("mod", `Mod); ("rjf", `Rjf); ("liveness", `Live); ("vals", `Vals) ]) `Ssa
      & info [ "what" ] ~doc:"One of ast, cfg, ssa, callgraph, mod, rjf, liveness, vals.")
  in
  let module Driver = Ipcp_core.Driver in
  let run config what path =
    let symtab = parse_and_check (load_source path) in
    match what with
    | `Ast ->
        List.iter
          (fun p -> Fmt.pr "%a@." Pretty.pp_proc (Symtab.proc symtab p).Symtab.proc)
          symtab.Symtab.order
    | `Cfg ->
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        Names.SM.iter (fun _ cfg -> Fmt.pr "%a@." Ipcp_ir.Cfg.pp cfg) cfgs
    | `Ssa ->
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        Names.SM.iter
          (fun _ cfg -> Fmt.pr "%a@." Ipcp_ir.Cfg.pp (Ipcp_ir.Ssa.convert cfg))
          cfgs
    | `Cg ->
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        let cg =
          Ipcp_callgraph.Callgraph.build ~main:symtab.Symtab.main
            ~order:symtab.Symtab.order cfgs
        in
        Fmt.pr "%a" Ipcp_callgraph.Callgraph.pp cg
    | `Mod ->
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        let cg =
          Ipcp_callgraph.Callgraph.build ~main:symtab.Symtab.main
            ~order:symtab.Symtab.order cfgs
        in
        Fmt.pr "%a" Ipcp_summary.Modref.pp
          (Ipcp_summary.Modref.compute symtab cfgs cg)
    | `Rjf ->
        let t = Driver.analyze ~config symtab in
        Fmt.pr "%a" Ipcp_core.Returnjf.pp t.Driver.rjfs
    | `Live ->
        let cfgs = Ipcp_ir.Lower.lower_program symtab in
        Names.SM.iter
          (fun p cfg ->
            let psym = Symtab.proc symtab p in
            let live =
              Ipcp_ir.Liveness.compute
                ~formals:(Symtab.formals psym)
                ~globals:(Symtab.global_names symtab)
                cfg
            in
            Array.iteri
              (fun i s ->
                Fmt.pr "%s B%d live-in: %a@." p i
                  Fmt.(list ~sep:(any " ") string)
                  (Names.SS.elements s))
              live.Ipcp_ir.Liveness.live_in)
          cfgs
    | `Vals ->
        let t = Driver.analyze ~config symtab in
        Fmt.pr "%a" Ipcp_core.Solver.pp t.Driver.solver
  in
  Cmd.v (Cmd.info "dump" ~doc:"Dump internal representations.")
    Term.(const run $ config_term $ what_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let module Lint = Ipcp_analysis.Lint in
  let werror_arg =
    Arg.(value & flag & info [ "werror" ] ~doc:"Treat warnings as errors.")
  in
  let ranges_flag =
    Arg.(
      value & flag
      & info [ "ranges" ]
          ~doc:
            "Also run interprocedural value-range analysis and let the \
             fault checks consult the interval facts (adds proved \
             verdicts and the range-backed IPCP-W008 check).")
  in
  let contexts_flag =
    Arg.(
      value & flag
      & info [ "contexts" ]
          ~doc:
            "With --ranges (implied): additionally run the \
             context-sensitive interval tabulation and refine the range \
             facts with its per-context evidence before the fault checks \
             consult them — verdicts the merged-context ranges leave \
             Unknown can be decided.")
  in
  let disable_arg =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"IDS"
          ~doc:
            "Disable checks by id (e.g. IPCP-W003); repeatable, accepts \
             comma-separated lists.")
  in
  let list_checks_arg =
    Arg.(
      value & flag
      & info [ "list-checks" ] ~doc:"List the available checks and exit.")
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniFortran source file.")
  in
  let run config obs cache format werror use_ranges use_contexts disable
      list_checks path =
    if list_checks then (
      List.iter
        (fun c ->
          Fmt.pr "%s  %-7s  %s@." (Lint.id c)
            (Diag.Severity.name (Lint.severity c))
            (Lint.describe c))
        Lint.all_checks;
      exit 0);
    let path =
      match path with
      | Some p -> p
      | None ->
          Fmt.epr "ipcp: lint requires a FILE (or --list-checks)@.";
          exit 2
    in
    let disabled =
      List.concat_map (String.split_on_char ',') disable
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match Lint.check_of_id s with
             | Some c -> c
             | None ->
                 Fmt.epr "ipcp: unknown check id %s@." s;
                 exit 2)
    in
    let src = load_source path in
    (* the exit decision happens outside with_obs so the trace and stats
       are flushed first *)
    let e, w =
      with_obs obs @@ fun () ->
      let r = or_die (Ipcp.analyze ~config ~cache src) in
      let enabled c = not (List.mem c disabled) in
      let use_ranges = use_ranges || use_contexts in
      let findings, verdicts =
        if use_ranges then
          let rng = Ipcp.Result.ranges r in
          let rng =
            if use_contexts then
              let module Registry = Ipcp_contexts.Registry in
              let ti = Registry.Interval.run (Ipcp.Result.driver r) in
              Ipcp_contexts.Compare.refine_facts rng
                ti.Registry.Interval.T.facts
            else rng
          in
          let fs, vt = Ipcp.Result.lints_with_verdicts ~enabled ~ranges:rng r in
          (fs, Some vt)
        else (Ipcp.Result.lints ~enabled r, None)
      in
      (match format with
      | `Text ->
          Fmt.pr "%s" (Lint.render_text findings);
          let e, w, i = Lint.summary findings in
          Fmt.epr "! lint: %d error(s), %d warning(s), %d info(s)@." e w i;
          Option.iter
            (fun (v : Lint.verdict_totals) ->
              Fmt.epr
                "! verdicts: %d proved-safe, %d proved-fault, %d unknown@."
                v.Lint.n_safe v.Lint.n_fault v.Lint.n_unknown)
            verdicts
      | `Json -> Fmt.pr "%s@." (Lint.render_json ?verdicts findings));
      cache_note obs (Ipcp.Result.cache r);
      let e, w, _ = Lint.summary findings in
      (e, w)
    in
    (* --werror promotes every warning, the range-backed ones included *)
    if e > 0 || (werror && w > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Report interprocedural diagnostics (constant division by zero, \
          out-of-bounds subscripts, constant conditions, dead formals, \
          unreachable procedures).")
    Term.(
      const run $ config_term $ obs_term $ cache_term () $ format_arg
      $ werror_arg $ ranges_flag $ contexts_flag $ disable_arg
      $ list_checks_arg $ opt_file_arg)

(* ------------------------------------------------------------------ *)
(* clone *)

let clone_cmd =
  let run config path =
    let r = or_die (Ipcp.analyze ~config (load_source path)) in
    match Ipcp_core.Cloning.advise (Ipcp.Result.driver r) with
    | [] -> Fmt.pr "no profitable cloning opportunities@."
    | advs -> List.iter (Fmt.pr "%a" Ipcp_core.Cloning.pp_advice) advs
  in
  Cmd.v
    (Cmd.info "clone"
       ~doc:"Suggest procedure clones from divergent constant vectors.")
    Term.(const run $ config_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* compare-precision *)

let compare_cmd =
  let module Compare = Ipcp_contexts.Compare in
  let gen_procs_arg =
    Arg.(
      value & opt int 0
      & info [ "gen-procs" ] ~docv:"N"
          ~doc:
            "Also compare on generated programs with $(docv) procedures \
             (one per call-graph shape: mixed and cyclic; 0 = suite \
             only).")
  in
  let ctx_limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ctx-limit" ] ~docv:"N"
          ~doc:"Exact contexts per procedure (default 64).")
  in
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Additional MiniFortran sources to compare on.")
  in
  let run config obs ctx_limit gen_procs format files =
    with_obs obs @@ fun () ->
    let suite =
      List.map
        (fun (p : Ipcp_suite.Programs.program) ->
          (p.Ipcp_suite.Programs.name, p.Ipcp_suite.Programs.source))
        (Ipcp_suite.Programs.all @ Ipcp_suite.Programs.extras)
    in
    let generated =
      if gen_procs <= 0 then []
      else
        List.map
          (fun shape ->
            ( Fmt.str "gen-%s-%d"
                (Ipcp_gen.Generator.shape_name shape)
                gen_procs,
              Ipcp_gen.Generator.generate
                ~params:
                  {
                    Ipcp_gen.Generator.default with
                    Ipcp_gen.Generator.seed = 1;
                    n_procs = gen_procs;
                    shape;
                  }
                () ))
          [ Ipcp_gen.Generator.Mixed; Ipcp_gen.Generator.Cyclic ]
    in
    let extra =
      List.map
        (fun path ->
          let src = load_source path in
          (Ipcp.Source.file src, Ipcp.Source.text src))
        files
    in
    let rows =
      List.map
        (fun (name, source) ->
          let r =
            or_die
              (Ipcp.analyze ~config (Ipcp.Source.of_string ~file:name source))
          in
          Compare.run_program ?ctx_limit ~name (Ipcp.Result.driver r))
        (suite @ generated @ extra)
    in
    (match format with
    | `Text -> Fmt.pr "%a" Compare.render_rows rows
    | `Json -> Fmt.pr "%s@." (Json.to_string (Compare.json rows)));
    (* the keystone: context sensitivity must never lose a constant the
       jump-function solver proves — a violation is a soundness bug *)
    if List.exists (fun r -> r.Compare.r_violations <> []) rows then exit 3
  in
  Cmd.v
    (Cmd.info "compare-precision"
       ~doc:
         "Precision/cost study of context-sensitive IPCP: run both the \
          1986 jump-function solver and the value-context tabulation \
          over the bundled suite (plus generated and user programs) and \
          report extra constants, lint verdicts decided only by the \
          context-sensitive facts, context-table sizes, and time/memory \
          for each side.  Exits nonzero if tabulation loses any constant \
          the solver proves (soundness keystone).")
    Term.(
      const run $ config_term $ obs_term $ ctx_limit_arg $ gen_procs_arg
      $ format_arg $ files_arg)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace-event file covering the whole \
             suite run.")
  in
  let run config cache format trace =
    Obs.set_enabled true;
    Trace.reset ();
    (* One metrics window per program (the facade resets the registry on
       entry and captures deterministic counters).  The programs
       themselves run in parallel (one worker per program, the
       per-program pipeline sequential inside it) — metrics registries
       are domain-local, and each task clears its own before finishing
       so nothing leaks into the joined totals.  With [--trace] the
       suite runs sequentially so each program's spans appear on the
       main lane in program order (parallel workers would interleave
       all twelve programs across their lanes).  With [--cache] a
       second run of this command
       replays every program's stored counters, so its output is
       byte-identical to the run that populated the cache. *)
    let suite_jobs = if trace <> None then 1 else config.Config.jobs in
    let one (p : Ipcp_suite.Programs.program) =
      let name = p.Ipcp_suite.Programs.name in
      let r =
        or_die
          (Ipcp.analyze
             ~config:{ config with Config.jobs = 1 }
             ~cache
             (Ipcp.Source.of_string ~file:name p.Ipcp_suite.Programs.source))
      in
      let row = (name, Ipcp.Result.stats r, Ipcp.Result.convergence r) in
      Metrics.reset ();
      row
    in
    let per_program =
      if suite_jobs <= 1 then List.map one Ipcp_suite.Programs.all
      else Ipcp_par.Pool.map_list ~jobs:suite_jobs one Ipcp_suite.Programs.all
    in
    let total = Report.merge (List.map (fun (_, s, _) -> s) per_program) in
    (match trace with
    | Some path -> write_file path (Trace.export_chrome ())
    | None -> ());
    match format with
    | `Json ->
        let programs =
          List.map
            (fun (name, snap, conv) ->
              ( name,
                Json.Obj
                  [
                    ("counters", Report.counters_json snap);
                    ("convergence", Report.convergence_json conv);
                  ] ))
            per_program
        in
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [
                  ("configuration", Json.Str (Fmt.str "%a" Config.pp config));
                  ("programs", Json.Obj programs);
                  ("total", Json.Obj [ ("counters", Report.counters_json total) ]);
                ]))
    | `Text ->
        let col snap k = Option.value ~default:0 (List.assoc_opt k snap) in
        Fmt.pr "configuration: %a@.@." Config.pp config;
        Fmt.pr "%-11s %6s %9s %10s %8s %12s %11s@." "program" "pops"
          "jf-evals" "lowerings" "meets" "symev-steps" "substituted";
        List.iter
          (fun (name, snap, _) ->
            Fmt.pr "%-11s %6d %9d %10d %8d %12d %11d@." name
              (col snap "solver.pops")
              (col snap "solver.jf_evals")
              (col snap "solver.lowerings")
              (col snap "solver.meets")
              (col snap "symeval.steps")
              (col snap "substitute.substituted"))
          per_program;
        Fmt.pr "%-11s %6d %9d %10d %8d %12d %11d@.@." "TOTAL"
          (col total "solver.pops")
          (col total "solver.jf_evals")
          (col total "solver.lowerings")
          (col total "solver.meets")
          (col total "symeval.steps")
          (col total "substitute.substituted");
        Fmt.pr "aggregate counters:@.";
        Fmt.pr "%a" Report.pp_counters total
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the analysis over the bundled 12-program suite with \
          telemetry enabled and report per-program and aggregate \
          metrics (deterministic counters only, so runs are comparable).")
    Term.(const run $ config_term $ cache_term () $ format_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows in the hot-procedure table (default 10).")
  in
  let ms ns = float_of_int ns /. 1e6 in
  let pct wall ns =
    if wall <= 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int wall
  in
  (* The phase table comes from the main trace lane: reduce its B/E
     events to one aggregated duration per top-level span name, plus the
     depth-1 children of each.  Top-level main-lane spans tile the run
     (frontend:parse / incr:* / analyze / pass:substitute), so their sum
     over the measured wall is the attribution coverage. *)
  let phase_tree () =
    let tops = ref [] (* (name, ns), first-seen order, aggregated *) in
    let childs = ref [] (* ((top, name), ns) *) in
    let bump store key ns =
      match List.assoc_opt key !store with
      | Some r -> r := !r + ns
      | None -> store := !store @ [ (key, ref ns) ]
    in
    let stack = ref [] in
    List.iter
      (fun (e : Trace.event) ->
        if e.Trace.ev_tid = 1 then
          match e.Trace.ev_ph with
          | Trace.B -> stack := (e.Trace.ev_name, e.Trace.ev_ts) :: !stack
          | Trace.E -> (
              match !stack with
              | [] -> ()
              | (name, t0) :: rest ->
                  stack := rest;
                  let ns = Int64.to_int (Int64.sub e.Trace.ev_ts t0) in
                  (match rest with
                  | [] -> bump tops name ns
                  | [ (top, _) ] -> bump childs (top, name) ns
                  | _ -> ())))
      (Trace.events ());
    ( List.map (fun (k, r) -> (k, !r)) !tops,
      List.map (fun (k, r) -> (k, !r)) !childs )
  in
  let run config cache top path =
    let src = load_source path in
    Obs.set_enabled true;
    Trace.reset ();
    Metrics.reset ();
    let t0 = Obs.now_ns () in
    let r = or_die (Ipcp.analyze ~config ~cache src) in
    let t1 = Obs.now_ns () in
    let wall = Int64.to_int (Int64.sub t1 t0) in
    let snap = Metrics.snapshot () in
    let get k = Option.value ~default:0 (List.assoc_opt k snap) in
    Fmt.pr "profile: %s  (wall %.2f ms, %d procedure(s), jobs %d)@.@."
      (Ipcp.Source.file src) (ms wall)
      (List.length (Ipcp.Result.procedures r))
      config.Config.jobs;
    (* phases; the allocation column is the span's inclusive minor-heap
       words (so a parent includes its children, like its time) *)
    let tops, childs = phase_tree () in
    let mwords name = float_of_int (get ("gc.minor_words/" ^ name)) /. 1e6 in
    Fmt.pr "%-32s %9s %7s %9s@." "phase" "ms" "% wall" "alloc_MW";
    let covered = List.fold_left (fun a (_, ns) -> a + ns) 0 tops in
    List.iter
      (fun (name, ns) ->
        Fmt.pr "%-32s %9.3f %6.1f%% %9.2f@." name (ms ns) (pct wall ns)
          (mwords name);
        List.iter
          (fun ((tp, child), cns) ->
            if tp = name then
              Fmt.pr "  %-30s %9.3f %6.1f%% %9.2f@." child (ms cns)
                (pct wall cns) (mwords child))
          childs)
      tops;
    Fmt.pr "%-32s %9.3f %6.1f%%@." "(unattributed)"
      (ms (wall - covered))
      (pct wall (wall - covered));
    Fmt.pr "attributed: %.1f%% of wall@.@." (pct wall covered);
    (* hot procedures, by the per-procedure stage timers *)
    let stages = [ "lower"; "ssa"; "stage2"; "rehydrate"; "stage4" ] in
    let per_proc = Hashtbl.create 64 in
    List.iter
      (fun (k, v) ->
        match String.index_opt k '/' with
        | Some i when String.starts_with ~prefix:"proc_ns." k ->
            let stage = String.sub k 8 (i - 8) in
            let proc = String.sub k (i + 1) (String.length k - i - 1) in
            let row =
              match Hashtbl.find_opt per_proc proc with
              | Some row -> row
              | None ->
                  let row = Hashtbl.create 8 in
                  Hashtbl.add per_proc proc row;
                  row
            in
            Hashtbl.replace row stage
              (v + Option.value ~default:0 (Hashtbl.find_opt row stage))
        | _ -> ())
      snap;
    let rows =
      Hashtbl.fold
        (fun proc row acc ->
          let total = Hashtbl.fold (fun _ v a -> v + a) row 0 in
          (proc, total, row) :: acc)
        per_proc []
      |> List.sort (fun (p1, t1, _) (p2, t2, _) ->
             match compare t2 t1 with 0 -> compare p1 p2 | c -> c)
    in
    if rows <> [] then begin
      Fmt.pr "hot procedures (top %d of %d, by per-procedure stage time):@."
        (min top (List.length rows))
        (List.length rows);
      Fmt.pr "%-16s %9s" "procedure" "total_ms";
      List.iter (fun s -> Fmt.pr " %9s" s) stages;
      Fmt.pr "@.";
      List.iteri
        (fun i (proc, total, row) ->
          if i < top then begin
            Fmt.pr "%-16s %9.3f" proc (ms total);
            List.iter
              (fun s ->
                Fmt.pr " %9.3f"
                  (ms (Option.value ~default:0 (Hashtbl.find_opt row s))))
              stages;
            Fmt.pr "@."
          end)
        rows;
      Fmt.pr "@."
    end;
    (* pool behaviour *)
    let buckets =
      [ "le_1us"; "le_10us"; "le_100us"; "le_1ms"; "le_10ms"; "le_100ms";
        "gt_100ms" ]
    in
    let histogram label root =
      let count = get (root ^ ".count") in
      if count > 0 then begin
        Fmt.pr "  %-5s mean %.3f ms over %d task(s);" label
          (ms (get (root ^ ".sum_ns") / count))
          count;
        List.iter
          (fun b ->
            let n = get (root ^ "." ^ b) in
            if n > 0 then Fmt.pr " %s:%d" b n)
          buckets;
        Fmt.pr "@."
      end
    in
    if get "pool.tasks" > 0 then begin
      Fmt.pr "pool: %d batch(es), %d task(s)@." (get "pool.batches")
        (get "pool.tasks");
      histogram "task" "pool.task";
      histogram "wait" "pool.wait";
      Fmt.pr "@."
    end;
    (* cache attribution *)
    let c = Ipcp.Result.cache r in
    if c.Ipcp.Cache.r_enabled then begin
      Fmt.pr "cache: %s; ir %d/%d reused, summaries %d/%d, fixpoint %s@."
        (match c.Ipcp.Cache.r_cold with
        | Some reason -> "cold (" ^ reason ^ ")"
        | None -> "warm")
        c.Ipcp.Cache.r_ir_reused c.Ipcp.Cache.r_procs
        c.Ipcp.Cache.r_summary_reused c.Ipcp.Cache.r_procs
        (if c.Ipcp.Cache.r_fixpoint_reused then "replayed" else "recomputed");
      (if get "incr.load.bytes" > 0 then
         Fmt.pr "  cache read: %d bytes@." (get "incr.load.bytes"));
      let bytes =
        List.filter_map
          (fun (k, v) ->
            if String.starts_with ~prefix:"incr.proc.bytes/" k then
              Some (String.sub k 16 (String.length k - 16), v)
            else None)
          snap
        |> List.sort (fun (p1, b1) (p2, b2) ->
               match compare b2 b1 with 0 -> compare p1 p2 | c -> c)
      in
      if bytes <> [] then begin
        let total = List.fold_left (fun a (_, b) -> a + b) 0 bytes in
        Fmt.pr "  objects written: %d bytes across %d procedure(s); largest:@."
          total (List.length bytes);
        List.iteri
          (fun i (p, b) ->
            if i < top then Fmt.pr "    %-16s %8d bytes@." p b)
          bytes
      end
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one analysis with telemetry on and print where the wall \
          time went: a phase table from the trace spans (with an \
          attribution-coverage line), the hottest procedures by \
          per-procedure stage timers, pool task/queue-wait histograms, \
          and per-procedure cache attribution when the incremental \
          store is in play.")
    Term.(const run $ config_term $ cache_term () $ top_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* cache *)

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("stat", `Stat); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION" ~doc:"One of stat, clear.")
  in
  let dir_arg =
    Arg.(
      value
      & pos 1 string Ipcp.Cache.default_dir
      & info [] ~docv:"DIR"
          ~doc:
            (Fmt.str "Cache directory (default %s)." Ipcp.Cache.default_dir))
  in
  let run action dir =
    match action with
    | `Clear ->
        let n = Ipcp.Cache.clear dir in
        Fmt.pr "%s: %d entr%s removed@." dir n (if n = 1 then "y" else "ies")
    | `Stat -> (
        match Ipcp.Cache.entries dir with
        | [] -> Fmt.pr "%s: no cache entries@." dir
        | es ->
            let bytes = ref 0 and objects = ref 0 in
            List.iter
              (fun (e : Ipcp.Cache.entry) ->
                bytes := !bytes + e.Ipcp.Cache.ei_bytes;
                objects := !objects + e.Ipcp.Cache.ei_objects;
                Fmt.pr "%-52s %8d %6d  %s@." e.Ipcp.Cache.ei_file
                  e.Ipcp.Cache.ei_bytes e.Ipcp.Cache.ei_objects
                  (match e.Ipcp.Cache.ei_status with
                  | Ok () -> "ok"
                  | Error err -> Ipcp.Cache.describe_error err))
              es;
            Fmt.pr "%d entr%s, %d objects, %d bytes@." (List.length es)
              (if List.length es = 1 then "y" else "ies")
              !objects !bytes;
            (* a damaged entry or object would only cost a recomputation,
               but it is a fault of whatever wrote or pruned it *)
            if List.exists (fun (e : Ipcp.Cache.entry) -> Result.is_error e.Ipcp.Cache.ei_status) es
            then exit 1)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear an incremental cache directory.  $(b,stat) lists \
          each cached source's manifest with the bytes and number of the \
          per-procedure objects it names, and exits 1 when a manifest or \
          an object it names is missing or damaged.")
    Term.(const run $ action_arg $ dir_arg)

(* ------------------------------------------------------------------ *)
(* serve / watch / loadgen *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to serve on (default: stdio frames).")

let serve_cmd =
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write the metrics registry (the \
             per-method serve.* latency histograms included) as JSON to \
             $(docv) on exit.")
  in
  let run config cache socket metrics =
    if metrics <> None then begin
      Ipcp_obs.Obs.set_enabled true;
      Ipcp_obs.Metrics.reset ()
    end;
    let server = Ipcp_serve.Server.create ~config ~cache () in
    (match socket with
    | Some path -> Ipcp_serve.Transport.serve_socket server ~path
    | None -> Ipcp_serve.Transport.serve_stdio server);
    match metrics with
    | Some path ->
        write_file path
          (Json.to_string (Ipcp_obs.Report.snapshot_json ()) ^ "\n")
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis server: newline-delimited JSON-RPC frames \
          ($(b,open)/$(b,analyze)/$(b,ranges)/$(b,lint)/$(b,query)/\
          $(b,update)/$(b,invalidate)/$(b,stats)/$(b,close)/$(b,shutdown)) \
          over stdio, or over a Unix-domain socket with $(b,--socket).  \
          Programs stay resident as sessions: queries are answered from \
          the converged in-memory fixpoint and a fingerprint-keyed \
          response cache, and updates reanalyze only the edited \
          procedures and their transitive callers.")
    Term.(const run $ config_term $ cache_term () $ socket_arg $ metrics_arg)

let watch_cmd =
  let interval_arg =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Polling interval in seconds.")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 0
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Stop after $(docv) analyses (0 = run until interrupted).")
  in
  let run config cache interval max_runs path =
    (* watch is a serve client: one resident session held warm by an
       in-process server, edits applied with [update] *)
    let cache_dir =
      match cache with
      | Ipcp.Cache.Dir d -> Some d
      | Ipcp.Cache.Disabled -> None
    in
    let cl = Client.in_process ~config () in
    let session = ref None in
    let mtime () =
      try Some (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> None
    in
    let analyze_once () =
      let outcome =
        let step =
          match !session with
          | None ->
              Result.map
                (fun (sid, d) ->
                  session := Some sid;
                  (sid, d))
                (Client.open_session ?cache_dir cl (load_source path))
          | Some sid ->
              Result.map
                (fun d -> (sid, d))
                (Client.update cl ~session:sid (load_source path))
        in
        Result.bind step (fun (sid, d) ->
            Result.map
              (fun a -> (d, Client.substituted a))
              (Client.analyze cl ~session:sid))
      in
      match outcome with
      | Error e -> Fmt.pr "%s: %s@." path e
      | Ok (d, substituted) ->
          Fmt.pr "%s: %d constants substituted (gen %d: %d/%d procedure(s) \
                  reanalyzed)@."
            path substituted d.Client.generation d.Client.dirty
            d.Client.procs
    in
    let rec loop runs last =
      if max_runs > 0 && runs >= max_runs then ()
      else begin
        let now = mtime () in
        let runs =
          (* skip while the file is mid-save (absent) or unchanged *)
          if now <> None && now <> last then begin
            analyze_once ();
            runs + 1
          end
          else runs
        in
        let last = if now = None then last else now in
        if not (max_runs > 0 && runs >= max_runs) then Unix.sleepf interval;
        loop runs last
      end
    in
    loop 0 None
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll FILE and reanalyze it on every change.  The file is held \
          resident as an analysis-server session, so each rerun only \
          reanalyzes the edited procedures and their transitive callers; \
          with the cache (on by default here) the warm state also \
          persists across watch restarts.")
    Term.(
      const run $ config_term
      $ cache_term ~default:(Ipcp.Cache.Dir Ipcp.Cache.default_dir) ()
      $ interval_arg $ max_runs_arg $ file_arg)

let loadgen_cmd =
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"Generate load for $(docv) seconds.")
  in
  let gen_procs_arg =
    Arg.(
      value & opt int 600
      & info [ "gen-procs" ] ~docv:"N"
          ~doc:
            "Also serve a generated program with $(docv) procedures \
             (0 = suite only).")
  in
  let edit_every_arg =
    Arg.(
      value & opt int 16
      & info [ "edit-every" ] ~docv:"N"
          ~doc:
            "Issue an $(b,update) every $(docv) requests (0 = read-only \
             load).")
  in
  let run config socket duration gen_procs edit_every =
    let cl =
      match socket with
      | Some p -> Client.connect p
      | None -> Client.in_process ~config ()
    in
    let corpus =
      List.map
        (fun (p : Ipcp_suite.Programs.program) ->
          (p.Ipcp_suite.Programs.name, fun _round -> p.Ipcp_suite.Programs.source))
        Ipcp_suite.Programs.all
      @
      if gen_procs > 0 then
        [
          ( "generated",
            (* a real whole-program edit per round: regenerate with the
               round number as the seed *)
            fun round ->
              Ipcp_gen.Generator.generate
                ~params:
                  {
                    Ipcp_gen.Generator.default with
                    Ipcp_gen.Generator.seed = round;
                    n_procs = gen_procs;
                    shape = Ipcp_gen.Generator.Mixed;
                  }
                () );
        ]
      else []
    in
    let procedures sid =
      match Client.rpc cl ~meth:"analyze" [ ("session", Json.Int sid) ] with
      | Error _ -> []
      | Ok a -> (
          match Json.member "procedures" a with
          | Some (Json.Arr ps) -> List.filter_map Json.to_str ps
          | _ -> [])
    in
    let sessions =
      List.map
        (fun (name, src) ->
          let sid, _ =
            or_die
              (Client.open_session cl
                 (Ipcp.Source.of_string ~file:name (src 0)))
          in
          (sid, name, src, ref (procedures sid)))
        corpus
    in
    let sessions = Array.of_list sessions in
    let methods = [| "analyze"; "query"; "ranges"; "query"; "lint" |] in
    let t0 = Unix.gettimeofday () in
    let requests = ref 0 and errors = ref 0 in
    let check name = function
      | Ok _ -> ()
      | Error e ->
          incr errors;
          Fmt.epr "loadgen: %s: %s@." name e
    in
    while Unix.gettimeofday () -. t0 < duration do
      let i = !requests in
      let sid, name, src, procs = sessions.(i mod Array.length sessions) in
      if edit_every > 0 && i mod edit_every = edit_every - 1 then begin
        check name
          (Result.map ignore
             (Client.update cl ~session:sid
                (Ipcp.Source.of_string ~file:name (src (i / edit_every)))));
        procs := procedures sid
      end
      else begin
        let meth = methods.(i mod Array.length methods) in
        let params = [ ("session", Json.Int sid) ] in
        let params =
          (* cycle procedures and query targets *)
          if meth = "query" && !procs <> [] then
            ("proc", Json.Str (List.nth !procs (i mod List.length !procs)))
            :: ( "what",
                 Json.Str (if i mod 2 = 0 then "constants" else "ranges") )
            :: params
          else params
        in
        let meth = if meth = "query" && !procs = [] then "analyze" else meth in
        check name (Client.rpc cl ~meth params)
      end;
      incr requests
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    Array.iter
      (fun (sid, name, _, _) ->
        check name
          (Result.map ignore
             (Client.rpc cl ~meth:"close" [ ("session", Json.Int sid) ])))
      sessions;
    Client.close cl;
    Fmt.pr "loadgen: %d requests in %.2fs (%.0f req/s), %d error(s)@."
      !requests elapsed
      (float_of_int !requests /. Float.max 1e-9 elapsed)
      !errors;
    if !errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive an analysis server with a mixed query/edit load over the \
          bundled suite plus a generated program, and report the \
          achieved request rate.  Exits nonzero on any error response.  \
          Without $(b,--socket) the server runs in-process.")
    Term.(
      const run $ config_term $ socket_arg $ duration_arg $ gen_procs_arg
      $ edit_every_arg)

(* ------------------------------------------------------------------ *)
(* suite / gen *)

let suite_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Program name (omit to list).")
  in
  let run name =
    match name with
    | None ->
        List.iter
          (fun (p : Ipcp_suite.Programs.program) ->
            Fmt.pr "%-11s %s@." p.Ipcp_suite.Programs.name
              p.Ipcp_suite.Programs.notes)
          Ipcp_suite.Programs.all
    | Some n -> (
        match Ipcp_suite.Programs.by_name n with
        | Some p -> Fmt.pr "%s" p.Ipcp_suite.Programs.source
        | None ->
            Fmt.epr "ipcp: unknown suite program %s@." n;
            exit 1)
  in
  Cmd.v (Cmd.info "suite" ~doc:"List or print the bundled benchmark programs.")
    Term.(const run $ name_arg)

let gen_cmd =
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Generator seed.") in
  let procs_arg = Arg.(value & opt int 5 & info [ "procs" ] ~doc:"Number of procedures.") in
  let shape_arg =
    let shape_conv =
      Arg.conv
        ( (fun s ->
            match Ipcp_gen.Generator.shape_of_name s with
            | Some sh -> Ok sh
            | None ->
                Error (`Msg "expected acyclic, chain, fanout, cyclic or mixed")),
          fun ppf sh -> Fmt.string ppf (Ipcp_gen.Generator.shape_name sh) )
    in
    Arg.(
      value
      & opt shape_conv Ipcp_gen.Generator.Acyclic
      & info [ "shape" ]
          ~doc:
            "Call-graph topology: $(b,acyclic) (default), $(b,chain), \
             $(b,fanout), $(b,cyclic) (counter-bounded recursion groups) \
             or $(b,mixed).")
  in
  let stmts_arg =
    Arg.(
      value & opt int 6
      & info [ "stmts" ] ~doc:"Max statements per body before nesting.")
  in
  let globals_arg =
    Arg.(value & opt int 3 & info [ "globals" ] ~doc:"Number of COMMON globals.")
  in
  let run seed n_procs shape max_stmts n_globals =
    Fmt.pr "%s"
      (Ipcp_gen.Generator.generate
         ~params:
           {
             Ipcp_gen.Generator.default with
             Ipcp_gen.Generator.seed;
             n_procs;
             shape;
             max_stmts;
             n_globals;
           }
         ())
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a random well-formed program.")
    Term.(const run $ seed_arg $ procs_arg $ shape_arg $ stmts_arg $ globals_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "interprocedural constant propagation with jump functions" in
  let info = Cmd.info "ipcp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            explain_cmd;
            substitute_cmd;
            complete_cmd;
            lint_cmd;
            compare_cmd;
            stats_cmd;
            profile_cmd;
            cache_cmd;
            serve_cmd;
            watch_cmd;
            loadgen_cmd;
            intra_cmd;
            run_cmd;
            dump_cmd;
            clone_cmd;
            suite_cmd;
            gen_cmd;
          ]))
