(** The precision/cost study behind [ipcp compare-precision]: for one
    analyzed program, run both interprocedural engines — the 1986
    jump-function solver (constants + the interval ranges pipeline) and
    the value-context tabulation — and report what context sensitivity
    buys and what it costs.

    Reported per program:
    - {e constants}: entry parameters the solver proves constant vs the
      tabulation's context-insensitive projection (the meet over each
      procedure's kept contexts), with the keystone soundness check that
      every solver constant survives tabulation;
    - {e lint verdicts}: E001/E002/W003/W008 verdicts under jump-function
      ranges vs under ranges refined by the interval tabulation's facts,
      counting [Unknown] findings the context-sensitive facts decide;
    - {e cost}: context-table sizes, tabulation rounds and evaluations,
      wall-clock time and allocation of each side. *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Driver = Ipcp_core.Driver
module Ranges = Ipcp_core.Ranges
module Solver = Ipcp_core.Solver
module Lint = Ipcp_analysis.Lint
module Json = Ipcp_obs.Json
module CL = Ipcp_domains.Clattice
module I = Ipcp_domains.Interval
module TConst = Registry.Const.T
module TInterval = Registry.Interval.T

type row = {
  r_name : string;
  r_procs : int;
  r_jf_consts : int;  (** solver constant entries, reachable procedures *)
  r_ctx_consts : int;  (** tabulation merged constant entries *)
  r_extra_consts : int;  (** constant under tabulation only *)
  r_violations : (string * string * string * string) list;
      (** keystone failures: (proc, param, solver value, merged value) —
          a solver constant the tabulation lost; must be empty *)
  r_jf_verdicts : Lint.verdict_totals;
  r_ctx_verdicts : Lint.verdict_totals;
  r_upgraded : int;  (** findings [Unknown] under jf, decided under ctx *)
  r_contexts : int;  (** kept contexts, const + interval tables *)
  r_created : int;
  r_rounds : int;
  r_evals : int;
  r_jf_s : float;  (** jump-function interval pipeline, seconds *)
  r_ctx_s : float;  (** const + interval tabulation, seconds *)
  r_jf_mb : float;  (** allocation during the jf side, MB *)
  r_ctx_mb : float;
}

(* Words allocated by every domain: [Gc.quick_stat] adds the samples
   pool lanes leave at each minor collection to the calling domain's
   live counters, where [Gc.allocated_bytes] counts the calling domain
   only.  The closing minor collection refreshes the lanes' samples. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed f =
  let a0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let s = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let words = allocated_words () -. a0 in
  let mb = words *. float_of_int (Sys.word_size / 8) /. (1024. *. 1024.) in
  (x, s, mb)

(** Per-location refinement of the jump-function range facts by the
    interval tabulation's facts: both are sound at every use, so their
    join (interval intersection) is sound and at least as precise. *)
let refine_facts (r : Ranges.t) (ctx_facts : I.t Loc.Map.t) : Ranges.t =
  let facts =
    Loc.Map.merge
      (fun _ jf ctx ->
        match (jf, ctx) with
        | Some a, Some b -> Some (I.join a b)
        | Some a, None -> Some a
        | None, b -> b)
      r.Ranges.facts ctx_facts
  in
  { r with Ranges.facts }

(** The range-backed lint run of one side, keeping only the checks whose
    verdicts range facts can move. *)
let verdict_checks = function
  | Lint.Div_by_zero | Lint.Subscript_bounds | Lint.Const_condition
  | Lint.Const_trip ->
      true
  | _ -> false

(* Upgraded verdicts = candidate sites Unknown under jump-function
   ranges but decided under the context-refined facts.  The candidate
   sites and their reachability are identical on both sides (both use
   the same constant facts), so the verdict totals partition the same
   universe and the Unknown delta is exactly the decided count. *)
let count_upgrades (jf : Lint.verdict_totals) (ctx : Lint.verdict_totals) :
    int =
  max 0 (jf.Lint.n_unknown - ctx.Lint.n_unknown)

(** Solver constants restricted to procedures reachable from the main
    program: the solver initialises dead procedures' VAL sets at ⊤ and
    literal jump functions from dead callers can still lower them, while
    tabulation never creates contexts there — reachable procedures are
    the comparable universe. *)
let solver_constants (d : Driver.t) : (string * string * int) list =
  let reach = Ipcp_callgraph.Callgraph.reachable_from_main d.Driver.cg in
  SM.fold
    (fun p m acc ->
      if SS.mem p reach then
        SM.fold (fun name c acc -> (p, name, c) :: acc) m acc
      else acc)
    (SM.mapi (fun p _ -> Driver.constants d p) d.Driver.solver.Solver.vals)
    []

let ctx_constants (tc : TConst.t) : (string * string * int) list =
  SM.fold
    (fun p _ acc ->
      SM.fold
        (fun name c acc -> (p, name, c) :: acc)
        (TConst.constants tc p) acc)
    tc.TConst.merged []

(** Keystone: every solver constant must survive the tabulation —
    [merged(p, x) ⊒ const c], i.e. the merged value is [const c] (or ⊤,
    when tabulation proves the entry unreached). *)
let keystone_violations (d : Driver.t) (tc : TConst.t) :
    (string * string * string * string) list =
  List.filter_map
    (fun (p, name, c) ->
      let merged = TConst.merged_val tc p name in
      if CL.leq (CL.const c) merged then None
      else
        Some
          (p, name, CL.to_string (CL.const c), CL.to_string merged))
    (solver_constants d)
  |> List.sort compare

let run_program ?ctx_limit ?(warm = false) ~name (d : Driver.t) : row =
  (* jump-function side: the interval ranges pipeline (the constant
     solve itself already ran inside the driver) *)
  let ranges, jf_s, jf_mb = timed (fun () -> Driver.analyze_ranges d) in
  let enabled = verdict_checks in
  let _jf_findings, jf_verdicts =
    Lint.run_with_verdicts ~enabled ~ranges d
  in
  (* context side: constant + interval tabulation *)
  let (tc, ti), ctx_s, ctx_mb =
    timed (fun () ->
        ( Registry.Const.run ?ctx_limit ~warm d,
          Registry.Interval.run ?ctx_limit ~warm d ))
  in
  let _ctx_findings, ctx_verdicts =
    Lint.run_with_verdicts ~enabled
      ~ranges:(refine_facts ranges ti.TInterval.facts)
      d
  in
  let jf_consts = solver_constants d in
  let ctx_consts = ctx_constants tc in
  let jf_set =
    List.fold_left
      (fun s (p, n, _) -> SS.add (p ^ "." ^ n) s)
      SS.empty jf_consts
  in
  let extra =
    List.filter
      (fun (p, n, _) -> not (SS.mem (p ^ "." ^ n) jf_set))
      ctx_consts
  in
  {
    r_name = name;
    r_procs = List.length d.Driver.cg.Ipcp_callgraph.Callgraph.procs;
    r_jf_consts = List.length jf_consts;
    r_ctx_consts = List.length ctx_consts;
    r_extra_consts = List.length extra;
    r_violations = keystone_violations d tc;
    r_jf_verdicts = jf_verdicts;
    r_ctx_verdicts = ctx_verdicts;
    r_upgraded = count_upgrades jf_verdicts ctx_verdicts;
    r_contexts =
      tc.TConst.summary.Tabulation.s_contexts
      + ti.TInterval.summary.Tabulation.s_contexts;
    r_created =
      tc.TConst.summary.Tabulation.s_created
      + ti.TInterval.summary.Tabulation.s_created;
    r_rounds =
      tc.TConst.summary.Tabulation.s_rounds
      + ti.TInterval.summary.Tabulation.s_rounds;
    r_evals =
      tc.TConst.summary.Tabulation.s_evals
      + ti.TInterval.summary.Tabulation.s_evals;
    r_jf_s = jf_s;
    r_ctx_s = ctx_s;
    r_jf_mb = jf_mb;
    r_ctx_mb = ctx_mb;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_rows ppf (rows : row list) =
  Fmt.pf ppf
    "%-12s %5s  %8s %8s %6s  %9s %9s %8s  %8s %7s  %9s %9s@." "program"
    "procs" "jf-const" "ctx-const" "extra" "jf-u/s/f" "ctx-u/s/f"
    "upgraded" "contexts" "rounds" "jf-ms" "ctx-ms";
  List.iter
    (fun r ->
      Fmt.pf ppf
        "%-12s %5d  %8d %8d %6d  %3d/%d/%d %5d/%d/%d %8d  %8d %7d  %9.2f \
         %9.2f@."
        r.r_name r.r_procs r.r_jf_consts r.r_ctx_consts r.r_extra_consts
        r.r_jf_verdicts.Lint.n_unknown r.r_jf_verdicts.Lint.n_safe
        r.r_jf_verdicts.Lint.n_fault r.r_ctx_verdicts.Lint.n_unknown
        r.r_ctx_verdicts.Lint.n_safe r.r_ctx_verdicts.Lint.n_fault
        r.r_upgraded r.r_contexts r.r_rounds (r.r_jf_s *. 1000.)
        (r.r_ctx_s *. 1000.))
    rows;
  let tot f = List.fold_left (fun n r -> n + f r) 0 rows in
  let viol = tot (fun r -> List.length r.r_violations) in
  Fmt.pf ppf
    "totals: %d jf constants, %d ctx constants (+%d), %d verdicts upgraded, \
     %d keystone violations@."
    (tot (fun r -> r.r_jf_consts))
    (tot (fun r -> r.r_ctx_consts))
    (tot (fun r -> r.r_extra_consts))
    (tot (fun r -> r.r_upgraded))
    viol;
  List.iter
    (fun r ->
      List.iter
        (fun (p, n, jf, ctx) ->
          Fmt.pf ppf "VIOLATION %s: %s.%s solver=%s tabulation=%s@." r.r_name
            p n jf ctx)
        r.r_violations)
    rows

let verdicts_json (v : Lint.verdict_totals) =
  Json.Obj
    [
      ("unknown", Json.Int v.Lint.n_unknown);
      ("proved_safe", Json.Int v.Lint.n_safe);
      ("proved_fault", Json.Int v.Lint.n_fault);
    ]

let row_json (r : row) : Json.t =
  Json.Obj
    [
      ("program", Json.Str r.r_name);
      ("procedures", Json.Int r.r_procs);
      ("jf_constants", Json.Int r.r_jf_consts);
      ("ctx_constants", Json.Int r.r_ctx_consts);
      ("extra_constants", Json.Int r.r_extra_consts);
      ( "keystone_violations",
        Json.Arr
          (List.map
             (fun (p, n, jf, ctx) ->
               Json.Obj
                 [
                   ("procedure", Json.Str p);
                   ("param", Json.Str n);
                   ("solver", Json.Str jf);
                   ("tabulation", Json.Str ctx);
                 ])
             r.r_violations) );
      ("jf_verdicts", verdicts_json r.r_jf_verdicts);
      ("ctx_verdicts", verdicts_json r.r_ctx_verdicts);
      ("upgraded_verdicts", Json.Int r.r_upgraded);
      ("contexts", Json.Int r.r_contexts);
      ("contexts_created", Json.Int r.r_created);
      ("rounds", Json.Int r.r_rounds);
      ("evals", Json.Int r.r_evals);
      ("jf_seconds", Json.Num r.r_jf_s);
      ("ctx_seconds", Json.Num r.r_ctx_s);
      ("jf_alloc_mb", Json.Num r.r_jf_mb);
      ("ctx_alloc_mb", Json.Num r.r_ctx_mb);
    ]

let json (rows : row list) : Json.t =
  Json.Obj
    [
      ("programs", Json.Arr (List.map row_json rows));
      ( "totals",
        Json.Obj
          [
            ( "jf_constants",
              Json.Int (List.fold_left (fun n r -> n + r.r_jf_consts) 0 rows)
            );
            ( "ctx_constants",
              Json.Int
                (List.fold_left (fun n r -> n + r.r_ctx_consts) 0 rows) );
            ( "extra_constants",
              Json.Int
                (List.fold_left (fun n r -> n + r.r_extra_consts) 0 rows) );
            ( "upgraded_verdicts",
              Json.Int (List.fold_left (fun n r -> n + r.r_upgraded) 0 rows)
            );
            ( "keystone_violations",
              Json.Int
                (List.fold_left
                   (fun n r -> n + List.length r.r_violations)
                   0 rows) );
          ] );
    ]
