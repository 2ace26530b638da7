(** Regeneration of the paper's tables over the synthetic suite.

    Each function returns the measured numbers; [print_*] renders them next
    to the paper's published values.  Shape, not absolute magnitude, is the
    reproduction criterion (the suite programs are smaller than the
    original SPEC/PERFECT codes). *)

open Ipcp_frontend
module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Substitute = Ipcp_opt.Substitute
module Intra = Ipcp_opt.Intra
module Complete = Ipcp_opt.Complete
module Programs = Ipcp_suite.Programs
module Expected = Ipcp_suite.Expected
module Pool = Ipcp_par.Pool

(* Measure every suite row in parallel (one worker per program), print
   after the join: [Pool.map_list] preserves order, so the rendered
   tables are identical to the sequential loop's. *)
let suite_rows f =
  Pool.map_list ~jobs:(Pool.default_jobs ())
    (fun (p : Programs.program) -> (p, f p))
    Programs.all

(* table counts go through the stable facade; the extensions section
   below deliberately reaches past it (alternate solvers, cloning) *)
let count_with config (p : Programs.program) =
  match
    Ipcp.analyze ~config
      (Ipcp.Source.of_string ~file:p.Programs.name p.Programs.source)
  with
  | Ok r -> (Ipcp.Result.substitution r).Ipcp.Result.total
  | Error e -> failwith e

(* benchmarks measure the analysis, not the sanitizer: verifier off *)
let cfg jf ~retjf ~md =
  {
    Config.default with
    Config.jf;
    return_jfs = retjf;
    use_mod = md;
    verify_ir = false;
  }

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let print_table1 () =
  Fmt.pr "@.Table 1: Characteristics of program test suite@.";
  Fmt.pr "%-11s %8s %6s %11s %13s   %s@." "Program" "lines" "procs"
    "mean l/p" "median l/p" "(paper lines/procs where legible)";
  List.iter
    (fun (p : Programs.program) ->
      let c = Programs.characteristics p in
      let paper_lines, paper_procs =
        match
          List.find_opt
            (fun (n, _, _) -> n = p.Programs.name)
            Expected.table1_partial
        with
        | Some (_, l, pr) -> (l, pr)
        | None -> (None, None)
      in
      let popt = function None -> "-" | Some v -> string_of_int v in
      Fmt.pr "%-11s %8d %6d %11d %13d   (%s/%s)@." p.Programs.name
        c.Programs.c_lines c.Programs.c_procs c.Programs.c_mean
        c.Programs.c_median (popt paper_lines) (popt paper_procs))
    Programs.all

(* ------------------------------------------------------------------ *)
(* Table 2 *)

type row2m = {
  m_poly_r : int;
  m_pass_r : int;
  m_intra_r : int;
  m_lit_r : int;
  m_poly : int;
  m_pass : int;
}

let measure_table2 (p : Programs.program) : row2m =
  {
    m_poly_r = count_with (cfg Config.Polynomial ~retjf:true ~md:true) p;
    m_pass_r = count_with (cfg Config.Passthrough ~retjf:true ~md:true) p;
    m_intra_r = count_with (cfg Config.Intraconst ~retjf:true ~md:true) p;
    m_lit_r = count_with (cfg Config.Literal ~retjf:true ~md:true) p;
    m_poly = count_with (cfg Config.Polynomial ~retjf:false ~md:true) p;
    m_pass = count_with (cfg Config.Passthrough ~retjf:false ~md:true) p;
  }

let print_table2 () =
  Fmt.pr "@.Table 2: Constants found through use of jump functions@.";
  Fmt.pr "%-11s | %28s | %13s | %s@." ""
    "measured (with return JFs)" "(no return)" "paper poly+R/pass+R/intra+R/lit+R | poly/pass";
  Fmt.pr "%-11s | %6s %6s %6s %6s | %6s %6s |@." "Program" "poly" "pass"
    "intra" "lit" "poly" "pass";
  List.iter
    (fun ((p : Programs.program), m) ->
      let e = Expected.row2 p.Programs.name in
      Fmt.pr "%-11s | %6d %6d %6d %6d | %6d %6d |  paper: %d/%d/%d/%d | %d/%d@."
        p.Programs.name m.m_poly_r m.m_pass_r m.m_intra_r m.m_lit_r m.m_poly
        m.m_pass e.Expected.t2_poly_r e.Expected.t2_pass_r
        e.Expected.t2_intra_r e.Expected.t2_lit_r e.Expected.t2_poly
        e.Expected.t2_pass)
    (suite_rows measure_table2)

(* ------------------------------------------------------------------ *)
(* Table 3 *)

type row3m = {
  m_no_mod : int;
  m_with_mod : int;
  m_complete : int;
  m_intra_only : int;
}

let measure_table3 (p : Programs.program) : row3m =
  let symtab =
    Sema.parse_and_analyze ~file:p.Programs.name p.Programs.source
  in
  {
    m_no_mod = count_with (cfg Config.Polynomial ~retjf:true ~md:false) p;
    m_with_mod = count_with (cfg Config.Polynomial ~retjf:true ~md:true) p;
    m_complete =
      (Complete.run
         ~config:(cfg Config.Polynomial ~retjf:true ~md:true)
         p.Programs.source)
        .Complete.count;
    m_intra_only = Intra.count ~use_mod:true symtab;
  }

let print_table3 () =
  Fmt.pr
    "@.Table 3: Most precise jump function vs other propagation techniques@.";
  Fmt.pr "%-11s | %7s %7s %9s %7s | %s@." "Program" "-MOD" "+MOD" "complete"
    "intra" "paper -MOD/+MOD/complete/intra";
  List.iter
    (fun ((p : Programs.program), m) ->
      let e = Expected.row3 p.Programs.name in
      Fmt.pr "%-11s | %7d %7d %9d %7d |  paper: %d/%d/%d/%d@."
        p.Programs.name m.m_no_mod m.m_with_mod m.m_complete m.m_intra_only
        e.Expected.t3_no_mod e.Expected.t3_with_mod e.Expected.t3_complete
        e.Expected.t3_intra_only)
    (suite_rows measure_table3)

(* ------------------------------------------------------------------ *)
(* Ablations: §3.1.5 cost model and the bounded-lowering claim *)

let print_ablation () =
  Fmt.pr
    "@.Ablation A1/A2: jump-function census, evaluation cost, convergence@.";
  Fmt.pr "%-11s | %6s %6s %6s %6s %8s | %5s %8s %6s | %6s@." "Program"
    "Jconst" "Jvar" "Jexpr" "Jbot" "Σcost" "pops" "jf-evals" "lower"
    "passes";
  List.iter
    (fun ((p : Programs.program), (c, s, max_passes)) ->
      Fmt.pr "%-11s | %6d %6d %6d %6d %8d | %5d %8d %6d | %6d@."
        p.Programs.name c.Driver.n_const c.Driver.n_passthrough
        c.Driver.n_poly c.Driver.n_bottom c.Driver.total_cost
        s.Ipcp_core.Solver.pops s.Ipcp_core.Solver.jf_evals
        s.Ipcp_core.Solver.lowerings max_passes)
    (suite_rows (fun p ->
         let _, t =
           Driver.analyze_source
             ~config:(cfg Ipcp_core.Config.Polynomial ~retjf:true ~md:true)
             ~file:p.Programs.name p.Programs.source
         in
         let c = Driver.census t in
         let s = t.Driver.solver.Ipcp_core.Solver.stats in
         let max_passes =
           Ipcp_frontend.Names.SM.fold
             (fun _ (ev : Ipcp_core.Symeval.t) acc ->
               max acc ev.Ipcp_core.Symeval.passes)
             t.Driver.evals 0
         in
         (c, s, max_passes)));
  Fmt.pr
    "(lowerings never exceed 2 x the number of VAL entries — the lattice-depth bound of §3.1.5)@."

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper *)

let print_extensions () =
  Fmt.pr
    "@.Extensions: symbolic return JFs; SCCP baseline; binding-graph solver@.";
  Fmt.pr "%-11s | %8s %8s | %8s %8s | %14s %14s@." "Program" "poly+R"
    "+symret" "intra" "SCCP" "scc pops/evals" "bg pops/evals";
  List.iter
    (fun ((p : Programs.program), (base, symret, intra, sccp, s, bs)) ->
      Fmt.pr "%-11s | %8d %8d | %8d %8d | %6d/%-7d %6d/%-7d@."
        p.Programs.name base symret intra sccp s.Ipcp_core.Solver.pops
        s.Ipcp_core.Solver.jf_evals bs.Ipcp_core.Solver.pops
        bs.Ipcp_core.Solver.jf_evals)
    (suite_rows (fun p ->
         let symtab =
           Sema.parse_and_analyze ~file:p.Programs.name p.Programs.source
         in
         let base_cfg = cfg Ipcp_core.Config.Polynomial ~retjf:true ~md:true in
         let t = Driver.analyze ~config:base_cfg symtab in
         let base = Substitute.count t in
         let symret =
           Substitute.count
             (Driver.analyze
                ~config:
                  { base_cfg with Ipcp_core.Config.symbolic_returns = true }
                symtab)
         in
         let intra = Intra.count symtab in
         let sccp = Ipcp_opt.Sccp.count symtab in
         let s = t.Driver.solver.Ipcp_core.Solver.stats in
         let bg =
           Ipcp_core.Bindgraph.solve ~symtab ~cg:t.Driver.cg ~jfs:t.Driver.jfs
         in
         (base, symret, intra, sccp, s, bg.Ipcp_core.Solver.stats)))

let print_cloning () =
  Fmt.pr "@.Cloning advisor (Metzger–Stroud, §5): potential gains@.";
  List.iter
    (fun ((p : Programs.program), advs) ->
      match advs with
      | [] -> Fmt.pr "%-11s no profitable clones@." p.Programs.name
      | advs ->
          let gained =
            List.fold_left (fun n a -> n + a.Ipcp_core.Cloning.a_gained) 0 advs
          in
          Fmt.pr "%-11s %d procedures worth cloning, +%d constants@."
            p.Programs.name (List.length advs) gained)
    (suite_rows (fun p ->
         let _, t =
           Driver.analyze_source
             ~config:(cfg Ipcp_core.Config.Polynomial ~retjf:true ~md:true)
             ~file:p.Programs.name p.Programs.source
         in
         Ipcp_core.Cloning.advise t))

(* ------------------------------------------------------------------ *)
(* Figure 1: the lattice *)

let print_figure1 () =
  let module L = Ipcp_core.Clattice in
  Fmt.pr "@.Figure 1: the constant propagation lattice (meet table)@.";
  let elems = [ L.Top; L.Const 1; L.Const 2; L.Bottom ] in
  Fmt.pr "%8s" "⊓";
  List.iter (fun e -> Fmt.pr "%8s" (L.to_string e)) elems;
  Fmt.pr "@.";
  List.iter
    (fun a ->
      Fmt.pr "%8s" (L.to_string a);
      List.iter (fun b -> Fmt.pr "%8s" (L.to_string (L.meet a b))) elems;
      Fmt.pr "@.")
    elems

(* ------------------------------------------------------------------ *)
(* The analysis zoo: per-program copyprop-vs-const comparison *)

(** Copy propagation against the constant lattice over the suite, plus
    the dead stores the backward liveness instance finds.  The constant
    column counts located uses the copy lattice proves constant — by the
    subsumption property (checked by the differential test) this equals
    what the constant lattice proves; entry-copy counts the extra facts
    only the copy lattice names. *)
let print_zoo () =
  let module F = Ipcp_core.Framework in
  Fmt.pr "@.Analysis zoo: copy lattice vs constant lattice; dead stores@.";
  Fmt.pr "%-11s | %6s %9s %10s | %11s@." "Program" "uses" "constant"
    "entry-copy" "dead stores";
  List.iter
    (fun ((p : Programs.program), (uses, nconst, ncopy, dead)) ->
      Fmt.pr "%-11s | %6d %9d %10d | %11d@." p.Programs.name uses nconst
        ncopy dead)
    (suite_rows (fun p ->
         let symtab =
           Sema.parse_and_analyze ~file:p.Programs.name p.Programs.source
         in
         let t =
           Driver.analyze
             ~config:{ Config.default with Config.verify_ir = false }
             symtab
         in
         let cv = F.copyprop_compute t in
         let nconst = ref 0 and ncopy = ref 0 in
         Loc.Map.iter
           (fun _ v ->
             match F.copyprop_classify v with
             | `Const -> incr nconst
             | `Copy -> incr ncopy
             | `Unknown | `Unreached -> ())
           cv.F.CVF.facts;
         ( Loc.Map.cardinal cv.F.CVF.facts,
           !nconst,
           !ncopy,
           List.length (F.dead_stores t) )))
