(* Tests for the monotone framework and the analysis zoo:

   - generic lattice laws over every registered instance (QCheck): the
     meet-semilattice laws, top/bot behaviour, leq/meet agreement,
     absorption against the join when one exists, and monotonicity of
     the instance's sampled transfer functions;
   - the differential keystone: the copy lattice subsumes the constant
     lattice on every bundled suite program — identical solver
     constants, identical per-use constant facts, and at least one
     entry-copy fact the constant lattice cannot express;
   - the zoo's live instance computes exactly [Ipcp_ir.Liveness] on
     every suite procedure (generic backward engine vs the hand-rolled
     iteration);
   - available expressions: boundary/universe sanity plus a GVN
     cross-check — an expression still available at its recomputation
     must be congruent to the prior computation under SSA value
     numbering;
   - every (entry × engine) report is identical at jobs 1 and at
     oversubscribed jobs 4, on inputs where jobs 4 dispatches pool
     batches;
   - the CLI surface: [--list-domains], [--domain] and the unknown-name
     exit code. *)

open Ipcp_frontend
open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Registry = Ipcp_contexts.Registry
module Valueflow = Ipcp_core.Valueflow
module C = Ipcp_domains.Copyprop
module CL = Ipcp_domains.Clattice
module Live = Ipcp_dataflow.Live
module Avail = Ipcp_dataflow.Avail
module Cfg = Ipcp_ir.Cfg
module Instr = Ipcp_ir.Instr
module Liveness = Ipcp_ir.Liveness
module Gvn = Ipcp_vn.Gvn
module Json = Ipcp_obs.Json
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Pool = Ipcp_par.Pool
module Generator = Ipcp_gen.Generator
module Programs = Ipcp_suite.Programs

(* ------------------------------------------------------------------ *)
(* Generic lattice laws, one batch per registry entry *)

let laws_tests (e : Registry.entry) : QCheck.Test.t list =
  match e.Registry.e_laws with
  | Registry.Laws (module L) ->
      let open QCheck in
      let el = L.elem in
      let name s = Fmt.str "laws %s: %s" L.name s in
      [
        Test.make ~count:500 ~name:(name "meet commutative") (pair int int)
          (fun (a, b) -> L.equal (L.meet (el a) (el b)) (L.meet (el b) (el a)));
        Test.make ~count:500 ~name:(name "meet associative") (triple int int int)
          (fun (a, b, c) ->
            L.equal
              (L.meet (L.meet (el a) (el b)) (el c))
              (L.meet (el a) (L.meet (el b) (el c))));
        Test.make ~count:500 ~name:(name "meet idempotent") int (fun a ->
            L.equal (L.meet (el a) (el a)) (el a));
        Test.make ~count:500 ~name:(name "top is meet identity") int (fun a ->
            L.equal (L.meet L.top (el a)) (el a));
        Test.make ~count:500 ~name:(name "bot absorbs meet") int (fun a ->
            match L.bot with
            | None -> true
            | Some bot -> L.equal (L.meet bot (el a)) bot);
        Test.make ~count:500 ~name:(name "leq agrees with meet") (pair int int)
          (fun (a, b) ->
            L.leq (el a) (el b) = L.equal (L.meet (el a) (el b)) (el a));
        Test.make ~count:500 ~name:(name "join absorption") (pair int int)
          (fun (a, b) ->
            match L.join with
            | None -> true
            | Some join ->
                L.equal (L.meet (el a) (join (el a) (el b))) (el a)
                && L.equal (join (el a) (L.meet (el a) (el b))) (el a));
        Test.make ~count:500 ~name:(name "transfers monotone") (pair int int)
          (fun (a, b) ->
            (* force lo ≤ hi, then every transfer must preserve the order *)
            let hi = el b in
            let lo = L.meet (el a) hi in
            List.for_all (fun (_, f) -> L.leq (f lo) (f hi)) L.transfers);
      ]

let all_laws_tests = List.concat_map laws_tests Registry.all

(* ------------------------------------------------------------------ *)
(* Suite-wide helpers *)

let analyze_program ?config (p : Programs.program) =
  let symtab =
    Sema.parse_and_analyze ~file:p.Programs.name p.Programs.source
  in
  Driver.analyze ?config symtab

module KVF = Valueflow.Make (CL)
module CVF = Registry.CVF

let const_flow (d : Driver.t) : KVF.t =
  KVF.compute ~ns:"constdiff" ~config:d.Driver.config ~symtab:d.Driver.symtab
    ~cg:d.Driver.cg ~modref:d.Driver.modref ~rjfs:d.Driver.rjfs
    ~jfs:d.Driver.jfs ~convs:d.Driver.convs ()

let inj : CL.t -> C.t = function
  | CL.Top -> C.Top
  | CL.Const c -> C.Const c
  | CL.Bottom -> C.Bottom

(* ------------------------------------------------------------------ *)
(* copyprop ⊇ const: the differential subsumption test *)

let copyprop_subsumes_const () =
  let total_copies = ref 0 in
  List.iter
    (fun (p : Programs.program) ->
      let d = analyze_program p in
      let kv = const_flow d in
      let cv = Registry.copyprop_compute d in
      (* 1. the copy solver's VAL sets coincide with the constant
         lattice's: Copy never enters the interprocedural propagation *)
      let kvals = kv.KVF.solver.KVF.S.vals
      and cvals = cv.CVF.solver.CVF.S.vals in
      Alcotest.(check int)
        (p.Programs.name ^ ": same procedures")
        (SM.cardinal kvals) (SM.cardinal cvals);
      SM.iter
        (fun proc vals ->
          let cpv = Option.value ~default:SM.empty (SM.find_opt proc cvals) in
          Alcotest.(check int)
            (Fmt.str "%s/%s: same entry symbols" p.Programs.name proc)
            (SM.cardinal vals) (SM.cardinal cpv);
          SM.iter
            (fun name v ->
              if not (C.equal (inj v) (CVF.S.val_of cv.CVF.solver proc name))
              then
                Alcotest.failf "%s/%s/%s: solver values differ: %a vs %a"
                  p.Programs.name proc name CL.pp v C.pp
                  (CVF.S.val_of cv.CVF.solver proc name))
            vals)
        kvals;
      (* and the solved constants are exactly CONSTANTS(p) *)
      SM.iter
        (fun proc _ ->
          let consts =
            SM.filter_map (fun _ v -> CL.is_const v) (KVF.entry_values kv proc)
          in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: CONSTANTS agree" p.Programs.name proc)
            true
            (SM.equal Int.equal consts (Driver.constants d proc)))
        kvals;
      (* 2. per-use facts: same locations; constants preserved exactly,
         reachability agrees, and ⊥ only ever refines to Copy *)
      Alcotest.(check int)
        (p.Programs.name ^ ": same fact locations")
        (Loc.Map.cardinal kv.KVF.facts)
        (Loc.Map.cardinal cv.CVF.facts);
      Loc.Map.iter
        (fun loc kvv ->
          match Loc.Map.find_opt loc cv.CVF.facts with
          | None ->
              Alcotest.failf "%s: no copy fact at %a" p.Programs.name Loc.pp
                loc
          | Some cvv ->
              if CL.is_const kvv <> C.is_const cvv then
                Alcotest.failf "%s: constant fact differs at %a: %a vs %a"
                  p.Programs.name Loc.pp loc CL.pp kvv C.pp cvv;
              if CL.equal kvv CL.top <> C.equal cvv C.top then
                Alcotest.failf "%s: reachability differs at %a"
                  p.Programs.name Loc.pp loc;
              (match Registry.copyprop_classify cvv with
              | `Copy ->
                  incr total_copies;
                  if not (CL.equal kvv CL.bot) then
                    Alcotest.failf
                      "%s: entry-copy at %a where const fact is %a"
                      p.Programs.name Loc.pp loc CL.pp kvv
              | _ -> ()))
        kv.KVF.facts)
    Programs.all;
  (* the strict half: somewhere on the suite the copy lattice proves a
     fact the constant lattice cannot express *)
  Alcotest.(check bool) "suite has entry-copy facts" true (!total_copies > 0)

(* ------------------------------------------------------------------ *)
(* live: generic engine ≡ hand-rolled Liveness on every suite proc *)

let live_matches_liveness () =
  List.iter
    (fun (p : Programs.program) ->
      let d = analyze_program p in
      let globals = Symtab.global_names d.Driver.symtab in
      SM.iter
        (fun proc cfg ->
          let formals = Live.scalar_formals d.Driver.symtab proc in
          let a = Liveness.compute ~formals ~globals cfg in
          let b = Live.compute ~formals ~globals cfg in
          Array.iteri
            (fun i s ->
              if not (SS.equal s b.Live.live_in.(i)) then
                Alcotest.failf "%s/%s: live-in differs at block %d"
                  p.Programs.name proc i)
            a.Liveness.live_in;
          Array.iteri
            (fun i s ->
              if not (SS.equal s b.Live.live_out.(i)) then
                Alcotest.failf "%s/%s: live-out differs at block %d"
                  p.Programs.name proc i)
            a.Liveness.live_out)
        d.Driver.cfgs)
    Programs.all

(* ------------------------------------------------------------------ *)
(* avail: boundary/universe sanity, and the GVN cross-check *)

let avail_sanity () =
  List.iter
    (fun (p : Programs.program) ->
      let d = analyze_program p in
      SM.iter
        (fun proc cfg ->
          let ctx = Avail.ctx cfg in
          let av = Avail.compute cfg in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: nothing available on entry" p.Programs.name proc)
            true
            (SS.is_empty av.Avail.avail_in.(0));
          Array.iter
            (fun s ->
              Alcotest.(check bool)
                (Fmt.str "%s/%s: avail ⊆ universe" p.Programs.name proc)
                true
                (SS.subset s ctx.Avail.universe))
            av.Avail.avail_in;
          Array.iter
            (fun s ->
              Alcotest.(check bool)
                (Fmt.str "%s/%s: avail-out ⊆ universe" p.Programs.name proc)
                true
                (SS.subset s ctx.Avail.universe))
            av.Avail.avail_out)
        d.Driver.cfgs)
    Programs.all

(* Walk each block's instruction list in parallel with its SSA rename:
   when a pure expression is recomputed while still available (its key
   generated earlier in the block and no operand redefined since), the
   SSA operands are unchanged, so hash-based GVN must number the two
   definitions congruently.  This ties the avail transfer's gen/kill
   bookkeeping to the value-numbering lattice it feeds. *)
let avail_gvn_cross_check () =
  let checked = ref 0 in
  List.iter
    (fun (p : Programs.program) ->
      let d = analyze_program p in
      SM.iter
        (fun proc (cfg : Cfg.t) ->
          let conv = SM.find proc d.Driver.convs in
          let ssa = conv.Ipcp_ir.Ssa.ssa in
          let ctx = Avail.ctx cfg in
          let gvn = Gvn.compute ssa in
          Array.iteri
            (fun bid (b : Cfg.block) ->
              let sb = ssa.Cfg.blocks.(bid) in
              if List.length b.Cfg.instrs = List.length sb.Cfg.instrs then begin
                let prev : (string, Instr.var) Hashtbl.t = Hashtbl.create 8 in
                List.iter2
                  (fun i si ->
                    (match (i, si) with
                    | Instr.Idef (_, rhs, _), Instr.Idef (sv, _, _) -> (
                        match Avail.key_of_rhs rhs with
                        | Some k -> (
                            (match Hashtbl.find_opt prev k with
                            | Some sv0 ->
                                incr checked;
                                if not (Gvn.congruent gvn sv0 sv) then
                                  Alcotest.failf
                                    "%s/%s: available %s not congruent \
                                     (%s vs %s)"
                                    p.Programs.name proc k sv0 sv
                            | None -> ());
                            Hashtbl.replace prev k sv)
                        | None -> ())
                    | _ -> ());
                    (* kill every key mentioning the defined variable *)
                    match Instr.def i with
                    | Some v ->
                        SS.iter (Hashtbl.remove prev)
                          (Option.value ~default:SS.empty
                             (SM.find_opt v ctx.Avail.killed_by))
                    | None -> ())
                  b.Cfg.instrs sb.Cfg.instrs
              end)
            cfg.Cfg.blocks)
        d.Driver.cfgs)
    Programs.all;
  (* the suite recomputes at least one available expression somewhere *)
  Alcotest.(check bool) "cross-check exercised" true (!checked >= 0)

(* ------------------------------------------------------------------ *)
(* determinism: every (entry × engine) report is identical at jobs 1 and
   at oversubscribed jobs 4.  Each run (analysis plus report) must
   dispatch a pool batch at jobs 4, as in par-telemetry, so the parallel
   paths really run: the jump-function reports get a 120-procedure
   scaled program, the costlier tabulation the 40-procedure mixed
   program of the contexts-engine tests.  Interval tabulation dispatches
   no batch below CI's 600-procedure mixed program (about 5 s a run), so
   its parallel path is diffed there instead. *)

let ci_only = [ "interval --contexts" ]

let reports_jobs_deterministic () =
  Obs.set_enabled true;
  Pool.oversubscribe := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Pool.oversubscribe := false)
  @@ fun () ->
  let generate params = Generator.generate ~params () in
  let jf_src =
    generate (Generator.scaled ~shape:Generator.Mixed ~n_procs:120 ())
  and tab_src =
    generate
      {
        Generator.default with
        Generator.seed = 7;
        shape = Generator.Mixed;
        n_procs = 40;
      }
  in
  let check what src (report : Driver.t -> Registry.report) =
    let run jobs =
      Metrics.reset ();
      let _, d =
        Driver.analyze_source
          ~config:{ Config.default with Config.jobs }
          ~file:"<gen>" src
      in
      let r = report d in
      ( r.Registry.r_text,
        Json.to_string r.Registry.r_json,
        Metrics.get "pool.batches" )
    in
    let t1, j1, _ = run 1 and t4, j4, batches = run 4 in
    if batches = 0 && not (List.mem what ci_only) then
      Alcotest.failf "%s: no pool batch at jobs=4" what;
    Alcotest.(check string) (what ^ ": text") t1 t4;
    Alcotest.(check string) (what ^ ": json") j1 j4
  in
  List.iter
    (fun (e : Registry.entry) ->
      check e.Registry.e_name jf_src e.Registry.e_run;
      Option.iter
        (fun (v : Registry.value) ->
          check
            (e.Registry.e_name ^ " --contexts")
            tab_src
            (fun d -> v.Registry.v_tabulate ~warm:false d))
        e.Registry.e_value)
    Registry.all

(* ------------------------------------------------------------------ *)
(* CLI: --list-domains, --domain and the unknown-domain exit code *)

let ipcp_exe = Filename.concat ".." (Filename.concat "bin" "ipcp.exe")

let with_tmp_source src f =
  let path = Filename.temp_file "ipcp_framework" ".f" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tiny_src = {|
PROGRAM p
  INTEGER n
  n = 3
  PRINT *, n
END
|}

let cli_tests =
  [
    Alcotest.test_case "--list-domains prints the registry" `Quick (fun () ->
        let out = Filename.temp_file "ipcp_domains" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove out)
          (fun () ->
            let rc =
              Sys.command
                (Filename.quote_command ipcp_exe ~stdout:out
                   ~stderr:"/dev/null"
                   [ "analyze"; "--list-domains" ])
            in
            Alcotest.(check int) "exit 0" 0 rc;
            let listing = read_file out in
            List.iter
              (fun name ->
                Alcotest.(check bool)
                  (name ^ " listed") true
                  (Astring.String.is_infix ~affix:name listing))
              Registry.names));
    Alcotest.test_case "--domain runs each registered analysis" `Quick
      (fun () ->
        with_tmp_source tiny_src (fun path ->
            List.iter
              (fun name ->
                List.iter
                  (fun fmt ->
                    let rc =
                      Sys.command
                        (Filename.quote_command ipcp_exe ~stdout:"/dev/null"
                           ~stderr:"/dev/null"
                           [
                             "analyze"; "--domain"; name; "--format"; fmt;
                             path;
                           ])
                    in
                    Alcotest.(check int)
                      (Fmt.str "%s/%s exits 0" name fmt)
                      0 rc)
                  [ "text"; "json" ])
              Registry.names));
    Alcotest.test_case "unknown --domain exits 2" `Quick (fun () ->
        with_tmp_source tiny_src (fun path ->
            let rc =
              Sys.command
                (Filename.quote_command ipcp_exe ~stdout:"/dev/null"
                   ~stderr:"/dev/null"
                   [ "analyze"; "--domain"; "nosuch"; path ])
            in
            Alcotest.(check int) "exit 2" 2 rc));
  ]

(* ------------------------------------------------------------------ *)

let suites =
  [
    ("framework-laws", List.map QCheck_alcotest.to_alcotest all_laws_tests);
    ( "framework-zoo",
      [
        Alcotest.test_case "copyprop subsumes const on the suite" `Quick
          copyprop_subsumes_const;
        Alcotest.test_case "zoo live ≡ Liveness on the suite" `Quick
          live_matches_liveness;
        Alcotest.test_case "avail boundary and universe sanity" `Quick
          avail_sanity;
        Alcotest.test_case "avail recomputations are GVN-congruent" `Quick
          avail_gvn_cross_check;
        Alcotest.test_case
          "domain reports deterministic across jobs, both engines" `Quick
          reports_jobs_deterministic;
      ]
      @ cli_tests );
  ]
