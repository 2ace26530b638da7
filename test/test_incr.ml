(* Tests of the incremental reanalysis engine: cache population and
   replay, the two-tier invalidation (content vs exact-with-locations),
   the caller-closure dirty set, cache-envelope resilience, and the
   warm-equals-cold property under random single-procedure edits. *)

open Ipcp_frontend
module Config = Ipcp_core.Config
module Incr = Ipcp_incr.Incr
module Store = Ipcp_incr.Store
module Fingerprint = Ipcp_incr.Fingerprint
module Programs = Ipcp_suite.Programs
module Generator = Ipcp_gen.Generator
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Ipcp = Ipcp_api.Ipcp

(* a fresh, empty cache directory per test *)
let fresh_dir () =
  let f = Filename.temp_file "ipcp-test-incr" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let config = { Config.default with Config.jobs = 1 }

let analyze ?(config = config) ?cache src =
  let symtab = Sema.parse_and_analyze ~file:"<test>" src in
  Ipcp.analyze_symtab ~config ?cache ~key:"<test>" symtab

(* everything a consumer can observe: constants per procedure, the
   substituted source, and the substitution count *)
let observable (r : Ipcp.Result.t) =
  ( List.map (fun p -> (p, Ipcp.Result.constants r p)) (Ipcp.Result.procedures r),
    Pretty.program_to_string (Ipcp.Result.substitution r).Ipcp.Result.program,
    (Ipcp.Result.substitution r).Ipcp.Result.total )

let check_warm_equals_cold ?config name ~cache src =
  let warm = analyze ?config ~cache src in
  let cold = analyze ?config src in
  Alcotest.(check bool)
    (name ^ ": warm result equals a from-scratch analysis")
    true
    (observable warm = observable cold);
  warm

let report (r : Ipcp.Result.t) = Ipcp.Result.cache r

(* run [f] with telemetry on so the incr.* counters are recorded *)
let with_obs f =
  Obs.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Sources.  [chain_src] has an isolated procedure so partial
   invalidation is observable: main -> mid -> leaf, main -> iso. *)

let chain_src ?(leaf_c = 7) ?(iso_c = 5) () =
  Fmt.str
    {|
PROGRAM main
  INTEGER x
  x = 3
  CALL mid(x)
  CALL iso(x)
END

SUBROUTINE mid(a)
  INTEGER a
  CALL leaf(a + 1)
END

SUBROUTINE leaf(b)
  INTEGER b, c
  c = %d
  PRINT *, b + c
END

SUBROUTINE iso(d)
  INTEGER d, e
  e = %d
  PRINT *, d * e
END
|}
    leaf_c iso_c

let recursive_src ?(dec = 1) () =
  Fmt.str
    {|
PROGRAM main
  INTEGER x
  x = even(10)
  PRINT *, x
END
INTEGER FUNCTION even(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    even = 1
  ELSE
    m = n - %d
    even = odd(m)
  ENDIF
END
INTEGER FUNCTION odd(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    odd = 0
  ELSE
    m = n - 1
    odd = even(m)
  ENDIF
END
|}
    dec

(* ------------------------------------------------------------------ *)

let lifecycle_tests =
  [
    Alcotest.test_case "cold run populates, identical rerun fully replays"
      `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        let src = chain_src () in
        let r1 = analyze ~cache src in
        Alcotest.(check bool)
          "first run is cold" true
          ((report r1).Ipcp.Cache.r_cold <> None);
        Alcotest.(check int)
          "one cache entry written" 1
          (List.length (Ipcp.Cache.entries dir));
        let r2 = check_warm_equals_cold "identical rerun" ~cache src in
        let c = report r2 in
        Alcotest.(check bool) "second run is warm" true (c.Ipcp.Cache.r_cold = None);
        Alcotest.(check int) "nothing changed" 0 c.Ipcp.Cache.r_changed;
        Alcotest.(check int) "nothing dirty" 0 c.Ipcp.Cache.r_dirty;
        Alcotest.(check bool)
          "fixpoint replayed" true c.Ipcp.Cache.r_fixpoint_reused;
        Alcotest.(check int)
          "all IR replayed" c.Ipcp.Cache.r_procs c.Ipcp.Cache.r_ir_reused);
    Alcotest.test_case "warm replay at scale (generated 300-proc program)"
      `Quick
      (fun () ->
        (* the bench's incr:warm@1k row, shrunk to test size: a full
           replay of a scaled generated program must be byte-equal to
           the cold analysis and reuse every per-procedure artifact *)
        let src =
          Ipcp_gen.Generator.generate
            ~params:(Ipcp_gen.Generator.scaled ~n_procs:300 ())
            ()
        in
        let cache = Ipcp.Cache.Dir (fresh_dir ()) in
        let r1 = analyze ~cache src in
        Alcotest.(check bool)
          "first run is cold" true
          ((report r1).Ipcp.Cache.r_cold <> None);
        let r2 = check_warm_equals_cold "scaled rerun" ~cache src in
        let c = report r2 in
        Alcotest.(check bool) "warm" true (c.Ipcp.Cache.r_cold = None);
        Alcotest.(check int) "301 procedures" 301 c.Ipcp.Cache.r_procs;
        Alcotest.(check int) "nothing dirty" 0 c.Ipcp.Cache.r_dirty;
        Alcotest.(check bool)
          "fixpoint replayed" true c.Ipcp.Cache.r_fixpoint_reused;
        Alcotest.(check bool)
          "substitution replayed" true c.Ipcp.Cache.r_substitution_reused;
        Alcotest.(check int)
          "all IR replayed" c.Ipcp.Cache.r_procs c.Ipcp.Cache.r_ir_reused);
    Alcotest.test_case "comment shift rebuilds IR, keeps summaries" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        (* textually identical procedures, every line moved down by one *)
        let shifted = "! leading comment\n" ^ chain_src () in
        let r = check_warm_equals_cold "shifted" ~cache shifted in
        let c = report r in
        Alcotest.(check bool) "warm" true (c.Ipcp.Cache.r_cold = None);
        Alcotest.(check int) "no content change" 0 c.Ipcp.Cache.r_changed;
        Alcotest.(check int) "no IR reuse (locations moved)" 0 c.Ipcp.Cache.r_ir_reused;
        Alcotest.(check int)
          "all summaries reused" c.Ipcp.Cache.r_procs
          c.Ipcp.Cache.r_summary_reused;
        Alcotest.(check bool)
          "fixpoint replayed" true c.Ipcp.Cache.r_fixpoint_reused);
    Alcotest.test_case "lint locations are current after a shift" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let shifted = "! leading comment\n" ^ chain_src () in
        let warm = analyze ~cache shifted in
        let cold = analyze shifted in
        Alcotest.(check bool)
          "warm findings equal cold findings (locations included)" true
          (Ipcp.Result.lints warm = Ipcp.Result.lints cold));
  ]

let invalidation_tests =
  [
    Alcotest.test_case "leaf edit dirties exactly the caller chain" `Quick
      (fun () ->
        with_obs @@ fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let warm = analyze ~cache (chain_src ~leaf_c:8 ()) in
        (* the facade resets the registry per call: read the warm run's
           counters before the comparison run below *)
        let rebuilt = Metrics.get "incr.summary.rebuilt" in
        let cold = analyze (chain_src ~leaf_c:8 ()) in
        Alcotest.(check bool)
          "warm result equals a from-scratch analysis" true
          (observable warm = observable cold);
        let c = report warm in
        Alcotest.(check int) "one procedure changed" 1 c.Ipcp.Cache.r_changed;
        (* leaf itself, mid, main — but not iso *)
        Alcotest.(check int) "dirty = leaf + its callers" 3 c.Ipcp.Cache.r_dirty;
        Alcotest.(check int)
          "iso's summaries survive" 1 c.Ipcp.Cache.r_summary_reused;
        Alcotest.(check int) "obs agrees: three rebuilt" 3 rebuilt);
    Alcotest.test_case "main edit dirties only main" `Quick (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let edited =
          Astring.String.cuts ~sep:"x = 3" (chain_src ())
          |> String.concat "x = 4"
        in
        let r = check_warm_equals_cold "main edit" ~cache edited in
        let c = report r in
        Alcotest.(check int) "one changed" 1 c.Ipcp.Cache.r_changed;
        Alcotest.(check int) "only main dirty" 1 c.Ipcp.Cache.r_dirty;
        Alcotest.(check bool)
          "fixpoint not replayed (program content changed)" false
          c.Ipcp.Cache.r_fixpoint_reused);
    Alcotest.test_case "edit inside an SCC dirties the whole component"
      `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (recursive_src ()));
        let r =
          check_warm_equals_cold "SCC edit" ~cache (recursive_src ~dec:2 ())
        in
        let c = report r in
        (* the edit is in [even]; [odd] calls it, and main calls [even]:
           the whole recursive component plus main is dirty *)
        Alcotest.(check int) "one changed" 1 c.Ipcp.Cache.r_changed;
        Alcotest.(check int) "component + caller dirty" 3 c.Ipcp.Cache.r_dirty);
    Alcotest.test_case "adding and removing a procedure" `Quick (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        let v1 = chain_src () in
        let v2 =
          chain_src ()
          ^ {|
SUBROUTINE extra(z)
  INTEGER z
  PRINT *, z + 100
END
|}
        in
        ignore (analyze ~cache v1);
        let r2 = check_warm_equals_cold "procedure added" ~cache v2 in
        Alcotest.(check int)
          "only the new procedure changed" 1
          (report r2).Ipcp.Cache.r_changed;
        let r3 = check_warm_equals_cold "procedure removed" ~cache v1 in
        let c3 = report r3 in
        (* the snapshot now describes v2, so the program hash differs and
           the fixpoint must be re-solved — but every surviving procedure
           is unchanged, so all summaries replay *)
        Alcotest.(check int) "no surviving procedure changed" 0
          c3.Ipcp.Cache.r_changed;
        Alcotest.(check bool)
          "fixpoint re-solved after removal" false
          c3.Ipcp.Cache.r_fixpoint_reused;
        Alcotest.(check int)
          "all surviving summaries replayed" c3.Ipcp.Cache.r_procs
          c3.Ipcp.Cache.r_summary_reused);
    Alcotest.test_case "configuration change falls back to cold" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let r =
          analyze ~config:{ config with Config.jf = Config.Literal } ~cache
            (chain_src ())
        in
        Alcotest.(check (option string))
          "cold with a configuration reason"
          (Some "configuration changed")
          (report r).Ipcp.Cache.r_cold);
    Alcotest.test_case "jobs do not affect cache validity or results" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        (* same cache entry, reread under a parallel configuration *)
        let r =
          analyze
            ~config:{ config with Config.jobs = 4 }
            ~cache
            (chain_src ~leaf_c:9 ())
        in
        Alcotest.(check bool)
          "warm under jobs=4" true
          ((report r).Ipcp.Cache.r_cold = None);
        let cold = analyze (chain_src ~leaf_c:9 ()) in
        Alcotest.(check bool)
          "parallel warm equals sequential cold" true
          (observable r = observable cold));
  ]

(* ------------------------------------------------------------------ *)
(* Envelope resilience *)

let entry_file dir =
  match Ipcp.Cache.entries dir with
  | [ e ] -> Filename.concat dir e.Ipcp.Cache.ei_file
  | es -> Alcotest.failf "expected one cache entry, found %d" (List.length es)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let store_tests =
  [
    Alcotest.test_case "save/load roundtrip and missing key" `Quick (fun () ->
        let dir = fresh_dir () in
        Alcotest.(check bool)
          "missing" true
          (Store.load ~dir ~key:"nope" = Error Store.Missing);
        (match Store.save ~dir ~key:"k" "payload bytes" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save failed: %s" e);
        Alcotest.(check bool)
          "roundtrip" true
          (Store.load ~dir ~key:"k" = Ok "payload bytes"));
    Alcotest.test_case "format-version skew reads as stale, run goes cold"
      `Quick
      (fun () ->
        (* a future version, and the previous one (whose snapshots
           replay statistics this version no longer produces) *)
        List.iter
          (fun version ->
            with_obs @@ fun () ->
            let dir = fresh_dir () in
            let cache = Ipcp.Cache.Dir dir in
            ignore (analyze ~cache (chain_src ()));
            let path = entry_file dir in
            let contents = read_file path in
            let bumped =
              Astring.String.cuts
                ~sep:(Fmt.str "IPCP-CACHE %d" Store.format_version)
                contents
              |> String.concat (Fmt.str "IPCP-CACHE %d" version)
            in
            write_file path bumped;
            let warm = analyze ~cache (chain_src ()) in
            let stale = Metrics.get "incr.cold.stale" in
            let cold = analyze (chain_src ()) in
            Alcotest.(check bool)
              "recovery run equals a from-scratch analysis" true
              (observable warm = observable cold);
            Alcotest.(check bool)
              "cold" true
              ((report warm).Ipcp.Cache.r_cold <> None);
            Alcotest.(check int) "counted as stale" 1 stale)
          [ 9999; Store.format_version - 1 ]);
    Alcotest.test_case "corrupted payload reads as corrupt, run goes cold"
      `Quick
      (fun () ->
        with_obs @@ fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let path = entry_file dir in
        let contents = Bytes.of_string (read_file path) in
        (* flip a byte deep in the marshalled payload *)
        let i = Bytes.length contents - 10 in
        Bytes.set contents i
          (Char.chr (Char.code (Bytes.get contents i) lxor 0xff));
        write_file path (Bytes.to_string contents);
        let warm = analyze ~cache (chain_src ()) in
        let corrupt = Metrics.get "incr.cold.corrupt" in
        let cold = analyze (chain_src ()) in
        Alcotest.(check bool)
          "recovery run equals a from-scratch analysis" true
          (observable warm = observable cold);
        Alcotest.(check bool)
          "cold" true
          ((report warm).Ipcp.Cache.r_cold <> None);
        Alcotest.(check int) "counted as corrupt" 1 corrupt;
        (* the bad entry was replaced by the recovery run *)
        match Ipcp.Cache.entries dir with
        | [ e ] ->
            Alcotest.(check bool) "entry healthy again" true (e.Ipcp.Cache.ei_status = Ok ())
        | es -> Alcotest.failf "expected one entry, found %d" (List.length es));
    Alcotest.test_case "clear removes every entry" `Quick (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        Alcotest.(check int) "one removed" 1 (Ipcp.Cache.clear dir);
        Alcotest.(check int)
          "none left" 0
          (List.length (Ipcp.Cache.entries dir)));
  ]

(* ------------------------------------------------------------------ *)
(* Session keys: the content-only fingerprints must equal the content
   tier of the two-tier fingerprints a cache lookup computes. *)

let fingerprint_tests =
  [
    Alcotest.test_case "content-only keys equal the two-tier fingerprints"
      `Quick (fun () ->
        let sources =
          Generator.generate
            ~params:(Generator.scaled ~shape:Generator.Mixed ~n_procs:60 ())
            ()
          :: List.map (fun (p : Programs.program) -> p.Programs.source) Programs.all
        in
        List.iter
          (fun src ->
            let symtab = Sema.parse_and_analyze ~file:"<fp>" src in
            let contents =
              List.map
                (fun (name, fp) -> (name, fp.Fingerprint.fp_content))
                (Incr.fingerprints symtab)
            in
            Alcotest.(check (list (pair string string)))
              "content_fingerprints" contents
              (Incr.content_fingerprints symtab);
            Alcotest.(check string) "program_key"
              (Digest.to_hex
                 (Fingerprint.program
                    ~config_key:(Fingerprint.config config)
                    ~globals_hash:(Fingerprint.globals symtab)
                    contents))
              (Incr.program_key config symtab))
          sources);
  ]

(* ------------------------------------------------------------------ *)
(* Warm ≡ cold under random single-procedure edits: a chain of
   procedures each contributing a literal, edited one at a time. *)

let editable_src (cs : int array) =
  let n = Array.length cs in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "PROGRAM main\n  INTEGER x\n  x = 1\n  CALL p0(x)\nEND\n";
  for i = 0 to n - 1 do
    let callee =
      if i = n - 1 then "  PRINT *, a + c\n"
      else Fmt.str "  CALL p%d(a + c)\n" (i + 1)
    in
    Buffer.add_string buf
      (Fmt.str "SUBROUTINE p%d(a)\n  INTEGER a, c\n  c = %d\n%s  PRINT *, c\nEND\n"
         i cs.(i) callee)
  done;
  Buffer.contents buf

let edit_sequence_prop =
  QCheck.Test.make ~count:30 ~name:"warm equals cold under random edits"
    QCheck.(
      pair
        (array_of_size (Gen.int_range 2 4) (int_range 0 50))
        (small_list (pair (int_range 0 3) (int_range 0 50))))
    (fun (cs, edits) ->
      QCheck.assume (Array.length cs >= 2);
      let dir = fresh_dir () in
      let cache = Ipcp.Cache.Dir dir in
      ignore (analyze ~cache (editable_src cs));
      List.for_all
        (fun (i, v) ->
          cs.(i mod Array.length cs) <- v;
          let src = editable_src cs in
          observable (analyze ~cache src) = observable (analyze src))
        edits)

let qcheck_tests = [ QCheck_alcotest.to_alcotest edit_sequence_prop ]

let suites =
  [
    ("incr-lifecycle", lifecycle_tests);
    ("incr-invalidation", invalidation_tests);
    ("incr-store", store_tests);
    ("incr-fingerprints", fingerprint_tests);
    ("incr-qcheck", qcheck_tests);
  ]
