(* Tests of the incremental reanalysis engine: cache population and
   replay, invalidation (content fingerprints for summaries, the AST with
   its locations and first call-site id for in-process IR),
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
module Driver = Ipcp_core.Driver
module Returnjf = Ipcp_core.Returnjf
module Modref = Ipcp_summary.Modref

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
        (* a full replay of a scaled generated program must be
           byte-equal to the cold analysis and reuse every per-procedure
           artifact; perf's edit-1k workload times partial replays at
           1,001 procedures *)
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
    Alcotest.test_case "a moved call-site id rebuilds the IR" `Quick
      (fun () ->
        (* [a]'s assignment becomes a call on the same line: [b] and [c]
           keep their text and locations, but every call-site id after
           [a]'s moves up by one *)
        let src body =
          Ipcp.Source.of_string ~file:"<test>"
            (Fmt.str
               {|
PROGRAM main
  INTEGER x
  x = 3
  CALL a(x)
  CALL b(x)
  CALL c(x)
END

SUBROUTINE a(p)
  INTEGER p, q
  %s
  PRINT *, p
END

SUBROUTINE b(r)
  INTEGER r
  CALL c(r + 1)
END

SUBROUTINE c(s)
  INTEGER s
  PRINT *, s
END
|}
               body)
        in
        let cache = Ipcp.Cache.Dir (fresh_dir ()) in
        let session =
          Result.get_ok (Ipcp.Session.open_ ~config ~cache (src "q = p + 1"))
        in
        ignore (Result.get_ok (Ipcp.Session.update session (src "CALL c(p)")));
        let warm = Ipcp.Session.result session in
        let cold = Result.get_ok (Ipcp.analyze ~config (src "CALL c(p)")) in
        let c = report warm in
        Alcotest.(check int) "only main's IR kept" 1 c.Ipcp.Cache.r_ir_reused;
        Alcotest.(check int) "b's and c's summaries kept" 2
          c.Ipcp.Cache.r_summary_reused;
        let sites r =
          let d = Ipcp.Result.driver r in
          List.map
            (fun p ->
              ( p,
                List.map
                  (fun (s : Ipcp_ir.Instr.site) -> s.Ipcp_ir.Instr.site_id)
                  (Names.SM.find p d.Driver.cfgs).Ipcp_ir.Cfg.sites ))
            d.Driver.symtab.Symtab.order
        in
        let jfs r =
          let d = Ipcp.Result.driver r in
          List.map
            (fun p ->
              List.map
                (fun (sj : Ipcp_core.Jumpfn.site_jfs) ->
                  ( sj.Ipcp_core.Jumpfn.sj_site.Ipcp_ir.Instr.site_id,
                    sj.Ipcp_core.Jumpfn.jfs ))
                (Names.SM.find p d.Driver.jfs))
            d.Driver.symtab.Symtab.order
        in
        Alcotest.(check (list (pair string (list int))))
          "call-site ids equal a cache-less run's" (sites cold) (sites warm);
        Alcotest.(check bool) "jump functions equal a cache-less run's" true
          (jfs warm = jfs cold));
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
        let load key =
          Result.map
            (fun e -> e.Store.payload)
            (Store.read (Store.entry_path ~dir ~key))
        in
        Alcotest.(check bool) "missing" true (load "nope" = Error Store.Missing);
        (match Store.write (Store.entry_path ~dir ~key:"k") "payload bytes" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "save failed: %s" e);
        Alcotest.(check bool) "roundtrip" true (load "k" = Ok "payload bytes"));
    Alcotest.test_case "format-version skew reads as stale, run goes cold"
      `Quick
      (fun () ->
        (* a future version, and the three before this one: version 3's
           snapshots replay statistics this version no longer produces,
           version 4's hold a procedure's summaries in the layout before
           [Driver.summary], and version 5's are one whole-program
           snapshot, with IR taken as checked *)
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
          [ 9999; 5; 4; 3 ]);
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
(* Session keys: the program key is the whole-program digest over the
   content fingerprints a cache lookup compares, in declaration order. *)

let fingerprint_tests =
  [
    Alcotest.test_case "content-only keys equal the inputs of program_key"
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
            let contents = Incr.content_fingerprints symtab in
            Alcotest.(check (list string))
              "declaration order" symtab.Symtab.order (List.map fst contents);
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

(* Warm ≡ cold on partly dirty runs: generated 40-procedure mixed and
   cyclic programs under the two single-procedure edits a save makes in
   the edit-1k benchmark — a literal changed in place (a content-tier
   miss for one procedure) and a PRINT inserted before a procedure's END
   (which also moves the source locations of every later procedure, an
   exact-tier miss for each).  Each edit is analysed against the cache
   the previous version left, at the default jobs, and compared with a
   cache-less jobs-1 analysis. *)

type edit =
  | Literal of int * int * int
      (** procedure index, which of its literal assignments, new value *)
  | Insert of int * int  (** procedure index, printed value *)

(* [Some (k, v)] when [line] assigns the literal [v] to a variable, with
   its '=' at index [k] *)
let literal_assignment line =
  match String.index_opt line '=' with
  | None -> None
  | Some k -> (
      let lhs = String.trim (String.sub line 0 k) in
      let rhs = String.sub line (k + 1) (String.length line - k - 1) in
      let ident_char c =
        c = '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
      in
      match int_of_string_opt (String.trim rhs) with
      | Some v when lhs <> "" && String.for_all ident_char lhs -> Some (k, v)
      | _ -> None)

let apply_edit src edit =
  let ls = Array.of_list (String.split_on_char '\n' src) in
  let ends =
    List.filter
      (fun i -> String.trim ls.(i) = "END")
      (List.init (Array.length ls) Fun.id)
  in
  (* procedure [i]'s lines, from after the previous END to its own *)
  let block i =
    let b = i mod List.length ends in
    ((if b = 0 then 0 else List.nth ends (b - 1) + 1), List.nth ends b)
  in
  let insert last v =
    String.concat "\n"
      (Array.to_list (Array.sub ls 0 last)
      @ [ Fmt.str "  PRINT *, %d" v ]
      @ Array.to_list (Array.sub ls last (Array.length ls - last)))
  in
  match edit with
  | Insert (i, v) -> insert (snd (block i)) v
  | Literal (i, j, v) -> (
      let first, last = block i in
      let literals =
        List.filter_map
          (fun l -> Option.map (fun kv -> (l, kv)) (literal_assignment ls.(l)))
          (List.init (last - first) (fun n -> first + n))
      in
      match literals with
      | [] -> insert last v
      | _ ->
          let l, (k, old) = List.nth literals (j mod List.length literals) in
          ls.(l) <-
            Fmt.str "%s= %d" (String.sub ls.(l) 0 k)
              (if v = old then v + 1 else v);
          String.concat "\n" (Array.to_list ls))

(* the procedure an edit touches, by name *)
let edited_proc src edit =
  let (Literal (i, _, _) | Insert (i, _)) = edit in
  let symtab = Sema.parse_and_analyze ~file:"<edit>" src in
  List.nth symtab.Symtab.order (i mod List.length symtab.Symtab.order)

(* counters that count a run's work rather than its result: a warm run
   does less of that work than a cold one, never more *)
let work_counter k =
  List.exists
    (fun prefix -> String.starts_with ~prefix k)
    [ "symeval."; "jumpfn.built."; "verify." ]

let partly_dirty_prop =
  QCheck.Test.make ~count:10
    ~name:"warm equals cold after edits to generated 40-procedure programs"
    QCheck.(
      triple (int_bound 1000) bool
        (list_of_size (Gen.int_range 1 3)
           (quad (int_bound 40) bool (int_bound 20) (int_range (-10) 39))))
    (fun (seed, cyclic, edits) ->
      with_obs @@ fun () ->
      let shape = if cyclic then Generator.Cyclic else Generator.Mixed in
      let src0 =
        Generator.generate
          ~params:{ Generator.default with Generator.seed; shape; n_procs = 40 }
          ()
      in
      let cache = Ipcp.Cache.Dir (fresh_dir ()) in
      let warm_config = Config.default in
      ignore (analyze ~config:warm_config ~cache src0);
      ignore
        (List.fold_left
           (fun src (i, literal, j, v) ->
             let edit = if literal then Literal (i, j, v) else Insert (i, v) in
             let src' = apply_edit src edit in
             let target = edited_proc src' edit in
             let warm = analyze ~config:warm_config ~cache src' in
             let cold = analyze src' in
             let facts (r : Ipcp.Result.t) =
               let d = Ipcp.Result.driver r in
               let ranges = Ipcp.Result.ranges r in
               let findings, verdicts =
                 Ipcp.Result.lints_with_verdicts ~ranges r
               in
               ( observable r,
                 Ipcp.Result.census r,
                 Ipcp.Result.solver_stats r,
                 Ipcp.Result.convergence r,
                 Ipcp_obs.Json.to_string (Ipcp_core.Ranges.json ranges),
                 Ipcp_analysis.Lint.render_json ~verdicts findings,
                 (* what stage 3 consumes, kept or rebuilt: jump
                    functions with their call sites, return jump
                    functions and MOD/REF rows *)
                 ( Names.SM.bindings d.Driver.jfs,
                   List.map
                     (fun (p, rt) -> (p, Returnjf.RT.bindings rt))
                     (Names.SM.bindings d.Driver.rjfs),
                   List.map
                     (fun p ->
                       Option.map
                         (fun m ->
                           (Modref.IS.elements (Modref.mod_of m p),
                            Modref.IS.elements (Modref.ref_of m p)))
                         d.Driver.modref)
                     (Ipcp.Result.procedures r) ) )
             in
             let outcome r =
               List.filter
                 (fun (k, _) -> not (work_counter k))
                 (Ipcp.Result.stats r)
             in
             let c = report warm in
             let dirty =
               Ipcp_callgraph.Callgraph.caller_closure
                 (Ipcp.Result.driver cold).Driver.cg [ target ]
             in
             if facts warm <> facts cold then
               QCheck.Test.fail_reportf "%s: warm facts differ from cold" target;
             if outcome warm <> outcome cold then
               QCheck.Test.fail_reportf "%s: warm counters differ from cold"
                 target;
             List.iter
               (fun (k, n) ->
                 if work_counter k
                    && n > Option.value ~default:0
                             (List.assoc_opt k (Ipcp.Result.stats cold))
                 then
                   QCheck.Test.fail_reportf "%s: warm %s = %d exceeds cold's"
                     target k n)
               (Ipcp.Result.stats warm);
             if
               c.Ipcp.Cache.r_cold <> None
               || c.Ipcp.Cache.r_changed <> 1
               || c.Ipcp.Cache.r_dirty <> Names.SS.cardinal dirty
               || c.Ipcp.Cache.r_fixpoint_reused
             then
               QCheck.Test.fail_reportf
                 "%s: report changed %d dirty %d, expected 1 and %d" target
                 c.Ipcp.Cache.r_changed c.Ipcp.Cache.r_dirty
                 (Names.SS.cardinal dirty);
             src')
           src0 edits);
      true)

(* ------------------------------------------------------------------ *)
(* Per-procedure objects: the manifest names a summary and a
   substitution object per procedure, stored flat beside it; damage
   degrades to recomputing the procedure, the in-process copy is only
   trusted while the manifest on disk is the one it describes, and a
   save writes what its dirty set changed. *)

let object_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".ipcpo")
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* the kind of an object file: 's' (summary) or 'u' (substitution) *)
let object_kind f = (List.nth (String.split_on_char '.' f) 1).[0]

let generated ?(seed = 11) n =
  Generator.generate ~params:(Generator.scaled ~seed ~n_procs:n ()) ()

let substituted (r : Ipcp.Result.t) =
  Pretty.program_to_string (Ipcp.Result.substitution r).Ipcp.Result.program

let object_tests =
  [
    Alcotest.test_case "a verifying run checks what an unverified run kept"
      `Quick (fun () ->
        with_obs @@ fun () ->
        let unverified = { config with Config.verify_ir = false }
        and verified = { config with Config.verify_ir = true } in
        let src = chain_src () in
        let cold = analyze ~config:verified src in
        (* in process: the IR and substitutions the first run kept *)
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~config:unverified ~cache src);
        let warm = analyze ~config:verified ~cache src in
        let checks = Metrics.get "verify.checks" in
        Alcotest.(check bool) "fixpoint replayed" true
          (report warm).Ipcp.Cache.r_fixpoint_reused;
        Alcotest.(check bool) "the kept forms were checked" true (checks > 0);
        Alcotest.(check bool) "warm equals cold" true
          (observable warm = observable cold);
        ignore (analyze ~config:verified ~cache src);
        Alcotest.(check int) "a second verifying run has nothing to check" 0
          (Metrics.get "verify.checks");
        (* from disk: the substitutions the first run wrote *)
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~config:unverified ~cache src);
        Incr.forget ~dir ~key:"<test>";
        let warm = analyze ~config:verified ~cache src in
        Alcotest.(check bool) "checked from disk" true
          (Metrics.get "verify.checks" > 0);
        Alcotest.(check bool) "warm from disk equals cold" true
          (observable warm = observable cold));
    Alcotest.test_case "a missing or bit-flipped object is recomputed" `Quick
      (fun () ->
        with_obs @@ fun () ->
        let flip path =
          let bytes = Bytes.of_string (read_file path) in
          let i = Bytes.length bytes - 3 in
          Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff));
          write_file path (Bytes.to_string bytes)
        in
        (* the cold populate packs its objects; the edit's save writes
           those of its dirty procedures as files of their own *)
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache (chain_src ()));
        let src = chain_src ~leaf_c:8 () in
        ignore (analyze ~cache src);
        Incr.forget ~dir ~key:"<test>";
        let file dir kind =
          Filename.concat dir
            (List.find (fun f -> object_kind f = kind) (object_files dir))
        in
        Sys.remove (file dir 's');
        flip (file dir 'u');
        let warm = analyze ~cache src in
        let missing = Metrics.get "incr.object.missing"
        and corrupt = Metrics.get "incr.object.corrupt" in
        let cold = analyze src in
        let c = report warm in
        Alcotest.(check int) "one object missing" 1 missing;
        Alcotest.(check int) "one object corrupt" 1 corrupt;
        Alcotest.(check bool) "still warm" true (c.Ipcp.Cache.r_cold = None);
        Alcotest.(check bool) "a procedure was recomputed" true
          (c.Ipcp.Cache.r_summary_reused < c.Ipcp.Cache.r_procs);
        Alcotest.(check bool) "warm equals cold" true
          (observable warm = observable cold);
        (match Ipcp.Cache.entries dir with
        | [ e ] ->
            Alcotest.(check bool) "both objects written anew" true
              (e.Ipcp.Cache.ei_status = Ok ())
        | es -> Alcotest.failf "expected one entry, found %d" (List.length es));
        (* a damaged pack: each object it held reads as corrupt *)
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        ignore (analyze ~cache src);
        Incr.forget ~dir ~key:"<test>";
        flip (file dir 'p');
        let warm = analyze ~cache src in
        let corrupt = Metrics.get "incr.object.corrupt" in
        Alcotest.(check bool) "packed objects counted corrupt" true (corrupt > 0);
        Alcotest.(check bool) "recovered from a damaged pack" true
          (observable warm = observable cold);
        match Ipcp.Cache.entries dir with
        | [ e ] ->
            Alcotest.(check bool) "healthy again" true
              (e.Ipcp.Cache.ei_status = Ok ())
        | es -> Alcotest.failf "expected one entry, found %d" (List.length es));
    Alcotest.test_case "closing a session drops its in-process copy" `Quick
      (fun () ->
        with_obs @@ fun () ->
        let cache = Ipcp.Cache.Dir (fresh_dir ()) in
        let src = Ipcp.Source.of_string ~file:"<test>" (chain_src ()) in
        let open_ () = Result.get_ok (Ipcp.Session.open_ ~config ~cache src) in
        let ir_reused s =
          (Ipcp.Result.cache (Ipcp.Session.result s)).Ipcp.Cache.r_ir_reused
        in
        ignore (open_ ());
        Alcotest.(check int) "an open session's copy serves the next" 4
          (ir_reused (open_ ()));
        Ipcp.Session.close (open_ ());
        let s = open_ () in
        Alcotest.(check int) "after a close, read from disk" 0 (ir_reused s);
        Alcotest.(check int) "and warm" 4
          (Ipcp.Result.cache (Ipcp.Session.result s)).Ipcp.Cache.r_summary_reused);
    Alcotest.test_case "a manifest rewritten on disk is read again" `Quick
      (fun () ->
        with_obs @@ fun () ->
        let dir = fresh_dir () and other = fresh_dir () in
        ignore (analyze ~cache:(Ipcp.Cache.Dir dir) (chain_src ()));
        let edited = chain_src ~leaf_c:8 () in
        ignore (analyze ~cache:(Ipcp.Cache.Dir other) edited);
        (* the same key's entry for the edited program, copied over the
           one this process wrote and holds in memory *)
        Array.iter
          (fun f ->
            write_file (Filename.concat dir f)
              (read_file (Filename.concat other f)))
          (Sys.readdir other);
        let r = analyze ~cache:(Ipcp.Cache.Dir dir) edited in
        let c = report r in
        Alcotest.(check int) "not served from memory" 0
          (Metrics.get "incr.memo.hit");
        Alcotest.(check int) "nothing dirty against the new manifest" 0
          c.Ipcp.Cache.r_dirty;
        Alcotest.(check bool) "its fixpoint replayed" true
          c.Ipcp.Cache.r_fixpoint_reused;
        Alcotest.(check bool) "equals cold" true
          (observable r = observable (analyze edited)));
    Alcotest.test_case "moved procedures reuse their substitution objects"
      `Quick (fun () ->
        with_obs @@ fun () ->
        let src = generated 120 in
        let cache = Ipcp.Cache.Dir (fresh_dir ()) in
        ignore (analyze ~cache src);
        (* a PRINT before the END of an early procedure moves every later
           one *)
        let edited = apply_edit src (Insert (20, 4242)) in
        let warm = analyze ~cache edited in
        let reused = Metrics.get "incr.subst.reused" in
        let c = report warm in
        let clean = c.Ipcp.Cache.r_procs - c.Ipcp.Cache.r_dirty in
        Alcotest.(check bool) "procedures moved without changing" true
          (clean - c.Ipcp.Cache.r_ir_reused > 50);
        Alcotest.(check int) "every clean procedure reused its substitution"
          clean reused;
        Alcotest.(check string) "substituted program equals cold"
          (substituted (analyze edited))
          (substituted warm));
    Alcotest.test_case "chained saves keep two objects per procedure" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let cache = Ipcp.Cache.Dir dir in
        let src0 = generated 120 in
        ignore (analyze ~cache src0);
        let n = List.length (Ipcp.Result.procedures (analyze src0)) in
        let bytes () =
          match Ipcp.Cache.entries dir with
          | [ e ] -> e.Ipcp.Cache.ei_bytes
          | es -> Alcotest.failf "expected one entry, found %d" (List.length es)
        in
        let populated = bytes () in
        let last =
          List.fold_left
            (fun src i ->
              let edit =
                if i mod 2 = 0 then Literal ((7 * i) + 3, i, 100 + i)
                else Insert ((11 * i) + 5, i)
              in
              let src' = apply_edit src edit in
              ignore (analyze ~cache src');
              (* the populate's pack counts as one file *)
              let objects = List.length (object_files dir) in
              if objects > 2 * n then
                Alcotest.failf "save %d: %d objects for %d procedures" i objects
                  n;
              if bytes () > 2 * populated then
                Alcotest.failf "save %d: %d bytes, the populate wrote %d" i
                  (bytes ()) populated;
              src')
            src0 (List.init 20 Fun.id)
        in
        (match Ipcp.Cache.entries dir with
        | [ e ] ->
            Alcotest.(check bool) "manifest and objects healthy" true
              (e.Ipcp.Cache.ei_status = Ok ())
        | es -> Alcotest.failf "expected one entry, found %d" (List.length es));
        Incr.forget ~dir ~key:"<test>";
        Alcotest.(check bool) "the last save replays as cold" true
          (observable (analyze ~cache last) = observable (analyze last)));
    Alcotest.test_case "a one-literal save writes a tenth of a populate"
      `Quick (fun () ->
        with_obs @@ fun () ->
        let src = generated 1000 in
        let cache = Ipcp.Cache.Dir (fresh_dir ()) in
        ignore (analyze ~cache src);
        let populate = Metrics.get "incr.store.bytes" in
        ignore (analyze ~cache (apply_edit src (Literal (500, 0, 4242))));
        let save = Metrics.get "incr.store.bytes" in
        if save * 10 >= populate then
          Alcotest.failf "a save wrote %d bytes, a populate %d" save populate);
  ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ edit_sequence_prop; partly_dirty_prop ]

let suites =
  [
    ("incr-lifecycle", lifecycle_tests);
    ("incr-invalidation", invalidation_tests);
    ("incr-store", store_tests);
    ("incr-objects", object_tests);
    ("incr-fingerprints", fingerprint_tests);
    ("incr-qcheck", qcheck_tests);
  ]
