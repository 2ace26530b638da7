(** [edit-1k]: an editor session against the serve dispatcher's JSON-RPC
    entry ([Server.handle_line], the frames [ipcp serve] receives).  One
    session holds the fixed 1,000-procedure program with a cache
    directory attached; one op is one save: an [update] changing one
    procedure, then the reads [ipcp loadgen] issues between two updates
    — [analyze], [ranges], [lint] with ranges, and a [query] of
    constants, ranges and lints for the edited procedure — of which the
    repeats are answered from the response cache. *)

open Layers

(* The reads of one save follow [ipcp loadgen]'s default traffic
   (bin/ipcp.ml): one update every 16 requests, and the 15 requests
   between cycle through analyze, query, ranges, query, lint.  Here
   each query asks about the edited procedure, for constants, ranges
   and lints in turn. *)
let reads_per_save = 15

type read = Analyze | Query | Ranges | Lint

let read_cycle = [| Analyze; Query; Ranges; Query; Lint |]

let query_whats = [| "constants"; "ranges"; "lints" |]

let frame id meth params =
  Json.to_string (Json.Obj [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])

let parse s = match Json.parse s with Ok j -> j | Error e -> failwith ("response JSON: " ^ e)

(* the payload of a response, or the failure it reports *)
let result_of resp =
  let j = parse resp in
  match Json.member "result" j with
  | Some r -> Ok r
  | None -> Error resp

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

(* (file, size, mtime) of every file of a cache directory *)
let files dir =
  Array.to_list (Sys.readdir dir)
  |> List.map (fun f ->
         let st = Unix.stat (Filename.concat dir f) in
         (f, st.Unix.st_size, st.Unix.st_mtime))

let bytes_written ~before ~after =
  List.fold_left (fun n ((_, size, _) as f) -> if List.mem f before then n else n + size) 0 after

let analyze_json r =
  let procs = Ipcp.Result.procedures r in
  let census = Ipcp.Result.census r in
  [
    ("procedures", Json.Arr (List.map (fun p -> Json.Str p) procs));
    ( "constants",
      Json.Obj
        (List.filter_map
           (fun p ->
             match Ipcp.Result.constants r p with
             | [] -> None
             | cs -> Some (p, Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs)))
           procs) );
    ("total_constants", Json.Int (Ipcp.Result.total_constants r));
    ("substituted", Json.Int (Ipcp.Result.substitution r).Ipcp.Result.total);
    ( "census",
      Json.Obj
        [
          ("const", Json.Int census.Ipcp.Result.n_const);
          ("passthrough", Json.Int census.Ipcp.Result.n_passthrough);
          ("polynomial", Json.Int census.Ipcp.Result.n_poly);
          ("bottom", Json.Int census.Ipcp.Result.n_bottom);
          ("total_cost", Json.Int census.Ipcp.Result.total_cost);
        ] );
  ]

let lint_json ranges driver =
  let fs, vt = Lint.run_with_verdicts ~ranges driver in
  parse (Lint.render_json ~verdicts:vt fs)

(* digests of a save's first answers, kept for the checks after the
   last op (the answers themselves would raise the peak RSS measured) *)
type saved = { s_index : int; s_analyze : (string * string) list; s_lint : string }

let digest j = Digest.string (Json.to_string j)

type session = { server : Server.t; sid : int; base : Inputs.t; targets : Srctext.block array }

let make ~dir ~input_seed ~seed ~work : Wl.t =
  let cache_dir = Filename.concat work "edit-cache" in
  let replica_dir = Filename.concat work "edit-replica" in
  let session = ref None and prev_text = ref "" and saved = ref [] in
  let replica_ready = ref false in
  let setup () =
    let base = Inputs.generated ~dir ~input_seed 1000 in
    rm_rf cache_dir;
    Sys.mkdir cache_dir 0o755;
    let server = Server.create ~config:Wl.config () in
    let resp =
      Server.handle_line server
        (frame 1 "open"
           [ ("source", Json.Str base.text); ("file", Json.Str base.file); ("cache_dir", Json.Str cache_dir) ])
    in
    let sid =
      match Result.map (Json.member "session") (result_of resp) with
      | Ok (Some (Json.Int sid)) -> sid
      | _ -> failwith ("open failed: " ^ resp)
    in
    prev_text := base.text;
    session := Some { server; sid; base; targets = Srctext.targets ~seed base.text }
  in
  let cache_counts server =
    let st = Result.get_ok (result_of (Server.handle_line server (frame 0 "stats" []))) in
    let get k = Option.value ~default:0 (Option.bind (Json.member "cache" st) (fun c -> Option.bind (Json.member k c) Json.to_int)) in
    (get "hits", get "misses")
  in
  (* The update once more, through its pieces, against a second cache
     directory that has seen the same texts: attribution only. *)
  let replica_open (s : session) =
    rm_rf replica_dir;
    Sys.mkdir replica_dir 0o755;
    let symtab = Sema.parse_and_analyze ~file:s.base.file !prev_text in
    let o = Incr.analyze ~config:Wl.config ~policy:(Incr.Dir replica_dir) ~key:s.base.file symtab in
    let sub = match o.Incr.o_substitution with Some x -> x | None -> Substitute.apply o.Incr.o_driver in
    Option.iter (fun c -> ignore (c { Incr.rs_counters = []; rs_convergence = [] } sub)) o.Incr.o_commit;
    replica_ready := true
  in
  let replica spans (s : session) text =
    let sp name f = Spans.with_span spans name f in
    sp "replica.update" (fun () ->
        let symtab = sp "frontend" (fun () -> Sema.parse_and_analyze ~file:s.base.file text) in
        sp "incr.fingerprint" (fun () ->
            ignore (Incr.content_fingerprints symtab);
            ignore (Incr.program_key Wl.config symtab));
        let before = files replica_dir in
        let o =
          sp "incr.analyze" (fun () ->
              Incr.analyze ~config:Wl.config ~policy:(Incr.Dir replica_dir) ~key:s.base.file symtab)
        in
        let d = o.Incr.o_driver in
        let sub =
          match o.Incr.o_substitution with
          | Some x -> x
          | None -> sp "substitute" (fun () -> Substitute.apply d)
        in
        Option.iter
          (fun c -> sp "incr.persist" (fun () -> ignore (c { Incr.rs_counters = []; rs_convergence = [] } sub)))
          o.Incr.o_commit;
        let rep = o.Incr.o_report in
        Spans.count spans "incr.cache_mb"
          (float_of_int (bytes_written ~before ~after:(files replica_dir)) /. 1e6);
        Spans.count spans "incr.dirty_procs" (float_of_int rep.Incr.r_dirty);
        Spans.count spans "incr.summary_reuse"
          (float_of_int rep.Incr.r_summary_reused /. float_of_int (max 1 rep.Incr.r_procs));
        let ranges = sp "ranges" (fun () -> Driver.analyze_ranges d) in
        let lint = sp "lint" (fun () -> lint_json ranges d) in
        (d, lint))
  in
  let prepare spans i =
    let s = Option.get !session in
    let e = Srctext.edit ~seed s.base.text s.targets i in
    let sess = ("session", Json.Int s.sid) in
    let update = frame 1 "update" [ sess; ("source", Json.Str e.Srctext.e_text) ] in
    let analyze = frame 2 "analyze" [ sess ] in
    let ranges = frame 3 "ranges" [ sess ] in
    let lint = frame 4 "lint" [ sess; ("ranges", Json.Bool true) ] in
    let query k =
      frame (5 + k) "query" [ sess; ("proc", Json.Str e.Srctext.e_target); ("what", Json.Str query_whats.(k)) ]
    in
    let reads =
      List.init reads_per_save (fun k ->
          match read_cycle.(k mod Array.length read_cycle) with
          | Analyze -> analyze
          | Ranges -> ranges
          | Lint -> lint
          | Query ->
              (* the queries are reads 1, 3, 6, 8, ... of a save *)
              let n = (2 * (k / 5)) + if k mod 5 = 1 then 0 else 1 in
              query (n mod Array.length query_whats))
    in
    if spans <> None && not !replica_ready then replica_open s;
    let hits0, misses0 = cache_counts s.server in
    fun () ->
      let h name frame = Wl.span spans name (fun () -> Server.handle_line s.server frame) in
      let r_update = h "serve.update" update in
      let rep = Option.map (fun sp -> replica sp s e.Srctext.e_text) spans in
      (* (request, answer, the first answer to the same request when
         this one repeats it) *)
      let first = Hashtbl.create 8 in
      let answers =
        List.map
          (fun f ->
            match Hashtbl.find_opt first f with
            | Some a0 -> (f, h "serve.hit" f, Some a0)
            | None ->
                let a = h (if String.equal f lint then "serve.lint" else "serve.query") f in
                Hashtbl.add first f a;
                (f, a, None))
          reads
      in
      let r_analyze = Hashtbl.find first analyze and r_lint = Hashtbl.find first lint in
      fun () ->
        let fs = Wl.failures () in
        let prev = !prev_text in
        prev_text := e.Srctext.e_text;
        let hits, misses = cache_counts s.server in
        Wl.count spans "serve.hit_ratio"
          (float_of_int (hits - hits0) /. float_of_int (max 1 (hits - hits0 + misses - misses0)));
        (match result_of r_update with
        | Error m -> Wl.fail fs "update: %s" m
        | Ok u ->
            let reported =
              Option.bind (Json.member "dirty" u) (fun d -> Option.bind (Json.member "dirty_procs" d) Json.to_list)
              |> Option.value ~default:[]
              |> List.filter_map Json.to_str |> List.sort compare
            in
            let expected =
              Srctext.caller_closure e.Srctext.e_text (Srctext.changed prev e.Srctext.e_text)
            in
            if reported <> expected then
              Wl.fail fs "update of %s (%s): dirty set has %d procedures, the callers' closure %d"
                e.Srctext.e_target (Srctext.kind_name e.Srctext.e_kind) (List.length reported)
                (List.length expected));
        List.iter
          (fun (f, a, first) ->
            match first with
            | None -> ( match result_of a with Error m -> Wl.fail fs "read: %s" m | Ok _ -> ())
            | Some a0 -> if not (String.equal a a0) then Wl.fail fs "a cached answer differs from the first to %s" f)
          answers;
        let analyzed = result_of r_analyze and linted = result_of r_lint in
        (match (analyzed, linted, rep) with
        | Ok a, Ok l, Some (d, rl) ->
            if l <> rl then Wl.fail fs "the decomposed update lints differently";
            let rc =
              List.filter_map
                (fun p ->
                  match SM.bindings (Driver.constants d p) with
                  | [] -> None
                  | cs -> Some (p, Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs)))
                d.Driver.symtab.Symtab.order
            in
            if Json.member "constants" a <> Some (Json.Obj rc) then
              Wl.fail fs "the decomposed update proves other constants"
        | _ -> ());
        (match (analyzed, linted) with
        | Ok (Json.Obj members), Ok l ->
            saved :=
              { s_index = i; s_analyze = List.map (fun (k, v) -> (k, digest v)) members; s_lint = digest l }
              :: !saved
        | _ -> ());
        let consts =
          match Result.map (Json.member "total_constants") analyzed with
          | Ok (Some (Json.Int n)) -> float_of_int n
          | _ -> nan
        in
        { Wl.consts; failures = Wl.failure_list fs }
  in
  (* every save against a cache-less analysis of the same text *)
  let reanalysis_ms = ref [] in
  let finish () =
    let s = Option.get !session in
    let out =
      List.concat_map
        (fun sv ->
          let e = Srctext.edit ~seed s.base.text s.targets sv.s_index in
          Gc.compact ();
          let t0 = Meter.now_s () in
          let analyzed =
            Ipcp.analyze ~config:Wl.config (Ipcp.Source.of_string ~file:s.base.file e.Srctext.e_text)
          in
          reanalysis_ms := ((Meter.now_s () -. t0) *. 1e3) :: !reanalysis_ms;
          match analyzed with
          | Error m -> [ (sv.s_index, "cache-less analysis failed: " ^ m) ]
          | Ok r ->
              let a =
                List.filter_map
                  (fun (k, v) ->
                    if List.assoc_opt k sv.s_analyze = Some (digest v) then None
                    else Some (sv.s_index, "analyze answer differs from a cache-less analysis in " ^ k))
                  (analyze_json r)
              in
              let l =
                if digest (lint_json (Ipcp.Result.ranges r) (Ipcp.Result.driver r)) = sv.s_lint then []
                else [ (sv.s_index, "lint answer differs from a cache-less analysis") ]
              in
              a @ l)
        (List.rev !saved)
    in
    rm_rf cache_dir;
    rm_rf replica_dir;
    out
  in
  {
    Wl.name = "edit-1k";
    setup;
    reference = (fun () -> []);
    prepare;
    finish;
    replica = [ "replica.update" ];
    resident = true;
    (* one save in every stratum of targets *)
    peak_after = Srctext.strata;
    describe =
      (fun () ->
        [
          Printf.sprintf
            "%s: %d saves checked against a cache-less analysis (Ipcp.analyze of a saved text: median %.1f ms)"
            (Option.get !session).base.file (List.length !saved) (Stats.median !reanalysis_ms);
        ]);
  }
