(** The serve dispatcher — see server.mli for the contract. *)

module Ipcp = Ipcp_api.Ipcp
module S = Ipcp.Session
module Json = Ipcp_obs.Json
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Lint = Ipcp_analysis.Lint
module Ranges = Ipcp_core.Ranges
module Loc = Ipcp_frontend.Loc
module Severity = Ipcp_frontend.Diag.Severity
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Sharded response cache.

   Keyed by [<program fingerprint>:<method>:<canonical params>], so an
   entry is valid for as long as any session's program has that content,
   and two sessions holding the same program share entries.  An [update]
   that changes a session's fingerprint, and an [invalidate], evict the
   previous fingerprint's entries (another session's included), so an
   edit that reverts to an earlier program recomputes its answers.
   Values are the serialized [result] payloads (the response id is
   spliced on around them).  Shards bound contention from concurrent
   batch groups; the per-shard capacity bounds resident memory (a full
   shard is cleared wholesale — coarse, but eviction precision is
   worthless for a cache this cheap to refill). *)
module Rcache = struct
  let shard_count = 16
  let shard_cap = 128

  type t = {
    tables : (string, string) Hashtbl.t array;
    locks : Mutex.t array;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    {
      tables = Array.init shard_count (fun _ -> Hashtbl.create 64);
      locks = Array.init shard_count (fun _ -> Mutex.create ());
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  let shard key = Hashtbl.hash key mod shard_count

  let locked t i f =
    Mutex.lock t.locks.(i);
    Fun.protect ~finally:(fun () -> Mutex.unlock t.locks.(i)) f

  let find t key =
    let i = shard key in
    let r = locked t i (fun () -> Hashtbl.find_opt t.tables.(i) key) in
    (match r with
    | Some _ -> Atomic.incr t.hits
    | None -> Atomic.incr t.misses);
    r

  let add t key value =
    let i = shard key in
    locked t i (fun () ->
        if Hashtbl.length t.tables.(i) >= shard_cap then
          Hashtbl.reset t.tables.(i);
        Hashtbl.replace t.tables.(i) key value)

  let evict_prefix t prefix =
    Array.iteri
      (fun i table ->
        locked t i (fun () ->
            let stale =
              Hashtbl.fold
                (fun k _ acc ->
                  if String.starts_with ~prefix k then k :: acc else acc)
                table []
            in
            List.iter (Hashtbl.remove table) stale))
      t.tables

  let size t =
    Array.to_seq t.tables
    |> Seq.fold_left (fun acc table -> acc + Hashtbl.length table) 0
end

(* ------------------------------------------------------------------ *)

type session_entry = { se_id : int; se_session : S.t }

type t = {
  sv_config : Ipcp.Config.t;
  sv_cache : Ipcp.Cache.policy;
  sv_sessions : (int, session_entry) Hashtbl.t;
  mutable sv_next : int;
  sv_rcache : Rcache.t;
  sv_counts : (string, int ref) Hashtbl.t;  (** per-method, admission order *)
  mutable sv_batches : int;
  sv_coalesced : int Atomic.t;
  mutable sv_stop : bool;
}

let create ?(config = Ipcp.Config.default) ?(cache = Ipcp.Cache.Disabled) ()
    =
  {
    sv_config = config;
    sv_cache = cache;
    sv_sessions = Hashtbl.create 16;
    sv_next = 1;
    sv_rcache = Rcache.create ();
    sv_counts = Hashtbl.create 16;
    sv_batches = 0;
    sv_coalesced = Atomic.make 0;
    sv_stop = false;
  }

let stopped t = t.sv_stop

let session_count t =
  Hashtbl.fold
    (fun _ se acc -> if S.closed se.se_session then acc else acc + 1)
    t.sv_sessions 0

let count t meth =
  match Hashtbl.find_opt t.sv_counts meth with
  | Some r -> incr r
  | None -> Hashtbl.replace t.sv_counts meth (ref 1)

(* per-method wire latency; merged across pool lanes like every other
   histogram, so `ipcp profile`-style reports see the full load *)
let timed meth f =
  if not (Obs.on ()) then f ()
  else begin
    let t0 = Obs.now_ns () in
    let r = f () in
    Metrics.observe_ns ("serve." ^ meth) (Int64.sub (Obs.now_ns ()) t0);
    r
  end

(* ------------------------------------------------------------------ *)
(* Payload builders.  Cacheable payloads are pure functions of the
   program content: no generations, no timings, no schedule-dependent
   solver statistics — that is what lets the fingerprint key them and
   what makes the wire behaviour identical for every [jobs] setting. *)

let str_list ss = Json.Arr (List.map (fun s -> Json.Str s) ss)

let dirty_json (d : S.dirty) =
  Json.Obj
    [
      ("generation", Json.Int d.S.d_generation);
      ("procs", Json.Int d.S.d_procs);
      ("changed", Json.Int d.S.d_changed);
      ("dirty", Json.Int d.S.d_dirty);
      ("dirty_procs", str_list d.S.d_dirty_procs);
    ]

let analyze_payload s =
  let r = S.result s in
  let procs = Ipcp.Result.procedures r in
  let census = Ipcp.Result.census r in
  Json.Obj
    [
      ("procedures", str_list procs);
      ( "constants",
        Json.Obj
          (List.filter_map
             (fun p ->
               match Ipcp.Result.constants r p with
               | [] -> None
               | cs ->
                   Some
                     ( p,
                       Json.Obj
                         (List.map (fun (n, v) -> (n, Json.Int v)) cs) ))
             procs) );
      ("total_constants", Json.Int (Ipcp.Result.total_constants r));
      ( "substituted",
        Json.Int (Ipcp.Result.substitution r).Ipcp.Result.total );
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

let lint_payload s ~use_ranges =
  let r = S.result s in
  if use_ranges then
    let fs, vt = Ipcp.Result.lints_with_verdicts ~ranges:(S.ranges s) r in
    Lint.json ~verdicts:vt fs
  else Lint.json (Ipcp.Result.lints r)

let finding_json (f : Lint.finding) =
  Json.Obj
    ([
       ("check", Json.Str (Lint.id f.Lint.f_check));
       ("severity", Json.Str (Severity.name (Lint.finding_severity f)));
       ("loc", Json.Str (Loc.to_string f.Lint.f_loc));
       ("message", Json.Str f.Lint.f_msg);
     ]
    @
    match f.Lint.f_verdict with
    | None -> []
    | Some v -> [ ("verdict", Json.Str (Lint.verdict_name v)) ])

let query_payload s ~proc ~what =
  if not (List.mem proc (S.procedures s)) then
    Error (P.unknown_proc, "unknown procedure " ^ proc)
  else
    match what with
    | "constants" ->
        let cs = Ipcp.Result.constants (S.result s) proc in
        Ok
          (Json.Obj
             [
               ("proc", Json.Str proc);
               ( "constants",
                 Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs) );
             ])
    | "ranges" ->
        let rs =
          Ipcp_frontend.Names.SM.bindings
            (Ranges.entry_ranges (S.ranges s) proc)
        in
        Ok
          (Json.Obj
             [
               ("proc", Json.Str proc);
               ( "ranges",
                 Json.Obj
                   (List.map
                      (fun (n, v) -> (n, Json.Str (Ranges.I.to_string v)))
                      rs) );
             ])
    | "lints" ->
        let fs = Ipcp.Result.lints ~procs:[ proc ] (S.result s) in
        Ok
          (Json.Obj
             [
               ("proc", Json.Str proc);
               ("findings", Json.Arr (List.map finding_json fs));
             ])
    | other ->
        Error
          ( P.invalid_params,
            "unknown query target " ^ other
            ^ " (expected constants, ranges or lints)" )

(* The registry listing: every name-addressable analysis, flow- and
   context-sensitive, with its one-line description — what a client
   enumerates before issuing [domain]/[contexts] requests. *)
let domain_list_payload () =
  let entry describe name =
    Json.Obj
      [
        ("name", Json.Str name);
        ("doc", Json.Str (Option.value ~default:"" (describe name)));
      ]
  in
  Json.Obj
    [
      ( "domains",
        Json.Arr
          (List.map (entry Ipcp.Domains.describe) (Ipcp.Domains.names ())) );
      ( "contexts",
        Json.Arr
          (List.map
             (entry Ipcp.Domains.describe_contexts)
             (Ipcp.Domains.context_names ())) );
    ]

let report_payload (rep : Ipcp.Domains.report) =
  match Json.parse rep.Ipcp.Domains.json with
  | Ok j -> j
  | Error _ -> Json.Str rep.Ipcp.Domains.text

let stats_payload t =
  let requests =
    Hashtbl.fold (fun k r acc -> (k, Json.Int !r) :: acc) t.sv_counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Json.Obj
    [
      ("api_version", Json.Int Ipcp.api_version);
      ("sessions", Json.Int (session_count t));
      ("batches", Json.Int t.sv_batches);
      ("requests", Json.Obj requests);
      ("coalesced", Json.Int (Atomic.get t.sv_coalesced));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int (Atomic.get t.sv_rcache.Rcache.hits));
            ("misses", Json.Int (Atomic.get t.sv_rcache.Rcache.misses));
            ("entries", Json.Int (Rcache.size t.sv_rcache));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Method execution *)

let session_methods =
  [
    "analyze";
    "ranges";
    "lint";
    "query";
    "domain";
    "contexts";
    "update";
    "invalidate";
    "close";
  ]

let readonly_methods =
  [ "analyze"; "ranges"; "lint"; "query"; "domain"; "contexts" ]

let exec_open t (rq : P.request) =
  match P.param_str rq "source" with
  | None -> P.err (Some rq.P.rq_id) P.invalid_params "missing \"source\""
  | Some source -> (
      let file = Option.value ~default:"<serve>" (P.param_str rq "file") in
      let cache =
        match P.param_str rq "cache_dir" with
        | Some d -> Ipcp.Cache.Dir d
        | None -> t.sv_cache
      in
      match
        S.open_ ~config:t.sv_config ~cache (Ipcp.Source.of_string ~file source)
      with
      | Error e -> P.err (Some rq.P.rq_id) P.analysis_error e
      | Ok s ->
          let id = t.sv_next in
          t.sv_next <- id + 1;
          Hashtbl.replace t.sv_sessions id { se_id = id; se_session = s };
          P.ok rq.P.rq_id
            (Json.Obj
               [
                 ("session", Json.Int id);
                 ("generation", Json.Int (S.generation s));
                 ("fingerprint", Json.Str (S.fingerprint s));
                 ("procedures", str_list (S.procedures s));
                 ("dirty", dirty_json (S.last_dirty s));
               ]))

(* One session-addressed request.  [memo] coalesces identical reads
   within the batch group (cleared by any mutation); the shared
   fingerprint-keyed cache then answers repeats across batches, clients
   and content-identical sessions. *)
let exec_session t (se : session_entry) memo (rq : P.request) =
  let id = rq.P.rq_id in
  let s = se.se_session in
  if S.closed s then
    P.err (Some id) P.session_closed
      (Fmt.str "session %d is closed" se.se_id)
  else
    match rq.P.rq_method with
    | "close" ->
        S.close s;
        P.ok id (Json.Obj [ ("closed", Json.Int se.se_id) ])
    | "update" -> (
        Hashtbl.reset memo;
        match P.param_str rq "source" with
        | None -> P.err (Some id) P.invalid_params "missing \"source\""
        | Some source -> (
            let file =
              Option.value ~default:(Ipcp.Source.file (S.source s))
                (P.param_str rq "file")
            in
            let previous = S.fingerprint s in
            match S.update s (Ipcp.Source.of_string ~file source) with
            | Error e -> P.err (Some id) P.analysis_error e
            | Ok d ->
                (* the superseded generation's answers would only pin
                   memory until their shard fills *)
                if S.fingerprint s <> previous then
                  Rcache.evict_prefix t.sv_rcache (previous ^ ":");
                P.ok id
                  (Json.Obj
                     [
                       ("fingerprint", Json.Str (S.fingerprint s));
                       ("dirty", dirty_json d);
                     ])))
    | "invalidate" ->
        Hashtbl.reset memo;
        let procs =
          match P.param rq "procs" with
          | Some (Json.Arr ps) -> List.filter_map Json.to_str ps
          | _ -> []
        in
        Rcache.evict_prefix t.sv_rcache (S.fingerprint s ^ ":");
        P.ok id (Json.Obj [ ("dirty", dirty_json (S.invalidate s procs)) ])
    | meth when List.mem meth readonly_methods -> (
        (* a request may pin the generation it was prepared against; a
           concurrent update/invalidate that won the race turns it into
           a stale read the client must retry *)
        match P.param_int rq "generation" with
        | Some g when g <> S.generation s ->
            P.err (Some id) P.stale_generation
              (Fmt.str "generation %d is stale (session is at %d)" g
                 (S.generation s))
        | _ -> (
            let mkey = meth ^ ":" ^ P.canonical_params rq.P.rq_params in
            match Hashtbl.find_opt memo mkey with
            | Some prior -> (
                Atomic.incr t.sv_coalesced;
                match prior with
                | Ok payload ->
                    Fmt.str "{\"id\":%d,\"result\":%s}" id payload
                | Error (code, msg) -> P.err (Some id) code msg)
            | None -> (
                let ckey = S.fingerprint s ^ ":" ^ mkey in
                match Rcache.find t.sv_rcache ckey with
                | Some payload ->
                    Hashtbl.replace memo mkey (Ok payload);
                    Fmt.str "{\"id\":%d,\"result\":%s}" id payload
                | None -> (
                    let computed =
                      match meth with
                      | "analyze" -> Ok (analyze_payload s)
                      | "ranges" -> Ok (Ranges.json (S.ranges s))
                      | "lint" ->
                          let use_ranges =
                            match P.param rq "ranges" with
                            | Some (Json.Bool b) -> b
                            | _ -> false
                          in
                          Ok (lint_payload s ~use_ranges)
                      | "query" -> (
                          match P.param_str rq "proc" with
                          | None ->
                              Error (P.invalid_params, "missing \"proc\"")
                          | Some proc ->
                              let what =
                                Option.value ~default:"constants"
                                  (P.param_str rq "what")
                              in
                              query_payload s ~proc ~what)
                      | "domain" -> (
                          (* no name = enumerate the registries *)
                          match P.param_str rq "name" with
                          | None -> Ok (domain_list_payload ())
                          | Some name -> (
                              match
                                Ipcp.Domains.run name (S.result s)
                              with
                              | Some rep -> Ok (report_payload rep)
                              | None ->
                                  Error
                                    ( P.unknown_domain,
                                      Fmt.str
                                        "unknown domain %s (known: %s)" name
                                        (String.concat ", "
                                           (Ipcp.Domains.names ())) )))
                      | "contexts" -> (
                          match P.param_str rq "domain" with
                          | None ->
                              Error (P.invalid_params, "missing \"domain\"")
                          | Some name -> (
                              match S.contexts s name with
                              | Some rep -> Ok (report_payload rep)
                              | None ->
                                  Error
                                    ( P.unknown_domain,
                                      Fmt.str
                                        "no context-sensitive instantiation \
                                         of %s (known: %s)"
                                        name
                                        (String.concat ", "
                                           (Ipcp.Domains.context_names ()))
                                    )))
                      | _ -> assert false
                    in
                    match computed with
                    | Ok json ->
                        let payload = Json.to_string json in
                        Rcache.add t.sv_rcache ckey payload;
                        Hashtbl.replace memo mkey (Ok payload);
                        Fmt.str "{\"id\":%d,\"result\":%s}" id payload
                    | Error (code, msg) ->
                        Hashtbl.replace memo mkey (Error (code, msg));
                        P.err (Some id) code msg))))
    | meth -> P.err (Some id) P.method_not_found ("unknown method " ^ meth)

let guarded meth f =
  timed meth (fun () ->
      try f ()
      with e -> P.err None P.internal_error (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Batch admission and dispatch *)

type slot = Done of string | Pending of P.request * session_entry

let handle_batch t lines =
  t.sv_batches <- t.sv_batches + 1;
  (* admission: parse, account, and answer everything that must not (or
     need not) wait for a session queue — in input order, on the
     coordinating domain *)
  let slots =
    Array.of_list
      (List.map
         (fun line ->
           match P.parse_frame line with
           | Error (id, code, msg) ->
               count t "(invalid)";
               Done (P.err id code msg)
           | Ok rq -> (
               count t rq.P.rq_method;
               if t.sv_stop && rq.P.rq_method <> "stats" then
                 Done
                   (P.err (Some rq.P.rq_id) P.shutting_down
                      "server is shutting down")
               else
                 match rq.P.rq_method with
                 | "open" ->
                     Done (guarded "open" (fun () -> exec_open t rq))
                 | "stats" ->
                     Done
                       (guarded "stats" (fun () ->
                            P.ok rq.P.rq_id (stats_payload t)))
                 | "shutdown" ->
                     t.sv_stop <- true;
                     Done
                       (P.ok rq.P.rq_id
                          (Json.Obj [ ("stopping", Json.Bool true) ]))
                 | meth when not (List.mem meth session_methods) ->
                     Done
                       (P.err (Some rq.P.rq_id) P.method_not_found
                          ("unknown method " ^ meth))
                 | _ -> (
                     match P.param_int rq "session" with
                     | None ->
                         Done
                           (P.err (Some rq.P.rq_id) P.invalid_params
                              "missing \"session\"")
                     | Some sid -> (
                         match Hashtbl.find_opt t.sv_sessions sid with
                         | None ->
                             Done
                               (P.err (Some rq.P.rq_id) P.session_not_found
                                  (Fmt.str "no session %d" sid))
                         | Some se -> Pending (rq, se)))))
         lines)
  in
  (* group the session-addressed requests per session, preserving
     request order within each group (sessions are single-owner mutable
     state); the groups are independent, so they run concurrently on
     the domain pool and the responses are reassembled by index *)
  let order = ref [] in
  let groups : (int, (int * P.request * session_entry) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Done _ -> ()
      | Pending (rq, se) -> (
          match Hashtbl.find_opt groups se.se_id with
          | Some cell -> cell := (i, rq, se) :: !cell
          | None ->
              Hashtbl.replace groups se.se_id (ref [ (i, rq, se) ]);
              order := se.se_id :: !order))
    slots;
  let grouped =
    List.rev_map
      (fun sid -> List.rev !(Hashtbl.find groups sid))
      !order
  in
  let exec_group items =
    let memo = Hashtbl.create 8 in
    List.map
      (fun (i, rq, se) ->
        ( i,
          guarded rq.P.rq_method (fun () -> exec_session t se memo rq) ))
      items
  in
  let executed =
    match grouped with
    | [] -> []
    | [ only ] -> [ exec_group only ]
    | many ->
        Ipcp_par.Pool.map_list ~jobs:t.sv_config.Ipcp.Config.jobs exec_group
          many
  in
  List.iter
    (List.iter (fun (i, resp) -> slots.(i) <- Done resp))
    executed;
  Array.to_list
    (Array.map
       (function Done r -> r | Pending _ -> assert false)
       slots)

let handle_line t line =
  match handle_batch t [ line ] with
  | [ r ] -> r
  | _ -> assert false
