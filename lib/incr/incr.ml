(** The incremental reanalysis engine: what a cached run may keep, and
    the cache it is kept in.

    Every per-procedure artifact of the pipeline — lowered CFG + SSA, the
    symbolic evaluation, forward and return jump functions, MOD/REF rows
    — depends only on that procedure's resolved AST and on its
    {e transitive callees}, never on its callers; its stage-4
    substitution depends on those and on its entry CONSTANTS.  So after
    an edit, the set that must be rebuilt is the edited procedures plus
    everything that can reach them in the call graph (their caller
    closure), and the substitutions whose entry values moved; everything
    else can be kept.

    The cache of one key (see {!Store}) is a {e manifest} — the
    declaration order, every procedure's content fingerprint, the VAL
    fixpoint and the run's statistics — plus two immutable objects per
    procedure, stored flat beside it:
    - its {e summary} ({!Driver.summary} without the jump functions),
      named by the digest of its bytes, so a rebuilt summary equal to
      the stored one is not written again;
    - its {e substitution} ({!Substitute.proc_sub}), named by a digest of
      the configuration, the COMMON table, the deep fingerprint, the
      first call-site id and the entry CONSTANTS.
    A commit writes only the objects not already on disk, then the
    manifest, then deletes the key's objects the new manifest no longer
    names; so the bytes a save writes follow its dirty set.

    The last manifest of each (directory, key) is also kept in process
    with its decoded objects and the lowered CFG + SSA of every
    procedure, trusted while the checksum of the manifest on disk still
    matches.  IR stays in process only: it embeds source locations,
    which most edits move for many procedures.  A procedure whose
    {e content} fingerprint (see {!Fingerprint}) matches offers its
    summary; only if its AST is also structurally equal to the one the
    IR was lowered from (source locations included) and its first
    call-site id is unchanged does the in-process copy offer its IR.

    The converged VAL fixpoint is a whole-program artifact, kept only
    when the program-wide content key matches exactly; on any mismatch
    the solver re-runs from ⊤ over the surviving jump functions, because
    re-seeding VAL sets from a stale fixpoint could pin a parameter at a
    constant the edited program no longer justifies.  Behind
    [Config.verify_ir], the driver checks a kept fixpoint against a
    fresh solve, and kept IR or substitutions that no verifying run has
    checked are checked — the warm-equals-cold guarantee. *)

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

type run_stats = {
  rs_counters : (string * int) list;
      (** deterministic analysis counters of the run that produced the
          cached fixpoint (timing/GC/incr keys excluded) *)
  rs_convergence : Ipcp_obs.Metrics.conv_row list;
}

(** One procedure of a manifest.  Digests are raw, and VAL(p) is its
    values in key order (the keys are the procedure's
    {!Solver.params_of}): the manifest is rewritten by every save, and
    nearly all a one-procedure save writes. *)
type row = {
  pr_name : string;
  pr_content : Digest.t;  (** {!Fingerprint.content} *)
  pr_summary : Digest.t;  (** of the summary object's bytes: its name *)
  pr_subst : Digest.t;  (** names the substitution object *)
  pr_vals : Clattice.t list option;  (** VAL(p), when the solver has one *)
}

(** Everything persisted per (source key, configuration) besides the
    objects. *)
type manifest = {
  m_config_key : string;
  m_globals_hash : string;
  m_program_hash : string;  (** content-level whole-program key *)
  m_rows : row list;  (** declaration order, with the VAL fixpoint *)
  m_pack : string option;
      (** the pack of the cold populate that wrote the first objects;
          an object not found as a file of its own is looked up there *)
  m_solver_stats : Solver.stats;
  m_run : run_stats;
}

(** A procedure's lowered forms, in process only, with the AST and
    first call-site id they were lowered from. *)
type ir = {
  ir_ast : Ast.proc;
  ir_offset : int;
  ir_cfg : Cfg.t;
  ir_conv : Ssa.conv;
  ir_checked : bool;  (** a run with [verify_ir] checked them *)
}

(** The in-process copy of one (directory, key): the manifest whose
    checksum is [mm_sum], its objects decoded, and the IR. *)
type memo = {
  mm_sum : string;
  mm_manifest : manifest;
  mm_summaries : Driver.summary SM.t;  (** by procedure, jump functions included *)
  mm_subs : Substitute.proc_sub SM.t;  (** by object name *)
  mm_ir : ir SM.t;  (** by procedure *)
}

let memos : (string * string, memo) Hashtbl.t = Hashtbl.create 8

let memos_lock = Mutex.create ()

let with_memos f =
  Mutex.lock memos_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memos_lock) f

let forget ~dir ~key = with_memos (fun () -> Hashtbl.remove memos (dir, key))

(* where the previous generation's artifacts come from *)
type previous = Memo of memo | Disk of string * manifest  (** checksum *)

let manifest_of = function Memo m -> m.mm_manifest | Disk (_, m) -> m

(* ------------------------------------------------------------------ *)
(* Public result types *)

type policy = Disabled | Dir of string

type report = {
  r_enabled : bool;  (** was a cache directory in play at all *)
  r_cold : string option;
      (** [Some reason] when no usable manifest was found; [None] on a
          warm run (even a fully-dirty one) *)
  r_procs : int;
  r_changed : int;  (** content hashes that differ from the manifest *)
  r_dirty : int;  (** changed plus their transitive callers *)
  r_ir_reused : int;  (** procedures whose CFG+SSA were kept *)
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
  o_substitution : Substitute.result option;
  o_commit : (run_stats -> Substitute.result -> bool) option;
  o_keys : (string * (string * string) list) option;
}

(* ------------------------------------------------------------------ *)
(* Obs helpers *)

let count k n = if Obs.on () then Metrics.add k n

let count1 k = count k 1

let warn fmt = Fmt.epr ("ipcp: warning: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Manifest and object I/O *)

(* The manifest on disk, served from the in-process copy when its
   checksum still matches. *)
let load_previous ~dir ~key : (previous, string) result =
  match Store.read (Store.entry_path ~dir ~key) with
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
  | Ok env -> (
      count "incr.load.bytes" (String.length env.Store.payload);
      match with_memos (fun () -> Hashtbl.find_opt memos (dir, key)) with
      | Some m when String.equal m.mm_sum env.Store.sum ->
          count1 "incr.memo.hit";
          Ok (Memo m)
      | _ -> (
          (* the payload passed its checksum, so unmarshalling is safe;
             the guard is belt-and-braces against a manifest written by
             a different build of the same OCaml version *)
          match
            Trace.span "incr:unmarshal" (fun () ->
                (Marshal.from_string env.Store.payload 0 : manifest))
          with
          | m -> Ok (Disk (env.Store.sum, m))
          | exception _ ->
              count1 "incr.cold.corrupt";
              warn "cache entry for %s does not unmarshal; ignoring it" key;
              Error "unmarshal failure"))

(* What one run reads objects from: their files, then the manifest's
   pack (read once); and what it found. *)
type disk = {
  o_dir : string;
  o_key : string;
  o_pack : string option;
  mutable o_packed : ((string, string) Hashtbl.t, Store.load_error) result option;
  mutable o_found : SS.t;  (** read intact *)
  mutable o_damaged : SS.t;  (** to write anew *)
}

(* One object from disk; a missing or damaged one is counted and reads
   as absent, so its procedure is recomputed. *)
let load_object (type a) (o : disk) name : a option =
  let corrupt () =
    count1 "incr.object.corrupt";
    o.o_damaged <- SS.add name o.o_damaged;
    None
  in
  let decode payload =
    count "incr.load.bytes" (String.length payload);
    match (Marshal.from_string payload 0 : a) with
    | v ->
        o.o_found <- SS.add name o.o_found;
        Some v
    | exception _ -> corrupt ()
  in
  let missing () =
    count1 "incr.object.missing";
    None
  in
  let packed () =
    match o.o_pack with
    | None -> Error Store.Missing
    | Some pack -> (
        match o.o_packed with
        | Some p -> p
        | None ->
            let p = Store.read_pack ~dir:o.o_dir ~key:o.o_key pack in
            o.o_packed <- Some p;
            p)
  in
  match Store.read (Store.object_path ~dir:o.o_dir ~key:o.o_key name) with
  | Ok env -> decode env.Store.payload
  | Error Store.Missing -> (
      match packed () with
      | Ok tbl -> (
          match Hashtbl.find_opt tbl name with
          | Some payload -> decode payload
          | None -> missing ())
      | Error Store.Missing -> missing ()
      | Error (Store.Stale _ | Store.Corrupt _) -> corrupt ())
  | Error (Store.Stale _ | Store.Corrupt _) -> corrupt ()

let summary_object r = "s" ^ Digest.to_hex r.pr_summary

let subst_object r = "u" ^ Digest.to_hex r.pr_subst

let object_names (m : manifest) =
  List.concat_map (fun r -> [ summary_object r; subst_object r ]) m.m_rows

let entries dir =
  Store.entries
    ~objects_of:(fun payload ->
      match (Marshal.from_string payload 0 : manifest) with
      | m -> Some (object_names m, m.m_pack)
      | exception _ -> None)
    dir

(* ------------------------------------------------------------------ *)
(* The engine *)

(** A procedure of the program at hand, as the cache rows and the
    in-process IR are matched against it. *)
type proc_id = {
  pi_name : string;
  pi_ast : Ast.proc;
  pi_offset : int;  (** first call-site id under the program-wide numbering *)
  pi_content : string;  (** {!Fingerprint.content} *)
}

(* every procedure, in declaration order *)
let proc_ids (symtab : Symtab.t) : proc_id list =
  let asts =
    List.map (fun name -> (Symtab.proc symtab name).Symtab.proc)
      symtab.Symtab.order
  in
  List.map2
    (fun (ast : Ast.proc) off ->
      {
        pi_name = ast.Ast.name;
        pi_ast = ast;
        pi_offset = off;
        pi_content = Fingerprint.content ast;
      })
    asts (Lower.site_offsets asts)

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

(* The VAL fixpoint of [m], for the program [m] describes. *)
let fixpoint_of (m : manifest) (symtab : Symtab.t) : Solver.t option =
  let exception Mismatch in
  let proc_vals r values =
    let keys =
      List.sort_uniq String.compare
        (Solver.params_of symtab (Symtab.proc symtab r.pr_name))
    in
    if List.compare_lengths keys values <> 0 then raise Mismatch;
    List.fold_left2 (fun acc k v -> SM.add k v acc) SM.empty keys values
  in
  match
    List.fold_left
      (fun acc r ->
        match r.pr_vals with
        | Some values -> SM.add r.pr_name (proc_vals r values) acc
        | None -> acc)
      SM.empty m.m_rows
  with
  | vals -> Some { Solver.vals; stats = m.m_solver_stats; prov = None }
  | exception (Mismatch | Not_found) -> None

(** What the previous generation still justifies keeping for the
    procedures [ids]: the summaries of content hits (the driver drops
    those in the caller closure of the misses), the in-process IR of
    procedures whose AST and first call-site id are unchanged, and the
    fixpoint when the program key matches. *)
let reuse_of ~disk prev ~symtab ~ids ~program_hash : Driver.reuse =
  let m = manifest_of prev in
  let rows = List.fold_left (fun acc r -> SM.add r.pr_name r acc) SM.empty m.m_rows in
  let keep_fixpoint =
    if m.m_program_hash = program_hash then fixpoint_of m symtab else None
  in
  List.fold_left
    (fun (r : Driver.reuse) id ->
      let name = id.pi_name in
      match SM.find_opt name rows with
      | Some row when String.equal row.pr_content id.pi_content -> (
          let summary, ir =
            match prev with
            | Memo mm -> (SM.find_opt name mm.mm_summaries, SM.find_opt name mm.mm_ir)
            | Disk _ -> (load_object disk (summary_object row), None)
          in
          let r =
            match ir with
            | Some ir
              when ir.ir_offset = id.pi_offset && ir.ir_ast = id.pi_ast ->
                {
                  r with
                  Driver.keep_ir = SM.add name (ir.ir_cfg, ir.ir_conv) r.Driver.keep_ir;
                  unchecked_ir =
                    (if ir.ir_checked then r.Driver.unchecked_ir
                     else SS.add name r.Driver.unchecked_ir);
                }
            | _ -> r
          in
          match summary with
          | Some su -> { r with keep_summaries = SM.add name su r.keep_summaries }
          | None -> r)
      | _ -> r)
    { Driver.no_reuse with keep_fixpoint }
    ids

(* The name of a procedure's substitution object: everything its stage-4
   result depends on. *)
let subst_key ~config_key ~globals_hash ~deep ~offset constants =
  Digest.string
    (String.concat "|"
       [
         config_key;
         globals_hash;
         deep;
         string_of_int offset;
         String.concat ","
           (List.map
              (fun (x, c) -> x ^ "=" ^ string_of_int c)
              (SM.bindings constants));
       ])

let cached_analyze ~config ~dir ~key (symtab : Symtab.t) : outcome =
  let ids = Trace.span "incr:fingerprint" (fun () -> proc_ids symtab) in
  let contents = List.map (fun id -> (id.pi_name, id.pi_content)) ids in
  let config_key = Fingerprint.config config in
  let globals_hash = Fingerprint.globals symtab in
  let program_hash = Fingerprint.program ~config_key ~globals_hash contents in
  let prev, cold_reason =
    match Trace.span "incr:load" (fun () -> load_previous ~dir ~key) with
    | Error reason -> (None, Some reason)
    | Ok p when (manifest_of p).m_config_key <> config_key ->
        count1 "incr.cold.config";
        (None, Some "configuration changed")
    | Ok p when (manifest_of p).m_globals_hash <> globals_hash ->
        count1 "incr.cold.globals";
        (None, Some "global (COMMON) table changed")
    | Ok p -> (Some p, None)
  in
  if prev = None then count1 "incr.cold";
  let disk =
    {
      o_dir = dir;
      o_key = key;
      o_pack = Option.bind prev (fun p -> (manifest_of p).m_pack);
      o_packed = None;
      o_found = SS.empty;
      o_damaged = SS.empty;
    }
  in
  let reuse =
    match prev with
    | Some p ->
        Trace.span "incr:objects" (fun () ->
            reuse_of ~disk p ~symtab ~ids ~program_hash)
    | None -> Driver.no_reuse
  in
  let driver = Driver.analyze ~config ~reuse symtab in
  let kept = Driver.kept_summaries reuse driver.Driver.cg in
  let n_procs = List.length ids in
  let fixpoint_hit = Option.is_some reuse.Driver.keep_fixpoint in
  (* every summary with this run's jump functions, for the in-process
     copy; the rebuilt ones also marshalled without them, as the objects
     on disk hold them and are named by the digest of their bytes (a
     kept summary keeps its name) *)
  let summaries =
    SM.mapi
      (fun p jfs ->
        match SM.find_opt p kept with
        | Some su -> { su with Driver.su_jfs = jfs }
        | None -> Driver.summary driver p)
      driver.Driver.jfs
  in
  let rebuilt_bytes =
    SM.filter_map
      (fun p su ->
        if SM.mem p kept then None
        else Some (Marshal.to_string { su with Driver.su_jfs = [] } []))
      summaries
  in
  let summary_name =
    let before =
      match prev with
      | Some p ->
          List.fold_left
            (fun m r -> SM.add r.pr_name r.pr_summary m)
            SM.empty (manifest_of p).m_rows
      | None -> SM.empty
    in
    fun p ->
      match SM.find_opt p rebuilt_bytes with
      | Some bytes -> Digest.string bytes
      | None -> SM.find p before
  in
  (* stage 4 and the rewrite, of the procedures without a substitution
     object under their current name *)
  let deep =
    Fingerprint.deep ~config_key ~globals_hash contents driver.Driver.cg
  in
  let rows =
    List.map
      (fun id ->
        let name = id.pi_name in
        {
          pr_name = name;
          pr_content = id.pi_content;
          pr_summary = summary_name name;
          pr_subst =
            subst_key ~config_key ~globals_hash ~deep:(SM.find name deep)
              ~offset:id.pi_offset
              (Driver.constants driver name);
          pr_vals =
            Option.map
              (fun m -> List.map snd (SM.bindings m))
              (SM.find_opt name driver.Driver.solver.Solver.vals);
        })
      ids
  in
  let named_before =
    match prev with
    | Some (Disk (_, m)) -> SS.of_list (List.map subst_object m.m_rows)
    | _ -> SS.empty
  in
  let reused_subs = ref SM.empty in
  let lookup_subst name =
    let found =
      match prev with
      | Some (Memo mm) -> SM.find_opt name mm.mm_subs
      | Some (Disk _) when SS.mem name named_before -> load_object disk name
      | _ -> None
    in
    Option.iter (fun o -> reused_subs := SM.add name o !reused_subs) found;
    found
  in
  let subst_of =
    List.fold_left (fun m r -> SM.add r.pr_name (subst_object r) m) SM.empty rows
  in
  let substitution, objects =
    Substitute.apply_reusing
      ~reuse:(fun p -> lookup_subst (SM.find p subst_of))
      driver
  in
  let n_subst_reused = SM.cardinal !reused_subs in
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
      r_substitution_reused = n_subst_reused = n_procs;
    }
  in
  count "incr.procs" n_procs;
  count "incr.changed" report.r_changed;
  count "incr.dirty" report.r_dirty;
  count "incr.ir.reused" report.r_ir_reused;
  count "incr.ir.rebuilt" (n_procs - report.r_ir_reused);
  count "incr.summary.reused" report.r_summary_reused;
  count "incr.summary.rebuilt" report.r_dirty;
  count "incr.subst.reused" n_subst_reused;
  count "incr.subst.rebuilt" (n_procs - n_subst_reused);
  count1
    (if fixpoint_hit then "incr.fixpoint.hit" else "incr.fixpoint.miss");
  if Obs.on () then
    List.iter
      (fun { pi_name = name; _ } ->
        let tier t hit =
          count1
            (Fmt.str "incr.proc.%s.%s/%s" t
               (if hit then "hit" else "miss")
               name)
        in
        tier "ir" (SM.mem name reuse.Driver.keep_ir);
        tier "summary" (SM.mem name kept))
      ids;
  (* the in-process copy this run leaves: the summaries, every
     substitution object, and the IR *)
  let verified = config.Config.verify_ir in
  let subs =
    List.fold_left
      (fun m r -> SM.add (subst_object r) (SM.find r.pr_name objects) m)
      SM.empty rows
  in
  let irs =
    List.fold_left
      (fun m { pi_name = name; pi_ast; pi_offset; _ } ->
        SM.add name
          {
            ir_ast = pi_ast;
            ir_offset = pi_offset;
            ir_cfg = SM.find name driver.Driver.cfgs;
            ir_conv = SM.find name driver.Driver.convs;
            ir_checked =
              verified
              || (SM.mem name reuse.Driver.keep_ir
                 && not (SS.mem name reuse.Driver.unchecked_ir));
          }
          m)
      SM.empty ids
  in
  let remember ~sum manifest =
    with_memos (fun () ->
        Hashtbl.replace memos (dir, key)
          {
            mm_sum = sum;
            mm_manifest = manifest;
            mm_summaries = summaries;
            mm_subs = subs;
            mm_ir = irs;
          })
  in
  (* objects whose bytes on disk are out of date: damaged ones, and a
     reused substitution this run checked for the first time *)
  let rewrite =
    SM.fold
      (fun name (o : Substitute.proc_sub) acc ->
        if (not o.Substitute.ps_checked) && (SM.find name subs).Substitute.ps_checked
        then SS.add name acc
        else acc)
      !reused_subs disk.o_damaged
  in
  let manifest ~pack run =
    {
      m_config_key = config_key;
      m_globals_hash = globals_hash;
      m_program_hash = program_hash;
      m_rows = rows;
      m_pack = pack;
      m_solver_stats = driver.Driver.solver.Solver.stats;
      m_run = run;
    }
  in
  (* Write the objects not on disk yet — as files of their own, or as one
     pack on a cold run — then the manifest, then delete the key's
     objects the manifest no longer names. *)
  let commit run _substitution =
    Trace.span "incr:persist" @@ fun () ->
    let on_disk = SS.of_list (Store.objects ~dir ~key) in
    let found =
      match prev with
      | Some (Memo mm) -> SS.of_list (object_names mm.mm_manifest)
      | Some (Disk _) | None -> disk.o_found
    in
    let to_write =
      List.concat_map
        (fun r ->
          let summary =
            lazy
              (match SM.find_opt r.pr_name rebuilt_bytes with
              | Some bytes -> bytes
              | None ->
                  Marshal.to_string
                    { (SM.find r.pr_name summaries) with Driver.su_jfs = [] }
                    [])
          in
          let subst = subst_object r in
          [
            (r.pr_name, summary_object r, summary);
            (r.pr_name, subst, lazy (Marshal.to_string (SM.find subst subs) []));
          ])
        rows
      |> List.filter (fun (_, name, _) ->
             SS.mem name rewrite
             || not (SS.mem name on_disk || SS.mem name found))
      |> List.map (fun (proc, name, payload) ->
             let payload = Lazy.force payload in
             count1 "incr.object.written";
             count "incr.store.bytes" (String.length payload);
             if Obs.on () then
               count ("incr.proc.bytes/" ^ proc) (String.length payload);
             (name, payload))
    in
    let written =
      match prev with
      | None when to_write <> [] ->
          Result.map Option.some (Store.write_pack ~dir ~key to_write)
      | _ ->
          List.fold_left
            (fun acc (name, payload) ->
              Result.bind acc (fun _ ->
                  Store.write (Store.object_path ~dir ~key name) payload))
            (Ok "") to_write
          |> Result.map (fun _ ->
                 (* a damaged pack is dropped: what it held is written
                    anew above *)
                 match disk.o_packed with
                 | Some (Error _) -> None
                 | _ -> disk.o_pack)
    in
    let saved =
      Result.bind written (fun pack ->
          let m = manifest ~pack run in
          let payload = Marshal.to_string m [] in
          count "incr.store.bytes" (String.length payload);
          Result.map (fun sum -> (sum, m)) (Store.write (Store.entry_path ~dir ~key) payload))
    in
    match saved with
    | Ok (sum, m) ->
        count1 "incr.store.saved";
        let named = SS.of_list (Option.to_list m.m_pack @ object_names m) in
        SS.iter
          (fun name ->
            if not (SS.mem name named) then begin
              count1 "incr.object.pruned";
              Store.remove_object ~dir ~key name
            end)
          on_disk;
        remember ~sum m;
        true
    | Error e ->
        warn "could not write cache entry for %s: %s" key e;
        false
  in
  (* nothing to write when the manifest would be the one on disk and
     every object it names was found *)
  let unchanged =
    match prev with
    | Some p ->
        let m = manifest_of p in
        fixpoint_hit
        && SM.cardinal kept = n_procs
        && n_subst_reused = n_procs
        && SS.is_empty rewrite
        && m.m_rows = rows
    | None -> false
  in
  let replay =
    match prev with
    | Some p when fixpoint_hit -> Some (manifest_of p).m_run
    | _ -> None
  in
  (match prev with
  | Some (Memo { mm_sum = sum; mm_manifest = m; _ } | Disk (sum, m)) when unchanged
    ->
      remember ~sum m
  | _ -> ());
  {
    o_driver = driver;
    o_report = report;
    o_replay = replay;
    o_substitution = Some substitution;
    o_commit = (if unchanged then None else Some commit);
    o_keys = Some (Digest.to_hex program_hash, contents);
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
        o_keys = None;
      }
  | Dir dir -> cached_analyze ~config ~dir ~key symtab
