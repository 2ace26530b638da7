(** Context-sensitive interprocedural propagation by value-context
    tabulation (Padhye–Khedker, "Interprocedural data flow analysis in
    Soot using value contexts"), over any {!Ipcp_domains.Domain.S}.

    Where the 1986 pipeline summarizes every call with jump functions and
    merges all edges into one VAL set per procedure, this engine tabulates
    {e contexts} — pairs of (procedure, entry abstract environment) — and
    runs the full intraprocedural abstract interpreter ({!Abseval}) once
    per context, so two call sites passing different values never pollute
    each other.

    {b The table.}  Contexts are keyed by value: the procedure and its
    entry values (every scalar formal and scalar global of
    {!Solver.params_of}, in the name order of the procedure's {!layout}),
    compared with [D.equal] and hashed from the values, or the
    procedure's fallback marker.  The canonical entry string
    ([name=value;...]), which digests, sort order and the warm cache
    read, is built once, when a context is created; it identifies the
    same contexts because [to_string] is injective up to [D.equal].
    Within one evaluation each call site keeps its last lookup, so the
    sweeps that pass it unchanged values resolve it once, and each
    procedure's {!Abseval.prep} is computed when its first context is
    created.  A call site whose callee context
    is not yet tabulated proceeds {e optimistically} with ⊤ for the
    callee's returned values and records the request; the context is
    created at the end of the round and the caller is re-evaluated when
    the callee's exit values settle — the worklist formulation of
    suspend/resume.  Exit values only descend (every update is a meet with
    the previous exit, widened past {!Solver.widen_after} lowerings for
    infinite-height domains), so the optimistic start is sound at the
    fixpoint.

    {b Boundedness.}  Each procedure keeps at most [ctx_limit] exact
    contexts.  Requests beyond the limit merge into the procedure's single
    {e fallback context}, whose entry environment descends by per-symbol
    meet — widened past {!Solver.widen_after} lowerings — so the table
    stays finite even for recursion that keeps manufacturing fresh entry
    values (the widening-at-context-creation policy for the interval
    domain, and the ⊥-collapse for descending constant chains).

    {b Determinism and staging.}  The worklist is staged along the call
    graph's SCC condensation: pending contexts are bucketed by their
    procedure's component index (callees before callers) and each step
    takes the lowest-indexed bucket as one batch.  A batch is Jacobi:
    every context in it is evaluated against the immutable current table
    (pure, parallel over {!Ipcp_par.Pool}), then a single sequential
    apply phase walks the results in ascending context-id order —
    updating exits, creating requested contexts, and re-queueing the
    dependents of every exit that moved.  The evaluation phase writes
    nothing outside its own evaluation.  Batch membership and order
    derive only from the graph and creation order, so parallel
    evaluation is byte-identical to sequential evaluation by
    construction.  The staging makes the fixpoint cheap: context
    creation descends one level per batch while settled callee exits
    reach re-queued callers in the immediately following batches,
    instead of one global round per propagation step.  Dependencies are
    tracked per {e context} (procedure + entry key), not per procedure,
    so a context is only re-evaluated when an exit it actually consulted
    moves.

    {b MOD/REF.}  Call-site frame transfer mirrors
    {!Abseval.returnjf_policy}: a target MOD says the callee cannot touch
    keeps its incoming value; an unpassed caller scalar is transparent
    exactly when MOD information exists; everything else takes the callee
    context's exit value for the corresponding return target. *)

open Ipcp_frontend.Names
module Ast = Ipcp_frontend.Ast
module Loc = Ipcp_frontend.Loc
module Symtab = Ipcp_frontend.Symtab
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref
module Solver = Ipcp_core.Solver
module Returnjf = Ipcp_core.Returnjf
module Provenance = Ipcp_core.Provenance
module Driver = Ipcp_core.Driver
module Valueflow = Ipcp_core.Valueflow
module Abseval = Ipcp_core.Abseval
module Json = Ipcp_obs.Json
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Trace = Ipcp_obs.Trace
module Pool = Ipcp_par.Pool
module Scc = Ipcp_callgraph.Scc
module RT = Returnjf.RT

(** Exact contexts tabulated per procedure before requests spill into its
    fallback context. *)
let default_ctx_limit = 64

let fallback_key = "*"

type summary = {
  s_contexts : int;  (** contexts kept after pruning *)
  s_created : int;  (** contexts ever created, including pruned ones *)
  s_fallbacks : int;  (** procedures whose requests overflowed [ctx_limit] *)
  s_procs : int;  (** procedures with at least one kept context *)
  s_rounds : int;  (** level-staged evaluation batches until fixpoint *)
  s_evals : int;  (** abstract-interpreter runs across all batches *)
  s_cache_seeds : int;  (** contexts created with a warm cached exit *)
}

module Make (D : Ipcp_domains.Domain.S) = struct
  module VF = Valueflow.Make (D)
  module S = VF.S
  module A = VF.A

  (** Where a callee's entry value for one tracked name comes from at a
      call site. *)
  type slot = Actual of int | Global of string

  (** A procedure's tracked entry names (every scalar formal and scalar
      global of {!Solver.params_of}) in name order — the order of the
      canonical key — with the call-site source of each. *)
  type layout = { l_names : string array; l_slots : slot array }

  (** A context's identity: its procedure and either its exact entry
      values, in layout order, or the fallback marker.  Two exact keys of
      one procedure are equal iff their values are pairwise [D.equal],
      which is iff their canonical strings are equal. *)
  type key =
    | Exact of { proc : string; vals : D.t array; hash : int }
    | Fallback of string

  module KT = Hashtbl.Make (struct
    type t = key

    let equal a b =
      match (a, b) with
      | Exact a, Exact b ->
          a.hash = b.hash && String.equal a.proc b.proc
          && Array.for_all2 D.equal a.vals b.vals
      | Fallback p, Fallback q -> String.equal p q
      | _ -> false

    let hash = function Exact k -> k.hash | Fallback p -> Hashtbl.hash p
  end)

  let exact_key proc vals =
    let hash =
      Array.fold_left
        (fun h v -> (h * 31) + Hashtbl.hash v)
        (Hashtbl.hash proc) vals
    in
    Exact { proc; vals; hash = hash land max_int }

  type ctx = {
    cx_id : int;  (** creation order; scheduling key, not part of output *)
    cx_proc : string;
    cx_fallback : bool;
    cx_ident : key;  (** the table key *)
    cx_key : string;  (** canonical entry string; {!fallback_key} *)
    mutable cx_entry : D.t SM.t;  (** descends only for fallback contexts *)
    mutable cx_exit : D.t RT.t option;  (** [None] until first evaluated *)
    mutable cx_eval : A.t option;  (** the last evaluation *)
    mutable cx_deps : unit KT.t;
        (** every callee context the last eval consulted (including
            transient mid-fixpoint lookups), driving the reverse index that
            re-queues this context when a consulted exit moves *)
    mutable cx_calls : ctx list;
        (** contexts the last apply resolved its call sites to — the edges
            context pruning walks *)
    mutable cx_exit_lowerings : int;
    mutable cx_entry_lowerings : int;
    mutable cx_seeded : bool;  (** exit adopted from the warm cache *)
  }

  (** Warm exits, keyed outside the engine (deep fingerprint + entry
      digest, see {!Ipcp_incr.Ctxcache}). *)
  type cache = {
    c_find : proc:string -> entry:string -> D.t RT.t option;
    c_store : proc:string -> entry:string -> D.t RT.t -> unit;
  }

  type t = {
    ctxs : ctx list;  (** kept contexts, sorted by (procedure, key) *)
    by_proc : ctx list SM.t;
    merged : D.t SM.t SM.t;
        (** procedure -> parameter -> meet over its kept contexts'
            entries: the context-insensitive projection, comparable to
            the solver's VAL sets *)
    facts : D.t Loc.Map.t;
        (** per located scalar use, the meet over all kept contexts —
            the context-sensitive counterpart of {!Valueflow.t.facts} *)
    summary : summary;
    prov : Provenance.t option;
  }

  (** The canonical entry string: [name=value] over the layout, joined
      by [;].  Counted in [ctx.<domain>.keys]: one per exact context
      created. *)
  let canonical_key (l : layout) (vals : D.t array) : string =
    if Obs.on () then Metrics.incr ("ctx." ^ D.name ^ ".keys");
    let b = Buffer.create 64 in
    Array.iteri
      (fun i n ->
        if i > 0 then Buffer.add_char b ';';
        Buffer.add_string b n;
        Buffer.add_char b '=';
        Buffer.add_string b (D.to_string vals.(i)))
      l.l_names;
    Buffer.contents b

  let env_of_vals (l : layout) (vals : D.t array) : D.t SM.t =
    let env = ref SM.empty in
    Array.iteri (fun i n -> env := SM.add n vals.(i) !env) l.l_names;
    !env

  let digest_of_key key =
    if String.equal key fallback_key then fallback_key
    else String.sub (Digest.to_hex (Digest.string key)) 0 8

  (** The callee's entry layout: scalar formals from the actuals (by
      declaration position), scalar globals from their values just before
      the call. *)
  let layout_of ~(symtab : Symtab.t) (psym : Symtab.proc_sym) : layout =
    let names =
      List.sort_uniq String.compare (Solver.params_of symtab psym)
    in
    let slot n =
      match Symtab.var psym n with
      | Some { Symtab.kind = Symtab.Formal i; _ } -> Actual i
      | _ -> Global n
    in
    {
      l_names = Array.of_list names;
      l_slots = Array.of_list (List.map slot names);
    }

  let slot_value (view : A.site_view) = function
    | Actual i -> view.A.actual i
    | Global g -> view.A.global_at g

  (** Per procedure, what the run derives once: the entry layout, the
      exit targets, and — from the creation of its first context on —
      its SSA form prepared for evaluation. *)
  type proc_info = {
    pi_psym : Symtab.proc_sym;
    pi_layout : layout;
    pi_targets : (Returnjf.rtarget * string) list;
        (** every return target (scalar formals, scalar globals, the
            function result) with the variable it reads *)
    mutable pi_ready : (Ssa.conv * Abseval.prep * int) option;
        (** SSA conversion, its preparation and its weight *)
    mutable pi_exact : int;  (** exact contexts created, for the limit *)
  }

  let proc_info ~symtab (psym : Symtab.proc_sym) : proc_info =
    let proc = psym.Symtab.proc in
    let layout = layout_of ~symtab psym in
    let target n = function
      | Actual i -> (Returnjf.RFormal i, n)
      | Global g -> (Returnjf.RGlobal g, g)
    in
    {
      pi_psym = psym;
      pi_layout = layout;
      pi_targets =
        Array.to_list (Array.map2 target layout.l_names layout.l_slots)
        @
        if proc.Ast.kind = Ast.Function then
          [ (Returnjf.RResult, proc.Ast.name) ]
        else [];
      pi_ready = None;
      pi_exact = 0;
    }

  (** Exit values of one evaluated context: for every return target of
      the procedure, the meet over RETURN exits of the SSA name reaching
      that exit — an unmentioned variable returns its entry value, and a
      procedure with no returning path gets ⊤ (its callers' post-call
      code is unreachable).  The abstract-value mirror of
      {!Returnjf.of_proc}. *)
  let exit_of (info : proc_info) ~(conv : Ssa.conv) ~(entry : D.t SM.t)
      (ev : A.t) : D.t RT.t =
    let exit_value name =
      List.fold_left
        (fun acc (_, term, env) ->
          match term with
          | Cfg.Treturn ->
              let v =
                match SM.find_opt name env with
                | Some ssa -> A.value ev ssa
                | None -> (
                    match SM.find_opt name entry with
                    | Some v -> v
                    | None -> D.bot)
              in
              D.meet acc v
          | _ -> acc)
        D.top conv.Ssa.exits
    in
    List.fold_left
      (fun acc (tgt, name) -> RT.add tgt (exit_value name) acc)
      RT.empty info.pi_targets

  let rtarget_of = function
    | Instr.Tformal i -> Returnjf.RFormal i
    | Instr.Tglobal g -> Returnjf.RGlobal g
    | Instr.Tcaller -> assert false

  let pp_env ppf (env : D.t SM.t) =
    Fmt.pf ppf "{%a}"
      Fmt.(
        list ~sep:(any ", ") (fun ppf (n, v) ->
            Fmt.pf ppf "%s = %a" n D.pp v))
      (SM.bindings env)

  (* A call site's last lookup within one evaluation: the callee entry
     values it read, their key, and the exit they resolved to. *)
  type lookup = { lk_vals : D.t array; lk_key : key; lk_exit : D.t RT.t option }

  (* ---------------------------------------------------------------- *)
  (* The tabulation fixpoint *)

  let run ?(ctx_limit = default_ctx_limit) ?cache (d : Driver.t) : t =
    Trace.span ("ctx:" ^ D.name) @@ fun () ->
    let symtab = d.Driver.symtab in
    let cg = d.Driver.cg in
    let modref = d.Driver.modref in
    let convs = d.Driver.convs in
    let jobs = max 1 d.Driver.config.Ipcp_core.Config.jobs in
    let prov =
      if Provenance.on () then Some (Provenance.create ()) else None
    in
    let mtr name = "ctx." ^ D.name ^ name in
    let infos : (string, proc_info) Hashtbl.t = Hashtbl.create 64 in
    SM.iter
      (fun name psym -> Hashtbl.replace infos name (proc_info ~symtab psym))
      symtab.Symtab.procs;
    let info_of p = Hashtbl.find infos p in
    let ready (info : proc_info) = Option.get info.pi_ready in
    (* the table, keyed by value *)
    let table : ctx KT.t = KT.create 64 in
    let all_ctxs : ctx list ref = ref [] in
    let next_id = ref 0 in
    (* the staged worklist: pending contexts bucketed by their
       procedure's SCC condensation index (callees below callers);
       every step drains the lowest bucket as one Jacobi batch *)
    let scc = Scc.compute cg in
    let level_of p =
      Option.value ~default:0 (SM.find_opt p scc.Scc.comp_of)
    in
    let buckets : (int, (int, ctx) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 16
    in
    let schedule (cx : ctx) =
      let l = level_of cx.cx_proc in
      let b =
        match Hashtbl.find_opt buckets l with
        | Some b -> b
        | None ->
            let b = Hashtbl.create 8 in
            Hashtbl.replace buckets l b;
            b
      in
      Hashtbl.replace b cx.cx_id cx
    in
    (* context-granular dependencies and their reverse index *)
    let rev_deps : (int, ctx) Hashtbl.t KT.t = KT.create 64 in
    let set_deps (cx : ctx) (deps : unit KT.t) =
      let old = cx.cx_deps in
      KT.iter
        (fun k () ->
          if not (KT.mem deps k) then
            match KT.find_opt rev_deps k with
            | Some t -> Hashtbl.remove t cx.cx_id
            | None -> ())
        old;
      KT.iter
        (fun k () ->
          if not (KT.mem old k) then begin
            let t =
              match KT.find_opt rev_deps k with
              | Some t -> t
              | None ->
                  let t = Hashtbl.create 4 in
                  KT.replace rev_deps k t;
                  t
            in
            Hashtbl.replace t cx.cx_id cx
          end)
        deps;
      cx.cx_deps <- deps
    in
    let n_created = ref 0 and n_seeded = ref 0 and n_evals = ref 0 in
    (* shared by every context not yet evaluated; never written *)
    let no_deps : unit KT.t = KT.create 1 in
    let new_ctx (info : proc_info) ~ident ~entry ~key =
      let proc = info.pi_psym.Symtab.proc.Ast.name in
      let fallback = match ident with Fallback _ -> true | Exact _ -> false in
      let exit =
        if fallback then None
        else
          match cache with
          | None -> None
          | Some c -> c.c_find ~proc ~entry:key
      in
      if info.pi_ready = None then begin
        let conv = SM.find proc convs in
        info.pi_ready <-
          Some (conv, Abseval.prepare conv.Ssa.ssa, Cfg.weight conv.Ssa.ssa)
      end;
      let cx =
        {
          cx_id = !next_id;
          cx_proc = proc;
          cx_fallback = fallback;
          cx_ident = ident;
          cx_key = key;
          cx_entry = entry;
          cx_exit = exit;
          cx_eval = None;
          cx_deps = no_deps;
          cx_calls = [];
          cx_exit_lowerings = 0;
          cx_entry_lowerings = 0;
          cx_seeded = exit <> None;
        }
      in
      incr next_id;
      incr n_created;
      if cx.cx_seeded then incr n_seeded;
      KT.replace table ident cx;
      if not fallback then info.pi_exact <- info.pi_exact + 1;
      all_ctxs := cx :: !all_ctxs;
      schedule cx;
      cx
    in
    (* MOD/REF-aware call policy against the current table snapshot;
       [deps] collects every callee context consulted, including
       transient lookups mid-fixpoint, so re-queueing is conservative.
       An unresolved lookup records both the exact and the fallback key:
       its request may be routed either way by the apply phase (the
       exact-context cap can fill up mid-batch), and the dependent must
       wake whichever context ends up answering.  [memo] keeps each call
       site's last lookup, so the sweeps that pass a site the same entry
       values reuse its key and exit: the table cannot change while
       evaluations run, and the key's dependencies were recorded when it
       was first looked up.  (Building the key at every lookup instead
       allocates 16% more per ctx-100 op.)  Nothing here writes outside
       the evaluation. *)
    let may_modify (view : A.site_view) target =
      match modref with
      | None -> true
      | Some m ->
          Modref.may_modify m ~callee:view.A.sv_site.Instr.callee target
    in
    let same_vals (info : proc_info) view vals =
      let slots = info.pi_layout.l_slots in
      let rec go i =
        i >= Array.length slots
        || (D.equal (slot_value view slots.(i)) vals.(i) && go (i + 1))
      in
      go 0
    in
    let site_lookup ~deps ~memo (info : proc_info) (view : A.site_view) =
      let sid = view.A.sv_site.Instr.site_id in
      match Hashtbl.find memo sid with
      | lk when same_vals info view lk.lk_vals -> lk
      | _ | (exception Not_found) ->
          let callee = info.pi_psym.Symtab.proc.Ast.name in
          let vals = Array.map (slot_value view) info.pi_layout.l_slots in
          let key = exact_key callee vals in
          let dep k = KT.replace deps k () in
          let exit =
            match KT.find_opt table key with
            | Some c ->
                dep key;
                c.cx_exit
            | None ->
                if info.pi_exact >= ctx_limit then begin
                  dep (Fallback callee);
                  Option.bind
                    (KT.find_opt table (Fallback callee))
                    (fun fb -> fb.cx_exit)
                end
                else begin
                  dep key;
                  dep (Fallback callee);
                  None
                end
          in
          let lk = { lk_vals = vals; lk_key = key; lk_exit = exit } in
          Hashtbl.replace memo sid lk;
          lk
    in
    let policy_for ~deps ~memo : A.policy =
      let exit_value info view target : D.t =
        match (site_lookup ~deps ~memo info view).lk_exit with
        | None -> D.top (* unresolved: proceed optimistically, suspend *)
        | Some exits -> (
            match RT.find_opt target exits with
            | Some v -> v
            | None -> D.bot)
      in
      {
        A.on_calldef =
          (fun view target incoming ->
            match target with
            | Instr.Tcaller -> if modref <> None then incoming else D.bot
            | _ -> (
                if not (may_modify view target) then incoming
                else
                  match Hashtbl.find_opt infos view.A.sv_site.Instr.callee with
                  | None -> D.bot
                  | Some info -> exit_value info view (rtarget_of target)));
        on_result =
          (fun view ->
            match Hashtbl.find_opt infos view.A.sv_site.Instr.callee with
            | None -> D.bot
            | Some info -> exit_value info view Returnjf.RResult);
      }
    in
    (* one pure evaluation; requests are read off the converged site
       views only, so transient mid-fixpoint environments never create
       contexts *)
    let evaluate (cx : ctx) =
      let info = info_of cx.cx_proc in
      let conv, prep, _ = ready info in
      let deps : unit KT.t = KT.create 16 in
      let memo : (int, lookup) Hashtbl.t = Hashtbl.create 16 in
      let policy = policy_for ~deps ~memo in
      let entry_binding name = SM.find_opt name cx.cx_entry in
      let ev =
        A.run ~entry_binding ~prep ~symtab ~psym:info.pi_psym ~policy
          conv.Ssa.ssa
      in
      let seen : unit KT.t = KT.create 8 in
      let reqs = ref [] in
      List.iter
        (fun (s : Instr.site) ->
          match Hashtbl.find_opt infos s.Instr.callee with
          | None -> ()
          | Some callee ->
              let lk = site_lookup ~deps ~memo callee (A.site_view ev s) in
              if not (KT.mem seen lk.lk_key) then begin
                KT.replace seen lk.lk_key ();
                (* depend on the converged view's context (and the
                   fallback it may route to) even if no mid-fixpoint
                   sweep looked it up with exactly this entry *)
                KT.replace deps lk.lk_key ();
                KT.replace deps (Fallback s.Instr.callee) ();
                reqs := (s, callee, lk.lk_key, lk.lk_vals) :: !reqs
              end)
        ev.A.cfg.Cfg.sites;
      let exit = exit_of info ~conv ~entry:cx.cx_entry ev in
      (ev, exit, List.rev !reqs, deps)
    in
    (* sequential apply phase: exits, context creation, fallback entry
       merging — all in deterministic batch order *)
    let changed = ref [] in
    let mark_changed (cx : ctx) = changed := cx.cx_ident :: !changed in
    let apply_exit (cx : ctx) (fresh : D.t RT.t) =
      match cx.cx_exit with
      | None ->
          cx.cx_exit <- Some fresh;
          mark_changed cx
      | Some old ->
          cx.cx_exit_lowerings <- cx.cx_exit_lowerings + 1;
          let widen = (not D.finite_height)
                      && cx.cx_exit_lowerings > Solver.widen_after in
          let next =
            RT.mapi
              (fun tgt ov ->
                let fv =
                  match RT.find_opt tgt fresh with
                  | Some v -> v
                  | None -> D.top
                in
                let nv = D.meet ov fv in
                if widen && not (D.equal nv ov) then D.widen ov nv else nv)
              old
          in
          if not (RT.equal D.equal old next) then begin
            cx.cx_exit <- Some next;
            mark_changed cx;
            if Obs.on () then Metrics.incr (mtr ".exit_lowerings")
          end
    in
    let record_creation ~(creator : ctx) ~(site : Instr.site) (cx : ctx) =
      match prov with
      | None -> ()
      | Some pr ->
          let entry = Fmt.str "%a" pp_env cx.cx_entry in
          Provenance.record pr ~proc:cx.cx_proc
            ~param:("ctx:" ^ digest_of_key cx.cx_key)
            ~kind:
              (Provenance.Call
                 {
                   caller = creator.cx_proc;
                   site_id = site.Instr.site_id;
                   loc = Fmt.str "%a" Loc.pp site.Instr.s_loc;
                   jf_kind = "context";
                   jf = entry;
                   support =
                     SM.bindings cx.cx_entry
                     |> List.map (fun (n, v) -> (n, Fmt.str "%a" D.pp v));
                   widened = cx.cx_fallback;
                 })
            ~before:"unreached" ~contrib:entry ~after:entry
    in
    let resolve_request ~(creator : ctx) (site, (info : proc_info), key, vals)
        =
      match KT.find_opt table key with
      | Some cx -> cx
      | None ->
          let layout = info.pi_layout in
          let env = env_of_vals layout vals in
          if info.pi_exact < ctx_limit then begin
            let cx =
              new_ctx info ~ident:key ~entry:env
                ~key:(canonical_key layout vals)
            in
            record_creation ~creator ~site cx;
            if cx.cx_seeded then
              (* adopted exit: dependents can resolve against it now *)
              mark_changed cx;
            if Obs.on () then Metrics.incr (mtr ".created");
            cx
          end
          else begin
            (* over the limit: widen-merge into the fallback context *)
            let fb_key = Fallback site.Instr.callee in
            let fb =
              match KT.find_opt table fb_key with
              | Some fb -> fb
              | None ->
                  let fb =
                    new_ctx info ~ident:fb_key ~entry:env ~key:fallback_key
                  in
                  record_creation ~creator ~site fb;
                  if Obs.on () then Metrics.incr (mtr ".fallbacks");
                  fb
            in
            let merged =
              SM.merge
                (fun _ o n ->
                  match (o, n) with
                  | Some ov, Some nv ->
                      let m = D.meet ov nv in
                      if
                        (not D.finite_height)
                        && (not (D.equal m ov))
                        && fb.cx_entry_lowerings > Solver.widen_after
                      then Some (D.widen ov m)
                      else Some m
                  | Some ov, None -> Some ov
                  | None, nv -> nv)
                fb.cx_entry env
            in
            if not (SM.equal D.equal merged fb.cx_entry) then begin
              fb.cx_entry <- merged;
              fb.cx_entry_lowerings <- fb.cx_entry_lowerings + 1;
              (* a lowered entry invalidates the fallback's own fixpoint *)
              schedule fb;
              if Obs.on () then Metrics.incr (mtr ".fallback_merges")
            end;
            fb
          end
    in
    (* ---------------------------------------------------------------- *)
    let root =
      let info = info_of cg.Callgraph.main in
      let layout = info.pi_layout in
      (* the main program's seed: DATA globals are constants, the rest ⊥ *)
      let seed = S.main_seed symtab in
      let vals =
        Array.map
          (fun n -> Option.value ~default:D.bot (SM.find_opt n seed))
          layout.l_names
      in
      new_ctx info
        ~ident:(exact_key cg.Callgraph.main vals)
        ~entry:(env_of_vals layout vals)
        ~key:(canonical_key layout vals)
    in
    (match prov with
    | None -> ()
    | Some pr ->
        let entry = Fmt.str "%a" pp_env root.cx_entry in
        Provenance.record pr ~proc:root.cx_proc
          ~param:("ctx:" ^ digest_of_key root.cx_key)
          ~kind:(Provenance.Seed { init = None })
          ~before:"unreached" ~contrib:entry ~after:entry);
    let rounds = ref 0 in
    let min_level () =
      Hashtbl.fold
        (fun l b acc ->
          if Hashtbl.length b = 0 then acc
          else
            match acc with
            | None -> Some l
            | Some m -> Some (min l m))
        buckets None
    in
    let rec drain () =
      match min_level () with
      | None -> ()
      | Some l ->
          incr rounds;
          let b = Hashtbl.find buckets l in
          Hashtbl.remove buckets l;
          let batch =
            Hashtbl.fold (fun _ cx acc -> cx :: acc) b []
            |> List.sort (fun a b -> compare a.cx_id b.cx_id)
            |> Array.of_list
          in
          let costs =
            Array.map
              (fun cx ->
                let _, _, w = ready (info_of cx.cx_proc) in
                w)
              batch
          in
          let results =
            Pool.map_array ~jobs ~costs ~seq_below:Pool.default_seq_cost
              evaluate batch
          in
          n_evals := !n_evals + Array.length batch;
          changed := [];
          Array.iteri
            (fun i (ev, exit, reqs, deps) ->
              let cx = batch.(i) in
              cx.cx_eval <- Some ev;
              set_deps cx deps;
              apply_exit cx exit;
              cx.cx_calls <- List.map (resolve_request ~creator:cx) reqs)
            results;
          (* resume every context that read an exit that moved *)
          List.iter
            (fun k ->
              match KT.find_opt rev_deps k with
              | None -> ()
              | Some tbl ->
                  Hashtbl.iter
                    (fun _ dep -> if dep.cx_eval <> None then schedule dep)
                    tbl)
            !changed;
          drain ()
    in
    drain ();
    (* prune to the contexts the converged evaluations actually reach:
       transient contexts created for mid-convergence entry values drop
       out, so the kept table is the same whether the run was cold, warm,
       sequential or parallel *)
    let keep : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec visit (cx : ctx) =
      if not (Hashtbl.mem keep cx.cx_id) then begin
        Hashtbl.replace keep cx.cx_id ();
        List.iter visit cx.cx_calls
      end
    in
    visit root;
    let kept =
      List.filter (fun cx -> Hashtbl.mem keep cx.cx_id) !all_ctxs
      |> List.sort (fun a b ->
             match String.compare a.cx_proc b.cx_proc with
             | 0 -> String.compare a.cx_key b.cx_key
             | c -> c)
    in
    (* store converged exact exits for the next warm run *)
    (match cache with
    | None -> ()
    | Some c ->
        List.iter
          (fun cx ->
            match cx.cx_exit with
            | Some exits when not cx.cx_fallback ->
                c.c_store ~proc:cx.cx_proc ~entry:cx.cx_key exits
            | _ -> ())
          kept);
    let by_proc =
      List.fold_left
        (fun acc cx ->
          SM.update cx.cx_proc
            (function None -> Some [ cx ] | Some l -> Some (l @ [ cx ]))
            acc)
        SM.empty kept
    in
    let merged =
      SM.map
        (fun ctxs ->
          List.fold_left
            (fun acc (cx : ctx) ->
              SM.merge
                (fun _ a b ->
                  match (a, b) with
                  | Some a, Some b -> Some (D.meet a b)
                  | Some a, None -> Some a
                  | None, b -> b)
                acc cx.cx_entry)
            SM.empty ctxs)
        by_proc
    in
    let facts =
      SM.fold
        (fun _ ctxs acc ->
          List.fold_left
            (fun acc (cx : ctx) ->
              match cx.cx_eval with
              | Some ev -> VF.proc_facts ev acc
              | None -> acc)
            acc ctxs)
        by_proc Loc.Map.empty
    in
    let summary =
      {
        s_contexts = List.length kept;
        s_created = !n_created;
        s_fallbacks =
          List.length (List.filter (fun cx -> cx.cx_fallback) kept);
        s_procs = SM.cardinal by_proc;
        s_rounds = !rounds;
        s_evals = !n_evals;
        s_cache_seeds = !n_seeded;
      }
    in
    if Obs.on () then begin
      Metrics.add (mtr ".contexts") summary.s_contexts;
      Metrics.add (mtr ".rounds") summary.s_rounds;
      Metrics.add (mtr ".evals") summary.s_evals
    end;
    { ctxs = kept; by_proc; merged; facts; summary; prov }

  (* ---------------------------------------------------------------- *)
  (* Read-off and rendering *)

  let pp_exit ppf (exits : D.t RT.t) =
    Fmt.pf ppf "{%a}"
      Fmt.(
        list ~sep:(any ", ") (fun ppf (t, v) ->
            Fmt.pf ppf "%a = %a" Returnjf.pp_rtarget t D.pp v))
      (RT.bindings exits)

  (** Entry constants of the context-insensitive projection, comparable
      to {!Solver.Make.constants}. *)
  let constants (t : t) p : int SM.t =
    match SM.find_opt p t.merged with
    | None -> SM.empty
    | Some m ->
        SM.fold
          (fun name v acc ->
            match D.is_const v with
            | Some c -> SM.add name c acc
            | None -> acc)
          m SM.empty

  (** The merged entry value tracked for [(p, name)].  A procedure with
      no kept context was never called from the root: ⊤ (no information
      ever arrives), which is where the solver's ⊤-initialised VAL sets
      for dead procedures also sit. *)
  let merged_val (t : t) p name : D.t =
    match SM.find_opt p t.merged with
    | None -> D.top
    | Some m -> Option.value ~default:D.bot (SM.find_opt name m)

  let render_text ppf (t : t) =
    SM.iter
      (fun p ctxs ->
        Fmt.pf ppf "CTXS(%s) = %d@." p (List.length ctxs);
        List.iter
          (fun (cx : ctx) ->
            Fmt.pf ppf "  [%s] %a -> %a@."
              (digest_of_key cx.cx_key)
              pp_env cx.cx_entry
              Fmt.(option ~none:(any "<unresolved>") pp_exit)
              cx.cx_exit)
          ctxs;
        match SM.find_opt p t.merged with
        | Some m when not (SM.is_empty m) ->
            Fmt.pf ppf "  merged %a@." pp_env m
        | _ -> ())
      t.by_proc;
    let s = t.summary in
    Fmt.pf ppf
      "contexts: %d kept of %d created (%d fallback) across %d procedures, \
       %d rounds, %d evals, %d cache-seeded@."
      s.s_contexts s.s_created s.s_fallbacks s.s_procs s.s_rounds s.s_evals
      s.s_cache_seeds

  let summary_json (s : summary) : Json.t =
    Json.Obj
      [
        ("contexts", Json.Int s.s_contexts);
        ("created", Json.Int s.s_created);
        ("fallbacks", Json.Int s.s_fallbacks);
        ("procedures", Json.Int s.s_procs);
        ("rounds", Json.Int s.s_rounds);
        ("evals", Json.Int s.s_evals);
        ("cache_seeded", Json.Int s.s_cache_seeds);
      ]

  let json (t : t) : Json.t =
    Json.Obj
      [
        ("domain", Json.Str D.name);
        ( "procedures",
          Json.Arr
            (SM.bindings t.by_proc
            |> List.map (fun (p, ctxs) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "contexts",
                         Json.Arr
                           (List.map
                              (fun (cx : ctx) ->
                                Json.Obj
                                  [
                                    ( "digest",
                                      Json.Str (digest_of_key cx.cx_key) );
                                    ("fallback", Json.Bool cx.cx_fallback);
                                    ( "entry",
                                      Json.Obj
                                        (SM.bindings cx.cx_entry
                                        |> List.map (fun (n, v) ->
                                               (n, Json.Str (D.to_string v))))
                                    );
                                    ( "exit",
                                      match cx.cx_exit with
                                      | None -> Json.Null
                                      | Some exits ->
                                          Json.Obj
                                            (RT.bindings exits
                                            |> List.map (fun (tgt, v) ->
                                                   ( Fmt.str "%a"
                                                       Returnjf.pp_rtarget
                                                       tgt,
                                                     Json.Str (D.to_string v)
                                                   ))) );
                                  ])
                              ctxs) );
                       ( "merged",
                         Json.Obj
                           (SM.bindings
                              (Option.value ~default:SM.empty
                                 (SM.find_opt p t.merged))
                           |> List.map (fun (n, v) ->
                                  (n, Json.Str (D.to_string v)))) );
                     ])) );
        ("summary", summary_json t.summary);
      ]
end
