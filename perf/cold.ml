(** [cold-2k]: one op analyses the fixed 2,000-procedure program and
    every suite program the way [ipcp lint --ranges] does —
    [Ipcp.analyze], [Result.ranges], [Result.lints_with_verdicts], no
    cache.  The pipeline does all the work; cache, daemon and
    tabulation do none. *)

open Layers

type out = {
  driver : Driver.t;
  sub : Substitute.result;
  ranges : Ranges.t;
  lints : Lint.finding list * Lint.verdict_totals;
}

let untraced config (inp : Inputs.t) =
  match Ipcp.analyze ~config (Ipcp.Source.of_string ~file:inp.file inp.text) with
  | Error e -> failwith e
  | Ok r ->
      let ranges = Ipcp.Result.ranges r in
      let lints = Ipcp.Result.lints_with_verdicts ~ranges r in
      let s = Ipcp.Result.substitution r in
      let sub =
        { Substitute.program = s.Ipcp.Result.program; per_proc = s.Ipcp.Result.per_proc; total = s.Ipcp.Result.total }
      in
      { driver = Ipcp.Result.driver r; sub; ranges; lints }

(* Lowering as [Driver.analyze] does it: call-site ids are numbered in
   declaration order, so each task starts its counter at the prefix sum
   of the sites before it. *)
let lower ~jobs (symtab : Symtab.t) =
  let procs = List.rev (Symtab.fold_procs (fun psym acc -> psym :: acc) symtab []) in
  let off = ref 0 in
  let tasks =
    Array.of_list
      (List.map
         (fun (psym : Symtab.proc_sym) ->
           let o = !off in
           off := o + Lower.count_sites psym.Symtab.proc;
           (psym, o))
         procs)
  in
  let costs = Array.map (fun ((psym : Symtab.proc_sym), _) -> Lower.count_stmts psym.Symtab.proc) tasks in
  Array.fold_left
    (fun acc (name, cfg) -> SM.add name cfg acc)
    SM.empty
    (Pool.map_array ~jobs ~costs ~seq_below:Pool.default_seq_cost
       (fun ((psym : Symtab.proc_sym), o) ->
         (psym.Symtab.proc.Ipcp_frontend.Ast.name, Lower.lower_proc symtab ~site_counter:(ref o) psym))
       tasks)

(** The same op, with each layer's public function called from here
    under its own span, at the op's jobs setting. *)
let traced spans (config : Config.t) (inp : Inputs.t) =
  let sp name f = Spans.with_span spans name f in
  let jobs = max 1 config.Config.jobs in
  let fanout cost check m =
    Pool.iter_sm ~jobs ~cost ~seq_below:Pool.default_seq_cost check m
  in
  let symtab = sp "frontend" (fun () -> Sema.parse_and_analyze ~file:inp.file inp.text) in
  let cfgs = sp "ir.lower" (fun () -> lower ~jobs symtab) in
  if config.Config.verify_ir then
    sp "verify" (fun () ->
        fanout (fun _ c -> Cfg.weight c)
          (fun _ c -> Verify.expect_ok ~what:"lowering" (Verify.check_lowered ~symtab c))
          cfgs);
  let convs =
    sp "ir.ssa" (fun () ->
        Pool.map_sm ~jobs ~cost:(fun _ c -> Cfg.weight c) ~seq_below:Pool.default_seq_cost
          (fun _ c -> Ssa.convert_full c)
          cfgs)
  in
  Spans.count spans "ir.instrs"
    (float_of_int (SM.fold (fun _ (c : Ssa.conv) n -> n + Cfg.weight c.Ssa.ssa) convs 0));
  if config.Config.verify_ir then
    sp "verify" (fun () ->
        fanout (fun _ (c : Ssa.conv) -> Cfg.weight c.Ssa.ssa)
          (fun _ (c : Ssa.conv) ->
            Verify.expect_ok ~what:"SSA construction" (Verify.check_ssa ~symtab c.Ssa.ssa))
          convs);
  let cg, scc =
    sp "callgraph" (fun () ->
        let cg = Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order cfgs in
        (cg, Scc.compute cg))
  in
  let modref =
    sp "summary.modref" (fun () ->
        if config.Config.use_mod then Some (Modref.compute symtab cfgs cg) else None)
  in
  let rjfs =
    sp "returnjf" (fun () ->
        if config.Config.return_jfs then
          Returnjf.compute ~scc ~symtab ~modref ~convs ~cg
            ~symbolic:config.Config.symbolic_returns ()
        else Returnjf.empty)
  in
  let evals, jfs =
    sp "jumpfn" (fun () ->
        let policy =
          Returnjf.policy ~symtab ~modref ~rjfs ~symbolic:config.Config.symbolic_returns
        in
        let pairs =
          Pool.map_sm ~jobs
            ~cost:(fun _ (c : Ssa.conv) -> Cfg.weight c.Ssa.ssa)
            ~seq_below:Pool.default_seq_cost
            (fun p (c : Ssa.conv) ->
              let ev = Symeval.run ~symtab ~psym:(Symtab.proc symtab p) ~policy c.Ssa.ssa in
              (ev, List.map (Jumpfn.of_site ~symtab ~kind:config.Config.jf ev) ev.Symeval.cfg.Cfg.sites))
            convs
        in
        (SM.map fst pairs, SM.map snd pairs))
  in
  Spans.count spans "jumpfn.built"
    (float_of_int
       (SM.fold
          (fun _ sjs n -> List.fold_left (fun n (sj : Jumpfn.site_jfs) -> n + List.length sj.Jumpfn.jfs) n sjs)
          jfs 0));
  let solver = sp "solver" (fun () -> Solver.solve ~scc ~jobs ~symtab ~cg ~jfs ()) in
  Spans.count spans "solver.pops" (float_of_int solver.Solver.stats.Solver.pops);
  Spans.count spans "solver.jf_evals" (float_of_int solver.Solver.stats.Solver.jf_evals);
  let driver = { Driver.config; symtab; cfgs; convs; cg; modref; rjfs; evals; jfs; solver } in
  (* inclusive: stage 4 and, with the verifier on, the re-check of the
     rewritten source happen inside *)
  let sub = sp "substitute" (fun () -> Substitute.apply driver) in
  (* what opening the implicit session adds: the response-cache key *)
  sp "incr.fingerprint" (fun () ->
      ignore (Incr.program_key config symtab);
      ignore (Incr.content_fingerprints symtab));
  let ranges = sp "ranges" (fun () -> Driver.analyze_ranges driver) in
  let lints = sp "lint" (fun () -> Lint.run_with_verdicts ~ranges driver) in
  { driver; sub; ranges; lints }

(** Everything the op yields that a user sees, as one digest. *)
let digest (o : out) =
  let b = Buffer.create 65536 in
  let d = o.driver in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      SM.iter (fun x v -> Printf.bprintf b " %s=%d" x v) (Driver.constants d p);
      Buffer.add_char b '\n')
    d.Driver.symtab.Symtab.order;
  let c = Driver.census d in
  Printf.bprintf b "census %d %d %d %d %d\nsubstituted %d\n" c.Driver.n_bottom c.Driver.n_const
    c.Driver.n_passthrough c.Driver.n_poly c.Driver.total_cost o.sub.Substitute.total;
  Buffer.add_string b (Pretty.program_to_string o.sub.Substitute.program);
  Buffer.add_string b (Json.to_string (Ranges.json o.ranges));
  let fs, vt = o.lints in
  Buffer.add_string b (Lint.render_json ~verdicts:vt fs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* "file:line:col: message" *)
let split_fault msg =
  match String.split_on_char ':' msg with
  | _file :: line :: col :: rest -> (
      match (int_of_string_opt line, int_of_string_opt col) with
      | Some l, Some c -> Some (l, c, String.trim (String.concat ":" rest))
      | _ -> None)
  | _ -> None

let status_kind = function
  | Interp.Completed -> "completed"
  | Interp.Stopped -> "stopped"
  | Interp.Out_of_fuel -> "out of fuel"
  | Interp.Fault m -> (
      match split_fault m with Some (_, _, what) -> "fault: " ^ what | None -> "fault: " ^ m)

(* ---- the fault site ------------------------------------------------

   The interpreter names the statement it last started.  Without WHILE
   loops and function calls that statement's own expressions are what
   faulted: nothing else runs between its start and the next
   statement's.  A WHILE condition runs after the last statement of its
   body, and a function body inside its caller's expression, so there
   the named statement can be an earlier one and the check does not
   decide. *)

type fault = Zero_divisor | Bad_subscript of string * int  (** array, subscript *)

let fault_of what =
  if what = "division by zero" || what = "intrinsic mod faulted" then Some Zero_divisor
  else
    try Scanf.sscanf what "subscript %d out of bounds for %[^(]" (fun i a -> Some (Bad_subscript (a, i)))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* the expressions a statement evaluates itself, outside the statements
   nested in it; an element store [a(i) = ...] as the reference [a(i)] *)
let own_exprs (s : Ast.stmt) =
  let lv = function Ast.Lvar _ -> [] | Ast.Lindex (a, i, l) -> [ Ast.Index (a, i, l) ] in
  let rec cond = function
    | Ast.Rel (_, a, b) -> [ a; b ]
    | Ast.And (a, b) | Ast.Or (a, b) -> cond a @ cond b
    | Ast.Not c -> cond c
    | Ast.Btrue | Ast.Bfalse -> []
  in
  match s with
  | Ast.Assign (l, e, _) -> e :: lv l
  | Ast.If (arms, _, _) -> List.concat_map (fun (c, _) -> cond c) arms
  | Ast.Do (_, lo, hi, step, _, _) -> lo :: hi :: Option.to_list step
  | Ast.While (c, _, _) -> cond c
  | Ast.Call (_, es, _) | Ast.Print (es, _) -> es
  | Ast.Read (ls, _) -> List.concat_map lv ls
  | Ast.Return _ | Ast.Stop _ | Ast.Continue _ -> []

(* every statement of a body, nested ones included *)
let rec stmts body =
  List.concat_map
    (fun (s : Ast.stmt) ->
      s
      ::
      (match s with
      | Ast.If (arms, els, _) -> stmts (List.concat_map snd arms @ els)
      | Ast.Do (_, _, _, _, b, _) | Ast.While (_, b, _) -> stmts b
      | _ -> []))
    body

(* an expression and all its sub-expressions *)
let rec subexprs (e : Ast.expr) =
  e
  ::
  (match e with
  | Ast.Int _ | Ast.Var _ -> []
  | Ast.Index (_, i, _) | Ast.Unop (_, i, _) -> subexprs i
  | Ast.Callf (_, es, _) | Ast.Intrin (_, es, _) -> List.concat_map subexprs es
  | Ast.Binop (_, a, b, _) -> subexprs a @ subexprs b)

(* The operands of [es] that can raise [fault]: [Some e] for a divisor or
   subscript the facts speak for, [None] for a power, whose 0 ** -k the
   interpreter also reports as a division by zero. *)
let candidates fault es =
  List.filter_map
    (fun (e : Ast.expr) ->
      match (fault, e) with
      | Zero_divisor, (Ast.Binop (Ast.Div, _, b, _) | Ast.Intrin (Ast.Imod, [ _; b ], _)) -> Some (Some b)
      | Zero_divisor, Ast.Binop (Ast.Pow, _, _, _) -> Some None
      | Bad_subscript (a, _), Ast.Index (a', i, _) when a = a' -> Some (Some i)
      | _ -> None)
    (List.concat_map subexprs es)

(* An expression's constant and range under the analysis's facts: the
   constants the substitution puts at located uses, the range facts,
   PARAMETER constants, folded through the concrete and the interval
   operations.  Array elements and function results are unknown. *)
let const_under cuses (psym : Symtab.proc_sym) e =
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Int (n, _) -> Some n
    | Ast.Var (x, l) -> (
        match (Loc.Map.find_opt l cuses, Symtab.var psym x) with
        | Some c, _ | None, Some { Symtab.kind = Symtab.Const c; _ } -> Some c
        | None, _ -> None)
    | Ast.Unop (op, a, _) -> Option.map (Ast.eval_unop op) (go a)
    | Ast.Binop (op, a, b, _) -> (
        match (go a, go b) with Some x, Some y -> Ast.eval_binop op x y | _ -> None)
    | Ast.Intrin (i, es, _) ->
        let cs = List.map go es in
        if List.for_all Option.is_some cs then Ast.eval_intrin i (List.map Option.get cs) else None
    | Ast.Index _ | Ast.Callf _ -> None
  in
  go e

let range_under facts (psym : Symtab.proc_sym) e =
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Int (n, _) -> I.const n
    | Ast.Var (x, l) -> (
        match (Loc.Map.find_opt l facts, Symtab.var psym x) with
        | Some r, _ -> r
        | None, Some { Symtab.kind = Symtab.Const c; _ } -> I.const c
        | None, _ -> I.bot)
    | Ast.Unop (op, a, _) -> I.unop op (go a)
    | Ast.Binop (op, a, b, _) -> I.binop op (go a) (go b)
    | Ast.Intrin (i, es, _) -> I.intrin i (List.map go es)
    | Ast.Index _ | Ast.Callf _ -> I.bot
  in
  go e

(** The interpreter faulted on [what] at statement [line:col].  Two
    checks: the facts at the faulting operation must admit the value
    it saw (the site then carries no proved-safe verdict: ⊤, a constant
    or a range that leaves the value out is what proves a site safe);
    and every operation of that statement whose facts prove the fault
    must carry a lint finding.  Returns what the checks found, for the
    run's description. *)
let fault_site_checks fs (inp : Inputs.t) symtab (o : out) ~line ~col ~what =
  let all =
    Symtab.fold_procs
      (fun psym acc -> List.map (fun s -> (psym, s)) (stmts psym.Symtab.proc.Ast.body) @ acc)
      symtab []
  in
  let opaque (_, s) =
    (match s with Ast.While _ -> true | _ -> false)
    || List.exists (function Ast.Callf _ -> true | _ -> false) (List.concat_map subexprs (own_exprs s))
  in
  let at (_, s) =
    let l = Ast.stmt_loc s in
    l.Loc.line = line && l.Loc.col = col
  in
  match (fault_of what, List.find_opt at all) with
  | None, _ -> "not a division or subscript fault"
  | _, None -> "no statement at the fault location"
  | Some fault, Some (psym, s) ->
      let cuses = Substitute.constant_uses o.driver and facts = o.ranges.Ranges.facts in
      let sites = candidates fault (own_exprs s) in
      let check = match fault with Zero_divisor -> Lint.Div_by_zero | Bad_subscript _ -> Lint.Subscript_bounds in
      let dim = match fault with Bad_subscript (a, _) -> Option.bind (Symtab.var psym a) (fun v -> v.Symtab.dim) | Zero_divisor -> None in
      (* the facts prove the fault, as lint decides it *)
      let proves e =
        match (fault, const_under cuses psym e, range_under facts psym e) with
        | Zero_divisor, Some c, _ -> c = 0
        | Zero_divisor, None, r -> I.is_const r = Some 0
        | Bad_subscript _, Some i, _ -> ( match dim with Some n -> i < 1 || i > n | None -> false)
        | Bad_subscript _, None, r -> (
            match (dim, r) with Some n, I.Range _ -> I.disjoint r ~lo:1 ~hi:n | _ -> false)
      in
      let flagged e =
        List.exists
          (fun (f : Lint.finding) -> f.Lint.f_check = check && Loc.equal f.Lint.f_loc (Ast.expr_loc e))
          (fst o.lints)
      in
      let proved = List.filter_map (fun e -> Option.bind e (fun e -> if proves e then Some e else None)) sites in
      List.iter
        (fun e ->
          if not (flagged e) then
            Wl.fail fs "%s: the facts prove the %s at %s, but lint has no %s finding there" inp.file what
              (Loc.to_string (Ast.expr_loc e)) (Lint.id check))
        proved;
      let lint_note =
        if proved = [] then "the facts do not prove it"
        else if List.for_all flagged proved then "the facts prove it and lint flags it"
        else "the facts prove it and lint misses it"
      in
      if List.exists opaque all then "not decided: the program has WHILE loops or function calls; " ^ lint_note
      else if sites = [] then "not decided: the statement has no such operation; " ^ lint_note
      else
        let v = match fault with Zero_divisor -> 0 | Bad_subscript (_, i) -> i in
        let admits = function
          | None -> true
          | Some e -> (
              (match const_under cuses psym e with Some c -> c = v | None -> true)
              && match range_under facts psym e with I.Top -> false | r -> I.contains r v)
        in
        if List.exists admits sites then "the facts admit the faulting value; " ^ lint_note
        else (
          Wl.fail fs "%s: the interpreter faults (%s) at %d:%d, where the analysis proves every such operation safe"
            inp.file what line col;
          "the analysis proves the faulting site safe")

type coverage = {
  c_file : string;
  c_procs : int;
  c_entered : int;
  c_entries : int;
  c_reads : int;
  c_ranged : int;
  c_status : string;
  c_fault : string option;  (** for a faulting run: what the fault-site checks found *)
}

(** The interpreter checks of one input against an analysis of it:
    CONSTANTS hold at every recorded entry, every value read at a
    located scalar use lies in the inferred range there and equals the
    constant the substitution would put there, the fault site carries
    no proved-safe verdict and lint flags what the facts prove there,
    and the substituted program behaves as the original. *)
let interp_checks fs ~seed (inp : Inputs.t) (o : out) =
  let symtab = Sema.parse_and_analyze ~file:inp.file inp.text in
  let facts = o.ranges.Ranges.facts in
  let cuses = Substitute.constant_uses o.driver in
  let reads = ref 0 and ranged = ref 0 in
  let observe loc v =
    incr reads;
    (match Loc.Map.find_opt loc facts with
    | Some r ->
        incr ranged;
        if not (I.contains r v) then
          Wl.fail fs "%s: read %d outside the inferred range %s" (Loc.to_string loc) v (I.to_string r)
    | None -> ());
    match Loc.Map.find_opt loc cuses with
    | Some c when c <> v ->
        Wl.fail fs "%s: read %d where the analysis proves the constant %d" (Loc.to_string loc) v c
    | _ -> ()
  in
  let res = Interp.run ~seed ~observe symtab in
  let entered = Hashtbl.create 64 in
  List.iter
    (fun (e : Interp.entry_snapshot) ->
      Hashtbl.replace entered e.Interp.e_proc ();
      let cs = Driver.constants o.driver e.Interp.e_proc in
      List.iter
        (fun (x, v) ->
          match (SM.find_opt x cs, v) with
          | Some c, Some v when c <> v ->
              Wl.fail fs "%s: entry to %s has %s = %d, CONSTANTS claims %d" inp.file
                e.Interp.e_proc x v c
          | _ -> ())
        e.Interp.e_vals)
    res.Interp.trace;
  let fault =
    match res.Interp.status with
    | Interp.Fault m -> (
        match split_fault m with
        | None -> Some "unlocated fault"
        | Some (line, col, what) -> Some (fault_site_checks fs inp symtab o ~line ~col ~what))
    | _ -> None
  in
  let printed = Pretty.program_to_string o.sub.Substitute.program in
  let res' = Interp.run ~seed (Sema.parse_and_analyze ~file:inp.file printed) in
  if res'.Interp.output <> res.Interp.output then
    Wl.fail fs "%s: the substituted program prints other output" inp.file;
  if status_kind res'.Interp.status <> status_kind res.Interp.status then
    Wl.fail fs "%s: the substituted program ends with %s, the original with %s" inp.file
      (status_kind res'.Interp.status) (status_kind res.Interp.status);
  {
    c_file = inp.file;
    c_procs = List.length symtab.Symtab.order;
    c_entered = Hashtbl.length entered;
    c_entries = List.length res.Interp.trace;
    c_reads = !reads;
    c_ranged = !ranged;
    c_status = Fmt.str "%a after %d steps" Interp.pp_status res.Interp.status res.Interp.steps_used;
    c_fault = fault;
  }

let make ~dir ~input_seed ~seed : Wl.t =
  let inputs = ref [] in
  let reference_digests = ref [] in
  let coverage = ref [] in
  let setup () =
    let all = Inputs.generated ~dir ~input_seed 2000 :: Inputs.suite ~dir in
    (* reject a malformed input here, not inside a timed op *)
    List.iter (fun (i : Inputs.t) -> ignore (Sema.parse_and_analyze ~file:i.file i.text)) all;
    inputs := all
  in
  let reference () =
    let fs = Wl.failures () in
    let digests, cov =
      List.split
        (List.map
           (fun inp ->
             let o = untraced Wl.config_jobs1 inp in
             (digest o, interp_checks fs ~seed inp o))
           !inputs)
    in
    reference_digests := digests;
    coverage := cov;
    Wl.failure_list fs
  in
  let prepare spans _i () =
    let c0 = Meter.cpu_s () and w0 = Meter.now_s () in
    let outs =
      List.map
        (fun inp ->
          match spans with None -> untraced Wl.config inp | Some s -> traced s Wl.config inp)
        !inputs
    in
    let cpu = Meter.cpu_s () -. c0 and wall = Meter.now_s () -. w0 in
    fun () ->
      Wl.count spans "par.cpu_per_wall" (cpu /. wall);
      let fs = Wl.failures () in
      let consts =
        List.fold_left2
          (fun n ((inp : Inputs.t), o) d ->
            if digest o <> d then Wl.fail fs "%s: outputs differ from the jobs-1 analysis" inp.file;
            n + Driver.total_constants o.driver)
          0
          (List.combine !inputs outs)
          !reference_digests
      in
      { Wl.consts = float_of_int consts; failures = Wl.failure_list fs }
  in
  let describe () =
    List.map
      (fun c ->
        Printf.sprintf
          "%s: interpreter entered %d of %d procedures (%d entries), %d scalar reads (%d with a range fact); %s%s"
          c.c_file c.c_entered c.c_procs c.c_entries c.c_reads c.c_ranged c.c_status
          (match c.c_fault with Some f -> "; fault site: " ^ f | None -> ""))
      !coverage
  in
  {
    Wl.name = "cold-2k";
    setup;
    reference;
    prepare;
    finish = (fun () -> []);
    replica = [];
    resident = false;
    peak_after = 3;
    describe;
  }
