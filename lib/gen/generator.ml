(** Random MiniFortran program generator.

    Drives the property tests (most importantly: {e analyzer soundness
    against the interpreter}) and the scaling benchmarks.  Generated
    programs are constrained so the properties are meaningful:

    - {b terminating}: the call graph is acyclic (procedures only call
      higher-numbered procedures) and all loops are [DO] loops with
      bounded literal-offset ranges;
    - {b alias-free}: a COMMON variable is never passed as an actual, and
      no variable appears twice among one call's by-reference actuals —
      the no-alias assumption the analyzer (and FORTRAN) makes;
    - {b optionally fully initialised} ([~initialised:true]): every scalar
      and array element is assigned before any use can occur, making
      program output deterministic — required by the semantic-preservation
      properties (interpreting an optimised program must print the same
      values).  With [~initialised:false], undefined variables are left in
      to stress the soundness property (the interpreter gives them random
      values, so an analyzer that calls an undefined value constant is
      caught);
    - division and [mod] appear with literal-offset denominators, so
      faults are possible but rare (a faulting run still yields a valid
      entry-trace prefix).

    The generator builds source text directly; callers parse it through
    the normal front end, which also validates it. *)

open Printf

(** Call-graph topology of the generated program.

    [Acyclic] is the historical behaviour: every procedure calls only
    higher-numbered procedures, picked at random — a dense DAG.  The
    shaped modes exist for the scaling benchmarks, where the {e shape}
    of the condensation is what the scheduler and the solver react to:

    - [Chain]: procedure [i] calls exactly procedure [i+1] — one deep
      dependence chain (condensation width 1);
    - [Fanout]: a small layer of hub procedures, each calling its own
      wide segment of leaf procedures — maximal condensation width;
    - [Cyclic]: procedures are partitioned into recursion groups of
      3–6; inside a group each member calls the next around the cycle
      (guarded by a decreasing counter formal, so the program still
      terminates), and the groups form a binary tree — the condensation
      has thousands of non-trivial SCCs with both width and depth;
    - [Mixed]: first third chain, middle third fanout, last third
      cyclic, all reachable from the main program.

    Shaped procedures are all subroutines with scalar formals (the
    first formal is the recursion counter in cyclic groups); the
    statement machinery around the structural calls is the same as in
    [Acyclic] bodies. *)
type shape = Acyclic | Chain | Fanout | Cyclic | Mixed

let shape_name = function
  | Acyclic -> "acyclic"
  | Chain -> "chain"
  | Fanout -> "fanout"
  | Cyclic -> "cyclic"
  | Mixed -> "mixed"

let shape_of_name = function
  | "acyclic" -> Some Acyclic
  | "chain" -> Some Chain
  | "fanout" -> Some Fanout
  | "cyclic" -> Some Cyclic
  | "mixed" -> Some Mixed
  | _ -> None

type params = {
  n_procs : int;  (** callable procedures besides the main program *)
  n_globals : int;
  max_stmts : int;  (** statements per body (before nesting) *)
  max_depth : int;  (** nesting depth of IF/DO *)
  initialised : bool;
  seed : int;
  shape : shape;  (** call-graph topology; [Acyclic] is the default *)
}

let default =
  {
    n_procs = 5;
    n_globals = 3;
    max_stmts = 6;
    max_depth = 2;
    initialised = true;
    seed = 0;
    shape = Acyclic;
  }

(** Preset for the scaling benchmarks: [n_procs] procedures with larger
    bodies (deterministic for a given [seed]).  At [n_procs = 10_000]
    the [Mixed] default yields roughly 0.4M statements. *)
let scaled ?(shape = Mixed) ?(seed = 11) ~n_procs () =
  { n_procs; n_globals = 4; max_stmts = 10; max_depth = 2;
    initialised = true; seed; shape }

type rng = Random.State.t

let choose (r : rng) xs = List.nth xs (Random.State.int r (List.length xs))

let chance (r : rng) p = Random.State.float r 1.0 < p

(* description of a procedure visible to callers *)
type proto = {
  p_idx : int;
  p_name : string;
  p_is_function : bool;
  p_formals : [ `Scalar | `Array ] list;
}

type scope = {
  rng : rng;
  params : params;
  protos : proto array;
  me : int;  (** my index; -1 for main *)
  scalars : string list;  (** in-scope scalar variables (incl. globals) *)
  arrays : string list;
  globals : string list;
  buf : Buffer.t;
  mutable fresh : int;
  depth : int;
  protected : string list;
      (* enclosing DO variables: assigning them could make the loop spin
         forever (DO has while-loop semantics), so they are never
         assignment targets or by-reference actuals *)
  calls_left : int ref;
      (* per-procedure bound on emitted call sites: keeps the dynamic call
         tree polynomial so generated programs finish quickly *)
}

let arr_dim = 12

let call_budget_ok sc = !(sc.calls_left) > 0

let assignable sc = List.filter (fun v -> not (List.mem v sc.protected)) sc.scalars

let spend_call sc = decr sc.calls_left

let line sc ind fmt =
  ksprintf
    (fun s ->
      Buffer.add_string sc.buf (String.make ind ' ');
      Buffer.add_string sc.buf s;
      Buffer.add_char sc.buf '\n')
    fmt

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec gen_expr sc depth : string =
  let r = sc.rng in
  if depth <= 0 || chance r 0.4 then gen_atom sc
  else
    match Random.State.int r 8 with
    | 0 -> sprintf "(%s + %s)" (gen_expr sc (depth - 1)) (gen_expr sc (depth - 1))
    | 1 -> sprintf "(%s - %s)" (gen_expr sc (depth - 1)) (gen_expr sc (depth - 1))
    | 2 -> sprintf "(%s * %s)" (gen_expr sc (depth - 1)) (gen_atom sc)
    | 3 ->
        (* a denominator bounded away from zero... mostly *)
        sprintf "(%s / (%d + %s))" (gen_expr sc (depth - 1))
          (2 + Random.State.int r 5)
          (gen_atom sc)
    | 4 ->
        sprintf "mod(%s, %d)" (gen_expr sc (depth - 1))
          (2 + Random.State.int r 7)
    | 5 -> sprintf "max(%s, %s)" (gen_atom sc) (gen_atom sc)
    | 6 -> sprintf "abs(%s)" (gen_expr sc (depth - 1))
    | _ when sc.depth = 0 && call_budget_ok sc -> gen_call_expr sc depth
    | _ -> gen_atom sc

and gen_atom sc =
  let r = sc.rng in
  match Random.State.int r 4 with
  | 0 | 1 -> string_of_int (Random.State.int r 21 - 5)
  | 2 when sc.scalars <> [] -> choose r sc.scalars
  | _ when sc.arrays <> [] ->
      sprintf "%s(%d)" (choose r sc.arrays) (1 + Random.State.int r arr_dim)
  | _ -> string_of_int (Random.State.int r 10)

(* a call to a higher-numbered function, if any *)
and gen_call_expr sc depth =
  let candidates =
    Array.to_list sc.protos
    |> List.filter (fun p -> p.p_idx > sc.me && p.p_is_function)
  in
  match candidates with
  | [] -> gen_atom sc
  | _ ->
      spend_call sc;
      let p = choose sc.rng candidates in
      sprintf "%s(%s)" p.p_name (gen_args sc (depth - 1) p)

and gen_args sc depth (p : proto) =
  (* by-reference actuals must be distinct variables and never globals *)
  let used = ref [] in
  let locals_only =
    List.filter
      (fun v -> not (List.mem v sc.globals || List.mem v sc.protected))
      sc.scalars
  in
  let args =
    List.map
      (fun shape ->
        match shape with
        | `Array -> (
            match sc.arrays with
            | [] -> assert false
            | arrs -> choose sc.rng arrs)
        | `Scalar ->
            let by_ref_candidates =
              List.filter (fun v -> not (List.mem v !used)) locals_only
            in
            if by_ref_candidates <> [] && chance sc.rng 0.5 then begin
              let v = choose sc.rng by_ref_candidates in
              used := v :: !used;
              v
            end
            else if chance sc.rng 0.5 then
              string_of_int (Random.State.int sc.rng 15 - 3)
            else
              (* force a by-value actual: a bare parenthesised variable
                 would still parse as a Var (an address), so anchor the
                 expression with an addition *)
              sprintf "(0 + %s)" (gen_expr sc (max 0 depth)))
      p.p_formals
  in
  String.concat ", " args

let gen_cond sc depth =
  let rel () =
    let ops = [ ".EQ."; ".NE."; ".LT."; ".LE."; ".GT."; ".GE." ] in
    sprintf "%s %s %s" (gen_expr sc depth) (choose sc.rng ops)
      (gen_expr sc depth)
  in
  match Random.State.int sc.rng 4 with
  | 0 -> sprintf "%s .AND. %s" (rel ()) (rel ())
  | 1 -> sprintf "%s .OR. %s" (rel ()) (rel ())
  | 2 -> sprintf ".NOT. (%s)" (rel ())
  | _ -> rel ()

(* ------------------------------------------------------------------ *)
(* Shaped structural call edges.

   Shaped programs ([shape <> Acyclic]) get their call graph from an
   explicit plan instead of the random candidate picker: the plan is an
   array of structural out-edges per procedure, emitted verbatim at the
   end of each body.  The random-statement machinery still generates the
   bodies, but its own call budget is zeroed so the topology is exactly
   the plan (and so generation stays O(n) — the random picker filters
   the whole proto array per call site). *)

type edge =
  | Guarded of int
      (* cycle edge: IF (cnt .GT. 0) CALL callee(cnt - 1, ...); the
         counter formal is protected from assignment, so recursion depth
         is bounded by the entry counter *)
  | Seeded of int * int
      (* callee, literal counter: targets a recursion-group entry, so
         the counter must be a small bounded literal *)
  | Plain of int
      (* acyclic structural edge; the first actual is caller's choice *)

type plan = {
  pl_calls : edge list array;  (* structural out-edges per procedure *)
  pl_in_cycle : bool array;  (* procedure is a recursion-group member *)
  pl_main : edge list;  (* entry calls emitted from the main program *)
}

let shaped_plan (params : params) (rng : rng) : plan =
  let n = params.n_procs in
  let calls = Array.make (max n 1) [] in
  let in_cycle = Array.make (max n 1) false in
  let add i e = calls.(i) <- e :: calls.(i) in
  let entries = ref [] in
  let chain lo hi =
    if hi > lo then begin
      entries := lo :: !entries;
      for i = lo to hi - 2 do
        add i (Plain (i + 1))
      done
    end
  in
  let fanout lo hi =
    if hi > lo then begin
      entries := lo :: !entries;
      let len = hi - lo in
      let nhubs = min len (max 1 ((len + 63) / 64)) in
      (* hubs form a spine so one entry reaches everything; each leaf is
         assigned to a hub round-robin, giving maximal condensation
         width at the leaf level *)
      for h = 0 to nhubs - 2 do
        add (lo + h) (Plain (lo + h + 1))
      done;
      let leaves_lo = lo + nhubs in
      let nleaves = hi - leaves_lo in
      for j = 0 to nleaves - 1 do
        add (lo + (j mod nhubs)) (Plain (leaves_lo + j))
      done
    end
  in
  let cyclic lo hi =
    if hi - lo < 3 then chain lo hi
    else begin
      (* partition [lo, hi) into recursion groups of 3-6 members *)
      let groups = ref [] in
      let i = ref lo in
      while !i < hi do
        let want = 3 + Random.State.int rng 4 in
        let size = if hi - !i - want < 3 then hi - !i else want in
        groups := (!i, size) :: !groups;
        i := !i + size
      done;
      let groups = Array.of_list (List.rev !groups) in
      let ng = Array.length groups in
      Array.iter
        (fun (glo, size) ->
          for k = 0 to size - 1 do
            in_cycle.(glo + k) <- true;
            add (glo + k) (Guarded (glo + ((k + 1) mod size)))
          done)
        groups;
      (* recursion groups form a binary tree rooted at group 0; the
         seeded counters shrink with depth to bound the dynamic call
         tree (cyclic programs are for analysis-scale tests, not for
         interpretation at scale) *)
      let rec seed_tree g depth =
        if g < ng then begin
          let glo, _ = groups.(g) in
          List.iter
            (fun c ->
              if c < ng then begin
                let clo, _ = groups.(c) in
                add glo (Seeded (clo, max 1 (6 - depth)))
              end)
            [ (2 * g) + 1; (2 * g) + 2 ];
          seed_tree ((2 * g) + 1) (depth + 1);
          seed_tree ((2 * g) + 2) (depth + 1)
        end
      in
      seed_tree 0 0;
      entries := fst groups.(0) :: !entries
    end
  in
  (match params.shape with
  | Acyclic -> ()
  | Chain -> chain 0 n
  | Fanout -> fanout 0 n
  | Cyclic -> cyclic 0 n
  | Mixed ->
      let a = n / 3 and b = 2 * n / 3 in
      chain 0 a;
      fanout a b;
      cyclic b n);
  let calls = Array.map List.rev calls in
  let pl_main =
    List.rev_map
      (fun e -> Seeded (e, 4 + Random.State.int rng 4))
      !entries
  in
  { pl_calls = calls; pl_in_cycle = in_cycle; pl_main }

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec gen_stmt sc ind =
  let r = sc.rng in
  match Random.State.int r 10 with
  | 0 | 1 | 2 | 3 ->
      (* assignment, scalar or array element *)
      if sc.arrays <> [] && chance r 0.25 then
        line sc ind "%s(%d) = %s" (choose r sc.arrays)
          (1 + Random.State.int r arr_dim)
          (gen_expr sc 2)
      else if assignable sc <> [] then
        line sc ind "%s = %s" (choose r (assignable sc)) (gen_expr sc 2)
      else line sc ind "CONTINUE"
  | 4 when sc.depth < sc.params.max_depth ->
      line sc ind "IF (%s) THEN" (gen_cond sc 1);
      gen_stmts { sc with depth = sc.depth + 1 } (ind + 2) (1 + Random.State.int r 2);
      if chance r 0.5 then begin
        line sc ind "ELSE";
        gen_stmts { sc with depth = sc.depth + 1 } (ind + 2)
          (1 + Random.State.int r 2)
      end;
      line sc ind "ENDIF"
  | 5 when sc.depth < sc.params.max_depth && assignable sc <> [] ->
      let v = choose r (assignable sc) in
      let lo = Random.State.int r 4 in
      let hi = lo + Random.State.int r 5 in
      line sc ind "DO %s = %d, %d" v lo hi;
      gen_stmts
        { sc with depth = sc.depth + 1; protected = v :: sc.protected }
        (ind + 2)
        (1 + Random.State.int r 2);
      line sc ind "ENDDO"
  | 6 when sc.depth = 0 && call_budget_ok sc -> gen_call_stmt sc ind
  | 7 when sc.scalars <> [] ->
      line sc ind "PRINT *, %s" (gen_expr sc 2)
  | 8 when assignable sc <> [] ->
      (* logical IF *)
      line sc ind "IF (%s) %s = %s" (gen_cond sc 1) (choose r (assignable sc))
        (gen_expr sc 1)
  | _ ->
      if assignable sc <> [] then
        line sc ind "%s = %s" (choose r (assignable sc)) (gen_expr sc 2)
      else line sc ind "CONTINUE"

and gen_call_stmt sc ind =
  let candidates =
    Array.to_list sc.protos
    |> List.filter (fun p -> p.p_idx > sc.me && not p.p_is_function)
  in
  match candidates with
  | [] ->
      if sc.scalars <> [] then
        line sc ind "%s = %s" (choose sc.rng sc.scalars) (gen_expr sc 1)
      else line sc ind "CONTINUE"
  | _ ->
      spend_call sc;
      let p = choose sc.rng candidates in
      if p.p_formals = [] then line sc ind "CALL %s" p.p_name
      else line sc ind "CALL %s(%s)" p.p_name (gen_args sc 1 p)

and gen_stmts sc ind n =
  for _ = 1 to n do
    gen_stmt sc ind
  done

(* ------------------------------------------------------------------ *)
(* Emitting the structural calls of a shaped plan *)

(* actuals for every formal after the counter; same alias rules as
   [gen_args]: by-reference actuals are distinct non-global variables *)
let struct_rest_args sc (p : proto) =
  match p.p_formals with
  | [] | [ _ ] -> ""
  | _ :: rest ->
      let used = ref [] in
      let locals_only =
        List.filter
          (fun v -> not (List.mem v sc.globals || List.mem v sc.protected))
          sc.scalars
      in
      let args =
        List.map
          (fun _ ->
            let by_ref =
              List.filter (fun v -> not (List.mem v !used)) locals_only
            in
            match Random.State.int sc.rng 4 with
            | 0 -> string_of_int (Random.State.int sc.rng 15 - 3)
            | (1 | 2) when by_ref <> [] ->
                let v = choose sc.rng by_ref in
                used := v :: !used;
                v
            | _ -> sprintf "(0 + %s)" (gen_expr sc 1))
          rest
      in
      ", " ^ String.concat ", " args

(* [counter] is this procedure's own first scalar formal, when it has
   one: [Plain] edges sometimes pass it through incremented, so constants
   seeded in main propagate down whole chain segments *)
let emit_struct_call sc ~counter edge =
  let callee i = sc.protos.(i) in
  match edge with
  | Guarded i ->
      let p = callee i in
      let cnt =
        match counter with
        | Some c -> c
        | None -> assert false (* cycle members always have a counter *)
      in
      line sc 2 "IF (%s .GT. 0) THEN" cnt;
      line sc 4 "CALL %s(%s - 1%s)" p.p_name cnt (struct_rest_args sc p);
      line sc 2 "ENDIF"
  | Seeded (i, c) ->
      let p = callee i in
      line sc 2 "CALL %s(%d%s)" p.p_name c (struct_rest_args sc p)
  | Plain i ->
      let p = callee i in
      let first =
        match Random.State.int sc.rng 4 with
        | 0 | 1 -> string_of_int (2 + Random.State.int sc.rng 6)
        | 2 when counter <> None -> (
            match counter with Some c -> sprintf "(%s + 1)" c | None -> "")
        | _ -> sprintf "(0 + %s)" (gen_expr sc 1)
      in
      line sc 2 "CALL %s(%s%s)" p.p_name first (struct_rest_args sc p)

(* ------------------------------------------------------------------ *)
(* Procedures *)

let proc_locals r =
  let n = 2 + Random.State.int r 3 in
  List.init n (fun i -> sprintf "v%d" i)

let gen_proc ?(struct_calls = []) ?(in_cycle = false) (params : params) rng
    (protos : proto array) globals idx =
  let p = protos.(idx) in
  let buf = Buffer.create 256 in
  let locals = proc_locals rng in
  let formal_names =
    List.mapi (fun i shape ->
        match shape with `Scalar -> sprintf "f%d" i | `Array -> sprintf "fa%d" i)
      p.p_formals
  in
  let scalar_formals =
    List.filteri (fun i _ -> List.nth p.p_formals i = `Scalar) formal_names
  in
  let array_formals =
    List.filteri (fun i _ -> List.nth p.p_formals i = `Array) formal_names
  in
  Buffer.add_string buf
    (if p.p_is_function then
       sprintf "INTEGER FUNCTION %s(%s)\n" p.p_name
         (String.concat ", " formal_names)
     else if formal_names = [] then sprintf "SUBROUTINE %s\n" p.p_name
     else
       sprintf "SUBROUTINE %s(%s)\n" p.p_name
         (String.concat ", " formal_names));
  if globals <> [] then
    Buffer.add_string buf
      (sprintf "  COMMON /gg/ %s\n" (String.concat ", " globals));
  Buffer.add_string buf
    (sprintf "  INTEGER %s, la(%d)\n" (String.concat ", " locals) arr_dim);
  List.iter
    (fun a -> Buffer.add_string buf (sprintf "  INTEGER %s(%d)\n" a arr_dim))
    array_formals;
  let counter =
    match scalar_formals with
    | c :: _ when params.shape <> Acyclic -> Some c
    | _ -> None
  in
  let sc =
    {
      rng;
      params;
      protos;
      me = idx;
      scalars = locals @ scalar_formals @ globals;
      arrays = "la" :: array_formals;
      globals;
      buf;
      fresh = 0;
      depth = 0;
      (* a recursion counter must never be reassigned: the guarded cycle
         call passes [counter - 1], which bounds the recursion depth *)
      protected =
        (match counter with Some c when in_cycle -> [ c ] | _ -> []);
      (* shaped bodies get their calls from the plan only *)
      calls_left = ref (if params.shape = Acyclic then 4 else 0);
    }
  in
  if params.initialised then begin
    (* define every local and the local array before any use *)
    List.iter
      (fun v -> line sc 2 "%s = %d" v (Random.State.int rng 19 - 4))
      locals;
    line sc 2 "DO %s = 1, %d" (List.hd locals) arr_dim;
    line sc 4 "la(%s) = %s" (List.hd locals) (List.hd locals);
    line sc 2 "ENDDO";
    line sc 2 "%s = %d" (List.hd locals) (Random.State.int rng 9)
  end;
  gen_stmts sc 2 (1 + Random.State.int rng params.max_stmts);
  List.iter (emit_struct_call sc ~counter) struct_calls;
  if p.p_is_function then line sc 2 "%s = %s" p.p_name (gen_expr sc 2);
  Buffer.add_string buf "END\n";
  Buffer.contents buf

let gen_main ?(struct_calls = []) (params : params) rng (protos : proto array)
    globals =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "PROGRAM main\n";
  if globals <> [] then
    Buffer.add_string buf
      (sprintf "  COMMON /gg/ %s\n" (String.concat ", " globals));
  let locals = proc_locals rng in
  Buffer.add_string buf
    (sprintf "  INTEGER %s, la(%d)\n" (String.concat ", " locals) arr_dim);
  (* DATA-initialise a random subset of globals *)
  let data'd =
    List.filter (fun _ -> chance rng 0.4) globals
  in
  if data'd <> [] then
    Buffer.add_string buf
      (sprintf "  DATA %s\n"
         (String.concat ", "
            (List.map
               (fun g -> sprintf "%s /%d/" g (Random.State.int rng 13))
               data'd)));
  let sc =
    {
      rng;
      params;
      protos;
      me = -1;
      scalars = locals @ globals;
      arrays = [ "la" ];
      globals;
      buf;
      fresh = 0;
      depth = 0;
      protected = [];
      calls_left = ref (if params.shape = Acyclic then 4 else 0);
    }
  in
  if params.initialised then begin
    List.iter
      (fun v -> line sc 2 "%s = %d" v (Random.State.int rng 19 - 4))
      locals;
    List.iter
      (fun g ->
        if not (List.mem g data'd) then
          line sc 2 "%s = %d" g (Random.State.int rng 13))
      globals;
    line sc 2 "DO %s = 1, %d" (List.hd locals) arr_dim;
    line sc 4 "la(%s) = 2 * %s" (List.hd locals) (List.hd locals);
    line sc 2 "ENDDO";
    line sc 2 "%s = %d" (List.hd locals) (Random.State.int rng 9)
  end;
  gen_stmts sc 2 (2 + Random.State.int rng params.max_stmts);
  List.iter (emit_struct_call sc ~counter:None) struct_calls;
  (* always observe some state so optimisation bugs surface in output *)
  List.iter (fun v -> line sc 2 "PRINT *, %s" v) locals;
  List.iter (fun g -> line sc 2 "PRINT *, %s" g) globals;
  Buffer.add_string buf "END\n";
  Buffer.contents buf

(** Generate a complete program. *)
let generate ?(params = default) () : string =
  let rng = Random.State.make [| params.seed |] in
  let globals = List.init params.n_globals (fun i -> sprintf "g%d" i) in
  if params.shape = Acyclic then begin
    (* historical path; the draw order is part of the contract — a given
       (seed, params) must keep producing the same program text *)
    let protos =
      Array.init params.n_procs (fun i ->
          let is_function = chance rng 0.3 in
          let n_formals = Random.State.int rng 4 in
          let formals =
            List.init n_formals (fun _ ->
                if chance rng 0.25 then `Array else `Scalar)
          in
          { p_idx = i; p_name = sprintf "proc%d" i;
            p_is_function = is_function; p_formals = formals })
    in
    let main = gen_main params rng protos globals in
    let procs =
      List.init params.n_procs (fun i -> gen_proc params rng protos globals i)
    in
    String.concat "\n" (main :: procs)
  end
  else begin
    let plan = shaped_plan params rng in
    (* shaped procedures are subroutines over scalar formals; the first
       formal doubles as the recursion counter in cyclic groups *)
    let protos =
      Array.init params.n_procs (fun i ->
          let n_formals =
            if plan.pl_in_cycle.(i) then 2 else 1 + Random.State.int rng 2
          in
          { p_idx = i; p_name = sprintf "proc%d" i; p_is_function = false;
            p_formals = List.init n_formals (fun _ -> `Scalar) })
    in
    let main = gen_main ~struct_calls:plan.pl_main params rng protos globals in
    let procs =
      List.init params.n_procs (fun i ->
          gen_proc ~struct_calls:plan.pl_calls.(i)
            ~in_cycle:plan.pl_in_cycle.(i) params rng protos globals i)
    in
    String.concat "\n" (main :: procs)
  end
