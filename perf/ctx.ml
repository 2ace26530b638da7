(** [ctx-100]: the jump-function result of the fixed 100-procedure
    program is built during set-up; one op tabulates the const and
    interval value contexts cold ([Domains.run_contexts ~warm:false],
    default context limit), as [ipcp analyze --contexts] does for each
    domain.  [lib/contexts] does nearly all of the op. *)

open Layers

let domains = [ "const"; "interval" ]

let tabulate spans r =
  List.map
    (fun d ->
      Wl.span spans ("contexts." ^ d) (fun () ->
          match Ipcp.Domains.run_contexts ~warm:false d r with
          | Some rep -> rep.Ipcp.Domains.json
          | None -> failwith ("no context-sensitive instantiation of " ^ d)))
    domains

let parse json =
  match Json.parse json with Ok j -> j | Error e -> failwith ("report JSON: " ^ e)

(* procedure -> parameter -> rendered value, from a report's merged view *)
let merged report =
  let tbl = Hashtbl.create 128 in
  Option.iter
    (List.iter (fun p ->
         match (Option.bind (Json.member "procedure" p) Json.to_str, Json.member "merged" p) with
         | Some name, Some (Json.Obj kvs) ->
             Hashtbl.replace tbl name (List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v)) kvs)
         | _ -> ()))
    (Option.bind (Json.member "procedures" report) Json.to_list);
  tbl

let summary report key =
  Option.value ~default:0
    (Option.bind (Json.member "summary" report) (fun s -> Option.bind (Json.member key s) Json.to_int))

(* An interval as the report renders it: "⊤" holds no value, "⊥" every
   value, "c" one value, "[lo, hi]" with -inf/+inf borders. *)
let interval_contains s v =
  let border b ~inf = match String.trim b with "-inf" | "+inf" -> inf | x -> int_of_string x in
  match s with
  | "⊤" -> false
  | "⊥" -> true
  | _ when String.length s > 0 && s.[0] = '[' -> (
      match String.split_on_char ',' (String.sub s 1 (String.length s - 2)) with
      | [ lo; hi ] -> border lo ~inf:min_int <= v && v <= border hi ~inf:max_int
      | _ -> failwith ("interval " ^ s))
  | _ -> int_of_string s = v

let consts_of report =
  Hashtbl.fold
    (fun _ kvs n -> n + List.length (List.filter (fun (_, s) -> int_of_string_opt s <> None) kvs))
    (merged report) 0

(* Entry constants of the fixed input that the jump-function solver
   proves and the const tabulation loses: proc1 sets [g3 = abs((g2 -
   g2))], which symbolic evaluation folds to 0 and the abstract
   evaluation over the constant lattice leaves at ⊥, so
   tabulation ⊒ jump functions fails on the callees.  A fault of the
   program, not of the benchmark; every op counts it as failed. *)
let known_faults_fixed = [ ("proc2", "g3"); ("proc3", "g3") ]

let make ~dir ~input_seed ~seed : Wl.t =
  let known_faults = if input_seed = None then known_faults_fixed else [] in
  let input = ref None and result = ref None in
  let reference_reports = ref [] and coverage = ref "" in
  let analyze config (inp : Inputs.t) =
    match Ipcp.analyze ~config (Ipcp.Source.of_string ~file:inp.file inp.text) with
    | Ok r -> r
    | Error e -> failwith e
  in
  let setup () =
    let inp = Inputs.generated ~dir ~input_seed 100 in
    result := Some (analyze Wl.config inp);
    input := Some inp
  in
  (* the jobs-1 tabulation, and the checks made on it: tabulation ⊒ jump
     functions, and merged facts ⊇ every entry the interpreter records *)
  let reference () =
    let inp = Option.get !input in
    let fs = Wl.failures () in
    let r1 = analyze Wl.config_jobs1 inp in
    let reps = tabulate None r1 in
    reference_reports := reps;
    let const_m = merged (parse (List.nth reps 0)) and itv_m = merged (parse (List.nth reps 1)) in
    let lookup m p x = Option.bind (Hashtbl.find_opt m p) (List.assoc_opt x) in
    let jf = ref 0 in
    List.iter
      (fun p ->
        List.iter
          (fun (x, c) ->
            incr jf;
            (* ⊤ (entry proved unreached) is above every constant *)
            let known = if List.mem (p, x) known_faults then Wl.known_prefix else "" in
            (match lookup const_m p x with
            | Some s when s = string_of_int c || s = "⊤" -> ()
            | s ->
                Wl.fail fs "%s%s.%s: jump functions prove %d, const tabulation merges %s" known p x c
                  (Option.value ~default:"nothing" s));
            match lookup itv_m p x with
            | Some s when s = "⊤" || interval_contains s c -> ()
            | s ->
                Wl.fail fs "%s%s.%s: jump functions prove %d, interval tabulation merges %s" known p x c
                  (Option.value ~default:"nothing" s))
          (Ipcp.Result.constants r1 p))
      (Ipcp.Result.procedures r1);
    let symtab = Sema.parse_and_analyze ~file:inp.file inp.text in
    let res = Interp.run ~seed symtab in
    let checked = ref 0 in
    List.iter
      (fun (e : Interp.entry_snapshot) ->
        List.iter
          (fun (x, v) ->
            match v with
            | None -> ()
            | Some v ->
                (match lookup const_m e.Interp.e_proc x with
                | Some s -> (
                    incr checked;
                    match int_of_string_opt s with
                    | Some c when c <> v ->
                        Wl.fail fs "entry to %s has %s = %d, const tabulation merges %d" e.Interp.e_proc x v c
                    | None when s = "⊤" ->
                        Wl.fail fs "entry to %s reached, const tabulation merges %s = ⊤" e.Interp.e_proc x
                    | _ -> ())
                | None -> ());
                match lookup itv_m e.Interp.e_proc x with
                | Some s when not (interval_contains s v) ->
                    Wl.fail fs "entry to %s has %s = %d outside the merged range %s" e.Interp.e_proc x v s
                | _ -> ())
          e.Interp.e_vals)
      res.Interp.trace;
    coverage :=
      Printf.sprintf
        "%s: %d jump-function constants checked against both tabulations; interpreter recorded %d entries (%d values checked); %a"
        inp.file !jf (List.length res.Interp.trace) !checked
        (fun () -> Fmt.str "%a after %d steps" Interp.pp_status res.Interp.status) res.Interp.steps_used;
    Wl.failure_list fs
  in
  let prepare spans _i () =
    let reps = tabulate spans (Option.get !result) in
    fun () ->
      let fs = Wl.failures () in
      List.iter2
        (fun d (a, b) -> if not (String.equal a b) then Wl.fail fs "%s report differs from the jobs-1 tabulation" d)
        domains (List.combine reps !reference_reports);
      let js = List.map parse reps in
      let created = List.fold_left (fun n j -> n + summary j "created") 0 js in
      let kept = List.fold_left (fun n j -> n + summary j "contexts") 0 js in
      Wl.count spans "contexts.created" (float_of_int created);
      Wl.count spans "contexts.kept_per_created" (float_of_int kept /. float_of_int created);
      Wl.count spans "contexts.evals" (float_of_int (List.fold_left (fun n j -> n + summary j "evals") 0 js));
      { Wl.consts = float_of_int (consts_of (List.hd js)); failures = Wl.failure_list fs }
  in
  {
    Wl.name = "ctx-100";
    setup;
    reference;
    prepare;
    finish = (fun () -> []);
    replica = [];
    resident = false;
    peak_after = 3;
    describe = (fun () -> [ !coverage ]);
  }
