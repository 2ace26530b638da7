(** Differential tests for the provenance-carrying fixpoint behind
    [ipcp explain].

    The keystone check: for every suite program and every explainable
    domain (const, copyprop, interval), build the derivation tree of
    every procedure's tracked entries and re-evaluate every recorded
    edge against the final fixpoint — {!Ipcp_core.Explain.Make.check}
    must report no violations.  The trees are built from the provenance
    the solver recorded {e during} the solve, so a violation means the
    recorder attributed a value to an edge that does not justify it.

    Also pinned here: the exact literal → pass-through → polynomial
    chain of the matrix300 program (the README walkthrough), the
    off-by-default contract (no recording, and a clear error from
    explain, when {!Ipcp_core.Provenance} is disabled), and the
    context-creation edges of [explain --contexts]. *)

module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Registry = Ipcp_contexts.Registry
module Provenance = Ipcp_core.Provenance
module Solver = Ipcp_core.Solver
module Explain = Ipcp_core.Explain
module Symtab = Ipcp_frontend.Symtab
module Programs = Ipcp_suite.Programs
module Json = Ipcp_obs.Json

(* polynomial jump functions exercise every edge kind the recorder
   knows (const, passthrough, polynomial, bottom); the sanitizer is off
   because these tests re-analyze the full suite several times *)
let config =
  { Config.default with Config.jf = Config.Polynomial; verify_ir = false }

let analyze ?(config = config) (p : Programs.program) =
  Driver.analyze_source ~config ~file:p.Programs.name p.Programs.source

let program name = List.find (fun p -> p.Programs.name = name) Programs.all

let test_differential domain () =
  let explained = ref 0 in
  List.iter
    (fun (p : Programs.program) ->
      Provenance.with_enabled @@ fun () ->
      let symtab, d = analyze p in
      List.iter
        (fun proc ->
          match Registry.explain ~domain d ~proc () with
          | Error e ->
              Alcotest.failf "%s/%s: explain %s failed: %s" domain
                p.Programs.name proc e
          | Ok x -> (
              incr explained;
              match x.Registry.x_violations with
              | [] -> ()
              | v :: _ as vs ->
                  Alcotest.failf
                    "%s/%s: %d unverified derivation edge(s), first: %s"
                    domain p.Programs.name (List.length vs)
                    (Fmt.str "%a" Explain.pp_violation v)))
        symtab.Symtab.order)
    Programs.all;
  Alcotest.(check bool)
    (domain ^ ": explained some entries")
    true (!explained > 0)

(* the matrix300 walkthrough: a constant literal in main, forwarded
   pass-through into the driver, consumed by a polynomial jump function
   — the chain must read back exactly *)
let test_matrix300_chain () =
  Provenance.with_enabled @@ fun () ->
  let _, d = analyze (program "matrix300") in
  let node =
    match
      Registry.explain ~domain:"const" d ~proc:"mxflop" ~param:"nops" ()
    with
    | Error e -> Alcotest.failf "explain mxflop.nops: %s" e
    | Ok x -> (
        (match x.Registry.x_violations with
        | [] -> ()
        | v :: _ ->
            Alcotest.failf "unverified edge: %s"
              (Fmt.str "%a" Explain.pp_violation v));
        match x.Registry.x_json with
        | Json.Arr [ node ] -> node
        | j -> Alcotest.failf "expected one tree, got %s" (Json.to_string j))
  in
  let str j name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> s
    | None -> Alcotest.failf "node missing %s in %s" name (Json.to_string j)
  in
  let deriv j =
    match Json.member "derivation" j with
    | Some (Json.Obj _ as d) -> d
    | _ -> Alcotest.failf "no derivation in %s" (Json.to_string j)
  in
  let child j =
    match Option.bind (Json.member "children" j) Json.to_list with
    | Some [ c ] -> c
    | Some cs -> Alcotest.failf "expected one child, got %d" (List.length cs)
    | None -> Alcotest.failf "no children array in %s" (Json.to_string j)
  in
  (* mxflop.nops = 440, from mxdrv's polynomial 2*n + n^2 *)
  Alcotest.(check string) "value" "440" (str node "value");
  Alcotest.(check string) "jf kind" "polynomial" (str (deriv node) "jf_kind");
  Alcotest.(check string) "caller" "mxdrv" (str (deriv node) "caller");
  (* ... whose support is mxdrv.n = 20 ... *)
  let n = child node in
  Alcotest.(check string) "support param" "n" (str n "parameter");
  Alcotest.(check string) "support value" "20" (str n "value");
  (* ... derived by a constant jump function at main's call site *)
  Alcotest.(check string) "seed jf" "const" (str (deriv n) "jf_kind");
  Alcotest.(check string) "seed caller" "matrix300" (str (deriv n) "caller")

(* pass-through link of the same chain: the kernels receive n unchanged *)
let test_matrix300_passthrough () =
  Provenance.with_enabled @@ fun () ->
  let _, d = analyze (program "matrix300") in
  match Registry.explain ~domain:"const" d ~proc:"mxk2" ~param:"n" () with
  | Error e -> Alcotest.failf "explain mxk2.n: %s" e
  | Ok x ->
      Alcotest.(check (list string)) "no violations" []
        (List.map
           (fun v -> Fmt.str "%a" Explain.pp_violation v)
           x.Registry.x_violations);
      Alcotest.(check bool) "pass-through edge rendered" true
        (Astring.String.is_infix ~affix:"jf passthrough ⟨n⟩ = 20"
           x.Registry.x_text)

let test_disabled () =
  (* Provenance is off by default: the solver must record nothing and
     explain must say so rather than fabricate a tree *)
  Alcotest.(check bool) "switch off by default" false (Provenance.on ());
  let symtab, d = analyze (program "adm") in
  Alcotest.(check bool) "no provenance on the solver" true
    (d.Driver.solver.Solver.prov = None);
  match Registry.explain ~domain:"const" d ~proc:symtab.Symtab.main () with
  | Ok _ -> Alcotest.fail "explain succeeded without recorded provenance"
  | Error e ->
      Alcotest.(check bool) "error names the switch" true
        (Astring.String.is_infix ~affix:"disabled" e)

(* explain --contexts: every value domain explains ctxdemo's table, the
   summary line counts the edges the JSON lists, and every edge creates
   a context of a procedure the table holds; a flow problem or an
   unknown name is refused *)
let test_contexts () =
  let _, d = analyze (Option.get (Programs.by_name "ctxdemo")) in
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "missing %s in %s" name (Json.to_string j)
  in
  let list j = Option.value ~default:[] (Json.to_list j) in
  let str name j = Option.get (Json.to_str (field name j)) in
  List.iter
    (fun domain ->
      match Registry.explain_contexts ~domain d with
      | Error e -> Alcotest.failf "%s: %s" domain e
      | Ok rep ->
          let edges = list (field "creation_edges" rep.Registry.r_json) in
          let procs =
            list (field "procedures" (field "contexts" rep.Registry.r_json))
            |> List.map (str "procedure")
          in
          Alcotest.(check bool)
            (domain ^ ": edge count line") true
            (Astring.String.is_infix
               ~affix:
                 (Fmt.str "context creation edges: %d\n" (List.length edges))
               rep.Registry.r_text);
          Alcotest.(check bool) (domain ^ ": some edges") true (edges <> []);
          List.iter
            (fun e ->
              let p = str "procedure" e in
              if not (List.mem p procs) then
                Alcotest.failf "%s: edge creates a context of %s, not in \
                                the table" domain p)
            edges)
    Registry.value_names;
  List.iter
    (fun domain ->
      match Registry.explain_contexts ~domain d with
      | Ok _ -> Alcotest.failf "%s: explained" domain
      | Error e ->
          Alcotest.(check bool)
            (domain ^ ": refused") true
            (Astring.String.is_prefix
               ~affix:"unknown context-sensitive domain" e))
    [ "live"; "nosuch" ]

let suites =
  [
    ( "explain",
      [
        Alcotest.test_case "differential: const over the suite" `Quick
          (test_differential "const");
        Alcotest.test_case "differential: copyprop over the suite" `Quick
          (test_differential "copyprop");
        Alcotest.test_case "differential: interval over the suite" `Quick
          (test_differential "interval");
        Alcotest.test_case "matrix300 polynomial chain" `Quick
          test_matrix300_chain;
        Alcotest.test_case "matrix300 pass-through link" `Quick
          test_matrix300_passthrough;
        Alcotest.test_case "disabled provenance explains nothing" `Quick
          test_disabled;
        Alcotest.test_case "contexts: creation edges of every value domain"
          `Quick test_contexts;
      ] );
  ]
