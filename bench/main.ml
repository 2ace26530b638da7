(** The benchmark harness: regenerates every table and figure of the paper
    over the synthetic suite, prints the §3.1.5 ablations, then runs the
    bechamel timing benchmarks (one [Test.make] per artifact).

    [dune exec bench/main.exe] — add [--no-timing] for the tables only.

    Regression gating: [--compare BASELINE.json] loads a previous run's
    [BENCH_ipcp.json], prints per-row deltas against the fresh run,
    writes a JSON delta report ([--report FILE], default
    [BENCH_delta.json]) and exits nonzero if any row slowed down by more
    than the tolerance ([--tolerance R], a ratio; default 0.5 = 50%).
    The baseline is loaded before the benchmarks run, because the
    harness rewrites [BENCH_ipcp.json] in place. *)

let () =
  let argv = Array.to_list Sys.argv in
  let flag f = List.mem f argv in
  let rec value_of key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> value_of key rest
    | [] -> None
  in
  let timing = not (flag "--no-timing") in
  let compare_file = value_of "--compare" argv in
  let report_file =
    Option.value ~default:"BENCH_delta.json" (value_of "--report" argv)
  in
  let tolerance =
    match value_of "--tolerance" argv with
    | None -> 0.5
    | Some s -> (
        match float_of_string_opt s with
        | Some t when t > 0.0 -> t
        | _ ->
            Fmt.epr "bench: --tolerance wants a positive ratio, got %s@." s;
            exit 2)
  in
  (* before the run: the harness overwrites BENCH_ipcp.json on finish *)
  let baseline =
    Option.map
      (fun path ->
        match Compare.load_baseline path with
        | Ok b -> b
        | Error e ->
            Fmt.epr "bench: cannot load baseline: %s@." e;
            exit 2)
      compare_file
  in
  Tables.print_table1 ();
  Tables.print_table2 ();
  Tables.print_table3 ();
  Tables.print_figure1 ();
  Tables.print_ablation ();
  Tables.print_extensions ();
  Tables.print_cloning ();
  Tables.print_zoo ();
  if timing then begin
    let rows = Timing.run () in
    match baseline with
    | None -> ()
    | Some baseline ->
        if Compare.run ~baseline ~report_file ~tolerance ~rows then begin
          Fmt.epr "bench: performance regression beyond %.0f%% tolerance@."
            (tolerance *. 100.0);
          exit 1
        end
  end
