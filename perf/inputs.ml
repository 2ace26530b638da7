(** The benchmark's inputs: generated programs and copies of the
    bundled suite, fixed as files under [perf/inputs] so that a later
    change to the generator or the suite cannot silently change what is
    measured.  With an input seed the generated programs are made anew
    in memory, with the same parameters and another seed, for held-out
    runs. *)

module G = Ipcp_gen.Generator

type t = { file : string; text : string }

let default_gen_seed = 11

let gen_file n = Printf.sprintf "gen-mixed-%d.f" n

(* the make-up of every generated input, spelled out so that a change
   to the generator's presets does not change it *)
let gen_params ~seed n =
  {
    G.n_procs = n;
    n_globals = 4;
    max_stmts = 10;
    max_depth = 2;
    initialised = true;
    seed;
    shape = G.Mixed;
  }

let generate ~seed n = G.generate ~params:(gen_params ~seed n) ()

let read path = In_channel.with_open_bin path In_channel.input_all

let generated ~dir ~input_seed n =
  match input_seed with
  | None -> { file = gen_file n; text = read (Filename.concat dir (gen_file n)) }
  | Some seed -> { file = gen_file n; text = generate ~seed n }

let suite_dir dir = Filename.concat dir "suite"

(** Every suite copy, in file-name order. *)
let suite ~dir =
  Sys.readdir (suite_dir dir)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".f")
  |> List.sort compare
  |> List.map (fun f -> { file = f; text = read (Filename.concat (suite_dir dir) f) })

let sizes = [ 100; 1000; 2000 ]

(** Write the fixed inputs into [dir]. *)
let make ~dir =
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  if not (Sys.file_exists (suite_dir dir)) then Sys.mkdir (suite_dir dir) 0o755;
  List.iter
    (fun n ->
      write (Filename.concat dir (gen_file n)) (generate ~seed:default_gen_seed n))
    sizes;
  List.iter
    (fun (p : Ipcp_suite.Programs.program) ->
      write (Filename.concat (suite_dir dir) (p.Ipcp_suite.Programs.name ^ ".f")) p.source)
    (Ipcp_suite.Programs.all @ Ipcp_suite.Programs.extras)
