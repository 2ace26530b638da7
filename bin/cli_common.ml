(** Shared command-line plumbing for the [ipcp] subcommands: file
    loading, the analysis-configuration term, the telemetry options and
    the cache-policy term, the output format. *)

open Cmdliner
module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp.Config
module Obs = Ipcp_obs.Obs
module Trace = Ipcp_obs.Trace
module Metrics = Ipcp_obs.Metrics
module Report = Ipcp_obs.Report
module Json = Ipcp_obs.Json

let or_die = function
  | Ok v -> v
  | Error e ->
      Fmt.epr "ipcp: %s@." e;
      exit 1

let load_source path = or_die (Ipcp.Source.of_file path)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Configuration *)

let jf_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "literal" -> Ok Config.Literal
    | "intra" | "intraprocedural" -> Ok Config.Intraconst
    | "pass" | "pass-through" | "passthrough" -> Ok Config.Passthrough
    | "poly" | "polynomial" -> Ok Config.Polynomial
    | _ -> Error (`Msg (Fmt.str "unknown jump function kind %S" s))
  in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Config.jf_kind_name k))

let jf_arg =
  let doc =
    "Forward jump function implementation: literal, intra, pass, or poly."
  in
  Arg.(value & opt jf_conv Config.Passthrough & info [ "jf" ] ~doc)

let no_mod =
  Arg.(
    value & flag
    & info [ "no-mod" ]
        ~doc:
          "Disable interprocedural MOD information (worst-case call \
           effects).")

let no_retjf =
  Arg.(
    value & flag
    & info [ "no-return-jfs" ] ~doc:"Disable return jump functions.")

let symret =
  Arg.(
    value & flag
    & info [ "symbolic-returns" ]
        ~doc:
          "Evaluate return jump functions symbolically over the caller's \
           entry values (extension beyond the paper).")

let no_verify =
  Arg.(
    value & flag
    & info [ "no-verify" ]
        ~doc:"Skip the structural IR/SSA verifier between pipeline stages.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for per-procedure pipeline stages.  1 forces \
           the sequential path; results are identical either way.  \
           Default (or 0): $(b,IPCP_JOBS), else the machine's \
           recommended domain count.")

let config_term =
  let make jf no_mod no_retjf symret no_verify jobs =
    {
      Config.jf;
      return_jfs = not no_retjf;
      use_mod = not no_mod;
      symbolic_returns = symret;
      verify_ir = not no_verify;
      jobs = (if jobs <= 0 then Ipcp_par.Pool.default_jobs () else jobs);
    }
  in
  Term.(
    const make $ jf_arg $ no_mod $ no_retjf $ symret $ no_verify $ jobs_arg)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"MiniFortran source file.")

(* ------------------------------------------------------------------ *)
(* Cache policy *)

let cache_flag_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          (Fmt.str
             "Enable the incremental cache: persist per-procedure \
              analysis artifacts (under %s, or $(b,--cache-dir)) and \
              replay whatever a previous run of the same file still \
              justifies." Ipcp.Cache.default_dir))

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Cache directory; implies $(b,--cache).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Force a from-scratch analysis with no cache I/O (overrides \
           $(b,--cache)).")

(** [--cache] / [--cache-dir DIR] / [--no-cache] -> a
    {!Ipcp.Cache.policy}.  [default] is used when no flag is given
    ([Disabled] for one-shot commands; [watch] defaults to the
    conventional directory). *)
let cache_term ?(default = Ipcp.Cache.Disabled) () =
  let make flag dir no_cache =
    if no_cache then Ipcp.Cache.Disabled
    else
      match dir with
      | Some d -> Ipcp.Cache.Dir d
      | None -> if flag then Ipcp.Cache.Dir Ipcp.Cache.default_dir else default
  in
  Term.(const make $ cache_flag_arg $ cache_dir_arg $ no_cache_arg)

(* ------------------------------------------------------------------ *)
(* Output format (analyze, explain, lint, compare-precision, stats) *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

(* ------------------------------------------------------------------ *)
(* Telemetry options (shared by analyze/substitute/complete/lint) *)

type obs_opts = {
  o_trace : string option;  (** write a Chrome trace-event file here *)
  o_stats : bool;  (** print the metrics registry on stderr *)
  o_format : [ `Text | `Json ];
}

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record nested phase spans and write them as Chrome \
             trace-event JSON to $(docv) (loadable in Perfetto or \
             chrome://tracing).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect telemetry counters (solver, passes, Gc) and print \
             them on stderr when the command finishes.")
  in
  let format_arg =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
      & info [ "stats-format" ] ~docv:"FMT"
          ~doc:"Stats rendering: text or json.  Implies $(b,--stats).")
  in
  let make trace stats format =
    {
      o_trace = trace;
      o_stats = stats || format <> None;
      o_format = Option.value ~default:`Text format;
    }
  in
  Term.(const make $ trace_arg $ stats_arg $ format_arg)

(** Run [f] with telemetry enabled if any output was requested, then emit
    the requested artifacts.  The trace goes to its file; stats go to
    stderr so they never corrupt a command's stdout (substituted source,
    lint JSON, ...). *)
let with_obs (o : obs_opts) f =
  let active = o.o_trace <> None || o.o_stats in
  if active then begin
    Obs.set_enabled true;
    Trace.reset ();
    Metrics.reset ()
  end;
  let finish () =
    if active then begin
      (match o.o_trace with
      | Some path -> write_file path (Trace.export_chrome ())
      | None -> ());
      if o.o_stats then
        match o.o_format with
        | `Text -> Fmt.epr "%a" Report.pp_text ()
        | `Json -> Fmt.epr "%s@." (Json.to_string (Report.snapshot_json ()))
    end
  in
  Fun.protect ~finally:finish f

(* JSON stats must be the only thing on stderr, or `2>stats.json` would
   not parse: informational "!" summaries are dropped in that mode *)
let note (o : obs_opts) fmt =
  if o.o_stats && o.o_format = `Json then
    Format.ifprintf Format.err_formatter fmt
  else Fmt.epr fmt

(** One-line cache summary for the "!" stderr channel. *)
let cache_note (o : obs_opts) (r : Ipcp.Cache.report) =
  if r.Ipcp.Cache.r_enabled then
    match r.Ipcp.Cache.r_cold with
    | Some reason -> note o "! cache: cold (%s)@." reason
    | None ->
        note o "! cache: warm, %d/%d procedure(s) reanalyzed%s@."
          r.Ipcp.Cache.r_dirty r.Ipcp.Cache.r_procs
          (if r.Ipcp.Cache.r_fixpoint_reused then ", fixpoint replayed"
           else "")

(* ------------------------------------------------------------------ *)
(* Serve client *)

(** The CLI's client of the analysis server: typed helpers over
    {!Ipcp_serve.Client} shared by [watch] (in-process endpoint) and
    [loadgen] (either endpoint).  Every helper unwraps the JSON-RPC
    envelope; errors come back as rendered ["code: message"] strings
    ready for {!or_die}. *)
module Client = struct
  module C = Ipcp_serve.Client

  type t = C.t

  let in_process ?config ?cache () =
    C.in_process (Ipcp_serve.Server.create ?config ?cache ())

  let connect path = or_die (C.connect path)
  let close = C.close

  let rpc cl ~meth params =
    match C.request cl ~meth params with
    | Ok json -> Ok json
    | Error (code, msg) -> Error (Fmt.str "%s: [%d] %s" meth code msg)

  (** What one open/update reports: the session generation and the
      incremental work it did. *)
  type dirty = { generation : int; procs : int; changed : int; dirty : int }

  let dirty_of json =
    let d = Option.value ~default:json (Json.member "dirty" json) in
    let int k =
      Option.value ~default:0 (Option.bind (Json.member k d) Json.to_int)
    in
    {
      generation = int "generation";
      procs = int "procs";
      changed = int "changed";
      dirty = int "dirty";
    }

  let open_session ?cache_dir cl (src : Ipcp.Source.t) =
    let params =
      [
        ("source", Json.Str (Ipcp.Source.text src));
        ("file", Json.Str (Ipcp.Source.file src));
      ]
      @
      match cache_dir with
      | Some d -> [ ("cache_dir", Json.Str d) ]
      | None -> []
    in
    Result.bind (rpc cl ~meth:"open" params) (fun json ->
        match Option.bind (Json.member "session" json) Json.to_int with
        | Some sid -> Ok (sid, dirty_of json)
        | None -> Error "open: response carries no session id")

  let update cl ~session (src : Ipcp.Source.t) =
    Result.map dirty_of
      (rpc cl ~meth:"update"
         [
           ("session", Json.Int session);
           ("source", Json.Str (Ipcp.Source.text src));
           ("file", Json.Str (Ipcp.Source.file src));
         ])

  let analyze cl ~session =
    rpc cl ~meth:"analyze" [ ("session", Json.Int session) ]

  (** The [substituted] count of an [analyze] payload — what the watch
      summary line reports. *)
  let substituted json =
    Option.value ~default:0
      (Option.bind (Json.member "substituted" json) Json.to_int)
end
