(** Benchmark regression gating: a fresh run's rows against a committed
    baseline ([BENCH_ipcp.json]).

    Per row the delta is the ratio [now / base]; a row regresses when
    the ratio exceeds [1 + tolerance] and improves below
    [1 - tolerance].  The tolerance is a noise threshold, not a
    precision claim — CI runs the harness on shared machines, so only
    the gating outcome ([any regression?]) is stable enough to act on,
    and the threshold must be wide enough that scheduler jitter cannot
    trip it.

    Rows present on one side only ([New]/[Removed]) and rows without a
    usable estimate on either side ([Unfit], e.g. a failed OLS fit
    serialized as [null]) are reported but never gate.  The text table
    goes to stdout and the same content is written as a JSON delta
    report for CI artifact upload. *)

module Json = Ipcp_obs.Json

type status = Ok_ | Regression | Improvement | New | Removed | Unfit | Meta

let status_name = function
  | Ok_ -> "ok"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | New -> "new"
  | Removed -> "removed"
  | Unfit -> "unfit"
  | Meta -> "meta"

(* [meta:*] rows carry machine facts (core count), not timings: always
   reported, never gated — a baseline recorded on different hardware is
   information, not a regression *)
let is_meta name = String.length name >= 5 && String.sub name 0 5 = "meta:"

type delta = {
  d_name : string;
  d_base : float option;  (** ns/run in the baseline; [None] = absent/null *)
  d_now : float option;
  d_ratio : float option;
  d_status : status;
}

(* ------------------------------------------------------------------ *)
(* Baseline I/O *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Ok (really_input_string ic (in_channel_length ic))
          with Sys_error e -> Error e)

(** Parse a flat benchmark-name → ns/run object; [null] (a failed OLS
    fit) loads as [None]. *)
let load_baseline path : ((string * float option) list, string) result =
  match read_file path with
  | Error e -> Error e
  | Ok text -> (
      match Json.parse text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok (Json.Obj kvs) ->
          Ok (List.map (fun (k, v) -> (k, Json.to_float v)) kvs)
      | Ok _ -> Error (path ^ ": expected a flat JSON object"))

(* ------------------------------------------------------------------ *)
(* Delta computation *)

let finite f = if Float.is_finite f then Some f else None

let deltas ~tolerance ~(baseline : (string * float option) list)
    ~(rows : (string * float) list) : delta list =
  let fresh =
    List.map
      (fun (name, ns) ->
        let now = finite ns in
        let base = Option.join (List.assoc_opt name baseline) in
        let d_ratio, d_status =
          match (base, now, List.mem_assoc name baseline) with
          | _ when is_meta name -> (None, Meta)
          | _, _, false -> (None, New)
          | None, _, true | _, None, true -> (None, Unfit)
          | Some b, Some nw, true ->
              let r = nw /. b in
              ( Some r,
                if r > 1.0 +. tolerance then Regression
                else if r < 1.0 -. tolerance then Improvement
                else Ok_ )
        in
        { d_name = name; d_base = base; d_now = now; d_ratio; d_status })
      rows
  in
  let removed =
    List.filter_map
      (fun (name, base) ->
        if List.mem_assoc name rows then None
        else
          Some
            {
              d_name = name;
              d_base = base;
              d_now = None;
              d_ratio = None;
              d_status = Removed;
            })
      baseline
  in
  fresh @ removed

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_ns ppf = function
  | None -> Fmt.pf ppf "%10s" "-"
  | Some ns ->
      if ns > 1e9 then Fmt.pf ppf "%8.2f s" (ns /. 1e9)
      else if ns > 1e6 then Fmt.pf ppf "%7.2f ms" (ns /. 1e6)
      else if ns > 1e3 then Fmt.pf ppf "%7.2f us" (ns /. 1e3)
      else Fmt.pf ppf "%7.0f ns" ns

let render_text ~tolerance ds =
  Fmt.pr "@.Benchmark deltas vs baseline (tolerance %.0f%%)@."
    (tolerance *. 100.0);
  Fmt.pr "%-32s %10s %10s %8s  %s@." "benchmark" "base" "now" "ratio"
    "status";
  let pp_raw ppf = function
    | None -> Fmt.pf ppf "%10s" "-"
    | Some v -> Fmt.pf ppf "%10.0f" v
  in
  List.iter
    (fun d ->
      let pp = if d.d_status = Meta then pp_raw else pp_ns in
      Fmt.pr "%-32s %a %a %8s  %s@." d.d_name pp d.d_base pp d.d_now
        (match d.d_ratio with
        | Some r -> Fmt.str "%.2fx" r
        | None -> "-")
        (status_name d.d_status))
    ds;
  let n st = List.length (List.filter (fun d -> d.d_status = st) ds) in
  Fmt.pr
    "summary: %d ok, %d regression(s), %d improvement(s), %d new, %d \
     removed, %d unfit, %d meta@."
    (n Ok_) (n Regression) (n Improvement) (n New) (n Removed) (n Unfit)
    (n Meta)

let report_json ~tolerance ds : Json.t =
  let num = function None -> Json.Null | Some f -> Json.Num f in
  Json.Obj
    [
      ("tolerance", Json.Num tolerance);
      ( "rows",
        Json.Arr
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("name", Json.Str d.d_name);
                   ("base_ns", num d.d_base);
                   ("now_ns", num d.d_now);
                   ("ratio", num d.d_ratio);
                   ("status", Json.Str (status_name d.d_status));
                 ])
             ds) );
      ( "regressions",
        Json.Arr
          (List.filter_map
             (fun d ->
               if d.d_status = Regression then Some (Json.Str d.d_name)
               else None)
             ds) );
    ]

(* ------------------------------------------------------------------ *)

(** Compare, print, write the delta report, and return [true] iff any
    row regressed beyond the tolerance.  Takes the baseline already
    parsed: the harness overwrites [BENCH_ipcp.json] with the fresh rows
    when it finishes, so the caller must load the baseline {e before}
    running the benchmarks. *)
let run ~(baseline : (string * float option) list) ~report_file ~tolerance
    ~(rows : (string * float) list) : bool =
  let ds = deltas ~tolerance ~baseline ~rows in
  render_text ~tolerance ds;
  let oc = open_out report_file in
  output_string oc (Json.to_string (report_json ~tolerance ds));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." report_file;
  List.exists (fun d -> d.d_status = Regression) ds
