(** Versioned on-disk cache store (hand-rolled container, no new deps).

    One file per cache key under the cache directory.  Each file is a
    small self-describing envelope around an opaque payload:

    {v
    IPCP-CACHE <format-version>\n
    ocaml <Sys.ocaml_version>\n
    sum <MD5 hex of payload>\n
    len <payload byte count>\n
    <payload bytes>
    v}

    The payload is produced by the caller (the incremental engine
    marshals its snapshot into it).  The checksum is verified {e before}
    the payload is handed back, so a truncated or bit-flipped file can
    never reach [Marshal.from_string] — it is reported as [Corrupt] and
    the caller falls back to a cold run.  The format version and the
    OCaml runtime version are both part of validity: either changing
    reads as [Stale], again forcing a cold run rather than a crash. *)

(** Bump whenever the marshalled snapshot layout changes, or when a
    snapshot's replayed statistics would differ from a fresh run's. *)
let format_version = 4

let magic = "IPCP-CACHE"

let file_extension = ".ipcpc"

type load_error =
  | Missing  (** no entry for this key *)
  | Stale of string  (** recognised but unusable: version/runtime skew *)
  | Corrupt of string  (** unreadable or failed the checksum *)

let load_error_to_string = function
  | Missing -> "missing"
  | Stale r -> "stale: " ^ r
  | Corrupt r -> "corrupt: " ^ r

(* Keys are arbitrary strings (file paths, suite program names); the
   file name keeps a sanitised prefix for humans and a digest suffix for
   uniqueness. *)
let entry_file ~key =
  let sane =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '-')
      (Filename.basename key)
  in
  let sane = if String.length sane > 40 then String.sub sane 0 40 else sane in
  Fmt.str "%s-%s%s" sane
    (String.sub (Digest.to_hex (Digest.string key)) 0 12)
    file_extension

let entry_path ~dir ~key = Filename.concat dir (entry_file ~key)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let header ~payload =
  Fmt.str "%s %d\nocaml %s\nsum %s\nlen %d\n" magic format_version
    Sys.ocaml_version
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(** Atomic save: write a temporary file in the cache directory, then
    rename it over the entry, so a reader never observes a half-written
    envelope. *)
let save ~dir ~key (payload : string) : (unit, string) result =
  try
    mkdir_p dir;
    let path = entry_path ~dir ~key in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc (header ~payload);
    output_string oc payload;
    close_out oc;
    Sys.rename tmp path;
    Ok ()
  with Sys_error e -> Error e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* one header line: "<tag> <value>\n" starting at [pos]; returns the
   value and the position past the newline *)
let header_line s pos tag =
  match String.index_from_opt s pos '\n' with
  | None -> Error (Fmt.str "truncated header (no %s line)" tag)
  | Some nl ->
      let line = String.sub s pos (nl - pos) in
      let prefix = tag ^ " " in
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        Ok
          ( String.sub line (String.length prefix)
              (String.length line - String.length prefix),
            nl + 1 )
      else Error (Fmt.str "bad %s line %S" tag line)

let parse (contents : string) : (string, load_error) result =
  let ( let* ) r f =
    match r with Ok v -> f v | Error e -> Error (Corrupt e)
  in
  let* tag, pos = header_line contents 0 magic in
  let* version =
    match int_of_string_opt tag with
    | Some v -> Ok (v, pos)
    | None -> Error (Fmt.str "bad format version %S" tag)
  in
  let version, pos = version in
  if version <> format_version then
    Error
      (Stale
         (Fmt.str "cache format version %d, this build writes %d" version
            format_version))
  else
    let* ocaml, pos = header_line contents pos "ocaml" in
    if ocaml <> Sys.ocaml_version then
      Error
        (Stale
           (Fmt.str "written by OCaml %s, this build is %s" ocaml
              Sys.ocaml_version))
    else
      let* sum, pos = header_line contents pos "sum" in
      let* len, pos = header_line contents pos "len" in
      let* len =
        match int_of_string_opt len with
        | Some n -> Ok (n, pos)
        | None -> Error (Fmt.str "bad payload length %S" len)
      in
      let len, pos = len in
      if String.length contents - pos <> len then
        Error
          (Corrupt
             (Fmt.str "payload length %d, expected %d"
                (String.length contents - pos)
                len))
      else
        let payload = String.sub contents pos len in
        if Digest.to_hex (Digest.string payload) <> sum then
          Error (Corrupt "payload checksum mismatch")
        else Ok payload

let load ~dir ~key : (string, load_error) result =
  let path = entry_path ~dir ~key in
  if not (Sys.file_exists path) then Error Missing
  else
    match read_file path with
    | exception Sys_error e -> Error (Corrupt e)
    | exception End_of_file -> Error (Corrupt "truncated file")
    | contents -> parse contents

(* ------------------------------------------------------------------ *)
(* Management (the [ipcp cache] subcommand) *)

type entry_info = {
  ei_file : string;  (** file name within the cache directory *)
  ei_bytes : int;
  ei_status : (unit, load_error) result;  (** envelope validity *)
}

let entries dir : entry_info list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f file_extension then
             let path = Filename.concat dir f in
             let contents = try Some (read_file path) with _ -> None in
             match contents with
             | None ->
                 Some
                   {
                     ei_file = f;
                     ei_bytes = 0;
                     ei_status = Error (Corrupt "unreadable");
                   }
             | Some c ->
                 Some
                   {
                     ei_file = f;
                     ei_bytes = String.length c;
                     ei_status = Result.map (fun _ -> ()) (parse c);
                   }
           else None)

(** Remove every cache entry (and stray temporaries); returns the number
    of files removed.  The directory itself is kept. *)
let clear dir : int =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n f ->
        if
          Filename.check_suffix f file_extension
          || Filename.check_suffix f (file_extension ^ ".tmp")
        then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n + 1
        end
        else n)
      0 (Sys.readdir dir)
