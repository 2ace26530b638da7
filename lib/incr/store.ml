(** Versioned on-disk cache store (hand-rolled container, no new deps).

    A cache directory holds, flat, one {e manifest} per cache key and the
    immutable {e objects} its manifests name.  Both are files of one
    small self-describing envelope around an opaque payload:

    {v
    IPCP-CACHE <format-version>\n
    ocaml <Sys.ocaml_version>\n
    sum <MD5 hex of payload>\n
    len <payload byte count>\n
    <payload bytes>
    v}

    The payload is produced by the caller (the incremental engine
    marshals its manifest and its per-procedure objects into them).  The
    checksum is verified {e before} the payload is handed back, so a
    truncated or bit-flipped file can never reach [Marshal.from_string]
    — it is reported as [Corrupt] and the caller falls back to
    recomputing.  The format version and the OCaml runtime version are
    both part of validity: either changing reads as [Stale], again
    forcing a cold run rather than a crash.

    A manifest is [<stem>.ipcpc] and an object it names is
    [<stem>.<name>.ipcpo], where the stem is a sanitised prefix of the
    key plus a digest of it: the objects of one key sit beside its
    manifest, and no two keys share a file. *)

(** Bump whenever the marshalled manifest or object layout changes, or
    when a manifest's replayed statistics would differ from a fresh
    run's. *)
let format_version = 6

let magic = "IPCP-CACHE"

let manifest_extension = ".ipcpc"

let object_extension = ".ipcpo"

type load_error =
  | Missing  (** no entry for this key *)
  | Stale of string  (** recognised but unusable: version/runtime skew *)
  | Corrupt of string  (** unreadable or failed the checksum *)

let load_error_to_string = function
  | Missing -> "missing"
  | Stale r -> "stale: " ^ r
  | Corrupt r -> "corrupt: " ^ r

(* Keys are arbitrary strings (file paths, suite program names); the
   stem keeps a sanitised prefix for humans and a digest suffix for
   uniqueness.  It never contains a '.', so [<stem>.] prefixes exactly
   one key's files. *)
let stem ~key =
  let sane =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '-')
      (Filename.basename key)
  in
  let sane = if String.length sane > 40 then String.sub sane 0 40 else sane in
  Fmt.str "%s-%s" sane (String.sub (Digest.to_hex (Digest.string key)) 0 12)

let entry_path ~dir ~key = Filename.concat dir (stem ~key ^ manifest_extension)

let object_file ~key name = Fmt.str "%s.%s%s" (stem ~key) name object_extension

let object_path ~dir ~key name = Filename.concat dir (object_file ~key name)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

(** Atomic write of one envelope: a temporary file in the same
    directory, then a rename over [path], so a reader never observes a
    half-written file.  Returns the payload's checksum. *)
let write path (payload : string) : (string, string) result =
  try
    mkdir_p (Filename.dirname path);
    let sum = Digest.to_hex (Digest.string payload) in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Fmt.str "%s %d\nocaml %s\nsum %s\nlen %d\n" magic format_version
             Sys.ocaml_version sum (String.length payload));
        output_string oc payload);
    Sys.rename tmp path;
    Ok sum
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

type envelope = { sum : string; payload : string }

let parse (contents : string) : (envelope, load_error) result =
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
        else Ok { sum; payload }

let read path : (envelope, load_error) result =
  if not (Sys.file_exists path) then Error Missing
  else
    match read_file path with
    | exception Sys_error e -> Error (Corrupt e)
    | exception End_of_file -> Error (Corrupt "truncated file")
    | contents -> parse contents

(* ------------------------------------------------------------------ *)
(* Objects *)

(** The names of [key]'s objects present in [dir]. *)
let objects ~dir ~key : string list =
  let prefix = stem ~key ^ "." in
  if not (Sys.file_exists dir) then []
  else
    Array.fold_left
      (fun acc f ->
        if
          String.starts_with ~prefix f
          && Filename.check_suffix f object_extension
        then
          String.sub f (String.length prefix)
            (String.length f - String.length prefix
            - String.length object_extension)
          :: acc
        else acc)
      [] (Sys.readdir dir)

let remove_object ~dir ~key name =
  try Sys.remove (object_path ~dir ~key name) with Sys_error _ -> ()

(* A pack is one object holding many: the (name, payload) pairs of the
   objects one commit writes.  A cold populate writes its objects as a
   pack, as creating a file for each of thousands of objects costs more
   than all the rest of the populate on some file systems. *)
let write_pack ~dir ~key (objects : (string * string) list) :
    (string, string) result =
  let payload = Marshal.to_string objects [] in
  let name = "p" ^ Digest.to_hex (Digest.string payload) in
  Result.map (fun _ -> name) (write (object_path ~dir ~key name) payload)

let read_pack ~dir ~key name : ((string, string) Hashtbl.t, load_error) result =
  Result.bind (read (object_path ~dir ~key name)) (fun env ->
      match (Marshal.from_string env.payload 0 : (string * string) list) with
      | objects ->
          let tbl = Hashtbl.create (List.length objects) in
          List.iter (fun (n, p) -> Hashtbl.replace tbl n p) objects;
          Ok tbl
      | exception _ -> Error (Corrupt "pack does not decode"))

(* ------------------------------------------------------------------ *)
(* Management (the [ipcp cache] subcommand) *)

let file_size path =
  try In_channel.with_open_bin path (fun ic -> Int64.to_int (In_channel.length ic))
  with Sys_error _ -> 0

type entry_info = {
  ei_file : string;  (** the manifest's file name within the directory *)
  ei_bytes : int;  (** the manifest's bytes plus those of its objects *)
  ei_objects : int;  (** objects the manifest names *)
  ei_status : (unit, load_error) result;
      (** the manifest's validity, then that of every object it names *)
}

(* Every manifest of [dir], sorted by file name.  [objects_of] decodes a
   manifest's payload into the names of the objects it refers to and the
   pack it names; each of those objects must be present, as a file or in
   the pack, and pass its checksum for the entry to be healthy. *)
let entries ~(objects_of : string -> (string list * string option) option) dir
    : entry_info list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f manifest_extension)
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           let bytes = file_size path in
           let stem = Filename.chop_suffix f manifest_extension in
           let object_path name =
             Filename.concat dir (Fmt.str "%s.%s%s" stem name object_extension)
           in
           match Result.map (fun e -> objects_of e.payload) (read path) with
           | Error e ->
               { ei_file = f; ei_bytes = bytes; ei_objects = 0; ei_status = Error e }
           | Ok None ->
               {
                 ei_file = f;
                 ei_bytes = bytes;
                 ei_objects = 0;
                 ei_status = Error (Corrupt "manifest does not decode");
               }
           | Ok (Some (names, pack)) ->
               let packed =
                 match pack with
                 | None -> Hashtbl.create 0
                 | Some p -> (
                     match read (object_path p) with
                     | Ok e -> (
                         match (Marshal.from_string e.payload 0 : (string * string) list) with
                         | l -> Hashtbl.of_seq (List.to_seq l)
                         | exception _ -> Hashtbl.create 0)
                     | Error _ -> Hashtbl.create 0)
               in
               let bad =
                 List.filter
                   (fun n ->
                     match read (object_path n) with
                     | Ok _ -> false
                     | Error Missing -> not (Hashtbl.mem packed n)
                     | Error _ -> true)
                   names
               in
               let files = Option.to_list pack @ names in
               {
                 ei_file = f;
                 ei_bytes =
                   List.fold_left
                     (fun b n -> b + file_size (object_path n))
                     bytes (List.sort_uniq compare files);
                 ei_objects = List.length names;
                 ei_status =
                   (if bad = [] then Ok ()
                    else
                      Error
                        (Corrupt
                           (Fmt.str "%d of %d object(s) missing or corrupt"
                              (List.length bad) (List.length names))));
               })

(** Remove every manifest and object (and stray temporaries); returns
    the number of manifests removed.  The directory itself is kept. *)
let clear dir : int =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n f ->
        let is ext = Filename.check_suffix f ext in
        if
          is manifest_extension || is object_extension
          || is (manifest_extension ^ ".tmp")
          || is (object_extension ^ ".tmp")
        then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          if is manifest_extension then n + 1 else n
        end
        else n)
      0 (Sys.readdir dir)
