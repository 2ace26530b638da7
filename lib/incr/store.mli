(** Versioned on-disk cache store: per cache key, one checksummed
    manifest and the immutable objects it names, stored flat in the
    cache directory.  Payloads are opaque strings; the checksum is
    verified before a payload is returned, so corruption surfaces as
    [Corrupt] (→ recompute), never as a crash in the unmarshaller. *)

val format_version : int
(** Bumped whenever the manifest or object layout changes, or a
    manifest's replayed statistics would differ from a fresh run's; a
    mismatch reads as [Stale]. *)

type load_error =
  | Missing  (** no such file *)
  | Stale of string  (** format-version or OCaml-runtime skew *)
  | Corrupt of string  (** unreadable, truncated, or checksum failure *)

val load_error_to_string : load_error -> string

type envelope = { sum : string  (** the payload's checksum *); payload : string }

val write : string -> string -> (string, string) result
(** [write path payload]: atomic write (temp file + rename) of one
    envelope, creating the directory if needed.  Returns the payload's
    checksum. *)

val read : string -> (envelope, load_error) result
(** Read and verify the envelope at a path. *)

val entry_path : dir:string -> key:string -> string
(** The manifest of [key]. *)

val object_path : dir:string -> key:string -> string -> string
(** The file of [key]'s object [name] ([name] is a file-name-safe
    string chosen by the caller). *)

val objects : dir:string -> key:string -> string list
(** The names of [key]'s objects present in the directory. *)

val remove_object : dir:string -> key:string -> string -> unit

val write_pack :
  dir:string -> key:string -> (string * string) list -> (string, string) result
(** Write many objects, given as (name, payload), as one object, a
    {e pack}; returns the pack's name. *)

val read_pack :
  dir:string -> key:string -> string -> ((string, string) Hashtbl.t, load_error) result
(** The objects of the pack of that name, by name. *)

type entry_info = {
  ei_file : string;  (** the manifest's file name within the directory *)
  ei_bytes : int;  (** the manifest's bytes plus those of its objects *)
  ei_objects : int;  (** objects the manifest names *)
  ei_status : (unit, load_error) result;
      (** the manifest's validity, then that of every object it names *)
}

val entries :
  objects_of:(string -> (string list * string option) option) ->
  string ->
  entry_info list
(** Inventory of a cache directory, one entry per manifest (for [ipcp
    cache stat]).  [objects_of] decodes a manifest payload into the
    names of its objects and of the pack that may hold some of them
    ([None]: it does not decode). *)

val clear : string -> int
(** Remove every manifest and object; returns the number of manifests
    removed. *)
