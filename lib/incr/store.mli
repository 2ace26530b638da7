(** Versioned on-disk cache store: one checksummed envelope file per key
    under a cache directory.  Payloads are opaque strings; the checksum
    is verified before a payload is returned, so corruption surfaces as
    [Corrupt] (→ cold run), never as a crash in the unmarshaller. *)

val format_version : int
(** Bumped whenever the snapshot layout changes, or a snapshot's
    replayed statistics would differ from a fresh run's; a mismatch reads
    as [Stale]. *)

type load_error =
  | Missing  (** no entry for this key *)
  | Stale of string  (** format-version or OCaml-runtime skew *)
  | Corrupt of string  (** unreadable, truncated, or checksum failure *)

val load_error_to_string : load_error -> string

val entry_path : dir:string -> key:string -> string

val save : dir:string -> key:string -> string -> (unit, string) result
(** Atomic write (temp file + rename); creates the directory if needed. *)

val load : dir:string -> key:string -> (string, load_error) result

type entry_info = {
  ei_file : string;
  ei_bytes : int;
  ei_status : (unit, load_error) result;
}

val entries : string -> entry_info list
(** Envelope-level inventory of a cache directory (for [ipcp cache stat]). *)

val clear : string -> int
(** Remove every entry; returns the number of files removed. *)
