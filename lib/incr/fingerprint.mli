(** Content fingerprints for the incremental engine: per-procedure
    content hashes, plus global-table, configuration, and whole-program
    keys. *)

module Symtab = Ipcp_frontend.Symtab
module Ast = Ipcp_frontend.Ast
module Config = Ipcp_core.Config

val content : Ast.proc -> string
(** Digest of the canonical pretty-printed procedure — stable across
    whitespace, comments and edits to other procedures; governs
    summary-artifact reuse. *)

val globals : Symtab.t -> string
(** Fingerprint of the COMMON table (names, blocks, dimensions, DATA
    initialisation).  Any change invalidates the whole cache. *)

val config : Config.t -> string
(** Result-relevant configuration key; [verify_ir] and [jobs] are
    excluded (they do not change what is computed). *)

val program :
  config_key:string -> globals_hash:string -> (string * string) list -> string
(** Whole-program content key over the procedures' content digests
    ({!content}), in declaration order; guards the propagation fixpoint
    and the substitution result. *)

val deep :
  config_key:string ->
  globals_hash:string ->
  (string * string) list ->
  Ipcp_callgraph.Callgraph.t ->
  string Ipcp_frontend.Names.SM.t
(** Per-procedure transitive digests (hex) over the content
    fingerprints ({!content}, by procedure) and call graph [cg]: a
    procedure's covers its own content, the configuration and COMMON
    keys, and the deep fingerprints of every transitive callee
    (component-shared within a recursive SCC, salted by the member's own
    content fingerprint).  Every per-procedure summary is a function of
    it. *)
