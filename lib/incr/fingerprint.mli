(** Content fingerprints for the incremental engine: two-tier
    per-procedure hashes (content vs exact-with-locations), plus
    global-table, configuration, and whole-program keys. *)

module Symtab = Ipcp_frontend.Symtab
module Ast = Ipcp_frontend.Ast
module Config = Ipcp_core.Config

type proc_fp = {
  fp_content : string;
      (** digest of the canonical pretty-printed procedure — stable
          across whitespace and edits to other procedures; governs
          summary-artifact reuse *)
  fp_exact : string;
      (** digest of the marshalled resolved AST — also covers source
          locations; governs CFG/SSA reuse *)
  fp_site_offset : int;
      (** first call-site id of the procedure under the program-wide
          numbering *)
}

val content : Ast.proc -> string
(** The content tier alone: [fp_content] of {!proc}, without the
    marshalling and digest of the exact tier. *)

val proc : site_offset:int -> Ast.proc -> proc_fp

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
