(** Content fingerprints for the incremental engine.

    Two tiers of per-procedure identity:

    - the {e content} hash digests the canonical pretty-printed form of
      the semantically resolved procedure.  It is stable across
      whitespace, comments, and the reordering or editing of {e other}
      procedures, and it is what decides whether a procedure's summary
      artifacts (symbolic evaluation, jump functions, MOD/REF rows) are
      still valid;
    - the {e exact} hash additionally covers source locations (it digests
      the marshalled resolved AST).  A procedure whose text is unchanged
      but which moved in the file keeps its content hash while its exact
      hash changes; its cheap IR (CFG + SSA) is then rebuilt so that
      diagnostics and substitution report current line numbers, but its
      expensive summaries are reused.

    Program-level keys combine the content hashes in declaration order
    with the global-table and configuration fingerprints; they guard the
    whole-program artifacts (the propagation fixpoint, the substitution
    result). *)

module Symtab = Ipcp_frontend.Symtab
module Pretty = Ipcp_frontend.Pretty
module Ast = Ipcp_frontend.Ast
module Config = Ipcp_core.Config

type proc_fp = {
  fp_content : string;  (** digest of the canonical pretty-printed text *)
  fp_exact : string;  (** digest of the marshalled AST (covers locations) *)
  fp_site_offset : int;
      (** first call-site id of this procedure under the program-wide
          numbering; cached IR embeds site ids, so it is only valid at
          the same offset *)
}

let content (p : Ast.proc) : string = Digest.string (Pretty.proc_to_string p)

let proc ~site_offset (p : Ast.proc) : proc_fp =
  {
    fp_content = content p;
    fp_exact = Digest.string (Marshal.to_string p []);
    fp_site_offset = site_offset;
  }

(** The global (COMMON) table determines every procedure's return-jump
    targets and the solver's tracked parameters, so any change to it
    invalidates the whole cache. *)
let globals (symtab : Symtab.t) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun g ->
      match Ipcp_frontend.Names.SM.find_opt g symtab.Symtab.globals with
      | None -> ()
      | Some { Symtab.block; gdim; init } ->
          Buffer.add_string buf
            (Fmt.str "%s/%s/%a/%a;" g block
               Fmt.(option ~none:(any "-") int)
               gdim
               Fmt.(option ~none:(any "-") int)
               init))
    symtab.Symtab.global_order;
  Digest.string (Buffer.contents buf)

(** Result-relevant configuration key.  [verify_ir] and [jobs] are
    excluded: neither changes what the analysis computes, only how it is
    checked or scheduled. *)
let config (c : Config.t) : string =
  Fmt.str "jf=%s;retjf=%b;mod=%b;symret=%b"
    (Config.jf_kind_name c.Config.jf)
    c.Config.return_jfs c.Config.use_mod c.Config.symbolic_returns

(** Whole-program content key: declaration order, per-procedure content
    hashes, the global table, and the configuration.  Location changes do
    not affect it (the fixpoint does not depend on line numbers). *)
let program ~(config_key : string) ~(globals_hash : string)
    (contents : (string * string) list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf config_key;
  Buffer.add_char buf '\n';
  Buffer.add_string buf globals_hash;
  List.iter
    (fun (name, content) ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf content)
    contents;
  Digest.string (Buffer.contents buf)
