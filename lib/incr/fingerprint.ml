(** Content fingerprints for the incremental engine.

    A procedure's {e content} hash digests the canonical pretty-printed
    form of the semantically resolved procedure.  It is stable across
    whitespace, comments, and the reordering or editing of {e other}
    procedures, and it is what decides whether a procedure's summary
    artifacts (symbolic evaluation, jump functions, MOD/REF rows) are
    still valid.  A procedure whose text is unchanged but which moved in
    the file keeps its content hash; its cheap IR (CFG + SSA) is rebuilt
    so that diagnostics and substitution report current line numbers
    (the in-process IR is matched by AST, locations included; see
    {!Incr}), but its expensive summaries are reused.

    Program-level keys combine the content hashes in declaration order
    with the global-table and configuration fingerprints; they guard the
    whole-program artifacts (the propagation fixpoint, the substitution
    result). *)

module Symtab = Ipcp_frontend.Symtab
module Pretty = Ipcp_frontend.Pretty
module Ast = Ipcp_frontend.Ast
module Config = Ipcp_core.Config

let content (p : Ast.proc) : string = Digest.string (Pretty.proc_to_string p)

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

(** Transitive per-procedure fingerprints: a procedure's deep
    fingerprint (hex) covers its own content, the configuration and
    COMMON keys, and the deep fingerprints of everything it calls.
    Members of a recursive component share the component digest, salted
    with their own content fingerprint so two members never collide. *)
let deep ~(config_key : string) ~(globals_hash : string)
    (contents : (string * string) list) (cg : Ipcp_callgraph.Callgraph.t) :
    string Ipcp_frontend.Names.SM.t =
  let module SM = Ipcp_frontend.Names.SM in
  let module SS = Ipcp_frontend.Names.SS in
  let module Callgraph = Ipcp_callgraph.Callgraph in
  let module Scc = Ipcp_callgraph.Scc in
  let base = List.fold_left (fun m (p, fp) -> SM.add p fp m) SM.empty contents in
  let own p = Option.value ~default:"?" (SM.find_opt p base) in
  let seed = config_key ^ "|" ^ globals_hash in
  List.fold_left
    (fun deep comp ->
      let comp_set = SS.of_list comp in
      let member_part p =
        let outs =
          Callgraph.callees cg p
          |> List.filter (fun q -> not (SS.mem q comp_set))
          |> List.map (fun q -> Option.value ~default:"?" (SM.find_opt q deep))
        in
        String.concat "," (own p :: outs)
      in
      let combined =
        Digest.to_hex
          (Digest.string
             (seed ^ "|"
             ^ String.concat ";" (List.map member_part (List.sort compare comp))
             ))
      in
      List.fold_left
        (fun deep p ->
          SM.add p (Digest.to_hex (Digest.string (combined ^ "#" ^ own p))) deep)
        deep comp)
    SM.empty
    (Scc.bottom_up (Scc.compute cg))
