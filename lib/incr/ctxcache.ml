(** In-memory summary cache for the value-context tabulation engine.

    A converged context exit is a pure function of (the procedure's code,
    everything it transitively calls, the analysis configuration, the
    COMMON table, the entry abstract value).  The first four are folded
    into a {e deep fingerprint} — the transitive closure of the PR 4
    per-procedure content fingerprints over the call-graph SCC
    condensation — and the entry value contributes its canonical-string
    digest.  A warm tabulation run that creates a context whose key is
    already stored adopts the cached exit as the context's initial exit
    value, which lets dependent callers settle without waiting for the
    callee subtree to re-converge.

    The store itself is polymorphic (each {!Ipcp_contexts.Tabulation}
    instantiation holds values of its own domain type) and process-local:
    unlike the on-disk {!Store}, context exits are only worth keeping
    while the analysis service stays resident. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Config = Ipcp_core.Config
module Callgraph = Ipcp_callgraph.Callgraph

(** Transitive per-procedure fingerprints ({!Fingerprint.deep}). *)
let deep_fingerprints ~(config : Config.t) (symtab : Symtab.t)
    (cg : Callgraph.t) : string SM.t =
  Fingerprint.deep ~config_key:(Fingerprint.config config)
    ~globals_hash:(Fingerprint.globals symtab)
    (Incr.content_fingerprints symtab)
    cg

(* ------------------------------------------------------------------ *)
(* The store *)

type 'a t = {
  tbl : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0 }

(** Cache key of one context: the procedure's deep fingerprint plus the
    digest of the canonical entry-environment string. *)
let key ~deep_fp ~entry = deep_fp ^ ":" ^ Digest.to_hex (Digest.string entry)

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add t k v = Hashtbl.replace t.tbl k v

let size t = Hashtbl.length t.tbl

let hits t = t.hits

let misses t = t.misses

let clear t =
  Hashtbl.reset t.tbl;
  t.hits <- 0;
  t.misses <- 0
