(** Interprocedural lints over the finished analysis: diagnostics
    derived from the propagation fixpoint, the call graph and SSA form.

    Check ids are stable and documented in README.md:
    - [IPCP-E001] division or [MOD] by a propagated constant zero
    - [IPCP-E002] constant array subscript out of declared bounds
    - [IPCP-W003] branch/loop condition always true or false
    - [IPCP-W004] procedure unreachable from the program entry
    - [IPCP-W005] formal parameter never referenced
    - [IPCP-W006] use of a variable with no reaching definition
    - [IPCP-I007] formal parameter constant at every call site
    - [IPCP-W008] DO loop whose trip count is a propagated constant
      (emitted only when range facts are supplied)
    - [IPCP-W009] assignment whose stored value is never used

    Supplying the interval facts of {!Ipcp_core.Ranges} upgrades the
    fault checks: sites the constant lattice left undecided can be
    proved faulting or safe by their ranges, and every E001/E002
    candidate site gets a {!verdict}.  Without ranges the behaviour and
    rendering are byte-identical to the historical engine. *)

module Loc = Ipcp_frontend.Loc
module Severity = Ipcp_frontend.Diag.Severity
module Driver = Ipcp_core.Driver
module Ranges = Ipcp_core.Ranges

type check =
  | Div_by_zero
  | Subscript_bounds
  | Const_condition
  | Unreachable_proc
  | Dead_formal
  | Undefined_use
  | Const_formal
  | Const_trip
  | Dead_store

val all_checks : check list

val id : check -> string
(** The stable check id, e.g. ["IPCP-E001"]. *)

val check_of_id : string -> check option
(** Inverse of {!id} (case-insensitive). *)

val severity : check -> Severity.t

val describe : check -> string
(** One-line description, for [--list-checks] style output and docs. *)

(** What the interval facts prove about a candidate site: the flagged
    behaviour occurs on every execution reaching it ([Proved_fault]), on
    none ([Proved_safe]), or the ranges cannot decide. *)
type verdict = Proved_safe | Proved_fault | Unknown

val verdict_name : verdict -> string
(** ["proved-safe"], ["proved-fault"] or ["unknown"]. *)

type finding = {
  f_check : check;
  f_loc : Loc.t;
  f_proc : string;  (** enclosing procedure *)
  f_msg : string;
  f_verdict : verdict option;
      (** range-fact judgement; [None] on findings produced without
          range facts (rendering then matches the historical engine) *)
}

val finding_severity : finding -> Severity.t

val pp_finding : finding Fmt.t

(** Verdict counts over the reachable E001/E002 candidate sites; all
    zero when no range facts were supplied. *)
type verdict_totals = { n_safe : int; n_fault : int; n_unknown : int }

val run :
  ?enabled:(check -> bool) ->
  ?ranges:Ranges.t ->
  ?procs:string list ->
  Driver.t ->
  finding list
(** All findings over the analyzed program, sorted by source location.
    [enabled] filters checks (default: all); [ranges] supplies the
    interval facts behind the range-backed checks.  [procs] restricts
    the findings to those procedures, and the work (stage 4, liveness
    and the AST walk) to them too: the result is the whole program's
    findings filtered to [procs]. *)

val run_with_verdicts :
  ?enabled:(check -> bool) ->
  ?ranges:Ranges.t ->
  ?procs:string list ->
  Driver.t ->
  finding list * verdict_totals
(** {!run} plus the verdict census of the fault-candidate sites (of
    [procs] only, when given). *)

val summary : finding list -> int * int * int
(** (errors, warnings, infos). *)

val render_text : finding list -> string
(** One [file:line:col: severity[ID]: message] line per finding. *)

val json : ?verdicts:verdict_totals -> finding list -> Ipcp_obs.Json.t
(** A JSON object: [{"findings":[...],"summary":{...}}], with a
    ["verdicts"] object appended when [verdicts] is given. *)

val render_json : ?verdicts:verdict_totals -> finding list -> string
(** {!json}, printed on one line. *)
