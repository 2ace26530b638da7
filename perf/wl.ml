(** What every workload gives the run loop. *)

type op_out = {
  consts : float;  (** entry constants the op proved *)
  failures : string list;  (** checks the op failed *)
}

type t = {
  name : string;
  setup : unit -> unit;
      (** build the workload's state before the first op; timed, and
          repeated so that [setup_s] is a median *)
  reference : unit -> string list;
      (** once, after the last set-up: the reference computations and
          the checks made on them; a failure here is charged to every op *)
  prepare : Spans.t option -> int -> unit -> unit -> op_out;
      (** [prepare spans i] readies op [i] outside the timer; applying
          the result runs the op (timed; traced when [spans] is given);
          applying that checks the op's outputs, outside the timer *)
  finish : unit -> (int * string) list;
      (** checks made after the last op (and after peak RSS is read),
          as (op index, failure) *)
  replica : string list;
      (** span names that re-run part of the op for attribution only;
          their time is no part of the op *)
  resident : bool;
      (** the workload is a resident daemon session that each op moves on:
          ops differ from each other and run on the heap the previous op
          left.  Otherwise every op does the same work from a compacted
          heap, as a fresh [ipcp] process does, so an untraced op's
          allocation is what a traced op must allocate outside its
          replicas. *)
  peak_after : int;
      (** an untraced run makes at least this many ops and reads its peak
          RSS after them, so that the reading does not depend on how many
          ops fit in the run *)
  describe : unit -> string list;  (** inputs and check coverage *)
}

(** Failures that start with this mark are faults of the program found
    on the fixed inputs: they fail their op, but the run stays correct
    (its other checks all held). *)
let known_prefix = "known fault: "

let is_known m = String.starts_with ~prefix:known_prefix m

let config = Ipcp_core.Config.default

let config_jobs1 = { config with Ipcp_core.Config.jobs = 1 }

let span spans name f =
  match spans with Some s -> Spans.with_span s name f | None -> f ()

let count spans name v =
  match spans with Some s -> Spans.count s name v | None -> ()

(* keep the first few failures of a check, count the rest *)
type failures = { mutable kept : string list; mutable n : int }

let failures () = { kept = []; n = 0 }

let fail fs fmt =
  Printf.ksprintf
    (fun s ->
      fs.n <- fs.n + 1;
      if fs.n <= 5 then fs.kept <- s :: fs.kept)
    fmt

let failure_list fs =
  List.rev fs.kept
  @ if fs.n > 5 then [ Printf.sprintf "... and %d more" (fs.n - 5) ] else []
