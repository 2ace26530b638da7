(** Process-wide resource readings, taken around one op.

    CPU time is [getrusage] user+sys of the whole process (OCaml's
    [Unix.times] reads it), so work done on pool domains counts.
    Allocation is read from [Gc.quick_stat], which sums the live
    counters of the calling domain with the samples every other domain
    leaves at each minor collection; [Gc.allocated_bytes] would count
    the calling domain only. *)

let now_s () = Int64.to_float (Ipcp_obs.Obs.now_ns ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(** High-water resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> float_of_int kb *. 1024. /. 1e6)
            | _ -> scan ()
          in
          scan ())

(** CPU time the hypervisor gave to other guests (the "steal" column of
    /proc/stat, summed over all CPUs), in seconds: the run prints it, so
    that a run slowed by a busy host can be told from a slower program. *)
let steal_s () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
      | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
          float_of_string steal /. 100.
      | _ -> nan)
  | None | (exception Sys_error _) -> nan

type sample = {
  wall_s : float;
  cpu_s : float;
  alloc_mb : float;
  steal_s : float;  (** CPU time stolen from this guest meanwhile *)
}

(** Run [f] and read wall, CPU and allocation around it.  The closing
    minor collection happens after the clocks stop; it refreshes the
    other domains' allocation samples. *)
let measure f =
  let a0 = alloc_words () in
  let s0 = steal_s () in
  let c0 = cpu_s () in
  let w0 = now_s () in
  let r = f () in
  let w1 = now_s () in
  let c1 = cpu_s () in
  let s1 = steal_s () in
  Gc.minor ();
  let a1 = alloc_words () in
  (r, { wall_s = w1 -. w0; cpu_s = c1 -. c0; alloc_mb = mb_of_words (a1 -. a0); steal_s = s1 -. s0 })
