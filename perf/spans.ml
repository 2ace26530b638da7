(** In-memory span recorder for the traced run.

    A span is one call into a layer, recorded by the benchmark around
    the layer's public function: name, start, end, the enclosing span
    and the op it belongs to, plus the allocation inside it.  Spans are
    kept in memory and written out once, as Chrome trace-event JSON,
    when the run ends.  A layer's self time is its span minus the spans
    directly inside it (spans nest: the benchmark opens them from one
    domain, in call order). *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span, -1 at the op's root *)
  t0 : float;
  t1 : float;
  alloc_mb : float;  (** inclusive *)
}

type t = {
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable op : int;
  mutable counts : (int * string * float) list;  (** op, name, value *)
}

let create () =
  { origin = Meter.now_s (); spans = []; stack = []; next = 0; op = 0; counts = [] }

let set_op t op = t.op <- op

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let a0 = Meter.alloc_words () in
  let t0 = Meter.now_s () in
  let finish () =
    let t1 = Meter.now_s () in
    let a1 = Meter.alloc_words () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; op = t.op; parent; t0; t1; alloc_mb = Meter.mb_of_words (a1 -. a0) }
      :: t.spans
  in
  Fun.protect ~finally:finish f

(** Record a count (work done, a ratio) for the current op. *)
let count t name v = t.counts <- (t.op, name, v) :: t.counts

let of_op t op = List.filter (fun (s : span) -> s.op = op) t.spans

(* per span: (self seconds, self MB) — inclusive minus direct children *)
let self_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, a = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.parent) in
        Hashtbl.replace tbl s.parent (d +. (s.t1 -. s.t0), a +. s.alloc_mb))
    spans;
  List.map
    (fun s ->
      let d, a = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.id) in
      (s, (s.t1 -. s.t0) -. d, s.alloc_mb -. a))
    spans

(** Self time (s), self allocation (MB) and call count per span name,
    over the spans of one op. *)
let by_name t op =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), dt, da) ->
      let d, a, n = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (d +. dt, a +. da, n + 1))
    (self_of (of_op t op));
  tbl

let counts_of t op =
  List.filter_map (fun (o, n, v) -> if o = op then Some (n, v) else None) t.counts

let write_chrome t path =
  let module Json = Ipcp_obs.Json in
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) t.spans;
  let us x = Json.Num ((x -. t.origin) *. 1e6) in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("op", Json.Int s.op);
              ( "parent",
                match Hashtbl.find_opt names s.parent with
                | Some n -> Json.Str n
                | None -> Json.Null );
              ("alloc_mb", Json.Num s.alloc_mb);
            ] );
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.Arr (List.rev_map ev t.spans));
                ("displayTimeUnit", Json.Str "ms");
              ]));
      output_char oc '\n')
