(** A generic iterative dataflow framework over bounded semilattices.

    The paper solves its interprocedural problem with "a simple worklist
    iterative scheme" on top of ParaScope's dataflow solver; this module is
    the corresponding reusable engine.  It is instantiated intraprocedurally
    (liveness and available expressions, through {!Monotone}) and the same
    worklist discipline is reused by the interprocedural VAL-set solver in
    [Ipcp_core.Solver].

    The signature follows Kildall: a meet semilattice with top, and a
    monotone block transfer function.  Termination is the client's
    responsibility: the lattice must have bounded descending chains. *)

module Cfg = Ipcp_ir.Cfg

module type LATTICE = sig
  type t

  val top : t
  (** initial optimistic assumption *)

  val meet : t -> t -> t

  val equal : t -> t -> bool

  val pp : t Fmt.t
end

type direction = Forward | Backward

module Make (L : LATTICE) = struct
  type result = { inv : L.t array; outv : L.t array }

  (** [solve ~direction ~entry cfg ~init ~transfer] computes the fixpoint of
      [transfer] over the blocks of [cfg].

      - [init] is the boundary value (at entry for forward problems, at
        every exit block for backward ones);
      - [transfer bid v] maps the block's in-value to its out-value (in the
        chosen direction).

      [boundary], when supplied, refines the boundary value per block
      (e.g. a backward problem whose [Tstop] exits carry a different
      value than its [Treturn] exits); blocks where it returns [None]
      fall back on [init].

      Unreachable blocks keep [L.top]. *)
  let solve ?(direction = Forward) ?(boundary = fun (_ : int) -> None)
      (cfg : Cfg.t) ~(init : L.t) ~(transfer : int -> L.t -> L.t) : result =
    let n = Array.length cfg.Cfg.blocks in
    let preds = Cfg.preds cfg in
    let succs b = Cfg.succs cfg b in
    let inputs =
      match direction with
      | Forward -> fun b -> preds.(b)
      | Backward -> succs
    in
    let is_boundary b =
      match direction with
      | Forward -> b = 0
      | Backward -> (
          match cfg.Cfg.blocks.(b).Cfg.term with
          | Cfg.Treturn | Cfg.Tstop -> true
          | _ -> false)
    in
    let inv = Array.make n L.top in
    let outv = Array.make n L.top in
    let order =
      match direction with
      | Forward -> Cfg.rev_postorder cfg
      | Backward -> List.rev (Cfg.rev_postorder cfg)
    in
    let reach = Cfg.reachable cfg in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed do
      changed := false;
      incr rounds;
      List.iter
        (fun b ->
          if reach.(b) then begin
            let input =
              let base =
                if is_boundary b then
                  match boundary b with Some v -> v | None -> init
                else L.top
              in
              List.fold_left
                (fun acc p -> if reach.(p) then L.meet acc outv.(p) else acc)
                base (inputs b)
            in
            let output = transfer b input in
            if not (L.equal input inv.(b) && L.equal output outv.(b)) then begin
              inv.(b) <- input;
              outv.(b) <- output;
              changed := true
            end
          end)
        order
    done;
    { inv; outv }
end
