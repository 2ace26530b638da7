(** Live variables as a {!Monotone.FRAMEWORK} instance.

    The transfer functions are shared with the hand-rolled solver in
    [Ipcp_ir.Liveness] (gen = uses, kill = definition, blocks walked
    backwards), so the two must compute identical sets — a property the
    test suite checks.  This instance exists to exercise the generic
    engine on a backward may-problem whose boundary value varies per exit
    block: a [Tstop] exit ends the program (nothing live out), while a
    [Treturn] exit passes by-reference formals, globals and the
    function-result variable back to the caller. *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Symtab = Ipcp_frontend.Symtab
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Liveness = Ipcp_ir.Liveness

type ctx = { exit : SS.t  (** live at a [Treturn] exit *) }

let ctx ~(formals : string list) ~(globals : string list) (cfg : Cfg.t) : ctx
    =
  { exit = Liveness.exit_live ~cfg ~formals ~globals }

module F = struct
  type t = SS.t

  type nonrec ctx = ctx

  let name = "live"

  let direction = Dataflow.Backward

  let top = SS.empty

  let meet = SS.union

  let equal = SS.equal

  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma string) (SS.elements s)

  let boundary ctx (cfg : Cfg.t) bid =
    match cfg.Cfg.blocks.(bid).Cfg.term with
    | Cfg.Tstop -> SS.empty
    | _ -> ctx.exit

  let transfer _ctx (cfg : Cfg.t) bid live_out =
    Liveness.transfer_block cfg.Cfg.blocks.(bid) live_out
end

module Solve = Monotone.Make (F)

type t = { live_in : SS.t array; live_out : SS.t array }

let compute ~(formals : string list) ~(globals : string list) (cfg : Cfg.t) :
    t =
  let r = Solve.run ~ctx:(ctx ~formals ~globals cfg) cfg in
  (* backward problem: the engine's input is the successor merge *)
  { live_in = r.Solve.outv; live_out = r.Solve.inv }

let scalar_formals (symtab : Symtab.t) p =
  let psym = Symtab.proc symtab p in
  List.filter
    (fun f -> not (Symtab.is_array (Symtab.var_exn psym f)))
    (Symtab.formals psym)

let all (symtab : Symtab.t) (cfgs : Cfg.t SM.t) : t SM.t =
  let globals = Symtab.global_names symtab in
  SM.mapi
    (fun p cfg -> compute ~formals:(scalar_formals symtab p) ~globals cfg)
    cfgs

let dead_stores (cfgs : Cfg.t SM.t) (lv_by_proc : t SM.t) :
    (string * string * Loc.t) list =
  let pure = function
    | Instr.Rcopy _ | Instr.Runop _ | Instr.Rbinop _ | Instr.Rintrin _
    | Instr.Rload _ ->
        true
    | Instr.Rread | Instr.Rresult _ | Instr.Rcalldef _ -> false
  in
  let out = ref [] in
  SM.iter
    (fun p (cfg : Cfg.t) ->
      let lv = SM.find p lv_by_proc in
      Array.iter
        (fun (b : Cfg.block) ->
          let live =
            ref
              (List.fold_left
                 (fun l v -> SS.add v l)
                 lv.live_out.(b.Cfg.bid)
                 (Liveness.term_uses b.Cfg.term))
          in
          List.iter
            (fun i ->
              (match i with
              | Instr.Idef (v, rhs, Some loc)
                when pure rhs && not (SS.mem v !live) ->
                  out := (p, v, loc) :: !out
              | _ -> ());
              live := Liveness.transfer_instr !live i)
            (List.rev b.Cfg.instrs))
        cfg.Cfg.blocks)
    cfgs;
  List.sort
    (fun (_, v1, l1) (_, v2, l2) ->
      match Loc.compare l1 l2 with 0 -> String.compare v1 v2 | c -> c)
    !out
