(* QCheck property tests on the core data structures, registered as
   alcotest cases via QCheck_alcotest.  (The heavier whole-program
   properties — soundness against the interpreter, semantic preservation —
   live in test_props.ml with the program generator.) *)

module Clattice = Ipcp_domains.Clattice
module Symexpr = Ipcp_vn.Symexpr
module Jumpfn = Ipcp_core.Jumpfn
open Ipcp_frontend.Names

(* ------------------------------------------------------------------ *)
(* Generators *)

let lattice_gen : Clattice.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, return Clattice.Top);
        (1, return Clattice.Bottom);
        (3, map (fun n -> Clattice.Const n) (int_range (-5) 5));
      ])

let lattice_arb =
  QCheck.make ~print:Clattice.to_string lattice_gen

let sym_names = [ "a"; "b"; "c" ]

let symexpr_gen : Symexpr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Symexpr.const (int_range (-6) 6);
        map Symexpr.sym (oneofl sym_names);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map2 Symexpr.add (self (depth - 1)) (self (depth - 1)));
            (2, map2 Symexpr.sub (self (depth - 1)) (self (depth - 1)));
            (2, map2 Symexpr.mul (self (depth - 1)) leaf);
            (1, map2 Symexpr.div (self (depth - 1)) leaf);
            (1, map2 Symexpr.mod_ (self (depth - 1)) leaf);
            (1, map2 Symexpr.max_ (self (depth - 1)) (self (depth - 1)));
            (1, map Symexpr.abs_ (self (depth - 1)));
            (1, map Symexpr.neg (self (depth - 1)));
          ])
    3

let symexpr_arb = QCheck.make ~print:Symexpr.to_string symexpr_gen

let env_gen : (string -> int option) QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun vals ->
        let bound = List.combine sym_names vals in
        fun s -> List.assoc_opt s bound)
      (list_repeat (List.length sym_names) (int_range (-9) 9)))

(* ------------------------------------------------------------------ *)
(* Lattice laws (Figure 1) *)

let lattice_props =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"meet commutative" (pair lattice_arb lattice_arb)
      (fun (a, b) -> Clattice.equal (Clattice.meet a b) (Clattice.meet b a));
    Test.make ~count:500 ~name:"meet associative"
      (triple lattice_arb lattice_arb lattice_arb) (fun (a, b, c) ->
        Clattice.equal
          (Clattice.meet (Clattice.meet a b) c)
          (Clattice.meet a (Clattice.meet b c)));
    Test.make ~count:500 ~name:"meet idempotent" lattice_arb (fun a ->
        Clattice.equal (Clattice.meet a a) a);
    Test.make ~count:500 ~name:"top is identity, bottom absorbs" lattice_arb
      (fun a ->
        Clattice.equal (Clattice.meet Clattice.Top a) a
        && Clattice.equal (Clattice.meet Clattice.Bottom a) Clattice.Bottom);
    Test.make ~count:500 ~name:"meet only descends (depth-2 bound)"
      (pair lattice_arb lattice_arb) (fun (a, b) ->
        Clattice.height (Clattice.meet a b) <= min (Clattice.height a) (Clattice.height b));
    Test.make ~count:500 ~name:"leq is a partial order under meet"
      (triple lattice_arb lattice_arb lattice_arb) (fun (a, b, c) ->
        (* transitivity on sampled triples *)
        (not (Clattice.leq a b && Clattice.leq b c)) || Clattice.leq a c);
  ]

(* ------------------------------------------------------------------ *)
(* Polynomial algebra *)

let symexpr_props =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"commutative ring laws"
      (triple symexpr_arb symexpr_arb symexpr_arb) (fun (a, b, c) ->
        Symexpr.(
          equal (add a b) (add b a)
          && equal (mul a b) (mul b a)
          && equal (add (add a b) c) (add a (add b c))
          && equal (mul a (add b c)) (add (mul a b) (mul a c))
          && equal (sub a a) zero
          && equal (add a zero) a
          && equal (mul a (const 1)) a));
    Test.make ~count:300 ~name:"eval is a homomorphism where defined"
      (QCheck.pair (QCheck.pair symexpr_arb symexpr_arb)
         (QCheck.make env_gen))
      (fun ((a, b), env) ->
        let check sym_op conc_op =
          match (Symexpr.eval env a, Symexpr.eval env b) with
          | Some va, Some vb -> (
              match conc_op va vb with
              | Some expected -> Symexpr.eval env (sym_op a b) = Some expected
              | None -> true)
          | _ -> true
        in
        let open Ipcp_frontend.Ast in
        check Symexpr.add (eval_binop Add)
        && check Symexpr.sub (eval_binop Sub)
        && check Symexpr.mul (eval_binop Mul)
        && check Symexpr.div (eval_binop Div)
        && check Symexpr.max_ (fun x y -> eval_intrin Imax [ x; y ]));
    Test.make ~count:300 ~name:"support bounds the symbols eval reads"
      (QCheck.pair symexpr_arb (QCheck.make env_gen)) (fun (e, env) ->
        (* restricting the environment to the support never changes the
           result *)
        let sup = Symexpr.support e in
        let restricted s = if SS.mem s sup then env s else None in
        Symexpr.eval env e = Symexpr.eval restricted e);
    Test.make ~count:300 ~name:"subst of identity is identity" symexpr_arb
      (fun e -> Symexpr.equal (Symexpr.subst (fun _ -> None) e) e);
  ]

(* ------------------------------------------------------------------ *)
(* Jump-function evaluation is monotone in the environment *)

let jf_props =
  let jf_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return Jumpfn.Jbottom);
          (2, map (fun c -> Jumpfn.Jconst c) (int_range (-5) 5));
          (2, map (fun s -> Jumpfn.Jvar s) (oneofl sym_names));
          (3, map (fun e -> Jumpfn.Jexpr e) symexpr_gen);
        ])
  in
  let jf_arb = QCheck.make ~print:(Fmt.str "%a" Jumpfn.pp) jf_gen in
  let lat_env_gen =
    QCheck.Gen.(
      map
        (fun vals ->
          let bound = List.combine sym_names vals in
          fun s ->
            Option.value ~default:Clattice.Bottom (List.assoc_opt s bound))
        (list_repeat (List.length sym_names) lattice_gen))
  in
  [
    QCheck.Test.make ~count:500
      ~name:"Jumpfn.eval monotone: lower inputs give lower outputs"
      (QCheck.pair jf_arb (QCheck.pair (QCheck.make lat_env_gen) (QCheck.make lat_env_gen)))
      (fun (jf, (e1, e2)) ->
        (* build the pointwise meet of the two environments: env12 <= e1 *)
        let e12 s = Clattice.meet (e1 s) (e2 s) in
        Clattice.leq (Jumpfn.eval jf e12) (Jumpfn.eval jf e1));
    QCheck.Test.make ~count:500 ~name:"Jumpfn.eval of constants ignores env"
      (QCheck.pair (QCheck.make lat_env_gen) QCheck.small_int)
      (fun (env, c) ->
        Clattice.equal (Jumpfn.eval (Jumpfn.Jconst c) env) (Clattice.Const c));
  ]

let suites =
  [
    ("qcheck-lattice", List.map QCheck_alcotest.to_alcotest lattice_props);
    ("qcheck-symexpr", List.map QCheck_alcotest.to_alcotest symexpr_props);
    ("qcheck-jumpfn", List.map QCheck_alcotest.to_alcotest jf_props);
  ]
