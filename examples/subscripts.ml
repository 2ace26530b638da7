(** The dependence-analysis motivation (Shen–Li–Yew, §1 of the paper):
    "approximately 50 percent of the subscripts which had previously been
    considered nonlinear were found to be linear in the presence of
    interprocedural constant information" — and most dependence analyzers
    give up on nonlinear subscripts.

    A subscript like [g(n*i + j)] is nonlinear in the loop indices while
    [n] is a symbolic unknown, but affine once [n] is an interprocedural
    constant.  This example classifies every array subscript of a stencil
    kernel as a polynomial in the loop indices, before and after IPCP.

    Run with: [dune exec examples/subscripts.exe] *)

open Ipcp_frontend
module Driver = Ipcp_core.Driver
module Clattice = Ipcp_domains.Clattice
module Symexpr = Ipcp_vn.Symexpr

let source =
  {|
PROGRAM stencil
  INTEGER grid(200)
  CALL smooth(grid, 12, 3)
END

SUBROUTINE smooth(g, n, halo)
  INTEGER g(200), n, halo, i, j, idx
  DO i = 2, 9
    DO j = 2, 9
      ! row-major flattening: nonlinear in (i, j) until n is constant
      g(n * i + j) = (g(n * i + j - 1) + g(n * i + j + 1)) / 2
      ! halo offset: affine once halo is known
      idx = n * i + j + halo
      g(idx) = g(idx) / 2
    ENDDO
  ENDDO
END
|}

(* translate a subscript expression into a polynomial, binding scalar
   variables through [binding] (loop indices and unknowns stay symbolic) *)
let rec to_poly binding (e : Ast.expr) : Symexpr.t option =
  match e with
  | Ast.Int (c, _) -> Some (Symexpr.const c)
  | Ast.Var (x, _) -> (
      match binding x with
      | Some c -> Some (Symexpr.const c)
      | None -> Some (Symexpr.sym x))
  | Ast.Unop (Ast.Neg, e, _) -> Option.map Symexpr.neg (to_poly binding e)
  | Ast.Binop (op, a, b, _) -> (
      match (to_poly binding a, to_poly binding b) with
      | Some x, Some y -> Some (Symexpr.binop op x y)
      | _ -> None)
  | Ast.Intrin (i, args, _) -> (
      match
        List.fold_right
          (fun a acc ->
            match (to_poly binding a, acc) with
            | Some x, Some xs -> Some (x :: xs)
            | _ -> None)
          args (Some [])
      with
      | Some xs -> Some (Symexpr.intrin i xs)
      | None -> None)
  | Ast.Index _ | Ast.Callf _ -> None

(* a subscript is usable by a classical dependence test when it is affine:
   total degree <= 1 in the remaining symbols *)
let classify = function
  | None -> `Opaque
  | Some p ->
      if Symexpr.is_const p <> None then `Constant
      else if Symexpr.degree p <= 1 then `Affine
      else `Nonlinear

let subscripts_of (body : Ast.stmt list) : Ast.expr list =
  let acc = ref [] in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Index (_, idx, _) ->
        acc := idx :: !acc;
        expr idx
    | Ast.Callf (_, args, _) | Ast.Intrin (_, args, _) -> List.iter expr args
    | Ast.Unop (_, e, _) -> expr e
    | Ast.Binop (_, a, b, _) ->
        expr a;
        expr b
    | Ast.Int _ | Ast.Var _ -> ()
  in
  Ast.iter_exprs expr body;
  Ast.iter_stmts
    (fun s ->
      match s with
      | Ast.Assign (Ast.Lindex (_, idx, _), _, _) ->
          acc := idx :: !acc;
          expr idx
      | _ -> ())
    body;
  !acc

let report label binding body =
  let tally = Hashtbl.create 4 in
  List.iter
    (fun idx ->
      let k = classify (to_poly binding idx) in
      Hashtbl.replace tally k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    (subscripts_of body);
  let get k = Option.value ~default:0 (Hashtbl.find_opt tally k) in
  Fmt.pr "%-26s %d constant, %d affine, %d nonlinear, %d opaque@." label
    (get `Constant) (get `Affine) (get `Nonlinear) (get `Opaque)

let () =
  let symtab = Sema.parse_and_analyze ~file:"<subscripts>" source in
  let body = (Symtab.proc symtab "smooth").Symtab.proc.Ast.body in
  report "before IPCP:" (fun _ -> None) body;
  let t = Driver.analyze symtab in
  let binding x =
    match Ipcp_core.Solver.val_of t.Driver.solver "smooth" x with
    | Clattice.Const c -> Some c
    | _ -> None
  in
  report "after IPCP (n=12, halo=3):" binding body;
  Fmt.pr
    "@.With n constant, the flattened subscripts are affine in the loop \
     indices — the dependence analyzer can now test them (the Shen-Li-Yew \
     observation that motivates the paper).@."
