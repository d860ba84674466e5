(* Shared NDlog-AST -> logic translation helpers, used by the completion
   (arc 4) and by the kernel's fixpoint-induction rule (which must
   interpret rule bodies itself to validate induction steps). *)

module Ast = Ndlog.Ast

let rec term_of_expr (e : Ast.expr) : Term.t =
  match e with
  | Ast.Var x -> Term.Var x
  | Ast.Const v -> Term.Cst v
  | Ast.Call (f, args) -> Term.Fn (f, List.map term_of_expr args)
  | Ast.Binop (op, a, b) ->
    Term.Fn (Ast.string_of_binop op, [ term_of_expr a; term_of_expr b ])

let formula_of_lit (l : Ast.lit) : Formula.t =
  match l with
  | Ast.Pos a -> Formula.Atom (a.Ast.pred, List.map term_of_expr a.Ast.args)
  | Ast.Neg a ->
    Formula.Not (Formula.Atom (a.Ast.pred, List.map term_of_expr a.Ast.args))
  | Ast.Assign (x, e) -> Formula.Eq (Term.Var x, term_of_expr e)
  | Ast.Cond (c, a, b) -> (
    let ta = term_of_expr a and tb = term_of_expr b in
    match c with
    | Ast.Eq -> Formula.Eq (ta, tb)
    | Ast.Ne -> Formula.Not (Formula.Eq (ta, tb))
    | Ast.Lt -> Formula.Lt (ta, tb)
    | Ast.Le -> Formula.Le (ta, tb)
    | Ast.Gt -> Formula.Lt (tb, ta)
    | Ast.Ge -> Formula.Le (tb, ta))

(* Head argument terms of a non-aggregate rule. *)
let head_terms (h : Ast.head) : Term.t list =
  List.map
    (function
      | Ast.Plain e -> term_of_expr e
      | Ast.Agg _ -> invalid_arg "head_terms: aggregate head")
    h.Ast.head_args
