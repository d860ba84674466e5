(** Shared NDlog-AST to logic translation helpers, used by
    {!Completion} (arc 4) and by the kernel's fixpoint-induction rule
    (which interprets rule bodies itself to validate induction
    steps). *)

val term_of_expr : Ndlog.Ast.expr -> Term.t
(** Variables map to variables, constants to constants, builtin calls
    and arithmetic to function applications. *)

val formula_of_lit : Ndlog.Ast.lit -> Formula.t
(** Positive atoms to atoms, negation to [Not], assignments to
    equations, comparisons to (normalized) comparison formulas. *)

val head_terms : Ndlog.Ast.head -> Term.t list
(** @raise Invalid_argument on aggregate heads. *)
