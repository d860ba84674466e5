(** Variable environments and the expression evaluator used during rule
    evaluation.  An environment maps rule variables to ground values. *)

type t

exception Unbound_variable of string

val empty : t
val find_opt : string -> t -> Value.t option

val find : string -> t -> Value.t
(** @raise Unbound_variable when the variable is not bound. *)

val mem : string -> t -> bool
val bind : string -> Value.t -> t -> t
val bindings : t -> (string * Value.t) list
val of_list : (string * Value.t) list -> t

val eval : t -> Ast.expr -> Value.t
(** Evaluate an expression to a ground value.

    @raise Unbound_variable on unbound variables (prevented for safe
    rules by {!Analysis.check_safety}).
    @raise Value.Type_error on sort errors (e.g. arithmetic on
    non-integers, division by zero). *)

val eval_cmp : Ast.cmp -> Value.t -> Value.t -> bool
(** Comparison under the total order {!Value.compare}. *)

val match_arg : t -> Ast.expr -> Value.t -> t option
(** [match_arg env pattern v] extends [env] so that [pattern] evaluates
    to [v]: a bare unbound variable binds; anything else must already
    evaluate to [v].  [None] when impossible. *)

val match_args : t -> Ast.expr list -> Value.t array -> t option
(** Match an argument list against a ground tuple, left to right
    (arity mismatch yields [None]). *)
