(** Static analysis of NDlog programs: schema extraction, range
    restriction (safety), and stratification with respect to negation
    and aggregation. *)

module Sset : Set.S with type elt = string and type t = Set.Make(String).t
module Smap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

(** Analysis failures. *)
type error =
  | Unsafe_rule of Ast.rule * string
      (** A rule uses unbound variables (in its head, a negated atom, a
          comparison, or a complex argument). *)
  | Arity_mismatch of string * int * int
      (** [pred, seen, expected]: inconsistent arities. *)
  | Unstratifiable of string list
      (** Negation/aggregation cycle; the list names offending
          predicates. *)
  | Builtin_arity of Ast.rule * string * int * int
      (** [rule, function, given, arity]: a builtin call in the rule
          with the wrong number of arguments. *)

val pp_error : error Fmt.t

val schema : Ast.program -> (int Smap.t, error) result
(** Predicate arities collected from declarations, facts, and rules. *)

val check_rule_safety : Ast.rule -> (unit, error) result
(** Builtin call arities ({!Builtins.arity}), then a positive body
    atom (a rule fires on a body tuple; with none, nothing triggers
    it), then range restriction, scanning the body left to right:
    positive atoms
    bind their bare variable arguments; an assignment binds its variable
    if the right-hand side is bound; negated atoms, comparisons, complex
    arguments, and the head must use only bound variables. *)

val check_safety : Ast.program -> (unit, error) result

type dep = {
  dep_on : string;
  strict : bool;
      (** [strict] when the dependency passes through negation or into
          an aggregate head: the body predicate must live in a strictly
          lower stratum. *)
}

val dependencies : Ast.program -> dep list Smap.t
(** The head <- body dependency graph. *)

val stratify : Ast.program -> (string list list, error) result
(** Strata bottom-up; every strict dependency crosses a stratum
    boundary. *)

(** Everything the evaluators need to know about a program. *)
type info = {
  arities : int Smap.t;
  strata : string list list;
  base_preds : string list;  (** relations with no defining rule *)
  derived_preds : string list;  (** relations with at least one rule *)
  lifetimes : Ast.lifetime Smap.t;  (** from [materialize] declarations *)
}

val analyze : Ast.program -> (info, error) result
(** Schema + safety + stratification. *)

val analyze_exn : Ast.program -> info
(** @raise Invalid_argument on analysis failure. *)
