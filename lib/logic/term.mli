(** First-order terms.

    Constants reuse the NDlog value domain ({!Ndlog.Value.t}) so that
    translated programs and evaluated tuples share one vocabulary;
    function symbols cover the NDlog builtins and arithmetic. *)

module Value = Ndlog.Value

type t =
  | Var of string
  | Cst of Value.t
  | Fn of string * t list
      (** applications; 0-ary applications are the skolem constants
          introduced by quantifier rules *)

val compare : t -> t -> int
val equal : t -> t -> bool

module Sset : Set.S with type elt = string and type t = Set.Make(String).t
module Smap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

val free_vars : Sset.t -> t -> Sset.t
val vars : t -> Sset.t

(** {1 Substitutions} *)

type subst = t Smap.t

val subst_empty : subst
val subst_find : string -> subst -> t option
val subst_of_list : (string * t) list -> subst
val apply_subst : subst -> t -> t

val matching : subst -> t -> t -> subst option
(** One-way matching: extend the substitution so that
    [pattern{sigma} = target].  Variables in the target are opaque. *)

val occurs : string -> t -> bool

val unify : subst -> t -> t -> subst option
(** Syntactic unification with occurs check. *)

val subterms : t list -> t -> t list
(** All subterms, accumulated (instantiation candidates). *)

val is_ground : t -> bool

val eval : t -> Value.t option
(** Ground evaluation of interpreted symbols: arithmetic ([+], [-],
    [*], [/]) and the NDlog builtins.  [None] for variables and
    uninterpreted or ill-sorted applications. *)

val pp : t Fmt.t
val to_string : t -> string

(** {1 Constructors} *)

val var : string -> t
val int : int -> t
val fn : string -> t list -> t
val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
