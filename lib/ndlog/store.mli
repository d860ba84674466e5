(** Ground-tuple storage: a persistent database mapping predicate names
    to sets of tuples.  A store is a plain value with no empty relation
    and no cache, so two databases with the same contents are {!equal},
    {!compare}-equal and {!hash}-equal whatever order their tuples
    arrived in — which lets the model checker use them directly as
    states (through these functions: the balanced trees' shapes, which
    [(=)] sees, depend on insertion order).  Indexed joins run over
    {!Flat}, not here.

    Tuples arrive here already canonicalized ({!Intern}): interning
    happens at the system boundaries (fact loading, event injection,
    expression construction), so resident values are physically shared
    and comparisons between them short-circuit on pointer equality.
    {!add} itself does not intern, and nothing observable depends on
    sharing: a store built from fresh, unshared value boxes is
    {!equal}, {!compare}-equal and {!hash}-equal to its canonical
    twin. *)

(** Tuples: value arrays compared lexicographically (length first). *)
module Tuple : sig
  type t = Value.t array

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : t Fmt.t
end

(** Sets of tuples. *)
module Tset : Set.S with type elt = Tuple.t

type t
(** A database. *)

val empty : t

val relation : string -> t -> Tset.t
(** The tuple set of a predicate (empty when absent). *)

val tuples : string -> t -> Tuple.t list
(** The tuples of a predicate, in canonical order. *)

val mem : string -> Tuple.t -> t -> bool
val add : string -> Tuple.t -> t -> t
val remove : string -> Tuple.t -> t -> t
val add_list : string -> Tuple.t list -> t -> t

val set_relation : string -> Tset.t -> t -> t
(** Replace a predicate's relation wholesale (the empty set removes
    it). *)

val map_tuples : (Tuple.t -> Tuple.t) -> t -> t
(** Apply a function to every tuple, relation by relation, rebuilding
    each relation's tuple set in bulk (tuples mapped to the same image
    merge). *)

val preds : t -> string list
(** Predicates with at least one tuple, sorted. *)

val cardinal : string -> t -> int
val total_tuples : t -> int

val union : t -> t -> t
(** Per-predicate set union. *)

val diff : t -> t -> t
(** [diff b a]: the tuples of [b] not in [a] (the delta). *)

val is_empty : t -> bool

val equal : t -> t -> bool
(** Content equality. *)

val compare : t -> t -> int

val hash : t -> int
(** The sum of the facts' {!fact_hash}es: independent of insertion
    order, agreeing with {!equal}. *)

val fact_hash : string -> Tuple.t -> int
(** One fact's share of {!hash}, so an insertion updates a kept hash in
    O(1). *)

val of_facts : Ast.fact list -> t

val restrict : string list -> t -> t
(** Keep only the given predicates. *)

val to_list : t -> (string * Tuple.t) list
(** All tuples as [(pred, tuple)] pairs, deterministically ordered. *)

val fold_rel : string -> (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter_rel : string -> (Tuple.t -> unit) -> t -> unit

val iter : (string -> Tuple.t -> unit) -> t -> unit
(** Every [(pred, tuple)], in {!to_list}'s order, without building the
    list. *)

val pp : t Fmt.t
val to_string : t -> string
