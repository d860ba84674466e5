(** Ground-tuple storage: a persistent database mapping predicate names
    to sets of tuples.  Stores are canonical values — two databases with
    the same contents are structurally equal — which lets the model
    checker use them directly as states.

    Relations carry lazily built secondary indexes over column sets
    ({!lookup}), maintained incrementally across {!add} / {!remove} /
    {!union} / {!set_relation}.  Indexes are pure
    memoization: they never participate in {!equal}, {!compare} or
    {!hash}, so two stores with the same tuples remain the same
    model-checker state whatever joins have been run against them.

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
(** Replace a predicate's relation wholesale (used by view refresh).
    Cached indexes are patched by the symmetric difference of old and
    new relation, so warm indexes survive the repeated mostly-unchanged
    replacements the refresh loop performs. *)

val map_tuples : (Tuple.t -> Tuple.t) -> t -> t
(** Apply a function to every tuple, relation by relation, rebuilding
    each relation's tuple set in bulk (tuples mapped to the same image
    merge).  Cached indexes are dropped. *)

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
(** Content equality (empty relations are irrelevant). *)

val compare : t -> t -> int

val hash : t -> int
(** The sum of the facts' {!fact_hash}es: independent of insertion
    order and of index caches, agreeing with {!equal}. *)

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

(** {1 Secondary indexes}

    Used by the boxed join core's index-aware joins
    ({!Eval.body_envs}). *)

val lookup : string -> cols:int list -> key:Value.t list -> t -> Tset.t
(** [lookup pred ~cols ~key db]: every tuple of [pred] whose values at
    positions [cols] (a strictly increasing list) equal [key]
    (positionally matching [cols]).  Builds and caches the
    [(pred, cols)] index on first use; subsequent updates through
    {!add} / {!remove} / {!union} keep it current.  Tuples too short to
    have all indexed columns are never returned (they cannot match a
    pattern binding those positions). *)

val index_count : t -> int
(** Number of materialized [(pred, column-set)] indexes — cache
    introspection for tests and stats. *)

val indexed_cols : string -> t -> int list list
(** The column sets currently indexed for a predicate. *)
