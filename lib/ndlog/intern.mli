(** Hash-consed interning of runtime values.

    Maps every distinct {!Value.t} to one canonical representative and a
    dense integer id, so resident values share structure (physical
    equality makes {!Value.compare} short-circuit, duplicate strings
    collapse on the heap) and flat tuples ({!Flat}) can compare as
    machine ints.

    Atoms are hash-consed through {!Value.hash}; lists are hash-consed
    one cons cell at a time, keyed by the [(head id, tail id)] pair, so
    no structural hash ever walks a list and the representative of
    [h :: t] shares the spine of [t]'s representative.  Every element
    of a canonical list is its own canonical representative.

    The interning tables are process-global caches: they never
    influence store [equal]/[compare]/[hash], so model-checker state
    identity is unaffected.  Ids are allocation-ordered, {e not} consistent with
    {!Value.compare}; use them only for equality.

    Single-domain contract: the tables are unsynchronized, so these
    operations must never run on two domains at once.  Every evaluator
    and runtime of this library runs on the calling domain; a parallel
    evaluator would have to partition or lock the tables first. *)

val canon : Value.t -> Value.t
(** The canonical representative of a value, interning on first sight.
    [canon v] is structurally equal to [v], and physically equal across
    all calls with structurally equal arguments. *)

val id : Value.t -> int
(** The dense id of a value, interning on first sight.
    [id a = id b] iff [Value.equal a b].  Cost: one {!Value.hash} probe
    per atom and one pair probe per list cell, nested lists included;
    a list is never hashed as a whole. *)

val of_id : int -> Value.t
(** The canonical representative registered under an id.
    @raise Invalid_argument on an id never returned by {!id}. *)

val nil : int
(** [id (Value.List [])]. *)

val cons : int -> int -> int
(** [cons (id h) (id (List t)) = id (List (h :: t))] in one pair probe,
    whatever the length of [t]; the new representative shares the
    spine of the tail's.
    @raise Invalid_argument on an unknown id or a tail that is not a
    list. *)

val tuple : Value.t array -> Value.t array
(** Canonicalize every element of a tuple.  Returns the argument itself
    (no allocation) when all elements are already canonical. *)

val tuple_ids : Value.t array -> int array
(** [Array.map id]: translate a boxed tuple into the id-native
    representation.  The {e expensive} direction — each atom pays a
    hash probe and each list cell a pair probe — so callers keep it
    off per-probe hot paths (E15 measures the cost). *)

val tuple_of_ids : int array -> Value.t array
(** [Array.map of_id]: rebuild the boxed (canonical-representative)
    tuple.  The cheap direction — an array
    read per element.
    @raise Invalid_argument on an id never returned by {!id}. *)

val compare_ids : int array -> int array -> int
(** The boxed tuple order ({!Store.Tuple.compare}) of two id tuples,
    read through {!of_id} without materializing either tuple. *)

val int_id : int -> int
(** [id (Value.Int n)], memoized in a direct-indexed table for small
    non-negative [n] — freshly computed hop counts and path costs skip
    the hash-cons probe. *)

val size : unit -> int
(** Number of distinct values interned so far (diagnostics). *)
