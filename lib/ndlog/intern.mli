(** Hash-consed interning of runtime values.

    Maps every distinct {!Value.t} to one canonical representative and a
    dense integer id, so resident values share structure (physical
    equality makes {!Value.compare} short-circuit, duplicate strings
    collapse on the heap) and flat tuples ({!Flat}) can compare as
    machine ints.

    The interning tables are process-global caches in the same sense as
    {!Store}'s secondary-index caches: they never influence store
    [equal]/[compare]/[hash], so model-checker state identity is
    unaffected.  Ids are allocation-ordered, {e not} consistent with
    {!Value.compare}; use them only for equality.

    All operations are thread-safe (a mutex guards the tables), so the
    sharded evaluator's worker domains may intern concurrently. *)

val canon : Value.t -> Value.t
(** The canonical representative of a value, interning on first sight.
    [canon v] is structurally equal to [v], and physically equal across
    all calls with structurally equal arguments. *)

val id : Value.t -> int
(** The dense id of a value, interning on first sight.
    [id a = id b] iff [Value.equal a b]. *)

val of_id : int -> Value.t
(** The canonical representative registered under an id.
    @raise Invalid_argument on an id never returned by {!id}. *)

val tuple : Value.t array -> Value.t array
(** Canonicalize every element of a tuple.  Returns the argument itself
    (no allocation) when all elements are already canonical. *)

val tuple_ids : Value.t array -> int array
(** [Array.map id], under one lock acquisition: translate a boxed tuple
    into the id-native representation.  This is the {e expensive}
    direction — each element pays a hash-cons probe that walks its
    structure — so callers keep it off per-probe hot paths (E15
    measures the cost). *)

val tuple_of_ids : int array -> Value.t array
(** [Array.map of_id], under one lock acquisition: rebuild the boxed
    (canonical-representative) tuple.  The cheap direction — an array
    read per element.
    @raise Invalid_argument on an id never returned by {!id}. *)

val get : int -> Value.t
(** Unsynchronized {!of_id} for single-domain inner loops (the id-native
    evaluator).  Reverse-table slots are written once, before their id
    is published, so a reader that obtained the id through any
    synchronized operation always sees the entry; only the bounds check
    is unsynchronized.  Use {!of_id} from worker domains.
    @raise Invalid_argument on an id never returned by {!id}. *)

val int_id : int -> int
(** [id (Value.Int n)], memoized in a direct-indexed table for small
    non-negative [n] — freshly computed hop counts and path costs skip
    the hash-cons probe. *)

val size : unit -> int
(** Number of distinct values interned so far (diagnostics). *)
