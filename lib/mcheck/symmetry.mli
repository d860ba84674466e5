(** Symmetry reduction for the model checker: quotient the visited
    table by the automorphism group of the network topology.

    Each state is mapped to a canonical member of its node-permutation
    orbit, so symmetric states share one table entry — an alternative
    equal/hash pair on {!Explore.Table} ([~canon] wires it in).  The
    group is enumerated once, as a table of node-index permutations.
    The representative is chosen by colour refinement: nodes are
    coloured by the facts that mention them, iterated to a stable
    partition; only the group elements that carry the colour vector to
    its lexicographic minimum are kept (index arithmetic, no store
    work), and the representative is the [compare]-least of their
    images, found by closing one image's orbit under the subgroup
    preserving its colours from a few generators (a star's identical
    leaves cost a handful of permutations).  That is the minimum of
    (colour vector, state) over the whole orbit: exact, so orbits are
    never split or merged.

    Node identity is the {!Ndlog.Value.Addr} sort: permutations rename
    addresses deeply (path-vector lists permute with their nodes) and
    leave the other sorts alone.  Invariants checked under the
    quotient must themselves be symmetric. *)

type perm = (string * string) list
(** A node permutation as an association list; unlisted names are
    fixed. *)

exception Not_a_bijection of perm
(** A generator that sends two names to one (e.g. [[("n1", "n0")]],
    which also fixes [n0]). *)

exception Group_too_large of int
(** The generated group has more elements than the cap carried. *)

type t
(** A symmetry group: its generators and its enumerated elements. *)

val of_generators : ?cap:int -> perm list -> t
(** The group the permutations generate, enumerated once.  [cap]
    (default 4096) bounds its order: a larger group raises
    {!Group_too_large}.  A non-bijective generator raises
    {!Not_a_bijection}; identity generators are dropped. *)

val of_topology : ?cap:int -> Netsim.Topology.t -> t
(** The group spanned by
    {!Netsim.Topology.automorphism_generators}. *)

val generators : t -> perm list

val order : t -> int
(** The number of group elements, the identity included. *)

val trivial : t -> bool
(** Only the identity: canonicalization is the identity. *)

(** {1 Compiled permutations} *)

type gen
(** A permutation compiled for bulk application: a name-to-address
    table whose images are interned {!Ndlog.Value.Addr} values. *)

val compile : perm -> gen
val map_tuple : gen -> Ndlog.Store.Tuple.t -> Ndlog.Store.Tuple.t

val map_store : gen -> Ndlog.Store.t -> Ndlog.Store.t
(** Permutes each relation's tuple set in bulk
    ({!Ndlog.Store.map_tuples}). *)

(** {1 Raw permutations}

    Each call compiles its permutation; canonicalization compiles only
    the group elements it applies. *)

val apply_name : perm -> string -> string
val apply_tuple : perm -> Ndlog.Store.Tuple.t -> Ndlog.Store.Tuple.t
val apply_store : perm -> Ndlog.Store.t -> Ndlog.Store.t

(** {1 Canonical forms} *)

val canonicalize :
  t ->
  facts:('a -> (int -> Ndlog.Store.Tuple.t -> unit) -> unit) ->
  apply:(gen -> 'a -> 'a) ->
  compare:('a -> 'a -> int) ->
  'a ->
  'a
(** Generic canonicalization, for state types wrapping a store (e.g.
    {!Soft_ts.state}, whose leases permute jointly with the database).
    [facts x sink] calls [sink tag tuple] once per fact of [x]; nodes
    are coloured by these facts only.  It must be equivariant: the
    facts of [apply g x] are those of [x] with [g] applied to each
    tuple and the same tags (a tag is any permutation-invariant int,
    e.g. the predicate's hash).  Everything that distinguishes states
    and mentions nodes should be a fact — leases count — or colours
    prune less; nothing else is needed for exactness.  [apply] is
    called only with elements of the group; [compare] must be a total
    order whose zero is state equality. *)

val store_facts :
  Ndlog.Store.t -> (int -> Ndlog.Store.Tuple.t -> unit) -> unit
(** A store's facts, each tagged with its predicate's hash. *)

val canon_store : t -> Ndlog.Store.t -> Ndlog.Store.t
(** The orbit representative of a store: {!canonicalize} over
    {!store_facts}, {!map_store} and {!Ndlog.Store.compare}. *)

val store_equal : t -> Ndlog.Store.t -> Ndlog.Store.t -> bool
(** Orbit equality: [canon_store] images are {!Ndlog.Store.equal}. *)

val store_hash : t -> Ndlog.Store.t -> int
(** Hash of the orbit representative; agrees with {!store_equal}. *)
