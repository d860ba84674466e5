(** Symmetry reduction for the model checker: quotient the visited
    table by the automorphism group of the network topology.

    A state is canonicalized by minimizing ({!Ndlog.Store.compare})
    over its node-permutation orbit, so symmetric states share one
    table entry — an alternative equal/hash pair on
    {!Explore.Table} ([~canon] wires it in).  The group is handled by
    generators (never enumerated): orbits are closed breadth-first
    under the generators up to a cap, which is exact for the small
    dihedral groups of rings and grids; huge groups (a star's leaves
    carry a full symmetric group) hit the cap and finish with greedy
    descent — still inside the orbit, so the quotient stays sound and
    merely coarser splits cost reduction, never correctness.

    Node identity is the {!Ndlog.Value.Addr} sort: permutations rename
    addresses deeply (path-vector lists permute with their nodes) and
    leave the other sorts alone.  Invariants checked under the
    quotient must themselves be symmetric. *)

type perm = (string * string) list
(** A node permutation as an association list; unlisted names are
    fixed. *)

type t
(** A generated symmetry group (generators plus an orbit cap). *)

val of_generators : ?cap:int -> perm list -> t
(** Identity generators are dropped, and the rest are compiled once
    ({!compile}).  [cap] (default 4096) bounds the orbit members
    expanded during canonicalization. *)

val of_topology : ?cap:int -> Netsim.Topology.t -> t
(** The group spanned by
    {!Netsim.Topology.automorphism_generators}. *)

val generators : t -> perm list

val trivial : t -> bool
(** No non-identity generators: canonicalization is the identity. *)

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

    Each call compiles its permutation; orbit searches go through
    {!canonicalize}, which uses the group's precompiled generators. *)

val apply_name : perm -> string -> string
val apply_value : perm -> Ndlog.Value.t -> Ndlog.Value.t
val apply_tuple : perm -> Ndlog.Store.Tuple.t -> Ndlog.Store.Tuple.t
val apply_store : perm -> Ndlog.Store.t -> Ndlog.Store.t

val canonicalize :
  t ->
  apply:(gen -> 'a -> 'a) ->
  compare:('a -> 'a -> int) ->
  'a ->
  'a
(** Generic orbit minimization, for state types wrapping a store
    (e.g. {!Soft_ts.state}, whose leases permute jointly with the
    database).  [apply] receives the group's compiled generators;
    [compare] must be a total order whose zero is state equality (it
    both picks the minimum and recognizes revisited members). *)

val canon_store : t -> Ndlog.Store.t -> Ndlog.Store.t
(** The orbit representative: minimal over the closed orbit (exact
    when the orbit fits the cap, a sound approximation otherwise). *)

val store_equal : t -> Ndlog.Store.t -> Ndlog.Store.t -> bool
(** Orbit equality: [canon_store] images are {!Ndlog.Store.equal}. *)

val store_hash : t -> Ndlog.Store.t -> int
(** Hash of the orbit representative; agrees with {!store_equal}. *)
