(** The transition-system (linear-logic flavoured) view of NDlog
    execution (Section 4.3: "view the declarative networking
    specification as a set of transition rules that determine the
    updates of the underlying routing tables").

    States are databases; transitions insert rule consequences.
    Count-to-infinity programs yield infinite state spaces, which
    bounded exploration reports as truncation.

    The fine-grained system comes in an unlabeled form ({!system}) and
    a labeled form ({!labeled_system}) whose actions carry read/write
    footprints for partial-order reduction; {!explore} and
    {!check_fine_invariant} expose both reductions as switches
    (default off). *)

val insertion_compare :
  string * Ndlog.Store.Tuple.t -> string * Ndlog.Store.Tuple.t -> int
(** The engine-canonical order on (pred, tuple): predicate name, then
    {!Ndlog.Store.Tuple.compare} — the engine's value equality, never
    polymorphic [compare]. *)

val enabled_insertions :
  Ndlog.Ast.program -> Ndlog.Store.t -> (string * Ndlog.Store.Tuple.t) list
(** All single-tuple insertions enabled in a database (non-aggregate
    rules), deduplicated and sorted by {!insertion_compare}. *)

(** An enabled insertion labeled with its footprint: the write is the
    inserted tuple's location (its predicate's location column), the
    reads the (predicate, body location) pairs over every deriving
    environment.  A [None] location is unlocated and conflicts with
    every write of its predicate. *)
type action = {
  pred : string;
  tuple : Ndlog.Store.Tuple.t;
  writes_at : Ndlog.Value.t option;
  reads : (string * Ndlog.Value.t option) list;
}

val enabled_actions : Ndlog.Ast.program -> Ndlog.Store.t -> action list
(** {!enabled_insertions} with footprints, in the same order.  The
    partial application [enabled_actions p] does the per-program work
    (the location map) once, so apply it once per system. *)

(** How independence of two enabled insertions is certified.  Either
    mode claims independence only in negation-free programs (a negated
    body atom lets one insertion disable another's derivations,
    transitively — no local test bounds it, so negation turns the
    reduction off wholesale):

    - [`Monotone] (default): in a negation-free program insertions
      only ever add satisfying environments, so distinct insertions
      commute and stay enabled along every interleaving — distinctness
      alone suffices, collapsing the insertion lattice to one chain;
    - [`Footprint]: additionally require writes at distinct located
      nodes and each write disjoint from the other's reads — the
      conservative locality test, justified without the global
      monotonicity argument but much weaker in practice: a route
      insertion's write usually appears in a neighbour's reads, so
      densely coupled topologies see little reduction (measured in experiment E17). *)
type independence = [ `Footprint | `Monotone ]

val has_negation : Ndlog.Ast.program -> bool
(** Any negated body atom in a non-aggregate rule. *)

val footprint_independent : action -> action -> bool

val action_independent :
  mode:independence -> negation_free:bool -> action -> action -> bool

val system : Ndlog.Ast.program -> Ndlog.Store.t Explore.system
(** Fine-grained: one successor per enabled insertion. *)

val labeled_system :
  ?independence:independence ->
  ?observed:string list ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t, action) Explore.sys
(** The fine-grained system with labeled actions.  [observed] is the
    visibility hook for invariant checking under POR: insertions into
    the listed predicates are visible, all others invisible — the
    caller asserts its invariant reads only observed predicates.
    Omitted, every insertion is visible (sound for any invariant; POR
    then reduces nothing during invariant checking). *)

val batched_system : Ndlog.Ast.program -> Ndlog.Store.t Explore.system
(** One successor per state (all enabled insertions at once): a much
    smaller space with the same terminal fixpoint. *)

val explore :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  ?independence:independence ->
  Ndlog.Ast.program ->
  Ndlog.Store.t Explore.stats
(** Fine-grained exploration with both reductions switchable (default
    off: identical to [Explore.explore (system p)]). *)

val check_fine_invariant :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  ?independence:independence ->
  ?observed:string list ->
  ?stable:bool ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t -> bool) ->
  (Ndlog.Store.t Explore.stats, Ndlog.Store.t Explore.violation) result
(** Safety over every reachable database of the fine-grained system.
    Under [?symmetry] the invariant must be symmetric; under [?por] it
    must be covered by [?observed] or declared [?stable] (violations
    persist under further insertions) for the reduction to act — see
    {!Explore.check_invariant}. *)

val check_table_invariant :
  ?max_states:int ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t -> bool) ->
  (Ndlog.Store.t Explore.stats, Ndlog.Store.t Explore.violation) result
(** Safety over every reachable database of the batched system. *)
