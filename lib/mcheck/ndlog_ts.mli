(** The transition-system (linear-logic flavoured) view of NDlog
    execution (Section 4.3: "view the declarative networking
    specification as a set of transition rules that determine the
    updates of the underlying routing tables").

    States are databases; transitions insert rule consequences.
    Count-to-infinity programs yield infinite state spaces, which
    bounded exploration reports as truncation.

    The fine-grained system ({!labeled_system}) labels each transition
    with its insertion; {!explore} and {!check_fine_invariant} expose
    partial-order and symmetry reduction as switches (default off). *)

val insertion_compare :
  string * Ndlog.Store.Tuple.t -> string * Ndlog.Store.Tuple.t -> int
(** The engine-canonical order on (pred, tuple): predicate name, then
    {!Ndlog.Store.Tuple.compare} — the engine's value equality, never
    polymorphic [compare]. *)

type action = string * Ndlog.Store.Tuple.t
(** One enabled insertion: the head predicate and the new tuple. *)

val enabled_insertions : Ndlog.Ast.program -> Ndlog.Store.t -> action list
(** All single-tuple insertions enabled in a database (non-aggregate
    rules), deduplicated and sorted by {!insertion_compare}. *)

val independent : Ndlog.Ast.program -> action -> action -> bool
(** Strong independence of two enabled insertions: in a negation-free
    program insertions only ever add satisfying environments, so
    distinct insertions commute and stay enabled along every
    interleaving — distinctness alone suffices.  A negated body atom
    lets one insertion disable another's derivations, transitively, so
    under negation no two insertions are independent.  The partial
    application [independent p] scans the program once. *)

val labeled_system :
  ?observed:string list ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t, action) Explore.sys
(** Fine-grained: one labeled successor per enabled insertion, in
    {!enabled_insertions} order.  [observed] is the visibility hook for
    invariant checking under POR: insertions into the listed predicates
    are visible, all others invisible — the caller asserts its
    invariant reads only observed predicates.  Omitted, every insertion
    is visible (sound for any invariant; POR then reduces nothing during
    invariant checking). *)

val batched_system : Ndlog.Ast.program -> Ndlog.Store.t Explore.system
(** One successor per state (all enabled insertions at once): a much
    smaller space with the same terminal fixpoint. *)

val explore :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  Ndlog.Ast.program ->
  Ndlog.Store.t Explore.stats
(** Fine-grained exploration with both reductions switchable (default
    off: identical to [Explore.explore (labeled_system p)]). *)

val check_fine_invariant :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
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
