(** The transition-system (linear-logic flavoured) view of NDlog
    execution (Section 4.3: "view the declarative networking
    specification as a set of transition rules that determine the
    updates of the underlying routing tables").

    States are databases carrying their enabled insertions; transitions
    insert rule consequences.  Count-to-infinity programs yield infinite
    state spaces, which bounded exploration reports as truncation.

    The successor step is the engine's delta step: a successor's enabled
    set is its parent's minus the insertion, merged with the heads
    derived through the one inserted tuple — the executor's own strands
    ({!Ndlog.Plan.compile_strand}) joined through
    {!Ndlog.Eval.seeded_envs}.
    Initial states and programs with negation enumerate the set in full
    ({!enabled_insertions}).

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

(** {1 States} *)

type state = private {
  db : Ndlog.Store.t;
  enabled : action list Lazy.t;
      (** {!enabled_insertions} of [db], forced when the state is
          expanded *)
  hash : int;  (** {!Ndlog.Store.hash} of [db] *)
}
(** Identity is {!Ndlog.Store.equal} on [db] ({!state_equal}); the
    other two fields are derived from it. *)

val state_of_store : Ndlog.Ast.program -> Ndlog.Store.t -> state
(** A state whose enabled set is enumerated in full, when forced. *)

val state_equal : state -> state -> bool

(** {1 The delta step} *)

type delta
(** A program compiled for successor steps: the executor's strands
    ({!Ndlog.Plan.compile_program}) seeded by a predicate some
    non-aggregate rule derives (no other tuple is ever inserted by a
    step).  A program with negation compiles to full enumeration. *)

val compile : Ndlog.Ast.program -> delta

val step_enabled :
  delta ->
  parent:action list ->
  inserted:action list ->
  Ndlog.Store.t ->
  action list Lazy.t
(** The enabled set of the store reached by inserting [inserted]
    (sorted, none stored before) into a store whose enabled set was
    [parent]: in a negation-free program, [parent] minus [inserted]
    merged with the heads derived through the inserted tuples that the
    new store lacks — equal, order included, to {!enabled_insertions}
    on the new store. *)

val independent : Ndlog.Ast.program -> action -> action -> bool
(** Strong independence of two enabled insertions: in a negation-free
    program insertions only ever add satisfying environments, so
    distinct insertions commute and stay enabled along every
    interleaving — distinctness alone suffices.  A negated body atom
    lets one insertion disable another's derivations, transitively, so
    under negation no two insertions are independent.  The partial
    application [independent p] scans the program once. *)

(** {1 Systems} *)

val labeled_system :
  ?observed:string list -> Ndlog.Ast.program -> (state, action) Explore.sys
(** Fine-grained: one labeled successor per enabled insertion, in
    {!enabled_insertions} order, each stepped by {!step_enabled}.
    [observed] is the visibility hook for invariant checking under POR:
    insertions into the listed predicates are visible, all others
    invisible — the caller asserts its invariant reads only observed
    predicates.  Omitted, every insertion is visible (sound for any
    invariant; POR then reduces nothing during invariant checking). *)

val batched_system : Ndlog.Ast.program -> state Explore.system
(** One successor per state (all enabled insertions at once, the batch
    being the step's delta): a much smaller space with the same
    terminal fixpoint. *)

val explore :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  Ndlog.Ast.program ->
  state Explore.stats
(** Fine-grained exploration with both reductions switchable (default
    off: identical to [Explore.explore (labeled_system p)]).  Symmetry
    canonicalizes the database ({!Symmetry.canon_store}) and rehashes
    the representative from its tuples. *)

val check_fine_invariant :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  ?observed:string list ->
  ?stable:bool ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t -> bool) ->
  (state Explore.stats, state Explore.violation) result
(** Safety over every reachable database of the fine-grained system.
    Under [?symmetry] the invariant must be symmetric; under [?por] it
    must be covered by [?observed] or declared [?stable] (violations
    persist under further insertions) for the reduction to act — see
    {!Explore.check_invariant}. *)

val check_table_invariant :
  ?max_states:int ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t -> bool) ->
  (state Explore.stats, state Explore.violation) result
(** Safety over every reachable database of the batched system. *)
