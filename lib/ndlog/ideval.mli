(** The semi-naive executor: NDlog rule application over flat tuples
    ({!Flat}) and slot-compiled integer environments.

    Environments bind dense interned ids instead of boxed values,
    pattern matching and join probes compare machine ints, and boxing
    happens only at true system boundaries (builtin calls, ordering
    comparisons, observable output).  Planning comes from {!Plan}, and
    every delta join runs a strand of {!Plan.compile_strand}: the
    executor's rounds after the first, the runtime's strands and view
    refresh alike.  Strands always join group-at-a-time: the round's
    delta is grouped by the columns the rest of the body reads, the
    shared literals run once per group, and each delta tuple pays only
    its pattern match and the per-tuple remainder.  Index probes and
    most-bound-first ordering are switched per call by
    [optimized_joins]; either setting reaches the same fixpoint.
    This is the only semi-naive executor: {!Eval.seminaive} runs it
    behind a boxing boundary, and {!Dist.Runtime} runs it per node.

    Flat databases are mutable and linearly owned; the persistent
    {!Store} remains canonical for model-checker state identity, and
    the id-native path materializes through {!Flat.to_store} at
    observation points. *)

(** {1 Strand execution (the wire path)} *)

type istrand
(** A compiled strand: the literals of {!Plan.strand} as planned there
    (so the plan {!Plan.pp} prints is the plan that runs), with the
    batched delta decomposition pre-planned, the body slot-compiled,
    each atom's index probe fixed, and its scratch environments
    allocated.  The plan is cardinality-independent, so one compiled
    strand serves every batch. *)

val of_strand : Plan.strand -> istrand

val delta_pred : istrand -> string
val head_pred : istrand -> string

val head_loc : istrand -> int option
(** The head atom's location-specifier column, if any. *)

val execute_batch :
  ?stats:Plan.counters ->
  Flat.t ->
  delta_tuples:int array list ->
  istrand ->
  (int array -> unit) ->
  unit
(** One strand run over a whole batch of distinct delta tuples, handing
    each head id tuple to the callback as its environment completes:
    the batch is grouped by the strand's group columns and joined
    group-at-a-time, yielding the same multiset of heads as running the
    strand once per tuple.  The order is unspecified, so observable
    consumers sort.  The strand's scratch environments serve one batch
    at a time: the callback must not run the same strand again before
    it returns (collect the heads, then act on them). *)

type refold
(** An aggregate rule of the {!Plan.agg_index_shape} (a single positive
    body atom over distinct bare variables), compiled for group-wise
    maintenance: its head and body predicates, the body's group-by
    columns, and where the head carries each of them. *)

val refold_plan : Ast.rule list -> refold list option
(** [Some] when a stratum's rules can be maintained group-wise: each is
    an aggregate rule of {!Plan.agg_index_shape}, no two share a head
    predicate, and no body reads one of their heads — so every head
    relation is exactly one rule's per-group output over relations
    below the stratum. *)

val refold_stratum :
  ?stats:Plan.counters ->
  Flat.t ->
  refolds:refold list ->
  added:Flat.t ->
  removed:Flat.t ->
  unit
(** Group-wise maintenance of one aggregate view stratum, mutating the
    working database: [fdb] holds the stratum's previous fixpoint on
    top of the current support, [added] / [removed] the support tuples
    added and removed since.  For each rule, the groups holding an
    added or removed body tuple are re-folded from the current body
    relation (one scan), and each such group's old head tuple (one scan
    of the head relation) is replaced only if it differs, or removed if
    the group emptied.  The result equals the from-scratch aggregate for
    every aggregate kind, given a plan from {!refold_plan}. *)

(** {1 Fixpoint drivers}

    One semi-naive round loop serves all three drivers: each round runs
    the strands whose trigger predicate has delta tuples, and the new
    head tuples become the next round's delta. *)

type stratum
(** One stratum's rules, compiled once: its aggregate rules, its plain
    rules, and their strands ({!Plan.compile_strand}). *)

val compile_stratum : ?optimized_joins:bool -> Ast.rule list -> stratum
(** [optimized_joins] (default [true]) as in {!seminaive}. *)

type outcome = {
  rounds : int;
  derivations : int;
  converged : bool;
  stats : Plan.stats;
}
(** {!Eval.outcome} without the database (the caller owns the mutated
    {!Flat.t}). *)

val seminaive :
  ?max_rounds:int ->
  ?stats:Plan.counters ->
  ?optimized_joins:bool ->
  Ast.program ->
  Analysis.info ->
  Flat.t ->
  outcome
(** Semi-naive evaluation to fixpoint, mutating [fdb]: strata bottom-up,
    each compiled once; aggregate rules once at stratum entry, plain
    rules in full for the first round and through the round loop after.
    [optimized_joins] (default [true]) consults secondary indexes for
    ground argument positions and grouped aggregate probes and plans
    bodies most-bound-first ({!Plan.order_body}); off, every join is a
    full scan in source order.  A program that hits [max_rounds]
    (default 10 000) is reported as not converged. *)

val seminaive_stratum :
  ?max_rounds:int -> ?stats:Plan.counters -> stratum -> Flat.t -> bool
(** One compiled stratum to fixpoint on [fdb], as {!seminaive} runs
    each: the from-scratch fallback of incremental view refresh, which
    compiles no strand per call. *)

val refresh_stratum :
  ?stats:Plan.counters -> Flat.t -> stratum -> delta:Flat.t -> unit
(** Seeded re-derivation of one view refresh stratum
    ({!Eval.refresh_strata}): the round loop entered with [delta], the
    support tuples added since the previous fixpoint [fdb] holds.
    Sound exactly for plain monotone strata under purely additive
    support change — the refresh loop falls back to
    {!seminaive_stratum} otherwise. *)
