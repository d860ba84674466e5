(** Id-native evaluation: the rule-application core of {!Eval} over
    flat tuples ({!Flat}) and slot-compiled integer environments.

    Environments bind dense interned ids instead of boxed values,
    pattern matching and join probes compare machine ints, and boxing
    happens only at true system boundaries (builtin calls, ordering
    comparisons, observable output).  Planning is shared with the boxed
    evaluator: literal orders come from the same planning functions,
    the index-versus-scan decision is the same test on the same
    positions, and every {!Eval.counters} field is bumped at the same
    point of the same loop — fixpoints, derivation counts and join
    statistics match {!Eval}'s (checked by property).  This is the
    executor {!Dist.Runtime} runs.

    Flat databases are mutable and linearly owned; the persistent
    {!Store} remains canonical for model-checker state identity, and
    the id-native path materializes through {!Flat.to_store} at
    observation points. *)

(** {1 Strand execution (the wire path)} *)

type istrand
(** A compiled strand: {!Plan.strand} with its delta decomposition
    pre-planned and its body slot-compiled.  The compilation is
    cardinality-independent (like {!Plan.execute_batch}'s planning), so
    one compiled strand serves every batch; it is re-planned lazily if
    {!Eval.use_reordering} changes. *)

val of_strand : Plan.strand -> istrand
(** @raise Invalid_argument when the strand has no delta position. *)

val delta_pred : istrand -> string
val head_pred : istrand -> string

val head_loc : istrand -> int option
(** The head atom's location-specifier column, if any. *)

val execute_batch :
  ?stats:Eval.counters ->
  Flat.t ->
  delta_tuples:int array list ->
  istrand ->
  int array list
(** Head id tuples of one strand run over a whole delta batch — the id
    twin of {!Plan.execute_batch}.  Same head multiset and counters;
    the list order differs, so observable consumers materialize and
    sort. *)

val refresh_stratum :
  ?stats:Eval.counters -> Flat.t -> strands:istrand list -> delta:Flat.t -> unit
(** Seeded delta-driven re-derivation of one view refresh stratum
    ({!Eval.refresh_strata}) to fixpoint, mutating the working
    database: [fdb] holds the stratum's previous fixpoint on top of the
    current support, [delta] the support tuples added since.  Strands
    whose trigger predicate has delta tuples run through
    {!execute_batch}; new head tuples join the database and become the
    next round's delta.  Sound exactly for plain monotone strata under
    purely additive support change — the incremental refresh loop
    falls back to from-scratch recomputation otherwise. *)

type refold
(** An aggregate rule of the {!Eval.agg_index_shape} (a single positive
    body atom over distinct bare variables), compiled for group-wise
    maintenance: its head and body predicates, the body's group-by
    columns, and where the head carries each of them. *)

val refold_plan : Ast.rule list -> refold list option
(** [Some] when a stratum's rules can be maintained group-wise: each is
    an aggregate rule of {!Eval.agg_index_shape}, no two share a head
    predicate, and no body reads one of their heads — so every head
    relation is exactly one rule's per-group output over relations
    below the stratum. *)

val refold_stratum :
  ?stats:Eval.counters ->
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

(** {1 Fixpoint drivers} *)

type outcome = {
  rounds : int;
  derivations : int;
  converged : bool;
  stats : Eval.stats;
}
(** {!Eval.outcome} without the database (the caller owns the mutated
    {!Flat.t}). *)

val seminaive :
  ?max_rounds:int ->
  ?stats:Eval.counters ->
  Ast.program ->
  Analysis.info ->
  Flat.t ->
  outcome
(** Semi-naive evaluation to fixpoint, mutating [fdb] — the id twin of
    {!Eval.seminaive}. *)

val seminaive_stratum :
  ?max_rounds:int ->
  ?stats:Eval.counters ->
  Ast.program ->
  string list ->
  Flat.t ->
  bool
(** [seminaive_stratum p preds fdb]: evaluate the single stratum of [p]
    whose heads are [preds] to fixpoint on [fdb] — aggregate rules once
    at entry, plain rules semi-naively.  The from-scratch fallback of
    incremental view refresh. *)

val run_program :
  ?max_rounds:int ->
  Ast.program ->
  (Store.t * outcome, Analysis.error) result
(** Analyze and evaluate a self-contained program id-natively from its
    facts, returning the materialized boxed fixpoint — the differential
    entry point mirroring {!Eval.run}. *)
