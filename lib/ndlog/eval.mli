(** Bottom-up evaluation of NDlog programs.

    Three evaluators share one rule-application core: {!naive}
    re-derives everything from the full database each round;
    {!seminaive} performs classic delta iteration;
    {!seminaive_sharded} partitions the database by the
    location-specifier column ({!Shard}) and runs per-shard semi-naive
    fixpoints in parallel on OCaml domains, exchanging foreign-located
    head tuples between shards until a global fixpoint.  All respect
    stratification: strata are evaluated bottom-up, aggregate rules of
    a stratum run once at stratum entry (their inputs are complete),
    remaining rules run to fixpoint.

    Joins are index-aware: body literals with ground argument positions
    are answered from {!Store.lookup} secondary indexes, rule bodies
    are reordered most-bound-first ({!order_body}), and single-atom
    aggregate rules are answered from a {!Store.groups} grouped index
    probe; every optimization falls back to the plain nested-loop scan
    (and can be disabled via {!use_indexes} / {!use_reordering})
    without changing the fixpoint.

    Instrumentation is per run: every evaluation reports its own join
    counters in [outcome.stats], and callers may pass a {!counters}
    accumulator to aggregate across runs.  There is no global mutable
    statistics state, so concurrent evaluations never interfere.

    Evaluation is bounded by [max_rounds]: a program with no finite
    fixpoint (e.g. distance-vector count-to-infinity on a cycle) is
    reported as not converged instead of looping. *)

(** Join counters of one evaluation run. *)
type stats = {
  index_hits : int;  (** joins answered from a secondary index *)
  scans : int;  (** joins answered by a full relation scan *)
  enumerated : int;  (** candidate tuples visited by joins *)
  matched : int;  (** candidates that unified with the pattern *)
  groups : int;  (** delta groups formed by the batched join *)
  group_probes : int;  (** grouped delta probes issued *)
  delta_tuples : int;
      (** delta tuples fed through delta joins; [delta_tuples / groups]
          is the mean delta-group size a batched run achieved *)
  strata_skipped : int;
      (** view strata skipped by dirty-predicate tracking (incremental
          refresh in {!Dist.Runtime}): no predicate in the stratum's
          transitive support changed, so its previous relations were
          reused without any evaluation work *)
  strata_refolded : int;
      (** touched aggregate strata maintained group by group: only the
          groups whose body tuples were added or removed since the last
          refresh are re-folded ({!Ideval.refold_stratum}) *)
  refresh_fallbacks : int;
      (** touched view strata recomputed from scratch instead of
          incrementally: strata with negation or with aggregates outside
          the re-fold shape, and plain strata whose support lost tuples
          (soft-state expiry, a replaced aggregate) — all non-monotone
          under seeded re-derivation *)
}

(** The result of an evaluation. *)
type outcome = {
  db : Store.t;  (** the database reached *)
  rounds : int;  (** fixpoint rounds across all strata *)
  derivations : int;  (** head tuples produced, counting duplicates *)
  converged : bool;  (** false when [max_rounds] was hit *)
  stats : stats;  (** join counters of this run *)
}

exception Eval_error of string

(** {1 Instrumentation and switches} *)

val zero_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : stats Fmt.t

(** A mutable accumulator threaded through one or more evaluations.
    Each run owns (or is handed) its own record — there is no global
    counter state, so runs never bleed into each other and per-shard
    evaluations may proceed on separate domains.  The fields are
    exposed so the id-native twin of the rule-application core
    ({!Ideval}) can bump exactly the same counts — its accounting must
    be indistinguishable from this evaluator's (checked by property). *)
type counters = {
  mutable c_index_hits : int;
  mutable c_scans : int;
  mutable c_enumerated : int;
  mutable c_matched : int;
  mutable c_groups : int;
  mutable c_group_probes : int;
  mutable c_delta_tuples : int;
  mutable c_strata_skipped : int;
  mutable c_strata_refolded : int;
  mutable c_refresh_fallbacks : int;
}

val counters : unit -> counters
(** A fresh zeroed accumulator. *)

val snapshot : counters -> stats
(** The current counts, as an immutable record. *)

val accumulate : counters -> stats -> unit
(** Add a snapshot into an accumulator. *)

val note_strata_skipped : counters -> int -> unit
(** Count view strata skipped by dirty-predicate tracking.  The skip
    decision lives in the refresh loop ({!Dist.Runtime}), not in an
    evaluation run, so it is recorded directly on the accumulator. *)

val note_stratum_refolded : counters -> unit
(** Count one touched aggregate stratum re-folded group by group. *)

val note_refresh_fallback : counters -> unit
(** Count one touched view stratum recomputed from scratch. *)

val use_indexes : bool ref
(** Consult secondary indexes for ground argument positions and grouped
    aggregate probes (default [true]).  Off: every join is a full scan
    — the pre-index nested-loop evaluator. *)

val use_reordering : bool ref
(** Reorder rule bodies most-bound-first before evaluation (default
    [true]). *)

val use_batching : bool ref
(** Join delta activations group-at-a-time (default [true]): each
    round's delta relation is grouped by the columns the rest of the
    body reads ({!Store.groups}), the probing part of the body runs
    once per group, and each delta tuple pays only a pattern match plus
    the residual filters.  Off: one environment is seeded per delta
    tuple and the whole body replays per activation.  Both paths derive
    the same head tuples the same number of times (checked by
    property); [stats.groups] / [stats.group_probes] count the batched
    path's work. *)

val order_body :
  ?card:(string -> int) ->
  ?bound:Ast.Sset.t ->
  Ast.lit list ->
  Ast.lit list
(** Greedy join planning: filters (assignments, comparisons, negations)
    run as soon as their variables are bound; positive atoms are
    scheduled most-bound-first, ties broken by smaller relation
    ([card]) then source order.  [bound] seeds the bound-variable set
    (e.g. with the variables a delta literal binds).  Preserves the
    satisfying-environment set of any safe rule; identity when
    {!use_reordering} is off. *)

val atom_binds : Ast.atom -> Ast.Sset.t
(** The variables a positive atom binds when evaluated first (its bare
    variable arguments). *)

(** {2 Shared planning helpers}

    The pure planning functions of the rule-application core, exposed
    so the id-native twin ({!Ideval}) compiles rules with exactly the
    same literal orders, group columns and shared/per-tuple splits —
    the precondition for its join counters matching this evaluator's
    bump for bump. *)

val group_vars : Ast.atom -> Ast.lit list -> Ast.Sset.t
(** Delta-atom variables read by the rest body's positive atoms: the
    variables the batched join binds per delta group. *)

val group_cols : Ast.atom -> Ast.Sset.t -> (int * string) list
(** The delta-atom argument columns carrying the group variables (first
    bare occurrence of each, ascending). *)

val split_shared : Ast.Sset.t -> Ast.lit list -> Ast.lit list * Ast.lit list
(** Split an ordered rest body into the phase evaluable once per delta
    group and the per-tuple remainder. *)

val delta_positions : Ast.Sset.t -> Ast.lit list -> int list
(** Body positions whose positive atom's predicate is in the given
    recursive-predicate set. *)

val rules_of_stratum : Ast.program -> string list -> Ast.rule list
val split_agg : Ast.rule list -> Ast.rule list * Ast.rule list

(** Head-argument shape of the grouped-index aggregate fast path: each
    head argument mapped to the body-atom column it reads. *)
type agg_slot =
  | Group of int  (** plain head argument: value of this body column *)
  | Fold of Ast.agg * int  (** aggregate over this body column *)

val agg_index_shape : Ast.rule -> (Ast.atom * agg_slot list) option
(** [Some] when the rule's body is a single positive atom over distinct
    bare variables and every head argument reads one of them — the
    shape answered by a {!Store.groups} probe. *)

val agg_fold : Ast.agg -> Value.t list -> Value.t
(** Fold one aggregate over a non-empty group column.
    @raise Eval_error on an empty group. *)

val candidates :
  ?stats:counters -> Store.t -> Env.t -> string -> Ast.expr list -> Store.Tset.t
(** The candidate tuples for matching the arguments against a predicate
    under an environment: an indexed lookup when some position is
    ground, the full relation otherwise. *)

val body_envs :
  ?stats:counters ->
  Store.t ->
  ?delta:int * Store.Tset.t ->
  Ast.lit list ->
  Env.t list
(** All satisfying environments for a rule body against a database.
    [delta] optionally replaces the relation read by the body literal at
    the given index (semi-naive evaluation); exposed for the distributed
    runtime and the plan compiler. *)

val join_envs :
  ?stats:counters -> Store.t -> Env.t -> string -> Ast.expr list -> Env.t list
(** [join_envs db env pred args]: extend [env] with every tuple of
    [pred] that matches [args] — one index-aware join step, shared with
    the strand executor ({!Plan.execute}). *)

val delta_envs :
  ?stats:counters ->
  ?card:(string -> int) ->
  Store.t ->
  delta:Ast.atom * Store.t ->
  rest:Ast.lit list ->
  Env.t list
(** All satisfying environments of the body [delta_atom :: rest]
    against [db], with the delta atom's relation read from the supplied
    delta store instead of [db] — the semi-naive activation of one
    (rule, delta position) pair.  Batched ({!use_batching} on, the
    default) or per-tuple; both produce the same environment set.
    Exposed for the strand executor ({!Plan.execute_batch}). *)

val head_tuple : Env.t -> Ast.head -> Store.Tuple.t
(** Instantiate an aggregate-free head under an environment. *)

val apply_agg_rule :
  ?stats:counters -> Store.t -> Ast.rule -> Store.Tuple.t list
(** Evaluate an aggregate rule against the full database: group
    satisfying environments by the plain head arguments and fold the
    aggregate.  Rules whose body is a single positive atom over
    distinct bare variables are answered from a {!Store.groups} index
    probe — same output set, one probe instead of an enumeration. *)

(** {1 Evaluators} *)

val seminaive :
  ?max_rounds:int ->
  ?stats:counters ->
  Ast.program ->
  Analysis.info ->
  Store.t ->
  outcome
(** Semi-naive (delta) evaluation from an initial database. *)

val naive :
  ?max_rounds:int ->
  ?stats:counters ->
  Ast.program ->
  Analysis.info ->
  Store.t ->
  outcome
(** Naive evaluation; same fixpoint as {!seminaive} (differentially
    tested), used as the E7 baseline. *)

(** {1 Refresh strata}

    The dependency analysis behind incremental view refresh
    ({!Dist.Runtime}): {!Analysis.strata} refined with one extra strict
    edge — a dependency {e on} an aggregate-defined predicate — so
    aggregate heads sit in strata of their own and their plain
    consumers land strictly above, where seeded delta re-derivation is
    sound.  Bottom-up evaluation per refresh stratum reaches the same
    fixpoint as the analysis strata (every strict analysis edge stays
    strict here). *)

type refresh_stratum = {
  rs_preds : string list;  (** head predicates of this stratum, sorted *)
  rs_rules : Ast.rule list;  (** their rules, in program order *)
  rs_support : Ast.Sset.t;
      (** transitive support: every predicate (negated included, lower
          view heads included) whose change can affect this stratum —
          the skip test is [support ∩ changed = ∅] *)
  rs_has_agg : bool;
  rs_has_neg : bool;
}

val refresh_strata : Ast.program -> refresh_stratum list
(** Bottom-up refresh strata of a (view) program.  If the refinement's
    extra strict edges close a cycle the ordinary stratification
    tolerates, everything collapses into a single stratum (correct,
    just never incremental). *)

val seminaive_sharded :
  ?max_rounds:int ->
  ?stats:counters ->
  domains:int ->
  Ast.program ->
  Analysis.info ->
  Store.t ->
  outcome
(** Sharded semi-naive evaluation: partition the database by the
    location-specifier column ({!Shard.partition}), run per-shard
    fixpoints in parallel on [domains] OCaml domains, route head tuples
    located at another shard through an exchange step (exactly the
    tuples the distributed runtime would send as messages), and repeat
    until no shard receives a new tuple.

    Reaches the same fixpoint database and convergence flag as
    {!seminaive} (checked by property); [rounds] counts the parallel
    depth (sum over global rounds of the maximum local round count) and
    [derivations]/[stats] sum per-shard counts, so the numeric
    accounting differs from the centralized schedule.  The outcome is
    identical for every [domains] value — the decomposition and
    exchange order are domain-count independent; only wall-clock time
    changes.

    Falls back to {!seminaive} when {!Shard.analyze} rejects the
    program or the database occupies at most one shard. *)

(** {1 Entry points} *)

val run :
  ?max_rounds:int ->
  ?extra_facts:Ast.fact list ->
  Ast.program ->
  (outcome, Analysis.error) result
(** Analyze and evaluate a self-contained program (its facts plus
    [extra_facts]). *)

val run_exn :
  ?max_rounds:int -> ?extra_facts:Ast.fact list -> Ast.program -> outcome
(** @raise Invalid_argument on analysis failure. *)

val run_sharded :
  ?max_rounds:int ->
  ?domains:int ->
  ?extra_facts:Ast.fact list ->
  Ast.program ->
  (outcome, Analysis.error) result
(** {!run} through {!seminaive_sharded}; [domains] defaults to
    [Domain.recommended_domain_count ()]. *)

val run_source : ?max_rounds:int -> string -> (outcome, string) result
(** Parse source text and run it. *)
