(** Bottom-up evaluation of NDlog programs over boxed stores.

    {!seminaive} (and {!run}) is the one semi-naive executor,
    {!Ideval}, behind a boxing boundary: the store is translated to
    flat id tuples, evaluated, and materialized back.  {!naive}
    re-derives everything from the full database each round with a
    small boxed nested loop that joins rule bodies in source order and
    shares neither planning nor execution code with {!Ideval}: it is
    the independent oracle of the differential tests.
    Both respect stratification: strata are evaluated bottom-up,
    aggregate rules of a stratum run once at stratum entry (their
    inputs are complete), remaining rules run to fixpoint.

    Joins always run group-at-a-time (batched strands, a body run whole
    fed its entry atom's whole relation); index probes and
    most-bound-first planning are switched per call by
    [optimized_joins], and either setting reaches the same fixpoint.
    Each run reports its own join counters in [outcome.stats], and
    callers may pass a {!counters} accumulator ({!Plan.counters}) to
    aggregate across runs.  There is no global mutable state.

    Evaluation is bounded by [max_rounds]: a program with no finite
    fixpoint (e.g. distance-vector count-to-infinity on a cycle) is
    reported as not converged instead of looping. *)

(** Join counters of one evaluation run ({!Plan.stats}). *)
type stats = Plan.stats = {
  index_hits : int;  (** joins answered from a secondary index *)
  scans : int;  (** joins answered by a full relation scan *)
  enumerated : int;  (** candidate tuples visited by joins *)
  matched : int;  (** candidates that unified with the pattern *)
  groups : int;  (** delta groups formed by the batched join *)
  delta_tuples : int;
      (** delta tuples fed through delta joins; a body run whole counts
          its whole-relation batch's groups and tuples, and one scan *)
  strata_skipped : int;  (** view strata skipped by dirty tracking *)
  strata_refolded : int;  (** aggregate strata re-folded group by group *)
  refresh_fallbacks : int;  (** touched strata recomputed from scratch *)
}

type counters = Plan.counters
(** A mutable accumulator threaded through one or more evaluations. *)

(** The result of an evaluation. *)
type outcome = {
  db : Store.t;  (** the database reached *)
  rounds : int;  (** fixpoint rounds across all strata *)
  derivations : int;  (** head tuples produced, counting duplicates *)
  converged : bool;  (** false when [max_rounds] was hit *)
  stats : stats;  (** join counters of this run *)
}

exception Eval_error of string

val zero_stats : stats
val add_stats : stats -> stats -> stats

(** {1 The boxed one-step core} *)

val body_envs : Store.t -> Ast.lit list -> Env.t list
(** All satisfying environments for a rule body against a database: a
    nested loop over whole relations, literals in the given order.  Used
    by provenance and the model checker's transition systems, which fire
    rules one step at a time over canonical boxed stores. *)

val seeded_envs :
  Store.t -> Ast.atom -> Store.Tuple.t -> Ast.lit list -> Env.t list
(** [seeded_envs db atom tuple rest]: the satisfying environments of
    [rest] against [db] that extend the match of [atom] against
    [tuple] — the one-tuple delta join of semi-naive evaluation, run
    through {!body_envs}'s loop ([rest] in the given order).  Empty when
    [tuple] does not match [atom].  The model checker's successor step
    joins the one inserted tuple through it. *)

val head_tuple : Env.t -> Ast.head -> Store.Tuple.t
(** Instantiate an aggregate-free head under an environment.
    @raise Eval_error on an aggregate head. *)

(** {1 Evaluators} *)

val seminaive :
  ?max_rounds:int ->
  ?stats:counters ->
  ?optimized_joins:bool ->
  Ast.program ->
  Analysis.info ->
  Store.t ->
  outcome
(** Semi-naive (delta) evaluation from an initial database, through
    {!Ideval.seminaive}.  [optimized_joins] (default [true]) switches
    index probes and most-bound-first planning together; off, every
    join is a full scan in source order. *)

val naive : ?max_rounds:int -> Ast.program -> Analysis.info -> Store.t -> outcome
(** Naive evaluation over the boxed core, rule bodies in source order;
    same fixpoint as {!seminaive} (differentially tested), used as the
    independent oracle.  It counts no joins: [outcome.stats] is
    {!zero_stats}. *)

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

(** {1 Entry points} *)

val run :
  ?max_rounds:int ->
  ?extra_facts:Ast.fact list ->
  Ast.program ->
  (outcome, Analysis.error) result
(** Analyze and evaluate a self-contained program (its facts plus
    [extra_facts]) with {!seminaive}. *)

val run_exn :
  ?max_rounds:int ->
  ?extra_facts:Ast.fact list ->
  Ast.program ->
  outcome
(** @raise Invalid_argument on analysis failure. *)
