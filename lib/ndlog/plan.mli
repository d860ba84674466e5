(** Join planning, run counters, and rule strands.

    Pure planning for the one semi-naive executor ({!Ideval}): literal
    ordering, the one compiler of rule bodies ({!compile_strand}, whose
    strands every executor round, view refresh and the model checker's
    successor step run), each rule's entry atom, the batched delta
    decomposition, the re-fold aggregate shape and the per-run join
    counters.  Nothing here executes a join, and the boxed naive oracle
    ({!Eval.naive}) plans nothing: it joins in source order.

    Rule strands are Click-style dataflow plans (the paper, Section
    2.2: programs are "compiled into distributed execution plans that
    are based on the Click execution model").  A strand is a linear
    pipeline of relational operators through which an environment
    stream flows:

    {v delta(path) -> join(link) -> bind(C) -> filter(...) -> project(path) v}

    {!Ideval.execute_batch} runs a delta strand over a batch of
    triggering tuples; that is how {!Dist.Runtime} reacts to
    insertions. *)

exception Eval_error of string
(** A rule that cannot be evaluated (e.g. an aggregate head in a plain
    context, an aggregate over an empty group). *)

(** {1 Run counters} *)

(** Join counters of one evaluation run. *)
type stats = {
  index_hits : int;  (** joins answered from a secondary index *)
  scans : int;  (** joins answered by a full relation scan *)
  enumerated : int;  (** candidate tuples visited by joins *)
  matched : int;  (** candidates that unified with the pattern *)
  groups : int;  (** delta groups formed by the batched join *)
  delta_tuples : int;
      (** delta tuples fed through delta joins; [delta_tuples / groups]
          is the mean delta-group size a run achieved.  A rule body run
          whole (a stratum's first round, an aggregate rule) is a strand
          fed its entry atom's whole relation as one batch: it counts
          that batch's groups and delta tuples, and one scan. *)
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

val zero_stats : stats
val add_stats : stats -> stats -> stats

(** A mutable accumulator threaded through one or more evaluations.
    Each run owns (or is handed) its own record — there is no global
    counter state, so runs never bleed into each other. *)
type counters = {
  mutable c_index_hits : int;
  mutable c_scans : int;
  mutable c_enumerated : int;
  mutable c_matched : int;
  mutable c_groups : int;
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

(** {1 Join planning} *)

val order_body :
  ?optimized_joins:bool -> ?bound:Ast.Sset.t -> Ast.lit list -> Ast.lit list
(** Greedy join planning, without cardinalities (so one plan serves
    every run): filters (assignments, comparisons, negations) run as
    soon as their variables are bound; positive atoms are scheduled
    most-bound-first, ties broken by source order, and an atom with a
    complex argument waits until that argument's variables are bound.
    [bound] seeds the bound-variable set (e.g. with the variables a
    delta literal binds).  Preserves the satisfying-environment set of
    any safe rule; identity when [optimized_joins] (default [true]) is
    off. *)

val atom_binds : Ast.atom -> Ast.Sset.t
(** The variables a positive atom binds when evaluated first (its bare
    variable arguments). *)

val group_vars : Ast.atom -> Ast.lit list -> Ast.Sset.t
(** Delta-atom variables read by the rest body's positive atoms: the
    variables the batched join binds per delta group. *)

val group_cols : Ast.atom -> Ast.Sset.t -> (int * string) list
(** The delta-atom argument columns carrying the group variables (first
    bare occurrence of each, ascending). *)

val split_shared : Ast.Sset.t -> Ast.lit list -> Ast.lit list * Ast.lit list
(** Split an ordered rest body into the phase evaluable once per delta
    group and the per-tuple remainder. *)

val rules_of_stratum : Ast.program -> string list -> Ast.rule list
val split_agg : Ast.rule list -> Ast.rule list * Ast.rule list

(** Head-argument shape of a re-foldable aggregate rule: each head
    argument mapped to the body-atom column it reads. *)
type agg_slot =
  | Group of int  (** plain head argument: value of this body column *)
  | Fold of Ast.agg * int  (** aggregate over this body column *)

val agg_index_shape : Ast.rule -> (Ast.atom * agg_slot list) option
(** [Some] when the rule's body is a single positive atom over distinct
    bare variables and every head argument reads one of them — the
    shape {!Ideval.refold_stratum} maintains group by group. *)

(** {1 Strands} *)

(** Pipeline operators. *)
type op =
  | Delta of { pred : string; args : Ast.expr list }
      (** bind the triggering tuple (strand head) *)
  | Join of { pred : string; args : Ast.expr list }
      (** join the stream against a stored relation *)
  | Anti_join of { pred : string; args : Ast.expr list }
      (** negation: keep environments with no matching tuple *)
  | Bind of string * Ast.expr  (** assignment *)
  | Filter of Ast.cmp * Ast.expr * Ast.expr  (** comparison *)
  | Project of Ast.head  (** emit the head tuple *)

type strand = {
  strand_rule : Ast.rule;
  delta : Ast.atom;
      (** the triggering body atom, each complex argument replaced by a
          fresh variable ([%0], [%1], ...) *)
  rest : Ast.lit list;
      (** the other body literals and one equality condition per named
          argument, join-planned under the variables [delta] binds;
          {!Ideval.of_strand} compiles exactly these *)
}

exception Plan_error of string

val compile_strand : ?optimized_joins:bool -> Ast.rule -> delta:int -> strand
(** One strand of [rule] triggered by the positive body atom at index
    [delta].  A complex argument of that atom becomes a fresh variable
    plus an equality condition, planned like any filter.
    [optimized_joins] (default [true]) plans [rest] with {!order_body};
    off, [rest] keeps source order.
    @raise Plan_error on aggregate rules or bad delta positions. *)

val entry_atom : ?optimized_joins:bool -> Ast.rule -> int
(** The index of the positive body atom {!order_body} schedules first
    from no bound variable (the first in source order with
    [optimized_joins] (default [true]) off): where {!Ideval} enters a
    rule whose whole body runs, with that atom's whole relation as one
    batch of the strand {!compile_strand} makes for it.
    @raise Plan_error when the body has no positive atom (analysis
    rejects such rules). *)

val compile_program : Ast.program -> strand list
(** All delta strands of a program: one per (rule, positive body
    literal), in rule order then body order.  Aggregate rules
    contribute no strands (they are view-refreshed). *)

val ops : strand -> op list
(** The strand as a pipeline: [Delta], the planned [rest], [Project]. *)

val pp_op : op Fmt.t
val pp : strand Fmt.t
