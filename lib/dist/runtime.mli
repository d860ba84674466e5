(** Distributed NDlog execution (the P2 substitute; arc 7 of the
    paper's Figure 1).

    Every simulator node runs the same {e localized} program
    ({!Ndlog.Localize}) over its own tuple store.  Execution is
    pipelined semi-naive: inserting a tuple triggers the rules reading
    its predicate with the new tuple as the delta; derived heads
    located at the executing node recurse locally, heads located
    elsewhere become network messages.

    Message deliveries drain through a per-node inbox: every delivery
    landing at the same simulated instant is buffered and flushed
    together, so each triggered strand runs once with the full
    per-predicate delta (the batched join's group-at-a-time schedule
    on the wire path).  The distributed fixpoint equals the naive
    centralized evaluator's (checked over many topologies and programs
    in the dist test suite).

    Aggregate strata are maintained as locally refreshed views, so
    non-monotonic updates (a better best-path displacing a worse one)
    are handled by replacement rather than distributed deletion.  A
    node's view relations hold its own last fixpoint, tuples located
    at other nodes included; a refresh ships the remotely-located part
    of what it added, so each tuple travels once, and the receiver
    keeps it apart from its own fixpoint until its lease lapses.  Soft
    view tuples are re-shipped at half-lifetime cadence for as long as
    the source still derives them, so their remote copies stay leased
    while supported and expire once support is gone.  Programs
    whose remote-shipped view tuples are hard state but could be
    non-monotonically withdrawn (soft-state or negation-dependent
    support) are rejected at {!create}.  Soft-state tuples expire per
    their [materialize] lifetimes, with leases refreshed on
    re-insertion.

    There is one data path, and it is id-native: node stores are flat
    databases of interned-id tuples ({!Ndlog.Flat}), strands run through
    the id-native executor ({!Ndlog.Ideval}), and in-process messages
    carry ids only.  Values are boxed only at true boundaries:
    printing, a soft predicate's lease key, a cross-process frame, and
    the memoized {!Ndlog.Store.t} views {!node_store} and
    {!global_store} return.

    View refresh is {e incremental} by default: each node tracks its
    dirty base predicates (those whose relations changed since its last
    refresh — marked by local insertions, inbox flushes, and expiry
    sweeps — with the tuples added and removed), and a refresh walks
    the view program's refresh strata ({!Ndlog.Eval.refresh_strata})
    bottom-up: it {e skips} strata whose transitive support saw no
    dirty predicate, {e re-folds} single-atom aggregate strata group by
    group — only the groups whose body tuples were added or removed
    ({!Ndlog.Ideval.refold_stratum}) — {e seeds} plain strata with
    their previous relations plus the support deltas
    ({!Ndlog.Ideval.refresh_stratum}), and {e falls back} to
    recomputing from scratch strata with negation or other aggregate
    shapes, and plain strata whose support lost tuples
    ({!Ndlog.Ideval.seminaive_stratum}).  Each stratum is compiled
    once, at {!create}, into what its mode runs: a re-folded stratum
    its re-folds, any other its strands, which serve both seeding and
    the fallback.  Skips,
    re-folds and fallbacks are counted ([strata_skipped] /
    [strata_refolded] / [refresh_fallbacks]).

    A walk is owed only when a base relation changed: a view tuple
    shipped in, or its lease lapsing, changes no fixpoint.  When the
    owed walk runs is decided at {!create}, from the program.  A
    program whose view rules all keep their heads at the deriving node
    refreshes {e on demand}, soft state included: no strand, message
    or lease can read its views, so a base change only records its
    tuples, and one walk brings every node with recorded changes up to
    date when the views are next read — at the end of {!run} (before
    its report is taken) and in {!node_store} / {!global_store}.  A
    program that ships views walks once per simulated instant that
    changed a base relation, through a zero-delay event, so a shipped
    tuple leaves at its own instant.  Stores, traces, messages and
    leases are the same either way at every observation point.
    [~incremental_views:false] restores the from-scratch refresh, kept
    as the differential oracle: both modes produce
    bit-identical node stores, fixpoints, message traces, and lease
    tables (qcheck property in the dist test suite).  Independently,
    the global store of a quiesced run is checked against the naive
    centralized evaluator ({!Ndlog.Eval.naive}). *)

(** A tuple between nodes (defined in {!Wire}, re-exported here), as
    the sender's interned ids: the receiver inserts them without
    re-probing the intern table.  Only a cross-process send boxes it
    ({!Socket}). *)
type msg = Wire.msg = { pred : string; ids : int array }

type t

exception Not_localized of string

(** Why a program's remote-located view head cannot be supported:
    its (hard-state) tuples could be withdrawn at the deriving node
    with no way to delete the already-shipped remote copies. *)
type rv_cause =
  | Soft_dependency of string
      (** a soft-state predicate in the view's support can expire *)
  | Negation_dependency of string
      (** a negation in the view's support can flip as tuples arrive *)

type remote_view_error = {
  rv_pred : string;  (** the offending view head predicate *)
  rv_rule : string;  (** the rule shipping it *)
  rv_cause : rv_cause;
}

exception Remote_view_deletion of remote_view_error

val pp_remote_view_error : remote_view_error Fmt.t

exception
  Missing_tuple_location of {
    mtl_pred : string;
    mtl_tuple : Ndlog.Store.Tuple.t;
  }
(** Internal invariant violation: a view tuple reached a ship path
    (refresh shipping or lease renewal) without a resolvable location.
    The ship paths only ever see tuples already filtered on a resolved
    owner, so this is unreachable for well-formed programs — raised
    instead of a bare [Option.get] so a violation names the predicate
    and tuple. *)

val create :
  ?seed:int ->
  ?incremental_views:bool ->
  ?transport:Transport.t ->
  ?hosted:string list ->
  Netsim.Topology.t ->
  Ndlog.Ast.program ->
  t
(** [transport] is where messages, timers, and the clock live: by
    default a fresh virtual-clock simulator over [topo]
    ({!Transport.of_sim} — bit-identical to the pre-transport runtime),
    or a socket reactor ({!Socket.transport}) when this runtime is one
    process of a multi-process run.  [seed] seeds the default
    simulator and is ignored when [transport] is given.
    [hosted] restricts this runtime to a subset of the topology's
    nodes (default: all of them).  Only hosted nodes get stores,
    handlers, fact loads, and view-refresh walks; messages to
    non-hosted nodes go out through the transport.
    [incremental_views] selects the view refresh mode (default
    [true]; [false] is the from-scratch oracle).  Under incremental refresh, [create] fixes each refresh
    stratum's mode once: plain strata get their seeded delta strands,
    aggregate strata whose rules all have a single-atom body
    ({!Ndlog.Plan.agg_index_shape}) and distinct heads are re-folded
    group-wise, and any other aggregate or negation stratum is
    recomputed from scratch when touched.  Hosted node states are
    kept sorted by name for the refresh walk, and the view predicates'
    location columns are computed here once for the ship paths.
    @raise Not_localized when some rule body spans locations (run
    {!Ndlog.Localize.rewrite_program} first).
    @raise Remote_view_deletion when a hard-state view head is shipped
    away from its deriving node but its support can shrink
    non-monotonically (soft-state or negation dependence).
    @raise Invalid_argument on analysis failure. *)

val load_facts : t -> unit
(** Schedule the program's facts for insertion at their owning nodes at
    time zero (unlocated facts broadcast, in sorted node order). *)

val insert : t -> string -> string -> Ndlog.Store.Tuple.t -> unit
(** [insert t node pred tuple]: immediate local insertion.  (Message
    deliveries go through the inbox instead.) *)

type run_report = {
  stats : Netsim.Sim.stats;
  total_inserts : int;  (** local tuple insertions across all nodes *)
  eval_stats : Ndlog.Eval.stats;
      (** join profile of the whole run: strand execution and view
          refresh counted through {!Ndlog.Eval.stats} *)
  wire_stats : Ndlog.Eval.stats;
      (** the strand-path share of [eval_stats] — inbox flushes and
          local recursion, excluding view refreshes;
          [wire_stats.delta_tuples / wire_stats.groups] is the mean
          delta-group size the inbox batching achieved *)
  view_stats : Ndlog.Eval.stats;
      (** the view-refresh share of [eval_stats]; under incremental
          refresh, [view_stats.strata_skipped] counts untouched strata
          skipped outright, [view_stats.strata_refolded] touched
          aggregate strata re-folded group by group, and
          [view_stats.refresh_fallbacks] touched strata recomputed from
          scratch (negation, multi-atom aggregate bodies, or plain
          strata whose support lost tuples) *)
}

val run : ?until:float -> ?max_events:int -> t -> run_report
(** Run the transport until quiescence, [until] or [max_events], then
    run the refresh walk an on-demand runtime owes, so the report and
    the stores read after it are up to date. *)

val global_store : t -> Ndlog.Store.t
(** Union of all node stores: the global database the distributed
    execution computed (comparable against the centralized
    evaluator). *)

val node_store : t -> string -> Ndlog.Store.t
(** What one node shows, boxed: its base relations, the
    locally-located part of its view fixpoint, and every view tuple
    shipped to it whose lease is still live, whether or not it also
    derives the tuple itself.  Memoized until the node's stores next
    change. *)

val total_inserts : t -> int
(** Local tuple insertions across hosted nodes since {!create} (the
    cumulative form of {!run_report}'s per-run field — what a worker
    reports in its quiescence {!Wire.status}). *)

val dirty_preds : t -> string -> string list
(** The base predicates of the node's pending refresh (sorted): those
    with a tuple added or expired since its last refresh — empty right
    after a refresh, and always empty when incremental refresh is off or
    the program has no views to refresh.  Reading them runs no refresh.
    Introspection for the dirty-set lifecycle tests. *)

val refresh_strata : t -> (string list * [ `Seed | `Refold | `Scratch ]) list
(** The refresh strata of the view program, bottom-up
    ({!Ndlog.Eval.refresh_strata}), each with the way a touched one is
    brought up to date: seeded re-derivation, group-wise re-fold, or
    recomputation from scratch. *)

val node_leases : t -> string -> ((string * Ndlog.Store.Tuple.t) * float) list
(** The node's soft-state lease table (key-sorted, with deadlines) —
    compared across refresh modes by the differential harness. *)

val refreshes_on_demand : t -> bool
(** Whether this runtime's views refresh when read rather than once per
    instant: fixed at {!create}, [true] unless some view rule can place
    its head at another node. *)

val refresh_seconds : t -> float
(** Cumulative wall-clock seconds spent in view-refresh walks since
    {!create} — the refresh-cost share the churn benchmark reports. *)

val refresh_walks : t -> int
(** Number of view-refresh walks performed since {!create}. *)

val refresh_nodes : t -> int
(** Number of node refreshes those walks ran (a walk skips a node whose
    base relations have not changed since its last refresh; on demand,
    one node refresh covers every change since the node's last one). *)

val refresh_words : t -> float
(** Minor-heap words allocated inside view-refresh walks since
    {!create} (deterministic for a build and a run). *)

val simulator : t -> msg Netsim.Sim.t
(** The backing simulator — failure injection and tracing hooks for
    tests and benchmarks.
    @raise Invalid_argument when the runtime rides a non-simulator
    transport (sockets have no virtual clock to script). *)
