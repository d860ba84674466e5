(** The node supervisor: one OS process per topology node, wired over
    Unix-domain sockets.

    {!run} forks a worker per node.  Workers host their node in a
    {!Runtime} over the {!Socket} transport, connected by a
    pre-created [socketpair] full mesh (no listeners, no connect
    races); the program and topology reach them through the fork's
    heap, so nothing is serialized to start a run — only tuples cross
    process boundaries afterwards, in canonical boxed form
    ({!Wire}).

    Convergence is detected by push-based quiescence over per-worker
    control channels.  A worker whose reactor goes idle after doing
    something pushes a {!Wire.Idle} report of its counters
    ({!Socket.serve}'s [on_idle]); the supervisor blocks in [select]
    on those reports.  Once every worker's latest report is idle and
    Σ sent = Σ received across workers (an in-flight frame makes the
    sums differ), it sends one {!Wire.Poll} wave.  The run is
    converged iff the [Status] replies equal that candidate vector —
    two consecutive identical snapshots, the second taken wholly
    after the first was read (Mattern's four-counter test).  Replies
    that differ become the new candidate.  Sound for terminating
    (hard-state) programs; a soft-state program with perpetual renewal
    timers never goes idle in wall-clock time — run those on the
    simulator backend. *)

type result = {
  stores : (string * Ndlog.Store.t) list;
      (** per node, the final fixpoint (re-interned supervisor-side) —
          directly comparable against {!Runtime.node_store} of a
          simulator-backed run on the same topology and program *)
  wall_seconds : float;  (** fork to detected convergence *)
  data_frames : int;
      (** cross-process data frames, summed over workers *)
  data_bytes : int;  (** their wire bytes, length prefixes included *)
  total_inserts : int;  (** tuple insertions, summed over workers *)
  polls : int;
      (** [Poll] waves sent until convergence: 1 when the first
          candidate vector is confirmed *)
  workers : int;
}

exception Convergence_timeout of {
  polls : int;  (** confirmation waves sent before the deadline *)
  last : (string * Wire.status) list;
      (** the latest status of each worker that reported one, by node *)
}
(** The deadline passed without a confirmed candidate vector: the
    program is still making progress, or never goes idle (soft state,
    whose renewal timers keep every worker busy). *)

val run :
  ?timeout:float -> Netsim.Topology.t -> Ndlog.Ast.program -> result
(** Run [program] (localized; see {!Runtime.create}) to quiescence
    across one process per node of [topo].  [timeout] (default 10 s)
    bounds every control-channel read and, from the fork, the whole
    convergence wait.  Workers are killed and reaped, and every control
    channel closed, on every failure path.
    @raise Invalid_argument on fewer than two nodes.
    @raise Convergence_timeout when the convergence wait runs out.
    @raise Wire.Frame_error when a worker's control channel closes
    ([Truncated_stream]) or a read passes its deadline
    ([Read_timeout]). *)
