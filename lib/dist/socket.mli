(** The Unix-domain-socket transport backend.

    One reactor per OS process: it hosts a subset of the topology's
    nodes, speaks {!Wire} frames to peer processes over pre-connected
    stream sockets, runs a wall-clock timer queue (reusing
    {!Netsim.Event_queue} with epoch-relative times), and decodes
    incrementally per connection — partial reads and many-frames-per-
    read both work.

    Send is topology-gated exactly as the simulator's: no live
    [src -> dst] link means a counted drop, never a write, so
    localized programs see simulation connectivity.  Link {e loss}
    probability is not simulated — the socket wire is reliable.

    Arriving tuples are re-interned at this boundary (id spaces are
    per-process); in-process deliveries between co-hosted nodes loop
    back through a zero-delay timer and keep their payload unserialized. *)

type t

val create :
  topo:Netsim.Topology.t ->
  hosted:string list ->
  peers:(string * Unix.file_descr) list ->
  ?control:Unix.file_descr ->
  unit ->
  t
(** [create ~topo ~hosted ~peers ?control ()]: a reactor hosting
    [hosted], with [peers] mapping each foreign node to the (already
    connected) socket of the process hosting it — several nodes may
    share one socket.  [control] attaches the supervisor channel:
    frames other than [Data] arriving anywhere are handed to
    {!serve}'s [on_control]. *)

val transport : t -> Transport.t
(** The {!Transport} closure set over this reactor.  Its [run] drives
    timers and data traffic until locally idle, a wall deadline, or an
    event budget — self-contained single-process use.  Workers under a
    {!Supervisor} use {!serve} instead. *)

val serve :
  t -> on_control:(Wire.frame -> unit) -> on_idle:(unit -> unit) -> unit
(** The worker main loop: alternate due timers with [select] rounds
    until {!stop}.  Non-[Data] frames go to [on_control] (a [Bye]
    handler there should call {!stop}).  [on_idle] is the push half of
    the quiescence protocol: it runs after the due timers and before
    [select] blocks, when {!idle} holds and the reactor has fired a
    timer or dispatched a frame since its previous call — so once per
    idle spell, and at least once (the first idle moment counts even
    with no events).  A peer closing mid-frame raises
    {!Wire.Frame_error} [Truncated_stream]; clean EOF retires the
    connection. *)

val stop : t -> unit

val idle : t -> bool
(** No pending timers and no partially decoded input — this reactor
    will do nothing more unless a peer writes.  One conjunct of the
    quiescence protocol ({!Supervisor}). *)

val sent : t -> int
(** Data frames written to peers so far. *)

val received : t -> int
(** Data frames dispatched so far. *)

val bytes_out : t -> int
(** Data bytes written to peers so far. *)
