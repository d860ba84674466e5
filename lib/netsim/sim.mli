(** The discrete-event network simulator (the paper's "local cluster"
    substitute): a {!Topology} plus an {!Event_queue}.

    Nodes register a message handler; {!send} schedules a delivery after
    the link's propagation delay (messages on down or missing links are
    dropped and counted); {!schedule}/{!at} post timed callbacks;
    {!run} processes events deterministically until quiescence, a time
    horizon, or an event budget — the budget is how non-converging
    protocols are detected rather than looped on. *)

type 'msg t

val create : ?seed:int -> Topology.t -> 'msg t
val now : 'msg t -> float

val next_time : 'msg t -> float
(** Time of the next pending event, [infinity] when none is pending:
    [run ~until:(next_time sim)] advances the simulation by exactly one
    instant. *)

val topology : 'msg t -> Topology.t

val rng : 'msg t -> Random.State.t
(** The simulation's seeded RNG (determinism: draw only from this). *)

val set_tracing : 'msg t -> bool -> unit

val record : 'msg t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append a trace line (no-op unless tracing). *)

val trace : 'msg t -> (float * string) list
(** Trace lines recorded so far (oldest first).  With tracing on, the
    simulator itself records every send, delivery, loss, drop, and
    link state change — the full message trace, usable as a
    determinism witness. *)

val set_handler :
  'msg t -> string -> ('msg t -> self:string -> src:string -> 'msg -> unit) -> unit

val send : 'msg t -> src:string -> dst:string -> 'msg -> bool
(** False (and a counted drop) when there is no live [src -> dst]
    link. *)

val inject : 'msg t -> delay:float -> src:string -> dst:string -> 'msg -> unit
(** Deliver without requiring a link (control-plane injection). *)

val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit
val at : 'msg t -> time:float -> (unit -> unit) -> unit

(** Outcome of a {!run}. *)
type stats = {
  final_time : float;
  events : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  quiesced : bool;  (** the queue drained before any limit was hit *)
}

val step : 'msg t -> bool
(** Process one event; false when the queue is empty. *)

val run : ?until:float -> ?max_events:int -> 'msg t -> stats
(** All counters in [stats] are per-run: a second [run] on the same
    simulation reports only the events and messages of its own
    window.  ([final_time] is the simulation clock, which is
    monotone across runs.) *)

val fail_link_at : 'msg t -> time:float -> string -> string -> unit
val restore_link_at : 'msg t -> time:float -> string -> string -> unit
