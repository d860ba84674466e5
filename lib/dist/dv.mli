(** A classic distance-vector protocol over {!Netsim}, used by
    experiment E2 to exhibit count-to-infinity after a link failure
    (the behaviour the paper proves present in the distance-vector
    NDlog program, Section 3.1).

    Nodes keep a routing table (destination -> cost, next hop) and
    advertise their vector to neighbours on change and, optionally, on
    a periodic timer.  No split horizon, no poisoned reverse: the naive
    protocol.  [infinity_threshold] plays RIP's metric 16 — crossing it
    withdraws the route and flags the run as having counted to
    infinity. *)

type t

val create :
  ?seed:int -> ?infinity_threshold:int -> ?period:float -> Netsim.Topology.t -> t
(** [period > 0] installs periodic re-advertisement (needed for
    stale-route propagation after failures); default 0 (triggered
    updates only).  Default threshold 64. *)

val route_cost : t -> string -> string -> int option

type report = {
  stats : Netsim.Sim.stats;
  max_cost_seen : int;
  counted_to_infinity : bool;  (** some metric reached the threshold *)
  total_advertisements : int;
}

val run : ?until:float -> ?max_events:int -> t -> report

val fail_link_at : t -> time:float -> string -> string -> unit
(** Fail a duplex link at a given time; the endpoints detect it and
    silently drop routes through the dead neighbour (recovery
    information then only arrives via neighbours' advertisements —
    exactly what lets stale routes bounce). *)
