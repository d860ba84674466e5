(** A deterministic discrete-event queue.

    Events are ordered by (time, insertion sequence): ties in simulated
    time are broken FIFO, which makes whole simulations reproducible
    run to run.  Times are compared with [<] and [=], so [0.0] and
    [-0.0] are one instant.  Events pushed back to back at one time
    form a run that push and take reach in O(1); a heap orders only the
    runs.  A lone event allocates one two-word cell, an event appended
    to a run nothing beyond the run's amortized growth, and taking an
    event allocates nothing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> time:float -> 'a -> unit

val next_time : 'a t -> float
(** Time of the earliest event, without removing it: [infinity] when
    the queue is empty.  For an event pushed at [-0.0] into an instant
    first pushed at [0.0] (or the reverse) this is the instant's first
    time, equal to the event's under [=]. *)

val take : 'a t -> 'a
(** The earliest event, removed (read its time with {!next_time}
    first).
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue.  Also resets the insertion sequence, so FIFO
    tie-breaking restarts from scratch for subsequently pushed events
    (equivalent behaviour — tie ids only order events against
    coexisting ones — stated here so the contract is explicit). *)
