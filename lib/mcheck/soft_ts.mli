(** Model checking soft-state protocols: Sections 4.2 and 4.3 of the
    paper combined — soft-state semantics expressed as a transition
    system "to directly produce system models for model checking
    tools".

    States couple a database with a discrete clock and the leases of
    soft tuples; transitions are single rule-consequence insertions and
    clock ticks (which expire leases and apply the environment's
    injections).  The clock horizon keeps the space finite, so safety
    properties can quantify over time.

    Both checker reductions are wired in: symmetry permutes lease
    states jointly with their nodes ({!canon_state}), and the labeled
    system ({!labeled_system}) lets partial-order reduction commute
    derivations — though a tick commutes with nothing (it shifts the
    lease a subsequent insertion would take, and can expire premises),
    so POR only reduces the derivation interleavings between ticks;
    symmetry is the effective reduction here. *)

type lease = (string * Ndlog.Store.Tuple.t) * int
(** A leased tuple and its expiry instant. *)

type state = private {
  clock : int;
  db : Ndlog.Store.t;
  leases : lease list;  (** sorted by {!lease_compare} *)
  enabled : Ndlog_ts.action list Lazy.t;
      (** {!Ndlog_ts.enabled_insertions} of [db], forced when the state
          is expanded *)
  hash : int;  (** {!state_hash}, kept current by every transition *)
}
(** Identity is the clock, the database ({!Ndlog.Store.equal}) and the
    leases ({!state_equal}); the other two fields are derived. *)

val initial_state : state
(** Clock 0, nothing stored or leased, nothing enabled: the state a
    config's facts and injections load into. *)

val lease_compare : lease -> lease -> int
(** Engine-canonical: predicate, {!Ndlog.Store.Tuple.compare}, expiry
    — never polymorphic [compare]. *)

val state_equal : state -> state -> bool
val state_compare : state -> state -> int

val state_hash : state -> int
(** The carried sum of per-item hashes over the clock, the database's
    facts and the leases: independent of arrival order, agreeing with
    {!state_equal}. *)

type config = {
  program : Ndlog.Ast.program;
  horizon : int;  (** maximal clock value explored *)
  inject : int -> (string * Ndlog.Store.Tuple.t) list;
      (** external insertions occurring at each instant (refreshes,
          pings, failures-as-silence) *)
  lifetimes : (string * int) list;
      (** soft predicates and their leases in clock ticks *)
}

val make_config :
  ?horizon:int ->
  ?inject:(int -> (string * Ndlog.Store.Tuple.t) list) ->
  Ndlog.Ast.program ->
  config
(** Lifetimes come from the program's [materialize] declarations,
    rounded up to whole ticks ({!Ndlog.Softstate.guard_lifetime}): a
    tuple leased at clock [c] with lifetime [l] is live at every
    integer instant before [c + l], as under {!Ndlog.Softstate.Expiry}. *)

val insert : config -> state -> string -> Ndlog.Store.Tuple.t -> state
(** Insert with lease bookkeeping (re-insertion refreshes, in one
    ordered pass over the leases); the enabled set is enumerated in
    full. *)

val make_state :
  config -> clock:int -> Ndlog.Store.t -> lease list -> state
(** A state from its parts (leases in any order, each naming a stored
    tuple); its enabled set is enumerated in full. *)

val tick : config -> state -> state
(** Advance the clock, expire leases, apply injections; the enabled set
    is enumerated in full. *)

(** A labeled transition: one derivation (the {!Ndlog_ts} insertion)
    or the clock tick. *)
type action =
  | Derive of Ndlog_ts.action
  | Tick

val labeled_system :
  ?observed:string list -> config -> (state, action) Explore.sys
(** Derivations, in {!Ndlog_ts.enabled_insertions} order, then the tick
    (below the horizon).  A derivation's successor gets its enabled set
    from the delta step ({!Ndlog_ts.step_enabled}); a tick's enumerates
    it in full.  Derivations are independent of each other per
    {!Ndlog_ts.independent}; ticks of nothing.  [observed] is
    the POR visibility hook: the caller asserts its invariant reads
    only the clock, the observed predicates, and their leases (ticks
    are always visible). *)

val apply_perm : Symmetry.perm -> state -> state
(** A node permutation acting on the database, leases and enabled set
    jointly (the clock is fixed).  The permuted enabled set is the
    image's own when the permutation is an automorphism of the
    program. *)

val apply_gen : Symmetry.gen -> state -> state
(** {!apply_perm} for a compiled permutation. *)

val state_facts : state -> (int -> Ndlog.Store.Tuple.t -> unit) -> unit
(** The facts {!canon_state} colours nodes by: the database's
    ({!Symmetry.store_facts}) and one per lease, tagged with its
    predicate and expiry. *)

val canon_state : Symmetry.t -> state -> state
(** Orbit representative of a state under {!apply_perm}. *)

val explore :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  config ->
  state Explore.stats
(** Exploration with both reductions switchable (default off). *)

val check :
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:Symmetry.t ->
  ?observed:string list ->
  ?stable:bool ->
  config ->
  (state -> bool) ->
  (state Explore.stats, state Explore.violation) result
(** Clock-indexed safety over all reachable states.  Reductions as in
    {!Ndlog_ts.check_fine_invariant}: a symmetric invariant for
    [?symmetry], visibility via [?observed] or stability via [?stable]
    for [?por]. *)
