(** Soft state (Section 4.2 of the paper): expiring tuples, and the
    mechanical rewrite that makes timeouts explicit for verification. *)

(** Lease tracking for soft-state tuples, used by the runtimes.
    Re-inserting a tuple refreshes its lease (the classic soft-state
    refresh idiom). *)
module Expiry : sig
  type t

  val create : Ast.decl list -> t
  (** Lifetimes come from [materialize] declarations. *)

  val lifetime_of : t -> string -> Ast.lifetime
  val is_soft : t -> string -> bool

  val insert : t -> now:float -> string -> Store.Tuple.t -> t
  (** Record an insertion at [now]; refreshes the lease when the tuple
      is already tracked.  Hard-state predicates are ignored. *)

  val expired : t -> now:float -> (string * Store.Tuple.t) list * t
  (** Tuples whose lease has lapsed at [now], plus the pruned table. *)

  val next_deadline : t -> float option
  (** The earliest pending lease expiry, if any. *)

  val bindings : t -> ((string * Store.Tuple.t) * float) list
  (** Current leases with their deadlines, in canonical key order —
      introspection for tests (the incremental-refresh differential
      harness compares whole lease tables). *)
end

val clock_pred : string
(** The distinguished clock relation ([clock(T)]) the hard-state rewrite
    reads the current time from. *)

(** What {!to_hard_state} did. *)
type rewrite_report = {
  rewritten : Ast.program;
  soft_preds : string list;
  added_conditions : int;  (** liveness guards introduced *)
  added_columns : int;  (** timestamp columns introduced *)
}

val soft_preds_of : Ast.program -> (string * float) list
(** Soft predicates with their lifetimes. *)

val guard_lifetime : float -> int
(** A lifetime on the integer clock: [ceil l].  For integers [Ts] and
    [T], [Ts + l > T] iff [Ts + ceil l > T], so a tuple stamped at [Ts]
    is live at exactly the integer instants {!Expiry} keeps it;
    truncating would kill fractional lifetimes one tick early. *)

val to_hard_state : Ast.program -> rewrite_report
(** The Section-4.2 translation: every soft predicate gains a trailing
    timestamp column; rules deriving soft predicates read [clock(T)];
    every soft body atom gains a liveness guard [Ts + lifetime > T];
    negated soft atoms go through generated [_live] projection rules.
    Lifetimes are rounded {e up} to an integer in the guards: for the
    rewrite's integer timestamps and clock, [Ts + l > T] iff
    [Ts + ceil l > T], so guard liveness agrees with {!Expiry}'s float
    deadlines at every integer clock value, fractional lifetimes
    included.
    The paper calls the result "heavy-weight and cumbersome" —
    experiment E8 quantifies the inflation. *)

val run_at_clock :
  ?max_rounds:int ->
  Ast.program ->
  now:int ->
  (Eval.outcome, Analysis.error) result
(** Evaluate a rewritten program at a given clock value. *)
