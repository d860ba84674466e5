(** A small explicit-state model checker (the paper's Section 4.3:
    "leverage such transition system representation to directly
    interface with model checkers").

    Works over any transition system given as initial states plus a
    successor function.  State identity is the system's [equal]/[hash]
    pair; the structural default ([(=)] / [Hashtbl.hash]) is only
    correct for small pure-data states — a state built on balanced
    trees (e.g. {!Ndlog.Store.t}, whose shape depends on insertion
    order) or carrying lazily derived fields must supply its own pair or
    the same logical state is visited once per representation, and
    [Hashtbl.hash]'s depth/size truncation collapses large states into a
    few buckets.

    Two reductions, both off by default so plain callers are untouched:

    - {e partial-order reduction} ([~por]) over systems built with
      {!make_labeled}, which exposes successor generation as labeled
      actions plus an [independent] hook;
    - {e symmetry reduction} ([~canon]), which canonicalizes every
      visited-table key (e.g. {!Symmetry.canon_store} minimizes over
      topology-automorphism orbits) so symmetric states are explored
      once.  Exploration itself works with real states, so traces
      remain real executions. *)

type ('state, 'action) sys = {
  initial : 'state list;
  successors : 'state -> 'state list;
  actions : ('state -> ('action * 'state) list) option;
      (** labeled successor generation ({!make_labeled}); agrees with
          [successors] *)
  independent : ('state -> 'action -> 'action -> bool) option;
      (** strong independence (see {!make_labeled}) *)
  visible : ('state -> 'action -> bool) option;
      (** can the action change an invariant's verdict? *)
  pp : 'state Fmt.t;
  equal : 'state -> 'state -> bool;  (** state identity *)
  hash : 'state -> int;  (** must agree with [equal] *)
}

type 'state system = ('state, unit) sys
(** The unlabeled view: every system built with {!make}. *)

val make :
  ?pp:'state Fmt.t ->
  ?equal:('state -> 'state -> bool) ->
  ?hash:('state -> int) ->
  initial:'state list ->
  successors:('state -> 'state list) ->
  unit ->
  'state system

val make_labeled :
  ?pp:'state Fmt.t ->
  ?equal:('state -> 'state -> bool) ->
  ?hash:('state -> int) ->
  ?independent:('state -> 'action -> 'action -> bool) ->
  ?visible:('state -> 'action -> bool) ->
  initial:'state list ->
  actions:('state -> ('action * 'state) list) ->
  unit ->
  ('state, 'action) sys
(** A system whose successors are labeled with actions, enabling
    partial-order reduction.

    [independent s a b] carries a strong contract: whenever both
    actions are enabled, executing them in either order must reach the
    same state, neither may disable the other, and the claim must keep
    holding along the interleavings the reduction prunes (for the NDlog
    systems this follows from monotonicity: insertions only ever add
    satisfying environments).  A hook that over-claims independence
    makes the reduction unsound; when in doubt, answer [false] — the
    checker then simply explores more.

    [visible s a] must answer [true] whenever [a] could change the
    verdict of an invariant the caller intends to check; omitting it
    makes every action visible, so [~por] invariant checking performs
    no reduction (exploration is still reduced). *)

(** The visited-state table: a hashtable keyed by the state hash, with
    bucket lists resolved by the state equality.  Exposed for tests
    that check the bucket distribution of a state hash.  The optional
    [canon] maps keys to orbit representatives before hashing — the
    symmetry quotient as an alternative [equal]/[hash] on the table. *)
module Table : sig
  type 'state t

  val create :
    ?equal:('state -> 'state -> bool) ->
    ?hash:('state -> int) ->
    ?canon:('state -> 'state) ->
    unit ->
    'state t

  val of_system : ?canon:('state -> 'state) -> ('state, 'action) sys -> 'state t
  val find : 'state t -> 'state -> int option
  val add : 'state t -> 'state -> int -> unit
  val mem : 'state t -> 'state -> bool
  val size : 'state t -> int

  val buckets : 'state t -> int
  (** Distinct hash values present. *)

  val max_bucket : 'state t -> int
  (** Size of the fullest bucket (states sharing one hash). *)
end

(** Reachability statistics. *)
type 'state stats = {
  states : int;
  transitions : int;
  max_depth : int;
  terminal : 'state list;  (** reachable states with no successors *)
  truncated : bool;  (** the state bound was hit *)
}

val explore :
  ?max_states:int ->
  ?por:bool ->
  ?canon:('state -> 'state) ->
  ('state, 'action) sys ->
  'state stats
(** Breadth-first exploration (default bound 100_000 states):
    {!check_invariant} under [~stable:true] with an invariant that
    always holds.

    [~por:true] (labeled systems only) expands a singleton ample set
    where an enabled action is independent of every other enabled
    action, subject to the closed-set proviso (the ample successor must
    be new, else full expansion) — one representative interleaving of
    commuting transitions.  Terminal states are preserved.

    [~canon] quotients the visited table: states equal up to [canon]
    are explored once.  Terminal states and counts are then per orbit
    representative. *)

(** An invariant violation with its witness. *)
type 'state violation = {
  trace : 'state list;  (** from an initial state to the violation *)
  violating : 'state;
}

val check_invariant :
  ?max_states:int ->
  ?por:bool ->
  ?canon:('state -> 'state) ->
  ?stable:bool ->
  ('state, 'action) sys ->
  ('state -> bool) ->
  ('state stats, 'state violation) result
(** Safety checking by BFS with parent pointers: counterexample traces
    are shortest in the explored graph (a reduced graph may omit
    shorter interleavings, so reduced traces can be longer than the
    plain checker's).

    Under [~por], an ample action must additionally be {e invisible}
    (per the system's [visible] hook) so pruned interleavings cannot
    hide a verdict change — unless [~stable:true] declares the
    invariant stable (once violated, violated in every extension, e.g.
    "no tuple with cost above the bound" in a system that only inserts
    tuples), which lets every action be ample: reaching the terminal
    fixpoint then decides the verdict.

    Under [~canon], the invariant must be symmetric (closed under the
    canonicalization's group): orbits are explored through one
    representative, so an asymmetric invariant could miss its
    violating member. *)

val validate_trace :
  ('state, 'action) sys -> 'state list -> (unit, string) result
(** Replay a claimed counterexample: the first state must be initial
    (up to the system's [equal]) and every step an enabled successor of
    its predecessor.  Reduced searches must still produce real
    executions — this is the harness's check that they do. *)

(** A reachable cycle: witness of a possible non-terminating run. *)
type 'state lasso = {
  stem : 'state list;  (** may be empty (not reconstructed) *)
  cycle : 'state list;
}

val find_lasso :
  ?max_states:int ->
  ?within:('state -> bool) ->
  ('state, 'action) sys ->
  'state lasso option
(** A reachable cycle whose states all satisfy [within] (DFS with an
    on-stack marker). *)

val validate_lasso :
  ('state, 'action) sys -> 'state lasso -> (unit, string) result
(** Replay a lasso: consecutive stem and cycle states must be enabled
    successors and the cycle must close.  An empty stem (as
    {!find_lasso} returns) skips the reachability check. *)

val can_avoid :
  ?max_states:int ->
  ('state, 'action) sys ->
  good:('state -> bool) ->
  'state lasso option
(** Can the system run forever avoiding [good] states?  [Some lasso]
    witnesses yes (the oscillation detector of experiment E9). *)
