(** Automated proof search.

    The strategy mirrors what interactive provers automate for this
    class of goals (the paper: "typically two-thirds of the proof steps
    can be automated by the theorem prover's default proof
    strategies"): exhaustive invertible rules, closure attempts
    (assumption / evaluation / arithmetic / contradiction), forward
    chaining over Horn clauses (from the theory {e and} from
    universally quantified hypotheses), and fuel-bounded non-invertible
    moves (definition unfolding, witness search, backchaining) under
    iterative deepening.

    The searcher is untrusted: every success returns an explicit
    {!Proof.t} that {!Checker} re-validates. *)

type stats = {
  mutable nodes_explored : int;
  mutable forward_derived : int;
  mutable unfolds : int;
}

type config = {
  theory : Theory.t;
  clauses : Theory.clause list;
  max_forward_rounds : int;
  max_candidates : int;  (** cap on existential witness candidates *)
  node_budget : int;  (** hard cap on explored search nodes *)
  forward_budget : int;  (** hard cap on forward-chained facts *)
  stats : stats;
}

val make_config :
  ?max_forward_rounds:int ->
  ?max_candidates:int ->
  ?node_budget:int ->
  ?forward_budget:int ->
  Theory.t ->
  config

val solve : config -> Sequent.t -> int -> Proof.t option
(** One search attempt with the given fuel (count of non-invertible
    steps allowed along a branch).  Exposed for the tactic layer's
    [grind]. *)

(** A successful, kernel-checked proof. *)
type outcome = {
  proof : Proof.t;
  steps : int;  (** proof size: kernel inference count *)
  nodes_explored : int;
  checked : bool;  (** always true in returned outcomes *)
  elapsed : float;  (** seconds (processor time) *)
}

val prove :
  ?max_fuel:int ->
  Theory.t ->
  ?hyps:Formula.t list ->
  Formula.t ->
  (outcome, string) result
(** Iterative deepening up to [max_fuel]; the returned proof has been
    accepted by the kernel. *)

val prove_by_induction :
  ?max_fuel:int ->
  Theory.t ->
  ?hyps:Formula.t list ->
  on:string ->
  Formula.t ->
  (outcome, string) result
(** Prove [forall xs. pred(xs) => Phi] by fixpoint induction on [on]:
    one automated sub-proof per defining rule, combined into a kernel-
    checked [Induct] proof. *)

val assert_lemma :
  ?max_fuel:int ->
  ?by_induction_on:string ->
  Theory.t ->
  string ->
  Formula.t ->
  (Theory.t * outcome, string) result
(** Prove a conjecture and, on success, add it to the theory as a
    [Lemma] (available to forward chaining and [use] in later proofs). *)
