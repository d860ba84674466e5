(* Automated proof search.

   The strategy mirrors what interactive provers automate for this class
   of goals (the paper: "typically two-thirds of the proof steps can be
   automated by the theorem prover's default proof strategies"):

   1. apply invertible sequent rules exhaustively (intro / flatten /
      skolemize / case split);
   2. attempt closure: assumption, ground evaluation, linear arithmetic,
      hypothesis contradiction;
   3. saturate hypotheses by forward chaining over the theory's Horn
      clauses (unit-resulting resolution with one-way matching);
   4. spend fuel on non-invertible steps: unfolding defined predicates
      (iff-completions from {!Completion}), witness search for
      existential goals, disjunctive goals, and hypothesis backchaining.

   Every success returns an explicit {!Proof.t} that {!Checker} then
   re-validates; the searcher itself is untrusted. *)

type stats = {
  mutable nodes_explored : int;
  mutable forward_derived : int;
  mutable unfolds : int;
}

let new_stats () = { nodes_explored = 0; forward_derived = 0; unfolds = 0 }

type config = {
  theory : Theory.t;
  clauses : Theory.clause list;
  max_forward_rounds : int;
  max_candidates : int;
  node_budget : int;  (* hard cap on explored search nodes *)
  forward_budget : int;  (* hard cap on forward-chained facts *)
  stats : stats;
}

let make_config ?(max_forward_rounds = 6) ?(max_candidates = 16)
    ?(node_budget = 200_000) ?(forward_budget = 400) theory =
  {
    theory;
    clauses = Theory.horn_clauses theory;
    max_forward_rounds;
    max_candidates;
    node_budget;
    forward_budget;
    stats = new_stats ();
  }

(* ------------------------------------------------------------------ *)
(* Closure attempts. *)

let try_close (s : Sequent.t) : Proof.t option =
  if Formula.equal s.goal Formula.Tru then Some Proof.TrueR
  else if Sequent.has_hyp Formula.Fls s then Some Proof.FalseL
  else if Sequent.has_hyp s.goal s then Some Proof.Assumption
  else
    match Formula.ground_decide s.goal with
    | Some true -> Some Proof.Eval
    | _ ->
      if Arith.entails s.hyps s.goal then Some Proof.Arith
      else
        (* A ground-false hypothesis closes the branch. *)
        let false_hyp =
          List.find_opt
            (fun h -> Formula.ground_decide h = Some false)
            s.hyps
        in
        (match false_hyp with
        | Some h -> Some (Proof.EvalL h)
        | None ->
          (* Contradictory pair: hyp [a => false] (or [~a]) with hyp [a]. *)
          let imp_false =
            List.find_opt
              (function
                | Formula.Imp (a, Formula.Fls) -> Sequent.has_hyp a s
                | _ -> false)
              s.hyps
          in
          (match imp_false with
          | Some (Formula.Imp (_, Formula.Fls) as f) ->
            Some (Proof.ImpL (f, Proof.Assumption, Proof.FalseL))
          | _ -> None))

(* ------------------------------------------------------------------ *)
(* Forward chaining. *)

(* Hypotheses usable as matching targets. *)
let atom_hyps s =
  List.filter
    (function
      | Formula.Atom _ | Formula.Eq _ | Formula.Lt _ | Formula.Le _ -> true
      | _ -> false)
    s.Sequent.hyps

(* Can [f] be discharged immediately in sequent [s]?  Returns the leaf
   proof if so. *)
let discharge s (f : Formula.t) : Proof.t option =
  if Sequent.has_hyp f s then Some Proof.Assumption
  else
    match Formula.ground_decide f with
    | Some true -> Some Proof.Eval
    | _ -> if Arith.entails s.Sequent.hyps f then Some Proof.Arith else None

(* All substitutions matching the clause antecedent atoms against
   hypotheses (one-way matching; hypotheses are ground after
   skolemization). *)
let clause_matches s (c : Theory.clause) : Term.subst list =
  let hyps = atom_hyps s in
  let match_atom sigma (pat : Formula.t) : Term.subst list =
    List.filter_map
      (fun hyp ->
        match pat, hyp with
        | Formula.Atom (p, pats), Formula.Atom (q, args) when p = q ->
          List.fold_left2
            (fun acc pa a ->
              match acc with
              | None -> None
              | Some sg -> Term.matching sg pa a)
            (Some sigma)
            pats args
        | _ -> None)
      hyps
  in
  (* Antecedents that are atoms participate in matching; comparison
     antecedents are discharged later. *)
  let atom_ants =
    List.filter (function Formula.Atom _ -> true | _ -> false) c.antecedents
  in
  List.fold_left
    (fun sigmas pat ->
      List.concat_map (fun sg -> match_atom sg pat) sigmas)
    [ Term.subst_empty ] atom_ants

(* Build the proof fragment instantiating the (universally quantified,
   Horn-shaped) formula [f] under [sigma] and discharging its
   antecedents, continuing with [cont] once the consequent instance is a
   hypothesis.  [f] must already be a hypothesis of [s] (callers either
   find it there or add it with [AxiomR]).  Returns None if some
   antecedent cannot be discharged. *)
let fragment_of_formula s (f : Formula.t) sigma (cont : Proof.t) :
    (Formula.t * Proof.t) option =
  (* Walk the formula, accumulating the proof constructor. *)
  let rec walk (cur : Formula.t) (s : Sequent.t) :
      (Formula.t * (Proof.t -> Proof.t)) option =
    match cur with
    | Formula.All (x, body) -> (
      match Term.subst_find x sigma with
      | None -> None
      | Some w ->
        let inst = Formula.subst1 x w body in
        (match walk inst (Sequent.add_hyp inst s) with
        | None -> None
        | Some (res, k) -> Some (res, fun p -> Proof.AllL (cur, w, k p))))
    | Formula.Imp (a, b) -> (
      (* Prove the antecedent conjunct by conjunct. *)
      let rec prove_conj (f : Formula.t) : Proof.t option =
        match f with
        | Formula.And (x, y) -> (
          match prove_conj x, prove_conj y with
          | Some px, Some py -> Some (Proof.AndR (px, py))
          | _ -> None)
        | Formula.Tru -> Some Proof.TrueR
        | f -> discharge s f
      in
      match prove_conj a with
      | None -> None
      | Some pa ->
        (match walk b (Sequent.add_hyp b s) with
        | None -> None
        | Some (res, k) -> Some (res, fun p -> Proof.ImpL (cur, pa, k p))))
    | (Formula.Atom _ | Formula.Eq _ | Formula.Lt _ | Formula.Le _ | Formula.Fls
      | Formula.Ex _ | Formula.Or _ | Formula.Not _) as res ->
      Some (res, fun p -> p)
    | _ -> None
  in
  match walk f (Sequent.add_hyp f s) with
  | None -> None
  | Some (res, k) -> Some (res, k cont)

(* A clause source: a named theory axiom (brought into scope with
   [AxiomR]) or a hypothesis already present in the sequent. *)
let apply_clause_fragment s (source : [ `Axiom of Theory.entry | `Hyp of Formula.t ])
    sigma (cont : Proof.t) : (Formula.t * Proof.t) option =
  match source with
  | `Axiom entry -> (
    match fragment_of_formula s entry.Theory.formula sigma cont with
    | None -> None
    | Some (res, p) -> Some (res, Proof.AxiomR (entry.Theory.name, p)))
  | `Hyp f -> fragment_of_formula s f sigma cont

(* Horn clauses contributed by universally quantified hypotheses (e.g.
   assumptions of a theorem, or induction hypotheses): forward chaining
   treats them exactly like theory axioms, but their proof fragments
   reference the hypothesis directly instead of invoking [AxiomR]. *)
let hyp_clauses (s : Sequent.t) :
    (Theory.clause * [ `Axiom of Theory.entry | `Hyp of Formula.t ]) list =
  List.filter_map
    (fun h ->
      match h with
      | Formula.All _ | Formula.Imp _ -> (
        match Theory.clause_of_formula "<hyp>" h with
        | Some c when c.Theory.antecedents <> [] -> Some (c, `Hyp h)
        | _ -> None)
      | _ -> None)
    s.Sequent.hyps

(* One forward-chaining round: returns newly derivable (consequent,
   wrapper) pairs. *)
let forward_round cfg (s : Sequent.t) :
    (Formula.t * (Proof.t -> Proof.t)) list =
  let sources =
    List.map
      (fun (c : Theory.clause) ->
        (c, `Axiom (Theory.find_exn c.clause_name cfg.theory)))
      cfg.clauses
    @ hyp_clauses s
  in
  List.concat_map
    (fun ((c : Theory.clause), source) ->
      List.filter_map
        (fun sigma ->
          (* All clause variables must be bound by atom matching. *)
          if
            not
              (List.for_all
                 (fun v -> Term.subst_find v sigma <> None)
                 c.clause_vars)
          then None
          else
            let conseq =
              Formula.apply_subst sigma c.consequent
            in
            if Sequent.has_hyp conseq s || Sequent.is_processed conseq s then
              None
            else if Formula.equal conseq Formula.Fls then
              (* Deriving false closes the branch; represent with a
                 wrapper ending in FalseL. *)
              match apply_clause_fragment s source sigma Proof.FalseL with
              | Some (_, p) -> Some (conseq, fun (_ : Proof.t) -> p)
              | None -> None
            else
              match apply_clause_fragment s source sigma Proof.Assumption with
              | Some _ ->
                Some
                  ( conseq,
                    fun cont ->
                      match apply_clause_fragment s source sigma cont with
                      | Some (_, p) -> p
                      | None -> assert false )
              | None -> None)
        (clause_matches s c))
    sources

(* ------------------------------------------------------------------ *)
(* The main search. *)

let rec solve cfg (s : Sequent.t) (fuel : int) : Proof.t option =
  cfg.stats.nodes_explored <- cfg.stats.nodes_explored + 1;
  if cfg.stats.nodes_explored > cfg.node_budget then None
  else solve_goal cfg s fuel

and solve_goal cfg (s : Sequent.t) (fuel : int) : Proof.t option =
  (* Invertible right rules. *)
  match s.Sequent.goal with
  | Formula.And (a, b) ->
    both cfg s fuel a b (fun pa pb -> Proof.AndR (pa, pb))
  | Formula.Imp (a, b) ->
    Option.map
      (fun p -> Proof.ImpR p)
      (solve cfg (Sequent.add_hyp a (Sequent.set_goal b s)) fuel)
  | Formula.Iff (a, b) ->
    let ga = Formula.Imp (a, b) and gb = Formula.Imp (b, a) in
    (match
       ( solve cfg (Sequent.set_goal ga s) fuel,
         solve cfg (Sequent.set_goal gb s) fuel )
     with
    | Some pa, Some pb -> Some (Proof.IffR (pa, pb))
    | _ -> None)
  | Formula.Not a ->
    Option.map
      (fun p -> Proof.NotR p)
      (solve cfg (Sequent.add_hyp a (Sequent.set_goal Formula.Fls s)) fuel)
  | Formula.All (x, body) ->
    let c = Sequent.fresh_const s x in
    Option.map
      (fun p -> Proof.AllR (c, p))
      (solve cfg
         (Sequent.set_goal (Formula.subst1 x (Term.Fn (c, [])) body) s)
         fuel)
  | _ -> left_phase cfg s fuel

and both cfg s fuel a b rebuild =
  match solve cfg (Sequent.set_goal a s) fuel with
  | None -> None
  | Some pa -> (
    match solve cfg (Sequent.set_goal b s) fuel with
    | None -> None
    | Some pb -> Some (rebuild pa pb))

(* Invertible left rules, applied one at a time (the recursion
   re-scans). *)
and left_phase cfg s fuel =
  let invertible =
    List.find_opt
      (function
        | Formula.And _ | Formula.Ex _ | Formula.Iff _ | Formula.Not _ -> true
        | _ -> false)
      s.Sequent.hyps
  in
  match invertible with
  | Some (Formula.And (a, b) as f) ->
    let s = Sequent.mark_processed f s in
    Option.map
      (fun p -> Proof.AndL (f, p))
      (solve cfg
         (Sequent.add_hyp a (Sequent.add_hyp b (Sequent.remove_hyp f s)))
         fuel)
  | Some (Formula.Ex (x, body) as f) ->
    let s = Sequent.mark_processed f s in
    let c = Sequent.fresh_const s x in
    Option.map
      (fun p -> Proof.ExL (f, c, p))
      (solve cfg
         (Sequent.add_hyp
            (Formula.subst1 x (Term.Fn (c, [])) body)
            (Sequent.remove_hyp f s))
         fuel)
  | Some (Formula.Iff (a, b) as f) ->
    let s = Sequent.mark_processed f s in
    Option.map
      (fun p -> Proof.IffL (f, p))
      (solve cfg
         (Sequent.add_hyp (Formula.Imp (a, b))
            (Sequent.add_hyp (Formula.Imp (b, a)) (Sequent.remove_hyp f s)))
         fuel)
  | Some (Formula.Not a as f) ->
    let s = Sequent.mark_processed f s in
    Option.map
      (fun p -> Proof.NotL (f, p))
      (solve cfg
         (Sequent.add_hyp (Formula.Imp (a, Formula.Fls)) (Sequent.remove_hyp f s))
         fuel)
  | _ -> (
    (* Disjunctive hypotheses: case split (still invertible, but done
       after the cheap ones). *)
    let disj =
      List.find_opt (function Formula.Or _ -> true | _ -> false) s.Sequent.hyps
    in
    match disj with
    | Some (Formula.Or (a, b) as f) ->
      let s' = Sequent.remove_hyp f (Sequent.mark_processed f s) in
      (match
         ( solve cfg (Sequent.add_hyp a s') fuel,
           solve cfg (Sequent.add_hyp b s') fuel )
       with
      | Some pa, Some pb -> Some (Proof.OrL (f, pa, pb))
      | _ -> None)
    | _ -> saturate_phase cfg s fuel)

(* Closure, then forward chaining to fixpoint, then fuel moves. *)
and saturate_phase cfg s fuel =
  match try_close s with
  | Some p -> Some p
  | None -> forward_loop cfg s fuel cfg.max_forward_rounds

and forward_loop cfg s fuel rounds =
  if rounds = 0 || cfg.stats.forward_derived > cfg.forward_budget then
    fuel_phase cfg s fuel
  else
    let derivable = forward_round cfg s in
    if derivable = [] then fuel_phase cfg s fuel
    else begin
      cfg.stats.forward_derived <-
        cfg.stats.forward_derived + List.length derivable;
      (* Chain the wrappers: each adds one hypothesis. *)
      let s' =
        List.fold_left (fun s (f, _) -> Sequent.add_hyp f s) s derivable
      in
      let rebuild inner =
        List.fold_right (fun (_, wrap) acc -> wrap acc) derivable inner
      in
      (* If some derived fact was false we are done immediately. *)
      if List.exists (fun (f, _) -> Formula.equal f Formula.Fls) derivable
      then
        (* The wrapper for the false consequent ignores its continuation. *)
        Some (rebuild Proof.FalseL)
      else
        match try_close s' with
        | Some p -> Some (rebuild p)
        | None ->
          (* Re-enter the full loop when a derived hypothesis needs
             decomposition (an existential from a membership axiom, a
             disjunction, ...); otherwise keep chaining. *)
          let needs_decomposition =
            List.exists
              (fun (f, _) ->
                match f with
                | Formula.Atom _ | Formula.Eq _ | Formula.Lt _ | Formula.Le _ ->
                  false
                | _ -> true)
              derivable
          in
          let continue_ =
            if needs_decomposition then solve cfg s' fuel
            else forward_loop cfg s' fuel (rounds - 1)
          in
          (match continue_ with
          | Some p -> Some (rebuild p)
          | None -> None)
    end

(* Non-invertible moves, each costing one unit of fuel. *)
and fuel_phase cfg s fuel =
  if fuel <= 0 then None
  else
    let fuel' = fuel - 1 in
    (* 1. Unfold a defined predicate occurring as a hypothesis atom. *)
    let hyp_unfold =
      List.filter_map
        (fun h ->
          match h with
          | Formula.Atom (p, _) -> (
            match Theory.definition_of p cfg.theory with
            | Some entry -> Some (h, entry)
            | None -> None)
          | _ -> None)
        s.Sequent.hyps
    in
    let try_hyp_unfold (h, entry) =
      cfg.stats.unfolds <- cfg.stats.unfolds + 1;
      unfold_hyp cfg s fuel' h entry
    in
    let rec first f = function
      | [] -> None
      | x :: rest -> ( match f x with Some r -> Some r | None -> first f rest)
    in
    match first try_hyp_unfold hyp_unfold with
    | Some p -> Some p
    | None -> (
      (* 2. Unfold the goal if it is a defined atom. *)
      let goal_unfold =
        match s.Sequent.goal with
        | Formula.Atom (p, _) -> Theory.definition_of p cfg.theory
        | _ -> None
      in
      match goal_unfold with
      | Some entry -> (
        cfg.stats.unfolds <- cfg.stats.unfolds + 1;
        match unfold_goal cfg s fuel' entry with
        | Some p -> Some p
        | None -> gamma_phase cfg s fuel')
      | None -> gamma_phase cfg s fuel')

(* Existential witnesses, disjunctive goals, backchaining on
   hypothetical implications. *)
and gamma_phase cfg s fuel =
  match s.Sequent.goal with
  | Formula.Ex (x, body) ->
    let candidates =
      let cands = Sequent.candidate_terms s in
      let n = List.length cands in
      if n > cfg.max_candidates then
        List.filteri (fun i _ -> i < cfg.max_candidates) cands
      else cands
    in
    let rec try_witness = function
      | [] -> None
      | w :: rest -> (
        match solve cfg (Sequent.set_goal (Formula.subst1 x w body) s) fuel with
        | Some p -> Some (Proof.ExR (w, p))
        | None -> try_witness rest)
    in
    try_witness candidates
  | Formula.Or (a, b) -> (
    match solve cfg (Sequent.set_goal a s) fuel with
    | Some p -> Some (Proof.OrR1 p)
    | None ->
      Option.map (fun p -> Proof.OrR2 p) (solve cfg (Sequent.set_goal b s) fuel))
  | goal -> (
    (* Backchain: hypothesis [a => goal] reduces to proving [a]. *)
    let imp =
      List.find_opt
        (function
          | Formula.Imp (_, b) -> Formula.equal b goal
          | _ -> false)
        s.Sequent.hyps
    in
    match imp with
    | Some (Formula.Imp (a, _) as f) ->
      Option.map
        (fun pa -> Proof.ImpL (f, pa, Proof.Assumption))
        (solve cfg (Sequent.set_goal a s) fuel)
    | _ -> None)

(* Unfold hypothesis atom [h = p(ts)] using its definition entry
   [forall xs. p(xs) <=> rhs]: after the fragment, [rhs{xs:=ts}] is a new
   hypothesis. *)
and unfold_hyp cfg s fuel h entry =
  match h with
  | Formula.Atom (_, ts) -> (
    match instantiate_def entry ts with
    | None -> None
    | Some (_, _, rhs_inst) when Sequent.has_hyp rhs_inst s -> None
    | Some (chain, iff_inst, rhs_inst) -> (
      let p_to_rhs, rhs_to_p =
        match iff_inst with
        | Formula.Iff (a, b) -> (Formula.Imp (a, b), Formula.Imp (b, a))
        | _ -> assert false
      in
      ignore rhs_to_p;
      let s' = Sequent.add_hyp rhs_inst s in
      match solve cfg s' fuel with
      | None -> None
      | Some cont ->
        (* AxiomR; AllL*; IffL; ImpL (p(ts) => rhs) with antecedent by
           assumption; continue with rhs as hypothesis. *)
        let inner = Proof.ImpL (p_to_rhs, Proof.Assumption, cont) in
        let with_iff = Proof.IffL (iff_inst, inner) in
        Some (Proof.AxiomR (entry.Theory.name, chain with_iff))))
  | _ -> None

(* Unfold the goal atom using its definition: prove rhs instead. *)
and unfold_goal cfg s fuel entry =
  match s.Sequent.goal with
  | Formula.Atom (_, ts) -> (
    match instantiate_def entry ts with
    | None -> None
    | Some (chain, iff_inst, rhs_inst) -> (
      let rhs_to_p =
        match iff_inst with
        | Formula.Iff (a, b) -> Formula.Imp (b, a)
        | _ -> assert false
      in
      match solve cfg (Sequent.set_goal rhs_inst s) fuel with
      | None -> None
      | Some prhs ->
        let inner = Proof.ImpL (rhs_to_p, prhs, Proof.Assumption) in
        let with_iff = Proof.IffL (iff_inst, inner) in
        Some (Proof.AxiomR (entry.Theory.name, chain with_iff))))
  | _ -> None

(* Instantiate a definition [forall x1..xn. p(x1..xn) <=> rhs] with the
   argument terms [ts].  Returns the AllL chain builder, the instantiated
   iff, and the instantiated rhs. *)
and instantiate_def (entry : Theory.entry) (ts : Term.t list) :
    ((Proof.t -> Proof.t) * Formula.t * Formula.t) option =
  let rec go cur ts (wrap : Proof.t -> Proof.t) =
    match cur, ts with
    | Formula.All (x, body), t :: rest ->
      let inst = Formula.subst1 x t body in
      go inst rest (fun p -> wrap (Proof.AllL (cur, t, p)))
    | Formula.Iff (lhs, rhs), [] -> Some (wrap, Formula.Iff (lhs, rhs), rhs)
    | _ -> None
  in
  go entry.Theory.formula ts (fun p -> p)

(* ------------------------------------------------------------------ *)
(* Entry points. *)

type outcome = {
  proof : Proof.t;
  steps : int;  (* proof size: inference count *)
  nodes_explored : int;
  checked : bool;  (* the kernel accepted the proof *)
  elapsed : float;  (* seconds *)
}

(* Iterative deepening on fuel. *)
let prove ?(max_fuel = 5) (thy : Theory.t) ?(hyps = []) (goal : Formula.t) :
    (outcome, string) result =
  let t0 = Sys.time () in
  let s = Sequent.make ~hyps goal in
  let rec attempt fuel =
    if fuel > max_fuel then None
    else
      let cfg = make_config thy in
      match solve cfg s fuel with
      | Some p -> Some (p, cfg.stats)
      | None -> attempt (fuel + 1)
  in
  match attempt 1 with
  | None -> Error (Fmt.str "no proof found for %a" Formula.pp goal)
  | Some (p, stats) -> (
    match Checker.check thy s p with
    | Ok () ->
      Ok
        {
          proof = p;
          steps = Proof.size p;
          nodes_explored = stats.nodes_explored;
          checked = true;
          elapsed = Sys.time () -. t0;
        }
    | Error e ->
      Error (Fmt.str "kernel rejected the proof: %a" Checker.pp_error e))

(* Prove [forall xs. pred(xs) => Phi] by fixpoint induction on [pred]:
   generate one subgoal per defining rule (via the kernel's own subgoal
   builder) and discharge each with the automated prover; the combined
   [Induct] proof is kernel-checked as usual. *)
let prove_by_induction ?(max_fuel = 5) (thy : Theory.t) ?(hyps = [])
    ~(on : string) (goal : Formula.t) : (outcome, string) result =
  let t0 = Sys.time () in
  let s = Sequent.make ~hyps goal in
  match Checker.induction_subgoals thy s on with
  | Error e -> Error ("induction not applicable: " ^ e)
  | Ok subgoals -> (
    let cfg = make_config thy in
    let solve_subgoal sq =
      let rec attempt fuel =
        if fuel > max_fuel then None
        else
          match solve cfg sq fuel with
          | Some p -> Some p
          | None -> attempt (fuel + 1)
      in
      attempt 1
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | sq :: rest -> (
        match solve_subgoal sq with
        | Some p -> go (p :: acc) rest
        | None ->
          Error (Fmt.str "induction subgoal not proved:@.%a" Sequent.pp sq))
    in
    match go [] subgoals with
    | Error e -> Error e
    | Ok proofs -> (
      let proof = Proof.Induct (on, proofs) in
      match Checker.check thy s proof with
      | Ok () ->
        Ok
          {
            proof;
            steps = Proof.size proof;
            nodes_explored = cfg.stats.nodes_explored;
            checked = true;
            elapsed = Sys.time () -. t0;
          }
      | Error e ->
        Error (Fmt.str "kernel rejected the induction proof: %a" Checker.pp_error e)))

(* Prove a conjecture and, on success, extend the theory with it as a
   reusable lemma (available to forward chaining and [use] in later
   proofs) — the workflow of building up a verified theory
   incrementally. *)
let assert_lemma ?max_fuel ?(by_induction_on : string option)
    (thy : Theory.t) (name : string) (goal : Formula.t) :
    (Theory.t * outcome, string) result =
  let result =
    match by_induction_on with
    | Some pred -> prove_by_induction ?max_fuel thy ~on:pred goal
    | None -> prove ?max_fuel thy goal
  in
  match result with
  | Error e -> Error e
  | Ok outcome -> Ok (Theory.add ~kind:Theory.Lemma name goal thy, outcome)
