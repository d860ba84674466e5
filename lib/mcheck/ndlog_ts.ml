(* The transition-system (linear-logic flavoured) view of NDlog
   execution, per Section 4.3: "view the declarative networking
   specification as a set of transition rules that determine the updates
   of the underlying routing tables".

   A state is a database ({!Ndlog.Store.t}) carrying its enabled
   insertions and an order-independent hash; a transition fires one
   rule on one satisfying environment and inserts the (single) new head
   tuple.  The resulting system feeds the {!Explore} checker: safety
   invariants over table contents, divergence (for count-to-infinity,
   the state space is infinite and exploration truncates at the bound —
   truncation at ever-growing cost values is itself the symptom), and
   terminal states (fixpoints).

   The successor step is the engine's own delta step.  A successor
   differs from its parent by the tuple it inserted, so in a
   negation-free program its enabled set is the parent's minus that
   insertion, plus the heads derived through the new tuple (the
   executor's strands triggered by its predicate, joined over the new
   store) that are not already stored.  Programs with negation — where
   an insertion can disable another — enumerate every state's set in
   full.  Either way the set is forced only when the state is expanded,
   so partial-order reduction never builds the sets of the siblings it
   prunes.

   An action is the insertion itself, (predicate, tuple); partial-order
   reduction needs nothing more, because independence follows from
   monotonicity alone (see {!independent}). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Plan = Ndlog.Plan

(* The engine-canonical order on (pred, tuple) pairs: predicate name,
   then Value-aware tuple comparison — never polymorphic [compare],
   which is an independent structural notion of equality from the
   engine's (the same class of bug PR 1 fixed in the aggregate Kmap). *)
let insertion_compare (p1, t1) (p2, t2) =
  let c = String.compare p1 p2 in
  if c <> 0 then c else Store.Tuple.compare t1 t2

type action = string * Store.Tuple.t

(* All single-tuple insertions enabled in [db], in ascending
   [insertion_compare] order — the order POR scans for its ample
   action. *)
let enabled_insertions (p : Ast.program) (db : Store.t) : action list =
  List.concat_map
    (fun (r : Ast.rule) ->
      if Ast.has_aggregate r.Ast.head then []
      else
        Eval.body_envs db r.Ast.body
        |> List.filter_map (fun env ->
               let t = Eval.head_tuple env r.Ast.head in
               if Store.mem r.Ast.head.Ast.head_pred t db then None
               else Some (r.Ast.head.Ast.head_pred, t)))
    p.Ast.rules
  |> List.sort_uniq insertion_compare

(* ------------------------------------------------------------------ *)
(* Independence.

   A negated body atom lets one insertion disable another's derivation,
   breaking the strong-commutation contract of {!Explore.make_labeled}
   in ways no local test can bound (the disabling can be transitive
   through later derivations), so any negation in a non-aggregate rule
   turns independence off wholesale.  Negation-free insertion systems
   are monotone: inserting a tuple only ever adds satisfying
   environments, so distinct insertions commute to the same database
   and stay enabled — along every interleaving, which is exactly the
   contract.  Distinctness alone therefore certifies independence,
   collapsing the insertion lattice to one chain. *)

let has_negation (p : Ast.program) =
  List.exists
    (fun (r : Ast.rule) ->
      (not (Ast.has_aggregate r.Ast.head))
      && List.exists (function Ast.Neg _ -> true | _ -> false) r.Ast.body)
    p.Ast.rules

let independent (p : Ast.program) : action -> action -> bool =
  if has_negation p then fun _ _ -> false
  else fun a b -> insertion_compare a b <> 0

(* ------------------------------------------------------------------ *)
(* States.

   Identity is [Store.equal] on the database: the checker's structural
   defaults would see the store's tree shape, which depends on
   insertion order, and the lazily carried enabled set.  [Store.hash] is
   a sum of per-fact hashes, so the carried hash updates in O(1) per
   insertion. *)

type state = { db : Store.t; enabled : action list Lazy.t; hash : int }

let state_equal a b = Store.equal a.db b.db
let state_hash s = s.hash
let pp_state ppf s = Store.pp ppf s.db

let state_of_store (p : Ast.program) db =
  { db; enabled = lazy (enabled_insertions p db); hash = Store.hash db }

(* ------------------------------------------------------------------ *)
(* The delta step.

   The step runs the executor's own strands ({!Plan.compile_strand}):
   a rule is entered once per positive body atom, the inserted tuple
   binds that atom, and the rest of the body, planned with the atom's
   variables bound, is joined over the new store.  A new satisfying
   environment must use the new tuple at some positive position (every
   other environment already held in the parent), so the strands
   triggered by the tuple's predicate derive exactly the new heads; a
   self-join is entered at each of its occurrences.  Only the heads of
   non-aggregate rules are ever inserted by a step, so a strand seeded
   by any other predicate would never fire and is dropped. *)

type delta =
  | Full of Ast.program  (* negation: enumerate every set in full *)
  | Delta of Plan.strand list  (* seeded by derived predicates *)

let compile (p : Ast.program) : delta =
  if has_negation p then Full p
  else
    let derived =
      List.filter_map
        (fun (r : Ast.rule) ->
          if Ast.has_aggregate r.Ast.head then None
          else Some r.Ast.head.Ast.head_pred)
        p.Ast.rules
    in
    Delta
      (List.filter
         (fun (s : Plan.strand) -> List.mem s.Plan.delta.Ast.pred derived)
         (Plan.compile_program p))

(* The heads derived through the inserted [(pred, t)] over [db] that
   [db] does not hold yet, prepended to [acc]. *)
let derived_through strands db acc ((pred, t) : action) =
  List.fold_left
    (fun acc (s : Plan.strand) ->
      if not (String.equal s.Plan.delta.Ast.pred pred) then acc
      else
        let head = s.Plan.strand_rule.Ast.head in
        let hp = head.Ast.head_pred in
        List.fold_left
          (fun acc env ->
            let h = Eval.head_tuple env head in
            if Store.mem hp h db then acc else (hp, h) :: acc)
          acc
          (Eval.seeded_envs db s.Plan.delta t s.Plan.rest))
    acc strands

(* Sorted-list difference and union under [insertion_compare]. *)
let rec minus xs ys =
  match (xs, ys) with
  | [], _ -> []
  | _, [] -> xs
  | x :: xs', y :: ys' ->
    let c = insertion_compare x y in
    if c < 0 then x :: minus xs' ys
    else if c > 0 then minus xs ys'
    else minus xs' ys'

let rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    let c = insertion_compare x y in
    if c < 0 then x :: merge xs' ys
    else if c > 0 then y :: merge xs ys'
    else x :: merge xs' ys'

let step_enabled d ~parent ~inserted db =
  match d with
  | Full p -> lazy (enabled_insertions p db)
  | Delta strands ->
    lazy
      (merge
         (minus parent inserted)
         (List.fold_left (derived_through strands db) [] inserted
         |> List.sort_uniq insertion_compare))

(* Insert a batch of enabled insertions (sorted, none stored yet). *)
let step d s inserted =
  let db =
    List.fold_left (fun db (pred, t) -> Store.add pred t db) s.db inserted
  in
  {
    db;
    enabled = step_enabled d ~parent:(Lazy.force s.enabled) ~inserted db;
    hash =
      List.fold_left
        (fun h (pred, t) -> h + Store.fact_hash pred t)
        s.hash inserted;
  }

(* ------------------------------------------------------------------ *)
(* Systems. *)

(* One labeled successor per enabled insertion, in
   [enabled_insertions] order.  The strands are compiled on the
   first expansion: a system that is only replayed against, or never
   explored, does not pay for them. *)
let labeled_system ?observed (p : Ast.program) : (state, action) Explore.sys =
  let d = lazy (compile p) in
  let initial = [ state_of_store p (Store.of_facts p.Ast.facts) ] in
  let actions s =
    let d = Lazy.force d in
    List.map (fun a -> (a, step d s [ a ])) (Lazy.force s.enabled)
  in
  let indep = independent p in
  let independent _s a b = indep a b in
  let visible =
    match observed with
    | None -> fun _ _ -> true (* unknown invariant support: all visible *)
    | Some preds -> fun _ ((pred, _) : action) -> List.mem pred preds
  in
  Explore.make_labeled ~pp:pp_state ~equal:state_equal ~hash:state_hash
    ~independent ~visible ~initial ~actions ()

(* A coarser system that fires all enabled insertions at once (one
   successor per state): much smaller state space, same fixpoint.  The
   batch is the delta of the successor step. *)
let batched_system (p : Ast.program) : state Explore.system =
  let d = lazy (compile p) in
  let initial = [ state_of_store p (Store.of_facts p.Ast.facts) ] in
  let successors s =
    match Lazy.force s.enabled with
    | [] -> []
    | ins -> [ step (Lazy.force d) s ins ]
  in
  Explore.make ~pp:pp_state ~equal:state_equal ~hash:state_hash ~initial
    ~successors ()

(* ------------------------------------------------------------------ *)
(* Reduced entry points: both reductions independently switchable,
   default off.  Symmetry canonicalizes the database and rehashes the
   representative from its tuples; a representative is only a table
   key, so its enabled set is never forced. *)

let canon p sym s =
  let db = Symmetry.canon_store sym s.db in
  if db == s.db then s else state_of_store p db

let explore ?max_states ?(por = false) ?symmetry (p : Ast.program) :
    state Explore.stats =
  let canon = Option.map (canon p) symmetry in
  Explore.explore ?max_states ~por ?canon (labeled_system p)

let check_fine_invariant ?max_states ?(por = false) ?symmetry ?observed ?stable
    (p : Ast.program) (inv : Store.t -> bool) :
    (state Explore.stats, state Explore.violation) result =
  let canon = Option.map (canon p) symmetry in
  Explore.check_invariant ?max_states ~por ?canon ?stable
    (labeled_system ?observed p)
    (fun s -> inv s.db)

(* Check a safety invariant over every reachable database. *)
let check_table_invariant ?max_states (p : Ast.program)
    (inv : Store.t -> bool) =
  Explore.check_invariant ?max_states (batched_system p) (fun s -> inv s.db)
