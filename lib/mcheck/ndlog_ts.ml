(* The transition-system (linear-logic flavoured) view of NDlog
   execution, per Section 4.3: "view the declarative networking
   specification as a set of transition rules that determine the updates
   of the underlying routing tables".

   A state is a database ({!Ndlog.Store.t}); a transition fires one rule
   on one satisfying environment and inserts the (single) new head
   tuple.  The resulting system feeds the {!Explore} checker: safety
   invariants over table contents, divergence (for count-to-infinity,
   the state space is infinite and exploration truncates at the bound —
   truncation at ever-growing cost values is itself the symptom), and
   terminal states (fixpoints).

   An action is the insertion itself, (predicate, tuple); partial-order
   reduction needs nothing more, because independence follows from
   monotonicity alone (see {!independent}). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval

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
(* Systems. *)

(* State identity must be [Store.equal]/[Store.hash]: both ignore the
   store's mutable index cache, which the checker's structural defaults
   would see — a cache-warm database would then neither compare nor
   hash equal to the same database cache-cold, and every logical state
   would be visited once per cache configuration. *)
let labeled_system ?observed (p : Ast.program) : (Store.t, action) Explore.sys =
  let initial = [ Store.of_facts p.Ast.facts ] in
  let actions db =
    List.map
      (fun ((pred, t) as a) -> (a, Store.add pred t db))
      (enabled_insertions p db)
  in
  let indep = independent p in
  let independent _db a b = indep a b in
  let visible =
    match observed with
    | None -> fun _ _ -> true (* unknown invariant support: all visible *)
    | Some preds -> fun _ ((pred, _) : action) -> List.mem pred preds
  in
  Explore.make_labeled ~pp:Store.pp ~equal:Store.equal ~hash:Store.hash
    ~independent ~visible ~initial ~actions ()

(* A coarser system that fires all enabled insertions at once (one
   successor per state): much smaller state space, same fixpoint. *)
let batched_system (p : Ast.program) : Store.t Explore.system =
  let initial = [ Store.of_facts p.Ast.facts ] in
  let successors db =
    match enabled_insertions p db with
    | [] -> []
    | ins -> [ List.fold_left (fun db (pred, t) -> Store.add pred t db) db ins ]
  in
  Explore.make ~pp:Store.pp ~equal:Store.equal ~hash:Store.hash ~initial
    ~successors ()

(* ------------------------------------------------------------------ *)
(* Reduced entry points: both reductions independently switchable,
   default off. *)

let explore ?max_states ?(por = false) ?symmetry (p : Ast.program) :
    Store.t Explore.stats =
  let canon = Option.map Symmetry.canon_store symmetry in
  Explore.explore ?max_states ~por ?canon (labeled_system p)

let check_fine_invariant ?max_states ?(por = false) ?symmetry ?observed ?stable
    (p : Ast.program) (inv : Store.t -> bool) :
    (Store.t Explore.stats, Store.t Explore.violation) result =
  let canon = Option.map Symmetry.canon_store symmetry in
  Explore.check_invariant ?max_states ~por ?canon ?stable
    (labeled_system ?observed p) inv

(* Check a safety invariant over every reachable database. *)
let check_table_invariant ?max_states (p : Ast.program)
    (inv : Store.t -> bool) =
  Explore.check_invariant ?max_states (batched_system p) inv
