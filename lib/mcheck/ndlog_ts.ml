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

   For partial-order reduction the insertions are labeled with their
   read/write footprints: the write is the inserted tuple's location
   (its predicate's location column, as {!Ndlog.Shard} computes it),
   the reads are the (predicate, body location) pairs of every
   environment deriving the tuple. *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Value = Ndlog.Value
module Env = Ndlog.Env
module Shard = Ndlog.Shard

(* The engine-canonical order on (pred, tuple) pairs: predicate name,
   then Value-aware tuple comparison — never polymorphic [compare],
   which is an independent structural notion of equality from the
   engine's (the same class of bug PR 1 fixed in the aggregate Kmap). *)
let insertion_compare (p1, t1) (p2, t2) =
  let c = String.compare p1 p2 in
  if c <> 0 then c else Store.Tuple.compare t1 t2

(* All single-tuple insertions enabled in [db]. *)
let enabled_insertions (p : Ast.program) (db : Store.t) :
    (string * Store.Tuple.t) list =
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
(* Labeled actions with footprints. *)

type action = {
  pred : string;
  tuple : Store.Tuple.t;
  writes_at : Value.t option;
      (* the inserted tuple's location value; None when unlocated *)
  reads : (string * Value.t option) list;
      (* (predicate, body location) over all deriving environments; a
         None location is an unlocated read, conflicting with every
         write of that predicate *)
}

(* The location a body atom reads under a satisfying environment. *)
let atom_read env (a : Ast.atom) : string * Value.t option =
  let loc =
    match a.Ast.loc with
    | None -> None
    | Some i -> (
      match List.nth_opt a.Ast.args i with
      | None -> None
      | Some e -> ( try Some (Env.eval env e) with _ -> None))
  in
  (a.Ast.pred, loc)

let read_compare (p1, l1) (p2, l2) =
  let c = String.compare p1 p2 in
  if c <> 0 then c else Option.compare Value.compare l1 l2

module Amap = Map.Make (struct
  type t = string * Store.Tuple.t

  let compare = insertion_compare
end)

(* Partial application [enabled_actions p] computes the program's
   location map once, for every database it is then applied to. *)
let enabled_actions (p : Ast.program) : Store.t -> action list =
  let locs = Shard.loc_index_map p in
  fun db ->
    let acc = ref Amap.empty in
    List.iter
      (fun (r : Ast.rule) ->
        if not (Ast.has_aggregate r.Ast.head) then
          List.iter
            (fun env ->
              let t = Eval.head_tuple env r.Ast.head in
              let pred = r.Ast.head.Ast.head_pred in
              if not (Store.mem pred t db) then begin
                let reads =
                  List.map (atom_read env) (Ast.body_atoms r.Ast.body)
                in
                let prev =
                  Option.value (Amap.find_opt (pred, t) !acc) ~default:[]
                in
                acc := Amap.add (pred, t) (List.rev_append reads prev) !acc
              end)
            (Eval.body_envs db r.Ast.body))
      p.Ast.rules;
    Amap.fold
      (fun (pred, tuple) reads acts ->
        let writes_at =
          match Hashtbl.find_opt locs pred with
          | Some i when i < Array.length tuple -> Some tuple.(i)
          | _ -> None
        in
        { pred; tuple; writes_at; reads = List.sort_uniq read_compare reads }
        :: acts)
      !acc []
    |> List.rev (* ascending insertion_compare order *)

(* ------------------------------------------------------------------ *)
(* Independence.

   A negated body atom lets one insertion disable another's derivation,
   breaking the strong-commutation contract of {!Explore.make_labeled}
   in ways no local footprint test can bound (the disabling can be
   transitive through later derivations), so any negation in a
   non-aggregate rule turns independence off wholesale.  Negation-free
   insertion systems are monotone: inserting a tuple only ever adds
   satisfying environments, so distinct insertions commute to the same
   database and stay enabled — along every interleaving, which is
   exactly the contract.

   Two tests of that monotone independence:

   - [`Monotone]: distinctness alone (the full strength of the
     argument; collapses the insertion lattice to one chain);
   - [`Footprint]: additionally require the writes at distinct located
     nodes and each write disjoint from the other's read set — the
     conservative locality test.  Strictly weaker reduction (a write
     usually appears in some neighbour's reads), kept as the mode whose claims are justified by locality
     alone rather than by the global monotonicity argument. *)

type independence = [ `Footprint | `Monotone ]

let has_negation (p : Ast.program) =
  List.exists
    (fun (r : Ast.rule) ->
      (not (Ast.has_aggregate r.Ast.head))
      && List.exists (function Ast.Neg _ -> true | _ -> false) r.Ast.body)
    p.Ast.rules

let footprint_independent (a : action) (b : action) =
  let located_apart =
    match (a.writes_at, b.writes_at) with
    | Some la, Some lb -> not (Value.equal la lb)
    | _ -> false
  in
  let write_clear (w : action) (r : action) =
    List.for_all
      (fun (pred, loc) ->
        (not (String.equal pred w.pred))
        ||
        match (loc, w.writes_at) with
        | Some l, Some lw -> not (Value.equal l lw)
        | _ -> false)
      r.reads
  in
  located_apart && write_clear a b && write_clear b a

let action_independent ~(mode : independence) ~negation_free (a : action)
    (b : action) =
  negation_free
  && insertion_compare (a.pred, a.tuple) (b.pred, b.tuple) <> 0
  && match mode with `Monotone -> true | `Footprint -> footprint_independent a b

(* ------------------------------------------------------------------ *)
(* Systems. *)

(* State identity must be [Store.equal]/[Store.hash]: both ignore the
   store's mutable index cache, which the checker's structural defaults
   would see — a cache-warm database would then neither compare nor
   hash equal to the same database cache-cold, and every logical state
   would be visited once per cache configuration. *)
let system (p : Ast.program) : Store.t Explore.system =
  let initial = [ Store.of_facts p.Ast.facts ] in
  let successors db =
    List.map (fun (pred, t) -> Store.add pred t db) (enabled_insertions p db)
  in
  Explore.make ~pp:Store.pp ~equal:Store.equal ~hash:Store.hash ~initial
    ~successors ()

let labeled_system ?(independence = `Monotone) ?observed (p : Ast.program) :
    (Store.t, action) Explore.sys =
  let initial = [ Store.of_facts p.Ast.facts ] in
  let enabled = enabled_actions p in
  let actions db =
    List.map (fun a -> (a, Store.add a.pred a.tuple db)) (enabled db)
  in
  let negation_free = not (has_negation p) in
  let independent _db a b =
    action_independent ~mode:independence ~negation_free a b
  in
  let visible =
    match observed with
    | None -> fun _ _ -> true (* unknown invariant support: all visible *)
    | Some preds -> fun _ (a : action) -> List.mem a.pred preds
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

let explore ?max_states ?(por = false) ?symmetry ?independence
    (p : Ast.program) : Store.t Explore.stats =
  let sys = labeled_system ?independence p in
  let canon = Option.map Symmetry.canon_store symmetry in
  Explore.explore ?max_states ~por ?canon sys

let check_fine_invariant ?max_states ?(por = false) ?symmetry ?independence
    ?observed ?stable (p : Ast.program) (inv : Store.t -> bool) :
    (Store.t Explore.stats, Store.t Explore.violation) result =
  let sys = labeled_system ?independence ?observed p in
  let canon = Option.map Symmetry.canon_store symmetry in
  Explore.check_invariant ?max_states ~por ?canon ?stable sys inv

(* Check a safety invariant over every reachable database. *)
let check_table_invariant ?max_states (p : Ast.program)
    (inv : Store.t -> bool) =
  Explore.check_invariant ?max_states (batched_system p) inv
