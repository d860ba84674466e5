(* Model checking soft-state protocols: the combination the paper's
   Section 4 aims at — soft-state semantics (4.2) expressed as a
   transition system (4.3) "to directly produce system models for model
   checking tools".

   A state couples a database with a discrete clock and the leases of
   its soft tuples.  Transitions are:

   - derivation: insert one enabled rule consequence (leased at
     [clock + lifetime] when its predicate is soft);
   - tick: advance the clock by one, drop expired tuples, apply the
     environment's injections for the new instant (refreshes, new
     pings, ...).

   The clock is bounded by [horizon], so the state space is finite
   whenever the value domain is.  Leases make expiry part of the state:
   safety properties can now speak about time ("after refreshes stop,
   liveness tuples eventually vanish in every execution"). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store

type lease = (string * Store.Tuple.t) * int  (* tuple, expiry instant *)

type state = {
  clock : int;
  db : Store.t;
  leases : lease list;  (* sorted, canonical *)
}

(* Leases are ordered by the engine's value comparison — polymorphic
   [compare] would be an independent structural notion of tuple order
   (the Kmap/enabled_insertions bug class). *)
let lease_compare (((p, t), d) : lease) (((p', t'), d') : lease) =
  let c = String.compare p p' in
  if c <> 0 then c
  else
    let c = Store.Tuple.compare t t' in
    if c <> 0 then c else Int.compare d d'

let lease_equal (((p, t), d) : lease) (((p', t'), d') : lease) =
  d = d' && String.equal p p' && Store.Tuple.equal t t'

let canonical_leases (l : lease list) : lease list = List.sort lease_compare l

let initial_state = { clock = 0; db = Store.empty; leases = [] }

type config = {
  program : Ast.program;
  horizon : int;
  (* External insertions that happen at a given instant. *)
  inject : int -> (string * Store.Tuple.t) list;
  lifetimes : (string * int) list;  (* soft predicates *)
}

let make_config ?(horizon = 10) ?(inject = fun _ -> []) (program : Ast.program)
    : config =
  let lifetimes =
    List.filter_map
      (fun (d : Ast.decl) ->
        match d.Ast.decl_lifetime with
        | Ast.Lifetime l ->
          Some (d.Ast.decl_pred, Ndlog.Softstate.guard_lifetime l)
        | Ast.Lifetime_forever -> None)
      program.Ast.decls
  in
  { program; horizon; inject; lifetimes }

let lifetime_of cfg pred = List.assoc_opt pred cfg.lifetimes

(* Insert with lease bookkeeping; re-insertion refreshes. *)
let insert cfg (s : state) pred tuple : state =
  let db = Store.add pred tuple s.db in
  match lifetime_of cfg pred with
  | None -> { s with db }
  | Some life ->
    let key_equal (p, t) = String.equal p pred && Store.Tuple.equal t tuple in
    let leases =
      ((pred, tuple), s.clock + life)
      :: List.filter (fun (k, _) -> not (key_equal k)) s.leases
    in
    { s with db; leases = canonical_leases leases }

(* The tick transition. *)
let tick cfg (s : state) : state =
  let clock = s.clock + 1 in
  let dead, alive = List.partition (fun (_, d) -> d <= clock) s.leases in
  let db =
    List.fold_left (fun db ((p, t), _) -> Store.remove p t db) s.db dead
  in
  let s' = { clock; db; leases = canonical_leases alive } in
  List.fold_left (fun s (p, t) -> insert cfg s p t) s' (cfg.inject clock)

(* State identity goes through [Store.equal]/[Store.hash] for the
   database component (the index cache is not part of the state) and
   the canonical lease list; structural defaults would distinguish
   cache-warm from cache-cold databases. *)
let state_equal a b =
  a.clock = b.clock
  && Store.equal a.db b.db
  && List.equal lease_equal a.leases b.leases

let state_compare a b =
  let c = Int.compare a.clock b.clock in
  if c <> 0 then c
  else
    let c = Store.compare a.db b.db in
    if c <> 0 then c else List.compare lease_compare a.leases b.leases

let state_hash s =
  List.fold_left
    (fun acc ((p, t), d) ->
      (((acc * 31) + Hashtbl.hash (p, d)) * 31) + Store.Tuple.hash t)
    ((s.clock * 31) + Store.hash s.db)
    s.leases

let pp_state ppf s = Fmt.pf ppf "clock=%d@.%a" s.clock Store.pp s.db

(* The program's facts load at clock 0 (soft ones take a lease), then
   the environment's injections for instant 0. *)
let initial_of cfg =
  let load s (f : Ast.fact) =
    insert cfg s f.Ast.fact_pred (Array.of_list f.Ast.fact_args)
  in
  let s = List.fold_left load initial_state cfg.program.Ast.facts in
  [ List.fold_left (fun s (p, t) -> insert cfg s p t) s (cfg.inject 0) ]

(* ------------------------------------------------------------------ *)
(* Labeled actions.

   A tick commutes with nothing: it shifts the lease a subsequent
   insertion would take (clock + lifetime differs across the tick) and
   can disable derivations outright by expiring their premises.  So
   derivations are independent only of each other — by the same
   monotonicity argument as {!Ndlog_ts.independent}, valid within one
   clock instant — and POR reduces the derivation interleavings between
   ticks, most visibly at the horizon (where no tick competes).
   Symmetry is the effective reduction for soft systems. *)

type action =
  | Derive of Ndlog_ts.action
  | Tick

let labeled_system ?observed (cfg : config) : (state, action) Explore.sys =
  let actions (s : state) =
    let derivations =
      Ndlog_ts.enabled_insertions cfg.program s.db
      |> List.map (fun ((pred, tuple) as a) ->
             (Derive a, insert cfg s pred tuple))
    in
    let ticks =
      if s.clock >= cfg.horizon then [] else [ (Tick, tick cfg s) ]
    in
    derivations @ ticks
  in
  let indep = Ndlog_ts.independent cfg.program in
  let independent _s a b =
    match (a, b) with Derive x, Derive y -> indep x y | _ -> false
  in
  let visible =
    match observed with
    | None -> fun _ _ -> true
    | Some preds -> (
      fun _ -> function
        | Tick -> true (* the clock is always observable *)
        | Derive (pred, _) -> List.mem pred preds)
  in
  Explore.make_labeled ~pp:pp_state ~equal:state_equal ~hash:state_hash
    ~independent ~visible ~initial:(initial_of cfg) ~actions ()

(* ------------------------------------------------------------------ *)
(* Symmetry: node permutations act on the database and the leases
   jointly (a lease names its tuple, so it permutes with the tuple's
   node; the clock is fixed). *)

let apply_gen (g : Symmetry.gen) (s : state) : state =
  {
    clock = s.clock;
    db = Symmetry.map_store g s.db;
    leases =
      canonical_leases
        (List.map
           (fun ((pred, t), d) -> ((pred, Symmetry.map_tuple g t), d))
           s.leases);
  }

let apply_perm p = apply_gen (Symmetry.compile p)

(* A lease is a fact too: its tag carries the expiry, and its tuple's
   nodes are coloured like the database's. *)
let state_facts (s : state) sink =
  Symmetry.store_facts s.db sink;
  List.iter (fun ((pred, t), d) -> sink (Hashtbl.hash (pred, d)) t) s.leases

let canon_state (sym : Symmetry.t) (s : state) : state =
  Symmetry.canonicalize sym ~facts:state_facts ~apply:apply_gen
    ~compare:state_compare s

(* ------------------------------------------------------------------ *)
(* Entry points. *)

let explore ?max_states ?(por = false) ?symmetry (cfg : config) :
    state Explore.stats =
  let canon = Option.map canon_state symmetry in
  Explore.explore ?max_states ~por ?canon (labeled_system cfg)

(* Check a clock-indexed safety property over all reachable states. *)
let check ?(max_states = 100_000) ?(por = false) ?symmetry ?observed ?stable
    (cfg : config) (inv : state -> bool) =
  let canon = Option.map canon_state symmetry in
  Explore.check_invariant ~max_states ~por ?canon ?stable
    (labeled_system ?observed cfg) inv
