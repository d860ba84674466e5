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
   liveness tuples eventually vanish in every execution").

   Each state also carries its enabled derivations, forced when it is
   expanded, and its hash.  A derivation's successor takes its set from
   the delta step ({!Ndlog_ts.step_enabled}); a tick, which can expire
   premises, enumerates the set in full. *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module NT = Ndlog_ts

type lease = (string * Store.Tuple.t) * int  (* tuple, expiry instant *)

type state = {
  clock : int;
  db : Store.t;
  leases : lease list;  (* sorted, canonical *)
  enabled : NT.action list Lazy.t;
  hash : int;
}

(* Leases are ordered by the engine's value comparison — polymorphic
   [compare] would be an independent structural notion of tuple order
   (the Kmap/enabled_insertions bug class). *)
let lease_compare (((p, t), d) : lease) (((p', t'), d') : lease) =
  let c = NT.insertion_compare (p, t) (p', t') in
  if c <> 0 then c else Int.compare d d'

let lease_equal (((p, t), d) : lease) (((p', t'), d') : lease) =
  d = d' && String.equal p p' && Store.Tuple.equal t t'

(* The state hash is a sum — over the clock, the database's facts and
   the leases — kept current by every transition, so equal states agree
   on it whatever the order their tuples and leases arrived in. *)
let clock_hash c = Store.fact_hash "clock" [| Ndlog.Value.Int c |]

(* An odd factor is a bijection on [int]: leases of one tuple with
   different expiries never hash alike. *)
let lease_hash (((p, t), d) : lease) = Store.fact_hash p t * ((2 * d) + 1)

let hash_of clock db leases =
  List.fold_left
    (fun h l -> h + lease_hash l)
    (clock_hash clock + Store.hash db)
    leases

let initial_state =
  {
    clock = 0;
    db = Store.empty;
    leases = [];
    enabled = lazy [];
    hash = hash_of 0 Store.empty [];
  }

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

(* [l] into the sorted [leases] in one ordered pass, replacing the
   lease of the same tuple; also returns the lease it replaced.  A
   tuple has one lease, so the tuple order alone places it. *)
let rec renew (((k, _) as l) : lease) (leases : lease list) =
  match leases with
  | [] -> ([ l ], None)
  | ((k', _) as l') :: rest ->
    let c = NT.insertion_compare k k' in
    if c < 0 then (l :: leases, None)
    else if c = 0 then (l :: rest, Some l')
    else
      let rest, old = renew l rest in
      (l' :: rest, old)

(* Insert with lease bookkeeping (re-insertion refreshes); the enabled
   set is left to the caller. *)
let put cfg (s : state) pred tuple : state =
  let hash =
    if Store.mem pred tuple s.db then s.hash
    else s.hash + Store.fact_hash pred tuple
  in
  let db = Store.add pred tuple s.db in
  match lifetime_of cfg pred with
  | None -> { s with db; hash }
  | Some life ->
    let l = ((pred, tuple), s.clock + life) in
    let leases, old = renew l s.leases in
    let hash =
      hash + lease_hash l - Option.fold ~none:0 ~some:lease_hash old
    in
    { s with db; leases; hash }

(* A state whose enabled set is enumerated in full, when forced. *)
let enumerate cfg (s : state) =
  { s with enabled = lazy (NT.enabled_insertions cfg.program s.db) }

let insert cfg s pred tuple = enumerate cfg (put cfg s pred tuple)

let make_state cfg ~clock db leases =
  let leases = List.sort lease_compare leases in
  enumerate cfg
    { clock; db; leases; enabled = lazy []; hash = hash_of clock db leases }

(* The tick transition.  [List.partition] keeps the survivors in
   lease order. *)
let tick cfg (s : state) : state =
  let clock = s.clock + 1 in
  let dead, leases = List.partition (fun (_, d) -> d <= clock) s.leases in
  let expire (db, hash) (((p, t), _) as l) =
    (Store.remove p t db, hash - Store.fact_hash p t - lease_hash l)
  in
  let db, hash =
    List.fold_left expire
      (s.db, s.hash - clock_hash s.clock + clock_hash clock)
      dead
  in
  let s' = { s with clock; db; leases; hash } in
  enumerate cfg
    (List.fold_left (fun s (p, t) -> put cfg s p t) s' (cfg.inject clock))

(* State identity goes through [Store.equal] for the database component
   and the canonical lease list; structural defaults would distinguish
   databases by their tree shape.  The enabled set is derived from the
   rest. *)
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

let state_hash s = s.hash

let pp_state ppf s = Fmt.pf ppf "clock=%d@.%a" s.clock Store.pp s.db

(* The program's facts load at clock 0 (soft ones take a lease), then
   the environment's injections for instant 0. *)
let initial_of cfg =
  let load s (f : Ast.fact) =
    put cfg s f.Ast.fact_pred (Array.of_list f.Ast.fact_args)
  in
  let s = List.fold_left load initial_state cfg.program.Ast.facts in
  let s = List.fold_left (fun s (p, t) -> put cfg s p t) s (cfg.inject 0) in
  [ enumerate cfg s ]

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

(* A derivation inserts one enabled tuple: the delta step gives the
   successor's enabled set.  A tick expires tuples and applies
   injections, and its successor enumerates the set in full. *)
let labeled_system ?observed (cfg : config) : (state, action) Explore.sys =
  let d = lazy (NT.compile cfg.program) in
  let derive d (s : state) parent (((pred, tuple) as a) : NT.action) =
    let s' = put cfg s pred tuple in
    {
      s' with
      enabled = NT.step_enabled d ~parent ~inserted:[ a ] s'.db;
    }
  in
  let actions (s : state) =
    let derive = derive (Lazy.force d) in
    let parent = Lazy.force s.enabled in
    let derivations =
      List.map (fun a -> (Derive a, derive s parent a)) parent
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
(* Symmetry: node permutations act on the database, the leases and the
   enabled set jointly (a lease names its tuple, so it permutes with the
   tuple's node; the clock is fixed).  The permuted enabled set is the
   permuted state's own when the permutation is an automorphism of the
   program — the premise of symmetry reduction; orbit representatives
   are table keys, never expanded. *)

(* The permuted state, its hash left to {!rehash}: canonicalization
   compares many images and keeps one. *)
let permute (g : Symmetry.gen) (s : state) : state =
  let map_key (pred, t) = (pred, Symmetry.map_tuple g t) in
  let leases =
    List.sort lease_compare (List.map (fun (k, d) -> (map_key k, d)) s.leases)
  in
  let enabled =
    let e = s.enabled in
    lazy (List.sort NT.insertion_compare (List.map map_key (Lazy.force e)))
  in
  { s with db = Symmetry.map_store g s.db; leases; enabled; hash = 0 }

let rehash s = { s with hash = hash_of s.clock s.db s.leases }
let apply_gen g s = rehash (permute g s)

let apply_perm p = apply_gen (Symmetry.compile p)

(* A lease is a fact too: its tag carries the expiry, and its tuple's
   nodes are coloured like the database's. *)
let state_facts (s : state) sink =
  Symmetry.store_facts s.db sink;
  List.iter (fun ((pred, t), d) -> sink (Hashtbl.hash (pred, d)) t) s.leases

let canon_state (sym : Symmetry.t) (s : state) : state =
  let r =
    Symmetry.canonicalize sym ~facts:state_facts ~apply:permute
      ~compare:state_compare s
  in
  if r == s then s else rehash r

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
