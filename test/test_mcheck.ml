(* The model checker's reduction layer (partial-order + symmetry)
   behind a differential exploration harness: reduced searches must
   agree with the plain checker on invariant verdicts and terminal
   fixpoints while visiting fewer (or equal) states, and every
   counterexample they produce must replay as a real execution
   (Explore.validate_trace).

   Directed tests pin the unreduced baseline (A2's 175 states), the
   canonicalized hash's bucket distribution, the Soft_ts
   lease-permutation identity, and the Value-aware insertion order
   (the Kmap bug class). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module V = Ndlog.Value
module Programs = Ndlog.Programs
module Explore = Mcheck.Explore
module NT = Mcheck.Ndlog_ts
module ST = Mcheck.Soft_ts
module Sym = Mcheck.Symmetry
module Topology = Netsim.Topology

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok_or_fail label = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* ------------------------------------------------------------------ *)
(* Explore core: POR on a synthetic commuting system, trace replay. *)

(* Two independent bounded counters: every interleaving of the [`A]
   and [`B] increments commutes, so POR must collapse the (bound+1)^2
   grid to a single staircase while preserving the unique terminal. *)
let counters_system bound =
  let actions (x, y) =
    (if x < bound then [ (`A, (x + 1, y)) ] else [])
    @ if y < bound then [ (`B, (x, y + 1)) ] else []
  in
  Explore.make_labeled
    ~independent:(fun _ a b -> a <> b)
    ~initial:[ (0, 0) ]
    ~actions ()

let test_por_counters () =
  let sys = counters_system 3 in
  let plain = Explore.explore sys in
  let por = Explore.explore ~por:true sys in
  checki "plain grid" 16 plain.Explore.states;
  checki "por staircase" 7 por.Explore.states;
  checkb "same terminal" true
    (plain.Explore.terminal = [ (3, 3) ] && por.Explore.terminal = [ (3, 3) ])

let test_por_needs_labels () =
  (* An unlabeled system silently falls back to full expansion. *)
  let sys =
    Explore.make ~initial:[ 0 ]
      ~successors:(fun n -> if n < 5 then [ n + 1 ] else [])
      ()
  in
  let plain = Explore.explore sys in
  let por = Explore.explore ~por:true sys in
  checki "same states" plain.Explore.states por.Explore.states

let test_validate_trace () =
  let sys = counters_system 2 in
  ok_or_fail "valid trace" (Explore.validate_trace sys [ (0, 0); (1, 0); (1, 1) ]);
  checkb "wrong start rejected" true
    (Result.is_error (Explore.validate_trace sys [ (1, 0); (1, 1) ]));
  checkb "bad step rejected" true
    (Result.is_error (Explore.validate_trace sys [ (0, 0); (1, 1) ]));
  checkb "empty rejected" true (Result.is_error (Explore.validate_trace sys []))

let test_validate_lasso () =
  (* A mod-3 counter: the cycle 0 -> 1 -> 2 -> 0 is a real lasso. *)
  let sys =
    Explore.make ~initial:[ 0 ] ~successors:(fun n -> [ (n + 1) mod 3 ]) ()
  in
  (match Explore.find_lasso sys with
  | None -> Alcotest.fail "expected a lasso"
  | Some l -> ok_or_fail "found lasso replays" (Explore.validate_lasso sys l));
  checkb "broken cycle rejected" true
    (Result.is_error
       (Explore.validate_lasso sys { Explore.stem = []; cycle = [ 0; 2 ] }));
  ok_or_fail "stem + cycle"
    (Explore.validate_lasso sys { Explore.stem = [ 0 ]; cycle = [ 1; 2; 0 ] });
  checkb "bad stem rejected" true
    (Result.is_error
       (Explore.validate_lasso sys { Explore.stem = [ 2 ]; cycle = [ 0; 1; 2 ] }))

(* ------------------------------------------------------------------ *)
(* Topology automorphisms. *)

let test_automorphism_generators () =
  let ring = Topology.ring 6 in
  let gens = Topology.automorphism_generators ring in
  checkb "ring has generators" true (List.length gens >= 2);
  List.iter
    (fun g -> checkb "ring generator validates" true (Topology.is_automorphism ring g))
    gens;
  (* the rotation by one must be among them *)
  checkb "rotation present" true
    (List.exists
       (fun g -> List.assoc_opt "n0" g = Some "n1" && List.assoc_opt "n5" g = Some "n0")
       gens);
  let star = Topology.star 5 in
  let sgens = Topology.automorphism_generators star in
  (* adjacent leaf transpositions generate the symmetric group on leaves *)
  checkb "star twin swaps" true (List.length sgens >= 3);
  List.iter
    (fun g ->
      checkb "star generator validates" true (Topology.is_automorphism star g);
      checkb "center fixed" true (List.assoc_opt "n0" g = Some "n0" || List.assoc_opt "n0" g = None))
    sgens;
  let grid = Topology.grid 3 in
  let ggens = Topology.automorphism_generators grid in
  checkb "grid transpose/flip" true (List.length ggens >= 2);
  List.iter
    (fun g -> checkb "grid generator validates" true (Topology.is_automorphism grid g))
    ggens;
  (* distinct per-link costs break every symmetry *)
  let asym = Topology.ring ~cost:(fun i -> i + 1) 5 in
  checki "asymmetric ring" 0 (List.length (Topology.automorphism_generators asym));
  (* a failed link breaks the symmetry that would map it onto a live one *)
  let broken = Topology.ring 6 in
  Topology.fail_duplex broken "n0" "n1";
  checkb "failure filters rotation" true
    (not
       (List.exists
          (fun g -> List.assoc_opt "n0" g = Some "n1")
          (Topology.automorphism_generators broken)))

let test_is_automorphism_rejects () =
  let ring = Topology.ring 5 in
  checkb "non-bijection rejected" false
    (Topology.is_automorphism ring [ ("n0", "n1"); ("n1", "n1") ]);
  (* on a 5-ring the transposition n0 <-> n2 maps the edge n2-n3 to the
     non-edge n0-n3 (on a 4-ring it would be the n1-n3 reflection!) *)
  checkb "structure-breaking map rejected" false
    (Topology.is_automorphism ring [ ("n0", "n2"); ("n2", "n0") ]);
  checkb "identity accepted" true (Topology.is_automorphism ring [])

(* ------------------------------------------------------------------ *)
(* Symmetry canonicalization. *)

let rotate_store k db =
  (* the ring rotation i -> i+1 as a raw permutation *)
  let p = List.init k (fun i -> (Programs.node i, Programs.node ((i + 1) mod k))) in
  Sym.apply_store p db

let reach_db n =
  Store.of_facts (Programs.ring_links n)
  |> Store.add "reachable" [| V.Addr "n0"; V.Addr "n1" |]

let test_canon_store_identifies_orbit () =
  let sym = Sym.of_topology (Topology.ring 5) in
  checkb "nontrivial group" false (Sym.trivial sym);
  let db = reach_db 5 in
  let db' = rotate_store 5 db in
  checkb "rotation changes the raw store" false (Store.equal db db');
  checkb "same canonical form" true
    (Store.equal (Sym.canon_store sym db) (Sym.canon_store sym db'));
  checkb "store_equal agrees" true (Sym.store_equal sym db db');
  checki "store_hash agrees" (Sym.store_hash sym db) (Sym.store_hash sym db');
  (* canonicalization stays inside the orbit: permutation-invariant
     observables are untouched *)
  let c = Sym.canon_store sym db in
  checki "tuple count preserved" (Store.total_tuples db) (Store.total_tuples c);
  checkb "predicates preserved" true (Store.preds db = Store.preds c)

let test_canon_distinguishes_orbits () =
  (* reachable(n0,n1) and reachable(n0,n2) lie in different orbits of a
     5-ring (adjacent vs two-apart) and must not be merged. *)
  let sym = Sym.of_topology (Topology.ring 5) in
  let base = Store.of_facts (Programs.ring_links 5) in
  let a = Store.add "reachable" [| V.Addr "n0"; V.Addr "n1" |] base in
  let b = Store.add "reachable" [| V.Addr "n0"; V.Addr "n2" |] base in
  checkb "different orbits stay apart" false (Sym.store_equal sym a b)

let test_non_bijection_rejected () =
  (* Unlisted names are fixed, so this map sends both n0 and n1 to n0:
     accepted, it would equate {r(n0), r(n1)} with {r(n0)}. *)
  let bad = [ ("n1", "n0") ] in
  (match Sym.of_generators [ bad ] with
  | _ -> Alcotest.fail "a non-bijective generator was accepted"
  | exception Sym.Not_a_bijection p -> checkb "names the map" true (p = bad));
  (* a swap is a bijection, and [cap] bounds the group order *)
  let swap = [ ("n1", "n0"); ("n0", "n1") ] in
  checki "swap accepted" 2 (Sym.order (Sym.of_generators [ swap ]));
  checki "star4 order" 6 (Sym.order (Sym.of_topology (Topology.star 4)));
  match Sym.of_topology ~cap:5 (Topology.star 4) with
  | _ -> Alcotest.fail "a group larger than its cap was accepted"
  | exception Sym.Group_too_large cap -> checki "names the cap" 5 cap

let test_canon_table_buckets () =
  (* All rotations of a state share one table entry under ~canon, and
     the canonical hash must keep spreading distinct orbits across
     buckets instead of collapsing them into a few chains. *)
  let k = 6 in
  let sym = Sym.of_topology (Topology.ring k) in
  let tbl =
    Explore.Table.create ~equal:Store.equal ~hash:Store.hash
      ~canon:(Sym.canon_store sym) ()
  in
  let base = Store.of_facts (Programs.ring_links k) in
  let orbits = ref 0 in
  (* distinct orbits: reachable sets of increasing size *)
  for d = 1 to k - 1 do
    for len = 1 to 40 do
      let db =
        List.fold_left
          (fun db i ->
            Store.add "reachable"
              [| V.Addr (Programs.node (i mod k));
                 V.Addr (Programs.node ((i + d) mod k));
                 V.Int (len + (100 * d) + i) |]
              db)
          base
          (List.init len Fun.id)
      in
      incr orbits;
      (* enter every rotation of the state; they must all collapse *)
      let db' = rotate_store k db in
      let db'' = rotate_store k db' in
      Explore.Table.add tbl db !orbits;
      if not (Explore.Table.mem tbl db') then
        Alcotest.fail "rotation not identified";
      Explore.Table.add tbl db'' 0 |> ignore
    done
  done;
  checki "one entry per orbit (size counts duplicates)" (2 * !orbits)
    (Explore.Table.size tbl);
  checkb "orbits spread over buckets" true
    (Explore.Table.buckets tbl >= !orbits / 2);
  checkb "no degenerate chain" true (Explore.Table.max_bucket tbl <= 8)

let test_soft_lease_permutation_identity () =
  (* Permuting a soft state's nodes permutes its database and leases
     jointly: the two states canonicalize identically. *)
  let prog =
    Programs.parse_exn
      {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|}
  in
  let cfg = ST.make_config ~horizon:6 prog in
  let ping leaf = [| V.Addr (Programs.node 0); V.Addr (Programs.node leaf) |] in
  let s1 =
    ST.insert cfg (ST.tick cfg (ST.insert cfg ST.initial_state "ping" (ping 1)))
      "ping" (ping 2)
  in
  let s2 =
    ST.insert cfg (ST.tick cfg (ST.insert cfg ST.initial_state "ping" (ping 3)))
      "ping" (ping 1)
  in
  checkb "raw states differ" false (ST.state_equal s1 s2);
  let sym = Sym.of_topology (Topology.star 4) in
  let c1 = ST.canon_state sym s1 and c2 = ST.canon_state sym s2 in
  checkb "lease states identified up to leaf permutation" true
    (ST.state_equal c1 c2);
  checki "clock preserved" s1.ST.clock c1.ST.clock;
  checki "lease count preserved" (List.length s1.ST.leases)
    (List.length c1.ST.leases);
  (* directly: applying a twin swap is state-identical after canon *)
  let swap = [ (Programs.node 1, Programs.node 2); (Programs.node 2, Programs.node 1) ] in
  checkb "explicit swap identified" true
    (ST.state_equal (ST.canon_state sym (ST.apply_perm swap s1)) c1)

(* ------------------------------------------------------------------ *)
(* Symmetry cost: one canonicalization per state, bulk permutation. *)

let test_canon_once_per_state () =
  (* Bounded DV on ring 8 under POR + symmetry: a state's canonical key
     serves the POR newness check, the lookup and the insert, so the
     search canonicalizes at most once per expanded transition plus
     once per initial state (canonicalizing at each of those three
     uses costs 121 calls for these 41 states). *)
  let p =
    Programs.with_links
      (Programs.bounded_distance_vector ~max_hops:2)
      (Programs.ring_links 8)
  in
  let sym = Sym.of_topology (Topology.ring 8) in
  let calls = ref 0 in
  let canon (s : NT.state) =
    incr calls;
    NT.state_of_store p (Sym.canon_store sym s.NT.db)
  in
  let sys = NT.labeled_system p in
  let bound (s : NT.state) =
    Store.fold_rel "cost"
      (fun t ok -> ok && (match t.(2) with V.Int c -> c <= 2 | _ -> true))
      s.NT.db true
  in
  match Explore.check_invariant ~por:true ~stable:true ~canon sys bound with
  | Error _ -> Alcotest.fail "bounded DV must respect its hop bound"
  | Ok stats ->
    checki "states" 41 stats.Explore.states;
    let budget = stats.Explore.transitions + List.length sys.Explore.initial in
    if !calls > budget then
      Alcotest.failf "%d canonicalizations for %d transitions + initial states"
        !calls budget

let test_permutation_budget () =
  (* Colour refinement leaves few group elements to try: count the
     permutations canonicalization applies.  Closing each state's orbit
     under the generators took 544 of them on bdv-h2/ring8 and 3,970 on
     heartbeat/star6; the bounds are this implementation's exact counts
     (42 for 41 canonicalizations, 502 for 140). *)
  let applies = ref 0 and canons = ref 0 in
  let counted apply g x =
    incr applies;
    apply g x
  in
  let bdv =
    Programs.with_links
      (Programs.bounded_distance_vector ~max_hops:2)
      (Programs.ring_links 8)
  in
  let ring8 = Sym.of_topology (Topology.ring 8) in
  let canon (s : NT.state) =
    incr canons;
    NT.state_of_store bdv
      (Sym.canonicalize ring8 ~facts:Sym.store_facts
         ~apply:(counted Sym.map_store) ~compare:Store.compare s.NT.db)
  in
  let bound (s : NT.state) =
    Store.fold_rel "cost"
      (fun t ok -> ok && (match t.(2) with V.Int c -> c <= 2 | _ -> true))
      s.NT.db true
  in
  (match
     Explore.check_invariant ~por:true ~stable:true ~canon
       (NT.labeled_system bdv) bound
   with
  | Error _ -> Alcotest.fail "bounded DV must respect its hop bound"
  | Ok stats -> checki "bdv-h2/ring8 states" 41 stats.Explore.states);
  if !applies > 42 then
    Alcotest.failf "bdv-h2/ring8: %d permutations for %d canonicalizations"
      !applies !canons;
  applies := 0;
  canons := 0;
  let cfg =
    let pings =
      List.init 5 (fun i ->
          ( "ping",
            [| V.Addr (Programs.node 0); V.Addr (Programs.node (i + 1)) |] ))
    in
    ST.make_config ~horizon:4
      ~inject:(fun t -> if t <= 1 then pings else [])
      (Programs.parse_exn
         {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|})
  in
  let star6 = Sym.of_topology (Topology.star 6) in
  let canon s =
    incr canons;
    Sym.canonicalize star6 ~facts:ST.state_facts
      ~apply:(counted ST.apply_gen) ~compare:ST.state_compare s
  in
  let alive_gone (s : ST.state) =
    s.ST.clock < 4 || Store.is_empty (Store.restrict [ "alive" ] s.ST.db)
  in
  (match
     Explore.check_invariant ~canon
       (ST.labeled_system ~observed:[ "alive" ] cfg)
       alive_gone
   with
  | Error _ -> Alcotest.fail "alive tuples must expire"
  | Ok stats -> checki "heartbeat/star6 states" 55 stats.Explore.states);
  if !applies > 502 then
    Alcotest.failf "heartbeat/star6: %d permutations for %d canonicalizations"
      !applies !canons

(* Random stores over the node names of symmetric topologies: addresses,
   integers and nested lists (path vectors), in relations of mixed
   arity.  Every group here is small enough (at most 24 elements) for
   the tests to enumerate each orbit exhaustively. *)
let sym_topologies =
  [| Topology.ring 5; Topology.ring 6; Topology.star 4; Topology.star 5;
     Topology.grid 2; Topology.grid 3 |]

let gen_value names =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          ( 3,
            map (fun i -> V.Addr names.(i)) (int_bound (Array.length names - 1))
          );
          (1, map (fun n -> V.Int n) (int_bound 9));
        ]
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (4, leaf);
              ( 1,
                map (fun vs -> V.List vs)
                  (list_size (int_bound 3) (self (depth - 1))) );
            ])
      2)

let arb_sym_case =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length sym_topologies - 1) >>= fun ti ->
      let names = Array.of_list (Topology.nodes sym_topologies.(ti)) in
      let tuple =
        map Array.of_list (list_size (int_range 1 4) (gen_value names))
      in
      let fact = pair (oneofl [ "link"; "path"; "reach" ]) tuple in
      triple (list_size (int_bound 25) fact) (int_bound 4) (int_bound 3)
      >|= fun (facts, clock, life) -> (ti, facts, clock, life))
  in
  QCheck.make gen ~print:(fun (ti, facts, clock, life) ->
      Fmt.str "topology %d, clock %d, lifetime %d:@.%a" ti clock life
        Fmt.(list ~sep:cut (pair ~sep:sp string Store.Tuple.pp))
        facts)

(* Every element of the group, closed from its generators here and not
   by {!Sym}: each is a total map over [names]. *)
let group_elements sym names =
  let total f = List.map (fun n -> (n, f n)) names in
  let id = total Fun.id in
  let seen = Hashtbl.create 64 and q = Queue.create () in
  Hashtbl.replace seen id ();
  Queue.push id q;
  while not (Queue.is_empty q) do
    let e = Queue.pop q in
    List.iter
      (fun g ->
        let e' = total (fun n -> Sym.apply_name g (Sym.apply_name e n)) in
        if not (Hashtbl.mem seen e') then begin
          Hashtbl.replace seen e' ();
          Queue.push e' q
        end)
      (Sym.generators sym)
  done;
  List.of_seq (Hashtbl.to_seq_keys seen)

let store_of facts =
  List.fold_left (fun db (p, t) -> Store.add p t db) Store.empty facts

(* every other fact leased, expiring [life] after [clock] *)
let soft_of db clock life =
  ST.make_state
    (ST.make_config Ast.empty_program)
    ~clock db
    (List.filteri (fun i _ -> i mod 2 = 0) (Store.to_list db)
    |> List.map (fun k -> (k, clock + life)))

(* The per-tuple reference: rename through the association list. *)
let rec ref_value g = function
  | V.Addr a -> V.Addr (Sym.apply_name g a)
  | V.List vs -> V.List (List.map (ref_value g) vs)
  | v -> v

let ref_tuple g t = Array.map (ref_value g) t

let prop_bulk_permutation =
  QCheck.Test.make
    ~name:"bulk permutation = per-tuple reference; canon orbit-invariant"
    ~count:200 arb_sym_case
    (fun (ti, facts, clock, life) ->
      let topo = sym_topologies.(ti) in
      let sym = Sym.of_topology topo in
      let db = store_of facts in
      let soft = soft_of db clock life in
      let canon = Sym.canon_store sym db
      and soft_canon = ST.canon_state sym soft in
      List.iter
        (fun g ->
          let reference =
            List.fold_left
              (fun acc (p, t) -> Store.add p (ref_tuple g t) acc)
              Store.empty (Store.to_list db)
          in
          let moved = Sym.apply_store g db in
          if not (Store.equal moved reference) then
            QCheck.Test.fail_report "apply_store differs from the reference";
          List.iter
            (fun (_, t) ->
              if not (Store.Tuple.equal (Sym.apply_tuple g t) (ref_tuple g t))
              then QCheck.Test.fail_report "apply_tuple differs from reference")
            facts;
          if not (Store.equal (Sym.canon_store sym moved) canon) then
            QCheck.Test.fail_report "canon_store is not orbit-invariant";
          let moved_soft = ST.apply_perm g soft in
          if not (ST.state_equal (ST.canon_state sym moved_soft) soft_canon)
          then QCheck.Test.fail_report "canon_state is not orbit-invariant")
        (group_elements sym (Topology.nodes topo));
      true)

(* The exhaustive orbit oracle: [canon x] lies in the orbit of [x], is
   shared by every member of it, and differs for every state outside
   it.  The states outside are a random one and a near miss — an orbit
   member with the addresses of one fact renamed.  Half the cases are
   permutation graphs, whose nodes colour refinement cannot tell apart:
   there the representative rests on the tie-breaking orbit search. *)
let arb_orbit_case =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length sym_topologies - 1) >>= fun ti ->
      let names = Array.of_list (Topology.nodes sym_topologies.(ti)) in
      let fact =
        pair
          (oneofl [ "link"; "path"; "reach" ])
          (map Array.of_list (list_size (int_range 1 4) (gen_value names)))
      in
      (* a permutation's graph: every node has one successor and one
         predecessor, so refinement leaves all of them one colour *)
      let regular =
        shuffle_l (Array.to_list names) >|= fun images ->
        List.map2
          (fun a b -> ("succ", [| V.Addr a; V.Addr b |]))
          (Array.to_list names) images
      in
      bool >>= fun reg ->
      let facts = if reg then regular else list_size (int_bound 12) fact in
      quad facts facts (pair (int_bound 4) (int_bound 3)) int
      >|= fun (x, other, (clock, life), seed) ->
      (ti, x, other, clock, life, seed))
  in
  QCheck.make gen ~print:(fun (ti, x, other, clock, life, seed) ->
      let pp = Fmt.(list ~sep:cut (pair ~sep:sp string Store.Tuple.pp)) in
      Fmt.str "topology %d, clock %d, lifetime %d, seed %d:@.%a@.other:@.%a"
        ti clock life seed pp x pp other)

let check_exact ~canon ~apply ~equal elements x others =
  let orbit = List.map (fun g -> apply g x) elements in
  let in_orbit y = List.exists (equal y) orbit in
  let c = canon x in
  if not (in_orbit c) then
    QCheck.Test.fail_report "canon x lies outside the orbit of x";
  List.iter
    (fun y ->
      if not (equal (canon y) c) then
        QCheck.Test.fail_report "canon differs within one orbit")
    orbit;
  List.iter
    (fun z ->
      if in_orbit z <> equal (canon z) c then
        QCheck.Test.fail_report
          "canon z = canon x disagrees with orbit membership")
    others

let prop_canon_exact =
  QCheck.Test.make ~name:"canon = exhaustive orbit oracle" ~count:200
    arb_orbit_case (fun (ti, x, other, clock, life, seed) ->
      let topo = sym_topologies.(ti) in
      let names = Array.of_list (Topology.nodes topo) in
      let sym = Sym.of_topology topo in
      let elements = group_elements sym (Array.to_list names) in
      if List.length elements <> Sym.order sym then
        QCheck.Test.fail_reportf "group order %d, closure %d" (Sym.order sym)
          (List.length elements);
      let st = Random.State.make [| seed |] in
      let near =
        let i = Random.State.int st (max 1 (List.length x)) in
        List.mapi
          (fun j (p, t) ->
            if j <> i then (p, t)
            else
              ( p,
                Array.map
                  (function
                    | V.Addr _ ->
                      V.Addr names.(Random.State.int st (Array.length names))
                    | v -> v)
                  t ))
          x
        |> store_of
        |> Sym.apply_store
             (List.nth elements
                (Random.State.int st (List.length elements)))
      in
      let db = store_of x and other = store_of other in
      check_exact ~canon:(Sym.canon_store sym) ~apply:Sym.apply_store
        ~equal:Store.equal elements db [ near; other ];
      let soft db = soft_of db clock life in
      check_exact ~canon:(ST.canon_state sym) ~apply:ST.apply_perm
        ~equal:ST.state_equal elements (soft db)
        [ soft near; soft other ];
      true)

(* ------------------------------------------------------------------ *)
(* Value-aware insertion order (the aggregate-Kmap bug class). *)

let test_insertion_order_value_aware () =
  (* The engine's tuple order is length-first, then Value.compare
     element-wise; a naive element-wise lexicographic order (what a
     future Stdlib.compare regression would approximate on nested
     values) would sort [p(1,9)] before [p(2)].  Pin the contract. *)
  let short = ("p", [| V.Int 2 |]) in
  let long = ("p", [| V.Int 1; V.Int 9 |]) in
  checkb "length-first" true (NT.insertion_compare short long < 0);
  checkb "pred-first" true
    (NT.insertion_compare ("a", [| V.Int 9 |]) ("b", [| V.Int 0 |]) < 0);
  checkb "value order within arity" true
    (NT.insertion_compare ("p", [| V.Int 2 |]) ("p", [| V.Str "x" |]) < 0);
  (* enabled_insertions emits exactly that order, deduplicated across
     the two rules deriving the same tuple *)
  let p =
    Programs.parse_exn
      {|
materialize(link, infinity).
materialize(short, infinity).
materialize(pair, infinity).
s1 short(@S) :- link(@S,D,C).
s2 short(@S) :- link(@S,D,C), C>0.
p1 pair(@S,C) :- link(@S,D,C).
|}
  in
  let db = Store.of_facts (Programs.line_links 3) in
  let ins = NT.enabled_insertions p db in
  let sorted =
    List.sort_uniq NT.insertion_compare ins
  in
  checkb "sorted and deduplicated" true (ins = sorted);
  (* s1/s2 both derive short(n0) etc.: dedup must keep one each *)
  let shorts = List.filter (fun (p, _) -> p = "short") ins in
  checki "one short per node" 3 (List.length shorts)

(* ------------------------------------------------------------------ *)
(* A2 pin: the fine-grained baseline is untouched by the refactor. *)

let test_a2_pin_175 () =
  let p = Programs.with_links (Programs.reachability ()) (Programs.line_links 3) in
  let sys = NT.labeled_system p in
  let plain = Explore.explore ~max_states:20_000 sys in
  checki "A2 fine-grained baseline" 175 plain.Explore.states;
  (* both reductions off: the entry point explores the same space *)
  let entry = NT.explore ~max_states:20_000 p in
  checki "explore = labeled system" 175 entry.Explore.states;
  checki "same transitions" plain.Explore.transitions entry.Explore.transitions;
  (* an action is its insertion: the initial state's labels are exactly
     the enabled insertions, in their order *)
  let init = List.hd sys.Explore.initial in
  let labels = List.map fst (Option.get sys.Explore.actions init) in
  checkb "labels = enabled insertions" true
    (List.equal
       (fun a b -> NT.insertion_compare a b = 0)
       labels (NT.enabled_insertions p init.NT.db))

(* ------------------------------------------------------------------ *)
(* The delta step against full enumeration.

   A successor's carried enabled set comes from a join on the one tuple
   it inserted; {!NT.enabled_insertions} re-joins every rule over the
   whole store.  Along random insertion walks the two must agree at
   every state, order included, as must the carried hash and the hash
   recomputed from the state's parts. *)

(* Random safe, negation-free programs over integer relations [e/2]
   (the facts), [a/2], [b/2], [c/1], and the path relation [pv/2]:
   every rule shape below is one of self-joins, constants, assignments,
   comparisons, path builtins and complex body-atom arguments. *)
let gen_delta_rule =
  let v = Ast.var and k = Ast.cint in
  let pos p args = Ast.Pos (Ast.atom p args) in
  let rule p args body =
    Ast.rule (Ast.head p (List.map (fun e -> Ast.Plain e) args)) body
  in
  QCheck.Gen.(
    let rel = oneofl [ "e"; "a"; "b" ] and head = oneofl [ "a"; "b" ] in
    let konst = int_bound 3 in
    oneof
      [
        (* a join; a self-join when the relations coincide *)
        map3
          (fun h r1 r2 ->
            rule h [ v "X"; v "Z" ]
              [ pos r1 [ v "X"; v "Y" ]; pos r2 [ v "Y"; v "Z" ] ])
          head rel rel;
        (* a transitive self-join over a derived relation *)
        map2
          (fun h r ->
            rule h [ v "X"; v "Z" ]
              [ pos r [ v "X"; v "Y" ]; pos r [ v "Y"; v "Z" ] ])
          head head;
        (* the symmetric self-join *)
        map2
          (fun h r ->
            rule h [ v "X"; v "Y" ]
              [ pos r [ v "X"; v "Y" ]; pos r [ v "Y"; v "X" ] ])
          head rel;
        (* constants in the body and the head *)
        map4
          (fun h r c1 c2 -> rule h [ v "X"; k c2 ] [ pos r [ k c1; v "X" ] ])
          head rel konst konst;
        (* an assignment bounded by a comparison *)
        map2
          (fun h r ->
            rule h [ v "X"; v "Z" ]
              [
                pos r [ v "X"; v "Y" ];
                Ast.Assign ("Z", Ast.(v "Y" +: cint 1));
                Ast.Cond (Ast.Le, v "Z", k 3);
              ])
          head rel;
        (* a comparison between bound variables *)
        map3
          (fun h r c ->
            rule h [ v "Y"; v "X" ]
              [ pos r [ v "X"; v "Y" ]; Ast.Cond (c, v "X", v "Y") ])
          head rel
          (oneofl [ Ast.Ne; Ast.Lt; Ast.Ge ]);
        (* a complex argument bound by an earlier atom *)
        map3
          (fun h r1 r2 ->
            rule h [ v "X"; v "Z" ]
              [
                pos r1 [ v "X"; v "Y" ]; pos r2 [ Ast.(v "Y" +: cint 1); v "Z" ];
              ])
          head rel rel;
        (* a repeated variable, and a unary relation joined back *)
        map (fun r -> rule "c" [ v "X" ] [ pos r [ v "X"; v "X" ] ]) rel;
        map2
          (fun h r ->
            rule h [ v "X"; v "Y" ]
              [ pos "c" [ v "X" ]; pos r [ v "X"; v "Y" ] ])
          head rel;
        (* path builtins: simple paths, their sizes and endpoints *)
        map
          (fun r ->
            rule "pv" [ v "X"; v "P" ]
              [
                pos r [ v "X"; v "Y" ];
                Ast.Assign ("P", Ast.call "f_init" [ v "X"; v "Y" ]);
              ])
          rel;
        map
          (fun r ->
            rule "pv" [ v "X"; v "P" ]
              [
                pos r [ v "X"; v "Y" ];
                pos "pv" [ v "Y"; v "P2" ];
                Ast.Cond
                  ( Ast.Eq,
                    Ast.call "f_inPath" [ v "P2"; v "X" ],
                    Ast.cbool false );
                Ast.Assign ("P", Ast.call "f_concatPath" [ v "X"; v "P2" ]);
              ])
          rel;
        return
          (rule "c" [ v "X" ]
             [
               pos "pv" [ v "X"; v "P" ];
               Ast.Cond (Ast.Gt, Ast.call "f_size" [ v "P" ], k 2);
             ]);
        map2
          (fun h r ->
            rule h [ v "X"; v "Z" ]
              [
                pos "pv" [ v "X"; v "P" ];
                pos r [ Ast.call "f_last" [ v "P" ]; v "Z" ];
              ])
          head rel;
      ])

let edge (x, y) = Ast.fact "e" [ V.Int x; V.Int y ]

let arb_delta_case =
  let gen =
    QCheck.Gen.(
      let pair4 = pair (int_bound 3) (int_bound 3) in
      quad
        (list_size (int_range 1 5) gen_delta_rule)
        (list_size (int_range 1 6) pair4)
        (list_size (int_bound 3) pair4)
        int)
  in
  QCheck.make gen ~print:(fun (rules, facts, injected, seed) ->
      Fmt.str "seed %d, injected %a@.%a" seed
        Fmt.(list ~sep:sp (pair ~sep:comma int int))
        injected Ast.pp_program
        { Ast.empty_program with Ast.rules; facts = List.map edge facts })

let enabled_equal = List.equal (fun a b -> NT.insertion_compare a b = 0)

(* Follow [steps] random successors of [sys] from its first initial
   state, checking [ok] at each state visited. *)
let random_walk rs ~steps (sys : ('s, _) Explore.sys) ok =
  let rec go n s =
    ok s;
    if n > 0 then
      match sys.Explore.successors s with
      | [] -> ()
      | succs ->
        go (n - 1)
          (List.nth succs (Random.State.int rs (List.length succs)))
  in
  List.iter (go steps) sys.Explore.initial

let ndlog_state_agrees p (s : NT.state) =
  if
    not
      (enabled_equal (Lazy.force s.NT.enabled)
         (NT.enabled_insertions p s.NT.db))
  then
    QCheck.Test.fail_reportf "carried enabled set differs at@.%a" Store.pp
      s.NT.db;
  if s.NT.hash <> Store.hash s.NT.db then
    QCheck.Test.fail_reportf "carried hash differs at@.%a" Store.pp s.NT.db

let soft_state_agrees cfg (s : ST.state) =
  if
    not
      (enabled_equal (Lazy.force s.ST.enabled)
         (NT.enabled_insertions cfg.ST.program s.ST.db))
  then
    QCheck.Test.fail_reportf "carried soft enabled set differs at clock %d@.%a"
      s.ST.clock Store.pp s.ST.db;
  let rebuilt = ST.make_state cfg ~clock:s.ST.clock s.ST.db s.ST.leases in
  if ST.state_hash s <> ST.state_hash rebuilt then
    QCheck.Test.fail_reportf "carried soft hash differs at clock %d"
      s.ST.clock

let prop_delta_step =
  QCheck.Test.make ~name:"delta step = full enumeration along random walks"
    ~count:300 arb_delta_case (fun (rules, facts, injected, seed) ->
      let rs = Random.State.make [| seed |] in
      let p =
        { Ast.empty_program with Ast.rules; facts = List.map edge facts }
      in
      random_walk rs ~steps:20 (NT.labeled_system p) (ndlog_state_agrees p);
      random_walk rs ~steps:6 (NT.batched_system p) (ndlog_state_agrees p);
      (* soft: [e] and [a] leased, [e] injected at instants 0 and 1 *)
      let soft =
        {
          p with
          Ast.decls =
            [
              Ast.decl ~lifetime:(Ast.Lifetime 2.) "e";
              Ast.decl ~lifetime:(Ast.Lifetime 3.) "a";
            ];
        }
      in
      let cfg =
        ST.make_config ~horizon:4
          ~inject:(fun t ->
            if t <= 1 then
              List.map (fun (x, y) -> ("e", [| V.Int x; V.Int y |])) injected
            else [])
          soft
      in
      random_walk rs ~steps:20 (ST.labeled_system cfg) (soft_state_agrees cfg);
      true)

(* Negation: an insertion can disable another, so every state's set is
   enumerated in full; the walks still see exactly that set. *)
let test_negation_enumerates () =
  let p =
    Programs.parse_exn
      {|
a(X,Y) :- e(X,Y), !b(Y,X).
b(X,Y) :- a(X,Y), X < Y.
c(X) :- a(X,Y), !b(X,Y).
e(0,1). e(1,0). e(1,2). e(2,1). e(2,0).
|}
  in
  checkb "negation disables independence" false
    (NT.independent p ("a", [| V.Int 0; V.Int 1 |]) ("c", [| V.Int 2 |]));
  let sys = NT.labeled_system p in
  for seed = 0 to 19 do
    random_walk (Random.State.make [| seed |]) ~steps:12 sys
      (ndlog_state_agrees p)
  done;
  let plain = NT.explore p in
  checkb "space explored to its end" false plain.Explore.truncated;
  List.iter (ndlog_state_agrees p) plain.Explore.terminal

(* ------------------------------------------------------------------ *)
(* Soft-state leases on the integer clock. *)

(* A fractional lifetime lives as long as under Softstate.Expiry
   (dead once [deadline <= now]): materialize(ping, 1.5) injected at
   clock 0 is live at clock 1 (deadline 1.5) and gone at clock 2, in
   every reachable state.  Truncating the lifetime to one tick would
   expire it at clock 1. *)
let test_soft_fractional_lifetime () =
  let ping = [| V.Addr "n0"; V.Addr "n1" |] in
  let cfg =
    ST.make_config ~horizon:3
      ~inject:(fun t -> if t = 0 then [ ("ping", ping) ] else [])
      { Ast.empty_program with
        Ast.decls = [ Ast.decl ~lifetime:(Ast.Lifetime 1.5) "ping" ] }
  in
  let live (s : ST.state) = Store.mem "ping" ping s.ST.db in
  match
    ST.check cfg (fun s ->
        match s.ST.clock with 0 | 1 -> live s | _ -> not (live s))
  with
  | Ok stats -> checki "one state per instant" 4 stats.Explore.states
  | Error v ->
    Alcotest.failf "ping %s at clock %d"
      (if live v.Explore.violating then "still live" else "expired")
      v.Explore.violating.ST.clock

(* A program's facts load at clock 0, as [Store.of_facts],
   [Runtime.load_facts] and the hard-state rewrite load them: the
   initial state holds every fact, and a soft fact is leased from
   clock 0. *)
let test_soft_initial_facts () =
  let p =
    Programs.with_links
      (Programs.heartbeat ~lifetime:3)
      (Programs.line_links 2)
  in
  let ping = [| V.Addr "n1"; V.Addr "n0" |] in
  let p =
    { p with Ast.facts = Ast.fact "ping" (Array.to_list ping) :: p.Ast.facts }
  in
  match (ST.labeled_system (ST.make_config ~horizon:2 p)).Explore.initial with
  | [ s ] ->
    let facts = Store.of_facts p.Ast.facts in
    List.iter
      (fun pred ->
        Store.iter_rel pred
          (fun t -> checkb ("initial " ^ pred) true (Store.mem pred t s.ST.db))
          facts)
      (Store.preds facts);
    checkb "ping leased from clock 0" true
      (List.exists
         (fun ((pred, t), d) ->
           pred = "ping" && Store.Tuple.equal t ping && d = 3)
         s.ST.leases)
  | l -> Alcotest.failf "%d initial states" (List.length l)

(* ------------------------------------------------------------------ *)
(* E2 (count-to-infinity) and E3 (Disagree) counterexample replay. *)

let test_e2_count_to_infinity_trace () =
  (* Unbounded distance-vector on a ring derives ever-growing costs;
     the safety bound is violated and the (reduced and unreduced)
     counterexamples must replay. *)
  let p =
    Programs.with_links (Programs.distance_vector ()) (Programs.ring_links 3)
  in
  let bound db =
    Store.fold_rel "cost"
      (fun t ok -> ok && (match t.(2) with V.Int c -> c <= 4 | _ -> true))
      db true
  in
  let sys = NT.labeled_system p in
  let sym = Sym.of_topology (Topology.ring 3) in
  let run name res =
    match res with
    | Ok _ -> Alcotest.failf "%s: expected count-to-infinity violation" name
    | Error (v : NT.state Explore.violation) ->
      ok_or_fail (name ^ " trace replays") (Explore.validate_trace sys v.Explore.trace);
      checkb (name ^ " endpoint violates") true
        (not (bound v.Explore.violating.NT.db))
  in
  run "plain" (NT.check_fine_invariant ~max_states:50_000 p bound);
  run "por"
    (NT.check_fine_invariant ~max_states:50_000 ~por:true ~stable:true p bound);
  run "both"
    (NT.check_fine_invariant ~max_states:50_000 ~por:true ~stable:true
       ~symmetry:sym p bound)

let test_e3_disagree_trace () =
  (* Disagree reaches a stable assignment under interleaved activation:
     flip it into a "violation" to obtain a trace, and replay it.  The
     synchronous schedule oscillates: replay the lasso too. *)
  let t = Spp.Gadgets.disagree in
  let sys = Spp.Ts.interleaved t in
  (match Explore.check_invariant sys (fun s -> not (Spp.Ts.is_stable t s)) with
  | Ok _ -> Alcotest.fail "Disagree has reachable stable states"
  | Error v ->
    ok_or_fail "stable-state trace replays" (Explore.validate_trace sys v.Explore.trace));
  let sync = Spp.Ts.synchronous t in
  match Explore.can_avoid sync ~good:(Spp.Ts.is_stable t) with
  | None -> Alcotest.fail "Disagree must oscillate synchronously"
  | Some l -> ok_or_fail "oscillation lasso replays" (Explore.validate_lasso sync l)

(* ------------------------------------------------------------------ *)
(* The differential property: {plain, POR, symmetry, both} agree. *)

(* The set (not multiset) of canonical terminal states: plain
   exploration may reach several terminals in one orbit where the
   reduced search keeps a single representative. *)
let terminal_fingerprint sym (stats : NT.state Explore.stats) =
  List.map (fun (s : NT.state) -> Sym.canon_store sym s.NT.db)
    stats.Explore.terminal
  |> List.sort_uniq Store.compare

let prop_reduction_sound =
  QCheck.Test.make ~name:"reduced exploration = plain (verdict, fixpoint)"
    ~count:12
    QCheck.(triple (int_range 0 2) (int_range 0 3) (int_range 3 4))
    (fun (prog_i, topo_i, n) ->
      let links, topo =
        match topo_i with
        | 0 -> (Programs.ring_links n, Topology.ring n)
        | 1 -> (Programs.star_links n, Topology.star n)
        | 2 -> (Programs.grid_links 2, Topology.grid 2)
        | _ -> (Programs.line_links n, Topology.line n)
      in
      (* Plain exploration must stay tractable (seconds, measured):
         reachability on ring4/grid2 and bounded DV at 2 hops there
         already exceed 28k states, so those cells drop to 1 hop or
         out; path_vector blows up beyond 3-node graphs. *)
      let ring = topo_i = 0 and grid = topo_i = 2 in
      let case =
        match prog_i with
        | 0 when (ring && n > 3) || grid -> None
        | 0 ->
          (* no node reaches itself — violated on rings, holds on the
             others; stable either way (tuples are never removed) *)
          Some
            ( Programs.with_links (Programs.reachability ()) links,
              [ "reachable" ],
              fun db ->
                Store.fold_rel "reachable"
                  (fun t ok -> ok && not (V.equal t.(0) t.(1)))
                  db true )
        | 1 ->
          let max_hops = if grid || (ring && n > 3) then 1 else 2 in
          Some
            ( Programs.with_links
                (Programs.bounded_distance_vector ~max_hops)
                links,
              [ "cost" ],
              fun db ->
                Store.fold_rel "cost"
                  (fun t ok ->
                    ok
                    && (match t.(2) with
                       | V.Int c -> c <= max_hops
                       | _ -> true))
                  db true )
        | _ when n > 3 || grid -> None
        | _ ->
          Some
            ( Programs.with_links (Programs.path_vector ()) links,
              [ "path" ],
              fun db ->
                Store.fold_rel "path"
                  (fun t ok ->
                    ok && (match t.(3) with V.Int c -> c <= 2 | _ -> true))
                  db true )
      in
      match case with
      | None -> true
      | Some (p, observed, inv) ->
        let max_states = 30_000 in
        let sym = Sym.of_topology topo in
        let plain = NT.explore ~max_states p in
        if plain.Explore.truncated then true
        else begin
        let por = NT.explore ~max_states ~por:true p in
        let symr = NT.explore ~max_states ~symmetry:sym p in
        let both = NT.explore ~max_states ~por:true ~symmetry:sym p in
        (* visited-state counts: reduced <= plain *)
        if not (por.Explore.states <= plain.Explore.states) then
          QCheck.Test.fail_reportf "POR grew the space: %d > %d"
            por.Explore.states plain.Explore.states;
        if not (symr.Explore.states <= plain.Explore.states) then
          QCheck.Test.fail_reportf "symmetry grew the space: %d > %d"
            symr.Explore.states plain.Explore.states;
        if not (both.Explore.states <= min por.Explore.states symr.Explore.states)
        then
          QCheck.Test.fail_reportf "both exceeds its components: %d"
            both.Explore.states;
        (* terminal fixpoints agree up to the symmetry quotient *)
        let fp = terminal_fingerprint sym in
        let fp_plain = fp plain in
        List.iter
          (fun (name, stats) ->
            if not (List.equal Store.equal fp_plain (fp stats)) then
              QCheck.Test.fail_reportf "%s changed the terminal fixpoint" name)
          [ ("por", por); ("sym", symr); ("both", both) ];
        (* invariant verdicts agree across all four modes; every
           counterexample replays against the labeled system *)
        let sys = NT.labeled_system p in
        let verdict name res =
          match res with
          | Ok _ -> true
          | Error (v : NT.state Explore.violation) ->
            (match Explore.validate_trace sys v.Explore.trace with
            | Ok () -> ()
            | Error e ->
              QCheck.Test.fail_reportf "%s produced an invalid trace: %s" name e);
            if inv v.Explore.violating.NT.db then
              QCheck.Test.fail_reportf "%s endpoint satisfies the invariant" name;
            false
        in
        let v_plain =
          verdict "plain" (NT.check_fine_invariant ~max_states p inv)
        in
        let modes =
          [
            ( "por",
              NT.check_fine_invariant ~max_states ~por:true ~stable:true p inv );
            ( "por/observed",
              NT.check_fine_invariant ~max_states ~por:true ~observed p inv );
            ( "sym",
              NT.check_fine_invariant ~max_states ~symmetry:sym p inv );
            ( "both",
              NT.check_fine_invariant ~max_states ~por:true ~stable:true
                ~symmetry:sym p inv );
          ]
        in
        List.iter
          (fun (name, res) ->
            if verdict name res <> v_plain then
              QCheck.Test.fail_reportf "%s verdict differs from plain" name)
          modes;
        true
      end)

(* Soft-state differential: symmetry preserves verdicts and fixpoints;
   POR (inert while ticks compete) must never grow the space. *)
let prop_soft_reduction_sound =
  QCheck.Test.make ~name:"soft-state reduced exploration = plain" ~count:12
    QCheck.(triple (int_range 3 5) (int_range 2 4) (int_range 1 2))
    (fun (k, horizon, stop) ->
      let prog =
        Programs.parse_exn
          {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|}
      in
      let pings =
        List.init (k - 1) (fun i ->
            ( "ping",
              [| V.Addr (Programs.node 0); V.Addr (Programs.node (i + 1)) |] ))
      in
      let cfg =
        ST.make_config ~horizon
          ~inject:(fun t -> if t <= stop then pings else [])
          prog
      in
      let sym = Sym.of_topology (Topology.star k) in
      let plain = ST.explore cfg in
      let por = ST.explore ~por:true cfg in
      let symr = ST.explore ~symmetry:sym cfg in
      let both = ST.explore ~por:true ~symmetry:sym cfg in
      if por.Explore.states > plain.Explore.states then
        QCheck.Test.fail_reportf "POR grew the soft space";
      if symr.Explore.states > plain.Explore.states then
        QCheck.Test.fail_reportf "symmetry grew the soft space";
      if both.Explore.states > min por.Explore.states symr.Explore.states then
        QCheck.Test.fail_reportf "both exceeds its components";
      let fp (stats : ST.state Explore.stats) =
        List.map (ST.canon_state sym) stats.Explore.terminal
        |> List.sort_uniq ST.state_compare
      in
      if not (List.equal ST.state_equal (fp plain) (fp symr)) then
        QCheck.Test.fail_reportf "symmetry changed the soft fixpoint";
      if not (List.equal ST.state_equal (fp plain) (fp both)) then
        QCheck.Test.fail_reportf "both changed the soft fixpoint";
      (* verdict equality for a clock-indexed safety property: alive
         tuples vanish after refreshes stop plus slack *)
      let deadline = stop + 4 in
      let inv (s : ST.state) =
        s.ST.clock < deadline || Store.is_empty (Store.restrict [ "alive" ] s.ST.db)
      in
      let sys = ST.labeled_system cfg in
      let verdict name res =
        match res with
        | Ok _ -> true
        | Error (v : ST.state Explore.violation) ->
          (match Explore.validate_trace sys v.Explore.trace with
          | Ok () -> ()
          | Error e ->
            QCheck.Test.fail_reportf "%s: invalid soft trace: %s" name e);
          false
      in
      let v_plain = verdict "plain" (ST.check cfg inv) in
      List.iter
        (fun (name, res) ->
          if verdict name res <> v_plain then
            QCheck.Test.fail_reportf "%s soft verdict differs" name)
        [
          ("sym", ST.check ~symmetry:sym cfg inv);
          ("por/observed", ST.check ~por:true ~observed:[ "alive" ] cfg inv);
          ("both", ST.check ~por:true ~observed:[ "alive" ] ~symmetry:sym cfg inv);
        ];
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mcheck"
    [
      ( "explore",
        [
          Alcotest.test_case "por collapses commuting counters" `Quick
            test_por_counters;
          Alcotest.test_case "por needs labels" `Quick test_por_needs_labels;
          Alcotest.test_case "validate_trace" `Quick test_validate_trace;
          Alcotest.test_case "validate_lasso" `Quick test_validate_lasso;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "automorphism generators" `Quick
            test_automorphism_generators;
          Alcotest.test_case "is_automorphism rejects" `Quick
            test_is_automorphism_rejects;
          Alcotest.test_case "canon identifies orbits" `Quick
            test_canon_store_identifies_orbit;
          Alcotest.test_case "canon distinguishes orbits" `Quick
            test_canon_distinguishes_orbits;
          Alcotest.test_case "canonical hash buckets" `Quick
            test_canon_table_buckets;
          Alcotest.test_case "lease permutation identity" `Quick
            test_soft_lease_permutation_identity;
          Alcotest.test_case "non-bijections and oversized groups rejected"
            `Quick test_non_bijection_rejected;
          Alcotest.test_case "one canonicalization per state" `Quick
            test_canon_once_per_state;
          Alcotest.test_case "permutation budget" `Quick
            test_permutation_budget;
          QCheck_alcotest.to_alcotest prop_bulk_permutation;
          QCheck_alcotest.to_alcotest prop_canon_exact;
        ] );
      ( "ndlog_ts",
        [
          Alcotest.test_case "value-aware insertion order" `Quick
            test_insertion_order_value_aware;
          Alcotest.test_case "A2 pinned at 175" `Quick test_a2_pin_175;
          QCheck_alcotest.to_alcotest prop_delta_step;
          Alcotest.test_case "negation enumerates in full" `Quick
            test_negation_enumerates;
          Alcotest.test_case "fractional lifetime rounds up" `Quick
            test_soft_fractional_lifetime;
          Alcotest.test_case "program facts load at clock 0" `Quick
            test_soft_initial_facts;
          Alcotest.test_case "E2 counterexamples replay" `Quick
            test_e2_count_to_infinity_trace;
          Alcotest.test_case "E3 Disagree replay" `Quick test_e3_disagree_trace;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_reduction_sound;
          QCheck_alcotest.to_alcotest prop_soft_reduction_sound;
        ] );
    ]
