(* Tests for the Stable Paths Problem substrate and its model-checking
   adapter: the gadget classification (Shortest-Paths / Agree / Disagree
   / Good / Bad) and the oscillation results the paper's BGP discussion
   relies on. *)

module I = Spp.Instance
module Solver = Spp.Solver
module Gadgets = Spp.Gadgets
module Ts = Spp.Ts

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Instance basics. *)

let test_instance_validation () =
  (* A permitted path must start at its node and end at the origin. *)
  (match I.make ~n:2 [ [ [ 2; 0 ] ] ] with
  | exception I.Ill_formed _ -> ()
  | _ -> Alcotest.fail "expected Ill_formed (wrong head)");
  (match I.make ~n:2 [ [ [ 1; 2 ] ] ] with
  | exception I.Ill_formed _ -> ()
  | _ -> Alcotest.fail "expected Ill_formed (wrong tail)");
  match I.make ~n:3 [ [ [ 1; 0 ] ]; [] ] with
  | _ -> ()
  | exception I.Ill_formed _ -> Alcotest.fail "valid instance rejected"

let test_instance_rank_and_neighbors () =
  let g = Gadgets.disagree in
  checkb "preferred path rank 0" true (I.rank g 1 [ 1; 2; 0 ] = Some 0);
  checkb "direct path rank 1" true (I.rank g 1 [ 1; 0 ] = Some 1);
  checkb "unknown path" true (I.rank g 1 [ 1; 2; 1; 0 ] = None);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ] (I.neighbors g 1)

let test_best_choice () =
  let g = Gadgets.disagree in
  let a = I.empty_assignment g in
  (* With nothing assigned, node 1 can only go direct. *)
  checkb "initial best" true (I.best g a 1 = [ 1; 0 ]);
  a.(2) <- [ 2; 0 ];
  checkb "prefers via 2" true (I.best g a 1 = [ 1; 2; 0 ]);
  (* Loop avoidance: node 1 cannot route via a path containing itself. *)
  a.(2) <- [ 2; 1; 0 ];
  checkb "loop rejected" true (I.best g a 1 = [ 1; 0 ])

(* ------------------------------------------------------------------ *)
(* Stable solutions. *)

let test_classification () =
  let classify g = Solver.classify g in
  checkb "shortest-paths unique" true (classify Gadgets.shortest_paths = Solver.Unique);
  checkb "agree unique" true (classify Gadgets.agree = Solver.Unique);
  checkb "disagree has two" true (classify Gadgets.disagree = Solver.Multiple 2);
  checkb "good gadget unique" true (classify Gadgets.good_gadget = Solver.Unique);
  checkb "bad gadget unsolvable" true (classify Gadgets.bad_gadget = Solver.Unsolvable)

let test_disagree_solutions_shape () =
  let sols = Solver.stable_solutions Gadgets.disagree in
  checki "two solutions" 2 (List.length sols);
  (* In each solution exactly one of the nodes gets its preferred route
     through the other. *)
  List.iter
    (fun a ->
      let via_other u v = a.(u) = [ u; v; 0 ] in
      checkb "one winner" true
        ((via_other 1 2 && a.(2) = [ 2; 0 ])
        || (via_other 2 1 && a.(1) = [ 1; 0 ])))
    sols

let test_stable_solutions_are_stable () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun a ->
          checkb (name ^ " solution stable") true (I.is_stable g a);
          checkb (name ^ " solution consistent") true (I.is_consistent g a))
        (Solver.stable_solutions g))
    Gadgets.all

(* ------------------------------------------------------------------ *)
(* SPVP dynamics. *)

let test_spvp_shortest_converges () =
  let o = Solver.Spvp.run ~schedule:Solver.Spvp.Round_robin Gadgets.shortest_paths in
  checkb "converged" true o.Solver.Spvp.converged;
  checkb "not oscillated" false o.Solver.Spvp.oscillated

let test_spvp_disagree_sync_oscillates () =
  let o = Solver.Spvp.run ~schedule:Solver.Spvp.Synchronous Gadgets.disagree in
  checkb "did not converge" false o.Solver.Spvp.converged;
  checkb "oscillated" true o.Solver.Spvp.oscillated;
  checkb "cycle length 2" true (o.Solver.Spvp.cycle_length = Some 2)

let test_spvp_disagree_async_converges () =
  let o = Solver.Spvp.run ~schedule:Solver.Spvp.Round_robin Gadgets.disagree in
  checkb "converged" true o.Solver.Spvp.converged;
  checkb "landed on a stable solution" true
    (I.is_stable Gadgets.disagree o.Solver.Spvp.final)

let test_spvp_bad_gadget_diverges () =
  List.iter
    (fun schedule ->
      let o = Solver.Spvp.run ~max_steps:500 ~schedule Gadgets.bad_gadget in
      checkb "bad gadget never converges" false o.Solver.Spvp.converged)
    [ Solver.Spvp.Synchronous; Solver.Spvp.Round_robin; Solver.Spvp.Random 3 ]

let test_spvp_random_profile () =
  (* Disagree converges under every random schedule (asynchrony breaks
     the tie), but with varying delay; Agree converges fast always. *)
  let profile g = Solver.Spvp.convergence_profile ~runs:30 g in
  let dis = profile Gadgets.disagree in
  checkb "disagree always converges eventually" true
    (List.for_all fst dis);
  let agr = profile Gadgets.agree in
  checkb "agree always converges" true (List.for_all fst agr);
  let max_steps l = List.fold_left (fun m (_, s) -> max m s) 0 l in
  checkb "profiles are nontrivial" true (max_steps dis >= max_steps agr)

(* ------------------------------------------------------------------ *)
(* Model checking (E9 shapes). *)

let test_mc_disagree () =
  let r = Ts.analyze Gadgets.disagree in
  checki "two reachable stable states" 2 r.Ts.stable_reachable;
  checkb "no interleaved oscillation" true (r.Ts.oscillation = None);
  checkb "synchronous oscillation found" true r.Ts.sync_oscillates

let test_mc_bad_gadget () =
  let r = Ts.analyze Gadgets.bad_gadget in
  checki "no stable state" 0 r.Ts.stable_reachable;
  checkb "oscillation lasso found" true (r.Ts.oscillation <> None);
  (match r.Ts.oscillation with
  | Some l ->
    checkb "cycle nonempty" true (List.length l.Mcheck.Explore.cycle >= 2);
    (* every state on the cycle is unstable *)
    List.iter
      (fun s ->
        checkb "cycle state unstable" false (Ts.is_stable Gadgets.bad_gadget s))
      l.Mcheck.Explore.cycle
  | None -> ())

let test_mc_good_gadget () =
  let r = Ts.analyze Gadgets.good_gadget in
  checki "unique stable state" 1 r.Ts.stable_reachable;
  checkb "no oscillation" true (r.Ts.oscillation = None)

let test_mc_state_counts () =
  let r = Ts.analyze Gadgets.disagree in
  checkb "nontrivial state space" true (r.Ts.states > 2);
  checkb "transitions recorded" true (r.Ts.transitions > 0)

(* Generic checker sanity on a counter system. *)
let test_mc_invariant_counterexample () =
  let sys =
    Mcheck.Explore.make ~initial:[ 0 ]
      ~successors:(fun n -> if n >= 10 then [] else [ n + 1; n + 2 ])
      ()
  in
  (match Mcheck.Explore.check_invariant sys (fun n -> n <> 7) with
  | Ok _ -> Alcotest.fail "expected violation"
  | Error v ->
    checki "violating state" 7 v.Mcheck.Explore.violating;
    (* BFS produces a shortest trace: 0,2,4,6,7 or similar length 5 *)
    checkb "trace starts at initial" true (List.hd v.Mcheck.Explore.trace = 0);
    checkb "trace ends at violation" true
      (List.rev v.Mcheck.Explore.trace |> List.hd = 7));
  match Mcheck.Explore.check_invariant sys (fun n -> n <= 12) with
  | Ok stats -> checkb "invariant holds" true (stats.Mcheck.Explore.states > 0)
  | Error _ -> Alcotest.fail "invariant should hold"

let test_mc_lasso_simple () =
  (* 0 -> 1 -> 2 -> 1 is a lasso. *)
  let sys =
    Mcheck.Explore.make ~initial:[ 0 ]
      ~successors:(function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> [])
      ()
  in
  (match Mcheck.Explore.find_lasso sys with
  | Some l -> checkb "cycle = {1,2}" true (List.sort compare l.Mcheck.Explore.cycle = [ 1; 2 ])
  | None -> Alcotest.fail "lasso expected");
  (* restricted away from the cycle: no lasso *)
  checkb "no lasso within {0}" true
    (Mcheck.Explore.find_lasso ~within:(fun n -> n = 0) sys = None)

(* NDlog transition system: reachability fixpoint is terminal and
   matches the evaluator. *)
let test_mc_ndlog_fixpoint () =
  let p =
    Ndlog.Programs.with_links (Ndlog.Programs.reachability ())
      (Ndlog.Programs.line_links 3)
  in
  let sys = Mcheck.Ndlog_ts.batched_system p in
  let stats = Mcheck.Explore.explore sys in
  checki "one terminal state (the fixpoint)" 1
    (List.length stats.Mcheck.Explore.terminal);
  let fixpoint = List.hd stats.Mcheck.Explore.terminal in
  let central = Ndlog.Eval.run_exn p in
  checkb "fixpoint matches evaluator" true
    (Ndlog.Store.Tset.equal
       (Ndlog.Store.relation "reachable" fixpoint.Mcheck.Ndlog_ts.db)
       (Ndlog.Store.relation "reachable" central.Ndlog.Eval.db))

let test_mc_ndlog_invariant () =
  let p =
    Ndlog.Programs.with_links (Ndlog.Programs.reachability ())
      (Ndlog.Programs.line_links 3)
  in
  (* True invariant: every reachable source has an outgoing link. *)
  let inv db =
    Ndlog.Store.tuples "reachable" db
    |> List.for_all (fun t ->
           Ndlog.Store.tuples "link" db
           |> List.exists (fun l -> Ndlog.Value.equal l.(0) t.(0)))
  in
  (match Mcheck.Ndlog_ts.check_table_invariant p inv with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "invariant should hold on a line");
  (* False "invariant": no node reaches itself.  With symmetric links
     the loop n0 -> n1 -> n0 violates it; the checker must produce a
     counterexample trace ending in the violation. *)
  let no_self db =
    Ndlog.Store.tuples "reachable" db
    |> List.for_all (fun t -> not (Ndlog.Value.equal t.(0) t.(1)))
  in
  match Mcheck.Ndlog_ts.check_table_invariant p no_self with
  | Ok _ -> Alcotest.fail "self-reachability should be found"
  | Error v ->
    checkb "counterexample trace nonempty" true
      (List.length v.Mcheck.Explore.trace >= 2)

(* ------------------------------------------------------------------ *)
(* Soft-state transition systems (Sections 4.2 + 4.3). *)

module Soft = Mcheck.Soft_ts
module NV = Ndlog.Value

let heartbeat_program =
  Ndlog.Programs.parse_exn
    {|
materialize(ping, 3).
materialize(alive, 3).
a1 alive(@X,Y) :- ping(@X,Y).
|}

let ping_tuple = [| NV.Addr "a"; NV.Addr "b" |]
let alive_tuple = ping_tuple

let test_soft_refresh_keeps_alive () =
  (* Pings injected every 2 ticks: alive must never be absent after the
     first derivation opportunity (clock >= 1). *)
  let cfg =
    Soft.make_config ~horizon:8
      ~inject:(fun t -> if t mod 2 = 0 then [ ("ping", ping_tuple) ] else [])
      heartbeat_program
  in
  (* Invariant: whenever a live ping exists, deriving alive keeps the
     database consistent — check "alive implies ping was recently
     live": leases of alive never outlive the ping lease by more than
     the lifetime. *)
  (match Soft.check cfg (fun s -> s.Soft.clock <= 8) with
  | Ok stats ->
    checkb "explored states" true (stats.Mcheck.Explore.states > 0)
  | Error _ -> Alcotest.fail "trivial clock bound violated");
  (* With refreshes, there is a run where alive persists at the
     horizon: witnessed by a reachable state at max clock containing
     alive. *)
  let stats = Soft.explore cfg in
  checkb "alive reachable at horizon" true
    (List.exists
       (fun (s : Soft.state) ->
         s.Soft.clock = 8 && Ndlog.Store.mem "alive" alive_tuple s.Soft.db)
       stats.Mcheck.Explore.terminal)

let test_soft_expiry_is_inevitable () =
  (* Pings stop after clock 2 (the last ping's lease runs out at 5, so
     alive is derivable until clock 4 and leased until 7 at the
     latest): from clock 7 on, NO reachable state contains alive — a
     time-indexed safety property. *)
  let cfg =
    Soft.make_config ~horizon:10
      ~inject:(fun t -> if t <= 2 then [ ("ping", ping_tuple) ] else [])
      heartbeat_program
  in
  match
    Soft.check cfg (fun s ->
        s.Soft.clock < 7 || not (Ndlog.Store.mem "alive" alive_tuple s.Soft.db))
  with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "stale alive tuple at clock %d"
      v.Mcheck.Explore.violating.Soft.clock

let test_soft_violation_detected () =
  (* The same property fails when refreshes continue: the checker must
     produce a counterexample instead. *)
  let cfg =
    Soft.make_config ~horizon:10
      ~inject:(fun t -> if t mod 2 = 0 then [ ("ping", ping_tuple) ] else [])
      heartbeat_program
  in
  match
    Soft.check cfg (fun s ->
        s.Soft.clock < 7 || not (Ndlog.Store.mem "alive" alive_tuple s.Soft.db))
  with
  | Ok _ -> Alcotest.fail "expected a counterexample"
  | Error v ->
    checkb "trace nonempty" true (List.length v.Mcheck.Explore.trace > 1)

let test_soft_lease_refresh_semantics () =
  let cfg = Soft.make_config ~horizon:10 heartbeat_program in
  let s0 = Soft.insert cfg Soft.initial_state "ping" ping_tuple in
  checkb "leased" true (List.mem (("ping", ping_tuple), 3) s0.Soft.leases);
  (* ticking twice then refreshing extends the lease *)
  let s2 = Soft.tick cfg (Soft.tick cfg s0) in
  let s2' = Soft.insert cfg s2 "ping" ping_tuple in
  checkb "refreshed lease" true
    (List.mem (("ping", ping_tuple), 5) s2'.Soft.leases);
  (* without refresh, the tuple dies at its deadline *)
  let s3 = Soft.tick cfg (Soft.tick cfg (Soft.tick cfg s0)) in
  checkb "expired" false (Ndlog.Store.mem "ping" ping_tuple s3.Soft.db)

let () =
  Alcotest.run "spp"
    [
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "rank and neighbors" `Quick
            test_instance_rank_and_neighbors;
          Alcotest.test_case "best choice" `Quick test_best_choice;
        ] );
      ( "solver",
        [
          Alcotest.test_case "gadget classification" `Quick test_classification;
          Alcotest.test_case "disagree solutions" `Quick
            test_disagree_solutions_shape;
          Alcotest.test_case "solutions are stable" `Quick
            test_stable_solutions_are_stable;
        ] );
      ( "spvp",
        [
          Alcotest.test_case "shortest converges" `Quick
            test_spvp_shortest_converges;
          Alcotest.test_case "disagree sync oscillates" `Quick
            test_spvp_disagree_sync_oscillates;
          Alcotest.test_case "disagree async converges" `Quick
            test_spvp_disagree_async_converges;
          Alcotest.test_case "bad gadget diverges" `Quick
            test_spvp_bad_gadget_diverges;
          Alcotest.test_case "random profiles" `Quick test_spvp_random_profile;
        ] );
      ( "mcheck",
        [
          Alcotest.test_case "disagree analysis" `Quick test_mc_disagree;
          Alcotest.test_case "bad gadget analysis" `Quick test_mc_bad_gadget;
          Alcotest.test_case "good gadget analysis" `Quick test_mc_good_gadget;
          Alcotest.test_case "state counts" `Quick test_mc_state_counts;
          Alcotest.test_case "invariant counterexample" `Quick
            test_mc_invariant_counterexample;
          Alcotest.test_case "lasso detection" `Quick test_mc_lasso_simple;
          Alcotest.test_case "ndlog fixpoint" `Quick test_mc_ndlog_fixpoint;
          Alcotest.test_case "ndlog invariant" `Quick test_mc_ndlog_invariant;
        ] );
      ( "soft_ts",
        [
          Alcotest.test_case "refresh keeps alive" `Quick
            test_soft_refresh_keeps_alive;
          Alcotest.test_case "expiry inevitable" `Quick
            test_soft_expiry_is_inevitable;
          Alcotest.test_case "violation detected" `Quick
            test_soft_violation_detected;
          Alcotest.test_case "lease semantics" `Quick
            test_soft_lease_refresh_semantics;
        ] );
    ]
