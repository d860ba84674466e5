(* Tests for the distributed NDlog runtime: distributed execution must
   agree with the centralized evaluator, soft state must expire, and the
   distance-vector state machine must count to infinity after a failure
   (Section 3.1's claim, reproduced by experiment E2). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Programs = Ndlog.Programs
module Localize = Ndlog.Localize
module V = Ndlog.Value
module Topo = Netsim.Topology
module Dv = Dist.Dv

(* The view refresh mode of every runtime a case builds without pinning
   one.  The suite registers every case once per mode ([modes] at the
   end of the file), so the from-scratch refresh
   ([~incremental_views:false], the differential oracle) re-runs
   everything the incremental refresh runs. *)
let views_incremental = ref true

module Runtime = struct
  include Dist.Runtime

  let create ?seed ?(incremental_views = !views_incremental) ?transport
      ?hosted topo program =
    create ?seed ~incremental_views ?transport ?hosted topo program
end

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Build the simulator topology matching a set of link facts. *)
let topo_of_links links =
  let t = Topo.create () in
  List.iter
    (fun (f : Ast.fact) ->
      match f.Ast.fact_args with
      | [ s; d; c ] ->
        Topo.add_link ~cost:(V.as_int c) t (V.as_addr s) (V.as_addr d)
      | _ -> ())
    links;
  t

let localized p =
  match Localize.rewrite_program p with
  | Ok r -> r.Localize.program
  | Error e -> Alcotest.failf "localization failed: %a" Localize.pp_error e

(* Run a program distributed and centralized; compare a relation. *)
let compare_dist_centralized ?(preds = [ "path"; "bestPath"; "bestPathCost" ])
    program links =
  let full = Programs.with_links program links in
  let central = Eval.run_exn full in
  let loc = localized full in
  let topo = topo_of_links links in
  let rt = Runtime.create topo loc in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  checkb "distributed run quiesced" true report.Runtime.stats.Netsim.Sim.quiesced;
  let dist_db = Runtime.global_store rt in
  List.iter
    (fun pred ->
      let a = Store.relation pred central.Eval.db in
      let b = Store.relation pred dist_db in
      if not (Store.Tset.equal a b) then
        Alcotest.failf "relation %s differs:@.central=%d tuples, dist=%d tuples"
          pred (Store.Tset.cardinal a) (Store.Tset.cardinal b))
    preds

let test_dist_line () =
  compare_dist_centralized (Programs.path_vector ()) (Programs.line_links 3)

let test_dist_ring () =
  compare_dist_centralized (Programs.path_vector ()) (Programs.ring_links 5)

let test_dist_asymmetric () =
  let links =
    [
      Programs.link_fact "n0" "n1" 10;
      Programs.link_fact "n1" "n0" 10;
      Programs.link_fact "n0" "n2" 1;
      Programs.link_fact "n2" "n0" 1;
      Programs.link_fact "n2" "n1" 2;
      Programs.link_fact "n1" "n2" 2;
    ]
  in
  compare_dist_centralized (Programs.path_vector ()) links

let test_dist_random () =
  List.iter
    (fun seed ->
      compare_dist_centralized ~preds:[ "reachable" ] (Programs.reachability ())
        (Programs.random_links ~seed ~extra:2 6))
    [ 1; 5; 9 ]

let test_dist_reachability_scale () =
  compare_dist_centralized ~preds:[ "reachable" ] (Programs.reachability ())
    (Programs.ring_links 12)

let test_dist_best_path_values () =
  (* Check specific routing results at their owning node. *)
  let links = Programs.line_links 4 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let rt = Runtime.create topo loc in
  Runtime.load_facts rt;
  ignore (Runtime.run rt);
  let n0 = Runtime.node_store rt "n0" in
  let best =
    Store.tuples "bestPathCost" n0
    |> List.find_opt (fun t ->
           V.equal t.(0) (V.Addr "n0") && V.equal t.(1) (V.Addr "n3"))
  in
  (match best with
  | Some t -> checki "n0->n3 = 3" 3 (V.as_int t.(2))
  | None -> Alcotest.fail "no bestPathCost at n0");
  (* bestPath tuples for n0 live at n0, not elsewhere *)
  let n1 = Runtime.node_store rt "n1" in
  checkb "n1 has no n0-rooted bestPath" true
    (Store.tuples "bestPath" n1
    |> List.for_all (fun t -> not (V.equal t.(0) (V.Addr "n0"))))

let test_dist_message_accounting () =
  let links = Programs.line_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let rt = Runtime.create (topo_of_links links) loc in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  let stats = report.Runtime.stats in
  checkb "messages flowed" true (stats.Netsim.Sim.messages_delivered > 0);
  checkb "inserts happened" true (report.Runtime.total_inserts > 0)

let test_dist_rejects_unlocalized () =
  let p =
    Programs.with_links (Programs.path_vector ()) (Programs.line_links 2)
  in
  (* path_vector's r2 spans two locations: must be rejected raw. *)
  match Runtime.create (topo_of_links p.Ast.facts) p with
  | exception Runtime.Not_localized _ -> ()
  | _ -> Alcotest.fail "expected Not_localized"

(* A complex argument on a derived atom, c(@N, X+Z), is a delta
   position: whichever arrives last of [a], [b] and [c] triggers the
   derivation, so every fact order must derive both [h] tuples.  With
   [c0] loaded last only [c]'s strand can, and that needs its complex
   argument named. *)
let test_dist_complex_delta_arg () =
  let p =
    Programs.parse_exn
      "link(@n, m, 1). link(@m, n, 1).\n\
       c0(@n, 2). c0(@n, 3). c0(@n, 4).\n\
       c(@N, X) :- c0(@N, X).\n\
       a(@n, 1). a(@n, 2). b(@n, 1, 5). b(@n, 2, 6).\n\
       h(@N, X) :- a(@N, X), b(@N, Z, W), c(@N, X+Z).\n"
  in
  let expected =
    Store.add_list "h"
      [ [| V.Addr "n"; V.Int 1 |]; [| V.Addr "n"; V.Int 2 |] ]
      Store.empty
  in
  List.iter
    (fun (order, facts) ->
      let p = { p with Ast.facts } in
      let links =
        List.filter (fun (f : Ast.fact) -> f.Ast.fact_pred = "link") facts
      in
      let rt = Runtime.create (topo_of_links links) p in
      Runtime.load_facts rt;
      let report = Runtime.run rt in
      checkb (order ^ ": quiesced") true
        report.Runtime.stats.Netsim.Sim.quiesced;
      checkb (order ^ ": h(1), h(2)") true
        (Store.equal expected
           (Store.restrict [ "h" ] (Runtime.global_store rt))))
    [ ("source order", p.Ast.facts); ("reversed", List.rev p.Ast.facts) ]

(* ------------------------------------------------------------------ *)
(* Soft state in the distributed runtime. *)

let test_dist_soft_state_expiry () =
  (* Heartbeats propagate, then expire when the source stops refreshing
     (no refresh loop is installed here). *)
  let links = Programs.line_links 2 in
  let p = Programs.with_links (Programs.heartbeat ~lifetime:5) links in
  let loc = localized p in
  let rt = Runtime.create (topo_of_links links) loc in
  Runtime.load_facts rt;
  ignore (Runtime.run rt ~until:2.0);
  let alive_at node =
    Store.cardinal "aliveNeighbor" (Runtime.node_store rt node)
  in
  checkb "alive early" true (alive_at "n1" > 0);
  ignore (Runtime.run rt ~until:60.0);
  checki "expired later" 0 (alive_at "n1")

(* ------------------------------------------------------------------ *)
(* Inbox batching. *)

(* Batched inbox flushes put every tuple where it belongs: over
   path-vector, reachability and bounded distance-vector on ring, grid,
   star and random topologies, each node's store holds exactly the
   tuples of the naive centralized fixpoint whose location specifier
   names that node, and the flushes never form more groups than they
   deliver delta tuples. *)
let prop_batch_inbox_placement =
  QCheck.Test.make
    ~name:
      "batched inbox: node store = its share of the naive fixpoint, groups \
       <= delta tuples"
    ~count:18
    QCheck.(triple (int_range 0 3) (int_range 3 7) (int_range 0 3))
    (fun (which, n, extra) ->
      let links =
        match which with
        | 0 -> Programs.ring_links n
        | 1 -> Programs.grid_links (2 + (n mod 2))
        | 2 -> Programs.star_links n
        | _ -> Programs.random_links ~seed:((13 * n) + extra) ~extra n
      in
      let prog =
        match which with
        | 0 | 3 -> Programs.path_vector ()
        | 1 -> Programs.reachability ()
        | _ -> Programs.bounded_distance_vector ~max_hops:(n + 1)
      in
      let full = Programs.with_links prog links in
      let locs =
        List.filter_map
          (fun (f : Ast.fact) ->
            Option.map (fun i -> (f.Ast.fact_pred, i)) f.Ast.fact_loc)
          full.Ast.facts
        @ List.filter_map
            (fun (r : Ast.rule) ->
              Option.map
                (fun i -> (r.Ast.head.Ast.head_pred, i))
                r.Ast.head.Ast.head_loc)
            full.Ast.rules
        |> List.sort_uniq compare
      in
      let naive =
        Eval.naive full (Ndlog.Analysis.analyze_exn full)
          (Store.of_facts full.Ast.facts)
      in
      let topo = topo_of_links links in
      let rt = Runtime.create topo (localized full) in
      Runtime.load_facts rt;
      let rep = Runtime.run rt in
      let w = rep.Runtime.wire_stats in
      rep.Runtime.stats.Netsim.Sim.quiesced
      && w.Eval.groups <= w.Eval.delta_tuples
      && List.for_all
           (fun nm ->
             let here = V.addr nm in
             List.for_all
               (fun (pred, i) ->
                 Store.Tset.equal
                   (Store.Tset.filter
                      (fun t -> V.equal t.(i) here)
                      (Store.relation pred naive.Eval.db))
                   (Store.relation pred (Runtime.node_store rt nm)))
               locs)
           (Topo.nodes topo))

(* Two messages sent at the same instant over the same link land in one
   flush: the receiving strand runs once with a delta of two tuples
   (one group). *)
let test_same_instant_burst_groups () =
  let src =
    {|
materialize(t, infinity).
materialize(s, infinity).
materialize(u, infinity).

b1 s(@D,X) :- t(@S,X,D).
b2 u(@D,X) :- s(@D,X).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 1; V.Addr "n1" ];
          Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 2; V.Addr "n1" ];
        ];
    }
  in
  let topo () =
    let topo = Topo.create () in
    Topo.add_duplex topo "n0" "n1";
    topo
  in
  let rt = Runtime.create (topo ()) p in
  Runtime.load_facts rt;
  let rep = Runtime.run rt in
  checki "u derived at n1" 2 (Store.cardinal "u" (Runtime.node_store rt "n1"));
  let naive =
    Eval.naive p (Ndlog.Analysis.analyze_exn p) (Store.of_facts p.Ast.facts)
  in
  checkb "naive fixpoint" true
    (Store.equal naive.Eval.db (Runtime.global_store rt));
  let w = rep.Runtime.wire_stats in
  (* Two singleton b1 activations at n0 plus ONE b2 flush at n1
     covering both deliveries — 3 groups for 4 delta tuples. *)
  checki "delta tuples" 4 w.Eval.delta_tuples;
  checki "groups" 3 w.Eval.groups;
  checkb "groups strictly below delta count" true
    (w.Eval.groups < w.Eval.delta_tuples)

(* Golden pins of the delivery path: one traced simulator run per
   program, reduced to a digest of the message trace, a digest of the
   global store, the run's simulator stats and insert count, and its
   wire (strand) and view (refresh) join counters.  The expected values
   were recorded from a known-good build; any change to what the runtime
   sends, stores or counts shows up as a mismatch on the line that
   moved.  The trace and store do not depend on the refresh mode; the
   view counters do, so each mode has its own pins. *)
let digest s = Digest.to_hex (Digest.string s)

let stats_pin (s : Eval.stats) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d" s.Eval.index_hits s.Eval.scans
    s.Eval.enumerated s.Eval.matched s.Eval.groups s.Eval.delta_tuples
    s.Eval.strata_skipped s.Eval.strata_refolded s.Eval.refresh_fallbacks

let run_pins topo program =
  let rt = Runtime.create topo program in
  Netsim.Sim.set_tracing (Runtime.simulator rt) true;
  Runtime.load_facts rt;
  let rep = Runtime.run rt in
  let s = rep.Runtime.stats in
  [
    "trace "
    ^ digest
        (String.concat "\n"
           (List.map
              (fun (time, line) -> Printf.sprintf "%h %s" time line)
              (Netsim.Sim.trace (Runtime.simulator rt))));
    "store " ^ digest (Store.to_string (Runtime.global_store rt));
    Printf.sprintf "run %h %d %d %d %d %b %d" s.Netsim.Sim.final_time
      s.Netsim.Sim.events s.Netsim.Sim.messages_sent
      s.Netsim.Sim.messages_delivered s.Netsim.Sim.messages_dropped
      s.Netsim.Sim.quiesced rep.Runtime.total_inserts;
    "wire " ^ stats_pin rep.Runtime.wire_stats;
    "view " ^ stats_pin rep.Runtime.view_stats;
  ]

let check_pins ~incremental ~from_scratch actual =
  let expected = if !views_incremental then incremental else from_scratch in
  if List.length expected <> List.length actual then
    Alcotest.failf "pins:@.@[<v>%a@]" Fmt.(list ~sep:cut (quote string)) actual;
  List.iter2 (fun e a -> Alcotest.(check string) "pin" e a) expected actual

let test_golden_pv_ring8 () =
  let links = Programs.ring_links 8 in
  check_pins
    ~incremental:
      [
        "trace a93918330ec46ac312e97a868427ca87";
        "store 99feed226c8cf6ff83b74ac4e757f9e5";
        "run 0x1.cp+2 184 112 112 0 true 144";
        "wire 72 0 272 272 104 160 0 0 0";
        "view 216 0 400 400 160 168 0 8 0";
      ]
    ~from_scratch:
      [
        "trace a93918330ec46ac312e97a868427ca87";
        "store 99feed226c8cf6ff83b74ac4e757f9e5";
        "run 0x1.cp+2 184 112 112 0 true 144";
        "wire 72 0 272 272 104 160 0 0 0";
        "view 56 16 232 232 64 168 0 0 0";
      ]
    (run_pins (topo_of_links links)
       (localized (Programs.with_links (Programs.path_vector ()) links)))

let test_golden_reach_grid3 () =
  let links = Programs.grid_links 3 in
  let pins =
    [
      "trace 55cc6f46bf848404702e12d900e5a444";
      "store f6392bb4daed4cbeb0a79bf221860e96";
      "run 0x1.4p+2 304 240 240 0 true 129";
      "wire 54 0 229 229 102 153 0 0 0";
      "view 0 0 0 0 0 0 0 0 0";
    ]
  in
  check_pins ~incremental:pins ~from_scratch:pins
    (run_pins (topo_of_links links)
       (localized (Programs.with_links (Programs.reachability ()) links)))

(* A local rule that re-triggers its own strand on the same node: every
   [walk] head lands at the node that derived it and runs rule w1 again
   while the strand's previous run is still emitting its heads.  Each
   node walks a cyclic graph of [step] edges with fan-out three, loaded
   before the node's first walk, so one run of w1 yields up to three
   new heads and each re-runs w1 at once; w2 ships what it saw
   to the neighbours, so the inbox path runs too.  Scratch state reused
   by a strand run that is still in use loses or invents heads, and the
   store pin catches it. *)
let retrigger_src =
  {|
materialize(link, infinity).
materialize(step, infinity).
materialize(walk, infinity).
materialize(seen, infinity).

w1 walk(@S, N) :- walk(@S, M), step(@S, M, N).
w2 seen(@D, S, N) :- walk(@S, N), link(@S, D, C).
|}

let test_golden_self_retrigger () =
  let links = Programs.line_links 3 and nodes = [ "n0"; "n1"; "n2" ] in
  let steps node =
    List.concat_map
      (fun i ->
        List.map
          (fun j -> Ast.fact ~loc:0 "step" [ V.Addr node; V.Int i; V.Int j ])
          [ (2 * i) + 1; (2 * i) + 2; (i + 3) mod 20 ])
      (List.init 20 Fun.id)
  in
  let seed node = Ast.fact ~loc:0 "walk" [ V.Addr node; V.Int 0 ] in
  let p = Programs.with_links (Programs.parse_exn retrigger_src) links in
  let p =
    {
      p with
      Ast.facts =
        p.Ast.facts @ List.concat_map steps nodes @ List.map seed nodes;
    }
  in
  let pins =
    [
      "trace 9ab987851715e4090fd9ecffcd0d854c";
      "store 8073447672989366416910273271fb52";
      "run 0x1p+0 354 164 164 0 true 465";
      "wire 424 0 762 762 424 424 0 0 0";
      "view 0 0 0 0 0 0 0 0 0";
    ]
  in
  check_pins ~incremental:pins ~from_scratch:pins
    (run_pins (topo_of_links links) (localized p))

(* Allocation budget of the join core and the in-process wire, in
   words allocated (minor-heap words plus words allocated directly in
   the major heap) per unit of work: per derivation of the centralized
   semi-naive evaluator on reachability over an 8x8 grid, and per
   delivered message of a distributed path-vector run on a 48-node
   ring with incremental view refresh, the default.  Each figure is
   taken on a warm second run, so that interning the programs' values
   the first time is not counted.  Allocation is
   deterministic for a given build, so the bounds are exact
   measurements with headroom, not timings. *)
let allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let eval_words_per_derivation () =
  let p = Programs.with_links (Programs.reachability ()) (Programs.grid_links 8) in
  let info = Ndlog.Analysis.analyze_exn p in
  let go () =
    allocated (fun () -> Eval.seminaive p info (Store.of_facts p.Ast.facts))
  in
  ignore (go ());
  let out, words = go () in
  words /. float_of_int out.Eval.derivations

let runtime_words_per_delivery () =
  let links = Programs.ring_links 48 in
  let p = localized (Programs.with_links (Programs.path_vector ()) links) in
  let go () =
    let rt = Runtime.create ~incremental_views:true (topo_of_links links) p in
    Runtime.load_facts rt;
    allocated (fun () -> Runtime.run rt)
  in
  ignore (go ());
  let rep, words = go () in
  words /. float_of_int rep.Runtime.stats.Netsim.Sim.messages_delivered

(* Path-vector with every predicate on a lease of [lifetime]: soft
   state, so its views refresh at every instant that changes a store. *)
let soft_path_vector ~lifetime =
  let p = Programs.path_vector () in
  {
    p with
    Ast.decls =
      List.map
        (fun (d : Ast.decl) ->
          { d with Ast.decl_lifetime = Ast.Lifetime lifetime })
        p.Ast.decls;
  }

(* The minor-heap words the refresh walks of one run of [program] on a
   48-node ring allocate ({!Runtime.refresh_words}) and the node
   refreshes they ran, on a warm second run: exact, and independent of
   what ran before. *)
let refresh_words program =
  let links = Programs.ring_links 48 in
  let p = localized (Programs.with_links program links) in
  let go () =
    let rt = Runtime.create ~incremental_views:true (topo_of_links links) p in
    Runtime.load_facts rt;
    ignore (Runtime.run rt);
    (Runtime.refresh_words rt, Runtime.refresh_nodes rt)
  in
  ignore (go ());
  go ()

(* The first two bounds are 60% of the figures of the executor and
   delivery path that kept per-call containers: 177.3 words per
   derivation, and 1861.8 words per delivery when this case runs after
   the rest of its group (1947.1 alone — the intern table's state
   shifts the figure a little).  The delivery bound was then tightened
   below the 672.3–723.2 words that a refresh building its containers
   per node, stratum and round still allocated per delivery (the figure
   moves by about 25 words between runs of the suite).  Hard-state
   path-vector refreshes on demand, once per run: its bound is 60% of
   the refresh words per run of the per-instant walk it replaced
   (1,098,992 words over 2,304 node refreshes; 553,648 words now).
   Soft-state path-vector, run to quiescence so its leases lapse,
   still refreshes at every instant; its per-node bound is that walk's
   own 2,004.4 words per node refresh, which it now beats.  The current
   figures are printed for the log. *)
let test_allocation_budget () =
  let e = eval_words_per_derivation () and r = runtime_words_per_delivery () in
  let run_words, _ = refresh_words (Programs.path_vector ()) in
  let soft_words, soft_nodes =
    refresh_words (soft_path_vector ~lifetime:1000.0)
  in
  let per_node = soft_words /. float_of_int soft_nodes in
  Printf.printf
    "eval %.1f words/derivation, runtime %.1f words/delivery, refresh %.0f \
     words/run, soft refresh %.1f words/node refresh\n"
    e r run_words per_node;
  checkb "eval words per derivation <= 106" true (e <= 106.0);
  checkb "runtime words per delivery <= 600" true (r <= 600.0);
  checkb "refresh words per run <= 659395" true (run_words <= 659_395.0);
  checkb "soft refresh words per node refresh <= 2004" true
    (per_node <= 2004.0)

(* The full message trace of a run is deterministic: two identically
   configured runtimes produce identical traces. *)
let test_trace_determinism () =
  let links = Programs.ring_links 5 in
  let p = localized (Programs.with_links (Programs.path_vector ()) links) in
  let go () =
    let rt = Runtime.create (topo_of_links links) p in
    Netsim.Sim.set_tracing (Runtime.simulator rt) true;
    Runtime.load_facts rt;
    ignore (Runtime.run rt);
    Netsim.Sim.trace (Runtime.simulator rt)
  in
  let t1 = go () in
  let t2 = go () in
  checkb "trace nonempty" true (t1 <> []);
  checkb "identical message traces" true (t1 = t2)

(* Whole-network iterations walk nodes in sorted name order, so the
   trace cannot depend on hash-table internals: runtimes built from
   permuted node-insertion orders behave identically. *)
let det_view_src =
  {|
materialize(obs, infinity).
materialize(noise, infinity).
materialize(best, infinity).
materialize(rep, 10).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 rep(@D, S, C) :- best(@S, D, C).
|}

let test_node_order_determinism () =
  let mk order =
    let topo = Topo.create () in
    List.iter (Topo.add_node topo) order;
    List.iter
      (fun (a, b) -> Topo.add_duplex topo a b)
      [ ("n0", "n1"); ("n1", "n2"); ("n2", "n0") ];
    let p = Programs.parse_exn det_view_src in
    let p =
      {
        p with
        Ast.facts =
          [
            Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 5 ];
            Ast.fact ~loc:0 "obs" [ V.Addr "n1"; V.Addr "n2"; V.Int 5 ];
            Ast.fact ~loc:0 "obs" [ V.Addr "n2"; V.Addr "n0"; V.Int 5 ];
            (* unlocated: exercises the broadcast path *)
            Ast.fact "noise" [ V.Int 0 ];
          ];
      }
    in
    let rt = Runtime.create topo p in
    Netsim.Sim.set_tracing (Runtime.simulator rt) true;
    Runtime.load_facts rt;
    ignore (Runtime.run rt ~until:3.0);
    (Netsim.Sim.trace (Runtime.simulator rt), Runtime.global_store rt)
  in
  let t1, db1 = mk [ "n0"; "n1"; "n2" ] in
  let t2, db2 = mk [ "n2"; "n0"; "n1" ] in
  let t3, db3 = mk [ "n1"; "n2"; "n0" ] in
  checkb "trace nonempty" true (t1 <> []);
  checkb "permuted insertion: same trace (1=2)" true (t1 = t2);
  checkb "permuted insertion: same trace (1=3)" true (t1 = t3);
  checkb "same stores" true (Store.equal db1 db2 && Store.equal db1 db3)

(* ------------------------------------------------------------------ *)
(* View shipping: diff-only, with soft leases renewed while derived. *)

let ship_view_src =
  {|
materialize(link, infinity).
materialize(obs, 3).
materialize(noise, infinity).
materialize(best, infinity).
materialize(rep, 10).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 rep(@D, S, C) :- best(@S, D, C).
|}

let test_view_shipping_diff_and_expiry () =
  let links = Programs.both "n0" "n1" 1 in
  let p = Programs.with_links (Programs.parse_exn ship_view_src) links in
  let p =
    {
      p with
      Ast.facts =
        p.Ast.facts
        @ [ Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 7 ] ];
    }
  in
  let rt = Runtime.create (topo_of_links links) p in
  Runtime.load_facts rt;
  let r1 = Runtime.run rt ~until:2.0 in
  (* The soft remote view tuple arrived and is held at n1.  (The old
     runtime wiped received view tuples on the receiver's next refresh
     and re-shipped them from the source forever.) *)
  checki "rep shipped to n1" 1
    (Store.cardinal "rep" (Runtime.node_store rt "n1"));
  checkb "initial run shipped" true (r1.Runtime.stats.Netsim.Sim.messages_sent > 0);
  (* Repeated refreshes (each insertion schedules one) must not re-ship
     the already-shipped view tuple: the follow-up run windows see no
     messages at all (run stats are per-run as of PR 9). *)
  Runtime.insert rt "n0" "noise" [| V.Int 1 |];
  ignore (Runtime.run rt ~until:2.2);
  Runtime.insert rt "n0" "noise" [| V.Int 2 |];
  Runtime.insert rt "n1" "noise" [| V.Int 3 |];
  let r2 = Runtime.run rt ~until:2.4 in
  checki "refreshes do not re-ship" 0 r2.Runtime.stats.Netsim.Sim.messages_sent;
  (* Once the source's support (obs, lifetime 3) expires, the source
     stops deriving rep, renewals stop, and n1's lease lapses: the soft
     remote view tuple actually expires. *)
  let r3 = Runtime.run rt ~until:60.0 in
  checkb "quiesced" true r3.Runtime.stats.Netsim.Sim.quiesced;
  checki "best withdrawn at n0" 0
    (Store.cardinal "best" (Runtime.node_store rt "n0"));
  checki "remote soft view expired at n1" 0
    (Store.cardinal "rep" (Runtime.node_store rt "n1"));
  checki "no shipping storm" 0 r3.Runtime.stats.Netsim.Sim.messages_sent

(* ------------------------------------------------------------------ *)
(* The remote-view-deletion check. *)

let soft_dep_src =
  {|
materialize(link, infinity).
materialize(obs, 5).
materialize(cnt, infinity).
materialize(rep, infinity).

c1 cnt(@S, D, min<C>) :- obs(@S, D, C).
c2 rep(@D, S, C) :- cnt(@S, D, C).
|}

let neg_dep_src =
  {|
materialize(link, infinity).
materialize(flag, infinity).
materialize(m, infinity).
materialize(warn, infinity).

g1 m(@S, min<C>) :- link(@S, D, C).
g2 warn(@D, S) :- m(@S, C), link(@S, D, C2), !flag(@S, D).
|}

let test_remote_view_check_rejects () =
  (* Hard view head shipped remotely over soft support: rejected. *)
  (match
     Runtime.create
       (topo_of_links (Programs.both "n0" "n1" 1))
       (Programs.parse_exn soft_dep_src)
   with
  | exception Runtime.Remote_view_deletion e ->
    checkb "soft cause names obs" true
      (match e.Runtime.rv_cause with
      | Runtime.Soft_dependency "obs" -> true
      | _ -> false);
    checkb "names the view pred" true (e.Runtime.rv_pred = "rep")
  | _ -> Alcotest.fail "expected Remote_view_deletion (soft support)");
  (* Hard view head shipped remotely with negation in support. *)
  match
    Runtime.create
      (topo_of_links (Programs.both "n0" "n1" 1))
      (Programs.parse_exn neg_dep_src)
  with
  | exception Runtime.Remote_view_deletion e ->
    checkb "negation cause" true
      (match e.Runtime.rv_cause with
      | Runtime.Negation_dependency _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected Remote_view_deletion (negation)"

let test_remote_view_check_accepts_canonical () =
  let links = Programs.ring_links 4 in
  List.iter
    (fun prog ->
      let p = localized (Programs.with_links prog links) in
      ignore (Runtime.create (topo_of_links links) p))
    [
      Programs.path_vector ();
      Programs.distance_vector ();
      Programs.bounded_distance_vector ~max_hops:4;
      Programs.reachability ();
      Programs.link_state ~max_hops:4;
      Programs.heartbeat ~lifetime:5;
    ];
  (* Soft view heads shipped remotely are fine: lease expiry is the
     remote deletion mechanism. *)
  ignore
    (Runtime.create
       (topo_of_links (Programs.both "n0" "n1" 1))
       (Programs.parse_exn ship_view_src))

(* ------------------------------------------------------------------ *)
(* Incremental view refresh: the dirty-predicate tracking path must be
   observationally identical to the from-scratch oracle, and must
   actually skip work. *)

(* Schedule each step's [(node, pred, tuple)] insertions at the step's
   simulated time [until]. *)
let schedule_steps rt steps =
  List.iter
    (fun (until, insertions) ->
      Netsim.Sim.at (Runtime.simulator rt) ~time:until (fun () ->
          List.iter
            (fun (nm, pred, tuple) -> Runtime.insert rt nm pred tuple)
            insertions))
    steps

(* Run [p] over [links] under both refresh modes and list every
   observable difference ([] when they agree).  [steps] drives the run:
   each [(until, insertions)] inserts at simulated time [until], runs
   the simulator to [until] and compares every node's store and lease
   table; a final run to t = 80 is followed by the full comparison —
   node stores, global fixpoint, message trace, leases and insert
   counts.  Also returns the incremental run's view-refresh counters
   and its final global store. *)
let refresh_modes_diff links p steps =
  let nodes = Topo.nodes (topo_of_links links) in
  let snapshots rt =
    List.map
      (fun nm -> (nm, Runtime.node_store rt nm, Runtime.node_leases rt nm))
      nodes
  in
  let go ~incremental_views =
    let rt = Runtime.create ~incremental_views (topo_of_links links) p in
    Netsim.Sim.set_tracing (Runtime.simulator rt) true;
    Runtime.load_facts rt;
    schedule_steps rt steps;
    let views = ref Eval.zero_stats in
    let run until =
      let rep = Runtime.run rt ~until in
      views := Eval.add_stats !views rep.Runtime.view_stats;
      rep
    in
    let mid =
      List.map
        (fun (until, _) ->
          ignore (run until);
          (until, snapshots rt))
        steps
    in
    let rep = run 80.0 in
    (rt, rep, mid, !views)
  in
  let rt_i, rep_i, mid_i, views_i = go ~incremental_views:true in
  let rt_s, rep_s, mid_s, _ = go ~incremental_views:false in
  let node_diffs label a b =
    List.concat
      (List.map2
         (fun (nm, store_a, leases_a) (_, store_b, leases_b) ->
           (if Store.equal store_a store_b then []
            else [ Printf.sprintf "%s: store of %s" label nm ])
           @
           if leases_a = leases_b then []
           else [ Printf.sprintf "%s: leases of %s" label nm ])
         a b)
  in
  let check what ok = if ok then [] else [ what ] in
  let diffs =
    List.concat
      (List.map2
         (fun (until, a) (_, b) ->
           node_diffs (Printf.sprintf "t=%g" until) a b)
         mid_i mid_s)
    @ node_diffs "final" (snapshots rt_i) (snapshots rt_s)
    @ check "incremental run quiesced" rep_i.Runtime.stats.Netsim.Sim.quiesced
    @ check "from-scratch run quiesced" rep_s.Runtime.stats.Netsim.Sim.quiesced
    @ check "global store"
        (Store.equal (Runtime.global_store rt_i) (Runtime.global_store rt_s))
    @ check "insert counts"
        (rep_i.Runtime.total_inserts = rep_s.Runtime.total_inserts)
    @ check "message trace"
        (Netsim.Sim.trace (Runtime.simulator rt_i)
        = Netsim.Sim.trace (Runtime.simulator rt_s))
  in
  (diffs, views_i, Runtime.global_store rt_i)

(* Aggregates over a lower view: [best] (min) feeds a plain filter
   [far], a count over it, a sum and max over [best] itself, and a
   shipped soft copy [rep].  Replacing a best path removes a [best]
   tuple, so the removal reaches the upper aggregates through the
   lower strata's movement, not through expiry directly. *)
let agg_lower_view_src =
  {|
materialize(link, infinity).
materialize(obs, 3).
materialize(best, infinity).
materialize(far, infinity).
materialize(nfar, infinity).
materialize(load, infinity).
materialize(worst, infinity).
materialize(rep, 10).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 far(@S, D, C) :- best(@S, D, C), C > 4.
v3 nfar(@S, count<D>) :- far(@S, D, C).
v4 load(@S, sum<C>) :- best(@S, D, C).
v5 worst(@S, max<C>) :- best(@S, D, C).
v6 rep(@D, S, C) :- best(@S, D, C).
|}

(* [best] comes from soft [obs] at n1 and from hard [keep] at n0, and
   [rep] is derived at both ends of every [best] tuple: n1 derives
   rep(@n1,n0,7) itself until its [obs] lapses at t = 3, and n0 ships
   it the same tuple, leased to t = 11 and renewed every 5. *)
let rederived_view_src =
  {|
materialize(link, infinity).
materialize(obs, 3).
materialize(keep, infinity).
materialize(best, infinity).
materialize(rep, 10).

b1 best(@S, D, min<C>) :- obs(@S, D, C).
b2 best(@S, D, min<C>) :- keep(@S, D, C).
r1 rep(@D, S, C) :- best(@S, D, C).
r2 rep(@S, D, C) :- best(@S, D, C).
|}

(* A node shows its own part of the view fixpoint plus its live
   leases: stepped one instant at a time, every view tuple in a node's
   store is located there (or unlocated), and every leased view tuple
   is in it — also one the node stopped deriving while the sender
   still renews it. *)
let test_node_shows_own_part_and_leases () =
  let links = Programs.both "n0" "n1" 1 in
  let fact pred args = Ast.fact ~loc:0 pred args in
  let edge s d = [ V.Addr s; V.Addr d; V.Int 7 ] in
  let program src facts =
    let p = Programs.with_links (Programs.parse_exn src) links in
    { p with Ast.facts = p.Ast.facts @ facts }
  in
  let violations (name, p) =
    let rt = Runtime.create (topo_of_links links) p in
    Runtime.load_facts rt;
    let views = List.concat_map fst (Runtime.refresh_strata rt) in
    let loc_of pred =
      List.find_map
        (fun (r : Ast.rule) ->
          if r.Ast.head.Ast.head_pred = pred then r.Ast.head.Ast.head_loc
          else None)
        p.Ast.rules
    in
    let show pred tuple = Fmt.str "%s%a" pred Store.Tuple.pp tuple in
    let sim = Runtime.simulator rt in
    let rec go acc =
      let t = Netsim.Sim.next_time sim in
      if t > 30.0 then acc
      else begin
        ignore (Runtime.run rt ~until:t);
        let at nm =
          let store = Runtime.node_store rt nm in
          let foreign =
            List.concat_map
              (fun pred ->
                List.filter_map
                  (fun tuple ->
                    match loc_of pred with
                    | Some i when V.as_addr tuple.(i) <> nm ->
                      Some
                        (Printf.sprintf "%s t=%g: %s shows %s" name t nm
                           (show pred tuple))
                    | _ -> None)
                  (Store.tuples pred store))
              views
          and hidden =
            List.filter_map
              (fun ((pred, tuple), _) ->
                if List.mem pred views && not (Store.mem pred tuple store)
                then
                  Some
                    (Printf.sprintf "%s t=%g: %s leases but hides %s" name t
                       nm (show pred tuple))
                else None)
              (Runtime.node_leases rt nm)
          in
          foreign @ hidden
        in
        go (acc @ at "n0" @ at "n1")
      end
    in
    go []
  in
  Alcotest.(check (list string))
    "own part plus live leases" []
    (List.concat_map violations
       [
         ("ship_view", program ship_view_src [ fact "obs" (edge "n0" "n1") ]);
         ( "agg_lower_view",
           program agg_lower_view_src [ fact "obs" (edge "n0" "n1") ] );
         ( "rederived_view",
           program rederived_view_src
             [ fact "obs" (edge "n1" "n0"); fact "keep" (edge "n0" "n1") ] );
       ])

(* The from-scratch refresh mode over the [obs]-driven [best]: a
   multi-atom aggregate [cheap] (outside the re-fold shape) and a
   negation [lone], every head at [@S].  [obs] is hard state here, so
   the quiesced global store is a fixpoint [Eval.naive] can check. *)
let scratch_view_src =
  {|
materialize(link, infinity).
materialize(obs, infinity).
materialize(flag, infinity).
materialize(best, infinity).
materialize(cheap, infinity).
materialize(lone, infinity).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 cheap(@S, count<D>) :- best(@S, D, C), link(@S, D, C2), C2 < C.
v3 lone(@S, D) :- best(@S, D, C), !flag(@S, D).
|}

(* Differential property: over random localized view programs ×
   topologies × refresh/expiry interleavings, the incremental and
   from-scratch runtimes produce bit-identical per-node stores, global
   fixpoints, message traces, and lease tables; the hard-state last
   program's global store is also [Eval.naive]'s fixpoint of its facts
   and insertions.  The generator is pure ints, so every failure is
   replayable from the printed seed. *)
let prop_incremental_equivalence =
  QCheck.Test.make
    ~name:
      "incremental = from-scratch refresh (stores, traces, leases)"
    ~count:20
    QCheck.(
      quad (int_range 0 4) (int_range 0 2) (int_range 3 6) (int_range 0 4))
    (fun (prog_i, topo_i, n, extra) ->
      let links =
        match topo_i with
        | 0 -> Programs.ring_links n
        | 1 -> Programs.grid_links (2 + (n mod 2))
        | _ -> Programs.star_links n
      in
      let endpoints =
        List.filter_map
          (fun (f : Ast.fact) ->
            match f.Ast.fact_args with
            | [ s; d; _ ] -> Some (V.as_addr s, V.as_addr d)
            | _ -> None)
          links
      in
      (* A deterministic slice of the links drives the staged
         mid-run insertions (new costs / refreshed observations). *)
      let staged =
        List.filteri (fun i _ -> i mod 3 = extra mod 3) endpoints
      in
      let over_obs = prog_i >= 2 in
      let with_obs ?(facts = []) src =
        let p = Programs.with_links (Programs.parse_exn src) links in
        {
          p with
          Ast.facts =
            p.Ast.facts
            @ List.map
                (fun (s, d) ->
                  Ast.fact ~loc:0 "obs" [ V.Addr s; V.Addr d; V.Int 7 ])
                staged
            @ facts;
        }
      in
      let p =
        match prog_i with
        | 0 ->
          localized (Programs.with_links (Programs.path_vector ()) links)
        | 1 ->
          localized
            (Programs.with_links
               (Programs.bounded_distance_vector ~max_hops:(n + 1))
               links)
        | 2 ->
          (* Soft support under a shipped soft view: obs expires, best
             is withdrawn, rep's remote lease lapses. *)
          with_obs ship_view_src
        | 3 ->
          (* Count, sum and max re-folded over expiring soft support,
             one of them over a lower view. *)
          with_obs agg_lower_view_src
        | _ ->
          (* Negation and a multi-atom aggregate, refreshed from
             scratch as [best] moves; every other staged pair is
             flagged. *)
          with_obs scratch_view_src
            ~facts:
              (List.filteri
                 (fun i _ -> i mod 2 = 0)
                 (List.map
                    (fun (s, d) ->
                      Ast.fact ~loc:0 "flag" [ V.Addr s; V.Addr d ])
                    staged))
      in
      (* Interleave insertions with partial runs so refreshes land
         between (and during) lease windows.  Under the hard [obs] of
         the last program, each new observation undercuts [best]. *)
      let steps =
        List.mapi
          (fun i (s, d) ->
            ( 1.0 +. (0.5 *. float_of_int i),
              [
                (if over_obs then
                   let c = if prog_i = 4 then 6 - i else 9 + i in
                   (s, "obs", [| V.Addr s; V.Addr d; V.Int c |])
                 else (s, "link", [| V.Addr s; V.Addr d; V.Int (2 + i) |]));
              ] ))
          staged
      in
      let diffs, _, global = refresh_modes_diff links p steps in
      diffs = []
      && (prog_i < 4
         ||
         let inserted =
           List.concat_map
             (fun (_, ins) ->
               List.map
                 (fun (_, pred, t) -> Ast.fact ~loc:0 pred (Array.to_list t))
                 ins)
             steps
         in
         let p = { p with Ast.facts = p.Ast.facts @ inserted } in
         let naive =
           Eval.naive p (Ndlog.Analysis.analyze_exn p)
             (Store.of_facts p.Ast.facts)
         in
         naive.Eval.converged && Store.equal naive.Eval.db global))

(* ------------------------------------------------------------------ *)
(* Group-wise aggregate re-fold: every aggregate kind, under soft
   support whose expiry both shrinks and empties groups, must match the
   from-scratch oracle step by step. *)

(* Soft observations on a 3-node line, lifetime 3.  Group (n0, n1)
   grows to {3, 5, 8, 9} and then shrinks as the facts lapse at t = 3
   ({3, 9}), t = 4 ({9}), and empties at t = 5; group (n0, n2) empties
   at t = 3; group (n1, n2) shrinks to {1} at t = 3; (n1, n0, 2) is
   renewed at t = 2.5 and lapses at t = 5.5. *)
let agg_refold_links = Programs.line_links 3

let agg_refold_program src =
  let obs s d c = Ast.fact ~loc:0 "obs" [ V.Addr s; V.Addr d; V.Int c ] in
  let p = Programs.with_links (Programs.parse_exn src) agg_refold_links in
  {
    p with
    Ast.facts =
      p.Ast.facts
      @ [
          obs "n0" "n1" 5; obs "n0" "n1" 8; obs "n0" "n2" 4; obs "n1" "n2" 6;
          obs "n1" "n0" 2;
        ];
  }

let agg_refold_steps =
  let obs s d c = (s, "obs", [| V.Addr s; V.Addr d; V.Int c |]) in
  [
    (0.5, []);
    (1.0, [ obs "n0" "n1" 3 ]);
    (1.5, []);
    (2.0, [ obs "n0" "n1" 9; obs "n1" "n2" 1 ]);
    (2.5, [ obs "n1" "n0" 2 ]);
    (3.5, []);
    (4.5, []);
    (5.2, []);
    (6.0, []);
  ]

(* The same steps, with [obs] tuples of arity 4 and 2 landing in group
   (n0, n1) at t = 1 (the lower cost would win the min if it leaked
   in, and count would see it) and lapsing with the others. *)
let mixed_arity_steps =
  let n0 = V.Addr "n0" and n1 = V.Addr "n1" in
  List.map
    (fun (until, ins) ->
      if until = 1.0 then
        ( until,
          ins
          @ [
              ("n0", "obs", [| n0; n1; V.Int 1; V.Int 0 |]);
              ("n0", "obs", [| n0; n1 |]);
            ] )
      else (until, ins))
    agg_refold_steps

let agg_refold_cases =
  let over_obs head rule =
    Printf.sprintf
      "materialize(link, infinity).\n\
       materialize(obs, 3).\n\
       materialize(%s, infinity).\n\
       v1 %s :- obs(@S, D, C).\n"
      head rule
  in
  [
    ("max", over_obs "top" "top(@S, D, max<C>)", agg_refold_steps);
    ("count", over_obs "cnt" "cnt(@S, D, count<C>)", agg_refold_steps);
    ("sum", over_obs "tot" "tot(@S, D, sum<C>)", agg_refold_steps);
    ( "several aggregates in one head",
      over_obs "span" "span(@S, D, min<C>, max<C>, count<C>, sum<C>)",
      agg_refold_steps );
    ("over a lower view", agg_lower_view_src, agg_refold_steps);
    (* Head key positions [0; 2; 1]: the head lists the group variables
       in another order than the body. *)
    ( "group keys out of body order",
      "materialize(link, infinity).\n\
       materialize(obs, 3).\n\
       materialize(obs3, infinity).\n\
       materialize(mid, infinity).\n\
       v0 obs3(@S, N, D, C) :- obs(@S, D, C), link(@S, N, K).\n\
       v1 mid(@S, D, N, min<C>) :- obs3(@S, N, D, C).\n",
      agg_refold_steps );
    ( "body tuples of another arity",
      over_obs "lo" "lo(@S, D, min<C>, count<C>)",
      mixed_arity_steps );
  ]

let agg_refold_table =
  List.map
    (fun (name, src, steps) ->
      Alcotest.test_case name `Quick (fun () ->
          let diffs, views, _ =
            refresh_modes_diff agg_refold_links (agg_refold_program src) steps
          in
          Alcotest.(check (list string))
            "incremental = from-scratch at every step" [] diffs;
          checkb "aggregate strata were re-folded" true
            (views.Eval.strata_refolded > 0)))
    agg_refold_cases

(* Each rank of the refresh strata splits into the connected components
   of its non-strict edges: [far], [load], [rep] and [worst] share rank
   2 but read only [best], so the plain [far] and [rep] are seeded and
   the aggregates [load] and [worst] re-folded, where one stratum of all
   four was recomputed from scratch. *)
let test_refresh_strata_components () =
  let rt =
    Runtime.create (topo_of_links agg_refold_links)
      (agg_refold_program agg_lower_view_src)
  in
  let mode = function
    | `Seed -> "seed"
    | `Refold -> "refold"
    | `Scratch -> "scratch"
  in
  Alcotest.(check (list (pair (list string) string)))
    "strata and modes"
    [
      ([ "best" ], "refold");
      ([ "far" ], "seed");
      ([ "load" ], "refold");
      ([ "rep" ], "seed");
      ([ "worst" ], "refold");
      ([ "nfar" ], "refold");
    ]
    (List.map (fun (preds, m) -> (preds, mode m)) (Runtime.refresh_strata rt))

(* The re-fold tracks each group's value as expiry shrinks and then
   empties it (the values the table above only compares across
   modes). *)
let test_refold_tracks_expiry () =
  let p =
    agg_refold_program
      (List.find_map
         (fun (name, src, _) ->
           if name = "several aggregates in one head" then Some src else None)
         agg_refold_cases
      |> Option.get)
  in
  let rt =
    Runtime.create ~incremental_views:true (topo_of_links agg_refold_links) p
  in
  Runtime.load_facts rt;
  schedule_steps rt agg_refold_steps;
  let span d =
    Store.tuples "span" (Runtime.node_store rt "n0")
    |> List.filter (fun t -> V.equal t.(1) (V.Addr d))
    |> List.map (fun t ->
           Array.to_list (Array.map V.as_int (Array.sub t 2 4)))
  in
  let at until expected =
    ignore (Runtime.run rt ~until);
    List.iter
      (fun (d, rows) ->
        Alcotest.(check (list (list int)))
          (Printf.sprintf "span(n0, %s) at t=%g" d until)
          rows (span d))
      expected
  in
  at 0.5 [ ("n1", [ [ 5; 8; 2; 13 ] ]); ("n2", [ [ 4; 4; 1; 4 ] ]) ];
  at 1.5 [ ("n1", [ [ 3; 8; 3; 16 ] ]) ];
  at 2.5 [ ("n1", [ [ 3; 9; 4; 25 ] ]); ("n2", [ [ 4; 4; 1; 4 ] ]) ];
  at 3.5 [ ("n1", [ [ 3; 9; 2; 12 ] ]); ("n2", []) ];
  at 4.5 [ ("n1", [ [ 9; 9; 1; 9 ] ]) ];
  at 5.2 [ ("n1", []) ]

(* Independent semantic oracle: the naive centralized evaluator — the
   simplest evaluator in the repository, sharing no code path with the
   distributed runtime's id-native strands, inbox batching or view
   refresh.  Over hard-state path-vector, bounded distance-vector and
   reachability on ring, grid, star and random topologies (random link
   costs), a distributed run must quiesce, and its global store
   restricted to the source program's predicates (localization adds
   helper relations) must equal [Eval.naive]'s fixpoint of the
   unlocalized program. *)
let dist_equals_naive prog links =
  let full = Programs.with_links prog links in
  let preds =
    List.sort_uniq String.compare
      (List.map (fun (f : Ast.fact) -> f.Ast.fact_pred) full.Ast.facts
      @ List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.head_pred) full.Ast.rules)
  in
  let naive =
    Eval.naive full (Ndlog.Analysis.analyze_exn full)
      (Store.of_facts full.Ast.facts)
  in
  let rt = Runtime.create (topo_of_links links) (localized full) in
  Runtime.load_facts rt;
  let rep = Runtime.run rt in
  naive.Eval.converged
  && rep.Runtime.stats.Netsim.Sim.quiesced
  && Store.equal naive.Eval.db (Store.restrict preds (Runtime.global_store rt))

(* The oracle properties' topologies: ring, grid, star or random over
   about [n] nodes, link costs drawn from [seed]. *)
let gen_links topo_i n seed =
  let cost i = 1 + ((seed + (7 * i)) mod 5) in
  match topo_i with
  | 0 -> Programs.ring_links ~cost n
  | 1 -> Programs.grid_links ~cost (2 + (n mod 2))
  | 2 -> Programs.star_links ~cost n
  | _ -> Programs.random_links ~seed ~extra:(seed mod 4) n

let prop_dist_equals_naive =
  QCheck.Test.make
    ~name:"distributed global store = naive centralized fixpoint"
    ~count:30
    QCheck.(
      quad (int_range 0 2) (int_range 0 3) (int_range 3 7) (int_range 0 1000))
    (fun (prog_i, topo_i, n, seed) ->
      let links = gen_links topo_i n seed in
      let prog =
        match prog_i with
        | 0 -> Programs.path_vector ()
        | 1 -> Programs.bounded_distance_vector ~max_hops:(n + 1)
        | _ -> Programs.reachability ()
      in
      dist_equals_naive prog links)

(* Run [rt] one simulated instant at a time until its simulator drains,
   reading the global store after every instant: the observation points
   of a per-instant refresh.  The messages sent over all the steps. *)
let run_stepped rt =
  let sim = Runtime.simulator rt in
  let rec go sent =
    let t = Netsim.Sim.next_time sim in
    if t = infinity then sent
    else begin
      let rep = Runtime.run rt ~until:t in
      ignore (Runtime.global_store rt);
      go (sent + rep.Runtime.stats.Netsim.Sim.messages_sent)
    end
  in
  go 0

(* Refresh on demand is exact: over random hard-state programs with
   local views — path-vector, bounded distance-vector, and the
   negation and multi-atom aggregate of [scratch_view_src] over seeded
   observations arriving one every half time unit — on the oracle
   properties' topologies, one run to
   quiescence equals a run read at every instant: the same node stores,
   global store, message trace and messages sent.  The single run walks
   once; the stepped one walks at every instant that changed a
   store. *)
let prop_on_demand_equals_stepped =
  QCheck.Test.make
    ~name:"on-demand refresh: one run = a run read at every instant"
    ~count:20
    QCheck.(
      quad (int_range 0 2) (int_range 0 3) (int_range 3 7) (int_range 0 1000))
    (fun (prog_i, topo_i, n, seed) ->
      (* Shrinking can leave [int_range]'s bounds; fewer than three
         nodes may change the stores at one instant only. *)
      let n = max 3 n in
      let links = gen_links topo_i n seed in
      let p, steps =
        match prog_i with
        | 0 -> (Programs.with_links (Programs.path_vector ()) links, [])
        | 1 ->
          ( Programs.with_links
              (Programs.bounded_distance_vector ~max_hops:(n + 1))
              links,
            [] )
        | _ ->
          let p =
            Programs.with_links (Programs.parse_exn scratch_view_src) links
          in
          let pairs =
            List.filteri
              (fun i _ -> i mod 2 = 0)
              (List.filter_map
                 (fun (f : Ast.fact) ->
                   match f.Ast.fact_args with
                   | [ s; d; _ ] -> Some (s, d)
                   | _ -> None)
                 links)
          in
          let flags =
            List.filteri (fun i _ -> i mod 2 = 0) pairs
            |> List.map (fun (s, d) -> Ast.fact ~loc:0 "flag" [ s; d ])
          in
          ( { p with Ast.facts = p.Ast.facts @ flags },
            List.mapi
              (fun i (s, d) ->
                ( 1.0 +. (0.5 *. float_of_int i),
                  [
                    ( V.as_addr s,
                      "obs",
                      [| s; d; V.Int (1 + ((seed + i) mod 7)) |] );
                  ] ))
              pairs )
      in
      let p = localized p in
      let go stepped =
        let rt = Runtime.create (topo_of_links links) p in
        Netsim.Sim.set_tracing (Runtime.simulator rt) true;
        Runtime.load_facts rt;
        schedule_steps rt steps;
        let sent =
          if stepped then run_stepped rt
          else (Runtime.run rt).Runtime.stats.Netsim.Sim.messages_sent
        in
        (rt, sent, Runtime.refresh_walks rt)
      in
      let one, sent_one, walks_one = go false in
      let stepped, sent_stepped, walks_stepped = go true in
      let nodes = Topo.nodes (topo_of_links links) in
      Runtime.refreshes_on_demand one
      && walks_one = 1 && walks_stepped > 1
      && sent_one = sent_stepped
      && Netsim.Sim.trace (Runtime.simulator one)
         = Netsim.Sim.trace (Runtime.simulator stepped)
      && Store.equal (Runtime.global_store one) (Runtime.global_store stepped)
      && List.for_all
           (fun nm ->
             Store.equal (Runtime.node_store one nm)
               (Runtime.node_store stepped nm))
           nodes)

(* A soft-state program keeps the per-instant walk: stepped one instant
   at a time, soft path-vector walks exactly once at every instant that
   changes the global store (its derivations, then its leases lapsing)
   and at no other, and one run to quiescence walks as often. *)
let test_soft_views_walk_per_instant () =
  let links = Programs.ring_links 5 in
  let p =
    localized (Programs.with_links (soft_path_vector ~lifetime:20.0) links)
  in
  let fresh () =
    let rt = Runtime.create (topo_of_links links) p in
    Runtime.load_facts rt;
    rt
  in
  let rt = fresh () in
  checkb "soft state refreshes per instant" false
    (Runtime.refreshes_on_demand rt);
  let sim = Runtime.simulator rt in
  let rec go changed =
    let t = Netsim.Sim.next_time sim in
    if t = infinity then changed
    else begin
      let before = Runtime.global_store rt
      and walks = Runtime.refresh_walks rt in
      ignore (Runtime.run rt ~until:t);
      let moved = not (Store.equal before (Runtime.global_store rt)) in
      checki
        (Printf.sprintf "walks at t=%g" t)
        (if moved then 1 else 0)
        (Runtime.refresh_walks rt - walks);
      go (if moved then changed + 1 else changed)
    end
  in
  let changed = go 0 in
  checkb "leases lapsed: stores emptied" true
    (Store.total_tuples (Runtime.global_store rt) = 0);
  checkb "several instants walked" true (changed > 2);
  let once = fresh () in
  ignore (Runtime.run once);
  checki "one run walks once per changing instant" changed
    (Runtime.refresh_walks once)

(* The same oracle as a fixed table, one named case per program and
   topology, so a regression names the exact configuration that broke.
   Each entry is (name, node count, links); costs vary per link. *)
let oracle_topologies =
  let c3 i = 1 + (i mod 3) in
  [
    ("line-3", 3, Programs.line_links 3);
    ("line-4", 4, Programs.line_links ~cost:c3 4);
    ("line-5", 5, Programs.line_links 5);
    ("line-6", 6, Programs.line_links ~cost:c3 6);
    ("ring-3", 3, Programs.ring_links ~cost:c3 3);
    ("ring-4", 4, Programs.ring_links 4);
    ("ring-5", 5, Programs.ring_links ~cost:c3 5);
    ("ring-6", 6, Programs.ring_links 6);
    ("star-3", 3, Programs.star_links 3);
    ("star-4", 4, Programs.star_links ~cost:c3 4);
    ("star-5", 5, Programs.star_links 5);
    ("star-6", 6, Programs.star_links ~cost:c3 6);
    ("grid-2", 4, Programs.grid_links ~cost:c3 2);
    ("grid-3", 9, Programs.grid_links ~cost:c3 3);
    ("mesh-3", 3, Programs.mesh_links ~cost:(fun i j -> 1 + ((i * j) mod 4)) 3);
    ("mesh-4", 4, Programs.mesh_links ~cost:(fun i j -> 1 + ((i + j) mod 3)) 4);
    ("random-5", 5, Programs.random_links ~seed:1 ~extra:1 5);
    ("random-6", 6, Programs.random_links ~seed:2 ~extra:2 6);
    ("random-6b", 6, Programs.random_links ~seed:3 ~max_cost:3 6);
  ]

let oracle_programs =
  [
    ("path-vector", fun _ -> Programs.path_vector ());
    ( "bounded-dv",
      fun n -> Programs.bounded_distance_vector ~max_hops:(n + 1) );
    ("reachability", fun _ -> Programs.reachability ());
  ]

let oracle_table_cases =
  List.concat_map
    (fun (pname, prog) ->
      List.map
        (fun (tname, n, links) ->
          Alcotest.test_case (pname ^ " " ^ tname) `Quick (fun () ->
              checkb "distributed = naive fixpoint" true
                (dist_equals_naive (prog n) links)))
        oracle_topologies)
    oracle_programs

(* A view program whose support splits cleanly: [best]/[seen] depend on
   [obs] only, so a [noise] insertion must touch no view stratum. *)
let split_view_src =
  {|
materialize(obs, infinity).
materialize(noise, infinity).
materialize(best, infinity).
materialize(seen, infinity).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 seen(@S, D) :- best(@S, D, C).
|}

let split_view_runtime () =
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let p = Programs.parse_exn split_view_src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 5 ];
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 3 ];
        ];
    }
  in
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  rt

(* Dirty-set lifecycle: an insertion marks exactly its base predicate,
   a refresh clears the mark, and view-pred arrivals are never
   marked. *)
let test_dirty_marks_and_clears () =
  let rt = split_view_runtime () in
  ignore (Runtime.run rt);
  Alcotest.(check (list string))
    "refresh cleared the dirty set" [] (Runtime.dirty_preds rt "n0");
  Runtime.insert rt "n0" "obs" [| V.Addr "n0"; V.Addr "n1"; V.Int 9 |];
  Alcotest.(check (list string))
    "insertion marked exactly obs" [ "obs" ]
    (Runtime.dirty_preds rt "n0");
  Alcotest.(check (list string))
    "other nodes untouched" [] (Runtime.dirty_preds rt "n1");
  ignore (Runtime.run rt);
  Alcotest.(check (list string))
    "refresh cleared it again" [] (Runtime.dirty_preds rt "n0")

(* Expiry sweeps mark the predicates whose tuples actually lapsed. *)
let test_dirty_marks_expiry () =
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let p = Programs.parse_exn ship_view_src in
  let p =
    {
      p with
      Ast.facts = [ Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 7 ] ];
    }
  in
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  ignore (Runtime.run rt ~until:1.0);
  checkb "converged with empty dirty set" true
    (Runtime.dirty_preds rt "n0" = []);
  (* Step the simulator event by event: the first re-dirtying of n0 is
     the expiry sweep dropping obs (lifetime 3), before the refresh it
     schedules has run. *)
  let sim = Runtime.simulator rt in
  let steps = ref 0 in
  while
    Runtime.dirty_preds rt "n0" = [] && !steps < 10_000 && Netsim.Sim.step sim
  do
    incr steps
  done;
  Alcotest.(check (list string))
    "sweep marked exactly the expired pred" [ "obs" ]
    (Runtime.dirty_preds rt "n0");
  ignore (Runtime.run rt ~until:60.0);
  Alcotest.(check (list string))
    "refresh cleared it" [] (Runtime.dirty_preds rt "n0");
  checki "support gone: view withdrawn" 0
    (Store.cardinal "best" (Runtime.node_store rt "n0"))

(* An inbox flush marks exactly the predicates it delivered. *)
let test_dirty_marks_flush () =
  let src =
    {|
materialize(t, infinity).
materialize(s, infinity).
materialize(agg, infinity).

b1 s(@D,X) :- t(@S,X,D).
v1 agg(@D, min<X>) :- s(@D,X).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts = [ Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 1; V.Addr "n1" ] ];
    }
  in
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  let sim = Runtime.simulator rt in
  let steps = ref 0 in
  while
    Runtime.dirty_preds rt "n1" = [] && !steps < 10_000 && Netsim.Sim.step sim
  do
    incr steps
  done;
  Alcotest.(check (list string))
    "flush marked exactly the delivered pred" [ "s" ]
    (Runtime.dirty_preds rt "n1");
  ignore (Runtime.run rt);
  checki "delivered tuple derived the view" 1
    (Store.cardinal "agg" (Runtime.node_store rt "n1"))

(* An untouched stratum costs zero evaluation work: a [noise] insertion
   outside every view's support refreshes with all strata skipped and
   nothing enumerated. *)
let test_untouched_stratum_zero_work () =
  let rt = split_view_runtime () in
  ignore (Runtime.run rt);
  Runtime.insert rt "n0" "noise" [| V.Int 1 |];
  let rep = Runtime.run rt in
  let vs = rep.Runtime.view_stats in
  checkb "strata were skipped" true (vs.Eval.strata_skipped > 0);
  checki "no fallbacks" 0 vs.Eval.refresh_fallbacks;
  checki "zero tuples enumerated by refresh" 0 vs.Eval.enumerated;
  checki "zero index probes by refresh" 0 vs.Eval.index_hits;
  (* A support insertion, by contrast, re-folds the aggregate stratum's
     one touched group; the new minimum replaces the old [best] tuple,
     so the plain stratum above, whose support lost that tuple, is
     recomputed from scratch. *)
  Runtime.insert rt "n0" "obs" [| V.Addr "n0"; V.Addr "n1"; V.Int 1 |];
  let rep2 = Runtime.run rt in
  let vs2 = rep2.Runtime.view_stats in
  checki "aggregate stratum re-folded" 1 vs2.Eval.strata_refolded;
  checki "downstream plain stratum fell back" 1 vs2.Eval.refresh_fallbacks;
  let n0 = Runtime.node_store rt "n0" in
  checkb "new minimum took over" true
    (Store.tuples "best" n0
    |> List.exists (fun t -> V.equal t.(2) (V.Int 1)));
  checki "seen maintained through the seeded stratum" 1
    (Store.cardinal "seen" n0)

(* The ship paths guard tuple-location resolution with a typed internal
   error instead of a bare [Option.get]; for well-formed programs the
   branch is unreachable — location-less view tuples are classified
   local and never shipped. *)
let test_missing_tuple_location_unreachable () =
  let src =
    {|
materialize(obs, infinity).
materialize(best, infinity).

v1 best(S, D, min<C>) :- obs(@S, D, C).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 4 ];
          Ast.fact ~loc:0 "obs" [ V.Addr "n1"; V.Addr "n0"; V.Int 6 ];
        ];
    }
  in
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let rt = Runtime.create topo p in
  Runtime.load_facts rt;
  (* The unlocated view head refreshes and ships nothing — no
     Missing_tuple_location escapes. *)
  let rep = Runtime.run rt in
  checkb "quiesced without internal error" true
    rep.Runtime.stats.Netsim.Sim.quiesced;
  checki "unlocated view stays local" 1
    (Store.cardinal "best" (Runtime.node_store rt "n0"));
  (* The error itself names the predicate and tuple. *)
  let msg =
    Printexc.to_string
      (Runtime.Missing_tuple_location
         { mtl_pred = "best"; mtl_tuple = [| V.Addr "n0"; V.Int 3 |] })
  in
  checkb "message names the predicate" true
    (contains ~affix:"best" msg);
  checkb "message names the tuple" true
    (contains ~affix:"n0" msg)

(* Remote_view_deletion: printable, and the accept/reject table over
   (head softness × support kind) is exactly as documented. *)
let test_remote_view_printer_and_table () =
  (* Printer: both causes render the predicate chain. *)
  let soft_msg =
    Fmt.str "%a" Runtime.pp_remote_view_error
      { Runtime.rv_pred = "rep"; rv_rule = "c2"; rv_cause = Runtime.Soft_dependency "obs" }
  in
  checkb "soft message names rule, pred, cause" true
    (contains ~affix:"c2" soft_msg
    && contains ~affix:"rep" soft_msg
    && contains ~affix:"obs" soft_msg
    && contains ~affix:"expires" soft_msg);
  let neg_msg =
    Fmt.str "%a" Runtime.pp_remote_view_error
      {
        Runtime.rv_pred = "warn";
        rv_rule = "g2";
        rv_cause = Runtime.Negation_dependency "warn";
      }
  in
  checkb "negation message names rule and flip" true
    (contains ~affix:"g2" neg_msg
    && contains ~affix:"negation" neg_msg);
  (* Accept/reject table.  Rejections (hard head over shrinkable
     support) are covered by [test_remote_view_check_rejects]; the
     accepting rows: *)
  let topo () = topo_of_links (Programs.both "n0" "n1" 1) in
  let accepts src =
    match Runtime.create (topo ()) (Programs.parse_exn src) with
    | _ -> true
    | exception Runtime.Remote_view_deletion _ -> false
  in
  (* soft head × soft support: lease expiry deletes remote copies. *)
  checkb "soft head / soft support accepted" true (accepts ship_view_src);
  (* soft head × negation support: same mechanism covers flips. *)
  checkb "soft head / negation support accepted" true
    (accepts
       {|
materialize(link, infinity).
materialize(flag, infinity).
materialize(m, infinity).
materialize(warn, 10).

g1 m(@S, min<C>) :- link(@S, D, C).
g2 warn(@D, S) :- m(@S, C), link(@S, D, C2), !flag(@S, D).
|});
  (* hard head × hard monotone support: stale-view caveat, not a
     deletion — accepted. *)
  checkb "hard head / hard support accepted" true
    (accepts
       {|
materialize(link, infinity).
materialize(obs, infinity).
materialize(cnt, infinity).
materialize(rep, infinity).

c1 cnt(@S, D, min<C>) :- obs(@S, D, C).
c2 rep(@D, S, C) :- cnt(@S, D, C).
|});
  (* hard head × soft support: rejected (the one deletion would need). *)
  checkb "hard head / soft support rejected" true
    (not (accepts soft_dep_src));
  checkb "hard head / negation support rejected" true
    (not (accepts neg_dep_src))

(* ------------------------------------------------------------------ *)
(* Distance-vector protocol: convergence and count-to-infinity. *)

let test_dv_converges () =
  let topo = Topo.line 3 in
  let dv = Dv.create topo in
  let report = Dv.run dv in
  checkb "quiesced" true report.Dv.stats.Netsim.Sim.quiesced;
  checkb "no infinity" false report.Dv.counted_to_infinity;
  checkb "n0 reaches n2 at cost 2" true (Dv.route_cost dv "n0" "n2" = Some 2);
  checkb "n2 reaches n0 at cost 2" true (Dv.route_cost dv "n2" "n0" = Some 2)

let test_dv_ring_shortest () =
  let topo = Topo.ring 6 in
  let dv = Dv.create topo in
  ignore (Dv.run dv);
  checkb "opposite nodes cost 3" true (Dv.route_cost dv "n0" "n3" = Some 3);
  checkb "neighbors cost 1" true (Dv.route_cost dv "n0" "n1" = Some 1)

let test_dv_count_to_infinity () =
  (* Line n0 - n1 - n2; fail n0<->n1 after convergence.  n2's stale
     route to n0 bounces with n1 until the infinity threshold. *)
  let topo = Topo.line 3 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  Dv.fail_link_at dv ~time:20.0 "n0" "n1";
  let report = Dv.run dv ~until:2000.0 ~max_events:100_000 in
  checkb "counted to infinity" true report.Dv.counted_to_infinity;
  checkb "cost climbed past threshold" true (report.Dv.max_cost_seen >= 32);
  (* After the storm, no usable route to the unreachable node remains. *)
  checkb "n2 lost its route to n0" true (Dv.route_cost dv "n2" "n0" = None)

let test_dv_no_divergence_without_failure () =
  let topo = Topo.line 3 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  let report = Dv.run dv ~until:200.0 ~max_events:100_000 in
  checkb "stable under periodic adverts" false report.Dv.counted_to_infinity;
  checkb "max cost small" true (report.Dv.max_cost_seen <= 2)

let test_dv_failure_with_alternate_path () =
  (* On a ring, losing one link just reroutes the long way. *)
  let topo = Topo.ring 4 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  Dv.fail_link_at dv ~time:20.0 "n0" "n1";
  ignore (Dv.run dv ~until:300.0 ~max_events:200_000);
  checkb "rerouted n0->n1 the long way" true (Dv.route_cost dv "n0" "n1" = Some 3)

let test_dv_converges_under_loss () =
  (* Periodic advertisement makes the naive protocol robust to loss. *)
  let topo = Topo.create () in
  Topo.add_duplex ~loss:0.3 topo "n0" "n1";
  Topo.add_duplex ~loss:0.3 topo "n1" "n2";
  let dv = Dv.create ~seed:3 ~period:5.0 topo in
  let report = Dv.run dv ~until:300.0 ~max_events:200_000 in
  checkb "messages were lost" true
    (report.Dv.stats.Netsim.Sim.messages_dropped > 0);
  checkb "n0 still reaches n2" true (Dv.route_cost dv "n0" "n2" = Some 2);
  checkb "n2 still reaches n0" true (Dv.route_cost dv "n2" "n0" = Some 2)

(* ------------------------------------------------------------------ *)
(* The transport layer (PR 9): wire framing and the multi-process
   supervisor. *)

module Wire = Dist.Wire
module Supervisor = Dist.Supervisor

let sample_frames =
  [
    Wire.Data
      {
        src = "n0";
        dst = "n1";
        pred = "path";
        tuple =
          [|
            V.Addr "n1";
            V.Addr "n3";
            V.List [ V.Addr "n1"; V.Addr "n2"; V.Addr "n3" ];
            V.Int 7;
            V.Str "via";
            V.Bool true;
            V.Int (-12345678901234);
          |];
      };
    Wire.Poll;
    Wire.Status
      {
        Wire.st_idle = true;
        st_sent = 42;
        st_received = 41;
        st_bytes = 123456;
        st_inserts = 9;
      };
    Wire.Idle
      {
        Wire.st_idle = true;
        st_sent = 7;
        st_received = 7;
        st_bytes = 512;
        st_inserts = 3;
      };
    Wire.Dump;
    Wire.Store_dump
      [
        ( "n0",
          [
            ("link", [ [| V.Addr "n0"; V.Addr "n1"; V.Int 1 |] ]);
            ("empty", []);
          ] );
      ];
    Wire.Bye;
  ]

let test_wire_roundtrip () =
  (* Every frame variant and value sort survives encode -> decode, and
     many frames concatenated in one feed pop out in order. *)
  let d = Wire.Decoder.create () in
  List.iter
    (fun f ->
      let b = Wire.encode f in
      Wire.Decoder.feed d b 0 (Bytes.length b))
    sample_frames;
  List.iter
    (fun expect ->
      match Wire.Decoder.next d with
      | Some got -> checkb "frame roundtrips" true (got = expect)
      | None -> Alcotest.fail "decoder starved")
    sample_frames;
  checkb "decoder drained" true (Wire.Decoder.next d = None);
  checki "nothing buffered" 0 (Wire.Decoder.buffered d)

let test_wire_partial_reads () =
  (* A socket delivering one byte at a time: no frame until the last
     byte of each, then exactly that frame. *)
  let d = Wire.Decoder.create () in
  let popped = ref [] in
  List.iter
    (fun f ->
      let b = Wire.encode f in
      Bytes.iteri
        (fun i c ->
          Wire.Decoder.feed d (Bytes.make 1 c) 0 1;
          match Wire.Decoder.next d with
          | Some got ->
            checki "frame completes on its last byte" (Bytes.length b - 1) i;
            popped := got :: !popped
          | None -> ())
        b)
    sample_frames;
  checkb "all frames arrived" true (List.rev !popped = sample_frames)

(* Fuzz: arbitrary bytes fed in arbitrary splits.  The streams mix
   whole encodings of the sample frames with random bytes, then flip a
   few bytes, so both well-formed frames and every kind of corruption
   occur.  Only [Frame_error] may escape [next] (anything else fails the
   property), and [buffered] always equals the bytes fed minus the
   bytes of the frames popped — each pop consuming exactly the 4-byte
   prefix plus the body length it declares. *)
let gen_wire_stream =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map Bytes.to_string (oneofl (List.map Wire.encode sample_frames));
        string_size (0 -- 12);
      ]
  in
  list_size (0 -- 6) piece >>= fun pieces ->
  list_size (0 -- 3) (pair nat char) >>= fun flips ->
  let b = Bytes.of_string (String.concat "" pieces) in
  List.iter
    (fun (i, c) -> if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c)
    flips;
  return (Bytes.to_string b)

let prop_wire_decoder_fuzz =
  QCheck.Test.make ~count:500
    ~name:"Wire.Decoder: arbitrary bytes, arbitrary splits, typed errors"
    QCheck.(
      pair (make ~print:String.escaped gen_wire_stream) (list small_nat))
    (fun (stream, splits) ->
      let d = Wire.Decoder.create () in
      let fed = ref 0 and popped = ref 0 and broken = ref false in
      let declared () =
        let g i = Char.code stream.[!popped + i] in
        (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3
      in
      let consistent () = Wire.Decoder.buffered d = !fed - !popped in
      let rec drain () =
        let before = !popped in
        match Wire.Decoder.next d with
        | None -> consistent ()
        | Some _ ->
          popped := before + 4 + declared ();
          consistent () && drain ()
        | exception Wire.Frame_error _ ->
          broken := true;
          consistent ()
      in
      let rec feed = function
        | _ when !broken || !fed >= String.length stream -> true
        | k :: rest ->
          let n = min (k + 1) (String.length stream - !fed) in
          Wire.Decoder.feed d (Bytes.of_string stream) !fed n;
          fed := !fed + n;
          drain () && feed rest
        | [] -> feed [ String.length stream ]
      in
      feed splits)

let test_wire_oversized_and_bad_tag () =
  (* A corrupt length prefix must raise, not allocate. *)
  let d = Wire.Decoder.create () in
  let header = Bytes.create 4 in
  Bytes.set header 0 (Char.chr 0x7f);
  Bytes.set header 1 '\xff';
  Bytes.set header 2 '\xff';
  Bytes.set header 3 '\xff';
  Wire.Decoder.feed d header 0 4;
  (match Wire.Decoder.next d with
  | exception Wire.Frame_error (Wire.Oversized_frame _) -> ()
  | _ -> Alcotest.fail "expected Oversized_frame");
  (* An unknown body tag is a typed error too. *)
  let d = Wire.Decoder.create () in
  let bad = Bytes.of_string "\x00\x00\x00\x01\x63" in
  Wire.Decoder.feed d bad 0 (Bytes.length bad);
  (match Wire.Decoder.next d with
  | exception Wire.Frame_error (Wire.Bad_tag 0x63) -> ()
  | _ -> Alcotest.fail "expected Bad_tag");
  (* Tag 6 ([Idle]) is the last frame tag: 7 is unknown. *)
  let d = Wire.Decoder.create () in
  let bad = Bytes.of_string "\x00\x00\x00\x01\x07" in
  Wire.Decoder.feed d bad 0 (Bytes.length bad);
  match Wire.Decoder.next d with
  | exception Wire.Frame_error (Wire.Bad_tag 7) -> ()
  | _ -> Alcotest.fail "expected Bad_tag 7"

let test_wire_truncated_stream () =
  (* Peer dies mid-frame: the reader gets a typed truncation, not a
     hang or a short tuple. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let encoded = Wire.encode (List.hd sample_frames) in
  let half = Bytes.length encoded / 2 in
  ignore (Unix.write a encoded 0 half);
  Unix.close a;
  (match Wire.read_frame ~timeout:5.0 b with
  | exception Wire.Frame_error Wire.Truncated_stream -> ()
  | _ -> Alcotest.fail "expected Truncated_stream");
  Unix.close b

let test_wire_read_timeout () =
  (* A silent peer fails the read within the deadline instead of
     blocking forever. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t0 = Unix.gettimeofday () in
  (match Wire.read_frame ~timeout:0.2 b with
  | exception Wire.Frame_error Wire.Read_timeout -> ()
  | _ -> Alcotest.fail "expected Read_timeout");
  checkb "deadline respected" true (Unix.gettimeofday () -. t0 < 2.0);
  Unix.close a;
  Unix.close b

let test_wire_read_frame_back_to_back () =
  (* Frames written back to back come out one per [read_frame]: the
     reader takes the length prefix and then exactly the body, leaving
     the next frame in the socket for the next call. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames = [ Wire.Poll; List.nth sample_frames 0; Wire.Bye ] in
  List.iter (fun f -> ignore (Wire.write_frame a f)) frames;
  List.iter
    (fun expect ->
      checkb "frame read in order" true
        (Wire.read_frame ~timeout:2.0 b = expect))
    frames;
  (* A corrupt length prefix is refused before any allocation. *)
  ignore (Unix.write_substring a "\x7f\xff\xff\xff" 0 4);
  (match Wire.read_frame ~timeout:2.0 b with
  | exception Wire.Frame_error (Wire.Oversized_frame _) -> ()
  | _ -> Alcotest.fail "expected Oversized_frame");
  Unix.close a;
  Unix.close b

let test_wire_partial_writes () =
  (* A frame bigger than the socket buffer: the writer must loop over
     partial writes while a forked reader drains — one write_frame
     call, one intact frame out the other end. *)
  let big =
    Wire.Store_dump
      [
        ( "n0",
          [
            ( "blob",
              List.init 20_000 (fun i ->
                  [| V.Int i; V.Str (String.make 40 'x') |]) );
          ] );
      ]
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    let ok =
      match Wire.read_frame ~timeout:30.0 b with
      | got -> got = big
      | exception _ -> false
    in
    Unix._exit (if ok then 0 else 1)
  | pid ->
    Unix.close b;
    let n = Wire.write_frame a big in
    checkb "frame exceeds one socket buffer" true (n > 256 * 1024);
    Unix.close a;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "reader did not receive the frame intact")

let test_supervisor_matches_sim () =
  (* The tentpole end-to-end: path vector across real processes over
     real sockets converges to the same per-node fixpoints as the
     virtual-clock simulator on the same topology. *)
  let links = Programs.ring_links 4 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let res = Supervisor.run topo loc in
  checki "one worker per node" 4 res.Supervisor.workers;
  checkb "tuples crossed processes" true (res.Supervisor.data_frames > 0);
  checkb "bytes were metered" true
    (res.Supervisor.data_bytes > res.Supervisor.data_frames * 5);
  let rt = Runtime.create topo loc in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  checkb "sim quiesced" true report.Runtime.stats.Netsim.Sim.quiesced;
  checki "every node dumped" 4 (List.length res.Supervisor.stores);
  List.iter
    (fun (node, store) ->
      checkb
        (Printf.sprintf "node %s fixpoint matches the simulator" node)
        true
        (Store.equal store (Runtime.node_store rt node)))
    res.Supervisor.stores

(* Open descriptors, counted through procfs; 0 where it is absent. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Array.length (Sys.readdir "/proc/self/fd")
  else 0

(* Supervisor runs leak no descriptors: every control channel closes on
   every exit, so a long series of runs cannot push descriptors past
   [select]'s range.  Skipped where procfs is absent. *)
let test_supervisor_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let before = open_fds () in
  for _ = 1 to 20 do
    ignore (Supervisor.run topo loc)
  done;
  checki "descriptor count unchanged" before (open_fds ())

(* Quiescence has no false positives: a run declared converged before
   the fixpoint would leave some node's store short of the simulator's.
   Thirty runs on each of three shapes give the idle reports every
   chance to race the confirming wave. *)
let test_supervisor_no_premature_convergence () =
  List.iter
    (fun (shape, links) ->
      let full = Programs.with_links (Programs.path_vector ()) links in
      let loc = localized full in
      let topo = topo_of_links links in
      let rt = Runtime.create topo loc in
      Runtime.load_facts rt;
      ignore (Runtime.run rt);
      for run = 1 to 30 do
        let res = Supervisor.run topo loc in
        checkb (Printf.sprintf "%s run %d: at least one wave" shape run) true
          (res.Supervisor.polls >= 1);
        List.iter
          (fun (node, store) ->
            if not (Store.equal store (Runtime.node_store rt node)) then
              Alcotest.failf "%s run %d: node %s converged early" shape run
                node)
          res.Supervisor.stores
      done)
    [
      ("ring 6", Programs.ring_links 6);
      ("line 5", Programs.line_links 5);
      ("star 5", Programs.star_links 5);
    ]

(* A soft-state program never goes idle on a wall clock: the deadline
   must end the run with [Convergence_timeout], kill and reap every
   worker, and close every descriptor it opened (counted where procfs
   exists). *)
let test_supervisor_timeout () =
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.heartbeat ~lifetime:2) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let before = open_fds () in
  let t0 = Unix.gettimeofday () in
  (match Supervisor.run ~timeout:0.5 topo loc with
  | exception Supervisor.Convergence_timeout _ -> ()
  | _ -> Alcotest.fail "expected Convergence_timeout");
  let waited = Unix.gettimeofday () -. t0 in
  checkb (Printf.sprintf "timed out within 2 s (%.2f s)" waited) true
    (waited < 2.0);
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> Alcotest.fail "a worker was left unreaped");
  checki "descriptor count unchanged" before (open_fds ())

let test_runtime_rejects_foreign_hosted () =
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  match Runtime.create ~hosted:[ "n9" ] topo loc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for unknown hosted node"

let test_simulator_accessor_guard () =
  (* A runtime on a non-simulator transport has no virtual clock to
     script: the accessor must say so, typed. *)
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let dummy =
    {
      Dist.Transport.now = (fun () -> 0.0);
      send = (fun ~src:_ ~dst:_ _ -> false);
      schedule = (fun ~delay:_ _ -> ());
      set_handler = (fun _ _ -> ());
      run =
        (fun ~until:_ ~max_events:_ ->
          {
            Netsim.Sim.final_time = 0.0;
            events = 0;
            messages_sent = 0;
            messages_delivered = 0;
            messages_dropped = 0;
            quiesced = true;
          });
      sim = None;
    }
  in
  let rt = Runtime.create ~transport:dummy topo loc in
  match Runtime.simulator rt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument from simulator accessor"

(* Registration.  Every group runs twice: under its own name with
   incremental views, and under [group ^ " from scratch"] with the
   from-scratch refresh as the default of every runtime a case builds.
   Cases that pin a mode run the same way in both.  Supervisor workers
   build their runtimes in other processes, always with incremental
   views; the in-process reference runtimes the transport cases compare
   them with take the mode. *)
let in_mode incremental cases =
  List.map
    (fun (name, speed, f) ->
      ( name,
        speed,
        fun x ->
          views_incremental := incremental;
          f x ))
    cases

let modes (group, cases) =
  [ (group, in_mode true cases); (group ^ " from scratch", in_mode false cases) ]

let () =
  Alcotest.run "dist"
    (List.concat_map modes
       [
         ( "runtime",
           [
             Alcotest.test_case "line = centralized" `Quick test_dist_line;
             Alcotest.test_case "ring = centralized" `Quick test_dist_ring;
             Alcotest.test_case "asymmetric costs" `Quick test_dist_asymmetric;
             Alcotest.test_case "random reachability" `Quick test_dist_random;
             Alcotest.test_case "reachability scale" `Quick
               test_dist_reachability_scale;
             Alcotest.test_case "best path placement" `Quick
               test_dist_best_path_values;
             Alcotest.test_case "message accounting" `Quick
               test_dist_message_accounting;
             Alcotest.test_case "rejects unlocalized" `Quick
               test_dist_rejects_unlocalized;
             Alcotest.test_case "complex delta argument" `Quick
               test_dist_complex_delta_arg;
             Alcotest.test_case "soft state expiry" `Quick
               test_dist_soft_state_expiry;
           ] );
         ( "batching",
           [
             QCheck_alcotest.to_alcotest prop_batch_inbox_placement;
             Alcotest.test_case "same-instant burst groups" `Quick
               test_same_instant_burst_groups;
             Alcotest.test_case "trace determinism" `Quick
               test_trace_determinism;
             Alcotest.test_case "node-order determinism" `Quick
               test_node_order_determinism;
           ] );
         ( "golden",
           [
             Alcotest.test_case "path-vector ring 8" `Quick
               test_golden_pv_ring8;
             Alcotest.test_case "reachability grid 3" `Quick
               test_golden_reach_grid3;
             Alcotest.test_case "local rule re-triggers its strand" `Quick
               test_golden_self_retrigger;
             Alcotest.test_case "allocation budget" `Quick
               test_allocation_budget;
           ] );
         ( "views",
           [
             Alcotest.test_case "shipping diff + soft expiry" `Quick
               test_view_shipping_diff_and_expiry;
             Alcotest.test_case "own part plus live leases" `Quick
               test_node_shows_own_part_and_leases;
             Alcotest.test_case "remote deletion rejected" `Quick
               test_remote_view_check_rejects;
             Alcotest.test_case "canonical programs accepted" `Quick
               test_remote_view_check_accepts_canonical;
           ] );
         ( "incremental",
           [
             QCheck_alcotest.to_alcotest prop_incremental_equivalence;
             QCheck_alcotest.to_alcotest prop_dist_equals_naive;
             QCheck_alcotest.to_alcotest prop_on_demand_equals_stepped;
             Alcotest.test_case "soft views walk per instant" `Quick
               test_soft_views_walk_per_instant;
             Alcotest.test_case "dirty marks and clears" `Quick
               test_dirty_marks_and_clears;
             Alcotest.test_case "dirty marks expiry" `Quick
               test_dirty_marks_expiry;
             Alcotest.test_case "dirty marks flush" `Quick
               test_dirty_marks_flush;
             Alcotest.test_case "untouched stratum zero work" `Quick
               test_untouched_stratum_zero_work;
             Alcotest.test_case "missing location unreachable" `Quick
               test_missing_tuple_location_unreachable;
             Alcotest.test_case "remote-view printer and table" `Quick
               test_remote_view_printer_and_table;
             Alcotest.test_case "re-fold tracks expiry" `Quick
               test_refold_tracks_expiry;
             Alcotest.test_case "refresh strata per component" `Quick
               test_refresh_strata_components;
           ] );
         ("agg_refold", agg_refold_table);
         ("naive_oracle", oracle_table_cases);
         ( "distance_vector",
           [
             Alcotest.test_case "converges" `Quick test_dv_converges;
             Alcotest.test_case "ring shortest" `Quick test_dv_ring_shortest;
             Alcotest.test_case "count to infinity" `Quick
               test_dv_count_to_infinity;
             Alcotest.test_case "stable without failure" `Quick
               test_dv_no_divergence_without_failure;
             Alcotest.test_case "alternate path reroute" `Quick
               test_dv_failure_with_alternate_path;
             Alcotest.test_case "converges under loss" `Quick
               test_dv_converges_under_loss;
           ] );
         ( "transport",
           [
             Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
             Alcotest.test_case "partial reads" `Quick test_wire_partial_reads;
             Alcotest.test_case "oversized and bad tag" `Quick
               test_wire_oversized_and_bad_tag;
             Alcotest.test_case "truncated stream" `Quick
               test_wire_truncated_stream;
             QCheck_alcotest.to_alcotest prop_wire_decoder_fuzz;
             Alcotest.test_case "read timeout" `Quick test_wire_read_timeout;
             Alcotest.test_case "read_frame keeps back-to-back frames" `Quick
               test_wire_read_frame_back_to_back;
             Alcotest.test_case "partial writes" `Quick
               test_wire_partial_writes;
             Alcotest.test_case "supervisor matches simulator" `Quick
               test_supervisor_matches_sim;
             Alcotest.test_case "supervisor closes its descriptors" `Quick
               test_supervisor_no_fd_leak;
             Alcotest.test_case "no premature convergence" `Quick
               test_supervisor_no_premature_convergence;
             Alcotest.test_case "timeout kills and reaps" `Quick
               test_supervisor_timeout;
             Alcotest.test_case "rejects foreign hosted" `Quick
               test_runtime_rejects_foreign_hosted;
             Alcotest.test_case "simulator accessor guard" `Quick
               test_simulator_accessor_guard;
           ] );
       ])
