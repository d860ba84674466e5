(* The FVN benchmark harness: one experiment per evaluation claim in the
   paper (see DESIGN.md section 3 for the claim -> experiment mapping,
   and EXPERIMENTS.md for paper-vs-measured numbers).

     E1 bestpath-proof            7-step / sub-second route-optimality proof
     E2 count-to-infinity         distance-vector divergence
     E3 disagree-convergence      delayed convergence under policy conflicts
     E4 algebra-obligations       base-algebra axioms discharged automatically
     E5 composition-preservation  lexProduct preservation theorems
     E6 fig2-bgp-pipeline         component model -> NDlog is property-preserving
     E7 ndlog-scaling             declarative execution efficiency
     E9 softstate-rewrite         cost of the hard-state rewrite
     E10 model-checking           transition systems + counterexamples

   Usage:
     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe e3 e7         # selected experiments
     dune exec bench/main.exe quick         # skip the slowest sweeps
     dune exec bench/main.exe e7 e13 json   # also write BENCH_ndlog.json

   Timing columns come from Bechamel (monotonic clock, OLS estimate per
   run); coarse one-shot times use Unix.gettimeofday (true wall
   clock). *)

let quick = ref false

(* ------------------------------------------------------------------ *)
(* Table printing. *)

let rule () = Fmt.pr "%s@." (String.make 76 '-')

let banner id title claim =
  Fmt.pr "@.";
  rule ();
  Fmt.pr "%s: %s@." (String.uppercase_ascii id) title;
  Fmt.pr "paper claim: %s@." claim;
  rule ()

let table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    Fmt.pr "| %s |@."
      (String.concat " | "
         (List.map2
            (fun c w -> c ^ String.make (w - String.length c) ' ')
            cells widths))
  in
  print_row headers;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

(* ------------------------------------------------------------------ *)
(* Bechamel helper: nanoseconds per run of a thunk. *)

let ns_per_run ?(name = "bench") (f : unit -> unit) : float =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name [ test ]) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let estimate = ref nan in
  Hashtbl.iter
    (fun _ v ->
      match Analyze.OLS.estimates v with
      | Some [ e ] -> estimate := e
      | _ -> ())
    results;
  !estimate

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Fmt.str "%.1f us" (ns /. 1e3)
  else Fmt.str "%.0f ns" ns

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* E1: the bestPathStrong proof. *)

let e1 () =
  banner "e1" "route-optimality proof (bestPathStrong)"
    "PVS proves it in 7 interactive steps, in a fraction of a second";
  let thy =
    Logic.Completion.theory_of_program (Ndlog.Programs.path_vector ())
  in
  let goal = (Fvn.Props.route_optimality ()).Fvn.Props.formula in
  let k n = Logic.Term.Fn (n, []) in
  let script =
    [
      ("skosimp*", Logic.Tactic.skosimp);
      ("expand bestPath", Logic.Tactic.expand "bestPath");
      ("flatten", Logic.Tactic.skosimp);
      ( "use bestPathCost_lb",
        Logic.Tactic.use "bestPathCost_lb"
          [ k "S"; k "D"; k "C"; k "P2"; k "C2" ] );
      ("grind", Logic.Tactic.grind ~max_fuel:2);
    ]
  in
  let script_result =
    match Logic.Tactic.run thy goal script with
    | Ok r -> r
    | Error e -> failwith ("scripted proof failed: " ^ e)
  in
  let auto =
    match Logic.Prove.prove thy goal with
    | Ok o -> o
    | Error e -> failwith ("auto proof failed: " ^ e)
  in
  let auto_ns =
    ns_per_run ~name:"bestPathStrong-auto" (fun () ->
        ignore (Logic.Prove.prove thy goal))
  in
  let script_ns =
    ns_per_run ~name:"bestPathStrong-script" (fun () ->
        ignore (Logic.Tactic.run thy goal script))
  in
  table
    [
      "mode"; "interactive steps"; "kernel inferences"; "checked"; "time/proof";
    ]
    [
      [
        "scripted (PVS-style)";
        string_of_int script_result.Logic.Tactic.script_steps;
        string_of_int script_result.Logic.Tactic.proof_size;
        string_of_bool script_result.Logic.Tactic.checked;
        pp_ns script_ns;
      ];
      [
        "automatic";
        "0";
        string_of_int auto.Logic.Prove.steps;
        string_of_bool auto.Logic.Prove.checked;
        pp_ns auto_ns;
      ];
    ];
  Fmt.pr
    "paper: 7 steps, fraction of a second | measured: %d scripted steps, %s@."
    script_result.Logic.Tactic.script_steps (pp_ns script_ns)

(* ------------------------------------------------------------------ *)
(* E2: count-to-infinity. *)

let e2 () =
  banner "e2" "count-to-infinity in distance-vector"
    "FVN exhibits count-to-infinity loops in the distance-vector protocol";
  let rows =
    List.map
      (fun (name, prog, bound) ->
        let p = Ndlog.Programs.with_links prog (Ndlog.Programs.ring_links 3) in
        let o = Ndlog.Eval.run_exn ~max_rounds:bound p in
        [
          name;
          string_of_int o.Ndlog.Eval.rounds;
          string_of_bool o.Ndlog.Eval.converged;
          string_of_int o.Ndlog.Eval.derivations;
        ])
      [
        ("distance-vector", Ndlog.Programs.distance_vector (), 40);
        ("path-vector", Ndlog.Programs.path_vector (), 10_000);
        ( "bounded distance-vector",
          Ndlog.Programs.bounded_distance_vector ~max_hops:8,
          10_000 );
      ]
  in
  Fmt.pr "declarative view (3-node ring, evaluation round bound 40):@.";
  table [ "program"; "rounds"; "converged"; "derivations" ] rows;
  Fmt.pr "@.operational view (line n0-n1-n2, n0<->n1 fails at t=20):@.";
  let rows =
    List.map
      (fun threshold ->
        let topo = Netsim.Topology.line 3 in
        let dv =
          Dist.Dv.create ~infinity_threshold:threshold ~period:5.0 topo
        in
        Dist.Dv.fail_link_at dv ~time:20.0 "n0" "n1";
        let r = Dist.Dv.run dv ~until:5_000.0 ~max_events:200_000 in
        [
          string_of_int threshold;
          string_of_bool r.Dist.Dv.counted_to_infinity;
          string_of_int r.Dist.Dv.max_cost_seen;
          string_of_int r.Dist.Dv.total_advertisements;
        ])
      [ 16; 32; 64 ]
  in
  table
    [
      "infinity threshold"; "counted to infinity"; "max metric";
      "advertisements";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: Disagree: delayed convergence under policy conflicts. *)

let e3 () =
  banner "e3" "policy conflicts: the Disagree scenario"
    "translated NDlog with conflicting policies shows delayed convergence";
  let module Bgp = Component.Bgp in
  let sync name c =
    let o = Bgp.run ~max_rounds:60 c ~schedule:Bgp.Sync in
    [
      name;
      "synchronous";
      string_of_bool o.Bgp.converged;
      string_of_bool o.Bgp.oscillated;
      (match o.Bgp.cycle_length with Some n -> string_of_int n | None -> "-");
      string_of_int o.Bgp.flaps;
    ]
  in
  let rr name c =
    let o = Bgp.run ~max_rounds:400 c ~schedule:Bgp.Pair_round_robin in
    [
      name;
      "round-robin";
      string_of_bool o.Bgp.converged;
      string_of_bool o.Bgp.oscillated;
      string_of_int o.Bgp.rounds;
      string_of_int o.Bgp.flaps;
    ]
  in
  table
    [ "config"; "schedule"; "converged"; "oscillated"; "cycle/rounds"; "flaps" ]
    [
      sync "disagree" Bgp.disagree;
      sync "agree" Bgp.agree;
      rr "disagree" Bgp.disagree;
      rr "agree" Bgp.agree;
    ];
  let runs = if !quick then 8 else 25 in
  let profile c = Bgp.convergence_profile ~runs ~max_rounds:600 c in
  let stats l f =
    let vals = List.map f l in
    let sum = List.fold_left ( + ) 0 vals in
    let mean = float_of_int sum /. float_of_int (List.length vals) in
    let mx = List.fold_left max 0 vals in
    (mean, mx)
  in
  let row name c =
    let p = profile c in
    let mr, xr = stats p (fun (_, r, _) -> r) in
    let mf, xf = stats p (fun (_, _, f) -> f) in
    [
      name;
      string_of_int (List.length (List.filter (fun (c, _, _) -> c) p));
      Fmt.str "%.1f" mr;
      string_of_int xr;
      Fmt.str "%.1f" mf;
      string_of_int xf;
    ]
  in
  Fmt.pr "@.near-synchronous random schedules (%d seeds):@." runs;
  table
    [
      "config"; "converged"; "mean rounds"; "max rounds"; "mean flaps";
      "max flaps";
    ]
    [ row "disagree" Bgp.disagree; row "agree" Bgp.agree ];
  (* Formal classification via the SPP bridge. *)
  let cls c =
    match Bgp.classify c ~dest:"d0" with
    | Ok Spp.Solver.Unique -> "unique (safe)"
    | Ok (Spp.Solver.Multiple n) -> Fmt.str "%d stable states (wedged)" n
    | Ok Spp.Solver.Unsolvable -> "unsolvable (divergent)"
    | Error e -> e
  in
  Fmt.pr "@.static classification (stable paths problem): disagree = %s, \
          agree = %s@."
    (cls Bgp.disagree) (cls Bgp.agree);
  Fmt.pr
    "shape check: disagree oscillates under synchrony, converges late and \
     flaps more under near-synchrony@."

(* ------------------------------------------------------------------ *)
(* E4: base algebra obligations. *)

let e4 () =
  banner "e4" "metarouting proof obligations for the base algebras"
    "the proof obligations are automatically discharged for all base algebras";
  let module A = Algebra.Axioms in
  let status = function
    | A.Discharged n -> Fmt.str "yes (%d)" n
    | A.Refuted _ -> "NO"
  in
  let rows =
    List.map
      (fun packed ->
        let r = A.check_packed packed in
        let get ax = status (List.assoc ax r.A.results) in
        [
          r.A.algebra;
          get A.Maximality;
          get A.Absorption;
          get A.Monotonicity;
          get A.Strict_monotonicity;
          get A.Isotonicity;
          (if A.well_behaved r then "converges" else "no guarantee");
        ])
      (Algebra.Base.all ())
  in
  table
    [
      "algebra"; "maximality"; "absorption"; "monotone"; "strict mono";
      "isotone"; "guarantee";
    ]
    rows;
  let ns =
    ns_per_run ~name:"discharge-all" (fun () ->
        List.iter (fun p -> ignore (A.check_packed p)) (Algebra.Base.all ()))
  in
  Fmt.pr "discharging the whole catalogue takes %s per pass@." (pp_ns ns);
  Fmt.pr
    "note: lpA's monotonicity is refuted by design — the paper's Section 4.1 \
     discusses exactly this gap in the idealized model@."

(* ------------------------------------------------------------------ *)
(* E5: composition preservation. *)

let e5 () =
  banner "e5" "composition operators (lexProduct) preserve the axioms"
    "proofs for composed protocols are automatically discharged; BGPSystem = \
     lexProduct[LP, RC]";
  let module RA = Algebra.Routing_algebra in
  let module T = Algebra.Theorems in
  let b v = if v then "y" else "n" in
  let algebras =
    [
      RA.pack (Algebra.Base.add_cost ());
      RA.pack (Algebra.Base.add_cost_strict ());
      RA.pack (Algebra.Base.local_pref ());
      RA.pack (Algebra.Base.bandwidth ());
      RA.pack (Algebra.Base.reliability ());
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (RA.Packed a) ->
      List.iter
        (fun (RA.Packed bb) ->
          let p = T.lex_preservation a bb in
          rows :=
            [
              p.T.composite;
              Fmt.str "M=%s SM=%s" (b p.T.a_monotone)
                (b p.T.a_strictly_monotone);
              Fmt.str "M=%s SM=%s" (b p.T.b_monotone)
                (b p.T.b_strictly_monotone);
              Fmt.str "M=%s SM=%s I=%s" (b p.T.predicts_monotone)
                (b p.T.predicts_strictly_monotone) (b p.T.predicts_isotone);
              Fmt.str "M=%s SM=%s I=%s" (b p.T.composite_monotone)
                (b p.T.composite_strictly_monotone) (b p.T.composite_isotone);
              (if T.sound p then "sound" else "UNSOUND");
            ]
            :: !rows)
        algebras)
    algebras;
  table
    [
      "composite"; "A side-conds"; "B side-conds"; "predicted"; "measured";
      "verdict";
    ]
    (List.rev !rows);
  let bgp = Algebra.Compose.bgp_system () in
  let r = Algebra.Axioms.check_all bgp in
  Fmt.pr
    "@.BGPSystem = lexProduct[LP, RC]: monotone=%b (inherits lpA's \
     refutation); maximality/absorption discharged=%b@."
    (Algebra.Axioms.holds r Algebra.Axioms.Monotonicity)
    (Algebra.Axioms.holds r Algebra.Axioms.Maximality
    && Algebra.Axioms.holds r Algebra.Axioms.Absorption)

(* ------------------------------------------------------------------ *)
(* E6: the Figure-2 pipeline is property-preserving. *)

let e6 () =
  banner "e6" "component model -> NDlog translation (Figure 2)"
    "verified component specifications translate into equivalent executable \
     NDlog";
  let module Bgp = Component.Bgp in
  let gen = Bgp.program () in
  Fmt.pr "generated program: %d rules from %d components@."
    (List.length gen.Ndlog.Ast.rules)
    (List.length (Component.Model.atoms_of Bgp.model));
  let rows =
    List.map
      (fun k ->
        let cfg = Bgp.chain k in
        let o = Bgp.run ~max_rounds:600 cfg ~schedule:Bgp.Pair_round_robin in
        let links =
          Ndlog.Programs.line_links k
          |> List.map (fun (f : Ndlog.Ast.fact) ->
                 {
                   f with
                   Ndlog.Ast.fact_args =
                     List.map
                       (function
                         | Ndlog.Value.Addr a ->
                           Ndlog.Value.Addr
                             ("as" ^ String.sub a 1 (String.length a - 1))
                         | v -> v)
                       f.Ndlog.Ast.fact_args;
                 })
        in
        let pv =
          Ndlog.Eval.run_exn
            (Ndlog.Programs.with_links (Ndlog.Programs.path_vector ()) links)
        in
        let pv_cost u =
          Ndlog.Store.tuples "bestPathCost" pv.Ndlog.Eval.db
          |> List.find_opt (fun t ->
                 Ndlog.Value.equal t.(0) (Ndlog.Value.Addr u)
                 && Ndlog.Value.equal t.(1) (Ndlog.Value.Addr "as0"))
          |> Option.map (fun t -> Ndlog.Value.as_int t.(2))
        in
        let bgp_cost u =
          List.find_map
            (fun (x, _, r) -> if x = u then Some r.Bgp.cost else None)
            o.Bgp.final_best
        in
        let agree =
          List.for_all
            (fun i ->
              let u = Printf.sprintf "as%d" i in
              bgp_cost u = pv_cost u)
            (List.init (k - 1) (fun i -> i + 1))
        in
        [
          string_of_int k;
          string_of_bool o.Bgp.converged;
          string_of_int o.Bgp.rounds;
          string_of_bool agree;
        ])
      (if !quick then [ 3; 4 ] else [ 3; 4; 5; 6 ])
  in
  table
    [
      "chain length"; "component BGP converged"; "rounds";
      "matches hand-written PV";
    ]
    rows;
  let prop =
    Fvn.Props.implication ~name:"importedHasPref"
      ~antecedent:("imported", [ "U"; "W"; "D"; "P"; "LP"; "C" ])
      ~consequent:("importPref", [ "U"; "W"; "LP" ])
      ()
  in
  match Logic.Prove.prove (Bgp.theory ()) prop.Fvn.Props.formula with
  | Ok o ->
    Fmt.pr "generated spec property importedHasPref: PROVED (%d steps)@."
      o.Logic.Prove.steps
  | Error e -> Fmt.pr "property FAILED: %s@." e

(* ------------------------------------------------------------------ *)
(* E7: NDlog execution scaling. *)

(* One E7 sweep point: semi-naive with the index layer on vs. off (the
   pre-index nested-loop engine: full scans, source-order bodies). *)
type sweep_row = {
  sw_prog : string;
  sw_topo : string;
  sw_n : int;  (* parameter: ring size or grid side *)
  sw_nodes : int;
  sw_tuples : int;  (* fixpoint database size *)
  sw_rounds : int;
  sw_idx_ms : float;
  sw_base_ms : float;
  sw_hits : int;  (* indexed run: joins answered from an index *)
  sw_scans : int;  (* indexed run: joins that still scanned *)
  sw_enum_idx : int;  (* tuples enumerated, indexed run *)
  sw_enum_base : int;  (* tuples enumerated, baseline run *)
  sw_same : bool;  (* identical fixpoint, rounds, convergence *)
}

let sw_speedup r = r.sw_base_ms /. Float.max 1e-6 r.sw_idx_ms

(* Time one semi-naive fixpoint with optimized joins (index probes and
   most-bound-first body ordering) on or off.  Each outcome carries its
   own per-run counters. *)
let timed_seminaive ~optimized p info db =
  let o, t =
    wall (fun () ->
        Ndlog.Eval.seminaive ~optimized_joins:optimized p info db)
  in
  (o, t, o.Ndlog.Eval.stats)

let sweep_point ~prog_name ~topo_name ~n ~nodes (p : Ndlog.Ast.program) :
    sweep_row =
  let info = Ndlog.Analysis.analyze_exn p in
  let db = Ndlog.Store.of_facts p.Ndlog.Ast.facts in
  let base, t_base, st_base = timed_seminaive ~optimized:false p info db in
  let idx, t_idx, st_idx = timed_seminaive ~optimized:true p info db in
  {
    sw_prog = prog_name;
    sw_topo = topo_name;
    sw_n = n;
    sw_nodes = nodes;
    sw_tuples = Ndlog.Store.total_tuples idx.Ndlog.Eval.db;
    sw_rounds = idx.Ndlog.Eval.rounds;
    sw_idx_ms = t_idx *. 1e3;
    sw_base_ms = t_base *. 1e3;
    sw_hits = st_idx.Ndlog.Eval.index_hits;
    sw_scans = st_idx.Ndlog.Eval.scans;
    sw_enum_idx = st_idx.Ndlog.Eval.enumerated;
    sw_enum_base = st_base.Ndlog.Eval.enumerated;
    sw_same =
      Ndlog.Store.equal base.Ndlog.Eval.db idx.Ndlog.Eval.db
      && base.Ndlog.Eval.rounds = idx.Ndlog.Eval.rounds
      && base.Ndlog.Eval.converged = idx.Ndlog.Eval.converged;
  }

let topo_of_link_facts links =
  let t = Netsim.Topology.create () in
  List.iter
    (fun (f : Ndlog.Ast.fact) ->
      match f.Ndlog.Ast.fact_args with
      | [ s; d; c ] ->
        Netsim.Topology.add_link ~cost:(Ndlog.Value.as_int c) t
          (Ndlog.Value.as_addr s) (Ndlog.Value.as_addr d)
      | _ -> ())
    links;
  t

(* ------------------------------------------------------------------ *)
(* E13 machinery: incremental view refresh vs. from-scratch in the
   distributed runtime.  Both modes drive the identical insertion
   schedule (initial facts, then a few mid-run link churns); the
   incremental runtime must reach the same fixpoint with the same
   message count while skipping untouched strata and enumerating
   strictly fewer tuples on the view path. *)

type incr_row = {
  iv_prog : string;
  iv_topo : string;
  iv_n : int;
  iv_nodes : int;
  iv_tuples : int;  (* global fixpoint database size *)
  iv_msgs : int;  (* messages sent (identical in both modes) *)
  iv_incr_ms : float;
  iv_scratch_ms : float;
  iv_skipped : int;  (* incremental run: untouched strata skipped *)
  iv_refolded : int;  (* incremental run: aggregate strata re-folded *)
  iv_fallbacks : int;  (* incremental run: from-scratch fallbacks *)
  iv_enum_incr : int;  (* view-path tuples enumerated, incremental *)
  iv_enum_scratch : int;  (* view-path tuples enumerated, from-scratch *)
  iv_same : bool;  (* identical global fixpoint, stores, messages *)
}

let iv_speedup r = r.iv_scratch_ms /. Float.max 1e-6 r.iv_incr_ms

let iv_enum_saved r =
  if r.iv_enum_scratch = 0 then 0.0
  else
    100.
    *. float_of_int (r.iv_enum_scratch - r.iv_enum_incr)
    /. float_of_int r.iv_enum_scratch

let incr_point ~prog_name ~topo_name ~n ~nodes ~strict prog links : incr_row =
  let loc =
    match
      Ndlog.Localize.rewrite_program (Ndlog.Programs.with_links prog links)
    with
    | Ok r -> r.Ndlog.Localize.program
    | Error _ -> assert false
  in
  (* A handful of spread-out link re-insertions at new costs: each one
     dirties a single node, so most of the network's strata are
     untouched at the refresh it triggers. *)
  let endpoints =
    List.filter_map
      (fun (f : Ndlog.Ast.fact) ->
        match f.Ndlog.Ast.fact_args with
        | [ s; d; _ ] ->
          Some (Ndlog.Value.as_addr s, Ndlog.Value.as_addr d)
        | _ -> None)
      links
  in
  let stride = max 1 (List.length endpoints / 3) in
  let churn = List.filteri (fun i _ -> i mod stride = 0) endpoints in
  let go ~incremental_views =
    let rt =
      Dist.Runtime.create ~incremental_views (topo_of_link_facts links) loc
    in
    Dist.Runtime.load_facts rt;
    let view = ref Ndlog.Eval.zero_stats in
    let quiesced = ref true in
    let last = ref None in
    let (), t =
      wall (fun () ->
          let step rep =
            view := Ndlog.Eval.add_stats !view rep.Dist.Runtime.view_stats;
            quiesced := !quiesced && rep.Dist.Runtime.stats.Netsim.Sim.quiesced;
            last := Some rep
          in
          step (Dist.Runtime.run rt);
          List.iteri
            (fun i (s, d) ->
              Dist.Runtime.insert rt s "link"
                [| Ndlog.Value.Addr s; Ndlog.Value.Addr d;
                   Ndlog.Value.Int (2 + i) |];
              step (Dist.Runtime.run rt))
            churn)
    in
    (rt, Option.get !last, !view, !quiesced, t)
  in
  let rt_i, rep_i, view_i, q_i, t_i = go ~incremental_views:true in
  let rt_s, rep_s, view_s, q_s, t_s = go ~incremental_views:false in
  let msgs_i = rep_i.Dist.Runtime.stats.Netsim.Sim.messages_sent in
  let msgs_s = rep_s.Dist.Runtime.stats.Netsim.Sim.messages_sent in
  let same =
    q_i && q_s
    && Ndlog.Store.equal
         (Dist.Runtime.global_store rt_i)
         (Dist.Runtime.global_store rt_s)
    && msgs_i = msgs_s
    && List.for_all
         (fun nm ->
           Ndlog.Store.equal
             (Dist.Runtime.node_store rt_i nm)
             (Dist.Runtime.node_store rt_s nm))
         (Netsim.Topology.nodes (topo_of_link_facts links))
  in
  (* The equivalence claim is part of the benchmark: a divergence fails
     the run (and the bench-smoke alias) loudly. *)
  if not same then
    failwith
      (Fmt.str
         "E13 %s/%s %d: incremental refresh diverged from from-scratch"
         prog_name topo_name n);
  (* On the big rings the incrementality claim itself is asserted:
     untouched strata must actually be skipped, and view-path
     enumeration must strictly drop. *)
  if strict then begin
    if view_i.Ndlog.Eval.strata_skipped = 0 then
      failwith
        (Fmt.str "E13 %s/%s %d: incremental refresh skipped no strata"
           prog_name topo_name n);
    if view_i.Ndlog.Eval.enumerated >= view_s.Ndlog.Eval.enumerated then
      failwith
        (Fmt.str
           "E13 %s/%s %d: incremental refresh did not reduce view \
            enumeration (%d >= %d)"
           prog_name topo_name n view_i.Ndlog.Eval.enumerated
           view_s.Ndlog.Eval.enumerated)
  end;
  {
    iv_prog = prog_name;
    iv_topo = topo_name;
    iv_n = n;
    iv_nodes = nodes;
    iv_tuples = Ndlog.Store.total_tuples (Dist.Runtime.global_store rt_i);
    iv_msgs = msgs_i;
    iv_incr_ms = t_i *. 1e3;
    iv_scratch_ms = t_s *. 1e3;
    iv_skipped = view_i.Ndlog.Eval.strata_skipped;
    iv_refolded = view_i.Ndlog.Eval.strata_refolded;
    iv_fallbacks = view_i.Ndlog.Eval.refresh_fallbacks;
    iv_enum_incr = view_i.Ndlog.Eval.enumerated;
    iv_enum_scratch = view_s.Ndlog.Eval.enumerated;
    iv_same = same;
  }

(* ------------------------------------------------------------------ *)
(* E14 machinery: sustained churn against the storage layer.

   A soft-state bounded-cost routing program runs on a ring while a
   long event stream (~10^6 events in the full configuration) drives
   link up/down churn and route injections: every tuple lives on a
   lease, link offers flap their cost each pass and are periodically
   withheld so leases lapse (down events) and the next offer is
   genuinely new (up events), and route advertisements are injected
   directly into the cost relation.  The live tuple set stays bounded
   — the stream endlessly replaces state instead of growing it — which
   is exactly the regime where tuple storage, not fixpoint evaluation,
   is the bottleneck.  The same deterministic stream runs once per
   repetition on the distributed runtime; every repetition must reach
   bit-identical final stores, and the ledger records absolute
   throughput, latency, live heap and refresh share, so the history
   shows how each moved from one regeneration to the next.  (Earlier
   regenerations of this experiment compared the id-native runtime
   against a boxed twin, and before that interned vs. uninterned boxed
   stores; those ratios live on in the ledger history.) *)

type churn_row = {
  ch_nodes : int;
  ch_events : int;  (* events driven, including warmup *)
  ch_measured : int;  (* events in the measurement window *)
  ch_inserts : int;  (* store insertions during the window *)
  ch_wall_s : float;  (* wall clock of the window *)
  ch_tuples_per_sec : float;  (* window insertions / window wall *)
  ch_events_per_sec : float;
  ch_p50_us : float;  (* per-event latency percentiles over the window *)
  ch_p99_us : float;
  ch_max_us : float;
  ch_live_words : int;  (* Gc live words after the run (post full major) *)
  ch_heap_words : int;  (* Gc.quick_stat heap words *)
  ch_interned : int;  (* intern table population at end of run *)
  ch_msgs : int;  (* simulator messages sent, summed over every run report *)
  ch_tuples : int;  (* live global store size at cut-off *)
  ch_refresh_s : float;  (* wall spent in view-refresh walks (window) *)
  ch_refresh_walks : int;  (* refresh walks in the window *)
}

(* The routing program with every relation on a lease: the paper's
   path-vector protocol (Section 2.2) with a hop bound so churn stays
   local, and every materialize declaration rewritten to the given
   lifetime.  Path vectors matter here: every refresh re-derives its
   path lists from scratch, and interning collapses the structurally
   equal lists to shared representatives — the allocation/comparison
   traffic this benchmark is designed to expose. *)
let churn_program_src =
  {|
materialize(link, infinity).
materialize(path, infinity).
materialize(bestPathCost, infinity).
materialize(bestPath, infinity).
materialize(promise, infinity).
materialize(audit, infinity).

r1 path(@S,D,P,C,H) :- link(@S,D,C), P=f_init(S,D), H=1.
r2 path(@S,D,P,C,H) :- link(@S,Z,C1), path(@Z,D,P2,C2,H2),
                       C=C1+C2, P=f_concatPath(S,P2),
                       f_inPath(P2,S)=false, H=H2+1, H2<2.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C,H).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C,H).
r5 audit(@S,D,P) :- promise(@S,P,D), path(@S,D,P,C,H).
|}

let churn_program ~lifetime =
  let p = Ndlog.Programs.parse_exn churn_program_src in
  {
    p with
    Ndlog.Ast.decls =
      List.map
        (fun d ->
          { d with Ndlog.Ast.decl_lifetime = Ndlog.Ast.Lifetime lifetime })
        p.Ndlog.Ast.decls;
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Drive the runtime through the event stream once.  Returns the row
   plus the digest used for the cross-repetition equivalence check
   (global store, per-node stores, cumulative counters) — the runtime
   itself is dropped so the next repetition's heap measurement does not
   retain this one's simulator. *)
let churn_run ~n ~events ~warmup ~lifetime ~dt =
  (* Ring plus (i, i+5) chords: the chord offers in the event stream
     need topology edges to ship their derived paths over. *)
  let chord_fact s d =
    {
      Ndlog.Ast.fact_pred = "link";
      fact_loc = Some 0;
      fact_args =
        [ Ndlog.Value.Addr s; Ndlog.Value.Addr d; Ndlog.Value.Int 1 ];
    }
  in
  let links =
    Ndlog.Programs.ring_links n
    @ List.concat
        (List.init n (fun i ->
             let a = Ndlog.Programs.node i
             and b = Ndlog.Programs.node ((i + 5) mod n) in
             [ chord_fact a b; chord_fact b a ]))
  in
  let loc =
    match Ndlog.Localize.rewrite_program (churn_program ~lifetime) with
    | Ok r -> r.Ndlog.Localize.program
    | Error _ -> assert false
  in
  let rt = Dist.Runtime.create (topo_of_link_facts links) loc in
  Dist.Runtime.load_facts rt;
  Gc.full_major ();
  let live_start = (Gc.stat ()).Gc.live_words in
  let nd i = Ndlog.Programs.node (i mod n) in
  let samples = Array.make events 0.0 in
  let last = ref None in
  let sim_events = ref 0 and msgs = ref 0 in
  let warm_inserts = ref 0 and warm_wall = ref 0.0 in
  let warm_refresh_s = ref 0.0 and warm_refresh_walks = ref 0 in
  let t_start = Unix.gettimeofday () in
  for e = 0 to events - 1 do
    let i = e / 2 mod n in
    let pass = e / (2 * n) in
    let t_sim = float_of_int (e + 1) *. dt in
    let t0 = Unix.gettimeofday () in
    (* Even events offer a link, odd events inject a route.  Costs flap
       with the pass, so a kept lease is usually replaced rather than
       renewed; every fourth pass an offer is withheld, letting the
       lease lapse (a down event) so the following offer is an up. *)
    (match e land 1 with
    | 0 ->
      (* Ring links on even passes, chord links on odd ones: each node
         keeps several live neighbours, so the 2-hop path relation per
         node holds dozens of tuples rather than a handful. *)
      if (pass + i) mod 4 <> 0 then
        Dist.Runtime.insert rt (nd i) "link"
          [|
            Ndlog.Value.Addr (nd i);
            Ndlog.Value.Addr (nd (i + if pass land 1 = 0 then 1 else 5));
            Ndlog.Value.Int (1 + (pass mod 3));
          |]
    | _ ->
      (* A route promise from outside the protocol: an external peer
         announces the exact path vector it expects node i to compute;
         rule r5 audits the announcement by joining it against the
         computed [path] relation on the full path list — the
         verification-flavoured, list-keyed join this benchmark uses to
         exercise flat (id-keyed) secondary indexes.  Ring routes on
         even passes, chord routes on odd ones, so several distinct
         promises stay live per node. *)
      if (pass + i) mod 4 <> 2 then
        let hop, dst = if pass land 1 = 0 then (1, 2) else (5, 10) in
        Dist.Runtime.insert rt (nd i) "promise"
          [|
            Ndlog.Value.Addr (nd i);
            Ndlog.Value.List
              [
                Ndlog.Value.Addr (nd i);
                Ndlog.Value.Addr (nd (i + hop));
                Ndlog.Value.Addr (nd (i + dst));
              ];
            Ndlog.Value.Addr (nd (i + dst));
          |]);
    let rep = Dist.Runtime.run rt ~until:t_sim in
    last := Some rep;
    (* Simulator stats are per [run]: the whole stream's figures are
       sums over every report. *)
    sim_events := !sim_events + rep.Dist.Runtime.stats.Netsim.Sim.events;
    msgs := !msgs + rep.Dist.Runtime.stats.Netsim.Sim.messages_sent;
    samples.(e) <- Unix.gettimeofday () -. t0;
    if e + 1 = warmup then begin
      warm_inserts := rep.Dist.Runtime.total_inserts;
      warm_wall := Unix.gettimeofday () -. t_start;
      warm_refresh_s := Dist.Runtime.refresh_seconds rt;
      warm_refresh_walks := Dist.Runtime.refresh_walks rt
    end
  done;
  let wall_total = Unix.gettimeofday () -. t_start in
  let rep = Option.get !last in
  (* Live heap *retained by this run* — the growth over the post-setup
     baseline, so the digest kept alive from a previous repetition does
     not pollute the measurement.  [Gc.quick_stat] is free but zeroes
     [live_words]; the full [Gc.stat] after a major collection gives the
     real figure, and [heap_words] comes from the cheap counters. *)
  Gc.full_major ();
  let live_words = max 0 ((Gc.stat ()).Gc.live_words - live_start) in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let window = Array.sub samples warmup (events - warmup) in
  Array.sort Stdlib.compare window;
  let wall = wall_total -. !warm_wall in
  let inserts = rep.Dist.Runtime.total_inserts - !warm_inserts in
  let measured = events - warmup in
  let global = Dist.Runtime.global_store rt in
  let node_stores =
    List.map
      (fun nm -> (nm, Dist.Runtime.node_store rt nm))
      (Netsim.Topology.nodes (topo_of_link_facts links))
  in
  let row =
    {
      ch_nodes = n;
      ch_events = events;
      ch_measured = measured;
      ch_inserts = inserts;
      ch_wall_s = wall;
      ch_tuples_per_sec = float_of_int inserts /. Float.max 1e-9 wall;
      ch_events_per_sec = float_of_int measured /. Float.max 1e-9 wall;
      ch_p50_us = percentile window 0.50 *. 1e6;
      ch_p99_us = percentile window 0.99 *. 1e6;
      ch_max_us = percentile window 1.0 *. 1e6;
      ch_live_words = live_words;
      ch_heap_words = heap_words;
      ch_interned = Ndlog.Intern.size ();
      ch_msgs = !msgs;
      ch_tuples = Ndlog.Store.total_tuples global;
      ch_refresh_s = Dist.Runtime.refresh_seconds rt -. !warm_refresh_s;
      ch_refresh_walks = Dist.Runtime.refresh_walks rt - !warm_refresh_walks;
    }
  in
  (row, (global, node_stores, rep.Dist.Runtime.total_inserts))

(* Field-wise median across repetitions.  The counters that
   are deterministic (inserts, messages, tuples, events) are asserted
   identical across repetitions by the digest check, so taking them
   from the first row is exact; the timing-dependent fields get the
   median, which a single outlier repetition cannot move. *)
let churn_median (rows : churn_row list) : churn_row =
  let medf proj =
    let a = Array.of_list (List.map proj rows) in
    Array.sort Stdlib.compare a;
    a.(Array.length a / 2)
  in
  {
    (List.hd rows) with
    ch_wall_s = medf (fun r -> r.ch_wall_s);
    ch_tuples_per_sec = medf (fun r -> r.ch_tuples_per_sec);
    ch_events_per_sec = medf (fun r -> r.ch_events_per_sec);
    ch_p50_us = medf (fun r -> r.ch_p50_us);
    ch_p99_us = medf (fun r -> r.ch_p99_us);
    ch_max_us = medf (fun r -> r.ch_max_us);
    ch_live_words = int_of_float (medf (fun r -> float_of_int r.ch_live_words));
    ch_heap_words = int_of_float (medf (fun r -> float_of_int r.ch_heap_words));
    ch_refresh_s = medf (fun r -> r.ch_refresh_s);
  }

(* Share of the measurement window spent in view-refresh walks. *)
let churn_refresh_share r = r.ch_refresh_s /. Float.max 1e-9 r.ch_wall_s

(* [reps] repetitions of the stream, in order.  Back-to-back runs on a
   shared machine spread well above the effects the ledger tracks, so
   the headline is the field-wise median ([churn_median]) and every
   repetition is kept for the spread. *)
let churn_point ~n ~events ~reps : churn_row list =
  (* Offers recur every 2n events (dt = 1): a 3n lifetime outlives a
     kept offer cycle but lapses across a withheld one. *)
  let dt = 1.0 in
  let lifetime = 3.0 *. float_of_int n *. dt in
  let warmup = max (2 * n) (events / 10) in
  let warmup = min warmup (events / 2) in
  let digest = ref None in
  List.init reps (fun _ ->
      let row, (g, ns, ins) = churn_run ~n ~events ~warmup ~lifetime ~dt in
      (* The determinism claim is part of the benchmark: every run
         drives the identical deterministic stream to the identical
         simulated instant, so any divergence across repetitions — in
         stores, inserts or messages — fails the run loudly. *)
      (match !digest with
      | None -> digest := Some (g, ns, ins, row.ch_msgs)
      | Some (g0, ns0, ins0, msgs0) ->
        if
          not
            (Ndlog.Store.equal g g0
            && ins = ins0 && row.ch_msgs = msgs0
            && List.for_all2
                 (fun (nm, s) (nm0, s0) -> nm = nm0 && Ndlog.Store.equal s s0)
                 ns ns0)
        then failwith "E14: runs diverged across repetitions");
      row)

(* The machine-readable ledger (BENCH_ndlog.json, schema 13).
   E7, E13–E17 stash their sweep rows here; the harness emits one
   document at the end of the run.  The previous ledger's run history is
   carried forward and the finished run appended, so the committed file
   records how the numbers moved across regenerations. *)

let json_out = ref false
let bench_json_path = "BENCH_ndlog.json"
let e7_sweeps : sweep_row list ref = ref []
let e13_rows : incr_row list ref = ref []
let e14_rows : churn_row list ref = ref []

(* E15 machinery: where the id/boxed boundary may sit, in nanoseconds.

   The id-native executor keeps tuples as int arrays end to end and
   translates to boxed values only at true system boundaries (builtins,
   provenance, printers, the wire's canonical sort).  This experiment
   prices the alternatives per operation: an id equality probe vs. the
   boxed structural compare it replaces, and the hash-cons translation
   ([Intern.tuple_ids]) a design that boxed per probe — or translated
   per probe — would pay inside the join loop.  The rows feed the
   ledger; the headline ratios are the id probe's speedup over the
   boxed probe and the translation's cost relative to the boxed probe
   it would hypothetically replace. *)
type xlate_row = { xl_op : string; xl_ns : float }

let e15_rows : xlate_row list ref = ref []

(* The path-builtin rows, by name: [check_json] requires both. *)
let e15_cons_4 = "cons onto interned path (length 4)"
let e15_cons_32 = "cons onto interned path (length 32)"

(* E16: the socket transport against the simulator backend.  One row
   per ring size: the supervisor forks a real OS process per node and
   the same program runs on the virtual-clock simulator; both fixpoints
   must agree node by node. *)
type mproc_row = {
  mp_nodes : int;  (* ring size = worker process count *)
  mp_wall_s : float;  (* fork to detected quiescence, wall clock *)
  mp_sim_wall_s : float;  (* the simulator backend on the same input *)
  mp_frames : int;  (* cross-process data frames *)
  mp_bytes : int;  (* their wire bytes, length prefixes included *)
  mp_inserts : int;  (* tuple insertions summed over workers *)
  mp_polls : int;  (* confirmation poll waves until convergence *)
  mp_sim_msgs : int;  (* messages the simulator shipped *)
  mp_same : bool;  (* per-node fixpoints equal across backends *)
}

let e16_rows : mproc_row list ref = ref []

(* E17: the model checker's reduction layer.  One row per (system,
   program, topology, mode) — mode is plain, por, por-footprint, sym
   or both — with the visited-state count, the invariant verdict, and
   the counterexample length when the verdict is a violation.  Verdict
   equality across the modes of a cell is asserted by the experiment
   itself; the rows carry the reduction factors the docs quote. *)
type red_row = {
  rd_system : string;  (* "ndlog" or "soft" *)
  rd_prog : string;
  rd_topo : string;
  rd_mode : string;
  rd_states : int;  (* 0 for verdict-only rows (diverging plain space) *)
  rd_transitions : int;
  rd_truncated : bool;
  rd_wall_s : float;
  rd_verdict : string;  (* "ok" | "violation" | "truncated" *)
  rd_trace_len : int;  (* counterexample length, 0 when none *)
}

let e17_rows : red_row list ref = ref []

let emit_bench_json () =
  let e7_row r =
    Json.Obj
      [
        ("program", Json.Str r.sw_prog);
        ("topology", Json.Str r.sw_topo);
        ("n", Json.Int r.sw_n);
        ("nodes", Json.Int r.sw_nodes);
        ("tuples", Json.Int r.sw_tuples);
        ("rounds", Json.Int r.sw_rounds);
        ("indexed_ms", Json.Float r.sw_idx_ms);
        ("baseline_ms", Json.Float r.sw_base_ms);
        ("speedup", Json.Float (sw_speedup r));
        ("index_hits", Json.Int r.sw_hits);
        ("scans", Json.Int r.sw_scans);
        ("enumerated_indexed", Json.Int r.sw_enum_idx);
        ("enumerated_baseline", Json.Int r.sw_enum_base);
        ("same_fixpoint", Json.Bool r.sw_same);
      ]
  in
  let largest =
    List.fold_left
      (fun acc r -> match acc with
        | Some best when best.sw_nodes >= r.sw_nodes -> acc
        | _ -> Some r)
      None !e7_sweeps
  in
  let largest_speedup =
    match largest with Some r -> Json.Float (sw_speedup r) | None -> Json.Null
  in
  let e13_row r =
    Json.Obj
      [
        ("program", Json.Str r.iv_prog);
        ("topology", Json.Str r.iv_topo);
        ("n", Json.Int r.iv_n);
        ("nodes", Json.Int r.iv_nodes);
        ("tuples", Json.Int r.iv_tuples);
        ("messages", Json.Int r.iv_msgs);
        ("incremental_ms", Json.Float r.iv_incr_ms);
        ("scratch_ms", Json.Float r.iv_scratch_ms);
        ("speedup", Json.Float (iv_speedup r));
        ("strata_skipped", Json.Int r.iv_skipped);
        ("strata_refolded", Json.Int r.iv_refolded);
        ("refresh_fallbacks", Json.Int r.iv_fallbacks);
        ("enumerated_incremental", Json.Int r.iv_enum_incr);
        ("enumerated_scratch", Json.Int r.iv_enum_scratch);
        ("enum_saved_pct", Json.Float (iv_enum_saved r));
        ("enum_reduced", Json.Bool (r.iv_enum_incr < r.iv_enum_scratch));
        ("same_fixpoint", Json.Bool r.iv_same);
      ]
  in
  let e13_total_skipped =
    match !e13_rows with
    | [] -> Json.Null
    | rows ->
      Json.Int (List.fold_left (fun acc r -> acc + r.iv_skipped) 0 rows)
  in
  let e13_max_saved =
    match !e13_rows with
    | [] -> Json.Null
    | rows ->
      Json.Float
        (List.fold_left (fun acc r -> Float.max acc (iv_enum_saved r)) 0.0 rows)
  in
  let e13_all_same =
    match !e13_rows with
    | [] -> Json.Null
    | rows -> Json.Bool (List.for_all (fun r -> r.iv_same) rows)
  in
  let e14_row r =
    Json.Obj
      [
        ("nodes", Json.Int r.ch_nodes);
        ("events", Json.Int r.ch_events);
        ("measured_events", Json.Int r.ch_measured);
        ("inserts", Json.Int r.ch_inserts);
        ("wall_s", Json.Float r.ch_wall_s);
        ("tuples_per_sec", Json.Float r.ch_tuples_per_sec);
        ("events_per_sec", Json.Float r.ch_events_per_sec);
        ("p50_us", Json.Float r.ch_p50_us);
        ("p99_us", Json.Float r.ch_p99_us);
        ("max_us", Json.Float r.ch_max_us);
        ("live_words", Json.Int r.ch_live_words);
        ("heap_words", Json.Int r.ch_heap_words);
        ("interned_values", Json.Int r.ch_interned);
        ("messages", Json.Int r.ch_msgs);
        ("tuples", Json.Int r.ch_tuples);
        ("refresh_s", Json.Float r.ch_refresh_s);
        ("refresh_walks", Json.Int r.ch_refresh_walks);
        ("refresh_share", Json.Float (churn_refresh_share r));
      ]
  in
  (* Headline figures: field-wise medians over the repetitions, null
     when e14 did not run. *)
  let e14_med f =
    match !e14_rows with [] -> Json.Null | rows -> f (churn_median rows)
  in
  let e15_row r =
    Json.Obj [ ("op", Json.Str r.xl_op); ("ns_per_op", Json.Float r.xl_ns) ]
  in
  let e15_ns op =
    match List.find_opt (fun r -> r.xl_op = op) !e15_rows with
    | Some r -> Some r.xl_ns
    | None -> None
  in
  let e15_ratio num den =
    match (e15_ns num, e15_ns den) with
    | Some a, Some b when b > 0.0 -> Json.Float (a /. b)
    | _ -> Json.Null
  in
  let e15_probe_speedup = e15_ratio "boxed tuple equal" "id tuple equal" in
  let e15_translation_overhead =
    e15_ratio "translate boxed->ids (tuple_ids)" "boxed tuple equal"
  in
  let e16_row r =
    Json.Obj
      [
        ("nodes", Json.Int r.mp_nodes);
        ("processes", Json.Int r.mp_nodes);
        ("wall_s", Json.Float r.mp_wall_s);
        ("sim_wall_s", Json.Float r.mp_sim_wall_s);
        ("data_frames", Json.Int r.mp_frames);
        ("data_bytes", Json.Int r.mp_bytes);
        ("inserts", Json.Int r.mp_inserts);
        ("polls", Json.Int r.mp_polls);
        ("sim_messages", Json.Int r.mp_sim_msgs);
        ("same_fixpoint", Json.Bool r.mp_same);
      ]
  in
  let e16_largest =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some best when best.mp_nodes >= r.mp_nodes -> acc
        | _ -> Some r)
      None !e16_rows
  in
  let e16_all_same =
    match !e16_rows with
    | [] -> Json.Null
    | rows -> Json.Bool (List.for_all (fun r -> r.mp_same) rows)
  in
  let e16_find f =
    match e16_largest with Some r -> f r | None -> Json.Null
  in
  let e17_row r =
    Json.Obj
      [
        ("system", Json.Str r.rd_system);
        ("program", Json.Str r.rd_prog);
        ("topology", Json.Str r.rd_topo);
        ("mode", Json.Str r.rd_mode);
        ("states", Json.Int r.rd_states);
        ("transitions", Json.Int r.rd_transitions);
        ("truncated", Json.Bool r.rd_truncated);
        ("wall_s", Json.Float r.rd_wall_s);
        ("verdict", Json.Str r.rd_verdict);
        ("trace_len", Json.Int r.rd_trace_len);
      ]
  in
  let e17_key r = (r.rd_system, r.rd_prog, r.rd_topo) in
  (* Headline reduction: the best plain/both visited-state ratio over
     cells whose plain exploration completed. *)
  let e17_best_reduction =
    match
      List.fold_left
        (fun acc r ->
          if r.rd_mode <> "both" || r.rd_states = 0 then acc
          else
            match
              List.find_opt
                (fun p ->
                  p.rd_mode = "plain" && (not p.rd_truncated)
                  && p.rd_states > 0
                  && e17_key p = e17_key r)
                !e17_rows
            with
            | Some p ->
              Float.max acc
                (float_of_int p.rd_states /. float_of_int r.rd_states)
            | None -> acc)
        0. !e17_rows
    with
    | 0. -> Json.Null
    | x -> Json.Float x
  in
  let e17_all_agree =
    match !e17_rows with
    | [] -> Json.Null
    | rows ->
      let keys = List.sort_uniq compare (List.map e17_key rows) in
      Json.Bool
        (List.for_all
           (fun k ->
             let vs =
               List.filter_map
                 (fun r ->
                   if e17_key r = k && r.rd_verdict <> "truncated" then
                     Some r.rd_verdict
                   else None)
                 rows
             in
             match vs with [] -> true | v :: rest -> List.for_all (( = ) v) rest)
           keys)
  in
  let now = int_of_float (Unix.time ()) in
  let host_cores = Domain.recommended_domain_count () in
  (* Carry the previous ledger's history forward; a missing, unreadable
     or pre-schema file contributes none. *)
  let prior_history =
    match (try Json.of_file bench_json_path with Sys_error _ -> Error "absent")
    with
    | Ok v -> (
      match Option.bind (Json.member "history" v) Json.as_arr with
      | Some l -> l
      | None -> [])
    | Error _ -> []
  in
  let entry =
    Json.Obj
      [
        ("unix_time", Json.Int now);
        ("quick", Json.Bool !quick);
        ("host_cores", Json.Int host_cores);
        ("e7_rows", Json.Int (List.length !e7_sweeps));
        ("e7_largest_topology_speedup", largest_speedup);
        ("e13_rows", Json.Int (List.length !e13_rows));
        ("e13_total_strata_skipped", e13_total_skipped);
        ("e14_rows", Json.Int (List.length !e14_rows));
        ( "e14_tuples_per_sec",
          e14_med (fun r -> Json.Float r.ch_tuples_per_sec) );
        ("e14_p99_us", e14_med (fun r -> Json.Float r.ch_p99_us));
        ("e14_live_words", e14_med (fun r -> Json.Int r.ch_live_words));
        ( "e14_refresh_share",
          e14_med (fun r -> Json.Float (churn_refresh_share r)) );
        ("e15_rows", Json.Int (List.length !e15_rows));
        ("e15_probe_speedup", e15_probe_speedup);
        ("e16_rows", Json.Int (List.length !e16_rows));
        ("e16_largest_processes", e16_find (fun r -> Json.Int r.mp_nodes));
        ("e16_largest_wall_s", e16_find (fun r -> Json.Float r.mp_wall_s));
        ("e16_all_same_fixpoint", e16_all_same);
        ("e17_rows", Json.Int (List.length !e17_rows));
        ("e17_best_reduction_x", e17_best_reduction);
        ("e17_all_verdicts_agree", e17_all_agree);
      ]
  in
  Json.to_file bench_json_path
    (Json.Obj
       [
         ("schema", Json.Int 13);
         ("quick", Json.Bool !quick);
         ("host_cores", Json.Int host_cores);
         ("unix_time", Json.Int now);
         ( "e7",
           Json.Obj
             [
               ("largest_topology_speedup", largest_speedup);
               ("sweeps", Json.Arr (List.map e7_row !e7_sweeps));
             ] );
         ( "e13",
           Json.Obj
             [
               ("all_same_fixpoint", e13_all_same);
               ("total_strata_skipped", e13_total_skipped);
               ("max_enum_saved_pct", e13_max_saved);
               ("sweeps", Json.Arr (List.map e13_row !e13_rows));
             ] );
         (* Sustained churn (schema 11): absolute figures of the one
            runtime path, medians over the repetitions, with every
            repetition kept for the spread. *)
         ( "e14",
           Json.Obj
             [
               ("nodes", e14_med (fun r -> Json.Int r.ch_nodes));
               ("events", e14_med (fun r -> Json.Int r.ch_events));
               ("repetitions", Json.Int (List.length !e14_rows));
               ( "tuples_per_sec",
                 e14_med (fun r -> Json.Float r.ch_tuples_per_sec) );
               ("p50_us", e14_med (fun r -> Json.Float r.ch_p50_us));
               ("p99_us", e14_med (fun r -> Json.Float r.ch_p99_us));
               ("live_words", e14_med (fun r -> Json.Int r.ch_live_words));
               ("refresh_s", e14_med (fun r -> Json.Float r.ch_refresh_s));
               ( "refresh_share",
                 e14_med (fun r -> Json.Float (churn_refresh_share r)) );
               ("messages", e14_med (fun r -> Json.Int r.ch_msgs));
               ("runs", Json.Arr (List.map e14_row !e14_rows));
             ] );
         ( "e15",
           Json.Obj
             [
               ("probe_speedup", e15_probe_speedup);
               ( "translation_overhead_vs_boxed_probe",
                 e15_translation_overhead );
               ("ops", Json.Arr (List.map e15_row !e15_rows));
             ] );
         (* Multi-process runs (schema 9): the socket transport's wall
            clock and wire traffic, with the fixpoint-equality claim
            against the simulator backend carried as data. *)
         ( "e16",
           Json.Obj
             [
               ("all_same_fixpoint", e16_all_same);
               ("largest_processes", e16_find (fun r -> Json.Int r.mp_nodes));
               ("largest_wall_s", e16_find (fun r -> Json.Float r.mp_wall_s));
               ( "largest_data_bytes",
                 e16_find (fun r -> Json.Int r.mp_bytes) );
               ("runs", Json.Arr (List.map e16_row !e16_rows));
             ] );
         (* Reduced model checking (schema 10): visited-state counts
            per reduction mode with the verdict-equality claim carried
            as data (and asserted by the E17 run itself). *)
         ( "e17",
           Json.Obj
             [
               ("all_verdicts_agree", e17_all_agree);
               ("best_reduction_x", e17_best_reduction);
               ("runs", Json.Arr (List.map e17_row !e17_rows));
             ] );
         ("history", Json.Arr (prior_history @ [ entry ]));
       ]);
  Fmt.pr "@.benchmark ledger written to %s@." bench_json_path

let e7 () =
  banner "e7" "declarative execution performance"
    "declarative networks perform efficiently relative to imperative \
     implementations";
  let ring_sizes = if !quick then [ 4; 8; 16 ] else [ 4; 8; 16; 24; 32 ] in
  let grid_sides = if !quick then [ 3; 4 ] else [ 3; 4; 5 ] in
  let sweeps =
    List.map
      (fun n ->
        sweep_point ~prog_name:"path-vector" ~topo_name:"ring" ~n ~nodes:n
          (Ndlog.Programs.with_links
             (Ndlog.Programs.path_vector ())
             (Ndlog.Programs.ring_links n)))
      ring_sizes
    @ List.map
        (fun k ->
          sweep_point ~prog_name:"reachability" ~topo_name:"grid" ~n:k
            ~nodes:(k * k)
            (Ndlog.Programs.with_links
               (Ndlog.Programs.reachability ())
               (Ndlog.Programs.grid_links k)))
        grid_sides
  in
  e7_sweeps := sweeps;
  Fmt.pr "semi-naive, index layer on vs. off (pre-index nested-loop \
          baseline):@.";
  table
    [
      "program"; "topology"; "tuples"; "rounds"; "indexed"; "baseline";
      "speedup"; "idx/scan joins"; "enum idx/base"; "same fixpoint";
    ]
    (List.map
       (fun r ->
         [
           r.sw_prog;
           Fmt.str "%s %d" r.sw_topo r.sw_n;
           string_of_int r.sw_tuples;
           string_of_int r.sw_rounds;
           Fmt.str "%.1f ms" r.sw_idx_ms;
           Fmt.str "%.1f ms" r.sw_base_ms;
           Fmt.str "%.1fx" (sw_speedup r);
           Fmt.str "%d/%d" r.sw_hits r.sw_scans;
           Fmt.str "%d/%d" r.sw_enum_idx r.sw_enum_base;
           string_of_bool r.sw_same;
         ])
       sweeps);
  (* Distributed execution over the same substrate (strand joins are
     index-aware too: the report carries the run's join profile). *)
  Fmt.pr "@.distributed pipelined semi-naive (path-vector):@.";
  let rows =
    List.map
      (fun n ->
        let p =
          Ndlog.Programs.with_links
            (Ndlog.Programs.path_vector ())
            (Ndlog.Programs.ring_links n)
        in
        let loc =
          match Ndlog.Localize.rewrite_program p with
          | Ok r -> r.Ndlog.Localize.program
          | Error _ -> assert false
        in
        let rt = Dist.Runtime.create (Netsim.Topology.ring n) loc in
        Dist.Runtime.load_facts rt;
        let report, t_dist = wall (fun () -> Dist.Runtime.run rt) in
        let st = report.Dist.Runtime.eval_stats in
        [
          string_of_int n;
          string_of_int report.Dist.Runtime.stats.Netsim.Sim.messages_sent;
          Fmt.str "%.1f ms" (t_dist *. 1e3);
          Fmt.str "%d/%d" st.Ndlog.Eval.index_hits st.Ndlog.Eval.scans;
        ])
      (if !quick then [ 4; 8 ] else [ 4; 8; 16 ])
  in
  table [ "ring n"; "dist msgs"; "dist time"; "idx/scan joins" ] rows;
  let p8 =
    Ndlog.Programs.with_links
      (Ndlog.Programs.path_vector ())
      (Ndlog.Programs.ring_links 8)
  in
  let info8 = Ndlog.Analysis.analyze_exn p8 in
  let db8 = Ndlog.Store.of_facts p8.Ndlog.Ast.facts in
  let ns =
    ns_per_run ~name:"seminaive-ring8" (fun () ->
        ignore (Ndlog.Eval.seminaive p8 info8 db8))
  in
  Fmt.pr
    "bechamel: semi-naive path-vector on an 8-ring: %s per full fixpoint@."
    (pp_ns ns);
  (* A second protocol over the same substrate: link-state flooding. *)
  Fmt.pr "@.link-state routing (LSA flooding + local computation):@.";
  let rows =
    List.map
      (fun n ->
        let p =
          Ndlog.Programs.with_links
            (Ndlog.Programs.link_state ~max_hops:n)
            (Ndlog.Programs.ring_links n)
        in
        let central, t_c = wall (fun () -> Ndlog.Eval.run_exn p) in
        let rt = Dist.Runtime.create (Netsim.Topology.ring n) p in
        Dist.Runtime.load_facts rt;
        let report, _ = wall (fun () -> Dist.Runtime.run rt) in
        [
          string_of_int n;
          string_of_int (Ndlog.Store.cardinal "lsa" central.Ndlog.Eval.db);
          Fmt.str "%.1f ms" (t_c *. 1e3);
          string_of_int report.Dist.Runtime.stats.Netsim.Sim.messages_sent;
          string_of_bool
            (Ndlog.Store.Tset.equal
               (Ndlog.Store.relation "lsCost" central.Ndlog.Eval.db)
               (Ndlog.Store.relation "lsCost" (Dist.Runtime.global_store rt)));
        ])
      (if !quick then [ 4; 6 ] else [ 4; 6; 8 ])
  in
  table
    [ "ring n"; "lsa tuples"; "central time"; "dist msgs"; "dist = central" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: incremental view refresh with dirty-predicate tracking. *)

let e13 () =
  banner "e13" "incremental view refresh in the distributed runtime"
    "dirty-predicate tracking lets a refresh skip every view stratum whose \
     support did not change, without altering fixpoints or message traffic";
  let ring_sizes = if !quick then [ 4; 8; 16 ] else [ 4; 8; 16; 24 ] in
  let grid_sides = if !quick then [ 3 ] else [ 3; 4 ] in
  let star_sizes = if !quick then [ 8 ] else [ 8; 16 ] in
  let rows =
    List.map
      (fun n ->
        incr_point ~prog_name:"path-vector" ~topo_name:"ring" ~n ~nodes:n
          ~strict:(n >= 8)
          (Ndlog.Programs.path_vector ())
          (Ndlog.Programs.ring_links n))
      ring_sizes
    @ List.map
        (fun k ->
          incr_point ~prog_name:"bounded-dv" ~topo_name:"grid" ~n:k
            ~nodes:(k * k) ~strict:false
            (Ndlog.Programs.bounded_distance_vector ~max_hops:(2 * k))
            (Ndlog.Programs.grid_links k))
        grid_sides
    @ List.map
        (fun n ->
          incr_point ~prog_name:"bounded-dv" ~topo_name:"star" ~n ~nodes:n
            ~strict:false
            (Ndlog.Programs.bounded_distance_vector ~max_hops:3)
            (Ndlog.Programs.star_links n))
        star_sizes
  in
  e13_rows := rows;
  Fmt.pr
    "distributed runtime, incremental view refresh on vs. off (from-scratch \
     recomputation), identical insertion schedules with mid-run link churn:@.";
  table
    [
      "program"; "topology"; "tuples"; "msgs"; "incr"; "scratch"; "speedup";
      "skipped"; "refolded"; "fallbacks"; "enum incr/scratch"; "enum saved";
      "same fixpoint";
    ]
    (List.map
       (fun r ->
         [
           r.iv_prog;
           Fmt.str "%s %d" r.iv_topo r.iv_n;
           string_of_int r.iv_tuples;
           string_of_int r.iv_msgs;
           Fmt.str "%.1f ms" r.iv_incr_ms;
           Fmt.str "%.1f ms" r.iv_scratch_ms;
           Fmt.str "%.1fx" (iv_speedup r);
           string_of_int r.iv_skipped;
           string_of_int r.iv_refolded;
           string_of_int r.iv_fallbacks;
           Fmt.str "%d/%d" r.iv_enum_incr r.iv_enum_scratch;
           Fmt.str "%.0f%%" (iv_enum_saved r);
           string_of_bool r.iv_same;
         ])
       rows);
  Fmt.pr
    "global fixpoint, per-node stores and message counts are asserted \
     identical per row; on rings >= 8 skipped strata > 0 and a strict \
     view-path enumeration reduction are asserted too.@."

(* ------------------------------------------------------------------ *)
(* E14: sustained churn on the distributed runtime. *)

let e14 () =
  banner "e14" "sustained link/route churn on the id-native runtime"
    "flat int-array tuples and integer joins keep a long-running \
     soft-state router fast and compact";
  (* Quick mode is sized for the @bench-smoke alias (~7 s of churn);
     the full run sustains a million events per repetition on a
     192-node chorded ring. *)
  let n = if !quick then 64 else 192 in
  let events = if !quick then 20_000 else 1_000_000 in
  let reps = 3 in
  let rows = churn_point ~n ~events ~reps in
  e14_rows := rows;
  let med = churn_median rows in
  Fmt.pr
    "chorded ring of %d nodes, bounded path-vector with a promise-audit \
     rule, all predicates soft; %d alternating link-offer / route-promise \
     events with withheld offers and flapping costs, %d repetitions \
     (p50/p99 over the %d post-warmup events):@."
    n events reps med.ch_measured;
  table
    [
      "run"; "events"; "inserts"; "msgs"; "wall"; "tuples/s"; "events/s";
      "p50"; "p99"; "max"; "live heap"; "refresh"; "interned";
    ]
    (List.map2
       (fun name r ->
         [
           name;
           string_of_int r.ch_events;
           string_of_int r.ch_inserts;
           string_of_int r.ch_msgs;
           Fmt.str "%.1f s" r.ch_wall_s;
           Fmt.str "%.0f" r.ch_tuples_per_sec;
           Fmt.str "%.0f" r.ch_events_per_sec;
           Fmt.str "%.0f us" r.ch_p50_us;
           Fmt.str "%.0f us" r.ch_p99_us;
           Fmt.str "%.0f us" r.ch_max_us;
           Fmt.str "%dk words" (r.ch_live_words / 1000);
           Fmt.str "%.0f%%" (100.0 *. churn_refresh_share r);
           string_of_int r.ch_interned;
         ])
       (List.mapi (fun i _ -> Fmt.str "rep %d" (i + 1)) rows @ [ "median" ])
       (rows @ [ med ]));
  Fmt.pr
    "identical global fixpoint, per-node stores, insert and message counts \
     are asserted across the repetitions.@."

(* ------------------------------------------------------------------ *)
(* E15: the per-probe price of each representation choice. *)

let e15 () =
  banner "e15" "per-probe cost of id joins vs. boxed joins vs. translation"
    "design choice: integer joins win only because boxing is hoisted out \
     of the probe loop — translating per probe would cost more than the \
     structural compare it replaces";
  let module Intern = Ndlog.Intern in
  let module Fset = Ndlog.Flat.Fset in
  let k = 256 in
  (* Path-vector-shaped tuples (the churn workload's hot relation):
     two addresses, a three-hop path list, a cost, a hop count. *)
  let mk i =
    let nd j = Ndlog.Value.Addr (Ndlog.Programs.node (j mod k)) in
    [|
      nd i; nd (i + 1);
      Ndlog.Value.List [ nd i; nd (i + 1); nd (i + 2) ];
      Ndlog.Value.Int (i mod 7);
      Ndlog.Value.Int (1 + (i mod 3));
    |]
  in
  (* Two structurally equal corpora in distinct boxes, so the boxed
     compares below actually walk the spine instead of hitting physical
     equality; the id corpora are likewise distinct arrays. *)
  let a = Array.init k mk in
  let b = Array.init k mk in
  let ia = Array.map Intern.tuple_ids a in
  let ib = Array.map (fun t -> Array.copy (Intern.tuple_ids t)) b in
  let tset =
    Array.fold_left
      (fun s t -> Ndlog.Store.Tset.add t s)
      Ndlog.Store.Tset.empty a
  in
  let fset = Fset.create () in
  Array.iter (fun t -> ignore (Fset.add fset t)) ia;
  let sink = ref 0 in
  (* Consing a node onto an interned path, as [f_concatPath] does on
     ids: one pair probe, so the price must not grow with the path. *)
  let heads =
    Array.init k (fun i -> Intern.id (Ndlog.Value.Addr (Ndlog.Programs.node i)))
  in
  let path n =
    Intern.id
      (Ndlog.Value.List
         (List.init n (fun j -> Ndlog.Value.Addr (Ndlog.Programs.node (k + j)))))
  in
  let cons_onto n =
    let p = path n in
    let run () =
      for i = 0 to k - 1 do
        sink := !sink + Intern.cons heads.(i) p
      done
    in
    run () (* register the cells: the rows price hits *);
    run
  in
  let per_op name f =
    let ns = ns_per_run ~name (fun () -> f ()) /. float_of_int k in
    { xl_op = name; xl_ns = ns }
  in
  let rows =
    [
      per_op "id tuple equal" (fun () ->
          for i = 0 to k - 1 do
            if Fset.tuple_eq ia.(i) ib.(i) then incr sink
          done);
      per_op "boxed tuple equal" (fun () ->
          for i = 0 to k - 1 do
            if Ndlog.Store.Tuple.equal a.(i) b.(i) then incr sink
          done);
      per_op "id set probe (Fset.mem)" (fun () ->
          for i = 0 to k - 1 do
            if Fset.mem fset ib.(i) then incr sink
          done);
      per_op "boxed set probe (Tset.mem)" (fun () ->
          for i = 0 to k - 1 do
            if Ndlog.Store.Tset.mem b.(i) tset then incr sink
          done);
      per_op "translate boxed->ids (tuple_ids)" (fun () ->
          for i = 0 to k - 1 do
            sink := !sink + Array.length (Intern.tuple_ids b.(i))
          done);
      per_op "translate ids->boxed (tuple_of_ids)" (fun () ->
          for i = 0 to k - 1 do
            sink := !sink + Array.length (Intern.tuple_of_ids ia.(i))
          done);
      per_op e15_cons_4 (cons_onto 4);
      per_op e15_cons_32 (cons_onto 32);
    ]
  in
  ignore (Sys.opaque_identity !sink);
  e15_rows := rows;
  table
    [ "operation"; "ns/op" ]
    (List.map (fun r -> [ r.xl_op; Fmt.str "%.1f" r.xl_ns ]) rows);
  let ns op = (List.find (fun r -> r.xl_op = op) rows).xl_ns in
  Fmt.pr
    "id probe speedup over boxed probe: %.1fx (equal), %.1fx (set \
     membership)@."
    (ns "boxed tuple equal" /. ns "id tuple equal")
    (ns "boxed set probe (Tset.mem)" /. ns "id set probe (Fset.mem)");
  Fmt.pr
    "cons onto an interned path: %.1f ns at length 4, %.1f ns at length \
     32@."
    (ns e15_cons_4) (ns e15_cons_32);
  Fmt.pr
    "hash-cons translation costs %.1fx a boxed structural compare — paying \
     it per probe would erase the join win, which is why the id-native \
     path translates only at system boundaries.@."
    (ns "translate boxed->ids (tuple_ids)" /. ns "boxed tuple equal")

(* ------------------------------------------------------------------ *)
(* E16: real processes over real sockets. *)

let e16 () =
  banner "e16" "path vector across real OS processes"
    "declarative networks execute on real distributed nodes, not just in \
     simulation — the same program, unchanged, over a real transport \
     (Section 3)";
  let sizes = if !quick then [ 4; 6 ] else [ 4; 8; 12 ] in
  let point n =
    let links = Ndlog.Programs.ring_links n in
    let loc =
      match
        Ndlog.Localize.rewrite_program
          (Ndlog.Programs.with_links (Ndlog.Programs.path_vector ()) links)
      with
      | Ok r -> r.Ndlog.Localize.program
      | Error _ -> assert false
    in
    let topo = topo_of_link_facts links in
    let res, wall_s = wall (fun () -> Dist.Supervisor.run topo loc) in
    let rt = Dist.Runtime.create topo loc in
    Dist.Runtime.load_facts rt;
    let rep, sim_wall_s = wall (fun () -> Dist.Runtime.run rt) in
    if not rep.Dist.Runtime.stats.Netsim.Sim.quiesced then
      failwith (Fmt.str "E16 ring %d: simulator run did not quiesce" n);
    let same =
      List.for_all
        (fun (node, store) ->
          Ndlog.Store.equal store (Dist.Runtime.node_store rt node))
        res.Dist.Supervisor.stores
      && List.length res.Dist.Supervisor.stores = n
    in
    (* The equivalence claim is part of the benchmark: a divergence
       between the socket transport and the simulator fails the run
       (and the bench-smoke alias) loudly. *)
    if not same then
      failwith (Fmt.str "E16 ring %d: socket fixpoints diverge from sim" n);
    {
      mp_nodes = n;
      mp_wall_s = wall_s;
      mp_sim_wall_s = sim_wall_s;
      mp_frames = res.Dist.Supervisor.data_frames;
      mp_bytes = res.Dist.Supervisor.data_bytes;
      mp_inserts = res.Dist.Supervisor.total_inserts;
      mp_polls = res.Dist.Supervisor.polls;
      mp_sim_msgs = rep.Dist.Runtime.stats.Netsim.Sim.messages_sent;
      mp_same = same;
    }
  in
  let rows = List.map point sizes in
  e16_rows := rows;
  table
    [
      "ring n"; "procs"; "wall"; "sim wall"; "frames"; "wire bytes";
      "inserts"; "polls"; "same fixpoint";
    ]
    (List.map
       (fun r ->
         [
           string_of_int r.mp_nodes;
           string_of_int r.mp_nodes;
           Fmt.str "%.3f s" r.mp_wall_s;
           Fmt.str "%.3f s" r.mp_sim_wall_s;
           string_of_int r.mp_frames;
           string_of_int r.mp_bytes;
           string_of_int r.mp_inserts;
           string_of_int r.mp_polls;
           string_of_bool r.mp_same;
         ])
       rows);
  Fmt.pr
    "every ring converged across real processes to the simulator's exact \
     per-node fixpoints — the transport changes the clock and the wire, \
     not the semantics@."

(* ------------------------------------------------------------------ *)
(* E17: partial-order and symmetry reduction for the model checker. *)

let e17 () =
  banner "e17" "reduced model checking"
    "partial-order and symmetry reduction shrink the checker's state \
     space without changing its verdicts (Section 4.3)";
  let module P = Ndlog.Programs in
  let module E = Mcheck.Explore in
  let module NT = Mcheck.Ndlog_ts in
  let module ST = Mcheck.Soft_ts in
  let module Sym = Mcheck.Symmetry in
  let rows = ref [] in
  let push r = rows := !rows @ [ r ] in
  (* Verdict equality is part of the benchmark: within a cell every
     mode whose search completed must reach the same verdict, and
     every counterexample must replay as a real execution. *)
  let assert_agree name vs =
    match List.filter (fun (_, v) -> v <> "truncated") vs with
    | [] -> ()
    | (_, v0) :: rest ->
      List.iter
        (fun (m, v) ->
          if v <> v0 then
            failwith (Fmt.str "E17 %s: mode %s verdict %s <> %s" name m v v0))
        rest
  in
  let validated name sys = function
    | Ok (s : _ E.stats) -> ((if s.E.truncated then "truncated" else "ok"), 0)
    | Error (v : _ E.violation) ->
      (match E.validate_trace sys v.E.trace with
      | Ok () -> ()
      | Error e ->
        failwith (Fmt.str "E17 %s: counterexample does not replay: %s" name e));
      ("violation", List.length v.E.trace)
  in
  (* A fine-grained NDlog cell: explore (state counts) and check [inv]
     (verdict) under each mode.  [verdict_only] skips the exploration
     runs for diverging spaces (count-to-infinity).  [stable] declares
     the invariant monotone-stable, the POR visibility argument for
     insertion-only systems. *)
  let ndlog_cell ~prog_name ~topo_name ?(cap = 100_000) ?(plain_cap = cap)
      ?(verdict_only = false) ?(modes = [ "plain"; "por"; "sym"; "both" ])
      prog topo inv =
    let sym = Sym.of_topology topo in
    let lsys = NT.labeled_system prog in
    let name = Fmt.str "%s/%s" prog_name topo_name in
    let verdicts =
      List.map
        (fun mode ->
          let cap = if mode = "plain" then plain_cap else cap in
          let por = mode = "por" || mode = "por-footprint" || mode = "both" in
          let independence =
            if mode = "por-footprint" then `Footprint else `Monotone
          in
          let symmetry =
            if mode = "sym" || mode = "both" then Some sym else None
          in
          let st, explore_s =
            if verdict_only then
              ( { E.states = 0; transitions = 0; max_depth = 0; terminal = [];
                  truncated = false },
                0. )
            else
              wall (fun () ->
                  NT.explore ~max_states:cap ~por ?symmetry ~independence prog)
          in
          let res, check_s =
            wall (fun () ->
                NT.check_fine_invariant ~max_states:cap ~por ?symmetry
                  ~independence ~stable:true prog inv)
          in
          let verdict, trace_len = validated name lsys res in
          let truncated =
            st.E.truncated || (verdict_only && verdict = "truncated")
          in
          push
            {
              rd_system = "ndlog"; rd_prog = prog_name; rd_topo = topo_name;
              rd_mode = mode; rd_states = st.E.states;
              rd_transitions = st.E.transitions; rd_truncated = truncated;
              rd_wall_s = explore_s +. check_s; rd_verdict = verdict;
              rd_trace_len = trace_len;
            };
          (mode, verdict))
        modes
    in
    assert_agree name verdicts
  in
  (* A soft-state cell: same shape over the clocked lease system. *)
  let soft_cell ~prog_name ~topo_name cfg topo ~observed inv =
    let sym = Sym.of_topology topo in
    let lsys = ST.labeled_system cfg in
    let name = Fmt.str "%s/%s" prog_name topo_name in
    let verdicts =
      List.map
        (fun mode ->
          let por = mode = "por" || mode = "both" in
          let symmetry =
            if mode = "sym" || mode = "both" then Some sym else None
          in
          let st, explore_s = wall (fun () -> ST.explore ~por ?symmetry cfg) in
          let res, check_s =
            wall (fun () -> ST.check ~por ?symmetry ~observed cfg inv)
          in
          let verdict, trace_len = validated name lsys res in
          push
            {
              rd_system = "soft"; rd_prog = prog_name; rd_topo = topo_name;
              rd_mode = mode; rd_states = st.E.states;
              rd_transitions = st.E.transitions; rd_truncated = st.E.truncated;
              rd_wall_s = explore_s +. check_s; rd_verdict = verdict;
              rd_trace_len = trace_len;
            };
          (mode, verdict))
        [ "plain"; "por"; "sym"; "both" ]
    in
    assert_agree name verdicts
  in
  let reach links = P.with_links (P.reachability ()) links in
  let bdv h links = P.with_links (P.bounded_distance_vector ~max_hops:h) links in
  let no_self_reach db =
    Ndlog.Store.fold_rel "reachable"
      (fun t ok -> ok && not (Ndlog.Value.equal t.(0) t.(1)))
      db true
  in
  let cost_bound b db =
    Ndlog.Store.fold_rel "cost"
      (fun t ok ->
        ok && (match t.(2) with Ndlog.Value.Int c -> c <= b | _ -> true))
      db true
  in
  (* Small cells: the plain baseline completes, so the reduction
     factors and verdict equality are exact.  The footprint-POR column
     rides along where plain is cheap — its honesty number (measured
     ~1x on rings, where every insertion's write is a neighbour's
     read) is part of the record. *)
  ndlog_cell ~prog_name:"reachability" ~topo_name:"ring3"
    ~modes:[ "plain"; "por"; "por-footprint"; "sym"; "both" ]
    (reach (P.ring_links 3))
    (Netsim.Topology.ring 3) no_self_reach;
  ndlog_cell ~prog_name:"reachability" ~topo_name:"star4"
    (reach (P.star_links 4))
    (Netsim.Topology.star 4) no_self_reach;
  ndlog_cell ~prog_name:"bdv-h2" ~topo_name:"ring3"
    ~modes:[ "plain"; "por"; "por-footprint"; "sym"; "both" ]
    (bdv 2 (P.ring_links 3))
    (Netsim.Topology.ring 3) (cost_bound 2);
  if not !quick then
    ndlog_cell ~prog_name:"reachability" ~topo_name:"grid2"
      (reach (P.grid_links 2))
      (Netsim.Topology.grid 2) no_self_reach;
  (* Ring 8: the plain space is out of reach (the truncated row records
     how far a capped plain search gets), and so is the sym-only mode —
     the orbit quotient divides by at most the group order (16), which
     does not dent an exponential space, so symmetry pays off only on
     top of POR.  The POR modes finish in milliseconds and still decide
     the verdicts — including the E2 count-to-infinity violation, whose
     counterexample must replay. *)
  let ring8_modes = [ "plain"; "por"; "both" ] in
  ndlog_cell ~prog_name:"reachability" ~topo_name:"ring8" ~plain_cap:1_000
    ~modes:ring8_modes
    (reach (P.ring_links 8))
    (Netsim.Topology.ring 8) no_self_reach;
  ndlog_cell ~prog_name:"bdv-h2" ~topo_name:"ring8" ~plain_cap:1_000
    ~modes:ring8_modes
    (bdv 2 (P.ring_links 8))
    (Netsim.Topology.ring 8) (cost_bound 2);
  ndlog_cell ~prog_name:"dv-unbounded" ~topo_name:"ring8" ~cap:50_000
    ~plain_cap:1_000 ~verdict_only:true ~modes:ring8_modes
    (P.with_links (P.distance_vector ()) (P.ring_links 8))
    (Netsim.Topology.ring 8) (cost_bound 4);
  (* Soft state: ticks commute with nothing, so POR is inert below the
     horizon (plain and por coincide — the honest number); symmetry
     over the star's leaf group is the effective reduction. *)
  let hb_prog =
    P.parse_exn
      {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|}
  in
  let hb k =
    let pings =
      List.init (k - 1) (fun i ->
          ( "ping",
            [| Ndlog.Value.Addr (P.node 0); Ndlog.Value.Addr (P.node (i + 1)) |]
          ))
    in
    ST.make_config ~horizon:4 ~inject:(fun t -> if t <= 1 then pings else [])
      hb_prog
  in
  let alive_gone (s : ST.state) =
    s.ST.clock < 4
    || Ndlog.Store.is_empty (Ndlog.Store.restrict [ "alive" ] s.ST.db)
  in
  let soft_sizes = if !quick then [ 4; 5 ] else [ 4; 5; 6 ] in
  List.iter
    (fun k ->
      soft_cell ~prog_name:"heartbeat" ~topo_name:(Fmt.str "star%d" k) (hb k)
        (Netsim.Topology.star k) ~observed:[ "alive" ] alive_gone)
    soft_sizes;
  (* Exact orbit counts, (sym, both) per cell: a canonicalizer that
     splits or merges orbits moves them even where every verdict
     survives.  Ring 8 runs no sym-only mode. *)
  let pinned =
    [
      ("reachability/ring3", (Some 70, 10));
      ("reachability/star4", (Some 1989, 17));
      ("bdv-h2/ring3", (Some 867, 16));
      ("reachability/grid2", (Some 3718, 17));
      ("reachability/ring8", (None, 65));
      ("bdv-h2/ring8", (None, 41));
      ("heartbeat/star4", (Some 29, 29));
      ("heartbeat/star5", (Some 41, 41));
      ("heartbeat/star6", (Some 55, 55));
    ]
  in
  List.iter
    (fun r ->
      let cell = r.rd_prog ^ "/" ^ r.rd_topo in
      let expect =
        match (List.assoc_opt cell pinned, r.rd_mode) with
        | Some (sym, _), "sym" -> sym
        | Some (_, both), "both" -> Some both
        | _ -> None
      in
      match expect with
      | Some n when (not r.rd_truncated) && r.rd_states <> n ->
        failwith
          (Fmt.str "E17 %s/%s: %d states, pinned at %d" cell r.rd_mode
             r.rd_states n)
      | _ -> ())
    !rows;
  e17_rows := !rows;
  table
    [ "system"; "program"; "topology"; "mode"; "states"; "verdict"; "wall" ]
    (List.map
       (fun r ->
         [
           r.rd_system; r.rd_prog; r.rd_topo; r.rd_mode;
           (if r.rd_states = 0 then "-"
            else if r.rd_truncated then Fmt.str ">=%d" r.rd_states
            else string_of_int r.rd_states);
           (if r.rd_verdict = "violation" then
              Fmt.str "violation (%d steps)" r.rd_trace_len
            else r.rd_verdict);
           Fmt.str "%.3f s" r.rd_wall_s;
         ])
       !rows);
  Fmt.pr
    "verdicts agree across every completed mode; monotone POR collapses \
     insertion interleavings to one chain, symmetry quotients node orbits — \
     and the footprint and soft-POR columns record where reduction honestly \
     vanishes@."

(* ------------------------------------------------------------------ *)
(* E9: soft-state rewrite overhead. *)

let e9 () =
  banner "e9" "the soft-state to hard-state rewrite"
    "the resulting encoding is heavy-weight and cumbersome (Section 4.2)";
  let count_literals (p : Ndlog.Ast.program) =
    List.fold_left
      (fun acc (r : Ndlog.Ast.rule) -> acc + List.length r.Ndlog.Ast.body)
      0 p.Ndlog.Ast.rules
  in
  let rows =
    List.map
      (fun k ->
        let p =
          Ndlog.Programs.with_links
            (Ndlog.Programs.heartbeat ~lifetime:10)
            (Ndlog.Programs.line_links k)
        in
        let report = Ndlog.Softstate.to_hard_state p in
        let h = report.Ndlog.Softstate.rewritten in
        let _, t_soft = wall (fun () -> ignore (Ndlog.Eval.run_exn p)) in
        let _, t_hard =
          wall (fun () -> ignore (Ndlog.Softstate.run_at_clock h ~now:5))
        in
        [
          string_of_int k;
          Fmt.str "%d/%d" (List.length p.Ndlog.Ast.rules) (count_literals p);
          Fmt.str "%d/%d" (List.length h.Ndlog.Ast.rules) (count_literals h);
          string_of_int report.Ndlog.Softstate.added_columns;
          string_of_int report.Ndlog.Softstate.added_conditions;
          Fmt.str "%.2f ms" (t_soft *. 1e3);
          Fmt.str "%.2f ms" (t_hard *. 1e3);
        ])
      [ 2; 4; 8 ]
  in
  table
    [
      "line n"; "soft rules/lits"; "hard rules/lits"; "+cols"; "+guards";
      "soft eval"; "hard eval";
    ]
    rows;
  Fmt.pr
    "the rewrite inflates every soft rule with timestamp columns and \
     liveness guards — the overhead motivating the paper's linear-logic \
     direction@."

(* ------------------------------------------------------------------ *)
(* E10: model checking. *)

let e10 () =
  banner "e10" "model checking the SPP transition systems"
    "the transition-system representation interfaces with model checking and \
     yields counterexamples";
  let rows =
    List.map
      (fun (name, g) ->
        let r = Spp.Ts.analyze g in
        [
          name;
          string_of_int r.Spp.Ts.states;
          string_of_int r.Spp.Ts.transitions;
          string_of_int r.Spp.Ts.stable_reachable;
          (match r.Spp.Ts.oscillation with
          | Some l -> Fmt.str "cycle(%d)" (List.length l.Mcheck.Explore.cycle)
          | None -> "none");
          string_of_bool r.Spp.Ts.sync_oscillates;
        ])
      Spp.Gadgets.all
  in
  table
    [
      "gadget"; "states"; "transitions"; "stable"; "interleaved lasso";
      "sync lasso";
    ]
    rows;
  let p =
    Ndlog.Programs.with_links
      (Ndlog.Programs.reachability ())
      (Ndlog.Programs.line_links 3)
  in
  let no_self db =
    Ndlog.Store.tuples "reachable" db
    |> List.for_all (fun t -> not (Ndlog.Value.equal t.(0) t.(1)))
  in
  (match Mcheck.Ndlog_ts.check_table_invariant p no_self with
  | Ok _ -> Fmt.pr "unexpected: no-self-reachability held@."
  | Error v ->
    Fmt.pr
      "@.NDlog invariant 'no node reaches itself' violated as expected; \
       counterexample trace has %d database states@."
      (List.length v.Mcheck.Explore.trace));
  let stats = Mcheck.Explore.explore (Mcheck.Ndlog_ts.batched_system p) in
  Fmt.pr "reachability fixpoint state space: %d states, %d transitions@."
    stats.Mcheck.Explore.states stats.Mcheck.Explore.transitions

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out, measured. *)

(* A1: the prover's forward-chaining engine on/off. *)
let a1 () =
  banner "a1" "ablation: prover forward chaining"
    "design choice: saturate Horn clauses before spending fuel";
  let thy =
    Logic.Completion.theory_of_program (Ndlog.Programs.path_vector ())
  in
  let goals =
    [
      ("bestPathStrong", (Fvn.Props.route_optimality ()).Fvn.Props.formula);
      ("membership", (Fvn.Props.aggregate_membership ()).Fvn.Props.formula);
      ("functional", (Fvn.Props.aggregate_functional ()).Fvn.Props.formula);
    ]
  in
  let attempt ~rounds goal =
    let cfg = Logic.Prove.make_config ~max_forward_rounds:rounds thy in
    let rec go fuel =
      if fuel > 5 then None
      else
        match Logic.Prove.solve cfg (Logic.Sequent.make goal) fuel with
        | Some p -> Some (p, cfg.Logic.Prove.stats.Logic.Prove.nodes_explored)
        | None -> go (fuel + 1)
    in
    go 1
  in
  let rows =
    List.map
      (fun (name, goal) ->
        let cell = function
          | Some (p, nodes) ->
            Fmt.str "proved (%d inf, %d nodes)" (Logic.Proof.size p) nodes
          | None -> "NOT PROVED"
        in
        [
          name;
          cell (attempt ~rounds:6 goal);
          cell (attempt ~rounds:0 goal);
        ])
      goals
  in
  table [ "theorem"; "with forward chaining"; "without" ] rows;
  Fmt.pr
    "without saturation the aggregate axioms are never instantiated: the \
     proofs are out of reach at any fuel@."

(* A2: model-checker granularity (fine-grained vs batched insertions). *)
let a2 () =
  banner "a2" "ablation: transition granularity in the model checker"
    "design choice: batched insertion steps shrink the state space, same fixpoint";
  let rows =
    List.map
      (fun n ->
        let p =
          Ndlog.Programs.with_links
            (Ndlog.Programs.reachability ())
            (Ndlog.Programs.line_links n)
        in
        let fine =
          Mcheck.Explore.explore ~max_states:20_000 (Mcheck.Ndlog_ts.system p)
        in
        let batched =
          Mcheck.Explore.explore ~max_states:20_000
            (Mcheck.Ndlog_ts.batched_system p)
        in
        [
          string_of_int n;
          Fmt.str "%d%s" fine.Mcheck.Explore.states
            (if fine.Mcheck.Explore.truncated then "+ (truncated)" else "");
          string_of_int batched.Mcheck.Explore.states;
          string_of_bool
            (match
               ( fine.Mcheck.Explore.terminal,
                 batched.Mcheck.Explore.terminal )
             with
            | f :: _, b :: _ -> Ndlog.Store.equal f b
            | _ -> false);
        ])
      [ 2; 3 ]
  in
  table
    [ "line n"; "fine-grained states"; "batched states"; "same fixpoint" ]
    rows

(* A3: what localization costs on the wire. *)
let a3 () =
  banner "a3" "ablation: localization's message overhead"
    "design choice: the link-restriction rewrite ships inverted link copies";
  let rows =
    List.map
      (fun n ->
        let links = Ndlog.Programs.ring_links n in
        let p =
          Ndlog.Programs.with_links (Ndlog.Programs.path_vector ()) links
        in
        let loc =
          match Ndlog.Localize.rewrite_program p with
          | Ok r -> r.Ndlog.Localize.program
          | Error _ -> assert false
        in
        let rt = Dist.Runtime.create (Netsim.Topology.ring n) loc in
        Dist.Runtime.load_facts rt;
        let report = Dist.Runtime.run rt in
        let global = Dist.Runtime.global_store rt in
        let link_copies = Ndlog.Store.cardinal "link_l1" global in
        let msgs = report.Dist.Runtime.stats.Netsim.Sim.messages_sent in
        [
          string_of_int n;
          string_of_int msgs;
          string_of_int link_copies;
          string_of_int (msgs - link_copies);
          Fmt.str "%.0f%%" (100. *. float_of_int link_copies /. float_of_int msgs);
        ])
      [ 4; 8; 16 ]
  in
  table
    [ "ring n"; "messages"; "link_l1 copies"; "path shipments"; "rewrite share" ]
    rows;
  Fmt.pr
    "the rewrite's overhead is one message per directed link — constant per \
     edge, independent of route churn@."

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e9", e9); ("e10", e10); ("e13", e13); ("e14", e14);
    ("e15", e15); ("e16", e16); ("e17", e17);
    ("a1", a1); ("a2", a2); ("a3", a3);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        match a with
        | "quick" ->
          quick := true;
          false
        | "json" ->
          (* Emit the machine-readable E7/E13–E17 ledger
             (BENCH_ndlog.json). *)
          json_out := true;
          false
        | _ -> true)
      args
  in
  let selected =
    match args with
    | [] -> experiments
    | ids ->
      List.map
        (fun id ->
          match List.assoc_opt (String.lowercase_ascii id) experiments with
          | Some f -> (id, f)
          | None ->
            (* Fail before running anything, so a stale id list (a
               retired experiment in a script) cannot pass silently. *)
            Fmt.epr "unknown experiment %S (known: %s)@." id
              (String.concat ", " (List.map fst experiments));
            exit 2)
        ids
  in
  Fmt.pr "FVN benchmark harness — reproducing the paper's evaluation claims@.";
  List.iter (fun (_, f) -> f ()) selected;
  if !json_out then emit_bench_json ();
  Fmt.pr "@.";
  rule ();
  Fmt.pr "done.@."
