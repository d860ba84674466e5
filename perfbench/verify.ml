(* verify: the verification half of FVN.

   One client, closed loop.  Each operation proves the four built-in
   properties of the path-vector program (re-checking every returned
   proof in the kernel), explores the plain model-checking cells, whose
   state counts are fixed, and decides the reduced cells, replaying
   every counterexample.  The logic and model-checking layers do all
   the work; the distributed runtime does none. *)

open Common
module P = Ndlog.Programs
module E = Mcheck.Explore
module NT = Mcheck.Ndlog_ts
module ST = Mcheck.Soft_ts
module Sym = Mcheck.Symmetry

(* Proof sets per operation: one set takes about a millisecond. *)
let proof_sets = 10

(* Link facts as source text, one line per directed fact. *)
let links_src links =
  String.concat "\n"
    (List.map
       (fun (f : Ndlog.Ast.fact) ->
         match f.Ndlog.Ast.fact_args with
         | [ s; d; c ] ->
           Printf.sprintf "link(@%s, %s, %d)." (Ndlog.Value.as_addr s)
             (Ndlog.Value.as_addr d) (Ndlog.Value.as_int c)
         | _ -> "")
       links)

let no_self_reach db =
  Ndlog.Store.fold_rel "reachable"
    (fun t ok -> ok && not (Ndlog.Value.equal t.(0) t.(1)))
    db true

let cost_bound b db =
  Ndlog.Store.fold_rel "cost"
    (fun t ok ->
      ok && match t.(2) with Ndlog.Value.Int c -> c <= b | _ -> true)
    db true

let heartbeat_src =
  {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|}

type verdict = Holds of int  (** states explored *) | Violated | Wrong

(* A model-checking cell: [run] explores or checks, [expect] is the
   pinned outcome, and [tally] names the counter its state count feeds
   (the heartbeat's plain and symmetry-reduced spaces give
   [mc.reduction_x]). *)
type cell = {
  name : string;
  run : unit -> verdict;
  expect : verdict;
  tally : string option;
}

let stats r (s : _ E.stats) =
  count r "mc.states" (float_of_int s.E.states);
  count r "mc.transitions" (float_of_int s.E.transitions);
  if s.E.truncated then Wrong else Holds s.E.states

let outcome r lsys = function
  | Ok s -> stats r s
  | Error (v : _ E.violation) ->
    if span r "mc.validate" (fun () -> E.validate_trace lsys v.E.trace) = Ok ()
    then Violated
    else Wrong

type sys = {
  theory : Logic.Theory.t;
  props : Fvn.Props.t list;
  plain : cell list;
  reduced : cell list;
}

let setup r =
  let parse = Layer.parse r in
  let pv = parse P.path_vector_src in
  ignore (Layer.analyze r pv);
  let theory =
    span r "logic.theory" (fun () -> Logic.Completion.theory_of_program pv)
  in
  let props =
    Fvn.Props.
      [
        route_optimality (); aggregate_membership (); one_hop_paths ();
        aggregate_functional ();
      ]
  in
  let reach links = parse (P.reachability_src ^ links_src links) in
  let bdv links =
    parse (P.bounded_distance_vector_src ~max_hops:2 ^ links_src links)
  in
  let dv links = parse (P.distance_vector_src ^ links_src links) in
  let hb =
    let pings =
      List.init 5 (fun i ->
          ( "ping",
            [| Ndlog.Value.Addr (P.node 0); Ndlog.Value.Addr (P.node (i + 1)) |]
          ))
    in
    ST.make_config ~horizon:4
      ~inject:(fun t -> if t <= 1 then pings else [])
      (parse heartbeat_src)
  in
  let reach3 = reach (P.ring_links 3) in
  let explore name expect ?tally f =
    { name; run = (fun () -> stats r (span r "mc.explore" f)); expect; tally }
  in
  let plain =
    [
      explore "reachability/ring3" (Holds 343) (fun () -> NT.explore reach3);
      explore "heartbeat/star6" (Holds 551) ~tally:"mc.plain_states" (fun () ->
          ST.explore hb);
    ]
  in
  let ring8 = Sym.of_topology (Netsim.Topology.ring 8) in
  let fine name prog inv ~sym ~cap expect =
    let lsys = NT.labeled_system prog in
    let symmetry = if sym then Some ring8 else None in
    {
      name;
      run =
        (fun () ->
          outcome r lsys
            (span r "mc.check" (fun () ->
                 NT.check_fine_invariant ~max_states:cap ~por:true ?symmetry
                   ~stable:true prog inv)));
      expect;
      tally = None;
    }
  in
  let r8 = P.ring_links 8 in
  let reach8 = reach r8 and bdv8 = bdv r8 and dv8 = dv r8 in
  let ring8_cells (mode, sym) =
    [
      fine ("reachability/ring8/" ^ mode) reach8 no_self_reach ~sym
        ~cap:100_000 Violated;
      fine ("bdv-h2/ring8/" ^ mode) bdv8 (cost_bound 2) ~sym ~cap:100_000
        (Holds 41);
      fine ("dv-unbounded/ring8/" ^ mode) dv8 (cost_bound 4) ~sym ~cap:50_000
        Violated;
    ]
  in
  let star6 = Sym.of_topology (Netsim.Topology.star 6) in
  let alive_gone (s : ST.state) =
    s.ST.clock < 4
    || Ndlog.Store.is_empty (Ndlog.Store.restrict [ "alive" ] s.ST.db)
  in
  let hb_lsys = ST.labeled_system hb in
  let heartbeat_sym =
    {
      name = "heartbeat/star6/sym";
      run =
        (fun () ->
          outcome r hb_lsys
            (span r "mc.check" (fun () ->
                 ST.check ~symmetry:star6 ~observed:[ "alive" ] hb alive_gone)));
      expect = Holds 55;
      tally = Some "mc.reduced_states";
    }
  in
  {
    theory;
    props;
    plain;
    reduced =
      List.concat_map ring8_cells [ ("por", false); ("both", true) ]
      @ [ heartbeat_sym ];
  }

let prove r sys =
  List.iter
    (fun (p : Fvn.Props.t) ->
      let f = p.Fvn.Props.formula and name = p.Fvn.Props.prop_name in
      match span r "logic.prove" (fun () -> Logic.Prove.prove sys.theory f) with
      | Error e -> check r (name ^ " proved: " ^ e) false
      | Ok o ->
        count r "logic.nodes_explored"
          (float_of_int o.Logic.Prove.nodes_explored);
        count r "logic.proof_steps" (float_of_int o.Logic.Prove.steps);
        let rechecked =
          span r "logic.check" (fun () ->
              Logic.Checker.check sys.theory (Logic.Sequent.make f)
                o.Logic.Prove.proof)
        in
        check r
          (name ^ " proved and kernel-checked")
          (o.Logic.Prove.checked && rechecked = Ok ()))
    sys.props

(* Run the cells now; the returned thunk checks their pinned outcomes
   after the clock has stopped and gives the states the holding cells
   explored. *)
let run_cells r cells =
  let found = List.map (fun c -> (c, c.run ())) cells in
  fun () ->
    List.fold_left
      (fun acc (c, v) ->
        check r (c.name ^ ": pinned outcome, replayed counterexample")
          (v = c.expect);
        match (v, c.tally) with
        | Holds n, Some k ->
          count r k (float_of_int n);
          acc + n
        | Holds n, None -> acc + n
        | _ -> acc)
      0 found

let run r ~seed:_ ~seconds =
  let sys = setups r ~k:101 (fun () -> setup r) in
  let per_op = ref [] in
  let op _ =
    let t0 = now () in
    for _ = 1 to proof_sets do
      prove r sys
    done;
    let t1 = now () in
    let plain = run_cells r sys.plain in
    let t2 = now () in
    let reduced = run_cells r sys.reduced in
    let t3 = now () in
    let plain_states = plain () in
    ignore (reduced ());
    per_op := (t1 - t0, plain_states, t2 - t1, t3 - t2) :: !per_op;
    t3 - t0
  in
  ignore (measure r ~seconds ~warmup:1 op);
  let med f = median (List.map (fun p -> float_of_int (f p)) !per_op) in
  note r "proof_ms"
    (med (fun (p, _, _, _) -> p) /. float_of_int proof_sets /. 1e6)
    "ms";
  let states, ns =
    List.fold_left (fun (a, b) (_, s, t, _) -> (a + s, b + t)) (0, 0) !per_op
  in
  note r "mc_states_per_s" (float_of_int states /. ns_to_s ns) "1/s";
  note r "verdict_s" (med (fun (_, _, _, v) -> v) /. 1e9) "s"
