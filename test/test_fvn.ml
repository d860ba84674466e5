(* Integration tests: the full FVN pipeline of Figure 1.

   Each test exercises a chain of arcs end-to-end: NDlog programs are
   compiled to logic and verified (4-5), component designs are verified
   and translated to NDlog (1-3), programs execute centralized and
   distributed (7), and table invariants are model checked (6/8). *)

module Ast = Ndlog.Ast
module Programs = Ndlog.Programs
module Store = Ndlog.Store
module V = Ndlog.Value
module Pipeline = Fvn.Pipeline
module Props = Fvn.Props

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Arc 4-5: verify the path-vector protocol's properties. *)

let test_verify_path_vector () =
  let props =
    [
      Props.route_optimality ();
      Props.aggregate_membership ();
      Props.one_hop_paths ();
      Props.aggregate_functional ();
    ]
  in
  match Pipeline.verify_program (Programs.path_vector ()) props with
  | Error e -> Alcotest.fail e
  | Ok v ->
    checkb "all proved" true (Pipeline.proved v);
    checki "four results" 4 (List.length v.Pipeline.results);
    List.iter
      (fun r ->
        match r.Pipeline.verdict with
        | `Proved o ->
          checkb "kernel checked" true o.Logic.Prove.checked;
          checkb "fast (fraction of a second)" true (o.Logic.Prove.elapsed < 1.0)
        | `Failed m -> Alcotest.fail m)
      v.Pipeline.results

let test_verify_rejects_false_property () =
  (* Not every path is a best path: this conjecture must fail, and fail
     cleanly (no exception, no bogus proof). *)
  let bogus =
    Props.implication ~name:"everyPathIsBest"
      ~antecedent:("path", [ "S"; "D"; "P"; "C" ])
      ~consequent:("bestPath", [ "S"; "D"; "P"; "C" ])
      ()
  in
  match Pipeline.verify_program (Programs.path_vector ()) [ bogus ] with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    checkb "not proved" false (Pipeline.proved v);
    match (List.hd v.Pipeline.results).Pipeline.verdict with
    | `Failed _ -> ()
    | `Proved _ -> Alcotest.fail "proved a false property")

let test_verify_bad_program_rejected () =
  let bad =
    match Ndlog.Parser.parse_program "p(@X,Y) :- q(@X)." with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match Pipeline.verify_program bad [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe program accepted"

(* ------------------------------------------------------------------ *)
(* Arcs 1-3: generate NDlog from a verified component design. *)

let adder_model =
  let v x = Ast.Var x in
  Component.Model.composite "adder"
    [
      Component.Model.atomic ~name:"inc"
        ~inputs:[ Ast.atom "source" [ v "X" ] ]
        ~constraints:[ Ast.Assign ("Y", Ast.Binop (Ast.Add, v "X", Ast.cint 1)) ]
        ~output:(Ast.head "bumped" [ Ast.Plain (v "Y") ])
        ();
      Component.Model.atomic ~name:"double"
        ~inputs:[ Ast.atom "bumped" [ v "Y" ] ]
        ~constraints:[ Ast.Assign ("Z", Ast.Binop (Ast.Mul, v "Y", Ast.cint 2)) ]
        ~output:(Ast.head "result" [ Ast.Plain (v "Z") ])
        ();
    ]

let test_generate_verified_program () =
  (* Property: every result came from a bumped value. *)
  let prop =
    Props.implication ~name:"resultFromBumped"
      ~antecedent:("result", [ "Z" ])
      ~consequent:("result", [ "Z" ])
      ()
  in
  let facts = [ Ast.fact "source" [ V.Int 5 ] ] in
  match Pipeline.generate ~facts adder_model [ prop ] with
  | Error e -> Alcotest.fail e
  | Ok g ->
    checkb "verification passed" true (Pipeline.proved g.Pipeline.gen_verification);
    checki "two rules" 2 (List.length g.Pipeline.program.Ast.rules)

let test_full_pipeline () =
  let facts = [ Ast.fact "source" [ V.Int 5 ] ] in
  match Pipeline.full_pipeline ~facts adder_model [] with
  | Error e -> Alcotest.fail e
  | Ok fr -> (
    match fr.Pipeline.fr_execution with
    | Pipeline.Central o ->
      let results = Store.tuples "result" o.Ndlog.Eval.db in
      checki "one result" 1 (List.length results);
      (* (5+1)*2 *)
      checkb "value 12" true (V.equal (List.hd results).(0) (V.Int 12))
    | Pipeline.Distributed _ -> Alcotest.fail "expected central execution")

let test_generate_rejects_dangling_model () =
  let broken =
    Component.Model.atomic ~name:"t"
      ~inputs:[ Ast.atom "nowhere" [ Ast.Var "X" ] ]
      ~output:(Ast.head "out" [ Ast.Plain (Ast.Var "X") ])
      ()
  in
  match Pipeline.generate broken [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling model accepted"

(* ------------------------------------------------------------------ *)
(* Arc 7: execution modes agree. *)

let test_central_vs_distributed () =
  let program =
    Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4)
  in
  let central =
    match Pipeline.execute program with
    | Ok (Pipeline.Central o) -> o.Ndlog.Eval.db
    | Ok _ | Error _ -> Alcotest.fail "central execution failed"
  in
  match Pipeline.execute_distributed program with
  | Error e -> Alcotest.fail e
  | Ok (Pipeline.Distributed { global; report; _ }) ->
    checkb "quiesced" true report.Dist.Runtime.stats.Netsim.Sim.quiesced;
    List.iter
      (fun pred ->
        checkb (pred ^ " agrees") true
          (Store.Tset.equal
             (Store.relation pred central)
             (Store.relation pred global)))
      [ "path"; "bestPath"; "bestPathCost" ]
  | Ok (Pipeline.Central _) -> Alcotest.fail "expected distributed execution"

let test_execution_detects_divergence () =
  let program =
    Programs.with_links (Programs.distance_vector ()) (Programs.ring_links 3)
  in
  match Pipeline.execute ~max_rounds:30 program with
  | Ok (Pipeline.Central o) -> checkb "diverged" false o.Ndlog.Eval.converged
  | Ok _ | Error _ -> Alcotest.fail "unexpected"

(* ------------------------------------------------------------------ *)
(* Arc 6/8: model checking from the pipeline. *)

let test_model_check_invariant () =
  let program =
    Programs.with_links (Programs.path_vector ()) (Programs.line_links 3)
  in
  (* Invariant: all path tuples are simple paths (the f_inPath guard). *)
  let simple db =
    Store.tuples "path" db
    |> List.for_all (fun t ->
           let p = V.as_list t.(2) in
           List.length p = List.length (List.sort_uniq V.compare p))
  in
  match Pipeline.model_check ~max_states:5_000 program simple with
  | Ok stats -> checkb "states explored" true (stats.Mcheck.Explore.states > 0)
  | Error _ -> Alcotest.fail "invariant should hold"

let test_model_check_counterexample () =
  let program =
    Programs.with_links (Programs.path_vector ()) (Programs.line_links 3)
  in
  (* A deliberately false invariant: no multi-hop paths ever. *)
  let no_multi_hop db =
    Store.tuples "path" db
    |> List.for_all (fun t -> List.length (V.as_list t.(2)) <= 2)
  in
  match Pipeline.model_check ~max_states:5_000 program no_multi_hop with
  | Ok _ -> Alcotest.fail "expected violation"
  | Error v ->
    checkb "trace leads to violation" true
      (List.length v.Mcheck.Explore.trace >= 1)

(* State identity regression: the checker's visited table must key
   states with [Store.equal]/[Store.hash], which ignore the internal
   tree shape — a store and its twin built in another insertion order
   are the same state. *)
let test_explore_insertion_order_independence () =
  let tup i = [| V.Int i |] in
  let rows = List.init 20 tup in
  let forward = Store.add_list "r" rows Store.empty in
  let backward = Store.add_list "r" (List.rev rows) Store.empty in
  let tbl =
    Mcheck.Explore.Table.create ~equal:Store.equal ~hash:Store.hash ()
  in
  Mcheck.Explore.Table.add tbl forward 0;
  checkb "insertion-order twin is the same state" true
    (Mcheck.Explore.Table.mem tbl backward)

(* Interning independence: hash-consing is a representation change,
   so exploring a program whose facts are fresh, unshared value boxes
   must visit the same state space as exploring it with interned facts,
   and an interned store must be the same visited-table state as its
   twin built from fresh boxes ([Store.add] does not intern). *)
let test_explore_interning_independence () =
  let rec fresh (v : V.t) : V.t =
    match v with
    | V.Addr s -> V.Addr (Bytes.to_string (Bytes.of_string s))
    | V.Str s -> V.Str (Bytes.to_string (Bytes.of_string s))
    | V.List vs -> V.List (List.map fresh vs)
    | V.Int _ | V.Bool _ -> v
  in
  let program =
    Programs.with_links (Programs.path_vector ()) (Programs.line_links 3)
  in
  let explore_with g =
    let module A = Ndlog.Ast in
    let facts =
      List.map
        (fun (f : A.fact) -> { f with A.fact_args = List.map g f.A.fact_args })
        program.A.facts
    in
    Mcheck.Explore.explore ~max_states:5_000
      (Mcheck.Ndlog_ts.labeled_system { program with A.facts })
  in
  let on = explore_with Ndlog.Intern.canon and off = explore_with fresh in
  checki "states independent of interning" off.Mcheck.Explore.states
    on.Mcheck.Explore.states;
  checki "transitions independent of interning" off.Mcheck.Explore.transitions
    on.Mcheck.Explore.transitions;
  checki "depth independent of interning" off.Mcheck.Explore.max_depth
    on.Mcheck.Explore.max_depth;
  let rows = List.init 20 (fun i -> [| V.Addr ("n" ^ string_of_int i) |]) in
  let interned =
    Store.add_list "r" (List.map Ndlog.Intern.tuple rows) Store.empty
  in
  let boxed = Store.add_list "r" (List.map (Array.map fresh) rows) Store.empty in
  let tbl =
    Mcheck.Explore.Table.create ~equal:Store.equal ~hash:Store.hash ()
  in
  Mcheck.Explore.Table.add tbl interned 0;
  checkb "boxed twin is the same state" true
    (Mcheck.Explore.Table.mem tbl boxed)

(* Flat-representation independence: a store round-tripped through the
   id-native flat database ([Flat.of_store] / [Flat.to_store] — the
   path every id-mode runtime store takes) must be the same
   model-checker state as the store it came from, with a warm flat
   index. *)
let test_explore_flat_independence () =
  let module Flat = Ndlog.Flat in
  let rows =
    List.init 30 (fun i ->
        [| V.Addr ("n" ^ string_of_int (i mod 6)); V.Int (i mod 7) |])
  in
  let plain = Store.add_list "r" (List.rev rows) Store.empty in
  let fdb = Flat.of_store plain in
  (* Warm the flat side's secondary index, then materialize. *)
  ignore (Flat.lookup fdb "r" ~cols:[ 0 ] ~key:[| Ndlog.Intern.id (V.Addr "n3") |]);
  let warmed = Flat.to_store fdb in
  checkb "flat round-trip is Store.equal" true (Store.equal plain warmed);
  checki "flat round-trip hash" (Store.hash plain) (Store.hash warmed);
  checki "flat round-trip compare" 0 (Store.compare plain warmed);
  let tbl =
    Mcheck.Explore.Table.create ~equal:Store.equal ~hash:Store.hash ()
  in
  Mcheck.Explore.Table.add tbl warmed 0;
  checkb "plain twin is the same state" true
    (Mcheck.Explore.Table.mem tbl plain)

let test_explore_bucket_distribution () =
  (* 600 large states differing in one tuple: [Hashtbl.hash]'s
     depth/size truncation collapsed these into a handful of buckets
     (the table degraded to a linear scan); [Store.hash] folds every
     tuple, so the distribution stays sane. *)
  let base =
    Store.add_list "base"
      (List.init 50 (fun i -> [| V.Int (1000 + i); V.Int i |]))
      Store.empty
  in
  let states = List.init 600 (fun i -> Store.add "m" [| V.Int i |] base) in
  let tbl =
    Mcheck.Explore.Table.create ~equal:Store.equal ~hash:Store.hash ()
  in
  List.iteri (fun i s -> Mcheck.Explore.Table.add tbl s i) states;
  checki "all 600 states distinct" 600 (Mcheck.Explore.Table.size tbl);
  checkb "states spread over many buckets" true
    (Mcheck.Explore.Table.buckets tbl >= 300);
  checkb "no degenerate bucket" true (Mcheck.Explore.Table.max_bucket tbl <= 8);
  List.iteri
    (fun i s ->
      if not (Mcheck.Explore.Table.find tbl s = Some i) then
        Alcotest.failf "state %d not found under its own id" i)
    states

(* ------------------------------------------------------------------ *)
(* The BGP design verified through the pipeline (arcs 1-5 combined). *)

let test_bgp_model_through_pipeline () =
  let prop =
    Props.implication ~name:"importedHasPref"
      ~antecedent:("imported", [ "U"; "W"; "D"; "P"; "LP"; "C" ])
      ~consequent:("importPref", [ "U"; "W"; "LP" ])
      ()
  in
  let facts =
    Component.Bgp.config_facts Component.Bgp.disagree
    @ Component.Bgp.active_facts Component.Bgp.disagree.Component.Bgp.neighbors
    @ [
        Ast.fact ~loc:0 "ribIn"
          [
            V.Addr "as1"; V.Addr "as0"; V.Addr "d0";
            V.List [ V.Addr "as1"; V.Addr "as0" ]; V.Int 1; V.Int 1;
          ];
      ]
  in
  match Pipeline.generate ~facts Component.Bgp.model [ prop ] with
  | Error e -> Alcotest.fail e
  | Ok g ->
    checkb "verified" true (Pipeline.proved g.Pipeline.gen_verification);
    (* The generated program must execute. *)
    (match Pipeline.execute g.Pipeline.program with
    | Ok (Pipeline.Central o) ->
      checkb "executes" true o.Ndlog.Eval.converged
    | Ok _ | Error _ -> Alcotest.fail "execution failed")

(* Stated properties (concrete syntax) through the pipeline. *)
let test_stated_property () =
  let prop =
    Props.of_string_exn "statedMembership"
      "forall S D C. bestPathCost(S,D,C) => (exists P. path(S,D,P,C))"
  in
  match Pipeline.verify_program (Programs.path_vector ()) [ prop ] with
  | Ok v -> checkb "proved" true (Pipeline.proved v)
  | Error e -> Alcotest.fail e

let test_stated_property_parse_error () =
  match Props.of_string "broken" "forall . nope(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* The second protocol through the pipeline: link-state verification and
   both execution modes. *)
let test_link_state_pipeline () =
  let program =
    Programs.with_links (Programs.link_state ~max_hops:4)
      (Programs.ring_links 4)
  in
  (* flooding-integrity is an inductive property; here verify a
     first-order one: every computed cost is witnessed by a path bound *)
  let prop =
    Props.of_string_exn "lsCostWitness"
      "forall N D C. lsCost(N,D,C) => (exists H. lpath(N,D,C,H))"
  in
  (match Pipeline.verify_program program [ prop ] with
  | Ok v -> checkb "proved" true (Pipeline.proved v)
  | Error e -> Alcotest.fail e);
  let central =
    match Pipeline.execute program with
    | Ok (Pipeline.Central o) -> o.Ndlog.Eval.db
    | _ -> Alcotest.fail "central failed"
  in
  match Pipeline.execute_distributed program with
  | Ok (Pipeline.Distributed { global; _ }) ->
    checkb "lsCost agrees" true
      (Store.Tset.equal
         (Store.relation "lsCost" central)
         (Store.relation "lsCost" global))
  | _ -> Alcotest.fail "distributed failed"

let () =
  Alcotest.run "fvn"
    [
      ( "verify",
        [
          Alcotest.test_case "path-vector properties" `Quick
            test_verify_path_vector;
          Alcotest.test_case "false property rejected" `Quick
            test_verify_rejects_false_property;
          Alcotest.test_case "bad program rejected" `Quick
            test_verify_bad_program_rejected;
        ] );
      ( "generate",
        [
          Alcotest.test_case "verified generation" `Quick
            test_generate_verified_program;
          Alcotest.test_case "full pipeline" `Quick test_full_pipeline;
          Alcotest.test_case "dangling model rejected" `Quick
            test_generate_rejects_dangling_model;
        ] );
      ( "execute",
        [
          Alcotest.test_case "central = distributed" `Quick
            test_central_vs_distributed;
          Alcotest.test_case "divergence detected" `Quick
            test_execution_detects_divergence;
        ] );
      ( "model_check",
        [
          Alcotest.test_case "invariant holds" `Quick test_model_check_invariant;
          Alcotest.test_case "counterexample" `Quick
            test_model_check_counterexample;
          Alcotest.test_case "state identity vs interning" `Quick
            test_explore_interning_independence;
          Alcotest.test_case "state identity vs flat round-trip" `Quick
            test_explore_flat_independence;
          Alcotest.test_case "state identity vs insertion order" `Quick
            test_explore_insertion_order_independence;
          Alcotest.test_case "bucket distribution" `Quick
            test_explore_bucket_distribution;
        ] );
      ( "stated",
        [
          Alcotest.test_case "concrete-syntax property" `Quick
            test_stated_property;
          Alcotest.test_case "parse error surfaces" `Quick
            test_stated_property_parse_error;
          Alcotest.test_case "link-state pipeline" `Quick
            test_link_state_pipeline;
        ] );
      ( "bgp",
        [
          Alcotest.test_case "design to execution" `Quick
            test_bgp_model_through_pipeline;
        ] );
    ]
