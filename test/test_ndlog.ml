(* Tests for the NDlog library: values, parser, analysis, evaluation,
   localization, and soft state. *)

module V = Ndlog.Value
module Ast = Ndlog.Ast
module Parser = Ndlog.Parser
module Analysis = Ndlog.Analysis
module Eval = Ndlog.Eval
module Store = Ndlog.Store
module Programs = Ndlog.Programs
module Localize = Ndlog.Localize
module Softstate = Ndlog.Softstate
module Plan = Ndlog.Plan
module Intern = Ndlog.Intern
module Flat = Ndlog.Flat
module Ideval = Ndlog.Ideval

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Values. *)

let test_value_order () =
  checkb "int < str" true (V.compare (V.Int 5) (V.Str "a") < 0);
  checkb "list lexicographic" true
    (V.compare (V.List [ V.Int 1 ]) (V.List [ V.Int 1; V.Int 2 ]) < 0);
  checkb "equal reflexive" true (V.equal (V.Addr "x") (V.Addr "x"));
  checkb "addr <> str sort" false (V.equal (V.Addr "x") (V.Str "x"))

let test_value_hash_consistent () =
  let vs =
    [ V.Int 3; V.Str "hi"; V.Bool true; V.Addr "n0"; V.List [ V.Int 1; V.Addr "a" ] ]
  in
  List.iter
    (fun v ->
      let v' =
        match v with
        | V.List l -> V.List (List.map Fun.id l)
        | other -> other
      in
      checkb "hash consistent with equal" true (V.hash v = V.hash v'))
    vs

let test_value_coerce () =
  checki "as_int" 7 (V.as_int (V.Int 7));
  checks "as_addr from str" "a" (V.as_addr (V.Str "a"));
  Alcotest.check_raises "as_int on bool"
    (V.Type_error ("int", V.Bool true))
    (fun () -> ignore (V.as_int (V.Bool true)))

(* ------------------------------------------------------------------ *)
(* Builtins. *)

let test_builtins_paths () =
  let p = Ndlog.Builtins.apply "f_init" [ V.Addr "a"; V.Addr "b" ] in
  check
    Alcotest.(testable V.pp V.equal)
    "f_init" (V.List [ V.Addr "a"; V.Addr "b" ]) p;
  let p2 = Ndlog.Builtins.apply "f_concatPath" [ V.Addr "c"; p ] in
  checki "f_size" 3 (V.as_int (Ndlog.Builtins.apply "f_size" [ p2 ]));
  checkb "f_inPath yes" true
    (V.as_bool (Ndlog.Builtins.apply "f_inPath" [ p2; V.Addr "a" ]));
  checkb "f_inPath no" false
    (V.as_bool (Ndlog.Builtins.apply "f_inPath" [ p2; V.Addr "z" ]))

let test_builtins_errors () =
  Alcotest.check_raises "unknown" (Ndlog.Builtins.Unknown_function "f_nope")
    (fun () -> ignore (Ndlog.Builtins.apply "f_nope" []));
  Alcotest.check_raises "arity" (Ndlog.Builtins.Arity_error ("f_init", 1))
    (fun () -> ignore (Ndlog.Builtins.apply "f_init" [ V.Int 1 ]))

(* ------------------------------------------------------------------ *)
(* Parser. *)

let parse_ok src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let test_parse_path_vector () =
  let p = parse_ok Programs.path_vector_src in
  checki "4 rules" 4 (List.length p.Ast.rules);
  checki "4 decls" 4 (List.length p.Ast.decls);
  let r2 = List.nth p.Ast.rules 1 in
  checks "r2 label" "r2" (Option.get r2.Ast.rule_name);
  checki "r2 body size" 5 (List.length r2.Ast.body);
  let r3 = List.nth p.Ast.rules 2 in
  checkb "r3 aggregates" true (Ast.has_aggregate r3.Ast.head)

let test_parse_facts () =
  let p = parse_ok {| link(@a, b, 3). link(@b, a, 3). |} in
  checki "2 facts" 2 (List.length p.Ast.facts);
  let f = List.hd p.Ast.facts in
  checkb "loc at 0" true (f.Ast.fact_loc = Some 0);
  checkb "addr const" true (V.equal (List.hd f.Ast.fact_args) (V.Addr "a"))

let test_parse_roundtrip () =
  let p = parse_ok Programs.path_vector_src in
  let printed = Ast.program_to_string p in
  let p2 = parse_ok printed in
  checki "rules survive round trip" (List.length p.Ast.rules)
    (List.length p2.Ast.rules);
  checks "second print is stable" printed (Ast.program_to_string p2)

(* Printing a rule and parsing it back gives the same AST: every rule
   of the canonical programs, and generated rules whose atoms and heads
   are located at address constants as well as variables. *)
let rule_reparses (r : Ast.rule) =
  let text = Fmt.str "%a" Ast.pp_rule r in
  match Parser.parse_program text with
  | Ok { Ast.rules = [ r' ]; _ } -> r' = r
  | Ok _ -> QCheck.Test.fail_reportf "%s: not one rule" text
  | Error e -> QCheck.Test.fail_reportf "%s: %s" text e

(* Whole programs too: every canonical program, plain and localized,
   with link facts, prints with [program_to_string] to text that parses
   back to the same program — declarations, facts and rules. *)
let test_canonical_rules_reparse () =
  let links = Programs.ring_links 3 in
  List.iter
    (fun (p : Ast.program) ->
      List.iter
        (fun r ->
          checkb (Fmt.str "%a" Ast.pp_rule r) true (rule_reparses r))
        p.Ast.rules;
      let plain = Programs.with_links p links in
      let localized =
        match Localize.rewrite_program plain with
        | Ok r -> r.Localize.program
        | Error e -> Alcotest.failf "%a" Localize.pp_error e
      in
      List.iter
        (fun q ->
          let text = Ast.program_to_string q in
          match Parser.parse_program text with
          | Ok q' -> checkb ("program reparses:\n" ^ text) true (q' = q)
          | Error e -> Alcotest.failf "%s\n%s" e text)
        [ plain; localized ])
    [
      Programs.path_vector ();
      Programs.distance_vector ();
      Programs.bounded_distance_vector ~max_hops:3;
      Programs.reachability ();
      Programs.link_state ~max_hops:3;
      Programs.heartbeat ~lifetime:10;
    ]

let rule_gen : Ast.rule QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "S"; "D"; "X"; "C1" ] in
  let addr = map (fun a -> Ast.Const (V.Addr a)) (oneofl [ "n"; "n0"; "ab" ]) in
  let const =
    oneof
      [
        addr;
        map (fun n -> Ast.Const (V.Int n)) (int_range (-5) 5);
        map (fun b -> Ast.Const (V.Bool b)) bool;
        return (Ast.Const (V.Str "s"));
        return (Ast.Const (V.List [ V.Addr "n"; V.Int 1 ]));
      ]
  in
  let expr =
    frequency
      [
        (3, map Ast.var var);
        (3, const);
        ( 1,
          map2 (fun x n -> Ast.Binop (Ast.Add, Ast.Var x, Ast.cint n)) var
            (int_range (-2) 2) );
      ]
  in
  (* Arguments with the location, if any, at a variable or an address
     constant. *)
  let located =
    int_range 1 3 >>= fun n ->
    list_repeat n expr >>= fun args ->
    oneof
      [
        return (args, None);
        ( int_bound (n - 1) >>= fun i ->
          oneof [ addr; map Ast.var var ] >|= fun at ->
          (List.mapi (fun j e -> if j = i then at else e) args, Some i) );
      ]
  in
  let atom =
    pair (oneofl [ "p"; "link"; "obs" ]) located >|= fun (pred, (args, loc)) ->
    { Ast.pred; loc; args }
  in
  let head =
    pair (oneofl [ "h"; "best" ]) located >>= fun (head_pred, (args, head_loc)) ->
    let plain = List.map (fun e -> Ast.Plain e) args in
    (* An aggregate goes last, away from the location. *)
    oneof
      [
        return plain;
        map (fun x -> plain @ [ Ast.Agg (Ast.Min, x) ]) var;
      ]
    >|= fun head_args -> { Ast.head_pred; head_loc; head_args }
  in
  let lit =
    frequency
      [
        (4, map (fun a -> Ast.Pos a) atom);
        (1, map (fun a -> Ast.Neg a) atom);
        (1, map2 (fun x n -> Ast.Cond (Ast.Lt, Ast.Var x, Ast.cint n)) var small_nat);
      ]
  in
  map3
    (fun rule_name head body -> { Ast.rule_name; head; body })
    (opt (oneofl [ "r1"; "v2" ]))
    head
    (list_size (int_range 1 4) lit)

let prop_generated_rules_reparse =
  QCheck.Test.make ~count:300 ~name:"pp_rule then parse is the rule"
    (QCheck.make ~print:(Fmt.str "%a" Ast.pp_rule) rule_gen)
    rule_reparses

let test_parse_errors () =
  let bad src =
    match Parser.parse_program src with
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
    | Error _ -> ()
  in
  bad "path(@S,D) :- link(@S,D,C)";
  (* missing final period *)
  bad "path(@S,@D) :- link(@S,D,C).";
  (* two location specifiers *)
  bad "p(X) :- q(X), .";
  bad "p(X) :- f_nope(X)=true.";
  (* unknown function *)
  bad "p(min<X>)."
(* aggregate in fact *)

let test_parse_comments () =
  let p =
    parse_ok
      {|
// line comment
p(@X) :- q(@X,Y), Y > 0. /* block
   comment */ % percent comment
q(@a, 1).
|}
  in
  checki "1 rule" 1 (List.length p.Ast.rules);
  checki "1 fact" 1 (List.length p.Ast.facts)

let test_parse_negation () =
  let p = parse_ok {| p(@X) :- q(@X,Y), !r(@X,Y), Y != 2. |} in
  match (List.hd p.Ast.rules).Ast.body with
  | [ Ast.Pos _; Ast.Neg a; Ast.Cond (Ast.Ne, _, _) ] ->
    checks "neg pred" "r" a.Ast.pred
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_list_literal () =
  let p = parse_ok {| p(@a, [1, 2, 3]). |} in
  let f = List.hd p.Ast.facts in
  checkb "list fact" true
    (V.equal (List.nth f.Ast.fact_args 1) (V.List [ V.Int 1; V.Int 2; V.Int 3 ]))

let test_parse_strings_and_escapes () =
  let p = parse_ok {| p(@a, "hello world", "quo\"te"). |} in
  let f = List.hd p.Ast.facts in
  checkb "plain string" true (V.equal (List.nth f.Ast.fact_args 1) (V.Str "hello world"));
  checkb "escaped quote" true
    (V.equal (List.nth f.Ast.fact_args 2) (V.Str "quo\"te"))

let test_parse_negative_ints () =
  let p = parse_ok {| p(@a, -5). q(@X, Y) :- p(@X, Y), Y < -1. |} in
  let f = List.hd p.Ast.facts in
  checkb "negative literal" true (V.equal (List.nth f.Ast.fact_args 1) (V.Int (-5)));
  let o = Eval.run_exn p in
  checki "negative comparison" 1 (Store.cardinal "q" o.Eval.db)

let test_parse_soft_lifetime () =
  let p = parse_ok {| materialize(ping, 30). materialize(link, infinity). |} in
  (match p.Ast.decls with
  | [ d1; d2 ] ->
    checkb "30s" true (d1.Ast.decl_lifetime = Ast.Lifetime 30.0);
    checkb "forever" true (d2.Ast.decl_lifetime = Ast.Lifetime_forever)
  | _ -> Alcotest.fail "expected two decls")

let test_env_errors () =
  let module E = Ndlog.Env in
  Alcotest.check_raises "unbound" (E.Unbound_variable "X") (fun () ->
      ignore (E.eval E.empty (Ast.Var "X")));
  let env = E.bind "X" (V.Int 4) E.empty in
  checkb "div by zero raises" true
    (match E.eval env (Ast.Binop (Ast.Div, Ast.Var "X", Ast.cint 0)) with
    | exception V.Type_error _ -> true
    | _ -> false);
  (* match_args arity mismatch *)
  checkb "arity mismatch" true
    (E.match_args E.empty [ Ast.Var "A" ] [| V.Int 1; V.Int 2 |] = None);
  (* repeated variable must match equal values *)
  checkb "nonlinear match" true
    (E.match_args E.empty [ Ast.Var "A"; Ast.Var "A" ] [| V.Int 1; V.Int 2 |]
    = None)

let test_value_pp_forms () =
  checks "addr" "@n0" (V.to_string (V.Addr "n0"));
  checks "list" "[1; @a]" (V.to_string (V.List [ V.Int 1; V.Addr "a" ]));
  checks "string quoted" "\"hi\"" (V.to_string (V.Str "hi"));
  checks "sort names" "list" (V.sort_name (V.List []))

(* ------------------------------------------------------------------ *)
(* Analysis. *)

let test_safety_ok () =
  let p = Programs.path_vector () in
  match Analysis.analyze p with
  | Ok info ->
    checkb "path derived" true (List.mem "path" info.Analysis.derived_preds);
    checkb "link base" true (List.mem "link" info.Analysis.base_preds)
  | Error e -> Alcotest.failf "analysis failed: %a" Analysis.pp_error e

let test_safety_unbound_head () =
  let p = parse_ok {| p(@X,Y) :- q(@X). |} in
  match Analysis.analyze p with
  | Ok _ -> Alcotest.fail "expected safety error"
  | Error (Analysis.Unsafe_rule _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Analysis.pp_error e

let test_safety_unbound_negation () =
  let p = parse_ok {| p(@X) :- q(@X), !r(@X,Y). |} in
  match Analysis.analyze p with
  | Ok _ -> Alcotest.fail "expected safety error"
  | Error (Analysis.Unsafe_rule _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Analysis.pp_error e

let test_safety_no_positive_atom () =
  List.iter
    (fun src ->
      match Analysis.analyze (parse_ok src) with
      | Ok _ -> Alcotest.failf "expected safety error: %s" src
      | Error (Analysis.Unsafe_rule (_, msg)) ->
        checks "message" "body has no positive atom" msg
      | Error e -> Alcotest.failf "wrong error: %a" Analysis.pp_error e)
    [
      {| k(@n,1) :- 1 < 2. |};
      {| t(@n,count<X>) :- X = 4. |};
      {| q(@n,1). p(@X) :- X = n, !q(@X,1). |};
    ]

let test_arity_mismatch () =
  let p = parse_ok {| p(@X) :- q(@X,Y). p(@X,Y) :- q(@X,Y). |} in
  match Analysis.analyze p with
  | Error (Analysis.Arity_mismatch ("p", _, _)) -> ()
  | Ok _ -> Alcotest.fail "expected arity error"
  | Error e -> Alcotest.failf "wrong error: %a" Analysis.pp_error e

let test_stratification () =
  let p = Programs.path_vector () in
  let info = Analysis.analyze_exn p in
  let stratum_of pred =
    let rec go i = function
      | [] -> -1
      | s :: rest -> if List.mem pred s then i else go (i + 1) rest
    in
    go 0 info.Analysis.strata
  in
  checkb "path below bestPathCost" true
    (stratum_of "path" < stratum_of "bestPathCost");
  checkb "bestPath at least bestPathCost" true
    (stratum_of "bestPath" >= stratum_of "bestPathCost")

let test_unstratifiable () =
  let p = parse_ok {| p(@X) :- q(@X), !r(@X). r(@X) :- q(@X), !p(@X). |} in
  match Analysis.analyze p with
  | Error (Analysis.Unstratifiable _) -> ()
  | Ok _ -> Alcotest.fail "expected stratification error"
  | Error e -> Alcotest.failf "wrong error: %a" Analysis.pp_error e

(* ------------------------------------------------------------------ *)
(* Evaluation. *)

let tuple vs = Array.of_list vs

let best_path_cost db s d =
  Store.tuples "bestPathCost" db
  |> List.find_opt (fun t ->
         V.equal t.(0) (V.Addr s) && V.equal t.(1) (V.Addr d))
  |> Option.map (fun t -> V.as_int t.(2))

let test_eval_line () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 3) in
  let o = Eval.run_exn p in
  checkb "converged" true o.Eval.converged;
  checkb "n0->n2 cost 2" true (best_path_cost o.Eval.db "n0" "n2" = Some 2);
  checkb "n2->n0 cost 2" true (best_path_cost o.Eval.db "n2" "n0" = Some 2);
  (* exactly one bestPath tuple per ordered pair *)
  checki "bestPath count" 6 (Store.cardinal "bestPath" o.Eval.db)

let test_eval_ring_shortest () =
  let p =
    Programs.with_links (Programs.path_vector ())
      (Programs.ring_links ~cost:(fun _ -> 1) 6)
  in
  let o = Eval.run_exn p in
  checkb "converged" true o.Eval.converged;
  (* Opposite nodes on a 6-ring are 3 hops apart. *)
  checkb "n0->n3 cost 3" true (best_path_cost o.Eval.db "n0" "n3" = Some 3);
  checkb "n0->n1 cost 1" true (best_path_cost o.Eval.db "n0" "n1" = Some 1)

let test_eval_asymmetric_costs () =
  (* A triangle where the two-hop route is cheaper than the direct one. *)
  let links =
    [
      Programs.link_fact "n0" "n1" 10;
      Programs.link_fact "n0" "n2" 1;
      Programs.link_fact "n2" "n1" 2;
    ]
  in
  let p = Programs.with_links (Programs.path_vector ()) links in
  let o = Eval.run_exn p in
  checkb "n0->n1 via n2" true (best_path_cost o.Eval.db "n0" "n1" = Some 3);
  (* The winning path vector is recorded in bestPath. *)
  let bp =
    Store.tuples "bestPath" o.Eval.db
    |> List.find (fun t ->
           V.equal t.(0) (V.Addr "n0") && V.equal t.(1) (V.Addr "n1"))
  in
  checkb "path vector [n0;n2;n1]" true
    (V.equal bp.(2) (V.List [ V.Addr "n0"; V.Addr "n2"; V.Addr "n1" ]))

let test_eval_cycle_check () =
  (* On a ring, paths never revisit a node: every path tuple is simple. *)
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 5) in
  let o = Eval.run_exn p in
  List.iter
    (fun t ->
      let pv = V.as_list t.(2) in
      let sorted = List.sort_uniq V.compare pv in
      checki "simple path" (List.length pv) (List.length sorted))
    (Store.tuples "path" o.Eval.db)

let test_naive_equals_seminaive () =
  let p =
    Programs.with_links (Programs.path_vector ())
      (Programs.random_links ~seed:7 ~extra:2 6)
  in
  let info = Analysis.analyze_exn p in
  let db = Store.of_facts p.Ast.facts in
  let a = Eval.seminaive p info db in
  let b = Eval.naive p info db in
  checkb "same database" true (Store.equal a.Eval.db b.Eval.db)

let test_count_to_infinity () =
  (* The unbounded distance-vector on a cycle keeps deriving larger
     costs: it must hit the round bound without converging. *)
  let p =
    Programs.with_links (Programs.distance_vector ()) (Programs.ring_links 3)
  in
  let o = Eval.run_exn ~max_rounds:40 p in
  checkb "diverges" false o.Eval.converged

let test_bounded_dv_converges () =
  let p =
    Programs.with_links
      (Programs.bounded_distance_vector ~max_hops:8)
      (Programs.ring_links 5)
  in
  let o = Eval.run_exn p in
  checkb "converges" true o.Eval.converged;
  let bc =
    Store.tuples "bestCost" o.Eval.db
    |> List.find (fun t ->
           V.equal t.(0) (V.Addr "n0") && V.equal t.(1) (V.Addr "n2"))
  in
  checki "n0->n2 = 2" 2 (V.as_int bc.(2))

let test_eval_negation () =
  let o =
    Eval.run_exn
      (parse_ok
         {|
link(@a, b, 1).
link(@b, c, 1).
node(@a). node(@b). node(@c).
sink(@X) :- node(@X), !hasout(@X).
hasout(@X) :- link(@X,Y,C).
|})
  in
  let sinks = Store.tuples "sink" o.Eval.db in
  checki "one sink" 1 (List.length sinks);
  checkb "sink is c" true (V.equal (List.hd sinks).(0) (V.Addr "c"))

let test_eval_aggregates () =
  let o =
    Eval.run_exn
      (parse_ok
         {|
score(@a, 3). score(@a, 7). score(@a, 5). score(@b, 2).
best(@X, min<S>) :- score(@X, S).
worst(@X, max<S>) :- score(@X, S).
n(@X, count<S>) :- score(@X, S).
total(@X, sum<S>) :- score(@X, S).
|})
  in
  let get pred who =
    Store.tuples pred o.Eval.db
    |> List.find (fun t -> V.equal t.(0) (V.Addr who))
    |> fun t -> V.as_int t.(1)
  in
  checki "min a" 3 (get "best" "a");
  checki "max a" 7 (get "worst" "a");
  checki "count a" 3 (get "n" "a");
  checki "sum a" 15 (get "total" "a");
  checki "min b" 2 (get "best" "b")

let test_eval_assign_checks () =
  (* An assignment to an already-bound variable acts as a filter. *)
  let o =
    Eval.run_exn
      (parse_ok
         {|
pair(@a, 1, 1). pair(@a, 1, 2).
eq(@X, A) :- pair(@X, A, B), A = B.
|})
  in
  checki "only the equal pair" 1 (Store.cardinal "eq" o.Eval.db)

(* Reference shortest-path (Dijkstra-free: Bellman-Ford) for comparison. *)
let reference_distances links n =
  let inf = max_int / 4 in
  let dist = Array.make_matrix n n inf in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0
  done;
  List.iter
    (fun (f : Ast.fact) ->
      match f.Ast.fact_args with
      | [ s; d; c ] ->
        let parse a = int_of_string (String.sub (V.as_addr a) 1 100000) in
        let parse a =
          ignore parse;
          let s = V.as_addr a in
          int_of_string (String.sub s 1 (String.length s - 1))
        in
        let i = parse s and j = parse d in
        dist.(i).(j) <- min dist.(i).(j) (V.as_int c)
      | _ -> ())
    links;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
      done
    done
  done;
  dist

let prop_best_path_matches_floyd_warshall =
  QCheck.Test.make ~name:"bestPathCost agrees with Floyd-Warshall"
    ~count:20
    QCheck.(pair (int_range 3 7) (int_range 0 3))
    (fun (n, extra) ->
      let links = Programs.random_links ~seed:(n + (extra * 100)) ~extra n in
      let p = Programs.with_links (Programs.path_vector ()) links in
      let o = Eval.run_exn p in
      let dist = reference_distances links n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let got =
              best_path_cost o.Eval.db (Programs.node i) (Programs.node j)
            in
            let expected =
              if dist.(i).(j) >= max_int / 4 then None else Some dist.(i).(j)
            in
            if got <> expected then ok := false
          end
        done
      done;
      !ok)

let prop_naive_equals_seminaive =
  QCheck.Test.make ~name:"naive and semi-naive agree on reachability"
    ~count:30
    QCheck.(pair (int_range 2 8) (int_range 0 4))
    (fun (n, extra) ->
      let links = Programs.random_links ~seed:(13 * n + extra) ~extra n in
      let p = Programs.with_links (Programs.reachability ()) links in
      let info = Analysis.analyze_exn p in
      let db = Store.of_facts p.Ast.facts in
      let a = Eval.seminaive p info db in
      let b = Eval.naive p info db in
      Store.equal a.Eval.db b.Eval.db)

(* ------------------------------------------------------------------ *)
(* Link-state routing. *)

let ls_cost db n d =
  Store.tuples "lsCost" db
  |> List.find_opt (fun t ->
         V.equal t.(0) (V.Addr n) && V.equal t.(1) (V.Addr d))
  |> Option.map (fun t -> V.as_int t.(2))

let test_link_state_floods_everywhere () =
  let n = 5 in
  let p =
    Programs.with_links (Programs.link_state ~max_hops:n)
      (Programs.ring_links n)
  in
  let o = Eval.run_exn p in
  checkb "converged" true o.Eval.converged;
  (* every node holds every directed link in its map: n nodes x 2n links *)
  checki "full maps" (n * 2 * n) (Store.cardinal "lsa" o.Eval.db)

let test_link_state_routes () =
  let p =
    Programs.with_links (Programs.link_state ~max_hops:6)
      (Programs.ring_links ~cost:(fun i -> 1 + (i mod 3)) 6)
  in
  let o = Eval.run_exn p in
  checkb "converged" true o.Eval.converged;
  checkb "has routes" true (ls_cost o.Eval.db "n0" "n3" <> None)

let test_link_state_equals_path_vector () =
  (* The two protocols compute the same best costs: a cross-protocol
     consistency check FVN-style verification enables. *)
  List.iter
    (fun seed ->
      let n = 5 in
      let links = Programs.random_links ~seed ~extra:2 n in
      let ls =
        Eval.run_exn (Programs.with_links (Programs.link_state ~max_hops:n) links)
      in
      let pv =
        Eval.run_exn (Programs.with_links (Programs.path_vector ()) links)
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            checkb
              (Printf.sprintf "seed %d: n%d->n%d agree" seed i j)
              true
              (ls_cost ls.Eval.db (Programs.node i) (Programs.node j)
              = best_path_cost pv.Eval.db (Programs.node i) (Programs.node j))
        done
      done)
    [ 2; 13; 29 ]

let test_link_state_distributed () =
  let links = Programs.ring_links 4 in
  let p = Programs.with_links (Programs.link_state ~max_hops:4) links in
  (* already localized: no rewrite required *)
  (match Localize.check_localized p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "should be localized: %a" Localize.pp_error e);
  let central = Eval.run_exn p in
  let topo = Netsim.Topology.ring 4 in
  let rt = Dist.Runtime.create topo p in
  Dist.Runtime.load_facts rt;
  let report = Dist.Runtime.run rt in
  checkb "quiesced" true report.Dist.Runtime.stats.Netsim.Sim.quiesced;
  checkb "lsCost agrees" true
    (Store.Tset.equal
       (Store.relation "lsCost" central.Eval.db)
       (Store.relation "lsCost" (Dist.Runtime.global_store rt)))

(* ------------------------------------------------------------------ *)
(* Store. *)

let test_store_ops () =
  let db = Store.empty in
  let t1 = tuple [ V.Int 1; V.Int 2 ] in
  let t2 = tuple [ V.Int 1; V.Int 3 ] in
  let db = Store.add "p" t1 db in
  let db = Store.add "p" t1 db in
  checki "set semantics" 1 (Store.cardinal "p" db);
  let db = Store.add "p" t2 db in
  checki "two tuples" 2 (Store.cardinal "p" db);
  let db' = Store.remove "p" t1 db in
  checkb "mem after remove" false (Store.mem "p" t1 db');
  checkb "other survives" true (Store.mem "p" t2 db');
  let d = Store.diff db db' in
  checki "diff has 1" 1 (Store.total_tuples d)

let test_store_union_diff () =
  let t i = tuple [ V.Int i ] in
  let a = Store.add_list "p" [ t 1; t 2 ] Store.empty in
  let b = Store.add_list "p" [ t 2; t 3 ] Store.empty in
  let u = Store.union a b in
  checki "union 3" 3 (Store.cardinal "p" u);
  let d = Store.diff b a in
  checki "diff 1" 1 (Store.cardinal "p" d);
  checkb "diff content" true (Store.mem "p" (t 3) d)

let test_store_determinism () =
  let t i = tuple [ V.Int i ] in
  let a = Store.add_list "p" [ t 1; t 2; t 3 ] Store.empty in
  let b = Store.add_list "p" [ t 3; t 1; t 2 ] Store.empty in
  checkb "insertion order irrelevant" true (Store.equal a b);
  checki "same hash" (Store.hash a) (Store.hash b)

(* The plain store against a set model.  Random sequences of every
   updating operation keep the store's invariants: no predicate holds
   an empty relation, identity ([equal], [compare], [hash]) follows
   content exactly, and every earlier persistent value reads as it
   did. *)
module Fmodel = Set.Make (struct
  type t = string * int list

  let compare = compare
end)

type store_op =
  | Add of string * int list
  | Remove of string * int list
  | Set_rel of string * int list list
  | Union of (string * int list) list
  | Diff of (string * int list) list
  | Restrict of string list
  | Map_mod2

let store_op_gen =
  QCheck.Gen.(
    let pred = oneofl [ "p"; "q"; "r" ] and tup = list_repeat 2 (int_bound 3) in
    let facts n = list_size (int_bound n) (pair pred tup) in
    frequency
      [
        (4, map2 (fun p t -> Add (p, t)) pred tup);
        (3, map2 (fun p t -> Remove (p, t)) pred tup);
        (1, map2 (fun p ts -> Set_rel (p, ts)) pred (list_size (int_bound 3) tup));
        (1, map (fun fs -> Union fs) (facts 4));
        (1, map (fun fs -> Diff fs) (facts 8));
        (1, map (fun ps -> Restrict ps) (list_size (int_bound 3) pred));
        (1, return Map_mod2);
      ])

let store_tuple t = Array.of_list (List.map (fun i -> V.Int i) t)

let store_of_model_facts fs =
  List.fold_left (fun db (p, t) -> Store.add p (store_tuple t) db) Store.empty fs

let apply_store_op db = function
  | Add (p, t) -> Store.add p (store_tuple t) db
  | Remove (p, t) -> Store.remove p (store_tuple t) db
  | Set_rel (p, ts) ->
    Store.set_relation p (Store.Tset.of_list (List.map store_tuple ts)) db
  | Union fs -> Store.union db (store_of_model_facts fs)
  | Diff fs -> Store.diff db (store_of_model_facts fs)
  | Restrict ps -> Store.restrict ps db
  | Map_mod2 ->
    Store.map_tuples (Array.map (fun v -> V.Int (V.as_int v mod 2))) db

let apply_model_op m = function
  | Add (p, t) -> Fmodel.add (p, t) m
  | Remove (p, t) -> Fmodel.remove (p, t) m
  | Set_rel (p, ts) ->
    List.fold_left
      (fun m t -> Fmodel.add (p, t) m)
      (Fmodel.filter (fun (q, _) -> q <> p) m)
      ts
  | Union fs -> Fmodel.union m (Fmodel.of_list fs)
  | Diff fs -> Fmodel.diff m (Fmodel.of_list fs)
  | Restrict ps -> Fmodel.filter (fun (q, _) -> List.mem q ps) m
  | Map_mod2 -> Fmodel.map (fun (p, t) -> (p, List.map (fun i -> i mod 2) t)) m

let store_contents db =
  List.map
    (fun (p, t) -> (p, List.map V.as_int (Array.to_list t)))
    (Store.to_list db)

let prop_store_invariants =
  QCheck.Test.make
    ~name:"no empty relation, identity = content, persistence"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d operations" (List.length ops))
       QCheck.Gen.(list_size (int_bound 30) store_op_gen))
    (fun ops ->
      let history =
        List.fold_left
          (fun hist op ->
            match hist with
            | [] -> assert false
            | (db, m) :: _ -> (apply_store_op db op, apply_model_op m op) :: hist)
          [ (Store.empty, Fmodel.empty) ]
          ops
        |> List.map (fun (db, m) -> (db, Fmodel.elements m))
      in
      (* Checked once the whole sequence has run, so earlier values are
         seen after every later operation. *)
      List.iter
        (fun (db, contents) ->
          if store_contents db <> contents then
            QCheck.Test.fail_report "store content differs from the model";
          if
            Store.preds db
            <> List.sort_uniq String.compare (List.map fst contents)
            || List.exists (fun p -> Store.cardinal p db = 0) (Store.preds db)
          then QCheck.Test.fail_report "a predicate with an empty relation")
        history;
      List.iter
        (fun (a, ca) ->
          List.iter
            (fun (b, cb) ->
              let same = ca = cb in
              if Store.equal a b <> same then
                QCheck.Test.fail_report "equal disagrees with content";
              if (Store.compare a b = 0) <> same then
                QCheck.Test.fail_report "compare disagrees with content";
              let sign x = Int.compare x 0 in
              if sign (Store.compare a b) <> - sign (Store.compare b a) then
                QCheck.Test.fail_report "compare is not antisymmetric";
              if same && Store.hash a <> Store.hash b then
                QCheck.Test.fail_report "equal stores hash apart")
            history)
        history;
      true)

(* Analyze and evaluate a self-contained program with the join
   optimizations on or off (off = the pre-index nested-loop engine:
   full scans, source-order bodies). *)
let seminaive_with ?optimized_joins p =
  Eval.seminaive ?optimized_joins p (Analysis.analyze_exn p)
    (Store.of_facts p.Ast.facts)

let prop_indexed_equals_nested_loop =
  QCheck.Test.make
    ~name:"indexed evaluation = pre-index nested loop (fixpoint, rounds)"
    ~count:40
    QCheck.(triple (int_range 0 3) (int_range 2 7) (int_range 0 4))
    (fun (which, n, extra) ->
      let links =
        match which with
        | 0 | 1 -> Programs.random_links ~seed:((11 * n) + extra + which) ~extra n
        | 2 -> Programs.ring_links n
        | _ -> Programs.grid_links (2 + (n mod 2))
      in
      let prog =
        match which with
        | 0 -> Programs.path_vector ()
        | 1 -> Programs.reachability ()
        | 2 -> Programs.bounded_distance_vector ~max_hops:n
        | _ -> Programs.link_state ~max_hops:4
      in
      let p = Programs.with_links prog links in
      let a = seminaive_with ~optimized_joins:true p in
      let b = seminaive_with ~optimized_joins:false p in
      Store.equal a.Eval.db b.Eval.db
      && a.Eval.rounds = b.Eval.rounds
      && a.Eval.converged = b.Eval.converged
      && a.Eval.derivations = b.Eval.derivations)

let test_order_body_most_bound_first () =
  let p = parse_ok {| h(@X,Z) :- big(@X,Y), small(@Y,Z), Y > 0. |} in
  let body = (List.hd p.Ast.rules).Ast.body in
  (* equally bound atoms keep source order; the filter runs as soon as
     Y is bound *)
  (match Plan.order_body body with
  | [ Ast.Pos a; Ast.Cond _; Ast.Pos b ] ->
    checks "first in source order first" "big" a.Ast.pred;
    checks "the other one last" "small" b.Ast.pred
  | _ -> Alcotest.fail "unexpected ordering");
  (* a constant makes an atom more bound *)
  (match
     Plan.order_body
       (List.hd (parse_ok {| h(@X,Z) :- big(@X,Y), small(@Y,1). |}).Ast.rules)
         .Ast.body
   with
  | [ Ast.Pos a; Ast.Pos _ ] -> checks "most bound first" "small" a.Ast.pred
  | _ -> Alcotest.fail "unexpected ordering");
  (* seeding the bound set changes the ranking *)
  (match
     Plan.order_body
       ~bound:(Ast.Sset.of_list [ "Y"; "Z" ])
       [ List.nth body 0; List.nth body 2 ]
   with
  | [ Ast.Cond _; Ast.Pos _ ] -> ()
  | _ -> Alcotest.fail "filter should run first once Y is bound");
  (* switched off, the body is untouched *)
  checkb "identity when disabled" true
    (Plan.order_body ~optimized_joins:false body == body)

let test_eval_stats_counted () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let st = (Eval.run_exn p).Eval.stats in
  checkb "index hits counted" true (st.Eval.index_hits > 0);
  checkb "scans counted" true (st.Eval.scans > 0);
  checkb "matched within enumerated" true (st.Eval.matched <= st.Eval.enumerated);
  (* with the index layer off, every join is a scan *)
  let off = (seminaive_with ~optimized_joins:false p).Eval.stats in
  checki "no hits when disabled" 0 off.Eval.index_hits;
  checkb "strictly more tuples visited" true (off.Eval.enumerated > st.Eval.enumerated)

let test_eval_stats_per_run () =
  (* Per-run isolation: two identical runs report identical counters
     (no global state to bleed between them), and a caller-supplied
     accumulator collects their sum. *)
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let acc = Plan.counters () in
  let info = Analysis.analyze_exn p in
  let db = Store.of_facts p.Ast.facts in
  let a = Eval.seminaive ~stats:acc p info db in
  let b = Eval.seminaive ~stats:acc p info db in
  checkb "identical runs, identical stats" true (a.Eval.stats = b.Eval.stats);
  checkb "accumulator sums runs" true
    (Plan.snapshot acc = Eval.add_stats a.Eval.stats b.Eval.stats)

(* Both settings of [optimized_joins] reach the naive oracle's
   fixpoint, the switch shows in the run's counters, and delta joins
   form groups either way. *)
let test_executor_config () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 5) in
  let info = Analysis.analyze_exn p in
  let db = Store.of_facts p.Ast.facts in
  let naive = Eval.naive p info db in
  List.iter
    (fun optimized_joins ->
      let o = Eval.seminaive ~optimized_joins p info db in
      let name = Printf.sprintf "optimized_joins=%b" optimized_joins in
      checkb (name ^ ": naive fixpoint") true
        (Store.equal naive.Eval.db o.Eval.db);
      checkb
        (name ^ ": index hits iff optimized joins")
        optimized_joins
        (o.Eval.stats.Eval.index_hits > 0);
      checkb (name ^ ": groups counted") true (o.Eval.stats.Eval.groups > 0))
    [ true; false ]

(* The switch is an argument, not global state: a run under the
   ablation leaves nothing behind, so the next default run profiles
   exactly like the one before it. *)
let test_config_is_per_call () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let before = (Eval.run_exn p).Eval.stats in
  let off = (seminaive_with ~optimized_joins:false p).Eval.stats in
  let after = (Eval.run_exn p).Eval.stats in
  checkb "the ablation ran differently" true (off <> before);
  checkb "default run unchanged" true (after = before)

(* Through the boxing boundary a fixpoint maps to itself, and the
   caller's store is left as it was. *)
let test_seminaive_from_fixpoint () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 5) in
  let info = Analysis.analyze_exn p in
  let db = Store.of_facts p.Ast.facts in
  let o = Eval.seminaive p info db in
  let o' = Eval.seminaive p info o.Eval.db in
  checkb "same database" true (Store.equal o.Eval.db o'.Eval.db);
  checkb "converged" true o'.Eval.converged;
  checkb "input store untouched" true
    (Store.equal db (Store.of_facts p.Ast.facts))

(* The boxed core and the executor raise one evaluation exception. *)
let test_eval_errors_typed () =
  let module E = Ndlog.Env in
  let r3 = List.nth (Programs.path_vector ()).Ast.rules 2 in
  let env = E.bind "S" (V.Addr "a") (E.bind "D" (V.Addr "b") E.empty) in
  (match Eval.head_tuple env r3.Ast.head with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "an aggregate head is not a plain head");
  match raise (Plan.Eval_error "from the executor") with
  | exception Eval.Eval_error m -> checks "same exception" "from the executor" m
  | () -> Alcotest.fail "unreachable"

(* Call arguments evaluate left to right in both evaluators, so a rule
   with two ill-sorted arguments raises the first one's error in each:
   here [f_first([])], not [f_first(5)]. *)
let test_call_args_left_to_right () =
  let p =
    Programs.parse_exn
      "b(@S, P) :- a(@S, X, Y), P = f_concatPath(f_first(X), f_first(Y)).\n\
       a(@n0, [], 5).\n"
  in
  let info = Analysis.analyze_exn p in
  let db = Store.of_facts p.Ast.facts in
  let first_arg = V.Type_error ("non-empty list", V.List []) in
  Alcotest.check_raises "naive" first_arg (fun () ->
      ignore (Eval.naive p info db));
  Alcotest.check_raises "semi-naive" first_arg (fun () ->
      ignore (Eval.seminaive p info db))

(* A complex atom argument matches only once its variables are bound:
   the planner must not schedule [c(@N, X+Z)] before [b], which binds
   [Z], although [c] has fewer unbound positions. *)
let test_complex_arg_waits_for_inputs () =
  let p =
    Programs.parse_exn
      "a(@n, 1). a(@n, 2). b(@n, 1, 5). b(@n, 2, 6).\n\
       c(@n, 2). c(@n, 3). c(@n, 4).\n\
       h(@N, X) :- a(@N, X), b(@N, Z, W), c(@N, X+Z).\n"
  in
  let body = (List.hd p.Ast.rules).Ast.body in
  checkb "c planned after b" true
    (List.map
       (function Ast.Pos a -> a.Ast.pred | _ -> "")
       (Plan.order_body body)
    = [ "a"; "b"; "c" ]);
  let expected =
    Store.add_list "h"
      [ [| V.Addr "n"; V.Int 1 |]; [| V.Addr "n"; V.Int 2 |] ]
      Store.empty
  in
  let h (o : Eval.outcome) = Store.restrict [ "h" ] o.Eval.db in
  checkb "run derives h(1), h(2)" true (Store.equal expected (h (Eval.run_exn p)));
  checkb "naive derives h(1), h(2)" true
    (Store.equal expected
       (h (Eval.naive p (Analysis.analyze_exn p) (Store.of_facts p.Ast.facts))))

(* A complex argument on a derived atom: [c] is derived from [c0], so
   [c(@N, X+Z)] is a delta position.  Its strand names [X+Z] as a fresh
   variable the triggering tuple binds, plus a condition that waits for
   [a] and [b]; seeded with the tuple before anything else is bound, the
   argument itself would never match and [h] would stay empty. *)
let complex_delta_src =
  "c0(@n, 2). c0(@n, 3). c0(@n, 4).\n\
   c(@N, X) :- c0(@N, X).\n\
   a(@n, 1). a(@n, 2). b(@n, 1, 5). b(@n, 2, 6).\n\
   h(@N, X) :- a(@N, X), b(@N, Z, W), c(@N, X+Z).\n"

let test_complex_arg_on_delta_atom () =
  let p = Programs.parse_exn complex_delta_src in
  let s = Plan.compile_strand (List.nth p.Ast.rules 1) ~delta:2 in
  checkb "delta argument named" true
    (s.Plan.delta.Ast.args = [ Ast.var "N"; Ast.var "%0" ]);
  checkb "its condition planned last" true
    (match List.rev s.Plan.rest with
    | Ast.Cond (Ast.Eq, Ast.Var "%0", _) :: _ -> true
    | _ -> false);
  let expected =
    Store.add_list "h"
      [ [| V.Addr "n"; V.Int 1 |]; [| V.Addr "n"; V.Int 2 |] ]
      Store.empty
  in
  let h (o : Eval.outcome) = Store.restrict [ "h" ] o.Eval.db in
  List.iter
    (fun optimized_joins ->
      let o =
        Eval.seminaive ~optimized_joins p (Analysis.analyze_exn p)
          (Store.of_facts p.Ast.facts)
      in
      checkb
        (Fmt.str "seminaive derives h(1), h(2) (optimized_joins=%b)"
           optimized_joins)
        true (Store.equal expected (h o)))
    [ true; false ];
  checkb "run derives h(1), h(2)" true (Store.equal expected (h (Eval.run_exn p)));
  checkb "naive derives h(1), h(2)" true
    (Store.equal expected
       (h (Eval.naive p (Analysis.analyze_exn p) (Store.of_facts p.Ast.facts))))

(* One node has no chord to draw: the graph is the empty tree, whatever
   [extra] asks for. *)
let test_random_links_one_node () =
  checkb "no links" true (Programs.random_links ~extra:3 1 = []);
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Programs.random_links: 0 nodes (need >= 1)") (fun () ->
      ignore (Programs.random_links 0))

(* Builtins resolve by name once; an unknown name still compiles and
   raises only when a tuple reaches the call. *)
let test_unknown_builtin_at_call_time () =
  let module B = Ndlog.Builtins in
  (match B.find "f_concatPath" with
  | Some f ->
    checkb "find = apply" true
      (V.equal
         (f [ V.Addr "a"; V.List [ V.Addr "b" ] ])
         (B.apply "f_concatPath" [ V.Addr "a"; V.List [ V.Addr "b" ] ]))
  | None -> Alcotest.fail "f_concatPath is registered");
  checkb "unregistered" true (B.find "f_nope" = None);
  let rec rename (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) ->
      Ast.Call ((if f = "f_size" then "f_nope" else f), List.map rename args)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rename a, rename b)
    | e -> e
  in
  let p = Programs.parse_exn "b(@S, N) :- a(@S, X), N = f_size(X).\n" in
  let p =
    {
      p with
      Ast.rules =
        List.map
          (fun (r : Ast.rule) ->
            {
              r with
              Ast.body =
                List.map
                  (function Ast.Assign (x, e) -> Ast.Assign (x, rename e) | l -> l)
                  r.Ast.body;
            })
          p.Ast.rules;
    }
  in
  let info = Analysis.analyze_exn p in
  let run facts = Eval.seminaive p info (Store.of_facts facts) in
  checkb "no tuple reaches the call" true (run []).Eval.converged;
  Alcotest.check_raises "raised at call time" (B.Unknown_function "f_nope")
    (fun () ->
      ignore (run [ Ast.fact ~loc:0 "a" [ V.Addr "n0"; V.List [] ] ]))

(* Random nested values over a small pool of atoms, so structurally
   equal pairs (and lists holding lists equal to other values) turn up
   often.  Every box is fresh: strings are copied, never shared. *)
let value_gen : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun i -> V.Int i) (int_range 0 3);
        map (fun s -> V.Addr (s ^ "")) (oneofl [ "n0"; "n1"; "n2" ]);
        map (fun s -> V.Str (s ^ "")) (oneofl [ "n0"; "x" ]);
        map (fun b -> V.Bool b) bool;
      ]
  in
  sized_size (int_bound 3)
    (fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [
               (2, atom);
               (3, map (fun vs -> V.List vs) (list_size (int_bound 3) (self (n - 1))));
             ]))

let arb_value = QCheck.make ~print:V.to_string value_gen

(* A structurally equal value in entirely fresh boxes. *)
let rec fresh_copy (v : V.t) : V.t =
  match v with
  | V.Int n -> V.Int n
  | V.Str s -> V.Str (s ^ "")
  | V.Bool b -> V.Bool b
  | V.Addr a -> V.Addr (a ^ "")
  | V.List vs -> V.List (List.map fresh_copy vs)

let rec elements_canonical (v : V.t) =
  match v with
  | V.List vs -> List.for_all (fun e -> Intern.canon e == e && elements_canonical e) vs
  | _ -> true

(* Hash-consing cell by cell: ids decide value equality, representatives
   are unique per class and hold only representatives, and consing onto
   a list's id is the id of the longer list, whose representative shares
   the tail's spine. *)
let prop_intern_hash_consing =
  QCheck.Test.make ~name:"hash-consed ids, representatives and shared spines"
    ~count:500 (QCheck.pair arb_value arb_value) (fun (a, b) ->
      let ia = Intern.id a and ca = Intern.canon a in
      let t = match b with V.List vs -> vs | v -> [ v ] in
      let tail = Intern.id (V.List t) and cell = Intern.id (V.List (a :: t)) in
      (ia = Intern.id b) = V.equal a b
      && V.equal (Intern.of_id ia) a
      && ca == Intern.of_id ia
      && ca == Intern.canon (fresh_copy a)
      && ((not (V.equal a b)) || ca == Intern.canon b)
      && elements_canonical ca
      && Intern.cons ia tail = cell
      &&
      match Intern.of_id cell, Intern.of_id tail with
      | V.List (h :: spine), V.List spine' -> h == ca && spine == spine'
      | _ -> false)

(* Differential property for the path builtins on ids: one- and
   two-rule programs over one random [a] fact (list-valued or not) and
   a few [e] atoms reach the naive evaluator's fixpoint, or raise the
   same exception.  One [a] tuple makes every error deterministic: the
   first rule derives at most one [b] tuple, and the second rules
   only fail on a non-list [b]. *)
let path_first_rules =
  [|
    "P = f_concatPath(X, Y)";
    "P = f_cons(X, Y)";
    "P = f_init(X, Y)";
    "P = f_initPath(Y, X)";
    "P = f_inPath(X, Y)";
    "P = f_inPath(Y, X)";
    "P = f_inPath(f_concatPath(X, Y), X)";
    "P = f_concatPath(f_first(X), f_first(Y))";
    "P = f_concatPath(X, f_init(Y, X))";
    "f_inPath(Y, X) = false, P = f_concatPath(X, Y)";
    "P = f_size(f_cons(X, Y))";
    "P = f_append(X, Y)";
  |]

let path_second_rules =
  [|
    "";
    "b(@S, P) :- b(@S, Q), e(@S, Z), f_inPath(Q, Z) = false, \
     P = f_concatPath(Z, Q).\n";
    "c(@S, N) :- b(@S, Q), N = f_size(Q).\n";
    "c(@S, Q) :- b(@S, Q), f_inPath(Q, S) = true.\n";
  |]

let prop_path_builtins_differential =
  QCheck.Test.make ~name:"path builtins: semi-naive = naive (fixpoint or error)"
    ~count:300
    QCheck.(
      quad
        (int_range 0 (Array.length path_first_rules - 1))
        (int_range 0 (Array.length path_second_rules - 1))
        (pair arb_value arb_value)
        (list_of_size (Gen.int_range 1 3) arb_value))
    (fun (r1, r2, (x, y), zs) ->
      let src =
        Printf.sprintf "b(@S, P) :- a(@S, X, Y), %s.\n%s" path_first_rules.(r1)
          path_second_rules.(r2)
      in
      let p = Programs.parse_exn src in
      let n0 = V.Addr "n0" in
      let p =
        {
          p with
          Ast.facts =
            Ast.fact ~loc:0 "a" [ n0; x; y ]
            :: List.map (fun z -> Ast.fact ~loc:0 "e" [ n0; z ]) zs;
        }
      in
      let info = Analysis.analyze_exn p in
      let db = Store.of_facts p.Ast.facts in
      let outcome eval =
        match eval p info db with
        | (o : Eval.outcome) -> Ok (o.Eval.db, o.Eval.converged)
        | exception e -> Error e
      in
      (* Bounded rounds: every program here converges in a handful, so
         a runaway recursion shows up as [converged = false]. *)
      match
        (outcome (Eval.naive ~max_rounds:50), outcome (Eval.seminaive ~max_rounds:50))
      with
      | Ok (d1, c1), Ok (d2, c2) -> Store.equal d1 d2 && c1 = c2
      | Error e1, Error e2 -> e1 = e2
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Localization. *)

let test_localize_path_vector () =
  let p = Programs.path_vector () in
  match Localize.rewrite_program p with
  | Error e -> Alcotest.failf "localization failed: %a" Localize.pp_error e
  | Ok { program; relocations } ->
    checki "one relocation" 1 (List.length relocations);
    (match relocations with
    | [ ("link", 0, 1) ] -> ()
    | _ -> Alcotest.fail "expected link relocated from index 0 to 1");
    (match Localize.check_localized program with
    | Ok () -> ()
    | Error e -> Alcotest.failf "not localized: %a" Localize.pp_error e)

let test_localize_preserves_semantics () =
  let links = Programs.random_links ~seed:3 ~extra:2 6 in
  let orig = Programs.with_links (Programs.path_vector ()) links in
  let loc =
    match Localize.rewrite_program orig with
    | Ok r -> r.Localize.program
    | Error e -> Alcotest.failf "localization failed: %a" Localize.pp_error e
  in
  let a = Eval.run_exn orig and b = Eval.run_exn loc in
  checkb "bestPath unchanged" true
    (Store.Tset.equal
       (Store.relation "bestPath" a.Eval.db)
       (Store.relation "bestPath" b.Eval.db));
  checkb "path unchanged" true
    (Store.Tset.equal
       (Store.relation "path" a.Eval.db)
       (Store.relation "path" b.Eval.db))

let test_localize_idempotent_on_local () =
  let p = parse_ok {| p(@X,Y) :- q(@X,Y), r(@X). |} in
  match Localize.rewrite_program p with
  | Ok { relocations; _ } -> checki "no relocations" 0 (List.length relocations)
  | Error e -> Alcotest.failf "localization failed: %a" Localize.pp_error e

(* ------------------------------------------------------------------ *)
(* Soft state. *)

let test_expiry_table () =
  let decls = [ Ast.decl ~lifetime:(Ast.Lifetime 5.0) "ping" ] in
  let e = Softstate.Expiry.create decls in
  checkb "ping is soft" true (Softstate.Expiry.is_soft e "ping");
  checkb "link is hard" false (Softstate.Expiry.is_soft e "link");
  let t = tuple [ V.Addr "a" ] in
  let e = Softstate.Expiry.insert e ~now:0.0 "ping" t in
  let dead, e = Softstate.Expiry.expired e ~now:3.0 in
  checki "nothing dead yet" 0 (List.length dead);
  (* refresh at t=4 extends the lease *)
  let e = Softstate.Expiry.insert e ~now:4.0 "ping" t in
  let dead, e = Softstate.Expiry.expired e ~now:6.0 in
  checki "still alive after refresh" 0 (List.length dead);
  let dead, _ = Softstate.Expiry.expired e ~now:9.5 in
  checki "expired eventually" 1 (List.length dead)

let test_hard_state_rewrite_runs () =
  let p =
    Programs.with_links (Programs.heartbeat ~lifetime:10) (Programs.line_links 2)
  in
  let report = Softstate.to_hard_state p in
  checkb "ping is soft" true (List.mem "ping" report.Softstate.soft_preds);
  checkb "columns added" true (report.Softstate.added_columns > 0);
  (* At clock 5 the hearbeats inserted at 0 are alive. *)
  (match Softstate.run_at_clock report.Softstate.rewritten ~now:5 with
  | Ok o ->
    checkb "alive at 5" true (Store.cardinal "aliveNeighbor" o.Eval.db > 0)
  | Error e -> Alcotest.failf "eval failed: %a" Analysis.pp_error e);
  ()

let test_hard_state_rewrite_expires () =
  (* Freeze the base facts' timestamps and advance the clock past the
     lifetime: derived soft tuples must disappear. *)
  let p =
    {
      (Programs.heartbeat ~lifetime:10) with
      Ast.facts = Programs.line_links 2;
      rules =
        (* only keep h2, and make ping a base soft relation *)
        List.filter
          (fun (r : Ast.rule) -> r.Ast.rule_name = Some "h2")
          (Programs.heartbeat ~lifetime:10).Ast.rules;
    }
  in
  let p =
    {
      p with
      Ast.facts =
        p.Ast.facts
        @ [
            {
              Ast.fact_pred = "ping";
              fact_loc = Some 0;
              fact_args = [ V.Addr "n1"; V.Addr "n0" ];
            };
          ];
    }
  in
  let report = Softstate.to_hard_state p in
  (match Softstate.run_at_clock report.Softstate.rewritten ~now:5 with
  | Ok o -> checkb "alive at 5" true (Store.cardinal "aliveNeighbor" o.Eval.db > 0)
  | Error e -> Alcotest.failf "eval failed: %a" Analysis.pp_error e);
  match Softstate.run_at_clock report.Softstate.rewritten ~now:50 with
  | Ok o -> checki "expired at 50" 0 (Store.cardinal "aliveNeighbor" o.Eval.db)
  | Error e -> Alcotest.failf "eval failed: %a" Analysis.pp_error e

let test_fractional_lifetime_guard () =
  (* materialize(obs, 2.5): the rewrite's integer liveness guard must
     agree with Expiry's float deadline at every integer clock value.
     Truncating the lifetime (the old [int_of_float]) kills the tuple
     at clock 2, where the 2.5-second lease is still live. *)
  let decls =
    [
      Ast.decl ~lifetime:(Ast.Lifetime 2.5) "obs";
      Ast.decl "probe";
      Ast.decl "quiet";
    ]
  in
  let rule =
    Ast.rule ~name:"q1"
      {
        Ast.head_pred = "quiet";
        head_loc = None;
        head_args = [ Ast.Plain (Ast.Var "X") ];
      }
      [
        Ast.Pos { Ast.pred = "probe"; loc = None; args = [ Ast.Var "X" ] };
        Ast.Neg { Ast.pred = "obs"; loc = None; args = [ Ast.Var "X" ] };
      ]
  in
  let p =
    {
      Ast.decls;
      facts =
        [ Ast.fact "probe" [ V.Addr "a" ]; Ast.fact "obs" [ V.Addr "a" ] ];
      rules = [ rule ];
    }
  in
  let report = Softstate.to_hard_state p in
  let tup = tuple [ V.Addr "a" ] in
  let expiry =
    Softstate.Expiry.insert (Softstate.Expiry.create decls) ~now:0.0 "obs" tup
  in
  List.iter
    (fun now ->
      let live_expiry =
        fst (Softstate.Expiry.expired expiry ~now:(float_of_int now)) = []
      in
      match Softstate.run_at_clock report.Softstate.rewritten ~now with
      | Ok o ->
        let live_rewrite = Store.cardinal "obs_live" o.Eval.db > 0 in
        checkb
          (Printf.sprintf "liveness agrees at clock %d" now)
          live_expiry live_rewrite;
        (* the negation downstream flips in the same instant *)
        checki
          (Printf.sprintf "quiet tracks expiry at clock %d" now)
          (if live_expiry then 0 else 1)
          (Store.cardinal "quiet" o.Eval.db)
      | Error e -> Alcotest.failf "eval failed: %a" Analysis.pp_error e)
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Plans (rule strands). *)


let test_plan_shapes () =
  let p = Programs.path_vector () in
  let r2 = List.nth p.Ast.rules 1 in
  let s = Plan.compile_strand r2 ~delta:1 in
  checks "delta pred is path" "path" s.Plan.delta.Ast.pred;
  (* delta -> join(link) -> bind(C) -> bind(P) -> filter -> project *)
  (match Plan.ops s with
  | Plan.Delta { pred = "path"; _ }
    :: Plan.Join { pred = "link"; _ }
    :: _ -> ()
  | _ -> Alcotest.fail "unexpected strand shape");
  checkb "ends with project" true
    (match List.rev (Plan.ops s) with
    | Plan.Project h :: _ -> h.Ast.head_pred = "path"
    | _ -> false)

(* Heads of a delta strand run by the executor over a batch of
   triggering tuples: boxed and sorted, duplicates kept (a multiset). *)
let strand_heads ?stats db strand deltas =
  let heads = ref [] in
  Ideval.execute_batch ?stats (Flat.of_store db)
    ~delta_tuples:(List.map Intern.tuple_ids deltas)
    (Ideval.of_strand strand)
    (fun ids -> heads := ids :: !heads);
  List.map Intern.tuple_of_ids !heads |> List.sort Store.Tuple.compare

(* The boxed oracle for a rule that reads [pred] once: direct body
   evaluation with that relation replaced by the batch. *)
let body_heads db (rule : Ast.rule) pred deltas =
  Eval.body_envs
    (Store.set_relation pred (Store.Tset.of_list deltas) db)
    rule.Ast.body
  |> List.map (fun env -> Eval.head_tuple env rule.Ast.head)
  |> List.sort Store.Tuple.compare

let same_heads = List.equal Store.Tuple.equal

let test_plan_scan_equals_eval () =
  (* Run over the whole relation of its trigger, a delta strand derives
     exactly what direct body evaluation over the database derives. *)
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 3) in
  let db = (Eval.run_exn p).Eval.db in
  let r2 = List.nth p.Ast.rules 1 in
  let strand = Plan.compile_strand r2 ~delta:1 in
  let via_eval =
    Eval.body_envs db r2.Ast.body
    |> List.map (fun env -> Eval.head_tuple env r2.Ast.head)
    |> List.sort Store.Tuple.compare
  in
  checkb "derivations found" true (via_eval <> []);
  checkb "same derivations" true
    (same_heads (strand_heads db strand (Store.tuples "path" db)) via_eval)

let test_plan_delta_equals_eval () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let db = (Eval.run_exn p).Eval.db in
  let r2 = List.nth p.Ast.rules 1 in
  let strand = Plan.compile_strand r2 ~delta:1 in
  (* for every path tuple as delta, strand output = eval-with-delta *)
  List.iter
    (fun t ->
      checkb "delta strand agrees" true
        (same_heads (strand_heads db strand [ t ]) (body_heads db r2 "path" [ t ])))
    (Store.tuples "path" db)

let test_plan_program_strands () =
  let p = Programs.path_vector () in
  let strands = Plan.compile_program p in
  (* r1 has one positive atom, r2 two, r4 two; r3 is an aggregate *)
  checki "five strands" 5 (List.length strands);
  List.iter
    (fun s ->
      checkb "printable" true (String.length (Fmt.str "%a" Plan.pp s) > 0))
    strands

let test_plan_negation () =
  let p =
    parse_ok
      {|
link(@a, b, 1). node(@a). node(@b).
sink(@X) :- node(@X), !hasout(@X).
hasout(@X) :- link(@X,Y,C).
|}
  in
  let db = (Eval.run_exn p).Eval.db in
  let sink_rule = List.hd p.Ast.rules in
  let strand = Plan.compile_strand sink_rule ~delta:0 in
  let out = strand_heads db strand (Store.tuples "node" db) in
  checki "one sink" 1 (List.length out);
  checkb "sink is b" true (V.equal (List.hd out).(0) (V.Addr "b"))

let test_plan_rejects_aggregates () =
  let p = Programs.path_vector () in
  let r3 = List.nth p.Ast.rules 2 in
  match Plan.compile_strand r3 ~delta:0 with
  | exception Plan.Plan_error _ -> ()
  | _ -> Alcotest.fail "aggregate rule must be rejected"

let prop_strands_cover_seminaive =
  (* Union of all delta-strand outputs over the fixpoint's tuples
     re-derives every derived path tuple (closure property). *)
  QCheck.Test.make ~name:"strands re-derive the fixpoint" ~count:10
    (QCheck.int_range 3 6)
    (fun n ->
      let p =
        Programs.with_links (Programs.reachability ()) (Programs.ring_links n)
      in
      let o = Eval.run_exn p in
      let db = o.Eval.db in
      let strands = Plan.compile_program p in
      let derived =
        List.concat_map
          (fun (s : Plan.strand) ->
            strand_heads db s (Store.tuples s.Plan.delta.Ast.pred db))
          strands
        |> List.sort_uniq Store.Tuple.compare
      in
      (* every reachable tuple not coming directly from rc1's link scan
         appears among strand outputs; and conversely strands only
         derive fixpoint tuples *)
      List.for_all (fun t -> Store.mem "reachable" t db) derived
      && List.for_all
           (fun t -> List.exists (Store.Tuple.equal t) derived)
           (Store.tuples "reachable" db))

(* ------------------------------------------------------------------ *)
(* Provenance. *)

module Provenance = Ndlog.Provenance

let fixpoint_of p =
  let o = Eval.run_exn p in
  o.Eval.db

let test_provenance_fact () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 3) in
  let db = fixpoint_of p in
  let t = Array.of_list [ V.Addr "n0"; V.Addr "n1"; V.Int 1 ] in
  match Provenance.explain p db "link" t with
  | Ok (Provenance.Fact ("link", t')) ->
    checkb "same tuple" true (Store.Tuple.equal t t')
  | Ok _ -> Alcotest.fail "expected a base fact"
  | Error e -> Alcotest.fail e

let test_provenance_recursive_path () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 4) in
  let db = fixpoint_of p in
  (* the three-hop path n0 -> n3 *)
  let t =
    Array.of_list
      [
        V.Addr "n0"; V.Addr "n3";
        V.List [ V.Addr "n0"; V.Addr "n1"; V.Addr "n2"; V.Addr "n3" ];
        V.Int 3;
      ]
  in
  match Provenance.explain p db "path" t with
  | Error e -> Alcotest.fail e
  | Ok d ->
    checkb "validates" true (Provenance.validate (Provenance.make_config p db) d);
    (* depth: r2(r2(r1)) over three links -> at least 3 rule steps *)
    checkb "deep enough" true (Provenance.depth d >= 3);
    (match d with
    | Provenance.Step s ->
      checkb "top rule is r2" true (s.Provenance.rule.Ast.rule_name = Some "r2")
    | Provenance.Fact _ -> Alcotest.fail "path is not a fact")

let test_provenance_aggregate () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 3) in
  let db = fixpoint_of p in
  let t = Array.of_list [ V.Addr "n0"; V.Addr "n2"; V.Int 2 ] in
  match Provenance.explain p db "bestPathCost" t with
  | Error e -> Alcotest.fail e
  | Ok (Provenance.Step s) ->
    checkb "aggregate rule r3" true (s.Provenance.rule.Ast.rule_name = Some "r3");
    (* the witness premise is the cost-2 path *)
    checkb "witness premise" true
      (List.exists
         (fun d ->
           let pr, tu = Provenance.conclusion d in
           pr = "path" && V.equal tu.(3) (V.Int 2))
         s.Provenance.premises)
  | Ok (Provenance.Fact _) -> Alcotest.fail "aggregates are not facts"

let test_provenance_absent_tuple () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.line_links 3) in
  let db = fixpoint_of p in
  let bogus = Array.of_list [ V.Addr "n0"; V.Addr "n9"; V.Int 1 ] in
  match Provenance.explain p db "link" bogus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "explained a tuple not in the database"

let test_provenance_negation_recorded () =
  let p =
    parse_ok
      {|
link(@a, b, 1).
node(@a). node(@b).
sink(@X) :- node(@X), !hasout(@X).
hasout(@X) :- link(@X,Y,C).
|}
  in
  let db = fixpoint_of p in
  let t = Array.of_list [ V.Addr "b" ] in
  match Provenance.explain p db "sink" t with
  | Error e -> Alcotest.fail e
  | Ok (Provenance.Step s) ->
    checkb "negative check recorded" true
      (List.exists (fun (pr, _) -> pr = "hasout") s.Provenance.neg_checks)
  | Ok (Provenance.Fact _) -> Alcotest.fail "sink is derived"

let prop_every_tuple_explainable =
  QCheck.Test.make ~name:"every fixpoint tuple has a valid derivation"
    ~count:15
    QCheck.(pair (int_range 3 6) (int_range 0 2))
    (fun (n, extra) ->
      let p =
        Programs.with_links (Programs.reachability ())
          (Programs.random_links ~seed:(n + (7 * extra)) ~extra n)
      in
      let db = fixpoint_of p in
      let cfg = Provenance.make_config p db in
      Store.tuples "reachable" db
      |> List.for_all (fun t ->
             match Provenance.explain ~config:cfg p db "reachable" t with
             | Ok d -> Provenance.validate cfg d
             | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Batched delta joins. *)

let test_group_formation () =
  (* r(@X,Z) :- e(@X,Y), f(@Y,Z) with e as the delta: the rest reads Y,
     so the delta groups by its Y column. *)
  let p = parse_ok {| r(@X,Z) :- e(@X,Y), f(@Y,Z). |} in
  let r = List.hd p.Ast.rules in
  let delta_atom =
    match List.hd r.Ast.body with Ast.Pos a -> a | _ -> assert false
  in
  let rest = List.tl r.Ast.body in
  checks "grouped by the join column" "Y"
    (String.concat ","
       (List.map snd (Plan.group_cols delta_atom (Plan.group_vars delta_atom rest))));
  let t a b = tuple [ V.Addr a; V.Addr b ] in
  let db = Store.add_list "f" [ t "y" "z1"; t "y" "z2" ] Store.empty in
  let strand = Plan.compile_strand r ~delta:0 in
  let probe delta =
    let st = Plan.counters () in
    let heads = strand_heads ~stats:st db strand delta in
    (List.length heads, Plan.snapshot st)
  in
  (* empty batch: nothing to probe, no group forms *)
  let n, st = probe [] in
  checki "empty delta: no envs" 0 n;
  checki "empty delta: no groups" 0 st.Eval.groups;
  checki "empty delta: no delta tuples" 0 st.Eval.delta_tuples;
  (* singleton delta: exactly one group *)
  let n, st = probe [ t "x" "y" ] in
  checki "singleton delta: both f rows join" 2 n;
  checki "singleton delta: one group" 1 st.Eval.groups;
  (* two delta tuples sharing the join key fall into one group *)
  let n, st = probe [ t "x1" "y"; t "x2" "y" ] in
  checki "shared key: four envs" 4 n;
  checki "shared key: still one group" 1 st.Eval.groups;
  (* distinct keys split *)
  let n, st = probe [ t "x1" "y"; t "x2" "w" ] in
  checki "distinct keys: only y joins" 2 n;
  checki "distinct keys: two groups" 2 st.Eval.groups

(* Delta joins report their grouping, and the fixpoint is the naive
   oracle's. *)
let test_batched_stats_counted () =
  let check name p =
    let o = seminaive_with p in
    let naive =
      Eval.naive p (Analysis.analyze_exn p) (Store.of_facts p.Ast.facts)
    in
    let st = o.Eval.stats in
    checkb (name ^ ": naive fixpoint") true (Store.equal naive.Eval.db o.Eval.db);
    checkb (name ^ ": groups counted") true (st.Eval.groups > 0);
    checkb (name ^ ": groups within delta tuples") true
      (st.Eval.groups <= st.Eval.delta_tuples);
    checkb (name ^ ": matched within enumerated") true
      (st.Eval.matched <= st.Eval.enumerated)
  in
  check "reachability"
    (Programs.with_links (Programs.reachability ()) (Programs.grid_links 4));
  (* the path-vector body (assignments, a negation, a builtin) exercises
     the shared/per-tuple split *)
  check "path-vector"
    (Programs.with_links (Programs.path_vector ()) (Programs.ring_links 6))

(* Over random and regular topologies and four programs, the batched
   delta join reaches the naive oracle's fixpoint, never forms more
   groups than it is fed delta tuples, and a second run reproduces the
   first exactly: rounds, derivations and every counter. *)
let prop_batched_delta_join =
  QCheck.Test.make
    ~name:
      "batched delta join = naive oracle (fixpoint, groups <= delta \
       tuples, reproducible)"
    ~count:40
    QCheck.(triple (int_range 0 3) (int_range 2 7) (int_range 0 4))
    (fun (which, n, extra) ->
      let links =
        match which with
        | 0 | 1 -> Programs.random_links ~seed:((13 * n) + extra + which) ~extra n
        | 2 -> Programs.ring_links n
        | _ -> Programs.grid_links (2 + (n mod 2))
      in
      let prog =
        match which with
        | 0 -> Programs.path_vector ()
        | 1 -> Programs.reachability ()
        | 2 -> Programs.bounded_distance_vector ~max_hops:n
        | _ -> Programs.link_state ~max_hops:4
      in
      let p = Programs.with_links prog links in
      let naive =
        Eval.naive p (Analysis.analyze_exn p) (Store.of_facts p.Ast.facts)
      in
      let a = seminaive_with p in
      let b = seminaive_with p in
      let st = a.Eval.stats in
      Store.equal naive.Eval.db a.Eval.db
      && a.Eval.converged
      && st.Eval.groups <= st.Eval.delta_tuples
      && (a.Eval.derivations = 0 || st.Eval.groups > 0)
      && Store.equal a.Eval.db b.Eval.db
      && a.Eval.rounds = b.Eval.rounds
      && a.Eval.derivations = b.Eval.derivations
      && st = b.Eval.stats)

let test_execute_batch () =
  (* The batched strand executor = per-tuple strand execution over the
     same delta set (as a multiset of heads). *)
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let db = (Eval.run_exn p).Eval.db in
  let r2 = List.nth p.Ast.rules 1 in
  let strand = Plan.compile_strand r2 ~delta:1 in
  let deltas = Store.tuples "path" db in
  let via_batch = strand_heads db strand deltas in
  let via_single =
    List.concat_map (fun t -> strand_heads db strand [ t ]) deltas
    |> List.sort Store.Tuple.compare
  in
  checkb "batch = per-tuple strand heads" true (same_heads via_batch via_single);
  checkb "batch = boxed oracle" true
    (same_heads via_batch (body_heads db r2 "path" deltas));
  checki "empty batch" 0 (List.length (strand_heads db strand []));
  (* a strand must be triggered by a positive atom *)
  match Plan.compile_strand r2 ~delta:4 with
  | exception Plan.Plan_error _ -> ()
  | _ -> Alcotest.fail "a comparison is not a delta position"

(* Path-vector's recursive rule with [path] as the delta: the rest of
   the body joins on Z only, so deltas group by path's first column;
   the link probe runs once per group, the two assignments and the
   loop check once per delta tuple. *)
let test_batched_decomposition () =
  let r2 = List.nth (Programs.path_vector ()).Ast.rules 1 in
  let delta_atom =
    match List.nth r2.Ast.body 1 with Ast.Pos a -> a | _ -> assert false
  in
  let rest = List.filteri (fun i _ -> i <> 1) r2.Ast.body in
  let gvars = Plan.group_vars delta_atom rest in
  checks "group variables" "Z" (String.concat "," (Ast.Sset.elements gvars));
  checkb "grouped by column 0" true
    (Plan.group_cols delta_atom gvars = [ (0, "Z") ]);
  let ordered = Plan.order_body ~bound:(Plan.atom_binds delta_atom) rest in
  let shared, per_tuple = Plan.split_shared gvars ordered in
  checkb "link probe shared" true
    (match shared with [ Ast.Pos { Ast.pred = "link"; _ } ] -> true | _ -> false);
  checki "filters per tuple" 3 (List.length per_tuple)

(* One compiled strand serves every batch: running it again yields the
   same heads and the same counters. *)
let test_strand_reusable () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let db = (Eval.run_exn p).Eval.db in
  let istrand = Ideval.of_strand (Plan.compile_strand (List.nth p.Ast.rules 1) ~delta:1) in
  let fdb = Flat.of_store db in
  let delta_tuples = List.map Intern.tuple_ids (Store.tuples "path" db) in
  let run () =
    let st = Plan.counters () in
    let heads = ref [] in
    Ideval.execute_batch ~stats:st fdb ~delta_tuples istrand (fun ids ->
        heads := ids :: !heads);
    let heads =
      List.map Intern.tuple_of_ids !heads |> List.sort Store.Tuple.compare
    in
    (heads, Plan.snapshot st)
  in
  let h1, s1 = run () in
  let h2, s2 = run () in
  checkb "heads derived" true (h1 <> []);
  checkb "same heads" true (same_heads h1 h2);
  checkb "same counters" true (s1 = s2)

(* ------------------------------------------------------------------ *)
(* Index-aware aggregates. *)

(* The head relation of a one-rule aggregate program evaluated over
   [db], with the run's counters. *)
let agg_outputs ?optimized_joins db (p : Ast.program) =
  let o = Eval.seminaive ?optimized_joins p (Analysis.analyze_exn p) db in
  let r = List.hd p.Ast.rules in
  (Store.relation r.Ast.head.Ast.head_pred o.Eval.db, o.Eval.stats)

let test_agg_fast_path () =
  let rule_of src =
    match Parser.parse_program src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let db =
    Store.add_list "path"
      [
        [| V.Addr "a"; V.Addr "b"; V.Int 3 |];
        [| V.Addr "a"; V.Addr "b"; V.Int 1 |];
        [| V.Addr "a"; V.Addr "c"; V.Int 2 |];
        [| V.Addr "b"; V.Addr "c"; V.Int 5 |];
        (* wrong arity: must be ignored by both paths *)
        [| V.Addr "a"; V.Addr "b" |];
      ]
      Store.empty
  in
  let both r =
    let fast, _ = agg_outputs db r in
    let slow, _ =
      agg_outputs ~optimized_joins:false db r
    in
    checkb "fast path = enumeration" true (Store.Tset.equal fast slow);
    (* the independent oracle: the boxed naive evaluator *)
    let naive = Eval.naive r (Analysis.analyze_exn r) db in
    checkb "fast path = naive" true
      (Store.Tset.equal fast
         (Store.relation (List.hd r.Ast.rules).Ast.head.Ast.head_pred
            naive.Eval.db));
    fast
  in
  let best = both (rule_of {| best(@S,D,min<C>) :- path(@S,D,C). |}) in
  checkb "min over (a,b)" true
    (Store.Tset.mem [| V.Addr "a"; V.Addr "b"; V.Int 1 |] best);
  checki "three groups" 3 (Store.Tset.cardinal best);
  (* Global aggregation: no group-by columns at all. *)
  let total = both (rule_of {| total(count<C>) :- path(S,D,C). |}) in
  checkb "global count ignores the short tuple" true
    (Store.Tset.equal total (Store.Tset.singleton [| V.Int 4 |]));
  (* Repeated variables disqualify the fast path but not correctness. *)
  ignore (both (rule_of {| selfmin(@S,min<C>) :- path(@S,S,C). |}));
  (* Counters: the body runs as one whole-relation batch — one scan, no
     probe, every tuple of the relation a delta tuple in one group. *)
  let _, st = agg_outputs db (rule_of {| best(@S,D,min<C>) :- path(@S,D,C). |}) in
  checki "no index probe" 0 st.Eval.index_hits;
  checki "one scan" 1 st.Eval.scans;
  checki "one group" 1 st.Eval.groups;
  checki "every tuple a delta tuple" 5 st.Eval.delta_tuples

(* Random aggregate rules over joins: 1-3 positive atoms over the
   facts [e/3] and [d/3], located on [N], whose other arguments draw
   from a small variable pool — so variables repeat within an atom and
   are shared across atoms — now and then a constant or a complex
   argument over variables bound to its left, and sometimes a trailing
   condition.  The head groups by [N] and 0-2 more variables, or by
   nothing at all, and folds one or two of min, max, count and sum.
   Rule [i] has its own head [g<i>]. *)
let gen_agg_rule i : Ast.rule QCheck.Gen.t =
 fun rs ->
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let bound = ref [] in
  let arg ~bare =
    match if bare then 2 else Random.State.int rs 6 with
    | 0 -> Ast.(var (pick !bound) +: cint 1)
    | 1 -> Ast.cint (Random.State.int rs 3)
    | _ ->
      let x = pick [ "X"; "Y"; "Z"; "W" ] in
      if not (List.mem x !bound) then bound := x :: !bound;
      Ast.var x
  in
  let atom j =
    let a = arg ~bare:(j = 0) in
    let b = arg ~bare:false in
    Ast.Pos (Ast.atom ~loc:0 (pick [ "e"; "d" ]) [ Ast.var "N"; a; b ])
  in
  let atoms = List.init (1 + Random.State.int rs 3) atom in
  let var () = Ast.var (pick !bound) in
  let cond =
    if Random.State.bool rs then
      [ Ast.Cond (pick [ Ast.Lt; Ast.Le; Ast.Ne ], var (), var ()) ]
    else []
  in
  let group =
    List.init (Random.State.int rs 3) (fun _ -> Ast.Plain (var ()))
  in
  let aggs =
    List.init
      (1 + Random.State.int rs 2)
      (fun _ ->
        Ast.Agg (pick [ Ast.Min; Ast.Max; Ast.Count; Ast.Sum ], pick !bound))
  in
  let pred = Printf.sprintf "g%d" i in
  let head =
    if Random.State.int rs 4 = 0 then Ast.head pred (group @ aggs)
    else Ast.head ~loc:0 pred ((Ast.Plain (Ast.var "N") :: group) @ aggs)
  in
  Ast.rule head (atoms @ cond)

let arb_agg_rules =
  let gen =
    QCheck.Gen.(
      let fact p (n, (x, y)) =
        let node = V.Addr (if n then "n1" else "n0") in
        Ast.fact ~loc:0 p [ node; V.Int x; V.Int y ]
      in
      let facts =
        list_size (int_range 3 10)
          (pair bool (pair (int_bound 2) (int_bound 2)))
      in
      triple (int_range 1 3) facts facts >>= fun (k, es, ds) ->
      flatten_l (List.init k gen_agg_rule) >|= fun rules ->
      (rules, List.map (fact "e") es @ List.map (fact "d") ds))
  in
  QCheck.make gen ~print:(fun (rules, facts) ->
      Fmt.str "%a" Ast.pp_program { Ast.empty_program with Ast.rules; facts })

(* Every aggregate shape runs one evaluator — the pre-head rule's strand,
   grouped and folded — so over joins, repeated variables, conditions
   and complex arguments it must reach the naive oracle's heads and
   derivation count, with the join optimizations on and off. *)
let prop_agg_over_joins =
  QCheck.Test.make ~name:"aggregates over joins = naive oracle, any config"
    ~count:200 arb_agg_rules (fun (rules, facts) ->
      let p = { Ast.empty_program with Ast.rules; facts } in
      let info = Analysis.analyze_exn p in
      let db = Store.of_facts facts in
      let naive = Eval.naive p info db in
      List.for_all
        (fun optimized_joins ->
          let semi = Eval.seminaive ~optimized_joins p info db in
          Store.equal naive.Eval.db semi.Eval.db
          && naive.Eval.derivations = semi.Eval.derivations)
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Value interning: the interned representation must be invisible —
   same tuples, same canonical order, same equality and hash, same
   evaluation results — while ids stay stable. *)


(* A deep copy of a value built from fresh, unshared boxes: no string
   or list cell is physically shared with the interned representative.
   [Store.add] does not intern, so a store built from such copies is the
   uncanonicalized twin of one built from interned tuples. *)
let rec fresh_value (v : V.t) : V.t =
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  match v with
  | V.Addr s -> V.Addr (fresh s)
  | V.Str s -> V.Str (fresh s)
  | V.List vs -> V.List (List.map fresh_value vs)
  | V.Int _ | V.Bool _ -> v

let fresh_tuple t = Array.map fresh_value t

(* Duplicate interning is stable: structurally equal values get the
   same id and the same physically shared representative, however many
   times and from however many boxes they are interned. *)
let test_intern_id_stable () =
  let mk () =
    (* String.concat defeats literal sharing: [a] and [b] are distinct
       boxes of the same value. *)
    V.List [ V.Addr (String.concat "" [ "n"; "1" ]); V.Int 3 ]
  in
  let a = mk () and b = mk () in
  checkb "distinct boxes" true (a != b);
  checki "same id" (Intern.id a) (Intern.id b);
  checkb "same representative" true (Intern.canon a == Intern.canon b);
  checkb "representative equals the value" true (V.equal (Intern.canon a) a);
  checkb "ids injective" true (Intern.id a <> Intern.id (V.Addr "n1"))

let test_intern_roundtrip () =
  List.iter
    (fun v ->
      checkb "of_id (id v) = v" true (V.equal (Intern.of_id (Intern.id v)) v))
    [
      V.Int 42;
      V.Str "payload";
      V.Bool false;
      V.Addr "n9";
      V.List [ V.Addr "a"; V.List [ V.Int 1; V.Str "x" ] ];
    ];
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument "Intern.of_id: unknown id -1") (fun () ->
      ignore (Intern.of_id (-1)))

let test_intern_bulk_rejects () =
  let unknown = Intern.size () + 5 in
  Alcotest.check_raises "unknown id in a tuple rejected"
    (Invalid_argument (Printf.sprintf "Intern.of_id: unknown id %d" unknown))
    (fun () -> ignore (Intern.tuple_of_ids [| Intern.id (V.Int 1); unknown |]))

(* [Store.tuples] must enumerate in canonical (Tuple.compare) order,
   and a selection on one column must return identical sets, whether
   the store holds interned tuples or fresh, unshared boxes of the same
   values. *)
let test_intern_store_order () =
  let tuples =
    List.init 40 (fun i ->
        [|
          V.Addr (Printf.sprintf "n%02d" (37 * i mod 40));
          V.List [ V.Addr (Printf.sprintf "n%02d" (i mod 5)); V.Int (i mod 7) ];
          V.Str (string_of_int (i mod 3));
        |])
  in
  let build canon =
    List.fold_left (fun db t -> Store.add "r" (canon t) db) Store.empty tuples
  in
  let probe db =
    let key = V.List [ V.Addr "n02"; V.Int 2 ] in
    Store.Tset.filter (fun t -> V.equal t.(1) key) (Store.relation "r" db)
  in
  let interned = build Intern.tuple in
  let boxed = build fresh_tuple in
  let hits_interned = probe interned and hits_boxed = probe boxed in
  checkb "interned and boxed selections agree" true
    (Store.Tset.equal hits_interned hits_boxed);
  checkb "selection finds the probe key" false
    (Store.Tset.is_empty hits_interned);
  let elems = Store.tuples "r" interned in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      Store.Tuple.compare a b < 0 && ascending rest
    | _ -> true
  in
  checkb "enumeration is canonically sorted" true (ascending elems);
  checkb "interned and boxed enumerate identically" true
    (List.length elems = List.length (Store.tuples "r" boxed)
    && List.for_all2 Store.Tuple.equal elems (Store.tuples "r" boxed))

(* An interned store and a store of fresh, unshared boxes built in
   another insertion order are the same state under
   [Store.equal]/[compare]/[hash], and select identically. *)
let test_intern_equal_hash_across_representations () =
  let tuples =
    List.init 25 (fun i ->
        [|
          V.Addr ("n" ^ string_of_int (i mod 5));
          V.List [ V.Addr ("n" ^ string_of_int ((i + 3) mod 5)) ];
          V.Int (i mod 4);
        |])
  in
  let build order =
    List.fold_left (fun db t -> Store.add "link" t db) Store.empty order
  in
  let interned = build (List.map Intern.tuple tuples) in
  let boxed = build (List.rev_map fresh_tuple tuples) in
  checkb "boxed twin shares no address box" true
    (List.for_all
       (fun t -> (fresh_tuple t).(0) != (Intern.tuple t).(0))
       tuples);
  checkb "equal across representations" true (Store.equal interned boxed);
  checki "hash across representations" (Store.hash boxed) (Store.hash interned);
  checki "compare across representations" 0 (Store.compare interned boxed);
  let select db =
    let key = V.List [ V.Addr "n1" ] in
    Store.Tset.filter (fun t -> V.equal t.(1) key) (Store.relation "link" db)
  in
  checkb "selections agree across representations" true
    (Store.Tset.equal (select interned) (select boxed));
  checkb "selection is not empty" false (Store.Tset.is_empty (select interned))

(* ------------------------------------------------------------------ *)
(* Flat (id-native) storage and the id-native evaluator.  [Flat] holds
   int-array tuples in open-addressing sets with patched-in-place
   indexes; [Ideval] is the one semi-naive executor. *)

module Fset = Flat.Fset

(* Intern's flat boundary: [tuple_ids]/[tuple_of_ids] round-trip
   through canonical representatives, [get] reads single ids, and
   [int_id] agrees with [id] on small ints. *)
let test_intern_tuple_ids () =
  let t =
    [| V.Addr "n4"; V.List [ V.Addr "n4"; V.Int 2 ]; V.Int 9; V.Str "s" |]
  in
  let ids = Intern.tuple_ids t in
  checki "one id per column" (Array.length t) (Array.length ids);
  Array.iteri (fun i v -> checki "column id" (Intern.id v) ids.(i)) t;
  let back = Intern.tuple_of_ids ids in
  checkb "round trip equal" true (Store.Tuple.equal t back);
  Array.iteri
    (fun i v ->
      checkb "canonical representative" true (back.(i) == Intern.canon v))
    t;
  for i = -3 to 40 do
    checki "int_id = id" (Intern.id (V.Int i)) (Intern.int_id i)
  done

let test_fset_ops () =
  let s = Fset.create () in
  let t i = Intern.tuple_ids [| V.Int i; V.Addr "x" |] in
  checkb "empty" true (Fset.is_empty s);
  checkb "fresh add" true (Fset.add s (t 1));
  checkb "duplicate add" false (Fset.add s (t 1));
  (* The probe compares by content, not by the array's identity. *)
  checkb "distinct box, same tuple" true (Fset.mem s (Array.copy (t 1)));
  for i = 2 to 200 do
    ignore (Fset.add s (t i))
  done;
  checki "cardinal after growth" 200 (Fset.cardinal s);
  checkb "remove present" true (Fset.remove s (t 7));
  checkb "remove absent" false (Fset.remove s (t 7));
  (* Tombstone reuse: re-adding a removed tuple finds the slot again. *)
  checkb "re-add after remove" true (Fset.add s (t 7));
  checkb "present after re-add" true (Fset.mem s (t 7));
  checki "cardinal stable" 200 (Fset.cardinal s);
  checki "elements enumerate all" 200 (List.length (Fset.elements s))

let test_flat_db_ops () =
  let db = Flat.create () in
  let t a b c = Intern.tuple_ids [| V.Addr a; V.Addr b; V.Int c |] in
  checkb "fresh add" true (Flat.add db "link" (t "n0" "n1" 1));
  checkb "duplicate add" false (Flat.add db "link" (t "n0" "n1" 1));
  ignore (Flat.add db "link" (t "n0" "n2" 5));
  ignore (Flat.add db "link" (t "n1" "n2" 2));
  checki "cardinal" 3 (Flat.cardinal db "link");
  let key = [| Intern.id (V.Addr "n0") |] in
  let probe () =
    let b = Flat.lookup db "link" ~cols:[| 0 |] ~key in
    List.filter (fun t -> t != Flat.vacant) (Array.to_list b)
  in
  checki "index probe" 2 (List.length (probe ()));
  (* The index is patched in place by subsequent mutations. *)
  ignore (Flat.add db "link" (t "n0" "n3" 9));
  checki "patched after add" 3 (List.length (probe ()));
  ignore (Flat.remove db "link" (t "n0" "n2" 5));
  checki "patched after remove" 2 (List.length (probe ()));
  checkb "probe finds exactly the keyed tuples" true
    (List.for_all (fun u -> u.(0) = key.(0)) (probe ()));
  ignore (Flat.remove db "link" (t "n0" "n1" 1));
  ignore (Flat.remove db "link" (t "n0" "n3" 9));
  checki "emptied bucket" 0 (List.length (probe ()));
  (* Boundary round-trip: of_store/to_store is the identity on
     content, and versions stamp every mutation. *)
  let v0 = Flat.version db in
  ignore (Flat.add db "link" (t "q" "r" 3));
  checkb "version bumped" true (Flat.version db > v0);
  let boxed = Flat.to_store db in
  checkb "round trip through boxed store" true
    (Store.equal boxed (Flat.to_store (Flat.of_store boxed)))

(* Removal-triggered compaction: a relation that churns down and never
   adds again must shed its O(peak) slot array once tombstones
   outnumber live entries, and stay exact through the rehash. *)
let test_fset_compaction () =
  let s = Fset.create () in
  let t i = Intern.tuple_ids [| V.Int i; V.Int (i * 7) |] in
  for i = 1 to 512 do
    ignore (Fset.add s (t i))
  done;
  let peak = Fset.capacity s in
  checkb "grew past the default" true (peak >= 1024);
  for i = 1 to 500 do
    ignore (Fset.remove s (t i))
  done;
  checki "cardinal after churn-down" 12 (Fset.cardinal s);
  checkb "slot array shrank" true (Fset.capacity s < peak);
  for i = 501 to 512 do
    checkb "survivor present" true (Fset.mem s (t i))
  done;
  for i = 1 to 500 do
    checkb "removed absent" false (Fset.mem s (t i))
  done;
  checkb "re-add after compaction" true (Fset.add s (t 1))

(* [clear] keeps a slot array its contents filled, so a scratch set
   refilled to a like size on every use grows once, and drops one that
   a small use left oversized. *)
let test_fset_clear_capacity () =
  let s = Fset.create () in
  let t i = Intern.tuple_ids [| V.Int i; V.Int (i * 3) |] in
  let fill k =
    for i = 1 to k do
      ignore (Fset.add s (t i))
    done
  in
  fill 200;
  let grown = Fset.capacity s in
  checkb "grew past the default" true (grown >= 512);
  Fset.clear s;
  checki "cleared" 0 (Fset.cardinal s);
  checki "filled array kept" grown (Fset.capacity s);
  checkb "cleared tuple absent" false (Fset.mem s (t 1));
  fill 200;
  checki "refill to a like size does not regrow" grown (Fset.capacity s);
  Fset.clear s;
  fill 2;
  Fset.clear s;
  checki "oversized after a small use: minimal again" 8 (Fset.capacity s);
  checkb "exact after clears" true (Fset.add s (t 1) && Fset.mem s (t 1))

(* Missing predicates read as one shared frozen empty set: no per-call
   allocation, and a mutation of it — the lost-update footgun — raises
   instead of silently updating an orphan. *)
let test_flat_shared_empty () =
  let db = Flat.create () in
  let r1 = Flat.relation db "absent" in
  let r2 = Flat.relation db "also_absent" in
  checkb "one shared empty set" true (r1 == r2);
  checkb "empty" true (Fset.is_empty r1);
  (match Fset.add r1 (Intern.tuple_ids [| V.Int 1 |]) with
  | _ -> checkb "add to shared empty raises" true false
  | exception Invalid_argument _ -> ());
  checkb "db untouched" true (Flat.is_empty db);
  ignore (Flat.add db "p" (Intern.tuple_ids [| V.Int 1 |]));
  checkb "live relation not frozen" true
    (Fset.mem (Flat.relation db "p") (Intern.tuple_ids [| V.Int 1 |]))

(* The database journal: net movement since a mark (cancelling
   add;remove and remove;add pairs), nested marks released innermost
   first, and journaled relation clearing. *)
let test_flat_journal () =
  let db = Flat.create () in
  let t i = Intern.tuple_ids [| V.Int i; V.Addr "j" |] in
  for i = 1 to 8 do
    ignore (Flat.add db "p" (t i))
  done;
  ignore (Flat.add db "q" (t 0));
  let find net p =
    List.assoc_opt p (List.map (fun (p, a, r) -> (p, (a, r))) net)
  in
  let m = Flat.mark db in
  ignore (Flat.remove db "p" (t 1));
  ignore (Flat.add db "p" (t 9));
  ignore (Flat.add db "p" (t 10));
  ignore (Flat.remove db "p" (t 10));
  (* add;remove cancels *)
  ignore (Flat.remove db "q" (t 0));
  ignore (Flat.add db "q" (t 0));
  (* remove;add cancels *)
  let net = Flat.net_since db m in
  (match find net "p" with
  | Some (adds, rems) ->
    checki "net adds" 1 (List.length adds);
    checki "net removes" 1 (List.length rems);
    checkb "net add is t9" true (Fset.tuple_eq (List.hd adds) (t 9));
    checkb "net remove is t1" true (Fset.tuple_eq (List.hd rems) (t 1))
  | None -> checkb "p moved" true false);
  (match find net "q" with
  | Some (adds, rems) ->
    checki "q cancelled adds" 0 (List.length adds);
    checki "q cancelled removes" 0 (List.length rems)
  | None -> ());
  Flat.commit db m;
  (* Nested marks: the inner movement is part of the outer. *)
  let outer = Flat.mark db in
  ignore (Flat.add db "p" (t 20));
  let inner = Flat.mark db in
  ignore (Flat.add db "p" (t 21));
  checki "inner sees its own adds" 1
    (match find (Flat.net_since db inner) "p" with
    | Some (adds, _) -> List.length adds
    | None -> 0);
  Flat.commit db inner;
  checki "outer sees both adds" 2
    (match find (Flat.net_since db outer) "p" with
    | Some (adds, _) -> List.length adds
    | None -> 0);
  Flat.commit db outer;
  (* A fresh mark after the last release starts an empty journal. *)
  let m2 = Flat.mark db in
  checkb "fresh mark has no movement" true (Flat.net_since db m2 = []);
  Flat.clear_rel db "p";
  checki "cleared" 0 (Flat.cardinal db "p");
  checki "clear journaled" 10
    (match find (Flat.net_since db m2) "p" with
    | Some (_, rems) -> List.length rems
    | None -> 0);
  Flat.commit db m2

(* Model property: an [Fset] driven by random add/remove/mem sequences
   agrees with a reference [Set.Make] at every step — through growth,
   tombstone reuse and removal-triggered compaction. *)
module Imodel = Set.Make (struct
  type t = int list

  let compare = compare
end)

let prop_fset_model =
  QCheck.Test.make
    ~name:"Fset = Set.Make model (ops and compaction through resizes)"
    ~count:300
    QCheck.(list (pair (int_range 0 2) (int_range 0 40)))
    (fun ops ->
      let s = Fset.create ~capacity:8 () in
      let model = ref Imodel.empty in
      let ok = ref true in
      let check b = ok := !ok && b in
      List.iter
        (fun (op, i) ->
          (* Fresh boxes each call: membership must be by content. *)
          let t = [| i land 7; i |] in
          let k = [ i land 7; i ] in
          match op with
          | 0 ->
            check (Fset.add s t = not (Imodel.mem k !model));
            model := Imodel.add k !model
          | 1 ->
            check (Fset.remove s t = Imodel.mem k !model);
            model := Imodel.remove k !model
          | _ -> check (Fset.mem s t = Imodel.mem k !model))
        ops;
      let elems =
        List.sort compare (List.map Array.to_list (Fset.elements s))
      in
      !ok
      && Fset.cardinal s = Imodel.cardinal !model
      && elems = Imodel.elements !model)

(* The compiled strand keeps its trigger and head, and its id heads
   over a delta batch are the boxed oracle's. *)
let test_ideval_execute_batch () =
  let p = Programs.with_links (Programs.path_vector ()) (Programs.ring_links 4) in
  let db = (Eval.run_exn p).Eval.db in
  let r2 = List.nth p.Ast.rules 1 in
  let strand = Plan.compile_strand r2 ~delta:1 in
  let istrand = Ideval.of_strand strand in
  checks "delta pred" "path" (Ideval.delta_pred istrand);
  checks "head pred" r2.Ast.head.Ast.head_pred (Ideval.head_pred istrand);
  checkb "head location" true (Ideval.head_loc istrand = Some 0);
  let deltas = Store.tuples "path" db in
  checkb "id heads = boxed heads" true
    (same_heads (strand_heads db strand deltas) (body_heads db r2 "path" deltas))

(* Random rules with complex atom arguments, all located on one node:
   atoms over the facts [e/3] and the derived [d/3] bind variables, and
   after some of them comes an atom over [u/2], [e/3] or [d/3] whose
   argument computes on variables bound so far, followed by further
   binding atoms.  Over [d] that atom is a delta position, so the
   executor's strands must name its complex argument.  Source order is safe; a planner that moved a complex atom
   ahead of its inputs would lose derivations.  Heads copy bare
   variables, so the fixpoint stays within the facts' values. *)
let gen_complex_rule : Ast.rule QCheck.Gen.t =
 fun rs ->
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let fresh = ref 0 and bound = ref [] in
  let var () =
    if !bound <> [] && Random.State.int rs 4 = 0 then Ast.var (pick !bound)
    else begin
      let x = Printf.sprintf "V%d" !fresh in
      incr fresh;
      bound := x :: !bound;
      Ast.var x
    end
  in
  let complex () =
    let x = Ast.var (pick !bound) and y = Ast.var (pick !bound) in
    pick [ Ast.(x +: y); Ast.Binop (Ast.Sub, x, y); Ast.(x +: cint 1) ]
  in
  let located p args = Ast.Pos (Ast.atom ~loc:0 p (Ast.var "N" :: args)) in
  let binder i =
    let x = var () in
    let y = var () in
    located (if i = 0 then "e" else pick [ "e"; "e"; "d" ]) [ x; y ]
  in
  (* A checker over the derived [d] is a delta position: its strand
     names the complex argument. *)
  let checker () =
    match Random.State.int rs 3 with
    | 0 -> located "u" [ complex () ]
    | k ->
      let c = complex () in
      located (if k = 1 then "e" else "d") [ c; var () ]
  in
  (* binders, each followed by a checker or not; at least one checker *)
  let n = 2 + Random.State.int rs 2 in
  let last_check = Random.State.int rs n in
  let body =
    List.concat
      (List.init n (fun i ->
           let b = binder i in
           if i = last_check then [ b; checker () ]
           else if i < last_check && Random.State.bool rs then [ b; checker () ]
           else [ b ]))
  in
  let x = pick !bound and y = pick !bound in
  Ast.rule
    (Ast.head ~loc:0 "d"
       (List.map (fun e -> Ast.Plain e) [ Ast.var "N"; Ast.var x; Ast.var y ]))
    body

let arb_complex_rules =
  let gen =
    QCheck.Gen.(
      let fact p args =
        Ast.fact ~loc:0 p (V.Addr "n0" :: List.map (fun i -> V.Int i) args)
      in
      triple
        (list_size (int_range 1 3) gen_complex_rule)
        (list_size (int_range 4 12) (list_repeat 2 (int_bound 2)))
        (list_size (int_range 3 7) (int_range (-2) 4))
      >|= fun (rules, es, us) ->
      (rules, List.map (fact "e") es @ List.map (fun u -> fact "u" [ u ]) us))
  in
  QCheck.make gen ~print:(fun (rules, facts) ->
      Fmt.str "%a" Ast.pp_program { Ast.empty_program with Ast.rules; facts })

(* Differential property against the independent oracle: semi-naive
   evaluation (the id-native executor behind [Eval.seminaive]) reaches
   the naive evaluator's fixpoint and convergence over random programs
   and topologies — path-vector, bounded distance-vector, link-state and
   reachability on random links, reachability and link-state on grids,
   bounded distance-vector on rings, each joined by random rules with
   complex atom arguments — with the join optimizations on or off. *)
let prop_ideval_equals_eval =
  QCheck.Test.make
    ~name:"semi-naive executor = naive oracle (db, convergence), any config"
    ~count:40
    QCheck.(
      pair
        (quad (int_range 0 6) (int_range 3 7) (int_range 0 3) bool)
        arb_complex_rules)
    (fun ((case, n, extra, optimized_joins), (rules, facts)) ->
      let random () = Programs.random_links ~seed:((23 * n) + extra) ~extra n in
      let grid () = Programs.grid_links (2 + (n mod 2)) in
      let prog, links =
        match case with
        | 0 -> (Programs.path_vector (), random ())
        | 1 -> (Programs.bounded_distance_vector ~max_hops:(n + 1), random ())
        | 2 -> (Programs.link_state ~max_hops:(n + 1), random ())
        | 3 -> (Programs.reachability (), random ())
        | 4 -> (Programs.reachability (), grid ())
        | 5 ->
          (Programs.bounded_distance_vector ~max_hops:n, Programs.ring_links n)
        | _ -> (Programs.link_state ~max_hops:4, grid ())
      in
      let p = Programs.with_links prog links in
      let p = { p with Ast.rules = p.Ast.rules @ rules; facts = p.Ast.facts @ facts } in
      let info = Analysis.analyze_exn p in
      let db = Store.of_facts p.Ast.facts in
      let naive = Eval.naive p info db in
      let semi = Eval.seminaive ~optimized_joins p info db in
      Store.equal naive.Eval.db semi.Eval.db
      && naive.Eval.converged = semi.Eval.converged)

(* Evaluator agreement as a fixed table, one named case per canonical
   program and topology: the naive evaluator (the independent oracle)
   and semi-naive evaluation (the id-native executor) reach the same
   converged fixpoint.  Each topology is (name, node count, links);
   costs vary per link. *)
let agreement_topologies =
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

let agreement_programs =
  [
    ("path-vector", fun _ -> Programs.path_vector ());
    ( "bounded-dv",
      fun n -> Programs.bounded_distance_vector ~max_hops:(n + 1) );
    ("reachability", fun _ -> Programs.reachability ());
    ("link-state", fun n -> Programs.link_state ~max_hops:(n + 1));
  ]

let evaluators_agree prog () =
  let info = Analysis.analyze_exn prog in
  let naive = Eval.naive prog info (Store.of_facts prog.Ast.facts) in
  let semi = Eval.run_exn prog in
  checkb "naive converged" true naive.Eval.converged;
  checkb "semi-naive converged" true semi.Eval.converged;
  checkb "naive = semi-naive fixpoint" true (Store.equal naive.Eval.db semi.Eval.db)

let agreement_cases =
  List.concat_map
    (fun (pname, prog) ->
      List.map
        (fun (tname, n, links) ->
          Alcotest.test_case (pname ^ " " ^ tname) `Quick
            (evaluators_agree (Programs.with_links (prog n) links)))
        agreement_topologies)
    agreement_programs

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ndlog"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "hash" `Quick test_value_hash_consistent;
          Alcotest.test_case "coercions" `Quick test_value_coerce;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "path functions" `Quick test_builtins_paths;
          Alcotest.test_case "errors" `Quick test_builtins_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "path-vector program" `Quick test_parse_path_vector;
          Alcotest.test_case "facts" `Quick test_parse_facts;
          Alcotest.test_case "round trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "negation" `Quick test_parse_negation;
          Alcotest.test_case "list literals" `Quick test_parse_list_literal;
          Alcotest.test_case "strings and escapes" `Quick
            test_parse_strings_and_escapes;
          Alcotest.test_case "negative ints" `Quick test_parse_negative_ints;
          Alcotest.test_case "lifetimes" `Quick test_parse_soft_lifetime;
          Alcotest.test_case "env errors" `Quick test_env_errors;
          Alcotest.test_case "value printing" `Quick test_value_pp_forms;
          Alcotest.test_case "canonical rules print and parse back" `Quick
            test_canonical_rules_reparse;
          QCheck_alcotest.to_alcotest prop_generated_rules_reparse;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "path-vector analyzes" `Quick test_safety_ok;
          Alcotest.test_case "unbound head" `Quick test_safety_unbound_head;
          Alcotest.test_case "unbound negation" `Quick
            test_safety_unbound_negation;
          Alcotest.test_case "no positive body atom" `Quick
            test_safety_no_positive_atom;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "stratification" `Quick test_stratification;
          Alcotest.test_case "unstratifiable" `Quick test_unstratifiable;
        ] );
      ( "eval",
        [
          Alcotest.test_case "line topology" `Quick test_eval_line;
          Alcotest.test_case "ring shortest" `Quick test_eval_ring_shortest;
          Alcotest.test_case "asymmetric costs" `Quick test_eval_asymmetric_costs;
          Alcotest.test_case "cycle check" `Quick test_eval_cycle_check;
          Alcotest.test_case "naive = semi-naive" `Quick
            test_naive_equals_seminaive;
          Alcotest.test_case "count to infinity" `Quick test_count_to_infinity;
          Alcotest.test_case "bounded dv converges" `Quick
            test_bounded_dv_converges;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "assignment as filter" `Quick
            test_eval_assign_checks;
          Alcotest.test_case "semi-naive from a fixpoint" `Quick
            test_seminaive_from_fixpoint;
          Alcotest.test_case "typed evaluation errors" `Quick
            test_eval_errors_typed;
          Alcotest.test_case "call arguments left to right" `Quick
            test_call_args_left_to_right;
          Alcotest.test_case "complex argument waits for its inputs" `Quick
            test_complex_arg_waits_for_inputs;
          Alcotest.test_case "complex argument on a delta atom" `Quick
            test_complex_arg_on_delta_atom;
          Alcotest.test_case "random links on one node" `Quick
            test_random_links_one_node;
          Alcotest.test_case "unknown builtin raises at call time" `Quick
            test_unknown_builtin_at_call_time;
        ]
        @ qsuite
            [
              prop_best_path_matches_floyd_warshall;
              prop_naive_equals_seminaive;
              prop_path_builtins_differential;
            ]
      );
      ( "link_state",
        [
          Alcotest.test_case "floods everywhere" `Quick
            test_link_state_floods_everywhere;
          Alcotest.test_case "routes" `Quick test_link_state_routes;
          Alcotest.test_case "equals path-vector" `Quick
            test_link_state_equals_path_vector;
          Alcotest.test_case "distributed" `Quick test_link_state_distributed;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic ops" `Quick test_store_ops;
          Alcotest.test_case "union/diff" `Quick test_store_union_diff;
          Alcotest.test_case "determinism" `Quick test_store_determinism;
        ]
        @ qsuite [ prop_store_invariants ] );
      ( "intern",
        [
          Alcotest.test_case "id stability" `Quick test_intern_id_stable;
          Alcotest.test_case "round trip" `Quick test_intern_roundtrip;
          Alcotest.test_case "bulk rejects unknown ids" `Quick
            test_intern_bulk_rejects;
          Alcotest.test_case "canonical order" `Quick test_intern_store_order;
          Alcotest.test_case "equal/hash across representations" `Quick
            test_intern_equal_hash_across_representations;
        ]
        @ qsuite [ prop_intern_hash_consing ] );
      ( "flat",
        [
          Alcotest.test_case "tuple id boundary" `Quick test_intern_tuple_ids;
          Alcotest.test_case "fset ops" `Quick test_fset_ops;
          Alcotest.test_case "fset compaction" `Quick test_fset_compaction;
          Alcotest.test_case "fset clear keeps a filled array" `Quick
            test_fset_clear_capacity;
          Alcotest.test_case "shared frozen empty relation" `Quick
            test_flat_shared_empty;
          Alcotest.test_case "journal net movement" `Quick test_flat_journal;
          Alcotest.test_case "flat db ops" `Quick test_flat_db_ops;
          Alcotest.test_case "id strand batch executor" `Quick
            test_ideval_execute_batch;
        ]
        @ qsuite [ prop_fset_model; prop_ideval_equals_eval ] );
      ("evaluator_agreement", agreement_cases);
      ( "index",
        [
          Alcotest.test_case "join planning" `Quick
            test_order_body_most_bound_first;
          Alcotest.test_case "stats" `Quick test_eval_stats_counted;
          Alcotest.test_case "per-run stats" `Quick test_eval_stats_per_run;
          Alcotest.test_case "aggregate fast path" `Quick test_agg_fast_path;
          Alcotest.test_case "executor config" `Quick test_executor_config;
          Alcotest.test_case "config is per call" `Quick test_config_is_per_call;
        ]
        @ qsuite [ prop_indexed_equals_nested_loop; prop_agg_over_joins ] );
      ( "batched",
        [
          Alcotest.test_case "group formation" `Quick test_group_formation;
          Alcotest.test_case "stats" `Quick test_batched_stats_counted;
          Alcotest.test_case "strand batch executor" `Quick test_execute_batch;
          Alcotest.test_case "decomposition" `Quick test_batched_decomposition;
          Alcotest.test_case "compiled strand reusable" `Quick
            test_strand_reusable;
        ]
        @ qsuite [ prop_batched_delta_join ] );
      ( "localize",
        [
          Alcotest.test_case "path-vector rewrite" `Quick
            test_localize_path_vector;
          Alcotest.test_case "semantics preserved" `Quick
            test_localize_preserves_semantics;
          Alcotest.test_case "local rules untouched" `Quick
            test_localize_idempotent_on_local;
        ] );
      ( "plan",
        [
          Alcotest.test_case "strand shape" `Quick test_plan_shapes;
          Alcotest.test_case "scan = eval" `Quick test_plan_scan_equals_eval;
          Alcotest.test_case "delta = eval" `Quick test_plan_delta_equals_eval;
          Alcotest.test_case "program strands" `Quick test_plan_program_strands;
          Alcotest.test_case "negation" `Quick test_plan_negation;
          Alcotest.test_case "rejects aggregates" `Quick
            test_plan_rejects_aggregates;
        ]
        @ qsuite [ prop_strands_cover_seminaive ] );
      ( "provenance",
        [
          Alcotest.test_case "base fact" `Quick test_provenance_fact;
          Alcotest.test_case "recursive path" `Quick
            test_provenance_recursive_path;
          Alcotest.test_case "aggregate witness" `Quick
            test_provenance_aggregate;
          Alcotest.test_case "absent tuple" `Quick test_provenance_absent_tuple;
          Alcotest.test_case "negation recorded" `Quick
            test_provenance_negation_recorded;
        ]
        @ qsuite [ prop_every_tuple_explainable ] );
      ( "softstate",
        [
          Alcotest.test_case "expiry table" `Quick test_expiry_table;
          Alcotest.test_case "hard-state rewrite runs" `Quick
            test_hard_state_rewrite_runs;
          Alcotest.test_case "hard-state rewrite expires" `Quick
            test_hard_state_rewrite_expires;
          Alcotest.test_case "fractional lifetime guard" `Quick
            test_fractional_lifetime_guard;
        ] );
    ]
