(* Bottom-up evaluation of NDlog programs over boxed stores.

   Two evaluators:
   - [seminaive] (and [run]): the one semi-naive executor, {!Ideval},
     behind a boxing boundary — the store is translated to flat id
     tuples ({!Flat.of_store}), evaluated, and materialized back
     ({!Flat.to_store}).  Every node of {!Dist.Runtime} runs the same
     executor, so the code that is tested is the code that runs.
   - [naive]: re-derives everything from the full database each round
     with the small boxed join core below, a nested loop over rule
     bodies in source order.  It shares neither planning nor execution
     code with {!Ideval}, which makes it the independent oracle of the
     differential tests.

   The boxed core's one-step pieces, [body_envs], [seeded_envs] and
   [head_tuple], also serve provenance and the model checker's
   transition systems, whose states are canonical boxed stores.

   Both evaluators respect the stratification computed by {!Analysis}:
   strata are evaluated bottom-up; aggregate rules of a stratum run once
   at stratum entry (their body predicates are strictly lower, hence
   complete); remaining rules run to fixpoint.  Evaluation is guarded by
   [max_rounds]; a program that fails to reach a fixpoint within the
   bound (e.g. distance-vector count-to-infinity) is reported as not
   converged rather than looping forever.

   There is no global mutable state: the executor's one switch,
   [optimized_joins], is a per-call argument, and each run owns its
   {!Plan.counters} (or adds into one the caller passes). *)

module Sset = Set.Make (String)

exception Eval_error = Plan.Eval_error

type stats = Plan.stats = {
  index_hits : int;
  scans : int;
  enumerated : int;
  matched : int;
  groups : int;
  delta_tuples : int;
  strata_skipped : int;
  strata_refolded : int;
  refresh_fallbacks : int;
}

type counters = Plan.counters

type outcome = {
  db : Store.t;
  rounds : int;  (* total fixpoint rounds across strata *)
  derivations : int;  (* head tuples produced, counting duplicates *)
  converged : bool;
  stats : stats;  (* join counters of this run *)
}

let zero_stats = Plan.zero_stats
let add_stats = Plan.add_stats

(* ------------------------------------------------------------------ *)
(* The boxed join core: a nested loop over whole relations, literals in
   the order given.  Analysis guarantees that source order binds every
   variable before a negation, comparison, assignment or complex
   argument reads it, so no planning is needed. *)

(* Enumerate all satisfying environments for [body] against [db] that
   extend [env], prepending to [acc]. *)
let rec join (db : Store.t) env (body : Ast.lit list) acc : Env.t list =
  match body with
  | [] -> env :: acc
  | Ast.Pos a :: rest ->
    Store.Tset.fold
      (fun tuple acc ->
        match Env.match_args env a.args tuple with
        | Some env' -> join db env' rest acc
        | None -> acc)
      (Store.relation a.pred db) acc
  | Ast.Neg a :: rest ->
    let tuple = Array.of_list (List.map (Env.eval env) a.args) in
    if Store.mem a.pred tuple db then acc else join db env rest acc
  | Ast.Assign (x, e) :: rest -> (
    let v = Env.eval env e in
    match Env.find_opt x env with
    | None -> join db (Env.bind x v env) rest acc
    | Some v' -> if Value.equal v v' then join db env rest acc else acc)
  | Ast.Cond (c, a, b) :: rest ->
    if Env.eval_cmp c (Env.eval env a) (Env.eval env b) then
      join db env rest acc
    else acc

let body_envs db body = join db Env.empty body []

(* The one-tuple delta join: bind [atom] to [tuple] first, then join
   [rest] through the same loop. *)
let seeded_envs db (atom : Ast.atom) tuple rest =
  match Env.match_args Env.empty atom.args tuple with
  | None -> []
  | Some env -> join db env rest []

(* Instantiate a plain (aggregate-free) head under [env]. *)
let head_tuple env (h : Ast.head) : Store.Tuple.t =
  Array.of_list
    (List.map
       (function
         | Ast.Plain e -> Env.eval env e
         | Ast.Agg _ -> raise (Eval_error "aggregate head in plain context"))
       h.head_args)

(* Aggregate group keys: plain head-argument values ([None] marks an
   aggregate position).  Compared with Value.compare so grouping uses
   the engine's value equality, never Stdlib.compare's independent
   structural notion. *)
module Kmap = Map.Make (struct
  type t = Value.t option list

  let compare_opt a b =
    match a, b with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> Value.compare x y

  let rec compare a b =
    match a, b with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: a', y :: b' ->
      let c = compare_opt x y in
      if c <> 0 then c else compare a' b'
end)

let agg_fold (a : Ast.agg) (vs : Value.t list) : Value.t =
  match a, vs with
  | _, [] -> raise (Eval_error "aggregate over empty group")
  | Ast.Min, v :: rest ->
    List.fold_left (fun m v -> if Value.compare v m < 0 then v else m) v rest
  | Ast.Max, v :: rest ->
    List.fold_left (fun m v -> if Value.compare v m > 0 then v else m) v rest
  | Ast.Count, vs -> Value.Int (List.length vs)
  | Ast.Sum, vs ->
    Value.Int (List.fold_left (fun acc v -> acc + Value.as_int v) 0 vs)

(* Evaluate an aggregate rule: group satisfying environments by the
   plain head arguments, fold the aggregate, emit one tuple per group. *)
let apply_agg_rule db (r : Ast.rule) : Store.Tuple.t list =
  let envs = body_envs db r.body in
  let groups =
    List.fold_left
      (fun groups env ->
        let key =
          List.map
            (function
              | Ast.Plain e -> Some (Env.eval env e)
              | Ast.Agg _ -> None)
            r.head.head_args
        in
        let aggvals =
          List.filter_map
            (function
              | Ast.Plain _ -> None
              | Ast.Agg (_, x) -> Some (Env.find x env))
            r.head.head_args
        in
        Kmap.update key
          (function
            | None -> Some [ aggvals ]
            | Some rows -> Some (aggvals :: rows))
          groups)
      Kmap.empty envs
  in
  Kmap.fold
    (fun key rows acc ->
      (* Recombine: plain positions from the key, aggregate positions
         folded over the collected column. *)
      let n_aggs = List.length (List.hd rows) in
      let columns =
        List.init n_aggs (fun i -> List.map (fun row -> List.nth row i) rows)
      in
      let rec build args key cols =
        match args, key with
        | [], [] -> []
        | Ast.Plain _ :: args', Some v :: key' -> v :: build args' key' cols
        | Ast.Agg (a, _) :: args', None :: key' -> (
          match cols with
          | col :: cols' -> agg_fold a col :: build args' key' cols'
          | [] -> raise (Eval_error "aggregate column mismatch"))
        | _ -> raise (Eval_error "aggregate head shape mismatch")
      in
      Array.of_list (build r.head.head_args key columns) :: acc)
    groups []

(* ------------------------------------------------------------------ *)
(* Naive evaluation: every round re-applies every plain rule of the
   stratum, in source order, to the whole database. *)

let eval_stratum_naive db stratum (p : Ast.program) ~max_rounds ~rounds
    ~count =
  let agg_rules, plain_rules =
    Plan.split_agg (Plan.rules_of_stratum p stratum)
  in
  let add_heads pred tuples db =
    List.fold_left
      (fun db t ->
        incr count;
        Store.add pred t db)
      db tuples
  in
  (* Aggregate rules see only lower strata: run them once. *)
  let db =
    List.fold_left
      (fun db (r : Ast.rule) ->
        add_heads r.head.head_pred (apply_agg_rule db r) db)
      db agg_rules
  in
  let rec loop db =
    if !rounds >= max_rounds then (db, false)
    else begin
      incr rounds;
      let derived =
        List.fold_left
          (fun acc (r : Ast.rule) ->
            add_heads r.head.head_pred
              (List.map (fun env -> head_tuple env r.head) (body_envs db r.body))
              acc)
          Store.empty plain_rules
      in
      let delta = Store.diff derived db in
      if Store.is_empty delta then (db, true)
      else loop (Store.union db delta)
    end
  in
  loop db

let naive ?(max_rounds = 10_000) (p : Ast.program) (info : Analysis.info)
    (db : Store.t) : outcome =
  let rounds = ref 0 and count = ref 0 in
  let db, converged =
    List.fold_left
      (fun (db, ok) stratum ->
        if not ok then (db, ok)
        else eval_stratum_naive db stratum p ~max_rounds ~rounds ~count)
      (db, true) info.Analysis.strata
  in
  { db; rounds = !rounds; derivations = !count; converged; stats = zero_stats }

(* ------------------------------------------------------------------ *)
(* Semi-naive evaluation: the id-native executor behind a boxing
   boundary. *)

let seminaive ?max_rounds ?stats ?optimized_joins (p : Ast.program)
    (info : Analysis.info) (db : Store.t) : outcome =
  let fdb = Flat.of_store db in
  let o = Ideval.seminaive ?max_rounds ?stats ?optimized_joins p info fdb in
  {
    db = Flat.to_store fdb;
    rounds = o.Ideval.rounds;
    derivations = o.Ideval.derivations;
    converged = o.Ideval.converged;
    stats = o.Ideval.stats;
  }

(* ------------------------------------------------------------------ *)
(* Refresh strata: the dependency analysis behind incremental view
   refresh.

   {!Analysis.strata} is as coarse as stratified semantics allows: a
   plain rule reading an aggregate head lands in the *same* stratum as
   the aggregate (the edge is non-strict).  For incremental maintenance
   that coarseness is costly — a stratum containing any aggregate must
   be recomputed from scratch whenever touched.  Refresh strata refine
   the relaxation with one extra strict edge: a dependency *on* an
   aggregate-defined predicate.  Aggregate heads then sit in strata of
   their own and their plain consumers land strictly above, where they
   can be maintained by seeded delta re-derivation.  The refinement
   respects {!Analysis.strata} (every strict edge there is strict
   here), so bottom-up evaluation per refresh stratum reaches the same
   fixpoint.

   Heads of one rank that no chain of non-strict edges connects do not
   read each other, so each connected component of a rank is a stratum
   of its own: a plain head and an aggregate head of one rank are then
   seeded and re-folded apart instead of recomputed together from
   scratch.  Components of one rank are independent, and are ordered by
   their least predicate name. *)

type refresh_stratum = {
  rs_preds : string list;  (* head predicates of this stratum, sorted *)
  rs_rules : Ast.rule list;  (* their rules, in program order *)
  rs_support : Sset.t;  (* transitive body predicates (incl. negated) *)
  rs_has_agg : bool;
  rs_has_neg : bool;
}

let refresh_strata (p : Ast.program) : refresh_stratum list =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Ast.rule) -> r.head.head_pred) p.rules)
  in
  let agg_defined =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (r : Ast.rule) ->
           if Ast.has_aggregate r.head then Some r.head.head_pred else None)
         p.rules)
  in
  let rules_of q =
    List.filter (fun (r : Ast.rule) -> r.head.head_pred = q) p.rules
  in
  let neg_preds (r : Ast.rule) =
    List.filter_map
      (function Ast.Neg a -> Some a.Ast.pred | _ -> None)
      r.body
  in
  let has_neg r = neg_preds r <> [] in
  (* Rank heads by relaxation; base predicates rank 0.  An edge
     head <- q is strict when the head is aggregated, q is negated in
     the rule, or q is aggregate-defined. *)
  let rank = Hashtbl.create 16 in
  let rank_of q = Option.value (Hashtbl.find_opt rank q) ~default:0 in
  let n = List.length heads in
  let limit = ((n + 2) * (n + 2)) + 2 in
  let iters = ref 0 in
  let changed = ref true in
  while !changed && !iters <= limit do
    changed := false;
    incr iters;
    List.iter
      (fun (r : Ast.rule) ->
        let h = r.head.head_pred in
        let negs = neg_preds r in
        List.iter
          (fun q ->
            let strict =
              Ast.has_aggregate r.head || List.mem q negs
              || List.mem q agg_defined
            in
            let lo = rank_of q + if strict then 1 else 0 in
            if rank_of h < lo then begin
              Hashtbl.replace rank h lo;
              changed := true
            end)
          (Ast.body_preds r.body))
      p.rules
  done;
  let support_of rules =
    let direct rs =
      List.concat_map (fun (r : Ast.rule) -> Ast.body_preds r.body) rs
    in
    let rec close seen = function
      | [] -> seen
      | q :: rest ->
        if Sset.mem q seen then close seen rest
        else close (Sset.add q seen) (direct (rules_of q) @ rest)
    in
    close Sset.empty (direct rules)
  in
  let group ranked_heads =
    List.map
      (fun (_, preds) ->
        let rules =
          List.filter
            (fun (r : Ast.rule) -> List.mem r.head.head_pred preds)
            p.rules
        in
        {
          rs_preds = preds;
          rs_rules = rules;
          rs_support = support_of rules;
          rs_has_agg =
            List.exists (fun (r : Ast.rule) -> Ast.has_aggregate r.head) rules;
          rs_has_neg = List.exists has_neg rules;
        })
      ranked_heads
  in
  if !changed then
    (* The extra strict edges closed a cycle the ordinary stratification
       tolerates (plain mutual recursion through an aggregate-defined
       predicate).  Collapse to one stratum: always recomputed from
       scratch when touched — correct, just never incremental. *)
    group [ (0, heads) ]
  else
    let module Imap = Map.Make (Int) in
    let by_rank =
      List.fold_left
        (fun m h ->
          Imap.update (rank_of h)
            (function Some l -> Some (h :: l) | None -> Some [ h ])
            m)
        Imap.empty heads
    in
    (* Union-find over the heads, joined along non-strict edges: a body
       predicate that is a head of the same rank. *)
    let parent = Hashtbl.create 16 in
    let rec root h =
      match Hashtbl.find_opt parent h with
      | Some p when p <> h -> root p
      | _ -> h
    in
    List.iter
      (fun (r : Ast.rule) ->
        let h = r.head.head_pred in
        List.iter
          (fun q ->
            if List.mem q heads && rank_of q = rank_of h then begin
              let a = root h and b = root q in
              if a <> b then Hashtbl.replace parent (max a b) (min a b)
            end)
          (Ast.body_preds r.body))
      p.rules;
    let components preds =
      let roots = List.sort_uniq String.compare (List.map root preds) in
      List.map
        (fun rt -> List.filter (fun h -> root h = rt) preds)
        roots
      |> List.sort compare
    in
    group
      (Imap.fold
         (fun r preds acc ->
           List.rev_map (fun c -> (r, c))
             (components (List.sort String.compare preds))
           @ acc)
         by_rank []
      |> List.rev)

(* ------------------------------------------------------------------ *)
(* Entry points. *)

(* Analyze and evaluate a self-contained program (facts included). *)
let run ?max_rounds ?(extra_facts = []) (p : Ast.program) :
    (outcome, Analysis.error) result =
  match Analysis.analyze p with
  | Error e -> Error e
  | Ok info ->
    let db = Store.of_facts (p.facts @ extra_facts) in
    Ok (seminaive ?max_rounds p info db)

let run_exn ?max_rounds ?extra_facts p =
  match run ?max_rounds ?extra_facts p with
  | Ok o -> o
  | Error e -> invalid_arg (Fmt.str "NDlog evaluation failed: %a" Analysis.pp_error e)
