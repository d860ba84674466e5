(* Static analysis of NDlog programs: schema extraction, range
   restriction (safety), and stratification with respect to negation and
   aggregation.

   Safety here is the usual Datalog discipline extended with assignments:
   a body has a positive atom (a rule fires on a body tuple, as in P2);
   scanning it left to right, a positive atom binds its bare variable
   arguments; an assignment [X = e] binds [X] provided every variable of
   [e] is already bound; negated atoms, comparisons, complex arguments,
   and the head must use only bound variables. *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

type error =
  | Unsafe_rule of Ast.rule * string
  | Arity_mismatch of string * int * int  (* pred, seen, expected *)
  | Unstratifiable of string list  (* a negation/aggregation cycle *)
  | Builtin_arity of Ast.rule * string * int * int
      (* rule, function, arguments given, arity *)

let pp_error ppf = function
  | Unsafe_rule (r, msg) -> Fmt.pf ppf "unsafe rule %a: %s" Ast.pp_rule r msg
  | Arity_mismatch (p, seen, expected) ->
    Fmt.pf ppf "predicate %s used with arity %d but declared/used with %d" p
      seen expected
  | Unstratifiable cycle ->
    Fmt.pf ppf "program is not stratifiable: negation/aggregation cycle %a"
      Fmt.(list ~sep:(any " -> ") string)
      cycle
  | Builtin_arity (r, f, given, arity) ->
    Fmt.pf ppf "rule %a: builtin %s takes %d arguments, given %d" Ast.pp_rule
      r f arity given

(* ------------------------------------------------------------------ *)
(* Schema: predicate -> arity, collected from declarations, facts, and
   rule occurrences; inconsistencies are errors. *)

let schema (p : Ast.program) : (int Smap.t, error) result =
  let add pred arity m =
    match Smap.find_opt pred m with
    | None -> Ok (Smap.add pred arity m)
    | Some a when a = arity -> Ok m
    | Some a -> Error (Arity_mismatch (pred, arity, a))
  in
  let ( >>= ) r f = Result.bind r f in
  let from_facts m =
    List.fold_left
      (fun acc (f : Ast.fact) ->
        acc >>= add f.fact_pred (List.length f.fact_args))
      (Ok m) p.facts
  in
  let from_rules m =
    List.fold_left
      (fun acc (r : Ast.rule) ->
        let acc = acc >>= add r.head.head_pred (Ast.head_arity r.head) in
        List.fold_left
          (fun acc (a : Ast.atom) -> acc >>= add a.pred (List.length a.args))
          acc
          (Ast.body_atoms r.body))
      (Ok m) p.rules
  in
  from_facts Smap.empty >>= fun m -> from_rules m

(* ------------------------------------------------------------------ *)
(* Safety. *)

(* A builtin call given the wrong number of arguments, as (function,
   given, arity). *)
let rec bad_call (e : Ast.expr) =
  match e with
  | Ast.Var _ | Ast.Const _ -> None
  | Ast.Binop (_, a, b) -> List.find_map bad_call [ a; b ]
  | Ast.Call (f, args) -> (
    match Builtins.arity f with
    | Some k when k <> List.length args -> Some (f, List.length args, k)
    | _ -> List.find_map bad_call args)

let rule_exprs (r : Ast.rule) =
  List.concat_map
    (function
      | Ast.Pos a | Ast.Neg a -> a.Ast.args
      | Ast.Assign (_, e) -> [ e ]
      | Ast.Cond (_, a, b) -> [ a; b ])
    r.body
  @ List.filter_map
      (function Ast.Plain e -> Some e | Ast.Agg _ -> None)
      r.head.Ast.head_args

let check_rule_safety (r : Ast.rule) : (unit, error) result =
  match List.find_map bad_call (rule_exprs r) with
  | Some (f, given, arity) -> Error (Builtin_arity (r, f, given, arity))
  | None when not (List.exists (function Ast.Pos _ -> true | _ -> false) r.body)
    ->
    Error (Unsafe_rule (r, "body has no positive atom"))
  | None ->
  let module S = Sset in
  let exception Unsafe of string in
  let bound_expr bound e = S.subset (Ast.vars_of_expr S.empty e) bound in
  let bind_atom bound (a : Ast.atom) =
    (* Bare variables bind; complex arguments must already be bound. *)
    List.fold_left
      (fun bound (arg : Ast.expr) ->
        match arg with
        | Ast.Var x -> S.add x bound
        | e ->
          if bound_expr bound e then bound
          else
            raise
              (Unsafe
                 (Fmt.str "argument %a uses unbound variables" Ast.pp_expr e)))
      bound a.args
  in
  try
    let bound =
      List.fold_left
        (fun bound lit ->
          match lit with
          | Ast.Pos a -> bind_atom bound a
          | Ast.Neg a ->
            if
              S.subset (Ast.vars_of_lit S.empty lit) bound
            then bound
            else
              raise
                (Unsafe
                   (Fmt.str "negated atom %a uses unbound variables" Ast.pp_atom
                      a))
          | Ast.Assign (x, e) ->
            if bound_expr bound e then S.add x bound
            else
              raise
                (Unsafe
                   (Fmt.str "assignment to %s uses unbound variables" x))
          | Ast.Cond (_, a, b) ->
            if bound_expr bound a && bound_expr bound b then bound
            else raise (Unsafe "comparison uses unbound variables"))
        S.empty r.body
    in
    let head_vars = Ast.vars_of_head S.empty r.head in
    if S.subset head_vars bound then Ok ()
    else
      let missing = S.elements (S.diff head_vars bound) in
      Error
        (Unsafe_rule
           (r, Fmt.str "head variables not bound by body: %a"
                 Fmt.(list ~sep:(any ", ") string)
                 missing))
  with Unsafe msg -> Error (Unsafe_rule (r, msg))

let check_safety (p : Ast.program) : (unit, error) result =
  List.fold_left
    (fun acc r -> Result.bind acc (fun () -> check_rule_safety r))
    (Ok ()) p.rules

(* ------------------------------------------------------------------ *)
(* Dependency graph and stratification.

   Edge head <- body_pred, labelled "strict" when the body predicate
   appears under negation or the head carries an aggregate (aggregation
   must see the complete lower relation before folding). *)

type dep = { dep_on : string; strict : bool }

let dependencies (p : Ast.program) : dep list Smap.t =
  List.fold_left
    (fun m (r : Ast.rule) ->
      let aggregated = Ast.has_aggregate r.head in
      let deps =
        List.filter_map
          (function
            | Ast.Pos a -> Some { dep_on = a.pred; strict = aggregated }
            | Ast.Neg a -> Some { dep_on = a.pred; strict = true }
            | Ast.Assign _ | Ast.Cond _ -> None)
          r.body
      in
      Smap.update r.head.head_pred
        (function None -> Some deps | Some old -> Some (deps @ old))
        m)
    Smap.empty p.rules

(* Stratification by iterated relaxation: stratum(p) >= stratum(q) for
   plain deps, stratum(p) >= stratum(q)+1 for strict deps.  Divergence
   beyond the predicate count signals a strict cycle. *)
let stratify (p : Ast.program) : (string list list, error) result =
  let deps = dependencies p in
  let all_preds =
    let s = ref Sset.empty in
    Smap.iter
      (fun h ds ->
        s := Sset.add h !s;
        List.iter (fun d -> s := Sset.add d.dep_on !s) ds)
      deps;
    List.iter (fun (f : Ast.fact) -> s := Sset.add f.fact_pred !s) p.facts;
    List.iter
      (fun (d : Ast.decl) -> s := Sset.add d.decl_pred !s)
      p.decls;
    Sset.elements !s
  in
  let n = List.length all_preds in
  let stratum = Hashtbl.create 16 in
  List.iter (fun pred -> Hashtbl.replace stratum pred 0) all_preds;
  let changed = ref true in
  let rounds = ref 0 in
  let get pred = try Hashtbl.find stratum pred with Not_found -> 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    Smap.iter
      (fun h ds ->
        List.iter
          (fun d ->
            let need = get d.dep_on + if d.strict then 1 else 0 in
            if get h < need then begin
              Hashtbl.replace stratum h need;
              changed := true
            end)
          ds)
      deps
  done;
  if !changed then
    (* Find one offending strict cycle member set for the error report. *)
    let over =
      List.filter (fun pred -> get pred > n) all_preds
    in
    Error (Unstratifiable over)
  else
    let max_stratum = List.fold_left (fun m pr -> max m (get pr)) 0 all_preds in
    let strata =
      List.init (max_stratum + 1) (fun i ->
          List.filter (fun pred -> get pred = i) all_preds)
    in
    Ok (List.filter (fun l -> l <> []) strata)

(* ------------------------------------------------------------------ *)
(* Full analysis: schema, safety, strata, plus derived metadata used by
   the evaluators. *)

type info = {
  arities : int Smap.t;
  strata : string list list;
  (* Predicates with no defining rule (pure input relations). *)
  base_preds : string list;
  (* Predicates defined by at least one rule. *)
  derived_preds : string list;
  lifetimes : Ast.lifetime Smap.t;
}

let analyze (p : Ast.program) : (info, error) result =
  let ( >>= ) r f = Result.bind r f in
  schema p >>= fun arities ->
  check_safety p >>= fun () ->
  stratify p >>= fun strata ->
  let derived =
    List.sort_uniq String.compare
      (List.map (fun (r : Ast.rule) -> r.head.head_pred) p.rules)
  in
  let base =
    Smap.bindings arities
    |> List.map fst
    |> List.filter (fun pred -> not (List.mem pred derived))
  in
  let lifetimes =
    List.fold_left
      (fun m (d : Ast.decl) -> Smap.add d.decl_pred d.decl_lifetime m)
      Smap.empty p.decls
  in
  Ok
    {
      arities;
      strata;
      base_preds = base;
      derived_preds = derived;
      lifetimes;
    }

let analyze_exn p =
  match analyze p with
  | Ok info -> info
  | Error e -> invalid_arg (Fmt.str "NDlog analysis failed: %a" pp_error e)
