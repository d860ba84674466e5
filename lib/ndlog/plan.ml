(* Join planning, run counters, and rule strands.

   Everything here is pure planning: nothing executes a join.  The one
   semi-naive executor ({!Ideval}) runs rule bodies only as strands of
   [compile_strand], the one compiler of rule bodies: every executor
   round (the first enters each rule at its [entry_atom]),
   {!Dist.Runtime}'s strands and view refresh, and the model checker's
   successor step all run its strands, and {!Ideval} decomposes each
   with [group_vars] / [group_cols] / [split_shared].  The boxed naive
   oracle, {!Eval.naive}, joins in source order and plans nothing.

   The paper (Section 2.2): "Declarative networking programs are
   compiled into distributed execution plans that are based on the Click
   execution model."  Strand compilation performs that compilation:
   each rule becomes one *strand* per delta position — a linear
   pipeline of relational operators through which an environment
   stream flows:

     delta(path) -> join(link) -> assign(C) -> select(...) -> project(head)

   The distributed runtime's reaction to a tuple insertion is the
   execution of all strands whose delta predicate matches. *)

exception Eval_error of string

(* ------------------------------------------------------------------ *)
(* Run counters. *)

type stats = {
  index_hits : int;  (* joins answered from a secondary index *)
  scans : int;  (* joins answered by a full relation scan *)
  enumerated : int;  (* candidate tuples visited by joins *)
  matched : int;  (* candidates that unified with the pattern *)
  groups : int;  (* delta groups formed by the batched join *)
  delta_tuples : int;  (* delta tuples fed through delta joins *)
  strata_skipped : int;  (* view strata skipped by dirty tracking *)
  strata_refolded : int;  (* aggregate strata re-folded group by group *)
  refresh_fallbacks : int;  (* touched strata recomputed from scratch *)
}

let zero_stats =
  {
    index_hits = 0;
    scans = 0;
    enumerated = 0;
    matched = 0;
    groups = 0;
    delta_tuples = 0;
    strata_skipped = 0;
    strata_refolded = 0;
    refresh_fallbacks = 0;
  }

let add_stats a b =
  {
    index_hits = a.index_hits + b.index_hits;
    scans = a.scans + b.scans;
    enumerated = a.enumerated + b.enumerated;
    matched = a.matched + b.matched;
    groups = a.groups + b.groups;
    delta_tuples = a.delta_tuples + b.delta_tuples;
    strata_skipped = a.strata_skipped + b.strata_skipped;
    strata_refolded = a.strata_refolded + b.strata_refolded;
    refresh_fallbacks = a.refresh_fallbacks + b.refresh_fallbacks;
  }

(* A mutable accumulator for one evaluation run.  Each run owns its own
   record, so counts never bleed between runs. *)
type counters = {
  mutable c_index_hits : int;
  mutable c_scans : int;
  mutable c_enumerated : int;
  mutable c_matched : int;
  mutable c_groups : int;
  mutable c_delta_tuples : int;
  mutable c_strata_skipped : int;
  mutable c_strata_refolded : int;
  mutable c_refresh_fallbacks : int;
}

let counters () =
  {
    c_index_hits = 0;
    c_scans = 0;
    c_enumerated = 0;
    c_matched = 0;
    c_groups = 0;
    c_delta_tuples = 0;
    c_strata_skipped = 0;
    c_strata_refolded = 0;
    c_refresh_fallbacks = 0;
  }

let snapshot c =
  {
    index_hits = c.c_index_hits;
    scans = c.c_scans;
    enumerated = c.c_enumerated;
    matched = c.c_matched;
    groups = c.c_groups;
    delta_tuples = c.c_delta_tuples;
    strata_skipped = c.c_strata_skipped;
    strata_refolded = c.c_strata_refolded;
    refresh_fallbacks = c.c_refresh_fallbacks;
  }

let accumulate c (s : stats) =
  c.c_index_hits <- c.c_index_hits + s.index_hits;
  c.c_scans <- c.c_scans + s.scans;
  c.c_enumerated <- c.c_enumerated + s.enumerated;
  c.c_matched <- c.c_matched + s.matched;
  c.c_groups <- c.c_groups + s.groups;
  c.c_delta_tuples <- c.c_delta_tuples + s.delta_tuples;
  c.c_strata_skipped <- c.c_strata_skipped + s.strata_skipped;
  c.c_strata_refolded <- c.c_strata_refolded + s.strata_refolded;
  c.c_refresh_fallbacks <- c.c_refresh_fallbacks + s.refresh_fallbacks

let note_strata_skipped c n = c.c_strata_skipped <- c.c_strata_skipped + n
let note_stratum_refolded c = c.c_strata_refolded <- c.c_strata_refolded + 1
let note_refresh_fallback c = c.c_refresh_fallbacks <- c.c_refresh_fallbacks + 1

(* ------------------------------------------------------------------ *)
(* Join planning: greedy most-bound-first literal ordering.

   Reordering preserves the satisfying-environment set: positive atoms
   constrain the same variables whether they bind or filter, and a
   literal is only scheduled once every variable it *needs* (negated
   atoms, comparisons, assignment right-hand sides, complex atom
   arguments) is bound.  For any safe rule the earliest remaining
   literal in source order is always eligible — everything before it
   has already run — so the scheduler is total. *)

let lit_vars (l : Ast.lit) : Ast.Sset.t = Ast.vars_of_lit Ast.Sset.empty l

(* A positive atom binds its bare variables; a complex argument only
   matches once its variables are bound, by earlier literals or by bare
   variables to its left (as {!Env.match_args} runs). *)
let needs_of (l : Ast.lit) : Ast.Sset.t =
  match l with
  | Ast.Pos a ->
    snd
      (List.fold_left
         (fun (binds, needs) (e : Ast.expr) ->
           match e with
           | Ast.Var x -> (Ast.Sset.add x binds, needs)
           | Ast.Const _ -> (binds, needs)
           | e ->
             let vs = Ast.vars_of_expr Ast.Sset.empty e in
             (binds, Ast.Sset.union needs (Ast.Sset.diff vs binds)))
         (Ast.Sset.empty, Ast.Sset.empty) a.Ast.args)
  | Ast.Neg a -> Ast.vars_of_atom Ast.Sset.empty a
  | Ast.Cond (_, e1, e2) ->
    Ast.vars_of_expr (Ast.vars_of_expr Ast.Sset.empty e1) e2
  | Ast.Assign (_, e) -> Ast.vars_of_expr Ast.Sset.empty e

(* How many argument positions of a positive atom are ground once the
   variables in [bound] are: bare bound variables and constants. *)
let boundness bound (a : Ast.atom) : int =
  List.fold_left
    (fun n (e : Ast.expr) ->
      match e with
      | Ast.Const _ -> n + 1
      | Ast.Var x when Ast.Sset.mem x bound -> n + 1
      | _ -> n)
    0 a.Ast.args

(* The body literals with their source indexes, in evaluation order:
   cheap filters (assignments, comparisons, negations) run as soon as
   their inputs are bound; positive atoms are scheduled
   most-bound-first, ties broken by source order.  [bound] seeds the
   variable set (e.g. the variables a delta literal binds). *)
let schedule ~bound (body : Ast.lit list) :
    (int * Ast.lit) list =
  let rank bound (l : Ast.lit) =
    (* Lower ranks first; eligibility already checked. *)
    match l with
    | Ast.Assign _ -> (0, 0)
    | Ast.Cond _ -> (1, 0)
    | Ast.Neg _ -> (2, 0)
    | Ast.Pos a -> (3, List.length a.Ast.args - boundness bound a)
  in
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let eligible =
        List.filter
          (fun (_, l) -> Ast.Sset.subset (needs_of l) bound)
          remaining
      in
      let pick =
        match eligible with
        | [] -> List.hd remaining  (* unsafe rule: fall back to source order *)
        | e :: es ->
          (* Source order is preserved by [filter], so ties keep the
             earliest literal. *)
          List.fold_left
            (fun ((_, bl) as best) ((_, l) as cand) ->
              if Stdlib.compare (rank bound l) (rank bound bl) < 0 then cand
              else best)
            e es
      in
      let i, l = pick in
      let remaining = List.filter (fun (j, _) -> j <> i) remaining in
      go (Ast.Sset.union bound (lit_vars l)) remaining (pick :: acc)
  in
  go bound (List.mapi (fun i l -> (i, l)) body) []

(* [body] in evaluation order ([schedule]); with [optimized_joins] off
   it keeps its source order. *)
let order_body ?(optimized_joins = true) ?(bound = Ast.Sset.empty)
    (body : Ast.lit list) : Ast.lit list =
  if not optimized_joins then body
  else List.map snd (schedule ~bound body)

(* The variables a positive atom binds when it is evaluated first (its
   bare variable arguments). *)
let atom_binds (a : Ast.atom) : Ast.Sset.t =
  List.fold_left
    (fun s (e : Ast.expr) ->
      match e with Ast.Var x -> Ast.Sset.add x s | _ -> s)
    Ast.Sset.empty a.Ast.args

(* ------------------------------------------------------------------ *)
(* Batched delta decomposition.

   A per-tuple semi-naive schedule would seed one environment per
   delta tuple and replay the whole rest of the body — index probes
   included — per tuple.  The executor's one schedule instead groups
   the round's delta by the columns the rest of the body actually reads
   ([group_vars]), and per group runs the probing part of the body once
   from the group key alone ([split_shared]); each delta tuple then
   only pays a pattern match plus the residual filters.  The
   satisfying-environment set is order-independent for safe rules, so
   this derives exactly the head tuples a per-tuple replay would, the
   same number of times.

   Group-variable choice: a shared positive atom's probe is exactly as
   ground as in a per-tuple replay, because every delta variable a rest
   positive atom reads is a group variable (bound from the key).
   Literals that would need other delta variables bind nothing
   (negations, comparisons) and defer to the per-tuple phase freely; an
   assignment defers only when that cannot change a later literal's
   view of its target, otherwise the shared phase stops there. *)

(* Variables of the delta atom that the rest of the body's positive
   atoms read.  Binding them per group makes every shared-phase index
   probe exactly as ground as a per-tuple replay's. *)
let group_vars (delta_atom : Ast.atom) (rest : Ast.lit list) : Ast.Sset.t =
  let pos_vars =
    List.fold_left
      (fun s l ->
        match l with Ast.Pos a -> Ast.vars_of_atom s a | _ -> s)
      Ast.Sset.empty rest
  in
  Ast.Sset.inter (atom_binds delta_atom) pos_vars

(* The delta-atom argument columns carrying the group variables: the
   first bare occurrence of each, in ascending column order.  [] (group
   variables exhausted or none) degenerates to a single whole-delta
   group. *)
let group_cols (delta_atom : Ast.atom) (gvars : Ast.Sset.t) :
    (int * string) list =
  let rec go i seen = function
    | [] -> []
    | Ast.Var x :: rest
      when Ast.Sset.mem x gvars && not (Ast.Sset.mem x seen) ->
      (i, x) :: go (i + 1) (Ast.Sset.add x seen) rest
    | _ :: rest -> go (i + 1) seen rest
  in
  go 0 Ast.Sset.empty delta_atom.Ast.args

(* Split the ordered rest body into a [shared] phase evaluable once per
   group (from the group-key bindings alone) and the [per_tuple]
   remainder.  Positive atoms always run shared (their delta-variable
   reads are group variables by construction).  Negations and
   comparisons whose inputs are not yet bound defer freely: they bind
   nothing, so deferring cannot change any later literal's bindings.
   An unschedulable assignment defers only when its target is already
   bound or read by no later literal; otherwise the shared phase stops
   — everything from there on runs per tuple, where the full delta
   bindings restore a per-tuple replay's exact probes. *)
let split_shared gvars (ordered : Ast.lit list) : Ast.lit list * Ast.lit list
    =
  let rec go bound shared deferred = function
    | [] -> (List.rev shared, List.rev deferred)
    | l :: rest ->
      if Ast.Sset.subset (needs_of l) bound then
        go (Ast.Sset.union bound (lit_vars l)) (l :: shared) deferred rest
      else (
        match l with
        | Ast.Neg _ | Ast.Cond _ -> go bound shared (l :: deferred) rest
        | Ast.Assign (x, _)
          when Ast.Sset.mem x bound
               || not
                    (List.exists
                       (fun l' -> Ast.Sset.mem x (needs_of l'))
                       rest) ->
          go bound shared (l :: deferred) rest
        | _ -> (List.rev shared, List.rev_append deferred (l :: rest)))
  in
  go gvars [] [] ordered

let rules_of_stratum (p : Ast.program) stratum =
  List.filter (fun (r : Ast.rule) -> List.mem r.head.head_pred stratum) p.rules

let split_agg rules =
  List.partition (fun (r : Ast.rule) -> Ast.has_aggregate r.head) rules

(* ------------------------------------------------------------------ *)
(* Re-fold aggregate shape. *)

type agg_slot =
  | Group of int  (* plain head argument: value of this body column *)
  | Fold of Ast.agg * int  (* aggregate over this body column *)

(* The re-fold shape of an aggregate rule: a single positive body atom
   whose arguments are distinct bare variables, every head argument a
   bare variable of the atom.  Such a rule yields one head per group of
   the relation on the plain-argument columns, so a group's head can be
   re-folded from that group alone ({!Ideval.refold_stratum}). *)
let agg_index_shape (r : Ast.rule) : (Ast.atom * agg_slot list) option =
  match r.body with
  | [ Ast.Pos a ] ->
    let distinct_bare =
      let rec go seen = function
        | [] -> true
        | Ast.Var x :: rest ->
          (not (Ast.Sset.mem x seen)) && go (Ast.Sset.add x seen) rest
        | _ -> false
      in
      go Ast.Sset.empty a.args
    in
    if not distinct_bare then None
    else
      let pos_of x =
        let rec go i = function
          | [] -> None
          | Ast.Var y :: _ when y = x -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 a.args
      in
      let slot = function
        | Ast.Plain (Ast.Var x) -> Option.map (fun i -> Group i) (pos_of x)
        | Ast.Agg (agg, x) -> Option.map (fun i -> Fold (agg, i)) (pos_of x)
        | Ast.Plain _ -> None
      in
      let slots = List.map slot r.head.head_args in
      (* [Option.get] is guarded: the [exists is_none] check just
         above guarantees every slot is [Some]. *)
      if List.exists Option.is_none slots then None
      else Some (a, List.map Option.get slots)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Strands. *)

type op =
  | Delta of { pred : string; args : Ast.expr list }
      (* bind the triggering tuple (strand head) *)
  | Join of { pred : string; args : Ast.expr list }
      (* join the stream against a stored relation *)
  | Anti_join of { pred : string; args : Ast.expr list }
      (* negation: keep environments with no matching tuple *)
  | Bind of string * Ast.expr  (* assignment *)
  | Filter of Ast.cmp * Ast.expr * Ast.expr  (* comparison *)
  | Project of Ast.head  (* emit the head tuple *)

type strand = {
  strand_rule : Ast.rule;
  delta : Ast.atom;  (* the triggering body atom *)
  rest : Ast.lit list;  (* the other body literals, join-planned *)
}

exception Plan_error of string

let op_of_lit (l : Ast.lit) : op =
  match l with
  | Ast.Pos a -> Join { pred = a.Ast.pred; args = a.Ast.args }
  | Ast.Neg a -> Anti_join { pred = a.Ast.pred; args = a.Ast.args }
  | Ast.Assign (x, e) -> Bind (x, e)
  | Ast.Cond (c, a, b) -> Filter (c, a, b)

(* Complex arguments of a delta atom as fresh variables plus equality
   conditions: matched in place, a complex argument would need its
   variables bound before anything else ran, while a condition is
   planned like any filter.  The fresh names ([%0], [%1], ...) cannot
   clash with parsed variables. *)
let name_complex_args (a : Ast.atom) : Ast.atom * Ast.lit list =
  let conds = ref [] in
  let name (e : Ast.expr) =
    match e with
    | Ast.Var _ | Ast.Const _ -> e
    | e ->
      let x = Printf.sprintf "%%%d" (List.length !conds) in
      conds := Ast.Cond (Ast.Eq, Ast.Var x, e) :: !conds;
      Ast.Var x
  in
  let args = List.map name a.Ast.args in
  ({ a with Ast.args }, List.rev !conds)

(* Compile one strand of [rule], with the body literal at [delta]
   (which must be a positive atom) as the triggering source.  The delta
   atom, its complex arguments named, moves to the front and their
   conditions take its place; the rest is join-planned most-bound-first
   under the variables the delta binds ([order_body], which preserves
   a safe rule's satisfying environments), or kept in source order with
   [optimized_joins] off. *)
let compile_strand ?optimized_joins (rule : Ast.rule) ~(delta : int) : strand =
  if Ast.has_aggregate rule.Ast.head then
    raise (Plan_error "aggregate rules are not strand-compiled");
  let delta_atom, conds =
    match List.nth_opt rule.Ast.body delta with
    | Some (Ast.Pos a) -> name_complex_args a
    | Some _ -> raise (Plan_error "delta position is not a positive atom")
    | None -> raise (Plan_error "delta position out of range")
  in
  {
    strand_rule = rule;
    delta = delta_atom;
    rest =
      List.concat
        (List.mapi
           (fun i l -> if i = delta then conds else [ l ])
           rule.Ast.body)
      |> order_body ?optimized_joins ~bound:(atom_binds delta_atom);
  }

(* The index of the positive atom [schedule] runs first when nothing is
   bound (source order with [optimized_joins] off): the atom a rule is
   entered at when its whole body runs, the relation as one batch. *)
let entry_atom ?(optimized_joins = true) (rule : Ast.rule) : int =
  let body = rule.Ast.body in
  match
    List.find_opt
      (function _, Ast.Pos _ -> true | _ -> false)
      (if optimized_joins then schedule ~bound:Ast.Sset.empty body
       else List.mapi (fun i l -> (i, l)) body)
  with
  | Some (i, _) -> i
  | None -> raise (Plan_error "rule body has no positive atom")

let ops (s : strand) : op list =
  (Delta { pred = s.delta.Ast.pred; args = s.delta.Ast.args }
  :: List.map op_of_lit s.rest)
  @ [ Project s.strand_rule.Ast.head ]

(* All strands of a program: one per (rule, positive body literal). *)
let compile_program (p : Ast.program) : strand list =
  List.concat_map
    (fun (r : Ast.rule) ->
      if Ast.has_aggregate r.Ast.head then []
      else
        List.concat
          (List.mapi
             (fun i lit ->
               match lit with
               | Ast.Pos _ -> [ compile_strand r ~delta:i ]
               | _ -> [])
             r.Ast.body))
    p.Ast.rules

(* ------------------------------------------------------------------ *)
(* Pretty-printing (the strand diagrams P2 logs). *)

let pp_op ppf = function
  | Delta { pred; _ } -> Fmt.pf ppf "delta(%s)" pred
  | Join { pred; _ } -> Fmt.pf ppf "join(%s)" pred
  | Anti_join { pred; _ } -> Fmt.pf ppf "antijoin(%s)" pred
  | Bind (x, e) -> Fmt.pf ppf "bind(%s := %a)" x Ast.pp_expr e
  | Filter (c, a, b) ->
    Fmt.pf ppf "filter(%a %s %a)" Ast.pp_expr a (Ast.string_of_cmp c)
      Ast.pp_expr b
  | Project h -> Fmt.pf ppf "project(%s)" h.Ast.head_pred

let pp ppf (s : strand) =
  let name =
    match s.strand_rule.Ast.rule_name with Some n -> n | None -> "rule"
  in
  Fmt.pf ppf "%s: %a" name Fmt.(list ~sep:(any " -> ") pp_op) (ops s)
