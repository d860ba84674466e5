(* Rule strands: Click-style dataflow plans.

   The paper (Section 2.2): "Declarative networking programs are
   compiled into distributed execution plans that are based on the Click
   execution model."  This module performs that compilation: each rule
   becomes one *strand* per delta position — a linear pipeline of
   relational operators through which an environment stream flows:

     delta(path) -> join(link) -> assign(C) -> select(...) -> project(head)

   Executing a strand against a database (plus the triggering delta
   tuple) yields exactly the head tuples pipelined semi-naive evaluation
   would produce, which the test suite checks against {!Eval.body_envs}.
   The distributed runtime's reaction to a tuple insertion is the
   execution of all strands whose delta predicate matches. *)

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
  delta_pred : string option;  (* None: a full-scan strand *)
  delta_index : int option;  (* body position of the delta literal *)
  ops : op list;
}

exception Plan_error of string

(* ------------------------------------------------------------------ *)
(* Compilation. *)

let op_of_lit (l : Ast.lit) : op =
  match l with
  | Ast.Pos a -> Join { pred = a.Ast.pred; args = a.Ast.args }
  | Ast.Neg a -> Anti_join { pred = a.Ast.pred; args = a.Ast.args }
  | Ast.Assign (x, e) -> Bind (x, e)
  | Ast.Cond (c, a, b) -> Filter (c, a, b)

(* Compile one strand of [rule], with the body literal at [delta]
   (which must be a positive atom) as the triggering source.  The delta
   literal moves to the front; remaining literals are join-planned
   most-bound-first under the variables the delta binds
   ({!Eval.order_body} — semantics-preserving for safe rules since
   unbound variables bind by matching). *)
let compile_strand (rule : Ast.rule) ~(delta : int) : strand =
  if Ast.has_aggregate rule.Ast.head then
    raise (Plan_error "aggregate rules are not strand-compiled");
  let delta_lit =
    match List.nth_opt rule.Ast.body delta with
    | Some (Ast.Pos a) -> a
    | Some _ -> raise (Plan_error "delta position is not a positive atom")
    | None -> raise (Plan_error "delta position out of range")
  in
  let rest =
    List.filteri (fun i _ -> i <> delta) rule.Ast.body
    |> Eval.order_body ~bound:(Eval.atom_binds delta_lit)
    |> List.map op_of_lit
  in
  {
    strand_rule = rule;
    delta_pred = Some delta_lit.Ast.pred;
    delta_index = Some delta;
    ops =
      (Delta { pred = delta_lit.Ast.pred; args = delta_lit.Ast.args } :: rest)
      @ [ Project rule.Ast.head ];
  }

(* The full-scan strand: evaluates the rule against the whole database
   (used for initial rounds / non-incremental execution). *)
let compile_scan (rule : Ast.rule) : strand =
  if Ast.has_aggregate rule.Ast.head then
    raise (Plan_error "aggregate rules are not strand-compiled");
  {
    strand_rule = rule;
    delta_pred = None;
    delta_index = None;
    ops = List.map op_of_lit (Eval.order_body rule.Ast.body) @ [ Project rule.Ast.head ];
  }

(* All strands of a program: one per (rule, positive body literal whose
   predicate is derived or matches [trigger_preds]). *)
let compile_program ?(trigger_preds = []) (p : Ast.program) : strand list =
  let triggers =
    if trigger_preds <> [] then trigger_preds
    else
      (* by default, every predicate can trigger *)
      List.sort_uniq String.compare
        (List.concat_map (fun (r : Ast.rule) -> Ast.body_preds r.Ast.body) p.Ast.rules)
  in
  List.concat_map
    (fun (r : Ast.rule) ->
      if Ast.has_aggregate r.Ast.head then []
      else
        List.concat
          (List.mapi
             (fun i lit ->
               match lit with
               | Ast.Pos a when List.mem a.Ast.pred triggers ->
                 [ compile_strand r ~delta:i ]
               | _ -> [])
             r.Ast.body))
    p.Ast.rules

(* ------------------------------------------------------------------ *)
(* Execution: an environment stream flows through the operator list. *)

let execute_ops ?stats (db : Store.t) ?(delta_tuple : Store.Tuple.t option)
    (ops : op list) : Store.Tuple.t list =
  let step (envs : Env.t list) (o : op) : Env.t list =
    match o with
    | Delta { args; _ } -> (
      match delta_tuple with
      | None -> raise (Plan_error "strand needs a delta tuple")
      | Some t ->
        List.filter_map (fun env -> Env.match_args env args t) envs)
    | Join { pred; args } ->
      (* Index-aware: ground argument positions under each streamed
         environment are answered from a secondary index. *)
      List.concat_map (fun env -> Eval.join_envs ?stats db env pred args) envs
    | Anti_join { pred; args } ->
      List.filter
        (fun env ->
          let t = Array.of_list (List.map (Env.eval env) args) in
          not (Store.mem pred t db))
        envs
    | Bind (x, e) ->
      List.filter_map
        (fun env ->
          let v = Env.eval env e in
          match Env.find_opt x env with
          | None -> Some (Env.bind x v env)
          | Some v' -> if Value.equal v v' then Some env else None)
        envs
    | Filter (c, a, b) ->
      List.filter (fun env -> Env.eval_cmp c (Env.eval env a) (Env.eval env b)) envs
    | Project _ -> envs
  in
  (* Run all non-project operators, then project. *)
  let head =
    List.find_map (function Project h -> Some h | _ -> None) ops
  in
  let envs =
    List.fold_left
      (fun envs o -> match o with Project _ -> envs | o -> step envs o)
      [ Env.empty ] ops
  in
  match head with
  | None -> raise (Plan_error "strand has no projection")
  | Some h -> List.map (fun env -> Eval.head_tuple env h) envs

let execute ?stats (db : Store.t) ?delta_tuple (s : strand) : Store.Tuple.t list
    =
  execute_ops ?stats db ?delta_tuple s.ops

(* Run a delta strand over a whole batch of triggering tuples at once:
   the batch becomes a delta relation and flows through
   {!Eval.delta_envs}, so the batched group-at-a-time join applies (one
   probe pass per delta group instead of one per tuple).  Produces the
   same multiset of head tuples as executing the strand per tuple. *)
let execute_batch ?stats (db : Store.t) ~(delta_tuples : Store.Tuple.t list)
    (s : strand) : Store.Tuple.t list =
  match s.delta_index with
  | None -> raise (Plan_error "strand needs a delta position")
  | Some i ->
    let delta_atom =
      match List.nth s.strand_rule.Ast.body i with
      | Ast.Pos a -> a
      | _ -> raise (Plan_error "delta position is not a positive atom")
    in
    if delta_tuples = [] then []
    else
      let delta_db =
        List.fold_left
          (fun acc t -> Store.add delta_atom.Ast.pred t acc)
          Store.empty delta_tuples
      in
      let rest = List.filteri (fun j _ -> j <> i) s.strand_rule.Ast.body in
      List.rev_map
        (fun env -> Eval.head_tuple env s.strand_rule.Ast.head)
        (Eval.delta_envs ?stats db ~delta:(delta_atom, delta_db) ~rest)

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
  Fmt.pf ppf "%s: %a" name Fmt.(list ~sep:(any " -> ") pp_op) s.ops
