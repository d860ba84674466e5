(* The semi-naive executor: NDlog rule application over flat tuples
   ({!Flat}) and slot-compiled environments.

   Environments are [int array]s of interned value ids indexed by a
   per-rule variable slot table (-1 = unbound); argument patterns are
   compiled expressions whose constants carry precomputed ids; matching
   and join probes compare machine ints; relations are the
   open-addressing hash sets of {!Flat}.  The path-vector builtins run
   on ids ({!Intern.cons}, membership over the canonical list).  Boxing
   happens only at true system boundaries: the other builtin calls and
   arithmetic unbox operands and re-intern results, ordering
   comparisons unbox (ids are allocation-ordered, never a value order),
   and observable output materializes boxed tuples.

   This is the only semi-naive executor: {!Eval.seminaive} runs it
   behind a boxing boundary and every node of {!Dist.Runtime} runs it
   directly.  Literal orders, delta decompositions and aggregate shapes
   come from {!Plan}; index probes and join ordering are switched per
   call by [optimized_joins].  Tests check it against the boxed naive
   evaluator ({!Eval.naive}), which shares no planning or execution
   code with it. *)

module Fset = Flat.Fset

(* ------------------------------------------------------------------ *)
(* Compiled expressions and environments. *)

(* A variable carries its slot and its source name — the name only
   feeds {!Env.Unbound_variable}, keeping error behaviour identical to
   boxed evaluation's. *)
type iexpr =
  | XVar of int * string
  | XConst of int  (* precomputed id of the constant *)
  | XPath of (int -> int -> int) * iexpr * iexpr  (* a path builtin on ids *)
  | XCall of (Value.t list -> Value.t) * iexpr list  (* a boxed builtin *)
  | XBinop of Ast.binop * iexpr * iexpr

type step =
  | SPos of { pred : string; pat : iexpr array }
  | SNeg of { pred : string; args : iexpr array }
  | SAssign of int * iexpr
  | SCond of Ast.cmp * iexpr * iexpr

(* Per-compilation-unit slot table. *)
type ctx = { tbl : (string, int) Hashtbl.t; mutable n : int }

let mkctx () = { tbl = Hashtbl.create 8; n = 0 }

let slot ctx x =
  match Hashtbl.find_opt ctx.tbl x with
  | Some s -> s
  | None ->
    let s = ctx.n in
    ctx.n <- s + 1;
    Hashtbl.add ctx.tbl x s;
    s

(* The path-vector builtins (PAPER §2.2) on ids, for a call site whose
   boxed builtin is [boxed]: a cons is one pair probe, and membership
   is [List.memq] over the canonical list — each of its elements is its
   own representative, so physical equality is value equality.  A
   non-list argument takes the boxed round trip, which raises the
   boxed error. *)
let path_builtin f (boxed : Value.t list -> Value.t) :
    (int -> int -> int) option =
  let unboxed a b = Intern.id (boxed [ Intern.of_id a; Intern.of_id b ]) in
  match f with
  | "f_init" | "f_initPath" ->
    Some (fun s d -> Intern.cons s (Intern.cons d Intern.nil))
  | "f_concatPath" | "f_cons" ->
    Some
      (fun v p ->
        match Intern.of_id p with
        | Value.List _ -> Intern.cons v p
        | _ -> unboxed v p)
  | "f_inPath" ->
    let yes = Intern.id (Value.Bool true)
    and no = Intern.id (Value.Bool false) in
    Some
      (fun p v ->
        match Intern.of_id p with
        | Value.List vs -> if List.memq (Intern.of_id v) vs then yes else no
        | _ -> unboxed p v)
  | _ -> None

(* Each call is resolved once.  An unknown name still raises at call
   time, after its arguments, exactly as {!Env.eval} does. *)
let rec compile_expr ctx (e : Ast.expr) : iexpr =
  match e with
  | Ast.Var x -> XVar (slot ctx x, x)
  | Ast.Const v -> XConst (Intern.id v)
  | Ast.Call (f, args) -> (
    let boxed =
      match Builtins.find f with
      | Some fn -> fn
      | None -> fun _ -> raise (Builtins.Unknown_function f)
    in
    let args = List.map (compile_expr ctx) args in
    match path_builtin f boxed, args with
    | Some fn, [ a; b ] -> XPath (fn, a, b)
    | _ -> XCall (boxed, args))
  | Ast.Binop (op, a, b) ->
    XBinop (op, compile_expr ctx a, compile_expr ctx b)

let compile_args ctx (args : Ast.expr list) : iexpr array =
  Array.of_list (List.map (compile_expr ctx) args)

let compile_lit ctx (l : Ast.lit) : step =
  match l with
  | Ast.Pos a -> SPos { pred = a.Ast.pred; pat = compile_args ctx a.Ast.args }
  | Ast.Neg a -> SNeg { pred = a.Ast.pred; args = compile_args ctx a.Ast.args }
  | Ast.Assign (x, e) ->
    let e = compile_expr ctx e in  (* rhs slots before the target's *)
    SAssign (slot ctx x, e)
  | Ast.Cond (c, a, b) -> SCond (c, compile_expr ctx a, compile_expr ctx b)

let compile_body ctx (lits : Ast.lit list) : step array =
  Array.of_list (List.map (compile_lit ctx) lits)

let compile_head ctx (h : Ast.head) : iexpr array =
  Array.of_list
    (List.map
       (function
         | Ast.Plain e -> compile_expr ctx e
         | Ast.Agg _ ->
           raise (Plan.Eval_error "aggregate head in plain context"))
       h.Ast.head_args)

(* Arithmetic unboxes its operands (an array read each) and re-interns
   the result through the small-int memo — the boundary {!Intern}
   crossing the tentpole confines to computed values. *)
let arith_id op a b =
  let x = Value.as_int (Intern.of_id a) and y = Value.as_int (Intern.of_id b) in
  match op with
  | Ast.Add -> Intern.int_id (x + y)
  | Ast.Sub -> Intern.int_id (x - y)
  | Ast.Mul -> Intern.int_id (x * y)
  | Ast.Div ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", Intern.of_id b))
    else Intern.int_id (x / y)
  | Ast.Mod ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", Intern.of_id b))
    else Intern.int_id (x mod y)

let rec eval_x (env : int array) (e : iexpr) : int =
  match e with
  | XVar (s, name) ->
    let v = Array.unsafe_get env s in
    if v < 0 then raise (Env.Unbound_variable name) else v
  | XConst id -> id
  (* Arguments left to right, like {!Env.eval}, so both raise the same
     error when several arguments are ill-sorted. *)
  | XPath (fn, a, b) ->
    let a = eval_x env a in
    fn a (eval_x env b)
  | XCall (fn, args) ->
    Intern.id (fn (List.map (fun a -> Intern.of_id (eval_x env a)) args))
  | XBinop (op, a, b) -> arith_id op (eval_x env a) (eval_x env b)

let eval_ids env (args : iexpr array) : int array =
  let n = Array.length args in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- eval_x env args.(i)
  done;
  out

(* {!Env.eval_cmp} over ids: equality is id equality; orderings unbox
   (ids are allocation-ordered) and use the engine's {!Value.compare}. *)
let eval_cmp_ids (c : Ast.cmp) a b =
  match c with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | _ ->
    let k = Value.compare (Intern.of_id a) (Intern.of_id b) in
    (match c with
    | Ast.Lt -> k < 0
    | Ast.Le -> k <= 0
    | Ast.Gt -> k > 0
    | Ast.Ge -> k >= 0
    | Ast.Eq | Ast.Ne -> assert false)

(* Match a compiled pattern against a flat tuple, binding into [env]
   in place (the caller restores on failure).  Mirrors
   {!Env.match_args}: arity first, then left to right — a bare unbound
   variable binds, anything else must evaluate to the same id, and an
   unbound variable inside a complex pattern is a mismatch, not an
   error. *)
let match_pat (env : int array) (pat : iexpr array) (t : int array) : bool =
  let n = Array.length pat in
  n = Array.length t
  &&
  let rec go i =
    i >= n
    ||
    match pat.(i) with
    | XVar (s, _) ->
      let cur = Array.unsafe_get env s in
      if cur < 0 then begin
        env.(s) <- t.(i);
        go (i + 1)
      end
      else cur = t.(i) && go (i + 1)
    | XConst id -> id = t.(i) && go (i + 1)
    | e -> (
      match eval_x env e with
      | id -> id = t.(i) && go (i + 1)
      | exception Env.Unbound_variable _ -> false)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Candidate selection. *)

(* The argument positions ground under [env]: constants and bound bare
   variables, in ascending position order. *)
let bound_cols (env : int array) (pat : iexpr array) : (int * int) list =
  let acc = ref [] in
  for i = Array.length pat - 1 downto 0 do
    match pat.(i) with
    | XConst id -> acc := (i, id) :: !acc
    | XVar (s, _) -> if env.(s) >= 0 then acc := (i, env.(s)) :: !acc
    | _ -> ()
  done;
  !acc

(* An iterator over the candidate tuples for matching [pat] against
   [pred] under [env]: an index probe on the ground positions, or a
   full scan when none is ground (or indexes are switched off). *)
let candidates ~optimized_joins (st : Plan.counters) fdb (env : int array)
    pred (pat : iexpr array) : (int array -> unit) -> unit =
  match if optimized_joins then bound_cols env pat else [] with
  | [] ->
    st.Plan.c_scans <- st.Plan.c_scans + 1;
    fun f -> Fset.iter f (Flat.relation fdb pred)
  | bound ->
    st.Plan.c_index_hits <- st.Plan.c_index_hits + 1;
    let cols = List.map fst bound in
    let key = Array.of_list (List.map snd bound) in
    let bucket = Flat.lookup fdb pred ~cols ~key in
    fun f -> List.iter f bucket

(* ------------------------------------------------------------------ *)
(* Body evaluation. *)

(* Enumerate the satisfying environments of compiled [steps] starting
   from [env0], prepending frozen copies to [acc].  The environment
   flows through per-step scratch buffers: a candidate match blits the
   incoming bindings and binds in place, so only *satisfying*
   environments pay an allocation. *)
let body_envs_from ~optimized_joins (st : Plan.counters) fdb ~nslots
    (env0 : int array) (steps : step array) (acc : int array list) :
    int array list =
  let nsteps = Array.length steps in
  let scratch = Array.init (max nsteps 1) (fun _ -> Array.make nslots (-1)) in
  let acc = ref acc in
  let rec go (env : int array) si =
    if si >= nsteps then acc := Array.copy env :: !acc
    else
      match steps.(si) with
      | SPos { pred; pat } ->
        let iterate = candidates ~optimized_joins st fdb env pred pat in
        let buf = scratch.(si) in
        iterate (fun t ->
            st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
            Array.blit env 0 buf 0 nslots;
            if match_pat buf pat t then begin
              st.Plan.c_matched <- st.Plan.c_matched + 1;
              go buf (si + 1)
            end)
      | SNeg { pred; args } ->
        let t = eval_ids env args in
        if Flat.mem fdb pred t then () else go env (si + 1)
      | SAssign (s, rhs) ->
        let v = eval_x env rhs in
        let cur = env.(s) in
        if cur < 0 then begin
          let buf = scratch.(si) in
          Array.blit env 0 buf 0 nslots;
          buf.(s) <- v;
          go buf (si + 1)
        end
        else if cur = v then go env (si + 1)
      | SCond (c, a, b) ->
        if eval_cmp_ids c (eval_x env a) (eval_x env b) then go env (si + 1)
  in
  go env0 0;
  !acc

(* Consistent union of two frozen environments (recombining a per-tuple
   delta binding with its group's shared environment). *)
let merge_env (a : int array) (b : int array) : int array option =
  let n = Array.length b in
  let out = Array.copy b in
  let rec go s =
    s >= n
    ||
    let va = a.(s) in
    (if va >= 0 then
       let vb = out.(s) in
       if vb < 0 then begin
         out.(s) <- va;
         true
       end
       else vb = va
     else true)
    && go (s + 1)
  in
  if go 0 then Some out else None

(* ------------------------------------------------------------------ *)
(* Strands: the one delta join. *)

(* A compiled strand ({!Plan.strand}): the round's delta is grouped by
   [s_cols], the [s_shared] literals run once per group from the key
   bindings, and each delta tuple pays only its pattern match plus
   [s_per_tuple] ({!Plan.split_shared}).  A self-contained compilation
   unit (own slot table, own compiled head), planned once without
   cardinalities, so one compiled strand serves every batch. *)
type istrand = {
  s_rule : Ast.rule;
  s_delta_pred : string;
  s_cols : int list;  (* delta group columns *)
  s_col_slots : int list;  (* their slots, positionally *)
  s_dpat : iexpr array;  (* delta-atom pattern *)
  s_shared : step array;
  s_per_tuple : step array;
  s_nslots : int;
  s_head : iexpr array;
  s_optimized : bool;  (* index probes, as its plan's [optimized_joins] *)
}

let head_pred (s : istrand) = s.s_rule.Ast.head.Ast.head_pred
let head_loc (s : istrand) = s.s_rule.Ast.head.Ast.head_loc
let delta_pred (s : istrand) = s.s_delta_pred

let compile_istrand ~optimized_joins (s : Plan.strand) : istrand =
  let ctx = mkctx () in
  let gvars = Plan.group_vars s.Plan.delta s.Plan.rest in
  let cols_vars = Plan.group_cols s.Plan.delta gvars in
  let shared, per_tuple = Plan.split_shared gvars s.Plan.rest in
  let s_dpat = compile_args ctx s.Plan.delta.Ast.args in
  let s_col_slots = List.map (fun (_, x) -> slot ctx x) cols_vars in
  let s_shared = compile_body ctx shared in
  let s_per_tuple = compile_body ctx per_tuple in
  let s_head = compile_head ctx s.Plan.strand_rule.Ast.head in
  {
    s_rule = s.Plan.strand_rule;
    s_delta_pred = s.Plan.delta.Ast.pred;
    s_cols = List.map fst cols_vars;
    s_col_slots;
    s_dpat;
    s_shared;
    s_per_tuple;
    s_nslots = ctx.n;
    s_head;
    s_optimized = optimized_joins;
  }

let of_strand = compile_istrand ~optimized_joins:true

(* All satisfying environments of [s] against [fdb] with the delta read
   from [dset].  Counters: delta tuples by cardinality, one group per
   distinct key, enumerated/matched per delta tuple, and the
   shared/per-tuple phases accounted through [body_envs_from]. *)
let delta_envs (st : Plan.counters) fdb (s : istrand) (dset : Fset.t) :
    int array list =
  let optimized_joins = s.s_optimized in
  st.Plan.c_delta_tuples <- st.Plan.c_delta_tuples + Fset.cardinal dset;
  let nslots = s.s_nslots in
  let scratch = Array.make nslots (-1) in
  List.fold_left
    (fun acc (key, tuples) ->
      st.Plan.c_groups <- st.Plan.c_groups + 1;
      let tuple_envs =
        List.fold_left
          (fun acc t ->
            st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
            Array.fill scratch 0 nslots (-1);
            if match_pat scratch s.s_dpat t then begin
              st.Plan.c_matched <- st.Plan.c_matched + 1;
              Array.copy scratch :: acc
            end
            else acc)
          [] tuples
      in
      match tuple_envs with
      | [] -> acc
      | _ ->
        let env_g = Array.make nslots (-1) in
        List.iteri (fun i sl -> env_g.(sl) <- key.(i)) s.s_col_slots;
        let shared_envs =
          body_envs_from ~optimized_joins st fdb ~nslots env_g s.s_shared []
        in
        List.fold_left
          (fun acc env_s ->
            List.fold_left
              (fun acc env_t ->
                match merge_env env_t env_s with
                | None -> acc
                | Some env ->
                  body_envs_from ~optimized_joins st fdb ~nslots env
                    s.s_per_tuple acc)
              acc tuple_envs)
          acc shared_envs)
    []
    (Flat.group_set dset ~cols:s.s_cols)

(* Head id tuples of one strand run over a whole delta batch, one per
   satisfying environment (a multiset, in no particular order). *)
let execute_batch ?(stats = Plan.counters ()) fdb
    ~(delta_tuples : int array list) (s : istrand) : int array list =
  let dset = Fset.create ~capacity:(List.length delta_tuples * 2) () in
  List.iter (fun t -> ignore (Fset.add dset t)) delta_tuples;
  List.rev_map (fun env -> eval_ids env s.s_head) (delta_envs stats fdb s dset)

(* ------------------------------------------------------------------ *)
(* Aggregates. *)

let agg_fold_ids (a : Ast.agg) (ids : int list) : int =
  match a, ids with
  | _, [] -> raise (Plan.Eval_error "aggregate over empty group")
  | Ast.Min, v :: rest ->
    List.fold_left
      (fun m v ->
        if Value.compare (Intern.of_id v) (Intern.of_id m) < 0 then v else m)
      v rest
  | Ast.Max, v :: rest ->
    List.fold_left
      (fun m v ->
        if Value.compare (Intern.of_id v) (Intern.of_id m) > 0 then v else m)
      v rest
  | Ast.Count, vs -> Intern.int_id (List.length vs)
  | Ast.Sum, vs ->
    Intern.int_id
      (List.fold_left (fun acc v -> acc + Value.as_int (Intern.of_id v)) 0 vs)

module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal = Fset.tuple_eq
  let hash = Fset.tuple_hash
end)

(* Grouped-index aggregate evaluation ({!Plan.agg_index_shape}): one
   grouped probe over the group-by columns replaces the environment
   enumeration.  Tuples of the wrong arity are filtered per group (the
   enumeration path's pattern match would reject them); a group left
   empty by the filter is skipped. *)
let apply_agg_rule_indexed (st : Plan.counters) fdb (a : Ast.atom)
    (slots : Plan.agg_slot list) : int array list =
  let arity = List.length a.Ast.args in
  let cols =
    List.sort_uniq Stdlib.compare
      (List.filter_map
         (function Plan.Group i -> Some i | Plan.Fold _ -> None)
         slots)
  in
  let col_slot = List.mapi (fun k c -> (c, k)) cols in
  st.Plan.c_index_hits <- st.Plan.c_index_hits + 1;
  List.fold_left
    (fun acc (key, tuples) ->
      let rows =
        List.fold_left
          (fun acc (t : int array) ->
            st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
            if Array.length t = arity then begin
              st.Plan.c_matched <- st.Plan.c_matched + 1;
              t :: acc
            end
            else acc)
          [] tuples
      in
      match rows with
      | [] -> acc
      | _ ->
        let head =
          Array.of_list
            (List.map
               (function
                 | Plan.Group i -> key.(List.assoc i col_slot)
                 | Plan.Fold (agg, i) ->
                   agg_fold_ids agg (List.map (fun t -> t.(i)) rows))
               slots)
        in
        head :: acc)
    []
    (Flat.groups fdb a.Ast.pred ~cols)

(* Evaluate an aggregate rule: group satisfying environments by the
   plain head arguments, fold the aggregate, emit one tuple per group.
   Single-atom rules of the grouped shape take one index probe
   instead. *)
let apply_agg_rule ~optimized_joins (st : Plan.counters) fdb (r : Ast.rule) :
    int array list =
  match if optimized_joins then Plan.agg_index_shape r else None with
  | Some (a, slots) -> apply_agg_rule_indexed st fdb a slots
  | None ->
    let ctx = mkctx () in
    let steps =
      compile_body ctx
        (Plan.order_body ~optimized_joins
           ~card:(fun p -> Flat.cardinal fdb p)
           r.Ast.body)
    in
    (* Head compilation for aggregate rules: plain arguments compile as
       expressions, aggregate positions record their source slot. *)
    let hslots =
      List.map
        (function
          | Ast.Plain e -> `Plain (compile_expr ctx e)
          | Ast.Agg (agg, x) -> `Agg (agg, slot ctx x, x))
        r.Ast.head.Ast.head_args
    in
    let nslots = ctx.n in
    let envs =
      body_envs_from ~optimized_joins st fdb ~nslots (Array.make nslots (-1))
        steps []
    in
    let tbl : int list list ref Ktbl.t = Ktbl.create 16 in
    let order = ref [] in
    List.iter
      (fun env ->
        (* Group key: plain head values by id, -1 marking aggregate
           positions (ids are non-negative, so the sentinel is safe). *)
        let key =
          Array.of_list
            (List.map
               (function
                 | `Plain e -> eval_x env e
                 | `Agg _ -> -1)
               hslots)
        in
        let aggvals =
          List.filter_map
            (function
              | `Plain _ -> None
              | `Agg (_, s, x) ->
                let v = env.(s) in
                if v < 0 then raise (Env.Unbound_variable x) else Some v)
            hslots
        in
        match Ktbl.find_opt tbl key with
        | Some rows -> rows := aggvals :: !rows
        | None ->
          Ktbl.replace tbl key (ref [ aggvals ]);
          order := key :: !order)
      envs;
    List.rev_map
      (fun key ->
        let rows = !(Ktbl.find tbl key) in
        let n_aggs = List.length (List.hd rows) in
        let columns =
          List.init n_aggs (fun i -> List.map (fun row -> List.nth row i) rows)
        in
        let head = Array.copy key in
        let rec fill i hs cols =
          match hs with
          | [] -> ()
          | `Plain _ :: hs' -> fill (i + 1) hs' cols
          | `Agg (agg, _, _) :: hs' -> (
            match cols with
            | col :: cols' ->
              head.(i) <- agg_fold_ids agg col;
              fill (i + 1) hs' cols'
            | [] -> raise (Plan.Eval_error "aggregate column mismatch"))
        in
        fill 0 hslots columns;
        head)
      !order

(* ------------------------------------------------------------------ *)
(* Fixpoint drivers, mutating a linearly-owned flat database.

   All strata are evaluated bottom-up; aggregate rules of a stratum run
   once at stratum entry (their body predicates are strictly lower,
   hence complete); the plain rules run in full once, then semi-naively
   through the stratum's strands to fixpoint. *)

(* A stratum compiled once: its aggregate rules, its plain rules (the
   full first round plans them against live cardinalities) and one
   strand per plain rule and positive body atom (every later round). *)
type stratum = {
  agg_rules : Ast.rule list;
  plain_rules : Ast.rule list;
  strands : istrand list;
  optimized_joins : bool;
}

let compile_stratum ?(optimized_joins = true) (rules : Ast.rule list) =
  let agg_rules, plain_rules = Plan.split_agg rules in
  {
    agg_rules;
    plain_rules;
    strands =
      List.map
        (compile_istrand ~optimized_joins)
        (Plan.compile_program ~optimized_joins
           { Ast.empty_program with Ast.rules = plain_rules });
    optimized_joins;
  }

(* Derived head tuples of applying [rules] in full, each body planned
   against live cardinalities. *)
let apply_plain_rules ~optimized_joins (st : Plan.counters) fdb rules ~count :
    Flat.t =
  let card p = Flat.cardinal fdb p in
  let derived = Flat.create () in
  List.iter
    (fun (r : Ast.rule) ->
      let ctx = mkctx () in
      let steps =
        compile_body ctx (Plan.order_body ~optimized_joins ~card r.Ast.body)
      in
      let head = compile_head ctx r.Ast.head in
      let nslots = ctx.n in
      List.iter
        (fun env ->
          incr count;
          ignore (Flat.add derived r.Ast.head.Ast.head_pred (eval_ids env head)))
        (body_envs_from ~optimized_joins st fdb ~nslots (Array.make nslots (-1))
           steps []))
    rules;
  derived

(* New tuples of [derived] absent from [fdb]. *)
let fresh_of fdb derived : Flat.t =
  let out = Flat.create () in
  Flat.iter derived (fun pred t ->
      if not (Flat.mem fdb pred t) then ignore (Flat.add out pred t));
  out

(* The one semi-naive round loop.  Each round runs every strand whose
   trigger predicate has [delta] tuples; head tuples not already in
   [fdb] join it and become the next round's delta, until nothing new
   appears (converged) or [max_rounds] is reached. *)
let delta_rounds (st : Plan.counters) fdb (strands : istrand list) ~max_rounds
    ~rounds ~count (delta : Flat.t) : bool =
  let rec loop delta =
    if Flat.is_empty delta then true
    else if !rounds >= max_rounds then false
    else begin
      incr rounds;
      let derived = Flat.create () in
      List.iter
        (fun s ->
          let d = Flat.relation delta s.s_delta_pred in
          if not (Fset.is_empty d) then
            List.iter
              (fun env ->
                incr count;
                let t = eval_ids env s.s_head in
                ignore (Flat.add derived (head_pred s) t))
              (delta_envs st fdb s d))
        strands;
      let fresh = fresh_of fdb derived in
      Flat.union_into fdb fresh;
      loop fresh
    end
  in
  loop delta

let apply_agg_rules ~optimized_joins (st : Plan.counters) fdb agg_rules ~count =
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun t ->
          incr count;
          ignore (Flat.add fdb r.Ast.head.Ast.head_pred t))
        (apply_agg_rule ~optimized_joins st fdb r))
    agg_rules

let eval_stratum (st : Plan.counters) fdb (s : stratum) ~max_rounds ~rounds
    ~count : bool =
  let optimized_joins = s.optimized_joins in
  apply_agg_rules ~optimized_joins st fdb s.agg_rules ~count;
  let derived =
    apply_plain_rules ~optimized_joins st fdb s.plain_rules ~count
  in
  let delta = fresh_of fdb derived in
  Flat.union_into fdb delta;
  incr rounds;
  delta_rounds st fdb s.strands ~max_rounds ~rounds ~count delta

let seminaive_stratum ?(max_rounds = 10_000) ?(stats = Plan.counters ())
    (s : stratum) (fdb : Flat.t) : bool =
  eval_stratum stats fdb s ~max_rounds ~rounds:(ref 0) ~count:(ref 0)

type outcome = {
  rounds : int;
  derivations : int;
  converged : bool;
  stats : Plan.stats;
}

let seminaive ?(max_rounds = 10_000) ?stats ?optimized_joins
    (p : Ast.program) (info : Analysis.info) (fdb : Flat.t) : outcome =
  let st = Plan.counters () in
  let rounds = ref 0 and count = ref 0 in
  let converged =
    List.fold_left
      (fun ok stratum ->
        let rules = Plan.rules_of_stratum p stratum in
        ok
        && eval_stratum st fdb
             (compile_stratum ?optimized_joins rules)
             ~max_rounds ~rounds ~count)
      true info.Analysis.strata
  in
  let s = Plan.snapshot st in
  Option.iter (fun c -> Plan.accumulate c s) stats;
  { rounds = !rounds; derivations = !count; converged; stats = s }

(* Seeded delta-driven re-derivation of one view refresh stratum: the
   round loop started from a previous fixpoint instead of from scratch.

   [fdb] is seeded with the stratum's previous relations (its old
   fixpoint) on top of the current support; [delta] holds the support
   tuples added since that fixpoint.  Sound exactly when the stratum's
   rules are plain and monotone and the support change is purely
   additive (the refresh loop falls back to from-scratch recomputation
   otherwise). *)
let refresh_stratum ?(stats = Plan.counters ()) (fdb : Flat.t) (s : stratum)
    ~(delta : Flat.t) : unit =
  ignore
    (delta_rounds stats fdb s.strands ~max_rounds:max_int ~rounds:(ref 0)
       ~count:(ref 0) delta)

(* Group-wise maintenance of one aggregate view stratum.

   A rule of {!Plan.agg_index_shape} — a single positive body atom over
   distinct bare variables — produces exactly one head tuple per
   non-empty group of its body relation, and a group's head depends on
   that group's tuples alone.  So after the body relation moved, only
   the groups holding an added or removed body tuple can have a
   different head: re-folding those from the current body relation, and
   replacing their old heads, reaches the from-scratch result for every
   aggregate kind without support counts or per-kind deletion logic. *)
type refold = {
  rf_head : string;
  rf_body : string;
  rf_arity : int;  (* body atom arity: tuples of another arity never match *)
  rf_cols : int array;  (* the body's group-by columns, ascending *)
  rf_key_pos : int array;  (* per group column, a head position reading it *)
  rf_slots : Plan.agg_slot array;  (* one per head argument *)
}

let refold_of_rule (r : Ast.rule) : refold option =
  if not (Ast.has_aggregate r.Ast.head) then None
  else
    match Plan.agg_index_shape r with
    | None -> None
    | Some (a, slots) ->
      let slots = Array.of_list slots in
      let cols =
        List.sort_uniq Stdlib.compare
          (List.filter_map
             (function Plan.Group i -> Some i | Plan.Fold _ -> None)
             (Array.to_list slots))
      in
      let head_pos c =
        let rec go j = if slots.(j) = Plan.Group c then j else go (j + 1) in
        go 0
      in
      Some
        {
          rf_head = r.Ast.head.Ast.head_pred;
          rf_body = a.Ast.pred;
          rf_arity = List.length a.Ast.args;
          rf_cols = Array.of_list cols;
          rf_key_pos = Array.of_list (List.map head_pos cols);
          rf_slots = slots;
        }

(* The whole stratum re-folds only when each head relation is exactly
   one rule's per-group output computed from relations below it: every
   rule has the shape, no two rules share a head, and no body reads a
   head of the stratum. *)
let refold_plan (rules : Ast.rule list) : refold list option =
  let refolds = List.filter_map refold_of_rule rules in
  let heads = List.map (fun rf -> rf.rf_head) refolds in
  if
    List.length refolds = List.length rules
    && List.length (List.sort_uniq String.compare heads) = List.length heads
    && not (List.exists (fun rf -> List.mem rf.rf_body heads) refolds)
  then Some refolds
  else None

(* One index probe per touched group, on the body relation's group
   columns and on the head relation's key positions: the cost follows
   the touched groups, not the relations' sizes. *)
let refold_one (st : Plan.counters) fdb ~added ~removed (rf : refold) =
  let cols = Array.to_list rf.rf_cols
  and key_pos = Array.to_list rf.rf_key_pos in
  let touched : unit Ktbl.t = Ktbl.create 16 in
  let touch t =
    if Array.length t = rf.rf_arity then
      Ktbl.replace touched (Array.map (fun c -> t.(c)) rf.rf_cols) ()
  in
  Flat.iter_rel added rf.rf_body touch;
  Flat.iter_rel removed rf.rf_body touch;
  Ktbl.iter
    (fun key () ->
      st.Plan.c_index_hits <- st.Plan.c_index_hits + 1;
      let rows =
        List.filter
          (fun t ->
            st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
            Array.length t = rf.rf_arity
            && begin
              st.Plan.c_matched <- st.Plan.c_matched + 1;
              true
            end)
          (Flat.lookup fdb rf.rf_body ~cols ~key)
      in
      let fresh =
        match rows with
        | [] -> None
        | first :: _ ->
          Some
            (Array.map
               (function
                 | Plan.Group i -> first.(i)
                 | Plan.Fold (agg, i) ->
                   agg_fold_ids agg (List.map (fun t -> t.(i)) rows))
               rf.rf_slots)
      in
      (* The previous head of the group: one at most, since the head
         relation holds exactly this rule's previous output. *)
      let prev =
        match Flat.lookup fdb rf.rf_head ~cols:key_pos ~key with
        | h :: _ -> Some h
        | [] -> None
      in
      match prev, fresh with
      | Some h, Some h' when Fset.tuple_eq h h' -> ()
      | prev, fresh ->
        Option.iter (fun h -> ignore (Flat.remove fdb rf.rf_head h)) prev;
        Option.iter (fun h -> ignore (Flat.add fdb rf.rf_head h)) fresh)
    touched

let refold_stratum ?(stats = Plan.counters ()) (fdb : Flat.t)
    ~(refolds : refold list) ~(added : Flat.t) ~(removed : Flat.t) : unit =
  List.iter (refold_one stats fdb ~added ~removed) refolds
