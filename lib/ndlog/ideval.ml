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
   directly.  It evaluates a rule body one way, as a strand of
   {!Plan.compile_strand}: a body run whole (round 1, an aggregate
   rule) is its strand at {!Plan.entry_atom} fed that atom's whole
   relation.  Literal orders, entry atoms, delta decompositions and the
   re-fold shape come from {!Plan}; index probes and join ordering are
   switched per call by [optimized_joins].  Tests check it against the
   boxed naive evaluator ({!Eval.naive}), which shares no planning or
   execution code with it. *)

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

(* A positive atom's candidate source, fixed when its body is compiled
   ({!plan_body}): a full scan, or a probe of the index on [cols] with
   the key computed by [key] (constants and bound variables) into the
   buffer [kbuf]. *)
type probe =
  | Scan
  | Probe of { cols : int array; key : iexpr array; kbuf : int array }

(* [tbuf] holds a negated atom's tuple while it is looked up. *)
type step =
  | SPos of { pred : string; pat : iexpr array; probe : probe }
  | SNeg of { pred : string; args : iexpr array; tbuf : int array }
  | SAssign of int * iexpr
  | SCond of Ast.cmp * iexpr * iexpr

(* A compiled literal sequence with one scratch environment per step. *)
type body = { steps : step array; bufs : int array array; nslots : int }

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
  | Ast.Pos a ->
    SPos { pred = a.Ast.pred; pat = compile_args ctx a.Ast.args; probe = Scan }
  | Ast.Neg a ->
    let args = compile_args ctx a.Ast.args in
    SNeg { pred = a.Ast.pred; args; tbuf = Array.make (Array.length args) 0 }
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
let rec match_from (env : int array) (pat : iexpr array) (t : int array) i =
  i >= Array.length pat
  ||
  match Array.unsafe_get pat i with
  | XVar (s, _) ->
    let cur = Array.unsafe_get env s in
    if cur < 0 then begin
      env.(s) <- t.(i);
      match_from env pat t (i + 1)
    end
    else cur = t.(i) && match_from env pat t (i + 1)
  | XConst id -> id = t.(i) && match_from env pat t (i + 1)
  | e -> (
    match eval_x env e with
    | id -> id = t.(i) && match_from env pat t (i + 1)
    | exception Env.Unbound_variable _ -> false)

let match_pat (env : int array) (pat : iexpr array) (t : int array) : bool =
  Array.length pat = Array.length t && match_from env pat t 0

(* ------------------------------------------------------------------ *)
(* Probe planning. *)

(* Fix each positive atom's candidate source from the slots bound when
   it runs: the constants and already-bound bare variables of its
   pattern, in ascending position order, become the columns and key of
   an index probe; with none (or with indexes switched off) the atom
   scans its relation.  Which slots are bound at a literal is decided by
   the literals before it — a positive atom binds every bare variable of
   its pattern, an assignment its target — so the plan made here is
   exactly what inspecting the environment at run time would find.
   [bound] holds the slots bound on entry and is updated to those bound
   on exit. *)
let plan_body ~optimized_joins ~nslots (bound : bool array) (steps : step array)
    : body =
  let plan = function
    | SPos { pred; pat; probe = _ } ->
      let ground = ref [] in
      for i = Array.length pat - 1 downto 0 do
        match pat.(i) with
        | XConst _ -> ground := i :: !ground
        | XVar (s, _) when bound.(s) -> ground := i :: !ground
        | _ -> ()
      done;
      let probe =
        if (not optimized_joins) || !ground = [] then Scan
        else
          let cols = Array.of_list !ground in
          Probe
            {
              cols;
              key = Array.map (fun i -> pat.(i)) cols;
              kbuf = Array.make (Array.length cols) 0;
            }
      in
      Array.iter (function XVar (s, _) -> bound.(s) <- true | _ -> ()) pat;
      SPos { pred; pat; probe }
    | SAssign (s, _) as step ->
      bound.(s) <- true;
      step
    | step -> step
  in
  let planned = Array.copy steps in
  Array.iteri (fun i step -> planned.(i) <- plan step) steps;
  {
    steps = planned;
    bufs = Array.init (Array.length steps) (fun _ -> Array.make nslots (-1));
    nslots;
  }

(* ------------------------------------------------------------------ *)
(* Body evaluation. *)

(* Enumerate the satisfying environments of [b] from step [si] on,
   starting from [env], and hand each to [k].  The environment flows
   through the body's per-step buffers: a candidate match blits the
   incoming bindings and binds in place, so enumeration allocates
   nothing per candidate, and the environment [k] receives is scratch —
   [k] reads it before returning and keeps nothing of it.  A body runs
   one enumeration at a time: [k] must not re-enter it. *)
let rec exec (st : Plan.counters) fdb (b : body) si (env : int array)
    (k : int array -> unit) : unit =
  if si >= Array.length b.steps then k env
  else
    match Array.unsafe_get b.steps si with
    | SPos { pred; pat; probe = Scan } ->
      st.Plan.c_scans <- st.Plan.c_scans + 1;
      Fset.iter
        (fun t -> candidate st fdb b si env pat k t)
        (Flat.relation fdb pred)
    | SPos { pred; pat; probe = Probe { cols; key; kbuf } } ->
      st.Plan.c_index_hits <- st.Plan.c_index_hits + 1;
      for i = 0 to Array.length key - 1 do
        Array.unsafe_set kbuf i (eval_x env (Array.unsafe_get key i))
      done;
      candidates st fdb b si env pat k (Flat.lookup fdb pred ~cols ~key:kbuf) 0
    | SNeg { pred; args; tbuf } ->
      for i = 0 to Array.length args - 1 do
        Array.unsafe_set tbuf i (eval_x env (Array.unsafe_get args i))
      done;
      if not (Flat.mem fdb pred tbuf) then exec st fdb b (si + 1) env k
    | SAssign (s, rhs) ->
      let v = eval_x env rhs in
      let cur = env.(s) in
      if cur < 0 then begin
        let buf = Array.unsafe_get b.bufs si in
        Array.blit env 0 buf 0 b.nslots;
        buf.(s) <- v;
        exec st fdb b (si + 1) buf k
      end
      else if cur = v then exec st fdb b (si + 1) env k
    | SCond (c, x, y) ->
      if eval_cmp_ids c (eval_x env x) (eval_x env y) then
        exec st fdb b (si + 1) env k

(* The tuples of an index bucket, up to its first vacant slot. *)
and candidates st fdb b si env pat k (bucket : int array array) i =
  if i < Array.length bucket then begin
    let t = Array.unsafe_get bucket i in
    if t != Flat.vacant then begin
      candidate st fdb b si env pat k t;
      candidates st fdb b si env pat k bucket (i + 1)
    end
  end

and candidate st fdb b si env pat k (t : int array) =
  st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
  let buf = Array.unsafe_get b.bufs si in
  Array.blit env 0 buf 0 b.nslots;
  if match_pat buf pat t then begin
    st.Plan.c_matched <- st.Plan.c_matched + 1;
    exec st fdb b (si + 1) buf k
  end

(* The order of two tuples' ids at [cols], from column [j] on. *)
let rec compare_at (cols : int array) (a : int array) (b : int array) j =
  if j >= Array.length cols then 0
  else
    let c = cols.(j) in
    if a.(c) = b.(c) then compare_at cols a b (j + 1) else compare a.(c) b.(c)

(* Grouping by sorting: drop the tuples of [d] shorter than [key_len]
   (they have no key), sort the rest by their ids at [cols], and call
   [f d lo hi] on each run of equal keys. *)
let iter_groups cols ~key_len (d : int array array) f =
  let keyed t = Array.length t >= key_len in
  let d =
    if Array.for_all keyed d then d
    else Array.of_list (List.filter keyed (Array.to_list d))
  in
  if Array.length d > 1 && Array.length cols > 0 then
    Array.stable_sort (fun a b -> compare_at cols a b 0) d;
  let lo = ref 0 in
  for hi = 1 to Array.length d do
    if hi = Array.length d || compare_at cols d.(!lo) d.(hi) 0 <> 0 then begin
      f d !lo hi;
      lo := hi
    end
  done

(* ------------------------------------------------------------------ *)
(* Strands: the one delta join. *)

(* A compiled strand ({!Plan.strand}): the round's delta is grouped by
   [s_cols], the [s_shared] literals run once per group from the key
   bindings, and each delta tuple pays only its pattern match plus
   [s_per_tuple] ({!Plan.split_shared}).  A self-contained compilation
   unit (own slot table, own compiled head, own scratch environments),
   planned once without cardinalities, so one compiled strand serves
   every batch — one batch at a time. *)
type istrand = {
  s_rule : Ast.rule;
  s_delta_pred : string;
  s_cols : int array;  (* delta group columns *)
  s_col_slots : int array;  (* their slots, positionally *)
  s_key_len : int;  (* shorter delta tuples have no group key *)
  s_dpat : iexpr array;  (* delta-atom pattern: variables and constants *)
  s_shared : body;
  s_per_tuple : body;
  s_head : iexpr array;
  s_tbuf : int array;  (* one delta tuple's own bindings *)
  s_gbuf : int array;  (* a group's key bindings *)
  s_mbuf : int array;  (* one delta tuple's bindings under a shared one *)
  s_hbuf : int array;  (* a head under construction *)
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
  let s_col_slots =
    Array.of_list (List.map (fun (_, x) -> slot ctx x) cols_vars)
  in
  let shared = compile_body ctx shared in
  let per_tuple = compile_body ctx per_tuple in
  let s_head = compile_head ctx s.Plan.strand_rule.Ast.head in
  let nslots = ctx.n in
  (* The shared phase starts from the key bindings; the per-tuple phase
     adds the delta pattern's. *)
  let bound = Array.make nslots false in
  Array.iter (fun sl -> bound.(sl) <- true) s_col_slots;
  let s_shared = plan_body ~optimized_joins ~nslots bound shared in
  Array.iter (function XVar (sl, _) -> bound.(sl) <- true | _ -> ()) s_dpat;
  let s_per_tuple = plan_body ~optimized_joins ~nslots bound per_tuple in
  let s_cols = Array.of_list (List.map fst cols_vars) in
  {
    s_rule = s.Plan.strand_rule;
    s_delta_pred = s.Plan.delta.Ast.pred;
    s_cols;
    s_col_slots;
    s_key_len = Array.fold_left (fun m c -> max m (c + 1)) 0 s_cols;
    s_dpat;
    s_shared;
    s_per_tuple;
    s_head;
    s_tbuf = Array.make nslots (-1);
    s_gbuf = Array.make nslots (-1);
    s_mbuf = Array.make nslots (-1);
    s_hbuf = Array.make (Array.length s_head) 0;
  }

let of_strand = compile_istrand ~optimized_joins:true

(* One delta group, [d.(lo)] to [d.(hi - 1)]: each tuple is matched
   alone first (the enumerated/matched counters), and if any matched,
   the shared phase runs once from the key bindings and, under each of
   its environments, every tuple of the group is matched again and runs
   the per-tuple phase.  The delta pattern holds only variables and
   constants ({!Plan.compile_strand} names complex arguments), so
   matching under a shared environment is the consistent union of the
   two: a tuple that failed alone fails again. *)
let run_group (st : Plan.counters) fdb (s : istrand) k (d : int array array)
    lo hi =
  st.Plan.c_groups <- st.Plan.c_groups + 1;
  let nslots = s.s_shared.nslots in
  let matched = ref false in
  for i = lo to hi - 1 do
    st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
    Array.fill s.s_tbuf 0 nslots (-1);
    if match_pat s.s_tbuf s.s_dpat d.(i) then begin
      st.Plan.c_matched <- st.Plan.c_matched + 1;
      matched := true
    end
  done;
  if !matched then begin
    let g = s.s_gbuf and t0 = d.(lo) in
    Array.fill g 0 nslots (-1);
    for j = 0 to Array.length s.s_cols - 1 do
      g.(s.s_col_slots.(j)) <- t0.(s.s_cols.(j))
    done;
    exec st fdb s.s_shared 0 g (fun env_s ->
        for i = lo to hi - 1 do
          let mb = s.s_mbuf in
          Array.blit env_s 0 mb 0 nslots;
          if match_pat mb s.s_dpat d.(i) then exec st fdb s.s_per_tuple 0 mb k
        done)
  end

(* Every satisfying environment of [s] against [fdb] with the distinct
   delta tuples [d] (permuted in place), handed to [k] as scratch.
   Counters: delta tuples by count, one group per distinct key. *)
let run_strand (st : Plan.counters) fdb (s : istrand) (d : int array array) k
    =
  st.Plan.c_delta_tuples <- st.Plan.c_delta_tuples + Array.length d;
  if Array.length d = 1 then begin
    if Array.length d.(0) >= s.s_key_len then run_group st fdb s k d 0 1
  end
  else iter_groups s.s_cols ~key_len:s.s_key_len d (run_group st fdb s k)

let execute_batch ?(stats = Plan.counters ()) fdb
    ~(delta_tuples : int array list) (s : istrand) (emit : int array -> unit)
    =
  run_strand stats fdb s (Array.of_list delta_tuples) (fun env ->
      emit (eval_ids env s.s_head))

(* A head sink for a round: [head] evaluated into the scratch [h] and
   added to [fresh], copied, only when neither [fdb] nor [fresh] holds
   it — one pass that both dedupes the round's heads and drops the
   known ones. *)
let keep_new fdb fresh ~count pred (head : iexpr array) (h : int array) env =
  incr count;
  for i = 0 to Array.length head - 1 do
    Array.unsafe_set h i (eval_x env (Array.unsafe_get head i))
  done;
  if not (Flat.mem fdb pred h || Flat.mem fresh pred h) then
    ignore (Flat.add fresh pred (Array.copy h))

(* The distinct tuples of a relation, as a strand's batch. *)
let batch = Fset.to_array

(* A rule's whole body: its strand entered at its entry atom
   ({!Plan.entry_atom}), the atom's whole relation as one batch,
   counted as one scan. *)
let run_whole (st : Plan.counters) fdb (s : istrand) k =
  st.Plan.c_scans <- st.Plan.c_scans + 1;
  run_strand st fdb s (batch (Flat.relation fdb s.s_delta_pred)) k

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

(* An aggregate rule compiled as its pre-head rule: the plain rule whose
   head carries each aggregated variable in its place.  Its strand emits
   one pre-head per satisfying environment (duplicates kept: count and
   sum fold multiplicities); grouped on the plain positions, each group
   folds into one head. *)
type agg = {
  a_strand : istrand;  (* the pre-head rule at its entry atom *)
  a_cols : int array;  (* plain head positions: the group key *)
  a_folds : (int * Ast.agg) list;  (* aggregate head positions *)
}

let pre_head_rule (r : Ast.rule) : Ast.rule =
  let plain = function
    | Ast.Agg (_, x) -> Ast.Plain (Ast.Var x)
    | arg -> arg
  in
  let h = r.Ast.head in
  { r with Ast.head = { h with Ast.head_args = List.map plain h.Ast.head_args } }

let apply_agg (st : Plan.counters) fdb (a : agg) ~count =
  let s = a.a_strand in
  let pre = ref [] in
  run_whole st fdb s (fun env -> pre := eval_ids env s.s_head :: !pre);
  iter_groups a.a_cols ~key_len:0 (Array.of_list !pre) (fun d lo hi ->
      let h = Array.copy d.(lo) in
      List.iter
        (fun (i, agg) ->
          h.(i) <-
            agg_fold_ids agg (List.init (hi - lo) (fun j -> d.(lo + j).(i))))
        a.a_folds;
      incr count;
      ignore (Flat.add fdb (head_pred s) h))

(* ------------------------------------------------------------------ *)
(* Fixpoint drivers, mutating a linearly-owned flat database.

   All strata are evaluated bottom-up; aggregate rules of a stratum run
   once at stratum entry (their body predicates are strictly lower,
   hence complete); the plain rules run whole once, then semi-naively
   through the stratum's strands to fixpoint. *)

(* A stratum compiled once: its aggregate rules, and one strand per
   plain rule and positive body atom (every later round), of which
   [entries] holds each rule's strand at its entry atom (round 1).
   Rounds collect
   their new heads in two scratch databases, one round's delta and the
   next round's, emptied as they are consumed and reused by every run
   of the stratum. *)
type stratum = {
  aggs : agg list;
  entries : istrand list;
  strands : istrand list;
  fresh : Flat.t;
  spare : Flat.t;
}

let compile_stratum ?(optimized_joins = true) (rules : Ast.rule list) =
  let agg_rules, plain_rules = Plan.split_agg rules in
  let compile (r : Ast.rule) ~delta =
    compile_istrand ~optimized_joins
      (Plan.compile_strand ~optimized_joins r ~delta)
  in
  let agg (r : Ast.rule) =
    let args = List.mapi (fun i arg -> (i, arg)) r.Ast.head.Ast.head_args in
    {
      a_strand =
        compile (pre_head_rule r) ~delta:(Plan.entry_atom ~optimized_joins r);
      a_cols =
        Array.of_list
          (List.filter_map
             (function i, Ast.Plain _ -> Some i | _ -> None)
             args);
      a_folds =
        List.filter_map
          (function i, Ast.Agg (agg, _) -> Some (i, agg) | _ -> None)
          args;
    }
  in
  let rule_strands (r : Ast.rule) =
    let entry = Plan.entry_atom ~optimized_joins r in
    let strands =
      List.concat
        (List.mapi
           (fun i -> function
             | Ast.Pos _ -> [ (i, compile r ~delta:i) ]
             | _ -> [])
           r.Ast.body)
    in
    (List.assoc entry strands, List.map snd strands)
  in
  let compiled = List.map rule_strands plain_rules in
  {
    aggs = List.map agg agg_rules;
    entries = List.map fst compiled;
    strands = List.concat_map snd compiled;
    fresh = Flat.create ();
    spare = Flat.create ();
  }

(* One semi-naive round: every strand whose trigger predicate has
   [delta] tuples runs, and the head tuples not already in [fdb] are
   collected in [fresh], then join [fdb]. *)
let rec run_strands st fdb ~count delta fresh = function
  | [] -> ()
  | x :: rest ->
    let d = Flat.relation delta x.s_delta_pred in
    if not (Fset.is_empty d) then
      run_strand st fdb x (batch d)
        (keep_new fdb fresh ~count (head_pred x) x.s_head x.s_hbuf);
    run_strands st fdb ~count delta fresh rest

let round (st : Plan.counters) fdb strands ~rounds ~count delta fresh =
  incr rounds;
  run_strands st fdb ~count delta fresh strands;
  Flat.union_into fdb fresh

(* The one semi-naive round loop, over the stratum's scratch databases:
   [delta] holds the last round's new heads and [fresh] is empty.
   Rounds run until nothing new appears (converged) or [max_rounds] is
   reached, and leave both databases empty. *)
let rec rounds_from st fdb s ~max_rounds ~rounds ~count delta fresh =
  if Flat.is_empty delta then true
  else if !rounds >= max_rounds then begin
    Flat.clear delta;
    false
  end
  else begin
    round st fdb s.strands ~rounds ~count delta fresh;
    Flat.clear delta;
    rounds_from st fdb s ~max_rounds ~rounds ~count fresh delta
  end

(* A run interrupted by an exception can leave heads behind. *)
let empty_scratch s =
  Flat.clear s.fresh;
  Flat.clear s.spare

(* Aggregates first, then round 1 — every plain rule whole, its heads
   the first delta — then the round loop. *)
let eval_stratum (st : Plan.counters) fdb (s : stratum) ~max_rounds ~rounds
    ~count : bool =
  List.iter (apply_agg st fdb ~count) s.aggs;
  empty_scratch s;
  List.iter
    (fun e ->
      run_whole st fdb e
        (keep_new fdb s.fresh ~count (head_pred e) e.s_head e.s_hbuf))
    s.entries;
  Flat.union_into fdb s.fresh;
  incr rounds;
  rounds_from st fdb s ~max_rounds ~rounds ~count s.fresh s.spare

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
   otherwise).  [delta] is the caller's and is left as it was: the
   first round reads it, and the round loop, which empties what it
   consumes, starts from that round's heads. *)
let refresh_stratum ?(stats = Plan.counters ()) (fdb : Flat.t) (s : stratum)
    ~(delta : Flat.t) : unit =
  if not (Flat.is_empty delta) then begin
    let rounds = ref 0 and count = ref 0 in
    empty_scratch s;
    round stats fdb s.strands ~rounds ~count delta s.fresh;
    ignore
      (rounds_from stats fdb s ~max_rounds:max_int ~rounds ~count s.fresh
         s.spare)
  end

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
  rf_key : int array;  (* scratch: a group key *)
  rf_hbuf : int array;  (* scratch: a group's head *)
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
          rf_key = Array.make (List.length cols) 0;
          rf_hbuf = Array.make (Array.length slots) 0;
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

(* The touched body tuples of [rf] — added or removed, of the body's
   arity — sorted by group key. *)
let touched_rows rf ~added ~removed =
  let a = Flat.relation added rf.rf_body
  and r = Flat.relation removed rf.rf_body in
  let rows = Array.append (Fset.to_array a) (Fset.to_array r) in
  let rows =
    if Array.for_all (fun t -> Array.length t = rf.rf_arity) rows then rows
    else
      Array.of_list
        (List.filter (fun t -> Array.length t = rf.rf_arity) (Array.to_list rows))
  in
  if Array.length rows > 1 then
    Array.stable_sort (fun a b -> compare_at rf.rf_cols a b 0) rows;
  rows

(* One index probe per touched group, on the body relation's group
   columns and on the head relation's key positions: the cost follows
   the touched groups, not the relations' sizes.  The group's head is
   built in scratch and copied only when it replaces the old one. *)
let refold_group (st : Plan.counters) fdb rf =
  let key = rf.rf_key in
  st.Plan.c_index_hits <- st.Plan.c_index_hits + 1;
  let bucket = Flat.lookup fdb rf.rf_body ~cols:rf.rf_cols ~key in
  (* The group's rows, last-filled first. *)
  let rows = ref [] in
  for j = 0 to Flat.bucket_length bucket - 1 do
    st.Plan.c_enumerated <- st.Plan.c_enumerated + 1;
    if Array.length bucket.(j) = rf.rf_arity then begin
      st.Plan.c_matched <- st.Plan.c_matched + 1;
      rows := bucket.(j) :: !rows
    end
  done;
  (* The previous head of the group: one at most, since the head
     relation holds exactly this rule's previous output. *)
  let prev = (Flat.lookup fdb rf.rf_head ~cols:rf.rf_key_pos ~key).(0) in
  match !rows with
  | [] -> if prev != Flat.vacant then ignore (Flat.remove fdb rf.rf_head prev)
  | t :: _ ->
    let h = rf.rf_hbuf in
    for j = 0 to Array.length rf.rf_slots - 1 do
      h.(j) <-
        (match rf.rf_slots.(j) with
        | Plan.Group i -> t.(i)
        | Plan.Fold (agg, i) ->
          agg_fold_ids agg (List.map (fun t -> t.(i)) !rows))
    done;
    if not (prev != Flat.vacant && Fset.tuple_eq prev h) then begin
      if prev != Flat.vacant then ignore (Flat.remove fdb rf.rf_head prev);
      ignore (Flat.add fdb rf.rf_head (Array.copy h))
    end

let refold_one (st : Plan.counters) fdb ~added ~removed (rf : refold) =
  let rows = touched_rows rf ~added ~removed in
  for k = 0 to Array.length rows - 1 do
    let t = rows.(k) in
    if k = 0 || compare_at rf.rf_cols rows.(k - 1) t 0 <> 0 then begin
      for j = 0 to Array.length rf.rf_cols - 1 do
        rf.rf_key.(j) <- t.(rf.rf_cols.(j))
      done;
      refold_group st fdb rf
    end
  done

let refold_stratum ?(stats = Plan.counters ()) (fdb : Flat.t)
    ~(refolds : refold list) ~(added : Flat.t) ~(removed : Flat.t) : unit =
  List.iter (refold_one stats fdb ~added ~removed) refolds
