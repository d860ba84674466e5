(* Soft state (Section 4.2 of the paper).

   Two facilities:

   1. An expiry table used by the runtimes: it remembers when each
      soft-state tuple was (last) inserted and answers which tuples have
      expired at a given simulated time.  Re-inserting a tuple refreshes
      its lease, matching the classic soft-state refresh idiom.

   2. The hard-state rewrite: a mechanical translation that makes
      timeouts explicit so that a purely hard-state reasoner (the logic
      backend) can analyse soft-state programs.  Every soft predicate
      gains a trailing timestamp column; rules deriving soft predicates
      read the current time from a distinguished [clock(T)] relation,
      and every soft body atom gains a liveness guard
      [Ts + lifetime > T].  The paper calls this encoding "heavy-weight
      and cumbersome" — experiment E8 quantifies that. *)

module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Expiry tracking. *)

module Expiry = struct
  module Key = struct
    type t = string * Store.Tuple.t

    let compare (p1, t1) (p2, t2) =
      let c = String.compare p1 p2 in
      if c <> 0 then c else Store.Tuple.compare t1 t2
  end

  module Kmap = Map.Make (Key)

  type t = {
    lifetimes : Ast.lifetime Smap.t;
    deadlines : float Kmap.t;
  }

  let create (decls : Ast.decl list) =
    let lifetimes =
      List.fold_left
        (fun m (d : Ast.decl) -> Smap.add d.decl_pred d.decl_lifetime m)
        Smap.empty decls
    in
    { lifetimes; deadlines = Kmap.empty }

  let lifetime_of t pred =
    match Smap.find_opt pred t.lifetimes with
    | Some l -> l
    | None -> Ast.Lifetime_forever

  let is_soft t pred =
    match lifetime_of t pred with
    | Ast.Lifetime _ -> true
    | Ast.Lifetime_forever -> false

  (* Record an insertion at [now]; refreshes the lease when the tuple is
     already present. *)
  let insert t ~now pred tuple =
    match lifetime_of t pred with
    | Ast.Lifetime_forever -> t
    | Ast.Lifetime l ->
      { t with deadlines = Kmap.add (pred, tuple) (now +. l) t.deadlines }

  (* Tuples dead at [now]; also returns the pruned table. *)
  let expired t ~now =
    let dead, alive =
      Kmap.partition (fun _ deadline -> deadline <= now) t.deadlines
    in
    (List.map fst (Kmap.bindings dead), { t with deadlines = alive })

  (* Earliest pending deadline, if any: the next time expiry can act. *)
  let next_deadline t =
    Kmap.fold
      (fun _ d acc ->
        match acc with Some m -> Some (min m d) | None -> Some d)
      t.deadlines None

  (* Current leases in canonical key order: introspection for the
     incremental-refresh differential harness (lease tables must be
     bit-identical across refresh modes). *)
  let bindings t = Kmap.bindings t.deadlines
end

(* ------------------------------------------------------------------ *)
(* Hard-state rewrite. *)

let clock_pred = "clock"

type rewrite_report = {
  rewritten : Ast.program;
  soft_preds : string list;
  added_conditions : int;  (* liveness guards introduced *)
  added_columns : int;  (* timestamp columns introduced *)
}

let soft_preds_of (p : Ast.program) =
  List.filter_map
    (fun (d : Ast.decl) ->
      match d.decl_lifetime with
      | Ast.Lifetime l -> Some (d.decl_pred, l)
      | Ast.Lifetime_forever -> None)
    p.decls

(* Liveness guards compare an integer timestamp column against the
   integer [clock] relation, but [materialize] lifetimes are reals.
   For integers [Ts] and [T], [Ts + l > T] holds iff
   [Ts + ceil(l) > T], so rounding the lifetime {e up} reproduces
   {!Expiry}'s float deadline semantics exactly on the integer clock
   domain; truncating ([int_of_float]) would kill tuples with
   fractional lifetimes one clock tick early. *)
let guard_lifetime l = int_of_float (Float.ceil l)

(* Fresh timestamp variable names, one per rewritten atom. *)
let ts_var i = Printf.sprintf "Ts_%d" i

let now_var = "Tnow"

let to_hard_state (p : Ast.program) : rewrite_report =
  let soft = soft_preds_of p in
  let is_soft pred = List.mem_assoc pred soft in
  let added_conditions = ref 0 in
  let added_columns = ref 0 in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    ts_var !counter
  in
  let rewrite_rule (r : Ast.rule) : Ast.rule =
    counter := 0;
    let head_soft = is_soft r.head.Ast.head_pred in
    let body_rev, guards =
      List.fold_left
        (fun (body_rev, guards) lit ->
          match lit with
          | Ast.Pos a when is_soft a.Ast.pred ->
            let tv = fresh () in
            incr added_columns;
            let a' = { a with Ast.args = a.Ast.args @ [ Ast.Var tv ] } in
            let lifetime = List.assoc a.Ast.pred soft in
            incr added_conditions;
            let guard =
              Ast.Cond
                ( Ast.Gt,
                  Ast.Binop
                    ( Ast.Add,
                      Ast.Var tv,
                      Ast.Const (Value.Int (guard_lifetime lifetime)) ),
                  Ast.Var now_var )
            in
            (Ast.Pos a' :: body_rev, guard :: guards)
          | Ast.Neg a when is_soft a.Ast.pred ->
            (* A negated soft atom means "no live tuple": approximated by
               negating the timestamped relation joined with the clock;
               we keep the simple form with a fresh timestamp column that
               must fail for every stamp — encoded by negating the
               live-projection predicate generated below. *)
            let a' =
              { a with Ast.pred = a.Ast.pred ^ "_live" }
            in
            (Ast.Neg a' :: body_rev, guards)
          | l -> (l :: body_rev, guards))
        ([], []) r.body
    in
    let body = List.rev body_rev in
    let needs_clock = head_soft || guards <> [] in
    let clock_atom =
      Ast.Pos { Ast.pred = clock_pred; loc = None; args = [ Ast.Var now_var ] }
    in
    let body = if needs_clock then (clock_atom :: body) @ List.rev guards else body in
    let head =
      if head_soft then begin
        incr added_columns;
        {
          r.head with
          Ast.head_args = r.head.Ast.head_args @ [ Ast.Plain (Ast.Var now_var) ];
        }
      end
      else r.head
    in
    { r with head; body }
  in
  (* live-projection rules for negated soft atoms: p_live(args) holds iff
     some timestamped tuple is still alive at the clock. *)
  let live_rules =
    List.filter_map
      (fun (pred, lifetime) ->
        let arity =
          match Analysis.schema p with
          | Ok m -> (
            match Analysis.Smap.find_opt pred m with Some a -> a | None -> 0)
          | Error _ -> 0
        in
        if arity = 0 then None
        else
          let vars = List.init arity (fun i -> Ast.Var (Printf.sprintf "X%d" i)) in
          let ts = Ast.Var "Ts" in
          Some
            {
              Ast.rule_name = Some (pred ^ "_live_gen");
              head =
                {
                  Ast.head_pred = pred ^ "_live";
                  head_loc = None;
                  head_args = List.map (fun v -> Ast.Plain v) vars;
                };
              body =
                [
                  Ast.Pos
                    { Ast.pred = clock_pred; loc = None; args = [ Ast.Var now_var ] };
                  Ast.Pos { Ast.pred; loc = None; args = vars @ [ ts ] };
                  Ast.Cond
                    ( Ast.Gt,
                      Ast.Binop
                        ( Ast.Add,
                          ts,
                          Ast.Const (Value.Int (guard_lifetime lifetime)) ),
                      Ast.Var now_var );
                ];
            })
      soft
  in
  (* Only keep live rules for predicates actually negated somewhere. *)
  let negated_soft =
    List.concat_map
      (fun (r : Ast.rule) ->
        List.filter_map
          (function
            | Ast.Neg a when is_soft a.Ast.pred -> Some a.Ast.pred
            | _ -> None)
          r.body)
      p.rules
  in
  let live_rules =
    List.filter
      (fun (r : Ast.rule) ->
        List.exists
          (fun pred -> r.head.Ast.head_pred = pred ^ "_live")
          negated_soft)
      live_rules
  in
  let rules = List.map rewrite_rule p.rules @ live_rules in
  (* Soft facts gain an insertion timestamp of 0. *)
  let facts =
    List.map
      (fun (f : Ast.fact) ->
        if is_soft f.Ast.fact_pred then
          { f with Ast.fact_args = f.Ast.fact_args @ [ Value.Int 0 ] }
        else f)
      p.facts
  in
  (* All predicates become hard state in the rewritten program. *)
  let decls =
    List.map (fun (d : Ast.decl) -> { d with Ast.decl_lifetime = Ast.Lifetime_forever }) p.decls
  in
  {
    rewritten = { Ast.decls; facts; rules };
    soft_preds = List.map fst soft;
    added_conditions = !added_conditions;
    added_columns = !added_columns;
  }

(* Convenience: run a rewritten program at a given clock time. *)
let run_at_clock ?(max_rounds = 10_000) (rewritten : Ast.program) ~(now : int) :
    (Eval.outcome, Analysis.error) result =
  let clock_fact =
    { Ast.fact_pred = clock_pred; fact_loc = None; fact_args = [ Value.Int now ] }
  in
  Eval.run ~max_rounds ~extra_facts:[ clock_fact ] rewritten
