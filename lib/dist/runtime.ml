(* Distributed NDlog execution (the P2 substitute, arc 7 of Figure 1).

   Every simulator node runs the same localized program over its own
   tuple store.  Execution is pipelined semi-naive through compiled
   dataflow strands (the Click execution model, {!Ndlog.Plan}):
   inserting a tuple runs the strands triggered by its predicate with
   the new tuple as the delta; derived heads located at the executing
   node recurse locally, heads located elsewhere become network
   messages.

   There is one data path, and it is id-native: a node's store is a
   flat database of interned-id tuples ({!Ndlog.Flat}), strands run
   through the id-native executor ({!Ndlog.Ideval}), joins compare
   machine ints, and in-process messages carry ids.  Values are boxed
   only at true boundaries — a cross-process frame ({!Socket}), a soft
   predicate's lease key, printing, and the memoized {!Ndlog.Store.t}
   views [node_store] / [global_store] hand to observers; canonical
   send order compares boxed values without building tuples
   ({!Ndlog.Intern.compare_ids}).

   Every message delivery goes through a per-node inbox: the handler
   buffers the tuple and schedules a zero-delay flush, so every
   delivery landing at the same simulated instant drains together and
   each triggered strand runs once with the full per-predicate delta
   (the batched join's group-at-a-time schedule on the wire path).

   Aggregate strata are maintained as local views: whenever the local
   store changes, aggregate rules (and the local rules downstream of
   them) are re-derived in place, so non-monotonic updates (a better
   best-path displacing a worse one) are handled by view refresh rather
   than by distributed deletion.

   A walk is owed only when a base relation changed: a view arrival
   or a lapsed arrival changes no fixpoint, since no rule reads
   [received].  When the owed walk runs is fixed at [create], from the
   program.  A program whose view heads all stay at the deriving node,
   soft state included, refreshes on demand: nothing between two
   observations reads a view (every rule that reads one is itself a
   view rule, and a local view is neither shipped, leased nor
   renewed), so a base change only records its tuples, and one walk
   brings the views up to date when they are read — at the end of
   [run] and in [node_store] / [global_store].  What a node records
   meanwhile grows with the base changes since the last read, and
   every [run] reads at its end.  A program that ships views walks
   once per instant that changed a base relation, through a zero-delay
   event, so a shipped tuple leaves at its own instant.

   View refresh is incremental by default ([~incremental_views:true]):
   each node records the base tuples added and removed since its last
   refresh — by local insertions, the inbox flush path, and expiry
   sweeps; their predicates are its *dirty* ones — and a refresh walks
   the view program's refresh strata ({!Ndlog.Eval.refresh_strata})
   bottom-up.  Each stratum is brought
   up to date in one of four ways, the last three by the mode fixed for
   it at [create]:
   - skip: no predicate in its transitive support is dirty, so its
     previous relations are still exact;
   - re-fold: an aggregate stratum of single-atom rules re-folds only
     the groups whose body tuples were added or removed
     ({!Ndlog.Ideval.refold_stratum}), for every aggregate kind;
   - seed: a plain stratum takes its previous relations plus the
     support deltas (delta-driven re-derivation through
     {!Ndlog.Ideval.refresh_stratum});
   - fallback: from-scratch recomputation for negation, other aggregate
     shapes, and plain strata whose support lost tuples — all
     non-monotone under seeding ({!Ndlog.Ideval.seminaive_stratum}).
   Seeding and the fallback run the same round loop over the same
   strands, compiled once per stratum at [create]; a re-folded stratum
   compiles only its re-folds.
   Skips, re-folds and fallbacks are counted ([strata_skipped] /
   [strata_refolded] / [refresh_fallbacks] in {!Ndlog.Eval.stats}).
   [~incremental_views:false] restores the from-scratch refresh, kept
   as the differential oracle: both modes produce bit-identical node
   stores, fixpoints, message traces, and lease tables (qcheck property
   in the dist test suite), and the distributed fixpoint itself is
   checked against the naive centralized evaluator.
   A node's view relations hold exactly its own last fixpoint, the
   tuples located at other nodes included; tuples shipped in from
   other nodes are kept apart, in [received], and the node shows the
   locally-located part of its fixpoint plus those arrivals.  A
   refresh ships the remotely-located part of its net movement, so
   each tuple travels once, and the receiver keeps it until its own
   lease lapses; remote view deletion is not supported (none of the
   paper's programs need it), and [check_remote_views] rejects
   hard-state programs that would require it.

   Prerequisite: the program must be localized ({!Ndlog.Localize}) —
   every rule body reads a single location. *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Analysis = Ndlog.Analysis
module Value = Ndlog.Value
module Softstate = Ndlog.Softstate
module Intern = Ndlog.Intern
module Flat = Ndlog.Flat
module Ideval = Ndlog.Ideval
module Plan = Ndlog.Plan
module Sset = Ast.Sset

(* The message type lives in {!Wire} (the framing layer needs it);
   re-exported here so existing users keep reading [Runtime.msg]. *)
type msg = Wire.msg = { pred : string; ids : int array }

(* A view predicate, resolved at [create]: per-node view state is kept
   in arrays indexed by [v_idx], so the refresh walk reaches it without
   hashing the name. *)
type view = {
  v_pred : string;
  v_idx : int;  (* position in [t.views] *)
  (* Location column when some rule can place the view at another
     node; [None] when every tuple stays where it is derived. *)
  v_loc : int option;
}

type node_state = {
  name : string;
  (* The node's database: its base relations and, for each view, its
     own last fixpoint — remotely-located tuples included, arrivals
     excluded. *)
  db : Flat.t;
  mutable expiry : Softstate.Expiry.t;
  mutable inserts : int;  (* local tuple insertions *)
  (* Pending message deliveries in arrival order: the first [inbox_len]
     slots of [inbox], which grows by doubling and is drained by
     [flush]. *)
  mutable inbox : msg array;
  mutable inbox_len : int;
  mutable flush_scheduled : bool;
  (* View tuples shipped in from other nodes (or inserted from
     outside), kept until their leases lapse.  No rule reads them: they
     are shown, not derived from. *)
  received : Flat.t;
  (* Soft views with a pending lease-renewal timer (see
     [ensure_renewal]). *)
  renewing : bool array;
  (* The node's pending refresh, for incremental view refresh (only
     kept when [incremental_views] is on and the program has views:
     [tracks_dirty]).  Invariant at every refresh: [dirty_added] lists
     the base tuples added since this node's last refresh (newest
     first; one expiry removed since is no longer in the store),
     [dirty_removed] the base tuples expiry removed; their predicates
     are the dirty ones.  Removals select the groups a re-folded
     aggregate stratum revisits, and force the from-scratch fallback
     for every plain stratum they support.  A node with both lists
     empty is exactly what its last refresh left, so a walk skips it
     wholesale (accounted as the per-stratum skips it replaces): under
     churn on a large network each walk is O(touched nodes), not
     O(nodes).  Both are plain lists: the walk builds its delta in the
     runtime's scratch, so an idle node holds no delta database. *)
  mutable dirty_added : (string * int array) list;
  mutable dirty_removed : (string * int array) list;
  (* Deadline of the one live sweep timer, or [infinity] when none is
     pending.  Every soft insert used to arm a fresh timer chain whose
     sweep re-armed itself forever, so the timer population — and with
     it the per-event cost of a long-running simulation — grew without
     bound.  [schedule_expiry] now arms only when it would fire earlier
     than the live timer, and a firing timer whose deadline no longer
     matches is stale: it dies without sweeping or re-arming. *)
  mutable sweep_armed : float;
  (* Boxed materializations memoized by the versions of [db] and
     [received], so observation points ([node_store], [global_store])
     pay the id-to-value translation once per quiescent state. *)
  mutable store_cache : (int * int * Store.t) option;
}

(* How a touched refresh stratum is brought up to date, fixed at
   [create]. *)
type refresh_mode =
  | Seed of Ideval.stratum
      (* plain: seeded delta re-derivation through its strands, unless
         its support lost tuples *)
  | Refold of Ideval.refold list
      (* single-atom aggregates: re-fold only the touched groups *)
  | Scratch of Ideval.stratum
      (* negation, or other aggregates: always from scratch *)

(* A refresh stratum as the walk uses it, resolved at [create]. *)
type rstratum = {
  heads : view array;  (* the views it defines *)
  support : string list;  (* its transitive support *)
  mode : refresh_mode;
}

type t = {
  program : Ast.program;
  info : Analysis.info;
  (* Where messages, timers, and the clock actually live: the
     virtual-clock simulator by default ({!Transport.of_sim}), real
     sockets under a supervisor ({!Socket.transport}).  All protocol
     logic below is backend-agnostic. *)
  transport : Transport.t;
  nodes : (string, node_state) Hashtbl.t;
  (* Hosted nodes sorted by name: every whole-network iteration (view
     refresh, fact broadcast) walks this array, so message enqueue
     order never depends on hash-table internals, and the refresh walk
     reaches each node without a by-name lookup.  Under the default
     transport this is every topology node; a multi-process run gives
     each runtime its own subset ([?hosted]). *)
  hosted : node_state array;
  (* Predicates computed as refreshed views (aggregate strata and their
     local downstream), sorted by name for deterministic iteration;
     [view_set] is the same collection as a set — membership tests sit
     on per-tuple wire/insert/expiry paths, where a walk of string
     compares is measurable. *)
  views : view array;
  view_set : Sset.t;
  view_program : Ast.program;  (* the rules that define the views *)
  (* Compiled dataflow strands of the pipelined rules, indexed by their
     trigger (delta) predicate: the Click execution model.  The
     compilation is cardinality-independent, so one compiled strand
     serves every batch for the runtime's lifetime. *)
  strands : (string, Ideval.istrand list) Hashtbl.t;
  (* Incremental view refresh: dirty-predicate tracking plus the view
     program's refresh strata, each compiled, with the way it is
     maintained when touched.  Off: the from-scratch refresh, kept as
     the differential oracle. *)
  incremental_views : bool;
  refresh_plan : rstratum list;
  (* The refresh walk's scratch, emptied as a node refresh starts: the
     support tuples added and removed (the node's dirty tuples, then
     each touched stratum's own movement), and each view's movement
     against the previous fixpoint. *)
  walk_added : Flat.t;
  walk_removed : Flat.t;
  moved_adds : int array list array;
  moved_rems : int array list array;
  (* Join counters, split by path (per-runtime: concurrent runtimes
     never interfere): [wire] counts pipelined strand executions —
     inbox flushes and local recursion — [joins] counts view
     refreshes. *)
  joins : Plan.counters;
  wire : Plan.counters;
  (* Whether views refresh on demand (see the header), fixed at
     [create]: no view rule can place its head at another node. *)
  on_demand : bool;
  (* A walk is owed: it is scheduled, or, on demand, it runs at the
     next observation. *)
  mutable refresh_pending : bool;
  (* Wall-clock spent inside [refresh_views], the number of walks, the
     node refreshes they ran and the minor-heap words those allocated:
     the refresh-cost breakdown the benchmarks and the allocation
     budget read. *)
  mutable refresh_wall : float;
  mutable refresh_walks : int;
  mutable refresh_nodes : int;
  mutable refresh_words : float;
}

exception Not_localized of string

type rv_cause =
  | Soft_dependency of string
  | Negation_dependency of string

type remote_view_error = {
  rv_pred : string;
  rv_rule : string;
  rv_cause : rv_cause;
}

exception Remote_view_deletion of remote_view_error

let pp_remote_view_error ppf e =
  match e.rv_cause with
  | Soft_dependency p ->
    Fmt.pf ppf
      "rule %s ships hard view tuples of %s to other nodes, but their \
       support includes soft-state predicate %s: when it expires the \
       remote copies could never be deleted"
      e.rv_rule e.rv_pred p
  | Negation_dependency p ->
    Fmt.pf ppf
      "rule %s ships hard view tuples of %s to other nodes, but their \
       support is negation-dependent (via %s): when the negation flips \
       the remote copies could never be deleted"
      e.rv_rule e.rv_pred p

(* Tuple locations: the localization rewrite ({!Ndlog.Localize}) gives
   every located predicate a location-specifier column, and a tuple's
   owner is the address in it.  The column of each predicate is
   collected from rule heads, facts, and body atoms (last occurrence
   wins — the runtime's program has already passed localization). *)
let loc_index_map (p : Ast.program) : (string, int) Hashtbl.t =
  let m = Hashtbl.create 16 in
  let note pred = function Some i -> Hashtbl.replace m pred i | None -> () in
  List.iter
    (fun (r : Ast.rule) -> note r.Ast.head.Ast.head_pred r.Ast.head.Ast.head_loc)
    p.Ast.rules;
  List.iter (fun (f : Ast.fact) -> note f.Ast.fact_pred f.Ast.fact_loc) p.Ast.facts;
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (a : Ast.atom) -> note a.Ast.pred a.Ast.loc)
        (Ast.body_atoms r.Ast.body))
    p.Ast.rules;
  m

(* Owner address of a tuple for a located predicate ([None] when the
   predicate is unlocated or the tuple too short).
   @raise Value.Type_error if the location value is not an address. *)
let tuple_location (loc : int option) (tuple : Store.Tuple.t) : string option =
  match loc with
  | Some i when i < Array.length tuple -> Some (Value.as_addr tuple.(i))
  | _ -> None

exception
  Missing_tuple_location of {
    mtl_pred : string;
    mtl_tuple : Store.Tuple.t;
  }

let pp_missing_tuple_location ppf (pred, tuple) =
  Fmt.pf ppf
    "internal error: view tuple %s%a reached a ship path without a \
     resolvable location"
    pred Store.Tuple.pp tuple

let () =
  Printexc.register_printer (function
    | Missing_tuple_location { mtl_pred; mtl_tuple } ->
      Some (Fmt.str "%a" pp_missing_tuple_location (mtl_pred, mtl_tuple))
    | _ -> None)


(* Split the program: aggregate rules and every rule transitively
   depending on an aggregate head become "view" rules, refreshed from
   scratch; everything else is pipelined. *)
let split_views (p : Ast.program) : string list * Ast.program * Ast.program =
  let agg_heads =
    List.filter_map
      (fun (r : Ast.rule) ->
        if Ast.has_aggregate r.head then Some r.head.Ast.head_pred else None)
      p.rules
  in
  let rec saturate views =
    let more =
      List.filter_map
        (fun (r : Ast.rule) ->
          let head = r.head.Ast.head_pred in
          if List.mem head views then None
          else if List.exists (fun q -> List.mem q views) (Ast.body_preds r.body)
          then Some head
          else None)
        p.rules
    in
    if more = [] then views else saturate (List.sort_uniq String.compare (views @ more))
  in
  let views = saturate (List.sort_uniq String.compare agg_heads) in
  let view_rules, pipeline_rules =
    List.partition
      (fun (r : Ast.rule) -> List.mem r.head.Ast.head_pred views)
      p.rules
  in
  ( views,
    { p with Ast.rules = view_rules; facts = [] },
    { p with Ast.rules = pipeline_rules } )

(* Whether rule [r] can place its head at another node than the one
   deriving it: its head has a location that is not the body's location
   variable. *)
let remote_capable (r : Ast.rule) =
  let head = r.Ast.head in
  match head.Ast.head_loc with
  | None -> false
  | Some i -> (
    let head_var =
      match List.nth_opt head.Ast.head_args i with
      | Some (Ast.Plain (Ast.Var x)) -> Some x
      | _ -> None
    in
    let body_var =
      List.find_map
        (function
          | Ast.Pos a | Ast.Neg a -> Ndlog.Localize.loc_var_of_atom a
          | _ -> None)
        r.Ast.body
    in
    match head_var, body_var with
    | Some h, Some b -> h <> b
    | _ -> true)

(* The header's promised [check]: view relations are replaced wholesale
   on refresh, so a view tuple stored at another node can only be
   retracted by some mechanism at the receiver.  Soft view predicates
   have one — the lease lapses once the source stops re-deriving (and
   so, under diff shipping, stops re-sending) the tuple.  A hard view
   head shipped away from its deriving node has none; if its support
   can genuinely shrink — a soft-state predicate somewhere below it
   expiring, or a negation flipping as more tuples arrive — the remote
   copy would go stale forever, so such programs are rejected here.
   (Hard views over monotone hard support are allowed: a remote copy of
   a superseded aggregate is the documented stale-view caveat, not a
   deletion.) *)
let check_remote_views (p : Ast.program) (view_program : Ast.program) =
  let soft = Softstate.soft_preds_of p in
  let is_soft pred = List.mem_assoc pred soft in
  let rules_of pred =
    List.filter (fun (r : Ast.rule) -> r.head.Ast.head_pred = pred) p.rules
  in
  let has_neg (r : Ast.rule) =
    List.exists (function Ast.Neg _ -> true | _ -> false) r.body
  in
  (* Walk the support of [preds] under the full program, reporting the
     first soft predicate or negation-carrying derivation found. *)
  let rec support seen = function
    | [] -> None
    | pred :: rest ->
      if List.mem pred seen then support seen rest
      else if is_soft pred then Some (Soft_dependency pred)
      else begin
        let rules = rules_of pred in
        match List.find_opt has_neg rules with
        | Some _ -> Some (Negation_dependency pred)
        | None ->
          support (pred :: seen)
            (List.concat_map (fun (r : Ast.rule) -> Ast.body_preds r.body) rules
            @ rest)
      end
  in
  List.iter
    (fun (r : Ast.rule) ->
      let head = r.head in
      if remote_capable r && not (is_soft head.Ast.head_pred) then begin
        let cause =
          if has_neg r then Some (Negation_dependency head.Ast.head_pred)
          else support [] (Ast.body_preds r.body)
        in
        match cause with
        | None -> ()
        | Some rv_cause ->
          let rv_rule =
            match r.Ast.rule_name with
            | Some n -> n
            | None -> head.Ast.head_pred
          in
          raise
            (Remote_view_deletion
               { rv_pred = head.Ast.head_pred; rv_rule; rv_cause })
      end)
    view_program.Ast.rules

(* The owner named by an id tuple's location column: one array read
   plus an address check, no tuple materialization. *)
let owner_of_ids (loc : int option) (ids : int array) : string option =
  match loc with
  | Some i when i < Array.length ids -> Some (Value.as_addr (Intern.of_id ids.(i)))
  | _ -> None

(* The ship paths below only ever see tuples the remote split filtered
   on [owner_of_ids = Some owner]; a location-less tuple reaching a
   send is an internal invariant violation, reported as a typed error
   carrying the predicate and tuple instead of a bare [Option.get]. *)
let owner_exn loc pred ids =
  match owner_of_ids loc ids with
  | Some owner -> owner
  | None ->
    raise
      (Missing_tuple_location
         { mtl_pred = pred; mtl_tuple = Intern.tuple_of_ids ids })

(* Canonical send order for tuples leaving a node: sorted by boxed
   value, so message enqueue order (and hence the trace) never depends
   on id allocation or hash-set layout. *)
let sort_canonical l = List.sort Intern.compare_ids l

(* Whether view tuple [ids] is located at another node than [ns]. *)
let remote ns v ids =
  match owner_of_ids v.v_loc ids with
  | Some owner -> owner <> ns.name
  | None -> false

(* Send view tuples of [v] from [ns] to their owners, in canonical
   order. *)
let ship t ns v tuples =
  List.iter
    (fun ids ->
      ignore
        (t.transport.Transport.send ~src:ns.name
           ~dst:(owner_exn v.v_loc v.v_pred ids) { pred = v.v_pred; ids }))
    (sort_canonical tuples)

(* The view among [views] named [pred]. *)
let view_named views pred =
  let rec go i =
    let v = views.(i) in
    if v.v_pred == pred || String.equal v.v_pred pred then v else go (i + 1)
  in
  go 0

(* Store a tuple that reached [ns]: a base tuple in [db], a view
   arrival in [received] — never in [db], whose view relations are the
   node's own fixpoint.  [true] when the node did not already hold it;
   for a view tuple, when it did not already show it, as a live
   arrival or a locally-located tuple of its own fixpoint. *)
let store_new t ns pred ids =
  if Sset.mem pred t.view_set then
    Flat.add ns.received pred ids
    && not
         (Flat.mem ns.db pred ids
         && not (remote ns (view_named t.views pred) ids))
  else Flat.add ns.db pred ids

(* A message slot no delivery holds. *)
let no_msg = { pred = ""; ids = [||] }

(* A flush's delta list for [pred], among the few predicates of one
   flush. *)
let rec delta_of pred = function
  | [] -> raise Not_found
  | (p, tuples) :: rest ->
    if p == pred || String.equal p pred then tuples else delta_of pred rest

let rec create ?(seed = 42) ?(incremental_views = true) ?transport ?hosted
    (topo : Netsim.Topology.t) (program : Ast.program) : t =
  (match Ndlog.Localize.check_localized program with
  | Ok () -> ()
  | Error e -> raise (Not_localized (Fmt.str "%a" Ndlog.Localize.pp_error e)));
  let info = Analysis.analyze_exn program in
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Transport.of_sim (Netsim.Sim.create ~seed topo)
  in
  (* The nodes this runtime actually hosts: all of them by default, a
     subset when several runtimes (typically in several processes)
     split the topology between them. *)
  let hosted =
    match hosted with Some l -> l | None -> Netsim.Topology.nodes topo
  in
  List.iter
    (fun n ->
      if not (List.mem n (Netsim.Topology.nodes topo)) then
        invalid_arg ("Dist.Runtime: hosted node not in topology: " ^ n))
    hosted;
  let view_preds, view_program, pipeline_program = split_views program in
  check_remote_views program view_program;
  let locs = loc_index_map view_program in
  let ships v_pred =
    List.exists
      (fun (r : Ast.rule) -> r.head.Ast.head_pred = v_pred && remote_capable r)
      view_program.Ast.rules
  in
  let views =
    Array.of_list
      (List.mapi
         (fun v_idx v_pred ->
           let v_loc =
             if ships v_pred then Hashtbl.find_opt locs v_pred else None
           in
           { v_pred; v_idx; v_loc })
         view_preds)
  in
  let nviews = Array.length views in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace nodes n
        {
          name = n;
          db = Flat.create ();
          expiry = Softstate.Expiry.create program.Ast.decls;
          inserts = 0;
          inbox = Array.make 8 no_msg;
          inbox_len = 0;
          flush_scheduled = false;
          received = Flat.create ();
          renewing = Array.make nviews false;
          dirty_added = [];
          dirty_removed = [];
          sweep_armed = infinity;
          store_cache = None;
        })
    hosted;
  (* Strands by trigger predicate, in program order within each
     trigger's list. *)
  let strands = Hashtbl.create 32 in
  List.iter
    (fun (st : Plan.strand) ->
      let pred = st.Plan.delta.Ast.pred in
      let ist = Ideval.of_strand st in
      Hashtbl.replace strands pred
        (match Hashtbl.find_opt strands pred with
        | Some l -> l @ [ ist ]
        | None -> [ ist ]))
    (Plan.compile_program pipeline_program);
  (* Refresh strata of the view program, bottom-up, each with its
     maintenance mode, compiled once: group-wise re-fold for aggregate
     strata that admit it ({!Ideval.refold_plan}), a compiled stratum
     for the rest — its strands serve both seeding and the from-scratch
     fallback of plain strata. *)
  let view_of pred = List.find (fun v -> v.v_pred = pred) (Array.to_list views) in
  let resolve (rs : Eval.refresh_stratum) =
    let rules = rs.Eval.rs_rules in
    let scratch () = Scratch (Ideval.compile_stratum rules) in
    let mode =
      if rs.Eval.rs_has_neg then scratch ()
      else if rs.Eval.rs_has_agg then begin
        match Ideval.refold_plan rules with
        | Some refolds -> Refold refolds
        | None -> scratch ()
      end
      else Seed (Ideval.compile_stratum rules)
    in
    {
      heads = Array.of_list (List.map view_of rs.Eval.rs_preds);
      support = Sset.elements rs.Eval.rs_support;
      mode;
    }
  in
  let refresh_plan = List.map resolve (Eval.refresh_strata view_program) in
  let on_demand = not (List.exists remote_capable view_program.Ast.rules) in
  let t =
    {
      program = pipeline_program;
      info;
      transport;
      nodes;
      hosted =
        Array.of_list
          (List.map (Hashtbl.find nodes) (List.sort_uniq String.compare hosted));
      views;
      view_set = List.fold_left (fun s p -> Sset.add p s) Sset.empty view_preds;
      view_program;
      strands;
      incremental_views;
      refresh_plan;
      walk_added = Flat.create ();
      walk_removed = Flat.create ();
      moved_adds = Array.make nviews [];
      moved_rems = Array.make nviews [];
      joins = Plan.counters ();
      wire = Plan.counters ();
      on_demand;
      refresh_pending = false;
      refresh_wall = 0.0;
      refresh_walks = 0;
      refresh_nodes = 0;
      refresh_words = 0.0;
    }
  in
  (* Wire the message handler: a received tuple goes through the
     inbox. *)
  List.iter
    (fun n ->
      let ns = Hashtbl.find nodes n in
      t.transport.Transport.set_handler n (fun ~self:_ ~src:_ m ->
          receive t ns m))
    hosted;
  t

and node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> invalid_arg ("Dist.Runtime: unknown node " ^ name)

(* Route a derived head tuple: insert locally or ship its ids. *)
and emit t ns (loc : int option) pred ids =
  match loc with
  | Some i when i < Array.length ids ->
    let owner = Value.as_addr (Intern.of_id ids.(i)) in
    if owner <> ns.name then
      ignore (t.transport.Transport.send ~src:ns.name ~dst:owner { pred; ids })
    else insert_ids t ns pred ids
  | _ -> insert_ids t ns pred ids

(* Pipelined semi-naive: react to freshly inserted tuples by running the
   strands triggered by their predicate over the node's flat store (the
   Click execution model).  Local recursion reacts per tuple, so those
   batches are singletons; message bursts go through [flush], which
   hands each strand the whole per-predicate delta at once.  A strand's
   heads are all collected before any is emitted — emitting can run the
   same strand again — and leave in canonical order. *)
and run_strands t ns pred (delta : int array list) =
  match Hashtbl.find t.strands pred with
  | exception Not_found -> ()
  | strands ->
    List.iter
      (fun ist ->
        let heads = ref [] in
        Ideval.execute_batch ~stats:t.wire ns.db ~delta_tuples:delta ist
          (fun ids -> heads := ids :: !heads);
        let loc = Ideval.head_loc ist and hp = Ideval.head_pred ist in
        List.iter
          (fun ids -> emit t ns loc hp ids)
          (List.sort_uniq Intern.compare_ids !heads))
      strands

(* Whether base-relation changes are recorded: only for an incremental
   refresh, and only when there are views to refresh — a program
   without views never refreshes, and its marks would only pile up. *)
and tracks_dirty t = t.incremental_views && Array.length t.views > 0

(* Record a new tuple's addition for incremental refresh; [true] when
   it is a base tuple and so owes a walk.  A view arrival is not
   recorded and owes none: no rule reads [received], so it cannot
   change any stratum's recomputation. *)
and base_added t ns pred ids =
  (not (Sset.mem pred t.view_set))
  && begin
    if tracks_dirty t then ns.dirty_added <- (pred, ids) :: ns.dirty_added;
    true
  end

(* Refresh the lease of a soft tuple, even when the tuple is known.
   The lease table stays boxed-keyed (it is observable state, compared
   across refresh modes), so only soft tuples are boxed, here. *)
and lease ns ~now pred ids =
  Softstate.Expiry.is_soft ns.expiry pred
  && begin
    ns.expiry <-
      Softstate.Expiry.insert ns.expiry ~now pred (Intern.tuple_of_ids ids);
    true
  end

(* Local insertion of an id tuple: everything on the derivation path —
   membership, storage, dirty tracking, strand triggering — runs on
   ids. *)
and insert_ids t ns pred (ids : int array) =
  if lease ns ~now:(t.transport.Transport.now ()) pred ids then
    schedule_expiry t ns;
  if store_new t ns pred ids then begin
    ns.inserts <- ns.inserts + 1;
    let owed = base_added t ns pred ids in
    run_strands t ns pred [ ids ];
    if owed then request_refresh t
  end

(* A message delivery: the inbox buffers it and a zero-delay flush
   drains every delivery landing at this instant together (the event
   queue breaks time ties in insertion order, so the flush runs after
   all already-enqueued same-time deliveries). *)
and receive t ns (m : msg) =
  if ns.inbox_len = Array.length ns.inbox then begin
    let bigger = Array.make (2 * ns.inbox_len) no_msg in
    Array.blit ns.inbox 0 bigger 0 ns.inbox_len;
    ns.inbox <- bigger
  end;
  ns.inbox.(ns.inbox_len) <- m;
  ns.inbox_len <- ns.inbox_len + 1;
  if not ns.flush_scheduled then begin
    ns.flush_scheduled <- true;
    t.transport.Transport.schedule ~delay:0.0 (fun () -> flush t ns)
  end

(* Drain the inbox: process buffered deliveries in arrival order (lease
   refreshes and insertion bookkeeping see them one by one, as sent),
   then run each triggered strand once with the full per-predicate
   delta of genuinely-new tuples, predicates in first-arrival order.
   Nothing here delivers to an inbox — transports deliver from their
   own event loop — so the inbox is drained in place. *)
and flush t ns =
  ns.flush_scheduled <- false;
  let now = t.transport.Transport.now () in
  let any_soft = ref false and owed = ref false in
  (* The new tuples by predicate, newest predicate first. *)
  let deltas = ref [] and n = ns.inbox_len in
  ns.inbox_len <- 0;
  for i = 0 to n - 1 do
    let { pred; ids } = ns.inbox.(i) in
    ns.inbox.(i) <- no_msg;
    if lease ns ~now pred ids then any_soft := true;
    if store_new t ns pred ids then begin
      ns.inserts <- ns.inserts + 1;
      if base_added t ns pred ids then owed := true;
      match delta_of pred !deltas with
      | tuples -> tuples := ids :: !tuples
      | exception Not_found -> deltas := (pred, ref [ ids ]) :: !deltas
    end
  done;
  if !any_soft then schedule_expiry t ns;
  List.iter
    (fun (pred, tuples) -> run_strands t ns pred !tuples)
    (List.rev !deltas);
  if !owed then request_refresh t

(* Schedule a sweep at the node's next soft-state deadline — unless the
   node's live timer already fires at or before it, in which case that
   timer's own re-arm covers this deadline too (see [sweep_armed]). *)
and schedule_expiry t ns =
  match Softstate.Expiry.next_deadline ns.expiry with
  | None -> ()
  | Some deadline ->
    if deadline < ns.sweep_armed then begin
      ns.sweep_armed <- deadline;
      let delay = max 0.0 (deadline -. t.transport.Transport.now ()) +. 1e-9 in
      t.transport.Transport.schedule ~delay (fun () ->
          if ns.sweep_armed = deadline then begin
            ns.sweep_armed <- infinity;
            sweep t ns
          end)
    end

(* Expire lapsed leases.  The dead-lease list comes straight from the
   expiry table ({!Softstate.Expiry.expired}) and each dead tuple pays
   one boxed-to-id translation — expiry batches are rare and small, so
   this boundary crossing stays off the hot path.  An expired base
   tuple dirties its predicate and joins the node's removed list: the
   next refresh re-folds its group in every aggregate stratum reading
   it, and recomputes from scratch every plain stratum it supports
   (deletions are non-monotone under seeded re-derivation).  A lapsed
   view arrival leaves [received] only and owes no walk: the node's
   own fixpoint keeps whatever it derives.  The sweep always re-arms
   for the next pending deadline: it only drops leases lapsed *now*,
   and without the re-arm later deadlines would only be swept if some
   insertion happened to re-arm the timer. *)
and sweep t ns =
  let now = t.transport.Transport.now () in
  let dead, expiry' = Softstate.Expiry.expired ns.expiry ~now in
  ns.expiry <- expiry';
  let owed = ref false in
  List.iter
    (fun (pred, tuple) ->
      let ids = Intern.tuple_ids tuple in
      if Sset.mem pred t.view_set then ignore (Flat.remove ns.received pred ids)
      else if Flat.remove ns.db pred ids then begin
        owed := true;
        if tracks_dirty t then
          ns.dirty_removed <- (pred, ids) :: ns.dirty_removed
      end)
    dead;
  if !owed then request_refresh t;
  schedule_expiry t ns

(* Owe a view refresh, for a base change.  On demand the walk runs when
   the views are next read ([settle]), once for however many instants
   changed the stores since.  Otherwise it is batched through a
   zero-delay event, so that a burst of insertions at one instant
   triggers one recomputation.  A program without views owes none. *)
and request_refresh t =
  if Array.length t.views > 0 && not t.refresh_pending then begin
    t.refresh_pending <- true;
    if not t.on_demand then
      t.transport.Transport.schedule ~delay:0.0 (fun () ->
          t.refresh_pending <- false;
          refresh_views t)
  end

(* Run the walk an on-demand runtime owes, before its views are read.
   (A scheduled walk is the event loop's to run.) *)
and settle t =
  if t.on_demand && t.refresh_pending then begin
    t.refresh_pending <- false;
    refresh_views t
  end

(* Incremental mode refreshes only nodes with a pending refresh (a
   non-empty dirty list): any other node's store is exactly what its
   last refresh left, so walking it would skip every stratum and
   change nothing — the avoided strata are still credited to
   [strata_skipped] (one addition per walk), keeping the accounting
   identical to the full walk.  The from-scratch oracle
   keeps walking every node (recomputation on an unchanged base is its
   definition of correct, and it has no dirty lists to trust). *)
and refresh_views t =
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let idle = ref 0 in
  Array.iter
    (fun ns ->
      if
        ns.dirty_added <> [] || ns.dirty_removed <> []
        || not t.incremental_views
      then begin
        refresh_node t ns;
        t.refresh_nodes <- t.refresh_nodes + 1
      end
      else incr idle)
    t.hosted;
  Plan.note_strata_skipped t.joins (!idle * List.length t.refresh_plan);
  t.refresh_words <- t.refresh_words +. (Gc.minor_words () -. w0);
  t.refresh_wall <- t.refresh_wall +. (Unix.gettimeofday () -. t0);
  t.refresh_walks <- t.refresh_walks + 1

(* One node's incremental view fixpoint, journaled and in place: the
   working database IS the node's flat store, whose view relations
   hold the previous fixpoint; added and removed support accumulate
   into the walk's two scratch databases, seeded with the node's dirty
   tuples (and emptied in place as the next node refresh starts); and
   per-stratum movement is read off the undo journal.

   The walk visits the refresh strata bottom-up.  [delta] and
   [removed] start from the node's dirty tuples and grow with each
   touched stratum's own movement, so downstream strata see exactly
   the support change that concerns them; a predicate changed since
   the last refresh exactly when one of them holds a tuple of it (a
   dirty addition no longer stored was removed since, so [removed]
   holds it).  Each stratum is brought up to date in one of four ways:
   - skip: its support is unchanged since the last refresh, so its
     previous relations are still its fixpoint;
   - re-fold: a single-atom aggregate stratum re-folds only the groups
     holding an added or removed body tuple
     ({!Ideval.refold_stratum}) — exact for any aggregate kind, inserts
     and removals alike;
   - seed: a plain stratum over purely additive support change runs
     semi-naive iteration from its previous fixpoint
     ({!Ideval.refresh_stratum}), which reaches the same fixpoint as
     from scratch;
   and everything else — negation, other aggregate shapes, plain
   strata whose support lost tuples — falls back to recomputation from
   scratch.

   Each touched stratum's movement against the previous fixpoint is
   recorded per view ([moved_adds] / [moved_rems]).  It is exact
   because each touched stratum's relations equal the previous
   fixpoint at its mark: nothing but a refresh writes a view relation,
   strata never write outside their own [heads], and stratification
   keeps upper (not yet refreshed) relations invisible to lower
   strata's evaluation.  A re-fold replaces at most one head per
   group and a seed only adds, so their journals are already net; only
   a from-scratch stratum, which clears and re-derives, is netted
   ({!Flat.net_since}). *)
and incremental_fresh t ns (db : Flat.t) =
  let delta = t.walk_added and removed = t.walk_removed in
  (* An addition expiry removed since is no longer stored. *)
  List.iter
    (fun (pred, ids) ->
      if Flat.mem db pred ids then ignore (Flat.add delta pred ids))
    ns.dirty_added;
  List.iter
    (fun (pred, ids) -> ignore (Flat.add removed pred ids))
    ns.dirty_removed;
  let changed p = Flat.cardinal delta p > 0 || Flat.cardinal removed p > 0 in
  let rec lost = function
    | [] -> false
    | p :: rest -> Flat.cardinal removed p > 0 || lost rest
  in
  List.iter
    (fun rs ->
      if not (List.exists changed rs.support) then
        (* Untouched: the previous relations are still exact. *)
        Plan.note_strata_skipped t.joins 1
      else begin
        let m = Flat.mark db in
        (match rs.mode with
        | Refold refolds ->
          Plan.note_stratum_refolded t.joins;
          Ideval.refold_stratum ~stats:t.joins db ~refolds ~added:delta
            ~removed;
          Flat.iter_since db m (move t rs.heads)
        | Seed stratum when Flat.is_empty removed || not (lost rs.support) ->
          (* Plain monotone stratum over additive support change:
             purely additive. *)
          Ideval.refresh_stratum ~stats:t.joins db stratum ~delta;
          Flat.iter_since db m (move t rs.heads)
        | Seed stratum | Scratch stratum ->
          (* Negation is non-monotone in its support, and removals are
             non-monotone under seeding: recompute the stratum from
             scratch, its relations starting empty. *)
          Plan.note_refresh_fallback t.joins;
          Array.iter (fun v -> Flat.clear_rel db v.v_pred) rs.heads;
          ignore (Ideval.seminaive_stratum ~stats:t.joins stratum db);
          moved_net t rs.heads (Flat.net_since db m));
        Flat.commit db m;
        Array.iter
          (fun v ->
            List.iter
              (fun ids -> ignore (Flat.add delta v.v_pred ids))
              t.moved_adds.(v.v_idx);
            List.iter
              (fun ids -> ignore (Flat.add removed v.v_pred ids))
              t.moved_rems.(v.v_idx))
          rs.heads
      end)
    t.refresh_plan

(* Record one journaled operation of a stratum defining [views]. *)
and move t views pred ids added =
  let i = (view_named views pred).v_idx in
  if added then t.moved_adds.(i) <- ids :: t.moved_adds.(i)
  else t.moved_rems.(i) <- ids :: t.moved_rems.(i)

and moved_net t views net =
  List.iter
    (fun (pred, adds, rems) ->
      let i = (view_named views pred).v_idx in
      t.moved_adds.(i) <- List.rev_append adds t.moved_adds.(i);
      t.moved_rems.(i) <- List.rev_append rems t.moved_rems.(i))
    net

(* One node's view refresh, run in place on its flat store: the
   fixpoint mutates the view relations under journal marks — the
   incremental stratum walk, or the from-scratch oracle — recording
   the net movement per view, and the commit ships the
   remotely-located part of it: O(changes).  Tuples materialize boxed
   only when a message leaves the node, sorted canonically. *)
and refresh_node t ns =
  let db = ns.db in
  (* The previous walk's scratch, or what one cut short by an exception
     left behind. *)
  Flat.clear t.walk_added;
  Flat.clear t.walk_removed;
  Array.fill t.moved_adds 0 (Array.length t.views) [];
  Array.fill t.moved_rems 0 (Array.length t.views) [];
  if t.incremental_views then begin
    incremental_fresh t ns db;
    ns.dirty_added <- [];
    ns.dirty_removed <- []
  end
  else begin
    let m = Flat.mark db in
    Array.iter (fun v -> Flat.clear_rel db v.v_pred) t.views;
    ignore (Ideval.seminaive ~stats:t.joins t.view_program t.info db);
    moved_net t t.views (Flat.net_since db m);
    Flat.commit db m
  end;
  Array.iter (commit_view t ns) t.views

(* Ship the remotely-located tuples a refresh added to view [v].  A
   shipped *soft* view tuple lives at the receiver on a lease; with
   redeliveries suppressed, the source must renew it for as long as it
   still derives the tuple. *)
and commit_view t ns v =
  match List.filter (remote ns v) t.moved_adds.(v.v_idx) with
  | [] -> ()
  | fresh -> (
    ship t ns v fresh;
    match Softstate.Expiry.lifetime_of ns.expiry v.v_pred with
    | Ast.Lifetime l -> ensure_renewal t ns v l
    | Ast.Lifetime_forever -> ())

(* Lease renewal for soft view tuples shipped to other nodes: at every
   half-lifetime, re-send the remotely-located part of the view's
   relation (the last refresh's remote view) and re-arm.  Once the
   source stops deriving a tuple it leaves the relation, the renewals
   stop, and the receiver's lease lapses — soft-state expiry, at
   renewal cadence instead of per-refresh redelivery. *)
and ensure_renewal t ns v lifetime =
  if not ns.renewing.(v.v_idx) then begin
    ns.renewing.(v.v_idx) <- true;
    t.transport.Transport.schedule ~delay:(lifetime /. 2.0) (fun () ->
        renew t ns v lifetime)
  end

and renew t ns v lifetime =
  ns.renewing.(v.v_idx) <- false;
  let owed = ref [] in
  Flat.iter_rel ns.db v.v_pred (fun ids ->
      if remote ns v ids then owed := ids :: !owed);
  if !owed <> [] then begin
    ship t ns v !owed;
    ensure_renewal t ns v lifetime
  end

(* The public injection entry is the system boundary: tuples arriving
   from outside (the driver, a benchmark's event stream, program facts)
   pay one hash-cons pass translating them to ids.  The internal
   callers ([emit], [flush]) bypass this wrapper: their tuples already
   have ids. *)
let insert t self pred tuple =
  insert_ids t (node t self) pred (Intern.tuple_ids tuple)

(* ------------------------------------------------------------------ *)
(* Driving a run. *)

(* Load the program's facts into their owning nodes (at time zero, via
   zero-delay self events so ordering is deterministic).  Facts owned
   by nodes this runtime does not host are someone else's to load: in a
   multi-process run every worker calls [load_facts] on the same
   program and each fact lands exactly once, at its owner's host. *)
let load_facts t =
  List.iter
    (fun (f : Ast.fact) ->
      let tuple = Array.of_list f.Ast.fact_args in
      match tuple_location f.Ast.fact_loc tuple with
      | Some owner when Hashtbl.mem t.nodes owner ->
        t.transport.Transport.schedule ~delay:0.0 (fun () ->
            insert t owner f.Ast.fact_pred tuple)
      | Some _ -> ()
      | None ->
        (* Unlocated facts are broadcast to every node, in sorted node
           order so the event queue's tie-breaker sees a deterministic
           sequence. *)
        Array.iter
          (fun ns ->
            t.transport.Transport.schedule ~delay:0.0 (fun () ->
                insert t ns.name f.Ast.fact_pred tuple))
          t.hosted)
    t.program.Ast.facts

type run_report = {
  stats : Netsim.Sim.stats;
  total_inserts : int;
  eval_stats : Eval.stats;
  wire_stats : Eval.stats;
  view_stats : Eval.stats;
}

let diff_stats (a : Eval.stats) (b : Eval.stats) : Eval.stats =
  {
    Eval.index_hits = a.Eval.index_hits - b.Eval.index_hits;
    scans = a.Eval.scans - b.Eval.scans;
    enumerated = a.Eval.enumerated - b.Eval.enumerated;
    matched = a.Eval.matched - b.Eval.matched;
    groups = a.Eval.groups - b.Eval.groups;
    delta_tuples = a.Eval.delta_tuples - b.Eval.delta_tuples;
    strata_skipped = a.Eval.strata_skipped - b.Eval.strata_skipped;
    strata_refolded = a.Eval.strata_refolded - b.Eval.strata_refolded;
    refresh_fallbacks = a.Eval.refresh_fallbacks - b.Eval.refresh_fallbacks;
  }

let total_inserts t =
  Hashtbl.fold (fun _ ns acc -> acc + ns.inserts) t.nodes 0

let run ?(until = infinity) ?(max_events = 1_000_000) t =
  (* Strand execution and view refresh accumulate into the runtime's
     own counters; the deltas across the run are this run's join
     profile, with the strand (wire) and view-refresh paths reported
     separately. *)
  let before_joins = Plan.snapshot t.joins in
  let before_wire = Plan.snapshot t.wire in
  let stats = t.transport.Transport.run ~until ~max_events in
  settle t;
  let wire_stats = diff_stats (Plan.snapshot t.wire) before_wire in
  let view_stats = diff_stats (Plan.snapshot t.joins) before_joins in
  {
    stats;
    total_inserts = total_inserts t;
    eval_stats = Eval.add_stats view_stats wire_stats;
    wire_stats;
    view_stats;
  }

(* Boxed view of what a node shows — its store, minus the
   remotely-located view tuples of its fixpoint, plus its live
   arrivals — memoized by the versions of both flat stores: repeated
   observations of a quiescent node pay one materialization. *)
let materialized t ns =
  let vd = Flat.version ns.db and vr = Flat.version ns.received in
  match ns.store_cache with
  | Some (vd', vr', s) when vd' = vd && vr' = vr -> s
  | _ ->
    let own =
      Array.fold_left
        (fun s v ->
          if v.v_loc = None then s
          else
            Store.set_relation v.v_pred
              (Store.Tset.filter
                 (fun tuple -> tuple_location v.v_loc tuple = Some ns.name)
                 (Store.relation v.v_pred s))
              s)
        (Flat.to_store ns.db) t.views
    in
    let s =
      if Flat.is_empty ns.received then own
      else Store.union own (Flat.to_store ns.received)
    in
    ns.store_cache <- Some (vd, vr, s);
    s

(* The union of all node stores: the global database the distributed
   execution computed; comparable against the centralized evaluator. *)
let global_store t =
  settle t;
  Hashtbl.fold (fun _ ns acc -> Store.union (materialized t ns) acc) t.nodes
    Store.empty

let node_store t name =
  let ns = node t name in
  settle t;
  materialized t ns

(* Introspection for the incremental-refresh test harness. *)
let dirty_preds t name =
  let ns = node t name in
  List.sort_uniq String.compare
    (List.rev_map fst (List.rev_append ns.dirty_added ns.dirty_removed))

let refresh_strata t =
  List.map
    (fun rs ->
      ( Array.to_list (Array.map (fun v -> v.v_pred) rs.heads),
        match rs.mode with
        | Seed _ -> `Seed
        | Refold _ -> `Refold
        | Scratch _ -> `Scratch ))
    t.refresh_plan
let node_leases t name = Softstate.Expiry.bindings (node t name).expiry
let refreshes_on_demand t = t.on_demand
let refresh_seconds t = t.refresh_wall
let refresh_walks t = t.refresh_walks
let refresh_nodes t = t.refresh_nodes
let refresh_words t = t.refresh_words

let simulator t =
  match t.transport.Transport.sim with
  | Some sim -> sim
  | None ->
    invalid_arg
      "Dist.Runtime.simulator: this runtime is not backed by the simulator \
       transport"
