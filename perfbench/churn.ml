(* churn: a soft-state router under sustained link and route churn.

   The program is the bounded path-vector protocol with a promise-audit
   rule, every predicate on a lease, on a ring with chords.  One client
   runs a closed loop: inject one link offer or route promise, run the
   runtime up to that event's instant, then the next event.  An
   operation is one pass of the stream, in which every node has its
   turn; its latency is the sum of its events'.  View
   refresh, lease expiry and renewal, and small-delta strand execution
   do the work; compile, logic and the model checker do none. *)

open Common

let n = 96
let dt = 1.0

(* Each node offers once per pass of 2n events; the lease outlives the
   longest gap between two kept offers (< 4n) but not a withheld one. *)
let lifetime = 5 * n

(* Events per operation: one pass. *)
let pass = 2 * n

(* Events replayed on the from-scratch refresh oracle after the window. *)
let checkpoint = 2000
let warmup_passes = 5
let node i = Ndlog.Programs.node (((i mod n) + n) mod n)

let source ~chord =
  let decl p = Printf.sprintf "materialize(%s, %d)." p lifetime in
  String.concat "\n"
    ([
       decl "link"; decl "path"; decl "bestPathCost"; decl "bestPath";
       decl "promise"; decl "audit";
       {|
r1 path(@S,D,P,C,H) :- link(@S,D,C), P=f_init(S,D), H=1.
r2 path(@S,D,P,C,H) :- link(@S,Z,C1), path(@Z,D,P2,C2,H2),
                       C=C1+C2, P=f_concatPath(S,P2),
                       f_inPath(P2,S)=false, H=H2+1, H2<2.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C,H).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C,H).
r5 audit(@S,D,P) :- promise(@S,P,D), path(@S,D,P,C,H).
|};
       Layer.link_lines
         (List.concat
            (List.init n (fun i ->
                 [ (node i, node (i + 1), 1); (node i, node (i + chord), 1) ]
               )));
     ])

(* The seeded event stream.  Each pass visits the nodes in a fresh
   random order; a node's turn is a link offer (to its ring or chord
   neighbour, at a flapping cost) followed by a route promise (a ring or
   chord route).  A quarter of offers and promises are withheld, so
   leases lapse and the next offer is new. *)
type stream = { st : Random.State.t; chord : int; perm : int array }

let stream ~seed ~chord =
  { st = Random.State.make [| seed; 0xc4 |]; chord; perm = Array.init n Fun.id }

let next s e =
  let st = s.st in
  if e mod (2 * n) = 0 then
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = s.perm.(i) in
      s.perm.(i) <- s.perm.(j);
      s.perm.(j) <- x
    done;
  let i = s.perm.(e / 2 mod n) in
  let withheld = Random.State.int st 4 = 0 in
  let ring = Random.State.bool st in
  let ev =
    if e land 1 = 0 then
      let hop = if ring then 1 else s.chord in
      let cost = 1 + Random.State.int st 3 in
      ( "link",
        [| Ndlog.Value.Addr (node i); Ndlog.Value.Addr (node (i + hop));
           Ndlog.Value.Int cost |] )
    else
      let hop = if ring then 1 else s.chord in
      let dst = node (i + (2 * hop)) in
      ( "promise",
        [|
          Ndlog.Value.Addr (node i);
          Ndlog.Value.List
            [ Ndlog.Value.Addr (node i); Ndlog.Value.Addr (node (i + hop));
              Ndlog.Value.Addr dst ];
          Ndlog.Value.Addr dst;
        |] )
  in
  if withheld then None else Some (node i, ev)

(* What must repeat exactly for a seed: the stores and the counters
   summed over every [Runtime.run] report up to the checkpoint. *)
type digest = {
  global : Ndlog.Store.t;
  nodes : (string * Ndlog.Store.t) list;
  inserts : int;
  messages : int;
  sim_events : int;
}

let digest rt ~messages ~sim_events =
  {
    global = Dist.Runtime.global_store rt;
    nodes = List.init n (fun i -> (node i, Dist.Runtime.node_store rt (node i)));
    inserts = Dist.Runtime.total_inserts rt;
    messages;
    sim_events;
  }

let same a b =
  Ndlog.Store.equal a.global b.global
  && List.for_all2
       (fun (x, s) (y, t) -> x = y && Ndlog.Store.equal s t)
       a.nodes b.nodes
  && a.inserts = b.inserts && a.messages = b.messages
  && a.sim_events = b.sim_events

(* [step e] drives event [e] of the stream through [rt] and returns
   its latency; the digest is taken once the first [checkpoint] events
   are done. *)
let event_step r rt s =
  let messages = ref 0 and sim_events = ref 0 and saved = ref None in
  let step e =
    let ev = next s e in
    let t0 = now () in
    (match ev with
    | Some (nd, (pred, tuple)) -> Layer.insert r rt nd pred tuple
    | None -> ());
    let rep = Layer.run r ~until:(float_of_int (e + 1) *. dt) rt in
    let t1 = now () in
    let st = rep.Dist.Runtime.stats in
    messages := !messages + st.Netsim.Sim.messages_sent;
    sim_events := !sim_events + st.Netsim.Sim.events;
    if e + 1 = checkpoint then
      saved := Some (digest rt ~messages:!messages ~sim_events:!sim_events);
    t1 - t0
  in
  (step, saved)

let run r ~seed ~seconds =
  let chord = 3 + Random.State.int (Random.State.make [| seed; 0xc0 |]) 5 in
  let src = source ~chord in
  let rt = setups r ~k:101 (fun () -> Layer.start r (Layer.compile r src)) in
  let step, saved = event_step r rt (stream ~seed ~chord) in
  let event_ns = ref [] in
  let op p =
    let ns = ref 0 in
    for e = p * pass to ((p + 1) * pass) - 1 do
      let t = step e in
      if p >= warmup_passes && not (tracing r) then event_ns := t :: !event_ns;
      ns := !ns + t
    done;
    !ns
  in
  let passes = measure r ~seconds ~warmup:warmup_passes ~block:5 op in
  let lat = sorted_of_list (List.map float_of_int !event_ns) in
  note r "events_per_s"
    (float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e9))
    "1/s";
  note r "event_p50_us" (percentile lat 0.5 /. 1e3) "us";
  note r "event_p99_us" (percentile lat 0.99 /. 1e3) "us";
  note r "events" (float_of_int (passes * pass)) "count";
  check r "churn window reached the checkpoint" (!saved <> None);
  match !saved with
  | None -> ()
  | Some d ->
    note r "checkpoint_messages" (float_of_int d.messages) "count";
    note r "checkpoint_inserts" (float_of_int d.inserts) "count";
    note r "checkpoint_tuples"
      (float_of_int (Ndlog.Store.total_tuples d.global))
      "count";
    check r "churn sends messages" (d.messages > 0);
    (* The same stream on the from-scratch refresh oracle, untraced. *)
    let quiet = create_run ~traced:false in
    let oracle =
      Layer.start quiet ~incremental_views:false (Layer.compile quiet src)
    in
    let step, saved = event_step quiet oracle (stream ~seed ~chord) in
    for e = 0 to checkpoint - 1 do
      ignore (step e)
    done;
    check r "churn matches the from-scratch refresh oracle at the checkpoint"
      (match !saved with Some o -> same d o | None -> false)
