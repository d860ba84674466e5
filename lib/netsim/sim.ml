(* The discrete-event network simulator.

   A simulation couples a {!Topology} with an {!Event_queue}.  Nodes
   register a message handler; [send] enqueues a delivery after the
   link's propagation delay (messages on down links are dropped and
   counted).  [schedule] posts arbitrary timed callbacks (timers, link
   failures, protocol ticks).  [run] processes events in deterministic
   order until quiescence, a time horizon, or an event budget — the
   event budget is how non-converging protocols (count-to-infinity) are
   detected rather than looped on forever. *)

type 'msg event =
  | Deliver of { src : string; dst : string; msg : 'msg }
  | Callback of (unit -> unit)

type 'msg t = {
  topo : Topology.t;
  queue : 'msg event Event_queue.t;
  handlers : (string, 'msg t -> self:string -> src:string -> 'msg -> unit) Hashtbl.t;
  mutable now : float;
  mutable delivered : int;
  mutable dropped : int;
  mutable sent : int;
  mutable processed : int;
  mutable trace : (float * string) list;  (* reversed *)
  mutable tracing : bool;
  rng : Random.State.t;
}

let create ?(seed = 42) topo =
  {
    topo;
    queue = Event_queue.create ();
    handlers = Hashtbl.create 16;
    now = 0.0;
    delivered = 0;
    dropped = 0;
    sent = 0;
    processed = 0;
    trace = [];
    tracing = false;
    rng = Random.State.make [| seed |];
  }

let now t = t.now
let topology t = t.topo
let rng t = t.rng

let set_tracing t b = t.tracing <- b

let record t fmt =
  Format.kasprintf
    (fun s -> if t.tracing then t.trace <- (t.now, s) :: t.trace)
    fmt

let trace t = List.rev t.trace

let set_handler t node h = Hashtbl.replace t.handlers node h

(* Send [msg] from [src] to [dst].  Returns false (and counts a drop)
   when there is no live link. *)
let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  match Topology.link t.topo src dst with
  | Some l when l.Topology.up ->
    if l.Topology.loss > 0.0 && Random.State.float t.rng 1.0 < l.Topology.loss
    then begin
      t.dropped <- t.dropped + 1;
      record t "loss %s->%s" src dst;
      false
    end
    else begin
      if t.tracing then record t "send %s->%s" src dst;
      Event_queue.push t.queue ~time:(t.now +. l.Topology.delay)
        (Deliver { src; dst; msg });
      true
    end
  | Some _ | None ->
    t.dropped <- t.dropped + 1;
    record t "drop %s->%s" src dst;
    false

(* Deliver without requiring a link (control-plane style injection). *)
let inject t ~delay ~src ~dst msg =
  Event_queue.push t.queue ~time:(t.now +. delay) (Deliver { src; dst; msg })

let schedule t ~delay f =
  Event_queue.push t.queue ~time:(t.now +. delay) (Callback f)

let at t ~time f =
  Event_queue.push t.queue ~time:(max time t.now) (Callback f)

type stats = {
  final_time : float;
  events : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  quiesced : bool;  (* the event queue drained before any limit hit *)
}

let step t =
  (not (Event_queue.is_empty t.queue))
  && begin
    t.now <- Event_queue.next_time t.queue;
    t.processed <- t.processed + 1;
    (match Event_queue.take t.queue with
    | Deliver { src; dst; msg } -> (
      t.delivered <- t.delivered + 1;
      if t.tracing then record t "deliver %s->%s" src dst;
      match Hashtbl.find t.handlers dst with
      | h -> h t ~self:dst ~src msg
      | exception Not_found -> record t "no handler at %s" dst)
    | Callback f -> f ());
    true
  end

let run ?(until = infinity) ?(max_events = 1_000_000) t =
  (* All four counters in the returned stats are per-run: deltas against
     the state at entry.  ([events] always was; the three message
     counters used to leak the simulation-lifetime totals, so a second
     [run] on the same sim reported phantom traffic.) *)
  let start_processed = t.processed in
  let start_sent = t.sent in
  let start_delivered = t.delivered in
  let start_dropped = t.dropped in
  let rec loop () =
    if t.processed - start_processed >= max_events then false
    else if Event_queue.is_empty t.queue then true
    else if Event_queue.next_time t.queue > until then false
    else begin
      ignore (step t);
      loop ()
    end
  in
  let quiesced = loop () in
  {
    final_time = t.now;
    events = t.processed - start_processed;
    messages_sent = t.sent - start_sent;
    messages_delivered = t.delivered - start_delivered;
    messages_dropped = t.dropped - start_dropped;
    quiesced;
  }

(* Failure injection helpers: schedule a duplex link going down/up. *)
let fail_link_at t ~time a b =
  at t ~time (fun () ->
      record t "link %s<->%s down" a b;
      Topology.fail_duplex t.topo a b)

let restore_link_at t ~time a b =
  at t ~time (fun () ->
      record t "link %s<->%s up" a b;
      Topology.restore_duplex t.topo a b)
