(* The Unix-domain-socket transport: one reactor per OS process,
   hosting a subset of the topology's nodes and speaking {!Wire}
   frames to peer processes over pre-connected stream sockets.

   The reactor owns a wall-clock timer queue (reusing the simulator's
   deterministic {!Netsim.Event_queue}, with times relative to the
   reactor's epoch) and a per-connection incremental decoder; its loop
   alternates running due timers with [select]-ing over peer sockets,
   so a burst of same-instant deliveries drains into the runtime's
   inbox before the zero-delay flush timer fires — the same batching
   the simulator's tie-ordered event queue produces.

   Send is topology-gated exactly as the simulator's is: a message
   without a live [src -> dst] link is counted dropped and never
   written, so a localized program sees the same connectivity it would
   in simulation.  (Link loss probability is NOT simulated on real
   sockets — the wire is reliable; loss experiments belong to the
   simulator backend.)

   Cross-process frames carry canonical boxed values only: outgoing
   messages are boxed and arriving tuples re-interned here, at the
   boundary, because interned-id spaces are per-process ({!Wire}).
   Dead peers surface as EOF — mid-frame EOF raises a typed
   truncation — and the supervisor puts a deadline around every
   control read ({!Wire.read_frame}). *)

module Intern = Ndlog.Intern

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  mutable eof : bool;
}

type t = {
  topo : Netsim.Topology.t;
  hosted : (string, unit) Hashtbl.t;
  (* Foreign node -> the socket to the process hosting it (processes
     hosting several nodes appear once per node, same fd). *)
  route : (string, Unix.file_descr) Hashtbl.t;
  conns : conn list;  (* deduplicated peer sockets *)
  control : conn option;  (* the supervisor channel, when attached *)
  handlers : (string, self:string -> src:string -> Wire.msg -> unit) Hashtbl.t;
  timers : (unit -> unit) Netsim.Event_queue.t;
  epoch : float;
  chunk : Bytes.t;
  mutable sent : int;  (* data frames written to peers *)
  mutable received : int;  (* data frames dispatched *)
  mutable dropped : int;  (* sends with no live link *)
  mutable bytes_out : int;
  mutable events : int;  (* timers fired + frames dispatched *)
  mutable stop : bool;
}

let create ~(topo : Netsim.Topology.t) ~hosted ~peers ?control () =
  let hosted_tbl = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace hosted_tbl n ()) hosted;
  let route = Hashtbl.create 16 in
  let conns = ref [] in
  let conn_of fd =
    match List.find_opt (fun c -> c.fd == fd) !conns with
    | Some c -> c
    | None ->
      let c = { fd; dec = Wire.Decoder.create (); eof = false } in
      conns := c :: !conns;
      c
  in
  List.iter
    (fun (node, fd) ->
      Hashtbl.replace route node fd;
      ignore (conn_of fd))
    peers;
  {
    topo;
    hosted = hosted_tbl;
    route;
    conns = List.rev !conns;
    control =
      Option.map (fun fd -> { fd; dec = Wire.Decoder.create (); eof = false })
        control;
    handlers = Hashtbl.create 4;
    timers = Netsim.Event_queue.create ();
    epoch = Unix.gettimeofday ();
    chunk = Bytes.create 65536;
    sent = 0;
    received = 0;
    dropped = 0;
    bytes_out = 0;
    events = 0;
    stop = false;
  }

let now t = Unix.gettimeofday () -. t.epoch

(* Local clock, counters, shape queries. *)
let sent t = t.sent
let received t = t.received
let bytes_out t = t.bytes_out

let idle t =
  Netsim.Event_queue.is_empty t.timers
  && List.for_all (fun c -> Wire.Decoder.buffered c.dec = 0) t.conns

let stop t = t.stop <- true

(* ------------------------------------------------------------------ *)
(* Dispatch. *)

let deliver t ~src ~dst (m : Wire.msg) =
  match Hashtbl.find_opt t.handlers dst with
  | None -> ()
  | Some h ->
    t.events <- t.events + 1;
    h ~self:dst ~src m

let dispatch t ~on_control = function
  | Wire.Data { src; dst; pred; tuple } ->
    t.received <- t.received + 1;
    (* The boundary translation: interned into this process's ids. *)
    deliver t ~src ~dst { Wire.pred; ids = Intern.tuple_ids tuple }
  | f -> on_control f

(* Drain one readable connection: read a chunk, feed the decoder, and
   dispatch every complete frame.  EOF with a partial frame buffered is
   a typed truncation; EOF at a frame boundary just retires the
   connection (the peer said everything it had to say). *)
let read_conn t ~on_control c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 ->
    c.eof <- true;
    if Wire.Decoder.buffered c.dec > 0 then
      raise (Wire.Frame_error Wire.Truncated_stream)
  | n ->
    Wire.Decoder.feed c.dec t.chunk 0 n;
    let rec drain () =
      match Wire.Decoder.next c.dec with
      | Some f ->
        dispatch t ~on_control f;
        drain ()
      | None -> ()
    in
    drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run_due_timers t =
  let rec go () =
    if
      (not (Netsim.Event_queue.is_empty t.timers))
      && Netsim.Event_queue.next_time t.timers <= now t
    then begin
      let f = Netsim.Event_queue.take t.timers in
      t.events <- t.events + 1;
      f ();
      go ()
    end
  in
  go ()

(* One reactor turn: timers due now, then [on_idle] when nothing is
   left to do, then at most one select round.  Returns whether anything
   could still happen (live input or pending timers). *)
let turn t ~on_control ~on_idle ~max_wait =
  run_due_timers t;
  if t.stop then false
  else begin
    if idle t then on_idle ();
    let live =
      List.filter_map
        (fun c -> if c.eof then None else Some c)
        (t.conns @ match t.control with Some c -> [ c ] | None -> [])
    in
    let timeout =
      Float.min max_wait
        (Float.max 0.0 (Netsim.Event_queue.next_time t.timers -. now t))
    in
    if live = [] then not (Netsim.Event_queue.is_empty t.timers)
    else begin
      (match Unix.select (List.map (fun c -> c.fd) live) [] [] timeout with
      | ready, _, _ ->
        List.iter
          (fun c -> if List.memq c.fd ready then read_conn t ~on_control c)
          live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      true
    end
  end

(* Serve until told to stop: the worker's main loop.  Control frames
   (anything that is not [Data]) go to [on_control]; a [Bye] handler
   there calls {!stop}.  [on_idle] runs at most once per idle spell:
   when the reactor is idle and has fired or dispatched something since
   the last call — the first idle moment always counts, so a node that
   never hears from anyone still reports once. *)
let serve t ~on_control ~on_idle =
  let reported = ref (-1) in
  let on_idle () =
    if t.events <> !reported then begin
      reported := t.events;
      on_idle ()
    end
  in
  let rec loop () =
    if turn t ~on_control ~on_idle ~max_wait:0.05 then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The transport closure set. *)

let send t ~src ~dst (m : Wire.msg) =
  match Netsim.Topology.link t.topo src dst with
  | Some l when l.Netsim.Topology.up ->
    if Hashtbl.mem t.hosted dst then begin
      (* Co-hosted destination: loop back through a zero-delay timer so
         arrival ordering relative to already-scheduled work matches
         the simulator's tie-ordered queue. *)
      Netsim.Event_queue.push t.timers ~time:(now t) (fun () ->
          deliver t ~src ~dst m);
      true
    end
    else begin
      match Hashtbl.find_opt t.route dst with
      | Some fd ->
        t.bytes_out <-
          t.bytes_out
          + Wire.write_frame fd
              (Wire.Data
                 {
                   src;
                   dst;
                   pred = m.Wire.pred;
                   tuple = Intern.tuple_of_ids m.Wire.ids;
                 });
        t.sent <- t.sent + 1;
        true
      | None ->
        t.dropped <- t.dropped + 1;
        false
    end
  | _ ->
    t.dropped <- t.dropped + 1;
    false

let transport t : Transport.t =
  {
    Transport.now = (fun () -> now t);
    send = (fun ~src ~dst m -> send t ~src ~dst m);
    schedule =
      (fun ~delay f ->
        Netsim.Event_queue.push t.timers ~time:(now t +. delay) f);
    set_handler = (fun node h -> Hashtbl.replace t.handlers node h);
    run =
      (fun ~until ~max_events ->
        (* Drive data traffic and timers until locally idle (one empty
           select round with nothing pending), a wall deadline, or an
           event budget.  Workers under a supervisor use {!serve}
           instead — this entry serves self-contained runs. *)
        let deadline =
          if until = infinity then infinity else now t +. until
        in
        let start_events = t.events in
        let start_sent = t.sent and start_recv = t.received in
        let start_dropped = t.dropped in
        let quiesced = ref false in
        let budget () = t.events - start_events < max_events in
        let rec loop () =
          if t.stop || (not (budget ())) || now t > deadline then ()
          else if idle t then begin
            (* One short grace round: anything already in flight lands
               here; a second consecutive idle observation quiesces. *)
            ignore (turn t ~on_control:ignore ~on_idle:ignore ~max_wait:0.02);
            if idle t then quiesced := true else loop ()
          end
          else if turn t ~on_control:ignore ~on_idle:ignore ~max_wait:0.05
          then loop ()
          else quiesced := true
        in
        loop ();
        {
          Netsim.Sim.final_time = now t;
          events = t.events - start_events;
          messages_sent = t.sent - start_sent;
          messages_delivered = t.received - start_recv;
          messages_dropped = t.dropped - start_dropped;
          quiesced = !quiesced;
        });
    sim = None;
  }
