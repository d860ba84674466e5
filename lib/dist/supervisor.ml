(* The node supervisor: real processes over real sockets.

   [run] forks one worker process per topology node.  Each worker
   builds a {!Socket} reactor over a pre-connected full mesh of
   [Unix.socketpair] streams (created before forking, so there are no
   listener or connect races), hosts its node in a {!Runtime} on that
   transport, loads the program's facts for the nodes it hosts, and
   serves until told to exit.  The program and topology reach the
   workers through the fork's heap — nothing is serialized to start a
   run; only tuples cross process boundaries afterwards.

   Quiescence is pushed, then confirmed.  A worker's reactor calls
   back each time it goes idle (no pending timers, no partial input)
   after having fired a timer or dispatched a frame — and once at its
   first idle moment regardless — and the worker writes an [Idle]
   report of its {!Wire.status} (the idle flag plus monotone sent and
   received data-frame counters) to its control channel.  The
   supervisor blocks in [select] on those channels, keeping each
   worker's latest report.  When every worker has reported, every
   report is idle, and the global sum of sent frames equals the global
   sum of received frames (a frame in flight makes them differ), the
   reports form a candidate vector, and the supervisor sends one [Poll]
   wave.  The run has converged iff the [Status] replies equal the
   candidate.  That is Mattern's four-counter test: two snapshots, the
   second begun only after the first was wholly read (each channel is
   FIFO, so every reply is taken after its worker's candidate report
   was consumed), and identical monotone counters in both mean no
   frame moved in between.  The wave is what guards against reports
   taken at different instants — a worker idle when it reported may
   have been woken since.  Replies that differ become the latest
   vector and the check reruns at once.  A clean run costs one wave.

   This is sound for programs that terminate: hard-state protocols
   (the path-vector demo) reach a fixpoint and stop sending.
   Soft-state programs with perpetual renewal timers never go idle in
   wall-clock time, so they end in {!Convergence_timeout} — run those
   on the simulator backend, whose virtual clock makes "forever"
   cheap.

   One [timeout] bounds the whole convergence wait and every control
   read ({!Wire.read_frame}): a worker that hangs fails the run with a
   typed error, and one that dies closes its channel (a typed
   truncation).  After convergence the supervisor collects each
   worker's final store ([Dump] / [Store_dump]) — every [Dump] goes out
   before any reply is read, so the workers build their dumps (and run
   the view refresh a dump reads) in parallel — dismisses the workers
   ([Bye]), and reaps them; on failure it kills and reaps them.  The
   control channels close on every exit path. *)

module Store = Ndlog.Store
module Intern = Ndlog.Intern

type worker = {
  w_pid : int;
  w_node : string;
  w_ctl : Unix.file_descr;  (* the supervisor's end of the control pair *)
}

type result = {
  stores : (string * Store.t) list;  (* per node, the final fixpoint *)
  wall_seconds : float;  (* fork to detected convergence *)
  data_frames : int;  (* cross-process data frames, summed over workers *)
  data_bytes : int;  (* their wire bytes, length prefixes included *)
  total_inserts : int;  (* tuple insertions, summed over workers *)
  polls : int;  (* confirmation waves until convergence *)
  workers : int;
}

exception Convergence_timeout of {
  polls : int;
  last : (string * Wire.status) list;
}

let () =
  Printexc.register_printer (function
    | Convergence_timeout { polls; last } ->
      Some
        (Fmt.str
           "Dist.Supervisor: no convergence in time (%d confirmation waves, \
            %d workers reported idle)"
           polls
           (List.length (List.filter (fun (_, st) -> st.Wire.st_idle) last)))
    | _ -> None)

(* The worker body: never returns.  Exceptions become a nonzero exit
   status (the supervisor's next control read then times out or sees
   EOF, failing the run with context on stderr). *)
let worker_main ~topo ~program ~self ~peers ~ctl =
  let exit_code =
    try
      let reactor =
        Socket.create ~topo ~hosted:[ self ] ~peers ~control:ctl ()
      in
      let rt =
        Runtime.create ~transport:(Socket.transport reactor) ~hosted:[ self ]
          topo program
      in
      Runtime.load_facts rt;
      let status () =
        {
          Wire.st_idle = Socket.idle reactor;
          st_sent = Socket.sent reactor;
          st_received = Socket.received reactor;
          st_bytes = Socket.bytes_out reactor;
          st_inserts = Runtime.total_inserts rt;
        }
      in
      let report frame = ignore (Wire.write_frame ctl frame) in
      Socket.serve reactor
        ~on_idle:(fun () -> report (Wire.Idle (status ())))
        ~on_control:(function
        | Wire.Poll -> report (Wire.Status (status ()))
        | Wire.Dump ->
          let store = Runtime.node_store rt self in
          let rels =
            List.map (fun p -> (p, Store.tuples p store)) (Store.preds store)
          in
          report (Wire.Store_dump [ (self, rels) ])
        | Wire.Bye -> Socket.stop reactor
        | _ -> ());
      0
    with e ->
      Printf.eprintf "[fvnd worker %s] %s\n%!" self (Printexc.to_string e);
      1
  in
  Unix._exit exit_code

let frame_kind = function
  | Wire.Data _ -> "Data"
  | Wire.Poll -> "Poll"
  | Wire.Status _ -> "Status"
  | Wire.Idle _ -> "Idle"
  | Wire.Dump -> "Dump"
  | Wire.Store_dump _ -> "Store_dump"
  | Wire.Bye -> "Bye"

let unexpected w f =
  failwith
    (Fmt.str "Dist.Supervisor: unexpected %s frame from worker %s"
       (frame_kind f) w.w_node)

let kill_all workers =
  List.iter
    (fun w ->
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    workers

let run ?(timeout = 10.0) (topo : Netsim.Topology.t) (program : Ndlog.Ast.program) : result =
  let nodes = List.sort String.compare (Netsim.Topology.nodes topo) in
  let n = List.length nodes in
  if n < 2 then invalid_arg "Dist.Supervisor.run: need at least two nodes";
  let node = Array.of_list nodes in
  (* Pre-connect everything before the first fork: a full mesh of
     socketpairs between workers ([mesh.(i).(j)] is i's end of the
     i<->j stream) plus one control pair per worker.  Whether a pair
     ever carries traffic is the topology's business — sends are
     link-gated in the reactor. *)
  let mesh = Array.make_matrix n n Unix.stdin in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      mesh.(i).(j) <- a;
      mesh.(j).(i) <- b
    done
  done;
  let ctl = Array.init n (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  (* Buffered output duplicated into children would print twice. *)
  flush stdout;
  flush stderr;
  let t0 = Unix.gettimeofday () in
  let spawn i =
    match Unix.fork () with
    | 0 ->
      (* Child i: keep its mesh row and its control end, close every
         other inherited socket. *)
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if a <> i && b <> i then begin
            Unix.close mesh.(a).(b);
            Unix.close mesh.(b).(a)
          end
          else begin
            (* The far end of this child's own pairs belongs to the
               other worker. *)
            let far = if a = i then mesh.(b).(a) else mesh.(a).(b) in
            Unix.close far
          end
        done
      done;
      Array.iteri
        (fun j (sup_end, w_end) ->
          Unix.close sup_end;
          if j <> i then Unix.close w_end)
        ctl;
      let peers =
        List.filteri (fun j _ -> j <> i) (List.mapi (fun j nm -> (nm, mesh.(i).(j))) nodes)
      in
      worker_main ~topo ~program ~self:node.(i) ~peers ~ctl:(snd ctl.(i))
    | pid -> { w_pid = pid; w_node = node.(i); w_ctl = fst ctl.(i) }
  in
  let workers = List.init n spawn in
  (* Supervisor: the mesh and the workers' control ends are the
     children's now. *)
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      Unix.close mesh.(a).(b);
      Unix.close mesh.(b).(a)
    done
  done;
  Array.iter (fun (_, w_end) -> Unix.close w_end) ctl;
  (* The supervisor's control ends close on every exit — convergence,
     timeout, or a failed worker — so repeated runs leak no
     descriptors. *)
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun w -> try Unix.close w.w_ctl with Unix.Unix_error _ -> ())
        workers)
  @@ fun () ->
  let deadline = t0 +. timeout in
  (* The next frame from [w] that [pick] accepts.  [Idle] reports the
     worker pushed before it read the request are older news than the
     reply (the channel is FIFO) and are skipped. *)
  let rec reply w pick =
    match Wire.read_frame ~timeout w.w_ctl with
    | Wire.Idle _ -> reply w pick
    | f -> ( match pick f with Some v -> v | None -> unexpected w f)
  in
  (* Each worker's latest status, pushed ([Idle]) or polled ([Status]),
     by worker index. *)
  let latest = Array.make n None in
  (* The candidate vector: every worker has reported, every report is
     idle, and every data frame sent has been received. *)
  let candidate () =
    if not (Array.for_all Option.is_some latest) then None
    else
      let snap = Array.to_list (Array.map Option.get latest) in
      if
        List.for_all (fun st -> st.Wire.st_idle) snap
        && List.fold_left (fun a st -> a + st.Wire.st_sent) 0 snap
           = List.fold_left (fun a st -> a + st.Wire.st_received) 0 snap
      then Some snap
      else None
  in
  let timed_out polls =
    Convergence_timeout
      {
        polls;
        last =
          List.filter_map
            (fun i -> Option.map (fun st -> (node.(i), st)) latest.(i))
            (List.init n Fun.id);
      }
  in
  let ctl_fds = List.map (fun w -> w.w_ctl) workers in
  let rec converge polls =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise (timed_out polls);
    match candidate () with
    | Some snap ->
      (* Confirm with one wave.  Every reply is taken after the whole
         candidate vector was read, so replies equal to it mean no
         worker moved in between. *)
      List.iter (fun w -> ignore (Wire.write_frame w.w_ctl Wire.Poll)) workers;
      let replies =
        List.map
          (fun w -> reply w (function Wire.Status st -> Some st | _ -> None))
          workers
      in
      if replies = snap then (snap, polls + 1)
      else begin
        List.iteri (fun i st -> latest.(i) <- Some st) replies;
        converge (polls + 1)
      end
    | None ->
      (match Unix.select ctl_fds [] [] remaining with
      | ready, _, _ ->
        List.iteri
          (fun i w ->
            if List.memq w.w_ctl ready then
              match Wire.read_frame ~timeout w.w_ctl with
              | Wire.Idle st -> latest.(i) <- Some st
              | f -> unexpected w f)
          workers
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      converge polls
  in
  match converge 0 with
  | exception e ->
    kill_all workers;
    raise e
  | snap, polls ->
    let wall_seconds = Unix.gettimeofday () -. t0 in
    (* Collect final stores — all requested before any is read, so the
       workers dump in parallel — then dismiss and reap. *)
    let stores =
      try
        List.iter
          (fun w -> ignore (Wire.write_frame w.w_ctl Wire.Dump))
          workers;
        List.concat_map
          (fun w ->
            reply w (function Wire.Store_dump d -> Some d | _ -> None)
            |> List.map (fun (nm, rels) ->
                   ( nm,
                     List.fold_left
                       (fun acc (pred, tuples) ->
                         Store.add_list pred (List.map Intern.tuple tuples) acc)
                       Store.empty rels )))
          workers
      with e ->
        kill_all workers;
        raise e
    in
    List.iter (fun w -> ignore (Wire.write_frame w.w_ctl Wire.Bye)) workers;
    let ok =
      List.for_all
        (fun w ->
          match Unix.waitpid [] w.w_pid with
          | _, Unix.WEXITED 0 -> true
          | _ -> false)
        workers
    in
    if not ok then failwith "Dist.Supervisor: a worker exited abnormally";
    {
      stores;
      wall_seconds;
      data_frames = List.fold_left (fun a st -> a + st.Wire.st_sent) 0 snap;
      data_bytes = List.fold_left (fun a st -> a + st.Wire.st_bytes) 0 snap;
      total_inserts =
        List.fold_left (fun a st -> a + st.Wire.st_inserts) 0 snap;
      polls;
      workers = n;
    }
