(* The node supervisor: real processes over real sockets.

   [run] forks one worker process per topology node.  Each worker
   builds a {!Socket} reactor over a pre-connected full mesh of
   [Unix.socketpair] streams (created before forking, so there are no
   listener or connect races), hosts its node in a {!Runtime} on that
   transport, loads the program's facts for the nodes it hosts, and
   serves until told to exit.  The program and topology reach the
   workers through the fork's heap — nothing is serialized to start a
   run; only tuples cross process boundaries afterwards.

   Quiescence is detected by a poll protocol over per-worker control
   channels.  Each poll asks every worker for a {!Wire.status}:
   whether its reactor is idle (no pending timers, no partial input)
   plus its monotone sent/received data-frame counters.  The run is
   declared converged when two {e consecutive} polls return identical
   snapshots in which every worker is idle and the global sum of sent
   frames equals the global sum of received frames — a frame still in
   flight (written but not yet dispatched) makes the sums differ, and
   the double snapshot guards the instant between a dispatch and the
   work it triggers.  This is sound for programs that terminate:
   hard-state protocols (the path-vector demo) reach a fixpoint and
   stop sending.  Soft-state programs with perpetual renewal timers
   never satisfy it in wall-clock time — run those on the simulator
   backend, whose virtual clock makes "forever" cheap.

   Every control read carries a timeout ({!Wire.read_frame}): a worker
   that died or hung fails the run with a typed error instead of
   hanging the supervisor.  After convergence the supervisor collects
   each worker's final store ([Dump] / [Store_dump]), dismisses the
   workers ([Bye]), and reaps them; the control channels close on every
   exit path. *)

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
  polls : int;  (* quiescence polls until convergence *)
  workers : int;
}

exception Convergence_timeout of { polls : int; last : Wire.status list }

let () =
  Printexc.register_printer (function
    | Convergence_timeout { polls; _ } ->
      Some
        (Fmt.str
           "Dist.Supervisor: no convergence after %d quiescence polls" polls)
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
      Socket.serve reactor ~on_control:(function
        | Wire.Poll ->
          ignore
            (Wire.write_frame ctl
               (Wire.Status
                  {
                    Wire.st_idle = Socket.idle reactor;
                    st_sent = Socket.sent reactor;
                    st_received = Socket.received reactor;
                    st_bytes = Socket.bytes_out reactor;
                    st_inserts = Runtime.total_inserts rt;
                  }))
        | Wire.Dump ->
          let store = Runtime.node_store rt self in
          let rels =
            List.map (fun p -> (p, Store.tuples p store)) (Store.preds store)
          in
          ignore (Wire.write_frame ctl (Wire.Store_dump [ (self, rels) ]))
        | Wire.Bye -> Socket.stop reactor
        | _ -> ());
      0
    with e ->
      Printf.eprintf "[fvnd worker %s] %s\n%!" self (Printexc.to_string e);
      1
  in
  Unix._exit exit_code

let kill_all workers =
  List.iter
    (fun w ->
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    workers

let run ?(read_timeout = 10.0) ?(poll_interval = 0.02) ?(max_polls = 500)
    (topo : Netsim.Topology.t) (program : Ndlog.Ast.program) : result =
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
  let poll () =
    List.map
      (fun w ->
        ignore (Wire.write_frame w.w_ctl Wire.Poll);
        match Wire.read_frame ~timeout:read_timeout w.w_ctl with
        | Wire.Status st -> st
        | f ->
          failwith
            (Fmt.str "Dist.Supervisor: worker %s answered Poll with %s"
               w.w_node
               (match f with
               | Wire.Data _ -> "Data"
               | Wire.Store_dump _ -> "Store_dump"
               | _ -> "an unexpected frame")))
      workers
  in
  let stable prev snap =
    List.for_all (fun st -> st.Wire.st_idle) snap
    && List.fold_left (fun a st -> a + st.Wire.st_sent) 0 snap
       = List.fold_left (fun a st -> a + st.Wire.st_received) 0 snap
    && prev = Some snap
  in
  match
    let rec converge prev polls =
      if polls >= max_polls then
        raise
          (Convergence_timeout
             { polls; last = (match prev with Some s -> s | None -> []) });
      let snap = poll () in
      if stable prev snap then (snap, polls + 1)
      else begin
        ignore (Unix.select [] [] [] poll_interval);
        converge (Some snap) (polls + 1)
      end
    in
    converge None 0
  with
  | exception e ->
    kill_all workers;
    raise e
  | snap, polls ->
    let wall_seconds = Unix.gettimeofday () -. t0 in
    (* Collect final stores, dismiss, reap. *)
    let stores =
      try
        List.concat_map
          (fun w ->
            ignore (Wire.write_frame w.w_ctl Wire.Dump);
            match Wire.read_frame ~timeout:read_timeout w.w_ctl with
            | Wire.Store_dump dump ->
              List.map
                (fun (nm, rels) ->
                  ( nm,
                    List.fold_left
                      (fun acc (pred, tuples) ->
                        Store.add_list pred (List.map Intern.tuple tuples) acc)
                      Store.empty rels ))
                dump
            | _ -> failwith "Dist.Supervisor: worker answered Dump oddly")
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
