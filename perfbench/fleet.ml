(* fleet: path-vector across real OS processes.

   One client, closed loop.  Each operation runs the program on a ring
   through [Dist.Supervisor.run]: one forked worker per node over a
   socket mesh, to detected quiescence.  It is the only workload that
   touches [Dist.Wire], [Dist.Socket] and [Dist.Supervisor].  The
   supervisor polls for quiescence every 20 ms and needs two equal
   polls, so an operation cannot finish in less than about two poll
   intervals: a faster codec will not show here, a change to quiescence
   detection will. *)

open Common

let workers = 4
let node = Ndlog.Programs.node

let open_fds () =
  List.filter_map int_of_string_opt (Array.to_list (Sys.readdir "/proc/self/fd"))

(* [Supervisor.run] leaves the supervisor's end of every worker's
   control socket open.  Left alone, a window of a few hundred runs
   pushes descriptors past select's limit and the workers fail with
   EINVAL, so every descriptor a run leaves behind is closed here
   (Linux: descriptors are listed in /proc and are ints). *)
let close_new_fds before =
  List.iter
    (fun fd ->
      if not (List.mem fd before) then
        try Unix.close (Obj.magic (fd : int) : Unix.file_descr)
        with Unix.Unix_error _ -> ())
    (open_fds ())

let run r ~seed ~seconds =
  let st = Random.State.make [| seed; 0xf1 |] in
  let links =
    List.init workers (fun i ->
        (node i, node ((i + 1) mod workers), 1 + Random.State.int st 4))
  in
  let src = Ndlog.Programs.path_vector_src ^ Layer.link_lines links in
  let c = setups r ~k:101 (fun () -> Layer.compile r src) in
  (* A write to a dead worker must fail the operation, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The reference: the same program on the simulator backend. *)
  let reference =
    let quiet = create_run ~traced:false in
    let rt = Layer.start quiet c in
    ignore (Layer.run quiet rt);
    List.init workers (fun i -> (node i, Dist.Runtime.node_store rt (node i)))
  in
  let bytes = ref [] in
  let op _ =
    let fds = open_fds () in
    let t0 = now () in
    let res =
      span r "fleet.supervisor" (fun () ->
          match Dist.Supervisor.run c.Layer.topo c.Layer.localized with
          | res -> Ok res
          | exception (Dist.Supervisor.Convergence_timeout _ as e) -> Error e
          | exception (Dist.Wire.Frame_error _ as e) -> Error e)
    in
    let t1 = now () in
    close_new_fds fds;
    (match res with
    | Error e -> check r ("fleet run: " ^ Printexc.to_string e) false
    | Ok res ->
      let module S = Dist.Supervisor in
      bytes := res.S.data_bytes :: !bytes;
      count r "fleet.supervisor_s" res.S.wall_seconds;
      count r "fleet.polls" (float_of_int res.S.polls);
      count r "fleet.data_frames" (float_of_int res.S.data_frames);
      count r "fleet.wire_bytes" (float_of_int res.S.data_bytes);
      span r "bench.check" (fun () ->
          check r "every worker's store equals the simulator's"
            (List.length res.S.stores = workers
            && List.for_all
                 (fun (n, s) ->
                   match List.assoc_opt n reference with
                   | Some s' -> Ndlog.Store.equal s s'
                   | None -> false)
                 res.S.stores)));
    t1 - t0
  in
  ignore (measure r ~seconds ~warmup:1 op);
  note r "wire_bytes" (median (List.map float_of_int !bytes)) "B"
