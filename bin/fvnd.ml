(* fvnd: the multi-process distributed-runtime demo.

   Runs the path-vector program across one real OS process per node,
   wired over Unix-domain sockets ({!Dist.Supervisor}), then runs the
   same topology and program on the in-process virtual-clock simulator
   and asserts the per-node fixpoints are identical.  Exit status 0
   means every node's store matched; 1 means divergence or a failed
   run — the CI smoke step relies on this. *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Programs = Ndlog.Programs
module Localize = Ndlog.Localize
module V = Ndlog.Value
module Topo = Netsim.Topology
module Runtime = Dist.Runtime
module Supervisor = Dist.Supervisor

let usage () =
  prerr_endline
    "usage: fvnd [--nodes N] [--topo ring|line|star] [--timeout SECONDS]";
  exit 2

let topo_of_links links =
  let t = Topo.create () in
  List.iter
    (fun (f : Ast.fact) ->
      match f.Ast.fact_args with
      | [ s; d; c ] ->
        Topo.add_link ~cost:(V.as_int c) t (V.as_addr s) (V.as_addr d)
      | _ -> ())
    links;
  t

let () =
  let nodes = ref 4 and topo_kind = ref "ring" and timeout = ref 10.0 in
  let rec parse = function
    | [] -> ()
    | "--nodes" :: v :: rest ->
      nodes := int_of_string v;
      parse rest
    | "--topo" :: v :: rest ->
      topo_kind := v;
      parse rest
    | "--timeout" :: v :: rest ->
      timeout := float_of_string v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !nodes < 2 then usage ();
  let links =
    match !topo_kind with
    | "ring" -> Programs.ring_links !nodes
    | "line" -> Programs.line_links !nodes
    | "star" -> Programs.star_links !nodes
    | _ -> usage ()
  in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let program =
    match Localize.rewrite_program full with
    | Ok r -> r.Localize.program
    | Error e ->
      Fmt.epr "localization failed: %a@." Localize.pp_error e;
      exit 1
  in
  let topo = topo_of_links links in
  Fmt.pr "fvnd: %d workers over unix sockets, %s topology@." !nodes !topo_kind;
  let res =
    match Supervisor.run ~timeout:!timeout topo program with
    | res -> res
    | exception
        ((Supervisor.Convergence_timeout _ | Dist.Wire.Frame_error _) as e) ->
      Fmt.epr "fvnd: %s@." (Printexc.to_string e);
      exit 1
  in
  Fmt.pr
    "converged in %.3fs wall: %d data frames, %d bytes on the wire, %d \
     inserts, %d polls@."
    res.Supervisor.wall_seconds res.Supervisor.data_frames
    res.Supervisor.data_bytes res.Supervisor.total_inserts
    res.Supervisor.polls;
  (* The oracle: same program, same topology, virtual clock. *)
  let rt = Runtime.create topo program in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  if not report.Runtime.stats.Netsim.Sim.quiesced then begin
    Fmt.epr "simulator oracle did not quiesce@.";
    exit 1
  end;
  let divergent =
    List.filter
      (fun (node, store) ->
        not (Store.equal store (Runtime.node_store rt node)))
      res.Supervisor.stores
  in
  List.iter
    (fun (node, store) ->
      Fmt.pr "  %s: %d tuples, %d bestPath@." node (Store.total_tuples store)
        (Store.cardinal "bestPath" store))
    res.Supervisor.stores;
  match divergent with
  | [] ->
    Fmt.pr "fixpoints match the simulator on every node@.";
    exit 0
  | l ->
    List.iter
      (fun (node, store) ->
        Fmt.epr "node %s diverges from the simulator:@.  sockets: %a@.  sim: %a@."
          node Store.pp store Store.pp
          (Runtime.node_store rt node))
      l;
    exit 1
