(* Traced calls into the layers more than one workload uses: the NDlog
   compiler and the distributed runtime.  Each wrapper opens the span
   named after its layer and reads the counters the layer returns. *)

open Common

let parse r src =
  span r "compile.parse" (fun () -> Ndlog.Parser.parse_program_exn src)

let analyze r p =
  span r "compile.analyze" (fun () -> Ndlog.Analysis.analyze_exn p)

let localize r p =
  span r "compile.localize" (fun () ->
      match Ndlog.Localize.rewrite_program p with
      | Ok res -> res.Ndlog.Localize.program
      | Error e -> failwith (Fmt.str "%a" Ndlog.Localize.pp_error e))

(* The runtime plans its strands inside [Runtime.create]; a traced run
   also plans them once on its own so the planner's share is visible. *)
let plan r loc =
  if tracing r then
    ignore (span r "compile.plan" (fun () -> Ndlog.Plan.compile_program loc))

(* Source text to a runnable distributed system: parse, analyze,
   localize, create the runtime over the program's link topology, and
   schedule its facts. *)
type compiled = {
  program : Ndlog.Ast.program;
  info : Ndlog.Analysis.info;
  localized : Ndlog.Ast.program;
  topo : Netsim.Topology.t;
}

let compile r src =
  let program = parse r src in
  let info = analyze r program in
  let localized = localize r program in
  plan r localized;
  { program; info; localized; topo = Fvn.Pipeline.topology_of_links program }

let start r ?incremental_views c =
  let rt =
    span r "runtime.create" (fun () ->
        Dist.Runtime.create ?incremental_views c.topo c.localized)
  in
  span r "runtime.load_facts" (fun () -> Dist.Runtime.load_facts rt);
  rt

(* [Runtime.run] with view refresh as its child: the runtime reports
   refresh only as cumulative seconds, so the child's interval is that
   delta, placed at the start of the run. *)
let run r ?until rt =
  let s0 = Dist.Runtime.refresh_seconds rt
  and w0 = Dist.Runtime.refresh_walks rt
  and i0 = if tracing r then Dist.Runtime.total_inserts rt else 0 in
  let rep =
    span r "runtime.run" (fun () ->
        let t0 = now () in
        let rep = Dist.Runtime.run ?until rt in
        let dr = Dist.Runtime.refresh_seconds rt -. s0 in
        Trace.child r.tracer "refresh" ~start:t0
          ~stop:(min (now ()) (t0 + int_of_float (dr *. 1e9)));
        rep)
  in
  if tracing r then begin
    let st = rep.Dist.Runtime.stats and w = rep.Dist.Runtime.wire_stats in
    let v = rep.Dist.Runtime.view_stats in
    let f = float_of_int in
    count r "runtime.inserts" (f (rep.Dist.Runtime.total_inserts - i0));
    count r "sim.events" (f st.Netsim.Sim.events);
    count r "sim.messages_sent" (f st.Netsim.Sim.messages_sent);
    count r "sim.messages_dropped" (f st.Netsim.Sim.messages_dropped);
    count r "wire.groups" (f w.Ndlog.Eval.groups);
    count r "wire.delta_tuples" (f w.Ndlog.Eval.delta_tuples);
    count r "wire.enumerated" (f w.Ndlog.Eval.enumerated);
    count r "wire.matched" (f w.Ndlog.Eval.matched);
    count r "refresh.walks" (f (Dist.Runtime.refresh_walks rt - w0));
    count r "refresh.strata_skipped" (f v.Ndlog.Eval.strata_skipped);
    count r "refresh.fallbacks" (f v.Ndlog.Eval.refresh_fallbacks);
    count r "refresh.enumerated" (f v.Ndlog.Eval.enumerated)
  end;
  rep

let insert r rt node pred tuple =
  let i0 = if tracing r then Dist.Runtime.total_inserts rt else 0 in
  span r "runtime.insert" (fun () -> Dist.Runtime.insert rt node pred tuple);
  if tracing r then
    count r "runtime.inserts" (float_of_int (Dist.Runtime.total_inserts rt - i0))

(* Link facts as source text, one line per direction. *)
let link_lines links =
  String.concat "\n"
    (List.map
       (fun (s, d, c) ->
         Printf.sprintf "link(@%s, %s, %d). link(@%s, %s, %d)." s d c d s c)
       links)
