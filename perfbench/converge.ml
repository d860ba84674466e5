(* converge: cold-start convergence of hard-state programs, as
   [fvnc run] and [fvnc dist] do it.

   One client, closed loop.  Each operation converges path-vector on a
   ring and reachability on a grid, each through the centralized
   semi-naive evaluator and through the distributed runtime on the
   simulator to quiescence.  The join core sees a monotone insert-only
   stream with large deltas and no expiry; view refresh runs only for
   path-vector's [min] aggregate. *)

open Common

let ring = 48
let grid = 8
let node = Ndlog.Programs.node

(* Undirected links with seeded costs 1..4. *)
let cost st = 1 + Random.State.int st 4
let ring_links st = List.init ring (fun i -> (node i, node ((i + 1) mod ring), cost st))

let grid_links st =
  let id i j = node ((i * grid) + j) in
  let links = ref [] in
  for i = 0 to grid - 1 do
    for j = 0 to grid - 1 do
      if j + 1 < grid then links := (id i j, id i (j + 1), cost st) :: !links;
      if i + 1 < grid then links := (id i j, id (i + 1) j, cost st) :: !links
    done
  done;
  List.rev !links

type cell = { name : string; c : Layer.compiled; preds : string list }

let run r ~seed ~seconds =
  let st = Random.State.make [| seed; 0xc7 |] in
  let sources =
    [
      ( "pv-ring" ^ string_of_int ring,
        Ndlog.Programs.path_vector_src ^ Layer.link_lines (ring_links st) );
      ( "reach-grid" ^ string_of_int grid,
        Ndlog.Programs.reachability_src ^ Layer.link_lines (grid_links st) );
    ]
  in
  let cells =
    setups r ~k:101 (fun () ->
        List.map
          (fun (name, src) ->
            let c = Layer.compile r src in
            ignore (Layer.start r c);
            let i = c.Layer.info in
            let preds = i.Ndlog.Analysis.base_preds @ i.Ndlog.Analysis.derived_preds in
            { name; c; preds })
          sources)
  in
  let per_op = ref [] in
  let op _ =
    let central, dist =
    List.fold_left
      (fun (central, dist) cell ->
        let c = cell.c in
        let t0 = now () in
        let out =
          span r "eval.seminaive" (fun () ->
              Ndlog.Eval.seminaive c.Layer.program c.Layer.info
                (Ndlog.Store.of_facts c.Layer.program.Ndlog.Ast.facts))
        in
        let t1 = now () in
        let rt = Layer.start r c in
        let rep = Layer.run r rt in
        let t2 = now () in
        if tracing r then begin
          let s = out.Ndlog.Eval.stats and f = float_of_int in
          count r "eval.rounds" (f out.Ndlog.Eval.rounds);
          count r "eval.enumerated" (f s.Ndlog.Eval.enumerated);
          count r "eval.matched" (f s.Ndlog.Eval.matched);
          count r "eval.index_hits" (f s.Ndlog.Eval.index_hits);
          count r "eval.scans" (f s.Ndlog.Eval.scans)
        end;
        span r "bench.check" (fun () ->
            check r (cell.name ^ ": centralized evaluation converges")
              out.Ndlog.Eval.converged;
            check r (cell.name ^ ": distributed run quiesces")
              rep.Dist.Runtime.stats.Netsim.Sim.quiesced;
            (* Localization adds relay predicates; the source program's
               predicates must hold exactly the centralized fixpoint. *)
            check r (cell.name ^ ": distributed store = centralized fixpoint")
              (Ndlog.Store.equal out.Ndlog.Eval.db
                 (Ndlog.Store.restrict cell.preds
                    (Dist.Runtime.global_store rt))));
        (central + (t1 - t0), dist + (t2 - t1)))
      (0, 0) cells
    in
    per_op := (central, dist) :: !per_op;
    central + dist
  in
  ignore (measure r ~seconds ~warmup:1 op);
  (* Per operation, both programs; the first operation is the warm-up. *)
  let measured = List.tl (List.rev !per_op) in
  let med f = median (List.map (fun p -> float_of_int (f p)) measured) /. 1e6 in
  note r "central_ms" (med fst) "ms";
  note r "dist_ms" (med snd) "ms"
