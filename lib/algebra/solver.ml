(* A generic routing protocol parameterized by a routing algebra: the
   asynchronous Bellman-Ford / path-vector iteration

     x_u  <-  best_{(u,v,l) in E}  l (+) x_v      (x_dest = origin)

   iterated to a fixpoint.  Metarouting's central result makes this
   protocol's convergence a property of the algebra alone: monotone +
   isotone algebras converge on every topology (to optimal signatures
   when isotone); non-monotone algebras may oscillate, which the solver
   detects by revisiting a state or exceeding the iteration bound.

   Experiment E4/E5 pair this with the axiom checkers: algebras whose
   obligations discharge converge; the refuted ones exhibit divergence
   or suboptimal fixpoints on concrete topologies. *)

open Routing_algebra

module Smap = Map.Make (String)

type 'l graph = {
  g_nodes : string list;
  g_edges : (string * string * 'l) list;  (* directed u -> v with label *)
}

let graph ~nodes ~edges = { g_nodes = nodes; g_edges = edges }

type 's outcome = {
  converged : bool;
  rounds : int;
  signatures : 's Smap.t;  (* final signature per node *)
}

(* One synchronous Jacobi round: every node recomputes from its
   out-edges' current values. *)
let round (a : ('s, 'l) t) (g : 'l graph) ~dest (x : 's Smap.t) : 's Smap.t =
  List.fold_left
    (fun acc u ->
      if u = dest then Smap.add u a.origin acc
      else
        let best =
          List.fold_left
            (fun best (src, v, l) ->
              if src <> u then best
              else
                let cand = a.apply l (Smap.find v x) in
                if a.pref cand best < 0 then cand else best)
            a.prohibited g.g_edges
        in
        Smap.add u best acc)
    Smap.empty g.g_nodes

let initial (a : ('s, 'l) t) (g : 'l graph) ~dest : 's Smap.t =
  List.fold_left
    (fun acc u -> Smap.add u (if u = dest then a.origin else a.prohibited) acc)
    Smap.empty g.g_nodes

(* Iterate to fixpoint; bound by [max_rounds] (default |V|^2 + 8, ample
   for any monotone algebra, whose convergence needs at most |V|
   rounds). *)
let solve ?max_rounds (a : ('s, 'l) t) (g : 'l graph) ~dest : 's outcome =
  let bound =
    match max_rounds with
    | Some b -> b
    | None -> (List.length g.g_nodes * List.length g.g_nodes) + 8
  in
  let rec go i x =
    if i >= bound then { converged = false; rounds = i; signatures = x }
    else
      let x' = round a g ~dest x in
      if Smap.equal (fun p q -> p = q) x x' then
        { converged = true; rounds = i; signatures = x' }
      else go (i + 1) x'
  in
  go 0 (initial a g ~dest)

(* Reference optimum: enumerate all simple paths from [u] to [dest] and
   fold their signatures; exponential, for validation on small graphs
   only.  With isotonicity the protocol fixpoint matches this. *)
let optimal_signature (a : ('s, 'l) t) (g : 'l graph) ~dest u : 's =
  let rec explore node visited : 's list =
    if node = dest then [ a.origin ]
    else
      List.concat_map
        (fun (src, v, l) ->
          if src <> node || List.mem v visited then []
          else List.map (a.apply l) (explore v (v :: visited)))
        g.g_edges
  in
  List.fold_left
    (fun best s -> if a.pref s best < 0 then s else best)
    a.prohibited
    (explore u [ u ])

(* ------------------------------------------------------------------ *)
(* Example topologies with integer labels. *)

let line_graph ?(label = fun _ -> 1) k =
  let node i = Printf.sprintf "n%d" i in
  {
    g_nodes = List.init k node;
    g_edges =
      List.concat
        (List.init (k - 1) (fun i ->
             [ (node i, node (i + 1), label i); (node (i + 1), node i, label i) ]));
  }

let ring_graph ?(label = fun _ -> 1) k =
  let node i = Printf.sprintf "n%d" i in
  {
    g_nodes = List.init k node;
    g_edges =
      List.concat
        (List.init k (fun i ->
             let j = (i + 1) mod k in
             [ (node i, node j, label i); (node j, node i, label i) ]));
  }
