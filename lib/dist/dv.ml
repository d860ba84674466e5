(* A classic distance-vector protocol as a network state machine over
   {!Netsim}, used by experiment E2 to exhibit count-to-infinity after a
   link failure (the behaviour the paper proves present in the
   distance-vector NDlog program, Section 3.1).

   Nodes keep a routing table (destination -> cost, next hop) and
   advertise their full vector to neighbours, either on change
   (triggered updates) or on a periodic timer.  No split horizon and no
   poisoned reverse — exactly the naive protocol whose divergence the
   paper discusses.  [infinity_threshold] plays the role of RIP's metric
   16: once a route's cost crosses it the route is considered unusable,
   which is also how the run detects that counting-to-infinity happened. *)

module Smap = Map.Make (String)

type route = {
  cost : int;
  next_hop : string;
}

type node = {
  name : string;
  mutable table : route Smap.t;
  mutable advertisements : int;
}

type msg = Vector of (string * int) list  (* destination, cost *)

type t = {
  sim : msg Netsim.Sim.t;
  nodes : node Smap.t;
  infinity_threshold : int;
  period : float;  (* periodic re-advertisement interval *)
  mutable max_cost_seen : int;
}

let node t n = Smap.find n t.nodes

let route_cost t n d =
  Option.map (fun r -> r.cost) (Smap.find_opt d (node t n).table)

(* Advertise [n]'s vector to all live neighbours. *)
let advertise t n =
  let nd = node t n in
  nd.advertisements <- nd.advertisements + 1;
  let vector =
    Smap.bindings nd.table |> List.map (fun (d, r) -> (d, r.cost))
  in
  let vector = (n, 0) :: vector in
  List.iter
    (fun nb -> ignore (Netsim.Sim.send t.sim ~src:n ~dst:nb (Vector vector)))
    (Netsim.Topology.neighbors (Netsim.Sim.topology t.sim) n)

(* Bellman-Ford update on receipt of a neighbour's vector. *)
let receive t ~self ~src (Vector vector) =
  let topo = Netsim.Sim.topology t.sim in
  match Netsim.Topology.link topo src self with
  | None -> ()
  | Some l when not l.Netsim.Topology.up -> ()
  | Some l ->
    let nd = node t self in
    let changed = ref false in
    List.iter
      (fun (dest, c) ->
        if dest <> self then begin
          let cand = c + l.Netsim.Topology.cost in
          let current = Smap.find_opt dest nd.table in
          let better =
            match current with
            | None -> true
            | Some r ->
              cand < r.cost
              (* Distance-vector also accepts *worse* news from the
                 current next hop: that is the mechanics that produces
                 count-to-infinity. *)
              || (r.next_hop = src && cand <> r.cost)
          in
          if better && cand < t.infinity_threshold then begin
            nd.table <- Smap.add dest { cost = cand; next_hop = src } nd.table;
            t.max_cost_seen <- max t.max_cost_seen cand;
            changed := true
          end
          else if better && cand >= t.infinity_threshold then begin
            (* Route became unusable. *)
            nd.table <- Smap.remove dest nd.table;
            t.max_cost_seen <- max t.max_cost_seen cand;
            changed := true
          end
        end)
      vector;
    if !changed then advertise t self

let rec periodic t n =
  advertise t n;
  Netsim.Sim.schedule t.sim ~delay:t.period (fun () -> periodic t n)

let create ?(seed = 42) ?(infinity_threshold = 64) ?(period = 0.0) topo =
  let sim = Netsim.Sim.create ~seed topo in
  let nodes =
    List.fold_left
      (fun m n -> Smap.add n { name = n; table = Smap.empty; advertisements = 0 } m)
      Smap.empty (Netsim.Topology.nodes topo)
  in
  let t = { sim; nodes; infinity_threshold; period; max_cost_seen = 0 } in
  Smap.iter
    (fun n _ -> Netsim.Sim.set_handler sim n (fun _ ~self ~src m -> receive t ~self ~src m))
    nodes;
  (* Bootstrap: everyone advertises itself at time 0. *)
  Smap.iter
    (fun n _ ->
      Netsim.Sim.schedule sim ~delay:0.0 (fun () ->
          advertise t n;
          if period > 0.0 then
            Netsim.Sim.schedule sim ~delay:period (fun () -> periodic t n)))
    nodes;
  t

type report = {
  stats : Netsim.Sim.stats;
  max_cost_seen : int;
  counted_to_infinity : bool;
  total_advertisements : int;
}

let run ?(until = infinity) ?(max_events = 200_000) t =
  let stats = Netsim.Sim.run ~until ~max_events t.sim in
  {
    stats;
    max_cost_seen = t.max_cost_seen;
    counted_to_infinity = t.max_cost_seen >= t.infinity_threshold;
    total_advertisements =
      Smap.fold (fun _ n acc -> acc + n.advertisements) t.nodes 0;
  }

(* Fail a duplex link at a given time.  The endpoints detect the failure
   (as a real router detects carrier loss) and drop the routes using the
   dead neighbour as next hop — silently, as the naive protocol does:
   recovery information only arrives through neighbours' subsequent
   advertisements, which is exactly what lets stale routes bounce. *)
let fail_link_at t ~time a b =
  Netsim.Sim.at t.sim ~time (fun () ->
      Netsim.Topology.fail_duplex (Netsim.Sim.topology t.sim) a b;
      let purge n dead =
        let nd = node t n in
        nd.table <- Smap.filter (fun _ r -> r.next_hop <> dead) nd.table
      in
      purge a b;
      purge b a)
