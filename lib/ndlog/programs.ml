(* Canonical NDlog programs from the paper and its companion reports,
   plus topology generators used by tests, examples, and benchmarks. *)

(* The path-vector protocol of Section 2.2, verbatim up to whitespace. *)
let path_vector_src =
  {|
materialize(link, infinity).
materialize(path, infinity).
materialize(bestPathCost, infinity).
materialize(bestPath, infinity).

r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
                     C=C1+C2, P=f_concatPath(S,P2),
                     f_inPath(P2,S)=false.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
|}

(* Distance-vector without a path vector: no cycle check, so a link
   failure on a cyclic topology exhibits count-to-infinity (Section 3.1,
   "the presence of count-to-infinity loops in the distance-vector
   protocol"). *)
let distance_vector_src =
  {|
materialize(link, infinity).
materialize(cost, infinity).
materialize(bestCost, infinity).

d1 cost(@S,D,C) :- link(@S,D,C).
d2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C=C1+C2.
d3 bestCost(@S,D,min<C>) :- cost(@S,D,C).
|}

(* Distance-vector with a hop-count bound: converges, used as the sound
   counterpart in tests. *)
let bounded_distance_vector_src ~max_hops =
  Printf.sprintf
    {|
materialize(link, infinity).
materialize(cost, infinity).
materialize(bestCost, infinity).

d1 cost(@S,D,C,H) :- link(@S,D,C), H=1.
d2 cost(@S,D,C,H) :- link(@S,Z,C1), cost(@Z,D,C2,H2),
                     C=C1+C2, H=H2+1, H2<%d.
d3 bestCost(@S,D,min<C>) :- cost(@S,D,C,H).
|}
    max_hops

(* Link-state routing: every node floods link-state advertisements
   (LSAs) to its neighbours until all nodes share the full link map
   (monotone, so plain NDlog handles it); each node then computes
   shortest paths locally over its copy of the map.  The local
   computation is hop-bounded (pass the node count) to terminate on
   cyclic maps — the standard trick a real LS implementation's Dijkstra
   sidesteps.

   The program is already localized: flooding (ls2) reads only
   node-local tuples and sends the derived LSA to the neighbour. *)
let link_state_src ~max_hops =
  Printf.sprintf
    {|
materialize(link, infinity).
materialize(lsa, infinity).
materialize(lpath, infinity).
materialize(lsCost, infinity).

ls1 lsa(@S,S,D,C) :- link(@S,D,C).
ls2 lsa(@M,S,D,C) :- link(@N,M,C2), lsa(@N,S,D,C).
ls3 lpath(@N,D,C,H) :- lsa(@N,N,D,C), H=1.
ls4 lpath(@N,D,C,H) :- lpath(@N,Z,C1,H1), lsa(@N,Z,D,C2),
                       C=C1+C2, H=H1+1, H1<%d.
ls5 lsCost(@N,D,min<C>) :- lpath(@N,D,C,H).
|}
    max_hops

(* Simple transitive reachability. *)
let reachability_src =
  {|
materialize(link, infinity).
materialize(reachable, infinity).

rc1 reachable(@S,D) :- link(@S,D,C).
rc2 reachable(@S,D) :- link(@S,Z,C), reachable(@Z,D).
|}

(* A soft-state heartbeat: pings refresh neighbor liveness, and the
   aliveNeighbor table expires when refreshes stop. *)
let heartbeat_src ~lifetime =
  Printf.sprintf
    {|
materialize(link, infinity).
materialize(ping, %d).
materialize(aliveNeighbor, %d).

h1 ping(@D,S) :- link(@S,D,C).
h2 aliveNeighbor(@D,S) :- ping(@D,S).
|}
    lifetime lifetime

let parse_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> invalid_arg ("Programs.parse_exn: " ^ e)

let path_vector () = parse_exn path_vector_src
let distance_vector () = parse_exn distance_vector_src

let bounded_distance_vector ~max_hops =
  parse_exn (bounded_distance_vector_src ~max_hops)

let reachability () = parse_exn reachability_src
let link_state ~max_hops = parse_exn (link_state_src ~max_hops)
let heartbeat ~lifetime = parse_exn (heartbeat_src ~lifetime)

(* ------------------------------------------------------------------ *)
(* Topology generators: lists of link facts.  Node names are n0..n(k-1).
   All generated topologies are symmetric (links in both directions). *)

let node i = Printf.sprintf "n%d" i

let link_fact s d c =
  {
    Ast.fact_pred = "link";
    fact_loc = Some 0;
    fact_args = [ Value.Addr s; Value.Addr d; Value.Int c ];
  }

let both s d c = [ link_fact s d c; link_fact d s c ]

(* A chain n0 - n1 - ... - n(k-1). *)
let line_links ?(cost = fun _ -> 1) k =
  List.concat (List.init (k - 1) (fun i -> both (node i) (node (i + 1)) (cost i)))

(* A ring of k nodes. *)
let ring_links ?(cost = fun _ -> 1) k =
  List.concat
    (List.init k (fun i -> both (node i) (node ((i + 1) mod k)) (cost i)))

(* A star centered at n0. *)
let star_links ?(cost = fun _ -> 1) k =
  List.concat (List.init (k - 1) (fun i -> both (node 0) (node (i + 1)) (cost i)))

(* A k x k grid: node n(i*k+j) at row i, column j, linked to its right
   and down neighbours (4-neighbour mesh). *)
let grid_links ?(cost = fun _ -> 1) k =
  let id i j = node ((i * k) + j) in
  let ls = ref [] in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if j + 1 < k then ls := both (id i j) (id i (j + 1)) (cost (i + j)) @ !ls;
      if i + 1 < k then ls := both (id i j) (id (i + 1) j) (cost (i + j)) @ !ls
    done
  done;
  !ls

(* A full mesh (use with care: the path relation grows factorially). *)
let mesh_links ?(cost = fun _ _ -> 1) k =
  let pairs = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      pairs := both (node i) (node j) (cost i j) @ !pairs
    done
  done;
  !pairs

(* A random connected graph: a random spanning tree plus [extra] random
   chords, deterministic in [seed].  One node has no chord to draw, so
   its graph is the empty tree. *)
let random_links ?(seed = 42) ?(extra = 0) ?(max_cost = 10) k =
  if k < 1 then
    invalid_arg (Printf.sprintf "Programs.random_links: %d nodes (need >= 1)" k);
  let extra = if k = 1 then 0 else extra in
  let st = Random.State.make [| seed |] in
  let rand_cost () = 1 + Random.State.int st max_cost in
  let tree =
    List.concat
      (List.init (k - 1) (fun i ->
           let parent = Random.State.int st (i + 1) in
           both (node (i + 1)) (node parent) (rand_cost ())))
  in
  let rec chords n acc =
    if n = 0 then acc
    else
      let i = Random.State.int st k and j = Random.State.int st k in
      if i = j then chords n acc
      else chords (n - 1) (both (node i) (node j) (rand_cost ()) @ acc)
  in
  chords extra tree

(* All facts for a program instance. *)
let with_links (p : Ast.program) links = { p with Ast.facts = p.Ast.facts @ links }
