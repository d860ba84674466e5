(* Network topologies: named nodes and directed links with per-link
   delay, metric cost, and an up/down flag (for failure injection).

   Topologies are mutable: the simulator flips link state during a run
   to model churn.  All generators produce symmetric graphs (both
   directions present) with deterministic structure. *)

type link = {
  src : string;
  dst : string;
  delay : float;
  cost : int;
  loss : float;  (* probability a message on this link is lost *)
  mutable up : bool;
}

type t = {
  mutable nodes : string list;
  links : (string * string, link) Hashtbl.t;
}

let create () = { nodes = []; links = Hashtbl.create 64 }

let add_node t n = if not (List.mem n t.nodes) then t.nodes <- t.nodes @ [ n ]

let add_link ?(delay = 1.0) ?(cost = 1) ?(loss = 0.0) t src dst =
  add_node t src;
  add_node t dst;
  Hashtbl.replace t.links (src, dst) { src; dst; delay; cost; loss; up = true }

let add_duplex ?delay ?cost ?loss t a b =
  add_link ?delay ?cost ?loss t a b;
  add_link ?delay ?cost ?loss t b a

let link t src dst = Hashtbl.find_opt t.links (src, dst)

let link_up t src dst =
  match link t src dst with Some l -> l.up | None -> false

let set_link_state t src dst up =
  match link t src dst with
  | Some l -> l.up <- up
  | None -> ()

let fail_duplex t a b =
  set_link_state t a b false;
  set_link_state t b a false

let restore_duplex t a b =
  set_link_state t a b true;
  set_link_state t b a true

let nodes t = t.nodes

let links t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> Stdlib.compare (a.src, a.dst) (b.src, b.dst))

let neighbors t n =
  List.filter_map
    (fun l -> if l.src = n && l.up then Some l.dst else None)
    (links t)

(* ------------------------------------------------------------------ *)
(* Generators (node names n0, n1, ...). *)

let node i = Printf.sprintf "n%d" i

let line ?(delay = 1.0) ?(cost = fun _ -> 1) k =
  let t = create () in
  for i = 0 to k - 1 do
    add_node t (node i)
  done;
  for i = 0 to k - 2 do
    add_duplex ~delay ~cost:(cost i) t (node i) (node (i + 1))
  done;
  t

let ring ?(delay = 1.0) ?(cost = fun _ -> 1) k =
  let t = line ~delay ~cost k in
  add_duplex ~delay ~cost:(cost (k - 1)) t (node (k - 1)) (node 0);
  t

let star ?(delay = 1.0) ?(cost = fun _ -> 1) k =
  let t = create () in
  add_node t (node 0);
  for i = 1 to k - 1 do
    add_duplex ~delay ~cost:(cost i) t (node 0) (node i)
  done;
  t

(* A k x k grid (4-neighbour mesh), node n(r*k+c) at row r, column c —
   the same naming convention as {!Ndlog.Programs.grid_links}. *)
let grid ?(delay = 1.0) ?(cost = fun _ -> 1) k =
  let t = create () in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      add_node t (node ((r * k) + c))
    done
  done;
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let i = (r * k) + c in
      if c + 1 < k then add_duplex ~delay ~cost:(cost i) t (node i) (node (i + 1));
      if r + 1 < k then add_duplex ~delay ~cost:(cost i) t (node i) (node (i + k))
    done
  done;
  t

(* Random connected graph: spanning tree plus [extra] chords, seeded. *)
let random ?(seed = 42) ?(extra = 0) ?(delay = 1.0) ?(max_cost = 10) k =
  let st = Random.State.make [| seed |] in
  let t = create () in
  add_node t (node 0);
  for i = 1 to k - 1 do
    let parent = Random.State.int st i in
    add_duplex ~delay ~cost:(1 + Random.State.int st max_cost) t (node i)
      (node parent)
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < extra * 20 do
    incr attempts;
    let i = Random.State.int st k and j = Random.State.int st k in
    if i <> j && link t (node i) (node j) = None then begin
      add_duplex ~delay ~cost:(1 + Random.State.int st max_cost) t (node i)
        (node j);
      incr added
    end
  done;
  t

(* ------------------------------------------------------------------ *)
(* Automorphisms: node permutations preserving the labeled link
   structure (cost, delay, loss, and the up flag all count — a failed
   link breaks the symmetry that would map it onto a live one).  The
   model checker's symmetry reduction quotients its visited table by
   the group these generators span. *)

(* A bijection on nodes mapping every link onto a link with the same
   attributes is injective on links; with finitely many links that
   also makes it surjective, so non-links map to non-links.  [ls] is
   [links t], computed once by callers that test many maps. *)
let preserves_links t ls (p : (string * string) list) =
  let image n = match List.assoc_opt n p with Some m -> m | None -> n in
  let ns = nodes t in
  let imgs = List.map image ns in
  List.equal String.equal
    (List.sort_uniq String.compare imgs)
    (List.sort String.compare ns)
  && List.for_all
       (fun l ->
         match link t (image l.src) (image l.dst) with
         | Some l' ->
           l'.cost = l.cost && l'.delay = l.delay && l'.loss = l.loss
           && l'.up = l.up
         | None -> false)
       ls

let is_automorphism t p = preserves_links t (links t) p

let automorphism_generators t =
  let ns = nodes t in
  let k = List.length ns in
  if k = 0 then []
  else begin
    let ls = links t in
    let candidates = ref [] in
    let add_fn f = candidates := List.map (fun n -> (n, f n)) ns :: !candidates in
    (* Structural candidates for index-named topologies (the generators
       above name nodes n0..n(k-1)): ring rotation/reflection, and
       transpose plus horizontal flip for square grids (together they
       generate the dihedral group D4). *)
    let index n =
      if String.length n >= 2 && n.[0] = 'n' then
        int_of_string_opt (String.sub n 1 (String.length n - 1))
      else None
    in
    let indexed =
      List.for_all
        (fun n -> match index n with Some i -> i >= 0 && i < k | None -> false)
        ns
      && List.length (List.sort_uniq Int.compare (List.filter_map index ns)) = k
    in
    if indexed then begin
      let by_index f n = match index n with Some i -> node (f i) | None -> n in
      if k >= 3 then begin
        add_fn (by_index (fun i -> (i + 1) mod k));
        add_fn (by_index (fun i -> (k - i) mod k))
      end;
      let side = int_of_float (Float.round (sqrt (float_of_int k))) in
      if side >= 2 && side * side = k then begin
        let rc i = (i / side, i mod side) in
        add_fn
          (by_index (fun i ->
               let r, c = rc i in
               (c * side) + r));
        add_fn
          (by_index (fun i ->
               let r, c = rc i in
               (r * side) + (side - 1 - c)))
      end
    end;
    (* Twin swaps: transpositions of structurally identical nodes — the
       star's leaves, parallel branches.  Candidates are consecutive
       members of each link-signature class (enough to generate the
       symmetric group on the class); validation filters the rest. *)
    let tag l = (l.cost, l.delay, l.loss, l.up) in
    let ends f n =
      List.sort compare
        (List.filter_map (fun l -> if f l = n then Some (tag l) else None) ls)
    in
    let signature n = (ends (fun l -> l.src) n, ends (fun l -> l.dst) n) in
    let classes = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let sg = signature n in
        let cur = Option.value (Hashtbl.find_opt classes sg) ~default:[] in
        Hashtbl.replace classes sg (n :: cur))
      ns;
    Hashtbl.iter
      (fun _ members ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
            candidates :=
              List.map
                (fun n -> if n = a then (n, b) else if n = b then (n, a) else (n, n))
                ns
              :: !candidates;
            pairs rest
          | _ -> ()
        in
        pairs (List.sort String.compare members))
      classes;
    !candidates
    |> List.filter (fun p -> not (List.for_all (fun (a, b) -> String.equal a b) p))
    |> List.filter (preserves_links t ls)
    |> List.sort_uniq compare
  end

let pp ppf t =
  Fmt.pf ppf "nodes: %a@." Fmt.(list ~sep:(any " ") string) t.nodes;
  List.iter
    (fun l ->
      Fmt.pf ppf "  %s -> %s (cost %d, delay %g%s)@." l.src l.dst l.cost l.delay
        (if l.up then "" else ", DOWN"))
    (links t)
