(* Symmetry reduction: quotient the checker's visited table by the
   automorphism group of the network topology.

   A protocol running on a symmetric topology produces symmetric state
   spaces — rotating a ring rotates every reachable database with it —
   so the checker need only visit one member of each orbit.  The
   quotient is implemented as key canonicalization ({!Explore.Table}'s
   [canon]): each state is minimized over its node-permutation orbit
   before hashing, giving an alternative equal/hash pair on the table
   without touching exploration itself (real states, real traces).

   The group is given by generators (from
   {!Netsim.Topology.automorphism_generators}), never enumerated: the
   orbit of a state is closed breadth-first under the generators, with
   a cap.  Small groups — a ring's dihedral group has 2k elements, a
   grid's D4 eight — close well under the cap, making the minimum
   exact and the quotient maximal.  Groups that are huge (a star's
   leaves carry the full symmetric group) hit the cap; we then finish
   with greedy single-generator descent.  Either way the result stays
   inside the orbit, so the quotient is sound — capping merely splits
   some orbits and costs reduction, never correctness.

   Node identity is the [Value.Addr] sort: permutations rename
   addresses (deeply, through list values — path vectors permute with
   their nodes) and leave integers, strings, and booleans alone. *)

module Store = Ndlog.Store
module Value = Ndlog.Value

type perm = (string * string) list

(* A generator compiled for bulk application: the names it moves,
   each paired with its image as an interned [Addr] value, so renaming
   an address is a scan of a short array and allocates nothing. *)
type gen = { names : string array; images : Value.t array }

type t = {
  generators : perm list;
  gens : (gen * int array) list;
      (* [generators], compiled once, each paired with its action on
         the node indices [0, nodes) *)
  nodes : int;
  cap : int;
}

let identity_perm p = List.for_all (fun (a, b) -> String.equal a b) p

let apply_name (p : perm) n =
  match List.assoc_opt n p with Some m -> m | None -> n

(* Only the bindings [apply_name] would use and that move their name
   are kept; a scan stops at a name's first binding, as [List.assoc]
   does. *)
let compile (p : perm) : gen =
  let moved =
    List.filter
      (fun (a, b) ->
        (not (String.equal a b)) && String.equal (apply_name p a) b)
      p
  in
  {
    names = Array.of_list (List.map fst moved);
    images =
      Array.of_list
        (List.map (fun (_, b) -> Ndlog.Intern.canon (Value.Addr b)) moved);
  }

let of_generators ?(cap = 4096) generators =
  let generators = List.filter (fun p -> not (identity_perm p)) generators in
  let names =
    List.concat_map (List.concat_map (fun (a, b) -> [ a; b ])) generators
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let on_indices p =
    Array.map (fun n -> Hashtbl.find index (apply_name p n)) names
  in
  {
    generators;
    gens = List.map (fun p -> (compile p, on_indices p)) generators;
    nodes = Array.length names;
    cap;
  }

let of_topology ?cap topo =
  of_generators ?cap (Netsim.Topology.automorphism_generators topo)

let generators t = t.generators
let trivial t = t.generators = []

let rec map_value (g : gen) (v : Value.t) : Value.t =
  match v with
  | Value.Addr a ->
    let rec find i =
      if i >= Array.length g.names then v
      else if String.equal g.names.(i) a then g.images.(i)
      else find (i + 1)
    in
    find 0
  | Value.List vs -> Value.List (List.map (map_value g) vs)
  | Value.Int _ | Value.Str _ | Value.Bool _ -> v

let map_tuple g (t : Store.Tuple.t) : Store.Tuple.t = Array.map (map_value g) t
let map_store g (db : Store.t) : Store.t = Store.map_tuples (map_tuple g) db

let apply_value p = map_value (compile p)
let apply_tuple p = map_tuple (compile p)
let apply_store p = map_store (compile p)

(* Generic orbit minimization, so state types wrapping a store (e.g.
   {!Soft_ts.state}, where leases permute jointly with the database)
   canonicalize with the same machinery.

   Two filters keep revisits cheap.  Each member travels with the group
   element (a permutation of node indices) that reached it from [x]:
   when a generator's product with that element was produced before,
   the candidate member is one already recorded, and it is dropped
   without permuting anything — with involutive generators (swaps,
   reflections) this catches every step straight back.  The remaining
   candidates go to a set of members ordered by the same [compare] that
   picks the representative: distinct members of one orbit usually
   differ early, so a probe costs a few short comparisons.  Neither
   filter changes the breadth-first order, so capped orbits finish
   exactly as an unfiltered search would. *)
let canonicalize (type a) t ~(apply : gen -> a -> a)
    ~(compare : a -> a -> int) (x : a) : a =
  if t.gens = [] then x
  else begin
    let module Seen = Set.Make (struct
      type t = a

      let compare = compare
    end) in
    let seen = ref (Seen.singleton x) in
    (* record [y] as seen; false when it already was *)
    let record y =
      let before = !seen in
      seen := Seen.add y before;
      !seen != before
    in
    let products = Hashtbl.create 64 in
    let start = Array.init t.nodes Fun.id in
    Hashtbl.replace products start ();
    let best = ref x in
    let q = Queue.create () in
    Queue.push (x, start) q;
    let expanded = ref 0 in
    let capped = ref false in
    while not (Queue.is_empty q) do
      if !expanded >= t.cap then begin
        capped := true;
        Queue.clear q
      end
      else begin
        let y, reached = Queue.pop q in
        incr expanded;
        List.iter
          (fun (g, on_indices) ->
            let product = Array.map (Array.get on_indices) reached in
            if not (Hashtbl.mem products product) then begin
              Hashtbl.replace products product ();
              let y' = apply g y in
              if record y' then begin
                if compare y' !best < 0 then best := y';
                Queue.push (y', product) q
              end
            end)
          t.gens
      end
    done;
    if !capped then begin
      (* greedy descent: keep applying whichever generator improves *)
      let improved = ref true in
      while !improved do
        improved := false;
        List.iter
          (fun (g, _) ->
            let y' = apply g !best in
            if compare y' !best < 0 then begin
              best := y';
              improved := true
            end)
          t.gens
      done
    end;
    !best
  end

let canon_store t db =
  canonicalize t ~apply:map_store ~compare:Store.compare db

(* The quotient as an equal/hash pair (what the visited table uses
   through its [canon]; exposed for direct use and tests). *)
let store_equal t a b = Store.equal (canon_store t a) (canon_store t b)
let store_hash t db = Store.hash (canon_store t db)
