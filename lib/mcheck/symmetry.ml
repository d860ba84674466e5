(* Symmetry reduction: quotient the checker's visited table by the
   automorphism group of the network topology.

   A protocol running on a symmetric topology produces symmetric state
   spaces — rotating a ring rotates every reachable database with it —
   so the checker need only visit one member of each orbit.  The
   quotient is implemented as key canonicalization ({!Explore.Table}'s
   [canon]): each state is mapped to a canonical member of its orbit
   before hashing, giving an alternative equal/hash pair on the table
   without touching exploration itself (real states, real traces).

   The group is enumerated once, when it is built (Dimino's algorithm),
   as a sorted table of node-index permutations; [cap] bounds its order.
   A state's canonical
   form is chosen in two steps, after nauty's partition refinement
   (McKay) and Ip & Dill's scalarsets:

   - Colour.  Every node starts with one colour; a round recolours a
     node by its old colour and the multiset of facts mentioning it,
     with every node name in a fact (inside path lists too) replaced by
     its colour and its own occurrences marked by position.  Rounds
     repeat until the number of colours stops growing.  The colouring
     is a function of the facts alone, so it commutes with every node
     permutation: permuting the state permutes the colour vector.
   - Choose.  Permuting the state by a group element permutes its
     colour vector by index arithmetic alone, so the elements whose
     image has the lexicographically least colour vector are found
     without touching a store.  The canonical form is the [compare]
     minimum among those images.  They form the orbit of one of them
     under the subgroup preserving the least colour vector; a few
     generators of that subgroup, picked greedily over the table's
     element numbers, close that orbit — identical leaves of a star
     cost a handful of permutations instead of the whole symmetric
     group.

   The result is the minimum of (colour vector, state) over the orbit:
   an exact canonical form for any colouring that commutes with the
   group, so orbits are never split or merged.  Hash collisions in the
   colours merely leave more candidates to compare.

   Node identity is the [Value.Addr] sort: permutations rename
   addresses (deeply, through list values — path vectors permute with
   their nodes) and leave integers, strings, and booleans alone. *)

module Store = Ndlog.Store
module Value = Ndlog.Value

type perm = (string * string) list

exception Not_a_bijection of perm
exception Group_too_large of int

(* A permutation compiled for bulk application: the names it moves,
   each paired with its image as an interned [Addr] value, so renaming
   an address is a scan of a short array and allocates nothing. *)
type gen = { names : string array; images : Value.t array }

(* Group elements are stored as preimage arrays over the node indices:
   element [p] brings node [p.(j)] to position [j], so the colour
   vector of its image of a state is [j -> colour.(p.(j))]. *)
type t = {
  generators : perm list;
  nodes : string array;  (* the names the generators mention, sorted *)
  addrs : Value.t array;  (* each node's interned [Addr] *)
  order : int;
  table : int array;
      (* the group in lexicographic order, element [r] at
         [r * k .. r * k + k - 1] for [k] nodes; element 0 is the
         identity *)
}

let identity_perm p = List.for_all (fun (a, b) -> String.equal a b) p

let apply_name (p : perm) n =
  match List.assoc_opt n p with Some m -> m | None -> n

(* Names not listed are fixed, so a map is a bijection exactly when it
   is injective on the names it mentions. *)
let bijective (p : perm) =
  let distinct = List.sort_uniq String.compare in
  let mentioned = distinct (List.concat_map (fun (a, b) -> [ a; b ]) p) in
  List.length (distinct (List.map (apply_name p) mentioned))
  = List.length mentioned

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

let row_compare (a : int array) b =
  let j = ref 0 and k = Array.length a in
  while !j < k && a.(!j) = b.(!j) do
    incr j
  done;
  if !j = k then 0 else Int.compare a.(!j) b.(!j)

let mix h x =
  let z = ((h lxor (h lsr 31)) * 0x5DEECE66D) + x in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 32)

module Rows = Hashtbl.Make (struct
  type t = int array

  let equal a b = row_compare a b = 0
  let hash a = Array.fold_left mix 0 a land max_int
end)

(* One step of Dimino's algorithm: the group [elem 0 .. elem (m-1)]
   (with [m = size ()]), generated by [gens] less [g], grows to the
   group [gens] generate by whole right cosets, each [push]ed element
   new.  [mul a b] is [a] followed by [b]. *)
let dimino ~mul ~mem ~push ~elem ~size gens g =
  let m = size () in
  let coset c =
    for i = 0 to m - 1 do
      push (mul (elem i) c)
    done
  in
  let reps = Queue.create () in
  coset g;
  Queue.push g reps;
  while not (Queue.is_empty reps) do
    let c = Queue.pop reps in
    List.iter
      (fun s ->
        let cs = mul c s in
        if not (mem cs) then begin
          coset cs;
          Queue.push cs reps
        end)
      gens
  done

let of_generators ?(cap = 4096) generators =
  List.iter
    (fun p -> if not (bijective p) then raise (Not_a_bijection p))
    generators;
  let generators = List.filter (fun p -> not (identity_perm p)) generators in
  let nodes =
    List.concat_map (List.concat_map (fun (a, b) -> [ a; b ])) generators
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let k = Array.length nodes in
  let index = Hashtbl.create k in
  Array.iteri (fun i n -> Hashtbl.replace index n i) nodes;
  let preimage p =
    let a = Array.make k 0 in
    Array.iteri (fun i n -> a.(Hashtbl.find index (apply_name p n)) <- i) nodes;
    a
  in
  let seen = Rows.create 64 and elems = ref [||] and size = ref 0 in
  let push e =
    if !size >= cap then raise (Group_too_large cap);
    if !size = Array.length !elems then
      elems := Array.append !elems (Array.make (max 8 !size) e);
    !elems.(!size) <- e;
    incr size;
    Rows.replace seen e ()
  in
  push (Array.init k Fun.id);
  let gens = ref [] in
  List.iter
    (fun g ->
      if not (Rows.mem seen g) then begin
        gens := g :: !gens;
        dimino
          ~mul:(fun a b ->
            let c = Array.make k 0 in
            for j = 0 to k - 1 do
              c.(j) <- b.(a.(j))
            done;
            c)
          ~mem:(Rows.mem seen) ~push
          ~elem:(Array.get !elems)
          ~size:(fun () -> !size)
          !gens g
      end)
    (List.map preimage generators);
  (* sorted, so rows are found by binary search and the identity,
     the least permutation, is element 0 *)
  let elems = Array.sub !elems 0 !size in
  Array.stable_sort row_compare elems;
  {
    generators;
    nodes;
    addrs = Array.map (fun n -> Ndlog.Intern.canon (Value.Addr n)) nodes;
    order = !size;
    table = Array.concat (Array.to_list elems);
  }

let of_topology ?cap topo =
  of_generators ?cap (Netsim.Topology.automorphism_generators topo)

let generators t = t.generators
let order t = t.order
let trivial t = t.order = 1

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

let apply_tuple p = map_tuple (compile p)
let apply_store p = map_store (compile p)

(* Element [r], compiled: node [p.(j)] goes to position [j] for its
   row [p]. *)
let gen_of t r =
  let k = Array.length t.nodes in
  let p j = t.table.((r * k) + j) in
  let moved = List.filter (fun j -> p j <> j) (List.init k Fun.id) in
  {
    names = Array.of_list (List.map (fun j -> t.nodes.(p j)) moved);
    images = Array.of_list (List.map (fun j -> t.addrs.(j)) moved);
  }

(* The element whose row is [p], by binary search over the sorted
   table; [p] must be a member. *)
let find_row t (p : int array) =
  let k = Array.length p in
  let lo = ref 0 and hi = ref (t.order - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let o = mid * k and j = ref 0 in
    while !j < k && p.(!j) = t.table.(o + !j) do
      incr j
    done;
    if !j < k && p.(!j) > t.table.(o + !j) then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Colour refinement. *)

let distinct (c : int array) =
  let s = Array.copy c in
  Array.sort Int.compare s;
  let n = ref 1 in
  for i = 1 to Array.length s - 1 do
    if s.(i) <> s.(i - 1) then incr n
  done;
  !n

(* A fact's leaves, flattened once per canonicalization: a node
   occurrence is [2 * index], any other leaf (a value naming no node,
   or the head of a list) an odd hash. *)
let flatten t tag (tuple : Store.Tuple.t) =
  let leaves = ref [] and nodes = ref false in
  let const h = leaves := ((h lsl 1) lor 1) :: !leaves in
  let rec leaf (v : Value.t) =
    match v with
    | Value.Addr a ->
      let rec find i =
        if i >= Array.length t.nodes then const (mix 2 (Hashtbl.hash a))
        else if t.addrs.(i) == v || String.equal t.nodes.(i) a then begin
          nodes := true;
          leaves := (2 * i) :: !leaves
        end
        else find (i + 1)
      in
      find 0
    | Value.Int n -> const (mix 3 n)
    | Value.Str s -> const (mix 4 (Hashtbl.hash s))
    | Value.Bool b -> const (mix 5 (Bool.to_int b))
    | Value.List vs ->
      const (mix 6 (List.length vs));
      List.iter leaf vs
  in
  Array.iter leaf tuple;
  if !nodes then Some (Array.of_list (tag :: List.rev !leaves)) else None

(* The equivariant colouring of the state whose facts [facts]
   enumerates. *)
let colours t facts =
  let k = Array.length t.nodes in
  let flat = ref [] in
  facts (fun tag tuple ->
      match flatten t tag tuple with Some f -> flat := f :: !flat | None -> ());
  let colour = Array.make k 0 and credit = Array.make k 0 in
  let leaf_hash x = if x land 1 = 0 then mix 1 colour.(x lsr 1) else x in
  let round (f : int array) =
    let h = ref f.(0) in
    for i = 1 to Array.length f - 1 do
      h := mix !h (leaf_hash f.(i))
    done;
    for i = 1 to Array.length f - 1 do
      let x = f.(i) in
      if x land 1 = 0 then
        credit.(x lsr 1) <- credit.(x lsr 1) + mix !h i
    done
  in
  let rec refine classes =
    Array.fill credit 0 k 0;
    List.iter round !flat;
    for i = 0 to k - 1 do
      colour.(i) <- mix colour.(i) credit.(i)
    done;
    let classes' = distinct colour in
    if classes' > classes && classes' < k then refine classes'
  in
  refine 1;
  colour

(* ------------------------------------------------------------------ *)
(* Canonicalization. *)

(* The elements whose image of the coloured state has the least colour
   vector, in table order, and the first of them. *)
let least_elements t colour =
  let k = Array.length t.nodes in
  let best = ref 0 and least = ref [ 0 ] in
  for r = 1 to t.order - 1 do
    let b = !best * k and o = r * k in
    let rec cmp j =
      if j = k then 0
      else
        let c =
          Int.compare colour.(t.table.(o + j)) colour.(t.table.(b + j))
        in
        if c <> 0 then c else cmp (j + 1)
    in
    let c = cmp 0 in
    if c < 0 then begin
      best := r;
      least := [ r ]
    end
    else if c = 0 then least := r :: !least
  done;
  (!best, List.rev !least)

(* Greedy generators of the [n]-element subgroup [{ r0^-1 r | r in
   least }] (the elements preserving the least colour vector): take
   each element that those picked so far do not generate, growing the
   generated subgroup over element numbers by {!dimino}. *)
let subgroup_generators t r0 least n =
  let k = Array.length t.nodes in
  let inv0 = Array.make k 0 in
  for j = 0 to k - 1 do
    inv0.(t.table.((r0 * k) + j)) <- j
  done;
  let buf = Array.make k 0 in
  let mul a b =
    for j = 0 to k - 1 do
      buf.(j) <- t.table.((b * k) + t.table.((a * k) + j))
    done;
    find_row t buf
  in
  let member = Bytes.make t.order '\000' in
  let mem r = Bytes.get member r <> '\000' in
  let elems = Array.make n 0 and size = ref 0 and gens = ref [] in
  let push r =
    Bytes.set member r '\001';
    elems.(!size) <- r;
    incr size
  in
  push 0;
  List.iter
    (fun r ->
      if !size < n then begin
        for j = 0 to k - 1 do
          buf.(j) <- inv0.(t.table.((r * k) + j))
        done;
        let h = find_row t buf in
        if not (mem h) then begin
          gens := h :: !gens;
          dimino ~mul ~mem ~push ~elem:(Array.get elems)
            ~size:(fun () -> !size)
            !gens h
        end
      end)
    least;
  !gens

let canonicalize (type a) t
    ~(facts : a -> (int -> Store.Tuple.t -> unit) -> unit)
    ~(apply : gen -> a -> a) ~(compare : a -> a -> int) (x : a) : a =
  if t.order = 1 then x
  else
    let r0, least = least_elements t (colours t (facts x)) in
    let y0 = if r0 = 0 then x else apply (gen_of t r0) x in
    let n = List.length least in
    if n = 1 then y0
    else begin
      (* the images under [least] are the orbit of [y0] under the
         subgroup preserving its colour vector *)
      let gens = List.map (gen_of t) (subgroup_generators t r0 least n) in
      let module Seen = Set.Make (struct
        type t = a

        let compare = compare
      end) in
      let seen = ref (Seen.singleton y0) and best = ref y0 in
      let q = Queue.create () in
      Queue.push y0 q;
      while not (Queue.is_empty q) do
        let y = Queue.pop q in
        List.iter
          (fun g ->
            let y' = apply g y in
            if not (Seen.mem y' !seen) then begin
              seen := Seen.add y' !seen;
              if compare y' !best < 0 then best := y';
              Queue.push y' q
            end)
          gens
      done;
      !best
    end

let store_facts db sink = Store.iter (fun p t -> sink (Hashtbl.hash p) t) db

let canon_store t db =
  canonicalize t ~facts:store_facts ~apply:map_store ~compare:Store.compare db

(* The quotient as an equal/hash pair (what the visited table uses
   through its [canon]; exposed for direct use and tests). *)
let store_equal t a b = Store.equal (canon_store t a) (canon_store t b)
let store_hash t db = Store.hash (canon_store t db)
