(* Hash-consed interning of runtime values.

   Every distinct {!Value.t} that passes through the interner is mapped
   to a single canonical representative and a dense integer id.  Two
   things fall out:

   - *Sharing*: stores hold one physical copy of each address string /
     path list, so equality checks between resident values hit the
     physical-equality fast path in {!Value.compare} and the live heap
     shrinks under churn (duplicate strings collapse).
   - *Flat tuples*: the id-native evaluator ({!Ideval}) and the
     distributed runtime store tuples as id arrays ({!Flat}), so joins
     and membership tests compare machine ints.

   Atoms (ints, strings, bools, addresses) are hash-consed through
   {!Value.hash}/{!Value.equal}.  Lists are hash-consed one cons cell at
   a time: the empty list has a fixed id, and the id of [h :: t] is
   keyed by the pair [(id h, id t)] — no structural hash ever walks a
   list.  So interning a list registers every suffix of its spine, and
   the representative of [h :: t] is [List (rep h :: spine (rep t))],
   sharing its tail's spine: a path vector of length L costs one cell
   over its tail instead of L, and every element of a canonical list is
   its own representative (so membership in it is [List.memq]).

   The tables here are process-global caches: they never participate in
   store equality, comparison, or hashing, so model-checker state
   identity is untouched.  Ids are *not* ordered consistently with
   {!Value.compare} — they are allocation-ordered — so they are only
   ever used where equality is the question (hash-cons hits, index-key
   identity); anything that needs the canonical order converts back to
   boxed values first.

   Single-domain contract: the tables are unsynchronized.  Every
   evaluator and runtime in this library runs on the calling domain;
   nothing here may be called from two domains at once. *)

(* The atom table must use Value's own equality and hash — a generic
   Hashtbl.hash would be a second, divergent notion of value identity.
   It never sees a list. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Cons cells, keyed by their (head id, tail id) pair packed into one
   int: ids stay below [2^31] (see [register]), so the packing is
   collision-free.  The hash mixes the packed key — conses onto one
   tail differ only in the high half. *)
module Ptbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

let atoms : int Vtbl.t = Vtbl.create 4096
let conses : int Ptbl.t = Ptbl.create 16

(* id -> canonical representative, grown geometrically. *)
let reverse : Value.t array ref = ref (Array.make 4096 (Value.Int 0))
let count = ref 0
let id_bits = 31

let register rep =
  let id = !count in
  if id >= 1 lsl id_bits then invalid_arg "Intern: id space exhausted";
  let cap = Array.length !reverse in
  if id >= cap then begin
    let bigger = Array.make (2 * cap) (Value.Int 0) in
    Array.blit !reverse 0 bigger 0 cap;
    reverse := bigger
  end;
  !reverse.(id) <- rep;
  incr count;
  id

let of_id i =
  if i >= 0 && i < !count then !reverse.(i)
  else invalid_arg (Printf.sprintf "Intern.of_id: unknown id %d" i)

let nil = register (Value.List [])

(* Both ids are validated by [of_id] before the probe, so the packed
   key is only ever formed from registered ids. *)
let cons h t =
  let hd = of_id h in
  match of_id t with
  | Value.List spine -> (
    let key = (h lsl id_bits) lor t in
    match Ptbl.find_opt conses key with
    | Some i -> i
    | None ->
      let i = register (Value.List (hd :: spine)) in
      Ptbl.add conses key i;
      i)
  | v ->
    invalid_arg
      (Printf.sprintf "Intern.cons: tail %s is not a list" (Value.to_string v))

let atom_id v =
  match Vtbl.find_opt atoms v with
  | Some i -> i
  | None ->
    let i = register v in
    Vtbl.add atoms v i;
    i

let rec id (v : Value.t) : int =
  match v with Value.List vs -> list_id vs | _ -> atom_id v

and list_id = function
  | [] -> nil
  | h :: t ->
    let h = id h in
    cons h (list_id t)

let canon v = of_id (id v)

(* Canonicalize a tuple in place of a fresh copy when every element is
   already canonical — re-adding a resident tuple then allocates
   nothing. *)
let tuple (t : Value.t array) : Value.t array =
  let n = Array.length t in
  let fresh = ref None in
  for i = 0 to n - 1 do
    let c = canon t.(i) in
    if c != t.(i) then begin
      let out =
        match !fresh with
        | Some out -> out
        | None ->
          let out = Array.copy t in
          fresh := Some out;
          out
      in
      out.(i) <- c
    end
  done;
  match !fresh with Some out -> out | None -> t

(* ------------------------------------------------------------------ *)
(* Whole-tuple translation: the id-native evaluator's system-boundary
   conversions.  boxed -> id pays one probe per atom and one pair probe
   per list cell (the expensive direction); id -> boxed is an array
   read per element (the cheap direction).  The E15 microbenchmark in
   bench/ keeps both costs measured. *)

let tuple_ids (t : Value.t array) : int array = Array.map id t
let tuple_of_ids (ids : int array) : Value.t array = Array.map of_id ids

(* Small non-negative integers are the bulk of freshly computed values
   (hop counts, path costs): memoize their ids in a direct-indexed
   table so arithmetic on the id-native path skips the hash-cons probe.
   -1 marks an unfilled slot (real ids are >= 0). *)
let small_int_ids = Array.make 4096 (-1)

let int_id (n : int) : int =
  if n >= 0 && n < Array.length small_int_ids then begin
    let cached = Array.unsafe_get small_int_ids n in
    if cached >= 0 then cached
    else begin
      let i = id (Value.Int n) in
      small_int_ids.(n) <- i;
      i
    end
  end
  else id (Value.Int n)

let size () = !count
