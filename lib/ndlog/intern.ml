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

   The tables here are process-global caches, exactly like the
   secondary-index caches in {!Store}: they never participate in store
   equality, comparison, or hashing, so model-checker state identity is
   untouched.  Ids are *not* ordered consistently with
   {!Value.compare} — they are allocation-ordered — so they are only
   ever used where equality is the question (hash-cons hits, index-key
   identity); anything that needs the canonical order converts back to
   boxed values first.

   Single-domain contract: the tables are unsynchronized.  Every
   evaluator and runtime in this library runs on the calling domain;
   nothing here may be called from two domains at once. *)

(* The hash-cons table must use Value's own equality and hash —
   Value.hash is structural over the List constructor, and a generic
   Hashtbl.hash would be a second, divergent notion of value identity. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let table : (int * Value.t) Vtbl.t = Vtbl.create 4096

(* id -> canonical representative, grown geometrically. *)
let reverse : Value.t array ref = ref (Array.make 4096 (Value.Int 0))
let count = ref 0

let register rep =
  let id = !count in
  let cap = Array.length !reverse in
  if id >= cap then begin
    let bigger = Array.make (2 * cap) (Value.Int 0) in
    Array.blit !reverse 0 bigger 0 cap;
    reverse := bigger
  end;
  !reverse.(id) <- rep;
  incr count;
  id

(* Canonicalize [v], interning it (and, for lists, every suffix of its
   spine via the recursive rebuild) on first sight. *)
let rec intern (v : Value.t) : int * Value.t =
  match Vtbl.find_opt table v with
  | Some entry -> entry
  | None ->
    let rep =
      match v with
      | Value.List vs -> Value.List (List.map canon vs)
      | _ -> v
    in
    let entry = (register rep, rep) in
    Vtbl.add table v entry;
    entry

and canon v = snd (intern v)

let id v = fst (intern v)

let of_id i =
  if i >= 0 && i < !count then !reverse.(i)
  else invalid_arg (Printf.sprintf "Intern.of_id: unknown id %d" i)

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
   conversions.  boxed -> id pays one hash-cons probe per element (the
   expensive direction: hashing walks the value's structure); id ->
   boxed is an array read per element (the cheap direction).  The E15
   microbenchmark in bench/ keeps both costs measured. *)

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
