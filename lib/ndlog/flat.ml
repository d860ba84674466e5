(* Flat (id-native) tuple storage: the hash-relation representation
   behind the id-native evaluator ({!Ideval}).

   A flat tuple is an [int array] of interned value ids ({!Intern}); a
   relation is an open-addressing hash set of such tuples ({!Fset});
   a database ({!t}) maps predicate names to relations, each carrying
   id-keyed secondary indexes that are patched in place on every
   [add]/[remove] instead of being rebuilt — the rebuild-in-place the
   adaptive boxed indexes could not afford under churn.

   Everything here is *mutable* and therefore usable only where
   ownership is linear: the distributed runtime's per-node stores and
   the working databases of a view refresh.  The persistent boxed
   {!Store} remains the model checker's state representation — flat
   databases convert to it at observation boundaries ([to_store]),
   producing canonical tuples, so store identity (equal/compare/hash)
   is untouched by the representation underneath.

   Ids are allocation-ordered, not value-ordered, so nothing here
   enumerates in a canonical order; callers that need one (message
   emission, group probes feeding observable output) compare through
   the boxed values ({!Intern.compare_ids}). *)

(* ------------------------------------------------------------------ *)
(* Open-addressing hash sets of id tuples. *)

module Fset = struct
  (* Slot sentinels: statically allocated blocks compared physically.
     They must not be [ [||] ] — every empty array literal is the same
     runtime atom, so a genuine zero-arity tuple would alias it.  Real
     tuples hold non-negative ids, so [min_int] can never collide. *)
  let empty_slot : int array = [| min_int |]
  let tombstone : int array = [| min_int + 1 |]

  type t = {
    mutable slots : int array array;
    mutable size : int;  (* live tuples *)
    mutable tombs : int;  (* deleted slots awaiting rehash *)
    mutable frozen : bool;  (* mutation is a programming error *)
  }

  (* The hot helpers below are top-level recursive functions rather
     than local closures: without flambda a local function capturing
     its context is allocated on every call. *)
  let rec eq_from (a : int array) (b : int array) i n =
    i >= n
    || (Array.unsafe_get a i = Array.unsafe_get b i && eq_from a b (i + 1) n)

  let tuple_eq (a : int array) (b : int array) =
    a == b
    ||
    let n = Array.length a in
    n = Array.length b && eq_from a b 0 n

  (* Multiplicative mix of a fold over the ids; the final shuffle
     spreads consecutive ids (allocation order is dense) across the
     table. *)
  let tuple_hash (t : int array) =
    let h = ref 17 in
    for i = 0 to Array.length t - 1 do
      h := (!h * 31) + t.(i)
    done;
    let h = !h in
    let h = h lxor (h lsr 17) in
    (h * 0x9e3779b1) land max_int

  let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

  let create ?(capacity = 16) () =
    {
      slots = Array.make (ceil_pow2 capacity 8) empty_slot;
      size = 0;
      tombs = 0;
      frozen = false;
    }

  let cardinal s = s.size
  let is_empty s = s.size = 0
  let capacity s = Array.length s.slots
  let freeze s = s.frozen <- true

  (* Probe for [t]: the index holding it, or the first insertable slot
     (a tombstone if one was passed, else the empty slot that ended the
     probe).  The load factor below 1/2 guarantees termination. *)
  let rec probe_from slots (t : int array) mask i first_tomb =
    let u = Array.unsafe_get slots i in
    if u == empty_slot then if first_tomb >= 0 then first_tomb else i
    else if u == tombstone then
      probe_from slots t mask ((i + 1) land mask)
        (if first_tomb < 0 then i else first_tomb)
    else if tuple_eq u t then i
    else probe_from slots t mask ((i + 1) land mask) first_tomb

  let probe s (t : int array) : int =
    let mask = Array.length s.slots - 1 in
    probe_from s.slots t mask (tuple_hash t land mask) (-1)

  let mem s t =
    let u = s.slots.(probe s t) in
    u != empty_slot && u != tombstone

  let rec place slots u mask i =
    if Array.unsafe_get slots i == empty_slot then slots.(i) <- u
    else place slots u mask ((i + 1) land mask)

  let resize s =
    let old = s.slots in
    (* Size the fresh table by live entries alone: growth doubles as
       before, while a tombstone-heavy table (churned down and no
       longer adding) shrinks back toward its live size instead of
       keeping its O(peak) slot array.  Live load stays under 1/2. *)
    let cap' = ceil_pow2 (max 8 (s.size * 4)) 8 in
    s.slots <- Array.make cap' empty_slot;
    s.tombs <- 0;
    let mask = cap' - 1 in
    Array.iter
      (fun u ->
        if u != empty_slot && u != tombstone then
          place s.slots u mask (tuple_hash u land mask))
      old

  (* [true] when the tuple was not already present. *)
  let add s t =
    let i = probe s t in
    let u = s.slots.(i) in
    if u != empty_slot && u != tombstone then false
    else begin
      if s.frozen then invalid_arg "Fset.add: frozen set";
      if u == tombstone then s.tombs <- s.tombs - 1;
      s.slots.(i) <- t;
      s.size <- s.size + 1;
      if (s.size + s.tombs) * 2 >= Array.length s.slots then resize s;
      true
    end

  (* [true] when the tuple was present. *)
  let remove s t =
    let i = probe s t in
    let u = s.slots.(i) in
    if u == empty_slot || u == tombstone then false
    else begin
      if s.frozen then invalid_arg "Fset.remove: frozen set";
      s.slots.(i) <- tombstone;
      s.size <- s.size - 1;
      s.tombs <- s.tombs + 1;
      (* Compact once tombstones outnumber live entries, so probe
         chains stay short after churn-down even if no add follows. *)
      if s.tombs > s.size then resize s;
      true
    end

  (* The first slot at or after [i] that holds a tuple, or the slot
     count: the one slot walk behind every iteration, so that none
     allocates a closure of its own. *)
  let rec next_live slots i =
    if i >= Array.length slots then i
    else
      let u = Array.unsafe_get slots i in
      if u != empty_slot && u != tombstone then i else next_live slots (i + 1)

  let rec iter_from f slots i =
    let i = next_live slots i in
    if i < Array.length slots then begin
      f (Array.unsafe_get slots i);
      iter_from f slots (i + 1)
    end

  let iter f s = iter_from f s.slots 0

  let fold f s acc =
    let acc = ref acc in
    iter (fun u -> acc := f u !acc) s;
    !acc

  let elements s = fold (fun t acc -> t :: acc) s []

  (* The tuples in one array, in slot order, without an intermediate
     list. *)
  let rec fill_from a n slots i =
    let i = next_live slots i in
    if i < Array.length slots then begin
      Array.unsafe_set a n (Array.unsafe_get slots i);
      fill_from a (n + 1) slots (i + 1)
    end

  let to_array s =
    let a = Array.make s.size empty_slot in
    fill_from a 0 s.slots 0;
    a

  (* Empty the set in place.  A slot array its contents fill to an
     eighth or more — any array grown by [add] — is wiped and kept, so
     a scratch set refilled to a like size on every use grows once; a
     larger one (a burst's, cleared after a small use) is replaced by a
     minimal one, so a set cleared after every use keeps its peak size
     only until its next small use. *)
  let clear s =
    if s.frozen then invalid_arg "Fset.clear: frozen set";
    if s.size + s.tombs > 0 then begin
      let n = Array.length s.slots in
      if n > 32 && n > 8 * (s.size + s.tombs) then
        s.slots <- Array.make 8 empty_slot
      else Array.fill s.slots 0 n empty_slot;
      s.size <- 0;
      s.tombs <- 0
    end
end

(* ------------------------------------------------------------------ *)
(* Id-keyed secondary indexes, patched in place. *)

module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal = Fset.tuple_eq
  let hash = Fset.tuple_hash
end)

(* The filler of a bucket's unused tail. *)
let vacant = Fset.empty_slot

(* A bucket is an array of tuples filled from the front, its unused
   tail [vacant]: adding writes the first vacant slot (doubling the
   array when there is none) and removing moves the last tuple into the
   hole, so neither rebuilds the bucket.  A one-tuple bucket is a
   one-slot array, smaller than a list cell. *)
let rec filled (b : int array array) lo hi =
  (* The first vacant slot in [lo, hi), by bisection: the filled prefix
     is dense. *)
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get b mid == vacant then filled b lo mid
    else filled b (mid + 1) hi

let bucket_length b = filled b 0 (Array.length b)

(* An index: the indexed columns, a key buffer for probing without
   allocating (a key array is allocated only for a new bucket), and the
   buckets by key. *)
type idx = {
  cols : int array;
  kbuf : int array;
  buckets : int array array Ktbl.t;
}

type rel = {
  set : Fset.t;
  mutable indexes : idx list;
}

(* A database journal entry: [true] = added, [false] = removed. *)
type jentry = { jpred : string; jtup : int array; jadded : bool }

type t = {
  rels : (string, rel) Hashtbl.t;
  (* The relation found last, by its name's physical identity: a join
     or a round touches one predicate many times in a row, through the
     same name string, and this skips hashing the name. *)
  mutable last_pred : string;
  mutable last_rel : rel;
  mutable version : int;  (* bumped on every mutation: cache stamps *)
  mutable card : int;  (* tuples over all relations *)
  mutable jnl : jentry list;  (* newest-first; live iff jmarks > 0 *)
  mutable jlen : int;
  mutable jmarks : int;  (* outstanding marks *)
}

(* The one set every missing-predicate read shares.  Frozen, so a
   caller that mutates what it thought was a live relation fails loudly
   instead of updating an orphan the database never sees. *)
let empty_relation : Fset.t =
  let s = Fset.create ~capacity:8 () in
  Fset.freeze s;
  s

(* What a missing predicate reads as, without allocating an option. *)
let no_rel = { set = empty_relation; indexes = [] }

(* A name no caller holds, for an empty [last_pred]. *)
let no_pred = String.make 1 '\000'

let create () =
  {
    rels = Hashtbl.create 16;
    last_pred = no_pred;
    last_rel = no_rel;
    version = 0;
    card = 0;
    jnl = [];
    jlen = 0;
    jmarks = 0;
  }

(* Relations are never dropped, so a cached hit stays valid. *)
let find_rel db pred =
  if pred == db.last_pred then db.last_rel
  else
    match Hashtbl.find db.rels pred with
    | r ->
      db.last_pred <- pred;
      db.last_rel <- r;
      r
    | exception Not_found -> no_rel

let rel_of db pred =
  let r = find_rel db pred in
  if r != no_rel then r
  else begin
    let r = { set = Fset.create (); indexes = [] } in
    Hashtbl.replace db.rels pred r;
    r
  end

let version db = db.version
let touch db = db.version <- db.version + 1

(* Load [t]'s key at the index's columns into its key buffer; [false]
   when the tuple is too short: such a tuple can never match a pattern
   binding those positions. *)
let rec load_from cols kbuf (t : int array) i =
  i >= Array.length cols
  ||
  let c = Array.unsafe_get cols i in
  c < Array.length t
  && begin
    Array.unsafe_set kbuf i (Array.unsafe_get t c);
    load_from cols kbuf t (i + 1)
  end

let load_key ix (t : int array) = load_from ix.cols ix.kbuf t 0

let idx_add ix t =
  if load_key ix t then
    match Ktbl.find ix.buckets ix.kbuf with
    | b ->
      let n = filled b 0 (Array.length b) in
      if n < Array.length b then b.(n) <- t
      else begin
        (* Re-bind under a fresh key: [Ktbl.replace] would keep the
           key buffer itself as the stored key. *)
        let b' = Array.make (2 * n) vacant in
        Array.blit b 0 b' 0 n;
        b'.(n) <- t;
        Ktbl.remove ix.buckets ix.kbuf;
        Ktbl.add ix.buckets (Array.copy ix.kbuf) b'
      end
    | exception Not_found -> Ktbl.add ix.buckets (Array.copy ix.kbuf) [| t |]

let rec position (b : int array array) t i n =
  if i >= n || Fset.tuple_eq b.(i) t then i else position b t (i + 1) n

let idx_remove ix t =
  if load_key ix t then
    match Ktbl.find ix.buckets ix.kbuf with
    | exception Not_found -> ()
    | b ->
      let n = filled b 0 (Array.length b) in
      let i = position b t 0 n in
      if i < n then
        if n = 1 then Ktbl.remove ix.buckets ix.kbuf
        else begin
          b.(i) <- b.(n - 1);
          b.(n - 1) <- vacant;
          (* Halve a bucket left a quarter full, so one that churned down
             does not keep its peak size. *)
          if 4 * (n - 1) <= Array.length b then begin
            Ktbl.remove ix.buckets ix.kbuf;
            Ktbl.add ix.buckets (Array.copy ix.kbuf)
              (Array.sub b 0 (Array.length b / 2))
          end
        end

(* ------------------------------------------------------------------ *)
(* The database API. *)

let relation db pred : Fset.t = (find_rel db pred).set
let mem db pred t = Fset.mem (find_rel db pred).set t

let journal db e =
  if db.jmarks > 0 then begin
    db.jnl <- e :: db.jnl;
    db.jlen <- db.jlen + 1
  end

let rec add_to_indexes t = function
  | [] -> ()
  | ix :: rest ->
    idx_add ix t;
    add_to_indexes t rest

let rec remove_from_indexes t = function
  | [] -> ()
  | ix :: rest ->
    idx_remove ix t;
    remove_from_indexes t rest

(* [true] when newly added; every cached index is patched in place. *)
let add db pred t : bool =
  let r = rel_of db pred in
  if Fset.add r.set t then begin
    add_to_indexes t r.indexes;
    touch db;
    db.card <- db.card + 1;
    journal db { jpred = pred; jtup = t; jadded = true };
    true
  end
  else false

let remove db pred t : bool =
  let r = find_rel db pred in
  if r != no_rel && Fset.remove r.set t then begin
    remove_from_indexes t r.indexes;
    touch db;
    db.card <- db.card - 1;
    journal db { jpred = pred; jtup = t; jadded = false };
    true
  end
  else false

let cardinal db pred = Fset.cardinal (find_rel db pred).set

let is_empty db = db.card = 0

let iter_rel db pred f = Fset.iter f (find_rel db pred).set

let rec find_index cols = function
  | [] -> raise Not_found
  | ix :: rest ->
    if ix.cols == cols || Fset.tuple_eq ix.cols cols then ix
    else find_index cols rest

(* Find or build the [(pred, cols)] index and answer a point probe.
   Fresh indexes are built by one pass over the relation, sized to it
   (a node holds many small indexes); thereafter [add]/[remove] keep
   them exact.  The returned bucket is shared. *)
let no_tuples : int array array = [| vacant |]

let lookup db pred ~(cols : int array) ~(key : int array) : int array array =
  let r = find_rel db pred in
  if r == no_rel then no_tuples
  else
    let ix =
      match find_index cols r.indexes with
      | ix -> ix
      | exception Not_found ->
        let ix =
          {
            cols = Array.copy cols;
            kbuf = Array.make (Array.length cols) 0;
            buckets = Ktbl.create (Fset.cardinal r.set);
          }
        in
        Fset.iter (fun t -> idx_add ix t) r.set;
        r.indexes <- ix :: r.indexes;
        ix
    in
    match Ktbl.find ix.buckets key with
    | b -> b
    | exception Not_found -> no_tuples

let rec add_from dst pred slots i =
  let i = Fset.next_live slots i in
  if i < Array.length slots then begin
    ignore (add dst pred (Array.unsafe_get slots i));
    add_from dst pred slots (i + 1)
  end

let union_into dst src =
  if src.card > 0 then
    Hashtbl.iter (fun pred r -> add_from dst pred r.set.Fset.slots 0) src.rels

(* ------------------------------------------------------------------ *)
(* The journal behind in-place view refresh.

   [mark] opens a checkpoint; every subsequent effective [add]/[remove]
   is journaled until the matching [commit], and releasing the last
   outstanding mark discards the journal wholesale.  Marks must be
   released LIFO, innermost first. *)

type mark = int

let mark db =
  db.jmarks <- db.jmarks + 1;
  db.jlen

let commit db (_ : mark) =
  db.jmarks <- db.jmarks - 1;
  if db.jmarks = 0 then begin
    db.jnl <- [];
    db.jlen <- 0
  end

(* The *net* movement since a mark, per touched predicate: a tuple
   whose first journaled op is an add and whose last is an add moved
   in; first-remove/last-remove moved out; anything else (add;remove,
   remove;...;add) cancelled.  O(changes) — this is what replaces
   whole-relation diffing in the refresh walk. *)
let net_since db (m : mark) : (string * int array list * int array list) list =
  (* Entries since the mark, oldest first. *)
  let entries =
    let rec take acc n l =
      if n = 0 then acc
      else
        match l with
        | e :: rest -> take (e :: acc) (n - 1) rest
        | [] -> assert false
    in
    take [] (db.jlen - m) db.jnl
  in
  let preds = ref [] in
  let tbl : (string, (bool * bool) ref Ktbl.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let kt =
        match Hashtbl.find_opt tbl e.jpred with
        | Some kt -> kt
        | None ->
          let kt = Ktbl.create 16 in
          Hashtbl.replace tbl e.jpred kt;
          preds := e.jpred :: !preds;
          kt
      in
      match Ktbl.find_opt kt e.jtup with
      | Some r -> r := (fst !r, e.jadded)
      | None -> Ktbl.replace kt e.jtup (ref (e.jadded, e.jadded)))
    entries;
  List.rev_map
    (fun pred ->
      let kt = Hashtbl.find tbl pred in
      let adds = ref [] and rems = ref [] in
      Ktbl.iter
        (fun t r ->
          match !r with
          | true, true -> adds := t :: !adds
          | false, false -> rems := t :: !rems
          | _ -> ())
        kt;
      (pred, !adds, !rems))
    !preds

(* Every journaled operation since [m], newest first, as
   [f pred tuple added] — the raw journal, with no netting: an add
   cancelled by a later remove is reported twice.  O(changes). *)
let iter_since db (m : mark) f =
  let rec go n = function
    | e :: rest when n > 0 ->
      f e.jpred e.jtup e.jadded;
      go (n - 1) rest
    | _ -> ()
  in
  go (db.jlen - m) db.jnl

(* Empty the whole database in place, outside any mark: relations keep
   their (cleared) slot arrays and indexes, so a scratch database
   reused call after call stops allocating once warm. *)
let clear db =
  if db.jmarks > 0 then invalid_arg "Flat.clear: under a journal mark";
  if db.card > 0 then begin
    Hashtbl.iter
      (fun _ r ->
        if not (Fset.is_empty r.set) then begin
          Fset.clear r.set;
          List.iter (fun ix -> Ktbl.reset ix.buckets) r.indexes
        end)
      db.rels;
    db.card <- 0;
    touch db
  end

(* Empty one relation through the journaled mutation path (indexes
   patched, removals recorded).  The element snapshot is taken up
   front: removal can trigger a compacting rehash mid-iteration. *)
let clear_rel db pred =
  List.iter
    (fun t -> ignore (remove db pred t))
    (Fset.elements (find_rel db pred).set)

(* ------------------------------------------------------------------ *)
(* Conversion at system boundaries. *)

(* Materialize the canonical boxed store: id -> value is the cheap
   translation direction (an array read per element), and each
   relation is built in bulk, one sorted set per predicate.  The result's
   tuples carry canonical representatives, so [Store.equal/compare/
   hash] of materializations coincide with those of any structurally
   equal boxed store. *)
let to_store db : Store.t =
  Hashtbl.fold
    (fun pred r acc ->
      if Fset.is_empty r.set then acc
      else
        Store.set_relation pred
          (Store.Tset.of_list
             (Fset.fold (fun t l -> Intern.tuple_of_ids t :: l) r.set []))
          acc)
    db.rels Store.empty

(* The expensive direction — one hash-cons probe per element — used
   only at true boundaries (loading an initial store, differential
   tests). *)
let of_store (s : Store.t) : t =
  let db = create () in
  List.iter
    (fun pred ->
      Store.iter_rel pred
        (fun t -> ignore (add db pred (Intern.tuple_ids t)))
        s)
    (Store.preds s);
  db
