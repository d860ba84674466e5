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
   emission, group probes feeding observable output) materialize boxed
   tuples and sort with {!Store.Tuple.compare}. *)

(* ------------------------------------------------------------------ *)
(* Open-addressing hash sets of id tuples. *)

module Fset = struct
  (* Slot sentinels: statically allocated blocks compared physically.
     They must not be [ [||] ] — every empty array literal is the same
     runtime atom, so a genuine zero-arity tuple would alias it.  Real
     tuples hold non-negative ids, so [min_int] can never collide. *)
  let empty_slot : int array = [| min_int |]
  let tombstone : int array = [| min_int + 1 |]

  (* A journal entry: [true] = the tuple was added, [false] = removed.
     Entries are kept newest-first; a mark is a journal length, so
     rollback pops and inverts entries until the length matches —
     O(changes) — and releasing the last mark drops the whole journal
     in O(1). *)
  type entry = bool * int array

  type t = {
    mutable slots : int array array;
    mutable size : int;  (* live tuples *)
    mutable tombs : int;  (* deleted slots awaiting rehash *)
    mutable frozen : bool;  (* mutation is a programming error *)
    mutable jnl : entry list;  (* newest-first; live iff jmarks > 0 *)
    mutable jlen : int;
    mutable jmarks : int;  (* outstanding marks *)
  }

  let tuple_eq (a : int array) (b : int array) =
    a == b
    ||
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

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
      jnl = [];
      jlen = 0;
      jmarks = 0;
    }

  let cardinal s = s.size
  let is_empty s = s.size = 0
  let capacity s = Array.length s.slots
  let freeze s = s.frozen <- true

  (* Probe for [t]: the index holding it, or the first insertable slot
     (a tombstone if one was passed, else the empty slot that ended the
     probe).  The load factor below 1/2 guarantees termination. *)
  let probe s (t : int array) : int =
    let mask = Array.length s.slots - 1 in
    let h = tuple_hash t land mask in
    let first_tomb = ref (-1) in
    let rec go i =
      let u = Array.unsafe_get s.slots i in
      if u == empty_slot then if !first_tomb >= 0 then !first_tomb else i
      else if u == tombstone then begin
        if !first_tomb < 0 then first_tomb := i;
        go ((i + 1) land mask)
      end
      else if tuple_eq u t then i
      else go ((i + 1) land mask)
    in
    go h

  let mem s t =
    let u = s.slots.(probe s t) in
    u != empty_slot && u != tombstone

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
        if u != empty_slot && u != tombstone then begin
          let rec place i =
            if Array.unsafe_get s.slots i == empty_slot then s.slots.(i) <- u
            else place ((i + 1) land mask)
          in
          place (tuple_hash u land mask)
        end)
      old

  let journal s e =
    if s.jmarks > 0 then begin
      s.jnl <- e :: s.jnl;
      s.jlen <- s.jlen + 1
    end

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
      journal s (true, t);
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
      journal s (false, t);
      (* Compact once tombstones outnumber live entries, so probe
         chains stay short after churn-down even if no add follows. *)
      if s.tombs > s.size then resize s;
      true
    end

  (* Checkpoints.  Marks are positions in the journal and must be
     released (rolled back or committed) LIFO, innermost first. *)
  type mark = int

  let mark s =
    s.jmarks <- s.jmarks + 1;
    s.jlen

  (* O(1): drop the mark; once no marks remain the journal is dead
     weight and is discarded wholesale. *)
  let commit s (_ : mark) =
    s.jmarks <- s.jmarks - 1;
    if s.jmarks = 0 then begin
      s.jnl <- [];
      s.jlen <- 0
    end

  (* O(changes since the mark): pop entries newest-first and invert
     each.  Set semantics make inverse replay exact: every journaled op
     actually changed membership, so the inverse op restores it. *)
  let rollback s (m : mark) =
    let outer = s.jmarks - 1 in
    s.jmarks <- 0 (* the undo ops themselves must not be journaled *);
    while s.jlen > m do
      match s.jnl with
      | (was_add, t) :: rest ->
        s.jnl <- rest;
        s.jlen <- s.jlen - 1;
        if was_add then ignore (remove s t) else ignore (add s t)
      | [] -> assert false
    done;
    s.jmarks <- outer;
    if s.jmarks = 0 then begin
      s.jnl <- [];
      s.jlen <- 0
    end

  let iter f s =
    Array.iter
      (fun u -> if u != empty_slot && u != tombstone then f u)
      s.slots

  let fold f s acc =
    let acc = ref acc in
    iter (fun u -> acc := f u !acc) s;
    !acc

  let elements s = fold (fun t acc -> t :: acc) s []

  (* The copy is an independent set: unfrozen, with no journal — the
     original's outstanding marks do not transfer. *)
  let copy s =
    {
      slots = Array.copy s.slots;
      size = s.size;
      tombs = s.tombs;
      frozen = false;
      jnl = [];
      jlen = 0;
      jmarks = 0;
    }

  let equal a b =
    a.size = b.size
    &&
    let ok = ref true in
    (try iter (fun t -> if not (mem b t) then (ok := false; raise Exit)) a
     with Exit -> ());
    !ok
end

(* ------------------------------------------------------------------ *)
(* Id-keyed secondary indexes, patched in place. *)

(* Index keys are the tuple's ids at the indexed columns, packed into a
   fresh [int array]. *)
module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal = Fset.tuple_eq
  let hash = Fset.tuple_hash
end)

(* Buckets are immutable lists replaced wholesale on update, so a
   shallow [Hashtbl.copy] of an index shares them safely: a patch in
   one copy installs a fresh list and never mutates the shared one. *)
type idx = int array list Ktbl.t

type rel = {
  set : Fset.t;
  mutable indexes : (int list * idx) list;  (* assoc by column list *)
}

(* A database journal entry: [true] = added, [false] = removed. *)
type jentry = { jpred : string; jtup : int array; jadded : bool }

type t = {
  rels : (string, rel) Hashtbl.t;
  mutable version : int;  (* bumped on every mutation: cache stamps *)
  mutable jnl : jentry list;  (* newest-first; live iff jmarks > 0 *)
  mutable jlen : int;
  mutable jmarks : int;  (* outstanding marks *)
}

let create () =
  { rels = Hashtbl.create 16; version = 0; jnl = []; jlen = 0; jmarks = 0 }

let mkrel () = { set = Fset.create (); indexes = [] }

let find_rel db pred = Hashtbl.find_opt db.rels pred

let rel_of db pred =
  match Hashtbl.find_opt db.rels pred with
  | Some r -> r
  | None ->
    let r = mkrel () in
    Hashtbl.replace db.rels pred r;
    r

let version db = db.version
let touch db = db.version <- db.version + 1

(* The key of [t] at [cols], or [None] when the tuple is too short —
   mirroring {!Store.key_at}: such a tuple can never match a pattern
   binding those positions. *)
let key_at (cols : int list) (t : int array) : int array option =
  let n = Array.length t in
  let rec len = function [] -> 0 | _ :: r -> 1 + len r in
  let k = len cols in
  let out = Array.make (max k 1) 0 in
  let rec go i = function
    | [] -> true
    | c :: rest ->
      c < n
      && begin
        out.(i) <- t.(c);
        go (i + 1) rest
      end
  in
  if k = 0 then Some [||] else if go 0 cols then Some out else None

let idx_add (cols, (idx : idx)) t =
  match key_at cols t with
  | None -> ()
  | Some key ->
    let bucket = match Ktbl.find_opt idx key with Some l -> l | None -> [] in
    Ktbl.replace idx key (t :: bucket)

let idx_remove (cols, (idx : idx)) t =
  match key_at cols t with
  | None -> ()
  | Some key -> (
    match Ktbl.find_opt idx key with
    | None -> ()
    | Some bucket -> (
      match List.filter (fun u -> not (Fset.tuple_eq u t)) bucket with
      | [] -> Ktbl.remove idx key
      | bucket' -> Ktbl.replace idx key bucket'))

(* ------------------------------------------------------------------ *)
(* The database API. *)

(* The one set every missing-predicate read shares.  Frozen, so a
   caller that mutates what it thought was a live relation fails loudly
   instead of updating an orphan the database never sees. *)
let empty_relation : Fset.t =
  let s = Fset.create ~capacity:8 () in
  Fset.freeze s;
  s

let relation db pred : Fset.t =
  match find_rel db pred with Some r -> r.set | None -> empty_relation

let mem db pred t =
  match find_rel db pred with Some r -> Fset.mem r.set t | None -> false

let journal db e =
  if db.jmarks > 0 then begin
    db.jnl <- e :: db.jnl;
    db.jlen <- db.jlen + 1
  end

(* [true] when newly added; every cached index is patched in place. *)
let add db pred t : bool =
  let r = rel_of db pred in
  if Fset.add r.set t then begin
    List.iter (fun ix -> idx_add ix t) r.indexes;
    touch db;
    journal db { jpred = pred; jtup = t; jadded = true };
    true
  end
  else false

let remove db pred t : bool =
  match find_rel db pred with
  | None -> false
  | Some r ->
    if Fset.remove r.set t then begin
      List.iter (fun ix -> idx_remove ix t) r.indexes;
      touch db;
      journal db { jpred = pred; jtup = t; jadded = false };
      true
    end
    else false

let cardinal db pred =
  match find_rel db pred with Some r -> Fset.cardinal r.set | None -> 0

let preds db =
  List.sort String.compare
    (Hashtbl.fold
       (fun p r acc -> if Fset.is_empty r.set then acc else p :: acc)
       db.rels [])

let total_tuples db =
  Hashtbl.fold (fun _ r acc -> acc + Fset.cardinal r.set) db.rels 0

let is_empty db =
  Hashtbl.fold (fun _ r acc -> acc && Fset.is_empty r.set) db.rels true

let iter_rel db pred f =
  match find_rel db pred with Some r -> Fset.iter f r.set | None -> ()

let fold_rel db pred f acc =
  match find_rel db pred with Some r -> Fset.fold f r.set acc | None -> acc

let iter db f =
  List.iter (fun pred -> iter_rel db pred (fun t -> f pred t)) (preds db)

(* Find or build the [(pred, cols)] index and answer a point probe.
   Fresh indexes are built by one pass over the relation; thereafter
   [add]/[remove] keep them exact. *)
let lookup db pred ~(cols : int list) ~(key : int array) : int array list =
  match find_rel db pred with
  | None -> []
  | Some r -> (
    let idx =
      match List.assoc_opt cols r.indexes with
      | Some idx -> idx
      | None ->
        let idx = Ktbl.create 64 in
        Fset.iter (fun t -> idx_add (cols, idx) t) r.set;
        r.indexes <- (cols, idx) :: r.indexes;
        idx
    in
    match Ktbl.find_opt idx key with Some bucket -> bucket | None -> [])

(* Transient grouping of a (typically small) relation by [cols]:
   like {!groups}, in no particular order —
   callers needing the canonical order sort boxed keys themselves. *)
let group_set (set : Fset.t) ~(cols : int list) :
    (int array * int array list) list =
  let tbl : int array list Ktbl.t = Ktbl.create 16 in
  let order = ref [] in
  Fset.iter
    (fun t ->
      match key_at cols t with
      | None -> ()
      | Some key -> (
        match Ktbl.find_opt tbl key with
        | Some l -> Ktbl.replace tbl key (t :: l)
        | None ->
          Ktbl.replace tbl key [ t ];
          order := key :: !order))
    set;
  List.rev_map (fun key -> (key, Ktbl.find tbl key)) !order

let groups db pred ~(cols : int list) : (int array * int array list) list =
  match find_rel db pred with
  | None -> []
  | Some r -> group_set r.set ~cols

(* ------------------------------------------------------------------ *)
(* Whole-database operations (working copies for view refresh). *)

(* Deep-copies the tuple sets; indexes are shallow-copied hash tables
   whose immutable buckets are shared (patches replace, never mutate). *)
let copy db =
  let rels = Hashtbl.create (Hashtbl.length db.rels) in
  Hashtbl.iter
    (fun pred r ->
      Hashtbl.replace rels pred
        {
          set = Fset.copy r.set;
          indexes = List.map (fun (cols, idx) -> (cols, Ktbl.copy idx)) r.indexes;
        })
    db.rels;
  { rels; version = db.version; jnl = []; jlen = 0; jmarks = 0 }

let restrict db keep =
  let out = create () in
  List.iter
    (fun pred ->
      match find_rel db pred with
      | None -> ()
      | Some r ->
        Hashtbl.replace out.rels pred
          {
            set = Fset.copy r.set;
            indexes =
              List.map (fun (cols, idx) -> (cols, Ktbl.copy idx)) r.indexes;
          })
    keep;
  (* A restriction is as fresh as its source, exactly like [copy] —
     version stamps must never move backwards through a narrowing. *)
  out.version <- db.version;
  out

let union_into dst src =
  Hashtbl.iter
    (fun pred r -> Fset.iter (fun t -> ignore (add dst pred t)) r.set)
    src.rels

(* Replace one relation wholesale, patching cached indexes by the
   symmetric difference — the flat counterpart of the boxed
   [set_relation] rebuild-in-place. *)
let set_relation db pred (s : Fset.t) =
  let r = rel_of db pred in
  let removed = Fset.fold (fun t acc -> if Fset.mem s t then acc else t :: acc) r.set [] in
  let added = Fset.fold (fun t acc -> if Fset.mem r.set t then acc else t :: acc) s [] in
  List.iter (fun t -> ignore (remove db pred t)) removed;
  List.iter (fun t -> ignore (add db pred t)) added

(* ------------------------------------------------------------------ *)
(* Checkpoints: the undo journal behind in-place view refresh.

   [mark] opens a checkpoint; every subsequent effective [add]/[remove]
   is journaled.  [rollback] restores the database to the mark in
   O(changes) by inverse replay (indexes are patched back through the
   ordinary mutation path); [commit] drops the mark in O(1), and
   releasing the last outstanding mark discards the journal wholesale.
   Marks must be released LIFO, innermost first. *)

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

let rollback db (m : mark) =
  let outer = db.jmarks - 1 in
  db.jmarks <- 0 (* undo ops must not re-journal *);
  while db.jlen > m do
    match db.jnl with
    | e :: rest ->
      db.jnl <- rest;
      db.jlen <- db.jlen - 1;
      if e.jadded then ignore (remove db e.jpred e.jtup)
      else ignore (add db e.jpred e.jtup)
    | [] -> assert false
  done;
  db.jmarks <- outer;
  if db.jmarks = 0 then begin
    db.jnl <- [];
    db.jlen <- 0
  end

(* The *net* movement since a mark, per touched predicate: a tuple
   whose first journaled op is an add and whose last is an add moved
   in; first-remove/last-remove moved out; anything else (add;remove,
   remove;...;add) cancelled.  O(changes) — this is what replaces
   [Fset.equal] whole-relation diffing in the refresh walk. *)
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

(* Empty one relation through the journaled mutation path (indexes
   patched, removals recorded).  The element snapshot is taken up
   front: removal can trigger a compacting rehash mid-iteration. *)
let clear_rel db pred =
  match find_rel db pred with
  | None -> ()
  | Some r ->
    List.iter (fun t -> ignore (remove db pred t)) (Fset.elements r.set)

let equal a b =
  let covered other p r =
    Fset.is_empty r
    ||
    match find_rel other p with
    | Some r' -> Fset.equal r r'.set
    | None -> false
  in
  Hashtbl.fold (fun p r acc -> acc && covered b p r.set) a.rels true
  && Hashtbl.fold (fun p r acc -> acc && covered a p r.set) b.rels true

(* ------------------------------------------------------------------ *)
(* Conversion at system boundaries. *)

(* Materialize the canonical boxed store: id -> value is the cheap
   translation direction (an array read per element).  The result's
   tuples carry canonical representatives, so [Store.equal/compare/
   hash] of materializations coincide with those of any structurally
   equal boxed store. *)
let to_store db : Store.t =
  Hashtbl.fold
    (fun pred r acc ->
      Fset.fold
        (fun t acc -> Store.add pred (Intern.tuple_of_ids t) acc)
        r.set acc)
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
