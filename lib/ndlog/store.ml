(* Ground-tuple storage: a database mapping predicate names to sets of
   tuples.  Tuples are arrays of values compared lexicographically, so a
   store is a deterministic, canonical representation of a database
   state (used directly as model-checker state).

   Each relation additionally carries a *secondary-index cache*: maps
   from a column set to (key -> tuple set), built lazily the first time
   a join asks for that column set ({!lookup}) and maintained
   incrementally across [add]/[remove]/[union].  The cache is pure
   memoization — it never influences [equal]/[compare]/[hash], so the
   model checker's state canonicity is untouched; mutating the cache of
   a shared persistent value is benign (both sharers want the same
   index). *)

module Tuple = struct
  type t = Value.t array

  let compare (a : t) (b : t) =
    if a == b then 0
    else
      let la = Array.length a and lb = Array.length b in
      let c = Stdlib.compare la lb in
      if c <> 0 then c
      else
        let rec go i =
          if i >= la then 0
          else
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0

  let equal a b = a == b || compare a b = 0

  let pp ppf (t : t) =
    Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ",") Value.pp) t

  let hash (t : t) =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
end

module Tset = Set.Make (Tuple)
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Secondary indexes. *)

(* Index keys: the tuple's values at the indexed columns, in column
   order.  Compared with Value.compare so key equality coincides with
   tuple-value equality (never Stdlib.compare, which would be a
   separate notion of equality from the engine's). *)
module Vkey = struct
  type t = Value.t list

  let rec compare a b =
    match a, b with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: a', y :: b' ->
      let c = Value.compare x y in
      if c <> 0 then c else compare a' b'
end

module Vmap = Map.Make (Vkey)

(* Column sets are strictly increasing position lists; Stdlib.compare
   is a correct total order on [int list]. *)
module Cmap = Map.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

type rel = {
  tuples : Tset.t;
  mutable indexes : Tset.t Vmap.t Cmap.t;  (* lazily built; cache only *)
}

type t = rel Smap.t

let mkrel tuples = { tuples; indexes = Cmap.empty }

(* The key of [tuple] at [cols], or [None] when the tuple is too short
   to have all indexed columns (such a tuple can never match a pattern
   binding those positions, so it is safely absent from the index). *)
let key_at cols (tuple : Tuple.t) : Value.t list option =
  let n = Array.length tuple in
  let rec go = function
    | [] -> Some []
    | c :: rest ->
      if c >= n then None
      else Option.map (fun k -> tuple.(c) :: k) (go rest)
  in
  go cols

let bucket_add tuple = function
  | None -> Some (Tset.singleton tuple)
  | Some s -> Some (Tset.add tuple s)

let bucket_remove tuple = function
  | None -> None
  | Some s ->
    let s' = Tset.remove tuple s in
    if Tset.is_empty s' then None else Some s'

let index_add cols tuple idx =
  match key_at cols tuple with
  | None -> idx
  | Some key -> Vmap.update key (bucket_add tuple) idx

let index_remove cols tuple idx =
  match key_at cols tuple with
  | None -> idx
  | Some key -> Vmap.update key (bucket_remove tuple) idx

let build_index cols (tuples : Tset.t) = Tset.fold (index_add cols) tuples Vmap.empty

(* ------------------------------------------------------------------ *)
(* The canonical (indexed-cache-free) API. *)

let empty : t = Smap.empty

let relation pred (db : t) : Tset.t =
  match Smap.find_opt pred db with Some r -> r.tuples | None -> Tset.empty

let tuples pred (db : t) : Tuple.t list = Tset.elements (relation pred db)

let mem pred tuple (db : t) = Tset.mem tuple (relation pred db)

(* [add] performs no interning of its own: canonicalization happens at
   the system boundaries (event injection, message receipt, expression
   construction — see {!Intern}), so tuples arriving here already carry
   canonical elements and the hot fixpoint path pays nothing.  An early
   version canonicalized inside [add]; the hash probe per element cost
   more than the sharing saved, since duplicate adds (the bulk of a
   fixpoint's delta traffic) are answered by the membership probe
   alone. *)
let add pred tuple (db : t) : t =
  Smap.update pred
    (function
      | None -> Some (mkrel (Tset.singleton tuple))
      | Some r ->
        if Tset.mem tuple r.tuples then Some r
        else
          Some
            {
              tuples = Tset.add tuple r.tuples;
              indexes = Cmap.mapi (fun cols -> index_add cols tuple) r.indexes;
            })
    db

let remove pred tuple (db : t) : t =
  Smap.update pred
    (function
      | None -> None
      | Some r ->
        if not (Tset.mem tuple r.tuples) then Some r
        else
          let tuples = Tset.remove tuple r.tuples in
          if Tset.is_empty tuples then None
          else
            Some
              {
                tuples;
                indexes =
                  Cmap.mapi (fun cols -> index_remove cols tuple) r.indexes;
              })
    db

let add_list pred ts db = List.fold_left (fun db t -> add pred t db) db ts

(* Replacing a relation wholesale patches its cached indexes by the
   symmetric difference instead of dropping them: view refresh replaces
   the same (mostly unchanged) relations over and over, and rebuilding
   a warm index from scratch on every replacement was measurably
   the refresh loop's biggest hidden cost. *)
let set_relation pred s (db : t) : t =
  if Tset.is_empty s then Smap.remove pred db
  else
    Smap.update pred
      (function
        | None -> Some (mkrel s)
        | Some r ->
          let removed = Tset.diff r.tuples s in
          let added = Tset.diff s r.tuples in
          Some
            {
              tuples = s;
              indexes =
                Cmap.mapi
                  (fun cols idx ->
                    Tset.fold (index_add cols) added
                      (Tset.fold (index_remove cols) removed idx))
                  r.indexes;
            })
      db

(* Map every tuple relation by relation, each tuple set rebuilt in one
   pass rather than re-inserted tuple by tuple through {!add}.  Index
   caches are dropped: they were keyed by the old tuples. *)
let map_tuples f (db : t) : t =
  Smap.map
    (fun r ->
      mkrel (Tset.of_list (Tset.fold (fun t acc -> f t :: acc) r.tuples [])))
    db

let preds (db : t) = List.map fst (Smap.bindings db)

let cardinal pred db = Tset.cardinal (relation pred db)

let total_tuples (db : t) =
  Smap.fold (fun _ r acc -> acc + Tset.cardinal r.tuples) db 0

(* Union of two databases; used to merge deltas.  The left operand is
   the accumulating database in every hot path ([db ∪ delta]), so its
   index caches are kept warm by folding the (typically small) right
   side through them. *)
let union (a : t) (b : t) : t =
  Smap.union
    (fun _ x y ->
      let tuples = Tset.union x.tuples y.tuples in
      let indexes =
        if Cmap.is_empty x.indexes then Cmap.empty
        else
          Cmap.mapi
            (fun cols idx -> Tset.fold (index_add cols) y.tuples idx)
            x.indexes
      in
      Some { tuples; indexes })
    a b

(* Tuples of [b] not already in [a], per predicate. *)
let diff (b : t) (a : t) : t =
  Smap.filter_map
    (fun pred r ->
      let s' = Tset.diff r.tuples (relation pred a) in
      if Tset.is_empty s' then None else Some (mkrel s'))
    b

let is_empty (db : t) = Smap.for_all (fun _ r -> Tset.is_empty r.tuples) db

let nonempty (db : t) = Smap.filter (fun _ r -> not (Tset.is_empty r.tuples)) db

let equal (a : t) (b : t) =
  Smap.equal (fun x y -> Tset.equal x.tuples y.tuples) (nonempty a) (nonempty b)

let compare (a : t) (b : t) =
  Smap.compare
    (fun x y -> Tset.compare x.tuples y.tuples)
    (nonempty a) (nonempty b)

(* Fact loading is a system boundary, so it canonicalizes: program
   facts seed the evaluator with canonical elements, and everything
   derived from them stays canonical by construction. *)
let of_facts (facts : Ast.fact list) : t =
  List.fold_left
    (fun db (f : Ast.fact) ->
      add f.Ast.fact_pred (Intern.tuple (Array.of_list f.Ast.fact_args)) db)
    empty facts

let fold_rel pred f (db : t) acc = Tset.fold f (relation pred db) acc

let iter_rel pred f (db : t) = Tset.iter f (relation pred db)

let iter f (db : t) = Smap.iter (fun pred r -> Tset.iter (f pred) r.tuples) db

let pp ppf (db : t) =
  Smap.iter
    (fun pred r ->
      Tset.iter (fun t -> Fmt.pf ppf "%s%a@." pred Tuple.pp t) r.tuples)
    db

let to_string db = Fmt.str "%a" pp db

(* Restrict a database to the given predicates (index caches ride
   along: the kept relations are unchanged). *)
let restrict preds (db : t) : t =
  Smap.filter (fun p _ -> List.mem p preds) db

(* All tuples as (pred, tuple) pairs, deterministically ordered. *)
let to_list (db : t) : (string * Tuple.t) list =
  Smap.fold
    (fun pred r acc -> Tset.fold (fun t acc -> (pred, t) :: acc) r.tuples acc)
    db []
  |> List.rev

(* The hash is a sum of per-fact hashes: equal stores agree on it
   whatever order their tuples arrived in, and a model checker can keep
   a state's hash current in O(1) per insertion.  Each fact's hash is
   finalized (an avalanche mix) before summing, or the raw polynomial
   tuple hashes of structured fact sets would cancel into few sums. *)
let mix h =
  let h = h lxor (h lsr 31) in
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14fafb5d329728e5 in
  h lxor (h lsr 33)

let pred_hash pred = Hashtbl.hash pred * 65599
let fact_hash pred t = mix (pred_hash pred + Tuple.hash t)

let hash (db : t) =
  Smap.fold
    (fun pred r acc ->
      let hp = pred_hash pred in
      Tset.fold (fun t acc -> acc + mix (hp + Tuple.hash t)) r.tuples acc)
    db 0

(* ------------------------------------------------------------------ *)
(* Indexed lookup. *)

(* Find or build the [(pred, cols)] index of [r].  Benign memoization:
   older copies of a store sharing [r] would build the very same index
   (the tuple sets themselves are immutable). *)
let get_index (r : rel) (cols : int list) =
  match Cmap.find_opt cols r.indexes with
  | Some idx -> idx
  | None ->
    let idx = build_index cols r.tuples in
    r.indexes <- Cmap.add cols idx r.indexes;
    idx

let lookup pred ~(cols : int list) ~(key : Value.t list) (db : t) : Tset.t =
  match Smap.find_opt pred db with
  | None -> Tset.empty
  | Some r -> (
    match Vmap.find_opt key (get_index r cols) with
    | Some s -> s
    | None -> Tset.empty)

let index_count (db : t) =
  Smap.fold (fun _ r acc -> acc + Cmap.cardinal r.indexes) db 0

let indexed_cols pred (db : t) : int list list =
  match Smap.find_opt pred db with
  | None -> []
  | Some r -> List.map fst (Cmap.bindings r.indexes)
