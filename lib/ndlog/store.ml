(* Ground-tuple storage: a database mapping predicate names to sets of
   tuples.  Tuples are arrays of values compared lexicographically, and
   a store is a plain persistent map holding no empty relation, so
   [equal]/[compare]/[hash] decide a database state by its contents
   alone (stores are used directly as model-checker states).  Indexed
   joins run over {!Flat}; nothing here memoizes. *)

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

(* A database: a relation per predicate.  No relation is ever empty
   (every operation below drops a relation it empties), so content
   equality is plain map equality. *)
type t = Tset.t Smap.t

let empty : t = Smap.empty

let relation pred (db : t) : Tset.t =
  Option.value (Smap.find_opt pred db) ~default:Tset.empty

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
      | None -> Some (Tset.singleton tuple)
      | Some s -> Some (Tset.add tuple s))
    db

let remove pred tuple (db : t) : t =
  Smap.update pred
    (function
      | None -> None
      | Some s ->
        let s = Tset.remove tuple s in
        if Tset.is_empty s then None else Some s)
    db

let add_list pred ts db = List.fold_left (fun db t -> add pred t db) db ts

let set_relation pred s (db : t) : t =
  if Tset.is_empty s then Smap.remove pred db else Smap.add pred s db

(* Map every tuple relation by relation, each tuple set rebuilt in one
   pass rather than re-inserted tuple by tuple through {!add}. *)
let map_tuples f (db : t) : t =
  Smap.map (fun s -> Tset.of_list (Tset.fold (fun t acc -> f t :: acc) s [])) db

let preds (db : t) = List.map fst (Smap.bindings db)

let cardinal pred db = Tset.cardinal (relation pred db)

let total_tuples (db : t) = Smap.fold (fun _ s acc -> acc + Tset.cardinal s) db 0

(* Union of two databases; used to merge deltas. *)
let union (a : t) (b : t) : t = Smap.union (fun _ x y -> Some (Tset.union x y)) a b

(* Tuples of [b] not already in [a], per predicate. *)
let diff (b : t) (a : t) : t =
  Smap.filter_map
    (fun pred s ->
      let s' = Tset.diff s (relation pred a) in
      if Tset.is_empty s' then None else Some s')
    b

let is_empty (db : t) = Smap.is_empty db

let equal (a : t) (b : t) = Smap.equal Tset.equal a b

let compare (a : t) (b : t) = Smap.compare Tset.compare a b

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

let iter f (db : t) = Smap.iter (fun pred s -> Tset.iter (f pred) s) db

let pp ppf (db : t) =
  Smap.iter
    (fun pred s -> Tset.iter (fun t -> Fmt.pf ppf "%s%a@." pred Tuple.pp t) s)
    db

let to_string db = Fmt.str "%a" pp db

(* Restrict a database to the given predicates. *)
let restrict preds (db : t) : t = Smap.filter (fun p _ -> List.mem p preds) db

(* All tuples as (pred, tuple) pairs, deterministically ordered. *)
let to_list (db : t) : (string * Tuple.t) list =
  Smap.fold (fun pred s acc -> Tset.fold (fun t acc -> (pred, t) :: acc) s acc) db []
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
    (fun pred s acc ->
      let hp = pred_hash pred in
      Tset.fold (fun t acc -> acc + mix (hp + Tuple.hash t)) s acc)
    db 0
