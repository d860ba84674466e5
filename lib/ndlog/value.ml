(* Runtime values carried in NDlog tuples.

   NDlog is dynamically typed at the tuple level: a relation's columns may
   hold integers, strings, booleans, node addresses, or lists (used for
   path vectors).  Comparison is total so values can live in sets and be
   sorted deterministically. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Addr of string
  | List of t list

(* Physical equality short-circuits: interned (hash-consed) values are
   physically shared, so comparisons between resident store values hit
   this fast path without looking at the structure. *)
let rec compare a b =
  if a == b then 0
  else
    match a, b with
    | Int x, Int y -> Stdlib.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Str x, Str y -> String.compare x y
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Bool x, Bool y -> Stdlib.compare x y
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Addr x, Addr y -> String.compare x y
    | Addr _, _ -> -1
    | _, Addr _ -> 1
    | List x, List y -> compare_list x y

and compare_list xs ys =
  if xs == ys then 0
  else
    match xs, ys with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs' ys'

let equal a b = a == b || compare a b = 0

let rec pp ppf = function
  | Int n -> Fmt.int ppf n
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Addr a -> Fmt.pf ppf "@@%s" a
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) vs

let to_string v = Fmt.str "%a" pp v

let int n = Int n
let str s = Str s
let bool b = Bool b
let addr a = Addr a
let list vs = List vs

(* Coercions raise [Type_error] with the offending value and the sort the
   caller expected; evaluation surfaces these as builtin errors. *)
exception Type_error of string * t

let as_int = function Int n -> n | v -> raise (Type_error ("int", v))
let as_bool = function Bool b -> b | v -> raise (Type_error ("bool", v))

let as_addr = function
  | Addr a -> a
  | Str s -> s
  | v -> raise (Type_error ("address", v))

let as_list = function List vs -> vs | v -> raise (Type_error ("list", v))

let sort_name = function
  | Int _ -> "int"
  | Str _ -> "string"
  | Bool _ -> "bool"
  | Addr _ -> "address"
  | List _ -> "list"

(* A stable hash used by stores and the model checker. *)
let rec hash = function
  | Int n -> Hashtbl.hash (0, n)
  | Str s -> Hashtbl.hash (1, s)
  | Bool b -> Hashtbl.hash (2, b)
  | Addr a -> Hashtbl.hash (3, a)
  | List vs -> List.fold_left (fun acc v -> (acc * 31) + hash v) 7 vs
