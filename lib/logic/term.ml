(* First-order terms.

   Constants reuse the NDlog value domain so that translated programs
   and evaluated tuples share one vocabulary.  Function symbols cover
   NDlog builtins (f_concatPath, ...) and arithmetic (+, -, *, /). *)

module Value = Ndlog.Value

type t =
  | Var of string
  | Cst of Value.t
  | Fn of string * t list

let rec compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Cst u, Cst v -> Value.compare u v
  | Cst _, _ -> -1
  | _, Cst _ -> 1
  | Fn (f, xs), Fn (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else List.compare compare xs ys

let equal a b = compare a b = 0

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let rec free_vars acc = function
  | Var x -> Sset.add x acc
  | Cst _ -> acc
  | Fn (_, args) -> List.fold_left free_vars acc args

let vars t = free_vars Sset.empty t

(* Substitutions: finite maps from variables to terms. *)
type subst = t Smap.t

let subst_empty : subst = Smap.empty
let subst_find x (s : subst) = Smap.find_opt x s
let subst_of_list l : subst = List.fold_left (fun s (x, t) -> Smap.add x t s) Smap.empty l

let rec apply_subst (s : subst) = function
  | Var x as t -> ( match Smap.find_opt x s with Some u -> u | None -> t)
  | Cst _ as t -> t
  | Fn (f, args) -> Fn (f, List.map (apply_subst s) args)

(* One-way matching: find sigma with pattern{sigma} = target.  Target is
   typically ground (skolemized hypotheses). *)
let rec matching (s : subst) pattern target : subst option =
  match pattern, target with
  | Var x, _ -> (
    match Smap.find_opt x s with
    | None -> Some (Smap.add x target s)
    | Some t -> if equal t target then Some s else None)
  | Cst u, Cst v -> if Value.equal u v then Some s else None
  | Fn (f, xs), Fn (g, ys) when f = g && List.length xs = List.length ys ->
    List.fold_left2
      (fun acc x y -> match acc with None -> None | Some s -> matching s x y)
      (Some s) xs ys
  | _ -> None

let rec occurs x = function
  | Var y -> x = y
  | Cst _ -> false
  | Fn (_, args) -> List.exists (occurs x) args

(* Syntactic unification with occurs check. *)
let rec unify (s : subst) a b : subst option =
  let a = apply_subst s a and b = apply_subst s b in
  match a, b with
  | Var x, Var y when x = y -> Some s
  | Var x, t | t, Var x ->
    if occurs x t then None else Some (Smap.add x t (Smap.map (apply_subst (Smap.singleton x t)) s))
  | Cst u, Cst v -> if Value.equal u v then Some s else None
  | Fn (f, xs), Fn (g, ys) when f = g && List.length xs = List.length ys ->
    List.fold_left2
      (fun acc x y -> match acc with None -> None | Some s -> unify s x y)
      (Some s) xs ys
  | _ -> None

(* All subterms, used as instantiation candidates by the prover. *)
let rec subterms acc t =
  let acc = t :: acc in
  match t with
  | Var _ | Cst _ -> acc
  | Fn (_, args) -> List.fold_left subterms acc args

let is_ground t = Sset.is_empty (vars t)

(* ------------------------------------------------------------------ *)
(* Ground evaluation of interpreted symbols: arithmetic and NDlog
   builtins.  Returns None for uninterpreted or non-ground terms. *)

let rec eval : t -> Value.t option = function
  | Var _ -> None
  | Cst v -> Some v
  | Fn (f, args) -> (
    let vals = List.map eval args in
    if List.exists Option.is_none vals then None
    else
      (* [Option.get] is guarded: the [exists is_none] check just
         above guarantees every element is [Some]. *)
      let vals = List.map Option.get vals in
      match f, vals with
      | "+", [ Value.Int a; Value.Int b ] -> Some (Value.Int (a + b))
      | "-", [ Value.Int a; Value.Int b ] -> Some (Value.Int (a - b))
      | "*", [ Value.Int a; Value.Int b ] -> Some (Value.Int (a * b))
      | "/", [ Value.Int a; Value.Int b ] when b <> 0 -> Some (Value.Int (a / b))
      | _ -> (
        match Ndlog.Builtins.apply f vals with
        | v -> Some v
        | exception _ -> None))

(* ------------------------------------------------------------------ *)

let rec pp ppf = function
  | Var x -> Fmt.string ppf x
  | Cst v -> Value.pp ppf v
  | Fn (f, [ a; b ]) when f = "+" || f = "-" || f = "*" || f = "/" ->
    Fmt.pf ppf "(%a %s %a)" pp a f pp b
  | Fn (f, []) -> Fmt.string ppf f
  | Fn (f, args) -> Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp) args

let to_string t = Fmt.str "%a" pp t

let var x = Var x
let int n = Cst (Value.Int n)
let fn f args = Fn (f, args)
let ( +: ) a b = Fn ("+", [ a; b ])
let ( -: ) a b = Fn ("-", [ a; b ])
