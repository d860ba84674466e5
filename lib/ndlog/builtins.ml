(* Builtin functions available in NDlog rule bodies.

   The paper's path-vector program uses three of them:
     f_init(S,D)        -- a fresh two-element path vector [S; D]
     f_concatPath(S,P)  -- prepend S to path vector P
     f_inPath(P,S)      -- membership test of S in P
   The remainder are standard P2 list/arithmetic helpers that the example
   programs and the component-generated code rely on. *)

exception Unknown_function of string
exception Arity_error of string * int  (* function, got *)

let err_arity name args = raise (Arity_error (name, List.length args))

let f_init name = function
  | [ s; d ] -> Value.List [ s; d ]
  | args -> err_arity name args

let f_concat_path name = function
  | [ s; p ] -> Value.List (s :: Value.as_list p)
  | args -> err_arity name args

let f_in_path name = function
  | [ p; s ] -> Value.Bool (List.exists (Value.equal s) (Value.as_list p))
  | args -> err_arity name args

let f_size name = function
  | [ p ] -> Value.Int (List.length (Value.as_list p))
  | args -> err_arity name args

let f_first name = function
  | [ p ] -> (
    match Value.as_list p with
    | v :: _ -> v
    | [] -> raise (Value.Type_error ("non-empty list", p)))
  | args -> err_arity name args

let f_last name = function
  | [ p ] -> (
    match List.rev (Value.as_list p) with
    | v :: _ -> v
    | [] -> raise (Value.Type_error ("non-empty list", p)))
  | args -> err_arity name args

let f_append name = function
  | [ p; q ] -> Value.List (Value.as_list p @ Value.as_list q)
  | args -> err_arity name args

let f_reverse name = function
  | [ p ] -> Value.List (List.rev (Value.as_list p))
  | args -> err_arity name args

let f_empty name = function
  | [] -> Value.List []
  | args -> err_arity name args

let f_cons name = function
  | [ v; p ] -> Value.List (v :: Value.as_list p)
  | args -> err_arity name args

let f_min2 name = function
  | [ a; b ] -> if Value.compare a b <= 0 then a else b
  | args -> err_arity name args

let f_max2 name = function
  | [ a; b ] -> if Value.compare a b >= 0 then a else b
  | args -> err_arity name args

let f_abs name = function
  | [ a ] -> Value.Int (abs (Value.as_int a))
  | args -> err_arity name args

let f_to_str name = function
  | [ v ] -> Value.Str (Value.to_string v)
  | args -> err_arity name args

let f_not name = function
  | [ v ] -> Value.Bool (not (Value.as_bool v))
  | args -> err_arity name args

(* Name, arity, implementation. *)
let table : (string * int * (string -> Value.t list -> Value.t)) list =
  [
    ("f_init", 2, f_init);
    ("f_initPath", 2, f_init);
    ("f_concatPath", 2, f_concat_path);
    ("f_inPath", 2, f_in_path);
    ("f_size", 1, f_size);
    ("f_length", 1, f_size);
    ("f_first", 1, f_first);
    ("f_head", 1, f_first);
    ("f_last", 1, f_last);
    ("f_append", 2, f_append);
    ("f_reverse", 1, f_reverse);
    ("f_empty", 0, f_empty);
    ("f_cons", 2, f_cons);
    ("f_min", 2, f_min2);
    ("f_max", 2, f_max2);
    ("f_abs", 1, f_abs);
    ("f_toStr", 1, f_to_str);
    ("f_not", 1, f_not);
  ]

(* Resolved by name once, from a hash table: callers that apply the
   same builtin repeatedly look it up once ({!Ideval} at compile time). *)
let index : (string, string -> Value.t list -> Value.t) Hashtbl.t =
  let h = Hashtbl.create 32 in
  List.iter (fun (name, _, f) -> Hashtbl.replace h name f) table;
  h

let find name = Option.map (fun f -> f name) (Hashtbl.find_opt index name)
let is_builtin name = Hashtbl.mem index name

let apply name args =
  match Hashtbl.find_opt index name with
  | Some f -> f name args
  | None -> raise (Unknown_function name)

let names () = List.map (fun (name, _, _) -> name) table

let arity name =
  List.find_map (fun (n, k, _) -> if n = name then Some k else None) table
