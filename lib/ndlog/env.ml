(* Variable environments used during rule evaluation, plus the expression
   evaluator.  An environment maps rule variables to ground values. *)

module M = Map.Make (String)

type t = Value.t M.t

exception Unbound_variable of string

let empty : t = M.empty
let find_opt x (env : t) = M.find_opt x env
let mem x (env : t) = M.mem x env
let bind x v (env : t) : t = M.add x v env
let bindings (env : t) = M.bindings env
let of_list l : t = List.fold_left (fun e (x, v) -> M.add x v e) M.empty l

let find x env =
  match M.find_opt x env with
  | Some v -> v
  | None -> raise (Unbound_variable x)

let arith op a b =
  let x = Value.as_int a and y = Value.as_int b in
  match op with
  | Ast.Add -> Value.Int (x + y)
  | Ast.Sub -> Value.Int (x - y)
  | Ast.Mul -> Value.Int (x * y)
  | Ast.Div ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", b))
    else Value.Int (x / y)
  | Ast.Mod ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", b))
    else Value.Int (x mod y)

let rec eval env (e : Ast.expr) : Value.t =
  match e with
  | Ast.Var x -> find x env
  | Ast.Const v -> v
  | Ast.Call (f, args) -> (
    match Builtins.apply f (List.map (eval env) args) with
    (* Canonicalize freshly built lists at the construction site: a
       fixpoint re-derives the same path vectors over and over, and
       interning here makes each re-derivation physically equal to the
       resident copy — every later comparison short-circuits on
       pointer equality instead of walking the spine.  Scalars are
       left alone: a hash-cons probe costs more than their compare. *)
    | Value.List _ as v -> Intern.canon v
    | v -> v)
  | Ast.Binop (op, a, b) -> arith op (eval env a) (eval env b)

let eval_cmp (c : Ast.cmp) a b =
  let k = Value.compare a b in
  match c with
  | Ast.Eq -> k = 0
  | Ast.Ne -> k <> 0
  | Ast.Lt -> k < 0
  | Ast.Le -> k <= 0
  | Ast.Gt -> k > 0
  | Ast.Ge -> k >= 0

(* [match_arg env pattern v] extends [env] so that [pattern] evaluates to
   [v], or returns [None] if impossible.  A bare unbound variable binds;
   anything else must evaluate (under [env]) to exactly [v]. *)
let match_arg env (pattern : Ast.expr) (v : Value.t) : t option =
  match pattern with
  | Ast.Var x -> (
    match find_opt x env with
    | None -> Some (bind x v env)
    | Some v' -> if Value.equal v v' then Some env else None)
  | _ -> (
    match eval env pattern with
    | v' -> if Value.equal v v' then Some env else None
    | exception Unbound_variable _ -> None)

(* Match an argument list against a ground tuple, left to right. *)
let match_args env (patterns : Ast.expr list) (tuple : Value.t array) : t option =
  let n = List.length patterns in
  if n <> Array.length tuple then None
  else
    let rec go env i = function
      | [] -> Some env
      | p :: rest -> (
        match match_arg env p tuple.(i) with
        | Some env' -> go env' (i + 1) rest
        | None -> None)
    in
    go env 0 patterns
