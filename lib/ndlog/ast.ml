(* Abstract syntax of Network Datalog (NDlog).

   The concrete syntax follows the paper (Section 2.2):

     r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
                          C=C1+C2, P=f_concatPath(S,P2),
                          f_inPath(P2,S)=false.

   A predicate argument prefixed with [@] is the location specifier: the
   tuple is stored at (and owned by) the node named by that attribute.
   Heads may carry one aggregate argument such as [min<C>]. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type expr =
  | Var of string
  | Const of Value.t
  | Call of string * expr list  (* builtin function, e.g. f_concatPath *)
  | Binop of binop * expr * expr

type agg =
  | Min
  | Max
  | Count
  | Sum

type head_arg =
  | Plain of expr
  | Agg of agg * string  (* min<C>: aggregate over variable C *)

(* [loc] is the index (within [args]) of the location-specifier argument,
   if the predicate is location-annotated. *)
type atom = {
  pred : string;
  loc : int option;
  args : expr list;
}

type lit =
  | Pos of atom
  | Neg of atom
  | Assign of string * expr  (* X = expr, with X unbound: binds X *)
  | Cond of cmp * expr * expr  (* boolean test over bound expressions *)

type head = {
  head_pred : string;
  head_loc : int option;
  head_args : head_arg list;
}

type rule = {
  rule_name : string option;
  head : head;
  body : lit list;
}

(* [materialize(pred, lifetime)] declares storage for a predicate.
   [Lifetime_forever] is hard state; [Lifetime n] is soft state expiring
   [n] simulated seconds after insertion. *)
type lifetime =
  | Lifetime_forever
  | Lifetime of float

type decl = {
  decl_pred : string;
  decl_lifetime : lifetime;
}

(* A ground fact, e.g. [link(@a,b,1).] *)
type fact = {
  fact_pred : string;
  fact_loc : int option;
  fact_args : Value.t list;
}

type program = {
  decls : decl list;
  facts : fact list;
  rules : rule list;
}

let empty_program = { decls = []; facts = []; rules = [] }

(* ------------------------------------------------------------------ *)
(* Constructors used by programmatic clients (tests, code generators). *)

let var x = Var x
let const v = Const v
let cint n = Const (Value.Int n)
let cbool b = Const (Value.Bool b)
let call f args = Call (f, args)
let ( +: ) a b = Binop (Add, a, b)

let atom ?loc pred args = { pred; loc; args }

let head ?loc pred args = { head_pred = pred; head_loc = loc; head_args = args }

let rule ?name head body = { rule_name = name; head; body }

let fact ?loc pred args = { fact_pred = pred; fact_loc = loc; fact_args = args }

let decl ?(lifetime = Lifetime_forever) pred =
  { decl_pred = pred; decl_lifetime = lifetime }

(* ------------------------------------------------------------------ *)
(* Variable collection. *)

module Sset = Set.Make (String)

let rec vars_of_expr acc = function
  | Var x -> Sset.add x acc
  | Const _ -> acc
  | Call (_, args) -> List.fold_left vars_of_expr acc args
  | Binop (_, a, b) -> vars_of_expr (vars_of_expr acc a) b

let vars_of_atom acc a = List.fold_left vars_of_expr acc a.args

let vars_of_lit acc = function
  | Pos a | Neg a -> vars_of_atom acc a
  | Assign (x, e) -> vars_of_expr (Sset.add x acc) e
  | Cond (_, a, b) -> vars_of_expr (vars_of_expr acc a) b

let vars_of_head_arg acc = function
  | Plain e -> vars_of_expr acc e
  | Agg (_, x) -> Sset.add x acc

let vars_of_head acc h = List.fold_left vars_of_head_arg acc h.head_args

let rule_vars r = List.fold_left vars_of_lit (vars_of_head Sset.empty r.head) r.body

(* ------------------------------------------------------------------ *)
(* Predicate occurrence helpers. *)

let body_atoms body =
  List.filter_map (function Pos a | Neg a -> Some a | Assign _ | Cond _ -> None) body

let body_preds body = List.map (fun a -> a.pred) (body_atoms body)

let head_arity h = List.length h.head_args

let has_aggregate h =
  List.exists (function Agg _ -> true | Plain _ -> false) h.head_args

(* ------------------------------------------------------------------ *)
(* Pretty-printing back to concrete syntax. *)

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let string_of_cmp = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let string_of_agg = function
  | Min -> "min"
  | Max -> "max"
  | Count -> "count"
  | Sum -> "sum"

(* A constant in rule syntax: an address is its bare name (a location
   specifier's [@] is the argument's, printed by the atom), and a list
   separates its elements with commas — the forms the parser reads. *)
let rec pp_const ppf = function
  | Value.Addr a -> Fmt.string ppf a
  | Value.List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ",") pp_const) vs
  | v -> Value.pp ppf v

let rec pp_expr ppf = function
  | Var x -> Fmt.string ppf x
  | Const v -> pp_const ppf v
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ",") pp_expr) args
  | Binop (op, a, b) ->
    Fmt.pf ppf "(%a%s%a)" pp_expr a (string_of_binop op) pp_expr b

let pp_arg_at loc i ppf e =
  if loc = Some i then Fmt.pf ppf "@@%a" pp_expr e else pp_expr ppf e

let pp_atom ppf a =
  Fmt.pf ppf "%s(" a.pred;
  List.iteri
    (fun i e ->
      if i > 0 then Fmt.string ppf ",";
      pp_arg_at a.loc i ppf e)
    a.args;
  Fmt.string ppf ")"

let pp_head_arg ppf = function
  | Plain e -> pp_expr ppf e
  | Agg (a, x) -> Fmt.pf ppf "%s<%s>" (string_of_agg a) x

let pp_head ppf h =
  Fmt.pf ppf "%s(" h.head_pred;
  List.iteri
    (fun i arg ->
      if i > 0 then Fmt.string ppf ",";
      (match arg, h.head_loc with
      | Plain _, Some j when i = j -> Fmt.string ppf "@"
      | _ -> ());
      pp_head_arg ppf arg)
    h.head_args;
  Fmt.string ppf ")"

let pp_lit ppf = function
  | Pos a -> pp_atom ppf a
  | Neg a -> Fmt.pf ppf "!%a" pp_atom a
  | Assign (x, e) -> Fmt.pf ppf "%s=%a" x pp_expr e
  | Cond (c, a, b) -> Fmt.pf ppf "%a%s%a" pp_expr a (string_of_cmp c) pp_expr b

let pp_rule ppf r =
  (match r.rule_name with
  | Some n -> Fmt.pf ppf "%s " n
  | None -> ());
  Fmt.pf ppf "%a :- %a." pp_head r.head Fmt.(list ~sep:(any ", ") pp_lit) r.body

let pp_fact ppf f =
  Fmt.pf ppf "%s(" f.fact_pred;
  List.iteri
    (fun i v ->
      if i > 0 then Fmt.string ppf ",";
      (match f.fact_loc with
      | Some j when i = j -> Fmt.pf ppf "@@%a" pp_const v
      | _ -> pp_const ppf v))
    f.fact_args;
  Fmt.string ppf ")."

let pp_lifetime ppf = function
  | Lifetime_forever -> Fmt.string ppf "infinity"
  | Lifetime s -> Fmt.pf ppf "%g" s

let pp_decl ppf d =
  Fmt.pf ppf "materialize(%s, %a)." d.decl_pred pp_lifetime d.decl_lifetime

let pp_program ppf p =
  List.iter (fun d -> Fmt.pf ppf "%a@." pp_decl d) p.decls;
  List.iter (fun f -> Fmt.pf ppf "%a@." pp_fact f) p.facts;
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_rule r) p.rules

let program_to_string p = Fmt.str "%a" pp_program p
