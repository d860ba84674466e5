(** Abstract syntax of Network Datalog (NDlog).

    The concrete syntax follows the paper's Section 2.2:

    {v
r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
                     C=C1+C2, P=f_concatPath(S,P2),
                     f_inPath(P2,S)=false.
    v}

    An argument prefixed with [@] is the {e location specifier}: the
    tuple is stored at the node named by that attribute.  Heads may
    carry aggregate arguments such as [min<C>]. *)

(** Binary arithmetic operators usable in expressions. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod

(** Comparison operators usable in body conditions. *)
type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

(** Expressions: variables, constants, builtin function calls
    ({!Builtins}), and arithmetic. *)
type expr =
  | Var of string
  | Const of Value.t
  | Call of string * expr list
  | Binop of binop * expr * expr

(** Aggregate functions allowed in rule heads. *)
type agg =
  | Min
  | Max
  | Count
  | Sum

(** A head argument: a plain expression, or an aggregate over a body
    variable ([min<C>]). *)
type head_arg =
  | Plain of expr
  | Agg of agg * string

(** A predicate applied to arguments.  [loc] is the index (within
    [args]) of the location-specifier argument, if any. *)
type atom = {
  pred : string;
  loc : int option;
  args : expr list;
}

(** Body literals: positive and negated atoms, assignments ([X = e],
    binding [X]), and comparisons. *)
type lit =
  | Pos of atom
  | Neg of atom
  | Assign of string * expr
  | Cond of cmp * expr * expr

(** A rule head: predicate, optional location index, arguments. *)
type head = {
  head_pred : string;
  head_loc : int option;
  head_args : head_arg list;
}

(** A rule, with an optional label ([r1], [r2], ...). *)
type rule = {
  rule_name : string option;
  head : head;
  body : lit list;
}

(** Tuple lifetime, from [materialize] declarations: hard state
    ([Lifetime_forever]) or soft state expiring after the given number
    of simulated seconds. *)
type lifetime =
  | Lifetime_forever
  | Lifetime of float

(** A [materialize(pred, lifetime)] declaration. *)
type decl = {
  decl_pred : string;
  decl_lifetime : lifetime;
}

(** A ground fact, e.g. [link(@a,b,1).]. *)
type fact = {
  fact_pred : string;
  fact_loc : int option;
  fact_args : Value.t list;
}

(** A complete program: declarations, facts, rules. *)
type program = {
  decls : decl list;
  facts : fact list;
  rules : rule list;
}

val empty_program : program

(** {1 Constructors}

    Convenience builders used by programmatic clients (tests, the
    component-model code generator). *)

val var : string -> expr
val const : Value.t -> expr
val cint : int -> expr
val cbool : bool -> expr
val call : string -> expr list -> expr

val ( +: ) : expr -> expr -> expr
(** Addition. *)

val atom : ?loc:int -> string -> expr list -> atom
val head : ?loc:int -> string -> head_arg list -> head
val rule : ?name:string -> head -> lit list -> rule
val fact : ?loc:int -> string -> Value.t list -> fact
val decl : ?lifetime:lifetime -> string -> decl

(** {1 Variable and predicate queries} *)

module Sset :
  Set.S with type elt = string and type t = Set.Make(String).t

val vars_of_expr : Sset.t -> expr -> Sset.t
val vars_of_atom : Sset.t -> atom -> Sset.t
val vars_of_lit : Sset.t -> lit -> Sset.t
val vars_of_head_arg : Sset.t -> head_arg -> Sset.t
val vars_of_head : Sset.t -> head -> Sset.t

val rule_vars : rule -> Sset.t
(** All variables occurring in a rule (head and body). *)

val body_atoms : lit list -> atom list
(** The positive and negated atoms of a body, in order. *)

val body_preds : lit list -> string list
(** Predicates of {!body_atoms} (with duplicates). *)

val head_arity : head -> int

val has_aggregate : head -> bool
(** Does the head carry an aggregate argument? *)

(** {1 Pretty-printing}

    Output is valid concrete syntax; {!Parser.parse_program} of
    {!program_to_string} round-trips. *)

val string_of_binop : binop -> string
val string_of_cmp : cmp -> string
val string_of_agg : agg -> string
val pp_expr : expr Fmt.t
val pp_atom : atom Fmt.t
val pp_head_arg : head_arg Fmt.t
val pp_head : head Fmt.t
val pp_lit : lit Fmt.t
val pp_rule : rule Fmt.t
val pp_fact : fact Fmt.t
val pp_lifetime : lifetime Fmt.t
val pp_decl : decl Fmt.t
val pp_program : program Fmt.t
val program_to_string : program -> string
