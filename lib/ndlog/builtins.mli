(** Builtin functions usable in NDlog rule bodies.

    The paper's path-vector program uses [f_init] (fresh two-element
    path vector), [f_concatPath] (prepend a node), and [f_inPath]
    (membership test); the remainder are standard P2-style list and
    arithmetic helpers.  Functions are identified by name in
    {!Ast.Call} expressions; the parser treats any registered name
    applied to arguments as a call (everything else is an atom). *)

exception Unknown_function of string
(** Raised by {!apply} for unregistered names. *)

exception Arity_error of string * int
(** [Arity_error (name, got)]: wrong number of arguments. *)

val is_builtin : string -> bool
(** Is this name a registered builtin? *)

val find : string -> (Value.t list -> Value.t) option
(** The builtin registered under a name, resolved once from a hash
    table; applying it behaves exactly like {!apply} with that name.
    [None] for unregistered names. *)

val apply : string -> Value.t list -> Value.t
(** Apply a builtin by name.

    Registered functions (aliases in parentheses):
    - [f_init s d] — the path vector [\[s; d\]] ([f_initPath])
    - [f_concatPath v p] — prepend [v] to path [p]
    - [f_inPath p v] — is [v] a member of [p]?
    - [f_size p] — list length ([f_length])
    - [f_first p] / [f_last p] — endpoints ([f_head])
    - [f_append p q], [f_reverse p], [f_empty ()], [f_cons v p]
    - [f_min a b] / [f_max a b] — binary min/max under {!Value.compare}
    - [f_abs n], [f_toStr v], [f_not b]

    @raise Unknown_function for unregistered names.
    @raise Arity_error on arity mismatch.
    @raise Value.Type_error on ill-sorted arguments. *)

val names : unit -> string list
(** All registered builtin names. *)

val arity : string -> int option
(** The number of arguments a registered builtin takes; [None] for
    unregistered names.  {!Analysis} checks every call against it. *)
