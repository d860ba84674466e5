(** Localization rewrite: make every rule body single-site.

    Distributed execution requires each rule body to read only tuples
    stored at one node.  The classic NDlog rewrite turns a
    link-restricted rule such as the paper's [r2] — whose body joins
    tuples at [S] ([link]) with tuples at [Z] ([path]) — into a pair of
    rules by introducing an inverted copy of the link relation stored at
    the other endpoint:

    {v
link_l1(S,@Z,C) :- link(@S,Z,C).
path(@S,D,P,C)  :- link_l1(S,@Z,C1), path(@Z,D,P2,C2), ...
    v}

    A head located away from its body is a network send, which the
    distributed runtime implements as a message. *)

type error =
  | Not_link_restricted of Ast.rule * string
      (** The body spans locations not connected by a single atom. *)
  | Missing_location of Ast.rule * string

val pp_error : error Fmt.t

val loc_var_of_atom : Ast.atom -> string option
(** The bare variable at the atom's location index, if any. *)

val relocated_name : string -> int -> string
(** Name of the copy of [pred] stored at argument index [i]
    ([pred_l<i>]). *)

type result_t = {
  program : Ast.program;  (** the rewritten program *)
  relocations : (string * int * int) list;
      (** (predicate, original location index, new location index)
          triples for which inverted-copy rules were generated *)
}

val rewrite_program : Ast.program -> (result_t, error) result
(** Rewrite every multi-site rule; already-local rules are untouched.
    The rewrite preserves program semantics on the original predicates
    (differentially tested against the centralized evaluator). *)

val check_localized : Ast.program -> (unit, error) result
(** Succeeds iff every rule body reads a single location. *)
