(** Tuple locations: which node owns a tuple.

    The localization rewrite ({!Localize}) gives every located predicate
    a location-specifier column; the distributed runtime and the model
    checker's action footprints read a tuple's owner from it.  Nodes
    are identified by simulator address. *)

val loc_index_map : Ast.program -> (string, int) Hashtbl.t
(** The location column declared for each predicate, collected from
    rule heads, facts, and body atoms. *)

val tuple_location : int option -> Store.Tuple.t -> string option
(** Owner address of a tuple given its predicate's location column.
    @raise Value.Type_error if the location value is not an address. *)
