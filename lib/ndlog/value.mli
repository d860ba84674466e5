(** Runtime values carried in NDlog tuples.

    NDlog tuples are arrays of dynamically typed values.  Five sorts are
    supported: integers, strings, booleans, node addresses (the values of
    location-specifier attributes), and lists (used for path vectors). *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Addr of string  (** a node address, printed as [@name] *)
  | List of t list  (** path vectors and other sequences *)

val compare : t -> t -> int
(** Total order over values; sorts are ordered [Int < Str < Bool < Addr <
    List] and lists compare lexicographically. *)

val equal : t -> t -> bool

val pp : t Fmt.t
(** Pretty-printer: strings are quoted, addresses are prefixed with [@],
    lists use [\[v1; v2\]] syntax. *)

val to_string : t -> string

val int : int -> t
val str : string -> t
val bool : bool -> t
val addr : string -> t
val list : t list -> t

exception Type_error of string * t
(** [Type_error (expected_sort, got)] raised by the coercions below. *)

val as_int : t -> int
val as_bool : t -> bool

val as_addr : t -> string
(** Accepts both [Addr] and [Str] (addresses are frequently written as
    plain strings in program text). *)

val as_list : t -> t list

val sort_name : t -> string
(** Human-readable sort of a value, for error messages. *)

val hash : t -> int
(** Structure-stable hash, consistent with {!equal}. *)
