(** Flat (id-native) tuple storage.

    Tuples are [int array]s of interned value ids ({!Intern});
    relations are open-addressing hash sets of them; databases are
    mutable maps from predicate names to relations with id-keyed
    secondary indexes that are patched in place on [add]/[remove].
    Joins over this representation compare machine ints where the
    boxed {!Store} walks value structure.

    Mutable, so usable only under linear ownership (the distributed
    runtime's per-node stores, view-refresh working databases); the
    persistent {!Store} remains the model checker's canonical state.
    Nothing here enumerates in canonical order (ids are
    allocation-ordered): observable enumerations sort through the boxed
    values ({!Intern.compare_ids}) or materialize ([to_store]). *)

(** Open-addressing hash sets of id tuples. *)
module Fset : sig
  type t

  val create : ?capacity:int -> unit -> t
  val cardinal : t -> int
  val is_empty : t -> bool
  val mem : t -> int array -> bool

  val add : t -> int array -> bool
  (** [true] when the tuple was not already present. *)

  val remove : t -> int array -> bool
  (** [true] when the tuple was present. *)

  val iter : (int array -> unit) -> t -> unit
  val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> int array list

  val to_array : t -> int array array
  (** The tuples in one fresh array (unspecified order). *)

  val clear : t -> unit
  (** Empty the set in place, keeping its slot array unless the
      contents filled it to less than an eighth (then it is replaced
      by a minimal one). *)

  val capacity : t -> int
  (** Current slot-array length (a power of two) — observable so tests
      can pin growth and compaction behavior. *)

  val tuple_eq : int array -> int array -> bool
  val tuple_hash : int array -> int
end

type t

val create : unit -> t

val version : t -> int
(** Bumped on every mutation — the stamp behind materialization
    caches. *)

val relation : t -> string -> Fset.t
(** The relation for [pred].  A missing predicate yields one shared
    {e frozen} empty set (no per-call allocation): mutating it raises,
    so lost updates cannot hide — go through {!add}/{!remove}. *)

val mem : t -> string -> int array -> bool

val add : t -> string -> int array -> bool
(** [true] when newly added; cached indexes are patched in place. *)

val remove : t -> string -> int array -> bool

val cardinal : t -> string -> int

val is_empty : t -> bool
(** No tuple in any relation: O(1). *)

val clear : t -> unit
(** Empty every relation (and its indexes) in place, keeping the
    relations, so a scratch database reused across calls stops
    allocating once warm.  Not journaled.
    @raise Invalid_argument under an outstanding {!mark}. *)

val iter_rel : t -> string -> (int array -> unit) -> unit

val vacant : int array
(** The filler of a {!lookup} bucket's unused tail. *)

val bucket_length : int array array -> int
(** The tuples of a {!lookup} bucket: the slots before its first
    {!vacant} one. *)

val lookup : t -> string -> cols:int array -> key:int array -> int array array
(** Point probe of the [(pred, cols)] secondary index, built on first
    use and patched exact thereafter: the tuples whose columns [cols]
    hold [key], in the returned array up to its first {!vacant} slot (or
    its end).  The bucket is shared and patched in place by later
    mutations of [pred]: read it before the next {!add} or {!remove},
    and never write it.  Neither [cols] nor [key] is retained. *)

val union_into : t -> t -> unit

type mark
(** A journal checkpoint: from [mark] on, every effective {!add} and
    {!remove} is journaled, until the matching {!commit}; releasing the
    last outstanding mark discards the journal.  Marks must be released
    LIFO, innermost first. *)

val mark : t -> mark
val commit : t -> mark -> unit

val net_since : t -> mark -> (string * int array list * int array list) list
(** [(pred, added, removed)] per predicate touched since the mark —
    the *net* movement (an add cancelled by a later remove reports
    nothing), computed from the journal in O(changes since mark).
    Order of predicates and of tuples within a group is unspecified. *)

val iter_since : t -> mark -> (string -> int array -> bool -> unit) -> unit
(** Every effective {!add} ([true]) and {!remove} ([false]) since the
    mark, newest first, without netting: O(changes since mark).  Where
    no tuple is both added and removed after the mark — an update that
    only adds, or that removes and adds distinct tuples — this is the
    net movement that {!net_since} computes, without its tables. *)

val clear_rel : t -> string -> unit
(** Empty one relation through the journaled mutation path. *)

val to_store : t -> Store.t
(** Materialize the canonical boxed store (cheap direction: an array
    read per element). *)

val of_store : Store.t -> t
(** Translate a boxed store (expensive direction: one hash-cons probe
    per element) — boundary use only. *)
