(** Network topologies: named nodes and directed links with per-link
    delay, metric cost, and an up/down flag for failure injection.
    Mutable — the simulator flips link state during runs. *)

type link = {
  src : string;
  dst : string;
  delay : float;
  cost : int;
  loss : float;  (** probability a message on this link is lost *)
  mutable up : bool;
}

type t

val create : unit -> t

val add_node : t -> string -> unit
(** Idempotent. *)

val add_link :
  ?delay:float -> ?cost:int -> ?loss:float -> t -> string -> string -> unit
(** Directed; adds endpoints as nodes.  Defaults: delay 1.0, cost 1,
    loss 0. *)

val add_duplex :
  ?delay:float -> ?cost:int -> ?loss:float -> t -> string -> string -> unit
val link : t -> string -> string -> link option
val link_up : t -> string -> string -> bool
val set_link_state : t -> string -> string -> bool -> unit
val fail_duplex : t -> string -> string -> unit
val restore_duplex : t -> string -> string -> unit

val nodes : t -> string list
(** In insertion order. *)

val links : t -> link list
(** Sorted by (src, dst). *)

val neighbors : t -> string -> string list
(** Destinations of live out-links. *)

(** {1 Generators}

    Nodes are named [n0 .. n(k-1)]; all generated graphs are symmetric. *)

val node : int -> string
val line : ?delay:float -> ?cost:(int -> int) -> int -> t
val ring : ?delay:float -> ?cost:(int -> int) -> int -> t
val star : ?delay:float -> ?cost:(int -> int) -> int -> t

val grid : ?delay:float -> ?cost:(int -> int) -> int -> t
(** A [k x k] 4-neighbour mesh, node [n(r*k+c)] at row [r], column [c]
    (the naming convention of [Ndlog.Programs.grid_links]). *)

val random : ?seed:int -> ?extra:int -> ?delay:float -> ?max_cost:int -> int -> t
(** Random spanning tree plus [extra] chords; connected; deterministic
    in [seed]. *)

(** {1 Automorphisms}

    Node permutations preserving the labeled link structure, consumed
    by the model checker's symmetry reduction ([Mcheck.Symmetry]). *)

val is_automorphism : t -> (string * string) list -> bool
(** Is the permutation (an association list; unlisted nodes are fixed)
    an automorphism?  It must be a bijection on the node set and map
    every link onto a link with the same cost, delay, loss, and up
    flag — a failed link breaks the symmetry that would map it onto a
    live one. *)

val automorphism_generators : t -> (string * string) list list
(** Generators (not the full group): ring rotation and reflection,
    grid transpose and flip (spanning the dihedral groups), and twin
    transpositions of structurally identical nodes (spanning the
    symmetric group on a star's leaves).  Candidates are proposed
    structurally and validated with {!is_automorphism}, so every
    returned permutation is an automorphism; asymmetric topologies
    (e.g. distinct per-link costs) yield [[]]. *)

val pp : t Fmt.t
