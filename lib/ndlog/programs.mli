(** Canonical NDlog programs from the paper and its companion reports,
    plus deterministic topology generators for tests, examples, and
    benchmarks. *)

val path_vector_src : string
(** The paper's Section-2.2 path-vector protocol, verbatim: rules
    [r1]–[r4] computing [path], [bestPathCost] (a [min] aggregate), and
    [bestPath]. *)

val distance_vector_src : string
(** Distance-vector without a path vector: no cycle check, so a cyclic
    topology has no finite fixpoint (count-to-infinity; Section 3.1). *)

val bounded_distance_vector_src : max_hops:int -> string
(** Distance-vector with a hop bound: converges (the RIP-style fix). *)

val reachability_src : string
(** Transitive reachability over [link]. *)

val link_state_src : max_hops:int -> string
(** Link-state routing: LSA flooding until all nodes share the link
    map, then hop-bounded local shortest-path computation ([lsCost] is
    each node's best cost per destination).  Already localized. *)

val heartbeat_src : lifetime:int -> string
(** A soft-state heartbeat: [ping] refreshes [aliveNeighbor]; both
    expire after [lifetime] seconds without refresh. *)

val parse_exn : string -> Ast.program
(** @raise Invalid_argument on parse errors. *)

val path_vector : unit -> Ast.program
val distance_vector : unit -> Ast.program
val bounded_distance_vector : max_hops:int -> Ast.program
val reachability : unit -> Ast.program
val link_state : max_hops:int -> Ast.program
val heartbeat : lifetime:int -> Ast.program

(** {1 Topology generators}

    All generators produce symmetric link facts over nodes named
    [n0 .. n(k-1)]. *)

val node : int -> string
(** [node i] is ["n<i>"]. *)

val link_fact : string -> string -> int -> Ast.fact
(** A single directed [link(@s,d,c)] fact. *)

val both : string -> string -> int -> Ast.fact list
(** Both directions of a link. *)

val line_links : ?cost:(int -> int) -> int -> Ast.fact list
(** A chain [n0 - n1 - ... - n(k-1)]. *)

val ring_links : ?cost:(int -> int) -> int -> Ast.fact list
val star_links : ?cost:(int -> int) -> int -> Ast.fact list

val grid_links : ?cost:(int -> int) -> int -> Ast.fact list
(** A [k x k] grid: node [n(i*k+j)] at row [i], column [j], linked to
    its right and down neighbours. *)

val mesh_links : ?cost:(int -> int -> int) -> int -> Ast.fact list
(** Full mesh; beware: the [path] relation grows factorially. *)

val random_links :
  ?seed:int -> ?extra:int -> ?max_cost:int -> int -> Ast.fact list
(** A random connected graph: a random spanning tree plus [extra]
    random chords; deterministic in [seed].  A single node gets the
    empty graph, whatever [extra].
    @raise Invalid_argument when [k < 1]. *)

val with_links : Ast.program -> Ast.fact list -> Ast.program
(** Append link facts to a program. *)
