(** A generic routing protocol parameterized by a routing algebra: the
    synchronous Bellman-Ford / path-vector iteration

    {v x_u  <-  best over edges (u,v,l) of  l (+) x_v      (x_dest = origin) v}

    iterated to a fixpoint.  Metarouting's central result makes this
    protocol's convergence a property of the algebra alone: discharged
    obligations imply convergence (to optimal signatures when isotone);
    non-monotone algebras may fail to converge, which the round bound
    detects. *)

module Smap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type 'l graph = {
  g_nodes : string list;
  g_edges : (string * string * 'l) list;  (** directed, labelled *)
}

val graph : nodes:string list -> edges:(string * string * 'l) list -> 'l graph

type 's outcome = {
  converged : bool;
  rounds : int;
  signatures : 's Smap.t;  (** final signature per node *)
}

val round :
  ('s, 'l) Routing_algebra.t -> 'l graph -> dest:string -> 's Smap.t -> 's Smap.t
(** One synchronous Jacobi round. *)

val initial : ('s, 'l) Routing_algebra.t -> 'l graph -> dest:string -> 's Smap.t

val solve :
  ?max_rounds:int ->
  ('s, 'l) Routing_algebra.t ->
  'l graph ->
  dest:string ->
  's outcome
(** Iterate to a fixpoint; default bound [|V|^2 + 8] (monotone algebras
    need at most [|V|] rounds). *)

val optimal_signature :
  ('s, 'l) Routing_algebra.t -> 'l graph -> dest:string -> string -> 's
(** Reference optimum by exhaustive simple-path enumeration (exponential;
    validation on small graphs).  Matches the protocol fixpoint exactly
    when the algebra is isotone. *)

(** {1 Example graphs} (nodes [n0..n(k-1)], symmetric) *)

val line_graph : ?label:(int -> int) -> int -> int graph
val ring_graph : ?label:(int -> int) -> int -> int graph
