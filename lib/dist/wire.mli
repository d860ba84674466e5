(** Binary wire framing for the cross-process transport.

    Frame = 4-byte big-endian length prefix + tagged body.  Values
    travel in canonical {e boxed} form: interned-id spaces are
    per-process, so flat payloads are meaningless across a process
    boundary — the receiver re-interns at its own boundary
    ({!Socket}).  The in-process simulator transport never serializes
    and keeps the id-native fast path.

    Value encoding (tag byte + payload): [0] Int (8-byte big-endian),
    [1] Str (u32 length + bytes), [2] Bool (byte), [3] Addr (u32
    length + bytes), [4] List (u32 count + values).  Tuples are a u32
    count followed by values; strings are u32 length + bytes. *)

(** A tuple on the wire between nodes.  [tuple] is always the
    canonical boxed form; [ids] carries the flat (interned-id) payload
    when sender and receiver share a process (the simulator
    transport), and is dropped at the process boundary. *)
type msg = {
  pred : string;
  tuple : Ndlog.Store.Tuple.t;
  ids : int array option;
}

(** A worker's self-report, the quiescence protocol's raw material
    (see {!Supervisor}). *)
type status = {
  st_idle : bool;  (** no pending timers, no partially decoded input *)
  st_sent : int;  (** data frames written to peers so far *)
  st_received : int;  (** data frames dispatched so far *)
  st_bytes : int;  (** data bytes written to peers so far *)
  st_inserts : int;  (** local tuple insertions so far *)
}

type frame =
  | Data of {
      src : string;
      dst : string;
      pred : string;
      tuple : Ndlog.Store.Tuple.t;
    }  (** a routed tuple between nodes *)
  | Poll  (** supervisor -> worker: report your status *)
  | Status of status  (** worker -> supervisor: the reply *)
  | Idle of status
      (** worker -> supervisor, unprompted: the reactor has just gone
          idle with these counters (see {!Supervisor}) *)
  | Dump  (** supervisor -> worker: send your node stores *)
  | Store_dump of (string * (string * Ndlog.Store.Tuple.t list) list) list
      (** worker -> supervisor: per hosted node, per predicate, the
          tuples — the final fixpoint compared against the simulated
          oracle *)
  | Bye  (** supervisor -> worker: drain and exit *)

type error =
  | Oversized_frame of int  (** declared length beyond {!max_frame} *)
  | Truncated_stream  (** EOF inside a frame, or short body *)
  | Bad_tag of int  (** unknown frame or value tag *)
  | Read_timeout  (** no frame within the deadline: dead peer *)

exception Frame_error of error

val pp_error : error Fmt.t

val max_frame : int
(** Upper bound on a declared body length; larger prefixes are treated
    as corruption ({!Oversized_frame}), not allocated. *)

val encode : frame -> bytes
(** The frame's full wire form, length prefix included. *)

(** Incremental decoder: feed chunks as the socket delivers them, pop
    complete frames as they become available.  A frame split across
    many reads and many frames in one read both work. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed d buf off len] appends a received chunk. *)

  val next : t -> frame option
  (** The next complete frame, consumed from the buffer; [None] while
      incomplete.
      @raise Frame_error on oversized or malformed input. *)

  val buffered : t -> int
  (** Bytes buffered but not yet consumed — nonzero inside a partial
      frame (EOF here is a truncated stream). *)
end

val write_frame : Unix.file_descr -> frame -> int
(** Write the whole frame, looping over partial writes; returns bytes
    written. *)

val read_frame : ?timeout:float -> Unix.file_descr -> frame
(** Read exactly one frame, blocking at most [timeout] seconds
    (default 10) of wall-clock across the whole frame.  Reads the
    length prefix, then exactly the body it declares: bytes of any
    later frame stay in the kernel buffer, so back-to-back frames come
    out one per call and [select] on [fd] still reports them.
    @raise Frame_error [Oversized_frame] on a corrupt length prefix.
    @raise Frame_error [Read_timeout] when the deadline passes —
    a dead peer fails the run rather than hanging it — and
    [Truncated_stream] when the peer closes mid-frame. *)
