(* Binary wire framing for the cross-process transport.

   Every frame is a 4-byte big-endian length prefix followed by a
   tagged body.  Values travel in canonical boxed form: interned-id
   spaces are per-process, so a flat payload from one runtime is
   meaningless in another — the sender boxes and the receiver
   re-interns at its own boundary (see {!Socket}).  The in-process
   simulator transport never serializes: its messages carry ids only.

   Decoding is incremental ({!Decoder}): sockets deliver arbitrary
   chunks, so a frame may arrive across many reads and one read may
   carry many frames.  Malformed input raises {!Frame_error} with a
   typed cause rather than failing obscurely downstream. *)

module Store = Ndlog.Store
module Value = Ndlog.Value

(* A tuple between nodes, as the sender's interned ids: the receiver
   inserts them without re-probing the intern table.  Ids are
   per-process, so a cross-process send boxes them into a [Data] frame
   and the receiving process interns the frame's tuple. *)
type msg = { pred : string; ids : int array }

type status = {
  st_idle : bool;
  st_sent : int;  (* data frames written to peers so far *)
  st_received : int;  (* data frames dispatched so far *)
  st_bytes : int;  (* data bytes written to peers so far *)
  st_inserts : int;  (* local tuple insertions so far *)
}

type frame =
  | Data of { src : string; dst : string; pred : string; tuple : Store.Tuple.t }
      (** a routed tuple between nodes *)
  | Poll  (** supervisor -> worker: report your status *)
  | Status of status  (** worker -> supervisor: the reply *)
  | Idle of status
      (** worker -> supervisor, unprompted: the reactor just went idle *)
  | Dump  (** supervisor -> worker: send your node stores *)
  | Store_dump of (string * (string * Store.Tuple.t list) list) list
      (** worker -> supervisor: per hosted node, per predicate, the
          tuples — the final fixpoint the supervisor compares against
          the simulated oracle *)
  | Bye  (** supervisor -> worker: drain and exit *)

type error =
  | Oversized_frame of int  (** declared length beyond [max_frame] *)
  | Truncated_stream  (** EOF inside a frame, or short body *)
  | Bad_tag of int  (** unknown frame or value tag *)
  | Read_timeout  (** no frame within the deadline: dead peer *)

exception Frame_error of error

let pp_error ppf = function
  | Oversized_frame n ->
    Fmt.pf ppf "oversized frame: declared length %d exceeds the limit" n
  | Truncated_stream -> Fmt.pf ppf "truncated stream: EOF inside a frame"
  | Bad_tag t -> Fmt.pf ppf "bad frame: unknown tag %d" t
  | Read_timeout -> Fmt.pf ppf "read timeout: peer sent no frame in time"

let () =
  Printexc.register_printer (function
    | Frame_error e -> Some (Fmt.str "Wire.Frame_error: %a" pp_error e)
    | _ -> None)

(* Frames carry protocol traffic, not bulk data; anything bigger than
   this is a corrupt length prefix, not a real frame. *)
let max_frame = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Encoding: append to a [Buffer.t]. *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let put_u32 b n =
  put_u8 b (n lsr 24);
  put_u8 b (n lsr 16);
  put_u8 b (n lsr 8);
  put_u8 b n

let put_i64 b n =
  put_u32 b (n asr 32);
  put_u32 b n

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let rec put_value b = function
  | Value.Int n ->
    put_u8 b 0;
    put_i64 b n
  | Value.Str s ->
    put_u8 b 1;
    put_string b s
  | Value.Bool v ->
    put_u8 b 2;
    put_u8 b (if v then 1 else 0)
  | Value.Addr a ->
    put_u8 b 3;
    put_string b a
  | Value.List l ->
    put_u8 b 4;
    put_u32 b (List.length l);
    List.iter (put_value b) l

let put_tuple b (t : Store.Tuple.t) =
  put_u32 b (Array.length t);
  Array.iter (put_value b) t

let put_status b { st_idle; st_sent; st_received; st_bytes; st_inserts } =
  put_u8 b (if st_idle then 1 else 0);
  put_i64 b st_sent;
  put_i64 b st_received;
  put_i64 b st_bytes;
  put_i64 b st_inserts

let put_body b = function
  | Data { src; dst; pred; tuple } ->
    put_u8 b 0;
    put_string b src;
    put_string b dst;
    put_string b pred;
    put_tuple b tuple
  | Poll -> put_u8 b 1
  | Status st ->
    put_u8 b 2;
    put_status b st
  | Dump -> put_u8 b 3
  | Store_dump nodes ->
    put_u8 b 4;
    put_u32 b (List.length nodes);
    List.iter
      (fun (node, rels) ->
        put_string b node;
        put_u32 b (List.length rels);
        List.iter
          (fun (pred, tuples) ->
            put_string b pred;
            put_u32 b (List.length tuples);
            List.iter (put_tuple b) tuples)
          rels)
      nodes
  | Bye -> put_u8 b 5
  | Idle st ->
    put_u8 b 6;
    put_status b st

let encode frame =
  let body = Buffer.create 64 in
  put_body body frame;
  let n = Buffer.length body in
  let b = Buffer.create (n + 4) in
  put_u32 b n;
  Buffer.add_buffer b body;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Decoding: a cursor over one complete frame body.  A read past the
   declared end means the body was shorter than its encoding claims —
   reported as a truncation. *)

type cursor = { data : Bytes.t; stop : int; mutable pos : int }

let need c n =
  if c.pos + n > c.stop then raise (Frame_error Truncated_stream)

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  let a = get_u8 c in
  let b = get_u8 c in
  let d = get_u8 c in
  let e = get_u8 c in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_i64 c =
  let hi = get_u32 c in
  let lo = get_u32 c in
  (* Sign-extend through bit 62: OCaml ints are 63-bit here. *)
  (hi lsl 32) lor lo

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let rec get_value c =
  match get_u8 c with
  | 0 -> Value.Int (get_i64 c)
  | 1 -> Value.Str (get_string c)
  | 2 -> Value.Bool (get_u8 c <> 0)
  | 3 -> Value.Addr (get_string c)
  | 4 ->
    let n = get_u32 c in
    Value.List (List.init n (fun _ -> get_value c))
  | t -> raise (Frame_error (Bad_tag t))

let get_tuple c =
  let n = get_u32 c in
  (* Guard the allocation: a corrupt count must not OOM. *)
  if n > c.stop - c.pos then raise (Frame_error Truncated_stream);
  Array.init n (fun _ -> get_value c)

let get_list c f =
  let n = get_u32 c in
  if n > c.stop - c.pos then raise (Frame_error Truncated_stream);
  List.init n (fun _ -> f c)

let get_status c =
  let st_idle = get_u8 c <> 0 in
  let st_sent = get_i64 c in
  let st_received = get_i64 c in
  let st_bytes = get_i64 c in
  let st_inserts = get_i64 c in
  { st_idle; st_sent; st_received; st_bytes; st_inserts }

let get_body c =
  match get_u8 c with
  | 0 ->
    let src = get_string c in
    let dst = get_string c in
    let pred = get_string c in
    let tuple = get_tuple c in
    Data { src; dst; pred; tuple }
  | 1 -> Poll
  | 2 -> Status (get_status c)
  | 3 -> Dump
  | 4 ->
    Store_dump
      (get_list c (fun c ->
           let node = get_string c in
           let rels =
             get_list c (fun c ->
                 let pred = get_string c in
                 let tuples = get_list c get_tuple in
                 (pred, tuples))
           in
           (node, rels)))
  | 5 -> Bye
  | 6 -> Idle (get_status c)
  | t -> raise (Frame_error (Bad_tag t))

let decode_body data ~off ~len =
  let c = { data; stop = off + len; pos = off } in
  let f = get_body c in
  if c.pos <> c.stop then raise (Frame_error Truncated_stream);
  f

(* The body length a frame's 4-byte prefix at [off] declares. *)
let length_prefix buf off =
  let g i = Char.code (Bytes.get buf (off + i)) in
  (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3

(* ------------------------------------------------------------------ *)
(* Incremental decoder: feed chunks as the socket delivers them, pop
   complete frames as they become available. *)

module Decoder = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }
  let buffered d = d.len

  let feed d src off n =
    if n > 0 then begin
      if d.len + n > Bytes.length d.buf then begin
        let cap = max (d.len + n) (2 * Bytes.length d.buf) in
        let buf = Bytes.create cap in
        Bytes.blit d.buf 0 buf 0 d.len;
        d.buf <- buf
      end;
      Bytes.blit src off d.buf d.len n;
      d.len <- d.len + n
    end

  let next d =
    if d.len < 4 then None
    else begin
      let n = length_prefix d.buf 0 in
      if n > max_frame then raise (Frame_error (Oversized_frame n));
      if d.len < 4 + n then None
      else begin
        let frame = decode_body d.buf ~off:4 ~len:n in
        let rest = d.len - 4 - n in
        if rest > 0 then Bytes.blit d.buf (4 + n) d.buf 0 rest;
        d.len <- rest;
        Some frame
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Blocking IO over file descriptors. *)

(* [Unix.write] may accept only part of the buffer (full socket buffer,
   signal interruption): loop until every byte is out. *)
let write_frame fd frame =
  let b = encode frame in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | 0 -> raise (Frame_error Truncated_stream)
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  n

(* Read one frame, waiting at most [timeout] seconds (wall-clock across
   the whole frame, not per chunk): a peer that stops talking mid-frame
   still trips the deadline.  The length prefix is read first, then
   exactly the body it declares, so nothing past this frame leaves the
   kernel buffer: a second frame already written stays readable, and
   [select] on [fd] keeps telling the truth about it.  EOF anywhere —
   before any byte of the frame or inside it — is a truncation. *)
let read_frame ?(timeout = 10.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec fill buf off n =
    if n > 0 then begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise (Frame_error Read_timeout);
      match
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> raise (Frame_error Read_timeout)
        | _ -> Unix.read fd buf off n
      with
      | 0 -> raise (Frame_error Truncated_stream)
      | k -> fill buf (off + k) (n - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill buf off n
    end
  in
  let header = Bytes.create 4 in
  fill header 0 4;
  let n = length_prefix header 0 in
  if n > max_frame then raise (Frame_error (Oversized_frame n));
  let body = Bytes.create n in
  fill body 0 n;
  decode_body body ~off:0 ~len:n
