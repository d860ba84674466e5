(* Spans and counters the benchmark records around its own calls into
   each layer's public functions.  Nothing here reaches inside the
   library: a layer's time is the span the benchmark opens around the
   call, and its counts are the counters the module already exposes.

   A span's self time is its duration minus the part of its interval
   its child spans cover.  Per traced window, the self times of every
   span plus the time no root span covers sum to the window's wall time
   exactly (integer nanoseconds; checked by [self_test]). *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  start : int;  (** ns, monotonic clock *)
  stop : int;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  req : int;  (** the operation (request) this span belongs to *)
}

type t = {
  mutable on : bool;  (** spans and counts are recorded only while on *)
  mutable req : int;
  mutable open_spans : int list;  (** innermost first *)
  mutable next_id : int;
  mutable spans : span list;
  mutable windows : (int * int) list;  (** traced intervals *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  {
    on = false;
    req = 0;
    open_spans = [];
    next_id = 0;
    spans = [];
    windows = [];
    counts = Hashtbl.create 64;
  }

let record t ~id ~name ~start ~stop ~parent =
  t.spans <- { id; name; start; stop; parent; req = t.req } :: t.spans

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_spans with p :: _ -> p | [] -> -1 in
    t.open_spans <- id :: t.open_spans;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        t.open_spans <- List.tl t.open_spans;
        record t ~id ~name ~start ~stop ~parent)
  end

(* A child of the innermost open span whose interval the benchmark
   knows only from a counter the layer exposes (view refresh's
   cumulative seconds inside [Runtime.run]). *)
let child t name ~start ~stop =
  if t.on then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_spans with p :: _ -> p | [] -> -1 in
    record t ~id ~name ~start ~stop ~parent
  end

let count t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

(* Run [f] as one traced window: everything it records is attributed,
   and the window's wall time is the denominator of the shares. *)
let window t f =
  t.on <- true;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      t.windows <- (start, now ()) :: t.windows;
      t.on <- false)

(* ------------------------------------------------------------------ *)
(* Accounting. *)

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered lo hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total + (cb - ca), (a, b)) else (total, (ca, max cb b)))
      (0, (lo, lo))
      ivs
  in
  total + (snd last - fst last)

type summary = {
  self_ns : (string, int) Hashtbl.t;  (** per span name *)
  total_ns : (string, int) Hashtbl.t;  (** per span name, children included *)
  calls : (string, int) Hashtbl.t;
  wall_ns : int;  (** summed traced-window wall time *)
  unattributed_ns : int;  (** window time no root span covers *)
}

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let summarize ~spans ~windows =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    spans;
  let self_ns = Hashtbl.create 32
  and total_ns = Hashtbl.create 32
  and calls = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop - s.start in
      bump self_ns s.name
        (dur - covered s.start s.stop (Hashtbl.find_all kids s.id));
      bump total_ns s.name dur;
      bump calls s.name 1)
    spans;
  let roots =
    List.filter_map
      (fun s -> if s.parent < 0 then Some (s.start, s.stop) else None)
      spans
  in
  let wall_ns, unattributed_ns =
    List.fold_left
      (fun (w, u) (lo, hi) -> (w + (hi - lo), u + (hi - lo) - covered lo hi roots))
      (0, 0) windows
  in
  { self_ns; total_ns; calls; wall_ns; unattributed_ns }

let summary t = summarize ~spans:t.spans ~windows:t.windows
let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* The accounting identity on a synthetic tree: nested children,
   a grandchild, a child covering its whole parent, gaps between roots,
   and two windows.  Fails the run when self times plus unattributed
   time do not sum to wall exactly. *)
let self_test () =
  let mk id name start stop parent = { id; name; start; stop; parent; req = 0 } in
  let spans =
    [
      mk 0 "a" 10 60 (-1);
      mk 1 "b" 15 30 0;
      mk 2 "c" 20 25 1;
      mk 3 "d" 40 55 0;
      mk 4 "e" 70 90 (-1);
      mk 5 "f" 70 90 4;
      mk 6 "g" 210 240 (-1);
    ]
  in
  let s = summarize ~spans ~windows:[ (0, 100); (200, 250) ] in
  let expect =
    [ ("a", 20); ("b", 10); ("c", 5); ("d", 15); ("e", 0); ("f", 20); ("g", 30) ]
  in
  let self_sum = Hashtbl.fold (fun _ v acc -> acc + v) s.self_ns 0 in
  let ok =
    List.for_all (fun (n, v) -> get s.self_ns n = v) expect
    && s.wall_ns = 150 && s.unattributed_ns = 50
    && self_sum + s.unattributed_ns = s.wall_ns
  in
  if not ok then failwith "span accounting self-test failed"

(* ------------------------------------------------------------------ *)
(* GC pause time, read from the runtime's own event ring.  Pause time is
   the union of minor collections and major slices; only events that
   end while [collecting] is set are counted, so the traced operations'
   pauses are separated from the untraced ones'. *)

module Gc_pause = struct
  let cursor = ref None
  let depth = ref 0
  let began = ref 0
  let collecting = ref false
  let total_ns = ref 0

  let pause_phase = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        if pause_phase phase then begin
          if !depth = 0 then began := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t phase ->
        if pause_phase phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 && !collecting then
            total_ns := !total_ns + (ts t - !began)
        end)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (* Drain the ring; events read count toward the total iff [collect]. *)
  let poll ~collect =
    match !cursor with
    | None -> ()
    | Some c ->
      collecting := collect;
      ignore (Runtime_events.read_poll c callbacks None);
      collecting := false

  let seconds () = float_of_int !total_ns /. 1e9
end
