(* A deterministic discrete-event queue.

   Events are ordered by (time, sequence number): ties in simulated time
   are broken by insertion order, which makes whole simulations
   reproducible run to run.  Implemented as a binary min-heap over
   parallel arrays — times unboxed, tie numbers, payloads — that double
   when full and halve when a quarter full, so a push allocates only its
   payload's option and the queue holds no taken event.  The (time, tie)
   order is total, so the pop sequence is the order's and not the
   heap's. *)

type 'a t = {
  mutable times : float array;
  mutable ties : int array;
  mutable vals : 'a option array;  (* [None] past [size] *)
  mutable seq : int;
  mutable size : int;
}

let create () = { times = [||]; ties = [||]; vals = [||]; seq = 0; size = 0 }

let is_empty q = q.size = 0
let length q = q.size

(* [(time, tie)] orders strictly before heap slot [j]. *)
let before q time tie j =
  let tj = Array.unsafe_get q.times j in
  time < tj || (time = tj && tie < Array.unsafe_get q.ties j)

let set q i time tie v =
  q.times.(i) <- time;
  q.ties.(i) <- tie;
  q.vals.(i) <- v

let move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.ties.(dst) <- q.ties.(src);
  q.vals.(dst) <- q.vals.(src)

(* Place [(time, tie, v)] at the hole [i] or above it, moving the
   parents it precedes down into the hole instead of swapping. *)
let rec sift_up q i time tie v =
  let parent = (i - 1) / 2 in
  if i > 0 && before q time tie parent then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time tie v
  end
  else set q i time tie v

(* Place [(time, tie, v)] at the hole [i] or below it, moving the
   earlier child up into the hole while it precedes the element (tie
   numbers are unique, so "not after" is "before"). *)
let rec sift_down q i time tie v =
  let l = (2 * i) + 1 in
  if l >= q.size then set q i time tie v
  else
    let r = l + 1 in
    let m = if r < q.size && before q q.times.(r) q.ties.(r) l then r else l in
    if before q time tie m then set q i time tie v
    else begin
      move q ~src:m ~dst:i;
      sift_down q m time tie v
    end

let resize q cap =
  let times = Array.make cap 0.0 and ties = Array.make cap 0 in
  let vals = Array.make cap None in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.ties 0 ties 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.times <- times;
  q.ties <- ties;
  q.vals <- vals

let push q ~time v =
  if q.size = Array.length q.vals then resize q (max 16 (2 * q.size));
  let i = q.size in
  q.size <- i + 1;
  sift_up q i time q.seq (Some v);
  q.seq <- q.seq + 1

let next_time q = if q.size = 0 then infinity else q.times.(0)

(* Remove the root: the last slot moves into it and sifts down, and
   the vacated last slot is cleared. *)
let take q =
  if q.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let v = q.vals.(0) in
  let last = q.size - 1 in
  q.size <- last;
  sift_down q 0 q.times.(last) q.ties.(last) q.vals.(last);
  q.vals.(last) <- None;
  if Array.length q.vals > 16 && 4 * last <= Array.length q.vals then
    resize q (Array.length q.vals / 2);
  match v with Some v -> v | None -> assert false

(* Clearing also resets the insertion sequence: tie ids only order
   events against other events in the same queue content, and the queue
   is empty here, so restarting from 0 is observationally equivalent —
   and it keeps a long-lived, repeatedly-cleared queue's tie ids from
   growing without bound.  (The model test covers clear-then-push
   tie-breaking explicitly.)  The payloads go too, so a cleared queue
   holds no event alive. *)
let clear q =
  q.times <- [||];
  q.ties <- [||];
  q.vals <- [||];
  q.seq <- 0;
  q.size <- 0
