(* A deterministic discrete-event queue.

   Events are ordered by (time, insertion sequence): ties in simulated
   time are broken by insertion order, which makes whole simulations
   reproducible run to run.

   Every event of one instant leaves in FIFO order, and a simulation
   pushes most of an instant's events back to back (a node's sends all
   land one link delay ahead), so the queue keeps *runs*: the events
   pushed consecutively at one time, oldest first.  A push at the time
   of the run pushed last appends to it, and a take pops the front run,
   both in O(1); a binary min-heap orders only the runs, by (time, the
   run's creation number).  Two runs of one time are ordered by
   creation, and every event of the older run was pushed before every
   event of the newer one, because only the newest run is ever
   appended to — so the pop sequence is exactly the (time, insertion)
   order.

   The newest run stays out of the heap until a push at another time
   closes it, so a push never searches the heap, and a lone event
   costs what it did when every event was its own heap entry: one
   two-word cell and one heap insertion.  The heap is parallel arrays —
   times unboxed, creation numbers, cells — that double when full and
   halve when a quarter full.  A drained run's array is the next run's,
   so that a simulation's instants grow one array once instead of one
   each.  Taken events can stay reachable from run arrays until a push
   overwrites their slots: a taken slot holds a copy of the then newest
   event, and a grown array's tail copies of older ones, which are
   taken in turn.  So the queue keeps alive at most as many taken
   events as its run arrays have slots, each array no longer than
   twice the longest run it has held. *)

(* The events of one run, oldest first: [items.(first)] to
   [items.(last - 1)]. *)
type 'a run = {
  mutable items : 'a array;
  mutable first : int;
  mutable last : int;
}

type 'a cell =
  | Empty  (* a free heap slot, or no open run *)
  | One of 'a  (* a run of one event *)
  | Many of 'a run

type 'a t = {
  (* The heap of closed runs. *)
  mutable times : float array;
  mutable ties : int array;  (* creation numbers *)
  mutable cells : 'a cell array;  (* [Empty] past [size] *)
  mutable size : int;
  (* The open run: the newest, appended to while pushes keep its time. *)
  mutable open_time : float;
  mutable open_tie : int;
  mutable open_cell : 'a cell;
  mutable seq : int;  (* runs created *)
  mutable length : int;  (* events queued *)
  mutable spare : 'a array;  (* the array of the run drained last *)
}

let create () =
  {
    times = [||];
    ties = [||];
    cells = [||];
    size = 0;
    open_time = 0.0;
    open_tie = 0;
    open_cell = Empty;
    seq = 0;
    length = 0;
    spare = [||];
  }

let is_empty q = q.length = 0
let length q = q.length

(* ------------------------------------------------------------------ *)
(* Runs. *)

(* A run reuses the array of the run drained last: an instant's run
   grows once, not at every instant. *)
let run_of_two q a b =
  let items =
    if Array.length q.spare = 0 then Array.make 8 a
    else begin
      let items = q.spare in
      q.spare <- [||];
      items.(0) <- a;
      items
    end
  in
  items.(1) <- b;
  { items; first = 0; last = 2 }

(* A full array is compacted to the front, and doubled only when more
   than half of it is live.  The doubled array is built by
   [Array.append], not [Array.make]: a major-heap array made with a
   young initial value forces a minor collection. *)
let append r v =
  if r.last = Array.length r.items then begin
    let live = r.last - r.first in
    if 2 * live > Array.length r.items then
      r.items <- Array.append r.items r.items;
    Array.blit r.items r.first r.items 0 live;
    r.first <- 0;
    r.last <- live
  end;
  r.items.(r.last) <- v;
  r.last <- r.last + 1

(* The oldest event, removed; its slot takes the newest event, so the
   slot holds an event that is queued when written.  A drained run
   leaves its array as the spare. *)
let pop_run q r =
  let v = r.items.(r.first) in
  r.items.(r.first) <- r.items.(r.last - 1);
  r.first <- r.first + 1;
  if r.first = r.last then q.spare <- r.items;
  v

(* ------------------------------------------------------------------ *)
(* The heap of closed runs. *)

(* [(time, tie)] orders strictly before heap slot [j]. *)
let before q time tie j =
  let tj = Array.unsafe_get q.times j in
  time < tj || (time = tj && tie < Array.unsafe_get q.ties j)

let set q i time tie c =
  q.times.(i) <- time;
  q.ties.(i) <- tie;
  q.cells.(i) <- c

let move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.ties.(dst) <- q.ties.(src);
  q.cells.(dst) <- q.cells.(src)

(* Place [(time, tie, c)] at the hole [i] or above it, moving the
   parents it precedes down into the hole instead of swapping. *)
let rec sift_up q i time tie c =
  let parent = (i - 1) / 2 in
  if i > 0 && before q time tie parent then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time tie c
  end
  else set q i time tie c

(* Place [(time, tie, c)] at the hole [i] or below it, moving the
   earlier child up into the hole while it precedes the element
   (creation numbers are unique, so "not after" is "before"). *)
let rec sift_down q i time tie c =
  let l = (2 * i) + 1 in
  if l >= q.size then set q i time tie c
  else
    let r = l + 1 in
    let m = if r < q.size && before q q.times.(r) q.ties.(r) l then r else l in
    if before q time tie m then set q i time tie c
    else begin
      move q ~src:m ~dst:i;
      sift_down q m time tie c
    end

let resize q cap =
  let times = Array.make cap 0.0 and ties = Array.make cap 0 in
  let cells = Array.make cap Empty in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.ties 0 ties 0 q.size;
  Array.blit q.cells 0 cells 0 q.size;
  q.times <- times;
  q.ties <- ties;
  q.cells <- cells

let heap_push q time tie c =
  if q.size = Array.length q.cells then resize q (max 16 (2 * q.size));
  let i = q.size in
  q.size <- i + 1;
  sift_up q i time tie c

(* Remove the root run: the last slot moves into it and sifts down,
   and the vacated last slot is cleared. *)
let heap_pop q =
  let last = q.size - 1 in
  q.size <- last;
  sift_down q 0 q.times.(last) q.ties.(last) q.cells.(last);
  q.cells.(last) <- Empty;
  if Array.length q.cells > 16 && 4 * last <= Array.length q.cells then
    resize q (Array.length q.cells / 2)

(* ------------------------------------------------------------------ *)
(* The queue. *)

let push q ~time v =
  q.length <- q.length + 1;
  match q.open_cell with
  | One a when time = q.open_time -> q.open_cell <- Many (run_of_two q a v)
  | Many r when time = q.open_time -> append r v
  | c ->
    if c != Empty then heap_push q q.open_time q.open_tie c;
    q.open_time <- time;
    q.open_tie <- q.seq;
    q.open_cell <- One v;
    q.seq <- q.seq + 1

(* The open run is the newest, so it goes first only at an earlier
   time: at an equal time the heap's run is older. *)
let open_first q =
  q.open_cell != Empty && (q.size = 0 || q.open_time < q.times.(0))

let next_time q =
  if open_first q then q.open_time
  else if q.size = 0 then infinity
  else q.times.(0)

let take q =
  if q.length = 0 then invalid_arg "Event_queue.take: empty queue";
  q.length <- q.length - 1;
  if open_first q then
    match q.open_cell with
    | One v ->
      q.open_cell <- Empty;
      v
    | Many r ->
      let v = pop_run q r in
      if r.first = r.last then q.open_cell <- Empty;
      v
    | Empty -> assert false
  else
    match q.cells.(0) with
    | One v ->
      heap_pop q;
      v
    | Many r ->
      let v = pop_run q r in
      if r.first = r.last then heap_pop q;
      v
    | Empty -> assert false

(* Clearing also resets the insertion sequence: creation numbers only
   order runs against other runs in the same queue content, and the
   queue is empty here, so restarting from 0 is observationally
   equivalent — and it keeps a long-lived, repeatedly-cleared queue's
   numbers from growing without bound.  (The model test covers
   clear-then-push tie-breaking explicitly.)  The events go too, so a
   cleared queue holds none alive. *)
let clear q =
  q.times <- [||];
  q.ties <- [||];
  q.cells <- [||];
  q.size <- 0;
  q.open_cell <- Empty;
  q.seq <- 0;
  q.length <- 0;
  q.spare <- [||]
