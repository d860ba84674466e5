(* A small explicit-state model checker (Section 4.3 of the paper:
   "leverage such transition system representation to directly interface
   with model checkers").

   Works over any transition system given as initial states plus a
   successor function.  Provides:

   - reachability statistics (states, transitions, depth);
   - invariant (safety) checking with shortest counterexample traces;
   - terminal-state collection (e.g. the stable assignments of an SPP);
   - lasso search: a reachable cycle lying entirely inside a region
     (e.g. the not-yet-converged states), which witnesses a possible
     non-terminating execution — the oscillation detector used by E9;
   - two state-space reductions, both off by default: partial-order
     reduction over labeled actions ([~por]) and symmetry reduction by
     canonicalizing visited-table keys ([~canon]).

   State identity is the system's [equal]/[hash] pair.  The default
   (structural [(=)] / [Hashtbl.hash]) is only correct for pure-data
   states: a state built on balanced trees (e.g. {!Ndlog.Store.t},
   whose shape depends on insertion order) or carrying lazily derived
   fields must supply its own pair, or the same logical state visits
   once per representation.
   [Hashtbl.hash] also truncates at its default depth/size limits, so
   large states would collapse into a handful of buckets and the table
   would degrade to a linear scan — a full-depth [hash] keeps lookups
   O(bucket). *)

type ('state, 'action) sys = {
  initial : 'state list;
  successors : 'state -> 'state list;
  actions : ('state -> ('action * 'state) list) option;
  independent : ('state -> 'action -> 'action -> bool) option;
  visible : ('state -> 'action -> bool) option;
  pp : 'state Fmt.t;
  equal : 'state -> 'state -> bool;
  hash : 'state -> int;
}

(* The unlabeled view every pre-reduction caller uses. *)
type 'state system = ('state, unit) sys

let default_pp ppf _ = Fmt.string ppf "<state>"

let make ?(pp = default_pp) ?(equal = ( = )) ?(hash = Hashtbl.hash) ~initial
    ~successors () =
  {
    initial;
    successors;
    actions = None;
    independent = None;
    visible = None;
    pp;
    equal;
    hash;
  }

let make_labeled ?(pp = default_pp) ?(equal = ( = )) ?(hash = Hashtbl.hash)
    ?independent ?visible ~initial ~actions () =
  {
    initial;
    successors = (fun s -> List.map snd (actions s));
    actions = Some actions;
    independent;
    visible;
    pp;
    equal;
    hash;
  }

(* Visited-state table: a hashtable keyed by the state hash, with
   bucket lists resolved by the state equality.  An optional [canon]
   maps every key to its orbit representative before hashing — the
   symmetry quotient lives here, so exploration still works with real
   states (and real traces) while the table identifies states up to
   symmetry.

   Canonicalization is the expensive step, so the search loops compute
   a state's {!key} (representative plus hash) once and reuse it for
   the POR newness check, the lookup and the insert. *)
module Table = struct
  type 'state t = {
    equal : 'state -> 'state -> bool;
    hash : 'state -> int;
    canon : 'state -> 'state;
    tbl : (int, ('state * int) list ref) Hashtbl.t;
    (* hash -> (canonical state, visitation id) bucket *)
    mutable size : int;  (* entries added, duplicates included *)
  }

  type 'state key = { rep : 'state; h : int }

  let create ?(equal = ( = )) ?(hash = Hashtbl.hash) ?(canon = Fun.id) () =
    { equal; hash; canon; tbl = Hashtbl.create 1024; size = 0 }

  let of_system ?canon (sys : ('state, 'action) sys) =
    create ~equal:sys.equal ~hash:sys.hash ?canon ()

  let key (t : 'state t) s =
    let rep = t.canon s in
    { rep; h = t.hash rep }

  let find_key (t : 'state t) k =
    match Hashtbl.find_opt t.tbl k.h with
    | None -> None
    | Some bucket ->
      List.find_opt (fun (s', _) -> t.equal s' k.rep) !bucket
      |> Option.map snd

  let add_key (t : 'state t) k id =
    (match Hashtbl.find_opt t.tbl k.h with
    | None -> Hashtbl.replace t.tbl k.h (ref [ (k.rep, id) ])
    | Some bucket -> bucket := (k.rep, id) :: !bucket);
    t.size <- t.size + 1

  let mem_key t k = find_key t k <> None
  let find t s = find_key t (key t s)
  let add t s id = add_key t (key t s) id
  let mem t s = mem_key t (key t s)
  let size t = t.size
  let buckets t = Hashtbl.length t.tbl

  let max_bucket t =
    Hashtbl.fold (fun _ b acc -> max acc (List.length !b)) t.tbl 0
end

type 'state stats = {
  states : int;
  transitions : int;
  max_depth : int;
  terminal : 'state list;  (* states with no successors *)
  truncated : bool;  (* the state bound was hit *)
}

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: expand an ample subset of the enabled
   transitions instead of all of them.

   We use singleton ample sets: an action [a] may stand for the whole
   enabled set when the system's [independent] hook certifies it
   against every other enabled action.  The hook carries a strong
   contract (documented in the mli): independence must mean the two
   actions commute to the same state, never disable each other, and
   keep commuting along the pruned interleavings — which the NDlog
   transition systems satisfy by monotonicity.  Two standard provisos
   make the reduction sound for exploration and safety checking:

   - closed-set proviso (the BFS variant of the cycle condition): the
     ample successor must be new; expanding into the visited set could
     postpone the pruned siblings forever, so we fall back to full
     expansion instead;
   - visibility: when checking an invariant, the ample action must be
     invisible (unable to change the invariant's verdict), unless the
     caller declares the invariant stable — once violated, violated in
     every extension — in which case reaching the terminal fixpoint
     is enough and the condition can be dropped.

   Successors come paired with their table keys, each computed at most
   once: the ample candidate's key serves the caller's lookup and
   insert too. *)
let expansion (sys : ('state, 'action) sys) ~por ~require_invisible visited s :
    ('state * 'state Table.key) list =
  let keyed s' = (s', Table.key visited s') in
  match (sys.actions, sys.independent) with
  | Some actions, Some indep when por -> (
    match actions s with
    | [] -> []
    | [ (_, s') ] -> [ keyed s' ]
    | acts ->
      let arr = Array.of_list acts in
      let n = Array.length arr in
      let keys = Array.make n None in
      let key_of i =
        match keys.(i) with
        | Some k -> k
        | None ->
          let k = Table.key visited (snd arr.(i)) in
          keys.(i) <- Some k;
          k
      in
      let invisible a =
        (not require_invisible)
        ||
        match sys.visible with
        | None -> false (* unknown visibility: assume visible *)
        | Some vis -> not (vis s a)
      in
      let independent_of_all i a =
        let ok = ref true in
        Array.iteri (fun j (b, _) -> if j <> i && not (indep s a b) then ok := false) arr;
        !ok
      in
      let rec pick i =
        if i >= n then None
        else
          let a, _ = arr.(i) in
          if
            invisible a && independent_of_all i a
            && not (Table.mem_key visited (key_of i))
          then Some i
          else pick (i + 1)
      in
      let succ i = (snd arr.(i), key_of i) in
      (match pick 0 with
      | Some i -> [ succ i ]
      | None -> List.init n succ))
  | _ -> List.map keyed (sys.successors s)

(* ------------------------------------------------------------------ *)
(* Invariant checking with counterexample. *)

type 'state violation = {
  trace : 'state list;  (* from an initial state to the violating one *)
  violating : 'state;
}

let check_invariant ?(max_states = 100_000) ?(por = false) ?canon
    ?(stable = false) (sys : ('state, 'action) sys) (inv : 'state -> bool) :
    ('state stats, 'state violation) result =
  (* BFS storing parent pointers for counterexamples (shortest in the
     explored graph; a reduced graph may omit shorter interleavings). *)
  let visited = Table.of_system ?canon sys in
  let parents : (int * 'state) option array ref = ref (Array.make 1024 None) in
  let store id v =
    if id >= Array.length !parents then begin
      let bigger = Array.make (2 * Array.length !parents) None in
      Array.blit !parents 0 bigger 0 (Array.length !parents);
      parents := bigger
    end;
    !parents.(id) <- v
  in
  let queue = Queue.create () in
  let transitions = ref 0 in
  let max_depth = ref 0 in
  let terminal = ref [] in
  let truncated = ref false in
  let id = ref 0 in
  let found = ref None in
  let violated s sid =
    found := Some (s, sid);
    raise Exit
  in
  let rebuild sid s =
    let rec go acc pid =
      match !parents.(pid) with
      | None -> acc
      | Some (pid', ps) -> go (ps :: acc) pid'
    in
    go [ s ] sid
  in
  try
    List.iter
      (fun s ->
        let k = Table.key visited s in
        if not (Table.mem_key visited k) then begin
          Table.add_key visited k !id;
          store !id None;
          if not (inv s) then violated s !id;
          Queue.push (s, !id, 0) queue;
          incr id
        end)
      sys.initial;
    while not (Queue.is_empty queue) do
      let s, sid, depth = Queue.pop queue in
      max_depth := max !max_depth depth;
      let succs =
        expansion sys ~por ~require_invisible:(not stable) visited s
      in
      transitions := !transitions + List.length succs;
      if succs = [] then terminal := s :: !terminal;
      List.iter
        (fun (s', k) ->
          if not (Table.mem_key visited k) then
            if Table.size visited >= max_states then truncated := true
            else begin
              Table.add_key visited k !id;
              store !id (Some (sid, s));
              if not (inv s') then violated s' !id;
              Queue.push (s', !id, depth + 1) queue;
              incr id
            end)
        succs
    done;
    Ok
      {
        states = Table.size visited;
        transitions = !transitions;
        max_depth = !max_depth;
        terminal = List.rev !terminal;
        truncated = !truncated;
      }
  with Exit -> (
    match !found with
    | Some (s, sid) -> Error { trace = rebuild sid s; violating = s }
    | None -> assert false)

(* Breadth-first exploration: the invariant search with nothing to
   violate. *)
let explore ?max_states ?por ?canon (sys : ('state, 'action) sys) :
    'state stats =
  match
    check_invariant ?max_states ?por ?canon ~stable:true sys (fun _ -> true)
  with
  | Ok stats -> stats
  | Error _ -> assert false

(* ------------------------------------------------------------------ *)
(* Counterexample replay: check a claimed trace against the system
   itself.  Reduced searches must produce traces of real transitions —
   a trace of canonical representatives (whose steps need not be
   edges) would pass the verdict but fail here. *)

(* Each state of [ss] after the first is an enabled successor of the one
   before it; a failure names the step, after [label]. *)
let check_steps (sys : ('state, 'action) sys) label (ss : 'state list) =
  let rec steps i = function
    | s :: (s' :: _ as rest) ->
      if List.exists (sys.equal s') (sys.successors s) then steps (i + 1) rest
      else
        Error
          (Printf.sprintf "%sstep %d is not an enabled successor" label (i + 1))
    | _ -> Ok ()
  in
  steps 0 ss

let validate_trace (sys : ('state, 'action) sys) (trace : 'state list) :
    (unit, string) result =
  match trace with
  | [] -> Error "empty trace"
  | s0 :: _ ->
    if not (List.exists (sys.equal s0) sys.initial) then
      Error "trace does not start at an initial state"
    else check_steps sys "" trace

(* ------------------------------------------------------------------ *)
(* Lasso detection. *)

type 'state lasso = {
  stem : 'state list;  (* from an initial state to the cycle entry *)
  cycle : 'state list;  (* the cycle, starting and ending implicit *)
}

(* Find a reachable cycle whose states all satisfy [within] (default:
   everything).  DFS with an explicit on-stack marker. *)
let find_lasso ?(max_states = 100_000) ?(within = fun _ -> true)
    (sys : ('state, 'action) sys) : 'state lasso option =
  let visited = Table.of_system sys in
  let result = ref None in
  let exception Found in
  let rec dfs path_on_stack s =
    if !result <> None then ()
    else if not (within s) then ()
    else if List.exists (fun s' -> sys.equal s' s) path_on_stack then begin
      (* cycle: the portion of the stack up to s *)
      let rec take acc = function
        | [] -> acc
        | x :: rest ->
          if sys.equal x s then x :: acc else take (x :: acc) rest
      in
      let cycle = take [] path_on_stack in
      result := Some { stem = []; cycle };
      raise Found
    end
    else
      let k = Table.key visited s in
      if Table.mem_key visited k then ()
      else begin
        Table.add_key visited k 0;
        if Table.size visited > max_states then ()
        else List.iter (dfs (s :: path_on_stack)) (sys.successors s)
      end
  in
  (try List.iter (dfs []) sys.initial with Found -> ());
  !result

let validate_lasso (sys : ('state, 'action) sys) (l : 'state lasso) :
    (unit, string) result =
  match l.cycle with
  | [] -> Error "empty cycle"
  | first :: _ ->
    let stem_ok =
      match l.stem with
      | [] -> Ok () (* empty stem: cycle reachability is not re-checked *)
      | s0 :: _ ->
        if not (List.exists (sys.equal s0) sys.initial) then
          Error "stem does not start at an initial state"
        else
          Result.bind (check_steps sys "stem " l.stem) (fun () ->
              let last = List.nth l.stem (List.length l.stem - 1) in
              if List.exists (sys.equal first) (sys.successors last) then Ok ()
              else Error "cycle entry is not a successor of the stem")
    in
    Result.bind stem_ok (fun () ->
        Result.bind (check_steps sys "cycle " l.cycle) (fun () ->
            let last = List.nth l.cycle (List.length l.cycle - 1) in
            if List.exists (sys.equal first) (sys.successors last) then Ok ()
            else Error "cycle does not close"))

(* Can the system run forever while avoiding [good] states?  True iff a
   reachable cycle exists entirely within the bad region. *)
let can_avoid ?(max_states = 100_000) (sys : ('state, 'action) sys)
    ~(good : 'state -> bool) : 'state lasso option =
  find_lasso ~max_states ~within:(fun s -> not (good s)) sys
