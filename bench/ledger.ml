(* The benchmark ledger's format (BENCH_ndlog.json, schema 14), stated
   once.  Each experiment it records (E7, E13–E17) is a [section]: a
   row record, one column list over it (JSON key, kind, value,
   requirement and optional table cell), the figures computed over the
   rows, and the checks only that experiment makes.  The printed tables
   ([cells]), the document ([document]) and its validation ([check])
   all come from those lists; the harness only fills the rows.

   Every regeneration appends a history entry: the run's meta fields
   and, for each section it ran, the row count as [<section>_rows] and
   the figures flagged [history] as [<section>_<key>]; a section it did
   not run is carried forward from the previous ledger.  Older entries
   keep the fields of their schema (12 dropped E8, 13 dropped E11/E12,
   14 added E13's walk counts and on-demand run), so only the meta
   fields are required of them. *)

type kind = Int | Float | Str | Bool

(* What a value must satisfy besides its kind. *)
type req =
  | Any
  | Positive
  | Holds of string  (* a boolean that must be true; the failure *)

(* How a column's headline value is taken across repeated runs (E14):
   from run 0 ([Run0]); from run 0 after checking every run agrees
   ([Agreed]); or as the median over the runs ([Median], with the
   setter that writes it into a row). *)
type 'r rep = Run0 | Agreed | Median of ('r -> float -> 'r)

type 'r col = {
  key : string;
  kind : kind;
  get : 'r -> Json.t;
  req : req;
  cell : (string * ('r -> string)) option;  (* table header, renderer *)
  rep : 'r rep;
  history : bool;  (* figures: also carried by the history entry *)
}

(* A column; [show] puts it in the table, headed [head] or its key. *)
let col ?(req = Any) ?head ?show ?(rep = Run0) ?(history = false) kind key
    get =
  let head =
    Option.value head ~default:(String.map (function '_' -> ' ' | c -> c) key)
  in
  let cell = Option.map (fun f -> (head, f)) show in
  { key; kind; get; req; cell; rep; history }

(* A typed column: [fmt] (or a whole-row [show]) puts it in the table. *)
let typed kind inj ?req ?head ?fmt ?show ?rep key get =
  let show =
    match fmt with
    | Some fmt -> Some (fun r -> Printf.sprintf fmt (get r))
    | None -> show
  in
  col ?req ?head ?show ?rep kind key (fun r -> inj (get r))

let int ?req ?head ?fmt ?show ?rep key get =
  typed Int (fun n -> Json.Int n) ?req ?head ?fmt ?show ?rep key get

let float ?req ?head ?fmt ?show ?rep key get =
  typed Float (fun x -> Json.Float x) ?req ?head ?fmt ?show ?rep key get

let str ?head ?fmt ?show key get =
  typed Str (fun s -> Json.Str s) ?head ?fmt ?show key get

let bool ?req ?fmt key get = typed Bool (fun b -> Json.Bool b) ?req ?fmt key get

(* A figure: a column over a section's whole row list. *)
let figure ?req ?(history = false) kind key get = col ?req ~history kind key get
let nonempty f = function [] -> Json.Null | rows -> f rows

(* Columns several sections share. *)
let program get = str ~fmt:"%s" "program" get
let topology ?fmt ?show get = str ?fmt ?show "topology" get
let size get = int "n" get
let nodes ?head ?fmt ?rep get = int ?head ?fmt ?rep "nodes" get
let tuples ?req ?fmt ?rep get = int ?req ?fmt ?rep "tuples" get
let speedup get = float ~fmt:"%.1fx" "speedup" get

let same_fixpoint get =
  bool ~req:(Holds "fixpoints diverge") ~fmt:"%B" "same_fixpoint" get

let messages ?rep get =
  int ~req:Positive ~head:"msgs" ~fmt:"%d" ?rep "messages" get

let inserts ?rep get = int ~req:Positive ~fmt:"%d" ?rep "inserts" get
let wall_s ?req ?rep ~fmt get = float ?req ?rep ~head:"wall" ~fmt "wall_s" get

(* The verdict "every row holds [c]", named after it. *)
let all_of ?req ?history c =
  figure ?req ?history Bool ("all_" ^ c.key)
    (nonempty (fun rows ->
         Json.Bool (List.for_all (fun r -> c.get r = Json.Bool true) rows)))

(* ------------------------------------------------------------------ *)
(* Reading a document. *)

exception Reject of string

let reject fmt = Fmt.kstr (fun m -> raise (Reject m)) fmt

let kind_name = function
  | Int -> "integer" | Float -> "float" | Str -> "string" | Bool -> "boolean"

let kind_of = function
  | Json.Int _ -> Some Int | Json.Float _ -> Some Float
  | Json.Str _ -> Some Str | Json.Bool _ -> Some Bool
  | _ -> None

let num = function
  | Json.Int n -> float_of_int n
  | Json.Float x -> x
  | _ -> nan

(* Column [c] of object [v], of its kind and meeting its requirement;
   [what] names [v] in rejections.  A [null] figure (one over no rows)
   may be null when nothing is required of it. *)
let value ?(null = false) what c v =
  let nullable = null && c.req = Any in
  let x =
    match Json.member c.key v with
    | Some x when kind_of x = Some c.kind || (nullable && x = Json.Null) -> x
    | _ -> reject "%s lacks %s %S" what (kind_name c.kind) c.key
  in
  (match (c.req, x) with
  | Any, _ | Holds _, Json.Bool true -> ()
  | Positive, x when num x > 0.0 -> ()
  | Positive, _ -> reject "%s has non-positive %S" what c.key
  | Holds why, _ -> reject "%s: %s" what why);
  x

let int_of c row =
  match Json.member c.key row with Some (Json.Int n) -> n | _ -> 0

let str_of c row =
  match Json.member c.key row with Some (Json.Str s) -> s | _ -> ""

(* ------------------------------------------------------------------ *)
(* Sections. *)

type 'r section = {
  name : string;
  rows_key : string;
  cols : 'r col list;
  verdict : 'r list col option;  (* leads the section, trails history *)
  figures : 'r list col list;
  check : Json.t -> Json.t list -> unit;  (* the section, its rows *)
  rows : 'r list ref;  (* filled by the experiment that ran *)
}

type any = Any : 'r section -> any

let sweeps = "sweeps"
let runs = "runs"

let section ?verdict ?(figures = []) ?(check = fun _ _ -> ()) name rows_key
    cols =
  { name; rows_key; cols; verdict; figures; check; rows = ref [] }

let row_json cols r = Json.Obj (List.map (fun c -> (c.key, c.get r)) cols)

(* The array [k] of object [v], empty when absent. *)
let items k v =
  Option.value ~default:[] (Option.bind (Json.member k v) Json.as_arr)

(* The value of column [c] at the row with the most [nodes] (the first
   such row). *)
let at_largest nodes c =
  nonempty (fun rows ->
      let big =
        List.fold_left
          (fun best r ->
            if num (nodes.get r) > num (nodes.get best) then r else best)
          (List.hd rows) rows
      in
      c.get big)

(* E7: one sweep point, semi-naive with the index layer on vs. off (the
   pre-index nested-loop engine: full scans, source-order bodies). *)
type sweep_row = {
  sw_prog : string;
  sw_topo : string;
  sw_n : int;  (* parameter: ring size or grid side *)
  sw_nodes : int;
  sw_tuples : int;  (* fixpoint database size *)
  sw_rounds : int;
  sw_idx_ms : float;
  sw_base_ms : float;
  sw_hits : int;  (* indexed run: joins answered from an index *)
  sw_scans : int;  (* indexed run: joins that still scanned *)
  sw_enum_idx : int;  (* tuples enumerated, indexed run *)
  sw_enum_base : int;  (* tuples enumerated, baseline run *)
  sw_same : bool;  (* identical fixpoint, rounds, convergence *)
}

let e7 =
  let nodes = nodes (fun r -> r.sw_nodes) in
  let speedup =
    speedup (fun r -> r.sw_base_ms /. Float.max 1e-6 r.sw_idx_ms)
  in
  section "e7" sweeps
    [
      program (fun r -> r.sw_prog);
      topology
        ~show:(fun r -> Fmt.str "%s %d" r.sw_topo r.sw_n)
        (fun r -> r.sw_topo);
      size (fun r -> r.sw_n);
      nodes;
      tuples ~fmt:"%d" (fun r -> r.sw_tuples);
      int ~fmt:"%d" "rounds" (fun r -> r.sw_rounds);
      float ~head:"indexed" ~fmt:"%.1f ms" "indexed_ms" (fun r -> r.sw_idx_ms);
      float ~head:"baseline" ~fmt:"%.1f ms" "baseline_ms" (fun r ->
          r.sw_base_ms);
      speedup;
      int ~head:"idx/scan joins"
        ~show:(fun r -> Fmt.str "%d/%d" r.sw_hits r.sw_scans)
        "index_hits" (fun r -> r.sw_hits);
      int "scans" (fun r -> r.sw_scans);
      int ~head:"enum idx/base"
        ~show:(fun r -> Fmt.str "%d/%d" r.sw_enum_idx r.sw_enum_base)
        "enumerated_indexed" (fun r -> r.sw_enum_idx);
      int "enumerated_baseline" (fun r -> r.sw_enum_base);
      same_fixpoint (fun r -> r.sw_same);
    ]
    ~figures:
      [
        figure ~history:true Float "largest_topology_speedup"
          (at_largest nodes speedup);
      ]

(* E13: incremental view refresh vs. from-scratch in the distributed
   runtime, on identical insertion schedules. *)
type incr_row = {
  iv_prog : string;
  iv_topo : string;
  iv_n : int;
  iv_nodes : int;
  iv_tuples : int;  (* global fixpoint database size *)
  iv_msgs : int;  (* messages sent, all stages (identical in all runs) *)
  iv_incr_ms : float;  (* incremental, one instant per run *)
  iv_scratch_ms : float;  (* from-scratch, one instant per run *)
  iv_walks : int;  (* refresh walks of the stepped incremental run *)
  iv_on_demand_ms : float;  (* incremental, one run per stage *)
  iv_on_demand_walks : int;  (* its refresh walks: one per stage *)
  iv_skipped : int;  (* incremental run: untouched strata skipped *)
  iv_refolded : int;  (* incremental run: aggregate strata re-folded *)
  iv_fallbacks : int;  (* incremental run: from-scratch fallbacks *)
  iv_enum_incr : int;  (* view-path tuples enumerated, incremental *)
  iv_enum_scratch : int;  (* view-path tuples enumerated, from-scratch *)
  iv_same : bool;  (* identical global fixpoint, stores, messages *)
}

let iv_enum_saved r =
  if r.iv_enum_scratch = 0 then 0.0
  else
    100.
    *. float_of_int (r.iv_enum_scratch - r.iv_enum_incr)
    /. float_of_int r.iv_enum_scratch

let e13 =
  let topology =
    topology
      ~show:(fun r -> Fmt.str "%s %d" r.iv_topo r.iv_n)
      (fun r -> r.iv_topo)
  in
  let size = size (fun r -> r.iv_n) in
  let skipped =
    int ~head:"skipped" ~fmt:"%d" "strata_skipped" (fun r -> r.iv_skipped)
  in
  let reduced =
    bool "enum_reduced" (fun r -> r.iv_enum_incr < r.iv_enum_scratch)
  in
  let same = same_fixpoint (fun r -> r.iv_same) in
  let cols =
    [
      program (fun r -> r.iv_prog);
      topology;
      size;
      nodes (fun r -> r.iv_nodes);
      tuples ~fmt:"%d" (fun r -> r.iv_tuples);
      messages (fun r -> r.iv_msgs);
      float ~head:"incr" ~fmt:"%.1f ms" "incremental_ms" (fun r ->
          r.iv_incr_ms);
      float ~head:"scratch" ~fmt:"%.1f ms" "scratch_ms" (fun r ->
          r.iv_scratch_ms);
      speedup (fun r -> r.iv_scratch_ms /. Float.max 1e-6 r.iv_incr_ms);
      int ~req:Positive ~head:"walks" ~fmt:"%d" "walks" (fun r -> r.iv_walks);
      float ~head:"on demand" ~fmt:"%.1f ms" "on_demand_ms" (fun r ->
          r.iv_on_demand_ms);
      int ~req:Positive ~head:"od walks" ~fmt:"%d" "on_demand_walks"
        (fun r -> r.iv_on_demand_walks);
      skipped;
      int ~head:"refolded" ~fmt:"%d" "strata_refolded" (fun r ->
          r.iv_refolded);
      int ~head:"fallbacks" ~fmt:"%d" "refresh_fallbacks" (fun r ->
          r.iv_fallbacks);
      int ~head:"enum incr/scratch"
        ~show:(fun r -> Fmt.str "%d/%d" r.iv_enum_incr r.iv_enum_scratch)
        "enumerated_incremental" (fun r -> r.iv_enum_incr);
      int "enumerated_scratch" (fun r -> r.iv_enum_scratch);
      float ~head:"enum saved" ~fmt:"%.0f%%" "enum_saved_pct" iv_enum_saved;
      reduced;
      same;
    ]
  in
  section "e13" sweeps cols ~verdict:(all_of same)
    ~figures:
      [
        figure ~history:true Int "total_strata_skipped"
          (nonempty (fun rows ->
               Json.Int
                 (List.fold_left (fun acc r -> acc + r.iv_skipped) 0 rows)));
        figure Float "max_enum_saved_pct"
          (nonempty (fun rows ->
               Json.Float
                 (List.fold_left
                    (fun acc r -> Float.max acc (iv_enum_saved r))
                    0.0 rows)));
      ]
    (* Ring rows at n >= 8 must also record skipped strata and a strict
       view-path enumeration reduction. *)
    ~check:(fun _ rows ->
        List.iteri
          (fun i row ->
            if str_of topology row = "ring" && int_of size row >= 8 then begin
              if int_of skipped row <= 0 then
                reject "e13 row %d skipped no strata" i;
              if Json.member reduced.key row <> Some (Json.Bool true) then
                reject "e13 row %d lost the view enumeration reduction" i
            end)
          rows)

(* E14: one repetition of sustained churn. *)
type churn_row = {
  ch_nodes : int;
  ch_events : int;  (* events driven, including warmup *)
  ch_measured : int;  (* events in the measurement window *)
  ch_inserts : int;  (* store insertions during the window *)
  ch_wall_s : float;  (* wall clock of the window *)
  ch_tuples_per_sec : float;  (* window insertions / window wall *)
  ch_events_per_sec : float;
  ch_p50_us : float;  (* per-event latency percentiles over the window *)
  ch_p99_us : float;
  ch_max_us : float;
  ch_live_words : int;  (* Gc live words after the run (post full major) *)
  ch_heap_words : int;  (* Gc.quick_stat heap words *)
  ch_interned : int;  (* intern table population at end of run *)
  ch_msgs : int;  (* simulator messages sent, summed over every run report *)
  ch_tuples : int;  (* live global store size at cut-off *)
  ch_refresh_s : float;  (* wall spent in view-refresh walks (window) *)
  ch_refresh_walks : int;  (* refresh walks in the window *)
}

(* Share of the measurement window spent in view-refresh walks. *)
let churn_refresh_share r = r.ch_refresh_s /. Float.max 1e-9 r.ch_wall_s

module Churn = struct
  let nodes = nodes ~rep:Agreed (fun r -> r.ch_nodes)
  let events = int ~fmt:"%d" ~rep:Agreed "events" (fun r -> r.ch_events)

  let tuples_per_sec =
    float ~req:Positive ~head:"tuples/s" ~fmt:"%.0f"
      ~rep:(Median (fun r x -> { r with ch_tuples_per_sec = x }))
      "tuples_per_sec" (fun r -> r.ch_tuples_per_sec)

  let p50 =
    float ~head:"p50" ~fmt:"%.0f us"
      ~rep:(Median (fun r x -> { r with ch_p50_us = x }))
      "p50_us" (fun r -> r.ch_p50_us)

  let p99 =
    float ~req:Positive ~head:"p99" ~fmt:"%.0f us"
      ~rep:(Median (fun r x -> { r with ch_p99_us = x }))
      "p99_us" (fun r -> r.ch_p99_us)

  let live_words =
    int ~req:Positive ~head:"live heap"
      ~show:(fun r -> Fmt.str "%dk words" (r.ch_live_words / 1000))
      ~rep:(Median (fun r x -> { r with ch_live_words = int_of_float x }))
      "live_words" (fun r -> r.ch_live_words)

  let messages = messages ~rep:Agreed (fun r -> r.ch_msgs)

  let refresh_s =
    float ~req:Positive
      ~rep:(Median (fun r x -> { r with ch_refresh_s = x }))
      "refresh_s" (fun r -> r.ch_refresh_s)

  let share =
    float ~head:"refresh"
      ~show:(fun r -> Fmt.str "%.0f%%" (100.0 *. churn_refresh_share r))
      "refresh_share" churn_refresh_share

  let cols =
    [
      nodes;
      events;
      int ~rep:Agreed "measured_events" (fun r -> r.ch_measured);
      inserts ~rep:Agreed (fun r -> r.ch_inserts);
      wall_s ~fmt:"%.1f s"
        ~rep:(Median (fun r x -> { r with ch_wall_s = x }))
        (fun r -> r.ch_wall_s);
      tuples_per_sec;
      float ~head:"events/s" ~fmt:"%.0f"
        ~rep:(Median (fun r x -> { r with ch_events_per_sec = x }))
        "events_per_sec" (fun r -> r.ch_events_per_sec);
      p50;
      p99;
      float ~head:"max" ~fmt:"%.0f us"
        ~rep:(Median (fun r x -> { r with ch_max_us = x }))
        "max_us" (fun r -> r.ch_max_us);
      live_words;
      int
        ~rep:(Median (fun r x -> { r with ch_heap_words = int_of_float x }))
        "heap_words" (fun r -> r.ch_heap_words);
      int ~head:"interned" ~fmt:"%d" "interned_values" (fun r ->
          r.ch_interned);
      messages;
      tuples ~req:Positive ~rep:Agreed (fun r -> r.ch_tuples);
      refresh_s;
      int ~req:Positive "refresh_walks" (fun r -> r.ch_refresh_walks);
      share;
    ]

  (* Column-wise median across repetitions: [Median] columns take the
     median, which a single outlier repetition cannot move; the rest
     come from the first row ([Agreed] ones are checked identical
     across repetitions, by the run itself and by [check]). *)
  let median rows =
    let med c =
      let a = Array.of_list (List.map (fun r -> num (c.get r)) rows) in
      Array.sort Stdlib.compare a;
      a.(Array.length a / 2)
    in
    List.fold_left
      (fun acc c -> match c.rep with Median set -> set acc (med c) | _ -> acc)
      (List.hd rows) cols

  (* A headline, positive by requirement: column [c] of the median
     row. *)
  let headline ?history c =
    figure ~req:Positive ?history c.kind c.key
      (nonempty (fun rows -> c.get (median rows)))

  let repetitions =
    figure Int "repetitions" (fun rows -> Json.Int (List.length rows))

  (* The refresh share is a proper fraction of the measurement window:
     strictly positive (the workload refreshes every node repeatedly)
     and strictly below the whole wall. *)
  let check_share what v =
    let x = num (value what share v) in
    if not (x > 0.0 && x < 1.0) then
      reject "e14 %s %S %g not in (0, 1)" what share.key x

  let check section rows =
    List.iteri (fun i row -> check_share (Fmt.str "run %d" i) row) rows;
    let first = List.hd rows in
    List.iteri
      (fun i row ->
        List.iter
          (fun c ->
            match c.rep with
            | Agreed when Json.member c.key row <> Json.member c.key first ->
              reject "e14 run %d disagrees with run 0 on %S" i c.key
            | _ -> ())
          cols)
      rows;
    if value "summary" repetitions section <> Json.Int (List.length rows) then
      reject "e14 repetitions does not match its runs";
    check_share "summary" section
end

let churn_median = Churn.median

let e14 =
  let open Churn in
  section "e14" runs cols ~check
    ~figures:
      [
        headline nodes;
        headline events;
        repetitions;
        headline ~history:true tuples_per_sec;
        headline p50;
        headline ~history:true p99;
        headline ~history:true live_words;
        headline refresh_s;
        headline ~history:true share;
        headline messages;
      ]

(* E15: the per-operation price of each representation choice, in
   nanoseconds.  The figures and [check] name these operations. *)
type xlate_row = { xl_op : string; xl_ns : float }

let op_id_equal = "id tuple equal"
let op_boxed_equal = "boxed tuple equal"
let op_to_ids = "translate boxed->ids (tuple_ids)"
let op_cons_4 = "cons onto interned path (length 4)"
let op_cons_32 = "cons onto interned path (length 32)"

let e15 =
  let op = str ~head:"operation" ~fmt:"%s" "op" (fun r -> r.xl_op) in
  (* [num] over [den], the ratio of two operations' costs. *)
  let ratio num den rows =
    let ns o = List.find_opt (fun r -> r.xl_op = o) rows in
    match (ns num, ns den) with
    | Some a, Some b when b.xl_ns > 0.0 -> Json.Float (a.xl_ns /. b.xl_ns)
    | _ -> Json.Null
  in
  section "e15" "ops"
    [
      op;
      float ~req:Positive ~head:"ns/op" ~fmt:"%.1f" "ns_per_op" (fun r ->
          r.xl_ns);
    ]
    ~figures:
      [
        figure ~req:Positive ~history:true Float "probe_speedup"
          (ratio op_boxed_equal op_id_equal);
        figure Float "translation_overhead_vs_boxed_probe"
          (ratio op_to_ids op_boxed_equal);
      ]
    (* The path builtins' cost on ids: consing onto an interned path of
       length 4 and of length 32 (flat in length) must both be
       priced. *)
    ~check:(fun _ rows ->
        List.iter
          (fun name ->
            if not (List.exists (fun row -> str_of op row = name) rows) then
              reject "e15 lacks the %S row" name)
          [ op_cons_4; op_cons_32 ])

(* E16: the socket transport against the simulator backend, one row per
   ring size. *)
type mproc_row = {
  mp_nodes : int;  (* ring size = worker process count *)
  mp_wall_s : float;  (* fork to detected quiescence, wall clock *)
  mp_sim_wall_s : float;  (* the simulator backend on the same input *)
  mp_frames : int;  (* cross-process data frames *)
  mp_bytes : int;  (* their wire bytes, length prefixes included *)
  mp_inserts : int;  (* tuple insertions summed over workers *)
  mp_polls : int;  (* confirmation poll waves until convergence *)
  mp_sim_msgs : int;  (* messages the simulator shipped *)
  mp_same : bool;  (* per-node fixpoints equal across backends *)
}

let e16 =
  let nodes = nodes ~head:"ring n" ~fmt:"%d" (fun r -> r.mp_nodes) in
  let processes =
    int ~head:"procs" ~fmt:"%d" "processes" (fun r -> r.mp_nodes)
  in
  let wall = wall_s ~req:Positive ~fmt:"%.3f s" (fun r -> r.mp_wall_s) in
  let bytes =
    int ~req:Positive ~head:"wire bytes" ~fmt:"%d" "data_bytes" (fun r ->
        r.mp_bytes)
  in
  let same = same_fixpoint (fun r -> r.mp_same) in
  section "e16" runs
    [
      nodes;
      processes;
      wall;
      float ~req:Positive ~head:"sim wall" ~fmt:"%.3f s" "sim_wall_s"
        (fun r -> r.mp_sim_wall_s);
      int ~req:Positive ~head:"frames" ~fmt:"%d" "data_frames" (fun r ->
          r.mp_frames);
      bytes;
      inserts (fun r -> r.mp_inserts);
      int ~req:Positive ~fmt:"%d" "polls" (fun r -> r.mp_polls);
      int "sim_messages" (fun r -> r.mp_sim_msgs);
      same;
    ]
    ~verdict:
      (all_of ~req:(Holds "fixpoints diverge from the simulator")
         ~history:true same)
    ~figures:
      [
        figure ~history:true Int "largest_processes"
          (at_largest nodes processes);
        figure ~history:true Float "largest_wall_s" (at_largest nodes wall);
        figure Int "largest_data_bytes" (at_largest nodes bytes);
      ]
    ~check:(fun _ rows ->
        List.iteri
          (fun i row ->
            if int_of processes row <> int_of nodes row then
              reject "e16 run %d is not one process per node" i)
          rows)

(* E17: the model checker's reduction layer, one row per (system,
   program, topology, mode), mode one of plain, por, sym or both. *)
type red_row = {
  rd_system : string;  (* "ndlog" or "soft" *)
  rd_prog : string;
  rd_topo : string;
  rd_mode : string;
  rd_states : int;  (* 0 for verdict-only rows (diverging plain space) *)
  rd_transitions : int;
  rd_truncated : bool;
  rd_wall_s : float;
  rd_verdict : string;  (* "ok" | "violation" | "truncated" *)
  rd_trace_len : int;  (* counterexample length, 0 when none *)
}

let e17 =
  let system = str ~fmt:"%s" "system" (fun r -> r.rd_system) in
  let program = program (fun r -> r.rd_prog) in
  let topology = topology ~fmt:"%s" (fun r -> r.rd_topo) in
  let mode = str ~fmt:"%s" "mode" (fun r -> r.rd_mode) in
  let states =
    int
      ~show:(fun r ->
        if r.rd_states = 0 then "-"
        else if r.rd_truncated then Fmt.str ">=%d" r.rd_states
        else string_of_int r.rd_states)
      "states" (fun r -> r.rd_states)
  in
  let truncated = bool "truncated" (fun r -> r.rd_truncated) in
  let verdict =
    str
      ~show:(fun r ->
        if r.rd_verdict = "violation" then
          Fmt.str "violation (%d steps)" r.rd_trace_len
        else r.rd_verdict)
      "verdict" (fun r -> r.rd_verdict)
  in
  let trace_len = int "trace_len" (fun r -> r.rd_trace_len) in
  let wall = wall_s ~fmt:"%.3f s" (fun r -> r.rd_wall_s) in
  let cols =
    [
      system;
      program;
      topology;
      mode;
      states;
      int "transitions" (fun r -> r.rd_transitions);
      truncated;
      wall;
      verdict;
      trace_len;
    ]
  in
  let cell row =
    (str_of system row, str_of program row, str_of topology row)
  in
  (* The first cell whose completed modes reach different verdicts. *)
  let disagreement rows =
    List.find_opt
      (fun key ->
        match
          List.filter_map
            (fun row ->
              match str_of verdict row with
              | "truncated" -> None
              | v -> if cell row = key then Some v else None)
            rows
        with
        | [] -> false
        | v :: rest -> not (List.for_all (String.equal v) rest))
      (List.sort_uniq compare (List.map cell rows))
  in
  (* Each reduced row that visited states, paired with its cell's
     completed plain baseline. *)
  let plain row = str_of mode row = "plain" in
  let baselines rows =
    List.concat_map
      (fun r ->
        if plain r || int_of states r = 0 then []
        else
          List.filter
            (fun p ->
              plain p && cell p = cell r
              && Json.member truncated.key p = Some (Json.Bool false))
            rows
          |> List.map (fun p -> (r, p)))
      rows
  in
  (* The checker's unreduced speed: total states over total wall time
     across the completed plain rows. *)
  let plain_states_per_s rows =
    let states, wall =
      List.fold_left
        (fun (n, w) row ->
          if
            plain row
            && Json.member truncated.key row = Some (Json.Bool false)
            && int_of states row > 0
          then
            ( n + int_of states row,
              w
              +. num
                   (Option.value ~default:Json.Null (Json.member wall.key row))
            )
          else (n, w))
        (0, 0.) rows
    in
    if states = 0 || wall <= 0. then 0. else float_of_int states /. wall
  in
  let states_per_s =
    figure ~req:Positive ~history:true Float "plain_states_per_s" (fun rows ->
        Json.Float (plain_states_per_s (List.map (row_json cols) rows)))
  in
  (* Headline reduction: the best plain/both visited-state ratio. *)
  let best_reduction rows =
    List.fold_left
      (fun acc (r, p) ->
        if str_of mode r <> "both" || int_of states p = 0 then acc
        else
          Float.max acc
            (float_of_int (int_of states p) /. float_of_int (int_of states r)))
      0.
      (baselines (List.map (row_json cols) rows))
  in
  section "e17" runs cols
    ~verdict:
      (figure ~req:(Holds "verdicts diverge across reduction modes")
         ~history:true Bool "all_verdicts_agree"
         (nonempty (fun rows ->
              Json.Bool (disagreement (List.map (row_json cols) rows) = None))))
    ~figures:
      [
        figure ~history:true Float "best_reduction_x" (fun rows ->
            match best_reduction rows with 0. -> Json.Null | x -> Json.Float x);
        states_per_s;
      ]
    (* Every run names a known mode and verdict, a violation carries its
       counterexample, the completed modes of each cell agree, and at
       least one cell shows a reduced mode strictly below a completed
       plain baseline: losing every reduction would make the layer
       decorative.  The plain states-per-second figure must be the one
       its rows give. *)
    ~check:(fun section rows ->
        List.iteri
          (fun i row ->
            (match str_of mode row with
            | "plain" | "por" | "sym" | "both" -> ()
            | m -> reject "e17 run %d has unknown mode %S" i m);
            match str_of verdict row with
            | "ok" | "truncated" -> ()
            | "violation" ->
              if int_of trace_len row <= 0 then
                reject "e17 run %d: violation without a counterexample" i
            | v -> reject "e17 run %d has unknown verdict %S" i v)
          rows;
        (match disagreement rows with
        | Some (s, p, t) -> reject "e17 cell %s/%s/%s verdicts disagree" s p t
        | None -> ());
        if
          not
            (List.exists
               (fun (r, p) -> int_of states p > int_of states r)
               (baselines rows))
        then
          reject "e17 records no strict reduction over a completed plain run";
        let recorded =
          num
            (Option.value ~default:Json.Null
               (Json.member states_per_s.key section))
        and rate = plain_states_per_s rows in
        if Float.abs (recorded -. rate) > 1e-6 *. rate then
          reject "e17 %s %g disagrees with its rows (%g)" states_per_s.key
            recorded rate)

(* ------------------------------------------------------------------ *)
(* The document. *)

let sections = [ Any e7; Any e13; Any e14; Any e15; Any e16; Any e17 ]

type meta = { quick : bool; host_cores : int; unix_time : int }

let unix_time = int "unix_time" (fun m -> m.unix_time)

let flags =
  [ bool "quick" (fun m -> m.quick); int "host_cores" (fun m -> m.host_cores) ]

let schema = ("schema", 14)
let history = "history"
let field m c = (c.key, c.get m)

(* The table of a section's rows: the headers and cells of its shown
   columns. *)
let cells s rows =
  let shown = List.filter_map (fun c -> c.cell) s.cols in
  ( List.map fst shown,
    List.map (fun r -> List.map (fun (_, f) -> f r) shown) rows )

let section_json (Any s) =
  let rows = !(s.rows) in
  let figures = Option.to_list s.verdict @ s.figures in
  ( s.name,
    Json.Obj
      (List.map (field rows) figures
      @ [ (s.rows_key, Json.Arr (List.map (row_json s.cols) rows)) ]) )

(* What a history entry keeps of a section: its row count and the
   figures flagged [history], its verdict last. *)
let history_fields (Any s) =
  let rows = !(s.rows) in
  (s.name ^ "_rows", Json.Int (List.length rows))
  :: List.filter_map
       (fun c ->
         if c.history then Some (s.name ^ "_" ^ c.key, c.get rows) else None)
       (s.figures @ Option.to_list s.verdict)

let ran (Any s) = !(s.rows) <> []

(* The ledger of this run over the previous one, [prior].  A section
   that ran writes its rows; one that did not is carried forward from
   [prior] as it stands, so a partial sweep replaces only what it ran.
   [prior]'s history is carried too, and this run's entry appended,
   holding the figures of the sections that ran.  [Error names] when a
   section that did not run has nothing to carry forward. *)
let document meta ~prior =
  let carried (Any s) = Option.bind prior (Json.member s.name) in
  match
    List.filter_map
      (fun (Any s as a) ->
        if ran a || carried a <> None then None else Some s.name)
      sections
  with
  | _ :: _ as missing -> Error missing
  | [] ->
    let section (Any s as a) =
      if ran a then section_json a else (s.name, Option.get (carried a))
    in
    let entry =
      Json.Obj
        (field meta unix_time
         :: List.map (field meta) flags
        @ List.concat_map history_fields (List.filter ran sections))
    in
    let prior_history = Option.fold ~none:[] ~some:(items history) prior in
    Ok
      (Json.Obj
         (((fst schema, Json.Int (snd schema))
          :: List.map (field meta) (flags @ [ unix_time ]))
         @ List.map section sections
         @ [ (history, Json.Arr (prior_history @ [ entry ])) ]))

(* ------------------------------------------------------------------ *)
(* Validation. *)

let check_section v (Any s) =
  let section =
    match Json.member s.name v with
    | Some x -> x
    | None -> reject "missing top-level %S" s.name
  in
  let rows =
    match items s.rows_key section with
    | [] -> reject "empty or missing %s %s" s.name s.rows_key
    | rows -> rows
  in
  List.iteri
    (fun i row ->
      let what = Fmt.str "%s %s row %d" s.name s.rows_key i in
      List.iter (fun c -> ignore (value what c row)) s.cols)
    rows;
  List.iter
    (fun c -> ignore (value ~null:true s.name c section))
    (Option.to_list s.verdict @ s.figures);
  s.check section rows

let check v =
  try
    if Json.member (fst schema) v <> Some (Json.Int (snd schema)) then
      reject "missing %s=%d" (fst schema) (snd schema);
    List.iter (fun c -> ignore (value "ledger" c v)) (flags @ [ unix_time ]);
    List.iter (check_section v) sections;
    if items history v = [] then reject "empty or missing history";
    List.iteri
      (fun i e ->
        let what = Fmt.str "history entry %d" i in
        List.iter (fun c -> ignore (value what c e)) (unix_time :: flags))
      (items history v);
    Ok ()
  with Reject m -> Error m

(* "5 e7 rows, 3 e14 runs, …, 1 history entries" for a checked ledger. *)
let counts v =
  let len k o = List.length (items k o) in
  String.concat ", "
    (List.map
       (fun (Any s) ->
         Fmt.str "%d %s %s"
           (len s.rows_key (Option.get (Json.member s.name v)))
           s.name
           (if s.rows_key = sweeps then "rows" else s.rows_key))
       sections
    @ [ Fmt.str "%d history entries" (len history v) ])
