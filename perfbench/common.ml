(* What every workload shares: set-up timing, the measurement window,
   output checks, and the metric tables. *)

let now = Trace.now
let ns_to_s ns = float_of_int ns /. 1e9

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

(* A run's outcome, filled in by the workload as it goes. *)
type run = {
  tracer : Trace.t;
  traced : bool;  (** a --trace 1 run *)
  mutable attempted : int;
  mutable failed : int;
  mutable setups_s : float list;
  mutable later_setups : int * (unit -> unit);
      (** set-ups still to time during the window, and how *)
  mutable untraced_ns : int list;  (** per-op latency, tracing off *)
  mutable traced_ns : int list;  (** per-op latency, tracing on *)
  mutable live_words : int;
  mutable named : (string * float * string) list;
      (** workload-specific figures printed for people, newest first *)
}

let create_run ~traced =
  {
    tracer = Trace.create ();
    traced;
    attempted = 0;
    failed = 0;
    setups_s = [];
    later_setups = (0, ignore);
    untraced_ns = [];
    traced_ns = [];
    live_words = 0;
    named = [];
  }

let note r name value unit = r.named <- (name, value, unit) :: r.named

(* An output check.  A wrong output is a failed operation, is reported
   on stderr, and makes the run exit non-zero. *)
let check r what ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: wrong output: %s\n%!" what
  end

let span r name f = Trace.span r.tracer name f
let count r name v = Trace.count r.tracer name v
let tracing r = r.tracer.Trace.on

(* Time one set-up, from source text to a runnable system.  A traced
   run traces it. *)
let timed_setup r f =
  let t0 = now () in
  let sys =
    if r.traced then Trace.window r.tracer (fun () -> span r "bench.setup" f)
    else f ()
  in
  r.setups_s <- ns_to_s (now () - t0) :: r.setups_s;
  sys

(* Time [k] set-ups: one now, whose system is returned, and [k - 1]
   spread evenly over the measurement window by [measure], whose
   systems are dropped.  Spread out, the set-ups sample the whole run
   rather than one stretch of it. *)
let setups r ~k f =
  r.later_setups <- (k - 1, fun () -> ignore (timed_setup r f));
  timed_setup r f

(* One operation under the tracer: the operation's root span, its GC
   counters, and the GC pauses that ended inside it. *)
let traced_op r i op =
  let tr = r.tracer in
  tr.Trace.req <- i;
  Trace.Gc_pause.poll ~collect:false;
  let g0 = Gc.quick_stat () in
  let ns = span r "bench.op" (fun () -> op i) in
  let g1 = Gc.quick_stat () in
  Trace.Gc_pause.poll ~collect:true;
  let d f = float_of_int (f g1 - f g0) and df f = f g1 -. f g0 in
  count r "ops" 1.0;
  count r "gc.minor_collections" (d (fun g -> g.Gc.minor_collections));
  count r "gc.major_collections" (d (fun g -> g.Gc.major_collections));
  count r "gc.minor_words" (df (fun g -> g.Gc.minor_words));
  count r "gc.promoted_words" (df (fun g -> g.Gc.promoted_words));
  ns

(* Run [op 0], [op 1], ... for [seconds] of wall time after [warmup]
   unmeasured operations, which leave caches filled; the live heap is
   sampled there, at a point of the workload that does not depend on
   how fast it ran.  Each [op i] returns its own latency in ns —
   the calls into the system only, so input generation and output
   checks stay out of the latency.  A traced run alternates blocks of
   [block] operations with tracing off and on: both latencies come from
   the same stretch of the workload, and their ratio is the tracing
   overhead.  The set-ups [setups] left for later run between blocks,
   outside every latency.  An exception fails the operation and ends
   the window. *)
let measure r ~seconds ~warmup ?(block = 1) op =
  let i = ref 0 in
  let guarded f =
    r.attempted <- r.attempted + 1;
    match f () with
    | ns -> Some ns
    | exception e ->
      r.failed <- r.failed + 1;
      Printf.eprintf "perfbench: operation %d failed: %s\n%!" !i
        (Printexc.to_string e);
      None
  in
  let ok = ref true in
  while !ok && !i < warmup do
    ok := guarded (fun () -> op !i) <> None;
    incr i
  done;
  Gc.full_major ();
  r.live_words <- (Gc.stat ()).Gc.live_words;
  let window_ns = int_of_float (seconds *. 1e9) in
  let start = now () in
  let deadline = start + window_ns in
  let later, setup = r.later_setups in
  let gap = max 1 (window_ns / (later + 1)) and set_up = ref 0 in
  let set_up_to n =
    while !set_up < min n later do
      setup ();
      incr set_up
    done
  in
  while !ok && now () < deadline do
    set_up_to ((now () - start) / gap);
    let traced = r.traced && (!i - warmup) / block land 1 = 1 in
    let run_block () =
      let j = ref 0 in
      while !ok && !j < block && now () < deadline do
        (match
           guarded (fun () -> if traced then traced_op r !i op else op !i)
         with
        | Some ns ->
          if traced then r.traced_ns <- ns :: r.traced_ns
          else r.untraced_ns <- ns :: r.untraced_ns
        | None -> ok := false);
        incr i;
        incr j
      done
    in
    if traced then Trace.window r.tracer run_block else run_block ()
  done;
  set_up_to later;
  !i

(* ------------------------------------------------------------------ *)
(* Metric tables.  The names and units are those of BENCHMARK.json. *)

(* Whole-window figures.  The host's slow phases last seconds and slow
   everything by up to half, so a run's median lands in whichever phase
   held most of it; the 2nd percentile of the operations and of the
   set-ups spread over the window is the speed outside those phases.
   The median and the throughput are printed for people. *)
let end_to_end r =
  let lat = sorted_of_list (List.map float_of_int r.untraced_ns) in
  note r "op_p50_us" (percentile lat 0.5 /. 1e3) "us";
  note r "ops_per_s"
    (float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e9))
    "1/s";
  [
    ("setup_s", percentile (sorted_of_list r.setups_s) 0.02, "s");
    ("op_p2_us", percentile lat 0.02 /. 1e3, "us");
    ("live_words", float_of_int r.live_words, "words");
  ]

(* Per-layer figures of a traced run.  Counts and times are per traced
   operation; the set-up layers' times are per call. *)
let per_layer r =
  let s = Trace.summary r.tracer in
  let self n = float_of_int (Trace.get s.Trace.self_ns n)
  and total n = float_of_int (Trace.get s.Trace.total_ns n)
  and calls n = float_of_int (Trace.get s.Trace.calls n)
  and c n = Trace.counted r.tracer n in
  let ops = Float.max 1.0 (c "ops") in
  let wall = Float.max 1.0 (float_of_int s.Trace.wall_ns) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let med l = if l = [] then nan else median (List.map float_of_int l) in
  let ms_per_call name span = (name, ratio (total span) (calls span) /. 1e6, "ms")
  and ms_per_op name span = (name, total span /. ops /. 1e6, "ms/op")
  and s_per_op name span = (name, total span /. ops /. 1e9, "s/op")
  and per_op ?(unit = "count/op") name = (name, c name /. ops, unit) in
  [
    ms_per_call "compile.parse_ms" "compile.parse";
    ms_per_call "compile.analyze_ms" "compile.analyze";
    ms_per_call "compile.localize_ms" "compile.localize";
    ms_per_call "compile.plan_ms" "compile.plan";
    ms_per_call "runtime.create_ms" "runtime.create";
    ms_per_call "runtime.load_facts_ms" "runtime.load_facts";
    ms_per_op "eval.seminaive_ms" "eval.seminaive";
    per_op "eval.rounds";
    per_op "eval.enumerated";
    per_op "eval.matched";
    ("eval.match_ratio", ratio (c "eval.matched") (c "eval.enumerated"), "ratio");
    per_op "eval.index_hits";
    per_op "eval.scans";
    s_per_op "runtime.insert_s" "runtime.insert";
    s_per_op "runtime.run_s" "runtime.run";
    ("runtime.other_s", self "runtime.run" /. ops /. 1e9, "s/op");
    per_op "runtime.inserts";
    per_op "wire.groups";
    per_op "wire.delta_tuples";
    ("wire.mean_group", ratio (c "wire.delta_tuples") (c "wire.groups"), "tuples");
    per_op "wire.enumerated";
    ("wire.match_ratio", ratio (c "wire.matched") (c "wire.enumerated"), "ratio");
    s_per_op "refresh.s" "refresh";
    ("refresh.share", total "refresh" /. wall, "ratio");
    per_op "refresh.walks";
    per_op "refresh.strata_skipped";
    per_op "refresh.fallbacks";
    per_op "refresh.enumerated";
    per_op "sim.events";
    per_op "sim.messages_sent";
    per_op "sim.messages_dropped";
    ms_per_call "logic.theory_ms" "logic.theory";
    ms_per_op "logic.prove_ms" "logic.prove";
    ms_per_op "logic.check_ms" "logic.check";
    per_op "logic.nodes_explored";
    per_op "logic.proof_steps";
    s_per_op "mc.explore_s" "mc.explore";
    s_per_op "mc.check_s" "mc.check";
    s_per_op "mc.validate_s" "mc.validate";
    per_op "mc.states";
    per_op "mc.transitions";
    ("mc.reduction_x", ratio (c "mc.plain_states") (c "mc.reduced_states"), "x");
    per_op ~unit:"s/op" "fleet.supervisor_s";
    ( "fleet.outer_overhead_ms",
      ((total "fleet.supervisor" /. 1e9) -. c "fleet.supervisor_s") /. ops *. 1e3,
      "ms/op" );
    per_op "fleet.polls";
    per_op "fleet.data_frames";
    ( "fleet.bytes_per_frame",
      ratio (c "fleet.wire_bytes") (c "fleet.data_frames"),
      "B" );
    per_op ~unit:"B/op" "fleet.wire_bytes";
    per_op "gc.minor_collections";
    per_op "gc.major_collections";
    per_op ~unit:"words/op" "gc.minor_words";
    per_op ~unit:"words/op" "gc.promoted_words";
    ("gc.pause_s", Trace.Gc_pause.seconds () /. ops, "s/op");
    ("trace.ops", c "ops", "count");
    ("trace.overhead", (med r.traced_ns /. med r.untraced_ns) -. 1.0, "ratio");
    ( "trace.unattributed_share",
      float_of_int s.Trace.unattributed_ns /. wall,
      "ratio" );
    ("trace.bench_share", self "bench.op" /. wall, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* The result line. *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r metrics =
  let correct =
    r.failed = 0 && r.attempted > 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then
        Printf.eprintf "perfbench: metric %s is not a number\n%!" n)
    metrics;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (json_number (if Float.is_finite v then v else 0.0))
          u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " fields);
  correct
