(* Smoke check for the benchmark ledger: BENCH_ndlog.json must parse
   as a schema-13 document carrying a non-empty E7 sweep (indexed vs.
   baseline timings), an E13 sweep (incremental view
   refresh vs. from-scratch recomputation, with skipped strata and
   view-path enumeration recorded per row), an E14 churn section — an
   absolute trajectory since schema 11 — (the repetitions of the
   sustained link/route churn workload, with identical final stores
   attested by matching insert, message and tuple counts, each run's
   refresh-cost breakdown, and the medians the history tracks:
   tuples/s, p50/p99 latency, live words and refresh share), an E15
   section
   (per-probe representation costs, every operation with a positive
   ns/op, both cons-onto-a-path rows present, and a positive id-probe
   speedup), an E16 section — new in schema 9 — (the socket transport:
   one run per ring size, each across one real OS process per node,
   with positive wall clock and wire traffic and the per-node
   fixpoints attested equal to the simulator backend's), an E17 section
   — new in schema 10 — (the model checker's reduction layer: one run
   per system/program/topology/mode with visited-state counts and the
   invariant verdict, verdict equality across each cell's completed
   modes, and at least one cell where a reduced mode strictly beats a
   completed plain baseline), and a
   run-history array.  Schema 12 dropped the E8 sharded sweep together
   with the sharded evaluator, and schema 13 the E11/E12 batching
   ablations together with the per-tuple and per-message paths they
   compared; history entries written before them still carry [e8_*],
   [e11_*] or [e12_*] fields and stay valid, since only the fields
   every entry has ever had are required.  Run by the @bench-smoke
   alias so a broken emitter (or a regression that stops a sweep from
   completing, a run diverging from its baseline fixpoint, or
   incrementality losing its enumeration win) fails the build
   loudly. *)

let fail fmt = Fmt.kstr (fun m -> prerr_endline m; exit 1) fmt

let require_fields path what i row keys =
  List.iter
    (fun k ->
      match Json.member k row with
      | Some _ -> ()
      | None -> fail "%s: %s row %d lacks %S" path what i k)
    keys

let require_same_fixpoint path what i row =
  match Json.member "same_fixpoint" row with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: %s row %d fixpoints diverge" path what i

let nonempty_sweeps path what section =
  match Option.bind (Json.member "sweeps" section) Json.as_arr with
  | Some (_ :: _ as s) -> s
  | _ -> fail "%s: empty or missing %s sweeps" path what

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_ndlog.json" in
  match Json.of_file path with
  | Error e -> fail "%s: does not parse: %s" path e
  | Ok v ->
    (match Json.member "schema" v with
    | Some (Json.Int 13) -> ()
    | _ -> fail "%s: missing schema=13" path);
    List.iter
      (fun k ->
        match Json.member k v with
        | Some _ -> ()
        | None -> fail "%s: missing top-level %S" path k)
      [
        "quick"; "host_cores"; "unix_time"; "e7"; "e13";
        "e14"; "e15"; "e16"; "e17"; "history";
      ];
    (* E7: index layer on vs. off. *)
    let e7 = Option.get (Json.member "e7" v) in
    let sweeps = nonempty_sweeps path "e7" e7 in
    List.iteri
      (fun i row ->
        require_fields path "e7" i row
          [
            "program"; "topology"; "n"; "tuples"; "indexed_ms"; "baseline_ms";
            "speedup"; "same_fixpoint";
          ];
        require_same_fixpoint path "e7" i row)
      sweeps;
    (* E13: incremental view refresh vs. from-scratch recomputation.
       Every row must record the identical fixpoint (which the bench
       itself asserts covers per-node stores and message counts); ring
       rows at n >= 8 must also record skipped strata and a strict
       view-path enumeration reduction. *)
    let e13 = Option.get (Json.member "e13" v) in
    let incr_sweeps = nonempty_sweeps path "e13" e13 in
    List.iteri
      (fun i row ->
        require_fields path "e13" i row
          [
            "program"; "topology"; "n"; "nodes"; "tuples"; "messages";
            "incremental_ms"; "scratch_ms"; "speedup"; "strata_skipped";
            "refresh_fallbacks"; "enumerated_incremental";
            "enumerated_scratch"; "enum_reduced"; "same_fixpoint";
          ];
        require_same_fixpoint path "e13" i row;
        let strict =
          match (Json.member "topology" row, Json.member "n" row) with
          | Some (Json.Str "ring"), Some (Json.Int n) -> n >= 8
          | _ -> false
        in
        if strict then begin
          (match Json.member "strata_skipped" row with
          | Some (Json.Int s) when s > 0 -> ()
          | _ -> fail "%s: e13 row %d skipped no strata" path i);
          match Json.member "enum_reduced" row with
          | Some (Json.Bool true) -> ()
          | _ ->
            fail "%s: e13 row %d lost the view enumeration reduction" path i
        end)
      incr_sweeps;
    (* E14: sustained churn, repetitions of one deterministic stream.
       The bench itself aborts if any repetition's final stores
       diverge; the ledger re-attests that by carrying identical insert,
       message and tuple counts per run, and the throughput / latency
       fields must be positive (a zero means the measurement window
       never ran). *)
    let e14 = Option.get (Json.member "e14" v) in
    let e14_runs =
      match Option.bind (Json.member "runs" e14) Json.as_arr with
      | Some (_ :: _ as r) -> r
      | _ -> fail "%s: empty or missing e14 runs" path
    in
    let churn_num what row k =
      match Json.member k row with
      | Some (Json.Float f) -> f
      | Some (Json.Int n) -> float_of_int n
      | _ -> fail "%s: e14 %s lacks numeric %S" path what k
    in
    (* The refresh share is a proper fraction of the measurement window:
       strictly positive (the churn workload refreshes every node
       repeatedly) and strictly below the whole wall. *)
    let check_share what row =
      let share = churn_num what row "refresh_share" in
      if not (share > 0.0 && share < 1.0) then
        fail "%s: e14 %s refresh_share %g not in (0, 1)" path what share
    in
    List.iteri
      (fun i row ->
        let what = Printf.sprintf "run %d" i in
        require_fields path "e14" i row
          [
            "nodes"; "events"; "measured_events"; "inserts"; "wall_s";
            "tuples_per_sec"; "events_per_sec"; "p50_us"; "p99_us"; "max_us";
            "live_words"; "heap_words"; "interned_values"; "messages";
            "tuples"; "refresh_s"; "refresh_walks"; "refresh_share";
          ];
        List.iter
          (fun k ->
            if churn_num what row k <= 0.0 then
              fail "%s: e14 run %d has non-positive %S" path i k)
          [
            "inserts"; "tuples_per_sec"; "p99_us"; "live_words"; "messages";
            "tuples"; "refresh_s"; "refresh_walks";
          ];
        check_share what row)
      e14_runs;
    let first = List.hd e14_runs in
    List.iteri
      (fun i row ->
        List.iter
          (fun k ->
            if churn_num "run" row k <> churn_num "run" first k then
              fail "%s: e14 run %d disagrees with run 0 on %S" path i k)
          [ "nodes"; "events"; "measured_events"; "inserts"; "messages"; "tuples" ])
      e14_runs;
    (match Json.member "repetitions" e14 with
    | Some (Json.Int r) when r = List.length e14_runs -> ()
    | _ -> fail "%s: e14 repetitions does not match its runs" path);
    List.iter
      (fun k ->
        if churn_num "summary" e14 k <= 0.0 then
          fail "%s: e14 lacks a positive %S" path k)
      [
        "nodes"; "events"; "tuples_per_sec"; "p50_us"; "p99_us"; "live_words";
        "refresh_s"; "messages";
      ];
    check_share "summary" e14;
    (* E15: per-probe representation costs.  Every op must carry a
       positive ns/op, and the headline id-probe speedup must be a
       positive ratio. *)
    let e15 = Option.get (Json.member "e15" v) in
    let e15_ops =
      match Option.bind (Json.member "ops" e15) Json.as_arr with
      | Some (_ :: _ as l) -> l
      | _ -> fail "%s: empty or missing e15 ops" path
    in
    List.iteri
      (fun i row ->
        (match Json.member "op" row with
        | Some (Json.Str _) -> ()
        | _ -> fail "%s: e15 op %d lacks a name" path i);
        match Json.member "ns_per_op" row with
        | Some (Json.Float f) when f > 0.0 -> ()
        | _ -> fail "%s: e15 op %d has non-positive ns_per_op" path i)
      e15_ops;
    (* The path builtins' cost on ids: consing onto an interned path of
       length 4 and of length 32 (flat in length) must both be priced. *)
    List.iter
      (fun name ->
        if
          not
            (List.exists
               (fun row -> Json.member "op" row = Some (Json.Str name))
               e15_ops)
        then fail "%s: e15 lacks the %S row" path name)
      [
        "cons onto interned path (length 4)";
        "cons onto interned path (length 32)";
      ];
    (match Json.member "probe_speedup" e15 with
    | Some (Json.Float s) when s > 0.0 -> ()
    | _ -> fail "%s: e15 lacks a positive probe_speedup" path);
    (* E16 (schema 9): the socket transport across real OS processes.
       Every run must carry positive wall clock and wire traffic, one
       process per node, and the fixpoint-equality attestation against
       the simulator backend. *)
    let e16 = Option.get (Json.member "e16" v) in
    let e16_runs =
      match Option.bind (Json.member "runs" e16) Json.as_arr with
      | Some (_ :: _ as r) -> r
      | _ -> fail "%s: empty or missing e16 runs" path
    in
    let mp_num row k =
      match Json.member k row with
      | Some (Json.Float f) -> f
      | Some (Json.Int n) -> float_of_int n
      | _ -> fail "%s: e16 run lacks numeric %S" path k
    in
    List.iteri
      (fun i row ->
        require_fields path "e16" i row
          [
            "nodes"; "processes"; "wall_s"; "sim_wall_s"; "data_frames";
            "data_bytes"; "inserts"; "polls"; "sim_messages";
            "same_fixpoint";
          ];
        List.iter
          (fun k ->
            if mp_num row k <= 0.0 then
              fail "%s: e16 run %d has non-positive %S" path i k)
          [
            "wall_s"; "sim_wall_s"; "data_frames"; "data_bytes"; "inserts";
            "polls";
          ];
        if mp_num row "processes" <> mp_num row "nodes" then
          fail "%s: e16 run %d is not one process per node" path i;
        require_same_fixpoint path "e16" i row)
      e16_runs;
    (match Json.member "all_same_fixpoint" e16 with
    | Some (Json.Bool true) -> ()
    | _ -> fail "%s: e16 fixpoints diverge from the simulator" path);
    (* E17 (schema 10): the model checker's reduction layer.  Every run
       names its mode and verdict; within each (system, program,
       topology) cell the completed modes must agree on the verdict,
       and at least one cell must show a reduced mode strictly below a
       completed plain baseline — losing every reduction would make
       the layer decorative. *)
    let e17 = Option.get (Json.member "e17" v) in
    let e17_runs =
      match Option.bind (Json.member "runs" e17) Json.as_arr with
      | Some (_ :: _ as r) -> r
      | _ -> fail "%s: empty or missing e17 runs" path
    in
    let rd_str row k =
      match Json.member k row with
      | Some (Json.Str s) -> s
      | _ -> fail "%s: e17 run lacks string %S" path k
    in
    let rd_int row k =
      match Json.member k row with
      | Some (Json.Int n) -> n
      | _ -> fail "%s: e17 run lacks integer %S" path k
    in
    List.iteri
      (fun i row ->
        require_fields path "e17" i row
          [
            "system"; "program"; "topology"; "mode"; "states"; "transitions";
            "truncated"; "wall_s"; "verdict"; "trace_len";
          ];
        (match rd_str row "mode" with
        | "plain" | "por" | "sym" | "both" -> ()
        | m -> fail "%s: e17 run %d has unknown mode %S" path i m);
        match rd_str row "verdict" with
        | "ok" | "truncated" -> ()
        | "violation" ->
          if rd_int row "trace_len" <= 0 then
            fail "%s: e17 run %d: violation without a counterexample" path i
        | s -> fail "%s: e17 run %d has unknown verdict %S" path i s)
      e17_runs;
    let e17_key row =
      (rd_str row "system", rd_str row "program", rd_str row "topology")
    in
    let e17_keys = List.sort_uniq compare (List.map e17_key e17_runs) in
    List.iter
      (fun key ->
        let verdicts =
          List.filter_map
            (fun row ->
              if e17_key row = key then
                match rd_str row "verdict" with
                | "truncated" -> None
                | s -> Some s
              else None)
            e17_runs
        in
        match verdicts with
        | [] -> ()
        | v :: rest ->
          if not (List.for_all (String.equal v) rest) then
            let s, p, t = key in
            fail "%s: e17 cell %s/%s/%s verdicts disagree" path s p t)
      e17_keys;
    let e17_reduced =
      List.exists
        (fun row ->
          rd_str row "mode" <> "plain"
          && rd_int row "states" > 0
          && List.exists
               (fun p ->
                 e17_key p = e17_key row
                 && rd_str p "mode" = "plain"
                 && Json.member "truncated" p = Some (Json.Bool false)
                 && rd_int p "states" > rd_int row "states")
               e17_runs)
        e17_runs
    in
    if not e17_reduced then
      fail "%s: e17 records no strict reduction over a completed plain run"
        path;
    (match Json.member "all_verdicts_agree" e17 with
    | Some (Json.Bool true) -> ()
    | _ -> fail "%s: e17 verdicts diverge across reduction modes" path);
    (* History: at least the run that wrote this file. *)
    let history =
      match Option.bind (Json.member "history" v) Json.as_arr with
      | Some (_ :: _ as h) -> h
      | _ -> fail "%s: empty or missing history" path
    in
    List.iteri
      (fun i entry ->
        require_fields path "history" i entry
          [ "unix_time"; "quick"; "host_cores" ])
      history;
    Fmt.pr
      "%s: ok (%d e7 rows, %d e13 rows, %d e14 runs, %d e15 ops, %d e16 \
       runs, %d e17 runs, %d history entries)@."
      path (List.length sweeps) (List.length incr_sweeps) (List.length e14_runs)
      (List.length e15_ops) (List.length e16_runs) (List.length e17_runs)
      (List.length history)
