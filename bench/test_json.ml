(* Unit tests for the ledger.  The JSON layer's one property that bit
   us in practice: [Json.to_string] must emit floats that reparse to
   the exact same float, and re-emitting the parsed tree must reproduce
   the same text (a fixpoint), or every ledger regeneration perturbs
   the carried history rows.  Then [Ledger.check] must accept the
   ledger named on the command line and reject every broken copy of
   it listed in [rejections].

     test_json.exe BENCH_ndlog.json *)

let fail fmt = Fmt.kstr (fun m -> prerr_endline m; exit 1) fmt

let reparse s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> fail "reparse failed: %s (input %S)" e s

(* emit -> parse must preserve the float bit-exactly, and a second
   emit must be textually identical to the first. *)
let roundtrip f =
  let s1 = Json.to_string (Json.Float f) in
  (match reparse s1 with
  | Json.Float f'
    when Int64.equal (Int64.bits_of_float f') (Int64.bits_of_float f) ->
    ()
  | Json.Float f' -> fail "float %h reparsed as %h (text %S)" f f' s1
  | _ -> fail "float %h reparsed as a non-float (text %S)" f s1);
  let s2 = Json.to_string (reparse s1) in
  if s1 <> s2 then fail "float %h not an emit fixpoint: %S then %S" f s1 s2

let () =
  List.iter roundtrip
    [
      0.0;
      1.0;
      -1.5;
      (* The p99 that exposed the bug: six significant digits lose the
         tail, so a fixed %.6g emitter perturbed it on every rewrite. *)
      433.10972437525304;
      (* Needs all 17 digits. *)
      0.1 +. 0.2;
      1.0 /. 3.0;
      (* Tiny / huge magnitudes exercise the exponent path. *)
      1e-300;
      1.7976931348623157e308;
      2.2250738585072014e-308;
      (* Throughput- and latency-shaped values from real runs. *)
      26009.4217;
      77.125;
      1.0937284561230412;
    ];
  (* Whole-document fixpoint: a ledger-shaped tree must survive
     emit -> parse -> emit unchanged. *)
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 6);
        ("speedup", Json.Float (26009.4217 /. 23883.991));
        ( "runs",
          Json.Arr
            [
              Json.Obj
                [
                  ("mode", Json.Str "interned");
                  ("p99_us", Json.Float 433.10972437525304);
                  ("ok", Json.Bool true);
                  ("note", Json.Str "quotes \" and \\ and\nnewlines");
                  ("nothing", Json.Null);
                ];
            ] );
      ]
  in
  let s1 = Json.to_string doc in
  let s2 = Json.to_string (reparse s1) in
  if s1 <> s2 then fail "document not an emit fixpoint:\n%s\nvs\n%s" s1 s2;
  print_endline "json round-trip: ok"

(* ------------------------------------------------------------------ *)
(* Ledger.check: the committed ledger is accepted, and each of the
   smallest edits below is rejected at the requirement it names. *)

type step = K of string | Each of (int -> Json.t -> bool)

let nth i = Each (fun j _ -> j = i)
let where p = Each (fun _ x -> p x)
let is k v row = Json.member k row = Some v

(* Apply [f] at [path]; [f] returning [None] deletes the member or the
   array element. *)
let rec edit path f v =
  match (path, v) with
  | [], _ -> Option.get (f v)
  | K k :: rest, Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k', x) ->
           if k' <> k then Some (k', x)
           else if rest = [] then Option.map (fun y -> (k', y)) (f x)
           else Some (k', edit rest f x))
         kvs)
  | Each p :: rest, Json.Arr xs ->
    Json.Arr
      (List.concat
         (List.mapi
            (fun i x ->
              if not (p i x) then [ x ]
              else if rest = [] then Option.to_list (f x)
              else [ edit rest f x ])
            xs))
  | _ -> fail "test path does not fit the ledger"

let set path v = edit path (fun _ -> Some v)
let drop path = edit path (fun _ -> None)

let ring8 row =
  is "topology" (Json.Str "ring") row
  && match Json.member "n" row with Some (Json.Int n) -> n >= 8 | _ -> false

let dv_por row =
  is "program" (Json.Str "dv-unbounded") row && is "mode" (Json.Str "por") row

(* (what the edit breaks, a fragment of the rejection, the edit) *)
let rejections =
  let sweep s i k = [ K s; K "sweeps"; nth i; K k ] in
  let run s i k = [ K s; K "runs"; nth i; K k ] in
  let e13 p k = [ K "e13"; K "sweeps"; where p; K k ] in
  let e17 p k = [ K "e17"; K "runs"; where p; K k ] in
  let messages =
    edit (run "e14" 1 "messages") (function
      | Json.Int m -> Some (Json.Int (m + 1))
      | _ -> None)
  in
  let processes =
    edit [ K "e16"; K "runs"; nth 0 ] (fun row ->
        match Json.member "nodes" row with
        | Some (Json.Int n) ->
          Some (set [ K "processes" ] (Json.Int (n + 1)) row)
        | _ -> None)
  in
  let cons_32 = "cons onto interned path (length 32)" in
  let plain = is "mode" (Json.Str "plain") in
  [
    ("schema", "schema=14", set [ K "schema" ] (Json.Int 13));
    ("top-level key", "host_cores", drop [ K "host_cores" ]);
    ("e7 row key", "speedup", drop (sweep "e7" 0 "speedup"));
    ( "e7 fixpoint", "fixpoint",
      set (sweep "e7" 0 "same_fixpoint") (Json.Bool false) );
    ("e7 sweeps", "e7 sweeps", set [ K "e7"; K "sweeps" ] (Json.Arr []));
    ("e13 row key", "enum_reduced", drop (sweep "e13" 2 "enum_reduced"));
    ("e13 on-demand key", "on_demand_ms", drop (sweep "e13" 1 "on_demand_ms"));
    ( "e13 walks positive", "non-positive",
      set (sweep "e13" 0 "on_demand_walks") (Json.Int 0) );
    ( "e13 fixpoint", "fixpoint",
      set (sweep "e13" 0 "same_fixpoint") (Json.Bool false) );
    ( "e13 strict skipped", "skipped no strata",
      set (e13 ring8 "strata_skipped") (Json.Int 0) );
    ( "e13 strict enumeration", "enumeration reduction",
      set (e13 ring8 "enum_reduced") (Json.Bool false) );
    ("e14 runs", "e14 runs", set [ K "e14"; K "runs" ] (Json.Arr []));
    ("e14 run key", "heap_words", drop (run "e14" 0 "heap_words"));
    ("e14 numeric", "inserts", set (run "e14" 0 "inserts") (Json.Str "many"));
    ( "e14 run share", "refresh_share",
      set (run "e14" 0 "refresh_share") (Json.Float 1.5) );
    ( "e14 run positive", "non-positive",
      set (run "e14" 0 "tuples_per_sec") (Json.Float 0.0) );
    ("e14 agreement", "disagrees with run 0", messages);
    ( "e14 repetitions", "repetitions",
      set [ K "e14"; K "repetitions" ] (Json.Int 2) );
    ( "e14 summary positive", "p50_us",
      set [ K "e14"; K "p50_us" ] (Json.Float 0.0) );
    ( "e14 summary share", "refresh_share",
      set [ K "e14"; K "refresh_share" ] (Json.Float 0.0) );
    ("e15 ops", "e15 ops", set [ K "e15"; K "ops" ] (Json.Arr []));
    ("e15 op name", "op", set [ K "e15"; K "ops"; nth 0; K "op" ] (Json.Int 1));
    ( "e15 ns/op", "ns_per_op",
      set [ K "e15"; K "ops"; nth 0; K "ns_per_op" ] (Json.Float (-1.0)) );
    ( "e15 cons row", cons_32,
      drop [ K "e15"; K "ops"; where (is "op" (Json.Str cons_32)) ] );
    ( "e15 probe speedup", "probe_speedup",
      set [ K "e15"; K "probe_speedup" ] Json.Null );
    ("e16 runs", "e16 runs", set [ K "e16"; K "runs" ] (Json.Arr []));
    ("e16 run key", "sim_messages", drop (run "e16" 0 "sim_messages"));
    ( "e16 numeric", "processes",
      set (run "e16" 0 "processes") (Json.Str "all") );
    ( "e16 run positive", "non-positive",
      set (run "e16" 0 "data_bytes") (Json.Int 0) );
    ("e16 one process per node", "one process per node", processes);
    ( "e16 fixpoint", "fixpoint",
      set (run "e16" 0 "same_fixpoint") (Json.Bool false) );
    ( "e16 all fixpoints", "simulator",
      set [ K "e16"; K "all_same_fixpoint" ] (Json.Bool false) );
    ("e17 runs", "e17 runs", set [ K "e17"; K "runs" ] (Json.Arr []));
    ("e17 run key", "transitions", drop (run "e17" 0 "transitions"));
    ("e17 string", "mode", set (run "e17" 0 "mode") (Json.Int 3));
    ("e17 integer", "trace_len", set (e17 dv_por "trace_len") (Json.Str "8"));
    ("e17 mode", "unknown mode", set (run "e17" 0 "mode") (Json.Str "fast"));
    ( "e17 counterexample", "without a counterexample",
      set (e17 dv_por "trace_len") (Json.Int 0) );
    ( "e17 verdict", "unknown verdict",
      set (run "e17" 0 "verdict") (Json.Str "maybe") );
    ( "e17 cell agreement", "verdicts disagree",
      set (e17 dv_por "verdict") (Json.Str "ok") );
    ( "e17 strict reduction", "no strict reduction",
      set (e17 plain "truncated") (Json.Bool true) );
    ( "e17 plain states per second", "disagrees with its rows",
      set [ K "e17"; K "plain_states_per_s" ] (Json.Float 1.0) );
    ( "e17 all verdicts", "verdicts diverge",
      set [ K "e17"; K "all_verdicts_agree" ] (Json.Bool false) );
    ("history", "history", set [ K "history" ] (Json.Arr []));
    ("history entry key", "quick", drop [ K "history"; nth 0; K "quick" ]);
    ("e7 kind", "speedup", set (sweep "e7" 0 "speedup") (Json.Str "fast"));
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_ledger path =
  let ledger =
    match Json.of_file path with
    | Ok v -> v
    | Error e -> fail "%s: does not parse: %s" path e
  in
  (match Ledger.check ledger with
  | Ok () -> ()
  | Error e -> fail "%s rejected: %s" path e);
  List.iter
    (fun (what, fragment, mutate) ->
      match Ledger.check (mutate ledger) with
      | Ok () -> fail "ledger check accepts a broken %s" what
      | Error e when contains e fragment -> ()
      | Error e -> fail "broken %s rejected for another reason: %s" what e)
    rejections;
  Fmt.pr "ledger check: ok (%d rejections)@." (List.length rejections)

(* [Ledger.document] with no section run: every section carried
   forward from the ledger, which then checks and gains one history
   entry; with no ledger to carry from, every section is named
   missing. *)
let check_carry path =
  let ledger = Result.get_ok (Json.of_file path) in
  let meta = { Ledger.quick = true; host_cores = 1; unix_time = 0 } in
  let entries v = List.length (Ledger.items Ledger.history v) in
  (match Ledger.document meta ~prior:(Some ledger) with
  | Error missing -> fail "nothing carried for %s" (String.concat ", " missing)
  | Ok doc -> (
    match Ledger.check doc with
    | Error e -> fail "carried ledger rejected: %s" e
    | Ok () ->
      if entries doc <> entries ledger + 1 then
        fail "carried ledger has %d history entries, not %d" (entries doc)
          (entries ledger + 1)));
  (match Ledger.document meta ~prior:None with
  | Ok _ -> fail "a ledger with no rows and nothing to carry was built"
  | Error missing ->
    let all = List.map (fun (Ledger.Any s) -> s.Ledger.name) Ledger.sections in
    if missing <> all then
      fail "missing sections %s, expected %s" (String.concat ", " missing)
        (String.concat ", " all));
  Fmt.pr "ledger carry: ok@."

let () =
  check_ledger Sys.argv.(1);
  check_carry Sys.argv.(1)
