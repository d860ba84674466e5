(* Tests for the discrete-event network simulator substrate. *)

module Eq = Netsim.Event_queue
module Topo = Netsim.Topology
module Sim = Netsim.Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Event queue. *)

(* The earliest event with its time, as the simulator reads it. *)
let pop q =
  if Eq.is_empty q then None
  else
    let t = Eq.next_time q in
    Some (t, Eq.take q)

let test_queue_order () =
  let q = Eq.create () in
  Eq.push q ~time:3.0 "c";
  Eq.push q ~time:1.0 "a";
  Eq.push q ~time:2.0 "b";
  let pop () = Option.get (pop q) in
  let t1, v1 = pop () in
  let t2, v2 = pop () in
  let t3, v3 = pop () in
  checkf "t1" 1.0 t1;
  checkf "t2" 2.0 t2;
  checkf "t3" 3.0 t3;
  Alcotest.(check string) "v1" "a" v1;
  Alcotest.(check string) "v2" "b" v2;
  Alcotest.(check string) "v3" "c" v3;
  checkb "empty" true (Eq.is_empty q)

let test_queue_fifo_ties () =
  let q = Eq.create () in
  for i = 0 to 9 do
    Eq.push q ~time:5.0 i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_queue_interleaved () =
  let q = Eq.create () in
  Eq.push q ~time:1.0 1;
  Eq.push q ~time:3.0 3;
  let _ = pop q in
  Eq.push q ~time:2.0 2;
  checki "size" 2 (Eq.length q);
  let _, a = Option.get (pop q) in
  let _, b = Option.get (pop q) in
  checki "a" 2 a;
  checki "b" 3 b

(* ------------------------------------------------------------------ *)
(* Event queue vs. a sorted-list reference model.

   The queue is the determinism keystone for both runtime backends (the
   virtual-clock simulator orders deliveries with it; the socket
   backend orders timers with it), so its contract — (time,
   insertion-order) priority, [next_time] as the taken event's time,
   [take] refusing an empty queue, [size] through interleaved
   push/pop/clear, tie-sequence reset on clear —
   is checked against an executable model: a list of
   [(time, tie, payload)] kept sorted by [(time, tie)], with the tie
   counter mirroring the queue's insertion sequence. *)

type model_op =
  | Push of float
  | Push_after of float  (* at the last taken event's time plus a delay *)
  | Revisit of float * float  (* t1, t2, then t1 again *)
  | Burst of float list  (* many pushes back to back *)
  | Pop
  | Clear

(* Coarse times force plenty of exact ties; time 0 comes as [0.0] or
   [-0.0], which the queue treats as one instant. *)
let time_gen =
  QCheck.Gen.(
    map2
      (fun t neg -> if t = 0 && neg then -0.0 else float_of_int t)
      (int_bound 8) bool)

let model_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Push t) time_gen);
        (* A delay of 0 pushes into the instant still draining, as a
           simulator's zero-delay flush does. *)
        (4, map (fun d -> Push_after d) (oneofl [ 0.0; 0.0; 0.5; 1.0; 2.0 ]));
        (1, map2 (fun a b -> Revisit (a, b)) time_gen time_gen);
        (* Deeper than 2,000 events: a few stretches of one time each,
           up to 1,500 events long, as a simulator's instants are. *)
        ( 1,
          frequency
            [
              (9, return []);
              (1, list_size (int_range 2 4) (pair (int_range 500 1500) time_gen));
            ]
          >|= fun segs ->
          Burst (List.concat_map (fun (n, t) -> List.init n (fun _ -> t)) segs)
        );
        (5, return Pop);
        (1, return Clear);
      ])

let pp_model_op = function
  | Push t -> Printf.sprintf "Push %g" t
  | Push_after d -> Printf.sprintf "Push_after %g" d
  | Revisit (a, b) -> Printf.sprintf "Revisit (%g, %g)" a b
  | Burst ts -> Printf.sprintf "Burst <%d>" (List.length ts)
  | Pop -> "Pop"
  | Clear -> "Clear"

let model_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_model_op ops))
    QCheck.Gen.(list_size (int_range 0 120) model_op_gen)

let prop_queue_matches_model ops =
  let q = Eq.create () in
  (* Model: a list of [(time, tie, payload)] sorted by (time, tie);
     [tie] mirrors the queue's insertion sequence, resetting on clear
     exactly as the queue's does.  A push sorts in after every entry of
     an equal or earlier time (every queued tie is smaller), and a burst
     merges in whole. *)
  let model = ref [] in
  let tie = ref 0 in
  let next_payload = ref 0 in
  let now = ref 0.0 in
  let entries times =
    List.map
      (fun t ->
        let e = (t, !tie, !next_payload) in
        Eq.push q ~time:t !next_payload;
        incr tie;
        incr next_payload;
        e)
      times
  in
  let rec merge a b =
    match a, b with
    | [], l | l, [] -> l
    | ((ta, _, _) as x) :: a', ((tb, _, _) as y) :: b' ->
      if tb < ta then y :: merge a b' else x :: merge a' b
  in
  let push_all times =
    let es = entries times in
    model :=
      merge !model
        (List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) es)
  in
  List.iter
    (fun op ->
      (match op with
      | Push t -> push_all [ t ]
      | Push_after d -> push_all [ !now +. d ]
      | Revisit (a, b) ->
        push_all [ a ];
        push_all [ b ];
        push_all [ a ]
      | Burst ts -> push_all ts
      | Pop -> (
        match (pop q, !model) with
        | None, [] ->
          if Eq.next_time q <> infinity then
            QCheck.Test.fail_report "next_time on empty queue";
          (match Eq.take q with
          | _ -> QCheck.Test.fail_report "take on empty queue"
          | exception Invalid_argument _ -> ())
        | Some (t, v), (mt, _, mv) :: rest ->
          model := rest;
          now := t;
          if t <> mt || v <> mv then
            QCheck.Test.fail_reportf "pop (%g, %d) but model says (%g, %d)" t v
              mt mv
        | Some _, [] -> QCheck.Test.fail_report "queue popped, model empty"
        | None, _ :: _ -> QCheck.Test.fail_report "queue empty, model not")
      | Clear ->
        Eq.clear q;
        model := [];
        tie := 0);
      if Eq.length q <> List.length !model then
        QCheck.Test.fail_reportf "size %d <> model %d" (Eq.length q)
          (List.length !model);
      if Eq.is_empty q <> (!model = []) then
        QCheck.Test.fail_report "is_empty disagrees with model")
    ops;
  true

let queue_model_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"queue = sorted-list model"
       model_ops_arb prop_queue_matches_model)

let test_queue_clear_resets_ties () =
  (* The documented invariant: clear resets the insertion sequence, so
     tie-breaking after a clear is FIFO among the new pushes alone. *)
  let q = Eq.create () in
  for i = 0 to 4 do
    Eq.push q ~time:1.0 i
  done;
  Eq.clear q;
  checki "cleared" 0 (Eq.length q);
  checkb "empty" true (Eq.is_empty q);
  for i = 10 to 14 do
    Eq.push q ~time:1.0 i
  done;
  let order = List.init 5 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list int))
    "fifo ties after clear" [ 10; 11; 12; 13; 14 ] order

(* ------------------------------------------------------------------ *)
(* Topology. *)

let test_topology_basics () =
  let t = Topo.ring 4 in
  checki "4 nodes" 4 (List.length (Topo.nodes t));
  checki "8 directed links" 8 (List.length (Topo.links t));
  checkb "n0->n1 up" true (Topo.link_up t "n0" "n1");
  Topo.fail_duplex t "n0" "n1";
  checkb "n0->n1 down" false (Topo.link_up t "n0" "n1");
  checkb "n1->n0 down" false (Topo.link_up t "n1" "n0");
  checkb "n1->n2 unaffected" true (Topo.link_up t "n1" "n2");
  Topo.restore_duplex t "n0" "n1";
  checkb "restored" true (Topo.link_up t "n0" "n1")

let test_topology_neighbors () =
  let t = Topo.star 5 in
  checki "hub degree" 4 (List.length (Topo.neighbors t "n0"));
  checki "leaf degree" 1 (List.length (Topo.neighbors t "n3"));
  Topo.fail_duplex t "n0" "n3";
  checki "hub degree after failure" 3 (List.length (Topo.neighbors t "n0"))

let test_topology_random_connected () =
  (* Every random topology must be connected (spanning-tree based). *)
  List.iter
    (fun seed ->
      let t = Topo.random ~seed ~extra:2 8 in
      let visited = Hashtbl.create 8 in
      let rec dfs n =
        if not (Hashtbl.mem visited n) then begin
          Hashtbl.add visited n ();
          List.iter dfs (Topo.neighbors t n)
        end
      in
      dfs "n0";
      checki
        (Printf.sprintf "connected (seed %d)" seed)
        8 (Hashtbl.length visited))
    [ 1; 2; 3; 17; 99 ]

(* ------------------------------------------------------------------ *)
(* Simulator. *)

let test_sim_delivery () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  let received = ref [] in
  Sim.set_handler sim "n1" (fun _ ~self:_ ~src msg ->
      received := (src, msg) :: !received);
  Sim.schedule sim ~delay:0.0 (fun () ->
      ignore (Sim.send sim ~src:"n0" ~dst:"n1" "hello"));
  let stats = Sim.run sim in
  checkb "quiesced" true stats.Sim.quiesced;
  checki "delivered" 1 stats.Sim.messages_delivered;
  (match !received with
  | [ ("n0", "hello") ] -> ()
  | _ -> Alcotest.fail "wrong delivery");
  (* link delay advanced the clock *)
  checkf "time = delay" 1.0 stats.Sim.final_time

let test_sim_drop_on_down_link () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  Sim.set_handler sim "n1" (fun _ ~self:_ ~src:_ _ -> Alcotest.fail "should not deliver");
  Topo.fail_duplex topo "n0" "n1";
  Sim.schedule sim ~delay:0.0 (fun () ->
      checkb "send fails" false (Sim.send sim ~src:"n0" ~dst:"n1" "x"));
  let stats = Sim.run sim in
  checki "dropped" 1 stats.Sim.messages_dropped;
  checki "delivered" 0 stats.Sim.messages_delivered

let test_sim_no_link_no_delivery () =
  let topo = Topo.line 3 in
  let sim = Sim.create topo in
  Sim.schedule sim ~delay:0.0 (fun () ->
      checkb "no direct n0->n2 link" false (Sim.send sim ~src:"n0" ~dst:"n2" "x"));
  ignore (Sim.run sim)

let test_sim_timers_and_order () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "timer order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_horizon () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  let fired = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr fired);
  Sim.schedule sim ~delay:100.0 (fun () -> incr fired);
  let stats = Sim.run ~until:10.0 sim in
  checki "only one fired" 1 !fired;
  checkb "not quiesced (horizon)" false stats.Sim.quiesced

let test_sim_event_budget () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  (* A self-perpetuating event chain never quiesces; the budget stops it. *)
  let rec tick () = Sim.schedule sim ~delay:1.0 tick in
  Sim.schedule sim ~delay:0.0 tick;
  let stats = Sim.run ~max_events:100 sim in
  checkb "budget hit" false stats.Sim.quiesced;
  checki "events bounded" 100 stats.Sim.events

let test_sim_failure_injection () =
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  let results = ref [] in
  Sim.fail_link_at sim ~time:5.0 "n0" "n1";
  Sim.restore_link_at sim ~time:10.0 "n0" "n1";
  let probe t =
    Sim.at sim ~time:t (fun () ->
        results := (t, Topo.link_up topo "n0" "n1") :: !results)
  in
  probe 4.0;
  probe 6.0;
  probe 11.0;
  ignore (Sim.run sim);
  let sorted = List.sort compare !results in
  Alcotest.(check (list (pair (float 0.01) bool)))
    "link state over time"
    [ (4.0, true); (6.0, false); (11.0, true) ]
    sorted

let test_sim_lossy_link () =
  let topo = Topo.create () in
  Topo.add_link ~loss:0.5 topo "n0" "n1";
  Topo.add_link topo "n1" "n0";
  let sim = Sim.create ~seed:5 topo in
  let received = ref 0 in
  Sim.set_handler sim "n1" (fun _ ~self:_ ~src:_ _ -> incr received);
  Sim.schedule sim ~delay:0.0 (fun () ->
      for _ = 1 to 200 do
        ignore (Sim.send sim ~src:"n0" ~dst:"n1" ())
      done);
  let stats = Sim.run sim in
  checkb "some delivered" true (!received > 50);
  checkb "some lost" true (stats.Sim.messages_dropped > 50);
  checki "conservation" 200
    (stats.Sim.messages_delivered + stats.Sim.messages_dropped)

let test_sim_loss_deterministic () =
  (* Same seed, same losses. *)
  let run_once () =
    let topo = Topo.create () in
    Topo.add_link ~loss:0.3 topo "n0" "n1";
    let sim = Sim.create ~seed:11 topo in
    Sim.set_handler sim "n1" (fun _ ~self:_ ~src:_ _ -> ());
    Sim.schedule sim ~delay:0.0 (fun () ->
        for _ = 1 to 100 do
          ignore (Sim.send sim ~src:"n0" ~dst:"n1" ())
        done);
    (Sim.run sim).Sim.messages_dropped
  in
  checki "same drops" (run_once ()) (run_once ())

let test_sim_per_run_stats () =
  (* Regression (PR 9): all four counters in [run]'s stats are per-run.
     [events] always was, but the three message counters used to report
     simulation-lifetime totals, so a second [run] on the same sim saw
     the first run's traffic again. *)
  let topo = Topo.line 2 in
  let sim = Sim.create topo in
  Sim.set_handler sim "n1" (fun _ ~self:_ ~src:_ _ -> ());
  let burst n =
    Sim.schedule sim ~delay:0.0 (fun () ->
        for _ = 1 to n do
          ignore (Sim.send sim ~src:"n0" ~dst:"n1" ());
          ignore (Sim.send sim ~src:"n0" ~dst:"n2" ())  (* no link: drop *)
        done)
  in
  (* [sent] counts every attempt, including ones that drop. *)
  burst 3;
  let s1 = Sim.run sim in
  checki "run1 sent" 6 s1.Sim.messages_sent;
  checki "run1 delivered" 3 s1.Sim.messages_delivered;
  checki "run1 dropped" 3 s1.Sim.messages_dropped;
  checkb "run1 events counted" true (s1.Sim.events > 0);
  burst 2;
  let s2 = Sim.run sim in
  checki "run2 sent is per-run" 4 s2.Sim.messages_sent;
  checki "run2 delivered is per-run" 2 s2.Sim.messages_delivered;
  checki "run2 dropped is per-run" 2 s2.Sim.messages_dropped;
  (* An idle third run sees no traffic at all. *)
  let s3 = Sim.run sim in
  checki "idle run sent" 0 s3.Sim.messages_sent;
  checki "idle run delivered" 0 s3.Sim.messages_delivered;
  checki "idle run dropped" 0 s3.Sim.messages_dropped;
  checki "idle run events" 0 s3.Sim.events

let test_sim_determinism () =
  (* Two identical simulations produce identical traces. *)
  let run_once () =
    let topo = Topo.ring 4 in
    let sim = Sim.create ~seed:7 topo in
    Sim.set_tracing sim true;
    List.iter
      (fun n ->
        Sim.set_handler sim n (fun sim ~self ~src:_ msg ->
            if msg < 3 then
              List.iter
                (fun nb -> ignore (Sim.send sim ~src:self ~dst:nb (msg + 1)))
                (Topo.neighbors (Sim.topology sim) self)))
      (Topo.nodes topo);
    Sim.schedule sim ~delay:0.0 (fun () ->
        ignore (Sim.send sim ~src:"n0" ~dst:"n1" 0));
    let stats = Sim.run sim in
    (stats.Sim.messages_delivered, stats.Sim.final_time)
  in
  let a = run_once () and b = run_once () in
  checkb "identical outcomes" true (a = b)

let () =
  Alcotest.run "netsim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
          Alcotest.test_case "clear resets ties" `Quick
            test_queue_clear_resets_ties;
          queue_model_test;
        ] );
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "neighbors" `Quick test_topology_neighbors;
          Alcotest.test_case "random connected" `Quick
            test_topology_random_connected;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delivery" `Quick test_sim_delivery;
          Alcotest.test_case "drop on down link" `Quick
            test_sim_drop_on_down_link;
          Alcotest.test_case "no link no delivery" `Quick
            test_sim_no_link_no_delivery;
          Alcotest.test_case "timer order" `Quick test_sim_timers_and_order;
          Alcotest.test_case "horizon" `Quick test_sim_horizon;
          Alcotest.test_case "event budget" `Quick test_sim_event_budget;
          Alcotest.test_case "failure injection" `Quick
            test_sim_failure_injection;
          Alcotest.test_case "lossy link" `Quick test_sim_lossy_link;
          Alcotest.test_case "loss determinism" `Quick
            test_sim_loss_deterministic;
          Alcotest.test_case "per-run stats" `Quick test_sim_per_run_stats;
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
        ] );
    ]
