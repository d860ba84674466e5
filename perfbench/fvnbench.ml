(* The FVN benchmark: one workload per process.

     fvnbench --workload churn|converge|verify|fleet --seed N
              --seconds S --trace 0|1

   With --trace 0 the last line of standard output is the result with
   every end-to-end metric; with --trace 1 it carries every per-layer
   metric instead, from spans the benchmark records around its calls
   into each layer.  Workload-specific figures are printed above it,
   one "workload: name = value unit" line each.  Any wrong output makes
   the run report correct=false and exit 1. *)

let workloads =
  [
    ("churn", Churn.run);
    ("converge", Converge.run);
    ("verify", Verify.run);
    ("fleet", Fleet.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " churn, converge, verify or fleet");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measurement window");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fvnbench --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("fvnbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "fvnbench: --trace takes 0 or 1";
    exit 2
  end;
  Trace.self_test ();
  let traced = !trace = 1 in
  let r = Common.create_run ~traced in
  (* The runtime's event ring is per process and a forked worker would
     inherit it, so the fleet reads no GC pauses. *)
  if traced && !workload <> "fleet" then Trace.Gc_pause.start ();
  run r ~seed:!seed ~seconds:!seconds;
  let metrics = if traced then Common.per_layer r else Common.end_to_end r in
  List.iter
    (fun (n, v, u) -> Printf.printf "%s: %s = %.6g %s\n" !workload n v u)
    (List.rev_append r.Common.named metrics);
  if not (Common.print_result r metrics) then exit 1
