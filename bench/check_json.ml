(* Validate a benchmark ledger against the format [Ledger] states:
   schema 14, every section's rows with each column's key, kind and
   requirement, each section's figures and own checks, and a non-empty
   history.  Run by the @bench-smoke alias on a fresh quick ledger, so
   a broken emitter, a sweep that stops completing, a run diverging
   from its baseline fixpoint or incrementality losing its enumeration
   win fails the build loudly, and by [dune runtest] on the committed
   ledger.

     check_json.exe [BENCH_ndlog.json] *)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_ndlog.json"
  in
  match Json.of_file path with
  | Error e ->
    prerr_endline (Fmt.str "%s: does not parse: %s" path e);
    exit 1
  | Ok v -> (
    match Ledger.check v with
    | Error e ->
      prerr_endline (Fmt.str "%s: %s" path e);
      exit 1
    | Ok () -> Fmt.pr "%s: ok (%s)@." path (Ledger.counts v))
