(* fvnc: the FVN command-line driver.

   Subcommands mirror the framework's arcs (Figure 1 of the paper):

     fvnc check FILE        parse + static analysis (safety, stratification)
     fvnc run FILE          evaluate centrally, print derived relations
     fvnc dist FILE         localize + run distributed over the simulator
     fvnc localize FILE     print the localized rewrite
     fvnc spec FILE         print the logical specification (completion)
     fvnc prove FILE        verify built-in property classes
     fvnc softstate FILE    print the hard-state rewrite

   FILE is an NDlog source file; pass - for stdin. *)

open Cmdliner

let read_file path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let load path =
  match Ndlog.Parser.parse_program (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error e

let or_die = function
  | Ok v -> v
  | Error e ->
    Fmt.epr "fvnc: %s@." e;
    exit 1

(* Sort errors (a zero divisor, arithmetic on a string) are only found
   when a rule fires, so they surface from evaluation rather than from
   analysis: report them as errors naming the expected sort and the
   offending value. *)
let or_sort_error f =
  try f ()
  with Ndlog.Value.Type_error (sort, v) ->
    Fmt.epr "fvnc: sort error: expected %s, got %a@." sort Ndlog.Value.pp v;
    exit 1

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"NDlog source file ($(b,-) for stdin).")

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run path =
    let p = or_die (load path) in
    match Ndlog.Analysis.analyze p with
    | Error e ->
      Fmt.epr "fvnc: %a@." Ndlog.Analysis.pp_error e;
      exit 1
    | Ok info ->
      Fmt.pr "%d rules, %d facts, %d declarations@."
        (List.length p.Ndlog.Ast.rules)
        (List.length p.Ndlog.Ast.facts)
        (List.length p.Ndlog.Ast.decls);
      Fmt.pr "base relations:    %a@."
        Fmt.(list ~sep:(any ", ") string)
        info.Ndlog.Analysis.base_preds;
      Fmt.pr "derived relations: %a@."
        Fmt.(list ~sep:(any ", ") string)
        info.Ndlog.Analysis.derived_preds;
      List.iteri
        (fun i stratum ->
          Fmt.pr "stratum %d: %a@." i Fmt.(list ~sep:(any ", ") string) stratum)
        info.Ndlog.Analysis.strata;
      (match Ndlog.Localize.check_localized p with
      | Ok () -> Fmt.pr "localization: already localized@."
      | Error _ -> Fmt.pr "localization: rewrite required (see fvnc localize)@.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and statically analyze an NDlog program.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* run *)

let relation_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "r"; "relation" ] ~docv:"PRED"
        ~doc:"Only print this relation (repeatable; default: all derived).")

let max_rounds_arg =
  Arg.(
    value
    & opt int 10_000
    & info [ "max-rounds" ] ~docv:"N"
        ~doc:"Evaluation round bound (non-convergence is reported).")

let print_relations db preds =
  List.iter
    (fun pred ->
      let tuples = Ndlog.Store.tuples pred db in
      Fmt.pr "%s (%d tuples):@." pred (List.length tuples);
      List.iter (fun t -> Fmt.pr "  %s%a@." pred Ndlog.Store.Tuple.pp t) tuples)
    preds

let run_cmd =
  let run path relations max_rounds =
    let p = or_die (load path) in
    match or_sort_error (fun () -> Ndlog.Eval.run ~max_rounds p) with
    | Error e ->
      Fmt.epr "fvnc: %a@." Ndlog.Analysis.pp_error e;
      exit 1
    | Ok o ->
      Fmt.pr "converged=%b rounds=%d derivations=%d@." o.Ndlog.Eval.converged
        o.Ndlog.Eval.rounds o.Ndlog.Eval.derivations;
      let preds =
        if relations <> [] then relations
        else
          let info = Ndlog.Analysis.analyze_exn p in
          info.Ndlog.Analysis.derived_preds
      in
      print_relations o.Ndlog.Eval.db preds;
      if not o.Ndlog.Eval.converged then exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Evaluate an NDlog program with the centralized engine.")
    Term.(const run $ file_arg $ relation_arg $ max_rounds_arg)

(* ------------------------------------------------------------------ *)
(* dist *)

let dist_cmd =
  let run path relations =
    let p = or_die (load path) in
    match or_sort_error (fun () -> Fvn.Pipeline.execute_distributed p) with
    | Error e ->
      Fmt.epr "fvnc: %s@." e;
      exit 1
    | Ok (Fvn.Pipeline.Distributed { report; global; _ }) ->
      let s = report.Dist.Runtime.stats in
      Fmt.pr
        "quiesced=%b simulated_time=%.2f messages=%d dropped=%d inserts=%d@."
        s.Netsim.Sim.quiesced s.Netsim.Sim.final_time
        s.Netsim.Sim.messages_delivered s.Netsim.Sim.messages_dropped
        report.Dist.Runtime.total_inserts;
      let preds =
        if relations <> [] then relations
        else
          let info = Ndlog.Analysis.analyze_exn p in
          info.Ndlog.Analysis.derived_preds
      in
      print_relations global preds
    | Ok (Fvn.Pipeline.Central _) -> assert false
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Localize and run an NDlog program distributed over the network \
          simulator (topology derived from link facts).")
    Term.(const run $ file_arg $ relation_arg)

(* ------------------------------------------------------------------ *)
(* localize *)

let localize_cmd =
  let run path =
    let p = or_die (load path) in
    match Ndlog.Localize.rewrite_program p with
    | Error e ->
      Fmt.epr "fvnc: %a@." Ndlog.Localize.pp_error e;
      exit 1
    | Ok r ->
      List.iter
        (fun (pred, from_i, to_i) ->
          Fmt.pr "%% relocated %s from position %d to position %d@." pred
            from_i to_i)
        r.Ndlog.Localize.relocations;
      Fmt.pr "%a" Ndlog.Ast.pp_program r.Ndlog.Localize.program
  in
  Cmd.v
    (Cmd.info "localize"
       ~doc:"Rewrite a program so every rule body reads a single location.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* spec *)

let spec_cmd =
  let run path =
    let p = or_die (load path) in
    (match Ndlog.Analysis.analyze p with
    | Error e ->
      Fmt.epr "fvnc: %a@." Ndlog.Analysis.pp_error e;
      exit 1
    | Ok _ -> ());
    Fmt.pr "%a" Logic.Theory.pp (Logic.Completion.theory_of_program p)
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Compile a program into its logical specification (iff-completions \
          and aggregate axioms; arc 4 of the paper).")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* prove *)

let known_props =
  [
    ("route-optimality", fun () -> Fvn.Props.route_optimality ());
    ("aggregate-membership", fun () -> Fvn.Props.aggregate_membership ());
    ("one-hop-paths", fun () -> Fvn.Props.one_hop_paths ());
    ("aggregate-functional", fun () -> Fvn.Props.aggregate_functional ());
  ]

let prop_arg =
  Arg.(
    value
    & opt_all (enum (List.map (fun (n, f) -> (n, (n, f))) known_props)) []
    & info [ "p"; "property" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Property to verify (repeatable). One of: %s."
             (String.concat ", " (List.map fst known_props))))

let show_proof_arg =
  Arg.(value & flag & info [ "show-proof" ] ~doc:"Print the accepted proof tree.")

let goal_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "g"; "goal" ] ~docv:"FORMULA"
        ~doc:
          "A property stated as a formula (repeatable), e.g. $(i,forall S D \
           P C. bestPath(S,D,P,C) => ~(exists P2 C2. path(S,D,P2,C2) /\\ C2 \
           < C)).")

let assume_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "assume" ] ~docv:"FORMULA"
        ~doc:
          "A hypothesis available to the proofs (repeatable), e.g. \
           $(i,forall S D C. link(S,D,C) => 1 <= C).")

let induct_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "induct" ] ~docv:"PRED"
        ~doc:"Prove by fixpoint induction on this predicate.")

let prove_cmd =
  let run path props goals assumes induct show_proof =
    let p = or_die (load path) in
    let hyps =
      List.map
        (fun src ->
          match Logic.Fparser.parse src with
          | Ok f -> f
          | Error e ->
            Fmt.epr "fvnc: cannot parse assumption %S: %s@." src e;
            exit 1)
        assumes
    in
    let named = List.map (fun (_, f) -> f ()) props in
    let stated =
      List.mapi
        (fun i src ->
          match Logic.Fparser.parse src with
          | Ok f -> Fvn.Props.make (Printf.sprintf "goal_%d" (i + 1)) f
          | Error e ->
            Fmt.epr "fvnc: cannot parse goal %S: %s@." src e;
            exit 1)
        goals
    in
    let props =
      match named @ stated with
      | [] -> List.map (fun (_, f) -> f ()) known_props
      | l -> l
    in
    match induct with
    | Some pred ->
      (* induction mode: each property proved by fixpoint induction *)
      let thy = Logic.Completion.theory_of_program p in
      let failed = ref false in
      List.iter
        (fun (prop : Fvn.Props.t) ->
          match
            Logic.Prove.prove_by_induction thy ~hyps ~on:pred
              prop.Fvn.Props.formula
          with
          | Ok o ->
            Fmt.pr "  PROVED %s by induction on %s (%d proof steps)@."
              prop.Fvn.Props.prop_name pred o.Logic.Prove.steps;
            if show_proof then Fmt.pr "%a" Logic.Proof.pp o.Logic.Prove.proof
          | Error e ->
            failed := true;
            Fmt.pr "  FAILED %s: %s@." prop.Fvn.Props.prop_name e)
        props;
      if !failed then exit 2
    | None -> (
      (* Fold assumptions into each goal as antecedents. *)
      let props =
        List.map
          (fun (prop : Fvn.Props.t) ->
            {
              prop with
              Fvn.Props.formula =
                List.fold_right Logic.Formula.imp hyps prop.Fvn.Props.formula;
            })
          props
      in
      match Fvn.Pipeline.verify_program p props with
      | Error e ->
        Fmt.epr "fvnc: %s@." e;
        exit 1
      | Ok v ->
        Fmt.pr "%a" Fvn.Pipeline.pp_verification v;
        if show_proof then
          List.iter
            (fun r ->
              match r.Fvn.Pipeline.verdict with
              | `Proved o ->
                Fmt.pr "@.proof of %s:@.%a"
                  r.Fvn.Pipeline.property.Fvn.Props.prop_name Logic.Proof.pp
                  o.Logic.Prove.proof
              | `Failed _ -> ())
            v.Fvn.Pipeline.results;
        if not (Fvn.Pipeline.proved v) then exit 2)
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Statically verify properties of a program with the theorem prover \
          (arcs 4-5); proofs are kernel-checked.  Properties come from \
          $(b,--property) (built-in classes) and/or $(b,--goal) (stated \
          formulas); with neither, all built-in classes are attempted.")
    Term.(
      const run $ file_arg $ prop_arg $ goal_arg $ assume_arg $ induct_arg
      $ show_proof_arg)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let run path atom_src certify =
    let p = or_die (load path) in
    (* Parse "pred(v1, v2, ...)" as a fact. *)
    let fact =
      match Ndlog.Parser.parse_program (atom_src ^ ".") with
      | Ok { Ndlog.Ast.facts = [ f ]; rules = []; _ } -> f
      | Ok _ | Error _ ->
        Fmt.epr "fvnc: expected a ground atom like path(@a,b,[a,b],1)@.";
        exit 1
    in
    let tuple = Array.of_list fact.Ndlog.Ast.fact_args in
    let o =
      match or_sort_error (fun () -> Ndlog.Eval.run p) with
      | Ok o -> o
      | Error e ->
        Fmt.epr "fvnc: %a@." Ndlog.Analysis.pp_error e;
        exit 1
    in
    match
      Ndlog.Provenance.explain p o.Ndlog.Eval.db fact.Ndlog.Ast.fact_pred tuple
    with
    | Error e ->
      Fmt.epr "fvnc: %s@." e;
      exit 1
    | Ok d ->
      Fmt.pr "%a" Ndlog.Provenance.pp d;
      if certify then (
        match Logic.Certify.certify p d with
        | Ok cert ->
          Fmt.pr
            "@.certificate: kernel accepted a %d-step proof of %a from the \
             completion + base facts@."
            (Logic.Proof.size cert.Logic.Certify.cert_proof)
            Logic.Formula.pp cert.Logic.Certify.cert_goal
        | Error e ->
          Fmt.epr "fvnc: certification failed: %s@." e;
          exit 2)
  in
  let atom_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ATOM" ~doc:"Ground atom, e.g. $(i,reachable(@a,c)).")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:"Compile the derivation into a kernel-checked proof.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the derivation tree (provenance) of a derived tuple; with \
          $(b,--certify), also produce a kernel-checked proof of the tuple.")
    Term.(const run $ file_arg $ atom_arg $ certify_arg)

(* ------------------------------------------------------------------ *)
(* strands *)

let strands_cmd =
  let run path =
    let p = or_die (load path) in
    (match Ndlog.Analysis.analyze p with
    | Error e ->
      Fmt.epr "fvnc: %a@." Ndlog.Analysis.pp_error e;
      exit 1
    | Ok _ -> ());
    let strands = Ndlog.Plan.compile_program p in
    List.iter (fun s -> Fmt.pr "%a@." Ndlog.Plan.pp s) strands
  in
  Cmd.v
    (Cmd.info "strands"
       ~doc:
         "Compile the program into Click-style dataflow strands (one per \
          rule and trigger predicate), as the P2 runtime would.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* softstate *)

let softstate_cmd =
  let run path =
    let p = or_die (load path) in
    let report = Ndlog.Softstate.to_hard_state p in
    Fmt.pr
      "%% soft predicates: %a; %d timestamp columns, %d liveness guards@."
      Fmt.(list ~sep:(any ", ") string)
      report.Ndlog.Softstate.soft_preds report.Ndlog.Softstate.added_columns
      report.Ndlog.Softstate.added_conditions;
    Fmt.pr "%a" Ndlog.Ast.pp_program report.Ndlog.Softstate.rewritten
  in
  Cmd.v
    (Cmd.info "softstate"
       ~doc:
         "Print the hard-state rewrite of a soft-state program (explicit \
          timestamps; Section 4.2 of the paper).")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "fvnc" ~version:"1.0.0"
       ~doc:"Formally Verifiable Networking: the FVN framework driver.")
    [
      check_cmd; run_cmd; dist_cmd; localize_cmd; spec_cmd; prove_cmd;
      explain_cmd; strands_cmd; softstate_cmd;
    ]

let () = exit (Cmd.eval main)
