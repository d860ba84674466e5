(* The FVN framework of Figure 1, as an API.

   Each function realizes one (or a chain) of the figure's arcs:

   - [verify_program]  : arcs 4-5 — compile an NDlog program into its
     logical specification (Clark completion + aggregate axioms) and
     statically verify a list of properties with the theorem prover;
     every accepted proof is re-checked by the kernel.
   - [generate]        : arcs 1-3 — from a component-based design,
     verify the generated specification, then emit the NDlog program.
   - [execute]         : arc 7 — run an NDlog program, either on the
     centralized semi-naive engine or distributed over the simulator
     (localizing it first when required).
   - [model_check]     : arcs 6/8 — explore the program's transition
     system for a table invariant, with counterexample traces.

   [full_pipeline] strings design -> specification -> verification ->
   implementation -> execution together, returning every intermediate
   artefact: the executable witness that FVN "unifies design,
   specification, implementation, and verification ... within a
   logic-based framework". *)

module Ast = Ndlog.Ast

(* ------------------------------------------------------------------ *)
(* Verification (arcs 4-5). *)

type property_result = {
  property : Props.t;
  verdict : [ `Proved of Logic.Prove.outcome | `Failed of string ];
}

type verification = {
  theory : Logic.Theory.t;
  results : property_result list;
}

let proved v =
  List.for_all
    (fun r -> match r.verdict with `Proved _ -> true | `Failed _ -> false)
    v.results

let verify_theory ?(max_fuel = 5) thy (properties : Props.t list) :
    verification =
  let results =
    List.map
      (fun (p : Props.t) ->
        match Logic.Prove.prove ~max_fuel thy p.Props.formula with
        | Ok outcome -> { property = p; verdict = `Proved outcome }
        | Error e -> { property = p; verdict = `Failed e })
      properties
  in
  { theory = thy; results }

let verify_program ?max_fuel (program : Ast.program)
    (properties : Props.t list) : (verification, string) result =
  match Ndlog.Analysis.analyze program with
  | Error e -> Error (Fmt.str "%a" Ndlog.Analysis.pp_error e)
  | Ok _ ->
    Ok (verify_theory ?max_fuel (Logic.Completion.theory_of_program program) properties)

(* ------------------------------------------------------------------ *)
(* Verified code generation (arcs 1-3). *)

type generated = {
  model : Component.Model.t;
  gen_verification : verification;
  program : Ast.program;
}

let generate ?max_fuel ?(facts = []) (model : Component.Model.t)
    (properties : Props.t list) : (generated, string) result =
  match Component.Model.check ~facts model with
  | Error e -> Error (Fmt.str "%a" Component.Model.pp_error e)
  | Ok () ->
    let thy = Component.Model.to_theory model in
    let v = verify_theory ?max_fuel thy properties in
    if proved v then
      Ok
        {
          model;
          gen_verification = v;
          program = Component.Model.to_ndlog ~facts model;
        }
    else
      Error
        (Fmt.str "model verification failed: %a"
           Fmt.(
             list ~sep:(any "; ") (fun ppf r ->
                 match r.verdict with
                 | `Failed m -> Fmt.pf ppf "%s: %s" r.property.Props.prop_name m
                 | `Proved _ -> ()))
           (List.filter
              (fun r -> match r.verdict with `Failed _ -> true | _ -> false)
              v.results))

(* ------------------------------------------------------------------ *)
(* Execution (arc 7). *)

type execution =
  | Central of Ndlog.Eval.outcome
  | Distributed of {
      runtime : Dist.Runtime.t;
      report : Dist.Runtime.run_report;
      global : Ndlog.Store.t;
    }

let execute ?(max_rounds = 10_000) (program : Ast.program) : (execution, string) result =
  match Ndlog.Eval.run ~max_rounds program with
  | Ok outcome -> Ok (Central outcome)
  | Error e -> Error (Fmt.str "%a" Ndlog.Analysis.pp_error e)

(* Distributed execution: localize if needed, derive the topology from
   the program's link facts unless one is supplied. *)
let topology_of_links (program : Ast.program) : Netsim.Topology.t =
  let topo = Netsim.Topology.create () in
  List.iter
    (fun (f : Ast.fact) ->
      if f.Ast.fact_pred = "link" then
        match f.Ast.fact_args with
        | [ s; d; c ] ->
          Netsim.Topology.add_link
            ~cost:(Ndlog.Value.as_int c)
            topo
            (Ndlog.Value.as_addr s)
            (Ndlog.Value.as_addr d)
        | _ -> ())
    program.Ast.facts;
  topo

let execute_distributed ?topology ?(max_events = 1_000_000)
    (program : Ast.program) : (execution, string) result =
  let localized =
    match
      ( Ndlog.Analysis.analyze program,
        Ndlog.Localize.check_localized program )
    with
    | Error e, _ -> Error (Fmt.str "%a" Ndlog.Analysis.pp_error e)
    | Ok _, Ok () -> Ok program
    | Ok _, Error _ -> (
      match Ndlog.Localize.rewrite_program program with
      | Ok r -> Ok r.Ndlog.Localize.program
      | Error e -> Error (Fmt.str "%a" Ndlog.Localize.pp_error e))
  in
  match localized with
  | Error e -> Error e
  | Ok program -> (
    let topo =
      match topology with Some t -> t | None -> topology_of_links program
    in
    (* A fact located at no node of the topology would have no owner to
       load it. *)
    let nodes = Netsim.Topology.nodes topo in
    let outside (f : Ast.fact) =
      match f.Ast.fact_loc with
      | Some i when i < List.length f.Ast.fact_args ->
        let n = Ndlog.Value.as_addr (List.nth f.Ast.fact_args i) in
        if List.mem n nodes then None else Some (n, f)
      | _ -> None
    in
    match List.find_map outside program.Ast.facts with
    | Some (n, f) ->
      Error
        (Fmt.str "fact located at %s, a node outside the topology: %a" n
           Ast.pp_fact f)
    | None -> (
      match Dist.Runtime.create topo program with
      | exception Dist.Runtime.Not_localized m -> Error m
      | runtime ->
        Dist.Runtime.load_facts runtime;
        let report = Dist.Runtime.run ~max_events runtime in
        Ok
          (Distributed
             { runtime; report; global = Dist.Runtime.global_store runtime })))

(* ------------------------------------------------------------------ *)
(* Model checking (arcs 6/8). *)

let model_check ?max_states (program : Ast.program)
    (invariant : Ndlog.Store.t -> bool) =
  Mcheck.Ndlog_ts.check_table_invariant ?max_states program invariant

(* ------------------------------------------------------------------ *)
(* The whole framework, end to end. *)

type full_run = {
  fr_generated : generated;
  fr_execution : execution;
}

let full_pipeline ?max_fuel ?(facts = []) (model : Component.Model.t)
    (properties : Props.t list) : (full_run, string) result =
  match generate ?max_fuel ~facts model properties with
  | Error e -> Error e
  | Ok g -> (
    match execute g.program with
    | Error e -> Error e
    | Ok exec -> Ok { fr_generated = g; fr_execution = exec })

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let pp_property_result ppf r =
  match r.verdict with
  | `Proved o ->
    Fmt.pf ppf "PROVED %s (%d proof steps, %d nodes explored, %.4fs)"
      r.property.Props.prop_name o.Logic.Prove.steps o.Logic.Prove.nodes_explored
      o.Logic.Prove.elapsed
  | `Failed m -> Fmt.pf ppf "FAILED %s: %s" r.property.Props.prop_name m

let pp_verification ppf v =
  List.iter (fun r -> Fmt.pf ppf "  %a@." pp_property_result r) v.results
