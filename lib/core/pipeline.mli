(** The FVN framework of the paper's Figure 1, as an API.

    Each entry point realizes one (or a chain) of the figure's arcs:
    {!verify_program} (arcs 4–5), {!generate} (arcs 1–3), {!execute} /
    {!execute_distributed} (arc 7), {!model_check} (arcs 6/8), and
    {!full_pipeline} for the whole loop. *)

(** One property's verification result. *)
type property_result = {
  property : Props.t;
  verdict : [ `Proved of Logic.Prove.outcome | `Failed of string ];
}

type verification = {
  theory : Logic.Theory.t;
  results : property_result list;
}

val proved : verification -> bool
(** All properties proved (and kernel-checked). *)

val verify_theory :
  ?max_fuel:int -> Logic.Theory.t -> Props.t list -> verification

val verify_program :
  ?max_fuel:int ->
  Ndlog.Ast.program ->
  Props.t list ->
  (verification, string) result
(** Arcs 4–5: analyze, compile to the completion theory, prove each
    property.  [Error] on static-analysis failure. *)

(** A verified, generated implementation. *)
type generated = {
  model : Component.Model.t;
  gen_verification : verification;
  program : Ndlog.Ast.program;
}

val generate :
  ?max_fuel:int ->
  ?facts:Ndlog.Ast.fact list ->
  Component.Model.t ->
  Props.t list ->
  (generated, string) result
(** Arcs 1–3: check the model, verify its generated specification, emit
    the NDlog program.  Fails when the model is ill-formed or a
    property is not proved. *)

(** An execution artefact. *)
type execution =
  | Central of Ndlog.Eval.outcome
  | Distributed of {
      runtime : Dist.Runtime.t;
      report : Dist.Runtime.run_report;
      global : Ndlog.Store.t;
    }

val execute : ?max_rounds:int -> Ndlog.Ast.program -> (execution, string) result
(** Arc 7, centralized. *)

val topology_of_links : Ndlog.Ast.program -> Netsim.Topology.t
(** A simulator topology derived from the program's [link] facts. *)

val execute_distributed :
  ?topology:Netsim.Topology.t ->
  ?max_events:int ->
  Ndlog.Ast.program ->
  (execution, string) result
(** Arc 7, distributed: localizes the program when required, derives
    the topology from [link] facts unless one is supplied.  An [Error]
    names the first fact located at a node outside the topology. *)

val model_check :
  ?max_states:int ->
  Ndlog.Ast.program ->
  (Ndlog.Store.t -> bool) ->
  ( Mcheck.Ndlog_ts.state Mcheck.Explore.stats,
    Mcheck.Ndlog_ts.state Mcheck.Explore.violation )
  result
(** Arcs 6/8: safety over the program's table transition system, with
    counterexample traces. *)

type full_run = {
  fr_generated : generated;
  fr_execution : execution;
}

val full_pipeline :
  ?max_fuel:int ->
  ?facts:Ndlog.Ast.fact list ->
  Component.Model.t ->
  Props.t list ->
  (full_run, string) result
(** Design -> specification -> verification -> implementation ->
    execution, returning every intermediate artefact. *)

val pp_property_result : property_result Fmt.t
val pp_verification : verification Fmt.t
