(* Tuple locations: which node owns a tuple.

   The localization rewrite ({!Localize}) gives every located predicate
   a location-specifier column; the distributed runtime ({!Dist.Runtime})
   and the model checker's action footprints ({!Mcheck.Ndlog_ts}) read
   a tuple's owner from it. *)

(* The location index declared for each predicate, from rule heads,
   facts, and body atoms (last occurrence wins — the runtime's program
   has already passed localization). *)
let loc_index_map (p : Ast.program) : (string, int) Hashtbl.t =
  let m = Hashtbl.create 16 in
  List.iter
    (fun (r : Ast.rule) ->
      match r.head.Ast.head_loc with
      | Some i -> Hashtbl.replace m r.head.Ast.head_pred i
      | None -> ())
    p.rules;
  List.iter
    (fun (f : Ast.fact) ->
      match f.Ast.fact_loc with
      | Some i -> Hashtbl.replace m f.Ast.fact_pred i
      | None -> ())
    p.facts;
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (a : Ast.atom) ->
          match a.Ast.loc with
          | Some i -> Hashtbl.replace m a.Ast.pred i
          | None -> ())
        (Ast.body_atoms r.body))
    p.rules;
  m

(* Owner address of a tuple for a located predicate ([None] when the
   predicate is unlocated or the tuple too short). *)
let tuple_location (loc : int option) (tuple : Store.Tuple.t) : string option =
  match loc with
  | Some i when i < Array.length tuple -> Some (Value.as_addr tuple.(i))
  | _ -> None
