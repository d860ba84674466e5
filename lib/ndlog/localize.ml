(* Localization rewrite.

   Distributed execution requires every rule body to read only tuples
   stored at a single node.  A rule such as the paper's r2

     path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), ...

   joins tuples at S (link) with tuples at Z (path).  The classic NDlog
   rewrite introduces an inverted copy of the link relation stored at the
   *other* endpoint:

     link_l1(S,@Z,C) :- link(@S,Z,C).
     path(@S,D,P,C)  :- link_l1(S,@Z,C1), path(@Z,D,P2,C2), ...

   after which each body is single-site; a head located elsewhere than
   its body denotes a network send, which the distributed runtime
   implements as a message.

   The rewrite applies to "link-restricted" rules: bodies spanning at
   most two location variables connected by one atom mentioning both. *)

type error =
  | Not_link_restricted of Ast.rule * string
  | Missing_location of Ast.rule * string  (* rule, predicate *)

let pp_error ppf = function
  | Not_link_restricted (r, msg) ->
    Fmt.pf ppf "rule %a is not link-restricted: %s" Ast.pp_rule r msg
  | Missing_location (r, pred) ->
    Fmt.pf ppf "rule %a: atom %s has no location specifier" Ast.pp_rule r pred

(* The location variable of an atom: the bare variable at its location
   index. *)
let loc_var_of_atom (a : Ast.atom) : string option =
  match a.loc with
  | None -> None
  | Some i -> (
    match List.nth_opt a.args i with
    | Some (Ast.Var x) -> Some x
    | _ -> None)

(* Name of the relocated copy of [pred] stored at argument index [i]. *)
let relocated_name pred i = Printf.sprintf "%s_l%d" pred i

(* Index of bare variable [x] among [args]. *)
let index_of_var x args =
  let rec go i = function
    | [] -> None
    | Ast.Var y :: _ when y = x -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 args

type result_t = {
  program : Ast.program;
  (* (pred, original location index, new location index) triples for
     which an inverted-copy rule was generated. *)
  relocations : (string * int * int) list;
}

let rewrite_rule relocations (r : Ast.rule) :
    (Ast.rule * (string * int * int) list, error) result =
  let atoms = Ast.body_atoms r.body in
  (* Location variables present in the body. *)
  let loc_vars =
    List.sort_uniq String.compare (List.filter_map loc_var_of_atom atoms)
  in
  match atoms, loc_vars with
  | [], _ -> Ok (r, relocations)
  | _, ([] | [ _ ]) -> Ok (r, relocations)
  | _, [ a; b ] -> (
    (* Pick the atom that mentions both location variables (the link). *)
    let mentions_both (at : Ast.atom) =
      index_of_var a at.args <> None && index_of_var b at.args <> None
    in
    match List.find_opt mentions_both atoms with
    | None ->
      Error
        (Not_link_restricted
           (r, "no body atom connects the two location variables"))
    | Some link -> (
      (* The linking atom must itself be located: its location index
         and variable drive the relocation below.  [mentions_both] only
         checked its argument list, so an unannotated link atom is
         still possible here — a typed error, not an [Option.get]. *)
      match link.Ast.loc, loc_var_of_atom link with
      | None, _ | _, None -> Error (Missing_location (r, link.Ast.pred))
      | Some link_orig_idx, Some link_loc ->
      (* Every non-link atom must live at the same, single location. *)
      let other_locs =
        List.sort_uniq String.compare
          (List.filter_map
             (fun at -> if at == link then None else loc_var_of_atom at)
             atoms)
      in
      (match other_locs with
      | [ target ] when target <> link_loc ->
        let target_idx =
          match index_of_var target link.args with
          | Some i -> i
          | None -> assert false
        in
        let new_pred = relocated_name link.Ast.pred target_idx in
        let new_atom =
          { Ast.pred = new_pred; loc = Some target_idx; args = link.args }
        in
        let body' =
          List.map
            (function
              | Ast.Pos at when at == link -> Ast.Pos new_atom
              | l -> l)
            r.body
        in
        let reloc = (link.Ast.pred, link_orig_idx, target_idx) in
        let relocations =
          if List.mem reloc relocations then relocations
          else reloc :: relocations
        in
        Ok ({ r with body = body' }, relocations)
      | [ target ] ->
        (* link already at the common location: nothing to do *)
        ignore target;
        Ok (r, relocations)
      | [] ->
        (* Only the link atom is located; treat its own location as home. *)
        Ok (r, relocations)
      | _ ->
        Error
          (Not_link_restricted
             (r, "non-link atoms span multiple locations")))))
  | _, _ ->
    Error
      (Not_link_restricted
         (r, "body spans more than two location variables"))

(* Generate the inverted-copy rule for a relocation: the copy has the
   same columns, stored at the new index.  The body reads the original
   relation at its own location. *)
let relocation_rule arities (pred, orig_idx, idx) : Ast.rule =
  let arity =
    match Analysis.Smap.find_opt pred arities with
    | Some a -> a
    | None -> max orig_idx idx + 1
  in
  let vars = List.init arity (fun i -> Printf.sprintf "X%d" i) in
  let args = List.map (fun v -> Ast.Var v) vars in
  let head =
    {
      Ast.head_pred = relocated_name pred idx;
      head_loc = Some idx;
      head_args = List.map (fun a -> Ast.Plain a) args;
    }
  in
  {
    Ast.rule_name = Some (relocated_name pred idx ^ "_gen");
    head;
    body = [ Ast.Pos { Ast.pred; loc = Some orig_idx; args } ];
  }

let rewrite_program (p : Ast.program) : (result_t, error) result =
  let arities =
    match Analysis.schema p with Ok a -> a | Error _ -> Analysis.Smap.empty
  in
  let rec go rules relocations = function
    | [] -> Ok (List.rev rules, relocations)
    | r :: rest -> (
      match rewrite_rule relocations r with
      | Ok (r', relocations') -> go (r' :: rules) relocations' rest
      | Error e -> Error e)
  in
  match go [] [] p.rules with
  | Error e -> Error e
  | Ok (rules, relocations) ->
    let gen_rules = List.map (relocation_rule arities) relocations in
    let decls =
      List.map
        (fun (pred, _orig_idx, idx) ->
          let lifetime =
            match
              List.find_opt (fun (d : Ast.decl) -> d.decl_pred = pred) p.decls
            with
            | Some d -> d.Ast.decl_lifetime
            | None -> Ast.Lifetime_forever
          in
          { Ast.decl_pred = relocated_name pred idx; decl_lifetime = lifetime })
        relocations
    in
    Ok
      {
        program =
          { p with rules = gen_rules @ rules; decls = p.decls @ decls };
        relocations;
      }

(* A program is localized when every rule's body atoms share a single
   location variable (or are unlocated). *)
let check_localized (p : Ast.program) : (unit, error) result =
  let check (r : Ast.rule) =
    let locs =
      List.sort_uniq String.compare
        (List.filter_map loc_var_of_atom (Ast.body_atoms r.body))
    in
    match locs with
    | [] | [ _ ] -> Ok ()
    | _ -> Error (Not_link_restricted (r, "body spans multiple locations"))
  in
  List.fold_left
    (fun acc r -> Result.bind acc (fun () -> check r))
    (Ok ()) p.rules
