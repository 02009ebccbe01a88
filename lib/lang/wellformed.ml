open Coral_term

type issue = { severity : [ `Error | `Warning ]; where : string; what : string }

let pp_issue ppf i =
  Format.fprintf ppf "%s: %s: %s"
    (match i.severity with `Error -> "error" | `Warning -> "warning")
    i.where i.what

let vids terms =
  List.concat_map Term.vars terms |> List.map (fun (v : Term.var) -> v.Term.vid)

let check_rule (r : Ast.rule) : issue list =
  let where = Pretty.rule_to_string r in
  let issues = ref [] in
  let add severity what = issues := { severity; where; what } :: !issues in
  (* Walk the body left to right tracking variables bound by positive
     literals (the default left-to-right sideways information passing). *)
  let bound : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let is_bound v = Hashtbl.mem bound v in
  List.iter
    (fun lit ->
      match (lit : Ast.literal) with
      | Ast.Pos a -> List.iter (fun v -> Hashtbl.replace bound v ()) (vids (Array.to_list a.args))
      | Ast.Neg a ->
        let free = List.filter (fun v -> not (is_bound v)) (vids (Array.to_list a.args)) in
        if free <> [] then
          add `Error
            (Printf.sprintf "negated literal 'not %s' has unbound variables"
               (Symbol.name a.Ast.pred))
      | Ast.Cmp (op, t1, t2) ->
        let free = List.filter (fun v -> not (is_bound v)) (vids [ t1; t2 ]) in
        if free <> [] then
          add `Error
            (Printf.sprintf "comparison '%s' has unbound variables" (Ast.cmp_op_name op))
      | Ast.Is (t1, t2) ->
        (* one side may introduce new bindings; the evaluated side must
           be bound *)
        let free_rhs = List.filter (fun v -> not (is_bound v)) (vids [ t2 ]) in
        if free_rhs <> [] && List.exists (fun v -> not (is_bound v)) (vids [ t1 ]) then
          add `Warning "'=' with unbound variables on both sides delays to unification";
        List.iter (fun v -> Hashtbl.replace bound v ()) (vids [ t1; t2 ]))
    r.Ast.body;
  (* Aggregate heads: every plain head argument must be a variable or a
     ground term (the grouping key), and aggregated arguments must be
     bound in the body. *)
  let has_agg = not (Ast.head_is_plain r.Ast.head) in
  if has_agg then
    Array.iter
      (function
        | Ast.Plain t -> begin
          match t with
          | Term.Var _ | Term.Const _ -> ()
          | Term.App _ ->
            if not (Term.is_ground t) then
              add `Error "grouping argument of an aggregate head must be a variable or ground"
        end
        | Ast.Agg (_, t) ->
          if List.exists (fun v -> not (is_bound v)) (vids [ t ]) then
            add `Error "aggregated argument is not bound in the rule body")
      r.Ast.head.Ast.hargs;
  (* Non-ground heads are legal in CORAL; flag them as information for
     the programmer. *)
  let head_free =
    List.filter (fun v -> not (is_bound v)) (vids (Ast.head_terms r.Ast.head))
  in
  if head_free <> [] && r.Ast.body <> [] then
    add `Warning "head variables not bound in the body: rule derives non-ground facts";
  List.rev !issues

let check_annotation (m : Ast.module_) (ann : Ast.annotation) : issue list =
  let where = "module " ^ m.Ast.mname in
  match ann with
  | Ast.Ann_aggregate_selection { sel_pred; pattern; group_by; target; _ } ->
    let pattern_vids = vids (Array.to_list pattern) in
    let bad =
      List.filter
        (fun v -> not (List.mem v pattern_vids))
        (vids (target :: Array.to_list group_by))
    in
    if bad <> [] then
      [ { severity = `Error;
          where;
          what =
            Printf.sprintf
              "@aggregate_selection on %s names variables that do not occur in its pattern"
              (Symbol.name sel_pred)
        }
      ]
    else []
  | Ast.Ann_make_index { idx_pred; pattern; keys } ->
    let pattern_vids = vids (Array.to_list pattern) in
    let bad = List.filter (fun v -> not (List.mem v pattern_vids)) (vids keys) in
    let non_var = List.exists (fun t -> match t with Term.Var _ -> false | _ -> true) keys in
    if bad <> [] || non_var then
      [ { severity = `Error;
          where;
          what =
            Printf.sprintf "@make_index on %s: keys must be variables of the pattern"
              (Symbol.name idx_pred)
        }
      ]
    else []
  | Ast.Ann_materialized | Ast.Ann_pipelined | Ast.Ann_save_module | Ast.Ann_lazy_eval
  | Ast.Ann_rewriting _ | Ast.Ann_fixpoint _ | Ast.Ann_no_existential | Ast.Ann_multiset _
  | Ast.Ann_sip _ ->
    []

let check_module (m : Ast.module_) : issue list =
  let defined =
    List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.hpred, Array.length r.Ast.head.Ast.hargs)
      m.Ast.rules
  in
  let export_issues =
    List.filter_map
      (fun (e : Ast.export) ->
        let name = Symbol.name e.Ast.epred in
        let where = "module " ^ m.Ast.mname in
        (* the arities the module does define the name at *)
        let others =
          List.sort_uniq compare
            (List.filter_map
               (fun (p, a) -> if Symbol.equal p e.Ast.epred then Some a else None)
               defined)
        in
        if List.mem e.Ast.arity others then None
        else if others = [] then
          Some
            { severity = `Warning;
              where;
              what = Printf.sprintf "exported predicate %s/%d has no defining rule" name e.Ast.arity
            }
        else
          (* the export would name an empty base relation and answer
             nothing: almost surely a miscounted adornment *)
          Some
            { severity = `Error;
              where;
              what =
                Printf.sprintf "exported predicate %s/%d is defined only as %s" name e.Ast.arity
                  (String.concat ", " (List.map (fun a -> Printf.sprintf "%s/%d" name a) others))
            })
      m.Ast.exports
  in
  let pipelined = List.mem Ast.Ann_pipelined m.Ast.annotations in
  let strategy_issues =
    if pipelined && List.mem Ast.Ann_materialized m.Ast.annotations then
      [ { severity = `Error;
          where = "module " ^ m.Ast.mname;
          what = "module cannot be both @pipelined and @materialized"
        }
      ]
    else []
  in
  export_issues
  @ strategy_issues
  @ List.concat_map (check_annotation m) m.Ast.annotations
  @ List.concat_map check_rule m.Ast.rules

let errors issues = List.filter (fun i -> i.severity = `Error) issues
