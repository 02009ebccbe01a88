open Coral_term

let infix_syms =
  List.map Symbol.intern [ "+"; "-"; "*"; "/"; "mod" ]

(* Terms print through Term.pp except that arithmetic functors print
   infix, so rewritten programs re-parse to themselves. *)
let rec pp_term ppf (t : Term.t) =
  match t with
  | Term.App { sym; args = [| a; b |]; _ } when List.memq sym infix_syms ->
    Format.fprintf ppf "(%a %s %a)" pp_term a (Symbol.name sym) pp_term b
  | Term.App { sym; args; _ }
    when Array.length args > 0
         && (not (Symbol.equal sym Symbol.cons))
         && not (Symbol.equal sym Symbol.nil) ->
    Format.fprintf ppf "%s(" (Symbol.name sym);
    Array.iteri
      (fun i a ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_term ppf a)
      args;
    Format.fprintf ppf ")"
  | Term.App { sym; args = [| h; tl |]; _ } when Symbol.equal sym Symbol.cons ->
    Format.fprintf ppf "[";
    let rec go first t =
      match (t : Term.t) with
      | Term.App { sym; args = [||]; _ } when Symbol.equal sym Symbol.nil -> ()
      | Term.App { sym; args = [| h; tl |]; _ } when Symbol.equal sym Symbol.cons ->
        if not first then Format.fprintf ppf ", ";
        pp_term ppf h;
        go false tl
      | tail ->
        Format.fprintf ppf " | ";
        pp_term ppf tail
    in
    go true (Term.cons h tl);
    Format.fprintf ppf "]"
  | _ -> Term.pp ppf t

let pp_atom ppf (a : Ast.atom) =
  if Array.length a.args = 0 then Format.pp_print_string ppf (Symbol.name a.pred)
  else begin
    Format.fprintf ppf "%s(" (Symbol.name a.pred);
    Array.iteri
      (fun i t ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_term ppf t)
      a.args;
    Format.fprintf ppf ")"
  end

let pp_literal ppf = function
  | Ast.Pos a -> pp_atom ppf a
  | Ast.Neg a -> Format.fprintf ppf "not %a" pp_atom a
  | Ast.Cmp (op, a, b) -> Format.fprintf ppf "%a %s %a" pp_term a (Ast.cmp_op_name op) pp_term b
  | Ast.Is (a, b) -> Format.fprintf ppf "%a = %a" pp_term a pp_term b

let pp_head_arg ppf = function
  | Ast.Plain t -> pp_term ppf t
  | Ast.Agg (Ast.Collect, t) -> Format.fprintf ppf "<%a>" pp_term t
  | Ast.Agg (op, t) -> Format.fprintf ppf "%s(%a)" (Ast.agg_op_name op) pp_term t

let pp_head ppf (h : Ast.head) =
  if Array.length h.hargs = 0 then Format.pp_print_string ppf (Symbol.name h.hpred)
  else begin
    Format.fprintf ppf "%s(" (Symbol.name h.hpred);
    Array.iteri
      (fun i a ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_head_arg ppf a)
      h.hargs;
    Format.fprintf ppf ")"
  end

let pp_rule ppf (r : Ast.rule) =
  match r.body with
  | [] -> Format.fprintf ppf "%a." pp_head r.head
  | body ->
    Format.fprintf ppf "@[<hv 4>%a :-@ " pp_head r.head;
    List.iteri
      (fun i l ->
        if i > 0 then Format.fprintf ppf ",@ ";
        pp_literal ppf l)
      body;
    Format.fprintf ppf ".@]"

let pp_terms_parenthesized ppf terms =
  Format.fprintf ppf "(";
  List.iteri
    (fun i t ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_term ppf t)
    terms;
  Format.fprintf ppf ")"

let pp_annotation ppf = function
  | Ast.Ann_materialized -> Format.fprintf ppf "@@materialized."
  | Ast.Ann_pipelined -> Format.fprintf ppf "@@pipelined."
  | Ast.Ann_save_module -> Format.fprintf ppf "@@save_module."
  | Ast.Ann_lazy_eval -> Format.fprintf ppf "@@lazy_eval."
  | Ast.Ann_no_existential -> Format.fprintf ppf "@@no_existential."
  | Ast.Ann_sip Ast.Left_to_right -> Format.fprintf ppf "@@sip(left_to_right)."
  | Ast.Ann_sip Ast.Max_bound -> Format.fprintf ppf "@@sip(max_bound)."
  | Ast.Ann_rewriting r ->
    let name =
      match r with
      | Ast.Supplementary_magic -> "supplementary_magic"
      | Ast.Magic -> "magic"
      | Ast.Supplementary_magic_goal_id -> "supplementary_magic_goal_id"
      | Ast.Factoring -> "factoring"
      | Ast.No_rewriting -> "no_rewriting"
    in
    Format.fprintf ppf "@@%s." name
  | Ast.Ann_fixpoint f ->
    let name =
      match f with
      | Ast.Basic_seminaive -> "bsn"
      | Ast.Predicate_seminaive -> "psn"
      | Ast.Naive -> "naive"
      | Ast.Ordered_search -> "ordered_search"
    in
    Format.fprintf ppf "@@%s." name
  | Ast.Ann_multiset (pred, arity) ->
    Format.fprintf ppf "@@multiset %s/%d." (Symbol.name pred) arity
  | Ast.Ann_aggregate_selection { sel_pred; pattern; group_by; op; target } ->
    Format.fprintf ppf "@@aggregate_selection %a %a %s(%a)." pp_atom
      { Ast.pred = sel_pred; args = pattern }
      pp_terms_parenthesized (Array.to_list group_by) (Ast.agg_op_name op) pp_term target
  | Ast.Ann_make_index { idx_pred; pattern; keys } ->
    Format.fprintf ppf "@@make_index %a %a." pp_atom
      { Ast.pred = idx_pred; args = pattern }
      pp_terms_parenthesized keys

let pp_export ppf (e : Ast.export) =
  Format.fprintf ppf "export %s(%s)." (Symbol.name e.epred) (Ast.adornment_to_string e.adorn)

let pp_module ppf (m : Ast.module_) =
  Format.fprintf ppf "@[<v>module %s.@," m.mname;
  List.iter (fun e -> Format.fprintf ppf "%a@," pp_export e) m.exports;
  List.iter (fun a -> Format.fprintf ppf "%a@," pp_annotation a) m.annotations;
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_rule r) m.rules;
  Format.fprintf ppf "end_module.@]"

let pp_item ppf = function
  | Ast.Module_item m -> pp_module ppf m
  | Ast.Fact a -> Format.fprintf ppf "%a." pp_atom a
  | Ast.Clause_item r -> pp_rule ppf r
  | Ast.Query body ->
    Format.fprintf ppf "?- ";
    List.iteri
      (fun i l ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_literal ppf l)
      body;
    Format.fprintf ppf "."
  | Ast.Update (op, a) ->
    Format.fprintf ppf "%s %a." (Ast.update_op_name op) pp_atom a
  | Ast.Command (name, args) ->
    Format.fprintf ppf "@@%s%a." name pp_terms_parenthesized args

let pp_program ppf items =
  Format.fprintf ppf "@[<v>";
  List.iter (fun item -> Format.fprintf ppf "%a@," pp_item item) items;
  Format.fprintf ppf "@]"

let rule_to_string r = Format.asprintf "%a" pp_rule r
let module_to_string m = Format.asprintf "%a" pp_module m
