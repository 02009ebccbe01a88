open Coral_term
open Coral_lang

type verdict = (unit, string) result

type rule = { rule : Ast.rule; head : string; derived_at : int list }

type pred = {
  key : string;
  sym : Symbol.t;
  arity : int;
  rules : rule list;
  recursive : bool;
  maintainable : verdict;
  distributable : verdict;
}

type t = { preds : pred list; rules : rule list }

let key_of sym arity = Symbol.name sym ^ "/" ^ string_of_int arity
let head_key (r : Ast.rule) = key_of r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs)
let atom_key (a : Ast.atom) = key_of a.Ast.pred (Array.length a.Ast.args)
let reserved sym = String.contains (Symbol.name sym) '@'

module Ids = Set.Make (Int)

let ids terms =
  Ids.of_list (List.map (fun (v : Term.var) -> v.Term.vid) (List.concat_map Term.vars terms))

(* One left-to-right pass over a body: the variables positive literals
   bind (an [=] that maintenance accepts binds its left side too),
   every variable of the body, and the first literal maintenance
   rejects. *)
type walk = { bound : Ids.t; occurs : Ids.t; stop : string option }

let walk ~recursive body =
  List.fold_left
    (fun w lit ->
      let w = { w with occurs = Ids.union w.occurs (ids (Ast.literal_terms lit)) } in
      let all_bound terms = Ids.subset (ids terms) w.bound in
      let stop reason = { w with stop = Some reason } in
      match (lit : Ast.literal) with
      | _ when w.stop <> None -> w
      | Ast.Pos a -> { w with bound = Ids.union w.bound (ids (Array.to_list a.Ast.args)) }
      | Ast.Neg a -> stop (Printf.sprintf "negation over %s" (Symbol.name a.Ast.pred))
      | Ast.Cmp (_, t1, t2) ->
        if all_bound [ t1; t2 ] then w
        else stop "comparison over variables not bound by positive literals"
      | Ast.Is (t1, t2) ->
        if not (all_bound [ t2 ]) then
          stop "assignment right-hand side not bound by positive literals"
        else if recursive && not (all_bound [ t1 ]) then
          stop "value-generating assignment in a recursive rule"
        else { w with bound = Ids.union w.bound (ids [ t1 ]) })
    { bound = Ids.empty; occurs = Ids.empty; stop = None }
    body

let maintain_rule ~derived ~foreign (r : Ast.rule) w =
  if not (Ast.head_is_plain r.Ast.head) then Some "aggregation in the head"
  else if w.stop <> None then w.stop
  else if not (Ids.subset (ids (Ast.head_terms r.Ast.head)) w.bound) then
    Some "head variable not bound by the body"
  else
    List.find_map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a when reserved a.Ast.pred ->
          Some (Printf.sprintf "reserved body predicate %s" (Symbol.name a.Ast.pred))
        | Ast.Pos a
          when (not (derived (atom_key a))) && foreign a.Ast.pred (Array.length a.Ast.args) ->
          Some (Printf.sprintf "foreign predicate %s in body" (atom_key a))
        | _ -> None)
      r.Ast.body

let distribute_rule ~derived (r : Ast.rule) w derived_at =
  let head = Symbol.name r.Ast.head.Ast.hpred in
  let bad_literal = function
    | Ast.Pos a when reserved a.Ast.pred ->
      Some ("reserved body predicate " ^ Symbol.name a.Ast.pred)
    | Ast.Neg a when derived (atom_key a) ->
      Some ("negation over derived predicate " ^ Symbol.name a.Ast.pred)
    | _ -> None
  in
  if reserved r.Ast.head.Ast.hpred then Some ("reserved head predicate " ^ head)
  else if not (Ast.head_is_plain r.Ast.head) then Some ("aggregation in the head of " ^ head)
  else
    (* a worker rebuilds head tuples from query rows, so every head
       variable must occur in the body *)
    let head_vars = List.concat_map Term.vars (Ast.head_terms r.Ast.head) in
    match List.find_opt (fun (v : Term.var) -> not (Ids.mem v.Term.vid w.occurs)) head_vars with
    | Some v -> Some (Printf.sprintf "unbound head variable %s in %s" v.Term.vname head)
    | None -> (
      match List.find_map bad_literal r.Ast.body with
      | Some _ as bad -> bad
      | None when List.length derived_at > 1 ->
        Some
          (Printf.sprintf "non-linear rule for %s (%d derived body literals)" head
             (List.length derived_at))
      | None -> None)

let defined_keys rules = List.sort_uniq compare (List.map head_key rules)

let analyse ~foreign (modules : Ast.module_ list) clauses =
  let all = List.concat_map (fun (m : Ast.module_) -> m.Ast.rules) modules @ clauses in
  (* key -> symbol and arity, for every derived or annotated predicate *)
  let preds = Hashtbl.create 32 and derived = Hashtbl.create 32 in
  let see sym arity = Hashtbl.replace preds (key_of sym arity) (sym, arity) in
  List.iter
    (fun (r : Ast.rule) ->
      see r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs);
      Hashtbl.replace derived (head_key r) ())
    all;
  let is_derived = Hashtbl.mem derived in
  (* first reason wins, in the order the checks run *)
  let no_maint = Hashtbl.create 8 and no_dist = Hashtbl.create 8 in
  let mark tbl k reason = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k reason in
  (* a predicate defined in several modules would merge separately
     scoped definitions into one extent or one global fixpoint; the
     interactive clauses count as a module named "user" for maintenance
     only *)
  let defined = List.map (fun (m : Ast.module_) -> m, defined_keys m.Ast.rules) modules in
  let user = defined_keys clauses in
  Hashtbl.iter
    (fun k () ->
      let homes =
        List.filter_map
          (fun ((m : Ast.module_), ks) -> if List.mem k ks then Some m.Ast.mname else None)
          defined
      in
      let names = List.sort_uniq compare (if List.mem k user then "user" :: homes else homes) in
      if List.length homes > 1 then
        mark no_dist k (Printf.sprintf "%s is defined in %d modules" k (List.length homes));
      if List.length names > 1 then
        mark no_maint k (Printf.sprintf "defined in %d modules" (List.length names)))
    derived;
  (* module annotations; a @multiset or @aggregate_selection may name
     a predicate no rule derives *)
  List.iter
    (fun ((m : Ast.module_), defined) ->
      if List.mem Ast.Ann_pipelined m.Ast.annotations then
        List.iter (fun k -> mark no_maint k "pipelined module") defined;
      let annotate p n reason =
        see p n;
        mark no_maint (key_of p n) reason;
        Some (key_of p n)
      in
      let named =
        List.filter_map
          (function
            | Ast.Ann_multiset (p, n) -> annotate p n "multiset predicate"
            | Ast.Ann_aggregate_selection { sel_pred; pattern; _ } ->
              annotate sel_pred (Array.length pattern) "aggregate selection"
            | _ -> None)
          m.Ast.annotations
      in
      if m.Ast.annotations <> [] then
        List.iter
          (fun k ->
            mark no_dist k (Printf.sprintf "module %s uses evaluation annotations" m.Ast.mname))
          (defined @ named))
    defined;
  let scc = Scc.analyze all in
  let recursive sym =
    let i = Scc.scc_of scc sym in
    i >= 0 && scc.Scc.recursive.(i)
  in
  let rules =
    List.map
      (fun (r : Ast.rule) ->
        let head = head_key r in
        let w = walk ~recursive:(recursive r.Ast.head.Ast.hpred) r.Ast.body in
        let derived_at =
          List.mapi (fun i lit -> i, lit) r.Ast.body
          |> List.filter_map (function
               | i, Ast.Pos a when is_derived (atom_key a) -> Some i
               | _ -> None)
        in
        Option.iter (mark no_maint head) (maintain_rule ~derived:is_derived ~foreign r w);
        Option.iter (mark no_dist head) (distribute_rule ~derived:is_derived r w derived_at);
        { rule = r; head; derived_at })
      all
  in
  (* a rule reading a non-maintainable predicate makes its head
     non-maintainable too *)
  let rec propagate () =
    let spread r =
      (not (Hashtbl.mem no_maint r.head))
      && List.exists
           (fun lit ->
             match Ast.literal_atom lit with
             | Some a when Hashtbl.mem no_maint (atom_key a) ->
               mark no_maint r.head ("depends on fallback predicate " ^ atom_key a);
               true
             | _ -> false)
           r.rule.Ast.body
    in
    if List.fold_left (fun grew r -> spread r || grew) false rules then propagate ()
  in
  propagate ();
  let verdict tbl k = match Hashtbl.find_opt tbl k with Some why -> Error why | None -> Ok () in
  let preds =
    Hashtbl.fold
      (fun key (sym, arity) acc ->
        { key;
          sym;
          arity;
          rules = List.filter (fun r -> r.head = key) rules;
          recursive = recursive sym;
          maintainable = verdict no_maint key;
          distributable = verdict no_dist key
        }
        :: acc)
      preds []
    |> List.sort (fun a b -> compare a.key b.key)
  in
  { preds; rules }
