open Coral_term
open Coral_lang
open Coral_rel

exception Pipeline_error of string

type rulebase = {
  rules_of : Symbol.t -> int -> Ast.rule list;
  relation_of : Symbol.t -> int -> Relation.t option;
  foreign_of : Symbol.t -> int -> Builtin.foreign option;
  tick : unit -> unit;
      (* cancellation hook, counted per solved atom; the engine wires
         this to its ambient cancellation check *)
}

(* Renumber a rule's variables densely so each activation can allocate
   a right-sized fresh environment. *)
let prepare_rule (r : Ast.rule) =
  if not (Ast.head_is_plain r.Ast.head) then
    raise (Pipeline_error "pipelined modules cannot use aggregation or set-grouping heads");
  let head_atom = Ast.atom_of_head r.Ast.head in
  let body_arrays =
    List.map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a | Ast.Neg a -> a.Ast.args
        | Ast.Cmp (_, t1, t2) | Ast.Is (t1, t2) -> [| t1; t2 |])
      r.Ast.body
  in
  let renumbered, nvars = Rename.number_term_lists (head_atom.Ast.args :: body_arrays) in
  match renumbered with
  | head :: rest ->
    let body =
      List.map2
        (fun lit args ->
          match (lit : Ast.literal) with
          | Ast.Pos a -> Ast.Pos { a with Ast.args }
          | Ast.Neg a -> Ast.Neg { a with Ast.args }
          | Ast.Cmp (op, _, _) -> Ast.Cmp (op, args.(0), args.(1))
          | Ast.Is (_, _) -> Ast.Is (args.(0), args.(1)))
        r.Ast.body rest
    in
    head, body, nvars
  | [] -> assert false

exception Cut_found

let solve rb lits ~nvars:_ ~env k =
  let tr = Trail.create () in
  let rec solve_lits lits env k =
    match lits with
    | [] -> k ()
    | lit :: rest -> begin
      match (lit : Ast.literal) with
      | Ast.Pos a -> solve_atom a env (fun () -> solve_lits rest env k)
      | Ast.Neg a ->
        (* negation as failure *)
        let m = Trail.mark tr in
        let found = ref false in
        (try
           solve_atom a env (fun () ->
               found := true;
               raise Cut_found)
         with Cut_found -> ());
        Trail.undo_to tr m;
        if not !found then solve_lits rest env k
      | Ast.Cmp (op, t1, t2) ->
        if Builtin.compare_terms op t1 env t2 env then solve_lits rest env k
      | Ast.Is (t1, t2) ->
        let v1 = Builtin.eval_term t1 env and v2 = Builtin.eval_term t2 env in
        let m = Trail.mark tr in
        if Unify.unify tr v1 env v2 env then solve_lits rest env k;
        Trail.undo_to tr m
    end
  and solve_atom (a : Ast.atom) env k =
    rb.tick ();
    let arity = Array.length a.Ast.args in
    (* stored facts first (base relations, other modules through the
       uniform scan interface) *)
    (match rb.relation_of a.Ast.pred arity with
    | Some rel ->
      Relation.iter rel ~from_mark:0 ~to_mark:(-1) ~pattern:(Some (a.Ast.args, env))
        (fun (tuple : Tuple.t) ->
          let m = Trail.mark tr in
          let tenv =
            if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
          in
          if Unify.unify_arrays tr a.Ast.args env tuple.Tuple.terms tenv then k ();
          Trail.undo_to tr m;
          true)
    | None -> ());
    (match rb.foreign_of a.Ast.pred arity with
    | Some f ->
      Seq.iter
        (fun row ->
          let m = Trail.mark tr in
          if Array.length row = arity && Unify.unify_arrays tr a.Ast.args env row Bindenv.empty
          then k ();
          Trail.undo_to tr m)
        (f.Builtin.fsolve a.Ast.args env)
    | None -> ());
    (* rules, in source order *)
    List.iter
      (fun rule ->
        let head, body, rule_nvars = prepare_rule rule in
        let renv = Bindenv.create (max rule_nvars 1) in
        let m = Trail.mark tr in
        if Unify.unify_arrays tr a.Ast.args env head renv then
          solve_lits body renv (fun () -> k ());
        Trail.undo_to tr m)
      (rb.rules_of a.Ast.pred arity)
  in
  solve_lits lits env k

let answers rb pred args env f =
  (* The query pattern is canonicalized into the producer's own
     variable space, so its answers do not depend on the caller's
     environment, which the consumer binds and unbinds per answer. *)
  let snapshot, nvars = Unify.canonicalize args env in
  let genv = Bindenv.create (max nvars 1) in
  let exception Stop in
  try
    solve rb
      [ Ast.Pos { Ast.pred; args = snapshot } ]
      ~nvars ~env:genv
      (fun () -> if not (f (Tuple.make snapshot genv)) then raise Stop)
  with Stop -> ()
