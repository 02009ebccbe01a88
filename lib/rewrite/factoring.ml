open Coral_term
open Coral_lang

type linearity = Left_linear | Right_linear

let seed_name apred = Symbol.intern ("m_seed#" ^ Symbol.name apred)
let ans_name apred = Symbol.intern ("ans#" ^ Symbol.name apred)

let positions ad want =
  Array.to_list ad
  |> List.mapi (fun i b -> i, b)
  |> List.filter_map (fun (i, b) -> if b = want then Some i else None)

(* Occurrences of the adorned query predicate in a body. *)
let rec_calls qpred body =
  List.filter_map
    (fun lit ->
      match (lit : Ast.literal) with
      | Ast.Pos a when Symbol.equal a.Ast.pred qpred -> Some a
      | _ -> None)
    body

let is_var = function Term.Var _ -> true | _ -> false

let vids terms =
  List.concat_map Term.vars terms |> List.map (fun (v : Term.var) -> v.Term.vid)

let rewrite (adorned : Adorn.t) : (linearity * Magic.result) option =
  let origin = adorned.Adorn.origin in
  let qpred = adorned.Adorn.query_pred in
  let _, qad = Symbol.Tbl.find origin qpred in
  let bound_pos = positions qad Ast.Bound and free_pos = positions qad Ast.Free in
  (* Scope: the adorned program must define only the query predicate
     (every other body literal base or builtin), with at most one
     recursive call per rule. *)
  let only_query_derived =
    List.for_all
      (fun (r : Ast.rule) ->
        Symbol.equal r.Ast.head.Ast.hpred qpred
        && List.for_all
             (fun lit ->
               match (lit : Ast.literal) with
               | Ast.Pos a -> Symbol.equal a.Ast.pred qpred || not (Symbol.Tbl.mem origin a.Ast.pred)
               | Ast.Neg a -> not (Symbol.Tbl.mem origin a.Ast.pred)
               | Ast.Cmp _ | Ast.Is _ -> true)
             r.Ast.body)
      adorned.Adorn.arules
  in
  if (not only_query_derived) || bound_pos = [] then None
  else begin
    let rules = adorned.Adorn.arules in
    let recursive, exits =
      List.partition (fun (r : Ast.rule) -> rec_calls qpred r.Ast.body <> []) rules
    in
    let linear =
      List.for_all (fun (r : Ast.rule) -> List.length (rec_calls qpred r.Ast.body) = 1) recursive
    in
    if (not linear) || recursive = [] then None
    else begin
      let head_args (r : Ast.rule) = (Ast.atom_of_head r.Ast.head).Ast.args in
      let agg_free =
        List.for_all (fun (r : Ast.rule) -> Ast.head_is_plain r.Ast.head) rules
      in
      if not agg_free then None
      else begin
        let left_linear =
          List.for_all
            (fun (r : Ast.rule) ->
              let call = List.hd (rec_calls qpred r.Ast.body) in
              let h = head_args r in
              List.for_all
                (fun i -> is_var h.(i) && Term.equal h.(i) call.Ast.args.(i))
                bound_pos
              (* the bound head variables must not be used anywhere else
                 in the body: the context truly is invariant *)
              && begin
                let bound_vids = vids (List.map (fun i -> h.(i)) bound_pos) in
                let other_body_terms =
                  List.concat_map
                    (fun lit ->
                      match (lit : Ast.literal) with
                      | Ast.Pos a when a == call ->
                        (* positions other than the pass-through bound ones *)
                        Array.to_list a.Ast.args
                        |> List.filteri (fun i _ -> not (List.mem i bound_pos))
                      | other -> Ast.literal_terms other)
                    r.Ast.body
                in
                List.for_all (fun v -> not (List.mem v (vids other_body_terms))) bound_vids
              end)
            recursive
        in
        let right_linear =
          List.for_all
            (fun (r : Ast.rule) ->
              let call = List.hd (rec_calls qpred r.Ast.body) in
              let h = head_args r in
              List.for_all
                (fun i -> is_var h.(i) && Term.equal h.(i) call.Ast.args.(i))
                free_pos
              && begin
                let free_vids = vids (List.map (fun i -> h.(i)) free_pos) in
                let other_body_terms =
                  List.concat_map
                    (fun lit ->
                      match (lit : Ast.literal) with
                      | Ast.Pos a when a == call ->
                        Array.to_list a.Ast.args
                        |> List.filteri (fun i _ -> not (List.mem i free_pos))
                      | other -> Ast.literal_terms other)
                    r.Ast.body
                in
                List.for_all (fun v -> not (List.mem v (vids other_body_terms))) free_vids
              end)
            recursive
        in
        let seed = seed_name qpred in
        let select args pos = Array.of_list (List.map (fun i -> args.(i)) pos) in
        if left_linear then begin
          (* exit rules guarded by the seed; recursive rules unchanged *)
          let out =
            List.map
              (fun (r : Ast.rule) ->
                let guard =
                  Ast.Pos { Ast.pred = seed; args = select (head_args r) bound_pos }
                in
                { r with Ast.body = guard :: r.Ast.body })
              exits
            @ recursive
          in
          Some
            ( Left_linear,
              { Magic.mrules = out;
                answer_pred = qpred;
                seed_pred = seed;
                seed_positions = bound_pos;
                goal_id = false
              } )
        end
        else if right_linear then begin
          (* context-free answers + magic context propagation *)
          let magic = Magic.magic_name qpred in
          let ans = ans_name qpred in
          let magic_of_head (r : Ast.rule) =
            Ast.Pos { Ast.pred = magic; args = select (head_args r) bound_pos }
          in
          let magic_rules =
            List.map
              (fun (r : Ast.rule) ->
                let call = List.hd (rec_calls qpred r.Ast.body) in
                let prefix =
                  List.filter
                    (fun lit ->
                      match (lit : Ast.literal) with
                      | Ast.Pos a -> not (a == call)
                      | _ -> true)
                    r.Ast.body
                in
                { Ast.head =
                    Ast.head_of_atom { Ast.pred = magic; args = select call.Ast.args bound_pos };
                  body = magic_of_head r :: prefix
                })
              recursive
          in
          let ans_rules =
            List.map
              (fun (r : Ast.rule) ->
                { Ast.head =
                    Ast.head_of_atom { Ast.pred = ans; args = select (head_args r) free_pos };
                  body = magic_of_head r :: r.Ast.body
                })
              exits
          in
          (* the seed feeds the magic context, and answers pair with the
             original query context only *)
          let nvars = Array.length qad in
          let fresh = Array.init nvars (fun i -> Term.var ~name:("A" ^ string_of_int i) i) in
          let bootstrap =
            { Ast.head =
                Ast.head_of_atom { Ast.pred = magic; args = select fresh bound_pos };
              body = [ Ast.Pos { Ast.pred = seed; args = select fresh bound_pos } ]
            }
          in
          let reconstitute =
            { Ast.head = Ast.head_of_atom { Ast.pred = qpred; args = fresh };
              body =
                [ Ast.Pos { Ast.pred = seed; args = select fresh bound_pos };
                  Ast.Pos { Ast.pred = ans; args = select fresh free_pos }
                ]
            }
          in
          Some
            ( Right_linear,
              { Magic.mrules = (bootstrap :: magic_rules) @ ans_rules @ [ reconstitute ];
                answer_pred = qpred;
                seed_pred = seed;
                seed_positions = bound_pos;
                goal_id = false
              } )
        end
        else None
      end
    end
  end
