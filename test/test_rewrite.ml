(* Unit tests for the optimizer layer: SCC/stratification analysis,
   adornment, the magic rewritings, factoring, existential rewriting,
   and plan selection. *)

open Coral_term
open Coral_lang
open Coral_rewrite

let parse_module src =
  match Parser.program src with
  | Ok [ Ast.Module_item m ] -> m
  | Ok _ -> Alcotest.fail "expected exactly one module"
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let rules_of src = (parse_module src).Ast.rules

let tc_rules =
  rules_of
    "module m.\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."

let heads rules =
  List.map (fun (r : Ast.rule) -> Symbol.name r.Ast.head.Ast.hpred) rules
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* SCC / stratification                                                *)
(* ------------------------------------------------------------------ *)

let test_scc_basic () =
  let g = Scc.analyze tc_rules in
  Alcotest.(check bool) "stratified" true (Scc.is_stratified g);
  let path = Symbol.intern "path" and edge = Symbol.intern "edge" in
  Alcotest.(check bool) "path above edge" true (Scc.scc_of g path > Scc.scc_of g edge);
  Alcotest.(check bool) "path recursive" true
    (Symbol.Set.mem path (Scc.recursive_preds g (Scc.scc_of g path)));
  Alcotest.(check bool) "edge not recursive" true
    (Symbol.Set.is_empty (Scc.recursive_preds g (Scc.scc_of g edge)))

let test_scc_mutual () =
  let rules =
    rules_of "module m.\np(X) :- q(X).\nq(X) :- r(X).\nr(X) :- p(X).\ns(X) :- p(X).\nend_module."
  in
  let g = Scc.analyze rules in
  let scc name = Scc.scc_of g (Symbol.intern name) in
  Alcotest.(check int) "p q r together" (scc "p") (scc "q");
  Alcotest.(check int) "q r together" (scc "q") (scc "r");
  Alcotest.(check bool) "s above" true (scc "s" > scc "p");
  Alcotest.(check int) "recursive group of three" 3
    (Symbol.Set.cardinal (Scc.recursive_preds g (scc "p")))

let test_scc_nonstratified () =
  let rules = rules_of "module m.\nwin(X) :- move(X, Y), not win(Y).\nend_module." in
  let g = Scc.analyze rules in
  Alcotest.(check bool) "win/not win is non-stratified" false (Scc.is_stratified g);
  (* aggregation inside a cycle is non-stratified too *)
  let rules =
    rules_of "module m.\nt(P, sum(C)) :- sub(P, S), t(S, C).\nend_module."
  in
  Alcotest.(check bool) "recursive aggregation flagged" false
    (Scc.is_stratified (Scc.analyze rules))

(* ------------------------------------------------------------------ *)
(* Adornment                                                           *)
(* ------------------------------------------------------------------ *)

let test_adorn_tc () =
  let a =
    Adorn.adorn tc_rules ~query:(Symbol.intern "path")
      ~adorn:(Ast.adornment_of_string "bf")
  in
  Alcotest.(check string) "query pred renamed" "path#bf" (Symbol.name a.Adorn.query_pred);
  (* both rules specialized once: recursive call is bf again *)
  Alcotest.(check int) "two adorned rules" 2 (List.length a.Adorn.arules);
  Alcotest.(check (list string)) "only path#bf defined" [ "path#bf" ] (heads a.Adorn.arules);
  (* the recursive body literal uses the adorned name, edge unchanged *)
  let rec_rule = List.nth a.Adorn.arules 1 in
  let body_preds =
    List.filter_map
      (fun l -> Option.map (fun (at : Ast.atom) -> Symbol.name at.Ast.pred) (Ast.literal_atom l))
      rec_rule.Ast.body
  in
  Alcotest.(check (list string)) "body" [ "edge"; "path#bf" ] (List.sort compare body_preds)

let test_adorn_multiple_patterns () =
  (* p called once bound-bound and once bound-free *)
  let rules =
    rules_of
      "module m.\n\
       q(X, Y) :- a(X), p(X, Y), p(Y, X).\n\
       p(X, Y) :- e(X, Y).\n\
       end_module."
  in
  let a = Adorn.adorn rules ~query:(Symbol.intern "q") ~adorn:(Ast.adornment_of_string "bf") in
  let produced = heads a.Adorn.arules in
  Alcotest.(check bool) "p#bf produced" true (List.mem "p#bf" produced);
  Alcotest.(check bool) "p#bb produced" true (List.mem "p#bb" produced)

let test_adorn_negation_all_free () =
  let rules =
    rules_of
      "module m.\nq(X) :- a(X), not p(X).\np(X) :- e(X).\nend_module."
  in
  let a = Adorn.adorn rules ~query:(Symbol.intern "q") ~adorn:(Ast.adornment_of_string "b") in
  Alcotest.(check bool) "negated pred adorned all-free" true
    (List.mem "p#f" (heads a.Adorn.arules));
  (* ... unless ordered search pushes bindings *)
  let a = Adorn.adorn ~bind_negated:true rules ~query:(Symbol.intern "q") ~adorn:(Ast.adornment_of_string "b") in
  Alcotest.(check bool) "ordered search pushes bindings into negation" true
    (List.mem "p#b" (heads a.Adorn.arules))

(* ------------------------------------------------------------------ *)
(* Magic rewritings                                                    *)
(* ------------------------------------------------------------------ *)

let adorned_tc () =
  Adorn.adorn tc_rules ~query:(Symbol.intern "path") ~adorn:(Ast.adornment_of_string "bf")

let test_magic_structure () =
  let mr = Magic.rewrite (adorned_tc ()) in
  Alcotest.(check string) "seed predicate" "m#path#bf" (Symbol.name mr.Magic.seed_pred);
  Alcotest.(check (list int)) "seed from argument 0" [ 0 ] mr.Magic.seed_positions;
  (* guarded original rules (2) + one magic rule for the recursive call *)
  Alcotest.(check int) "three rules" 3 (List.length mr.Magic.mrules);
  (* every original rule is guarded by the magic literal *)
  let guarded =
    List.filter
      (fun (r : Ast.rule) -> Symbol.equal r.Ast.head.Ast.hpred mr.Magic.answer_pred)
      mr.Magic.mrules
  in
  List.iter
    (fun (r : Ast.rule) ->
      match r.Ast.body with
      | Ast.Pos g :: _ ->
        Alcotest.(check string) "guard first" "m#path#bf" (Symbol.name g.Ast.pred)
      | _ -> Alcotest.fail "expected magic guard")
    guarded

let test_supp_magic_structure () =
  let mr = Supp_magic.rewrite (adorned_tc ()) in
  (* exit rule guarded; magic rule; sup rule; head-from-sup rule *)
  Alcotest.(check int) "four rules" 4 (List.length mr.Magic.mrules);
  Alcotest.(check bool) "a supplementary predicate exists" true
    (List.exists
       (fun (r : Ast.rule) ->
         String.length (Symbol.name r.Ast.head.Ast.hpred) >= 4
         && String.sub (Symbol.name r.Ast.head.Ast.hpred) 0 4 = "sup#")
       mr.Magic.mrules)

let test_goal_id_wrapping () =
  let mr = Supp_magic.rewrite_goal_id (adorned_tc ()) in
  Alcotest.(check bool) "goal_id flag" true mr.Magic.goal_id;
  (* magic literals carry a single wrapped term *)
  let ok =
    List.for_all
      (fun (r : Ast.rule) ->
        List.for_all
          (fun lit ->
            match (lit : Ast.literal) with
            | Ast.Pos a when Symbol.name a.Ast.pred = "m#path#bf" ->
              Array.length a.Ast.args = 1
              && (match a.Ast.args.(0) with
                 | Term.App { sym; _ } -> Symbol.name sym = "$goal#path#bf"
                 | _ -> false)
            | _ -> true)
          r.Ast.body)
      mr.Magic.mrules
  in
  Alcotest.(check bool) "every magic literal wrapped" true ok

let test_factoring_left_linear () =
  (* left-recursive TC passes the bound argument unchanged to the
     recursive call: factoring applies and produces no magic rules *)
  let rules =
    rules_of
      "module m.\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\nend_module."
  in
  let a = Adorn.adorn rules ~query:(Symbol.intern "path") ~adorn:(Ast.adornment_of_string "bf") in
  match Factoring.rewrite a with
  | None | Some (Factoring.Right_linear, _) ->
    Alcotest.fail "factoring should apply to left-linear TC"
  | Some (Factoring.Left_linear, mr) ->
    Alcotest.(check bool) "no magic predicates" true
      (List.for_all
         (fun (r : Ast.rule) ->
           String.length (Symbol.name r.Ast.head.Ast.hpred) < 2
           || String.sub (Symbol.name r.Ast.head.Ast.hpred) 0 2 <> "m#")
         mr.Magic.mrules);
    Alcotest.(check string) "seed" "m_seed#path#bf" (Symbol.name mr.Magic.seed_pred)

let test_factoring_right_linear () =
  (* right-recursive TC passes the free argument through: the answers
     are computed context-free and magic rules track the contexts *)
  match Factoring.rewrite (adorned_tc ()) with
  | None | Some (Factoring.Left_linear, _) ->
    Alcotest.fail "factoring should apply to right-linear TC"
  | Some (Factoring.Right_linear, mr) ->
    Alcotest.(check bool) "context-free answer predicate" true
      (List.exists
         (fun (r : Ast.rule) ->
           let n = Symbol.name r.Ast.head.Ast.hpred in
           String.length n > 4 && String.sub n 0 4 = "ans#")
         mr.Magic.mrules);
    Alcotest.(check bool) "magic context rules present" true
      (List.exists
         (fun (r : Ast.rule) ->
           let n = Symbol.name r.Ast.head.Ast.hpred in
           String.length n > 2 && String.sub n 0 2 = "m#")
         mr.Magic.mrules)

let test_factoring_not_applicable () =
  (* same-generation is neither left- nor right-linear *)
  let rules =
    rules_of
      "module m.\nsg(X, X) :- person(X).\nsg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\nend_module."
  in
  let a = Adorn.adorn rules ~query:(Symbol.intern "sg") ~adorn:(Ast.adornment_of_string "bf") in
  Alcotest.(check bool) "factoring declines sg" true (Factoring.rewrite a = None)

let test_existential_projection () =
  let rules =
    rules_of
      "module m.\n\
       step(X, Y, W) :- edge3(X, Y, W).\n\
       reach(X, Y) :- step(X, Y, _).\n\
       reach(X, Y) :- step(X, Z, _), reach(Z, Y).\n\
       end_module."
  in
  let out, dropped = Existential.rewrite ~keep:[ Symbol.intern "reach" ] rules in
  Alcotest.(check int) "one column dropped" 1 dropped;
  (* step becomes binary *)
  Alcotest.(check bool) "projected step exists" true
    (List.exists
       (fun (r : Ast.rule) ->
         String.length (Symbol.name r.Ast.head.Ast.hpred) > 4
         && Array.length r.Ast.head.Ast.hargs = 2
         && String.sub (Symbol.name r.Ast.head.Ast.hpred) 0 5 = "step#")
       out);
  (* a column used in the rule body is never dropped *)
  let rules2 =
    rules_of
      "module m.\nstep(X, Y, W) :- edge3(X, Y, W).\nreach(X, Y) :- step(X, Z, W), W < 5, reach(Z, Y).\nreach(X, Y) :- step(X, Y, _).\nend_module."
  in
  let _, dropped2 = Existential.rewrite ~keep:[ Symbol.intern "reach" ] rules2 in
  Alcotest.(check int) "used column kept" 0 dropped2

let test_sip_max_bound () =
  (* q(X, Y) :- r(Y, Z), e(X, W), s(W, Y): with X bound, max-bound SIP
     schedules e (one bound arg) before r (none), keeping bindings
     flowing: e, s, r *)
  let rules = rules_of "module m.\nq(X, Y) :- r(Y, Z), e(X, W), s(W, Y).\nend_module." in
  let order sip =
    let a =
      Adorn.adorn ~sip rules ~query:(Symbol.intern "q") ~adorn:(Ast.adornment_of_string "bf")
    in
    match a.Adorn.arules with
    | [ r ] ->
      List.filter_map
        (fun l -> Option.map (fun (at : Ast.atom) -> Symbol.name at.Ast.pred) (Ast.literal_atom l))
        r.Ast.body
    | _ -> Alcotest.fail "one rule expected"
  in
  Alcotest.(check (list string)) "left-to-right order kept" [ "r"; "e"; "s" ]
    (order Ast.Left_to_right);
  Alcotest.(check (list string)) "max-bound reorders" [ "e"; "s"; "r" ] (order Ast.Max_bound);
  (* builtins stay behind their original predecessors *)
  let rules2 =
    rules_of "module m.\nq(X, Y) :- r(Y, Z), Z < 9, e(X, W), s(W, Y).\nend_module."
  in
  let a =
    Adorn.adorn ~sip:Ast.Max_bound rules2 ~query:(Symbol.intern "q")
      ~adorn:(Ast.adornment_of_string "bf")
  in
  (match a.Adorn.arules with
  | [ r ] ->
    let names =
      List.map
        (fun l ->
          match (l : Ast.literal) with
          | Ast.Pos at -> Symbol.name at.Ast.pred
          | Ast.Cmp _ -> "<cmp>"
          | _ -> "?")
        r.Ast.body
    in
    (* the comparison appears only after r (its original predecessor) *)
    let rec after_r seen = function
      | [] -> false
      | "<cmp>" :: _ -> seen
      | "r" :: rest -> after_r true rest
      | _ :: rest -> after_r seen rest
    in
    Alcotest.(check bool) "comparison after r" true (after_r false names)
  | _ -> Alcotest.fail "one rule expected")

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let plan_of src pred adorn =
  let m = parse_module src in
  Optimizer.plan_query ~module_:m ~pred:(Symbol.intern pred)
    ~adorn:(Ast.adornment_of_string adorn)

let tc_text anns =
  Printf.sprintf
    "module m.\nexport path(bf).\n%s\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."
    anns

let noted prefix (p : Optimizer.plan) =
  List.exists (fun n -> String.starts_with ~prefix n) p.Optimizer.notes

let single_context (p : Optimizer.plan) =
  match p.Optimizer.seed with Some s -> s.Optimizer.single_context | None -> false

let test_plan_defaults () =
  let plan src pred adorn =
    match plan_of src pred adorn with Ok p -> p | Error e -> Alcotest.fail e
  in
  (* right-linear TC, bf: the optimizer picks context factoring *)
  let p = plan (tc_text "") "path" "bf" in
  Alcotest.(check bool) "materialized" true (p.Optimizer.mode = Optimizer.Materialized);
  Alcotest.(check bool) "bsn" true (p.Optimizer.fixpoint = Ast.Basic_seminaive);
  Alcotest.(check bool) "has seed" true (p.Optimizer.seed <> None);
  Alcotest.(check bool) "factoring noted" true
    (noted "context factoring: path is right-linear for bf" p);
  Alcotest.(check bool) "factored plan is single-context" true (single_context p);
  (* same generation is not linear: supplementary magic *)
  let sg =
    "module m.
export sg(bf).
sg(X, X) :- person(X).
     sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
end_module."
  in
  let p = plan sg "sg" "bf" in
  Alcotest.(check bool) "sg: supp magic noted" true (noted "supplementary magic" p);
  Alcotest.(check bool) "sg: multi-context" false (single_context p);
  (* a saved module's instance serves many seeds, and a multiset counts
     derivations: both keep supplementary magic on right-linear TC *)
  List.iter
    (fun anns ->
      let p = plan (tc_text anns) "path" "bf" in
      Alcotest.(check bool) (anns ^ ": supp magic noted") true (noted "supplementary magic" p);
      Alcotest.(check bool) (anns ^ ": multi-context") false (single_context p))
    [ "@save_module."; "@multiset path/2." ];
  (* an explicit annotation still wins *)
  let p = plan (tc_text "@magic.") "path" "bf" in
  Alcotest.(check bool) "requested magic" true (noted "magic templates" p)

let test_plan_free_query_skips_rewriting () =
  match plan_of (tc_text "") "path" "ff" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "no seed for all-free" true (p.Optimizer.seed = None);
    Alcotest.(check string) "answer pred is the original" "path"
      (Symbol.name p.Optimizer.answer_pred)

let test_plan_ordered_search_guards () =
  let src =
    "module m.\nexport win(b).\nwin(X) :- move(X, Y), not win(Y).\nend_module."
  in
  match plan_of src "win" "b" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "ordered search selected" true p.Optimizer.ordered_search;
    (* done guard precedes the negated literal *)
    let has_done_guard =
      List.exists
        (fun (r : Ast.rule) ->
          let rec scan = function
            | Ast.Pos a :: Ast.Neg _ :: _ ->
              String.length (Symbol.name a.Ast.pred) > 5
              && String.sub (Symbol.name a.Ast.pred) 0 5 = "done#"
            | _ :: rest -> scan rest
            | [] -> false
          in
          scan r.Ast.body)
        p.Optimizer.prules
    in
    Alcotest.(check bool) "done guard present" true has_done_guard

let test_plan_errors () =
  (match plan_of (tc_text "") "nosuch" "bf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown predicate must fail");
  (match plan_of (tc_text "") "path" "bff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch must fail");
  (* unsafe negation is rejected at planning *)
  match plan_of "module m.\nexport p(f).\np(X) :- a(X), not q(Y).\nend_module." "p" "f" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe negation must fail"

(* A rewritten program always evaluates to the same answers as the
   original: covered end-to-end in test_eval's property; here we check
   the structural invariant that rewriting only renames/derives
   predicates (every original base predicate survives). *)
let prop_rewrite_preserves_base_predicates =
  QCheck2.Test.make ~name:"rewriting keeps base literals intact" ~count:100
    QCheck2.Gen.(int_range 0 2)
    (fun variant ->
      let adorned = adorned_tc () in
      let mr =
        match variant with
        | 0 -> Magic.rewrite adorned
        | 1 -> Supp_magic.rewrite adorned
        | _ -> Supp_magic.rewrite_goal_id adorned
      in
      List.for_all
        (fun (r : Ast.rule) ->
          List.for_all
            (fun lit ->
              match (lit : Ast.literal) with
              | Ast.Pos a | Ast.Neg a ->
                let name = Symbol.name a.Ast.pred in
                (* edge literals keep their name and arity *)
                name <> "edge" || Array.length a.Ast.args = 2
              | _ -> true)
            r.Ast.body)
        mr.Magic.mrules)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Capability analysis                                                 *)
(* ------------------------------------------------------------------ *)

let capability src =
  let m = parse_module src in
  Capability.analyse ~foreign:(fun _ _ -> false) [ m ] []

let find_pred (a : Capability.t) key =
  match
    List.find_opt (fun (p : Capability.pred) -> p.Capability.key = key) a.Capability.preds
  with
  | Some p -> p
  | None -> Alcotest.failf "no predicate %s" key

let test_capability_shape () =
  let a =
    capability
      "module m.\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."
  in
  let path = find_pred a "path/2" in
  Alcotest.(check (list string)) "only derived predicates" [ "path/2" ]
    (List.map (fun (p : Capability.pred) -> p.Capability.key) a.Capability.preds);
  Alcotest.(check bool) "recursive" true path.Capability.recursive;
  Alcotest.(check (list (list int))) "derived body positions, in program order" [ []; [ 1 ] ]
    (List.map (fun (r : Capability.rule) -> r.Capability.derived_at) a.Capability.rules);
  Alcotest.(check int) "rules grouped by head" 2 (List.length path.Capability.rules);
  Alcotest.(check bool) "maintainable" true (path.Capability.maintainable = Ok ());
  Alcotest.(check bool) "distributable" true (path.Capability.distributable = Ok ())

(* Recursion is per symbol: q/1 is recursive, so q/2 counts as
   recursive too and its value-generating [=] falls back to recompute
   (conservative; the distributable verdict does not read recursion). *)
let test_capability_arity_conflation () =
  let a =
    capability
      "module m.\nq(X) :- e(X).\nq(X) :- q(X), f(X).\nq(X, Y) :- e(X), Y = X + 1.\nend_module."
  in
  let q2 = find_pred a "q/2" in
  Alcotest.(check bool) "q/2 counts as recursive" true q2.Capability.recursive;
  Alcotest.(check bool) "q/2 falls back" true (Result.is_error q2.Capability.maintainable);
  Alcotest.(check bool) "q/1 still maintainable" true
    ((find_pred a "q/1").Capability.maintainable = Ok ());
  Alcotest.(check bool) "q/2 still distributable" true (q2.Capability.distributable = Ok ())

let () =
  Alcotest.run "coral_rewrite"
    [ ( "scc",
        [ Alcotest.test_case "basic" `Quick test_scc_basic;
          Alcotest.test_case "mutual recursion" `Quick test_scc_mutual;
          Alcotest.test_case "non-stratified detection" `Quick test_scc_nonstratified
        ] );
      ( "adorn",
        [ Alcotest.test_case "transitive closure" `Quick test_adorn_tc;
          Alcotest.test_case "multiple binding patterns" `Quick test_adorn_multiple_patterns;
          Alcotest.test_case "negation" `Quick test_adorn_negation_all_free
        ] );
      ( "magic",
        [ Alcotest.test_case "magic templates" `Quick test_magic_structure;
          Alcotest.test_case "supplementary magic" `Quick test_supp_magic_structure;
          Alcotest.test_case "goal-id wrapping" `Quick test_goal_id_wrapping;
          Alcotest.test_case "factoring left-linear" `Quick test_factoring_left_linear;
          Alcotest.test_case "factoring right-linear" `Quick test_factoring_right_linear;
          Alcotest.test_case "factoring declines" `Quick test_factoring_not_applicable;
          Alcotest.test_case "existential projection" `Quick test_existential_projection;
          Alcotest.test_case "max-bound SIP" `Quick test_sip_max_bound
        ]
        @ qcheck [ prop_rewrite_preserves_base_predicates ] );
      ( "plans",
        [ Alcotest.test_case "defaults" `Quick test_plan_defaults;
          Alcotest.test_case "free query" `Quick test_plan_free_query_skips_rewriting;
          Alcotest.test_case "ordered search guards" `Quick test_plan_ordered_search_guards;
          Alcotest.test_case "errors" `Quick test_plan_errors
        ] );
      ( "capability",
        [ Alcotest.test_case "shape of the result" `Quick test_capability_shape;
          Alcotest.test_case "recursion is per symbol" `Quick test_capability_arity_conflation
        ] )
    ]
