(* Integration tests: parse -> optimize -> evaluate, across evaluation
   strategies, rewritings, negation, aggregation, and module calls. *)

open Coral_term
open Coral_lang
open Coral_eval

let setup src =
  let e = Engine.create () in
  ignore (Engine.consult e src);
  e

let rows_of (r : Engine.query_result) =
  List.map (fun row -> Array.to_list row |> List.map Term.to_string) r.Engine.rows
  |> List.sort compare

let check_query e q expected =
  let r = Engine.query_string e q in
  Alcotest.(check (list (list string))) q (List.sort compare expected) (rows_of r)

(* ------------------------------------------------------------------ *)
(* Transitive closure under every strategy                            *)
(* ------------------------------------------------------------------ *)

let edges = {|
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(2, 6).
|}

let tc_module anns =
  Printf.sprintf
    {|
module paths.
export path(bf).
export path(ff).
%s
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}
    anns

let expected_from_2 = [ [ "3" ]; [ "4" ]; [ "5" ]; [ "6" ] ]

let test_tc_strategies () =
  List.iter
    (fun anns ->
      let e = setup (edges ^ tc_module anns) in
      check_query e "path(2, Y)" expected_from_2;
      check_query e "path(4, Y)" [ [ "5" ] ];
      (* all-free query *)
      let all = Engine.query_string e "path(X, Y)" in
      Alcotest.(check int) (anns ^ " full closure size") 12 (List.length all.Engine.rows))
    [ "";
      "@magic.";
      "@supplementary_magic.";
      "@supplementary_magic_goal_id.";
      "@no_rewriting.";
      "@naive.";
      "@psn.";
      "@factoring.";
      "@no_existential.";
      "@sip(max_bound).";
      "@pipelined.";
      "@lazy_eval.";
      "@save_module."
    ]

let test_cyclic_tc () =
  let e =
    setup
      {|
edge(1, 2). edge(2, 3). edge(3, 1).
module paths.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}
  in
  check_query e "path(1, Y)" [ [ "1" ]; [ "2" ]; [ "3" ] ]

(* right-linear variant exercises the factoring rewrite *)
let test_factoring_right_linear () =
  let e =
    setup
      (edges
     ^ {|
module paths.
export path(bf).
@factoring.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|})
  in
  (* the recursive rule is both left- and right-linear for bf *)
  check_query e "path(2, Y)" expected_from_2

let test_same_generation () =
  let e =
    setup
      {|
par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1). par(c3, p2). par(g1, gg).
module sg.
export sg(bf).
sg(X, X) :- par(X, _).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
end_module.
|}
  in
  let r = Engine.query_string e "sg(c1, Y)" in
  let ys = rows_of r in
  Alcotest.(check bool) "c1 sg c2" true (List.mem [ "c2" ] ys);
  Alcotest.(check bool) "c1 sg c3" true (List.mem [ "c3" ] ys);
  Alcotest.(check bool) "not same gen as parent" false (List.mem [ "p1" ] ys)

(* ------------------------------------------------------------------ *)
(* Figure 3: shortest path with aggregate selections                  *)
(* ------------------------------------------------------------------ *)

let shortest_path_program =
  {|
edge(a, b, 10). edge(b, c, 5). edge(a, c, 100). edge(c, a, 1). edge(c, d, 2).
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
s_p(X, Y, P, C)       :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1)       :- p(X, Z, P, C), edge(Z, Y, EC),
                         append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
|}

let test_shortest_path () =
  (* the graph is cyclic: without the aggregate selection this would
     diverge; with it, single-source shortest paths terminate *)
  let e = setup shortest_path_program in
  let r = Engine.query_string e "s_p(a, Y, P, C)" in
  let dist =
    List.filter_map
      (fun row ->
        match row with
        | [| y; _p; c |] -> Some (Term.to_string y, Term.to_string c)
        | _ -> None)
      (Array.of_list r.Engine.rows |> Array.to_list)
  in
  Alcotest.(check (option string)) "d(a,b)" (Some "10") (List.assoc_opt "b" dist);
  Alcotest.(check (option string)) "d(a,c)" (Some "15") (List.assoc_opt "c" dist);
  Alcotest.(check (option string)) "d(a,d)" (Some "17") (List.assoc_opt "d" dist);
  (* the witness path for c is the two-hop one *)
  let path_c =
    List.find_map
      (fun row ->
        match row with
        | [| y; p; _ |] when Term.to_string y = "c" -> Some (Term.to_string p)
        | _ -> None)
      r.Engine.rows
  in
  Alcotest.(check (option string)) "path to c" (Some "[edge(b, c), edge(a, b)]") path_c

(* ------------------------------------------------------------------ *)
(* Negation and aggregation                                           *)
(* ------------------------------------------------------------------ *)

let test_stratified_negation () =
  let e =
    setup
      {|
person(ann). person(bob). person(cal).
parent(ann, bob).
module leaves.
export childless(f).
haschild(X) :- parent(X, _).
childless(X) :- person(X), not haschild(X).
end_module.
|}
  in
  check_query e "childless(X)" [ [ "bob" ]; [ "cal" ] ]

let test_aggregate_heads () =
  let e =
    setup
      {|
emp(e1, sales, 100). emp(e2, sales, 150). emp(e3, tech, 200). emp(e4, tech, 250).
module stats.
export dept_count(ff).
export dept_total(ff).
export dept_min(ff).
export dept_people(ff).
dept_count(D, count(E)) :- emp(E, D, S).
dept_total(D, sum(S)) :- emp(E, D, S).
dept_min(D, min(S)) :- emp(E, D, S).
dept_people(D, <E>) :- emp(E, D, S).
end_module.
|}
  in
  check_query e "dept_count(D, N)" [ [ "sales"; "2" ]; [ "tech"; "2" ] ];
  check_query e "dept_total(D, N)" [ [ "sales"; "250" ]; [ "tech"; "450" ] ];
  check_query e "dept_min(D, N)" [ [ "sales"; "100" ]; [ "tech"; "200" ] ];
  check_query e "dept_people(sales, L)" [ [ "[e1, e2]" ] ]

let test_ordered_search_win () =
  (* win/move: not stratified (win negates win) but modularly
     stratified on an acyclic move graph; the optimizer must select
     Ordered Search automatically. *)
  let e =
    setup
      {|
move(a, b). move(b, c). move(c, d). move(a, e). move(e, f).
module game.
export win(b).
win(X) :- move(X, Y), not win(Y).
end_module.
|}
  in
  (* d and f are lost (no moves); c and e win; b loses (only move to c
     which wins... b -> c, c wins? c moves to d which loses, so c wins;
     b moves only to c (winning) so b loses; a moves to b (losing): a
     wins. e moves to f; f loses; e wins. *)
  check_query e "win(a)" [ [] ];
  check_query e "win(c)" [ [] ];
  check_query e "win(e)" [ [] ];
  Alcotest.(check int) "b does not win" 0
    (List.length (Engine.query_string e "win(b)").Engine.rows);
  Alcotest.(check int) "d does not win" 0
    (List.length (Engine.query_string e "win(d)").Engine.rows)

let test_ordered_search_aggregation () =
  (* modularly stratified aggregation: cost of a part is its own cost
     plus the total cost of its subparts (a DAG) *)
  let e =
    setup
      {|
basecost(wheel, 10). basecost(frame, 50). basecost(bike, 20).
sub(bike, wheel). sub(bike, frame).
assembly(wheel). assembly(frame). assembly(bike).
module bom.
export total(bf).
@ordered_search.
subtotal(P, sum(C)) :- sub(P, S), total(S, C).
total(P, C) :- assembly(P), not haspart(P), basecost(P, C).
total(P, C) :- assembly(P), haspart(P), subtotal(P, SC), basecost(P, BC), C = SC + BC.
haspart(P) :- sub(P, _).
end_module.
|}
  in
  check_query e "total(wheel, C)" [ [ "10" ] ];
  check_query e "total(bike, C)" [ [ "80" ] ]

(* ------------------------------------------------------------------ *)
(* Modules calling modules; pipelining; save module                   *)
(* ------------------------------------------------------------------ *)

let test_inter_module () =
  let e =
    setup
      {|
edge(1, 2). edge(2, 3). edge(3, 4).
module paths.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
module pairs.
export far(bf).
far(X, Y) :- path(X, Y), path(Y, _).
end_module.
|}
  in
  check_query e "far(1, Y)" [ [ "2" ]; [ "3" ] ]

let test_pipelined_module () =
  let e =
    setup
      {|
item(1). item(2). item(3).
module pick.
export double(bf).
@pipelined.
double(X, Y) :- item(X), Y = X + X.
end_module.
|}
  in
  check_query e "double(2, Y)" [ [ "4" ] ];
  (* pipelined module callable with free args too *)
  check_query e "double(X, Y)" [ [ "1"; "2" ]; [ "2"; "4" ]; [ "3"; "6" ] ]

let test_pipelined_side_effect_order () =
  (* pipelining guarantees rule order: first rule's answers first *)
  let e =
    setup
      {|
module m.
export pick(f).
@pipelined.
pick(first).
pick(second).
end_module.
|}
  in
  let r = Engine.query_string e "pick(X)" in
  Alcotest.(check (list (list string)))
    "order preserved"
    [ [ "first" ]; [ "second" ] ]
    (List.map (fun row -> Array.to_list row |> List.map Term.to_string) r.Engine.rows)

let test_save_module () =
  let e =
    setup
      (edges
     ^ {|
module paths.
export path(bf).
@save_module.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|})
  in
  check_query e "path(2, Y)" expected_from_2;
  check_query e "path(1, Y)" [ [ "2" ]; [ "3" ]; [ "4" ]; [ "5" ]; [ "6" ] ];
  (* repeated call hits the saved instance *)
  check_query e "path(2, Y)" expected_from_2

(* A saved instance serves every later call's seed.  Right-linear
   factoring answers context-free, so under @save_module it would pair
   the second seed with the first one's answers; the optimizer keeps
   supplementary magic there, with or without an explicit @factoring. *)
let test_save_module_right_linear () =
  List.iter
    (fun anns ->
      let e =
        setup
          (Printf.sprintf
             {|
edge(1, 2). edge(2, 3). edge(5, 6).
module paths.
export path(bf).
%s
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}
             anns)
      in
      check_query e "path(1, Y)" [ [ "2" ]; [ "3" ] ];
      check_query e "path(5, Y)" [ [ "6" ] ];
      check_query e "path(2, Y)" [ [ "3" ] ])
    [ "@factoring. @save_module."; "@save_module." ]

let test_multiset () =
  let e =
    setup
      {|
hop(a, b). hop(b, c). hopb(a, b2). hopb(b2, c).
module routes.
export twohop(ff).
@multiset twohop/2.
twohop(X, Y) :- hop(X, Z), hop(Z, Y).
twohop(X, Y) :- hopb(X, Z), hopb(Z, Y).
end_module.
|}
  in
  (* two derivations of (a, c) both kept under multiset semantics *)
  let seq = Engine.call e (Symbol.intern "twohop") [| Term.atom "a"; Term.atom "c" |] in
  Alcotest.(check int) "two copies" 2 (Seq.length seq)

(* ------------------------------------------------------------------ *)
(* Non-ground data, builtins, bignums through rules                    *)
(* ------------------------------------------------------------------ *)

let test_nonground_facts () =
  let e =
    setup
      {|
likes(ann, X).
likes(bob, beer).
module q.
export both(f).
both(P) :- likes(P, beer).
end_module.
|}
  in
  check_query e "both(P)" [ [ "ann" ]; [ "bob" ] ]

let test_builtins_in_rules () =
  let e =
    setup
      {|
module lists.
export rev(bf).
rev(L, R) :- rev_acc(L, [], R).
rev_acc([], A, A).
rev_acc([H | T], A, R) :- rev_acc(T, [H | A], R).
end_module.
|}
  in
  check_query e "rev([1, 2, 3], R)" [ [ "[3, 2, 1]" ] ]

let test_arith_and_bignum () =
  let e = setup {|
module m.
export f(bf).
f(X, Y) :- Y = X * X + 1.
end_module.
|} in
  check_query e "f(10, Y)" [ [ "101" ] ];
  check_query e "f(99999999999999999999, Y)"
    [ [ "9999999999999999999800000000000000000002" ] ]

let test_comparisons () =
  let e =
    setup
      {|
num(1). num(5). num(10).
module m.
export big(f).
export pairs(ff).
big(X) :- num(X), X >= 5.
pairs(X, Y) :- num(X), num(Y), X < Y.
end_module.
|}
  in
  check_query e "big(X)" [ [ "10" ]; [ "5" ] ];
  Alcotest.(check int) "ordered pairs" 3
    (List.length (Engine.query_string e "pairs(X, Y)").Engine.rows)

(* ------------------------------------------------------------------ *)
(* Properties: strategy equivalence on random graphs                  *)
(* ------------------------------------------------------------------ *)

let strategy_equiv_test =
  QCheck2.Test.make ~name:"magic variants agree with unrewritten evaluation" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 25) (pair (int_range 0 7) (int_range 0 7)))
        (int_range 0 7))
    (fun (edge_list, src) ->
      let facts =
        String.concat ""
          (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d).\n" a b) edge_list)
      in
      let answers anns =
        let e = setup (facts ^ tc_module anns) in
        let r = Engine.query_string e (Printf.sprintf "path(%d, Y)" src) in
        rows_of r
      in
      let reference = answers "@no_rewriting." in
      List.for_all
        (fun anns -> answers anns = reference)
        [ ""; "@magic."; "@supplementary_magic_goal_id."; "@factoring."; "@psn."; "@naive." ])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_eval"
    [ ( "strategies",
        [ Alcotest.test_case "transitive closure everywhere" `Quick test_tc_strategies;
          Alcotest.test_case "cyclic closure" `Quick test_cyclic_tc;
          Alcotest.test_case "factoring right-linear" `Quick test_factoring_right_linear;
          Alcotest.test_case "same generation" `Quick test_same_generation
        ]
        @ qcheck [ strategy_equiv_test ] );
      ( "figure3",
        [ Alcotest.test_case "shortest path with aggregate selection" `Quick test_shortest_path ] );
      ( "negation & aggregation",
        [ Alcotest.test_case "stratified negation" `Quick test_stratified_negation;
          Alcotest.test_case "aggregate heads" `Quick test_aggregate_heads;
          Alcotest.test_case "ordered search: win/move" `Quick test_ordered_search_win;
          Alcotest.test_case "ordered search: aggregation" `Quick test_ordered_search_aggregation
        ] );
      ( "modules",
        [ Alcotest.test_case "inter-module calls" `Quick test_inter_module;
          Alcotest.test_case "pipelined module" `Quick test_pipelined_module;
          Alcotest.test_case "pipelined order" `Quick test_pipelined_side_effect_order;
          Alcotest.test_case "save module" `Quick test_save_module;
          Alcotest.test_case "save module, right-linear" `Quick test_save_module_right_linear;
          Alcotest.test_case "multiset" `Quick test_multiset
        ] );
      ( "data",
        [ Alcotest.test_case "non-ground facts" `Quick test_nonground_facts;
          Alcotest.test_case "list builtins" `Quick test_builtins_in_rules;
          Alcotest.test_case "arithmetic & bignums" `Quick test_arith_and_bignum;
          Alcotest.test_case "comparisons" `Quick test_comparisons
        ] )
    ]
