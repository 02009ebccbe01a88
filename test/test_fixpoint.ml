(* Direct tests of the fixpoint layer: stepping, seeds, incremental
   continuation, lazy answer batches, and provenance — below the engine,
   with a hand-built resolver. *)

open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite
open Coral_eval

(* Right-linear TC.  The tests below are about multi-context magic
   instances (answers of every generated subgoal, seeds added
   incrementally), so the rewriting is pinned: unannotated, the
   optimizer would pick single-context factoring for this program. *)
let tc_text anns =
  Printf.sprintf
    {|
module m.
export path(bf).
%s
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}
    anns

let parse_module src =
  match Parser.program src with
  | Ok [ Ast.Module_item m ] -> m
  | _ -> assert false

let tc_module = parse_module (tc_text "@supplementary_magic.")

let make_instance ?trace ?(module_ = tc_module) edges =
  let edge_rel = Hash_relation.create ~name:"edge" ~arity:2 () in
  List.iter
    (fun (a, b) -> ignore (Relation.insert_terms edge_rel [| Term.int a; Term.int b |]))
    edges;
  let resolve pred _arity =
    if Symbol.name pred = "edge" then Module_struct.P_rel edge_rel
    else Module_struct.P_rel (Hash_relation.create ~name:(Symbol.name pred) ~arity:2 ())
  in
  let plan =
    match
      Optimizer.plan_query ~module_ ~pred:(Symbol.intern "path")
        ~adorn:(Ast.adornment_of_string "bf")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fixpoint.create ?trace (Module_struct.compile ~resolve plan), edge_rel

let answers_of inst =
  Fixpoint.answers inst ()
  |> List.of_seq
  |> List.map (fun (t : Tuple.t) ->
         Array.to_list t.Tuple.terms
         |> List.map (function Term.Const (Value.Int i) -> i | _ -> -1))
  |> List.sort compare

let test_stepping () =
  let inst, _ = make_instance [ 1, 2; 2, 3; 3, 4 ] in
  Alcotest.(check bool) "fresh seed" true (Fixpoint.add_seed inst [| Term.int 1 |]);
  Alcotest.(check bool) "duplicate seed" false (Fixpoint.add_seed inst [| Term.int 1 |]);
  (* step to completion by hand *)
  let steps = ref 0 in
  while Fixpoint.step inst do
    incr steps
  done;
  Alcotest.(check bool) "took several steps" true (!steps > 2);
  Alcotest.(check bool) "stays complete" false (Fixpoint.step inst);
  (* the answer relation holds answers for every generated subgoal
     (magic context); callers narrow with their pattern *)
  Alcotest.(check (list (list int))) "answers of every context"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ]; [ 3; 4 ] ]
    (answers_of inst);
  Alcotest.(check bool) "rounds counted" true (Fixpoint.rounds inst > 0)

let count_pattern inst src =
  Seq.length (Fixpoint.answers inst ~pattern:([| Term.int src; Term.var 0 |], Bindenv.empty) ())

let test_incremental_seeds () =
  let inst, _ = make_instance (List.init 63 (fun i -> i, i + 1)) in
  ignore (Fixpoint.add_seed inst [| Term.int 32 |]);
  Fixpoint.run inst;
  Alcotest.(check int) "closure from 32" 31 (count_pattern inst 32);
  (* a new seed re-opens the evaluation incrementally (save-module
     semantics): total work matches evaluating both seeds afresh, i.e.
     nothing from the first call is re-derived *)
  ignore (Fixpoint.add_seed inst [| Term.int 0 |]);
  Fixpoint.run inst;
  Alcotest.(check int) "closure from 0" 63 (count_pattern inst 0);
  Alcotest.(check int) "closure from 32 intact" 31 (count_pattern inst 32);
  let incremental_work = (Fixpoint.answer_relation inst).Relation.stats.Relation.inserts in
  let fresh, _ = make_instance (List.init 63 (fun i -> i, i + 1)) in
  ignore (Fixpoint.add_seed fresh [| Term.int 32 |]);
  ignore (Fixpoint.add_seed fresh [| Term.int 0 |]);
  Fixpoint.run fresh;
  let fresh_work = (Fixpoint.answer_relation fresh).Relation.stats.Relation.inserts in
  Alcotest.(check int) "no derivation repeated across the two calls" fresh_work
    incremental_work

let test_lazy_batches () =
  let inst, _ = make_instance [ 1, 2; 2, 3; 3, 4; 4, 5 ] in
  ignore (Fixpoint.add_seed inst [| Term.int 1 |]);
  (* consume answers strictly by stepping: new_answers never runs the
     fixpoint itself *)
  let pattern = [| Term.int 1; Term.var 0 |], Bindenv.empty in
  let total = ref 0 in
  let drain () = total := !total + Seq.length (Fixpoint.new_answers inst ~pattern ()) in
  drain ();
  Alcotest.(check int) "nothing before stepping" 0 !total;
  let continue = ref true in
  while !continue do
    continue := Fixpoint.step inst;
    drain ()
  done;
  Alcotest.(check int) "all answers streamed out" 4 !total;
  Alcotest.(check int) "no stragglers" 0 (Seq.length (Fixpoint.new_answers inst ~pattern ()))

let test_provenance () =
  let inst, _ = make_instance ~trace:true [ 1, 2; 2, 3 ] in
  ignore (Fixpoint.add_seed inst [| Term.int 1 |]);
  Fixpoint.run inst;
  let ms = Fixpoint.module_structure inst in
  let answer (a, b) =
    Fixpoint.answers inst ()
    |> List.of_seq
    |> List.find (fun (t : Tuple.t) ->
           Term.equal t.Tuple.terms.(0) (Term.int a) && Term.equal t.Tuple.terms.(1) (Term.int b))
  in
  (* path(1, 3) was derived by the recursive rule with a path witness *)
  (match Fixpoint.provenance inst (answer (1, 3)) ~slot:ms.Module_struct.answer_slot with
  | Some (rule_text, witnesses) ->
    Alcotest.(check bool) "rule text mentions the head" true
      (String.length rule_text > 0);
    Alcotest.(check bool) "has witnesses" true (witnesses <> [])
  | None -> Alcotest.fail "expected provenance for a derived fact");
  (* an untraced instance records nothing *)
  let inst2, _ = make_instance [ 1, 2 ] in
  ignore (Fixpoint.add_seed inst2 [| Term.int 1 |]);
  Fixpoint.run inst2;
  let ms2 = Fixpoint.module_structure inst2 in
  Alcotest.(check bool) "no provenance without trace" true
    (Fixpoint.provenance inst2 (answer (1, 2)) ~slot:ms2.Module_struct.answer_slot = None)

let test_answer_pattern_scan () =
  let inst, _ = make_instance [ 1, 2; 1, 3; 2, 3 ] in
  ignore (Fixpoint.add_seed inst [| Term.int 1 |]);
  let pattern = [| Term.int 1; Term.var 0 |], Bindenv.empty in
  let hits = Fixpoint.answers inst ~pattern () in
  Alcotest.(check bool) "pattern narrows the scan" true (Seq.length hits >= 2)

(* A right-factored plan derives context-free answers and pairs them
   with every seed, so its instance must refuse a second context rather
   than answer it with the first one's reachable set. *)
let test_single_context_seed () =
  let inst, _ = make_instance ~module_:(parse_module (tc_text "")) [ 1, 2; 2, 3; 5, 6 ] in
  (match (Fixpoint.module_structure inst).Module_struct.plan.Optimizer.seed with
  | Some s -> Alcotest.(check bool) "plan is single-context" true s.Optimizer.single_context
  | None -> Alcotest.fail "expected a seeded plan");
  Alcotest.(check bool) "first seed" true (Fixpoint.add_seed inst [| Term.int 1 |]);
  Alcotest.(check bool) "same seed again" false (Fixpoint.add_seed inst [| Term.int 1 |]);
  Alcotest.(check (list (list int))) "answers of the one context" [ [ 1; 2 ]; [ 1; 3 ] ]
    (answers_of inst);
  Alcotest.check_raises "second context refused"
    (Invalid_argument "Fixpoint.add_seed: a single-context plan already holds a different seed")
    (fun () -> ignore (Fixpoint.add_seed inst [| Term.int 5 |]));
  Alcotest.(check (list (list int))) "answers unchanged" [ [ 1; 2 ]; [ 1; 3 ] ] (answers_of inst)

let () =
  Alcotest.run "coral_fixpoint"
    [ ( "fixpoint",
        [ Alcotest.test_case "stepping" `Quick test_stepping;
          Alcotest.test_case "incremental seeds" `Quick test_incremental_seeds;
          Alcotest.test_case "lazy batches" `Quick test_lazy_batches;
          Alcotest.test_case "provenance" `Quick test_provenance;
          Alcotest.test_case "pattern scans" `Quick test_answer_pattern_scan;
          Alcotest.test_case "single-context seed" `Quick test_single_context_seed
        ] )
    ]
