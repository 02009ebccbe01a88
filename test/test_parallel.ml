(* Parallel semi-naive evaluation: differential equivalence against
   sequential evaluation on randomized programs, per-instance
   cancellation (the regression the shared-mutable-state fixes are
   for), composition with persistent storage, and the plan-cache LRU
   bound. *)

open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite
open Coral_eval
module Obs = Coral_obs.Obs
module Plan_cache = Coral_server.Plan_cache

(* ------------------------------------------------------------------ *)
(* Differential: parallel output must equal sequential output           *)
(* ------------------------------------------------------------------ *)

(* Recursion (path), a second SCC consuming it (same), and an aggregate
   in a later stratum (rc) — the shapes the round merge must keep
   deterministic. *)
let diff_program =
  "module m.\n\
   export path(ff).\n\
   export same(ff).\n\
   export rc(ff).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
   same(X, Y) :- path(X, Y), path(Y, X).\n\
   rc(X, count(Y)) :- path(X, Y).\n\
   end_module.\n"

let dump db query =
  Coral.query_rows db query
  |> List.map (fun row ->
         Array.to_list row |> List.map Coral.Term.to_string |> String.concat ",")
  |> List.sort compare

let build_db ~workers edges =
  let db = Coral.create ~workers () in
  List.iter (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b ]) edges;
  Coral.consult_text db diff_program;
  db

let random_edges st =
  let nodes = 8 + Random.State.int st 56 in
  let nedges = nodes * (2 + Random.State.int st 12) in
  List.init nedges (fun _ -> Random.State.int st nodes, Random.State.int st nodes)

let test_differential () =
  Obs.set_enabled true;
  let rounds_before = Obs.Counter.value (Obs.counter "eval.parallel.rounds") in
  for seed = 1 to 6 do
    let st = Random.State.make [| 0x5eed + seed |] in
    let edges = random_edges st in
    let seq = build_db ~workers:1 edges in
    let par = build_db ~workers:4 edges in
    List.iter
      (fun q ->
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: %s" seed q)
          (dump seq q) (dump par q))
      [ "path(X, Y)"; "same(X, Y)"; "rc(X, N)" ]
  done;
  let rounds_after = Obs.Counter.value (Obs.counter "eval.parallel.rounds") in
  Obs.set_enabled false;
  Alcotest.(check bool) "parallel rounds ran" true (rounds_after > rounds_before)

let test_worker_knobs () =
  let db = Coral.create ~workers:4 () in
  Alcotest.(check int) "create ~workers" 4 (Coral.workers db);
  Coral.set_workers db 1000;
  Alcotest.(check int) "clamped" 64 (Coral.workers db);
  Coral.set_workers db 0;
  Alcotest.(check int) "clamped low" 1 (Coral.workers db)

(* ------------------------------------------------------------------ *)
(* Per-instance cancellation (fixpoint layer)                          *)
(* ------------------------------------------------------------------ *)

let tc_module =
  match
    Parser.program
      {|
module m.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}
  with
  | Ok [ Ast.Module_item m ] -> m
  | _ -> assert false

let make_instance edges =
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
      Optimizer.plan_query ~module_:tc_module ~pred:(Symbol.intern "path")
        ~adorn:(Ast.adornment_of_string "bf")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fixpoint.create
    (Option.get (Module_struct.instantiate ~resolve (Module_struct.compile ~resolve plan)))

(* The regression the per-instance state fix is for: with module-level
   [cancel_check]/[tick_budget] refs, an expired check installed for
   one evaluation also cancelled every other in-flight evaluation. *)
let test_interleaved_cancellation () =
  let edges = List.init 40 (fun i -> i, i + 1) in
  let expired = make_instance edges in
  let healthy = make_instance edges in
  Fixpoint.set_cancel_check expired (Some (fun () -> true));
  ignore (Fixpoint.add_seed expired [| Term.int 0 |]);
  ignore (Fixpoint.add_seed healthy [| Term.int 0 |]);
  (* interleave: healthy steps fine before, during and after the
     expired instance raises *)
  Alcotest.(check bool) "healthy steps" true (Fixpoint.step healthy);
  Alcotest.check_raises "expired raises" Fixpoint.Cancelled (fun () ->
      Fixpoint.run expired);
  Fixpoint.run healthy;
  Alcotest.(check int) "healthy completed" 40
    (Seq.length (Fixpoint.answers healthy ~pattern:([| Term.int 0; Term.var 0 |], Bindenv.empty) ()));
  (* clearing the check un-cancels the instance *)
  Fixpoint.set_cancel_check expired None;
  Fixpoint.run expired;
  Alcotest.(check bool) "expired recovers once cleared" true
    (Seq.length (Fixpoint.answers expired ~pattern:([| Term.int 0; Term.var 0 |], Bindenv.empty) ())
    = 40)

(* Engine level: the ambient check is per-engine and nests. *)
let test_engine_cancel_scoping () =
  let mk () =
    let db = Coral.create () in
    for i = 0 to 20 do
      Coral.fact db "edge" [ Coral.int i; Coral.int (i + 1) ]
    done;
    Coral.consult_text db
      "module t.\nexport path(ff).\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.";
    db
  in
  let db1 = mk () and db2 = mk () in
  Coral.with_cancel db1
    (fun () -> true)
    (fun () ->
      (* a check on db1 must not leak into db2 *)
      Alcotest.(check bool) "other engine unaffected" true
        (Coral.query_rows db2 "path(X, Y)" <> []);
      Alcotest.check_raises "this engine cancelled" Coral.Cancelled (fun () ->
          ignore (Coral.query_rows db1 "path(X, Y)")));
  (* nesting: the outer (benign) check is restored after an inner
     expired scope, so evaluation succeeds again *)
  Coral.with_cancel db1
    (fun () -> false)
    (fun () ->
      Alcotest.check_raises "inner scope cancels" Coral.Cancelled (fun () ->
          Coral.with_cancel db1
            (fun () -> true)
            (fun () -> ignore (Coral.query_rows db1 "path(X, Y)")));
      Alcotest.(check bool) "outer scope restored" true
        (Coral.query_rows db1 "path(X, Y)" <> []));
  (* and the scope ends: no check survives with_cancel *)
  Alcotest.(check bool) "no residual check" true (Coral.query_rows db1 "path(X, Y)" <> [])

(* ------------------------------------------------------------------ *)
(* Workers compose with persistence                                    *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "coral_par" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let test_workers_persist () =
  let dir = temp_dir () in
  let edges = List.init 120 (fun i -> i mod 30, (i * 7 + 3) mod 30) in
  let expected =
    let db = build_db ~workers:1 edges in
    dump db "path(X, Y)"
  in
  let run_persistent () =
    let pdb = Coral.Database.open_ dir in
    let db = Coral.create ~workers:4 () in
    Coral.install_relation db "edge"
      (Coral.Database.relation pdb ~indexes:[ 0 ] ~name:"edge" ~arity:2 ());
    List.iter (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b ]) edges;
    Coral.consult_text db diff_program;
    let d = dump db "path(X, Y)" in
    Coral.Database.close pdb;
    d
  in
  Alcotest.(check (list string)) "workers=4 over a persistent base" expected
    (run_persistent ());
  (* the commit survived: reopen and evaluate again over the stored facts *)
  let pdb = Coral.Database.open_ dir in
  let db = Coral.create ~workers:4 () in
  Coral.install_relation db "edge"
    (Coral.Database.relation pdb ~indexes:[ 0 ] ~name:"edge" ~arity:2 ());
  Coral.consult_text db diff_program;
  Alcotest.(check (list string)) "after reopen" expected (dump db "path(X, Y)");
  Coral.Database.close pdb

(* ------------------------------------------------------------------ *)
(* Plan-cache LRU bound                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_bound () =
  let db = Coral.create () in
  Coral.fact db "edge" [ Coral.int 1; Coral.int 2 ];
  let cache = Plan_cache.create ~parsed_capacity:256 () in
  for i = 0 to 99_999 do
    match Plan_cache.prepare cache db (Printf.sprintf "edge(%d, Y)" i) with
    | Ok (_, `Unplanned, _) -> ()
    | Ok _ -> Alcotest.fail "base query should be unplanned"
    | Error _ -> Alcotest.fail "parse error"
  done;
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "parsed entries bounded" 256 s.Plan_cache.parsed_entries;
  Alcotest.(check int) "evictions" (100_000 - 256) s.Plan_cache.evictions;
  Alcotest.(check int) "unplanned counted apart" 100_000 s.Plan_cache.unplanned;
  Alcotest.(check int) "no false hits" 0 s.Plan_cache.hits;
  Alcotest.(check int) "no false misses" 0 s.Plan_cache.misses

let test_plan_cache_lru_order () =
  let db = Coral.create () in
  Coral.fact db "edge" [ Coral.int 1; Coral.int 2 ];
  let cache = Plan_cache.create ~parsed_capacity:2 () in
  let prep text = ignore (Result.get_ok (Plan_cache.prepare cache db text)) in
  prep "edge(1, Y)";
  prep "edge(2, Y)";
  prep "edge(1, Y)";  (* touch: 1 is now most recent *)
  prep "edge(3, Y)";  (* evicts 2, not 1 *)
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions;
  prep "edge(1, Y)";  (* still resident: no further eviction *)
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "touch kept the hot entry" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "at capacity" 2 s.Plan_cache.parsed_entries

let () =
  Alcotest.run "coral_parallel"
    [ ( "parallel",
        [ Alcotest.test_case "differential vs sequential" `Quick test_differential;
          Alcotest.test_case "worker knobs" `Quick test_worker_knobs;
          Alcotest.test_case "workers over persistent base" `Quick test_workers_persist
        ] );
      ( "cancellation",
        [ Alcotest.test_case "interleaved instances" `Quick test_interleaved_cancellation;
          Alcotest.test_case "engine scoping and nesting" `Quick test_engine_cancel_scoping
        ] );
      ( "plan_cache",
        [ Alcotest.test_case "bounded under unique-query stress" `Quick test_plan_cache_bound;
          Alcotest.test_case "LRU eviction order" `Quick test_plan_cache_lru_order
        ] )
    ]
