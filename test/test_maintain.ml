(* Incremental view maintenance (DRed): the maintained engine must
   stay byte-identical to a from-scratch recompute after every insert
   and retract — over the recursive E1/E2-style workloads and the
   Figure 3 aggregate program (the fallback class), under parallel
   evaluation (workers 4), and across a persistent-relation reopen in
   the middle of an update sequence. *)

open Coral_term
open Coral_rel
open Coral_storage

let sym = Symbol.intern

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rows e q =
  Coral.query_rows e q
  |> List.map (fun row -> Array.to_list row |> List.map Term.to_string)
  |> List.sort compare

let eng = Coral.engine

(* ------------------------------------------------------------------ *)
(* Workload programs                                                   *)
(* ------------------------------------------------------------------ *)

let tc_program =
  {|
module paths.
export path(ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}

(* same-generation: nonlinear recursion over two base relations *)
let sg_program =
  {|
person(0). person(1). person(2). person(3). person(4). person(5). person(6).
module sg.
export sg(ff).
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
end_module.
|}

(* Figure 3 shortest paths: aggregation + aggregate selections put the
   whole module in the maintenance fallback class — updates must go
   through recompute and still match the oracle exactly *)
let fig3_program =
  {|
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C)       :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1)       :- p(X, Z, P, C), edge(Z, Y, EC),
                         append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
|}

(* Rule shapes beyond TC and SG: comparisons after the delta literal's
   position, a non-recursive value-generating assignment, a constant
   and a repeated variable in one body literal, a functor term in a
   head, and a body predicate ([blue]) with no stored facts until a
   later insert. *)
let shapes_program =
  {|
module shapes.
export path(ff).
export far(ff).
export near(ff).
export next1(ff).
export loop(f).
export wrap(ff).
export tinted(ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
far(X, Y) :- path(X, Y), X < Y.
near(X, Y) :- edge(X, Z), Z < 4, edge(Z, Y).
next1(X, Z) :- edge(X, Y), Z = Y + 1.
loop(X) :- tri(X, 1, X).
wrap(f(X), Y) :- path(X, Y).
tinted(X, Y) :- path(X, Y), blue(Y).
end_module.
|}

(* ------------------------------------------------------------------ *)
(* The differential harness                                            *)
(* ------------------------------------------------------------------ *)

(* Apply a seeded random mixed insert/retract sequence to a maintained
   engine, and after every single update rebuild an oracle engine from
   scratch (same program, current base facts, maintenance off) and
   demand identical answers on every probe query. *)
let differential ?(workers = 1) ~name ~program ~probes ~gen_fact ~steps ~seed () =
  let rng = Random.State.make [| seed |] in
  let m = Coral.create ~workers () in
  Coral.consult_text m program;
  Coral.Engine.set_maintenance (eng m) true;
  let current = ref [] in
  for step = 1 to steps do
    let f = gen_fact rng in
    let removing = Random.State.int rng 3 = 0 && !current <> [] in
    if removing then begin
      (* half the time retract a fact that is present, otherwise the
         freshly generated one (often absent: the missing path) *)
      let victim =
        if Random.State.bool rng then
          List.nth !current (Random.State.int rng (List.length !current))
        else f
      in
      ignore (Coral.Engine.retract_facts (eng m) [ victim ]);
      current := List.filter (fun g -> g <> victim) !current
    end
    else begin
      ignore (Coral.Engine.insert_facts (eng m) [ f ]);
      if not (List.mem f !current) then current := f :: !current
    end;
    let o = Coral.create ~workers () in
    Coral.consult_text o program;
    ignore (Coral.Engine.insert_facts (eng o) !current);
    List.iter
      (fun q ->
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s step %d: %s" name step q)
          (rows o q) (rows m q))
      probes;
    (* the server's read path: one snapshot per commit (which merges
       sealed subsidiaries), queries against its frozen view *)
    let view = Option.get (Coral.Engine.snapshot (eng m)) in
    let r = Coral.of_engine (Coral.Engine.read_view view) in
    List.iter
      (fun q ->
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s step %d, read view: %s" name step q)
          (rows o q) (rows r q))
      probes
  done

let gen_edge2 dom rng =
  sym "edge", [| Term.int (Random.State.int rng dom); Term.int (Random.State.int rng dom) |]

let gen_par dom rng =
  sym "par", [| Term.int (Random.State.int rng dom); Term.int (Random.State.int rng dom) |]

let gen_edge3 dom rng =
  ( sym "edge",
    [| Term.int (Random.State.int rng dom);
       Term.int (Random.State.int rng dom);
       Term.int (1 + Random.State.int rng 9)
    |] )

(* mostly edges; tri/3 facts over a small domain so the constant and
   the repeated variable both match and miss; blue/1 facts arrive only
   after several updates *)
let gen_shape rng =
  match Random.State.int rng 10 with
  | 0 | 1 ->
    ( sym "tri",
      [| Term.int (Random.State.int rng 3);
         Term.int (Random.State.int rng 2);
         Term.int (Random.State.int rng 3)
      |] )
  | 2 -> sym "blue", [| Term.int (Random.State.int rng 8) |]
  | _ -> gen_edge2 8 rng

let test_differential_tc () =
  differential ~name:"tc" ~program:tc_program
    ~probes:[ "path(X, Y)"; "path(0, Y)"; "edge(X, Y)" ]
    ~gen_fact:(gen_edge2 8) ~steps:60 ~seed:11 ()

let test_differential_sg () =
  differential ~name:"sg" ~program:sg_program
    ~probes:[ "sg(X, Y)"; "sg(2, Y)" ]
    ~gen_fact:(gen_par 7) ~steps:40 ~seed:23 ()

let test_differential_fig3 () =
  differential ~name:"fig3" ~program:fig3_program
    ~probes:[ "s_p(0, Y, P, C)"; "s_p(1, Y, P, C)" ]
    ~gen_fact:(gen_edge3 5) ~steps:18 ~seed:37 ()

let test_differential_shapes () =
  (* every shape is in the maintained class, so the differential below
     checks maintenance rather than the recompute fallback *)
  let e = Coral.create () in
  Coral.consult_text e shapes_program;
  Coral.Engine.set_maintenance (eng e) true;
  Alcotest.(check (list (pair string string))) "all shapes maintained" []
    (Coral.Engine.maintenance_fallbacks (eng e));
  differential ~name:"shapes" ~program:shapes_program
    ~probes:
      [ "path(X, Y)"; "far(X, Y)"; "near(X, Y)"; "next1(X, Y)"; "loop(X)"; "wrap(X, Y)";
        "tinted(X, Y)"
      ]
    ~gen_fact:gen_shape ~steps:60 ~seed:29 ()

let test_differential_tc_workers () =
  differential ~workers:4 ~name:"tc-w4" ~program:tc_program
    ~probes:[ "path(X, Y)"; "path(0, Y)" ]
    ~gen_fact:(gen_edge2 8) ~steps:40 ~seed:51 ()

(* ------------------------------------------------------------------ *)
(* Persistent reopen mid-sequence                                      *)
(* ------------------------------------------------------------------ *)

(* The maintained extents are in-memory and rebuilt lazily; the base
   relation is persistent.  Close and reopen the store halfway through
   a mixed update sequence — the second engine must pick the sequence
   up where the first left off and still match the oracle. *)
let test_persistent_reopen () =
  let dir = tmpdir "maint" in
  let seed = 77 and steps = 40 and dom = 8 in
  let rng = Random.State.make [| seed |] in
  let current = ref [] in
  let open_engine () =
    let h = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
    let e = Coral.create () in
    Coral.install_relation e "edge" (Persistent_relation.relation h);
    Coral.consult_text e tc_program;
    Coral.Engine.set_maintenance (eng e) true;
    h, e
  in
  let run_steps e n =
    for _ = 1 to n do
      let f = gen_edge2 dom rng in
      if Random.State.int rng 3 = 0 && !current <> [] then begin
        let victim = List.nth !current (Random.State.int rng (List.length !current)) in
        ignore (Coral.Engine.retract_facts (eng e) [ victim ]);
        current := List.filter (fun g -> g <> victim) !current
      end
      else begin
        ignore (Coral.Engine.insert_facts (eng e) [ f ]);
        if not (List.mem f !current) then current := f :: !current
      end;
      let o = Coral.create () in
      Coral.consult_text o tc_program;
      ignore (Coral.Engine.insert_facts (eng o) !current);
      Alcotest.(check (list (list string))) "persistent tc matches oracle"
        (rows o "path(X, Y)") (rows e "path(X, Y)")
    done
  in
  let h1, e1 = open_engine () in
  run_steps e1 (steps / 2);
  Persistent_relation.close h1;
  let h2, e2 = open_engine () in
  run_steps e2 (steps / 2);
  Persistent_relation.close h2

(* ------------------------------------------------------------------ *)
(* Unit behavior of the maintenance driver                             *)
(* ------------------------------------------------------------------ *)

let chain_engine () =
  let e = Coral.create () in
  Coral.consult_text e ("edge(1, 2). edge(2, 3).\n" ^ tc_program);
  Coral.Engine.set_maintenance (eng e) true;
  (* force the first extent build so updates take the incremental path *)
  ignore (rows e "path(X, Y)");
  e

let test_insert_propagates () =
  let e = chain_engine () in
  let rep = Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ] in
  Alcotest.(check bool) "maintained" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check int) "stored" 1 rep.Coral.Engine.ur_applied;
  (* path(3,4), path(2,4), path(1,4) *)
  Alcotest.(check int) "derived" 3 rep.Coral.Engine.ur_derived;
  Alcotest.(check (list (list string))) "closure after insert"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "1"; "4" ]; [ "2"; "3" ]; [ "2"; "4" ]; [ "3"; "4" ] ]
    (rows e "path(X, Y)")

let test_insert_duplicate_accounting () =
  let e = chain_engine () in
  let f = [ sym "edge", [| Term.int 1; Term.int 2 |]; sym "edge", [| Term.int 7; Term.int 8 |] ] in
  let rep = Coral.Engine.insert_facts (eng e) f in
  Alcotest.(check int) "one stored" 1 rep.Coral.Engine.ur_applied;
  Alcotest.(check int) "one duplicate" 1 rep.Coral.Engine.ur_noop

let test_retract_dred_rederives () =
  let e = Coral.create () in
  (* diamond: 1 -> {2, 3} -> 4; deleting edge(2, 4) must keep
     path(1, 4) alive through the 3 branch (rederivation) *)
  Coral.consult_text e ("edge(1, 2). edge(1, 3). edge(2, 4). edge(3, 4).\n" ^ tc_program);
  Coral.Engine.set_maintenance (eng e) true;
  ignore (rows e "path(X, Y)");
  let rep = Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 2; Term.int 4 |] ] in
  Alcotest.(check bool) "maintained" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check int) "removed" 1 rep.Coral.Engine.ur_applied;
  (* over-deletion touched path(2,4) and path(1,4) ... *)
  Alcotest.(check bool) "over-deleted" true (rep.Coral.Engine.ur_deleted >= 2);
  (* ... and path(1,4) came back *)
  Alcotest.(check bool) "rederived" true (rep.Coral.Engine.ur_rederived >= 1);
  Alcotest.(check (list (list string))) "closure after retract"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "1"; "4" ]; [ "3"; "4" ] ]
    (rows e "path(X, Y)")

let test_retract_missing_accounting () =
  let e = chain_engine () in
  let rep = Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 9; Term.int 9 |] ] in
  Alcotest.(check int) "nothing removed" 0 rep.Coral.Engine.ur_applied;
  Alcotest.(check int) "missing counted" 1 rep.Coral.Engine.ur_noop

let test_fallback_class () =
  let e = Coral.create () in
  Coral.consult_text e
    ("edge(1, 2). edge(2, 3). blocked(2).\n\
      module safe.\n\
      export reach(ff).\n\
      reach(X, Y) :- edge(X, Y), not blocked(Y).\n\
      reach(X, Y) :- reach(X, Z), edge(Z, Y), not blocked(Y).\n\
      end_module.\n");
  Coral.Engine.set_maintenance (eng e) true;
  let fallbacks = Coral.Engine.maintenance_fallbacks (eng e) in
  Alcotest.(check bool) "negation excluded from maintenance" true
    (List.exists (fun (p, _) -> p = "reach/2") fallbacks);
  (* the fallback path still answers correctly through updates *)
  ignore (Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
  Alcotest.(check (list (list string))) "recompute fallback"
    [ [ "4" ] ]
    (rows e "reach(3, Y)");
  ignore (Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
  Alcotest.(check (list (list string))) "recompute fallback after retract" []
    (rows e "reach(3, Y)")

(* A view pinned before an update reads its own epoch after it: the
   update's kills stamp a later generation than the view's freeze
   (DRed's over-deletions, the base fact itself, an insert, and the
   recompute fallback's rebuild alike). *)
let test_pinned_view_across_updates () =
  let view e = Coral.of_engine (Coral.Engine.read_view (Option.get (Coral.Engine.snapshot (eng e)))) in
  let e = Coral.create () in
  Coral.consult_text e ("edge(1, 2). edge(2, 3). edge(1, 3).\n" ^ tc_program);
  Coral.Engine.set_maintenance (eng e) true;
  let closure = [ [ "1"; "2" ]; [ "1"; "3" ]; [ "2"; "3" ] ] in
  Alcotest.(check (list (list string))) "closure" closure (rows e "path(X, Y)");
  let pinned = view e in
  let rep = Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 2; Term.int 3 |] ] in
  Alcotest.(check bool) "retract maintained (DRed)" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check (list (list string))) "live after retract"
    [ [ "1"; "2" ]; [ "1"; "3" ] ]
    (rows e "path(X, Y)");
  Alcotest.(check (list (list string))) "pinned view after retract" closure
    (rows pinned "path(X, Y)");
  Alcotest.(check (list (list string))) "pinned base after retract"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "2"; "3" ] ]
    (rows pinned "edge(X, Y)");
  let before = view e in
  let rep = Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ] in
  Alcotest.(check bool) "insert maintained" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check (list (list string))) "pinned view after insert"
    [ [ "1"; "2" ]; [ "1"; "3" ] ]
    (rows before "path(X, Y)");
  Alcotest.(check (list (list string))) "first view still" closure (rows pinned "path(X, Y)");
  (* the recompute fallback: negation keeps [reach] out of maintenance *)
  let e = Coral.create () in
  Coral.consult_text e
    "edge(1, 2). edge(2, 3). blocked(4).\n\
     module safe.\n\
     export reach(ff).\n\
     reach(X, Y) :- edge(X, Y), not blocked(Y).\n\
     reach(X, Y) :- reach(X, Z), edge(Z, Y), not blocked(Y).\n\
     end_module.\n";
  Coral.Engine.set_maintenance (eng e) true;
  let reach = [ [ "1"; "2" ]; [ "1"; "3" ]; [ "2"; "3" ] ] in
  Alcotest.(check (list (list string))) "reach" reach (rows e "reach(X, Y)");
  let pinned = view e in
  Alcotest.(check bool) "reach recomputes" true
    (List.exists (fun (p, _) -> p = "reach/2") (Coral.Engine.maintenance_fallbacks (eng e)));
  ignore (Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 2; Term.int 3 |] ]);
  Alcotest.(check (list (list string))) "live after fallback retract" [ [ "1"; "2" ] ]
    (rows e "reach(X, Y)");
  Alcotest.(check (list (list string))) "pinned view after fallback retract" reach
    (rows pinned "reach(X, Y)");
  ignore (Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 2; Term.int 3 |] ]);
  Alcotest.(check (list (list string))) "pinned view after fallback insert" reach
    (rows pinned "reach(X, Y)")

let test_maintenance_info () =
  let e = chain_engine () in
  match Coral.Engine.maintenance_info (eng e) with
  | None -> Alcotest.fail "maintenance should be on"
  | Some (preds, refreshes, _) ->
    Alcotest.(check bool) "path is maintained" true (preds >= 1);
    Alcotest.(check bool) "one refresh so far" true (refreshes >= 1);
    (* incremental updates must not trigger full rebuilds *)
    ignore (Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
    ignore (rows e "path(X, Y)");
    (match Coral.Engine.maintenance_info (eng e) with
    | Some (_, r2, _) -> Alcotest.(check int) "no extra rebuild" refreshes r2
    | None -> Alcotest.fail "maintenance dropped")

(* Maintenance time lands in the phase.maintain histogram: an extent
   rebuild, an insert and a retract each record one observation. *)
let test_maintenance_phase () =
  let module Obs = Coral_obs.Obs in
  let h = Obs.histogram "phase.maintain" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let before = Obs.Histogram.count h in
      let e = chain_engine () in
      let edge34 = [ sym "edge", [| Term.int 3; Term.int 4 |] ] in
      ignore (Coral.Engine.insert_facts (eng e) edge34);
      ignore (Coral.Engine.retract_facts (eng e) edge34);
      Alcotest.(check int) "rebuild + insert + retract" 3 (Obs.Histogram.count h - before))

(* ------------------------------------------------------------------ *)
(* Flapping edges, the update_visible shape                            *)
(* ------------------------------------------------------------------ *)

(* A forest of chains; one edge at a time is retracted and inserted
   back, each update committed as a snapshot and read through it, as
   the server does.  Every read must show exactly its update. *)
let test_chain_forest_flaps () =
  let chains = 4 and len = 6 and flaps = 60 in
  let edges =
    List.concat
      (List.init chains (fun c -> List.init (len - 1) (fun p -> (c * len) + p, (c * len) + p + 1)))
  in
  let e = Coral.create () in
  List.iter (fun (a, b) -> Coral.fact e "edge" [ Term.int a; Term.int b ]) edges;
  Coral.consult_text e
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.";
  Coral.Engine.set_maintenance (eng e) true;
  ignore (Coral.Engine.snapshot (eng e));
  let reach present a =
    let rec go x acc =
      match List.assoc_opt x present with
      | Some y -> go y (string_of_int y :: acc)
      | None -> acc
    in
    List.map (fun y -> [ y ]) (go a []) |> List.sort compare
  in
  let read_after update a =
    ignore (update (eng e));
    let view = Option.get (Coral.Engine.snapshot (eng e)) in
    rows (Coral.of_engine (Coral.Engine.read_view view)) (Printf.sprintf "path(%d, Y)" a)
  in
  let rng = Random.State.make [| 97 |] in
  for i = 1 to flaps do
    let a = (Random.State.int rng chains * len) + (i mod (len - 1)) in
    let fact = [ sym "edge", [| Term.int a; Term.int (a + 1) |] ] in
    let gone = read_after (fun e -> Coral.Engine.retract_facts e fact) a in
    Alcotest.(check (list (list string)))
      (Printf.sprintf "flap %d: retract edge(%d, %d) visible" i a (a + 1))
      (reach (List.filter (fun ed -> ed <> (a, a + 1)) edges) a)
      gone;
    let back = read_after (fun e -> Coral.Engine.insert_facts e fact) a in
    Alcotest.(check (list (list string)))
      (Printf.sprintf "flap %d: insert edge(%d, %d) visible" i a (a + 1))
      (reach edges a) back
  done;
  Alcotest.(check (list (list string))) "live engine agrees after the flaps"
    (List.concat_map (fun (a, _) -> List.map (fun y -> [ string_of_int a; List.hd y ]) (reach edges a)) edges
     |> List.sort compare)
    (rows e "path(X, Y)")

(* ------------------------------------------------------------------ *)
(* Index selection                                                     *)
(* ------------------------------------------------------------------ *)

let specs rel =
  List.map (Format.asprintf "%a" Index.pp_spec) (Relation.indexes rel) |> List.sort compare

let parse_module src =
  match Coral_lang.Parser.program src with
  | Ok [ Coral_lang.Ast.Module_item m ] -> m
  | _ -> Alcotest.fail "expected one module"

(* Maintenance selects indexes by the fixpoint's rule: the activation
   of the recursive rule on an edge delta probes path on its first
   argument, the activation on a path delta probes edge on its second,
   and the rederivation check (head bound) probes edge on its first. *)
let test_maintenance_indexes () =
  let edge = Hash_relation.create ~name:"edge" ~arity:2 () in
  List.iter
    (fun (a, b) -> ignore (Relation.insert_terms edge [| Term.int a; Term.int b |]))
    [ 1, 2; 2, 3; 3, 4 ];
  let m =
    Coral_eval.Maintain.create
      { Coral_eval.Maintain.src_modules = (fun () -> [ parse_module tc_program ]);
        src_user_rules = (fun () -> []);
        src_relation =
          (fun pred arity -> if Symbol.name pred = "edge" && arity = 2 then Some edge else None);
        src_foreign = (fun _ _ -> false);
        src_tick = ignore
      }
  in
  Coral_eval.Maintain.ensure m;
  Alcotest.(check (list string)) "edge indexes" [ "args(0)"; "args(1)" ] (specs edge);
  (match Coral_eval.Maintain.extent m (sym "path") 2 with
  | Some path -> Alcotest.(check (list string)) "path extent indexes" [ "args(0)" ] (specs path)
  | None -> Alcotest.fail "path is not maintained");
  (* the engine installs them on its own stored relation too *)
  let e = chain_engine () in
  match Coral.Engine.relation_of (eng e) (sym "edge") 2 with
  | Some rel -> Alcotest.(check (list string)) "engine edge indexes" [ "args(0)"; "args(1)" ] (specs rel)
  | None -> Alcotest.fail "edge not stored"

(* The fixpoint's index choice for the same rule bodies, unrewritten:
   a literal gets an index on the positions bound before it runs. *)
let test_fixpoint_index_choice () =
  let choice program pred adorn =
    let base = Hashtbl.create 4 in
    let resolve p arity =
      let rel =
        match Hashtbl.find_opt base (Symbol.name p) with
        | Some rel -> rel
        | None ->
          let rel = Hash_relation.create ~name:(Symbol.name p) ~arity () in
          Hashtbl.add base (Symbol.name p) rel;
          rel
      in
      Coral_eval.Module_struct.P_rel rel
    in
    match
      Coral_rewrite.Optimizer.plan_query ~module_:(parse_module program) ~pred:(sym pred)
        ~adorn:(Coral_lang.Ast.adornment_of_string adorn)
    with
    | Error msg -> Alcotest.fail msg
    | Ok plan ->
      let ms =
        let open Coral_eval.Module_struct in
        Option.get (instantiate ~resolve (compile ~resolve plan))
      in
      fun name ->
        match Coral_eval.Module_struct.relation ms (sym name) with
        | Some rel -> specs rel
        | None -> specs (Hashtbl.find base name)
  in
  let tc =
    choice
      "module paths.\nexport path(ff).\n@no_rewriting.\npath(X, Y) :- edge(X, Y).\n\
       path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."
      "path" "ff"
  in
  Alcotest.(check (list string)) "tc: edge" [] (tc "edge");
  Alcotest.(check (list string)) "tc: path" [ "args(0)" ] (tc "path");
  let sg =
    choice
      "module sg.\nexport sg(ff).\n@no_rewriting.\nsg(X, X) :- person(X).\n\
       sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\nend_module."
      "sg" "ff"
  in
  Alcotest.(check (list string)) "sg: person" [] (sg "person");
  Alcotest.(check (list string)) "sg: par" [ "args(1)" ] (sg "par");
  Alcotest.(check (list string)) "sg: sg" [ "args(0)" ] (sg "sg")

let () =
  Alcotest.run "coral_maintain"
    [ ( "differential",
        [ Alcotest.test_case "transitive closure" `Quick test_differential_tc;
          Alcotest.test_case "same generation" `Quick test_differential_sg;
          Alcotest.test_case "figure 3 (fallback)" `Quick test_differential_fig3;
          Alcotest.test_case "tc, workers 4" `Quick test_differential_tc_workers;
          Alcotest.test_case "persistent reopen" `Quick test_persistent_reopen;
          Alcotest.test_case "rule shapes" `Quick test_differential_shapes
        ] );
      ( "driver",
        [ Alcotest.test_case "insert propagates" `Quick test_insert_propagates;
          Alcotest.test_case "duplicate accounting" `Quick test_insert_duplicate_accounting;
          Alcotest.test_case "retract rederives" `Quick test_retract_dred_rederives;
          Alcotest.test_case "missing accounting" `Quick test_retract_missing_accounting;
          Alcotest.test_case "fallback class" `Quick test_fallback_class;
          Alcotest.test_case "pinned view across updates" `Quick test_pinned_view_across_updates;
          Alcotest.test_case "maintenance info" `Quick test_maintenance_info;
          Alcotest.test_case "chain forest flaps" `Quick test_chain_forest_flaps;
          Alcotest.test_case "maintenance phase" `Quick test_maintenance_phase
        ] );
      ( "indexes",
        [ Alcotest.test_case "maintenance joins" `Quick test_maintenance_indexes;
          Alcotest.test_case "fixpoint choice" `Quick test_fixpoint_index_choice
        ] )
    ]
