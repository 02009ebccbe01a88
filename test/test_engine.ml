(* Engine-level tests: the builtin library, update predicates, the
   explanation tool, module management and the host API facade. *)

open Coral_term

let setup src =
  let e = Coral.create () in
  Coral.consult_text e src;
  e

let rows e q =
  Coral.query_rows e q
  |> List.map (fun row -> Array.to_list row |> List.map Term.to_string)
  |> List.sort compare

let check e q expected = Alcotest.(check (list (list string))) q (List.sort compare expected) (rows e q)

(* ------------------------------------------------------------------ *)
(* The builtin library                                                 *)
(* ------------------------------------------------------------------ *)

let test_list_builtins () =
  let e = Coral.create () in
  check e "append([1, 2], [3], L)" [ [ "[1, 2, 3]" ] ];
  (* splitting mode: enumerate the splits of a ground list *)
  Alcotest.(check int) "append splits" 3
    (List.length (Coral.query_rows e "append(A, B, [1, 2])"));
  check e "member(X, [a, b, c]), X != b" [ [ "a" ]; [ "c" ] ];
  check e "length([a, b, c], N)" [ [ "3" ] ];
  check e "reverse([1, 2, 3], R)" [ [ "[3, 2, 1]" ] ];
  check e "sort([3, 1, 2, 1], S)" [ [ "[1, 2, 3]" ] ];
  check e "sum_list([1, 2, 3, 4], S)" [ [ "10" ] ];
  check e "nth(1, [a, b, c], X)" [ [ "b" ] ];
  Alcotest.(check int) "nth enumerates" 3
    (List.length (Coral.query_rows e "nth(I, [a, b, c], X)"));
  check e "between(2, 5, X), X > 3" [ [ "4" ]; [ "5" ] ]

let test_numeric_builtins () =
  let e = Coral.create () in
  check e "abs(-5, X)" [ [ "5" ] ];
  check e "abs(2.5, X)" [ [ "2.5" ] ];
  check e "min_of(3, 7, M)" [ [ "3" ] ];
  check e "max_of(3, 7, M)" [ [ "7" ] ];
  check e "gcd(12, 18, G)" [ [ "6" ] ];
  check e "gcd(7, 0, G)" [ [ "7" ] ];
  (* arithmetic inside the query *)
  check e "X = 2 + 3 * 4, Y = X mod 7" [ [ "14"; "0" ] ];
  check e "X = 10 / 4" [ [ "2" ] ];
  check e "X = 10.0 / 4" [ [ "2.5" ] ]

let test_string_builtins () =
  let e = Coral.create () in
  check e "string_concat(\"ab\", \"cd\", S)" [ [ "\"abcd\"" ] ];
  check e "string_length(\"hello\", N)" [ [ "5" ] ];
  check e "term_to_string(f(1, [2]), S)" [ [ "\"f(1, [2])\"" ] ]

(* ------------------------------------------------------------------ *)
(* Update predicates (paper section 5.2)                               *)
(* ------------------------------------------------------------------ *)

let test_assert_retract () =
  let e =
    setup
      {|
item(1). item(2). item(3).
module updates.
export promote(b).
export demote(b).
@pipelined.
promote(X) :- item(X), assert(good(X)).
demote(X) :- retract(good(X)).
end_module.
|}
  in
  Alcotest.(check int) "no good facts yet" 0 (List.length (Coral.query_rows e "good(X)"));
  ignore (Coral.query_rows e "promote(2)");
  check e "good(X)" [ [ "2" ] ];
  ignore (Coral.query_rows e "promote(3)");
  Alcotest.(check int) "two now" 2 (List.length (Coral.query_rows e "good(X)"));
  ignore (Coral.query_rows e "demote(2)");
  check e "good(X)" [ [ "3" ] ];
  (* retracting a non-fact fails silently *)
  Alcotest.(check int) "retract missing fails" 0 (List.length (Coral.query_rows e "demote(9)"))

(* ------------------------------------------------------------------ *)
(* The explanation tool                                                *)
(* ------------------------------------------------------------------ *)

let tc_program =
  {|
edge(1, 2). edge(2, 3). edge(3, 4).
module paths.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}

let test_why_tree () =
  let e = setup tc_program in
  let tree = Coral.why e "path(1, 4)" in
  let has needle =
    let n = String.length needle and h = String.length tree in
    let rec go i = i + n <= h && (String.sub tree i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "root fact" true (has "path(1, 4)");
  Alcotest.(check bool) "intermediate fact" true (has "path(2, 4)");
  Alcotest.(check bool) "base leaves" true (has "edge(3, 4)");
  Alcotest.(check bool) "rules shown" true (has "  by  ");
  (* node lines show only source-level facts (rule texts legitimately
     mention the rewritten predicates) *)
  let node_lines =
    String.split_on_char '\n' tree
    |> List.filter (fun l -> not (String.length (String.trim l) = 0))
    |> List.filter (fun l ->
           let t = String.trim l in
           not (String.length t > 3 && String.sub t 0 4 = "by  "))
  in
  Alcotest.(check bool) "no magic/sup fact nodes" true
    (List.for_all
       (fun l ->
         let t = String.trim l in
         not (String.length t > 1 && String.sub t 0 2 = "m#")
         && not (String.length t > 3 && String.sub t 0 4 = "sup#"))
       node_lines)

let test_why_aggregate () =
  (* explanation trees descend through aggregate rules into the
     contributing body facts *)
  let e =
    setup
      {|
emp(e1, sales, 100). emp(e2, sales, 150).
module stats.
export total(bf).
total(D, sum(S)) :- emp(E, D, S).
end_module.
|}
  in
  let tree = Coral.why e "total(sales, 250)" in
  let has needle =
    let n = String.length needle and h = String.length tree in
    let rec go i = i + n <= h && (String.sub tree i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "aggregate root" true (has "total(sales, 250)");
  Alcotest.(check bool) "first contributor" true (has "emp(e1, sales, 100)");
  Alcotest.(check bool) "second contributor" true (has "emp(e2, sales, 150)")

let test_why_no_answers () =
  let e = setup tc_program in
  let s = Coral.why e "path(4, 1)" in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no-derivation line" true
    (String.starts_with ~prefix:"no derivation:" s);
  Alcotest.(check bool) "names the module" true (contains "module paths")

let test_why_errors () =
  let e = setup tc_program in
  let starts_with_error s = String.length s >= 6 && String.sub s 0 6 = "error:" in
  (* unknown predicates get a one-line explanation, not an error *)
  Alcotest.(check bool) "unknown predicate explained" true
    (String.starts_with ~prefix:"nothing known about nope/1" (Coral.why e "nope(1)"));
  (* base facts and unmatched base relations likewise *)
  Alcotest.(check bool) "base fact explained" true
    (String.starts_with ~prefix:"edge(1, 2) is a base fact" (Coral.why e "edge(1, 2)"));
  Alcotest.(check bool) "unmatched base relation explained" true
    (String.starts_with ~prefix:"no derivation:" (Coral.why e "edge(9, 9)"));
  Alcotest.(check bool) "conjunction rejected" true
    (starts_with_error (Coral.why e "path(1, X), path(X, 4)"))

(* ------------------------------------------------------------------ *)
(* Module management and calls                                         *)
(* ------------------------------------------------------------------ *)

let test_module_reload () =
  let e = setup tc_program in
  check e "path(3, Y)" [ [ "4" ] ];
  (* reload the module with different rules: plans must be invalidated *)
  Coral.consult_text e
    {|
module paths.
export path(bf).
path(X, Y) :- edge(Y, X).
end_module.
|};
  check e "path(3, Y)" [ [ "2" ] ]

(* A view pinned before a module reload keeps the plan table of its own
   rules: a form it plans after the reload lands in that table, not in
   the live engine's, and a fresh view plans against the new rules. *)
let test_view_pinned_across_reload () =
  let e = setup tc_program in
  let old_view = Option.get (Coral.Engine.snapshot (Coral.engine e)) in
  Coral.consult_text e
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(Y, X).\nend_module.";
  let reader view = Coral.of_engine (Coral.Engine.read_view view) in
  (* the old view plans path/2:fb against the old rules ... *)
  check (reader old_view) "path(X, 4)" [ [ "1" ]; [ "2" ]; [ "3" ] ];
  check (reader old_view) "path(3, Y)" [ [ "4" ] ];
  (* ... while the live engine and a fresh view plan it against the new *)
  check e "path(X, 4)" [];
  let new_view = Option.get (Coral.Engine.snapshot (Coral.engine e)) in
  check (reader new_view) "path(X, 3)" [ [ "4" ] ];
  check (reader new_view) "path(3, Y)" [ [ "2" ] ];
  check (reader old_view) "path(X, 3)" [ [ "1" ]; [ "2" ] ]

let test_call_depth_guard () =
  (* two modules calling each other recursively: the engine must fail
     cleanly instead of looping *)
  let e =
    setup
      {|
seed(1).
module a.
export pa(b).
pa(X) :- seed(X), pb(X).
end_module.
module b.
export pb(b).
pb(X) :- seed(X), pa(X).
end_module.
|}
  in
  Alcotest.check_raises "depth guard"
    (Coral.Engine.Engine_error "module call depth exceeded (recursive module invocation?)")
    (fun () -> ignore (Coral.query_rows e "pa(1)"))

let test_top_level_negation () =
  let e = setup tc_program in
  check e "edge(X, Y), not path(Y, 4)" [ [ "3"; "4" ] ]

(* A variable is never bound to a term containing it: g(X, X) against
   g(f(Y), Y) would bind Y to f(Y), and printing that row would never
   end. *)
let test_occurs_check () =
  let e = setup "g(f(Y), Y).\nh(Z, Z).\n" in
  check e "g(X, X)" [];
  check e "h(f(A), A)" [];
  check e "g(f(a), B)" [ [ "a" ] ]

(* Aggregate rows come in the order their groups first match, whatever
   symbols the process interned before (term hashes mix symbol ids, so
   a hash table's order would follow the interning history). *)
let test_aggregate_order () =
  for i = 0 to 499 do
    ignore (Symbol.intern (Printf.sprintf "agg_order_pad_%d" i))
  done;
  let names = List.init 12 (Printf.sprintf "agg_order_k%d") in
  let facts =
    String.concat ""
      (List.concat_map
         (fun n -> [ Printf.sprintf "sale(%s, 2).\n" n; Printf.sprintf "sale(%s, 3).\n" n ])
         names)
  in
  let e =
    setup
      (facts
     ^ "module agg.\nexport total(ff).\ntotal(K, sum(C)) :- sale(K, C).\nend_module.\n")
  in
  let got =
    Coral.query_rows e "total(K, S)"
    |> List.map (fun row -> Array.to_list row |> List.map Term.to_string)
  in
  Alcotest.(check (list (list string))) "first-seen group order"
    (List.map (fun n -> [ n; "5" ]) names)
    got

let test_direct_call () =
  let e = setup tc_program in
  let seq = Coral.call e "path" [| Coral.int 2; Coral.var 0 |] in
  Alcotest.(check int) "two answers from 2" 2 (Seq.length seq);
  let seq = Coral.call e "edge" [| Coral.var 0; Coral.int 3 |] in
  Alcotest.(check int) "base call" 1 (Seq.length seq)

let test_consult_file () =
  let path = Filename.temp_file "coral" ".coral" in
  let oc = open_out path in
  output_string oc "fruit(apple).\nfruit(pear).\n?- fruit(X).\n";
  close_out oc;
  let e = Coral.create () in
  let results = Coral.Engine.consult_file (Coral.engine e) path in
  Sys.remove path;
  Alcotest.(check int) "one query result" 1 (List.length results);
  (match results with
  | [ (_, r) ] -> Alcotest.(check int) "two fruits" 2 (List.length r.Coral.Engine.rows)
  | _ -> Alcotest.fail "results");
  check e "fruit(X)" [ [ "apple" ]; [ "pear" ] ]

let test_define_predicate () =
  let e = Coral.create () in
  Coral.define_predicate e "square" 2 (fun args env ->
      match Coral.Unify.resolve args.(0) env with
      | Term.Const (Value.Int n) -> Seq.return [| Term.int n; Term.int (n * n) |]
      | _ -> Seq.empty);
  Coral.facts e "num" [ [ Coral.int 3 ]; [ Coral.int 5 ] ];
  Coral.consult_text e
    "module m.\nexport squares(ff).\nsquares(X, Y) :- num(X), square(X, Y).\nend_module.";
  check e "squares(X, Y)" [ [ "3"; "9" ]; [ "5"; "25" ] ]

(* Plans depend only on the rules: inserting into and retracting from
   a plan's own base predicate replans nothing, and the cached plans
   answer from the new facts. *)
let test_plans_survive_base_updates () =
  let e =
    setup
      {|
edge(1, 2). edge(2, 3). other(9).
module paths.
export path(ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
module m2.
export q(f).
q(X) :- other(X).
end_module.
|}
  in
  ignore (rows e "q(X)");
  ignore (rows e "path(X, Y)");
  let _, m0 = Coral.plan_cache_stats e in
  let update f pred args = ignore (f (Coral.engine e) [ Coral_term.Symbol.intern pred, args ]) in
  update Coral.Engine.insert_facts "edge" [| Term.int 3; Term.int 4 |];
  check e "path(X, Y)"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "1"; "4" ]; [ "2"; "3" ]; [ "2"; "4" ]; [ "3"; "4" ] ];
  update Coral.Engine.retract_facts "edge" [| Term.int 1; Term.int 2 |];
  check e "path(X, Y)" [ [ "2"; "3" ]; [ "2"; "4" ]; [ "3"; "4" ] ];
  Coral.fact e "other" [ Term.int 7 ];
  check e "q(X)" [ [ "7" ]; [ "9" ] ];
  let _, m1 = Coral.plan_cache_stats e in
  Alcotest.(check int) "no form replanned" m0 m1

let test_user_clauses_and_queries () =
  let e = Coral.create () in
  Coral.consult_text e "likes(ann, beer).\nlikes(bob, X) :- likes(ann, X).";
  check e "likes(bob, X)" [ [ "beer" ] ];
  (* user rules are re-planned when clauses are added *)
  Coral.consult_text e "likes(ann, wine).";
  check e "likes(bob, X)" [ [ "beer" ]; [ "wine" ] ]

(* ------------------------------------------------------------------ *)
(* Index choice at module load (paper sections 4.2, 5.5.1)            *)
(* ------------------------------------------------------------------ *)

let right_linear_paths =
  "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."

(* A 32-node ring with chords. *)
let ring_facts =
  List.init 32 (fun i ->
      Printf.sprintf "edge(%d, %d). edge(%d, %d)." i ((i + 1) mod 32) i ((i * 7 + 3) mod 32))
  |> String.concat "\n"

(* Tuples the joins visited while [f] ran, with its result. *)
let visiting f =
  let v0 = Coral.Relation.tuples_visited () in
  let r = f () in
  r, Coral.Relation.tuples_visited () - v0

let frozen_indexes view name arity =
  match Coral.Engine.relation_of (Coral.Engine.read_view view) (Symbol.intern name) arity with
  | Some rel -> Coral.Relation.indexes rel
  | None -> Alcotest.failf "no frozen %s/%d" name arity

let carries spec specs = List.exists (Coral.Index.spec_equal spec) specs

(* Consulting the program before its facts, then reading through a
   snapshot the live engine never ran: the view probes the index the
   module load chose, so it visits exactly what the live engine does. *)
let test_view_probes_load_time_index () =
  let e = setup right_linear_paths in
  Coral.consult_text e ring_facts;
  let view = Option.get (Coral.Engine.snapshot (Coral.engine e)) in
  let reader = Coral.of_engine (Coral.Engine.read_view view) in
  let from_view, view_visits = visiting (fun () -> rows reader "path(5, Y)") in
  let from_live, live_visits = visiting (fun () -> rows e "path(5, Y)") in
  Alcotest.(check (list (list string))) "same answers" from_live from_view;
  Alcotest.(check int) "every node reachable" 32 (List.length from_view);
  Alcotest.(check int) "view visits what the live engine visits" live_visits view_visits;
  Alcotest.(check bool) "frozen edge reports args(0)" true
    (carries (Coral.Index.Args [ 0 ]) (frozen_indexes view "edge" 2))

(* One name, many cities: the name index alone is unselective, so the
   declared pattern index must be the one probes try first. *)
let test_view_reports_pattern_index () =
  let e =
    setup
      ("module e.\nexport find(bbf).\n\
        @make_index emp(Name, addr(Street, City)) (Name, City).\n\
        find(N, C, S) :- emp(N, addr(S, C)).\nend_module.\n"
      ^ String.concat " "
          (List.init 10 (fun i -> Printf.sprintf "emp(ann, addr(s%d, c%d))." i i)))
  in
  let view = Option.get (Coral.Engine.snapshot (Coral.engine e)) in
  Alcotest.(check bool) "frozen emp reports the pattern index" true
    (carries (Coral.Index.Paths [ [ 0 ]; [ 1; 1 ] ]) (frozen_indexes view "emp" 2));
  let found, visits =
    visiting (fun () -> rows (Coral.of_engine (Coral.Engine.read_view view)) "find(ann, c3, S)")
  in
  Alcotest.(check (list (list string))) "answer" [ [ "s3" ] ] found;
  (* the name index alone would hand the join all ten emp tuples *)
  Alcotest.(check bool) "probed by the pattern index" true (visits < 10)

let test_module_load_creates_no_relation () =
  let e = setup right_linear_paths in
  Alcotest.(check (list (pair string int))) "no base relation" []
    (Coral.Engine.list_relations (Coral.engine e))

(* ------------------------------------------------------------------ *)
(* Abstract data types through the facade                              *)
(* ------------------------------------------------------------------ *)

type money = { cents : int }

exception Money of money

let test_opaque_values () =
  let money =
    Coral.define_type ~name:"money"
      ~compare:(fun a b ->
        match a, b with Money x, Money y -> compare x.cents y.cents | _ -> assert false)
      ~print:(fun ppf -> function
        | Money m -> Format.fprintf ppf "$%d.%02d" (m.cents / 100) (m.cents mod 100)
        | _ -> assert false)
      ()
  in
  let e = Coral.create () in
  Coral.facts e "price"
    [ [ Coral.atom "tea"; money (Money { cents = 250 }) ];
      [ Coral.atom "coffee"; money (Money { cents = 420 }) ]
    ];
  (* equality and duplicate elimination work through user ops *)
  let rel = Coral.relation e "price" 2 in
  Alcotest.(check bool) "dup rejected" false
    (Coral.Relation.insert_terms rel [| Coral.atom "tea"; money (Money { cents = 250 }) |]);
  (* aggregation orders through user compare *)
  Coral.consult_text e
    "module m.\nexport cheapest(f).\ncheapest(min(P)) :- price(I, P).\nend_module.";
  check e "cheapest(P)" [ [ "$2.50" ] ];
  (* printing via user ops *)
  check e "price(tea, P)" [ [ "$2.50" ] ];
  (* arithmetic has no meaning on an opaque value: an evaluation error,
     as for a string operand *)
  Coral.consult_text e
    "module up.\nexport up(f).\nup(Q) :- price(I, P), Q = P + 1.\nend_module.";
  match Coral.query_rows e "up(Q)" with
  | _ -> Alcotest.fail "arithmetic on an opaque value answered"
  | exception Coral.Builtin.Eval_error m ->
    Alcotest.(check string) "error" "arithmetic on an opaque value" m

(* ------------------------------------------------------------------ *)
(* The answer path against the interpreter                             *)
(* ------------------------------------------------------------------ *)

(* The oracle: pipelined resolution over the same predicate resolution
   compiled modules use (another module's export, its maintained extent
   when it has one, a foreign predicate, else the stored relation), rows
   deduplicated on their resolved terms in first-seen order. *)
let oracle eng lits =
  let open Coral_lang in
  let arrays =
    List.map
      (function
        | Ast.Pos a | Ast.Neg a -> a.Ast.args
        | Ast.Cmp (_, a, b) | Ast.Is (a, b) -> [| a; b |])
      lits
  in
  let renumbered, nvars = Rename.number_term_lists arrays in
  let lits =
    List.map2
      (fun lit args ->
        match (lit : Ast.literal) with
        | Ast.Pos a -> Ast.Pos { a with Ast.args }
        | Ast.Neg a -> Ast.Neg { a with Ast.args }
        | Ast.Cmp (op, _, _) -> Ast.Cmp (op, args.(0), args.(1))
        | Ast.Is _ -> Ast.Is (args.(0), args.(1)))
      lits renumbered
  in
  let seen = Hashtbl.create 8 in
  let qvars =
    List.concat_map (fun a -> List.concat_map Term.vars (Array.to_list a)) renumbered
    |> List.filter (fun (v : Term.var) ->
           (not (Hashtbl.mem seen v.Term.vid)) && (Hashtbl.add seen v.Term.vid (); true))
  in
  let provider p n = Coral.Engine.provider eng p n in
  let rb =
    { Coral_eval.Pipeline.rules_of = (fun _ _ -> []);
      relation_of =
        (fun p n ->
          match provider p n with
          | Coral_eval.Module_struct.P_rel r -> Some r
          | Coral_eval.Module_struct.P_foreign _ -> None);
      foreign_of =
        (fun p n ->
          match provider p n with
          | Coral_eval.Module_struct.P_foreign f -> Some f
          | Coral_eval.Module_struct.P_rel _ -> None);
      tick = ignore
    }
  in
  let env = Bindenv.create (max nvars 1) in
  let rows = ref [] and dedup = Term.ArrayTbl.create 16 in
  Coral_eval.Pipeline.solve rb lits ~nvars ~env (fun () ->
      let row = Array.of_list (List.map (fun v -> Unify.resolve (Term.Var v) env) qvars) in
      if not (Term.ArrayTbl.mem dedup row) then begin
        Term.ArrayTbl.add dedup row ();
        rows := row :: !rows
      end);
  qvars, List.rev !rows

(* A row as the wire prints it. *)
let row_text qvars row =
  if qvars = [] then "true"
  else
    String.concat ", "
      (List.mapi
         (fun i (v : Term.var) -> v.Term.vname ^ " = " ^ Term.to_string row.(i))
         qvars)

let answer_texts f =
  match f () with
  | qvars, rows -> List.map (row_text qvars) rows
  | exception Coral.Builtin.Eval_error m -> [ "error: " ^ m ]

(* Generated programs: a ground edge relation over ints, functor terms,
   doubles and strings; non-ground facts in a relation of their own; a
   closure module exported in three forms, a pipelined module (whose
   answers repeat) and an aggregate; an interactive rule; numbers for
   arithmetic.  Generated queries cover single literals with bound
   and free arguments, repeated variables and constants, joins,
   negation, comparisons and arithmetic assignment. *)
let gen_program rs =
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let value () =
    match Random.State.int rs 10 with
    | 0 -> Printf.sprintf "f(%d)" (Random.State.int rs 3)
    | 1 -> Printf.sprintf "%d.5" (Random.State.int rs 3)
    | 2 -> Printf.sprintf "\"s%d\"" (Random.State.int rs 3)
    | _ -> string_of_int (Random.State.int rs 7)
  in
  let edges = List.init 24 (fun _ -> Printf.sprintf "e(%s, %s)." (value ()) (value ())) in
  let program =
    String.concat "\n" edges
    ^ "\ng(X, 3). g(f(Y), Y). g(1, 2). g(\"s1\", f(Z)). g(1, 2).\n\
       n(0). n(1). n(2). n(3). n(5).\n\
       module tc. export path(bf). export path(ff). export path(fb).\n\
       path(X, Y) :- e(X, Y). path(X, Y) :- e(X, Z), path(Z, Y). end_module.\n\
       s(X, Y) :- e(Y, X).\n\
       module pp. @pipelined. export pp(ff). export pp(bf).\n\
       pp(X, Y) :- e(X, Y). pp(X, Y) :- e(Y, X). end_module.\n\
       module agg. export cnt(ff). cnt(X, count(Y)) :- e(X, Y). end_module.\n"
  in
  let c () = value () in
  let queries =
    [ "e(X, Y)"; "e(" ^ c () ^ ", Y)"; "e(X, " ^ c () ^ ")"; "e(X, X)"; "e(X, _)";
      "e(" ^ c () ^ ", " ^ c () ^ ")"; "e(f(A), B)"; "path(" ^ c () ^ ", Y)"; "path(X, Y)";
      "path(X, X)"; "path(X, " ^ c () ^ ")"; "s(X, Y)"; "s(" ^ c () ^ ", Y)";
      "e(X, Y), e(Y, Z)"; "e(X, Y), not e(Y, X)"; "e(X, Y), not path(Y, X)";
      "path(X, Y), e(Y, " ^ c () ^ ")"; "n(X), n(Y), X < Y"; "n(X), Y = X * 2 + 1";
      "n(X), X = Y"; "n(X), not e(X, _)"; "g(X, Y)"; "g(f(A), B)"; "g(1, Y)"; "g(X, 3)";
      "g(X, Y), e(Y, Z)"; "member(X, [1, 2, 1]), e(X, Y)"; "e(X, Y), " ^ pick [ "X"; "Y" ] ^ " = 2";
      "pp(X, Y)"; "pp(" ^ c () ^ ", Y)"; "n(X), pp(X, Y)"; "cnt(X, N)"; "cnt(X, N), N > 1"
    ]
  in
  program, queries

let test_answer_differential () =
  let parse q = Result.get_ok (Coral.Parser.query q) in
  let compare_on label eng q =
    let lits = parse q in
    let got =
      answer_texts (fun () ->
          let r = Coral.Engine.query eng lits in
          r.Coral.Engine.qvars, r.Coral.Engine.rows)
    in
    let want = answer_texts (fun () -> oracle eng lits) in
    Alcotest.(check (list string)) (label ^ ": " ^ q) want got
  in
  for seed = 1 to 12 do
    let rs = Random.State.make [| seed |] in
    let program, queries = gen_program rs in
    List.iter
      (fun maintained ->
        let db = Coral.create () in
        Coral.Engine.set_maintenance (Coral.engine db) maintained;
        Coral.consult_text db program;
        let eng = Coral.engine db in
        let tag = Printf.sprintf "seed %d%s" seed (if maintained then " maintained" else "") in
        List.iter (compare_on (tag ^ " live") eng) queries;
        let view = Option.get (Coral.Engine.snapshot eng) in
        List.iter (compare_on (tag ^ " view") (Coral.Engine.read_view view)) queries;
        (* a commit after the pin: the pinned view keeps its epoch *)
        ignore
          (Coral.Engine.insert_facts eng
             [ Symbol.intern "e", [| Coral.int 0; Coral.int 6 |];
               Symbol.intern "e", [| Coral.int 6; Coral.int 0 |]
             ]);
        ignore (Coral.Engine.retract_facts eng [ Symbol.intern "n", [| Coral.int 1 |] ]);
        ignore (Coral.Engine.snapshot eng);
        List.iter (compare_on (tag ^ " pinned") (Coral.Engine.read_view view)) queries;
        List.iter (compare_on (tag ^ " after") eng) queries)
      [ false; true ]
  done

(* ------------------------------------------------------------------ *)
(* Skipped work changes no result                                      *)
(* ------------------------------------------------------------------ *)

(* Every evaluation mode and rewriting of a few fixed shapes (right-
   and left-linear closure, same generation, the paper's Figure 3
   shortest path) and of generated closure programs, sequential and on
   four lanes, live and through a frozen view, with no maintenance so
   every query runs its fixpoint.  Each query's derivations,
   duplicates and rows (as a set) must agree between live and view and
   between one lane and four; and per program, the digest of every
   query's configuration, derivations, duplicates and rows in the
   order they came is the value recorded before strata were pruned
   and empty deltas, dead rules and repeated joins skipped.  Naive
   evaluation's duplicates are left out of the digest: under
   supplementary magic and factoring they move by one or two with what
   the process interned before (the rows and derivations do not). *)
let modes = [ "bsn"; "psn"; "naive"; "ordered_search" ]
let rewritings = [ "magic"; "supplementary_magic"; "factoring"; "no_rewriting" ]

let skip_lines ~facts ~rules ~exports queries =
  let parse q = Result.get_ok (Coral.Parser.query q) in
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun rw ->
          let program =
            Printf.sprintf "%s\nmodule m. %s @%s. @%s. %s end_module.\n" facts exports mode rw rules
          in
          let run_on workers =
            let db = Coral.create ~workers () in
            Coral.Engine.set_maintenance (Coral.engine db) false;
            Coral.consult_text db program;
            let eng = Coral.engine db in
            let ask label eng =
              List.map
                (fun q ->
                  let i0, d0, _ = Coral.Relation.global_stats () in
                  let texts =
                    match Coral.Engine.query eng (parse q) with
                    | r -> List.map (row_text r.Coral.Engine.qvars) r.Coral.Engine.rows
                    | exception e -> [ "error: " ^ Printexc.to_string e ]
                  in
                  let i1, d1, _ = Coral.Relation.global_stats () in
                  let digest texts = Digest.to_hex (Digest.string (String.concat "\n" texts)) in
                  let work =
                    Printf.sprintf "%s/%s %s %d/%s" mode rw q (i1 - i0)
                      (if mode <> "naive" then string_of_int (d1 - d0) else "-")
                  in
                  ( work ^ " " ^ digest (List.sort compare texts),
                    Printf.sprintf "%s %s %s" label work (digest texts) ))
                queries
            in
            let live = ask (Printf.sprintf "live%d" workers) eng in
            let view =
              ask (Printf.sprintf "view%d" workers)
                (Coral.Engine.read_view (Option.get (Coral.Engine.snapshot eng)))
            in
            live, view
          in
          let live1, view1 = run_on 1 and live4, view4 = run_on 4 in
          List.iter2
            (fun (a, _) (b, _) -> Alcotest.(check string) "a frozen view does the same work" a b)
            live1 view1;
          List.iter2
            (fun (a, _) (b, _) -> Alcotest.(check string) "four lanes do the same work" a b)
            live1 live4;
          List.iter2
            (fun (a, _) (b, _) -> Alcotest.(check string) "a view on four lanes too" a b)
            live1 view4;
          List.map snd (live1 @ view1 @ live4 @ view4))
        rewritings)
    modes

let skip_digest ~facts ~rules ~exports queries =
  Digest.to_hex (Digest.string (String.concat "\n" (skip_lines ~facts ~rules ~exports queries)))

let tc_facts = "e(1, 2). e(2, 3). e(3, 4). e(4, 2). e(4, 5). e(6, 1)."

let skip_shapes =
  [ ( "right-linear closure",
      tc_facts,
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).",
      "export t(bf). export t(ff). export t(fb).",
      [ "t(1, Y)"; "t(X, Y)"; "t(X, 3)"; "t(5, Y)" ] );
    ( "left-linear closure",
      tc_facts,
      "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), e(Z, Y).",
      "export t(bf). export t(ff). export t(fb).",
      [ "t(1, Y)"; "t(X, Y)"; "t(X, 3)" ] );
    ( "same generation",
      "person(a). person(b). person(c). person(d). person(e). person(f).\n\
       par(b, a). par(c, a). par(d, b). par(e, c). par(f, e).",
      "t(X, X) :- person(X). t(X, Y) :- par(X, XP), t(XP, YP), par(Y, YP).",
      "export t(bf). export t(ff).",
      [ "t(d, Y)"; "t(X, Y)"; "t(f, Y)" ] );
    ( "figure 3 shortest path",
      "edge(a, b, 10). edge(b, c, 5). edge(a, c, 100). edge(c, a, 1). edge(c, d, 2).",
      "s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).\n\
       s_p_length(X, Y, min(C)) :- p(X, Y, P, C).\n\
       p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC), append([edge(Z, Y)], P, P1), C1 = C + EC.\n\
       p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).",
      "export s_p(bfff). @aggregate_selection p(X, Y, P, C) (X, Y) min(C).",
      [ "s_p(a, Y, P, C)"; "s_p(c, Y, P, C)" ] )
  ]

(* the generated programs' edges under both closures *)
let skip_generated seed =
  let program, _ = gen_program (Random.State.make [| seed |]) in
  let facts =
    String.concat "\n"
      (List.filter (String.starts_with ~prefix:"e(") (String.split_on_char '\n' program))
  in
  facts,
  "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y). u(X, Y) :- t(X, Y), not e(Y, X).",
  "export t(bf). export t(ff). export u(bf).",
  [ "t(1, Y)"; "t(f(2), Y)"; "t(X, Y)"; "u(2, Y)" ]

let skip_expected =
  [ "right-linear closure", "4e7bcabf72c019fe14d93fab777ceb01";
    "left-linear closure", "bce1002f1bb352b070e06a953914d19a";
    "same generation", "7230df3abe9437f71c20abc15cc0c025";
    "figure 3 shortest path", "2db2dd5375f987cd34d8b27ba26b5339";
    "generated 1", "009a18fd9ac46cfce3911b479e0fa67a";
    "generated 2", "dc164d4490e0443745c43e8a9dec669d";
    "generated 3", "307e292e198b85308a11a6fefa55683d"
  ]

let test_skips_change_nothing () =
  let got =
    List.map
      (fun (name, facts, rules, exports, queries) -> name, skip_digest ~facts ~rules ~exports queries)
      skip_shapes
    @ List.map
        (fun seed ->
          let facts, rules, exports, queries = skip_generated seed in
          Printf.sprintf "generated %d" seed, skip_digest ~facts ~rules ~exports queries)
        [ 1; 2; 3 ]
  in
  Alcotest.(check (list (pair string string))) "digests as before the skips" skip_expected got

(* A kept form compiles once; a request on a read view binds the view's
   relations into the same rule; a predicate that starts resolving
   differently (a foreign predicate registered under a stored name)
   recompiles the form, and then reads the new source. *)
let test_form_compiles_once () =
  let db = setup "sq(2, 4). sq(3, 9).\nmodule m. export twice(bf). twice(X, Y) :- sq(X, Z), Y = Z * 2. end_module." in
  let eng = Coral.engine db in
  let lits = Result.get_ok (Coral.Parser.query "sq(X, Y), twice(X, T)") in
  let form = Coral.Engine.form lits in
  let run eng =
    let prepared, _ = Coral.Engine.prepare eng form in
    List.map
      (fun row -> Array.to_list row |> List.map Term.to_string)
      (Coral.Engine.query ~prepared eng lits).Coral.Engine.rows
  in
  let c0 = Coral.Engine.compile_count eng in
  let first = run eng in
  let c1 = Coral.Engine.compile_count eng in
  Alcotest.(check (list (list string))) "answers" [ [ "2"; "4"; "8" ]; [ "3"; "9"; "18" ] ] first;
  let view = Coral.Engine.read_view (Option.get (Coral.Engine.snapshot eng)) in
  Alcotest.(check (list (list string))) "a view reads the same" first (run view);
  Alcotest.(check (list (list string))) "and again" first (run eng);
  Alcotest.(check int) "one query rule and one module compiled" 2 (c1 - c0);
  Alcotest.(check int) "a kept form compiles nothing more" c1 (Coral.Engine.compile_count eng);
  Coral.define_predicate db "sq" 2 (fun _ _ -> Seq.return [| Term.int 4; Term.int 16 |]);
  Alcotest.(check (list (list string))) "the foreign predicate answers" [ [ "4"; "16"; "32" ] ]
    (run eng)

let () =
  Alcotest.run "coral_engine"
    [ ( "builtins",
        [ Alcotest.test_case "lists" `Quick test_list_builtins;
          Alcotest.test_case "numeric" `Quick test_numeric_builtins;
          Alcotest.test_case "strings" `Quick test_string_builtins
        ] );
      ( "updates",
        [ Alcotest.test_case "assert/retract" `Quick test_assert_retract;
          Alcotest.test_case "plans survive base updates" `Quick test_plans_survive_base_updates
        ] );
      ( "explanation",
        [ Alcotest.test_case "derivation tree" `Quick test_why_tree;
          Alcotest.test_case "aggregate witnesses" `Quick test_why_aggregate;
          Alcotest.test_case "no answers" `Quick test_why_no_answers;
          Alcotest.test_case "errors" `Quick test_why_errors
        ] );
      ( "modules",
        [ Alcotest.test_case "reload invalidates plans" `Quick test_module_reload;
          Alcotest.test_case "call depth guard" `Quick test_call_depth_guard;
          Alcotest.test_case "top-level negation" `Quick test_top_level_negation;
          Alcotest.test_case "occurs check" `Quick test_occurs_check;
          Alcotest.test_case "aggregate rows in first-seen group order" `Quick test_aggregate_order;
          Alcotest.test_case "direct calls" `Quick test_direct_call;
          Alcotest.test_case "consult file" `Quick test_consult_file;
          Alcotest.test_case "foreign predicates" `Quick test_define_predicate;
          Alcotest.test_case "interactive clauses" `Quick test_user_clauses_and_queries;
          Alcotest.test_case "view pinned across reload" `Quick test_view_pinned_across_reload
        ] );
      ("extensibility", [ Alcotest.test_case "opaque values" `Quick test_opaque_values ]);
      ( "answer path",
        [ Alcotest.test_case "differential vs interpreter" `Quick test_answer_differential;
          Alcotest.test_case "skipped work changes no result" `Quick test_skips_change_nothing;
          Alcotest.test_case "a form compiles once" `Quick test_form_compiles_once
        ] );
      ( "index choice",
        [ Alcotest.test_case "view probes load-time index" `Quick
            test_view_probes_load_time_index;
          Alcotest.test_case "view reports pattern index" `Quick test_view_reports_pattern_index;
          Alcotest.test_case "module load creates no relation" `Quick
            test_module_load_creates_no_relation
        ] )
    ]
