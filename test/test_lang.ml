(* Tests for the language layer: lexer, parser, pretty-printer,
   well-formedness checks. *)

open Coral_term
open Coral_lang

let parse_ok src =
  match Parser.program src with
  | Ok items -> items
  | Error e -> Alcotest.failf "unexpected parse error: %a" Parser.pp_error e

let parse_err src =
  match Parser.program src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error e -> e

(* The paper's Figure 3, verbatim modulo concrete ASCII syntax. *)
let shortest_path_src =
  {|
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

let test_figure3 () =
  match parse_ok shortest_path_src with
  | [ Ast.Module_item m ] ->
    Alcotest.(check string) "name" "s_p" m.Ast.mname;
    Alcotest.(check int) "exports" 1 (List.length m.Ast.exports);
    (match m.Ast.exports with
    | [ e ] ->
      Alcotest.(check string) "adornment" "bfff" (Ast.adornment_to_string e.Ast.adorn)
    | _ -> Alcotest.fail "exports");
    Alcotest.(check int) "rules" 4 (List.length m.Ast.rules);
    (match m.Ast.annotations with
    | [ Ast.Ann_aggregate_selection { sel_pred; group_by; op; _ } ] ->
      Alcotest.(check string) "selection pred" "p" (Symbol.name sel_pred);
      Alcotest.(check int) "group by two" 2 (Array.length group_by);
      Alcotest.(check bool) "min" true (op = Ast.Min)
    | _ -> Alcotest.fail "annotations");
    (* the aggregate head s_p_length(X, Y, min(C)) *)
    let agg_rule = List.nth m.Ast.rules 1 in
    (match agg_rule.Ast.head.Ast.hargs.(2) with
    | Ast.Agg (Ast.Min, _) -> ()
    | _ -> Alcotest.fail "min head argument");
    (* the arithmetic literal C1 = C + EC *)
    let rec_rule = List.nth m.Ast.rules 2 in
    (match List.nth rec_rule.Ast.body 3 with
    | Ast.Is (_, Term.App { sym; _ }) ->
      Alcotest.(check string) "plus functor" "+" (Symbol.name sym)
    | _ -> Alcotest.fail "expected C1 = C + EC")
  | _ -> Alcotest.fail "expected exactly one module"

let test_facts_and_queries () =
  let items = parse_ok {|
edge(1, 2, 10).
edge(2, 3, 5).
?- s_p(1, Y, P, C).
|} in
  match items with
  | [ Ast.Fact f1; Ast.Fact _; Ast.Query [ Ast.Pos q ] ] ->
    Alcotest.(check string) "fact pred" "edge" (Symbol.name f1.Ast.pred);
    Alcotest.(check string) "query pred" "s_p" (Symbol.name q.Ast.pred);
    (match q.Ast.args.(0) with
    | Term.Const (Value.Int 1) -> ()
    | _ -> Alcotest.fail "bound first argument")
  | _ -> Alcotest.fail "expected two facts and a query"

let test_terms () =
  let t src =
    match Parser.term src with
    | Ok t -> t
    | Error e -> Alcotest.failf "%a" Parser.pp_error e
  in
  Alcotest.(check string) "negative int" "-5" (Term.to_string (t "-5"));
  Alcotest.(check string) "float" "3.14" (Term.to_string (t "3.14"));
  Alcotest.(check string) "list" "[1, 2, 3]" (Term.to_string (t "[1, 2, 3]"));
  Alcotest.(check string) "list tail" "[1 | T]" (Term.to_string (t "[1 | T]"));
  Alcotest.(check string) "string" "\"hi there\"" (Term.to_string (t "\"hi there\""));
  Alcotest.(check string) "quoted atom" "a b" (Term.to_string (t "'a b'"));
  (match t "99999999999999999999999999" with
  | Term.Const (Value.Big b) ->
    Alcotest.(check string) "bignum literal" "99999999999999999999999999" (Bignum.to_string b)
  | _ -> Alcotest.fail "expected bignum");
  (* arithmetic precedence: 1 + 2 * 3 = +(1, *(2, 3)) *)
  (match t "1 + 2 * 3" with
  | Term.App { sym; args = [| _; Term.App { sym = inner; _ } |]; _ } ->
    Alcotest.(check string) "outer" "+" (Symbol.name sym);
    Alcotest.(check string) "inner" "*" (Symbol.name inner)
  | _ -> Alcotest.fail "precedence")

let test_variables_clause_local () =
  let items = parse_ok "p(X, Y) :- q(X, Y).\nr(X) :- s(X)." in
  match items with
  | [ Ast.Clause_item r1; Ast.Clause_item r2 ] ->
    let v_of_rule (r : Ast.rule) =
      match r.Ast.head.Ast.hargs.(0) with
      | Ast.Plain (Term.Var v) -> v.Term.vid
      | _ -> Alcotest.fail "expected var"
    in
    (* both clauses number their X from 0 *)
    Alcotest.(check int) "first clause X" 0 (v_of_rule r1);
    Alcotest.(check int) "second clause X" 0 (v_of_rule r2);
    (* head and body share the variable *)
    (match r1.Ast.body with
    | [ Ast.Pos q ] -> begin
      match q.Ast.args.(0), r1.Ast.head.Ast.hargs.(0) with
      | Term.Var bv, Ast.Plain (Term.Var hv) ->
        Alcotest.(check int) "shared" hv.Term.vid bv.Term.vid
      | _ -> Alcotest.fail "vars"
    end
    | _ -> Alcotest.fail "body")
  | _ -> Alcotest.fail "expected two clauses"

let test_anonymous_vars_distinct () =
  match parse_ok "p(_, _)." with
  | [ Ast.Fact f ] -> begin
    match f.Ast.args.(0), f.Ast.args.(1) with
    | Term.Var a, Term.Var b ->
      Alcotest.(check bool) "distinct anonymous vars" true (a.Term.vid <> b.Term.vid)
    | _ -> Alcotest.fail "vars"
  end
  | _ -> Alcotest.fail "fact"

let test_set_grouping () =
  let items = parse_ok "module m.\nchildren(X, <C>) :- parent(X, C).\nend_module." in
  match items with
  | [ Ast.Module_item m ] -> begin
    match (List.hd m.Ast.rules).Ast.head.Ast.hargs.(1) with
    | Ast.Agg (Ast.Collect, Term.Var _) -> ()
    | _ -> Alcotest.fail "expected set-grouping head argument"
  end
  | _ -> Alcotest.fail "module"

let test_negation_and_comparisons () =
  let items =
    parse_ok "module m.\np(X) :- q(X), not r(X), X < 10, X != 3.\nend_module."
  in
  match items with
  | [ Ast.Module_item m ] -> begin
    match (List.hd m.Ast.rules).Ast.body with
    | [ Ast.Pos _; Ast.Neg n; Ast.Cmp (Ast.Lt, _, _); Ast.Cmp (Ast.Ne, _, _) ] ->
      Alcotest.(check string) "negated pred" "r" (Symbol.name n.Ast.pred)
    | _ -> Alcotest.fail "body shape"
  end
  | _ -> Alcotest.fail "module"

let test_annotations () =
  let items =
    parse_ok
      {|
module m.
@pipelined.
@save_module.
@multiset p/2.
@sip(max_bound).
@make_index emp(Name, addr(Street, City)) (Name, City).
p(X, Y) :- q(X, Y).
end_module.
|}
  in
  match items with
  | [ Ast.Module_item m ] ->
    Alcotest.(check int) "five annotations" 5 (List.length m.Ast.annotations);
    Alcotest.(check bool) "sip parsed" true
      (List.mem (Ast.Ann_sip Ast.Max_bound) m.Ast.annotations);
    (* annotations roundtrip through the printer *)
    let printed = Format.asprintf "%a" Pretty.pp_module m in
    (match Parser.program printed with
    | Ok [ Ast.Module_item m2 ] ->
      Alcotest.(check int) "annotations survive print/parse" 5
        (List.length m2.Ast.annotations)
    | _ -> Alcotest.fail "reparse");
    Alcotest.(check bool) "pipelined" true (List.mem Ast.Ann_pipelined m.Ast.annotations);
    Alcotest.(check bool) "save module" true (List.mem Ast.Ann_save_module m.Ast.annotations);
    (match
       List.find_opt (function Ast.Ann_make_index _ -> true | _ -> false) m.Ast.annotations
     with
    | Some (Ast.Ann_make_index { keys; _ }) -> Alcotest.(check int) "two keys" 2 (List.length keys)
    | _ -> Alcotest.fail "make_index")
  | _ -> Alcotest.fail "module"

let test_parse_errors () =
  let e1 = parse_err "p(X" in
  Alcotest.(check bool) "missing paren reported" true
    (String.length e1.Parser.message > 0);
  ignore (parse_err "module m.\np(X).");
  (* unterminated module *)
  ignore (parse_err "p(X) :- .");
  ignore (parse_err "p(X) :- q(X)")
(* missing final dot *)

(* insert / retract directives: first-class program items *)
let test_update_items () =
  let items = parse_ok "insert edge(1, 2).\nretract edge(2, 3).\nedge(3, 4).\n" in
  (match items with
  | [ Ast.Update (Ast.Upd_insert, a); Ast.Update (Ast.Upd_retract, b); Ast.Fact _ ] ->
    Alcotest.(check string) "insert target" "edge" (Symbol.name a.Ast.pred);
    Alcotest.(check int) "insert arity" 2 (Array.length a.Ast.args);
    Alcotest.(check string) "retract target" "edge" (Symbol.name b.Ast.pred)
  | _ -> Alcotest.fail "expected insert, retract, fact");
  (* an update names a stored tuple: non-ground arguments are refused *)
  ignore (parse_err "retract edge(1, X).");
  ignore (parse_err "insert edge(Y, 2).");
  (* `insert`/`retract` stay usable as ordinary predicate names *)
  (match parse_ok "insert(1, 2)." with
  | [ Ast.Fact a ] -> Alcotest.(check string) "insert/2 fact" "insert" (Symbol.name a.Ast.pred)
  | _ -> Alcotest.fail "insert(1, 2). must parse as a fact");
  (* and they roundtrip through the printer *)
  let printed = Format.asprintf "%a" Pretty.pp_program items in
  let reparsed = parse_ok printed in
  let printed2 = Format.asprintf "%a" Pretty.pp_program reparsed in
  Alcotest.(check string) "fixpoint of print/parse" printed printed2;
  Alcotest.(check int) "same item count" (List.length items) (List.length reparsed)

let test_pretty_roundtrip () =
  (* pretty-printing Figure 3 and re-parsing yields the same program *)
  let items = parse_ok shortest_path_src in
  let printed = Format.asprintf "%a" Pretty.pp_program items in
  let reparsed = parse_ok printed in
  let printed2 = Format.asprintf "%a" Pretty.pp_program reparsed in
  Alcotest.(check string) "fixpoint of print/parse" printed printed2;
  Alcotest.(check int) "same item count" (List.length items) (List.length reparsed)

let prop_pretty_roundtrip_random =
  (* random rules print and reparse to the same text *)
  let gen_rule =
    QCheck2.Gen.(
      let var = map (fun i -> Term.var ~name:("V" ^ string_of_int i) i) (int_range 0 3) in
      let const = map Term.int (int_range 0 9) in
      let simple = oneof [ var; const ] in
      let term =
        oneof
          [ simple;
            map2
              (fun name args -> Term.app (Symbol.intern name) (Array.of_list args))
              (oneofl [ "f"; "g" ])
              (list_size (int_range 1 2) simple)
          ]
      in
      let atom =
        map2
          (fun name args -> { Ast.pred = Symbol.intern name; args = Array.of_list args })
          (oneofl [ "p"; "q"; "r" ])
          (list_size (int_range 1 3) term)
      in
      map2
        (fun head body -> { Ast.head = Ast.head_of_atom head; body = List.map (fun a -> Ast.Pos a) body })
        atom
        (list_size (int_range 0 3) atom))
  in
  QCheck2.Test.make ~name:"random rules roundtrip through print/parse" ~count:300 gen_rule
    (fun rule ->
      let printed = Pretty.rule_to_string rule in
      match Parser.program printed with
      | Ok [ item ] ->
        let printed2 =
          match item with
          | Ast.Clause_item r -> Pretty.rule_to_string r
          | Ast.Fact a -> Pretty.rule_to_string { Ast.head = Ast.head_of_atom a; body = [] }
          | _ -> "<other>"
        in
        String.equal printed printed2
      | _ -> false)

let test_wellformed () =
  let get_module src =
    match parse_ok src with
    | [ Ast.Module_item m ] -> m
    | _ -> Alcotest.fail "module expected"
  in
  (* unsafe negation *)
  let m = get_module "module m.\np(X) :- q(X), not r(Y).\nend_module." in
  Alcotest.(check bool) "unsafe negation is an error" true
    (Wellformed.errors (Wellformed.check_module m) <> []);
  (* safe program *)
  let m = get_module "module m.\nexport p(bf).\np(X, Y) :- q(X, Y), not r(X), X < Y.\nend_module." in
  Alcotest.(check (list string)) "no errors" []
    (List.map (fun i -> i.Wellformed.what) (Wellformed.errors (Wellformed.check_module m)));
  (* non-ground head is only a warning *)
  let m = get_module "module m.\np(X, Y) :- q(X).\nend_module." in
  let issues = Wellformed.check_module m in
  Alcotest.(check bool) "warning present" true
    (List.exists (fun i -> i.Wellformed.severity = `Warning) issues);
  Alcotest.(check (list string)) "but no error" []
    (List.map (fun i -> i.Wellformed.what) (Wellformed.errors issues));
  (* missing export definition *)
  let m = get_module "module m.\nexport nope(bf).\np(X, Y) :- q(X, Y).\nend_module." in
  Alcotest.(check bool) "export warning" true
    (List.exists
       (fun i -> i.Wellformed.severity = `Warning)
       (Wellformed.check_module m));
  (* an export at an arity the module does not define its name at
     would answer nothing: an error that names the defined arities *)
  let m = get_module "module m2.\nexport q(ff).\nq(X) :- other(X).\nend_module." in
  Alcotest.(check (list string)) "export at the wrong arity"
    [ "exported predicate q/2 is defined only as q/1" ]
    (List.map (fun i -> i.Wellformed.what) (Wellformed.errors (Wellformed.check_module m)));
  (* bad aggregate selection annotation *)
  let m =
    get_module
      "module m.\n@aggregate_selection p(X, Y) (Z) min(C).\np(X, Y) :- q(X, Y).\nend_module."
  in
  Alcotest.(check bool) "agg selection var check" true
    (Wellformed.errors (Wellformed.check_module m) <> [])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_lang"
    [ ( "parser",
        [ Alcotest.test_case "figure 3 shortest path" `Quick test_figure3;
          Alcotest.test_case "facts and queries" `Quick test_facts_and_queries;
          Alcotest.test_case "terms" `Quick test_terms;
          Alcotest.test_case "clause-local variables" `Quick test_variables_clause_local;
          Alcotest.test_case "anonymous variables" `Quick test_anonymous_vars_distinct;
          Alcotest.test_case "set grouping" `Quick test_set_grouping;
          Alcotest.test_case "negation and comparisons" `Quick test_negation_and_comparisons;
          Alcotest.test_case "annotations" `Quick test_annotations;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "insert/retract items" `Quick test_update_items
        ] );
      ( "pretty",
        [ Alcotest.test_case "figure 3 roundtrip" `Quick test_pretty_roundtrip ]
        @ qcheck [ prop_pretty_roundtrip_random ] );
      ("wellformed", [ Alcotest.test_case "checks" `Quick test_wellformed ])
    ]
