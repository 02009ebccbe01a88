(* Cross-validation properties: the deductive engine against
   independent reference implementations written directly in OCaml —
   graph closure by set algebra, Dijkstra for Figure 3, a memoized game
   solver for ordered search, reference folds for aggregation — plus
   random-program strategy equivalence and parser robustness. *)

open Coral_term

let setup src =
  let e = Coral.create () in
  Coral.consult_text e src;
  e

let int_rows e q =
  Coral.query_rows e q
  |> List.map (fun row ->
         Array.to_list row
         |> List.map (function Term.Const (Value.Int i) -> i | _ -> min_int))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Transitive closure vs. set-algebra reference                        *)
(* ------------------------------------------------------------------ *)

let reference_closure edges =
  let module P = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let step s =
    P.fold
      (fun (a, b) acc ->
        P.fold (fun (c, d) acc -> if b = c then P.add (a, d) acc else acc) s acc)
      s s
  in
  let rec fix s =
    let s' = step s in
    if P.equal s s' then s else fix s'
  in
  fix (P.of_list edges) |> P.elements

let gen_edges = QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 9) (int_range 0 9)))

let prop_closure_vs_reference =
  QCheck2.Test.make ~name:"engine closure = set-algebra closure" ~count:80 gen_edges
    (fun edges ->
      let facts =
        String.concat "" (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d).\n" a b) edges)
      in
      let e =
        setup
          (facts
         ^ "module m.\nexport path(ff).\npath(X, Y) :- edge(X, Y).\n\
            path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.")
      in
      let got = int_rows e "path(X, Y)" in
      let want = List.sort compare (List.map (fun (a, b) -> [ a; b ]) (reference_closure edges)) in
      got = want)

(* Bound queries on linear TC under every rewriting the optimizer can
   pick for them: the default (context factoring), supplementary magic,
   a saved module serving several sources from one instance, and no
   rewriting.  Left- and right-recursive forms, bf and bb query forms. *)
let prop_linear_bound_vs_reference =
  QCheck2.Test.make ~name:"bound linear closure = set-algebra closure, every rewriting" ~count:40
    QCheck2.Gen.(
      triple gen_edges
        (list_size (int_range 1 4) (int_range 0 9))
        (list_size (int_range 1 4) (pair (int_range 0 9) (int_range 0 9))))
    (fun (edges, sources, pairs) ->
      let facts =
        String.concat "" (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d).\n" a b) edges)
      in
      let closure = reference_closure edges in
      let recursive_rules =
        [ "path(X, Y) :- path(X, Z), edge(Z, Y)."; "path(X, Y) :- edge(X, Z), path(Z, Y)." ]
      in
      let annotations = [ ""; "@supplementary_magic."; "@save_module."; "@no_rewriting." ] in
      List.for_all
        (fun recursive ->
          List.for_all
            (fun anns ->
              let e =
                setup
                  (Printf.sprintf
                     "%smodule m.\nexport path(bf).\nexport path(bb).\n%s\n\
                      path(X, Y) :- edge(X, Y).\n%s\nend_module."
                     facts anns recursive)
              in
              List.for_all
                (fun src ->
                  int_rows e (Printf.sprintf "path(%d, Y)" src)
                  = List.filter_map (fun (a, b) -> if a = src then Some [ b ] else None) closure)
                sources
              && List.for_all
                   (fun (a, b) ->
                     int_rows e (Printf.sprintf "path(%d, %d)" a b) <> []
                     = List.mem (a, b) closure)
                   pairs)
            annotations)
        recursive_rules)

(* ------------------------------------------------------------------ *)
(* Figure 3 vs. Dijkstra                                               *)
(* ------------------------------------------------------------------ *)

let dijkstra ~nodes edges src =
  let dist = Array.make nodes max_int in
  dist.(src) <- 0;
  let visited = Array.make nodes false in
  let rec loop () =
    let u = ref (-1) in
    for i = 0 to nodes - 1 do
      if (not visited.(i)) && dist.(i) < max_int && (!u = -1 || dist.(i) < dist.(!u)) then u := i
    done;
    if !u >= 0 then begin
      visited.(!u) <- true;
      List.iter
        (fun (a, b, w) ->
          if a = !u && dist.(a) + w < dist.(b) then dist.(b) <- dist.(a) + w)
        edges;
      loop ()
    end
  in
  loop ();
  dist

let shortest_path_module =
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

let prop_shortest_path_vs_dijkstra =
  QCheck2.Test.make ~name:"figure 3 distances = dijkstra (cyclic graphs)" ~count:40
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 25)
           (triple (int_range 0 7) (int_range 0 7) (int_range 1 20)))
        (int_range 0 7))
    (fun (edges, src) ->
      let edges = List.filter (fun (a, b, _) -> a <> b) edges in
      let facts =
        String.concat ""
          (List.map (fun (a, b, w) -> Printf.sprintf "edge(%d, %d, %d).\n" a b w) edges)
      in
      let e = setup (facts ^ shortest_path_module) in
      let got =
        Coral.query_rows e (Printf.sprintf "s_p(%d, Y, P, C)" src)
        |> List.filter_map (fun row ->
               match row.(0), row.(2) with
               | Term.Const (Value.Int y), Term.Const (Value.Int c) -> Some (y, c)
               | _ -> None)
        |> List.sort compare
      in
      let dist = dijkstra ~nodes:8 edges src in
      let want =
        List.init 8 (fun y -> y, dist.(y))
        |> List.filter (fun (y, d) -> d < max_int && (y <> src || d = 0))
        |> List.filter (fun (y, _) ->
               (* the datalog program derives paths of >= 1 edge; the
                  source itself appears only if a cycle returns to it *)
               y <> src || List.exists (fun (got_y, _) -> got_y = src) got)
        |> List.sort compare
      in
      (* compare distances on the common domain; s_p to the source uses
         cycle paths where dijkstra reports 0, so drop the source *)
      let strip l = List.filter (fun (y, _) -> y <> src) l in
      strip got = strip want)

(* ------------------------------------------------------------------ *)
(* Ordered search vs. memoized game solver                             *)
(* ------------------------------------------------------------------ *)

let prop_game_vs_reference =
  QCheck2.Test.make ~name:"ordered-search win/move = memoized game solver" ~count:60
    (* moves strictly increase the node number: an acyclic game *)
    QCheck2.Gen.(list_size (int_range 0 25) (pair (int_range 0 8) (int_range 1 6)))
    (fun raw ->
      let moves =
        List.filter_map (fun (a, d) -> if a + d <= 9 then Some (a, a + d) else None) raw
        |> List.sort_uniq compare
      in
      let memo = Hashtbl.create 16 in
      let rec wins x =
        match Hashtbl.find_opt memo x with
        | Some w -> w
        | None ->
          let w = List.exists (fun (a, b) -> a = x && not (wins b)) moves in
          Hashtbl.add memo x w;
          w
      in
      let facts =
        String.concat "" (List.map (fun (a, b) -> Printf.sprintf "move(%d, %d).\n" a b) moves)
      in
      let e =
        setup
          (facts ^ "module game.\nexport win(b).\nwin(X) :- move(X, Y), not win(Y).\nend_module.")
      in
      List.for_all
        (fun x ->
          let got = Coral.exists e (Printf.sprintf "win(%d)" x) in
          got = wins x)
        (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* Aggregation vs. reference folds                                     *)
(* ------------------------------------------------------------------ *)

let prop_aggregates_vs_fold =
  QCheck2.Test.make ~name:"aggregate heads = reference folds" ~count:80
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 4) (int_range (-50) 50)))
    (fun rows ->
      let facts =
        String.concat ""
          (List.mapi (fun i (g, v) -> Printf.sprintf "m(%d, %d, %d).\n" i g v) rows)
      in
      let e =
        setup
          (facts
         ^ "module agg.\nexport s(ff).\nexport c(ff).\nexport mn(ff).\nexport mx(ff).\n\
            s(G, sum(V)) :- m(I, G, V).\nc(G, count(I)) :- m(I, G, V).\n\
            mn(G, min(V)) :- m(I, G, V).\nmx(G, max(V)) :- m(I, G, V).\nend_module.")
      in
      let groups =
        List.sort_uniq compare (List.map fst rows)
      in
      let vals g = List.filter_map (fun (g', v) -> if g' = g then Some v else None) rows in
      let expect f = List.sort compare (List.map (fun g -> [ g; f (vals g) ]) groups) in
      int_rows e "s(G, V)" = expect (List.fold_left ( + ) 0)
      && int_rows e "c(G, N)" = expect List.length
      && int_rows e "mn(G, V)" = expect (fun l -> List.fold_left min max_int l)
      && int_rows e "mx(G, V)" = expect (fun l -> List.fold_left max min_int l))

(* ------------------------------------------------------------------ *)
(* Ordered-search recursive aggregation vs. reference recursion        *)
(* ------------------------------------------------------------------ *)

let prop_bom_vs_reference =
  QCheck2.Test.make ~name:"ordered-search bill of materials = reference recursion" ~count:40
    (* sub(p, s) edges always point to a higher-numbered part: a DAG *)
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 12) (pair (int_range 0 5) (int_range 1 4)))
        (array_size (return 8) (int_range 1 30)))
    (fun (raw, base) ->
      let subs =
        List.filter_map (fun (p, d) -> if p + d <= 7 then Some (p, p + d) else None) raw
        |> List.sort_uniq compare
      in
      let memo = Hashtbl.create 8 in
      let rec total p =
        match Hashtbl.find_opt memo p with
        | Some t -> t
        | None ->
          let t =
            base.(p)
            + List.fold_left (fun acc (p', s) -> if p' = p then acc + total s else acc) 0 subs
          in
          Hashtbl.add memo p t;
          t
      in
      let facts =
        String.concat ""
          (List.init 8 (fun p -> Printf.sprintf "part(%d).\nbasecost(%d, %d).\n" p p base.(p))
          @ List.map (fun (p, s) -> Printf.sprintf "sub(%d, %d).\n" p s) subs)
      in
      let e =
        setup
          (facts
         ^ {|
module bom.
export total(bf).
@ordered_search.
subtotal(P, sum(C)) :- sub(P, S), total(S, C).
total(P, C) :- part(P), not haspart(P), basecost(P, C).
total(P, C) :- part(P), haspart(P), subtotal(P, SC), basecost(P, BC), C = SC + BC.
haspart(P) :- sub(P, _).
end_module.
|})
      in
      List.for_all
        (fun p ->
          match int_rows e (Printf.sprintf "total(%d, C)" p) with
          | [ [ c ] ] -> c = total p
          | _ -> false)
        (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* Random non-recursive programs: pipelined = materialized             *)
(* ------------------------------------------------------------------ *)

let prop_pipelined_equals_materialized =
  QCheck2.Test.make ~name:"pipelined = materialized on non-recursive programs" ~count:60
    QCheck2.Gen.(
      triple gen_edges
        (list_size (int_range 0 15) (pair (int_range 0 9) (int_range 0 9)))
        (int_range 0 9))
    (fun (e1, e2, src) ->
      let facts =
        String.concat ""
          (List.map (fun (a, b) -> Printf.sprintf "r(%d, %d).\n" a b) e1
          @ List.map (fun (a, b) -> Printf.sprintf "s(%d, %d).\n" a b) e2)
      in
      let program anns =
        Printf.sprintf
          "module m%s.\nexport q%s(bf).\n%s\nq%s(X, Z) :- r(X, Y), s(Y, Z).\n\
           q%s(X, Z) :- s(X, Y), r(Y, Z), Y != 3.\nend_module."
          anns anns
          (if anns = "" then "" else "@pipelined.")
          anns anns
      in
      let e = setup (facts ^ program "" ^ program "_p") in
      let a = int_rows e (Printf.sprintf "q(%d, Z)" src) in
      let b =
        (* pipelining does not deduplicate *)
        List.sort_uniq compare (int_rows e (Printf.sprintf "q_p(%d, Z)" src))
      in
      a = List.sort compare b)

(* ------------------------------------------------------------------ *)
(* Ordered search agrees with stratified evaluation where both apply   *)
(* ------------------------------------------------------------------ *)

let prop_os_equals_stratified =
  QCheck2.Test.make ~name:"ordered search = stratified evaluation on stratified programs"
    ~count:50
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 20) (pair (int_range 0 6) (int_range 0 6)))
        (list_size (int_range 0 5) (int_range 0 6)))
    (fun (edges, blocked) ->
      let facts =
        String.concat ""
          (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d).\n" a b) edges
          @ List.map (fun b -> Printf.sprintf "blocked(%d).\n" b) (List.sort_uniq compare blocked))
      in
      let program name ann =
        Printf.sprintf
          "module %s.\nexport %s_safe(ff).\n%s\n%s_reach(X, Y) :- edge(X, Y), not blocked(Y).\n%s_reach(X, Y) :- %s_reach(X, Z), edge(Z, Y), not blocked(Y).\n%s_safe(X, Y) :- %s_reach(X, Y).\nend_module."
          name name ann name name name name name
      in
      let e = setup (facts ^ program "a" "" ^ program "b" "@ordered_search.") in
      int_rows e "a_safe(X, Y)" = int_rows e "b_safe(X, Y)")

let prop_lazy_equals_eager =
  QCheck2.Test.make ~name:"lazy evaluation = eager evaluation" ~count:50 gen_edges
    (fun edges ->
      let facts =
        String.concat "" (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d).\n" a b) edges)
      in
      let program name ann =
        Printf.sprintf
          "module %s.\nexport %s_path(bf).\n%s\n%s_path(X, Y) :- edge(X, Y).\n%s_path(X, Y) :- edge(X, Z), %s_path(Z, Y).\nend_module."
          name name ann name name name
      in
      let e = setup (facts ^ program "a" "" ^ program "b" "@lazy_eval.") in
      List.for_all
        (fun src ->
          int_rows e (Printf.sprintf "a_path(%d, Y)" src)
          = int_rows e (Printf.sprintf "b_path(%d, Y)" src))
        [ 0; 3; 7 ])

(* ------------------------------------------------------------------ *)
(* Parser robustness                                                   *)
(* ------------------------------------------------------------------ *)

let prop_parser_never_crashes =
  QCheck2.Test.make ~name:"parser returns Ok or Error, never crashes" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))
    (fun src ->
      match Coral.Parser.program src with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_printed_modules_reparse =
  (* well-formed random programs survive print -> parse -> print *)
  QCheck2.Test.make ~name:"generated TC-like modules roundtrip" ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 3))
    (fun (npreds, nbase) ->
      let b = Buffer.create 128 in
      Buffer.add_string b "module gen.\n";
      for i = 0 to npreds - 1 do
        Buffer.add_string b (Printf.sprintf "export p%d(bf).\n" i)
      done;
      for i = 0 to npreds - 1 do
        for j = 0 to nbase - 1 do
          Buffer.add_string b (Printf.sprintf "p%d(X, Y) :- e%d(X, Y).\n" i j)
        done;
        Buffer.add_string b
          (Printf.sprintf "p%d(X, Y) :- e0(X, Z), p%d(Z, Y).\n" i ((i + 1) mod npreds))
      done;
      Buffer.add_string b "end_module.\n";
      match Coral.Parser.program (Buffer.contents b) with
      | Ok items ->
        let printed = Format.asprintf "%a" Coral.Pretty.pp_program items in
        (match Coral.Parser.program printed with
        | Ok items2 ->
          Format.asprintf "%a" Coral.Pretty.pp_program items2 = printed
        | Error _ -> false)
      | Error _ -> false)

(* Any byte string survives printing and re-parsing, as a fact's
   argument and as a rule constant: the term printer's quoting and the
   lexer's escapes agree byte for byte, so program text shipped between
   processes keeps its strings. *)
let prop_strings_reparse =
  QCheck.Test.make ~name:"strings round-trip through the printer and parser" ~count:500
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:char (int_range 0 24)))
    (fun s ->
      let quoted = Term.to_string (Term.str s) in
      let fact =
        match Coral.Parser.program ("p(" ^ quoted ^ ").") with
        | Ok [ Coral.Ast.Fact a ] -> Term.equal_array a.Coral.Ast.args [| Term.str s |]
        | _ -> false
      in
      let rule =
        match Coral.Parser.program ("q(X) :- p(X, " ^ quoted ^ ").") with
        | Ok [ Coral.Ast.Clause_item r ] -> (
          let printed = Coral.Pretty.rule_to_string r in
          match r.Coral.Ast.body, Coral.Parser.program printed with
          | [ Coral.Ast.Pos a ], Ok [ Coral.Ast.Clause_item r2 ] ->
            Term.equal a.Coral.Ast.args.(1) (Term.str s)
            && Coral.Pretty.rule_to_string r2 = printed
          | _ -> false)
        | _ -> false
      in
      fact && rule)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_properties"
    [ ( "references",
        qcheck
          [ prop_closure_vs_reference;
            prop_shortest_path_vs_dijkstra;
            prop_game_vs_reference;
            prop_aggregates_vs_fold;
            prop_bom_vs_reference;
            prop_linear_bound_vs_reference
          ] );
      ( "strategies",
        qcheck
          [ prop_pipelined_equals_materialized;
            prop_os_equals_stratified;
            prop_lazy_equals_eager
          ] );
      ( "robustness",
        qcheck [ prop_parser_never_crashes; prop_printed_modules_reparse; prop_strings_reparse ] )
    ]
