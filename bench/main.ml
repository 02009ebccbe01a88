(* The benchmark harness: one experiment per quantitative claim in the
   paper (see DESIGN.md section 3 and EXPERIMENTS.md for the index).

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- magic seminaive
   List experiments:      dune exec bench/main.exe -- --list

   Times are medians of 3 runs (wall clock, monotonic); derivation
   work is reported through the relation layer's global counters
   (inserts = facts stored, dup = derivations rejected as duplicates,
   scans = get-next-tuple scans opened), which are machine-independent. *)

open Harness

let query_count db q =
  let rows = Coral.query_rows db q in
  List.length rows

(* ------------------------------------------------------------------ *)
(* E1: aggregate selections (Figure 3)                                 *)
(* ------------------------------------------------------------------ *)

let exp_agg_selection () =
  header "E1 agg_selection: Figure 3 shortest paths"
    "With @aggregate_selection, single-source shortest path terminates on\n\
     cyclic graphs and scales roughly with E*V.  Without it the program\n\
     enumerates every simple path (here on layered DAGs, where the path\n\
     count explodes exponentially and with it the work).";
  let rows_cyclic =
    List.map
      (fun n ->
        let db = Workloads.fresh_db () in
        Workloads.load_triples db "edge" (Workloads.weighted_ring ~seed:42 n);
        Coral.consult_text db (Workloads.shortest_path_module ~with_selection:true);
        let t, answers, (ins, dup, _) = measure (fun () -> query_count db "s_p(0, Y, P, C)") in
        [ Printf.sprintf "cyclic ring+chords V=%d" n; "with selection"; fmt_time t;
          string_of_int answers; fmt_int ins; fmt_int dup
        ])
      [ 16; 32; 64; 128 ]
  in
  let rows_dag =
    List.concat_map
      (fun layers ->
        List.map
          (fun with_selection ->
            let db = Workloads.fresh_db () in
            List.iter
              (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b; Coral.int 1 ])
              (Workloads.layered_dag ~layers ~width:3);
            Coral.consult_text db (Workloads.shortest_path_module ~with_selection);
            let t, answers, (ins, dup, _) =
              measure (fun () -> query_count db "s_p(0, Y, P, C)")
            in
            [ Printf.sprintf "DAG %d layers x3" layers;
              (if with_selection then "with selection" else "no selection");
              fmt_time t; string_of_int answers; fmt_int ins; fmt_int dup
            ])
          [ true; false ])
      [ 4; 5; 6 ]
  in
  table [ "workload"; "variant"; "time"; "answers"; "facts"; "dup-derivs" ] (rows_cyclic @ rows_dag)

(* ------------------------------------------------------------------ *)
(* E2: magic rewriting                                                 *)
(* ------------------------------------------------------------------ *)

let exp_magic () =
  header "E2 magic: selection propagation on same-generation"
    "A bound query sg(leaf, Y) on a complete binary tree: Supplementary\n\
     Magic touches only the relevant subtree/generation; unrewritten\n\
     evaluation computes the whole same-generation relation.";
  let rows =
    List.concat_map
      (fun depth ->
        let build anns pred =
          let db = Workloads.fresh_db () in
          let n = (1 lsl depth) - 1 in
          for i = 1 to n do
            Coral.fact db "person" [ Coral.int i ]
          done;
          Workloads.load_pairs db "par" (Workloads.tree_parents depth);
          Coral.consult_text db (Workloads.sg_module ~pred anns);
          db, n
        in
        let leaf = (1 lsl (depth - 1)) + 3 in
        List.map
          (fun (label, anns, pred) ->
            let db, n = build anns pred in
            let t, answers, (ins, dup, _) =
              measure (fun () -> query_count db (Printf.sprintf "%s(%d, Y)" pred leaf))
            in
            [ Printf.sprintf "tree depth %d (%d people)" depth n; label; fmt_time t;
              string_of_int answers; fmt_int ins; fmt_int dup
            ])
          [ "supplementary magic", "@supplementary_magic.", "sg";
            "plain magic", "@magic.", "sgm";
            "no rewriting", "@no_rewriting.", "sgn"
          ])
      [ 8; 10 ]
  in
  table [ "workload"; "rewriting"; "time"; "answers"; "facts"; "dup-derivs" ] rows

(* ------------------------------------------------------------------ *)
(* E3: semi-naive vs naive                                             *)
(* ------------------------------------------------------------------ *)

let exp_seminaive () =
  header "E3 seminaive: incremental fixpoint vs naive iteration"
    "Full transitive closure of a chain.  Naive evaluation re-derives\n\
     every known fact in every round (quadratic rederivation, visible in\n\
     the duplicate counter); semi-naive derives each fact once.";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            Workloads.load_pairs db "edge" (Workloads.chain n);
            Coral.consult_text db (Workloads.tc_module anns);
            let t, answers, (ins, dup, _) = measure (fun () -> query_count db "path(X, Y)") in
            [ Printf.sprintf "chain %d" n; label; fmt_time t; string_of_int answers;
              fmt_int ins; fmt_int dup
            ])
          [ "basic semi-naive", ""; "naive", "@naive." ])
      [ 64; 128; 256 ]
  in
  table [ "workload"; "fixpoint"; "time"; "answers"; "facts"; "dup-derivs" ] rows

(* ------------------------------------------------------------------ *)
(* E4: predicate semi-naive                                            *)
(* ------------------------------------------------------------------ *)

let exp_psn () =
  header "E4 psn: predicate semi-naive on mutually recursive predicates"
    "k predicates in a recursive cycle over a chain.  Under BSN a fact\n\
     takes a full round to cross each predicate boundary (rounds scale\n\
     with k*n); PSN feeds facts produced earlier in the same round to\n\
     later rules.";
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            Workloads.load_pairs db "edge" (Workloads.chain 96);
            let text = Workloads.mutual_module k in
            let text =
              if anns = "" then text
              else String.concat "" [ "module mutual.\n"; anns; "\n";
                     String.concat "\n" (List.tl (String.split_on_char '\n' text)) ]
            in
            Coral.consult_text db text;
            let t, answers, (ins, dup, scans) =
              measure (fun () -> query_count db "p0(0, Y)")
            in
            ignore dup;
            [ Printf.sprintf "k=%d, chain 96" k; label; fmt_time t; string_of_int answers;
              fmt_int ins; fmt_int scans
            ])
          [ "BSN", ""; "PSN", "@psn." ])
      [ 2; 4; 8 ]
  in
  table [ "workload"; "fixpoint"; "time"; "answers"; "facts"; "scans" ] rows

(* ------------------------------------------------------------------ *)
(* E5: hash-consing (bechamel micro-benchmark)                         *)
(* ------------------------------------------------------------------ *)

let rec deep_term depth i =
  if depth = 0 then Coral.int i
  else
    Coral.app "f" [ deep_term (depth - 1) (2 * i); deep_term (depth - 1) ((2 * i) + 1) ]

(* structural equality that never uses the hash-consing ids: what every
   unification of big terms would cost without them *)
let rec structural_equal (a : Coral.Term.t) (b : Coral.Term.t) =
  match a, b with
  | Coral.Term.Const x, Coral.Term.Const y -> Coral.Value.equal x y
  | Coral.Term.Var x, Coral.Term.Var y -> x.Coral.Term.vid = y.Coral.Term.vid
  | Coral.Term.App x, Coral.Term.App y ->
    Coral.Symbol.equal x.Coral.Term.sym y.Coral.Term.sym
    && Array.length x.Coral.Term.args = Array.length y.Coral.Term.args
    && begin
      let rec go i =
        i < 0 || (structural_equal x.Coral.Term.args.(i) y.Coral.Term.args.(i) && go (i - 1))
      in
      go (Array.length x.Coral.Term.args - 1)
    end
  | _ -> false

let bechamel_estimate tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  List.map
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      let est =
        Hashtbl.fold
          (fun _ v acc ->
            match Analyze.OLS.estimates v with
            | Some (e :: _) -> e
            | _ -> acc)
          analyzed 0.0
      in
      name, est)
    tests

let exp_hashcons () =
  header "E5 hashcons: O(1) unification of large ground terms"
    "Two structurally equal trees of 2^d leaves: with lazy hash-consing\n\
     the comparison is one id check after the first encounter; a\n\
     structural walk scales with term size.  (ns per comparison,\n\
     bechamel OLS estimate.)";
  let rows =
    List.map
      (fun depth ->
        let a = deep_term depth 0 and b = deep_term depth 0 in
        (* force the lazy ids once, as the first unification would *)
        ignore (Coral.Term.ground_id a);
        ignore (Coral.Term.ground_id b);
        let tr = Coral_term.Trail.create () in
        let env = Coral.Bindenv.empty in
        let estimates =
          bechamel_estimate
            [ "hashcons", (fun () -> ignore (Coral.Unify.unify tr a env b env));
              "structural", (fun () -> ignore (structural_equal a b))
            ]
        in
        let get n = List.assoc n estimates in
        [ Printf.sprintf "depth %d (%d nodes)" depth ((1 lsl (depth + 1)) - 1);
          Printf.sprintf "%.0fns" (get "hashcons");
          Printf.sprintf "%.0fns" (get "structural");
          Printf.sprintf "%.0fx" (get "structural" /. Float.max 1.0 (get "hashcons"))
        ])
      [ 4; 8; 12; 16 ]
  in
  table [ "term size"; "hash-consed unify"; "structural walk"; "speedup" ] rows

(* ------------------------------------------------------------------ *)
(* E6: pipelining vs materialization                                   *)
(* ------------------------------------------------------------------ *)

let exp_pipeline () =
  header "E6 pipeline: tuple-at-a-time vs materialized"
    "Pipelining wins when only the first answers are consumed (it stops\n\
     early and stores nothing); materialization wins when all answers\n\
     are needed on workloads with shared subgoals, which pipelining\n\
     recomputes (here: a width-2 layered DAG with exponentially many\n\
     paths but quadratically many path facts).";
  let make anns =
    let db = Workloads.fresh_db () in
    Workloads.load_pairs db "edge" (Workloads.layered_dag ~layers:14 ~width:2);
    Coral.consult_text db (Workloads.tc_module anns);
    db
  in
  let take_k db k =
    let seq = Coral.call db "path" [| Coral.int 0; Coral.var 0 |] in
    Seq.length (Seq.take k seq)
  in
  let rows =
    List.concat_map
      (fun (scenario, k) ->
        List.map
          (fun (label, anns) ->
            let db = make anns in
            let t, got, (ins, _, _) = measure (fun () -> take_k db k) in
            [ scenario; label; fmt_time t; string_of_int got; fmt_int ins ])
          [ "pipelined", "@pipelined."; "materialized", "" ])
      [ "first answer", 1; "first 5 answers", 5; "all answers", max_int ]
  in
  table [ "consumption"; "mode"; "time"; "answers"; "facts stored" ] rows

(* ------------------------------------------------------------------ *)
(* E7: the save-module facility                                        *)
(* ------------------------------------------------------------------ *)

let exp_save_module () =
  header "E7 save_module: retaining state across module calls"
    "32 successive calls path(i, Y) against a chain-closure module under\n\
     supplementary magic.  Without @save_module every call recomputes\n\
     from scratch; with it the instance persists and later calls reuse\n\
     earlier derivations (semi-naive marks make the continuation\n\
     incremental).";
  let rows =
    List.map
      (fun (label, anns) ->
        let db = Workloads.fresh_db () in
        Workloads.load_pairs db "edge" (Workloads.chain 192);
        for i = 0 to 31 do
          Coral.fact db "probe" [ Coral.int (i * 3) ]
        done;
        Coral.consult_text db (Workloads.tc_module anns);
        let t, answers, (ins, dup, _) =
          measure ~runs:1 (fun () -> query_count db "probe(X), path(X, Y)")
        in
        ignore dup;
        [ label; fmt_time t; string_of_int answers; fmt_int ins ])
      [ "discard state", "@supplementary_magic.";
        "@save_module", "@supplementary_magic. @save_module."
      ]
  in
  table [ "mode"; "time"; "answers"; "facts stored" ] rows

(* ------------------------------------------------------------------ *)
(* E8: ordered search                                                  *)
(* ------------------------------------------------------------------ *)

let exp_ordered_search () =
  header "E8 ordered_search: modularly stratified negation"
    "The win/move game on a width-2 layered DAG is not stratified (win\n\
     negates win), so bottom-up evaluation needs Ordered Search, which\n\
     memoizes each subgoal once.  Prolog-style pipelining handles the\n\
     negation too but recomputes shared subgoals exponentially.";
  let rows =
    List.concat_map
      (fun layers ->
        List.map
          (fun (label, text) ->
            let db = Workloads.fresh_db () in
            Workloads.load_pairs db "move" (Workloads.layered_dag ~layers ~width:2);
            Coral.consult_text db text;
            let t, won, _ = measure (fun () -> query_count db "win(0)") in
            [ Printf.sprintf "DAG %d layers x2" layers; label; fmt_time t;
              (if won > 0 then "win" else "lose")
            ])
          [ "ordered search", Workloads.game_module;
            ( "pipelined NAF",
              "module game.\nexport win(b).\n@pipelined.\nwin(X) :- move(X, Y), not win(Y).\nend_module." )
          ])
      [ 10; 14; 18 ]
  in
  table [ "workload"; "strategy"; "time"; "outcome" ] rows

(* ------------------------------------------------------------------ *)
(* E9: index structures                                                *)
(* ------------------------------------------------------------------ *)

let exp_index () =
  header "E9 index: nested-loops join with and without indexes"
    "A selective join r(X), edge(X, Y) with 16 probe values.  The hash\n\
     relation gets an automatically selected argument-form index; the\n\
     list relation (one of the stock implementations) has no index\n\
     support, so every probe scans.  The pattern-form index retrieves\n\
     employees by (name, city) inside a nested address term.  The\n\
     snapshot arms read through Engine.read_view of a snapshot taken\n\
     before any live query ran: they probe the indexes chosen when the\n\
     module loaded, and must visit the tuples their live arm visits.";
  (* One workload's arms, each [(label, load, via_view)]: [load] builds
     a database, and the arm queries it live or through a snapshot
     taken before any query ran.  The first arm is the live reference
     of the snapshot arm. *)
  let arms workload query arms =
    let measured =
      List.map
        (fun (label, load, via_view) ->
          let db = load () in
          let reader =
            if via_view then
              Coral.of_engine
                (Coral.Engine.read_view (Option.get (Coral.Engine.snapshot (Coral.engine db))))
            else db
          in
          let t, answers, _ = measure (fun () -> query_count reader query) in
          (* [measure] resets the counters per run: this is the last run's *)
          let visits = Coral.Relation.tuples_visited () in
          ( via_view,
            visits,
            [ workload; label; fmt_time t; string_of_int answers; string_of_int visits ] ))
        arms
    in
    let _, live_visits, _ = List.hd measured in
    List.iter
      (fun (via_view, visits, _) ->
        if via_view && visits <> live_visits then
          failwith
            (Printf.sprintf "index: %s: the snapshot arm visits %d tuples, the live arm %d" workload
               visits live_visits))
      measured;
    List.map (fun (_, _, row) -> row) measured
  in
  let join_rows =
    List.concat_map
      (fun n ->
        let load use_list () =
          let db = Workloads.fresh_db () in
          if use_list then
            Coral.install_relation db "edge" (Coral.List_relation.create ~name:"edge" ~arity:2 ());
          Workloads.load_pairs db "edge" (Workloads.random_graph ~seed:7 ~nodes:(n / 4) ~edges:n);
          for i = 0 to 15 do
            Coral.fact db "r" [ Coral.int i ]
          done;
          Coral.consult_text db
            "module j.\nexport q(ff).\nq(X, Y) :- r(X), edge(X, Y).\nend_module.";
          db
        in
        arms (Printf.sprintf "join, |edge|=%d" n) "q(X, Y)"
          [ "hash + auto index", load false, false;
            "hash, snapshot read view", load false, true;
            "list relation (scan)", load true, false
          ])
      [ 2000; 10_000; 40_000 ]
  in
  let pattern_rows =
    let load ann () =
      let db = Workloads.fresh_db () in
      (* few distinct names (so an argument-form index on the name is
         unselective) but many (name, city) combinations *)
      for i = 0 to 20_000 do
        Coral.fact db "emp"
          [ Coral.str (Printf.sprintf "name%d" (i mod 5));
            Coral.app "addr"
              [ Coral.str (Printf.sprintf "street%d" i);
                Coral.str (Printf.sprintf "city%d" (i mod 2001))
              ]
          ]
      done;
      Coral.consult_text db
        (Printf.sprintf
           "module e.\nexport find(bbf).\n%s\nfind(N, C, S) :- emp(N, addr(S, C)).\nend_module."
           ann);
      db
    in
    let make_index = "@make_index emp(Name, addr(Street, City)) (Name, City)." in
    arms "pattern probe, 20k emps" "find(\"name2\", \"city7\", S)"
      [ "@make_index (pattern form)", load make_index, false;
        "@make_index, snapshot read view", load make_index, true;
        "no pattern index", load "", false
      ]
  in
  table
    [ "workload"; "access path"; "time"; "answers"; "tuples visited" ]
    (join_rows @ pattern_rows)

(* ------------------------------------------------------------------ *)
(* E10: the storage manager                                            *)
(* ------------------------------------------------------------------ *)

let exp_storage () =
  header "E10 storage: persistent relations through the buffer pool"
    "A 40k-tuple persistent relation (hundreds of pages).  Scans stream\n\
     pages through a bounded pool: small pools thrash on repeated scans\n\
     (misses/evictions), larger pools keep the working set cached.  The\n\
     B-tree probe touches only a few pages regardless.";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "coral_bench_storage" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  (* build once *)
  let h = Coral.Persistent.open_ ~pool_frames:256 ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let rel = Coral.Persistent.relation h in
  for i = 0 to 39_999 do
    ignore (Coral.Relation.insert_terms rel [| Coral.int (i mod 4000); Coral.int i |])
  done;
  Coral.Persistent.close h;
  let rows =
    List.map
      (fun frames ->
        let h = Coral.Persistent.open_ ~pool_frames:frames ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
        let rel = Coral.Persistent.relation h in
        let t, n, _ =
          measure (fun () ->
              (* two full scans: the second exercises caching *)
              let c = ref 0 in
              for _ = 1 to 2 do
                Seq.iter (fun _ -> incr c) (Coral.Relation.scan rel ())
              done;
              !c)
        in
        let heap_stats = List.assoc "edge.heap" (Coral.Persistent.io_stats h) in
        let probe_t, hits, _ =
          measure (fun () ->
              Seq.length
                (Coral.Relation.scan rel
                   ~pattern:([| Coral.int 7; Coral.var 0 |], Coral.Bindenv.empty)
                   ()))
        in
        let row =
          [ Printf.sprintf "%d frames (%dKiB)" frames (frames * 8);
            fmt_time t; fmt_int n;
            fmt_int heap_stats.Coral_storage.Buffer_pool.misses;
            fmt_int heap_stats.Coral_storage.Buffer_pool.evictions;
            Printf.sprintf "%s (%d rows)" (fmt_time probe_t) hits
          ]
        in
        Coral.Persistent.close h;
        row)
      [ 4; 16; 64; 256 ]
  in
  table
    [ "pool size"; "2 full scans"; "tuples read"; "page misses"; "evictions"; "B-tree probe" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: existential rewriting                                          *)
(* ------------------------------------------------------------------ *)

let exp_existential () =
  header "E11 existential: projection pushing"
    "Reachability through a derived step(X, Y, W) whose payload column W\n\
     is a don't-care at every call site.  Existential rewriting projects\n\
     the column away, so D payload variants per edge collapse to one\n\
     fact instead of multiplying every derivation by D.";
  let program anns =
    Printf.sprintf
      {|
module ex.
export reach(bf).
%s
step(X, Y, W) :- edge3(X, Y, W).
reach(X, Y) :- step(X, Y, _).
reach(X, Y) :- step(X, Z, _), reach(Z, Y).
end_module.
|}
      anns
  in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            List.iter
              (fun (a, b) ->
                for w = 1 to d do
                  Coral.fact db "edge3" [ Coral.int a; Coral.int b; Coral.int w ]
                done)
              (Workloads.chain 128);
            Coral.consult_text db (program anns);
            let t, answers, (ins, dup, _) = measure (fun () -> query_count db "reach(0, Y)") in
            [ Printf.sprintf "chain 128, D=%d payloads" d; label; fmt_time t;
              string_of_int answers; fmt_int ins; fmt_int dup
            ])
          [ "with existential (default)", ""; "@no_existential", "@no_existential." ])
      [ 2; 8; 16 ]
  in
  table [ "workload"; "rewriting"; "time"; "answers"; "facts"; "dup-derivs" ] rows

(* ------------------------------------------------------------------ *)
(* E12: context factoring                                              *)
(* ------------------------------------------------------------------ *)

let exp_factoring () =
  header "E12 factoring: linear programs without magic joins"
    "Right-recursive transitive closure passes the free argument through\n\
     unchanged, so for a bound query factoring computes the answers\n\
     context-free: one linear pass over the reachable contexts, instead\n\
     of supplementary magic's quadratic context x answer pairings.  The\n\
     unannotated module gets factoring too: the optimizer picks it.";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            Workloads.load_pairs db "edge" (Workloads.chain n);
            Coral.consult_text db (Workloads.tc_module anns);
            let t, answers, (ins, _, scans) = measure (fun () -> query_count db "path(0, Y)") in
            [ Printf.sprintf "chain %d" n; label; fmt_time t; string_of_int answers;
              fmt_int ins; fmt_int scans
            ])
          [ "factoring", "@factoring.";
            "default (optimizer's choice)", "";
            "supplementary magic", "@supplementary_magic."
          ])
      [ 128; 256; 512 ]
  in
  table [ "workload"; "rewriting"; "time"; "answers"; "facts"; "scans" ] rows

(* ------------------------------------------------------------------ *)
(* E13: consulting is cheap (interpretation vs compilation)            *)
(* ------------------------------------------------------------------ *)

let exp_consult () =
  header "E13 consult: interpreting makes consulting instantaneous"
    "CORAL interprets its internal rule form rather than generating and\n\
     compiling C++ (the LDL approach), because consulting must feel\n\
     interactive.  Parse + optimize time for programs of R rules,\n\
     against the time to actually evaluate a query.";
  let program r =
    let b = Buffer.create 1024 in
    Buffer.add_string b "module big.\nexport p0(bf).\n";
    for i = 0 to r - 1 do
      Buffer.add_string b (Printf.sprintf "p%d(X, Y) :- edge(X, Y).\n" i);
      Buffer.add_string b
        (Printf.sprintf "p%d(X, Y) :- p%d(X, Z), edge(Z, Y).\n" i ((i + 1) mod r))
    done;
    Buffer.add_string b "end_module.\n";
    Buffer.contents b
  in
  let rows =
    List.map
      (fun r ->
        let text = program r in
        let parse_t, _, _ =
          measure (fun () -> Result.get_ok (Coral.Parser.program text))
        in
        let db = Workloads.fresh_db () in
        Workloads.load_pairs db "edge" (Workloads.chain 48);
        let consult_t, (), _ = measure ~runs:1 (fun () -> Coral.consult_text db text) in
        let plan_t, _, _ =
          measure (fun () ->
              Coral.Engine.plan_for (Coral.engine db) ~pred:(Coral.Symbol.intern "p0")
                ~arity:2
                ~adorn:[| Coral.Ast.Bound; Coral.Ast.Free |])
        in
        let eval_t, answers, _ = measure ~runs:1 (fun () -> query_count db "p0(0, Y)") in
        [ Printf.sprintf "%d rules" (2 * r); fmt_time parse_t; fmt_time consult_t;
          fmt_time plan_t; Printf.sprintf "%s (%d answers)" (fmt_time eval_t) answers
        ])
      [ 5; 50; 250 ]
  in
  table [ "program"; "parse"; "consult"; "optimize"; "evaluate" ] rows

(* ------------------------------------------------------------------ *)
(* E14: duplicate semantics                                            *)
(* ------------------------------------------------------------------ *)

let exp_duplicates () =
  header "E14 duplicates: set vs multiset semantics"
    "A two-hop join through m middle nodes derives every (X, Z) pair m\n\
     times.  Set semantics pays a duplicate check per derivation and\n\
     stores each pair once; @multiset skips the checks and keeps every\n\
     copy (the SQL-compatible semantics of section 4.2).";
  let rows =
    List.concat_map
      (fun m ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            for i = 0 to 19 do
              for j = 0 to m - 1 do
                Coral.fact db "hop1" [ Coral.int i; Coral.int (1000 + j) ];
                Coral.fact db "hop2" [ Coral.int (1000 + j); Coral.int i ]
              done
            done;
            Coral.consult_text db
              (Printf.sprintf
                 "module d.\nexport two(ff).\n%s\ntwo(X, Z) :- hop1(X, Y), hop2(Y, Z).\nend_module."
                 anns);
            let t, answers, (ins, dup, _) = measure (fun () -> query_count db "two(X, Z)") in
            [ Printf.sprintf "20x%d bipartite" m; label; fmt_time t; string_of_int answers;
              fmt_int ins; fmt_int dup
            ])
          [ "set (default)", ""; "multiset", "@multiset two/2." ])
      [ 8; 32 ]
  in
  table [ "workload"; "semantics"; "time"; "distinct answers"; "stored"; "dup-checked" ] rows

(* ------------------------------------------------------------------ *)
(* E15: goal-id indexing with large bound terms                        *)
(* ------------------------------------------------------------------ *)

let exp_goal_id () =
  header "E15 goal_id: magic with hash-consed goal identifiers"
    "Supplementary Magic With GoalId Indexing wraps each subgoal's bound\n\
     arguments in one hash-consed term, so repeated-subgoal checks and\n\
     magic joins compare an id instead of walking the term.  In this\n\
     implementation ALL ground terms are lazily hash-consed (E5), so\n\
     plain supplementary magic already compares big bound terms in O(1)\n\
     and the two variants should tie — parity here is the evidence that\n\
     hash-consing subsumes goal-id indexing for ground subgoals.";
  let label_term d i =
    (* node label: a list of d elements, shared suffix across nodes *)
    "[" ^ String.concat ", " (List.init d (fun k -> string_of_int (if k = 0 then i else k))) ^ "]"
  in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            List.iter
              (fun (a, b) ->
                ignore
                  (Coral.Engine.consult (Coral.engine db)
                     (Printf.sprintf "edge(%s, %s).\n" (label_term d a) (label_term d b))))
              (Workloads.chain 96);
            Coral.consult_text db (Workloads.tc_module anns);
            let q = Printf.sprintf "path(%s, Y)" (label_term d 0) in
            let t, answers, (ins, _, _) = measure (fun () -> query_count db q) in
            [ Printf.sprintf "chain 96, labels of %d elems" d; label; fmt_time t;
              string_of_int answers; fmt_int ins
            ])
          [ "supplementary magic", "@supplementary_magic.";
            "goal-id indexing", "@supplementary_magic_goal_id."
          ])
      [ 1; 16; 64 ]
  in
  table [ "workload"; "rewriting"; "time"; "answers"; "facts" ] rows

(* ------------------------------------------------------------------ *)
(* E16: intelligent backtracking (ablation)                            *)
(* ------------------------------------------------------------------ *)

let exp_backtracking () =
  header "E16 backtracking: intelligent backjumping in the join (ablation)"
    "A rule r(A), s(B), u(C), t(A, D) where t is empty for most A values:\n\
     when t(A, _) fails, nothing between r and t can change the outcome,\n\
     so the join backjumps to r directly instead of enumerating every\n\
     (B, C) combination (paper section 4.2's intelligent backtracking).";
  let build () =
    let db = Workloads.fresh_db () in
    for i = 0 to 63 do
      Coral.fact db "r" [ Coral.int i ]
    done;
    for i = 0 to 63 do
      Coral.fact db "s" [ Coral.int i ];
      Coral.fact db "u" [ Coral.int i ]
    done;
    (* only 2 of the 64 r-values have a t partner *)
    Coral.fact db "t" [ Coral.int 3; Coral.int 100 ];
    Coral.fact db "t" [ Coral.int 7; Coral.int 200 ];
    Coral.consult_text db
      "module j.\nexport q(ffff).\n@no_existential.\nq(A, B, C, D) :- r(A), s(B), u(C), t(A, D).\nend_module.";
    db
  in
  let rows =
    List.map
      (fun (label, flag) ->
        let db = build () in
        Coral.Engine.set_intelligent_backtracking (Coral.engine db) flag;
        let t, answers, (_, _, scans) = measure (fun () -> query_count db "q(A, B, C, D)") in
        [ label; fmt_time t; string_of_int answers; fmt_int scans ])
      [ "backjumping (default)", true; "chronological backtracking", false ]
  in
  table [ "join strategy"; "time"; "answers"; "scans" ] rows

(* ------------------------------------------------------------------ *)
(* E17: sideways information passing / join order selection            *)
(* ------------------------------------------------------------------ *)

let exp_sip () =
  header "E17 sip: join order selection (@sip annotation)"
    "A rule written in an unfortunate order — q(X, Y) :- big(Z, Y),\n\
     edge(X, Z) — with a bound query on X.  Left-to-right evaluation\n\
     scans the large relation first; @sip(max_bound) schedules edge\n\
     (one bound argument) ahead of it, turning the join selective\n\
     (paper sections 4.1/4.2: subgoal orderings and join order\n\
     selection).";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, anns) ->
            let db = Workloads.fresh_db () in
            for i = 0 to n - 1 do
              Coral.fact db "big" [ Coral.int (i mod 100); Coral.int i ]
            done;
            Workloads.load_pairs db "edge" (Workloads.chain 64);
            Coral.consult_text db
              (Printf.sprintf
                 "module j.\nexport q(bf).\n%s\nq(X, Y) :- big(Z, Y), edge(X, Z).\nend_module."
                 anns);
            let t, answers, (_, _, scans) = measure (fun () -> query_count db "q(5, Y)") in
            [ Printf.sprintf "|big|=%d" n; label; fmt_time t; string_of_int answers;
              fmt_int scans
            ])
          [ "left-to-right (default)", ""; "@sip(max_bound)", "@sip(max_bound)." ])
      [ 10_000; 50_000 ]
  in
  table [ "workload"; "SIP"; "time"; "answers"; "scans" ] rows

(* ------------------------------------------------------------------ *)
(* E18: parallel semi-naive evaluation (round-synchronous domains)     *)
(* ------------------------------------------------------------------ *)

let exp_parallel () =
  header "E18 parallel: round-synchronous parallel semi-naive"
    (Printf.sprintf
       "Left-linear transitive closure of a dense random graph — the delta\n\
        occurrence sits at body position 0, so each fixpoint round stripes\n\
        the delta scan across a pool of OCaml 5 domains; per-domain\n\
        derivation buffers are merged with hash-partitioned duplicate\n\
        elimination at the round barrier.  Answers are identical to\n\
        sequential evaluation; speedup tracks the machine's core count\n\
        (this host reports %d)."
       (Domain.recommended_domain_count ()));
  let nodes = 150 and succ = 12 in
  let st = Random.State.make [| 0xc0ffee |] in
  let edges =
    List.concat
      (List.init nodes (fun i -> List.init succ (fun _ -> i, Random.State.int st nodes)))
  in
  let build workers =
    let db = Workloads.fresh_db () in
    Coral.set_workers db workers;
    List.iter (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b ]) edges;
    Coral.consult_text db
      "module tc.\nexport path(ff).\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\nend_module.";
    db
  in
  let base = ref 0.0 in
  let rows =
    List.map
      (fun w ->
        let db = build w in
        let t, answers, (ins, _, _) =
          measure ~label:(Printf.sprintf "workers=%d" w) (fun () ->
              query_count db "path(X, Y)")
        in
        if w = 1 then base := t;
        [ string_of_int w; fmt_time t; Printf.sprintf "%.2fx" (!base /. t);
          string_of_int answers; fmt_int ins
        ])
      [ 1; 2; 4 ]
  in
  table [ "workers"; "time"; "speedup"; "answers"; "facts" ] rows

(* ------------------------------------------------------------------ *)
(* E19: incremental maintenance under flapping updates                 *)
(* ------------------------------------------------------------------ *)

let exp_maintain () =
  header "E19 maintain: update cost stays flat as edges flap"
    "One edge of a forest of 48 chains of 16 nodes is retracted and then\n\
     inserted back, 400 times; each update commits a snapshot, as the\n\
     server does, and path(a, Y) is read through it.  DRed joins probe\n\
     the indexes maintenance selects, and freezing merges sealed\n\
     subsidiaries, so an update costs in proportion to its delta and the\n\
     last hundred flaps cost what the first hundred did.";
  let chains = 48 and len = 16 and flaps = 400 and window = 100 in
  let db = Workloads.fresh_db () in
  Workloads.load_pairs db "edge"
    (List.concat
       (List.init chains (fun c -> List.init (len - 1) (fun p -> (c * len) + p, (c * len) + p + 1))));
  Coral.consult_text db
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.";
  let e = Coral.engine db in
  Coral.Engine.set_maintenance e true;
  let commit () = Option.get (Coral.Engine.snapshot e) in
  ignore (commit ());
  let next = Workloads.lcg 19 in
  let edge = Coral.Symbol.intern "edge" in
  (* per flap: retract ms, insert ms, derived, deleted, rederived, and
     the scans the retract and the insert opened *)
  let log = Array.make flaps (0.0, 0.0, 0, 0, 0, 0, 0) in
  let scans () =
    let _, _, s = Coral.Relation.global_stats () in
    s
  in
  let update f =
    let s0 = scans () in
    let t0 = now_ns () in
    let rep = f () in
    let view = commit () in
    Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6, rep, view, scans () - s0
  in
  let read view a =
    let reader = Coral.of_engine (Coral.Engine.read_view view) in
    List.length (Coral.query_rows reader (Printf.sprintf "path(%d, Y)" a))
  in
  (* relation-layer work counters before each flap, and after the last *)
  let work = Array.make (flaps + 1) (0, 0, 0) in
  Coral.Relation.reset_global_stats ();
  for i = 0 to flaps - 1 do
    work.(i) <- Coral.Relation.global_stats ();
    let a = (next chains * len) + ((i + 1) mod (len - 1)) in
    let fact = [ edge, [| Coral.int a; Coral.int (a + 1) |] ] in
    let t_r, r, gone, s_r = update (fun () -> Coral.Engine.retract_facts e fact) in
    let t_i, ins, back, s_i = update (fun () -> Coral.Engine.insert_facts e fact) in
    if read gone a <> 0 || read back a <> len - 1 - (a mod len) then
      failwith "maintain: a read missed its update";
    let open Coral.Engine in
    log.(i) <-
      ( t_r,
        t_i,
        r.ur_derived + ins.ur_derived,
        r.ur_deleted + ins.ur_deleted,
        r.ur_rederived + ins.ur_rederived,
        s_r,
        s_i )
  done;
  work.(flaps) <- Coral.Relation.global_stats ();
  let rows =
    List.map
      (fun first ->
        let slice = Array.sub log first window in
        let mean get = Array.fold_left (fun acc x -> acc +. get x) 0.0 slice /. float_of_int window in
        let sum get = Array.fold_left (fun acc x -> acc + get x) 0 slice in
        let r_ms = mean (fun (r, _, _, _, _, _, _) -> r)
        and i_ms = mean (fun (_, i, _, _, _, _, _) -> i) in
        let label = Printf.sprintf "flaps %d-%d" (first + 1) (first + window) in
        let (i1, d1, s1), (i0, d0, s0) = work.(first + window), work.(first) in
        let work = i1 - i0, d1 - d0, s1 - s0 in
        record ~label:("retract, " ^ label) ~work (r_ms /. 1e3);
        record ~label:("insert, " ^ label) ~work (i_ms /. 1e3);
        [ label; Printf.sprintf "%.3f" r_ms; Printf.sprintf "%.3f" i_ms;
          Printf.sprintf "%.1f" (mean (fun (_, _, _, _, _, s, _) -> float_of_int s));
          Printf.sprintf "%.1f" (mean (fun (_, _, _, _, _, _, s) -> float_of_int s));
          string_of_int (sum (fun (_, _, d, _, _, _, _) -> d));
          string_of_int (sum (fun (_, _, _, d, _, _, _) -> d));
          string_of_int (sum (fun (_, _, _, _, r, _, _) -> r))
        ])
      [ 0; flaps - window ]
  in
  table
    [ "window"; "ms/retract"; "ms/insert"; "scans/retract"; "scans/insert"; "derived";
      "deleted"; "rederived"
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E20: the bound serve path                                           *)
(* ------------------------------------------------------------------ *)

let exp_serve_path () =
  header "E20 serve_path: a bound call instantiates a module compiled once"
    "Engine.call path(s, Y) on perfbench's bound_query graph (a 64-node ring\n\
     with one chord per node, right-linear closure, no maintenance).  A call\n\
     instantiates the module compiled when its plan was first evaluated\n\
     (fresh local relations, the stored relations bound, their indexes\n\
     applied) and runs the seeded semi-naive fixpoint.  Per call: time and\n\
     minor-heap words, whole and split into instantiate and run, and the\n\
     compiles a call triggers (none after the first).  The compile row is\n\
     what a call would pay if the module were compiled per request.  The\n\
     calls run with observability on, as in the server; the observability\n\
     rows are the same calls with it off and the ratio of the two.";
  let n = 64 in
  let db = Workloads.fresh_db () in
  Workloads.load_pairs db "edge" (Workloads.bound_query_edges n);
  Coral.consult_text db
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.";
  let e = Coral.engine db in
  let path = Coral.Symbol.intern "path" in
  let call s = Seq.length (Coral.Engine.call e path [| Coral.int s; Coral.var 0 |]) in
  for s = 0 to n - 1 do
    ignore (call s)
  done;
  let reps = 2000 in
  let per x = x /. float_of_int reps in
  (* [f i] returns its split points as (ns, minor words) pairs *)
  let span f =
    Gc.full_major ();
    let w0 = Gc.minor_words () and t0 = now_ns () in
    for i = 1 to reps do
      f (i mod n)
    done;
    Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3, Gc.minor_words () -. w0
  in
  let compiles0 = Coral.Engine.compile_count e in
  let i0, d0, s0 = Coral.Relation.global_stats () and v0 = Coral.Relation.tuples_visited () in
  let call_us, call_words = span (fun s -> ignore (call s)) in
  let i1, d1, s1 = Coral.Relation.global_stats () and v1 = Coral.Relation.tuples_visited () in
  let compiles = Coral.Engine.compile_count e - compiles0 in
  (* the same calls with observability off, the library default *)
  let obs = Coral_obs.Obs.enabled () in
  Coral_obs.Obs.set_enabled false;
  let off_us, off_words = span (fun s -> ignore (call s)) in
  Coral_obs.Obs.set_enabled obs;
  let plan =
    match
      Coral.Engine.plan_for e ~pred:path ~arity:2 ~adorn:[| Coral.Ast.Bound; Coral.Ast.Free |]
    with
    | Ok (p, _) -> p
    | Error msg -> failwith msg
  in
  let resolve = Coral.Engine.provider e in
  let compile_us, compile_words =
    span (fun _ -> ignore (Coral_eval.Module_struct.compile ~resolve plan))
  in
  let code = Coral_eval.Module_struct.compile ~resolve plan in
  let instance () = Option.get (Coral_eval.Module_struct.instantiate ~resolve code) in
  let inst_us, inst_words = span (fun _ -> ignore (instance ())) in
  let both_us, both_words =
    span (fun s ->
        let fp = Coral_eval.Fixpoint.create (instance ()) in
        ignore (Coral_eval.Fixpoint.add_seed fp [| Coral.int s |]);
        Coral_eval.Fixpoint.run fp)
  in
  let row label us words =
    [ label; Printf.sprintf "%.1f" (per us); Printf.sprintf "%.0f" (per words) ]
  in
  table [ "per call"; "us"; "minor words" ]
    [ row "Engine.call path(s, Y)" call_us call_words;
      row "  observability off" off_us off_words;
      [ "  observability on/off"; Printf.sprintf "%.3f" (call_us /. off_us); "" ];
      row "  instantiate" inst_us inst_words;
      row "  run (seed + fixpoint)" (both_us -. inst_us) (both_words -. inst_words);
      row "compile (once per plan)" compile_us compile_words
    ];
  let work a b = Printf.sprintf "%.1f" (per (float_of_int (b - a))) in
  Printf.printf
    "\ncompiles per call: %s; per call: derivations %s, duplicates %s, scans %s, tuples \
     visited %s\n"
    (work 0 compiles) (work i0 i1) (work d0 d1) (work s0 s1) (work v0 v1);
  record ~label:"Engine.call path(s, Y)"
    ~work:((i1 - i0) / reps, (d1 - d0) / reps, (s1 - s0) / reps)
    (per call_us /. 1e6);
  if compiles <> 0 then failwith "serve_path: a call compiled its module again"

(* ------------------------------------------------------------------ *)
(* E21: the answer path                                                *)
(* ------------------------------------------------------------------ *)

(* Served queries on an in-process session, each reply written as the
   server writes it (to /dev/null); evaluation runs inline on the
   calling domain, so its minor words are counted there. *)
let answer_path_rows () =
  let module Session = Coral_server.Session in
  let module Protocol = Coral_server.Protocol in
  Unix.putenv "CORAL_READ_DOMAINS" "0";
  let serve ~maintained setup =
    let db = Coral.create () in
    Coral.Engine.set_maintenance (Coral.engine db) maintained;
    setup db;
    let store = Session.make_store db in
    Session.create store
  in
  let tc =
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module."
  in
  (* a stored closure of 2,048 tuples, as a shard worker holds it *)
  let scan =
    serve ~maintained:false (fun db ->
        Workloads.load_pairs db "path" (List.init 2048 (fun i -> i / 32, (i * 7) mod 64)))
  in
  let bound =
    serve ~maintained:false (fun db ->
        Workloads.load_pairs db "edge" (Workloads.bound_query_edges 64);
        Coral.consult_text db tc)
  in
  (* perfbench's update_visible forest: 48 chains of 16, maintained *)
  let forest =
    serve ~maintained:true (fun db ->
        Workloads.load_pairs db "edge"
          (List.concat
             (List.init 48 (fun c -> List.init 15 (fun p -> (c * 16) + p, (c * 16) + p + 1))));
        Coral.consult_text db tc)
  in
  let null = open_out_bin "/dev/null" in
  let run (label, s, queries, reps) =
    let handle q =
      let r = Coral_server.Session.handle s (Protocol.Query q) in
      ignore (Protocol.write_response null r);
      match r.Protocol.status with
      | Ok detail -> Scanf.sscanf detail "%d" Fun.id (* "N answers ..." *)
      | Error (_, m) -> failwith ("answer_path: " ^ m)
    in
    let queries = Array.of_list queries in
    Array.iter (fun q -> ignore (handle q)) queries;
    Gc.full_major ();
    let rows = ref 0 in
    let w0 = Gc.minor_words () and t0 = now_ns () in
    for i = 1 to reps do
      rows := !rows + handle queries.(i mod Array.length queries)
    done;
    let us = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3 in
    let words = Gc.minor_words () -. w0 in
    let per_row x = x /. float_of_int (max 1 !rows) in
    label, us /. float_of_int reps, per_row us, per_row words, !rows / reps
  in
  Fun.protect ~finally:(fun () -> close_out null) @@ fun () ->
  List.map run
    [ "bare scan path(X, Y), 2,048 stored", scan, [ "path(X, Y)" ], 300;
      "path(s, Y), bound_query ring", bound, List.init 64 (Printf.sprintf "path(%d, Y)"), 640;
      ( "extent path(a, Y), update_visible forest",
        forest,
        List.init 48 (fun c -> Printf.sprintf "path(%d, Y)" (c * 16)),
        4800 )
    ]

let exp_answer_path () =
  header "E21 answer_path: rows print straight from the join kernel into the reply"
    "Session.handle of a served query, reply written: a bare scan of 2,048\n\
     stored tuples (what a dist_closure worker answers), path(s, Y) on the\n\
     bound_query ring (a module call per request), and path(a, Y) read from\n\
     the maintained extent of the update_visible forest.  Per request and\n\
     per row: time and minor-heap words.  Fails if the bare scan allocates\n\
     more than 40 words per row.";
  let rows = answer_path_rows () in
  table [ "query"; "us/request"; "rows"; "us/row"; "words/row" ]
    (List.map
       (fun (label, req_us, row_us, row_words, n) ->
         [ label; Printf.sprintf "%.1f" req_us; string_of_int n; Printf.sprintf "%.3f" row_us;
           Printf.sprintf "%.1f" row_words ])
       rows);
  List.iter
    (fun (label, req_us, _, _, _) -> record ~label ~work:(0, 0, 0) (req_us /. 1e6))
    rows;
  match rows with
  | (_, _, _, words, _) :: _ when words > 40.0 ->
    failwith (Printf.sprintf "answer_path: the bare scan allocates %.1f words per row (> 40)" words)
  | _ -> ()

let experiments =
  [ "agg_selection", exp_agg_selection;
    "magic", exp_magic;
    "seminaive", exp_seminaive;
    "psn", exp_psn;
    "hashcons", exp_hashcons;
    "pipeline", exp_pipeline;
    "save_module", exp_save_module;
    "ordered_search", exp_ordered_search;
    "index", exp_index;
    "storage", exp_storage;
    "existential", exp_existential;
    "factoring", exp_factoring;
    "consult", exp_consult;
    "duplicates", exp_duplicates;
    "goal_id", exp_goal_id;
    "backtracking", exp_backtracking;
    "sip", exp_sip;
    "parallel", exp_parallel;
    "maintain", exp_maintain;
    "serve_path", exp_serve_path;
    "answer_path", exp_answer_path
  ]

let () =
  (* phase timings (rewrite/eval/emit) ride along in BENCH_core.json *)
  Coral_obs.Obs.set_enabled true;
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--list" args then
    List.iter (fun (name, _) -> print_endline name) experiments
  else begin
    let selected =
      match args with
      | [] -> experiments
      | names -> List.filter (fun (n, _) -> List.mem n names) experiments
    in
    if selected = [] then begin
      Printf.eprintf "unknown experiment; use --list\n";
      exit 1
    end;
    print_endline "CORAL benchmark harness (see DESIGN.md section 3 / EXPERIMENTS.md)";
    List.iter (fun (_, f) -> f ()) selected;
    write_json "BENCH_core.json";
    Printf.printf "\nwrote BENCH_core.json (%d measurements)\n" (List.length !records);
    if has_experiment "E18 parallel" then begin
      write_json ~experiment:"E18 parallel" "BENCH_parallel.json";
      print_endline "wrote BENCH_parallel.json"
    end
  end
