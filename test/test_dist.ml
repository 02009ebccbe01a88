(* The distributed sharded fixpoint: partitioning, delta exchange,
   plan analysis, and the full router/worker cluster — differential
   against a single-node server. *)

open Coral_dist
module Protocol = Coral_server.Protocol
module Session = Coral_server.Session
module Server = Coral_server.Server
module Admission = Coral_server.Admission

(* ------------------------------------------------------------------ *)
(* Unit: partitioning                                                  *)
(* ------------------------------------------------------------------ *)

let tuple_of ints =
  Coral.Tuple.of_terms
    (Array.of_list (List.map (fun i -> Coral.Term.int i) ints))

let test_partition_unit () =
  let p = Partition.create ~shards:4 ~key:1 in
  Alcotest.(check int) "shards" 4 (Partition.shards p);
  Alcotest.(check int) "key" 1 (Partition.key p);
  let t = tuple_of [ 3; 17 ] in
  let o = Partition.owner p t in
  Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4);
  (* ownership is a pure function of content: a structurally equal
     tuple built separately lands on the same shard *)
  Alcotest.(check int) "content-stable" o (Partition.owner p (tuple_of [ 3; 17 ]));
  Alcotest.(check bool) "owns agrees" true (Partition.owns p ~shard:o t);
  (* the key argument, not the first, decides: two tuples equal at the
     key collide, whatever the other columns *)
  let o1 = Partition.owner p (tuple_of [ 1; 42 ]) in
  let o2 = Partition.owner p (tuple_of [ 999; 42 ]) in
  Alcotest.(check int) "key column decides" o1 o2;
  (* clamping *)
  let p1 = Partition.create ~shards:0 ~key:(-3) in
  Alcotest.(check int) "shards clamped" 1 (Partition.shards p1);
  Alcotest.(check int) "single shard owns all" 0 (Partition.owner p1 t);
  (* a key past the arity still yields a valid owner *)
  let pbig = Partition.create ~shards:3 ~key:9 in
  let obig = Partition.owner pbig t in
  Alcotest.(check bool) "out-of-arity key in range" true (obig >= 0 && obig < 3)

let test_delta_codec_unit () =
  let lines =
    [ Delta_codec.fact_line "path" (tuple_of [ 1; 2 ]);
      Delta_codec.fact_line "path" (tuple_of [ 2; 3 ])
    ]
  in
  Alcotest.(check string) "rendered as stock fact text" "path(1, 2)." (List.hd lines);
  (match Delta_codec.decode (String.concat "\n" lines) with
  | Ok atoms -> Alcotest.(check int) "round-trips" 2 (List.length atoms)
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (match Delta_codec.decode "path(X, 2)." with
  | Ok _ -> Alcotest.fail "a non-ground fact must not decode"
  | Error _ -> ());
  match Delta_codec.decode "p(1) :- q(1)." with
  | Ok _ -> Alcotest.fail "a rule must not decode as a delta"
  | Error _ -> ()

(* Doubles must survive print -> parse with value AND type intact:
   %g's 6 significant digits would ship 2.0 as "2" (an Int on the
   receiving worker) and 1.0000001 as "1". *)
let test_delta_codec_doubles () =
  let roundtrip f =
    let tuple = Coral.Tuple.of_terms [| Coral.Term.double f |] in
    let line = Delta_codec.fact_line "m" tuple in
    match Delta_codec.decode line with
    | Error e -> Alcotest.fail (Printf.sprintf "%s did not decode: %s" line e)
    | Ok [ atom ] -> (
      match atom.Coral.Ast.args.(0) with
      | Coral.Term.Const (Coral.Value.Double g) ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives as %s" f line)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | t ->
        Alcotest.fail
          (Printf.sprintf "%h shipped as %s, re-parsed as non-double %s" f line
             (Coral.Term.to_string t)))
    | Ok _ -> Alcotest.fail "one fact expected"
  in
  List.iter roundtrip
    [ 2.0; -2.0; 1.0000001; 0.1; -0.5; 1e300; 4.9e-324; 1.7976931348623157e308;
      3.141592653589793; 1000000.0 ];
  (* a double and the equal-printing int stay distinct on the wire *)
  Alcotest.(check string) "2.0 is not 2" "m(2.0)."
    (Delta_codec.fact_line "m" (Coral.Tuple.of_terms [| Coral.Term.double 2.0 |]));
  (* nested under a functor and in lists too *)
  let nested =
    Coral.Tuple.of_terms
      [| Coral.Term.app (Coral.Symbol.intern "f") [| Coral.Term.double 3.0 |];
         Coral.Term.list_of [ Coral.Term.double 0.5 ]
      |]
  in
  Alcotest.(check string) "nested doubles" "m(f(3.0), [0.5])."
    (Delta_codec.fact_line "m" nested);
  (* values with no fact syntax refuse to ship rather than lie *)
  match Delta_codec.fact_line "m" (Coral.Tuple.of_terms [| Coral.Term.double Float.nan |]) with
  | _ -> Alcotest.fail "nan must not serialize"
  | exception Delta_codec.Unencodable _ -> ()

let test_exchange_unit () =
  let x = Exchange.create () in
  let item i = { Exchange.pred = "path"; arity = 2; tuple = tuple_of [ i; i + 1 ] } in
  Alcotest.(check int) "remote batch size" 2 (Exchange.add_remote x [ item 1; item 2 ]);
  (* received is counted pre-dedup: the duplicate still counts *)
  Alcotest.(check int) "duplicate still counted" 1 (Exchange.add_remote x [ item 1 ]);
  Exchange.add_local x [ item 9 ];
  let items, received = Exchange.drain x in
  Alcotest.(check int) "pre-dedup received" 3 received;
  Alcotest.(check int) "all buffered items drain" 4 (List.length items);
  let items, received = Exchange.drain x in
  Alcotest.(check int) "drain empties" 0 (List.length items);
  Alcotest.(check int) "counters are per-round" 0 received;
  ignore (Exchange.add_remote x [ item 5 ]);
  let tuples, batches = Exchange.totals x in
  Alcotest.(check (pair int int)) "running totals" (4, 3) (tuples, batches);
  Exchange.reset x;
  Alcotest.(check (pair int int)) "reset zeroes totals" (0, 0) (Exchange.totals x)

(* ------------------------------------------------------------------ *)
(* Unit: plan analysis                                                 *)
(* ------------------------------------------------------------------ *)

let verdict_of text =
  match Plan.analyse_text text with
  | Plan.Distributable a -> `Dist a
  | Plan.Local why -> `Local why

let test_plan_unit () =
  (* linear TC: one derived body literal *)
  (match
     verdict_of
       "module m.\n\
        export path(bf).\n\
        path(X, Y) :- edge(X, Y).\n\
        path(X, Y) :- path(X, Z), edge(Z, Y).\n\
        end_module.\n"
   with
  | `Dist a ->
    Alcotest.(check (list (pair string int))) "one partitioned idb" [ "path", 2 ] a.Plan.idb;
    let classes = List.map (fun d -> d.Plan.cls) a.Plan.drules in
    Alcotest.(check bool) "exit rule is Init" true (List.mem Plan.Init classes);
    Alcotest.(check bool) "recursive rule is Linear 0" true (List.mem (Plan.Linear 0) classes)
  | `Local why -> Alcotest.fail ("linear TC rejected: " ^ why));
  (* non-linear: two derived body literals *)
  (match
     verdict_of
       "module m.\n\
        export path(ff).\n\
        path(X, Y) :- edge(X, Y).\n\
        path(X, Y) :- path(X, Z), path(Z, Y).\n\
        end_module.\n"
   with
  | `Dist _ -> Alcotest.fail "non-linear TC must be Local"
  | `Local _ -> ());
  (* negation over a derived predicate *)
  (match
     verdict_of
       "module m.\n\
        export odd(ff).\n\
        odd(X) :- node(X), not even(X).\n\
        even(X) :- node(X), not odd(X).\n\
        end_module.\n"
   with
  | `Dist _ -> Alcotest.fail "negation over idb must be Local"
  | `Local _ -> ());
  (* aggregation in the head *)
  (match
     verdict_of
       "module m.\n\
        export total(f).\n\
        total(sum(<X>)) :- item(X).\n\
        end_module.\n"
   with
  | `Dist _ -> Alcotest.fail "aggregation must be Local"
  | `Local _ -> ());
  (* a module fact must survive the program's text round-trip to the
     workers: it pretty-prints as a bare fact line, which re-parses as
     a top-level Fact item — and must be kept as an Init rule, not
     dropped.  Double constants must keep their exact values. *)
  (match
     verdict_of
       "module m.\n\
        export path(ff).\n\
        path(7, 8).\n\
        path(2.0, 3.0000001).\n\
        path(X, Y) :- path(X, Z), edge(Z, Y).\n\
        end_module.\n"
   with
  | `Local why -> Alcotest.fail ("seeded module rejected: " ^ why)
  | `Dist a -> (
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "program text keeps the exact double" true
      (contains a.Plan.text "3.0000001");
    Alcotest.(check bool) "program text keeps 2.0 a double" true (contains a.Plan.text "2.0");
    match Plan.analyse_text a.Plan.text with
    | Plan.Local why -> Alcotest.fail ("round-tripped program rejected: " ^ why)
    | Plan.Distributable b ->
      Alcotest.(check int) "facts survive the round-trip"
        (List.length a.Plan.drules)
        (List.length b.Plan.drules)));
  (* annotated modules keep single-node semantics *)
  match
    verdict_of
      "module m.\n\
       export path(bf).\n\
       @no_rewriting.\n\
       path(X, Y) :- edge(X, Y).\n\
       end_module.\n"
  with
  | `Dist _ -> Alcotest.fail "annotated module must be Local"
  | `Local _ -> ()

(* The distribution and maintenance verdicts side by side, one row per
   reason: a program, whether the planner distributes it, and the
   derived predicates maintenance leaves to recompute.  A row with
   [at = Some p] renames predicate [p] to [p@r] after parsing (the
   parser reserves '@'), and is analysed from its AST. *)
let test_verdict_table () =
  let rows =
    [ ( "linear TC",
        "module m.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y).\nend_module.\n",
        None, true, [] );
      ( "linear TC as interactive clauses",
        "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n",
        None, true, [] );
      ( "non-linear TC",
        "module m.\nexport path(ff).\npath(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), path(Z, Y).\nend_module.\n",
        None, false, [] );
      ( "two derived body literals, no recursion",
        "module m.\nexport p(f).\np(X) :- q(X), r(X).\nq(X) :- e(X).\n\
         r(X) :- f(X).\nend_module.\n",
        None, false, [] );
      ( "negation over a base predicate",
        "module m.\nexport reach(ff).\nreach(X, Y) :- edge(X, Y), not blocked(Y).\n\
         reach(X, Y) :- reach(X, Z), edge(Z, Y), not blocked(Y).\nend_module.\n",
        None, true, [ "reach/2" ] );
      ( "negation over a derived predicate",
        "module m.\nexport odd(f).\nodd(X) :- node(X), not even(X).\n\
         even(X) :- node(X), not odd(X).\nend_module.\n",
        None, false, [ "even/1"; "odd/1" ] );
      ( "aggregation in the head",
        "module m.\nexport cnt(ff).\ncnt(X, count(Y)) :- item(X, Y).\nend_module.\n",
        None, false, [ "cnt/2" ] );
      ( "defined in two modules",
        "module a.\nexport p(f).\np(X) :- e(X).\nend_module.\n\
         module b.\nexport p(f).\np(X) :- f(X).\nend_module.\n",
        None, false, [ "p/1" ] );
      ( "defined by a module and by interactive clauses",
        "module a.\nexport p(f).\np(X) :- e(X).\nend_module.\np(X) :- f(X).\n",
        None, true, [ "p/1" ] );
      ( "reserved head predicate",
        "module m.\nexport p(f).\np(X) :- e(X).\nend_module.\n",
        Some "p", false, [] );
      ( "reserved body predicate",
        "module m.\nexport p(f).\np(X) :- e(X).\nend_module.\n",
        Some "e", false, [ "p/1" ] );
      ( "foreign body predicate",
        "module m.\nexport p(ff).\np(X, Y) :- q(X), abs(X, Y).\nend_module.\n",
        None, true, [ "p/2" ] );
      ( "value-generating = in a recursive rule",
        "module m.\nexport nat(f).\nnat(0).\nnat(Y) :- nat(X), X < 5, Y = X + 1.\n\
         end_module.\n",
        None, true, [ "nat/1" ] );
      ( "value-generating = in a non-recursive rule",
        "module m.\nexport succ(ff).\nsucc(X, Y) :- num(X), Y = X + 1.\nend_module.\n",
        None, true, [] );
      ( "= over a right-hand side no positive literal bound",
        "module m.\nexport p(ff).\np(X, Y) :- Y = X + 1, e(X).\nend_module.\n",
        None, true, [ "p/2" ] );
      ( "unbound head variable",
        "module m.\nexport p(ff).\np(X, Y) :- e(X).\nend_module.\n",
        None, false, [ "p/2" ] );
      ( "@pipelined",
        "module m.\nexport p(f).\n@pipelined.\np(X) :- e(X).\nend_module.\n",
        None, false, [ "p/1" ] );
      ( "@multiset",
        "module m.\nexport p(f).\n@multiset p/1.\np(X) :- e(X).\nend_module.\n",
        None, false, [ "p/1" ] );
      ( "@multiset on a base predicate",
        "module m.\nexport p(f).\n@multiset e/1.\np(X) :- e(X).\nend_module.\n",
        None, false, [ "e/1"; "p/1" ] );
      ( "@aggregate_selection",
        "module m.\nexport p(ff).\n@aggregate_selection p(X, C) (X) min(C).\n\
         p(X, C) :- e(X, C).\nend_module.\n",
        None, false, [ "p/2" ] );
      ( "@no_rewriting (planner only)",
        "module m.\nexport p(f).\n@no_rewriting.\np(X) :- e(X).\nend_module.\n",
        None, false, [] );
      ( "insert directive",
        "insert edge(1, 2).\nmodule m.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y).\nend_module.\n",
        None, false, [] );
      ( "fallback propagates to a dependent",
        "module m.\nexport c(f).\na(X) :- e(X), not b(X).\nc(X) :- a(X).\n\
         d(X) :- e(X).\nend_module.\n",
        None, true, [ "a/1"; "c/1" ] )
    ]
  in
  let items text =
    match Coral.Parser.program text with
    | Ok items -> items
    | Error e -> Alcotest.failf "parse: %a" Coral.Parser.pp_error e
  in
  let rename p items =
    let sym s = if Coral.Symbol.name s = p then Coral.Symbol.intern (p ^ "@r") else s in
    let atom (a : Coral.Ast.atom) = { a with Coral.Ast.pred = sym a.Coral.Ast.pred } in
    let rule (r : Coral.Ast.rule) =
      { Coral.Ast.head = { r.Coral.Ast.head with Coral.Ast.hpred = sym r.Coral.Ast.head.Coral.Ast.hpred };
        body =
          List.map
            (function
              | Coral.Ast.Pos a -> Coral.Ast.Pos (atom a)
              | Coral.Ast.Neg a -> Coral.Ast.Neg (atom a)
              | lit -> lit)
            r.Coral.Ast.body
      }
    in
    List.map
      (function
        | Coral.Ast.Module_item m ->
          Coral.Ast.Module_item { m with Coral.Ast.rules = List.map rule m.Coral.Ast.rules }
        | Coral.Ast.Clause_item r -> Coral.Ast.Clause_item (rule r)
        | item -> item)
      items
  in
  List.iter
    (fun (name, text, at, dist, fallbacks) ->
      let db = Coral.create () in
      let eng = Coral.engine db in
      let verdict =
        match at with
        | None ->
          Coral.consult_text db text;
          Plan.analyse_text text
        | Some p ->
          let items = rename p (items text) in
          let modules =
            List.filter_map (function Coral.Ast.Module_item m -> Some m | _ -> None) items
          in
          let clauses =
            List.filter_map (function Coral.Ast.Clause_item r -> Some r | _ -> None) items
          in
          List.iter
            (fun m ->
              match Coral.Engine.load_module eng m with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: load: %s" name e)
            modules;
          List.iter (Coral.Engine.add_clause eng) clauses;
          Plan.analyse modules clauses
      in
      Coral.Engine.set_maintenance eng true;
      Alcotest.(check bool)
        (name ^ ": distributable")
        dist
        (match verdict with Plan.Distributable _ -> true | Plan.Local _ -> false);
      Alcotest.(check (list string))
        (name ^ ": maintenance fallbacks")
        fallbacks
        (List.map fst (Coral.Engine.maintenance_fallbacks eng)))
    rows

(* ------------------------------------------------------------------ *)
(* Cluster harness: in-process workers + router over Unix sockets      *)
(* ------------------------------------------------------------------ *)

type client = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec go acc =
    match In_channel.input_line c.ic with
    | None -> List.rev acc, "<closed>"
    | Some l when Protocol.is_status l -> List.rev acc, l
    | Some l -> go (l :: acc)
  in
  go []

let check_prefix what prefix got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what got prefix)
    true
    (String.starts_with ~prefix got)

let sock_path () =
  let p = Filename.temp_file "corald" ".sock" in
  Sys.remove p;
  p

(* one worker: an ordinary server with the dist handler installed,
   exactly as bin/coral_server wires it *)
let start_worker_h () =
  let path = sock_path () in
  let db = Coral.create () in
  let srv = Server.start ~listen:(`Unix path) db in
  let store = Server.store srv in
  let worker =
    Worker.create ~eng:(Coral.engine db)
      ~commit:(fun ~invalidate f -> Session.commit store ~invalidate f)
      ~locked:(fun f -> Session.locked store f)
      ~budget:(fun () ->
        (Admission.config (Session.admission store)).Admission.max_query_tuples)
  in
  Session.set_dist_handler store (Worker.handle worker);
  path, srv, worker

let start_worker () =
  let path, srv, _ = start_worker_h () in
  path, srv

type cluster = {
  router_path : string;
  router : Router.t;
  workers : (string * Server.t) list;
}

let start_cluster ~shards ~key () =
  let workers = List.init shards (fun _ -> start_worker ()) in
  let rpath = sock_path () in
  let router =
    Router.start ~listen:(`Unix rpath) ~shard_addrs:(List.map fst workers) ~key
      (Coral.create ())
  in
  { router_path = rpath; router; workers }

let stop_cluster cl =
  Router.shutdown cl.router;
  List.iter (fun (_, srv) -> Server.shutdown srv) cl.workers

(* sorted multiset of answer lines — merge order differs across
   configurations, content must not *)
let answers c q =
  let lines, status = request c ("query " ^ q) in
  check_prefix ("query " ^ q) "ok" status;
  List.sort compare
    (List.filter (fun l -> String.starts_with ~prefix:"ans " l) lines)

let consult_all c texts =
  List.iter
    (fun text ->
      let flat = String.map (fun ch -> if ch = '\n' then ' ' else ch) text in
      let _, status = request c ("consult " ^ flat) in
      check_prefix "consult" "ok" status)
    texts

(* ------------------------------------------------------------------ *)
(* Seeded workloads                                                    *)
(* ------------------------------------------------------------------ *)

(* deterministic LCG so every configuration sees the same graph *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

let tc_program =
  "module m_path.\n\
   export path(bf).\n\
   export path(ff).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- path(X, Z), edge(Z, Y).\n\
   end_module.\n"

let tc_edges ~nodes ~extra seed =
  let rand = lcg seed in
  let buf = Buffer.create 256 in
  for i = 1 to nodes - 1 do
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
  done;
  for _ = 1 to extra do
    let a = 1 + rand nodes and b = 1 + rand nodes in
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" a b)
  done;
  Buffer.contents buf

let sg_program =
  "module m_sg.\n\
   export sg(bf).\n\
   export sg(ff).\n\
   sg(X, Y) :- flat(X, Y).\n\
   sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).\n\
   end_module.\n"

let sg_edb ~parents ~children seed =
  let rand = lcg seed in
  let buf = Buffer.create 256 in
  for c = 0 to children - 1 do
    let p = rand parents in
    Buffer.add_string buf (Printf.sprintf "up(%d, %d).\n" (100 + c) p);
    Buffer.add_string buf (Printf.sprintf "down(%d, %d).\n" p (100 + c))
  done;
  for _ = 1 to parents do
    let a = rand parents and b = rand parents in
    Buffer.add_string buf (Printf.sprintf "flat(%d, %d).\n" a b)
  done;
  Buffer.contents buf

(* single-node reference: the same texts on a plain coral_server *)
let reference texts queries =
  let path = sock_path () in
  let srv = Server.start ~listen:(`Unix path) (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect_unix path in
  consult_all c texts;
  let out = List.map (fun q -> q, answers c q) queries in
  ignore (request c "quit");
  close_client c;
  out

(* ------------------------------------------------------------------ *)
(* Differential: sharded == single-node                                *)
(* ------------------------------------------------------------------ *)

let check_differential ~shards ~key texts queries expected =
  let cl = start_cluster ~shards ~key () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  List.iter
    (fun (q, want) ->
      let got = answers c q in
      Alcotest.(check (list string))
        (Printf.sprintf "%s with %d shard(s), key %d" q shards key)
        want got)
    expected;
  (* the dist path actually ran: the router proved the program
     distributable and completed a fixpoint *)
  let lines, _ = request c "stats" in
  Alcotest.(check bool) "program proved distributable" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"txt router.distributable=yes" l)
       lines);
  Alcotest.(check bool) "fixpoint ran" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"txt router.fixpoint.rounds=" l)
       lines);
  ignore (request c "quit");
  close_client c;
  ignore queries

let test_differential_tc () =
  let texts = [ tc_program; tc_edges ~nodes:12 ~extra:6 7 ] in
  let queries = [ "path(X, Y)"; "path(1, Y)"; "path(3, Y)" ] in
  let expected = reference texts queries in
  Alcotest.(check bool) "reference closure is non-trivial" true
    (List.length (List.assoc "path(X, Y)" expected) > 20);
  (* key 0 derives owner-locally; key 1 forces real delta shipping *)
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 1, 0; 2, 1; 4, 1 ]

let test_differential_sg () =
  let texts = [ sg_program; sg_edb ~parents:4 ~children:10 11 ] in
  let queries = [ "sg(X, Y)"; "sg(100, Y)" ] in
  let expected = reference texts queries in
  Alcotest.(check bool) "reference sg is non-trivial" true
    (List.length (List.assoc "sg(X, Y)" expected) > 5);
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 2, 0; 4, 1 ]

(* A predicate can be BOTH rule-defined and seeded with consulted
   facts (path(40, 41). plus the recursive path rules).  Those facts
   are not part of the replicated EDB — each is shipped to its owner
   shard before the fixpoint — so the distributed closure must contain
   the seeds and everything derived from them, byte-identical to
   single-node. *)
let test_differential_seeded_idb () =
  (* seeds arrive two ways: consulted top-level facts (base relation
     tuples, shipped as pre-fixpoint deltas) and facts written inside
     the module (part of the program text, evaluated as Init rules on
     every worker) — including a double-valued one that must cross the
     program wire bit-exact *)
  let tc_with_module_seeds =
    "module m_path.\n\
     export path(bf).\n\
     export path(ff).\n\
     path(50, 51).\n\
     path(2.0, 99.0000001).\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- path(X, Z), edge(Z, Y).\n\
     end_module.\n"
  in
  let seeds = "path(40, 41).\npath(41, 42).\n" in
  let texts =
    [ tc_with_module_seeds;
      tc_edges ~nodes:10 ~extra:4 13 ^ "edge(42, 43).\nedge(51, 52).\n" ^ seeds ]
  in
  let queries =
    [ "path(X, Y)"; "path(40, Y)"; "path(41, 43)"; "path(50, 52)"; "path(2.0, Y)" ]
  in
  let expected = reference texts queries in
  (* the seeds and their derivations are actually in the reference:
     path(41, 43) needs seed path(41, 42) joined with edge(42, 43),
     path(50, 52) needs module fact path(50, 51) joined with
     edge(51, 52) *)
  Alcotest.(check (list string)) "reference derives from the seed"
    [ "ans true" ]
    (List.assoc "path(41, 43)" expected);
  Alcotest.(check (list string)) "reference derives from the module fact"
    [ "ans true" ]
    (List.assoc "path(50, 52)" expected);
  Alcotest.(check int) "reference answers the double seed" 1
    (List.length (List.assoc "path(2.0, Y)" expected));
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 1, 0; 2, 1; 4, 0; 4, 1 ]

(* Float values must reach the workers bit-identical: with the lossy
   %g codec the 1.0000001-style node names collapse to integers on
   the wire, joins stop matching, and the distributed closure shrinks
   silently. *)
let test_differential_floats () =
  let buf = Buffer.create 256 in
  for i = 1 to 9 do
    Buffer.add_string buf
      (Printf.sprintf "edge(%d.0000001, %d.0000001).\n" i (i + 1))
  done;
  Buffer.add_string buf "edge(2.0, 3.0).\nedge(3.0, 2.0).\nedge(3.0, 4.0000001).\n";
  let texts = [ tc_program; Buffer.contents buf ] in
  let queries = [ "path(X, Y)"; "path(2.0, Y)" ] in
  let expected = reference texts queries in
  Alcotest.(check bool) "float closure is non-trivial" true
    (List.length (List.assoc "path(X, Y)" expected) > 20);
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 2, 0; 4, 1 ]

(* Constants in bodies and heads, and a comparison after the derived
   literal: the worker compiles each rule once and runs the linear
   rule with its delta literal moved first, which must not unbind the
   comparison or lose the constants. *)
let test_differential_consts () =
  let program =
    "module m_reach.\n\
     export reach(bf).\n\
     export reach(ff).\n\
     reach(X, Y) :- edge(X, Y), Y < 11.\n\
     reach(0, Y) :- edge(1, Y).\n\
     reach(X, Y) :- reach(X, Z), edge(Z, Y), Y < 11.\n\
     end_module.\n"
  in
  let texts = [ program; tc_edges ~nodes:12 ~extra:6 17 ] in
  let queries = [ "reach(X, Y)"; "reach(0, Y)"; "reach(3, Y)" ] in
  let expected = reference texts queries in
  Alcotest.(check bool) "reference reach is non-trivial" true
    (List.length (List.assoc "reach(X, Y)" expected) > 20);
  Alcotest.(check bool) "reference derives from the constant rule" true
    (List.assoc "reach(0, Y)" expected <> []);
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 1, 0; 2, 1; 4, 1 ]

(* A worker compiles the distributed program with the fixpoint's
   compiler: the left-linear rule's activation on a path delta probes
   edge on its first argument, so every worker's replicated edge
   relation carries that index, and the delta relations are private
   to the worker rather than registered with its engine. *)
let test_worker_kernel () =
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; tc_edges ~nodes:8 ~extra:3 5 ];
  Alcotest.(check bool) "closure answered" true (List.length (answers c "path(X, Y)") > 7);
  let lines, _ = request c "stats" in
  Alcotest.(check bool) "fixpoint ran" true
    (List.exists (String.starts_with ~prefix:"txt router.fixpoint.rounds=") lines);
  ignore (request c "quit");
  close_client c;
  List.iteri
    (fun i (_, srv) ->
      let eng = Coral.engine (Session.db (Server.store srv)) in
      match Coral.Engine.relation_of eng (Coral.Symbol.intern "edge") 2 with
      | None -> Alcotest.failf "worker %d has no edge relation" i
      | Some edge ->
        Alcotest.(check bool)
          (Printf.sprintf "worker %d: edge carries args(0)" i)
          true
          (List.exists
             (Coral.Index.spec_equal (Coral.Index.Args [ 0 ]))
             (Coral.Relation.indexes edge));
        Alcotest.(check (list string))
          (Printf.sprintf "worker %d: no relation name contains @" i)
          []
          (List.filter_map
             (fun (k, _) -> if String.contains k '@' then Some k else None)
             (Coral.Engine.list_relations eng)))
    cl.workers

(* An insert through the router lands on the replica, dirties the
   cluster, and the next distributed query sees it after resync. *)
let test_insert_resyncs () =
  let texts = [ tc_program; "edge(1, 2).\nedge(2, 3).\n" ] in
  Coral_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Coral_obs.Obs.set_enabled false) @@ fun () ->
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  let fixpoint_runs () =
    let lines, _ = request c "stats" in
    match
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"txt router.fixpoint.runs=" l then
            int_of_string_opt (String.sub l 25 (String.length l - 25))
          else None)
        lines
    with
    | Some n -> n
    | None -> Alcotest.fail "no router.fixpoint.runs stat"
  in
  Alcotest.(check int) "closure of the chain" 3 (List.length (answers c "path(X, Y)"));
  let r1 = fixpoint_runs () in
  let _, status = request c "insert edge(3, 4)." in
  check_prefix "insert" "ok" status;
  Alcotest.(check int) "closure after insert" 6 (List.length (answers c "path(X, Y)"));
  Alcotest.(check int) "the insert forced a second fixpoint" (r1 + 1) (fixpoint_runs ());
  ignore (request c "quit");
  close_client c

(* A wire retract through the router dirties the cluster exactly like
   an insert: the next distributed query resyncs, and the whole mixed
   update sequence stays byte-identical to a single node. *)
let test_retract_resyncs () =
  let texts = [ tc_program; tc_edges ~nodes:10 ~extra:8 13 ] in
  let updates =
    [ "retract edge(4, 5).";
      "insert edge(4, 9).";
      "retract edge(9, 10). edge(4, 9)."
    ]
  in
  let run_sequence c =
    consult_all c texts;
    List.concat_map
      (fun u ->
        let _, status = request c u in
        check_prefix u "ok" status;
        answers c "path(X, Y)")
      updates
  in
  let path = sock_path () in
  let srv = Server.start ~listen:(`Unix path) (Coral.create ()) in
  let want =
    Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
    let c = connect_unix path in
    let out = run_sequence c in
    ignore (request c "quit");
    close_client c;
    out
  in
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  let got = run_sequence c in
  Alcotest.(check (list string)) "retract sequence matches single node" want got;
  (* a query mixing a partitioned idb literal with the retract builtin
     must not fan out: fanned out, the deletion would hit one worker's
     replica and the router's database would keep the fact *)
  let _, status = request c "query path(1, Y), retract(edge(1, 2))" in
  check_prefix "mixed idb+retract query" "ok" status;
  Alcotest.(check (list string)) "the retract landed on the router's replica" []
    (answers c "edge(1, 2)");
  ignore (request c "quit");
  close_client c

(* The assert/retract builtins mutate through ordinary queries (the
   session reroutes them to the write lane).  The router must notice —
   via the snapshot epoch bump — and dirty the cluster, or subsequent
   distributed queries keep answering from the workers' stale
   materialization. *)
let test_mutating_query_resyncs () =
  let texts = [ tc_program; "edge(1, 2).\nedge(2, 3).\nedge(3, 4).\n" ] in
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  Alcotest.(check int) "closure of the chain" 6 (List.length (answers c "path(X, Y)"));
  let _, status = request c "query retract(edge(2, 3))" in
  check_prefix "retract through a query" "ok" status;
  (* single-node semantics after the retract: only edge(1,2), edge(3,4) *)
  Alcotest.(check (list string)) "distributed answers reflect the retract"
    (List.sort compare [ "ans X = 1, Y = 2"; "ans X = 3, Y = 4" ])
    (answers c "path(X, Y)");
  let _, status = request c "query assert(edge(2, 3))" in
  check_prefix "assert through a query" "ok" status;
  Alcotest.(check int) "and the assert is visible too" 6
    (List.length (answers c "path(X, Y)"));
  (* a query mixing a partitioned literal with an update builtin must
     not fan out: fanned out, the assert would land on the workers'
     replicas and the router's database would never see it *)
  let _, status = request c "query path(1, Y), assert(marker(7))" in
  check_prefix "mixed idb+assert query" "ok" status;
  Alcotest.(check int) "the assert landed on the router's replica" 1
    (List.length (answers c "marker(X)"));
  ignore (request c "quit");
  close_client c

(* Without the dist handler installed (a server run without --worker)
   the cluster control plane refuses: no unauthenticated client can
   dreset (wipe) a plain server or hijack it as a shard. *)
let test_non_worker_refuses_cluster () =
  let path = sock_path () in
  let srv = Server.start ~listen:(`Unix path) (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect_unix path in
  let _, status = request c "consult edge(1, 2)." in
  check_prefix "consult" "ok" status;
  List.iter
    (fun cmd ->
      let _, status = request c cmd in
      check_prefix (cmd ^ " refused") "err CLUSTER" status)
    [ "dreset"; "shard 0 2 0 a.sock b.sock"; "barrier step 1"; "barrier promote 1" ];
  (* and nothing was wiped by the refused dreset *)
  Alcotest.(check int) "database intact" 1 (List.length (answers c "edge(X, Y)"));
  ignore (request c "quit");
  close_client c

(* ------------------------------------------------------------------ *)
(* kill, crash, and fallback                                           *)
(* ------------------------------------------------------------------ *)

(* Differential under a kill storm: a second session hammers ps/kill
   while the differential queries run.  A query either dies with a
   well-formed KILLED (and is retried) or returns the exact answer set
   — never a partial one. *)
let test_differential_under_kill () =
  let texts = [ tc_program; tc_edges ~nodes:16 ~extra:8 23 ] in
  let queries = [ "path(X, Y)"; "path(1, Y)" ] in
  let expected = reference texts queries in
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  let stop = Atomic.make false in
  let killer =
    Thread.create
      (fun () ->
        let k = connect_unix cl.router_path in
        while not (Atomic.get stop) do
          let lines, _ = request k "ps" in
          List.iter
            (fun l ->
              let l =
                if String.starts_with ~prefix:"txt " l then
                  String.sub l 4 (String.length l - 4)
                else l
              in
              if String.starts_with ~prefix:"id=" l then
                match String.index_opt l ' ' with
                | Some i ->
                  (match int_of_string_opt (String.sub l 3 (i - 3)) with
                  | Some qid -> ignore (request k (Printf.sprintf "kill %d" qid))
                  | None -> ())
                | None -> ())
            lines
        done;
        ignore (request k "quit");
        close_client k)
      ()
  in
  let killed = ref 0 in
  for _ = 1 to 5 do
    List.iter
      (fun (q, want) ->
        let rec attempt tries =
          if tries > 50 then Alcotest.fail ("query never completed under kill: " ^ q);
          let lines, status = request c ("query " ^ q) in
          if String.starts_with ~prefix:"err KILLED" status then begin
            incr killed;
            attempt (tries + 1)
          end
          else begin
            check_prefix "survivor status" "ok" status;
            let got =
              List.sort compare
                (List.filter (fun l -> String.starts_with ~prefix:"ans " l) lines)
            in
            Alcotest.(check (list string)) ("exact answers under kill: " ^ q) want got
          end
        in
        attempt 0)
      expected
  done;
  Atomic.set stop true;
  Thread.join killer;
  ignore (request c "quit");
  close_client c

(* A worker lost mid-flight: the query dies with one well-formed err,
   the router survives, and a replacement worker on the same address
   is re-provisioned transparently. *)
let test_worker_crash_unavail () =
  let texts = [ tc_program; tc_edges ~nodes:8 ~extra:3 5 ] in
  let queries = [ "path(X, Y)" ] in
  let expected = reference texts queries in
  let cl = start_cluster ~shards:2 ~key:1 () in
  let crashed = ref false in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown cl.router;
      List.iteri (fun i (_, srv) -> if not (!crashed && i = 1) then Server.shutdown srv) cl.workers)
  @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  Alcotest.(check (list string)) "healthy cluster answers"
    (List.assoc "path(X, Y)" expected)
    (answers c "path(X, Y)");
  (* kill worker 1 outright *)
  let victim_path, victim = List.nth cl.workers 1 in
  Server.shutdown victim;
  crashed := true;
  let _, status = request c "query path(X, Y)" in
  check_prefix "query against a dead shard fails cleanly" "err" status;
  (* the router itself is alive and local requests still work *)
  let _, status = request c "ping" in
  check_prefix "router alive after shard loss" "ok pong" status;
  let lines, _ = request c "stats" in
  Alcotest.(check bool) "cluster marked dirty" true
    (List.mem "txt router.state=dirty" lines);
  (* a replacement worker on the same address heals the cluster *)
  let db = Coral.create () in
  let srv2 = Server.start ~listen:(`Unix victim_path) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv2) @@ fun () ->
  let store = Server.store srv2 in
  let worker =
    Worker.create ~eng:(Coral.engine db)
      ~commit:(fun ~invalidate f -> Session.commit store ~invalidate f)
      ~locked:(fun f -> Session.locked store f)
      ~budget:(fun () ->
        (Admission.config (Session.admission store)).Admission.max_query_tuples)
  in
  Session.set_dist_handler store (Worker.handle worker);
  Alcotest.(check (list string)) "healed cluster answers again"
    (List.assoc "path(X, Y)" expected)
    (answers c "path(X, Y)");
  ignore (request c "quit");
  close_client c

(* Programs outside the linear class still answer — on the router's
   local replica, with single-node semantics. *)
let test_local_fallback () =
  let nonlinear =
    "module m_nl.\n\
     export tcnl(ff).\n\
     tcnl(X, Y) :- edge(X, Y).\n\
     tcnl(X, Y) :- tcnl(X, Z), tcnl(Z, Y).\n\
     end_module.\n"
  in
  let texts = [ nonlinear; "edge(1, 2).\nedge(2, 3).\nedge(3, 4).\n" ] in
  let queries = [ "tcnl(X, Y)"; "tcnl(1, Y)" ] in
  let expected = reference texts queries in
  let cl = start_cluster ~shards:2 ~key:0 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  List.iter
    (fun (q, want) ->
      Alcotest.(check (list string)) ("local fallback: " ^ q) want (answers c q))
    expected;
  let lines, _ = request c "stats" in
  Alcotest.(check bool) "marked non-distributable" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"txt router.distributable=no" l)
       lines);
  ignore (request c "quit");
  close_client c

(* ------------------------------------------------------------------ *)
(* Cluster observability: trace ids, stitching, federation, skew       *)
(* ------------------------------------------------------------------ *)

(* The in-process harness shares ONE span ring and enable switch
   across router and workers, so these tests assert per-trace-id
   filtering and wire behavior, never per-process span disjointness. *)
let with_obs f =
  Coral_obs.Obs.set_enabled true;
  Coral_obs.Obs.Span.clear ();
  Fun.protect
    ~finally:(fun () ->
      Coral_obs.Obs.Span.clear ();
      Coral_obs.Obs.set_enabled false)
    f

(* A plain server accepts a trailing [tid=] token on [query]: the
   token never reaches the query parser, the answers are unchanged,
   and the evaluation span is stamped with exactly that id. *)
let test_tid_wire_roundtrip () =
  with_obs @@ fun () ->
  let path, srv = start_worker () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect_unix path in
  let _, status = request c "consult edge(1, 2). edge(2, 3)." in
  check_prefix "consult" "ok" status;
  let plain = answers c "edge(X, Y)" in
  let lines, status = request c "query edge(X, Y) tid=tt-wire.1" in
  check_prefix "tid-tagged query" "ok" status;
  Alcotest.(check (list string)) "tid token does not change the answers" plain
    (List.sort compare
       (List.filter (fun l -> String.starts_with ~prefix:"ans " l) lines));
  let slines, status = request c "spans tt-wire.1" in
  check_prefix "spans" "ok" status;
  Alcotest.(check bool) "at least one span carries the tid" true (slines <> []);
  List.iter
    (fun l ->
      check_prefix "span line" "txt " l;
      match Coral_obs.Obs.Span.of_json (String.sub l 4 (String.length l - 4)) with
      | Error e -> Alcotest.fail ("span line does not parse: " ^ e)
      | Ok s ->
        Alcotest.(check (option string)) "span tid attr" (Some "tt-wire.1")
          (List.assoc_opt "tid" s.Coral_obs.Obs.Span.attrs))
    slines;
  (* an id outside the safe charset is refused, not adopted *)
  let _, status = request c "spans no/slashes" in
  check_prefix "spans with a bad id" "err" status;
  (* a malformed tid token is NOT stripped: it stays query text and
     fails in the parser instead of silently becoming trace context *)
  let _, status = request c "query edge(X, Y) tid=no/slashes" in
  check_prefix "malformed tid stays query text" "err" status;
  ignore (request c "quit");
  close_client c

(* A distributed query yields ONE stitched Chrome trace: the ok detail
   names the trace id, [trace <id>] (and [trace last]) return JSON
   that parses back, with a router lane, a lane per worker, and every
   complete event stamped with the same tid. *)
let test_stitched_trace () =
  with_obs @@ fun () ->
  let texts = [ tc_program; tc_edges ~nodes:8 ~extra:3 5 ] in
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  let _, status = request c "query path(X, Y)" in
  check_prefix "distributed query" "ok" status;
  let tid =
    match
      List.find_opt
        (String.starts_with ~prefix:"tid=")
        (String.split_on_char ' ' status)
    with
    | Some t -> String.sub t 4 (String.length t - 4)
    | None -> Alcotest.fail ("no tid= in the ok detail: " ^ status)
  in
  let module J = Coral_obs.Json in
  let strmem k obj = match J.member k obj with Some (J.Str s) -> Some s | _ -> None in
  let check_trace cmd =
    let tlines, tstatus = request c cmd in
    check_prefix cmd "ok" tstatus;
    let json =
      String.concat "\n"
        (List.map
           (fun l ->
             if String.starts_with ~prefix:"txt " l then
               String.sub l 4 (String.length l - 4)
             else l)
           tlines)
    in
    match J.parse json with
    | Error e -> Alcotest.fail (cmd ^ ": stitched trace is not valid JSON: " ^ e)
    | Ok (J.List events) ->
      let lanes =
        List.filter_map
          (fun ev ->
            if strmem "ph" ev = Some "M" && strmem "name" ev = Some "process_name"
            then Option.bind (J.member "args" ev) (strmem "name")
            else None)
          events
      in
      Alcotest.(check bool) (cmd ^ ": router lane present") true (List.mem "router" lanes);
      Alcotest.(check bool) (cmd ^ ": both worker lanes present") true
        (List.exists (String.starts_with ~prefix:"shard0 ") lanes
        && List.exists (String.starts_with ~prefix:"shard1 ") lanes);
      let xs = List.filter (fun ev -> strmem "ph" ev = Some "X") events in
      Alcotest.(check bool) (cmd ^ ": has complete spans") true (xs <> []);
      Alcotest.(check bool) (cmd ^ ": fan-out span present") true
        (List.exists (fun ev -> strmem "name" ev = Some "router.fanout") xs);
      List.iter
        (fun ev ->
          match Option.bind (J.member "args" ev) (strmem "tid") with
          | Some t -> Alcotest.(check string) (cmd ^ ": span tid") tid t
          | None -> Alcotest.fail (cmd ^ ": span without a tid attr"))
        xs
    | Ok _ -> Alcotest.fail (cmd ^ ": expected a JSON array")
  in
  check_trace ("trace " ^ tid);
  check_trace "trace last";
  ignore (request c "quit");
  close_client c

(* The router's [metrics] reply federates every worker under
   coral_shard_*{shard="N"} labels, keeps the exposition well-formed
   (one TYPE header per name), and carries the skew roll-ups. *)
let test_federated_metrics () =
  with_obs @@ fun () ->
  List.iter
    (fun shards ->
      let cl = start_cluster ~shards ~key:1 () in
      Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
      let c = connect_unix cl.router_path in
      consult_all c [ tc_program; "edge(1, 2).\nedge(2, 3).\nedge(3, 4).\n" ];
      ignore (answers c "path(X, Y)");
      let lines, status = request c "metrics" in
      check_prefix "metrics" "ok" status;
      let txt =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"txt " l then
              Some (String.sub l 4 (String.length l - 4))
            else None)
          lines
      in
      for i = 0 to shards - 1 do
        let up = Printf.sprintf "coral_shard_up{shard=\"%d\"" i in
        Alcotest.(check bool)
          (Printf.sprintf "%d shard(s): shard %d reports up" shards i)
          true
          (List.exists
             (fun l -> String.starts_with ~prefix:up l && String.ends_with ~suffix:" 1" l)
             txt);
        let lbl = Printf.sprintf "{shard=\"%d\"" i in
        Alcotest.(check bool)
          (Printf.sprintf "%d shard(s): shard %d series federated" shards i)
          true
          (List.exists
             (fun l ->
               String.starts_with ~prefix:"coral_shard_" l
               && (not (String.starts_with ~prefix:"coral_shard_up" l))
               &&
               match String.index_opt l '{' with
               | Some j ->
                 String.length l - j >= String.length lbl
                 && String.sub l j (String.length lbl) = lbl
               | None -> false)
             txt);
        (* each shard times its step joins under phase.eval *)
        let eval_count = Printf.sprintf "coral_shard_phase_eval_count{shard=\"%d\"} " i in
        Alcotest.(check bool)
          (Printf.sprintf "%d shard(s): shard %d phase.eval observed" shards i)
          true
          (List.exists
             (fun l ->
               String.starts_with ~prefix:eval_count l
               &&
               let n = String.length eval_count in
               int_of_string (String.sub l n (String.length l - n)) > 0)
             txt)
      done;
      (* well-formed exposition: no federated TYPE header repeats *)
      let names =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"# TYPE coral_shard_" l then
              Some (List.nth (String.split_on_char ' ' l) 2)
            else None)
          txt
      in
      Alcotest.(check int)
        (Printf.sprintf "%d shard(s): TYPE headers unique" shards)
        (List.length names)
        (List.length (List.sort_uniq compare names));
      Alcotest.(check bool) "skew roll-up present" true
        (List.exists (String.starts_with ~prefix:"coral_dist_skew_ratio") txt);
      Alcotest.(check bool) "straggler roll-up present" true
        (List.exists (String.starts_with ~prefix:"coral_dist_straggler_rounds") txt);
      ignore (request c "quit");
      close_client c)
    [ 1; 2; 4 ]

(* Fault seam: one worker sleeping through every barrier step must
   show up as the straggler — in dstat's per-round table, in the
   run's skew roll-up, and as a dist.round event with the flag. *)
let test_forced_straggler () =
  with_obs @@ fun () ->
  let p0, s0, _ = start_worker_h () in
  let p1, s1, slow = start_worker_h () in
  Worker.set_fault_step_delay slow 0.05;
  let rpath = sock_path () in
  let router =
    Router.start ~listen:(`Unix rpath) ~shard_addrs:[ p0; p1 ] ~key:1
      (Coral.create ())
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      Server.shutdown s0;
      Server.shutdown s1)
  @@ fun () ->
  let c = connect_unix rpath in
  consult_all c [ tc_program; tc_edges ~nodes:8 ~extra:3 7 ];
  ignore (answers c "path(X, Y)");
  let dlines, dstatus = request c "dstat" in
  check_prefix "dstat" "ok" dstatus;
  let detail = Option.value (Shard_client.status_ok dstatus) ~default:"" in
  let kv = Shard_client.kv_pairs detail in
  (match Shard_client.kv_int kv "straggler_rounds" with
  | Some n -> Alcotest.(check bool) "straggler rounds flagged" true (n >= 1)
  | None -> Alcotest.fail ("no straggler_rounds in dstat detail: " ^ detail));
  (match List.assoc_opt "skew_max" kv with
  | Some v ->
    Alcotest.(check bool) "skew well above balanced" true
      (Option.value (float_of_string_opt v) ~default:0. > 1.5)
  | None -> Alcotest.fail "no skew_max in dstat detail");
  Alcotest.(check bool) "the sleeping shard is the one flagged" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"txt round=" l
         && String.ends_with ~suffix:"straggler=1" l)
       dlines);
  (* the per-round JSONL event carries the flag too *)
  let elines, _ = request c "events 200" in
  Alcotest.(check bool) "dist.round event with straggler" true
    (List.exists
       (fun l ->
         let contains sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
           in
           go 0
         in
         contains "dist.round" && contains "straggler")
       elines);
  (* clearing the seam drops the skew back to balanced *)
  Worker.set_fault_step_delay slow 0.;
  let _, status = request c "insert edge(1, 8)." in
  check_prefix "insert to force a resync" "ok" status;
  ignore (answers c "path(X, Y)");
  let _, dstatus = request c "dstat" in
  check_prefix "dstat after clearing the fault" "ok" dstatus;
  ignore (request c "quit");
  close_client c

let () =
  Alcotest.run "coral_dist"
    [ ( "units",
        [ Alcotest.test_case "partition ownership" `Quick test_partition_unit;
          Alcotest.test_case "delta codec" `Quick test_delta_codec_unit;
          Alcotest.test_case "delta codec: lossless doubles" `Quick test_delta_codec_doubles;
          Alcotest.test_case "exchange buffer" `Quick test_exchange_unit;
          Alcotest.test_case "plan analysis" `Quick test_plan_unit;
          Alcotest.test_case "distribution and maintenance verdicts" `Quick test_verdict_table
        ] );
      ( "cluster",
        [ Alcotest.test_case "differential TC (1/2/4 shards)" `Quick test_differential_tc;
          Alcotest.test_case "differential SG" `Quick test_differential_sg;
          Alcotest.test_case "differential: seeded IDB facts" `Quick
            test_differential_seeded_idb;
          Alcotest.test_case "differential: float values" `Quick test_differential_floats;
          Alcotest.test_case "insert dirties and resyncs" `Quick test_insert_resyncs;
          Alcotest.test_case "retract dirties and resyncs" `Quick test_retract_resyncs;
          Alcotest.test_case "mutating query dirties and resyncs" `Quick
            test_mutating_query_resyncs;
          Alcotest.test_case "non-worker refuses cluster commands" `Quick
            test_non_worker_refuses_cluster;
          Alcotest.test_case "differential under kill storm" `Quick
            test_differential_under_kill;
          Alcotest.test_case "worker crash: clean err, live router" `Quick
            test_worker_crash_unavail;
          Alcotest.test_case "non-distributable falls back locally" `Quick
            test_local_fallback;
          Alcotest.test_case "differential: constants and comparisons" `Quick
            test_differential_consts;
          Alcotest.test_case "workers compile through the join kernel" `Quick
            test_worker_kernel
        ] );
      ( "observability",
        [ Alcotest.test_case "tid= wire round-trip on a plain server" `Quick
            test_tid_wire_roundtrip;
          Alcotest.test_case "stitched cross-process trace" `Quick test_stitched_trace;
          Alcotest.test_case "federated metrics labels (1/2/4 shards)" `Quick
            test_federated_metrics;
          Alcotest.test_case "forced straggler is flagged" `Quick test_forced_straggler
        ] )
    ]
