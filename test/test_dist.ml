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

let encode_payloads pairs =
  let b = Delta_codec.batch () in
  List.iter (fun (name, tuple) -> Delta_codec.add_tuple b name tuple) pairs;
  Delta_codec.contents b

let encode pairs =
  match encode_payloads pairs with
  | [ payload ] -> payload
  | ps -> Alcotest.failf "a small batch took %d payloads" (List.length ps)

(* The facts of a program text, as (predicate, tuple) pairs. *)
let facts_of text =
  match Coral.Parser.program text with
  | Ok items ->
    List.filter_map
      (function
        | Coral.Ast.Fact a ->
          Some (Coral.Symbol.name a.Coral.Ast.pred, Coral.Tuple.of_terms a.Coral.Ast.args)
        | _ -> None)
      items
  | Error _ -> Alcotest.failf "unparseable facts: %S" text

(* Strict term identity: the same value constructor, doubles with the
   same bits (Term.equal has -0.0 = 0.0), functors with the same name. *)
let rec same_term (a : Coral.Term.t) (b : Coral.Term.t) =
  match a, b with
  | Coral.Term.Const (Coral.Value.Double x), Coral.Term.Const (Coral.Value.Double y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Coral.Term.Const x, Coral.Term.Const y -> Coral.Value.equal x y
  | Coral.Term.App x, Coral.Term.App y ->
    Coral.Symbol.name x.Coral.Term.sym = Coral.Symbol.name y.Coral.Term.sym
    && Array.length x.Coral.Term.args = Array.length y.Coral.Term.args
    && Array.for_all2 same_term x.Coral.Term.args y.Coral.Term.args
  | _ -> false

let same_tuple (a : Coral.Tuple.t) (b : Coral.Tuple.t) =
  Array.length a.Coral.Tuple.terms = Array.length b.Coral.Tuple.terms
  && Array.for_all2 same_term a.Coral.Tuple.terms b.Coral.Tuple.terms

let test_delta_codec_unit () =
  (* strings come back byte for byte, whatever they hold *)
  List.iter
    (fun str ->
      let tuple = Coral.Tuple.of_terms [| Coral.Term.str str |] in
      match Delta_codec.decode (encode [ "s", tuple ]) with
      | Ok [ ("s", got) ] ->
        Alcotest.(check bool) (Printf.sprintf "%S round-trips" str) true (same_tuple tuple got)
      | _ -> Alcotest.failf "%S did not round-trip as one tuple" str)
    [ "a b"; "q\"uote"; "back\\slash"; "new\nline"; "tab\t"; "caf\xc3\xa9"; "cr\rnul\000" ];
  let batch = encode [ "path", tuple_of [ 1; 2 ]; "path", tuple_of [ 2; 3 ] ] in
  (match Delta_codec.decode batch with
  | Ok [ ("path", a); ("path", b) ] ->
    Alcotest.(check bool) "round-trips in order" true
      (same_tuple a (tuple_of [ 1; 2 ]) && same_tuple b (tuple_of [ 2; 3 ]))
  | Ok l -> Alcotest.failf "decoded %d tuples, expected 2" (List.length l)
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (match Delta_codec.decode (encode []) with
  | Ok [] -> ()
  | _ -> Alcotest.fail "an empty batch decodes to no tuples");
  (* a batch past the receiver's size limit splits into payloads that
     each fit, and decode back to the batch in order; a tuple larger
     than the limit on its own still travels, alone *)
  let limit = Protocol.max_payload_bytes in
  let big n = "path", Coral.Tuple.of_terms [| Coral.Term.str (String.make n 'x') |] in
  let pairs =
    [ "path", tuple_of [ 1; 2 ]; big (limit / 3); big (limit / 3); big (limit / 3);
      big (limit + 10); "path", tuple_of [ 3; 4 ] ]
  in
  let payloads = encode_payloads pairs in
  Alcotest.(check (list int)) "tuples per payload" [ 3; 1; 1; 1 ]
    (List.map
       (fun p -> match Delta_codec.decode p with Ok l -> List.length l | Error _ -> -1)
       payloads);
  List.iter
    (fun p ->
      Alcotest.(check bool) "payload within the limit or one tuple" true
        (String.length p <= limit
        || match Delta_codec.decode p with Ok [ _ ] -> true | _ -> false))
    payloads;
  (match
     List.fold_left
       (fun acc p ->
         match acc, Delta_codec.decode p with
         | Ok acc, Ok l -> Ok (acc @ l)
         | (Error _ as e), _ | _, (Error _ as e) -> e)
       (Ok []) payloads
   with
  | Ok got ->
    Alcotest.(check bool) "split batch round-trips in order" true
      (List.length got = List.length pairs
      && List.for_all2 (fun (n, t) (n', t') -> n = n' && same_tuple t t') pairs got)
  | Error e -> Alcotest.fail ("split payload did not decode: " ^ e));
  (* a variable has no owner shard: a partitioned tuple ships only
     ground; a stored non-ground fact of the replicated EDB keeps its
     variables, shared ones shared *)
  let x = Coral.Term.var ~name:"X" 0 and y = Coral.Term.var ~name:"Y" 1 in
  let open_tuple =
    Coral.Tuple.of_terms [| x; Coral.Term.app (Coral.Symbol.intern "f") [| y; x |] |]
  in
  (match encode [ "path", open_tuple ] with
  | _ -> Alcotest.fail "a non-ground tuple must not encode"
  | exception Delta_codec.Unencodable _ -> ());
  let b = Delta_codec.batch () in
  Delta_codec.add_tuple ~vars:true b "path" open_tuple;
  (match Delta_codec.decode (String.concat "" (Delta_codec.contents b)) with
  | Ok [ ("path", got) ] ->
    Alcotest.(check bool) "a non-ground EDB fact round-trips" true
      (Coral.Tuple.equal open_tuple got && got.Coral.Tuple.nvars = 2)
  | _ -> Alcotest.fail "a non-ground EDB fact did not round-trip");
  (* fact text, a rule, is not a batch *)
  List.iter
    (fun text ->
      match Delta_codec.decode text with
      | Ok _ -> Alcotest.failf "%S must not decode as a delta batch" text
      | Error _ -> ())
    [ "path(1, 2)."; "p(1) :- q(1)." ]

(* Doubles must reach the owner with value AND type intact: as text,
   %g's 6 significant digits would ship 2.0 as "2" (an Int on the
   receiving worker) and 1.0000001 as "1"; in binary, routing the bits
   through a 63-bit int would drop one. *)
let test_delta_codec_doubles () =
  let roundtrip f =
    let tuple = Coral.Tuple.of_terms [| Coral.Term.double f |] in
    match Delta_codec.decode (encode [ "m", tuple ]) with
    | Error e -> Alcotest.fail (Printf.sprintf "%h did not decode: %s" f e)
    | Ok [ (_, got) ] -> (
      match got.Coral.Tuple.terms.(0) with
      | Coral.Term.Const (Coral.Value.Double g) ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives bit-exact" f)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | t ->
        Alcotest.fail
          (Printf.sprintf "%h decoded as non-double %s" f (Coral.Term.to_string t)))
    | Ok _ -> Alcotest.fail "one tuple expected"
  in
  List.iter roundtrip
    [ 2.0; -2.0; 1.0000001; 0.1; -0.5; 1e300; 4.9e-324; 1.7976931348623157e308;
      3.141592653589793; 1000000.0; -0.0; 2.2250738585072009e-308 ];
  (* nested under a functor and in lists too *)
  let nested =
    Coral.Tuple.of_terms
      [| Coral.Term.app (Coral.Symbol.intern "f") [| Coral.Term.double 3.0 |];
         Coral.Term.list_of [ Coral.Term.double 0.5 ]
      |]
  in
  (match Delta_codec.decode (encode [ "m", nested ]) with
  | Ok [ (_, got) ] -> Alcotest.(check bool) "nested doubles in binary" true (same_tuple nested got)
  | _ -> Alcotest.fail "nested doubles did not round-trip");
  (* values with no wire form refuse to ship rather than lie *)
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s must not serialize" what
    | exception Delta_codec.Unencodable _ -> ()
  in
  let point_ops =
    Coral.Value.make_ops ~name:"point" ~print:(fun ppf _ -> Format.pp_print_string ppf "pt") ()
  in
  List.iter
    (fun (what, term) ->
      let tuple = Coral.Tuple.of_terms [| term |] in
      refused (what ^ " in a batch") (fun () -> encode [ "m", tuple ]))
    [ "nan", Coral.Term.double Float.nan;
      "inf", Coral.Term.double Float.infinity;
      "opaque", Coral.Term.const (Coral.Value.opaque point_ops Not_found);
      "nested nan", Coral.Term.list_of [ Coral.Term.double Float.nan ]
    ]

(* Generated ground tuples: every value kind, with the edges of each
   representation. *)
let gen_term =
  let open QCheck2.Gen in
  let int_v =
    oneof [ pure min_int; pure max_int; pure 0; pure (-1); int; int_range (-1000) 1000 ]
  in
  let big_v =
    oneof
      [ map
          (fun (neg, digits) -> (if neg then "-" else "") ^ "1" ^ digits)
          (pair bool (string_size ~gen:numeral (int_range 19 40)));
        map string_of_int int
      ]
    |> map Coral.Bignum.of_string
  in
  let double_v =
    oneof
      [ oneofl
          [ -0.0; 0.0; 4.9e-324; 2.2250738585072009e-308; 1.7976931348623157e308; 2.0;
            -2.0; 0.1; 1e300 ];
        map Int64.float_of_bits int64 |> map (fun f -> if Float.is_finite f then f else 1.5)
      ]
  in
  let str_v =
    oneof
      [ oneofl [ ""; "nul\000byte"; "new\nline"; "q\"uo'te"; "caf\xc3\xa9"; "\xff\xfe"; "a b" ];
        string_size (int_range 0 12)
      ]
  in
  let name = oneofl [ "a"; "f"; "g"; "edge"; "[]"; "."; "with space"; "caf\xc3\xa9" ] in
  let leaf =
    oneof
      [ map Coral.Term.int int_v;
        map Coral.Term.big big_v;
        map Coral.Term.double double_v;
        map Coral.Term.str str_v;
        map Coral.Term.atom name
      ]
  in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [ leaf;
               map2
                 (fun f args -> Coral.Term.app (Coral.Symbol.intern f) (Array.of_list args))
                 name
                 (list_size (int_range 1 3) (self (n - 1)));
               map Coral.Term.list_of (list_size (int_range 0 3) (self (n - 1)));
               map2
                 (fun items tail -> List.fold_right Coral.Term.cons items tail)
                 (list_size (int_range 1 3) (self (n - 1)))
                 leaf
             ])

let gen_batch_of n =
  QCheck2.Gen.(
    list_size (int_range 0 n)
      (pair (oneofl [ "path"; "p"; "r" ])
         (map (fun ts -> Coral.Tuple.of_terms (Array.of_list ts)) (list_size (int_range 0 4) gen_term))))

let gen_batch = gen_batch_of 6

let print_batch pairs =
  String.concat " "
    (List.map (fun (n, t) -> n ^ Coral.Tuple.to_string t) pairs)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"delta codec: decode (encode t) = t, owner included" ~count:300
    ~print:print_batch gen_batch (fun pairs ->
      match Delta_codec.decode (encode pairs) with
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
      | Ok got ->
        List.length got = List.length pairs
        && List.for_all2
             (fun (n, t) (n', t') ->
               n = n' && same_tuple t t'
               && List.for_all
                    (fun (shards, key) ->
                      let p = Partition.create ~shards ~key in
                      Partition.owner p t = Partition.owner p t')
                    [ 2, 0; 2, 1; 4, 0; 4, 1; 3, 2 ])
             pairs got)

(* Malformed input is an Error, never an exception: every strict
   prefix of a batch (the count up front makes a cut batch detectable
   at every byte), and every single-byte corruption. *)
let prop_codec_malformed =
  QCheck2.Test.make ~name:"delta codec: truncated or corrupt batches are errors" ~count:60
    ~print:print_batch (gen_batch_of 2) (fun pairs ->
      let batch = encode pairs in
      let n = String.length batch in
      let total s = match Delta_codec.decode s with Ok _ | Error _ -> true in
      List.for_all
        (fun k ->
          (match Delta_codec.decode (String.sub batch 0 k) with
          | Error _ -> true
          | Ok _ -> QCheck2.Test.fail_reportf "prefix of %d/%d bytes decoded" k n)
          && List.for_all
               (fun c ->
                 let b = Bytes.of_string batch in
                 Bytes.set b k c;
                 total (Bytes.to_string b))
               [ '\xff'; 'f'; Char.chr ((Char.code batch.[k] + 1) land 255) ])
        (List.init n Fun.id))

let test_codec_malformed_cases () =
  let int64 i =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int i);
    Bytes.to_string b
  in
  let str s = int64 (String.length s) ^ s in
  let one_tuple body = int64 1 ^ str "p" ^ body in
  List.iter
    (fun (what, text) ->
      match Delta_codec.decode text with
      | Ok _ -> Alcotest.failf "%s decoded" what
      | Error _ -> ()
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [ "short count", "\001\000";
      "negative count", int64 (-1);
      "count beyond the tuples", int64 2 ^ str "p" ^ int64 0;
      "trailing bytes", int64 0 ^ "x";
      "negative name length", int64 1 ^ int64 (-5);
      "oversized name length", int64 1 ^ int64 max_int ^ "p";
      "negative arity", one_tuple (int64 (-1));
      "oversized arity", one_tuple (int64 1_000_000 ^ "i");
      "bad tag", one_tuple (int64 1 ^ "z" ^ int64 0);
      "int past 63 bits", one_tuple (int64 1 ^ "i" ^ "\255\255\255\255\255\255\255\127");
      "truncated double", one_tuple (int64 1 ^ "d\000\000");
      "nan double", one_tuple (int64 1 ^ "d" ^ "\000\000\000\000\000\000\248\127");
      "bad bignum digits", one_tuple (int64 1 ^ "b" ^ str "12x4");
      "empty bignum", one_tuple (int64 1 ^ "b" ^ str "");
      "negative functor arity", one_tuple (int64 1 ^ "f" ^ str "g" ^ int64 (-2));
      "negative string length", one_tuple (int64 1 ^ "s" ^ int64 (-3))
    ];
  (* and the well-formed neighbour of those cases does decode *)
  match Delta_codec.decode (one_tuple (int64 2 ^ "i" ^ int64 7 ^ "s" ^ str "x y")) with
  | Ok [ ("p", t) ] ->
    Alcotest.(check bool) "hand-built batch" true
      (same_tuple t (Coral.Tuple.of_terms [| Coral.Term.int 7; Coral.Term.str "x y" |]))
  | _ -> Alcotest.fail "hand-built batch did not decode"

let test_exchange_unit () =
  let x = Exchange.create () in
  let item i = { Exchange.pred = "path"; arity = 2; tuple = tuple_of [ i; i + 1 ] } in
  Alcotest.(check int) "remote batch size" 2 (Exchange.add_remote x ~round:1 [ item 1; item 2 ]);
  (* received is counted pre-dedup: the duplicate still counts *)
  Alcotest.(check int) "duplicate still counted" 1 (Exchange.add_remote x ~round:1 [ item 1 ]);
  (* a fast peer's next-round batch, landed before this step began *)
  ignore (Exchange.add_remote x ~round:2 [ item 9 ]);
  let items, received = Exchange.take x ~before:2 in
  Alcotest.(check int) "pre-dedup received" 3 received;
  Alcotest.(check int) "earlier rounds' batches, in arrival order" 3 (List.length items);
  let items, received = Exchange.take x ~before:2 in
  Alcotest.(check (pair int int)) "take empties what it took" (0, 0) (List.length items, received);
  let items, received = Exchange.take x ~before:3 in
  Alcotest.(check (pair int int)) "the later batch waits for its own step" (1, 1)
    (List.length items, received);
  ignore (Exchange.add_remote x ~round:3 [ item 5 ]);
  let tuples, batches = Exchange.totals x in
  Alcotest.(check (pair int int)) "running totals" (5, 4) (tuples, batches);
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
    Alcotest.(check bool) "recursive rule is Linear" true (List.mem Plan.Linear classes)
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

let request ?payload c line =
  output_string c.oc line;
  output_char c.oc '\n';
  Option.iter (output_string c.oc) payload;
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
      ~commit:(Session.commit store)
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

let start_cluster ?insert_committed ~shards ~key () =
  let workers = List.init shards (fun _ -> start_worker ()) in
  let rpath = sock_path () in
  let router =
    Router.start ?insert_committed ~listen:(`Unix rpath) ~shard_addrs:(List.map fst workers)
      ~key (Coral.create ())
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

(* Every other kind of value on the binary wire: strings with spaces,
   quotes, a backslash, a tab and non-ASCII bytes; bignums past 63
   bits of either sign; functor terms; and lists with and without a
   tail — as node names of a cyclic closure, so each value is shipped
   between shards and must still join, and own the same shard, on
   arrival. *)
let vpath_program =
  "module m_vpath.\n\
   export vpath(bf).\n\
   export vpath(ff).\n\
   vpath(X, Y) :- vedge(X, Y).\n\
   vpath(X, Y) :- vpath(X, Z), vedge(Z, Y).\n\
   end_module.\n"

let value_kinds_edges =
  {|vedge("a b", "say \"hi\"").
vedge("say \"hi\"", 123456789012345678901234567890).
vedge(123456789012345678901234567890, f(1, "x y")).
vedge(f(1, "x y"), [1, 2, 3]).
vedge([1, 2, 3], [a | b]).
vedge([a | b], g([h(1)], -98765432109876543210)).
vedge(g([h(1)], -98765432109876543210), "a b").
vedge(f(1, "x y"), "tab\there").
vedge("tab\there", [f([]), "back \\ slash" | tl]).
vedge([f([]), "back \\ slash" | tl], "caf|} ^ "\xc3\xa9" ^ {|").
vedge("caf|} ^ "\xc3\xa9" ^ {|", 7).
vedge(7, "a b").
|}

let test_differential_value_kinds () =
  let texts = [ vpath_program; value_kinds_edges ] in
  let queries = [ "vpath(X, Y)"; {|vpath("a b", Y)|}; {|vpath(f(1, "x y"), Y)|} ] in
  let expected = reference texts queries in
  Alcotest.(check bool) "value-kinds closure is non-trivial" true
    (List.length (List.assoc "vpath(X, Y)" expected) > 100);
  List.iter
    (fun (shards, key) -> check_differential ~shards ~key texts queries expected)
    [ 1, 0; 2, 1; 4, 1; 4, 0 ]

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

(* One numeric row of a [stats] reply. *)
let stat_int c name =
  let lines, _ = request c "stats" in
  let prefix = "txt " ^ name ^ "=" in
  match
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          int_of_string_opt (String.sub l (String.length prefix) (String.length l - String.length prefix))
        else None)
      lines
  with
  | Some n -> n
  | None -> Alcotest.failf "no %s stat" name

(* An insert of base facts into a materialized cluster is one more
   delta: the next distributed query ships it to the workers and runs
   a short fixpoint from it, without reprovisioning. *)
let test_insert_ships_delta () =
  let texts = [ tc_program; "edge(1, 2).\nedge(2, 3).\n" ] in
  Coral_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Coral_obs.Obs.set_enabled false) @@ fun () ->
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  Alcotest.(check int) "closure of the chain" 3 (List.length (answers c "path(X, Y)"));
  let runs = stat_int c "router.fixpoint.runs"
  and resyncs = stat_int c "router.resyncs"
  and deltas = stat_int c "router.delta_syncs" in
  let _, status = request c "insert edge(3, 4)." in
  check_prefix "insert" "ok inserted 1" status;
  Alcotest.(check int) "the insert is queued" 1 (stat_int c "router.pending_facts");
  Alcotest.(check int) "and leaves the cluster clean" 0 (stat_int c "router.dirty");
  Alcotest.(check int) "closure after insert" 6 (List.length (answers c "path(X, Y)"));
  Alcotest.(check int) "the insert ran one more fixpoint" (runs + 1)
    (stat_int c "router.fixpoint.runs");
  Alcotest.(check int) "as a delta sync" (deltas + 1) (stat_int c "router.delta_syncs");
  Alcotest.(check int) "without reprovisioning" resyncs (stat_int c "router.resyncs");
  (* round 1 joins the new edge, round 2 absorbs what it shipped, and
     the quiescent round 3 only publishes *)
  Alcotest.(check bool) "in at most three rounds" true (stat_int c "router.fixpoint.rounds" <= 3);
  Alcotest.(check int) "the queue is drained" 0 (stat_int c "router.pending_facts");
  (* a fact no batch can carry (an infinite double) fails the sync
     loudly rather than reach a worker changed; retracting it heals *)
  check_prefix "insert inf" "ok inserted 1" (snd (request c "insert edge(4, 1.0e999)."));
  check_prefix "unencodable delta" "err CLUSTER" (snd (request c "query path(X, Y)"));
  Alcotest.(check int) "the cluster is left dirty" 1 (stat_int c "router.dirty");
  check_prefix "retract inf" "ok retracted 1" (snd (request c "retract edge(4, 1.0e999)."));
  Alcotest.(check int) "healed by the next resync" 6 (List.length (answers c "path(X, Y)"));
  ignore (request c "quit");
  close_client c

(* Mixed update sequences through 2- and 4-shard routers, checked
   against a single node after every step.  A step is some updates and
   then reads; [`Delta] says its inserts must reach the workers as one
   delta sync with no reprovision, [`Resync] that the step dirtied the
   cluster and the read reprovisioned it.  The program negates a base
   predicate, so an insert into it must take the fallback. *)
let neg_tc_program =
  "module m_path.\n\
   export path(bf).\n\
   export path(ff).\n\
   path(X, Y) :- edge(X, Y), not blocked(X).\n\
   path(X, Y) :- path(X, Z), edge(Z, Y).\n\
   end_module.\n"

let update_steps seed =
  let rand = lcg seed in
  let node () = 1 + rand 14 in
  let edge () = Printf.sprintf "edge(%d, %d)." (node ()) (node ()) in
  let e1 = edge () and e2 = edge () and e3 = edge () and e4 = edge () in
  [ (* several inserts, then one read *)
    [ "insert " ^ e1; "insert " ^ e2 ^ " " ^ e3; "insert " ^ edge () ], `Delta;
    (* insert then retract *)
    [ "insert " ^ e4; "retract " ^ e4 ], `Resync;
    (* duplicates, within one insert and of stored facts *)
    [ "insert " ^ e1 ^ " " ^ e1; "insert " ^ e2 ], `Delta;
    (* a predicate no rule reads *)
    [ Printf.sprintf "insert note(%d, \"n\")." (node ()) ], `Delta;
    (* a derived predicate seeded with a fact *)
    [ Printf.sprintf "insert path(%d, %d)." (node ()) (20 + rand 5) ], `Resync;
    (* a base predicate read under negation *)
    [ Printf.sprintf "insert blocked(%d)." (node ()) ], `Resync;
    [ "insert " ^ edge (); "retract " ^ e1 ], `Resync;
    [ "insert " ^ edge () ^ " " ^ edge () ], `Delta
  ]

let step_reads = [ "path(X, Y)"; "path(1, Y)"; "note(X, Y)" ]

(* Consult, read once, then run the steps; each step's update replies
   and read answers, plus the [check] made after its updates and after
   its reads. *)
let run_update_steps c texts steps ~check =
  consult_all c texts;
  ignore (answers c "path(X, Y)");
  List.map
    (fun (updates, expect) ->
      let statuses = List.map (fun u -> snd (request c u)) updates in
      let after_updates = check `Updates expect in
      let rows = List.concat_map (answers c) step_reads in
      after_updates ();
      statuses @ rows)
    steps

let test_update_differential () =
  Coral_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Coral_obs.Obs.set_enabled false) @@ fun () ->
  List.iter
    (fun seed ->
      let texts = [ neg_tc_program; tc_edges ~nodes:12 ~extra:5 seed ^ "blocked(3).\n" ] in
      let steps = update_steps seed in
      let path = sock_path () in
      let srv = Server.start ~listen:(`Unix path) (Coral.create ()) in
      let want =
        Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
        let c = connect_unix path in
        let out = run_update_steps c texts steps ~check:(fun _ _ () -> ()) in
        ignore (request c "quit");
        close_client c;
        out
      in
      List.iter
        (fun (shards, key) ->
          let cl = start_cluster ~shards ~key () in
          Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
          let c = connect_unix cl.router_path in
          let what i = Printf.sprintf "seed %d, %d shards, key %d, step %d" seed shards key i in
          let step = ref 0 in
          let check `Updates expect =
            incr step;
            let i = !step in
            let resyncs = stat_int c "router.resyncs"
            and deltas = stat_int c "router.delta_syncs" in
            Alcotest.(check int) (what i ^ ": dirty after the updates")
              (if expect = `Delta then 0 else 1)
              (stat_int c "router.dirty");
            fun () ->
              let moved name before = stat_int c name - before in
              Alcotest.(check (pair int int))
                (what i ^ ": (resyncs, delta syncs) on the reads")
                (if expect = `Delta then 0, 1 else 1, 0)
                (moved "router.resyncs" resyncs, moved "router.delta_syncs" deltas)
          in
          let got = run_update_steps c texts steps ~check in
          List.iteri
            (fun i (w, g) ->
              Alcotest.(check (list string)) (what (i + 1) ^ ": same as a single node") w g)
            (List.combine want got);
          ignore (request c "quit");
          close_client c)
        [ 2, 1; 4, 1; 4, 0 ])
    [ 3; 8; 21 ]

(* An insert that has committed but not yet told the router about it,
   while a retract of the same fact commits and a read reprovisions the
   cluster without it: when the insert finally reports, queuing its
   fact would bring it back to the workers.  The router sees the
   cluster moved on since the commit and dirties it instead, so the
   next read matches a single node. *)
let test_insert_races_retract () =
  let texts = [ tc_program; "edge(1, 2).\nedge(2, 3).\n" ] in
  let queries = [ "path(X, Y)"; "path(1, Y)" ] in
  let expected = reference texts queries in
  let m = Mutex.create () and cv = Condition.create () in
  let armed = ref false and committed = ref false and released = ref false in
  let set flag =
    Mutex.lock m;
    flag := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let wait_for flag =
    Mutex.lock m;
    while not !flag do Condition.wait cv m done;
    Mutex.unlock m
  in
  (* the first insert after arming parks between its commit and the
     router's decision until released *)
  let insert_committed () =
    Mutex.lock m;
    let park = !armed in
    armed := false;
    Mutex.unlock m;
    if park then begin
      set committed;
      wait_for released
    end
  in
  Coral_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Coral_obs.Obs.set_enabled false) @@ fun () ->
  let cl = start_cluster ~insert_committed ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  Alcotest.(check int) "closure of the chain" 3 (List.length (answers c "path(X, Y)"));
  set armed;
  let c1 = connect_unix cl.router_path in
  let status = ref "" in
  let inserter = Thread.create (fun () -> status := snd (request c1 "insert edge(3, 4).")) () in
  wait_for committed;
  check_prefix "retract" "ok retracted 1" (snd (request c "retract edge(3, 4)."));
  Alcotest.(check int) "the read in between reprovisions without the fact" 3
    (List.length (answers c "path(X, Y)"));
  let resyncs = stat_int c "router.resyncs" in
  set released;
  Thread.join inserter;
  check_prefix "insert" "ok inserted 1" !status;
  let dirty = stat_int c "router.dirty" and queued = stat_int c "router.pending_facts" in
  List.iter
    (fun (q, want) -> Alcotest.(check (list string)) (q ^ ": same as a single node") want (answers c q))
    expected;
  Alcotest.(check int) "the late insert dirtied the cluster" 1 dirty;
  Alcotest.(check int) "and queued nothing" 0 queued;
  Alcotest.(check int) "the read resynced" (resyncs + 1) (stat_int c "router.resyncs");
  List.iter
    (fun c ->
      ignore (request c "quit");
      close_client c)
    [ c; c1 ]

(* The conservation check: the tuples absorbed at step r must equal
   the tuples shipped into round r.  A seed batch the count does not
   name (one extra) or a count with no batch behind it (one missing)
   fails the run with the imbalance error rather than a silently wrong
   closure. *)
let test_conservation_tripwire () =
  let workers = List.init 2 (fun _ -> start_worker ()) in
  Fun.protect ~finally:(fun () -> List.iter (fun (_, srv) -> Server.shutdown srv) workers)
  @@ fun () ->
  let run ~batches ~seeded =
    let coord = Coordinator.create ~addrs:(List.map fst workers) ~key:1 () in
    Fun.protect ~finally:(fun () -> Coordinator.disconnect coord) @@ fun () ->
    let ( >>= ) = Result.bind in
    let seed = tuple_of [ 1; 9 ] in
    let shard = Partition.owner (Coordinator.partition coord) seed in
    Coordinator.configure coord >>= fun () ->
    Coordinator.reset coord >>= fun () ->
    Coordinator.send_program coord
      "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n"
    >>= fun () ->
    Coordinator.send_edb_batch coord (encode (facts_of (tc_edges ~nodes:8 ~extra:3 5)))
    >>= fun () ->
    List.fold_left
      (fun r () -> r >>= fun () -> Coordinator.send_delta coord ~shard (encode [ "path", seed ]))
      (Ok ()) (List.init batches ignore)
    >>= fun () -> Coordinator.run_fixpoint ~seeded coord
  in
  (match run ~batches:1 ~seeded:1 with
  | Ok stats -> Alcotest.(check bool) "a balanced run completes" true (stats.Coordinator.rounds >= 2)
  | Error (_, m) -> Alcotest.fail m);
  List.iter
    (fun (what, batches, seeded) ->
      match run ~batches ~seeded with
      | Ok _ -> Alcotest.failf "%s: the fixpoint ran to the end" what
      | Error (code, msg) ->
        Alcotest.(check string) (what ^ ": code") "CLUSTER" (Protocol.code_string code);
        check_prefix what "delta accounting imbalance in round 2" msg)
    [ "an extra batch", 2, 1; "a missing batch", 1, 2 ]

(* A worker slowed by the fault seam starts every step late, so its
   faster peer's batch for round r+1 lands before it has absorbed the
   batches of round r.  Batches carry their round, so each is absorbed
   at its own step: the conservation check holds every round and the
   answers match a single node. *)
let test_slow_worker_early_batches () =
  let texts = [ tc_program; tc_edges ~nodes:14 ~extra:8 11 ] in
  let expected = reference texts [ "path(X, Y)"; "path(2, Y)" ] in
  let p0, s0, _ = start_worker_h () in
  let p1, s1, slow = start_worker_h () in
  Worker.set_fault_step_delay slow 0.02;
  let rpath = sock_path () in
  let router =
    Router.start ~listen:(`Unix rpath) ~shard_addrs:[ p0; p1 ] ~key:1 (Coral.create ())
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      Server.shutdown s0;
      Server.shutdown s1)
  @@ fun () ->
  let c = connect_unix rpath in
  consult_all c texts;
  List.iter
    (fun (q, want) ->
      Alcotest.(check (list string)) (q ^ ": same as a single node") want (answers c q))
    expected;
  Alcotest.(check bool) "the fixpoint took several rounds" true
    (stat_int c "router.fixpoint.rounds" >= 3);
  ignore (request c "quit");
  close_client c

(* One session flaps a chord, reading after each update, while a second
   reads in a loop.  The flapper's reads sync the cluster while the
   other session's fan-outs run: every answer must be the closure
   before or after a flap, never a mix of a half-synced cluster. *)
let test_reads_never_mix_states () =
  let edges = tc_edges ~nodes:10 ~extra:4 17 in
  let chord = "edge(10, 1)." in
  let closure texts = List.assoc "path(X, Y)" (reference texts [ "path(X, Y)" ]) in
  let without = closure [ tc_program; edges ] in
  let with_chord = closure [ tc_program; edges ^ chord ^ "\n" ] in
  Alcotest.(check bool) "the chord changes the closure" false (without = with_chord);
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; edges ];
  let read c =
    let lines, status = request c "query path(X, Y)" in
    status, List.sort compare (List.filter (String.starts_with ~prefix:"ans ") lines)
  in
  let stop = Atomic.make false and mixed = Atomic.make 0 and reads = Atomic.make 0 in
  let reader =
    Thread.create
      (fun () ->
        let r = connect_unix cl.router_path in
        while not (Atomic.get stop) do
          let status, got = read r in
          Atomic.incr reads;
          if (not (String.starts_with ~prefix:"ok" status)) || (got <> without && got <> with_chord)
          then Atomic.incr mixed
        done;
        ignore (request r "quit");
        close_client r)
      ()
  in
  for i = 1 to 15 do
    check_prefix "insert" "ok inserted 1" (snd (request c ("insert " ^ chord)));
    Alcotest.(check (list string)) (Printf.sprintf "flap %d: after the insert" i) with_chord
      (snd (read c));
    check_prefix "retract" "ok retracted 1" (snd (request c ("retract " ^ chord)));
    Alcotest.(check (list string)) (Printf.sprintf "flap %d: after the retract" i) without
      (snd (read c))
  done;
  Atomic.set stop true;
  Thread.join reader;
  Alcotest.(check bool) "the second session read" true (Atomic.get reads > 0);
  Alcotest.(check int) "reads of a closure no state had" 0 (Atomic.get mixed);
  ignore (request c "quit");
  close_client c

(* A rule constant holding CR, NUL and non-ASCII bytes reaches the
   workers inside the shipped program text ([dprog#]) and comes back in
   every answer byte for byte as a single node gives it. *)
let test_string_constants_in_transit () =
  let program =
    "module m_tag.\nexport tagged(ff).\n\
     tagged(X, \"k\r\000\xc3\xa9\") :- edge(X, Y).\n\
     tagged(Y, S) :- tagged(X, S), edge(X, Y).\nend_module.\n"
  in
  let run path =
    let c = connect_unix path in
    List.iter
      (fun text ->
        check_prefix "consult#" "ok"
          (snd (request ~payload:text c (Printf.sprintf "consult# %d" (String.length text)))))
      [ program; tc_edges ~nodes:6 ~extra:2 3 ];
    let lines, status = request c "query tagged(X, Y)" in
    ignore (request c "quit");
    close_client c;
    status, List.sort compare lines
  in
  let spath = sock_path () in
  let srv = Server.start ~listen:(`Unix spath) (Coral.create ()) in
  let _, want = Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> run spath) in
  Alcotest.(check bool) "the single node holds the bytes" true
    (List.mem "ans X = 2, Y = \"k\\r\\000\\195\\169\"" want);
  let cl = start_cluster ~shards:2 ~key:0 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let status, got = run cl.router_path in
  check_prefix "fanned out" "ok" status;
  Alcotest.(check bool) "the query fanned out" true (String.ends_with ~suffix:"shards=2" status);
  Alcotest.(check (list string)) "same answers as a single node" want got

(* A worker refuses an [edb#] batch it cannot take — before it has a
   program, truncated, or holding a fact of a derived predicate — and
   stores none of it.  Before the closure is built a good batch loads
   the replica; after a fixpoint it seeds the next fixpoint's round 1,
   which joins it alone. *)
let test_edb_refused () =
  let path, srv = start_worker () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect_unix path in
  let edb pairs =
    let payload = encode pairs in
    snd (request ~payload c (Printf.sprintf "edb# %d" (String.length payload)))
  in
  let edges () = answers c "edge(X, Y)" in
  let fixpoint () =
    List.iter
      (fun step -> check_prefix step "ok" (snd (request c step)))
      [ "barrier step 1"; "barrier step 2 final" ]
  in
  let _, status = request c "consult edge(1, 2)." in
  check_prefix "consult" "ok" status;
  let stored = edges () in
  check_prefix "edb# before dprog#" "err CLUSTER" (edb [ "edge", tuple_of [ 5; 6 ] ]);
  Alcotest.(check (list string)) "nothing stored before dprog#" stored (edges ());
  check_prefix "shard" "ok" (snd (request c (Printf.sprintf "shard 0 1 0 %s" path)));
  let prog = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n" in
  check_prefix "dprog#" "ok"
    (snd (request ~payload:prog c (Printf.sprintf "dprog# %d" (String.length prog))));
  let good = encode [ "edge", tuple_of [ 7; 8 ] ] in
  let cut = String.sub good 0 (String.length good - 1) in
  check_prefix "truncated edb#" "err PROTO"
    (snd (request ~payload:cut c (Printf.sprintf "edb# %d" (String.length cut))));
  check_prefix "edb# with a derived fact" "err CLUSTER"
    (edb [ "edge", tuple_of [ 7; 8 ]; "path", tuple_of [ 1; 9 ] ]);
  Alcotest.(check (list string)) "refused batches store nothing" stored (edges ());
  fixpoint ();
  check_prefix "edb# with a derived fact after the fixpoint" "err CLUSTER"
    (edb [ "edge", tuple_of [ 7; 8 ]; "path", tuple_of [ 1; 9 ] ]);
  (* stored behind the kernel's back: no delta joins it *)
  check_prefix "consult" "ok" (snd (request c "consult edge(5, 6)."));
  check_prefix "edb#" "ok received=2 new=1" (edb [ "edge", tuple_of [ 2; 3 ]; "edge", tuple_of [ 1; 2 ] ]);
  fixpoint ();
  (* the final step publishes the batch with the closure it grew *)
  Alcotest.(check int) "the good batch is stored" 3 (List.length (edges ()));
  (* round 1 joined only the new edge: path(5, 6) was never derived *)
  Alcotest.(check (list string)) "round 1 ran from the batch alone"
    [ "ans X = 1, Y = 2"; "ans X = 1, Y = 3"; "ans X = 2, Y = 3" ]
    (answers c "path(X, Y)");
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
    [ "dreset"; "shard 0 2 0 a.sock b.sock"; "barrier step 1"; "barrier step 2 final" ];
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
    (List.mem "txt router.dirty=1" lines);
  (* a replacement worker on the same address heals the cluster *)
  let db = Coral.create () in
  let srv2 = Server.start ~listen:(`Unix victim_path) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv2) @@ fun () ->
  let store = Server.store srv2 in
  let worker =
    Worker.create ~eng:(Coral.engine db)
      ~commit:(Session.commit store)
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

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Wait (up to 5 s) for the fd count to come back under [limit]: the
   workers close their ends of a finished fan-out's connections on
   their own connection threads, a moment after the reply. *)
let fds_settle limit =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let n = open_fds () in
    if n <= limit || Unix.gettimeofday () > deadline then n
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* Every fan-out opens a connection per shard and a wake pipe; all of
   them must be closed again, query after query. *)
let test_fanout_fds_flat () =
  if Sys.file_exists "/proc/self/fd" then begin
    let cl = start_cluster ~shards:2 ~key:1 () in
    Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
    let c = connect_unix cl.router_path in
    consult_all c [ tc_program; tc_edges ~nodes:8 ~extra:3 5 ];
    let want = answers c "path(1, Y)" in
    Thread.delay 0.05;
    let before = open_fds () in
    for i = 1 to 200 do
      let lines, status = request c "query path(1, Y)" in
      (* the ok detail names the shard count only on a fan-out *)
      if not (String.ends_with ~suffix:"shards=2" status) then
        Alcotest.failf "query %d did not fan out: %s" i status;
      let got = List.sort compare (List.filter (String.starts_with ~prefix:"ans ") lines) in
      if got <> want then Alcotest.failf "query %d answered differently" i
    done;
    let after = fds_settle (before + 4) in
    Alcotest.(check bool)
      (Printf.sprintf "open fds flat over 200 fan-outs (%d before, %d after)" before after)
      true
      (after <= before + 4);
    ignore (request c "quit");
    close_client c
  end

(* A fan-out stuck on a worker that accepts but never answers is
   killed within about one wake tick, and its abandoned shard thread
   closes the wake pipe once the worker finally lets go. *)
let test_fanout_kill_wedged () =
  let cl = start_cluster ~shards:2 ~key:1 () in
  let wedged_path, wedged_srv = List.nth cl.workers 1 in
  let wedge = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wedge_open = ref true in
  let close_wedge () =
    if !wedge_open then begin
      wedge_open := false;
      Unix.close wedge
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_wedge ();
      stop_cluster cl)
  @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; tc_edges ~nodes:8 ~extra:3 5 ];
  ignore (answers c "path(X, Y)");
  (* the cluster is clean: replace worker 1 by a listener that never
     accepts, so the next fan-out's connection to it hangs *)
  Server.shutdown wedged_srv;
  Unix.bind wedge (Unix.ADDR_UNIX wedged_path);
  Unix.listen wedge 8;
  let op = connect_unix cl.router_path in
  let fds0 = open_fds () in
  output_string c.oc "query path(X, Y)\n";
  flush c.oc;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec find_id () =
    if Unix.gettimeofday () > deadline then Alcotest.fail "fan-out never showed in ps";
    let lines, _ = request op "ps" in
    let id =
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"txt id=" l
             && List.mem "kind=dist" (String.split_on_char ' ' l)
          then
            Scanf.sscanf_opt l "txt id=%d " Fun.id
          else None)
        lines
    in
    match id with
    | Some id -> id
    | None ->
      Thread.delay 0.01;
      find_id ()
  in
  let id = find_id () in
  let t0 = Unix.gettimeofday () in
  let _, status = request op (Printf.sprintf "kill %d" id) in
  check_prefix "kill acknowledged" "ok" status;
  let rec read_status () =
    match In_channel.input_line c.ic with
    | None -> Alcotest.fail "router closed the connection instead of replying"
    | Some l when Protocol.is_status l -> l
    | Some _ -> read_status ()
  in
  let status = read_status () in
  let dt = Unix.gettimeofday () -. t0 in
  check_prefix "killed fan-out" "err KILLED" status;
  Alcotest.(check bool) (Printf.sprintf "answered within about one tick (%.3fs)" dt) true
    (dt < 0.5);
  let _, status = request c "ping" in
  check_prefix "session survives" "ok pong" status;
  (* unwedge: the abandoned thread's connection is reset, it finishes,
     and as the last one out it closes the wake pipe *)
  close_wedge ();
  let after = fds_settle fds0 in
  Alcotest.(check bool)
    (Printf.sprintf "abandoned fan-out released its fds (%d before, %d after)" fds0 after)
    true (after <= fds0);
  List.iter
    (fun cl ->
      ignore (request cl "quit");
      close_client cl)
    [ c; op ]

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

(* Each worker times its own batch encode and decode under
   phase.codec, apart from its step joins.  The workers here are real
   coral_server processes, so each shard's federated count is that
   worker's alone (in-process workers would share one registry). *)
let test_codec_timed_per_worker () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/coral_server.exe" in
  let socks = [ sock_path (); sock_path () ] in
  let pids =
    List.map
      (fun s ->
        Unix.create_process exe [| exe; "--worker"; "--socket"; s; "--quiet" |] Unix.stdin
          Unix.stdout Unix.stderr)
      socks
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        pids)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  List.iter
    (fun s ->
      while not (Sys.file_exists s) do
        if Unix.gettimeofday () > deadline then Alcotest.failf "worker %s never listened" s;
        Thread.delay 0.02
      done)
    socks;
  let rpath = sock_path () in
  let router = Router.start ~listen:(`Unix rpath) ~shard_addrs:socks ~key:1 (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Router.shutdown router) @@ fun () ->
  let c = connect_unix rpath in
  consult_all c [ tc_program; tc_edges ~nodes:12 ~extra:6 7 ];
  Alcotest.(check bool) "closure answered" true (List.length (answers c "path(X, Y)") > 20);
  let lines, status = request c "metrics" in
  check_prefix "metrics" "ok" status;
  List.iteri
    (fun i _ ->
      let prefix = Printf.sprintf "txt coral_shard_phase_codec_count{shard=\"%d\"} " i in
      Alcotest.(check bool)
        (Printf.sprintf "worker %d recorded phase.codec" i)
        true
        (List.exists
           (fun l ->
             String.starts_with ~prefix l
             && int_of_string (String.sub l (String.length prefix) (String.length l - String.length prefix))
                > 0)
           lines))
    socks;
  ignore (request c "quit");
  close_client c

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

(* The router times each query it fans out in the histograms
   [Session.handle] fills for the queries it serves, and a query it
   answers from its replica only once.  In-process the workers share
   the histograms: a fan-out over two shards counts three queries, each
   worker's and the router's. *)
let test_router_times_fanouts () =
  with_obs @@ fun () ->
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; "edge(1, 2).\nedge(2, 3).\n" ];
  ignore (answers c "path(X, Y)");
  let count () = Coral_obs.Obs.Histogram.count (Coral_obs.Obs.histogram "server.query_seconds") in
  let n0 = count () in
  ignore (answers c "path(X, Y)");
  Alcotest.(check int) "a fan-out: two workers and the router" (n0 + 3) (count ());
  let n1 = count () in
  ignore (answers c "edge(X, Y)");
  Alcotest.(check int) "a replica query: once" (n1 + 1) (count ());
  ignore (request c "quit");
  close_client c

(* The router's [stats] and its scrape render one sample table (the
   store's rows plus the router's own): the same names, with the
   federated [coral_shard_*] section set aside. *)
let test_router_stats_metrics_parity () =
  with_obs @@ fun () ->
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; "edge(1, 2).\nedge(2, 3).\nedge(3, 4).\n" ];
  ignore (answers c "path(X, Y)");
  let stats, status = request c "stats" in
  check_prefix "stats" "ok" status;
  Alcotest.(check bool) "fixpoint rows present" true
    (List.mem "txt router.dirty=0" stats
    && List.exists (String.starts_with ~prefix:"txt router.fixpoint.wall_seconds=") stats);
  List.iter
    (fun row ->
      Alcotest.(check bool) (row ^ " row present") true
        (List.exists (String.starts_with ~prefix:("txt " ^ row ^ "=")) stats))
    [ "router.delta_syncs";
      "router.pending_facts";
      "router.provision_seconds_total";
      "router.delta_sync_seconds_total";
      "router.relay_seconds_total"
    ];
  let strip l = if String.starts_with ~prefix:"txt " l then String.sub l 4 (String.length l - 4) else l in
  let metrics = String.split_on_char '\n' (Router.metrics_text cl.router) in
  Parity.check ~what:"router"
    ~drop:(String.starts_with ~prefix:"coral_shard_")
    ~stats:(List.map strip stats) ~metrics ();
  Parity.check_rows ~what:"router" ~stats:(List.map strip stats) ~metrics
    [ "server.eval_minor_words" ];
  ignore (request c "quit");
  close_client c

(* The router runs on the server's connection layer, so its session cap
   sheds like a server's: one BUSY line, counted, logged. *)
let test_router_connection_cap () =
  let rpath = sock_path () in
  let limits = { Admission.default with Admission.max_sessions = 1 } in
  let router =
    Router.start ~limits ~listen:(`Unix rpath) ~shard_addrs:[] ~key:0 (Coral.create ())
  in
  Fun.protect ~finally:(fun () -> Router.shutdown router) @@ fun () ->
  let c1 = connect_unix rpath in
  let _, status = request c1 "ping" in
  check_prefix "first connection" "ok pong" status;
  let events_before = Coral_obs.Query_log.Events.total () in
  let c2 = connect_unix rpath in
  (match In_channel.input_line c2.ic with
  | Some line -> check_prefix "second connection shed" "err BUSY" line
  | None -> Alcotest.fail "shed connection got no BUSY line");
  close_client c2;
  let stats, _ = request c1 "stats" in
  Alcotest.(check bool) "admission.shed counted" true (List.mem "txt admission.shed=1" stats);
  let fresh =
    Coral_obs.Query_log.Events.recent (Coral_obs.Query_log.Events.total () - events_before)
  in
  let field name j =
    match Coral_obs.Json.member name j with Some (Coral_obs.Json.Str v) -> v | _ -> ""
  in
  Alcotest.(check bool) "shed event with scope=connection" true
    (List.exists
       (fun l ->
         match Coral_obs.Json.parse l with
         | Ok j -> field "kind" j = "shed" && field "scope" j = "connection"
         | Error _ -> false)
       fresh);
  ignore (request c1 "quit");
  close_client c1

(* The replicated EDB ships as binary [edb#] batches: doubles that
   print like ints or not at all exactly (2.0, 0.1, -0.0), a string
   holding CR and NUL, and a non-ground fact (read by a rule whose
   heads are ground) reach every worker with value, type and bits
   intact, so the cluster answers byte-identically
   to a single node — after the first resync, and after a retract
   forces another. *)
let test_resync_edb_values () =
  let program =
    "module m_w.\nexport wpath(ff).\nexport wpath(bf).\n\
     wpath(X, Y) :- wedge(X, Y).\nwpath(X, Y) :- wlabel(X, Y, Z).\n\
     wpath(X, Y) :- wpath(X, Z), wedge(Z, Y).\nend_module.\n"
  in
  let edges =
    "wedge(1, 2.0). wedge(2.0, 0.1). wedge(0.1, -0.0). wedge(-0.0, \"cr\\rnul\\000\").\n\
     wedge(\"cr\\rnul\\000\", 2). wedge(2, 2.0). wedge(0.1, 3). wlabel(3, -0.0, f(X)).\n"
  in
  let queries = [ "wpath(X, Y)"; "wpath(2.0, Y)"; "wpath(-0.0, Y)" ] in
  (* [count] reads the router's resync and fan-out counters *)
  let run ?(count = fun _ -> 0, 0) path =
    let c = connect_unix path in
    consult_all c [ program; edges ];
    let r0, d0 = count c in
    let before = List.map (answers c) queries in
    check_prefix "retract" "ok retracted 1" (snd (request c "retract wedge(2, 2.0)."));
    let after = List.map (answers c) queries in
    let r1, d1 = count c in
    ignore (request c "quit");
    close_client c;
    before, after, (r1 - r0, d1 - d0)
  in
  let spath = sock_path () in
  let srv = Server.start ~listen:(`Unix spath) (Coral.create ()) in
  let w_before, w_after, _ =
    Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> run spath)
  in
  Alcotest.(check bool) "the single node holds the bytes" true
    (List.mem "ans X = -0.0, Y = \"cr\\rnul\\000\"" (List.hd w_before));
  Coral_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Coral_obs.Obs.set_enabled false) @@ fun () ->
  let cl = start_cluster ~shards:2 ~key:0 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let count c = stat_int c "router.resyncs", stat_int c "router.queries.dist" in
  let before, after, moved = run ~count cl.router_path in
  Alcotest.(check (list (list string))) "same answers as a single node" w_before before;
  Alcotest.(check (list (list string))) "and after the retract's resync" w_after after;
  Alcotest.(check (pair int int)) "two resyncs, every read fanned out" (2, 6) moved

(* Doubles print losslessly on a single node and through a cluster
   alike: the router relays the workers' answer lines as they are. *)
let test_doubles_lossless () =
  let program =
    "m(1.0000001). m(2.0). m(2). m(123456789.5).\n\
     module m_mm.\nexport mm(f).\nmm(X) :- m(X).\nend_module.\n"
  in
  let lossless = [ "ans X = 1.0000001"; "ans X = 123456789.5"; "ans X = 2"; "ans X = 2.0" ] in
  let run path =
    let c = connect_unix path in
    consult_all c [ program ];
    let got = answers c "mm(X)" in
    ignore (request c "quit");
    close_client c;
    got
  in
  let spath = sock_path () in
  let srv = Server.start ~listen:(`Unix spath) (Coral.create ()) in
  let single = Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> run spath) in
  Alcotest.(check (list string)) "single node" lossless single;
  let cl = start_cluster ~shards:2 ~key:0 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  Alcotest.(check (list string)) "cluster" lossless (run cl.router_path)

(* A non-ground derived tuple or seed has no owner shard: its
   variables all hash to one bucket, while its ground instances live
   with their owners, and the router would relay both where a single
   node keeps the general tuple alone.  Partitioned on key 1, [p(1, W)]
   is derived from [p(1, v)] by the shard that owns it, and either
   kept there (v's owner is the variable bucket) or shipped; both
   fail the fixpoint with [err CLUSTER] instead of answering
   differently from a single node.  A non-ground consulted fact of [p]
   (a seed) is refused by the resync the same way. *)
let test_nonground_not_partitioned () =
  let program =
    "module m_p.\nexport p(ff).\n\
     p(X, Y) :- a(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).\nend_module.\n"
  in
  let part = Partition.create ~shards:2 ~key:1 in
  let owner v = Partition.owner part (tuple_of [ 1; v ]) in
  let bucket =
    Partition.owner part (Coral.Tuple.of_terms [| Coral.Term.int 1; Coral.Term.var ~name:"W" 0 |])
  in
  let values = List.init 50 (( + ) 2) in
  let mine = List.find (fun v -> owner v = bucket) values in
  let other = List.find (fun v -> owner v <> bucket) values in
  let derived v = Printf.sprintf "a(1, %d). a(1, %d). b(%d, W).\n" mine other v in
  List.iter
    (fun (what, facts) ->
      Alcotest.(check int) (what ^ ": a single node keeps the general tuple alone") 1
        (List.length (List.assoc "p(X, Y)" (reference [ program; facts ] [ "p(X, Y)" ])));
      let cl = start_cluster ~shards:2 ~key:1 () in
      Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
      let c = connect_unix cl.router_path in
      consult_all c [ program; facts ];
      check_prefix what "err CLUSTER" (snd (request c "query p(X, Y)"));
      ignore (request c "quit");
      close_client c)
    [ "a non-ground tuple its deriver owns", derived mine;
      "a non-ground tuple shipped to its owner", derived other;
      "a non-ground seed", Printf.sprintf "a(1, %d). p(1, W).\n" other ]

(* An [edb#] before the closure is built loads the replica, negated
   base predicates included, and the final step publishes it: a resync
   costs a worker three commits.  After a fixpoint the same batch would
   be a delta, and a delta of a negated predicate is refused and stores
   nothing. *)
let test_edb_load_then_delta () =
  let texts = [ neg_tc_program; "edge(1, 2). edge(2, 3). edge(3, 4). blocked(2).\n" ] in
  let expected = reference texts [ "path(X, Y)" ] in
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c texts;
  Alcotest.(check (list string)) "blocked loaded through edb#: same as a single node"
    (List.assoc "path(X, Y)" expected) (answers c "path(X, Y)");
  (* a retract's resync commits each worker three times: dreset,
     dprog#, and the final step, which publishes the loaded EDB with
     its closure *)
  let epochs () =
    List.map (fun (_, srv) -> Session.snapshot_epoch (Server.store srv)) cl.workers
  in
  let before = epochs () in
  check_prefix "retract" "ok retracted 1" (snd (request c "retract edge(3, 4)."));
  Alcotest.(check (list string)) "after the retract's resync: same as a single node"
    (List.assoc "path(X, Y)"
       (reference [ neg_tc_program; "edge(1, 2). edge(2, 3). blocked(2).\n" ] [ "path(X, Y)" ]))
    (answers c "path(X, Y)");
  Alcotest.(check (list int)) "three commits per worker per resync"
    (List.map (( + ) 3) before) (epochs ());
  ignore (request c "quit");
  close_client c;
  List.iteri
    (fun i (wpath, _) ->
      let w = connect_unix wpath in
      let what = Printf.sprintf "worker %d: %s" i in
      Alcotest.(check (list string)) (what "the negated facts loaded") [ "ans X = 2" ]
        (answers w "blocked(X)");
      let payload = encode [ "blocked", tuple_of [ 3 ] ] in
      check_prefix (what "edb# of a negated predicate after the fixpoint") "err CLUSTER"
        (snd (request ~payload w (Printf.sprintf "edb# %d" (String.length payload))));
      Alcotest.(check (list string)) (what "stored nothing") [ "ans X = 2" ]
        (answers w "blocked(X)");
      ignore (request w "quit");
      close_client w)
    cl.workers

let two_program =
  "module m_two.\n\
   export two(ff).\n\
   two(X, Y) :- hop(X, Z), link(Z, Y).\n\
   two(X, Y) :- two(X, Z), hop(Z, Y).\n\
   end_module.\n"

let right_program =
  "module m_right.\n\
   export rpath(bf).\n\
   rpath(X, Y) :- redge(X, Y).\n\
   rpath(X, Y) :- redge(X, Z), rpath(Z, Y).\n\
   end_module.\n"

let sg_program =
  "module m_sg.\n\
   export sg(ff).\n\
   sg(X, Y) :- flat(X, Y).\n\
   sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
   end_module.\n"

let parity_facts =
  "hop(1, 2). hop(2, 3). hop(3, 4). hop(4, 1). hop(2, 5). link(2, 6). link(3, 7). link(5, 8).\n\
   redge(1, 2). redge(2, 3). redge(3, 1). redge(3, 4).\n\
   flat(100, 101). flat(101, 102). up(1, 100). up(2, 100). up(3, 101). down(101, 11). \
   down(102, 12). down(100, 10).\n\
   edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2).\n"

let expected_parity =
  [ "two(X, Y): 3 answers";
    "round=1";
    "shard=0 derived=12 shipped=1 received=0 new=11";
    "shard=1 derived=17 shipped=3 received=0 new=14";
    "round=2";
    "shard=0 derived=3 shipped=3 received=3 new=3";
    "shard=1 derived=2 shipped=1 received=1 new=2";
    "round=3";
    "shard=0 derived=0 shipped=0 received=1 new=0";
    "shard=1 derived=0 shipped=0 received=3 new=2";
    "round=4";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "two(X, Y): 5 answers";
    "round=1";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=2 shipped=1 received=0 new=1";
    "round=2";
    "shard=0 derived=0 shipped=0 received=1 new=1";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "round=3";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "two(X, Y): 12 answers";
    "round=1";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=5 shipped=3 received=0 new=2";
    "round=2";
    "shard=0 derived=1 shipped=1 received=3 new=3";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "round=3";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=1 shipped=1 received=1 new=1";
    "round=4";
    "shard=0 derived=1 shipped=1 received=1 new=1";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "round=5";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=1 new=0";
    "round=6";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "two(X, Y): 6 answers";
    "round=1";
    "shard=0 derived=12 shipped=1 received=0 new=11";
    "shard=1 derived=20 shipped=5 received=0 new=15";
    "round=2";
    "shard=0 derived=3 shipped=3 received=5 new=5";
    "shard=1 derived=2 shipped=1 received=1 new=2";
    "round=3";
    "shard=0 derived=0 shipped=0 received=1 new=0";
    "shard=1 derived=0 shipped=0 received=3 new=2";
    "round=4";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "path(X, Y): 12 answers";
    "round=1";
    "shard=0 derived=12 shipped=1 received=0 new=11";
    "shard=1 derived=20 shipped=5 received=0 new=15";
    "round=2";
    "shard=0 derived=3 shipped=3 received=5 new=5";
    "shard=1 derived=2 shipped=1 received=1 new=2";
    "round=3";
    "shard=0 derived=0 shipped=0 received=1 new=0";
    "shard=1 derived=0 shipped=0 received=3 new=2";
    "round=4";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "rpath(1, Y): 4 answers";
    "round=1";
    "shard=0 derived=12 shipped=1 received=0 new=11";
    "shard=1 derived=20 shipped=5 received=0 new=15";
    "round=2";
    "shard=0 derived=3 shipped=3 received=5 new=5";
    "shard=1 derived=2 shipped=1 received=1 new=2";
    "round=3";
    "shard=0 derived=0 shipped=0 received=1 new=0";
    "shard=1 derived=0 shipped=0 received=3 new=2";
    "round=4";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "sg(X, Y): 5 answers";
    "round=1";
    "shard=0 derived=12 shipped=1 received=0 new=11";
    "shard=1 derived=20 shipped=5 received=0 new=15";
    "round=2";
    "shard=0 derived=3 shipped=3 received=5 new=5";
    "shard=1 derived=2 shipped=1 received=1 new=2";
    "round=3";
    "shard=0 derived=0 shipped=0 received=1 new=0";
    "shard=1 derived=0 shipped=0 received=3 new=2";
    "round=4";
    "shard=0 derived=0 shipped=0 received=0 new=0";
    "shard=1 derived=0 shipped=0 received=0 new=0";
    "worker 0 down/2: args(0)";
    "worker 0 edge/2: args(0)";
    "worker 0 flat/2: ";
    "worker 0 hop/2: args(0); args(1)";
    "worker 0 link/2: args(0)";
    "worker 0 path/2: args(1)";
    "worker 0 redge/2: args(1)";
    "worker 0 rpath/2: args(0)";
    "worker 0 sg/2: args(0)";
    "worker 0 two/2: args(1)";
    "worker 0 up/2: args(1)";
    "worker 1 down/2: args(0)";
    "worker 1 edge/2: args(0)";
    "worker 1 flat/2: ";
    "worker 1 hop/2: args(0); args(1)";
    "worker 1 link/2: args(0)";
    "worker 1 path/2: args(1)";
    "worker 1 redge/2: args(1)";
    "worker 1 rpath/2: args(0)";
    "worker 1 sg/2: args(0)";
    "worker 1 two/2: args(1)";
    "worker 1 up/2: args(1)"
  ]

(* One dstat row per round and shard, without its timing. *)
let dstat_rows c =
  let lines, status = request c "dstat" in
  check_prefix "dstat" "ok" status;
  List.filter_map
    (fun l ->
      let words = String.split_on_char ' ' l in
      if String.starts_with ~prefix:"txt round=" l then Some (List.nth words 1)
      else if String.starts_with ~prefix:"txt   shard=" l then
        Some
          (String.concat " "
             (List.filter
                (fun w -> w <> "" && w <> "txt" && not (String.starts_with ~prefix:"step_ms=" w))
                words))
      else None)
    lines

(* The work and the indexes of the shards' delta kernel, pinned: every
   fixpoint's per-round, per-shard derived/shipped/received/new rows —
   a resync, two delta syncs through an Init rule with two base
   literals, and a retract's resync — and the index specs on every
   worker's base relations and partitions, in installation order. *)
let test_kernel_parity () =
  let cl = start_cluster ~shards:2 ~key:1 () in
  Fun.protect ~finally:(fun () -> stop_cluster cl) @@ fun () ->
  let c = connect_unix cl.router_path in
  consult_all c [ tc_program; two_program; right_program; sg_program; parity_facts ];
  let out = ref [] in
  let read q =
    let n = List.length (answers c q) in
    out := !out @ (Printf.sprintf "%s: %d answers" q n :: dstat_rows c)
  in
  read "two(X, Y)";
  check_prefix "insert" "ok" (snd (request c "insert hop(6, 9). link(9, 10)."));
  read "two(X, Y)";
  check_prefix "insert" "ok" (snd (request c "insert hop(8, 2)."));
  read "two(X, Y)";
  check_prefix "retract" "ok" (snd (request c "retract hop(2, 5)."));
  List.iter read [ "two(X, Y)"; "path(X, Y)"; "rpath(1, Y)"; "sg(X, Y)" ];
  ignore (request c "quit");
  close_client c;
  let indexes =
    List.concat
      (List.mapi
         (fun i (_, srv) ->
           List.map
             (fun (sym, arity, rel) ->
               Printf.sprintf "worker %d %s/%d: %s" i (Coral.Symbol.name sym) arity
                 (String.concat "; "
                    (List.map (Format.asprintf "%a" Coral.Index.pp_spec)
                       (Coral.Relation.indexes rel))))
             (Coral.Engine.base_relations (Coral.engine (Session.db (Server.store srv)))))
         cl.workers)
  in
  Alcotest.(check (list string)) "dstat rows and indexes" expected_parity (!out @ indexes)

let () =
  Alcotest.run "coral_dist"
    [ ( "units",
        [ Alcotest.test_case "partition ownership" `Quick test_partition_unit;
          Alcotest.test_case "delta codec" `Quick test_delta_codec_unit;
          Alcotest.test_case "delta codec: lossless doubles" `Quick test_delta_codec_doubles;
          Alcotest.test_case "exchange buffer" `Quick test_exchange_unit;
          Alcotest.test_case "plan analysis" `Quick test_plan_unit;
          Alcotest.test_case "distribution and maintenance verdicts" `Quick test_verdict_table;
          Alcotest.test_case "delta codec: malformed batches" `Quick test_codec_malformed_cases
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_codec_roundtrip; prop_codec_malformed ] );
      ( "cluster",
        [ Alcotest.test_case "differential TC (1/2/4 shards)" `Quick test_differential_tc;
          Alcotest.test_case "differential SG" `Quick test_differential_sg;
          Alcotest.test_case "differential: seeded IDB facts" `Quick
            test_differential_seeded_idb;
          Alcotest.test_case "differential: float values" `Quick test_differential_floats;
          Alcotest.test_case "insert ships a delta, no resync" `Quick test_insert_ships_delta;
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
            test_worker_kernel;
          Alcotest.test_case "differential: every value kind" `Quick
            test_differential_value_kinds;
          Alcotest.test_case "fan-out: open fds stay flat" `Quick test_fanout_fds_flat;
          Alcotest.test_case "fan-out: kill a wedged fan-out" `Quick test_fanout_kill_wedged;
          Alcotest.test_case "differential: insert/retract sequences" `Quick
            test_update_differential;
          Alcotest.test_case "worker refuses malformed edb#" `Quick test_edb_refused;
          Alcotest.test_case "insert racing a retract and a resync" `Quick
            test_insert_races_retract;
          Alcotest.test_case "conservation check trips on a lost or extra batch" `Quick
            test_conservation_tripwire;
          Alcotest.test_case "a slow worker absorbs early batches in their round" `Quick
            test_slow_worker_early_batches;
          Alcotest.test_case "reads never mix cluster states" `Quick test_reads_never_mix_states;
          Alcotest.test_case "string constants survive program transit" `Quick
            test_string_constants_in_transit;
          Alcotest.test_case "shard kernel: dstat work and indexes pinned" `Quick
            test_kernel_parity;
          Alcotest.test_case "differential: EDB values through a resync" `Quick
            test_resync_edb_values;
          Alcotest.test_case "doubles print losslessly through the router" `Quick
            test_doubles_lossless;
          Alcotest.test_case "edb# loads before the closure, is a delta after" `Quick
            test_edb_load_then_delta;
          Alcotest.test_case "non-ground tuples are not partitioned" `Quick
            test_nonground_not_partitioned
        ] );
      ( "observability",
        [ Alcotest.test_case "tid= wire round-trip on a plain server" `Quick
            test_tid_wire_roundtrip;
          Alcotest.test_case "stitched cross-process trace" `Quick test_stitched_trace;
          Alcotest.test_case "federated metrics labels (1/2/4 shards)" `Quick
            test_federated_metrics;
          Alcotest.test_case "forced straggler is flagged" `Quick test_forced_straggler;
          Alcotest.test_case "router stats and metrics name parity" `Quick
            test_router_stats_metrics_parity;
          Alcotest.test_case "router connection cap sheds like a server" `Quick
            test_router_connection_cap;
          Alcotest.test_case "every worker process times its codec" `Quick
            test_codec_timed_per_worker;
          Alcotest.test_case "router times fanned-out queries" `Quick test_router_times_fanouts
        ] )
    ]
