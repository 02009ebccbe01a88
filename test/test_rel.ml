(* Tests for the data manager: tuples, indexes, marked hash relations,
   list relations, scans. *)

open Coral_term
open Coral_rel

let t_int i = Term.int i
let tup ints = Tuple.of_terms (Array.map t_int (Array.of_list ints))

let contents rel =
  Relation.to_list rel
  |> List.map (fun t -> Array.to_list t.Tuple.terms)
  |> List.sort compare

let ints_of tuples =
  List.map
    (fun t ->
      Array.to_list t.Tuple.terms
      |> List.map (function Term.Const (Value.Int i) -> i | _ -> -1))
    tuples
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Tuples                                                             *)
(* ------------------------------------------------------------------ *)

let test_tuple_equality () =
  let a = tup [ 1; 2 ] and b = tup [ 1; 2 ] and c = tup [ 2; 1 ] in
  Alcotest.(check bool) "equal ground" true (Tuple.equal a b);
  Alcotest.(check bool) "unequal ground" false (Tuple.equal a c);
  let v1 = Tuple.of_terms [| Term.var 7; Term.var 8 |] in
  let v2 = Tuple.of_terms [| Term.var 1; Term.var 2 |] in
  let v3 = Tuple.of_terms [| Term.var 1; Term.var 1 |] in
  Alcotest.(check bool) "variant tuples equal" true (Tuple.equal v1 v2);
  Alcotest.(check bool) "sharing differs" false (Tuple.equal v1 v3);
  Alcotest.(check bool) "general subsumes specific" true (Tuple.subsumes v1 a);
  Alcotest.(check bool) "specific does not subsume general" false (Tuple.subsumes a v1);
  Alcotest.(check bool) "p(X,X) subsumes p(1,1)" true (Tuple.subsumes v3 (tup [ 1; 1 ]));
  Alcotest.(check bool) "p(X,X) vs p(1,2)" false (Tuple.subsumes v3 a)

let test_tuple_canonical_under_env () =
  (* A head tuple built from a rule environment resolves bindings. *)
  let env = Bindenv.create 2 in
  let tr = Trail.create () in
  Trail.bind tr env 0 (Term.int 5) Bindenv.empty;
  let t = Tuple.make [| Term.var 0; Term.var 1 |] env in
  Alcotest.(check int) "one var remains" 1 t.Tuple.nvars;
  Alcotest.(check bool) "first arg resolved" true (Term.equal t.Tuple.terms.(0) (Term.int 5))

(* ------------------------------------------------------------------ *)
(* Hash relations: insert, duplicates, subsumption                    *)
(* ------------------------------------------------------------------ *)

let test_insert_dedup () =
  let r = Hash_relation.create ~name:"p" ~arity:2 () in
  Alcotest.(check bool) "first insert" true (Relation.insert r (tup [ 1; 2 ]));
  Alcotest.(check bool) "duplicate rejected" false (Relation.insert r (tup [ 1; 2 ]));
  Alcotest.(check bool) "different accepted" true (Relation.insert r (tup [ 1; 3 ]));
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r);
  Alcotest.(check int) "stats inserts" 2 r.Relation.stats.Relation.inserts;
  Alcotest.(check int) "stats duplicates" 1 r.Relation.stats.Relation.duplicates

let test_multiset () =
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  r.Relation.multiset <- true;
  Alcotest.(check bool) "1st" true (Relation.insert r (tup [ 1 ]));
  Alcotest.(check bool) "2nd copy kept" true (Relation.insert r (tup [ 1 ]));
  Alcotest.(check int) "two copies" 2 (Relation.cardinal r)

let test_nonground_subsumption () =
  let r = Hash_relation.create ~name:"p" ~arity:2 () in
  ignore (Relation.insert r (tup [ 1; 2 ]));
  ignore (Relation.insert r (tup [ 3; 4 ]));
  (* p(X, Y) subsumes everything: both ground tuples retire, inserts of
     instances are rejected afterwards. *)
  let general = Tuple.of_terms [| Term.var 0; Term.var 1 |] in
  Alcotest.(check bool) "general accepted" true (Relation.insert r general);
  Alcotest.(check int) "subsumed retired" 1 (Relation.cardinal r);
  Alcotest.(check bool) "instance rejected" false (Relation.insert r (tup [ 9; 9 ]));
  Alcotest.(check bool) "variant rejected" false
    (Relation.insert r (Tuple.of_terms [| Term.var 5; Term.var 6 |]))

let test_delete () =
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  ignore (Relation.insert r (tup [ 1 ]));
  ignore (Relation.insert r (tup [ 2 ]));
  ignore (Relation.insert r (tup [ 3 ]));
  let deleted =
    Relation.delete r (fun t ->
        match t.Tuple.terms.(0) with Term.Const (Value.Int i) -> i mod 2 = 1 | _ -> false)
  in
  Alcotest.(check int) "two deleted" 2 deleted;
  Alcotest.(check (list (list int))) "only even left" [ [ 2 ] ]
    (List.map (fun l -> List.map (function Term.Const (Value.Int i) -> i | _ -> -1) l)
       (contents r));
  (* deleting then reinserting works *)
  Alcotest.(check bool) "reinsert after delete" true (Relation.insert r (tup [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Marks: the semi-naive substrate                                    *)
(* ------------------------------------------------------------------ *)

let test_marks () =
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  ignore (Relation.insert r (tup [ 1 ]));
  ignore (Relation.insert r (tup [ 2 ]));
  let m1 = Relation.mark r in
  Alcotest.(check int) "first mark" 1 m1;
  ignore (Relation.insert r (tup [ 3 ]));
  let m2 = Relation.mark r in
  ignore (Relation.insert r (tup [ 4 ]));
  let slice from til = ints_of (List.of_seq (Relation.scan r ~from_mark:from ~to_mark:til ())) in
  Alcotest.(check (list (list int))) "before first mark" [ [ 1 ]; [ 2 ] ] (slice 0 m1);
  Alcotest.(check (list (list int))) "between marks" [ [ 3 ] ] (slice m1 m2);
  Alcotest.(check (list (list int))) "after second mark" [ [ 4 ] ] (slice m2 (-1));
  Alcotest.(check (list (list int))) "everything" [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] (slice 0 (-1));
  (* duplicate checks span mark boundaries *)
  Alcotest.(check bool) "dup across marks" false (Relation.insert r (tup [ 1 ]))

let test_scan_snapshot () =
  (* a scan opened before inserts does not see them (stable iteration
     while the fixpoint inserts into the same relation) *)
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  ignore (Relation.insert r (tup [ 1 ]));
  let s = Relation.scan r () in
  ignore (Relation.insert r (tup [ 2 ]));
  Alcotest.(check (list (list int))) "snapshot" [ [ 1 ] ] (ints_of (List.of_seq s));
  Alcotest.(check int) "but relation has both" 2 (Relation.cardinal r)

(* ------------------------------------------------------------------ *)
(* Indexes                                                            *)
(* ------------------------------------------------------------------ *)

let probe_rel rel pattern =
  ints_of (List.of_seq (Relation.scan rel ~pattern:(pattern, Bindenv.empty) ()))

let test_argument_index () =
  let r =
    Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"edge" ~arity:2 ()
  in
  for i = 1 to 100 do
    ignore (Relation.insert r (tup [ i mod 10; i ]))
  done;
  let candidates = probe_rel r [| t_int 3; Term.var 0 |] in
  Alcotest.(check int) "bucket size" 10 (List.length candidates);
  Alcotest.(check bool) "all have key 3" true
    (List.for_all (fun l -> List.nth l 0 = 3) candidates)

let test_index_var_bucket () =
  (* tuples with a variable in the indexed position are candidates for
     every probe (the paper's [var] special value) *)
  let r = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"p" ~arity:2 () in
  ignore (Relation.insert r (tup [ 1; 10 ]));
  ignore (Relation.insert r (Tuple.of_terms [| Term.var 0; Term.int 99 |]));
  let candidates = probe_rel r [| t_int 1; Term.var 1 |] in
  Alcotest.(check int) "ground + var bucket" 2 (List.length candidates)

let test_unusable_probe_falls_back () =
  let r = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"p" ~arity:2 () in
  ignore (Relation.insert r (tup [ 1; 10 ]));
  ignore (Relation.insert r (tup [ 2; 20 ]));
  (* probe with an unbound first argument cannot use the index: scan *)
  let candidates = probe_rel r [| Term.var 5; t_int 20 |] in
  Alcotest.(check int) "full scan" 2 (List.length candidates)

let test_pattern_index () =
  (* @make_index emp(Name, addr(Street, City))(Name, City) *)
  let addr = Symbol.intern "addr" in
  let r =
    Hash_relation.create
      ~indexes:[ Index.Paths [ [ 0 ]; [ 1; 1 ] ] ]
      ~name:"emp" ~arity:2 ()
  in
  let mk name street city =
    Tuple.of_terms [| Term.str name; Term.app addr [| Term.str street; Term.str city |] |]
  in
  ignore (Relation.insert r (mk "john" "main st" "madison"));
  ignore (Relation.insert r (mk "john" "oak ave" "seattle"));
  ignore (Relation.insert r (mk "mary" "elm dr" "madison"));
  (* retrieve employees named john in madison without knowing the street *)
  let pattern =
    [| Term.str "john"; Term.app addr [| Term.var 0; Term.str "madison" |] |]
  in
  let candidates = List.of_seq (Relation.scan r ~pattern:(pattern, Bindenv.empty) ()) in
  Alcotest.(check int) "exactly the matching tuple" 1 (List.length candidates);
  (* a tuple with a variable address goes in the var bucket and is a
     candidate for every probe (bob's address might be in madison) *)
  ignore (Relation.insert r (Tuple.of_terms [| Term.str "bob"; Term.var 0 |]));
  let candidates = List.of_seq (Relation.scan r ~pattern:(pattern, Bindenv.empty) ()) in
  Alcotest.(check int) "var-address tuple included" 2 (List.length candidates);
  (* a tuple whose second argument is a constant cannot match any
     probe through this index and is never returned *)
  ignore (Relation.insert r (Tuple.of_terms [| Term.str "carl"; Term.int 0 |]));
  let candidates = List.of_seq (Relation.scan r ~pattern:(pattern, Bindenv.empty) ()) in
  Alcotest.(check int) "mismatch tuple excluded" 2 (List.length candidates)

let test_add_index_later () =
  let r = Hash_relation.create ~name:"p" ~arity:2 () in
  for i = 1 to 50 do
    ignore (Relation.insert r (tup [ i mod 5; i ]))
  done;
  ignore (Relation.mark r);
  for i = 51 to 100 do
    ignore (Relation.insert r (tup [ i mod 5; i ]))
  done;
  (* index added after the fact is backfilled over every subsidiary *)
  Relation.add_index r (Index.Args [ 0 ]);
  let candidates = probe_rel r [| t_int 2; Term.var 0 |] in
  Alcotest.(check int) "backfilled probe" 20 (List.length candidates)

(* ------------------------------------------------------------------ *)
(* List relations and scans                                           *)
(* ------------------------------------------------------------------ *)

let test_list_relation () =
  let r = List_relation.create ~name:"p" ~arity:1 () in
  Alcotest.(check bool) "insert" true (Relation.insert r (tup [ 1 ]));
  Alcotest.(check bool) "dup" false (Relation.insert r (tup [ 1 ]));
  ignore (Relation.mark r);
  ignore (Relation.insert r (tup [ 2 ]));
  Alcotest.(check (list (list int))) "delta" [ [ 2 ] ]
    (ints_of (List.of_seq (Relation.scan r ~from_mark:1 ())));
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r)

let test_scan_cursor () =
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  ignore (Relation.insert r (tup [ 1 ]));
  ignore (Relation.insert r (tup [ 2 ]));
  let s = Scan.on_relation r () in
  let peeked = Scan.peek s in
  let first = Scan.next s in
  Alcotest.(check bool) "peek then next agree" true (peeked = first && peeked <> None);
  Alcotest.(check bool) "second" true (Scan.next s <> None);
  Alcotest.(check bool) "exhausted" true (Scan.next s = None);
  (* two cursors are independent *)
  let s1 = Scan.on_relation r () and s2 = Scan.on_relation r () in
  ignore (Scan.next s1);
  Alcotest.(check int) "s2 unaffected" 2 (Scan.count s2)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* The marked hash relation behaves like a reference set. *)
let prop_relation_vs_model =
  QCheck2.Test.make ~name:"hash relation = model set under insert/mark/dup" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 8) (int_range 0 8)))
    (fun ops ->
      let r = Hash_relation.create ~name:"m" ~arity:2 () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (a, b) ->
          if i mod 7 = 6 then ignore (Relation.mark r)
          else begin
            let grew = Relation.insert r (tup [ a; b ]) in
            let fresh = not (Hashtbl.mem model (a, b)) in
            if fresh then Hashtbl.add model (a, b) ();
            if grew <> fresh then failwith "insert/dup disagreement"
          end)
        ops;
      let stored = ints_of (Relation.to_list r) in
      let expected =
        Hashtbl.fold (fun (a, b) () acc -> [ a; b ] :: acc) model [] |> List.sort compare
      in
      stored = expected)

(* Index probes return a superset of matching tuples and never a
   tuple that provably cannot match. *)
let prop_index_candidates_complete =
  QCheck2.Test.make ~name:"index probe candidates are complete" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) (pair (int_range 0 4) (int_range 0 4)))
        (int_range 0 4))
    (fun (rows, key) ->
      let indexed = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"i" ~arity:2 () in
      let plain = Hash_relation.create ~name:"s" ~arity:2 () in
      List.iter
        (fun (a, b) ->
          ignore (Relation.insert indexed (tup [ a; b ]));
          ignore (Relation.insert plain (tup [ a; b ])))
        rows;
      let pattern = [| t_int key; Term.var 0 |] in
      let matching rel =
        List.of_seq (Relation.scan rel ~pattern:(pattern, Bindenv.empty) ())
        |> List.filter (fun t ->
               match t.Tuple.terms.(0) with
               | Term.Const (Value.Int i) -> i = key
               | _ -> true)
        |> ints_of
      in
      matching indexed = matching plain)

(* ------------------------------------------------------------------ *)
(* Frozen views: the snapshot-read substrate                          *)
(* ------------------------------------------------------------------ *)

let test_freeze_isolation () =
  let r = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"p" ~arity:2 () in
  ignore (Relation.insert r (tup [ 1; 2 ]));
  ignore (Relation.insert r (tup [ 2; 3 ]));
  let fz = Option.get (Relation.freeze r) in
  ignore (Relation.insert r (tup [ 3; 4 ]));
  Alcotest.(check int) "frozen cardinal" 2 (Relation.cardinal fz);
  Alcotest.(check (list (list int)))
    "frozen view misses the later insert"
    [ [ 1; 2 ]; [ 2; 3 ] ]
    (ints_of (Relation.to_list fz));
  Alcotest.(check (list (list int)))
    "master sees it"
    [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]
    (ints_of (Relation.to_list r));
  (* index probes resolve against the frozen contents too *)
  Alcotest.(check (list (list int))) "frozen probe" [ [ 1; 2 ] ]
    (probe_rel fz [| t_int 1; Term.var 0 |]);
  Alcotest.(check bool) "frozen mem" true (Relation.mem fz (tup [ 2; 3 ]));
  Alcotest.(check bool) "frozen mem excludes later" false (Relation.mem fz (tup [ 3; 4 ]))

(* A relation frozen after every write (one snapshot per commit) keeps
   few subsidiaries, because freezing merges sealed ones, and each
   frozen view still reads exactly its own tuples through scan, index
   probe and mem.  Kills are tombstones shared with earlier views
   (DESIGN.md section 11), so a view's own tuples are those live at its
   freeze and not killed since. *)
let test_freeze_merges_subsidiaries () =
  let cycles = 1000 and keys = 10 and width = 40 in
  let r = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"p" ~arity:2 () in
  let rng = Random.State.make [| cycles |] in
  let live = Hashtbl.create 64 in  (* (a, b) -> the stored tuple *)
  let views = ref [] and max_marks = ref 0 in
  for i = 1 to cycles do
    let a = Random.State.int rng keys and b = Random.State.int rng width in
    let t = tup [ a; b ] in
    if Relation.insert r t then Hashtbl.replace live (a, b) t;
    if i mod 3 <> 0 && Hashtbl.length live > 0 then begin
      let present = Hashtbl.fold (fun k _ acc -> k :: acc) live [] |> List.sort compare in
      let ka, kb = List.nth present (Random.State.int rng (List.length present)) in
      let target = tup [ ka; kb ] in
      Alcotest.(check int) "killed one" 1
        (Relation.delete r ~pattern:(target.Tuple.terms, Bindenv.empty) (Tuple.equal target));
      Hashtbl.remove live (ka, kb)
    end;
    let fz = Option.get (Relation.freeze r) in
    views := (i, fz, Hashtbl.fold (fun _ t acc -> t :: acc) live []) :: !views;
    max_marks := max !max_marks (Relation.marks r)
  done;
  let bound = int_of_float ((2. *. Float.log2 (float_of_int cycles)) +. 2.) in
  Alcotest.(check bool)
    (Printf.sprintf "marks stay logarithmic (max %d, bound %d)" !max_marks bound)
    true (!max_marks <= bound);
  Alcotest.(check int) "live cardinal" (Hashtbl.length live) (Relation.cardinal r);
  let with_key k rows = List.filter (fun row -> List.hd row = k) rows in
  List.iter
    (fun (i, fz, own) ->
      let expected = ints_of own in
      let label what = Printf.sprintf "view %d %s" i what in
      Alcotest.(check (list (list int))) (label "scan") expected (ints_of (Relation.to_list fz));
      for k = 0 to keys - 1 do
        Alcotest.(check (list (list int))) (label "probe")
          (with_key k expected)
          (with_key k (probe_rel fz [| t_int k; Term.var 0 |]))
      done;
      List.iter
        (fun row -> Alcotest.(check bool) (label "mem") true (Relation.mem fz (tup row)))
        expected;
      if i mod 10 = 0 then
        for a = 0 to keys - 1 do
          for b = 0 to width - 1 do
            if not (List.mem [ a; b ] expected) then
              Alcotest.(check bool) (label "mem absent") false (Relation.mem fz (tup [ a; b ]))
          done
        done)
    !views

(* The join kernel's iterator hands out exactly the candidates a scan
   does, in the same order: over every mark interval, with and without
   an index probe (non-ground tuples in the var bucket included), after
   kills, on frozen views, and on list relations; and it stops when the
   callback says so. *)
let test_iter_matches_scan () =
  let same what rel ~from_mark ~to_mark pattern =
    let scanned = List.of_seq (Relation.scan rel ~from_mark ~to_mark ?pattern ()) in
    let iterated = ref [] in
    Relation.iter rel ~from_mark ~to_mark ~pattern (fun t ->
        iterated := t :: !iterated;
        true);
    Alcotest.(check bool) what true (List.equal ( == ) scanned (List.rev !iterated))
  in
  let patterns =
    None :: List.init 5 (fun k -> Some ([| t_int k; Term.var 0 |], Bindenv.empty))
  in
  let check_all rel views =
    List.iter
      (fun pattern ->
        for from_mark = 0 to Relation.marks rel + 1 do
          for to_mark = -1 to Relation.marks rel + 1 do
            same "live" rel ~from_mark ~to_mark pattern
          done
        done;
        List.iter (fun v -> same "view" v ~from_mark:0 ~to_mark:(-1) pattern) views)
      patterns
  in
  let r = Hash_relation.create ~indexes:[ Index.Args [ 0 ] ] ~name:"p" ~arity:2 () in
  let l = List_relation.create ~name:"q" ~arity:2 () in
  let rng = Random.State.make [| 5 |] in
  let views = ref [] in
  for i = 1 to 200 do
    let t = if i mod 37 = 0 then Tuple.of_terms [| Term.var 0; t_int i |] else tup [ Random.State.int rng 5; i ] in
    ignore (Relation.insert r t);
    ignore (Relation.insert l t);
    if i mod 7 = 0 then begin
      ignore (Relation.mark r);
      ignore (Relation.mark l)
    end;
    if i mod 11 = 0 then begin
      let victim (t : Tuple.t) = Tuple.is_ground t && Random.State.int rng 4 = 0 in
      ignore (Relation.delete r victim);
      ignore (Relation.delete l victim)
    end;
    if i mod 60 = 0 then views := Option.get (Relation.freeze r) :: Option.get (Relation.freeze l) :: !views
  done;
  check_all r !views;
  check_all l [];
  let n = ref 0 in
  Relation.iter r ~from_mark:0 ~to_mark:(-1) ~pattern:None (fun _ ->
      incr n;
      !n < 3);
  Alcotest.(check int) "stops when asked" 3 !n

let test_freeze_read_only () =
  let r = Hash_relation.create ~name:"p" ~arity:1 () in
  ignore (Relation.insert r (tup [ 1 ]));
  let fz = Option.get (Relation.freeze r) in
  let ro = Failure "p: snapshot views are read-only; mutate through the write lane" in
  Alcotest.check_raises "insert raises" ro (fun () -> ignore (Relation.insert fz (tup [ 2 ])));
  Alcotest.check_raises "clear raises" ro (fun () -> Relation.clear fz);
  (* mark semantics match persistent relations: no marks, delta scans
     from a positive mark are empty, full scans see everything *)
  Alcotest.(check int) "marks" 0 (Relation.marks fz);
  Alcotest.(check (list (list int))) "delta scan empty" []
    (ints_of (List.of_seq (Relation.scan fz ~from_mark:1 ())));
  Alcotest.(check (list (list int))) "full scan" [ [ 1 ] ]
    (ints_of (List.of_seq (Relation.scan fz ())))

let test_freeze_list_relation () =
  let r = List_relation.create ~name:"q" ~arity:1 () in
  ignore (Relation.insert r (tup [ 7 ]));
  let fz = Option.get (Relation.freeze r) in
  ignore (Relation.insert r (tup [ 8 ]));
  Alcotest.(check (list (list int))) "list frozen view" [ [ 7 ] ] (ints_of (Relation.to_list fz))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_rel"
    [ ( "tuple",
        [ Alcotest.test_case "equality & subsumption" `Quick test_tuple_equality;
          Alcotest.test_case "canonicalization" `Quick test_tuple_canonical_under_env
        ] );
      ( "relation",
        [ Alcotest.test_case "dedup" `Quick test_insert_dedup;
          Alcotest.test_case "multiset" `Quick test_multiset;
          Alcotest.test_case "non-ground subsumption" `Quick test_nonground_subsumption;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "marks" `Quick test_marks;
          Alcotest.test_case "scan snapshot" `Quick test_scan_snapshot
        ]
        @ qcheck [ prop_relation_vs_model ] );
      ( "index",
        [ Alcotest.test_case "argument form" `Quick test_argument_index;
          Alcotest.test_case "var bucket" `Quick test_index_var_bucket;
          Alcotest.test_case "unusable probe" `Quick test_unusable_probe_falls_back;
          Alcotest.test_case "pattern form" `Quick test_pattern_index;
          Alcotest.test_case "add index later" `Quick test_add_index_later
        ]
        @ qcheck [ prop_index_candidates_complete ] );
      ( "scan",
        [ Alcotest.test_case "list relation" `Quick test_list_relation;
          Alcotest.test_case "cursors" `Quick test_scan_cursor
        ] );
      ( "freeze",
        [ Alcotest.test_case "isolation" `Quick test_freeze_isolation;
          Alcotest.test_case "read only" `Quick test_freeze_read_only;
          Alcotest.test_case "list relation" `Quick test_freeze_list_relation;
          Alcotest.test_case "merges subsidiaries" `Quick test_freeze_merges_subsidiaries;
          Alcotest.test_case "iterator matches scan" `Quick test_iter_matches_scan
        ] )
    ]
