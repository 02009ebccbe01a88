(* Tests for the term layer: bignums, hash-consing, binding
   environments, unification, matching, subsumption. *)

open Coral_term

let term_testable = Alcotest.testable Term.pp Term.equal

(* ------------------------------------------------------------------ *)
(* Bignum                                                             *)
(* ------------------------------------------------------------------ *)

let check_big msg expected big = Alcotest.(check string) msg expected (Bignum.to_string big)

let test_bignum_basics () =
  check_big "zero" "0" Bignum.zero;
  check_big "of_int" "12345" (Bignum.of_int 12345);
  check_big "negative" "-987" (Bignum.of_int (-987));
  check_big "min_int" (string_of_int min_int) (Bignum.of_int min_int);
  check_big "max_int" (string_of_int max_int) (Bignum.of_int max_int);
  Alcotest.(check (option int)) "to_int roundtrip" (Some 42) (Bignum.to_int (Bignum.of_int 42));
  Alcotest.(check (option int))
    "to_int min_int" (Some min_int)
    (Bignum.to_int (Bignum.of_int min_int));
  Alcotest.(check (option int))
    "to_int overflow" None
    (Bignum.to_int (Bignum.mul (Bignum.of_int max_int) (Bignum.of_int 1000)))

let test_bignum_string () =
  let r s = Bignum.to_string (Bignum.of_string s) in
  Alcotest.(check string) "roundtrip" "123456789012345678901234567890"
    (r "123456789012345678901234567890");
  Alcotest.(check string) "negative" "-31415926535897932384626433832795"
    (r "-31415926535897932384626433832795");
  Alcotest.(check string) "leading plus" "17" (r "+17");
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty") (fun () ->
      ignore (Bignum.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bignum.of_string: bad digit") (fun () ->
      ignore (Bignum.of_string "12x4"))

let test_bignum_arith () =
  let b = Bignum.of_string in
  let big1 = b "999999999999999999999999999999" in
  check_big "add carries" "1000000000000000000000000000000" (Bignum.add big1 Bignum.one);
  check_big "sub to zero" "0" (Bignum.sub big1 big1);
  check_big "mul" "999999999999999999999999999998000000000000000000000000000001"
    (Bignum.mul big1 big1);
  let q, r = Bignum.divmod (b "1000000000000000000000000000007") big1 in
  check_big "div q" "1" q;
  check_big "div r" "8" r;
  let q, r = Bignum.divmod (b "-100") (b "7") in
  check_big "trunc div q" "-14" q;
  check_big "trunc div r" "-2" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let small_int = QCheck2.Gen.int_range (-100000) 100000

let prop_bignum_matches_int =
  QCheck2.Test.make ~name:"bignum add/sub/mul/divmod agree with int" ~count:500
    QCheck2.Gen.(quad small_int small_int small_int small_int)
    (fun (a, b, c, d) ->
      let open Bignum in
      let ba = of_int a and bb = of_int b and bc = of_int c and bd = of_int d in
      let lhs = add (mul ba bb) (sub bc bd) in
      to_int lhs = Some ((a * b) + (c - d))
      &&
      if d = 0 then true
      else begin
        let q, r = divmod bc bd in
        to_int q = Some (c / d) && to_int r = Some (c mod d)
      end)

let prop_bignum_string_roundtrip =
  QCheck2.Test.make ~name:"bignum decimal roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let canonical =
        let trimmed = ref 0 in
        let n = String.length s in
        while !trimmed < n - 1 && s.[!trimmed] = '0' do incr trimmed done;
        String.sub s !trimmed (n - !trimmed)
      in
      Bignum.to_string (Bignum.of_string s) = canonical)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                       *)
(* ------------------------------------------------------------------ *)

let f = Symbol.intern "f"
let g = Symbol.intern "g"

let test_hashcons_ground () =
  let t1 = Term.app f [| Term.int 1; Term.app g [| Term.str "x" |] |] in
  let t2 = Term.app f [| Term.int 1; Term.app g [| Term.str "x" |] |] in
  let t3 = Term.app f [| Term.int 2; Term.app g [| Term.str "x" |] |] in
  let id t = Option.get (Term.ground_id t) in
  Alcotest.(check bool) "same structure same id" true (id t1 = id t2);
  Alcotest.(check bool) "different structure different id" true (id t1 <> id t3);
  Alcotest.(check bool) "int/big not conflated" true
    (Term.ground_id (Term.int 5) <> Term.ground_id (Term.big (Bignum.of_int 5)))

let test_hashcons_nonground () =
  let t = Term.app f [| Term.var 0; Term.int 1 |] in
  Alcotest.(check (option int)) "non-ground has no id" None (Term.ground_id t);
  Alcotest.(check bool) "is_ground false" false (Term.is_ground t);
  (* memoized -1 must not poison a later ground sibling *)
  let t' = Term.app f [| Term.int 0; Term.int 1 |] in
  Alcotest.(check bool) "ground sibling still gets id" true (Term.ground_id t' <> None)

let prop_hashcons_id_iff_equal =
  (* random ground terms: ids equal <=> structurally equal *)
  let gen_ground =
    QCheck2.Gen.(
      sized
      @@ fix (fun self n ->
             if n <= 0 then
               oneof [ map Term.int (int_range 0 5); map Term.str (oneofl [ "a"; "b" ]) ]
             else
               oneof
                 [ map Term.int (int_range 0 5);
                   map2
                     (fun sym args -> Term.app (Symbol.intern sym) (Array.of_list args))
                     (oneofl [ "f"; "g"; "h" ])
                     (list_size (int_range 1 3) (self (n / 2)))
                 ]))
  in
  QCheck2.Test.make ~name:"hashcons id equality iff structural equality" ~count:500
    QCheck2.Gen.(pair (QCheck2.Gen.map (fun g -> g) gen_ground) gen_ground)
    (fun (t1, t2) ->
      let i1 = Option.get (Term.ground_id t1) and i2 = Option.get (Term.ground_id t2) in
      (i1 = i2) = Term.equal t1 t2)

(* ------------------------------------------------------------------ *)
(* Lists                                                              *)
(* ------------------------------------------------------------------ *)

let test_lists () =
  let l = Term.list_of [ Term.int 1; Term.int 2; Term.int 3 ] in
  Alcotest.(check string) "printing" "[1, 2, 3]" (Term.to_string l);
  (match Term.to_list l with
  | Some [ a; b; c ] ->
    Alcotest.check term_testable "first" (Term.int 1) a;
    Alcotest.check term_testable "second" (Term.int 2) b;
    Alcotest.check term_testable "third" (Term.int 3) c
  | _ -> Alcotest.fail "to_list");
  let improper = Term.cons (Term.int 1) (Term.var ~name:"T" 0) in
  Alcotest.(check bool) "improper list" true (Term.to_list improper = None);
  Alcotest.(check string) "improper printing" "[1 | T]" (Term.to_string improper)

(* ------------------------------------------------------------------ *)
(* Printing: a golden table                                           *)
(* ------------------------------------------------------------------ *)

exception Point of int * int

let point_ops =
  Value.make_ops ~name:"point"
    ~print:(fun ppf v ->
      match v with
      | Point (x, y) -> Format.fprintf ppf "pt<%d,%d>" x y
      | _ -> Format.pp_print_string ppf "?")
    ()

(* The surface text of every kind of term, captured from the
   Format-based printer this table was written against (doubles since
   print losslessly, as [Value.repr_double]): answers, [stats],
   [explain] and [why] all print through [Term.to_string], so any
   printer must reproduce these bytes exactly. *)
let printer_golden =
  let a = Term.atom and i = Term.int and app s args = Term.app (Symbol.intern s) args in
  [ i 0, "0";
    i 42, "42";
    i (-7), "-7";
    i max_int, string_of_int max_int;
    i min_int, string_of_int min_int;
    Term.double 2.0, "2.0";
    Term.double (-0.0), "-0.0";
    Term.double 0.1, "0.1";
    Term.double 1.0000001, "1.0000001";
    Term.double 3.14159265358979, "3.14159265358979";
    Term.double 1e300, "1.0e+300";
    Term.double 1e-5, "1.0e-05";
    Term.double 123456789.0, "123456789.0";
    Term.double 4.9e-324, "5.0e-324";
    Term.double Float.nan, "nan";
    Term.double Float.infinity, "inf";
    Term.double Float.neg_infinity, "-inf";
    Term.str "", {|""|};
    Term.str "with space", {|"with space"|};
    Term.str {|quo"te|}, {|"quo\"te"|};
    Term.str {|back\slash|}, {|"back\\slash"|};
    Term.str "new\nline\ttab\rcr", {|"new\nline\ttab\rcr"|};
    Term.str "nul\000byte", {|"nul\000byte"|};
    Term.str "caf\xc3\xa9", {|"caf\195\169"|};
    Term.big (Bignum.of_string "123456789012345678901234567890"),
    "123456789012345678901234567890";
    Term.big (Bignum.of_string "-98765432109876543210"), "-98765432109876543210";
    Term.const (Value.opaque point_ops (Point (3, -4))), "pt<3,-4>";
    a "foo", "foo";
    a "[]", "[]";
    Term.nil, "[]";
    Term.var ~name:"X" 0, "X";
    Term.var 17, "_17";
    app "f" [| i 1; app "g" [| a "a"; Term.str "s" |]; Term.double 2.5 |], {|f(1, g(a, "s"), 2.5)|};
    app "h" [| app "h" [| app "h" [| a "z" |] |] |], "h(h(h(z)))";
    Term.list_of [ i 1; i 2; i 3 ], "[1, 2, 3]";
    Term.list_of [ a "x" ], "[x]";
    Term.cons (i 1) (i 2), "[1 | 2]";
    Term.cons (a "a") (Term.cons (Term.list_of [ a "b"; a "c" ]) (a "t")), "[a, [b, c] | t]";
    Term.cons (i 1) (Term.cons (i 2) (Term.var ~name:"T" 3)), "[1, 2 | T]";
    app "." [| i 1 |], ".(1)";
    app "p" [| Term.list_of []; Term.list_of [ Term.str "q r" ] |], {|p([], ["q r"])|};
    (* longer than Format's margin: still one line *)
    Term.list_of (List.init 40 i),
    "[" ^ String.concat ", " (List.init 40 string_of_int) ^ "]"
  ]

let test_printer_golden () =
  List.iter
    (fun (t, want) ->
      Alcotest.(check string) ("to_string " ^ want) want (Term.to_string t);
      Alcotest.(check string) ("pp in a box " ^ want) ("{" ^ want ^ "}")
        (Format.asprintf "@[<hov 2>{%a}@]" Term.pp t);
      let buf = Buffer.create 8 in
      Buffer.add_string buf "=";
      Term.to_buffer buf t;
      Alcotest.(check string) ("to_buffer appends " ^ want) ("=" ^ want) (Buffer.contents buf))
    printer_golden

(* Ints print their digits straight into the buffer: the bytes must be
   string_of_int's, at the edges of the range too. *)
let test_int_digits () =
  List.iter
    (fun i ->
      let buf = Buffer.create 8 in
      Buffer.add_char buf '<';
      Value.to_buffer buf (Value.Int i);
      Alcotest.(check string) (string_of_int i) ("<" ^ string_of_int i) (Buffer.contents buf);
      Alcotest.(check string) ("term " ^ string_of_int i) (string_of_int i)
        (Term.to_string (Term.int i)))
    [ 0; 1; -1; 9; 10; -10; 99; 100; 123456789; -987654321; max_int; min_int; max_int - 1;
      min_int + 1 ]

(* Any int prints as string_of_int does and parses back to itself. *)
let prop_int_print_parse =
  QCheck2.Test.make ~name:"ints round-trip through print and parse" ~count:1000
    QCheck2.Gen.(oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0 ] ])
    (fun i ->
      let text = Term.to_string (Term.int i) in
      text = string_of_int i
      &&
      match Coral_lang.Parser.term text with
      | Ok t -> Term.equal t (Term.int i)
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Bindenv & unification: the Figure 2 example                        *)
(* ------------------------------------------------------------------ *)

let test_figure2 () =
  (* f(X, 10, Y) with X -> 25 and Y -> Z in env1, Z -> 50 in env2. *)
  let x = Term.var ~name:"X" 0
  and y = Term.var ~name:"Y" 1
  and z = Term.var ~name:"Z" 0 in
  let t = Term.app f [| x; Term.int 10; y |] in
  let env1 = Bindenv.create 2 and env2 = Bindenv.create 1 in
  Bindenv.bind env1 0 (Term.int 25) Bindenv.empty;
  Bindenv.bind env1 1 z env2;
  Bindenv.bind env2 0 (Term.int 50) Bindenv.empty;
  let resolved = Unify.resolve t env1 in
  Alcotest.check term_testable "figure 2 resolution"
    (Term.app f [| Term.int 25; Term.int 10; Term.int 50 |])
    resolved;
  let value, _ = Bindenv.deref y env1 in
  Alcotest.check term_testable "deref across environments" (Term.int 50) value

let test_unify_basic () =
  let tr = Trail.create () in
  let env = Bindenv.create 4 in
  let x = Term.var 0 and y = Term.var 1 in
  let t1 = Term.app f [| x; Term.int 10; y |] in
  let t2 = Term.app f [| Term.int 25; Term.int 10; Term.app g [| x |] |] in
  Alcotest.(check bool) "unifies" true (Unify.unify tr t1 env t2 env);
  Alcotest.check term_testable "X bound" (Term.int 25) (Unify.resolve x env);
  Alcotest.check term_testable "Y bound to g(25)"
    (Term.app g [| Term.int 25 |])
    (Unify.resolve y env);
  (* Backtracking through the trail *)
  Trail.undo_to tr 0;
  Alcotest.(check bool) "X unbound after undo" false (Bindenv.is_bound env 0);
  Alcotest.(check bool) "Y unbound after undo" false (Bindenv.is_bound env 1)

let test_unify_failure_modes () =
  let tr = Trail.create () in
  let env = Bindenv.create 4 in
  let check name a b expected =
    let m = Trail.mark tr in
    let r = Unify.unify tr a env b env in
    Trail.undo_to tr m;
    Alcotest.(check bool) name expected r
  in
  check "clash symbols" (Term.atom "a") (Term.atom "b") false;
  check "clash arity" (Term.app f [| Term.int 1 |]) (Term.app f [| Term.int 1; Term.int 2 |]) false;
  check "clash const" (Term.int 1) (Term.int 2) false;
  check "int vs double" (Term.int 1) (Term.double 1.0) false;
  check "const vs app" (Term.int 1) (Term.atom "one") false;
  check "same var" (Term.var 2) (Term.var 2) true;
  check "ground fast path" (Term.app f [| Term.int 1 |]) (Term.app f [| Term.int 1 |]) true

let test_match_one_way () =
  let tr = Trail.create () in
  let pe = Bindenv.create 2 and oe = Bindenv.create 2 in
  let pat = Term.app f [| Term.var 0; Term.int 1 |] in
  let obj_var = Term.app f [| Term.var 0; Term.int 1 |] in
  Alcotest.(check bool) "pattern var binds to object var" true
    (Unify.match_ tr pat pe obj_var oe);
  Trail.undo_to tr 0;
  (* Object variables must never be bound by matching. *)
  let pat_ground = Term.app f [| Term.int 7; Term.int 1 |] in
  Alcotest.(check bool) "ground pattern does not match object var" false
    (Unify.match_ tr pat_ground pe obj_var oe);
  Trail.undo_to tr 0;
  Alcotest.(check bool) "object vars untouched" false (Bindenv.is_bound oe 0)

let test_subsumption () =
  let tup terms = fst (Unify.canonicalize (Array.of_list terms) Bindenv.empty) in
  let p_xy = tup [ Term.var 10; Term.var 11 ] in
  let p_xx = tup [ Term.var 10; Term.var 10 ] in
  let p_1y = tup [ Term.int 1; Term.var 11 ] in
  let p_12 = tup [ Term.int 1; Term.int 2 ] in
  let sub a na b nb = Unify.subsumes (a, na) (b, nb) in
  Alcotest.(check bool) "p(X,Y) subsumes p(1,2)" true (sub p_xy 2 p_12 0);
  Alcotest.(check bool) "p(1,2) does not subsume p(X,Y)" false (sub p_12 0 p_xy 2);
  Alcotest.(check bool) "p(X,Y) subsumes p(X,X)" true (sub p_xy 2 p_xx 1);
  Alcotest.(check bool) "p(X,X) does not subsume p(1,2)" false (sub p_xx 1 p_12 0);
  Alcotest.(check bool) "p(X,X) subsumes p(3,3)" true (sub p_xx 1 (tup [ Term.int 3; Term.int 3 ]) 0);
  Alcotest.(check bool) "p(1,Y) subsumes p(1,2)" true (sub p_1y 1 p_12 0);
  Alcotest.(check bool) "p(1,Y) does not subsume p(2,2)" false
    (sub p_1y 1 (tup [ Term.int 2; Term.int 2 ]) 0)

let test_variant () =
  let tup terms = fst (Unify.canonicalize (Array.of_list terms) Bindenv.empty) in
  let a = tup [ Term.var 3; Term.var 4; Term.var 3 ] in
  let b = tup [ Term.var 8; Term.var 9; Term.var 8 ] in
  let c = tup [ Term.var 8; Term.var 9; Term.var 9 ] in
  Alcotest.(check bool) "variants" true (Unify.variant a b);
  Alcotest.(check bool) "sharing pattern differs" false (Unify.variant a c);
  Alcotest.(check bool) "ground variant is equality" true
    (Unify.variant [| Term.int 1 |] [| Term.int 1 |])

let test_canonicalize_across_envs () =
  (* Two distinct unbound variables that share a vid but live in
     different environments must canonicalize to distinct variables. *)
  let env_rule = Bindenv.create 2 in
  let env_a = Bindenv.create 1 and env_b = Bindenv.create 1 in
  Bindenv.bind env_rule 0 (Term.var 0) env_a;
  Bindenv.bind env_rule 1 (Term.var 0) env_b;
  let tuple = [| Term.var 0; Term.var 1 |] in
  let canon, n = Unify.canonicalize tuple env_rule in
  Alcotest.(check int) "two distinct variables" 2 n;
  Alcotest.(check bool) "not conflated" false (Term.equal canon.(0) canon.(1));
  (* And the same variable reached twice stays one variable. *)
  Bindenv.set_unbound env_rule 1;
  Bindenv.bind env_rule 1 (Term.var 0) env_a;
  let canon, n = Unify.canonicalize tuple env_rule in
  Alcotest.(check int) "one shared variable" 1 n;
  Alcotest.(check bool) "conflated" true (Term.equal canon.(0) canon.(1))

(* Random term pairs: if unification succeeds, both sides resolve to
   equal terms. *)
let prop_unify_sound =
  let gen_term =
    QCheck2.Gen.(
      sized
      @@ fix (fun self n ->
             let leaf =
               oneof [ map Term.int (int_range 0 3); map (fun i -> Term.var i) (int_range 0 2) ]
             in
             if n <= 0 then leaf
             else
               oneof
                 [ leaf;
                   map2
                     (fun sym args -> Term.app (Symbol.intern sym) (Array.of_list args))
                     (oneofl [ "f"; "g" ])
                     (list_size (int_range 1 2) (self (n / 2)))
                 ]))
  in
  QCheck2.Test.make ~name:"unification soundness: unifier makes terms equal" ~count:1000
    QCheck2.Gen.(pair gen_term gen_term)
    (fun (t1, t2) ->
      (* the occurs-checked variant: random term pairs can otherwise
         build cyclic bindings across the two environments, on which
         [resolve] would not terminate (CORAL, like Prolog, accepts
         that in exchange for unification speed) *)
      let tr = Trail.create () in
      let e1 = Bindenv.create 3 and e2 = Bindenv.create 3 in
      if Unify.unify_occurs tr t1 e1 t2 e2 then
        Term.equal (Unify.resolve t1 e1) (Unify.resolve t2 e2)
      else true)

let prop_variant_reflexive =
  let gen_tuple =
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (oneof [ map Term.int (int_range 0 3); map (fun i -> Term.var i) (int_range 0 3) ]))
  in
  QCheck2.Test.make ~name:"canonicalized tuples are variants of themselves" ~count:500 gen_tuple
    (fun terms ->
      let arr = Array.of_list terms in
      let c1, n1 = Unify.canonicalize arr Bindenv.empty in
      let c2, n2 = Unify.canonicalize arr Bindenv.empty in
      n1 = n2 && Unify.variant c1 c2 && Unify.subsumes (c1, n1) (c2, n2))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_term"
    [ ( "bignum",
        [ Alcotest.test_case "basics" `Quick test_bignum_basics;
          Alcotest.test_case "strings" `Quick test_bignum_string;
          Alcotest.test_case "arithmetic" `Quick test_bignum_arith
        ]
        @ qcheck [ prop_bignum_matches_int; prop_bignum_string_roundtrip ] );
      ( "hashcons",
        [ Alcotest.test_case "ground ids" `Quick test_hashcons_ground;
          Alcotest.test_case "non-ground" `Quick test_hashcons_nonground
        ]
        @ qcheck [ prop_hashcons_id_iff_equal ] );
      ("lists", [ Alcotest.test_case "round trips" `Quick test_lists ]);
      ( "printing",
        [ Alcotest.test_case "golden table" `Quick test_printer_golden;
          Alcotest.test_case "int digits" `Quick test_int_digits
        ]
        @ qcheck [ prop_int_print_parse ] );
      ( "unify",
        [ Alcotest.test_case "figure 2" `Quick test_figure2;
          Alcotest.test_case "basic" `Quick test_unify_basic;
          Alcotest.test_case "failure modes" `Quick test_unify_failure_modes;
          Alcotest.test_case "one-way match" `Quick test_match_one_way;
          Alcotest.test_case "subsumption" `Quick test_subsumption;
          Alcotest.test_case "variants" `Quick test_variant;
          Alcotest.test_case "canonicalize across envs" `Quick test_canonicalize_across_envs
        ]
        @ qcheck [ prop_unify_sound; prop_variant_reflexive ] )
    ]
