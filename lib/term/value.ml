type ops = {
  o_name : string;
  o_equal : exn -> exn -> bool;
  o_compare : exn -> exn -> int;
  o_hash : exn -> int;
  o_print : Format.formatter -> exn -> unit;
  o_parse : (string -> exn) option;
}

type t =
  | Int of int
  | Double of float
  | Str of string
  | Big of Bignum.t
  | Opaque of ops * exn

let int i = Int i
let double f = Double f
let str s = Str s
let big b = Big b
let opaque ops v = Opaque (ops, v)

let make_ops ~name ?compare ?hash ?parse ~print () =
  let printed v = Format.asprintf "%a" print v in
  let o_compare =
    match compare with Some c -> c | None -> fun a b -> String.compare (printed a) (printed b)
  in
  { o_name = name;
    o_equal = (fun a b -> o_compare a b = 0);
    o_compare;
    o_hash = (match hash with Some h -> h | None -> fun v -> Hashtbl.hash (printed v));
    o_print = print;
    o_parse = parse
  }

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Double x, Double y -> x = y
  | Str x, Str y -> String.equal x y
  | Big x, Big y -> Bignum.equal x y
  | Opaque (opsa, va), Opaque (opsb, vb) ->
    String.equal opsa.o_name opsb.o_name && opsa.o_equal va vb
  | (Int _ | Double _ | Str _ | Big _ | Opaque _), _ -> false

(* Numeric values order by numeric value across representations so that
   aggregate selections like min(C) behave sensibly on mixed data;
   strings sort after all numbers, opaque values after strings. *)
let rank = function Int _ | Double _ | Big _ -> 0 | Str _ -> 1 | Opaque _ -> 2

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Double x, Double y -> Float.compare x y
  | Big x, Big y -> Bignum.compare x y
  | Str x, Str y -> String.compare x y
  | Int x, Double y -> Float.compare (float_of_int x) y
  | Double x, Int y -> Float.compare x (float_of_int y)
  | Int x, Big y -> Bignum.compare (Bignum.of_int x) y
  | Big x, Int y -> Bignum.compare x (Bignum.of_int y)
  | Double x, Big y -> Float.compare x (float_of_string (Bignum.to_string y))
  | Big x, Double y -> Float.compare (float_of_string (Bignum.to_string x)) y
  | Opaque (opsa, va), Opaque (opsb, vb) ->
    let c = String.compare opsa.o_name opsb.o_name in
    if c <> 0 then c else opsa.o_compare va vb
  | a, b -> Int.compare (rank a) (rank b)

let hash = function
  | Int i -> i * 0x9e3779b1
  | Double f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Big b -> Bignum.hash b
  | Opaque (ops, v) -> (Hashtbl.hash ops.o_name lxor ops.o_hash v) land max_int

let repr_double f =
  if not (Float.is_finite f) then Printf.sprintf "%g" f
  else begin
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    let s = shortest 1 in
    if String.contains s '.' then s
    else
      match String.index_opt s 'e' with
      | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
      | None -> s ^ ".0"
  end

(* An int's decimal digits, written straight into the buffer (no
   format string, no intermediate string).  The digits are taken from
   the negated value, so min_int, which has no positive counterpart,
   needs no special case. *)
let rec add_digits buf n =
  (* n <= 0 *)
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  add_digits buf (if i < 0 then i else -i)

(* The one value printer: doubles print losslessly ([repr_double]:
   the shortest text that reads back to the same double, always with a
   point or an exponent, so it reads back as a double), strings with
   OCaml %S quoting; only an opaque value's own [o_print] needs
   Format. *)
let to_buffer buf = function
  | Int i -> add_int buf i
  | Double f -> Buffer.add_string buf (repr_double f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  | Big b -> Buffer.add_string buf (Bignum.to_string b)
  | Opaque (ops, v) -> Buffer.add_string buf (Format.asprintf "%a" ops.o_print v)

let pp ppf v =
  let buf = Buffer.create 16 in
  to_buffer buf v;
  Format.pp_print_string ppf (Buffer.contents buf)

let is_numeric = function
  | Int _ | Double _ | Big _ -> true
  | Str _ | Opaque _ -> false

let to_float = function
  | Int i -> Some (float_of_int i)
  | Double f -> Some f
  | Big b -> Some (float_of_string (Bignum.to_string b))
  | Str _ | Opaque _ -> None
