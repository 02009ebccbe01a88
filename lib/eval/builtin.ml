open Coral_term
open Coral_lang

exception Eval_error of string

let sym_plus = Symbol.intern "+"
let sym_minus = Symbol.intern "-"
let sym_star = Symbol.intern "*"
let sym_slash = Symbol.intern "/"
let sym_mod = Symbol.intern "mod"

let is_arith sym =
  Symbol.equal sym sym_plus || Symbol.equal sym sym_minus || Symbol.equal sym sym_star
  || Symbol.equal sym sym_slash || Symbol.equal sym sym_mod

let arith_op sym (a : Value.t) (b : Value.t) : Value.t =
  let float_op x y =
    if Symbol.equal sym sym_plus then x +. y
    else if Symbol.equal sym sym_minus then x -. y
    else if Symbol.equal sym sym_star then x *. y
    else if Symbol.equal sym sym_slash then x /. y
    else Float.rem x y
  in
  let int_op x y =
    if Symbol.equal sym sym_plus then x + y
    else if Symbol.equal sym sym_minus then x - y
    else if Symbol.equal sym sym_star then x * y
    else if Symbol.equal sym sym_slash then begin
      if y = 0 then raise (Eval_error "division by zero");
      x / y
    end
    else begin
      if y = 0 then raise (Eval_error "mod by zero");
      x mod y
    end
  in
  let big_op x y =
    if Symbol.equal sym sym_plus then Bignum.add x y
    else if Symbol.equal sym sym_minus then Bignum.sub x y
    else if Symbol.equal sym sym_star then Bignum.mul x y
    else if Symbol.equal sym sym_slash then begin
      if Bignum.sign y = 0 then raise (Eval_error "division by zero");
      Bignum.div x y
    end
    else begin
      if Bignum.sign y = 0 then raise (Eval_error "mod by zero");
      Bignum.rem x y
    end
  in
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | Value.Double x, Value.Double y -> Value.Double (float_op x y)
  | Value.Int x, Value.Double y -> Value.Double (float_op (float_of_int x) y)
  | Value.Double x, Value.Int y -> Value.Double (float_op x (float_of_int y))
  | Value.Big x, Value.Big y -> Value.Big (big_op x y)
  | Value.Big x, Value.Int y -> Value.Big (big_op x (Bignum.of_int y))
  | Value.Int x, Value.Big y -> Value.Big (big_op (Bignum.of_int x) y)
  | Value.Big x, Value.Double y ->
    Value.Double (float_op (float_of_string (Bignum.to_string x)) y)
  | Value.Double x, Value.Big y ->
    Value.Double (float_op x (float_of_string (Bignum.to_string y)))
  | (Value.Str _, _ | _, Value.Str _) ->
    raise (Eval_error "arithmetic on a string value")
  | (Value.Opaque _, _ | _, Value.Opaque _) ->
    raise (Eval_error "arithmetic on an opaque value")

(* Arithmetic is reduced on the spine of arithmetic operators only:
   [1 + 2 * X] reduces as far as groundness allows, but arithmetic
   nested under ordinary functors is kept symbolic (as in CORAL, where
   evaluation happens at '=' and comparison literals). *)
let rec eval_term t env =
  let t, env = Bindenv.deref t env in
  match t with
  | Term.App a when is_arith a.Term.sym && Array.length a.Term.args = 2 ->
    let x = eval_term a.Term.args.(0) env and y = eval_term a.Term.args.(1) env in
    (match x, y with
    | Term.Const va, Term.Const vb -> Term.Const (arith_op a.Term.sym va vb)
    | _ -> Term.App { Term.sym = a.Term.sym; args = [| x; y |]; hid = 0; gkey = 0 })
  | _ -> Unify.resolve t env

let compare_terms op t1 e1 t2 e2 =
  let a = eval_term t1 e1 and b = eval_term t2 e2 in
  match (op : Ast.cmp_op) with
  | Ast.Eq_cmp -> Term.equal a b
  | Ast.Ne -> not (Term.equal a b)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> begin
    let c =
      match a, b with
      | Term.Const va, Term.Const vb -> Value.compare va vb
      | _ ->
        if Term.is_ground a && Term.is_ground b then Term.compare a b
        else raise (Eval_error "order comparison on unbound operands")
    in
    match op with
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Eq_cmp | Ast.Ne -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Stock foreign predicates                                           *)
(* ------------------------------------------------------------------ *)

type solver = Term.t array -> Bindenv.t -> Term.t array Seq.t

type foreign = { fname : string; farity : int; fsolve : solver }

let resolve_arg args env i = Unify.resolve args.(i) env

let append_solver args env =
  let l1 = resolve_arg args env 0
  and l2 = resolve_arg args env 1
  and l3 = resolve_arg args env 2 in
  match Term.to_list l1 with
  | Some items ->
    (* forward mode: third argument is first ++ second *)
    Seq.return [| l1; l2; List.fold_right Term.cons items l2 |]
  | None -> begin
    (* splitting mode: enumerate splits of a ground third argument *)
    match Term.to_list l3 with
    | Some items ->
      let rec splits prefix rest acc =
        let l1 = Term.list_of (List.rev prefix) in
        let l2 = Term.list_of rest in
        let acc = [| l1; l2; l3 |] :: acc in
        match rest with
        | [] -> List.rev acc
        | x :: rest' -> splits (x :: prefix) rest' acc
      in
      List.to_seq (splits [] items [])
    | None -> Seq.empty
  end

let member_solver args env =
  let x = resolve_arg args env 0 and l = resolve_arg args env 1 in
  match Term.to_list l with
  | Some items -> Seq.map (fun item -> [| item; l |]) (List.to_seq items)
  | None -> ignore x; Seq.empty

let length_solver args env =
  let l = resolve_arg args env 0 in
  match Term.to_list l with
  | Some items -> Seq.return [| l; Term.int (List.length items) |]
  | None -> Seq.empty

let between_solver args env =
  let lo = eval_term args.(0) env and hi = eval_term args.(1) env in
  match lo, hi with
  | Term.Const (Value.Int lo), Term.Const (Value.Int hi) ->
    Seq.init (max 0 (hi - lo + 1)) (fun i -> [| Term.int lo; Term.int hi; Term.int (lo + i) |])
  | _ -> Seq.empty

let write_solver ~newline args env =
  let t = resolve_arg args env 0 in
  print_string (Term.to_string t);
  if newline then print_newline ();
  Seq.return [| t |]

(* numeric helpers producing a single answer row from ground inputs *)
let unary_num name f args env =
  match eval_term args.(0) env with
  | Term.Const v as t -> begin
    match f v with
    | Some out -> Seq.return [| t; Term.Const out |]
    | None -> raise (Eval_error (name ^ ": non-numeric argument"))
  end
  | _ -> Seq.empty

let abs_solver =
  unary_num "abs" (function
    | Value.Int i -> Some (Value.Int (abs i))
    | Value.Double f -> Some (Value.Double (Float.abs f))
    | Value.Big b -> Some (Value.Big (Bignum.abs b))
    | Value.Str _ | Value.Opaque _ -> None)

let binary_pick name pick args env =
  let a = eval_term args.(0) env and b = eval_term args.(1) env in
  match a, b with
  | Term.Const va, Term.Const vb ->
    Seq.return [| a; b; (if pick (Value.compare va vb) then a else b) |]
  | _ -> raise (Eval_error (name ^ ": unbound arguments"))

let gcd_solver args env =
  match eval_term args.(0) env, eval_term args.(1) env with
  | Term.Const (Value.Int a), Term.Const (Value.Int b) ->
    let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
    Seq.return [| Term.int a; Term.int b; Term.int (gcd a b) |]
  | _ -> Seq.empty

let string_concat_solver args env =
  match resolve_arg args env 0, resolve_arg args env 1 with
  | Term.Const (Value.Str a), Term.Const (Value.Str b) ->
    Seq.return [| Term.str a; Term.str b; Term.str (a ^ b) |]
  | _ -> Seq.empty

let string_length_solver args env =
  match resolve_arg args env 0 with
  | Term.Const (Value.Str s) as t -> Seq.return [| t; Term.int (String.length s) |]
  | _ -> Seq.empty

let term_to_string_solver args env =
  let t = resolve_arg args env 0 in
  if Term.is_ground t then Seq.return [| t; Term.str (Term.to_string t) |] else Seq.empty

let nth_solver args env =
  (* nth(Index, List, Element), 0-based; enumerates when Index is free *)
  let l = resolve_arg args env 1 in
  match Term.to_list l with
  | Some items ->
    Seq.mapi (fun i item -> [| Term.int i; l; item |]) (List.to_seq items)
  | None -> Seq.empty

let reverse_solver args env =
  match Term.to_list (resolve_arg args env 0) with
  | Some items ->
    let l = resolve_arg args env 0 in
    Seq.return [| l; Term.list_of (List.rev items) |]
  | None -> Seq.empty

let sort_solver args env =
  match Term.to_list (resolve_arg args env 0) with
  | Some items ->
    let l = resolve_arg args env 0 in
    Seq.return [| l; Term.list_of (List.sort_uniq Term.compare items) |]
  | None -> Seq.empty

let sum_list_solver args env =
  match Term.to_list (resolve_arg args env 0) with
  | Some items ->
    let l = resolve_arg args env 0 in
    let total =
      List.fold_left
        (fun acc t ->
          match (t : Term.t) with
          | Term.Const v when Value.is_numeric v -> arith_op sym_plus acc v
          | _ -> raise (Eval_error "sum_list: non-numeric element"))
        (Value.Int 0) items
    in
    Seq.return [| l; Term.Const total |]
  | None -> Seq.empty

let stock =
  [ { fname = "append"; farity = 3; fsolve = append_solver };
    { fname = "member"; farity = 2; fsolve = member_solver };
    { fname = "length"; farity = 2; fsolve = length_solver };
    { fname = "between"; farity = 3; fsolve = between_solver };
    { fname = "write"; farity = 1; fsolve = write_solver ~newline:false };
    { fname = "writeln"; farity = 1; fsolve = write_solver ~newline:true };
    { fname = "abs"; farity = 2; fsolve = abs_solver };
    { fname = "min_of"; farity = 3; fsolve = binary_pick "min_of" (fun c -> c <= 0) };
    { fname = "max_of"; farity = 3; fsolve = binary_pick "max_of" (fun c -> c >= 0) };
    { fname = "gcd"; farity = 3; fsolve = gcd_solver };
    { fname = "string_concat"; farity = 3; fsolve = string_concat_solver };
    { fname = "string_length"; farity = 2; fsolve = string_length_solver };
    { fname = "term_to_string"; farity = 2; fsolve = term_to_string_solver };
    { fname = "nth"; farity = 3; fsolve = nth_solver };
    { fname = "reverse"; farity = 2; fsolve = reverse_solver };
    { fname = "sort"; farity = 2; fsolve = sort_solver };
    { fname = "sum_list"; farity = 2; fsolve = sum_list_solver }
  ]
