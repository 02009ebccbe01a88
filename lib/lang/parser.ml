open Coral_term
open Lexer

type error = { message : string; pos : Lexer.pos }

let pp_error ppf e =
  Format.fprintf ppf "parse error at line %d, column %d: %s" e.pos.line e.pos.col e.message

exception Fail of error

type state = {
  toks : (token * Lexer.pos) array;
  mutable pos : int;
  (* clause-local variable numbering *)
  mutable varmap : (string, Term.t) Hashtbl.t;
  mutable nextvar : int;
}

let fail st message =
  let _, pos = st.toks.(min st.pos (Array.length st.toks - 1)) in
  raise (Fail { message; pos })

let peek st = fst st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else EOF
let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st else fail st (Printf.sprintf "expected %s" what)

let reset_clause st =
  st.varmap <- Hashtbl.create 8;
  st.nextvar <- 0

let clause_var st name =
  if String.equal name "_" then begin
    let v = Term.var ~name:"_" st.nextvar in
    st.nextvar <- st.nextvar + 1;
    v
  end
  else begin
    match Hashtbl.find_opt st.varmap name with
    | Some v -> v
    | None ->
      let v = Term.var ~name st.nextvar in
      st.nextvar <- st.nextvar + 1;
      Hashtbl.add st.varmap name v;
      v
  end

let sym_plus = Symbol.intern "+"
let sym_minus = Symbol.intern "-"
let sym_star = Symbol.intern "*"
let sym_slash = Symbol.intern "/"
let sym_mod = Symbol.intern "mod"

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_term st = parse_additive st

and parse_additive st =
  let lhs = parse_mult st in
  let rec loop lhs =
    match peek st with
    | PLUS ->
      advance st;
      loop (Term.app sym_plus [| lhs; parse_mult st |])
    | MINUS ->
      advance st;
      loop (Term.app sym_minus [| lhs; parse_mult st |])
    | _ -> lhs
  in
  loop lhs

and parse_mult st =
  let lhs = parse_unary st in
  let rec loop lhs =
    match peek st with
    | STAR ->
      advance st;
      loop (Term.app sym_star [| lhs; parse_unary st |])
    | SLASH ->
      advance st;
      loop (Term.app sym_slash [| lhs; parse_unary st |])
    | IDENT "mod" ->
      advance st;
      loop (Term.app sym_mod [| lhs; parse_unary st |])
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  match peek st with
  | MINUS -> begin
    advance st;
    match peek st with
    | INT i ->
      advance st;
      Term.int (-i)
    | FLOAT f ->
      advance st;
      Term.double (-.f)
    | BIG s -> begin
      advance st;
      (* min_int's digits overflow an int only without the sign *)
      match int_of_string_opt ("-" ^ s) with
      | Some i -> Term.int i
      | None -> Term.big (Bignum.neg (Bignum.of_string s))
    end
    | _ -> Term.app sym_minus [| Term.int 0; parse_unary st |]
  end
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | INT i ->
    advance st;
    Term.int i
  | BIG s ->
    advance st;
    Term.big (Bignum.of_string s)
  | FLOAT f ->
    advance st;
    Term.double f
  | STRING s ->
    advance st;
    Term.str s
  | VAR name ->
    advance st;
    clause_var st name
  | LPAREN ->
    advance st;
    let t = parse_term st in
    expect st RPAREN "')'";
    t
  | LBRACKET -> parse_list st
  | IDENT name -> begin
    advance st;
    match peek st with
    | LPAREN ->
      advance st;
      let args = parse_term_list st in
      expect st RPAREN "')'";
      Term.app (Symbol.intern name) (Array.of_list args)
    | _ -> Term.atom name
  end
  | _ -> fail st "expected a term"

and parse_term_list st =
  let first = parse_term st in
  let rec loop acc =
    match peek st with
    | COMMA ->
      advance st;
      loop (parse_term st :: acc)
    | _ -> List.rev acc
  in
  loop [ first ]

and parse_list st =
  expect st LBRACKET "'['";
  match peek st with
  | RBRACKET ->
    advance st;
    Term.nil
  | _ ->
    let elements = parse_term_list st in
    let tail =
      match peek st with
      | PIPE ->
        advance st;
        parse_term st
      | _ -> Term.nil
    in
    expect st RBRACKET "']'";
    List.fold_right Term.cons elements tail

(* ------------------------------------------------------------------ *)
(* Atoms and literals                                                 *)
(* ------------------------------------------------------------------ *)

let as_atom st (t : Term.t) : Ast.atom =
  match t with
  | Term.App a -> { Ast.pred = a.Term.sym; args = a.Term.args }
  | Term.Const _ | Term.Var _ -> fail st "expected a predicate atom"

let parse_atom st =
  let t = parse_primary st in
  as_atom st t

let parse_literal st =
  match peek st with
  | IDENT "not" ->
    (* both [not p(X)] and [not (p(X))]: parse_primary handles parens *)
    advance st;
    Ast.Neg (parse_atom st)
  | _ ->
    let lhs = parse_term st in
    let cmp op =
      advance st;
      let rhs = parse_term st in
      Ast.Cmp (op, lhs, rhs)
    in
    (match peek st with
    | LT -> cmp Ast.Lt
    | LE -> cmp Ast.Le
    | GT -> cmp Ast.Gt
    | GE -> cmp Ast.Ge
    | EQEQ -> cmp Ast.Eq_cmp
    | NE -> cmp Ast.Ne
    | EQ ->
      advance st;
      let rhs = parse_term st in
      Ast.Is (lhs, rhs)
    | _ -> Ast.Pos (as_atom st lhs))

let parse_body st =
  let first = parse_literal st in
  let rec loop acc =
    match peek st with
    | COMMA ->
      advance st;
      loop (parse_literal st :: acc)
    | _ -> List.rev acc
  in
  loop [ first ]

(* ------------------------------------------------------------------ *)
(* Rule heads (aggregation, set-grouping)                             *)
(* ------------------------------------------------------------------ *)

let parse_head_arg st : Ast.head_arg =
  match peek st with
  | LT ->
    (* set-grouping <X> *)
    advance st;
    let t = parse_term st in
    expect st GT "'>' closing set-grouping";
    Ast.Agg (Ast.Collect, t)
  | _ -> begin
    let t = parse_term st in
    match t with
    | Term.App { sym; args = [| inner |]; _ } -> begin
      match Ast.agg_op_of_name (Symbol.name sym) with
      | Some op -> Ast.Agg (op, inner)
      | None -> Ast.Plain t
    end
    | _ -> Ast.Plain t
  end

let parse_head st : Ast.head =
  match peek st with
  | IDENT name -> begin
    advance st;
    match peek st with
    | LPAREN ->
      advance st;
      let first = parse_head_arg st in
      let rec loop acc =
        match peek st with
        | COMMA ->
          advance st;
          loop (parse_head_arg st :: acc)
        | _ -> List.rev acc
      in
      let args = loop [ first ] in
      expect st RPAREN "')'";
      { Ast.hpred = Symbol.intern name; hargs = Array.of_list args }
    | _ -> { Ast.hpred = Symbol.intern name; hargs = [||] }
  end
  | _ -> fail st "expected a rule head"

let parse_rule st =
  reset_clause st;
  let head = parse_head st in
  let body =
    match peek st with
    | IMPLIED_BY ->
      advance st;
      parse_body st
    | _ -> []
  in
  expect st DOT "'.' ending the clause";
  { Ast.head; body }

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_paren_terms st =
  expect st LPAREN "'('";
  match peek st with
  | RPAREN ->
    advance st;
    []
  | _ ->
    let ts = parse_term_list st in
    expect st RPAREN "')'";
    ts

let parse_annotation st : Ast.annotation =
  (* called with current token at the identifier following '@' *)
  let name = match peek st with IDENT n -> n | _ -> fail st "expected annotation name" in
  advance st;
  let simple ann =
    expect st DOT "'.' ending the annotation";
    ann
  in
  match name with
  | "materialized" -> simple Ast.Ann_materialized
  | "pipelined" | "pipelining" -> simple Ast.Ann_pipelined
  | "save_module" -> simple Ast.Ann_save_module
  | "lazy" | "lazy_eval" -> simple Ast.Ann_lazy_eval
  | "no_rewriting" -> simple (Ast.Ann_rewriting Ast.No_rewriting)
  | "magic" -> simple (Ast.Ann_rewriting Ast.Magic)
  | "supplementary_magic" | "sup_magic" -> simple (Ast.Ann_rewriting Ast.Supplementary_magic)
  | "supplementary_magic_goal_id" | "sup_magic_goal_id" ->
    simple (Ast.Ann_rewriting Ast.Supplementary_magic_goal_id)
  | "factoring" -> simple (Ast.Ann_rewriting Ast.Factoring)
  | "no_existential" -> simple Ast.Ann_no_existential
  | "sip" -> begin
    expect st LPAREN "'('";
    let strategy =
      match peek st with
      | IDENT "left_to_right" -> Ast.Left_to_right
      | IDENT "max_bound" -> Ast.Max_bound
      | _ -> fail st "expected left_to_right or max_bound"
    in
    advance st;
    expect st RPAREN "')'";
    expect st DOT "'.'";
    Ast.Ann_sip strategy
  end
  | "bsn" -> simple (Ast.Ann_fixpoint Ast.Basic_seminaive)
  | "psn" -> simple (Ast.Ann_fixpoint Ast.Predicate_seminaive)
  | "naive" -> simple (Ast.Ann_fixpoint Ast.Naive)
  | "ordered_search" -> simple (Ast.Ann_fixpoint Ast.Ordered_search)
  | "multiset" -> begin
    (* @multiset p(2). or @multiset p/2. *)
    match peek st with
    | IDENT pred -> begin
      advance st;
      match peek st with
      | LPAREN ->
        advance st;
        let arity =
          match peek st with
          | INT n ->
            advance st;
            n
          | _ -> fail st "expected arity"
        in
        expect st RPAREN "')'";
        expect st DOT "'.'";
        Ast.Ann_multiset (Symbol.intern pred, arity)
      | SLASH ->
        advance st;
        let arity =
          match peek st with
          | INT n ->
            advance st;
            n
          | _ -> fail st "expected arity"
        in
        expect st DOT "'.'";
        Ast.Ann_multiset (Symbol.intern pred, arity)
      | _ -> fail st "expected predicate arity"
    end
    | _ -> fail st "expected predicate name"
  end
  | "aggregate_selection" ->
    reset_clause st;
    let pattern_atom = parse_atom st in
    let group_by = parse_paren_terms st in
    let op_term = parse_primary st in
    expect st DOT "'.' ending the annotation";
    let op, target =
      match op_term with
      | Term.App { sym; args = [| arg |]; _ } -> begin
        match Ast.agg_op_of_name (Symbol.name sym) with
        | Some op -> op, arg
        | None -> fail st "expected an aggregate operation (min/max/sum/count/avg/any)"
      end
      | _ -> fail st "expected an aggregate operation applied to one argument"
    in
    Ast.Ann_aggregate_selection
      { sel_pred = pattern_atom.Ast.pred;
        pattern = pattern_atom.Ast.args;
        group_by = Array.of_list group_by;
        op;
        target
      }
  | "make_index" ->
    reset_clause st;
    let pattern_atom = parse_atom st in
    let keys = parse_paren_terms st in
    expect st DOT "'.' ending the annotation";
    Ast.Ann_make_index
      { idx_pred = pattern_atom.Ast.pred; pattern = pattern_atom.Ast.args; keys }
  | other -> fail st (Printf.sprintf "unknown annotation @%s" other)

(* ------------------------------------------------------------------ *)
(* Modules and programs                                               *)
(* ------------------------------------------------------------------ *)

let parse_export st =
  (* current token is just past 'export' *)
  reset_clause st;
  let pred = match peek st with IDENT n -> n | _ -> fail st "expected predicate name" in
  advance st;
  expect st LPAREN "'('";
  let adorn_text =
    match peek st with
    | IDENT s -> s
    | _ -> fail st "expected adornment (a string of 'b'/'f')"
  in
  advance st;
  expect st RPAREN "')'";
  expect st DOT "'.'";
  let adorn =
    try Ast.adornment_of_string adorn_text
    with Invalid_argument _ -> fail st "adornment must consist of 'b' and 'f'"
  in
  { Ast.epred = Symbol.intern pred; arity = Array.length adorn; adorn }

let parse_module st =
  (* current token is just past 'module' *)
  let mname = match peek st with IDENT n -> n | _ -> fail st "expected module name" in
  advance st;
  expect st DOT "'.'";
  let exports = ref [] and annotations = ref [] and rules = ref [] in
  let rec loop () =
    match peek st with
    | IDENT "end_module" ->
      advance st;
      expect st DOT "'.'"
    | IDENT "export" ->
      advance st;
      exports := parse_export st :: !exports;
      loop ()
    | AT ->
      advance st;
      annotations := parse_annotation st :: !annotations;
      loop ()
    | EOF -> fail st "unterminated module (missing end_module)"
    | _ ->
      rules := parse_rule st :: !rules;
      loop ()
  in
  loop ();
  { Ast.mname;
    exports = List.rev !exports;
    annotations = List.rev !annotations;
    rules = List.rev !rules
  }

(* [insert f(...).] / [retract f(...).]: the update keyword followed by
   another identifier (so predicates actually named insert/retract keep
   parsing as ordinary atoms: the fact form is [insert(...)]). *)
let parse_update st op : Ast.item =
  advance st;
  reset_clause st;
  let a = parse_atom st in
  expect st DOT "'.' ending the update";
  if not (Array.for_all Term.is_ground a.Ast.args) then
    fail st
      (Printf.sprintf "%s expects a ground fact (no variables)" (Ast.update_op_name op));
  Ast.Update (op, a)

let parse_item st : Ast.item =
  match peek st with
  | IDENT "module" when peek2 st <> LPAREN ->
    advance st;
    Ast.Module_item (parse_module st)
  | IDENT "insert" when (match peek2 st with IDENT _ -> true | _ -> false) ->
    parse_update st Ast.Upd_insert
  | IDENT "retract" when (match peek2 st with IDENT _ -> true | _ -> false) ->
    parse_update st Ast.Upd_retract
  | QUERY ->
    advance st;
    reset_clause st;
    let body = parse_body st in
    expect st DOT "'.'";
    Ast.Query body
  | AT -> begin
    advance st;
    (* top-level commands share annotation syntax: @name(args). *)
    match peek st with
    | IDENT name when peek2 st = LPAREN ->
      advance st;
      reset_clause st;
      let args = parse_paren_terms st in
      expect st DOT "'.'";
      Ast.Command (name, args)
    | _ -> fail st "expected a command after '@'"
  end
  | _ ->
    let rule = parse_rule st in
    if rule.Ast.body = [] && Ast.head_is_plain rule.Ast.head then
      Ast.Fact (Ast.atom_of_head rule.Ast.head)
    else Ast.Clause_item rule

let make_state src =
  { toks = Lexer.tokenize src; pos = 0; varmap = Hashtbl.create 8; nextvar = 0 }

let wrap f src =
  match f (make_state src) with
  | v -> Ok v
  | exception Fail e -> Error e
  | exception Lexer.Error (message, pos) -> Error { message; pos }

let program src =
  wrap
    (fun st ->
      let items = ref [] in
      while peek st <> EOF do
        items := parse_item st :: !items
      done;
      List.rev !items)
    src

let query src =
  wrap
    (fun st ->
      if peek st = QUERY then advance st;
      let body = parse_body st in
      if peek st = DOT then advance st;
      expect st EOF "end of query";
      body)
    src

let term src =
  wrap
    (fun st ->
      let t = parse_term st in
      if peek st = DOT then advance st;
      expect st EOF "end of term";
      t)
    src
