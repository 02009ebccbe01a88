type token =
  | IDENT of string
  | VAR of string
  | INT of int
  | BIG of string
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | PIPE
  | DOT
  | IMPLIED_BY
  | QUERY
  | AT
  | EQ
  | EQEQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

type pos = { line : int; col : int }

exception Error of string * pos

let pp_token ppf t =
  let s =
    match t with
    | IDENT s -> Printf.sprintf "identifier %S" s
    | VAR s -> Printf.sprintf "variable %S" s
    | INT i -> string_of_int i
    | BIG s -> s
    | FLOAT f -> string_of_float f
    | STRING s -> Printf.sprintf "%S" s
    | LPAREN -> "("
    | RPAREN -> ")"
    | LBRACKET -> "["
    | RBRACKET -> "]"
    | COMMA -> ","
    | PIPE -> "|"
    | DOT -> "."
    | IMPLIED_BY -> ":-"
    | QUERY -> "?-"
    | AT -> "@"
    | EQ -> "="
    | EQEQ -> "=="
    | NE -> "!="
    | LT -> "<"
    | LE -> "<="
    | GT -> ">"
    | GE -> ">="
    | PLUS -> "+"
    | MINUS -> "-"
    | STAR -> "*"
    | SLASH -> "/"
    | EOF -> "end of input"
  in
  Format.pp_print_string ppf s

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and bol = ref 0 in
  let pos_at i = { line = !line; col = i - !bol + 1 } in
  let emit i tok = tokens := (tok, pos_at i) :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    (match c with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
      incr i;
      incr line;
      bol := !i
    | '%' ->
      while !i < n && src.[!i] <> '\n' do incr i done
    | '(' -> emit start LPAREN; incr i
    | ')' -> emit start RPAREN; incr i
    | '[' -> emit start LBRACKET; incr i
    | ']' -> emit start RBRACKET; incr i
    | ',' -> emit start COMMA; incr i
    | '|' -> emit start PIPE; incr i
    | '+' -> emit start PLUS; incr i
    | '*' -> emit start STAR; incr i
    | '/' -> emit start SLASH; incr i
    | '@' -> emit start AT; incr i
    | '-' -> emit start MINUS; incr i
    | ':' ->
      if peek 1 = Some '-' then begin
        emit start IMPLIED_BY;
        i := !i + 2
      end
      else raise (Error ("expected ':-'", pos_at start))
    | '?' ->
      if peek 1 = Some '-' then begin
        emit start QUERY;
        i := !i + 2
      end
      else begin
        emit start QUERY;
        incr i
      end
    | '=' ->
      if peek 1 = Some '=' then begin
        emit start EQEQ;
        i := !i + 2
      end
      else begin
        emit start EQ;
        incr i
      end
    | '!' ->
      if peek 1 = Some '=' then begin
        emit start NE;
        i := !i + 2
      end
      else raise (Error ("expected '!='", pos_at start))
    | '<' ->
      if peek 1 = Some '=' then begin
        emit start LE;
        i := !i + 2
      end
      else if peek 1 = Some '>' then begin
        emit start NE;
        i := !i + 2
      end
      else begin
        emit start LT;
        incr i
      end
    | '>' ->
      if peek 1 = Some '=' then begin
        emit start GE;
        i := !i + 2
      end
      else begin
        emit start GT;
        incr i
      end
    | '.' ->
      (* A dot followed by a digit would be a malformed float; a clause
         terminator is a dot not followed by a digit. *)
      if (match peek 1 with Some d -> is_digit d | None -> false) then
        raise (Error ("number cannot start with '.'", pos_at start))
      else begin
        emit start DOT;
        incr i
      end
    | '"' ->
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match src.[!i] with
        | '"' ->
          closed := true;
          incr i
        | '\\' ->
          (* every escape String.escaped (the term printer's quoting)
             emits, so printed strings read back byte for byte *)
          let digit k =
            match peek k with Some d when is_digit d -> Some (Char.code d - 48) | _ -> None
          in
          let consumed =
            match peek 1, digit 1, digit 2, digit 3 with
            | _, Some a, Some b, Some c when (100 * a) + (10 * b) + c < 256 ->
              Buffer.add_char buf (Char.chr ((100 * a) + (10 * b) + c));
              4
            | Some e, _, _, _ ->
              Buffer.add_char buf
                (match e with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | other -> other);
              2
            | None, _, _, _ -> raise (Error ("unterminated string", pos_at start))
          in
          i := !i + consumed
        | '\n' -> raise (Error ("newline in string literal", pos_at start))
        | other ->
          Buffer.add_char buf other;
          incr i)
      done;
      if not !closed then raise (Error ("unterminated string", pos_at start));
      emit start (STRING (Buffer.contents buf))
    | '0' .. '9' ->
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      let is_float =
        !j < n
        && src.[!j] = '.'
        && !j + 1 < n
        && is_digit src.[!j + 1]
      in
      if is_float then begin
        incr j;
        while !j < n && is_digit src.[!j] do incr j done;
        (* exponent *)
        if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
          let k = ref (!j + 1) in
          if !k < n && (src.[!k] = '+' || src.[!k] = '-') then incr k;
          if !k < n && is_digit src.[!k] then begin
            while !k < n && is_digit src.[!k] do incr k done;
            j := !k
          end
        end;
        emit start (FLOAT (float_of_string (String.sub src start (!j - start))));
        i := !j
      end
      else begin
        let text = String.sub src start (!j - start) in
        (match int_of_string_opt text with
        | Some v -> emit start (INT v)
        | None -> emit start (BIG text));
        i := !j
      end
    | 'a' .. 'z' ->
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      emit start (IDENT (String.sub src start (!j - start)));
      i := !j
    | 'A' .. 'Z' | '_' ->
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      emit start (VAR (String.sub src start (!j - start)));
      i := !j
    | '\'' ->
      (* quoted atom: 'any chars' *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match src.[!i] with
        | '\'' ->
          closed := true;
          incr i
        | '\n' -> raise (Error ("newline in quoted atom", pos_at start))
        | other ->
          Buffer.add_char buf other;
          incr i)
      done;
      if not !closed then raise (Error ("unterminated quoted atom", pos_at start));
      emit start (IDENT (Buffer.contents buf))
    | other -> raise (Error (Printf.sprintf "unexpected character %C" other, pos_at start)));
    ignore start
  done;
  emit (n - 1) EOF;
  Array.of_list (List.rev !tokens)
