(* The cluster's one encoding of tuples: every fact the router
   or a worker ships — peer deltas ([delta#]), the router's seeds, and
   the replicated EDB and its insert deltas ([edb#]) — travels in
   machine representation, as the paper keeps shipped data (section
   3.2): one length-prefixed binary record per tuple, appended to one
   Buffer per destination, and read back without the parser.  A
   payload is

     count:int  record * count

   — the count up front, so a payload cut at any byte fails to decode
   instead of reading as a shorter one; a destination's batch spans as
   many payloads as the receiver's size limit needs — and a record is

     name:str  arity:int  term * arity

   and a term is a one-byte tag followed by its body:

     'i' int     the value as 8 little-endian bytes
     'd' double  the 64 IEEE bits, little-endian (never via [int]: a
                 63-bit int silently drops one of them)
     's' str     length-prefixed bytes
     'b' big     length-prefixed decimal digits
     'v' int     a variable of a stored non-ground fact of the
                 replicated EDB, by its number in the tuple
     'f' functor name:str  arity:int  term * arity, rebuilt with
                 [Term.app] as the parser does (lists are ['.']/['[]']
                 functors like any other)

   where int and every length or arity is 8 little-endian bytes.  A
   tuple that changes value or type in transit would silently diverge
   the cluster from single-node semantics (and could hash to another
   owner shard), so values with no faithful form — non-finite doubles
   and opaque builtin values — raise [Unencodable] rather than ship.
   So does a variable in a partitioned tuple (a delta, a seed, an
   insert): every variable hashes to one bucket, away from the ground
   instances the tuple would subsume on a single node.
   Decoding is total: any malformed batch is an [Error], never an
   exception. *)

open Coral

exception Unencodable of string

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_term buf (t : Term.t) =
  match t with
  | Term.Const (Value.Int i) ->
    Buffer.add_char buf 'i';
    add_int buf i
  | Term.Const (Value.Double f) ->
    if not (Float.is_finite f) then
      raise (Unencodable (Printf.sprintf "non-finite double %h has no wire form" f));
    Buffer.add_char buf 'd';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Term.Const (Value.Str s) ->
    Buffer.add_char buf 's';
    add_str buf s
  | Term.Const (Value.Big b) ->
    Buffer.add_char buf 'b';
    add_str buf (Bignum.to_string b)
  | Term.Const (Value.Opaque _) ->
    raise (Unencodable (Term.to_string t ^ " (opaque value) has no wire form"))
  | Term.Var v ->
    Buffer.add_char buf 'v';
    add_int buf v.Term.vid
  | Term.App { sym; args; _ } ->
    Buffer.add_char buf 'f';
    add_str buf (Symbol.name sym);
    add_int buf (Array.length args);
    Array.iter (add_term buf) args

(* A batch under construction: the payloads already full, newest
   first, and the one being filled in [buf], whose first 8 bytes hold
   its tuple count, patched in when it is sealed. *)
type batch = {
  buf : Buffer.t;
  mutable pending : int;  (* tuples in [buf] *)
  mutable count : int;  (* tuples in the whole batch *)
  mutable sealed : string list;
}

let open_payload b =
  Buffer.clear b.buf;
  add_int b.buf 0;
  b.pending <- 0

let batch () =
  let b = { buf = Buffer.create 1024; pending = 0; count = 0; sealed = [] } in
  open_payload b;
  b

let seal b =
  let bytes = Buffer.to_bytes b.buf in
  Bytes.set_int64_le bytes 0 (Int64.of_int b.pending);
  Bytes.unsafe_to_string bytes

(* A record that would take its payload past the size a receiver
   accepts starts the next payload instead, so no batch is refused for
   its size unless one tuple alone exceeds the limit. *)
let add_tuple ?(vars = false) b name (tuple : Tuple.t) =
  if tuple.Tuple.nvars > 0 && not vars then
    raise (Unencodable (Tuple.to_string tuple ^ " (non-ground) has no owner shard"));
  let start = Buffer.length b.buf in
  add_str b.buf name;
  add_int b.buf (Array.length tuple.Tuple.terms);
  Array.iter (add_term b.buf) tuple.Tuple.terms;
  if Buffer.length b.buf > Coral_server.Protocol.max_payload_bytes && b.pending > 0 then begin
    let record = Buffer.sub b.buf start (Buffer.length b.buf - start) in
    Buffer.truncate b.buf start;
    b.sealed <- seal b :: b.sealed;
    open_payload b;
    Buffer.add_string b.buf record
  end;
  b.pending <- b.pending + 1;
  b.count <- b.count + 1

let count b = b.count

let contents b = List.rev (if b.pending = 0 && b.sealed <> [] then b.sealed else seal b :: b.sealed)

exception Malformed of string

let decode s =
  let len = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let need n what =
    if n > len - !pos then fail "batch truncated in %s at byte %d" what !pos
  in
  let int what =
    need 8 what;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    let i = Int64.to_int v in
    if not (Int64.equal (Int64.of_int i) v) then fail "%s %Ld out of range" what v;
    i
  in
  let size what =
    let n = int what in
    if n < 0 then fail "negative %s %d" what n;
    n
  in
  let str what =
    let n = size what in
    need n what;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  (* every term takes at least one byte, so an arity beyond the bytes
     left is malformed — and must not size an allocation *)
  let args what term =
    let n = size what in
    if n > len - !pos then fail "%s %d exceeds the batch" what n;
    Array.init n (fun _ -> term ())
  in
  let rec term () =
    need 1 "a term tag";
    let tag = s.[!pos] in
    incr pos;
    match tag with
    | 'i' -> Term.int (int "an int")
    | 'd' ->
      need 8 "a double";
      let f = Int64.float_of_bits (String.get_int64_le s !pos) in
      if not (Float.is_finite f) then fail "non-finite double at byte %d" !pos;
      pos := !pos + 8;
      Term.double f
    | 's' -> Term.str (str "a string")
    | 'v' ->
      let n = size "a variable" in
      Term.var ~name:("_V" ^ string_of_int n) n
    | 'b' -> (
      let digits = str "a bignum" in
      match Bignum.of_string digits with
      | b -> Term.big b
      | exception Invalid_argument _ -> fail "bad bignum %S" digits)
    | 'f' ->
      let name = str "a functor name" in
      let args = args "arity" term in
      Term.app (Symbol.intern name) args
    | c -> fail "bad term tag 0x%02x at byte %d" (Char.code c) (!pos - 1)
  in
  let rec tuples acc n =
    if n = 0 then begin
      if !pos < len then fail "%d bytes after the last tuple" (len - !pos);
      List.rev acc
    end
    else begin
      let name = str "a predicate name" in
      let terms = args "arity" term in
      tuples ((name, Tuple.of_terms terms) :: acc) (n - 1)
    end
  in
  match tuples [] (size "the tuple count") with
  | r -> Ok r
  | exception Malformed m -> Error m
