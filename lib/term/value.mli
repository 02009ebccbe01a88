(** Primitive constants: the leaves of CORAL terms.

    The paper's primitive data types are integers, doubles, strings and
    arbitrary-precision integers (paper section 3.1); each is a subclass
    of the generic [Arg] class in the C++ implementation.  Here they are
    one variant type with the operations the [Arg] interface requires of
    every type: equality, hashing, and printing. *)

(** The operations every abstract data type must provide — the OCaml
    rendering of the virtual methods of the C++ [Arg] class (paper
    section 7.1): equality, ordering, hashing, printing, and optionally
    re-construction from a printed representation.  The payload travels
    as an [exn], OCaml's extensible universal type: a user declares
    [exception Point of point] and wraps values in it. *)
type ops = {
  o_name : string;  (** type name; values of different types never compare equal *)
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
      (** a user-defined abstract data type (paper section 7.1) *)

val int : int -> t
val double : float -> t
val str : string -> t
val big : Bignum.t -> t

val opaque : ops -> exn -> t

val make_ops :
  name:string ->
  ?compare:(exn -> exn -> int) ->
  ?hash:(exn -> int) ->
  ?parse:(string -> exn) ->
  print:(Format.formatter -> exn -> unit) ->
  unit ->
  ops
(** Build an operation suite; [compare] defaults to comparing printed
    representations, [hash] to hashing them. *)

val equal : t -> t -> bool
(** Structural equality.  [Int] and [Big] of the same numeric value are
    {e not} equal: they are distinct types, as in the paper. *)

val compare : t -> t -> int
(** Total order used by aggregate operations and sorted output: numeric
    values ([Int], [Double], [Big]) compare by numeric value across
    types, strings compare after numbers. *)

val hash : t -> int

val to_buffer : Buffer.t -> t -> unit
(** Append the surface text of a value: ints as [string_of_int]
    prints them (written digit by digit, no string built), doubles
    losslessly (see {!repr_double}), strings in OCaml %S quoting, an
    opaque value through its [o_print]. *)

val pp : Format.formatter -> t -> unit
(** [to_buffer] onto a formatter. *)

val repr_double : float -> string
(** Lossless source representation of a finite double: the shortest
    decimal that round-trips through [float_of_string], with a '.'
    forced into the mantissa so the lexer reads it back as a FLOAT
    (plain "2" or "1e+300" would lex as integers).  Non-finite values
    have no source syntax and print as ["nan"]/["inf"]/["-inf"]. *)

val is_numeric : t -> bool

val to_float : t -> float option
(** Numeric coercion for mixed-type arithmetic comparisons. *)
