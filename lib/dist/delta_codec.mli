(** Encodings of ground tuples for the cluster wire.

    [delta#] batches are binary, in machine representation: a tuple
    count, then one length-prefixed record per tuple (predicate name,
    arity, then each term as a tagged int, IEEE double bits, string,
    bignum digits or functor), appended to a [Buffer] and decoded
    without the parser.
    A batch is not text: it is not readable over [nc] and does not
    paste into a REPL.  The replicated EDB ([consult#]) stays CORAL
    fact text, written by {!fact_line}. *)

exception Unencodable of string
(** Raised by {!fact_line} and {!add_tuple} for values neither format
    carries — non-finite doubles, opaque builtin values, variables:
    shipping them would change the value, or its type, on the
    receiving worker. *)

val fact_line : string -> Coral.Tuple.t -> string
(** ["pred(a, b)."] — no trailing newline.  Arity-0 tuples render as
    ["pred."].  Printing is a lossless inverse of the parser: doubles
    keep their full precision and re-parse as doubles.
    @raise Unencodable on a value with no fact syntax. *)

type batch
(** A binary batch under construction, in one [Buffer]. *)

val batch : unit -> batch

val add_tuple : batch -> string -> Coral.Tuple.t -> unit
(** Append one tuple of the named predicate.  On [Unencodable] the
    batch holds a partial record and must be dropped.
    @raise Unencodable on a value the batch cannot carry. *)

val count : batch -> int
(** Tuples added so far. *)

val contents : batch -> string list
(** The encoded batch as one or more [delta#] payloads, in order, each
    headed by its own tuple count and within
    [Protocol.max_payload_bytes] (what a receiver accepts) unless a
    single tuple is larger. *)

val decode : string -> ((string * Coral.Tuple.t) list, string) result
(** Read a binary batch back, in order, as (predicate, tuple) pairs
    that are equal to the encoded ones, value constructor and double
    bits included.  Malformed input — truncation at any byte, a bad
    tag, a negative or oversized count, length or arity, trailing
    bytes — is an [Error], never an exception. *)
