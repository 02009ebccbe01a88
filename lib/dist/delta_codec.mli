(** The cluster's one encoding of tuples: every fact shipped — peer
    deltas and seeds ([delta#]), the replicated EDB and its insert
    deltas ([edb#]) — is a binary batch in machine representation: a
    tuple count, then one length-prefixed record per tuple (predicate
    name, arity, then each term as a tagged int, IEEE double bits,
    string, bignum digits, numbered variable or functor), appended to
    a [Buffer] and decoded without the parser.  A batch is not text: it
    is not readable over [nc] and does not paste into a REPL. *)

exception Unencodable of string
(** Raised by {!add_tuple} for values the format does not carry —
    non-finite doubles and opaque builtin values: shipping them would
    change the value, or its type, on the receiving worker — and for
    a partitioned tuple with variables. *)

type batch
(** A binary batch under construction, in one [Buffer]. *)

val batch : unit -> batch

val add_tuple : ?vars:bool -> batch -> string -> Coral.Tuple.t -> unit
(** Append one tuple of the named predicate.  A tuple with variables
    (a stored non-ground fact) is carried only with [vars] (default
    false): only the replicated EDB, which every worker holds whole,
    may ship one; a partitioned tuple with a variable has no owner
    shard.  On [Unencodable] the batch holds a partial record and must
    be dropped.
    @raise Unencodable on a value the batch cannot carry. *)

val count : batch -> int
(** Tuples added so far. *)

val contents : batch -> string list
(** The encoded batch as one or more payloads, in order, each
    headed by its own tuple count and within
    [Protocol.max_payload_bytes] (what a receiver accepts) unless a
    single tuple is larger. *)

val decode : string -> ((string * Coral.Tuple.t) list, string) result
(** Read a binary batch back, in order, as (predicate, tuple) pairs
    that are equal to the encoded ones, value constructor and double
    bits included.  Malformed input — truncation at any byte, a bad
    tag, a negative or oversized count, length or arity, trailing
    bytes — is an [Error], never an exception. *)
