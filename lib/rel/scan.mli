(** Scan descriptors: the get-next-tuple cursor abstraction.

    "The query evaluation system has a well defined 'get-next-tuple'
    interface with the data manager for access to relations" (paper
    section 2).  A scan wraps any tuple sequence — typically
    {!Relation.scan}'s snapshot of a relation's candidates — behind a
    cursor with [next], the analogue of CORAL's [C_ScanDesc] and of an
    SQL cursor.  Multiple scans over one relation are independent.
    The engine itself reads relations through {!Relation.iter}. *)

open Coral_term

type t

val of_seq : Tuple.t Seq.t -> t

val on_relation :
  Relation.t -> ?from_mark:int -> ?to_mark:int -> ?pattern:Term.t array * Bindenv.t -> unit -> t
(** Open a cursor over a relation (candidates only when a pattern probe
    is used: the consumer unifies). *)

val partition : key:int -> shards:int -> shard:int -> Tuple.t Seq.t -> Tuple.t Seq.t
(** Keep only the tuples owned by [shard] under hash partitioning on
    the [key] argument ({!Tuple.partition_hash} mod [shards]).  With
    [shards <= 1] the stream passes through unchanged.  The
    content-keyed analogue of the parallel evaluator's ordinal delta
    striping, usable across process boundaries. *)

val next : t -> Tuple.t option
(** The next tuple, advancing the cursor; [None] at end of scan. *)

val peek : t -> Tuple.t option
(** The next tuple without advancing. *)

val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list
val count : t -> int
