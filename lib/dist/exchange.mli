(** The per-worker exchange buffer: delta batches from peer shards,
    each tagged with the round its sender derived it in, waiting for
    the step that absorbs them.  Internally mutexed — batches arrive on
    peer connection threads while the worker's own step holds the
    store's lock, and this buffer is the only state they share. *)

type item = { pred : string; arity : int; tuple : Coral.Tuple.t }

type t

val create : unit -> t

val add_remote : t -> round:int -> item list -> int
(** Buffer a decoded delta batch a peer derived in [round]; returns the
    batch size.  Counted pre-dedup so shipped/received sums balance
    exactly. *)

val take : t -> before:int -> item list * int
(** The buffered items of rounds before [before] (arrival order) and
    their pre-dedup count; later rounds' batches stay buffered. *)

val reset : t -> unit

val totals : t -> int * int
(** (tuples received, batches received) since the last reset. *)
