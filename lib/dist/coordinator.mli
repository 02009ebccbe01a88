(** The round-synchronous fixpoint coordinator: one [barrier step]
    message per worker per round.  A step absorbs what peers shipped in
    earlier rounds, derives to a local fixpoint and ships the rest; the
    round after one that shipped nothing anywhere is sent [final] and
    publishes every worker's closure.  The tuples received at each step
    must equal those shipped at the step before: any imbalance (a lost
    or duplicated batch) aborts the run. *)

type t

type shard_round = {
  sr_shard : int;
  sr_step_s : float;
      (** this shard's [barrier step] wall time as observed by the
          coordinator: local evaluation + delta shipping + barrier wait *)
  sr_derived : int;
  sr_shipped : int;
  sr_received : int;
  sr_new : int;
}

type round_stat = {
  r_round : int;
  r_wall_s : float;  (** the whole round, as the coordinator saw it *)
  r_step_max_s : float;
  r_skew : float;  (** max/mean of per-shard step times; 1.0 = balanced *)
  r_straggler : int option;
      (** the slowest shard, flagged when it exceeded the configured
          multiple of the round's median step time *)
  r_shards : shard_round list;
}

type run_stats = {
  rounds : int;
  derived : int;  (** candidate-new tuples derived across all shards *)
  shipped_tuples : int;
  shipped_bytes : int;
  new_tuples : int;  (** tuples absorbed into the partitions (post-dedup) *)
  wall_s : float;
  skew_max : float;  (** worst per-round skew ratio of the run *)
  stragglers : int;  (** rounds that flagged a straggler *)
  round_stats : round_stat list;  (** oldest first *)
}

val default_straggler_factor : float
(** 3.0: a shard [3×] slower than the round's median step is flagged. *)

val create : ?straggler_factor:float -> addrs:string list -> key:int -> unit -> t
(** One client per worker address ([host:port] or socket path); [key]
    is the partition-key argument position sent with [shard].
    [straggler_factor] (default {!default_straggler_factor}, clamped
    to [>= 1.0]) sets the median multiple past which a shard's step
    time flags it in [dist.round] events and {!round_stat}. *)

val shards : t -> int
val addrs : t -> string list

val partition : t -> Partition.t
(** The partitioner every worker was configured with: same shard
    count, same key argument — the router uses it to route seed
    deltas to their owner. *)

val disconnect : t -> unit

val abandon_when : t -> (unit -> bool) -> (unit -> 'a) -> 'a
(** [abandon_when t abandon f] runs [f] with every worker exchange
    polling [abandon] while it waits for replies: once it answers
    [true], the exchange closes the connections still owed a reply and
    fails with [KILLED] (the caller names the real cause). *)

val configure : t -> (unit, Coral_server.Protocol.error_code * string) result
(** Send every worker its [shard <i> <n> <key> <addrs>] identity. *)

val reset : t -> (unit, Coral_server.Protocol.error_code * string) result
val send_edb : t -> string -> (unit, Coral_server.Protocol.error_code * string) result
val send_program : t -> string -> (unit, Coral_server.Protocol.error_code * string) result

val send_delta :
  t -> shard:int -> string -> (unit, Coral_server.Protocol.error_code * string) result
(** Ship one shard a binary delta payload ({!Delta_codec.contents})
    into its exchange buffer, tagged round 1, so the next fixpoint
    absorbs it at step 2.  Used before [run_fixpoint] to seed
    partitioned predicates that also have consulted base facts; pass
    the total count as [run_fixpoint]'s [seeded]. *)

val send_edb_delta :
  t -> string -> (unit, Coral_server.Protocol.error_code * string) result
(** Ship every worker one binary batch of new base facts ([edb#],
    a {!Delta_codec.contents} payload).  Each stores them in its
    replicated base relations, and the next [run_fixpoint]'s round 1
    runs only the rule activations they feed. *)

val run_fixpoint :
  ?progress:(round:int -> new_tuples:int -> shipped:int -> unit) ->
  ?seeded:int ->
  t ->
  (run_stats, Coral_server.Protocol.error_code * string) result
(** Run rounds until global quiescence.  [seeded] (default 0) is the
    tuple count pre-shipped with [send_delta]: round 2's
    shipped-equals-received balance check adds it to round 1's
    shipments.  Worker errors propagate under their original codes; an
    unreachable worker yields [UNAVAIL].

    With observability enabled, every round records a [dist.round]
    span and JSONL event (wall/step-max times, skew ratio, and a
    [straggler] field naming any flagged shard), and control-plane
    commands carry the calling thread's trace id as a [tid=] token so
    worker-side spans join the same trace. *)
