(** The fan-out router: a protocol-compatible front end over a set of
    [coral_server] worker shards.

    Clients see an ordinary server — query/consult/insert, stats,
    metrics, ps/kill, the same error codes.  The router keeps a full
    single-node replica of the consulted program; queries it can prove
    distributable (the program is in the linear class, the query has
    exactly one positive literal over a partitioned predicate) are
    fanned out to the workers and merged, everything else evaluates
    locally.  A consult or retract, an insert that is not one more
    delta, or a query that mutates the replica through the
    assert/retract builtins marks the cluster dirty; the next
    distributed query reprovisions it from scratch (configure, dreset,
    re-ship the EDB, ship the program, seed partitioned predicates'
    consulted facts to their owner shards, run the fixpoint) before
    fanning out.  An insert of base facts no rule negates, into a
    clean cluster, is queued instead: the next distributed query ships
    it to every worker and runs one more fixpoint from it alone.

    The router is also the cluster's observability front end
    (DESIGN.md §15).  Every request gets a trace id (client-supplied
    [tid=] or freshly minted) that rides the worker commands; [trace
    <id>|last] pulls the matching spans back from every worker and
    stitches them into one Chrome trace_event JSON with a lane per
    process.  [metrics] (and the [--metrics-port] endpoint, via
    {!metrics_text}) federates every worker's scrape under
    [coral_shard_*{shard="N"}] labels plus skew/straggler roll-ups,
    and [dstat] prints the last fixpoint's per-round, per-shard
    table. *)

type t

val start :
  ?consult:string list ->
  ?limits:Coral_server.Admission.config ->
  ?straggler_factor:float ->
  ?insert_committed:(unit -> unit) ->
  listen:Coral_server.Server.listen ->
  shard_addrs:string list ->
  key:int ->
  Coral.t ->
  t
(** Consult the given files into the router's replica, then serve it
    on {!Coral_server.Server}'s connection layer with the router's
    request handler.  [shard_addrs] are the workers' [host:port] / socket
    addresses; [key] is the partition-key argument position.
    [straggler_factor] tunes skew detection (a round's slowest shard
    is flagged when it exceeds the median step time by this multiple;
    default {!Coordinator.default_straggler_factor}).
    [insert_committed] runs after each insert committed to the replica
    and before the router decides whether it dirties the cluster;
    tests use it to force interleavings (default: nothing).  No worker is
    contacted until the first distributed query.
    @raise Unix.Unix_error when binding fails. *)

val port : t -> int
val store : t -> Coral_server.Session.store
val shards : t -> int

val metrics_text : t -> string
(** The federated Prometheus scrape body.  It starts with the router's
    sample table, which [stats] renders too: the replica store's rows,
    then [coral_router_shards], [coral_router_dirty] and, once a
    fixpoint has run, its [coral_router_fixpoint_*] stats and the
    [coral_dist_skew_ratio] / [coral_dist_straggler_rounds]
    roll-ups.  Every worker's metrics follow, relabeled as
    [coral_shard_*{shard="N"}], plus a [coral_shard_up] gauge per
    shard.  Wire this as the [--metrics-port] body. *)

val wait : t -> unit
val shutdown : t -> unit
