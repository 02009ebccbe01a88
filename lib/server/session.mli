(** Sessions: one client's view of a shared CORAL engine.

    A {!store} is the server-wide shared state — the engine, the
    prepared-query {!Plan_cache}, the published snapshot chain, the
    writer-lane lock, and request counters.  A {!t} is one
    connection's session: it holds the session-local settings
    (currently the request deadline) and an isolated result cursor.

    Concurrency (DESIGN.md §11): read requests pin the currently
    published engine snapshot and evaluate a private read view on the
    execution pool without the store lock; mutations (consult, insert,
    queries that reach assert/retract) serialize on the writer lane,
    group-commit any persistent relations' WAL images, and publish the
    next epoch.  Stores over persistent databases whose relations have
    no lock-free view publish [None] and reads fall back to the locked
    lane.

    Overload protection (DESIGN.md §12): evaluating requests pass the
    store's {!Admission} gate (shed with [err BUSY] past the in-flight
    cap), run under the session's resource budgets (stopped with
    [err RESOURCE] past them), and mutations are refused with
    [err READONLY] while the store is degraded — entered automatically
    on ENOSPC or a hard WAL write fault, or forced by the operator
    [degrade] command. *)

type store

val make_store :
  ?databases:Coral.Database.t list -> ?limits:Admission.config -> Coral.t -> store
(** [databases] are the persistent stores whose dirty pages each
    commit stages onto the group-commit lane (default none — a purely
    in-memory server).  [limits] is the admission/budget policy
    (default {!Admission.default}: everything unlimited, as before
    overload protection existed). *)

val db : store -> Coral.t

val locked : store -> (unit -> 'a) -> 'a
(** Run a computation holding the store's writer-lane lock (used by
    non-protocol callers, e.g. benchmarks preparing data). *)

val commit : store -> (unit -> 'a) -> 'a
(** Run a mutation on the write lane with the full commit tail: refuse
    if degraded, run [f] under the lock, drop the engine's save-module
    instances ([f] mutates relations directly), stage the next
    snapshot version, group-commit persistent relations, publish the
    new epoch.  Plans survive: they depend only on the rules.  The
    dist worker promotes delta batches through this, so distributed
    rounds are ordinary MVCC commits to concurrent readers.
    @raise Degraded (mapped to [err READONLY] by {!handle}) when the
    store is read-only. *)

val set_dist_handler : store -> (Protocol.request -> Protocol.response) -> unit
(** Install the cluster-worker handler for [shard]/[dprog]/[delta]/
    [edb]/[barrier]/[dreset] requests.  The dist subsystem sits above this
    library (it needs both the protocol and the engine), so the server
    binary installs the hook at startup; without it dist requests
    answer [err CLUSTER].  Dist requests bypass the admission gate:
    they are the coordinator's control plane, and a delta blocked
    behind the in-flight cap would deadlock the round barrier. *)

val set_insert_hook : store -> (Coral.Ast.atom list -> unit -> unit) -> unit
(** [set_insert_hook store h]: every [insert] request calls [h facts]
    with its parsed facts just before committing them, and runs the
    function [h] returned once the commit succeeded, outside the store
    lock.  The router learns from it which facts an insert committed,
    and what happened to the cluster in between. *)

val note_bytes_read : store -> int -> unit
(** Credit [n] wire bytes read from a client (or peer) connection to
    the store's [server.bytes.read] counter; the connection loop
    calls this per line and payload. *)

val note_bytes_written : store -> int -> unit

val close_databases : store -> unit
(** Commit and close the attached persistent databases under the store
    lock (graceful shutdown). *)

val snapshot_epoch : store -> int
(** The currently published snapshot epoch (starts at 1; every
    committed mutation advances it). *)

val published_view : store -> Coral.Engine.view option
(** The currently published epoch's view ([None] when reads use the
    locked lane); build a reader over it with
    {!Coral.Engine.read_view}. *)

val admission : store -> Admission.t
(** The store's admission gate (the accept loop uses it to enforce the
    connection cap and count sheds). *)

val session_count : store -> int
(** Currently open sessions (the connection-cap input). *)

val try_reserve : store -> cap:int -> bool
(** Atomically claim a session slot against [cap] (0 = uncapped).
    The accept loop reserves before spawning the connection thread —
    a connect burst arrives faster than spawned threads run, so a
    check against {!session_count} alone would admit the whole burst.
    A successful claim is released by {!close} (create the session
    with [~reserved:true]) or by {!unreserve} if no session follows. *)

val unreserve : store -> unit
(** Release a {!try_reserve} claim that will not become a session
    (the connection thread failed to spawn). *)

val is_degraded : store -> bool
(** Whether the store is currently refusing mutations. *)

val degraded_reason : store -> string option
(** [None] when healthy; otherwise ["auto: <reason>"] or
    ["operator: <reason>"] — the health endpoint's body. *)

type t

val create : ?reserved:bool -> store -> t
(** Open a session.  Lock-free (atomic counters only), so a new
    connection can always come up — and run [ps]/[kill] — while
    another connection's query holds the engine lock.  [~reserved:true]
    means the caller already claimed the session slot with
    {!try_reserve}; the open-session gauge is not bumped again. *)

val close : t -> unit
(** Mark the session closed (decrements the open-session gauge).
    Idempotent; the connection handler calls it when the socket
    drains. *)

val sid : t -> int
(** This session's id, as shown in [ps] lines and event-log records. *)

val deadline_ms : t -> int
(** The session's current per-request deadline (0 = none). *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request against the shared store.  Never raises:
    evaluation failures, parse failures and exceeded deadlines come
    back as [err] replies.  Reads run lock-free against the pinned
    snapshot when one is available; mutations take the writer lane and
    publish a new epoch.  Evaluating requests are registered in
    {!Coral_obs.Query_log} for the duration and logged to the event
    log on completion; [Ps]/[Kill]/[Events] are answered without any
    lock. *)

val samples : store -> Coral_obs.Obs.sample list
(** The store's sample table: each store-owned value once (requests,
    sessions, admission, snapshot, caches, maintenance, engine work).
    [stats] and {!metrics_text} both render it.  Reading it takes no
    lock and never rebuilds maintained extents. *)

val stats_reply : store -> Coral_obs.Obs.sample list -> string list -> Protocol.response
(** [stats_reply store rows text]: the [stats] reply — [rows] (and the
    process's rows) as [name=value] lines, then the [text] lines, then
    the engine's relation summary (read under the store lock). *)

val metrics_text : store -> string
(** Prometheus text exposition of {!samples} (see
    {!Coral_obs.Obs.render_prometheus}).  Safe to call from the
    metrics listener thread without the store lock. *)
