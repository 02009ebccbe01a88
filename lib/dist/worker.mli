(** The per-shard side of the distributed fixpoint: handles the
    cluster control-plane requests ([shard], [dprog#], [delta#],
    [barrier], [dreset]) against one server's engine.

    Derived relations are materialized as ordinary base relations, so
    router queries against a worker need nothing special.  Each rule
    is compiled once per [dprog] and every step runs it through the
    fixpoint's join kernel; the tuples new since the last derivation
    pass sit in a worker-private delta relation, never in the engine.
    A [barrier step] absorbs the peer batches of earlier rounds,
    derives until a pass adds no tuple this shard owns, and ships the
    rest; the [final] step publishes the closure as one commit.
    Install the result of {!handle} with
    {!Coral_server.Session.set_dist_handler}. *)

type t

val create :
  eng:Coral.Engine.t ->
  commit:((unit -> unit) -> unit) ->
  locked:((unit -> unit) -> unit) ->
  budget:(unit -> int) ->
  t
(** [commit] is the store's write lane (the final step of a fixpoint
    publishes its closure as one MVCC epoch), [locked] the store lock
    without publishing (every other step, and [edb#]), [budget] the
    per-fixpoint cap on absorbed tuples (0 = unlimited), read at each
    step so an operator's [limit] change takes effect live. *)

val handle : t -> Coral_server.Protocol.request -> Coral_server.Protocol.response
(** Serve one cluster request.  [barrier step] replies only after
    every delta batch it shipped has been acknowledged by its peer, so
    the coordinator may treat "all steps replied" as "no delta in
    flight". *)

val disconnect : t -> unit
(** Close this worker's peer connections (kept open across fixpoints
    otherwise).  Cheap and non-destructive — a later delta send
    reconnects lazily — but required for a clean teardown when the
    worker is embedded in a process that audits its descriptors. *)

val set_fault_step_delay : t -> float -> unit
(** Fault seam: make every [barrier step] sleep this many seconds
    first, turning the worker into a deterministic straggler for
    skew-detection tests and operator drills.  [0.] clears it. *)
