(** Persistent relations (paper section 3.2).

    A persistent relation keeps its tuples in a heap file and its
    indexes in B-trees, all accessed through bounded buffer pools;
    scans decode tuples on demand from pooled pages, so relations
    larger than memory stream through the pool exactly as CORAL's
    EXODUS-backed relations did.  Tuples are restricted to primitive
    fields (int, double, string, bignum), the same restriction the
    paper states for EXODUS-stored data.

    Durability is redo-only write-ahead logging with relation-level
    atomicity: ONE shared log per relation records the dirty pages of
    every file (heap, duplicate index, column indexes) in a single
    checksummed commit record, so a crash at any byte either replays a
    whole commit or none of it and the indexes can never disagree with
    the heap.  {!commit} logs + fsyncs, writes back, then truncates
    the log; {!open_} replays any committed-but-unwritten log tail,
    discards torn tails, and (by default) verifies every page checksum,
    quarantining bad pages into a {!Recovery.t} report.  Marks are not
    supported (persistent relations serve as base relations; semi-naive
    deltas live in memory relations).

    A duplicate-elimination index on the full record makes set
    semantics O(log n) per insert; [@multiset] relations skip it. *)

open Coral_rel

type handle

val open_ :
  ?pool_frames:int ->
  ?indexes:int list ->
  ?injector:Disk.Faulty.t ->
  ?verify:bool ->
  dir:string ->
  name:string ->
  arity:int ->
  unit ->
  handle
(** Open or create the relation stored under [dir]/[name].*; [indexes]
    lists the argument positions to index with B-trees (default none).
    Recovery runs before the relation is usable: shared-log replay,
    then — unless
    [verify:false] — a checksum sweep of every page.  Pages failing
    verification are quarantined (reads raise {!Disk.Corrupt}); a bad
    B-tree metadata page raises {!Recovery.Fatal_corruption} because
    the index root is gone.  [injector] routes all file I/O through a
    fault-injection seam (tests and the crash harness). *)

val relation : handle -> Relation.t
(** The {!Relation} view: the engine uses it like any other relation. *)

val commit : handle -> unit
val close : handle -> unit

val stage : handle -> Wal.Group.ticket
(** Copy the current dirty after-images and queue them on the
    relation's group-commit lane (see {!Wal.Group}).  Call while
    holding the writer lane so submissions enter the log in apply
    order; cheap (no I/O).  Pages are not written back — durability
    between checkpoints is carried by the log alone. *)

val publish : handle -> Wal.Group.ticket -> unit
(** Block until a staged submission is durable; the caller may (and
    should) have released the writer lane, so concurrent writers'
    submissions merge into one fsync.  Re-raises the group's commit
    failure if the flush failed. *)

val abandon : handle -> unit
(** Release file descriptors WITHOUT committing or writing anything —
    the teardown half of a simulated crash.  The on-disk state is left
    exactly as the last (possibly torn) write left it. *)

val last_recovery : handle -> Recovery.t
(** What recovery found when this handle was opened. *)

val io_stats : handle -> (string * Buffer_pool.stats) list
(** Per-file buffer-pool statistics (heap first, then indexes). *)
