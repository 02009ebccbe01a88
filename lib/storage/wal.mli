(** Page-level redo logging, checksummed.

    CORAL left transactions and recovery to the EXODUS toolkit; this is
    the equivalent facility for our storage manager: a force-at-commit
    redo log.  [commit] appends the after-images of the transaction's
    dirty pages — tagged with the file they belong to, so one log
    covers a whole relation (heap file plus every index) and the
    relation-level commit is atomic — under a CRC-32 and a commit
    marker, syncs the log, and only then may the pages be written in
    place.  [recover] replays complete, checksum-valid transactions
    found in the log; a torn or corrupt tail is discarded and recorded
    in the {!Recovery.t} report.  [checkpoint] truncates the log once
    the data files are known durable. *)

type t

val create : ?injector:Disk.Faulty.t -> string -> t
(** Open (creating if absent) the log at this path.  The injector, if
    any, should be the same one attached to the data files so a single
    crash budget spans log appends and page write-back. *)

val commit : t -> (int * int * Bytes.t) list -> unit
(** Durably log the after-images of the given
    (file id, page id, image) triples as one transaction. *)

val recover : t -> disks:Disk.t array -> report:Recovery.t -> int
(** Replay committed transactions into the data files (file id indexes
    [disks]); returns the number of pages replayed and accumulates
    what happened — replays, torn tails, corrupt records — into the
    report.  Call before using the data files.
    @raise Recovery.Fatal_corruption on a log of at least 8 bytes
    that does not start with the log header. *)

val checkpoint : t -> unit
val close : t -> unit
val path : t -> string

(** Group commit: a commit queue in front of one log.  Writers
    [enqueue] their after-images while they still hold the writer lane
    (cheap, and lane order fixes log order), release the lane, then
    block in [await]; the first awaiter becomes the leader and merges
    every pending submission into ONE checksummed log record with ONE
    fsync.  The merged record is a single transaction, so a crash
    mid-group tears the tail and recovery drops the whole group —
    group atomicity falls out of the existing record format. *)
module Group : sig
  type g

  type ticket

  val create : ?max_pending:int -> t -> g
  (** [max_pending] (default 256, min 1) bounds the commit queue: an
      [enqueue] past the cap backpressures instead of growing the
      queue without bound. *)

  val enqueue : g -> (int * int * Bytes.t) list -> ticket
  (** Queue a submission (call under the writer lane; the after-images
      must be stable copies).  An empty submission returns a ticket
      that [await] treats as already durable.

      The queue is bounded ([max_pending] at [create]): when full,
      [enqueue] blocks until the active leader drains it — or, with no
      leader active, drains it itself.  Backpressure episodes are
      counted in the [wal.group_commit.backpressure_waits] counter.
      Because the inline drain takes the group's I/O lock, do not call
      [enqueue] from inside [with_io]. *)

  val await : g -> ticket -> unit
  (** Block until the submission is durable, flushing the queue as
      leader if nobody else is.  Re-raises the commit failure if this
      submission's group failed to flush. *)

  val with_io : g -> (unit -> 'a) -> 'a
  (** Serialize raw log I/O against the group leader: any direct
      [commit]/[checkpoint] on the same log must run inside this. *)

  val absorb : g -> unit
  (** Caller (inside [with_io]) has just committed and checkpointed
      every dirty page in place: retire all queued submissions as
      durable — their images are covered by the checkpoint, and
      appending them afterwards would let recovery regress pages. *)
end
