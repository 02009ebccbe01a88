(** Epoch-stamped immutable versions: the publication point of the
    snapshot concurrency subsystem (DESIGN.md §11).

    A manager holds the current published version — an epoch paired
    with an immutable view value.  Readers {!pin} it with one atomic
    read and evaluate lock-free; the GC keeps superseded versions alive
    while pinned, so there is no reclamation protocol.  Writers build
    the next view under the writer lane, {!stage} it (allocating the
    next epoch from a counter that only advances under the lane, so
    lane order fixes epoch order even though publication happens after
    the lane is released), release the lane, and {!publish} after
    their WAL group commit.  Publication only moves the epoch forward,
    so a later writer racing ahead — whose version, by lane order,
    already contains the earlier writer's data — makes the stale
    publish a harmless no-op. *)

type 'a version

type 'a t

val create : 'a -> 'a t
(** A manager whose initial version has epoch 1 (0 is reserved to mean
    "no snapshot" in diagnostics). *)

val epoch : 'a t -> int
(** Epoch of the currently published version. *)

val pin : 'a t -> 'a version
(** The current version; counts into {!pinned_count} until
    {!release}d.  Lock-free, wait-free. *)

val release : 'a version -> unit
(** Balance a {!pin}.  Must be called exactly once per pin. *)

val version_epoch : 'a version -> int
val view : 'a version -> 'a

val stage : 'a t -> 'a -> 'a version
(** Stamp a new view with the next epoch, drawn from a monotone
    staged-epoch counter (strictly larger than every earlier staged
    epoch, even ones not yet published).  Call under the writer lane
    only — lane order is what makes epochs agree with apply order. *)

val publish : 'a t -> 'a version -> unit
(** Atomically install the staged version if its epoch is newer than
    the published one (compare-and-set loop; safe to call after
    releasing the writer lane). *)

val pinned_count : unit -> int
(** Process-wide count of currently pinned snapshots (the
    [snapshot.pinned] sample, [coral_snapshot_pinned]). *)
