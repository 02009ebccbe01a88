(** A page file on disk, checksummed and fault-aware.

    Pages are addressed by number; page 0 is reserved for the owner's
    metadata.  All reads and writes go through the buffer pool — this
    module is the raw device.

    Every page is stored with a CRC-32 of its image and an echo of its
    page id, under a versioned file header; torn writes, bit rot and
    misdirected writes surface as {!Corrupt} instead of being served.

    A {!Faulty} injector attached at {!create} simulates the failures
    recovery code actually faces: crashes that tear a write at an
    arbitrary byte, transient and permanent read errors, short reads,
    and ENOSPC.  After an injected crash, every operation raises
    {!Crashed} — the handle behaves like a dead process's. *)

exception Fault of { transient : bool; op : string; path : string; detail : string }
(** An I/O operation failed.  [transient] faults are worth retrying
    (the buffer pool does, with bounded backoff); permanent ones —
    e.g. ENOSPC — are not. *)

exception Crashed of string
(** An injected crash point was reached; the storage below this handle
    is gone.  Only raised under fault injection. *)

exception Corrupt of { path : string; pid : int; detail : string }
(** A page failed its checksum (or id echo, or came back short).  The
    page is quarantined: subsequent reads keep raising, other pages
    keep working.  Rewriting the page lifts the quarantine. *)

(** Fault injection plans.  All counters are consumed as operations
    happen; a plan is shared across the files of a relation so one
    byte budget covers WAL appends and page write-back alike. *)
module Faulty : sig
  type t

  val create : unit -> t

  val arm_crash : t -> after_bytes:int -> unit
  (** Crash once [after_bytes] more bytes have been written: the write
      that crosses the budget is torn (its prefix reaches the file)
      and raises {!Crashed}; fsync/truncate consume one unit each so a
      crash can land exactly on a sync point. *)

  val disarm : t -> unit
  (** Clear the armed budget and any crashed state — the simulated
      machine restarts; close and reopen the files to use them. *)

  val crashed : t -> bool

  val inject_read_faults : ?transient:bool -> t -> int -> unit
  (** Fail the next [n] reads with {!Fault} (default transient). *)

  val inject_short_reads : t -> int -> unit
  (** Make the next [n] reads return roughly half the requested bytes. *)

  val inject_enospc : t -> int -> unit
  (** Fail the next [n] writes with a non-transient ENOSPC {!Fault}. *)
end

(** Low-level positioned file I/O with the injection seam; used by the
    page file below and by {!Wal} so WAL appends share the same fault
    plan. *)
module Io : sig
  type t

  val openf : ?injector:Faulty.t -> string -> t
  val path : t -> string
  val size : t -> int

  val pread : t -> pos:int -> Bytes.t -> int -> int -> int
  (** [pread t ~pos buf off len] reads up to [len] bytes; short only at
      end of file or under injection.  Returns the count read. *)

  val pwrite : t -> pos:int -> Bytes.t -> unit
  val append : t -> Bytes.t -> unit
  val fsync : t -> unit
  val truncate : t -> int -> unit
  val close : t -> unit
end

type t

val create : ?injector:Faulty.t -> string -> t
(** Open (creating if absent) the page file at this path.  A file
    shorter than its header is a torn create and starts empty.
    @raise Recovery.Fatal_corruption on a file without the page-file
    magic, or with an unreadable or wrong-version header. *)

val npages : t -> int

val alloc : t -> int
(** Extend the file by one zeroed page; returns its page id. *)

val read : t -> int -> Bytes.t -> unit
(** Read page [pid] into the buffer (exactly {!Page.page_size} bytes).
    @raise Corrupt when the page fails verification.
    @raise Fault on an injected device error. *)

val write : t -> int -> Bytes.t -> unit
(** Write page [pid] (checksummed); clears any quarantine on it. *)

val verify : t -> (int * string) list
(** Checksum every page; quarantines and returns the failures. *)

val quarantined : t -> (int * string) list

val page_offset : int -> int
(** Byte offset of a page's slot in the file — for tests and tools
    that corrupt or inspect specific pages. *)

val sync : t -> unit
val close : t -> unit
val path : t -> string
