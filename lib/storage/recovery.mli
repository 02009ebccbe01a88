(** Typed recovery reports.

    Opening a persistent relation runs recovery — WAL replay, optional
    checksum verification — and instead of
    silently proceeding (or dying) records what it found in one of
    these.  A report with {!clean} [= true] means the files were
    exactly as a clean shutdown left them.

    Corruption is split into two classes: {e recoverable} damage (a
    torn WAL tail, pages restorable from committed WAL records, a
    checksum-failed data page that is quarantined so reads of it raise
    {!Disk.Corrupt} while the rest of the relation keeps serving), and
    {e fatal} damage ({!Fatal_corruption}: a metadata page such as a
    B-tree root pointer page that cannot be reconstructed, or a file
    whose header is missing or unreadable). *)

exception Fatal_corruption of string

type t = {
  mutable replayed_txns : int;
  mutable replayed_pages : int;
  mutable torn_tail_bytes : int;  (** incomplete trailing WAL bytes discarded *)
  mutable corrupt_wal_records : int;  (** records failing CRC or missing commit magic *)
  mutable quarantined : (string * int) list;  (** (file, page id) failing checksum verification *)
}

val create : unit -> t
val clean : t -> bool
val quarantine : t -> string -> int -> unit
