exception Fatal_corruption of string

type t = {
  mutable replayed_txns : int;
  mutable replayed_pages : int;
  mutable torn_tail_bytes : int;
  mutable corrupt_wal_records : int;
  mutable quarantined : (string * int) list;
}

let create () =
  { replayed_txns = 0;
    replayed_pages = 0;
    torn_tail_bytes = 0;
    corrupt_wal_records = 0;
    quarantined = []
  }

let clean t =
  t.replayed_txns = 0 && t.torn_tail_bytes = 0 && t.corrupt_wal_records = 0 && t.quarantined = []

let c_quarantined = Coral_obs.Obs.counter "storage.recovery.quarantined_pages"

let quarantine t path pid =
  if not (List.mem (path, pid) t.quarantined) then begin
    t.quarantined <- (path, pid) :: t.quarantined;
    Coral_obs.Obs.Counter.incr c_quarantined
  end
