(* Log format (v1): an 8-byte magic "CORLWAL1", then a sequence of
   transactions, each

     [u32 nentries] ([u32 file_id][u32 pid][page image]){nentries}
     [u32 crc32] [u32 0xC0111117]

   where the CRC covers everything from the count through the last
   image.  One log serves all the files of a relation (heap + indexes),
   so a relation-level commit is atomic: either every file's pages
   replay or none do.  Anything after the last complete, checksummed
   commit marker is a torn or corrupt tail and is discarded by
   recovery (and reported, not silently ignored).  A log of at least
   the magic's length that does not start with it is not a log: it is
   refused, never replayed or reinitialised.  A shorter one is a torn
   create. *)

type t = {
  wpath : string;
  io : Disk.Io.t;
}

module Obs = Coral_obs.Obs

let c_commits = Obs.counter "storage.wal.commits"
let c_commit_pages = Obs.counter "storage.wal.commit_pages"
let c_replayed_pages = Obs.counter "storage.wal.replayed_pages"
let c_corrupt_records = Obs.counter "storage.wal.corrupt_records"

let commit_magic = 0xC0111117
let wal_magic = "CORLWAL1"
let max_entries = 1_000_000

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let create ?injector wpath =
  let io = Disk.Io.openf ?injector wpath in
  if Disk.Io.size io = 0 then Disk.Io.append io (Bytes.of_string wal_magic);
  { wpath; io }

let path t = t.wpath

let commit t entries =
  Obs.Span.with_ "wal.commit"
    ~attrs:(fun () -> [ "pages", string_of_int (List.length entries) ])
    (fun () ->
      let buf = Buffer.create (16 + (List.length entries * (Page.page_size + 8))) in
      add_u32 buf (List.length entries);
      List.iter
        (fun (fid, pid, image) ->
          add_u32 buf fid;
          add_u32 buf pid;
          Buffer.add_bytes buf image)
        entries;
      let crc = Checksum.crc32_string (Buffer.contents buf) in
      add_u32 buf crc;
      add_u32 buf commit_magic;
      Disk.Io.append t.io (Buffer.to_bytes buf);
      Disk.Io.fsync t.io);
  Obs.Counter.incr c_commits;
  Obs.Counter.add c_commit_pages (List.length entries)

let recover t ~disks ~(report : Recovery.t) =
  let io = t.io in
  let size = Disk.Io.size io in
  let ndisks = Array.length disks in
  let img = Bytes.create Page.page_size in
  let b4 = Bytes.create 4 in
  let pos = ref 0 in
  let read_u32 () =
    if Disk.Io.pread io ~pos:!pos b4 0 4 = 4 then begin
      pos := !pos + 4;
      Some (get_u32 b4 0)
    end
    else None
  in
  let read_image () =
    if Disk.Io.pread io ~pos:!pos img 0 Page.page_size = Page.page_size then begin
      pos := !pos + Page.page_size;
      true
    end
    else false
  in
  let replayed = ref 0 in
  let good_end = ref 0 in
  let replay entries =
    List.iter
      (fun (fid, pid, image) ->
        Disk.write disks.(fid) pid image;
        incr replayed)
      (List.rev entries);
    report.Recovery.replayed_txns <- report.Recovery.replayed_txns + 1;
    report.Recovery.replayed_pages <- report.Recovery.replayed_pages + List.length entries;
    Obs.Counter.add c_replayed_pages (List.length entries);
    good_end := !pos
  in
  let corrupt () =
    report.Recovery.corrupt_wal_records <- report.Recovery.corrupt_wal_records + 1;
    Obs.Counter.incr c_corrupt_records
  in
  (* v1 records: checksummed, file-tagged *)
  let rec v1_txn () =
    match read_u32 () with
    | None -> ()
    | Some n when n > max_entries -> corrupt ()
    | Some n ->
      let crc = ref (Checksum.crc32 b4 0 4) in
      let entries = ref [] in
      let ok = ref true in
      (try
         for _ = 1 to n do
           match read_u32 () with
           | Some fid ->
             crc := Checksum.update !crc b4 0 4;
             if fid >= ndisks then begin
               corrupt ();
               ok := false;
               raise Exit
             end;
             (match read_u32 () with
             | Some pid when pid >= 0 ->
               crc := Checksum.update !crc b4 0 4;
               if read_image () then begin
                 crc := Checksum.update !crc img 0 Page.page_size;
                 entries := (fid, pid, Bytes.copy img) :: !entries
               end
               else begin
                 ok := false;
                 raise Exit
               end
             | _ ->
               ok := false;
               raise Exit)
           | None ->
             ok := false;
             raise Exit
         done
       with Exit -> ());
      if !ok then begin
        match read_u32 (), read_u32 () with
        | Some stored, Some magic when magic = commit_magic && stored = !crc ->
          replay !entries;
          v1_txn ()
        | Some _, Some _ -> corrupt ()
        | _ -> () (* torn: marker never made it *)
      end
  in
  if size >= 8 then begin
    let head = Bytes.create 8 in
    if Disk.Io.pread io ~pos:0 head 0 8 = 8 && Bytes.to_string head = wal_magic then begin
      pos := 8;
      good_end := 8;
      v1_txn ()
    end
    else raise (Recovery.Fatal_corruption (t.wpath ^ ": no " ^ wal_magic ^ " log header"))
  end;
  if size > !good_end then
    report.Recovery.torn_tail_bytes <- report.Recovery.torn_tail_bytes + (size - !good_end);
  if !replayed > 0 then Array.iter Disk.sync disks;
  !replayed

let checkpoint t =
  Disk.Io.truncate t.io 0;
  Disk.Io.append t.io (Bytes.of_string wal_magic);
  Disk.Io.fsync t.io

let close t = Disk.Io.close t.io

(* ------------------------------------------------------------------ *)
(* Group commit                                                       *)
(* ------------------------------------------------------------------ *)

(* A commit queue in front of one log.  Writers enqueue their dirty-page
   after-images under the writer lane (cheap, ordered), release the
   lane, then block in [await]; the first awaiter becomes the leader,
   merges every pending submission into ONE log record and fsyncs once
   for the whole group.  Atomicity of the group costs nothing extra:
   the merged record is a single checksummed transaction, so a crash
   mid-write tears the tail and recovery drops the entire group.

   [with_io] serializes raw log I/O (group appends vs. the spill /
   shutdown path's commit+checkpoint); [absorb] lets a checkpoint that
   just made every dirty page durable in place retire the queue —
   without it the leader could append images that predate the
   checkpoint and recovery would regress pages. *)
module Group = struct
  let c_batches = Obs.counter "wal.group_commit.batches"
  let c_records = Obs.counter "wal.group_commit.records"
  let c_backpressure = Obs.counter "wal.group_commit.backpressure_waits"

  type g = {
    gwal : t;
    glock : Mutex.t;
    gdone : Condition.t;
    gmax_pending : int;  (* bounded enqueue: cap on queued submissions *)
    mutable gpending : (int * (int * int * Bytes.t) list) list;  (* newest first *)
    mutable gpending_n : int;  (* List.length gpending *)
    mutable gnext : int;  (* last submission seq handed out *)
    mutable gdurable : int;  (* highest seq flushed (or absorbed) *)
    mutable gleader : bool;
    mutable gfailures : (int * int * exn) list;  (* failed seq ranges *)
    gio : Mutex.t;
  }

  type ticket = int  (* 0: nothing to flush *)

  let create ?(max_pending = 256) wal =
    { gwal = wal;
      glock = Mutex.create ();
      gdone = Condition.create ();
      gmax_pending = max max_pending 1;
      gpending = [];
      gpending_n = 0;
      gnext = 0;
      gdurable = 0;
      gleader = false;
      gfailures = [];
      gio = Mutex.create ()
    }

  let with_io g f =
    Mutex.lock g.gio;
    Fun.protect ~finally:(fun () -> Mutex.unlock g.gio) f

  (* Caller holds [gio] and has just made every dirty page durable in
     place (commit + checkpoint): queued submissions are superseded. *)
  let absorb g =
    Mutex.lock g.glock;
    g.gpending <- [];
    g.gpending_n <- 0;
    if g.gnext > g.gdurable then g.gdurable <- g.gnext;
    Condition.broadcast g.gdone;
    Mutex.unlock g.glock

  (* Caller holds [glock] and [gleader] is false: become the leader,
     flush every pending batch (releasing [glock] around the I/O, which
     takes [gio]), then step down.  Failures are recorded per seq range
     in [gfailures], never raised from here. *)
  let lead_drain g =
    g.gleader <- true;
    let rec drain () =
      match g.gpending with
      | [] -> ()
      | pending ->
        g.gpending <- [];
        g.gpending_n <- 0;
        let top = List.fold_left (fun acc (s, _) -> max acc s) 0 pending in
        let low = g.gdurable + 1 in
        Mutex.unlock g.glock;
        let batch = List.concat_map snd (List.rev pending) in
        let result =
          try
            Mutex.lock g.gio;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock g.gio)
              (fun () ->
                (* A checkpoint (commit + truncate + [absorb]) may
                   have run in the window between dequeuing
                   [pending] and winning [gio].  Our after-images
                   predate the checkpoint; appending them into the
                   freshly truncated log would let a crash replay
                   them over newer flushed pages.  [absorb] cannot
                   clear a batch we already dequeued, but it does
                   advance [gdurable] past every seq it retires —
                   and nothing else can push it past [top] while
                   we (the sole leader) hold these seqs — so
                   [gdurable >= top] identifies an absorbed batch:
                   drop it, it is already durable in place. *)
                let absorbed =
                  Mutex.lock g.glock;
                  let a = g.gdurable >= top in
                  Mutex.unlock g.glock;
                  a
                in
                if not absorbed then begin
                  commit g.gwal batch;
                  Obs.Counter.incr c_batches;
                  Obs.Counter.add c_records (List.length pending)
                end);
            None
          with e -> Some e
        in
        Mutex.lock g.glock;
        if g.gdurable < top then g.gdurable <- top;
        (match result with
        | Some e -> g.gfailures <- (low, top, e) :: g.gfailures
        | None -> ());
        Condition.broadcast g.gdone;
        drain ()
    in
    Fun.protect
      ~finally:(fun () ->
        g.gleader <- false;
        (* wake a possible next leader parked in [await] *)
        Condition.broadcast g.gdone)
      drain

  (* Bounded: a write storm parks here — or drains the queue itself —
     instead of growing [gpending] without bound.  Do not call while
     holding [with_io]: a full queue with no active leader drains
     inline, and the drain takes [gio]. *)
  let enqueue g entries =
    if entries = [] then 0
    else begin
      Mutex.lock g.glock;
      if g.gpending_n >= g.gmax_pending then begin
        Obs.Counter.incr c_backpressure;
        while g.gpending_n >= g.gmax_pending do
          if g.gleader then Condition.wait g.gdone g.glock else lead_drain g
        done
      end;
      g.gnext <- g.gnext + 1;
      let seq = g.gnext in
      g.gpending <- (seq, entries) :: g.gpending;
      g.gpending_n <- g.gpending_n + 1;
      Mutex.unlock g.glock;
      seq
    end

  let await g (seq : ticket) =
    if seq <> 0 then begin
      Mutex.lock g.glock;
      let rec wait_done () =
        if g.gdurable < seq then
          if g.gleader then begin
            Condition.wait g.gdone g.glock;
            wait_done ()
          end
          else lead_drain g
      in
      Fun.protect
        ~finally:(fun () -> Mutex.unlock g.glock)
        (fun () ->
          wait_done ();
          while g.gdurable < seq do
            Condition.wait g.gdone g.glock
          done;
          match
            List.find_opt (fun (lo, hi, _) -> lo <= seq && seq <= hi) g.gfailures
          with
          | Some (_, _, e) -> raise e
          | None -> ())
    end
end
