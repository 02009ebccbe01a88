(* Tests for the storage manager: pages, heap files, B-trees, write
   ahead logging, and persistent relations. *)

open Coral_term
open Coral_rel
open Coral_storage

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let tmpfile prefix = Filename.temp_file prefix ".pages"

(* ------------------------------------------------------------------ *)
(* Pages                                                              *)
(* ------------------------------------------------------------------ *)

let test_page_basics () =
  let p = Bytes.make Page.page_size '\000' in
  Page.init p;
  let s1 = Option.get (Page.insert p "hello") in
  let s2 = Option.get (Page.insert p "world!") in
  Alcotest.(check (option string)) "read 1" (Some "hello") (Page.read p s1);
  Alcotest.(check (option string)) "read 2" (Some "world!") (Page.read p s2);
  Alcotest.(check bool) "delete" true (Page.delete p s1);
  Alcotest.(check (option string)) "deleted gone" None (Page.read p s1);
  Alcotest.(check (option string)) "other intact" (Some "world!") (Page.read p s2);
  Alcotest.(check (option string)) "empty record" (Some "") (Option.map (fun _ -> "") (Page.insert p ""))

let test_page_fill_and_compact () =
  let p = Bytes.make Page.page_size '\000' in
  Page.init p;
  let record = String.make 100 'x' in
  let slots = ref [] in
  (try
     while true do
       match Page.insert p record with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  let n = List.length !slots in
  Alcotest.(check bool) "fills about 78 slots" true (n >= 70 && n <= 85);
  (* delete every other record; compaction reclaims the space *)
  List.iteri (fun i s -> if i mod 2 = 0 then ignore (Page.delete p s)) !slots;
  let more = ref 0 in
  (try
     while true do
       match Page.insert p record with
       | Some _ -> incr more
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "space reclaimed" true (!more >= n / 2 - 2)

(* ------------------------------------------------------------------ *)
(* Heap files & buffer pool                                           *)
(* ------------------------------------------------------------------ *)

let test_heap_file () =
  let path = tmpfile "heap" in
  let disk = Disk.create path in
  let bp = Buffer_pool.create ~frames:4 disk in
  let heap = Heap_file.create bp in
  let payload i = Printf.sprintf "record-%04d-%s" i (String.make 500 'x') in
  let rids = List.init 1000 (fun i -> Heap_file.insert heap (payload i)) in
  List.iteri
    (fun i rid ->
      Alcotest.(check (option string))
        (Printf.sprintf "read %d" i)
        (Some (payload i))
        (Heap_file.read heap rid))
    rids;
  (* the pool is 4 frames; a sequential re-read of every page must miss *)
  let st = Buffer_pool.stats bp in
  Alcotest.(check bool) "evictions happened" true (st.Buffer_pool.evictions > 0);
  ignore (Heap_file.delete heap (List.hd rids));
  Alcotest.(check (option string)) "deleted" None (Heap_file.read heap (List.hd rids));
  let count = ref 0 in
  Heap_file.iter heap (fun _ _ -> incr count);
  Alcotest.(check int) "iter sees live records" 999 !count;
  Buffer_pool.flush bp;
  Disk.close disk;
  Sys.remove path

let test_buffer_pool_writeback () =
  let path = tmpfile "pool" in
  let disk = Disk.create path in
  let bp = Buffer_pool.create ~frames:2 disk in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk and p2 = Disk.alloc disk and p3 = Disk.alloc disk in
  Buffer_pool.with_page bp p1 (fun b -> Bytes.set b 0 'A', true);
  Buffer_pool.with_page bp p2 (fun b -> Bytes.set b 0 'B', true);
  (* faulting p3 in evicts a dirty page, which must be written back *)
  Buffer_pool.with_page bp p3 (fun b -> Bytes.set b 0 'C', true);
  Buffer_pool.flush bp;
  let check pid expected =
    let buf = Bytes.create Page.page_size in
    Disk.read disk pid buf;
    Alcotest.(check char) (Printf.sprintf "page %d" pid) expected (Bytes.get buf 0)
  in
  check p1 'A';
  check p2 'B';
  check p3 'C';
  Alcotest.(check bool) "writeback counted" true
    ((Buffer_pool.stats bp).Buffer_pool.writebacks >= 1);
  Disk.close disk;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* B-trees                                                            *)
(* ------------------------------------------------------------------ *)

let test_btree_basics () =
  let path = tmpfile "btree" in
  let disk = Disk.create path in
  let bp = Buffer_pool.create disk in
  let tree = Btree.create bp in
  for i = 0 to 999 do
    Btree.insert tree (Printf.sprintf "key%04d" i) (i * 7)
  done;
  Alcotest.(check (list int)) "point lookup" [ 3500 ] (Btree.find_all tree "key0500");
  Alcotest.(check (list int)) "missing" [] (Btree.find_all tree "nokey");
  Alcotest.(check int) "cardinal" 1000 (Btree.cardinal tree);
  Alcotest.(check bool) "tree actually split" true (Btree.height tree > 1);
  (* range scan *)
  let seen = ref [] in
  Btree.iter_range tree ~lo:"key0010" ~hi:"key0013" (fun k v ->
      seen := (k, v) :: !seen;
      true);
  Alcotest.(check int) "range size" 4 (List.length !seen);
  (* keys come back in order over the whole tree *)
  let keys = ref [] in
  Btree.iter_range tree (fun k _ ->
      keys := k :: !keys;
      true);
  let sorted = List.rev !keys in
  Alcotest.(check bool) "in-order traversal" true (sorted = List.sort compare sorted);
  Alcotest.(check int) "traversal complete" 1000 (List.length sorted);
  (* duplicates *)
  Btree.insert tree "key0500" 999999;
  Alcotest.(check int) "duplicate stored" 2 (List.length (Btree.find_all tree "key0500"));
  Alcotest.(check bool) "delete specific dup" true (Btree.delete tree "key0500" 3500);
  Alcotest.(check (list int)) "right one left" [ 999999 ] (Btree.find_all tree "key0500");
  Disk.close disk;
  Sys.remove path

let prop_btree_vs_model =
  QCheck2.Test.make ~name:"btree agrees with a reference map" ~count:30
    QCheck2.Gen.(list_size (int_range 0 400) (pair (int_range 0 50) (int_range 0 3)))
    (fun ops ->
      let path = tmpfile "btqc" in
      let disk = Disk.create path in
      let bp = Buffer_pool.create ~frames:8 disk in
      let tree = Btree.create bp in
      let model : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
      let ok = ref true in
      List.iteri
        (fun i (k, op) ->
          let key = Printf.sprintf "k%02d" k in
          if op = 3 then begin
            (* delete one value if present *)
            match Hashtbl.find_opt model key with
            | Some ({ contents = v :: rest } as cell) ->
              ignore (Btree.delete tree key v);
              cell := rest
            | _ -> ignore (Btree.delete tree key i)
          end
          else begin
            Btree.insert tree key i;
            match Hashtbl.find_opt model key with
            | Some cell -> cell := i :: !cell
            | None -> Hashtbl.add model key (ref [ i ])
          end;
          let expected =
            match Hashtbl.find_opt model key with Some c -> List.sort compare !c | None -> []
          in
          let actual = List.sort compare (Btree.find_all tree key) in
          if expected <> actual then ok := false)
        ops;
      Disk.close disk;
      Sys.remove path;
      !ok)

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec () =
  let row =
    [| Term.int 42; Term.int (-7); Term.int min_int; Term.double 3.25; Term.double (-0.0);
       Term.str "hello world"; Term.str ""; Term.big (Bignum.of_string "123456789012345678901234567890")
    |]
  in
  let decoded = Codec.decode (Codec.encode row) in
  Alcotest.(check bool) "roundtrip" true (Term.equal_array row decoded);
  Alcotest.check_raises "variables rejected"
    (Codec.Unstorable "variables cannot be stored persistently") (fun () ->
      ignore (Codec.encode [| Term.var 0 |]))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips random primitive rows" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 6)
        (oneof
           [ map Term.int int;
             map Term.double (float_bound_inclusive 1e9);
             map Term.str (string_size ~gen:printable (int_range 0 30))
           ]))
    (fun row ->
      let arr = Array.of_list row in
      Term.equal_array arr (Codec.decode (Codec.encode arr)))

let prop_key_encoding_order =
  QCheck2.Test.make ~name:"key encoding preserves int order" ~count:500
    QCheck2.Gen.(pair int int)
    (fun (a, b) ->
      let ka = Codec.encode_key (Term.int a) and kb = Codec.encode_key (Term.int b) in
      compare (compare ka kb) 0 = compare (compare a b) 0)

(* ------------------------------------------------------------------ *)
(* WAL and recovery                                                   *)
(* ------------------------------------------------------------------ *)

let test_wal_recovery () =
  let path = tmpfile "wal" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let pid = Disk.alloc disk in
  Disk.sync disk;
  (* a committed change that never reached the data file *)
  let wal = Wal.create (path ^ ".log") in
  let image = Bytes.make Page.page_size 'Z' in
  Wal.commit wal [ 0, pid, image ];
  Wal.close wal;
  (* crash here: reopen and recover *)
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  let replayed = Wal.recover wal ~disks:[| disk |] ~report in
  Alcotest.(check int) "one page replayed" 1 replayed;
  Alcotest.(check int) "one txn replayed" 1 report.Recovery.replayed_txns;
  let buf = Bytes.create Page.page_size in
  Disk.read disk pid buf;
  Alcotest.(check char) "image restored" 'Z' (Bytes.get buf 0);
  (* a torn tail (an incomplete trailing record) is discarded *)
  Wal.checkpoint wal;
  let fd = Unix.openfile (path ^ ".log") [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  ignore (Unix.write fd (Bytes.make 10 '\001') 0 10);
  Unix.close fd;
  let wal2 = Wal.create (path ^ ".log") in
  let report2 = Recovery.create () in
  Alcotest.(check int) "torn tail ignored" 0 (Wal.recover wal2 ~disks:[| disk |] ~report:report2);
  Alcotest.(check bool) "torn bytes recorded" true (report2.Recovery.torn_tail_bytes > 0);
  Wal.close wal;
  Wal.close wal2;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

(* Group commit: concurrent submissions merge into one checksummed log
   record (one transaction), so a crash mid-group drops the whole
   group atomically. *)
let test_group_commit_merge () =
  let path = tmpfile "group" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk in
  let p2 = Disk.alloc disk in
  Disk.sync disk;
  let wal = Wal.create (path ^ ".log") in
  let g = Wal.Group.create wal in
  (* two writers enqueue on the lane, then both await: the first
     becomes leader and flushes both as ONE record *)
  let t1 = Wal.Group.enqueue g [ 0, p1, Bytes.make Page.page_size 'A' ] in
  let t2 = Wal.Group.enqueue g [ 0, p2, Bytes.make Page.page_size 'B' ] in
  Wal.Group.await g t1;
  Wal.Group.await g t2;
  Wal.close wal;
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  let replayed = Wal.recover wal ~disks:[| disk |] ~report in
  Alcotest.(check int) "both pages replayed" 2 replayed;
  Alcotest.(check int) "as one merged transaction" 1 report.Recovery.replayed_txns;
  let buf = Bytes.create Page.page_size in
  Disk.read disk p1 buf;
  Alcotest.(check char) "first image" 'A' (Bytes.get buf 0);
  Disk.read disk p2 buf;
  Alcotest.(check char) "second image" 'B' (Bytes.get buf 0);
  (* an empty submission is durable by construction *)
  Wal.Group.await g (Wal.Group.enqueue g []);
  Wal.close wal;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

let test_group_commit_torn () =
  let path = tmpfile "grouptear" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk in
  let p2 = Disk.alloc disk in
  Disk.sync disk;
  let wal = Wal.create (path ^ ".log") in
  let g = Wal.Group.create wal in
  let t1 = Wal.Group.enqueue g [ 0, p1, Bytes.make Page.page_size 'A' ] in
  let t2 = Wal.Group.enqueue g [ 0, p2, Bytes.make Page.page_size 'B' ] in
  Wal.Group.await g t1;
  Wal.Group.await g t2;
  Wal.close wal;
  (* crash mid-group: cut the merged record a few bytes short.  Both
     submissions rode the same record, so recovery must drop BOTH —
     never replay the first writer's pages without the second's. *)
  let size = (Unix.stat (path ^ ".log")).Unix.st_size in
  let fd = Unix.openfile (path ^ ".log") [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd;
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  Alcotest.(check int) "whole group dropped" 0 (Wal.recover wal ~disks:[| disk |] ~report);
  Alcotest.(check int) "nothing replayed" 0 report.Recovery.replayed_txns;
  Alcotest.(check bool) "torn tail recorded" true (report.Recovery.torn_tail_bytes > 0);
  Wal.close wal;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

let test_group_commit_absorb () =
  let path = tmpfile "groupabs" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk in
  Disk.sync disk;
  let wal = Wal.create (path ^ ".log") in
  let g = Wal.Group.create wal in
  let image = Bytes.make Page.page_size 'C' in
  let t1 = Wal.Group.enqueue g [ 0, p1, image ] in
  (* a checkpoint-style commit makes the queued images durable in
     place; absorb retires the queue so the (stale) submissions never
     reach the truncated log and regress the pages *)
  Wal.Group.with_io g (fun () ->
      Wal.commit wal [ 0, p1, image ];
      Disk.write disk p1 image;
      Disk.sync disk;
      Wal.checkpoint wal;
      Wal.Group.absorb g);
  Wal.Group.await g t1;
  Wal.close wal;
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  Alcotest.(check int) "log empty after absorb" 0 (Wal.recover wal ~disks:[| disk |] ~report);
  let buf = Bytes.create Page.page_size in
  Disk.read disk p1 buf;
  Alcotest.(check char) "checkpointed image intact" 'C' (Bytes.get buf 0);
  Wal.close wal;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

(* The leader/checkpoint window: the leader dequeues its batch under
   the queue lock, but a checkpoint already holds the I/O lock and
   runs commit + truncate + absorb before the leader can append.  The
   leader must notice the absorb AFTER winning the I/O lock and drop
   the dequeued batch — appending its pre-checkpoint images into the
   freshly truncated log would let a crash replay them over the newer
   checkpointed page. *)
let test_group_commit_absorb_race () =
  let path = tmpfile "groupabsrace" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk in
  Disk.sync disk;
  let wal = Wal.create (path ^ ".log") in
  let g = Wal.Group.create wal in
  let stale = Bytes.make Page.page_size 'S' in
  let newer = Bytes.make Page.page_size 'N' in
  let waiter =
    Wal.Group.with_io g (fun () ->
        let t1 = Wal.Group.enqueue g [ 0, p1, Bytes.copy stale ] in
        let waiter = Thread.create (fun () -> Wal.Group.await g t1) () in
        (* let the awaiter become leader and dequeue the batch; it then
           blocks on the I/O lock we hold *)
        Thread.delay 0.05;
        Wal.commit wal [ 0, p1, newer ];
        Disk.write disk p1 newer;
        Disk.sync disk;
        Wal.checkpoint wal;
        Wal.Group.absorb g;
        waiter)
  in
  Thread.join waiter;
  Wal.close wal;
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  Alcotest.(check int) "absorbed batch never reaches the log" 0
    (Wal.recover wal ~disks:[| disk |] ~report);
  let buf = Bytes.create Page.page_size in
  Disk.read disk p1 buf;
  Alcotest.(check char) "checkpointed image not regressed" 'N' (Bytes.get buf 0);
  Wal.close wal;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

(* Backpressure: the submission queue is bounded, so a write storm
   past [max_pending] parks in [enqueue] (counted in
   wal.group_commit.backpressure_waits) instead of growing the queue
   without bound — and keeps making progress even while a checkpoint
   thread repeatedly takes the I/O lock and absorbs the queue out from
   under the parked writers. *)
let test_group_commit_backpressure_stress () =
  let path = tmpfile "groupstress" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let writers = 4 in
  let rounds = 25 in
  let pages = Array.init writers (fun _ -> Disk.alloc disk) in
  Disk.sync disk;
  let wal = Wal.create (path ^ ".log") in
  let g = Wal.Group.create ~max_pending:2 wal in
  Coral_obs.Obs.set_enabled true;
  let c_bp = Coral_obs.Obs.counter "wal.group_commit.backpressure_waits" in
  let before = Coral_obs.Obs.Counter.value c_bp in
  let failures = Atomic.make 0 in
  let writer w () =
    try
      for _ = 1 to rounds do
        let c = Char.chr (Char.code 'a' + w) in
        (* burst past the cap before awaiting so the bound engages *)
        let ts =
          List.init 3 (fun _ ->
              Wal.Group.enqueue g [ 0, pages.(w), Bytes.make Page.page_size c ])
        in
        List.iter (Wal.Group.await g) ts
      done
    with _ -> Atomic.incr failures
  in
  let stop = Atomic.make false in
  let ckpt () =
    let z = Bytes.make Page.page_size 'Z' in
    while not (Atomic.get stop) do
      Wal.Group.with_io g (fun () ->
          Wal.commit wal (Array.to_list (Array.map (fun p -> 0, p, z) pages));
          Array.iter (fun p -> Disk.write disk p z) pages;
          Disk.sync disk;
          Wal.checkpoint wal;
          Wal.Group.absorb g);
      Thread.delay 0.001
    done
  in
  let ck = Thread.create ckpt () in
  let ths = Array.init writers (fun w -> Thread.create (writer w) ()) in
  Array.iter Thread.join ths;
  Atomic.set stop true;
  Thread.join ck;
  Coral_obs.Obs.set_enabled false;
  Alcotest.(check int) "no writer failed" 0 (Atomic.get failures);
  Alcotest.(check bool) "bound engaged at least once" true
    (Coral_obs.Obs.Counter.value c_bp > before);
  Wal.close wal;
  let wal = Wal.create (path ^ ".log") in
  let report = Recovery.create () in
  ignore (Wal.recover wal ~disks:[| disk |] ~report);
  Alcotest.(check int) "no torn tail on clean close" 0 report.Recovery.torn_tail_bytes;
  (* every page holds a complete image: either the checkpoint's or its
     own writer's, never a mix and never a dropped write *)
  let buf = Bytes.create Page.page_size in
  Array.iteri
    (fun w p ->
      Disk.read disk p buf;
      let c = Bytes.get buf 0 in
      let own = Char.chr (Char.code 'a' + w) in
      Alcotest.(check bool) "page holds a full image" true (c = own || c = 'Z');
      Alcotest.(check char) "image is uniform" c (Bytes.get buf (Page.page_size - 1)))
    pages;
  Wal.close wal;
  Disk.close disk;
  Sys.remove path;
  Sys.remove (path ^ ".log")

(* ------------------------------------------------------------------ *)
(* Snapshot epoch allocation                                          *)
(* ------------------------------------------------------------------ *)

(* Staged epochs come from a monotone counter, so a writer that stages
   AFTER another writer — but before that writer has published — still
   gets a strictly larger epoch and its publish wins regardless of
   publish order.  (Deriving the epoch from the published one would
   hand both writers the same number and silently drop the later
   writer's publish.) *)
let test_snapshot_staged_epochs () =
  let s = Snapshot.create "v1" in
  let a = Snapshot.stage s "a" in
  let b = Snapshot.stage s "b" in
  Alcotest.(check bool) "later stage gets a strictly larger epoch" true
    (Snapshot.version_epoch b > Snapshot.version_epoch a);
  (* out-of-order publication: the later writer's group commit wins
     the race to publish *)
  Snapshot.publish s b;
  Snapshot.publish s a;
  Alcotest.(check int) "later stage wins regardless of publish order"
    (Snapshot.version_epoch b) (Snapshot.epoch s);
  let v = Snapshot.pin s in
  Alcotest.(check string) "latest view visible" "b" (Snapshot.view v);
  Snapshot.release v

(* ------------------------------------------------------------------ *)
(* Checksums, fault injection and crash recovery                      *)
(* ------------------------------------------------------------------ *)

(* Helper: a small committed relation in [dir] named "edge" with an
   index on column 0; tuples are (i, i * 10) for i in [0, n). *)
let build_relation ?injector ~dir n =
  let h = Persistent_relation.open_ ?injector ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let rel = Persistent_relation.relation h in
  for i = 0 to n - 1 do
    ignore (Relation.insert_terms rel [| Term.int i; Term.int (i * 10) |])
  done;
  Persistent_relation.commit h;
  h

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_checksum_quarantine () =
  let dir = tmpdir "cksum" in
  Persistent_relation.close (build_relation ~dir 300);
  (* corrupt one byte inside heap page 1's image *)
  flip_byte (Filename.concat dir "edge.heap") (Disk.page_offset 1 + 100);
  let h = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let report = Persistent_relation.last_recovery h in
  Alcotest.(check bool) "not clean" false (Recovery.clean report);
  Alcotest.(check bool) "page quarantined" true
    (List.exists (fun (f, pid) -> Filename.basename f = "edge.heap" && pid = 1)
       report.Recovery.quarantined);
  (* the B-tree (a different file) still serves *)
  let rel = Persistent_relation.relation h in
  Alcotest.(check int) "index still counts" 300 (Relation.cardinal rel);
  (* a scan that touches the quarantined page raises Corrupt *)
  let scans_corrupt =
    try
      ignore (Relation.to_list rel);
      false
    with Disk.Corrupt { pid = 1; _ } -> true
  in
  Alcotest.(check bool) "scan hits quarantine" true scans_corrupt;
  Persistent_relation.close h

let test_fatal_metadata_corruption () =
  let dir = tmpdir "fatal" in
  Persistent_relation.close (build_relation ~dir 50);
  (* destroy the B-tree root pointer page of the uniq index *)
  flip_byte (Filename.concat dir "edge.uniq.idx") (Disk.page_offset 0 + 1);
  let fatal =
    try
      ignore (Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 ());
      false
    with Recovery.Fatal_corruption _ -> true
  in
  Alcotest.(check bool) "metadata page 0 is fatal" true fatal

let test_disk_quarantine_lift () =
  let path = tmpfile "quar" in
  let disk = Disk.create path in
  ignore (Disk.alloc disk);
  let pid = Disk.alloc disk in
  let img = Bytes.make Page.page_size 'Q' in
  Disk.write disk pid img;
  Disk.close disk;
  flip_byte path (Disk.page_offset pid + 7);
  let disk = Disk.create path in
  let buf = Bytes.create Page.page_size in
  let corrupt = try Disk.read disk pid buf; false with Disk.Corrupt _ -> true in
  Alcotest.(check bool) "corrupted read raises" true corrupt;
  Alcotest.(check int) "quarantined" 1 (List.length (Disk.quarantined disk));
  (* rewriting the page lifts the quarantine *)
  Disk.write disk pid img;
  Disk.read disk pid buf;
  Alcotest.(check char) "fresh image serves" 'Q' (Bytes.get buf 0);
  Alcotest.(check (list (pair int string))) "quarantine lifted" [] (Disk.quarantined disk);
  Disk.close disk;
  Sys.remove path

(* A page file or WAL that does not start with its format's magic is
   refused, not reinitialised or replayed, and left as it was; a file
   shorter than its header is a torn create and starts clean. *)
let test_headerless_refused () =
  let write_file path b =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let rec go off len = if len > 0 then (let n = Unix.write fd b off len in go (off + n) (len - n)) in
    go 0 (Bytes.length b);
    Unix.close fd
  in
  let size path = (Unix.stat path).Unix.st_size in
  let refused f = try ignore (f ()); false with Recovery.Fatal_corruption _ -> true in
  (* a page file of raw page images, no header *)
  let path = tmpfile "headerless" in
  let img = Bytes.make Page.page_size '\000' in
  Page.init img;
  ignore (Page.insert img "record");
  write_file path (Bytes.cat (Bytes.make Page.page_size '\000') img);
  Alcotest.(check bool) "headerless page file refused" true (refused (fun () -> Disk.create path));
  Alcotest.(check int) "page file left as it was" (2 * Page.page_size) (size path);
  (* a log whose first 8 bytes are not the log header *)
  let data = tmpfile "walrefuse" in
  let disk = Disk.create data in
  let log = tmpfile "walrefuse.wal" in
  let junk = Bytes.make 64 '\000' in
  Bytes.set junk 0 '\001';
  write_file log junk;
  let w = Wal.create log in
  Alcotest.(check bool) "headerless log refused" true
    (refused (fun () -> Wal.recover w ~disks:[| disk |] ~report:(Recovery.create ())));
  Wal.close w;
  Alcotest.(check int) "log left as it was" 64 (size log);
  Alcotest.(check int) "nothing replayed" 0 (Disk.npages disk);
  Disk.close disk;
  (* a page file shorter than its header: torn create, starts clean *)
  write_file path (Bytes.of_string "CORAL");
  let disk = Disk.create path in
  Alcotest.(check int) "torn create starts clean" 0 (Disk.npages disk);
  Disk.close disk;
  List.iter Sys.remove [ path; data; log ]

let test_pool_exhausted () =
  let path = tmpfile "exhaust" in
  let disk = Disk.create path in
  let bp = Buffer_pool.create ~frames:2 disk in
  ignore (Disk.alloc disk);
  let p1 = Disk.alloc disk and p2 = Disk.alloc disk and p3 = Disk.alloc disk in
  ignore (Buffer_pool.get bp p1) (* pinned *);
  ignore (Buffer_pool.get bp p2) (* pinned *);
  let exhausted = try ignore (Buffer_pool.get bp p3); false with Buffer_pool.Pool_exhausted -> true in
  Alcotest.(check bool) "all-pinned pool refuses" true exhausted;
  (* unpinning makes the pool usable again *)
  Buffer_pool.unpin bp p1 ~dirty:false;
  ignore (Buffer_pool.get bp p3);
  Buffer_pool.unpin bp p2 ~dirty:false;
  Buffer_pool.unpin bp p3 ~dirty:false;
  Disk.close disk;
  Sys.remove path

let test_transient_read_retry () =
  let path = tmpfile "retry" in
  let inj = Disk.Faulty.create () in
  let disk = Disk.create ~injector:inj path in
  ignore (Disk.alloc disk);
  let pid = Disk.alloc disk in
  let img = Bytes.make Page.page_size 'R' in
  Disk.write disk pid img;
  let bp = Buffer_pool.create ~frames:4 disk in
  Disk.Faulty.inject_read_faults inj 2;
  (* two transient EIOs, then success: the pool retries through them *)
  Buffer_pool.with_page bp pid (fun b ->
      Alcotest.(check char) "read through faults" 'R' (Bytes.get b 0);
      (), false);
  Alcotest.(check int) "two retries recorded" 2 (Buffer_pool.stats bp).Buffer_pool.retries;
  Disk.close disk;
  Sys.remove path

let test_enospc_surfaces () =
  let dir = tmpdir "enospc" in
  let inj = Disk.Faulty.create () in
  let h = build_relation ~injector:inj ~dir 20 in
  let rel = Persistent_relation.relation h in
  ignore (Relation.insert_terms rel [| Term.int 999; Term.int 999 |]);
  Disk.Faulty.inject_enospc inj 1;
  let full =
    try
      Persistent_relation.commit h;
      false
    with Disk.Fault { transient = false; _ } -> true
  in
  Alcotest.(check bool) "ENOSPC is a hard fault" true full;
  Persistent_relation.abandon h

(* A deterministic miniature of bin/crashtest.ml: commit two
   transactions, tear the storage at a fixed byte budget during a
   third, recover, and check durability + atomicity.  The budgets are
   chosen to land in different phases (mid-insert, mid-WAL-append,
   mid-write-back, on a sync point). *)
let test_crash_recovery_deterministic () =
  List.iter
    (fun budget ->
      let dir = tmpdir "crash" in
      let inj = Disk.Faulty.create () in
      let open_rel () =
        Persistent_relation.open_ ~injector:inj ~indexes:[ 0 ] ~dir ~name:"t" ~arity:2 ()
      in
      let h = open_rel () in
      let rel = Persistent_relation.relation h in
      let insert i = ignore (Relation.insert_terms rel [| Term.int i; Term.int (i * 10) |]) in
      for i = 0 to 9 do insert i done;
      Persistent_relation.commit h;
      for i = 10 to 19 do insert i done;
      Persistent_relation.commit h;
      Disk.Faulty.arm_crash inj ~after_bytes:budget;
      let in_doubt =
        try
          for i = 20 to 29 do insert i done;
          Persistent_relation.commit h;
          false (* the budget outlived the commit: durable *)
        with Disk.Crashed _ -> true
      in
      Persistent_relation.abandon h;
      Disk.Faulty.disarm inj;
      let h2 = open_rel () in
      let rel2 = Persistent_relation.relation h2 in
      let present i =
        Relation.scan rel2 ~pattern:([| Term.int i; Term.var 0 |], Coral_term.Bindenv.empty) ()
        |> List.of_seq
        |> List.exists (fun t ->
               match t.Tuple.terms.(0) with Term.Const (Value.Int v) -> v = i | _ -> false)
      in
      for i = 0 to 19 do
        Alcotest.(check bool)
          (Printf.sprintf "budget %d: committed %d survives" budget i)
          true (present i)
      done;
      let third = List.init 10 (fun i -> present (20 + i)) in
      let all_there = List.for_all Fun.id third and none_there = List.for_all not third in
      if in_doubt then
        Alcotest.(check bool)
          (Printf.sprintf "budget %d: in-doubt txn is atomic" budget)
          true (all_there || none_there)
      else
        Alcotest.(check bool) (Printf.sprintf "budget %d: completed txn present" budget) true
          all_there;
      let n = Relation.cardinal rel2 in
      Alcotest.(check int)
        (Printf.sprintf "budget %d: index agrees with heap" budget)
        (List.length (Relation.to_list rel2))
        n;
      Persistent_relation.close h2)
    [ 100; 5_000; 9_000; 17_000; 60_000 ]

(* ------------------------------------------------------------------ *)
(* Persistent relations                                               *)
(* ------------------------------------------------------------------ *)

let test_persistent_relation () =
  let dir = tmpdir "prel" in
  let h = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let rel = Persistent_relation.relation h in
  for i = 1 to 500 do
    ignore (Relation.insert_terms rel [| Term.int (i mod 50); Term.int i |])
  done;
  Alcotest.(check int) "cardinal" 500 (Relation.cardinal rel);
  Alcotest.(check bool) "duplicate rejected" false
    (Relation.insert_terms rel [| Term.int 1; Term.int 1 |]);
  (* index probe via the pattern interface *)
  let pattern = [| Term.int 7; Term.var 0 |], Coral_term.Bindenv.empty in
  let hits = List.of_seq (Relation.scan rel ~pattern ()) in
  Alcotest.(check int) "index probe" 10 (List.length hits);
  (* persistence across close/reopen *)
  Persistent_relation.close h;
  let h2 = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let rel2 = Persistent_relation.relation h2 in
  Alcotest.(check int) "reopened cardinal" 500 (Relation.cardinal rel2);
  let hits2 = List.of_seq (Relation.scan rel2 ~pattern ()) in
  Alcotest.(check int) "reopened probe" 10 (List.length hits2);
  (* delete *)
  let deleted =
    Relation.delete rel2 (fun t ->
        match t.Tuple.terms.(1) with Term.Const (Value.Int i) -> i <= 50 | _ -> false)
  in
  Alcotest.(check int) "deleted" 50 deleted;
  Alcotest.(check int) "after delete" 450 (Relation.cardinal rel2);
  Persistent_relation.close h2

let test_persistent_in_queries () =
  (* persistent relation plugged into the engine via set_relation *)
  let dir = tmpdir "pq" in
  let h = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
  let rel = Persistent_relation.relation h in
  List.iter
    (fun (a, b) -> ignore (Relation.insert_terms rel [| Term.int a; Term.int b |]))
    [ 1, 2; 2, 3; 3, 4 ];
  let e = Coral_eval.Engine.create () in
  Coral_eval.Engine.set_relation e (Symbol.intern "edge") rel;
  ignore
    (Coral_eval.Engine.consult e
       {|
module paths.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|});
  let r = Coral_eval.Engine.query_string e "path(1, Y)" in
  Alcotest.(check int) "closure over persistent edges" 3 (List.length r.Coral_eval.Engine.rows);
  Persistent_relation.close h

let test_database () =
  let dir = tmpdir "db" in
  let db = Database.open_ ~pool_frames:16 dir in
  let edges = Database.relation db ~indexes:[ 0 ] ~name:"edges" ~arity:2 () in
  let names = Database.relation db ~name:"names" ~arity:2 () in
  for i = 0 to 99 do
    ignore (Relation.insert_terms edges [| Term.int i; Term.int (i + 1) |]);
    ignore (Relation.insert_terms names [| Term.int i; Term.str (Printf.sprintf "n%d" i) |])
  done;
  (* repeated opens return the same relation *)
  let again = Database.relation db ~name:"edges" ~arity:2 () in
  Alcotest.(check bool) "same relation" true (edges == again);
  Alcotest.(check int) "two relations" 2 (List.length (Database.relations db));
  Database.commit db;
  Database.close db;
  (* everything survives a reopen *)
  let db2 = Database.open_ ~pool_frames:16 dir in
  let edges2 = Database.relation db2 ~indexes:[ 0 ] ~name:"edges" ~arity:2 () in
  let names2 = Database.relation db2 ~name:"names" ~arity:2 () in
  Alcotest.(check int) "edges back" 100 (Relation.cardinal edges2);
  Alcotest.(check int) "names back" 100 (Relation.cardinal names2);
  Alcotest.(check bool) "stats cover all files" true (List.length (Database.io_stats db2) >= 4);
  Database.close db2

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "coral_storage"
    [ ( "page",
        [ Alcotest.test_case "basics" `Quick test_page_basics;
          Alcotest.test_case "fill & compact" `Quick test_page_fill_and_compact
        ] );
      ( "heap & pool",
        [ Alcotest.test_case "heap file" `Quick test_heap_file;
          Alcotest.test_case "writeback" `Quick test_buffer_pool_writeback
        ] );
      ("btree", [ Alcotest.test_case "basics" `Quick test_btree_basics ] @ qcheck [ prop_btree_vs_model ]);
      ( "codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec ]
        @ qcheck [ prop_codec_roundtrip; prop_key_encoding_order ] );
      ( "wal",
        [ Alcotest.test_case "recovery" `Quick test_wal_recovery;
          Alcotest.test_case "group commit merge" `Quick test_group_commit_merge;
          Alcotest.test_case "group torn tail atomicity" `Quick test_group_commit_torn;
          Alcotest.test_case "group absorb at checkpoint" `Quick test_group_commit_absorb;
          Alcotest.test_case "group absorb vs in-flight leader" `Quick
            test_group_commit_absorb_race;
          Alcotest.test_case "group backpressure stress" `Quick
            test_group_commit_backpressure_stress
        ] );
      ( "snapshot",
        [ Alcotest.test_case "staged epoch allocation" `Quick test_snapshot_staged_epochs ] );
      ( "faults & recovery",
        [ Alcotest.test_case "checksum quarantine" `Quick test_checksum_quarantine;
          Alcotest.test_case "fatal metadata corruption" `Quick test_fatal_metadata_corruption;
          Alcotest.test_case "quarantine lift on rewrite" `Quick test_disk_quarantine_lift;
          Alcotest.test_case "headerless files refused" `Quick test_headerless_refused;
          Alcotest.test_case "pool exhausted" `Quick test_pool_exhausted;
          Alcotest.test_case "transient read retry" `Quick test_transient_read_retry;
          Alcotest.test_case "ENOSPC surfaces" `Quick test_enospc_surfaces;
          Alcotest.test_case "crash recovery (deterministic)" `Quick
            test_crash_recovery_deterministic
        ] );
      ( "persistent",
        [ Alcotest.test_case "relation" `Quick test_persistent_relation;
          Alcotest.test_case "engine integration" `Quick test_persistent_in_queries;
          Alcotest.test_case "database" `Quick test_database
        ] )
    ]
