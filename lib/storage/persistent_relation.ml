open Coral_term
open Coral_rel

(* A relation is a small family of page files — the heap, the
   duplicate-elimination index, one B-tree per indexed column — made
   durable together through ONE write-ahead log whose records tag each
   page image with its file.  Commit is therefore atomic at relation
   granularity: after a crash at any byte, recovery either replays a
   whole commit (heap and indexes) or none of it, so the indexes can
   never disagree with the heap. *)

type file = {
  fname : string;
  bp : Buffer_pool.t;
}

type handle = {
  files : file array;  (* 0 = heap, 1 = uniq, 2.. = column indexes *)
  wal : Wal.t;
  group : Wal.Group.g;
  rel : Relation.t;
  report : Recovery.t;
}

let dirty_entries h =
  Array.to_list h.files
  |> List.mapi (fun fid f ->
         List.map (fun (pid, image) -> fid, pid, image) (Buffer_pool.dirty_pages f.bp))
  |> List.concat

let commit h =
  let entries = dirty_entries h in
  if entries <> [] then
    (* redo-log first (one fsync covers every file), then write back,
       then truncate the log.  Serialized against the group-commit
       leader's appends; the checkpoint makes every queued group
       submission durable in place, so the queue is absorbed rather
       than letting stale images reach the truncated log. *)
    Wal.Group.with_io h.group (fun () ->
        Wal.commit h.wal entries;
        Array.iter (fun f -> Buffer_pool.flush f.bp) h.files;
        Wal.checkpoint h.wal;
        Wal.Group.absorb h.group)

(* The write lane's group-commit path: [stage] (under the lane lock)
   copies the current dirty after-images and queues them; [publish]
   (lane released) blocks until the group leader has fsynced them.
   Pages are NOT written back here — write-back stays at spill/close
   time (no-steal/force at checkpoint granularity), the log alone
   carries durability between checkpoints. *)
let stage h =
  let entries = List.map (fun (fid, pid, image) -> fid, pid, Bytes.copy image) (dirty_entries h) in
  Wal.Group.enqueue h.group entries

let publish h ticket = Wal.Group.await h.group ticket

let close h =
  commit h;
  Array.iter (fun f -> Disk.close (Buffer_pool.disk f.bp)) h.files;
  Wal.close h.wal

let abandon h =
  (* simulated-crash teardown: release descriptors, write nothing *)
  Array.iter (fun f -> Disk.close (Buffer_pool.disk f.bp)) h.files;
  Wal.close h.wal

let last_recovery h = h.report

let open_ ?(pool_frames = 64) ?(indexes = []) ?injector ?(verify = true) ~dir ~name ~arity () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let in_dir f = Filename.concat dir f in
  let paths =
    Array.of_list
      (in_dir (name ^ ".heap") :: in_dir (name ^ ".uniq.idx")
      :: List.map (fun col -> in_dir (Printf.sprintf "%s.%d.idx" name col)) indexes)
  in
  let report = Recovery.create () in
  let disks = Array.map (fun p -> Disk.create ?injector p) paths in
  (* From here on the disks (and soon the log) are open: any failure —
     including an injected crash during recovery — must release the
     descriptors before propagating, or a crash-test loop would leak
     them. *)
  let wal_ref = ref None in
  let cleanup () =
    Array.iter (fun d -> try Disk.close d with _ -> ()) disks;
    match !wal_ref with
    | Some w -> ( try Wal.close w with _ -> ())
    | None -> ()
  in
  try
  let wal = Wal.create ?injector (in_dir (name ^ ".wal")) in
  wal_ref := Some wal;
  ignore (Wal.recover wal ~disks ~report);
  (* recovery replays are synced by [Wal.recover]; the log can be
     truncated *)
  Wal.checkpoint wal;
  if verify then
    Array.iteri
      (fun fid d ->
        List.iter
          (fun (pid, _detail) ->
            Recovery.quarantine report paths.(fid) pid;
            (* page 0 of a B-tree file holds the root pointer: without
               it the index is unusable, and silently rebuilding it
               would hide real data loss *)
            if fid >= 1 && pid = 0 then
              raise
                (Recovery.Fatal_corruption
                   (Printf.sprintf "%s: metadata page 0 failed verification" paths.(fid))))
          (Disk.verify d))
      disks;
  let files =
    Array.mapi
      (fun i d ->
        { fname = paths.(i); bp = Buffer_pool.create ~frames:pool_frames ~wal_backed:true d })
      disks
  in
  let meta_guard path f =
    try f () with
    | Disk.Corrupt { pid; _ } when pid = 0 ->
      raise
        (Recovery.Fatal_corruption
           (Printf.sprintf "%s: unreadable metadata page 0" path))
  in
  let heap = Heap_file.create files.(0).bp in
  let uniq = meta_guard paths.(1) (fun () -> Btree.create files.(1).bp) in
  let index_handles =
    List.mapi
      (fun i col ->
        col, meta_guard paths.(2 + i) (fun () -> Btree.create files.(2 + i).bp))
      indexes
  in
  (* --- Relation implementation ------------------------------------ *)
  let insert ~dedup (tuple : Tuple.t) =
    if not (Tuple.is_ground tuple) then
      raise (Codec.Unstorable "persistent relations hold ground primitive tuples only");
    let record = Codec.encode tuple.Tuple.terms in
    if dedup && Btree.find_all uniq record <> [] then false
    else begin
      let rid = Heap_file.insert heap record in
      Btree.insert uniq record rid;
      List.iter
        (fun (col, tree) -> Btree.insert tree (Codec.encode_key tuple.Tuple.terms.(col)) rid)
        index_handles;
      true
    end
  in
  let decode_tuple record = Tuple.of_terms (Codec.decode record) in
  (* Candidates for a pattern: a B-tree probe when some indexed column
     is ground in the pattern, else a full heap scan through the pool,
     one page at a time: a page's tuples are decoded while it is pinned
     and handed to [f] after it is released (so [f] may itself use the
     pool), and no further page is read once [f] says stop. *)
  let iter ~from_mark ~to_mark:_ ~pattern f =
    if from_mark = 0 then begin
      let probe =
        match pattern with
        | None -> None
        | Some (args, env) ->
          List.find_map
            (fun (col, tree) ->
              if col >= Array.length args then None
              else begin
                let resolved = Unify.resolve args.(col) env in
                if Term.is_ground resolved then
                  Some (Btree.find_all tree (Codec.encode_key resolved))
                else None
              end)
            index_handles
      in
      match probe with
      | Some rids ->
        ignore
          (List.for_all
             (fun rid ->
               match Heap_file.read heap rid with
               | Some record -> f (decode_tuple record)
               | None -> true)
             rids)
      | None ->
        let npages = Disk.npages (Buffer_pool.disk files.(0).bp) in
        let page_tuples pid =
          let acc = ref [] in
          Buffer_pool.with_page files.(0).bp pid (fun page ->
              Page.iter page (fun _ record -> acc := decode_tuple record :: !acc);
              (), false);
          List.rev !acc
        in
        let rec pages pid = pid < npages && List.for_all f (page_tuples pid) && pages (pid + 1) in
        ignore (pages 1)
    end
  in
  let remove_tuple (t : Tuple.t) =
    let record = Codec.encode t.Tuple.terms in
    match Btree.find_all uniq record with
    | rid :: _ ->
      ignore (Heap_file.delete heap rid);
      ignore (Btree.delete uniq record rid);
      List.iter
        (fun (col, tree) -> ignore (Btree.delete tree (Codec.encode_key t.Tuple.terms.(col)) rid))
        index_handles
    | [] -> ()
  in
  let delete ~pattern pred =
    let victims = ref [] in
    iter ~from_mark:0 ~to_mark:(-1) ~pattern (fun t ->
        if pred t then victims := t :: !victims;
        true);
    List.iter remove_tuple !victims;
    List.length !victims
  in
  let rel =
    Relation.v ~name ~arity
      { Relation.i_insert = insert;
        i_delete = delete;
        i_retire = remove_tuple;
        i_mark = (fun () -> 0);
        i_marks = (fun () -> 0);
        i_cardinal = (fun () -> Btree.cardinal uniq);
        i_add_index = (fun _ -> ());
        i_indexes = (fun () -> List.map (fun (c, _) -> Index.Args [ c ]) index_handles);
        i_iter = iter;
        i_mem =
          (fun t ->
            (* exact-duplicate check via the uniqueness index; ground
               tuples only reach here (persistent stores reject
               non-ground rows at insert) *)
            Btree.find_all uniq (Codec.encode t.Tuple.terms) <> []);
        i_clear = (fun () -> failwith "persistent relations cannot be cleared in place");
        (* reads do buffer-pool I/O (latches, evictions), so there is no
           lock-free immutable view to hand out; snapshot readers fall
           back to the locked lane for databases serving these *)
        i_freeze = (fun () -> None)
      }
  in
  let h = { files; wal; group = Wal.Group.create wal; rel; report } in
  (* a pool that runs out of clean frames commits the whole relation
     (making every frame evictable) rather than failing the operation *)
  Array.iter (fun f -> Buffer_pool.set_spill_handler f.bp (fun () -> commit h)) files;
  h
  with e ->
    cleanup ();
    raise e

let relation h = h.rel

let io_stats h =
  Array.to_list h.files
  |> List.map (fun f -> Filename.basename f.fname, Buffer_pool.stats f.bp)
