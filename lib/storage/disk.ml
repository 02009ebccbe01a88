(* The raw page device, now defensive.

   On-disk format (v1):
     [0..15]   file header: magic "CORALPG1", version u32 LE, page_size u32 LE
     then one slot per page: [page image (Page.page_size bytes)]
                             [crc32 of the image, u32 LE]
                             [page id echo, u32 LE]
   The checksum detects torn writes and bit rot; the id echo detects
   misdirected writes.  A file of at least a header's length without
   the magic is not a page file and is refused on open.

   All I/O goes through {!Io}, which hosts the fault-injection seam:
   an attached {!Faulty} injector can tear writes after a byte budget
   (simulating a crash), fail reads transiently or permanently, return
   short reads, and refuse writes with ENOSPC.  After an injected
   crash every subsequent operation raises {!Crashed}, modelling a
   dead process whose file descriptors are gone. *)

exception Fault of { transient : bool; op : string; path : string; detail : string }
exception Crashed of string
exception Corrupt of { path : string; pid : int; detail : string }

let () =
  Printexc.register_printer (function
    | Fault { transient; op; path; detail } ->
      Some
        (Printf.sprintf "Disk.Fault(%s on %s: %s%s)" op path detail
           (if transient then ", transient" else ""))
    | Crashed path -> Some (Printf.sprintf "Disk.Crashed(%s)" path)
    | Corrupt { path; pid; detail } ->
      Some (Printf.sprintf "Disk.Corrupt(page %d of %s: %s)" pid path detail)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

module Faulty = struct
  type t = {
    mutable budget : int;  (* bytes until crash; -1 = disarmed *)
    mutable is_crashed : bool;
    mutable transient_reads : int;
    mutable hard_reads : int;
    mutable short_reads : int;
    mutable enospc_writes : int;
  }

  let create () =
    { budget = -1;
      is_crashed = false;
      transient_reads = 0;
      hard_reads = 0;
      short_reads = 0;
      enospc_writes = 0
    }

  let arm_crash t ~after_bytes = t.budget <- max 0 after_bytes

  (* "restart the machine": clear the armed budget AND the crashed
     state, so handles opened afterwards work again *)
  let disarm t =
    t.budget <- -1;
    t.is_crashed <- false
  let crashed t = t.is_crashed

  let inject_read_faults ?(transient = true) t n =
    if transient then t.transient_reads <- t.transient_reads + n
    else t.hard_reads <- t.hard_reads + n

  let inject_short_reads t n = t.short_reads <- t.short_reads + n
  let inject_enospc t n = t.enospc_writes <- t.enospc_writes + n
end

(* ------------------------------------------------------------------ *)
(* Low-level file I/O with injection                                   *)
(* ------------------------------------------------------------------ *)

module Io = struct
  type t = {
    fd : Unix.file_descr;
    inj : Faulty.t option;
    ipath : string;
    mutable isize : int;
  }

  let openf ?injector path =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    { fd; inj = injector; ipath = path; isize = (Unix.fstat fd).Unix.st_size }

  let path t = t.ipath
  let size t = t.isize

  let check_dead t op =
    match t.inj with
    | Some i when i.Faulty.is_crashed -> raise (Crashed (t.ipath ^ ": " ^ op))
    | _ -> ()

  let rec read_loop fd buf off len acc =
    if len = 0 then acc
    else begin
      let n = Unix.read fd buf off len in
      if n = 0 then acc else read_loop fd buf (off + n) (len - n) (acc + n)
    end

  (* Read up to [len] bytes at [pos]; returns the count actually read
     (short only at end of file, or under an injected short read). *)
  let pread t ~pos buf off len =
    check_dead t "read";
    let len =
      match t.inj with
      | Some i ->
        if i.Faulty.hard_reads > 0 then begin
          i.Faulty.hard_reads <- i.Faulty.hard_reads - 1;
          raise (Fault { transient = false; op = "read"; path = t.ipath; detail = "injected EIO" })
        end;
        if i.Faulty.transient_reads > 0 then begin
          i.Faulty.transient_reads <- i.Faulty.transient_reads - 1;
          raise
            (Fault { transient = true; op = "read"; path = t.ipath; detail = "injected transient EIO" })
        end;
        if i.Faulty.short_reads > 0 then begin
          i.Faulty.short_reads <- i.Faulty.short_reads - 1;
          max 1 (len / 2)
        end
        else len
      | None -> len
    in
    ignore (Unix.lseek t.fd pos Unix.SEEK_SET);
    read_loop t.fd buf off len 0

  let write_all fd buf off len =
    let rec go off len =
      if len > 0 then begin
        let n = Unix.write fd buf off len in
        go (off + n) (len - n)
      end
    in
    go off len

  let pwrite t ~pos buf =
    check_dead t "write";
    let len = Bytes.length buf in
    (match t.inj with
    | Some i ->
      if i.Faulty.enospc_writes > 0 then begin
        i.Faulty.enospc_writes <- i.Faulty.enospc_writes - 1;
        raise (Fault { transient = false; op = "write"; path = t.ipath; detail = "injected ENOSPC" })
      end;
      if i.Faulty.budget >= 0 && i.Faulty.budget < len then begin
        (* torn write: the first [budget] bytes reach the platter, then
           the "machine" dies *)
        let torn = i.Faulty.budget in
        ignore (Unix.lseek t.fd pos Unix.SEEK_SET);
        write_all t.fd buf 0 torn;
        t.isize <- max t.isize (pos + torn);
        i.Faulty.is_crashed <- true;
        raise (Crashed t.ipath)
      end;
      if i.Faulty.budget >= 0 then i.Faulty.budget <- i.Faulty.budget - len
    | None -> ());
    ignore (Unix.lseek t.fd pos Unix.SEEK_SET);
    write_all t.fd buf 0 len;
    t.isize <- max t.isize (pos + len)

  let append t buf = pwrite t ~pos:t.isize buf

  (* Metadata operations count one budget unit so a crash can land
     exactly on an fsync or a truncate. *)
  let meta_gate t op =
    check_dead t op;
    match t.inj with
    | Some i when i.Faulty.budget >= 0 ->
      if i.Faulty.budget = 0 then begin
        i.Faulty.is_crashed <- true;
        raise (Crashed t.ipath)
      end
      else i.Faulty.budget <- i.Faulty.budget - 1
    | _ -> ()

  let fsync t =
    meta_gate t "fsync";
    Unix.fsync t.fd

  let truncate t n =
    meta_gate t "truncate";
    Unix.ftruncate t.fd n;
    t.isize <- n

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Page file                                                          *)
(* ------------------------------------------------------------------ *)

let header_magic = "CORALPG1"
let format_version = 1
let header_size = 16
let tail_size = 8
let slot_size = Page.page_size + tail_size
let page_offset pid = header_size + (pid * slot_size)

let zero_page = Bytes.make Page.page_size '\000'

type t = {
  io : Io.t;
  fpath : string;
  mutable count : int;
  quarantine : (int, string) Hashtbl.t;
  scratch : Bytes.t;  (* one slot; storage access is serialized *)
}

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let set_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let make_header () =
  let h = Bytes.make header_size '\000' in
  Bytes.blit_string header_magic 0 h 0 8;
  set_u32 h 8 format_version;
  set_u32 h 12 Page.page_size;
  h

(* Validate the file header, or initialize a new file, before the
   injected Io handle is opened. *)
let prepare path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let head = Bytes.create 8 in
  let n = if size >= 8 then Io.read_loop fd head 0 8 0 else 0 in
  let fresh () =
    Unix.ftruncate fd 0;
    let h = make_header () in
    let rec go off len = if len > 0 then (let w = Unix.write fd h off len in go (off + w) (len - w)) in
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    go 0 header_size;
    Unix.close fd
  in
  if n = 8 && Bytes.to_string head = header_magic then begin
    (* v1: validate the rest of the header *)
    let rest = Bytes.create 8 in
    let m = Io.read_loop fd rest 0 8 0 in
    Unix.close fd;
    if m < 8 then raise (Recovery.Fatal_corruption (path ^ ": truncated file header"));
    let v = get_u32 rest 0 and psz = get_u32 rest 4 in
    if v <> format_version then
      raise
        (Recovery.Fatal_corruption
           (Printf.sprintf "%s: on-disk format version %d, expected %d" path v format_version));
    if psz <> Page.page_size then
      raise
        (Recovery.Fatal_corruption
           (Printf.sprintf "%s: page size %d, expected %d" path psz Page.page_size))
  end
  else if size >= header_size then begin
    Unix.close fd;
    raise (Recovery.Fatal_corruption (path ^ ": no " ^ header_magic ^ " page-file header"))
  end
  else
    (* empty, or a torn header from a crash while creating the file:
       nothing durable can live here, start clean *)
    fresh ()

let create ?injector path =
  prepare path;
  let io = Io.openf ?injector path in
  { io;
    fpath = path;
    count = max 0 ((Io.size io - header_size) / slot_size);
    quarantine = Hashtbl.create 4;
    scratch = Bytes.create slot_size
  }

let npages t = t.count
let path t = t.fpath

let all_zero b len =
  let rec go i = i >= len || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

let write_slot t pid img =
  Bytes.blit img 0 t.scratch 0 Page.page_size;
  set_u32 t.scratch Page.page_size (Checksum.crc32 img 0 Page.page_size);
  set_u32 t.scratch (Page.page_size + 4) pid;
  Io.pwrite t.io ~pos:(page_offset pid) t.scratch

let write t pid buf =
  assert (Bytes.length buf = Page.page_size);
  if pid > t.count then
    (* fill the gap with valid empty slots so intermediate pages read
       back cleanly rather than as checksum noise *)
    for gap = t.count to pid - 1 do
      write_slot t gap zero_page
    done;
  write_slot t pid buf;
  if pid >= t.count then t.count <- pid + 1;
  Hashtbl.remove t.quarantine pid

let alloc t =
  let pid = t.count in
  write t pid zero_page;
  pid

(* Check the slot bytes sitting in [t.scratch] (already read, [n]
   bytes).  Returns [Ok ()] for a valid page (image left in scratch),
   [Error detail] otherwise. *)
let check_slot t pid n =
  if n = 0 then begin
    Bytes.fill t.scratch 0 slot_size '\000';
    Ok ()
  end
  else if n < slot_size then Error (Printf.sprintf "short read (%d of %d bytes)" n slot_size)
  else begin
    let stored = get_u32 t.scratch Page.page_size in
    let echo = get_u32 t.scratch (Page.page_size + 4) in
    let crc = Checksum.crc32 t.scratch 0 Page.page_size in
    if stored = crc && echo = pid then Ok ()
    else if all_zero t.scratch slot_size then Ok () (* never-written / sparse region *)
    else if stored = crc then Error (Printf.sprintf "misdirected write (page claims id %d)" echo)
    else Error (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)" stored crc)
  end

let read t pid buf =
  assert (Bytes.length buf = Page.page_size);
  (match Hashtbl.find_opt t.quarantine pid with
  | Some detail -> raise (Corrupt { path = t.fpath; pid; detail })
  | None -> ());
  if pid >= t.count then Bytes.fill buf 0 Page.page_size '\000'
  else begin
    let n = Io.pread t.io ~pos:(page_offset pid) t.scratch 0 slot_size in
    match check_slot t pid n with
    | Ok () -> Bytes.blit t.scratch 0 buf 0 Page.page_size
    | Error detail ->
      Hashtbl.replace t.quarantine pid detail;
      raise (Corrupt { path = t.fpath; pid; detail })
  end

let verify t =
  let bad = ref [] in
  for pid = 0 to t.count - 1 do
    let n = Io.pread t.io ~pos:(page_offset pid) t.scratch 0 slot_size in
    match check_slot t pid n with
    | Ok () -> ()
    | Error detail ->
      Hashtbl.replace t.quarantine pid detail;
      bad := (pid, detail) :: !bad
  done;
  List.rev !bad

let quarantined t =
  Hashtbl.fold (fun pid detail acc -> (pid, detail) :: acc) t.quarantine []
  |> List.sort compare

let sync t = Io.fsync t.io
let close t = Io.close t.io
