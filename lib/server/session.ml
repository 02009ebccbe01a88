module Obs = Coral_obs.Obs
module Query_log = Coral_obs.Query_log
module Json = Coral_obs.Json
module Snapshot = Coral_storage.Snapshot

(* Request latency histograms; recorded when observability is enabled
   (the server enables it at startup).  Buckets are log-scale ns,
   exported with second-valued bounds. *)
let h_request = Obs.histogram "server.request_seconds"
let h_query = Obs.histogram "server.query_seconds"

let observe_query ns =
  Obs.Histogram.observe_ns h_request ns;
  Obs.Histogram.observe_ns h_query ns

(* Concurrency model (DESIGN.md §11).  Reads are MVCC: every committed
   mutation publishes an immutable epoch-stamped view of the engine
   (frozen relations + the rule state), and a read request pins the
   current version, builds a private read-view engine over it, and
   evaluates on the execution pool without ever taking [lock].  Writes
   (consult/insert, and any query that trips an update predicate) go
   through the single writer lane: mutate under [lock], stage the next
   view and the persistent relations' WAL images, release the lock,
   group-commit, then publish the new epoch.  When some relation has
   no lock-free view (persistent storage), the published view is
   [None] and reads fall back to the locked lane — exactly the old
   behavior. *)
(* Degraded mode: a store that cannot make mutations durable flips
   read-only instead of failing every commit.  [`Auto] is entered on
   ENOSPC or a hard WAL write fault and left by a successful
   rate-limited recovery probe; [`Forced] is an operator [degrade] and
   only [restore] clears it. *)
type degraded =
  | Healthy
  | Auto of string
  | Forced of string

exception Degraded of string

type store = {
  sdb : Coral.t;
  lock : Mutex.t;  (* the writer lane; also serializes fallback reads *)
  cache : Plan_cache.t;
  snap : Coral.Engine.view option Snapshot.t;
  databases : Coral.Database.t list;  (* persistent stores to group-commit *)
  admission : Admission.t;  (* caps + shed/reject counters *)
  dlock : Mutex.t;  (* degraded-state flips and the probe rate limit *)
  mutable degraded : degraded;  (* written under [dlock]; read lock-free *)
  mutable last_probe : float;  (* Unix time of the last recovery probe *)
  (* counters are atomic: requests are no longer serialized by [lock] *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  timeouts : int Atomic.t;
  budget_kills : int Atomic.t;  (* queries stopped by a resource budget *)
  sessions : int Atomic.t;  (* currently open *)
  next_sid : int Atomic.t;
  bytes_read : int Atomic.t;  (* wire bytes in/out, summed over sessions *)
  bytes_written : int Atomic.t;
  eval_words : int Atomic.t;
      (* minor-heap words allocated evaluating requests, each counted
         on the domain that evaluated it *)
  (* incremental-maintenance accounting, summed over updates *)
  maint_inserts : int Atomic.t;  (* insert requests applied *)
  maint_retracts : int Atomic.t;  (* retract requests applied *)
  maint_derived : int Atomic.t;  (* extent tuples added by propagation *)
  maint_deleted : int Atomic.t;  (* extent tuples removed by DRed *)
  maint_rederived : int Atomic.t;  (* over-deletions restored *)
  maint_fallback : int Atomic.t;  (* updates applied without maintenance *)
  (* Cluster worker hook: the dist subsystem lives above this library
     (it needs the protocol AND the engine), so the worker installs a
     handler here rather than being called directly.  [None] answers
     dist requests with [err CLUSTER]. *)
  mutable dist_handler : (Protocol.request -> Protocol.response) option;
  (* Called with an insert's facts just before they commit; what it
     returns runs once the commit succeeded (see set_insert_hook). *)
  mutable insert_hook : (Coral.Ast.atom list -> unit -> unit) option;
}

let make_store ?(databases = []) ?(limits = Admission.default) db =
  { sdb = db;
    lock = Mutex.create ();
    cache = Plan_cache.create ();
    (* the initial version covers everything loaded before serving
       starts (--consult files, installed relations) *)
    snap = Snapshot.create (Coral.Engine.snapshot (Coral.engine db));
    databases;
    admission = Admission.create limits;
    dlock = Mutex.create ();
    degraded = Healthy;
    last_probe = 0.0;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    timeouts = Atomic.make 0;
    budget_kills = Atomic.make 0;
    sessions = Atomic.make 0;
    next_sid = Atomic.make 0;
    bytes_read = Atomic.make 0;
    bytes_written = Atomic.make 0;
    eval_words = Atomic.make 0;
    maint_inserts = Atomic.make 0;
    maint_retracts = Atomic.make 0;
    maint_derived = Atomic.make 0;
    maint_deleted = Atomic.make 0;
    maint_rederived = Atomic.make 0;
    maint_fallback = Atomic.make 0;
    dist_handler = None;
    insert_hook = None
  }

let db store = store.sdb
let admission store = store.admission
let session_count store = Atomic.get store.sessions
let set_dist_handler store h = store.dist_handler <- Some h
let set_insert_hook store h = store.insert_hook <- Some h

(* Wire accounting: the connection loop credits what it reads and
   writes; delta exchange between workers runs over the same sockets,
   so these are the counters that make exchange volume observable. *)
let note_bytes_read store n = if n > 0 then ignore (Atomic.fetch_and_add store.bytes_read n)

let note_bytes_written store n =
  if n > 0 then ignore (Atomic.fetch_and_add store.bytes_written n)

let locked store f =
  Mutex.lock store.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock store.lock) f

(* Graceful shutdown: commit and release the attached persistent
   databases under the store lock, so no request is mid-flight. *)
let close_databases store =
  locked store (fun () ->
      List.iter (fun db -> try Coral.Database.close db with _ -> ()) store.databases)

let snapshot_epoch store = Snapshot.epoch store.snap

let published_view store =
  let version = Snapshot.pin store.snap in
  Fun.protect ~finally:(fun () -> Snapshot.release version) (fun () -> Snapshot.view version)

(* ------------------------------------------------------------------ *)
(* Degraded (read-only) mode                                           *)
(* ------------------------------------------------------------------ *)

let is_degraded store = store.degraded <> Healthy

(* For health probes: None when healthy, the reason otherwise. *)
let degraded_reason store =
  match store.degraded with
  | Healthy -> None
  | Auto reason -> Some ("auto: " ^ reason)
  | Forced reason -> Some ("operator: " ^ reason)

let enter_degraded store d =
  Mutex.lock store.dlock;
  let prev = store.degraded in
  let apply =
    match prev, d with
    | Forced _, Auto _ -> false  (* an operator hold outranks a fault *)
    | _, Healthy -> false  (* leaving goes through restore/recovery *)
    | _ -> prev <> d
  in
  if apply then store.degraded <- d;
  Mutex.unlock store.dlock;
  if apply then
    Query_log.Events.log ~kind:"degrade"
      [ "mode", Json.Str (match d with Forced _ -> "operator" | _ -> "auto");
        "reason", Json.Str (match d with Auto r | Forced r -> r | Healthy -> "")
      ]

(* Mutations arriving while auto-degraded trigger a rate-limited
   recovery probe: write + fsync + remove a scratch file in every
   attached database's directory.  If the probes succeed the fault
   (ENOSPC, a disk coming back) has cleared and the store resumes
   serving writes; an operator-forced degrade is never auto-cleared. *)
let probe_file dir =
  let path = Filename.concat dir ".coral-write-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring fd "coral" 0 5);
      Unix.fsync fd);
  Sys.remove path

let try_auto_recovery store =
  Mutex.lock store.dlock;
  let attempt =
    match store.degraded with
    | Auto _ ->
      let now = Unix.gettimeofday () in
      if now -. store.last_probe >= 1.0 then begin
        store.last_probe <- now;
        true
      end
      else false
    | _ -> false
  in
  Mutex.unlock store.dlock;
  if attempt then begin
    match List.iter (fun db -> probe_file (Coral.Database.dir db)) store.databases with
    | () ->
      Mutex.lock store.dlock;
      let restored =
        match store.degraded with
        | Auto _ ->
          store.degraded <- Healthy;
          true
        | _ -> false
      in
      Mutex.unlock store.dlock;
      if restored then Query_log.Events.log ~kind:"restore" [ "mode", Json.Str "auto" ]
    | exception _ -> ()  (* still failing: stay degraded *)
  end

let check_writable store =
  (match store.degraded with Auto _ -> try_auto_recovery store | _ -> ());
  match store.degraded with
  | Healthy -> ()
  | Auto reason | Forced reason -> raise (Degraded reason)

(* A mutation that could not be made durable flips the store
   read-only: ENOSPC or a hard (non-transient) write-side storage
   fault.  Hard READ faults do not degrade — a quarantined page is a
   data problem, not a reason to refuse commits. *)
let degrade_on_write_fault store = function
  | Coral_storage.Disk.Fault { transient = false; op; detail; _ } when op <> "read" ->
    enter_degraded store (Auto detail)
  | Unix.Unix_error (Unix.ENOSPC, fn, _) ->
    enter_degraded store (Auto ("ENOSPC during " ^ fn))
  | _ -> ()

(* The writer lane's commit tail.  [stage_commit] runs under [lock]:
   freeze the engine into the next version and queue the persistent
   relations' dirty pages on their group-commit lanes (lane order =
   log order).  [publish_commit] runs after the lock is released:
   block for the WAL group flush — concurrent writers' submissions
   merge into one fsync — and only then publish the epoch, so a reader
   can never pin state that is not yet durable. *)
let stage_commit store =
  let version =
    Snapshot.stage store.snap (Coral.Engine.snapshot (Coral.engine store.sdb))
  in
  let staged = List.concat_map Coral.Database.stage store.databases in
  version, staged

let publish_commit store (version, staged) =
  Coral.Database.publish staged;
  Snapshot.publish store.snap version

type t = {
  store : store;
  sid : int;
  mutable deadline_ms : int;
  mutable limit_tuples : int;  (* per-session derived-tuple budget; 0 = none *)
  mutable limit_bytes : int;  (* per-session bytes-estimate budget; 0 = none *)
  mutable closed : bool;
  reply : Buffer.t;  (* a query's answer lines are printed here *)
}

(* The session's reply buffer, emptied.  It keeps the size its answers
   needed, up to 1 MiB; past that it starts small again. *)
let reply_buffer t =
  if Buffer.length t.reply > 1 lsl 20 then Buffer.reset t.reply else Buffer.clear t.reply;
  t.reply

(* Atomically claim a session slot against [cap] (0 = uncapped).  The
   accept loop reserves BEFORE spawning the connection thread — a
   connect burst arrives faster than spawned threads run, so counting
   in [create] alone would let the whole burst pass the cap check.
   The claim is released by [close] (via [create ~reserved:true]) or
   by [unreserve] when the thread spawn fails. *)
let try_reserve store ~cap =
  let rec go () =
    let n = Atomic.get store.sessions in
    if cap > 0 && n >= cap then false
    else if Atomic.compare_and_set store.sessions n (n + 1) then true
    else go ()
  in
  go ()

let unreserve store = ignore (Atomic.fetch_and_add store.sessions (-1))

let create ?(reserved = false) store =
  if not reserved then ignore (Atomic.fetch_and_add store.sessions 1);
  { store;
    sid = Atomic.fetch_and_add store.next_sid 1 + 1;
    deadline_ms = 0;
    limit_tuples = 0;
    limit_bytes = 0;
    closed = false;
    reply = Buffer.create 1024
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    ignore (Atomic.fetch_and_add t.store.sessions (-1))
  end

let sid t = t.sid
let deadline_ms t = t.deadline_ms

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

(* The adorned forms of a query's positive literals — the registry's
   "what shape of plan is this" descriptor. *)
let adorned_of_lits lits =
  List.filter_map
    (function
      | Coral.Ast.Pos (a : Coral.Ast.atom) ->
        let adorn =
          Array.map
            (fun arg -> if Coral.Term.is_ground arg then Coral.Ast.Bound else Coral.Ast.Free)
            a.Coral.Ast.args
        in
        Some
          (Printf.sprintf "%s/%d:%s"
             (Coral.Symbol.name a.Coral.Ast.pred)
             (Array.length a.Coral.Ast.args)
             (Coral.Ast.adornment_to_string adorn))
      | _ -> None)
    lits
  |> String.concat ","

(* Resource budgets.  The effective per-query budget is the tighter of
   the session's `limit ...` setting and the store-wide flag; the
   bytes budget is enforced as an estimated tuple count at a
   documented per-tuple footprint (a derived tuple costs roughly a
   boxed array of a few words plus index entries).  Enforcement rides
   the cancellation seam: the fixpoint publishes accumulated
   derivations at tick granularity (see Fixpoint.set_progress) and the
   combined check below trips once they exceed the budget. *)
let approx_tuple_bytes = 64

type budget_trip = {
  bt_kind : Protocol.limit_kind;
  bt_limit : int;  (* the configured limit, in its own unit *)
}

let effective_limit ~session ~global =
  if session > 0 then if global > 0 then min session global else session else global

(* The budget as a derived-tuple cap: [(trip-descriptor, cap)]. *)
let tuple_budget t =
  let cfg = Admission.config t.store.admission in
  let tuples =
    effective_limit ~session:t.limit_tuples ~global:cfg.Admission.max_query_tuples
  in
  let bytes = effective_limit ~session:t.limit_bytes ~global:cfg.Admission.max_query_bytes in
  let by_bytes = if bytes > 0 then max 1 (bytes / approx_tuple_bytes) else 0 in
  if tuples > 0 && (by_bytes = 0 || tuples <= by_bytes) then
    Some ({ bt_kind = Protocol.Tuples; bt_limit = tuples }, tuples)
  else if by_bytes > 0 then Some ({ bt_kind = Protocol.Bytes; bt_limit = bytes }, by_bytes)
  else None

(* Run [f] under this session's guards ON THE GIVEN ENGINE (the shared
   master on the locked lane, a private read view on the snapshot
   lane): evaluation cooperatively polls a combined check — the
   registry's kill flag for this entry, the resource budget, and the
   session deadline, if one is set — and publishes per-iteration
   progress into the entry.  The check is installed even with no
   deadline, so `kill` always works.  A budget trip is recorded in
   [resource] so [evaluated] can tell it apart from a kill or a
   deadline when the resulting [Cancelled] surfaces. *)
let with_guards t dbv entry resource f =
  let limit =
    if t.deadline_ms <= 0 then infinity
    else Unix.gettimeofday () +. (float_of_int t.deadline_ms /. 1000.0)
  in
  let budget = tuple_budget t in
  let check () =
    Query_log.killed entry
    || (match budget with
       | Some (trip, cap) when Query_log.derivations entry > cap ->
         if !resource = None then resource := Some trip;
         true
       | _ -> false)
    || Unix.gettimeofday () > limit
  in
  Coral.with_cancel dbv check (fun () ->
      Coral.with_progress dbv
        (fun ~rounds:_ ~delta ~lanes ->
          Query_log.progress entry ~delta ~lanes;
          (* cooperative scheduling point between fixpoint iterations:
             without it a long compute-bound query holds the runtime
             lock for the full systhread quantum (~50ms) and point
             reads on other connections eat that as tail latency *)
          Thread.yield ())
        f)

(* The common wrapper for every evaluating request: register in the
   active-query registry, evaluate under the guards, unregister, and
   log a completion event with the outcome.  [wrap] is the lane —
   [locked store] on the write/fallback lane, [Exec_pool.run] on the
   snapshot lane — and wraps guards + evaluation as one unit, so
   ambient hooks on the shared master engine are only ever installed
   while holding the store lock.  [k] builds the success response; a
   kill comes back as [err KILLED] (the session stays usable); every
   other failure re-raises into [handle]'s mapping after the event is
   logged. *)
let evaluated t ~dbv ?(epoch = 0) ~wrap ~kind ?(adorned = "") ?(plan_cache = "") text
    ~rows_of f k =
  let entry =
    Query_log.register ~session:t.sid ~deadline_ms:t.deadline_ms
      ~workers:(Coral.workers dbv) ~epoch ~adorned ~kind text
  in
  let t0 = Obs.now_ns () in
  let finish outcome ~rows =
    Query_log.unregister entry;
    Query_log.Events.query_event ~kind ~id:(Query_log.id entry) ~session:t.sid ~text
      ~latency_ms:(float_of_int (Obs.now_ns () - t0) /. 1e6)
      ~rows
      ~iterations:(Query_log.iterations entry)
      ~derivations:(Query_log.derivations entry)
      ~plan_cache ~outcome ()
  in
  let resource = ref None in
  (* The request-level span runs on the connection thread — the one
     place the wire trace id is installed — so a distributed trace
     always has a per-worker "server.<kind>" span even though the
     engine's inner spans run on pool domains. *)
  let qid = Query_log.id entry in
  match
    Obs.Span.with_
      ~attrs:(fun () -> [ "query", string_of_int qid ])
      ("server." ^ kind)
      (fun () ->
        wrap (fun () ->
            let w0 = Gc.minor_words () in
            Fun.protect
              ~finally:(fun () ->
                ignore
                  (Atomic.fetch_and_add t.store.eval_words
                     (int_of_float (Gc.minor_words () -. w0))))
              (fun () -> with_guards t dbv entry resource f)))
  with
  | v ->
    finish "ok" ~rows:(rows_of v);
    k v
  | exception Coral.Cancelled when Query_log.killed entry ->
    finish "killed" ~rows:0;
    Protocol.err Protocol.Killed
      (Printf.sprintf "query %d killed by operator request" (Query_log.id entry))
  | exception Coral.Cancelled when !resource <> None ->
    finish "resource" ~rows:0;
    Atomic.incr t.store.budget_kills;
    let { bt_kind; bt_limit } = Option.get !resource in
    let budget_desc =
      match bt_kind with
      | Protocol.Tuples -> Printf.sprintf "budget of %d derived tuples" bt_limit
      | Protocol.Bytes ->
        Printf.sprintf "estimated-bytes budget of %d (~%d bytes/tuple)" bt_limit
          approx_tuple_bytes
    in
    Protocol.err Protocol.Resource
      (Printf.sprintf "query %d exceeded its %s after %d iterations and %d derivations"
         (Query_log.id entry) budget_desc
         (Query_log.iterations entry)
         (Query_log.derivations entry))
  | exception e ->
    finish (match e with Coral.Cancelled -> "timeout" | _ -> "error") ~rows:0;
    raise e

(* Values whose printed text holds no control byte: numbers, and
   strings, which print escaped.  A row of anything else (a symbol, an
   opaque value's own printer, a variable) is cleaned into one line. *)
let plain (v : Coral.Term.t) =
  match v with
  | Coral.Term.Const (Coral.Value.Int _ | Coral.Value.Double _ | Coral.Value.Str _ | Coral.Value.Big _)
    ->
    true
  | Coral.Term.Const (Coral.Value.Opaque _) | Coral.Term.Var _ | Coral.Term.App _ -> false

let rec all_plain row i = i >= Array.length row || (plain row.(i) && all_plain row (i + 1))

(* One answer line, printed straight into the reply's block:
   "ans X = 1, Y = 2" ("ans true" for a query without variables), made
   one protocol line as [Protocol.one_line] makes a string. *)
let rec print_bindings buf (row : Coral.Term.t array) i = function
  | [] -> ()
  | (v : Coral.Term.var) :: rest ->
    if i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf v.Coral.Term.vname;
    Buffer.add_string buf " = ";
    Coral.Term.to_buffer buf row.(i);
    print_bindings buf row (i + 1) rest

let print_row buf qvars row =
  Buffer.add_string buf "ans ";
  let start = Buffer.length buf in
  if qvars = [] then Buffer.add_string buf "true" else print_bindings buf row 0 qvars;
  if not (all_plain row 0) then Protocol.one_line_from buf start;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* Lane selection                                                      *)
(* ------------------------------------------------------------------ *)

let string_contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The read-only foreigns installed in read views raise with this
   marker; catching it means the request needs the write lane. *)
let read_only_violation = function
  | Coral.Engine.Engine_error m -> string_contains ~sub:"unavailable in a snapshot read" m
  | _ -> false

(* Write-lane wrapper for requests that may mutate: evaluate under the
   lock, stage the next version while still holding it, publish after
   releasing it.  Used by consult and by queries routed off the
   snapshot lane; plain fallback reads (persistent databases) use
   [locked] alone — they publish nothing. *)
let wrap_write store g =
  (* a degraded store refuses mutations up front (attempting a
     rate-limited recovery probe first if the degrade was automatic) *)
  check_writable store;
  try
    let r, staged =
      locked store (fun () ->
          let r = g () in
          r, stage_commit store)
    in
    publish_commit store staged;
    r
  with e ->
    degrade_on_write_fault store e;
    raise e

(* A snapshot-lane read whose compile asked frozen relations for
   indexes they lack queued those specs on the engine (DESIGN.md §11).
   One write-lane commit with no data change applies them and
   publishes an epoch that carries them.  Views do not re-queue what
   they carry, so a steady workload commits nothing more; a degraded
   store keeps serving reads without them. *)
let forward_index_requests store =
  if Coral.Engine.index_requests_pending (Coral.engine store.sdb) && not (is_degraded store)
  then try wrap_write store ignore with Degraded _ -> ()

(* The write lane for non-protocol callers (the dist worker mutates
   relations during barrier steps): same commit tail as a consult, so
   MVCC readers observe distributed promotions as ordinary epochs.
   The mutation bypasses the engine's update entry points, so it drops
   the save-module instances itself. *)
let commit store f =
  wrap_write store (fun () ->
      let r = f () in
      Coral.drop_saved store.sdb;
      r)

let do_query t text =
  let store = t.store in
  let version = Snapshot.pin store.snap in
  Fun.protect ~finally:(fun () -> Snapshot.release version)
  @@ fun () ->
  let epoch = Snapshot.version_epoch version in
  let run ~dbv ~wrap (lits, tag, prepared) =
    let plan_cache =
      match tag with `Hit -> "hit" | `Miss -> "miss" | `Unplanned -> "unplanned"
    in
    evaluated t ~dbv ~epoch ~wrap ~kind:"query" ~adorned:(adorned_of_lits lits) ~plan_cache
      text
      ~rows_of:snd
      (fun () ->
        let buf = reply_buffer t and n = ref 0 in
        Coral.Engine.answer ~prepared (Coral.engine dbv) lits (fun qvars row ->
            incr n;
            print_row buf qvars row);
        buf, !n)
      (fun (buf, n) ->
        let block = Buffer.contents buf in
        ignore (reply_buffer t);
        let cache_note =
          match tag with
          | `Hit -> " (plan cache: hit)"
          | `Miss -> " (plan cache: miss)"
          | `Unplanned -> ""
        in
        Protocol.ok
          ~detail:(Printf.sprintf "%d answer%s%s" n (if n = 1 then "" else "s") cache_note)
          (if n = 0 then [] else [ Protocol.Raw block ]))
  in
  match Snapshot.view version with
  | None -> begin
    (* no lock-free view (persistent relations): the locked lane *)
    match Plan_cache.prepare store.cache store.sdb text with
    | Error e -> Protocol.err Protocol.Parse (Format.asprintf "%a" Coral.Parser.pp_error e)
    | Ok prepared -> run ~dbv:store.sdb ~wrap:(locked store) prepared
  end
  | Some view -> begin
    let rdb = Coral.of_engine (Coral.Engine.read_view view) in
    match Plan_cache.prepare store.cache rdb text with
    | Error e -> Protocol.err Protocol.Parse (Format.asprintf "%a" Coral.Parser.pp_error e)
    | Ok ((lits, _, _) as prepared) ->
      if Coral.Engine.calls_update lits then run ~dbv:store.sdb ~wrap:(wrap_write store) prepared
      else begin
        match run ~dbv:rdb ~wrap:Exec_pool.run prepared with
        | r ->
          forward_index_requests store;
          r
        | exception e when read_only_violation e ->
          (* an update predicate fired inside a module rule: replay on
             the write lane (the read view mutated nothing) *)
          run ~dbv:store.sdb ~wrap:(wrap_write store) prepared
      end
  end

let do_consult t text =
  let store = t.store in
  evaluated t ~dbv:store.sdb ~wrap:(wrap_write store) ~kind:"consult" text
    ~rows_of:(fun _ -> 0)
    (fun () -> Coral.Engine.consult (Coral.engine store.sdb) text)
    (fun results ->
      (* embedded query results are discarded, as in Coral.consult_text *)
      ignore results;
      Protocol.ok ~detail:"consulted" [])

(* The payload of an update request: fact items, with same-operation
   update items ([insert f(1).] sent over the insert command) accepted
   too, so REPL scripts paste straight into the wire protocol. *)
let parse_update_facts ~op ~usage text =
  match Coral.Parser.program text with
  | Error e -> Error (Protocol.err Protocol.Parse (Format.asprintf "%a" Coral.Parser.pp_error e))
  | Ok items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Coral.Ast.Fact a :: rest -> go (a :: acc) rest
      | Coral.Ast.Update (o, a) :: rest when o = op -> go (a :: acc) rest
      | _ :: _ -> Error (Protocol.err Protocol.Parse usage)
    in
    (match go [] items with
    | Ok [] -> Error (Protocol.err Protocol.Parse usage)
    | r -> r)

(* Maintenance accounting + the per-update JSONL event: how much delta
   propagation each update caused (mode=recompute when the engine had
   maintenance off and derived state is rebuilt on read instead). *)
let note_update store ~op (rep : Coral.Engine.update_report) =
  let applied = rep.Coral.Engine.ur_applied in
  let ctr = if op = "insert" then store.maint_inserts else store.maint_retracts in
  if applied > 0 then ignore (Atomic.fetch_and_add ctr applied);
  ignore (Atomic.fetch_and_add store.maint_derived rep.Coral.Engine.ur_derived);
  ignore (Atomic.fetch_and_add store.maint_deleted rep.Coral.Engine.ur_deleted);
  ignore (Atomic.fetch_and_add store.maint_rederived rep.Coral.Engine.ur_rederived);
  if not rep.Coral.Engine.ur_maintained then Atomic.incr store.maint_fallback;
  Query_log.Events.log ~kind:"maintain"
    [ "op", Json.Str op;
      "applied", Json.Int applied;
      "noop", Json.Int rep.Coral.Engine.ur_noop;
      "derived", Json.Int rep.Coral.Engine.ur_derived;
      "deleted", Json.Int rep.Coral.Engine.ur_deleted;
      "rederived", Json.Int rep.Coral.Engine.ur_rederived;
      "rounds", Json.Int rep.Coral.Engine.ur_rounds;
      "mode", Json.Str (if rep.Coral.Engine.ur_maintained then "incremental" else "recompute")
    ]

(* Inserts/retracts commit through the write lane.  Plans depend only
   on the rules, so they survive; the engine drops the save-module
   instances, the only derived state the update outdates. *)
let do_insert t text =
  let store = t.store in
  match
    parse_update_facts ~op:Coral.Ast.Upd_insert
      ~usage:"insert expects one or more facts, e.g.  insert edge(1, 2)." text
  with
  | Error r -> r
  | Ok atoms ->
    let eng = Coral.engine store.sdb in
    let facts =
      List.map (fun (a : Coral.Ast.atom) -> a.Coral.Ast.pred, a.Coral.Ast.args) atoms
    in
    let committed = match store.insert_hook with Some h -> h atoms | None -> ignore in
    let rep = wrap_write store (fun () -> Coral.Engine.insert_facts eng facts) in
    committed ();
    note_update store ~op:"insert" rep;
    Query_log.Events.log ~kind:"insert"
      [ "session", Json.Int t.sid;
        "facts", Json.Int (List.length facts);
        "stored", Json.Int rep.Coral.Engine.ur_applied;
        "duplicate", Json.Int rep.Coral.Engine.ur_noop
      ];
    Protocol.ok
      ~detail:
        (Printf.sprintf "inserted %d, duplicate %d" rep.Coral.Engine.ur_applied
           rep.Coral.Engine.ur_noop)
      []

let do_retract t text =
  let store = t.store in
  match
    parse_update_facts ~op:Coral.Ast.Upd_retract
      ~usage:"retract expects one or more facts, e.g.  retract edge(1, 2)." text
  with
  | Error r -> r
  | Ok atoms ->
    let eng = Coral.engine store.sdb in
    let facts =
      List.map (fun (a : Coral.Ast.atom) -> a.Coral.Ast.pred, a.Coral.Ast.args) atoms
    in
    let rep = wrap_write store (fun () -> Coral.Engine.retract_facts eng facts) in
    note_update store ~op:"retract" rep;
    Query_log.Events.log ~kind:"retract"
      [ "session", Json.Int t.sid;
        "facts", Json.Int (List.length facts);
        "removed", Json.Int rep.Coral.Engine.ur_applied;
        "missing", Json.Int rep.Coral.Engine.ur_noop
      ];
    Protocol.ok
      ~detail:
        (Printf.sprintf "retracted %d, missing %d" rep.Coral.Engine.ur_applied
           rep.Coral.Engine.ur_noop)
      []

let single_literal text =
  match Coral.Parser.query text with
  | Error e -> Error (Protocol.err Protocol.Parse (Format.asprintf "%a" Coral.Parser.pp_error e))
  | Ok [ Coral.Ast.Pos a ] -> Ok a
  | Ok _ -> Error (Protocol.err Protocol.Parse "expected a single positive literal")

let do_explain t text =
  let store = t.store in
  match single_literal text with
  | Error r -> r
  | Ok a -> begin
    let adorn =
      Array.map
        (fun arg -> if Coral.Term.is_ground arg then Coral.Ast.Bound else Coral.Ast.Free)
        a.Coral.Ast.args
    in
    let version = Snapshot.pin store.snap in
    Fun.protect ~finally:(fun () -> Snapshot.release version)
    @@ fun () ->
    let plan_for dbv =
      Coral.Engine.plan_for (Coral.engine dbv) ~pred:a.Coral.Ast.pred
        ~arity:(Array.length a.Coral.Ast.args) ~adorn
      |> Result.map fst
    in
    let planned =
      match Snapshot.view version with
      | Some view -> plan_for (Coral.of_engine (Coral.Engine.read_view view))
      | None -> locked store (fun () -> plan_for store.sdb)
    in
    match planned with
    | Error e -> Protocol.err Protocol.Eval e
    | Ok plan ->
      let text = Format.asprintf "%a" Coral.Optimizer.pp_plan plan in
      Protocol.ok (List.map (fun l -> Protocol.Txt l) (String.split_on_char '\n' text))
  end

let report_response = function
  | Error e -> Protocol.err Protocol.Eval e
  | Ok report ->
    let lines = String.split_on_char '\n' report in
    let lines = List.filter (fun l -> l <> "") lines in
    Protocol.ok (List.map (fun l -> Protocol.Txt l) lines)

(* why / explain analyze: evaluating reports — same lane selection as
   queries, with the same write-lane replay if an update predicate
   fires inside a module rule. *)
let do_report t ~kind run text =
  let store = t.store in
  let version = Snapshot.pin store.snap in
  Fun.protect ~finally:(fun () -> Snapshot.release version)
  @@ fun () ->
  let epoch = Snapshot.version_epoch version in
  let eval ~dbv ~wrap =
    evaluated t ~dbv ~epoch ~wrap ~kind text
      ~rows_of:(fun _ -> 0)
      (fun () -> run dbv)
      report_response
  in
  match Snapshot.view version with
  | None -> eval ~dbv:store.sdb ~wrap:(locked store)
  | Some view -> begin
    let rdb = Coral.of_engine (Coral.Engine.read_view view) in
    match eval ~dbv:rdb ~wrap:Exec_pool.run with
    | r ->
      forward_index_requests store;
      r
    | exception e when read_only_violation e -> eval ~dbv:store.sdb ~wrap:(wrap_write store)
  end

let do_why t text =
  do_report t ~kind:"why" (fun dbv -> Coral.Engine.why (Coral.engine dbv) text) text

let do_explain_analyze t text =
  do_report t ~kind:"explain_analyze"
    (fun dbv -> Coral.Engine.explain_analyze (Coral.engine dbv) text)
    text

(* The store's sample table: every store-owned value, once.  [stats]
   and [metrics] both render it, so a value has one name everywhere.
   Several stores can live in one process (under test), so these stay
   out of the global registry.  Reading the table takes no lock and
   changes nothing: atomics, internally-mutexed cache counters, and
   what the last maintenance build left behind. *)
let samples store =
  let eng = Coral.engine store.sdb in
  let c = Plan_cache.stats store.cache in
  let plan_hits, plan_misses = Coral.plan_cache_stats store.sdb in
  let derivations, duplicates, scans = Coral.Relation.global_stats () in
  let maint_preds, maint_refreshes, maint_fallbacks =
    Option.value (Coral.Engine.maintenance_info eng) ~default:(0, 0, 0)
  in
  let counter name v = name, `Counter, float_of_int v in
  let gauge name v = name, `Gauge, float_of_int v in
  let flag name b = gauge name (if b then 1 else 0) in
  [ counter "server.requests" (Atomic.get store.requests);
    counter "server.errors" (Atomic.get store.errors);
    counter "server.timeouts" (Atomic.get store.timeouts);
    gauge "server.sessions" (Atomic.get store.sessions);
    gauge "server.active_queries" (Query_log.active_count ());
    counter "server.events" (Query_log.Events.total ());
    flag "server.degraded" (is_degraded store);
    counter "server.budget_kills" (Atomic.get store.budget_kills);
    (* wire volume: client traffic plus, on a cluster worker, the
       delta exchange *)
    counter "server.bytes.read" (Atomic.get store.bytes_read);
    counter "server.bytes.written" (Atomic.get store.bytes_written);
    (* allocation per request, a work counter like derivations: what
       the evaluating domain allocated on its minor heap *)
    counter "server.eval_minor_words" (Atomic.get store.eval_words);
    gauge "admission.inflight" (Admission.inflight store.admission);
    counter "admission.admitted" (Admission.admitted store.admission);
    counter "admission.waited" (Admission.waited store.admission);
    counter "admission.busy_rejects" (Admission.busy_rejects store.admission);
    counter "admission.shed" (Admission.shed store.admission);
    gauge "snapshot.epoch" (Snapshot.epoch store.snap);
    gauge "snapshot.pinned" (Snapshot.pinned_count ());
    gauge "snapshot.read_domains" (Exec_pool.width ());
    gauge "prepared.parsed_entries" c.Plan_cache.parsed_entries;
    counter "prepared.hits" c.Plan_cache.hits;
    counter "prepared.misses" c.Plan_cache.misses;
    counter "prepared.unplanned" c.Plan_cache.unplanned;
    counter "prepared.evictions" c.Plan_cache.evictions;
    gauge "plans.cached" (Coral.Engine.plan_cache_size eng);
    counter "plans.hits" plan_hits;
    counter "plans.misses" plan_misses;
    flag "maintenance.enabled" (Coral.Engine.maintenance_enabled eng);
    gauge "maintenance.predicates" maint_preds;
    counter "maintenance.refreshes" maint_refreshes;
    gauge "maintenance.fallback_preds" maint_fallbacks;
    counter "maintenance.inserts" (Atomic.get store.maint_inserts);
    counter "maintenance.retracts" (Atomic.get store.maint_retracts);
    counter "maintenance.derived" (Atomic.get store.maint_derived);
    counter "maintenance.deleted" (Atomic.get store.maint_deleted);
    counter "maintenance.rederived" (Atomic.get store.maint_rederived);
    counter "maintenance.fallback_updates" (Atomic.get store.maint_fallback);
    counter "engine.derivations" derivations;
    counter "engine.duplicates" duplicates;
    counter "engine.scans" scans;
    counter "engine.tuples_visited" (Coral.Relation.tuples_visited ())
  ]

(* [stats]: the table as [name=value] lines, then [text] lines and the
   engine's relation summary, which walks the engine's tables and so
   is read under the store lock. *)
let stats_reply store rows text =
  let engine_lines =
    locked store (fun () -> Format.asprintf "%a" Coral.Engine.pp_stats (Coral.engine store.sdb))
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Protocol.ok (List.map (fun l -> Protocol.Txt l) (Obs.render_stats rows @ text @ engine_lines))

(* ------------------------------------------------------------------ *)
(* Operational introspection: ps / kill / events                       *)
(* ------------------------------------------------------------------ *)

(* These three are served WITHOUT the store lock (see [handle]) — their
   whole point is to observe and cancel a query that is holding it. *)

let clip_query s = if String.length s <= 120 then s else String.sub s 0 117 ^ "..."

let ps_line (s : Query_log.snapshot) =
  Protocol.Txt
    (Printf.sprintf
       "id=%d session=%d kind=%s age_ms=%d iter=%d derivations=%d delta=%d workers=%d deadline_ms=%d%s%s%s%s query=%s"
       s.Query_log.s_id s.Query_log.s_session s.Query_log.s_kind
       (s.Query_log.s_age_ns / 1_000_000)
       s.Query_log.s_iterations s.Query_log.s_derivations s.Query_log.s_last_delta
       s.Query_log.s_workers s.Query_log.s_deadline_ms
       (if s.Query_log.s_epoch > 0 then Printf.sprintf " epoch=%d" s.Query_log.s_epoch else "")
       (if s.Query_log.s_adorned = "" then "" else " adorned=" ^ s.Query_log.s_adorned)
       (if s.Query_log.s_lanes = [||] then ""
        else
          " lanes="
          ^ String.concat "/"
              (Array.to_list (Array.map string_of_int s.Query_log.s_lanes)))
       (if s.Query_log.s_killed then " killed=pending" else "")
       (clip_query s.Query_log.s_text))

let do_ps _t =
  let snaps = Query_log.active () in
  Protocol.ok
    ~detail:(Printf.sprintf "%d active" (List.length snaps))
    (List.map ps_line snaps)

let do_kill _t qid =
  if Query_log.kill qid then
    Protocol.ok ~detail:(Printf.sprintf "kill signalled for query %d" qid) []
  else Protocol.err Protocol.Eval (Printf.sprintf "no active query with id %d" qid)

(* Operator degrade/restore: like ps/kill/events these are served
   without the store lock — flipping to read-only must work while a
   stuck mutation holds the writer lane. *)
let do_degrade t reason =
  enter_degraded t.store (Forced reason);
  Protocol.ok ~detail:(Printf.sprintf "degraded (read-only): %s" reason) []

let do_restore t =
  let store = t.store in
  Mutex.lock store.dlock;
  let was = store.degraded in
  store.degraded <- Healthy;
  Mutex.unlock store.dlock;
  (match was with
  | Healthy -> ()
  | _ -> Query_log.Events.log ~kind:"restore" [ "mode", Json.Str "operator" ]);
  Protocol.ok
    ~detail:
      (match was with
      | Healthy -> "store was not degraded"
      | _ -> "restored: mutations resume")
    []

let do_events _t n =
  let lines = Query_log.Events.recent n in
  Protocol.ok
    ~detail:
      (Printf.sprintf "%d of %d event%s" (List.length lines) (Query_log.Events.total ())
         (if Query_log.Events.total () = 1 then "" else "s"))
    (List.map (fun l -> Protocol.Txt l) lines)

(* [spans <tid>]: the span-ring slice stamped with one trace id, one
   JSON object per txt line — what a router pulls from each worker to
   stitch a cross-process trace.  Ring-local, no store lock. *)
let do_spans _t tid =
  let spans = Obs.Span.matching tid in
  Protocol.ok
    ~detail:(Printf.sprintf "%d span%s" (List.length spans) (if List.length spans = 1 then "" else "s"))
    (List.map (fun s -> Protocol.Txt (Obs.Span.to_json s)) spans)

(* [trace <tid>] on a plain (non-router) server: a single-lane Chrome
   trace of this process's matching spans.  The router overrides this
   with the stitched multi-process version. *)
let do_trace _t tid =
  if tid = "last" then
    Protocol.err Protocol.Cluster "trace last: only a coral_router tracks the last trace"
  else begin
    let spans = Obs.Span.matching tid in
    if spans = [] then
      Protocol.err Protocol.Eval (Printf.sprintf "no spans recorded for trace %s" tid)
    else begin
      let json = Obs.Span.to_chrome_json_lanes [ "server", spans ] in
      let lines = String.split_on_char '\n' json |> List.filter (fun l -> l <> "") in
      Protocol.ok
        ~detail:(Printf.sprintf "%d spans" (List.length spans))
        (List.map (fun l -> Protocol.Txt l) lines)
    end
  end

let metrics_text store = Obs.render_prometheus (samples store)

let do_metrics t =
  let lines =
    metrics_text t.store |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
  in
  Protocol.ok (List.map (fun l -> Protocol.Txt l) lines)

let do_relations t =
  let rels = Coral.Engine.list_relations (Coral.engine t.store.sdb) in
  Protocol.ok
    (List.map (fun (name, n) -> Protocol.Txt (Printf.sprintf "%s %d" name n)) rels)

let do_modules t =
  let ms = Coral.Engine.list_modules (Coral.engine t.store.sdb) in
  Protocol.ok (List.map (fun m -> Protocol.Txt m) ms)

let dispatch t (req : Protocol.request) =
  match req with
  | Protocol.Hello -> Protocol.ok ~detail:"coral 1" []
  | Protocol.Ping -> Protocol.ok ~detail:"pong" []
  | Protocol.Set_timeout ms ->
    t.deadline_ms <- ms;
    Protocol.ok
      ~detail:(if ms = 0 then "timeout disabled" else Printf.sprintf "timeout %dms" ms)
      []
  | Protocol.Set_limit (kind, n) ->
    let name =
      match kind with
      | Protocol.Tuples ->
        t.limit_tuples <- n;
        "tuples"
      | Protocol.Bytes ->
        t.limit_bytes <- n;
        "bytes"
    in
    Protocol.ok
      ~detail:
        (if n = 0 then Printf.sprintf "limit %s disabled" name
         else Printf.sprintf "limit %s %d" name n)
      []
  | Protocol.Query text -> do_query t text
  | Protocol.Consult text -> do_consult t text
  | Protocol.Insert text -> do_insert t text
  | Protocol.Retract text -> do_retract t text
  | Protocol.Explain text -> do_explain t text
  | Protocol.Explain_analyze text -> do_explain_analyze t text
  | Protocol.Why text -> do_why t text
  (* introspection over the master engine's tables: cheap, serialized
     against writers so iteration never races a mutation *)
  | Protocol.Stats -> stats_reply t.store (samples t.store) []
  | Protocol.Metrics -> do_metrics t
  | Protocol.Relations -> locked t.store (fun () -> do_relations t)
  | Protocol.Modules -> locked t.store (fun () -> do_modules t)
  | Protocol.Ps | Protocol.Kill _ | Protocol.Events _ | Protocol.Degrade _
  | Protocol.Restore | Protocol.Spans _ | Protocol.Trace _ ->
    (* handled lock-free in [handle]; unreachable through it *)
    Protocol.err Protocol.Proto "introspection command routed incorrectly"
  | Protocol.Dstat ->
    (* only a router (which intercepts dstat before the session layer)
       has per-round fixpoint statistics to report *)
    Protocol.err Protocol.Cluster
      "dstat: no distributed fixpoint here; ask the coral_router"
  (* Cluster control plane: delegated to the installed dist worker.
     These bypass the admission gate ([evaluating] below) — a barrier
     or delta blocked behind the in-flight cap would deadlock the
     coordinator's round — and do their own locking (the write lane
     for barrier steps, a private buffer mutex for deltas). *)
  | Protocol.Shard _ | Protocol.Dprog _ | Protocol.Delta _ | Protocol.Edb _
  | Protocol.Barrier _ | Protocol.Dreset -> begin
    match t.store.dist_handler with
    | Some h -> h req
    | None ->
      Protocol.err Protocol.Cluster
        "not a cluster worker: no distributed handler installed"
  end
  | Protocol.Quit -> Protocol.ok ~detail:"bye" []

(* Requests that evaluate (or mutate) and therefore count against the
   in-flight admission cap.  Introspection, settings and the liveness
   probes stay exempt so an operator can always see and steer an
   overloaded server. *)
let evaluating = function
  | Protocol.Query _ | Protocol.Consult _ | Protocol.Insert _ | Protocol.Retract _
  | Protocol.Explain_analyze _ | Protocol.Why _ -> true
  | _ -> false

let handle t req =
  match req with
  (* Introspection never queues behind the engine lock: ps/kill/events
     (and the degrade/restore switch) must answer while another
     connection's query is evaluating. *)
  | Protocol.Ps -> do_ps t
  | Protocol.Kill qid -> do_kill t qid
  | Protocol.Events n -> do_events t n
  | Protocol.Degrade reason -> do_degrade t reason
  | Protocol.Restore -> do_restore t
  | Protocol.Spans tid -> do_spans t tid
  | Protocol.Trace tid -> do_trace t tid
  | _ ->
  let store = t.store in
  let t0 = Obs.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Obs.now_ns () - t0 in
      match req with
      | Protocol.Query _ -> observe_query dt
      | _ -> Obs.Histogram.observe_ns h_request dt)
  @@ fun () ->
  Atomic.incr store.requests;
  let response =
    try
      if evaluating req then begin
        match Admission.admit store.admission with
        | `Busy retry ->
          Query_log.Events.log ~kind:"shed"
            [ "session", Json.Int t.sid;
              "scope", Json.Str "request";
              "retry_after_ms", Json.Int retry
            ];
          Protocol.busy ~retry_after_ms:retry
            (Printf.sprintf "server at capacity (%d requests in flight); retry later"
               (Admission.config store.admission).Admission.max_inflight)
        | `Admitted ->
          Fun.protect
            ~finally:(fun () -> Admission.release store.admission)
            (fun () -> dispatch t req)
      end
      else dispatch t req
    with
    | Degraded reason ->
      Protocol.err Protocol.Readonly
        (Printf.sprintf "store is read-only (%s); mutations are refused until restore"
           reason)
    | Coral.Cancelled ->
      Atomic.incr store.timeouts;
      Protocol.err Protocol.Timeout
        (Printf.sprintf "deadline of %dms exceeded; evaluation abandoned" t.deadline_ms)
    | Coral.Engine.Engine_error e -> Protocol.err Protocol.Eval e
    | Coral.Builtin.Eval_error e -> Protocol.err Protocol.Eval e
    | Coral_eval.Fixpoint.Not_modularly_stratified e ->
      Protocol.err Protocol.Eval ("not modularly stratified: " ^ e)
    (* Storage faults: the request fails with IOERR but the session
       (and the server) stays alive — a corrupt page quarantines
       itself, it does not take the service down. *)
    | Coral_storage.Disk.Fault { transient; op; path; detail } ->
      Protocol.err Protocol.Ioerr
        (Printf.sprintf "%s I/O fault during %s on %s: %s"
           (if transient then "transient" else "persistent")
           op (Filename.basename path) detail)
    | Coral_storage.Disk.Corrupt { path; pid; detail } ->
      Protocol.err Protocol.Ioerr
        (Printf.sprintf "corrupt page %d in %s: %s" pid (Filename.basename path) detail)
    | Coral_storage.Disk.Crashed msg ->
      Protocol.err Protocol.Ioerr ("storage unavailable (simulated crash): " ^ msg)
    | Coral_storage.Recovery.Fatal_corruption msg ->
      Protocol.err Protocol.Ioerr ("unrecoverable corruption: " ^ msg)
    | Coral_storage.Buffer_pool.Pool_exhausted ->
      Protocol.err Protocol.Ioerr "buffer pool exhausted: all frames pinned"
    | Coral_storage.Codec.Unstorable msg -> Protocol.err Protocol.Eval msg
    | Failure e -> Protocol.err Protocol.Eval e
    | Stack_overflow -> Protocol.err Protocol.Eval "stack overflow during evaluation"
  in
  (match response.Protocol.status with
  | Error _ -> Atomic.incr store.errors
  | Ok _ -> ());
  response
