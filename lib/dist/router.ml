(* The fan-out router: the cluster's front door.

   To a client the router IS a coral_server — same protocol, same
   commands, same error codes; the REPL's [--connect], [ps]/[kill],
   [stats]/[metrics] all work unchanged.  It holds a full single-node
   replica of the consulted program (so any request it cannot
   distribute is answered locally, with ordinary single-node
   semantics) and, when the program falls in the distributable class,
   materializes the derived relations across its workers and fans
   queries out to them.

   Cluster lifecycle is a three-state machine guarded by one mutex:

     Dirty    the workers' materialized state does not reflect the
              router's database (fresh start, a consult or retract
              landed, an insert that is not one more delta, a query
              mutated the replica through assert/retract, a worker went
              unreachable).  The first distributed query reprovisions
              from scratch — configure, dreset, ship the program,
              re-ship the EDB, seed the partitioned predicates'
              consulted facts to their owner shards, run the fixpoint
              to quiescence — and moves to Clean.
     Clean    distributed queries fan out and merge.
     Pending  Clean, plus base facts inserted since the last fixpoint.
              Distributable programs are monotone in every base
              predicate no rule negates, so an insert of such facts
              only adds derived tuples: it is queued instead of
              dirtying the cluster.  The next distributed query ships
              the queue to every worker ([edb#]) and runs one more
              fixpoint whose round 1 joins only the new facts
              (semi-naive evaluation, paper section 4); a failure on
              the way falls back to a wholesale reprovision.  Any dirty
              mark drops the queue, since reprovisioning ships the
              whole EDB anyway.

   The incremental path is held to the wholesale one by the seeded
   insert/retract differential in test_dist: after every step of mixed
   sequences on 2- and 4-shard routers the answers are byte-identical
   to a single node, and [router.resyncs] moves only on the fallback
   cases.

   Fan-out merge needs no deduplication: the one distributed literal
   in a fanned-out query is instantiated by each answer row, the
   instantiated tuple has exactly one owner shard, so two shards can
   never produce the same row.  The reply is therefore each shard's
   payload lines, as the shard sent them, shard 0 first.

   A fan-out sends its query on one kept connection per shard
   (borrowed from a small per-shard pool) and waits for the replies in
   [select] on its own connection thread.  Every query — local or
   distributed — registers in the process-wide Query_log, so [ps] sees
   it and [kill] aborts it: the wait wakes at least every 20 ms to
   notice a kill or the deadline, and an abandoned fan-out closes the
   connections still owed a reply instead of returning them.  A kept
   connection that fails may have outlived its worker (restarted on
   the same address since), so the router resyncs and asks once more.

   Fan-outs and syncs are kept apart by a readers-writer gate: a
   resync or delta sync rewrites the workers' partitions and commits
   each worker at its own moment, and a fan-out reading in between
   could merge a closure that no state ever had.

   Every fact the router ships — the replicated EDB, its insert deltas
   and the seed batches below — travels as a binary [Delta_codec]
   batch, like the workers' peer deltas. *)

open Coral_server
module Obs = Coral_obs.Obs

(* EDB and seed batches are encoded under the workers' codec
   histogram. *)
let h_codec = Obs.histogram "phase.codec"

(* Many fan-outs read at once; a sync writes alone.  Syncs are already
   serialized by [cl_lock], so one flag suffices: once a sync is
   waiting, new fan-outs wait behind it. *)
type gate = {
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable readers : int;
  mutable syncing : bool;
}

let with_read g f =
  Mutex.lock g.g_lock;
  while g.syncing do Condition.wait g.g_cond g.g_lock done;
  g.readers <- g.readers + 1;
  Mutex.unlock g.g_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock g.g_lock;
      g.readers <- g.readers - 1;
      Condition.broadcast g.g_cond;
      Mutex.unlock g.g_lock)

let with_write g f =
  Mutex.lock g.g_lock;
  g.syncing <- true;
  while g.readers > 0 do Condition.wait g.g_cond g.g_lock done;
  Mutex.unlock g.g_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock g.g_lock;
      g.syncing <- false;
      Condition.broadcast g.g_cond;
      Mutex.unlock g.g_lock)

(* The router's state; [t] pairs it with the connection layer serving
   it. *)
type state = {
  sstore : Session.store;
  coord : Coordinator.t;
  cl_lock : Mutex.t;
      (* guards dirty / verdict / last_run / last_tid; [samples] reads
         them unlocked *)
  mutable dirty : bool;
  mutable pending : (string * Coral.Tuple.t) list;
      (* base facts inserted while Clean, newest first *)
  gen : int Atomic.t;
      (* bumped under [cl_lock] by every dirty mark and resync: an
         insert that sees it move between its commit and [note_insert]
         may not queue *)
  insert_committed : unit -> unit;  (* runs between those two points *)
  mutable verdict : Plan.verdict;
  mutable last_run : Coordinator.run_stats option;
  mutable last_tid : string option;  (* trace id of the newest distributed query *)
  gate : gate;  (* fan-outs read, syncs write *)
  pool_lock : Mutex.t;
  idle : Shard_client.t list array;  (* kept fan-out connections, per shard *)
  (* registry-backed, created at start (no module-level state) *)
  c_dist : Coral_obs.Obs.Counter.t;
  c_local : Coral_obs.Obs.Counter.t;
  c_fixpoints : Coral_obs.Obs.Counter.t;
  c_resyncs : Coral_obs.Obs.Counter.t;
  c_delta_syncs : Coral_obs.Obs.Counter.t;
  (* where a distributed query's time goes besides the fixpoint rounds *)
  h_provision : Obs.Histogram.t;
  h_delta_sync : Obs.Histogram.t;
  h_relay : Obs.Histogram.t;
}

(* ------------------------------------------------------------------ *)
(* Cluster provisioning                                                *)
(* ------------------------------------------------------------------ *)

(* Encode the router's base relations for a resync, in one pass under
   the store lock: the replicated EDB — every relation but the derived
   ones and reserved @ names — as one batch for every worker, and the
   consulted facts of derived predicates as per-owner seed batches.  A
   predicate defined by rules can ALSO carry consulted facts (path(a,
   b). plus recursive path rules); each belongs to exactly one owner
   shard, so they are not replicated (a non-ground one has none, and
   fails the resync with [Unencodable]).  The seeds ship as delta batches
   tagged round 1: they sit in the owner's exchange buffer, are
   absorbed into its partition at step 2, and the linear rules derive
   from them like any other delta.  Returns the EDB batch, the
   per-shard seed batches and the seeded count. *)
let replica_batches t (a : Plan.analysis) =
  let eng = Coral.engine (Session.db t.sstore) in
  let part = Coordinator.partition t.coord in
  let edb = Delta_codec.batch () in
  let seeds = Array.init (Coordinator.shards t.coord) (fun _ -> Delta_codec.batch ()) in
  let seeded = ref 0 in
  Session.locked t.sstore (fun () ->
      Obs.Histogram.time h_codec @@ fun () ->
      List.iter
        (fun (sym, arity, rel) ->
          let name = Coral.Symbol.name sym in
          let each f = Coral.Relation.iter rel ~from_mark:0 ~to_mark:(-1) ~pattern:None f in
          if List.mem (name, arity) a.Plan.idb then
            each (fun tuple ->
                Delta_codec.add_tuple seeds.(Partition.owner part tuple) name tuple;
                incr seeded;
                true)
          else if not (String.contains name '@') then
            each (fun tuple ->
                Delta_codec.add_tuple ~vars:true edb name tuple;
                true))
        (Coral.Engine.base_relations eng));
  edb, seeds, !seeded

(* A batch's payloads; none for an empty batch. *)
let payloads b = if Delta_codec.count b = 0 then [] else Delta_codec.contents b

(* Send each item in turn, stopping at the first failure. *)
let rec ship send = function
  | [] -> Ok ()
  | item :: rest -> Result.bind (send item) (fun () -> ship send rest)

let log_fixpoint t ~mode ~seeded (stats : Coordinator.run_stats) =
  Coral_obs.Obs.Counter.incr t.c_fixpoints;
  Coral_obs.Query_log.Events.log ~kind:"dist_fixpoint"
    [ "mode", Coral_obs.Json.Str mode;
      "shards", Coral_obs.Json.Int (Coordinator.shards t.coord);
      "rounds", Coral_obs.Json.Int stats.Coordinator.rounds;
      "seeded_tuples", Coral_obs.Json.Int seeded;
      "new_tuples", Coral_obs.Json.Int stats.Coordinator.new_tuples;
      "shipped_tuples", Coral_obs.Json.Int stats.Coordinator.shipped_tuples;
      "shipped_bytes", Coral_obs.Json.Int stats.Coordinator.shipped_bytes;
      "wall_ms", Coral_obs.Json.Int (int_of_float (stats.Coordinator.wall_s *. 1000.));
      "skew", Coral_obs.Json.Float stats.Coordinator.skew_max;
      "straggler_rounds", Coral_obs.Json.Int stats.Coordinator.stragglers
    ];
  t.last_run <- Some stats

(* Close every kept fan-out connection. *)
let drop_idle t =
  Mutex.lock t.pool_lock;
  Array.iteri
    (fun i clients ->
      List.iter Shard_client.disconnect clients;
      t.idle.(i) <- [])
    t.idle;
  Mutex.unlock t.pool_lock

(* Reprovision the cluster from the router's database.  Caller holds
   [cl_lock]. *)
let resync t (a : Plan.analysis) =
  Coral_obs.Obs.Counter.incr t.c_resyncs;
  Atomic.incr t.gen;
  Obs.Histogram.time t.h_provision @@ fun () ->
  (* the EDB shipped below holds every queued insert *)
  t.pending <- [];
  with_write t.gate @@ fun () ->
  (* Reprovisioning must talk to whatever listens at each address NOW,
     not over a connection established before the cluster went dirty: a
     worker restarted on the same address would otherwise get the
     deltas (its peers reconnect) but never the shard/dprog
     configuration (still riding the stale control session), and the
     fan-outs would keep asking the old one. *)
  Coordinator.disconnect t.coord;
  drop_idle t;
  let ( >>= ) r f = Result.bind r f in
  match
    Coordinator.configure t.coord
    >>= fun () ->
    Coordinator.reset t.coord
    >>= fun () ->
    Coordinator.send_program t.coord a.Plan.text
    >>= fun () ->
    let edb, seeds, seeded = replica_batches t a in
    ship (Coordinator.send_edb_batch t.coord) (payloads edb)
    >>= fun () ->
    Array.to_list seeds
    |> List.mapi (fun shard b -> List.map (fun p -> shard, p) (payloads b))
    |> List.concat
    |> ship (fun (shard, payload) -> Coordinator.send_delta t.coord ~shard payload)
    >>= fun () ->
    Coordinator.run_fixpoint ~seeded t.coord
    >>= fun stats -> Ok (stats, seeded)
  with
  | exception Delta_codec.Unencodable m ->
    (* a value the codec cannot round-trip must not reach a worker:
       fail the sync; the caller's query surfaces the error and the
       cluster stays dirty *)
    Error (Protocol.Cluster, m)
  | Error e -> Error e
  | Ok (stats, seeded) ->
    log_fixpoint t ~mode:"resync" ~seeded stats;
    t.dirty <- false;
    Ok ()

(* Bring a Clean cluster up to date with the queued inserts: ship them
   to every worker and run the fixpoint from them.  Caller holds
   [cl_lock]. *)
let delta_sync t =
  Coral_obs.Obs.Counter.incr t.c_delta_syncs;
  Obs.Histogram.time t.h_delta_sync @@ fun () ->
  with_write t.gate @@ fun () ->
  let facts = List.rev t.pending in
  t.pending <- [];
  match
    let b = Delta_codec.batch () in
    Obs.Histogram.time h_codec (fun () ->
        List.iter (fun (name, tuple) -> Delta_codec.add_tuple b name tuple) facts);
    Result.bind
      (ship (Coordinator.send_edb_batch t.coord) (Delta_codec.contents b))
      (fun () -> Coordinator.run_fixpoint t.coord)
  with
  | exception Delta_codec.Unencodable m -> Error (Protocol.Cluster, m)
  | Error e -> Error e
  | Ok stats ->
    log_fixpoint t ~mode:"delta" ~seeded:0 stats;
    Ok ()

(* Re-read the verdict under [cl_lock] and, if the cluster is dirty,
   reprovision with the analysis read THERE — not one a caller read
   before taking the lock.  A concurrent consult can flip the verdict
   between a caller's unlocked routing check and this point; returning
   the locked-in analysis (or [`Local]) makes that race harmless
   instead of an [assert false]. *)
let ensure_synced ?abandon t =
  Mutex.lock t.cl_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cl_lock)
    (fun () ->
      (match abandon with Some f -> Coordinator.abandon_when t.coord f | None -> fun g -> g ())
      @@ fun () ->
      match t.verdict with
      | Plan.Local _ -> `Local
      | Plan.Distributable a -> (
        (* a delta sync that fails leaves the workers in no known
           state: reprovision them *)
        if (not t.dirty) && t.pending <> [] && Result.is_error (delta_sync t) then
          t.dirty <- true;
        if not t.dirty then `Synced a
        else
          match resync t a with
          | Ok () -> `Synced a
          | Error e -> `Error e))

let mark_dirty_locked t =
  Atomic.incr t.gen;
  t.dirty <- true;
  t.pending <- [];
  t.verdict <- Plan.analyse_engine (Coral.engine (Session.db t.sstore))

let mark_dirty t =
  Mutex.lock t.cl_lock;
  mark_dirty_locked t;
  Mutex.unlock t.cl_lock

(* Past this many queued facts an insert dirties the cluster instead: a
   stream of inserts with no distributed query in between must not
   grow the queue without bound. *)
let max_pending = 65_536

(* A committed insert: queue its facts when they are one more delta
   for a Clean cluster (ground facts of base predicates no rule
   negates), else dirty the cluster.  A Dirty cluster stays dirty; its
   reprovision ships the whole EDB.  [gen] was read before the commit:
   if a dirty mark or a resync came in between, the workers may already
   hold a state newer than this insert (a retract of the same fact,
   then a resync that shipped the EDB without it), and queuing the fact
   would bring it back there, so the insert dirties the cluster
   instead. *)
let note_insert t ~gen (atoms : Coral.Ast.atom list) =
  let facts =
    if List.for_all (fun (x : Coral.Ast.atom) -> Array.for_all Coral.Term.is_ground x.args) atoms
    then
      Some
        (List.map
           (fun (x : Coral.Ast.atom) -> Coral.Symbol.name x.pred, Coral.Tuple.of_terms x.args)
           atoms)
    else None
  in
  Mutex.lock t.cl_lock;
  (match t.verdict, facts with
  | _ when t.dirty -> ()
  | Plan.Distributable a, Some facts
    when Atomic.get t.gen = gen
         && List.compare_length_with t.pending max_pending < 0
         && List.for_all
              (fun (name, tuple) -> Plan.insert_is_delta a name (Coral.Tuple.arity tuple))
              facts ->
    t.pending <- List.rev_append facts t.pending
  | _ -> mark_dirty_locked t);
  Mutex.unlock t.cl_lock

(* ------------------------------------------------------------------ *)
(* Query routing                                                       *)
(* ------------------------------------------------------------------ *)

(* A query is fanned out when the cluster holds its derived data and
   the merge is provably disjoint: exactly one positive literal over a
   partitioned predicate (its instantiation in any answer row has a
   unique owner shard), none negated, and no update builtin anywhere
   in the query — a fanned-out assert/retract would mutate the
   workers' replicas instead of the router's database.  Everything
   else — pure-EDB queries, multi-IDB joins, negation over IDB,
   mutating queries — evaluates on the router's own replica. *)
let distributable_query (a : Plan.analysis) text =
  match Coral.Parser.query text with
  | Error _ -> None  (* let the local session produce the parse error *)
  | Ok lits ->
    let is_idb (atom : Coral.Ast.atom) =
      List.mem (Coral.Symbol.name atom.Coral.Ast.pred, Array.length atom.Coral.Ast.args) a.Plan.idb
    in
    let mutates (atom : Coral.Ast.atom) =
      let n = Coral.Symbol.name atom.Coral.Ast.pred in
      (n = "assert" || n = "retract") && Array.length atom.Coral.Ast.args = 1
    in
    let pos_idb =
      List.filter (function Coral.Ast.Pos at -> is_idb at | _ -> false) lits
    in
    let neg_idb =
      List.exists (function Coral.Ast.Neg at -> is_idb at | _ -> false) lits
    in
    let mutating =
      List.exists (function Coral.Ast.Pos at -> mutates at | _ -> false) lits
    in
    (match pos_idb, neg_idb, mutating with
    | [ _ ], false, false -> Some ()
    | _ -> None)

(* Kept connections per shard beyond which a returned one is closed:
   enough for a few concurrent fan-outs. *)
let max_idle = 4

let borrow t i =
  Mutex.lock t.pool_lock;
  let client =
    match t.idle.(i) with
    | c :: rest ->
      t.idle.(i) <- rest;
      c
    | [] -> Shard_client.create ~attempts:2 ~backoff_ms:20 (List.nth (Coordinator.addrs t.coord) i)
  in
  Mutex.unlock t.pool_lock;
  client

(* A client whose exchange failed or was abandoned has closed its
   connection already; it is not kept. *)
let give_back t i client =
  Mutex.lock t.pool_lock;
  if Shard_client.connected client && List.compare_length_with t.idle.(i) max_idle < 0 then
    t.idle.(i) <- client :: t.idle.(i)
  else Shard_client.disconnect client;
  Mutex.unlock t.pool_lock

(* The answer count a worker's query reply states: [ok N answers ...]. *)
let rows_of detail = Option.value (Scanf.sscanf_opt detail "%d" Fun.id) ~default:0

(* Evaluate on the router's own replica — and notice when the query
   mutated it.  The assert/retract builtins ride ordinary queries (the
   session routes them to the write lane), and any committed mutation
   publishes a new snapshot epoch; an epoch bump across the call means
   the workers' materialized state no longer reflects the database, so
   the cluster goes dirty exactly like after a consult.  A concurrent
   session's mutation can bump the epoch in the same window and cause
   a spurious re-dirty — harmless; that mutation dirties the cluster
   itself anyway. *)
let local_query t session text =
  Coral_obs.Obs.Counter.incr t.c_local;
  let before = Session.snapshot_epoch t.sstore in
  let r = Session.handle session (Protocol.Query text) in
  if Session.snapshot_epoch t.sstore <> before then mark_dirty t;
  r

(* Ask every shard on kept connections.  [`Lost] when a kept
   connection failed: its worker may have been replaced since. *)
let fan_out t ~abandon ~timeout_ms ~tid text =
  Coral_obs.Obs.Counter.incr t.c_dist;
  (* the trace context travels to each worker inside the command line
     (a trailing [tid=] token the worker's serving layer re-installs) *)
  let wire_text = match tid with Some id -> text ^ " tid=" ^ id | None -> text in
  let t0_ns = Obs.now_ns () in
  Obs.Histogram.time t.h_relay @@ fun () ->
  let shards = Coordinator.shards t.coord in
  (* the gate covers the exchange only: a sync waiting on it holds
     [cl_lock], which [mark_dirty] below takes *)
  let clients, kept, outcomes =
    with_read t.gate @@ fun () ->
    let clients = Array.init shards (borrow t) in
    let kept = Array.map Shard_client.connected clients in
    let timeout = Printf.sprintf "timeout %d" timeout_ms in
    let outcomes =
      Shard_client.request_all ~abandon
        (Array.map (fun c -> c, [ timeout, None; "query " ^ wire_text, None ]) clients)
    in
    Array.iteri (give_back t) clients;
    clients, kept, outcomes
  in
  let failure i = function
    | Shard_client.Replies ([ _; (_, status) ], _) -> (
      match Shard_client.status_err status with
      | Some (code, msg) ->
        let code = Option.value (Protocol.code_of_string code) ~default:Protocol.Cluster in
        Some (`Err (code, Printf.sprintf "%s: %s" (Shard_client.addr clients.(i)) msg))
      | None -> None)
    | Shard_client.Replies _ ->
      Some (`Err (Protocol.Proto, "unparseable reply from " ^ Shard_client.addr clients.(i)))
    | Shard_client.Failed m -> Some (if kept.(i) then `Lost m else `Err (Protocol.Unavail, m))
    | Shard_client.Abandoned -> Some `Abandoned
  in
  match List.find_map Fun.id (List.mapi failure (Array.to_list outcomes)) with
  | Some (`Err (code, msg)) ->
    (* a vanished worker leaves the cluster suspect: resync before the
       next distributed query *)
    if code = Protocol.Unavail then mark_dirty t;
    `Reply (Protocol.err code msg)
  | Some ((`Lost _ | `Abandoned) as e) -> e
  | None ->
    let blocks, rows =
      Array.fold_right
        (fun o (blocks, rows) ->
          match o with
          | Shard_client.Replies ([ _; (block, status) ], _) ->
            ( Protocol.Raw block :: blocks,
              rows + rows_of (Option.value (Shard_client.status_ok status) ~default:"") )
          | _ -> blocks, rows)
        outcomes ([], 0)
    in
    if Obs.enabled () then
      Obs.Span.record "router.fanout" t0_ns
        (Obs.now_ns () - t0_ns)
        [ "shards", string_of_int shards; "rows", string_of_int rows ];
    `Reply
      (Protocol.ok
         ~detail:
           (Printf.sprintf "%d answer%s shards=%d%s" rows
              (if rows = 1 then "" else "s")
              shards
              (match tid with Some id -> " tid=" ^ id | None -> ""))
         blocks)

(* A distributed query: sync the cluster if it needs it, then fan out.
   It is registered in the Query_log throughout, so [ps] sees it and
   [kill] (or the session's deadline) abandons a fan-out stuck on a
   wedged worker, noticed within one 20 ms wait.  A query answered here
   is timed here, as [Session.handle] times the queries it serves; one
   that lands on the replica is timed there. *)
let do_dist_query t session text =
  let t0 = Obs.now_ns () in
  let started = Unix.gettimeofday () in
  let timeout_ms = Session.deadline_ms session in
  (* captured here: the id also names this query for [trace last] *)
  let tid = Obs.Trace.current () in
  let entry =
    Coral_obs.Query_log.register ~session:(Session.sid session) ~deadline_ms:timeout_ms
      ~kind:"dist" text
  in
  Fun.protect ~finally:(fun () -> Coral_obs.Query_log.unregister entry) @@ fun () ->
  let killed () = Coral_obs.Query_log.killed entry in
  let expired () =
    timeout_ms > 0 && (Unix.gettimeofday () -. started) *. 1000. > float_of_int (timeout_ms + 200)
  in
  let abandon () = killed () || expired () in
  let timed r =
    Session.observe_query (Obs.now_ns () - t0);
    r
  in
  let abandoned () =
    timed
      (if killed () then Protocol.err Protocol.Killed "query killed by operator request"
       else
         Protocol.err Protocol.Timeout
           (Printf.sprintf "deadline of %dms exceeded; fan-out abandoned" timeout_ms))
  in
  let rec go ~retry =
    (* A routine sync is not abandoned for the query: that would leave
       the cluster dirty for the next query, and a stream of kills could
       starve it.  A shard that stops answering fails it all the same
       ([Shard_client.request_all]'s liveness probe): the cluster stays
       dirty and the lock is released.  The resync after a lost
       connection may also be abandoned, since the worker that dropped
       it may now be wedged. *)
    match ensure_synced ?abandon:(if retry then None else Some abandon) t with
    | `Error _ when (not retry) && abandon () -> abandoned ()
    | `Error (code, msg) -> timed (Protocol.err code ("cluster sync failed: " ^ msg))
    | `Local ->
      (* the verdict flipped under a concurrent consult; the replica is
         the correct target now *)
      local_query t session text
    | `Synced a -> (
      (* re-check the query against the analysis the workers actually
         hold, not the one the unlocked routing peek saw *)
      match distributable_query a text with
      | None -> local_query t session text
      | Some () -> (
        (match tid with
        | Some id ->
          Mutex.lock t.cl_lock;
          t.last_tid <- Some id;
          Mutex.unlock t.cl_lock
        | None -> ());
        match fan_out t ~abandon ~timeout_ms ~tid text with
        | `Reply r -> timed r
        | `Abandoned -> abandoned ()
        | `Lost m ->
          mark_dirty t;
          if retry then go ~retry:false else timed (Protocol.err Protocol.Unavail m)))
  in
  go ~retry:true

let handle_query t session text =
  (* an unlocked peek, only to route: do_dist_query re-reads the
     verdict under cl_lock before touching the cluster *)
  match t.verdict with
  | Plan.Distributable a when Coordinator.shards t.coord > 0 -> (
    match distributable_query a text with
    | Some () -> do_dist_query t session text
    | None -> local_query t session text)
  | _ -> local_query t session text

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* The router's sample table: its store's rows, then its own.  The
   cluster fields are read without [cl_lock] (each read is one value):
   a resync holds the lock for a whole fixpoint, and [stats] and a
   scrape must not wait on one. *)
let samples t =
  let gauge name v = name, `Gauge, v in
  let seconds name h = name, `Counter, float_of_int (Obs.Histogram.sum_ns h) /. 1e9 in
  Session.samples t.sstore
  @ gauge "router.shards" (float_of_int (Coordinator.shards t.coord))
    :: gauge "router.dirty" (if t.dirty then 1. else 0.)
    :: gauge "router.pending_facts" (float_of_int (List.length t.pending))
    :: seconds "router.provision_seconds_total" t.h_provision
    :: seconds "router.delta_sync_seconds_total" t.h_delta_sync
    :: seconds "router.relay_seconds_total" t.h_relay
    ::
    (match t.last_run with
    | None -> []
    | Some s ->
      [ gauge "router.fixpoint.rounds" (float_of_int s.Coordinator.rounds);
        gauge "router.fixpoint.new_tuples" (float_of_int s.Coordinator.new_tuples);
        gauge "router.fixpoint.shipped_tuples" (float_of_int s.Coordinator.shipped_tuples);
        gauge "router.fixpoint.shipped_bytes" (float_of_int s.Coordinator.shipped_bytes);
        gauge "router.fixpoint.wall_seconds" s.Coordinator.wall_s;
        gauge "dist.skew_ratio" s.Coordinator.skew_max;
        gauge "dist.straggler_rounds" (float_of_int s.Coordinator.stragglers)
      ])

let do_stats t =
  Session.stats_reply t.sstore (samples t)
    [ "router.distributable="
      ^
      match t.verdict with
      | Plan.Distributable a -> Printf.sprintf "yes (%d idb)" (List.length a.Plan.idb)
      | Plan.Local reason -> "no: " ^ reason
    ]

(* ------------------------------------------------------------------ *)
(* Cluster observability: federation, dstat, trace stitching           *)
(* ------------------------------------------------------------------ *)

(* Rewrite one line of a worker's Prometheus exposition into the
   federated namespace: [coral_X ...] becomes
   [coral_shard_X{shard="N",...} ...].  [typed] remembers which
   federated metric names have already emitted a [# TYPE] header —
   the exposition format allows it at most once per name, and every
   shard's scrape carries the same headers. *)
let relabel_metric_line ~typed ~shard line =
  let shard_label = Printf.sprintf "shard=\"%d\"" shard in
  if String.starts_with ~prefix:"# TYPE coral_" line then begin
    let rest = String.sub line 7 (String.length line - 7) in
    match String.index_opt rest ' ' with
    | None -> None
    | Some i ->
      let name = "coral_shard_" ^ String.sub rest 6 (i - 6) in
      let kind = String.sub rest (i + 1) (String.length rest - i - 1) in
      if Hashtbl.mem typed name then None
      else begin
        Hashtbl.replace typed name ();
        Some (Printf.sprintf "# TYPE %s %s" name kind)
      end
  end
  else if String.starts_with ~prefix:"coral_" line then begin
    let n = String.length line in
    let rec name_end i =
      if i >= n then n else match line.[i] with '{' | ' ' -> i | _ -> name_end (i + 1)
    in
    let cut = name_end 0 in
    let name = "coral_shard_" ^ String.sub line 6 (cut - 6) in
    let rest = String.sub line cut (n - cut) in
    if String.length rest > 0 && rest.[0] = '{' then
      Some (name ^ "{" ^ shard_label ^ "," ^ String.sub rest 1 (String.length rest - 1))
    else Some (name ^ "{" ^ shard_label ^ "}" ^ rest)
  end
  else None  (* # HELP, blanks, non-coral series *)

(* The router's federated scrape body: its own sample table, then
   every worker's metrics relabeled under [coral_shard_*{shard="N"}]
   plus a per-shard [coral_shard_up] gauge.  Scrapes ride one-shot
   connections (Shard_client.fetch), never the coordinator's pooled
   control clients. *)
let federated_metrics t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Obs.render_prometheus (samples t));
  let typed = Hashtbl.create 64 in
  List.iteri
    (fun i addr ->
      let scraped =
        match Shard_client.fetch addr "metrics" with
        | Error _ -> None
        | Ok (lines, status) ->
          if Shard_client.status_ok status = None then None else Some lines
      in
      Obs.prometheus_sample_labeled buf
        ~typ:(not (Hashtbl.mem typed "coral_shard_up"))
        ~kind:"gauge"
        ~labels:[ "shard", string_of_int i; "addr", addr ]
        "shard.up"
        (if scraped = None then 0. else 1.);
      Hashtbl.replace typed "coral_shard_up" ();
      match scraped with
      | None -> ()
      | Some lines ->
        List.iter
          (fun line ->
            if String.starts_with ~prefix:"txt " line then
              let raw = String.sub line 4 (String.length line - 4) in
              match relabel_metric_line ~typed ~shard:i raw with
              | Some l ->
                Buffer.add_string buf l;
                Buffer.add_char buf '\n'
              | None -> ())
          lines)
    (Coordinator.addrs t.coord);
  Buffer.contents buf

let do_metrics t =
  let lines =
    federated_metrics t |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
  in
  Protocol.ok (List.map (fun l -> Protocol.Txt l) lines)

(* Per-round fixpoint instrumentation, as an operator table. *)
let do_dstat t =
  Mutex.lock t.cl_lock;
  let last = t.last_run in
  Mutex.unlock t.cl_lock;
  match last with
  | None ->
    Protocol.err Protocol.Cluster
      "dstat: no distributed fixpoint has run yet (consult a distributable program and query it)"
  | Some s ->
    let lines =
      List.concat_map
        (fun (r : Coordinator.round_stat) ->
          Printf.sprintf "round=%d wall_ms=%.2f step_max_ms=%.2f skew=%.2f straggler=%s"
            r.Coordinator.r_round
            (r.Coordinator.r_wall_s *. 1000.)
            (r.Coordinator.r_step_max_s *. 1000.)
            r.Coordinator.r_skew
            (match r.Coordinator.r_straggler with
            | None -> "-"
            | Some sh -> string_of_int sh)
          :: List.map
               (fun (sr : Coordinator.shard_round) ->
                 Printf.sprintf
                   "  shard=%d step_ms=%.2f derived=%d shipped=%d received=%d new=%d"
                   sr.Coordinator.sr_shard
                   (sr.Coordinator.sr_step_s *. 1000.)
                   sr.Coordinator.sr_derived sr.Coordinator.sr_shipped
                   sr.Coordinator.sr_received sr.Coordinator.sr_new)
               r.Coordinator.r_shards)
        s.Coordinator.round_stats
    in
    Protocol.ok
      ~detail:
        (Printf.sprintf "rounds=%d skew_max=%.2f straggler_rounds=%d wall_ms=%.1f"
           s.Coordinator.rounds s.Coordinator.skew_max s.Coordinator.stragglers
           (s.Coordinator.wall_s *. 1000.))
      (List.map (fun l -> Protocol.Txt l) lines)

(* Stitch one trace: the router's own spans plus a [spans <tid>] pull
   from every worker, each as its own pid lane of one Chrome
   trace_event JSON.  A worker that cannot be reached simply
   contributes an empty lane — a partial trace beats none. *)
let do_trace t tid_arg =
  let tid =
    if tid_arg <> "last" then Some tid_arg
    else begin
      Mutex.lock t.cl_lock;
      let v = t.last_tid in
      Mutex.unlock t.cl_lock;
      v
    end
  in
  match tid with
  | None ->
    Protocol.err Protocol.Cluster
      "trace last: no distributed query has been traced yet (is observability on? try 'obs on')"
  | Some tid ->
    let shard_lanes =
      List.mapi
        (fun i addr ->
          let spans =
            match Shard_client.fetch addr ("spans " ^ tid) with
            | Error _ -> []
            | Ok (lines, status) ->
              if Shard_client.status_ok status = None then []
              else
                List.filter_map
                  (fun line ->
                    if String.starts_with ~prefix:"txt " line then
                      match
                        Obs.Span.of_json (String.sub line 4 (String.length line - 4))
                      with
                      | Ok s -> Some s
                      | Error _ -> None
                    else None)
                  lines
          in
          Printf.sprintf "shard%d %s" i addr, spans)
        (Coordinator.addrs t.coord)
    in
    let lanes = ("router", Obs.Span.matching tid) :: shard_lanes in
    let total = List.fold_left (fun n (_, spans) -> n + List.length spans) 0 lanes in
    if total = 0 then
      Protocol.err Protocol.Eval
        (Printf.sprintf "trace %s: no spans recorded (is observability on? try 'obs on')"
           tid)
    else
      let payload =
        Obs.Span.to_chrome_json_lanes lanes
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> Protocol.Txt l)
      in
      Protocol.ok
        ~detail:
          (Printf.sprintf "%d span%s tid=%s lanes=%d" total
             (if total = 1 then "" else "s")
             tid (List.length lanes))
        payload

let route t session (req : Protocol.request) =
  match req with
  | Protocol.Query text -> handle_query t session text
  (* an insert reaches [note_insert] through the store's insert hook *)
  | Protocol.Consult _ | Protocol.Retract _ ->
    let r = Session.handle session req in
    (match r.Protocol.status with Ok _ -> mark_dirty t | Error _ -> ());
    r
  | Protocol.Stats -> do_stats t
  | Protocol.Metrics -> do_metrics t
  | Protocol.Dstat -> do_dstat t
  | Protocol.Trace tid -> do_trace t tid
  | _ -> Session.handle session req

(* The router is the trace origin: a request that brought no [tid=]
   gets a fresh id (when tracing is on), so the whole fan-out — local
   spans, worker commands, events — shares one trace id. *)
let handle t session req =
  match Obs.Trace.current () with
  | None when Obs.enabled () ->
    Obs.Trace.with_id (Some (Obs.Trace.fresh ())) (fun () -> route t session req)
  | _ -> route t session req

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  st : state;
  srv : Server.t;
}

let start ?(consult = []) ?limits ?straggler_factor ?(insert_committed = ignore) ~listen
    ~shard_addrs ~key db =
  List.iter (fun file -> Coral.consult_file db file) consult;
  let st =
    { sstore = Session.make_store ?limits db;
      coord = Coordinator.create ?straggler_factor ~addrs:shard_addrs ~key ();
      cl_lock = Mutex.create ();
      dirty = true;
      pending = [];
      gen = Atomic.make 0;
      insert_committed;
      verdict = Plan.analyse_engine (Coral.engine db);
      last_run = None;
      last_tid = None;
      gate =
        { g_lock = Mutex.create (); g_cond = Condition.create (); readers = 0; syncing = false };
      pool_lock = Mutex.create ();
      idle = Array.make (List.length shard_addrs) [];
      c_dist = Coral_obs.Obs.counter "router.queries.dist";
      c_local = Coral_obs.Obs.counter "router.queries.local";
      c_fixpoints = Coral_obs.Obs.counter "router.fixpoint.runs";
      c_resyncs = Coral_obs.Obs.counter "router.resyncs";
      c_delta_syncs = Coral_obs.Obs.counter "router.delta_syncs";
      h_provision = Obs.histogram "router.provision";
      h_delta_sync = Obs.histogram "router.delta_sync";
      h_relay = Obs.histogram "router.relay"
    }
  in
  Session.set_insert_hook st.sstore (fun atoms ->
      let gen = Atomic.get st.gen in
      fun () ->
        st.insert_committed ();
        note_insert st ~gen atoms);
  { st; srv = Server.serve ~handle:(handle st) ~listen st.sstore }

let port t = Server.port t.srv
let store t = t.st.sstore
let shards t = Coordinator.shards t.st.coord
let metrics_text t = federated_metrics t.st
let wait t = Server.wait t.srv

let shutdown t =
  Server.shutdown t.srv;
  Coordinator.disconnect t.st.coord;
  drop_idle t.st
