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
              from scratch — configure, dreset, re-ship the EDB, ship
              the program, seed the partitioned predicates' consulted
              facts to their owner shards, run the fixpoint to
              quiescence — and moves to Clean.
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
   never produce the same row.

   A fan-out runs one thread per shard; the waiter sleeps on a
   per-fan-out pipe that each thread writes a byte to as it answers,
   so the merge starts when the last shard answers, not at a polling
   tick.  Every query — local or distributed — registers in the
   process-wide Query_log, so [ps] sees it and [kill] aborts it: the
   waiter still wakes at least every 20 ms tick to notice a kill or
   the deadline, and an abandoned fan-out leaves its threads to close
   their own connections, and the last of them the pipe.

   Peer deltas and the seed batches below travel as binary
   [Delta_codec] batches; only the replicated EDB ships as fact
   text. *)

open Coral_server
module Obs = Coral_obs.Obs

(* Seed and EDB-delta batches are encoded under the workers' codec
   histogram. *)
let h_codec = Obs.histogram "phase.codec"

(* One fanned-out query: a slot per shard, filled by that shard's
   thread, which then writes one byte to [wake_w] so the waiter, asleep
   in [select] on [wake_r], returns when the last shard answers rather
   than at its next tick.  The pipe is closed by whichever side is done
   with it last — the waiter once every thread has finished, or, when
   kill or the deadline abandons the fan-out, the last thread to
   finish — so no thread ever writes to a closed (or reused) fd. *)
type fanout = {
  slots : (Protocol.response, Protocol.error_code * string) result option array;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  fo_lock : Mutex.t;  (* guards [slots], [pending], [abandoned] *)
  mutable pending : int;  (* shard threads still running *)
  mutable abandoned : bool;  (* the waiter has left *)
}

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

(* Iterate the router's base relations, skipping reserved @ names. *)
let iter_base_relations eng f =
  List.iter
    (fun (key, _card) ->
      match String.rindex_opt key '/' with
      | None -> ()
      | Some i -> (
        let name = String.sub key 0 i in
        match int_of_string_opt (String.sub key (i + 1) (String.length key - i - 1)) with
        | None -> ()
        | Some arity ->
          if not (String.contains name '@') then begin
            match Coral.Engine.relation_of eng (Coral.Symbol.intern name) arity with
            | None -> ()
            | Some rel -> f name arity rel
          end))
    (Coral.Engine.list_relations eng)

(* Dump the router's base relations (the replicated EDB) as fact
   lines.  Derived predicates are excluded — the workers rebuild
   those themselves. *)
let edb_text t (a : Plan.analysis) =
  let eng = Coral.engine (Session.db t.sstore) in
  let buf = Buffer.create 4096 in
  Session.locked t.sstore (fun () ->
      iter_base_relations eng (fun name arity rel ->
          if not (List.mem (name, arity) a.Plan.idb) then
            Seq.iter
              (fun tuple ->
                Buffer.add_string buf (Delta_codec.fact_line name tuple);
                Buffer.add_char buf '\n')
              (Coral.Relation.scan rel ())))
  ;
  Buffer.contents buf

(* A predicate defined by rules can ALSO be seeded with consulted
   facts (path(a, b). plus recursive path rules).  Those facts live in
   the router's base relations but are excluded from the replicated
   EDB — each belongs to exactly one owner shard.  Ship them as
   per-owner delta batches: they sit in the owner's exchange buffer,
   are absorbed into the owner's relation and its private delta at
   the first promote, and from round 2 on the linear rules derive from
   them like any other delta.
   Returns the per-shard batches plus the total seeded count. *)
let seed_batches t (a : Plan.analysis) =
  let eng = Coral.engine (Session.db t.sstore) in
  let part = Coordinator.partition t.coord in
  let batches = Array.init (Coordinator.shards t.coord) (fun _ -> Delta_codec.batch ()) in
  let count = ref 0 in
  Session.locked t.sstore (fun () ->
      Obs.Histogram.time h_codec @@ fun () ->
      iter_base_relations eng (fun name arity rel ->
          if List.mem (name, arity) a.Plan.idb then
            Seq.iter
              (fun tuple ->
                Delta_codec.add_tuple batches.(Partition.owner part tuple) name tuple;
                incr count)
              (Coral.Relation.scan rel ())));
  batches, !count

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

(* Reprovision the cluster from the router's database.  Caller holds
   [cl_lock]. *)
let resync t (a : Plan.analysis) =
  Coral_obs.Obs.Counter.incr t.c_resyncs;
  Atomic.incr t.gen;
  Obs.Histogram.time t.h_provision @@ fun () ->
  (* the EDB shipped below holds every queued insert *)
  t.pending <- [];
  (* Reprovisioning must talk to whatever listens at each address NOW,
     not to a control connection established before the cluster went
     dirty: a worker restarted on the same address would otherwise get
     the deltas (its peers reconnect) but never the shard/dprog
     configuration (still riding the stale control session). *)
  Coordinator.disconnect t.coord;
  let ( >>= ) r f = Result.bind r f in
  match
    Coordinator.configure t.coord
    >>= fun () ->
    Coordinator.reset t.coord
    >>= fun () ->
    Coordinator.send_edb t.coord (edb_text t a)
    >>= fun () ->
    Coordinator.send_program t.coord a.Plan.text
    >>= fun () ->
    let batches, seeded = seed_batches t a in
    let payloads =
      Array.to_list batches
      |> List.mapi (fun shard b ->
             if Delta_codec.count b = 0 then []
             else List.map (fun p -> shard, p) (Delta_codec.contents b))
      |> List.concat
    in
    let rec ship = function
      | [] -> Ok ()
      | (shard, payload) :: rest ->
        Coordinator.send_delta t.coord ~shard payload >>= fun () -> ship rest
    in
    ship payloads
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
  let facts = List.rev t.pending in
  t.pending <- [];
  match
    let b = Delta_codec.batch () in
    Obs.Histogram.time h_codec (fun () ->
        List.iter (fun (name, tuple) -> Delta_codec.add_tuple b name tuple) facts);
    let rec ship = function
      | [] -> Ok ()
      | payload :: rest ->
        Result.bind (Coordinator.send_edb_delta t.coord payload) (fun () -> ship rest)
    in
    Result.bind (ship (Delta_codec.contents b)) (fun () -> Coordinator.run_fixpoint t.coord)
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
let ensure_synced t =
  Mutex.lock t.cl_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cl_lock)
    (fun () ->
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

(* Strip a worker reply line back into payload form. *)
let payload_of_line line =
  if String.starts_with ~prefix:"ans " line then
    Some (Protocol.Ans (String.sub line 4 (String.length line - 4)))
  else if String.starts_with ~prefix:"txt " line then
    Some (Protocol.Txt (String.sub line 4 (String.length line - 4)))
  else None

(* One worker's share of a fanned-out query, on its own connection
   (the coordinator's control connections stay untouched, so an
   abandoned query thread can never poison a barrier). *)
let shard_query addr ~timeout_ms text =
  let client = Shard_client.create ~attempts:2 ~backoff_ms:20 addr in
  Fun.protect
    ~finally:(fun () -> Shard_client.disconnect client)
    (fun () ->
      if timeout_ms > 0 then
        ignore (Shard_client.request client (Printf.sprintf "timeout %d" timeout_ms));
      let lines, status = Shard_client.request client ("query " ^ text) in
      match Shard_client.status_ok status with
      | Some detail ->
        Ok (Protocol.ok ~detail (List.filter_map payload_of_line lines))
      | None -> (
        match Shard_client.status_err status with
        | Some (code, msg) ->
          let code = Option.value (Protocol.code_of_string code) ~default:Protocol.Cluster in
          Error (code, Printf.sprintf "%s: %s" addr msg)
        | None -> Error (Protocol.Proto, "unparseable reply from " ^ addr)))

let close_wake fo =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ fo.wake_r; fo.wake_w ]

let launch_fanout ~timeout_ms addrs text =
  let n = List.length addrs in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let fo =
    { slots = Array.make n None;
      wake_r;
      wake_w;
      fo_lock = Mutex.create ();
      pending = n;
      abandoned = false
    }
  in
  let finish i r =
    Mutex.lock fo.fo_lock;
    fo.slots.(i) <- Some r;
    fo.pending <- fo.pending - 1;
    if not fo.abandoned then (
      try ignore (Unix.write_substring fo.wake_w "." 0 1) with Unix.Unix_error _ -> ())
    else if fo.pending = 0 then close_wake fo;
    Mutex.unlock fo.fo_lock
  in
  let threads =
    List.mapi
      (fun i addr ->
        Thread.create
          (fun () ->
            finish i
              (try shard_query addr ~timeout_ms text with
              | Shard_client.Down m -> Error (Protocol.Unavail, m)
              | e -> Error (Protocol.Cluster, Printexc.to_string e)))
          ())
      addrs
  in
  fo, threads

(* Block until every shard has answered ([`Done]), the query is
   killed, or its deadline passes — the last two noticed within one
   [tick] — then give up the waiter's share of the pipe. *)
let await_fanout fo ~killed ~expired =
  let tick = 0.02 in
  let drain = Bytes.create 64 in
  let rec wait () =
    Mutex.lock fo.fo_lock;
    let pending = fo.pending in
    Mutex.unlock fo.fo_lock;
    if pending = 0 then `Done
    else if killed () then `Killed
    else if expired () then `Timeout
    else begin
      (match Unix.select [ fo.wake_r ] [] [] tick with
      | [], _, _ -> ()
      | _ -> ignore (Unix.read fo.wake_r drain 0 (Bytes.length drain))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
        (* no select for this fd (past FD_SETSIZE): poll by the tick *)
        Thread.delay tick);
      wait ()
    end
  in
  Fun.protect wait ~finally:(fun () ->
      Mutex.lock fo.fo_lock;
      if fo.pending = 0 then close_wake fo else fo.abandoned <- true;
      Mutex.unlock fo.fo_lock)

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

let fan_out t session text =
      Coral_obs.Obs.Counter.incr t.c_dist;
      (* The connection thread's trace context, captured HERE: the
         fan-out threads below have none, so the id travels to each
         worker inside the command line instead (a trailing [tid=]
         token the worker's serving layer re-installs). *)
      let tid = Obs.Trace.current () in
      (match tid with
      | Some id ->
        Mutex.lock t.cl_lock;
        t.last_tid <- Some id;
        Mutex.unlock t.cl_lock
      | None -> ());
      let wire_text = match tid with Some id -> text ^ " tid=" ^ id | None -> text in
      let timeout_ms = Session.deadline_ms session in
      let entry =
        Coral_obs.Query_log.register ~session:(Session.sid session)
          ~deadline_ms:timeout_ms ~kind:"dist" text
      in
      Fun.protect ~finally:(fun () -> Coral_obs.Query_log.unregister entry)
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let t0_ns = Obs.now_ns () in
      Obs.Histogram.time t.h_relay @@ fun () ->
      match launch_fanout ~timeout_ms (Coordinator.addrs t.coord) wire_text with
      | exception Unix.Unix_error (e, _, _) ->
        (* no fd left for the wake pipe *)
        Protocol.err Protocol.Resource ("cannot start the fan-out: " ^ Unix.error_message e)
      | fo, threads ->
      (* Wait rather than join: kill (and the local deadline) must be
         able to abandon threads stuck on a wedged worker.  Abandoned
         threads own their connections and close them on exit. *)
      let expired () =
        timeout_ms > 0 && (Unix.gettimeofday () -. t0) *. 1000. > float_of_int (timeout_ms + 200)
      in
      (match
         await_fanout fo ~killed:(fun () -> Coral_obs.Query_log.killed entry) ~expired
       with
      | `Killed -> Protocol.err Protocol.Killed "query killed by operator request"
      | `Timeout ->
        Protocol.err Protocol.Timeout
          (Printf.sprintf "deadline of %dms exceeded; fan-out abandoned" timeout_ms)
      | `Done ->
        List.iter Thread.join threads;
        let results = Array.map Option.get fo.slots in
        (match
           Array.fold_left
             (fun acc r -> match acc, r with None, Error e -> Some e | _ -> acc)
             None results
         with
        | Some (code, msg) ->
          (* a vanished worker leaves the cluster suspect: resync
             before the next distributed query *)
          if code = Protocol.Unavail then mark_dirty t;
          Protocol.err code msg
        | None ->
          let payload =
            Array.to_list results
            |> List.concat_map (function
                 | Ok (r : Protocol.response) -> r.Protocol.payload
                 | Error _ -> [])
          in
          let rows =
            List.length (List.filter (function Protocol.Ans _ -> true | _ -> false) payload)
          in
          if Obs.enabled () then
            Obs.Span.record "router.fanout" t0_ns
              (Obs.now_ns () - t0_ns)
              [ "shards", string_of_int (Coordinator.shards t.coord);
                "rows", string_of_int rows ];
          Protocol.ok
            ~detail:
              (Printf.sprintf "%d answer%s shards=%d%s" rows
                 (if rows = 1 then "" else "s")
                 (Coordinator.shards t.coord)
                 (match tid with Some id -> " tid=" ^ id | None -> ""))
            payload))

let do_dist_query t session text =
  match ensure_synced t with
  | `Error (code, msg) -> Protocol.err code ("cluster sync failed: " ^ msg)
  | `Local ->
    (* the verdict flipped under a concurrent consult; the replica is
       the correct target now *)
    local_query t session text
  | `Synced a -> (
    (* re-check the query against the analysis the workers actually
       hold, not the one the unlocked routing peek saw *)
    match distributable_query a text with
    | Some () -> fan_out t session text
    | None -> local_query t session text)

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
  Coordinator.disconnect t.st.coord
