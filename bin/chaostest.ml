(* Randomized overload / fault harness for the server layer.

   Usage: chaostest [--iters N] [--seed S] [--quiet]

   Where crashtest tears the storage under a single writer, chaostest
   abuses a LIVE server: iterations connect, churn, disconnect
   mid-reply, send garbage and oversized lines, storm the connection
   and in-flight caps, trip per-query resource budgets, kill queries
   from other sessions, inject storage faults that flip the store
   read-only, and shut down a worker shard under a distributed query
   routed through an ephemeral in-process cluster.  A fresh in-process server is started every [epoch]
   iterations (odd epochs carry a persistent database behind a fault
   injector) and torn down with three invariants checked:

     - the accept loop is alive: a final connect + ping answers ok;
     - every reply the server ever produced is well-formed — payload
       lines are [ans ]/[txt ]-prefixed, status lines are [ok ...] or
       [err CODE ...] with a known code, and BUSY messages lead with
       an integer retry-after-ms — no matter how the request died;
     - descriptors return to baseline: no connection outcome (shed,
       EMFILE, mid-reply abort, thread death) leaks an fd.

   Within an epoch, established sessions must survive other clients'
   failures, a budget-exceeded query must come back [err RESOURCE]
   while a concurrent session keeps answering, and a degraded store
   must keep serving reads.  The seed is always printed; any failure
   reports the seed and iteration that reproduce it. *)

module Server = Coral_server.Server
module Admission = Coral_server.Admission
module Protocol = Coral_server.Protocol
module D = Coral_storage.Disk

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Client plumbing and the reply well-formedness check                 *)
(* ------------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  (* a wedged server must fail the harness, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let known_codes =
  [ "PARSE"; "EVAL"; "TIMEOUT"; "PROTO"; "TOOBIG"; "IOERR"; "KILLED"; "BUSY"; "RESOURCE";
    "READONLY"; "UNAVAIL"; "CLUSTER"
  ]

let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Every line the server emits must be classifiable; anything else is a
   protocol violation no matter what the client did to deserve it. *)
let check_line line =
  if String.starts_with ~prefix:"ans " line || String.starts_with ~prefix:"txt " line then ()
  else if line = "ok" || String.starts_with ~prefix:"ok " line then ()
  else if String.starts_with ~prefix:"err " line then begin
    match split_words line with
    | "err" :: code :: rest ->
      if not (List.mem code known_codes) then failf "unknown error code in reply %S" line;
      if code = "BUSY" then begin
        match rest with
        | ms :: _ when int_of_string_opt ms <> None -> ()
        | _ -> failf "BUSY reply without leading retry-after-ms: %S" line
      end
    | _ -> failf "malformed err line %S" line
  end
  else failf "unclassifiable reply line %S" line

(* Read one full reply: payload lines up to and including the status
   line.  [None] on EOF before any line (a shed or closed connection);
   EOF mid-reply fails the iteration. *)
let read_reply c =
  let rec go acc =
    match input_line c.ic with
    | exception End_of_file ->
      if acc = [] then None else failf "connection closed mid-reply (%d lines in)" (List.length acc)
    | line ->
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      check_line line;
      if Protocol.is_status line then Some (List.rev acc, line) else go (line :: acc)
  in
  go []

(* Request/reply; the reply must exist (status [None] fails). *)
let request c line =
  send c line;
  match read_reply c with
  | Some (payload, status) -> payload, status
  | None -> failf "no reply to %S (connection closed)" line

let expect_ok c line =
  let payload, status = request c line in
  if not (String.starts_with ~prefix:"ok" status) then
    failf "%S: expected ok, got %S" line status;
  payload, status

let expect_err code c line =
  let _, status = request c line in
  if not (String.starts_with ~prefix:("err " ^ code) status) then
    failf "%S: expected err %s, got %S" line code status;
  status

(* Connect and wait for admission.  Scenario clients close their
   sockets, but the server reaps those sessions asynchronously, so a
   fresh connect can race the connection cap and be shed.  Clients not
   themselves probing the cap retry briefly: connect, ping, and treat
   a BUSY greeting (or the shed's immediate close) as "not yet". *)
let connect_ready port =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let c = connect port in
    let retry last =
      close_client c;
      if Unix.gettimeofday () > deadline then
        failf "admission wait exceeded 5s (last: %s)" last;
      Thread.delay 0.005;
      go ()
    in
    match send c "ping" with
    | exception (Sys_error _ | Unix.Unix_error _) -> retry "send failed"
    | () -> (
      match read_reply c with
      | Some (_, "ok pong") -> c
      | Some (_, status) when String.starts_with ~prefix:"err BUSY" status ->
        retry (Printf.sprintf "%S" status)
      | Some (_, status) ->
        close_client c;
        failf "unexpected greeting to ping: %S" status
      | None -> retry "connection closed")
  in
  go ()

let fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None  (* no procfs: skip the leak check *)

(* ------------------------------------------------------------------ *)
(* One server epoch                                                    *)
(* ------------------------------------------------------------------ *)

let chain_len = 40

let program =
  let b = Buffer.create 1024 in
  for i = 1 to chain_len - 1 do
    Buffer.add_string b (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Z) :- edge(X, Y), path(Y, Z).\n";
  Buffer.contents b

let limits =
  { Admission.default with
    Admission.max_sessions = 8;
    max_inflight = 2;
    max_waiters = 2;
    wait_ms = 20;
    retry_after_ms = 50
  }

type epoch = {
  srv : Server.t;
  port : int;
  pdb_dir : string option;
  inj : D.Faulty.t option;
  mutable next_fact : int;  (* fresh keys for pfact inserts *)
}

let start_epoch ~persistent ~tag =
  let db = Coral.create () in
  Coral.consult_text db program;
  let pdb_dir, inj, databases =
    if not persistent then None, None, []
    else begin
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "coral-chaostest.%d.%d" (Unix.getpid ()) tag)
      in
      rm_rf dir;
      let inj = D.Faulty.create () in
      let pdb = Coral.Database.open_ ~injector:inj dir in
      Coral.install_relation db "pfact" (Coral.Database.relation pdb ~name:"pfact" ~arity:2 ());
      Some dir, Some inj, [ pdb ]
    end
  in
  let srv = Server.start ~databases ~limits ~listen:(`Tcp ("127.0.0.1", 0)) db in
  { srv; port = Server.port srv; pdb_dir; inj; next_fact = 0 }

let stop_epoch ep =
  Server.shutdown ep.srv;
  match ep.pdb_dir with Some dir -> rm_rf dir | None -> ()

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

(* A well-behaved client: connect, evaluate, quit. *)
let scenario_normal ep rng =
  let c = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  ignore (expect_ok c "ping");
  let from = 1 + Random.State.int rng (chain_len - 1) in
  let payload, status = expect_ok c (Printf.sprintf "query path(%d, X)" from) in
  let expected = chain_len - from in
  if List.length payload <> expected then
    failf "path(%d, X): expected %d answers, got %d (%s)" from expected (List.length payload)
      status;
  ignore (request c "quit")

(* Garbage in, classified errors out — and the session survives them. *)
let scenario_garbage ep rng =
  let c = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  for _ = 1 to 1 + Random.State.int rng 4 do
    let junk =
      match Random.State.int rng 5 with
      | 0 -> "frobnicate the database"
      | 1 -> "query"  (* command without its argument *)
      | 2 -> "limit tuples many"
      | 3 -> "kill zero"
      | _ ->
        String.init
          (1 + Random.State.int rng 40)
          (fun _ -> Char.chr (32 + Random.State.int rng 95))
    in
    let _, status = request c junk in
    (* whatever it parsed as, the reply is classified; most junk is a
       parse/protocol error, but random printable bytes can spell a
       valid request — only a crash or malformed line is a failure *)
    ignore status
  done;
  ignore (expect_ok c "ping")

(* Vanish mid-reply: the connection thread must absorb the EPIPE. *)
let scenario_mid_disconnect ep rng =
  let c = connect_ready ep.port in
  send c "query path(X, Y)";
  (* read a few payload lines, then slam the connection *)
  (try
     for _ = 0 to Random.State.int rng 3 do
       ignore (input_line c.ic)
     done
   with End_of_file | Sys_error _ -> ());
  close_client c

(* An over-limit request line: one TOOBIG reply, connection closed. *)
let scenario_oversized ep _rng =
  let c = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  send c (String.make (Protocol.max_line_bytes + 1) 'a');
  (match read_reply c with
  | Some (_, status) ->
    if not (String.starts_with ~prefix:"err TOOBIG" status) then
      failf "oversized line: expected err TOOBIG, got %S" status
  | None -> failf "oversized line: connection closed without a TOOBIG reply");
  (* the server closes after TOOBIG: the next read is EOF *)
  match input_line c.ic with
  | line -> failf "connection stayed open after TOOBIG (read %S)" line
  | exception End_of_file -> ()

(* Storm the connection cap: every connection past it gets exactly one
   well-formed BUSY line; ones under it keep working. *)
let scenario_conn_storm ep _rng =
  let total = limits.Admission.max_sessions + 4 in
  (* earlier scenarios' sessions drain asynchronously; wait for a quiet
     server so the cap arithmetic below is exact *)
  let probe = connect_ready ep.port in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let payload, _ = expect_ok probe "stats" in
    let live =
      List.exists
        (fun l ->
          match String.index_opt l '=' with
          | Some i when String.length l >= 4 && String.sub l 4 (i - 4) = "server.sessions" ->
            (* "txt server.sessions=N" *)
            (match int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
            | Some n -> n > 1
            | None -> false)
          | _ -> false)
        payload
    in
    if live then
      if Unix.gettimeofday () > deadline then failf "sessions never drained before storm"
      else begin
        Thread.delay 0.005;
        settle ()
      end
  in
  settle ();
  ignore (request probe "quit");
  close_client probe;
  let oks = ref 0 and busys = ref 0 in
  let clients = ref [] in
  Fun.protect ~finally:(fun () -> List.iter close_client !clients)
  @@ fun () ->
  for _ = 1 to total do
    let c = connect ep.port in
    clients := c :: !clients;
    (* sequential ping-ack: an admitted session is registered by the
       time it answers, so the cap check on the NEXT accept is exact *)
    (try send c "ping" with Sys_error _ | Unix.Unix_error _ -> ());
    match read_reply c with
    | Some (_, status) when String.starts_with ~prefix:"ok" status -> incr oks
    | Some (_, status) when String.starts_with ~prefix:"err BUSY" status -> incr busys
    | Some (_, status) -> failf "storm connection: unexpected reply %S" status
    | None -> failf "storm connection: closed without a reply"
    | exception Check_failed m -> raise (Check_failed m)
    | exception (Sys_error _ | End_of_file) -> incr busys
    (* a shed socket may RST before we read the BUSY line; the shed
       itself is still the correct outcome *)
  done;
  if !busys = 0 then failf "opened %d connections against a cap of %d and none was shed" total
      limits.Admission.max_sessions;
  if !oks = 0 then failf "connection storm: every connection was shed";
  (* established sessions survive the storm *)
  match !clients with
  | [] -> ()
  | _ ->
    let survivor = List.nth !clients (List.length !clients - 1) in
    ignore (expect_ok survivor "ping")

(* Storm the in-flight cap from concurrent sessions: every thread gets
   either its answer or a BUSY; nothing hangs, nothing is malformed. *)
let scenario_inflight_storm ep _rng =
  let nthreads = 6 in
  let outcomes = Array.make nthreads "" in
  let worker i =
    match connect ep.port with
    | c ->
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      (try
         let _, status = request c "query path(X, Y)" in
         outcomes.(i) <- status
       with Check_failed m -> outcomes.(i) <- "FAIL " ^ m)
    | exception _ -> outcomes.(i) <- "err BUSY 0 connect shed"
  in
  let threads = List.init nthreads (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i o ->
      if String.starts_with ~prefix:"FAIL " o then
        failf "in-flight storm thread %d: %s" i (String.sub o 5 (String.length o - 5));
      if not (String.starts_with ~prefix:"ok" o || String.starts_with ~prefix:"err BUSY" o)
      then failf "in-flight storm thread %d: unexpected outcome %S" i o)
    outcomes

(* A budgeted query dies with RESOURCE while a concurrent session keeps
   answering, and the budgeted session itself stays usable. *)
let scenario_budget ep _rng =
  let a = connect_ready ep.port and b = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client a; close_client b)
  @@ fun () ->
  ignore (expect_ok a "limit tuples 5");
  let status = expect_err "RESOURCE" a "query path(X, Y)" in
  let ok_sub sub =
    let n = String.length sub and m = String.length status in
    let rec go i = i + n <= m && (String.sub status i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  if not (ok_sub "exceeded") then failf "RESOURCE reply lacks its explanation: %S" status;
  (* the neighbor is untouched *)
  ignore (expect_ok b "query edge(1, X)");
  (* clearing the budget restores the session *)
  ignore (expect_ok a "limit tuples 0");
  ignore (expect_ok a "query edge(1, X)")

(* Kill from a second session; the race is the point — the query either
   finishes or dies KILLED, and both sessions survive either way. *)
let scenario_kill ep rng =
  let a = connect_ready ep.port and b = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client a; close_client b)
  @@ fun () ->
  send a "query path(X, Y)";
  let payload, _ = expect_ok b "ps" in
  (* kill a random active query if ps caught one mid-flight *)
  (match payload with
  | [] -> ()
  | lines ->
    let line = List.nth lines (Random.State.int rng (List.length lines)) in
    let id =
      match split_words line with
      | _txt :: kv :: _ when String.starts_with ~prefix:"id=" kv ->
        int_of_string_opt (String.sub kv 3 (String.length kv - 3))
      | _ -> None
    in
    match id with
    | Some id -> ignore (request b (Printf.sprintf "kill %d" id))
    | None -> failf "unparseable ps line %S" line);
  (match read_reply a with
  | Some (_, status)
    when String.starts_with ~prefix:"ok" status
         || String.starts_with ~prefix:"err KILLED" status
         || String.starts_with ~prefix:"err BUSY" status -> ()
  | Some (_, status) -> failf "killed query: unexpected reply %S" status
  | None -> failf "killed query: connection closed without a reply");
  ignore (expect_ok a "ping");
  ignore (expect_ok b "ping")

(* Operator degrade: mutations refused, reads served, restore recovers. *)
let scenario_operator_degrade ep _rng =
  let c = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  ignore (expect_ok c "degrade chaos drill");
  ep.next_fact <- ep.next_fact + 1;
  let k = 1_000_000 + ep.next_fact in
  ignore (expect_err "READONLY" c (Printf.sprintf "insert pfact(%d, %d)." k k));
  (* degraded still answers reads *)
  ignore (expect_ok c "query edge(1, X)");
  ignore (expect_ok c "stats");
  ignore (expect_ok c "restore");
  ignore (expect_ok c (Printf.sprintf "insert pfact(%d, %d)." k k))

(* Injected storage fault: the failing commit surfaces IOERR and flips
   the store read-only; reads keep working; restore (or the probe, once
   the fault clears) resumes writes. *)
let scenario_fault_degrade ep _rng =
  match ep.inj with
  | None -> ()
  | Some inj ->
    let c = connect_ready ep.port in
    Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
    ep.next_fact <- ep.next_fact + 1;
    let k = 2_000_000 + ep.next_fact in
    D.Faulty.inject_enospc inj 1;
    let _, status = request c (Printf.sprintf "insert pfact(%d, %d)." k k) in
    if not
         (String.starts_with ~prefix:"err IOERR" status
         || String.starts_with ~prefix:"err READONLY" status)
    then failf "faulted insert: expected IOERR or READONLY, got %S" status;
    (* the store may now be degraded: reads still work *)
    ignore (expect_ok c "query edge(2, X)");
    (* operator restore always clears it; the injected fault is spent,
       so the next mutation goes through *)
    ignore (expect_ok c "restore");
    ignore (expect_ok c (Printf.sprintf "insert pfact(%d, %d)." (k + 500_000) k))

(* Settings and introspection sanity inside the chaos. *)
let scenario_introspect ep _rng =
  let c = connect_ready ep.port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  ignore (expect_ok c "stats");
  ignore (expect_ok c "metrics");
  ignore (expect_ok c "events 5");
  ignore (expect_ok c "relations");
  ignore (expect_ok c "timeout 1000");
  ignore (expect_ok c "limit bytes 1048576");
  ignore (expect_ok c "limit bytes 0");
  ignore (expect_err "PROTO" c "limit spoons 3")

(* Kill a shard under a distributed query.  An ephemeral 2-shard
   cluster (two worker servers and a fan-out router, all in-process,
   independent of the epoch's server) answers a transitive-closure
   query, then loses one worker racing another query.  The racing
   reply may be a final ok or a classified err — never garbage or a
   hang — the next fan-out against the lost shard must fail with a
   clean err (UNAVAIL/CLUSTER), and the router itself must keep
   answering.  Full teardown, including the surviving worker's peer
   connections, so the epoch's fd-leak baseline still holds. *)
let dist_chain = 12

let dist_program =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "consult module m_dpath. export dpath(bf). export dpath(ff). \
     dpath(X, Y) :- edge(X, Y). dpath(X, Y) :- dpath(X, Z), edge(Z, Y). end_module. ";
  for i = 1 to dist_chain - 1 do
    Buffer.add_string b (Printf.sprintf "edge(%d, %d). " i (i + 1))
  done;
  Buffer.contents b

let start_shard_server () =
  let db = Coral.create () in
  let srv = Server.start ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let store = Server.store srv in
  let worker =
    Coral_dist.Worker.create ~eng:(Coral.engine db)
      ~commit:(Coral_server.Session.commit store)
      ~locked:(fun f -> Coral_server.Session.locked store f)
      ~budget:(fun () ->
        (Admission.config (Coral_server.Session.admission store)).Admission.max_query_tuples)
  in
  Coral_server.Session.set_dist_handler store (Coral_dist.Worker.handle worker);
  srv, worker

let scenario_kill_shard _ep rng =
  let shards = List.init 2 (fun _ -> start_shard_server ()) in
  let addrs =
    List.map (fun (srv, _) -> Printf.sprintf "127.0.0.1:%d" (Server.port srv)) shards
  in
  let router =
    Coral_dist.Router.start
      ~listen:(`Tcp ("127.0.0.1", 0))
      ~shard_addrs:addrs ~key:1 (Coral.create ())
  in
  Fun.protect
    ~finally:(fun () ->
      Coral_dist.Router.shutdown router;
      List.iter (fun (_, w) -> Coral_dist.Worker.disconnect w) shards;
      List.iter (fun (srv, _) -> Server.shutdown srv) shards)
  @@ fun () ->
  let c = connect_ready (Coral_dist.Router.port router) in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  ignore (expect_ok c dist_program);
  let payload, _ = expect_ok c "query dpath(1, Y)" in
  if List.length payload <> dist_chain - 1 then
    failf "distributed dpath(1, Y): expected %d answers, got %d" (dist_chain - 1)
      (List.length payload);
  let victim, _ = List.nth shards (Random.State.int rng (List.length shards)) in
  let killer = Thread.create (fun () -> Server.shutdown victim) () in
  (* read_reply's check_line already rejects anything unclassified *)
  ignore (request c "query dpath(X, Y)");
  Thread.join killer;
  (* with a member gone, the next fan-out must fail cleanly, not hang *)
  (match request c "query dpath(X, Y)" with
  | _, status when String.starts_with ~prefix:"err " status -> ()
  | _, status -> failf "query against a lost shard: expected err, got %S" status);
  (* ... and the router's own front door stays open *)
  ignore (expect_ok c "ping");
  ignore (expect_ok c "stats")

let scenarios ep =
  [| scenario_normal, 4;
     scenario_garbage, 2;
     scenario_mid_disconnect, 2;
     scenario_oversized, 1;
     scenario_conn_storm, 1;
     scenario_inflight_storm, 1;
     scenario_budget, 2;
     scenario_kill, 2;
     (if ep.inj = None then scenario_operator_degrade else scenario_fault_degrade), 1;
     scenario_operator_degrade, 1;
     scenario_introspect, 1;
     scenario_kill_shard, 1
  |]

let pick_scenario ep rng =
  let table = scenarios ep in
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 table in
  let roll = ref (Random.State.int rng total) in
  let chosen = ref (fst table.(0)) in
  Array.iter
    (fun (s, w) ->
      if !roll >= 0 then chosen := s;
      roll := !roll - w)
    table;
  !chosen

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let epoch_len = 50

let () =
  let iters = ref 1000 in
  let seed = ref (int_of_float (Unix.time ()) land 0xFFFFFF) in
  let quiet = ref false in
  let events_path = ref "" in
  let rec parse_args = function
    | [] -> ()
    | "--iters" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> iters := n
      | _ ->
        prerr_endline "chaostest: --iters expects a positive integer";
        exit 2);
      parse_args rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with
      | Some s -> seed := s
      | None ->
        prerr_endline "chaostest: --seed expects an integer";
        exit 2);
      parse_args rest
    | "--quiet" :: rest ->
      quiet := true;
      parse_args rest
    | "--events" :: path :: rest ->
      events_path := path;
      parse_args rest
    | ("-h" | "--help") :: _ ->
      print_string "usage: chaostest [--iters N] [--seed S] [--quiet] [--events FILE]\n";
      exit 0
    | arg :: _ ->
      Printf.eprintf "chaostest: unknown argument %s\n" arg;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* a JSONL sink for the server's shed/degrade/kill events — on a CI
     failure the file shows what the store was doing at the bad seed *)
  if !events_path <> "" then Coral_obs.Query_log.Events.configure ~path:!events_path ();
  Printf.printf "chaostest: %d iterations, seed %d\n%!" !iters !seed;
  let baseline = fd_count () in
  let failures = ref 0 in
  let fail i fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "FAIL iteration %d (reproduce: chaostest --seed %d --iters %d): %s\n%!" i
          !seed (i + 1) m)
      fmt
  in
  let epoch = ref None in
  let i = ref 0 in
  while !i < !iters do
    let first_of_epoch = !i mod epoch_len = 0 in
    if first_of_epoch then begin
      (match !epoch with Some ep -> stop_epoch ep | None -> ());
      (* odd epochs get a persistent database behind a fault injector *)
      epoch := Some (start_epoch ~persistent:(!i / epoch_len mod 2 = 1) ~tag:(!i / epoch_len))
    end;
    let ep = Option.get !epoch in
    let rng = Random.State.make [| !seed; !i |] in
    (match (pick_scenario ep rng) ep rng with
    | () -> ()
    | exception Check_failed msg -> fail !i "%s" msg
    | exception e -> fail !i "unexpected %s" (Printexc.to_string e));
    (* end of epoch: liveness, then teardown and the fd-leak check *)
    let last_of_epoch = (!i + 1) mod epoch_len = 0 || !i + 1 = !iters in
    if last_of_epoch then begin
      (match
         let c = connect_ready ep.port in
         Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
         expect_ok c "ping"
       with
      | _ -> ()
      | exception Check_failed msg -> fail !i "accept loop dead at epoch end: %s" msg
      | exception e -> fail !i "accept loop dead at epoch end: %s" (Printexc.to_string e));
      stop_epoch ep;
      epoch := None;
      match baseline with
      | None -> ()
      | Some base ->
        (* connection threads unwind asynchronously after shutdown;
           give them a moment before declaring a leak *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec settle () =
          match fd_count () with
          | Some n when n <= base + 2 -> ()
          | _ when Unix.gettimeofday () < deadline ->
            Thread.delay 0.02;
            settle ()
          | Some n -> fail !i "fd leak: %d descriptors open, baseline %d" n base
          | None -> ()
        in
        settle ()
    end;
    if (not !quiet) && (!i + 1) mod 100 = 0 then
      Printf.printf "chaostest: %d/%d iterations, %d failure(s)\n%!" (!i + 1) !iters !failures;
    incr i
  done;
  (match !epoch with Some ep -> stop_epoch ep | None -> ());
  if !failures = 0 then begin
    Printf.printf
      "chaostest: OK — %d iterations; accept loop alive, all replies well-formed, no fd leak (seed %d)\n%!"
      !iters !seed;
    exit 0
  end
  else begin
    Printf.printf "chaostest: %d failure(s) out of %d iterations (seed %d)\n%!" !failures !iters
      !seed;
    exit 1
  end
