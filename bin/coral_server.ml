(* The CORAL query server.

   Usage: coral_server [options] [file.coral ...]
     --port N          listen on TCP 127.0.0.1:N (default 4240; 0 = ephemeral)
     --host H          bind host (default 127.0.0.1)
     --socket P        listen on a Unix-domain socket at path P instead
     --data DIR        open the persistent database stored under DIR
     --persist SPEC    serve a persistent relation: name/arity[:col,col...]
                       (cols are 0-based indexed argument positions;
                       requires --data; may be repeated)
     --metrics-port N  also serve Prometheus metrics over HTTP on
                       127.0.0.1:N (0 = ephemeral; off by default)
     --workers N       parallel semi-naive evaluation on N domains
                       (default: CORAL_WORKERS or 1 = sequential)
     --event-log FILE  append structured JSONL events (query completions,
                       consults, inserts, recovery) to FILE, rotating to
                       FILE.1 at the size cap
     --event-log-max-bytes N   rotation threshold (default 4 MiB)
     --slow-query-ms N flag queries slower than N ms in the event log
                       and mirror a one-line warning to stderr
     --max-sessions N  cap concurrent connections: a connection past the
                       cap is shed with one err BUSY line (0 = unlimited)
     --max-inflight N  cap concurrently evaluating requests: past the cap
                       a request briefly waits for a slot, then gets
                       err BUSY <retry-after-ms> (0 = unlimited)
     --max-query-tuples N  per-query derived-tuple budget: a query past
                       it is cancelled with err RESOURCE (0 = unlimited;
                       sessions can tighten it with "limit tuples N")
     --worker          enable the cluster control plane (shard, dprog#,
                       delta#, barrier, dreset) so a coral_router can
                       claim this process as a shard.  Off by default:
                       dreset clears the whole database, so only an
                       operator who runs a process AS a worker should
                       expose it
     --quiet           do not print the listening banner

   The given program files are consulted into the shared engine before
   serving.  SIGINT/SIGTERM shut the server down gracefully: the
   listening socket closes and every open persistent database is
   committed before the process exits, so an operator's Ctrl-C never
   loses durable data.  Protocol: see README.md ("The server
   protocol") — one request per line (query, consult, insert, explain,
   why, stats, timeout, ...), payload lines prefixed ans/txt, one
   ok/err status line per reply. *)

let parse_persist spec =
  (* name/arity[:col,col...] *)
  let body, cols =
    match String.index_opt spec ':' with
    | None -> spec, []
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1)
        |> String.split_on_char ','
        |> List.filter_map int_of_string_opt )
  in
  match String.index_opt body '/' with
  | Some i -> begin
    let name = String.sub body 0 i in
    match int_of_string_opt (String.sub body (i + 1) (String.length body - i - 1)) with
    | Some arity when arity > 0 && name <> "" -> Some (name, arity, cols)
    | _ -> None
  end
  | None -> None

let () =
  let host = ref "127.0.0.1" in
  let port = ref 4240 in
  let socket = ref "" in
  let data_dir = ref "" in
  let persists = ref [] in
  let metrics_port = ref (-1) in
  let workers = ref 0 in
  let event_log = ref "" in
  let event_log_max = ref 0 in
  let slow_ms = ref 0 in
  let max_sessions = ref 0 in
  let max_inflight = ref 0 in
  let max_query_tuples = ref 0 in
  let worker_mode = ref false in
  let no_maintain = ref false in
  let quiet = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--port" :: p :: rest ->
      (match int_of_string_opt p with
      | Some p when p >= 0 -> port := p
      | _ ->
        prerr_endline "coral_server: --port expects a port number";
        exit 2);
      parse_args rest
    | "--host" :: h :: rest ->
      host := h;
      parse_args rest
    | "--socket" :: p :: rest ->
      socket := p;
      parse_args rest
    | "--data" :: d :: rest ->
      data_dir := d;
      parse_args rest
    | "--persist" :: spec :: rest ->
      (match parse_persist spec with
      | Some p -> persists := p :: !persists
      | None ->
        Printf.eprintf "coral_server: bad --persist spec %S (want name/arity[:col,col...])\n" spec;
        exit 2);
      parse_args rest
    | "--metrics-port" :: p :: rest ->
      (match int_of_string_opt p with
      | Some p when p >= 0 -> metrics_port := p
      | _ ->
        prerr_endline "coral_server: --metrics-port expects a port number";
        exit 2);
      parse_args rest
    | "--workers" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> workers := n
      | _ ->
        prerr_endline "coral_server: --workers expects a worker count >= 1";
        exit 2);
      parse_args rest
    | "--event-log" :: path :: rest ->
      event_log := path;
      parse_args rest
    | "--event-log-max-bytes" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> event_log_max := n
      | _ ->
        prerr_endline "coral_server: --event-log-max-bytes expects a byte count >= 1";
        exit 2);
      parse_args rest
    | "--slow-query-ms" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 -> slow_ms := n
      | _ ->
        prerr_endline "coral_server: --slow-query-ms expects a threshold in milliseconds";
        exit 2);
      parse_args rest
    | "--max-sessions" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 -> max_sessions := n
      | _ ->
        prerr_endline "coral_server: --max-sessions expects a connection count >= 0";
        exit 2);
      parse_args rest
    | "--max-inflight" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 -> max_inflight := n
      | _ ->
        prerr_endline "coral_server: --max-inflight expects a request count >= 0";
        exit 2);
      parse_args rest
    | "--max-query-tuples" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 -> max_query_tuples := n
      | _ ->
        prerr_endline "coral_server: --max-query-tuples expects a tuple count >= 0";
        exit 2);
      parse_args rest
    | "--worker" :: rest ->
      worker_mode := true;
      parse_args rest
    | "--no-maintain" :: rest ->
      no_maintain := true;
      parse_args rest
    | "--quiet" :: rest ->
      quiet := true;
      parse_args rest
    | ("-h" | "--help") :: _ ->
      print_string
        "usage: coral_server [--port N] [--host H] [--socket PATH] [--data DIR]\n\
        \                    [--persist name/arity[:col,col...]] [--metrics-port N]\n\
        \                    [--workers N] [--event-log FILE] [--event-log-max-bytes N]\n\
        \                    [--slow-query-ms N] [--max-sessions N] [--max-inflight N]\n\
        \                    [--max-query-tuples N] [--worker] [--no-maintain] [--quiet]\n\
        \                    [file.coral ...]\n";
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "coral_server: unknown option %s\n" arg;
      exit 2
    | file :: rest ->
      files := file :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !persists <> [] && !data_dir = "" then begin
    prerr_endline "coral_server: --persist requires --data DIR";
    exit 2
  end;
  (* Observability on for the lifetime of the server process: request
     latency histograms, per-phase timings, storage counters, spans. *)
  Coral_obs.Obs.set_enabled true;
  if !event_log <> "" || !slow_ms > 0 then
    Coral_obs.Query_log.Events.configure
      ?path:(if !event_log = "" then None else Some !event_log)
      ?max_bytes:(if !event_log_max > 0 then Some !event_log_max else None)
      ~slow_ms:!slow_ms ();
  let db = Coral.create () in
  (* 0 = not given on the command line; keep the CORAL_WORKERS default *)
  if !workers > 0 then Coral.set_workers db !workers;
  (* Incremental view maintenance is the default serving mode: inserts
     and retracts propagate deltas through the materialized extents
     instead of forcing recompute-on-read.  --no-maintain restores the
     old recompute-on-write behavior (and is what server_bench compares
     against). *)
  if not !no_maintain then Coral.Engine.set_maintenance (Coral.engine db) true;
  let databases =
    if !data_dir = "" then []
    else begin
      match Coral.Database.open_ !data_dir with
      | pdb ->
        List.iter
          (fun (name, arity, indexes) ->
            Coral.install_relation db name
              (Coral.Database.relation pdb ~indexes ~name ~arity ()))
          (List.rev !persists);
        List.iter
          (fun (rel, report) ->
            let open Coral_obs.Json in
            Coral_obs.Query_log.Events.log ~kind:"recovery"
              [ "relation", Str rel;
                "clean", Bool (Coral_storage.Recovery.clean report);
                "replayed_txns", Int report.Coral_storage.Recovery.replayed_txns;
                "replayed_pages", Int report.Coral_storage.Recovery.replayed_pages;
                "torn_tail_bytes", Int report.Coral_storage.Recovery.torn_tail_bytes;
                "corrupt_wal_records", Int report.Coral_storage.Recovery.corrupt_wal_records;
                "quarantined_pages",
                Int (List.length report.Coral_storage.Recovery.quarantined)
              ])
          (Coral.Database.recovery_reports pdb);
        [ pdb ]
      | exception Coral_storage.Recovery.Fatal_corruption msg ->
        Printf.eprintf "coral_server: database %s is unrecoverably corrupt: %s\n" !data_dir msg;
        exit 1
    end
  in
  let listen =
    if !socket <> "" then `Unix !socket else `Tcp (!host, !port)
  in
  let limits =
    { Coral_server.Admission.default with
      Coral_server.Admission.max_sessions = !max_sessions;
      max_inflight = !max_inflight;
      max_query_tuples = !max_query_tuples
    }
  in
  (* Block the shutdown signals in every thread the server spawns; a
     dedicated waiter thread turns them into a graceful shutdown. *)
  let shutdown_signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK shutdown_signals);
  let srv =
    try Coral_server.Server.start ~consult:(List.rev !files) ~databases ~limits ~listen db with
    | Coral.Engine.Engine_error e ->
      Printf.eprintf "coral_server: %s\n" e;
      exit 1
    | Coral_storage.Recovery.Fatal_corruption msg ->
      Printf.eprintf "coral_server: unrecoverable corruption: %s\n" msg;
      exit 1
    | Unix.Unix_error (err, _, _) ->
      Printf.eprintf "coral_server: cannot listen: %s\n" (Unix.error_message err);
      exit 1
  in
  (* The cluster control plane is opt-in: [dreset] wipes every base
     relation and [shard] hands the process to a router, so a server
     never meant to be a cluster member must not answer them.  Without
     [--worker] the session layer refuses all five cluster commands
     with [err CLUSTER]. *)
  let () =
    if !worker_mode then begin
      let store = Coral_server.Server.store srv in
      let worker =
        Coral_dist.Worker.create
          ~eng:(Coral.engine db)
          ~commit:(Coral_server.Session.commit store)
          ~locked:(fun f -> Coral_server.Session.locked store f)
          ~budget:(fun () ->
            (Coral_server.Admission.config (Coral_server.Session.admission store))
              .Coral_server.Admission.max_query_tuples)
      in
      Coral_server.Session.set_dist_handler store (Coral_dist.Worker.handle worker)
    end
  in
  ignore
    (Thread.create
       (fun () ->
         let signal = Thread.wait_signal shutdown_signals in
         if not !quiet then begin
           Printf.printf "coral_server: caught %s, shutting down\n"
             (if signal = Sys.sigterm then "SIGTERM" else "SIGINT");
           flush stdout
         end;
         Coral_server.Server.shutdown srv)
       ());
  let metrics =
    if !metrics_port < 0 then None
    else begin
      let store = Coral_server.Server.store srv in
      match
        Coral_server.Metrics_http.start ~host:!host
          ~health:(fun () ->
            match Coral_server.Session.degraded_reason store with
            | None -> `Ok
            | Some reason -> `Degraded reason)
          ~port:!metrics_port
          (fun () -> Coral_server.Session.metrics_text store)
      with
      | m -> Some m
      | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "coral_server: cannot listen for metrics: %s\n" (Unix.error_message err);
        Coral_server.Server.shutdown srv;
        exit 1
    end
  in
  if not !quiet then begin
    (match listen with
    | `Unix path -> Printf.printf "coral_server listening on %s\n" path
    | `Tcp (host, _) ->
      Printf.printf "coral_server listening on %s:%d\n" host (Coral_server.Server.port srv));
    (match metrics with
    | Some m -> Printf.printf "coral_server metrics on http://%s:%d/metrics\n" !host (Coral_server.Metrics_http.port m)
    | None -> ());
    flush stdout
  end;
  Coral_server.Server.wait srv;
  (match metrics with Some m -> Coral_server.Metrics_http.stop m | None -> ());
  if not !quiet && databases <> [] then begin
    print_endline "coral_server: databases committed";
    flush stdout
  end
