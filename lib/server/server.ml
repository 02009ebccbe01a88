type listen =
  [ `Tcp of string * int
  | `Unix of string ]

type t = {
  fd : Unix.file_descr;
  bound_port : int;
  sock_path : string option;  (* Unix-domain socket file to unlink on shutdown *)
  sstore : Session.store;
  handle : Session.t -> Protocol.request -> Protocol.response;
  mutable closed : bool;
  mutable accept_thread : Thread.t option;
}

(* A peer that disappears mid-reply must raise EPIPE/ECONNRESET in the
   writing thread, not deliver a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ | Sys_error _ -> ()

let write_response oc response = ignore (Protocol.write_response oc response)

(* One connection: read a request, execute it through the session,
   reply; leave on quit, EOF, oversized input or a socket error.
   Every byte in and out is credited to the store's wire counters. *)
let serve_connection t client =
  let store = t.sstore in
  let rd = Protocol.reader client in
  let oc = Unix.out_channel_of_descr client in
  let session = Session.create ~reserved:true store in
  let write r = Session.note_bytes_written store (Protocol.write_response oc r) in
  let rec loop () =
    match Protocol.read_line rd with
    | None -> ()
    | Some line when String.trim line = "" ->
      Session.note_bytes_read store (String.length line + 1);
      loop ()
    | Some line -> begin
      Session.note_bytes_read store (String.length line + 1);
      (* A trailing tid= token installs the sender's trace context for
         this one request, so spans and events it records are stamped
         with the cluster-wide trace id.  Requests without one run
         with no context (exactly the pre-trace behavior). *)
      let _, wire_tid = Protocol.split_tid line in
      let handle req =
        Coral_obs.Obs.Trace.with_id wire_tid (fun () -> t.handle session req)
      in
      (* byte-counted payload bodies: consult#, and the cluster's
         shipped program, peer delta batches and EDB deltas *)
      let with_payload kind n build =
        if n > Protocol.max_payload_bytes then
          (* refuse without reading: the connection is closed rather
             than draining an oversized body *)
          write
            (Protocol.err Protocol.Too_big
               (Printf.sprintf "%s payload of %d bytes exceeds the %d byte limit" kind n
                  Protocol.max_payload_bytes))
        else begin
          match Protocol.read_exact rd n with
          | text ->
            Session.note_bytes_read store n;
            write (handle (build text));
            loop ()
          | exception End_of_file -> ()
        end
      in
      match Protocol.parse_request line with
      | `Bad msg ->
        write (Protocol.err Protocol.Proto msg);
        loop ()
      | `Consult_payload n -> with_payload "consult#" n (fun t -> Protocol.Consult t)
      | `Dprog_payload n -> with_payload "dprog#" n (fun t -> Protocol.Dprog t)
      | `Delta_payload n -> with_payload "delta#" n (fun t -> Protocol.Delta t)
      | `Edb_payload n -> with_payload "edb#" n (fun t -> Protocol.Edb t)
      | `Req Protocol.Quit -> write (handle Protocol.Quit)
      | `Req req ->
        write (handle req);
        loop ()
    end
  in
  (try loop () with
  | Protocol.Line_too_long ->
    (try
       write
         (Protocol.err Protocol.Too_big
            (Printf.sprintf "request line exceeds %d bytes" Protocol.max_line_bytes))
     with Sys_error _ | Unix.Unix_error _ -> ())
  | Sys_error _ | End_of_file -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    (* client went away mid-reply: just drop the connection *)
    ()
  | Unix.Unix_error _ -> ());
  Session.close session;
  try Unix.close client with Unix.Unix_error _ -> ()

(* Shed one accepted connection: a single best-effort BUSY line, then
   close.  Runs inline on the accept thread — the reply is one short
   line into an empty socket buffer, so it cannot stall the loop. *)
let shed_client t client reason =
  Admission.note_shed (Session.admission t.sstore);
  Coral_obs.Query_log.Events.log ~kind:"shed"
    [ "scope", Coral_obs.Json.Str "connection"; "reason", Coral_obs.Json.Str reason ];
  let retry =
    (Admission.config (Session.admission t.sstore)).Admission.retry_after_ms
  in
  (try
     let oc = Unix.out_channel_of_descr client in
     write_response oc (Protocol.busy ~retry_after_ms:retry reason)
   with Sys_error _ | Unix.Unix_error _ | Out_of_memory -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

(* The accept thread is the server: nothing it can encounter may kill
   it.  Descriptor exhaustion ([EMFILE]/[ENFILE]), a peer that reset
   before accept ([ECONNABORTED]), a failed [Thread.create] — each
   sheds at most the one affected client (with a BUSY line when there
   is a descriptor to write it to) and the loop keeps accepting. *)
let accept_loop t =
  while not t.closed do
    match Unix.accept t.fd with
    | client, _addr -> begin
      let adm = Session.admission t.sstore in
      let cap = (Admission.config adm).Admission.max_sessions in
      (* claim the slot here, atomically: a connect burst outruns the
         spawned threads, so counting inside the session would admit
         every connection in the burst *)
      if not (Session.try_reserve t.sstore ~cap) then
        shed_client t client (Printf.sprintf "server at capacity (%d connections)" cap)
      else begin
        match
          Thread.create
            (fun () ->
              (* last-resort catch: no exception may kill a connection
                 thread in a way that leaks the descriptor or poisons
                 the process *)
              try serve_connection t client
              with _ -> ( try Unix.close client with Unix.Unix_error _ -> ()))
            ()
        with
        | (_ : Thread.t) -> ()
        | exception _ ->
          (* thread spawn failed (resource exhaustion): shed this one
             client, keep accepting *)
          Session.unreserve t.sstore;
          shed_client t client "cannot start a connection thread"
      end
    end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> t.closed <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
      (* the peer vanished between SYN and accept: not our problem *)
      ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* out of descriptors: there is no fd to reply on, so the shed is
         silent; back off briefly so the loop does not spin while the
         connection that exhausted the table drains *)
      Admission.note_shed (Session.admission t.sstore);
      Coral_obs.Query_log.Events.log ~kind:"shed"
        [ "scope", Coral_obs.Json.Str "connection";
          "reason", Coral_obs.Json.Str "file descriptors exhausted"
        ];
      if not t.closed then Thread.delay 0.05
    | exception Unix.Unix_error (_, _, _) | exception Sys_error _ ->
      (* anything else transient (ENOMEM, EPERM from an exotic stack):
         never let it kill the accept thread *)
      if not t.closed then Thread.delay 0.01
  done

let serve ~handle ~listen store =
  ignore_sigpipe ();
  let fd, bound_port =
    match listen with
    | `Tcp (host, port) ->
      let addr =
        match (Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]) with
        | { Unix.ai_addr; _ } :: _ -> ai_addr
        | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      fd, bound
    | `Unix path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd, 0
  in
  let t =
    { fd;
      bound_port;
      sock_path = (match listen with `Unix path -> Some path | `Tcp _ -> None);
      sstore = store;
      handle;
      closed = false;
      accept_thread = None
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let start ?(consult = []) ?(databases = []) ?limits ~listen db =
  List.iter (fun file -> Coral.consult_file db file) consult;
  serve ~handle:Session.handle ~listen (Session.make_store ~databases ?limits db)

let port t = t.bound_port
let store t = t.sstore

let wait t =
  match t.accept_thread with
  | Some th -> Thread.join th
  | None -> ()

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    wait t;
    (* a Unix-domain socket leaves its file behind; remove it so a
       restart does not depend on the pre-bind cleanup *)
    (match t.sock_path with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    Session.close_databases t.sstore
  end
