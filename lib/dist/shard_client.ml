(* A connection to one worker shard, speaking the ordinary line
   protocol, and the one exchange primitive every cluster caller uses:
   [request_all] writes each client its commands, then reads the
   replies as they arrive.

   Reconnection policy: retry with linear backoff at CONNECT time
   only.  A request that fails mid-flight fails ([Failed]) without any
   resend — the worker may have applied the request before the link
   died (a resent delta batch would then be received twice, breaking
   the coordinator's shipped-equals-received balance check), so the
   only safe recovery is at a higher level: the router marks the
   cluster state dirty and reruns the fixpoint from [dreset].

   Each client is mutexed for the whole exchange, so two callers can
   never interleave request/reply pairs on one socket.

   Liveness: a reply may take as long as the work behind it (a large
   or skewed fixpoint round), so no exchange is timed out.  A client
   still owed a reply is instead asked [ping] on a fresh connection
   every [probe_after_s]; its server answers that on another thread
   whatever the request is doing.  A ping unanswered within
   [probe_within_s] (a stopped process, a socket nobody writes to)
   fails the request: waiting for that shard could last forever. *)

open Coral_server

exception Down of string

type conn = { fd : Unix.file_descr; rd : Protocol.reader; oc : out_channel }

type t = {
  addr : string;
  attempts : int;
  backoff_ms : int;
  lock : Mutex.t;
  mutable conn : conn option;
}

let create ?(attempts = 5) ?(backoff_ms = 50) addr =
  { addr; attempts = max 1 attempts; backoff_ms = max 0 backoff_ms;
    lock = Mutex.create (); conn = None }

let addr t = t.addr

let sockaddr_of target =
  match String.rindex_opt target ':' with
  | Some i ->
    let host = String.sub target 0 i in
    let port = String.sub target (i + 1) (String.length target - i - 1) in
    (match int_of_string_opt port with
    | Some port -> begin
      match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
      | { Unix.ai_addr; _ } :: _ -> ai_addr
      | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    end
    | None -> Unix.ADDR_UNIX target)
  | None -> Unix.ADDR_UNIX target

let close_conn c =
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let disconnect t =
  Mutex.lock t.lock;
  (match t.conn with Some c -> close_conn c | None -> ());
  t.conn <- None;
  Mutex.unlock t.lock

let connect_once addr =
  let sa = sockaddr_of addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd sa;
    { fd; rd = Protocol.reader fd; oc = Unix.out_channel_of_descr fd }
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* Linear backoff: attempt k sleeps k * backoff_ms before retrying.
   Retrying here is safe — nothing has been sent yet. *)
let ensure_conn t =
  match t.conn with
  | Some c -> c
  | None ->
    let rec go k =
      match connect_once t.addr with
      | c ->
        t.conn <- Some c;
        c
      | exception Unix.Unix_error (e, _, _) ->
        if k >= t.attempts then
          raise
            (Down
               (Printf.sprintf "cannot connect to %s after %d attempts: %s" t.addr
                  t.attempts (Unix.error_message e)))
        else begin
          Thread.delay (float_of_int (k * t.backoff_ms) /. 1000.);
          go (k + 1)
        end
    in
    go 1

type outcome =
  | Replies of (string * string) list * float
  | Failed of string
  | Abandoned

let connected t = t.conn <> None

let poison t c =
  close_conn c;
  t.conn <- None

let io_error t = function
  | Down m -> m
  | Sys_error m | Failure m -> Printf.sprintf "%s: %s" t.addr m
  | Unix.Unix_error (e, _, _) -> Printf.sprintf "%s: %s" t.addr (Unix.error_message e)
  | End_of_file | Protocol.Line_too_long -> Printf.sprintf "%s: connection lost" t.addr
  | e -> raise e

let probe_after_s = 1.0
let probe_within_s = 1.0

(* Whether the server at [addr] answers a [ping] line within
   [probe_within_s], on a connection of its own: any reply line will
   do (a server at capacity sheds it with [busy], and is alive). *)
let answers_ping addr =
  let deadline = Unix.gettimeofday () +. probe_within_s in
  let sa = sockaddr_of addr in
  match Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let rec ready ~read =
      let left = deadline -. Unix.gettimeofday () in
      left > 0.
      &&
      match Unix.select (if read then [ fd ] else []) (if read then [] else [ fd ]) [] left with
      | r, w, _ -> r <> [] || w <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ~read
    in
    let buf = Bytes.create 256 in
    let rec reply_line () =
      ready ~read:true
      &&
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> false
      | n -> Bytes.contains (Bytes.sub buf 0 n) '\n' || reply_line ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> reply_line ()
    in
    (try
       Unix.set_nonblock fd;
       (try Unix.connect fd sa
        with Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
          if not (ready ~read:false && Unix.getsockopt_error fd = None) then raise Exit);
       Unix.single_write_substring fd "ping\n" 0 5 = 5
     with Exit | Unix.Unix_error _ -> false)
    && reply_line ()

(* One client's share of [request_all]: its connection and the replies
   still to read.  [payload] collects the payload lines of the reply
   being read. *)
type wait = {
  slot : int;
  client : t;
  c : conn;
  mutable left : int;
  mutable got : (string * string) list;  (* newest first *)
  payload : Buffer.t;
}

(* Take every reply already buffered; [true] once the last is in. *)
let rec advance w =
  w.left = 0
  ||
  match Protocol.take_reply w.c.rd w.payload with
  | None -> false
  | Some status ->
    w.got <- (Buffer.contents w.payload, status) :: w.got;
    Buffer.clear w.payload;
    w.left <- w.left - 1;
    advance w

(* Write every client its commands first, then read the replies in the
   order they arrive, sleeping in [select] over all the connections: no
   thread per client, and a slow client delays no other's timing.  Any
   IO failure poisons that client's connection and never resends; so
   does a ping the client's server leaves unanswered. *)
let request_all ?abandon reqs =
  let t0 = Unix.gettimeofday () in
  let out = Array.make (Array.length reqs) Abandoned in
  let locked = ref [] in
  Fun.protect ~finally:(fun () -> List.iter (fun t -> Mutex.unlock t.lock) !locked)
  @@ fun () ->
  let waits =
    List.concat
      (List.mapi
         (fun slot (client, cmds) ->
           Mutex.lock client.lock;
           locked := client :: !locked;
           match
             let c = ensure_conn client in
             List.iter
               (fun (cmd, payload) ->
                 Out_channel.output_string c.oc cmd;
                 Out_channel.output_char c.oc '\n';
                 Option.iter (Out_channel.output_string c.oc) payload)
               cmds;
             Out_channel.flush c.oc;
             c
           with
           | c ->
             [ { slot; client; c; left = List.length cmds; got = []; payload = Buffer.create 256 } ]
           | exception e ->
             Option.iter (poison client) client.conn;
             out.(slot) <- Failed (io_error client e);
             [])
         (Array.to_list reqs))
  in
  let fail w e =
    poison w.client w.c;
    out.(w.slot) <- Failed (io_error w.client e)
  in
  let tick = if abandon = None then Float.infinity else 0.02 in
  let next_probe = ref (t0 +. probe_after_s) in
  let rec loop waits =
    let waits =
      List.filter
        (fun w ->
          match advance w with
          | true ->
            out.(w.slot) <- Replies (List.rev w.got, Unix.gettimeofday () -. t0);
            false
          | false -> true
          | exception e ->
            fail w e;
            false)
        waits
    in
    let waits =
      if waits = [] || Unix.gettimeofday () < !next_probe then waits
      else begin
        let live =
          List.filter
            (fun w ->
              answers_ping w.client.addr
              || begin
                fail w
                  (Down
                     (Printf.sprintf "%s: no answer to a ping within %.1fs; shard treated as lost"
                        w.client.addr probe_within_s));
                false
              end)
            waits
        in
        next_probe := Unix.gettimeofday () +. probe_after_s;
        live
      end
    in
    match waits with
    | [] -> ()
    | _ when Option.fold ~none:false ~some:(fun f -> f ()) abandon ->
      (* the replies still owed would desynchronize the connections *)
      List.iter (fun w -> poison w.client w.c) waits
    | _ ->
      let wait = Float.max 0. (Float.min tick (!next_probe -. Unix.gettimeofday ())) in
      let ready =
        match Unix.select (List.map (fun w -> w.c.fd) waits) [] [] wait with
        | r, _, _ -> List.filter (fun w -> List.mem w.c.fd r) waits
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | exception Unix.Unix_error _ ->
          (* no select for this fd (past FD_SETSIZE): block on the first *)
          [ List.hd waits ]
      in
      List.iter
        (fun w ->
          match Protocol.fill w.c.rd with
          | true -> ()
          | false ->
            fail w (Down (Printf.sprintf "%s closed the connection mid-reply" w.client.addr))
          | exception e -> fail w e)
        ready;
      loop (List.filter (fun w -> connected w.client) waits)
  in
  loop waits;
  out

(* One-shot exchange on a fresh connection: connect (single attempt),
   request, read the reply, close.  The observability scrapes (metrics
   federation, trace pulls) use this instead of the cluster's kept
   connections, and a down worker answers [Error] immediately rather
   than sitting through a reconnect backoff. *)
let fetch ?payload addr cmd =
  let t = create ~attempts:1 addr in
  Fun.protect ~finally:(fun () -> disconnect t) @@ fun () ->
  match request_all [| t, [ cmd, payload ] |] with
  | [| Replies ([ (block, status) ], _) |] ->
    Ok (List.filter (fun l -> l <> "") (String.split_on_char '\n' block), status)
  | [| Failed m |] -> Error m
  | _ -> Error (addr ^ ": no reply")

(* ------------------------------------------------------------------ *)
(* Status-line helpers                                                 *)
(* ------------------------------------------------------------------ *)

let status_ok line =
  if line = "ok" then Some ""
  else if String.starts_with ~prefix:"ok " line then
    Some (String.sub line 3 (String.length line - 3))
  else None

let status_err line =
  if String.starts_with ~prefix:"err " line then begin
    let rest = String.sub line 4 (String.length line - 4) in
    match String.index_opt rest ' ' with
    | None -> Some (rest, "")
    | Some i ->
      Some (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
  end
  else None

(* Parse "k1=v1 k2=v2 ..." ok-detail into an assoc list; tokens
   without '=' are ignored. *)
let kv_pairs detail =
  String.split_on_char ' ' detail
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when i > 0 ->
           Some
             ( String.sub tok 0 i,
               String.sub tok (i + 1) (String.length tok - i - 1) )
         | _ -> None)

let kv_int pairs key = Option.bind (List.assoc_opt key pairs) int_of_string_opt
