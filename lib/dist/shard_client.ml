(* A connection to one worker shard, speaking the ordinary line
   protocol.

   Reconnection policy: retry with linear backoff at CONNECT time
   only.  A request that fails mid-flight raises [Down] without any
   resend — the worker may have applied the request before the link
   died (a resent delta batch would then be received twice, breaking
   the coordinator's shipped-equals-received balance check), so the
   only safe recovery is at a higher level: the router marks the
   cluster state dirty and reruns the fixpoint from [dreset].

   Each client is mutexed: the coordinator's barrier threads and a
   query fan-out thread must not interleave request/reply pairs on one
   socket. *)

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

(* Read reply lines until the ok/err status line. *)
let read_reply t c =
  let rec go acc =
    match Protocol.read_line c.rd with
    | None -> raise (Down (Printf.sprintf "%s closed the connection mid-reply" t.addr))
    | Some line ->
      if Protocol.is_status line then List.rev acc, line else go (line :: acc)
  in
  go []

(* One request/reply exchange.  [payload] is sent verbatim after the
   command line (for dprog#/delta#/consult# framing).  Any IO failure
   poisons the connection: close it, raise [Down], never resend. *)
let request t ?payload cmd =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let c = ensure_conn t in
      try
        Out_channel.output_string c.oc cmd;
        Out_channel.output_char c.oc '\n';
        (match payload with
        | Some p -> Out_channel.output_string c.oc p
        | None -> ());
        Out_channel.flush c.oc;
        read_reply t c
      with
      | Down _ as e ->
        close_conn c;
        t.conn <- None;
        raise e
      | Sys_error m | Failure m ->
        close_conn c;
        t.conn <- None;
        raise (Down (Printf.sprintf "%s: %s" t.addr m))
      | Unix.Unix_error (e, _, _) ->
        close_conn c;
        t.conn <- None;
        raise (Down (Printf.sprintf "%s: %s" t.addr (Unix.error_message e)))
      | End_of_file | Protocol.Line_too_long ->
        close_conn c;
        t.conn <- None;
        raise (Down (Printf.sprintf "%s: connection lost" t.addr)))

(* One-shot exchange on a fresh connection: connect (single attempt),
   request, read the reply, close.  The observability scrapes (metrics
   federation, trace pulls) use this instead of the cluster's pooled
   clients so a slow scrape can never hold the fixpoint's connection
   mutex — and a down worker answers [Error] immediately rather than
   sitting through the pooled client's reconnect backoff. *)
let fetch ?payload addr cmd =
  match connect_once addr with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" addr (Unix.error_message e))
  | c ->
    Fun.protect
      ~finally:(fun () -> close_conn c)
      (fun () ->
        try
          Out_channel.output_string c.oc cmd;
          Out_channel.output_char c.oc '\n';
          (match payload with
          | Some p -> Out_channel.output_string c.oc p
          | None -> ());
          Out_channel.flush c.oc;
          let rec go acc =
            match Protocol.read_line c.rd with
            | None -> Error (Printf.sprintf "%s closed the connection mid-reply" addr)
            | Some line ->
              if Protocol.is_status line then Ok (List.rev acc, line) else go (line :: acc)
          in
          go []
        with
        | Sys_error m | Failure m -> Error (Printf.sprintf "%s: %s" addr m)
        | Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s: %s" addr (Unix.error_message e))
        | End_of_file | Protocol.Line_too_long ->
          Error (Printf.sprintf "%s: connection lost" addr))

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
