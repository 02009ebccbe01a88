type limit_kind = Tuples | Bytes

type request =
  | Hello
  | Ping
  | Set_timeout of int
  | Set_limit of limit_kind * int
  | Degrade of string
  | Restore
  | Query of string
  | Consult of string
  | Insert of string
  | Retract of string  (** remove stored facts; DRed maintenance applies *)
  | Explain of string
  | Explain_analyze of string
  | Why of string
  | Stats
  | Metrics
  | Relations
  | Modules
  | Ps
  | Kill of int
  | Events of int
  (* cluster control plane (a worker under a coral_router front end) *)
  | Shard of { index : int; count : int; key : int; peers : string list }
  | Dprog of string  (** distributed program text (rules to evaluate locally) *)
  | Delta of int * string
      (** the sender's round and a binary delta batch shipped from a peer shard (Delta_codec) *)
  | Edb of string  (** a binary batch of new base facts from the router (Delta_codec) *)
  | Barrier of { round : int; final : bool }  (** barrier step <round> [final] *)
  | Dreset
  (* observability plane *)
  | Spans of string  (** span slice for one trace id, as JSON lines *)
  | Dstat  (** per-round stats of the last distributed fixpoint *)
  | Trace of string  (** stitched Chrome trace for a trace id (or "last") *)
  | Quit

type error_code =
  | Parse
  | Eval
  | Timeout
  | Proto
  | Too_big
  | Ioerr
  | Killed
  | Busy
  | Resource
  | Readonly
  | Unavail
  | Cluster

type payload =
  | Ans of string
  | Txt of string
  | Raw of string

type response = {
  payload : payload list;
  status : (string, error_code * string) result;
}

let max_line_bytes = 64 * 1024
let max_payload_bytes = 1024 * 1024

let code_string = function
  | Parse -> "PARSE"
  | Eval -> "EVAL"
  | Timeout -> "TIMEOUT"
  | Proto -> "PROTO"
  | Too_big -> "TOOBIG"
  | Ioerr -> "IOERR"
  | Killed -> "KILLED"
  | Busy -> "BUSY"
  | Resource -> "RESOURCE"
  | Readonly -> "READONLY"
  | Unavail -> "UNAVAIL"
  | Cluster -> "CLUSTER"

(* Inverse of [code_string]; the router uses it to re-raise a worker's
   error under its original code instead of wrapping everything in
   CLUSTER. *)
let code_of_string = function
  | "PARSE" -> Some Parse
  | "EVAL" -> Some Eval
  | "TIMEOUT" -> Some Timeout
  | "PROTO" -> Some Proto
  | "TOOBIG" -> Some Too_big
  | "IOERR" -> Some Ioerr
  | "KILLED" -> Some Killed
  | "BUSY" -> Some Busy
  | "RESOURCE" -> Some Resource
  | "READONLY" -> Some Readonly
  | "UNAVAIL" -> Some Unavail
  | "CLUSTER" -> Some Cluster
  | _ -> None

(* Most rows and details hold no control character: hand those back
   as they are, and copy only the rest. *)
let one_line s =
  if String.for_all (fun c -> Char.code c >= 32) s then s
  else begin
    let b = Buffer.create (String.length s) in
    let pending_sep = ref false in
    String.iter
      (fun c ->
        match c with
        | '\n' -> if Buffer.length b > 0 then pending_sep := true
        | '\r' -> ()
        | c ->
          let c = if Char.code c < 32 then ' ' else c in
          if !pending_sep then begin
            pending_sep := false;
            Buffer.add_string b "; "
          end;
          Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* Split a request line into command and argument at the first run of
   spaces; the argument keeps its internal spacing. *)
let split_cmd line =
  match String.index_opt line ' ' with
  | None -> line, ""
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    String.sub line 0 i, String.trim rest

(* Commands that may carry a trailing " tid=<id>" trace-context token
   on the wire.  The list is a whitelist so free-text arguments
   (consult programs, insert facts) can never be mangled by the
   stripper; [consult#] is safe — its free text travels in the framed
   payload, never on the command line. *)
let tid_commands =
  [ "query"; "shard"; "consult#"; "dprog#"; "delta#"; "edb#"; "barrier"; "dreset" ]

let valid_tid s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true | _ -> false)
       s

(* [split_tid line] strips a trailing trace-id token from a request
   line, returning the stripped line and the id.  Lines without one
   (or with a malformed one) come back untouched — old clients and
   plain servers interoperate unchanged. *)
let split_tid line =
  let trimmed = String.trim line in
  let cmd, _ = split_cmd trimmed in
  if not (List.mem cmd tid_commands) then line, None
  else begin
    match String.rindex_opt trimmed ' ' with
    | None -> line, None
    | Some i ->
      let last = String.sub trimmed (i + 1) (String.length trimmed - i - 1) in
      if String.starts_with ~prefix:"tid=" last then begin
        let id = String.sub last 4 (String.length last - 4) in
        if valid_tid id then String.trim (String.sub trimmed 0 i), Some id
        else line, None
      end
      else line, None
  end

let parse_request line =
  (* Drop any trace token here too, so callers that never look at the
     trace context (in-process harnesses, old loops) still parse
     "dprog# 123 tid=x" correctly. *)
  let line, _ = split_tid line in
  let line = String.trim line in
  let cmd, arg = split_cmd line in
  let need_arg k = if arg = "" then `Bad (cmd ^ " expects an argument") else k () in
  let no_arg req = if arg = "" then `Req req else `Bad (cmd ^ " takes no argument") in
  match cmd with
  | "" -> `Bad "empty request"
  | "hello" -> no_arg Hello
  | "ping" -> no_arg Ping
  | "timeout" ->
    need_arg (fun () ->
        match int_of_string_opt arg with
        | Some ms when ms >= 0 -> `Req (Set_timeout ms)
        | _ -> `Bad "timeout expects a non-negative integer (milliseconds)")
  | "limit" ->
    need_arg (fun () ->
        let kind, n =
          match String.index_opt arg ' ' with
          | None -> arg, None
          | Some i ->
            ( String.sub arg 0 i,
              int_of_string_opt
                (String.trim (String.sub arg (i + 1) (String.length arg - i - 1))) )
        in
        match kind, n with
        | "tuples", Some n when n >= 0 -> `Req (Set_limit (Tuples, n))
        | "bytes", Some n when n >= 0 -> `Req (Set_limit (Bytes, n))
        | ("tuples" | "bytes"), _ ->
          `Bad "limit expects a non-negative integer (0 = none)"
        | _ -> `Bad "limit expects: limit tuples <n> | limit bytes <n>")
  | "degrade" ->
    (* optional reason; recorded and echoed to rejected writers *)
    `Req (Degrade (if arg = "" then "operator request" else arg))
  | "restore" -> no_arg Restore
  | "query" -> need_arg (fun () -> `Req (Query arg))
  | "consult" -> need_arg (fun () -> `Req (Consult arg))
  | "consult#" ->
    need_arg (fun () ->
        match int_of_string_opt arg with
        | Some n when n >= 0 -> `Consult_payload n
        | _ -> `Bad "consult# expects a byte count")
  | "insert" -> need_arg (fun () -> `Req (Insert arg))
  | "retract" -> need_arg (fun () -> `Req (Retract arg))
  | "explain" ->
    need_arg (fun () ->
        (* "explain analyze <query>": run and annotate with actuals *)
        if String.starts_with ~prefix:"analyze " arg then begin
          let q = String.trim (String.sub arg 8 (String.length arg - 8)) in
          if q = "" then `Bad "explain analyze expects a query"
          else `Req (Explain_analyze q)
        end
        else if arg = "analyze" then `Bad "explain analyze expects a query"
        else `Req (Explain arg))
  | "why" -> need_arg (fun () -> `Req (Why arg))
  | "stats" -> no_arg Stats
  | "metrics" -> no_arg Metrics
  | "relations" -> no_arg Relations
  | "modules" -> no_arg Modules
  | "ps" -> no_arg Ps
  | "kill" ->
    need_arg (fun () ->
        match int_of_string_opt arg with
        | Some qid when qid > 0 -> `Req (Kill qid)
        | _ -> `Bad "kill expects a query id (see ps)")
  | "events" ->
    if arg = "" then `Req (Events 20)
    else begin
      match int_of_string_opt arg with
      | Some n when n > 0 -> `Req (Events n)
      | _ -> `Bad "events expects a positive count"
    end
  | "quit" -> no_arg Quit
  (* cluster control plane: shard configuration, the shipped program,
     delta batches and the fixpoint's round barrier *)
  | "shard" ->
    need_arg (fun () ->
        match String.split_on_char ' ' arg |> List.filter (fun s -> s <> "") with
        | index :: count :: key :: peers -> begin
          match int_of_string_opt index, int_of_string_opt count, int_of_string_opt key with
          | Some i, Some n, Some k
            when n >= 1 && i >= 0 && i < n && k >= 0 && List.length peers = n ->
            `Req (Shard { index = i; count = n; key = k; peers })
          | _ ->
            `Bad
              "shard expects: shard <index> <count> <key-arg> <addr0> ... \
               <addrN-1> (0 <= index < count, one address per shard)"
        end
        | _ -> `Bad "shard expects: shard <index> <count> <key-arg> <addr...>")
  | "dprog#" ->
    need_arg (fun () ->
        match int_of_string_opt arg with
        | Some n when n >= 0 -> `Dprog_payload n
        | _ -> `Bad "dprog# expects a byte count")
  | "delta#" ->
    need_arg (fun () ->
        match String.split_on_char ' ' arg |> List.filter (fun s -> s <> "") with
        | [ n; round ] -> begin
          match int_of_string_opt n, int_of_string_opt round with
          | Some n, Some r when n >= 0 && r >= 1 -> `Delta_payload (n, r)
          | _ -> `Bad "delta# expects a byte count and a round"
        end
        | _ -> `Bad "delta# expects a byte count and a round")
  | "edb#" ->
    need_arg (fun () ->
        match int_of_string_opt arg with
        | Some n when n >= 0 -> `Edb_payload n
        | _ -> `Bad "edb# expects a byte count")
  | "barrier" ->
    need_arg (fun () ->
        let usage = "barrier expects: barrier step <round> [final]" in
        match String.split_on_char ' ' arg |> List.filter (fun s -> s <> "") with
        | "step" :: round :: rest -> begin
          match int_of_string_opt round, rest with
          | Some r, ([] | [ "final" ]) when r >= 1 ->
            `Req (Barrier { round = r; final = rest <> [] })
          | _ -> `Bad usage
        end
        | _ -> `Bad usage)
  | "dreset" -> no_arg Dreset
  (* observability plane *)
  | "spans" ->
    need_arg (fun () ->
        if valid_tid arg then `Req (Spans arg) else `Bad "spans expects a trace id")
  | "dstat" -> no_arg Dstat
  | "trace" ->
    need_arg (fun () ->
        if arg = "last" || valid_tid arg then `Req (Trace arg)
        else `Bad "trace expects a trace id or 'last'")
  | _ -> `Bad (Printf.sprintf "unknown command %S" cmd)

let ok ?(detail = "") payload = { payload; status = Ok detail }
let err code msg = { payload = []; status = Error (code, one_line msg) }

(* Overload shedding: [err BUSY <retry-after-ms> <reason>] — the first
   token of the message is machine-readable backoff advice. *)
let busy ~retry_after_ms msg =
  err Busy (Printf.sprintf "%d %s" (max 0 retry_after_ms) msg)

let render buf r =
  List.iter
    (function
      | Ans s ->
        Buffer.add_string buf "ans ";
        Buffer.add_string buf (one_line s);
        Buffer.add_char buf '\n'
      | Txt s ->
        Buffer.add_string buf "txt ";
        Buffer.add_string buf (one_line s);
        Buffer.add_char buf '\n'
      | Raw block -> Buffer.add_string buf block)
    r.payload;
  (match r.status with
  | Ok "" -> Buffer.add_string buf "ok"
  | Ok detail -> Buffer.add_string buf ("ok " ^ one_line detail)
  | Error (code, msg) ->
    Buffer.add_string buf (Printf.sprintf "err %s %s" (code_string code) (one_line msg)));
  Buffer.add_char buf '\n'

let is_status line =
  line = "ok"
  || String.starts_with ~prefix:"ok " line
  || String.starts_with ~prefix:"err " line

(* ------------------------------------------------------------------ *)
(* Socket framing                                                     *)
(* ------------------------------------------------------------------ *)

(* Shared by the server's connection loop and the shard client — one
   definition of "a protocol line" on both sides of every socket. *)

exception Line_too_long

(* A buffered reader over a socket.  It reads the descriptor directly,
   in blocks, and cuts lines out of its buffer: a channel would take
   its lock once per byte read.  The buffer starts small and doubles
   while a line outgrows it, up to twice the cap: a refused line is
   then read as far as a channel's 64 KiB blocks would have read it,
   so closing after [err TOOBIG] does not leave the peer's trailing
   bytes unread (which would reset the connection under the reply). *)
type reader = {
  rfd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;  (* first unread byte *)
  mutable rlen : int;  (* end of the buffered bytes *)
}

let reader fd = { rfd = fd; rbuf = Bytes.create 4096; rpos = 0; rlen = 0 }

let rec read_fd fd buf off len =
  try Unix.read fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> read_fd fd buf off len

(* Move the unread bytes to the front, grow a full buffer, then read
   more after them; the count read, 0 at EOF. *)
let refill r =
  if r.rpos > 0 then begin
    Bytes.blit r.rbuf r.rpos r.rbuf 0 (r.rlen - r.rpos);
    r.rlen <- r.rlen - r.rpos;
    r.rpos <- 0
  end;
  if r.rlen = Bytes.length r.rbuf then begin
    let grown = Bytes.create (min (2 * (max_line_bytes + 1)) (2 * r.rlen)) in
    Bytes.blit r.rbuf 0 grown 0 r.rlen;
    r.rbuf <- grown
  end;
  let n = read_fd r.rfd r.rbuf r.rlen (Bytes.length r.rbuf - r.rlen) in
  r.rlen <- r.rlen + n;
  n

(* The line in [rbuf] from [rpos] up to [stop] (exclusive), without a
   trailing CR; consumes through [next]. *)
let cut r stop next =
  let stop = if stop > r.rpos && Bytes.get r.rbuf (stop - 1) = '\r' then stop - 1 else stop in
  let line = Bytes.sub_string r.rbuf r.rpos (stop - r.rpos) in
  r.rpos <- next;
  line

let rec find_lf r i =
  if i >= r.rlen || Bytes.unsafe_get r.rbuf i = '\n' then i else find_lf r (i + 1)

let read_line r =
  let rec go from =
    let i = find_lf r from in
    if i < r.rlen then
      if i - r.rpos > max_line_bytes then raise Line_too_long else Some (cut r i (i + 1))
    else if r.rlen - r.rpos > max_line_bytes then raise Line_too_long
    else begin
      let scanned = r.rlen - r.rpos in
      if refill r > 0 then go scanned
      else if r.rlen = 0 then None
      else Some (cut r r.rlen r.rlen)  (* EOF mid-line *)
    end
  in
  go r.rpos

(* Does the buffered line from [rpos] to [stop] start with [p]? *)
let line_has_prefix r stop p =
  let n = String.length p in
  let rec eq k = k = n || (Bytes.unsafe_get r.rbuf (r.rpos + k) = p.[k] && eq (k + 1)) in
  stop - r.rpos >= n && eq 0

let take_reply r block =
  let rec go () =
    let i = find_lf r r.rpos in
    if i - r.rpos > max_line_bytes then raise Line_too_long
    else if i >= r.rlen then None
    else begin
      let stop = if i > r.rpos && Bytes.get r.rbuf (i - 1) = '\r' then i - 1 else i in
      if (line_has_prefix r stop "ok" && (stop - r.rpos = 2 || Bytes.get r.rbuf (r.rpos + 2) = ' '))
         || line_has_prefix r stop "err "
      then Some (cut r i (i + 1))
      else begin
        Buffer.add_subbytes block r.rbuf r.rpos (stop - r.rpos);
        Buffer.add_char block '\n';
        r.rpos <- i + 1;
        go ()
      end
    end
  in
  go ()

let fill r = refill r > 0

let read_exact r n =
  let out = Bytes.create n in
  let have = min n (r.rlen - r.rpos) in
  Bytes.blit r.rbuf r.rpos out 0 have;
  r.rpos <- r.rpos + have;
  let rec fill off =
    if off < n then
      match read_fd r.rfd out off (n - off) with
      | 0 -> raise End_of_file
      | k -> fill (off + k)
  in
  fill have;
  Bytes.unsafe_to_string out

let write_response oc response =
  let buf = Buffer.create 256 in
  render buf response;
  Out_channel.output_string oc (Buffer.contents buf);
  Out_channel.flush oc;
  Buffer.length buf
