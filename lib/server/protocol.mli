(** The serving-layer wire protocol: line-oriented text framing.

    CORAL as described in the paper is a single-user interactive
    system; the serving layer turns it into a queryable service.  The
    protocol is deliberately minimal — one request per LF-terminated
    line, one status line per reply — so that a session can be driven
    by hand over [nc]/telnet, by the REPL's [--connect] mode, or by
    any scripting language.

    {2 Requests}

    {v
    hello                      protocol handshake
    ping                       liveness probe
    timeout <ms>               per-request deadline for this session (0 = none)
    query <text>               evaluate a query, e.g.  query path(1, Y)
    consult <text>             load single-line program text
    consult# <nbytes>          load <nbytes> of raw program text that follow
    insert <facts>             insert base facts, e.g.  insert edge(1, 2).
    explain <literal>          the optimizer's rewritten program
    explain analyze <literal>  run the query; rewritten program annotated
                               with per-rule counts and timings
    why <literal>              derivation trees for the answers
    stats                      server + engine statistics
    metrics                    Prometheus text exposition of all metrics
    relations                  base relations and cardinalities
    modules                    loaded modules
    limit tuples <n>           per-session derived-tuple budget (0 = none)
    limit bytes <n>            per-session bytes-estimate budget (0 = none)
    ps                         active queries with live progress and age
    kill <id>                  cooperatively cancel the active query <id>
    events [n]                 tail the newest n (default 20) event-log entries
    degrade [reason]           operator: flip the store read-only (mutations
                               answer err READONLY until restore)
    restore                    operator: clear degraded mode
    quit                       close the session
    v}

    Cluster control plane (sent by a [coral_router] front end to its
    [coral_server] workers; see DESIGN.md §13):

    {v
    shard <i> <n> <key> <addr...>  configure this worker as shard i of n,
                                   partitioned on argument <key>, with one
                                   peer address per shard
    dprog# <nbytes>                the distributed program (rules) follows
    delta# <nbytes> <round>        a binary delta batch a peer shard
                                   derived in <round>
    edb# <nbytes>                  a binary batch of base facts: before
                                   the closure is built they load the
                                   replica; after a fixpoint the next
                                   fixpoint's round 1 runs only the
                                   rules they activate
    barrier step <round> [final]   absorb the delta batches of earlier
                                   rounds, derive to a local fixpoint and
                                   ship non-local tuples to their owners;
                                   [final] marks the quiescent round, which
                                   publishes the closure
    dreset                         drop distributed derived state
    v}

    Observability plane (see DESIGN.md §15):

    {v
    spans <tid>                    span-ring slice stamped with trace id
                                   <tid>, one JSON object per txt line
    dstat                          per-round stats of the last distributed
                                   fixpoint (router; workers answer CLUSTER)
    trace <tid>|last               stitched Chrome trace_event JSON for a
                                   trace id, one chunk per txt line
    v}

    [query] and the cluster control-plane commands accept an optional
    trailing [tid=<id>] token carrying the caller's trace context.
    Servers that predate it (or [parse_request] callers that never
    look) strip and ignore it, so the extension is invisible to old
    deployments; a worker adopts the id for the request's spans and
    events, which is what makes cross-process trace stitching work.

    [ps], [kill], [events], [degrade] and [restore] are served without
    the store lock, so they work from any connection while another
    connection's query is evaluating.

    {2 Replies}

    Zero or more payload lines followed by exactly one status line:

    {v
    ans <bindings>             one per query answer ("X = 1, Y = 2" / "true")
    txt <line>                 one per report line (stats, explain, why, ...)
    ok [detail]                success
    err <CODE> <message>       failure; the session stays usable
    v}

    Error codes: [PARSE] (malformed CORAL text), [EVAL] (runtime
    evaluation error), [TIMEOUT] (request deadline exceeded), [PROTO]
    (malformed request line), [TOOBIG] (request exceeds the size
    limits; the server closes the connection), [IOERR] (a storage
    fault — disk I/O error, checksum mismatch, quarantined page — the
    request failed but the session stays usable), [KILLED] (an
    operator cancelled this request via [kill]; the session stays
    usable), [BUSY] (the server is at its admission cap and shed this
    request; the first message token is a suggested retry delay in
    milliseconds), [RESOURCE] (the query exceeded its derived-tuple or
    bytes-estimate budget; the session stays usable), [READONLY] (the
    store is degraded — by an operator or a storage fault — and
    refuses mutations; reads keep working), [UNAVAIL] (a cluster
    shard is unreachable; the router stays up and the query can be
    retried), [CLUSTER] (a cluster configuration or coordination
    error — e.g. a dist command on a server that is not a worker). *)

type limit_kind = Tuples | Bytes

type request =
  | Hello
  | Ping
  | Set_timeout of int  (** milliseconds; 0 disables *)
  | Set_limit of limit_kind * int  (** per-session budget; 0 disables *)
  | Degrade of string  (** operator: force read-only, with a reason *)
  | Restore  (** operator: clear degraded mode *)
  | Query of string
  | Consult of string  (** program text *)
  | Insert of string  (** fact items *)
  | Retract of string  (** fact items to remove (DRed maintenance) *)
  | Explain of string
  | Explain_analyze of string
  | Why of string
  | Stats
  | Metrics
  | Relations
  | Modules
  | Ps
  | Kill of int  (** query id from [ps] *)
  | Events of int  (** newest n event-log entries *)
  | Shard of { index : int; count : int; key : int; peers : string list }
      (** configure this server as shard [index] of [count], hash
          partitioned on argument [key]; [peers] has one address per
          shard (entry [index] is this worker itself) *)
  | Dprog of string  (** the distributed program: rule text to run locally *)
  | Delta of int * string
      (** a binary delta batch (Delta_codec) a peer shard derived in the
          given round; the receiver absorbs it at its next round's step *)
  | Edb of string
      (** a binary batch of base facts the router inserted (Delta_codec):
          added to the replicated base relations, and the seed of the
          next fixpoint's first round *)
  | Barrier of { round : int; final : bool }
      (** one round of the distributed fixpoint: absorb the batches of
          earlier rounds, derive, ship; [final] is the quiescent round,
          which also publishes the worker's closure *)
  | Dreset  (** drop distributed derived state (before a fixpoint rerun) *)
  | Spans of string
      (** ship the span-ring slice stamped with this trace id, one
          single-line JSON object per [txt] line *)
  | Dstat  (** per-round statistics of the last distributed fixpoint *)
  | Trace of string
      (** stitched Chrome trace_event JSON for a trace id ([last] =
          the router's most recent distributed query) *)
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
  | Txt of string  (** a report line *)
  | Raw of string
      (** complete, LF-terminated reply lines: a query's answers
          printed straight into one block, or relayed as another server
          sent them (a router's fan-out) *)

type response = {
  payload : payload list;
  status : (string, error_code * string) result;  (** [Ok detail] / [Error (code, msg)] *)
}

val max_line_bytes : int
(** Longest accepted request line (64 KiB). *)

val max_payload_bytes : int
(** Largest accepted [consult#] payload (1 MiB). *)

val parse_request :
  string ->
  [ `Req of request
  | `Consult_payload of int
  | `Dprog_payload of int
  | `Delta_payload of int * int
  | `Edb_payload of int
  | `Bad of string ]
(** Parse one request line (the [`..._payload n] cases: the caller
    must read [n] more bytes and build [Consult]/[Dprog]/[Delta]/[Edb]
    itself).  A trailing [tid=<id>] trace token on a {!split_tid}
    command is stripped and ignored. *)

val split_tid : string -> string * string option
(** Strip a trailing [" tid=<id>"] trace-context token from a request
    line ([query], [shard], [dprog#], [delta#], [edb#], [barrier], [dreset]
    only — free-text commands are never touched).  Returns the
    stripped line and the id; lines without a well-formed token come
    back unchanged, so pre-trace clients interoperate as-is. *)

val ok : ?detail:string -> payload list -> response
val err : error_code -> string -> response

val busy : retry_after_ms:int -> string -> response
(** [err BUSY <retry-after-ms> <reason>]: the shed reply.  The first
    message token is machine-readable backoff advice in milliseconds. *)

val code_string : error_code -> string

val code_of_string : string -> error_code option
(** Inverse of {!code_string}; lets a front end propagate a worker's
    error under its original code. *)

val one_line : string -> string
(** Collapse a (possibly multi-line) message into a single protocol
    line: newlines become ["; "], control characters become spaces. *)

val one_line_from : Buffer.t -> int -> unit
(** [one_line_from buf start] makes the bytes appended to [buf] since
    [start] one protocol line, byte for byte as {!one_line} makes a
    string of them: a query's row printed straight into its [Raw]
    block stays one [ans] line. *)

val answers : response -> string list
(** The answer rows of a reply, without their ["ans "] prefix: the
    ["ans "] lines of its [Raw] blocks, in order. *)

val render : Buffer.t -> response -> unit
(** Serialize a response, payload lines then the status line. *)

val is_status : string -> bool
(** Client side: is this reply line the final [ok]/[err] line? *)

exception Line_too_long

type reader
(** A buffered reader over one socket, for both sides of the wire:
    request lines and byte-counted payloads on a server, reply lines
    on a client.  It reads the descriptor in blocks, not byte by byte
    through a channel. *)

val reader : Unix.file_descr -> reader

val read_line : reader -> string option
(** Read one LF-terminated line (a CR before the LF is stripped);
    [None] at EOF with nothing read, the partial line at EOF
    mid-line.
    @raise Line_too_long past {!max_line_bytes}. *)

val take_reply : reader -> Buffer.t -> string option
(** Take a reply out of what is already buffered, without reading: the
    complete payload lines move to the block as they arrive (each with
    its LF, a CR before the LF dropped), and [Some status] comes back
    once the status line is in; [None] while more bytes are needed.
    Lets one thread wait on several sockets and relay the payload as
    bytes.
    @raise Line_too_long past {!max_line_bytes}. *)

val fill : reader -> bool
(** One read of whatever the socket holds into the buffer; [false] at
    EOF.  Blocks when nothing is readable. *)

val read_exact : reader -> int -> string
(** The next [n] bytes, taking what follows a line in the same read
    first (a [consult#]/[dprog#]/[delta#]/[edb#] payload).
    @raise End_of_file if the peer closes first. *)

val write_response : out_channel -> response -> int
(** Serialize, write and flush a response; returns the bytes written
    (the byte-counter satellite's accounting unit). *)
