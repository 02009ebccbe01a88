(** A mutexed line-protocol connection to one worker shard.

    Retry with backoff happens at connect time only.  A request that
    fails mid-flight fails ({!Failed}) and poisons the connection — no resend, because the worker may already have applied it (a resent
    delta batch would be counted twice and break the coordinator's
    shipped-equals-received balance).  Recovery is the router's job:
    mark the cluster dirty, rerun the fixpoint from [dreset]. *)

type t

val create : ?attempts:int -> ?backoff_ms:int -> string -> t
(** [create addr] — [addr] is [host:port] or a Unix socket path.  No
    connection is made until the first {!request_all}. *)

val addr : t -> string

val disconnect : t -> unit

val connected : t -> bool
(** Whether the client holds an open connection (made by an earlier
    request and not since lost or closed). *)

type outcome =
  | Replies of (string * string) list * float
      (** one [(payload, status)] per command, in order — [payload] is
          the reply's payload lines as received, each LF-terminated —
          and the seconds from sending to the last reply *)
  | Failed of string  (** an IO failure; the connection is closed *)
  | Abandoned  (** [abandon] fired first; the connection is closed *)

val probe_after_s : float
(** 1.0: how long a reply may be owed before the client's server is
    pinged, and then again between pings. *)

val probe_within_s : float
(** 1.0: how long a liveness ping may go unanswered before the client
    counts as lost. *)

val request_all :
  ?abandon:(unit -> bool) -> (t * (string * string option) list) array -> outcome array
(** Send every client its commands (each a command line plus optional
    raw payload bytes), pipelined, then read all the replies in the
    order they arrive, waiting in [select] over the connections: one
    thread serves any number of clients.  [abandon] is polled about
    every 20 ms while replies are owed; once it answers [true], the
    clients still owed a reply are closed rather than left holding it.
    A reply may take as long as its work does, but its server must stay
    alive: a client still owed a reply for {!probe_after_s} is sent
    [ping] on a fresh connection (again every {!probe_after_s}), and
    once one goes unanswered for {!probe_within_s} it has [Failed]
    ("shard treated as lost"). *)


val fetch :
  ?payload:string -> string -> string -> (string list * string, string) result
(** [fetch addr cmd]: one request/reply exchange on a fresh, one-shot
    connection (single connect attempt, closed after the reply).  Used
    by the router's observability scrapes — metrics federation and
    trace pulls — so they never contend on a pooled client's mutex,
    and a down worker reports [Error] immediately. *)

val status_ok : string -> string option
(** [Some detail] if the status line is [ok ...]. *)

val status_err : string -> (string * string) option
(** [Some (code, message)] if the status line is [err CODE ...]. *)

val kv_pairs : string -> (string * string) list
(** Parse ["k1=v1 k2=v2"] ok-detail into an assoc list. *)

val kv_int : (string * string) list -> string -> int option
