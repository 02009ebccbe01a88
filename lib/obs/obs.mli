(** Observability core: named metrics, span tracing, exporters.

    All recording is gated on one global switch ([set_enabled]); with
    it off (the default) every record call is a load and a branch, so
    hot paths can stay instrumented unconditionally.  Updates are
    atomic and safe under the server's thread-per-connection model. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Wall clock in integer nanoseconds (microsecond resolution). *)
val now_ns : unit -> int

val version : string
(** Reported in [coral_build_info]. *)

val process_start_ns : int
(** Wall-clock time this process initialized the obs library. *)

module Counter : sig
  type t

  val v : string -> t
  (** An unregistered counter — use {!val-counter} for registry-backed cells. *)

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val v : string -> t
  val name : t -> string
  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  type t

  val nbuckets : int

  val v : string -> t
  val name : t -> string

  val bucket_le_ns : int -> int
  (** Upper bound (inclusive, ns) of bucket [i]: [2^i].  The final
      bucket additionally absorbs everything larger. *)

  val bucket_index : int -> int
  (** Index of the bucket an observation of [ns] lands in. *)

  val observe_ns : t -> int -> unit

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk and observe its wall duration; just the thunk when
      recording is disabled. *)

  val count : t -> int
  val sum_ns : t -> int

  val bucket_counts : t -> int array
  (** Per-bucket (non-cumulative) counts, a snapshot. *)

  val reset : t -> unit
end

(** {1 Registry}

    Registration is idempotent per (name, kind): registering a name
    twice returns the same cell.  Registering an existing name as a
    different kind raises [Invalid_argument]. *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

val counter : string -> Counter.t
val gauge : string -> Gauge.t
val histogram : string -> Histogram.t

val metrics : unit -> (string * metric) list
(** All registered metrics, sorted by name. *)

val find : string -> metric option
val reset_all : unit -> unit

(** {1 Prometheus text exposition} *)

val prometheus_sample_f : Buffer.t -> kind:string -> string -> float -> unit
(** Append one unregistered sample (kind is ["counter"] or ["gauge"])
    — for values owned by another component and read at scrape time.
    Names are prefixed with [coral_] and dots become underscores;
    integral values print without a fraction. *)

val prometheus_sample_labeled :
  Buffer.t ->
  ?typ:bool ->
  kind:string ->
  labels:(string * string) list ->
  string ->
  float ->
  unit
(** One sample with {k="v",...} labels.  [typ:false] suppresses the
    [# TYPE] header so repeated series of one metric (per-shard lines)
    emit it only once. *)

(** {1 Sample tables}

    A component that owns values (a server's store, a router) lists
    each one once, as a row of a table; every view renders that same
    table.  Both renderers append the process's rows: the
    [process.start_time_seconds] and [process.uptime_seconds] gauges,
    then every registered counter and gauge. *)

type sample = string * [ `Counter | `Gauge ] * float
(** [(name, kind, value)]; the dotted name is the one name of the
    value. *)

val render_stats : sample list -> string list
(** One [name=value] line per row (the [stats] reply). *)

val render_prometheus : sample list -> string
(** The Prometheus body: every row as {!prometheus_sample_f} (so
    [a.b_c] is [coral_a_b_c]), the label-only [coral_build_info]
    line, then the registry's histograms (cumulative buckets with
    [le] bounds in seconds). *)

val prometheus : unit -> string
(** [render_prometheus []]: every registered metric. *)

(** {1 Trace context}

    A per-thread trace id installed by the serving layer for the
    duration of a request.  Spans and events recorded on that thread
    are stamped with it, which is what lets a router stitch its own
    spans together with each worker's into one cross-process trace.
    The context does not follow work submitted to domain pools —
    capture [current ()] before fanning out. *)

module Trace : sig
  val fresh : unit -> string
  (** A new process-unique trace id (["t<origin>-<seq>"]). *)

  val set : string -> unit
  val clear : unit -> unit
  val current : unit -> string option

  val with_id : string option -> (unit -> 'a) -> 'a
  (** Run the thunk with the given trace context installed; [None]
      leaves the current context untouched. *)

  val valid_id : string -> bool
  (** Whether a wire-received id is safe to adopt (short, [[A-Za-z0-9._-]]). *)
end

(** {1 Span tracing}

    Completed spans land in a fixed-size ring buffer (newest wins on
    wraparound) and can be exported as Chrome [trace_event] JSON for
    chrome://tracing / Perfetto. *)

module Span : sig
  type span = {
    sname : string;
    ts_ns : int;
    dur_ns : int;
    attrs : (string * string) list;
  }

  val with_ : ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span.  [attrs] is a thunk so attribute
      strings cost nothing when tracing is off. *)

  val record : string -> int -> int -> (string * string) list -> unit
  (** [record name ts_ns dur_ns attrs] stores one completed span
      directly.  Not gated on the global switch — callers that build
      attributes eagerly should check {!enabled} first.  The calling
      thread's trace id (if any) is stamped into [attrs]. *)

  val set_capacity : int -> unit
  (** Resize the ring (drops recorded spans). *)

  val clear : unit -> unit

  val recorded : unit -> span list
  (** Spans still in the ring, oldest first. *)

  val count : unit -> int
  (** Total spans ever recorded (including overwritten ones). *)

  val to_chrome_json : unit -> string

  val matching : string -> span list
  (** Spans in the ring stamped with the given trace id, oldest first. *)

  val to_json : span -> string
  (** One span as a single-line JSON object (the [spans <tid>] wire
      format). *)

  val of_json : string -> (span, string) result

  val to_chrome_json_lanes : (string * span list) list -> string
  (** Stitched multi-process export: each [(label, spans)] pair
      renders as its own pid lane (named via a [process_name] metadata
      event) sharing one time axis — router fan-out and every worker's
      rounds in a single flame view. *)
end
