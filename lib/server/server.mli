(** The connection layer: sockets, framing, a thread per client.

    {!start} binds a TCP or Unix-domain socket, spawns an accept
    thread, and hands each accepted connection to its own thread
    running the read-request / {!Session.handle} / write-reply loop;
    {!serve} runs the same layer with another request handler (the
    cluster router's).
    Engine work is serialized by the store lock inside
    {!Session.handle}; a request that exceeds its session deadline is
    cancelled cooperatively, so one runaway query cannot wedge the
    server.

    Framing guards: request lines over {!Protocol.max_line_bytes} and
    [consult#] payloads over {!Protocol.max_payload_bytes} get an
    [err TOOBIG] reply and the connection is closed.

    Overload behavior: the accept thread survives descriptor
    exhaustion ([EMFILE]/[ENFILE]), aborted peers ([ECONNABORTED]) and
    [Thread.create] failure by shedding the one affected client; a
    connection past the configured session cap is shed with a single
    [err BUSY <retry-after-ms>] line before any thread is spawned for
    it. *)

type listen =
  [ `Tcp of string * int  (** host, port; port 0 picks an ephemeral port *)
  | `Unix of string  (** socket path; an existing file is replaced *) ]

type t

val start :
  ?consult:string list ->
  ?databases:Coral.Database.t list ->
  ?limits:Admission.config ->
  listen:listen ->
  Coral.t ->
  t
(** Consult the given program files into the shared engine, then
    {!serve} a fresh store over it with {!Session.handle}.  Returns
    once the socket is listening.  SIGPIPE is ignored process-wide so
    a client vanishing mid-reply raises [EPIPE] in its connection
    thread instead of killing the server.
    [databases] lists persistent databases backing the engine's
    relations; {!shutdown} commits and closes them (under the store
    lock) so an orderly stop loses no durable data.  [limits] is the
    admission-control and budget policy (default: unlimited).
    @raise Unix.Unix_error when binding fails. *)

val serve :
  handle:(Session.t -> Protocol.request -> Protocol.response) ->
  listen:listen ->
  Session.store ->
  t
(** The connection layer alone: bind, then answer every request of
    every connection with [handle] ({!Session.handle} for a server, a
    router's own handler for a router).  A trailing [tid=] token on a
    request line is installed as the trace context around [handle].
    The framing guards, the session cap and the shedding above apply
    whatever the handler.
    @raise Unix.Unix_error when binding fails. *)

val port : t -> int
(** The bound TCP port (0 for Unix-domain sockets). *)

val store : t -> Session.store

val wait : t -> unit
(** Block until the server is shut down (joins the accept thread). *)

val shutdown : t -> unit
(** Stop accepting and close the listening socket (removing a
    Unix-domain socket's file).  Established connections finish their
    current request and close; attached persistent databases are
    committed and closed. *)
