(** The prepared-query cache: a parsed-text memo and its counters.

    A served workload repeats a small set of query {e forms} with
    varying constants: [path(1, Y)], [path(7, Y)], ... all share the
    adorned form [path/2:bf].  Preparing a request parses its text
    once (memoized on the text) and looks each form up in the engine's
    plan table ([Engine.prepare]), which plans a form once per rule
    generation and shares the plan, and the module compiled from it,
    with every snapshot view of the same rules.  The entries found are
    handed to evaluation ([Engine.answer ~prepared]), so a served query
    looks its forms up once.  Data changes never replan; loading a
    module replans only that module's forms.

    The memo keeps each text's {!Coral.Engine.form}: once the first
    evaluation has compiled the query into the join kernel's rule, a
    repeated text compiles nothing (each request binds its own read
    view's relations into the rule's slots). *)

type t

type stats = {
  parsed_entries : int;  (** parsed query texts currently memoized *)
  hits : int;  (** requests whose every form was already planned *)
  misses : int;  (** requests that planned at least one new form *)
  unplanned : int;
      (** requests with no plannable literal (pure base/builtin
          queries); counted separately so hits + misses accounts for
          exactly the plannable requests *)
  evictions : int;  (** parsed texts dropped by the LRU bound *)
}

val create : ?parsed_capacity:int -> unit -> t
(** [parsed_capacity] (default 1024, min 1) bounds the parsed-text
    memo: served workloads repeat a few query {e forms} but present
    unboundedly many distinct texts (varying constants), so the text
    memo is an LRU.  Plans are bounded by the program's predicates ×
    adornments and live in the engine. *)

val prepare :
  t ->
  Coral.t ->
  string ->
  ( Coral.Ast.literal list * [ `Hit | `Miss | `Unplanned ] * Coral.Engine.prepared,
    Coral.Parser.error )
  result
(** Parse a query (memoized on the text, with its compiled rule) and
    look up (planning if needed) every positive literal over a module
    export in [db]'s plan table; the result is for
    [Engine.answer ~prepared].
    [`Hit]: every form was already planned; [`Miss]: at least one
    form was planned now; [`Unplanned]: no literal needed a plan (pure
    base/builtin query).  Planning failures are not errors here — the
    literal is left for the evaluator to report.  The memo is
    internally mutexed (readers prepare without the store lock);
    planning runs outside the mutex. *)

val stats : t -> stats
