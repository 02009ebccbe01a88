(** CORAL: a deductive database system.

    This is the public face of the library — the OCaml rendering of
    CORAL's host-language interface (paper section 6), which extended
    C++ with relations, tuples, args and scan descriptors, plus embedded
    declarative CORAL code.  A {!session} owns base relations, loaded
    modules and cached evaluation state; declarative programs are
    consulted as text and queried either as text or through the typed
    helpers.

    {2 Quick start}

    {[
      let db = Coral.create () in
      Coral.consult_text db
        "edge(1, 2). edge(2, 3).
         module paths.
         export path(bf).
         path(X, Y) :- edge(X, Y).
         path(X, Y) :- edge(X, Z), path(Z, Y).
         end_module.";
      Coral.query db "path(1, Y)"
      (* -> [ [Y := 2]; [Y := 3] ] *)
    ]}

    The submodules re-export the full system for programs that need to
    reach below the facade (relation implementations, the optimizer,
    the storage manager). *)

(** {1 Re-exported system layers} *)

module Term = Coral_term.Term
module Value = Coral_term.Value
module Bignum = Coral_term.Bignum
module Symbol = Coral_term.Symbol
module Bindenv = Coral_term.Bindenv
module Unify = Coral_term.Unify
module Tuple = Coral_rel.Tuple
module Relation = Coral_rel.Relation
module Scan = Coral_rel.Scan
module Index = Coral_rel.Index
module Hash_relation = Coral_rel.Hash_relation
module List_relation = Coral_rel.List_relation
module Ast = Coral_lang.Ast
module Parser = Coral_lang.Parser
module Pretty = Coral_lang.Pretty
module Optimizer = Coral_rewrite.Optimizer
module Engine = Coral_eval.Engine
module Builtin = Coral_eval.Builtin
module Persistent = Coral_storage.Persistent_relation
module Database = Coral_storage.Database

(** {1 Sessions} *)

type t
(** A session: base relations, loaded modules, cached plans and
    save-module instances. *)

val create : ?builtins:bool -> ?workers:int -> unit -> t
(** [workers] (clamped to [1, 64], default: the [CORAL_WORKERS]
    environment variable or 1) is the domain-pool width for parallel
    semi-naive evaluation; see {!set_workers}. *)

val engine : t -> Engine.t

val of_engine : Engine.t -> t
(** Wrap an engine (e.g. a snapshot read view from {!Engine.read_view})
    in the convenience API. *)

val set_workers : t -> int -> unit
(** Set the parallel evaluation width for subsequent queries: each
    semi-naive fixpoint round is striped across a shared pool of that
    many OCaml domains, with derivations merged deterministically at
    the round barrier — answers are identical to sequential
    evaluation.  1 (the default) evaluates sequentially; modules using
    Ordered Search, foreign predicates, or non-snapshot-safe relations
    fall back to sequential evaluation automatically. *)

val workers : t -> int

(** {1 Building the database} *)

val fact : t -> string -> Term.t list -> unit
(** [fact db "edge" [Term.int 1; Term.int 2]] inserts a base fact. *)

val facts : t -> string -> Term.t list list -> unit

val relation : t -> string -> int -> Relation.t
(** The base relation for a name/arity, created on demand. *)

val install_relation : t -> string -> Relation.t -> unit
(** Use a custom relation implementation (e.g. a {!Persistent} one) as
    a base relation: extensibility of access structures, section 7.2. *)

val consult_text : t -> string -> unit
(** Load program text (facts, modules, rules).  Embedded queries are
    evaluated and discarded; use {!query} to get answers.
    @raise Engine.Engine_error on parse or load errors. *)

val consult_file : t -> string -> unit

val define_predicate :
  t -> string -> int -> (Term.t array -> Bindenv.t -> Term.t array Seq.t) -> unit
(** Define a predicate by a host function (the paper's
    [_coral_export] mechanism, section 6.2): given the argument
    pattern and its environment, produce answer rows; the engine
    unifies them with the call pattern. *)

(** {1 Queries} *)

val query : t -> string -> (string * Term.t) list list
(** Evaluate a query ("path(1, Y), Y != 3" — the leading [?-] and the
    final dot are optional); one association list of variable bindings
    per answer. *)

val query_rows : t -> string -> Term.t array list
(** Like {!query}, rows aligned with the variables' first occurrence. *)

val call : t -> string -> Term.t array -> Tuple.t Seq.t
(** Direct call on a predicate with a pattern of constants and
    variables (use {!Term.var} / {!var} for free positions); the
    answers are collected when the call is made (see
    {!Engine.call}). *)

val exists : t -> string -> bool
(** Does the query have at least one answer? *)

(** {1 Term construction helpers} *)

val int : int -> Term.t
val str : string -> Term.t
val atom : string -> Term.t
val double : float -> Term.t
val var : ?name:string -> int -> Term.t
val list_ : Term.t list -> Term.t
val app : string -> Term.t list -> Term.t

(** {1 Extensibility: abstract data types (paper section 7.1)} *)

val define_type :
  name:string ->
  ?compare:(exn -> exn -> int) ->
  ?hash:(exn -> int) ->
  ?parse:(string -> exn) ->
  print:(Format.formatter -> exn -> unit) ->
  unit ->
  exn -> Term.t
(** Register an abstract data type and get its value constructor.  The
    payload travels as an [exn] (OCaml's extensible type): declare
    [exception Point of point] and pass [Point p] values.  Equality,
    hashing and printing flow from the given operations; hash-consing
    ids compose with every other type automatically. *)

(** {1 Serving hooks}

    Used by the serving layer ([lib/server]) and available to any
    embedding host: per-request deadlines, plan accounting and the
    save-instance drop. *)

exception Cancelled
(** Raised out of {!query}/{!call} when the check installed by
    {!with_cancel} fires mid-evaluation. *)

val with_cancel : t -> (unit -> bool) -> (unit -> 'a) -> 'a
(** [with_cancel db check f] evaluates [f ()] with cooperative
    cancellation on [db]: evaluation polls [check] (at fixpoint round
    boundaries and, tick-based, inside long rounds) and raises
    {!Cancelled} once it returns [true].  Nests; the previous check
    and its polling budget are restored on exit.  The check is scoped
    to [db]: concurrent or interleaved evaluation on other sessions is
    unaffected. *)

val with_progress : t -> (rounds:int -> delta:int -> lanes:int array -> unit) -> (unit -> 'a) -> 'a
(** [with_progress db hook f] evaluates [f ()] with a live-progress
    hook on [db]: every fixpoint it runs reports each productive step
    (round counter, tuples inserted that step, per-lane task counts
    when parallel — [[||]] sequential).  The serving layer feeds the
    active-query registry (`ps` wire command) through this.  Nests the
    same way as {!with_cancel}. *)

val plan_cache_stats : t -> int * int
(** [(hits, misses)] of the database's query-form plan table.  Plans
    depend only on the rules: loading a module replans only that
    module's forms, and no data change replans anything. *)

val drop_saved : t -> unit
(** Drop the [@save_module] instances, the only derived state a base
    change outdates.  {!fact}, {!consult_text} and the engine's update
    entry points do it themselves; call it after mutating a
    {!relation} directly. *)

(** {1 Inspection} *)

val explain : t -> string -> string
(** The optimizer's rewritten program and decisions for a query on an
    exported predicate (the text CORAL dumped as a debugging aid). *)

val explain_analyze : t -> string -> string
(** Like {!explain}, but actually runs the query with per-rule
    profiling on: each rewritten rule is annotated with its attempted
    and successful derivations, duplicates, join tuples and time, and
    the report ends with the per-iteration delta sizes and a derivation
    count cross-check against the engine's global counters. *)

val why : t -> string -> string
(** The explanation tool (the paper's acknowledgements credit Bill
    Roth's Explanation tool): derivation trees for the answers of a
    single-literal query — each fact, the rule that first derived it,
    and recursively the body facts that rule joined. *)
