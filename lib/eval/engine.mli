(** The evaluation engine: modules, base relations, foreign predicates,
    inter-module calls (paper sections 2, 5.6).

    Every relation — base, derived-by-rules, persistent, or defined by a
    host-language function — presents the same read interface
    ({!Coral_rel.Relation.iter}), and a literal over another module's
    export is compiled to a relation whose read sets up a call on that
    module: "the calling module will wait
    until the called module returns answers to the subquery ... this is
    independent of the evaluation modes of the two modules involved."

    A call on a materialized module plans the query form (adornment
    derived from the actual bindings), compiles the rewritten program,
    seeds the magic predicate with the query constants, runs the chosen
    fixpoint, and hands the reader the answers; intermediate state is
    discarded when the call ends unless the module was declared
    [@save_module], in which case the instance persists and later calls
    continue incrementally.  A [@lazy_eval] module hands over each
    iteration's new answers and iterates again only while the reader
    wants more; a [@pipelined] module hands over each answer as its
    top-down search finds it, and the reader can stop the search. *)

open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

type t

exception Engine_error of string

val create : ?builtins:bool -> ?workers:int -> unit -> t
(** A fresh engine; [builtins] (default true) preloads the stock
    foreign predicates (append, member, ...).  [workers] (clamped to
    [1, 64]) is the domain-pool width for parallel semi-naive
    evaluation; it defaults to the [CORAL_WORKERS] environment variable
    or 1 (sequential).  See {!set_workers}. *)

(** {1 Extending the database} *)

val base_relation : t -> Symbol.t -> int -> Relation.t
(** The EDB relation for a predicate, created on demand (in-memory hash
    relation).  To install a different implementation — a list relation,
    a persistent relation — use {!set_relation} first. *)

val set_relation : t -> Symbol.t -> Relation.t -> unit
(** Register a custom relation implementation for a base predicate
    (paper section 7.2: extensibility of access structures). *)

val add_fact : t -> string -> Term.t list -> bool
val register_foreign : t -> Builtin.foreign -> unit

(** {1 Incremental updates (view maintenance)} *)

(** Per-update accounting: what the update changed in the base
    relations, and how much maintenance work it caused. *)
type update_report = {
  ur_applied : int;  (** facts stored (insert) / removed (retract) *)
  ur_noop : int;  (** duplicates skipped (insert) / missing (retract) *)
  ur_derived : int;  (** tuples added to maintained extents *)
  ur_deleted : int;  (** tuples deleted from maintained extents (DRed) *)
  ur_rederived : int;  (** over-deleted tuples restored by rederivation *)
  ur_rounds : int;  (** delta-propagation rounds *)
  ur_maintained : bool;  (** true when maintenance is enabled on this engine *)
}

val set_maintenance : t -> bool -> unit
(** Enable or disable incremental view maintenance.  When enabled, the
    engine materializes the extent of every maintainable derived
    predicate (negation/aggregation-free rules with range-restricted
    heads; see {!maintenance_fallbacks}) and keeps those extents live
    under {!insert_facts} and {!retract_facts} by delta propagation —
    inserts ride the semi-naive delta machinery, retracts run DRed
    (delete and rederive).  Queries over maintained predicates are
    answered directly from the extents; fallback predicates keep the
    normal plan-and-recompute path.  Off by default. *)

val maintenance_enabled : t -> bool

val maintenance_fallbacks : t -> (string * string) list
(** Derived predicates excluded from maintenance, as
    [("name/arity", reason)] — e.g. negation, aggregation, pipelined
    modules, multiset or aggregate-selection annotations.  Forces a
    (re)build of the maintained extents when stale; [[]] when
    maintenance is off. *)

val maintenance_info : t -> (int * int * int) option
(** [(maintained predicate count, full rebuilds so far, fallback
    predicate count)] as of the last build, [None] when maintenance is
    off.  Unlike {!maintenance_fallbacks} it never rebuilds, so
    [stats] and [metrics] can read it. *)

val insert_facts : t -> (Symbol.t * Term.t array) list -> update_report
(** Store ground facts and propagate them incrementally through the
    maintained extents (when maintenance is enabled).  Duplicates are
    counted in [ur_noop] and propagate nothing.  Like every base change,
    a stored fact drops the save-module instances ({!drop_saved}). *)

val retract_facts : t -> (Symbol.t * Term.t array) list -> update_report
(** Remove stored facts (exact-tuple match) and run DRed maintenance:
    over-deletion, physical deletion, rederivation.  Facts with no
    matching stored tuple are counted in [ur_noop]. *)

val load_module : t -> Ast.module_ -> (unit, string) result
(** Check and register a module; well-formedness errors are reported.
    Unless the module is pipelined, every exported form is planned now
    and the indexes its rewritten rules (and [@make_index]
    annotations) choose on stored predicates are recorded: built on
    the stored relations that exist, and on the others when they are
    created (paper sections 4.2, 5.5.1).  Other query forms are
    planned lazily.  No relation is created.  Loading starts a new
    plan table holding every other module's plans; views taken before
    keep the old one. *)

val add_clause : t -> Ast.rule -> unit
(** Add a top-level rule to the implicit interactive module (its
    predicates are all exported and evaluated materialized) and choose
    its exported forms' indexes as {!load_module} does. *)

(** {1 Queries} *)

type query_result = {
  qvars : Term.var list;  (** the query's variables, in occurrence order *)
  rows : Term.t array list;  (** one value row per answer, aligned with [qvars] *)
}

type form
(** A top-level query's literals and, once an evaluation has needed
    it, the query compiled into the join kernel's form: the anonymous
    rule [query(V1, ..., Vk) :- body] over the query's variables (paper
    section 5.1).  The compiled rule holds no relation, so a form kept
    across requests serves every engine and read view; each evaluation
    binds its own engine's relations, and recompiles only when a body
    predicate no longer resolves as it did (a module now exports it, a
    foreign predicate was registered). *)

val form : Ast.literal list -> form
val form_lits : form -> Ast.literal list

type prepared
(** A form with the plan-table entries of its module calls (see
    {!prepare}). *)

val prepare : t -> form -> prepared * [ `Hit | `Miss | `Unplanned ]
(** Look up (planning if needed) the form of every positive literal
    over a module export, once: [`Hit] when every form was planned
    already, [`Miss] when one was planned now, [`Unplanned] when no
    literal names an export.  Forms that fail to plan are left for the
    evaluation to report. *)

val answer :
  ?prepared:prepared -> t -> Ast.literal list -> (Term.var list -> Term.t array -> unit) -> unit
(** [answer t lits start] evaluates a conjunctive query and hands its
    rows on as they are found: [start qvars] is called once, with the
    query's variables in occurrence order, and the function it returns
    once per distinct row, in first-seen order, with the values aligned
    with [qvars].  The row array is only valid during that call.

    The query runs as one rule through the join kernel ({!Joiner}):
    a literal over a module export reads its maintained extent or
    calls the module with the bindings the join has made (left to
    right, so they reach the module's magic rewriting); a foreign
    predicate runs its function; any other literal reads the stored
    relation, probing the indexes it carries.  Rows are deduplicated
    on their resolved terms, except those of one positive literal over
    a stored set relation whose arguments are pairwise-distinct
    variables, which cannot repeat.  Rows, and their order, are what
    pipelined resolution of the same literals gives.  A query that
    calls [assert/1] or [retract/1] is solved by pipelined resolution
    itself, whose evaluation order those side effects rely on (paper
    section 5.2).

    With [prepared] (from this [lits]' form), the module calls take its
    entries without looking in the plan table again when it came from
    this engine's rule generation, and a kept compiled rule is reused. *)

val query : ?prepared:prepared -> t -> Ast.literal list -> query_result
(** {!answer}, with the rows collected. *)

val calls_update : Ast.literal list -> bool
(** Does a query call the update builtins [assert/1] or [retract/1]
    at its top level?  The serving layer sends such a query to the
    write lane. *)

val query_string : t -> string -> query_result
(** Parse and evaluate ([Engine_error] on parse errors). *)

val call : t -> Symbol.t -> Term.t array -> Tuple.t Seq.t
(** A direct call on an exported or base predicate with a pattern of
    constants and variables: the host-API equivalent of a module call.
    Returned tuples are the matching stored/derived facts, collected
    when [call] is applied: the sequence is not lazy, so a call on a
    [@lazy_eval] or [@pipelined] module runs to completion first. *)

val consult : t -> string -> (Ast.literal list * query_result) list
(** Load program text: facts, modules, clauses; queries are evaluated
    and their results returned in order.  Each module's indexes are
    chosen as it loads; the interactive module's once, after the last
    item.
    @raise Engine_error on parse or load errors. *)

val consult_file : t -> string -> (Ast.literal list * query_result) list

(** {1 Introspection} *)

val plan_for :
  t ->
  pred:Symbol.t ->
  arity:int ->
  adorn:Ast.adornment ->
  (Optimizer.plan * [ `Hit | `Miss ], string) result
(** The plan the optimizer uses for a query form, from the plan table
    of this engine's rules ([`Hit]) or planned now and added to it
    ([`Miss]); exposes the rewritten program text. *)

val compile_count : t -> int
(** Module structures and query rules compiled by this engine and its
    read views: one per plan-table entry that an evaluation needed and
    one per {!form} evaluated, plus recompiles when a predicate's
    resolution changed since. *)

val provider : t -> Symbol.t -> int -> Module_struct.provider
(** How compiled rules on this engine resolve a predicate that no rule
    of theirs defines: another module's export, else a foreign
    predicate, else the base relation (created on demand). *)

val relation_of : t -> Symbol.t -> int -> Relation.t option
(** The stored relation backing a base predicate, if any. *)

val why : t -> string -> (string, string) result
(** The explanation tool: evaluate a single-literal query with
    derivation tracing and render derivation trees for (up to 5 of) its
    answers.  Each node shows a fact, the rule that first derived it,
    and recursively the body facts that rule joined; rewrite-generated
    predicates (magic, supplementary, done) are elided and adorned
    names map back to source names.  A literal no module derives
    answers [Ok] with a one-line explanation (base fact / no matching
    fact / nothing known) instead of erroring. *)

val explain_analyze : t -> string -> (string, string) result
(** Evaluate a single-literal query on a fresh profiled fixpoint and
    render the rewritten program annotated with what actually happened:
    per-rule derivation attempts, the derived/duplicate split, candidate
    tuples enumerated, and time per rule; then the per-step delta sizes
    and the derivation accounting (the per-rule derived counts sum to
    the engine's independently computed rule-derivation counter). *)

(** {1 Serving hooks}

    What a query-serving layer needs from the engine: observable
    plan-table accounting, the save-instance drop for callers that
    mutate relations directly, and cooperative cancellation for
    per-request deadlines. *)

exception Cancelled
(** Re-export of {!Fixpoint.Cancelled}: raised out of evaluation when
    an installed cancel check fires. *)

val with_cancel_check : t -> (unit -> bool) -> (unit -> 'a) -> 'a
(** Run a computation with a cancellation check installed on this
    engine; fixpoint rounds, derivation attempts and pipelined
    resolution steps poll it (tick-based) and raise {!Cancelled} once
    it returns [true].  The check is per-engine ambient state: scopes
    nest (the outer check is restored on exit, along with its polling
    budget), and evaluation on a different engine is unaffected. *)

val with_progress : t -> (rounds:int -> delta:int -> lanes:int array -> unit) -> (unit -> 'a) -> 'a
(** Run a computation with a live-progress hook installed on this
    engine: every fixpoint instance it runs (including nested module
    calls and cached saved instances) reports each productive step —
    its round counter, the tuples inserted that step, and per-lane
    task counts under parallel evaluation ([[||]] sequential).  Same
    ambient scoping as {!with_cancel_check}. *)

(** {2 Snapshot read views (MVCC)}

    A [view] captures everything needed to evaluate queries against one
    committed version of the database without touching the live engine:
    frozen base relations, the module and interactive-rule lists as of
    the snapshot, and the plan table of those rules, shared by
    reference with the live engine and every view of the same rules
    (a view pinned across a module load keeps planning against its own
    rules).  The serving layer builds one view per committed epoch and
    spins up a cheap per-request engine from it. *)

type view

val snapshot : t -> view option
(** Freeze every base relation into an immutable wrapper and capture
    the current rule state.  [None] when some relation has no lock-free
    view (persistent relations, module-call relations): reads must then
    fall back to the locked lane.  Call only while holding the writer
    lane — the freeze must not race inserts.  Index requests forwarded
    by earlier views are applied to the live relations first, so the
    new view carries them. *)

val read_view : view -> t
(** A per-request engine over the view.  Reads are lock-free against
    the live engine; the update predicates [assert/1] and [retract/1]
    raise {!Engine_error} (mutations go through the write lane), and
    save-module instances are per-request rather than cached.  A
    compile that asks a frozen relation for an index it lacks builds
    nothing: the request is queued for the next {!snapshot} (see
    {!index_requests_pending}). *)

val index_requests_pending : t -> bool
(** True when read views of this engine queued index requests that no
    {!snapshot} has applied yet.  The serving layer then commits once
    with no data change, so the next epoch carries the indexes. *)

val plan_cache_stats : t -> int * int
(** [(hits, misses)] of the engine's plan table: how many query-form
    plan requests were answered from it vs. ran the optimizer.  Read
    views count into their engine's counters. *)

val plan_cache_size : t -> int
(** Number of plans in the current rule generation's table. *)

val drop_saved : t -> unit
(** Drop every save-module instance, the only derived state a base
    change outdates (plans depend only on the rules).  Every update
    entry point above calls it; a caller that mutates a relation
    directly must call it too. *)

val list_relations : t -> (string * int) list
(** (name/arity, cardinality) of every base relation. *)

val base_relations : t -> (Symbol.t * int * Relation.t) list
(** Every base relation with its predicate and arity, in
    ["name/arity"] order. *)

val list_modules : t -> string list

val module_defs : t -> Ast.module_ list
(** The loaded module definitions (a redefined module appears once,
    with its latest definition).  The distribution planner re-analyses
    the whole program from these after every consult. *)

val interactive_rules : t -> Ast.rule list
(** The rules of the implicit interactive module, in consult order. *)

val set_intelligent_backtracking : t -> bool -> unit
(** Benchmark ablation (E16): toggle the joiner's backjumping for this
    engine's subsequent fixpoint instances.  Cached save-module
    instances are dropped so the setting takes effect immediately. *)

val set_workers : t -> int -> unit
(** Set the domain-pool width (clamped to [1, 64]) used by subsequent
    fixpoint instances; 1 means sequential evaluation.  Cached
    save-module instances are dropped so the setting takes effect
    immediately.  Widths above 1 share a process-global domain pool
    per width. *)

val workers : t -> int

val pp_stats : Format.formatter -> t -> unit
