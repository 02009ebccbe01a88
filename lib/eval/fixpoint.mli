(** Materialized evaluation: the fixpoint engines (paper sections 4.2,
    5.3, 5.4).

    One value of type {!t} is the run-time state of a compiled module
    structure: per-rule semi-naive cursors, the current stratum phase,
    and (under Ordered Search) the context of subgoals.  Evaluation is
    exposed as a resumable [step] so that lazy evaluation (section
    5.4.3) can surface answers between iterations and the save-module
    facility (section 5.4.2) can continue incrementally after new seeds
    arrive.

    Engines:
    - [Basic_seminaive] (default): per-round delta consumption through
      relation marks; strata evaluated bottom-up, which makes stratified
      negation and aggregation sound.
    - [Predicate_seminaive]: rule-at-a-time deltas — facts derived by
      earlier rules in the same round are consumed immediately, which
      reduces the number of rounds for modules with many mutually
      recursive predicates.
    - [Naive]: every rule over full relations each round (the baseline).
    - [Ordered_search]: single phase; magic facts are routed through
      the context rather than inserted directly.  The context records
      the subgoal dependency graph (an edge per magic-fact derivation,
      generator to subgoal, captured through the joiner's witnesses);
      at quiescence it makes the most recent pending subgoal available
      (depth-first exploration), and once everything live is available
      it pops the {e sink strongly connected components} of the graph,
      issuing their [done#] facts together — each SCC's guarded rules
      waited only on already-done lower subgoals, which is exactly the
      modular-stratification assumption.  This evaluates left-to-right
      modularly stratified negation and aggregation. *)

open Coral_term
open Coral_rel

type t

(** {1 Cooperative cancellation}

    A server evaluating queries on behalf of remote clients must be
    able to abandon a runaway fixpoint (e.g. an unbounded recursion
    through arithmetic) without wedging the whole process.  Evaluation
    polls an installed check at every round boundary and, tick-based,
    every {!tick_interval} derivation attempts inside a round; when the
    check returns [true], {!Cancelled} is raised out of the fixpoint.

    Cancellation is cooperative and leaves the instance in a resumable
    state: derived tuples stay stored, semi-naive cursors have not
    advanced past them, so re-running at worst repeats (deduplicated)
    derivations.  Callers that must not observe partial state should
    discard the instance. *)

exception Cancelled

val set_cancel_check : t -> (unit -> bool) option -> unit
(** Install (or clear) this instance's cancellation check and reset its
    tick budget.  The check and budget are per-instance state: two
    interleaved evaluations (lazy cursors, nested module calls) each
    poll their own check, so one instance's deadline never cancels
    another's work. *)

val tick : t -> unit
(** Count one unit of evaluation work against this instance's check. *)

val tick_interval : int

val set_progress : t -> (rounds:int -> delta:int -> lanes:int array -> unit) option -> unit
(** Install (or clear) a live-progress hook, invoked after every
    productive {!step} with the instance's round counter, the number
    of tuples inserted since the previous invocation, and — under
    parallel evaluation — per-lane cumulative task counts ([[||]] when
    sequential).  The hook is also invoked from the {!tick} seam when
    a large round has accumulated unreported inserts, so a cancel
    check that consults accumulated derivations (the per-query
    resource budget) sees counts at tick granularity rather than only
    at round barriers; deltas never double-count across the two
    publication points.  The hook runs on the evaluating thread; a
    [None] hook costs nothing on the hot path. *)

val create :
  ?trace:bool -> ?profile:bool -> ?workers:int -> ?backjump:bool -> Module_struct.instance -> t
(** [trace] (default false) records, for the first derivation of every
    fact, the rule applied and the body tuples it joined — the raw
    material of the explanation tool (see {!provenance}).  [profile]
    (default false) fills the instance's per-rule {!
    Module_struct.rule_prof} counters and per-step deltas — the raw
    material of explain analyze.

    [workers] (default 1) asks for round-synchronous parallel
    evaluation on the shared domain pool of that width: each semi-naive
    round stripes every rule version's delta scan across the pool's
    lanes, buffers derivations privately, and merges them at the round
    barrier with hash-partitioned duplicate elimination — producing
    exactly the relation contents of a sequential round.  Modules that
    fail the parallel-safety gate (Ordered Search, foreign predicates,
    admission hooks, multiset heads, relations without snapshot-safe
    scans, profiled or traced runs, non-BSN fixpoint modes) evaluate
    sequentially regardless of [workers].

    [backjump] (default true) is the intelligent-backtracking ablation
    knob, threaded through to the joiner (bench E16). *)

val add_seed : t -> Term.t array -> bool
(** Insert a magic seed tuple (the query's bound constants); returns
    false for a repeated seed.  A new seed re-opens a completed
    evaluation (save-module semantics: no derivations are repeated,
    the new seed flows through the existing cursors).

    @raise Invalid_argument when the plan is single-context (see
    {!Coral_rewrite.Optimizer.seed}) and the instance already holds a
    different seed. *)

val step : t -> bool
(** Perform one unit of work (one semi-naive round, a stratum-phase
    activation, or an Ordered-Search context action).  Returns false
    when evaluation is complete. *)

val run : t -> unit
(** Step to completion. *)

val answer_relation : t -> Relation.t

val answers : t -> ?pattern:Term.t array * Bindenv.t -> unit -> Tuple.t Seq.t
(** Run to completion, then scan the answer relation. *)

val new_answers : t -> ?pattern:Term.t array * Bindenv.t -> unit -> Tuple.t Seq.t
(** Lazy evaluation support: the answers that appeared since the last
    [new_answers] call (without running the fixpoint). *)

val rounds : t -> int
(** Number of semi-naive rounds executed so far (work counter for the
    benchmarks). *)

val provenance : t -> Tuple.t -> slot:int -> (string * (int * Tuple.t) list) option
(** Under [trace]: the rule text and (relation slot, witness tuple)
    pairs of the first derivation of this tuple in the relation at
    [slot]; witness slot -1 marks builtin-produced rows; [None] for
    base facts and untraced evaluations. *)

val module_structure : t -> Module_struct.instance

(** {1 Profiling accessors} (populated when created with [~profile:true]) *)

val step_deltas : t -> int list
(** Delta size (new local inserts) of each productive step, oldest
    first: the first entry is the stratum activation, the rest are
    semi-naive rounds or Ordered-Search context actions. *)

val seed_inserts : t -> int
(** Local inserts made by {!add_seed} rather than by rules. *)

val done_inserts : t -> int
(** [done#] facts issued by the Ordered-Search context. *)

val context_inserts : t -> int
(** Magic facts the Ordered-Search context made available. *)

val rule_derivations : t -> int
(** Inserts attributable to rule applications: local inserts minus
    seeds, context availability inserts, and done facts.  Under
    profiling this equals the sum of per-rule [rp_derived], computed
    along an independent path — explain analyze asserts the match. *)

val profiled_rules : t -> (Module_struct.crule * Module_struct.rule_prof) list
(** Every distinct compiled rule, in stratum order, with its profile in
    this instance. *)

exception Not_modularly_stratified of string
