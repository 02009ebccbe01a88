(** Rule evaluation: nested-loops join with indexing, a binding trail,
    and intelligent backtracking (paper sections 4.2, 5.3).

    One call evaluates one (semi-naive version of a) rule: body
    literals left to right, each positive literal a scan (an index probe
    when the optimizer installed a usable index).  Candidates come from
    the relation's iterator ({!Coral_rel.Relation.iter}).  A ground
    candidate meets the scan's compiled match
    ({!Module_struct.arg_match}): constants and bound variables are
    compared in place and new variables bound directly, then unbound
    after; a non-ground candidate, or a literal with a compound
    argument holding variables, is unified, with bindings recorded on a
    trail and undone.  When a literal produces no matching tuple at
    all, evaluation backjumps to the rule's precomputed backtrack point
    for that literal instead of to the previous literal. *)

open Coral_term
open Coral_rel

val run :
  rels:Relation.t array ->
  range:(op_index:int -> slot:int -> local:bool -> int * int) ->
  ?backjump:bool ->
  ?stripe:int * int * int ->
  ?scan_counts:int array ->
  ?visited:int ref ->
  ?witness:(int * Tuple.t) list ref ->
  ?prof:Module_struct.rule_prof ->
  ?tick:(unit -> unit) ->
  Module_struct.crule ->
  on_match:(Bindenv.t -> unit) ->
  unit
(** [range] supplies the mark interval for each positive scan (semi-
    naive roles); negation checks always see the full relation.
    [on_match] is invoked with the rule's environment fully bound, once
    per successful body instantiation.  When [witness] is supplied it
    holds, during each [on_match], the stored tuples the join selected
    (in body order) — the raw material of the explanation tool.  When
    [prof] is supplied, body matches and enumerated candidate tuples
    are counted into it.

    [tick] (default none) is called each time a literal over a
    relation or a foreign predicate is solved, as pipelined resolution
    polls per solved atom: the top level installs its cancellation
    check there.

    [backjump] (default true) is the intelligent-backtracking knob
    (paper section 4.2): when false, a literal with no matching tuples
    backtracks to its immediate predecessor instead of jumping to the
    precomputed backtrack point (bench ablation E16).

    [stripe = (op_index, lane, lanes)] makes this invocation process
    only every [lanes]-th candidate tuple (offset [lane]) of the scan
    at [op_index]: the parallel evaluator runs the same rule on every
    lane with disjoint stripes of the delta scan.  [scan_counts], when
    supplied, receives per-slot scan counts instead of the shared
    relation stats (parallel workers must not touch those).

    Every candidate tuple a scan or negation check hands the join is
    counted in a local and credited once, when the run ends, to
    [visited] when supplied (a parallel worker's task-local cell) and
    otherwise to {!Relation.note_visited}; with [prof] also to its
    [rp_visited].
    @raise Builtin.Eval_error on arithmetic/comparison misuse. *)

val full_range : op_index:int -> slot:int -> local:bool -> int * int
(** The [range] that gives every scan its whole relation. *)

val head_tuple : Module_struct.crule -> Bindenv.t -> Tuple.t
(** Build the head tuple from a successful match (plain rules). *)

val head_row : Module_struct.crule -> Bindenv.t -> Term.t array
(** Resolve the head argument row (aggregate rules: grouping happens on
    these rows afterwards). *)

val ground_head : Module_struct.crule -> Bindenv.t -> Term.t array -> bool
(** [ground_head rule env into] writes the head's terms under [env]
    into [into] (of the head's arity), as {!head_tuple} would store
    them, when every one is ground: true then.  False as soon as one is
    not ([into] is then partly written).  A variable bound to a ground
    term is followed without building anything. *)

val insert_head : Relation.t -> Module_struct.crule -> Bindenv.t -> Term.t array ref -> bool
(** [insert_head rel rule env scratch] inserts the head of a successful
    match into [rel], as [Relation.insert rel (head_tuple rule env)]
    would, with the same counters.  A ground head is resolved into
    [!scratch] (the caller's, of the head's arity) and inserted from
    there, so a duplicate builds no tuple terms; an insert keeps the
    array and puts a fresh one in [scratch]. *)
