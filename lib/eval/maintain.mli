(** Incremental view maintenance: materialized extents of derived
    predicates kept live under inserts and retracts.

    The engine's normal evaluation recomputes a fixpoint per query
    form; this module instead materializes the full extent of every
    {e maintainable} derived predicate once, then propagates updates
    through the same delta shape semi-naive evaluation uses, in the
    delta kernel the shard workers share ({!Delta_kernel}: rules
    compiled once by {!Module_struct} and run by {!Joiner}).

    - an insert is a delta batch: the batch is loaded into a scratch
      delta relation per predicate, each rule's activation on a
      positive literal (that literal scans the delta first, the rest
      of the body scans the full current state) runs once over the
      whole batch, and newly derived heads become the next round's
      delta (Brass & Stephan's observation that an update is just
      another delta);
    - a retract runs DRed (delete and rederive): over-deletion
      propagates the deleted tuples through the same activations
      against the pre-delete state, everything over-deleted is
      physically removed, and the removed tuples of each predicate
      are rederived in one batch when an alternative support (a
      remaining base fact, or a match of the rule's support activation,
      which scans them in place) still exists, with
      rederived tuples feeding an insertion-propagation cascade.

    {b Supported program class.}  The maintained predicates are the
    ones {!Coral_rewrite.Capability} finds maintainable; that module
    defines the class.  Every other derived predicate is a fallback
    with a reason, and the engine keeps recomputing it from scratch.

    The caller (the engine) owns concurrency: all entry points must run
    on the write lane.  On any exception out of a maintenance call the
    caller must {!invalidate} — extents may be torn, and the next
    {!ensure} rebuilds them from scratch. *)

open Coral_term
open Coral_rel

type t

(** Everything maintenance reads from the engine, as closures so the
    two modules stay dependency-free of each other. *)
type source = {
  src_modules : unit -> Coral_lang.Ast.module_ list;
  src_user_rules : unit -> Coral_lang.Ast.rule list;
  src_relation : Symbol.t -> int -> Relation.t option;
      (** the stored base relation, without creating one *)
  src_foreign : Symbol.t -> int -> bool;
  src_tick : unit -> unit;  (** cancellation seam, polled during joins *)
}

(** Per-update work accounting. *)
type update_stats = {
  u_derived : int;  (** tuples added to extents by propagation *)
  u_deleted : int;  (** tuples physically removed from extents *)
  u_rederived : int;  (** over-deleted tuples restored by rederivation *)
  u_rounds : int;  (** propagation rounds (insert + delete + rederive) *)
}

val create : source -> t
(** A maintenance instance; initially stale (no extents built). *)

val invalidate : t -> unit
(** Mark the instance stale: the program changed (consult, load_module,
    add_clause), a relation was replaced, or a maintenance pass died
    mid-flight.  The next {!ensure} re-analyses and rebuilds. *)

val stale : t -> bool

val ensure : t -> unit
(** Re-analyse the program and rebuild every extent from scratch when
    stale; otherwise a no-op. *)

val extent : t -> Symbol.t -> int -> Relation.t option
(** The maintained extent of a derived predicate ([None] for base
    predicates and fallback predicates).  Valid only after {!ensure};
    callers must not mutate it. *)

val extents : t -> (string * Relation.t) list
(** All maintained extents, keyed ["name/arity"] (snapshot freezing). *)

val fallbacks : t -> (string * string) list
(** Predicates that are {e not} maintained, with the reason: derived
    ones, and any a [@multiset] or [@aggregate_selection] names. *)

val maintained_count : t -> int
val refreshes : t -> int
(** How many full rebuilds this instance has run. *)

val insert : t -> (Symbol.t * Term.t array) list -> update_stats
(** Propagate newly stored base facts (the caller has already inserted
    them into the base relations and filtered out duplicates).  Facts
    of maintained derived predicates are added to their extents; new
    extent tuples cascade through the rules. *)

val retract : t -> (Symbol.t * Term.t array) list -> int * int * update_stats
(** Retract base facts: returns [(removed, missing, stats)].  Runs the
    DRed rounds over maintained extents, then physically deletes the
    base facts (and every over-deleted extent tuple), then rederives.
    A fact with no matching stored base tuple counts as missing and
    propagates nothing. *)
