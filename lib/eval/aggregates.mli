(** Set-grouping, aggregation, and aggregate selections (paper
    sections 5.4.1, 5.5.2).

    Aggregate rule heads like [s_p_length(X, Y, min(C))] group the
    successful body instantiations by the plain head arguments and
    compute one aggregate value per group.  Aggregate {e selections}
    ([@aggregate_selection p(X,Y,P,C) (X,Y) min(C)]) are admission
    hooks on a relation: a tuple whose group already holds a strictly
    better value is discarded, and admitting a better tuple retires the
    strictly worse ones — the mechanism that makes the Figure 3
    shortest-path program terminate on cyclic graphs. *)

open Coral_term
open Coral_lang
open Coral_rel

exception Agg_error of string

val combine : Ast.agg_op -> Term.t list -> Term.t
(** Fold a non-empty group of (ground) values.  [Collect] builds a
    sorted duplicate-free list; [Any] picks one value deterministically.
    @raise Agg_error on non-numeric input to numeric aggregates. *)

val group :
  plain_positions:int list ->
  agg_positions:(int * Ast.agg_op) list ->
  arity:int ->
  Term.t array Seq.t ->
  Term.t array list
(** Group the resolved head-argument tuples of an aggregate rule's body
    matches and compute each aggregate column, returning one full-arity
    tuple per group, in the order the groups' first matches came; each
    aggregate folds its group's values in match order. *)

val selection_hook :
  pattern:Term.t array ->
  group_by:Term.t array ->
  op:Ast.agg_op ->
  target:Term.t ->
  Relation.t ->
  Tuple.t ->
  bool
(** The admission predicate to install as {!Relation.admit} (partially
    applied up to the relation argument).  Tuples not matching the
    pattern are admitted unchanged. *)
