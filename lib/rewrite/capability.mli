(** Program analysis: what each derived predicate supports, decided
    once from the program's structure (paper sections 4-5: CORAL fixes
    a module's evaluation from its rules at consult time).

    One pure pass over every module's rules and the interactive
    clauses gives each derived predicate two verdicts, each [Ok] or
    [Error reason].  Incremental maintenance ([Maintain] in the evaluator)
    keeps extents of the maintainable predicates; the distribution
    planner ([Plan] in the cluster library) ships the program to shards
    only when every predicate is distributable.  Both read this result
    and decide nothing themselves.

    {b Maintainable} — an update is one more delta (Brass & Stephan,
    "Bottom-Up Evaluation of Datalog: Preliminary Report").  Every rule
    deriving the predicate has a plain head and a negation-free body;
    comparison and [=] literals range over variables that positive
    literals bound to their left; every head variable is bound that
    way; no body predicate is foreign or '@'-named; and a rule of a
    recursive predicate has no value-generating [=] ([Y = X + 1] with
    [Y] unbound), which could make the extent infinite.  The predicate
    is not defined in a [@pipelined] module, not named by [@multiset]
    or [@aggregate_selection], and not defined in several modules (the
    interactive clauses count as a module named "user").  A predicate
    that reads a non-maintainable one is not maintainable either.

    {b Distributable} — the sharded fixpoint's linear class: base
    relations are replicated, derived relations are hash-partitioned,
    and a rule joins at most one partitioned delta tuple against
    replicated relations, so it runs on the shard owning that tuple.
    Every rule deriving the predicate has a plain, non-'@' head whose
    variables all occur in the body, no '@'-named body predicate, no
    negation over a derived predicate, and at most one derived body
    literal.  The predicate is not defined in a module that carries
    any annotation, nor in several modules (interactive clauses do not
    count).  This verdict is not propagated to readers: the cluster
    distributes the whole program or none of it.

    Recursion is per predicate symbol ({!Scc}), so two derived
    predicates sharing a name but not an arity are recursive together.

    The result has no hidden state and the pass allocates its tables
    per call: the write lane, the router and in-process workers call it
    concurrently. *)

open Coral_term
open Coral_lang

type verdict = (unit, string) result

type rule = {
  rule : Ast.rule;
  head : string;  (** key ("name/arity") of the head predicate *)
  derived_at : int list;
      (** body positions of positive literals over derived predicates:
          none for an exit rule, one for a linear rule *)
}

type pred = {
  key : string;  (** "name/arity" *)
  sym : Symbol.t;
  arity : int;
  rules : rule list;
      (** in program order; empty for a predicate no rule derives but a
          [@multiset] or [@aggregate_selection] names — the annotation
          changes how its stored relation admits tuples, so it is not
          maintainable and neither is anything reading it *)
  recursive : bool;
  maintainable : verdict;
  distributable : verdict;
}

type t = {
  preds : pred list;  (** sorted by key *)
  rules : rule list;  (** every rule, modules first, in program order *)
  negated : (Symbol.t * int) list;
      (** every predicate some rule reads under negation, sorted by
          key: an insert into one of these can remove derived tuples *)
}

val key_of : Symbol.t -> int -> string
(** The ["name/arity"] key of a predicate. *)

val head_key : Ast.rule -> string
val atom_key : Ast.atom -> string

val analyse :
  foreign:(Symbol.t -> int -> bool) -> Ast.module_ list -> Ast.rule list -> t
(** [analyse ~foreign modules clauses] classifies the rules of
    [modules] and the interactive [clauses].  [foreign] tells which
    body predicates are foreign; only the maintainable verdict reads
    it. *)
