(** The distribution plan for the sharded fixpoint: a projection of
    {!Coral_rewrite.Capability}'s distributable verdicts, which define
    the supported class.  A program outside it yields [Local] and the
    router evaluates on its own full replica instead. *)

type rule_class =
  | Init  (** no derived body literal: run everywhere, keep owned heads *)
  | Linear  (** one derived body literal: run where its delta lives, ship heads *)

type drule = { rule : Coral.Ast.rule; cls : rule_class }

type analysis = {
  idb : (string * int) list;  (** partitioned derived predicates *)
  drules : drule list;
  negated : (string * int) list;
      (** predicates some rule reads under negation (all base: a
          distributable program negates no derived predicate) *)
  text : string;  (** the program as shipped to workers *)
}

type verdict =
  | Distributable of analysis
  | Local of string  (** why the router must evaluate locally *)

val analyse : Coral.Ast.module_ list -> Coral.Ast.rule list -> verdict
(** [Distributable] iff every predicate is; otherwise [Local] with the
    first reason in "name/arity" key order. *)

val insert_is_delta : analysis -> string -> int -> bool
(** Whether inserting facts of [name/arity] only adds derived tuples,
    so the cluster can absorb them as one more semi-naive delta: the
    predicate is not derived, not '@'-named, and no rule reads it
    under negation. *)

val analyse_engine : Coral.Engine.t -> verdict
(** Analyse everything the engine has consulted so far. *)

val analyse_text : string -> verdict
(** Parse and analyse program text (as sent to [dprog]). *)
