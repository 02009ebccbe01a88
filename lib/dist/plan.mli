(** The distribution plan for the sharded fixpoint: a projection of
    {!Coral_rewrite.Capability}'s distributable verdicts, which define
    the supported class.  A program outside it yields [Local] and the
    router evaluates on its own full replica instead. *)

type rule_class =
  | Init  (** no derived body literal: run everywhere, keep owned heads *)
  | Linear of int  (** index of the one derived body literal *)

type drule = { rule : Coral.Ast.rule; cls : rule_class }

type analysis = {
  idb : (string * int) list;  (** partitioned derived predicates *)
  drules : drule list;
  text : string;  (** the program as shipped to workers *)
}

type verdict =
  | Distributable of analysis
  | Local of string  (** why the router must evaluate locally *)

val analyse : Coral.Ast.module_ list -> Coral.Ast.rule list -> verdict
(** [Distributable] iff every predicate is; otherwise [Local] with the
    first reason in "name/arity" key order. *)

val analyse_engine : Coral.Engine.t -> verdict
(** Analyse everything the engine has consulted so far. *)

val analyse_text : string -> verdict
(** Parse and analyse program text (as sent to [dprog]). *)
