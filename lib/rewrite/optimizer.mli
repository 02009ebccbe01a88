(** The query optimizer: from a module and a query form to an
    evaluation plan (paper sections 2, 4).

    "The query optimizer takes a program module and a query form as
    input, and generates a rewritten program that is optimized for the
    specified query forms."  The plan carries the rewritten rules, the
    predicate whose relation holds the answers, the magic seed to insert
    from the actual query constants, the chosen fixpoint engine and
    run-time options, the mapping from rewritten predicates back to
    source predicates (so annotations like aggregate selections and
    indexes follow their predicate through rewriting), and the rewritten
    program in source syntax as a debugging aid. *)

open Coral_term
open Coral_lang

type mode = Materialized | Pipelined

type seed = {
  seed_pred : Symbol.t;
  seed_positions : int list;  (** query argument positions forming the seed *)
  goal_id : bool;  (** seed is one wrapped [$goal#p(...)] term *)
  single_context : bool;
      (** the rewritten program computes context-free answers (right-linear
          factoring): an instance answers exactly one seed *)
}

type plan = {
  mode : mode;
  prules : Ast.rule list;
  answer_pred : Symbol.t;
  answer_arity : int;
  seed : seed option;  (** [None]: evaluate in full, filter afterwards *)
  fixpoint : Ast.fixpoint;
  lazy_eval : bool;
  save_module : bool;
  ordered_search : bool;
      (** evaluation must manage subgoals through the context and
          insert [done#p] facts when subgoals complete *)
  origin : (Symbol.t * (Symbol.t * Ast.adornment)) list;
      (** rewritten predicate -> (source predicate, adornment) *)
  annotations : Ast.annotation list;  (** the module's annotations, verbatim *)
  rewritten_text : string;
  notes : string list;  (** decisions and fallbacks, human-readable *)
}

val done_name : Symbol.t -> Symbol.t
(** The [done] guard predicate for an (adorned) subgoal predicate. *)

val plan_query :
  module_:Ast.module_ -> pred:Symbol.t -> adorn:Ast.adornment -> (plan, string) result
(** Plan the evaluation of one exported query form.  Errors cover
    well-formedness violations and unknown predicates. *)

val pp_plan : Format.formatter -> plan -> unit
