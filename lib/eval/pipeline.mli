(** Pipelined evaluation: top-down, tuple-at-a-time (paper section 5.2).

    "When rule evaluation is invoked, using the get-next-tuple
    interface, it generates an answer (if there is one) and transfers
    control back to the consumer of answers.  Control is transferred
    back to the (suspended) rule evaluation when more answers are
    desired."  Here the consumer is a callback: the producer hands it
    each answer as it is found and carries on only if the callback asks
    for more, so the rest of the computation waits on the stack instead
    of in a stored continuation, and a consumer that has seen enough
    stops the producer.

    Rules are tried in the order they appear in the module; body
    literals run left to right; negation is negation-as-failure.  Facts
    are used on the fly and never stored, at the potential cost of
    recomputation, and recursion behaves like Prolog (left recursion
    diverges) — both faithful to CORAL's pipelining. *)

open Coral_term
open Coral_rel

type rulebase = {
  rules_of : Symbol.t -> int -> Coral_lang.Ast.rule list;
      (** this module's rules for a predicate, in source order *)
  relation_of : Symbol.t -> int -> Relation.t option;
      (** base facts / other modules' exports (scans may recurse) *)
  foreign_of : Symbol.t -> int -> Builtin.foreign option;
  tick : unit -> unit;
      (** counted once per solved atom; the engine wires this to its
          ambient cancellation check so pipelined evaluation honours
          deadlines like materialized evaluation does *)
}

val solve :
  rulebase -> Coral_lang.Ast.literal list -> nvars:int -> env:Bindenv.t -> (unit -> unit) -> unit
(** Depth-first resolution of a renumbered literal list; the
    continuation runs once per solution with the bindings in [env]. *)

val answers :
  rulebase -> Symbol.t -> Term.t array -> Bindenv.t -> (Tuple.t -> bool) -> unit
(** [answers rb pred args env f] hands [f] the answers to a
    single-predicate query, each as soon as it is derived, until [f]
    returns false, which abandons the rest of the search. *)

exception Pipeline_error of string
