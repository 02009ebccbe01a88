open Coral_term
open Coral_lang
(** Supplementary Magic Templates — CORAL's default rewriting for
    programs that context factoring does not cover (paper section 4.1).

    Like Magic Templates, but the shared join prefixes of a rule are
    materialized in supplementary predicates: for each derived positive
    body literal the rewriting emits one magic rule (deriving the
    subquery) and one supplementary rule (carrying exactly the variables
    that the rest of the rule still needs), so the prefix join is
    computed once instead of once per magic rule plus once in the
    guarded rule.

    [rewrite_goal_id] additionally wraps magic-argument tuples in a
    hash-consed [$goal#p(...)] term (see {!Magic.rewrite_goal_id}). *)

val rewrite : Adorn.t -> Magic.result
val rewrite_goal_id : Adorn.t -> Magic.result