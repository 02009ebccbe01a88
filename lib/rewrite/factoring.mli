open Coral_term
open Coral_lang
(** Context factoring for linear programs (Naughton et al. '89, Kemp et
    al. '90; paper section 4.1).

    For query forms on {e left-linear} programs (every recursive call
    receives the head's bound arguments unchanged) the only subquery
    ever generated is the query itself, so magic rules are dropped
    entirely: exit rules are guarded by the seed and recursive rules run
    as-is.

    For {e right-linear} programs (every recursive call passes the
    head's free arguments through unchanged) answers need not be paired
    with subqueries at all: magic rules compute the reachable subquery
    contexts, answers are produced context-free from exit rules, and one
    reconstitution rule pairs the original seed with the answers.

    A right-linear rewrite answers one query context per evaluation: the
    reconstitution rule pairs {e every} seed with {e every} context-free
    answer, so an instance must never receive a second, distinct seed.
    Left-linear rewrites keep the context in each answer tuple and serve
    any number of seeds.

    [rewrite] returns [None] when the (adorned) program is not linear in
    one of these senses; the optimizer then falls back to Supplementary
    Magic, mirroring CORAL's behaviour of choosing factoring only where
    it applies.  When the program is both, the left-linear rewrite is
    chosen. *)

type linearity = Left_linear | Right_linear

val rewrite : Adorn.t -> (linearity * Magic.result) option