(** Compiled module structures (paper section 5.1).

    "The compilation of a materialized module generates an internal
    module structure that consists of a list of structures corresponding
    to the strongly connected components of the module, and each SCC
    structure contains structures corresponding to semi-naive rewritten
    versions of rules.  These semi-naive rule structures have fields
    that specify the argument lists of each body literal, ... evaluation
    order information, pre-computed backtrack points, and precomputed
    offsets into a table of relations."

    Compilation renumbers each rule's variables densely, resolves every
    predicate to a relation slot (local derived relations, or externally
    provided base / foreign / other-module relations through the
    [resolve] callback), generates the semi-naive rule versions, installs
    the automatically selected indexes, and attaches aggregate-selection
    admission hooks. *)

open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

(** Mark-range role of a body literal in a semi-naive rule version. *)
type role =
  | Full  (** external relation: everything, including the open interval *)
  | All  (** local relation, before the delta literal: [\[0, M)] *)
  | Delta  (** the delta literal: [\[cursor, M)] *)
  | Old  (** local relation, after the delta literal: [\[0, cursor)] *)

type op =
  | Scan of { slot : int; args : Term.t array; local : bool }
  | Negcheck of { slot : int; args : Term.t array }
  | Foreign of { f : Builtin.foreign; args : Term.t array }
  | Negforeign of { f : Builtin.foreign; args : Term.t array }
  | Compare of Ast.cmp_op * Term.t * Term.t
  | Assign of Term.t * Term.t  (** [T1 = T2]: evaluate and unify *)

(** Per-rule evaluation profile, filled when a fixpoint runs with
    profiling on (explain analyze): successful body matches, the
    derived/duplicate split of the resulting head inserts, candidate
    tuples enumerated across the rule's joins (foreign answer rows
    included), the tuples its scans and negation checks handed the join
    (the rule's share of {!Coral_rel.Relation.tuples_visited}), and
    evaluation time. *)
type rule_prof = {
  mutable rp_attempts : int;
  mutable rp_derived : int;
  mutable rp_dups : int;
  mutable rp_tuples : int;
  mutable rp_visited : int;
  mutable rp_time_ns : int;
}

val fresh_prof : unit -> rule_prof
val reset_prof : rule_prof -> unit

type crule = {
  head_slot : int;
  head_args : Term.t array;
  plain_positions : int list;  (** head columns that are not aggregated *)
  agg_positions : (int * Ast.agg_op) list;  (** aggregated head columns *)
  body : op array;
  nvars : int;
  backtrack : int array;
      (** intelligent-backtracking target per body position: the latest
          earlier position sharing a variable, or -1 *)
  cursors : int array;
      (** per-local-positive-literal consumed marks (semi-naive state);
          -1 at non-versionable positions *)
  text : string;
  prof : rule_prof;
}

type stratum = {
  srules : crule list;  (** plain rules of this stratum *)
  agg_rules : crule list;  (** aggregate-head rules, evaluated set-at-a-time *)
  versions : (crule * int) list;
      (** semi-naive versions: (rule, delta body position) *)
  recursive : bool;
}

type t = {
  rels : Relation.t array;
  slot_of : int Symbol.Tbl.t;
  strata : stratum array;
  answer_slot : int;
  seed_slot : int;  (** -1 when the plan has no seed *)
  plan : Optimizer.plan;
  local : bool array;  (** per slot: owned by this module structure *)
}

type provider =
  | P_rel of Relation.t  (** base relation or another module's export *)
  | P_foreign of Builtin.foreign

(** What a literal's predicate resolves to in a caller's compilation. *)
type target =
  | Slot of int  (** a relation in the caller's [rels] array *)
  | Fn of Builtin.foreign

val compile_rule :
  rels:Relation.t array ->
  target:(Symbol.t -> int -> target) ->
  ?delta:int * int ->
  Ast.rule ->
  crule
(** Compile one rule against the caller's slot resolution, for
    {!Joiner.run} over [rels]; no plan is involved.  Every scan reads
    its whole relation ([range] decides).  With [delta = (i, slot)]
    the result is an {e activation}: positive body literal [i] scans
    [rels.(slot)] first, then the rest of the body runs in source
    order.  Like {!compile}, it installs on [rels] the indexes the
    joins probe (paper section 4.2): a literal gets an argument-form
    index on the positions bound before it runs, unless that is every
    position or none.
    @raise Invalid_argument if the head resolves to a foreign
    predicate or the delta literal is not positive. *)

val compile : resolve:(Symbol.t -> int -> provider) -> Optimizer.plan -> t
(** [resolve pred arity] supplies every predicate that is neither a rule
    head of the plan nor rewrite-generated ([#] in its name). *)

val plan_indexes : Optimizer.plan -> (Symbol.t * int * Index.spec) list
(** The indexes {!compile} would install on the relations [resolve]
    supplies, without compiling, in the order it installs them (the
    order probes try them): the pattern-form index of every
    [@make_index] naming a predicate the plan does not own, then each
    rule's SIP choices on such predicates, in join order.  Entries are
    [(predicate, arity, spec)]; the engine keeps those on stored
    predicates when it loads a module. *)

val slot : t -> Symbol.t -> int option
val relation : t -> Symbol.t -> Relation.t option

val all_rules : t -> crule list
(** Every distinct compiled rule, in stratum order (a rule with several
    semi-naive versions appears once). *)
