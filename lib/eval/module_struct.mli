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

(** How one argument of a scanned literal meets the term at the same
    position of a ground stored tuple: the join kernel's compiled
    match, which needs no trail and binds in place. *)
type arg_match =
  | Bind of int  (** first occurrence of this variable: bind it to the term *)
  | Equal of Term.t  (** a ground argument: the term must equal it *)
  | Same of int  (** repeats the variable bound at this earlier position *)
  | Bound of int
      (** a variable an earlier literal mentions: compare with its
          value (a value that is not ground takes the unifying path) *)

type op =
  | Scan of { slot : int; args : Term.t array; local : bool; matcher : arg_match array option }
      (** [matcher] is [None] when an argument is a compound with
          variables: then every candidate is unified *)
  | Negcheck of { slot : int; args : Term.t array; matcher : arg_match array option }
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

(** A compiled rule.  It holds no evaluation state: semi-naive cursors
    and profiles live in the {!instance}, at the rule's [rid]. *)
type crule = {
  rid : int;  (** index of the rule's state in an {!instance} *)
  head_slot : int;
  head_args : Term.t array;
  plain_positions : int list;  (** head columns that are not aggregated *)
  agg_positions : (int * Ast.agg_op) list;  (** aggregated head columns *)
  body : op array;
  nvars : int;
  backtrack : int array;
      (** intelligent-backtracking target per body position: the latest
          earlier position sharing a variable, or -1 *)
  text : string;
}

type stratum = {
  srules : crule list;  (** plain rules of this stratum *)
  agg_rules : crule list;  (** aggregate-head rules, evaluated set-at-a-time *)
  versions : (crule * int) list;
      (** semi-naive versions: (rule, delta body position) *)
  recursive : bool;
}

(** How compilation resolved a predicate the plan does not own. *)
type resolved =
  | R_rel of Symbol.t * int * int  (** predicate, arity, its slot *)
  | R_fn of Symbol.t * int * Builtin.foreign

(** A compiled module structure.  It is immutable, so one value serves
    every evaluation of its plan, on any domain; {!instantiate} makes
    the per-evaluation state. *)
type t = {
  slot_of : int Symbol.Tbl.t;
  names : string array;  (** per slot: the relation's name *)
  arities : int array;
  local : bool array;  (** per slot: owned by the module (a fresh relation per instance) *)
  resolved : resolved list;  (** the other predicates, in the order compile resolved them *)
  indexes : (int * Index.spec) list;
      (** the index choices of the joins (paper section 4.2), in install
          order *)
  strata : stratum array;
  rules : crule array;  (** by [rid] *)
  answer_slot : int;
  seed_slot : int;  (** -1 when the plan has no seed *)
  plan : Optimizer.plan;
}

(** One evaluation of a compiled module: its relations and its rules'
    semi-naive cursors and profiles (both by [rid]). *)
type instance = {
  code : t;
  rels : Relation.t array;
  cursors : int array array;
      (** per rule, per body position: the consumed mark of a
          versionable scan, -1 elsewhere *)
  profs : rule_prof array;
}

type provider =
  | P_rel of Relation.t  (** base relation or another module's export *)
  | P_foreign of Builtin.foreign

(** What a literal's predicate resolves to in a caller's compilation. *)
type target =
  | Slot of int  (** a relation in the caller's [rels] array *)
  | Fn of Builtin.foreign

val compile_rule :
  index:(int -> Index.spec -> unit) ->
  target:(Symbol.t -> int -> target) ->
  ?delta:int * int ->
  Ast.rule ->
  crule
(** Compile one rule against the caller's slot resolution, for
    {!Joiner.run} over the caller's relations; no plan is involved.
    Every scan reads its whole relation ([range] decides).  With
    [delta = (i, slot)] the result is an {e activation}: positive body
    literal [i] scans slot [slot] first, then the rest of the body
    runs in source order.  Like {!compile}, it chooses the indexes the
    joins probe (paper section 4.2): a literal gets an argument-form
    index on the positions bound before it runs, unless that is every
    position or none; each choice is handed to [index slot spec], in
    join order, for the caller to install (or not).
    @raise Invalid_argument if the head resolves to a foreign
    predicate or the delta literal is not positive. *)

val compile : resolve:(Symbol.t -> int -> provider) -> Optimizer.plan -> t
(** [resolve pred arity] classifies every predicate that is neither a
    rule head of the plan nor rewrite-generated ([#] in its name) as a
    relation or a foreign predicate.  No relation is created, bound or
    indexed. *)

val instantiate : resolve:(Symbol.t -> int -> provider) -> t -> instance option
(** Fresh relations for the module's own predicates, [resolve]'s
    relations for the others (asked in compile's order), and then, on
    those relations, the plan's annotations (multiset, aggregate
    selections, [@make_index]) and the joins' index choices, in
    compile's order, which is the order probes try them.  A relation
    that cannot build an index (a snapshot view) forwards the spec as
    usual.  [None] when a predicate no longer resolves as it did at
    compile (a foreign predicate registered, replaced or gone since):
    the caller recompiles. *)

val plan_indexes : Optimizer.plan -> (Symbol.t * int * Index.spec) list
(** The indexes {!compile} would install on the relations [resolve]
    supplies, without compiling, in the order it installs them (the
    order probes try them): the pattern-form index of every
    [@make_index] naming a predicate the plan does not own, then each
    rule's SIP choices on such predicates, in join order.  Entries are
    [(predicate, arity, spec)]; the engine keeps those on stored
    predicates when it loads a module. *)

val slot : t -> Symbol.t -> int option
val relation : instance -> Symbol.t -> Relation.t option

val all_rules : t -> crule list
(** Every distinct compiled rule, in stratum order (a rule with several
    semi-naive versions appears once). *)
