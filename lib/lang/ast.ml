(** Abstract syntax of the CORAL declarative language.

    A program is a sequence of modules, top-level facts, queries and
    commands.  Modules export predicates with query forms (adornments),
    carry optional control annotations, and contain Horn rules extended
    with negation, comparison/arithmetic literals, set-grouping and
    aggregation in rule heads. *)

open Coral_term

(** Query-form adornment: which argument positions arrive bound. *)
type binding = Bound | Free

type adornment = binding array

(** Aggregate operations (section 5.5.2 and set-grouping). *)
type agg_op =
  | Min
  | Max
  | Sum
  | Count
  | Avg
  | Any  (** the choice-style [any] used in aggregate selections *)
  | Collect  (** set-grouping [<X>]: collect the group into a list *)

(** Comparison operators usable as body literals. *)
type cmp_op = Lt | Le | Gt | Ge | Eq_cmp | Ne

type atom = { pred : Symbol.t; args : Term.t array }

type literal =
  | Pos of atom
  | Neg of atom  (** [not p(...)]: stratified / ordered-search negation *)
  | Cmp of cmp_op * Term.t * Term.t
      (** arithmetic comparison; both sides are evaluated *)
  | Is of Term.t * Term.t
      (** [T1 = T2]: evaluate both sides as far as possible, unify *)

(** A head argument is either an ordinary term or an aggregate over the
    rule's group (e.g. [s(X, min(C)) :- ...] groups by [X]). *)
type head_arg =
  | Plain of Term.t
  | Agg of agg_op * Term.t

type head = { hpred : Symbol.t; hargs : head_arg array }

type rule = { head : head; body : literal list }

type export = { epred : Symbol.t; arity : int; adorn : adornment }

(** Program rewriting methods (section 4.1).  A module that names none
    gets a per-program choice: context factoring when the query
    predicate is left- or right-linear for the query form, supplementary
    magic otherwise. *)
type rewriting =
  | Supplementary_magic
      (** the default where factoring does not apply, or where a
          [@save_module] (right-linear case), [@multiset] or
          [@aggregate_selection] annotation rules it out *)
  | Magic
  | Supplementary_magic_goal_id
  | Factoring
  | No_rewriting

(** Fixpoint engines for materialized evaluation (sections 4.2, 5.4). *)
type fixpoint =
  | Basic_seminaive  (** the default *)
  | Predicate_seminaive
  | Naive
  | Ordered_search

(** Sideways information passing strategies (paper section 4.1: "the
    rewriting can be tailored to propagate bindings across subgoals in
    a rule body using different subgoal orderings"). *)
type sip =
  | Left_to_right  (** the default *)
  | Max_bound
      (** greedy join-order selection: schedule next the positive
          literal with the most bound argument positions *)

type annotation =
  | Ann_materialized
  | Ann_pipelined
  | Ann_save_module
  | Ann_lazy_eval
  | Ann_rewriting of rewriting
  | Ann_fixpoint of fixpoint
  | Ann_no_existential  (** disable existential query rewriting *)
  | Ann_sip of sip
  | Ann_multiset of Symbol.t * int
  | Ann_aggregate_selection of {
      sel_pred : Symbol.t;
      pattern : Term.t array;
      group_by : Term.t array;  (** variables defining the group *)
      op : agg_op;
      target : Term.t;  (** the argument the aggregate ranges over *)
    }
  | Ann_make_index of {
      idx_pred : Symbol.t;
      pattern : Term.t array;
      keys : Term.t list;  (** variables of [pattern] forming the key *)
    }

type module_ = {
  mname : string;
  exports : export list;
  annotations : annotation list;
  rules : rule list;
}

(** First-class update operations: [insert edge(1, 2).] and
    [retract edge(1, 2).] at top level.  The fact must be ground — an
    update names one tuple, it is not a query — and the engine routes
    both through incremental view maintenance. *)
type update_op = Upd_insert | Upd_retract

type item =
  | Module_item of module_
  | Fact of atom  (** top-level fact for a base relation *)
  | Clause_item of rule  (** top-level rule, outside any module *)
  | Query of literal list
  | Update of update_op * atom  (** [insert f(...).] / [retract f(...).] *)
  | Command of string * Term.t list  (** [@command(arg, ...).] at top level *)

type program = item list

(* ------------------------------------------------------------------ *)
(* Convenience                                                        *)
(* ------------------------------------------------------------------ *)

let atom_of_head h =
  { pred = h.hpred;
    args =
      Array.map (function Plain t -> t | Agg (_, t) -> t) h.hargs
  }

let head_of_atom a = { hpred = a.pred; hargs = Array.map (fun t -> Plain t) a.args }

let head_is_plain h =
  Array.for_all (function Plain _ -> true | Agg _ -> false) h.hargs

let plain_rule hpred hargs body =
  { head = { hpred; hargs = Array.map (fun t -> Plain t) hargs }; body }

let literal_atom = function
  | Pos a | Neg a -> Some a
  | Cmp _ | Is _ -> None

let literal_terms = function
  | Pos a | Neg a -> Array.to_list a.args
  | Cmp (_, t1, t2) | Is (t1, t2) -> [ t1; t2 ]

let head_terms h =
  Array.to_list h.hargs |> List.map (function Plain t | Agg (_, t) -> t)

let rule_terms r = head_terms r.head @ List.concat_map literal_terms r.body

let rule_vars r =
  let seen = Hashtbl.create 16 in
  List.concat_map Term.vars (rule_terms r)
  |> List.filter (fun (v : Term.var) ->
         if Hashtbl.mem seen v.Term.vid then false
         else begin
           Hashtbl.add seen v.Term.vid ();
           true
         end)

let update_op_name = function
  | Upd_insert -> "insert"
  | Upd_retract -> "retract"

let agg_op_name = function
  | Min -> "min"
  | Max -> "max"
  | Sum -> "sum"
  | Count -> "count"
  | Avg -> "avg"
  | Any -> "any"
  | Collect -> "collect"

let agg_op_of_name = function
  | "min" -> Some Min
  | "max" -> Some Max
  | "sum" -> Some Sum
  | "count" -> Some Count
  | "avg" -> Some Avg
  | "any" -> Some Any
  | "collect" -> Some Collect
  | _ -> None

let cmp_op_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq_cmp -> "=="
  | Ne -> "!="

let adornment_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | 'b' -> Bound
      | 'f' -> Free
      | c -> invalid_arg (Printf.sprintf "adornment: bad character %c" c))

let adornment_to_string a =
  String.init (Array.length a) (fun i -> match a.(i) with Bound -> 'b' | Free -> 'f')
