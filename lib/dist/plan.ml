(* Distribution plan: the program as the sharded fixpoint runs it, and
   how each rule behaves.  Which programs distribute is decided by
   Capability (see capability.mli); this module only projects its
   verdict.

   Base relations are replicated on every worker (and the router) and
   derived relations are hash-partitioned on a key argument.  A
   [Linear] rule joins one partitioned delta tuple against replicated
   relations, so it runs on the shard owning that tuple and only the
   head tuples need shipping — the paper's semi-naive rewriting with
   the delta occurrence pushed across a process boundary.  An [Init]
   rule runs on every shard against the replicated EDB; each shard
   keeps only the head tuples it owns and ships nothing, which avoids
   N duplicate derivations crossing the wire.  A [Local] program is
   evaluated by the router on its own full replica: always correct,
   just not scaled out. *)

open Coral

type rule_class =
  | Init  (* no IDB body literal: evaluate everywhere, keep owned heads *)
  | Linear of int  (* index of the one IDB body literal *)

type drule = { rule : Ast.rule; cls : rule_class }

type analysis = {
  idb : (string * int) list;  (* partitioned derived predicates *)
  drules : drule list;
  text : string;  (* the program as shipped to workers: one rule per line *)
}

type verdict =
  | Distributable of analysis
  | Local of string  (* why the router must evaluate on its own replica *)

module Capability = Coral_rewrite.Capability

(* The program distributes iff every predicate does; otherwise the
   first reason in key order says why not. *)
let analyse (modules : Ast.module_ list) (clauses : Ast.rule list) =
  let a = Capability.analyse ~foreign:(fun _ _ -> false) modules clauses in
  match List.find_opt (fun (p : Capability.pred) -> Result.is_error p.distributable) a.preds with
  | Some { Capability.distributable = Error reason; _ } -> Local reason
  | _ ->
    let idb =
      List.map (fun (p : Capability.pred) -> Symbol.name p.sym, p.arity) a.preds
      |> List.sort compare
    in
    let drules =
      List.map
        (fun (r : Capability.rule) ->
          { rule = r.rule; cls = (match r.derived_at with [] -> Init | i :: _ -> Linear i) })
        a.rules
    in
    let text =
      String.concat "" (List.map (fun d -> Pretty.rule_to_string d.rule ^ "\n") drules)
    in
    Distributable { idb; drules; text }

let analyse_engine eng =
  analyse (Engine.module_defs eng) (Engine.interactive_rules eng)

let analyse_text text =
  match Parser.program text with
  | Error e -> Local (Format.asprintf "%a" Parser.pp_error e)
  | Ok items ->
    let modules =
      List.filter_map (function Ast.Module_item m -> Some m | _ -> None) items
    in
    if List.exists (function Ast.Update _ -> true | _ -> false) items then
      (* insert/retract directives mutate the store mid-program; they
         must run on the replica (and dirty the cluster), never ship as
         part of a distributed rule program *)
      Local "program contains insert/retract directives"
    else
      let clauses =
        (* a module fact (path(40, 41). among recursive path rules)
           pretty-prints as a bare fact line, which re-parses as a
           top-level [Fact] item — keep it as an empty-body rule or the
           worker's program silently loses the seed *)
        List.filter_map
          (function
            | Ast.Clause_item r -> Some r
            | Ast.Fact a -> Some { Ast.head = Ast.head_of_atom a; Ast.body = [] }
            | _ -> None)
          items
      in
      analyse modules clauses
