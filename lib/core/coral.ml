module Term = Coral_term.Term
module Value = Coral_term.Value
module Bignum = Coral_term.Bignum
module Symbol = Coral_term.Symbol
module Bindenv = Coral_term.Bindenv
module Unify = Coral_term.Unify
module Tuple = Coral_rel.Tuple
module Relation = Coral_rel.Relation
module Scan = Coral_rel.Scan
module Index = Coral_rel.Index
module Hash_relation = Coral_rel.Hash_relation
module List_relation = Coral_rel.List_relation
module Ast = Coral_lang.Ast
module Parser = Coral_lang.Parser
module Pretty = Coral_lang.Pretty
module Optimizer = Coral_rewrite.Optimizer
module Engine = Coral_eval.Engine
module Builtin = Coral_eval.Builtin
module Persistent = Coral_storage.Persistent_relation
module Database = Coral_storage.Database

type t = Engine.t

let create ?builtins ?workers () = Engine.create ?builtins ?workers ()
let engine t = t
let of_engine e = e
let set_workers = Engine.set_workers
let workers = Engine.workers

let fact t name terms = ignore (Engine.add_fact t name terms)
let facts t name rows = List.iter (fun row -> fact t name row) rows
let relation t name arity = Engine.base_relation t (Symbol.intern name) arity
let install_relation t name rel = Engine.set_relation t (Symbol.intern name) rel
let consult_text t src = ignore (Engine.consult t src)
let consult_file t path = ignore (Engine.consult_file t path)

let define_predicate t name arity solve =
  Engine.register_foreign t { Builtin.fname = name; farity = arity; fsolve = solve }

let query t src =
  let r = Engine.query_string t src in
  List.map
    (fun row ->
      List.map2
        (fun (v : Term.var) value -> v.Term.vname, value)
        r.Engine.qvars (Array.to_list row))
    r.Engine.rows

let query_rows t src = (Engine.query_string t src).Engine.rows

let call t name args = Engine.call t (Symbol.intern name) args

let exists t src = query_rows t src <> []

let int = Term.int
let str = Term.str
let atom = Term.atom
let double = Term.double
let var = Term.var
let list_ = Term.list_of
let app name args = Term.app (Symbol.intern name) (Array.of_list args)

let define_type ~name ?compare ?hash ?parse ~print () =
  let ops = Value.make_ops ~name ?compare ?hash ?parse ~print () in
  fun payload -> Term.const (Value.opaque ops payload)

exception Cancelled = Engine.Cancelled

let with_cancel = Engine.with_cancel_check
let with_progress = Engine.with_progress
let plan_cache_stats = Engine.plan_cache_stats
let drop_saved = Engine.drop_saved

let why t src =
  match Engine.why t src with
  | Ok text -> text
  | Error e -> "error: " ^ e

let explain_analyze t src =
  match Engine.explain_analyze t src with
  | Ok text -> text
  | Error e -> "error: " ^ e

let explain t src =
  match Parser.query src with
  | Error e -> Format.asprintf "%a" Parser.pp_error e
  | Ok [ Ast.Pos a ] -> begin
    let arity = Array.length a.Ast.args in
    let adorn =
      Array.map
        (fun (arg : Term.t) -> if Term.is_ground arg then Ast.Bound else Ast.Free)
        a.Ast.args
    in
    match Engine.plan_for t ~pred:a.Ast.pred ~arity ~adorn with
    | Ok (plan, _) -> Format.asprintf "%a" Optimizer.pp_plan plan
    | Error e -> "planning error: " ^ e
  end
  | Ok _ -> "explain expects a single positive literal"
