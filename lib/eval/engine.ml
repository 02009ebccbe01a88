open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite
module Obs = Coral_obs.Obs

exception Engine_error of string

(* Per-phase latency histograms: planning/rewriting vs. fixpoint
   evaluation vs. incremental maintenance (extent rebuilds and update
   propagation) vs. the answer path (the top-level join and the rows it
   hands the caller, who prints them as they come), less the module
   evaluations that join calls. *)
let h_rewrite = Obs.histogram "phase.rewrite"
let h_eval = Obs.histogram "phase.eval"
let h_maintain = Obs.histogram "phase.maintain"
let h_emit = Obs.histogram "phase.emit"

let max_call_depth = 256

(* Predicates are keyed by name/arity. *)
let key pred arity = Symbol.name pred ^ "/" ^ string_of_int arity

(* A plan-table entry: a query form's plan and, from the first
   evaluation that needs it, its compiled module structure (paper
   section 5.1: a module is compiled once; each call only instantiates
   it).  The compiled module is immutable, so every engine and read
   view sharing the entry shares it, on any domain.  Readers may race
   to compile a new entry: either result serves. *)
type entry = {
  key : string;
  plan : Optimizer.plan;
  compiled : Module_struct.t option Atomic.t;
}

(* The plan table of one rule generation, keyed module::pred::adorn.
   A plan depends only on its module's rules, so a table lives as long
   as the rules it was planned from: [load_module] and [append_clause]
   install a copy without the replaced module's plans, and every read
   view shares the table of its own rules by reference.  Readers plan
   concurrently, so access is mutexed. *)
type plans = {
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
}

(* A top-level query compiled into the join kernel's form (paper
   section 5.1): the anonymous rule [query(V1, ..., Vk) :- body] over
   the query's variables in occurrence order.  Slot [i] of an
   evaluation's relations holds the [i]th relation the body reads
   ([c_reads]: how each body predicate resolved at compile, in slot
   order).  It holds no relation, so one value serves every engine and
   read view; each evaluation binds its own. *)
type compiled = {
  c_vars : Term.var list;  (* the head's variables, numbered as the body uses them *)
  c_rule : Module_struct.crule;
  c_reads : (Symbol.t * int * Module_struct.target) list;
  c_scan : bool;  (* one positive literal over pairwise-distinct variables *)
}

(* A query's literals and, from its first evaluation, its compiled
   rule; the serving layer keeps one per query text. *)
type form = {
  f_lits : Ast.literal list;
  f_code : compiled option Atomic.t;
}

(* The entries of one query's forms, looked up once by the serving
   layer, with the table they came from: evaluation on an engine of the
   same rule generation uses them instead of looking again. *)
type prepared = {
  p_plans : plans;
  p_entries : entry list;
  p_form : form;
}

type t = {
  base : (string, Relation.t) Hashtbl.t;
  foreigns : (string, Builtin.foreign) Hashtbl.t;
  mutable modules : Ast.module_ list;
  mutable plans : plans;
  saved : (string, Fixpoint.t) Hashtbl.t;  (* save-module instances *)
  mutable user_rules : Ast.rule list;  (* the implicit interactive module *)
  mutable call_depth : int;
  plan_hits : int Atomic.t;  (* plan lookups answered from the table *)
  plan_misses : int Atomic.t;  (* plan lookups that ran the optimizer *)
  compiles : int Atomic.t;  (* module structures and query rules compiled *)
  mutable prepared : entry list;  (* the current query's prepared forms *)
  mutable eval_ns : int;  (* time in outermost module evaluations, for phase.emit *)
  mutable cancel : (unit -> bool) option;
      (* ambient cancellation check, installed into every fixpoint
         instance this engine runs (including cached saved instances) *)
  mutable progress : (rounds:int -> delta:int -> lanes:int array -> unit) option;
      (* ambient live-progress hook, installed alongside the cancel
         check (the active-query registry's per-iteration feed) *)
  mutable workers : int;  (* domain-pool width for new fixpoint instances *)
  mutable backjump : bool;  (* intelligent backtracking (bench ablation E16) *)
  mutable maint : Maintain.t option;
      (* incremental view maintenance, enabled by [set_maintenance]:
         materialized extents of maintainable derived predicates, kept
         live under insert_facts/retract_facts *)
  exts : (string, Relation.t) Hashtbl.t;
      (* frozen maintained extents; populated only in read views (the
         live engine serves extents through [maint]) *)
  wants : (string, Index.spec list) Hashtbl.t;
      (* index choice (paper sections 4.2, 5.5.1), keyed like [base]:
         the specs module loads chose for stored predicates plus those
         read views forwarded.  Written on the write lane only; empty in
         read views *)
  index_requests : (string * Index.spec) list Atomic.t;
      (* specs a read view's compile asked of frozen relations that
         lack them; shared by reference with every read view, drained
         into [wants] by [snapshot] *)
}

let wanted t k = Option.value ~default:[] (Hashtbl.find_opt t.wants k)

(* A stored relation is created with the indexes loaded modules chose
   for it, so consulting a program before its facts still indexes. *)
let base_relation t pred arity =
  let k = key pred arity in
  match Hashtbl.find_opt t.base k with
  | Some rel -> rel
  | None ->
    let rel = Hash_relation.create ~indexes:(wanted t k) ~name:(Symbol.name pred) ~arity () in
    Hashtbl.add t.base k rel;
    rel

(* Record a wanted index and build it on the stored relation, if one
   exists (write lane only). *)
let want t k spec =
  let have = wanted t k in
  if not (List.exists (Index.spec_equal spec) have) then
    Hashtbl.replace t.wants k (have @ [ spec ]);
  Option.iter (fun rel -> Relation.add_index rel spec) (Hashtbl.find_opt t.base k)

let with_plans p f =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) (fun () -> f p.table)

(* Save-module instances are the only derived state a base change
   outdates; every base change drops them all. *)
let drop_saved t = Hashtbl.reset t.saved

(* CORAL_WORKERS sets the default parallel width for every engine in
   the process (the --workers server flag overrides per database). *)
let default_workers () =
  match Sys.getenv_opt "CORAL_WORKERS" with
  | Some s -> ( try max 1 (min 64 (int_of_string (String.trim s))) with _ -> 1)
  | None -> 1

(* One tick cell per rulebase: pipelined resolution polls the engine's
   ambient cancellation check every [Fixpoint.tick_interval] solved
   atoms, mirroring the per-instance budgets of materialized
   evaluation. *)
let engine_tick t =
  let budget = ref Fixpoint.tick_interval in
  fun () ->
    match t.cancel with
    | None -> ()
    | Some check ->
      decr budget;
      if !budget <= 0 then begin
        budget := Fixpoint.tick_interval;
        if check () then raise Fixpoint.Cancelled
      end

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance                                       *)
(* ------------------------------------------------------------------ *)

(* A program change (consult, load_module, add_clause, a replaced
   relation) outdates the maintained extents wholesale; the next update
   or snapshot rebuilds them. *)
let touch_maintenance t =
  match t.maint with
  | Some m -> Maintain.invalidate m
  | None -> ()

(* Build the extents if stale; only a real rebuild is timed. *)
let ensure_maintained m =
  if Maintain.stale m then Obs.Histogram.time h_maintain (fun () -> Maintain.ensure m)

let set_maintenance t flag =
  match t.maint, flag with
  | Some _, true | None, false -> ()
  | Some _, false -> t.maint <- None
  | None, true ->
    t.maint <-
      Some
        (Maintain.create
           { Maintain.src_modules = (fun () -> t.modules);
             src_user_rules = (fun () -> t.user_rules);
             src_relation = (fun pred arity -> Hashtbl.find_opt t.base (key pred arity));
             src_foreign = (fun pred arity -> Hashtbl.mem t.foreigns (key pred arity));
             src_tick = engine_tick t
           })

let maintenance_enabled t = t.maint <> None

let maintenance_fallbacks t =
  match t.maint with
  | Some m ->
    ensure_maintained m;
    Maintain.fallbacks m
  | None -> []

let maintenance_info t =
  match t.maint with
  | Some m ->
    Some (Maintain.maintained_count m, Maintain.refreshes m, List.length (Maintain.fallbacks m))
  | None -> None

(* The maintained extent serving a derived predicate, if any: the
   frozen copy in a read view, else the live maintenance instance's
   (built on demand). *)
let extent_of t pred arity =
  match Hashtbl.find_opt t.exts (key pred arity) with
  | Some _ as r -> r
  | None -> begin
    match t.maint with
    | Some m ->
      ensure_maintained m;
      Maintain.extent m pred arity
    | None -> None
  end

(* ------------------------------------------------------------------ *)
(* Updates                                                            *)
(* ------------------------------------------------------------------ *)

(* Per-update accounting surfaced to the serving layer. *)
type update_report = {
  ur_applied : int;  (* facts stored (insert) / removed (retract) *)
  ur_noop : int;  (* duplicates (insert) / missing (retract) *)
  ur_derived : int;
  ur_deleted : int;
  ur_rederived : int;
  ur_rounds : int;
  ur_maintained : bool;  (* propagated incrementally vs. recompute-on-read *)
}

let no_stats = { Maintain.u_derived = 0; u_deleted = 0; u_rederived = 0; u_rounds = 0 }

let is_ground_fact (_, args) = Array.for_all Term.is_ground args

(* Run a maintenance pass, timed under phase.maintain; if it dies
   mid-flight the extents may be torn, so the instance self-heals by
   invalidating (the next update rebuilds from scratch) before the
   error propagates. *)
let guarded m f =
  try Obs.Histogram.time h_maintain f with
  | e ->
    Maintain.invalidate m;
    raise e

let insert_facts t facts =
  let applied = ref 0 and noop = ref 0 in
  let stored =
    List.filter
      (fun (pred, args) ->
        if Relation.insert_terms (base_relation t pred (Array.length args)) args then begin
          incr applied;
          true
        end
        else begin
          incr noop;
          false
        end)
      facts
  in
  let stats =
    match t.maint with
    | Some m when stored <> [] ->
      let ground, nonground = List.partition is_ground_fact stored in
      (* a non-ground stored tuple is outside the delta model *)
      if nonground <> [] then Maintain.invalidate m;
      if ground <> [] && not (Maintain.stale m) then
        guarded m (fun () -> Maintain.insert m ground)
      else no_stats
    | _ -> no_stats
  in
  if stored <> [] then drop_saved t;
  { ur_applied = !applied;
    ur_noop = !noop;
    ur_derived = stats.Maintain.u_derived;
    ur_deleted = stats.Maintain.u_deleted;
    ur_rederived = stats.Maintain.u_rederived;
    ur_rounds = stats.Maintain.u_rounds;
    ur_maintained = t.maint <> None
  }

let delete_stored_fact t pred args =
  match Hashtbl.find_opt t.base (key pred (Array.length args)) with
  | Some rel ->
    let target = Tuple.of_terms args in
    Relation.delete rel ~pattern:(args, Bindenv.empty) (fun tu -> Tuple.equal tu target)
  | None -> 0

let retract_facts t facts =
  let removed, missing, stats =
    match t.maint with
    | Some m when not (Maintain.stale m) ->
      let ground, nonground = List.partition is_ground_fact facts in
      let removed, missing, stats =
        if ground <> [] then guarded m (fun () -> Maintain.retract m ground)
        else 0, 0, no_stats
      in
      (* non-ground retracts delete directly and outdate the extents *)
      let removed = ref removed and missing = ref missing in
      if nonground <> [] then begin
        Maintain.invalidate m;
        List.iter
          (fun (pred, args) ->
            let n = delete_stored_fact t pred args in
            if n > 0 then removed := !removed + n else incr missing)
          nonground
      end;
      !removed, !missing, stats
    | _ ->
      touch_maintenance t;
      let removed = ref 0 and missing = ref 0 in
      List.iter
        (fun (pred, args) ->
          let n = delete_stored_fact t pred args in
          if n > 0 then removed := !removed + n else incr missing)
        facts;
      !removed, !missing, no_stats
  in
  if removed > 0 then drop_saved t;
  { ur_applied = removed;
    ur_noop = missing;
    ur_derived = stats.Maintain.u_derived;
    ur_deleted = stats.Maintain.u_deleted;
    ur_rederived = stats.Maintain.u_rederived;
    ur_rounds = stats.Maintain.u_rounds;
    ur_maintained = t.maint <> None
  }

let create ?(builtins = true) ?workers () =
  let t =
    { base = Hashtbl.create 64;
      foreigns = Hashtbl.create 16;
      modules = [];
      plans = { table = Hashtbl.create 32; lock = Mutex.create () };
      saved = Hashtbl.create 16;
      user_rules = [];
      call_depth = 0;
      plan_hits = Atomic.make 0;
      plan_misses = Atomic.make 0;
      compiles = Atomic.make 0;
      prepared = [];
      eval_ns = 0;
      cancel = None;
      progress = None;
      workers = (match workers with Some w -> max 1 (min 64 w) | None -> default_workers ());
      backjump = true;
      maint = None;
      exts = Hashtbl.create 1;
      wants = Hashtbl.create 16;
      index_requests = Atomic.make []
    }
  in
  if builtins then
    List.iter
      (fun f -> Hashtbl.replace t.foreigns (f.Builtin.fname ^ "/" ^ string_of_int f.Builtin.farity) f)
      Builtin.stock;
  (* Update predicates with side effects (paper section 5.2: pipelining
     "guarantees a particular evaluation strategy and order of
     execution ... programmers can exploit this guarantee and use
     predicates like updates that involve side-effects"). *)
  let fact_of args env =
    match Unify.resolve args.(0) env with
    | Term.App a when Term.is_ground (Term.App a) ->
      Some (a.Term.sym, a.Term.args, Term.App a)
    | _ -> None
  in
  Hashtbl.replace t.foreigns "assert/1"
    { Builtin.fname = "assert";
      farity = 1;
      fsolve =
        (fun args env ->
          match fact_of args env with
          | Some (pred, fargs, whole) ->
            (* the maintenance-aware path, so rule-driven asserts keep
               the materialized extents consistent too *)
            ignore (insert_facts t [ pred, fargs ]);
            Seq.return [| whole |]
          | None -> Seq.empty)
    };
  Hashtbl.replace t.foreigns "retract/1"
    { Builtin.fname = "retract";
      farity = 1;
      fsolve =
        (fun args env ->
          match fact_of args env with
          | Some (pred, fargs, whole) ->
            let rep = retract_facts t [ pred, fargs ] in
            if rep.ur_applied > 0 then Seq.return [| whole |] else Seq.empty
          | None -> Seq.empty)
    };
  t

let set_relation t pred rel =
  Hashtbl.replace t.base (key pred rel.Relation.arity) rel;
  touch_maintenance t;
  drop_saved t

let relation_of t pred arity = Hashtbl.find_opt t.base (key pred arity)

(* Bulk-load seam: marks the extents stale (rebuilt lazily) rather than
   propagating per fact. *)
let store_fact t pred args =
  touch_maintenance t;
  drop_saved t;
  Relation.insert_terms (base_relation t pred (Array.length args)) args

let add_fact t name terms = store_fact t (Symbol.intern name) (Array.of_list terms)

let register_foreign t f =
  Hashtbl.replace t.foreigns (f.Builtin.fname ^ "/" ^ string_of_int f.Builtin.farity) f;
  touch_maintenance t

let foreign_of t pred arity = Hashtbl.find_opt t.foreigns (key pred arity)

(* ------------------------------------------------------------------ *)
(* Modules                                                            *)
(* ------------------------------------------------------------------ *)

let user_module t =
  let heads =
    List.map
      (fun (r : Ast.rule) -> r.Ast.head.Ast.hpred, Array.length r.Ast.head.Ast.hargs)
      t.user_rules
    |> List.sort_uniq compare
  in
  { Ast.mname = "user";
    exports =
      List.map
        (fun (p, n) -> { Ast.epred = p; arity = n; adorn = Array.make n Ast.Free })
        heads;
    annotations = [];
    rules = t.user_rules
  }

(* The module exporting a predicate.  Any head predicate of the
   interactive module counts as exported from it. *)
let exporter t pred arity =
  let explicit =
    List.find_opt
      (fun (m : Ast.module_) ->
        List.exists
          (fun (e : Ast.export) -> Symbol.equal e.Ast.epred pred && e.Ast.arity = arity)
          m.Ast.exports)
      t.modules
  in
  match explicit with
  | Some m -> Some m
  | None ->
    if
      List.exists
        (fun (r : Ast.rule) ->
          Symbol.equal r.Ast.head.Ast.hpred pred
          && Array.length r.Ast.head.Ast.hargs = arity)
        t.user_rules
    then Some (user_module t)
    else None

(* A new rule generation: replacing module [mname] installs a copy of
   the plan table without its plans ("mname::" keys, the "::why" ones
   included).  Views pinned to the old rules keep the old table, so a
   plan is never shared across rule sets. *)
let replace_rules t mname =
  let prefix = mname ^ "::" in
  let table = with_plans t.plans Hashtbl.copy in
  Hashtbl.filter_map_inplace
    (fun k p -> if String.starts_with ~prefix k then None else Some p)
    table;
  t.plans <- { table; lock = Mutex.create () };
  drop_saved t;
  touch_maintenance t

let append_clause t (r : Ast.rule) =
  t.user_rules <- t.user_rules @ [ r ];
  replace_rules t "user"

let module_of_pred t pred arity = exporter t pred arity

(* What a body predicate outside a module's own rules resolves to: the
   stored facts of a predicate ([p@base], the bridge of
   [bridge_base_facts], names [p]'s), another module's export, or a
   foreign predicate; unknown predicates are stored. *)
type source =
  | Stored of Symbol.t
  | Exported of Ast.module_
  | Host of Builtin.foreign

let source_of t pred arity =
  let name = Symbol.name pred in
  if String.ends_with ~suffix:"@base" name && String.length name > 5 then
    Stored (Symbol.intern (String.sub name 0 (String.length name - 5)))
  else begin
    match module_of_pred t pred arity with
    | Some m -> Exported m
    | None -> begin
      match foreign_of t pred arity with
      | Some f -> Host f
      | None -> Stored pred
    end
  end

let plan_key (m : Ast.module_) pred adorn =
  m.Ast.mname ^ "::" ^ Symbol.name pred ^ "::" ^ Ast.adornment_to_string adorn

(* A predicate can be defined by rules AND hold stored base facts
   (common for the interactive module).  Bridge rules make the stored
   facts visible to materialized evaluation: p(X..) :- p@base(X..),
   where the p@base name resolves to the engine's base relation. *)
let bridge_base_facts (m : Ast.module_) =
  let heads =
    List.map
      (fun (r : Ast.rule) -> r.Ast.head.Ast.hpred, Array.length r.Ast.head.Ast.hargs)
      m.Ast.rules
    |> List.sort_uniq compare
  in
  let bridges =
    List.map
      (fun (p, n) ->
        let args = Array.init n (fun i -> Term.var ~name:("B" ^ string_of_int i) i) in
        { Ast.head = Ast.head_of_atom { Ast.pred = p; args };
          body = [ Ast.Pos { Ast.pred = Symbol.intern (Symbol.name p ^ "@base"); args } ]
        })
      heads
  in
  { m with Ast.rules = m.Ast.rules @ bridges }

let plan_in_module ?(key_suffix = "") t (m : Ast.module_) pred adorn =
  let k = plan_key m pred adorn ^ key_suffix in
  match List.find_opt (fun e -> String.equal e.key k) t.prepared with
  | Some e -> Ok (e, `Hit)
  | None -> begin
    let plans = t.plans in
    match with_plans plans (fun tbl -> Hashtbl.find_opt tbl k) with
    | Some e ->
      Atomic.incr t.plan_hits;
      Ok (e, `Hit)
    | None -> begin
      Atomic.incr t.plan_misses;
      match
        Obs.Histogram.time h_rewrite (fun () ->
            Obs.Span.with_ "rewrite.plan"
              ~attrs:(fun () -> [ "pred", Symbol.name pred ])
              (fun () -> Optimizer.plan_query ~module_:(bridge_base_facts m) ~pred ~adorn))
      with
      | Ok plan ->
        (* two readers may race to plan the same form: last write wins,
           and both computed the same plan from the same rules *)
        let e = { key = k; plan; compiled = Atomic.make None } in
        with_plans plans (fun tbl -> Hashtbl.replace tbl k e);
        Ok (e, `Miss)
      | Error e -> Error e
    end
  end

let entry_for t ~pred ~arity ~adorn =
  match module_of_pred t pred arity with
  | Some m -> plan_in_module t m pred adorn
  | None -> Error (Printf.sprintf "no module exports %s/%d" (Symbol.name pred) arity)

let plan_for t ~pred ~arity ~adorn =
  Result.map (fun (e, tag) -> e.plan, tag) (entry_for t ~pred ~arity ~adorn)

let adornment_of (args : Term.t array) =
  Array.map (fun a -> if Term.is_ground a then Ast.Bound else Ast.Free) args

let form lits = { f_lits = lits; f_code = Atomic.make None }
let form_lits f = f.f_lits

(* Look each positive literal's form up once, as a call of it will:
   [`Hit] when every form was planned already, [`Miss] when one was
   planned now, [`Unplanned] when no literal names a module export. *)
let prepare t form =
  let lits = form.f_lits in
  let plans = t.plans in
  let entries =
    List.filter_map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a -> begin
          match
            entry_for t ~pred:a.Ast.pred ~arity:(Array.length a.Ast.args)
              ~adorn:(adornment_of a.Ast.args)
          with
          | Ok found -> Some found
          | Error _ -> None (* base/foreign literal: nothing to prepare *)
        end
        | Ast.Neg _ | Ast.Cmp _ | Ast.Is _ -> None)
      lits
  in
  let tag =
    if entries = [] then `Unplanned
    else if List.for_all (fun (_, tag) -> tag = `Hit) entries then `Hit
    else `Miss
  in
  { p_plans = plans; p_entries = List.map fst entries; p_form = form }, tag

(* Index choice at module load (paper sections 4.2, 5.5.1): plan every
   exported form of a materialized module, which also fills the plan
   table, and keep the indexes its rewritten rules and @make_index
   annotations choose on stored predicates.  Base relations existing
   now get them at once; later ones at creation; every later epoch
   freezes with them.  Nothing is compiled and no relation is created.
   Forms no export names (a bound query on an interactive rule, a call
   with a new adornment) reach the write lane through [snapshot]. *)
let choose_indexes t (m : Ast.module_) =
  if not (List.mem Ast.Ann_pipelined m.Ast.annotations) then
    List.iter
      (fun (e : Ast.export) ->
        match plan_in_module t m e.Ast.epred e.Ast.adorn with
        | Error _ -> () (* the query reports it *)
        | Ok (e, _) ->
          List.iter
            (fun (pred, arity, spec) ->
              match source_of t pred arity with
              | Stored p -> want t (key p arity) spec
              | Exported _ | Host _ -> ())
            (Module_struct.plan_indexes e.plan))
      m.Ast.exports

let load_module t (m : Ast.module_) =
  match Wellformed.errors (Wellformed.check_module m) with
  | [] ->
    t.modules <- m :: List.filter (fun (m' : Ast.module_) -> m'.Ast.mname <> m.Ast.mname) t.modules;
    replace_rules t m.Ast.mname;
    choose_indexes t m;
    Ok ()
  | errs ->
    Error (String.concat "\n" (List.map (fun i -> Format.asprintf "%a" Wellformed.pp_issue i) errs))

let add_clause t r =
  append_clause t r;
  choose_indexes t (user_module t)

(* ------------------------------------------------------------------ *)
(* Module calls                                                       *)
(* ------------------------------------------------------------------ *)

(* Seed an instance with the query's bound arguments (the magic seed,
   or its goal-id wrapping). *)
let add_query_seed inst (plan : Optimizer.plan) (args : Term.t array) =
  match plan.Optimizer.seed with
  | Some s ->
    let bound = Array.of_list (List.map (fun i -> args.(i)) s.Optimizer.seed_positions) in
    let seed =
      if s.Optimizer.goal_id then
        [| Term.app (Magic.goal_wrapper plan.Optimizer.answer_pred) bound |]
      else bound
    in
    ignore (Fixpoint.add_seed inst seed)
  | None -> ()

let rec call_module t (m : Ast.module_) pred args env : Tuple.t Seq.t =
  if t.call_depth > max_call_depth then
    raise (Engine_error "module call depth exceeded (recursive module invocation?)");
  let pipelined = List.mem Ast.Ann_pipelined m.Ast.annotations in
  if pipelined then Pipeline.answers (rulebase_of t m) pred args env
  else begin
    let resolved = Array.map (fun a -> Unify.resolve a env) args in
    let adorn = adornment_of resolved in
    match plan_in_module t m pred adorn with
    | Error e -> raise (Engine_error e)
    | Ok (entry, _) ->
      let plan = entry.plan in
      let inst =
        if plan.Optimizer.save_module then begin
          let k = plan_key m pred adorn in
          match Hashtbl.find_opt t.saved k with
          | Some inst -> inst
          | None ->
            let inst =
              Fixpoint.create ~workers:t.workers ~backjump:t.backjump (instance t entry)
            in
            Hashtbl.add t.saved k inst;
            inst
        end
        else Fixpoint.create ~workers:t.workers ~backjump:t.backjump (instance t entry)
      in
      add_query_seed inst plan resolved;
      let pattern = resolved, Bindenv.empty in
      if plan.Optimizer.lazy_eval then begin
        (* answers surface at the end of every iteration *)
        let rec go () : Tuple.t Seq.node =
          Seq.append
            (Fixpoint.new_answers inst ~pattern ())
            (fun () ->
              let progressed = protected_step t inst in
              if progressed then go ()
              else (Fixpoint.new_answers inst ~pattern ()) ())
            ()
        in
        Seq.memoize go
      end
      else begin
        protected_run t inst;
        Relation.scan (Fixpoint.answer_relation inst) ~pattern ()
      end
  end

and protected_run t inst = evaluate t inst Fixpoint.run
and protected_step t inst = evaluate t inst Fixpoint.step

(* Run [f] on a fixpoint instance under phase.eval.  The cancel check
   and progress hook are installed on every run, so cached save-module
   instances pick up the current request's deadline (and drop the
   previous one's).  An outermost evaluation's time also accumulates in
   [eval_ns], which the answer path subtracts from its own. *)
and evaluate : 'a. t -> Fixpoint.t -> (Fixpoint.t -> 'a) -> 'a =
 fun t inst f ->
  let depth = t.call_depth in
  t.call_depth <- depth + 1;
  Fixpoint.set_cancel_check inst t.cancel;
  Fixpoint.set_progress inst t.progress;
  let t0 = Obs.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      t.call_depth <- depth;
      let dt = Obs.now_ns () - t0 in
      Obs.Histogram.observe_ns h_eval dt;
      if depth = 0 then t.eval_ns <- t.eval_ns + dt)
    (fun () -> f inst)

(* A relation whose scans call another module: the uniform
   get-next-tuple interface of section 5.6. *)
and module_call_relation t (m : Ast.module_) pred arity =
  let scan ~from_mark ~to_mark ~pattern =
    ignore to_mark;
    if from_mark > 0 then Seq.empty
    else begin
      match pattern with
      | Some (args, env) -> call_module t m pred args env
      | None ->
        let free = Array.init arity (fun i -> Term.var ~name:("Q" ^ string_of_int i) i) in
        call_module t m pred free (Bindenv.create (max arity 1))
    end
  in
  Relation.v ~name:(Symbol.name pred) ~arity
    { Relation.i_insert = (fun ~dedup:_ _ -> false);
      i_delete = (fun ~pattern:_ _ -> 0);
      i_retire = (fun _ -> ());
      i_mark = (fun () -> 0);
      i_marks = (fun () -> 0);
      i_cardinal = (fun () -> 0);
      i_add_index = (fun _ -> ());
      i_indexes = (fun () -> []);
      i_scan = scan;
      i_iter = Relation.iter_of_scan scan;
      i_mem = (fun _ -> false);
      i_clear = (fun () -> ());
      (* a scan runs a whole module evaluation against live engine
         state; there is no immutable view to capture *)
      i_freeze = (fun () -> None)
    }

(* Predicate resolution for compiled modules: another module's export
   beats a foreign predicate beats a base relation. *)
and provider t pred arity =
  match source_of t pred arity with
  | Stored p -> Module_struct.P_rel (base_relation t p arity)
  | Exported m' -> begin
    (* a maintained extent answers a cross-module literal directly,
       without a nested module evaluation *)
    match extent_of t pred arity with
    | Some ext -> Module_struct.P_rel ext
    | None -> Module_struct.P_rel (module_call_relation t m' pred arity)
  end
  | Host f -> Module_struct.P_foreign f

(* An evaluation of a plan-table entry: its compiled module, compiled
   now if no evaluation has needed it yet (or if a predicate no longer
   resolves as it did then), instantiated over this engine's
   relations. *)
and instance t (e : entry) =
  let resolve = provider t in
  let compile () =
    Atomic.incr t.compiles;
    let code = Module_struct.compile ~resolve e.plan in
    Atomic.set e.compiled (Some code);
    code
  in
  let code = match Atomic.get e.compiled with Some code -> code | None -> compile () in
  match Module_struct.instantiate ~resolve code with
  | Some inst -> inst
  | None -> Option.get (Module_struct.instantiate ~resolve (compile ()))

(* Pipelined modules resolve their body predicates the same way, except
   that predicates defined by the module's own rules resolve to those
   rules (tried in source order after stored facts). *)
and rulebase_of t (m : Ast.module_) =
  { Pipeline.rules_of =
      (fun pred arity ->
        List.filter
          (fun (r : Ast.rule) ->
            Symbol.equal r.Ast.head.Ast.hpred pred
            && Array.length r.Ast.head.Ast.hargs = arity)
          m.Ast.rules);
    relation_of =
      (fun pred arity ->
        let local =
          List.exists
            (fun (r : Ast.rule) ->
              Symbol.equal r.Ast.head.Ast.hpred pred
              && Array.length r.Ast.head.Ast.hargs = arity)
            m.Ast.rules
        in
        if local then Hashtbl.find_opt t.base (key pred arity)
        else begin
          match module_of_pred t pred arity with
          | Some m' when m'.Ast.mname <> m.Ast.mname -> begin
            match extent_of t pred arity with
            | Some ext -> Some ext
            | None -> Some (module_call_relation t m' pred arity)
          end
          | _ -> Hashtbl.find_opt t.base (key pred arity)
        end);
    foreign_of = (fun pred arity -> foreign_of t pred arity);
    tick = engine_tick t
  }

(* ------------------------------------------------------------------ *)
(* Top-level queries                                                  *)
(* ------------------------------------------------------------------ *)

type query_result = {
  qvars : Term.var list;
  rows : Term.t array list;
}

(* What a top-level literal reads, resolved as a pipelined caller
   would: a module export its maintained extent when it has one, else a
   call on the module (binding propagation into the call, and its magic
   rewriting, comes from the pattern the join hands the scan); a foreign
   predicate its function; anything else the stored relation. *)
type top_source =
  | T_stored of Relation.t  (* a base relation or a maintained extent *)
  | T_call of Relation.t  (* [module_call_relation] *)
  | T_fn of Builtin.foreign

let top_source t pred arity =
  match module_of_pred t pred arity with
  | Some m -> begin
    match extent_of t pred arity with
    | Some ext -> T_stored ext
    | None -> T_call (module_call_relation t m pred arity)
  end
  | None -> begin
    match foreign_of t pred arity with
    | Some f -> T_fn f
    | None -> T_stored (base_relation t pred arity)
  end

(* The query rule's head predicate.  It is never stored or looked up,
   so any symbol serves; one interned at startup is used because
   interning a new one would shift the ids of every symbol interned
   after it, and with them the order in which hash tables (aggregate
   groups) hand out answers. *)
let query_pred = Symbol.nil

let literal_terms (lit : Ast.literal) =
  match lit with
  | Ast.Pos a | Ast.Neg a -> a.Ast.args
  | Ast.Cmp (_, a, b) | Ast.Is (a, b) -> [| a; b |]

(* A query's literals with their variables numbered densely in
   occurrence order, those variables, and how many there are. *)
let number_query lits =
  let renumbered, nvars = Rename.number_term_lists (List.map literal_terms lits) in
  let lits =
    List.map2
      (fun lit args ->
        match (lit : Ast.literal) with
        | Ast.Pos a -> Ast.Pos { a with Ast.args }
        | Ast.Neg a -> Ast.Neg { a with Ast.args }
        | Ast.Cmp (op, _, _) -> Ast.Cmp (op, args.(0), args.(1))
        | Ast.Is (_, _) -> Ast.Is (args.(0), args.(1)))
      lits renumbered
  in
  let qvars =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun arr -> List.concat_map Term.vars (Array.to_list arr)) renumbered
    |> List.filter (fun (v : Term.var) ->
           (not (Hashtbl.mem seen v.Term.vid))
           && begin
             Hashtbl.add seen v.Term.vid ();
             true
           end)
  in
  lits, qvars, nvars

(* Compile a query's literals as [query(V1, ..., Vk) :- lits], its
   variables numbered as the interpreter numbers them.  No index is
   installed: a probe uses the indexes its relation already carries, so
   rows come in the order a scan of the relation hands them. *)
let compile_query t lits =
  Atomic.incr t.compiles;
  let lits, vars, _ = number_query lits in
  let read pred arity (p, n, _) = Symbol.equal p pred && n = arity in
  let reads = ref [] and nrels = ref 0 in
  List.iter
    (fun lit ->
      match Ast.literal_atom lit with
      | Some a when not (List.exists (read a.Ast.pred (Array.length a.Ast.args)) !reads) ->
        let arity = Array.length a.Ast.args in
        let target =
          match top_source t a.Ast.pred arity with
          | T_fn f -> Module_struct.Fn f
          | T_stored _ | T_call _ ->
            incr nrels;
            Module_struct.Slot (!nrels - 1)
        in
        reads := (a.Ast.pred, arity, target) :: !reads
      | Some _ | None -> ())
    lits;
  let reads = List.rev !reads in
  let target pred arity =
    match List.find_opt (read pred arity) reads with
    | Some (_, _, target) -> target
    | None -> Module_struct.Slot 0 (* the head: rows never reach a relation *)
  in
  let head =
    Ast.head_of_atom
      { Ast.pred = query_pred; args = Array.of_list (List.map (fun v -> Term.Var v) vars) }
  in
  let rule =
    Module_struct.compile_rule ~index:(fun _ _ -> ()) ~target { Ast.head; body = lits }
  in
  let scan =
    match lits, rule.Module_struct.body with
    | [ Ast.Pos _ ], [| Module_struct.Scan { args; _ } |] ->
      Array.length args = Array.length rule.Module_struct.head_args
      && Array.for_all (function Term.Var _ -> true | _ -> false) args
    | _ -> false
  in
  { c_vars = vars; c_rule = rule; c_reads = reads; c_scan = scan }

(* This engine's relations for a compiled query's slots, and whether
   its rows need no deduplication: a whole-tuple scan of a stored set
   relation hands each stored tuple once, and a set stores no tuple
   twice.  [None] when a predicate no longer resolves as it did at
   compile (a module now exports it, a foreign predicate was
   registered): recompile. *)
let bind t c =
  let distinct = ref c.c_scan in
  let rec go rels = function
    | [] -> Some (Array.of_list (List.rev rels), !distinct)
    | (pred, arity, target) :: rest -> begin
      match (target : Module_struct.target), top_source t pred arity with
      | Module_struct.Slot _, T_stored rel ->
        if rel.Relation.multiset then distinct := false;
        go (rel :: rels) rest
      | Module_struct.Slot _, T_call rel ->
        distinct := false;
        go (rel :: rels) rest
      | Module_struct.Fn f, T_fn f' when f == f' -> go rels rest
      | (Module_struct.Slot _ | Module_struct.Fn _), (T_stored _ | T_call _ | T_fn _) -> None
    end
  in
  go [] c.c_reads

let code_for t form =
  let fresh () =
    let c = compile_query t form.f_lits in
    Atomic.set form.f_code (Some c);
    c, Option.get (bind t c)
  in
  match Atomic.get form.f_code with
  | None -> fresh ()
  | Some c -> begin
    match bind t c with
    | Some b -> c, b
    | None -> fresh ()
  end

(* Run a compiled query through the join kernel, handing [emit] each
   distinct row once, in first-seen order.  A ground row is built in a
   scratch array and handed on as it is when rows cannot repeat.
   Otherwise rows are deduplicated on their resolved terms, as the
   interpreter did (a relation's duplicate check would also merge a
   non-ground row into a more general one); a kept row keeps its array,
   so the scratch is replaced. *)
let run_compiled t form start =
  let c, (rels, distinct) = code_for t form in
  let emit = start c.c_vars in
  let rule = c.c_rule in
  let k = Array.length rule.Module_struct.head_args in
  let seen = if distinct then None else Some (Term.ArrayTbl.create 16) in
  let scratch = ref (Array.make k Term.nil) in
  let on_match env =
    let row =
      if Joiner.ground_head rule env !scratch then !scratch
      else Array.map (fun a -> Unify.resolve a env) rule.Module_struct.head_args
    in
    match seen with
    | None -> emit row
    | Some seen ->
      if not (Term.ArrayTbl.mem seen row) then begin
        Term.ArrayTbl.add seen row ();
        if row == !scratch then scratch := Array.make k Term.nil;
        emit row
      end
  in
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.now_ns () else 0 and e0 = t.eval_ns in
  (* the candidates this join visits are the rows themselves: the
     tuples-visited counter keeps measuring rule evaluation *)
  Joiner.run ~rels ~range:Joiner.full_range ~backjump:t.backjump ~visited:(ref 0)
    ~tick:(engine_tick t) rule ~on_match;
  if timed then Obs.Histogram.observe_ns h_emit (Obs.now_ns () - t0 - (t.eval_ns - e0))

(* The top level as a pipelined caller whose literals resolve as
   [top_source] says: the interpreter that serves queries calling the
   update builtins, whose side effects must happen in the order
   pipelining guarantees (paper section 5.2). *)
let solve_updates t lits start =
  let lits, qvars, nvars = number_query lits in
  let rb =
    { Pipeline.rules_of = (fun _ _ -> []);
      relation_of =
        (fun pred arity ->
          match top_source t pred arity with
          | T_stored rel | T_call rel -> Some rel
          | T_fn _ -> None);
      foreign_of =
        (fun pred arity ->
          match top_source t pred arity with
          | T_fn f -> Some f
          | T_stored _ | T_call _ -> None);
      tick = engine_tick t
    }
  in
  let emit = start qvars in
  let env = Bindenv.create (max nvars 1) in
  let seen_rows = Term.ArrayTbl.create 16 in
  Pipeline.solve rb lits ~nvars ~env (fun () ->
      let row = Array.of_list (List.map (fun v -> Unify.resolve (Term.Var v) env) qvars) in
      if not (Term.ArrayTbl.mem seen_rows row) then begin
        Term.ArrayTbl.add seen_rows row ();
        emit row
      end)

let calls_update lits =
  List.exists
    (fun (lit : Ast.literal) ->
      match lit with
      | Ast.Pos a | Ast.Neg a ->
        let n = Symbol.name a.Ast.pred in
        (n = "assert" || n = "retract") && Array.length a.Ast.args = 1
      | Ast.Cmp _ | Ast.Is _ -> false)
    lits

let answer ?prepared t lits start =
  let outer = t.prepared in
  let form =
    match prepared with
    | Some p ->
      if p.p_plans == t.plans then t.prepared <- p.p_entries;
      if p.p_form.f_lits == lits then p.p_form else form lits
    | None -> form lits
  in
  Fun.protect
    ~finally:(fun () -> t.prepared <- outer)
    (fun () -> if calls_update lits then solve_updates t lits start else run_compiled t form start)

let query ?prepared t lits =
  let qvars = ref [] and rows = ref [] in
  answer ?prepared t lits (fun vars ->
      qvars := vars;
      fun row -> rows := Array.copy row :: !rows);
  { qvars = !qvars; rows = List.rev !rows }

let query_string t src =
  match Parser.query src with
  | Ok lits -> query t lits
  | Error e -> raise (Engine_error (Format.asprintf "%a" Parser.pp_error e))

(* Does a candidate tuple unify with a pattern of constants and
   variables?  Scans hand out candidate supersets; a direct call, the
   explanation tool and explain analyze filter them with this. *)
let matches args =
  let tr = Trail.create () and qenv = Bindenv.create (max 1 (Array.length args)) in
  fun (tuple : Tuple.t) ->
    let m = Trail.mark tr in
    let tenv =
      if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
    in
    let hit = Unify.unify_arrays tr args qenv tuple.Tuple.terms tenv in
    Trail.undo_to tr m;
    hit

let call t pred args =
  let arity = Array.length args in
  let filter seq = Seq.filter (matches args) seq in
  match module_of_pred t pred arity with
  | Some m -> begin
    match extent_of t pred arity with
    | Some ext -> filter (Relation.scan ext ~pattern:(args, Bindenv.empty) ())
    | None -> filter (call_module t m pred args Bindenv.empty)
  end
  | None -> begin
    match Hashtbl.find_opt t.base (key pred arity) with
    | Some rel -> filter (Relation.scan rel ~pattern:(args, Bindenv.empty) ())
    | None -> Seq.empty
  end

(* ------------------------------------------------------------------ *)
(* Consulting program text                                            *)
(* ------------------------------------------------------------------ *)

let consult t src =
  match Parser.program src with
  | Error e -> raise (Engine_error (Format.asprintf "%a" Parser.pp_error e))
  | Ok items ->
    let results = ref [] in
    (* the interactive module's indexes are chosen once, not per clause *)
    let clauses = ref false in
    List.iter
      (fun item ->
        match (item : Ast.item) with
        | Ast.Fact a -> ignore (store_fact t a.Ast.pred a.Ast.args)
        | Ast.Update (Ast.Upd_insert, a) -> ignore (insert_facts t [ a.Ast.pred, a.Ast.args ])
        | Ast.Update (Ast.Upd_retract, a) -> ignore (retract_facts t [ a.Ast.pred, a.Ast.args ])
        | Ast.Module_item m -> begin
          match load_module t m with
          | Ok () -> ()
          | Error e -> raise (Engine_error e)
        end
        | Ast.Clause_item r ->
          append_clause t r;
          clauses := true
        | Ast.Query lits -> results := (lits, query t lits) :: !results
        | Ast.Command (name, _) ->
          raise (Engine_error (Printf.sprintf "unknown command @%s (commands are interpreted by the shell)" name)))
      items;
    if !clauses then choose_indexes t (user_module t);
    List.rev !results

let consult_file t path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  consult t src

(* ------------------------------------------------------------------ *)
(* The explanation tool                                               *)
(* ------------------------------------------------------------------ *)

(* Derivation trees are rendered over the rewritten program: rewrite-
   generated relations (magic, supplementary, done) are elided from the
   tree, and adorned predicate names map back to their source names. *)
let why t src =
  match Parser.query src with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok [ Ast.Pos a ] -> begin
    let arity = Array.length a.Ast.args in
    let lit = Term.to_string (Term.app a.Ast.pred a.Ast.args) in
    match module_of_pred t a.Ast.pred arity with
    | None -> begin
      (* Not derived by any module: answer in one clear line rather
         than erroring — either it is a base fact, a base relation
         with no matching fact, or entirely unknown. *)
      match Hashtbl.find_opt t.base (key a.Ast.pred arity) with
      | None ->
        Ok
          (Printf.sprintf
             "nothing known about %s/%d: no module exports it and no facts are stored.\n"
             (Symbol.name a.Ast.pred) arity)
      | Some _ ->
        if Seq.is_empty (call t a.Ast.pred a.Ast.args) then
          Ok
            (Printf.sprintf "no derivation: %s matches no stored %s/%d fact.\n" lit
               (Symbol.name a.Ast.pred) arity)
        else Ok (Printf.sprintf "%s is a base fact: stored directly, not derived.\n" lit)
    end
    | Some m when List.mem Ast.Ann_pipelined m.Ast.annotations ->
      Error "explanations require a materialized module"
    | Some m -> begin
      let adorn = adornment_of a.Ast.args in
      (* Trees are drawn from the facts a plan materializes.  Context
         factoring derives no intermediate source-level facts (no
         path(2, 4) under path(1, 4)), so unless the module names its
         rewriting, explain with supplementary magic — under a key of
         its own, so the serving plan stays cached as it is. *)
      let names_rewriting =
        List.exists (function Ast.Ann_rewriting _ -> true | _ -> false) m.Ast.annotations
      in
      let m, key_suffix =
        if names_rewriting then m, ""
        else
          ( { m with
              Ast.annotations = Ast.Ann_rewriting Ast.Supplementary_magic :: m.Ast.annotations
            },
            "::why" )
      in
      match plan_in_module ~key_suffix t m a.Ast.pred adorn with
      | Error e -> Error e
      | Ok (entry, _) ->
        let plan = entry.plan in
        let inst = Fixpoint.create ~trace:true (instance t entry) in
        add_query_seed inst plan a.Ast.args;
        protected_run t inst;
        let ms = Fixpoint.module_structure inst in
        let source_name slot =
          let name = ms.Module_struct.rels.(slot).Relation.name in
          match
            List.assoc_opt (Symbol.intern name) plan.Optimizer.origin
          with
          | Some (orig, _) -> Symbol.name orig
          | None -> name
        in
        let generated slot =
          slot < 0
          ||
          let name = ms.Module_struct.rels.(slot).Relation.name in
          String.length name > 1
          && (String.sub name 0 2 = "m#"
             || (String.length name > 3 && String.sub name 0 4 = "sup#")
             || (String.length name > 4 && String.sub name 0 5 = "done#")
             || (String.length name > 6 && String.sub name 0 7 = "m_seed#"))
        in
        let buf = Buffer.create 512 in
        (* supplementary facts (materialized join prefixes) expand
           transparently into their own witnesses; magic/done facts are
           relevance information, not derivation steps, and are dropped *)
        let is_sup slot =
          slot >= 0
          &&
          let name = ms.Module_struct.rels.(slot).Relation.name in
          String.length name > 3 && String.sub name 0 4 = "sup#"
        in
        let rec expand_witnesses seen ws =
          List.concat_map
            (fun (s, (tu : Tuple.t)) ->
              if s < 0 then []
              else if not (generated s) then [ s, tu ]
              else if not (is_sup s) then [] (* magic/done/seed: relevance only *)
              else if List.exists (fun (s', tu') -> s' = s && Tuple.equal tu' tu) seen then []
              else begin
                match Fixpoint.provenance inst tu ~slot:s with
                | Some (_, inner) -> expand_witnesses ((s, tu) :: seen) inner
                | None -> []
              end)
            ws
        in
        let rec render indent slot (tuple : Tuple.t) seen =
          Buffer.add_string buf
            (Printf.sprintf "%s%s%s\n" indent (source_name slot) (Tuple.to_string tuple));
          let cyclic =
            List.exists (fun (s, tu) -> s = slot && Tuple.equal tu tuple) seen
          in
          if not cyclic then begin
            match Fixpoint.provenance inst tuple ~slot with
            | None -> () (* base fact: a leaf *)
            | Some (rule_text, witnesses) ->
              Buffer.add_string buf (Printf.sprintf "%s  by  %s\n" indent rule_text);
              List.iter
                (fun (ws, wt) -> render (indent ^ "    ") ws wt ((slot, tuple) :: seen))
                (expand_witnesses [] witnesses)
          end
        in
        let count = ref 0 and hit = matches a.Ast.args in
        Seq.iter
          (fun (tuple : Tuple.t) ->
            if hit tuple && !count < 5 then begin
              incr count;
              render "" ms.Module_struct.code.Module_struct.answer_slot tuple []
            end)
          (Relation.scan (Fixpoint.answer_relation inst) ~pattern:(a.Ast.args, Bindenv.empty) ());
        if !count = 0 then
          Ok
            (Printf.sprintf "no derivation: %s is not among the answers of module %s.\n" lit
               m.Ast.mname)
        else Ok (Buffer.contents buf)
    end
  end
  | Ok _ -> Error "why expects a single positive literal"

(* ------------------------------------------------------------------ *)
(* explain analyze                                                     *)
(* ------------------------------------------------------------------ *)

let fmt_ns ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

(* Run the query on a fresh profiled fixpoint and render the rewritten
   program annotated with what actually happened: per-rule derivation
   attempts, the derived/duplicate split, candidate tuples enumerated,
   and time; then the step deltas and the derivation accounting.  The
   per-rule derived counts sum to the engine's rule-derivation counter
   (computed independently from relation insert totals) — the report
   prints both so a mismatch is visible. *)
let explain_analyze t src =
  match Parser.query src with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok [ Ast.Pos a ] -> begin
    let arity = Array.length a.Ast.args in
    match module_of_pred t a.Ast.pred arity with
    | None -> Error (Printf.sprintf "no module exports %s/%d" (Symbol.name a.Ast.pred) arity)
    | Some m when List.mem Ast.Ann_pipelined m.Ast.annotations ->
      Error "explain analyze requires a materialized module"
    | Some m -> begin
      let adorn = adornment_of a.Ast.args in
      match plan_in_module t m a.Ast.pred adorn with
      | Error e -> Error e
      | Ok (entry, _) ->
        let plan = entry.plan in
        let t0 = Obs.now_ns () in
        let inst = Fixpoint.create ~profile:true (instance t entry) in
        add_query_seed inst plan a.Ast.args;
        protected_run t inst;
        let elapsed = Obs.now_ns () - t0 in
        let buf = Buffer.create 1024 in
        Buffer.add_string buf
          (Printf.sprintf "query: %s\nplan: mode=%s, fixpoint=%s%s%s\n" src
             (match plan.Optimizer.mode with
             | Optimizer.Materialized -> "materialized"
             | Optimizer.Pipelined -> "pipelined")
             (match plan.Optimizer.fixpoint with
             | Ast.Basic_seminaive -> "basic semi-naive"
             | Ast.Predicate_seminaive -> "predicate semi-naive"
             | Ast.Naive -> "naive"
             | Ast.Ordered_search -> "ordered search")
             (if plan.Optimizer.ordered_search then ", ordered-search context" else "")
             (match plan.Optimizer.seed with
             | Some s -> ", seed " ^ Symbol.name s.Optimizer.seed_pred
             | None -> ""));
        List.iter
          (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n))
          plan.Optimizer.notes;
        Buffer.add_string buf "rules (rewritten program):\n";
        let rules = Fixpoint.profiled_rules inst in
        let rules_derived = ref 0 in
        List.iteri
          (fun i ((c : Module_struct.crule), (p : Module_struct.rule_prof)) ->
            rules_derived := !rules_derived + p.Module_struct.rp_derived;
            Buffer.add_string buf
              (Printf.sprintf "  [%2d] attempts=%d derived=%d dup=%d tuples=%d time=%s\n"
                 (i + 1) p.Module_struct.rp_attempts p.Module_struct.rp_derived
                 p.Module_struct.rp_dups p.Module_struct.rp_tuples
                 (fmt_ns p.Module_struct.rp_time_ns));
            Buffer.add_string buf (Printf.sprintf "       %s\n" c.Module_struct.text))
          rules;
        let deltas = Fixpoint.step_deltas inst in
        Buffer.add_string buf
          (Printf.sprintf "steps: %d productive, rounds: %d, deltas:%s\n"
             (List.length deltas) (Fixpoint.rounds inst)
             (String.concat "" (List.map (fun d -> " " ^ string_of_int d) deltas)));
        Buffer.add_string buf
          (Printf.sprintf "derivations: rules=%d engine=%d (seeds=%d context=%d done=%d)\n"
             !rules_derived (Fixpoint.rule_derivations inst) (Fixpoint.seed_inserts inst)
             (Fixpoint.context_inserts inst) (Fixpoint.done_inserts inst));
        Buffer.add_string buf
          (Printf.sprintf "tuples_visited: %d\n"
             (List.fold_left
                (fun n (_, (p : Module_struct.rule_prof)) -> n + p.Module_struct.rp_visited)
                0 rules));
        (* matching answers vs. everything the answer relation holds *)
        let matching =
          Seq.length
            (Seq.filter (matches a.Ast.args)
               (Relation.scan (Fixpoint.answer_relation inst) ~pattern:(a.Ast.args, Bindenv.empty) ()))
        in
        Buffer.add_string buf
          (Printf.sprintf "answers: %d matching of %d stored, total time %s\n" matching
             (Relation.cardinal (Fixpoint.answer_relation inst))
             (fmt_ns elapsed));
        Ok (Buffer.contents buf)
    end
  end
  | Ok _ -> Error "explain analyze expects a single positive literal"

(* ------------------------------------------------------------------ *)
(* Serving hooks: prepared-plan accounting and cancellation            *)
(* ------------------------------------------------------------------ *)

exception Cancelled = Fixpoint.Cancelled

(* Scoped installation of the ambient check.  Nesting restores the
   outer check on exit, and instance-side tick budgets are reset when
   the check is (re)installed into them, so an inner scope can never
   consume an outer scope's polling budget. *)
let with_cancel_check t check f =
  let prev = t.cancel in
  t.cancel <- Some check;
  Fun.protect ~finally:(fun () -> t.cancel <- prev) f

(* Same scoping as [with_cancel_check]: the hook feeds the active-query
   registry with live per-iteration progress while [f] evaluates. *)
let with_progress t hook f =
  let prev = t.progress in
  t.progress <- Some hook;
  Fun.protect ~finally:(fun () -> t.progress <- prev) f

let plan_cache_stats t = Atomic.get t.plan_hits, Atomic.get t.plan_misses
let compile_count t = Atomic.get t.compiles

let plan_cache_size t = with_plans t.plans Hashtbl.length

(* ------------------------------------------------------------------ *)
(* Snapshot read views (MVCC)                                          *)
(* ------------------------------------------------------------------ *)

(* A [view] is everything a reader needs to evaluate queries against a
   committed version of the database without touching the live engine:
   frozen base relations, the module/rule lists as of the snapshot
   (immutable values, shared by reference), and the plan table of those
   rules, shared by reference with the live engine and every other view
   of the same rules.  Build one with [snapshot] under the writer lane; spin up a
   per-request engine from it with [read_view] — that clone is private
   mutable state (call depth, cancellation, save-module instances), so
   any number of requests can evaluate the same view concurrently. *)
type view = {
  rv_rels : (string, Relation.t) Hashtbl.t;  (* frozen wrappers *)
  rv_exts : (string, Relation.t) Hashtbl.t;  (* frozen maintained extents *)
  rv_foreigns : (string, Builtin.foreign) Hashtbl.t;
  rv_modules : Ast.module_ list;
  rv_user_rules : Ast.rule list;
  rv_plans : plans;
  rv_hits : int Atomic.t;  (* the engine's counters, shared *)
  rv_misses : int Atomic.t;
  rv_compiles : int Atomic.t;
  rv_requests : (string * Index.spec) list Atomic.t;  (* the engine's, shared *)
  rv_workers : int;
  rv_backjump : bool;
}

let read_only_foreign name =
  { Builtin.fname = name;
    farity = 1;
    fsolve =
      (fun _ _ ->
        raise
          (Engine_error
             (name
            ^ "/1 mutates the database and is unavailable in a snapshot read; \
               route updates through insert or consult")))
  }

(* A read view's index miss: a frozen relation asked for a spec it does
   not carry.  Readers only push onto the shared atomic list; a spec
   already wanted when the view froze is not forwarded again (its
   relation cannot carry it), and a pending one is not duplicated. *)
let forward_misses t k =
  let known = wanted t k in
  fun spec ->
    if not (List.exists (Index.spec_equal spec) known) then begin
      let rec push () =
        let pending = Atomic.get t.index_requests in
        if
          not
            (List.exists (fun (k', s') -> k' = k && Index.spec_equal s' spec) pending)
          && not (Atomic.compare_and_set t.index_requests pending ((k, spec) :: pending))
        then push ()
      in
      push ()
    end

let index_requests_pending t = Atomic.get t.index_requests <> []

(* Freeze every base relation into an immutable wrapper.  Returns None
   when any relation has no lock-free view (persistent relations,
   whose scans do buffer-pool I/O): the serving layer then falls back
   to the locked lane for reads.  Call under the writer lane — the
   snapshot must not race inserts.  Index misses forwarded by earlier
   views become wants first, so this epoch freezes with them. *)
let snapshot t =
  List.iter (fun (k, spec) -> want t k spec) (List.rev (Atomic.exchange t.index_requests []));
  let rels = Hashtbl.create (max 16 (Hashtbl.length t.base)) in
  let ok =
    Hashtbl.fold
      (fun k rel ok ->
        ok
        &&
        match Relation.freeze ~on_miss:(forward_misses t k) rel with
        | Some fr ->
          Hashtbl.add rels k fr;
          true
        | None -> false)
      t.base true
  in
  if not ok then None
  else begin
    (* maintained extents freeze alongside the base relations, so
       readers of this epoch serve maintained predicates directly *)
    let exts = Hashtbl.create 16 in
    (match t.maint with
    | Some m ->
      ensure_maintained m;
      List.iter
        (fun (k, rel) ->
          (* extents are rebuilt by maintenance, so wants are reapplied *)
          List.iter (Relation.add_index rel) (wanted t k);
          match Relation.freeze ~on_miss:(forward_misses t k) rel with
          | Some fr -> Hashtbl.add exts k fr
          | None -> ())
        (Maintain.extents m)
    | None -> ());
    let foreigns = Hashtbl.copy t.foreigns in
    (* reads must not mutate: the side-effecting update predicates of
       paper section 5.2 stay available on the write lane only *)
    Hashtbl.replace foreigns "assert/1" (read_only_foreign "assert");
    Hashtbl.replace foreigns "retract/1" (read_only_foreign "retract");
    Some
      { rv_rels = rels;
        rv_exts = exts;
        rv_foreigns = foreigns;
        rv_modules = t.modules;
        rv_user_rules = t.user_rules;
        rv_plans = t.plans;
        rv_hits = t.plan_hits;
        rv_misses = t.plan_misses;
        rv_compiles = t.compiles;
        rv_requests = t.index_requests;
        rv_workers = t.workers;
        rv_backjump = t.backjump
      }
  end

let read_view v =
  { (* private copy: [base_relation] lazily adds empty relations for
       unknown predicates, and that must not race other readers *)
    base = Hashtbl.copy v.rv_rels;
    foreigns = v.rv_foreigns;
    modules = v.rv_modules;
    plans = v.rv_plans;
    (* save-module instances are per-request in snapshot mode: caching
       them across requests would share mutable fixpoint state *)
    saved = Hashtbl.create 4;
    user_rules = v.rv_user_rules;
    call_depth = 0;
    plan_hits = v.rv_hits;
    plan_misses = v.rv_misses;
    compiles = v.rv_compiles;
    prepared = [];
    eval_ns = 0;
    cancel = None;
    progress = None;
    workers = v.rv_workers;
    backjump = v.rv_backjump;
    maint = None;
    (* shared by reference: frozen wrappers are immutable and the view
       outlives every reader of its epoch *)
    exts = v.rv_exts;
    wants = Hashtbl.create 1;
    index_requests = v.rv_requests
  }

let list_relations t =
  Hashtbl.fold (fun k rel acc -> (k, Relation.cardinal rel) :: acc) t.base []
  |> List.sort compare

let base_relations t =
  Hashtbl.fold (fun k rel acc -> (k, rel) :: acc) t.base []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, (rel : Relation.t)) ->
         Symbol.intern (String.sub k 0 (String.rindex k '/')), rel.Relation.arity, rel)

let list_modules t = List.map (fun (m : Ast.module_) -> m.Ast.mname) t.modules

(* The full definitions (newest-first, matching [load_module]'s
   replacement order) plus the interactive module's rules: what a
   distribution planner needs to re-analyse the whole program after a
   consult, without tracking consulted text separately. *)
let module_defs t = t.modules
let interactive_rules t = t.user_rules

(* Per-engine evaluation knobs.  Both are baked into fixpoint instances
   at creation, so cached save-module instances are dropped: they would
   otherwise keep the old setting (their derived state is recomputed on
   demand, exactly as after a base change). *)
let set_intelligent_backtracking t flag =
  if t.backjump <> flag then begin
    t.backjump <- flag;
    drop_saved t
  end

let set_workers t n =
  let n = max 1 (min 64 n) in
  if t.workers <> n then begin
    t.workers <- n;
    drop_saved t
  end

let workers t = t.workers

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>base relations:@,";
  Hashtbl.iter
    (fun k rel ->
      Format.fprintf ppf "  %s: %d tuples, %d scans@," k (Relation.cardinal rel)
        rel.Relation.stats.Relation.scans)
    t.base;
  Format.fprintf ppf "modules loaded: %d, plans cached: %d, saved instances: %d@]"
    (List.length t.modules)
    (plan_cache_size t)
    (Hashtbl.length t.saved)
