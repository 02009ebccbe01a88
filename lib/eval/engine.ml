open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite
module Obs = Coral_obs.Obs

exception Engine_error of string

(* Per-phase latency histograms: planning/rewriting vs. fixpoint
   evaluation (answer rendering is timed by the emitting layer). *)
let h_rewrite = Obs.histogram "phase.rewrite"
let h_eval = Obs.histogram "phase.eval"

let max_call_depth = 256

(* Predicates are keyed by name/arity. *)
let key pred arity = Symbol.name pred ^ "/" ^ string_of_int arity

type t = {
  base : (string, Relation.t) Hashtbl.t;
  foreigns : (string, Builtin.foreign) Hashtbl.t;
  mutable modules : Ast.module_ list;
  plans : (string, Optimizer.plan) Hashtbl.t;  (* module^pred^adorn *)
  plans_lock : Mutex.t;
      (* snapshot read views share one plan table per published version
         (concurrent readers of the same epoch reuse each other's
         plans), so plan-table access is mutexed everywhere *)
  saved : (string, Fixpoint.t) Hashtbl.t;  (* save-module instances *)
  mutable user_rules : Ast.rule list;  (* the implicit interactive module *)
  mutable call_depth : int;
  plan_hits : int Atomic.t;  (* plan-cache requests answered from t.plans *)
  plan_misses : int Atomic.t;  (* plan-cache requests that ran the optimizer *)
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
}

let base_relation t pred arity =
  let k = key pred arity in
  match Hashtbl.find_opt t.base k with
  | Some rel -> rel
  | None ->
    let rel = Hash_relation.create ~name:(Symbol.name pred) ~arity () in
    Hashtbl.add t.base k rel;
    rel

let with_plans t f =
  Mutex.lock t.plans_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.plans_lock) f

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
(* Incremental view maintenance and scoped invalidation               *)
(* ------------------------------------------------------------------ *)

(* A program change (consult, load_module, add_clause, a replaced
   relation) outdates the maintained extents wholesale; the next update
   or snapshot rebuilds them. *)
let touch_maintenance t =
  match t.maint with
  | Some m -> Maintain.invalidate m
  | None -> ()

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
    Maintain.ensure m;
    Maintain.fallbacks m
  | None -> []

let maintenance_info t =
  match t.maint with
  | Some m -> Some (Maintain.maintained_count m, Maintain.refreshes m)
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
      Maintain.ensure m;
      Maintain.extent m pred arity
    | None -> None
  end

(* Scoped plan invalidation: a base-fact update of predicate p only
   outdates derived state that (transitively) reads p, so only the
   cached plans and save-module instances of p's dependents are
   dropped.  Dependency tracking is by predicate name over the global
   rule soup — conservative (arity-blind) and cheap. *)
let dependent_names t names =
  let rules = List.concat_map (fun (m : Ast.module_) -> m.Ast.rules) t.modules @ t.user_rules in
  let rev = Hashtbl.create 64 in
  (* body predicate name -> head predicate name *)
  List.iter
    (fun (r : Ast.rule) ->
      let h = Symbol.name r.Ast.head.Ast.hpred in
      List.iter
        (fun lit ->
          match Ast.literal_atom lit with
          | Some (a : Ast.atom) -> Hashtbl.add rev (Symbol.name a.Ast.pred) h
          | None -> ())
        r.Ast.body)
    rules;
  let seen = Hashtbl.create 16 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      List.iter go (Hashtbl.find_all rev n)
    end
  in
  List.iter go names;
  seen

(* The predicate segment of a plan/saved key "mname::pred::adorn". *)
let plan_key_pred k =
  let len = String.length k in
  let rec sep i = if i + 1 >= len then None else if k.[i] = ':' && k.[i + 1] = ':' then Some i else sep (i + 1) in
  match sep 0 with
  | None -> None
  | Some i -> begin
    match sep (i + 2) with
    | None -> None
    | Some j -> Some (String.sub k (i + 2) (j - i - 2))
  end

let invalidate_dependents t preds =
  let affected = dependent_names t (List.sort_uniq compare (List.map Symbol.name preds)) in
  let sweep tbl =
    Hashtbl.fold
      (fun k _ acc ->
        match plan_key_pred k with
        | Some p when Hashtbl.mem affected p -> k :: acc
        | _ -> acc)
      tbl []
    |> List.iter (Hashtbl.remove tbl)
  in
  with_plans t (fun () -> sweep t.plans);
  sweep t.saved

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

(* Run a maintenance pass; if it dies mid-flight the extents may be
   torn, so the instance self-heals by invalidating (the next update
   rebuilds from scratch) before the error propagates. *)
let guarded m f =
  try f () with
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
  if stored <> [] then invalidate_dependents t (List.map fst stored);
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
  if removed > 0 then invalidate_dependents t (List.map fst facts);
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
      plans = Hashtbl.create 32;
      plans_lock = Mutex.create ();
      saved = Hashtbl.create 16;
      user_rules = [];
      call_depth = 0;
      plan_hits = Atomic.make 0;
      plan_misses = Atomic.make 0;
      cancel = None;
      progress = None;
      workers = (match workers with Some w -> max 1 (min 64 w) | None -> default_workers ());
      backjump = true;
      maint = None;
      exts = Hashtbl.create 1
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
  touch_maintenance t

let relation_of t pred arity = Hashtbl.find_opt t.base (key pred arity)

(* Bulk-load seam: marks the extents stale (rebuilt lazily) rather than
   propagating per fact. *)
let add_fact t name terms =
  let pred = Symbol.intern name in
  let rel = base_relation t pred (List.length terms) in
  touch_maintenance t;
  Relation.insert_terms rel (Array.of_list terms)

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

let load_module t (m : Ast.module_) =
  match Wellformed.errors (Wellformed.check_module m) with
  | [] ->
    t.modules <- m :: List.filter (fun (m' : Ast.module_) -> m'.Ast.mname <> m.Ast.mname) t.modules;
    (* drop stale plans/instances of a reloaded module *)
    let prefix = m.Ast.mname ^ "::" in
    let stale tbl =
      Hashtbl.fold (fun k _ acc -> if String.starts_with ~prefix k then k :: acc else acc) tbl []
      |> List.iter (Hashtbl.remove tbl)
    in
    with_plans t (fun () -> stale t.plans);
    stale t.saved;
    touch_maintenance t;
    Ok ()
  | errs ->
    Error (String.concat "\n" (List.map (fun i -> Format.asprintf "%a" Wellformed.pp_issue i) errs))

let add_clause t (r : Ast.rule) =
  t.user_rules <- t.user_rules @ [ r ];
  let prefix = "user::" in
  let stale tbl =
    Hashtbl.fold (fun k _ acc -> if String.starts_with ~prefix k then k :: acc else acc) tbl []
    |> List.iter (Hashtbl.remove tbl)
  in
  with_plans t (fun () -> stale t.plans);
  stale t.saved;
  touch_maintenance t

let module_of_pred t pred arity = exporter t pred arity

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
  match with_plans t (fun () -> Hashtbl.find_opt t.plans k) with
  | Some p ->
    Atomic.incr t.plan_hits;
    Ok p
  | None -> begin
    Atomic.incr t.plan_misses;
    match
      Obs.Histogram.time h_rewrite (fun () ->
          Obs.Span.with_ "rewrite.plan"
            ~attrs:(fun () -> [ "pred", Symbol.name pred ])
            (fun () -> Optimizer.plan_query ~module_:(bridge_base_facts m) ~pred ~adorn))
    with
    | Ok p ->
      (* two snapshot readers may race to plan the same form: last
         write wins, and both computed the same plan from the same
         immutable module list *)
      with_plans t (fun () -> Hashtbl.replace t.plans k p);
      Ok p
    | Error e -> Error e
  end

let plan_for t ~pred ~arity ~adorn =
  match module_of_pred t pred arity with
  | Some m -> plan_in_module t m pred adorn
  | None -> Error (Printf.sprintf "no module exports %s/%d" (Symbol.name pred) arity)

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
    let adorn =
      Array.map (fun ra -> if Term.is_ground ra then Ast.Bound else Ast.Free) resolved
    in
    match plan_in_module t m pred adorn with
    | Error e -> raise (Engine_error e)
    | Ok plan ->
      let inst =
        if plan.Optimizer.save_module then begin
          let k = plan_key m pred adorn in
          match Hashtbl.find_opt t.saved k with
          | Some inst -> inst
          | None ->
            let inst =
              Fixpoint.create ~workers:t.workers ~backjump:t.backjump (compile t plan)
            in
            Hashtbl.add t.saved k inst;
            inst
        end
        else Fixpoint.create ~workers:t.workers ~backjump:t.backjump (compile t plan)
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

and protected_run t inst =
  t.call_depth <- t.call_depth + 1;
  (* installed on every run, so cached save-module instances pick up
     the current request's deadline (and drop the previous one's) *)
  Fixpoint.set_cancel_check inst t.cancel;
  Fixpoint.set_progress inst t.progress;
  Fun.protect
    ~finally:(fun () -> t.call_depth <- t.call_depth - 1)
    (fun () -> Obs.Histogram.time h_eval (fun () -> Fixpoint.run inst))

and protected_step t inst =
  t.call_depth <- t.call_depth + 1;
  Fixpoint.set_cancel_check inst t.cancel;
  Fixpoint.set_progress inst t.progress;
  Fun.protect
    ~finally:(fun () -> t.call_depth <- t.call_depth - 1)
    (fun () -> Obs.Histogram.time h_eval (fun () -> Fixpoint.step inst))

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
      i_mem = (fun _ -> false);
      i_clear = (fun () -> ());
      (* a scan runs a whole module evaluation against live engine
         state; there is no immutable view to capture *)
      i_freeze = (fun () -> None)
    }

(* Predicate resolution for compiled modules: another module's export
   beats a foreign predicate beats a base relation. *)
and compile t (plan : Optimizer.plan) =
  let resolve pred arity =
    let name = Symbol.name pred in
    if String.length name > 5 && String.sub name (String.length name - 5) 5 = "@base" then
      Module_struct.P_rel
        (base_relation t (Symbol.intern (String.sub name 0 (String.length name - 5))) arity)
    else begin
      match module_of_pred t pred arity with
    | Some m' -> begin
      (* a maintained extent answers a cross-module literal directly,
         without a nested module evaluation *)
      match extent_of t pred arity with
      | Some ext -> Module_struct.P_rel ext
      | None -> Module_struct.P_rel (module_call_relation t m' pred arity)
    end
    | None -> begin
      match foreign_of t pred arity with
      | Some f -> Module_struct.P_foreign f
      | None -> Module_struct.P_rel (base_relation t pred arity)
    end
    end
  in
  Module_struct.compile ~resolve plan

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

(* The top level behaves like a pipelined caller whose literals resolve
   through module calls, so bindings propagate into each called module
   (and its magic rewriting) left to right. *)
let top_rulebase t =
  { Pipeline.rules_of = (fun _ _ -> []);
    relation_of =
      (fun pred arity ->
        match module_of_pred t pred arity with
        | Some m -> begin
          (* maintained predicates answer top-level literals straight
             from their materialized extent *)
          match extent_of t pred arity with
          | Some ext -> Some ext
          | None -> Some (module_call_relation t m pred arity)
        end
        | None -> Some (base_relation t pred arity));
    foreign_of = (fun pred arity -> foreign_of t pred arity);
    tick = engine_tick t
  }

let query t (lits : Ast.literal list) =
  (* renumber variables densely across the query *)
  let arrays =
    List.map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a | Ast.Neg a -> a.Ast.args
        | Ast.Cmp (_, a, b) | Ast.Is (a, b) -> [| a; b |])
      lits
  in
  let renumbered, nvars = Rename.number_term_lists arrays in
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
           if Hashtbl.mem seen v.Term.vid then false
           else begin
             Hashtbl.add seen v.Term.vid ();
             true
           end)
  in
  let env = Bindenv.create (max nvars 1) in
  let rows = ref [] in
  let seen_rows = Term.ArrayTbl.create 64 in
  Pipeline.solve (top_rulebase t) lits ~nvars ~env (fun () ->
      let row = Array.of_list (List.map (fun v -> Unify.resolve (Term.Var v) env) qvars) in
      if not (Term.ArrayTbl.mem seen_rows row) then begin
        Term.ArrayTbl.add seen_rows row ();
        rows := row :: !rows
      end);
  { qvars; rows = List.rev !rows }

let query_string t src =
  match Parser.query src with
  | Ok lits -> query t lits
  | Error e -> raise (Engine_error (Format.asprintf "%a" Parser.pp_error e))

let call t pred args =
  let arity = Array.length args in
  (* scans return candidate supersets; a direct call filters them *)
  let filter seq =
    let tr = Trail.create () in
    Seq.filter
      (fun (tuple : Tuple.t) ->
        let m = Trail.mark tr in
        let qenv = Bindenv.create 8 in
        let tenv =
          if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
        in
        let hit = Unify.unify_arrays tr args qenv tuple.Tuple.terms tenv in
        Trail.undo_to tr m;
        hit)
      seq
  in
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
    List.iter
      (fun item ->
        match (item : Ast.item) with
        | Ast.Fact a ->
          touch_maintenance t;
          ignore (Relation.insert_terms (base_relation t a.Ast.pred (Array.length a.Ast.args)) a.Ast.args)
        | Ast.Update (Ast.Upd_insert, a) -> ignore (insert_facts t [ a.Ast.pred, a.Ast.args ])
        | Ast.Update (Ast.Upd_retract, a) -> ignore (retract_facts t [ a.Ast.pred, a.Ast.args ])
        | Ast.Module_item m -> begin
          match load_module t m with
          | Ok () -> ()
          | Error e -> raise (Engine_error e)
        end
        | Ast.Clause_item r -> add_clause t r
        | Ast.Query lits -> results := (lits, query t lits) :: !results
        | Ast.Command (name, _) ->
          raise (Engine_error (Printf.sprintf "unknown command @%s (commands are interpreted by the shell)" name)))
      items;
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
      let adorn =
        Array.map (fun arg -> if Term.is_ground arg then Ast.Bound else Ast.Free) a.Ast.args
      in
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
      | Ok plan ->
        let inst = Fixpoint.create ~trace:true (compile t plan) in
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
        let qenv = Bindenv.create 8 in
        let tr = Trail.create () in
        let count = ref 0 in
        Seq.iter
          (fun (tuple : Tuple.t) ->
            let mk = Trail.mark tr in
            let tenv =
              if tuple.Tuple.nvars = 0 then Bindenv.empty
              else Bindenv.create tuple.Tuple.nvars
            in
            let matches = Unify.unify_arrays tr a.Ast.args qenv tuple.Tuple.terms tenv in
            Trail.undo_to tr mk;
            if matches && !count < 5 then begin
              incr count;
              render "" ms.Module_struct.answer_slot tuple []
            end)
          (Relation.scan (Fixpoint.answer_relation inst) ~pattern:(a.Ast.args, qenv) ());
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
      let adorn =
        Array.map (fun arg -> if Term.is_ground arg then Ast.Bound else Ast.Free) a.Ast.args
      in
      match plan_in_module t m a.Ast.pred adorn with
      | Error e -> Error e
      | Ok plan ->
        let t0 = Obs.now_ns () in
        let inst = Fixpoint.create ~profile:true (compile t plan) in
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
          (fun i (c : Module_struct.crule) ->
            let p = c.Module_struct.prof in
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
        (* matching answers vs. everything the answer relation holds *)
        let qenv = Bindenv.create 8 in
        let tr = Trail.create () in
        let matching = ref 0 in
        Seq.iter
          (fun (tuple : Tuple.t) ->
            let mk = Trail.mark tr in
            let tenv =
              if tuple.Tuple.nvars = 0 then Bindenv.empty
              else Bindenv.create tuple.Tuple.nvars
            in
            if Unify.unify_arrays tr a.Ast.args qenv tuple.Tuple.terms tenv then incr matching;
            Trail.undo_to tr mk)
          (Relation.scan (Fixpoint.answer_relation inst) ~pattern:(a.Ast.args, qenv) ());
        Buffer.add_string buf
          (Printf.sprintf "answers: %d matching of %d stored, total time %s\n" !matching
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

let plan_cache_size t = with_plans t (fun () -> Hashtbl.length t.plans)

(* Drop every cached plan and save-module instance.  Plans themselves
   depend only on rules, but saved instances hold derived state that a
   base-fact update invalidates; the serving layer calls this on every
   mutation so prepared queries never observe stale derivations. *)
let invalidate_plans t =
  with_plans t (fun () -> Hashtbl.reset t.plans);
  Hashtbl.reset t.saved

(* ------------------------------------------------------------------ *)
(* Snapshot read views (MVCC)                                          *)
(* ------------------------------------------------------------------ *)

(* A [view] is everything a reader needs to evaluate queries against a
   committed version of the database without touching the live engine:
   frozen base relations, the module/rule lists as of the snapshot
   (immutable values, shared by reference), and a per-version plan
   table so concurrent readers of the same epoch reuse each other's
   plans.  Build one with [snapshot] under the writer lane; spin up a
   per-request engine from it with [read_view] — that clone is private
   mutable state (call depth, cancellation, save-module instances), so
   any number of requests can evaluate the same view concurrently. *)
type view = {
  rv_rels : (string, Relation.t) Hashtbl.t;  (* frozen wrappers *)
  rv_exts : (string, Relation.t) Hashtbl.t;  (* frozen maintained extents *)
  rv_foreigns : (string, Builtin.foreign) Hashtbl.t;
  rv_modules : Ast.module_ list;
  rv_user_rules : Ast.rule list;
  rv_plans : (string, Optimizer.plan) Hashtbl.t;
  rv_plans_lock : Mutex.t;
  rv_hits : int Atomic.t;  (* the engine's counters, shared *)
  rv_misses : int Atomic.t;
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

(* Freeze every base relation into an immutable wrapper.  Returns None
   when any relation has no lock-free view (persistent relations,
   whose scans do buffer-pool I/O): the serving layer then falls back
   to the locked lane for reads.  Call under the writer lane — the
   snapshot must not race inserts. *)
let snapshot t =
  let rels = Hashtbl.create (max 16 (Hashtbl.length t.base)) in
  let ok =
    Hashtbl.fold
      (fun k rel ok ->
        ok
        &&
        match Relation.freeze rel with
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
      Maintain.ensure m;
      List.iter
        (fun (k, rel) ->
          match Relation.freeze rel with
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
        rv_plans = Hashtbl.create 32;
        rv_plans_lock = Mutex.create ();
        rv_hits = t.plan_hits;
        rv_misses = t.plan_misses;
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
    plans_lock = v.rv_plans_lock;
    (* save-module instances are per-request in snapshot mode: caching
       them across requests would share mutable fixpoint state *)
    saved = Hashtbl.create 4;
    user_rules = v.rv_user_rules;
    call_depth = 0;
    plan_hits = v.rv_hits;
    plan_misses = v.rv_misses;
    cancel = None;
    progress = None;
    workers = v.rv_workers;
    backjump = v.rv_backjump;
    maint = None;
    (* shared by reference: frozen wrappers are immutable and the view
       outlives every reader of its epoch *)
    exts = v.rv_exts
  }

let list_relations t =
  Hashtbl.fold (fun k rel acc -> (k, Relation.cardinal rel) :: acc) t.base []
  |> List.sort compare

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
   demand, exactly as after [invalidate_plans]). *)
let set_intelligent_backtracking t flag =
  if t.backjump <> flag then begin
    t.backjump <- flag;
    Hashtbl.reset t.saved
  end

let set_workers t n =
  let n = max 1 (min 64 n) in
  if t.workers <> n then begin
    t.workers <- n;
    Hashtbl.reset t.saved
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
    (with_plans t (fun () -> Hashtbl.length t.plans))
    (Hashtbl.length t.saved)
