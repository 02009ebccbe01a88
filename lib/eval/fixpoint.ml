open Coral_term
open Coral_lang
open Coral_rel
open Module_struct

exception Not_modularly_stratified of string

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                           *)
(* ------------------------------------------------------------------ *)

exception Cancelled

(* The check is installed per fixpoint instance (see [set_cancel_check]
   below): two instances evaluating in an interleaved fashion — lazy
   evaluation, nested module calls — each poll their own check with
   their own tick budget, so one instance's deadline never leaks into
   another's evaluation. *)
let tick_interval = 2048

(* ------------------------------------------------------------------ *)
(* Ordered-Search context                                             *)
(* ------------------------------------------------------------------ *)

type goal = {
  gslot : int;
  gtuple : Tuple.t;
  mutable gstate : [ `Pending | `Available | `Done ];
  mutable gdeps : goal list;  (* subgoals this goal's evaluation generated *)
  mutable gindex : int;  (* scratch for the SCC computation *)
  mutable glow : int;
  mutable gonstack : bool;
}

type t = {
  ms : Module_struct.instance;
  mode : Ast.fixpoint;
  os : bool;
  monotonic : bool;  (* no negation, no aggregation: incremental re-open is sound *)
  profile : bool;  (* fill per-rule profiles and step deltas (explain analyze) *)
  mutable phase : int;
  mutable activated : bool;
  mutable complete : bool;
  mutable nrounds : int;
  mutable seed_inserts : int;  (* local inserts made by add_seed, not rules *)
  mutable done_inserts : int;  (* done# facts issued by the OS context *)
  mutable step_deltas : int list;  (* per productive step, newest first *)
  mutable extra_inserts : int;  (* direct impl inserts (OS availability) *)
  mutable pending : goal list;  (* not yet made available, newest first *)
  mutable live_goals : goal list;  (* every non-Done goal *)
  mutable cur_generator : goal option;  (* generator of the magic fact being inserted *)
  goal_tables : (int, goal list ref) Hashtbl.t array;  (* per magic slot, by tuple hash *)
  done_slot : int array;  (* per slot: done relation slot or -1 *)
  mutable answer_cursor : int;
  mutable seeds : Tuple.t list;  (* every seed ever added (for re-opens) *)
  mutable cancel : (unit -> bool) option;  (* cooperative cancellation check *)
  mutable budget : int;  (* ticks until the next cancel consult *)
  mutable progress : (rounds:int -> delta:int -> lanes:int array -> unit) option;
      (* live-progress hook, invoked once per productive step (see
         [step]) and from the tick seam when a large round has
         accumulated unreported derivations; lanes are per-worker task
         counts, [||] sequential *)
  mutable reported_inserts : int;
      (* inserts already published through [progress]: mid-round and
         round-end publications share one cursor so deltas never
         double-count *)
  pool : Par_pool.t option;  (* shared domain pool when workers > 1 *)
  backjump : bool;  (* intelligent backtracking (bench ablation E16) *)
  par : bool;  (* module passed the parallel-safety gate *)
  trace : bool;
  prov : (int, (Tuple.t * int * string * (int * Tuple.t) list) list ref) Hashtbl.t;
      (* head tuple hash -> (tuple, head slot, rule text,
         (body relation slot, witness tuple) list): first derivation of
         each fact, for the explanation tool *)
}

let set_cancel_check t check =
  t.cancel <- check;
  t.budget <- tick_interval

let set_progress t hook = t.progress <- hook

let total_inserts t =
  let sum = ref t.extra_inserts in
  Array.iteri
    (fun s r -> if t.ms.code.local.(s) then sum := !sum + r.Relation.stats.Relation.inserts)
    t.ms.rels;
  !sum

(* Publish any unreported derivations through the progress hook.  Both
   the round-end publication in [step] and the mid-round one in [tick]
   go through here, so a consumer accumulating deltas sees each insert
   exactly once. *)
let publish_progress t =
  match t.progress with
  | None -> ()
  | Some hook ->
    let total = total_inserts t in
    let delta = total - t.reported_inserts in
    if delta > 0 then begin
      t.reported_inserts <- total;
      let lanes =
        match t.pool with
        | Some pool when t.par ->
          Array.init (Par_pool.workers pool) (Par_pool.lane_tasks pool)
        | _ -> [||]
      in
      hook ~rounds:t.nrounds ~delta ~lanes
    end

(* Polled at round boundaries: always consults the check. *)
let poll t =
  match t.cancel with
  | Some check when check () -> raise Cancelled
  | _ -> ()

(* Counted per derivation attempt: consults the check (typically a
   clock read) only every [tick_interval] ticks, so the overhead inside
   a large round stays negligible.  Progress is published before the
   consult so a check that reads accumulated derivations — the
   per-query resource budget — observes counts at tick granularity,
   not just at round barriers. *)
let tick t =
  match t.cancel with
  | None -> ()
  | Some check ->
    t.budget <- t.budget - 1;
    if t.budget <= 0 then begin
      t.budget <- tick_interval;
      publish_progress t;
      if check () then raise Cancelled
    end

let is_magic_slot (ms : instance) s =
  ms.code.local.(s) && String.length ms.rels.(s).Relation.name > 2
  && String.sub ms.rels.(s).Relation.name 0 2 = "m#"

let find_goal tbl (tuple : Tuple.t) =
  match Hashtbl.find_opt tbl tuple.Tuple.hash with
  | Some bucket -> List.find_opt (fun g -> Tuple.equal g.gtuple tuple) !bucket
  | None -> None

let record_goal tbl (g : goal) =
  match Hashtbl.find_opt tbl g.gtuple.Tuple.hash with
  | Some bucket -> bucket := g :: !bucket
  | None -> Hashtbl.add tbl g.gtuple.Tuple.hash (ref [ g ])

(* Route a subgoal through the context.  Every derivation of a magic
   fact records a dependency edge generator -> subgoal, including
   re-derivations of goals already in the context: a goal's done fact
   may be issued only when everything reachable from it has been fully
   evaluated, and the sink-SCC pop below enforces exactly that. *)
let offer_goal t slot (tuple : Tuple.t) =
  let tbl = t.goal_tables.(slot) in
  let g =
    match find_goal tbl tuple with
    | Some g -> g
    | None ->
      let g =
        { gslot = slot;
          gtuple = tuple;
          gstate = `Pending;
          gdeps = [];
          gindex = -1;
          glow = -1;
          gonstack = false
        }
      in
      record_goal tbl g;
      t.pending <- g :: t.pending;
      t.live_goals <- g :: t.live_goals;
      g
  in
  match t.cur_generator with
  | Some parent when parent != g && not (List.memq g parent.gdeps) ->
    parent.gdeps <- g :: parent.gdeps
  | _ -> ()

(* Parallel-safety gate: a semi-naive version may run striped across
   domains only when every relation it reads supports concurrent
   snapshot scans and its head insertions are plain deduplicated
   inserts (no admission hook, no multiset, no foreign predicates whose
   solvers may carry hidden state).  Profiled/traced runs mutate shared
   per-rule records on match, so they stay sequential. *)
let par_safe_version ms ((rule : crule), _) =
  let head = ms.Module_struct.rels.(rule.head_slot) in
  head.Relation.scan_safe
  && Option.is_none head.Relation.admit
  && (not head.Relation.multiset)
  && Array.for_all
       (function
         | Scan { slot; _ } | Negcheck { slot; _ } ->
           ms.Module_struct.rels.(slot).Relation.scan_safe
         | Compare _ | Assign _ -> true
         | Foreign _ | Negforeign _ -> false)
       rule.body

let create ?(trace = false) ?(profile = false) ?(workers = 1) ?(backjump = true)
    (ms : Module_struct.instance) =
  let nslots = Array.length ms.rels in
  let os = ms.code.plan.Coral_rewrite.Optimizer.ordered_search in
  let monotonic =
    Array.for_all
      (fun stratum ->
        stratum.agg_rules = []
        && List.for_all
             (fun c ->
               Array.for_all
                 (function Negcheck _ | Negforeign _ -> false | _ -> true)
                 c.body)
             (stratum.srules @ List.map fst stratum.versions))
      ms.code.strata
  in
  let done_slot =
    Array.init nslots (fun s ->
        if is_magic_slot ms s then begin
          let name = ms.rels.(s).Relation.name in
          let done_pred = Symbol.intern ("done#" ^ String.sub name 2 (String.length name - 2)) in
          Option.value ~default:(-1) (Module_struct.slot ms.code done_pred)
        end
        else -1)
  in
  let pool = if workers > 1 then Par_pool.shared ~workers else None in
  let par =
    Option.is_some pool && (not os) && (not trace) && (not profile)
    && ms.code.plan.Coral_rewrite.Optimizer.fixpoint = Ast.Basic_seminaive
    && Array.for_all
         (fun stratum -> List.for_all (par_safe_version ms) stratum.versions)
         ms.code.strata
  in
  let t =
    { ms;
      mode = ms.code.plan.Coral_rewrite.Optimizer.fixpoint;
      os;
      monotonic;
      profile;
      phase = 0;
      activated = false;
      complete = false;
      nrounds = 0;
      seed_inserts = 0;
      done_inserts = 0;
      step_deltas = [];
      extra_inserts = 0;
      pending = [];
      live_goals = [];
      cur_generator = None;
      goal_tables = Array.init nslots (fun _ -> Hashtbl.create 32);
      done_slot;
      answer_cursor = 0;
      seeds = [];
      cancel = None;
      budget = tick_interval;
      progress = None;
      reported_inserts = 0;
      pool;
      backjump;
      par;
      trace;
      prov = Hashtbl.create (if trace then 256 else 1)
    }
  in
  (* Ordered Search: magic facts are routed through the context — the
     admission hook hides them; they enter their relation only when the
     context makes them available. *)
  if os then
    Array.iteri
      (fun s rel ->
        if is_magic_slot ms s then begin
          let prev = rel.Relation.admit in
          rel.Relation.admit <-
            Some
              (fun r tuple ->
                (match prev with Some earlier -> ignore (earlier r tuple) | None -> ());
                offer_goal t s tuple;
                false)
        end)
      ms.rels;
  t

let record_prov t (rule : crule) tuple positioned =
  (* map body positions to relation slots (-1: builtin rows) *)
  let witnesses =
    List.map
      (fun (i, tu) ->
        (match rule.body.(i) with
        | Scan { slot; _ } -> slot
        | Foreign _ | Negcheck _ | Negforeign _ | Compare _ | Assign _ -> -1), tu)
      positioned
  in
  let bucket =
    match Hashtbl.find_opt t.prov tuple.Tuple.hash with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.add t.prov tuple.Tuple.hash b;
      b
  in
  bucket := (tuple, rule.head_slot, rule.text, witnesses) :: !bucket

let provenance t (tuple : Tuple.t) ~slot =
  match Hashtbl.find_opt t.prov tuple.Tuple.hash with
  | Some bucket ->
    List.find_opt (fun (ex, s, _, _) -> s = slot && Tuple.equal ex tuple) (List.rev !bucket)
    |> Option.map (fun (_, _, text, ws) -> text, ws)
  | None -> None

let prof_of t (rule : crule) = t.ms.profs.(rule.rid)

(* one rule application, inserting plain head tuples; under Ordered
   Search, rules deriving magic facts run with witness tracking so the
   generating subgoal (the magic literal's tuple) is known when the
   admission hook routes the new subgoal through the context *)
let note_insert t (rule : crule) inserted =
  if t.profile then begin
    let p = prof_of t rule in
    if inserted then p.rp_derived <- p.rp_derived + 1 else p.rp_dups <- p.rp_dups + 1
  end

let apply_rule t range (rule : crule) =
  let os_magic_head = t.os && is_magic_slot t.ms rule.head_slot in
  let prof = if t.profile then Some (prof_of t rule) else None in
  let t0 = if t.profile then Coral_obs.Obs.now_ns () else 0 in
  Coral_obs.Obs.Span.with_ "fixpoint.join"
    ~attrs:(fun () -> [ "head", t.ms.rels.(rule.head_slot).Relation.name ])
    (fun () ->
      if t.trace || os_magic_head then begin
        let witness = ref [] in
        Joiner.run ~rels:t.ms.rels ~range ~backjump:t.backjump ~witness ?prof rule
          ~on_match:(fun env ->
            tick t;
            let tuple = Joiner.head_tuple rule env in
            if os_magic_head then begin
              t.cur_generator <-
                List.find_map
                  (fun (pos, (wt : Tuple.t)) ->
                    match rule.body.(pos) with
                    | Scan { slot; _ } when is_magic_slot t.ms slot ->
                      find_goal t.goal_tables.(slot) wt
                    | _ -> None)
                  !witness
            end;
            let inserted = Relation.insert t.ms.rels.(rule.head_slot) tuple in
            t.cur_generator <- None;
            note_insert t rule inserted;
            if inserted && t.trace then record_prov t rule tuple !witness)
      end
      else begin
        let head = t.ms.rels.(rule.head_slot) in
        let scratch = ref (Array.make (Array.length rule.head_args) Term.nil) in
        Joiner.run ~rels:t.ms.rels ~range ~backjump:t.backjump ?prof rule
          ~on_match:(fun env ->
            tick t;
            note_insert t rule (Joiner.insert_head head rule env scratch))
      end);
  Option.iter
    (fun (p : rule_prof) -> p.rp_time_ns <- p.rp_time_ns + (Coral_obs.Obs.now_ns () - t0))
    prof

let eval_agg_rule t (rule : crule) =
  let rows = ref [] in
  let key_of row = Array.of_list (List.map (fun i -> row.(i)) rule.plain_positions) in
  let prof = if t.profile then Some (prof_of t rule) else None in
  let t0 = if t.profile then Coral_obs.Obs.now_ns () else 0 in
  (* under tracing, remember the contributing body facts per group *)
  let group_witnesses : (int * Tuple.t) list Term.ArrayTbl.t =
    Term.ArrayTbl.create (if t.trace then 32 else 1)
  in
  if t.trace then begin
    let witness = ref [] in
    Joiner.run ~rels:t.ms.rels ~range:Joiner.full_range ~backjump:t.backjump ~witness ?prof
      rule ~on_match:(fun env ->
        let row = Joiner.head_row rule env in
        rows := row :: !rows;
        let key = key_of row in
        let prev =
          Option.value ~default:[] (Term.ArrayTbl.find_opt group_witnesses key)
        in
        Term.ArrayTbl.replace group_witnesses key (!witness @ prev))
  end
  else
    Joiner.run ~rels:t.ms.rels ~range:Joiner.full_range ~backjump:t.backjump ?prof rule
      ~on_match:(fun env ->
        tick t;
        rows := Joiner.head_row rule env :: !rows);
  let grouped =
    Aggregates.group ~plain_positions:rule.plain_positions ~agg_positions:rule.agg_positions
      ~arity:(Array.length rule.head_args)
      (List.to_seq !rows)
  in
  List.iter
    (fun row ->
      let tuple = Tuple.of_terms row in
      let inserted = Relation.insert t.ms.rels.(rule.head_slot) tuple in
      note_insert t rule inserted;
      if inserted && t.trace then begin
        let witnesses =
          Option.value ~default:[] (Term.ArrayTbl.find_opt group_witnesses (key_of row))
        in
        record_prov t rule tuple witnesses
      end)
    grouped;
  Option.iter
    (fun (p : rule_prof) -> p.rp_time_ns <- p.rp_time_ns + (Coral_obs.Obs.now_ns () - t0))
    prof

let slot_of_op (rule : crule) i =
  match rule.body.(i) with
  | Scan { slot; _ } -> slot
  | Negcheck _ | Foreign _ | Negforeign _ | Compare _ | Assign _ -> assert false

(* Semi-naive mark interval for one version against a common round
   snapshot: the delta op reads [cursor, snapshot), earlier ops read
   everything up to the snapshot, later ops everything up to their own
   cursor — the standard triangular decomposition. *)
let bsn_range cursors d msnap ~op_index ~slot ~local =
  if not local then 0, -1
  else if op_index = d then cursors.(d), msnap.(slot)
  else if op_index < d then 0, msnap.(slot)
  else 0, cursors.(op_index)

let cursors_of t (rule : crule) = t.ms.cursors.(rule.rid)

let mark_snapshot t =
  Array.mapi (fun s rel -> if t.ms.code.local.(s) then Relation.mark rel else -1) t.ms.rels

(* One BSN round over the given semi-naive versions: seal all local
   relations, run every version against the common mark snapshot, then
   advance the consumed cursors. *)
let round_bsn_seq t versions =
  let msnap = mark_snapshot t in
  List.iter
    (fun ((rule : crule), d) -> apply_rule t (bsn_range (cursors_of t rule) d msnap) rule)
    versions;
  List.iter
    (fun ((rule : crule), d) -> (cursors_of t rule).(d) <- msnap.(slot_of_op rule d))
    versions

(* ------------------------------------------------------------------ *)
(* Round-synchronous parallel BSN round (DESIGN.md section 9)          *)
(* ------------------------------------------------------------------ *)

let m_par_rounds = Coral_obs.Obs.counter "eval.parallel.rounds"
let m_par_fallback = Coral_obs.Obs.counter "eval.parallel.fallback_rounds"
let m_par_tasks = Coral_obs.Obs.counter "eval.parallel.tasks"
let m_par_merged = Coral_obs.Obs.counter "eval.parallel.merged"
let m_par_dups = Coral_obs.Obs.counter "eval.parallel.duplicates"
let m_par_workers = Coral_obs.Obs.gauge "eval.parallel.workers"

(* Three phases, with a barrier after each:

   1. Apply: tasks = versions x lanes.  Each task runs one rule version
      against the same mark snapshot a sequential round would use, but
      over a disjoint stripe of the version's delta scan, buffering
      head tuples privately — no relation is mutated while any domain
      is scanning, which is what makes the concurrent scans safe.
   2. Dedup (parallel, hash-partitioned): partition [p] owns the
      buffered tuples with [hash mod lanes = p] and drops those already
      stored ([Relation.mem], read-only) or already produced at an
      earlier deterministic position (task-major order) of the same
      partition.  Equal tuples hash equally, so they always land in the
      same partition and exact duplicates are eliminated here.
   3. Insert (sequential, task-major order): survivors go through the
      ordinary [Relation.insert], which re-checks duplicates — catching
      the residual cross-partition case (non-ground subsumption between
      tuples with different hashes) — and keeps insert order, and hence
      relation contents, deterministic.

   Cursors advance only after phase 3, so the next round's delta is
   exactly this round's new facts: the semi-naive marks mean the same
   thing they mean in a sequential round. *)
let round_bsn_par t pool versions =
  let lanes = Par_pool.workers pool in
  let varr = Array.of_list versions in
  let nver = Array.length varr in
  let nslots = Array.length t.ms.rels in
  let msnap = mark_snapshot t in
  let ntasks = nver * lanes in
  let buffers = Array.make ntasks [||] in
  let counts = Array.init ntasks (fun _ -> Array.make nslots 0) in
  let visited = Array.init ntasks (fun _ -> ref 0) in
  let lane_before = Array.init lanes (Par_pool.lane_tasks pool) in
  let apply ~lane:_ ~task =
    let rule, d = varr.(task / lanes) in
    let stripe_lane = task mod lanes in
    let buf = ref [] in
    (* task-local cancellation budget: workers poll the instance's
       check without sharing a countdown cell *)
    let budget = ref tick_interval in
    Joiner.run ~rels:t.ms.rels ~range:(bsn_range (cursors_of t rule) d msnap) ~backjump:t.backjump
      ~stripe:(d, stripe_lane, lanes) ~scan_counts:counts.(task) ~visited:visited.(task) rule
      ~on_match:(fun env ->
        (match t.cancel with
        | None -> ()
        | Some check ->
          decr budget;
          if !budget <= 0 then begin
            budget := tick_interval;
            if check () then raise Cancelled
          end);
        buf := Joiner.head_tuple rule env :: !buf);
    buffers.(task) <- Array.of_list (List.rev !buf)
  in
  Par_pool.run_or_seq pool ~ntasks apply;
  (* Phase 2 *)
  let keep = Array.map (fun b -> Array.make (Array.length b) true) buffers in
  let drops = Array.init lanes (fun _ -> Array.make nslots 0) in
  let dedup ~lane:_ ~task:p =
    let seen : (int, (int * Tuple.t) list ref) Hashtbl.t = Hashtbl.create 64 in
    for task = 0 to ntasks - 1 do
      let rule, _ = varr.(task / lanes) in
      let slot = rule.head_slot in
      let rel = t.ms.rels.(slot) in
      let buf = buffers.(task) in
      for i = 0 to Array.length buf - 1 do
        let tuple = buf.(i) in
        let h = tuple.Tuple.hash land max_int in
        if h mod lanes = p then begin
          let dup =
            Relation.mem rel tuple
            ||
            match Hashtbl.find_opt seen h with
            | Some bucket ->
              List.exists (fun (s, ex) -> s = slot && Tuple.equal ex tuple) !bucket
            | None -> false
          in
          if dup then begin
            keep.(task).(i) <- false;
            drops.(p).(slot) <- drops.(p).(slot) + 1
          end
          else begin
            match Hashtbl.find_opt seen h with
            | Some bucket -> bucket := (slot, tuple) :: !bucket
            | None -> Hashtbl.add seen h (ref [ slot, tuple ])
          end
        end
      done
    done
  in
  Par_pool.run_or_seq pool ~ntasks:lanes dedup;
  (* Phase 3 *)
  let merged = ref 0 in
  for task = 0 to ntasks - 1 do
    let rule, _ = varr.(task / lanes) in
    let rel = t.ms.rels.(rule.head_slot) in
    let buf = buffers.(task) in
    for i = 0 to Array.length buf - 1 do
      if keep.(task).(i) && Relation.insert rel buf.(i) then incr merged
    done
  done;
  (* flush worker-side stats so counters match a sequential run's
     accounting discipline (scans opened, tuples visited, duplicates
     rejected) *)
  for task = 0 to ntasks - 1 do
    let c = counts.(task) in
    for s = 0 to nslots - 1 do
      if c.(s) > 0 then Relation.note_scans t.ms.rels.(s) c.(s)
    done;
    Relation.note_visited !(visited.(task))
  done;
  let dropped = ref 0 in
  for p = 0 to lanes - 1 do
    for s = 0 to nslots - 1 do
      if drops.(p).(s) > 0 then begin
        Relation.note_duplicates t.ms.rels.(s) drops.(p).(s);
        dropped := !dropped + drops.(p).(s)
      end
    done
  done;
  List.iter
    (fun ((rule : crule), d) -> (cursors_of t rule).(d) <- msnap.(slot_of_op rule d))
    versions;
  let open Coral_obs in
  Obs.Counter.incr m_par_rounds;
  Obs.Counter.add m_par_tasks ntasks;
  Obs.Counter.add m_par_merged !merged;
  Obs.Counter.add m_par_dups !dropped;
  Obs.Gauge.set m_par_workers lanes;
  for lane = 0 to lanes - 1 do
    let delta = Par_pool.lane_tasks pool lane - lane_before.(lane) in
    if delta > 0 then
      Obs.Counter.add
        (Obs.counter (Printf.sprintf "eval.parallel.worker.%d.tasks" lane))
        delta
  done

let round_bsn t versions =
  t.nrounds <- t.nrounds + 1;
  if t.par && versions <> [] then begin
    match t.pool with
    | Some pool when not (Par_pool.busy pool) -> round_bsn_par t pool versions
    | Some _ | None ->
      (* pool in use by an enclosing evaluation (nested module call) or
         dead: the round still completes, sequentially *)
      Coral_obs.Obs.Counter.incr m_par_fallback;
      round_bsn_seq t versions
  end
  else round_bsn_seq t versions

(* One PSN round: rule-at-a-time deltas — each version seals its delta
   relation just before running and consumes up to that point; facts
   derived by earlier versions in the same round are visible
   immediately through the open-interval ranges. *)
let round_psn t versions =
  t.nrounds <- t.nrounds + 1;
  List.iter
    (fun ((rule : crule), d) ->
      let dslot = slot_of_op rule d in
      let m = Relation.mark t.ms.rels.(dslot) in
      let cursors = cursors_of t rule in
      let range ~op_index ~slot ~local =
        ignore slot;
        if not local then 0, -1
        else if op_index = d then cursors.(d), m
        else if op_index < d then 0, -1
        else 0, cursors.(op_index)
      in
      apply_rule t range rule;
      cursors.(d) <- m)
    versions

let round_naive t strata_limit =
  t.nrounds <- t.nrounds + 1;
  for i = 0 to strata_limit do
    let st = t.ms.code.strata.(i) in
    let seen = ref [] in
    let once (rule : crule) =
      if not (List.memq rule !seen) then begin
        seen := rule :: !seen;
        apply_rule t Joiner.full_range rule
      end
    in
    List.iter once st.srules;
    List.iter (fun (rule, _) -> once rule) st.versions
  done

let active_versions t =
  let acc = ref [] in
  for i = min t.phase (Array.length t.ms.code.strata - 1) downto 0 do
    acc := t.ms.code.strata.(i).versions @ !acc
  done;
  !acc

let activate_stratum t i =
  let st = t.ms.code.strata.(i) in
  List.iter (fun rule -> apply_rule t Joiner.full_range rule) st.srules;
  List.iter (fun rule -> eval_agg_rule t rule) st.agg_rules

(* Ordered-Search context actions, taken at quiescence.

   While pending subgoals exist, make the most recent one available
   (depth-first exploration).  Once everything live is available and
   quiescent, pop the sink strongly connected components of the subgoal
   dependency graph: an SCC whose every edge stays inside it or leads
   to done goals has complete answers (its guarded rules waited only on
   lower, already-done subgoals — the modular stratification
   assumption), so its done facts are issued together. *)
let pop_sink_sccs t =
  let live = List.filter (fun g -> g.gstate <> `Done) t.live_goals in
  t.live_goals <- live;
  if live = [] then false
  else begin
    (* Tarjan over the live subgoal graph *)
    List.iter
      (fun g ->
        g.gindex <- -1;
        g.glow <- -1;
        g.gonstack <- false)
      live;
    let counter = ref 0 in
    let stack = ref [] in
    let sccs = ref [] in
    let rec strongconnect g =
      g.gindex <- !counter;
      g.glow <- !counter;
      incr counter;
      stack := g :: !stack;
      g.gonstack <- true;
      List.iter
        (fun d ->
          if d.gstate <> `Done then begin
            if d.gindex < 0 then begin
              strongconnect d;
              if d.glow < g.glow then g.glow <- d.glow
            end
            else if d.gonstack && d.gindex < g.glow then g.glow <- d.gindex
          end)
        g.gdeps;
      if g.glow = g.gindex then begin
        let rec pop acc =
          match !stack with
          | d :: rest ->
            stack := rest;
            d.gonstack <- false;
            let acc = d :: acc in
            if d == g then acc else pop acc
          | [] -> acc
        in
        sccs := pop [] :: !sccs
      end
    in
    List.iter (fun g -> if g.gindex < 0 then strongconnect g) live;
    (* a sink SCC has no edge to a live goal outside itself *)
    let is_sink scc =
      List.for_all
        (fun g ->
          List.for_all (fun d -> d.gstate = `Done || List.memq d scc) g.gdeps)
        scc
    in
    let sinks = List.filter is_sink !sccs in
    assert (sinks <> []);
    List.iter
      (fun scc ->
        List.iter
          (fun g ->
            g.gstate <- `Done;
            let ds = t.done_slot.(g.gslot) in
            if ds >= 0 then begin
              let done_rel = t.ms.rels.(ds) in
              if Relation.insert done_rel (Tuple.of_terms g.gtuple.Tuple.terms) then
                t.done_inserts <- t.done_inserts + 1
            end)
          scc)
      sinks;
    t.live_goals <- List.filter (fun g -> g.gstate <> `Done) t.live_goals;
    true
  end

let context_action t =
  let rec next_pending = function
    | [] -> None
    | g :: rest ->
      if g.gstate = `Pending then begin
        t.pending <- rest;
        Some g
      end
      else next_pending rest
  in
  match next_pending t.pending with
  | Some g ->
    g.gstate <- `Available;
    let rel = t.ms.rels.(g.gslot) in
    if rel.Relation.impl.Relation.i_insert ~dedup:true g.gtuple then
      t.extra_inserts <- t.extra_inserts + 1;
    true
  | None -> pop_sink_sccs t

let nstrata t = Array.length t.ms.code.strata

let step_inner t =
  poll t;
  if t.complete then false
  else if t.os then begin
    (* single phase: all strata active, context drives ordering *)
    if not t.activated then begin
      t.activated <- true;
      for i = 0 to nstrata t - 1 do
        List.iter (fun rule -> apply_rule t Joiner.full_range rule) t.ms.code.strata.(i).srules
      done;
      true
    end
    else begin
      let before = total_inserts t in
      let versions =
        Array.to_list t.ms.code.strata |> List.concat_map (fun st -> st.versions)
      in
      (* aggregate rules run before the plain round so that consumers
         (possibly negated, guarded by done facts popped just before
         this step) never observe an unfilled aggregate relation *)
      Array.iter (fun st -> List.iter (eval_agg_rule t) st.agg_rules) t.ms.code.strata;
      (match t.mode with
      | Ast.Predicate_seminaive -> round_psn t versions
      | Ast.Naive | Ast.Basic_seminaive | Ast.Ordered_search -> round_bsn t versions);
      if total_inserts t > before then true
      else if context_action t then true
      else begin
        t.complete <- true;
        false
      end
    end
  end
  else begin
    (* stratified phases *)
    if not t.activated then begin
      t.activated <- true;
      activate_stratum t t.phase;
      true
    end
    else begin
      let before = total_inserts t in
      (match t.mode with
      | Ast.Naive -> round_naive t t.phase
      | Ast.Predicate_seminaive -> round_psn t (active_versions t)
      | Ast.Basic_seminaive | Ast.Ordered_search -> round_bsn t (active_versions t));
      if total_inserts t > before then true
      else if t.phase < nstrata t - 1 then begin
        t.phase <- t.phase + 1;
        t.activated <- false;
        true
      end
      else begin
        t.complete <- true;
        false
      end
    end
  end

let step t =
  let want_delta = t.profile || Option.is_some t.progress in
  let before = if want_delta then total_inserts t else 0 in
  let progressed =
    Coral_obs.Obs.Span.with_ "fixpoint.iter"
      ~attrs:(fun () ->
        [ "round", string_of_int t.nrounds; "phase", string_of_int t.phase ])
      (fun () -> step_inner t)
  in
  if want_delta && progressed then begin
    if t.profile then t.step_deltas <- (total_inserts t - before) :: t.step_deltas;
    publish_progress t
  end;
  progressed

let run t =
  while step t do
    ()
  done

let reset_for_reopen t =
  (* Non-monotonic module re-opened with a new seed: clear local state
     and recompute from scratch (sound; the save-module incremental
     guarantee applies to monotonic modules). *)
  Array.iteri
    (fun s rel ->
      if t.ms.code.local.(s) then begin
        Relation.clear rel;
        rel.Relation.stats.Relation.inserts <- 0;
        rel.Relation.stats.Relation.duplicates <- 0
      end)
    t.ms.rels;
  Array.iter
    (fun st ->
      List.iter
        (fun ((rule : crule), d) -> (cursors_of t rule).(d) <- 0)
        st.versions)
    t.ms.code.strata;
  Array.iter Hashtbl.reset t.goal_tables;
  t.pending <- [];
  t.live_goals <- [];
  t.cur_generator <- None;
  t.extra_inserts <- 0;
  t.seed_inserts <- 0;
  t.done_inserts <- 0;
  t.step_deltas <- [];
  (* insert stats were just zeroed; re-derived tuples are new work *)
  t.reported_inserts <- 0;
  t.answer_cursor <- 0;
  if t.profile then Array.iteri (fun i _ -> t.ms.profs.(i) <- fresh_prof ()) t.ms.profs

let single_context t =
  match t.ms.code.plan.Coral_rewrite.Optimizer.seed with
  | Some s -> s.Coral_rewrite.Optimizer.single_context
  | None -> false

let add_seed t terms =
  let tuple = Tuple.of_terms terms in
  if t.ms.code.seed_slot < 0 then false
  else begin
    (* a context-free plan pairs every seed with every answer: a second
       context would silently receive the first one's answers *)
    (match t.seeds with
    | first :: _ when single_context t && not (Tuple.equal first tuple) ->
      invalid_arg "Fixpoint.add_seed: a single-context plan already holds a different seed"
    | _ -> ());
    let rel = t.ms.rels.(t.ms.code.seed_slot) in
    if t.os then begin
      let fresh = find_goal t.goal_tables.(t.ms.code.seed_slot) tuple = None in
      if fresh then begin
        t.cur_generator <- None;
        offer_goal t t.ms.code.seed_slot tuple;
        if t.complete then t.complete <- false
      end;
      fresh
    end
    else begin
      let was_complete = t.complete in
      let fresh = Relation.insert rel tuple in
      if fresh then begin
        t.seed_inserts <- t.seed_inserts + 1;
        t.seeds <- tuple :: t.seeds;
        if was_complete && not t.monotonic then begin
          (* non-monotonic module: recompute from scratch with every
             seed seen so far (incremental continuation would leave
             stale negation/aggregation results behind) *)
          reset_for_reopen t;
          List.iter
            (fun old ->
              if Relation.insert rel old then t.seed_inserts <- t.seed_inserts + 1)
            t.seeds
        end;
        t.complete <- false;
        if was_complete then begin
          (* re-run phases so exit rules see the new seed *)
          t.phase <- 0;
          t.activated <- false
        end
      end;
      fresh
    end
  end

let answer_relation t = t.ms.rels.(t.ms.code.answer_slot)

let answers t ?pattern () =
  run t;
  Relation.scan (answer_relation t) ?pattern ()

let new_answers t ?pattern () =
  let rel = answer_relation t in
  let upto = Relation.mark rel in
  let from = t.answer_cursor in
  t.answer_cursor <- upto;
  Relation.scan rel ~from_mark:from ~to_mark:upto ?pattern ()

let rounds t = t.nrounds
let module_structure t = t.ms

(* ------------------------------------------------------------------ *)
(* Profiling accessors (populated when created with ~profile:true)    *)
(* ------------------------------------------------------------------ *)

(* Delta size of each productive step, oldest first (the first entry
   is the stratum activation, the rest are semi-naive rounds or
   Ordered-Search context actions). *)
let step_deltas t = List.rev t.step_deltas

let seed_inserts t = t.seed_inserts
let done_inserts t = t.done_inserts
let context_inserts t = t.extra_inserts

(* Inserts attributable to rule applications: everything local minus
   seeds, context availability inserts, and done facts.  When profiling
   is on this equals the sum of per-rule [rp_derived] — the two are
   computed along independent paths, which explain analyze exploits as
   a self-check. *)
let rule_derivations t =
  total_inserts t - t.extra_inserts - t.seed_inserts - t.done_inserts

let profiled_rules t =
  List.map (fun (c : crule) -> c, prof_of t c) (Module_struct.all_rules t.ms.code)
