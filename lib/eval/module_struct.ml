open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

type role = Full | All | Delta | Old

(* How one argument of a scanned literal meets the term at the same
   position of a ground stored tuple (see [matcher_of]). *)
type arg_match =
  | Bind of int
  | Equal of Term.t
  | Same of int
  | Bound of int

type op =
  | Scan of { slot : int; args : Term.t array; local : bool; matcher : arg_match array option }
  | Negcheck of { slot : int; args : Term.t array; matcher : arg_match array option }
  | Foreign of { f : Builtin.foreign; args : Term.t array }
  | Negforeign of { f : Builtin.foreign; args : Term.t array }
  | Compare of Ast.cmp_op * Term.t * Term.t
  | Assign of Term.t * Term.t

(* Per-rule evaluation profile, filled in when a fixpoint runs with
   profiling on (explain analyze).  Attempts count successful body
   matches (head derivation attempts); derived/dups split them by
   whether the head insert found a new fact; tuples counts candidate
   tuples enumerated across the rule's joins (foreign answer rows
   included); visited counts what scans and negation checks handed
   them, the engine's tuples-visited measure; runs and skipped count
   the applications run and those skipped unrun (an empty delta or
   an empty stored relation, see [Fixpoint]). *)
type rule_prof = {
  mutable rp_attempts : int;
  mutable rp_derived : int;
  mutable rp_dups : int;
  mutable rp_tuples : int;
  mutable rp_visited : int;
  mutable rp_time_ns : int;
  mutable rp_runs : int;
  mutable rp_skipped : int;
}

let fresh_prof () =
  { rp_attempts = 0;
    rp_derived = 0;
    rp_dups = 0;
    rp_tuples = 0;
    rp_visited = 0;
    rp_time_ns = 0;
    rp_runs = 0;
    rp_skipped = 0
  }

type crule = {
  rid : int;
  head_slot : int;
  head_args : Term.t array;
  plain_positions : int list;
  agg_positions : (int * Ast.agg_op) list;
  body : op array;
  nvars : int;
  backtrack : int array;
  text : string;
}

type stratum = {
  srules : crule list;
  agg_rules : crule list;
  versions : (crule * int) list;
  recursive : bool;
}

(* How compilation resolved a predicate outside the plan, in the order
   it asked: an instance asks again in the same order. *)
type resolved =
  | R_rel of Symbol.t * int * int  (* predicate, arity, slot *)
  | R_fn of Symbol.t * int * Builtin.foreign

(* The compiled module: immutable once built, so one value serves every
   instance on every domain. *)
type t = {
  stored_reads : int array array;
      (* by rid: the slots of its positive literals over relations the
         module does not own; empty when some rule calls assert/retract *)
  joined_by : int array;  (* by rid: the rule whose join also derives this one's head, or -1 *)
  extra_heads : crule list array;
      (* by rid: the later rules this rule's join derives too, each with
         its head in this rule's variables *)
  slot_of : int Symbol.Tbl.t;
  names : string array;  (* per slot *)
  arities : int array;
  local : bool array;
  resolved : resolved list;
  indexes : (int * Index.spec) list;  (* the joins' index choices, in install order *)
  strata : stratum array;
  rules : crule array;  (* by [rid] *)
  answer_slot : int;
  seed_slot : int;
  plan : Optimizer.plan;
}

type instance = {
  code : t;
  rels : Relation.t array;
  cursors : int array array;
  profs : rule_prof array;
}

type provider =
  | P_rel of Relation.t
  | P_foreign of Builtin.foreign

let is_generated pred = String.contains (Symbol.name pred) '#'

let calls_update lits =
  List.exists
    (fun (lit : Ast.literal) ->
      match lit with
      | Ast.Pos a | Ast.Neg a ->
        let n = Symbol.name a.Ast.pred in
        (n = "assert" || n = "retract") && Array.length a.Ast.args = 1
      | Ast.Cmp _ | Ast.Is _ -> false)
    lits

let atom_arities rules =
  let arities : int Symbol.Tbl.t = Symbol.Tbl.create 32 in
  let see pred n = if not (Symbol.Tbl.mem arities pred) then Symbol.Tbl.add arities pred n in
  List.iter
    (fun (r : Ast.rule) ->
      see r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs);
      List.iter
        (fun lit ->
          match (lit : Ast.literal) with
          | Ast.Pos a | Ast.Neg a -> see a.Ast.pred (Array.length a.Ast.args)
          | Ast.Cmp _ | Ast.Is _ -> ())
        r.Ast.body)
    rules;
  arities

let vids_of terms =
  List.concat_map Term.vars terms |> List.map (fun (v : Term.var) -> v.Term.vid)

(* Variables bound after executing a body op (binders only). *)
let binds_vars = function
  | Scan { args; _ } | Foreign { args; _ } -> vids_of (Array.to_list args)
  | Assign (a, b) -> vids_of [ a; b ]
  | Negcheck _ | Negforeign _ | Compare _ -> []

let uses_vars = function
  | Scan { args; _ } | Negcheck { args; _ } | Foreign { args; _ } | Negforeign { args; _ } ->
    vids_of (Array.to_list args)
  | Compare (_, a, b) | Assign (a, b) -> vids_of [ a; b ]

(* The compiled match of a scanned literal against ground stored
   tuples, position by position: a variable no earlier literal
   mentions ([earlier]: their variable ids) is bound at its first
   occurrence ([Bind]) and compared at later ones ([Same]); a ground
   argument is compared ([Equal]); a variable an earlier literal
   mentions is looked up and compared ([Bound]).  [None] when an
   argument is a compound with variables: such literals always
   unify. *)
let matcher_of ~earlier args =
  let first = Hashtbl.create 4 in
  let arg k (t : Term.t) =
    match t with
    | Term.Var v when List.mem v.Term.vid earlier -> Some (Bound v.Term.vid)
    | Term.Var v -> begin
      match Hashtbl.find_opt first v.Term.vid with
      | Some j -> Some (Same j)
      | None ->
        Hashtbl.add first v.Term.vid k;
        Some (Bind v.Term.vid)
    end
    | Term.Const _ -> Some (Equal t)
    | Term.App _ -> if Term.is_ground t then Some (Equal t) else None
  in
  let ms = Array.mapi arg args in
  if Array.for_all Option.is_some ms then Some (Array.map Option.get ms) else None

let compute_backtrack body =
  Array.mapi
    (fun i op ->
      let used = uses_vars op in
      let rec find j =
        if j < 0 then -1
        else if List.exists (fun v -> List.mem v (binds_vars body.(j))) used then j
        else find (j - 1)
      in
      find (i - 1))
    body

(* Index selection (paper section 4.2): walking a body in join order
   under SIP, a literal gets an argument-form index on the positions
   that arrive bound (ground or bound by an earlier binder), unless it
   arrives fully bound or fully free.  [choose j atom spec] receives
   each choice with the literal's join position.  This is the one walk:
   the compiler installs its choices on the slots it resolved, and the
   engine records those on stored predicates when it loads a module. *)
let sip_walk lits choose =
  let bound = Hashtbl.create 16 in
  let arrives_bound arg = List.for_all (Hashtbl.mem bound) (vids_of [ arg ]) in
  List.iteri
    (fun j lit ->
      (match (lit : Ast.literal) with
      | Ast.Pos a | Ast.Neg a ->
        let n = Array.length a.Ast.args in
        let cols = List.filter (fun i -> arrives_bound a.Ast.args.(i)) (List.init n Fun.id) in
        if cols <> [] && List.length cols < n then choose j a (Index.Args cols)
      | Ast.Cmp _ | Ast.Is _ -> ());
      let binders =
        match lit with
        | Ast.Pos a -> vids_of (Array.to_list a.Ast.args)
        | Ast.Is (t1, t2) -> vids_of [ t1; t2 ]
        | Ast.Neg _ | Ast.Cmp _ -> []
      in
      List.iter (fun v -> Hashtbl.replace bound v ()) binders)
    lits

type target =
  | Slot of int
  | Fn of Builtin.foreign

(* Compile one rule: renumber its variables densely, resolve each body
   literal through [target], and install the indexes its joins probe.
   With [delta = (i, slot)] body literal [i] scans [rels.(slot)] first
   and the rest of the body follows in source order: the activation of
   the rule on a delta of that literal.  Moving a positive literal
   earlier only binds variables sooner, so no later comparison,
   assignment or negation loses a binding. *)
let compile_rule_with ~rid ~index ~local ~target ?delta (r : Ast.rule) =
  let lits =
    match delta with
    | None -> r.Ast.body
    | Some (i, _) -> List.nth r.Ast.body i :: List.filteri (fun j _ -> j <> i) r.Ast.body
  in
  let head_atom = Ast.atom_of_head r.Ast.head in
  let body_arrays =
    List.map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a | Ast.Neg a -> a.Ast.args
        | Ast.Cmp (_, t1, t2) | Ast.Is (t1, t2) -> [| t1; t2 |])
      lits
  in
  let renumbered, nvars = Rename.number_term_lists (head_atom.Ast.args :: body_arrays) in
  let head_args, body_arrays =
    match renumbered with
    | h :: rest -> h, rest
    | [] -> assert false
  in
  let body =
    List.mapi
      (fun j (lit, args) ->
        let matcher () =
          let before = List.filteri (fun k _ -> k < j) body_arrays in
          matcher_of ~earlier:(vids_of (List.concat_map Array.to_list before)) args
        in
        match (lit : Ast.literal), delta with
        | Ast.Pos _, Some (_, slot) when j = 0 ->
          Scan { slot; args; local = false; matcher = matcher () }
        | _, Some _ when j = 0 -> invalid_arg "Module_struct: delta literal is not positive"
        | Ast.Pos a, _ -> begin
          match target a.Ast.pred (Array.length args) with
          | Slot s -> Scan { slot = s; args; local = local s; matcher = matcher () }
          | Fn f -> Foreign { f; args }
        end
        | Ast.Neg a, _ -> begin
          match target a.Ast.pred (Array.length args) with
          | Slot s -> Negcheck { slot = s; args; matcher = matcher () }
          | Fn f -> Negforeign { f; args }
        end
        | Ast.Cmp (op, _, _), _ -> Compare (op, args.(0), args.(1))
        | Ast.Is (_, _), _ -> Assign (args.(0), args.(1)))
      (List.combine lits body_arrays)
    |> Array.of_list
  in
  let plain_positions, agg_positions =
    let plains = ref [] and aggs = ref [] in
    Array.iteri
      (fun i harg ->
        match (harg : Ast.head_arg) with
        | Ast.Plain _ -> plains := i :: !plains
        | Ast.Agg (op, _) -> aggs := (i, op) :: !aggs)
      r.Ast.head.Ast.hargs;
    List.rev !plains, List.rev !aggs
  in
  sip_walk lits (fun j _ spec ->
      match body.(j) with
      | Scan { slot; _ } | Negcheck { slot; _ } -> index slot spec
      | Foreign _ | Negforeign _ | Compare _ | Assign _ -> ());
  { rid;
    head_slot =
      (match target head_atom.Ast.pred (Array.length head_args) with
      | Slot s -> s
      | Fn _ -> invalid_arg "Module_struct: a rule head is a foreign predicate");
    head_args;
    plain_positions;
    agg_positions;
    body;
    nvars;
    backtrack = compute_backtrack body;
    text = Pretty.rule_to_string r
  }

let compile_rule ~index ~target ?delta r =
  compile_rule_with ~rid:0 ~index ~local:(fun _ -> false) ~target ?delta r

(* Semi-naive positions of a rule: its scans of the module's own
   relations. *)
let versionable (c : crule) =
  Array.map (function Scan { local = true; _ } -> true | _ -> false) c.body

let path_of_var pattern (v : Term.var) =
  let rec in_term t path =
    match (t : Term.t) with
    | Term.Var v' -> if v'.Term.vid = v.Term.vid then Some (List.rev path) else None
    | Term.Const _ -> None
    | Term.App a ->
      let rec try_args i =
        if i >= Array.length a.Term.args then None
        else begin
          match in_term a.Term.args.(i) (i :: path) with
          | Some p -> Some p
          | None -> try_args (i + 1)
        end
      in
      try_args 0
  in
  let rec try_positions i =
    if i >= Array.length pattern then None
    else begin
      match in_term pattern.(i) [ i ] with
      | Some p -> Some p
      | None -> try_positions (i + 1)
    end
  in
  try_positions 0

(* The pattern-form index a [@make_index] annotation asks for, if any
   of its keys names a position of the pattern. *)
let make_index_spec pattern keys =
  let paths =
    List.filter_map
      (fun key ->
        match (key : Term.t) with
        | Term.Var v -> path_of_var pattern v
        | _ -> None)
      keys
  in
  if paths = [] then None else Some (Index.Paths paths)

(* A plan's own relations: rule heads and rewrite-generated predicates
   (the seed included); everything else is resolved by the caller. *)
let is_local_of (plan : Optimizer.plan) =
  let heads : unit Symbol.Tbl.t = Symbol.Tbl.create 32 in
  List.iter
    (fun (r : Ast.rule) -> Symbol.Tbl.replace heads r.Ast.head.Ast.hpred ())
    plan.Optimizer.prules;
  fun pred -> Symbol.Tbl.mem heads pred || is_generated pred

(* [Some map] when body [b] is body [a] with its variables renamed one
   to one, [map.(vid in b)] being the variable of [a] (-1: unused). *)
let renaming (a : op array) (b : op array) nvars_b =
  let fwd = Array.make (max nvars_b 1) (-1) and taken = Hashtbl.create 8 in
  let rec term (x : Term.t) (y : Term.t) =
    match x, y with
    | Term.Var vx, Term.Var vy ->
      if fwd.(vy.Term.vid) >= 0 then fwd.(vy.Term.vid) = vx.Term.vid
      else
        (not (Hashtbl.mem taken vx.Term.vid))
        && begin
          fwd.(vy.Term.vid) <- vx.Term.vid;
          Hashtbl.add taken vx.Term.vid ();
          true
        end
    | Term.App ax, Term.App ay -> Symbol.equal ax.Term.sym ay.Term.sym && terms ax.Term.args ay.Term.args
    | Term.Const _, Term.Const _ -> Term.equal x y
    | _ -> false
  and terms xs ys =
    Array.length xs = Array.length ys
    && Array.for_all Fun.id (Array.map2 term xs ys)
  in
  let same x y =
    match x, y with
    | Scan a, Scan b -> a.slot = b.slot && terms a.args b.args
    | Negcheck a, Negcheck b -> a.slot = b.slot && terms a.args b.args
    | Foreign a, Foreign b -> a.f == b.f && terms a.args b.args
    | Negforeign a, Negforeign b -> a.f == b.f && terms a.args b.args
    | Compare (oa, a1, a2), Compare (ob, b1, b2) -> oa = ob && term a1 b1 && term a2 b2
    | Assign (a1, a2), Assign (b1, b2) -> term a1 b1 && term a2 b2
    | _ -> false
  in
  if Array.length a = Array.length b && Array.for_all Fun.id (Array.map2 same a b) then Some fwd
  else None

(* One join per distinct body (under basic semi-naive, without Ordered
   Search).  A rule [b] heading a later, non-recursive stratum, whose
   body is an earlier stratum's rule [a]'s up to renaming, is derived by
   [a]'s join: every match inserts into both heads.  [a] must have one
   semi-naive position, the first body literal, so its rounds enumerate
   the matches in the order one full join of [b] would, and [b] must be
   its stratum's first rule, so no other rule reaches [b]'s head first:
   insertion order, hence answer order, is what running [b] gives.  The
   result is [b]'s rule with its head in [a]'s variables under [a]'s
   body, for [a]'s join to insert. *)
let shares_join (strata : stratum array) =
  let semi_naive i (a : crule) =
    match strata.(i).versions |> List.filter (fun (c, _) -> c == a) with
    | [ (_, 0) ] -> true
    | _ -> false
  in
  let rebased (a : crule) (b : crule) =
    match renaming a.body b.body b.nvars with
    | None -> None
    | Some fwd ->
      let exception Unbound in
      let var (v : Term.var) =
        if fwd.(v.Term.vid) < 0 then raise Unbound else Term.Var { v with Term.vid = fwd.(v.Term.vid) }
      in
      (match Array.map (Term.map_vars var) b.head_args with
      | head_args -> Some { b with head_args; body = a.body; nvars = a.nvars; backtrack = a.backtrack }
      | exception Unbound -> None)
  in
  let found = ref [] in
  Array.iteri
    (fun j (st : stratum) ->
      match st.versions with
      | (b, _) :: _ when (not st.recursive) && st.srules = [] && st.agg_rules = [] ->
        let rec earlier i =
          if i < j then begin
            let hit =
              List.find_map
                (fun ((a : crule), _) ->
                  if semi_naive i a then Option.map (fun b' -> a, b, b') (rebased a b) else None)
                strata.(i).versions
            in
            match hit with Some h -> found := h :: !found | None -> earlier (i + 1)
          end
        in
        earlier 0
      | _ -> ())
    strata;
  List.rev !found

(* Compilation (paper section 5.1): slots for the plan's own relations
   and for what [resolve] says the rest are, the rules of each SCC with
   their semi-naive versions, and the index choices of their joins.  No
   relation is created or touched: [instantiate] does that per call. *)
let compile ~resolve (plan : Optimizer.plan) =
  let rules = plan.Optimizer.prules in
  let arities = atom_arities rules in
  (* seed predicate may have no rules but is local state *)
  (match plan.Optimizer.seed with
  | Some s ->
    if not (Symbol.Tbl.mem arities s.Optimizer.seed_pred) then
      Symbol.Tbl.add arities s.Optimizer.seed_pred
        (if s.Optimizer.goal_id then 1 else List.length s.Optimizer.seed_positions)
  | None -> ());
  let is_local = is_local_of plan in
  (* assign slots *)
  let slot_of : int Symbol.Tbl.t = Symbol.Tbl.create 32 in
  let slots = ref [] and resolved = ref [] and nslots = ref 0 in
  let foreigns : Builtin.foreign Symbol.Tbl.t = Symbol.Tbl.create 8 in
  let alloc pred arity local =
    let s = !nslots in
    incr nslots;
    Symbol.Tbl.add slot_of pred s;
    slots := (Symbol.name pred, arity, local) :: !slots;
    s
  in
  let rec slot_for pred =
    match Symbol.Tbl.find_opt slot_of pred with
    | Some s -> Some s
    | None ->
      let arity = Option.value ~default:0 (Symbol.Tbl.find_opt arities pred) in
      if is_local pred then Some (alloc pred arity true)
      else begin
        match resolve pred arity with
        | P_rel _ ->
          let s = alloc pred arity false in
          resolved := R_rel (pred, arity, s) :: !resolved;
          Some s
        | P_foreign f ->
          Symbol.Tbl.replace foreigns pred f;
          resolved := R_fn (pred, arity, f) :: !resolved;
          None
      end
  in
  (* force slots for every predicate in the rules (and the seed) *)
  Symbol.Tbl.iter (fun pred _ -> ignore (slot_for pred)) arities;
  let slots = Array.of_list (List.rev !slots) in
  let local = Array.map (fun (_, _, l) -> l) slots in
  let target pred _ =
    match slot_for pred with
    | Some s -> Slot s
    | None -> Fn (Symbol.Tbl.find foreigns pred)
  in
  let indexes = ref [] and nrules = ref 0 and compiled = ref [] in
  let compile_rule r =
    let c =
      compile_rule_with ~rid:!nrules
        ~index:(fun slot spec -> indexes := (slot, spec) :: !indexes)
        ~local:(fun s -> local.(s)) ~target r
    in
    incr nrules;
    compiled := c :: !compiled;
    c
  in
  (* strata *)
  let graph = Scc.analyze rules in
  let nscc = Array.length graph.Scc.sccs in
  let strata =
    Array.init nscc (fun i ->
        let scc_rules = Scc.rules_of_scc graph rules i in
        let compiled =
          List.map (fun r -> Ast.head_is_plain r.Ast.head, compile_rule r) scc_rules
        in
        let agg_rules =
          List.filter_map (fun (plain, c) -> if plain then None else Some c) compiled
        in
        let plain_rules =
          List.filter_map (fun (plain, c) -> if plain then Some c else None) compiled
        in
        let versions =
          List.concat_map
            (fun c ->
              Array.to_list (versionable c)
              |> List.mapi (fun pos v -> if v then Some (c, pos) else None)
              |> List.filter_map Fun.id)
            plain_rules
        in
        let srules =
          List.filter (fun c -> not (Array.exists Fun.id (versionable c))) plain_rules
        in
        { srules; agg_rules; versions; recursive = graph.Scc.recursive.(i) })
  in
  (* A stratum with no rules (a base or seed predicate's SCC) would cost
     an activation and a round for nothing.  Naive evaluation keeps
     them: each of its rounds re-derives every lower stratum, so its
     duplicates count the phases. *)
  let strata =
    if plan.Optimizer.fixpoint = Ast.Naive then strata
    else
      Array.of_list
        (List.filter
           (fun st -> st.srules <> [] || st.agg_rules <> [] || st.versions <> [])
           (Array.to_list strata))
  in
  let nrules = !nrules in
  (* a rule calling assert/retract may change a stored relation while
     the module evaluates: no rule is skipped for reading an empty one,
     and no join is shared across strata that would read it at
     different times *)
  let updates = List.exists (fun (r : Ast.rule) -> calls_update r.Ast.body) rules in
  let joined_by = Array.make nrules (-1) and extra_heads = Array.make nrules [] in
  if
    plan.Optimizer.fixpoint = Ast.Basic_seminaive
    && (not plan.Optimizer.ordered_search)
    && not updates
  then
    List.iter
      (fun ((a : crule), (b : crule), b') ->
        joined_by.(b.rid) <- a.rid;
        extra_heads.(a.rid) <- extra_heads.(a.rid) @ [ b' ])
      (shares_join strata);
  let answer_slot = Option.get (slot_for plan.Optimizer.answer_pred) in
  let seed_slot =
    match plan.Optimizer.seed with
    | Some s -> Option.get (slot_for s.Optimizer.seed_pred)
    | None -> -1
  in
  let rules_by_rid = Array.of_list (List.rev !compiled) in
  { stored_reads =
      Array.map
        (fun (c : crule) ->
          if updates then [||]
          else
            Array.of_list
              (List.filter_map
                 (function Scan { slot; local = false; _ } -> Some slot | _ -> None)
                 (Array.to_list c.body)))
        rules_by_rid;
    joined_by;
    extra_heads;
    slot_of;
    names = Array.map (fun (n, _, _) -> n) slots;
    arities = Array.map (fun (_, a, _) -> a) slots;
    local;
    resolved = List.rev !resolved;
    indexes = List.rev !indexes;
    strata;
    rules = rules_by_rid;
    answer_slot;
    seed_slot;
    plan
  }

(* Annotations: multiset, aggregate selections and user indexes, applied
   to an instance's relations through the origin mapping so they follow
   predicates through rewriting.  Selection hooks keep per-instance
   state, so every instance gets its own. *)
let annotate code (rels : Relation.t array) =
  let plan = code.plan in
  let source_of pred =
    match List.assoc_opt pred plan.Optimizer.origin with Some (orig, _) -> orig | None -> pred
  in
  List.iter
    (fun ann ->
      match (ann : Ast.annotation) with
      | Ast.Ann_multiset (p, arity) ->
        Symbol.Tbl.iter
          (fun pred s ->
            if Symbol.equal (source_of pred) p && rels.(s).Relation.arity = arity then
              rels.(s).Relation.multiset <- true)
          code.slot_of
      | Ast.Ann_aggregate_selection { sel_pred; pattern; group_by; op; target } ->
        Symbol.Tbl.iter
          (fun pred s ->
            if Symbol.equal (source_of pred) sel_pred
               && rels.(s).Relation.arity = Array.length pattern
            then begin
              let hook = Aggregates.selection_hook ~pattern ~group_by ~op ~target in
              let prev = rels.(s).Relation.admit in
              rels.(s).Relation.admit <-
                Some
                  (match prev with
                  | None -> hook
                  | Some earlier -> fun rel t -> earlier rel t && hook rel t)
            end)
          code.slot_of
      | Ast.Ann_make_index { idx_pred; pattern; keys } ->
        Option.iter
          (fun spec ->
            Symbol.Tbl.iter
              (fun pred s ->
                if Symbol.equal (source_of pred) idx_pred
                   && rels.(s).Relation.arity = Array.length pattern
                then Relation.add_index rels.(s) spec)
              code.slot_of)
          (make_index_spec pattern keys)
      | Ast.Ann_materialized | Ast.Ann_pipelined | Ast.Ann_save_module | Ast.Ann_lazy_eval
      | Ast.Ann_rewriting _ | Ast.Ann_fixpoint _ | Ast.Ann_no_existential | Ast.Ann_sip _ ->
        ())
    plan.Optimizer.annotations

(* One evaluation's state: fresh relations for the module's own
   predicates, [resolve]'s relations in the other slots (asked in
   compile's order), then the annotations and the joins' indexes, in
   the order compile chose them, which is the order probes try them.
   [None] when a predicate no longer resolves as it did at compile (a
   foreign predicate registered or replaced since): recompile. *)
let instantiate ~resolve code =
  let bound = Array.make (Array.length code.names) None in
  let same = function
    | R_rel (pred, arity, s) -> begin
      match resolve pred arity with
      | P_rel rel ->
        bound.(s) <- Some rel;
        true
      | P_foreign _ -> false
    end
    | R_fn (pred, arity, f) -> begin
      match resolve pred arity with
      | P_foreign f' -> f' == f
      | P_rel _ -> false
    end
  in
  if not (List.for_all same code.resolved) then None
  else begin
    let rels =
      Array.mapi
        (fun s rel ->
          match rel with
          | Some rel -> rel
          | None -> Hash_relation.create ~name:code.names.(s) ~arity:code.arities.(s) ())
        bound
    in
    annotate code rels;
    List.iter (fun (s, spec) -> Relation.add_index rels.(s) spec) code.indexes;
    Some
      { code;
        rels;
        cursors =
          Array.map (fun c -> Array.map (fun v -> if v then 0 else -1) (versionable c)) code.rules;
        profs = Array.map (fun _ -> fresh_prof ()) code.rules
      }
  end

let plan_indexes (plan : Optimizer.plan) =
  let is_local = is_local_of plan in
  let chosen = ref [] in
  List.iter
    (function
      | Ast.Ann_make_index { idx_pred; pattern; keys } when not (is_local idx_pred) ->
        Option.iter
          (fun spec -> chosen := (idx_pred, Array.length pattern, spec) :: !chosen)
          (make_index_spec pattern keys)
      | _ -> ())
    plan.Optimizer.annotations;
  List.iter
    (fun (r : Ast.rule) ->
      sip_walk r.Ast.body (fun _ (a : Ast.atom) spec ->
          if not (is_local a.Ast.pred) then
            chosen := (a.Ast.pred, Array.length a.Ast.args, spec) :: !chosen))
    plan.Optimizer.prules;
  List.rev !chosen

let slot t pred = Symbol.Tbl.find_opt t.slot_of pred

(* No negation and no aggregation: a completed evaluation may take a
   new seed incrementally. *)
let monotonic t =
  Array.for_all
    (fun stratum ->
      stratum.agg_rules = []
      && List.for_all
           (fun c ->
             Array.for_all (function Negcheck _ | Negforeign _ -> false | _ -> true) c.body)
           (stratum.srules @ List.map fst stratum.versions))
    t.strata

let relation i pred = Option.map (fun s -> i.rels.(s)) (slot i.code pred)

(* Every distinct compiled rule, in stratum order (a rule with several
   semi-naive versions appears once). *)
let all_rules t =
  let seen = ref [] in
  let once c = if not (List.memq c !seen) then seen := c :: !seen in
  Array.iter
    (fun st ->
      List.iter once st.srules;
      List.iter (fun (c, _) -> once c) st.versions;
      List.iter once st.agg_rules)
    t.strata;
  List.rev !seen
