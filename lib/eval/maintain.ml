open Coral_term
open Coral_lang
open Coral_rel

(* Incremental view maintenance (see maintain.mli).  The joins reuse
   Pipeline.solve over a rulebase whose relation lookup prefers the
   maintained extents, so one join evaluator serves pipelined modules,
   top-level queries and maintenance alike. *)

type source = {
  src_modules : unit -> Ast.module_ list;
  src_user_rules : unit -> Ast.rule list;
  src_relation : Symbol.t -> int -> Relation.t option;
  src_foreign : Symbol.t -> int -> bool;
  src_tick : unit -> unit;
}

type update_stats = {
  u_derived : int;
  u_deleted : int;
  u_rederived : int;
  u_rounds : int;
}

(* A maintainable rule, variables renumbered densely (as in
   Pipeline.prepare_rule) so each activation allocates a right-sized
   environment.  [pr_pos] pre-computes, for every positive body
   literal, the activation used by delta propagation: the literal's
   predicate key, its argument array, and the remaining body literals
   in original order. *)
type prule = {
  pr_hkey : string;
  pr_hargs : Term.t array;
  pr_body : Ast.literal list;
  pr_nvars : int;
  pr_pos : (string * Term.t array * Ast.literal list) list;
}

type t = {
  src : source;
  exts : (string, Relation.t) Hashtbl.t;  (* "name/arity" -> extent *)
  mutable rules : prule list;  (* rules of maintained predicates *)
  mutable by_body : (string, (prule * Term.t array * Ast.literal list) list) Hashtbl.t;
      (* body predicate key -> activations mentioning it *)
  mutable bad : (string * string) list;  (* fallback predicates + reason *)
  mutable wants : (string * Symbol.t * int * Index.spec) list;
      (* indexes the maintenance joins probe, by predicate key *)
  mutable is_stale : bool;
  mutable refresh_count : int;
}

let key name arity = name ^ "/" ^ string_of_int arity
let pred_key pred arity = key (Symbol.name pred) arity
let atom_key (a : Ast.atom) = pred_key a.Ast.pred (Array.length a.Ast.args)

let create src =
  { src;
    exts = Hashtbl.create 16;
    rules = [];
    by_body = Hashtbl.create 16;
    bad = [];
    wants = [];
    is_stale = true;
    refresh_count = 0
  }

let invalidate t = t.is_stale <- true
let stale t = t.is_stale
let fallbacks t = t.bad
let maintained_count t = Hashtbl.length t.exts
let refreshes t = t.refresh_count

let extent t pred arity = Hashtbl.find_opt t.exts (pred_key pred arity)

let extents t = Hashtbl.fold (fun k rel acc -> (k, rel) :: acc) t.exts []

(* ------------------------------------------------------------------ *)
(* Program analysis: the maintainable class                            *)
(* ------------------------------------------------------------------ *)

(* Split the head key out of a key "name/arity". *)
let split_key k =
  match String.rindex_opt k '/' with
  | Some i ->
    String.sub k 0 i, int_of_string (String.sub k (i + 1) (String.length k - i - 1))
  | None -> k, 0

let head_key (r : Ast.rule) =
  pred_key r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs)

let var_ids terms = List.concat_map Term.vars terms |> List.map (fun (v : Term.var) -> v.Term.vid)

(* One left-to-right pass over a rule body, tracking which variables
   positive literals have bound.  Returns [Error reason] when the rule
   falls outside the maintainable class. *)
let check_rule_body ~recursive (r : Ast.rule) =
  let bound = Hashtbl.create 16 in
  let bind ids = List.iter (fun id -> Hashtbl.replace bound id ()) ids in
  let all_bound ids = List.for_all (Hashtbl.mem bound) ids in
  let rec go = function
    | [] -> Ok ()
    | Ast.Pos a :: rest ->
      bind (var_ids (Array.to_list a.Ast.args));
      go rest
    | Ast.Neg a :: _ ->
      Error (Printf.sprintf "negation over %s" (Symbol.name a.Ast.pred))
    | Ast.Cmp (_, t1, t2) :: rest ->
      if all_bound (var_ids [ t1; t2 ]) then go rest
      else Error "comparison over variables not bound by positive literals"
    | Ast.Is (t1, t2) :: rest ->
      if not (all_bound (var_ids [ t2 ])) then
        Error "assignment right-hand side not bound by positive literals"
      else begin
        let lhs = var_ids [ t1 ] in
        let generates = not (all_bound lhs) in
        if generates && recursive then
          Error "value-generating assignment in a recursive rule"
        else begin
          bind lhs;
          go rest
        end
      end
  in
  match go r.Ast.body with
  | Error _ as e -> e
  | Ok () ->
    let head_vars = var_ids (Ast.head_terms r.Ast.head) in
    if all_bound head_vars then Ok ()
    else Error "head variable not bound by the body"

(* The global rule soup: every module's rules plus the interactive
   module's, tagged with the defining module's name. *)
let all_rules t =
  List.concat_map
    (fun (m : Ast.module_) -> List.map (fun r -> m.Ast.mname, m, r) m.Ast.rules)
    (t.src.src_modules ())
  @
  let user =
    { Ast.mname = "user"; exports = []; annotations = []; rules = t.src.src_user_rules () }
  in
  List.map (fun r -> "user", user, r) user.Ast.rules

(* Derived predicates in a recursive cycle: reachability over the
   head -> body-derived-predicate graph. *)
let recursive_keys rules derived =
  let edges = Hashtbl.create 32 in
  List.iter
    (fun (_, _, (r : Ast.rule)) ->
      let h = head_key r in
      List.iter
        (fun lit ->
          match Ast.literal_atom lit with
          | Some a when Hashtbl.mem derived (atom_key a) ->
            Hashtbl.add edges h (atom_key a)
          | _ -> ())
        r.Ast.body)
    rules;
  let reachable_from start =
    let seen = Hashtbl.create 16 in
    let rec go k =
      List.iter
        (fun k' ->
          if not (Hashtbl.mem seen k') then begin
            Hashtbl.replace seen k' ();
            go k'
          end)
        (Hashtbl.find_all edges k)
    in
    go start;
    seen
  in
  Hashtbl.fold
    (fun k () acc -> if Hashtbl.mem (reachable_from k) k then k :: acc else acc)
    derived []

let renumber_rule (r : Ast.rule) =
  let head_atom = Ast.atom_of_head r.Ast.head in
  let body_arrays =
    List.map
      (fun lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a | Ast.Neg a -> a.Ast.args
        | Ast.Cmp (_, t1, t2) | Ast.Is (t1, t2) -> [| t1; t2 |])
      r.Ast.body
  in
  let renumbered, nvars = Rename.number_term_lists (head_atom.Ast.args :: body_arrays) in
  match renumbered with
  | head :: rest ->
    let body =
      List.map2
        (fun lit args ->
          match (lit : Ast.literal) with
          | Ast.Pos a -> Ast.Pos { a with Ast.args }
          | Ast.Neg a -> Ast.Neg { a with Ast.args }
          | Ast.Cmp (op, _, _) -> Ast.Cmp (op, args.(0), args.(1))
          | Ast.Is (_, _) -> Ast.Is (args.(0), args.(1)))
        r.Ast.body rest
    in
    head, body, nvars
  | [] -> assert false

(* Index selection for the maintenance joins, by the fixpoint's rule
   (Module_struct.sip_indexes): an activation solves the rest of its
   body with the delta literal's variables bound, and a rederivation
   check ([has_rule_support]) solves a rule body with the head's
   variables bound.  The over-deletion, insertion and rederivation
   joins, the physical deletes and the reads of frozen extents then
   probe instead of scanning. *)
let index_wants prules =
  let wants = ref [] in
  let index (k, pred, arity) spec =
    if not (List.exists (fun (k', _, _, s) -> k' = k && Index.spec_equal s spec) !wants) then
      wants := (k, pred, arity, spec) :: !wants
  in
  let probe (a : Ast.atom) =
    let n = Array.length a.Ast.args in
    Some ((pred_key a.Ast.pred n, a.Ast.pred, n), a.Ast.args)
  in
  let steps body =
    List.map
      (fun (lit : Ast.literal) ->
        match lit with
        | Ast.Pos a -> probe a, var_ids (Array.to_list a.Ast.args)
        | Ast.Neg a -> probe a, []
        | Ast.Cmp _ -> None, []
        | Ast.Is (t1, t2) -> None, var_ids [ t1; t2 ])
      body
  in
  List.iter
    (fun pr ->
      Module_struct.sip_indexes ~bound:(var_ids (Array.to_list pr.pr_hargs)) ~index
        (steps pr.pr_body);
      List.iter
        (fun (_, pargs, rest) ->
          Module_struct.sip_indexes ~bound:(var_ids (Array.to_list pargs)) ~index (steps rest))
        pr.pr_pos)
    prules;
  List.rev !wants

(* Install the selected indexes on the extents and on the stored base
   relations that exist.  Adding an index a relation already carries is
   a no-op, so updates call this to cover base relations created since
   the last analysis. *)
let install_indexes t =
  List.iter
    (fun (k, pred, arity, spec) ->
      match Hashtbl.find_opt t.exts k with
      | Some ext -> Relation.add_index ext spec
      | None -> Option.iter (fun rel -> Relation.add_index rel spec) (t.src.src_relation pred arity))
    t.wants

(* Analyse the current program: partition derived predicates into
   maintained and fallback, and compile the maintained rules. *)
let analyse t =
  let rules = all_rules t in
  let derived = Hashtbl.create 32 in
  List.iter (fun (_, _, r) -> Hashtbl.replace derived (head_key r) ()) rules;
  let bad = Hashtbl.create 8 in
  let mark k reason = if not (Hashtbl.mem bad k) then Hashtbl.add bad k reason in
  (* a predicate defined in two modules merges two separately scoped
     definitions into one extent — fall back (same rule as the
     distribution planner) *)
  Hashtbl.iter
    (fun k () ->
      let defined_in =
        List.filter_map (fun (mname, _, r) -> if head_key r = k then Some mname else None) rules
        |> List.sort_uniq compare
      in
      if List.length defined_in > 1 then
        mark k (Printf.sprintf "defined in %d modules" (List.length defined_in)))
    derived;
  (* module annotations that change evaluation semantics *)
  List.iter
    (fun (m : Ast.module_) ->
      let pipelined = List.mem Ast.Ann_pipelined m.Ast.annotations in
      if pipelined then
        List.iter
          (fun (r : Ast.rule) -> mark (head_key r) "pipelined module")
          m.Ast.rules;
      List.iter
        (fun (ann : Ast.annotation) ->
          match ann with
          | Ast.Ann_multiset (p, n) -> mark (key (Symbol.name p) n) "multiset predicate"
          | Ast.Ann_aggregate_selection { sel_pred; pattern; _ } ->
            mark (key (Symbol.name sel_pred) (Array.length pattern)) "aggregate selection"
          | _ -> ())
        m.Ast.annotations)
    (t.src.src_modules ());
  let recursive =
    let l = recursive_keys rules derived in
    fun k -> List.mem k l
  in
  (* per-rule membership in the class *)
  List.iter
    (fun (_, _, (r : Ast.rule)) ->
      let h = head_key r in
      if not (Hashtbl.mem bad h) then begin
        if not (Ast.head_is_plain r.Ast.head) then mark h "aggregation in the head"
        else begin
          match check_rule_body ~recursive:(recursive h) r with
          | Error reason -> mark h reason
          | Ok () ->
            List.iter
              (fun lit ->
                match Ast.literal_atom lit with
                | Some (a : Ast.atom) ->
                  let name = Symbol.name a.Ast.pred in
                  let arity = Array.length a.Ast.args in
                  if String.contains name '@' then
                    mark h (Printf.sprintf "reserved body predicate %s" name)
                  else if
                    (not (Hashtbl.mem derived (atom_key a)))
                    && t.src.src_foreign a.Ast.pred arity
                  then mark h (Printf.sprintf "foreign predicate %s/%d in body" name arity)
                | None -> ())
              r.Ast.body
        end
      end)
    rules;
  (* unsupportedness propagates to dependents: a rule body over a
     fallback derived predicate makes its head fall back too *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, _, (r : Ast.rule)) ->
        let h = head_key r in
        if not (Hashtbl.mem bad h) then
          List.iter
            (fun lit ->
              match Ast.literal_atom lit with
              | Some a ->
                let bk = atom_key a in
                if Hashtbl.mem bad bk && not (Hashtbl.mem bad h) then begin
                  mark h (Printf.sprintf "depends on fallback predicate %s" bk);
                  changed := true
                end
              | None -> ())
            r.Ast.body)
      rules
  done;
  t.bad <-
    Hashtbl.fold (fun k reason acc -> (k, reason) :: acc) bad [] |> List.sort compare;
  let prules =
    List.filter_map
      (fun (_, _, (r : Ast.rule)) ->
        let h = head_key r in
        if Hashtbl.mem bad h then None
        else begin
          let hargs, body, nvars = renumber_rule r in
          let pos =
            List.concat_map
              (fun (i, lit) ->
                match (lit : Ast.literal) with
                | Ast.Pos a ->
                  let rest = List.filteri (fun j _ -> j <> i) body in
                  [ atom_key a, a.Ast.args, rest ]
                | _ -> [])
              (List.mapi (fun i l -> i, l) body)
          in
          Some { pr_hkey = h; pr_hargs = hargs; pr_body = body; pr_nvars = nvars; pr_pos = pos }
        end)
      rules
  in
  t.rules <- prules;
  let by_body = Hashtbl.create 32 in
  List.iter
    (fun pr ->
      List.iter
        (fun (pk, pargs, rest) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_body pk) in
          Hashtbl.replace by_body pk ((pr, pargs, rest) :: cur))
        pr.pr_pos)
    prules;
  t.by_body <- by_body;
  t.wants <- index_wants prules;
  (* fresh extents for every maintained predicate *)
  Hashtbl.reset t.exts;
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem bad k) then begin
        let name, arity = split_key k in
        Hashtbl.add t.exts k (Hash_relation.create ~name ~arity ())
      end)
    derived

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* The maintenance rulebase: extents first, stored base relations
   otherwise, no rule expansion and no foreigns (the class excludes
   them). *)
let rulebase t =
  { Pipeline.rules_of = (fun _ _ -> []);
    relation_of =
      (fun pred arity ->
        match Hashtbl.find_opt t.exts (pred_key pred arity) with
        | Some e -> Some e
        | None -> t.src.src_relation pred arity);
    foreign_of = (fun _ _ -> None);
    tick = t.src.src_tick
  }

let resolve_head pr env = Array.map (fun a -> Unify.resolve a env) pr.pr_hargs

(* Run one activation: bind [dargs] into the delta occurrence, solve
   the remaining body, and hand each resolved head tuple to [emit]. *)
let activate t (pr, pargs, rest) dargs emit =
  t.src.src_tick ();
  let env = Bindenv.create (max pr.pr_nvars 1) in
  let tr = Trail.create () in
  if Unify.unify_arrays tr pargs env dargs Bindenv.empty then
    Pipeline.solve (rulebase t) rest ~nvars:pr.pr_nvars ~env (fun () ->
        emit pr (resolve_head pr env))

let activations t dkey = Option.value ~default:[] (Hashtbl.find_opt t.by_body dkey)

(* ------------------------------------------------------------------ *)
(* Insertion propagation                                               *)
(* ------------------------------------------------------------------ *)

(* Semi-naive insertion rounds: every delta tuple is joined at each of
   its occurrences against the full current state (which already
   includes the delta — sound and complete for monotone rules), and
   tuples that actually grow an extent form the next round's delta. *)
let propagate t ~derived ~rounds (delta : (string * Term.t array) list) =
  let current = ref delta in
  while !current <> [] do
    incr rounds;
    let next = ref [] in
    List.iter
      (fun (dkey, dargs) ->
        List.iter
          (fun act ->
            activate t act dargs (fun pr ht ->
                match Hashtbl.find_opt t.exts pr.pr_hkey with
                | Some ext ->
                  if Relation.insert ext (Tuple.of_terms ht) then begin
                    incr derived;
                    next := (pr.pr_hkey, ht) :: !next
                  end
                | None -> ()))
          (activations t dkey))
      !current;
    current := List.rev !next
  done

(* ------------------------------------------------------------------ *)
(* Full refresh                                                        *)
(* ------------------------------------------------------------------ *)

let refresh t =
  analyse t;
  install_indexes t;
  t.refresh_count <- t.refresh_count + 1;
  (* seed extents with the stored base facts of maintained predicates
     (a predicate can be derived by rules AND hold base facts) *)
  let seeds = ref [] in
  Hashtbl.iter
    (fun k ext ->
      let name, arity = split_key k in
      match t.src.src_relation (Symbol.intern name) arity with
      | Some rel ->
        Seq.iter
          (fun (tu : Tuple.t) ->
            if Relation.insert ext (Tuple.of_terms tu.Tuple.terms) then
              seeds := (k, tu.Tuple.terms) :: !seeds)
          (Relation.scan rel ())
      | None -> ())
    t.exts;
  (* round 0: one naive full pass per rule (covers bodies over pure-EDB
     relations, which never produce deltas of their own) ... *)
  let derived = ref 0 and rounds = ref 0 in
  let delta0 = ref !seeds in
  List.iter
    (fun pr ->
      t.src.src_tick ();
      let env = Bindenv.create (max pr.pr_nvars 1) in
      Pipeline.solve (rulebase t) pr.pr_body ~nvars:pr.pr_nvars ~env (fun () ->
          let ht = resolve_head pr env in
          match Hashtbl.find_opt t.exts pr.pr_hkey with
          | Some ext ->
            if Relation.insert ext (Tuple.of_terms ht) then
              delta0 := (pr.pr_hkey, ht) :: !delta0
          | None -> ()))
    t.rules;
  (* ... then semi-naive rounds on the derived deltas *)
  propagate t ~derived ~rounds !delta0;
  t.is_stale <- false

let ensure t = if t.is_stale then refresh t

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

(* The entry state of every update: extents built, indexes in place. *)
let prepare t =
  ensure t;
  install_indexes t

let insert t facts =
  prepare t;
  let derived = ref 0 and rounds = ref 0 in
  let delta =
    List.filter_map
      (fun (pred, args) ->
        let k = pred_key pred (Array.length args) in
        match Hashtbl.find_opt t.exts k with
        | Some ext ->
          (* a base fact already derivable by rules grows nothing and
             propagates nothing *)
          if Relation.insert ext (Tuple.of_terms args) then Some (k, args) else None
        | None -> Some (k, args))
      facts
  in
  propagate t ~derived ~rounds delta;
  { u_derived = !derived; u_deleted = 0; u_rederived = 0; u_rounds = !rounds }

(* ------------------------------------------------------------------ *)
(* Retract: delete and rederive                                        *)
(* ------------------------------------------------------------------ *)

exception Witness

(* Is [args] still derivable for the rules heading [hkey], against the
   current (post-deletion) state? *)
let has_rule_support t hkey args =
  List.exists
    (fun pr ->
      pr.pr_hkey = hkey
      &&
      let env = Bindenv.create (max pr.pr_nvars 1) in
      let tr = Trail.create () in
      Unify.unify_arrays tr pr.pr_hargs env args Bindenv.empty
      &&
      match
        Pipeline.solve (rulebase t) pr.pr_body ~nvars:pr.pr_nvars ~env (fun () ->
            raise Witness)
      with
      | () -> false
      | exception Witness -> true)
    t.rules

let retract t facts =
  prepare t;
  let removed = ref 0 and missing = ref 0 in
  let derived = ref 0 and deleted = ref 0 and rederived = ref 0 and rounds = ref 0 in
  (* the over-deletion set, per predicate key *)
  let dacc : (string, unit Term.ArrayTbl.t) Hashtbl.t = Hashtbl.create 16 in
  let in_dacc k args =
    match Hashtbl.find_opt dacc k with
    | Some tbl -> Term.ArrayTbl.mem tbl args
    | None -> false
  in
  let add_dacc k args =
    let tbl =
      match Hashtbl.find_opt dacc k with
      | Some tbl -> tbl
      | None ->
        let tbl = Term.ArrayTbl.create 16 in
        Hashtbl.add dacc k tbl;
        tbl
    in
    Term.ArrayTbl.replace tbl args ()
  in
  (* seed with the base facts actually present *)
  let seeds =
    List.filter_map
      (fun (pred, args) ->
        let k = pred_key pred (Array.length args) in
        if in_dacc k args then None  (* duplicate in the batch *)
        else begin
          match t.src.src_relation pred (Array.length args) with
          | Some rel when Relation.mem rel (Tuple.of_terms args) ->
            incr removed;
            add_dacc k args;
            Some (k, args)
          | _ ->
            incr missing;
            None
        end)
      facts
  in
  if seeds <> [] then begin
    (* over-deletion rounds against the pre-delete state: anything
       derivable through a deleted tuple is provisionally deleted *)
    let current = ref seeds in
    while !current <> [] do
      incr rounds;
      let next = ref [] in
      List.iter
        (fun (dkey, dargs) ->
          List.iter
            (fun act ->
              activate t act dargs (fun pr ht ->
                  if not (in_dacc pr.pr_hkey ht) then begin
                    match Hashtbl.find_opt t.exts pr.pr_hkey with
                    | Some ext when Relation.mem ext (Tuple.of_terms ht) ->
                      add_dacc pr.pr_hkey ht;
                      next := (pr.pr_hkey, ht) :: !next
                    | _ -> ()
                  end))
            (activations t dkey))
        !current;
      current := List.rev !next
    done;
    (* physical deletion: the retracted base facts, and every
       over-deleted extent tuple *)
    List.iter
      (fun (k, args) ->
        let name, arity = split_key k in
        match t.src.src_relation (Symbol.intern name) arity with
        | Some rel ->
          let target = Tuple.of_terms args in
          ignore
            (Relation.delete rel ~pattern:(args, Bindenv.empty) (fun tu ->
                 Tuple.equal tu target))
        | None -> ())
      seeds;
    Hashtbl.iter
      (fun k tbl ->
        match Hashtbl.find_opt t.exts k with
        | Some ext ->
          Term.ArrayTbl.iter
            (fun args () ->
              let target = Tuple.of_terms args in
              deleted :=
                !deleted
                + Relation.delete ext ~pattern:(args, Bindenv.empty) (fun tu ->
                      Tuple.equal tu target))
            tbl
        | None -> ())
      dacc;
    (* rederivation: an over-deleted tuple with alternative support — a
       surviving base fact or a rule derivation from the remaining
       state — comes back, and reinsertions cascade like inserts *)
    let reborn = ref [] in
    Hashtbl.iter
      (fun k tbl ->
        match Hashtbl.find_opt t.exts k with
        | Some ext ->
          let name, arity = split_key k in
          let base = t.src.src_relation (Symbol.intern name) arity in
          Term.ArrayTbl.iter
            (fun args () ->
              t.src.src_tick ();
              let supported =
                (match base with
                | Some rel -> Relation.mem rel (Tuple.of_terms args)
                | None -> false)
                || has_rule_support t k args
              in
              if supported && Relation.insert ext (Tuple.of_terms args) then begin
                incr rederived;
                reborn := (k, args) :: !reborn
              end)
            tbl
        | None -> ())
      dacc;
    propagate t ~derived ~rounds !reborn
  end;
  ( !removed,
    !missing,
    { u_derived = !derived;
      u_deleted = !deleted;
      u_rederived = !rederived;
      u_rounds = !rounds
    } )
