open Coral_term
open Coral_lang
open Coral_rel

(* Incremental view maintenance (see maintain.mli).  Every join is a
   compiled rule run through Joiner, the fixpoint's kernel: the
   maintained rules as written for a full refresh, one activation per
   positive body literal whose first scan reads that predicate's
   scratch delta relation, and one support activation per rule whose
   first scan reads the candidates for rederivation.  A round loads its
   whole delta batch and runs each activation once. *)

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

(* One predicate a maintained rule mentions: its extent (maintained
   predicates) or stored relation, and two scratch relations — this
   round's delta, and the over-deleted tuples awaiting rederivation
   (extents only).  With [n] predicates, kernel slot [s] reads [rel],
   slot [s + n] reads [delta] and slot [s + 2n] reads [cand]. *)
type pred = {
  rel : Relation.t;
  is_ext : bool;
  delta : Relation.t;
  cand : Relation.t;
  mutable acts : Module_struct.crule list;  (* activations on [delta] *)
  mutable support : Module_struct.crule list;  (* support activations on [cand] *)
}

(* The compiled maintenance program. *)
type kernel = {
  rels : Relation.t array;
  preds : pred array;
  slot_of : (string, int) Hashtbl.t;  (* "name/arity" -> slot *)
  refresh : Module_struct.crule list;  (* the maintained rules as written *)
  missing : (Symbol.t * int) list;  (* body predicates with no stored relation yet *)
}

let no_kernel () =
  { rels = [||]; preds = [||]; slot_of = Hashtbl.create 1; refresh = []; missing = [] }

type t = {
  src : source;
  exts : (string, Relation.t) Hashtbl.t;  (* "name/arity" -> extent *)
  mutable rules : Ast.rule list;  (* rules of maintained predicates *)
  mutable kernel : kernel;
  mutable bad : (string * string) list;  (* fallback predicates + reason *)
  mutable is_stale : bool;
  mutable refresh_count : int;
}

let pred_key pred arity = Symbol.name pred ^ "/" ^ string_of_int arity
let atom_key (a : Ast.atom) = pred_key a.Ast.pred (Array.length a.Ast.args)

let create src =
  { src;
    exts = Hashtbl.create 16;
    rules = [];
    kernel = no_kernel ();
    bad = [];
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
    (fun (m : Ast.module_) -> List.map (fun r -> m.Ast.mname, r) m.Ast.rules)
    (t.src.src_modules ())
  @ List.map (fun r -> "user", r) (t.src.src_user_rules ())

(* Derived predicates in a recursive cycle: reachability over the
   head -> body-derived-predicate graph. *)
let recursive_keys rules derived =
  let edges = Hashtbl.create 32 in
  List.iter
    (fun (_, (r : Ast.rule)) ->
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
    (fun k _ acc -> if Hashtbl.mem (reachable_from k) k then k :: acc else acc)
    derived []

(* Analyse the current program: partition derived predicates into
   maintained and fallback, and give each maintained one a fresh
   extent. *)
let analyse t =
  let rules = all_rules t in
  let derived = Hashtbl.create 32 in
  List.iter
    (fun (_, (r : Ast.rule)) ->
      let h = r.Ast.head in
      Hashtbl.replace derived (head_key r) (h.Ast.hpred, Array.length h.Ast.hargs))
    rules;
  let bad = Hashtbl.create 8 in
  let mark k reason = if not (Hashtbl.mem bad k) then Hashtbl.add bad k reason in
  (* a predicate defined in two modules merges two separately scoped
     definitions into one extent — fall back (same rule as the
     distribution planner) *)
  Hashtbl.iter
    (fun k _ ->
      let defined_in =
        List.filter_map (fun (mname, r) -> if head_key r = k then Some mname else None) rules
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
          | Ast.Ann_multiset (p, n) -> mark (pred_key p n) "multiset predicate"
          | Ast.Ann_aggregate_selection { sel_pred; pattern; _ } ->
            mark (pred_key sel_pred (Array.length pattern)) "aggregate selection"
          | _ -> ())
        m.Ast.annotations)
    (t.src.src_modules ());
  let recursive =
    let l = recursive_keys rules derived in
    fun k -> List.mem k l
  in
  (* per-rule membership in the class *)
  List.iter
    (fun (_, (r : Ast.rule)) ->
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
      (fun (_, (r : Ast.rule)) ->
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
  t.rules <-
    List.filter_map (fun (_, r) -> if Hashtbl.mem bad (head_key r) then None else Some r) rules;
  (* fresh extents for every maintained predicate *)
  Hashtbl.reset t.exts;
  Hashtbl.iter
    (fun k (pred, arity) ->
      if not (Hashtbl.mem bad k) then
        Hashtbl.add t.exts k (Hash_relation.create ~name:(Symbol.name pred) ~arity ()))
    derived

(* ------------------------------------------------------------------ *)
(* The kernel                                                          *)
(* ------------------------------------------------------------------ *)

(* Compile the maintained rules against one slot per predicate they
   mention: the rules as written, the activations and the support
   activations.  A body predicate with no stored relation yet reads an
   empty placeholder, and [prepare] recompiles once it appears. *)
let compile t =
  let slot_of = Hashtbl.create 32 and order = ref [] and missing = ref [] in
  let see pred arity =
    let k = pred_key pred arity in
    if not (Hashtbl.mem slot_of k) then begin
      Hashtbl.add slot_of k (Hashtbl.length slot_of);
      order := (k, pred, arity) :: !order
    end
  in
  List.iter
    (fun (r : Ast.rule) ->
      see r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs);
      List.iter
        (fun lit ->
          Option.iter (fun (a : Ast.atom) -> see a.Ast.pred (Array.length a.Ast.args))
            (Ast.literal_atom lit))
        r.Ast.body)
    t.rules;
  let preds =
    List.rev_map
      (fun (k, pred, arity) ->
        let scratch () = Hash_relation.create ~name:(Symbol.name pred) ~arity () in
        let rel, is_ext =
          match Hashtbl.find_opt t.exts k with
          | Some ext -> ext, true
          | None -> begin
            match t.src.src_relation pred arity with
            | Some rel -> rel, false
            | None ->
              missing := (pred, arity) :: !missing;
              scratch (), false
          end
        in
        { rel; is_ext; delta = scratch (); cand = scratch (); acts = []; support = [] })
      !order
    |> Array.of_list
  in
  let n = Array.length preds in
  let rels =
    Array.concat
      [ Array.map (fun p -> p.rel) preds;
        Array.map (fun p -> p.delta) preds;
        Array.map (fun p -> p.cand) preds
      ]
  in
  let target pred arity = Module_struct.Slot (Hashtbl.find slot_of (pred_key pred arity)) in
  let compile ?delta r = Module_struct.compile_rule ~rels ~target ?delta r in
  let refresh =
    List.map
      (fun (r : Ast.rule) ->
        let h = Hashtbl.find slot_of (head_key r) in
        let support = { r with Ast.body = Ast.Pos (Ast.atom_of_head r.Ast.head) :: r.Ast.body } in
        preds.(h).support <- preds.(h).support @ [ compile ~delta:(0, h + (2 * n)) support ];
        List.iteri
          (fun i lit ->
            match (lit : Ast.literal) with
            | Ast.Pos a ->
              let s = Hashtbl.find slot_of (atom_key a) in
              preds.(s).acts <- preds.(s).acts @ [ compile ~delta:(i, s + n) r ]
            | _ -> ())
          r.Ast.body;
        compile r)
      t.rules
  in
  { rels; preds; slot_of; refresh; missing = !missing }

(* Run one compiled rule, handing each head tuple to [emit] with the
   slot of its extent. *)
let run t (rule : Module_struct.crule) emit =
  t.src.src_tick ();
  Joiner.run ~rels:t.kernel.rels ~range:Joiner.full_range rule ~on_match:(fun env ->
      t.src.src_tick ();
      emit rule.Module_struct.head_slot (Joiner.head_tuple rule env))

(* One round over a delta batch of (slot, tuple): load it into the
   scratch delta relations, run every activation of each loaded
   predicate once over the whole batch, and empty them again. *)
let round t delta emit =
  let preds = t.kernel.preds in
  List.iter (fun (s, tu) -> ignore (Relation.insert_quiet preds.(s).delta tu)) delta;
  let loaded = List.sort_uniq compare (List.map fst delta) in
  List.iter (fun s -> List.iter (fun rule -> run t rule emit) preds.(s).acts) loaded;
  List.iter (fun s -> Relation.clear preds.(s).delta) loaded

(* ------------------------------------------------------------------ *)
(* Insertion propagation                                               *)
(* ------------------------------------------------------------------ *)

(* Semi-naive insertion rounds: the delta is joined at each of its
   occurrences against the full current state (which already includes
   the delta — sound and complete for monotone rules), and tuples that
   actually grow an extent form the next round's delta. *)
let propagate t ~derived ~rounds delta =
  let current = ref delta in
  while !current <> [] do
    incr rounds;
    let next = ref [] in
    round t !current (fun s tu ->
        if Relation.insert t.kernel.preds.(s).rel tu then begin
          incr derived;
          next := (s, tu) :: !next
        end);
    current := List.rev !next
  done

(* The stored base relation behind a kernel predicate. *)
let stored t p = t.src.src_relation (Symbol.intern p.rel.Relation.name) p.rel.Relation.arity

(* ------------------------------------------------------------------ *)
(* Full refresh                                                        *)
(* ------------------------------------------------------------------ *)

let refresh t =
  analyse t;
  t.kernel <- compile t;
  t.refresh_count <- t.refresh_count + 1;
  (* seed extents with the stored base facts of maintained predicates
     (a predicate can be derived by rules AND hold base facts) *)
  let delta0 = ref [] in
  let grow s tu = if Relation.insert t.kernel.preds.(s).rel tu then delta0 := (s, tu) :: !delta0 in
  Array.iteri
    (fun s p ->
      if p.is_ext then
        Option.iter
          (fun rel ->
            Seq.iter
              (fun (tu : Tuple.t) -> grow s (Tuple.of_terms tu.Tuple.terms))
              (Relation.scan rel ()))
          (stored t p))
    t.kernel.preds;
  (* round 0: one naive full pass per rule (covers bodies over pure-EDB
     relations, which never produce deltas of their own) ... *)
  List.iter (fun rule -> run t rule grow) t.kernel.refresh;
  (* ... then semi-naive rounds on the derived deltas *)
  propagate t ~derived:(ref 0) ~rounds:(ref 0) !delta0;
  t.is_stale <- false

let ensure t = if t.is_stale then refresh t

(* The entry state of every update: extents built, and the kernel
   compiled against every stored relation that exists now. *)
let prepare t =
  ensure t;
  if List.exists (fun (pred, arity) -> t.src.src_relation pred arity <> None) t.kernel.missing
  then t.kernel <- compile t

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

let insert t facts =
  prepare t;
  let derived = ref 0 and rounds = ref 0 in
  let delta =
    List.filter_map
      (fun (pred, args) ->
        match Hashtbl.find_opt t.kernel.slot_of (pred_key pred (Array.length args)) with
        | None -> None  (* no maintained rule reads it *)
        | Some s ->
          let p = t.kernel.preds.(s) and tu = Tuple.of_terms args in
          (* a base fact already derivable by rules grows nothing and
             propagates nothing *)
          if (not p.is_ext) || Relation.insert p.rel tu then Some (s, tu) else None)
      facts
  in
  propagate t ~derived ~rounds delta;
  { u_derived = !derived; u_deleted = 0; u_rederived = 0; u_rounds = !rounds }

(* ------------------------------------------------------------------ *)
(* Retract: delete and rederive                                        *)
(* ------------------------------------------------------------------ *)

let retract t facts =
  prepare t;
  let preds = t.kernel.preds in
  let removed = ref 0 and missing = ref 0 in
  let derived = ref 0 and deleted = ref 0 and rederived = ref 0 and rounds = ref 0 in
  (* seed with the base facts actually present, each once *)
  let present = Term.ArrayTbl.create 8 in
  let seeds =
    List.filter
      (fun (pred, args) ->
        let fact = [| Term.app pred args |] in
        (not (Term.ArrayTbl.mem present fact))
        &&
        match t.src.src_relation pred (Array.length args) with
        | Some rel when Relation.mem rel (Tuple.of_terms args) ->
          incr removed;
          Term.ArrayTbl.add present fact ();
          true
        | _ ->
          incr missing;
          false)
      facts
  in
  if seeds <> [] then begin
    (* the over-deletion set of each extent is its candidates relation;
       a retracted base fact of a maintained predicate starts in it *)
    let delta =
      List.filter_map
        (fun (pred, args) ->
          match Hashtbl.find_opt t.kernel.slot_of (pred_key pred (Array.length args)) with
          | None -> None
          | Some s ->
            let tu = Tuple.of_terms args in
            if preds.(s).is_ext then ignore (Relation.insert_quiet preds.(s).cand tu);
            Some (s, tu))
        seeds
    in
    (* over-deletion rounds against the pre-delete state: anything
       derivable through a deleted tuple is provisionally deleted *)
    let current = ref delta in
    while !current <> [] do
      incr rounds;
      let next = ref [] in
      round t !current (fun s tu ->
          let p = preds.(s) in
          if (not (Relation.mem p.cand tu)) && Relation.mem p.rel tu then begin
            ignore (Relation.insert_quiet p.cand tu);
            next := (s, tu) :: !next
          end);
      current := List.rev !next
    done;
    (* physical deletion: the retracted base facts, and every
       over-deleted extent tuple *)
    let delete_exact rel (tu : Tuple.t) =
      Relation.delete rel ~pattern:(tu.Tuple.terms, Bindenv.empty) (Tuple.equal tu)
    in
    List.iter
      (fun (pred, args) ->
        Option.iter
          (fun rel -> ignore (delete_exact rel (Tuple.of_terms args)))
          (t.src.src_relation pred (Array.length args)))
      seeds;
    let over = List.filter (fun p -> Relation.cardinal p.cand > 0) (Array.to_list preds) in
    List.iter
      (fun p ->
        Seq.iter
          (fun tu -> deleted := !deleted + delete_exact p.rel tu)
          (Relation.scan_quiet p.cand ()))
      over;
    (* rederivation: an over-deleted tuple with alternative support — a
       surviving base fact, or a match of a support activation over the
       candidates against the remaining state — comes back, and
       reinsertions cascade like inserts *)
    let reborn = ref [] in
    let restore s tu =
      if Relation.insert preds.(s).rel tu then begin
        incr rederived;
        reborn := (s, tu) :: !reborn
      end
    in
    Array.iteri
      (fun s p ->
        if List.memq p over then begin
          Option.iter
            (fun base ->
              Seq.iter
                (fun tu -> if Relation.mem base tu then restore s tu)
                (Relation.scan_quiet p.cand ()))
            (stored t p);
          List.iter (fun rule -> run t rule restore) p.support
        end)
      preds;
    List.iter (fun p -> Relation.clear p.cand) over;
    propagate t ~derived ~rounds (List.rev !reborn)
  end;
  ( !removed,
    !missing,
    { u_derived = !derived;
      u_deleted = !deleted;
      u_rederived = !rederived;
      u_rounds = !rounds
    } )
