open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

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

let extent t pred arity = Hashtbl.find_opt t.exts (Capability.key_of pred arity)

let extents t = Hashtbl.fold (fun k rel acc -> (k, rel) :: acc) t.exts []

(* The maintained predicates are Capability's maintainable ones; each
   gets a fresh extent, and the rest fall back to recompute. *)
let analyse t =
  let a =
    Capability.analyse ~foreign:t.src.src_foreign (t.src.src_modules ()) (t.src.src_user_rules ())
  in
  Hashtbl.reset t.exts;
  t.bad <-
    List.filter_map
      (fun (p : Capability.pred) ->
        match p.maintainable with
        | Error reason -> Some (p.key, reason)
        | Ok () ->
          Hashtbl.add t.exts p.key
            (Hash_relation.create ~name:(Symbol.name p.sym) ~arity:p.arity ());
          None)
      a.Capability.preds;
  t.rules <-
    List.filter_map
      (fun (r : Capability.rule) -> if Hashtbl.mem t.exts r.head then Some r.rule else None)
      a.Capability.rules

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
    let k = Capability.key_of pred arity in
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
  let target pred arity =
    Module_struct.Slot (Hashtbl.find slot_of (Capability.key_of pred arity))
  in
  let compile ?delta r = Module_struct.compile_rule ~rels ~target ?delta r in
  let refresh =
    List.map
      (fun (r : Ast.rule) ->
        let h = Hashtbl.find slot_of (Capability.head_key r) in
        let support = { r with Ast.body = Ast.Pos (Ast.atom_of_head r.Ast.head) :: r.Ast.body } in
        preds.(h).support <- preds.(h).support @ [ compile ~delta:(0, h + (2 * n)) support ];
        List.iteri
          (fun i lit ->
            match (lit : Ast.literal) with
            | Ast.Pos a ->
              let s = Hashtbl.find slot_of (Capability.atom_key a) in
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
        match Hashtbl.find_opt t.kernel.slot_of (Capability.key_of pred (Array.length args)) with
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
          match Hashtbl.find_opt t.kernel.slot_of (Capability.key_of pred (Array.length args)) with
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
