open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

(* Incremental view maintenance (see maintain.mli).  Every join runs in
   the delta kernel (Delta_kernel), the rules compiled once and run
   through Joiner like the fixpoint's: the maintained rules as written
   for a full refresh, one activation per positive body literal whose
   first scan reads that predicate's scratch delta relation, and one
   support activation per rule whose first scan reads the candidates
   for rederivation in place.  A round loads its whole delta batch and
   runs each activation once. *)

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

(* The compiled maintenance program: the maintained rules in the delta
   kernel, and per kernel slot whether it reads an extent (maintained
   predicate) or a stored relation, the over-deleted tuples awaiting
   rederivation (extents only), and the support activations, scanning
   the slot's candidates, that rederive them. *)
type kernel = {
  k : unit Delta_kernel.t;
  is_ext : bool array;
  cand : Relation.t array;
  support : Module_struct.crule list array;
  missing : (Symbol.t * int) list;  (* body predicates with no stored relation yet *)
}

let no_kernel () =
  { k = Delta_kernel.compile ~resolve:(fun _ _ -> assert false) ~written:(fun () -> true) [];
    is_ext = [||];
    cand = [||];
    support = [||];
    missing = []
  }

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

(* Compile the maintained rules into the kernel, all of them also as
   written (the full refresh runs them), and one support activation
   per rule: its head, scanning the head's candidates, then its body.  A body predicate with no
   stored relation yet reads an empty placeholder, and [prepare]
   recompiles once it appears. *)
let compile t =
  let missing = ref [] and exts = ref [] in
  let resolve pred arity =
    Module_struct.P_rel
      (match extent t pred arity with
      | Some ext ->
        exts := ext :: !exts;
        ext
      | None -> (
        match t.src.src_relation pred arity with
        | Some rel -> rel
        | None ->
          missing := (pred, arity) :: !missing;
          Hash_relation.create ~name:(Symbol.name pred) ~arity ()))
  in
  let k =
    Delta_kernel.compile ~tick:t.src.src_tick ~resolve ~written:(fun () -> true)
      (List.map (fun r -> (), r) t.rules)
  in
  let n = Delta_kernel.size k in
  let rel s = Delta_kernel.full k s in
  let cand =
    Array.init n (fun s ->
        Hash_relation.create ~name:(rel s).Relation.name ~arity:(rel s).Relation.arity ())
  in
  let support = Array.make n [] in
  List.iter
    (fun (r : Ast.rule) ->
      let h =
        Option.get (Delta_kernel.slot k r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs))
      in
      let rule = { r with Ast.body = Ast.Pos (Ast.atom_of_head r.Ast.head) :: r.Ast.body } in
      support.(h) <- support.(h) @ [ Delta_kernel.compile_scan k ~scan:(0, cand.(h)) rule ])
    t.rules;
  { k; is_ext = Array.init n (fun s -> List.memq (rel s) !exts); cand; support; missing = !missing }

(* ------------------------------------------------------------------ *)
(* Insertion propagation                                               *)
(* ------------------------------------------------------------------ *)

(* Semi-naive insertion rounds: the delta is joined at each of its
   occurrences against the full current state (which already includes
   the delta — sound and complete for monotone rules), and tuples that
   actually grow an extent form the next round's delta. *)
let propagate t ~derived ~rounds delta =
  let k = t.kernel.k in
  let current = ref delta in
  while !current <> [] do
    incr rounds;
    let next = ref [] in
    Delta_kernel.round k !current (fun () s tu ->
        if Relation.insert (Delta_kernel.full k s) tu then begin
          incr derived;
          next := (s, tu) :: !next
        end);
    current := List.rev !next
  done

(* The stored base relation behind a kernel slot. *)
let stored t s =
  let rel = Delta_kernel.full t.kernel.k s in
  t.src.src_relation (Symbol.intern rel.Relation.name) rel.Relation.arity

(* ------------------------------------------------------------------ *)
(* Full refresh                                                        *)
(* ------------------------------------------------------------------ *)

let refresh t =
  analyse t;
  t.kernel <- compile t;
  t.refresh_count <- t.refresh_count + 1;
  let k = t.kernel.k in
  (* seed extents with the stored base facts of maintained predicates
     (a predicate can be derived by rules AND hold base facts) *)
  let delta0 = ref [] in
  let grow s tu = if Relation.insert (Delta_kernel.full k s) tu then delta0 := (s, tu) :: !delta0 in
  Array.iteri
    (fun s is_ext ->
      if is_ext then
        Option.iter
          (fun rel ->
            Seq.iter
              (fun (tu : Tuple.t) -> grow s (Tuple.of_terms tu.Tuple.terms))
              (Relation.scan rel ()))
          (stored t s))
    t.kernel.is_ext;
  (* round 0: one naive full pass per rule (covers bodies over pure-EDB
     relations, which never produce deltas of their own) ... *)
  Delta_kernel.run_written k (fun () -> grow);
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
  let k = t.kernel.k in
  let derived = ref 0 and rounds = ref 0 in
  let delta =
    List.filter_map
      (fun (pred, args) ->
        match Delta_kernel.slot k pred (Array.length args) with
        | None -> None  (* no maintained rule reads it *)
        | Some s ->
          let tu = Tuple.of_terms args in
          (* a base fact already derivable by rules grows nothing and
             propagates nothing *)
          if (not t.kernel.is_ext.(s)) || Relation.insert (Delta_kernel.full k s) tu then
            Some (s, tu)
          else None)
      facts
  in
  propagate t ~derived ~rounds delta;
  { u_derived = !derived; u_deleted = 0; u_rederived = 0; u_rounds = !rounds }

(* ------------------------------------------------------------------ *)
(* Retract: delete and rederive                                        *)
(* ------------------------------------------------------------------ *)

let retract t facts =
  prepare t;
  let { k; is_ext; cand; support; _ } = t.kernel in
  let full = Delta_kernel.full k in
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
          match Delta_kernel.slot k pred (Array.length args) with
          | None -> None
          | Some s ->
            let tu = Tuple.of_terms args in
            if is_ext.(s) then ignore (Relation.insert_quiet cand.(s) tu);
            Some (s, tu))
        seeds
    in
    (* over-deletion rounds against the pre-delete state: anything
       derivable through a deleted tuple is provisionally deleted *)
    let current = ref delta in
    while !current <> [] do
      incr rounds;
      let next = ref [] in
      Delta_kernel.round k !current (fun () s tu ->
          if (not (Relation.mem cand.(s) tu)) && Relation.mem (full s) tu then begin
            ignore (Relation.insert_quiet cand.(s) tu);
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
    let over = Array.map (fun c -> Relation.cardinal c > 0) cand in
    Array.iteri
      (fun s o ->
        if o then
          Seq.iter
            (fun tu -> deleted := !deleted + delete_exact (full s) tu)
            (Relation.scan_quiet cand.(s) ()))
      over;
    (* rederivation: an over-deleted tuple with alternative support — a
       surviving base fact, or a match of a support activation over the
       candidates against the remaining state — comes back, and
       reinsertions cascade like inserts *)
    let reborn = ref [] in
    let restore s tu =
      if Relation.insert (full s) tu then begin
        incr rederived;
        reborn := (s, tu) :: !reborn
      end
    in
    Array.iteri
      (fun s o ->
        if o then begin
          Option.iter
            (fun base ->
              Seq.iter
                (fun tu -> if Relation.mem base tu then restore s tu)
                (Relation.scan_quiet cand.(s) ()))
            (stored t s);
          List.iter (fun rule -> Delta_kernel.run k rule restore) support.(s)
        end)
      over;
    Array.iteri (fun s o -> if o then Relation.clear cand.(s)) over;
    propagate t ~derived ~rounds (List.rev !reborn)
  end;
  ( !removed,
    !missing,
    { u_derived = !derived;
      u_deleted = !deleted;
      u_rederived = !rederived;
      u_rounds = !rounds
    } )
