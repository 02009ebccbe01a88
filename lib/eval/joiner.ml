open Coral_term
open Coral_rel
open Module_struct

(* The body is evaluated by recursive descent over op positions.  The
   return value of [eval i] is a backjump target: [continue_code] means
   "keep enumerating at every level"; a value [t < i] aborts the
   current enumeration and unwinds to position [t] (intelligent
   backtracking: nothing between [t] and [i] can change the outcome at
   [i]). *)
let continue_code = max_int

(* Stands for "no ground value" in [ground_value]: a value that is not
   ground makes the candidate take the unifying path. *)
let not_ground = Term.var ~name:"_" (-1)

(* The value of a term under an environment when it is ground, without
   building anything: a ground compound is returned as it is, a bound
   variable is followed, anything else is [not_ground]. *)
let rec ground_value (t : Term.t) env =
  match t with
  | Term.Const _ -> t
  | Term.Var v -> begin
    match Bindenv.lookup env v.Term.vid with
    | Some (t', env') -> ground_value t' env'
    | None -> not_ground
  end
  | Term.App a -> if a.Term.hid > 0 || a.Term.gkey > 0 || Term.is_ground t then t else not_ground

(* The compiled match's comparisons against a ground stored tuple's
   terms: everything but the bindings, so a failure leaves nothing to
   undo; [`Unify] when a bound variable's value is not ground. *)
let rec check_from (matcher : arg_match array) (terms : Term.t array) env k =
  if k >= Array.length matcher then `Match
  else begin
    match matcher.(k) with
    | Bind _ -> check_from matcher terms env (k + 1)
    | Equal c -> if Term.equal c terms.(k) then check_from matcher terms env (k + 1) else `Fail
    | Same j ->
      if Term.equal terms.(j) terms.(k) then check_from matcher terms env (k + 1) else `Fail
    | Bound vid ->
      let v =
        match Bindenv.lookup env vid with
        | Some (t, tenv) -> ground_value t tenv
        | None -> not_ground
      in
      if v == not_ground then `Unify
      else if Term.equal v terms.(k) then check_from matcher terms env (k + 1)
      else `Fail
  end

let check matcher (terms : Term.t array) env =
  if Array.length terms <> Array.length matcher then `Fail else check_from matcher terms env 0

let bind (matcher : arg_match array) (terms : Term.t array) env =
  for k = 0 to Array.length matcher - 1 do
    match matcher.(k) with
    | Bind vid -> Bindenv.bind env vid terms.(k) Bindenv.empty
    | Equal _ | Same _ | Bound _ -> ()
  done

let unbind (matcher : arg_match array) env =
  for k = 0 to Array.length matcher - 1 do
    match matcher.(k) with
    | Bind vid -> Bindenv.set_unbound env vid
    | Equal _ | Same _ | Bound _ -> ()
  done

(* One rule application's state.  The body is walked by the top-level
   functions below, which take the frame instead of closing over it, so
   an application allocates its frame and one candidate callback per
   scan position, and a scan allocates nothing of its own. *)
type frame = {
  rule : crule;
  rels : Relation.t array;
  range : op_index:int -> slot:int -> local:bool -> int * int;
  backjump : bool;
  scan_counts : int array option;
  witness : (int * Tuple.t) list ref option;
  chosen : Tuple.t option array;
      (* when witnesses are tracked, [chosen.(i)] holds the tuple
         selected at body position i on the current search path *)
  prof : rule_prof option;
  tick : unit -> unit;  (* polled as each literal over a relation or function is solved *)
  on_match : Bindenv.t -> unit;
  env : Bindenv.t;
  mutable trail : Trail.t option;  (* made on the first unification *)
  mutable seen : int;  (* candidates scans handed, credited at the end *)
  patterns : (Term.t array * Bindenv.t) option array;  (* per scan position *)
  visit : (Tuple.t -> bool) array;  (* per scan position: the candidate callback *)
  matched : bool array;  (* per scan position, for the open enumeration *)
  jump : int array;
  ord : int array;  (* striping ordinal of the open enumeration *)
}

let trail fr =
  match fr.trail with
  | Some tr -> tr
  | None ->
    let tr = Trail.create () in
    fr.trail <- Some tr;
    tr

let backtrack fr i = if fr.backjump then fr.rule.backtrack.(i) else i - 1
let record fr i tuple = if fr.witness <> None then fr.chosen.(i) <- Some tuple

let note_tuple fr =
  match fr.prof with
  | Some p -> p.rp_tuples <- p.rp_tuples + 1
  | None -> ()

(* Parallel workers count scans into a task-local array (flushed into
   relation stats at the merge barrier) instead of touching the
   unsynchronized counters. *)
let iter_slot fr slot ~from_mark ~to_mark ~pattern f =
  match fr.scan_counts with
  | None -> Relation.iter fr.rels.(slot) ~from_mark ~to_mark ~pattern f
  | Some counts ->
    counts.(slot) <- counts.(slot) + 1;
    Relation.iter_quiet fr.rels.(slot) ~from_mark ~to_mark ~pattern f

(* Unify a candidate the compiled match cannot take: the unifier's
   bindings are in place while [k] runs and undone after. *)
let unify_with fr args (tuple : Tuple.t) k =
  let tr = trail fr in
  let m = Trail.mark tr in
  let tenv =
    if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
  in
  let r = k (Unify.unify_arrays tr args fr.env tuple.Tuple.terms tenv) in
  Trail.undo_to tr m;
  r

let rec eval fr i =
  let rule = fr.rule in
  if i >= Array.length rule.body then begin
    (match fr.witness with
    | Some cell ->
      cell :=
        Array.to_list fr.chosen
        |> List.mapi (fun i o -> Option.map (fun tu -> i, tu) o)
        |> List.filter_map Fun.id
    | None -> ());
    (match fr.prof with
    | Some p -> p.rp_attempts <- p.rp_attempts + 1
    | None -> ());
    fr.on_match fr.env;
    continue_code
  end
  else begin
    match rule.body.(i) with
    | Scan { slot; local; _ } ->
      fr.tick ();
      let from_mark, to_mark = fr.range ~op_index:i ~slot ~local in
      if from_mark = to_mark && to_mark >= 0 then backtrack fr i
      else begin
        (* enumerate stored tuples *)
        fr.matched.(i) <- false;
        fr.jump.(i) <- continue_code;
        fr.ord.(i) <- -1;
        iter_slot fr slot ~from_mark ~to_mark ~pattern:fr.patterns.(i) fr.visit.(i);
        if fr.jump.(i) <> continue_code then fr.jump.(i)
        else if fr.matched.(i) then i - 1
        else backtrack fr i
      end
    | Foreign { f; args } ->
      fr.tick ();
      let answers = f.Builtin.fsolve args fr.env in
      enumerate_rows fr i args answers false
    | Negcheck { slot; _ } ->
      fr.tick ();
      fr.matched.(i) <- false;
      iter_slot fr slot ~from_mark:0 ~to_mark:(-1) ~pattern:fr.patterns.(i) fr.visit.(i);
      if fr.matched.(i) then backtrack fr i else eval fr (i + 1)
    | Negforeign { f; args } ->
      fr.tick ();
      let answers = f.Builtin.fsolve args fr.env in
      if matches_any_row fr args answers then backtrack fr i else eval fr (i + 1)
    | Compare (op, t1, t2) ->
      if Builtin.compare_terms op t1 fr.env t2 fr.env then eval fr (i + 1) else backtrack fr i
    | Assign (t1, t2) ->
      let v1 = Builtin.eval_term t1 fr.env and v2 = Builtin.eval_term t2 fr.env in
      let tr = trail fr in
      let m = Trail.mark tr in
      if Unify.unify tr v1 fr.env v2 fr.env then begin
        let t = eval fr (i + 1) in
        Trail.undo_to tr m;
        if t < i then t else backtrack fr i
      end
      else begin
        Trail.undo_to tr m;
        backtrack fr i
      end
  end

(* The body below scan position [i], once candidate [tuple] matched:
   false stops the enumeration (a backjump past [i]). *)
and descend fr i tuple =
  record fr i tuple;
  let t = eval fr (i + 1) in
  if t < i then begin
    fr.jump.(i) <- t;
    false
  end
  else begin
    fr.matched.(i) <- true;
    true
  end

(* One candidate of the scan at position [i]: a ground one meets the
   compiled match, anything else is unified. *)
and candidate fr i args matcher (tuple : Tuple.t) =
  note_tuple fr;
  fr.seen <- fr.seen + 1;
  match matcher with
  | Some ms when tuple.Tuple.nvars = 0 -> begin
    match check ms tuple.Tuple.terms fr.env with
    | `Fail -> true
    | `Match ->
      bind ms tuple.Tuple.terms fr.env;
      let more = descend fr i tuple in
      unbind ms fr.env;
      more
    | `Unify -> unify_with fr args tuple (fun ok -> (not ok) || descend fr i tuple)
  end
  | Some _ | None -> unify_with fr args tuple (fun ok -> (not ok) || descend fr i tuple)

(* Striping: lane [l] of [lanes] keeps every [lanes]-th candidate of the
   designated op.  The ordinal counter is fresh per scan opening, so
   for any fixed outer binding the lanes partition that opening's
   (deterministic) stream exactly. *)
and striped fr i lane lanes args matcher tuple =
  fr.ord.(i) <- fr.ord.(i) + 1;
  fr.ord.(i) mod lanes <> lane || candidate fr i args matcher tuple

(* One candidate of the negation check at position [i]: false (stop)
   once one matches. *)
and negated fr i args matcher (tuple : Tuple.t) =
  fr.seen <- fr.seen + 1;
  let hit =
    match matcher with
    | Some ms when tuple.Tuple.nvars = 0 -> begin
      match check ms tuple.Tuple.terms fr.env with
      | `Match -> true
      | `Fail -> false
      | `Unify -> unify_with fr args tuple Fun.id
    end
    | Some _ | None -> unify_with fr args tuple Fun.id
  in
  fr.matched.(i) <- hit;
  not hit

(* enumerate foreign answer rows (no tuple wrapper) *)
and enumerate_rows fr i args seq matched =
  match seq () with
  | Seq.Nil -> if matched then i - 1 else backtrack fr i
  | Seq.Cons (row, rest) ->
    note_tuple fr;
    let tr = trail fr in
    let m = Trail.mark tr in
    if Array.length row = Array.length args && Unify.unify_arrays tr args fr.env row Bindenv.empty
    then begin
      if fr.witness <> None then record fr i (Tuple.of_terms row);
      let t = eval fr (i + 1) in
      Trail.undo_to tr m;
      if t < i then t else enumerate_rows fr i args rest true
    end
    else begin
      Trail.undo_to tr m;
      enumerate_rows fr i args rest matched
    end

and matches_any_row fr args seq =
  match seq () with
  | Seq.Nil -> false
  | Seq.Cons (row, rest) ->
    let tr = trail fr in
    let m = Trail.mark tr in
    let hit =
      Array.length row = Array.length args && Unify.unify_arrays tr args fr.env row Bindenv.empty
    in
    Trail.undo_to tr m;
    hit || matches_any_row fr args rest

let no_visit (_ : Tuple.t) = false

let run ~rels ~range ?(backjump = true) ?stripe ?scan_counts ?visited ?witness ?prof
    ?(tick = ignore) (rule : crule) ~on_match =
  let n = Array.length rule.body in
  let env = Bindenv.create (max rule.nvars 1) in
  let fr =
    { rule;
      rels;
      range;
      backjump;
      scan_counts;
      witness;
      chosen = (match witness with Some _ -> Array.make n None | None -> [||]);
      prof;
      tick;
      on_match;
      env;
      trail = None;
      seen = 0;
      patterns =
        Array.map
          (function
            | Scan { args; _ } | Negcheck { args; _ } -> Some (args, env)
            | Foreign _ | Negforeign _ | Compare _ | Assign _ -> None)
          rule.body;
      visit = Array.make n no_visit;
      matched = Array.make n false;
      jump = Array.make n continue_code;
      ord = Array.make n 0
    }
  in
  Array.iteri
    (fun i op ->
      match op with
      | Scan { args; matcher; _ } ->
        fr.visit.(i) <-
          (match stripe with
          | Some (op, lane, lanes) when op = i -> striped fr i lane lanes args matcher
          | _ -> candidate fr i args matcher)
      | Negcheck { args; matcher; _ } -> fr.visit.(i) <- negated fr i args matcher
      | Foreign _ | Negforeign _ | Compare _ | Assign _ -> ())
    rule.body;
  let flush () =
    (match visited with
    | Some cell -> cell := !cell + fr.seen
    | None -> Relation.note_visited fr.seen);
    match prof with
    | Some p -> p.rp_visited <- p.rp_visited + fr.seen
    | None -> ()
  in
  match eval fr 0 with
  | _ -> flush ()
  | exception e ->
    flush ();
    raise e

let full_range ~op_index:_ ~slot:_ ~local:_ = 0, -1

let head_tuple (rule : crule) env = Tuple.make rule.head_args env

let head_row (rule : crule) env =
  Array.map (fun t -> Builtin.eval_term t env) rule.head_args

(* The head's terms into [into] when every one is ground under [env]:
   what [head_tuple] would store, built only as far as a compound
   needs. *)
let rec ground_head_from (args : Term.t array) env into k =
  k >= Array.length args
  ||
  let t = args.(k) in
  let v =
    match t with
    | Term.App _ -> Unify.resolve t env
    | Term.Const _ | Term.Var _ -> ground_value t env
  in
  v != not_ground && Term.is_ground v
  && begin
    into.(k) <- v;
    ground_head_from args env into (k + 1)
  end

let ground_head (rule : crule) env into = ground_head_from rule.head_args env into 0

(* Insert a plain rule's head.  A ground head is built in [scratch],
   the caller's array for this rule, and inserted from there: a
   duplicate builds nothing but the probing tuple, and a new tuple
   keeps the array, so [scratch] gets a fresh one.  Relations with an
   admission hook (which may keep what it is shown) or multiset
   semantics, and non-ground heads, take [head_tuple]. *)
let insert_head (rel : Relation.t) (rule : crule) env scratch =
  if rel.Relation.admit = None && (not rel.Relation.multiset) && ground_head rule env !scratch
  then begin
    let inserted = Relation.insert rel (Tuple.of_ground !scratch) in
    if inserted then scratch := Array.make (Array.length rule.head_args) Term.nil;
    inserted
  end
  else Relation.insert rel (head_tuple rule env)
