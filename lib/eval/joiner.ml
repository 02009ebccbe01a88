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

let run ~rels ~range ?(backjump = true) ?stripe ?scan_counts ?visited ?witness ?prof
    (rule : crule) ~on_match =
  let n = Array.length rule.body in
  let env = Bindenv.create (max rule.nvars 1) in
  let tr = Trail.create () in
  (* when witnesses are tracked, [chosen.(i)] holds the tuple selected
     at body position i on the current search path *)
  let chosen = match witness with Some _ -> Array.make n None | None -> [||] in
  let record i tuple = if witness <> None then chosen.(i) <- Some tuple in
  let backtrack i = if backjump then rule.backtrack.(i) else i - 1 in
  (* Parallel workers count scans into a task-local array (flushed into
     relation stats at the merge barrier) instead of touching the
     unsynchronized counters. *)
  let do_scan slot ?(from_mark = 0) ?(to_mark = -1) ~pattern () =
    match scan_counts with
    | None -> Relation.scan rels.(slot) ~from_mark ~to_mark ~pattern ()
    | Some counts ->
      counts.(slot) <- counts.(slot) + 1;
      Relation.scan_quiet rels.(slot) ~from_mark ~to_mark ~pattern ()
  in
  (* Striping: lane [l] of [lanes] keeps every [lanes]-th tuple of the
     designated op's candidate stream.  The ordinal counter is fresh per
     scan opening, so for any fixed outer binding the lanes partition
     that opening's (deterministic) stream exactly. *)
  let apply_stripe i candidates =
    match stripe with
    | Some (op, lane, lanes) when op = i ->
      let ord = ref (-1) in
      Seq.filter
        (fun _ ->
          incr ord;
          !ord mod lanes = lane)
        candidates
    | _ -> candidates
  in
  let note_tuple () =
    match prof with
    | Some (p : rule_prof) -> p.rp_tuples <- p.rp_tuples + 1
    | None -> ()
  in
  (* candidates scans handed this application, credited once at the end *)
  let seen = ref 0 in
  let flush () =
    (match visited with
    | Some cell -> cell := !cell + !seen
    | None -> Relation.note_visited !seen);
    match prof with
    | Some p -> p.rp_visited <- p.rp_visited + !seen
    | None -> ()
  in
  let rec eval i =
    if i >= n then begin
      (match witness with
      | Some cell ->
        cell :=
          Array.to_list chosen
          |> List.mapi (fun i o -> Option.map (fun tu -> i, tu) o)
          |> List.filter_map Fun.id
      | None -> ());
      (match prof with
      | Some p -> p.rp_attempts <- p.rp_attempts + 1
      | None -> ());
      on_match env;
      continue_code
    end
    else begin
      match rule.body.(i) with
      | Scan { slot; args; local } ->
        let from_mark, to_mark = range ~op_index:i ~slot ~local in
        if from_mark = to_mark && to_mark >= 0 then backtrack i
        else begin
          let candidates =
            apply_stripe i (do_scan slot ~from_mark ~to_mark ~pattern:(args, env) ())
          in
          enumerate i args candidates false
        end
      | Foreign { f; args } ->
        let answers = f.Builtin.fsolve args env in
        enumerate_rows i args answers false
      | Negcheck { slot; args } ->
        let candidates = do_scan slot ~pattern:(args, env) () in
        if matches_any args candidates then backtrack i else eval (i + 1)
      | Negforeign { f; args } ->
        let answers = f.Builtin.fsolve args env in
        if matches_any_row args answers then backtrack i else eval (i + 1)
      | Compare (op, t1, t2) ->
        if Builtin.compare_terms op t1 env t2 env then eval (i + 1) else backtrack i
      | Assign (t1, t2) ->
        let v1 = Builtin.eval_term t1 env and v2 = Builtin.eval_term t2 env in
        let m = Trail.mark tr in
        if Unify.unify tr v1 env v2 env then begin
          let t = eval (i + 1) in
          Trail.undo_to tr m;
          if t < i then t else backtrack i
        end
        else begin
          Trail.undo_to tr m;
          backtrack i
        end
    end
  (* enumerate stored tuples *)
  and enumerate i args seq matched =
    match seq () with
    | Seq.Nil -> if matched then i - 1 else backtrack i
    | Seq.Cons ((tuple : Tuple.t), rest) ->
      note_tuple ();
      incr seen;
      let m = Trail.mark tr in
      let tenv =
        if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
      in
      if Unify.unify_arrays tr args env tuple.Tuple.terms tenv then begin
        record i tuple;
        let t = eval (i + 1) in
        Trail.undo_to tr m;
        if t < i then t else enumerate i args rest true
      end
      else begin
        Trail.undo_to tr m;
        enumerate i args rest matched
      end
  (* enumerate foreign answer rows (no tuple wrapper) *)
  and enumerate_rows i args seq matched =
    match seq () with
    | Seq.Nil -> if matched then i - 1 else backtrack i
    | Seq.Cons (row, rest) ->
      note_tuple ();
      let m = Trail.mark tr in
      if Array.length row = Array.length args
         && Unify.unify_arrays tr args env row Bindenv.empty
      then begin
        if witness <> None then record i (Tuple.of_terms row);
        let t = eval (i + 1) in
        Trail.undo_to tr m;
        if t < i then t else enumerate_rows i args rest true
      end
      else begin
        Trail.undo_to tr m;
        enumerate_rows i args rest matched
      end
  and matches_any args seq =
    match seq () with
    | Seq.Nil -> false
    | Seq.Cons ((tuple : Tuple.t), rest) ->
      incr seen;
      let m = Trail.mark tr in
      let tenv =
        if tuple.Tuple.nvars = 0 then Bindenv.empty else Bindenv.create tuple.Tuple.nvars
      in
      let hit = Unify.unify_arrays tr args env tuple.Tuple.terms tenv in
      Trail.undo_to tr m;
      hit || matches_any args rest
  and matches_any_row args seq =
    match seq () with
    | Seq.Nil -> false
    | Seq.Cons (row, rest) ->
      let m = Trail.mark tr in
      let hit =
        Array.length row = Array.length args
        && Unify.unify_arrays tr args env row Bindenv.empty
      in
      Trail.undo_to tr m;
      hit || matches_any_row args rest
  in
  match eval 0 with
  | _ -> flush ()
  | exception e ->
    flush ();
    raise e

let full_range ~op_index:_ ~slot:_ ~local:_ = 0, -1

let head_tuple (rule : crule) env = Tuple.make rule.head_args env

let head_row (rule : crule) env =
  Array.map (fun t -> Builtin.eval_term t env) rule.head_args
