open Coral_term
open Coral_lang
open Coral_rel

exception Agg_error of string

let value_of = function
  | Term.Const v -> v
  | t -> raise (Agg_error (Printf.sprintf "aggregate over non-constant value %s" (Term.to_string t)))

let numeric_fold op init values =
  List.fold_left
    (fun acc v ->
      match acc, v with
      | Value.Int a, Value.Int b -> op (Value.Int a) (Value.Int b)
      | a, b -> op a b)
    init values

let combine op values =
  match values with
  | [] -> raise (Agg_error "aggregate over an empty group")
  | first :: rest -> begin
    match (op : Ast.agg_op) with
    | Ast.Min ->
      Term.Const
        (List.fold_left
           (fun acc t ->
             let v = value_of t in
             if Value.compare v acc < 0 then v else acc)
           (value_of first) rest)
    | Ast.Max ->
      Term.Const
        (List.fold_left
           (fun acc t ->
             let v = value_of t in
             if Value.compare v acc > 0 then v else acc)
           (value_of first) rest)
    | Ast.Count -> Term.int (List.length values)
    | Ast.Sum | Ast.Avg -> begin
      let add a b =
        match a, b with
        | Value.Int x, Value.Int y -> Value.Int (x + y)
        | Value.Double x, Value.Double y -> Value.Double (x +. y)
        | Value.Int x, Value.Double y -> Value.Double (float_of_int x +. y)
        | Value.Double x, Value.Int y -> Value.Double (x +. float_of_int y)
        | Value.Big x, Value.Big y -> Value.Big (Bignum.add x y)
        | Value.Big x, Value.Int y -> Value.Big (Bignum.add x (Bignum.of_int y))
        | Value.Int x, Value.Big y -> Value.Big (Bignum.add (Bignum.of_int x) y)
        | _ -> raise (Agg_error "sum/avg over non-numeric values")
      in
      let total = numeric_fold add (value_of first) (List.map value_of rest) in
      if op = Ast.Sum then Term.Const total
      else begin
        match Value.to_float total with
        | Some f -> Term.double (f /. float_of_int (List.length values))
        | None -> raise (Agg_error "avg over non-numeric values")
      end
    end
    | Ast.Any ->
      (* deterministic choice: the least value in term order *)
      List.fold_left (fun acc t -> if Term.compare t acc < 0 then t else acc) first rest
    | Ast.Collect ->
      let sorted = List.sort_uniq Term.compare values in
      Term.list_of sorted
  end

(* Groups come out in the order their first row came in, so answer
   order depends on the rows alone, never on how the table hashes
   their keys (term hashes mix symbol ids, which depend on the
   process's interning history). *)
let group ~plain_positions ~agg_positions ~arity matches =
  let groups : Term.t list array Term.ArrayTbl.t = Term.ArrayTbl.create 64 in
  let first_seen = ref [] in
  (* key: plain columns; per group, one value list per aggregate column *)
  let nagg = List.length agg_positions in
  Seq.iter
    (fun (row : Term.t array) ->
      let key = Array.of_list (List.map (fun i -> row.(i)) plain_positions) in
      let cell =
        match Term.ArrayTbl.find_opt groups key with
        | Some c -> c
        | None ->
          let c = Array.make nagg [] in
          Term.ArrayTbl.add groups key c;
          first_seen := (key, c) :: !first_seen;
          c
      in
      List.iteri (fun j (pos, _) -> cell.(j) <- row.(pos) :: cell.(j)) agg_positions)
    matches;
  List.rev_map
    (fun (key, cell) ->
      let out = Array.make arity Term.nil in
      List.iteri (fun k pos -> out.(pos) <- key.(k)) plain_positions;
      List.iteri (fun j (pos, op) -> out.(pos) <- combine op (List.rev cell.(j))) agg_positions;
      out)
    !first_seen

(* ------------------------------------------------------------------ *)
(* Aggregate selections                                                *)
(* ------------------------------------------------------------------ *)

(* Admission works by matching the annotation pattern against the
   incoming tuple to extract (group key, target value), then comparing
   against the group's current best.  The per-group best and its
   surviving tuples are kept in a side table owned by the closure; it
   stays consistent because every insert into the relation runs through
   this hook and the hook performs the only deletions. *)

let selection_hook ~pattern ~group_by ~op ~target =
  let npat_vars =
    let terms = Array.to_list pattern in
    List.length (List.concat_map Term.vars terms |> List.sort_uniq compare)
  in
  let best : (Term.t * Tuple.t list ref) Term.ArrayTbl.t = Term.ArrayTbl.create 64 in
  fun (rel : Relation.t) (tuple : Tuple.t) ->
    if Array.length pattern <> Array.length tuple.Tuple.terms then true
    else begin
      let tr = Trail.create () in
      let pe = Bindenv.create (max npat_vars 1) in
      let te = Bindenv.create (max tuple.Tuple.nvars 1) in
      if not (Unify.match_arrays tr pattern pe tuple.Tuple.terms te) then true
      else begin
        let key = Array.map (fun t -> Unify.resolve t pe) group_by in
        let value = Unify.resolve target pe in
        match (op : Ast.agg_op) with
        | Ast.Any -> begin
          (* choice: keep the first tuple of each group *)
          match Term.ArrayTbl.find_opt best key with
          | Some _ -> false
          | None ->
            Term.ArrayTbl.add best key (value, ref [ tuple ]);
            true
        end
        | Ast.Min | Ast.Max -> begin
          let better a b =
            let c = Term.compare a b in
            if op = Ast.Min then c < 0 else c > 0
          in
          match Term.ArrayTbl.find_opt best key with
          | None ->
            Term.ArrayTbl.add best key (value, ref [ tuple ]);
            true
          | Some (cur, holders) ->
            if better cur value then false (* strictly worse: reject *)
            else if better value cur then begin
              (* strictly better: retire the current holders in place *)
              List.iter (Relation.retire rel) !holders;
              Term.ArrayTbl.replace best key (value, ref [ tuple ]);
              true
            end
            else begin
              (* equal: keep both *)
              holders := tuple :: !holders;
              true
            end
        end
        | Ast.Sum | Ast.Count | Ast.Avg | Ast.Collect ->
          (* not meaningful as selections; admit unchanged *)
          true
      end
    end
