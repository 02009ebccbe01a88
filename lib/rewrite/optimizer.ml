open Coral_term
open Coral_lang

type mode = Materialized | Pipelined

type seed = {
  seed_pred : Symbol.t;
  seed_positions : int list;
  goal_id : bool;
  single_context : bool;
}

type plan = {
  mode : mode;
  prules : Ast.rule list;
  answer_pred : Symbol.t;
  answer_arity : int;
  seed : seed option;
  fixpoint : Ast.fixpoint;
  lazy_eval : bool;
  save_module : bool;
  ordered_search : bool;
  origin : (Symbol.t * (Symbol.t * Ast.adornment)) list;
  annotations : Ast.annotation list;
  rewritten_text : string;
  notes : string list;
}

let done_name apred = Symbol.intern ("done#" ^ Symbol.name apred)

(* Each rewrite phase runs inside a tracing span so a Chrome trace of a
   slow planning step shows where the time went. *)
let span phase f = Coral_obs.Obs.Span.with_ ("rewrite." ^ phase) f

let rules_text rules =
  Format.asprintf "@[<v>%a@]"
    (fun ppf rs -> List.iter (fun r -> Format.fprintf ppf "%a@," Pretty.pp_rule r) rs)
    rules

(* Insert Ordered-Search done guards (paper section 5.4.1): a negated
   literal requires its subgoal's [done] fact.  An aggregate rule is
   guarded by the [done] fact of its {e own} head subgoal: the context
   pops subgoals LIFO, so by the time the head's subgoal is done, every
   subgoal its evaluation generated — in particular every subgoal
   feeding the group — has already completed, making the group's row
   set complete. *)
let add_done_guards origin rules =
  let guard (a : Ast.atom) =
    match Magic.bound_args origin a with
    | None -> None
    | Some bargs -> Some (Ast.Pos { Ast.pred = done_name a.Ast.pred; args = bargs })
  in
  List.map
    (fun (r : Ast.rule) ->
      let aggregating = not (Ast.head_is_plain r.Ast.head) in
      let body =
        List.concat_map
          (fun lit ->
            match (lit : Ast.literal) with
            | Ast.Neg a -> begin
              match guard a with Some g -> [ g; lit ] | None -> [ lit ]
            end
            | _ -> [ lit ])
          r.Ast.body
      in
      let body =
        if aggregating then begin
          match guard (Ast.atom_of_head r.Ast.head) with
          | Some g -> begin
            (* after the magic guard, which binds the head's bound args *)
            match body with
            | magic_guard :: rest -> magic_guard :: g :: rest
            | [] -> [ g ]
          end
          | None -> body
        end
        else body
      in
      { r with Ast.body })
    rules

let origin_assoc (tbl : (Symbol.t * Ast.adornment) Symbol.Tbl.t) =
  Symbol.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let identity_origin rules =
  List.map
    (fun (r : Ast.rule) ->
      let p = r.Ast.head.Ast.hpred in
      p, (p, Array.make (Array.length r.Ast.head.Ast.hargs) Ast.Free))
    rules
  |> List.sort_uniq compare

let plan_query ~module_:(m : Ast.module_) ~pred ~adorn:query_adorn =
  let issues = Wellformed.check_module m in
  match Wellformed.errors issues with
  | _ :: _ as errs ->
    Error
      (String.concat "\n" (List.map (fun i -> Format.asprintf "%a" Wellformed.pp_issue i) errs))
  | [] ->
    let anns = m.Ast.annotations in
    let has a = List.mem a anns in
    let defined =
      List.exists (fun (r : Ast.rule) -> Symbol.equal r.Ast.head.Ast.hpred pred) m.Ast.rules
    in
    if not defined then
      Error (Printf.sprintf "predicate %s is not defined in module %s" (Symbol.name pred) m.Ast.mname)
    else begin
      let arity =
        List.find_map
          (fun (r : Ast.rule) ->
            if Symbol.equal r.Ast.head.Ast.hpred pred then
              Some (Array.length r.Ast.head.Ast.hargs)
            else None)
          m.Ast.rules
        |> Option.get
      in
      if Array.length query_adorn <> arity then
        Error
          (Printf.sprintf "query form arity %d does not match %s/%d"
             (Array.length query_adorn) (Symbol.name pred) arity)
      else if has Ast.Ann_pipelined then
        Ok
          { mode = Pipelined;
            prules = m.Ast.rules;
            answer_pred = pred;
            answer_arity = arity;
            seed = None;
            fixpoint = Ast.Basic_seminaive;
            lazy_eval = false;
            save_module = has Ast.Ann_save_module;
            ordered_search = false;
            origin = identity_origin m.Ast.rules;
            annotations = anns;
            rewritten_text = rules_text m.Ast.rules;
            notes = [ "pipelined evaluation: no rewriting" ]
          }
      else begin
        let notes = ref [] in
        let note s = notes := s :: !notes in
        let graph = Scc.analyze m.Ast.rules in
        let requested_fixpoint =
          List.find_map (function Ast.Ann_fixpoint f -> Some f | _ -> None) anns
        in
        let stratified = Scc.is_stratified graph in
        let fixpoint =
          match requested_fixpoint with
          | Some f -> f
          | None ->
            if stratified then Ast.Basic_seminaive
            else begin
              note "program is not stratified: selecting Ordered Search";
              Ast.Ordered_search
            end
        in
        if (not stratified) && fixpoint <> Ast.Ordered_search then
          Error
            (Printf.sprintf
               "module %s is not stratified (%s); use @ordered_search"
               m.Ast.mname
               (String.concat ", "
                  (List.map
                     (fun (a, b) -> Symbol.name a ^ "->" ^ Symbol.name b)
                     graph.Scc.nonstratified)))
        else begin
          let requested_rewriting =
            List.find_map (function Ast.Ann_rewriting r -> Some r | _ -> None) anns
          in
          let sip =
            Option.value ~default:Ast.Left_to_right
              (List.find_map (function Ast.Ann_sip s -> Some s | _ -> None) anns)
          in
          if sip <> Ast.Left_to_right then note "max-bound sideways information passing";
          let no_bound = not (Array.exists (fun b -> b = Ast.Bound) query_adorn) in
          let finish ?seed ~prules ~answer_pred ~origin () =
            let prules, dropped =
              if has Ast.Ann_no_existential then prules, 0
              else begin
                let keep =
                  answer_pred
                  :: (match seed with Some s -> [ s.seed_pred ] | None -> [])
                in
                span "existential" (fun () -> Existential.rewrite ~keep prules)
              end
            in
            if dropped > 0 then
              note (Printf.sprintf "existential rewriting dropped %d columns" dropped);
            Ok
              { mode = Materialized;
                prules;
                answer_pred;
                answer_arity = arity;
                seed;
                fixpoint;
                lazy_eval = has Ast.Ann_lazy_eval;
                save_module = has Ast.Ann_save_module;
                ordered_search = fixpoint = Ast.Ordered_search;
                origin;
                annotations = anns;
                rewritten_text = rules_text prules;
                notes = List.rev !notes
              }
          in
          let unrewritten () =
            finish ~prules:m.Ast.rules ~answer_pred:pred
              ~origin:(identity_origin m.Ast.rules) ()
          in
          if fixpoint = Ast.Ordered_search then begin
            (* Ordered Search: magic with bindings pushed into negation
               and aggregation, plus done guards. *)
            let adorned =
              span "adorn" (fun () ->
                  Adorn.adorn ~bind_negated:true ~bind_aggregates:true ~sip m.Ast.rules
                    ~query:pred ~adorn:query_adorn)
            in
            let mr = span "magic" (fun () -> Magic.rewrite adorned) in
            let guarded = add_done_guards adorned.Adorn.origin mr.Magic.mrules in
            note "ordered search: magic rewriting with done guards";
            finish
              ~seed:
                { seed_pred = mr.Magic.seed_pred;
                  seed_positions = mr.Magic.seed_positions;
                  goal_id = false;
                  single_context = false
                }
              ~prules:guarded ~answer_pred:mr.Magic.answer_pred
              ~origin:(origin_assoc adorned.Adorn.origin) ()
          end
          else if requested_rewriting = Some Ast.No_rewriting then begin
            note "no rewriting (requested)";
            unrewritten ()
          end
          else if no_bound then begin
            note "query form has no bound argument: rewriting is a no-op, skipped";
            unrewritten ()
          end
          else begin
            let adorned =
              span "adorn" (fun () -> Adorn.adorn ~sip m.Ast.rules ~query:pred ~adorn:query_adorn)
            in
            let supp_magic () = span "supp_magic" (fun () -> Supp_magic.rewrite adorned) in
            let shape what =
              Printf.sprintf "%s is %s for %s" (Symbol.name pred) what
                (Ast.adornment_to_string query_adorn)
            in
            (* Context factoring where the program's shape allows it
               (paper section 4.1: each technique is superior for some
               programs).  A right-linear plan answers one context per
               instance, so a saved module — which feeds every later
               call's seed into the same instance — takes only the
               left-linear form. *)
            let factored () =
              match span "factoring" (fun () -> Factoring.rewrite adorned) with
              | None -> Error (shape "neither left- nor right-linear")
              | Some (Factoring.Right_linear, _) when has Ast.Ann_save_module ->
                Error
                  (shape "right-linear"
                 ^ ", whose context-free answers cannot serve a @save_module instance's later calls"
                  )
              | Some (Factoring.Left_linear, r) ->
                note ("context factoring: " ^ shape "left-linear");
                Ok (r, false)
              | Some (Factoring.Right_linear, r) ->
                note ("context factoring: " ^ shape "right-linear");
                Ok (r, true)
            in
            (* factoring changes which derivations exist, so it would
               change what a multiset counts or an aggregate selection
               keeps on the query predicate *)
            let counted_query_pred =
              List.exists
                (function
                  | Ast.Ann_multiset (p, _) -> Symbol.equal p pred
                  | Ast.Ann_aggregate_selection { sel_pred; _ } -> Symbol.equal sel_pred pred
                  | _ -> false)
                anns
            in
            let mr, single_context =
              match requested_rewriting with
              | Some Ast.Magic ->
                note "magic templates rewriting";
                span "magic" (fun () -> Magic.rewrite adorned), false
              | Some Ast.Supplementary_magic ->
                note "supplementary magic rewriting (requested)";
                supp_magic (), false
              | Some Ast.Supplementary_magic_goal_id ->
                note "supplementary magic with goal-id indexing";
                span "supp_magic" (fun () -> Supp_magic.rewrite_goal_id adorned), false
              | Some Ast.Factoring -> begin
                match factored () with
                | Ok r -> r
                | Error why ->
                  note ("factoring not applicable (" ^ why ^ "): falling back to supplementary magic");
                  supp_magic (), false
              end
              | None when counted_query_pred ->
                note
                  ("supplementary magic rewriting (default: a @multiset or @aggregate_selection \
                    annotation names " ^ Symbol.name pred ^ ")");
                supp_magic (), false
              | None -> begin
                match factored () with
                | Ok r -> r
                | Error why ->
                  note ("supplementary magic rewriting (default: " ^ why ^ ")");
                  supp_magic (), false
              end
              | Some Ast.No_rewriting -> assert false
            in
            (* Magic rewriting can destroy stratification; in that case
               fall back to unrewritten evaluation, which is always
               sound for a stratified source program. *)
            let rewritten_graph = Scc.analyze mr.Magic.mrules in
            if not (Scc.is_stratified rewritten_graph) then begin
              note "rewriting would break stratification: falling back to no rewriting";
              unrewritten ()
            end
            else
              finish
                ~seed:
                  { seed_pred = mr.Magic.seed_pred;
                    seed_positions = mr.Magic.seed_positions;
                    goal_id = mr.Magic.goal_id;
                    single_context
                  }
                ~prules:mr.Magic.mrules ~answer_pred:mr.Magic.answer_pred
                ~origin:(origin_assoc adorned.Adorn.origin) ()
          end
        end
      end
    end

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>%% mode: %s, fixpoint: %s%s%s%s@,"
    (match p.mode with Materialized -> "materialized" | Pipelined -> "pipelined")
    (match p.fixpoint with
    | Ast.Basic_seminaive -> "basic semi-naive"
    | Ast.Predicate_seminaive -> "predicate semi-naive"
    | Ast.Naive -> "naive"
    | Ast.Ordered_search -> "ordered search")
    (if p.lazy_eval then ", lazy" else "")
    (if p.save_module then ", save module" else "")
    (match p.seed with
    | Some s -> Printf.sprintf ", seed %s" (Symbol.name s.seed_pred)
    | None -> "");
  List.iter (fun n -> Format.fprintf ppf "%% %s@," n) p.notes;
  Format.fprintf ppf "%s@]" p.rewritten_text
