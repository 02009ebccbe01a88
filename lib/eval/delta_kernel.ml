open Coral_term
open Coral_lang
open Coral_rel
open Coral_rewrite

(* The one compiled semi-naive delta kernel (see delta_kernel.mli).
   With [n] predicates, slot [s] of [rels] reads predicate [s]'s full
   relation and slot [s + n] its scratch delta relation; the caller's
   scan relations ({!compile_scan}) follow. *)

type 'a pred = {
  delta : Relation.t;
  mutable acts : ('a * Module_struct.crule) list;  (* activations on [delta] *)
}

type 'a t = {
  mutable rels : Relation.t array;
  preds : 'a pred array;
  slots : (string, int) Hashtbl.t;  (* "name/arity" -> slot *)
  fns : (string, Builtin.foreign) Hashtbl.t;  (* "name/arity" -> foreign *)
  mutable written : ('a * Module_struct.crule) list;
  tick : unit -> unit;
}

let size k = Array.length k.preds
let slot k pred arity = Hashtbl.find_opt k.slots (Capability.key_of pred arity)
let full k s = k.rels.(s)

let target k pred arity =
  let key = Capability.key_of pred arity in
  match Hashtbl.find_opt k.slots key with
  | Some s -> Module_struct.Slot s
  | None -> Module_struct.Fn (Hashtbl.find k.fns key)

let compile_rule k ?delta r =
  Module_struct.compile_rule
    ~index:(fun s spec -> Relation.add_index k.rels.(s) spec)
    ~target:(target k) ?delta r

let compile_scan k ~scan:(i, rel) r =
  k.rels <- Array.append k.rels [| rel |];
  compile_rule k ~delta:(i, Array.length k.rels - 1) r

let compile ?(tick = ignore) ~resolve ~written rules =
  let slots = Hashtbl.create 32 and fns = Hashtbl.create 4 and fulls = ref [] in
  let see pred arity =
    let key = Capability.key_of pred arity in
    if not (Hashtbl.mem slots key || Hashtbl.mem fns key) then
      match (resolve pred arity : Module_struct.provider) with
      | Module_struct.P_rel rel ->
        Hashtbl.add slots key (Hashtbl.length slots);
        fulls := rel :: !fulls
      | Module_struct.P_foreign f -> Hashtbl.add fns key f
  in
  List.iter
    (fun (_, (r : Ast.rule)) ->
      see r.Ast.head.Ast.hpred (Array.length r.Ast.head.Ast.hargs);
      List.iter
        (fun lit ->
          Option.iter (fun (a : Ast.atom) -> see a.Ast.pred (Array.length a.Ast.args))
            (Ast.literal_atom lit))
        r.Ast.body)
    rules;
  let fulls = Array.of_list (List.rev !fulls) in
  let preds =
    Array.map
      (fun (rel : Relation.t) ->
        { delta = Hash_relation.create ~name:rel.Relation.name ~arity:rel.Relation.arity ();
          acts = []
        })
      fulls
  in
  let k =
    { rels = Array.append fulls (Array.map (fun p -> p.delta) preds);
      preds;
      slots;
      fns;
      written = [];
      tick
    }
  in
  (* Compiling installs the indexes the joins probe, and a probe tries
     a relation's indexes in the order they were installed: first, per
     rule, the rule as written (when asked) and its activations over
     derived predicates (rule heads), which run every round; then, per
     rule, its activations over the other predicates. *)
  let heads = Hashtbl.create 16 in
  List.iter (fun (_, (r : Ast.rule)) -> Hashtbl.replace heads (Capability.head_key r) ()) rules;
  let activations derived (tag, (r : Ast.rule)) =
    List.iteri
      (fun i lit ->
        match (lit : Ast.literal) with
        | Ast.Pos a when Hashtbl.mem heads (Capability.atom_key a) = derived -> (
          match slot k a.Ast.pred (Array.length a.Ast.args) with
          | Some s ->
            preds.(s).acts <- preds.(s).acts @ [ tag, compile_rule k ~delta:(i, s + size k) r ]
          | None -> ())
        | _ -> ())
      r.Ast.body
  in
  k.written <-
    List.concat_map
      (fun ((tag, r) as rule) ->
        let as_written = if written tag then [ tag, compile_rule k r ] else [] in
        activations true rule;
        as_written)
      rules;
  List.iter (activations false) rules;
  k

let run k (rule : Module_struct.crule) emit =
  k.tick ();
  Joiner.run ~rels:k.rels ~range:Joiner.full_range rule ~on_match:(fun env ->
      k.tick ();
      emit rule.Module_struct.head_slot (Joiner.head_tuple rule env))

let run_tagged k (tag, rule) emit = run k rule (emit tag)
let run_written k emit = List.iter (fun rule -> run_tagged k rule emit) k.written

let round k batch emit =
  let loaded = Array.make (size k) false in
  List.iter
    (fun (s, tu) ->
      loaded.(s) <- true;
      ignore (Relation.insert_quiet k.preds.(s).delta tu))
    batch;
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun s l -> if l then Relation.clear k.preds.(s).delta) loaded)
    (fun () ->
      Array.iteri
        (fun s l -> if l then List.iter (fun r -> run_tagged k r emit) k.preds.(s).acts)
        loaded)
