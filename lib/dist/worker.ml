(* The per-shard evaluation loop behind the cluster control plane.

   A worker owns one partition of every derived relation and a full
   replica of the base relations.  It never installs the distributed
   program into its engine as modules: each derived relation is an
   ordinary base relation of the engine ([path]), so queries arriving
   from the router need nothing special — the answers are sitting in
   base relations.  At [dprog] every rule is compiled once, with the
   fixpoint's compiler and join kernel (Module_struct, Joiner): Init
   rules as written, Linear rules as activations whose first scan reads
   a worker-private delta relation holding the tuples new in the last
   promote.  Every rule also gets one activation per positive literal
   over a base predicate, whose first scan reads a private relation of
   the base facts the last [edb#] added: when the router inserts base
   facts into a materialized cluster, the next fixpoint's round 1 runs
   those activations instead of the Init rules (semi-naive evaluation
   with the new facts as the delta), and later rounds run as usual.
   Compiling installs the indexes those joins probe on the replicated
   base relations.

   Concurrency contract: [barrier]/[dprog]/[edb]/[dreset] arrive
   serialized on the coordinator's connection and take the store's
   write lane ([commit]) or read lane ([locked]); [delta] batches
   arrive on peer connection threads and touch only the exchange
   buffer's private mutex, so a step that is blocked sending its own
   deltas can always absorb incoming ones.  [step] replies only after every shipped
   batch is acknowledged, which is what lets the coordinator treat
   "all steps replied" as "no delta in flight". *)

open Coral
open Coral_server
module Obs = Coral_obs.Obs
module Module_struct = Coral_eval.Module_struct
module Joiner = Coral_eval.Joiner

(* Step joins are timed like the engine's fixpoint runs; encoding the
   outbound batches and decoding inbound ones, apart from them. *)
let h_eval = Obs.histogram "phase.eval"
let h_codec = Obs.histogram "phase.codec"

type config = {
  part : Partition.t;
  self : int;
  peers : Shard_client.t option array;  (* [None] at our own index *)
}

(* A derived predicate on this worker: its partition of the relation
   (an engine base relation), the tuples new in the last promote, and
   the heads a step derived this round (per-step dedup).  The last two
   are private to the worker. *)
type idb = {
  name : string;
  arity : int;
  full : Relation.t;
  delta : Relation.t;
  fresh : Relation.t;
}

(* A base predicate some rule reads: its replicated relation, and the
   facts the last [edb#] added to it (private to the worker). *)
type edb = {
  e_name : string;
  e_arity : int;
  e_full : Relation.t;
  e_delta : Relation.t;
}

(* The installed program: with [n] derived and [m] base predicates,
   slot [i < n] of [rels] reads [idbs.(i).full], slot [n + i] reads
   [idbs.(i).delta], slot [2n + j] reads [edbs.(j).e_full] and slot
   [2n + m + j] reads [edbs.(j).e_delta]. *)
type prog = {
  analysis : Plan.analysis;
  idbs : idb array;
  edbs : edb array;
  rels : Relation.t array;
  rules : (Plan.rule_class * Module_struct.crule) list;
  edb_rules : (Plan.rule_class * Module_struct.crule) list;
      (* one activation per (rule, positive base literal) *)
}

type t = {
  eng : Engine.t;
  commit : (unit -> unit) -> unit;
      (* the store's write lane: promotes are ordinary MVCC commits *)
  locked : (unit -> unit) -> unit;  (* the read lane, for step evaluation *)
  budget : unit -> int;  (* max promoted tuples per fixpoint; 0 = none *)
  exchange : Exchange.t;
  mutable config : config option;
  mutable prog : prog option;
  mutable edb_pending : bool;
      (* an [edb#] batch arrived since the last fixpoint: round 1 runs
         [edb_rules] *)
  mutable promoted_total : int;  (* since the last reset; the budget's input *)
  mutable fault_step_delay_s : float;
      (* test seam: sleep this long inside every barrier step, turning
         this worker into a deterministic straggler *)
}

let create ~eng ~commit ~locked ~budget =
  { eng;
    commit;
    locked;
    budget;
    exchange = Exchange.create ();
    config = None;
    prog = None;
    edb_pending = false;
    promoted_total = 0;
    fault_step_delay_s = 0.
  }

(* Fault seam for tests and drills: make every step this much slower,
   so straggler detection can be exercised deterministically. *)
let set_fault_step_delay t seconds = t.fault_step_delay_s <- Float.max 0. seconds

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let drop_peers t =
  match t.config with
  | None -> ()
  | Some cfg -> Array.iter (Option.iter Shard_client.disconnect) cfg.peers

let disconnect = drop_peers

let do_shard t ~index ~count ~key ~peer_addrs =
  drop_peers t;
  let peers =
    Array.of_list peer_addrs
    |> Array.mapi (fun i addr -> if i = index then None else Some (Shard_client.create addr))
  in
  t.config <- Some { part = Partition.create ~shards:count ~key; self = index; peers };
  Protocol.ok ~detail:(Printf.sprintf "shard=%d/%d key=%d" index count key) []

(* ------------------------------------------------------------------ *)
(* Program installation                                                *)
(* ------------------------------------------------------------------ *)

let idb_slot idbs name arity = Array.find_index (fun d -> d.name = name && d.arity = arity) idbs

let edb_slot edbs name arity =
  Array.find_index (fun e -> e.e_name = name && e.e_arity = arity) edbs

let compile eng (a : Plan.analysis) =
  let scratch (name, arity) = Hash_relation.create ~name ~arity () in
  let idbs =
    Array.of_list a.Plan.idb
    |> Array.map (fun (name, arity) ->
           { name;
             arity;
             full = Engine.base_relation eng (Symbol.intern name) arity;
             delta = scratch (name, arity);
             fresh = scratch (name, arity)
           })
  in
  let n = Array.length idbs in
  (* resolve every body predicate before compiling: compilation
     installs indexes on [rels] *)
  let targets = Hashtbl.create 16 and edb = ref [] in
  let target pred arity =
    let name = Symbol.name pred in
    match idb_slot idbs name arity, Hashtbl.find_opt targets (name, arity) with
    | Some i, _ -> Module_struct.Slot i
    | None, Some tg -> tg
    | None, None ->
      let tg =
        match Engine.provider eng pred arity with
        | Module_struct.P_rel rel ->
          let e = { e_name = name; e_arity = arity; e_full = rel; e_delta = scratch (name, arity) } in
          edb := e :: !edb;
          Module_struct.Slot ((2 * n) + List.length !edb - 1)
        | Module_struct.P_foreign f -> Module_struct.Fn f
      in
      Hashtbl.add targets (name, arity) tg;
      tg
  in
  List.iter
    (fun (d : Plan.drule) ->
      List.iter
        (fun lit ->
          Option.iter
            (fun (x : Ast.atom) -> ignore (target x.Ast.pred (Array.length x.Ast.args)))
            (Ast.literal_atom lit))
        d.Plan.rule.Ast.body)
    a.Plan.drules;
  let edbs = Array.of_list (List.rev !edb) in
  let m = Array.length edbs in
  let rels =
    Array.concat
      [ Array.map (fun d -> d.full) idbs;
        Array.map (fun d -> d.delta) idbs;
        Array.map (fun e -> e.e_full) edbs;
        Array.map (fun e -> e.e_delta) edbs
      ]
  in
  let compile (d : Plan.drule) =
    let delta =
      match d.Plan.cls with
      | Plan.Init -> None
      | Plan.Linear i ->
        (* the one derived body literal scans its delta relation *)
        let x = Option.get (Ast.literal_atom (List.nth d.Plan.rule.Ast.body i)) in
        let s = Option.get (idb_slot idbs (Symbol.name x.Ast.pred) (Array.length x.Ast.args)) in
        Some (i, n + s)
    in
    Module_struct.compile_rule ~rels ~target ?delta d.Plan.rule
  in
  (* literal [i] over the base predicate in slot [s] scans its edb
     delta, slot [s + m] *)
  let activations (d : Plan.drule) =
    List.concat
      (List.mapi
         (fun i lit ->
           match lit with
           | Ast.Pos x -> (
             match target x.Ast.pred (Array.length x.Ast.args) with
             | Module_struct.Slot s when s >= 2 * n ->
               [ d.Plan.cls, Module_struct.compile_rule ~rels ~target ~delta:(i, s + m) d.Plan.rule ]
             | _ -> [])
           | _ -> [])
         d.Plan.rule.Ast.body)
  in
  { analysis = a;
    idbs;
    edbs;
    rels;
    rules = List.map (fun d -> d.Plan.cls, compile d) a.Plan.drules;
    edb_rules = List.concat_map activations a.Plan.drules
  }

let clear_edb_deltas t =
  Option.iter (fun p -> Array.iter (fun e -> Relation.clear e.e_delta) p.edbs) t.prog;
  t.edb_pending <- false

let do_dprog t text =
  match Plan.analyse_text text with
  | Plan.Local reason ->
    Protocol.err Protocol.Cluster ("program is not distributable: " ^ reason)
  | Plan.Distributable a ->
    t.commit (fun () -> t.prog <- Some (compile t.eng a));
    t.edb_pending <- false;
    Protocol.ok
      ~detail:
        (Printf.sprintf "rules=%d idb=%d" (List.length a.Plan.drules)
           (List.length a.Plan.idb))
      []

(* ------------------------------------------------------------------ *)
(* Delta intake (peer connection threads)                              *)
(* ------------------------------------------------------------------ *)

let do_delta t payload =
  match t.config, t.prog with
  | None, _ | _, None ->
    Protocol.err Protocol.Cluster "delta before shard/dprog configuration"
  | Some cfg, Some prog -> begin
    match Obs.Histogram.time h_codec (fun () -> Delta_codec.decode payload) with
    | Error m -> Protocol.err Protocol.Proto ("bad delta batch: " ^ m)
    | Ok tuples ->
      let check_item (name, tuple) =
        let arity = Tuple.arity tuple in
        if not (List.mem (name, arity) prog.analysis.Plan.idb) then
          Error (Printf.sprintf "delta for non-derived predicate %s/%d" name arity)
        else if Partition.owner cfg.part tuple <> cfg.self then
          Error (Printf.sprintf "misrouted delta tuple %s" (Tuple.to_string tuple))
        else Ok { Exchange.pred = name; arity; tuple }
      in
      let rec convert acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
          match check_item x with
          | Ok item -> convert (item :: acc) rest
          | Error m -> Error m)
      in
      (match convert [] tuples with
      | Error m -> Protocol.err Protocol.Cluster m
      | Ok items ->
        let n = Exchange.add_remote t.exchange items in
        Protocol.ok ~detail:(Printf.sprintf "received=%d" n) [])
  end

(* ------------------------------------------------------------------ *)
(* EDB delta intake (the coordinator's connection)                     *)
(* ------------------------------------------------------------------ *)

(* New base facts for a materialized cluster: every worker stores them
   in its replica and in the edb deltas, and the next fixpoint starts
   from them.  The whole batch is checked before any of it is stored,
   so a refused batch leaves the replica as it was. *)
let do_edb t payload =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "edb delta before shard/dprog configuration"
  | Some _, Some prog -> begin
    match Obs.Histogram.time h_codec (fun () -> Delta_codec.decode payload) with
    | Error m -> Protocol.err Protocol.Proto ("bad edb batch: " ^ m)
    | Ok facts -> (
      match
        List.find_opt
          (fun (name, tuple) ->
            not (Plan.insert_is_delta prog.analysis name (Tuple.arity tuple)))
          facts
      with
      | Some (name, tuple) ->
        Protocol.err Protocol.Cluster
          (Printf.sprintf "edb delta for %s/%d, which is derived or read under negation" name
             (Tuple.arity tuple))
      | None ->
        let fresh = ref 0 in
        t.commit (fun () ->
            List.iter
              (fun (name, tuple) ->
                let arity = Tuple.arity tuple in
                match edb_slot prog.edbs name arity with
                | Some j ->
                  let e = prog.edbs.(j) in
                  if Relation.insert e.e_full tuple then begin
                    incr fresh;
                    ignore (Relation.insert_quiet e.e_delta tuple)
                  end
                | None ->
                  (* no rule reads it: store it, activate nothing *)
                  if Relation.insert (Engine.base_relation t.eng (Symbol.intern name) arity) tuple
                  then incr fresh)
              facts);
        t.edb_pending <- true;
        Protocol.ok
          ~detail:(Printf.sprintf "received=%d new=%d" (List.length facts) !fresh)
          [])
  end

(* ------------------------------------------------------------------ *)
(* Barrier step: one local round + delta shipping                      *)
(* ------------------------------------------------------------------ *)

let do_step t round =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "barrier before shard/dprog"
  | Some cfg, Some prog ->
    let derived = ref 0 in
    let shipped_count = ref 0 in
    (* Runs on the coordinator's connection thread, where the wire
       trace id is installed — so this span lands in the distributed
       trace with the right tid. *)
    Obs.Span.with_
      ~attrs:(fun () ->
        [ "round", string_of_int round;
          "shard", string_of_int cfg.self;
          "derived", string_of_int !derived;
          "shipped", string_of_int !shipped_count
        ])
      "dist.step"
    @@ fun () ->
    if t.fault_step_delay_s > 0. then Thread.delay t.fault_step_delay_s;
    let local = ref [] in
    let outbound = Array.make (Array.length cfg.peers) [] in
    (* after an [edb#], round 1 derives from the new base facts alone:
       the derived relations already hold everything else *)
    let from_edb = round = 1 && t.edb_pending in
    t.locked (fun () ->
        Obs.Histogram.time h_eval @@ fun () ->
        Array.iter (fun d -> Relation.clear d.fresh) prog.idbs;
        List.iter
          (fun (cls, (rule : Module_struct.crule)) ->
            let active =
              from_edb
              ||
              match cls with
              | Plan.Init -> round = 1
              | Plan.Linear _ -> round > 1
            in
            if active then begin
              let d = prog.idbs.(rule.Module_struct.head_slot) in
              Joiner.run ~rels:prog.rels ~range:Joiner.full_range rule ~on_match:(fun env ->
                  let tuple = Joiner.head_tuple rule env in
                  if (not (Relation.mem d.full tuple)) && Relation.insert_quiet d.fresh tuple
                  then begin
                    let owner = Partition.owner cfg.part tuple in
                    let item = { Exchange.pred = d.name; arity = d.arity; tuple } in
                    match cls with
                    | Plan.Init ->
                      (* every shard derives the same Init tuples from
                         the replicated EDB: keep ours, ship nothing *)
                      if owner = cfg.self then begin
                        incr derived;
                        local := item :: !local
                      end
                    | Plan.Linear _ ->
                      incr derived;
                      if owner = cfg.self then local := item :: !local
                      else outbound.(owner) <- item :: outbound.(owner)
                  end)
            end)
          (if from_edb then prog.edb_rules else prog.rules);
        if from_edb then clear_edb_deltas t);
    Exchange.add_local t.exchange (List.rev !local);
    (* Encode every destination's batch before shipping any, so a
       value with no wire form fails the round before a peer has
       buffered part of it. *)
    let encode items =
      let b = Delta_codec.batch () in
      List.iter (fun i -> Delta_codec.add_tuple b i.Exchange.pred i.Exchange.tuple) (List.rev items);
      Delta_codec.contents b
    in
    (* Ship each destination its batch and wait for the acks: when this
       reply goes out, no delta of ours is still in flight. *)
    let ship dest items payloads =
      match cfg.peers.(dest) with
      | None -> Ok (0, 0)  (* own bucket is always empty; defensive *)
      | Some peer ->
        let rec go bytes = function
          | [] -> Ok (List.length items, bytes)
          | payload :: rest -> (
            match
              Shard_client.request peer ~payload
                (Printf.sprintf "delta# %d" (String.length payload))
            with
            | _, status when Shard_client.status_ok status <> None ->
              go (bytes + String.length payload) rest
            | _, status ->
              Error (Printf.sprintf "%s rejected delta: %s" (Shard_client.addr peer) status)
            | exception Shard_client.Down m -> Error m)
        in
        go 0 payloads
    in
    let rec ship_all payloads dest shipped bytes =
      if dest >= Array.length outbound then Ok (shipped, bytes)
      else if outbound.(dest) = [] then ship_all payloads (dest + 1) shipped bytes
      else
        match ship dest outbound.(dest) payloads.(dest) with
        | Ok (n, b) -> ship_all payloads (dest + 1) (shipped + n) (bytes + b)
        | Error m -> Error m
    in
    (match
       ship_all
         (Obs.Histogram.time h_codec (fun () -> Array.map encode outbound))
         0 0 0
     with
    | Error m -> Protocol.err Protocol.Unavail ("peer unreachable mid-round: " ^ m)
    | exception Delta_codec.Unencodable m ->
      (* a derived value with no wire form (a rule computed a
         non-finite double, say) must fail the round loudly, not ship
         a lie to its owner *)
      Protocol.err Protocol.Cluster ("derived tuple cannot be shipped: " ^ m)
    | Ok (shipped, bytes) ->
      shipped_count := shipped;
      Protocol.ok
        ~detail:(Printf.sprintf "derived=%d shipped=%d bytes=%d" !derived shipped bytes)
        [])

(* ------------------------------------------------------------------ *)
(* Barrier promote: absorb the exchange into full + delta relations    *)
(* ------------------------------------------------------------------ *)

let do_promote t round =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "barrier before shard/dprog"
  | Some cfg, Some prog ->
    let fresh = ref 0 in
    let received = ref 0 in
    Obs.Span.with_
      ~attrs:(fun () ->
        [ "round", string_of_int round;
          "shard", string_of_int cfg.self;
          "new", string_of_int !fresh;
          "received", string_of_int !received
        ])
      "dist.promote"
    @@ fun () ->
    t.commit (fun () ->
        let items, recv = Exchange.drain t.exchange in
        received := recv;
        Array.iter (fun d -> Relation.clear d.delta) prog.idbs;
        List.iter
          (fun item ->
            match idb_slot prog.idbs item.Exchange.pred item.Exchange.arity with
            | Some i when Relation.insert prog.idbs.(i).full item.Exchange.tuple ->
              incr fresh;
              ignore (Relation.insert_quiet prog.idbs.(i).delta item.Exchange.tuple)
            | _ -> ())
          items);
    t.promoted_total <- t.promoted_total + !fresh;
    let budget = t.budget () in
    if budget > 0 && t.promoted_total > budget then
      Protocol.err Protocol.Resource
        (Printf.sprintf
           "distributed fixpoint exceeded this worker's tuple budget (%d promoted > %d)"
           t.promoted_total budget)
    else
      Protocol.ok ~detail:(Printf.sprintf "new=%d received=%d" !fresh !received) []

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let do_dreset t =
  Exchange.reset t.exchange;
  (* Clear every base relation, not just the derived ones: the router
     reprovisions a dirty cluster from scratch (dreset, re-ship the
     EDB, dprog, rerun the fixpoint), and the invariant that makes
     that simple is that a reset worker holds exactly what the router
     ships next — including after a retract upstream. *)
  t.commit (fun () ->
      List.iter
        (fun (key, _card) ->
          match String.rindex_opt key '/' with
          | None -> ()
          | Some i -> (
            let name = String.sub key 0 i in
            let arity =
              int_of_string_opt (String.sub key (i + 1) (String.length key - i - 1))
            in
            match arity with
            | None -> ()
            | Some arity -> (
              match Engine.relation_of t.eng (Symbol.intern name) arity with
              | Some rel -> Relation.clear rel
              | None -> ())))
        (Engine.list_relations t.eng);
      Option.iter (fun p -> Array.iter (fun d -> Relation.clear d.delta) p.idbs) t.prog;
      clear_edb_deltas t);
  t.promoted_total <- 0;
  Protocol.ok ~detail:"reset" []

(* ------------------------------------------------------------------ *)

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Shard { index; count; key; peers } ->
    do_shard t ~index ~count ~key ~peer_addrs:peers
  | Protocol.Dprog text -> do_dprog t text
  | Protocol.Delta payload -> do_delta t payload
  | Protocol.Edb payload -> do_edb t payload
  | Protocol.Barrier (Protocol.Step, r) -> do_step t r
  | Protocol.Barrier (Protocol.Promote, r) -> do_promote t r
  | Protocol.Dreset -> do_dreset t
  | _ -> Protocol.err Protocol.Proto "not a cluster request"
