(* The per-shard evaluation loop behind the cluster control plane.

   A worker owns one partition of every derived relation and a full
   replica of the base relations.  It never installs the distributed
   program into its engine as modules: each derived relation is an
   ordinary base relation of the engine ([path]), so queries arriving
   from the router need nothing special — the answers are sitting in
   base relations.  At [dprog] the rules are compiled once into the
   delta kernel incremental maintenance runs (Delta_kernel, over the
   fixpoint's compiler and join kernel): Init rules as written, and
   every rule as one activation per positive literal, whose first scan
   reads a worker-private delta relation of that predicate.  The
   activations over a derived predicate run on the tuples new to its
   partition; those over a base predicate run on the facts an [edb#]
   added to a materialized cluster, so the next fixpoint's round 1
   runs them instead of the Init rules (semi-naive evaluation with the
   new facts as the delta), and later rounds run as usual.  An [edb#]
   that arrives before the closure is built loads the replica instead.
   Compiling installs the indexes those joins probe on the replicated
   base relations and the partitions.

   One [barrier step r] is a whole round: absorb the peer batches of
   rounds before r (the new tuples are the delta), derive, and keep
   deriving from the tuples this shard owns until a pass adds none of
   them (local passes: the paper's predicate semi-naive evaluation,
   which uses a fact in the round that derived it), then ship the rest
   to their owners.  Distributable programs are monotone, so the order
   of derivation does not change the fixpoint.  Steps change the store
   under its lock without publishing; the [final] step, which the
   coordinator sends once a round shipped nothing anywhere, publishes
   the closure as one MVCC commit, so readers of the worker's snapshots
   never see half a fixpoint.

   Concurrency contract: [barrier]/[dprog]/[edb]/[dreset] arrive
   serialized on the coordinator's connection and take the store's
   lock ([locked]) or commit through it ([commit]); [delta] batches
   arrive on peer connection threads and touch only the exchange
   buffer's private mutex, so a step that is blocked sending its own
   deltas can always absorb incoming ones.  [step] replies only after
   every shipped batch is acknowledged, which is what lets the
   coordinator treat "all steps replied" as "no delta in flight". *)

open Coral
open Coral_server
module Obs = Coral_obs.Obs
module Module_struct = Coral_eval.Module_struct
module Delta_kernel = Coral_eval.Delta_kernel

(* Step joins are timed like the engine's fixpoint runs; encoding the
   outbound batches and decoding inbound ones, apart from them. *)
let h_eval = Obs.histogram "phase.eval"
let h_codec = Obs.histogram "phase.codec"

type config = {
  part : Partition.t;
  self : int;
  peers : Shard_client.t option array;  (* [None] at our own index *)
}

(* The installed program: the rules in the delta kernel, tagged with
   their class, over the partitions and the replicated base relations;
   the slot of each derived predicate; and per slot the heads a step
   derived (per-step dedup, used at derived slots).  The delta
   relations and [fresh] are private to the worker. *)
type prog = {
  analysis : Plan.analysis;
  kernel : Plan.rule_class Delta_kernel.t;
  idb_slots : ((string * int) * int) list;
  fresh : Relation.t array;
}

(* What an [edb#] does, and what round 1 runs. *)
type closure =
  | Open  (* no fixpoint since [dprog#]/[dreset]: [edb#] loads the
             replica, and round 1 runs the Init rules *)
  | Built  (* a fixpoint was published: [edb#] is a delta *)
  | Grown of (int * Tuple.t) list
      (* the base facts [edb#] added since, newest first, by slot:
         round 1 runs their activations *)

type t = {
  eng : Engine.t;
  commit : (unit -> unit) -> unit;
      (* the store's write lane: the final step is an ordinary MVCC commit *)
  locked : (unit -> unit) -> unit;  (* the store lock, without publishing *)
  budget : unit -> int;  (* max absorbed tuples per fixpoint; 0 = none *)
  exchange : Exchange.t;
  mutable config : config option;
  mutable prog : prog option;
  mutable closure : closure;
  mutable promoted_total : int;  (* absorbed since the last reset; the budget's input *)
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
    closure = Open;
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

(* A derived predicate resolves to its partition, an engine base
   relation; every other one as the engine resolves it. *)
let compile eng (a : Plan.analysis) =
  let resolve pred arity =
    if List.mem (Symbol.name pred, arity) a.Plan.idb then
      Module_struct.P_rel (Engine.base_relation eng pred arity)
    else Engine.provider eng pred arity
  in
  let kernel =
    Delta_kernel.compile ~resolve
      ~written:(fun cls -> cls = Plan.Init)
      (List.map (fun (d : Plan.drule) -> d.Plan.cls, d.Plan.rule) a.Plan.drules)
  in
  let fresh =
    Array.init (Delta_kernel.size kernel) (fun s ->
        let rel = Delta_kernel.full kernel s in
        Hash_relation.create ~name:rel.Relation.name ~arity:rel.Relation.arity ())
  in
  let idb_slots =
    List.map
      (fun (name, arity) ->
        (name, arity), Option.get (Delta_kernel.slot kernel (Symbol.intern name) arity))
      a.Plan.idb
  in
  { analysis = a; kernel; idb_slots; fresh }

let do_dprog t text =
  match Plan.analyse_text text with
  | Plan.Local reason ->
    Protocol.err Protocol.Cluster ("program is not distributable: " ^ reason)
  | Plan.Distributable a ->
    t.commit (fun () -> t.prog <- Some (compile t.eng a));
    t.closure <- Open;
    Protocol.ok
      ~detail:
        (Printf.sprintf "rules=%d idb=%d" (List.length a.Plan.drules)
           (List.length a.Plan.idb))
      []

(* ------------------------------------------------------------------ *)
(* Delta intake (peer connection threads)                              *)
(* ------------------------------------------------------------------ *)

let do_delta t round payload =
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
        let n = Exchange.add_remote t.exchange ~round items in
        Protocol.ok ~detail:(Printf.sprintf "received=%d" n) [])
  end

(* ------------------------------------------------------------------ *)
(* EDB intake (the coordinator's connection)                          *)
(* ------------------------------------------------------------------ *)

(* Base facts for the replica.  Before the closure is built they load
   it: any base predicate, negated ones included, and no delta.  After
   a fixpoint they are new facts for a materialized cluster: only those
   that can just add derived tuples ([Plan.insert_is_delta]), stored in
   the replica and kept as the next fixpoint's round-1 delta.  Either
   way the final step publishes them with the closure; the whole batch
   is checked before any of it is stored, so a refused batch leaves the
   replica as it was. *)
let do_edb t payload =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "edb batch before shard/dprog configuration"
  | Some _, Some prog -> begin
    match Obs.Histogram.time h_codec (fun () -> Delta_codec.decode payload) with
    | Error m -> Protocol.err Protocol.Proto ("bad edb batch: " ^ m)
    | Ok facts -> (
      let a = prog.analysis in
      let refused (name, tuple) =
        let arity = Tuple.arity tuple in
        match t.closure with
        | Open -> List.mem (name, arity) a.Plan.idb || String.contains name '@'
        | Built | Grown _ -> not (Plan.insert_is_delta a name arity)
      in
      match List.find_opt refused facts with
      | Some (name, tuple) ->
        Protocol.err Protocol.Cluster
          (Printf.sprintf "edb batch for %s/%d, which is %s" name (Tuple.arity tuple)
             (if t.closure = Open then "derived" else "derived or read under negation"))
      | None ->
        let fresh = ref 0 and added = ref [] in
        t.locked (fun () ->
            List.iter
              (fun (name, tuple) ->
                let sym = Symbol.intern name and arity = Tuple.arity tuple in
                let slot = Delta_kernel.slot prog.kernel sym arity in
                let rel =
                  match slot with
                  | Some s -> Delta_kernel.full prog.kernel s
                  | None -> Engine.base_relation t.eng sym arity  (* no rule reads it *)
                in
                if Relation.insert rel tuple then begin
                  incr fresh;
                  Option.iter (fun s -> added := (s, tuple) :: !added) slot
                end)
              facts);
        (match t.closure with
        | Open -> ()
        | Built -> t.closure <- Grown !added
        | Grown older -> t.closure <- Grown (!added @ older));
        Protocol.ok
          ~detail:(Printf.sprintf "received=%d new=%d" (List.length facts) !fresh)
          [])
  end

(* ------------------------------------------------------------------ *)
(* Barrier step: absorb, derive to a local fixpoint, ship              *)
(* ------------------------------------------------------------------ *)

(* A step's local passes are bounded like the coordinator's rounds: a
   program whose closure never ends on one shard fails instead of
   holding the store lock forever. *)
let max_passes = 100_000

let do_step t ~round ~final =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "barrier before shard/dprog"
  | Some cfg, Some prog ->
    let derived = ref 0 and shipped_count = ref 0 and fresh = ref 0 and received = ref 0 in
    (* Runs on the coordinator's connection thread, where the wire
       trace id is installed — so this span lands in the distributed
       trace with the right tid. *)
    Obs.Span.with_
      ~attrs:(fun () ->
        [ "round", string_of_int round;
          "shard", string_of_int cfg.self;
          "received", string_of_int !received;
          "new", string_of_int !fresh;
          "derived", string_of_int !derived;
          "shipped", string_of_int !shipped_count
        ])
      "dist.step"
    @@ fun () ->
    if t.fault_step_delay_s > 0. then Thread.delay t.fault_step_delay_s;
    let outbound = Array.make (Array.length cfg.peers) [] in
    let budget = t.budget () in
    let over_budget () = budget > 0 && t.promoted_total + !fresh > budget in
    let k = prog.kernel in
    (* a tuple new to the partition is also in the next pass's delta *)
    let admit (s, tuple) =
      Relation.insert (Delta_kernel.full k s) tuple
      && begin
        incr fresh;
        true
      end
    in
    let outcome = ref `Derived in
    (* One pass: [run] the rules, queue the heads other shards own for
       their owners, and admit the ones this shard owns; those new to
       the partition are the next pass's delta.  A head with a variable
       has no owner: every variable hashes to one bucket, away from the
       ground instances the head subsumes on a single node, so it fails
       the step wherever it is derived. *)
    let pass run =
      let mine = ref [] in
      run (fun cls s tuple ->
          let full = Delta_kernel.full k s in
          if not (Tuple.is_ground tuple) then begin
            if !outcome = `Derived then outcome := `Nonground tuple
          end
          else if (not (Relation.mem full tuple)) && Relation.insert_quiet prog.fresh.(s) tuple
          then begin
            let owner = Partition.owner cfg.part tuple in
            if owner = cfg.self then begin
              incr derived;
              mine := (s, tuple) :: !mine
            end
            else if cls <> Plan.Init then begin
              (* every shard derives the same heads from an Init rule,
                 which reads only the replicated EDB: only the owner
                 keeps them *)
              incr derived;
              let item =
                { Exchange.pred = full.Relation.name; arity = full.Relation.arity; tuple }
              in
              outbound.(owner) <- item :: outbound.(owner)
            end
          end);
      List.filter admit (List.rev !mine)
    in
    (if final then t.commit else t.locked) (fun () ->
        Obs.Histogram.time h_eval @@ fun () ->
        let items, n = Exchange.take t.exchange ~before:round in
        received := n;
        Array.iter Relation.clear prog.fresh;
        let absorbed =
          List.filter_map
            (fun { Exchange.pred; arity; tuple } ->
              let s = List.assoc (pred, arity) prog.idb_slots in
              if admit (s, tuple) then Some (s, tuple) else None)
            items
        in
        let rec local n run =
          if over_budget () then outcome := `Over_budget
          else if n > max_passes then outcome := `Unbounded
          else
            match pass run with
            | [] -> ()
            | delta -> if !outcome = `Derived then local (n + 1) (Delta_kernel.round k delta)
        in
        local 1
          (match round, t.closure with
          | 1, Grown facts ->
            (* after an [edb#], round 1 derives from the new base facts
               alone: the partitions already hold everything else *)
            Delta_kernel.round k (List.rev facts)
          | 1, _ -> Delta_kernel.run_written k
          | _ -> Delta_kernel.round k absorbed));
    if final && !outcome = `Derived then t.closure <- Built;
    t.promoted_total <- t.promoted_total + !fresh;
    match !outcome with
    | `Over_budget ->
      Protocol.err Protocol.Resource
        (Printf.sprintf
           "distributed fixpoint exceeded this worker's tuple budget (%d absorbed > %d)"
           t.promoted_total budget)
    | `Unbounded ->
      Protocol.err Protocol.Cluster
        (Printf.sprintf "no local fixpoint after %d passes in round %d" max_passes round)
    | `Nonground tuple ->
      Protocol.err Protocol.Cluster
        ("derived tuple " ^ Tuple.to_string tuple ^ " (non-ground) has no owner shard")
    | `Derived -> (
      (* Encode every destination's batch before shipping any, so a
         value with no wire form fails the round before a peer has
         buffered part of it. *)
      let encode items =
        let b = Delta_codec.batch () in
        List.iter
          (fun i -> Delta_codec.add_tuple b i.Exchange.pred i.Exchange.tuple)
          (List.rev items);
        Delta_codec.contents b
      in
      (* Ship every destination its batches, tagged with this round, all
         at once, and wait for the acks: when this reply goes out, no
         delta of ours is still in flight. *)
      let ship payloads =
        let sends =
          List.concat
            (Array.to_list
               (Array.mapi
                  (fun dest ps ->
                    match ps, cfg.peers.(dest) with
                    | [], _ | _, None -> []
                    | ps, Some peer ->
                      let cmd p = Printf.sprintf "delta# %d %d" (String.length p) round, Some p in
                      [ peer, List.map cmd ps ])
                  payloads))
        in
        let failure (peer, _) = function
          | Shard_client.Replies (replies, _) ->
            List.find_map
              (fun (_, status) ->
                if Shard_client.status_ok status <> None then None
                else Some (Printf.sprintf "%s rejected delta: %s" (Shard_client.addr peer) status))
              replies
          | Shard_client.Failed m -> Some m
          | Shard_client.Abandoned -> Some (Shard_client.addr peer ^ ": no reply")
        in
        let outcomes = Shard_client.request_all (Array.of_list sends) in
        match List.find_map Fun.id (List.map2 failure sends (Array.to_list outcomes)) with
        | Some m -> Error m
        | None -> Ok (Array.fold_left (List.fold_left (fun n p -> n + String.length p)) 0 payloads)
      in
      match ship (Obs.Histogram.time h_codec (fun () -> Array.map encode outbound)) with
      | Error m -> Protocol.err Protocol.Unavail ("peer unreachable mid-round: " ^ m)
      | exception Delta_codec.Unencodable m ->
        (* a derived value with no wire form (a rule computed a
           non-finite double, say) must fail the round loudly, not ship
           a lie to its owner *)
        Protocol.err Protocol.Cluster ("derived tuple cannot be shipped: " ^ m)
      | Ok bytes ->
        shipped_count := Array.fold_left (fun n items -> n + List.length items) 0 outbound;
        Protocol.ok
          ~detail:
            (Printf.sprintf "received=%d new=%d derived=%d shipped=%d bytes=%d" !received !fresh
               !derived !shipped_count bytes)
          [])

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let do_dreset t =
  Exchange.reset t.exchange;
  (* Clear every base relation, not just the derived ones: the router
     reprovisions a dirty cluster from scratch (dreset, dprog, re-ship
     the EDB, rerun the fixpoint), and the invariant that makes that
     simple is that a reset worker holds exactly what the router ships
     next — including after a retract upstream. *)
  t.commit (fun () ->
      List.iter (fun (_, _, rel) -> Relation.clear rel) (Engine.base_relations t.eng);
      t.closure <- Open);
  t.promoted_total <- 0;
  Protocol.ok ~detail:"reset" []

(* ------------------------------------------------------------------ *)

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Shard { index; count; key; peers } ->
    do_shard t ~index ~count ~key ~peer_addrs:peers
  | Protocol.Dprog text -> do_dprog t text
  | Protocol.Delta (round, payload) -> do_delta t round payload
  | Protocol.Edb payload -> do_edb t payload
  | Protocol.Barrier { round; final } -> do_step t ~round ~final
  | Protocol.Dreset -> do_dreset t
  | _ -> Protocol.err Protocol.Proto "not a cluster request"
