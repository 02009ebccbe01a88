(* The round-synchronous fixpoint coordinator.

   Each global round is a two-phase barrier over every worker:

     barrier step <r>     one local semi-naive round; derived tuples
                          for other shards are shipped peer-to-peer
                          and acknowledged before the worker replies
     barrier promote <r>  absorb buffered deltas into each worker's
                          relations and its private delta relations

   A worker replies to [step] only after its outbound deltas are
   acked, so once every [step] reply is in, no delta is in flight and
   the coordinator may run [promote].  Global quiescence is then
   detected purely from the replies: the fixpoint is reached when a
   round promotes no new tuple anywhere and shipped nothing.  As a
   corruption tripwire, the tuples shipped in a round must equal the
   tuples received (receivers count pre-dedup): an imbalance means a
   lost or duplicated batch, and the run aborts rather than risk a
   silently incomplete fixpoint. *)

open Coral_server
module Obs = Coral_obs.Obs
module Query_log = Coral_obs.Query_log
module Json = Coral_obs.Json

type t = {
  clients : Shard_client.t array;
  addrs : string array;
  key : int;
  straggler_factor : float;
      (* a shard is flagged when its step time exceeds this multiple
         of the round's median (plus an absolute floor, so microsecond
         jitter on a trivial round never flags anyone) *)
}

(* Per-shard slice of one global round, parsed out of that shard's
   step/promote replies plus its observed barrier wall times. *)
type shard_round = {
  sr_shard : int;
  sr_step_s : float;  (* barrier step wall: local evaluation + delta shipping *)
  sr_derived : int;
  sr_shipped : int;
  sr_received : int;
  sr_new : int;
}

type round_stat = {
  r_round : int;
  r_wall_s : float;  (* the whole round: slowest step + slowest promote *)
  r_step_max_s : float;
  r_skew : float;  (* max/mean of per-shard step times; 1.0 = balanced *)
  r_straggler : int option;  (* flagged shard index, if any *)
  r_shards : shard_round list;
}

type run_stats = {
  rounds : int;
  derived : int;  (* candidate-new tuples derived across all shards *)
  shipped_tuples : int;
  shipped_bytes : int;
  new_tuples : int;  (* tuples that survived promotion (post-dedup) *)
  wall_s : float;
  skew_max : float;  (* worst per-round skew ratio seen in this run *)
  stragglers : int;  (* rounds in which some shard was flagged *)
  round_stats : round_stat list;  (* oldest first *)
}

let zero_stats = {
  rounds = 0; derived = 0; shipped_tuples = 0; shipped_bytes = 0;
  new_tuples = 0; wall_s = 0.; skew_max = 0.; stragglers = 0; round_stats = []
}

let default_straggler_factor = 3.0

(* Below this absolute excess over the median a shard is never flagged:
   scheduling noise on an empty round is not a straggler. *)
let straggler_floor_s = 0.002

let create ?(straggler_factor = default_straggler_factor) ~addrs ~key () =
  let addrs = Array.of_list addrs in
  { clients = Array.map (fun a -> Shard_client.create a) addrs;
    addrs;
    key;
    straggler_factor = (if straggler_factor < 1.0 then 1.0 else straggler_factor)
  }

let shards t = Array.length t.clients
let addrs t = Array.to_list t.addrs
let partition t = Partition.create ~shards:(Array.length t.clients) ~key:t.key

let disconnect t = Array.iter Shard_client.disconnect t.clients

(* Run [f] against every worker concurrently and join.  Concurrency is
   required, not a luxury: worker A's step blocks until worker B acks
   A's delta batch, so stepping the workers one at a time would
   serialize rounds on cross-shard traffic (it would still terminate —
   deltas are absorbed on B's own connection threads — but every
   round would pay shard-count round trips). *)
let broadcast t f =
  let results = Array.map (fun _ -> Error (Protocol.Unavail, "no reply")) t.clients in
  let run i =
    results.(i) <-
      (try f i t.clients.(i)
       with Shard_client.Down m -> Error (Protocol.Unavail, m))
  in
  let threads = Array.mapi (fun i _ -> Thread.create run i) t.clients in
  Array.iter Thread.join threads;
  results

(* [broadcast] that also reports each worker's observed wall time —
   the raw material for skew and straggler detection.  Timed from this
   side of the socket, so it includes the worker's barrier wait. *)
let broadcast_timed t f =
  let results = Array.map (fun _ -> Error (Protocol.Unavail, "no reply")) t.clients in
  let times = Array.map (fun _ -> 0.) t.clients in
  let run i =
    let t0 = Unix.gettimeofday () in
    results.(i) <-
      (try f i t.clients.(i)
       with Shard_client.Down m -> Error (Protocol.Unavail, m));
    times.(i) <- Unix.gettimeofday () -. t0
  in
  let threads = Array.mapi (fun i _ -> Thread.create run i) t.clients in
  Array.iter Thread.join threads;
  results, times

(* Append the calling thread's trace context to a control-plane
   command, so worker-side spans and events carry the router's trace
   id.  Must be computed on the caller — [broadcast]'s worker threads
   have no trace context of their own. *)
let tag tid cmd = match tid with Some id -> cmd ^ " tid=" ^ id | None -> cmd

let first_error results =
  Array.fold_left
    (fun acc r -> match acc, r with None, Error e -> Some e | _ -> acc)
    None results

(* One command expecting an [ok] reply; the parsed kv detail on
   success, the propagated (code, message) on [err]. *)
let expect_ok client ?payload cmd =
  let _, status = Shard_client.request client ?payload cmd in
  match Shard_client.status_ok status with
  | Some detail -> Ok (Shard_client.kv_pairs detail)
  | None -> (
    match Shard_client.status_err status with
    | Some (code, msg) ->
      let code =
        Option.value (Protocol.code_of_string code) ~default:Protocol.Cluster
      in
      Error (code, Printf.sprintf "%s: %s" (Shard_client.addr client) msg)
    | None -> Error (Protocol.Proto, "unparseable reply: " ^ status))

let all_ok results =
  match first_error results with
  | Some e -> Error e
  | None ->
    Ok
      (Array.to_list results
      |> List.map (function Ok kv -> kv | Error _ -> assert false))

(* ------------------------------------------------------------------ *)
(* Cluster (re)provisioning                                            *)
(* ------------------------------------------------------------------ *)

let configure t =
  let tid = Obs.Trace.current () in
  let peer_list = String.concat " " (Array.to_list t.addrs) in
  let n = Array.length t.clients in
  broadcast t (fun i client ->
      expect_ok client (tag tid (Printf.sprintf "shard %d %d %d %s" i n t.key peer_list)))
  |> all_ok
  |> Result.map (fun _ -> ())

let reset t =
  let tid = Obs.Trace.current () in
  broadcast t (fun _ c -> expect_ok c (tag tid "dreset")) |> all_ok |> Result.map ignore

let send_payload t cmd text =
  let tid = Obs.Trace.current () in
  let payload =
    if text = "" || text.[String.length text - 1] = '\n' then text else text ^ "\n"
  in
  broadcast t (fun _ c ->
      expect_ok c ~payload (tag tid (Printf.sprintf "%s %d" cmd (String.length payload))))
  |> all_ok
  |> Result.map ignore

let send_edb t text = send_payload t "consult#" text
let send_program t text = send_payload t "dprog#" text

(* Ship one shard a binary delta payload (Delta_codec) outside the
   barrier loop.  Used to seed partitioned predicates that also have
   consulted base facts: the batch sits in the worker's exchange
   buffer and is absorbed at the first promote, exactly like a peer
   delta.  The caller passes the total seeded count to [run_fixpoint]
   so round 1's shipped-equals-received tripwire can account for it. *)
let send_delta t ~shard payload =
  if shard < 0 || shard >= Array.length t.clients then
    Error (Protocol.Cluster, Printf.sprintf "seed delta for nonexistent shard %d" shard)
  else begin
    let tid = Obs.Trace.current () in
    match
      expect_ok t.clients.(shard)
        ~payload
        (tag tid (Printf.sprintf "delta# %d" (String.length payload)))
    with
    | Ok _ -> Ok ()
    | Error e -> Error e
    | exception Shard_client.Down m -> Error (Protocol.Unavail, m)
  end

(* Ship every worker the same binary batch of new base facts ([edb#]):
   each stores them in its replica and runs the next fixpoint's round 1
   from them alone. *)
let send_edb_delta t payload =
  let tid = Obs.Trace.current () in
  broadcast t (fun _ c ->
      expect_ok c ~payload (tag tid (Printf.sprintf "edb# %d" (String.length payload))))
  |> all_ok
  |> Result.map ignore

(* ------------------------------------------------------------------ *)
(* The fixpoint loop                                                   *)
(* ------------------------------------------------------------------ *)

let max_rounds = 100_000

let sum key kvs =
  List.fold_left (fun acc kv -> acc + Option.value (Shard_client.kv_int kv key) ~default:0) 0 kvs

let kv_of key kv = Option.value (Shard_client.kv_int kv key) ~default:0

(* Lower-middle median: with an even shard count the upper middle IS
   the max for n = 2, which could then never exceed itself times the
   factor — a two-shard cluster would be blind to its own straggler. *)
let median_of times =
  let s = Array.copy times in
  Array.sort compare s;
  if Array.length s = 0 then 0. else s.((Array.length s - 1) / 2)

(* Skew and straggler detection over one round's per-shard step times.
   The skew ratio is max/mean (1.0 = perfectly balanced); the slowest
   shard is flagged a straggler only when it exceeds [factor] times
   the median AND beats it by an absolute floor, so an idle cluster's
   scheduling jitter never raises the flag. *)
let analyze_round ~factor times =
  let n = Array.length times in
  if n = 0 then 0., 0., None
  else begin
    let max_i = ref 0 in
    Array.iteri (fun i v -> if v > times.(!max_i) then max_i := i) times;
    let maxv = times.(!max_i) in
    let mean = Array.fold_left ( +. ) 0. times /. float_of_int n in
    let skew = if mean > 0. then maxv /. mean else 1.0 in
    let med = median_of times in
    let straggler =
      if n > 1 && maxv > (med *. factor) && maxv -. med > straggler_floor_s then
        Some !max_i
      else None
    in
    maxv, skew, straggler
  end

let run_fixpoint ?(progress = fun ~round:_ ~new_tuples:_ ~shipped:_ -> ()) ?(seeded = 0) t =
  let t0 = Unix.gettimeofday () in
  (* captured once: [broadcast]'s worker threads have no trace context *)
  let tid = Obs.Trace.current () in
  let rec round r acc =
    if r > max_rounds then
      Error (Protocol.Cluster, Printf.sprintf "no fixpoint after %d rounds" max_rounds)
    else begin
      let round_t0 = Unix.gettimeofday () in
      let round_t0_ns = Obs.now_ns () in
      let step_results, step_times =
        broadcast_timed t (fun _ c -> expect_ok c (tag tid (Printf.sprintf "barrier step %d" r)))
      in
      match all_ok step_results with
      | Error e -> Error e
      | Ok step_kvs -> (
        let derived = sum "derived" step_kvs in
        let shipped = sum "shipped" step_kvs in
        let bytes = sum "bytes" step_kvs in
        match
          broadcast t (fun _ c -> expect_ok c (tag tid (Printf.sprintf "barrier promote %d" r)))
          |> all_ok
        with
        | Error e -> Error e
        | Ok prom_kvs ->
          let fresh = sum "new" prom_kvs in
          (* round 1 also drains the pre-shipped seed deltas *)
          let received = sum "received" prom_kvs - if r = 1 then seeded else 0 in
          if shipped <> received then
            Error
              ( Protocol.Cluster,
                Printf.sprintf
                  "delta accounting imbalance in round %d: %d shipped, %d received" r
                  shipped received )
          else begin
            progress ~round:r ~new_tuples:fresh ~shipped;
            (* per-(round, shard) slices + the round's skew analysis *)
            let r_wall_s = Unix.gettimeofday () -. round_t0 in
            let step_max, skew, straggler =
              analyze_round ~factor:t.straggler_factor step_times
            in
            let shard_rounds =
              List.mapi
                (fun i (step_kv, prom_kv) ->
                  { sr_shard = i;
                    sr_step_s = step_times.(i);
                    sr_derived = kv_of "derived" step_kv;
                    sr_shipped = kv_of "shipped" step_kv;
                    sr_received = kv_of "received" prom_kv;
                    sr_new = kv_of "new" prom_kv
                  })
                (List.combine step_kvs prom_kvs)
            in
            let rs =
              { r_round = r;
                r_wall_s;
                r_step_max_s = step_max;
                r_skew = skew;
                r_straggler = straggler;
                r_shards = shard_rounds
              }
            in
            if Obs.enabled () then begin
              Obs.Span.record "dist.round" round_t0_ns
                (Obs.now_ns () - round_t0_ns)
                ([ "round", string_of_int r;
                   "derived", string_of_int derived;
                   "shipped", string_of_int shipped;
                   "new", string_of_int fresh;
                   "skew", Printf.sprintf "%.2f" skew
                 ]
                @ (match tid with Some id -> [ "tid", id ] | None -> []));
              Query_log.Events.log ~kind:"dist.round"
                ([ "round", Json.Int r;
                   "wall_ms", Json.Float (r_wall_s *. 1e3);
                   "step_max_ms", Json.Float (step_max *. 1e3);
                   "skew", Json.Float skew;
                   "derived", Json.Int derived;
                   "shipped", Json.Int shipped;
                   "new", Json.Int fresh
                 ]
                @ (match straggler with
                  | Some s -> [ "straggler", Json.Int s ]
                  | None -> [])
                @ (match tid with Some id -> [ "tid", Json.Str id ] | None -> []))
            end;
            let acc =
              { acc with
                rounds = r;
                derived = acc.derived + derived;
                shipped_tuples = acc.shipped_tuples + shipped;
                shipped_bytes = acc.shipped_bytes + bytes;
                new_tuples = acc.new_tuples + fresh;
                skew_max = Float.max acc.skew_max skew;
                stragglers = acc.stragglers + (if straggler = None then 0 else 1);
                round_stats = rs :: acc.round_stats
              }
            in
            if fresh = 0 && shipped = 0 then
              Ok
                { acc with
                  wall_s = Unix.gettimeofday () -. t0;
                  round_stats = List.rev acc.round_stats
                }
            else round (r + 1) acc
          end)
    end
  in
  round 1 zero_stats
