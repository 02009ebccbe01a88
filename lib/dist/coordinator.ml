(* The round-synchronous fixpoint coordinator.

   Each global round is one message to every worker:

     barrier step <r> [final]   absorb the delta batches peers shipped
                                in rounds before r, derive until no
                                local tuple is new, ship the rest to
                                their owners and wait for the acks

   A worker replies only after its outbound batches are acked, so once
   every step-r reply is in, every round-r batch sits in its receiver's
   exchange buffer, and the receivers absorb exactly those at step r+1
   (batches carry their round, so a fast peer's round r+1 batch waits
   for the step after).  A round in which no shard shipped anything
   leaves nothing to absorb: the next step is the last, sent [final],
   and it publishes every worker's closure as one commit.  As a
   corruption tripwire checked every round, the tuples received at
   step r must equal the tuples shipped at step r-1 (receivers count
   pre-dedup; seeded tuples count against round 2): an imbalance means
   a lost or duplicated batch, and the run aborts rather than risk a
   silently incomplete fixpoint. *)

open Coral_server
module Obs = Coral_obs.Obs
module Query_log = Coral_obs.Query_log
module Json = Coral_obs.Json

type t = {
  clients : Shard_client.t array;
  addrs : string array;
  key : int;
  mutable abandon : (unit -> bool) option;  (* polled while replies are owed *)
  straggler_factor : float;
      (* a shard is flagged when its step time exceeds this multiple
         of the round's median (plus an absolute floor, so microsecond
         jitter on a trivial round never flags anyone) *)
}

(* Per-shard slice of one global round, parsed out of that shard's
   step reply plus its observed wall time. *)
type shard_round = {
  sr_shard : int;
  sr_step_s : float;  (* barrier step wall: absorb, local evaluation, delta shipping *)
  sr_derived : int;
  sr_shipped : int;
  sr_received : int;
  sr_new : int;
}

type round_stat = {
  r_round : int;
  r_wall_s : float;  (* the whole round, as the coordinator saw it *)
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
  new_tuples : int;  (* tuples absorbed into the partitions (post-dedup) *)
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
    abandon = None;
    straggler_factor = (if straggler_factor < 1.0 then 1.0 else straggler_factor)
  }

let shards t = Array.length t.clients
let addrs t = Array.to_list t.addrs
let partition t = Partition.create ~shards:(Array.length t.clients) ~key:t.key

let disconnect t = Array.iter Shard_client.disconnect t.clients

let abandon_when t abandon f =
  t.abandon <- Some abandon;
  Fun.protect f ~finally:(fun () -> t.abandon <- None)

(* Append the calling thread's trace context to a control-plane
   command, so worker-side spans and events carry the router's trace
   id. *)
let tag tid cmd = match tid with Some id -> cmd ^ " tid=" ^ id | None -> cmd

(* A reply's status as a result: the parsed kv detail on [ok], the
   worker's (code, message) on [err]. *)
let status_result client status =
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

(* Send every worker its command at once and collect the replies as
   they come, with each worker's observed wall time.  All at once is
   required, not a luxury: worker A's step blocks until worker B acks
   A's delta batch, so stepping the workers one at a time would
   serialize rounds on cross-shard traffic.  Timed from this side of
   the socket, so a time includes the worker's wait for its peers. *)
let ask t targets =
  Shard_client.request_all ?abandon:t.abandon
    (Array.map (fun (i, cmd, payload) -> t.clients.(i), [ cmd, payload ]) targets)
  |> Array.mapi (fun k outcome ->
         let i, _, _ = targets.(k) in
         match outcome with
         | Shard_client.Replies ([ (_, status) ], secs) -> status_result t.clients.(i) status, secs
         | Shard_client.Replies _ -> Error (Protocol.Proto, "unexpected reply count"), 0.
         | Shard_client.Failed m -> Error (Protocol.Unavail, m), 0.
         | Shard_client.Abandoned -> Error (Protocol.Killed, "abandoned"), 0.)

let broadcast t ?payload cmd_of = ask t (Array.mapi (fun i _ -> i, cmd_of i, payload) t.clients)

let first_error results =
  Array.fold_left
    (fun acc r -> match acc, r with None, (Error e, _) -> Some e | _ -> acc)
    None results

let all_ok results =
  match first_error results with
  | Some e -> Error e
  | None ->
    Ok
      (Array.to_list results
      |> List.map (function Ok kv, _ -> kv | Error _, _ -> assert false))

(* ------------------------------------------------------------------ *)
(* Cluster (re)provisioning                                            *)
(* ------------------------------------------------------------------ *)

let configure t =
  let tid = Obs.Trace.current () in
  let peer_list = String.concat " " (Array.to_list t.addrs) in
  let n = Array.length t.clients in
  broadcast t (fun i -> tag tid (Printf.sprintf "shard %d %d %d %s" i n t.key peer_list))
  |> all_ok
  |> Result.map ignore

let reset t =
  let tid = Obs.Trace.current () in
  broadcast t (fun _ -> tag tid "dreset") |> all_ok |> Result.map ignore

let send_payload t cmd payload =
  let tid = Obs.Trace.current () in
  broadcast t ~payload (fun _ -> tag tid (Printf.sprintf "%s %d" cmd (String.length payload)))
  |> all_ok
  |> Result.map ignore

let send_text t cmd text =
  send_payload t cmd
    (if text = "" || text.[String.length text - 1] = '\n' then text else text ^ "\n")

let send_edb t text = send_text t "consult#" text
let send_program t text = send_text t "dprog#" text

(* Ship one shard a binary delta payload (Delta_codec) outside the
   barrier loop.  Used to seed partitioned predicates that also have
   consulted base facts: the batch is tagged round 1, so it sits in
   the worker's exchange buffer and is absorbed at step 2 with the
   round 1 batches, exactly like a peer delta.  The caller passes the
   total seeded count to [run_fixpoint] so round 2's conservation
   check can account for it. *)
let send_delta t ~shard payload =
  if shard < 0 || shard >= Array.length t.clients then
    Error (Protocol.Cluster, Printf.sprintf "seed delta for nonexistent shard %d" shard)
  else begin
    let tid = Obs.Trace.current () in
    ask t [| shard, tag tid (Printf.sprintf "delta# %d 1" (String.length payload)), Some payload |]
    |> all_ok
    |> Result.map ignore
  end

(* Ship every worker the same binary batch of new base facts ([edb#]):
   each stores them in its replica and runs the next fixpoint's round 1
   from them alone. *)
let send_edb_delta t payload = send_payload t "edb#" payload

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
  (* captured once, on the calling thread *)
  let tid = Obs.Trace.current () in
  (* [inflight]: the tuples shipped into round [r] (round r-1's
     shipments, and the seeds for round 2); none left after round 1
     means the fixpoint is reached, and step [r] only publishes it *)
  let rec round r ~inflight acc =
    if r > max_rounds then
      Error (Protocol.Cluster, Printf.sprintf "no fixpoint after %d rounds" max_rounds)
    else begin
      let final = r > 1 && inflight = 0 in
      let round_t0 = Unix.gettimeofday () in
      let round_t0_ns = Obs.now_ns () in
      let results =
        broadcast t (fun _ ->
            tag tid (Printf.sprintf "barrier step %d%s" r (if final then " final" else "")))
      in
      match all_ok results with
      | Error e -> Error e
      | Ok kvs ->
        let derived = sum "derived" kvs in
        let shipped = sum "shipped" kvs in
        let bytes = sum "bytes" kvs in
        let fresh = sum "new" kvs in
        let received = sum "received" kvs in
        if received <> inflight then
          Error
            ( Protocol.Cluster,
              Printf.sprintf "delta accounting imbalance in round %d: %d shipped, %d received" r
                inflight received )
        else begin
          progress ~round:r ~new_tuples:fresh ~shipped;
          (* per-(round, shard) slices + the round's skew analysis *)
          let r_wall_s = Unix.gettimeofday () -. round_t0 in
          let step_times = Array.map snd results in
          let step_max, skew, straggler = analyze_round ~factor:t.straggler_factor step_times in
          let shard_rounds =
            List.mapi
              (fun i kv ->
                { sr_shard = i;
                  sr_step_s = step_times.(i);
                  sr_derived = kv_of "derived" kv;
                  sr_shipped = kv_of "shipped" kv;
                  sr_received = kv_of "received" kv;
                  sr_new = kv_of "new" kv
                })
              kvs
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
          if final then
            Ok
              { acc with
                wall_s = Unix.gettimeofday () -. t0;
                round_stats = List.rev acc.round_stats
              }
          else round (r + 1) ~inflight:(shipped + if r = 1 then seeded else 0) acc
        end
    end
  in
  round 1 ~inflight:0 zero_stats
