(* Distributed fixpoint benchmark: transitive closure on a seeded
   random graph sized PAST one worker's --max-query-tuples budget, run
   against 1/2/4-shard clusters, recorded to BENCH_dist.json.

   Run:  dune exec bench/dist_bench.exe [-- --nodes N] [--budget N] [--key N]

   Each worker is an ordinary coral_server with the dist handler
   installed and an admission budget (the same config the server's
   --max-query-tuples flag sets); the router reprovisions the cluster
   and drives the two-phase barrier fixpoint.  The point of the shape:
   the 1-shard cluster must hold the whole closure on one worker and
   dies with err RESOURCE at the promote that crosses its budget,
   while 4 shards each hold ~1/4 of the partitioned closure and
   complete — distribution buys headroom no single node has. *)

module Session = Coral_server.Session
module Server = Coral_server.Server
module Admission = Coral_server.Admission
module Protocol = Coral_server.Protocol
open Coral_dist

let program =
  "module m_path.\n\
   export path(bf).\n\
   export path(ff).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- path(X, Z), edge(Z, Y).\n\
   end_module.\n"

(* ring + seeded random chords: strongly connected, so the closure is
   exactly nodes^2 tuples — easy to size against a budget *)
let edges nodes =
  let rand = ref 123456789 in
  let next bound =
    rand := (!rand * 1103515245) + 12345;
    (!rand lsr 7) mod bound
  in
  let buf = Buffer.create (nodes * 24) in
  for i = 0 to nodes - 1 do
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i ((i + 1) mod nodes));
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (next nodes))
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* In-process cluster                                                  *)
(* ------------------------------------------------------------------ *)

let sock_path () =
  let p = Filename.temp_file "coralb" ".sock" in
  Sys.remove p;
  p

let start_worker ~budget () =
  let path = sock_path () in
  let db = Coral.create () in
  let limits = { Admission.default with Admission.max_query_tuples = budget } in
  let srv = Server.start ~limits ~listen:(`Unix path) db in
  let store = Server.store srv in
  let worker =
    Worker.create ~eng:(Coral.engine db)
      ~commit:(Session.commit store)
      ~locked:(fun f -> Session.locked store f)
      ~budget:(fun () ->
        (Admission.config (Session.admission store)).Admission.max_query_tuples)
  in
  Session.set_dist_handler store (Worker.handle worker);
  path, srv

type client = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec go acc =
    match In_channel.input_line c.ic with
    | None -> List.rev acc, "<closed>"
    | Some l when Protocol.is_status l -> List.rev acc, l
    | Some l -> go (l :: acc)
  in
  go []

let stat_int lines name =
  List.find_map
    (fun l ->
      let prefix = "txt " ^ name ^ "=" in
      if String.starts_with ~prefix l then
        int_of_string_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    lines

let stat_float lines name =
  List.find_map
    (fun l ->
      let prefix = "txt " ^ name ^ "=" in
      if String.starts_with ~prefix l then
        float_of_string_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    lines

(* One fixpoint round as reported by the router's [dstat] table. *)
type round_row = {
  rr_round : int;
  rr_wall_ms : float;
  rr_step_max_ms : float;
  rr_skew : float;
  rr_shipped : int;  (* summed over the round's shard lines *)
}

type outcome = {
  shards : int;
  completed : bool;
  error : string;  (* "" when completed *)
  answers : int;
  rounds : int;
  new_tuples : int;
  shipped_tuples : int;
  shipped_bytes : int;
  fixpoint_wall_ms : float;
  skew_max : float;
  straggler_rounds : int;
  round_series : round_row list;
  query_wall_s : float;
}

(* Parse the [dstat] reply: "txt round=N wall_ms=... step_max_ms=...
   skew=..." headers each followed by indented "txt   shard=..."
   detail lines whose shipped counts we fold into the header's row. *)
let parse_dstat lines =
  let kvs l =
    String.split_on_char ' ' l
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | Some i when i > 0 ->
             Some
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) )
           | _ -> None)
  in
  let fget p k d = match List.assoc_opt k p with Some v -> Option.value (float_of_string_opt v) ~default:d | None -> d in
  let iget p k d = match List.assoc_opt k p with Some v -> Option.value (int_of_string_opt v) ~default:d | None -> d in
  let rows =
    List.fold_left
      (fun acc l ->
        if String.starts_with ~prefix:"txt round=" l then begin
          let p = kvs (String.sub l 4 (String.length l - 4)) in
          { rr_round = iget p "round" 0;
            rr_wall_ms = fget p "wall_ms" 0.;
            rr_step_max_ms = fget p "step_max_ms" 0.;
            rr_skew = fget p "skew" 1.;
            rr_shipped = 0
          }
          :: acc
        end
        else if String.starts_with ~prefix:"txt   shard=" l then begin
          match acc with
          | row :: rest ->
            let p = kvs (String.trim (String.sub l 4 (String.length l - 4))) in
            { row with rr_shipped = row.rr_shipped + iget p "shipped" 0 } :: rest
          | [] -> acc
        end
        else acc)
      [] lines
  in
  List.rev rows

let run_scenario ~shards ~key ~budget ~nodes =
  let workers = List.init shards (fun _ -> start_worker ~budget ()) in
  let rpath = sock_path () in
  let router =
    Router.start ~listen:(`Unix rpath) ~shard_addrs:(List.map fst workers) ~key
      (Coral.create ())
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      List.iter (fun (_, srv) -> Server.shutdown srv) workers)
  @@ fun () ->
  let c = connect_unix rpath in
  let consult text =
    let flat = String.map (fun ch -> if ch = '\n' then ' ' else ch) text in
    match request c ("consult " ^ flat) with
    | _, status when String.starts_with ~prefix:"ok" status -> ()
    | _, status -> failwith ("consult failed: " ^ status)
  in
  consult program;
  consult (edges nodes);
  let t0 = Unix.gettimeofday () in
  let lines, status = request c "query path(X, Y)" in
  let query_wall_s = Unix.gettimeofday () -. t0 in
  let out =
    if String.starts_with ~prefix:"ok" status then begin
      let answers =
        List.length (List.filter (fun l -> String.starts_with ~prefix:"ans " l) lines)
      in
      let slines, _ = request c "stats" in
      let dlines, dstatus = request c "dstat" in
      let round_series =
        if String.starts_with ~prefix:"ok" dstatus then parse_dstat dlines else []
      in
      { shards;
        completed = true;
        error = "";
        answers;
        rounds = Option.value (stat_int slines "router.fixpoint.rounds") ~default:0;
        new_tuples = Option.value (stat_int slines "router.fixpoint.new_tuples") ~default:0;
        shipped_tuples =
          Option.value (stat_int slines "router.fixpoint.shipped_tuples") ~default:0;
        shipped_bytes =
          Option.value (stat_int slines "router.fixpoint.shipped_bytes") ~default:0;
        fixpoint_wall_ms =
          1000. *. Option.value (stat_float slines "router.fixpoint.wall_seconds") ~default:0.;
        skew_max = Option.value (stat_float slines "dist.skew_ratio") ~default:0.;
        straggler_rounds =
          Option.value (stat_int slines "dist.straggler_rounds") ~default:0;
        round_series;
        query_wall_s
      }
    end
    else
      let code =
        match String.split_on_char ' ' status with _ :: c :: _ -> c | _ -> "ERR"
      in
      { shards;
        completed = false;
        error = code;
        answers = 0;
        rounds = 0;
        new_tuples = 0;
        shipped_tuples = 0;
        shipped_bytes = 0;
        fixpoint_wall_ms = 0.;
        skew_max = 0.;
        straggler_rounds = 0;
        round_series = [];
        query_wall_s
      }
  in
  ignore (request c "quit");
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  out

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let write_json path ~nodes ~budget ~key outcomes =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"dist_tc\",\n";
  Printf.fprintf oc "  \"nodes\": %d,\n" nodes;
  Printf.fprintf oc "  \"edges\": %d,\n" (2 * nodes);
  Printf.fprintf oc "  \"closure_tuples\": %d,\n" (nodes * nodes);
  Printf.fprintf oc "  \"budget_per_worker\": %d,\n" budget;
  Printf.fprintf oc "  \"partition_key\": %d,\n" key;
  output_string oc "  \"scenarios\": [\n";
  List.iteri
    (fun i o ->
      let series =
        o.round_series
        |> List.map (fun r ->
               Printf.sprintf
                 "{\"round\": %d, \"wall_ms\": %.2f, \"step_max_ms\": %.2f, \
                  \"skew\": %.2f, \"shipped\": %d}"
                 r.rr_round r.rr_wall_ms r.rr_step_max_ms r.rr_skew r.rr_shipped)
        |> String.concat ", "
      in
      Printf.fprintf oc
        "    { \"shards\": %d, \"completed\": %b, \"error\": %S, \"answers\": %d,\n\
        \      \"rounds\": %d, \"new_tuples\": %d, \"shipped_tuples\": %d,\n\
        \      \"shipped_bytes\": %d, \"fixpoint_wall_ms\": %.1f,\n\
        \      \"skew_max\": %.2f, \"straggler_rounds\": %d,\n\
        \      \"round_series\": [%s],\n\
        \      \"query_wall_s\": %.4f }%s\n"
        o.shards o.completed o.error o.answers o.rounds o.new_tuples o.shipped_tuples
        o.shipped_bytes o.fixpoint_wall_ms o.skew_max o.straggler_rounds series
        o.query_wall_s
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  output_string oc "  ]\n}\n";
  close_out oc

let () =
  let nodes = ref 64 in
  let budget = ref 2048 in
  let key = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--nodes" :: n :: rest ->
      nodes := int_of_string n;
      parse rest
    | "--budget" :: n :: rest ->
      budget := int_of_string n;
      parse rest
    | "--key" :: n :: rest ->
      key := int_of_string n;
      parse rest
    | arg :: _ ->
      Printf.eprintf "dist_bench: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let closure = !nodes * !nodes in
  if closure <= !budget then begin
    Printf.eprintf
      "dist_bench: closure (%d tuples) fits one worker's budget (%d); raise --nodes\n"
      closure !budget;
    exit 2
  end;
  Printf.printf
    "dist_tc: %d nodes, %d-tuple closure, budget %d tuples/worker, key %d\n%!"
    !nodes closure !budget !key;
  let outcomes =
    List.map
      (fun shards ->
        let o = run_scenario ~shards ~key:!key ~budget:!budget ~nodes:!nodes in
        (if o.completed then
           Printf.printf
             "  %d shard(s): %d answers, %d rounds, %d tuples / %d bytes exchanged, \
              fixpoint %.1fms, skew %.2f, %d straggler round(s), query %.3fs\n%!"
             o.shards o.answers o.rounds o.shipped_tuples o.shipped_bytes
             o.fixpoint_wall_ms o.skew_max o.straggler_rounds o.query_wall_s
         else
           Printf.printf "  %d shard(s): FAILED err %s after %.3fs\n%!" o.shards o.error
             o.query_wall_s);
        o)
      [ 1; 2; 4 ]
  in
  write_json "BENCH_dist.json" ~nodes:!nodes ~budget:!budget ~key:!key outcomes;
  Printf.printf "wrote BENCH_dist.json\n";
  (* the acceptance claim: the workload does not fit one worker but
     does fit four *)
  let find n = List.find (fun o -> o.shards = n) outcomes in
  let one = find 1 and four = find 4 in
  if one.completed then begin
    Printf.eprintf
      "dist_bench: 1 shard completed a workload sized past its budget — budget not enforced?\n";
    exit 1
  end;
  if not four.completed then begin
    Printf.eprintf "dist_bench: 4 shards failed (err %s)\n" four.error;
    exit 1
  end;
  Printf.printf "4 shards completed where 1 shard exhausted its budget (err %s).\n"
    one.error
