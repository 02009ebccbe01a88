(* Measurement and reporting helpers shared by every experiment. *)

module Obs = Coral_obs.Obs

let now_ns () = Monotonic_clock.now ()

(* The engine's per-phase histograms (registered by coral_eval / the
   server session; [Obs.histogram] returns the same cells).  Each
   [measure] resets them per run and records the last run's totals, the
   same protocol as the relation-layer work counters. *)
let h_rewrite = Obs.histogram "phase.rewrite"
let h_eval = Obs.histogram "phase.eval"
let h_emit = Obs.histogram "phase.emit"

let phase_sums () =
  ( float_of_int (Obs.Histogram.sum_ns h_rewrite) /. 1e9,
    float_of_int (Obs.Histogram.sum_ns h_eval) /. 1e9,
    float_of_int (Obs.Histogram.sum_ns h_emit) /. 1e9 )

(* Every measurement is also recorded machine-readably so the harness
   can emit BENCH_core.json next to the printed tables: one record per
   [measure] call, labelled experiment#seq (the perf trajectory across
   PRs diffs these files). *)
type record = {
  experiment : string;
  workload : string;
  median_s : float;
  inserts : int;
  duplicates : int;
  scans : int;
  rewrite_s : float;
  eval_s : float;
  emit_s : float;
}

let current_experiment = ref ""
let record_seq = ref 0
let records : record list ref = ref []

(* Median wall time over [runs] executions (the result of the last run
   is returned); work counters are captured for the last run only. *)
let measure ?(runs = 3) ?label f =
  let times = ref [] in
  let result = ref None in
  for _ = 1 to runs do
    Coral.Relation.reset_global_stats ();
    Obs.Histogram.reset h_rewrite;
    Obs.Histogram.reset h_eval;
    Obs.Histogram.reset h_emit;
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    times := Int64.to_float (Int64.sub t1 t0) /. 1e9 :: !times;
    result := Some r
  done;
  let sorted = List.sort compare !times in
  let median = List.nth sorted (List.length sorted / 2) in
  let inserts, duplicates, scans = Coral.Relation.global_stats () in
  let rewrite_s, eval_s, emit_s = phase_sums () in
  incr record_seq;
  let workload =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "#%02d" !record_seq
  in
  records :=
    { experiment = !current_experiment; workload; median_s = median; inserts; duplicates; scans;
      rewrite_s; eval_s; emit_s }
    :: !records;
  median, Option.get !result, (inserts, duplicates, scans)

(* Record a time the experiment measured itself (a mean over a window
   of interleaved operations) with that window's work counters. *)
let record ~label ~work:(inserts, duplicates, scans) seconds =
  incr record_seq;
  records :=
    { experiment = !current_experiment; workload = label; median_s = seconds; inserts;
      duplicates; scans; rewrite_s = 0.0; eval_s = 0.0; emit_s = 0.0 }
    :: !records

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let has_experiment name = List.exists (fun r -> r.experiment = name) !records

(* [experiment] restricts the emitted records to one experiment tag, so
   a family of measurements (the parallel-speedup sweep) can get its own
   JSON file next to BENCH_core.json. *)
let write_json ?experiment path =
  let oc = open_out path in
  output_string oc "{\n  \"workloads\": [\n";
  let rows = List.rev !records in
  let rows =
    match experiment with
    | None -> rows
    | Some e -> List.filter (fun r -> r.experiment = e) rows
  in
  List.iteri
    (fun i r ->
      output_string oc
        (Printf.sprintf
           "    {\"experiment\": \"%s\", \"workload\": \"%s\", \"median_s\": %.6e, \
            \"inserts\": %d, \"duplicates\": %d, \"scans\": %d, \
            \"rewrite_s\": %.6e, \"eval_s\": %.6e, \"emit_s\": %.6e}%s\n"
           (json_escape r.experiment) (json_escape r.workload) r.median_s r.inserts r.duplicates
           r.scans r.rewrite_s r.eval_s r.emit_s
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  output_string oc "  ],\n  \"phases\": [\n";
  (* cross-workload totals of the last run of every measure call, one
     entry per engine phase (plan rewriting, fixpoint evaluation,
     answer rendering) *)
  let phase_total get =
    List.fold_left (fun acc r -> acc +. get r) 0.0 rows
  in
  let phases =
    [ "rewrite", phase_total (fun r -> r.rewrite_s);
      "eval", phase_total (fun r -> r.eval_s);
      "emit", phase_total (fun r -> r.emit_s)
    ]
  in
  List.iteri
    (fun i (name, total) ->
      output_string oc
        (Printf.sprintf "    {\"phase\": \"%s\", \"total_s\": %.6e}%s\n" name total
           (if i = List.length phases - 1 then "" else ",")))
    phases;
  output_string oc "  ]\n}\n";
  close_out oc

let fmt_time t =
  if t < 1e-3 then Printf.sprintf "%.0fus" (t *. 1e6)
  else if t < 1.0 then Printf.sprintf "%.2fms" (t *. 1e3)
  else Printf.sprintf "%.2fs" t

let fmt_int n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n

let header title explain =
  (* the experiment tag is the title up to the first ':' ("E3 seminaive") *)
  current_experiment :=
    (match String.index_opt title ':' with
    | Some i -> String.trim (String.sub title 0 i)
    | None -> title);
  record_seq := 0;
  Printf.printf "\n=== %s ===\n%s\n\n" title explain

let table columns rows =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout
