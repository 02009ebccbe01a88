(* Observability overhead gate: CI fails this PR if instrumentation
   slows the engine down measurably.

   Usage: obs_overhead [--chain N] [--runs N] [--max-ratio R] [--workers N]
                       [--trace-out FILE]

   Two workloads, each run with observability disabled and enabled
   (the two alternating, median of --runs each) and gated on its own:
   the gate fails when enabled exceeds disabled * --max-ratio (default
   1.05, i.e. 5%).
   - Full transitive closure of a chain, one fresh-database evaluation
     per run: the fixpoint inner loop at its purest, few rounds of
     large joins.
   - Bound calls: batches of [Engine.call path(s, Y)] on the 64-node
     ring with chords that perfbench's bound_query serves, each call a
     whole seeded fixpoint of many small joins, so any per-round or
     per-join instrumentation shows here.

   --trace-out writes the enabled run's span ring as Chrome trace_event
   JSON (load it in chrome://tracing or Perfetto). *)

module Obs = Coral_obs.Obs
module Query_log = Coral_obs.Query_log

let program =
  "module tc.\n\
   export path(ff).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
   end_module.\n"

(* 0 = use the CORAL_WORKERS / sequential default *)
let workers = ref 0

(* When set (the enabled run), each evaluation also exercises the
   serving layer's per-query obs work: active-query registration, the
   per-iteration progress hook, the cooperative kill check and the
   completion event — so the ratio gate prices the whole ps/kill/event
   pipeline, not just spans and counters. *)
let instrument = ref false

let run_once chain =
  let db = Coral.create () in
  if !workers > 0 then Coral.set_workers db !workers;
  for i = 0 to chain - 1 do
    Coral.fact db "edge" [ Coral.int i; Coral.int (i + 1) ]
  done;
  Coral.consult_text db program;
  let t0 = Obs.now_ns () in
  let n =
    if not !instrument then List.length (Coral.query_rows db "path(X, Y)")
    else begin
      let entry = Query_log.register ~kind:"bench" "path(X, Y)" in
      let n =
        Coral.with_cancel db
          (fun () -> Query_log.killed entry)
          (fun () ->
            Coral.with_progress db
              (fun ~rounds:_ ~delta ~lanes -> Query_log.progress entry ~delta ~lanes)
              (fun () -> List.length (Coral.query_rows db "path(X, Y)")))
      in
      Query_log.unregister entry;
      Query_log.Events.query_event ~kind:"bench" ~id:(Query_log.id entry) ~session:0
        ~text:"path(X, Y)"
        ~latency_ms:(float_of_int (Obs.now_ns () - t0) /. 1e6)
        ~rows:n
        ~iterations:(Query_log.iterations entry)
        ~derivations:(Query_log.derivations entry)
        ~plan_cache:"" ~outcome:"ok" ();
      n
    end
  in
  let dt = Obs.now_ns () - t0 in
  let expected = chain * (chain + 1) / 2 in
  if n <> expected then begin
    Printf.eprintf "obs_overhead: wrong answer count %d (expected %d)\n" n expected;
    exit 1
  end;
  dt

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Disabled and enabled runs alternate, the pair's order flipping each
   time, so host drift and whatever one run leaves the next (garbage to
   collect) fall on both alike; one untimed warm-up of each absorbs
   first-touch effects (symbol interning, minor-heap growth).  Returns
   the disabled and enabled medians. *)
let alternate ~runs once =
  ignore (once false);
  ignore (once true);
  let pair k =
    if k mod 2 = 0 then begin
      let off = once false in
      off, once true
    end
    else begin
      let on = once true in
      once false, on
    end
  in
  let pairs = List.init runs pair in
  median (List.map fst pairs), median (List.map snd pairs)

let measure ~runs ~chain =
  alternate ~runs (fun enabled ->
      Obs.set_enabled enabled;
      instrument := enabled;
      let dt = run_once chain in
      Obs.set_enabled false;
      instrument := false;
      dt)

let bound_calls ~runs =
  let n = 64 and calls = 1000 in
  let db = Coral.create () in
  if !workers > 0 then Coral.set_workers db !workers;
  List.iter (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b ]) (Workloads.bound_query_edges n);
  Coral.consult_text db
    "module paths.\nexport path(bf).\npath(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.\n";
  let e = Coral.engine db and path = Coral.Symbol.intern "path" in
  let batch enabled =
    Obs.set_enabled enabled;
    let t0 = Obs.now_ns () in
    for i = 1 to calls do
      let answers = Seq.length (Coral.Engine.call e path [| Coral.int (i mod n); Coral.var 0 |]) in
      if answers <> n then begin
        Printf.eprintf "obs_overhead: path(%d, Y) gave %d answers (expected %d)\n" (i mod n)
          answers n;
        exit 1
      end
    done;
    let dt = Obs.now_ns () - t0 in
    Obs.set_enabled false;
    dt
  in
  alternate ~runs batch

let report ~what ~max_ratio off_ns on_ns =
  let ratio = float_of_int on_ns /. float_of_int (max 1 off_ns) in
  Printf.printf "  %s\n    disabled: %.3fms\n    enabled:  %.3fms\n    ratio: %.3f (budget %.2f)\n"
    what
    (float_of_int off_ns /. 1e6)
    (float_of_int on_ns /. 1e6)
    ratio max_ratio;
  ratio <= max_ratio

let () =
  let chain = ref 192 and runs = ref 5 in
  let max_ratio = ref 1.05 in
  let trace_out = ref "" in
  let rec parse_args = function
    | [] -> ()
    | "--chain" :: n :: rest ->
      chain := int_of_string n;
      parse_args rest
    | "--runs" :: n :: rest ->
      runs := int_of_string n;
      parse_args rest
    | "--max-ratio" :: r :: rest ->
      max_ratio := float_of_string r;
      parse_args rest
    | "--workers" :: n :: rest ->
      workers := int_of_string n;
      parse_args rest
    | "--trace-out" :: f :: rest ->
      trace_out := f;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf
        "usage: obs_overhead [--chain N] [--runs N] [--max-ratio R] [--workers N] [--trace-out FILE] (got %s)\n"
        arg;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* only the enabled runs record spans, for --trace-out *)
  Obs.Span.clear ();
  let off_ns, on_ns = measure ~runs:!runs ~chain:!chain in
  let spans = Obs.Span.count () in
  Printf.printf "obs_overhead: median of %d runs\n" !runs;
  let closure_ok =
    report ~what:(Printf.sprintf "full closure of a %d-node chain" !chain) ~max_ratio:!max_ratio
      off_ns on_ns
  in
  Printf.printf "    spans recorded: %d\n" spans;
  let off_b, on_b = bound_calls ~runs:!runs in
  let bound_ok =
    report ~what:"1000 bound calls path(s, Y) on the 64-node ring" ~max_ratio:!max_ratio off_b on_b
  in
  if !trace_out <> "" then begin
    let oc = open_out !trace_out in
    output_string oc (Obs.Span.to_chrome_json ());
    close_out oc;
    Printf.printf "  wrote %s\n" !trace_out
  end;
  if not (closure_ok && bound_ok) then begin
    Printf.eprintf "obs_overhead: FAIL: an enabled/disabled ratio exceeds %.2f\n" !max_ratio;
    exit 1
  end;
  print_endline "obs_overhead: PASS"
