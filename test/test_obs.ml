(* The observability core: metric cells and the registry, log-scale
   histogram bucketing, the span ring, the disabled-is-free contract,
   and the exporters. *)

module Obs = Coral_obs.Obs
module Json = Coral_obs.Json
module Query_log = Coral_obs.Query_log

(* Every test leaves the global switch off and the span ring at its
   default size: the cells are process-global, so a leaked enable would
   bleed into later tests. *)
let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Span.set_capacity 8192)
    f

(* ------------------------------------------------------------------ *)
(* Histogram bucketing                                                 *)
(* ------------------------------------------------------------------ *)

let test_bucket_boundaries () =
  (* bucket i covers (2^(i-1), 2^i]: an observation exactly on a power
     of two lands in that power's own bucket, one above spills over *)
  Alcotest.(check int) "le of bucket 0" 1 (Obs.Histogram.bucket_le_ns 0);
  Alcotest.(check int) "le of bucket 10" 1024 (Obs.Histogram.bucket_le_ns 10);
  Alcotest.(check int) "0ns -> bucket 0" 0 (Obs.Histogram.bucket_index 0);
  Alcotest.(check int) "1ns -> bucket 0" 0 (Obs.Histogram.bucket_index 1);
  Alcotest.(check int) "2ns -> bucket 1" 1 (Obs.Histogram.bucket_index 2);
  Alcotest.(check int) "3ns -> bucket 2" 2 (Obs.Histogram.bucket_index 3);
  Alcotest.(check int) "1024ns -> bucket 10" 10 (Obs.Histogram.bucket_index 1024);
  Alcotest.(check int) "1025ns -> bucket 11" 11 (Obs.Histogram.bucket_index 1025);
  (* everything past the last boundary is absorbed by the final bucket *)
  Alcotest.(check int) "huge -> last bucket" (Obs.Histogram.nbuckets - 1)
    (Obs.Histogram.bucket_index max_int);
  (* indices and boundaries agree across the whole range *)
  for i = 0 to Obs.Histogram.nbuckets - 2 do
    let le = Obs.Histogram.bucket_le_ns i in
    Alcotest.(check int)
      (Printf.sprintf "boundary %d lands in its own bucket" i)
      i (Obs.Histogram.bucket_index le)
  done

let test_histogram_observe () =
  with_obs_enabled @@ fun () ->
  let h = Obs.Histogram.v "test.hist.observe" in
  Obs.Histogram.observe_ns h 1;
  Obs.Histogram.observe_ns h 3;
  Obs.Histogram.observe_ns h 1024;
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 1028 (Obs.Histogram.sum_ns h);
  let buckets = Obs.Histogram.bucket_counts h in
  Alcotest.(check int) "bucket 0" 1 buckets.(0);
  Alcotest.(check int) "bucket 2" 1 buckets.(2);
  Alcotest.(check int) "bucket 10" 1 buckets.(10);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "reset sum" 0 (Obs.Histogram.sum_ns h)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_idempotent () =
  with_obs_enabled @@ fun () ->
  let a = Obs.counter "test.registry.shared" in
  let b = Obs.counter "test.registry.shared" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  (* same name, same kind: one cell, both increments visible *)
  Alcotest.(check int) "shared cell" 2 (Obs.Counter.value a);
  (match Obs.find "test.registry.shared" with
  | Some (Obs.M_counter c) -> Alcotest.(check int) "find sees it" 2 (Obs.Counter.value c)
  | _ -> Alcotest.fail "registered counter not found")

let test_registry_kind_collision () =
  let name = "test.registry.collision" in
  ignore (Obs.counter name);
  Alcotest.check_raises "histogram under a counter name"
    (Invalid_argument "Obs: metric \"test.registry.collision\" already registered as a counter")
    (fun () -> ignore (Obs.histogram name))

let test_registry_concurrent () =
  (* many domains racing to register the same name must all get the
     one cell — no increment may land in an orphaned duplicate *)
  with_obs_enabled @@ fun () ->
  let per_domain = 1000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let c = Obs.counter "test.registry.concurrent" in
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join spawned;
  match Obs.find "test.registry.concurrent" with
  | Some (Obs.M_counter c) ->
    Alcotest.(check int) "every increment visible" (domains * per_domain) (Obs.Counter.value c)
  | _ -> Alcotest.fail "concurrently registered counter not found"

(* ------------------------------------------------------------------ *)
(* Disabled means free (and silent)                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  let c = Obs.Counter.v "test.disabled.counter" in
  let g = Obs.Gauge.v "test.disabled.gauge" in
  let h = Obs.Histogram.v "test.disabled.hist" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Gauge.set g 7;
  Obs.Histogram.observe_ns h 1000;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "gauge untouched" 0 (Obs.Gauge.value g);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h);
  (* Histogram.time still runs the thunk and returns its value *)
  Alcotest.(check int) "time passes result through" 9 (Obs.Histogram.time h (fun () -> 9));
  Alcotest.(check int) "time recorded nothing" 0 (Obs.Histogram.count h);
  (* spans record nothing and never evaluate the attrs thunk *)
  Obs.Span.clear ();
  let before = Obs.Span.count () in
  let attrs_forced = ref false in
  let r =
    Obs.Span.with_ "test.disabled.span"
      ~attrs:(fun () ->
        attrs_forced := true;
        [ "k", "v" ])
      (fun () -> 17)
  in
  Alcotest.(check int) "span passes result through" 17 r;
  Alcotest.(check int) "no span recorded" before (Obs.Span.count ());
  Alcotest.(check bool) "attrs thunk not forced" false !attrs_forced

(* ------------------------------------------------------------------ *)
(* Span ring                                                           *)
(* ------------------------------------------------------------------ *)

let test_span_ring_wraparound () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 4;
  for i = 1 to 6 do
    Obs.Span.with_ (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "count is total ever" 6 (Obs.Span.count ());
  let names = List.map (fun s -> s.Obs.Span.sname) (Obs.Span.recorded ()) in
  (* capacity 4: the two oldest were overwritten, order is oldest-first *)
  Alcotest.(check (list string)) "newest 4 survive, in order" [ "s3"; "s4"; "s5"; "s6" ] names;
  Obs.Span.clear ();
  Alcotest.(check int) "clear empties the ring" 0 (List.length (Obs.Span.recorded ()))

let test_span_attrs_and_json () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 16;
  Obs.Span.clear ();
  Obs.Span.with_ "quoted\"name" ~attrs:(fun () -> [ "key", "line1\nline2" ]) (fun () -> ());
  (match Obs.Span.recorded () with
  | [ s ] ->
    Alcotest.(check string) "name kept" "quoted\"name" s.Obs.Span.sname;
    Alcotest.(check (list (pair string string))) "attrs kept" [ "key", "line1\nline2" ]
      s.Obs.Span.attrs
  | spans -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length spans)));
  let json = Obs.Span.to_chrome_json () in
  Alcotest.(check bool) "escapes quotes" true
    (let rec find i =
       i + 13 <= String.length json
       && (String.sub json i 13 = "quoted\\\"name\"" || find (i + 1))
     in
     find 0);
  (* the array form of the trace_event format, accepted by
     chrome://tracing and Perfetto alike *)
  Alcotest.(check bool) "chrome array envelope" true
    (String.starts_with ~prefix:"[" (String.trim json))

let test_span_ring_deep_wraparound () =
  (* drive the cursor far past capacity: the ring must keep exactly
     the newest [capacity] spans, oldest first, with the total intact *)
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 8;
  Obs.Span.clear ();
  let total = 1000 in
  for i = 1 to total do
    Obs.Span.with_ (Printf.sprintf "deep%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "count is total ever" total (Obs.Span.count ());
  let names = List.map (fun s -> s.Obs.Span.sname) (Obs.Span.recorded ()) in
  Alcotest.(check (list string)) "newest 8, oldest first"
    (List.init 8 (fun i -> Printf.sprintf "deep%d" (total - 7 + i)))
    names;
  (* shrinking then growing the capacity resets cleanly *)
  Obs.Span.set_capacity 2;
  Obs.Span.with_ "after" (fun () -> ());
  Alcotest.(check int) "resize clears" 1 (List.length (Obs.Span.recorded ()))

let test_chrome_json_parses_back () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 16;
  Obs.Span.clear ();
  Obs.Span.with_ "outer" ~attrs:(fun () -> [ "k", "v\"w" ]) (fun () ->
      Obs.Span.with_ "inner" (fun () -> ()));
  match Json.parse (Obs.Span.to_chrome_json ()) with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok (Json.List events) ->
    Alcotest.(check int) "two events" 2 (List.length events);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "has name" true (Json.member "name" ev <> None);
        Alcotest.(check bool) "complete event" true
          (Json.member "ph" ev = Some (Json.Str "X"));
        Alcotest.(check bool) "has timestamp" true (Json.member "ts" ev <> None))
      events;
    Alcotest.(check bool) "attr survives escaping" true
      (List.exists
         (fun ev ->
           match Json.member "args" ev with
           | Some args -> Json.member "k" args = Some (Json.Str "v\"w")
           | None -> false)
         events)
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ "s", Json.Str "a\"b\\c\nd\te\r \x01";
        "i", Json.Int (-42);
        "f", Json.Float 1.5;
        "whole", Json.Float 2.0;
        "t", Json.Bool true;
        "nil", Json.Null;
        "l", Json.List [ Json.Int 1; Json.Str "x"; Json.List []; Json.Obj [] ]
      ]
  in
  (match Json.parse (Json.to_string j) with
  | Ok j2 -> Alcotest.(check bool) "round-trips structurally" true (j = j2)
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e));
  (* escapes coming the other way *)
  (match Json.parse "{\"u\": \"A\\u00e9\", \"neg\": -7, \"e\": 1e3}" with
  | Ok j ->
    Alcotest.(check bool) "unicode escapes decode to UTF-8" true
      (Json.member "u" j = Some (Json.Str "A\xc3\xa9"));
    Alcotest.(check bool) "negative int" true (Json.member "neg" j = Some (Json.Int (-7)));
    Alcotest.(check bool) "exponent is a float" true
      (Json.member "e" j = Some (Json.Float 1000.));
  | Error e -> Alcotest.fail ("escape parse failed: " ^ e));
  (* non-finite floats must not produce invalid JSON *)
  Alcotest.(check string) "nan renders as null" "null" (Json.to_string (Json.Float nan));
  (match Json.parse "{\"truncated\": " with
  | Ok _ -> Alcotest.fail "truncated input accepted"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* The active-query registry                                           *)
(* ------------------------------------------------------------------ *)

let test_query_log_registry () =
  let e =
    Query_log.register ~session:7 ~deadline_ms:500 ~workers:2 ~adorned:"path/2:bf"
      ~kind:"query" "path(1, Y)"
  in
  let qid = Query_log.id e in
  let snap () =
    match List.find_opt (fun s -> s.Query_log.s_id = qid) (Query_log.active ()) with
    | Some s -> s
    | None -> Alcotest.fail "registered query not listed"
  in
  Alcotest.(check int) "counted" 1 (Query_log.active_count ());
  let s = snap () in
  Alcotest.(check int) "session" 7 s.Query_log.s_session;
  Alcotest.(check string) "adorned form" "path/2:bf" s.Query_log.s_adorned;
  Alcotest.(check int) "workers" 2 s.Query_log.s_workers;
  Alcotest.(check bool) "not killed" false s.Query_log.s_killed;
  (* progress accumulates; an empty lane array keeps the last snapshot *)
  Query_log.progress e ~delta:3 ~lanes:[| 2; 1 |];
  Query_log.progress e ~delta:2 ~lanes:[||];
  let s = snap () in
  Alcotest.(check int) "iterations" 2 s.Query_log.s_iterations;
  Alcotest.(check int) "derivations" 5 s.Query_log.s_derivations;
  Alcotest.(check int) "last delta" 2 s.Query_log.s_last_delta;
  Alcotest.(check (array int)) "lanes kept" [| 2; 1 |] s.Query_log.s_lanes;
  (* kill flips the flag the evaluation polls *)
  Alcotest.(check bool) "kill finds it" true (Query_log.kill qid);
  Alcotest.(check bool) "entry sees the kill" true (Query_log.killed e);
  Alcotest.(check bool) "snapshot sees the kill" true (snap ()).Query_log.s_killed;
  Alcotest.(check bool) "bogus id refused" false (Query_log.kill (qid + 1000));
  Query_log.unregister e;
  Alcotest.(check int) "unlisted" 0 (Query_log.active_count ());
  Alcotest.(check bool) "kill after completion refused" false (Query_log.kill qid)

(* ------------------------------------------------------------------ *)
(* The structured event log                                            *)
(* ------------------------------------------------------------------ *)

let test_events_ring_and_slow () =
  Query_log.Events.reset ();
  Fun.protect ~finally:Query_log.Events.reset @@ fun () ->
  Query_log.Events.configure ~slow_ms:50 ();
  Query_log.Events.query_event ~kind:"query" ~id:1 ~session:3 ~text:"fast(X)"
    ~latency_ms:2.0 ~rows:4 ~iterations:2 ~derivations:9 ~plan_cache:"hit" ~outcome:"ok" ();
  Query_log.Events.query_event ~kind:"query" ~id:2 ~session:3 ~text:"slow(X)"
    ~latency_ms:80.0 ~rows:0 ~iterations:40 ~derivations:100 ~plan_cache:"" ~outcome:"timeout"
    ();
  Alcotest.(check int) "two events" 2 (Query_log.Events.total ());
  (match List.map Json.parse (Query_log.Events.recent 10) with
  | [ Ok fast; Ok slow ] ->
    Alcotest.(check bool) "fast not flagged" true (Json.member "slow" fast = None);
    Alcotest.(check bool) "fast keeps plan-cache tag" true
      (Json.member "plan_cache" fast = Some (Json.Str "hit"));
    Alcotest.(check bool) "slow flagged" true (Json.member "slow" slow = Some (Json.Bool true));
    Alcotest.(check bool) "outcome recorded" true
      (Json.member "outcome" slow = Some (Json.Str "timeout"));
    Alcotest.(check bool) "rows recorded" true (Json.member "rows" fast = Some (Json.Int 4))
  | results -> Alcotest.fail (Printf.sprintf "expected 2 parseable events, got %d" (List.length results)));
  (* the ring keeps only the newest entries but the total keeps counting *)
  for i = 1 to 1500 do
    Query_log.Events.log ~kind:"tick" [ "n", Json.Int i ]
  done;
  Alcotest.(check int) "total counts past the ring" 1502 (Query_log.Events.total ());
  let recent = Query_log.Events.recent 2000 in
  Alcotest.(check int) "ring bounded" 1024 (List.length recent);
  (match Json.parse (List.nth recent (List.length recent - 1)) with
  | Ok j -> Alcotest.(check bool) "newest last" true (Json.member "n" j = Some (Json.Int 1500))
  | Error e -> Alcotest.fail e);
  (* disabled drops everything *)
  Query_log.Events.configure ~enabled:false ();
  Query_log.Events.log ~kind:"tick" [];
  Alcotest.(check int) "disabled logs nothing" 1502 (Query_log.Events.total ())

let test_events_file_rotation () =
  Query_log.Events.reset ();
  Fun.protect ~finally:Query_log.Events.reset @@ fun () ->
  let path = "test_events.jsonl" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".1" ];
  Query_log.Events.configure ~path ~max_bytes:4096 ();
  let filler = String.make 80 'x' in
  for i = 1 to 300 do
    Query_log.Events.log ~kind:"fill" [ "n", Json.Int i; "pad", Json.Str filler ]
  done;
  (* force the buffered channel out *)
  Query_log.Events.configure ~path:"" ();
  Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  let size p = (Unix.stat p).Unix.st_size in
  Alcotest.(check bool)
    (Printf.sprintf "live file bounded (%d)" (size path))
    true
    (size path <= 4096);
  Alcotest.(check bool)
    (Printf.sprintf "rotated file bounded (%d)" (size (path ^ ".1")))
    true
    (size (path ^ ".1") <= 4096);
  (* every persisted line is valid JSONL *)
  let lines p = In_channel.with_open_text p In_channel.input_lines in
  let all = lines (path ^ ".1") @ lines path in
  Alcotest.(check bool)
    (Printf.sprintf "rotation kept whole lines (%d)" (List.length all))
    true
    (List.length all > 25);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "corrupt JSONL line %S: %s" l e))
    all

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_exposition () =
  with_obs_enabled @@ fun () ->
  let c = Obs.counter "test.prom.hits" in
  Obs.Counter.add c 5;
  let h = Obs.histogram "test.prom.lat" in
  Obs.Histogram.observe_ns h 3;
  let text = Obs.prometheus () in
  let has needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter TYPE line" true (has "# TYPE coral_test_prom_hits counter");
  Alcotest.(check bool) "counter sample" true (has "coral_test_prom_hits 5");
  Alcotest.(check bool) "histogram TYPE line" true (has "# TYPE coral_test_prom_lat histogram");
  (* 3ns lands in the 4ns bucket; cumulative buckets then +Inf *)
  Alcotest.(check bool) "cumulative bucket" true (has "coral_test_prom_lat_bucket{le=\"4e-09\"} 1");
  Alcotest.(check bool) "inf bucket" true (has "coral_test_prom_lat_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "count line" true (has "coral_test_prom_lat_count 1");
  let buf = Buffer.create 64 in
  Obs.prometheus_sample_f buf ~kind:"gauge" "test.prom.unregistered" 42.;
  let sample = Buffer.contents buf in
  Alcotest.(check bool) "sample TYPE" true
    (String.starts_with ~prefix:"# TYPE coral_test_prom_unregistered gauge" sample)

let () =
  Alcotest.run "coral_obs"
    [ ( "histogram",
        [ Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe and reset" `Quick test_histogram_observe
        ] );
      ( "registry",
        [ Alcotest.test_case "idempotent registration" `Quick test_registry_idempotent;
          Alcotest.test_case "kind collision" `Quick test_registry_kind_collision;
          Alcotest.test_case "concurrent registration" `Quick test_registry_concurrent
        ] );
      ( "gating",
        [ Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing ] );
      ( "spans",
        [ Alcotest.test_case "ring wraparound" `Quick test_span_ring_wraparound;
          Alcotest.test_case "attrs and chrome JSON" `Quick test_span_attrs_and_json;
          Alcotest.test_case "deep wraparound" `Quick test_span_ring_deep_wraparound;
          Alcotest.test_case "chrome JSON parses back" `Quick test_chrome_json_parses_back
        ] );
      ( "json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
      ( "query log",
        [ Alcotest.test_case "registry and kill" `Quick test_query_log_registry ] );
      ( "events",
        [ Alcotest.test_case "ring, slow flag" `Quick test_events_ring_and_slow;
          Alcotest.test_case "file rotation" `Quick test_events_file_rotation
        ] );
      ( "exporters",
        [ Alcotest.test_case "prometheus text" `Quick test_prometheus_exposition ] )
    ]
