(* The observability core: named metrics, span tracing, exporters.

   Everything funnels through one global switch: with [enabled] off
   (the default) every record operation returns immediately, so code
   can instrument hot paths unconditionally and embedders that never
   look at metrics pay only a load and a branch.  Updates use [Atomic]
   so concurrent server threads never lose increments; reads are
   tear-free snapshots of individual cells (a scrape racing a writer
   may see a histogram count one ahead of its sum, which Prometheus
   semantics tolerate). *)

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled flag = Atomic.set on flag

(* Wall clock in integer nanoseconds.  gettimeofday has microsecond
   resolution, which is fine for spans and phase histograms; work
   counters, not clocks, are the machine-independent measures. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Exposed as coral_build_info / process start-time gauges on the
   Prometheus endpoint.  The version tracks the PR sequence, not any
   external release scheme. *)
let version = "0.5.0"
let process_start_ns = now_ns ()

(* ------------------------------------------------------------------ *)
(* Metric cells                                                       *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { cname : string; cell : int Atomic.t }

  let v name = { cname = name; cell = Atomic.make 0 }
  let name c = c.cname
  let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n)
  let incr c = add c 1
  let value c = Atomic.get c.cell
  let reset c = Atomic.set c.cell 0
end

module Gauge = struct
  type t = { gname : string; cell : int Atomic.t }

  let v name = { gname = name; cell = Atomic.make 0 }
  let name g = g.gname
  let set g n = if Atomic.get on then Atomic.set g.cell n
  let add g n = if Atomic.get on then ignore (Atomic.fetch_and_add g.cell n)
  let value g = Atomic.get g.cell
  let reset g = Atomic.set g.cell 0
end

module Histogram = struct
  (* Log-scale (base 2) buckets over nanoseconds: bucket [i] counts
     observations with value <= 2^i ns, the last bucket is +Inf.  48
     buckets cover one nanosecond to about 39 hours, so any request
     latency or phase duration lands in a real bucket. *)
  let nbuckets = 48

  type t = {
    hname : string;
    buckets : int Atomic.t array;  (* non-cumulative per-bucket counts *)
    count : int Atomic.t;
    sum : int Atomic.t;  (* total of observed values, ns *)
  }

  let v name =
    { hname = name;
      buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0
    }

  let name h = h.hname

  let bucket_le_ns i = 1 lsl i

  let bucket_index ns =
    if ns <= 1 then 0
    else begin
      let rec go i = if i >= nbuckets - 1 || ns <= 1 lsl i then i else go (i + 1) in
      go 1
    end

  let observe_ns h ns =
    if Atomic.get on then begin
      let ns = max 0 ns in
      ignore (Atomic.fetch_and_add h.buckets.(bucket_index ns) 1);
      ignore (Atomic.fetch_and_add h.count 1);
      ignore (Atomic.fetch_and_add h.sum ns)
    end

  (* [time h f] observes f's wall duration; with the switch off it is
     exactly [f ()] — no clock reads. *)
  let time h f =
    if Atomic.get on then begin
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> observe_ns h (now_ns () - t0)) f
    end
    else f ()

  let count h = Atomic.get h.count
  let sum_ns h = Atomic.get h.sum
  let bucket_counts h = Array.map Atomic.get h.buckets

  let reset h =
    Array.iter (fun c -> Atomic.set c 0) h.buckets;
    Atomic.set h.count 0;
    Atomic.set h.sum 0
end

(* ------------------------------------------------------------------ *)
(* The registry                                                       *)
(* ------------------------------------------------------------------ *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let registered f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

(* Registration is idempotent per (name, kind): asking again returns
   the same cell, so independent modules can share a metric by name.
   Re-registering a name as a different kind is a programming error. *)
let register name make pick =
  registered (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> begin
        match pick m with
        | Some cell -> cell
        | None ->
          invalid_arg
            (Printf.sprintf "Obs: metric %S already registered as a %s" name (kind_name m))
      end
      | None ->
        let cell = make () in
        let m, v = cell in
        Hashtbl.add registry name m;
        v)

let counter name =
  register name
    (fun () ->
      let c = Counter.v name in
      M_counter c, c)
    (function M_counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = Gauge.v name in
      M_gauge g, g)
    (function M_gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h = Histogram.v name in
      M_histogram h, h)
    (function M_histogram h -> Some h | _ -> None)

let metrics () =
  registered (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let find name = registered (fun () -> Hashtbl.find_opt registry name)

(* Zero every registered metric (bench/test isolation; the registry
   keeps its entries so cells stay shared). *)
let reset_all () =
  List.iter
    (fun (_, m) ->
      match m with
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_histogram h -> Histogram.reset h)
    (metrics ())

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)
(* ------------------------------------------------------------------ *)

(* "server.query_seconds" -> "coral_server_query_seconds" *)
let prom_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "coral_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let render_histogram buf name (h : Histogram.t) =
  let n = prom_name name in
  Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
  let counts = Histogram.bucket_counts h in
  (* cumulative buckets up to the last non-empty one, then +Inf *)
  let last =
    let hi = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then hi := i) counts;
    min !hi (Histogram.nbuckets - 2)
  in
  let cum = ref 0 in
  for i = 0 to last do
    cum := !cum + counts.(i);
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
         (prom_float (float_of_int (Histogram.bucket_le_ns i) /. 1e9))
         !cum)
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
  Buffer.add_string buf
    (Printf.sprintf "%s_sum %s\n" n (prom_float (float_of_int (Histogram.sum_ns h) /. 1e9)));
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Histogram.count h))

let prometheus_sample_f buf ~kind name value =
  let n = prom_name name in
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n kind);
  Buffer.add_string buf (Printf.sprintf "%s %s\n" n (prom_float value))

(* Labeled sample: [labels] render inside {}.  Label values are
   escaped per the exposition format (backslash, quote, newline). *)
let prom_label_escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_escape v)) labels)
    ^ "}"

let prometheus_sample_labeled buf ?(typ = true) ~kind ~labels name value =
  let n = prom_name name in
  if typ then Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n kind);
  Buffer.add_string buf (Printf.sprintf "%s%s %s\n" n (render_labels labels) (prom_float value))

(* ------------------------------------------------------------------ *)
(* Sample tables: one row per value, rendered by every view            *)
(* ------------------------------------------------------------------ *)

type sample = string * [ `Counter | `Gauge ] * float

(* The process's own rows, which every table ends with: the start-time
   and uptime gauges, then the registry's counters and gauges. *)
let samples () =
  ( "process.start_time_seconds", `Gauge,
    float_of_int (process_start_ns / 1_000_000_000) )
  :: ( "process.uptime_seconds", `Gauge,
       float_of_int ((now_ns () - process_start_ns) / 1_000_000_000) )
  :: List.filter_map
       (fun (name, m) ->
         match m with
         | M_counter c -> Some (name, `Counter, float_of_int (Counter.value c))
         | M_gauge g -> Some (name, `Gauge, float_of_int (Gauge.value g))
         | M_histogram _ -> None)
       (metrics ())

(* The two views of a table, side by side so the number format lives
   in one place.  [stats] prints [name=value]; the exposition derives
   the [coral_] name and adds only the build identity (labels, no
   value of its own) and the registry's histograms. *)
let render_stats rows =
  List.map (fun (name, _, v) -> name ^ "=" ^ prom_float v) (rows @ samples ())

let render_prometheus rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, kind, v) ->
      prometheus_sample_f buf ~kind:(match kind with `Counter -> "counter" | `Gauge -> "gauge")
        name v)
    (rows @ samples ());
  prometheus_sample_labeled buf ~kind:"gauge"
    ~labels:[ "version", version; "ocaml", Sys.ocaml_version ]
    "build_info" 1.;
  List.iter
    (function name, M_histogram h -> render_histogram buf name h | _ -> ())
    (metrics ());
  Buffer.contents buf

let prometheus () = render_prometheus []

(* ------------------------------------------------------------------ *)
(* Trace context                                                      *)
(* ------------------------------------------------------------------ *)

(* The per-request trace id.  A connection thread sets it when a
   request arrives (either honoring a tid= token from the wire or
   minting a fresh id) and clears it when the reply is written; any
   span or event recorded on that thread in between is stamped with
   it.  The table is keyed by thread id, so context never leaks
   between concurrent connections — but note it also does not follow
   work handed to a domain pool; callers that fan out must capture
   [current ()] before spawning. *)
module Trace = struct
  let table : (int, string) Hashtbl.t = Hashtbl.create 16
  let lock = Mutex.create ()
  let seq = Atomic.make 0

  (* ids look like "t4f2a-17": a few hex digits of process identity
     (pid + start time) plus a process-local sequence number, unique
     enough across a cluster without a real RNG. *)
  let origin =
    lazy
      (let pid = Unix.getpid () in
       Printf.sprintf "%04x" ((pid lxor (process_start_ns lsr 12)) land 0xffff))

  let fresh () =
    Printf.sprintf "t%s-%d" (Lazy.force origin) (Atomic.fetch_and_add seq 1)

  let set id =
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    Hashtbl.replace table tid id;
    Mutex.unlock lock

  let clear () =
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    Hashtbl.remove table tid;
    Mutex.unlock lock

  let current () =
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    let r = Hashtbl.find_opt table tid in
    Mutex.unlock lock;
    r

  (* [with_id id f]: run f with the trace context set (None = leave
     whatever context is already installed alone). *)
  let with_id id f =
    match id with
    | None -> f ()
    | Some id ->
      let prev = current () in
      set id;
      Fun.protect
        ~finally:(fun () -> match prev with Some p -> set p | None -> clear ())
        f

  (* A tid travels on the wire as a trailing "tid=<id>" token; only
     short ids of unsurprising characters are accepted, so a malformed
     token cannot smuggle spaces or quotes into logs. *)
  let valid_id s =
    let n = String.length s in
    n > 0 && n <= 64
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true | _ -> false)
         s
end

(* ------------------------------------------------------------------ *)
(* Span tracing                                                       *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type span = {
    sname : string;
    ts_ns : int;  (* start, wall clock *)
    dur_ns : int;
    attrs : (string * string) list;
  }

  (* A fixed ring holding the most recent completed spans.  Writers
     take a slot under a lock (spans end at phase/round/page
     granularity, so contention is negligible next to the work they
     wrap); the ring never grows, old spans are overwritten. *)
  let default_capacity = 8192
  let ring = ref (Array.make default_capacity None)
  let cursor = ref 0  (* total spans ever recorded *)
  let ring_lock = Mutex.create ()

  let set_capacity n =
    let n = max 1 n in
    Mutex.lock ring_lock;
    ring := Array.make n None;
    cursor := 0;
    Mutex.unlock ring_lock

  let clear () =
    Mutex.lock ring_lock;
    Array.fill !ring 0 (Array.length !ring) None;
    cursor := 0;
    Mutex.unlock ring_lock

  (* Every completed span is stamped with the calling thread's trace
     id (when one is installed) so cross-process trace stitching can
     find it later by tid. *)
  let record sname ts_ns dur_ns attrs =
    let attrs =
      if List.mem_assoc "tid" attrs then attrs
      else
        match Trace.current () with
        | Some id -> ("tid", id) :: attrs
        | None -> attrs
    in
    Mutex.lock ring_lock;
    let r = !ring in
    r.(!cursor mod Array.length r) <- Some { sname; ts_ns; dur_ns; attrs };
    incr cursor;
    Mutex.unlock ring_lock

  let recorded () =
    Mutex.lock ring_lock;
    let r = !ring in
    let n = Array.length r in
    let total = !cursor in
    let first = max 0 (total - n) in
    let out = ref [] in
    for i = total - 1 downto first do
      match r.(i mod n) with
      | Some s -> out := s :: !out
      | None -> ()
    done;
    Mutex.unlock ring_lock;
    !out

  let count () = !cursor

  (* [with_ name f]: run f inside a span.  Attributes are a thunk so
     building them costs nothing when tracing is off. *)
  let with_ ?attrs name f =
    if Atomic.get on then begin
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let attrs = match attrs with Some mk -> mk () | None -> [] in
          record name t0 (now_ns () - t0) attrs)
        f
    end
    else f ()

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

  (* Chrome trace_event format (chrome://tracing, Perfetto): an array
     of complete ("ph":"X") events with microsecond timestamps. *)
  let to_chrome_json () =
    let spans = recorded () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ",\n" else Buffer.add_string buf "\n";
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f"
             (json_escape s.sname)
             (float_of_int s.ts_ns /. 1e3)
             (float_of_int s.dur_ns /. 1e3));
        if s.attrs <> [] then begin
          Buffer.add_string buf ", \"args\": {";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
            s.attrs;
          Buffer.add_string buf "}"
        end;
        Buffer.add_string buf "}")
      spans;
    Buffer.add_string buf "\n]\n";
    Buffer.contents buf

  (* Spans whose trace id matches [tid], oldest first — the slice a
     worker ships back for a [spans <tid>] wire request. *)
  let matching tid =
    List.filter (fun s -> List.assoc_opt "tid" s.attrs = Some tid) (recorded ())

  (* One span as a single-line JSON object; the wire format for
     [spans <tid>] replies, parsed back with [of_json]. *)
  let to_json s =
    Json.to_string
      (Json.Obj
         [ "name", Json.Str s.sname;
           "ts_ns", Json.Int s.ts_ns;
           "dur_ns", Json.Int s.dur_ns;
           "attrs", Json.Obj (List.map (fun (k, v) -> k, Json.Str v) s.attrs)
         ])

  let of_json line =
    match Json.parse line with
    | Error e -> Error e
    | Ok j -> begin
      match Json.member "name" j, Json.member "ts_ns" j, Json.member "dur_ns" j with
      | Some (Json.Str sname), Some (Json.Int ts_ns), Some (Json.Int dur_ns) ->
        let attrs =
          match Json.member "attrs" j with
          | Some (Json.Obj kvs) ->
            List.filter_map (function k, Json.Str v -> Some (k, v) | _ -> None) kvs
          | _ -> []
        in
        Ok { sname; ts_ns; dur_ns; attrs }
      | _ -> Error "span: missing name/ts_ns/dur_ns"
    end

  (* Stitched multi-process view: each (label, spans) pair becomes its
     own pid lane, named by a process_name metadata event, so a router
     plus its workers render as parallel flame rows in Perfetto /
     chrome://tracing sharing one time axis. *)
  let to_chrome_json_lanes lanes =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[";
    let first = ref true in
    let emit line =
      if !first then (Buffer.add_string buf "\n"; first := false)
      else Buffer.add_string buf ",\n";
      Buffer.add_string buf line
    in
    List.iteri
      (fun lane (label, spans) ->
        let pid = lane + 1 in
        emit
          (Printf.sprintf
             "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 1, \
              \"args\": {\"name\": \"%s\"}}"
             pid (json_escape label));
        List.iter
          (fun s ->
            let b = Buffer.create 128 in
            Buffer.add_string b
              (Printf.sprintf
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 1, \
                  \"ts\": %.3f, \"dur\": %.3f"
                 (json_escape s.sname) pid
                 (float_of_int s.ts_ns /. 1e3)
                 (float_of_int s.dur_ns /. 1e3));
            if s.attrs <> [] then begin
              Buffer.add_string b ", \"args\": {";
              List.iteri
                (fun j (k, v) ->
                  if j > 0 then Buffer.add_string b ", ";
                  Buffer.add_string b
                    (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
                s.attrs;
              Buffer.add_string b "}"
            end;
            Buffer.add_string b "}";
            emit (Buffer.contents b))
          spans)
      lanes;
    Buffer.add_string buf "\n]\n";
    Buffer.contents buf
end
