(* The serving layer: wire protocol, sessions over sockets, the
   prepared-query plan cache, request deadlines, framing guards. *)

module Protocol = Coral_server.Protocol
module Plan_cache = Coral_server.Plan_cache
module Session = Coral_server.Session
module Server = Coral_server.Server
module Query_log = Coral_obs.Query_log
module Json = Coral_obs.Json

let paths_program =
  "edge(1, 2). edge(2, 3). edge(3, 4).\n\
   module paths.\n\
   export path(bf).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
   end_module.\n"

(* Transitive closure with rewriting off: the rewritten program is the
   source program (plus the base-facts bridge), so every per-rule
   number in an [explain analyze] report can be computed by hand. *)
let tcraw_program =
  "edge(1, 2). edge(2, 3). edge(3, 4).\n\
   module tcraw.\n\
   export tc(ff).\n\
   @no_rewriting.\n\
   tc(X, Y) :- edge(X, Y).\n\
   tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
   end_module.\n"

let nats_program =
  "module nats.\n\
   export nat(f).\n\
   nat(0).\n\
   nat(Y) :- nat(X), Y = X + 1.\n\
   end_module.\n"

(* ------------------------------------------------------------------ *)
(* Socket test client                                                  *)
(* ------------------------------------------------------------------ *)

(* single-line [consult] needs real spaces, not one_line's "; " *)
let flat = String.map (fun c -> if c = '\n' then ' ' else c)

type client = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

(* One request/reply exchange: payload lines, then the status line. *)
let request c line =
  send c line;
  let rec go acc =
    match In_channel.input_line c.ic with
    | None -> List.rev acc, "<closed>"
    | Some l when Protocol.is_status l -> List.rev acc, l
    | Some l -> go (l :: acc)
  in
  go []

let start_server () =
  Server.start ~listen:(`Tcp ("127.0.0.1", 0)) (Coral.create ())

let check_prefix what prefix got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what got prefix)
    true
    (String.starts_with ~prefix got)

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  let is_req line expected =
    match Protocol.parse_request line with
    | `Req r -> r = expected
    | _ -> false
  in
  Alcotest.(check bool) "query" true (is_req "query path(1, Y)" (Protocol.Query "path(1, Y)"));
  Alcotest.(check bool) "trim" true (is_req "  ping \r" Protocol.Ping);
  Alcotest.(check bool) "timeout" true (is_req "timeout 250" (Protocol.Set_timeout 250));
  Alcotest.(check bool) "consult payload" true
    (Protocol.parse_request "consult# 42" = `Consult_payload 42);
  let is_bad line = match Protocol.parse_request line with `Bad _ -> true | _ -> false in
  Alcotest.(check bool) "unknown command" true (is_bad "frobnicate 1");
  Alcotest.(check bool) "empty" true (is_bad "");
  Alcotest.(check bool) "negative timeout" true (is_bad "timeout -5");
  Alcotest.(check bool) "stats with arg" true (is_bad "stats now");
  Alcotest.(check bool) "query without arg" true (is_bad "query");
  Alcotest.check Alcotest.string "one_line collapses" "a; b c"
    (Protocol.one_line "a\nb\tc");
  let buf = Buffer.create 64 in
  Protocol.render buf
    (Protocol.ok ~detail:"2 answers" [ Protocol.Raw "ans X = 1\n"; Protocol.Txt "note" ]);
  Alcotest.check Alcotest.string "render" "ans X = 1\ntxt note\nok 2 answers\n"
    (Buffer.contents buf);
  let buf = Buffer.create 64 in
  Protocol.render buf (Protocol.err Protocol.Parse "bad\nthing");
  Alcotest.check Alcotest.string "render err" "err PARSE bad; thing\n" (Buffer.contents buf)

(* The buffered line reader, over a socketpair: [feed] writes its
   chunks (each one write) and closes the writing end, unless [keep]. *)
let with_reader ?(keep = false) chunks f =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            List.iter
              (fun c -> ignore (Unix.write_substring w c 0 (String.length c)))
              chunks;
            if not keep then Unix.shutdown w Unix.SHUTDOWN_SEND)
          ()
      in
      let out = f (Protocol.reader r) in
      Thread.join writer;
      out)

let test_line_reader () =
  let lines rd =
    let rec go acc =
      match Protocol.read_line rd with None -> List.rev acc | Some l -> go (l :: acc)
    in
    go []
  in
  let cap = Protocol.max_line_bytes in
  let at_cap = String.make cap 'a' in
  Alcotest.(check (list int)) "a line of exactly the cap, then the next" [ cap; 4 ]
    (with_reader [ at_cap ^ "\nping\n" ] (fun rd -> List.map String.length (lines rd)));
  Alcotest.(check bool) "one byte past the cap" true
    (with_reader [ at_cap ^ "b\n" ] (fun rd ->
         match Protocol.read_line rd with
         | _ -> false
         | exception Protocol.Line_too_long -> true));
  Alcotest.(check bool) "past the cap with no LF yet" true
    (with_reader ~keep:true [ at_cap; "bb" ] (fun rd ->
         match Protocol.read_line rd with
         | _ -> false
         | exception Protocol.Line_too_long -> true));
  (* a refused line is read through its LF, as a channel's 64 KiB
     blocks would have read it: the server then closes after err TOOBIG
     with nothing unread, which would reset the connection under the
     reply *)
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) (fun () ->
      let line = at_cap ^ "b\n" in
      Alcotest.(check int) "the whole line is queued" (String.length line)
        (Unix.write_substring w line 0 (String.length line));
      Alcotest.(check bool) "refused" true
        (match Protocol.read_line (Protocol.reader r) with
        | _ -> false
        | exception Protocol.Line_too_long -> true);
      let readable, _, _ = Unix.select [ r ] [] [] 0. in
      Alcotest.(check int) "nothing left unread" 0 (List.length readable));
  Alcotest.(check (list string)) "a CR before LF is stripped, no other"
    [ "ok done"; "a\rb"; ""; "last" ]
    (with_reader [ "ok done\r\na\rb\n\r\nlast\r" ] lines);
  Alcotest.(check (list string)) "EOF mid-line yields the partial line" [ "one"; "partial" ]
    (with_reader [ "one\npartial" ] lines);
  Alcotest.(check (list string)) "a payload in the same read as its line"
    [ "consult# 12"; "edge(1, 2).\n"; "ping" ]
    (with_reader [ "consult# 12\nedge(1, 2).\nping\n" ] (fun rd ->
         let l = Option.get (Protocol.read_line rd) in
         let payload = Protocol.read_exact rd 12 in
         l :: payload :: lines rd));
  Alcotest.(check (list string)) "a binary payload spanning reads"
    [ "delta# 5"; "\000\n\r\255x"; "ok" ]
    (with_reader [ "delta# 5\n\000\n"; "\r\255"; "xok\n" ] (fun rd ->
         let l = Option.get (Protocol.read_line rd) in
         let payload = Protocol.read_exact rd 5 in
         l :: payload :: lines rd));
  Alcotest.(check bool) "a payload cut short is End_of_file" true
    (with_reader [ "abc" ] (fun rd ->
         match Protocol.read_exact rd 4 with _ -> false | exception End_of_file -> true));
  let reply = "ans X = 1\ntxt note\nok 2 answers\n" in
  Alcotest.(check (list string)) "a reply in 1-byte writes"
    [ "ans X = 1"; "txt note"; "ok 2 answers" ]
    (with_reader (List.init (String.length reply) (fun i -> String.make 1 reply.[i])) lines);
  (* rows with embedded CR/LF print as one line, byte for byte as
     before; rows without stay as they are *)
  let block = Buffer.create 64 in
  List.iter
    (fun row ->
      Buffer.add_string block "ans ";
      let start = Buffer.length block in
      Buffer.add_string block row;
      Protocol.one_line_from block start;
      Buffer.add_char block '\n')
    [ "X = \"a\r\nb\"\r\n"; "Y = 1" ];
  let buf = Buffer.create 64 in
  Protocol.render buf
    (Protocol.ok ~detail:"2 answers\r\nmore"
       [ Protocol.Raw (Buffer.contents block); Protocol.Txt "\nx\ty\r" ]);
  Alcotest.check Alcotest.string "render golden"
    "ans X = \"a; b\"\nans Y = 1\ntxt x y\nok 2 answers; more\n" (Buffer.contents buf);
  let row = "X = 1, Y = 2" in
  Alcotest.(check bool) "one_line returns a clean row itself" true (Protocol.one_line row == row)

(* ------------------------------------------------------------------ *)
(* Concurrent clients over TCP                                         *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  (* both clients consult the same module, then interleave queries *)
  let failures = Mutex.create () in
  let failed = ref [] in
  let client_run id =
    try
      let c = connect srv in
      let _, status = request c ("consult " ^ flat paths_program) in
      if not (String.starts_with ~prefix:"ok" status) then
        failwith ("consult: " ^ status);
      for _ = 1 to 20 do
        let answers, status = request c "query path(1, Y)" in
        if not (String.starts_with ~prefix:"ok 3 answers" status) then
          failwith ("query status: " ^ status);
        if List.sort compare answers <> [ "ans Y = 2"; "ans Y = 3"; "ans Y = 4" ] then
          failwith ("query answers: " ^ String.concat "|" answers)
      done;
      ignore (request c "quit");
      close c
    with e ->
      Mutex.lock failures;
      failed := Printf.sprintf "client %d: %s" id (Printexc.to_string e) :: !failed;
      Mutex.unlock failures
  in
  let threads = List.init 2 (fun id -> Thread.create client_run id) in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no client failures" [] !failed

(* ------------------------------------------------------------------ *)
(* The prepared-query plan cache                                       *)
(* ------------------------------------------------------------------ *)

let paths_module =
  "module paths.\n\
   export path(bf).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
   end_module.\n"

let test_plan_cache_unit () =
  let db = Coral.create () in
  Coral.consult_text db paths_program;
  let cache = Plan_cache.create () in
  let tag_of text =
    match Plan_cache.prepare cache db text with
    | Ok (_, tag, _) -> tag
    | Error _ -> Alcotest.fail "unexpected parse error"
  in
  (* the exported form was planned when the module loaded *)
  Alcotest.(check bool) "exported form hits" true (tag_of "path(1, Y)" = `Hit);
  (* different constants, same adorned form *)
  Alcotest.(check bool) "same adornment hits" true (tag_of "path(2, Y)" = `Hit);
  (* different adornment is a new form *)
  Alcotest.(check bool) "new adornment misses" true (tag_of "path(X, Y)" = `Miss);
  Alcotest.(check bool) "then hits" true (tag_of "path(Z, W)" = `Hit);
  (* base-relation queries have nothing to prepare *)
  Alcotest.(check bool) "base query unplanned" true (tag_of "edge(1, Y)" = `Unplanned);
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "parsed entries" 5 s.Plan_cache.parsed_entries;
  Alcotest.(check int) "hits" 3 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "unplanned" 1 s.Plan_cache.unplanned;
  (* a fact replans nothing; reloading the module replans its forms *)
  Coral.consult_text db "edge(4, 5).";
  Alcotest.(check bool) "fact keeps the plan" true (tag_of "path(X, Y)" = `Hit);
  Coral.consult_text db paths_module;
  Alcotest.(check bool) "reload re-misses" true (tag_of "path(X, Y)" = `Miss);
  Alcotest.(check bool) "reload planned the export" true (tag_of "path(1, Y)" = `Hit)

let stats_line c prefix =
  let lines, _ = request c "stats" in
  match
    List.find_opt (fun l -> String.starts_with ~prefix:("txt " ^ prefix) l) lines
  with
  | Some l -> l
  | None -> Alcotest.fail ("no stats line with prefix " ^ prefix)

(* Named counters of one [stats] reply, as "name=value" space-joined. *)
let stats_of c names =
  let lines, _ = request c "stats" in
  List.map
    (fun name ->
      let prefix = "txt " ^ name ^ "=" in
      match List.find_opt (fun l -> String.starts_with ~prefix l) lines with
      | Some l -> String.sub l 4 (String.length l - 4)
      | None -> Alcotest.fail ("no stats line " ^ prefix))
    names
  |> String.concat " "

let prepared_stats c = stats_of c [ "prepared.hits"; "prepared.misses" ]

let test_plan_cache_over_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  (* the module load planned its export *)
  let _, status = request c "query path(1, Y)" in
  check_prefix "exported form" "ok 3 answers (plan cache: hit)" status;
  let _, status = request c "query path(X, Y)" in
  check_prefix "new form" "ok 6 answers (plan cache: miss)" status;
  let _, status = request c "query path(X, Y)" in
  check_prefix "repeated form" "ok 6 answers (plan cache: hit)" status;
  Alcotest.check Alcotest.string "prepared stats after hit"
    "prepared.hits=2 prepared.misses=1" (prepared_stats c);
  (* a consulted fact replans nothing *)
  let _, status = request c "consult edge(4, 5)." in
  check_prefix "consult a fact" "ok" status;
  let _, status = request c "query path(X, Y)" in
  check_prefix "after the fact" "ok 10 answers (plan cache: hit)" status;
  (* reloading the module replans only its forms *)
  let _, status = request c ("consult " ^ flat paths_module) in
  check_prefix "consult the module" "ok" status;
  let _, status = request c "query path(X, Y)" in
  check_prefix "replanned form" "ok 10 answers (plan cache: miss)" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "export planned at load" "ok 4 answers (plan cache: hit)" status;
  Alcotest.check Alcotest.string "prepared stats after the reload"
    "prepared.hits=4 prepared.misses=2" (prepared_stats c);
  ignore (request c "quit");
  close c

(* An answer prints a double losslessly: the shortest text that reads
   back to it, with a point, so 2.0 and 2 stay apart. *)
(* Rows print straight into the reply, and each stays one protocol
   line with the bytes an [ans] item of its text rendered as: an opaque
   value whose printer emits newlines, CR, NUL and tabs, a symbol with
   control and non-ASCII bytes, and a string with CR, NUL and non-ASCII
   bytes (strings print escaped).  The expected replies are recorded
   from the interpreter-backed answer path that preceded this one. *)
exception Blob of string

let test_control_bytes_one_line () =
  let blob =
    Coral.define_type ~name:"blob"
      ~compare:(fun a b -> match a, b with Blob x, Blob y -> compare x y | _ -> assert false)
      ~print:(fun ppf -> function Blob s -> Format.pp_print_string ppf s | _ -> assert false)
      ()
  in
  let db = Coral.create () in
  Coral.facts db "v"
    [ [ Coral.int 1; blob (Blob "\nlead\r\nb\x00l\tob\n") ];
      [ Coral.int 2; Coral.str "a\r\nb\x00c\xc3\xa9" ];
      [ Coral.int 3; Coral.atom "x\ry\x00z\xe2\x82\xac" ];
      [ Coral.int 4; Coral.atom "plain" ];
      [ Coral.int 5; blob (Blob "\n\n") ]
    ];
  let s = Session.create (Session.make_store db) in
  List.iter
    (fun (q, want) ->
      let buf = Buffer.create 256 in
      Protocol.render buf (Session.handle s (Protocol.Query q));
      Alcotest.(check string) q want (Buffer.contents buf))
    [ ( "v(K, X)",
        "ans K = 1, X = ; lead; b l ob\nans K = 2, X = \"a\\r\\nb\\000c\\195\\169\"\nans K = 3, X = \
         xy z\226\130\172\nans K = 4, X = plain\nans K = 5, X = \nok 5 answers\n" );
      "v(2, X)", "ans X = \"a\\r\\nb\\000c\\195\\169\"\nok 1 answer\n";
      ( "v(K, X), K < 4",
        "ans K = 1, X = ; lead; b l ob\nans K = 2, X = \"a\\r\\nb\\000c\\195\\169\"\nans K = 3, X = \
         xy z\226\130\172\nok 3 answers\n" );
      ( "v(K, X), v(K, Y)",
        "ans K = 1, X = ; lead; b l ob; , Y = ; lead; b l ob\nans K = 2, X = \
         \"a\\r\\nb\\000c\\195\\169\", Y = \"a\\r\\nb\\000c\\195\\169\"\nans K = 3, X = \
         xy z\226\130\172, Y = xy z\226\130\172\nans K = 4, X = plain, Y = plain\nans K = 5, X = ; , \
         Y = \nok 5 answers\n" )
    ]

let test_doubles_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c "consult m(1.0000001). m(2.0). m(2). m(123456789.5)." in
  check_prefix "consult" "ok" status;
  let lines, status = request c "query m(X)" in
  check_prefix "query" "ok 4 answers" status;
  Alcotest.(check (list string)) "lossless answers"
    [ "ans X = 1.0000001"; "ans X = 2.0"; "ans X = 2"; "ans X = 123456789.5" ]
    lines;
  ignore (request c "quit");
  close c

(* Plans belong to the rules: 50 maintained insert/retract commits, each
   followed by the read that must show it, plan nothing. *)
let test_plans_survive_commits () =
  let db = Coral.create () in
  Coral.Engine.set_maintenance (Coral.engine db) true;
  let srv = Server.start ~listen:(`Tcp ("127.0.0.1", 0)) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "warm read" "ok 3 answers" status;
  let counters = [ "plans.misses"; "prepared.misses" ] in
  let before = stats_of c counters in
  for i = 1 to 25 do
    let _, status = request c "insert edge(4, 5)." in
    check_prefix (Printf.sprintf "insert %d" i) "ok inserted 1" status;
    let _, status = request c "query path(1, Y)" in
    check_prefix (Printf.sprintf "read after insert %d" i) "ok 4 answers (plan cache: hit)"
      status;
    let _, status = request c "retract edge(4, 5)." in
    check_prefix (Printf.sprintf "retract %d" i) "ok retracted 1" status;
    let _, status = request c "query path(1, Y)" in
    check_prefix (Printf.sprintf "read after retract %d" i) "ok 3 answers (plan cache: hit)"
      status
  done;
  Alcotest.check Alcotest.string "no form planned across 50 commits" before (stats_of c counters);
  ignore (request c "quit");
  close c

(* ------------------------------------------------------------------ *)
(* explain analyze and the metrics exposition                          *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let strip_txt l =
  if String.starts_with ~prefix:"txt " l then String.sub l 4 (String.length l - 4) else l

let test_explain_analyze_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat tcraw_program) in
  check_prefix "consult tcraw" "ok" status;
  let lines, status = request c "explain analyze tc(X, Y)" in
  check_prefix "explain analyze status" "ok" status;
  let lines = List.map strip_txt lines in
  (* pair each counts line with the rule text printed after it *)
  let rec rule_counts = function
    | counts :: rule :: rest when String.starts_with ~prefix:"  [" counts ->
      (String.trim rule, String.trim counts) :: rule_counts rest
    | _ :: rest -> rule_counts rest
    | [] -> []
  in
  let rules = rule_counts lines in
  Alcotest.(check int) "three rules (two source + base bridge)" 3 (List.length rules);
  let counts_of rule =
    match List.assoc_opt rule rules with
    | Some c -> c
    | None ->
      Alcotest.fail
        (Printf.sprintf "no profile for rule %S in: %s" rule (String.concat " | " lines))
  in
  (* hand computation on the chain 1-2-3-4: the exit rule fires once
     per edge; the recursive rule derives (1,3), (2,4) from the round-1
     delta and (1,4) from the round-2 delta; the bridge rule has no
     base tc facts to pull *)
  Alcotest.(check bool) "exit rule: 3 attempts, 3 derived" true
    (contains "attempts=3 derived=3 dup=0" (counts_of "tc(X, Y) :- edge(X, Y)."));
  Alcotest.(check bool) "recursive rule: 3 attempts, 3 derived" true
    (contains "attempts=3 derived=3 dup=0" (counts_of "tc(X, Y) :- edge(X, Z), tc(Z, Y)."));
  Alcotest.(check bool) "bridge rule: nothing derived" true
    (contains "attempts=0 derived=0 dup=0" (counts_of "tc(B0, B1) :- tc@base(B0, B1)."));
  (* semi-naive deltas: 3 exit-rule facts, then 2, then 1 *)
  let steps =
    match List.find_opt (fun l -> String.starts_with ~prefix:"steps:" l) lines with
    | Some l -> l
    | None -> Alcotest.fail "no steps line"
  in
  Alcotest.(check bool) "delta trail 3 2 1" true (contains "deltas: 0 0 0 0 3 2 1" steps);
  (* the acceptance invariant: the per-rule derivation counts sum to
     the engine's own insert accounting, computed independently *)
  let derivations =
    match List.find_opt (fun l -> String.starts_with ~prefix:"derivations:" l) lines with
    | Some l -> l
    | None -> Alcotest.fail "no derivations line"
  in
  let from_rules, from_engine =
    Scanf.sscanf derivations "derivations: rules=%d engine=%d" (fun a b -> a, b)
  in
  Alcotest.(check int) "rule profiles sum to 6 derivations" 6 from_rules;
  Alcotest.(check int) "engine accounting agrees" from_rules from_engine;
  (match List.find_opt (fun l -> String.starts_with ~prefix:"answers:" l) lines with
  | Some l -> check_prefix "answer count" "answers: 6 matching of 6 stored" l
  | None -> Alcotest.fail "no answers line");
  (* tuples visited, by hand: the exit rule scans the 3 edges; each of
     the 3 recursive rounds scans them again and probes the tc delta by
     Z, finding (2,3) and (3,4) in round 1, (2,4) in round 2, nothing in
     round 3: 3 + 5 + 4 + 3 *)
  (match List.find_opt (fun l -> String.starts_with ~prefix:"tuples_visited:" l) lines with
  | Some l -> Alcotest.(check string) "tuples visited" "tuples_visited: 15" l
  | None -> Alcotest.fail "no tuples_visited line");
  (* running it again must reset the profile, not accumulate: the plan
     (and compiled module) is reused from the cache *)
  let lines2, status = request c "explain analyze tc(X, Y)" in
  check_prefix "second explain analyze" "ok" status;
  let lines2 = List.map strip_txt lines2 in
  let again =
    match List.find_opt (fun l -> String.starts_with ~prefix:"derivations:" l) lines2 with
    | Some l -> l
    | None -> Alcotest.fail "no derivations line on rerun"
  in
  Alcotest.(check bool) "rerun re-counts from zero" true
    (contains "rules=6 engine=6" again);
  (* malformed queries come back as errors, not dead sessions *)
  let _, status = request c "explain analyze" in
  check_prefix "missing query" "err PROTO" status;
  let _, status = request c "explain analyze tc(X, Y), tc(Y, Z)" in
  check_prefix "conjunction rejected" "err EVAL" status;
  ignore (request c "quit");
  close c

let test_metrics_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "query" "ok" status;
  let lines, status = request c "metrics" in
  check_prefix "metrics status" "ok" status;
  let text = String.concat "\n" (List.map strip_txt lines) in
  Alcotest.(check bool) "request counter" true
    (contains "# TYPE coral_server_requests counter" text);
  Alcotest.(check bool) "request latency histogram" true
    (contains "# TYPE coral_server_request_seconds histogram" text);
  Alcotest.(check bool) "query latency histogram" true
    (contains "# TYPE coral_server_query_seconds histogram" text);
  Alcotest.(check bool) "engine counters ride along" true
    (contains "coral_engine_derivations" text);
  Alcotest.(check bool) "tuples visited rides along" true
    (contains "coral_engine_tuples_visited" text);
  Alcotest.(check bool) "build info with version and ocaml labels" true
    (contains "coral_build_info{version=" text && contains "ocaml=" text);
  Alcotest.(check bool) "process start time gauge" true
    (contains "coral_process_start_time_seconds" text);
  Alcotest.(check bool) "uptime gauge" true (contains "coral_process_uptime_seconds" text);
  Alcotest.(check bool) "active query gauge" true
    (contains "# TYPE coral_server_active_queries gauge" text);
  Alcotest.(check bool) "session gauge" true
    (contains "# TYPE coral_server_sessions gauge" text);
  (* this connection is open, so the session gauge reads at least 1 *)
  Alcotest.(check bool) "session gauge counts this connection" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"coral_server_sessions " l
         &&
         match int_of_string_opt (String.trim (String.sub l 21 (String.length l - 21))) with
         | Some n -> n >= 1
         | None -> false)
       (String.split_on_char '\n' text));
  ignore (request c "quit");
  close c

(* The --metrics-port listener end to end: a plain HTTP GET gets a 200
   text/plain reply whose body is the same Prometheus exposition. *)
let test_metrics_http () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let mh =
    Coral_server.Metrics_http.start ~port:0 (fun () ->
        Session.metrics_text (Server.store srv))
  in
  Fun.protect ~finally:(fun () -> Coral_server.Metrics_http.stop mh) @@ fun () ->
  let fetch path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Coral_server.Metrics_http.port mh));
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    output_string oc (Printf.sprintf "GET %s HTTP/1.0\r\nHost: test\r\n\r\n" path);
    flush oc;
    let buf = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Buffer.contents buf
  in
  let reply = fetch "/metrics" in
  check_prefix "status line" "HTTP/1.0 200 OK" reply;
  Alcotest.(check bool) "prometheus content type" true
    (contains "Content-Type: text/plain; version=0.0.4" reply);
  Alcotest.(check bool) "query latency histogram in body" true
    (contains "# TYPE coral_server_query_seconds histogram" reply);
  (* Content-Length must match the body exactly *)
  let content_length r =
    String.split_on_char '\n' r
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"Content-Length: " l then
             int_of_string_opt (String.trim (String.sub l 16 (String.length l - 16)))
           else None)
  in
  let body_of r =
    let rec find i =
      if i + 4 > String.length r then ""
      else if String.sub r i 4 = "\r\n\r\n" then
        String.sub r (i + 4) (String.length r - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (match content_length reply with
  | Some n -> Alcotest.(check int) "content-length matches body" n (String.length (body_of reply))
  | None -> Alcotest.fail "no Content-Length header on 200");
  (* the scraper's default path and curl's bare URL both work *)
  check_prefix "root path too" "HTTP/1.0 200 OK" (fetch "/");
  check_prefix "query string ignored" "HTTP/1.0 200 OK" (fetch "/metrics?format=text");
  (* unknown paths get a well-formed 404, with Content-Length *)
  let missing = fetch "/nope" in
  check_prefix "unknown path is 404" "HTTP/1.0 404 Not Found" missing;
  (match content_length missing with
  | Some n -> Alcotest.(check int) "404 content-length" n (String.length (body_of missing))
  | None -> Alcotest.fail "no Content-Length header on 404");
  (* GET /healthz: 200 ok while healthy, 503 with the reason once the
     health callback reports degradation, 200 again on recovery *)
  Alcotest.(check bool) "healthz default is 200 ok" true
    (let r = fetch "/healthz" in
     String.starts_with ~prefix:"HTTP/1.0 200 OK" r && contains "ok" (body_of r))

let test_metrics_http_healthz () =
  let degraded = ref None in
  let mh =
    Coral_server.Metrics_http.start ~port:0
      ~health:(fun () ->
        match !degraded with None -> `Ok | Some r -> `Degraded r)
      (fun () -> "noop 1\n")
  in
  Fun.protect ~finally:(fun () -> Coral_server.Metrics_http.stop mh) @@ fun () ->
  let fetch path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Coral_server.Metrics_http.port mh));
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    output_string oc (Printf.sprintf "GET %s HTTP/1.0\r\nHost: test\r\n\r\n" path);
    flush oc;
    let buf = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Buffer.contents buf
  in
  check_prefix "healthy is 200" "HTTP/1.0 200 OK" (fetch "/healthz");
  Alcotest.(check bool) "healthy body says ok" true (contains "\r\n\r\nok" (fetch "/healthz"));
  degraded := Some "event sink stalled";
  let sick = fetch "/healthz" in
  check_prefix "degraded is 503" "HTTP/1.0 503 Service Unavailable" sick;
  Alcotest.(check bool) "degraded body carries the reason" true
    (contains "degraded event sink stalled" sick);
  (* a crashing health callback reads as degraded, never as a 200 *)
  degraded := None;
  check_prefix "recovery is 200 again" "HTTP/1.0 200 OK" (fetch "/healthz")

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult paths" "ok" status;
  let _, status = request c ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  let _, status = request c "timeout 100" in
  check_prefix "set timeout" "ok" status;
  (* an unbounded derivation must come back as a timeout error, within
     the deadline plus scheduling slack *)
  let t0 = Unix.gettimeofday () in
  let _, status = request c "query nat(X)" in
  let dt = Unix.gettimeofday () -. t0 in
  check_prefix "unbounded query times out" "err TIMEOUT" status;
  Alcotest.(check bool) (Printf.sprintf "cancelled promptly (%.3fs)" dt) true (dt < 5.0);
  (* the session and the server survive the cancellation *)
  let _, status = request c "timeout 0" in
  check_prefix "clear timeout" "ok" status;
  let answers, status = request c "query path(1, Y)" in
  check_prefix "server still serves" "ok 3 answers" status;
  Alcotest.(check int) "still correct" 3 (List.length answers);
  let c2 = connect srv in
  let _, status = request c2 "ping" in
  check_prefix "new connections accepted" "ok pong" status;
  ignore (request c2 "quit");
  close c2;
  ignore (request c "quit");
  close c

(* ------------------------------------------------------------------ *)
(* Live query introspection: ps and kill                               *)
(* ------------------------------------------------------------------ *)

(* One connection runs an unbounded recursive query; a second
   connection must still get served (session creation and ps/kill are
   answered without the engine lock), see the query make progress, and
   cancel it — after which the victim's session keeps working. *)
let test_ps_kill () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let victim = connect srv in
  let operator = connect srv in
  let _, status = request victim ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  (* fire the unbounded query; its reply is read only after the kill *)
  send victim "query nat(X)";
  let field name line =
    String.split_on_char ' ' line
    |> List.find_map (fun tok ->
           let p = name ^ "=" in
           if String.starts_with ~prefix:p tok then
             int_of_string_opt
               (String.sub tok (String.length p) (String.length tok - String.length p))
           else None)
  in
  let ps_lines () =
    let lines, status = request operator "ps" in
    check_prefix "ps status" "ok" status;
    List.map strip_txt lines
  in
  (* poll until the query is listed with at least two iterations *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_running () =
    if Unix.gettimeofday () > deadline then Alcotest.fail "query never showed in ps";
    let line =
      List.find_opt
        (fun l -> contains "kind=query" l && contains "query=nat(X)" l)
        (ps_lines ())
    in
    match line with
    | Some l when (match field "iter" l with Some n -> n >= 2 | None -> false) -> l
    | _ ->
      Thread.delay 0.02;
      wait_running ()
  in
  let line = wait_running () in
  let qid =
    match field "id" line with
    | Some id -> id
    | None -> Alcotest.fail ("no id in ps line: " ^ line)
  in
  let iter0 = Option.get (field "iter" line) in
  Thread.delay 0.05;
  (* the published iteration counter never goes backwards *)
  (match
     List.find_opt
       (fun l -> String.starts_with ~prefix:(Printf.sprintf "id=%d " qid) l)
       (ps_lines ())
   with
  | Some l ->
    Alcotest.(check bool)
      (Printf.sprintf "iterations non-decreasing (%d then %d)" iter0
         (Option.value ~default:(-1) (field "iter" l)))
      true
      (match field "iter" l with Some n -> n >= iter0 | None -> false)
  | None -> Alcotest.fail "query vanished from ps before kill");
  let _, status = request operator (Printf.sprintf "kill %d" qid) in
  check_prefix "kill acknowledged" "ok kill signalled" status;
  (* the victim's pending reply must be err KILLED, promptly *)
  let t0 = Unix.gettimeofday () in
  let rec read_status () =
    match In_channel.input_line victim.ic with
    | None -> Alcotest.fail "victim connection closed instead of replying"
    | Some l when Protocol.is_status l -> l
    | Some _ -> read_status ()
  in
  let status = read_status () in
  let dt = Unix.gettimeofday () -. t0 in
  check_prefix "victim reply" "err KILLED" status;
  Alcotest.(check bool) (Printf.sprintf "killed promptly (%.3fs)" dt) true (dt < 5.0);
  (* the victim's session survives its query being killed *)
  let _, status = request victim "ping" in
  check_prefix "victim session alive" "ok pong" status;
  let _, status = request victim ("consult " ^ flat paths_program) in
  check_prefix "victim still consults" "ok" status;
  let answers, status = request victim "query path(1, Y)" in
  check_prefix "victim still evaluates" "ok 3 answers" status;
  Alcotest.(check int) "bounded answers" 3 (List.length answers);
  (* killing the finished query is a clean error, not a crash *)
  let _, status = request operator (Printf.sprintf "kill %d" qid) in
  check_prefix "stale kill" "err EVAL" status;
  ignore (request victim "quit");
  close victim;
  ignore (request operator "quit");
  close operator

(* ------------------------------------------------------------------ *)
(* The structured event log over the wire                              *)
(* ------------------------------------------------------------------ *)

let test_events_wire () =
  Query_log.Events.reset ();
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "query" "ok" status;
  let lines, status = request c "events 10" in
  check_prefix "events status" "ok" status;
  let lines = List.map strip_txt lines in
  Alcotest.(check bool) "consult and query both logged" true (List.length lines >= 2);
  (* every event line round-trips through the JSON parser *)
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok j ->
        Alcotest.(check bool) "has ts" true (Json.member "ts" j <> None);
        Alcotest.(check bool) "has kind" true (Json.member "kind" j <> None)
      | Error e -> Alcotest.fail (Printf.sprintf "unparseable event %S: %s" l e))
    lines;
  (* the newest entry is the query completion with its numbers *)
  (match Json.parse (List.nth lines (List.length lines - 1)) with
  | Ok j ->
    Alcotest.(check bool) "kind query" true (Json.member "kind" j = Some (Json.Str "query"));
    Alcotest.(check bool) "outcome ok" true (Json.member "outcome" j = Some (Json.Str "ok"));
    Alcotest.(check bool) "row count" true (Json.member "rows" j = Some (Json.Int 3));
    Alcotest.(check bool) "query text" true
      (Json.member "query" j = Some (Json.Str "path(1, Y)"));
    Alcotest.(check bool) "latency present" true (Json.member "latency_ms" j <> None)
  | Error e -> Alcotest.fail ("bad completion event: " ^ e));
  (* default count and argument validation *)
  let _, status = request c "events" in
  check_prefix "bare events" "ok" status;
  let _, status = request c "events nope" in
  check_prefix "bad count" "err PROTO" status;
  ignore (request c "quit");
  close c

(* ------------------------------------------------------------------ *)
(* why over the wire: explanations instead of errors                   *)
(* ------------------------------------------------------------------ *)

let test_why_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  let explained what req needle =
    let lines, status = request c req in
    check_prefix (what ^ " status") "ok" status;
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S in: %s" what needle (String.concat " | " lines))
      true
      (List.exists (fun l -> contains needle (strip_txt l)) lines)
  in
  explained "derived fact" "why path(1, 3)" "edge(1, 2)";
  explained "base fact" "why edge(1, 2)" "is a base fact";
  explained "unmatched base" "why edge(9, 9)" "no derivation:";
  explained "unknown predicate" "why mystery(1)" "nothing known about mystery/1";
  explained "non-answer" "why path(4, 1)" "no derivation:";
  ignore (request c "quit");
  close c

(* ------------------------------------------------------------------ *)
(* Malformed and oversized requests                                    *)
(* ------------------------------------------------------------------ *)

let test_malformed_requests () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c "frobnicate the database" in
  check_prefix "unknown command" "err PROTO" status;
  let _, status = request c "query path(1," in
  check_prefix "parse failure" "err PARSE" status;
  let _, status = request c "insert path(X, Y) :- edge(X, Y)." in
  check_prefix "insert of a rule" "err PARSE" status;
  let _, status = request c "timeout lots" in
  check_prefix "bad timeout" "err PROTO" status;
  (* the connection survives all of the above *)
  let _, status = request c "ping" in
  check_prefix "still alive" "ok pong" status;
  ignore (request c "quit");
  close c

let test_oversized_requests () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  (* a consult# payload over the limit is refused *)
  let c = connect srv in
  let _, status = request c (Printf.sprintf "consult# %d" (Protocol.max_payload_bytes + 1)) in
  check_prefix "oversized payload refused" "err TOOBIG" status;
  close c;
  (* an unterminated megabyte line is refused without buffering it all *)
  let c = connect srv in
  let big = String.make (Protocol.max_line_bytes + 100) 'a' in
  let _, status = request c ("query " ^ big) in
  check_prefix "oversized line refused" "err TOOBIG" status;
  close c;
  (* a well-framed consult# payload of legal size works *)
  let c = connect srv in
  send c (Printf.sprintf "consult# %d" (String.length paths_program));
  output_string c.oc paths_program;
  flush c.oc;
  let rec status_line () =
    match In_channel.input_line c.ic with
    | None -> "<closed>"
    | Some l when Protocol.is_status l -> l
    | Some _ -> status_line ()
  in
  check_prefix "framed consult" "ok" (status_line ());
  let answers, status = request c "query path(1, Y)" in
  check_prefix "consulted program answers" "ok 3 answers" status;
  Alcotest.(check int) "three paths" 3 (List.length answers);
  ignore (request c "quit");
  close c

(* ------------------------------------------------------------------ *)
(* Storage faults over the wire                                        *)
(* ------------------------------------------------------------------ *)

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* A checksum-corrupted page must come back as err IOERR — and the
   session, the connection and the server must all survive it. *)
let test_ioerr_keeps_serving () =
  let dir = tmpdir "srvioerr" in
  (* build a committed persistent relation, then corrupt one heap page *)
  let h = Coral.Persistent.open_ ~dir ~name:"edge" ~arity:2 () in
  let prel = Coral.Persistent.relation h in
  for i = 0 to 299 do
    ignore (Coral.Relation.insert_terms prel [| Coral.Term.int i; Coral.Term.int (i + 1) |])
  done;
  Coral.Persistent.close h;
  flip_byte (Filename.concat dir "edge.heap") (Coral_storage.Disk.page_offset 1 + 64);
  (* serve it: open quarantines the page, queries touching it fail *)
  let db = Coral.create () in
  let pdb = Coral.Database.open_ dir in
  Coral.install_relation db "edge" (Coral.Database.relation pdb ~name:"edge" ~arity:2 ());
  let srv = Server.start ~databases:[ pdb ] ~listen:(`Tcp ("127.0.0.1", 0)) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c "query edge(X, Y)" in
  check_prefix "corrupt page maps to IOERR" "err IOERR" status;
  (* same session keeps serving *)
  let _, status = request c "ping" in
  check_prefix "session alive after IOERR" "ok pong" status;
  let _, status = request c "consult good(1). good(2)." in
  check_prefix "consult still works" "ok" status;
  let answers, status = request c "query good(X)" in
  check_prefix "healthy relation serves" "ok 2 answers" status;
  Alcotest.(check int) "both answers" 2 (List.length answers);
  (* the fault is deterministic, not sticky-fatal *)
  let _, status = request c "query edge(X, Y)" in
  check_prefix "second probe still IOERR" "err IOERR" status;
  let _, status = request c "ping" in
  check_prefix "still alive" "ok pong" status;
  ignore (request c "quit");
  close c

(* Server shutdown must commit attached databases: inserts made over
   the wire survive into a fresh process with no explicit commit. *)
let test_shutdown_commits_databases () =
  let dir = tmpdir "srvcommit" in
  let db = Coral.create () in
  let pdb = Coral.Database.open_ dir in
  Coral.install_relation db "edge" (Coral.Database.relation pdb ~name:"edge" ~arity:2 ());
  let srv = Server.start ~databases:[ pdb ] ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let c = connect srv in
  let _, status = request c "insert edge(1, 2). edge(2, 3). edge(3, 4)." in
  check_prefix "inserted over the wire" "ok inserted 3" status;
  ignore (request c "quit");
  close c;
  Server.shutdown srv (* no explicit commit: shutdown must do it *);
  let pdb2 = Coral.Database.open_ dir in
  let rel = Coral.Database.relation pdb2 ~name:"edge" ~arity:2 () in
  Alcotest.(check int) "tuples durable after shutdown" 3 (Coral.Relation.cardinal rel);
  Coral.Database.close pdb2

(* ------------------------------------------------------------------ *)
(* Overload protection and graceful degradation                        *)
(* ------------------------------------------------------------------ *)

module Admission = Coral_server.Admission

let stats_value s prefix =
  let r = Session.handle s Protocol.Stats in
  let p = prefix ^ "=" in
  List.find_map
    (function
      | Protocol.Txt l when String.starts_with ~prefix:p l ->
        int_of_string_opt (String.sub l (String.length p) (String.length l - String.length p))
      | _ -> None)
    r.Protocol.payload

(* The bound-query serve path, pinned.  [query path(s, Y)] on a store
   without maintenance runs the rewritten fixpoint for every request;
   over a fixed 64-node ring with one chord per node, its work counters
   and its reply bytes are recorded values, so a change to the join
   kernel, the plan table or the compiled-module cache that changes
   what evaluation does shows here.  A served query looks its form up
   in the plan table once. *)
let serve_path_graph () =
  let n = 64 in
  let seed = ref 7 in
  let next bound =
    seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
    !seed mod bound
  in
  let name = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = next (i + 1) in
    let t = name.(i) in
    name.(i) <- name.(j);
    name.(j) <- t
  done;
  List.concat
    (List.init n (fun i -> [ name.(i), name.((i + 1) mod n); name.(i), name.(next n) ]))
  |> List.sort_uniq compare

let serve_path ~workers expected () =
  let store = Session.make_store (Coral.create ~workers ()) in
  let s = Session.create store in
  let facts =
    String.concat " "
      (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d)." a b) (serve_path_graph ()))
  in
  let program =
    "module paths. export path(bf). path(X, Y) :- edge(X, Y). \
     path(X, Y) :- edge(X, Z), path(Z, Y). end_module. " ^ facts
  in
  (match (Session.handle s (Protocol.Consult program)).Protocol.status with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.fail msg);
  let counters =
    [ "engine.derivations"; "engine.duplicates"; "engine.scans"; "engine.tuples_visited";
      "plans.hits"
    ]
  in
  let read () = List.map (fun c -> Option.get (stats_value s c)) counters in
  List.iter
    (fun (src, want) ->
      let before = read () in
      let r = Session.handle s (Protocol.Query (Printf.sprintf "path(%d, Y)" src)) in
      let after = read () in
      let buf = Buffer.create 1024 in
      Protocol.render buf r;
      let work = List.map2 ( - ) after before in
      Alcotest.(check string)
        (Printf.sprintf "path(%d, Y)" src)
        want
        (Printf.sprintf "%s %s"
           (String.concat "/" (List.map string_of_int work))
           (Digest.to_hex (Digest.string (Buffer.contents buf)))))
    expected

(* Work per request (derivations/duplicates/scans/tuples visited), then
   plan-table hits, and the reply's digest: sequential, and striped over
   four lanes (more scans, and the merge's insertion order). *)
let test_bound_serve_path =
  serve_path ~workers:1
    [ 0, "193/129/236/516/1 ea150b659c9b04a84eee72f28dc3ed9e";
      1, "193/129/236/516/1 3dcced95b3eec57ddd42c37e465af1e2";
      17, "193/129/236/516/1 526e935856fb3b2cf2229396d6d0f0b4";
      33, "193/129/236/516/1 6b1dcfed60c5d68ab524294b3b9baa83";
      63, "193/129/238/516/1 14b9f8f7bfc17b9d0d48335a6f77bed1"
    ]

let test_bound_serve_path_parallel =
  serve_path ~workers:4
    [ 0, "193/129/362/522/1 3add91790a9a7dc1d0c35689a0440ebd";
      1, "193/129/362/522/1 ec6b1d710713c582c8bd9fd14fbff113";
      17, "193/129/362/522/1 1c59236261b1c683b75cd1cce3a317c8";
      33, "193/129/362/522/1 ea2d324a161b92b0308e9981cfa5622b";
      63, "193/129/370/522/1 1f973d68a2a777e271846fd29d3140f1"
    ]

(* The accept loop must survive descriptor exhaustion: hoard fds until
   the process hits EMFILE, push a connection at the starved server,
   release the hoard, and the server must accept and serve again.  The
   point is loop survival, not shedding — a dead accept thread would
   fail the final ping no matter what was shed. *)
let test_accept_loop_survives_emfile () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c0 = connect srv in
  let _, status = request c0 "ping" in
  check_prefix "established before exhaustion" "ok pong" status;
  (* hoard descriptors until open fails with EMFILE *)
  let hoard = ref [] in
  let exhausted = ref false in
  (try
     for _ = 1 to 30_000 do
       hoard := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !hoard
     done
   with
  | Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> exhausted := true
  | Unix.Unix_error _ -> ());
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !hoard;
    hoard := []
  in
  Fun.protect ~finally:release @@ fun () ->
  if not !exhausted then
    (* the fd limit is out of reach (huge ulimit): nothing to test *)
    release ()
  else begin
    (* free exactly one descriptor for our client socket; the server's
       accept then hits EMFILE on this connection and must shed it (or
       serve it after the hoard is released), never die *)
    (match !hoard with
    | fd :: rest ->
      Unix.close fd;
      hoard := rest
    | [] -> ());
    (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | fd ->
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
         (* give the accept loop a few EMFILE trips *)
         Thread.delay 0.15
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ());
    release ()
  end;
  (* the loop is alive: the established session and new connections work *)
  let _, status = request c0 "ping" in
  check_prefix "established session survived" "ok pong" status;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reconnect () =
    match connect srv with
    | c -> c
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.05;
      reconnect ()
    | exception e -> raise e
  in
  let c1 = reconnect () in
  let _, status = request c1 "ping" in
  check_prefix "new connections accepted after exhaustion" "ok pong" status;
  ignore (request c1 "quit");
  close c1;
  ignore (request c0 "quit");
  close c0

(* shutdown must remove a Unix-domain socket's file *)
let test_unix_socket_removed_on_shutdown () =
  let path = Filename.temp_file "coral-sock" ".sock" in
  Sys.remove path;
  let srv = Server.start ~listen:(`Unix path) (Coral.create ()) in
  Alcotest.(check bool) "socket file exists while serving" true (Sys.file_exists path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let c = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd } in
  let _, status = request c "ping" in
  check_prefix "served over unix socket" "ok pong" status;
  ignore (request c "quit");
  close c;
  Server.shutdown srv;
  Alcotest.(check bool) "socket file removed by shutdown" false (Sys.file_exists path)

(* Protocol framing edge cases: CRLF line endings, a client EOF that
   truncates a consult# payload, and a request line exactly at the
   limit (one byte over is refused). *)
let test_framing_edge_cases () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  (* CRLF: a telnet-style client's \r\n is stripped, not parsed *)
  let c = connect srv in
  output_string c.oc "ping\r\n";
  flush c.oc;
  let _, status = request c "hello" in
  (* first reply read is ping's *)
  check_prefix "CRLF ping" "ok pong" status;
  let _, status = request c "quit" in
  check_prefix "CRLF hello (buffered)" "ok coral 1" status;
  close c;
  (* consult# payload truncated by client EOF: the server just drops
     the connection — and keeps serving others *)
  let c = connect srv in
  send c "consult# 4096";
  output_string c.oc "good(1).";
  flush c.oc;
  close c;
  let c = connect srv in
  let _, status = request c "ping" in
  check_prefix "server survives truncated payload" "ok pong" status;
  let _, status = request c "consult good(1)." in
  check_prefix "consult good" "ok" status;
  (* a request line of exactly max_line_bytes is served ... *)
  let q = "query good(X)" in
  let exact = q ^ String.make (Protocol.max_line_bytes - String.length q) ' ' in
  Alcotest.(check int) "line is exactly at the limit" Protocol.max_line_bytes
    (String.length exact);
  let _, status = request c exact in
  check_prefix "exactly-at-limit line accepted" "ok 1 answer" status;
  (* ... and one byte over is refused *)
  let _, status = request c (exact ^ " ") in
  check_prefix "one byte over refused" "err TOOBIG" status;
  close c

(* Connection cap: the N+1st concurrent connection is shed with one
   well-formed BUSY line; closing a connection frees its slot. *)
let test_busy_connection_cap () =
  let limits = { Admission.default with Admission.max_sessions = 2 } in
  let srv = Server.start ~limits ~listen:(`Tcp ("127.0.0.1", 0)) (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c1 = connect srv in
  let _, status = request c1 "ping" in
  check_prefix "first connection" "ok pong" status;
  let c2 = connect srv in
  let _, status = request c2 "ping" in
  check_prefix "second connection" "ok pong" status;
  (* the third is shed before a session exists: one BUSY line, closed *)
  let c3 = connect srv in
  (match In_channel.input_line c3.ic with
  | Some line ->
    check_prefix "shed with BUSY" "err BUSY" line;
    (* machine-readable backoff: first token of the message is ms *)
    (match String.split_on_char ' ' line with
    | "err" :: "BUSY" :: ms :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "retry-after-ms is an integer: %S" ms)
        true
        (int_of_string_opt ms <> None)
    | _ -> Alcotest.fail ("malformed BUSY line: " ^ line));
    Alcotest.(check (option string)) "connection closed after BUSY" None
      (In_channel.input_line c3.ic)
  | None -> Alcotest.fail "shed connection got no BUSY line");
  close c3;
  (* established sessions are untouched by the shed *)
  let _, status = request c1 "ping" in
  check_prefix "session 1 survives the shed" "ok pong" status;
  (* freeing a slot readmits new connections *)
  ignore (request c2 "quit");
  close c2;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec readmitted () =
    let c = connect srv in
    (* a shed connection may reset before the ping is written *)
    (try send c "ping" with Sys_error _ | Unix.Unix_error _ -> ());
    match In_channel.input_line c.ic with
    | Some line when String.starts_with ~prefix:"ok pong" line ->
      ignore (request c "quit");
      close c
    | _ when Unix.gettimeofday () < deadline ->
      close c;
      Thread.delay 0.02;
      readmitted ()
    | other ->
      close c;
      Alcotest.fail
        (Printf.sprintf "slot never freed: %s" (Option.value ~default:"<eof>" other))
  in
  readmitted ();
  (* the shed was counted *)
  let lines, _ = request c1 "stats" in
  let stat name =
    List.find_map
      (fun l ->
        let l = strip_txt l in
        let p = name ^ "=" in
        if String.starts_with ~prefix:p l then
          int_of_string_opt (String.sub l (String.length p) (String.length l - String.length p))
        else None)
      lines
  in
  Alcotest.(check bool) "admission.shed counted" true
    (match stat "admission.shed" with Some n -> n >= 1 | None -> false);
  ignore (request c1 "quit");
  close c1

(* In-flight cap: while one query occupies the only slot, a second
   evaluating request gets BUSY — but introspection (ps/kill) does not,
   so the operator can still steer. *)
let test_busy_inflight_cap () =
  let limits =
    { Admission.default with Admission.max_inflight = 1; max_waiters = 0; retry_after_ms = 40 }
  in
  let srv = Server.start ~limits ~listen:(`Tcp ("127.0.0.1", 0)) (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let a = connect srv in
  let _, status = request a ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  let _, status = request a "consult seed(1)." in
  check_prefix "consult seed" "ok" status;
  let _, status = request a "timeout 30000" in
  check_prefix "backstop deadline" "ok" status;
  (* occupy the slot with an unbounded query *)
  send a "query nat(X)";
  let b = connect srv in
  (* wait until the query is registered, lock-free via ps *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_running () =
    let lines, status = request b "ps" in
    check_prefix "ps bypasses the admission gate" "ok" status;
    if not (List.exists (fun l -> contains "query=nat(X)" (strip_txt l)) lines) then
      if Unix.gettimeofday () > deadline then Alcotest.fail "query never showed in ps"
      else begin
        Thread.delay 0.02;
        wait_running ()
      end
  in
  wait_running ();
  let _, status = request b "query nat(X)" in
  check_prefix "second in-flight request shed" "err BUSY 40" status;
  (* settings and liveness probes stay exempt *)
  let _, status = request b "ping" in
  check_prefix "ping exempt from the gate" "ok pong" status;
  (* free the slot by killing the occupant *)
  let lines, _ = request b "ps" in
  let qid =
    List.find_map
      (fun l ->
        let l = strip_txt l in
        if contains "query=nat(X)" l && String.starts_with ~prefix:"id=" l then
          int_of_string_opt
            (String.sub l 3 (String.index l ' ' - 3))
        else None)
      lines
  in
  (match qid with
  | Some qid ->
    let _, status = request b (Printf.sprintf "kill %d" qid) in
    check_prefix "kill exempt from the gate" "ok" status
  | None -> Alcotest.fail "occupant not found in ps");
  let _, status =
    let rec drain () =
      match In_channel.input_line a.ic with
      | None -> [], "<closed>"
      | Some l when Protocol.is_status l -> [], l
      | Some _ -> drain ()
    in
    drain ()
  in
  check_prefix "occupant killed" "err KILLED" status;
  (* the slot is free again *)
  let _, status = request b "query seed(X)" in
  check_prefix "slot released" "ok 1 answer" status;
  ignore (request a "quit");
  ignore (request b "quit");
  close a;
  close b

(* Per-query resource budgets: session and global, tuples and bytes.
   The budgeted query dies with RESOURCE; neighbors and the session
   itself keep working. *)
let test_resource_budget () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let a = connect srv in
  let b = connect srv in
  let _, status = request a ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  let _, status = request a "consult seed(1)." in
  check_prefix "consult seed" "ok" status;
  let _, status = request a "limit tuples 500" in
  check_prefix "set tuple budget" "ok limit tuples 500" status;
  let _, status = request a "query nat(X)" in
  check_prefix "unbounded query trips the budget" "err RESOURCE" status;
  Alcotest.(check bool)
    (Printf.sprintf "RESOURCE reply reports progress: %s" status)
    true
    (contains "derivations" status && contains "500 derived tuples" status);
  (* a concurrent session is untouched *)
  let _, status = request b "query seed(X)" in
  check_prefix "neighbor keeps answering" "ok 1 answer" status;
  (* the budgeted session itself stays usable, and clearing works *)
  let _, status = request a "limit tuples 0" in
  check_prefix "clear budget" "ok limit tuples disabled" status;
  let _, status = request a "query seed(X)" in
  check_prefix "session usable after RESOURCE" "ok 1 answer" status;
  (* bytes budget: enforced as an estimated tuple cap *)
  let _, status = request a "limit bytes 6400" in
  check_prefix "set bytes budget" "ok limit bytes 6400" status;
  let _, status = request a "query nat(X)" in
  check_prefix "bytes budget trips" "err RESOURCE" status;
  Alcotest.(check bool)
    (Printf.sprintf "bytes trip names the budget: %s" status)
    true (contains "estimated-bytes budget of 6400" status);
  ignore (request a "quit");
  ignore (request b "quit");
  close a;
  close b

(* The store-wide budget flag applies to sessions that set nothing. *)
let test_resource_budget_global () =
  let limits = { Admission.default with Admission.max_query_tuples = 300 } in
  let db = Coral.create () in
  Coral.consult_text db nats_program;
  let srv = Server.start ~limits ~listen:(`Tcp ("127.0.0.1", 0)) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c "query nat(X)" in
  check_prefix "global budget trips" "err RESOURCE" status;
  (* a session limit cannot loosen the global cap: the tighter wins *)
  let _, status = request c "limit tuples 1000000" in
  check_prefix "loose session limit" "ok" status;
  let _, status = request c "query nat(X)" in
  check_prefix "global cap still wins" "err RESOURCE" status;
  Alcotest.(check bool)
    (Printf.sprintf "tighter budget reported: %s" status)
    true (contains "300 derived tuples" status);
  ignore (request c "quit");
  close c

(* Degraded mode over the wire: operator degrade/restore, automatic
   degrade on an injected write fault, probe-based recovery, and reads
   served throughout. *)
let test_degraded_mode () =
  let dir = tmpdir "srvdegrade" in
  let inj = Coral_storage.Disk.Faulty.create () in
  let db = Coral.create () in
  let pdb = Coral.Database.open_ ~injector:inj dir in
  Coral.install_relation db "edge" (Coral.Database.relation pdb ~name:"edge" ~arity:2 ());
  let srv = Server.start ~databases:[ pdb ] ~listen:(`Tcp ("127.0.0.1", 0)) db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c "insert edge(1, 2)." in
  check_prefix "healthy insert" "ok inserted 1" status;
  (* operator degrade: mutations refused, reads and introspection fine *)
  let _, status = request c "degrade disk swap drill" in
  check_prefix "operator degrade" "ok degraded (read-only): disk swap drill" status;
  let _, status = request c "insert edge(2, 3)." in
  check_prefix "mutation refused" "err READONLY" status;
  Alcotest.(check bool)
    (Printf.sprintf "READONLY names the reason: %s" status)
    true (contains "disk swap drill" status);
  let answers, status = request c "query edge(X, Y)" in
  check_prefix "reads still served" "ok 1 answer" status;
  Alcotest.(check int) "snapshot answer" 1 (List.length answers);
  let _, status = request c "stats" in
  check_prefix "stats still served" "ok" status;
  let _, status = request c "restore" in
  check_prefix "operator restore" "ok restored: mutations resume" status;
  let _, status = request c "insert edge(2, 3)." in
  check_prefix "mutations resume" "ok inserted 1" status;
  (* automatic degrade: a hard write fault flips the store read-only.
     The first probe succeeds (the real directory is writable) and
     readmits the mutation, which trips the second injected fault; a
     mutation inside the probe rate-limit window then sees READONLY. *)
  Coral_storage.Disk.Faulty.inject_enospc inj 2;
  let _, status = request c "insert edge(3, 4)." in
  check_prefix "first faulted commit surfaces IOERR" "err IOERR" status;
  let _, status = request c "insert edge(3, 4)." in
  check_prefix "probe readmits, second fault trips" "err IOERR" status;
  let _, status = request c "insert edge(4, 5)." in
  check_prefix "rate-limited probe window refuses" "err READONLY" status;
  let answers, status = request c "query edge(X, Y)" in
  check_prefix "degraded still answers reads" "ok" status;
  Alcotest.(check bool) "read sees committed data" true (List.length answers >= 1);
  (* operator restore clears an automatic degrade too; the injected
     faults are spent, so writes go through *)
  let _, status = request c "restore" in
  check_prefix "restore after auto degrade" "ok restored" status;
  let _, status = request c "insert edge(5, 6)." in
  check_prefix "writes resume after restore" "ok inserted 1" status;
  ignore (request c "quit");
  close c

(* The overload counters and the degraded flag are visible in stats
   and in the Prometheus exposition under coral_* names. *)
let test_overload_observability () =
  let store = Session.make_store (Coral.create ()) in
  let s = Session.create store in
  Alcotest.(check (option int)) "degraded gauge starts clear" (Some 0)
    (stats_value s "server.degraded");
  Alcotest.(check (option int)) "no budget kills yet" (Some 0)
    (stats_value s "server.budget_kills");
  Alcotest.(check (option int)) "no inflight" (Some 0) (stats_value s "admission.inflight");
  Alcotest.(check (option int)) "nothing shed" (Some 0) (stats_value s "admission.shed");
  ignore (Session.handle s (Protocol.Degrade "drill"));
  Alcotest.(check (option int)) "degraded gauge set" (Some 1)
    (stats_value s "server.degraded");
  ignore (Session.handle s Protocol.Restore);
  Alcotest.(check (option int)) "degraded gauge cleared" (Some 0)
    (stats_value s "server.degraded");
  (* a budget kill is counted *)
  (match (Session.handle s (Protocol.Consult nats_program)).Protocol.status with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m));
  ignore (Session.handle s (Protocol.Set_limit (Protocol.Tuples, 100)));
  (match (Session.handle s (Protocol.Query "nat(X)")).Protocol.status with
  | Error (Protocol.Resource, _) -> ()
  | Ok _ -> Alcotest.fail "budgeted query succeeded"
  | Error (c, m) -> Alcotest.fail ("unexpected " ^ Protocol.code_string c ^ ": " ^ m));
  Alcotest.(check (option int)) "budget kill counted" (Some 1)
    (stats_value s "server.budget_kills");
  let text = Session.metrics_text store in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "metrics expose %s" needle) true
        (contains needle text))
    [ "# TYPE coral_server_degraded gauge";
      "# TYPE coral_admission_shed counter";
      "# TYPE coral_admission_busy_rejects counter";
      "# TYPE coral_admission_inflight gauge";
      "coral_server_budget_kills 1"
    ];
  Session.close s

(* ------------------------------------------------------------------ *)
(* Session semantics without sockets                                   *)
(* ------------------------------------------------------------------ *)

let test_session_direct () =
  let store = Session.make_store (Coral.create ()) in
  let s = Session.create store in
  let ok_status r =
    match r.Protocol.status with
    | Ok d -> d
    | Error (code, msg) -> Alcotest.fail (Protocol.code_string code ^ ": " ^ msg)
  in
  ignore (ok_status (Session.handle s (Protocol.Consult paths_program)));
  let r = Session.handle s (Protocol.Query "path(1, Y), Y != 3") in
  Alcotest.(check int) "conjunctive query answers" 2 (List.length (Protocol.answers r));
  (* insert goes to the base relation and is visible to the module *)
  ignore (ok_status (Session.handle s (Protocol.Insert "edge(4, 5). edge(5, 6).")));
  let r = Session.handle s (Protocol.Query "path(4, Y)") in
  Alcotest.(check int) "inserted facts derive" 2 (List.length (Protocol.answers r));
  (* explain renders the rewritten program *)
  let r = Session.handle s (Protocol.Explain "path(1, Y)") in
  ignore (ok_status r);
  Alcotest.(check bool) "explain has payload" true (List.length r.Protocol.payload > 3);
  (* why renders a derivation tree *)
  let r = Session.handle s (Protocol.Why "path(1, 3)") in
  ignore (ok_status r);
  Alcotest.(check bool) "why has payload" true (r.Protocol.payload <> []);
  (* modules / relations *)
  let r = Session.handle s Protocol.Modules in
  Alcotest.(check bool) "paths module listed" true
    (List.mem (Protocol.Txt "paths") r.Protocol.payload);
  let r = Session.handle s Protocol.Relations in
  Alcotest.(check bool) "edge relation listed" true
    (List.exists
       (function Protocol.Txt l -> String.starts_with ~prefix:"edge/2" l | _ -> false)
       r.Protocol.payload);
  (* evaluation errors come back as err EVAL, not exceptions *)
  let r = Session.handle s (Protocol.Query "X = 1 / 0") in
  (match r.Protocol.status with
  | Error (Protocol.Eval, _) -> ()
  | _ -> Alcotest.fail "expected err EVAL for bad arithmetic")

(* Wire updates under maintenance: insert/retract accounting details,
   the maintenance.* stats family, and the event-log records. *)
let test_session_updates () =
  let db = Coral.create () in
  Coral.Engine.set_maintenance (Coral.engine db) true;
  let store = Session.make_store db in
  let s = Session.create store in
  let status r =
    match r.Protocol.status with
    | Ok d -> d
    | Error (code, msg) -> Alcotest.fail (Protocol.code_string code ^ ": " ^ msg)
  in
  ignore (status (Session.handle s (Protocol.Consult paths_program)));
  (* duplicate accounting: edge(1, 2) was already stored by the consult *)
  let d = status (Session.handle s (Protocol.Insert "edge(1, 2). edge(4, 5).")) in
  Alcotest.(check string) "insert detail" "inserted 1, duplicate 1" d;
  let r = Session.handle s (Protocol.Query "path(3, Y)") in
  Alcotest.(check int) "paths through the new edge" 2 (List.length (Protocol.answers r));
  (* retract: one present, one never stored *)
  let d = status (Session.handle s (Protocol.Retract "edge(4, 5). edge(9, 9).")) in
  Alcotest.(check string) "retract detail" "retracted 1, missing 1" d;
  let r = Session.handle s (Protocol.Query "path(3, Y)") in
  Alcotest.(check int) "derived paths withdrawn" 1 (List.length (Protocol.answers r));
  (* parse errors stay on the session *)
  (match (Session.handle s (Protocol.Retract "path(")).Protocol.status with
  | Error (Protocol.Parse, _) -> ()
  | _ -> Alcotest.fail "expected err PARSE for a malformed retract");
  (* the maintenance counter family in stats *)
  Alcotest.(check (option int)) "maintenance.enabled" (Some 1)
    (stats_value s "maintenance.enabled");
  Alcotest.(check (option int)) "maintenance.inserts" (Some 1)
    (stats_value s "maintenance.inserts");
  Alcotest.(check (option int)) "maintenance.retracts" (Some 1)
    (stats_value s "maintenance.retracts");
  (* ... and the prometheus exposition *)
  let r = Session.handle s Protocol.Metrics in
  Alcotest.(check bool) "coral_maintenance_retracts exposed" true
    (List.exists
       (function
         | Protocol.Txt l -> String.starts_with ~prefix:"coral_maintenance_retracts" l
         | _ -> false)
       r.Protocol.payload);
  (* the event log recorded both updates with their split accounting *)
  let r = Session.handle s (Protocol.Events 20) in
  let logged what field =
    List.exists
      (function
        | Protocol.Txt l ->
          let has needle =
            let nl = String.length needle and ll = String.length l in
            let rec go i = i + nl <= ll && (String.sub l i nl = needle || go (i + 1)) in
            go 0
          in
          has (Printf.sprintf "\"kind\":\"%s\"" what) && has field
        | _ -> false)
      r.Protocol.payload
  in
  Alcotest.(check bool) "insert event split" true (logged "insert" "\"duplicate\":1");
  Alcotest.(check bool) "retract event split" true (logged "retract" "\"missing\":1")

(* ------------------------------------------------------------------ *)
(* Snapshot reads: epochs, isolation, reader/writer differential       *)
(* ------------------------------------------------------------------ *)

let test_snapshot_epoch () =
  let store = Session.make_store (Coral.create ()) in
  let s = Session.create store in
  let e0 = Session.snapshot_epoch store in
  Alcotest.(check bool) "initial epoch published" true (e0 >= 1);
  Alcotest.(check (option int)) "stats agree" (Some e0) (stats_value s "snapshot.epoch");
  (* every committed mutation advances the epoch *)
  (match (Session.handle s (Protocol.Consult paths_program)).Protocol.status with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m));
  let e1 = Session.snapshot_epoch store in
  Alcotest.(check bool) "consult bumps epoch" true (e1 > e0);
  ignore (Session.handle s (Protocol.Insert "edge(4, 5)."));
  let e2 = Session.snapshot_epoch store in
  Alcotest.(check bool) "insert bumps epoch" true (e2 > e1);
  (* reads do not advance it *)
  ignore (Session.handle s (Protocol.Query "path(1, Y)"));
  Alcotest.(check int) "query leaves epoch alone" e2 (Session.snapshot_epoch store);
  Alcotest.(check (option int)) "pinned gauge drains to zero" (Some 0)
    (stats_value s "snapshot.pinned")

(* ps on a running query shows the epoch it pinned (the snapshot lane). *)
(* A bound query on an interactive-module rule is a form no export
   names, so no module load chose its index.  The first snapshot read
   scans, and forwards the index its compile asked for; one commit
   with no data change publishes an epoch that carries it, and the
   second read visits what a live engine visits. *)
(* Readers pinned across 50 seeded commits (inserts, retracts and fact
   consults on a maintained store): after every commit, each pinned
   reader's answers through its frozen view equal the closure of the
   edges its own epoch held, and are byte for byte the rows it read
   when it pinned. *)
let test_pinned_readers_across_commits () =
  let rs = Random.State.make [| 29 |] in
  let db = Coral.create () in
  Coral.Engine.set_maintenance (Coral.engine db) true;
  let store = Session.make_store db in
  let s = Session.create store in
  let ok r =
    match r.Protocol.status with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m)
  in
  let nodes = 10 in
  let edge () = Random.State.int rs nodes, Random.State.int rs nodes in
  let fact (a, b) = Printf.sprintf "edge(%d, %d)." a b in
  let initial = List.sort_uniq compare (List.init 14 (fun _ -> edge ())) in
  ok (Session.handle s (Protocol.Consult (paths_module ^ String.concat " " (List.map fact initial))));
  let closure edges =
    let rec grow known =
      let next =
        List.sort_uniq compare
          (known
          @ List.concat_map
              (fun (a, b) -> List.filter_map (fun (c, d) -> if b = c then Some (a, d) else None) edges)
              known)
      in
      if next = known then known else grow next
    in
    grow (List.sort_uniq compare edges)
  in
  let queries = [ "path(X, Y)"; "path(3, Y)"; "edge(X, Y)"; "edge(X, Y), not path(Y, X)" ] in
  let expected edges =
    let paths = closure edges in
    let pair (a, b) = Printf.sprintf "X = %d, Y = %d" a b in
    [ List.map pair paths;
      List.filter_map (fun (a, b) -> if a = 3 then Some (Printf.sprintf "Y = %d" b) else None) paths;
      List.map pair edges;
      List.map pair (List.filter (fun (a, b) -> not (List.mem (b, a) paths)) edges)
    ]
  in
  let answers view =
    let eng = Coral.Engine.read_view view in
    List.map
      (fun q ->
        let r = Coral.Engine.query eng (Result.get_ok (Coral.Parser.query q)) in
        List.map
          (fun row ->
            String.concat ", "
              (List.mapi
                 (fun i (v : Coral.Term.var) -> v.Coral.Term.vname ^ " = " ^ Coral.Term.to_string row.(i))
                 r.Coral.Engine.qvars))
          r.Coral.Engine.rows)
      queries
  in
  let edges = ref initial in
  let readers = ref [] in
  let pin () =
    let view = Option.get (Session.published_view store) in
    let first = answers view in
    Alcotest.(check (list (list string))) "a fresh pin reads its epoch" (expected !edges)
      (List.map (List.sort compare) first);
    readers := (view, !edges, first) :: !readers
  in
  pin ();
  for i = 1 to 50 do
    let e = edge () in
    (match Random.State.int rs 3 with
    | 0 ->
      ok (Session.handle s (Protocol.Insert (fact e)));
      edges := List.sort_uniq compare (e :: !edges)
    | 1 ->
      let e = if !edges = [] then e else List.nth !edges (Random.State.int rs (List.length !edges)) in
      ok (Session.handle s (Protocol.Retract (fact e)));
      edges := List.filter (( <> ) e) !edges
    | _ ->
      ok (Session.handle s (Protocol.Consult (fact e)));
      edges := List.sort_uniq compare (e :: !edges));
    List.iter
      (fun (view, held, first) ->
        let now = answers view in
        List.iter2
          (fun q (want, got) ->
            Alcotest.(check (list string)) (Printf.sprintf "commit %d: %s" i q) want (List.sort compare got))
          queries (List.combine (expected held) now);
        Alcotest.(check (list (list string))) (Printf.sprintf "commit %d: same bytes" i) first now)
      !readers;
    if i mod 10 = 0 then pin ()
  done

let test_read_forwards_index_misses () =
  let program =
    "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- link(X, Z), reach(Z, Y).\n"
    ^ String.concat " "
        (List.init 24 (fun i ->
             Printf.sprintf "link(%d, %d). link(%d, %d)." i ((i + 1) mod 24) i ((i * 5 + 2) mod 24)))
  in
  let query = "reach(3, Y)" in
  let visiting f =
    let v0 = Coral.Relation.tuples_visited () in
    let r = f () in
    r, Coral.Relation.tuples_visited () - v0
  in
  let live = Coral.create () in
  Coral.consult_text live program;
  let live_rows, live_visits = visiting (fun () -> Coral.query_rows live query) in
  let store = Session.make_store (Coral.create ()) in
  let s = Session.create store in
  let answers r =
    match r.Protocol.status with
    | Ok _ -> List.length (Protocol.answers r)
    | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m)
  in
  ignore (answers (Session.handle s (Protocol.Consult program)));
  let link_indexes () =
    let view = Option.get (Session.published_view store) in
    match
      Coral.Engine.relation_of (Coral.Engine.read_view view) (Coral.Symbol.intern "link") 2
    with
    | Some rel -> Coral.Relation.indexes rel
    | None -> Alcotest.fail "no frozen link/2"
  in
  let args0 = List.exists (Coral.Index.spec_equal (Coral.Index.Args [ 0 ])) in
  Alcotest.(check bool) "not chosen at load" false (args0 (link_indexes ()));
  let e0 = Session.snapshot_epoch store in
  let first, _ = visiting (fun () -> answers (Session.handle s (Protocol.Query query))) in
  Alcotest.(check int) "first read answers" (List.length live_rows) first;
  Alcotest.(check bool) "an epoch was published" true (Session.snapshot_epoch store > e0);
  Alcotest.(check bool) "the published link carries args(0)" true (args0 (link_indexes ()));
  let e1 = Session.snapshot_epoch store in
  let second, visits = visiting (fun () -> answers (Session.handle s (Protocol.Query query))) in
  Alcotest.(check int) "second read answers" (List.length live_rows) second;
  Alcotest.(check int) "second read visits what the live engine visits" live_visits visits;
  Alcotest.(check bool) "stats reports the counter" true
    (match stats_value s "engine.tuples_visited" with Some n -> n >= visits | None -> false);
  Alcotest.(check int) "a steady read commits nothing" e1 (Session.snapshot_epoch store)

(* A stored relation that cannot carry indexes (the list relation) is
   forwarded once: the forwarded spec is wanted from then on, so later
   views do not ask again and steady reads commit nothing. *)
let test_unindexable_forwards_once () =
  let db = Coral.create () in
  Coral.install_relation db "link" (Coral.List_relation.create ~name:"link" ~arity:2 ());
  let store = Session.make_store db in
  let s = Session.create store in
  let ok r =
    match r.Protocol.status with
    | Ok _ -> ()
    | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m)
  in
  ok
    (Session.handle s
       (Protocol.Consult
          "reach(X, Y) :- link(X, Y). reach(X, Y) :- link(X, Z), reach(Z, Y). \
           link(1, 2). link(2, 3). link(3, 1)."));
  ok (Session.handle s (Protocol.Query "reach(1, Y)"));
  let e1 = Session.snapshot_epoch store in
  for _ = 1 to 3 do
    ok (Session.handle s (Protocol.Query "reach(1, Y)"))
  done;
  Alcotest.(check int) "no commit per read" e1 (Session.snapshot_epoch store)

let test_ps_shows_epoch () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let victim = connect srv in
  let operator = connect srv in
  let _, status = request victim ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  send victim "query nat(X)";
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_line () =
    if Unix.gettimeofday () > deadline then Alcotest.fail "query never showed in ps";
    let lines, status = request operator "ps" in
    check_prefix "ps status" "ok" status;
    match
      List.find_opt (fun l -> contains "query=nat(X)" l) (List.map strip_txt lines)
    with
    | Some l -> l
    | None ->
      Thread.delay 0.02;
      wait_line ()
  in
  let line = wait_line () in
  Alcotest.(check bool) ("ps line shows pinned epoch: " ^ line) true
    (contains " epoch=" line);
  (* a reader holds a pin while evaluating *)
  let pinned =
    let lines, _ = request operator "stats" in
    List.exists
      (fun l ->
        match strip_txt l with
        | l when String.starts_with ~prefix:"snapshot.pinned=" l ->
          (match int_of_string_opt (String.sub l 16 (String.length l - 16)) with
          | Some n -> n >= 1
          | None -> false)
        | _ -> false)
      lines
  in
  Alcotest.(check bool) "pinned gauge sees the reader" true pinned;
  let qid =
    match String.index_opt line '=' with
    | Some _ ->
      String.split_on_char ' ' line
      |> List.find_map (fun tok ->
             if String.starts_with ~prefix:"id=" tok then
               int_of_string_opt (String.sub tok 3 (String.length tok - 3))
             else None)
    | None -> None
  in
  (match qid with
  | Some qid -> ignore (request operator (Printf.sprintf "kill %d" qid))
  | None -> Alcotest.fail ("no id in ps line: " ^ line));
  let rec drain () =
    match In_channel.input_line victim.ic with
    | None -> ()
    | Some l when Protocol.is_status l -> ()
    | Some _ -> drain ()
  in
  drain ();
  ignore (request victim "quit");
  close victim;
  ignore (request operator "quit");
  close operator

(* The differential acceptance test: readers racing a writer must each
   see, on every query, EXACTLY the answer set some serialized prefix
   of the writer's commits would produce — never a torn in-between —
   and successive reads on one session never go backwards. *)
let test_snapshot_differential () =
  let db = Coral.create () in
  Coral.fact db "edge" [ Coral.int 1; Coral.int 2 ];
  Coral.consult_text db
    "module paths.\n\
     export path(bf).\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\n\
     end_module.\n";
  let store = Session.make_store db in
  let chain = 24 in
  (* serialized oracle: with the chain 1->2->...->(c+1) in place,
     path(1, Y) answers are exactly Y = 2 .. c+1 *)
  let expected c = List.sort compare (List.init c (fun i -> Printf.sprintf "Y = %d" (i + 2))) in
  let failures = Mutex.create () in
  let failed = ref [] in
  let fail_with m =
    Mutex.lock failures;
    failed := m :: !failed;
    Mutex.unlock failures
  in
  let writer () =
    let s = Session.create store in
    for k = 2 to chain do
      match
        (Session.handle s (Protocol.Insert (Printf.sprintf "edge(%d, %d)." k (k + 1))))
          .Protocol.status
      with
      | Ok _ -> ()
      | Error (c, m) -> fail_with ("writer: " ^ Protocol.code_string c ^ ": " ^ m)
    done;
    Session.close s
  in
  let reader id =
    let s = Session.create store in
    let last = ref 0 in
    for _ = 1 to 40 do
      let r = Session.handle s (Protocol.Query "path(1, Y)") in
      match r.Protocol.status with
      | Error (c, m) -> fail_with (Printf.sprintf "reader %d: %s: %s" id (Protocol.code_string c) m)
      | Ok _ ->
        let got = List.sort compare (Protocol.answers r) in
        let c = List.length got in
        if c < 1 || c > chain then
          fail_with (Printf.sprintf "reader %d: impossible answer count %d" id c)
        else if got <> expected c then
          fail_with
            (Printf.sprintf "reader %d: torn snapshot at count %d: %s" id c
               (String.concat "|" got))
        else if c < !last then
          fail_with (Printf.sprintf "reader %d: snapshot went backwards (%d after %d)" id c !last)
        else last := c
    done;
    Session.close s
  in
  let threads =
    Thread.create writer () :: List.init 2 (fun id -> Thread.create reader id)
  in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no differential violations" [] !failed;
  (* after the writer joins, a fresh read sees the full chain *)
  let s = Session.create store in
  let r = Session.handle s (Protocol.Query "path(1, Y)") in
  Alcotest.(check int) "final state complete" (chain) (List.length (Protocol.answers r))

(* Mixed-operation stress: queries, inserts, consults, stats and ps
   interleaving from several sessions; nothing may error or wedge.
   CI runs this with CORAL_WORKERS=4 so snapshot reads, the parallel
   fixpoint's domains and the writer lane all contend at once. *)
let test_concurrent_stress () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let seed = connect srv in
  let _, status = request seed ("consult " ^ flat paths_program) in
  check_prefix "seed consult" "ok" status;
  ignore (request seed "quit");
  close seed;
  let failures = Mutex.create () in
  let failed = ref [] in
  let client_run id =
    try
      let c = connect srv in
      for i = 1 to 15 do
        (match i mod 5 with
        | 0 ->
          let _, status = request c (Printf.sprintf "insert edge(%d, %d)." (100 + (id * 50) + i) id) in
          if not (String.starts_with ~prefix:"ok" status) then failwith ("insert: " ^ status)
        | 1 ->
          let _, status = request c "stats" in
          if not (String.starts_with ~prefix:"ok" status) then failwith ("stats: " ^ status)
        | 2 ->
          let _, status = request c "ps" in
          if not (String.starts_with ~prefix:"ok" status) then failwith ("ps: " ^ status)
        | _ ->
          let _, status = request c "query path(1, Y)" in
          if not (String.starts_with ~prefix:"ok" status) then failwith ("query: " ^ status));
        ()
      done;
      ignore (request c "quit");
      close c
    with e ->
      Mutex.lock failures;
      failed := Printf.sprintf "client %d: %s" id (Printexc.to_string e) :: !failed;
      Mutex.unlock failures
  in
  let threads = List.init 4 (fun id -> Thread.create client_run id) in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no stress failures" [] !failed

(* assert/1 inside a module rule fires on the snapshot lane first; the
   session must transparently replay it on the write lane and commit. *)
let test_assert_replays_on_write_lane () =
  let store = Session.make_store (Coral.create ()) in
  let s = Session.create store in
  (match
     (Session.handle s
        (Protocol.Consult
           "module upd.\n\
            export bump(f).\n\
            bump(X) :- X = 1, assert(seen(X)).\n\
            end_module.\n"))
       .Protocol.status
   with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m));
  let e0 = Session.snapshot_epoch store in
  let r = Session.handle s (Protocol.Query "bump(X)") in
  (match r.Protocol.status with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail ("bump: " ^ Protocol.code_string c ^ ": " ^ m));
  (* the mutation took effect and was committed as a new epoch *)
  let r = Session.handle s (Protocol.Query "seen(X)") in
  Alcotest.(check int) "asserted fact visible" 1 (List.length (Protocol.answers r));
  Alcotest.(check bool) "mutating query bumped the epoch" true
    (Session.snapshot_epoch store > e0)

(* Wire-volume accounting: request lines and payloads add to
   server.bytes.read, reply lines to server.bytes.written, and the
   same totals ride the Prometheus exposition as
   coral_server_bytes_read / coral_server_bytes_written. *)
let test_byte_counters_wire () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let stat_val name =
    let l = strip_txt (stats_line c (name ^ "=")) in
    match String.index_opt l '=' with
    | Some i -> int_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Alcotest.fail ("malformed stat line " ^ l)
  in
  let r0 = stat_val "server.bytes.read" in
  let w0 = stat_val "server.bytes.written" in
  Alcotest.(check bool) "the stats request itself was counted" true
    (r0 >= String.length "stats" + 1);
  Alcotest.(check bool) "its reply was counted" true (w0 > 0);
  let program = flat paths_program in
  let _, status = request c ("consult " ^ program) in
  check_prefix "consult" "ok" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "query" "ok 3 answers" status;
  let r1 = stat_val "server.bytes.read" in
  let w1 = stat_val "server.bytes.written" in
  Alcotest.(check bool) "reads grew by at least the consult text" true
    (r1 - r0 >= String.length program);
  Alcotest.(check bool) "writes grew by at least the three answer lines" true
    (w1 - w0 >= 3 * String.length "ans X = _");
  let lines, status = request c "metrics" in
  check_prefix "metrics status" "ok" status;
  let text = String.concat "\n" (List.map strip_txt lines) in
  Alcotest.(check bool) "read counter exposed" true
    (contains "# TYPE coral_server_bytes_read counter" text);
  Alcotest.(check bool) "write counter exposed" true
    (contains "# TYPE coral_server_bytes_written counter" text);
  let sample name =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:(name ^ " ") l then
          int_of_string_opt
            (String.trim (String.sub l (String.length name) (String.length l - String.length name)))
        else None)
      (String.split_on_char '\n' text)
  in
  (match sample "coral_server_bytes_read" with
  | Some v ->
    Alcotest.(check bool) "prometheus read sample tracks the stats total" true (v >= r1)
  | None -> Alcotest.fail "no coral_server_bytes_read sample");
  (match sample "coral_server_bytes_written" with
  | Some v ->
    Alcotest.(check bool) "prometheus write sample tracks the stats total" true (v >= w1)
  | None -> Alcotest.fail "no coral_server_bytes_written sample");
  ignore (request c "quit");
  close c

(* One sample table, two views: every [stats] line with a numeric value
   has a Prometheus sample of the derived name, and the scrape has no
   sample (histograms and the build identity aside) that [stats]
   lacks. *)
let test_stats_metrics_parity () =
  let srv = start_server () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let c = connect srv in
  let _, status = request c ("consult " ^ flat paths_program) in
  check_prefix "consult" "ok" status;
  let _, status = request c "query path(1, Y)" in
  check_prefix "query" "ok" status;
  let stats, status = request c "stats" in
  check_prefix "stats" "ok" status;
  let metrics = String.split_on_char '\n' (Session.metrics_text (Server.store srv)) in
  Parity.check ~what:"server" ~stats:(List.map strip_txt stats) ~metrics ();
  (* the query allocated: minor words are a work counter like
     derivations *)
  Parity.check_rows ~what:"server" ~stats:(List.map strip_txt stats) ~metrics ~min:1.
    [ "server.eval_minor_words" ];
  ignore (request c "quit");
  close c

(* [stats] reads the maintenance counts the last build left behind; it
   must not rebuild stale extents itself.  A persistent relation keeps
   the consult's commit from building them (its epoch publishes no
   lock-free view), so they are stale when [stats] arrives. *)
let test_stats_does_not_rebuild () =
  let dir = tmpdir "srvstats" in
  let db = Coral.create () in
  let pdb = Coral.Database.open_ dir in
  Coral.install_relation db "edge" (Coral.Database.relation pdb ~name:"edge" ~arity:2 ());
  Coral.Engine.set_maintenance (Coral.engine db) true;
  let store = Session.make_store ~databases:[ pdb ] db in
  let s = Session.create store in
  Fun.protect ~finally:(fun () ->
      Session.close s;
      Session.close_databases store)
  @@ fun () ->
  (match (Session.handle s (Protocol.Consult paths_program)).Protocol.status with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m));
  let refreshes () =
    match Coral.Engine.maintenance_info (Coral.engine db) with
    | Some (_, r, _) -> r
    | None -> Alcotest.fail "maintenance should be on"
  in
  let before = refreshes () in
  (match (Session.handle s Protocol.Stats).Protocol.status with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.fail (Protocol.code_string c ^ ": " ^ m));
  Alcotest.(check int) "stats leaves the maintained extents alone" before (refreshes ())

(* The real REPL client against a saturated server: its shed request
   comes back [err BUSY <retry-after-ms>], it sleeps on the advice and
   resends once — so when the slot frees up during the backoff, the
   user sees the answer and never the BUSY. *)
(* A fact typed at the REPL prompt is a base change like any other: the
   REPL's maintained extents must show it on the next read. *)
let test_repl_fact_items () =
  let repl =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/coral_repl.exe"
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process repl [| repl |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let toc = Unix.out_channel_of_descr in_w in
  output_string toc
    ("edge(1, 2). edge(2, 3).\n" ^ paths_module
   ^ "?- path(1, Y).\nedge(3, 4).\n?- path(3, Y).\ninsert edge(4, 5).\n?- path(1, Y).\n");
  close_out toc;
  let ric = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ric in
  close_in ric;
  let _, st = Unix.waitpid [] pid in
  Alcotest.(check bool) "repl exited cleanly" true (st = Unix.WEXITED 0);
  let answers =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           match String.index_opt l '(' with
           | Some i when String.ends_with ~suffix:")" l && contains "answer" l ->
             Some (String.sub l i (String.length l - i))
           | _ -> None)
  in
  Alcotest.(check (list string))
    (Printf.sprintf "answer counts (output %S)" out)
    [ "(2 answers)"; "(1 answer)"; "(4 answers)" ] answers

let test_repl_busy_retry () =
  let repl =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/coral_repl.exe"
  in
  let limits =
    { Admission.default with
      Admission.max_inflight = 1;
      max_waiters = 0;
      retry_after_ms = 1000
    }
  in
  let srv = Server.start ~limits ~listen:(`Tcp ("127.0.0.1", 0)) (Coral.create ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let a = connect srv in
  let _, status = request a ("consult " ^ flat nats_program) in
  check_prefix "consult nats" "ok" status;
  let _, status = request a "consult seed(1)." in
  check_prefix "consult seed" "ok" status;
  let _, status = request a "timeout 30000" in
  check_prefix "backstop deadline" "ok" status;
  (* occupy the only in-flight slot *)
  send a "query nat(X)";
  let b = connect srv in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_running () =
    let lines, _ = request b "ps" in
    if not (List.exists (fun l -> contains "query=nat(X)" (strip_txt l)) lines) then
      if Unix.gettimeofday () > deadline then Alcotest.fail "occupant never showed in ps"
      else begin
        Thread.delay 0.02;
        wait_running ()
      end
  in
  wait_running ();
  (* cloexec: the child must not inherit the parent's pipe ends, or
     closing [in_w] here would never deliver EOF on its stdin *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let addr = Printf.sprintf "127.0.0.1:%d" (Server.port srv) in
  let pid = Unix.create_process repl [| repl; "--connect"; addr |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let toc = Unix.out_channel_of_descr in_w in
  output_string toc "query seed(X)\n";
  flush toc;
  close_out toc;
  (* the client's first try must actually be shed, or the test proves
     nothing; admission.busy_rejects flips exactly when it is *)
  let stat_rejects () =
    let l = strip_txt (stats_line b "admission.busy_rejects=") in
    match String.index_opt l '=' with
    | Some i -> int_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Alcotest.fail ("malformed stat line " ^ l)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_shed () =
    if stat_rejects () = 0 then
      if Unix.gettimeofday () > deadline then Alcotest.fail "client request never shed"
      else begin
        Thread.delay 0.02;
        wait_shed ()
      end
  in
  wait_shed ();
  (* free the slot while the client sleeps on the backoff advice *)
  let lines, _ = request b "ps" in
  (match
     List.find_map
       (fun l ->
         let l = strip_txt l in
         if contains "query=nat(X)" l && String.starts_with ~prefix:"id=" l then
           int_of_string_opt (String.sub l 3 (String.index l ' ' - 3))
         else None)
       lines
   with
  | Some qid ->
    let _, status = request b (Printf.sprintf "kill %d" qid) in
    check_prefix "kill the occupant" "ok" status
  | None -> Alcotest.fail "occupant not found in ps");
  (* the retried request lands in the freed slot: the client prints
     the answer, no error diagnostic, and exits cleanly *)
  let buf = Buffer.create 256 in
  let ric = Unix.in_channel_of_descr out_r in
  (try
     while true do
       Buffer.add_channel buf ric 1
     done
   with End_of_file -> ());
  let _, st = Unix.waitpid [] pid in
  close_in ric;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "client exited cleanly" true (st = Unix.WEXITED 0);
  Alcotest.(check bool)
    (Printf.sprintf "answer printed after the silent retry (got %S)" out)
    true (contains "X = 1" out);
  Alcotest.(check bool) "no BUSY diagnostic reached the user" true
    (not (contains "error[" out));
  let rec drain () =
    match In_channel.input_line a.ic with
    | None -> "<closed>"
    | Some l when Protocol.is_status l -> l
    | Some _ -> drain ()
  in
  check_prefix "occupant killed" "err KILLED" (drain ());
  ignore (request a "quit");
  ignore (request b "quit");
  close a;
  close b

let () =
  Alcotest.run "coral_server"
    [ ( "protocol",
        [ Alcotest.test_case "request parsing and rendering" `Quick test_protocol_parse;
          Alcotest.test_case "buffered line reader" `Quick test_line_reader
        ] );
      ( "server",
        [ Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "plan cache (unit)" `Quick test_plan_cache_unit;
          Alcotest.test_case "plan cache (wire)" `Quick test_plan_cache_over_wire;
          Alcotest.test_case "plans survive commits" `Quick test_plans_survive_commits;
          Alcotest.test_case "bound serve path pinned" `Quick test_bound_serve_path;
          Alcotest.test_case "bound serve path pinned, 4 lanes" `Quick
            test_bound_serve_path_parallel;
          Alcotest.test_case "doubles print losslessly" `Quick test_doubles_wire;
          Alcotest.test_case "control bytes stay one line" `Quick test_control_bytes_one_line;
          Alcotest.test_case "explain analyze (wire)" `Quick test_explain_analyze_wire;
          Alcotest.test_case "metrics (wire)" `Quick test_metrics_wire;
          Alcotest.test_case "byte counters (wire)" `Quick test_byte_counters_wire;
          Alcotest.test_case "metrics (http)" `Quick test_metrics_http;
          Alcotest.test_case "healthz (http)" `Quick test_metrics_http_healthz;
          Alcotest.test_case "request deadline" `Quick test_deadline;
          Alcotest.test_case "ps and kill" `Quick test_ps_kill;
          Alcotest.test_case "event log (wire)" `Quick test_events_wire;
          Alcotest.test_case "why explanations (wire)" `Quick test_why_wire;
          Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
          Alcotest.test_case "oversized requests" `Quick test_oversized_requests;
          Alcotest.test_case "IOERR keeps serving" `Quick test_ioerr_keeps_serving;
          Alcotest.test_case "shutdown commits databases" `Quick
            test_shutdown_commits_databases;
          Alcotest.test_case "session semantics" `Quick test_session_direct;
          Alcotest.test_case "wire updates" `Quick test_session_updates;
          Alcotest.test_case "stats and metrics name parity" `Quick test_stats_metrics_parity;
          Alcotest.test_case "stats does not rebuild extents" `Quick test_stats_does_not_rebuild
        ] );
      ( "robustness",
        [ Alcotest.test_case "accept loop survives EMFILE" `Quick
            test_accept_loop_survives_emfile;
          Alcotest.test_case "unix socket removed on shutdown" `Quick
            test_unix_socket_removed_on_shutdown;
          Alcotest.test_case "framing edge cases" `Quick test_framing_edge_cases;
          Alcotest.test_case "connection cap sheds with BUSY" `Quick test_busy_connection_cap;
          Alcotest.test_case "in-flight cap sheds with BUSY" `Quick test_busy_inflight_cap;
          Alcotest.test_case "repl retries after BUSY" `Quick test_repl_busy_retry;
          Alcotest.test_case "resource budget (session)" `Quick test_resource_budget;
          Alcotest.test_case "resource budget (global)" `Quick test_resource_budget_global;
          Alcotest.test_case "degraded mode over the wire" `Quick test_degraded_mode;
          Alcotest.test_case "overload observability" `Quick test_overload_observability;
          Alcotest.test_case "repl fact items reach maintenance" `Quick test_repl_fact_items
        ] );
      ( "snapshot",
        [ Alcotest.test_case "epoch publication" `Quick test_snapshot_epoch;
          Alcotest.test_case "ps shows pinned epoch" `Quick test_ps_shows_epoch;
          Alcotest.test_case "reader/writer differential" `Quick test_snapshot_differential;
          Alcotest.test_case "concurrent stress" `Quick test_concurrent_stress;
          Alcotest.test_case "assert replays on write lane" `Quick
            test_assert_replays_on_write_lane;
          Alcotest.test_case "reads forward index misses" `Quick test_read_forwards_index_misses;
          Alcotest.test_case "pinned readers across 50 commits" `Quick
            test_pinned_readers_across_commits;
          Alcotest.test_case "unindexable relation forwards once" `Quick
            test_unindexable_forwards_once
        ] )
    ]
