(* The CORAL interactive interpreter.

   Usage: coral [options] [file.coral ...]
     -q QUERY        evaluate one query after loading the files and exit
     -e TEXT         consult program text given on the command line
     --stats         print engine statistics on exit
     --batch         do not enter the interactive prompt
     --connect TGT   act as a client of a running coral_server
                     (TGT = host:port or a Unix-socket path); input
                     lines are protocol requests, e.g. "query path(1, Y)"

   Errors (parse failures, unknown predicates, evaluation errors) are
   reported as single-line diagnostics — error[CODE]: message — using
   the same codes as the server protocol, and never kill the loop.

   At the prompt: facts, rules and modules extend the database; queries
   ([?- p(1, X).] — the [?-] is optional for [p(1, X).]-style atoms
   only when prefixed) print their answers.  Commands:
     consult("file").     load a program file
     explain(p(1, X)).    show the optimizer's rewritten program
     analyze(p(1, X)).    run the query; per-rule counts and timings
     why(p(1, 3)).        show derivation trees for the answers
     stats.               engine statistics
     ps.                  active queries (this process)
     kill(3).             cooperatively cancel active query 3
     events. / events(20).  recent structured event-log lines
     help.                this text
     quit. / halt.        leave *)

module Query_log = Coral_obs.Query_log

let banner =
  "CORAL deductive database (OCaml reproduction of Ramakrishnan et al., SIGMOD'93)\n\
   Type help. for help.\n"

let help_text =
  "  edge(1, 2).                      add a fact\n\
  \  path(X, Y) :- edge(X, Y).        add a rule (interactive module)\n\
  \  module m. ... end_module.        define a module (multi-line ok)\n\
  \  ?- path(1, X).                   run a query\n\
  \  consult(\"file.coral\").           load a file\n\
  \  explain(path(1, X)).             show the rewritten program\n\
  \  analyze(path(1, X)).             run it: per-rule counts and timings\n\
  \  why(path(1, 3)).                 show a derivation tree\n\
  \  ps.  kill(3).  events(20).       active queries / cancel / event log\n\
  \  relations.  modules.  stats.  help.  quit.\n"

(* Single-line diagnostics, server-style: parse failures, unknown
   predicates etc. print one "error[CODE]: message" line (codes match
   the server protocol's error replies) and the loop continues. *)
let diag code msg =
  Printf.printf "error[%s]: %s\n" code (Coral_server.Protocol.one_line msg)

let print_result (r : Coral.Engine.query_result) =
  match r.Coral.Engine.rows with
  | [] -> print_endline "no."
  | rows ->
    List.iter
      (fun row ->
        if r.Coral.Engine.qvars = [] then print_endline "yes."
        else begin
          let parts =
            List.map2
              (fun (v : Coral.Term.var) value ->
                Printf.sprintf "%s = %s" v.Coral.Term.vname (Coral.Term.to_string value))
              r.Coral.Engine.qvars (Array.to_list row)
          in
          print_endline (String.concat ", " parts)
        end)
      rows;
    Printf.printf "(%d answer%s)\n" (List.length rows)
      (if List.length rows = 1 then "" else "s")

let print_ps () =
  match Query_log.active () with
  | [] -> print_endline "no active queries."
  | snaps ->
    List.iter
      (fun (s : Query_log.snapshot) ->
        Printf.printf "  id=%d kind=%s age_ms=%d iter=%d derivations=%d%s query=%s\n" s.s_id
          s.s_kind
          (s.s_age_ns / 1_000_000)
          s.s_iterations s.s_derivations
          (if s.s_killed then " killed=pending" else "")
          s.s_text)
      snaps

let handle_command db (a : Coral.Ast.atom) =
  match Coral.Symbol.name a.Coral.Ast.pred, a.Coral.Ast.args with
  | ("quit" | "halt"), [||] -> exit 0
  | "ps", [||] ->
    print_ps ();
    true
  | "kill", [| Coral.Term.Const (Coral.Value.Int qid) |] ->
    if Query_log.kill qid then Printf.printf "kill signalled for query %d\n" qid
    else Printf.printf "no active query with id %d\n" qid;
    true
  | "events", ([||] | [| Coral.Term.Const (Coral.Value.Int _) |]) ->
    let n =
      match a.Coral.Ast.args with
      | [| Coral.Term.Const (Coral.Value.Int n) |] when n > 0 -> n
      | _ -> 20
    in
    (match Query_log.Events.recent n with
    | [] -> print_endline "no events logged."
    | lines -> List.iter print_endline lines);
    true
  | "help", [||] ->
    print_string help_text;
    true
  | "stats", [||] ->
    Format.printf "%a@." Coral.Engine.pp_stats (Coral.engine db);
    true
  | "relations", [||] ->
    List.iter
      (fun (name, n) -> Printf.printf "  %-24s %d tuples\n" name n)
      (Coral.Engine.list_relations (Coral.engine db));
    true
  | "modules", [||] ->
    List.iter (fun m -> Printf.printf "  %s\n" m) (Coral.Engine.list_modules (Coral.engine db));
    true
  | "consult", [| Coral.Term.Const (Coral.Value.Str file) |] ->
    (try
       Coral.consult_file db file;
       Printf.printf "consulted %s\n" file
     with
    | Coral.Engine.Engine_error e -> diag "EVAL" e
    | Sys_error e -> diag "EVAL" e);
    true
  | "explain", [| Coral.Term.App inner |] ->
    let text =
      Coral.explain db
        (Coral.Term.to_string (Coral.Term.App inner))
    in
    print_endline text;
    true
  | "analyze", [| Coral.Term.App inner |] ->
    (* explain analyze: run the query with per-rule profiling on *)
    print_endline (Coral.explain_analyze db (Coral.Term.to_string (Coral.Term.App inner)));
    true
  | "why", [| Coral.Term.App inner |] ->
    print_string (Coral.why db (Coral.Term.to_string (Coral.Term.App inner)));
    true
  | _ -> false

(* REPL queries go through the same active-query registry and event
   log as server requests, so ps/kill/events behave identically in
   both front ends (kill matters once a query is cancellable from a
   signal handler or another thread; registration costs nothing). *)
let run_query db lits =
  let text =
    String.concat ", " (List.map (Format.asprintf "%a" Coral.Pretty.pp_literal) lits)
  in
  let entry = Query_log.register ~kind:"repl" text in
  let t0 = Unix.gettimeofday () in
  let finish outcome rows =
    Query_log.unregister entry;
    Query_log.Events.query_event ~kind:"repl" ~id:(Query_log.id entry) ~session:0 ~text
      ~latency_ms:((Unix.gettimeofday () -. t0) *. 1000.)
      ~rows
      ~iterations:(Query_log.iterations entry)
      ~derivations:(Query_log.derivations entry)
      ~plan_cache:"" ~outcome ()
  in
  match
    Coral.with_cancel db
      (fun () -> Query_log.killed entry)
      (fun () ->
        Coral.with_progress db
          (fun ~rounds:_ ~delta ~lanes -> Query_log.progress entry ~delta ~lanes)
          (fun () -> Coral.Engine.query (Coral.engine db) lits))
  with
  | r ->
    finish "ok" (List.length r.Coral.Engine.rows);
    print_result r
  | exception Coral.Cancelled when Query_log.killed entry ->
    finish "killed" 0;
    print_endline "query killed."
  | exception e ->
    finish "error" 0;
    raise e

(* Items are processed with per-item fault isolation: an unknown
   predicate in one query must not abandon the rest of the batch. *)
let process_items db items =
  List.iter
    (fun item ->
      try
        match (item : Coral.Ast.item) with
        | Coral.Ast.Fact a when handle_command db a -> ()
        | Coral.Ast.Fact a ->
          Coral.fact db (Coral.Symbol.name a.Coral.Ast.pred) (Array.to_list a.Coral.Ast.args)
        | Coral.Ast.Clause_item r -> Coral.Engine.add_clause (Coral.engine db) r
        | Coral.Ast.Module_item m -> begin
          match Coral.Engine.load_module (Coral.engine db) m with
          | Ok () -> Printf.printf "module %s loaded.\n" m.Coral.Ast.mname
          | Error e -> diag "EVAL" e
        end
        | Coral.Ast.Query lits -> run_query db lits
        | Coral.Ast.Update (op, a) ->
          let facts = [ a.Coral.Ast.pred, a.Coral.Ast.args ] in
          let eng = Coral.engine db in
          let rep =
            match op with
            | Coral.Ast.Upd_insert -> Coral.Engine.insert_facts eng facts
            | Coral.Ast.Upd_retract -> Coral.Engine.retract_facts eng facts
          in
          let verb, noop_label =
            match op with
            | Coral.Ast.Upd_insert -> "inserted", "duplicate"
            | Coral.Ast.Upd_retract -> "retracted", "missing"
          in
          Printf.printf "%s %d, %s %d%s\n" verb rep.Coral.Engine.ur_applied noop_label
            rep.Coral.Engine.ur_noop
            (if rep.Coral.Engine.ur_maintained then
               Printf.sprintf " (maintenance: +%d -%d tuples, %d rounds)"
                 (rep.Coral.Engine.ur_derived + rep.Coral.Engine.ur_rederived)
                 rep.Coral.Engine.ur_deleted rep.Coral.Engine.ur_rounds
             else "")
        | Coral.Ast.Command (name, _) -> diag "PARSE" (Printf.sprintf "unknown command @%s" name)
      with
      | Coral.Engine.Engine_error e -> diag "EVAL" e
      | Coral.Builtin.Eval_error e -> diag "EVAL" ("evaluation error: " ^ e)
      | Failure e -> diag "EVAL" e)
    items

let process_text db text =
  match Coral.Parser.program text with
  | Ok items -> process_items db items
  | Error e -> diag "PARSE" (Format.asprintf "%a" Coral.Parser.pp_error e)

(* Read until a line whose trailing non-space character is '.' and the
   input parses (modules span many clauses, so keep reading while the
   parser reports an unterminated module). *)
let read_input () =
  let buf = Buffer.create 128 in
  let rec go prompt =
    print_string prompt;
    flush stdout;
    match In_channel.input_line stdin with
    | None -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | Some line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      let text = String.trim (Buffer.contents buf) in
      if text = "" then go "coral> "
      else begin
        let complete =
          text.[String.length text - 1] = '.'
          && begin
            match Coral.Parser.program text with
            | Ok _ -> true
            | Error e ->
              (* an open module keeps the prompt going; any other parse
                 error is reported immediately *)
              e.Coral.Parser.message <> "unterminated module (missing end_module)"
          end
        in
        if complete then Some (Buffer.contents buf) else go "     | "
      end
  in
  go "coral> "

let repl db =
  let rec loop () =
    match read_input () with
    | None ->
      print_newline ();
      exit 0
    | Some text ->
      (try process_text db text with
      | Coral.Engine.Engine_error e -> diag "EVAL" e
      | Coral.Builtin.Eval_error e -> diag "EVAL" ("evaluation error: " ^ e)
      | Failure e -> diag "EVAL" e);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Client mode: drive a running coral_server over its wire protocol    *)
(* ------------------------------------------------------------------ *)

let connect_fd target =
  if String.contains target ':' && not (String.contains target '/') then begin
    let i = String.rindex target ':' in
    let host = String.sub target 0 i in
    let port = int_of_string (String.sub target (i + 1) (String.length target - i - 1)) in
    let addr =
      match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
      | { Unix.ai_addr; _ } :: _ -> ai_addr
      | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    fd
  end
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX target);
    fd
  end

let client_mode target =
  let fd =
    try connect_fd target with
    | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s: %s\n" target (Unix.error_message e);
      exit 1
    | Failure _ ->
      Printf.eprintf "bad --connect target %s (host:port or socket path)\n" target;
      exit 1
  in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  (* print one reply: payload lines stripped of their prefixes, then
     the status line (errors in the repl's own diagnostic shape).
     [seen] counts payload lines already printed for this reply: EOF
     after payload but before the status line means the server died
     mid-report, and silently treating the truncated output as complete
     would be worse than no output at all.

     Overload handling: a shed request comes back as one
     [err BUSY <retry-after-ms> ...] line with no payload.  When
     [retry_ok], that reply is not printed — [`Busy ms] is returned so
     the caller can honor the advice (bounded) and resend once.  A
     BUSY on the resend prints like any other error. *)
  let rec print_reply ~retry_ok seen =
    match In_channel.input_line ic with
    | None ->
      if seen > 0 then begin
        Printf.eprintf
          "warning: connection closed mid-report after %d line%s; output above is truncated.\n"
          seen
          (if seen = 1 then "" else "s");
        exit 1
      end
      else begin
        print_endline "server closed the connection.";
        exit 0
      end
    | Some line when Coral_server.Protocol.is_status line ->
      if line = "ok" then `Done
      else if String.starts_with ~prefix:"ok " line then begin
        print_endline (String.sub line 3 (String.length line - 3));
        `Done
      end
      else begin
        match String.index_opt line ' ' with
        | Some i -> begin
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.index_opt rest ' ' with
          | Some j -> begin
            let code = String.sub rest 0 j in
            let msg = String.sub rest (j + 1) (String.length rest - j - 1) in
            let retry_ms =
              match String.index_opt msg ' ' with
              | Some k -> int_of_string_opt (String.sub msg 0 k)
              | None -> int_of_string_opt msg
            in
            match code, retry_ms with
            | "BUSY", Some ms when retry_ok && seen = 0 -> `Busy ms
            | _ ->
              diag code msg;
              `Done
          end
          | None ->
            diag rest "";
            `Done
        end
        | None ->
          print_endline line;
          `Done
      end
    | Some line ->
      let stripped =
        if String.starts_with ~prefix:"ans " line || String.starts_with ~prefix:"txt " line
        then String.sub line 4 (String.length line - 4)
        else line
      in
      print_endline stripped;
      print_reply ~retry_ok (seen + 1)
  in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then
    Printf.printf "connected to %s; protocol requests (query ..., stats, quit) one per line.\n"
      target;
  let rec loop () =
    if interactive then begin
      print_string "coral> ";
      flush stdout
    end;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
      let send () =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      send ();
      (match print_reply ~retry_ok:true 0 with
      | `Done -> ()
      | `Busy ms ->
        (* honor the server's backoff advice, capped so a hostile or
           confused server cannot park the client for minutes *)
        let ms = max 0 (min ms 2000) in
        if interactive then begin
          Printf.printf "server busy; retrying in %dms...\n" ms;
          flush stdout
        end;
        Unix.sleepf (float_of_int ms /. 1000.);
        send ();
        ignore (print_reply ~retry_ok:false 0));
      if String.trim line <> "quit" then loop ()
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ())

let () =
  let db = Coral.create () in
  (* first-class [insert f(...).] / [retract f(...).] propagate
     incrementally instead of forcing recompute-on-read *)
  Coral.Engine.set_maintenance (Coral.engine db) true;
  let files = ref [] and queries = ref [] and texts = ref [] in
  let batch = ref false and stats = ref false in
  let connect = ref "" in
  let rec parse_args = function
    | [] -> ()
    | "-q" :: q :: rest ->
      queries := q :: !queries;
      batch := true;
      parse_args rest
    | "-e" :: t :: rest ->
      texts := t :: !texts;
      parse_args rest
    | "--batch" :: rest ->
      batch := true;
      parse_args rest
    | "--stats" :: rest ->
      stats := true;
      parse_args rest
    | "--connect" :: target :: rest ->
      connect := target;
      parse_args rest
    | ("-h" | "--help") :: _ ->
      print_string
        "usage: coral [-q QUERY] [-e TEXT] [--batch] [--stats] [--connect HOST:PORT|PATH] [file.coral ...]\n";
      exit 0
    | file :: rest ->
      files := file :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !connect <> "" then begin
    client_mode !connect;
    exit 0
  end;
  List.iter
    (fun file ->
      try
        let results = Coral.Engine.consult_file (Coral.engine db) file in
        List.iter (fun (_, r) -> print_result r) results
      with Coral.Engine.Engine_error e ->
        diag "EVAL" (Printf.sprintf "loading %s: %s" file e);
        exit 1)
    (List.rev !files);
  List.iter (fun text -> process_text db text) (List.rev !texts);
  List.iter
    (fun q ->
      try print_result (Coral.Engine.query_string (Coral.engine db) q)
      with
      | Coral.Engine.Engine_error e -> diag "EVAL" e
      | Coral.Builtin.Eval_error e -> diag "EVAL" ("evaluation error: " ^ e))
    (List.rev !queries);
  if !stats then Format.printf "%a@." Coral.Engine.pp_stats (Coral.engine db);
  if not !batch then begin
    print_string banner;
    repl db
  end
