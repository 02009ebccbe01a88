open Coral_term

type t = {
  name : string;
  arity : int;
  mutable multiset : bool;
  mutable admit : (t -> Tuple.t -> bool) option;
  mutable scan_safe : bool;
  impl : impl;
  stats : stats;
}

and impl = {
  i_insert : dedup:bool -> Tuple.t -> bool;
  i_delete : pattern:(Term.t array * Bindenv.t) option -> (Tuple.t -> bool) -> int;
  i_retire : Tuple.t -> unit;
  i_mark : unit -> int;
  i_marks : unit -> int;
  i_cardinal : unit -> int;
  i_add_index : Index.spec -> unit;
  i_indexes : unit -> Index.spec list;
  i_scan :
    from_mark:int -> to_mark:int -> pattern:(Term.t array * Bindenv.t) option -> Tuple.t Seq.t;
  i_iter :
    from_mark:int ->
    to_mark:int ->
    pattern:(Term.t array * Bindenv.t) option ->
    (Tuple.t -> bool) ->
    unit;
  i_mem : Tuple.t -> bool;
  i_clear : unit -> unit;
  i_freeze : unit -> frozen option;
}

and stats = {
  mutable inserts : int;
  mutable duplicates : int;
  mutable scans : int;
}

(* An immutable snapshot view of a relation's sealed contents, captured
   by [freeze].  Everything a frozen view hands out was published
   before the freeze, so readers on other domains may scan it without
   any lock — the snapshot layer publishes the view through an atomic,
   which gives the happens-before edge for every captured cell. *)
and frozen = {
  f_scan : pattern:(Term.t array * Bindenv.t) option -> Tuple.t Seq.t;
  f_iter : pattern:(Term.t array * Bindenv.t) option -> (Tuple.t -> bool) -> unit;
  f_mem : Tuple.t -> bool;
  f_cardinal : int;
  f_indexes : Index.spec list;
}

(* Global work counters across every relation: the benchmark harness
   reads these as machine-independent measures of evaluation work.
   Tuples visited are the candidates scans hand a join, credited by
   the join kernel once per rule application. *)
let g_inserts = ref 0
let g_duplicates = ref 0
let g_scans = ref 0
let g_visited = ref 0

let global_stats () = !g_inserts, !g_duplicates, !g_scans
let tuples_visited () = !g_visited

let reset_global_stats () =
  g_inserts := 0;
  g_duplicates := 0;
  g_scans := 0;
  g_visited := 0

let v ~name ~arity impl =
  { name;
    arity;
    multiset = false;
    admit = None;
    scan_safe = false;
    impl;
    stats = { inserts = 0; duplicates = 0; scans = 0 }
  }

let insert r tuple =
  let admitted = match r.admit with None -> true | Some hook -> hook r tuple in
  if admitted && r.impl.i_insert ~dedup:(not r.multiset) tuple then begin
    r.stats.inserts <- r.stats.inserts + 1;
    incr g_inserts;
    true
  end
  else begin
    r.stats.duplicates <- r.stats.duplicates + 1;
    incr g_duplicates;
    false
  end

(* Uncounted insert for evaluator-private scratch relations (deltas,
   candidates, round-local dedup): the counters measure work on stored
   and derived relations only. *)
let insert_quiet r tuple = r.impl.i_insert ~dedup:(not r.multiset) tuple

let insert_terms r terms = insert r (Tuple.of_terms terms)

let delete r ?pattern pred = r.impl.i_delete ~pattern pred
let retire r tuple = r.impl.i_retire tuple
let mark r = r.impl.i_mark ()
let marks r = r.impl.i_marks ()
let cardinal r = r.impl.i_cardinal ()

let scan r ?(from_mark = 0) ?(to_mark = -1) ?pattern () =
  r.stats.scans <- r.stats.scans + 1;
  incr g_scans;
  r.impl.i_scan ~from_mark ~to_mark ~pattern

(* Uncounted scan for parallel workers: the stats cells are plain
   mutable ints owned by the merge thread, so workers count their scans
   in task-local arrays and the merge flushes them via [note_scans]. *)
let scan_quiet r ?(from_mark = 0) ?(to_mark = -1) ?pattern () =
  r.impl.i_scan ~from_mark ~to_mark ~pattern

let iter r ~from_mark ~to_mark ~pattern f =
  r.stats.scans <- r.stats.scans + 1;
  incr g_scans;
  r.impl.i_iter ~from_mark ~to_mark ~pattern f

let iter_quiet r ~from_mark ~to_mark ~pattern f = r.impl.i_iter ~from_mark ~to_mark ~pattern f

let iter_of_scan scan ~from_mark ~to_mark ~pattern f =
  let rec go seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons (t, rest) -> if f t then go rest
  in
  go (scan ~from_mark ~to_mark ~pattern)

let note_scans r n =
  r.stats.scans <- r.stats.scans + n;
  g_scans := !g_scans + n

let note_duplicates r n =
  r.stats.duplicates <- r.stats.duplicates + n;
  g_duplicates := !g_duplicates + n

let note_visited n = g_visited := !g_visited + n

let mem r tuple = r.impl.i_mem tuple

let to_list r = List.of_seq (scan r ())
let add_index r spec = r.impl.i_add_index spec
let indexes r = r.impl.i_indexes ()
let clear r = r.impl.i_clear ()

(* A frozen view wrapped back into the uniform interface: evaluation
   scans it exactly like any other base relation.  Mark semantics mirror
   persistent relations (no marks; a delta scan from a positive mark is
   empty), which is the established contract for base relations that
   cannot be incrementally delta-scanned.  Writes raise: the snapshot
   layer routes every mutation through the live master relation.  The
   view reports the index specs its captured stores carry; asking it
   for one they lack hands the spec to [on_miss] and changes nothing. *)
let freeze ?on_miss r =
  match r.impl.i_freeze () with
  | None -> None
  | Some fz ->
    let read_only () =
      failwith (r.name ^ ": snapshot views are read-only; mutate through the write lane")
    in
    let impl =
      { i_insert = (fun ~dedup:_ _ -> read_only ());
        i_delete = (fun ~pattern:_ _ -> read_only ());
        i_retire = (fun _ -> read_only ());
        i_mark = (fun () -> 0);
        i_marks = (fun () -> 0);
        i_cardinal = (fun () -> fz.f_cardinal);
        i_add_index =
          (fun spec ->
            if not (List.exists (Index.spec_equal spec) fz.f_indexes) then
              Option.iter (fun forward -> forward spec) on_miss);
        i_indexes = (fun () -> fz.f_indexes);
        i_scan =
          (fun ~from_mark ~to_mark:_ ~pattern ->
            if from_mark > 0 then Seq.empty else fz.f_scan ~pattern);
        i_iter = (fun ~from_mark ~to_mark:_ ~pattern f -> if from_mark = 0 then fz.f_iter ~pattern f);
        i_mem = fz.f_mem;
        i_clear = (fun () -> read_only ());
        i_freeze = (fun () -> Some fz)
      }
    in
    let fr = v ~name:r.name ~arity:r.arity impl in
    fr.multiset <- r.multiset;
    fr.scan_safe <- true;
    Some fr

let pp ppf r =
  Format.fprintf ppf "@[<v>%s/%d (%d tuples)@,@]" r.name r.arity (cardinal r);
  Seq.iter (fun t -> Format.fprintf ppf "%s%a@," r.name Tuple.pp t) (scan r ())
