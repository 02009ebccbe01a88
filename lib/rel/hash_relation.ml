open Coral_term

(* Subsidiary relations are kept in a growable array indexed by mark
   interval, so a scan over a mark range selects its subsidiaries in
   O(selected) — semi-naive delta scans touch one or two subsidiaries
   regardless of how many iterations have passed.  Index stores live on
   each subsidiary (the paper: "the indexing mechanisms are used on each
   subsidiary relation"); the duplicate table is relation-global since
   duplicate checks always span all marks.

   Every freeze seals the open subsidiary, so a relation published once
   per commit would gain a subsidiary per commit.  Freezing therefore
   also merges sealed subsidiaries, size-tiered (see [merge_sealed]),
   which renumbers marks.  Marks are held only on fixpoint-local
   relations (semi-naive deltas, answer cursors), and those are never
   frozen; base relations and maintained extents are frozen but never
   marked. *)

type sub = {
  mutable tuples : Tuple.t array;
  mutable n : int;
  mutable stores : Index.t list;  (* one per index spec, same order *)
  mutable live : int;  (* tuples of this subsidiary not yet killed *)
}

(* A duplicate-table entry: a live tuple and the subsidiary holding it,
   so a kill can keep that subsidiary's live count exact. *)
type entry = {
  tuple : Tuple.t;
  mutable home : sub;
}

type state = {
  mutable subs : sub array;  (* oldest first; subs.(nsubs-1) is open *)
  mutable nsubs : int;
  mutable specs : Index.spec list;
  mutable live : int;
  dups : entry list ref Tuple.Tbl.t;  (* live tuples by hash *)
  mutable nonground : Tuple.t list;
}

let dummy_tuple = Tuple.of_terms [||]

let new_sub ?(capacity = 8) specs =
  { tuples = Array.make (max 8 capacity) dummy_tuple;
    n = 0;
    stores = List.map Index.create specs;
    live = 0
  }

let dummy_sub = { tuples = [||]; n = 0; stores = []; live = 0 }

let push_sub st =
  if st.nsubs >= Array.length st.subs then begin
    let bigger = Array.make (max 4 (2 * Array.length st.subs)) dummy_sub in
    Array.blit st.subs 0 bigger 0 st.nsubs;
    st.subs <- bigger
  end;
  st.subs.(st.nsubs) <- new_sub st.specs;
  st.nsubs <- st.nsubs + 1

let rec index_into stores tuple =
  match stores with
  | [] -> ()
  | store :: rest ->
    Index.insert store tuple;
    index_into rest tuple

let sub_append sub (tuple : Tuple.t) =
  if sub.n >= Array.length sub.tuples then begin
    let bigger = Array.make (2 * Array.length sub.tuples) tuple in
    Array.blit sub.tuples 0 bigger 0 sub.n;
    sub.tuples <- bigger
  end;
  sub.tuples.(sub.n) <- tuple;
  sub.n <- sub.n + 1;
  sub.live <- sub.live + 1;
  index_into sub.stores tuple

let find_entry st (tuple : Tuple.t) =
  match Tuple.Tbl.find_opt st.dups tuple.Tuple.hash with
  | Some bucket -> List.find_opt (fun e -> e.tuple == tuple) !bucket
  | None -> None

(* Tombstone a live stored tuple.  Its duplicate entry goes with it, so
   a fact that flaps leaves nothing behind in its bucket. *)
let kill st (tuple : Tuple.t) =
  Tuple.kill tuple;
  st.live <- st.live - 1;
  let h = tuple.Tuple.hash in
  match Tuple.Tbl.find_opt st.dups h with
  | Some bucket ->
    let mine, others = List.partition (fun e -> e.tuple == tuple) !bucket in
    List.iter (fun e -> e.home.live <- e.home.live - 1) mine;
    if others = [] then Tuple.Tbl.remove st.dups h else bucket := others
  | None -> ()

let rec in_bucket (tuple : Tuple.t) = function
  | [] -> false
  | e :: rest -> (Tuple.live e.tuple && Tuple.equal e.tuple tuple) || in_bucket tuple rest

let is_duplicate st (tuple : Tuple.t) =
  (match Tuple.Tbl.find st.dups tuple.Tuple.hash with
  | bucket -> in_bucket tuple !bucket
  | exception Not_found -> false)
  ||
  match st.nonground with
  | [] -> false
  | nonground -> List.exists (fun ex -> Tuple.live ex && Tuple.subsumes ex tuple) nonground

(* Inserting a more general non-ground tuple retires the tuples it
   strictly subsumes: answers are preserved (every instance of a
   subsumed tuple is an instance of the subsuming one). *)
let retire_subsumed st (tuple : Tuple.t) =
  for s = 0 to st.nsubs - 1 do
    let sub = st.subs.(s) in
    for i = 0 to sub.n - 1 do
      let ex = sub.tuples.(i) in
      if Tuple.live ex && Tuple.subsumes tuple ex then kill st ex
    done
  done

(* The live tuples of two adjacent sealed subsidiaries, oldest first, in
   a fresh subsidiary with fresh index stores.  The old arrays and
   stores are left untouched: earlier frozen views still read them. *)
let merge_two st (older : sub) (newer : sub) =
  let m = new_sub ~capacity:(older.live + newer.live) st.specs in
  let take (sub : sub) =
    for i = 0 to sub.n - 1 do
      let t = sub.tuples.(i) in
      if Tuple.live t then begin
        sub_append m t;
        Option.iter (fun e -> e.home <- m) (find_entry st t)
      end
    done
  in
  take older;
  take newer;
  m

(* Size-tiered merging, run at freeze: adjacent sealed subsidiaries
   merge while the older holds at most twice the newer's live tuples.
   Afterwards each sealed subsidiary holds more than twice the live
   tuples of the next, so a relation with L live tuples has at most
   about log2 L + 2 of them, and every tuple is copied O(log L) times
   over its life.  Merging drops dead tuples. *)
let merge_sealed st =
  let nsealed = st.nsubs - 1 in
  let stack : sub array = Array.make (max 1 nsealed) dummy_sub in
  let top = ref 0 in
  for s = 0 to nsealed - 1 do
    stack.(!top) <- st.subs.(s);
    incr top;
    while !top >= 2 && stack.(!top - 2).live <= 2 * stack.(!top - 1).live do
      stack.(!top - 2) <- merge_two st stack.(!top - 2) stack.(!top - 1);
      decr top
    done
  done;
  if !top < nsealed then begin
    let subs = Array.make (max 4 (2 * (!top + 1))) dummy_sub in
    Array.blit stack 0 subs 0 !top;
    subs.(!top) <- st.subs.(nsealed);
    st.subs <- subs;
    st.nsubs <- !top + 1;
    st.nonground <- List.filter Tuple.live st.nonground
  end

let rec iter_array gen tuples n i f =
  i >= n
  || (let t = tuples.(i) in
      (not (Tuple.visible t gen)) || f t)
     && iter_array gen tuples n (i + 1) f

let iter_bucket gen (sub : sub) pos key f =
  let store = List.nth sub.stores pos in
  Index.iter_candidates ~gen ~var:(Index.var_bucket store) ~keyed:(Index.keyed store key) f

(* Subsidiaries [s, last) with the chosen probe ([pos] < 0: none), the
   last one read up to its extent at opening ([top_n], or the buckets
   [top_var] and [top_keyed]). *)
let rec iter_from subs s last gen pos key top_n top_var top_keyed f =
  if s = last - 1 then begin
    if pos < 0 then ignore (iter_array gen subs.(s).tuples top_n 0 f)
    else ignore (Index.iter_candidates ~gen ~var:top_var ~keyed:top_keyed f)
  end
  else begin
    let sub = subs.(s) in
    let more = if pos < 0 then iter_array gen sub.tuples sub.n 0 f else iter_bucket gen sub pos key f in
    if more then iter_from subs (s + 1) last gen pos key top_n top_var top_keyed f
  end

(* The join kernel's read path: hand [f] the candidates of subsidiaries
   [first, last) visible at [gen], oldest subsidiary first, until [f]
   returns false.  A pattern probes, in every subsidiary, the first
   index whose positions it binds (each subsidiary carries one store
   per spec, in spec order); without one, subsidiaries hand out their
   arrays.  [f] may insert into this relation, which extends only the
   open subsidiary, so the extent of the last one is read before the
   first candidate, as a [scan] snapshots it when opened. *)
let rec probe_from subs first last gen top args env pos stores f =
  match stores with
  | [] -> iter_from subs first last gen (-1) 0 top.n [] [] f
  | store :: rest ->
    let key = Index.key store args env in
    if key < 0 then probe_from subs first last gen top args env (pos + 1) rest f
    else
      iter_from subs first last gen pos key 0 (Index.var_bucket store) (Index.keyed store key) f

let iter_subs (subs : sub array) first last ~gen ~pattern f =
  if first < last then begin
    let top = subs.(last - 1) in
    match pattern with
    | None -> iter_from subs first last gen (-1) 0 top.n [] [] f
    | Some (args, env) -> probe_from subs first last gen top args env 0 top.stores f
  end

let create ?(indexes = []) ~name ~arity () =
  let st =
    { subs = Array.make 4 dummy_sub;
      nsubs = 0;
      specs = indexes;
      live = 0;
      dups = Tuple.Tbl.create 256;
      nonground = []
    }
  in
  push_sub st;
  let insert ~dedup tuple =
    if dedup && is_duplicate st tuple then false
    else begin
      if dedup && not (Tuple.is_ground tuple) then retire_subsumed st tuple;
      let sub = st.subs.(st.nsubs - 1) in
      sub_append sub tuple;
      let e = { tuple; home = sub } in
      (match Tuple.Tbl.find_opt st.dups tuple.Tuple.hash with
      | Some bucket -> bucket := e :: !bucket
      | None -> Tuple.Tbl.add st.dups tuple.Tuple.hash (ref [ e ]));
      if not (Tuple.is_ground tuple) then st.nonground <- tuple :: st.nonground;
      st.live <- st.live + 1;
      true
    end
  in
  let rec seq_array arr limit i () =
    if i >= limit then Seq.Nil else Seq.Cons (arr.(i), seq_array arr limit (i + 1))
  in
  let candidates ~tuples ~stores ~limit ~pattern =
    match pattern with
    | Some (args, env) ->
      let rec try_stores = function
        | [] -> None
        | store :: rest -> begin
          match Index.probe store args env with
          | Some found -> Some found
          | None -> try_stores rest
        end
      in
      (match try_stores stores with
      | Some found -> List.to_seq found
      | None -> seq_array tuples limit 0)
    | None -> seq_array tuples limit 0
  in
  let candidates_of_sub sub ~pattern ~snapshot =
    candidates ~tuples:sub.tuples ~stores:sub.stores ~limit:snapshot ~pattern
  in
  let scan ~from_mark ~to_mark ~pattern =
    let last = if to_mark < 0 then st.nsubs else min to_mark st.nsubs in
    let from_mark = max 0 from_mark in
    (* Snapshot each subsidiary's length now: tuples inserted after the
       scan opens are not seen (mark semantics for the open interval). *)
    let parts = ref [] in
    for s = last - 1 downto from_mark do
      let sub = st.subs.(s) in
      if sub.n > 0 then parts := candidates_of_sub sub ~pattern ~snapshot:sub.n :: !parts
    done;
    Seq.filter Tuple.live (List.fold_right Seq.append !parts Seq.empty)
  in
  let iter ~from_mark ~to_mark ~pattern f =
    let last = if to_mark < 0 then st.nsubs else min to_mark st.nsubs in
    iter_subs st.subs (max 0 from_mark) last ~gen:Tuple.live_gen ~pattern f
  in
  let delete ~pattern pred =
    let count = ref 0 in
    Seq.iter
      (fun t ->
        if pred t then begin
          kill st t;
          incr count
        end)
      (scan ~from_mark:0 ~to_mark:(-1) ~pattern);
    !count
  in
  let impl =
    { Relation.i_insert = insert;
      i_delete = delete;
      i_retire = (fun t -> if Tuple.live t then kill st t);
      i_mark =
        (fun () ->
          push_sub st;
          st.nsubs - 1);
      i_marks = (fun () -> st.nsubs - 1);
      i_cardinal = (fun () -> st.live);
      i_add_index =
        (fun spec ->
          if not (List.exists (Index.spec_equal spec) st.specs) then begin
            st.specs <- st.specs @ [ spec ];
            for s = 0 to st.nsubs - 1 do
              let sub = st.subs.(s) in
              let store = Index.create spec in
              for i = 0 to sub.n - 1 do
                let t = sub.tuples.(i) in
                if Tuple.live t then Index.insert store t
              done;
              sub.stores <- sub.stores @ [ store ]
            done
          end);
      i_indexes = (fun () -> st.specs);
      i_scan = scan;
      i_iter = iter;
      i_mem = (fun tuple -> is_duplicate st tuple);
      i_freeze =
        (fun () ->
          (* Seal the open subsidiary (unless already empty) so every
             captured array has reached its final extent, and merge
             sealed subsidiaries; then capture each sealed subsidiary's
             cells by VALUE into a fresh record — the tuples array, its
             length, and the store list — because the live relation may
             later grow new index stores, merge subsidiaries or
             reallocate the subs array, and a frozen reader must never
             chase those.  Sealed tuple arrays and their stores are never
             written again (a merge builds fresh ones), so the capture
             is immutable; kills after the freeze stamp a later
             generation than the view's, so it still sees those tuples
             (DESIGN.md §11, kill generations). *)
          if st.subs.(st.nsubs - 1).n > 0 then push_sub st;
          merge_sealed st;
          let gen = Tuple.freeze_generation () in
          let nsealed = st.nsubs - 1 in
          let snaps =
            Array.init nsealed (fun s ->
                let sub = st.subs.(s) in
                { tuples = sub.tuples; n = sub.n; stores = sub.stores; live = sub.live })
          in
          let f_scan ~pattern =
            let parts = ref [] in
            for s = nsealed - 1 downto 0 do
              let sub = snaps.(s) in
              if sub.n > 0 then
                parts :=
                  candidates ~tuples:sub.tuples ~stores:sub.stores ~limit:sub.n ~pattern :: !parts
            done;
            Seq.filter
              (fun (t : Tuple.t) -> Tuple.visible t gen)
              (List.fold_right Seq.append !parts Seq.empty)
          in
          let f_iter ~pattern f = iter_subs snaps 0 nsealed ~gen ~pattern f in
          let f_mem (tuple : Tuple.t) =
            let pattern =
              if Tuple.is_ground tuple then Some (tuple.Tuple.terms, Bindenv.empty) else None
            in
            Seq.exists (fun ex -> Tuple.subsumes ex tuple) (f_scan ~pattern)
          in
          Some { Relation.f_scan; f_iter; f_mem; f_cardinal = st.live; f_indexes = st.specs });
      i_clear =
        (fun () ->
          st.subs <- Array.make 4 dummy_sub;
          st.nsubs <- 0;
          push_sub st;
          st.live <- 0;
          Tuple.Tbl.reset st.dups;
          st.nonground <- [])
    }
  in
  let r = Relation.v ~name ~arity impl in
  (* Scans snapshot subsidiary lengths and arrays only grow by copy, so
     readers on other domains are safe while the owner inserts. *)
  r.Relation.scan_safe <- true;
  r
