(* The parsed-text memo is an LRU: served workloads can present an
   unbounded stream of distinct query texts (varying constants), and an
   unbounded Hashtbl would grow without limit for the server's
   lifetime.  Doubly-linked nodes give O(1) touch and eviction. *)
type node = {
  ntext : string;
  form : Coral.Engine.form;  (* the parse, and the query rule once compiled *)
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  lock : Mutex.t;
      (* snapshot readers prepare without the store lock, so the cache
         guards itself; planning runs outside the mutex *)
  parsed : (string, node) Hashtbl.t;  (* query text -> parse, LRU-bounded *)
  parsed_capacity : int;
  mutable lru_head : node option;  (* most recently used *)
  mutable lru_tail : node option;  (* least recently used; next eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable unplanned : int;
  mutable evictions : int;
}

type stats = {
  parsed_entries : int;
  hits : int;
  misses : int;
  unplanned : int;
  evictions : int;
}

let create ?(parsed_capacity = 1024) () =
  { lock = Mutex.create ();
    parsed = Hashtbl.create 64;
    parsed_capacity = max 1 parsed_capacity;
    lru_head = None;
    lru_tail = None;
    hits = 0;
    misses = 0;
    unplanned = 0;
    evictions = 0
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.lru_head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.lru_head;
  (match t.lru_head with Some h -> h.prev <- Some n | None -> t.lru_tail <- Some n);
  t.lru_head <- Some n

let touch t n =
  match t.lru_head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let evict_excess t =
  while Hashtbl.length t.parsed > t.parsed_capacity do
    match t.lru_tail with
    | None -> assert false (* length > capacity >= 1 implies a tail *)
    | Some n ->
      unlink t n;
      Hashtbl.remove t.parsed n.ntext;
      t.evictions <- t.evictions + 1
  done

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let prepare t db text =
  let parse () =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.parsed text with
        | Some n ->
          touch t n;
          Ok n.form
        | None -> begin
          match Coral.Parser.query text with
          | Ok lits ->
            let n = { ntext = text; form = Coral.Engine.form lits; prev = None; next = None } in
            Hashtbl.add t.parsed text n;
            push_front t n;
            evict_excess t;
            Ok n.form
          | Error e -> Error e
        end)
  in
  match parse () with
  | Error e -> Error e
  | Ok form ->
    let lits = Coral.Engine.form_lits form in
    let prepared, tag = Coral.Engine.prepare (Coral.engine db) form in
    with_lock t (fun () ->
        match tag with
        | `Unplanned -> t.unplanned <- t.unplanned + 1
        | `Hit -> t.hits <- t.hits + 1
        | `Miss -> t.misses <- t.misses + 1);
    Ok (lits, tag, prepared)

let stats t =
  with_lock t (fun () ->
      { parsed_entries = Hashtbl.length t.parsed;
        hits = t.hits;
        misses = t.misses;
        unplanned = t.unplanned;
        evictions = t.evictions
      })
