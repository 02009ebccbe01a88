type t =
  | Const of Value.t
  | Var of var
  | App of app

and var = { vid : int; vname : string }

and app = { sym : Symbol.t; args : t array; mutable hid : int; mutable gkey : int }

let const v = Const v
let int i = Const (Value.Int i)
let double f = Const (Value.Double f)
let str s = Const (Value.Str s)
let big b = Const (Value.Big b)

let var ?name vid =
  let vname = match name with Some n -> n | None -> "_" ^ string_of_int vid in
  Var { vid; vname }

let fresh_counter = Atomic.make 1_000_000

let fresh_var ?name () = var ?name (Atomic.fetch_and_add fresh_counter 1 + 1)

let app sym args = App { sym; args; hid = 0; gkey = 0 }
let atom s = app (Symbol.intern s) [||]
let nil = app Symbol.nil [||]
let cons h t = app Symbol.cons [| h; t |]
let list_of ts = List.fold_right cons ts nil

let to_list t =
  let rec go acc = function
    | App { sym; args = [||]; _ } when Symbol.equal sym Symbol.nil -> Some (List.rev acc)
    | App { sym; args = [| h; tl |]; _ } when Symbol.equal sym Symbol.cons -> go (h :: acc) tl
    | _ -> None
  in
  go [] t

(* --- Hash-consing ------------------------------------------------------
   Ground terms receive unique positive ids from one shared counter:
   constants through [value_ids], functor terms through [app_ids] keyed
   by (symbol id :: child ids).  Ids are memoized in the term's [hid]
   field ([-1] marks terms known to contain a variable).

   The id tables are process-global, so assignment is serialized by
   [hc_lock] — evaluation may run on several domains at once (the
   parallel fixpoint) and two workers consing the same new term must
   agree on its id.  The memoized [hid] is read outside the lock: a
   racy reader sees either 0 (and takes the lock) or the final id
   (ids are written once, after the table insert, and never change). *)

let hc_lock = Mutex.create ()
let next_id = ref 1

(* Keyed by Value's own equality/hash: opaque user types carry their
   operation closures, on which structural equality would be unsound
   (and raise). *)
module ValueTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let value_ids : int ValueTbl.t = ValueTbl.create 4096

let value_id v =
  match ValueTbl.find_opt value_ids v with
  | Some id -> id
  | None ->
    let id = !next_id in
    incr next_id;
    ValueTbl.add value_ids v id;
    id

module Key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b
    && begin
      let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
      go (Array.length a - 1)
    end

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    Array.iter (fun x -> h := (!h lxor x) * 0x01000193) a;
    !h land max_int
end

module KeyTbl = Hashtbl.Make (Key)

let app_ids : int KeyTbl.t = KeyTbl.create 4096

let rec ground_id_locked t =
  match t with
  | Const v -> Some (value_id v)
  | Var _ -> None
  | App a ->
    if a.hid > 0 then Some a.hid
    else if a.hid < 0 then None
    else begin
      let n = Array.length a.args in
      let key = Array.make (n + 1) (Symbol.id a.sym) in
      let ground = ref true in
      for i = 0 to n - 1 do
        if !ground then begin
          match ground_id_locked a.args.(i) with
          | Some id -> key.(i + 1) <- id
          | None -> ground := false
        end
      done;
      if not !ground then begin
        a.hid <- -1;
        None
      end
      else begin
        let id =
          match KeyTbl.find_opt app_ids key with
          | Some id -> id
          | None ->
            let id = !next_id in
            incr next_id;
            KeyTbl.add app_ids key id;
            id
        in
        a.hid <- id;
        Some id
      end
    end

let ground_id t =
  match t with
  | Var _ -> None
  | App a when a.hid > 0 -> Some a.hid
  | App a when a.hid < 0 -> None
  | Const _ | App _ ->
    Mutex.lock hc_lock;
    let r = ground_id_locked t in
    Mutex.unlock hc_lock;
    r

let mix h x = ((h * 0x01000193) lxor x) land max_int

(* Structural key of a ground term, memoized in [gkey] ([-1]: known
   non-ground).  Unlike [ground_id] this is a pure function of the
   term's structure — no table, no lock — so any two structurally equal
   terms produce the same key on any domain at any time.  Keys may
   collide (they are hashes, not unique ids); index probes treat
   matching keys as candidate supersets and unify afterwards.  The
   benign write race mirrors [hid]: every writer stores the same
   deterministic value. *)
let rec key t =
  match t with
  | Const v -> Value.hash v * 0x9e3779b1 land max_int
  | Var _ -> -1
  | App a ->
    if a.gkey > 0 then a.gkey
    else if a.gkey < 0 || a.hid < 0 then -1
    else begin
      let n = Array.length a.args in
      let rec go h i =
        if i >= n then h
        else begin
          let k = key a.args.(i) in
          if k < 0 then -1 else go (mix h k) (i + 1)
        end
      in
      let h = go (Symbol.hash a.sym land max_int) 0 in
      if h < 0 then begin
        a.gkey <- -1;
        -1
      end
      else begin
        let k = if h = 0 then 1 else h in
        a.gkey <- k;
        k
      end
    end

let ground_key t =
  let k = key t in
  if k < 0 then None else Some k

let is_ground t = key t >= 0

(* Process-stable structural hash.  [ground_key] mixes [Symbol.hash],
   which is the intern id — a function of interning ORDER, so two
   processes that loaded different programs disagree on it.  Here
   symbols contribute their names and values their contents, so any
   two processes (same build) agree; the distributed layer keys tuple
   ownership on this.  Variables all hash alike, mirroring
   [hash_mod_vars]. *)
let rec stable_hash t =
  match t with
  | Const v -> mix 0x811c9dc5 (Value.hash v)
  | Var _ -> 0x9e3779b9
  | App a ->
    Array.fold_left
      (fun h arg -> mix h (stable_hash arg))
      (mix 0x811c9dc5 (Hashtbl.hash (Symbol.name a.sym)))
      a.args

let rec equal t1 t2 =
  t1 == t2
  ||
  match t1, t2 with
  | Const a, Const b -> Value.equal a b
  | Var a, Var b -> a.vid = b.vid
  | App a, App b ->
    if a.hid > 0 && b.hid > 0 then a.hid = b.hid
    else
      Symbol.equal a.sym b.sym
      && Array.length a.args = Array.length b.args
      && begin
        let rec go i = i < 0 || (equal a.args.(i) b.args.(i) && go (i - 1)) in
        go (Array.length a.args - 1)
      end
  | (Const _ | Var _ | App _), _ -> false

let rec compare t1 t2 =
  if t1 == t2 then 0
  else begin
    match t1, t2 with
    | Const a, Const b -> Value.compare a b
    | Var a, Var b -> Int.compare a.vid b.vid
    | App a, App b ->
      let c = Symbol.compare a.sym b.sym in
      if c <> 0 then c
      else begin
        let la = Array.length a.args and lb = Array.length b.args in
        let c = Int.compare la lb in
        if c <> 0 then c
        else begin
          let rec go i =
            if i >= la then 0
            else begin
              let c = compare a.args.(i) b.args.(i) in
              if c <> 0 then c else go (i + 1)
            end
          in
          go 0
        end
      end
    | Const _, (Var _ | App _) -> -1
    | Var _, Const _ -> 1
    | Var _, App _ -> -1
    | App _, (Const _ | Var _) -> 1
  end

(* Hashing must agree for structurally equal terms whatever their
   consing state, on any domain, so it never consults the id tables:
   constants hash through [Value.hash], ground functor terms through
   their memoized structural [ground_key], and non-ground terms are
   walked (their hash depends on the salt, so there is nothing to
   memoize). *)
let rec hash_aux var_salt t =
  match t with
  | Const v -> Value.hash v * 0x9e3779b1 land max_int
  | Var v -> (if var_salt = 0 then v.vid * 0x9e3779b1 else var_salt) land max_int
  | App a -> begin
    match ground_key t with
    | Some k -> k
    | None ->
      let h = ref (Symbol.hash a.sym land max_int) in
      Array.iter (fun arg -> h := mix !h (hash_aux var_salt arg)) a.args;
      !h
  end

let hash t = hash_aux 0 t
let hash_mod_vars t = hash_aux 0x5f5f5f t

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
      if not (Hashtbl.mem seen v.vid) then begin
        Hashtbl.add seen v.vid ();
        acc := v :: !acc
      end
    | App a -> Array.iter go a.args
  in
  go t;
  List.rev !acc

let rec map_vars f t =
  match t with
  | Const _ -> t
  | Var v -> f v
  | App a ->
    if a.hid > 0 || a.gkey > 0 then t (* ground: no variables below *)
    else begin
      let changed = ref false in
      let args =
        Array.map
          (fun arg ->
            let arg' = map_vars f arg in
            if arg' != arg then changed := true;
            arg')
          a.args
      in
      if !changed then App { sym = a.sym; args; hid = 0; gkey = 0 } else t
    end

(* The one term printer, appending to a Buffer: Format only enters
   for an opaque value's own [o_print] (see [Value.to_buffer]). *)
let rec to_buffer buf t =
  match t with
  | Const v -> Value.to_buffer buf v
  | Var v -> Buffer.add_string buf v.vname
  | App { sym; args = [||]; _ } -> Buffer.add_string buf (Symbol.name sym)
  | App { sym; args; _ } when Symbol.equal sym Symbol.cons && Array.length args = 2 ->
    Buffer.add_char buf '[';
    let rec go first = function
      | App { sym; args = [||]; _ } when Symbol.equal sym Symbol.nil -> ()
      | App { sym; args = [| h; tl |]; _ } when Symbol.equal sym Symbol.cons ->
        if not first then Buffer.add_string buf ", ";
        to_buffer buf h;
        go false tl
      | tail ->
        Buffer.add_string buf " | ";
        to_buffer buf tail
    in
    go true t;
    Buffer.add_char buf ']'
  | App { sym; args; _ } ->
    Buffer.add_string buf (Symbol.name sym);
    Buffer.add_char buf '(';
    Array.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        to_buffer buf a)
      args;
    Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 16 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let hash_array arr =
  let h = ref 0x811c9dc5 in
  Array.iter (fun t -> h := mix !h (hash t)) arr;
  !h

let equal_array a b =
  Array.length a = Array.length b
  && begin
    let rec go i = i < 0 || (equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)
  end

module ArrayTbl = Hashtbl.Make (struct
  type nonrec t = t array

  let equal = equal_array
  let hash = hash_array
end)
