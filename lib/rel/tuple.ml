open Coral_term

type t = {
  terms : Term.t array;
  nvars : int;
  hash : int;
  mutable killed : int;
}

(* Kill generations.  A live tuple's [killed] is [max_int]; a kill
   stamps the number of freezes taken so far, and a freeze takes the
   next number.  A view frozen at generation [g] then still sees every
   tuple killed after it ([killed > g]), while a live scan sees only
   unkilled tuples ([killed > live_gen]).  The counter is process-wide,
   so views of every relation order against every kill. *)
let clock = Atomic.make 0
let live_gen = max_int - 1
let freeze_generation () = Atomic.fetch_and_add clock 1

(* Tables keyed by a hash this layer already mixed (a tuple's [hash],
   an index key): used as is, without hashing it again. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

let combined_hash terms =
  let rec go h i =
    if i >= Array.length terms then h
    else go (((h * 0x01000193) lxor Term.hash_mod_vars terms.(i)) land max_int) (i + 1)
  in
  go 0x811c9dc5 0

let make terms env =
  let canon, nvars = Unify.canonicalize terms env in
  { terms = canon; nvars; hash = combined_hash canon; killed = max_int }

let of_terms terms = make terms Bindenv.empty
let of_ground terms = { terms; nvars = 0; hash = combined_hash terms; killed = max_int }

let arity t = Array.length t.terms

(* Ownership hash for hash partitioning: the stable hash of the key
   argument (clamped into the arity; arity-0 tuples all land in one
   partition).  Stable across processes — see [Term.stable_hash]. *)
let partition_hash ~key t =
  let n = Array.length t.terms in
  if n = 0 then 0
  else
    let k = if key >= 0 && key < n then key else 0 in
    Term.stable_hash t.terms.(k)
let is_ground t = t.nvars = 0
let kill t = t.killed <- Atomic.get clock
let live t = t.killed = max_int
let visible t gen = t.killed > gen

let rec equal_from (a : Term.t array) b i = i < 0 || (Term.equal a.(i) b.(i) && equal_from a b (i - 1))

let equal a b =
  a == b
  || a.hash = b.hash
     && Array.length a.terms = Array.length b.terms
     && (if a.nvars = 0 && b.nvars = 0 then equal_from a.terms b.terms (Array.length a.terms - 1)
         else a.nvars = b.nvars && Unify.variant a.terms b.terms)

let subsumes general specific =
  if general.nvars = 0 then equal general specific
  else Unify.subsumes (general.terms, general.nvars) (specific.terms, specific.nvars)

let to_string t =
  let buf = Buffer.create 32 in
  Buffer.add_char buf '(';
  Array.iteri
    (fun i term ->
      if i > 0 then Buffer.add_string buf ", ";
      Term.to_buffer buf term)
    t.terms;
  Buffer.add_char buf ')';
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
