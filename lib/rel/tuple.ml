open Coral_term

type t = {
  terms : Term.t array;
  nvars : int;
  hash : int;
  mutable dead : bool;
}

let combined_hash terms =
  let h = ref 0x811c9dc5 in
  Array.iter (fun t -> h := ((!h * 0x01000193) lxor Term.hash_mod_vars t) land max_int) terms;
  !h

let make terms env =
  let canon, nvars = Unify.canonicalize terms env in
  { terms = canon; nvars; hash = combined_hash canon; dead = false }

let of_terms terms = make terms Bindenv.empty

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
let kill t = t.dead <- true

let equal a b =
  a == b
  || a.hash = b.hash
     && Array.length a.terms = Array.length b.terms
     && (if a.nvars = 0 && b.nvars = 0 then begin
           let rec go i = i < 0 || (Term.equal a.terms.(i) b.terms.(i) && go (i - 1)) in
           go (Array.length a.terms - 1)
         end
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
