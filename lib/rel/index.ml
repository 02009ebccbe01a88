open Coral_term

type path = int list

type spec =
  | Args of int list
  | Paths of path list

let spec_paths = function
  | Args cols -> List.map (fun c -> [ c ]) cols
  | Paths paths -> paths

let pp_spec ppf = function
  | Args cols ->
    Format.fprintf ppf "args(%s)" (String.concat "," (List.map string_of_int cols))
  | Paths paths ->
    let pp_path p = String.concat "." (List.map string_of_int p) in
    Format.fprintf ppf "paths(%s)" (String.concat "," (List.map pp_path paths))

let spec_equal a b = spec_paths a = spec_paths b

type t = {
  paths : path list;
  buckets : Tuple.t list ref Tuple.Tbl.t;
  mutable var_bucket : Tuple.t list;
  mutable mismatch : Tuple.t list;
      (* tuples structurally incompatible with the indexed positions:
         no probe through this index can match them, so they are stored
         but never returned *)
  mutable count : int;
}

let create spec =
  { paths = spec_paths spec;
    buckets = Tuple.Tbl.create 64;
    var_bucket = [];
    mismatch = [];
    count = 0
  }

(* Walk a stored tuple's term along a path.  [`Key k] for a ground
   subterm, [`Var] when a variable occurs at or above the position (the
   tuple could match any probe), [`Mismatch] when the structure cannot
   unify with any probe that is ground at this position.  Keys are
   structural hashes ([Term.ground_key], lock-free and identical on
   every domain), not unique ids: distinct terms may share a bucket,
   which is sound because probe results are candidate supersets the
   caller unifies. *)
let rec extract_term term path =
  match path with
  | [] -> begin
    match Term.ground_key term with
    | Some k -> `Key k
    | None -> `Var
  end
  | i :: rest -> begin
    match term with
    | Term.Var _ -> `Var
    | Term.Const _ -> `Mismatch
    | Term.App a -> if i < Array.length a.args then extract_term a.args.(i) rest else `Mismatch
  end

let extract_tuple paths (tuple : Tuple.t) =
  let rec go acc = function
    | [] -> `Key acc
    | path :: rest -> begin
      match path with
      | [] -> assert false
      | argpos :: inner ->
        if argpos >= Array.length tuple.Tuple.terms then `Mismatch
        else begin
          match extract_term tuple.Tuple.terms.(argpos) inner with
          | `Key id -> go (((acc * 0x01000193) lxor id) land max_int) rest
          | `Var -> `Var
          | `Mismatch -> `Mismatch
        end
    end
  in
  go 0x811c9dc5 paths

(* Walk a query pattern along a path, dereferencing through the binding
   environment.  Returns the ground key, or -1 if the pattern is not
   ground at some indexed position (index unusable); keys are never
   negative.  Only a compound whose variables the environment binds is
   rebuilt. *)
let rec pattern_key term env path =
  match (term : Term.t), path with
  | Term.Var v, _ -> begin
    match Bindenv.lookup env v.Term.vid with
    | Some (t, env') -> pattern_key t env' path
    | None -> -1
  end
  | Term.Const _, [] -> Term.key term
  | Term.Const _, _ :: _ -> -1
  | Term.App _, [] ->
    let k = Term.key term in
    if k >= 0 then k else Term.key (Unify.resolve term env)
  | Term.App a, i :: rest -> if i < Array.length a.args then pattern_key a.args.(i) env rest else -1

let insert idx tuple =
  idx.count <- idx.count + 1;
  match extract_tuple idx.paths tuple with
  | `Key key -> begin
    match Tuple.Tbl.find_opt idx.buckets key with
    | Some bucket -> bucket := tuple :: !bucket
    | None -> Tuple.Tbl.add idx.buckets key (ref [ tuple ])
  end
  | `Var -> idx.var_bucket <- tuple :: idx.var_bucket
  | `Mismatch -> idx.mismatch <- tuple :: idx.mismatch

(* The bucket key a query pattern probes, or -1 when the pattern is
   not ground at every indexed position (the index is unusable). *)
let rec paths_key pattern env acc = function
  | [] -> acc
  | [] :: _ -> -1
  | (argpos :: inner) :: rest ->
    if argpos >= Array.length pattern then -1
    else begin
      let id = pattern_key pattern.(argpos) env inner in
      if id < 0 then -1 else paths_key pattern env (((acc * 0x01000193) lxor id) land max_int) rest
    end

let key idx pattern env = paths_key pattern env 0x811c9dc5 idx.paths

let keyed idx key = match Tuple.Tbl.find idx.buckets key with b -> !b | exception Not_found -> []
let var_bucket idx = idx.var_bucket

let rec iter_list gen f = function
  | [] -> true
  | (t : Tuple.t) :: rest -> ((not (Tuple.visible t gen)) || f t) && iter_list gen f rest

(* Probe order: the var bucket oldest first, then the key's bucket
   newest first. *)
let iter_candidates ~gen ~var ~keyed f =
  (match var with [] -> true | _ :: _ -> iter_list gen f (List.rev var)) && iter_list gen f keyed

let cardinal idx = idx.count
