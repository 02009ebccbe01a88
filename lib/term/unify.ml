open Term

(* Occurs check across environments: does variable (vid, venv) occur in
   the dereferenced expansion of t?  A ground compound (a hash-cons id
   or a ground key) holds no variable, so it is never walked. *)
let rec occurs vid venv t env =
  let t, env = Bindenv.deref t env in
  match t with
  | Var v -> v.vid = vid && env == venv
  | Const _ -> false
  | App a ->
    a.hid <= 0 && a.gkey <= 0
    && begin
      let rec go i = i >= 0 && (occurs vid venv a.args.(i) env || go (i - 1)) in
      go (Array.length a.args - 1)
    end

let rec unify tr t1 e1 t2 e2 =
  let t1, e1 = Bindenv.deref t1 e1 in
  let t2, e2 = Bindenv.deref t2 e2 in
  match t1, t2 with
  | Var v1, Var v2 when e1 == e2 && v1.vid = v2.vid -> true
  | Var v1, _ ->
    (not (occurs v1.vid e1 t2 e2))
    && begin
      Trail.bind tr e1 v1.vid t2 e2;
      true
    end
  | _, Var v2 ->
    (not (occurs v2.vid e2 t1 e1))
    && begin
      Trail.bind tr e2 v2.vid t1 e1;
      true
    end
  | Const a, Const b -> Value.equal a b
  | App a, App b -> begin
    (* Hash-consing fast path: ground terms unify iff ids are equal. *)
    match ground_id t1, ground_id t2 with
    | Some i, Some j -> i = j
    | Some _, None | None, Some _ | None, None ->
      Symbol.equal a.sym b.sym
      && Array.length a.args = Array.length b.args
      && unify_args tr a.args e1 b.args e2
  end
  | (Const _ | App _), _ -> false

and unify_args tr args1 e1 args2 e2 =
  let n = Array.length args1 in
  let rec go i = i >= n || (unify tr args1.(i) e1 args2.(i) e2 && go (i + 1)) in
  go 0

let unify_arrays tr a e1 b e2 =
  Array.length a = Array.length b && unify_args tr a e1 b e2

let rec match_ tr pat pe obj oe =
  let pat, pe = Bindenv.deref pat pe in
  let obj, oe = Bindenv.deref obj oe in
  match pat, obj with
  | Var v1, Var v2 when pe == oe && v1.vid = v2.vid -> true
  | Var v, _ ->
    Trail.bind tr pe v.vid obj oe;
    true
  | _, Var _ -> false
  | Const a, Const b -> Value.equal a b
  | App a, App b -> begin
    match ground_id pat, ground_id obj with
    | Some i, Some j -> i = j
    | Some _, None -> false (* ground pattern cannot match a non-ground object *)
    | None, (Some _ | None) ->
      Symbol.equal a.sym b.sym
      && Array.length a.args = Array.length b.args
      && match_args tr a.args pe b.args oe
  end
  | (Const _ | App _), _ -> false

and match_args tr args1 e1 args2 e2 =
  let n = Array.length args1 in
  let rec go i = i >= n || (match_ tr args1.(i) e1 args2.(i) e2 && go (i + 1)) in
  go 0

let match_arrays tr a e1 b e2 =
  Array.length a = Array.length b && match_args tr a e1 b e2

let rec resolve t env =
  let t, env = Bindenv.deref t env in
  match t with
  | Const _ | Var _ -> t
  | App a ->
    if a.hid > 0 || a.gkey > 0 then t
    else begin
      let changed = ref false in
      let args =
        Array.map
          (fun arg ->
            let arg' = resolve arg env in
            if arg' != arg then changed := true;
            arg')
          a.args
      in
      if !changed then App { sym = a.sym; args; hid = 0; gkey = 0 } else t
    end

let canonicalize tuple env =
  (* Unbound variables are identified by (environment, vid): the same
     vid in two environments is two different variables, so the walk
     dereferences with the environment in hand rather than resolving
     first and losing it. *)
  let next = ref 0 in
  let mapping : (Bindenv.t * int * Term.t) list ref = ref [] in
  let rename env vid =
    match List.find_opt (fun (e, v, _) -> e == env && v = vid) !mapping with
    | Some (_, _, t) -> t
    | None ->
      let t = Term.var ~name:("_V" ^ string_of_int !next) !next in
      incr next;
      mapping := (env, vid, t) :: !mapping;
      t
  in
  let rec walk t env =
    let t, env = Bindenv.deref t env in
    match t with
    | Const _ -> t
    | Var v -> rename env v.vid
    | App a ->
      if a.hid > 0 || a.gkey > 0 then t
      else App { sym = a.sym; args = Array.map (fun x -> walk x env) a.args; hid = 0; gkey = 0 }
  in
  let renamed = Array.map (fun t -> walk t env) tuple in
  renamed, !next

let subsumes (general, ng) (specific, ns) =
  Array.length general = Array.length specific
  && begin
    let tr = Trail.create () in
    let ge = Bindenv.create (max ng 1) in
    let se = Bindenv.create (max ns 1) in
    match_arrays tr general ge specific se
  end

let variant a b =
  Array.length a = Array.length b
  && begin
    (* One pass maintaining a bijection between variable ids. *)
    let fwd : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let bwd : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let rec go t1 t2 =
      match t1, t2 with
      | Const x, Const y -> Value.equal x y
      | Var v1, Var v2 -> begin
        match Hashtbl.find_opt fwd v1.vid, Hashtbl.find_opt bwd v2.vid with
        | Some m, Some m' -> m = v2.vid && m' = v1.vid
        | None, None ->
          Hashtbl.add fwd v1.vid v2.vid;
          Hashtbl.add bwd v2.vid v1.vid;
          true
        | Some _, None | None, Some _ -> false
      end
      | App x, App y ->
        (if x.hid > 0 && y.hid > 0 then x.hid = y.hid
         else
           Symbol.equal x.sym y.sym
           && Array.length x.args = Array.length y.args
           && begin
             let rec loop i = i < 0 || (go x.args.(i) y.args.(i) && loop (i - 1)) in
             loop (Array.length x.args - 1)
           end)
      | (Const _ | Var _ | App _), _ -> false
    in
    let rec loop i = i < 0 || (go a.(i) b.(i) && loop (i - 1)) in
    loop (Array.length a - 1)
  end
