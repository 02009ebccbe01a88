(* Workload generators: graphs and program texts used across the
   experiments.  A deterministic LCG keeps every run reproducible. *)

let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* perfbench's bound_query graph: an [n]-node ring, shuffled, with one
   chord per node *)
let bound_query_edges n =
  let next = lcg 7 in
  let name = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = next (i + 1) in
    let t = name.(i) in
    name.(i) <- name.(j);
    name.(j) <- t
  done;
  List.sort_uniq compare
    (List.concat (List.init n (fun i -> [ name.(i), name.((i + 1) mod n); name.(i), name.(next n) ])))

let chain n = List.init (n - 1) (fun i -> i, i + 1)
let cycle n = List.init n (fun i -> i, (i + 1) mod n)

(* an n x n grid, edges right and down: many alternative paths *)
let grid n =
  List.concat_map
    (fun i ->
      List.concat_map
        (fun j ->
          let v i j = (i * n) + j in
          (if j + 1 < n then [ v i j, v i (j + 1) ] else [])
          @ if i + 1 < n then [ v i j, v (i + 1) j ] else [])
        (List.init n Fun.id))
    (List.init n Fun.id)

let random_graph ~seed ~nodes ~edges =
  let next = lcg seed in
  List.init edges (fun _ -> next nodes, next nodes) |> List.filter (fun (a, b) -> a <> b)

(* complete binary tree with n = 2^depth - 1 nodes: (child, parent) *)
let tree_parents depth =
  let n = (1 lsl depth) - 1 in
  List.init (n - 1) (fun i -> i + 2, (i + 2) / 2)

(* a ring with random chords, positive weights: cyclic and connected *)
let weighted_ring ~seed n =
  let next = lcg seed in
  List.init n (fun i -> i, (i + 1) mod n, 1 + next 10)
  @ List.filter_map
      (fun _ ->
        let a = next n and b = next n in
        if a = b then None else Some (a, b, 1 + next 100))
      (List.init (2 * n) Fun.id)

(* a layered DAG: [layers] layers of [width] nodes, every node linked to
   every node of the next layer — path counts grow as width^layers *)
let layered_dag ~layers ~width =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun i ->
          List.map (fun j -> (l * width) + i, ((l + 1) * width) + j) (List.init width Fun.id))
        (List.init width Fun.id))
    (List.init (layers - 1) Fun.id)

let load_pairs db name pairs =
  List.iter (fun (a, b) -> Coral.fact db name [ Coral.int a; Coral.int b ]) pairs

let load_triples db name triples =
  List.iter
    (fun (a, b, c) -> Coral.fact db name [ Coral.int a; Coral.int b; Coral.int c ])
    triples

(* transitive closure module, parameterized by annotations *)
let tc_module ?(pred = "path") ?(edge = "edge") anns =
  Printf.sprintf
    {|
module m_%s.
export %s(bf).
export %s(ff).
%s
%s(X, Y) :- %s(X, Y).
%s(X, Y) :- %s(X, Z), %s(Z, Y).
end_module.
|}
    pred pred pred anns pred edge pred edge pred

(* right-recursive version (pipelining-friendly: no left recursion) *)
let tc_module_right ?(pred = "path") ?(edge = "edge") anns =
  tc_module ~pred ~edge anns

let sg_module ?(pred = "sg") anns =
  Printf.sprintf
    {|
module m_%s.
export %s(bf).
%s
%s(X, X) :- person(X).
%s(X, Y) :- par(X, XP), %s(XP, YP), par(Y, YP).
end_module.
|}
    pred pred anns pred pred pred

let shortest_path_module ~with_selection =
  Printf.sprintf
    {|
module s_p.
export s_p(bfff).
%s
s_p(X, Y, P, C)       :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1)       :- p(X, Z, P, C), edge(Z, Y, EC),
                         append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
|}
    (if with_selection then
       "@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\n\
        @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P)."
     else "")

(* k mutually recursive predicates in a cycle over one edge relation:
   p0 -> p1 -> ... -> p(k-1) -> p0 *)
let mutual_module k =
  let b = Buffer.create 256 in
  Buffer.add_string b "module mutual.\nexport p0(bf).\n";
  for i = 0 to k - 1 do
    let prev = (i + k - 1) mod k in
    Buffer.add_string b (Printf.sprintf "p%d(X, Y) :- edge(X, Y).\n" i);
    Buffer.add_string b (Printf.sprintf "p%d(X, Y) :- p%d(X, Z), edge(Z, Y).\n" i prev)
  done;
  Buffer.add_string b "end_module.\n";
  Buffer.contents b

(* win/move game (modularly stratified negation) *)
let game_module = {|
module game.
export win(b).
win(X) :- move(X, Y), not win(Y).
end_module.
|}

let fresh_db () = Coral.create ()
