type state = {
  mutable intervals : Tuple.t list list;  (* newest interval first, each newest tuple first *)
  mutable live : int;
}

(* Hand [f] the tuples of the intervals [\[from_mark, to_mark)] visible
   at [gen], oldest interval first and oldest tuple first, until it
   returns false.  The interval lists are immutable, so a read never
   sees tuples inserted after it started. *)
let iter_intervals gen intervals ~from_mark ~to_mark f =
  let oldest_first = List.rev intervals in
  let total = List.length oldest_first in
  let last = if to_mark < 0 then total else min to_mark total in
  let rec go i = function
    | l :: rest when i < last ->
      if i < from_mark || List.for_all (fun t -> (not (Tuple.visible t gen)) || f t) (List.rev l)
      then go (i + 1) rest
    | _ -> ()
  in
  go 0 oldest_first

let create ~name ~arity () =
  let st = { intervals = [ [] ]; live = 0 } in
  let all_live () =
    List.concat_map (List.filter Tuple.live) st.intervals
  in
  let insert ~dedup tuple =
    let dup =
      dedup
      && List.exists
           (fun ex -> Tuple.live ex && Tuple.subsumes ex tuple)
           (List.concat st.intervals)
    in
    if dup then false
    else begin
      (match st.intervals with
      | current :: rest -> st.intervals <- (tuple :: current) :: rest
      | [] -> st.intervals <- [ [ tuple ] ]);
      st.live <- st.live + 1;
      true
    end
  in
  let impl =
    { Relation.i_insert = insert;
      i_retire =
        (fun t ->
          if Tuple.live t then begin
            Tuple.kill t;
            st.live <- st.live - 1
          end);
      i_delete =
        (fun ~pattern pred ->
          ignore pattern;
          let count = ref 0 in
          List.iter
            (fun t ->
              if pred t then begin
                Tuple.kill t;
                st.live <- st.live - 1;
                incr count
              end)
            (all_live ());
          !count);
      i_mark =
        (fun () ->
          (match st.intervals with
          | [] :: _ -> ()
          | _ -> st.intervals <- [] :: st.intervals);
          List.length st.intervals - 1);
      i_marks = (fun () -> List.length st.intervals - 1);
      i_cardinal = (fun () -> st.live);
      i_add_index = (fun _ -> ());
      i_indexes = (fun () -> []);
      i_iter =
        (fun ~from_mark ~to_mark ~pattern:_ f ->
          iter_intervals Tuple.live_gen st.intervals ~from_mark ~to_mark f);
      i_mem =
        (fun tuple ->
          List.exists
            (fun ex -> Tuple.live ex && Tuple.subsumes ex tuple)
            (List.concat st.intervals));
      i_freeze =
        (fun () ->
          (* Seal so the head interval list is never consed onto again,
             then capture the interval list by value: cons cells are
             immutable, and inserts only ever replace [st.intervals]
             with a new head. *)
          (match st.intervals with
          | [] :: _ -> ()
          | _ -> st.intervals <- [] :: st.intervals);
          let captured = st.intervals in
          let gen = Tuple.freeze_generation () in
          let f_iter ~pattern:_ f = iter_intervals gen captured ~from_mark:0 ~to_mark:(-1) f in
          let f_mem tuple =
            let found = ref false in
            f_iter ~pattern:None (fun ex ->
                found := Tuple.subsumes ex tuple;
                not !found);
            !found
          in
          Some { Relation.f_iter; f_mem; f_cardinal = st.live; f_indexes = [] });
      i_clear =
        (fun () ->
          st.intervals <- [ [] ];
          st.live <- 0)
    }
  in
  let r = Relation.v ~name ~arity impl in
  (* Interval lists are immutable once captured by a read. *)
  r.Relation.scan_safe <- true;
  r
