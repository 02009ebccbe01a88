type state = {
  mutable intervals : Tuple.t list list;  (* newest interval first, each newest tuple first *)
  mutable live : int;
}

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
  let scan ~from_mark ~to_mark ~pattern =
    ignore pattern;
    let oldest_first = List.rev st.intervals in
    let total = List.length oldest_first in
    let last = if to_mark < 0 then total else min to_mark total in
    let selected = List.filteri (fun i _ -> i >= from_mark && i < last) oldest_first in
    (* Snapshot: lists are immutable once captured, so a scan never sees
       tuples inserted after it was opened. *)
    let parts = List.map (fun l -> List.to_seq (List.rev l)) selected in
    Seq.filter Tuple.live (List.fold_right Seq.append parts Seq.empty)
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
          st.intervals <- [] :: st.intervals;
          List.length st.intervals - 1);
      i_marks = (fun () -> List.length st.intervals - 1);
      i_cardinal = (fun () -> st.live);
      i_add_index = (fun _ -> ());
      i_indexes = (fun () -> []);
      i_scan = scan;
      i_iter = Relation.iter_of_scan scan;
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
          let f_scan ~pattern:_ =
            let parts = List.rev_map (fun l -> List.to_seq (List.rev l)) captured in
            Seq.filter
              (fun (t : Tuple.t) -> Tuple.visible t gen)
              (List.fold_right Seq.append parts Seq.empty)
          in
          let f_iter ~pattern f =
            Relation.iter_of_scan (fun ~from_mark:_ ~to_mark:_ ~pattern -> f_scan ~pattern)
              ~from_mark:0 ~to_mark:(-1) ~pattern f
          in
          let f_mem tuple =
            Seq.exists (fun ex -> Tuple.subsumes ex tuple) (f_scan ~pattern:None)
          in
          Some { Relation.f_scan; f_iter; f_mem; f_cardinal = st.live; f_indexes = [] });
      i_clear =
        (fun () ->
          st.intervals <- [ [] ];
          st.live <- 0)
    }
  in
  let r = Relation.v ~name ~arity impl in
  (* Interval lists are immutable once captured by a scan. *)
  r.Relation.scan_safe <- true;
  r
