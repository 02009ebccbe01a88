(* Name parity between the two views of one sample table: the numeric
   [name=value] lines of a [stats] reply and the samples of a
   Prometheus scrape.  Shared by the server and router tests. *)

let prom_name name =
  "coral_"
  ^ String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

(* [stats] lines (without the [txt ] prefix) whose value is a number,
   by their derived Prometheus name. *)
let stats_names lines =
  List.filter_map
    (fun l ->
      match String.index_opt l '=' with
      | Some i when float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) <> None
        ->
        Some (prom_name (String.sub l 0 i))
      | _ -> None)
    lines

let type_names lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; name; _ ] -> Some name
      | _ -> None)
    lines

(* Sample names of a scrape, without histogram series, the label-only
   build identity, and whatever [drop] names. *)
let sample_names ?(drop = fun _ -> false) lines =
  let hists =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; "histogram" ] -> Some name
        | _ -> None)
      lines
  in
  let histogram_series name =
    List.exists (fun h -> List.mem name [ h ^ "_bucket"; h ^ "_sum"; h ^ "_count" ]) hists
  in
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        let stop =
          match String.index_opt l '{', String.index_opt l ' ' with
          | Some a, Some b -> min a b
          | Some a, None | None, Some a -> a
          | None, None -> String.length l
        in
        let name = String.sub l 0 stop in
        if name = "coral_build_info" || histogram_series name || drop name then None
        else Some name)
    lines

let check ?drop ~what ~stats ~metrics () =
  let uniq l = List.sort_uniq compare l in
  let s = stats_names stats in
  Alcotest.(check int) (what ^ ": stats names unique") (List.length (uniq s)) (List.length s);
  Alcotest.(check (list string))
    (what ^ ": stats and metrics expose the same names")
    (uniq s)
    (uniq (sample_names ?drop metrics));
  let types = type_names metrics in
  Alcotest.(check (list string))
    (what ^ ": no TYPE name twice")
    (uniq types) (List.sort compare types)

(* Rows both views must carry (named as [stats] prints them), each with
   a value at least [min] in [stats]. *)
let check_rows ~what ~stats ~metrics ?(min = 0.) names =
  List.iter
    (fun name ->
      let prefix = name ^ "=" in
      (match List.find_opt (String.starts_with ~prefix) stats with
      | Some l ->
        let v = String.sub l (String.length prefix) (String.length l - String.length prefix) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s=%s is at least %g" what name v min)
          true
          (Option.fold ~none:false ~some:(fun v -> v >= min) (float_of_string_opt v))
      | None -> Alcotest.fail (Printf.sprintf "%s: no stats row %s" what name));
      Alcotest.(check bool)
        (Printf.sprintf "%s: metrics sample for %s" what name)
        true
        (List.mem (prom_name name) (sample_names metrics)))
    names
