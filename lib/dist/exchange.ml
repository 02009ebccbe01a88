(* The per-worker exchange buffer: delta batches from peer shards,
   waiting for the step that absorbs them.

   Peer connection threads call [add_remote] with no engine lock —
   this mutex is the only synchronization, so a step holding the
   store's lock can never deadlock against an incoming delta.  Each
   batch carries the round its sender derived it in.  A fast peer's
   round r batch can land before this worker has started its own step
   r, so the step takes only the batches of earlier rounds ([take])
   and leaves the rest for the next one.

   The count [take] returns covers every tuple decoded, before any
   deduplication, so that the coordinator's conservation check
   (tuples shipped in round r-1 = tuples received in round r) balances
   exactly. *)

type item = { pred : string; arity : int; tuple : Coral.Tuple.t }

type t = {
  lock : Mutex.t;
  mutable batches : (int * item list) list;  (* (sender's round, items), newest first *)
  mutable remote_total : int;  (* since the last reset *)
  mutable batches_total : int;
}

let create () = { lock = Mutex.create (); batches = []; remote_total = 0; batches_total = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_remote t ~round items =
  with_lock t (fun () ->
      let n = List.length items in
      t.batches <- (round, items) :: t.batches;
      t.remote_total <- t.remote_total + n;
      t.batches_total <- t.batches_total + 1;
      n)

let take t ~before =
  with_lock t (fun () ->
      let early, later = List.partition (fun (round, _) -> round < before) t.batches in
      t.batches <- later;
      let items = List.concat_map snd (List.rev early) in
      items, List.length items)

let reset t =
  with_lock t (fun () ->
      t.batches <- [];
      t.remote_total <- 0;
      t.batches_total <- 0)

let totals t = with_lock t (fun () -> t.remote_total, t.batches_total)
