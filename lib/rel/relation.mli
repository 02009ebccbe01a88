(** The generic relation interface (paper sections 3, 5.6, 7.2).

    Everything the query evaluation system knows about a relation goes
    through this interface: insert, delete, marks, and scans that hand
    out tuples one at a time.  Base relations, derived relations,
    persistent relations and foreign (host-function) relations all
    implement it, which is what lets modules with different evaluation
    strategies interact transparently ("the 'get-next-tuple' interface
    ... is the basis for adding new relation implementations and index
    implementations in a clean fashion").

    {b Marks.}  A mark seals the current subsidiary relation and starts
    a new one; scans can be restricted to the tuples inserted between
    two marks.  This is the feature semi-naive evaluation is built on:
    delta relations are mark-delimited views of the single stored
    relation, and indexes keep working because each subsidiary carries
    its own index stores. *)

open Coral_term

type t = {
  name : string;
  arity : int;
  mutable multiset : bool;
      (** When true, answer-duplicate checks are skipped (section 4.2). *)
  mutable admit : (t -> Tuple.t -> bool) option;
      (** Admission hook, used by aggregate selections: called before
          the duplicate check; returning false rejects the tuple.  The
          hook may delete existing tuples. *)
  mutable scan_safe : bool;
      (** True when concurrent scans from other domains are safe while
          the owning domain inserts (scans snapshot their extent and the
          store never moves published tuples).  In-memory stores set
          this; stores doing I/O or cache mutation on scan leave it
          false, and the parallel evaluator falls back to sequential
          application for rules reading them. *)
  impl : impl;
  stats : stats;
}

and impl = {
  i_insert : dedup:bool -> Tuple.t -> bool;
  i_delete : pattern:(Term.t array * Bindenv.t) option -> (Tuple.t -> bool) -> int;
  i_retire : Tuple.t -> unit;
      (** tombstone one known-live stored tuple in O(1) (aggregate
          selections retire superseded tuples this way) *)
  i_mark : unit -> int;
  i_marks : unit -> int;
  i_cardinal : unit -> int;
  i_add_index : Index.spec -> unit;
  i_indexes : unit -> Index.spec list;
  i_scan :
    from_mark:int -> to_mark:int -> pattern:(Term.t array * Bindenv.t) option -> Tuple.t Seq.t;
  i_iter :
    from_mark:int ->
    to_mark:int ->
    pattern:(Term.t array * Bindenv.t) option ->
    (Tuple.t -> bool) ->
    unit;
      (** The candidates [i_scan] would hand out, in the same order,
          passed to the callback until it returns false: the join
          kernel's read path, which allocates nothing per candidate
          where the store is walked directly (see {!iter_of_scan} for
          stores that are not) *)
  i_mem : Tuple.t -> bool;
      (** Read-only duplicate test: would inserting this tuple be
          rejected as a duplicate (equal or subsumed by a live tuple)?
          Must not mutate any store state — the parallel merge calls it
          from several domains at once. *)
  i_clear : unit -> unit;
  i_freeze : unit -> frozen option;
      (** Capture an immutable snapshot of the sealed contents (see
          {!freeze}); [None] when the implementation cannot snapshot
          (persistent relations, module-call relations).  Called only
          from the write lane, with no concurrent writer. *)
}

(** An immutable snapshot of a relation's contents at freeze time.
    Every cell a frozen view can reach was written before the freeze
    completed, so scans from other domains need no lock once the view
    has been published through an atomic (the snapshot manager's epoch
    publication provides that happens-before edge). *)
and frozen = {
  f_scan : pattern:(Term.t array * Bindenv.t) option -> Tuple.t Seq.t;
  f_iter : pattern:(Term.t array * Bindenv.t) option -> (Tuple.t -> bool) -> unit;
  f_mem : Tuple.t -> bool;
  f_cardinal : int;
  f_indexes : Index.spec list;  (** the specs the captured index stores cover *)
}

and stats = {
  mutable inserts : int;  (** accepted insertions *)
  mutable duplicates : int;  (** rejected as duplicate/subsumed/inadmissible *)
  mutable scans : int;  (** scans opened *)
}

val v : name:string -> arity:int -> impl -> t
(** Wrap an implementation (used by relation implementations and by
    foreign relations registered from the host language). *)

val insert : t -> Tuple.t -> bool
(** Insert with admission hook and (unless [multiset]) duplicate /
    subsumption check; true if the relation grew. *)

val insert_quiet : t -> Tuple.t -> bool
(** [insert] without the admission hook or the stats counters: for an
    evaluator's private scratch relations (delta batches, candidates,
    round-local dedup), which are not part of the measured work. *)

val insert_terms : t -> Term.t array -> bool

val delete : t -> ?pattern:Term.t array * Bindenv.t -> (Tuple.t -> bool) -> int
(** Tombstone every live tuple satisfying the predicate (restricted to
    index candidates when a usable [pattern] is given); returns the
    number deleted. *)

val retire : t -> Tuple.t -> unit
(** Tombstone one known-live stored tuple without scanning. *)

val mark : t -> int
(** Seal the current subsidiary; returns the new mark count. *)

val marks : t -> int
val cardinal : t -> int

val scan : t -> ?from_mark:int -> ?to_mark:int -> ?pattern:Term.t array * Bindenv.t -> unit -> Tuple.t Seq.t
(** Live tuples inserted in the mark interval [\[from_mark, to_mark)]
    ([to_mark = -1], the default, means "through now").  When a
    [pattern] is supplied and an index covers it, candidates come from
    an index probe; they are a superset of the matching tuples and the
    caller unifies. *)

val scan_quiet : t -> ?from_mark:int -> ?to_mark:int -> ?pattern:Term.t array * Bindenv.t -> unit -> Tuple.t Seq.t
(** [scan] without touching the (unsynchronized) stats counters: used by
    parallel workers, which count scans in task-local arrays flushed
    later via {!note_scans}. *)

val iter :
  t ->
  from_mark:int ->
  to_mark:int ->
  pattern:(Term.t array * Bindenv.t) option ->
  (Tuple.t -> bool) ->
  unit
(** [scan]'s candidates over the same interval, in its order, handed to
    the callback until it returns false; counts one scan.  The join
    kernel's read path (the arguments are not optional, so a call
    allocates nothing). *)

val iter_quiet :
  t ->
  from_mark:int ->
  to_mark:int ->
  pattern:(Term.t array * Bindenv.t) option ->
  (Tuple.t -> bool) ->
  unit
(** [iter] without touching the stats counters (see {!scan_quiet}). *)

val iter_of_scan :
  (from_mark:int ->
  to_mark:int ->
  pattern:(Term.t array * Bindenv.t) option ->
  Tuple.t Seq.t) ->
  from_mark:int ->
  to_mark:int ->
  pattern:(Term.t array * Bindenv.t) option ->
  (Tuple.t -> bool) ->
  unit
(** An [i_iter] for a store that only implements [i_scan]. *)

val mem : t -> Tuple.t -> bool
(** Read-only duplicate test (see [impl.i_mem]). *)

val note_scans : t -> int -> unit
(** Credit [n] scans to this relation's stats (and the global counters);
    the parallel merge uses this to keep stats identical to a sequential
    run. *)

val note_duplicates : t -> int -> unit
(** Credit [n] duplicate rejections likewise. *)

val note_visited : int -> unit
(** Credit [n] tuples visited to the global counter (see
    {!tuples_visited}). *)

val freeze : ?on_miss:(Index.spec -> unit) -> t -> t option
(** An immutable, read-only view of this relation's current sealed
    contents, wrapped back into the uniform interface: scans (index
    probes included) see exactly the tuples present at freeze time:
    never anything inserted later, and every tuple deleted later (see
    {!Tuple.visible}); writes raise.  Mark semantics match
    persistent relations ([marks] = 0, delta scans from a positive mark
    are empty).  [None] when the implementation cannot snapshot.  The
    caller must hold the write lane: [freeze] seals the open subsidiary
    first, and captured state is safe to publish to other domains only
    through an atomic (see {!Coral_storage.Snapshot} in lib/storage).

    The view's {!indexes} are the specs its captured stores carry.
    {!add_index} never builds an index on a view: a spec the view does
    not carry is passed to [on_miss] (the engine forwards it to the
    write lane, so a later freeze carries it), and is otherwise
    ignored. *)

val to_list : t -> Tuple.t list
val add_index : t -> Index.spec -> unit
val indexes : t -> Index.spec list
val clear : t -> unit
val pp : Format.formatter -> t -> unit

val global_stats : unit -> int * int * int
(** Work counters summed over every relation since the last reset:
    (accepted inserts, rejected duplicates, scans opened) — the
    machine-independent work measures reported by the benchmarks. *)

val tuples_visited : unit -> int
(** Candidate tuples that scans handed a join (index probe results or
    whole-relation scans), summed over every rule application since the
    last reset: what [scans], which counts openings, cannot show — an
    unindexed probe visits the whole relation. *)

val reset_global_stats : unit -> unit
