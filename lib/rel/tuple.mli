(** Tuples: the elements of relations.

    A stored tuple is self-contained: its terms are fully resolved and
    its variables (CORAL relations can hold non-ground facts) are
    renumbered to [0 .. nvars-1].  At use time a non-ground tuple is
    paired with a fresh binding environment of size [nvars], which is
    how one stored fact participates in many simultaneous inferences
    without copying. *)

open Coral_term

type t = private {
  terms : Term.t array;
  nvars : int;
  hash : int;  (** hash with variables collapsed, see {!Term.hash_mod_vars} *)
  mutable killed : int;
      (** [max_int] while live; the kill generation once [delete]d (see
          {!kill}) *)
}

module Tbl : Hashtbl.S with type key = int
(** Tables keyed by an already-mixed hash (a tuple's [hash], an index
    key), used as is. *)

val make : Term.t array -> Bindenv.t -> t
(** Canonicalize (resolve + renumber variables) a tuple under an
    environment, as produced by a rule head after a successful join. *)

val of_terms : Term.t array -> t
(** Tuple from environment-free terms (facts from the parser or the
    host API); variables are renumbered. *)

val of_ground : Term.t array -> t
(** Tuple over terms that are already resolved and ground, taken as
    they are (no copy): what {!make} would build for them. *)

val arity : t -> int
val is_ground : t -> bool

val partition_hash : key:int -> t -> int
(** The hash-partitioning key of this tuple: {!Term.stable_hash} of the
    argument at position [key] (out-of-range keys clamp to 0; arity-0
    tuples hash to 0).  Stable across processes of the same build, so
    independent workers agree on [partition_hash t mod shards] without
    coordination. *)

val kill : t -> unit
(** Tombstone the tuple ([delete]), stamping the current kill
    generation: live scans skip it from now on, while views frozen
    before the kill still see it. *)

val live : t -> bool
(** Not killed. *)

val live_gen : int
(** The generation a live scan reads at: [visible t live_gen] is
    [live t]. *)

val visible : t -> int -> bool
(** [visible t gen]: [t] belongs to the state read at generation [gen]
    (a view's freeze generation, or {!live_gen}): it was not killed at
    or before it. *)

val freeze_generation : unit -> int
(** Take the next generation for a freezing view: tuples killed from
    now on stay visible to it.  One process-wide counter orders every
    freeze against every kill. *)

val equal : t -> t -> bool
(** Variant equality: equal up to bijective variable renaming (plain
    equality on ground tuples, with the hash-consing fast path). *)

val subsumes : t -> t -> bool
(** [subsumes general specific]: some instantiation of [general] equals
    [specific].  Used for duplicate elimination with non-ground facts. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
