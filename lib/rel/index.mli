(** Hash-based index structures (paper section 3.3).

    Two forms are supported, as in CORAL:

    - {e argument form}: a multi-attribute hash index on a subset of the
      arguments of a relation;
    - {e pattern form}: an index on positions {e inside} functor terms,
      e.g. [@make_index emp(Name, addr(Street, City))(Name, City)]
      indexes the name and the city field of the address term, so
      employees in a given city can be retrieved without knowing the
      street.

    Following the paper, terms containing variables at or above an
    indexed position hash to the special [var] bucket, which every probe
    also examines; probes are only attempted when the query pattern is
    ground at every indexed position (otherwise the caller falls back to
    a scan). *)

open Coral_term

type path = int list
(** A position: argument index followed by positions within nested
    functor terms, all 0-based. *)

type spec =
  | Args of int list  (** argument-form index on these argument positions *)
  | Paths of path list  (** pattern-form index on these term positions *)

val spec_paths : spec -> path list
val pp_spec : Format.formatter -> spec -> unit
val spec_equal : spec -> spec -> bool

type t
(** One index store, covering one subsidiary relation. *)

val create : spec -> t

val insert : t -> Tuple.t -> unit

val key : t -> Term.t array -> Bindenv.t -> int
(** The bucket key a probe for this pattern reads, or -1 when the
    pattern is not ground at every indexed position and the index
    cannot be used (keys are never negative).  A probe's candidates are
    the key's bucket plus the [var] bucket: a superset of the matching
    tuples, which the caller must still unify. *)

val keyed : t -> int -> Tuple.t list
(** The tuples stored under a key, newest first (without the [var]
    bucket). *)

val var_bucket : t -> Tuple.t list
(** The [var] bucket, newest first. *)

val iter_candidates :
  gen:int -> var:Tuple.t list -> keyed:Tuple.t list -> (Tuple.t -> bool) -> bool
(** Hand [f] the candidates of a captured [var] bucket and key bucket
    that are visible at [gen] (see {!Tuple.visible}), in probe order
    (the [var] bucket oldest first, then the key bucket newest first),
    until it returns false; false when it stopped. *)

val cardinal : t -> int
