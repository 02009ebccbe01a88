(** Unification, matching, subsumption, and term extraction.

    All operations work on (term, environment) pairs as the paper
    describes: bindings go into environments through the trail (so joins
    can backtrack), never into the terms themselves.  Ground functor
    terms compare by hash-cons identifier in O(1). *)

val unify : Trail.t -> Term.t -> Bindenv.t -> Term.t -> Bindenv.t -> bool
(** [unify tr t1 e1 t2 e2] attempts unification, recording bindings on
    [tr].  On failure the caller must [Trail.undo_to] its own mark (the
    function does not undo partial bindings itself).  With the occurs
    check: a variable is never bound to a term containing it, so every
    binding resolves to a finite term (ground compounds are not walked,
    so the check costs nothing on them). *)

val unify_arrays :
  Trail.t -> Term.t array -> Bindenv.t -> Term.t array -> Bindenv.t -> bool
(** Pointwise unification of equal-length argument arrays. *)

val match_ : Trail.t -> Term.t -> Bindenv.t -> Term.t -> Bindenv.t -> bool
(** One-way unification: [match_ tr pat pe obj oe] binds only variables
    of the pattern side; object-side variables behave as constants.
    Succeeds iff some substitution of pattern variables makes the
    pattern equal to the object. *)

val match_arrays :
  Trail.t -> Term.t array -> Bindenv.t -> Term.t array -> Bindenv.t -> bool

val resolve : Term.t -> Bindenv.t -> Term.t
(** Substitute all bindings through, producing a self-contained term.
    Unbound variables remain as variables. *)

val canonicalize : Term.t array -> Bindenv.t -> Term.t array * int
(** Resolve a tuple and renumber its unbound variables to [0..n-1] (in
    order of first occurrence, with fresh variable records), returning
    the variable count.  Stored non-ground tuples are kept in this form
    so they can be paired with a fresh environment of size [n] at use
    time. *)

val subsumes : Term.t array * int -> Term.t array * int -> bool
(** [subsumes (general, ng) (specific, ns)] on canonicalized tuples:
    true iff some substitution of [general]'s variables yields
    [specific].  [ng]/[ns] are the tuples' variable counts. *)

val variant : Term.t array -> Term.t array -> bool
(** Alpha-equivalence of canonicalized tuples (equal up to a bijective
    renaming of variables). *)
