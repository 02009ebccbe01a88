(** The one compiled semi-naive delta kernel (paper section 4): the
    rules compiled by {!Module_struct.compile_rule} and run by
    {!Joiner}, with a delta occurrence scanning a delta relation and
    full relations elsewhere.  Incremental maintenance ({!Maintain})
    and the shard workers of the distributed fixpoint both run their
    rules through it: an update, or a shard's new tuples, is one more
    delta batch (Brass & Stephan).

    A kernel has one slot per predicate its rules mention and the
    caller resolves to a relation: the predicate's full relation (the
    caller's), and a scratch delta relation (the kernel's own).  It
    holds
    - the rules the caller asks for, compiled as written;
    - one {e activation} per (rule, positive body literal over a
      slot): that literal scans its predicate's delta relation first,
      and the rest of the body scans full relations in source order.

    Compiling installs on the full relations the indexes the joins
    probe, and a probe tries a relation's indexes in installation
    order: first, per rule, the written version and the activations
    over derived predicates (rule heads), which run every round; then,
    per rule, the activations over the other predicates; each rule's
    activations in body order.  Each compiled rule carries the
    caller's tag for its source rule. *)

open Coral_term
open Coral_rel

type 'a t

val compile :
  ?tick:(unit -> unit) ->
  resolve:(Symbol.t -> int -> Module_struct.provider) ->
  written:('a -> bool) ->
  ('a * Coral_lang.Ast.rule) list ->
  'a t
(** [compile ~resolve ~written rules] gives a slot to every predicate
    of [rules] (heads, then body literals, in order of appearance) that
    [resolve] maps to a relation; foreign predicates are called.
    Rules whose tag satisfies [written] are also compiled as written.
    [tick] is polled before each rule run and on each match (the
    caller's cancellation seam).
    @raise Invalid_argument if a head resolves to a foreign predicate. *)

val size : 'a t -> int
(** The number of slots. *)

val slot : 'a t -> Symbol.t -> int -> int option
val full : 'a t -> int -> Relation.t
(** The full relation of a slot, as [resolve] gave it. *)

val compile_scan :
  'a t -> scan:int * Relation.t -> Coral_lang.Ast.rule -> Module_struct.crule
(** [compile_scan k ~scan:(i, rel) r] compiles one more rule against
    the kernel's slots, every predicate of which already has one (or
    is foreign), whose positive body literal [i] scans [rel] first, in
    place, and the rest of the body the full relations. *)

val run : 'a t -> Module_struct.crule -> (int -> Tuple.t -> unit) -> unit
(** Run one rule of {!compile_scan} once, handing each head tuple to
    [emit head_slot tuple]. *)

val run_written : 'a t -> ('a -> int -> Tuple.t -> unit) -> unit
(** Run every written rule once over the full relations, handing each
    head tuple to [emit tag head_slot tuple]. *)

val round : 'a t -> (int * Tuple.t) list -> ('a -> int -> Tuple.t -> unit) -> unit
(** One round over a delta batch of (slot, tuple): load the batch into
    the delta relations, run each loaded slot's activations once over
    the whole batch (slots in ascending order, activations in rule
    order), handing head tuples to [emit], and empty the delta
    relations again. *)
