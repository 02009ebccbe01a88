(** Terms: constants, variables, and functor terms.

    This is the paper's term representation (section 3.1, Figure 2).  A
    functor term [f(X, 10, Y)] is a record with the function symbol, the
    argument array, and "extra information to make unification
    efficient": a lazily computed hash-consing identifier.  Hash-consing
    assigns unique identifiers to ground functor terms such that two
    ground terms unify iff their identifiers are equal; terms containing
    free variables cannot receive identifiers and are unified
    structurally. *)

type t =
  | Const of Value.t
  | Var of var
  | App of app

and var = { vid : int; vname : string }

and app = {
  sym : Symbol.t;
  args : t array;
  mutable hid : int;
      (** Lazy hash-cons id: [0] not yet computed, [-1] known
          non-ground, positive values are unique ids. *)
  mutable gkey : int;
      (** Lazy structural key: [0] not yet computed, [-1] known
          non-ground, positive values are (collision-prone) hashes of
          the ground structure.  Unlike [hid] this is a pure function
          of the term, computed without any shared table. *)
}

(** {1 Constructors} *)

val const : Value.t -> t
val int : int -> t
val double : float -> t
val str : string -> t
val big : Bignum.t -> t

val var : ?name:string -> int -> t
(** [var id] is the variable with identifier [id].  Variable identity is
    the pair (binding environment, [vid]); names are only for printing. *)

val fresh_var : ?name:string -> unit -> t
(** A variable with a globally fresh [vid] (used for canonicalizing
    stored non-ground tuples and for renaming rules apart). *)

val app : Symbol.t -> t array -> t
val atom : string -> t
(** [atom s] is the 0-ary functor term [s]. *)

val nil : t
val cons : t -> t -> t
val list_of : t list -> t
val to_list : t -> t list option
(** [to_list t] decomposes a proper list term. *)

(** {1 Hash-consing} *)

val ground_id : t -> int option
(** The unique identifier of a ground term, computed (and memoized in
    the term) on first demand; [None] for terms containing variables.
    Ids come from a shared table guarded by a mutex, so this is safe —
    but serialized — across domains; prefer {!ground_key} on hot
    concurrent paths that only need a hash. *)

val ground_key : t -> int option
(** A structural hash of a ground term ([None] for terms containing
    variables), memoized in the term.  Two structurally equal ground
    terms always produce the same key, on any domain, lock-free; two
    different terms may collide.  Relation indexes key on this. *)

val key : t -> int
(** {!ground_key} without the option: the key, or -1 for a term
    containing variables (keys are never negative). *)

val is_ground : t -> bool

val stable_hash : t -> int
(** A process-stable structural hash: symbols contribute their {e
    names} (intern ids depend on interning order, so {!ground_key}
    differs between processes), values their contents, and every
    variable hashes to one fixed value.  Two structurally equal terms
    produce the same non-negative hash in any process of the same
    build — the property the distributed layer needs to let worker
    processes agree on tuple ownership without coordination. *)

(** {1 Generic operations} *)

val equal : t -> t -> bool
(** Structural equality; variables are compared by [vid]. *)

val compare : t -> t -> int

val hash : t -> int
(** Structural hash agreeing with [equal]. *)

val hash_mod_vars : t -> int
(** Hash in which every variable hashes to one fixed value, so that a
    term and any renaming of it collide (used by relation indexes: the
    paper hashes all terms containing variables to the [var] bucket). *)

val vars : t -> var list
(** Distinct variables in order of first occurrence. *)

val map_vars : (var -> t) -> t -> t
(** [map_vars f t] replaces every variable [v] by [f v]. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the term in CORAL surface syntax: atoms unquoted, lists in
    [\[a, b | T\]] notation, values as {!Value.to_buffer}.  This is
    the one term printer; [to_string] and [pp] wrap it. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val hash_array : t array -> int
val equal_array : t array -> t array -> bool

module ArrayTbl : Hashtbl.S with type key = t array
(** Hash tables keyed by term tuples (structural equality, stable
    hash); used for group tables and subgoal tables. *)
