(** Per-field bit masks (wildcards).

    A [Mask.t] records which header bits a lookup consulted — the paper's
    wildcard vectors [W_i] and [omega_k].  A set bit means "this bit of the
    header is significant"; a clear bit is wildcarded.  Sub-traversal rule
    generation is built on the union/intersection algebra of this module
    (paper section 4.2.3). *)

type t

val empty : t
(** All bits wildcarded (matches everything). *)

val full : t
(** Every bit of every field significant (exact match). *)

val make : (Field.t * int) list -> t
(** Masks for the listed fields (truncated to field width); others empty. *)

val exact_fields : Field.t list -> t
(** Full-width masks on the listed fields only. *)

val prefix : Field.t -> int -> t
(** [prefix f len] is a single-field CIDR-style prefix mask of [len] bits. *)

val get : t -> Field.t -> int
val set : t -> Field.t -> int -> t

val union : t -> t -> t
(** Bitwise OR per field — combining the wildcards of the tables in a
    sub-traversal. *)

val inter : t -> t -> t
(** Bitwise AND per field. *)

val equal : t -> t -> bool
(** Structural, with a physical-equality fast path (see {!intern}). *)

val compare : t -> t -> int
val hash : t -> int
(** {!Vec.hash}, the same function as {!Flow.hash}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by masks using {!hash}/{!equal} (monomorphic). *)

val intern : t -> t
(** Hash-consing: returns the canonical representative of this mask value,
    so repeated equality checks between interned masks reduce to pointer
    comparisons.  Idempotent, thread-safe (parallel replay domains intern
    concurrently); the canonical table grows with the number of {e distinct}
    masks ever seen (rule + consulted wildcards — small and bounded by the
    ruleset, so it is never evicted). *)

val is_empty : t -> bool

val bits : t -> int
(** Total number of significant bits across all fields. *)

val fields : t -> Field.Set.t
(** Fields with at least one significant bit. *)

val disjoint : t -> t -> bool
(** No field has significant bits in both masks. *)

val subsumes : loose:t -> tight:t -> bool
(** [subsumes ~loose ~tight] iff every significant bit of [loose] is also
    significant in [tight] — i.e. [loose] matches a superset of headers. *)

val apply : t -> Flow.t -> Flow.t
(** [apply m f] keeps only the significant bits of [f] (the paper's
    match-predicate construction: predicate = flow AND wildcard). *)

val apply_scratch : t -> Flow.t -> Flow.Scratch.t -> Flow.t
(** Allocation-free {!apply} into a reusable buffer; the result aliases the
    scratch (see {!Flow.Scratch}) and is only for transient lookups. *)

val matches : t -> pattern:Flow.t -> Flow.t -> bool
(** [matches m ~pattern f] iff [f] agrees with [pattern] on every significant
    bit of [m].  [pattern] need not be pre-masked. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
