(** Equality and hashing over field-indexed [int] vectors — the shared
    representation of {!Flow.t} and {!Mask.t} (slot [i] holds the value or
    mask of [Field.of_index i]; length {!Field.count}).

    Both are allocation-free: the loops are top-level functions, so no
    closure is built per call (this build has no flambda to lift a local
    [let rec]). *)

val equal : int array -> int array -> bool
(** Physical equality first, then slot by slot. *)

val hash : int array -> int
(** FNV-1a over the slots followed by an avalanche finalizer, so that every
    input bit reaches the low bits that power-of-two tables index by (see
    DESIGN.md, "Hashing and table sizing").  Non-negative. *)

val mix : int -> int
(** The finalizer {!hash} ends in (also {!Masked_tbl}'s); non-negative. *)
