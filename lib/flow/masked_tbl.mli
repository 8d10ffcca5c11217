(** One tuple's table for tuple-space search: a hash table from the
    masked key of a fixed {!Mask.t} to a non-empty list (a bucket), probed
    with the {e unmasked} flow.

    [find t flow] returns the bucket whose key agrees with [flow] on every
    significant bit of the mask — what a [Flow.Tbl] keyed by
    [Mask.apply mask key] returns for [Mask.apply mask flow].  The table is
    built once per mask from its non-zero fields, so a probe hashes and
    compares only those fields, straight from the packet, and allocates
    nothing: a miss is [[]] and a hit is the stored list.

    Open addressing with linear probing.  A slot holds the key flow it was
    bound under (shared with the caller, not copied) and the bucket.  The
    load stays at or below 1/2, since most tuple probes miss and a miss ends
    at the first empty slot.
    Removing a key shifts the rest of its cluster back instead of leaving a
    tombstone, so sweeps leave probe paths as short as the live keys allow.
    The capacity doubles as keys are added and never shrinks. *)

type 'a t

val create : Mask.t -> 'a t

val length : 'a t -> int
(** Number of keys bound. *)

val capacity : 'a t -> int
(** Number of slots: a power of two, at least twice {!length}. *)

val find : 'a t -> Flow.t -> 'a list
(** The bucket bound to [flow]'s masked key, or [[]]. *)

val replace : 'a t -> Flow.t -> 'a list -> unit
(** [replace t key bucket] binds [key]'s masked key to [bucket], replacing
    any previous bucket; [bucket = []] removes the binding.  Only the mask's
    significant bits of [key] are read, and [key] itself is kept. *)

val fold : ('a list -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over the buckets (never [[]]), in slot order.  That order follows the
    hash, so no caller may let it reach an output. *)

val check_invariants : 'a t -> int
(** Raises [Failure] if the load exceeds 1/2, the count disagrees with the
    occupied slots or a key cannot be reached from its home slot without
    crossing an empty one.  Returns the number of keys whose probe path
    wraps from the last slot to the first, so tests can show they covered
    wrap-around clusters. *)
