(** A flow signature: one concrete value per header field.

    A [Flow.t] plays two roles, matching the paper's notation: it is both the
    header vector of an incoming packet ([F]) and the evolving flow state as
    actions modify fields while the packet moves through the pipeline
    ([F^i]).  Values are immutable; [set] returns an updated copy. *)

type t

val zero : t
(** All fields 0. *)

val make : (Field.t * int) list -> t
(** [make bindings] is [zero] with the given fields set.  Values are
    truncated to the field width.  Later bindings win. *)

val get : t -> Field.t -> int
val set : t -> Field.t -> int -> t

val update : t -> (Field.t * int) list -> t
(** [update t bindings] applies every binding with a {b single} copy of the
    underlying vector (vs. one copy per field with repeated {!set}) — the
    cache-hit commit path.  [update t \[\]] is [t] itself, allocation-free. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** {!Vec.hash}: FNV-1a with an avalanche finalizer, so keys that differ
    only in high bits (prefix-masked addresses) still spread over the low
    bits that hash tables index by. *)

val to_array : t -> int array
(** Copy of the underlying 10-slot vector (index = [Field.index]). *)

val of_array : int array -> t
(** Inverse of [to_array]; requires length [Field.count]; values are truncated
    to field width. *)

val land_array : t -> int array -> t
(** [land_array f m] is the flow whose slot [i] is [get f (of_index i) land
    m.(i)] — a single-pass masked copy.  [m] must have length
    {!Field.count}; see [Mask.apply] for the public wrapper. *)

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by flows using {!hash}/{!equal} (monomorphic — no
    polymorphic-compare traversals on the per-packet lookup path). *)

val pp : Format.formatter -> t -> unit
(** Prints only non-zero fields, e.g. [eth_dst=0x2 ip_dst=0xa000001]. *)

val to_string : t -> string

(** Reusable flow buffer for allocation-free hot paths (classifier probes).

    A scratch's {!Scratch.view} aliases mutable storage: it is only valid
    until the next fill and must never be stored (e.g. never inserted as a
    hash-table key) — only used for transient structural lookups. *)
module Scratch : sig
  type flow := t
  type t

  val create : unit -> t

  val fill_masked : t -> mask:int array -> flow -> flow
  (** [fill_masked s ~mask f] stores the per-field AND of [mask] and [f]
      into [s] and returns the aliased view. [mask] must have length
      {!Field.count} (see [Mask.apply_scratch] for the checked wrapper). *)
end
