(** One hardware LTM table ([GF_k] in the paper): a capacity-bounded
    match-action table performing an exact match on the table tag and a
    ternary match on the ten header fields, selecting the highest-priority
    (longest sub-traversal) winner.

    Mirrors the homogeneous P4 table of the paper's Fig. 6: any table can
    hold any sub-traversal, preserving pipeline programmability. *)

type stored = {
  rule : Ltm_rule.t;
  signature : Ltm_rule.signature;
      (** [Ltm_rule.signature rule], as passed to {!insert}. *)
  key : int;  (** Unique within the table. *)
  mutable last_used : float;
  mutable last_hit : float;
      (** Last time a walk {e completed} through this entry or an install
          reused it.  Partial walks that dead-end do not refresh it, so
          replacement policies can tell dead chain prefixes (touched by
          every miss) from entries still carrying full traversals.
          [last_used] keeps the touch-on-match semantics and drives idle
          expiry. *)
  mutable shares : int;
      (** How many distinct installations resolved to this entry (1 at
          creation; +1 per deduplicated reuse) — the sharing statistic of
          the paper's Fig. 11. *)
}

type t

val create : capacity:int -> t
val capacity : t -> int
val occupancy : t -> int
val is_full : t -> bool

val lookup : t -> tag:int -> Gf_flow.Flow.t -> stored option * int
(** Longest-traversal match among entries with the given tag; ties go to the
    oldest entry (lowest key).  Returns the classifier work units. *)

val find_identical : t -> Ltm_rule.signature -> stored option
(** Entry with this behavioural signature, if present.  Callers probing
    several tables for one rule compute its signature once. *)

val insert : t -> now:float -> signature:Ltm_rule.signature -> Ltm_rule.t -> stored
(** [signature] must be [Ltm_rule.signature rule]: the planner has already
    computed it to probe {!find_identical}, so it is not built twice.
    Raises [Invalid_argument] when full — callers plan placement first. *)

val remove : t -> stored -> unit

val iter : t -> (stored -> unit) -> unit
val fold : t -> init:'a -> f:('a -> stored -> 'a) -> 'a

val tag_edges : t -> (int * Ltm_rule.next * int) list
(** [(tag_in, next, multiplicity)] aggregated over entries — the input to
    rule-space coverage counting. *)
