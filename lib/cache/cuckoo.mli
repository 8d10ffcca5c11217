(** 2-choice cuckoo exact-match table (Snabb-ctable style).

    A software cache level for the long tail of mice that never earn a
    hardware slot: flat preallocated slot arrays, two buckets per key (the
    second hash is a deterministic remix of the first), four slots per
    bucket, and a bounded kick chain on insert.  Lookup probes at most 8
    slots — no hashtable chains, no polymorphic compare, no allocation.

    Semantics match {!Microflow}: exact match on the full header vector,
    entries carry the cached terminal + output flow, [max_idle] expiry, and
    an {!Evict.policy} under capacity pressure.  Under [Reject] a full
    bucket pair refuses the install (no kicking — nothing is ever displaced
    out of the table); under the evicting policies a failed kick chain
    drops the last displaced entry as one pressure eviction. *)

type hit = {
  terminal : Gf_pipeline.Action.terminal;
  out_flow : Gf_flow.Flow.t;
}

type t

val create : ?policy:Evict.policy -> ?rng_seed:int -> capacity:int -> unit -> t
(** [capacity] is the admission bound (installs beyond it consult the
    policy); the underlying slot array is sized to the next power-of-two
    bucket count holding [capacity] at ≤ 80% load so kick chains stay
    short.  [policy] defaults to [Lru]. *)

val capacity : t -> int
val slots : t -> int
(** Physical slot count (≥ capacity). *)

val policy : t -> Evict.policy

val set_policy : t -> Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online ([>= 1]), clamped to the physical
    slot count (bucket geometry is fixed at creation).  Shrinking does not
    evict residents — the new bound bites on the next install. *)

val occupancy : t -> int
val stats : t -> Cache_stats.t

val lookup : t -> now:float -> Gf_flow.Flow.t -> hit option
(** Refreshes the entry's last-used time on a hit. *)

val install : t -> now:float -> Gf_flow.Flow.t -> hit -> int
(** Insert (replacing any existing entry for the same key).  Returns the
    number of entries evicted under pressure (0 or 1).  Under [Reject] a
    refused install is counted in [Cache_stats.rejected] and returns 0. *)

val expire : t -> now:float -> max_idle:float -> int
(** Remove entries idle longer than [max_idle]; returns how many.  Walks
    the live entries only, not every slot. *)

val invalidate_all : t -> int
(** Flush every entry (rule-change response; exact-match entries carry no
    dependency info).  Returns how many were dropped. *)

val slot : t -> int -> (Gf_flow.Flow.t * float) option
(** [slot t s] is the key and last-used time held by physical slot [s]
    ([0 <= s < slots t]), or [None] when the slot is empty.  For tests that
    check the sweeps against a full scan. *)

val check_invariants : t -> bool
(** The dense live-slot list that {!expire} and {!invalidate_all} walk
    holds exactly the occupied slots, each once, and its length is
    {!occupancy}.  O(slots). *)

val max_probe : int
(** Slots probed per lookup (two buckets × bucket width) — exported for the
    latency model. *)
