(** The Megaflow cache: OVS's single-lookup wildcard cache (the paper's
    baseline, K = 1).

    Each entry collapses a whole traversal into one ternary rule: match =
    input flow masked by the traversal's re-based consulted wildcard; action
    = the commit (composed set-field rewrites) plus the terminal decision.
    The consulted wildcard carries the priority-dependency bits, so every
    entry — and therefore any overlap between entries — reproduces the
    slowpath decision exactly (property-tested), which licenses the ranked
    first-match search.

    The search structure is pluggable (TSS or NuevoMatch — Fig. 17); lookup
    reports the work units spent for the latency model. *)

type hit = {
  terminal : Gf_pipeline.Action.terminal;
  out_flow : Gf_flow.Flow.t;
}

type t

val create :
  ?search:Gf_classifier.Searcher.algo ->
  ?policy:Evict.policy ->
  ?rng_seed:int ->
  capacity:int ->
  unit ->
  t
(** [search] defaults to [`Tss]; [policy] to [Reject] (the historical
    behaviour: a full table refuses installs); [rng_seed] feeds the
    [Random] policy's victim choice. *)

val capacity : t -> int
val policy : t -> Evict.policy

val set_policy : t -> Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online ([>= 1]).  Shrinking does not evict
    residents — the new bound bites on the next install (which then evicts
    down under the evicting policies). *)

val occupancy : t -> int
val stats : t -> Cache_stats.t
val search_algo : t -> Gf_classifier.Searcher.algo

val check_invariants : t -> bool
(** [true] iff the two indexes ([by_fmatch] : match -> key and
    [by_key] : key -> match) form a bijection over the same entry set.
    An entry present in one but not the other would mean an eviction
    path forgot a table; [install] [assert]s the same property on the
    [`Exists] fast path. *)

val lookup : t -> now:float -> Gf_flow.Flow.t -> hit option * int
(** Result and classifier work units. Refreshes last-used on hit. *)

val lookup_memo : t -> now:float -> flow_id:int -> Gf_flow.Flow.t -> hit option * int
(** Observably identical to {!lookup}, but repeat packets of a known flow
    replay the memoised result, skipping the classifier search.  A hit
    memo stays valid while its entry is still cached — entries are
    pairwise disjoint, so it remains the unique match under any other
    install or eviction, and the ranked-TSS probe count is recomputed
    positionally; miss memos (and hit memos under stateless search, whose
    work cannot be recomputed) additionally require that no install or
    eviction has changed the entry set (a generation counter guards
    this).  Touch side effects — last-used refresh, stats, TSS rank
    promotion and its drifting probe count — are reapplied exactly.
    Requires that a given [flow_id] is always presented with the same
    [flow] value (true of every {!Gf_workload.Trace} generator). *)

val prepare_replay : t -> flow_id:int -> (now:float -> int option) option
(** Compiled per-flow hit replay for the batched engine's fast path:
    after {!lookup_memo} returned a hit for [flow_id], a closure that
    performs exactly that hit's per-packet side effects (last-used
    refresh, stats, ranked-walk probe count + promotion) with the memo
    find and mask hash hoisted out.  Each call re-validates and returns
    the probe work, or [None] once the memo is stale (entry evicted or
    replaced) — the caller must then fall back to {!lookup_memo} and
    compile a fresh replay.  [None] if the flow's memo is absent or a
    miss. *)

val install : t -> now:float -> version:int -> Gf_pipeline.Traversal.t ->
  [ `Installed of int | `Exists | `Rejected ]
(** Collapse the traversal and insert.  [`Installed n] reports the number
    of entries evicted under capacity pressure to make room (always 0
    under [Reject]); [`Exists] when an identical match is already cached
    (its last-used time is refreshed); [`Rejected] when the cache is full
    and the policy refuses to evict ([version] is the pipeline version,
    kept for revalidation bookkeeping and consulted by the
    [Priority_aware] victim choice). *)

val expire : t -> now:float -> max_idle:float -> int
(** Evict entries idle longer than [max_idle]; returns how many. *)

val demote : t -> is_hot:(Gf_flow.Flow.t -> bool) -> int
(** Admission re-partition sweep: evict every entry whose representative
    flow ([parent_input]) fails [is_hot], freeing hardware slots for the
    current heavy hitters.  Returns how many entries were demoted. *)

val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
(** Re-run every entry's parent flow through the (possibly updated) pipeline
    and evict entries whose regenerated match/action differ (paper
    section 4.3.1).  Returns [(evicted, work)] where [work] is the total
    number of table lookups performed — the cost the paper's section 6.3.6
    compares against Gigaflow's sub-traversal revalidation. *)

val entries : t -> (Gf_flow.Fmatch.t * float) list
(** Current entries' matches with their last-used times, in no particular
    order (diagnostics / tests). *)
