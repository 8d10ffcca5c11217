module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch
module Entry = Gf_classifier.Entry
module Searcher = Gf_classifier.Searcher
module Action = Gf_pipeline.Action
module Traversal = Gf_pipeline.Traversal
module Executor = Gf_pipeline.Executor

type hit = { terminal : Action.terminal; out_flow : Flow.t }

type payload = {
  commit : (Gf_flow.Field.t * int) list;
  terminal : Action.terminal;
  parent_input : Flow.t; (* representative flow for revalidation *)
  version : int;
  mutable last_used : float;
  mutable live : bool;
      (* flipped to false when the entry leaves the table, so memoised
         lookups holding the entry can self-invalidate in O(1) without a
         global generation sweep (see [lookup_memo]) *)
}

(* Per-flow lookup memo (see [lookup_memo]).  A memoised {e hit} is valid
   while its entry is still in the table ([payload.live]): entries are
   pairwise disjoint, so the memoised entry stays the unique match no
   matter what else is installed, and the ranked-TSS replay recomputes the
   probe count positionally so it tracks rank drift and tuple churn
   exactly.  (Stateless search algorithms replay [m_work] verbatim, so
   they additionally require [generation] unchanged.)  A memoised {e miss}
   is valid only while [generation] is unchanged — miss work probes the
   whole entry set, so any structural change stales it.  Touch-only
   mutations (last-used refreshes, TSS rank promotions) never invalidate:
   replay reapplies them exactly. *)
type memo = {
  mutable m_gen : int;
  mutable m_entry : payload Entry.t option;
  mutable m_hit : hit option;
  mutable m_work : int;
}

type t = {
  mutable capacity : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  searcher : payload Searcher.t;
  by_fmatch : int Fmatch.Tbl.t; (* match -> classifier key *)
  by_key : (int, Fmatch.t * payload) Hashtbl.t;
  stats : Cache_stats.t;
  mutable next_key : int;
  memo_tbl : (int, memo) Hashtbl.t; (* flow id -> last lookup *)
  mutable generation : int; (* bumped on any structural entry-set change *)
  stable_replay : bool;
      (* hit replays stay exact under entry-set churn (ranked TSS walk) *)
}

(* The index tables start at most this many buckets and grow with
   occupancy: [expire], [demote] and [revalidate] fold over [by_key], so
   a table sized at a 1M-entry [capacity] would make every sweep walk 1M
   empty buckets for a few thousand live entries.  Tables up to this
   bound are still created at full size, so the victims [Random] picks by
   table order do not depend on occupancy there. *)
let initial_size = 1024

let create ?(search = `Tss) ?(policy = Evict.Reject) ?(rng_seed = 0x3F1A)
    ~capacity () =
  assert (capacity > 0);
  let size = min capacity initial_size in
  {
    capacity;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    searcher = Searcher.create search;
    by_fmatch = Fmatch.Tbl.create size;
    by_key = Hashtbl.create size;
    stats = Cache_stats.create ();
    next_key = 0;
    memo_tbl = Hashtbl.create 256;
    generation = 0;
    stable_replay = (search = `Tss);
  }

let capacity t = t.capacity
let policy t = t.policy
let set_policy t policy = t.policy <- policy

(* Shrinking the bound does not evict residents; it bites on the next
   install (which then evicts down under the evicting policies). *)
let set_capacity t capacity =
  if capacity < 1 then
    invalid_arg "Megaflow.set_capacity: capacity must be >= 1";
  t.capacity <- capacity

let occupancy t = Hashtbl.length t.by_key
let stats t = t.stats
let search_algo t = Searcher.algo t.searcher

(* One array copy for the whole commit (none when it is empty), not one
   [Flow.set] copy per field — this runs on every cache hit. *)
let apply_commit commit flow = Flow.update flow commit

let lookup t ~now flow =
  let result, work = Searcher.lookup_disjoint t.searcher flow in
  match result with
  | Some entry ->
      let payload = entry.Entry.payload in
      payload.last_used <- now;
      Cache_stats.record_lookup t.stats ~hit:true;
      (Some { terminal = payload.terminal; out_flow = apply_commit payload.commit flow }, work)
  | None ->
      Cache_stats.record_lookup t.stats ~hit:false;
      (None, work)

(* Memoised lookup keyed by trace flow id.  A repeat packet of a known
   flow replays the previous result: same hit record, same touch side
   effects (last-used refresh, stats, TSS rank promotion — probe work is
   recomputed from the tuple's current rank so it matches what a live
   ranked walk would report).  Hit memos stay valid across installs and
   unrelated evictions (entry [live] flag + positional replay); miss memos
   and stateless-search hit memos need the entry set unchanged
   ([generation] guard).  Observably identical to {!lookup}; callers must
   present the same [flow] value for a given [flow_id]. *)
let lookup_memo t ~now ~flow_id flow =
  match Hashtbl.find_opt t.memo_tbl flow_id with
  | Some ({ m_entry = Some entry; _ } as m)
    when entry.Entry.payload.live && (t.stable_replay || m.m_gen = t.generation)
    ->
      let payload = entry.Entry.payload in
      payload.last_used <- now;
      Cache_stats.record_lookup t.stats ~hit:true;
      (m.m_hit, Searcher.replay_disjoint t.searcher entry ~prev_work:m.m_work)
  | Some ({ m_entry = None; _ } as m) when m.m_gen = t.generation ->
      Cache_stats.record_lookup t.stats ~hit:false;
      (None, m.m_work)
  | memo ->
      let result, work = Searcher.lookup_disjoint t.searcher flow in
      let hit =
        match result with
        | Some entry ->
            let payload = entry.Entry.payload in
            payload.last_used <- now;
            Cache_stats.record_lookup t.stats ~hit:true;
            Some
              { terminal = payload.terminal; out_flow = apply_commit payload.commit flow }
        | None ->
            Cache_stats.record_lookup t.stats ~hit:false;
            None
      in
      (match memo with
      | Some m ->
          m.m_gen <- t.generation;
          m.m_entry <- result;
          m.m_hit <- hit;
          m.m_work <- work
      | None ->
          Hashtbl.replace t.memo_tbl flow_id
            { m_gen = t.generation; m_entry = result; m_hit = hit; m_work = work });
      (hit, work)

(* Compiled hit replay for the datapath's per-flow fast path: after
   {!lookup_memo} stored a hit for [flow_id], return a closure performing
   just that hit's per-packet side effects (touch, stats, ranked-walk work
   + promotion) with every lookup hoisted out — no memo-table find, no
   mask hash.  The closure re-validates on each call (entry unchanged and
   still live, plus the generation guard for stateless search) and returns
   [None] once stale, after which the caller must fall back to
   {!lookup_memo} and compile a fresh replay. *)
let prepare_replay t ~flow_id =
  match Hashtbl.find_opt t.memo_tbl flow_id with
  | Some ({ m_entry = Some entry as entry0; _ } as m) ->
      let compiled = Searcher.prepare_replay t.searcher entry in
      let payload = entry.Entry.payload in
      Some
        (fun ~now ->
          if
            m.m_entry == entry0 && payload.live
            && (t.stable_replay || m.m_gen = t.generation)
          then begin
            payload.last_used <- now;
            Cache_stats.record_lookup t.stats ~hit:true;
            Some (match compiled with Some f -> f () | None -> m.m_work)
          end
          else None)
  | Some { m_entry = None; _ } | None -> None

(* Collapse a traversal into (match, commit, terminal). *)
let collapse traversal =
  let wildcard = Traversal.megaflow_wildcard traversal in
  let fmatch = Fmatch.v ~pattern:traversal.Traversal.input ~mask:wildcard in
  let commit =
    Traversal.segment_commit traversal ~first:0
      ~last:(Array.length traversal.Traversal.steps - 1)
  in
  (fmatch, commit, traversal.Traversal.terminal)

let remove_key_quiet t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> ()
  | Some (fmatch, payload) ->
      payload.live <- false;
      Hashtbl.remove t.by_key key;
      Fmatch.Tbl.remove t.by_fmatch fmatch;
      ignore (Searcher.remove t.searcher key)

(* Victim selection under capacity pressure.  [Lru] takes the least
   recently used entry; [Priority_aware] (Megaflow entries all share
   priority 0) prefers the oldest pipeline version, then LRU; [Random]
   takes a uniform entry.  Ties break towards the lowest key so a fixed
   seed replays identically. *)
let pick_victim t =
  let better (k, p) (k', p') =
    match t.policy with
    | Evict.Lru ->
        p.last_used < p'.last_used || (p.last_used = p'.last_used && k < k')
    | Evict.Priority_aware ->
        p.version < p'.version
        || (p.version = p'.version
           && (p.last_used < p'.last_used || (p.last_used = p'.last_used && k < k')))
    | Evict.Random | Evict.Reject -> k < k' (* unused; see below *)
  in
  match t.policy with
  | Evict.Reject -> None
  | Evict.Random ->
      let n = Hashtbl.length t.by_key in
      if n = 0 then None
      else begin
        let target = Gf_util.Rng.int t.rng n in
        let i = ref 0 and victim = ref None in
        Hashtbl.iter
          (fun k _ ->
            if !i = target then victim := Some k;
            incr i)
          t.by_key;
        !victim
      end
  | Evict.Lru | Evict.Priority_aware ->
      Hashtbl.fold
        (fun k (_, p) acc ->
          match acc with
          | Some best when not (better (k, p) best) -> acc
          | _ -> Some (k, p))
        t.by_key None
      |> Option.map fst

let install t ~now ~version traversal =
  let fmatch, commit, terminal = collapse traversal in
  match Fmatch.Tbl.find_opt t.by_fmatch fmatch with
  | Some key ->
      (match Hashtbl.find_opt t.by_key key with
      | Some (_, payload) -> payload.last_used <- now
      | None ->
          (* by_fmatch and by_key index the same entry set; a key present in
             one but not the other means an eviction path forgot a table. *)
          assert false);
      `Exists
  | None ->
      let pressure = ref 0 in
      while
        occupancy t >= t.capacity
        &&
        match pick_victim t with
        | Some victim ->
            remove_key_quiet t victim;
            t.stats.Cache_stats.pressure_evictions <-
              t.stats.Cache_stats.pressure_evictions + 1;
            incr pressure;
            true
        | None -> false
      do
        ()
      done;
      if occupancy t >= t.capacity then begin
        t.stats.Cache_stats.rejected <- t.stats.Cache_stats.rejected + 1;
        `Rejected
      end
      else begin
        let key = t.next_key in
        t.next_key <- key + 1;
        let payload =
          {
            commit;
            terminal;
            parent_input = traversal.Traversal.input;
            version;
            last_used = now;
            live = true;
          }
        in
        Searcher.insert t.searcher (Entry.v ~key ~fmatch ~priority:0 payload);
        Fmatch.Tbl.replace t.by_fmatch fmatch key;
        Hashtbl.replace t.by_key key (fmatch, payload);
        t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
        (* Entry set changed (insert, plus any pressure evictions above):
           invalidate memoised lookups. *)
        t.generation <- t.generation + 1;
        `Installed !pressure
      end

let remove_key t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> ()
  | Some (fmatch, payload) ->
      payload.live <- false;
      Hashtbl.remove t.by_key key;
      Fmatch.Tbl.remove t.by_fmatch fmatch;
      ignore (Searcher.remove t.searcher key);
      t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + 1

let expire t ~now ~max_idle =
  let stale =
    Hashtbl.fold
      (fun key (_, payload) acc ->
        if now -. payload.last_used > max_idle then key :: acc else acc)
      t.by_key []
  in
  List.iter (remove_key t) stale;
  if stale <> [] then t.generation <- t.generation + 1;
  List.length stale

(* Admission-sweep demotion: drop entries whose representative flow went
   cold according to the caller's hotness predicate (heavy-hitter sketch),
   freeing hardware slots for the current hot set.  Same machinery as
   {!expire}: removed entries flip [live] and bump the generation so memos
   and compiled replays self-invalidate. *)
let demote t ~is_hot =
  let cold =
    Hashtbl.fold
      (fun key (_, payload) acc ->
        if is_hot payload.parent_input then acc else key :: acc)
      t.by_key []
  in
  List.iter (remove_key t) cold;
  if cold <> [] then t.generation <- t.generation + 1;
  List.length cold

let revalidate t pipeline =
  let work = ref 0 in
  let victims =
    Hashtbl.fold
      (fun key (fmatch, payload) acc ->
        match Executor.execute pipeline payload.parent_input with
        | Error _ -> key :: acc
        | Ok traversal ->
            work := !work + Traversal.length traversal;
            let fmatch', commit', terminal' = collapse traversal in
            if
              Fmatch.equal fmatch fmatch'
              && payload.commit = commit'
              && Action.terminal_equal payload.terminal terminal'
            then acc
            else key :: acc)
      t.by_key []
  in
  List.iter (remove_key t) victims;
  if victims <> [] then t.generation <- t.generation + 1;
  (List.length victims, !work)

let entries t = Hashtbl.fold (fun _ (f, p) acc -> (f, p.last_used) :: acc) t.by_key []

let check_invariants t =
  Fmatch.Tbl.length t.by_fmatch = Hashtbl.length t.by_key
  && Fmatch.Tbl.fold
       (fun fmatch key ok ->
         ok
         &&
         match Hashtbl.find_opt t.by_key key with
         | Some (fmatch', _) -> Fmatch.equal fmatch fmatch'
         | None -> false)
       t.by_fmatch true
