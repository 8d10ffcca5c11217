module Flow = Gf_flow.Flow

type hit = {
  terminal : Gf_pipeline.Action.terminal;
  out_flow : Flow.t;
}

let bucket_width = 4
let max_probe = 2 * bucket_width
let max_kicks = 8

(* Slot-per-index flat arrays.  [live] lists the occupied slots densely
   (its first [size] cells) so that sweeps cost O(occupancy), not
   O(slots); [live_index] maps a slot to its position in [live], -1 when
   the slot is empty, which also disambiguates live slots from the dummy
   fill (Flow.zero is a legal key).  [live] grows with occupancy. *)
type t = {
  mutable capacity : int;
  nbuckets : int; (* power of two *)
  bmask : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  keys : Flow.t array;
  hits : hit array;
  last_used : float array;
  live_index : int array;
  mutable live : int array;
  stats : Cache_stats.t;
  mutable size : int;
}

let dummy_hit = { terminal = Gf_pipeline.Action.Drop; out_flow = Flow.zero }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(policy = Evict.Lru) ?(rng_seed = 0xCC00) ~capacity () =
  assert (capacity > 0);
  (* size buckets so [capacity] live entries sit at <= 80% physical load *)
  let want_slots = (capacity * 5 / 4) + bucket_width in
  let nbuckets = next_pow2 ((want_slots + bucket_width - 1) / bucket_width) in
  let nslots = nbuckets * bucket_width in
  {
    capacity;
    nbuckets;
    bmask = nbuckets - 1;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    keys = Array.make nslots Flow.zero;
    hits = Array.make nslots dummy_hit;
    last_used = Array.make nslots 0.0;
    live_index = Array.make nslots (-1);
    live = Array.make (min nslots 64) 0;
    stats = Cache_stats.create ();
    size = 0;
  }

let capacity t = t.capacity
let slots t = t.nbuckets * bucket_width
let policy t = t.policy
let set_policy t policy = t.policy <- policy

(* The admission bound may move online; physical geometry (buckets/slots)
   is fixed, so the new bound is clamped to the slot count.  Shrinking does
   not evict residents — the bound bites on the next install. *)
let set_capacity t capacity =
  if capacity < 1 then invalid_arg "Cuckoo.set_capacity: capacity must be >= 1";
  t.capacity <- min capacity (t.nbuckets * bucket_width)
let occupancy t = t.size
let stats t = t.stats

let occupied t s = t.live_index.(s) >= 0

let bucket1 t key = Flow.hash key land t.bmask

(* Deterministic remix for the alternate bucket; nudged when it collides
   with the primary so every key genuinely has two buckets. *)
let alt_bucket t key b =
  let h = Flow.hash key in
  let h2 = (h * 0x9E3779B1) lxor (h lsr 15) in
  let b2 = h2 land t.bmask in
  if b2 = b then (b + 1) land t.bmask else b2

(* Index of the slot holding [key] among slots [s, end_) of one bucket,
   or -1.  The scans are top-level loops: a local [let rec] capturing
   [t] and [key] would allocate a closure on every probe. *)
let rec find_from t key s end_ =
  if s = end_ then -1
  else if occupied t s && Flow.equal t.keys.(s) key then s
  else find_from t key (s + 1) end_

let find_in_bucket t b key =
  let base = b * bucket_width in
  find_from t key base (base + bucket_width)

let find_slot t key =
  let b1 = bucket1 t key in
  let s = find_in_bucket t b1 key in
  if s >= 0 then s else find_in_bucket t (alt_bucket t key b1) key

let rec empty_from t s end_ =
  if s = end_ then -1 else if not (occupied t s) then s else empty_from t (s + 1) end_

let empty_in_bucket t b =
  let base = b * bucket_width in
  empty_from t base (base + bucket_width)

let lookup t ~now flow =
  let s = find_slot t flow in
  if s >= 0 then begin
    t.last_used.(s) <- now;
    Cache_stats.record_lookup t.stats ~hit:true;
    Some t.hits.(s)
  end
  else begin
    Cache_stats.record_lookup t.stats ~hit:false;
    None
  end

(* Swap-remove: the last live slot takes the cleared slot's position. *)
let clear_slot t s =
  let i = t.live_index.(s) in
  let last = t.live.(t.size - 1) in
  t.live.(i) <- last;
  t.live_index.(last) <- i;
  t.live_index.(s) <- -1;
  t.keys.(s) <- Flow.zero;
  t.hits.(s) <- dummy_hit;
  t.size <- t.size - 1

let fill_slot t s key hit now =
  if not (occupied t s) then begin
    if t.size = Array.length t.live then begin
      let grown = Array.make (min (2 * t.size) (Array.length t.keys)) 0 in
      Array.blit t.live 0 grown 0 t.size;
      t.live <- grown
    end;
    t.live.(t.size) <- s;
    t.live_index.(s) <- t.size;
    t.size <- t.size + 1
  end;
  t.keys.(s) <- key;
  t.hits.(s) <- hit;
  t.last_used.(s) <- now

(* Victim slot among the (occupied) slots of buckets [b1]/[b2] for the
   evicting policies.  Exact-match entries carry no priority, so
   [Priority_aware] degenerates to recency, like the EMC. *)
let pick_victim t b1 b2 =
  let candidates = ref [] in
  let add b =
    let base = b * bucket_width in
    for i = 0 to bucket_width - 1 do
      if occupied t (base + i) then candidates := (base + i) :: !candidates
    done
  in
  add b1;
  if b2 <> b1 then add b2;
  match !candidates with
  | [] -> -1
  | cs -> (
      match t.policy with
      | Evict.Reject -> -1
      | Evict.Lru | Evict.Priority_aware ->
          List.fold_left
            (fun best s ->
              if best < 0 || t.last_used.(s) < t.last_used.(best) then s
              else best)
            (-1) cs
      | Evict.Random ->
          let cs = List.rev cs (* deterministic order *) in
          List.nth cs (Gf_util.Rng.int t.rng (List.length cs)))

(* Re-home displaced entries for up to [max_kicks] hops; on exhaustion the
   last displaced entry is dropped (one pressure eviction). *)
let rec kick t ~depth b key hit lu =
  let s = empty_in_bucket t b in
  if s >= 0 then begin
    fill_slot t s key hit lu;
    0
  end
  else if depth >= max_kicks then begin
    t.stats.Cache_stats.pressure_evictions <-
      t.stats.Cache_stats.pressure_evictions + 1;
    1
  end
  else begin
    let base = b * bucket_width in
    let v = base + Gf_util.Rng.int t.rng bucket_width in
    let vkey = t.keys.(v) and vhit = t.hits.(v) and vlu = t.last_used.(v) in
    t.keys.(v) <- key;
    t.hits.(v) <- hit;
    t.last_used.(v) <- lu;
    let vb1 = bucket1 t vkey in
    let vb = if vb1 = b then alt_bucket t vkey vb1 else vb1 in
    kick t ~depth:(depth + 1) vb vkey vhit vlu
  end

let install t ~now flow hit =
  let s = find_slot t flow in
  if s >= 0 then begin
    t.hits.(s) <- hit;
    t.last_used.(s) <- now;
    t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
    0
  end
  else begin
    let b1 = bucket1 t flow in
    let b2 = alt_bucket t flow b1 in
    let over = t.size >= t.capacity in
    if over && t.policy = Evict.Reject then begin
      t.stats.Cache_stats.rejected <- t.stats.Cache_stats.rejected + 1;
      0
    end
    else begin
      let pressure =
        if over then begin
          let v = pick_victim t b1 b2 in
          if v >= 0 then begin
            clear_slot t v;
            t.stats.Cache_stats.pressure_evictions <-
              t.stats.Cache_stats.pressure_evictions + 1;
            1
          end
          else 0
        end
        else 0
      in
      let s = empty_in_bucket t b1 in
      let s = if s >= 0 then s else empty_in_bucket t b2 in
      if s >= 0 then begin
        fill_slot t s flow hit now;
        t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
        pressure
      end
      else if t.policy = Evict.Reject then begin
        (* both buckets full: under Reject nothing may be displaced *)
        t.stats.Cache_stats.rejected <- t.stats.Cache_stats.rejected + 1;
        pressure
      end
      else begin
        (* displace a resident of b2 and re-home it down a bounded chain:
           the newcomer overwrites the first victim in place (net size
           unchanged — one in, one in hand), then the chain either finds
           the victim a home (net +1, counted by [fill_slot]) or drops the
           last displaced entry (net 0, counted inside [kick]) *)
        let b = b2 in
        let base = b * bucket_width in
        let v = base + Gf_util.Rng.int t.rng bucket_width in
        let vkey = t.keys.(v) and vhit = t.hits.(v) and vlu = t.last_used.(v) in
        t.keys.(v) <- flow;
        t.hits.(v) <- hit;
        t.last_used.(v) <- now;
        let vb1 = bucket1 t vkey in
        let vb = if vb1 = b then alt_bucket t vkey vb1 else vb1 in
        let dropped = kick t ~depth:1 vb vkey vhit vlu in
        t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
        pressure + dropped
      end
    end
  end

(* Walks the live list from its end: a swap-remove at position [i] moves
   in the slot from the end, which has already been examined. *)
let expire t ~now ~max_idle =
  let n = ref 0 in
  for i = t.size - 1 downto 0 do
    let s = t.live.(i) in
    if now -. t.last_used.(s) > max_idle then begin
      clear_slot t s;
      incr n
    end
  done;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + !n;
  !n

let invalidate_all t =
  let n = t.size in
  for i = 0 to n - 1 do
    let s = t.live.(i) in
    t.live_index.(s) <- -1;
    t.keys.(s) <- Flow.zero;
    t.hits.(s) <- dummy_hit
  done;
  t.size <- 0;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + n;
  n

let slot t s = if occupied t s then Some (t.keys.(s), t.last_used.(s)) else None

(* Every occupied slot is listed exactly once at its recorded position,
   and nothing else is: the full scan the live list saves the sweeps. *)
let check_invariants t =
  let ok = ref (t.size >= 0 && t.size <= Array.length t.live) in
  let occupied_slots = ref 0 in
  Array.iteri
    (fun s i ->
      if i >= 0 then begin
        incr occupied_slots;
        if i >= t.size || t.live.(i) <> s then ok := false
      end)
    t.live_index;
  !ok && !occupied_slots = t.size
