module Action = Gf_pipeline.Action
module Flow = Gf_flow.Flow
module Cache_stats = Gf_cache.Cache_stats
module Evict = Gf_cache.Evict

type hit = { terminal : Action.terminal; out_flow : Flow.t; tables_matched : int }

type install_result =
  | Installed of { fresh : int; shared : int; pressure_evicted : int }
  | Rejected

(* Per-flow lookup memo (see [lookup_memo]): result, work and the matched
   entries (the walk's touch set) of the last lookup for a flow id, valid
   while [generation] is unchanged — i.e. while no install/eviction has
   changed any table's entry set.  Touch-only mutations (last-used /
   last-hit refreshes, share counts) deliberately do not invalidate:
   replay reapplies them exactly. *)
type memo = {
  mutable m_gen : int;
  mutable m_result : hit option;
  mutable m_work : int;
  mutable m_touched : Ltm_table.stored list; (* reverse match order, as walked *)
}

type t = {
  mutable config : Config.t;
  rng : Gf_util.Rng.t;
  tables : Ltm_table.t array;
  stats : Cache_stats.t;
  memo_tbl : (int, memo) Hashtbl.t; (* flow id -> last lookup *)
  mutable generation : int; (* bumped on any structural entry-set change *)
  mutable last_depth : int;
      (* tables matched by the most recent lookup: the tag-chain reuse
         depth on a hit, the partial-prefix progress on a miss (non-zero
         means the chain matched a prefix then dead-ended — a stall).
         Observability only; never read by the datapath logic. *)
}

let create ?(rng_seed = 0x61F) config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ltm_cache.create: " ^ msg));
  {
    config;
    rng = Gf_util.Rng.create rng_seed;
    tables =
      Array.init config.Config.tables (fun _ ->
          Ltm_table.create ~capacity:config.Config.table_capacity);
    stats = Cache_stats.create ();
    memo_tbl = Hashtbl.create 256;
    generation = 0;
    last_depth = 0;
  }

let config t = t.config
let stats t = t.stats
let last_depth t = t.last_depth

(* Replacement policy is read per install from [t.config], so swapping the
   config record is the whole actuation; geometry fields are untouched. *)
let set_policy t policy = t.config <- { t.config with Config.policy }

let occupancy t = Array.fold_left (fun acc table -> acc + Ltm_table.occupancy table) 0 t.tables

let table_occupancies t = Array.map Ltm_table.occupancy t.tables

let available_tables t =
  Array.fold_left (fun acc table -> if Ltm_table.is_full table then acc else acc + 1) 0 t.tables

(* One flow copy for the whole commit (none when it is empty), not one
   [Flow.set] copy per field: this runs at every matched table. *)
let apply_commit commit flow = Flow.update flow commit

let lookup_core t ~now ~entry_tag flow =
  let k = Array.length t.tables in
  let matched_entries = ref [] in
  let rec walk i tag flow matched work =
    if i >= k then (None, work)
    else begin
      let stored, w = Ltm_table.lookup t.tables.(i) ~tag flow in
      let work = work + w in
      match stored with
      | None -> walk (i + 1) tag flow matched work
      | Some s -> (
          s.Ltm_table.last_used <- now;
          matched_entries := s :: !matched_entries;
          let rule = s.Ltm_table.rule in
          let flow = apply_commit rule.Ltm_rule.commit flow in
          match rule.Ltm_rule.next with
          | Ltm_rule.Done terminal ->
              (Some { terminal; out_flow = flow; tables_matched = matched + 1 }, work)
          | Ltm_rule.Next_tag tag -> walk (i + 1) tag flow (matched + 1) work)
    end
  in
  let result, work = walk 0 entry_tag flow 0 0 in
  (* Completion recency: only full traversals refresh [last_hit], so a dead
     chain prefix that every miss still touches goes cold in the eyes of
     the replacement policies (it keeps its [last_used] touches for idle
     expiry, preserving legacy expiry behaviour). *)
  if Option.is_some result then
    List.iter (fun s -> s.Ltm_table.last_hit <- now) !matched_entries;
  Cache_stats.record_lookup t.stats ~hit:(Option.is_some result);
  t.last_depth <- List.length !matched_entries;
  (result, work, !matched_entries)

let lookup t ~now ~entry_tag flow =
  let result, work, _ = lookup_core t ~now ~entry_tag flow in
  (result, work)

(* Memoised lookup keyed by trace flow id.  While no install/eviction has
   changed any table's entry set (generation guard), a repeat packet of a
   known flow replays the previous walk: same result and work (tag gating
   and priority scans are deterministic over a fixed entry set), same
   touch side effects on the matched entries.  Observably identical to
   {!lookup}; callers must present the same [flow] value for a given
   [flow_id]. *)
let lookup_memo t ~now ~entry_tag ~flow_id flow =
  match Hashtbl.find_opt t.memo_tbl flow_id with
  | Some m when m.m_gen = t.generation ->
      List.iter (fun s -> s.Ltm_table.last_used <- now) m.m_touched;
      if Option.is_some m.m_result then
        List.iter (fun s -> s.Ltm_table.last_hit <- now) m.m_touched;
      Cache_stats.record_lookup t.stats ~hit:(Option.is_some m.m_result);
      t.last_depth <- List.length m.m_touched;
      (m.m_result, m.m_work)
  | memo ->
      let result, work, touched = lookup_core t ~now ~entry_tag flow in
      (match memo with
      | Some m ->
          m.m_gen <- t.generation;
          m.m_result <- result;
          m.m_work <- work;
          m.m_touched <- touched
      | None ->
          Hashtbl.replace t.memo_tbl flow_id
            { m_gen = t.generation; m_result = result; m_work = work; m_touched = touched });
      (result, work)

(* Compiled hit replay for the datapath's per-flow fast path: after
   {!lookup_memo} stored a hit for [flow_id], a closure performing just
   that hit's per-packet side effects (touch the matched entries, stats)
   with the memo find hoisted out.  The LTM walk's work and touch set
   depend on every table's contents (tag gating, priority scan order), so
   validity is the generation guard plus the memo still holding the same
   result; [None] once stale. *)
let prepare_replay t ~flow_id =
  match Hashtbl.find_opt t.memo_tbl flow_id with
  | Some ({ m_result = Some _ as result0; _ } as m) ->
      Some
        (fun ~now ->
          if m.m_gen = t.generation && m.m_result == result0 then begin
            List.iter
              (fun s ->
                s.Ltm_table.last_used <- now;
                s.Ltm_table.last_hit <- now)
              m.m_touched;
            Cache_stats.record_lookup t.stats ~hit:true;
            Some m.m_work
          end
          else None)
  | Some { m_result = None; _ } | None -> None

(* Placement planning: segments must land in strictly increasing table
   positions; segment i (0-based, m total) must sit at a position p with
   enough tables after it for the remaining segments (p <= K - (m - i)).
   Reuse of an identical entry is free; otherwise the first non-full
   feasible table is taken.  All-or-nothing.  On failure, [`Stuck (lo,
   hi)] reports the feasible position range of the first unplaceable
   segment — every table in it is full — so pressure eviction knows
   where a freed slot would help. *)
let plan_ex t rules =
  let k = Array.length t.tables in
  let m = List.length rules in
  if m > k then `Too_long
  else begin
    let placements = ref [] in
    let rec go i min_pos = function
      | [] -> `Ok (List.rev !placements)
      | rule :: rest -> (
          let max_pos = k - (m - i) in
          let signature = Ltm_rule.signature rule in
          let rec find_reuse p =
            if p > max_pos then None
            else
              match Ltm_table.find_identical t.tables.(p) signature with
              | Some stored -> Some (p, `Reuse stored)
              | None -> find_reuse (p + 1)
          in
          let rec find_free p =
            if p > max_pos then None
            else if not (Ltm_table.is_full t.tables.(p)) then Some (p, `Fresh rule)
            else find_free (p + 1)
          in
          match
            match find_reuse min_pos with
            | Some r -> Some r
            | None -> find_free min_pos
          with
          | None -> `Stuck (min_pos, max_pos)
          | Some (p, action) ->
              placements := (p, action) :: !placements;
              go (i + 1) (p + 1) rest)
    in
    go 0 0 rules
  end

(* Tag-chain-safe victims in the full tables of positions [lo..hi].  A
   victim is safe when removing it cannot strand a dependent
   continuation: either its chain terminates here ([Done]), or no entry
   in a later table consumes the tag it produces.  (Evicting a
   {e successor} is always correctness-safe — the walk dead-ends and the
   packet falls back to the slowpath — but it would leave the
   predecessor's continuation unreachable garbage, so we never create
   that shape.) *)
let safe_victims t ~lo ~hi =
  let k = Array.length t.tables in
  let last_consumer = Hashtbl.create 16 in
  for p = 0 to k - 1 do
    Ltm_table.iter t.tables.(p) (fun s ->
        Hashtbl.replace last_consumer s.Ltm_table.rule.Ltm_rule.tag_in p)
  done;
  let safe p (s : Ltm_table.stored) =
    match s.Ltm_table.rule.Ltm_rule.next with
    | Ltm_rule.Done _ -> true
    | Ltm_rule.Next_tag tag -> (
        match Hashtbl.find_opt last_consumer tag with
        | None -> true
        | Some q -> q <= p (* the walk only moves forward; consumers at or
                              before [p] can never follow this entry *))
  in
  let acc = ref [] in
  for p = lo to hi do
    if Ltm_table.is_full t.tables.(p) then
      Ltm_table.iter t.tables.(p) (fun s -> if safe p s then acc := (p, s) :: !acc)
  done;
  !acc

let pick_victim t candidates =
  let policy = t.config.Config.policy in
  match (policy, candidates) with
  | Evict.Reject, _ | _, [] -> None
  | Evict.Random, _ ->
      let n = List.length candidates in
      Some (List.nth candidates (Gf_util.Rng.int t.rng n))
  | (Evict.Lru | Evict.Priority_aware), _ ->
      let better (p, (s : Ltm_table.stored)) (p', (s' : Ltm_table.stored)) =
        let lru () =
          (* Rank by completion recency, not raw touch recency: dead chain
             prefixes are touched by every miss but never complete, and
             must look cold here. *)
          s.Ltm_table.last_hit < s'.Ltm_table.last_hit
          || (s.Ltm_table.last_hit = s'.Ltm_table.last_hit
             && (p, s.Ltm_table.key) < (p', s'.Ltm_table.key))
        in
        match policy with
        | Evict.Priority_aware ->
            (* Priority encodes sub-traversal length: shed the shortest
               (least coverage) first, then least recently used. *)
            let pr = s.Ltm_table.rule.Ltm_rule.priority
            and pr' = s'.Ltm_table.rule.Ltm_rule.priority in
            pr < pr' || (pr = pr' && lru ())
        | _ -> lru ()
      in
      List.fold_left
        (fun best c ->
          match best with Some b when not (better c b) -> best | _ -> Some c)
        None candidates

let install t ~now rules =
  let k = Array.length t.tables in
  let pressure = ref 0 in
  let rec attempt budget =
    match plan_ex t rules with
    | `Ok placements -> Some placements
    | `Too_long -> None
    | `Stuck (lo, hi) -> (
        if budget = 0 then None
        else
          match pick_victim t (safe_victims t ~lo ~hi) with
          | Some (p, s) ->
              Ltm_table.remove t.tables.(p) s;
              t.stats.Cache_stats.pressure_evictions <-
                t.stats.Cache_stats.pressure_evictions + 1;
              incr pressure;
              attempt (budget - 1)
          | None -> None)
  in
  match attempt (2 * k) with
  | None ->
      t.stats.Cache_stats.rejected <- t.stats.Cache_stats.rejected + 1;
      (* A failed plan may still have evicted victims while replanning. *)
      if !pressure > 0 then t.generation <- t.generation + 1;
      Rejected
  | Some placements ->
      let fresh = ref 0 and shared = ref 0 in
      List.iter
        (fun (p, action) ->
          match action with
          | `Reuse stored ->
              stored.Ltm_table.shares <- stored.Ltm_table.shares + 1;
              stored.Ltm_table.last_used <- now;
              stored.Ltm_table.last_hit <- now;
              incr shared
          | `Fresh rule ->
              ignore (Ltm_table.insert t.tables.(p) ~now rule);
              incr fresh)
        placements;
      t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + !fresh;
      t.stats.Cache_stats.shared <- t.stats.Cache_stats.shared + !shared;
      (* Reuse-only installs touch recency/shares but change no entry set:
         memoised lookups stay valid. *)
      if !fresh > 0 || !pressure > 0 then t.generation <- t.generation + 1;
      Installed { fresh = !fresh; shared = !shared; pressure_evicted = !pressure }

let expire t ~now ~max_idle =
  let total = ref 0 in
  Array.iter
    (fun table ->
      let victims =
        Ltm_table.fold table ~init:[] ~f:(fun acc stored ->
            if now -. stored.Ltm_table.last_used > max_idle then stored :: acc else acc)
      in
      List.iter (Ltm_table.remove table) victims;
      total := !total + List.length victims)
    t.tables;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + !total;
  if !total > 0 then t.generation <- t.generation + 1;
  !total

(* Admission re-partition sweep: evict stored rules whose originating flow
   went cold under the caller's hotness predicate.  Shared rules (shares >
   0) are kept — their single recorded parent flow is not representative
   of every traversal reusing them.  Like {!expire}, no tag-chain-safety
   filter is needed: evicting a predecessor just dead-ends its consumers
   to the slowpath. *)
let demote t ~is_hot =
  let total = ref 0 in
  Array.iter
    (fun table ->
      let victims =
        Ltm_table.fold table ~init:[] ~f:(fun acc stored ->
            if
              stored.Ltm_table.shares = 0
              && not (is_hot stored.Ltm_table.rule.Ltm_rule.origin.Ltm_rule.parent_flow)
            then stored :: acc
            else acc)
      in
      List.iter (Ltm_table.remove table) victims;
      total := !total + List.length victims)
    t.tables;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + !total;
  if !total > 0 then t.generation <- t.generation + 1;
  !total

(* Re-derive the rule a stored entry should be and compare signatures. *)
let revalidate_stored pipeline (stored : Ltm_table.stored) =
  let rule = stored.Ltm_table.rule in
  let origin = rule.Ltm_rule.origin in
  let prefix =
    Gf_pipeline.Executor.trace ~start:rule.Ltm_rule.tag_in
      ~max_steps:origin.Ltm_rule.length pipeline origin.Ltm_rule.parent_flow
  in
  let steps = prefix.Gf_pipeline.Executor.prefix_steps in
  let executed = Array.length steps in
  let consistent =
    executed = origin.Ltm_rule.length
    &&
    let next_ok =
      match (rule.Ltm_rule.next, prefix.Gf_pipeline.Executor.status) with
      | Ltm_rule.Done terminal, `Terminal terminal' ->
          Action.terminal_equal terminal terminal'
      | Ltm_rule.Next_tag tag, `More tag' -> tag = tag'
      | Ltm_rule.Done _, (`More _ | `Stuck _)
      | Ltm_rule.Next_tag _, (`Terminal _ | `Stuck _) ->
          false
    in
    next_ok
    &&
    let last = executed - 1 in
    let wildcard = Gf_pipeline.Traversal.wildcard_of_steps steps ~first:0 ~last in
    let fmatch = Gf_flow.Fmatch.v ~pattern:origin.Ltm_rule.parent_flow ~mask:wildcard in
    let commit = Gf_pipeline.Traversal.commit_of_steps steps ~first:0 ~last in
    Gf_flow.Fmatch.equal fmatch rule.Ltm_rule.fmatch && commit = rule.Ltm_rule.commit
  in
  (consistent, executed)

let revalidate t pipeline =
  let evicted = ref 0 and work = ref 0 in
  Array.iter
    (fun table ->
      let victims =
        Ltm_table.fold table ~init:[] ~f:(fun acc stored ->
            let consistent, executed = revalidate_stored pipeline stored in
            work := !work + executed;
            if consistent then acc else stored :: acc)
      in
      List.iter (Ltm_table.remove table) victims;
      evicted := !evicted + List.length victims)
    t.tables;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + !evicted;
  if !evicted > 0 then t.generation <- t.generation + 1;
  (!evicted, !work)

let sharing_histogram t =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun table ->
      Ltm_table.iter table (fun stored ->
          let s = stored.Ltm_table.shares in
          Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))))
    t.tables;
  Hashtbl.fold (fun shares n acc -> (shares, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mean_sharing t =
  let total = ref 0 and n = ref 0 in
  Array.iter
    (fun table ->
      Ltm_table.iter table (fun stored ->
          total := !total + stored.Ltm_table.shares;
          incr n))
    t.tables;
  if !n = 0 then nan else float_of_int !total /. float_of_int !n

let iter_rules t f =
  Array.iteri (fun i table -> Ltm_table.iter table (fun stored -> f ~table:i stored)) t.tables

(* One forward pass suffices: tags only flow to strictly later tables, and
   a tag once produced (or an entry tag) stays available for every later
   table because non-matching tables pass the packet through unchanged. *)
let stranded t ~entry_tags =
  let k = Array.length t.tables in
  let available = Hashtbl.create 16 in
  List.iter (fun tag -> Hashtbl.replace available tag ()) entry_tags;
  let count = ref 0 in
  for p = 0 to k - 1 do
    let produced = ref [] in
    Ltm_table.iter t.tables.(p) (fun s ->
        if Hashtbl.mem available s.Ltm_table.rule.Ltm_rule.tag_in then (
          match s.Ltm_table.rule.Ltm_rule.next with
          | Ltm_rule.Done _ -> ()
          | Ltm_rule.Next_tag tag -> produced := tag :: !produced)
        else incr count);
    List.iter (fun tag -> Hashtbl.replace available tag ()) !produced
  done;
  !count

let clear t =
  Array.iteri
    (fun i _ ->
      t.tables.(i) <- Ltm_table.create ~capacity:t.config.Config.table_capacity)
    t.tables;
  t.generation <- t.generation + 1
