(* Tests for gigaflow.cache: Microflow and Megaflow. *)

open Helpers
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Action = Gf_pipeline.Action
module Executor = Gf_pipeline.Executor
module Pipeline = Gf_pipeline.Pipeline
module Microflow = Gf_cache.Microflow
module Megaflow = Gf_cache.Megaflow
module Cuckoo = Gf_cache.Cuckoo
module Evict = Gf_cache.Evict
module Cache_stats = Gf_cache.Cache_stats

let a_hit = { Microflow.terminal = Action.Output 1; out_flow = Flow.zero }
let a_cuckoo_hit = { Cuckoo.terminal = Action.Output 1; out_flow = Flow.zero }
let hit _cache = a_hit

let test_microflow_basic () =
  let c = Microflow.create ~capacity:4 () in
  let f = Flow.make [ (Field.Vlan, 1) ] in
  Alcotest.(check bool) "miss first" true (Microflow.lookup c ~now:0.0 f = None);
  ignore @@ Microflow.install c ~now:0.0 f (hit c);
  Alcotest.(check bool) "hit after install" true (Microflow.lookup c ~now:1.0 f <> None);
  Alcotest.(check int) "occupancy" 1 (Microflow.occupancy c)

let test_microflow_lru_eviction () =
  let c = Microflow.create ~capacity:2 () in
  let f i = Flow.make [ (Field.Vlan, i) ] in
  ignore @@ Microflow.install c ~now:0.0 (f 1) (hit c);
  ignore @@ Microflow.install c ~now:1.0 (f 2) (hit c);
  ignore (Microflow.lookup c ~now:2.0 (f 1));
  (* refresh f1 *)
  ignore @@ Microflow.install c ~now:3.0 (f 3) (hit c);
  Alcotest.(check bool) "f2 evicted (LRU)" true (Microflow.lookup c ~now:4.0 (f 2) = None);
  Alcotest.(check bool) "f1 kept" true (Microflow.lookup c ~now:4.0 (f 1) <> None)

let test_microflow_expire () =
  let c = Microflow.create ~capacity:8 () in
  let f i = Flow.make [ (Field.Vlan, i) ] in
  ignore @@ Microflow.install c ~now:0.0 (f 1) (hit c);
  ignore @@ Microflow.install c ~now:5.0 (f 2) (hit c);
  Alcotest.(check int) "one expired" 1 (Microflow.expire c ~now:11.0 ~max_idle:10.0);
  Alcotest.(check int) "occupancy" 1 (Microflow.occupancy c)

let test_microflow_invalidate_all () =
  let c = Microflow.create ~capacity:8 () in
  ignore @@ Microflow.install c ~now:0.0 (Flow.make [ (Field.Vlan, 1) ]) (hit c);
  ignore @@ Microflow.install c ~now:0.0 (Flow.make [ (Field.Vlan, 2) ]) (hit c);
  Alcotest.(check int) "flushed" 2 (Microflow.invalidate_all c);
  Alcotest.(check int) "empty" 0 (Microflow.occupancy c)

let test_microflow_policy_pressure () =
  let f i = Flow.make [ (Field.Vlan, i) ] in
  (* Reject: a full cache refuses installs and counts them, today's
     megaflow-style behaviour. *)
  let c = Microflow.create ~policy:Gf_cache.Evict.Reject ~capacity:2 () in
  Alcotest.(check int) "no eviction" 0 (Microflow.install c ~now:0.0 (f 1) (hit c));
  ignore @@ Microflow.install c ~now:1.0 (f 2) (hit c);
  Alcotest.(check int) "rejected returns 0" 0
    (Microflow.install c ~now:2.0 (f 3) (hit c));
  Alcotest.(check int) "occupancy capped" 2 (Microflow.occupancy c);
  Alcotest.(check int) "rejection counted" 1 (Microflow.stats c).Cache_stats.rejected;
  Alcotest.(check int) "no pressure evictions" 0
    (Microflow.stats c).Cache_stats.pressure_evictions;
  Alcotest.(check bool) "new flow absent" true (Microflow.lookup c ~now:3.0 (f 3) = None);
  (* Every evicting policy keeps occupancy at capacity and counts each
     eviction exactly once. *)
  List.iter
    (fun policy ->
      let c = Microflow.create ~policy ~capacity:4 () in
      let pressure = ref 0 in
      for i = 1 to 50 do
        pressure := !pressure + Microflow.install c ~now:(float_of_int i) (f i) (hit c)
      done;
      Alcotest.(check int) "occupancy = capacity" 4 (Microflow.occupancy c);
      Alcotest.(check int) "46 pressure evictions" 46 !pressure;
      Alcotest.(check int) "stats agree" 46
        (Microflow.stats c).Cache_stats.pressure_evictions;
      Alcotest.(check int) "nothing rejected" 0 (Microflow.stats c).Cache_stats.rejected)
    [ Gf_cache.Evict.Lru; Gf_cache.Evict.Random; Gf_cache.Evict.Priority_aware ]

let test_cache_stats () =
  let s = Cache_stats.create () in
  Cache_stats.record_lookup s ~hit:true;
  Cache_stats.record_lookup s ~hit:false;
  Cache_stats.record_lookup s ~hit:true;
  Alcotest.(check (float 1e-9)) "hit rate" (2.0 /. 3.0) (Cache_stats.hit_rate s);
  Cache_stats.reset s;
  Alcotest.(check int) "reset" 0 s.Cache_stats.lookups

(* Megaflow correctness: a cache hit must reproduce the slowpath decision for
   any flow, not just the one that installed the entry. *)
let prop_megaflow_consistent =
  QCheck2.Test.make ~name:"megaflow hit = slowpath decision" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:4 ~rules_per_table:10 in
      let cache = Megaflow.create ~capacity:4096 () in
      let ok = ref true in
      for _ = 1 to 150 do
        let flow = pool_flow rng in
        match Megaflow.lookup cache ~now:0.0 flow with
        | Some h, _ -> (
            match Executor.terminal_of p flow with
            | Ok (terminal, out_flow) ->
                if
                  (not (Action.terminal_equal h.Megaflow.terminal terminal))
                  || not (Flow.equal h.Megaflow.out_flow out_flow)
                then ok := false
            | Error _ -> ok := false)
        | None, _ -> (
            match Executor.execute p flow with
            | Ok traversal -> ignore (Megaflow.install cache ~now:0.0 ~version:0 traversal)
            | Error _ -> ())
      done;
      !ok)

let test_megaflow_collapses_flows () =
  (* Two flows differing only in unconsulted bits share one entry. *)
  let rng = Gf_util.Rng.create 21 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:4 in
  let cache = Megaflow.create ~capacity:128 () in
  let flow = pool_flow rng in
  (match Executor.execute p flow with
  | Ok tr -> ignore (Megaflow.install cache ~now:0.0 ~version:0 tr)
  | Error _ -> Alcotest.fail "exec failed");
  Alcotest.(check int) "one entry" 1 (Megaflow.occupancy cache);
  match Executor.execute p flow with
  | Ok tr ->
      Alcotest.(check bool) "same traversal dedups" true
        (Megaflow.install cache ~now:1.0 ~version:0 tr = `Exists)
  | Error _ -> Alcotest.fail "exec failed"

let test_megaflow_capacity_reject () =
  let rng = Gf_util.Rng.create 22 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:12 in
  let cache = Megaflow.create ~capacity:2 () in
  let installed = ref 0 and rejected = ref 0 in
  for _ = 1 to 200 do
    let flow = pool_flow rng in
    match Executor.execute p flow with
    | Ok tr -> (
        match Megaflow.install cache ~now:0.0 ~version:0 tr with
        | `Installed _ -> incr installed
        | `Rejected -> incr rejected
        | `Exists -> ())
    | Error _ -> ()
  done;
  Alcotest.(check int) "filled to capacity" 2 !installed;
  Alcotest.(check bool) "rejections counted" true (!rejected > 0);
  Alcotest.(check int) "stats agree" !rejected (Megaflow.stats cache).Cache_stats.rejected

let test_megaflow_pressure_eviction () =
  let rng = Gf_util.Rng.create 26 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:12 in
  List.iter
    (fun policy ->
      let cache = Megaflow.create ~policy ~capacity:2 () in
      let pressure = ref 0 and installed = ref 0 in
      for i = 1 to 200 do
        let flow = pool_flow rng in
        match Executor.execute p flow with
        | Ok tr -> (
            match Megaflow.install cache ~now:(float_of_int i) ~version:0 tr with
            | `Installed n ->
                incr installed;
                pressure := !pressure + n
            | `Rejected -> Alcotest.fail "evicting policy rejected an install"
            | `Exists -> ())
        | Error _ -> ()
      done;
      Alcotest.(check bool) "occupancy capped" true (Megaflow.occupancy cache <= 2);
      Alcotest.(check bool) "installs kept landing" true (!installed > 2);
      Alcotest.(check int) "per-install counts sum to stats" !pressure
        (Megaflow.stats cache).Cache_stats.pressure_evictions;
      Alcotest.(check int) "pressure = installs - capacity" (!installed - 2) !pressure;
      Alcotest.(check int) "idle evictions untouched" 0
        (Megaflow.stats cache).Cache_stats.evictions;
      Alcotest.(check bool) "indexes stay a bijection" true
        (Megaflow.check_invariants cache))
    [ Gf_cache.Evict.Lru; Gf_cache.Evict.Random; Gf_cache.Evict.Priority_aware ]

let test_megaflow_lru_keeps_hot_entry () =
  let rng = Gf_util.Rng.create 27 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:12 in
  let cache = Megaflow.create ~policy:Gf_cache.Evict.Lru ~capacity:2 () in
  (* Install until two distinct entries are cached, remembering a flow that
     hits the first one. *)
  let hot = ref None in
  let tries = ref 0 in
  while Megaflow.occupancy cache < 2 && !tries < 500 do
    incr tries;
    let flow = pool_flow rng in
    match Executor.execute p flow with
    | Ok tr ->
        if Megaflow.install cache ~now:0.0 ~version:0 tr = `Installed 0 && !hot = None
        then hot := Some flow
    | Error _ -> ()
  done;
  let hot = Option.get !hot in
  (* Keep the hot entry fresh while churning new installs through: it must
     survive every pressure eviction. *)
  for i = 1 to 100 do
    let now = float_of_int i in
    Alcotest.(check bool) "hot entry survives" true
      (fst (Megaflow.lookup cache ~now hot) <> None);
    match Executor.execute p (pool_flow rng) with
    | Ok tr -> ignore (Megaflow.install cache ~now ~version:0 tr)
    | Error _ -> ()
  done

let test_megaflow_expire () =
  let rng = Gf_util.Rng.create 23 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:6 in
  let cache = Megaflow.create ~capacity:1024 () in
  for _ = 1 to 50 do
    let flow = pool_flow rng in
    match Executor.execute p flow with
    | Ok tr -> ignore (Megaflow.install cache ~now:0.0 ~version:0 tr)
    | Error _ -> ()
  done;
  let before = Megaflow.occupancy cache in
  Alcotest.(check bool) "installed some" true (before > 0);
  let evicted = Megaflow.expire cache ~now:100.0 ~max_idle:10.0 in
  Alcotest.(check int) "all idle evicted" before evicted;
  Alcotest.(check int) "empty" 0 (Megaflow.occupancy cache)

let test_megaflow_revalidation_detects_change () =
  let rng = Gf_util.Rng.create 24 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:6 in
  let cache = Megaflow.create ~capacity:1024 () in
  let flows = List.init 60 (fun _ -> pool_flow rng) in
  List.iter
    (fun flow ->
      match Executor.execute p flow with
      | Ok tr -> ignore (Megaflow.install cache ~now:0.0 ~version:(Pipeline.version p) tr)
      | Error _ -> ())
    flows;
  (* Unchanged pipeline: nothing evicted. *)
  let evicted, work = Megaflow.revalidate cache p in
  Alcotest.(check int) "consistent cache untouched" 0 evicted;
  Alcotest.(check bool) "revalidation did work" true (work > 0);
  (* Now shadow everything with a top-priority drop rule in the entry
     table. *)
  Pipeline.add_rule p ~table:0
    (Gf_pipeline.Ofrule.v ~id:(Pipeline.fresh_rule_id p) ~priority:1_000_000
       ~fmatch:Fmatch.any ~action:(Action.drop ()));
  let evicted, _ = Megaflow.revalidate cache p in
  Alcotest.(check int) "all entries invalidated" (Megaflow.occupancy cache + evicted)
    (evicted + Megaflow.occupancy cache);
  Alcotest.(check bool) "everything evicted" true (Megaflow.occupancy cache = 0 && evicted > 0)

(* After revalidation, surviving entries still agree with the pipeline. *)
let prop_megaflow_revalidate_sound =
  QCheck2.Test.make ~name:"revalidation leaves only consistent entries" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:4 ~rules_per_table:8 in
      let cache = Megaflow.create ~capacity:4096 () in
      for _ = 1 to 80 do
        let flow = pool_flow rng in
        match Executor.execute p flow with
        | Ok tr -> ignore (Megaflow.install cache ~now:0.0 ~version:0 tr)
        | Error _ -> ()
      done;
      (* Random mutation: remove a handful of rules. *)
      List.iter
        (fun table ->
          match Gf_pipeline.Oftable.rules table with
          | r :: _ when Gf_util.Rng.bool rng ->
              ignore (Pipeline.remove_rule p ~table:(Gf_pipeline.Oftable.id table) r.Gf_pipeline.Ofrule.id)
          | _ -> ())
        (Pipeline.tables p);
      ignore (Megaflow.revalidate cache p);
      (* All surviving entries reproduce the new slowpath decision. *)
      let ok = ref true in
      for _ = 1 to 100 do
        let flow = pool_flow rng in
        match Megaflow.lookup cache ~now:0.0 flow with
        | Some h, _ -> (
            match Executor.terminal_of p flow with
            | Ok (terminal, out_flow) ->
                if
                  (not (Action.terminal_equal h.Megaflow.terminal terminal))
                  || not (Flow.equal h.Megaflow.out_flow out_flow)
                then ok := false
            | Error _ -> ok := false)
        | None, _ -> ()
      done;
      !ok)

(* Under random install/lookup/expire churn with an evicting policy, the
   megaflow's two indexes must remain a bijection and occupancy must never
   exceed capacity. *)
let prop_megaflow_invariants_under_churn =
  QCheck2.Test.make ~name:"megaflow invariants under eviction churn" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:3 ~rules_per_table:10 in
      let policy =
        Gf_util.Rng.pick rng
          [| Gf_cache.Evict.Lru; Gf_cache.Evict.Random; Gf_cache.Evict.Priority_aware |]
      in
      let cache = Megaflow.create ~policy ~capacity:4 () in
      let ok = ref true in
      for i = 1 to 150 do
        let now = float_of_int i in
        (match Executor.execute p (pool_flow rng) with
        | Ok tr -> ignore (Megaflow.install cache ~now ~version:i tr)
        | Error _ -> ());
        ignore (Megaflow.lookup cache ~now (pool_flow rng));
        if i mod 40 = 0 then ignore (Megaflow.expire cache ~now ~max_idle:20.0);
        if Megaflow.occupancy cache > 4 || not (Megaflow.check_invariants cache) then
          ok := false
      done;
      !ok)

(* The invariant that licenses the ranked first-match TSS walk
   (Tss.lookup_first): wherever Megaflow entries overlap, they agree — every
   matching entry reproduces the slowpath decision, so whichever entry a
   first-match walk returns is correct. *)
let prop_megaflow_any_match_correct =
  QCheck2.Test.make ~name:"every matching megaflow entry is correct" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:4 ~rules_per_table:10 in
      let cache = Megaflow.create ~capacity:4096 () in
      for _ = 1 to 120 do
        match Executor.execute p (pool_flow rng) with
        | Ok tr -> ignore (Megaflow.install cache ~now:0.0 ~version:0 tr)
        | Error _ -> ()
      done;
      let entries = List.map fst (Megaflow.entries cache) in
      let ok = ref true in
      for _ = 1 to 80 do
        let flow = pool_flow rng in
        let matching = List.filter (fun fm -> Gf_flow.Fmatch.matches fm flow) entries in
        match matching with
        | [] -> ()
        | _ :: _ -> (
            (* The cache's own answer must equal the slowpath, and every
               matching entry region must produce the same decision (probe
               via lookup, which returns some matching entry). *)
            match (Megaflow.lookup cache ~now:0.0 flow, Executor.terminal_of p flow) with
            | (Some h, _), Ok (terminal, out_flow) ->
                if
                  (not (Action.terminal_equal h.Megaflow.terminal terminal))
                  || not (Flow.equal h.Megaflow.out_flow out_flow)
                then ok := false
            | (None, _), _ -> ok := false (* matched entries but lookup missed *)
            | (Some _, _), Error _ -> ok := false)
      done;
      !ok)

(* Satellite: Priority_aware under capacity churn.  Whatever the
   interleaving of installs, refreshing lookups and expiry sweeps at a full
   table, the policy must (a) always admit the incoming entry by evicting
   exactly one admissible victim, (b) keep occupancy at/below capacity, and
   (c) count every pressure eviction exactly once in the stats. *)
let prop_priority_aware_churn =
  QCheck2.Test.make ~name:"priority-aware eviction under capacity churn"
    ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let capacity = 2 + Gf_util.Rng.int rng 6 in
      let c =
        Microflow.create ~policy:Gf_cache.Evict.Priority_aware ~capacity ()
      in
      let f i = Flow.make [ (Field.Vlan, i) ] in
      let pressure = ref 0 in
      let ok = ref true in
      for i = 1 to 300 do
        let now = float_of_int i in
        let key = 1 + Gf_util.Rng.int rng 40 in
        (match Gf_util.Rng.int rng 4 with
        | 0 | 1 ->
            let evicted = Microflow.install c ~now (f key) a_hit in
            pressure := !pressure + evicted;
            (* The incoming entry is always admitted (Priority_aware never
               rejects), and at most one victim pays for it. *)
            if evicted > 1 then ok := false;
            if Microflow.lookup c ~now (f key) = None then ok := false
        | 2 -> ignore (Microflow.lookup c ~now (f key))
        | _ -> if i mod 60 = 0 then ignore (Microflow.expire c ~now ~max_idle:25.0));
        if Microflow.occupancy c > capacity then ok := false
      done;
      !ok
      && !pressure = (Microflow.stats c).Cache_stats.pressure_evictions
      && (Microflow.stats c).Cache_stats.rejected = 0)

let test_megaflow_search_algos_agree () =
  let rng = Gf_util.Rng.create 25 in
  let p = random_pipeline rng ~tables:4 ~rules_per_table:10 in
  let tss = Megaflow.create ~search:`Tss ~capacity:4096 () in
  let nm = Megaflow.create ~search:`Nuevomatch ~capacity:4096 () in
  for _ = 1 to 100 do
    let flow = pool_flow rng in
    match Executor.execute p flow with
    | Ok tr ->
        ignore (Megaflow.install tss ~now:0.0 ~version:0 tr);
        ignore (Megaflow.install nm ~now:0.0 ~version:0 tr)
    | Error _ -> ()
  done;
  for _ = 1 to 200 do
    let flow = pool_flow rng in
    let a, _ = Megaflow.lookup tss ~now:1.0 flow in
    let b, _ = Megaflow.lookup nm ~now:1.0 flow in
    match (a, b) with
    | Some x, Some y ->
        Alcotest.check terminal_testable "same terminal" x.Megaflow.terminal
          y.Megaflow.terminal
    | None, None -> ()
    | Some _, None | None, Some _ -> Alcotest.fail "tss/nm disagree on hit"
  done

(* Sweep oracles.  [Cuckoo.expire] and [invalidate_all] walk a dense list
   of live slots and [Megaflow.expire] folds over an occupancy-sized
   index; both must remove exactly what a brute-force scan of every slot
   (every entry) says is idle, under random install / lookup / sweep /
   resize sequences, every eviction policy, tiny capacities and the 1M
   software-tier default. *)
let gen_sweep_case =
  QCheck2.Gen.(
    triple (int_range 0 100_000) (oneofl Evict.all)
      (* 1M: the software tier's default capacity *)
      (oneofl [ 1; 2; 3; 5; 8; 1_000_000 ]))

(* Every resident with its last-used time, read slot by slot. *)
let cuckoo_scan c =
  let acc = ref [] in
  for s = 0 to Cuckoo.slots c - 1 do
    match Cuckoo.slot c s with Some r -> acc := r :: !acc | None -> ()
  done;
  List.sort compare !acc

let prop_cuckoo_sweep_oracle =
  QCheck2.Test.make ~name:"cuckoo sweeps match a full slot scan" ~count:40 gen_sweep_case
    (fun (seed, policy, capacity) ->
      let rng = Gf_util.Rng.create seed in
      let c = Cuckoo.create ~policy ~capacity () in
      (* The invariant check scans every slot: after each step on small
         tables, only around sweeps on the 2M-slot one. *)
      let small = Cuckoo.slots c <= 4096 in
      let ok = ref true and now = ref 0.0 in
      let check () = if not (Cuckoo.check_invariants c) then ok := false in
      (* Keys differ only in the top bits of an address, plus a port. *)
      let key () =
        Flow.make
          [
            (Field.Ip_src, Gf_util.Rng.int rng 64 lsl 24);
            (Field.Tp_dst, Gf_util.Rng.int rng 4);
          ]
      in
      for _ = 1 to 150 do
        now := !now +. float_of_int (Gf_util.Rng.int rng 3);
        (match Gf_util.Rng.int rng 20 with
        | 0 | 1 ->
            let max_idle = float_of_int (Gf_util.Rng.int rng 12) in
            check ();
            let before = cuckoo_scan c in
            let kept = List.filter (fun (_, lu) -> !now -. lu <= max_idle) before in
            let n = Cuckoo.expire c ~now:!now ~max_idle in
            if n <> List.length before - List.length kept || cuckoo_scan c <> kept then
              ok := false;
            check ()
        | 2 ->
            let before = cuckoo_scan c in
            let n = Cuckoo.invalidate_all c in
            if n <> List.length before || cuckoo_scan c <> [] then ok := false;
            check ()
        | 3 ->
            Cuckoo.set_capacity c
              (if Gf_util.Rng.bool rng then capacity else 1 + Gf_util.Rng.int rng 8)
        | 4 | 5 | 6 | 7 | 8 | 9 | 10 -> ignore (Cuckoo.install c ~now:!now (key ()) a_cuckoo_hit)
        | _ -> ignore (Cuckoo.lookup c ~now:!now (key ())));
        if small then check ()
      done;
      check ();
      !ok && Cuckoo.occupancy c = List.length (cuckoo_scan c))

let megaflow_scan c = List.sort compare (Megaflow.entries c)

let prop_megaflow_sweep_oracle =
  QCheck2.Test.make ~name:"megaflow sweeps match a full entry scan" ~count:40
    gen_sweep_case (fun (seed, policy, capacity) ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:3 ~rules_per_table:10 in
      let c = Megaflow.create ~policy ~capacity () in
      let ok = ref true and now = ref 0.0 in
      for i = 1 to 150 do
        now := !now +. float_of_int (Gf_util.Rng.int rng 3);
        (match Gf_util.Rng.int rng 20 with
        | 0 | 1 ->
            let max_idle = float_of_int (Gf_util.Rng.int rng 12) in
            let before = megaflow_scan c in
            let kept = List.filter (fun (_, lu) -> !now -. lu <= max_idle) before in
            let n = Megaflow.expire c ~now:!now ~max_idle in
            if n <> List.length before - List.length kept || megaflow_scan c <> kept then
              ok := false
        | 2 ->
            let vlan_even f = Flow.get f Field.Vlan land 1 = 0 in
            ignore (Megaflow.demote c ~is_hot:vlan_even)
        | 3 ->
            Megaflow.set_capacity c
              (if Gf_util.Rng.bool rng then capacity else 1 + Gf_util.Rng.int rng 8)
        | 4 | 5 | 6 | 7 | 8 | 9 | 10 -> (
            match Executor.execute p (pool_flow rng) with
            | Ok tr -> ignore (Megaflow.install c ~now:!now ~version:i tr)
            | Error _ -> ())
        | _ -> ignore (Megaflow.lookup c ~now:!now (pool_flow rng)));
        if
          (not (Megaflow.check_invariants c))
          || Megaflow.occupancy c <> List.length (Megaflow.entries c)
        then ok := false
      done;
      !ok)

let suite =
  [
    ("microflow basic", `Quick, test_microflow_basic);
    ("microflow lru", `Quick, test_microflow_lru_eviction);
    ("microflow expire", `Quick, test_microflow_expire);
    ("microflow invalidate", `Quick, test_microflow_invalidate_all);
    ("microflow eviction policies", `Quick, test_microflow_policy_pressure);
    ("cache stats", `Quick, test_cache_stats);
    ("megaflow dedup", `Quick, test_megaflow_collapses_flows);
    ("megaflow capacity", `Quick, test_megaflow_capacity_reject);
    ("megaflow pressure eviction", `Quick, test_megaflow_pressure_eviction);
    ("megaflow lru keeps hot entry", `Quick, test_megaflow_lru_keeps_hot_entry);
    ("megaflow expire", `Quick, test_megaflow_expire);
    ("megaflow revalidation", `Quick, test_megaflow_revalidation_detects_change);
    ("megaflow tss/nm agree", `Quick, test_megaflow_search_algos_agree);
  ]

let props =
  [
    prop_megaflow_consistent;
    prop_megaflow_revalidate_sound;
    prop_megaflow_invariants_under_churn;
    prop_megaflow_any_match_correct;
    prop_priority_aware_churn;
    prop_cuckoo_sweep_oracle;
    prop_megaflow_sweep_oracle;
  ]
