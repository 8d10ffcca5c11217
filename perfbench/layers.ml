(* The traced run: the replay split into per-layer costs, by timing calls
   into each layer's public functions from here.  Nothing in the library is
   instrumented.  Clocks are the monotonic nanosecond clock around single
   calls and process CPU time around whole passes; allocation is the
   [Gc.minor_words] delta around the same calls. *)

module Trace = Gf_workload.Trace
module Pipeline = Gf_pipeline.Pipeline
module Traversal = Gf_pipeline.Traversal
module Datapath = Gf_sim.Datapath
module Cache_level = Gf_sim.Cache_level
module Heavy_hitter = Gf_offload.Heavy_hitter
open Measure

(* Packet classes of a walk.  A packet whose timestamp crosses the
   datapath's [expire_every] runs the expiry sweep before its lookup; the
   whole call is charged to [sweep]. *)
let classes = [| "hw_hit"; "sw_hit"; "slowpath"; "sweep" |]
let sweep_class = 3

let class_of = function
  | Datapath.Hw_hit -> 0
  | Datapath.Sw_hit -> 1
  | Datapath.Slowpath -> 2

(* One traced pass: calls, nanoseconds and minor words per class. *)
type pass = {
  n : int array;
  ns : int array;
  words : float array;
  cpu_s : float;  (** CPU time of the whole pass, clocks included. *)
  failed : int;
}

let expected_decisions (w : Workloads.t) =
  let expect = oracle w in
  Array.mapi (fun flow_id flow -> expect ~flow_id flow) w.Workloads.flows

(* Replay the trace through [step] on a fresh datapath, timing each call.
   [on_slowpath] sees each slowpath packet and whether heavy-hitter
   admission let it into the hardware levels. *)
let traced_pass (w : Workloads.t) ~expected (step : E2e.step) ~on_slowpath =
  let dp = fresh_datapath w in
  let n = Array.make 4 0 and ns = Array.make 4 0 and words = Array.make 4 0.0 in
  let expire_every = w.Workloads.cfg.Datapath.expire_every in
  let last_sweep = ref 0.0 and failed = ref 0 in
  fresh_heap ();
  let c0 = Sys.time () in
  Array.iter
    (fun (p : Trace.packet) ->
      let now = p.Trace.time and flow_id = p.Trace.flow_id in
      let sweep = now -. !last_sweep >= expire_every in
      if sweep then last_sweep := now;
      let deferred = (Datapath.metrics dp).Gf_sim.Metrics.hw_deferred in
      let t0 = now_ns () in
      let w0 = Gc.minor_words () in
      let outcome, d, _ = step dp ~now ~flow_id p.Trace.flow in
      let w1 = Gc.minor_words () in
      let t1 = now_ns () in
      let k = if sweep then sweep_class else class_of outcome in
      n.(k) <- n.(k) + 1;
      ns.(k) <- ns.(k) + (t1 - t0);
      words.(k) <- words.(k) +. (w1 -. w0);
      if not (decision_ok expected.(flow_id) d) then incr failed;
      if outcome = Datapath.Slowpath then
        on_slowpath p ~admitted:((Datapath.metrics dp).Gf_sim.Metrics.hw_deferred = deferred))
    w.Workloads.trace.Trace.packets;
  { n; ns; words; cpu_s = Sys.time () -. c0; failed = !failed }

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* Medians over the passes of one kind, reported under [prefix]. *)
let report_passes prefix (passes : pass list) =
  let med f = median (List.map f passes) in
  Array.iteri
    (fun k c ->
      let name m = Printf.sprintf "%s.%s.%s" prefix c m in
      emit (name "us") "us" (med (fun p -> per p.n.(k) (float_of_int p.ns.(k)) /. 1e3));
      emit (name "pkts") "count" (med (fun p -> float_of_int p.n.(k)));
      emit (name "share") "fraction"
        (med (fun p -> float_of_int p.ns.(k) /. 1e9 /. p.cpu_s));
      emit (name "alloc_words") "words/pkt" (med (fun p -> per p.n.(k) p.words.(k))))
    classes;
  let reconciled =
    med (fun p -> float_of_int (Array.fold_left ( + ) 0 p.ns) /. 1e9 /. p.cpu_s)
  in
  emit (prefix ^ ".reconciled") "fraction" reconciled;
  let p = List.hd passes in
  let total_pkts = Array.fold_left ( + ) 0 p.n in
  Printf.printf "%s: layers sum to total: sum of classes / pass CPU = %.3f (%s)\n"
    prefix reconciled
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun k c -> Printf.sprintf "%s %.1f%%" c (100.0 *. float_of_int p.ns.(k) /. 1e9 /. p.cpu_s))
             classes)));
  Printf.printf "%s: minor words per packet: %s (all %.1f)\n" prefix
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun k c -> Printf.sprintf "%s %.1f" c (per p.n.(k) p.words.(k))) classes)))
    (per total_pkts (Array.fold_left ( +. ) 0.0 p.words));
  reconciled

(* Timing accumulator for one layer's calls. *)
type acc = { mutable calls : int; mutable a_ns : int; a_words : float array }

let acc () = { calls = 0; a_ns = 0; a_words = [| 0.0 |] }

let timed a f =
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = now_ns () in
  a.calls <- a.calls + 1;
  a.a_ns <- a.a_ns + (t1 - t0);
  a.a_words.(0) <- a.a_words.(0) +. (w1 -. w0);
  r

let acc_us a = per a.calls (float_of_int a.a_ns) /. 1e3
let acc_words a = per a.calls a.a_words.(0)

(* The level kinds the benchmark reports, with the spec each is built
   from.  A kind missing from the workload's hierarchy takes its spec
   from the other benchmarked preset and is measured as a what-if level
   (see [run]). *)
let level_kinds = [ "gf"; "emc"; "sw-mf"; "sw-ck" ]

let spec_of_kind (cfg : Datapath.config) kind =
  let find levels =
    List.find_opt (fun s -> String.equal (Cache_level.spec_name s) kind) levels
  in
  match find cfg.Datapath.levels with
  | Some s -> (s, true)
  | None ->
      let others = (Datapath.emc_gf_sw ()).Datapath.levels @ (Datapath.gf_sw_hh ()).Datapath.levels in
      (Option.get (find others), false)

let probe_packets = 20_000

type lookup = { l_acc : acc; mutable work : int; mutable hits : int }

let probe level window =
  let l = { l_acc = acc (); work = 0; hits = 0 } in
  Array.iter
    (fun (p : Trace.packet) ->
      let hit, work =
        timed l.l_acc (fun () -> Cache_level.lookup level ~now:p.Trace.time p.Trace.flow)
      in
      l.work <- l.work + work;
      if Option.is_some hit then l.hits <- l.hits + 1)
    window;
  l

let report_lookup kind l =
  let name m = Printf.sprintf "level.%s.%s" kind m in
  emit (name "lookup_us") "us" (acc_us l.l_acc);
  emit (name "lookup_work") "probes/lookup" (per l.l_acc.calls (float_of_int l.work));
  emit (name "lookup_alloc_words") "words/lookup" (acc_words l.l_acc);
  emit (name "hit_ratio") "fraction" (per l.l_acc.calls (float_of_int l.hits))

(* A fresh level of the install replay. *)
type fresh_level = {
  kind : string;
  present : bool;  (** In the workload's hierarchy, or a what-if. *)
  level : Cache_level.t;
  install : acc;
  mutable installed : int;
  mutable shared : int;
}

(* Offer one slowpath traversal to a fresh level the way the datapath
   does: install-on-miss levels take the traversal unless admission kept
   it out of the hardware tier, and the EMC learns the decision by
   promotion. *)
let install_one ~now ~version ~admitted flow (tr : Traversal.t) f =
  let d = Cache_level.descriptor f.level in
  match d.Cache_level.policy with
  | Cache_level.Install_on_miss when (not admitted) && d.Cache_level.tier = Cache_level.Hardware -> ()
  | Cache_level.Promote_on_hit ->
      let hit = { Cache_level.terminal = tr.Traversal.terminal; out_flow = tr.Traversal.output } in
      ignore (timed f.install (fun () -> Cache_level.promote f.level ~now flow hit));
      f.installed <- f.installed + 1
  | Cache_level.Install_on_miss | Cache_level.Never_install ->
      let r = timed f.install (fun () -> Cache_level.install_from_traversal f.level ~now ~version tr) in
      f.installed <- f.installed + r.Cache_level.fresh;
      f.shared <- f.shared + r.Cache_level.shared

let run ~seed ~seconds spec =
  fresh_heap ();
  let w, setup = Workloads.build ~seed spec in
  let cfg = w.Workloads.cfg in
  let packets = w.Workloads.trace.Trace.packets in
  let npk = Array.length packets in
  Printf.printf "%s: seed %d, %d packets, %d flows (traced)\n" spec.Workloads.name seed npk
    spec.Workloads.flows;
  emit "setup.ruleset_build_s" "s" setup.Workloads.ruleset_s;
  emit "setup.flow_sample_s" "s" setup.Workloads.flow_sample_s;
  emit "setup.trace_gen_s" "s" setup.Workloads.trace_gen_s;
  emit "setup.datapath_create_s" "s" setup.Workloads.datapath_create_s;
  let expected = expected_decisions w in
  (* Rounds of untraced walker, traced walker, traced memo walker; the
     slowpath packets are collected from the first traced walk. *)
  let slowpaths = ref [] and collecting = ref true in
  let walks = ref [] and memos = ref [] and overheads = ref [] and slows = ref [] in
  let t_end = Unix.gettimeofday () +. seconds in
  let rounds = ref 0 in
  while !rounds < 2 || Unix.gettimeofday () < t_end do
    slows := slowness () :: !slows;
    let dp = fresh_datapath w in
    fresh_heap ();
    let _, plain_s = cpu (fun () -> Datapath.run dp w.Workloads.trace) in
    let walk =
      traced_pass w ~expected E2e.walker_step ~on_slowpath:(fun p ~admitted ->
          if !collecting then slowpaths := (p, admitted) :: !slowpaths)
    in
    collecting := false;
    let memo = traced_pass w ~expected E2e.memo_step ~on_slowpath:(fun _ ~admitted:_ -> ()) in
    walks := walk :: !walks;
    memos := memo :: !memos;
    overheads := (100.0 *. ((walk.cpu_s /. plain_s) -. 1.0)) :: !overheads;
    incr rounds
  done;
  let slowpaths = Array.of_list (List.rev !slowpaths) in
  let walk_reconciled = report_passes "walk" !walks in
  let memo_reconciled = report_passes "memo" !memos in
  let walk_slowpath_us =
    median (List.map (fun p -> per p.n.(2) (float_of_int p.ns.(2)) /. 1e3) !walks)
  in
  (* Slowpath parts, on the run's own slowpath packets in order, per
     slowpath packet.  Partition and rule generation run only for packets
     admitted to the hardware levels, as in the datapath.  The pipeline
     copy is warmed by one untimed pass first: the walker's copy built its
     tuple indexes long before most of its slowpaths ran. *)
  let pipeline = Pipeline.copy w.Workloads.pipeline in
  let version = Pipeline.version pipeline in
  let traversals =
    Array.map
      (fun ((p : Trace.packet), _) -> Gf_pipeline.Executor.execute pipeline p.Trace.flow)
      slowpaths
  in
  let tables =
    List.fold_left
      (fun acc -> function
        | Cache_level.Gf_ltm { gf; _ } -> gf.Gf_core.Config.tables
        | Cache_level.Emc _ | Cache_level.Nic_megaflow _ | Cache_level.Sw_megaflow _
        | Cache_level.Sw_cuckoo _ ->
            acc)
      1 cfg.Datapath.levels
  in
  let ex = acc () and part = acc () and gen = acc () and all = acc () in
  let steps = ref 0 in
  Array.iter
    (fun ((p : Trace.packet), admitted) ->
      timed all (fun () ->
          match timed ex (fun () -> Gf_pipeline.Executor.execute pipeline p.Trace.flow) with
          | Error _ -> ()
          | Ok tr when not admitted -> steps := !steps + Traversal.length tr
          | Ok tr ->
              steps := !steps + Traversal.length tr;
              let segs =
                timed part (fun () ->
                    Gf_core.Partitioner.partition Gf_core.Partitioner.Disjoint
                      ~max_segments:tables tr)
              in
              ignore (timed gen (fun () -> Gf_core.Rulegen.rules_of_partition ~version tr segs))))
    slowpaths;
  let nslow = Array.length slowpaths in
  let parts_us = acc_us ex +. (per nslow (float_of_int (part.a_ns + gen.a_ns)) /. 1e3) in
  emit "slowpath.execute_us" "us" (acc_us ex);
  emit "slowpath.execute_steps" "lookups" (per nslow (float_of_int !steps));
  emit "slowpath.partition_us" "us" (per nslow (float_of_int part.a_ns) /. 1e3);
  emit "slowpath.rulegen_us" "us" (per nslow (float_of_int gen.a_ns) /. 1e3);
  emit "slowpath.alloc_words" "words/slowpath" (acc_words all);
  emit "slowpath.residual_us" "us" (walk_slowpath_us -. parts_us);
  (* Cache levels.  Lookups and the expiry sweep run on a replica of the
     datapath replayed to mid-trace, probed with the packets that follow
     and then discarded.  Installs replay the slowpath traversals in order
     into fresh levels built from the same specs, sweeping on the
     datapath's cadence.  A kind the hierarchy lacks is a what-if: its
     install-replay level is probed with the same packets when the
     replay reaches the probe window. *)
  let mid = npk / 2 in
  let window = Array.sub packets mid (min probe_packets (npk - mid)) in
  let window_start = if Array.length window = 0 then infinity else window.(0).Trace.time in
  let replica = fresh_datapath w in
  for i = 0 to mid - 1 do
    let p = packets.(i) in
    ignore (Datapath.process ~flow_id:p.Trace.flow_id replica ~now:p.Trace.time p.Trace.flow)
  done;
  let sweep_at =
    if Array.length window = 0 then 0.0 else window.(Array.length window - 1).Trace.time
  in
  (* Lookups over the window, then one timed sweep at its end. *)
  let probe_and_sweep level =
    let l = probe level window in
    let e = acc () in
    ignore (timed e (fun () -> Cache_level.expire level ~now:sweep_at));
    (l, e)
  in
  let probed = Hashtbl.create 4 in
  List.iter
    (fun level ->
      let kind = Cache_level.name level in
      if List.mem kind level_kinds then Hashtbl.replace probed kind (probe_and_sweep level))
    (Datapath.levels replica);
  let fresh =
    List.map
      (fun kind ->
        let spec, present = spec_of_kind cfg kind in
        {
          kind;
          present;
          level =
            Cache_level.build ~default_max_idle:cfg.Datapath.max_idle
              ~pipeline:(Pipeline.copy w.Workloads.pipeline) spec;
          install = acc ();
          installed = 0;
          shared = 0;
        })
      level_kinds
  in
  let probe_what_ifs () =
    List.iter
      (fun f ->
        if not (Hashtbl.mem probed f.kind) then
          Hashtbl.replace probed f.kind (probe_and_sweep f.level))
      fresh
  in
  let last_sweep = ref 0.0 in
  Array.iteri
    (fun i ((p : Trace.packet), admitted) ->
      let now = p.Trace.time in
      if now >= window_start then probe_what_ifs ();
      if now -. !last_sweep >= cfg.Datapath.expire_every then begin
        last_sweep := now;
        List.iter (fun f -> ignore (Cache_level.expire f.level ~now)) fresh
      end;
      match traversals.(i) with
      | Error _ -> ()
      | Ok tr -> List.iter (install_one ~now ~version ~admitted p.Trace.flow tr) fresh)
    slowpaths;
  probe_what_ifs ();
  List.iter
    (fun f ->
      let lookup, expire = Hashtbl.find probed f.kind in
      report_lookup f.kind lookup;
      emit (Printf.sprintf "level.%s.expire_us" f.kind) "us" (acc_us expire);
      emit (Printf.sprintf "level.%s.install_us" f.kind) "us" (acc_us f.install);
      emit (Printf.sprintf "level.%s.install_shared_ratio" f.kind) "fraction"
        (per (f.installed + f.shared) (float_of_int f.shared));
      Printf.printf "level %s: %s, occupancy after install replay %d\n" f.kind
        (if f.present then "in the hierarchy" else "what-if (not in this hierarchy)")
        (Cache_level.occupancy f.level))
    fresh;
  (* Offload and source, each alone. *)
  let k =
    match cfg.Datapath.admission with
    | Heavy_hitter.Heavy_hitter { k; _ } -> k
    | Heavy_hitter.Admit_all -> Heavy_hitter.default_k
  in
  let hh = Heavy_hitter.create ~k in
  let t0 = now_ns () in
  Array.iter (fun (p : Trace.packet) -> Heavy_hitter.observe hh p.Trace.flow) packets;
  emit "offload.hh_observe_ns" "ns" (per npk (float_of_int (now_ns () - t0)));
  let stream = w.Workloads.source () in
  let bs = E2e.batch_size in
  let times = Array.make bs 0.0 and flow_ids = Array.make bs 0 in
  let flows = Array.make bs Gf_flow.Flow.zero in
  let t0 = now_ns () in
  let filled = ref 0 in
  let rec drain () =
    let k = Trace.fill stream ~times ~flow_ids ~flows ~max:bs in
    if k > 0 then (filled := !filled + k; drain ())
  in
  drain ();
  emit "source.fill_ns" "ns" (per !filled (float_of_int (now_ns () - t0)));
  emit "trace.overhead_pct" "%" (median !overheads);
  emit "host.slowness" "ratio" (median !slows);
  Printf.printf "trace.overhead_pct %.2f over %d rounds\n" (median !overheads) !rounds;
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 (!walks @ !memos) in
  let ok = walk_reconciled >= 0.9 && memo_reconciled >= 0.9 in
  if not ok then Printf.printf "reconciliation below 0.90\n";
  print_result ~correct:(failed = 0 && ok && !filled = npk)
    ~attempted:(2 * !rounds * npk)
    ~failed
