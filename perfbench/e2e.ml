(* The untraced run: set-up time, walker and engine throughput, memory and
   the modelled metrics, with every decision checked against the oracle. *)

module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Engine = Gf_engine.Engine
module Histogram = Gf_telemetry.Histogram
open Measure

(* Set-up is repeated and its median reported: single readings drift with
   the host. *)
let setup_reps = 3

(* The CLI's batched-engine default, so engine_pps is what
   [gigaflow-sim run --engine batched --domains 1] does. *)
let batch_size = 1024

(* Fewer timed replays per side than this give no usable median, whatever
   [--seconds] says. *)
let min_pairs = 3

type step =
  Datapath.t ->
  now:float ->
  flow_id:int ->
  Gf_flow.Flow.t ->
  Datapath.outcome * Gf_pipeline.Action.terminal option * float

let walker_step : step = fun dp ~now ~flow_id flow -> Datapath.process ~flow_id dp ~now flow
let memo_step : step = Datapath.process_memo

(* Untimed: every decision of one replay against the oracle.  Returns the
   number of wrong or missing decisions, the replay's metrics and each
   packet's modelled latency. *)
let checked_pass (w : Workloads.t) (step : step) =
  let expect = oracle w in
  let dp = fresh_datapath w in
  let packets = w.Workloads.trace.Trace.packets in
  let failed = ref 0 and last = ref 0.0 in
  let latencies =
    Array.map
      (fun (p : Trace.packet) ->
        let _, d, lat = step dp ~now:p.Trace.time ~flow_id:p.Trace.flow_id p.Trace.flow in
        if not (decision_ok (expect ~flow_id:p.Trace.flow_id p.Trace.flow) d) then incr failed;
        last := p.Trace.time;
        lat)
      packets
  in
  (!failed, Datapath.finalize dp ~time:!last, latencies)

(* Mean modelled latency of the slowest 1% of packets.  The histogram's
   p99 is a bucket representative: it reads the same on most seeds, so it
   cannot show a change.  The tail mean moves with every slow packet. *)
let tail_mean latencies =
  let a = Array.copy latencies in
  Array.sort (fun x y -> Float.compare y x) a;
  let k = max 1 (Array.length a / 100) in
  let s = ref 0.0 in
  for i = 0 to k - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int k

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let run ~seed ~seconds spec =
  (* Each timing is divided by the host's slowness, taken as the mean of
     the readings just before and just after it. *)
  let slow_before = ref (slowness ()) and slows = ref [] in
  let host_factor () =
    let s = slowness () in
    let f = (!slow_before +. s) /. 2.0 in
    slow_before := s;
    slows := f :: !slows;
    f
  in
  let ws = ref [||] and setups = ref [] and raw_setups = ref [] in
  for _ = 1 to setup_reps do
    ws := [||];
    fresh_heap ();
    let draws, s = Workloads.build_draws ~seed spec in
    ws := draws;
    let f = host_factor () in
    raw_setups := Workloads.setup_total s :: !raw_setups;
    setups := (Workloads.setup_total s /. f) :: !setups
  done;
  let ws = !ws in
  let packets = Array.fold_left (fun n w -> n + Workloads.packets w) 0 ws in
  let walker_checks = Array.map (fun w -> checked_pass w walker_step) ws in
  let memo_checks = Array.map (fun w -> checked_pass w memo_step) ws in
  let failed_of = Array.fold_left (fun n (f, _, _) -> n + f) 0 in
  let walker_failed = failed_of walker_checks and memo_failed = failed_of memo_checks in
  let references = Array.map (fun (_, m, _) -> m) walker_checks in
  let reference = Metrics.aggregate (Array.to_list references) in
  let latencies = Array.concat (List.map (fun (_, _, l) -> l) (Array.to_list walker_checks)) in
  let ref_counters = Array.map counters references in
  let mismatches = ref 0 and compared = ref 0 in
  let check i m =
    incr compared;
    if counters m <> ref_counters.(i) then incr mismatches
  in
  Array.iteri (fun i (_, m, _) -> check i m) memo_checks;
  (* A timed replay replays every draw in turn, each from a compacted heap;
     its time is the sum of theirs.  [prepare] runs before the clock
     starts. *)
  let replay_draws prepare =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i w ->
           let go = prepare w in
           fresh_heap ();
           let m, s = cpu go in
           check i m;
           s)
         ws)
  in
  let walker_raw = ref [] and engine_raw = ref [] in
  let timed_walker () =
    replay_draws (fun w ->
        let dp = fresh_datapath w in
        fun () -> Datapath.run dp w.Workloads.trace)
  in
  let timed_engine () =
    replay_draws (fun w () ->
        (Engine.replay ~batch_size ~domains:1 ~cfg:w.Workloads.cfg w.Workloads.pipeline
           (w.Workloads.source ()))
          .Gf_sim.Parallel.merged)
  in
  (* Walker and engine alternate which goes first.  The host's slowness is
     read between every two replays, so each replay has its own factor from
     the readings on either side of it: the host drifts within seconds.  A
     pair is started only when the last pair's length says it ends within
     [seconds]. *)
  let walker_pps = ref [] and engine_pps = ref [] in
  let pkts = float_of_int packets in
  let timed raw norm replay =
    let s = replay () in
    let f = host_factor () in
    raw := (pkts /. s) :: !raw;
    norm := (pkts /. s *. f) :: !norm;
    (s, f)
  in
  let walker () = timed walker_raw walker_pps timed_walker in
  let engine () = timed engine_raw engine_pps timed_engine in
  let t_end = Unix.gettimeofday () +. seconds in
  let pairs = ref 0 and pair_s = ref 0.0 in
  slow_before := slowness ();
  while !pairs < min_pairs || Unix.gettimeofday () +. !pair_s <= t_end do
    let t0 = Unix.gettimeofday () in
    let (wt, wf), (et, ef) =
      if !pairs mod 2 = 0 then
        let w = walker () in
        (w, engine ())
      else
        let e = engine () in
        (walker (), e)
    in
    Printf.printf "pair %d: walker %.3f s at slowness %.3f, engine %.3f s at %.3f\n" !pairs
      wt wf et ef;
    pair_s := Unix.gettimeofday () -. t0;
    incr pairs
  done;
  let decisions = 2 * packets and failed_decisions = walker_failed + memo_failed in
  Printf.printf "%s: seed %d, %d draws, %d packets, %d flows a draw, %d timed replay pairs\n"
    spec.Workloads.name seed spec.Workloads.draws packets spec.Workloads.flows !pairs;
  Printf.printf "failed_frac %.6f (%d of %d walker and memo decisions)\n"
    (float_of_int failed_decisions /. float_of_int decisions)
    failed_decisions decisions;
  Printf.printf "walker/engine counters: %d of %d replays differ from the walker's\n"
    !mismatches !compared;
  Printf.printf "SmartNIC hit rate %.2f%%, slowpath executions %d, software hits %d\n"
    (100.0 *. Metrics.hw_hit_rate reference)
    reference.Metrics.slowpaths reference.Metrics.sw_hits;
  Printf.printf "modelled latency histogram p50 %.2f us, p99 %.2f us\n"
    (Histogram.p50 reference.Metrics.latency_hist)
    (Histogram.p99 reference.Metrics.latency_hist);
  List.iter
    (fun (name, xs) ->
      let q1, q2, q3 = quartiles xs in
      Printf.printf "%s: q1 %.4g, median %.4g, q3 %.4g\n" name q1 q2 q3)
    [
      ("host slowness", !slows);
      ("walker pkt/s as measured", !walker_raw);
      ("engine pkt/s as measured", !engine_raw);
      ("set-up s as measured", !raw_setups);
    ];
  emit "setup_s" "s" (median !setups);
  emit "walker_pps" "pkt/s" (median !walker_pps);
  emit "engine_pps" "pkt/s" (median !engine_pps);
  emit "peak_rss_mb" "MB" (peak_rss_mb ());
  emit "hw_hit_rate" "fraction" (Metrics.hw_hit_rate reference);
  emit "modelled_latency_mean_us" "us" (Metrics.mean_latency_us reference);
  emit "modelled_latency_tail_us" "us" (tail_mean latencies);
  let failed = failed_decisions + !mismatches in
  print_result ~correct:(failed = 0) ~attempted:(decisions + !compared) ~failed
