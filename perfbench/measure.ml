(* Shared measurement helpers: clocks, medians, the decision oracle, the
   metric list every run prints, and the host-speed index. *)

module Pipeline = Gf_pipeline.Pipeline
module Action = Gf_pipeline.Action
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics

let cpu = Workloads.cpu

(* Nanoseconds on the monotonic clock; allocation-free, so it can bracket
   the per-call [Gc.minor_words] reads. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Timed sections start from a compacted heap, so that garbage left by the
   previous section is not collected on this one's clock. *)
let fresh_heap () = Gc.compact ()

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* The counters that walker and engine must agree on, bit for bit. *)
type counters = {
  packets : int;
  hw_hits : int;
  sw_hits : int;
  slowpaths : int;
  hw_installs : int;
  hw_shared : int;
  latency_sum : float;
}

let counters (m : Metrics.t) =
  {
    packets = m.Metrics.packets;
    hw_hits = m.Metrics.hw_hits;
    sw_hits = m.Metrics.sw_hits;
    slowpaths = m.Metrics.slowpaths;
    hw_installs = m.Metrics.hw_installs;
    hw_shared = m.Metrics.hw_shared;
    latency_sum = Gf_util.Stats.Acc.total m.Metrics.latency;
  }

(* The slowpath's decision for each flow id, computed once per flow on a
   private pipeline copy: what every cache hit must reproduce. *)
let oracle (w : Workloads.t) =
  let pipeline = Pipeline.copy w.Workloads.pipeline in
  let memo = Array.make (Array.length w.Workloads.flows) None in
  fun ~flow_id flow ->
    match memo.(flow_id) with
    | Some d -> d
    | None ->
        let d =
          match Gf_pipeline.Executor.terminal_of pipeline flow with
          | Ok (terminal, _) -> Some terminal
          | Error _ -> None
        in
        memo.(flow_id) <- Some d;
        d

(* A decision is correct when it exists and equals the oracle's. *)
let decision_ok expected got =
  match (expected, got) with
  | Some e, Some g -> Action.terminal_equal e g
  | _, None | None, Some _ -> false

let fresh_datapath (w : Workloads.t) =
  Datapath.create w.Workloads.cfg (Pipeline.copy w.Workloads.pipeline)

(* Every metric a run prints: name, value, unit.  A non-finite value is a
   defect of the benchmark: it is written as 0, to keep the result line
   valid JSON, and the run is marked incorrect. *)
type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) ms in
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.name m.value m.unit_)
    ms;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
             m.unit_)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  correct

(* Host-speed index.  Host time on a shared machine drifts by tens of
   percent over minutes, with the load of other tenants on the caches, the
   memory bus and the cores.  Four fixed kernels, each a different kind of
   work the simulator does (arithmetic, cache-resident and memory-resident
   random access, short-lived allocation), are timed between replays; the
   geometric mean of their CPU times over [reference_kernels_s] is how much
   slower than the reference host the host runs at that moment.  None of them
   allocates anything that survives a minor collection, so their time does
   not depend on the simulator's heap. *)
let small = Array.make (1 lsl 18) 0 (* 2 MB: within a core's L2 *)
let large = Array.make (1 lsl 22) 0 (* 32 MB: well beyond it *)

let alu () =
  let s = ref 0 in
  for i = 0 to 48_000_000 do
    s := !s + ((i * i) land 7)
  done;
  !s

let random_access a n =
  let x = ref 1 and s = ref 0 and mask = Array.length a - 1 in
  for _ = 0 to n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land mask in
    s := !s + a.(j);
    a.(j) <- !s
  done;
  !s

let alloc () =
  let s = ref 0 in
  for i = 0 to 24_000_000 do
    let p = Sys.opaque_identity (i, i + 1) in
    s := !s + fst p
  done;
  !s

let kernels =
  [
    alu;
    (fun () -> random_access small 12_000_000);
    (fun () -> random_access large 4_000_000);
    (fun () -> alloc ());
  ]

(* The kernels' geometric-mean CPU time on the host the benchmark was
   written on (2-core Xeon VM) in its usual state. *)
let reference_kernels_s = 0.038

let slowness () =
  let logs =
    List.map
      (fun k ->
        let t0 = Sys.time () in
        ignore (Sys.opaque_identity (k ()));
        log (Sys.time () -. t0))
      kernels
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  /. reference_kernels_s
