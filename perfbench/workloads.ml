(* The benchmark's workloads.  Each is built from the seed alone, through
   the same public calls [gigaflow-sim run] makes, so the benchmark replays
   exactly the packets a user of the CLI would. *)

module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Pipeline = Gf_pipeline.Pipeline
module Datapath = Gf_sim.Datapath

type traffic =
  | Caida of Ruleset.locality
      (** [Trace.generate] defaults: the CAIDA-style trace of Pipebench. *)
  | Zipf of { zipf_s : float; packets : int; duration : float }
      (** [Trace.steady]: a stable popular set, served by memo replay. *)

type spec = {
  name : string;
  combos : int;
  flows : int;
  traffic : traffic;
  preset : string;
  draws : int;
      (** Independent workloads drawn from one seed and replayed one after
          another as one replay. *)
}

(* PSC at a quarter of the CLI's default rule chains and two fifths of the
   ROADMAP's 25k flows.  Per-packet costs stay those of the full-size run
   (same LTM geometry, same tuple mix) while one replay is short enough to
   be repeated within a run.  With fewer flows the slowpath share, and
   with it the packet rate, varies from seed to seed by more than the
   host's noise. *)
let psc_combos = 32_768
let psc_flows = 10_000

let specs =
  [
    {
      name = "psc_high";
      combos = psc_combos;
      flows = psc_flows;
      traffic = Caida Ruleset.High;
      preset = "emc_gf_sw";
      draws = 1;
    };
    {
      name = "psc_low";
      combos = psc_combos;
      flows = psc_flows;
      traffic = Caida Ruleset.Low;
      preset = "emc_gf_sw";
      draws = 1;
    };
    {
      name = "zipf_hh";
      combos = 8_192;
      flows = 2_000;
      traffic = Zipf { zipf_s = 1.1; packets = 200_000; duration = 10.0 };
      preset = "gf_sw_hh";
      (* One draw's walker rate follows its LTM's probes per lookup, set by
         which flows it samples: 12 to 19 across seeds, and the rate with
         them by 10-15%.  Four draws average that out. *)
      draws = 4;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* The self-check's scale: every code path, a few seconds in total. *)
let tiny spec =
  let traffic =
    match spec.traffic with
    | Caida _ as c -> c
    | Zipf z -> Zipf { z with packets = 5_000 }
  in
  { spec with combos = 1_024; flows = 300; traffic }

(* The CLI's defaults: LTM 4 x 8K, Megaflow levels the same total budget. *)
let config spec =
  match
    Datapath.preset
      ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:8192 ())
      ~mf_capacity:(4 * 8192) spec.preset
  with
  | Some cfg -> cfg
  | None -> invalid_arg ("unknown preset " ^ spec.preset)

type t = {
  spec : spec;
  cfg : Datapath.config;
  pipeline : Pipeline.t;
  flows : Gf_flow.Flow.t array;
  trace : Trace.t;
  source : unit -> Trace.stream;
      (** The engine's packet source, fresh on each call; it yields
          exactly [trace]'s packets. *)
}

(* CPU seconds of each set-up step. *)
type setup = {
  ruleset_s : float;
  flow_sample_s : float;
  trace_gen_s : float;
  datapath_create_s : float;
}

let setup_total s = s.ruleset_s +. s.flow_sample_s +. s.trace_gen_s +. s.datapath_create_s

let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* The derived seeds are [Pipebench.make]'s, so that the CAIDA workloads
   equal [gigaflow-sim run -p PSC -l <loc> --combos C --flows F --seed S]. *)
let build ~seed spec =
  let info = Option.get (Catalog.find "PSC") in
  let ruleset, ruleset_s =
    cpu (fun () -> Ruleset.build ~combos:spec.combos ~info ~seed ())
  in
  let locality = match spec.traffic with Caida l -> l | Zipf _ -> Ruleset.High in
  let flows, flow_sample_s =
    cpu (fun () ->
        Ruleset.sample_flows ruleset ~seed:(seed lxor 0xF10) ~locality ~n:spec.flows)
  in
  let trace_seed = seed lxor 0x7ACE in
  let (trace, source), trace_gen_s =
    cpu (fun () ->
        match spec.traffic with
        | Caida _ ->
            let trace = Trace.generate ~seed:trace_seed ~flows () in
            (trace, fun () -> Trace.stream_of_trace trace)
        | Zipf { zipf_s; packets; duration } ->
            let source () =
              Trace.steady ~duration ~zipf_s ~packets ~seed:trace_seed ~flows ()
            in
            (Trace.trace_of_stream (source ()), source))
  in
  let cfg = config spec in
  let pipeline = Ruleset.pipeline ruleset in
  let _dp, datapath_create_s = cpu (fun () -> Datapath.create cfg pipeline) in
  ( { spec; cfg; pipeline; flows; trace; source },
    { ruleset_s; flow_sample_s; trace_gen_s; datapath_create_s } )

let packets w = Trace.packet_count w.trace

(* All of a spec's draws.  The first is built from [seed] itself, so that it
   is the workload [gigaflow-sim run --seed seed] replays; the others from
   seeds derived from it.  The set-up times add up. *)
let build_draws ~seed spec =
  let draws =
    Array.init spec.draws (fun i ->
        build ~seed:(if i = 0 then seed else Hashtbl.hash (seed, i)) spec)
  in
  let sum f = Array.fold_left (fun a (_, s) -> a +. f s) 0.0 draws in
  ( Array.map fst draws,
    {
      ruleset_s = sum (fun s -> s.ruleset_s);
      flow_sample_s = sum (fun s -> s.flow_sample_s);
      trace_gen_s = sum (fun s -> s.trace_gen_s);
      datapath_create_s = sum (fun s -> s.datapath_create_s);
    } )
