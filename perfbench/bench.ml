(* The repository benchmark.  Usage:

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

   Prints one line per metric, then the result as one JSON object on the
   last line.  Exits 1 when any output is wrong.  perfbench/README.md
   describes the workloads and metrics. *)

(* Workloads are built from this seed unless [--seed] says otherwise. *)
let default_seed = 42

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  let usage = "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME psc_high, psc_low or zipf_hh");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " self-check scale");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Workloads.find !workload with
    | Some s -> if !tiny then Workloads.tiny s else s
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let ok =
    if !trace = 0 then E2e.run ~seed:!seed ~seconds:!seconds spec
    else Layers.run ~seed:!seed ~seconds:!seconds spec
  in
  exit (if ok then 0 else 1)
