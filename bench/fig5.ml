(* Figure 5: miniweb (Jetty) throughput and latency under saturating load,
   in three configurations:

     1. "stock VM"   — miniweb 5.1.6 on the VM with the DSU machinery
                       never engaged (the Jikes RVM baseline);
     2. "Jvolve"     — miniweb 5.1.6 on the same VM, DSU available
                       (in Jvolve the two differ only by VM build; here
                       they are the same code path, which *is* the point:
                       DSU support costs nothing until used);
     3. "Jvolve upd" — miniweb dynamically updated 5.1.5 -> 5.1.6 before
                       the measurement window.

   The paper's claim is that all three are statistically identical
   (overlapping interquartile ranges).  We run N trials per configuration
   and report median and quartiles of throughput (MB/s of response bytes
   over wall time) and per-request latency (ms). *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics

let from_version = "5.1.5"
let to_version = "5.1.6"

(* Update-cost numbers are not timed here: every updated trial merges its
   VM's metrics into this aggregate sink, and the report below reads the
   [core.update.*] histograms the DSU machinery itself recorded. *)
let agg = Obs.create ()

type trial = { mbps : float; lat_ms : float }

let measure_window vm ~rounds : trial =
  Jv_simnet.Simnet.reset_stats vm.VM.State.net;
  let w =
    A.Workload.attach vm ~port:A.Miniweb.protocol_port
      ~script:A.Workload.web_script ~ok:A.Workload.web_ok ~concurrency:8 ()
  in
  let t0 = Support.now () in
  VM.Vm.run vm ~rounds;
  let wall = Support.now () -. t0 in
  let _, to_client = Jv_simnet.Simnet.stats vm.VM.State.net in
  let reqs = w.A.Workload.load.completed_requests in
  A.Workload.detach vm w;
  {
    mbps = float_of_int to_client /. 1.0e6 /. wall;
    lat_ms =
      (if reqs = 0 then 0.0
       else
         Jv_simnet.Client.mean_latency_rounds w.A.Workload.load
         *. (wall *. 1000.0 /. float_of_int rounds));
  }

let trial_stock ~rounds () =
  let vm = A.Experience.boot_version A.Experience.web_desc ~version:to_version in
  measure_window vm ~rounds

let trial_updated ~rounds () =
  let vm =
    A.Experience.boot_version A.Experience.web_desc ~version:from_version
  in
  (* run under a warmup load, apply the dynamic update, then measure *)
  let w =
    A.Workload.attach vm ~port:A.Miniweb.protocol_port
      ~script:A.Workload.web_script ~ok:A.Workload.web_ok ~concurrency:8 ()
  in
  VM.Vm.run vm ~rounds:50;
  let spec =
    J.Spec.make ~version_tag:"515"
      ~old_program:(Support.compile_version A.Miniweb.app ~version:from_version)
      ~new_program:(Support.compile_version A.Miniweb.app ~version:to_version)
      ()
  in
  let h = J.Jvolve.update_now vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o -> failwith ("fig5: update failed: " ^ J.Jvolve.outcome_to_string o));
  Obs.merge_metrics ~into:agg (VM.Vm.obs vm);
  A.Workload.detach vm w;
  (* short settling period for recompilation, as after any update *)
  VM.Vm.run vm ~rounds:50;
  measure_window vm ~rounds

(* Update pause / stack-scan costs, sourced from the jv_obs histograms the
   DSU machinery recorded during the updated trials (no bench-local
   timing).  An empty pause histogram means the instrumentation came
   unwired — fail loudly rather than print a hollow table. *)
let update_cost_report () =
  Support.section "Update cost (from jv_obs histograms, all updated trials)";
  let hist name =
    match Obs.find_histogram agg name with
    | Some h when Metrics.count h > 0 -> h
    | _ -> failwith ("fig5: no observations recorded in " ^ name)
  in
  ignore (hist "core.update.pause_ms");
  Printf.printf "%-28s | %5s | %9s %9s %9s %9s\n" "histogram" "n" "mean"
    "p50" "p90" "max";
  List.iter
    (fun name ->
      let h = hist name in
      Printf.printf "%-28s | %5d | %9.3f %9.3f %9.3f %9.3f\n" name
        (Metrics.count h) (Metrics.mean h)
        (Metrics.quantile h 0.5)
        (Metrics.quantile h 0.9)
        (Metrics.hist_max h))
    [
      "core.update.pause_ms";
      "core.update.stack_scan_ms";
      "core.update.load_ms";
      "core.update.gc_ms";
      "core.update.transform_ms";
    ];
  (* machine-readable snapshot: `make bench-smoke` greps this for
     core_update_pause_ms_count *)
  Printf.printf "\nmetrics snapshot (core.update.*):\n";
  String.split_on_char '\n' (Jv_obs.Export.prometheus agg)
  |> List.iter (fun line ->
         let has_prefix p =
           String.length line >= String.length p
           && String.sub line 0 (String.length p) = p
         in
         if has_prefix "core_update_" || has_prefix "# TYPE core_update_"
         then print_endline line)

let run () =
  Support.section
    "Figure 5: miniweb throughput and latency (median [q1, q3])";
  let trials = if Support.quick then 5 else 21 in
  let rounds = if Support.quick then 300 else 800 in
  let configs =
    [
      ("stock VM   (5.1.6)", fun () -> trial_stock ~rounds ());
      ("Jvolve     (5.1.6)", fun () -> trial_stock ~rounds ());
      ("Jvolve upd (5.1.5->5.1.6)", fun () -> trial_updated ~rounds ());
    ]
  in
  Printf.printf "%-28s | %-28s | %-28s\n" "configuration"
    "throughput (MB/s)" "latency (ms/request)";
  List.iter
    (fun (name, f) ->
      let ts = List.init trials (fun _ -> f ()) in
      let q1t, mt, q3t = Support.quartiles (List.map (fun t -> t.mbps) ts) in
      let q1l, ml, q3l = Support.quartiles (List.map (fun t -> t.lat_ms) ts) in
      Printf.printf "%-28s | %8.3f [%8.3f, %8.3f] | %8.4f [%8.4f, %8.4f]\n"
        name mt q1t q3t ml q1l q3l)
    configs;
  Printf.printf
    "\nShape check (paper): the three configurations' interquartile ranges \
     largely overlap;\nthe dynamically-updated server matches a \
     freshly-started one.\n";
  update_cost_report ()
