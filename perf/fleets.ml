(* What the two fleet workloads share: a miniweb fleet booted under the
   benchmark's open loop, the figures read back from every instance VM,
   and the traced-only calls that time the layers the fleet drives
   internally. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module F = Jv_fleet
module H = Harness

let profile = F.Profile.miniweb
let from_version = "5.1.1"
let to_version = "5.1.2"
let rate = 4.0 (* open-loop arrivals per fleet round *)

(* Many small heaps: miniweb under one-request sessions fits in 64K-word
   semi-spaces, and 256 instances at the default size would need 2 GiB. *)
let config = { F.Instance.default_config with VM.State.heap_words = 1 lsl 16 }

let fleet_round fleet =
  Trace.span ~layer:"fleet" "Fleet.round" (fun () -> F.Fleet.round fleet)

let open_step ol fleet =
  Trace.span ~layer:"perf" "Openloop.step" (fun () ->
      Load.Open.step ol ~tick:(F.Fleet.ticks fleet))

(* Boot [size] instances, let every server reach its accept loop, then
   run the open loop for 120 rounds before anything is measured.  Each
   arrival requests one of the miniweb session's pages, drawn from the
   seed. *)
let boot ~seed ~size =
  let rng = H.rng ~seed ~salt:6 in
  let pages = Array.of_list profile.F.Profile.pr_script in
  let fleet =
    Trace.span ~layer:"fleet" "Fleet.create" (fun () ->
        F.Fleet.create ~config ~policy:F.Lb.Round_robin ~profile
          ~version:from_version ~size ())
  in
  F.Fleet.run fleet ~rounds:30;
  let ol =
    Load.Open.create
      ~net:(F.Lb.front (F.Fleet.lb fleet))
      ~port:F.Fleet.default_lb_port
      ~line:(fun () -> pages.(Random.State.int rng (Array.length pages)))
      ~ok:profile.F.Profile.pr_ok ~rate
  in
  for _ = 1 to 120 do
    F.Fleet.round fleet;
    Load.Open.step ol ~tick:(F.Fleet.ticks fleet)
  done;
  (fleet, ol)

(* The fleet compiles, diffs, prepares and reviews inside its own calls.
   In the traced pass the benchmark builds instance 0's update itself,
   before the rollout, so those layers can be timed on the same input. *)
let probe_update fleet =
  let inst = F.Fleet.instance fleet 0 in
  Trace.in_update (fun () ->
      let new_program =
        Trace.span ~layer:"lang" "Compile.compile_program" (fun () ->
            Jv_lang.Compile.compile_program
              (F.Profile.source profile ~version:to_version))
      in
      let spec =
        Trace.span ~layer:"core" "Spec.make" (fun () ->
            A.Common.spec
              ~overrides:(profile.F.Profile.pr_overrides ~to_version)
              ~version_tag:
                (F.Profile.version_tag ~from_version ~instance_id:0)
              ~old_program:inst.F.Instance.i_program ~new_program ())
      in
      let prepared =
        Trace.span ~layer:"core" "Transformers.prepare" (fun () ->
            J.Transformers.prepare spec)
      in
      ignore
        (Trace.span ~layer:"core" "Admission.review" (fun () ->
             J.Admission.review prepared)))

(* A fleet workload replays the same plans: series are keyed by plan. *)
let key name plan = Printf.sprintf "%s/%d" name plan

type acc = {
  latency_rounds : Stats.vec;
  latency_us : Stats.vec;
  gc_ns_per_word : Stats.vec;
  mutable plans : int;
  mutable work : H.vmc;
  mutable served : int; (* open-loop responses during the rollouts *)
  mutable bytes : int;
  mutable wait_rounds : int;
  mutable safepoint_attempts : int;
  mutable barriers : int;
  mutable transformed : int;
  mutable osr : int;
  mutable dropped : int;
}

let acc () =
  {
    latency_rounds = Stats.vec ();
    latency_us = Stats.vec ();
    gc_ns_per_word = Stats.vec ();
    plans = 0;
    work = H.vmc_zero;
    served = 0;
    bytes = 0;
    wait_rounds = 0;
    safepoint_attempts = 0;
    barriers = 0;
    transformed = 0;
    osr = 0;
    dropped = 0;
  }

let front_bytes fleet =
  let to_srv, to_cli = Jv_simnet.Simnet.stats (F.Lb.front (F.Fleet.lb fleet)) in
  to_srv + to_cli

(* Fold one plan's rollout into [acc]: [served] and [bytes] are the
   open-loop responses and balancer bytes while it ran; every VM's own
   sink gives its update figures. *)
let note_rollout p acc (vms : H.Fleet_vms.t) ~plan ~served ~bytes ~rounds
    ~mixed =
  acc.plans <- max acc.plans (plan + 1);
  acc.work <- H.vmc_add acc.work (H.Fleet_vms.delta vms);
  acc.served <- acc.served + served;
  acc.bytes <- acc.bytes + bytes;
  let sample name v = Stats.Best.add p.H.best (key name plan) v in
  sample "rounds" (float_of_int rounds);
  sample "mixed" (float_of_int mixed);
  let sink name record =
    Array.iter (fun ms -> record (ms /. 1000.0))
      (Stats.to_array (H.Fleet_vms.sink_means vms name))
  in
  sink "core.update.pause_ms" (sample "pause");
  sink "core.update.load_ms" (Stats.push (H.raw p "load"));
  sink "core.update.gc_ms" (Stats.push (H.raw p "gc"));
  sink "core.confree.analyze_ms" (Stats.push (H.raw p "confree"));
  let total name = int_of_float (H.Fleet_vms.sink_sum vms name) in
  acc.wait_rounds <- acc.wait_rounds + total "core.update.wait_rounds";
  acc.transformed <- acc.transformed + total "core.update.transformed_objects";
  acc.osr <- acc.osr + total "core.update.osr_frames";
  acc.safepoint_attempts <-
    acc.safepoint_attempts + H.Fleet_vms.sink_counter vms "core.update.attempts";
  acc.barriers <-
    acc.barriers + H.Fleet_vms.sink_counter vms "core.update.barriers_installed"

(* Open-loop latencies of the timed phase, and its failures, less the
   [excused] requests an injected crash stranded. *)
let note_load ?(excused = 0) p acc (ol : Load.Open.t) =
  Stats.append ~into:acc.latency_rounds ol.Load.Open.latency_rounds;
  Stats.append ~into:acc.latency_us ol.Load.Open.latency_us;
  H.attempts p ~attempted:ol.Load.Open.offered
    ~failed:(Load.Open.failures ol - excused)

(* Traced pass only: collect and verify every instance heap. *)
let heap_checks p acc fleet =
  if p.H.traced then begin
    let ok = ref true in
    List.iter
      (fun (i : F.Instance.t) ->
        let vm = i.F.Instance.i_vm in
        if VM.Vm.killed vm = None then begin
          H.collect ~into:acc.gc_ns_per_word vm;
          if not (H.heapverify vm).VM.Heapverify.hv_ok then ok := false
        end)
      (F.Fleet.instances fleet);
    H.check p "every instance heap verifies" !ok
  end

(* A plan's rollout time: its start ("start" series) and its rounds
   ("round"), each at its fastest replay. *)
let rollout_s p plan =
  H.best_total p (key "start" plan) +. H.best_total p (key "round" plan)

let metrics p acc =
  let plans = List.init acc.plans Fun.id in
  let per = H.per_replay p in
  let over_plans f = Stats.of_list (List.map f plans) in
  let all_plans name =
    let v = Stats.vec () in
    List.iter
      (fun i -> Array.iter (Stats.push v) (Stats.Best.mins p.H.best (key name i)))
      plans;
    v
  in
  (* the VMs' own timings (Harness.mean_ms); the pause keeps each VM's
     fastest replay *)
  let ms series name = H.raw_ms ~layer:"core" p name series in
  let rollouts = over_plans (rollout_s p) in
  let drive_s = Stats.sum rollouts in
  let per_req n = float_of_int (per n) /. float_of_int (max 1 (per acc.served)) in
  (* request latency in fleet rounds: exact, so it repeats run to run *)
  let rounds =
    H.percentile_metrics ~layer:"e2e" ~unit_:"rounds" ~suffix:"_rounds" "fleet"
      acc.latency_rounds
  in
  List.iter (H.add p)
    (H.latency_metrics acc.latency_us
    @ rounds
    @ [
        H.mean_ms ~layer:"e2e" "pause_ms" (all_plans "pause");
        H.of_samples ~scale:1000.0 ~layer:"e2e" ~unit_:"ms" "update_ms" rollouts;
        H.of_samples ~layer:"e2e" ~unit_:"s" "rollout_s" rollouts;
        H.scalar ~layer:"e2e" ~unit_:"1/s" "ops_per_s"
          (float_of_int (per acc.served) /. drive_s);
        H.of_samples ~layer:"e2e" ~unit_:"rounds" "rollout_rounds"
          (all_plans "rounds");
        H.of_samples ~layer:"e2e" ~unit_:"rounds" "mixed_window_rounds"
          (all_plans "mixed");
        ms "load" "core.update_load_ms";
        ms "gc" "core.update_gc_ms";
        ms "confree" "core.confree_ms";
        H.count ~layer:"core" "core.transformed_objects" (per acc.transformed);
        H.count ~layer:"core" "core.safepoint_wait_rounds" (per acc.wait_rounds);
        H.count ~layer:"core" "core.safepoint_attempts" (per acc.safepoint_attempts);
        H.count ~layer:"core" "core.return_barriers" (per acc.barriers);
        H.count ~layer:"vm" "vm.osr_frames" (per acc.osr);
        H.of_samples ~layer:"vm" ~unit_:"ns" "vm.gc_ns_per_word"
          acc.gc_ns_per_word;
        H.scalar ~layer:"vm" ~unit_:"count" "vm.instr_per_req"
          (per_req acc.work.H.instr);
        H.scalar ~layer:"simnet" ~unit_:"B" "simnet.bytes_per_req"
          (per_req acc.bytes);
        H.count ~layer:"fleet" "fleet.dropped" (per acc.dropped);
        H.scalar ~layer:"vm" ~unit_:"ns" "vm.interp_ns_per_instr"
          (drive_s *. 1e9 /. float_of_int (max 1 (per acc.work.H.instr)));
        H.count ~layer:"vm" "vm.jit_compiles" (per acc.work.H.jit);
        H.count ~layer:"vm" "vm.gc_collections" (per acc.work.H.gcs);
      ])
