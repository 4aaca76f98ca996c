(* What every workload reports, and the pieces the workloads share. *)

module VM = Jv_vm
module J = Jvolve_core
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics

let now = Unix.gettimeofday

type metric = {
  name : string;
  layer : string; (* "e2e", or the lib/ directory the metric measures *)
  unit_ : string;
  value : float; (* what the metric reports (README.md: "How a time is measured") *)
  p50 : float option;
  p99 : float option; (* only with >= Stats.min_tail samples beyond it *)
  n : int;
}

let of_samples ?(scale = 1.0) ~layer ~unit_ name v =
  let s = Stats.summarize v in
  {
    name;
    layer;
    unit_;
    value = s.Stats.median *. scale;
    p50 = Some (s.Stats.median *. scale);
    p99 = Option.map (fun p -> p *. scale) s.Stats.p99;
    n = s.Stats.n;
  }

let scalar ?(n = 1) ~layer ~unit_ name value =
  { name; layer; unit_; value; p50 = None; p99 = None; n }

(* A distribution as two metrics, [<base>_p50<suffix>] and its tail,
   [<base>_p99<suffix>] or, when too few samples lie beyond the 99th
   percentile, the highest of p95, p90 and p75 that has enough. *)
let percentile_metrics ?(scale = 1.0) ~layer ~unit_ ~suffix base v =
  let s = Stats.summarize v in
  let m pct value =
    { name = Printf.sprintf "%s_p%d%s" base pct suffix; layer; unit_;
      value = value *. scale; p50 = None; p99 = None; n = s.Stats.n }
  in
  if s.Stats.n = 0 then []
  else
    m 50 s.Stats.median
    :: (match s.Stats.tail with Some (pct, v) -> [ m pct v ] | None -> [])

(* Request latency, send to response on the host clock. *)
let latency_metrics v =
  percentile_metrics ~layer:"e2e" ~unit_:"us" ~suffix:"_us" "latency" v

let count ~layer name v = scalar ~layer ~unit_:"count" name (float_of_int v)

(* One pass over a workload's episodes.  Every replay in a pass does the
   same work on the same inputs (Stats.Best). *)
type pass = {
  traced : bool;
  setup_s : Stats.vec; (* one sample per set-up *)
  best : Stats.Best.t;
  raw : (string, Stats.vec) Hashtbl.t; (* times the library measured *)
  mutable replays : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failed_checks : string list;
  mutable metrics : metric list;
}

let new_pass ~traced =
  {
    traced;
    setup_s = Stats.vec ();
    best = Stats.Best.create ();
    raw = Hashtbl.create 8;
    replays = 0;
    attempted = 0;
    failed = 0;
    failed_checks = [];
    metrics = [];
  }

let add p m = p.metrics <- m :: p.metrics

(* Operations that can fail: requests, updates and output checks. *)
let attempts p ~attempted ~failed =
  p.attempted <- p.attempted + attempted;
  p.failed <- p.failed + failed

let check p name ok =
  attempts p ~attempted:1 ~failed:(if ok then 0 else 1);
  if not ok then p.failed_checks <- name :: p.failed_checks

let setup p f =
  let t0 = now () in
  let v = f () in
  Stats.push p.setup_s (now () -. t0);
  v

(* Time [f] as the next sample of series [key]. *)
let best p key f =
  let t0 = now () in
  let v = f () in
  Stats.Best.add p.best key (now () -. t0);
  v

(* The episode's timed phase: series "timed", which the trace overhead
   compares between the traced and the untraced pass. *)
let timed_phase p f = best p "timed" f

(* The samples of a time the library measured itself, e.g. its own
   pause split, over every replay. *)
let raw p key =
  match Hashtbl.find_opt p.raw key with
  | Some v -> v
  | None ->
      let v = Stats.vec () in
      Hashtbl.replace p.raw key v;
      v

let end_replay p =
  Stats.Best.end_replay p.best;
  p.replays <- p.replays + 1

(* Seconds: the fastest replay of each sample of [key], summed. *)
let best_total p key = Stats.Best.total p.best key

(* Between episodes: drop the previous episode's VMs.  OCaml 5.1 frees
   them only after a second full cycle, which [Gc.stat] forces; without
   it a 256-instance fleet's heap is still live when the next one boots,
   and peak memory grows by half. *)
let quiesce () =
  Stdlib.Gc.compact ();
  ignore (Stdlib.Gc.stat ())

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* Inputs come from the run seed alone, so every replay gets the same. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* --- VM counters --------------------------------------------------- *)

type vmc = { instr : int; jit : int; gcs : int }

let vmc vm =
  let s = VM.Vm.stats vm in
  {
    instr = s.VM.Vm.instr_count;
    jit = s.VM.Vm.compile_count + s.VM.Vm.opt_compile_count;
    gcs = s.VM.Vm.gc_count;
  }

let vmc_zero = { instr = 0; jit = 0; gcs = 0 }

let vmc_sub a b =
  { instr = a.instr - b.instr; jit = a.jit - b.jit; gcs = a.gcs - b.gcs }

let vmc_add a b =
  { instr = a.instr + b.instr; jit = a.jit + b.jit; gcs = a.gcs + b.gcs }

(* Every VM a fleet ran during the timed phase, including the ones a
   supervisor replaced after a crash, with their counters at first
   sight.  [observe] after every fleet round. *)
module Fleet_vms = struct
  type t = { mutable seen : (VM.Vm.t * vmc) list; last : VM.Vm.t array }

  let create (insts : Jv_fleet.Instance.t list) =
    let vms = List.map (fun i -> i.Jv_fleet.Instance.i_vm) insts in
    { seen = List.map (fun vm -> (vm, vmc vm)) vms; last = Array.of_list vms }

  let observe t (insts : Jv_fleet.Instance.t list) =
    List.iter
      (fun (i : Jv_fleet.Instance.t) ->
        let id = i.Jv_fleet.Instance.i_id in
        if i.Jv_fleet.Instance.i_vm != t.last.(id) then begin
          t.last.(id) <- i.Jv_fleet.Instance.i_vm;
          t.seen <- (i.Jv_fleet.Instance.i_vm, vmc_zero) :: t.seen
        end)
      insts

  let delta t =
    List.fold_left
      (fun acc (vm, c0) -> vmc_add acc (vmc_sub (vmc vm) c0))
      vmc_zero t.seen

  let vms t = List.map fst t.seen

  (* Per VM, the mean of what its own sink recorded under [name]. *)
  let sink_means t name =
    let v = Stats.vec () in
    List.iter
      (fun vm ->
        match Obs.find_histogram (VM.Vm.obs vm) name with
        | Some h when Metrics.count h > 0 ->
            Stats.push v (Metrics.sum h /. float_of_int (Metrics.count h))
        | _ -> ())
      (vms t);
    v

  let sink_counter t name =
    List.fold_left
      (fun acc vm -> acc + Obs.counter_value (VM.Vm.obs vm) name)
      0 (vms t)

  let sink_sum t name =
    List.fold_left
      (fun acc vm ->
        match Obs.find_histogram (VM.Vm.obs vm) name with
        | Some h -> acc +. Metrics.sum h
        | None -> acc)
      0.0 (vms t)
end

(* --- traced-only calls --------------------------------------------- *)

(* A full collection, timed per copied word.  migrate and store-lazy
   collect in their set-up, to touch both semi-spaces before the update;
   otherwise the workloads collect and verify the heap in the traced pass
   only, so that these two calls can be timed. *)
let collect ~into vm =
  let t0 = now () in
  let r = Trace.span ~layer:"vm" "Vm.gc" (fun () -> VM.Vm.gc vm) in
  let wall = now () -. t0 in
  if r.VM.Gc.copied_words > 0 then
    Stats.push into (wall *. 1e9 /. float_of_int r.VM.Gc.copied_words)

let heapverify vm =
  Trace.span ~layer:"vm" "Heapverify.run" (fun () -> VM.Heapverify.run vm)

(* --- one VM ----------------------------------------------------------- *)

let compile versioned ~version () =
  Jv_lang.Compile.compile_program (Jv_apps.Patching.source versioned ~version)

(* Boot a server app, as the experience harness does, with the compile
   timed on its own. *)
let boot_app ~config ~ok program_of =
  let program = Trace.span ~layer:"lang" "Compile.compile_program" program_of in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm program;
  VM.Vm.set_response_classifier vm (Some ok);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  (* let the server open its listeners *)
  VM.Vm.run vm ~rounds:5;
  (vm, program)

(* Bytes both ways on the VM's simulated network so far. *)
let net_bytes vm =
  let to_srv, to_cli = Jv_simnet.Simnet.stats (VM.Vm.net vm) in
  to_srv + to_cli

let round vm = Trace.span ~layer:"vm" "Vm.run" (fun () -> VM.Vm.run vm ~rounds:1)

(* One scheduler round as the next sample of series [key]. *)
let timed_round p key vm = best p key (fun () -> round vm)

type update = {
  handle : J.Jvolve.handle;
  program : Jv_classfile.Cls.t list; (* the new version, compiled *)
  pause_s : float; (* wall of the round in which the update resolved *)
  update_s : float; (* compile -> spec -> request -> resolved *)
}

(* Compile the new version, build the spec, prepare and request it, then
   drive the VM one round at a time until the update resolves. *)
let update vm ~compile ~spec ~max_rounds =
  Trace.in_update (fun () ->
      let t0 = now () in
      let program =
        Trace.span ~layer:"lang" "Compile.compile_program" compile
      in
      let spec = Trace.span ~layer:"core" "Spec.make" (fun () -> spec program) in
      let prepared =
        Trace.span ~layer:"core" "Transformers.prepare" (fun () ->
            J.Transformers.prepare spec)
      in
      if Trace.enabled () then
        ignore
          (Trace.span ~layer:"core" "Admission.review" (fun () ->
               J.Admission.review
                 ~confree:vm.VM.State.config.VM.State.confree prepared));
      let h =
        Trace.span ~layer:"core" "Jvolve.request" (fun () ->
            J.Jvolve.request vm prepared)
      in
      let pause = ref 0.0 and n = ref 0 in
      while (not (J.Jvolve.resolved h)) && !n < max_rounds do
        let t = now () in
        round vm;
        pause := now () -. t;
        incr n
      done;
      { handle = h; program; pause_s = !pause; update_s = now () -. t0 })

(* Per-update figures the core layer reports, accumulated over a pass.
   The benchmark's own timings go to the replay minima, the library's to
   [raw]; counts are summed over the replays and reported per replay. *)
type core_stats = {
  mutable transformed : int;
  mutable osr : int;
  mutable wait_rounds : int;
  mutable safepoint_attempts : int;
  mutable barriers : int;
}

let core_stats () =
  { transformed = 0; osr = 0; wait_rounds = 0; safepoint_attempts = 0;
    barriers = 0 }

(* Records the update; true when it applied. *)
let note_update p cs vm (u : update) =
  let h = u.handle in
  let sample key v = Stats.push (raw p key) v in
  Stats.Best.add p.best "update" u.update_s;
  let r = J.Jvolve.report vm h in
  cs.wait_rounds <- cs.wait_rounds + r.J.Jvolve.ar_waited_rounds;
  cs.safepoint_attempts <- cs.safepoint_attempts + r.J.Jvolve.ar_attempts;
  cs.barriers <- cs.barriers + r.J.Jvolve.ar_barriers_installed;
  Option.iter
    (fun (c : J.Confree.t) -> sample "confree" (c.J.Confree.analyzed_ms /. 1000.0))
    h.J.Jvolve.h_restricted.J.Safepoint.proofs;
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Stats.Best.add p.best "pause" u.pause_s;
      sample "total" (t.J.Updater.u_total_ms /. 1000.0);
      sample "load" (t.J.Updater.u_load_ms /. 1000.0);
      sample "gc" (t.J.Updater.u_gc_ms /. 1000.0);
      sample "transform" (t.J.Updater.u_transform_ms /. 1000.0);
      cs.transformed <- cs.transformed + t.J.Updater.u_transformed_objects;
      cs.osr <- cs.osr + t.J.Updater.u_osr;
      true
  | J.Jvolve.Pending | J.Jvolve.Reverted _ | J.Jvolve.Aborted _ -> false

(* The median over positions of a best-of-replays series, in ms. *)
let best_ms ~layer p name key =
  of_samples ~scale:1000.0 ~layer ~unit_:"ms" name (Stats.Best.vec p.best key)

(* Times the library measured itself come in microsecond grains, so a
   median or a minimum of them can read the same on many runs: they are
   reported as means.  [v] in seconds. *)
let mean_ms ~layer name v =
  {
    (of_samples ~scale:1000.0 ~layer ~unit_:"ms" name v) with
    value = Stats.mean v *. 1000.0;
  }

let raw_ms ~layer p name key = mean_ms ~layer name (raw p key)

(* A count summed over the pass's identical replays, per replay. *)
let per_replay p n = n / max 1 p.replays

(* The core-layer metrics every single-VM workload reports.  With
   [tail], an update lasts until that series' work is done too. *)
let core_metrics ?tail p cs =
  let per = per_replay p in
  let update_ms =
    let m = best_ms ~layer:"e2e" p "update_ms" "update" in
    match tail with
    | None -> m
    | Some key ->
        let v = m.value +. (best_total p key *. 1000.0) in
        { m with value = v; p50 = Some v }
  in
  List.iter (add p)
    [
      best_ms ~layer:"e2e" p "pause_ms" "pause";
      update_ms;
      raw_ms ~layer:"core" p "core.update_load_ms" "load";
      raw_ms ~layer:"core" p "core.update_gc_ms" "gc";
      raw_ms ~layer:"core" p "core.update_transform_ms" "transform";
      raw_ms ~layer:"core" p "core.confree_ms" "confree";
      count ~layer:"core" "core.transformed_objects" (per cs.transformed);
      count ~layer:"core" "core.safepoint_wait_rounds" (per cs.wait_rounds);
      count ~layer:"core" "core.safepoint_attempts" (per cs.safepoint_attempts);
      count ~layer:"core" "core.return_barriers" (per cs.barriers);
      count ~layer:"vm" "vm.osr_frames" (per cs.osr);
    ]

(* Interpreter cost: the replay-best wall of [key] per instruction the
   VMs executed in it; [work] is summed over the replays. *)
let vm_metrics p ~key ~(work : vmc) =
  let per = per_replay p in
  List.iter (add p)
    [
      scalar ~layer:"vm" ~unit_:"ns" "vm.interp_ns_per_instr"
        ~n:(Array.length (Stats.Best.mins p.best key))
        (best_total p key *. 1e9 /. float_of_int (max 1 (per work.instr)));
      count ~layer:"vm" "vm.jit_compiles" (per work.jit);
      count ~layer:"vm" "vm.gc_collections" (per work.gcs);
    ]
