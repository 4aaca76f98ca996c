(* Chaos benchmarks (lib/faults): what a failed update costs and how the
   fleet behaves when updates keep failing.

   Two sections:
   - abort-rollback pause cost: inject a fault into each update phase of
     a loaded miniweb VM, report the rollback's share of the pause next
     to a clean update's, and audit that every abort left zero
     half-installed class tables (the transaction's post-rollback
     metadata audit);
   - rollout convergence under fault rates 0..20%: rolling updates with
     retry/backoff across a fleet, asserting every per-instance abort
     rolled back and the fleet converged to one version (or quarantined
     the stragglers). *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module F = Jv_fleet
module Faults = Jv_faults.Faults

let compile = Jv_lang.Compile.compile_program

(* --- section 1: abort-rollback pause cost ------------------------------ *)

let phases =
  [
    ("updater.load", "load");
    ("updater.gc", "gc");
    ("updater.transform", "transform");
  ]

(* run the whole suite with the post-transform / post-rollback heap
   verifier on: a fault-induced rollback that corrupts the heap fails
   the abort audit instead of passing silently *)
let chaos_config =
  { A.App.default_config with VM.State.verify_heap = true }

let boot_web_loaded ?(config = chaos_config) ?(version = "5.1.1") () =
  let d = A.App.miniweb in
  let vm = A.App.boot ~config d (A.App.compile d ~version) in
  let loads = A.App.attach vm d ~concurrency:4 in
  VM.Vm.run vm ~rounds:80;
  (vm, loads)

let web_spec ?(from = "5.1.1") ?(to_ = "5.1.2") ~tag () =
  J.Spec.make ~version_tag:tag
    ~old_program:(A.App.compile A.App.miniweb ~version:from)
    ~new_program:(A.App.compile A.App.miniweb ~version:to_)
    ()

(* The lazy row: 5.1.2 -> 5.1.3 (5.1.2 changes no class layout) commits
   as a lazy window, then a residual transformer traps under load and
   the whole window rolls back.  Its verdict is the lazy
   [update.rollback] event's.  Returns whether it came back clean. *)
let lazy_window_abort () =
  let vm, _ =
    boot_web_loaded ~version:"5.1.2"
      ~config:{ chaos_config with VM.State.lazy_update = true }
      ()
  in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 vm
      (web_spec ~from:"5.1.2" ~to_:"5.1.3" ~tag:"512" ())
  in
  let opened = J.Jvolve.succeeded h && vm.VM.State.lazy_info <> None in
  let plan = Faults.create ~seed:11 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let budget = ref 2000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  let verdicts =
    List.filter_map
      (fun (e : Jv_obs.Obs.event) ->
        let field k = List.assoc_opt k e.Jv_obs.Obs.ev_fields in
        match (e.Jv_obs.Obs.ev_name, field "mode", field "ok", field "ms") with
        | ( "update.rollback",
            Some (Jv_obs.Obs.Str "lazy"),
            Some (Jv_obs.Obs.Str ok),
            Some (Jv_obs.Obs.Float ms) ) ->
            Some (ok = "true", ms)
        | _ -> None)
      (Jv_obs.Obs.events vm.VM.State.obs)
  in
  VM.Vm.run vm ~rounds:60;
  match verdicts with
  | [ (clean, ms) ] when opened ->
      Printf.printf "    abort in %-10s rollback %7.3f ms, audit %s\n"
        "lazy window (5.1.2 -> 5.1.3)" ms
        (if clean then "clean" else "DIRTY");
      clean
  | vs ->
      Printf.printf
        "    abort in lazy window UNEXPECTED: window opened %b, %d \
         rollback(s)\n"
        opened (List.length vs);
      false

let abort_cost () =
  Support.section
    "CHAOS: abort-rollback pause cost (miniweb 5.1.1 -> 5.1.2, fault per \
     phase)";
  (* the clean update, for scale *)
  let vm, _ = boot_web_loaded () in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 vm (web_spec ~tag:"511" ())
  in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Printf.printf "    %-24s total %7.3f ms (load %.3f, gc %.3f, \
                     transform %.3f)\n"
        "clean update:" t.J.Updater.u_total_ms t.J.Updater.u_load_ms
        t.J.Updater.u_gc_ms t.J.Updater.u_transform_ms
  | o ->
      Printf.printf "    clean update did not apply: %s\n"
        (J.Jvolve.outcome_to_string o));
  let dirty = ref 0 in
  List.iter
    (fun (point, label) ->
      let vm, _ = boot_web_loaded () in
      let plan = Faults.create ~seed:11 () in
      Faults.arm plan ~point ~max_fires:1 Faults.Raise;
      VM.Vm.set_faults vm (Some plan);
      let h =
        J.Jvolve.update_now ~timeout_rounds:400 vm (web_spec ~tag:"511" ())
      in
      (match h.J.Jvolve.h_outcome with
      | J.Jvolve.Aborted a ->
          if not a.J.Updater.a_rolled_back then incr dirty;
          Printf.printf
            "    abort in %-10s rollback %7.3f ms, audit %s\n" label
            a.J.Updater.a_rollback_ms
            (if a.J.Updater.a_rolled_back then "clean" else "DIRTY")
      | o ->
          incr dirty;
          Printf.printf "    abort in %-10s UNEXPECTED: %s\n" label
            (J.Jvolve.outcome_to_string o));
      (* the VM must still serve the old version afterwards *)
      VM.Vm.run vm ~rounds:60)
    phases;
  if not (lazy_window_abort ()) then incr dirty;
  Printf.printf "    %-24s %d\n" "half-installed tables:" !dirty

(* --- section 2: rollout convergence under fault rates ------------------ *)

let rates = if Support.quick then [ 0.0; 0.2 ] else [ 0.0; 0.05; 0.1; 0.2 ]

let boot_fleet ~size =
  let fleet =
    F.Fleet.create
      ~config:{ A.App.default_config with VM.State.verify_heap = true }
      ~policy:F.Lb.Round_robin ~profile:A.App.miniweb ~version:"5.1.1"
      ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:(2 * size) fleet);
  F.Fleet.run fleet ~rounds:100;
  fleet

(* Every committed instance serves through a short guard window (traffic
   budgets disabled so only the faults under test can trip it): the
   rollout must converge with the watchdog and retained logs in the
   pipeline. *)
let chaos_guard =
  J.Guard.config
    ~budget:
      {
        J.Guard.default_budget with
        J.Guard.b_rounds = 60;
        b_max_app_errors = max_int;
        b_latency_factor = 1e9;
      }
    ()

let chaos_params =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 1 }))
    with
    F.Orchestrator.update_timeout = 250;
    max_retries = 3;
    backoff_base = 20;
    on_exhausted = `Quarantine;
    guard = Some chaos_guard;
  }

(* Every per-instance abort in the rollout must have rolled its VM back
   (a_rolled_back: the transaction restored the snapshot and the
   metadata audit passed). *)
let unclean_aborts (r : F.Orchestrator.result) =
  List.fold_left
    (fun n (_, (ar : J.Jvolve.attempt_report)) ->
      match ar.J.Jvolve.ar_outcome with
      | J.Jvolve.Aborted a when not a.J.Updater.a_rolled_back -> n + 1
      | _ -> n)
    0 r.F.Orchestrator.r_reports

let convergence () =
  Support.section
    "CHAOS: rollout convergence vs fault rate (miniweb fleet of 4, \
     updater.* = raise, retries = 3, quarantine on exhaustion)";
  List.iter
    (fun rate ->
      let fleet = boot_fleet ~size:4 in
      let plan = Faults.create ~seed:1234 () in
      if rate > 0.0 then
        Faults.arm plan ~point:"updater.*" ~rate Faults.Raise;
      F.Fleet.set_faults fleet (Some plan);
      let r =
        F.Orchestrator.run ~params:chaos_params ~fleet ~to_version:"5.1.2" ()
      in
      F.Fleet.set_faults fleet None;
      F.Fleet.run fleet ~rounds:30;
      let converged =
        match F.Fleet.uniform_version fleet with
        | Some v -> Printf.sprintf "converged on %s" v
        | None ->
            if
              List.for_all
                (fun (i : F.Instance.t) ->
                  i.F.Instance.i_status = F.Instance.Out_of_service)
                (F.Fleet.instances fleet)
            then "all instances quarantined"
            else "MIXED VERSIONS"
      in
      Printf.printf
        "    rate %3.0f%%: %-22s %5d rounds, %d faults fired, %d retries, \
         %d aborts (%d unclean), %d quarantined, %d dropped conns\n"
        (rate *. 100.0) converged r.F.Orchestrator.r_rounds
        (Faults.fired plan) r.F.Orchestrator.r_retries
        (List.length r.F.Orchestrator.r_aborted)
        (unclean_aborts r)
        (List.length r.F.Orchestrator.r_quarantined)
        (F.Fleet.dropped_in_flight fleet))
    rates

(* Kills enabled: the storm now takes whole VMs down mid-rollout, and the
   supervisor must restart, catch up and readmit every corpse — the
   fleet has to return to full strength on one version, with zero
   instances lost for good. *)
let kill_convergence () =
  Support.section
    "CHAOS: kill-storm convergence (vm.crash kills mid-rollout, \
     supervisor restarts + ladder catch-up, quarantine on exhaustion)";
  let kill_counts = if Support.quick then [ 0; 1 ] else [ 0; 1; 2; 4 ] in
  List.iter
    (fun kills ->
      let fleet = boot_fleet ~size:4 in
      let plan = Faults.create ~seed:77 () in
      if kills > 0 then
        Faults.arm plan ~point:"vm.crash" ~rate:0.002 ~max_fires:kills
          Faults.Kill;
      F.Fleet.set_faults fleet (Some plan);
      let sup =
        F.Supervisor.create
          ~params:
            {
              F.Supervisor.default_params with
              F.Supervisor.s_backoff_base = 20;
            }
          ~fleet ()
      in
      let r =
        F.Orchestrator.run ~supervisor:sup ~params:chaos_params ~fleet
          ~to_version:"5.1.2" ()
      in
      F.Fleet.set_faults fleet None;
      F.Fleet.run fleet ~rounds:30;
      let alive = F.Supervisor.alive sup in
      let verdict =
        match (F.Fleet.uniform_version fleet, alive) with
        | Some v, a when a = 4 -> Printf.sprintf "full strength on %s" v
        | Some v, a -> Printf.sprintf "%d/4 alive on %s" a v
        | None, a -> Printf.sprintf "MIXED VERSIONS (%d/4 alive)" a
      in
      Printf.printf
        "    kills %d: %-26s %5d rounds, %d restarts, %d recovered, %d \
         parked, %d aborts (%d unclean)\n"
        kills verdict r.F.Orchestrator.r_rounds (F.Supervisor.restarts sup)
        (List.length (F.Supervisor.recovered sup))
        (List.length (F.Supervisor.parked sup))
        (List.length r.F.Orchestrator.r_aborted)
        (unclean_aborts r))
    kill_counts

let run () =
  abort_cost ();
  convergence ();
  kill_convergence ()
