(* Self-healing fleet (lib/fleet/supervisor): crash detection, backoff
   restart, snapshot restore, epoch catch-up and LB readmission.

   Four directed arcs plus a property:
   - steady-state crash: a kill outside any rollout heals back to full
     strength on the same version, with the readmit event mirroring the
     quarantine edge;
   - mid-update crash: the orchestrator quarantines the corpse, the
     supervisor revives it, and the rollout's reconciled result moves
     it from quarantined to recovered — capacity is not double-counted;
   - mid-guard-window crash: the watchdog force-closes the window,
     fences the rollout, survivors revert, and the restarted instance
     catches up to the *reverted* epoch, not the suspect one;
   - a catch-up hop that aborts fails its restart, and a later restart
     catches the instance up;
   - property: any seeded kill schedule on a ministore fleet converges
     back to N alive on one version, with every store bit-for-bit equal
     to a never-killed control fleet. *)

module F = Jv_fleet
module J = Jvolve_core
module VM = Jv_vm
module Ms = Jv_apps.Ministore
module Faults = Jv_faults.Faults
module Obs = Jv_obs.Obs

(* small per-instance heap: these tests boot several VMs each *)
let fleet_config =
  { VM.State.default_config with VM.State.heap_words = 1 lsl 18 }

(* request timeouts on the closed-loop drivers: a kill severs that VM's
   in-flight lines and the sessions must recycle, not wedge *)
let boot_under_load ?(size = 3) ?(version = "5.1.1")
    ?(profile = F.Profile.miniweb) () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin ~profile
      ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:6 ~request_timeout:40 fleet);
  F.Fleet.run fleet ~rounds:100;
  fleet

let heal_params =
  {
    F.Supervisor.default_params with
    F.Supervisor.s_backoff_base = 20;
    s_snapshot_every = 40;
  }

let kill_plan ?(seed = 5) spec =
  match Faults.parse ~seed spec with Ok p -> p | Error e -> failwith e

(* heal with no rollout running: at least 5 rounds, so a kill armed
   just before has fired *)
let heal sup =
  if not (F.Supervisor.settle ~min_rounds:5 sup) then
    failwith "supervisor never settled"

let heal_orch_params ?guard () =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 1 }))
    with
    F.Orchestrator.update_timeout = 250;
    max_retries = 1;
    backoff_base = 20;
    on_exhausted = `Quarantine;
    guard;
  }

(* --- steady state ------------------------------------------------------- *)

let test_steady_state_crash () =
  let fleet = boot_under_load ~size:3 () in
  let sup = F.Supervisor.create ~params:heal_params ~fleet () in
  (* rate 1.0, one fire: instance 0 dies on the very next consult *)
  F.Fleet.set_faults fleet (Some (kill_plan "vm.crash=kill@1.0x1"));
  heal sup;
  Alcotest.(check int) "one restart" 1 (F.Supervisor.restarts sup);
  Alcotest.(check (list int)) "victim recovered" [ 0 ]
    (F.Supervisor.recovered sup);
  Alcotest.(check int) "nobody parked" 0 (List.length (F.Supervisor.parked sup));
  Alcotest.(check int) "full strength" 3 (F.Supervisor.alive sup);
  Alcotest.(check (option string)) "still on the old version" (Some "5.1.1")
    (F.Fleet.uniform_version fleet);
  (* the readmit edge mirrors instance.quarantine: event + counter *)
  Alcotest.(check int) "readmission counted" 1
    (Obs.counter_value (F.Fleet.obs fleet) "fleet.rollout.readmitted");
  let readmits =
    List.filter
      (fun (ev : Obs.event) -> ev.Obs.ev_name = "instance.readmit")
      (Obs.events (F.Fleet.obs fleet))
  in
  Alcotest.(check int) "one readmit event" 1 (List.length readmits);
  Alcotest.(check bool) "readmit event carries MTTR" true
    (List.exists
       (fun (ev : Obs.event) ->
         List.mem_assoc "mttr_rounds" ev.Obs.ev_fields)
       readmits);
  Alcotest.(check bool) "outage was measured" true
    (F.Supervisor.below_capacity_rounds sup > 0)

(* --- mid-update crash --------------------------------------------------- *)

let test_mid_update_crash_reconciled () =
  let fleet = boot_under_load ~size:3 () in
  let sup = F.Supervisor.create ~params:heal_params ~fleet () in
  (* kill instance 0 the moment its update transaction is in flight *)
  let r =
    F.Orchestrator.run ~supervisor:sup
      ~on_round:
        (Helpers.kill_when fleet (fun () ->
             (F.Fleet.instance fleet 0).F.Instance.i_status
             = F.Instance.Updating))
      ~params:(heal_orch_params ()) ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "victim recovered in the result" true
    (List.mem 0 r.F.Orchestrator.r_recovered);
  Alcotest.(check bool) "victim no longer counted quarantined" false
    (List.mem_assoc 0 r.F.Orchestrator.r_quarantined);
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check (option string)) "fleet uniform on the new version"
    (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "full strength" 3 (F.Supervisor.alive sup)

(* --- mid-guard-window crash --------------------------------------------- *)

(* traffic budgets disabled: only the crash can trip the window *)
let heal_guard =
  J.Guard.config
    ~budget:
      {
        J.Guard.default_budget with
        J.Guard.b_rounds = 150;
        b_max_app_errors = max_int;
        b_latency_factor = 1e9;
      }
    ()

let test_mid_guard_window_crash () =
  let fleet = boot_under_load ~size:3 () in
  let sup = F.Supervisor.create ~params:heal_params ~fleet () in
  (* wait until instance 0 is serving the new version inside its guard
     window, then kill it: the watchdog must force-close the window,
     fence the rollout and revert the survivors *)
  let r =
    F.Orchestrator.run ~supervisor:sup
      ~on_round:
        (Helpers.kill_when fleet (fun () ->
             let i = F.Fleet.instance fleet 0 in
             i.F.Instance.i_version = "5.1.2"
             && i.F.Instance.i_status = F.Instance.In_service))
      ~params:(heal_orch_params ~guard:heal_guard ())
      ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "rollout fenced" true (r.F.Orchestrator.r_halted <> None);
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check (option string)) "fleet back on the reverted epoch"
    (Some "5.1.1")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check string) "restarted victim on the reverted epoch, too"
    "5.1.1"
    (F.Fleet.instance fleet 0).F.Instance.i_version;
  Alcotest.(check bool) "victim recovered" true
    (List.mem 0 (F.Supervisor.recovered sup));
  Alcotest.(check int) "full strength" 3 (F.Supervisor.alive sup)

(* --- a catch-up hop that aborts ------------------------------------------ *)

(* Instance 0 dies after the fleet reached 5.1.2; on its rebooted VM the
   5.1.1 -> 5.1.2 catch-up hop aborts on an injected load fault.  The
   restart fails naming the hop, the instance stays out of service with
   another restart scheduled, and that restart catches it up. *)
let test_catchup_abort_retried () =
  let fleet = boot_under_load ~size:3 () in
  let r =
    F.Orchestrator.run ~params:(heal_orch_params ()) ~fleet ~to_version:"5.1.2"
      ()
  in
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  let sup = F.Supervisor.create ~params:heal_params ~fleet () in
  F.Fleet.set_faults fleet
    (Some (kill_plan "vm.crash=kill@1.0x1,updater.load=raise@1.0x1"));
  let events name =
    List.filter
      (fun (ev : Obs.event) -> ev.Obs.ev_name = name)
      (Obs.events (F.Fleet.obs fleet))
  in
  let field k (ev : Obs.event) = List.assoc k ev.Obs.ev_fields in
  let rounds = ref 0 in
  while events "restart.failed" = [] do
    F.Fleet.round fleet;
    F.Supervisor.step sup;
    incr rounds;
    if !rounds > 5_000 then Alcotest.fail "no restart failed"
  done;
  (match events "restart.failed" with
  | [ ev ] ->
      Alcotest.(check bool) "instance 0 failed" true
        (field "instance" ev = Obs.Int 0);
      let why =
        match field "why" ev with Obs.Str s -> s | _ -> Alcotest.fail "why"
      in
      let prefix = "catch-up 5.1.1->5.1.2 failed: " in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the hop" why)
        true
        (Helpers.contains why prefix
        && String.length why > String.length prefix)
  | evs -> Alcotest.failf "%d restart failures" (List.length evs));
  let i0 = F.Fleet.instance fleet 0 in
  Alcotest.(check string) "still out of service" "out-of-service"
    (F.Instance.status_to_string i0.F.Instance.i_status);
  Alcotest.(check bool) "not admitted" false
    (F.Lb.admitting (F.Fleet.lb fleet) ~id:0);
  Alcotest.(check (list int)) "second restart scheduled" [ 1; 2 ]
    (List.map
       (fun ev ->
         match field "attempt" ev with Obs.Int n -> n | _ -> -1)
       (events "restart.scheduled"));
  heal sup;
  Alcotest.(check int) "two restarts" 2 (F.Supervisor.restarts sup);
  Alcotest.(check (list int)) "victim recovered" [ 0 ]
    (F.Supervisor.recovered sup);
  Alcotest.(check string) "caught up to 5.1.2" "5.1.2"
    (F.Fleet.instance fleet 0).F.Instance.i_version;
  Alcotest.(check int) "one catch-up hop landed" 1
    (Obs.counter_value (F.Fleet.obs fleet) "fleet.supervisor.catchup_hops");
  Alcotest.(check int) "full strength" 3 (F.Supervisor.alive sup);
  Alcotest.(check (option string)) "fleet uniform on 5.1.2" (Some "5.1.2")
    (F.Fleet.uniform_version fleet)

(* --- snapshot format ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
      ~profile:F.Profile.ministore ~version:"1.0" ~size:1 ()
  in
  F.Fleet.run fleet ~rounds:30;
  let vm = (F.Fleet.instance fleet 0).F.Instance.i_vm in
  let boot_records =
    match Ms.scrape vm with
    | Ok s -> List.length s.Ms.s_records
    | Error e -> failwith e
  in
  (* fresh keys well above the seeded range *)
  List.iter
    (fun reply ->
      Alcotest.(check bool) "write accepted" true
        (String.length reply >= 3 && String.sub reply 0 3 = "+OK"))
    (Ms.wire_session vm
       [ "PUT 9001 7 alpha"; "PUT 9002 9 beta gamma"; "PUT 9003 0 d" ]);
  let snap =
    match Ms.scrape vm with Ok s -> s | Error e -> failwith e
  in
  Alcotest.(check int) "scrape saw the writes" (boot_records + 3)
    (List.length snap.Ms.s_records);
  let wire = Ms.snapshot_to_string snap in
  (match Ms.snapshot_of_string wire with
  | Ok back ->
      Alcotest.(check bool) "records survive the round-trip" true
        (back.Ms.s_records = snap.Ms.s_records
        && back.Ms.s_version = snap.Ms.s_version)
  | Error e -> Alcotest.failf "round-trip rejected: %s" e);
  (* a flipped byte in the body must fail the checksum *)
  let tampered =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c) wire
  in
  match Ms.snapshot_of_string tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered snapshot accepted"

(* --- durable recovery through a missed schema hop ----------------------- *)

let test_ministore_durable_recovery () =
  let fleet = boot_under_load ~size:2 ~profile:F.Profile.ministore ~version:"1.0" () in
  let r =
    F.Orchestrator.run
      ~params:
        {
          (F.Orchestrator.default_params
             (F.Orchestrator.Rolling { batch_size = 1 }))
          with
          F.Orchestrator.update_timeout = 250;
        }
      ~fleet ~to_version:"1.1" ()
  in
  Alcotest.(check bool) "schema rollout ok" true r.F.Orchestrator.r_ok;
  (* freeze writes, then let the supervisor reach a snapshot boundary *)
  F.Fleet.detach_loads fleet;
  let sup = F.Supervisor.create ~params:heal_params ~fleet () in
  for _ = 1 to 2 * heal_params.F.Supervisor.s_snapshot_every do
    F.Fleet.round fleet;
    F.Supervisor.step sup
  done;
  let scrape () =
    match Ms.scrape (F.Fleet.instance fleet 0).F.Instance.i_vm with
    | Ok s -> s
    | Error e -> failwith ("scrape failed: " ^ e)
  in
  let pre = scrape () in
  Alcotest.(check string) "store serving the new schema" "1.1"
    pre.Ms.s_version;
  F.Fleet.set_faults fleet (Some (kill_plan ~seed:3 "vm.crash=kill@1.0x1"));
  heal sup;
  let post = scrape () in
  Alcotest.(check bool) "pre-crash records served bit-for-bit" true
    (post.Ms.s_records = pre.Ms.s_records);
  Alcotest.(check string) "recovered at the current schema" "1.1"
    post.Ms.s_version;
  Alcotest.(check (option string)) "fleet uniform" (Some "1.1")
    (F.Fleet.uniform_version fleet)

(* --- property: seeded kill schedules always heal ------------------------ *)

(* Direct per-instance write batches (not LB-routed): both fleets hold
   identical stores regardless of how kills skew routing. *)
let write_batches fleet ~seed =
  for id = 0 to F.Fleet.size fleet - 1 do
    let vm = (F.Fleet.instance fleet id).F.Instance.i_vm in
    ignore
      (Ms.wire_session vm
         (List.init 6 (fun j ->
              Printf.sprintf "PUT %d %d v%d_%d" ((id * 100) + j)
                ((seed + j) mod 16)
                seed j)))
  done

let prop_kill_schedule_heals =
  QCheck.Test.make
    ~name:"any seeded kill schedule heals: full strength, stores intact"
    ~count:3
    QCheck.(pair (int_range 1 1000) (int_range 1 2))
    (fun (seed, kills) ->
      let seed = max 1 (min 1000 seed) in
      let kills = max 1 (min 2 kills) in
      let size = 2 in
      let boot () =
        let fleet =
          F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
            ~profile:F.Profile.ministore ~version:"1.0" ~size ()
        in
        F.Fleet.run fleet ~rounds:30;
        write_batches fleet ~seed;
        F.Fleet.run fleet ~rounds:20;
        fleet
      in
      let control = boot () in
      let fleet = boot () in
      let params =
        { heal_params with F.Supervisor.s_snapshot_every = 20 }
      in
      let sup = F.Supervisor.create ~params ~fleet () in
      (* every instance gets a snapshot before the storm opens *)
      for _ = 1 to 2 * params.F.Supervisor.s_snapshot_every do
        F.Fleet.round fleet;
        F.Supervisor.step sup
      done;
      let plan =
        kill_plan ~seed (Printf.sprintf "vm.crash=kill@0.05x%d" kills)
      in
      F.Fleet.set_faults fleet (Some plan);
      (* 600 rounds: long enough that a 5% per-consult rate has
         certainly fired *)
      if not (F.Supervisor.settle ~min_rounds:600 sup) then
        QCheck.Test.fail_reportf "seed %d: never settled" seed;
      if Faults.fired plan = 0 then
        QCheck.Test.fail_reportf "seed %d: kill schedule never fired" seed;
      if F.Supervisor.alive sup <> size then
        QCheck.Test.fail_reportf "seed %d: %d/%d alive" seed
          (F.Supervisor.alive sup) size;
      if F.Fleet.uniform_version fleet <> Some "1.0" then
        QCheck.Test.fail_reportf "seed %d: fleet not on one epoch" seed;
      for id = 0 to size - 1 do
        let s fleet =
          match Ms.scrape (F.Fleet.instance fleet id).F.Instance.i_vm with
          | Ok s -> (s.Ms.s_version, s.Ms.s_records)
          | Error e -> QCheck.Test.fail_reportf "scrape %d: %s" id e
        in
        if s fleet <> s control then
          QCheck.Test.fail_reportf
            "seed %d: store %d diverged from never-killed control" seed id
      done;
      true)

let suite =
  [
    Alcotest.test_case "steady-state crash heals to full strength" `Quick
      test_steady_state_crash;
    Alcotest.test_case "mid-update crash: quarantined then reconciled" `Quick
      test_mid_update_crash_reconciled;
    Alcotest.test_case "mid-guard-window crash: catch-up to reverted epoch"
      `Quick test_mid_guard_window_crash;
    Alcotest.test_case "catch-up hop aborts: restart retried, then caught up"
      `Quick test_catchup_abort_retried;
    Alcotest.test_case "ministore snapshot round-trip + checksum" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "ministore durable recovery across a schema hop"
      `Quick test_ministore_durable_recovery;
    QCheck_alcotest.to_alcotest prop_kill_schedule_heals;
  ]
