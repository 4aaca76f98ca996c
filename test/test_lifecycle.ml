(* The per-instance update lifecycle (lib/fleet/lifecycle): how one DSU
   attempt changes one fleet member, for the rollout orchestrator and the
   gossip node alike.

   - golden transcripts: four fixed (plan, seed) scenarios — retries
     under an injected GC fault, a canary fenced by a guard trip, a
     mid-update kill healed by the supervisor, and a gossip fence wave —
     replay to the exact event transcript recorded for them.  Ticks,
     names and Int/Str fields only: Float fields carry wall-clock time.
   - one directed case per verdict: landed (guarded and not), reverted
     by the guard, clean abort, abort without rollback, killed VM.
   - one build per hop: a healed rollout shares one compiled program per
     version and one prepared hop across every instance. *)

module A = Jv_apps
module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core
module VM = Jv_vm
module Obs = Jv_obs.Obs
module Faults = Jv_faults.Faults

let fleet_config =
  { VM.State.default_config with VM.State.heap_words = 1 lsl 18 }

let boot ?(size = 4) ?(version = "5.1.1") ?(concurrency = 4) () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
      ~profile:A.App.miniweb ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency ~request_timeout:40 fleet);
  F.Fleet.run fleet ~rounds:60;
  fleet

let plan ~seed spec =
  match Faults.parse ~seed spec with Ok p -> p | Error e -> failwith e

(* --- golden transcripts -------------------------------------------------- *)

let event_line (ev : Obs.event) =
  let field (k, v) =
    match v with
    | Obs.Int i -> Some (k ^ "=" ^ string_of_int i)
    | Obs.Str s -> Some (k ^ "=" ^ s)
    | Obs.Float _ -> None
  in
  String.concat " "
    (Printf.sprintf "[%d] %s" ev.Obs.ev_tick ev.Obs.ev_name
    :: List.filter_map field ev.Obs.ev_fields)

let transcript ~scope fleet =
  List.filter_map
    (fun (ev : Obs.event) ->
      if ev.Obs.ev_scope = scope then Some (event_line ev) else None)
    (Obs.events (F.Fleet.obs fleet))

let check_golden fleet ~golden lines =
  Alcotest.(check int)
    "no event dropped: the transcript is complete" 0
    (Obs.dropped_events (F.Fleet.obs fleet));
  Alcotest.(check (list string)) "golden transcript" golden lines

let result_line r = Fmt.str "%a" F.Orchestrator.pp_result r

let golden_retries =
  [
    {|[90] rollout.start from=5.1.1 to=5.1.2 size=6 mode=rolling(batch=2)|};
    {|[91] wave.start instances=0,1|};
    {|[91] drain.begin instances=0,1 timeout=300|};
    {|[92] drain.done instances=0,1 ticks=1 timed_out=false in_flight=0|};
    {|[92] update.begin instances=0,1 direction=forward|};
    {|[93] update.done instance=0 outcome=applied ticks=1 waited_rounds=1|};
    {|[93] update.done instance=1 outcome=applied ticks=1 waited_rounds=1|};
    {|[93] probe.begin instances=0,1 required=2|};
    {|[95] probe.healthy instance=1 latency=2|};
    {|[95] probe.healthy instance=0 latency=2|};
    {|[97] probe.healthy instance=1 latency=2|};
    {|[97] probe.healthy instance=0 latency=2|};
    {|[97] readmit instances=0,1 wave_ticks=6|};
    {|[97] wave.start instances=2,3|};
    {|[97] drain.begin instances=2,3 timeout=300|};
    {|[104] drain.done instances=2,3 ticks=7 timed_out=false in_flight=0|};
    {|[104] update.begin instances=2,3 direction=forward|};
    {|[105] update.done instance=2 outcome=applied ticks=1 waited_rounds=1|};
    {|[105] update.done instance=3 outcome=applied ticks=1 waited_rounds=1|};
    {|[105] probe.begin instances=2,3 required=2|};
    {|[107] probe.healthy instance=3 latency=2|};
    {|[107] probe.healthy instance=2 latency=2|};
    {|[109] probe.healthy instance=3 latency=2|};
    {|[109] probe.healthy instance=2 latency=2|};
    {|[109] readmit instances=2,3 wave_ticks=12|};
    {|[109] wave.start instances=4,5|};
    {|[109] drain.begin instances=4,5 timeout=300|};
    {|[116] drain.done instances=4,5 ticks=7 timed_out=false in_flight=0|};
    {|[116] update.begin instances=4,5 direction=forward|};
    {|[117] update.done instance=4 outcome=applied ticks=1 waited_rounds=1|};
    {|[117] update.done instance=5 outcome=aborted ticks=1 waited_rounds=1|};
    {|[117] update.retry instance=5 attempt=1 backoff=20 reason=[gc] injected fault at updater.gc (rolled back)|};
    {|[117] probe.begin instances=4 required=2|};
    {|[119] probe.healthy instance=4 latency=2|};
    {|[121] probe.healthy instance=4 latency=2|};
    {|[121] readmit instances=4,5 wave_ticks=12|};
    {|[121] backoff.wait instances=5 until=137|};
    {|[137] wave.start instances=5|};
    {|[137] drain.begin instances=5 timeout=300|};
    {|[146] drain.done instances=5 ticks=9 timed_out=false in_flight=0|};
    {|[146] update.begin instances=5 direction=forward|};
    {|[147] update.done instance=5 outcome=aborted ticks=1 waited_rounds=1|};
    {|[147] rollback.begin why=update aborted on instance 5 instances=0,1,2,3,4 in_vm_reverts=|};
    {|[147] wave.start instances=0,1,2,3,4|};
    {|[147] update.begin instances=0,1,2,3,4 direction=rollback|};
    {|[148] update.done instance=0 outcome=aborted ticks=1 waited_rounds=1|};
    {|[148] instance.quarantine instance=0 why=[gc] injected fault at updater.gc (rolled back)|};
    {|[148] update.done instance=1 outcome=applied ticks=1 waited_rounds=1|};
    {|[148] update.done instance=2 outcome=applied ticks=1 waited_rounds=1|};
    {|[148] update.done instance=3 outcome=applied ticks=1 waited_rounds=1|};
    {|[148] update.done instance=4 outcome=applied ticks=1 waited_rounds=1|};
    {|[148] probe.begin instances=1,2,3,4 required=2|};
    {|[150] probe.healthy instance=4 latency=2|};
    {|[150] probe.healthy instance=3 latency=2|};
    {|[150] probe.healthy instance=2 latency=2|};
    {|[150] probe.healthy instance=1 latency=2|};
    {|[152] probe.healthy instance=4 latency=2|};
    {|[152] probe.healthy instance=3 latency=2|};
    {|[152] probe.healthy instance=2 latency=2|};
    {|[152] probe.healthy instance=1 latency=2|};
    {|[152] readmit instances=1,2,3,4 wave_ticks=5|};
    {|[152] rollout.done ok=false rounds=62 mixed_window=55 updated=1 rolled_back=4 quarantined=1 retries=1|};
    {|ROLLOUT HALTED: 1 updated, 4 rolled back, 2 aborted, 0 unhealthy (update aborted on instance 5) | 62 rounds, mixed-version window 55 rounds, 1 retries, 1 quarantined, ROLLBACK FAILED on 1 instance(s)|};
  ]

(* Six instances, two per wave, every update transaction exposed to a
   30% injected GC failure: clean aborts back off and retry once, and an
   instance whose retry also aborts halts the rollout. *)
let test_golden_retries () =
  let fleet = boot ~size:6 () in
  F.Fleet.set_faults fleet (Some (plan ~seed:11 "updater.gc=raise@0.3"));
  let params =
    {
      (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 2 }))
      with
      F.Orchestrator.update_timeout = 200;
      max_retries = 1;
      backoff_base = 20;
    }
  in
  let r = F.Orchestrator.run ~params ~fleet ~to_version:"5.1.2" () in
  check_golden fleet ~golden:golden_retries
    (transcript ~scope:"fleet.rollout" fleet @ [ result_line r ])

let golden_canary_fence =
  [
    {|[90] rollout.start from=5.1.10 to=5.1.11 size=4 mode=canary(1, observe=120)|};
    {|[91] wave.start instances=0|};
    {|[91] drain.begin instances=0 timeout=300|};
    {|[93] drain.done instances=0 ticks=2 timed_out=false in_flight=0|};
    {|[93] update.begin instances=0 direction=forward|};
    {|[94] update.done instance=0 outcome=applied ticks=1 waited_rounds=1|};
    {|[94] probe.begin instances=0 required=2|};
    {|[96] probe.healthy instance=0 latency=2|};
    {|[98] probe.healthy instance=0 latency=2|};
    {|[98] readmit instances=0 wave_ticks=7|};
    {|[98] observe.begin canaries=0 rounds=120|};
    {|[113] guard.reverted instance=0 why=guard tripped on app-errors at window round 19 (3 app error(s), budget 2; traps 0, app errors 3, probe failures 0, p99 0.0 vs baseline 0.0)|};
    {|[113] rollback.begin why=guard tripped on instance 0: guard tripped on app-errors at window round 19 (3 app error(s), budget 2; traps 0, app errors 3, probe failures 0, p99 0.0 vs baseline 0.0) instances= in_vm_reverts=|};
    {|[113] rollout.done ok=false rounds=23 mixed_window=19 updated=0 rolled_back=1 quarantined=0 retries=0|};
    {|ROLLOUT HALTED: 0 updated, 1 rolled back, 0 aborted, 0 unhealthy (guard tripped on instance 0: guard tripped on app-errors at window round 19 (3 app error(s), budget 2; traps 0, app errors 3, probe failures 0, p99 0.0 vs baseline 0.0)) | 23 rounds, mixed-version window 19 rounds, 1 guard trip(s)|};
  ]

(* miniweb 5.1.11 answers app requests with errors: the guarded canary
   trips its error budget, reverts itself in-VM, and fences the rollout
   before anything is promoted. *)
let test_golden_canary_fence () =
  let fleet = boot ~size:4 ~version:"5.1.10" () in
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Canary
            { canaries = 1; observe_rounds = 120; promote_batch = 1 }))
      with
      F.Orchestrator.update_timeout = 200;
      guard = Some (J.Guard.config ());
    }
  in
  let r =
    F.Orchestrator.run ~params ~fleet ~to_version:Jv_apps.Miniweb.bad_update ()
  in
  check_golden fleet ~golden:golden_canary_fence
    (transcript ~scope:"fleet.rollout" fleet @ [ result_line r ])

let golden_kill_heal =
  [
    {|[90] rollout.start from=5.1.1 to=5.1.2 size=3 mode=rolling(batch=1)|};
    {|[91] wave.start instances=0|};
    {|[91] drain.begin instances=0 timeout=300|};
    {|[94] drain.done instances=0 ticks=3 timed_out=false in_flight=0|};
    {|[94] update.begin instances=0 direction=forward|};
    {|[95] update.done instance=0 outcome=pending ticks=1 waited_rounds=0|};
    {|[95] instance.quarantine instance=0 why=still pending|};
    {|[95] wave.start instances=1|};
    {|[95] drain.begin instances=1 timeout=300|};
    {|[95] instance.down instance=0 why=fault injected: vm.crash|};
    {|[95] restart.scheduled instance=0 attempt=1 backoff=20|};
    {|[105] drain.done instances=1 ticks=10 timed_out=false in_flight=0|};
    {|[105] update.begin instances=1 direction=forward|};
    {|[106] update.done instance=1 outcome=applied ticks=1 waited_rounds=1|};
    {|[106] probe.begin instances=1 required=2|};
    {|[108] probe.healthy instance=1 latency=2|};
    {|[110] probe.healthy instance=1 latency=2|};
    {|[110] readmit instances=1 wave_ticks=15|};
    {|[110] wave.start instances=2|};
    {|[110] drain.begin instances=2 timeout=300|};
    {|[115] instance.restart instance=0 attempt=1|};
    {|[116] drain.done instances=2 ticks=6 timed_out=false in_flight=0|};
    {|[116] update.begin instances=2 direction=forward|};
    {|[117] update.done instance=2 outcome=applied ticks=1 waited_rounds=1|};
    {|[117] probe.begin instances=2 required=2|};
    {|[119] probe.healthy instance=2 latency=2|};
    {|[119] instance.readmit instance=0 mttr_rounds=24|};
    {|[121] probe.healthy instance=2 latency=2|};
    {|[121] readmit instances=2 wave_ticks=11|};
    {|[121] rollout.done ok=true rounds=31 mixed_window=11 updated=2 rolled_back=0 quarantined=1 retries=0|};
    {|ROLLOUT OK: 2 updated, 0 rolled back, 1 aborted, 0 unhealthy | 31 rounds, mixed-version window 11 rounds, 1 recovered|};
  ]

(* Instance 0 dies with its update transaction pending: the rollout
   quarantines the corpse and finishes on the survivors, and the
   supervisor restarts, catches up and readmits it. *)
let test_golden_kill_heal () =
  let fleet = boot ~size:3 () in
  let params =
    {
      (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 1 }))
      with
      F.Orchestrator.update_timeout = 250;
      max_retries = 1;
      backoff_base = 20;
      on_exhausted = `Quarantine;
    }
  in
  let sup =
    F.Supervisor.create
      ~params:
        {
          F.Supervisor.default_params with
          F.Supervisor.s_backoff_base = 20;
          s_snapshot_every = 40;
        }
      ~fleet ()
  in
  (* instance 0 dies with its update transaction pending *)
  let r =
    F.Orchestrator.run ~supervisor:sup
      ~on_round:
        (Helpers.kill_when fleet (fun () ->
             (F.Fleet.instance fleet 0).F.Instance.i_status
             = F.Instance.Updating))
      ~params ~fleet ~to_version:"5.1.2" ()
  in
  check_golden fleet ~golden:golden_kill_heal
    (transcript ~scope:"fleet.rollout" fleet @ [ result_line r ])

let golden_gossip_fence =
  [
    {|[90] propose origin=1 epoch=1 to=5.1.11 id=254e02460e4ed46260d312c10d81c12a|};
    {|node 0: epoch 0 idle 5.1.10/in-service applies=1 trips=1 reverts=0 fences=1|};
    {|node 1: epoch 0 idle 5.1.10/in-service applies=0 trips=0 reverts=0 fences=1|};
    {|node 2: epoch 0 idle 5.1.10/in-service applies=1 trips=1 reverts=0 fences=0|};
    {|node 3: epoch 0 idle 5.1.10/in-service applies=1 trips=1 reverts=0 fences=1|};
    {|CONVERGED in 22 rounds: epoch 0, 0 applied, 0 stuck | FENCED (3 guard trip(s), 0 inverse updates) | mixed window 10 rounds | 144 pushes, 0 reconciliations, 21 votes seen, 11 KiB gossiped|};
    {|trips 3, reverts 0, votes seen 21|};
  ]

(* Four gossip nodes take miniweb 5.1.11 under guard: the first trip
   vote fences the proposal, appliers revert (in-VM or by the inverse
   spec) and the fleet converges back on epoch 0.  Each node that
   tripped keeps its guard verdict as one trip vote event on its own
   VM's sink; no pool holds it. *)
let test_golden_gossip_fence () =
  let fleet = boot ~size:4 ~version:"5.1.10" () in
  let params =
    {
      G.Gossip.default_params with
      G.Gossip.g_digest_every = 8;
      g_apply_jitter = 4;
      g_drain_timeout = 60;
      g_update_timeout = 200;
      g_guard = Some (J.Guard.config ());
    }
  in
  let g = G.Gossip.create ~params ~fleet () in
  ignore (G.Gossip.propose g ~origin:1 ~to_version:Jv_apps.Miniweb.bad_update);
  let rounds = G.Gossip.run g ~max_rounds:8_000 () in
  let r = G.Gossip.report g ~rounds in
  let node id =
    let n = G.Gossip.node g id in
    let i = F.Fleet.instance fleet id in
    let c name = Obs.counter_value (VM.Vm.obs i.F.Instance.i_vm) name in
    Printf.sprintf
      "node %d: epoch %d %s %s/%s applies=%d trips=%d reverts=%d fences=%d"
      id (G.Node.epoch n)
      (G.Node.phase_to_string (G.Node.phase n))
      i.F.Instance.i_version
      (F.Instance.status_to_string i.F.Instance.i_status)
      (c "gossip.applies") (c "gossip.guard_trips") (c "gossip.reverts")
      (c "gossip.fences_enforced")
  in
  check_golden fleet ~golden:golden_gossip_fence
    (transcript ~scope:"gossip" fleet
    @ List.init (G.Gossip.size g) node
    @ [
        Fmt.str "%a" G.Gossip.pp_report r;
        Printf.sprintf "trips %d, reverts %d, votes seen %d"
          r.G.Gossip.gr_guard_trips r.G.Gossip.gr_reverts
          r.G.Gossip.gr_votes_seen;
      ]);
  let keys =
    List.concat
      (List.init (G.Gossip.size g) (fun id ->
           let pool = G.Node.pool (G.Gossip.node g id) in
           G.Mempool.with_lock pool (fun () -> G.Mempool.keys pool)))
  in
  List.iter
    (fun id ->
      let vm_obs = VM.Vm.obs (F.Fleet.instance fleet id).F.Instance.i_vm in
      if Obs.counter_value vm_obs "gossip.guard_trips" > 0 then begin
        let trips =
          List.filter_map
            (fun (ev : Obs.event) ->
              match ev.Obs.ev_fields with
              | [ ("prop", _); ("stance", Obs.Str "trip"); ("why", Obs.Str why) ]
                when ev.Obs.ev_scope = "gossip" && ev.Obs.ev_name = "vote" ->
                  Some why
              | _ -> None)
            (Obs.events vm_obs)
        in
        match trips with
        | [ why ] ->
            Alcotest.(check bool)
              (Printf.sprintf "node %d's trip vote carries the verdict" id)
              true
              (Helpers.contains why "guard tripped on");
            Alcotest.(check bool)
              (Printf.sprintf "no pool key holds node %d's verdict" id)
              false
              (List.exists (fun k -> Helpers.contains k why) keys)
        | _ ->
            Alcotest.failf "node %d holds %d trip vote events, not 1" id
              (List.length trips)
      end)
    (List.init (G.Gossip.size g) Fun.id)

(* --- one directed case per verdict ---------------------------------------- *)

module L = F.Lifecycle

let show = function
  | None -> "pending"
  | Some (L.Landed { guarded }) -> Printf.sprintf "landed(guarded=%b)" guarded
  | Some (L.Reverted _) -> "reverted"
  | Some (L.Aborted { trusted; _ }) ->
      Printf.sprintf "aborted(trusted=%b)" trusted
  | Some L.Killed -> "killed"

(* one idle miniweb instance on 5.1.1, no load *)
let one () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~profile:A.App.miniweb
      ~version:"5.1.1" ~size:1 ()
  in
  F.Fleet.run fleet ~rounds:30;
  (fleet, F.Fleet.instance fleet 0)

(* traffic budgets disabled: only a forced trip can revert *)
let quiet_guard fleet i =
  L.guard_for ~probe_deadline:80 (F.Fleet.profile fleet) i
    (Some
       (J.Guard.config
          ~budget:
            {
              J.Guard.default_budget with
              J.Guard.b_rounds = 40;
              b_max_app_errors = max_int;
              b_latency_factor = 1e9;
            }
          ()))

let request ?guard ?(inverse = false) (i : F.Instance.t) hop =
  match L.request ?guard ~timeout_rounds:200 ~inverse i hop with
  | Ok a -> a
  | Error e -> Alcotest.failf "prepare failed: %s" e

let hop_to_512 fleet =
  F.Fleet.hop fleet ~from_version:"5.1.1" ~to_version:"5.1.2"

let run_until fleet pred =
  let n = ref 0 in
  while not (pred ()) do
    F.Fleet.round fleet;
    incr n;
    if !n > 2_000 then Alcotest.fail "condition never reached"
  done

let resolve fleet a =
  run_until fleet (fun () -> L.settled a);
  L.resolve (F.Fleet.lb fleet) a

let check_instance fleet (i : F.Instance.t) ~version ~status ~admitted =
  Alcotest.(check string) "version" version i.F.Instance.i_version;
  Alcotest.(check string) "status"
    (F.Instance.status_to_string status)
    (F.Instance.status_to_string i.F.Instance.i_status);
  Alcotest.(check bool) "admitted" admitted
    (F.Lb.admitting (F.Fleet.lb fleet) ~id:i.F.Instance.i_id)

let test_landed_unguarded () =
  let fleet, i = one () in
  let hop = hop_to_512 fleet in
  let a = request i hop in
  Alcotest.(check string) "verdict" "landed(guarded=false)" (show (resolve fleet a));
  (* landing moves version and program; readmission is the caller's *)
  check_instance fleet i ~version:"5.1.2" ~status:F.Instance.Updating
    ~admitted:true;
  Alcotest.(check bool) "running the new program" true
    (i.F.Instance.i_program == hop.L.spec.J.Spec.new_program);
  (* and the inverse attempt lands it back *)
  let back = request ~inverse:true i hop in
  Alcotest.(check string) "inverse verdict" "landed(guarded=false)"
    (show (resolve fleet back));
  check_instance fleet i ~version:"5.1.1" ~status:F.Instance.Rolling_back
    ~admitted:true

let test_landed_guarded () =
  let fleet, i = one () in
  let a = request ?guard:(quiet_guard fleet i) i (hop_to_512 fleet) in
  Alcotest.(check string) "verdict" "landed(guarded=true)" (show (resolve fleet a));
  Alcotest.(check string) "window open" "pending"
    (show (L.watch (F.Fleet.lb fleet) a));
  run_until fleet (fun () -> not (J.Jvolve.guard_active a.L.a_handle));
  Alcotest.(check string) "window closed clean" "landed(guarded=false)"
    (show (L.watch (F.Fleet.lb fleet) a));
  check_instance fleet i ~version:"5.1.2" ~status:F.Instance.Updating
    ~admitted:true

let test_reverted () =
  let fleet, i = one () in
  let lb = F.Fleet.lb fleet in
  L.drain lb i;
  let a = request ?guard:(quiet_guard fleet i) i (hop_to_512 fleet) in
  Alcotest.(check string) "landed" "landed(guarded=true)" (show (resolve fleet a));
  J.Jvolve.force_trip i.F.Instance.i_vm a.L.a_handle ~reason:"directed trip";
  run_until fleet (fun () -> not (J.Jvolve.guard_active a.L.a_handle));
  Alcotest.(check string) "verdict" "reverted" (show (L.watch lb a));
  (* back on the old version, serving again *)
  check_instance fleet i ~version:"5.1.1" ~status:F.Instance.In_service
    ~admitted:true

let test_aborted_clean () =
  let fleet, i = one () in
  L.drain (F.Fleet.lb fleet) i;
  F.Fleet.set_faults fleet (Some (plan ~seed:1 "updater.gc=raise@1.0x1"));
  let a = request i (hop_to_512 fleet) in
  Alcotest.(check string) "verdict" "aborted(trusted=true)"
    (show (resolve fleet a));
  (* rolled back cleanly: serving the old version, free to retry *)
  check_instance fleet i ~version:"5.1.1" ~status:F.Instance.In_service
    ~admitted:true

let test_aborted_not_rolled_back () =
  let fleet, i = one () in
  F.Fleet.set_faults fleet (Some (plan ~seed:1 "updater.gc=raise@1.0x1"));
  let a = request i (hop_to_512 fleet) in
  run_until fleet (fun () -> L.settled a);
  (* a rollback that failed its audit reports the same abort, untrusted *)
  (match a.L.a_handle.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted ab ->
      a.L.a_handle.J.Jvolve.h_outcome <-
        J.Jvolve.Aborted { ab with J.Updater.a_rolled_back = false }
  | _ -> Alcotest.fail "expected an abort");
  Alcotest.(check string) "verdict" "aborted(trusted=false)"
    (show (L.resolve (F.Fleet.lb fleet) a));
  check_instance fleet i ~version:"5.1.1" ~status:F.Instance.Out_of_service
    ~admitted:false

let test_killed () =
  let fleet, i = one () in
  let a = request i (hop_to_512 fleet) in
  F.Fleet.set_faults fleet (Some (plan ~seed:1 "vm.crash=kill@1.0x1"));
  Alcotest.(check string) "verdict" "killed" (show (resolve fleet a));
  Alcotest.(check bool) "still pending on the corpse" false
    (J.Jvolve.resolved a.L.a_handle);
  check_instance fleet i ~version:"5.1.1" ~status:F.Instance.Out_of_service
    ~admitted:false

(* --- one build per hop ------------------------------------------------------ *)

(* A 16-instance rolling rollout with one kill the supervisor heals: the
   restarted instance boots and catches up from the same builds the
   rollout used.  Every instance on a version holds the fleet's one
   compiled list, the fleet compiled each version once and built the one
   hop once. *)
let test_one_build_per_hop () =
  let fleet = boot ~size:16 () in
  let params =
    {
      (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 4 }))
      with
      F.Orchestrator.update_timeout = 250;
      max_retries = 1;
      backoff_base = 20;
      on_exhausted = `Quarantine;
    }
  in
  let sup =
    F.Supervisor.create
      ~params:
        {
          F.Supervisor.default_params with
          F.Supervisor.s_backoff_base = 20;
          s_snapshot_every = 40;
        }
      ~fleet ()
  in
  (* instance 0 dies with its update transaction pending *)
  let r =
    F.Orchestrator.run ~supervisor:sup
      ~on_round:
        (Helpers.kill_when fleet (fun () ->
             (F.Fleet.instance fleet 0).F.Instance.i_status
             = F.Instance.Updating))
      ~params ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "a kill was healed" true (F.Supervisor.restarts sup >= 1);
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  Alcotest.(check (option string)) "fleet on the new version" (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  let shared = F.Fleet.program fleet ~version:"5.1.2" in
  List.iter
    (fun (i : F.Instance.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d runs the shared program" i.F.Instance.i_id)
        true
        (i.F.Instance.i_program == shared))
    (F.Fleet.instances fleet);
  let counter name = Obs.counter_value (F.Fleet.obs fleet) name in
  Alcotest.(check int) "one build per hop" 1 (counter "fleet.update_builds");
  Alcotest.(check int) "one compile per version" 2 (counter "fleet.compiles")

(* An instance that landed its own build (a [mutate_spec] override whose
   new program is a separate compile of 5.1.2) gets its own build of the
   next hop too, diffed against the program it runs. *)
let test_override_keeps_own_build () =
  let fleet = boot ~size:2 () in
  let params =
    {
      (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 2 }))
      with
      F.Orchestrator.update_timeout = 250;
    }
  in
  let own_512 = A.App.compile (F.Fleet.profile fleet) ~version:"5.1.2" in
  let mutate_spec id (spec : J.Spec.t) =
    if id = 0 then
      J.Spec.make ~version_tag:spec.J.Spec.version_tag
        ~old_program:spec.J.Spec.old_program ~new_program:own_512 ()
    else spec
  in
  let run ?mutate_spec to_version =
    let r =
      F.Orchestrator.run ?mutate_spec ~params ~fleet ~to_version ()
    in
    Alcotest.(check bool) ("rollout to " ^ to_version) true r.F.Orchestrator.r_ok
  in
  run ~mutate_spec "5.1.2";
  let i0 = F.Fleet.instance fleet 0 in
  Alcotest.(check bool) "instance 0 runs its own build" true
    (i0.F.Instance.i_program == own_512);
  run "5.1.3";
  Alcotest.(check (option string)) "fleet on 5.1.3" (Some "5.1.3")
    (F.Fleet.uniform_version fleet);
  (* 5.1.1->5.1.2 shared and instance 0's; 5.1.2->5.1.3 shared and
     instance 0's *)
  Alcotest.(check int) "builds" 4
    (Obs.counter_value (F.Fleet.obs fleet) "fleet.update_builds")

let suite =
  [
    Alcotest.test_case "verdict: landed, unguarded (and its inverse)" `Quick
      test_landed_unguarded;
    Alcotest.test_case "verdict: landed, guarded until a clean close" `Quick
      test_landed_guarded;
    Alcotest.test_case "verdict: reverted by a guard trip" `Quick test_reverted;
    Alcotest.test_case "verdict: clean abort, retryable" `Quick
      test_aborted_clean;
    Alcotest.test_case "verdict: abort without rollback, untrusted" `Quick
      test_aborted_not_rolled_back;
    Alcotest.test_case "verdict: killed with the attempt pending" `Quick
      test_killed;
    Alcotest.test_case "one build per hop across a healed rollout" `Quick
      test_one_build_per_hop;
    Alcotest.test_case "an instance on its own build gets its own next hop"
      `Quick test_override_keeps_own_build;
    Alcotest.test_case "golden: retries under injected GC faults" `Quick
      test_golden_retries;
    Alcotest.test_case "golden: canary fenced by a guard trip" `Quick
      test_golden_canary_fence;
    Alcotest.test_case "golden: mid-update kill healed by the supervisor"
      `Quick test_golden_kill_heal;
    Alcotest.test_case "golden: gossip fence wave" `Quick
      test_golden_gossip_fence;
  ]
