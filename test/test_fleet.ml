(* Fleet orchestration: rolling and canary DSU rollouts across a
   load-balanced multi-VM cluster, with health checks and automatic
   rollback (lib/fleet). *)

module F = Jv_fleet
module J = Jvolve_core
module Apps = Jv_apps

(* small per-instance heap: fleets boot several VMs per test *)
let fleet_config =
  { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 18 }

let boot_under_load ?(policy = F.Lb.Round_robin) ?(size = 4)
    ?(version = "5.1.1") ?(profile = Apps.App.miniweb) () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy ~profile ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:6 fleet);
  F.Fleet.run fleet ~rounds:100;
  fleet

let rolling_params ?(update_timeout = 200) ?(batch_size = 1) () =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size })) with
    F.Orchestrator.update_timeout;
  }

(* No proxied connection left behind: once the drivers are detached and
   the routes settle, every balancer backend must be back to zero live
   connections. *)
let check_no_leaked_conns fleet =
  F.Fleet.detach_loads fleet;
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check int)
    "no leaked balancer connections" 0
    (F.Lb.total_in_flight (F.Fleet.lb fleet))

let blacklist_accept_loop =
  [
    {
      J.Diff.r_class = "ThreadedServer";
      r_name = "run";
      r_sig = { Jv_classfile.Types.params = []; ret = Jv_classfile.Types.TVoid };
    };
  ]

(* --- rolling ----------------------------------------------------------- *)

let test_rolling_happy_path () =
  let fleet = boot_under_load ~size:4 () in
  let r =
    F.Orchestrator.run ~params:(rolling_params ()) ~fleet ~to_version:"5.1.2"
      ()
  in
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  Alcotest.(check (list int)) "all updated" [ 0; 1; 2; 3 ]
    r.F.Orchestrator.r_updated;
  Alcotest.(check (option string)) "uniform on new version" (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet);
  Alcotest.(check bool) "served traffic" true (F.Fleet.total_requests fleet > 0);
  Alcotest.(check bool) "mixed window bounded by rollout" true
    (r.F.Orchestrator.r_mixed_window <= r.F.Orchestrator.r_rounds);
  check_no_leaked_conns fleet

let test_rolling_least_conns_batch2 () =
  let fleet = boot_under_load ~policy:F.Lb.Least_conns ~size:5 () in
  let r =
    F.Orchestrator.run
      ~params:(rolling_params ~batch_size:2 ())
      ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  Alcotest.(check (option string)) "uniform on new version" (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet);
  check_no_leaked_conns fleet

(* --- canary ------------------------------------------------------------ *)

let test_canary_promotion () =
  let fleet = boot_under_load ~size:4 ~version:"5.1.1" () in
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Canary
            { canaries = 1; observe_rounds = 150; promote_batch = 1 }))
      with
      F.Orchestrator.update_timeout = 200;
    }
  in
  let r = F.Orchestrator.run ~params ~fleet ~to_version:"5.1.2" () in
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  Alcotest.(check (option string)) "promoted everywhere" (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet);
  (* the observation window dominates the rollout *)
  Alcotest.(check bool) "observed before promoting" true
    (r.F.Orchestrator.r_rounds >= 150);
  check_no_leaked_conns fleet

(* --- rollback ---------------------------------------------------------- *)

(* An update abort mid-rollout (instance 2's safe point never arrives:
   its accept loop is blacklisted) halts the rollout and reverts the
   instances already updated. *)
let test_rollback_on_update_abort () =
  let fleet = boot_under_load ~size:4 () in
  let mutate_spec id spec =
    if id = 2 then { spec with J.Spec.blacklist = blacklist_accept_loop }
    else spec
  in
  let r =
    F.Orchestrator.run ~mutate_spec
      ~params:(rolling_params ~update_timeout:120 ())
      ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "rollout halted" false r.F.Orchestrator.r_ok;
  Alcotest.(check bool) "halt reason recorded" true
    (r.F.Orchestrator.r_halted <> None);
  Alcotest.(check (list int)) "aborted on the poisoned instance" [ 2 ]
    (List.map fst r.F.Orchestrator.r_aborted);
  Alcotest.(check (list int)) "earlier instances reverted" [ 0; 1 ]
    r.F.Orchestrator.r_rolled_back;
  Alcotest.(check (list int)) "nobody left updated" []
    r.F.Orchestrator.r_updated;
  Alcotest.(check (option string)) "fleet back on the old version"
    (Some "5.1.1")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet);
  check_no_leaked_conns fleet

(* A new version that applies cleanly but answers the health probe with
   an error never rejoins the pool: the failed probe rolls it back. *)
let test_rollback_on_failed_health_check () =
  let profile = Apps.App.miniweb in
  let fleet = boot_under_load ~profile ~size:3 () in
  let sick_program =
    let src = Apps.App.source profile ~version:"5.1.2" in
    let healthy = {|new HttpResponse(200, "OK", "text/plain", "healthy")|} in
    let sick = {|new HttpResponse(503, "Unavailable", "text/plain", "sick")|} in
    Jv_lang.Compile.compile_program
      (Apps.Patching.replace_once src ~old_frag:healthy ~new_frag:sick)
  in
  let mutate_spec id spec =
    if id = 0 then
      J.Spec.make
        ~version_tag:spec.J.Spec.version_tag
        ~old_program:spec.J.Spec.old_program ~new_program:sick_program ()
    else spec
  in
  let params =
    {
      (rolling_params ~update_timeout:200 ()) with
      F.Orchestrator.probe_deadline = 40;
    }
  in
  let r =
    F.Orchestrator.run ~mutate_spec ~params ~fleet ~to_version:"5.1.2" ()
  in
  Alcotest.(check bool) "rollout halted" false r.F.Orchestrator.r_ok;
  Alcotest.(check (list int)) "sick instance flagged unhealthy" [ 0 ]
    (List.map fst r.F.Orchestrator.r_unhealthy);
  Alcotest.(check (list int)) "sick instance rolled back" [ 0 ]
    r.F.Orchestrator.r_rolled_back;
  Alcotest.(check (option string)) "fleet back on the old version"
    (Some "5.1.1")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no instance out of service" 0
    (List.length r.F.Orchestrator.r_rollback_failed);
  check_no_leaked_conns fleet

(* --- health probes across apps ----------------------------------------- *)

(* The descriptor promises every release answers its probe, so every
   version of every app is booted and probed. *)
let test_health_probes_all_apps () =
  let probe (app : Apps.App.t) version =
    let fleet =
      F.Fleet.create ~config:fleet_config ~profile:app ~version ~size:1 ()
    in
    F.Fleet.run fleet ~rounds:30;
    let inst = F.Fleet.instance fleet 0 in
    let probe =
      F.Health.start
        ~net:(F.Instance.net inst)
        ~port:inst.F.Instance.i_port ~line:app.Apps.App.pr_health_probe
        ~ok:app.Apps.App.pr_health_ok ~now:(F.Fleet.ticks fleet)
        ~deadline_rounds:60
    in
    let rec drive n =
      F.Fleet.round fleet;
      F.Health.step probe ~now:(F.Fleet.ticks fleet);
      match F.Health.outcome probe with
      | F.Health.Pending when n > 0 -> drive (n - 1)
      | o -> o
    in
    match drive 80 with
    | F.Health.Healthy _ -> None
    | F.Health.Pending ->
        Some
          (Printf.sprintf "%s %s: probe still pending" app.Apps.App.pr_name
             version)
    | F.Health.Unhealthy why ->
        Some
          (Printf.sprintf "%s %s: probe unhealthy: %s" app.Apps.App.pr_name
             version why)
  in
  match
    List.concat_map
      (fun app -> List.filter_map (probe app) (Apps.App.versions app))
      Apps.App.all
  with
  | [] -> ()
  | failures -> Alcotest.fail (String.concat "; " failures)

(* --- lossy links must not wedge the closed-loop driver ------------------ *)

(* With [net.link=drop] armed on the instance nets, a forwarded request
   (or its response) silently vanishes on the LB-to-backend leg and the
   closed-loop session awaiting it would otherwise hang forever — by the
   time every conn slot has hit a lost line, the driver wedges at zero
   progress and a chaos run never terminates.  The driver's request
   timeout must keep recycling those sessions: progress in every window,
   timeouts actually observed, and nothing leaked once the link heals. *)
let test_driver_survives_lossy_links () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~profile:Apps.App.miniweb
      ~version:"5.1.1" ~size:3 ()
  in
  F.Fleet.run fleet ~rounds:30;
  let d = F.Fleet.attach_load ~concurrency:6 ~request_timeout:40 fleet in
  F.Fleet.run fleet ~rounds:60;
  let chaos =
    match Jv_faults.Faults.parse ~seed:7 "net.link=drop@0.15" with
    | Ok p -> p
    | Error e -> failwith e
  in
  F.Fleet.set_faults fleet (Some chaos);
  let stalled = ref 0 in
  for _ = 1 to 5 do
    let before = d.Jv_simnet.Client.completed_sessions in
    F.Fleet.run fleet ~rounds:150;
    if d.Jv_simnet.Client.completed_sessions = before then incr stalled
  done;
  Alcotest.(check int) "sessions completed in every chaos window" 0 !stalled;
  Alcotest.(check bool) "lost lines were timed out, not awaited forever" true
    (d.Jv_simnet.Client.timed_out_requests > 0);
  (* fault-induced loss is not an update-window sever: the zero-drop SLO
     counter stays untouched by the chaos *)
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet);
  F.Fleet.set_faults fleet None;
  F.Fleet.run fleet ~rounds:60;
  check_no_leaked_conns fleet

(* --- property: completed rollouts converge ----------------------------- *)

(* Whatever the fleet size, policy and batching, a completed rolling
   rollout leaves every instance on the same version and the balancer
   with zero leaked drained connections. *)
let prop_rollout_converges =
  QCheck.Test.make ~name:"completed rollout converges, nothing leaks"
    ~count:6
    QCheck.(
      triple (int_range 2 4) (int_range 1 3) bool)
    (fun (size, batch_size, least_conns) ->
      (* the stock int shrinker can wander outside int_range: clamp *)
      let size = max 2 (min 4 size) in
      let batch_size = max 1 (min 3 batch_size) in
      let policy = if least_conns then F.Lb.Least_conns else F.Lb.Round_robin in
      let fleet = boot_under_load ~policy ~size () in
      let r =
        F.Orchestrator.run
          ~params:(rolling_params ~batch_size ())
          ~fleet ~to_version:"5.1.2" ()
      in
      F.Fleet.run fleet ~rounds:30;
      let uniform = F.Fleet.uniform_version fleet = Some "5.1.2" in
      let dropped = F.Fleet.dropped_in_flight fleet in
      F.Fleet.detach_loads fleet;
      F.Fleet.run fleet ~rounds:30;
      let leaked = F.Lb.total_in_flight (F.Fleet.lb fleet) in
      if not r.F.Orchestrator.r_ok then
        QCheck.Test.fail_reportf "rollout not ok (size %d batch %d)" size
          batch_size;
      if not uniform then
        QCheck.Test.fail_reportf "fleet not uniform on 5.1.2";
      if dropped <> 0 then
        QCheck.Test.fail_reportf "%d dropped in-flight connections" dropped;
      if leaked <> 0 then
        QCheck.Test.fail_reportf "%d leaked balancer connections" leaked;
      true)

(* --- health probe outcomes on a bare net -------------------------------- *)

(* A probe started at tick 0 with [deadline] rounds, stepped once per
   round; a listener run from OCaml binds at tick [listen_at] (never when
   [answer] is absent).  Returns the outcome and the tick it settled. *)
let settle_probe ?banner ?(listen_at = 1) ?(delay = 1) ?answer ~deadline () =
  let net = Jv_simnet.Simnet.create () in
  let port = 7200 in
  let server = ref None in
  let probe =
    F.Health.start ~net ~port ~line:"PING" ~ok:(fun r -> r = "+OK pong")
      ~now:0 ~deadline_rounds:deadline
  in
  let rec go tick =
    (match answer with
    | Some answer when tick = listen_at ->
        server :=
          Some (Helpers.Line_server.create ?banner ~delay net ~port answer)
    | _ -> ());
    Option.iter (fun s -> Helpers.Line_server.serve s ~tick) !server;
    F.Health.step probe ~now:tick;
    match F.Health.outcome probe with
    | F.Health.Pending when tick < 100 -> go (tick + 1)
    | o -> (o, tick)
  in
  go 1

let outcome_str = function
  | F.Health.Pending -> "pending"
  | F.Health.Healthy n -> Printf.sprintf "healthy %d" n
  | F.Health.Unhealthy why -> "unhealthy: " ^ why

let check_probe name (want, want_tick) (o, tick) =
  Alcotest.(check (pair string int))
    name (want, want_tick) (outcome_str o, tick)

let test_health_probe_outcomes () =
  let pong _ _ = `Reply "+OK pong" in
  check_probe "nothing listens"
    ("unhealthy: not accepting connections", 6)
    (settle_probe ~deadline:5 ());
  check_probe "only sick replies"
    ("unhealthy: no healthy response before deadline", 6)
    (settle_probe ~answer:(fun _ _ -> `Reply "-ERR sick") ~deadline:5 ());
  check_probe "server hangs up"
    ("unhealthy: connection closed by server", 2)
    (settle_probe ~answer:(fun _ _ -> `Hang_up) ~deadline:5 ());
  (* latency and deadline both count from the probe's start, not from
     the connect that finally got through *)
  check_probe "late listener, banner first" ("healthy 5", 5)
    (settle_probe ~banner:"* welcome" ~listen_at:3 ~answer:pong ~deadline:8 ());
  check_probe "late listener, reply past the deadline"
    ("unhealthy: no healthy response before deadline", 7)
    (settle_probe ~listen_at:4 ~delay:3 ~answer:pong ~deadline:6 ())

(* --- committed memory ---------------------------------------------------- *)

(* Sixteen instances at the default config under closed-loop load through
   a rolling update: each heap's live set and garbage stay below one
   floor, so every instance commits exactly a floor per semi-space, not
   its 2^19-word cap. *)
let test_heaps_commit_floor () =
  let fleet =
    F.Fleet.create ~profile:Apps.App.miniweb ~version:"5.1.1" ~size:16 ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:8 fleet);
  F.Fleet.run fleet ~rounds:100;
  let r =
    F.Orchestrator.run ~params:(rolling_params ()) ~fleet ~to_version:"5.1.2"
      ()
  in
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  Alcotest.(check (option string)) "uniform on new version" (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check bool) "served traffic" true
    (F.Fleet.total_requests fleet > 16);
  List.iter
    (fun (inst : F.Instance.t) ->
      let stats = Jv_vm.Vm.stats inst.F.Instance.i_vm in
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: collected" inst.F.Instance.i_id)
        true (stats.Jv_vm.Vm.gc_count > 0);
      Alcotest.(check int)
        (Printf.sprintf "instance %d: a floor per space" inst.F.Instance.i_id)
        (2 * Jv_vm.Heap.floor_words)
        stats.Jv_vm.Vm.heap_committed_words)
    (F.Fleet.instances fleet);
  check_no_leaked_conns fleet

let suite =
  [
    Alcotest.test_case "health probe outcomes" `Quick
      test_health_probe_outcomes;
    Alcotest.test_case "sixteen heaps commit a floor each" `Quick
      test_heaps_commit_floor;
    Alcotest.test_case "rolling: happy path, zero drops" `Quick
      test_rolling_happy_path;
    Alcotest.test_case "rolling: least-conns, batch 2" `Quick
      test_rolling_least_conns_batch2;
    Alcotest.test_case "canary: observed then promoted" `Quick
      test_canary_promotion;
    Alcotest.test_case "rollback: update abort mid-rollout" `Quick
      test_rollback_on_update_abort;
    Alcotest.test_case "rollback: failed health check" `Quick
      test_rollback_on_failed_health_check;
    Alcotest.test_case "health probes answer on every app" `Quick
      test_health_probes_all_apps;
    Alcotest.test_case "lossy links do not wedge the driver" `Quick
      test_driver_survives_lossy_links;
    QCheck_alcotest.to_alcotest prop_rollout_converges;
  ]
