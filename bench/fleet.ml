(* Fleet orchestration benchmarks: DSU rollouts across a load-balanced
   multi-VM cluster (lib/fleet).

   Four scenarios:
   - rolling update vs. fleet size (2..16): rollout latency, dropped
     in-flight connections, mixed-version window
   - canary deployment: update K instances, observe against the stable
     pool, promote
   - automatic halt: the always-on-stack 5.1.3 update (paper §5.1.3
     analogue, con-freeness analysis off) aborts on every instance —
     rollout halts, fleet stays on the old version
   - automatic rollback: a mid-rollout abort (injected via a safe-point
     blacklist on one instance) reverts the already-updated instances
     with inverse specs *)

module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics
module Client = Jv_simnet.Client

let sizes = if Support.quick then [ 2; 4 ] else [ 2; 4; 8; 16 ]

let rolling_params =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 1 })) with
    F.Orchestrator.probes_required = 2;
  }

let canary_params ~observe_rounds =
  F.Orchestrator.default_params
    (F.Orchestrator.Canary { canaries = 2; observe_rounds; promote_batch = 1 })

(* Boot the fleet, let every server reach its accept loop, then put it
   under steady scripted load before any rollout starts. *)
let boot_under_load ?config ~profile ~version ~size () =
  let fleet =
    F.Fleet.create ?config ~policy:F.Lb.Round_robin ~profile ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  let _driver = F.Fleet.attach_load ~concurrency:(2 * size) fleet in
  F.Fleet.run fleet ~rounds:120;
  fleet

(* Every figure here is read back from the fleet's jv_obs sink — the
   orchestrator's gauges and the LB's counters — not from bench-local
   bookkeeping.  [r] stays only for the outcome line. *)
let show_result fleet (r : F.Orchestrator.result) ~req0 =
  let obs = F.Fleet.obs fleet in
  let counter = Obs.counter_value obs in
  let gauge name = int_of_float (Obs.gauge_value obs name) in
  let lat =
    match Obs.find_histogram obs "fleet.lb.request_latency_rounds" with
    | Some h when Metrics.count h > 0 ->
        Printf.sprintf " (request latency p50 %.0f p90 %.0f rounds)"
          (Metrics.quantile h 0.5) (Metrics.quantile h 0.9)
    | _ -> ""
  in
  Printf.printf
    "    %-44s %s\n    %-44s %d rounds (mixed-version window %d)\n\
    \    %-44s %d dropped, %d rejected, %d served during rollout%s\n"
    "outcome:"
    (Fmt.str "%a" F.Orchestrator.pp_result r)
    "latency:"
    (gauge "fleet.rollout.last_rounds")
    (gauge "fleet.rollout.last_mixed_window")
    "connections:"
    (counter "fleet.lb.dropped")
    (counter "fleet.lb.rejected")
    (F.Fleet.total_requests fleet - req0)
    lat

let rolling () =
  Support.section
    "FLEET: rolling update (miniweb 5.1.1 -> 5.1.2, batch = 1) vs fleet size";
  List.iter
    (fun size ->
      let fleet =
        boot_under_load ~profile:F.Profile.miniweb ~version:"5.1.1" ~size ()
      in
      let req0 = F.Fleet.total_requests fleet in
      let r =
        F.Orchestrator.run ~params:rolling_params ~fleet ~to_version:"5.1.2" ()
      in
      F.Fleet.run fleet ~rounds:50;
      Printf.printf "  size %2d:\n" size;
      show_result fleet r ~req0;
      F.Fleet.detach_loads fleet)
    sizes

let canary () =
  Support.section
    "FLEET: canary deployment (miniweb 5.1.4 -> 5.1.5, 2 canaries)";
  let size = if Support.quick then 4 else 6 in
  let observe_rounds = if Support.quick then 150 else 300 in
  let fleet = boot_under_load ~profile:F.Profile.miniweb ~version:"5.1.4" ~size () in
  let req0 = F.Fleet.total_requests fleet in
  let r =
    F.Orchestrator.run
      ~params:(canary_params ~observe_rounds)
      ~fleet ~to_version:"5.1.5" ()
  in
  F.Fleet.run fleet ~rounds:50;
  Printf.printf "  size %d, observe %d rounds:\n" size observe_rounds;
  show_result fleet r ~req0;
  F.Fleet.detach_loads fleet

let halt_on_abort () =
  Support.section
    "FLEET: automatic halt (miniweb 5.1.2 -> 5.1.3, always-on-stack update, \
     con-freeness off)";
  let size = 4 in
  (* with con-freeness on (the default) this update is proven compatible
     and applies; the halt demo needs the analysis off *)
  let fleet =
    boot_under_load
      ~config:
        { F.Instance.default_config with Jv_vm.State.confree = false }
      ~profile:F.Profile.miniweb ~version:"5.1.2" ~size ()
  in
  let req0 = F.Fleet.total_requests fleet in
  let params =
    { rolling_params with F.Orchestrator.update_timeout = 150 }
  in
  let r = F.Orchestrator.run ~params ~fleet ~to_version:"5.1.3" () in
  F.Fleet.run fleet ~rounds:50;
  Printf.printf "  size %d:\n" size;
  show_result fleet r ~req0;
  Printf.printf "    %-44s %s\n" "fleet version:"
    (match F.Fleet.uniform_version fleet with
    | Some v -> v ^ " (uniform)"
    | None -> "MIXED");
  F.Fleet.detach_loads fleet

let rollback_mid_rollout () =
  Support.section
    "FLEET: automatic rollback (abort injected on instance 2 mid-rollout)";
  let size = 4 in
  let fleet = boot_under_load ~profile:F.Profile.miniweb ~version:"5.1.1" ~size () in
  let req0 = F.Fleet.total_requests fleet in
  (* instance 2's safe-point check is poisoned with a blacklist on
     ThreadedServer.run (the accept loop — always on stack), so
     instances 0 and 1 update first, then 2 aborts and the orchestrator
     reverts 0 and 1 with inverse specs *)
  let mutate_spec id spec =
    if id <> 2 then spec
    else
      {
        spec with
        J.Spec.blacklist =
          [
            {
              J.Diff.r_class = "ThreadedServer";
              r_name = "run";
              r_sig =
                {
                  Jv_classfile.Types.params = [];
                  ret = Jv_classfile.Types.TVoid;
                };
            };
          ];
      }
  in
  let params = { rolling_params with F.Orchestrator.update_timeout = 150 } in
  let r =
    F.Orchestrator.run ~mutate_spec ~params ~fleet ~to_version:"5.1.2" ()
  in
  F.Fleet.run fleet ~rounds:50;
  Printf.printf "  size %d:\n" size;
  show_result fleet r ~req0;
  Printf.printf "    %-44s %s\n" "fleet version:"
    (match F.Fleet.uniform_version fleet with
    | Some v -> v ^ " (uniform)"
    | None -> "MIXED");
  F.Fleet.detach_loads fleet

(* --- decentralized gossip rollouts (lib/gossip) ------------------------- *)

let gossip_params =
  {
    G.Gossip.default_params with
    G.Gossip.g_apply_jitter = 64 (* spread the post-quorum drain wave *);
  }

(* Per-request latency of the open-loop load, in fleet rounds, on the
   fleet's sink: p50/p99 come from the same DDSketch-style metric the
   rest of the bench reports. *)
let open_loop_histogram = "fleet.openloop.request_rounds"

let open_loop_quantile fleet q =
  match Obs.find_histogram (F.Fleet.obs fleet) open_loop_histogram with
  | None -> 0.0
  | Some h -> Metrics.quantile h q

(* Boot a fleet on [version] and put it under open-loop load at
   [rate] arrivals per round; returns (fleet, open-loop client). *)
let boot_open_loop ~version ~size ~rate =
  let profile = F.Profile.miniweb in
  let fleet =
    F.Fleet.create ~policy:F.Lb.Round_robin ~profile ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  let ol =
    Client.create
      ~net:(F.Lb.front (F.Fleet.lb fleet))
      ~port:F.Fleet.default_lb_port
      ~script:[ List.hd profile.F.Profile.pr_script ]
      ~ok:profile.F.Profile.pr_ok
      ~arrivals:(Client.Open { rate })
      ~on_reply:(fun rounds _ ->
        Obs.observe_int (F.Fleet.obs fleet) open_loop_histogram rounds)
      ()
  in
  for _ = 1 to 120 do
    F.Fleet.round fleet;
    Client.step ol ~now:(F.Fleet.ticks fleet)
  done;
  (fleet, ol)

(* Drive the gossip runtime to convergence, keeping the open-loop
   arrival process running, then let the request tail drain. *)
let gossip_run g ol ~max_rounds =
  let fleet = g.G.Gossip.fleet in
  let rounds =
    G.Gossip.run g
      ~on_round:(fun _ -> Client.step ol ~now:(F.Fleet.ticks fleet))
      ~max_rounds ()
  in
  let _drained =
    Client.drain ol
      ~now:(F.Fleet.ticks fleet)
      ~round:(fun () -> F.Fleet.round fleet)
      ~patience:600
  in
  rounds

let show_gossip_result g ol ~rounds =
  let fleet = g.G.Gossip.fleet in
  let r = G.Gossip.report g ~rounds in
  let dropped =
    ol.Client.dropped_in_flight + F.Lb.dropped (F.Fleet.lb fleet)
  in
  Printf.printf "    %-44s %s\n" "gossip:" (Fmt.str "%a" G.Gossip.pp_report r);
  Printf.printf "    %-44s %s\n" "fleet version:"
    (match F.Fleet.uniform_version fleet with
    | Some v -> v ^ " (uniform)"
    | None -> "MIXED");
  Printf.printf
    "    %-44s %d offered, %d served, %d errors (max %d in flight)\n"
    "open-loop load:" (Client.offered ol) ol.Client.completed_requests
    ol.Client.errors ol.Client.max_in_flight;
  Printf.printf "    %-44s p50 %.0f p99 %.0f rounds (mean %.1f)\n"
    "request latency:"
    (open_loop_quantile fleet 0.5)
    (open_loop_quantile fleet 0.99)
    (Client.mean_latency_rounds ol);
  Printf.printf "    %-44s %d dropped in flight, %d refused -- SLO %s\n"
    "connections:" dropped ol.Client.refused
    (if dropped = 0 then "PASS" else "FAIL");
  r

(* A full-fleet decentralized rollout: one proposal injected at node 0
   spreads by rumor + anti-entropy over a control plane losing 10% of
   its packets; every apply decision is a local quorum read.  There is
   no orchestrator to halt or fence -- the SLOs are judged against the
   open-loop arrival process that never stops. *)
let gossip_rollout () =
  let size = if Support.quick then 64 else 256 in
  Support.section
    (Printf.sprintf
       "FLEET: decentralized gossip rollout (miniweb 5.1.1 -> 5.1.2, %d \
        instances, no orchestrator, 10%% control-plane drop)"
       size);
  let fleet, ol = boot_open_loop ~version:"5.1.1" ~size ~rate:4.0 in
  let chaos =
    match Jv_faults.Faults.parse ~seed:11 "net.link=drop@0.10" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let g = G.Gossip.create ~chaos ~params:gossip_params ~fleet () in
  let req0 = ol.Client.completed_requests in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = gossip_run g ol ~max_rounds:6000 in
  Printf.printf "  size %d, quorum %d votes:\n" size g.G.Gossip.quorum;
  let r = show_gossip_result g ol ~rounds in
  Printf.printf "    %-44s 0 (all %d applies were local quorum reads)\n"
    "central decisions:" r.G.Gossip.gr_applied;
  ignore req0;
  (size, r)

(* Mid-rollout guard trip, no orchestrator: 5.1.11 passes admission on
   every node but 404s real traffic, so the first guards to see app
   errors trip, their trip-votes reach the fence quorum by gossip, and
   the inverse-spec wave walks the fleet back to epoch 0. *)
let gossip_fence () =
  let size = if Support.quick then 16 else 64 in
  Support.section
    (Printf.sprintf
       "FLEET: gossip fence (miniweb 5.1.10 -> 5.1.11 bad update, %d \
        instances, guard trips reach quorum, peer-to-peer inverse wave)"
       size);
  let fleet, ol = boot_open_loop ~version:"5.1.10" ~size ~rate:4.0 in
  let params = { gossip_params with G.Gossip.g_guard = Some (J.Guard.config ()) } in
  let g = G.Gossip.create ~params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.11");
  let rounds = gossip_run g ol ~max_rounds:8000 in
  Printf.printf "  size %d, fence quorum %d trip vote(s):\n" size
    G.Gossip.fence_votes;
  let r = show_gossip_result g ol ~rounds in
  Printf.printf "    %-44s %s\n" "fence:"
    (if r.G.Gossip.gr_fenced && r.G.Gossip.gr_epoch = Some 0 then
       Printf.sprintf
         "tripped and converged back to epoch 0 (%d guard trip(s), %d \
          inverse updates)"
         r.G.Gossip.gr_guard_trips r.G.Gossip.gr_reverts
     else "DID NOT FENCE");
  (size, r)

(* --- self-healing: supervised recovery under a kill storm --------------- *)

let heal_supervisor_params =
  {
    F.Supervisor.default_params with
    F.Supervisor.s_backoff_base = 20;
    s_snapshot_every = 40;
  }

let heal_orch_params ~batch =
  {
    (F.Orchestrator.default_params
       (F.Orchestrator.Rolling { batch_size = batch }))
    with
    F.Orchestrator.update_timeout = 250;
    max_retries = 1;
    backoff_base = 20;
    on_exhausted = `Quarantine;
  }

let mttr_line obs =
  match Obs.find_histogram obs "fleet.mttr_rounds" with
  | Some h when Metrics.count h > 0 ->
      Printf.sprintf "p50 %.0f max %.0f rounds over %d recoveries"
        (Metrics.quantile h 0.5) (Metrics.quantile h 1.0) (Metrics.count h)
  | _ -> "n/a (no recoveries)"

(* The supervisor's recovery transcript: the deterministic down -> up
   event arc, for byte-identical replay checks. *)
let heal_transcript fleet =
  let keep = function
    | "instance.down" | "restart.scheduled" | "restart.failed"
    | "instance.restart" | "instance.parked" | "instance.readmit"
    | "snapshot.failed" | "probe.unhealthy" ->
        true
    | _ -> false
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (ev : Obs.event) ->
      if keep ev.Obs.ev_name then begin
        Buffer.add_string buf
          (Printf.sprintf "[%d] %s %s" ev.Obs.ev_tick ev.Obs.ev_name
             (String.concat " "
                (List.map
                   (fun (k, v) ->
                     k ^ "="
                     ^
                     match v with
                     | Obs.Int i -> string_of_int i
                     | Obs.Float f -> Printf.sprintf "%.3f" f
                     | Obs.Str s -> s)
                   ev.Obs.ev_fields)));
        Buffer.add_char buf '\n'
      end)
    (Obs.events (F.Fleet.obs fleet));
  Buffer.contents buf

(* One supervised kill-storm rollout; returns (fleet, open-loop client,
   reconciled result, supervisor, plan).  [size/5] seeded kills (a 20%
   storm) fire while the rolling update is in flight; the supervisor
   restarts, restores, catches up and readmits each corpse. *)
let heal_storm_run ~size ~seed =
  let kills = max 1 (size / 5) in
  let fleet, ol = boot_open_loop ~version:"5.1.1" ~size ~rate:4.0 in
  let plan =
    match
      Jv_faults.Faults.parse ~seed
        (Printf.sprintf "vm.crash=kill@0.002x%d" kills)
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  F.Fleet.set_faults fleet (Some plan);
  let sup = F.Supervisor.create ~params:heal_supervisor_params ~fleet () in
  let r =
    F.Orchestrator.run ~supervisor:sup
      ~on_round:(fun _ -> Client.step ol ~now:(F.Fleet.ticks fleet))
      ~params:(heal_orch_params ~batch:(max 1 (size / 8)))
      ~fleet ~to_version:"5.1.2" ()
  in
  (fleet, ol, r, sup, plan)

let heal_storm () =
  let size = if Support.quick then 4 else 64 in
  let kills = max 1 (size / 5) in
  Support.section
    (Printf.sprintf
       "FLEET: self-healing kill storm (miniweb 5.1.1 -> 5.1.2, %d \
        instances, %d seeded kills mid-rollout, supervisor on)"
       size kills);
  let fleet, ol, r, sup, plan = heal_storm_run ~size ~seed:7 in
  let obs = F.Fleet.obs fleet in
  (* storm over: measure residual errors on the healed fleet *)
  let errs0 = ol.Client.errors in
  for _ = 1 to 300 do
    F.Fleet.round fleet;
    F.Supervisor.step sup;
    Client.step ol ~now:(F.Fleet.ticks fleet)
  done;
  let _drained =
    Client.drain ol
      ~now:(F.Fleet.ticks fleet)
      ~round:(fun () -> F.Fleet.round fleet)
      ~patience:600
  in
  let residual = ol.Client.errors - errs0 in
  let alive = F.Supervisor.alive sup in
  Printf.printf "    %-44s %s\n" "outcome:"
    (Fmt.str "%a" F.Orchestrator.pp_result r);
  Printf.printf "    %-44s %d fired (%d kill budget)\n" "kill storm:"
    (Jv_faults.Faults.fired plan) kills;
  Printf.printf "    %-44s %d restart(s), %d recovered, %d parked\n"
    "supervisor:" (F.Supervisor.restarts sup)
    (List.length (F.Supervisor.recovered sup))
    (List.length (F.Supervisor.parked sup));
  Printf.printf "    %-44s %s\n" "MTTR:" (mttr_line obs);
  Printf.printf "    %-44s %d round(s)\n" "time below capacity:"
    (F.Supervisor.below_capacity_rounds sup);
  Printf.printf "    %-44s p50 %.0f p99 %.0f rounds, %d dropped in flight\n"
    "open-loop latency:"
    (open_loop_quantile fleet 0.5)
    (open_loop_quantile fleet 0.99)
    (ol.Client.dropped_in_flight + F.Lb.dropped (F.Fleet.lb fleet));
  let uniform = F.Fleet.uniform_version fleet in
  Printf.printf "    %-44s %d/%d alive at %s -- %s\n" "full strength:" alive
    size
    (match uniform with Some v -> v ^ " (uniform)" | None -> "MIXED")
    (if alive = size && uniform <> None then "PASS" else "FAIL");
  Printf.printf "    %-44s %d -- %s\n" "residual errors:" residual
    (if residual = 0 then "PASS" else "FAIL")

(* A restarted ministore instance must come back serving its pre-crash
   records, migrated forward through the schema hop it missed: the
   fleet rolls 1.0 -> 1.1, writes stop, the supervisor snapshots, a
   seeded crash kills instance 0, and the recovered store's scrape must
   be bit-for-bit the pre-crash scrape. *)
let heal_durability () =
  Support.section
    "FLEET: durable ministore recovery (snapshot restore + schema \
     catch-up through a missed 1.0 -> 1.1 hop)";
  let size = 4 in
  let fleet =
    boot_under_load ~profile:F.Profile.ministore ~version:"1.0" ~size ()
  in
  let req0 = F.Fleet.total_requests fleet in
  let r =
    F.Orchestrator.run ~params:rolling_params ~fleet ~to_version:"1.1" ()
  in
  F.Fleet.detach_loads fleet;
  (* writes frozen: run to a snapshot boundary so the supervisor holds a
     current image of every store *)
  let sup = F.Supervisor.create ~params:heal_supervisor_params ~fleet () in
  for _ = 1 to 2 * heal_supervisor_params.F.Supervisor.s_snapshot_every do
    F.Fleet.round fleet;
    F.Supervisor.step sup
  done;
  let victim = 0 in
  let pre =
    match
      Jv_apps.Ministore.scrape (F.Fleet.instance fleet victim).F.Instance.i_vm
    with
    | Ok s -> s
    | Error e -> failwith ("pre-crash scrape failed: " ^ e)
  in
  (* the seeded crash: rate 1.0, one fire — instance 0 dies on the next
     consult (round order makes that deterministic) *)
  let plan =
    match Jv_faults.Faults.parse ~seed:3 "vm.crash=kill@1.0x1" with
    | Ok p -> p
    | Error e -> failwith e
  in
  F.Fleet.set_faults fleet (Some plan);
  if not (F.Supervisor.settle ~min_rounds:5 sup) then
    failwith "durability leg did not settle";
  let post =
    match
      Jv_apps.Ministore.scrape (F.Fleet.instance fleet victim).F.Instance.i_vm
    with
    | Ok s -> s
    | Error e -> failwith ("post-recovery scrape failed: " ^ e)
  in
  Printf.printf "    %-44s %s\n" "rollout:"
    (Fmt.str "%a" F.Orchestrator.pp_result r);
  Printf.printf "    %-44s %d restart(s), %d recovered\n" "supervisor:"
    (F.Supervisor.restarts sup)
    (List.length (F.Supervisor.recovered sup));
  Printf.printf "    %-44s %d records at schema %s\n" "pre-crash store:"
    (List.length pre.Jv_apps.Ministore.s_records)
    pre.Jv_apps.Ministore.s_version;
  Printf.printf "    %-44s %d records at schema %s\n" "recovered store:"
    (List.length post.Jv_apps.Ministore.s_records)
    post.Jv_apps.Ministore.s_version;
  let same =
    pre.Jv_apps.Ministore.s_records = post.Jv_apps.Ministore.s_records
    && pre.Jv_apps.Ministore.s_version = post.Jv_apps.Ministore.s_version
  in
  Printf.printf "    %-44s %s -- %s\n" "durability:"
    (if same then "pre-crash records served bit-for-bit after recovery"
     else "RECORDS DIVERGED")
    (if same then "PASS" else "FAIL");
  ignore req0

(* Same (plan, seed) must give the same recovery, byte for byte: two
   independent storms compared on their supervisor event transcripts. *)
let heal_determinism () =
  Support.section
    "FLEET: recovery determinism (same seeded kill plan, twice; \
     transcripts must be byte-identical)";
  let size = if Support.quick then 4 else 8 in
  let once () =
    let fleet, _ol, _r, _sup, _plan = heal_storm_run ~size ~seed:13 in
    heal_transcript fleet
  in
  let a = once () in
  let b = once () in
  let lines = List.length (String.split_on_char '\n' a) - 1 in
  Printf.printf "    %-44s %d transcript line(s)\n" "recovery events:" lines;
  Printf.printf "    %-44s %s -- %s\n" "replay:"
    (if a = b then "byte-identical across runs"
     else "TRANSCRIPTS DIVERGED")
    (if a = b && lines > 0 then "PASS" else "FAIL")

let run_heal () =
  heal_storm ();
  heal_durability ();
  heal_determinism ()

(* A fence wave carries a proposal's whole vote state in its tallies,
   so it should cost less wire than a healthy rollout four times its
   size. *)
let run_gossip () =
  let healthy_size, healthy = gossip_rollout () in
  let fence_size, fence = gossip_fence () in
  let kib (r : G.Gossip.report) = r.G.Gossip.gr_rumor_bytes / 1024 in
  Printf.printf "  %-46s %d KiB for %d nodes vs healthy %d KiB for %d -- %s\n"
    "fence-wave wire:" (kib fence) fence_size (kib healthy) healthy_size
    (if fence.G.Gossip.gr_rumor_bytes < healthy.G.Gossip.gr_rumor_bytes then
       "LEANER"
     else "HEAVIER")

let run () =
  rolling ();
  canary ();
  halt_on_abort ();
  rollback_mid_rollout ()
