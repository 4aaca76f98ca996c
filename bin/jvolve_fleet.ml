(* jvolve_fleet: orchestrate a DSU rollout across a load-balanced fleet
   of VM instances running one of the benchmark server apps.

     dune exec bin/jvolve_fleet.exe -- miniweb --from 5.1.1 --to 5.1.2 \
       --size 4
     dune exec bin/jvolve_fleet.exe -- miniweb --from 5.1.4 --to 5.1.5 \
       --size 6 --mode canary --canaries 2 --observe 300
     dune exec bin/jvolve_fleet.exe -- miniweb --from 5.1.2 --to 5.1.3 \
       --size 4 --timeout-rounds 150 --no-confree  # always-on-stack: halts *)

module A = Jv_apps
module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core

let print_versions fleet =
  Printf.printf "fleet versions: %s\n"
    (String.concat " "
       (List.map
          (fun (i : F.Instance.t) ->
            Printf.sprintf "%d:%s%s" i.F.Instance.i_id i.F.Instance.i_version
              (match i.F.Instance.i_status with
              | F.Instance.Out_of_service -> "(out)"
              | _ -> ""))
          (F.Fleet.instances fleet)))

let run app_name from_v to_v size mode batch canaries observe drain_timeout
    probes max_retries backoff_base quarantine concurrency policy gossip
    fanout quorum supervise restart_backoff max_restarts snapshot_every
    (o : Cli.t) =
  let profile = Cli.app app_name in
  let check_version v =
    if not (List.mem v (A.App.versions profile)) then begin
      Printf.eprintf "unknown %s version %S (have: %s)\n" app_name v
        (String.concat ", " (A.App.versions profile));
      exit 1
    end
  in
  check_version from_v;
  check_version to_v;
  let check_positive name v =
    if v < 1 then begin
      Printf.eprintf "--%s must be >= 1 (got %d)\n" name v;
      exit 1
    end
  in
  check_positive "size" size;
  check_positive "batch" batch;
  check_positive "canaries" canaries;
  check_positive "concurrency" concurrency;
  let mode =
    match mode with
    | "rolling" -> F.Orchestrator.Rolling { batch_size = batch }
    | "canary" ->
        F.Orchestrator.Canary
          { canaries; observe_rounds = observe; promote_batch = batch }
    | m ->
        Printf.eprintf "unknown mode %S (rolling|canary)\n" m;
        exit 1
  in
  let guard = Cli.guard o in
  let params =
    {
      (F.Orchestrator.default_params mode) with
      F.Orchestrator.drain_timeout;
      update_timeout = o.timeout_rounds;
      probes_required = probes;
      max_retries;
      backoff_base;
      admit_strict = o.admit_strict;
      on_exhausted = (if quarantine then `Quarantine else `Halt);
      guard;
    }
  in
  let config = Cli.config o A.App.default_config in
  let plan = Cli.plan o in
  let policy =
    match policy with
    | "rr" -> F.Lb.Round_robin
    | "lc" -> F.Lb.Least_conns
    | p ->
        Printf.eprintf "unknown policy %S (rr|lc)\n" p;
        exit 1
  in
  try
    Printf.printf "booting %d %s instance(s) on %s...\n%!" size app_name
      from_v;
    let fleet =
      F.Fleet.create ~config ~policy ~profile ~version:from_v ~size ()
    in
    F.Fleet.set_faults fleet plan;
    F.Fleet.run fleet ~rounds:30;
    ignore (F.Fleet.attach_load ~concurrency fleet);
    F.Fleet.run fleet ~rounds:120;
    let req0 = F.Fleet.total_requests fleet in
    let sup =
      if supervise then
        Some
          (F.Supervisor.create
             ~params:
               {
                 F.Supervisor.s_backoff_base = restart_backoff;
                 s_max_restarts = max_restarts;
                 s_snapshot_every = snapshot_every;
               }
             ~fleet ())
      else None
    in
    (* [verbose] progress: print [line] whenever it changes *)
    let last = ref "" in
    let progress line =
      if o.verbose && line <> !last then begin
        last := line;
        Printf.printf "  [%6d] %s\n%!" (F.Fleet.ticks fleet) line
      end
    in
    (* Each branch rolls out, lets in-flight recoveries finish and
       hands back how to report its outcome once the tail ran. *)
    let outcome, reports =
      if gossip then begin
        (* decentralized path: no orchestrator — a proposal injected
           at node 0 spreads by rumor, every instance applies on its
           own local quorum read, and guard trips fence by vote *)
        Printf.printf
          "gossiping %s -> %s (fanout %d, quorum %.2f, no \
           orchestrator)...\n\
           %!"
          from_v to_v fanout quorum;
        let gparams =
          {
            G.Gossip.default_params with
            G.Gossip.g_fanout = fanout;
            g_quorum = quorum;
            g_drain_timeout = drain_timeout;
            g_update_timeout = o.timeout_rounds;
            g_max_retries = max_retries;
            g_backoff_base = backoff_base;
            g_seed = o.fault_seed;
            g_guard = guard;
          }
        in
        let g = G.Gossip.create ?chaos:plan ~params:gparams ~fleet () in
        (* a restarted instance also rebuilds its gossip node and
           bootstraps its mempool from a peer *)
        Option.iter
          (fun sup ->
            F.Supervisor.set_on_restarted sup (fun id ->
                G.Gossip.rejoin g id))
          sup;
        ignore (G.Gossip.propose g ~origin:0 ~to_version:to_v);
        let on_round g =
          Option.iter F.Supervisor.step sup;
          if o.verbose then begin
            let counts = Hashtbl.create 4 in
            for id = 0 to F.Fleet.size fleet - 1 do
              let e = G.Node.epoch (G.Gossip.node g id) in
              Hashtbl.replace counts e
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts e))
            done;
            progress
              ("epochs "
              ^ Hashtbl.fold
                  (fun e n acc -> Printf.sprintf "e%d:%d %s" e n acc)
                  counts "")
          end
        in
        let rounds = G.Gossip.run g ~on_round ~max_rounds:20_000 () in
        (* the gossip loop may have quiesced while a restarted node
           was still probing *)
        Option.iter
          (fun sup ->
            ignore
              (F.Supervisor.settle ~round:(fun () -> G.Gossip.step g) sup))
          sup;
        ( (fun () ->
            let r = G.Gossip.report g ~rounds in
            ( Fmt.str "%a" G.Gossip.pp_report r,
              r.G.Gossip.gr_converged && r.G.Gossip.gr_stuck = [] )),
          [] )
      end
      else begin
        Printf.printf "rolling out %s -> %s...\n%!" from_v to_v;
        let r =
          F.Orchestrator.run ?supervisor:sup
            ~on_round:(fun orch -> progress (F.Orchestrator.describe orch))
            ~params ~fleet ~to_version:to_v ()
        in
        ( (fun () ->
            (Fmt.str "%a" F.Orchestrator.pp_result r, r.F.Orchestrator.r_ok)),
          r.F.Orchestrator.r_reports )
      end
    in
    F.Fleet.run fleet ~rounds:50;
    let served = F.Fleet.total_requests fleet - req0 in
    let dropped = F.Fleet.dropped_in_flight fleet in
    F.Fleet.detach_loads fleet;
    let line, ok = outcome () in
    print_endline line;
    Option.iter
      (fun sup ->
        Printf.printf
          "supervisor: %d restart(s), %d recovered, %d parked, %d alive, \
           %d round(s) below capacity\n"
          (F.Supervisor.restarts sup)
          (List.length (F.Supervisor.recovered sup))
          (List.length (F.Supervisor.parked sup))
          (F.Supervisor.alive sup)
          (F.Supervisor.below_capacity_rounds sup))
      sup;
    Printf.printf
      "connections: %d dropped in flight, %d rejected at the door, %d \
       requests served during the rollout\n"
      dropped
      (F.Lb.rejected (F.Fleet.lb fleet))
      served;
    print_versions fleet;
    if o.verbose then
      List.iter
        (fun (id, (ar : J.Jvolve.attempt_report)) ->
          Printf.printf
            "  instance %d: %s after %d attempt(s), %d rounds waited%s\n"
            id
            (J.Jvolve.outcome_to_string ar.J.Jvolve.ar_outcome)
            ar.J.Jvolve.ar_attempts ar.J.Jvolve.ar_waited_rounds
            (if ar.J.Jvolve.ar_blockers = "" then ""
             else " (blockers: " ^ ar.J.Jvolve.ar_blockers ^ ")"))
        reports;
    let obs = F.Fleet.obs fleet in
    Cli.emit_trace o obs ~timeline:(fun () ->
        (* the per-rollout timeline: drain, safe-point update, health
           probes, readmission, restarts — with tick durations *)
        Printf.printf "\nrollout timeline:\n%s"
          (Jv_obs.Export.timeline ~scopes:[ "fleet.rollout" ] obs));
    if o.metrics then begin
      (* fleet-level metrics plus every instance VM's sink, merged *)
      let snap = Jv_obs.Obs.create () in
      Jv_obs.Obs.merge_metrics ~into:snap obs;
      List.iter
        (fun (i : F.Instance.t) ->
          Jv_obs.Obs.merge_metrics ~into:snap
            (Jv_vm.Vm.obs i.F.Instance.i_vm))
        (F.Fleet.instances fleet);
      Printf.printf "\n%s" (Jv_obs.Export.prometheus snap)
    end;
    if ok then 0 else 2
  with
  | Jv_lang.Compile.Error e ->
      Printf.eprintf "compile error: %s\n" e;
      1
  | J.Transformers.Prepare_error e ->
      Printf.eprintf "prepare error: %s\n" e;
      1

open Cmdliner

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP"
         ~doc:"Server app to run: miniweb, minimail, miniftp or ministore \
               (the stateful KV store whose updates are schema \
               migrations).")

let from_v =
  Arg.(required & opt (some string) None & info [ "from" ] ~docv:"VERSION"
         ~doc:"Version the fleet starts on.")

let to_v =
  Arg.(required & opt (some string) None & info [ "to" ] ~docv:"VERSION"
         ~doc:"Version to roll out.")

let size =
  Arg.(value & opt int 4 & info [ "size" ] ~docv:"N"
         ~doc:"Number of VM instances.")

let mode =
  Arg.(value & opt string "rolling" & info [ "mode" ] ~docv:"MODE"
         ~doc:"Rollout mode: rolling or canary.")

let batch =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N"
         ~doc:"Instances updated per wave (rolling; canary promotion).")

let canaries =
  Arg.(value & opt int 1 & info [ "canaries" ] ~docv:"N"
         ~doc:"Canary instances updated first (canary mode).")

let observe =
  Arg.(value & opt int 300 & info [ "observe" ] ~docv:"ROUNDS"
         ~doc:"Canary observation window in fleet rounds.")

let drain_timeout =
  Arg.(value & opt int 300 & info [ "drain-timeout" ] ~docv:"ROUNDS"
         ~doc:"Rounds to wait for in-flight connections before updating \
               anyway.")

let probes =
  Arg.(value & opt int 2 & info [ "probes" ] ~docv:"N"
         ~doc:"Consecutive healthy probes required before readmission.")

let max_retries =
  Arg.(value & opt int 0 & info [ "max-retries" ] ~docv:"N"
         ~doc:"Re-attempt a cleanly-aborted per-instance update up to \
               $(docv) times, with exponential backoff.")

let backoff_base =
  Arg.(value & opt int 40 & info [ "backoff-base" ] ~docv:"ROUNDS"
         ~doc:"Backoff before the first retry; doubles per attempt.")

let quarantine =
  Arg.(value & flag & info [ "quarantine" ]
         ~doc:"When an instance exhausts its retries, quarantine it and \
               finish the rollout on the survivors instead of halting \
               and rolling everything back.")

let concurrency =
  Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"N"
         ~doc:"Concurrent scripted client sessions against the balancer.")

let policy =
  Arg.(value & opt string "rr" & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Load-balancing policy: rr (round-robin) or lc \
               (least-connections).")

let gossip =
  Arg.(value & flag & info [ "gossip" ]
         ~doc:"Roll out with the decentralized gossip control plane \
               instead of the orchestrator: the proposal spreads by \
               rumor and anti-entropy, every instance applies on its \
               own local quorum read, and a guard trip fences the \
               rollout by trip-vote quorum with a peer-to-peer \
               inverse-spec wave.")

let fanout =
  Arg.(value & opt int G.Gossip.default_params.G.Gossip.g_fanout
         & info [ "fanout" ] ~docv:"K"
             ~doc:"Gossip: random peers each hot rumor is pushed to per \
                   round.")

let quorum =
  Arg.(value & opt float G.Gossip.default_params.G.Gossip.g_quorum
         & info [ "quorum" ] ~docv:"Q"
             ~doc:"Gossip: apply once ceil($(docv) * size) positive \
                   votes are in the local mempool.")

let supervise =
  Arg.(value & flag & info [ "supervise" ]
         ~doc:"Run the self-healing supervisor alongside the rollout: \
               crashed (or quarantined) instances are restarted with \
               exponential backoff, restored from their latest state \
               snapshot, caught up through every missed version hop via \
               the normal update pipeline, and readmitted only after \
               health probes pass.  Crash-looping instances are parked \
               after --max-restarts attempts.")

let restart_backoff =
  Arg.(value & opt int F.Supervisor.default_params.F.Supervisor.s_backoff_base
         & info [ "restart-backoff" ] ~docv:"ROUNDS"
             ~doc:"Supervisor: rounds before the first restart attempt; \
                   doubles per consecutive crash.")

let max_restarts =
  Arg.(value & opt int F.Supervisor.default_params.F.Supervisor.s_max_restarts
         & info [ "max-restarts" ] ~docv:"N"
             ~doc:"Supervisor: restart attempts per instance before it is \
                   parked permanently as crash-looping.")

let snapshot_every =
  Arg.(value
         & opt int F.Supervisor.default_params.F.Supervisor.s_snapshot_every
         & info [ "snapshot-every" ] ~docv:"ROUNDS"
             ~doc:"Supervisor: rounds between state snapshots of stateful \
                   apps (ministore); a restarted instance replays its \
                   latest snapshot before catching up.  0 disables \
                   snapshots.")

let options =
  Cli.term ~timeout_default:400
    ~timeout_doc:
      "Per-instance update abort budget in scheduler rounds (the paper's \
       15s abort timeout)."
    ~verify_heap_doc:
      "On every instance, walk the whole heap after each update's \
       transform phase (and after any rollback); a failed post-rollback \
       verify quarantines the instance."
    ~fuel_doc:"Machine-instruction budget per transformer invocation."
    ~confree_doc:
      "Run the static con-freeness analysis on every instance: changed \
       methods proven backward-compatible stop blocking the per-instance \
       safe point (default)."
    ~no_confree_doc:
      "Disable the con-freeness analysis on every instance: every changed \
       method blocks its safe point wherever it is on stack."
    ~guard_rounds_doc:
      "Post-commit guard window per instance, in scheduler rounds: each \
       committed update is watched against its pre-update baselines and \
       auto-reverted in-VM if the error budget trips; a trip also fences \
       the rollout and reverts every already-updated instance."
    ~guard_budget_doc:
      "Guard error budget, comma-separated key=value pairs: rounds, traps, \
       errors, probes, latency (factor), samples. Unset keys keep their \
       defaults."
    ~no_guard_doc:
      "Commit per-instance updates immediately: no guard windows, no \
       fleet-wide fenced revert."
    ~faults_doc:
      "Arm a deterministic fault plan on every instance VM and its \
       network: comma-separated POINT=ACTION[@RATE][xCOUNT] rules, e.g. \
       'updater.transform=raise@0.2', 'net.link=drop@0.05', \
       'updater.gc=kill x1'.  Actions: raise, kill, drop, delay:N.  A \
       trailing * in POINT matches by prefix."
    ~trace_doc:
      "Print the per-rollout timeline (drain, safe-point update, health \
       probes, readmission) after the rollout; with $(docv), write the \
       full JSON-lines event dump there instead."
    ~metrics_doc:
      "Print a Prometheus-style snapshot merging the fleet's and every \
       instance VM's metrics."
    ~verbose_doc:"Trace rollout phases and per-instance attempt reports."

let cmd =
  Cmd.v
    (Cmd.info "jvolve_fleet"
       ~doc:"Rolling and canary DSU rollouts across a multi-VM fleet")
    Term.(
      const run $ app_arg $ from_v $ to_v $ size $ mode $ batch $ canaries
      $ observe $ drain_timeout $ probes $ max_retries $ backoff_base
      $ quarantine $ concurrency $ policy $ gossip $ fanout $ quorum
      $ supervise $ restart_backoff $ max_restarts $ snapshot_every
      $ options)

let () = exit (Cmd.eval' cmd)
