(* fleet-heal: 64 miniweb instances take an orchestrated rolling
   5.1.1 -> 5.1.2 rollout (batches of 8) under an open loop of 4
   arrivals per round, while a seeded kill storm crashes 12 VMs (20%) and
   the supervisor restarts, restores, catches up and readmits them.

   The kill plans are fixed: the rollout's length depends on where the
   kills land, so plans drawn from the seed made rollout time measure the
   draw (README.md); the seed shapes the open-loop request mix.

   The time goes to the control plane: per-instance spec, prepare and
   admission inside Orchestrator.step, supervisor restarts, snapshots
   and ladder catch-up.  Each VM is tiny.  The storm strikes only the
   instances the rollout reaches after the fleet's majority has flipped:
   see README.md for the straggler trap a storm on the early waves
   springs. *)

module VM = Jv_vm
module F = Jv_fleet
module H = Harness

let size = 64
let batch = 8
let plan_seeds = [ 101; 202; 303 ]
let kills = size / 5
let max_rounds = 30_000
let post_rounds = 300

let orch_params =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = batch }))
    with
    F.Orchestrator.update_timeout = 250;
    max_retries = 1;
    backoff_base = 20;
    on_exhausted = `Quarantine;
  }

let sup_params =
  { F.Supervisor.default_params with F.Supervisor.s_backoff_base = 20;
    s_snapshot_every = 40 }

(* Outages as a client sees them: from the round an instance died (or was
   taken out of service) to the round it was serving again. *)
type outages = { down_since : int option array; mttr : Stats.vec }

let note_outages o fleet =
  let lb = F.Fleet.lb fleet and tick = F.Fleet.ticks fleet in
  List.iter
    (fun (i : F.Instance.t) ->
      let id = i.F.Instance.i_id and vm = i.F.Instance.i_vm in
      let dead =
        VM.Vm.killed vm <> None
        || i.F.Instance.i_status = F.Instance.Out_of_service
      in
      let serving =
        VM.Vm.killed vm = None
        && i.F.Instance.i_status = F.Instance.In_service
        && F.Lb.admitting lb ~id
      in
      match o.down_since.(id) with
      | None -> if dead then o.down_since.(id) <- Some tick
      | Some t0 ->
          if serving then begin
            Stats.push o.mttr (float_of_int (tick - t0));
            o.down_since.(id) <- None
          end)
    (F.Fleet.instances fleet)

type acc = {
  fl : Fleets.acc;
  mttr : Stats.vec;
  mutable restarts : int;
  mutable quarantined : int;
  mutable below_capacity : int;
  mutable stranded : int;
}

let episode p acc ~seed ~plan ~plan_seed ~last =
  H.quiesce ();
  let kill_plan =
    match
      Jv_faults.Faults.parse ~seed:plan_seed
        (Printf.sprintf "vm.crash=kill@0.002x%d" kills)
    with
    | Ok kp -> kp
    | Error e -> failwith e
  in
  let fleet, ol = H.setup p (fun () -> Fleets.boot ~seed ~size) in
  if p.H.traced then Fleets.probe_update fleet;
  F.Fleet.set_faults fleet (Some kill_plan);
  List.iter
    (fun (i : F.Instance.t) ->
      if i.F.Instance.i_id < size / 2 then
        VM.Vm.set_faults i.F.Instance.i_vm None)
    (F.Fleet.instances fleet);
  let vms = H.Fleet_vms.create (F.Fleet.instances fleet) in
  let outages = { down_since = Array.make size None; mttr = acc.mttr } in
  let served0 = ol.Load.Open.served and bytes0 = Fleets.front_bytes fleet in
  let observe () =
    H.Fleet_vms.observe vms (F.Fleet.instances fleet);
    note_outages outages fleet
  in
  ol.Load.Open.recording <- last;
  let result = ref None in
  H.timed_phase p (fun () ->
      Trace.in_update (fun () ->
          let orch =
            H.best p (Fleets.key "start" plan) (fun () ->
                Trace.span ~layer:"fleet" "Orchestrator.create" (fun () ->
                    F.Orchestrator.create ~params:orch_params ~fleet
                      ~to_version:Fleets.to_version ()))
          in
          let sup = F.Supervisor.create ~params:sup_params ~fleet () in
          let n = ref 0 in
          let finished () =
            F.Orchestrator.result orch <> None && F.Supervisor.settled sup
          in
          while (not (finished ())) && !n < max_rounds do
            H.best p (Fleets.key "round" plan) (fun () ->
                Fleets.fleet_round fleet;
                Trace.span ~layer:"fleet" "Orchestrator.step" (fun () ->
                    F.Orchestrator.step orch);
                Trace.span ~layer:"fleet" "Supervisor.step" (fun () ->
                    F.Supervisor.step sup);
                Fleets.open_step ol fleet);
            observe ();
            incr n
          done;
          result := Some (orch, sup)));
  ol.Load.Open.recording <- false;
  let orch, sup = Option.get !result in
  let served = ol.Load.Open.served - served0 in
  (match F.Orchestrator.result orch with
  | None -> H.check p "rollout finished" false
  | Some r ->
      H.check p "rollout ok" r.F.Orchestrator.r_ok;
      acc.quarantined <-
        acc.quarantined + List.length r.F.Orchestrator.r_quarantined;
      Fleets.note_rollout p acc.fl vms ~plan ~served
        ~bytes:(Fleets.front_bytes fleet - bytes0)
        ~rounds:r.F.Orchestrator.r_rounds ~mixed:r.F.Orchestrator.r_mixed_window);
  let step () =
    F.Fleet.round fleet;
    F.Supervisor.step sup;
    Load.Open.step ol ~tick:(F.Fleet.ticks fleet);
    observe ()
  in
  (* the storm outlasts the rollout: let it spend its kills and every
     recovery finish, then the healed fleet must serve without errors *)
  let n = ref 0 in
  while
    (Jv_faults.Faults.fired kill_plan < kills
    || not (F.Supervisor.settled sup))
    && !n < max_rounds
  do
    step ();
    incr n
  done;
  let answered () =
    ol.Load.Open.errors + ol.Load.Open.dropped + ol.Load.Open.refused
  in
  let failed0 = answered () and calm = F.Fleet.ticks fleet in
  for _ = 1 to post_rounds do
    step ()
  done;
  Load.Open.drain ol ~tick:(F.Fleet.ticks fleet)
    ~round:(fun () -> F.Fleet.round fleet)
    ~patience:600;
  (* A request in flight on an instance the storm kills never gets an
     answer or a reset: those are the injected fault's casualties,
     counted apart.  Any request sent after the storm must complete. *)
  let stranded, late =
    List.partition (fun q -> q.Load.Open.sent_tick < calm) ol.Load.Open.active
  in
  H.check p "no errors after the storm" (answered () = failed0 && late = []);
  acc.stranded <- acc.stranded + List.length stranded;
  Fleets.note_load p acc.fl ol ~excused:(List.length stranded);
  acc.restarts <- acc.restarts + F.Supervisor.restarts sup;
  acc.below_capacity <- acc.below_capacity + F.Supervisor.below_capacity_rounds sup;
  acc.fl.Fleets.dropped <-
    acc.fl.Fleets.dropped + ol.Load.Open.dropped + F.Lb.dropped (F.Fleet.lb fleet);
  if last then Fleets.heap_checks p acc.fl fleet

let run p ~seed ~episodes =
  let acc =
    {
      fl = Fleets.acc ();
      mttr = Stats.vec ();
      restarts = 0;
      quarantined = 0;
      below_capacity = 0;
      stranded = 0;
    }
  in
  (* every replay runs each plan once *)
  let replays = max 1 (episodes / List.length plan_seeds) in
  for r = 1 to replays do
    List.iteri
      (fun plan plan_seed ->
        episode p acc ~seed ~plan ~plan_seed ~last:(r = replays))
      plan_seeds;
    H.end_replay p
  done;
  let per = H.per_replay p in
  Fleets.metrics p acc.fl;
  List.iter (H.add p)
    [
      H.of_samples ~layer:"e2e" ~unit_:"rounds" "mttr_rounds" acc.mttr;
      H.count ~layer:"fleet" "fleet.restarts" (per acc.restarts);
      H.count ~layer:"fleet" "fleet.quarantined" (per acc.quarantined);
      H.count ~layer:"fleet" "fleet.below_capacity_rounds"
        (per acc.below_capacity);
      H.count ~layer:"fleet" "fleet.stranded_in_storm" (per acc.stranded);
    ]
