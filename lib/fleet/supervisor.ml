(* The self-healing layer: crash-restart supervision for a fleet.

   The paper's VM keeps one process alive across updates; at fleet scale
   the dual problem appears — processes die (chaos kills, failed
   rollbacks, quarantines) and without a supervisor the fleet
   monotonically shrinks.  This module watches every instance and drives
   the recovery arc:

     Watching -> (death detected) -> Waiting (exponential backoff)
       -> restart: fresh VM at the base version
            + state restore from the last snapshot (stateful apps)
            + epoch catch-up: each missed hop goes through the normal
              [Jvolve] request pipeline (admission, txn) with a
              [catchup_timeout] safe-point budget until the instance
              matches the fleet's current version; each hop is the
              fleet's one build, shared with the rollout that shipped
              it.  A hop that does not land fails the restart: the
              instance stays out of service and backs off again
       -> Probing ([Lifecycle.probes_required] health probes against
          the new VM)
       -> readmit to the LB -> Watching

   [step] runs one round of this; [Orchestrator.drive] steps it beside a
   rollout, and [settle] steps it alone until every recovery is done.

   A flapping instance burns one restart attempt per death with doubled
   backoff each time; past [s_max_restarts] it is Parked permanently
   rather than hot-looped.  Every step is deterministic: the only
   randomness is the fleet's own seeded fault plan, consulted at the
   [supervisor.restart] point so restart failures are injectable.

   Catch-up targets the *plurality* version among alive in-service
   peers (ties break toward the earlier rung).  Catching up "too little"
   is safe — a still-running rollout wave updates the instance like any
   other — and after a fence/revert the plurality is exactly the
   reverted epoch, so a corpse killed mid-guard-window comes back on the
   old version, not the suspect one. *)

module VM = Jv_vm
module J = Jvolve_core
module Faults = Jv_faults.Faults
module Obs = Jv_obs.Obs

type params = {
  s_backoff_base : int; (* rounds before restart 1; doubles per attempt *)
  s_max_restarts : int; (* per instance; beyond -> parked *)
  s_snapshot_every : int; (* rounds between state snapshots; 0 disables *)
}

let default_params =
  { s_backoff_base = 40; s_max_restarts = 5; s_snapshot_every = 200 }

(* Safe-point budget of one catch-up hop, in scheduler rounds (the same
   as a rollout's default [update_timeout]). *)
let catchup_timeout = 400

(* Rounds [settle] (and [Orchestrator.drive] after the rollout's result)
   wait for the last recovery to finish. *)
let settle_rounds = 20_000

type istate =
  | Watching
  | Waiting of { until : int } (* backoff before the next restart try *)
  | Probing of Lifecycle.probing
  | Parked of string (* crash loop / restart budget spent: permanent *)

type t = {
  fleet : Fleet.t;
  params : params;
  states : istate array;
  snapshots : string option array; (* last serialized snapshot, per id *)
  attempts : int array; (* restarts consumed, per id *)
  detected_at : int array; (* tick the current outage was noticed *)
  mutable restarts : int; (* reboots actually performed *)
  mutable recovered : int list; (* ids readmitted at least once *)
  mutable below_capacity_rounds : int;
  mutable on_restarted : (int -> unit) option; (* gossip rejoin hook *)
}

let create ?(params = default_params) ~fleet () =
  let n = Fleet.size fleet in
  {
    fleet;
    params;
    states = Array.make n Watching;
    snapshots = Array.make n None;
    attempts = Array.make n 0;
    detected_at = Array.make n 0;
    restarts = 0;
    recovered = [];
    below_capacity_rounds = 0;
    on_restarted = None;
  }

let set_on_restarted t f = t.on_restarted <- Some f
let restarts t = t.restarts
let recovered t = List.rev t.recovered
let below_capacity_rounds t = t.below_capacity_rounds

let parked t =
  let acc = ref [] in
  Array.iteri
    (fun id st ->
      match st with Parked why -> acc := (id, why) :: !acc | _ -> ())
    t.states;
  List.rev !acc

let obs t = Fleet.obs t.fleet
let now t = Fleet.ticks t.fleet
let inst t id = Fleet.instance t.fleet id

(* Events land in the rollout scope so `--trace` timelines show the full
   down -> up arc next to the quarantine that opened it. *)
let emit_ev t name fields = Obs.emit (obs t) ~scope:"fleet.rollout" name fields

let dead t id =
  Lifecycle.killed (inst t id)
  || (inst t id).Instance.i_status = Instance.Out_of_service

(* Serving capacity right now: a live VM the LB is admitting. *)
let alive t =
  List.fold_left
    (fun n (i : Instance.t) ->
      if
        (not (Lifecycle.killed i))
        && i.Instance.i_status = Instance.In_service
        && Lb.admitting (Fleet.lb t.fleet) ~id:i.Instance.i_id
      then n + 1
      else n)
    0 (Fleet.instances t.fleet)

(* --- catch-up target --------------------------------------------------- *)

let ladder_index t v =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if x = v then i else go (i + 1) rest
  in
  go 0 (Profile.versions (Fleet.profile t.fleet))

(* Plurality version among alive in-service peers; ties break toward the
   earlier rung (catching up too little is recoverable, too much is
   not).  Falls back to the instance's own base version. *)
let target_version t ~excluding =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (i : Instance.t) ->
      if
        i.Instance.i_id <> excluding
        && (not (Lifecycle.killed i))
        && i.Instance.i_status = Instance.In_service
      then
        Hashtbl.replace tally i.Instance.i_version
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally i.Instance.i_version)))
    (Fleet.instances t.fleet);
  let best = ref None in
  Hashtbl.iter
    (fun v n ->
      match !best with
      | None -> best := Some (v, n)
      | Some (bv, bn) ->
          if n > bn || (n = bn && ladder_index t v < ladder_index t bv) then
            best := Some (v, n))
    tally;
  match !best with
  | Some (v, _) -> v
  | None -> (inst t excluding).Instance.i_base_version

(* --- snapshots --------------------------------------------------------- *)

let take_snapshot t id =
  let i = inst t id in
  match (Fleet.profile t.fleet).Profile.pr_snapshot with
  | None -> ()
  | Some scrape -> (
      match scrape i.Instance.i_vm with
      | Ok s ->
          t.snapshots.(id) <- Some s;
          Obs.incr (obs t) "fleet.supervisor.snapshots"
      | Error why ->
          Obs.incr (obs t) "fleet.supervisor.snapshot_failures";
          emit_ev t "snapshot.failed"
            [ ("instance", Obs.Int id); ("why", Obs.Str why) ])

let maybe_snapshot t =
  if
    t.params.s_snapshot_every > 0
    && (Fleet.profile t.fleet).Profile.pr_snapshot <> None
    && now t mod t.params.s_snapshot_every = 0
  then
    Array.iteri
      (fun id st ->
        let i = inst t id in
        if
          st = Watching
          && (not (Lifecycle.killed i))
          && i.Instance.i_status = Instance.In_service
        then take_snapshot t id)
      t.states

(* --- the recovery arc -------------------------------------------------- *)

let park t id ~why =
  t.states.(id) <- Parked why;
  (inst t id).Instance.i_status <- Instance.Out_of_service;
  Obs.incr (obs t) "fleet.supervisor.parked";
  emit_ev t "instance.parked" [ ("instance", Obs.Int id); ("why", Obs.Str why) ]

(* One more restart attempt is owed; either schedule it or park. *)
let schedule_restart t id =
  let n = t.attempts.(id) + 1 in
  if n > t.params.s_max_restarts then
    park t id
      ~why:(Printf.sprintf "crash loop: %d restarts exhausted" t.params.s_max_restarts)
  else begin
    t.attempts.(id) <- n;
    let backoff = Lifecycle.backoff ~base:t.params.s_backoff_base ~attempt:n in
    emit_ev t "restart.scheduled"
      [
        ("instance", Obs.Int id);
        ("attempt", Obs.Int n);
        ("backoff", Obs.Int backoff);
      ];
    t.states.(id) <- Waiting { until = now t + backoff }
  end

let detect t id =
  let i = inst t id in
  let why =
    match VM.Vm.killed i.Instance.i_vm with
    | Some w -> w
    | None -> "quarantined"
  in
  t.detected_at.(id) <- now t;
  emit_ev t "instance.down" [ ("instance", Obs.Int id); ("why", Obs.Str why) ];
  schedule_restart t id

(* Ladder rungs from the instance's (freshly rebooted) version up to the
   fleet's current one. *)
let catchup_path t id ~target =
  let i = inst t id in
  let versions = Profile.versions (Fleet.profile t.fleet) in
  let rec hops from = function
    | [] -> []
    | v :: rest ->
        if ladder_index t v <= ladder_index t from then hops from rest
        else if ladder_index t v > ladder_index t target then []
        else (from, v) :: hops v rest
  in
  hops i.Instance.i_version versions

(* Each hop goes through the normal request pipeline (admission, the
   update transaction) and is driven to its outcome before the next. *)
let catch_up t id ~target : (unit, string) result =
  let i = inst t id in
  let rec go = function
    | [] -> Ok ()
    | (from_v, to_v) :: rest -> (
        let hop = Fleet.hop t.fleet ~from_version:from_v ~to_version:to_v in
        let failed why =
          Error (Printf.sprintf "catch-up %s->%s failed: %s" from_v to_v why)
        in
        match hop.Lifecycle.prepared with
        | Error e -> failed ("prepare: " ^ e)
        | Ok prepared -> (
            let vm = i.Instance.i_vm in
            let h =
              J.Jvolve.request ~timeout_rounds:catchup_timeout vm prepared
            in
            match J.Jvolve.run_to_guard_close vm h with
            | J.Jvolve.Applied _ ->
                Lifecycle.on_new i hop;
                Obs.incr (obs t) "fleet.supervisor.catchup_hops";
                go rest
            | outcome -> failed (J.Jvolve.outcome_to_string outcome)))
  in
  go (catchup_path t id ~target)

let try_restart t id =
  (* injectable restart failure: any armed action at this point means
     the replacement process did not come up *)
  match Faults.check (Fleet.faults t.fleet) "supervisor.restart" with
  | Some _ ->
      Obs.incr (obs t) "fleet.supervisor.restart_failures";
      emit_ev t "restart.failed"
        [ ("instance", Obs.Int id); ("why", Obs.Str "fault injected") ];
      schedule_restart t id
  | None -> (
      let i = inst t id in
      Instance.reboot ~config:(Fleet.config t.fleet) (Fleet.profile t.fleet) i
        (Fleet.program t.fleet ~version:i.Instance.i_base_version);
      VM.Vm.set_faults i.Instance.i_vm (Fleet.faults t.fleet);
      t.restarts <- t.restarts + 1;
      Obs.incr (obs t) "fleet.restarts";
      emit_ev t "instance.restart"
        [ ("instance", Obs.Int id); ("attempt", Obs.Int t.attempts.(id)) ];
      Lb.replace (Fleet.lb t.fleet) ~id ~net:(Instance.net i)
        ~backend_port:i.Instance.i_port;
      (* restore first, then catch up: the snapshot replays through the
         version-stable wire protocol into the base-version boot, and the
         ladder migrations reinterpret the restored heap exactly as they
         would have live data *)
      let restored =
        match ((Fleet.profile t.fleet).Profile.pr_restore, t.snapshots.(id)) with
        | Some replay, Some snap -> (
            match replay i.Instance.i_vm snap with
            | Ok () ->
                Obs.incr (obs t) "fleet.supervisor.restores";
                Ok ()
            | Error why -> Error ("restore failed: " ^ why))
        | _ -> Ok ()
      in
      let target = target_version t ~excluding:id in
      match
        Result.bind restored (fun () -> catch_up t id ~target)
      with
      | Ok () ->
          (match t.on_restarted with Some f -> f id | None -> ());
          t.states.(id) <-
            Probing
              (Lifecycle.probing (Fleet.profile t.fleet) i
                 ~deadline:Lifecycle.probe_deadline
                 ~required:Lifecycle.probes_required ~now:(now t))
      | Error why ->
          emit_ev t "restart.failed"
            [ ("instance", Obs.Int id); ("why", Obs.Str why) ];
          i.Instance.i_status <- Instance.Out_of_service;
          schedule_restart t id)

let readmit t id =
  Lifecycle.readmit (Fleet.lb t.fleet) (inst t id);
  let mttr = now t - t.detected_at.(id) in
  Obs.incr (obs t) "fleet.rollout.readmitted";
  Obs.observe_int (obs t) "fleet.mttr_rounds" mttr;
  (* the mirror of [instance.quarantine]: timelines get the up edge *)
  emit_ev t "instance.readmit"
    [ ("instance", Obs.Int id); ("mttr_rounds", Obs.Int mttr) ];
  if not (List.mem id t.recovered) then t.recovered <- id :: t.recovered;
  t.states.(id) <- Watching

let step_instance t id =
  match t.states.(id) with
  | Parked _ -> ()
  | Watching ->
      if dead t id then begin
        let st = (inst t id).Instance.i_status in
        (* leave instances mid-orchestration alone: the orchestrator (or
           gossip node) resolves a killed VM to a quarantine, which lands
           here as Out_of_service *)
        if
          st <> Instance.Draining && st <> Instance.Updating
          && st <> Instance.Rolling_back
        then detect t id
      end
  | Waiting { until } -> if now t >= until then try_restart t id
  | Probing pg -> (
      (* the replacement can die while still being probed *)
      if Lifecycle.killed (inst t id) then schedule_restart t id
      else
        match Lifecycle.step_probe pg ~now:(now t) with
        | Lifecycle.Waiting | Lifecycle.Healthy _ -> ()
        | Lifecycle.Unhealthy why ->
            emit_ev t "probe.unhealthy"
              [ ("instance", Obs.Int id); ("why", Obs.Str why) ];
            (inst t id).Instance.i_status <- Instance.Out_of_service;
            schedule_restart t id
        | Lifecycle.Passed _ -> readmit t id)

let step t =
  maybe_snapshot t;
  Array.iteri (fun id _ -> step_instance t id) t.states;
  let a = alive t in
  Obs.set_gauge (obs t) "fleet.alive" (float_of_int a);
  if a < Fleet.size t.fleet then begin
    t.below_capacity_rounds <- t.below_capacity_rounds + 1;
    Obs.incr (obs t) "fleet.below_capacity_rounds"
  end

(* All-clear: every instance is either serving at full health or parked
   for good — nothing is still mid-recovery. *)
let settled t =
  let ok = ref true in
  Array.iteri
    (fun id st ->
      match st with
      | Parked _ -> ()
      | Watching -> if dead t id then ok := false
      | Waiting _ | Probing _ -> ok := false)
    t.states;
  !ok

(* Heal with no rollout running: [round] (one fleet round by default)
   and a supervisor step, until [settled] holds after at least
   [min_rounds] rounds.  [false] if it still does not after
   [settle_rounds]. *)
let settle ?(min_rounds = 0) ?round t =
  let round =
    match round with Some f -> f | None -> fun () -> Fleet.round t.fleet
  in
  let rec go n =
    if n >= min_rounds && settled t then true
    else if n >= settle_rounds then false
    else begin
      round ();
      step t;
      go (n + 1)
    end
  in
  go 0

let describe t =
  Printf.sprintf "supervisor: %d alive, %d restarts, %d recovered, %d parked"
    (alive t) t.restarts (List.length t.recovered) (List.length (parked t))
