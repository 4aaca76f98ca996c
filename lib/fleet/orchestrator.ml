(* The rollout orchestrator: drives a dynamic software update across a
   fleet of VM instances, one wave at a time.

   Per wave, every member goes through the shared {!Lifecycle} in
   lockstep: drain (stop routing new sessions, wait for in-flight to
   reach zero) -> request the DSU on each VM and keep the fleet running
   until every attempt resolves at a safe point -> health-probe the
   updated instances -> readmit them.  What is the orchestrator's own is
   the wave policy: a canary rollout makes the first wave small, readmits
   it, then watches load-balancer health signals for an observation
   window before promoting the rest.

   Any failure — an update abort (safe-point timeout, transformer
   cycle), a failed health probe, a lost canary gate — halts the rollout
   and rolls every already-updated instance back by applying the hop's
   inverse update ({!Jvolve_core.Transformers.inverse}, prepared once and
   shared by the whole wave).  The orchestrator never kills a
   connection: instances that abort keep serving the old version, and
   the result records the whole story. *)

module J = Jvolve_core

type mode =
  | Rolling of { batch_size : int }
  | Canary of { canaries : int; observe_rounds : int; promote_batch : int }

type params = {
  mode : mode;
  drain_timeout : int; (* rounds to wait for in-flight connections *)
  update_timeout : int; (* DSU abort budget in ticks (paper: 15 s) *)
  probe_deadline : int; (* rounds one health probe may take *)
  probes_required : int; (* consecutive healthy probes per instance *)
  admit_strict : bool; (* promote admission Warn verdicts to rejections *)
  max_retries : int; (* re-attempts per instance after a clean abort *)
  backoff_base : int; (* rounds before retry #1; doubles per attempt *)
  on_exhausted : [ `Halt | `Quarantine ];
      (* retries spent: halt + roll everything back (default), or
         quarantine the instance and finish the rollout on survivors *)
  guard : J.Guard.config option;
      (* guarded commits: every forward update opens an in-VM guard
         window; a trip auto-reverts that instance AND fences the
         rollout with a fleet-wide coordinated revert.  A config without
         a probe gets the profile's health probe on each instance's own
         port. *)
}

let default_params mode =
  {
    mode;
    drain_timeout = 300;
    update_timeout = 400;
    probe_deadline = Lifecycle.probe_deadline;
    probes_required = Lifecycle.probes_required;
    admit_strict = false;
    max_retries = 0;
    backoff_base = 40;
    on_exhausted = `Halt;
    guard = None;
  }

(* Hard stop for a whole rollout, in fleet rounds: past it the rollout
   reports whatever state it reached (see [step]). *)
let max_rounds = 50_000

(* --- results ----------------------------------------------------------- *)

type result = {
  r_ok : bool;
  r_halted : string option; (* why the rollout stopped early *)
  r_updated : int list; (* instances on the new version at the end *)
  r_rolled_back : int list;
  r_aborted : (int * string) list; (* forward update aborts *)
  r_unhealthy : (int * string) list; (* failed health checks / gates *)
  r_rollback_failed : (int * string) list;
  r_quarantined : (int * string) list;
      (* removed from the fleet: VM killed, rollback failed, or retries
         spent under [`Quarantine] — and not (yet) recovered *)
  r_recovered : int list;
      (* instances a supervisor restarted and readmitted after this
         rollout quarantined them (see [reconcile]): their capacity came
         back, so SLO accounting must not count them as lost *)
  r_guard_tripped : (int * string) list;
      (* per-instance guard verdicts: in-VM auto-reverts (and failed
         reverts, which also land in [r_rollback_failed]) *)
  r_retries : int; (* per-instance update re-attempts performed *)
  r_rounds : int;
  r_mixed_window : int; (* rounds the fleet ran mixed versions *)
  r_drain_timeouts : int;
  r_reports : (int * J.Jvolve.attempt_report) list;
}

let pp_result ppf r =
  Fmt.pf ppf
    "%s: %d updated, %d rolled back, %d aborted, %d unhealthy%s | %d \
     rounds, mixed-version window %d rounds%s"
    (if r.r_ok then "ROLLOUT OK" else "ROLLOUT HALTED")
    (List.length r.r_updated)
    (List.length r.r_rolled_back)
    (List.length r.r_aborted)
    (List.length r.r_unhealthy)
    (match r.r_halted with None -> "" | Some why -> " (" ^ why ^ ")")
    r.r_rounds r.r_mixed_window
    ((if r.r_retries = 0 then ""
      else Printf.sprintf ", %d retries" r.r_retries)
    ^ (if r.r_quarantined = [] then ""
       else
         Printf.sprintf ", %d quarantined" (List.length r.r_quarantined))
    ^ (if r.r_recovered = [] then ""
       else Printf.sprintf ", %d recovered" (List.length r.r_recovered))
    ^ (if r.r_guard_tripped = [] then ""
       else
         Printf.sprintf ", %d guard trip(s)" (List.length r.r_guard_tripped))
    ^
    if r.r_rollback_failed = [] then ""
    else
      Printf.sprintf ", ROLLBACK FAILED on %d instance(s)"
        (List.length r.r_rollback_failed))

(* Fold supervisor recoveries back into a rollout result: instances the
   rollout quarantined but a supervisor later restarted and readmitted
   move from [r_quarantined] to [r_recovered], so restored capacity is
   not double-counted as lost. *)
let reconcile r ~recovered =
  let rec_q, still_q =
    List.partition (fun (id, _) -> List.mem id recovered) r.r_quarantined
  in
  {
    r with
    r_quarantined = still_q;
    r_recovered =
      List.sort_uniq compare (List.map fst rec_q @ r.r_recovered);
  }

(* --- the state machine ------------------------------------------------- *)

type direction = Forward | Rollback of string (* the halt reason *)

type stage =
  | Drain of { until : int }
  | Update of Lifecycle.attempt list
  | Probe of (int * Lifecycle.probing) list (* probes still running *)
  | Observe of { until : int; canaries : int list }
  | Backoff of { until : int } (* waiting out a retry's backoff delay *)

type wave = {
  w_ids : int list;
  w_observe : int option;
  w_not_before : int; (* retry waves: earliest tick to start (backoff) *)
}

type t = {
  fleet : Fleet.t;
  params : params;
  to_version : string;
  hop : Lifecycle.hop; (* the fleet's shared build of the rollout's hop *)
  overrides : (int * Lifecycle.hop) list; (* own builds, from [mutate_spec] *)
  mutable waves : wave list; (* not yet started *)
  mutable wave : wave option; (* in flight *)
  mutable stage : stage option;
  mutable direction : direction;
  mutable updated : int list;
  mutable rolled_back : int list;
  mutable aborted : (int * string) list;
  mutable unhealthy : (int * string) list;
  mutable rollback_failed : (int * string) list;
  mutable quarantined : (int * string) list;
  attempts : (int, int) Hashtbl.t; (* id -> failed forward attempts *)
  mutable guarding : Lifecycle.attempt list; (* open guard windows *)
  mutable guard_trips : (int * string) list;
  mutable fence : string option; (* pending fleet-wide revert reason *)
  mutable retries : int;
  mutable reports : (int * J.Jvolve.attempt_report) list;
  mutable drain_timeouts : int;
  mutable first_mixed : int option; (* tick of the first version change *)
  mutable last_change : int; (* tick of the latest version change *)
  started_at : int;
  mutable wave_started : int; (* tick the in-flight wave began *)
  mutable stage_started : int; (* tick the current stage began *)
  mutable result : result option;
}

(* Rollout telemetry goes to the fleet's sink under scope "fleet.rollout":
   the --trace timeline is exactly these events. *)
let emit_ev t name fields =
  Jv_obs.Obs.emit (Fleet.obs t.fleet) ~scope:"fleet.rollout" name fields

let ids_field ids =
  Jv_obs.Obs.Str (String.concat "," (List.map string_of_int ids))

let chunk k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(* A wave with no canary observation; a retry wave waits out its backoff
   until [not_before]. *)
let plain ?(not_before = 0) ids =
  { w_ids = ids; w_observe = None; w_not_before = not_before }

let make_waves mode ids =
  match mode with
  | Rolling { batch_size } -> List.map plain (chunk (max 1 batch_size) ids)
  | Canary { canaries; observe_rounds; promote_batch } ->
      let k = max 1 (min canaries (List.length ids - 1)) in
      let cs = List.filteri (fun i _ -> i < k) ids in
      let rest = List.filteri (fun i _ -> i >= k) ids in
      { w_ids = cs; w_observe = Some observe_rounds; w_not_before = 0 }
      :: List.map plain (chunk (max 1 promote_batch) rest)

let create ?(mutate_spec = fun _id spec -> spec) ~params ~fleet ~to_version
    () =
  let insts = Fleet.instances fleet in
  let from_version =
    match Fleet.uniform_version fleet with
    | Some v -> v
    | None -> invalid_arg "Orchestrator.create: fleet not on one version"
  in
  let hop = Fleet.hop fleet ~from_version ~to_version in
  let shared = hop.Lifecycle.spec in
  (* Own builds: for an instance still running a build an earlier
     [mutate_spec] landed, and for a spec [mutate_spec] hands back
     physically changed. *)
  let overrides =
    List.filter_map
      (fun (i : Instance.t) ->
        let id = i.Instance.i_id in
        let spec =
          mutate_spec id
            (if i.Instance.i_program == shared.J.Spec.old_program then shared
             else
               Jv_apps.App.spec (Fleet.profile fleet) ~from_version ~to_version
                 ~old_program:i.Instance.i_program
                 ~new_program:shared.J.Spec.new_program)
        in
        if spec == shared then None
        else
          Some
            (id, Lifecycle.hop (Fleet.obs fleet) ~from_version ~to_version spec))
      insts
  in
  let ids = List.map (fun (i : Instance.t) -> i.Instance.i_id) insts in
  Jv_obs.Obs.emit (Fleet.obs fleet) ~scope:"fleet.rollout" "rollout.start"
    [
      ("from", Jv_obs.Obs.Str from_version);
      ("to", Jv_obs.Obs.Str to_version);
      ("size", Jv_obs.Obs.Int (List.length ids));
      ( "mode",
        Jv_obs.Obs.Str
          (match params.mode with
          | Rolling { batch_size } ->
              Printf.sprintf "rolling(batch=%d)" batch_size
          | Canary { canaries; observe_rounds; _ } ->
              Printf.sprintf "canary(%d, observe=%d)" canaries observe_rounds)
      );
    ];
  {
    fleet;
    params;
    to_version;
    hop;
    overrides;
    waves = make_waves params.mode ids;
    wave = None;
    stage = None;
    direction = Forward;
    updated = [];
    rolled_back = [];
    aborted = [];
    unhealthy = [];
    rollback_failed = [];
    quarantined = [];
    attempts = Hashtbl.create 16;
    guarding = [];
    guard_trips = [];
    fence = None;
    retries = 0;
    reports = [];
    drain_timeouts = 0;
    first_mixed = None;
    last_change = 0;
    started_at = Fleet.ticks fleet;
    wave_started = Fleet.ticks fleet;
    stage_started = Fleet.ticks fleet;
    result = None;
  }

(* --- helpers ----------------------------------------------------------- *)

let now t = Fleet.ticks t.fleet
let lb t = Fleet.lb t.fleet
let inst t id = Fleet.instance t.fleet id
let hop t id = Option.value ~default:t.hop (List.assoc_opt id t.overrides)
let id_of (a : Lifecycle.attempt) = a.a_inst.Instance.i_id

let note_version_change t =
  if t.first_mixed = None then t.first_mixed <- Some (now t);
  t.last_change <- now t

(* A forward rollout that has to stop: the first reason wins. *)
let fence t why =
  match (t.direction, t.fence) with
  | Forward, None -> t.fence <- Some why
  | _ -> ()

(* Park an instance out of the fleet: its VM was killed, its rollback
   failed (state not trusted), or its retries are spent under
   [`Quarantine].  The rollout itself never readmits it — only a
   [Supervisor] restart (fresh VM, snapshot restore, ladder catch-up,
   health probes) brings it back, and [reconcile] then moves it from
   [r_quarantined] to [r_recovered]. *)
let quarantine t id ~why =
  t.quarantined <- (id, why) :: t.quarantined;
  Lifecycle.retire (lb t) (inst t id);
  Jv_obs.Obs.incr (Fleet.obs t.fleet) "fleet.rollout.quarantined";
  emit_ev t "instance.quarantine"
    [ ("instance", Jv_obs.Obs.Int id); ("why", Jv_obs.Obs.Str why) ]

(* --- stage entry ------------------------------------------------------- *)

(* Forward updates are guarded when [params.guard] is set; rollbacks
   never are. *)
let start_updates t ids =
  let inverse = match t.direction with Forward -> false | Rollback _ -> true in
  emit_ev t "update.begin"
    [
      ("instances", ids_field ids);
      ("direction", Jv_obs.Obs.Str (if inverse then "rollback" else "forward"));
    ];
  t.stage_started <- now t;
  let attempts =
    List.filter_map
      (fun id ->
        let i = inst t id in
        let guard =
          Lifecycle.guard_for ~probe_deadline:t.params.probe_deadline
            t.fleet.Fleet.profile i (if inverse then None else t.params.guard)
        in
        match
          Lifecycle.request ~timeout_rounds:t.params.update_timeout
            ~admit_strict:t.params.admit_strict ?guard ~inverse i (hop t id)
        with
        | Ok a -> Some a
        | Error e ->
            (* never reached the VM: treat like an immediate abort *)
            let e = "prepare: " ^ e in
            if inverse then t.rollback_failed <- (id, e) :: t.rollback_failed
            else t.aborted <- (id, e) :: t.aborted;
            None)
      ids
  in
  t.stage <- Some (Update attempts)

let enter_wave t (w : wave) =
  emit_ev t "wave.start" [ ("instances", ids_field w.w_ids) ];
  match t.direction with
  | Forward ->
      List.iter (fun id -> Lifecycle.drain (lb t) (inst t id)) w.w_ids;
      emit_ev t "drain.begin"
        [
          ("instances", ids_field w.w_ids);
          ("timeout", Jv_obs.Obs.Int t.params.drain_timeout);
        ];
      t.stage_started <- now t;
      t.stage <- Some (Drain { until = now t + t.params.drain_timeout })
  | Rollback _ ->
      (* reverting: skip the drain, halt exposure as fast as possible *)
      start_updates t w.w_ids

let start_wave t (w : wave) =
  (* A supervisor may have recovered instances under our feet: skip wave
     members already on the target version (their catch-up beat us —
     count them updated) and members that are out of service
     (quarantined, or mid-recovery on the base version).  An emptied
     wave is simply not started; the driver's next step advances. *)
  let w =
    match t.direction with
    | Rollback _ -> w
    | Forward ->
        let keep =
          List.filter
            (fun id ->
              let i = inst t id in
              if i.Instance.i_version = t.to_version then begin
                if not (List.mem id t.updated) then
                  t.updated <- id :: t.updated;
                false
              end
              else i.Instance.i_status <> Instance.Out_of_service)
            w.w_ids
        in
        { w with w_ids = keep }
  in
  if w.w_ids = [] then begin
    t.wave <- None;
    t.stage <- None
  end
  else begin
  t.wave <- Some w;
  t.wave_started <- now t;
  if w.w_not_before > now t then begin
    (* a retry wave still inside its backoff window: the instance keeps
       serving the old version until the delay elapses *)
    emit_ev t "backoff.wait"
      [
        ("instances", ids_field w.w_ids);
        ("until", Jv_obs.Obs.Int w.w_not_before);
      ];
    t.stage_started <- now t;
    t.stage <- Some (Backoff { until = w.w_not_before })
  end
  else enter_wave t w
  end

let start_probes t ids =
  emit_ev t "probe.begin"
    [
      ("instances", ids_field ids);
      ("required", Jv_obs.Obs.Int t.params.probes_required);
    ];
  t.stage_started <- now t;
  let probing id =
    Lifecycle.probing t.fleet.Fleet.profile (inst t id)
      ~deadline:t.params.probe_deadline ~required:t.params.probes_required
      ~now:(now t)
  in
  t.stage <- Some (Probe (List.map (fun id -> (id, probing id)) ids))

(* --- finishing --------------------------------------------------------- *)

let finish ?(force = false) t =
  (* open guard windows (or in-flight in-VM reverts) keep the rollout
     alive: the per-round guard watch drains [guarding], then this runs *)
  if t.guarding <> [] && not force then ()
  else begin
  let halted =
    match t.direction with Forward -> None | Rollback why -> Some why
  in
  let mixed =
    match t.first_mixed with
    | None -> 0
    | Some t0 ->
        (* still mixed at the end (failed rollback): window stays open *)
        if Fleet.uniform_version t.fleet = None then now t - t0
        else t.last_change - t0
  in
  let rounds = now t - t.started_at in
  let obs = Fleet.obs t.fleet in
  Jv_obs.Obs.observe_int obs "fleet.rollout.rounds" rounds;
  Jv_obs.Obs.observe_int obs "fleet.rollout.mixed_window" mixed;
  (* exact last-rollout figures, for reports that must not round through
     histogram buckets *)
  Jv_obs.Obs.set_gauge obs "fleet.rollout.last_rounds" (float_of_int rounds);
  Jv_obs.Obs.set_gauge obs "fleet.rollout.last_mixed_window"
    (float_of_int mixed);
  emit_ev t "rollout.done"
    [
      ( "ok",
        Jv_obs.Obs.Str
          (string_of_bool (halted = None && t.rollback_failed = [])) );
      ("rounds", Jv_obs.Obs.Int rounds);
      ("mixed_window", Jv_obs.Obs.Int mixed);
      ("updated", Jv_obs.Obs.Int (List.length t.updated));
      ("rolled_back", Jv_obs.Obs.Int (List.length t.rolled_back));
      ("quarantined", Jv_obs.Obs.Int (List.length t.quarantined));
      ("retries", Jv_obs.Obs.Int t.retries);
    ];
  t.result <-
    Some
      {
        r_ok = (halted = None && t.rollback_failed = []);
        r_halted = halted;
        r_updated = List.sort compare t.updated;
        r_rolled_back = List.sort compare t.rolled_back;
        r_aborted = List.rev t.aborted;
        r_unhealthy = List.rev t.unhealthy;
        r_rollback_failed = List.rev t.rollback_failed;
        r_quarantined = List.rev t.quarantined;
        r_recovered = [];
        r_guard_tripped = List.rev t.guard_trips;
        r_retries = t.retries;
        r_rounds = rounds;
        r_mixed_window = mixed;
        r_drain_timeouts = t.drain_timeouts;
        r_reports = List.rev t.reports;
      }
  end

(* Halt the rollout: every already-updated instance is reverted, in one
   coordinated wave.  Instances whose guard window is still open revert
   in-VM (forced trip, replaying the retained update log so
   forward-dropped field values are restored); the rest get the plain
   inverse spec through the normal update pipeline. *)
let begin_rollback t ~why =
  let in_vm =
    List.filter (Lifecycle.force_trip ~reason:("rollout fenced: " ^ why))
      t.guarding
  in
  List.iter
    (fun a ->
      emit_ev t "guard.fence"
        [ ("instance", Jv_obs.Obs.Int (id_of a)); ("why", Jv_obs.Obs.Str why) ])
    in_vm;
  let in_vm_ids = List.map id_of in_vm in
  emit_ev t "rollback.begin"
    [
      ("why", Jv_obs.Obs.Str why);
      ("instances", ids_field (List.sort compare t.updated));
      ("in_vm_reverts", ids_field (List.sort compare in_vm_ids));
    ];
  (* a wave caught mid-drain is abandoned here: its members never
     updated, so put them back in service before the wave record is
     dropped — otherwise they are left unadmitted forever *)
  (match t.wave with
  | Some w ->
      List.iter
        (fun id ->
          let i = inst t id in
          if i.Instance.i_status = Instance.Draining then
            Lifecycle.readmit (lb t) i)
        w.w_ids
  | None -> ());
  t.direction <- Rollback why;
  t.wave <- None;
  t.stage <- None;
  t.waves <-
    (match
       List.filter (fun id -> not (List.mem id in_vm_ids)) t.updated
     with
    | [] -> []
    | ids -> [ plain (List.sort compare ids) ])

(* A supervisor may recover a quarantined instance mid-rollout, after
   its wave has already passed: In_service again, but still on the old
   version.  Sweep such stragglers into one more wave through the
   normal pipeline rather than finishing with a split fleet.
   (Recoveries that complete after the rollout are covered by the
   supervisor's own ladder catch-up, which by then targets the updated
   plurality.) *)
let stragglers t =
  match t.direction with
  | Rollback _ -> []
  | Forward ->
      if t.fence <> None then []
      else
        List.filter_map
          (fun (i : Instance.t) ->
            if
              i.Instance.i_status = Instance.In_service
              && i.Instance.i_version <> t.to_version
              && (not (List.mem i.Instance.i_id t.updated))
              && not (Lifecycle.killed i)
            then Some i.Instance.i_id
            else None)
          (Fleet.instances t.fleet)

let next_wave t =
  t.wave <- None;
  t.stage <- None;
  match t.waves with
  | [] -> (
      match stragglers t with
      | [] -> finish t
      | ids -> start_wave t (plain (List.sort compare ids)))
  | w :: rest ->
      t.waves <- rest;
      start_wave t w

(* --- per-round step ---------------------------------------------------- *)

(* The guard tripped and the instance reverted itself in-VM: it is back
   on the known-good version, serving again, and the rollout must be
   fenced. *)
let tripped t id (v : J.Guard.verdict) =
  let why = J.Guard.verdict_to_string v in
  Jv_obs.Obs.incr (Fleet.obs t.fleet) "fleet.rollout.guard_trips";
  t.guard_trips <- (id, why) :: t.guard_trips;
  t.updated <- List.filter (( <> ) id) t.updated;
  t.rolled_back <- id :: t.rolled_back;
  note_version_change t;
  fence t (Printf.sprintf "guard tripped on instance %d: %s" id why)

(* Scan the open guard windows once per round.  A clean close just drops
   off the watch list; a trip fences the rollout; a trip whose revert
   failed leaves the instance stuck on the new version — quarantined,
   like a failed rollback. *)
let guard_watch t =
  let lost id ~why ~fence_why =
    t.guard_trips <- (id, why) :: t.guard_trips;
    t.updated <- List.filter (( <> ) id) t.updated;
    quarantine t id ~why;
    fence t fence_why
  in
  t.guarding <-
    List.filter
      (fun a ->
        let id = id_of a in
        match Lifecycle.watch (lb t) a with
        | None -> true
        | Some (Lifecycle.Landed _) ->
            emit_ev t "guard.closed" [ ("instance", Jv_obs.Obs.Int id) ];
            false
        | Some (Lifecycle.Reverted v) ->
            emit_ev t "guard.reverted"
              [
                ("instance", Jv_obs.Obs.Int id);
                ("why", Jv_obs.Obs.Str (J.Guard.verdict_to_string v));
                ("revert_ms", Jv_obs.Obs.Float v.J.Guard.v_revert_ms);
              ];
            tripped t id v;
            false
        | Some (Lifecycle.Aborted { why; _ }) ->
            let why = "guard revert failed: " ^ why in
            t.rollback_failed <- (id, why) :: t.rollback_failed;
            lost id ~why
              ~fence_why:
                (Printf.sprintf "guard tripped on instance %d (revert failed)"
                   id);
            false
        | Some Lifecycle.Killed ->
            (* a VM that died with its window open can neither close nor
               revert it: quarantine the corpse and fence the rollout —
               the suspect version lost its witness, so the survivors
               revert, and a supervisor restart catches the instance up
               to the *reverted* epoch *)
            lost id ~why:"vm killed during guard window"
              ~fence_why:
                (Printf.sprintf "instance %d killed during guard window" id);
            false)
      t.guarding

let update_resolved t (w : wave) attempts =
  let waited = now t - t.stage_started in
  Jv_obs.Obs.observe_int (Fleet.obs t.fleet) "fleet.rollout.update_rounds"
    waited;
  let failures = ref [] in
  List.iter
    (fun (a : Lifecycle.attempt) ->
      let id = id_of a in
      let rep = J.Jvolve.report a.a_inst.Instance.i_vm a.a_handle in
      t.reports <- (id, rep) :: t.reports;
      emit_ev t "update.done"
        [
          ("instance", Jv_obs.Obs.Int id);
          ("outcome", Jv_obs.Obs.Str (Lifecycle.outcome_name a));
          ("ticks", Jv_obs.Obs.Int waited);
          ("sync_ms", Jv_obs.Obs.Float rep.J.Jvolve.ar_sync_ms);
          ( "waited_rounds",
            Jv_obs.Obs.Int rep.J.Jvolve.ar_waited_rounds );
        ];
      let failed e =
        (match t.direction with
        | Forward -> t.aborted <- (id, e) :: t.aborted
        | Rollback _ ->
            (* stuck on the new version: keep it out of service *)
            t.rollback_failed <- (id, e) :: t.rollback_failed);
        quarantine t id ~why:e
      in
      match (Lifecycle.resolve (lb t) a, t.direction) with
      | None, _ -> () (* the Update stage waits until every attempt settled *)
      | Some (Lifecycle.Landed { guarded }), Forward ->
          t.updated <- id :: t.updated;
          note_version_change t;
          (* guarded commit: keep watching the window *)
          if guarded then t.guarding <- a :: t.guarding
      | Some (Lifecycle.Landed _), Rollback _ ->
          t.updated <- List.filter (( <> ) id) t.updated;
          t.rolled_back <- id :: t.rolled_back;
          note_version_change t
      | Some (Lifecycle.Reverted v), _ ->
          (* tripped before this scan even saw the apply *)
          tripped t id v
      | Some (Lifecycle.Aborted { why = e; trusted = true }), Forward ->
          (* rolled back cleanly and serving the old version again *)
          t.aborted <- (id, e) :: t.aborted;
          let n =
            Option.value ~default:0 (Hashtbl.find_opt t.attempts id) + 1
          in
          Hashtbl.replace t.attempts id n;
          if n <= t.params.max_retries then begin
            (* try again in its own wave once the backoff elapses *)
            t.retries <- t.retries + 1;
            Jv_obs.Obs.incr (Fleet.obs t.fleet) "fleet.rollout.retries";
            let delay =
              Lifecycle.backoff ~base:t.params.backoff_base ~attempt:n
            in
            emit_ev t "update.retry"
              [
                ("instance", Jv_obs.Obs.Int id);
                ("attempt", Jv_obs.Obs.Int n);
                ("backoff", Jv_obs.Obs.Int delay);
                ("reason", Jv_obs.Obs.Str e);
              ];
            t.waves <- plain ~not_before:(now t + delay) [ id ] :: t.waves
          end
          else (
            match t.params.on_exhausted with
            | `Quarantine -> quarantine t id ~why:("retries exhausted: " ^ e)
            | `Halt -> failures := id :: !failures)
      | Some (Lifecycle.Aborted { why = e; _ }), _ -> failed e
      | Some Lifecycle.Killed, _ -> failed "still pending")
    attempts;
  match t.direction with
  | Forward when !failures <> [] ->
      begin_rollback t
        ~why:
          (Printf.sprintf "update aborted on instance %s"
             (String.concat ", "
                (List.map string_of_int (List.rev !failures))));
      (* instances of this wave that did apply are in [updated] and will
         be reverted with the rest *)
      next_wave t
  | _ ->
      (* every applied instance gets probed before being readmitted *)
      let ids =
        List.filter
          (fun id ->
            match t.direction with
            | Forward -> List.mem id t.updated
            | Rollback _ -> List.mem id t.rolled_back)
          w.w_ids
      in
      if ids = [] then next_wave t else start_probes t ids

let probe_step t (w : wave) live =
  (* A VM that died while being probed is a crash, not evidence against
     the new version: an unhealthy *response* indicts the code, a dead
     process indicts the process.  Quarantine the corpse for the
     supervisor instead of halting the whole rollout — and drop it from
     [updated] so a later fence never tries to revert a dead VM. *)
  let dead, live =
    List.partition (fun (id, _) -> Lifecycle.killed (inst t id)) live
  in
  List.iter
    (fun (id, _) ->
      t.updated <- List.filter (fun u -> u <> id) t.updated;
      quarantine t id ~why:"vm killed during health probe")
    dead;
  let healthy id latency =
    emit_ev t "probe.healthy"
      [ ("instance", Jv_obs.Obs.Int id); ("latency", Jv_obs.Obs.Int latency) ]
  in
  let still_live, failed =
    List.fold_left
      (fun (still, failed) (id, pg) ->
        match Lifecycle.step_probe pg ~now:(now t) with
        | Lifecycle.Waiting -> ((id, pg) :: still, failed)
        | Lifecycle.Unhealthy why ->
            emit_ev t "probe.unhealthy"
              [ ("instance", Jv_obs.Obs.Int id); ("why", Jv_obs.Obs.Str why) ];
            (still, (id, why) :: failed)
        | Lifecycle.Healthy latency ->
            healthy id latency;
            ((id, pg) :: still, failed)
        | Lifecycle.Passed latency ->
            healthy id latency;
            (still, failed))
      ([], []) live
  in
  t.stage <- Some (Probe still_live);
  match failed with
  | (id, why) :: _ -> (
      let why = Printf.sprintf "health check failed on instance %d: %s" id why in
      match t.direction with
      | Forward ->
          t.unhealthy <- (id, why) :: t.unhealthy;
          begin_rollback t ~why;
          next_wave t
      | Rollback _ ->
          (* reverted but sick: take it out of the fleet *)
          List.iter
            (fun (id, why) ->
              t.rollback_failed <- (id, why) :: t.rollback_failed;
              quarantine t id ~why)
            failed;
          if still_live = [] then next_wave t)
  | [] ->
      if still_live = [] then begin
        (* every instance of the wave is healthy: readmit *)
        Jv_obs.Obs.observe_int (Fleet.obs t.fleet)
          "fleet.rollout.probe_rounds"
          (now t - t.stage_started);
        (* never readmit what was quarantined out of this wave (killed
           VM, failed rollback, exhausted retries) *)
        let back =
          List.filter
            (fun id ->
              (inst t id).Instance.i_status <> Instance.Out_of_service)
            w.w_ids
        in
        List.iter (fun id -> Lifecycle.readmit (lb t) (inst t id)) back;
        emit_ev t "readmit"
          [
            ("instances", ids_field back);
            ("wave_ticks", Jv_obs.Obs.Int (now t - t.wave_started));
          ];
        match (t.direction, w.w_observe) with
        | Forward, Some rounds ->
            (* watch the canaries take real traffic before promoting *)
            Lb.reset_window (lb t);
            emit_ev t "observe.begin"
              [
                ("canaries", ids_field w.w_ids);
                ("rounds", Jv_obs.Obs.Int rounds);
              ];
            t.stage_started <- now t;
            t.stage <-
              Some (Observe { until = now t + rounds; canaries = w.w_ids })
        | _ -> next_wave t
      end

let observe_done t ~canaries =
  let all_ids =
    List.map (fun (i : Instance.t) -> i.Instance.i_id)
      (Fleet.instances t.fleet)
  in
  let stable = List.filter (fun id -> not (List.mem id canaries)) all_ids in
  let cw = Lb.window (lb t) ~ids:canaries in
  let sw = Lb.window (lb t) ~ids:stable in
  let verdict = Health.judge ~canary:cw ~stable:sw in
  emit_ev t "observe.done"
    [
      ("canaries", ids_field canaries);
      ( "verdict",
        Jv_obs.Obs.Str
          (match verdict with None -> "pass" | Some why -> why) );
    ];
  match verdict with
  | None -> next_wave t
  | Some why ->
      let why = "canary gate: " ^ why in
      List.iter (fun id -> t.unhealthy <- (id, why) :: t.unhealthy) canaries;
      begin_rollback t ~why;
      next_wave t

(* Consume a pending fence (a guard trip demanding a fleet-wide revert).
   Mid-[Update] waves must first resolve — their VMs have DSU attempts in
   flight — so the fence waits for the next safe stage boundary. *)
let consume_fence t =
  match (t.fence, t.direction) with
  | None, _ -> false
  | Some _, Rollback _ ->
      t.fence <- None;
      false
  | Some why, Forward -> (
      match t.stage with
      | Some (Update _) -> false
      | None | Some (Drain _ | Probe _ | Observe _ | Backoff _) ->
          t.fence <- None;
          begin_rollback t ~why;
          next_wave t;
          true)

let step t =
  guard_watch t;
  match (t.result, t.wave, t.stage) with
  | Some _, _, _ -> ()
  | None, None, _ ->
      if now t - t.started_at > max_rounds then begin
        begin_rollback t ~why:"rollout exceeded max_rounds";
        t.guarding <- [];
        finish ~force:true t
      end
      else if not (consume_fence t) then next_wave t
  | None, Some w, Some stage -> (
      if now t - t.started_at > max_rounds then begin
        (* hard stop: report whatever state we reached *)
        t.direction <-
          (match t.direction with
          | Forward -> Rollback "rollout exceeded max_rounds"
          | d -> d);
        t.guarding <- [];
        finish ~force:true t
      end
      else if consume_fence t then ()
      else
        match stage with
        | Drain { until } ->
            let remaining =
              List.fold_left
                (fun n id -> n + Lb.in_flight (lb t) ~id)
                0 w.w_ids
            in
            let drain_done ~timed_out =
              let waited = now t - t.stage_started in
              Jv_obs.Obs.observe_int (Fleet.obs t.fleet)
                "fleet.rollout.drain_rounds" waited;
              emit_ev t "drain.done"
                [
                  ("instances", ids_field w.w_ids);
                  ("ticks", Jv_obs.Obs.Int waited);
                  ("timed_out", Jv_obs.Obs.Str (string_of_bool timed_out));
                  ("in_flight", Jv_obs.Obs.Int remaining);
                ];
              start_updates t w.w_ids
            in
            if remaining = 0 then drain_done ~timed_out:false
            else if now t >= until then begin
              (* drain timed out: update anyway — the DSU never kills
                 connections, the survivors just pause at the safe point *)
              t.drain_timeouts <- t.drain_timeouts + 1;
              drain_done ~timed_out:true
            end
        | Update attempts ->
            (* a VM killed while its request is pending can never reach
               a safe point: it counts as settled so the wave proceeds
               (the resolution scan quarantines the corpse) *)
            if List.for_all Lifecycle.settled attempts then
              update_resolved t w attempts
        | Probe live -> probe_step t w live
        | Observe { until; canaries } ->
            if now t >= until then observe_done t ~canaries
        | Backoff { until } -> if now t >= until then enter_wave t w)
  | None, Some _, None -> next_wave t

let result t = t.result

let describe t =
  match (t.result, t.wave, t.stage) with
  | Some r, _, _ -> Fmt.str "%a" pp_result r
  | None, None, _ when t.guarding <> [] ->
      (* past the last wave: only open guard windows keep it running *)
      Fmt.str "watching %d guard window(s)" (List.length t.guarding)
  | None, None, _ -> "starting"
  | None, Some w, stage ->
      let ids = String.concat "," (List.map string_of_int w.w_ids) in
      let dir =
        match t.direction with
        | Forward -> "update"
        | Rollback _ -> "rollback"
      in
      let st =
        match stage with
        | Some (Drain _) -> "draining"
        | Some (Update _) -> "awaiting safe points"
        | Some (Probe _) -> "health probing"
        | Some (Observe _) -> "observing canaries"
        | Some (Backoff _) -> "backing off before retry"
        | None -> "starting"
      in
      Fmt.str "%s wave [%s]: %s" dir ids st

(* The one supervised rollout loop: each round steps [Fleet.round], the
   rollout, the supervisor (if any) and then [on_round], until the
   rollout has a result and the supervisor has settled, or
   [Supervisor.settle_rounds] rounds after the result.  The result comes
   back reconciled with the supervisor's recoveries. *)
let drive ?supervisor ?(on_round = fun _ -> ()) t =
  let settled () = Option.fold ~none:true ~some:Supervisor.settled supervisor in
  let rec go budget =
    match t.result with
    | Some r when settled () || budget = 0 -> r
    | r ->
        Fleet.round t.fleet;
        step t;
        Option.iter Supervisor.step supervisor;
        on_round t;
        go (if Option.is_none r then budget else budget - 1)
  in
  let r = go Supervisor.settle_rounds in
  match supervisor with
  | None -> r
  | Some s -> reconcile r ~recovered:(Supervisor.recovered s)

let run ?mutate_spec ?supervisor ?on_round ~params ~fleet ~to_version () =
  drive ?supervisor ?on_round (create ?mutate_spec ~params ~fleet ~to_version ())
