(* The Jvolve facade: the public API of the DSU system.

   Usage, mirroring the paper's Figure 1 workflow:
   {[
     (* offline: the UPT *)
     let spec = Jvolve.Spec.make ~version_tag:"131"
                  ~old_program ~new_program () in
     let prepared = Jvolve.Transformers.prepare spec in
     (* online: signal the running VM *)
     let handle = Jvolve.request vm prepared in
     (* ... keep running the scheduler; poll [handle] ... *)
   ]}

   [request] installs the DSU attempt hook; the scheduler invokes it at
   safe points (every round, and immediately when a return barrier fires).
   Each attempt re-checks the stacks; if restricted methods are on stack it
   installs return barriers and waits, up to a timeout, after which the
   update aborts (paper: 15 seconds, configurable).

   Guarded commits: with [?guard] set, a successful apply commits through
   [Txn.commit_retaining] and opens a [Guard] window — the scheduler then
   drives [Guard.tick] once per round via the [State.guard_tick] hook.  A
   clean close releases the retained update log; a trip launches the
   inverse update ([Transformers.inverse], built once per prepared value
   and shared by every VM that reverts it) through this same attempt
   machinery, replaying the retained log, and flips the original handle's
   outcome to [Reverted].  A failure *during* the revert rolls forward to
   [Aborted] in phase [P_guard] (the revert's own transaction rolled the
   VM back to the new version, which keeps running). *)

module State = Jv_vm.State

type outcome =
  | Pending
  | Applied of Updater.timings
  | Reverted of Guard.verdict
  | Aborted of Updater.abort

type handle = {
  h_prepared : Transformers.prepared;
  h_restricted : Safepoint.restricted;
  h_requested_at : int; (* tick *)
  h_deadline : int; (* tick *)
  h_timeout_rounds : int;
  h_use_osr : bool; (* ablation: lift category-2 frames by OSR *)
  h_use_barriers : bool; (* ablation: install return barriers *)
  h_guard : Guard.config option; (* watch the commit, revert on trip *)
  h_revert_of : (handle * Guard.verdict) option;
      (* this handle IS the guard revert of another update *)
  mutable h_outcome : outcome;
  mutable h_attempts : int;
  mutable h_barriers_installed : int;
  mutable h_blockers : string; (* last observed blocking methods *)
  mutable h_stuck : Safepoint.blocker list; (* structured blocker list *)
  mutable h_sync_ms : float; (* stack-scan time of the successful attempt *)
  mutable h_guard_state : Guard.t option; (* open window, if any *)
  mutable h_guard_busy : bool; (* window open or revert in flight *)
}

exception Busy

let default_timeout_rounds = 1500

let version_tag h = h.h_prepared.Transformers.p_spec.Spec.version_tag

(* A fresh, pending attempt at [prepared]. *)
let new_handle vm prepared ~timeout_rounds ~use_osr ~use_barriers ~guard
    ~revert_of =
  {
    h_prepared = prepared;
    h_restricted =
      Safepoint.compute
        ~proofs:(fun () -> Transformers.proofs prepared)
        vm prepared.Transformers.p_spec;
    h_requested_at = vm.State.ticks;
    h_deadline = vm.State.ticks + timeout_rounds;
    h_timeout_rounds = timeout_rounds;
    h_use_osr = use_osr;
    h_use_barriers = use_barriers;
    h_guard = guard;
    h_revert_of = revert_of;
    h_outcome = Pending;
    h_attempts = 0;
    h_barriers_installed = 0;
    h_blockers = "";
    h_stuck = [];
    h_sync_ms = 0.0;
    h_guard_state = None;
    h_guard_busy = false;
  }

(* Record the resolved attempt into the VM's sink: the Fig. 5 numbers
   (pause, stack-scan, per-phase times) live in these histograms, and the
   applied/aborted event closes the flight-recorder timeline. *)
let record_outcome vm h outcome =
  let obs = vm.State.obs in
  let waited = vm.State.ticks - h.h_requested_at in
  match outcome with
  | Pending -> ()
  | Applied (t : Updater.timings) ->
      Jv_obs.Obs.incr obs "core.update.applied";
      Jv_obs.Obs.observe obs "core.update.pause_ms" t.Updater.u_total_ms;
      Jv_obs.Obs.observe obs "core.update.stack_scan_ms" h.h_sync_ms;
      Jv_obs.Obs.observe obs "core.update.load_ms" t.Updater.u_load_ms;
      Jv_obs.Obs.observe obs "core.update.gc_ms" t.Updater.u_gc_ms;
      Jv_obs.Obs.observe obs "core.update.transform_ms"
        t.Updater.u_transform_ms;
      Jv_obs.Obs.observe obs "core.update.verify_ms" t.Updater.u_verify_ms;
      Jv_obs.Obs.observe_int obs "core.update.wait_rounds" waited;
      Jv_obs.Obs.observe_int obs "core.update.osr_frames" t.Updater.u_osr;
      Jv_obs.Obs.observe_int obs "core.update.transformed_objects"
        t.Updater.u_transformed_objects;
      Jv_obs.Obs.emit obs ~scope:"core.update" "update.applied"
        [
          ("version", Jv_obs.Obs.Str (version_tag h));
          ("pause_ms", Jv_obs.Obs.Float t.Updater.u_total_ms);
          ("stack_scan_ms", Jv_obs.Obs.Float h.h_sync_ms);
          ("waited_rounds", Jv_obs.Obs.Int waited);
          ("attempts", Jv_obs.Obs.Int h.h_attempts);
          ("osr", Jv_obs.Obs.Int t.Updater.u_osr);
          ("transformed", Jv_obs.Obs.Int t.Updater.u_transformed_objects);
        ]
  | Reverted (v : Guard.verdict) ->
      Jv_obs.Obs.incr obs "core.update.reverted";
      Jv_obs.Obs.observe obs "core.guard.revert_ms" v.Guard.v_revert_ms;
      Jv_obs.Obs.emit obs ~scope:"core.update" "update.reverted"
        [
          ("version", Jv_obs.Obs.Str (version_tag h));
          ("signal", Jv_obs.Obs.Str (Guard.signal_to_string v.Guard.v_signal));
          ("detail", Jv_obs.Obs.Str v.Guard.v_detail);
          ("window_round", Jv_obs.Obs.Int v.Guard.v_round);
          ("revert_ms", Jv_obs.Obs.Float v.Guard.v_revert_ms);
        ]
  | Aborted (a : Updater.abort) ->
      Jv_obs.Obs.incr obs "core.update.aborted";
      Jv_obs.Obs.emit obs ~scope:"core.update" "update.aborted"
        [
          ("version", Jv_obs.Obs.Str (version_tag h));
          ("phase", Jv_obs.Obs.Str (Updater.phase_to_string a.Updater.a_phase));
          ("reason", Jv_obs.Obs.Str a.Updater.a_reason);
          ("rolled_back",
           Jv_obs.Obs.Str (string_of_bool a.Updater.a_rolled_back));
          ("waited_rounds", Jv_obs.Obs.Int waited);
          ("attempts", Jv_obs.Obs.Int h.h_attempts);
        ]

let finish vm h outcome =
  h.h_outcome <- outcome;
  Safepoint.clear_barriers vm;
  Safepoint.release_parked vm;
  vm.State.dsu_attempt <- None;
  record_outcome vm h outcome

(* End a guard cycle on the original update's handle: the revert landed
   ([Reverted]) or failed ([Aborted]).  The retained log goes either
   way. *)
let end_guard vm (orig : handle) outcome =
  orig.h_guard_busy <- false;
  Txn.release_retained vm;
  orig.h_outcome <- outcome;
  record_outcome vm orig outcome

(* A trip whose revert failed rolls forward to a typed [P_guard] abort —
   the revert's transaction already restored the NEW version, which
   keeps running. *)
let guard_abort vm (orig : handle) (v : Guard.verdict) ~rolled_back
    ~rollback_ms reason =
  end_guard vm orig
    (Aborted
       {
         Updater.a_phase = Updater.P_guard;
         a_reason = Guard.verdict_to_string v ^ "; " ^ reason;
         a_cause = Updater.C_generic;
         a_rolled_back = rolled_back;
         a_rollback_ms = rollback_ms;
       })

(* The revert landed in [ms]: the original update is now [Reverted]. *)
let guard_reverted vm (orig : handle) (v : Guard.verdict) ~ms =
  v.Guard.v_revert_ms <- ms;
  end_guard vm orig (Reverted v)

let rec attempt h vm =
  match h.h_outcome with
  | Applied _ | Reverted _ | Aborted _ -> vm.State.dsu_attempt <- None
  | Pending -> (
      h.h_attempts <- h.h_attempts + 1;
      Jv_obs.Obs.incr vm.State.obs "core.update.attempts";
      (* per attempt: the restricted-set size the safe-point check feeds
         on (post con-freeness subtraction), for --metrics and table1 *)
      Jv_obs.Obs.set_gauge vm.State.obs "core.restricted_set.size"
        (float_of_int
           (Safepoint.IntSet.cardinal h.h_restricted.Safepoint.changed
           + Safepoint.IntSet.cardinal h.h_restricted.Safepoint.stale));
      let t0 = Unix.gettimeofday () in
      match Safepoint.check ~allow_osr:h.h_use_osr vm h.h_restricted with
      | Safepoint.Safe osr_frames -> (
          h.h_sync_ms <- (Unix.gettimeofday () -. t0) *. 1000.0;
          (* time-to-safe-point, in scheduler rounds since the request *)
          Jv_obs.Obs.observe_int vm.State.obs "core.safepoint.rounds"
            (vm.State.ticks - h.h_requested_at);
          let replay =
            match h.h_revert_of with
            | Some _ -> vm.State.guard_retained
            | None -> None
          in
          match
            Updater.apply
              ~retain_log:(h.h_guard <> None)
              ?replay vm h.h_prepared ~restricted:h.h_restricted ~osr_frames
          with
          | Ok timings -> (
              finish vm h (Applied timings);
              match h.h_revert_of with
              | Some (orig, v) ->
                  guard_reverted vm orig v ~ms:timings.Updater.u_total_ms
              | None -> open_guard vm h)
          | Error a ->
              abort_attempt vm h a ~rolled_back:a.Updater.a_rolled_back)
      | Safepoint.Blocked stuck ->
          h.h_stuck <- Safepoint.blocker_list vm h.h_restricted stuck;
          let blockers = Safepoint.describe_blockers vm h.h_restricted stuck in
          if blockers <> h.h_blockers then
            Jv_obs.Obs.emit vm.State.obs ~scope:"core.update" "update.blocked"
              [
                ("version", Jv_obs.Obs.Str (version_tag h));
                ("blockers", Jv_obs.Obs.Str blockers);
              ];
          h.h_blockers <- blockers;
          if vm.State.ticks > h.h_deadline then begin
            (* name the culprit, not just "timeout" (starvation diag) *)
            let reason =
              match h.h_stuck with
              | [] -> "timeout: restricted methods still on stack"
              | b :: rest ->
                  Printf.sprintf
                    "timeout: thread %d blocked the DSU safe point in \
                     restricted frame %s%s%s"
                    b.Safepoint.b_tid b.Safepoint.b_method
                    (match b.Safepoint.b_why with
                    | None -> ""
                    | Some w -> " [" ^ w ^ "]")
                    (match rest with
                    | [] -> ""
                    | _ ->
                        Printf.sprintf " (+%d more: %s)" (List.length rest)
                          (String.concat ", "
                             (List.map Safepoint.blocker_to_string rest)))
            in
            abort_attempt vm h (Updater.sync_abort reason) ~rolled_back:false
          end
          else if h.h_use_barriers then begin
            let installed = Safepoint.install_barriers stuck in
            if installed > 0 then begin
              Jv_obs.Obs.incr ~by:installed vm.State.obs
                "core.update.barriers_installed";
              Jv_obs.Obs.emit vm.State.obs ~scope:"core.update"
                "update.barriers"
                [
                  ("version", Jv_obs.Obs.Str (version_tag h));
                  ("installed", Jv_obs.Obs.Int installed);
                ]
            end;
            h.h_barriers_installed <- h.h_barriers_installed + installed;
            (* threads parked at a fired barrier that still have deeper
               restricted frames must run on to clear them *)
            Safepoint.unpark_stuck stuck
          end)

(* The attempt aborted.  A failed revert also ends its original's guard
   cycle, [rolled_back] or not. *)
and abort_attempt vm h a ~rolled_back =
  finish vm h (Aborted a);
  Option.iter
    (fun (orig, v) ->
      guard_abort vm orig v ~rolled_back ~rollback_ms:a.Updater.a_rollback_ms
        (Printf.sprintf "revert failed [%s]: %s"
           (Updater.phase_to_string a.Updater.a_phase)
           a.Updater.a_reason))
    h.h_revert_of

(* A guarded update just applied: retain-commit already happened inside
   [Updater.apply]; open the watch window and hand its tick to the
   scheduler. *)
and open_guard vm h =
  match h.h_guard with
  | None -> ()
  | Some cfg ->
      let g = Guard.open_window cfg vm in
      h.h_guard_state <- Some g;
      h.h_guard_busy <- true;
      vm.State.guard_tick <- Some (guard_step h g)

and guard_step h g vm =
  match Guard.tick vm g with
  | `Watching -> ()
  | `Close ->
      vm.State.guard_tick <- None;
      h.h_guard_state <- None;
      h.h_guard_busy <- false;
      Txn.release_retained vm
  | `Trip v ->
      vm.State.guard_tick <- None;
      h.h_guard_state <- None;
      start_revert vm h v

(* The budget tripped: build the inverse update and push it through the
   normal pipeline at this very safe point (the scheduler calls the guard
   tick between rounds, with no thread mid-slice).  Failures that prevent
   the revert from even starting roll forward to a [P_guard] abort. *)
and start_revert vm h v =
  Jv_obs.Obs.emit vm.State.obs ~scope:"core.guard" "guard.reverting"
    [
      ("version", Jv_obs.Obs.Str (version_tag h));
      ("signal", Jv_obs.Obs.Str (Guard.signal_to_string v.Guard.v_signal));
    ];
  (* a guarded update that committed lazily and whose residual
     transformer trapped during the forced drain: the window's own
     rollback restored the old version — that IS the revert, when its
     verdict can be trusted *)
  match State.drain_window vm with
  | Ok () -> start_revert_eager vm h v
  | Error rb when rb.State.rb_ok -> guard_reverted vm h v ~ms:rb.State.rb_ms
  | Error rb ->
      guard_abort vm h v ~rolled_back:false ~rollback_ms:rb.State.rb_ms
        ("revert failed [drain]: window rollback" ^ rb.State.rb_note)

(* The inverse update needs every object on the new layout before its
   transforming collection runs, so a still-draining lazy window is
   forced to completion first ([State.drain_window] above). *)
and start_revert_eager vm h v =
  match Transformers.inverse h.h_prepared with
  | Error msg ->
      guard_abort vm h v ~rolled_back:false ~rollback_ms:0.0
        ("inverse prepare failed: " ^ msg)
  | Ok prepared ->
      if vm.State.dsu_attempt <> None then
        guard_abort vm h v ~rolled_back:false ~rollback_ms:0.0
          "revert blocked: another update is pending"
      else begin
        (* reverts are not themselves guarded *)
        let rh =
          new_handle vm prepared ~timeout_rounds:h.h_timeout_rounds
            ~use_osr:h.h_use_osr ~use_barriers:h.h_use_barriers ~guard:None
            ~revert_of:(Some (h, v))
        in
        vm.State.dsu_attempt <- Some (attempt rh);
        (* the world is stopped between rounds: try right now, so a clean
           revert lands without running another request round on the bad
           version *)
        attempt rh vm
      end

(* An external driver (the fleet orchestrator) forcing an open window to
   trip: the in-VM revert replays the retained log exactly as a
   budget-driven trip would, so a fleet-wide coordinated revert restores
   forward-dropped field values instead of defaulting them. *)
let force_trip vm (h : handle) ~reason =
  match h.h_guard_state with
  | None -> ()
  | Some g ->
      vm.State.guard_tick <- None;
      Guard.cancel vm g;
      h.h_guard_state <- None;
      let v =
        {
          Guard.v_signal = Guard.S_injected;
          v_detail = reason;
          v_round = Guard.round_of vm g;
          v_traps = 0;
          v_app_errors = 0;
          v_probe_failures = 0;
          v_p99 = 0.0;
          v_baseline_p99 = 0.0;
          v_revert_ms = 0.0;
        }
      in
      start_revert vm h v

(* Signal the VM that an update is available.  The update is applied by the
   scheduler at the next DSU safe point.  Raises [Busy] if another update
   is already pending.

   Admission control runs first: a rejected update resolves immediately
   as [Aborted] in phase [P_admit] — the attempt hook is never installed,
   so the VM never pauses. *)
let request ?(timeout_rounds = default_timeout_rounds) ?(use_osr = true)
    ?(use_barriers = true) ?(admit_strict = false) ?guard vm
    (prepared : Transformers.prepared) : handle =
  if vm.State.dsu_attempt <> None then raise Busy;
  let h =
    new_handle vm prepared ~timeout_rounds ~use_osr ~use_barriers ~guard
      ~revert_of:None
  in
  Jv_obs.Obs.incr vm.State.obs "core.update.requests";
  Jv_obs.Obs.emit vm.State.obs ~scope:"core.update" "update.requested"
    [
      ( "version",
        Jv_obs.Obs.Str prepared.Transformers.p_spec.Spec.version_tag );
      ("timeout_rounds", Jv_obs.Obs.Int timeout_rounds);
      ("guarded", Jv_obs.Obs.Str (string_of_bool (guard <> None)));
    ];
  (match h.h_restricted.Safepoint.proofs with
  | None -> ()
  | Some t ->
      Jv_obs.Obs.set_gauge vm.State.obs "core.confree.proven"
        (float_of_int h.h_restricted.Safepoint.proven_off);
      Jv_obs.Obs.observe vm.State.obs "core.confree.analyze_ms"
        t.Confree.analyzed_ms;
      Jv_obs.Obs.emit vm.State.obs ~scope:"core.update" "update.confree"
        [
          ( "version",
            Jv_obs.Obs.Str prepared.Transformers.p_spec.Spec.version_tag );
          ("summary", Jv_obs.Obs.Str (Confree.summary t));
          ("proven_off", Jv_obs.Obs.Int h.h_restricted.Safepoint.proven_off);
        ]);
  let rejected =
    let rep =
      Admission.review ~confree:vm.State.config.State.confree prepared
    in
    let obs = vm.State.obs in
    Jv_obs.Obs.incr obs "core.admission.reviews";
    Jv_obs.Obs.observe obs "core.admission.ms" rep.Admission.a_ms;
    let warns =
      List.length
        (List.filter
           (fun v -> v.Admission.v_severity = Admission.Warn)
           rep.Admission.a_verdicts)
    in
    Jv_obs.Obs.incr ~by:warns obs "core.admission.warns";
    let rej = Admission.rejections ~strict:admit_strict rep in
    Jv_obs.Obs.incr ~by:(List.length rej) obs "core.admission.rejections";
    if rej <> [] then
      Jv_obs.Obs.emit obs ~scope:"core.admission" "admission.rejected"
        [
          ( "version",
            Jv_obs.Obs.Str prepared.Transformers.p_spec.Spec.version_tag );
          ("verdicts", Jv_obs.Obs.Str (String.concat "; " rej));
          ("strict", Jv_obs.Obs.Str (string_of_bool admit_strict));
        ];
    rej
  in
  (match rejected with
  | [] -> vm.State.dsu_attempt <- Some (attempt h)
  | reasons ->
      h.h_outcome <- Aborted (Updater.admission_abort reasons);
      record_outcome vm h h.h_outcome);
  h

(* Convenience: prepare from a spec and request in one step. *)
let request_spec ?timeout_rounds ?use_osr ?use_barriers ?admit_strict ?guard vm
    (spec : Spec.t) : handle =
  request ?timeout_rounds ?use_osr ?use_barriers ?admit_strict ?guard vm
    (Transformers.prepare spec)

(* Drive the scheduler until [h] resolves (or [max_rounds] elapses). *)
let run_to_resolved ~max_rounds vm h =
  let n = ref 0 in
  while h.h_outcome = Pending && !n < max_rounds do
    Jv_vm.Sched.round vm;
    incr n
  done;
  h

(* Convenience for tests and benchmarks: request the update and drive the
   scheduler until it resolves (or [max_rounds] elapses). *)
let update_now ?timeout_rounds ?use_osr ?use_barriers ?admit_strict ?guard
    ?(max_rounds = 10_000) vm spec : handle =
  run_to_resolved ~max_rounds vm
    (request_spec ?timeout_rounds ?use_osr ?use_barriers ?admit_strict ?guard
       vm spec)

let guard_active h = h.h_guard_busy

(* Drive the scheduler until the whole guard cycle resolves: the update
   applies (or aborts), then the window either closes clean or trips and
   the revert lands.  The terminal outcome is the handle's. *)
let run_to_guard_close ?(max_rounds = 10_000) vm (h : handle) =
  let n = ref 0 in
  while (h.h_outcome = Pending || h.h_guard_busy) && !n < max_rounds do
    Jv_vm.Sched.round vm;
    incr n
  done;
  h.h_outcome

let resolved h =
  match h.h_outcome with
  | Pending -> false
  | Applied _ | Reverted _ | Aborted _ -> true

let succeeded h =
  match h.h_outcome with
  | Applied _ -> true
  | Pending | Reverted _ | Aborted _ -> false

(* A plain-data snapshot of one update attempt, for orchestrators that
   aggregate outcomes across a fleet of VMs. *)
type attempt_report = {
  ar_outcome : outcome;
  ar_attempts : int;
  ar_barriers_installed : int;
  ar_sync_ms : float;
  ar_blockers : string;
  ar_stuck : Safepoint.blocker list;
  ar_waited_rounds : int; (* ticks from request to resolution (or so far) *)
}

let report vm h =
  {
    ar_outcome = h.h_outcome;
    ar_attempts = h.h_attempts;
    ar_barriers_installed = h.h_barriers_installed;
    ar_sync_ms = h.h_sync_ms;
    ar_blockers = h.h_blockers;
    ar_stuck = h.h_stuck;
    ar_waited_rounds = vm.State.ticks - h.h_requested_at;
  }

let outcome_to_string = function
  | Pending -> "pending"
  | Applied t ->
      Printf.sprintf
        "applied (load %.2fms, gc %.2fms, transform %.2fms, total %.2fms, \
         %d objects transformed, %d OSRs)"
        t.Updater.u_load_ms t.Updater.u_gc_ms t.Updater.u_transform_ms
        t.Updater.u_total_ms t.Updater.u_transformed_objects t.Updater.u_osr
  | Reverted v -> "reverted: " ^ Guard.verdict_to_string v
  | Aborted a -> "aborted: " ^ Updater.abort_to_string a
