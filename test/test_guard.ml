(* The post-commit guard window (lib/core/guard): error-budget trips on
   every signal, automatic in-VM reverts replaying the retained update
   log, roll-forward to a typed abort when the revert itself faults, and
   the fleet-wide fenced revert when a canary trips its guard. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module F = Jv_fleet
module Simnet = Jv_simnet.Simnet
module Faults = Jv_faults.Faults

(* A long-running main that keeps printing the state of one heap object:
   the forward update adds a field and changes the printed prefix, so
   both the code swap and the revert are visible in the output. *)
let box_src ~extra ~prefix =
  Printf.sprintf
    {|
class Box { int a; %s}
class Keeper { static Box it; }
class Probe {
  static String line() { return "%s" + Keeper.it.a; }
}
class Main {
  static void main() {
    Keeper.it = new Box();
    Keeper.it.a = 41;
    for (int i = 0; i < 300; i = i + 1) {
      Sys.println(Probe.line());
      Thread.yieldNow();
    }
  }
}
|}
    (if extra then "int b; " else "")
    prefix

let boot_box () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program (box_src ~extra:false ~prefix:"v"));
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  vm

let box_spec ~tag =
  J.Spec.make ~version_tag:tag
    ~old_program:
      (Jv_lang.Compile.compile_program (box_src ~extra:false ~prefix:"v"))
    ~new_program:
      (Jv_lang.Compile.compile_program (box_src ~extra:true ~prefix:"w"))
    ()

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let signal_str v = J.Guard.signal_to_string v.J.Guard.v_signal

(* --- budget trips, one test per synthetic signal ------------------------- *)

(* Arm a guard.* fault point on a freshly guarded commit and check the
   watchdog trips on the expected signal, reverts, and the old code is
   demonstrably back (output returns to the old version's prefix with the
   original field value). *)
let check_trip ~point ~fires ~want_signal () =
  let vm = boot_box () in
  let h =
    J.Jvolve.update_now ~guard:(J.Guard.config ()) vm (box_spec ~tag:"t1")
  in
  Alcotest.(check bool) "update applied" true (J.Jvolve.succeeded h);
  let plan = Faults.create ~seed:3 () in
  Faults.arm plan ~point ~max_fires:fires Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted v ->
      Alcotest.(check string) "trip signal" want_signal (signal_str v)
  | o ->
      Alcotest.failf "expected a revert, got %s" (J.Jvolve.outcome_to_string o));
  VM.Vm.set_faults vm None;
  ignore (VM.Vm.run_to_quiescence ~max_rounds:2_000 vm);
  Alcotest.(check string) "old code and field value restored" "v41"
    (last_line (VM.Vm.output vm));
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) "heap verifies after revert" true r.VM.Heapverify.hv_ok

let test_trip_on_traps () =
  check_trip ~point:"guard.trap" ~fires:1 ~want_signal:"trap-rate" ()

let test_trip_on_latency () =
  check_trip ~point:"guard.latency" ~fires:1 ~want_signal:"latency" ()

let test_trip_on_probe_failures () =
  (* default budget tolerates 2 probe failures; the third trips *)
  check_trip ~point:"guard.probe" ~fires:3 ~want_signal:"probe-failures" ()

(* --- the real error-budget signal: a semantically-bad release ------------ *)

(* miniweb 5.1.11 passes admission (it type-checks; the bug is a wrong
   loop bound) but 404s most static traffic.  Under load the app-error
   budget must trip and auto-revert with zero dropped connections. *)
let test_trip_on_app_errors () =
  let d = A.App.miniweb in
  let vm = A.App.boot d (A.App.compile d ~version:"5.1.10") in
  let w = List.hd (A.App.attach vm d ~concurrency:4) in
  VM.Vm.run vm ~rounds:80;
  let spec =
    J.Spec.make ~version_tag:"5110"
      ~old_program:
        (A.App.compile A.App.miniweb ~version:"5.1.10")
      ~new_program:
        (A.App.compile A.App.miniweb ~version:A.Miniweb.bad_update)
      ()
  in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm spec
  in
  Alcotest.(check bool) "bad update passes admission and applies" true
    (J.Jvolve.succeeded h);
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted v ->
      Alcotest.(check string) "tripped on app errors" "app-errors"
        (signal_str v)
  | o ->
      Alcotest.failf "expected a revert, got %s" (J.Jvolve.outcome_to_string o));
  (* the restored version serves cleanly: no new errors once the bad
     epoch's queued responses have drained *)
  VM.Vm.run vm ~rounds:10;
  let errors = w.A.Workload.load.errors
  and before = w.A.Workload.load.completed_requests in
  VM.Vm.run vm ~rounds:150;
  Alcotest.(check bool) "still serving" true
    (w.A.Workload.load.completed_requests > before);
  Alcotest.(check int) "no errors after the revert" errors
    w.A.Workload.load.errors;
  Alcotest.(check int) "zero dropped connections" 0
    w.A.Workload.load.dropped_in_flight

(* --- clean close --------------------------------------------------------- *)

let test_clean_close_frees_log () =
  let vm = boot_box () in
  let budget = { J.Guard.default_budget with J.Guard.b_rounds = 25 } in
  let h =
    J.Jvolve.update_now
      ~guard:(J.Guard.config ~budget ())
      vm (box_spec ~tag:"t2")
  in
  Alcotest.(check bool) "update applied" true (J.Jvolve.succeeded h);
  Alcotest.(check bool) "window open" true (J.Jvolve.guard_active h);
  Alcotest.(check bool) "log retained while the window is open" true
    (vm.VM.State.guard_retained <> None);
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "expected a clean close, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check bool) "window closed" false (J.Jvolve.guard_active h);
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  ignore (VM.Vm.run_to_quiescence ~max_rounds:2_000 vm);
  Alcotest.(check string) "new version kept" "w41"
    (last_line (VM.Vm.output vm));
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) "heap verifies after close" true r.VM.Heapverify.hv_ok

(* --- a fault during the revert rolls forward to a typed abort ------------ *)

let test_revert_under_fault_rolls_forward () =
  let vm = boot_box () in
  let h =
    J.Jvolve.update_now ~guard:(J.Guard.config ()) vm (box_spec ~tag:"t3")
  in
  Alcotest.(check bool) "update applied" true (J.Jvolve.succeeded h);
  let plan = Faults.create ~seed:5 () in
  Faults.arm plan ~point:"guard.trip" ~max_fires:1 Faults.Raise;
  Faults.arm plan ~point:"guard.revert" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string) "abort phase is the guard" "guard"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      Alcotest.(check bool) "reason names the failed revert" true
        (Helpers.contains a.J.Updater.a_reason "revert failed");
      Alcotest.(check bool) "the revert transaction rolled back" true
        a.J.Updater.a_rolled_back
  | o ->
      Alcotest.failf "expected a roll-forward abort, got %s"
        (J.Jvolve.outcome_to_string o));
  VM.Vm.set_faults vm None;
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  Alcotest.(check bool) "VM alive" true (VM.Vm.killed vm = None);
  ignore (VM.Vm.run_to_quiescence ~max_rounds:2_000 vm);
  (* rolled forward: the VM stays on the (suspect) new version *)
  Alcotest.(check string) "still on the new version" "w41"
    (last_line (VM.Vm.output vm));
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) "heap verifies after roll-forward" true
    r.VM.Heapverify.hv_ok

(* --- a guarded commit that fails after its transformers ran -------------- *)

(* With a guard window requested, the update log is kept past the
   transform phase for retention; a failure at the last phase (OSR) must
   still roll the heap back from that log and leave nothing retained. *)
let test_guarded_osr_failure_rolls_back () =
  let vm = boot_box () in
  let plan = Faults.create ~seed:7 () in
  Faults.arm plan ~point:"updater.osr" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let h =
    J.Jvolve.update_now ~guard:(J.Guard.config ()) vm (box_spec ~tag:"t4")
  in
  VM.Vm.set_faults vm None;
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string) "abort phase" "osr"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      Alcotest.(check bool) "rolled back" true a.J.Updater.a_rolled_back
  | o ->
      Alcotest.failf "expected an OSR abort, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check bool) "no guard window" false (J.Jvolve.guard_active h);
  Alcotest.(check bool) "nothing retained" true
    (vm.VM.State.guard_retained = None);
  let r = VM.Heapverify.run ~collect_stale:false vm in
  Alcotest.(check bool) "heap verifies after the rollback" true
    r.VM.Heapverify.hv_ok;
  ignore (VM.Vm.run_to_quiescence ~max_rounds:2_000 vm);
  Alcotest.(check string) "old code and field value kept" "v41"
    (last_line (VM.Vm.output vm))

(* --- one compiled program and one prepared update on two VMs -------------- *)

(* A fleet boots every instance from one compiled program list and
   requests one prepared update on all of them.  That is sound only if
   nothing a VM does — booting, committing, a guard revert replaying the
   retained log, an eager abort rolling back — writes into the shared
   class lists or the prepared bundle. *)
let test_shared_program_and_prepared () =
  let program =
    Jv_lang.Compile.compile_program (box_src ~extra:false ~prefix:"v")
  in
  let prepared =
    J.Transformers.prepare
      (J.Spec.make ~version_tag:"sh" ~old_program:program
         ~new_program:
           (Jv_lang.Compile.compile_program (box_src ~extra:true ~prefix:"w"))
         ())
  in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let digest_prepared (p : J.Transformers.prepared) =
    digest
      ( p.J.Transformers.p_spec,
        p.J.Transformers.p_transformer,
        p.J.Transformers.p_stubs,
        p.J.Transformers.p_source )
  in
  let program0 = digest program and prepared0 = digest_prepared prepared in
  let boot () =
    let vm = VM.Vm.create ~config:Helpers.test_config () in
    VM.Vm.boot vm program;
    ignore (VM.Vm.spawn_main vm ~main_class:"Main");
    VM.Vm.run vm ~rounds:5;
    vm
  in
  let run_until vm h =
    let n = ref 0 in
    while (not (J.Jvolve.resolved h)) && !n < 2_000 do
      VM.Vm.run vm ~rounds:1;
      incr n
    done
  in
  (* VM a: a guarded commit, tripped, reverts by the inverse update *)
  let vm_a = boot () in
  let h_a = J.Jvolve.request ~guard:(J.Guard.config ()) vm_a prepared in
  run_until vm_a h_a;
  Alcotest.(check bool) "a: applied" true (J.Jvolve.succeeded h_a);
  J.Jvolve.force_trip vm_a h_a ~reason:"test: trip a shared update";
  (match J.Jvolve.run_to_guard_close vm_a h_a with
  | J.Jvolve.Reverted _ -> ()
  | o ->
      Alcotest.failf "a: expected a revert, got %s"
        (J.Jvolve.outcome_to_string o));
  (* VM b: the same prepared update aborts in its transform phase *)
  let vm_b = boot () in
  let plan = Faults.create ~seed:9 () in
  Faults.arm plan ~point:"updater.transform" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm_b (Some plan);
  let h_b = J.Jvolve.request vm_b prepared in
  run_until vm_b h_b;
  VM.Vm.set_faults vm_b None;
  (match h_b.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string) "b: abort phase" "transform"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      Alcotest.(check bool) "b: rolled back" true a.J.Updater.a_rolled_back
  | o ->
      Alcotest.failf "b: expected an abort, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check string) "shared program unchanged" program0 (digest program);
  Alcotest.(check string) "shared prepared update unchanged" prepared0
    (digest_prepared prepared);
  List.iter
    (fun (name, vm) ->
      ignore (VM.Vm.run_to_quiescence ~max_rounds:2_000 vm);
      Alcotest.(check string) (name ^ ": back on the old version") "v41"
        (last_line (VM.Vm.output vm));
      let r = VM.Heapverify.run vm in
      Alcotest.(check bool) (name ^ ": heap verifies") true
        r.VM.Heapverify.hv_ok)
    [ ("a", vm_a); ("b", vm_b) ]

(* --- fleet: a canary tripping its guard fences the rollout --------------- *)

let fleet_config =
  { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 18 }

let boot_fleet ~size ~version =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
      ~profile:A.App.miniweb ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:6 fleet);
  F.Fleet.run fleet ~rounds:100;
  fleet

let test_canary_guard_trip_fences_rollout () =
  let fleet = boot_fleet ~size:4 ~version:"5.1.10" in
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Canary
            { canaries = 1; observe_rounds = 250; promote_batch = 1 }))
      with
      F.Orchestrator.update_timeout = 200;
      guard = Some (J.Guard.config ());
    }
  in
  let r =
    F.Orchestrator.run ~params ~fleet ~to_version:A.Miniweb.bad_update ()
  in
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check bool) "rollout fenced, not ok" false r.F.Orchestrator.r_ok;
  Alcotest.(check bool) "a guard trip is reported" true
    (r.F.Orchestrator.r_guard_tripped <> []);
  Alcotest.(check (list int)) "nobody left on the bad version" []
    r.F.Orchestrator.r_updated;
  Alcotest.(check (option string)) "fleet back on the old version"
    (Some "5.1.10")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped in-flight connections" 0
    (F.Fleet.dropped_in_flight fleet)

(* A rolling rollout: by the time an early instance's guard trips, later
   instances have already committed — the fence must revert them all
   (open windows in-VM via a forced trip, closed ones by inverse spec). *)
let test_rolling_guard_trip_reverts_updated () =
  let fleet = boot_fleet ~size:3 ~version:"5.1.10" in
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Rolling { batch_size = 1 }))
      with
      F.Orchestrator.update_timeout = 200;
      guard = Some (J.Guard.config ());
    }
  in
  let r =
    F.Orchestrator.run ~params ~fleet ~to_version:A.Miniweb.bad_update ()
  in
  F.Fleet.run fleet ~rounds:30;
  Alcotest.(check bool) "rollout fenced, not ok" false r.F.Orchestrator.r_ok;
  Alcotest.(check bool) "a guard trip is reported" true
    (r.F.Orchestrator.r_guard_tripped <> []);
  Alcotest.(check (list int)) "nobody left on the bad version" []
    r.F.Orchestrator.r_updated;
  Alcotest.(check (option string)) "fleet back on the old version"
    (Some "5.1.10")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no instance stranded out of service" 0
    (List.length r.F.Orchestrator.r_rollback_failed)

(* Past its last wave, a guarded rollout runs on only while its guard
   windows are open; its progress line must say so, not "starting". *)
let test_describe_names_open_guard_windows () =
  let fleet = boot_fleet ~size:2 ~version:"5.1.1" in
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Rolling { batch_size = 1 }))
      with
      F.Orchestrator.guard = Some (J.Guard.config ());
    }
  in
  let lines = ref [] in
  let note o =
    let l = F.Orchestrator.describe o in
    match !lines with
    | prev :: _ when String.equal prev l -> ()
    | _ -> lines := l :: !lines
  in
  let t = F.Orchestrator.create ~params ~fleet ~to_version:"5.1.2" () in
  note t;
  let r = F.Orchestrator.drive ~on_round:note t in
  Alcotest.(check bool) "rollout ok" true r.F.Orchestrator.r_ok;
  let lines = List.rev !lines in
  Alcotest.(check string) "first line" "starting" (List.hd lines);
  Alcotest.(check bool) "the second wave's probe precedes the watch" true
    (List.mem "update wave [1]: health probing" lines);
  let watching =
    List.filter (fun l -> Helpers.contains l "guard window(s)") lines
  in
  Alcotest.(check (list string)) "one line per open-window count"
    [ "watching 2 guard window(s)"; "watching 1 guard window(s)" ]
    watching;
  Alcotest.(check bool) "no \"starting\" after the first wave" false
    (List.mem "starting" (List.tl lines))

(* --- property: apply + trip + revert == never updated -------------------- *)

(* Observational identity on a fresh client session: drive the app's own
   protocol script against (a) a server that never updated and (b) one
   that applied the update under guard, was force-tripped, and reverted.
   The response transcripts must be identical, for all three apps. *)

let collect_responses vm ~port ~script =
  let net = vm.Jv_vm.State.net in
  match Simnet.connect net ~port with
  | None -> [ "<no listener>" ]
  | Some cid ->
      let out = ref [] in
      let remaining = ref script in
      (match !remaining with
      | l :: rest ->
          Simnet.client_send net ~conn_id:cid l;
          remaining := rest
      | [] -> ());
      (* fixed round budget in both scenarios: each received line is
         recorded and triggers the next send *)
      for _ = 1 to 400 do
        VM.Sched.round vm;
        match Simnet.client_recv net ~conn_id:cid with
        | `Line resp -> (
            out := resp :: !out;
            match !remaining with
            | l :: rest ->
                Simnet.client_send net ~conn_id:cid l;
                remaining := rest
            | [] -> ())
        | `Eof | `Wait -> ()
      done;
      Simnet.client_close net ~conn_id:cid;
      Simnet.reap net ~conn_id:cid;
      List.rev !out

let app_pairs =
  [|
    (A.App.miniweb, "5.1.4", "5.1.5");
    (A.App.minimail, "1.3.1", "1.3.2");
    (A.App.miniftp, "1.06", "1.07");
  |]

let transcript ~updated (d, from_v, to_v) ~warm =
  (* no background load: both scenarios see a server whose state depends
     only on its code, not on how many rounds have elapsed *)
  let vm = A.App.boot d (A.App.compile d ~version:from_v) in
  VM.Vm.run vm ~rounds:warm;
  if updated then begin
    let spec =
      A.App.spec d ~from_version:from_v ~to_version:to_v
        ~old_program:(A.App.compile d ~version:from_v)
        ~new_program:(A.App.compile d ~version:to_v)
    in
    let h =
      J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm
        spec
    in
    if not (J.Jvolve.succeeded h) then
      QCheck.Test.fail_reportf "%s: update did not apply: %s"
        d.A.App.pr_name
        (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
    let plan = Faults.create ~seed:9 () in
    Faults.arm plan ~point:"guard.trip" ~max_fires:1 Faults.Raise;
    VM.Vm.set_faults vm (Some plan);
    (match J.Jvolve.run_to_guard_close vm h with
    | J.Jvolve.Reverted _ -> ()
    | o ->
        QCheck.Test.fail_reportf "%s: expected a revert, got %s"
          d.A.App.pr_name
          (J.Jvolve.outcome_to_string o));
    VM.Vm.set_faults vm None
  end;
  List.concat_map
    (fun (port, script) -> collect_responses vm ~port ~script)
    (A.App.loads d)

let prop_revert_observationally_identical =
  QCheck.Test.make
    ~name:"apply + guard trip + revert is observationally identical to \
           never updating"
    ~count:6
    QCheck.(pair (int_range 0 2) (int_range 0 30))
    (fun (app, warm) ->
      (* stock shrinkers wander outside int_range: clamp *)
      let app = max 0 (min 2 app) in
      let warm = 10 + max 0 (min 30 warm) in
      let pair = app_pairs.(app) in
      let baseline = transcript ~updated:false pair ~warm in
      let reverted = transcript ~updated:true pair ~warm in
      if baseline <> reverted then
        QCheck.Test.fail_reportf
          "transcripts diverge for %s:\n  never-updated: %s\n  reverted:      %s"
          (let d, _, _ = pair in
           d.A.App.pr_name)
          (String.concat " | " baseline)
          (String.concat " | " reverted);
      true)

(* --- the built-in loopback prober ----------------------------------------- *)

(* One probe (every 10 rounds, deadline 3) inside a 16-round window on a
   bare VM, against a listener run from OCaml on the VM's own net (none
   when [answer] is absent); returns the probe failures the window
   reports when it closes. *)
let window_probe_failures ?banner ?answer () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  let port = 7100 in
  let server =
    Option.map
      (fun answer ->
        Helpers.Line_server.create ?banner vm.VM.State.net ~port answer)
      answer
  in
  let budget =
    {
      J.Guard.default_budget with
      J.Guard.b_rounds = 16;
      b_max_probe_failures = 100;
    }
  in
  let probe =
    J.Guard.probe_config ~every:10 ~deadline:3 ~port ~line:"PING"
      ~ok:(fun r -> r = "+OK pong") ()
  in
  let g = J.Guard.open_window (J.Guard.config ~budget ~probe ()) vm in
  let rec go () =
    vm.VM.State.ticks <- vm.VM.State.ticks + 1;
    Option.iter
      (fun s -> Helpers.Line_server.serve s ~tick:vm.VM.State.ticks)
      server;
    match J.Guard.tick vm g with
    | `Watching -> go ()
    | `Trip v ->
        Alcotest.failf "window tripped: %s" (J.Guard.verdict_to_string v)
    | `Close -> ()
  in
  go ();
  let closed =
    List.find
      (fun (ev : Jv_obs.Obs.event) -> ev.Jv_obs.Obs.ev_name = "guard.closed")
      (Jv_obs.Obs.events vm.VM.State.obs)
  in
  match List.assoc "probe_failures" closed.Jv_obs.Obs.ev_fields with
  | Jv_obs.Obs.Int n -> n
  | _ -> Alcotest.fail "probe_failures is not an int"

let test_prober_counts_one_failure_each () =
  Alcotest.(check int) "refused connect" 1 (window_probe_failures ());
  Alcotest.(check int) "server EOF" 1
    (window_probe_failures ~answer:(fun _ _ -> `Hang_up) ());
  Alcotest.(check int) "missed deadline" 1
    (window_probe_failures ~answer:(fun _ _ -> `Silent) ());
  Alcotest.(check int) "only sick replies until the deadline" 1
    (window_probe_failures ~answer:(fun _ _ -> `Reply "-ERR sick") ())

let test_prober_skips_banner () =
  Alcotest.(check int) "banner before the ok line" 0
    (window_probe_failures ~banner:"* welcome"
       ~answer:(fun _ _ -> `Reply "+OK pong") ())

let suite =
  [
    Alcotest.test_case "prober: refused, EOF and deadline fail once each"
      `Quick test_prober_counts_one_failure_each;
    Alcotest.test_case "prober: a banner before the ok line is no failure"
      `Quick test_prober_skips_banner;
    Alcotest.test_case "trip on trap-rate, revert restores old code" `Quick
      test_trip_on_traps;
    Alcotest.test_case "trip on latency" `Quick test_trip_on_latency;
    Alcotest.test_case "trip on probe failures" `Quick
      test_trip_on_probe_failures;
    Alcotest.test_case "trip on app errors (bad miniweb release)" `Quick
      test_trip_on_app_errors;
    Alcotest.test_case "clean close keeps the update and frees the log"
      `Quick test_clean_close_frees_log;
    Alcotest.test_case "fault during revert rolls forward to a guard abort"
      `Quick test_revert_under_fault_rolls_forward;
    Alcotest.test_case "guarded commit failing at OSR rolls back the log"
      `Quick test_guarded_osr_failure_rolls_back;
    Alcotest.test_case "one program and one prepared update on two VMs"
      `Quick test_shared_program_and_prepared;
    Alcotest.test_case "fleet: canary guard trip fences the rollout" `Quick
      test_canary_guard_trip_fences_rollout;
    Alcotest.test_case "fleet: rolling guard trip reverts updated instances"
      `Quick test_rolling_guard_trip_reverts_updated;
    Alcotest.test_case "fleet: progress past the last wave names guard windows"
      `Quick test_describe_names_open_guard_windows;
    QCheck_alcotest.to_alcotest prop_revert_observationally_identical;
  ]
