(* The post-commit guard window: an error-budget watchdog over a freshly
   committed update.

   Admission control, the transformer sandbox and the update transaction
   (PRs 3-4) end their safety story at the commit point; an update that
   passes all of them can still be *semantically* wrong and only show it
   under live traffic.  After a guarded commit the VM keeps the update
   log alive ([Txn.commit_retaining]) and watches, for a bounded number
   of scheduler rounds, three signals against pre-update baselines:

   - trap rate: interpreter traps attributed to the new code epoch
     ([State.traps_at_epoch] — the world is stopped while an update
     installs code, so raise-time epoch equals code epoch);
   - app-level errors: server responses the VM's response classifier
     rejects (the 5xx signal), attributed the same way;
   - health probes: a built-in loopback prober (the sidecar pattern from
     [Fleet.Health]) and/or failures fed in by an orchestrator;
   - p99 latency: the request-latency histogram's windowed quantile
     ([Metrics.since] a snapshot taken when the window opened) against
     the pre-update p99 from the same histogram.

   Tripping any budget yields a [verdict]; the driver ([Jvolve]) then
   applies the inverse update through the normal pipeline, replaying the
   retained log ([Updater.apply ~replay]).  This module owns only the
   watching — it deliberately does not depend on [Jvolve] or [Updater].

   Fault points, for driving every trip deterministically in tests and
   benches: [guard.trap] (synthetic new-epoch trap), [guard.probe]
   (synthetic probe failure), [guard.latency] (condemn the latency
   comparison), [guard.trip] (trip immediately).  [guard.revert] lives in
   the updater, on the revert path itself. *)

module State = Jv_vm.State
module Rt = Jv_vm.Rt
module Client = Jv_simnet.Client
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics
module Faults = Jv_faults.Faults

(* --- the error budget --------------------------------------------------- *)

type budget = {
  b_rounds : int; (* window length in scheduler rounds *)
  b_max_traps : int; (* new-epoch traps tolerated (strictly more trips) *)
  b_max_app_errors : int; (* classifier-rejected responses tolerated *)
  b_max_probe_failures : int;
  b_latency_factor : float; (* window p99 may exceed baseline by this *)
  b_min_latency_samples : int; (* don't judge p99 on thin traffic *)
}

let default_budget =
  {
    b_rounds = 200;
    b_max_traps = 0;
    b_max_app_errors = 2;
    b_max_probe_failures = 2;
    b_latency_factor = 3.0;
    b_min_latency_samples = 32;
  }

let budget_to_string b =
  Printf.sprintf "rounds=%d,traps=%d,errors=%d,probes=%d,latency=%g,samples=%d"
    b.b_rounds b.b_max_traps b.b_max_app_errors b.b_max_probe_failures
    b.b_latency_factor b.b_min_latency_samples

(* "rounds=200,traps=0,errors=2,probes=2,latency=3,samples=32" — any
   subset of keys, the rest keep their defaults. *)
let budget_of_string s : (budget, string) result =
  let parse_one acc kv =
    match String.split_on_char '=' (String.trim kv) with
    | [ k; v ] -> (
        let int () =
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "bad value %S for %s" v k)
        in
        match k with
        | "rounds" -> Result.map (fun n -> { acc with b_rounds = n }) (int ())
        | "traps" -> Result.map (fun n -> { acc with b_max_traps = n }) (int ())
        | "errors" ->
            Result.map (fun n -> { acc with b_max_app_errors = n }) (int ())
        | "probes" ->
            Result.map (fun n -> { acc with b_max_probe_failures = n }) (int ())
        | "samples" ->
            Result.map
              (fun n -> { acc with b_min_latency_samples = n })
              (int ())
        | "latency" -> (
            match float_of_string_opt v with
            | Some f when f > 0.0 -> Ok { acc with b_latency_factor = f }
            | _ -> Error (Printf.sprintf "bad value %S for latency" v))
        | _ -> Error (Printf.sprintf "unknown budget key %S" k))
    | _ -> Error (Printf.sprintf "expected key=value, got %S" kv)
  in
  if String.trim s = "" then Ok default_budget
  else
    List.fold_left
      (fun acc kv -> Result.bind acc (fun b -> parse_one b kv))
      (Ok default_budget)
      (String.split_on_char ',' s)

(* --- configuration ------------------------------------------------------ *)

(* The built-in loopback prober: every [pc_every] rounds a
   [Jv_simnet.Client] probe session to the app's own port sends the
   health line and expects a line passing [pc_ok] within [pc_deadline]
   rounds (banner lines are skipped, as in [Fleet.Health]).  A refused
   connect, an EOF or a missed deadline is one probe failure. *)
type probe_config = {
  pc_port : int;
  pc_line : string;
  pc_ok : string -> bool;
  pc_every : int;
  pc_deadline : int;
}

let probe_config ?(every = 10) ?(deadline = 20) ~port ~line ~ok () =
  { pc_port = port; pc_line = line; pc_ok = ok; pc_every = every;
    pc_deadline = deadline }

type config = {
  c_budget : budget;
  c_probe : probe_config option;
  c_latency_metric : string; (* histogram name in the VM's sink *)
}

let default_latency_metric = "app.request_rounds"

let config ?(budget = default_budget) ?probe
    ?(latency_metric = default_latency_metric) () =
  { c_budget = budget; c_probe = probe; c_latency_metric = latency_metric }

(* --- verdicts ----------------------------------------------------------- *)

type signal = S_traps | S_app_errors | S_probes | S_latency | S_injected

let signal_to_string = function
  | S_traps -> "trap-rate"
  | S_app_errors -> "app-errors"
  | S_probes -> "probe-failures"
  | S_latency -> "latency"
  | S_injected -> "injected"

type verdict = {
  v_signal : signal;
  v_detail : string;
  v_round : int; (* window round at which the budget tripped *)
  v_traps : int; (* new-epoch traps observed (incl. synthetic) *)
  v_app_errors : int;
  v_probe_failures : int;
  v_p99 : float; (* window p99 (latency-metric units) *)
  v_baseline_p99 : float;
  mutable v_revert_ms : float; (* filled in once the revert resolves *)
}

let verdict_to_string v =
  Printf.sprintf
    "guard tripped on %s at window round %d (%s; traps %d, app errors %d, \
     probe failures %d, p99 %.1f vs baseline %.1f)"
    (signal_to_string v.v_signal)
    v.v_round v.v_detail v.v_traps v.v_app_errors v.v_probe_failures v.v_p99
    v.v_baseline_p99

(* --- the open window ---------------------------------------------------- *)

type t = {
  g_cfg : config;
  g_epoch : int; (* the new code epoch under guard *)
  g_opened_at : int; (* tick *)
  g_baseline : Metrics.snap option; (* latency histogram at open *)
  g_baseline_p99 : float; (* pre-update p99 from that histogram *)
  mutable g_injected_traps : int; (* guard.trap synthetic signal *)
  mutable g_probe_failures : int;
  mutable g_probe_inflight : Client.t option;
  mutable g_last_probe_at : int;
  mutable g_done : bool;
}

let open_window (cfg : config) (vm : State.t) : t =
  let baseline, baseline_p99 =
    match Obs.find_histogram vm.State.obs cfg.c_latency_metric with
    | Some h -> (Some (Metrics.snapshot h), Metrics.quantile h 0.99)
    | None -> (None, 0.0)
  in
  Obs.incr vm.State.obs "core.guard.windows";
  Obs.emit vm.State.obs ~scope:"core.guard" "guard.opened"
    [
      ("epoch", Obs.Int vm.State.reg.Rt.epoch);
      ("rounds", Obs.Int cfg.c_budget.b_rounds);
      ("baseline_p99", Obs.Float baseline_p99);
      ( "retained_pairs",
        Obs.Int
          (match vm.State.guard_retained with
          | Some log -> Jv_vm.Update_log.pairs log
          | None -> 0) );
    ];
  {
    g_cfg = cfg;
    g_epoch = vm.State.reg.Rt.epoch;
    g_opened_at = vm.State.ticks;
    g_baseline = baseline;
    g_baseline_p99 = baseline_p99;
    g_injected_traps = 0;
    g_probe_failures = 0;
    g_probe_inflight = None;
    g_last_probe_at = vm.State.ticks;
    g_done = false;
  }

let round_of vm g = vm.State.ticks - g.g_opened_at

(* An orchestrator (or test harness) feeding in probe failures it
   observed out-of-band. *)
let note_probe_failure g =
  g.g_probe_failures <- g.g_probe_failures + 1

let close_probe g =
  Option.iter Client.detach g.g_probe_inflight;
  g.g_probe_inflight <- None

let step_probe vm g =
  match g.g_cfg.c_probe with
  | None -> ()
  | Some pc -> (
      let now = vm.State.ticks in
      match g.g_probe_inflight with
      | Some p -> (
          Client.step p ~now;
          match Client.verdict p with
          | Client.Pending -> ()
          | Client.Answered -> g.g_probe_inflight <- None
          | Client.Refused | Client.Severed | Client.Timed_out ->
              g.g_probe_failures <- g.g_probe_failures + 1;
              g.g_probe_inflight <- None)
      | None ->
          if now - g.g_last_probe_at >= pc.pc_every then begin
            g.g_last_probe_at <- now;
            let p =
              Client.create ~net:vm.State.net ~port:pc.pc_port
                ~script:[ pc.pc_line ] ~ok:pc.pc_ok
                ~arrivals:(Client.Probe { deadline = now + pc.pc_deadline })
                ()
            in
            Client.step p ~now;
            (* unlike a fleet health probe, a refused connect is not retried *)
            if p.Client.refused > 0 then
              g.g_probe_failures <- g.g_probe_failures + 1
            else g.g_probe_inflight <- Some p
          end)

(* Shut the window without a verdict (an external driver — the fleet
   orchestrator — is taking over, e.g. to force a coordinated revert). *)
let cancel (_ : State.t) g =
  g.g_done <- true;
  close_probe g

(* Window-scoped latency: observations since the open-time snapshot. *)
let window_latency vm g : float * int =
  match (Obs.find_histogram vm.State.obs g.g_cfg.c_latency_metric, g.g_baseline)
  with
  | Some h, Some snap ->
      let d = Metrics.since h snap in
      (Metrics.quantile d 0.99, Metrics.count d)
  | Some h, None -> (Metrics.quantile h 0.99, Metrics.count h)
  | None, _ -> (0.0, 0)

let tick (vm : State.t) (g : t) : [ `Watching | `Trip of verdict | `Close ] =
  if g.g_done then `Close
  else begin
    let b = g.g_cfg.c_budget in
    (* deterministic trip drivers *)
    (match Faults.check vm.State.faults "guard.trap" with
    | Some _ -> g.g_injected_traps <- g.g_injected_traps + 1
    | None -> ());
    (match Faults.check vm.State.faults "guard.probe" with
    | Some _ -> g.g_probe_failures <- g.g_probe_failures + 1
    | None -> ());
    let injected_latency =
      Faults.check vm.State.faults "guard.latency" <> None
    in
    let forced = Faults.check vm.State.faults "guard.trip" <> None in
    step_probe vm g;
    let traps = State.traps_at_epoch vm g.g_epoch + g.g_injected_traps in
    let app_errors = State.app_errors_at_epoch vm g.g_epoch in
    let p99, samples = window_latency vm g in
    let latency_over =
      g.g_baseline_p99 > 0.0
      && samples >= b.b_min_latency_samples
      && p99 > g.g_baseline_p99 *. b.b_latency_factor
    in
    let verdict signal detail =
      g.g_done <- true;
      close_probe g;
      let v =
        {
          v_signal = signal;
          v_detail = detail;
          v_round = round_of vm g;
          v_traps = traps;
          v_app_errors = app_errors;
          v_probe_failures = g.g_probe_failures;
          v_p99 = p99;
          v_baseline_p99 = g.g_baseline_p99;
          v_revert_ms = 0.0;
        }
      in
      Obs.incr vm.State.obs "core.guard.trips";
      Obs.emit vm.State.obs ~scope:"core.guard" "guard.tripped"
        [
          ("signal", Obs.Str (signal_to_string signal));
          ("detail", Obs.Str detail);
          ("round", Obs.Int v.v_round);
        ];
      `Trip v
    in
    if forced then verdict S_injected "guard.trip fault fired"
    else if injected_latency then
      verdict S_latency "guard.latency fault condemned the p99 comparison"
    else if traps > b.b_max_traps then
      verdict S_traps
        (Printf.sprintf "%d new-epoch trap(s), budget %d" traps b.b_max_traps)
    else if app_errors > b.b_max_app_errors then
      verdict S_app_errors
        (Printf.sprintf "%d app error(s), budget %d" app_errors
           b.b_max_app_errors)
    else if g.g_probe_failures > b.b_max_probe_failures then
      verdict S_probes
        (Printf.sprintf "%d probe failure(s), budget %d" g.g_probe_failures
           b.b_max_probe_failures)
    else if latency_over then
      verdict S_latency
        (Printf.sprintf "window p99 %.1f > %.1fx baseline %.1f" p99
           b.b_latency_factor g.g_baseline_p99)
    else if round_of vm g >= b.b_rounds then begin
      g.g_done <- true;
      close_probe g;
      Obs.incr vm.State.obs "core.guard.closed_clean";
      Obs.emit vm.State.obs ~scope:"core.guard" "guard.closed"
        [
          ("rounds", Obs.Int (round_of vm g));
          ("traps", Obs.Int traps);
          ("app_errors", Obs.Int app_errors);
          ("probe_failures", Obs.Int g.g_probe_failures);
        ];
      `Close
    end
    else `Watching
  end
