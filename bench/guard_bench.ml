(* Guard-window benchmarks (lib/core/guard): what the post-commit
   watchdog costs and what an automatic revert buys.

   Three sections:
   - revert pause vs. live heap size: apply a field-adding update to a
     linked structure of growing size under a guard, force the window to
     trip ([guard.trip] fault point), and report the inverse update's
     pause (replaying the retained log) next to the forward apply's;
   - steady-state overhead: a loaded miniweb serving through an open
     guard window vs. an unguarded commit — the watchdog tick (epoch
     counters, windowed p99) must cost <= 2% of throughput;
   - the end-to-end bad update: miniweb 5.1.10 -> 5.1.11, a semantically
     wrong release that admission control cannot catch (it type-checks;
     it just 404s most static traffic).  The error-budget watchdog must
     trip on app errors and auto-revert with zero dropped connections. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module Faults = Jv_faults.Faults

let compile = Jv_lang.Compile.compile_program

(* A budget no real workload trips: for sections that need the window
   open (or tripped only by a fault point), never by traffic. *)
let lenient ~rounds =
  {
    J.Guard.default_budget with
    J.Guard.b_rounds = rounds;
    b_max_traps = max_int;
    b_max_app_errors = max_int;
    b_max_probe_failures = max_int;
    b_latency_factor = 1e9;
  }

(* --- section 1: revert pause vs. live heap size -------------------------- *)

(* [extra = true] adds a field to Node, so the forward update transforms
   every node (retaining n log pairs) and the revert replays them all. *)
let node_program ~extra n =
  Printf.sprintf
    {|
class Node { int v; %sNode next; int[] pad; }
class Keeper { static Node head; }
class Main {
  static void main() {
    for (int i = 0; i < %d; i = i + 1) {
      Node n = new Node();
      n.v = i;
      n.pad = new int[3];
      n.next = Keeper.head;
      Keeper.head = n;
    }
  }
}
|}
    (if extra then "int gen; " else "")
    n

let revert_pause () =
  Support.section
    "GUARD: revert pause vs. live heap size (window tripped by guard.trip)";
  Printf.printf "    %10s %12s %12s %16s\n" "nodes" "apply ms" "revert ms"
    "revert / 10k";
  let sizes =
    if Support.quick then [ 2_000; 4_000; 8_000 ]
    else [ 10_000; 20_000; 40_000; 80_000 ]
  in
  List.iter
    (fun n ->
      let config =
        { VM.State.default_config with VM.State.heap_words = 1 lsl 21 }
      in
      let vm = VM.Vm.create ~config () in
      VM.Vm.boot vm (compile (node_program ~extra:false n));
      ignore (VM.Vm.spawn_main vm ~main_class:"Main");
      ignore (VM.Vm.run_to_quiescence ~max_rounds:1_000_000 vm);
      let spec =
        J.Spec.make ~version_tag:"g1"
          ~old_program:(compile (node_program ~extra:false n))
          ~new_program:(compile (node_program ~extra:true n))
          ()
      in
      let guard = J.Guard.config ~budget:(lenient ~rounds:400) () in
      let h = J.Jvolve.update_now ~timeout_rounds:400 ~guard vm spec in
      let apply_ms =
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t -> t.J.Updater.u_total_ms
        | o ->
            Printf.printf "    !! apply failed: %s\n"
              (J.Jvolve.outcome_to_string o);
            0.0
      in
      let plan = Faults.create ~seed:7 () in
      Faults.arm plan ~point:"guard.trip" ~max_fires:1 Faults.Raise;
      VM.Vm.set_faults vm (Some plan);
      let final = J.Jvolve.run_to_guard_close vm h in
      VM.Vm.set_faults vm None;
      match final with
      | J.Jvolve.Reverted v ->
          Printf.printf "    %10d %12.3f %12.3f %16.4f\n" n apply_ms
            v.J.Guard.v_revert_ms
            (v.J.Guard.v_revert_ms /. float_of_int n *. 10_000.0)
      | o ->
          Printf.printf "    %10d !! expected a revert, got %s\n" n
            (J.Jvolve.outcome_to_string o))
    sizes

(* --- section 2: steady-state overhead of an open window ------------------ *)

let overhead () =
  Support.section
    "GUARD: steady-state overhead of an open window (loaded miniweb, fig5 \
     conditions)";
  let rounds = if Support.quick then 400 else 1500 in
  let measure ~guarded =
    let d = A.Experience.web_desc in
    let vm = A.Experience.boot_version d ~version:"5.1.1" in
    let loads = A.Experience.attach_loads vm d ~concurrency:4 in
    VM.Vm.run vm ~rounds:80;
    let spec =
      J.Spec.make ~version_tag:"511"
        ~old_program:(Support.compile_version A.Miniweb.app ~version:"5.1.1")
        ~new_program:(Support.compile_version A.Miniweb.app ~version:"5.1.2")
        ()
    in
    let h =
      if guarded then
        J.Jvolve.update_now ~timeout_rounds:400
          ~guard:(J.Guard.config ~budget:(lenient ~rounds:(rounds + 200)) ())
          vm spec
      else J.Jvolve.update_now ~timeout_rounds:400 vm spec
    in
    (match h.J.Jvolve.h_outcome with
    | J.Jvolve.Applied _ -> ()
    | o ->
        Printf.printf "    !! update did not apply: %s\n"
          (J.Jvolve.outcome_to_string o));
    let before = A.Experience.total_requests loads in
    let t0 = Unix.gettimeofday () in
    VM.Vm.run vm ~rounds;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let served = A.Experience.total_requests loads - before in
    (float_of_int served /. ms, served)
  in
  let thr_plain, served_plain = measure ~guarded:false in
  let thr_guard, served_guard = measure ~guarded:true in
  let pct = (thr_plain -. thr_guard) /. thr_plain *. 100.0 in
  Printf.printf "    unguarded commit: %6d requests in %d rounds (%.1f req/ms)\n"
    served_plain rounds thr_plain;
  Printf.printf "    window open:      %6d requests in %d rounds (%.1f req/ms)\n"
    served_guard rounds thr_guard;
  Printf.printf "    guard overhead: %.2f%% (target <= 2%%)\n" (Float.max 0.0 pct)

(* --- section 3: the end-to-end bad update -------------------------------- *)

let bad_update () =
  Support.section
    (Printf.sprintf
       "GUARD: end-to-end bad update (miniweb 5.1.10 -> %s, auto-revert)"
       A.Miniweb.bad_update);
  let d = A.Experience.web_desc in
  let vm = A.Experience.boot_version d ~version:"5.1.10" in
  let w = List.hd (A.Experience.attach_loads vm d ~concurrency:4) in
  VM.Vm.run vm ~rounds:120;
  let spec =
    J.Spec.make ~version_tag:"5110"
      ~old_program:(Support.compile_version A.Miniweb.app ~version:"5.1.10")
      ~new_program:
        (Support.compile_version A.Miniweb.app ~version:A.Miniweb.bad_update)
      ()
  in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm spec
  in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Printf.printf
        "    update applied in %.3f ms (admission clean: the bug is semantic)\n"
        t.J.Updater.u_total_ms
  | o ->
      Printf.printf "    !! update did not apply: %s\n"
        (J.Jvolve.outcome_to_string o));
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted v ->
      Printf.printf "    auto-reverted: %s\n" (J.Guard.verdict_to_string v)
  | o ->
      Printf.printf "    !! expected an auto-revert, got: %s\n"
        (J.Jvolve.outcome_to_string o));
  (* drain responses the bad epoch had already queued before the trip:
     they are its errors, not the restored version's *)
  VM.Vm.run vm ~rounds:10;
  let errors_at_revert = w.A.Workload.load.errors in
  let before = w.A.Workload.load.completed_requests in
  VM.Vm.run vm ~rounds:200;
  Printf.printf "    after revert: %d requests served, %d new errors\n"
    (w.A.Workload.load.completed_requests - before)
    (w.A.Workload.load.errors - errors_at_revert);
  Printf.printf "    dropped connections: %d\n"
    w.A.Workload.load.dropped_in_flight

(* --- section 4 (--lazy): guarded lazy migration -------------------------- *)

(* The guard window riding on a lazy update: commit is metadata-only (the
   pause must not scale with the store), the watchdog trips while the
   sweeper is mid-heap, and the revert first drains the residual
   transforms, then replays the retained log inversely.  Store sizes
   reuse the ministore fixture so the 1M-record point is buildable in
   bench time. *)
let run_lazy () =
  Support.section
    "GUARD --lazy: guarded lazy migration (commit pause, trip mid-sweep, \
     revert over the half-transformed heap)";
  Printf.printf "    %10s %12s %12s %10s\n" "records" "commit ms"
    "revert ms" "outcome";
  (* outcome "reverted*" = the sweeper had already drained the window
     before the trip, so the revert was a plain eager log replay *)
  let sizes =
    if Support.quick then [ 2_000; 8_000 ] else [ 10_000; 1_000_000 ]
  in
  let pauses =
    List.map
      (fun n ->
        let vm = Store_bench.boot_store ~lazy_mode:true ~words_per_rec:30 ~n () in
        let guard = J.Guard.config ~budget:(lenient ~rounds:4000) () in
        let h =
          J.Jvolve.update_now ~timeout_rounds:400 ~guard vm
            (Store_bench.spec_for ~from_version:"1.0" ~to_version:"1.1")
        in
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t ->
            let commit_ms = t.J.Updater.u_total_ms in
            (* a few rounds of sweeping, then trip mid-heap.  The wall
               clock brackets the trip: the revert first force-drains the
               residual transforms, then replays the retained log
               inversely, and both phases bill to the revert *)
            VM.Vm.run vm ~rounds:3;
            let mid_sweep = vm.VM.State.lazy_info <> None in
            let t0 = Unix.gettimeofday () in
            J.Jvolve.force_trip vm h ~reason:"bench: revert mid-sweep";
            let final = J.Jvolve.run_to_guard_close vm h in
            let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            Printf.printf "    %10d %12.3f %12.1f %10s\n" n commit_ms
              wall_ms
              (match final with
              | J.Jvolve.Reverted _ ->
                  if mid_sweep then "reverted" else "reverted*"
              | o -> J.Jvolve.outcome_to_string o);
            commit_ms
        | o ->
            Printf.printf "    %10d !! did not apply: %s\n" n
              (J.Jvolve.outcome_to_string o);
            Float.infinity)
      sizes
  in
  match pauses with
  | [ small; large ] ->
      let ratio = large /. Float.max 0.1 small in
      Printf.printf "    lazy pause flat: %s (ratio %.2f <= 2)\n"
        (if ratio <= 2.0 then "PASS" else "FAIL")
        ratio
  | _ -> ()

let run () =
  revert_pause ();
  overhead ();
  bad_update ()
