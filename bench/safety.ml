(* Safety benchmarks (admission control, transformer sandbox, heap
   verifier).

   Three sections:
   - verifier pause cost vs. live heap size: a full Heapverify walk over
     linked structures of growing size, reporting ms and ms per 10k
     objects (the per-10k column staying flat is the linearity claim);
   - admission latency: Admission.review over every update pair of the
     three benchmark apps, next to what the checks found;
   - fault gauntlet: on each app, a looping, throwing and heap-corrupting
     transformer (the transformer.* fault points) must abort the update
     with a clean, re-verified rollback while the VM keeps serving. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module Faults = Jv_faults.Faults

let compile = Jv_lang.Compile.compile_program

(* --- section 1: verifier pause vs. live heap size ----------------------- *)

let node_program n =
  Printf.sprintf
    {|
class Node { int v; Node next; int[] pad; }
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
    n

let verifier_cost () =
  Support.section
    "SAFETY: heap-verifier pause cost vs. live heap size (full walk)";
  Printf.printf "    %10s %10s %10s %12s %14s\n" "nodes" "objects" "refs"
    "verify ms" "ms / 10k objs";
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
      VM.Vm.boot vm (compile (node_program n));
      ignore (VM.Vm.spawn_main vm ~main_class:"Main");
      ignore (VM.Vm.run_to_quiescence ~max_rounds:1_000_000 vm);
      (* collect first so the walk covers exactly the live heap *)
      ignore (VM.Gc.collect vm);
      (* median of 5 walks *)
      let reps = List.init 5 (fun _ -> VM.Heapverify.run vm) in
      let ms = Support.median (List.map (fun r -> r.VM.Heapverify.hv_ms) reps) in
      let r = List.hd reps in
      if not r.VM.Heapverify.hv_ok then
        Printf.printf "    !! verifier found issues on a healthy heap\n";
      Printf.printf "    %10d %10d %10d %12.3f %14.4f\n" n
        r.VM.Heapverify.hv_objects r.VM.Heapverify.hv_refs ms
        (ms /. float_of_int (max 1 r.VM.Heapverify.hv_objects) *. 10_000.0))
    sizes

(* --- section 2: admission latency over the apps' update chains ---------- *)

let admission_latency () =
  Support.section
    "SAFETY: admission-control latency (every update pair, three apps)";
  Printf.printf "    %-10s %-18s %8s %8s %8s %10s\n" "app" "update" "checks"
    "rejects" "warns" "review ms";
  List.iter
    (fun (d : A.App.t) ->
      A.Patching.update_pairs d.A.App.pr_versioned
      |> List.iter (fun ((from_v, _), (to_v, _)) ->
             let spec =
               A.App.spec d ~from_version:from_v ~to_version:to_v
                 ~old_program:(A.App.compile d ~version:from_v)
                 ~new_program:(A.App.compile d ~version:to_v)
             in
             let p = J.Transformers.prepare spec in
             let rep = J.Admission.review p in
             let count sev =
               List.length
                 (List.filter
                    (fun v -> v.J.Admission.v_severity = sev)
                    rep.J.Admission.a_verdicts)
             in
             Printf.printf "    %-10s %-18s %8d %8d %8d %10.3f\n"
               d.A.App.pr_name
               (from_v ^ " -> " ^ to_v)
               rep.J.Admission.a_checks (count J.Admission.Reject)
               (count J.Admission.Warn) rep.J.Admission.a_ms))
    A.App.all

(* --- section 3: the fault gauntlet -------------------------------------- *)

(* One update pair per app with a non-trivial layout closure, so object
   transformers actually run (same pairs the chaos suite uses). *)
let gauntlet_pairs =
  [
    (A.App.miniweb, "5.1.4", "5.1.5");
    (A.App.minimail, "1.3.1", "1.3.2");
    (A.App.miniftp, "1.06", "1.07");
  ]

let gauntlet_points = [ "transformer.loop"; "transformer.throw";
                        "transformer.badwrite" ]

let gauntlet () =
  Support.section
    "SAFETY: fault gauntlet (looping / throwing / bad-write transformers)";
  let contained = ref 0 and dirty = ref 0 and total = ref 0 in
  List.iter
    (fun ((d : A.App.t), from_v, to_v) ->
      let config =
        { A.App.default_config with VM.State.verify_heap = true }
      in
      let vm = A.App.boot ~config d (A.App.compile d ~version:from_v) in
      let loads = A.App.attach vm d ~concurrency:3 in
      VM.Vm.run vm ~rounds:60;
      List.iteri
        (fun k point ->
          incr total;
          let plan = Faults.create ~seed:(11 + k) () in
          Faults.arm plan ~point ~max_fires:1 Faults.Raise;
          VM.Vm.set_faults vm (Some plan);
          let spec =
            A.Common.spec
              ~overrides:(d.A.App.pr_overrides ~to_version:to_v)
              ~version_tag:(Printf.sprintf "g%d" k)
              ~old_program:(A.App.compile d ~version:from_v)
              ~new_program:(A.App.compile d ~version:to_v) ()
          in
          let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
          VM.Vm.set_faults vm None;
          (match h.J.Jvolve.h_outcome with
          | J.Jvolve.Aborted a ->
              let clean = a.J.Updater.a_rolled_back in
              if not clean then incr dirty;
              let rep = VM.Heapverify.run vm in
              let served_before = A.Experience.total_requests loads in
              VM.Vm.run vm ~rounds:120;
              let serving =
                A.Experience.total_requests loads > served_before
              in
              if clean && rep.VM.Heapverify.hv_ok && serving
                 && VM.Vm.killed vm = None
              then incr contained;
              Printf.printf
                "    %-10s %-22s -> aborted [%s] %s, heap %s, %s\n"
                d.A.App.pr_name point
                (J.Updater.phase_to_string a.J.Updater.a_phase)
                (if clean then "rolled back" else "ROLLBACK DIRTY")
                (if rep.VM.Heapverify.hv_ok then "verified" else "CORRUPT")
                (if serving then "still serving" else "NOT SERVING")
          | o ->
              Printf.printf "    %-10s %-22s -> UNEXPECTED: %s\n"
                d.A.App.pr_name point
                (J.Jvolve.outcome_to_string o)))
        gauntlet_points)
    gauntlet_pairs;
  Printf.printf "\n    gauntlet: %d/%d contained, %d dirty rollbacks\n"
    !contained !total !dirty

(* --- section 4: the heap verifier across an open guard window ----------- *)

(* A guarded commit keeps the update log (old-layout object copies) alive
   until the window closes; the verifier's [guard_pending] allowance must
   keep full-heap walks green the whole time, and the close must free the
   log. *)
let guard_window_verify () =
  Support.section
    "SAFETY: heap verifier across an open guard window (retained update log)";
  let d = A.App.miniweb in
  let config =
    { A.App.default_config with VM.State.verify_heap = true }
  in
  let vm = A.App.boot ~config d (A.App.compile d ~version:"5.1.4") in
  ignore (A.App.attach vm d ~concurrency:3);
  VM.Vm.run vm ~rounds:60;
  let spec =
    J.Spec.make ~version_tag:"514"
      ~old_program:(A.App.compile d ~version:"5.1.4")
      ~new_program:(A.App.compile d ~version:"5.1.5") ()
  in
  let budget =
    {
      J.Guard.default_budget with
      J.Guard.b_rounds = 120;
      b_max_app_errors = max_int;
      b_latency_factor = 1e9;
    }
  in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400
      ~guard:(J.Guard.config ~budget ())
      vm spec
  in
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ ->
      let retained =
        match vm.VM.State.guard_retained with
        | Some log -> 2 * VM.Update_log.pairs log
        | None -> 0
      in
      let walks = ref 0 and spurious = ref 0 in
      for _ = 1 to 6 do
        VM.Vm.run vm ~rounds:20;
        incr walks;
        let r = VM.Heapverify.run vm in
        if not r.VM.Heapverify.hv_ok then incr spurious
      done;
      let final = J.Jvolve.run_to_guard_close vm h in
      Printf.printf
        "    %d retained log roots; %d verifier walks over the open window, \
         spurious failures: %d\n"
        retained !walks !spurious;
      (match (final, vm.VM.State.guard_retained) with
      | J.Jvolve.Applied _, None ->
          Printf.printf "    window closed clean, retained log freed\n"
      | J.Jvolve.Applied _, Some _ ->
          Printf.printf "    !! window closed but the log is still rooted\n"
      | o, _ ->
          Printf.printf "    !! window did not close clean: %s\n"
            (J.Jvolve.outcome_to_string o))
  | o ->
      Printf.printf "    !! guarded update did not apply: %s\n"
        (J.Jvolve.outcome_to_string o)

let run () =
  verifier_cost ();
  admission_latency ();
  gauntlet ();
  guard_window_verify ()
