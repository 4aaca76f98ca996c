(* Ablations over the design choices DESIGN.md calls out:

   1. OSR on/off — how many of the experience updates still reach a safe
      point if category-(2) frames cannot be replaced on stack;
   2. return barriers on/off — how long an update with a restricted
      method on stack waits before applying;
   3. eager (Jvolve) vs lazy (indirection) object updating — pause time
      versus spread-out migration cost;
   4. post-update warm-up — adaptive recompilation after invalidation
      (paper §3.3: invalidated methods are base-compiled and then
      re-optimized "in its usual fashion"). *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

(* --- 1: OSR --------------------------------------------------------------- *)

let osr_cases =
  [
    (A.Experience.web_desc, "5.1.4", "5.1.5");
    (A.Experience.mail_desc, "1.3.1", "1.3.2");
    (A.Experience.mail_desc, "1.3.3", "1.3.4");
    (A.Experience.ftp_desc, "1.06", "1.07");
  ]

let try_update ?(use_osr = true) ?(use_barriers = true) desc ~from_version
    ~to_version =
  let vm = A.Experience.boot_version desc ~version:from_version in
  let loads = A.Experience.attach_loads vm desc ~concurrency:4 in
  VM.Vm.run vm ~rounds:40;
  let spec =
    A.Common.spec
      ~overrides:(desc.A.Experience.d_overrides ~to_version)
      ~version_tag:(A.Common.version_tag from_version)
      ~old_program:(Support.compile_version desc.A.Experience.d_versioned ~version:from_version)
      ~new_program:(Support.compile_version desc.A.Experience.d_versioned ~version:to_version)
      ()
  in
  let t_req = vm.VM.State.ticks in
  let h = J.Jvolve.update_now ~use_osr ~use_barriers ~timeout_rounds:120 vm spec in
  List.iter (fun w -> A.Workload.detach vm w) loads;
  (h, vm.VM.State.ticks - t_req)

let rec osr_ablation () =
  Support.section "Ablation 1: safe-point reachability with and without OSR";
  Printf.printf "%-34s %-24s %-24s\n" "update" "with OSR" "without OSR";
  List.iter
    (fun (desc, f, t) ->
      let on, _ = try_update desc ~from_version:f ~to_version:t in
      let off, _ =
        try_update ~use_osr:false desc ~from_version:f ~to_version:t
      in
      let s h =
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied tt ->
            Printf.sprintf "applied (%d OSR)" tt.J.Updater.u_osr
        | J.Jvolve.Aborted _ -> "ABORTED"
        | J.Jvolve.Reverted _ -> "reverted"
        | J.Jvolve.Pending -> "pending"
      in
      Printf.printf "%-34s %-24s %-24s\n"
        (Printf.sprintf "%s %s->%s" desc.A.Experience.d_name f t)
        (s on) (s off))
    osr_cases;
  Printf.printf
    "\n(paper §3.2: without OSR, updates touching classes referenced by \
     always-running\nloops could never be applied)\n";
  (* the opt-OSR extension (paper future work): an opt-compiled
     category-(2) frame permanently on stack *)
  opt_osr_extension ()

and opt_osr_extension () =
  Printf.printf
    "\nExtension: OSR of opt-compiled frames (paper future work, cf. \
     UpStare)\n";
  let v1 =
    {|
class Data {
  int x;
  static int bump(int v) { return v + 1; }
}
class Registry { static Data d; }
class Main {
  static void work(Data dd, int n) {
    if (n == 0) {
      while (true) {
        dd.x = Data.bump(dd.x);
        Thread.yieldNow();
      }
    }
    dd.x = Data.bump(dd.x);
  }
  static void main() {
    Registry.d = new Data();
    Data dd = Registry.d;
    for (int i = 0; i < 10; i = i + 1) { work(dd, 1); }
    work(dd, 0);
  }
}
|}
  in
  let v2 =
    A.Patching.patch v1
      [ ( "class Data {\n  int x;", "class Data {\n  int pad;\n  int x;" ) ]
  in
  let run_mode ~opt_osr =
    let config =
      {
        A.Experience.default_config with
        VM.State.opt_threshold = 3;
        opt_osr;
      }
    in
    let old_program = Jv_lang.Compile.compile_program v1 in
    let new_program = Jv_lang.Compile.compile_program v2 in
    let vm = VM.Vm.create ~config () in
    VM.Vm.boot vm old_program;
    ignore (VM.Vm.spawn_main vm ~main_class:"Main");
    VM.Vm.run vm ~rounds:40;
    let spec = J.Spec.make ~version_tag:"1" ~old_program ~new_program () in
    match
      (J.Jvolve.update_now ~timeout_rounds:60 vm spec).J.Jvolve.h_outcome
    with
    | J.Jvolve.Applied t -> Printf.sprintf "applied (%d OSR)" t.J.Updater.u_osr
    | J.Jvolve.Aborted _ -> "ABORTED"
    | J.Jvolve.Reverted _ -> "reverted"
    | J.Jvolve.Pending -> "pending"
  in
  Printf.printf
    "hot opt-compiled loop referencing the updated class:\n\
    \  paper mode (base-only OSR): %s\n\
    \  with opt-OSR extension:     %s\n"
    (run_mode ~opt_osr:false) (run_mode ~opt_osr:true)

(* --- 2: return barriers ----------------------------------------------------- *)

let barrier_ablation () =
  Support.section
    "Ablation 2: return barriers (rounds from request to application)";
  (* miniweb 5.1.4 -> 5.1.5 changes HttpConnection.handle, which is on
     stack in every busy pool thread.  Return barriers park each thread as
     its handle() returns, ratcheting the system toward the safe point;
     without them the update needs every thread clear *simultaneously*,
     which staggered load never offers *)
  let case = (A.Experience.web_desc, "5.1.4", "5.1.5") in
  let desc, f, t = case in
  let h_on, rounds_on = try_update desc ~from_version:f ~to_version:t in
  let h_off, rounds_off =
    try_update ~use_barriers:false desc ~from_version:f ~to_version:t
  in
  let s h =
    match h.J.Jvolve.h_outcome with
    | J.Jvolve.Applied _ -> "applied"
    | J.Jvolve.Aborted _ -> "ABORTED (timeout)"
    | J.Jvolve.Reverted _ -> "reverted"
    | J.Jvolve.Pending -> "pending"
  in
  Printf.printf
    "with barriers:    %s after %d rounds, %d attempts, %d barriers\n"
    (s h_on) rounds_on h_on.J.Jvolve.h_attempts
    h_on.J.Jvolve.h_barriers_installed;
  Printf.printf "without barriers: %s after %d rounds, %d attempts\n"
    (s h_off) rounds_off h_off.J.Jvolve.h_attempts;
  Printf.printf
    "(a fired barrier parks its thread at the safe point — paper §3.2 — so \
     threads\nratchet into quiescence instead of having to clear \
     simultaneously)\n"

(* --- 3: eager vs lazy -------------------------------------------------------- *)

let eager_vs_lazy () =
  Support.section
    "Ablation 3: eager (GC-based) vs lazy (indirection) object updating";
  (* the Table 1 heap of the paper's "160 MB" row (and of perf's migrate
     workload), 50% updated *)
  let objects = if Support.quick then 20_000 else 280_000 in
  let reps = if Support.quick then 1 else 6 in
  (* alternate the two so a slow stretch of the host hits both alike *)
  let runs =
    List.init reps (fun _ ->
        let eager =
          Table1.run_cell ~verify:false ~objects ~fraction:50 ()
        in
        let drained =
          Table1.run_cell ~lazy_update:true ~verify:false ~objects
            ~fraction:50 ()
        in
        (eager, drained))
  in
  Table1.exit_on_failures ();
  let median f = Support.median (List.map f runs) in
  let eager_ms = median (fun (e, _) -> e.Table1.total_ms) in
  let drained_ms = median (fun (_, d) -> d.Table1.total_ms) in
  Printf.printf
    "eager (Jvolve): one pause of %.1f ms migrates all %d changed objects \
     (gc %.1f ms + transformers %.1f ms)\n"
    eager_ms (objects / 2)
    (median (fun (e, _) -> e.Table1.gc_ms))
    (median (fun (e, _) -> e.Table1.transform_ms));
  Printf.printf
    "eager as a drained lazy window (commit, then every transform at \
     once):\n\
    \  %.1f ms vs %.1f ms eager, %+.0f%% (medians of %d alternating runs)\n"
    drained_ms eager_ms
    (100.0 *. (drained_ms -. eager_ms) /. eager_ms)
    reps;
  Printf.printf
    "lazy (JDrums-style): no pause, but every dereference pays a check \
     forever\n(see the steady-state overhead table) and transformers run \
     against live state\n(paper §3.5: stateful actions after the update can \
     invalidate transformer\nassumptions, so lazy customized transformers \
     are unsound in general).\n"

(* --- 4: warm-up --------------------------------------------------------------- *)

let warmup () =
  Support.section
    "Ablation 4: post-update recompilation warm-up (adaptive system)";
  let vm = A.Experience.boot_version A.Experience.web_desc ~version:"5.1.5" in
  let w =
    A.Workload.attach vm ~port:A.Miniweb.protocol_port
      ~script:A.Workload.web_script ~ok:A.Workload.web_ok ~concurrency:6 ()
  in
  VM.Vm.run vm ~rounds:300;
  let spec =
    J.Spec.make ~version_tag:"515"
      ~old_program:(Support.compile_version A.Miniweb.app ~version:"5.1.5")
      ~new_program:(Support.compile_version A.Miniweb.app ~version:"5.1.6")
      ()
  in
  let base0 = vm.VM.State.compile_count
  and opt0 = vm.VM.State.opt_compile_count in
  let h = J.Jvolve.update_now vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o -> failwith (J.Jvolve.outcome_to_string o));
  Printf.printf "%-10s %-12s %-12s %-12s\n" "window" "requests" "base-compiles"
    "opt-compiles";
  let windows = 6 in
  let per_window = 100 in
  for i = 1 to windows do
    let r0 = w.A.Workload.load.completed_requests in
    let b0 = vm.VM.State.compile_count and o0 = vm.VM.State.opt_compile_count in
    VM.Vm.run vm ~rounds:per_window;
    Printf.printf "%-10d %-12d %-12d %-12d\n" i
      (w.A.Workload.load.completed_requests - r0)
      (vm.VM.State.compile_count - b0)
      (vm.VM.State.opt_compile_count - o0)
  done;
  Printf.printf
    "(total recompilation after the update: %d base, %d opt; compilation \
     activity dies\nout as the updated methods re-optimize — paper §3.3)\n"
    (vm.VM.State.compile_count - base0)
    (vm.VM.State.opt_compile_count - opt0);
  A.Workload.detach vm w

let run () =
  osr_ablation ();
  barrier_ablation ();
  eager_vs_lazy ();
  warmup ()
