(* Live-updating a busy web server (the paper's Jetty scenario, §4.2).

     dune exec examples/web_live_update.exe

   miniweb 5.1.4 runs under saturating load; we apply the big 5.1.5
   release (new fields on HttpConnection and Stats, keep-alive limits,
   byte accounting).  The pool threads' run() loops reference
   HttpConnection, so their compiled code hard-codes stale offsets: Jvolve
   recompiles them *on stack* via OSR while return barriers park each
   worker as it finishes its current connection.  The server never stops
   serving. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let () =
  let vm = A.Experience.boot_version A.Experience.web_desc ~version:"5.1.4" in
  let w =
    A.Workload.attach vm ~port:A.Miniweb.protocol_port
      ~script:A.Workload.web_script ~ok:A.Workload.web_ok ~concurrency:8 ()
  in
  VM.Vm.run vm ~rounds:80;
  let before = w.A.Workload.load.completed_requests in
  Printf.printf "running miniweb 5.1.4 under load: %d requests served\n"
    before;

  let spec =
    J.Spec.make ~version_tag:"514"
      ~old_program:
        (Jv_lang.Compile.compile_program
           (A.Patching.source A.Miniweb.app ~version:"5.1.4"))
      ~new_program:
        (Jv_lang.Compile.compile_program
           (A.Patching.source A.Miniweb.app ~version:"5.1.5"))
      ()
  in
  Printf.printf "\nUPT: %s\n" (J.Diff.summary spec.J.Spec.diff);
  Printf.printf "restricted methods on stack at request time:\n";
  let restricted = J.Safepoint.compute vm spec in
  (match J.Safepoint.check vm restricted with
  | J.Safepoint.Blocked stuck ->
      Printf.printf "  %s\n" (J.Safepoint.describe_blockers vm restricted stuck)
  | J.Safepoint.Safe frames ->
      Printf.printf "  none blocking; %d category-(2) frames need OSR\n"
        (List.length frames));

  let h = J.Jvolve.update_now vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Printf.printf
        "\nupdate applied after %d attempts: %d return barriers installed, \
         %d frames OSR'd,\n%.2f ms total pause, %d heap objects transformed\n"
        h.J.Jvolve.h_attempts h.J.Jvolve.h_barriers_installed
        t.J.Updater.u_osr t.J.Updater.u_total_ms
        t.J.Updater.u_transformed_objects
  | o -> failwith (J.Jvolve.outcome_to_string o));

  VM.Vm.run vm ~rounds:120;
  let after = w.A.Workload.load.completed_requests in
  Printf.printf
    "\nafter the update the same server (same connections, same listener) \
     served %d more requests\nwith %d protocol errors — zero downtime.\n"
    (after - before) w.A.Workload.load.errors;
  let stats = VM.Vm.stats vm in
  Printf.printf
    "VM: %d base compiles, %d opt compiles, %d GCs, %d OSRs, %d traps\n"
    stats.VM.Vm.compile_count stats.VM.Vm.opt_compile_count
    stats.VM.Vm.gc_count stats.VM.Vm.osr_count
    (List.length stats.VM.Vm.traps)
