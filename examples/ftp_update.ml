(* When safe points cannot be reached: the CrossFTP story (paper §4.4).

     dune exec examples/ftp_update.exe

   miniftp spawns a RequestHandler thread per session; its run() method
   drives the whole session.  The 1.07 -> 1.08 release changes
   RequestHandler.run itself, so with long-lived sessions the method is
   always on stack: Jvolve installs return barriers, waits, and finally
   aborts at the timeout.  On an idle server the same update applies
   immediately — exactly the paper's observation that this update could
   be applied "only when the server was relatively idle". *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let spec () =
  J.Spec.make ~version_tag:"107"
    ~old_program:
      (A.App.compile A.App.miniftp ~version:"1.07")
    ~new_program:
      (A.App.compile A.App.miniftp ~version:"1.08")
    ()

(* a long-lived session: login, then many transfers *)
let persistent_script =
  [ "USER admin"; "PASS ftp" ] @ List.init 400 (fun _ -> "LIST")

let busy_attempt () =
  let vm =
    A.App.boot A.App.miniftp (A.App.compile A.App.miniftp ~version:"1.07")
  in
  let w =
    A.Workload.attach vm ~port:A.Miniftp.port ~script:persistent_script
      ~concurrency:3 ()
  in
  VM.Vm.run vm ~rounds:40;
  Printf.printf "busy server: %d FTP sessions active, %d commands served\n"
    (List.length w.A.Workload.load.active)
    w.A.Workload.load.completed_requests;
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm (spec ()) in
  Printf.printf "update under load -> %s\n  (%d return barriers installed \
                 while waiting)\n"
    (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome)
    h.J.Jvolve.h_barriers_installed

let idle_attempt () =
  let vm =
    A.App.boot A.App.miniftp (A.App.compile A.App.miniftp ~version:"1.07")
  in
  VM.Vm.run vm ~rounds:40;
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm (spec ()) in
  Printf.printf "update when idle -> %s\n"
    (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
  (* prove the new version runs: the 1.08 banner includes the session
     count *)
  let w =
    A.Workload.attach vm ~port:A.Miniftp.port ~script:A.Workload.ftp_script
      ~concurrency:2 ()
  in
  VM.Vm.run vm ~rounds:80;
  Printf.printf "served %d commands on the updated server (0 errors: %b)\n"
    w.A.Workload.load.completed_requests
    (w.A.Workload.load.errors = 0)

let () =
  busy_attempt ();
  print_newline ();
  idle_attempt ()
