(* The work one fixed miniweb run does, pinned.

   miniweb boots at 5.1.4 on a small heap under a closed loop of 8
   sessions, serves, takes the 5.1.4 -> 5.1.5 hop (which waits for
   return barriers and OSRs the pool threads), and serves on.  Every
   count below is a pure function of the program and the run: the
   simulated network and the logical clock make the run deterministic.
   A change to how the VM executes (frames, calls, natives, the
   scheduler) that keeps its meaning leaves every number as it is. *)

module VM = Jv_vm
module A = Jv_apps
module J = Jvolve_core

type counts = {
  instrs : int;
  gcs : int;
  base_compiles : int;
  opt_compiles : int;
  osrs : int;
  served : int;
}

let pp ppf c =
  Fmt.pf ppf
    "instrs=%d gcs=%d base_compiles=%d opt_compiles=%d osrs=%d served=%d"
    c.instrs c.gcs c.base_compiles c.opt_compiles c.osrs c.served

let counts = Alcotest.testable pp ( = )

let run () =
  let app = A.App.miniweb in
  let config =
    { A.App.default_config with VM.State.heap_words = 1 lsl 15 }
  in
  let old_program = A.App.compile app ~version:"5.1.4" in
  let new_program = A.App.compile app ~version:"5.1.5" in
  let vm = A.App.boot ~config app old_program in
  let loads = A.App.attach vm app ~concurrency:8 in
  VM.Vm.run vm ~rounds:400;
  let spec =
    A.App.spec app ~from_version:"5.1.4" ~to_version:"5.1.5" ~old_program
      ~new_program
  in
  let h = J.Jvolve.update_now ~timeout_rounds:500 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o -> Alcotest.failf "hop: %s" (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:400;
  let s = VM.Vm.stats vm in
  Alcotest.(check int) "no traps" 0 (List.length s.VM.Vm.traps);
  {
    instrs = s.VM.Vm.instr_count;
    gcs = s.VM.Vm.gc_count;
    base_compiles = s.VM.Vm.compile_count;
    opt_compiles = s.VM.Vm.opt_compile_count;
    osrs = s.VM.Vm.osr_count;
    served =
      List.fold_left
        (fun n (w : A.Workload.t) ->
          n + w.A.Workload.load.Jv_simnet.Client.completed_requests)
        0 loads;
  }

let golden () =
  Alcotest.check counts "work done"
    {
      instrs = 893_416;
      gcs = 11;
      base_compiles = 52;
      opt_compiles = 22;
      osrs = 4;
      served = 3201;
    }
    (run ())

let suite =
  [ Alcotest.test_case "miniweb closed loop across a hop" `Quick golden ]
