(* Public facade over the VM substrate.

   Typical use:
   {[
     let vm = Vm.create () in
     Vm.boot vm classes;
     ignore (Vm.spawn_main vm ~main_class:"Main");
     Vm.run vm ~rounds:100;
     print_string (Vm.output vm)
   ]} *)

type t = State.t

let create ?config () = State.create ?config ()
let boot = Classloader.boot
let spawn_main = Classloader.spawn_main
let run vm ~rounds = Sched.run_rounds vm rounds
let run_to_quiescence = Sched.run_to_quiescence
let output = State.output
let ticks (vm : t) = vm.State.ticks
let net (vm : t) = vm.State.net
let obs (vm : t) = vm.State.obs
let gc vm = Gc.collect vm

let add_poller (vm : t) f = vm.State.pollers <- vm.State.pollers @ [ f ]
let clear_pollers (vm : t) = vm.State.pollers <- []

(* Arm a chaos plan on this VM: the updater's injection points, and the
   VM's own simnet links, consult it.  [None] disarms. *)
let set_faults (vm : t) f =
  vm.State.faults <- f;
  Jv_simnet.Simnet.set_faults vm.State.net f;
  Option.iter (fun p -> Jv_faults.Faults.set_obs p vm.State.obs) f

let faults (vm : t) = vm.State.faults
let killed (vm : t) = vm.State.killed

(* --- per-epoch error attribution (guard window) --------------------- *)

let epoch (vm : t) = vm.State.reg.Rt.epoch

let set_response_classifier (vm : t) ok =
  vm.State.response_classifier <- ok

let traps_at_epoch = State.traps_at_epoch
let app_errors_at_epoch = State.app_errors_at_epoch

let live_threads = State.live_threads

type stats = {
  instr_count : int;
  compile_count : int;
  opt_compile_count : int;
  osr_count : int;
  gc_count : int;
  deref_checks : int;
  heap_used_words : int;
  heap_committed_words : int;
  traps : (int * string) list;
}

let stats (vm : t) =
  {
    instr_count = vm.State.instr_count;
    compile_count = vm.State.compile_count;
    opt_compile_count = vm.State.opt_compile_count;
    osr_count = vm.State.osr_count;
    gc_count = vm.State.heap.Heap.gc_count;
    deref_checks = vm.State.deref_checks;
    heap_used_words = Heap.words_used vm.State.heap;
    heap_committed_words = Heap.committed_words vm.State.heap;
    traps = vm.State.trap_log;
  }
