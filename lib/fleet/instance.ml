(* One fleet member: a whole [Jv_vm] running one version of the server
   app, plus the bookkeeping the orchestrator needs (current version,
   lifecycle status, the classfiles it is running — the fleet's one
   compiled list for that version, shared with its peers). *)

module VM = Jv_vm
module CF = Jv_classfile

type status =
  | In_service (* taking new connections through the LB *)
  | Draining (* no new connections; in-flight completing *)
  | Updating (* a DSU request is pending on the VM *)
  | Rolling_back (* reverting to the previous version *)
  | Out_of_service (* permanently removed (failed rollback) *)

let status_to_string = function
  | In_service -> "in-service"
  | Draining -> "draining"
  | Updating -> "updating"
  | Rolling_back -> "rolling-back"
  | Out_of_service -> "out-of-service"

type t = {
  i_id : int;
  mutable i_vm : VM.Vm.t; (* swapped wholesale when the supervisor reboots *)
  i_port : int; (* backend port inside this VM's simnet *)
  i_base_version : string; (* what a fresh boot of this instance runs *)
  mutable i_version : string;
  mutable i_status : status;
  mutable i_program : CF.Cls.t list; (* classfiles currently running *)
}

(* Fleet boot mirrors the experience harness: a high opt threshold keeps
   the per-session run() loops base-compiled, as in the paper's setup. *)
let default_config =
  {
    VM.State.default_config with
    VM.State.heap_words = 1 lsl 19;
    opt_threshold = 150;
  }

let boot_vm ~config (profile : Profile.t) program =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm program;
  (* responses the profile's protocol rejects count as app-level errors,
     charged to the sending code epoch (the guard watchdog's 5xx feed) *)
  VM.Vm.set_response_classifier vm (Some profile.Profile.pr_ok);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  (* let the server open its listeners before the LB registers it *)
  VM.Vm.run vm ~rounds:5;
  vm

(* [program] is the fleet's compiled [version]: every instance on a
   version boots from the one list. *)
let boot ?(config = default_config) (profile : Profile.t) ~id ~version program
    : t =
  let vm = boot_vm ~config profile program in
  {
    i_id = id;
    i_vm = vm;
    i_port = profile.Profile.pr_port;
    i_base_version = version;
    i_version = version;
    i_status = In_service;
    i_program = program;
  }

(* Replace a dead (or parked) instance's VM with a fresh boot of
   [program], the compiled base version.  The record identity survives —
   the LB id, the port and any closures capturing [t] keep working — but
   the simnet, heap and code world are brand new, so the caller must
   re-register the net with the LB and drive version catch-up before
   readmitting. *)
let reboot ?(config = default_config) (profile : Profile.t) inst program =
  let vm = boot_vm ~config profile program in
  inst.i_vm <- vm;
  inst.i_version <- inst.i_base_version;
  inst.i_program <- program;
  inst.i_status <- Draining (* running and probe-able, but not admitted *)

let net inst = VM.Vm.net inst.i_vm

let round inst =
  if inst.i_status <> Out_of_service then VM.Sched.round inst.i_vm
