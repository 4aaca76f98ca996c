(* One fleet member: a whole [Jv_vm] running one version of the server
   app, plus the bookkeeping the orchestrator needs (current version,
   lifecycle status, the classfiles it is running — the fleet's one
   compiled list for that version, shared with its peers). *)

module VM = Jv_vm
module CF = Jv_classfile
module App = Jv_apps.App

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

(* [Jv_apps.App.default_config], kept under this name for the
   benchmark. *)
let default_config = App.default_config

(* [program] is the fleet's compiled [version]: every instance on a
   version boots from the one list. *)
let boot ?config (app : App.t) ~id ~version program : t =
  let vm = App.boot ?config app program in
  {
    i_id = id;
    i_vm = vm;
    i_port = app.App.pr_port;
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
let reboot ?config (app : App.t) inst program =
  let vm = App.boot ?config app program in
  inst.i_vm <- vm;
  inst.i_version <- inst.i_base_version;
  inst.i_program <- program;
  inst.i_status <- Draining (* running and probe-able, but not admitted *)

let net inst = VM.Vm.net inst.i_vm

let round inst =
  if inst.i_status <> Out_of_service then VM.Sched.round inst.i_vm
