(* Application profiles: everything the fleet needs to know to run one of
   the benchmark servers as a load-balanced backend — which port the load
   balancer fronts, the scripted client session, the response classifier,
   and the health probe added for orchestration (apps answer it in every
   version, so it works across an update).

   minimail serves SMTP and POP3; the fleet fronts the SMTP side only
   (one load-balancer endpoint per fleet), and the health probe goes to
   the same port. *)

module CF = Jv_classfile
module Apps = Jv_apps

type t = {
  pr_name : string;
  pr_versioned : Apps.Patching.versioned;
  pr_port : int; (* backend port the load balancer connects to *)
  pr_script : string list; (* one client session *)
  pr_ok : string -> bool; (* is this response healthy? *)
  pr_health_probe : string;
  pr_health_ok : string -> bool;
  pr_overrides : to_version:string -> Apps.Common.overrides;
  (* Optional durability hooks for stateful apps: serialize the live
     state of a running VM, and replay a serialized snapshot into a
     freshly booted base-version VM (the supervisor migrates the data
     forward through missed schema hops afterwards).  The serialized
     form is opaque to the fleet layer. *)
  pr_snapshot : (Jv_vm.Vm.t -> (string, string) result) option;
  pr_restore : (Jv_vm.Vm.t -> string -> (unit, string) result) option;
}

let miniweb =
  {
    pr_name = "miniweb";
    pr_versioned = Apps.Miniweb.app;
    pr_port = Apps.Miniweb.protocol_port;
    pr_script = Apps.Workload.web_script;
    pr_ok = Apps.Workload.web_ok;
    pr_health_probe = Apps.Miniweb.health_probe;
    pr_health_ok = Apps.Miniweb.health_ok;
    pr_overrides = (fun ~to_version:_ -> Apps.Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let minimail =
  {
    pr_name = "minimail";
    pr_versioned = Apps.Minimail.app;
    pr_port = Apps.Minimail.smtp_port;
    pr_script = Apps.Workload.smtp_script;
    pr_ok = Apps.Workload.default_ok;
    pr_health_probe = Apps.Minimail.health_probe;
    pr_health_ok = Apps.Minimail.health_ok;
    pr_overrides = (fun ~to_version -> Apps.Minimail.overrides ~to_version);
    pr_snapshot = None;
    pr_restore = None;
  }

let miniftp =
  {
    pr_name = "miniftp";
    pr_versioned = Apps.Miniftp.app;
    pr_port = Apps.Miniftp.port;
    pr_script = Apps.Workload.ftp_script;
    pr_ok = Apps.Workload.default_ok;
    pr_health_probe = Apps.Miniftp.health_probe;
    pr_health_ok = Apps.Miniftp.health_ok;
    pr_overrides = (fun ~to_version:_ -> Apps.Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let ministore =
  {
    pr_name = "ministore";
    pr_versioned = Apps.Ministore.app;
    pr_port = Apps.Ministore.port;
    pr_script = Apps.Workload.store_script;
    pr_ok = Apps.Workload.store_ok;
    pr_health_probe = Apps.Ministore.health_probe;
    pr_health_ok = Apps.Ministore.health_ok;
    pr_overrides = (fun ~to_version -> Apps.Ministore.overrides ~to_version);
    pr_snapshot =
      Some
        (fun vm ->
          Result.map Apps.Ministore.snapshot_to_string
            (Apps.Ministore.scrape vm));
    pr_restore =
      Some
        (fun vm str ->
          Result.bind (Apps.Ministore.snapshot_of_string str)
            (Apps.Ministore.restore vm));
  }

let all = [ miniweb; minimail; miniftp; ministore ]

let by_name name =
  List.find_opt (fun p -> p.pr_name = name) all

let versions p = List.map fst p.pr_versioned.Apps.Patching.versions

let source p ~version = Apps.Patching.source p.pr_versioned ~version

let compile p ~version =
  Jv_lang.Compile.compile_program (source p ~version)

(* The version tag [spec] gives renamed old classes: one per hop ("514"
   for from-version 5.1.4), the same on every instance.  Each instance
   runs its own VM, so two instances' tags never meet, and the fleet
   builds a hop once for all of its members.  [instance_id] is
   ignored. *)
let version_tag ~from_version ~instance_id:_ =
  Apps.Common.version_tag from_version

(* The update spec that moves [old_program], running [from_version], to
   [to_version]. *)
let spec p ~from_version ~to_version ~old_program ~new_program =
  Apps.Common.spec ~overrides:(p.pr_overrides ~to_version)
    ~version_tag:(Apps.Common.version_tag from_version)
    ~old_program ~new_program ()
