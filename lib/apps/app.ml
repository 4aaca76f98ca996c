(* The one description of a benchmark server app, shared by the §4
   experience harness, the fleet, gossip, the benches and the CLIs: its
   release ladder, the scripted loads that drive it, the health probe
   (every version answers it, so it works across an update), the
   transformer overrides each update step ships, and, for stateful apps,
   the snapshot hooks the supervisor restores a restarted instance from.

   minimail serves SMTP and POP3; the fleet fronts the SMTP side only
   (one load-balancer endpoint per fleet), and the health probe goes to
   the same port. *)

module VM = Jv_vm

type t = {
  pr_name : string;
  pr_versioned : Patching.versioned;
  pr_port : int; (* the front port: the one a load balancer connects to *)
  pr_script : string list; (* one client session on [pr_port] *)
  pr_ok : string -> bool;
      (* is this response healthy?  Judges every load's replies, and is
         the VM's response classifier *)
  pr_more_loads : (int * string list) list;
      (* further (port, script) loads the experience harness drives *)
  pr_health_probe : string;
  pr_health_ok : string -> bool;
  pr_overrides : to_version:string -> Common.overrides;
  (* Optional durability hooks for stateful apps: serialize the live
     state of a running VM, and replay a serialized snapshot into a
     freshly booted base-version VM (the supervisor migrates the data
     forward through missed schema hops afterwards).  The serialized
     form is opaque to the fleet layer. *)
  pr_snapshot : (VM.Vm.t -> (string, string) result) option;
  pr_restore : (VM.Vm.t -> string -> (unit, string) result) option;
}

let miniweb =
  {
    pr_name = "miniweb";
    pr_versioned = Miniweb.app;
    pr_port = Miniweb.protocol_port;
    pr_script = Workload.web_script;
    pr_ok = Workload.web_ok;
    pr_more_loads = [];
    pr_health_probe = Miniweb.health_probe;
    pr_health_ok = Miniweb.health_ok;
    pr_overrides = (fun ~to_version:_ -> Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let minimail =
  {
    pr_name = "minimail";
    pr_versioned = Minimail.app;
    pr_port = Minimail.smtp_port;
    pr_script = Workload.smtp_script;
    pr_ok = Workload.default_ok;
    pr_more_loads = [ (Minimail.pop_port, Workload.pop_script) ];
    pr_health_probe = Minimail.health_probe;
    pr_health_ok = Minimail.health_ok;
    pr_overrides = Minimail.overrides;
    pr_snapshot = None;
    pr_restore = None;
  }

let miniftp =
  {
    pr_name = "miniftp";
    pr_versioned = Miniftp.app;
    pr_port = Miniftp.port;
    pr_script = Workload.ftp_script;
    pr_ok = Workload.default_ok;
    pr_more_loads = [];
    pr_health_probe = Miniftp.health_probe;
    pr_health_ok = Miniftp.health_ok;
    pr_overrides = (fun ~to_version:_ -> Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let ministore =
  {
    pr_name = "ministore";
    pr_versioned = Ministore.app;
    pr_port = Ministore.port;
    pr_script = Workload.store_script;
    pr_ok = Workload.store_ok;
    pr_more_loads = [];
    pr_health_probe = Ministore.health_probe;
    pr_health_ok = Ministore.health_ok;
    pr_overrides = Ministore.overrides;
    pr_snapshot =
      Some
        (fun vm ->
          Result.map Ministore.snapshot_to_string (Ministore.scrape vm));
    pr_restore =
      Some
        (fun vm str ->
          Result.bind
            (Ministore.snapshot_of_string str)
            (Ministore.restore vm));
  }

let all = [ miniweb; minimail; miniftp; ministore ]

let by_name name = List.find_opt (fun p -> p.pr_name = name) all

let versions p = List.map fst p.pr_versioned.Patching.versions

let source p ~version = Patching.source p.pr_versioned ~version

let compile p ~version = Jv_lang.Compile.compile_program (source p ~version)

(* The update spec that moves [old_program], running [from_version], to
   [to_version].  Its version tag is one per hop ("514" for
   from-version 5.1.4), the same on every VM that takes the hop. *)
let spec p ~from_version ~to_version ~old_program ~new_program =
  Common.spec ~overrides:(p.pr_overrides ~to_version)
    ~version_tag:(Common.version_tag from_version)
    ~old_program ~new_program ()

(* Every (port, script) load of the app, the front one first. *)
let loads p = (p.pr_port, p.pr_script) :: p.pr_more_loads

(* High opt threshold keeps the per-session run() methods base-compiled
   (in Jikes RVM they are never sample-hot either); the per-request
   handler methods still cross it and exercise the opt compiler. *)
let default_config =
  {
    VM.State.default_config with
    VM.State.heap_words = 1 lsl 19;
    opt_threshold = 150;
  }

(* Boot [program], a compiled version of [p], on a fresh VM and let the
   server open its listeners. *)
let boot ?(config = default_config) p program =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm program;
  (* responses the app's protocol rejects count as app-level errors,
     charged to the code epoch that sent them (the guard watchdog's 5xx
     signal) *)
  VM.Vm.set_response_classifier vm (Some p.pr_ok);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  vm

(* One closed-loop workload per load of [p], attached to [vm]. *)
let attach vm p ~concurrency =
  List.map
    (fun (port, script) ->
      Workload.attach vm ~port ~script ~ok:p.pr_ok ~concurrency ())
    (loads p)
