(* The fleet facade: N independent VM instances of one server app behind
   a load balancer, stepped in lockstep rounds.

   One fleet round = one scheduler round on every in-service VM, one
   balancer pump (lines move client<->backend), one step of every
   attached closed-loop load ([Jv_simnet.Client]).  A rollout and its
   supervisor step on top of this in one loop, [Orchestrator.drive];
   [Supervisor.settle] heals with no rollout running.

   Every member gets the same build: the fleet compiles each version
   once and builds each (from, to) hop once ([program], [hop]), and
   boots, reboots, rollouts, catch-ups and gossip all read those.  A
   compiled class list is never written after compilation, so one list
   serves every VM. *)

module VM = Jv_vm
module CF = Jv_classfile
module Client = Jv_simnet.Client
module App = Jv_apps.App

let default_lb_port = 80

type t = {
  profile : App.t;
  config : VM.State.config;
  instances : Instance.t array;
  lb : Lb.t;
  mutable loads : Client.t list;
  mutable ticks : int;
  obs : Jv_obs.Obs.t; (* fleet-level sink, clocked by fleet rounds *)
  mutable faults : Jv_faults.Faults.t option; (* plan armed by [set_faults] *)
  programs : (string, CF.Cls.t list) Hashtbl.t; (* version -> compiled *)
  hops : (string * string, Lifecycle.hop) Hashtbl.t; (* (from, to) -> hop *)
}

(* [version] compiled, once per fleet (counted in [fleet.compiles]). *)
let compile_once (profile : App.t) obs programs ~version =
  match Hashtbl.find_opt programs version with
  | Some p -> p
  | None ->
      let p = App.compile profile ~version in
      Jv_obs.Obs.incr obs "fleet.compiles";
      Hashtbl.replace programs version p;
      p

let create ?(config = App.default_config) ?(policy = Lb.Round_robin)
    ?(lb_port = default_lb_port) ~profile ~version ~size () =
  if size < 1 then invalid_arg "Fleet.create: size must be >= 1";
  let obs = Jv_obs.Obs.create () in
  Jv_obs.Obs.set_wall obs Unix.gettimeofday;
  let programs = Hashtbl.create 4 in
  let program = compile_once profile obs programs ~version in
  let instances =
    Array.init size (fun id ->
        Instance.boot ~config profile ~id ~version program)
  in
  let lb = Lb.create ~policy ~ok:profile.App.pr_ok ~obs ~port:lb_port () in
  Array.iter
    (fun (inst : Instance.t) ->
      Lb.register lb ~id:inst.Instance.i_id ~net:(Instance.net inst)
        ~backend_port:inst.Instance.i_port)
    instances;
  let t =
    { profile; config; instances; lb; loads = []; ticks = 0; obs;
      faults = None; programs; hops = Hashtbl.create 4 }
  in
  Jv_obs.Obs.set_clock obs (fun () -> t.ticks);
  t

let program t ~version = compile_once t.profile t.obs t.programs ~version

(* The fleet's one build of the hop [from_version] -> [to_version]. *)
let hop t ~from_version ~to_version =
  match Hashtbl.find_opt t.hops (from_version, to_version) with
  | Some h -> h
  | None ->
      let h =
        Lifecycle.hop t.obs ~from_version ~to_version
          (App.spec t.profile ~from_version ~to_version
             ~old_program:(program t ~version:from_version)
             ~new_program:(program t ~version:to_version))
      in
      Hashtbl.replace t.hops (from_version, to_version) h;
      h

let size t = Array.length t.instances
let instance t id = t.instances.(id)
let instances t = Array.to_list t.instances
let lb t = t.lb
let ticks t = t.ticks
let obs t = t.obs
let profile t = t.profile
let config t = t.config
let faults t = t.faults

(* Scripted sessions against the balancer.  A closed-loop client never
   sends its next line before the previous one is answered, so a request
   (or response) swallowed by a lossy link ([net.link=drop] on an
   instance net) would wedge the session -- and its balancer route --
   forever; [request_timeout] closes it instead (counted in
   [timed_out_requests], apart from [dropped_in_flight]: fault-induced
   loss is not an update-window sever) and frees the slot. *)
let default_request_timeout = 200

let attach_load ?(concurrency = 4) ?(max_sessions = max_int)
    ?(request_timeout = default_request_timeout) t =
  let d =
    Client.create ~net:(Lb.front t.lb) ~port:t.lb.Lb.port
      ~script:t.profile.App.pr_script ~ok:t.profile.App.pr_ok
      ~arrivals:(Client.Closed { concurrency; max_sessions })
      ~timeout:request_timeout ()
  in
  t.loads <- t.loads @ [ d ];
  d

let detach_loads t =
  List.iter Client.detach t.loads;
  t.loads <- []

(* Arm (or disarm) one chaos plan across the whole fleet: every instance
   VM (its [updater.*] points and scheduler kill switch) and every
   instance network (the LB-to-backend links cross each instance's own
   simnet, so [net.*] faults partition exactly that path). *)
let set_faults t f =
  t.faults <- f;
  Array.iter
    (fun (i : Instance.t) -> VM.Vm.set_faults i.Instance.i_vm f)
    t.instances;
  Option.iter (fun p -> Jv_faults.Faults.set_obs p t.obs) f

let round t =
  t.ticks <- t.ticks + 1;
  Array.iter Instance.round t.instances;
  Lb.pump t.lb ~tick:t.ticks;
  Jv_obs.Obs.set_gauge t.obs "fleet.lb.in_flight"
    (float_of_int (Lb.total_in_flight t.lb));
  List.iter (fun d -> Client.step d ~now:t.ticks) t.loads

let run t ~rounds =
  for _ = 1 to rounds do
    round t
  done

(* --- fleet-wide invariant helpers (tests, results) -------------------- *)

let versions t =
  Array.to_list (Array.map (fun i -> i.Instance.i_version) t.instances)

(* [Some v] iff every instance still in service runs version [v]. *)
let uniform_version t =
  let vs =
    List.filter_map
      (fun (i : Instance.t) ->
        if i.Instance.i_status = Instance.Out_of_service then None
        else Some i.Instance.i_version)
      (instances t)
  in
  match vs with
  | [] -> None
  | v :: rest -> if List.for_all (( = ) v) rest then Some v else None

let total_requests t =
  List.fold_left (fun n d -> n + d.Client.completed_requests) 0 t.loads

let total_errors t =
  List.fold_left (fun n d -> n + d.Client.errors) 0 t.loads

let dropped_in_flight t =
  Lb.dropped t.lb
  + List.fold_left (fun n d -> n + d.Client.dropped_in_flight) 0 t.loads
