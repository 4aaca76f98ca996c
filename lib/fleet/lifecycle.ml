(* One instance's update lifecycle, shared by every rollout policy.

   However an update is decided, it reaches a fleet member the same way:
   drain (stop admitting, let in-flight sessions finish) -> a guarded
   [Jvolve.request] of the hop's prepared update -> the attempt resolves
   -> the guard window closes or trips -> health probes -> readmit.  The
   rollout [Orchestrator] runs these steps per wave and the gossip node
   per quorum decision.  Each keeps only its policy — which instances
   move when, retries, and what one member's failure means for the rest
   — while this module owns what must not differ between them: the hop a
   member takes, the guard config it runs under, and what a handle's
   outcome means for the instance (version, program, status and balancer
   admission).

   A hop is built once and shared: the fleet keeps one per (from, to)
   ([Fleet.hop]), so its spec is diffed, its transformers compiled and
   its admission review, con-freeness analysis and inverse bundle worked
   out once for every member that takes it. *)

module J = Jvolve_core
module VM = Jv_vm

(* --- status and admission ------------------------------------------------ *)

let killed (i : Instance.t) = VM.Vm.killed i.Instance.i_vm <> None

let set lb (i : Instance.t) status ~admit =
  i.Instance.i_status <- status;
  Lb.set_admit lb ~id:i.Instance.i_id admit

let drain lb i = set lb i Instance.Draining ~admit:false
let readmit lb i = set lb i Instance.In_service ~admit:true

(* Out of the fleet until a supervisor restart: a killed VM, or one whose
   state is no longer trusted. *)
let retire lb i = set lb i Instance.Out_of_service ~admit:false

(* Rounds before retry (or restart) [attempt], 1-based: doubles each time. *)
let backoff ~base ~attempt = base * (1 lsl (attempt - 1))

(* --- the update a member takes ------------------------------------------ *)

type hop = {
  from_version : string;
  to_version : string;
  spec : J.Spec.t; (* always the forward spec *)
  prepared : (J.Transformers.prepared, string) result;
      (* [spec] prepared; [Error] carries the preparation failure, which
         every attempt at the hop reports *)
}

(* Build (and count, in the fleet sink [obs]) the hop that applies
   [spec]. *)
let hop obs ~from_version ~to_version spec =
  Jv_obs.Obs.incr obs "fleet.update_builds";
  {
    from_version;
    to_version;
    spec;
    prepared =
      (match J.Transformers.prepare spec with
      | p -> Ok p
      | exception J.Transformers.Prepare_error e -> Error e);
  }

let on_new (i : Instance.t) h =
  i.Instance.i_version <- h.to_version;
  i.Instance.i_program <- h.spec.J.Spec.new_program

let on_old (i : Instance.t) h =
  i.Instance.i_version <- h.from_version;
  i.Instance.i_program <- h.spec.J.Spec.old_program

(* A guard config without a probe gets the profile's health probe on the
   instance's own port. *)
let guard_for ~probe_deadline (profile : Profile.t) (i : Instance.t) = function
  | None -> None
  | Some cfg ->
      Some
        (match cfg.J.Guard.c_probe with
        | Some _ -> cfg
        | None ->
            {
              cfg with
              J.Guard.c_probe =
                Some
                  (J.Guard.probe_config ~every:20 ~deadline:probe_deadline
                     ~port:i.Instance.i_port
                     ~line:profile.Profile.pr_health_probe
                     ~ok:profile.Profile.pr_health_ok ());
            })

(* --- one attempt --------------------------------------------------------- *)

type attempt = {
  a_inst : Instance.t;
  a_hop : hop;
  a_inverse : bool; (* backing the hop out: inverse spec, to [from_version] *)
  a_handle : J.Jvolve.handle;
}

(* Start the hop (or its inverse) on the instance's VM.  [Error] carries
   the preparation failure: the request never reached the VM. *)
let request ?admit_strict ?guard ~timeout_rounds ~inverse (i : Instance.t) h
    =
  i.Instance.i_status <-
    (if inverse then Instance.Rolling_back else Instance.Updating);
  Result.bind h.prepared (fun p ->
      if inverse then J.Transformers.inverse p else Ok p)
  |> Result.map (fun p ->
         {
           a_inst = i;
           a_hop = h;
           a_inverse = inverse;
           a_handle =
             J.Jvolve.request ~timeout_rounds ?admit_strict ?guard
               i.Instance.i_vm p;
         })

(* Resolved, or stuck for good on a dead VM. *)
let settled a = J.Jvolve.resolved a.a_handle || killed a.a_inst

let outcome_name a =
  match a.a_handle.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> "applied"
  | J.Jvolve.Reverted _ -> "reverted"
  | J.Jvolve.Aborted _ -> "aborted"
  | J.Jvolve.Pending -> "pending"

(* Trip the attempt's guard window if it is still open: the in-VM revert
   replays the retained log.  [false] when there is no open window. *)
let force_trip ~reason a =
  J.Jvolve.guard_active a.a_handle
  && (J.Jvolve.force_trip a.a_inst.Instance.i_vm a.a_handle ~reason;
      true)

(* --- what an attempt came to --------------------------------------------- *)

type verdict =
  | Landed of { guarded : bool }
      (* committed; [guarded]: its guard window is still open *)
  | Reverted of J.Guard.verdict
      (* the guard tripped and the in-VM revert put the instance back on
         the old version: it serves again *)
  | Aborted of { why : string; trusted : bool }
      (* the attempt (or the guard's revert) did not commit.  [trusted]:
         the VM is alive and rolled back to where it started, so it
         serves again and may retry; otherwise — an abort without
         rollback, a failed inverse or guard revert — it is retired *)
  | Killed (* the VM died before the attempt or its window settled *)

let untrusted lb i why =
  retire lb i;
  Some (Aborted { why; trusted = false })

let dead lb i =
  retire lb i;
  Some Killed

(* What a settled attempt came to, with the instance changes that go
   with it; [None] while it is pending on a live VM.  A landed attempt
   changes version and program only: whether the instance serves again
   right away or after health probes is the caller's policy. *)
let resolve lb a =
  let i = a.a_inst in
  match a.a_handle.J.Jvolve.h_outcome with
  | J.Jvolve.Pending -> if killed i then dead lb i else None
  | J.Jvolve.Applied _ ->
      (if a.a_inverse then on_old else on_new) i a.a_hop;
      Some (Landed { guarded = J.Jvolve.guard_active a.a_handle })
  | J.Jvolve.Reverted v ->
      if a.a_inverse then
        (* cannot happen: inverse requests are never guarded *)
        untrusted lb i
          ("guard reverted the rollback: " ^ J.Guard.verdict_to_string v)
      else begin
        on_old i a.a_hop;
        readmit lb i;
        Some (Reverted v)
      end
  | J.Jvolve.Aborted ab ->
      let why = J.Updater.abort_to_string ab in
      (* an inverse that did not land leaves the instance on the version
         the fleet is backing out of *)
      if a.a_inverse || (not ab.J.Updater.a_rolled_back) || killed i then
        untrusted lb i why
      else begin
        readmit lb i;
        Some (Aborted { why; trusted = true })
      end

(* The guard window of a landed attempt: [None] while it is open on a
   live VM, [Landed] once it closed clean (the commit is final).  A trip
   whose revert rolled forward to an abort leaves the VM on the new
   version: untrusted, whatever the abort says. *)
let watch lb a =
  if J.Jvolve.guard_active a.a_handle then
    if killed a.a_inst then dead lb a.a_inst else None
  else
    match a.a_handle.J.Jvolve.h_outcome with
    | J.Jvolve.Aborted ab -> untrusted lb a.a_inst (J.Updater.abort_to_string ab)
    | _ -> resolve lb a

(* --- health probes -------------------------------------------------------- *)

(* Rounds one health probe may take, and the consecutive healthy probes
   that readmit an instance.  The supervisor and the gossip guard probe
   use these; a rollout's [Orchestrator.params] default to them. *)
let probe_deadline = 80
let probes_required = 2

(* [required] consecutive healthy probes against the instance's own
   port, each with [deadline] rounds to answer. *)
type probing = {
  pg_start : now:int -> Health.probe;
  mutable pg_probe : Health.probe;
  mutable pg_needed : int;
}

let probing (profile : Profile.t) (i : Instance.t) ~deadline ~required ~now =
  let start ~now =
    Health.start ~net:(Instance.net i) ~port:i.Instance.i_port
      ~line:profile.Profile.pr_health_probe ~ok:profile.Profile.pr_health_ok
      ~now ~deadline_rounds:deadline
  in
  { pg_start = start; pg_probe = start ~now; pg_needed = required }

type probe_step =
  | Waiting
  | Healthy of int (* latency in rounds; another probe is due *)
  | Passed of int (* latency of the last of the [required] probes *)
  | Unhealthy of string

let step_probe pg ~now =
  Health.step pg.pg_probe ~now;
  match Health.outcome pg.pg_probe with
  | Health.Pending -> Waiting
  | Health.Unhealthy why -> Unhealthy why
  | Health.Healthy latency ->
      pg.pg_needed <- pg.pg_needed - 1;
      if pg.pg_needed > 0 then begin
        pg.pg_probe <- pg.pg_start ~now;
        Healthy latency
      end
      else Passed latency
