(* One gossip participant: the decision loop of a decentralized rollout,
   run on each instance.  A node owns its instance's mempool and decides
   {e locally, from gossip alone} when to drain, when to apply, and when
   to revert; how one attempt changes the instance is the shared
   per-instance lifecycle ({!Jv_fleet.Lifecycle}), the same one the
   rollout orchestrator drives.  What is the node's own:

   - it votes on every proposal it first learns (Pro when the proposal
     advances its own epoch from its own version, Con otherwise), and
     records each vote it casts, with its reason, as a [gossip] [vote]
     event on its VM's obs sink — the reason travels nowhere else;
   - it applies a proposal only once its mempool holds the apply quorum
     of Pro votes — drain (stop admitting, wait for in-flight), then a
     guarded lifecycle request;
   - a guard trip auto-reverts in-VM and the node then casts a Trip
     vote (the verdict stays in its vote event);
   - trip votes reaching the {e fence} quorum condemn the proposal
     everywhere: appliers force-trip their open guard (or apply the
     inverse spec if the window already closed) and non-appliers refuse
     the proposal forever — the peer-to-peer inverse wave, with no
     central coordinator anywhere.

   Epoch bookkeeping makes convergence checkable: applying proposal P
   sets the node's epoch to [P.p_epoch]; a fence revert sets it to
   [P.p_epoch - 1]; nodes that never applied stay put — so a fenced
   rollout converges with every live node back on the old epoch. *)

module J = Jvolve_core
module Instance = Jv_fleet.Instance
module Lb = Jv_fleet.Lb
module Lifecycle = Jv_fleet.Lifecycle

type config = {
  nc_quorum : int; (* Pro votes required to apply (self included) *)
  nc_fence : int; (* trip votes required to condemn a proposal *)
  nc_drain_timeout : int;
  nc_update_timeout : int;
  nc_max_retries : int;
  nc_backoff_base : int;
  nc_guard : J.Guard.config option; (* per-node, probe already bound *)
}

type phase =
  | Idle
  | Draining of { prop : string; until : int }
  | Updating of { prop : string; att : Lifecycle.attempt }
  | Guarded of { prop : string; att : Lifecycle.attempt }
  | Reverting of Lifecycle.attempt (* the inverse of the applied hop *)
  | Backoff of { prop : string; until : int }
  | Stuck of string

let phase_to_string = function
  | Idle -> "idle"
  | Draining _ -> "draining"
  | Updating _ -> "updating"
  | Guarded _ -> "guarded"
  | Reverting _ -> "reverting"
  | Backoff _ -> "backoff"
  | Stuck why -> "stuck: " ^ why

(* What a node queues for the runtime to spread. *)
type rumor =
  | Prop of Mempool.proposal (* a fresh proposal *)
  | Tally of string (* this proposal's tally grew *)

type t = {
  n_inst : Instance.t; (* its [i_id] is the node's id *)
  n_pool : Mempool.t;
  n_cfg : config;
  n_lb : Lb.t; (* the fleet balancer fronting this instance *)
  n_hop_for : Mempool.proposal -> (Lifecycle.hop, string) result;
  n_on_epoch : int -> int -> unit; (* old -> new, for fleet tallies *)
  n_obs : Jv_obs.Obs.t; (* the instance VM's own sink *)
  mutable n_epoch : int;
  mutable n_phase : phase;
  mutable n_applied : (Mempool.proposal * Lifecycle.hop) option;
      (* the live forward hop *)
  mutable n_fenced : string list; (* condemned proposal ids *)
  mutable n_attempts : (string * int) list; (* per-proposal aborts *)
  mutable n_out : rumor list; (* fresh rumors, drained by the runtime *)
}

let epoch_gauge = "gossip.epoch"

let create ?(epoch = 0) ~inst ~cfg ~lb ~hop_for ~on_epoch () =
  let obs = Jv_vm.Vm.obs inst.Instance.i_vm in
  Jv_obs.Obs.set_gauge obs epoch_gauge (float_of_int epoch);
  {
    n_inst = inst;
    n_pool = Mempool.create ();
    n_cfg = cfg;
    n_lb = lb;
    n_hop_for = hop_for;
    n_on_epoch = on_epoch;
    n_obs = obs;
    n_epoch = epoch;
    n_phase = Idle;
    n_applied = None;
    n_fenced = [];
    n_attempts = [];
    n_out = [];
  }

let epoch t = t.n_epoch
let phase t = t.n_phase
let pool t = t.n_pool
let live t = match t.n_phase with Stuck _ -> false | _ -> true
let take_out t =
  let out = List.rev t.n_out in
  t.n_out <- [];
  out

let spread t r = t.n_out <- r :: t.n_out

let set_epoch t e =
  if e <> t.n_epoch then begin
    let old = t.n_epoch in
    t.n_epoch <- e;
    Jv_obs.Obs.set_gauge t.n_obs epoch_gauge (float_of_int e);
    t.n_on_epoch old e
  end

(* --- voting (call under the pool lock) --------------------------------- *)

let stance_to_string = function
  | Mempool.Pro -> "pro"
  | Mempool.Con -> "con"
  | Mempool.Trip -> "trip"

(* Record the vote and its reason on the VM's sink; a vote that raised
   our stance spreads as the proposal's tally. *)
let cast t ~prop stance ~why =
  Jv_obs.Obs.emit t.n_obs ~scope:"gossip" "vote"
    [
      ("prop", Jv_obs.Obs.Str prop);
      ("stance", Jv_obs.Obs.Str (stance_to_string stance));
      ("why", Jv_obs.Obs.Str why);
    ];
  if Mempool.add_vote t.n_pool ~prop ~voter:t.n_inst.Instance.i_id stance then
    spread t (Tally prop)

let vote t ~prop stance ~why =
  Mempool.with_lock t.n_pool (fun () -> cast t ~prop stance ~why)

(* --- ingesting gossip --------------------------------------------------- *)

(* Feed one decoded payload into the pool; anything fresh is queued for
   re-broadcast (rumor mongering) and a fresh proposal is voted on
   immediately: Pro iff it advances this node's own epoch starting from
   the version it actually runs.  [gossip.votes_seen] counts the votes
   this node learns off the wire: per delivered tally, one for each
   other voter whose stance it raised (a restarted node relearning its
   own vote does not count it), so a healthy N-node rollout reads
   N x (N - 1). *)
let learn t msg =
  Mempool.with_lock t.n_pool (fun () ->
      match msg with
      | Wire.Prop p -> (
          match Mempool.add_proposal t.n_pool p with
          | `Duplicate -> ()
          | `Fresh ->
              spread t (Prop p);
              if
                p.Mempool.p_from_version = t.n_inst.Instance.i_version
                && p.Mempool.p_epoch = t.n_epoch + 1
              then cast t ~prop:p.Mempool.p_id Mempool.Pro ~why:"ok"
              else
                cast t ~prop:p.Mempool.p_id Mempool.Con
                  ~why:
                    (Printf.sprintf "base-mismatch:%s@e%d"
                       t.n_inst.Instance.i_version t.n_epoch))
      | Wire.Tally { t_prop; t_maps } -> (
          match Mempool.merge t.n_pool ~prop:t_prop ~maps:t_maps with
          | [] -> ()
          | fresh ->
              let self = t.n_inst.Instance.i_id in
              let others =
                List.fold_left
                  (fun n v -> if v = self then n else n + 1)
                  0 fresh
              in
              if others > 0 then
                Jv_obs.Obs.incr t.n_obs ~by:others "gossip.votes_seen";
              spread t (Tally t_prop))
      | Wire.Digest _ | Wire.Want _ | Wire.Bye -> ())

(* --- the per-round decision step ---------------------------------------- *)

let attempts t prop =
  Option.value ~default:0 (List.assoc_opt prop t.n_attempts)

(* A proposal this node should move on: targets our epoch + version, has
   the apply quorum of Pro votes, and is not condemned. *)
let actionable t =
  Mempool.with_lock t.n_pool (fun () ->
      List.find_opt
        (fun (p : Mempool.proposal) ->
          (not (List.mem p.Mempool.p_id t.n_fenced))
          && p.Mempool.p_epoch = t.n_epoch + 1
          && p.Mempool.p_from_version = t.n_inst.Instance.i_version
          && attempts t p.Mempool.p_id <= t.n_cfg.nc_max_retries
          &&
          let pro, _, trip = Mempool.tally t.n_pool ~prop:p.Mempool.p_id in
          pro >= t.n_cfg.nc_quorum && trip < t.n_cfg.nc_fence)
        (Mempool.proposals t.n_pool))

(* Proposals whose trip votes reached the fence quorum since we last
   looked: condemn them locally. *)
let newly_fenced t =
  Mempool.with_lock t.n_pool (fun () ->
      List.filter
        (fun (p : Mempool.proposal) ->
          (not (List.mem p.Mempool.p_id t.n_fenced))
          &&
          let _, _, trip = Mempool.tally t.n_pool ~prop:p.Mempool.p_id in
          trip >= t.n_cfg.nc_fence)
        (Mempool.proposals t.n_pool))

let fence t prop =
  if not (List.mem prop t.n_fenced) then t.n_fenced <- prop :: t.n_fenced

let start_update t ~prop =
  match
    Mempool.with_lock t.n_pool (fun () -> Mempool.find t.n_pool prop)
  with
  | None -> t.n_phase <- Idle (* cannot happen: pools never forget *)
  | Some p -> (
      (* the update never reached the VM: refuse it and keep serving *)
      let refuse e ~stuck =
        vote t ~prop Mempool.Con ~why:("prepare:" ^ e);
        Lifecycle.readmit t.n_lb t.n_inst;
        t.n_phase <- Stuck stuck
      in
      match t.n_hop_for p with
      | Error e -> refuse e ~stuck:("spec build failed: " ^ e)
      | Ok hop -> (
          match
            Lifecycle.request ~timeout_rounds:t.n_cfg.nc_update_timeout
              ?guard:t.n_cfg.nc_guard ~inverse:false t.n_inst hop
          with
          | Ok att ->
              t.n_applied <- Some (p, hop);
              t.n_phase <- Updating { prop; att }
          | Error e -> refuse e ~stuck:("prepare error: " ^ e)))

(* Off the applied hop, back on the epoch before it ([p_epoch - 1] — a
   no-op when a guard trip outran our own apply scan and the epoch was
   never bumped). *)
let unapply t =
  Option.iter (fun (p, _) -> set_epoch t (p.Mempool.p_epoch - 1)) t.n_applied;
  t.n_applied <- None

(* The guard tripped (budget or force) and the VM reverted itself:
   cast a trip vote and fall back to the old epoch. *)
let guard_reverted t ~prop (v : J.Guard.verdict) =
  Jv_obs.Obs.incr t.n_obs "gossip.guard_trips";
  vote t ~prop Mempool.Trip ~why:(J.Guard.verdict_to_string v);
  fence t prop;
  unapply t;
  t.n_phase <- Idle

(* The peer-to-peer inverse wave: this node applied [prop], the fence
   quorum condemned it, and the guard window is already closed — stop
   admitting and apply the inverse spec (unguarded, like the
   orchestrator's rollbacks). *)
let start_inverse t ~prop =
  match t.n_applied with
  | Some (p, hop) when p.Mempool.p_id = prop -> (
      Lifecycle.drain t.n_lb t.n_inst;
      match
        Lifecycle.request ~timeout_rounds:t.n_cfg.nc_update_timeout
          ~inverse:true t.n_inst hop
      with
      | Ok att -> t.n_phase <- Reverting att
      | Error e ->
          Lifecycle.retire t.n_lb t.n_inst;
          t.n_phase <- Stuck ("inverse prepare error: " ^ e))
  | _ -> t.n_phase <- Idle (* nothing applied: nothing to undo *)

(* Fence consequences for the node's own position on [prop].  A node
   mid-[Updating] is left alone — its DSU attempt must resolve first,
   and the resolution path re-checks [n_fenced]. *)
let enforce_fence t ~prop =
  fence t prop;
  Jv_obs.Obs.incr t.n_obs "gossip.fences_enforced";
  match t.n_phase with
  | Draining { prop = p; _ } | Backoff { prop = p; _ } when p = prop ->
      (* never started: stand down and keep serving the old version *)
      Lifecycle.readmit t.n_lb t.n_inst;
      t.n_phase <- Idle
  | Guarded { prop = p; att } when p = prop ->
      (* window still open: the in-VM revert replays the retained log;
         a window that already closed cleanly is caught at the Guarded
         resolution step via [n_fenced] *)
      ignore (Lifecycle.force_trip ~reason:"gossip fence quorum" att : bool)
  | Idle -> start_inverse t ~prop
  | _ -> ()

(* A crashed VM can never reach a safe point, so a pending update, guard
   window, or inverse attempt on it would wedge the node forever — and a
   dead VM whose attempt did land must not be readmitted either, since a
   node has no probe stage to catch the corpse later.  Mark it Stuck
   instead: [note_stuck] then pulls it from the epoch tallies and a
   supervisor restart rebuilds the node via [rejoin]. *)
let wedge t ~doing =
  t.n_applied <- None;
  Lifecycle.retire t.n_lb t.n_inst;
  t.n_phase <- Stuck ("vm killed " ^ doing)

let updated t ~prop ~att ~now = function
  | Lifecycle.Landed { guarded } ->
      Option.iter (fun (p, _) -> set_epoch t p.Mempool.p_epoch) t.n_applied;
      Jv_obs.Obs.incr t.n_obs "gossip.applies";
      (* the fence may have arrived while our attempt was in flight *)
      if List.mem prop t.n_fenced then
        if Lifecycle.force_trip ~reason:"gossip fence quorum" att then
          t.n_phase <- Guarded { prop; att }
        else start_inverse t ~prop
      else begin
        Lifecycle.readmit t.n_lb t.n_inst;
        t.n_phase <- (if guarded then Guarded { prop; att } else Idle)
      end
  | Lifecycle.Reverted v ->
      (* tripped before we ever saw the apply: already back on old code *)
      guard_reverted t ~prop v
  | Lifecycle.Aborted { why; trusted = true } ->
      t.n_applied <- None;
      let n = attempts t prop + 1 in
      t.n_attempts <- (prop, n) :: List.remove_assoc prop t.n_attempts;
      if n <= t.n_cfg.nc_max_retries then
        let delay = Lifecycle.backoff ~base:t.n_cfg.nc_backoff_base ~attempt:n in
        t.n_phase <- Backoff { prop; until = now + delay }
      else begin
        vote t ~prop Mempool.Con ~why:("abort:" ^ why);
        t.n_phase <- Stuck ("retries exhausted: " ^ why)
      end
  | Lifecycle.Aborted { why; trusted = false } ->
      t.n_applied <- None;
      t.n_phase <- Stuck ("abort without rollback: " ^ why)
  | Lifecycle.Killed -> wedge t ~doing:"mid-update"

let window_closed t ~prop = function
  | Lifecycle.Landed _ ->
      (* clean close: the commit is final — unless the fence quorum
         arrived between the close and this scan *)
      if List.mem prop t.n_fenced then start_inverse t ~prop
      else t.n_phase <- Idle
  | Lifecycle.Reverted v -> guard_reverted t ~prop v
  | Lifecycle.Aborted { why; _ } ->
      (* trip whose in-VM revert rolled forward: not trusted *)
      vote t ~prop Mempool.Trip ~why:("revert-failed:" ^ why);
      t.n_phase <- Stuck "guard revert failed"
  | Lifecycle.Killed -> wedge t ~doing:"during guard window"

let reverted t = function
  | Lifecycle.Landed _ ->
      unapply t;
      Jv_obs.Obs.incr t.n_obs "gossip.reverts";
      Lifecycle.readmit t.n_lb t.n_inst;
      t.n_phase <- Idle
  | Lifecycle.Killed -> wedge t ~doing:"mid-revert"
  | Lifecycle.Reverted _ | Lifecycle.Aborted _ ->
      (* the inverse update failed: this VM's state is not trusted *)
      t.n_phase <- Stuck "inverse update failed"

(* One decision step per fleet round. *)
let tick t ~now =
  (* fences first: a condemnation must interrupt whatever we are doing *)
  List.iter
    (fun (p : Mempool.proposal) -> enforce_fence t ~prop:p.Mempool.p_id)
    (newly_fenced t);
  match t.n_phase with
  | Stuck _ -> ()
  | Idle -> (
      match actionable t with
      | None -> ()
      | Some p ->
          Lifecycle.drain t.n_lb t.n_inst;
          t.n_phase <-
            Draining
              { prop = p.Mempool.p_id; until = now + t.n_cfg.nc_drain_timeout })
  | Draining { prop; until } ->
      if Lb.in_flight t.n_lb ~id:t.n_inst.Instance.i_id = 0 || now >= until
      then start_update t ~prop
  | Updating { prop; att } -> (
      if Lifecycle.killed t.n_inst then wedge t ~doing:"mid-update"
      else
        match Lifecycle.resolve t.n_lb att with
        | None -> ()
        | Some v -> updated t ~prop ~att ~now v)
  | Guarded { prop; att } -> (
      if Lifecycle.killed t.n_inst then wedge t ~doing:"during guard window"
      else
        match Lifecycle.watch t.n_lb att with
        | None -> ()
        | Some v -> window_closed t ~prop v)
  | Reverting att -> (
      if Lifecycle.killed t.n_inst then wedge t ~doing:"mid-revert"
      else
        match Lifecycle.resolve t.n_lb att with
        | None -> ()
        | Some v -> reverted t v)
  | Backoff { prop; until } ->
      if now >= until then begin
        Lifecycle.drain t.n_lb t.n_inst;
        t.n_phase <- Draining { prop; until = now + t.n_cfg.nc_drain_timeout }
      end
