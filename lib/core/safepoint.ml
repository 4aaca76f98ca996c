(* DSU safe points (paper §3.2).

   A DSU safe point is a VM safe point at which no thread's stack contains
   a *restricted* method.  Restricted methods are:

   (1) methods whose bytecode the update changes — method-body updates,
       every method of a class update, and every method of a deleted
       class — plus opt-compiled methods that *inlined* one of those;
   (2) methods whose bytecode is unchanged but whose compiled code is
       stale because it hard-codes offsets of an updated class ("indirect
       method updates") — these block only if opt-compiled: base-compiled
       frames are lifted by OSR;
   (3) methods the user blacklists for version consistency.

   With [config.confree] on, the static con-freeness analysis ([Confree])
   runs first and every changed method it proves [Identical] or
   [Compatible] is subtracted from category (1): its old body may legally
   keep running across the commit, so its frames no longer block the safe
   point.  User blacklist entries always override a proof, and an
   opt-compiled caller that inlined a changed body stays restricted unless
   every body it inlined is itself proven.

   When restricted methods are on stack, Jvolve installs a return barrier
   on the topmost restricted frame of each stuck thread and retries when it
   fires. *)

module IntSet = Set.Make (Int)
module State = Jv_vm.State
module Rt = Jv_vm.Rt
module Machine = Jv_vm.Machine

type restricted = {
  changed : IntSet.t; (* categories (1) and (3) + inline callers: blocking *)
  stale : IntSet.t; (* category (2): OSR-able when base-compiled *)
  proofs : Confree.t option; (* con-freeness verdicts (None: analysis off) *)
  proven_off : int; (* proven methods subtracted from [changed] *)
}

let resolve_mref vm (r : Diff.mref) : int option =
  match Rt.find_class vm.State.reg r.Diff.r_class with
  | None -> None
  | Some rc -> (
      match Rt.resolve_method vm.State.reg rc r.Diff.r_name r.Diff.r_sig with
      | Some m -> Some m.Rt.uid
      | None -> None)

(* Resolve the restricted sets against current runtime metadata.  Must run
   while the update's old classes are still installed under their original
   names (i.e., at request time). *)
let compute ?proofs vm (spec : Spec.t) : restricted =
  let changed = ref IntSet.empty in
  let add_set setref uid = setref := IntSet.add uid !setref in
  (* all methods of updated (closure) and deleted classes *)
  List.iter
    (fun cname ->
      match Rt.find_class vm.State.reg cname with
      | None -> ()
      | Some rc ->
          Array.iter (fun (m : Rt.rt_method) -> add_set changed m.Rt.uid)
            rc.Rt.methods)
    (spec.Spec.diff.Diff.class_updates_closure
    @ spec.Spec.diff.Diff.deleted_classes);
  (* method body updates *)
  List.iter
    (fun r ->
      match resolve_mref vm r with
      | Some uid -> add_set changed uid
      | None -> ())
    spec.Spec.diff.Diff.body_updates;
  (* Con-freeness subtraction: changed methods proven compatible may keep
     running across the commit.  A user blacklist pin always overrides a
     proof, so blacklisted uids are never subtracted. *)
  let blacklist_uids =
    List.filter_map (resolve_mref vm) spec.Spec.blacklist
    |> List.fold_left (fun s u -> IntSet.add u s) IntSet.empty
  in
  let proofs =
    if not vm.State.config.State.confree then None
    else
      match proofs with
      | Some get -> Some (get ())
      | None -> Some (Confree.analyze spec)
  in
  let proven_off = ref 0 in
  (match proofs with
  | None -> ()
  | Some t ->
      List.iter
        (fun r ->
          match resolve_mref vm r with
          | Some uid
            when IntSet.mem uid !changed
                 && not (IntSet.mem uid blacklist_uids) ->
              changed := IntSet.remove uid !changed;
              incr proven_off
          | _ -> ())
        (Confree.proven t));
  (* user blacklist: category (3) *)
  IntSet.iter (add_set changed) blacklist_uids;
  (* category (2) *)
  let stale = ref IntSet.empty in
  List.iter
    (fun r ->
      match resolve_mref vm r with
      | Some uid -> add_set stale uid
      | None -> ())
    spec.Spec.diff.Diff.indirect_methods;
  (* Inline callers: an opt-compiled method that inlined a restricted body
     is running old code.  If the caller's own bytecode changed it is in
     (1) already; otherwise it joins the *stale* set: its active frames
     block unless OSR can replace them — base frames never inlined
     anything, and with the opt-OSR extension an opt frame parked outside
     its inline spans can be wholly replaced (discarding the stale inlined
     copy), while a frame parked *inside* a span is caught by the span
     check in [Jv_vm.Osr.eligible]. *)
  let seed = IntSet.union !changed !stale in
  Rt.iter_methods vm.State.reg (fun m ->
      match m.Rt.opt_code with
      | Some c
        when List.exists (fun u -> IntSet.mem u seed) c.Machine.inlined
             && not (IntSet.mem m.Rt.uid !changed) ->
          add_set stale m.Rt.uid
      | _ -> ());
  (* the seed above is the post-subtraction changed set: an opt caller
     whose every inlined changed body is proven never joins [stale] —
     inlined copies of proven bodies may keep running too *)
  { changed = !changed; stale = !stale; proofs; proven_off = !proven_off }

type check_result =
  | Safe of State.frame list (* base-compiled category-(2) frames to OSR *)
  | Blocked of (State.vthread * State.frame) list
      (* per stuck thread, the topmost restricted frame (barrier site) *)

(* Classify a frame.  [allow_osr:false] (an ablation mode) treats every
   category-(2) frame as blocking, showing how much flexibility OSR buys.
   [Jv_vm.Osr.eligible] admits base-compiled frames and — with the
   [opt_osr] extension — opt-compiled frames parked outside inlined
   regions. *)
let frame_class vm ~allow_osr r (fr : State.frame) =
  let uid = fr.State.f_method in
  if IntSet.mem uid r.changed then `Blocking
  else if IntSet.mem uid r.stale then
    if allow_osr && Jv_vm.Osr.eligible vm fr then `Osr else `Blocking
  else `Clear

(* Check whether the stopped world is at a DSU safe point. *)
let check ?(allow_osr = true) vm (r : restricted) : check_result =
  let osr_frames = ref [] in
  let stuck = ref [] in
  List.iter
    (fun (t : State.vthread) ->
      (* walk from the top of the stack; once any frame blocks, the
         thread is stuck at the topmost restricted frame, where a barrier
         would go *)
      let top_restricted = ref None in
      let stuck_at = ref None in
      State.iter_frames
        (fun fr ->
          match frame_class vm ~allow_osr r fr with
          | `Blocking ->
              if Option.is_none !top_restricted then top_restricted := Some fr;
              if Option.is_none !stuck_at then stuck_at := !top_restricted
          | `Osr ->
              if Option.is_none !top_restricted then top_restricted := Some fr;
              osr_frames := fr :: !osr_frames
          | `Clear -> ())
        t;
      Option.iter (fun fr -> stuck := (t, fr) :: !stuck) !stuck_at)
    (State.live_threads vm);
  Jv_obs.Obs.incr vm.State.obs "core.safepoint.checks";
  Jv_obs.Obs.set_gauge vm.State.obs "core.safepoint.blocked_threads"
    (float_of_int (List.length !stuck));
  if !stuck = [] then Safe !osr_frames else Blocked (List.rev !stuck)

(* Install return barriers on the topmost restricted frames (paper: "the VM
   installs return-barriers for (1) and (3)").  Returns how many new
   barriers were installed. *)
let install_barriers (stuck : (State.vthread * State.frame) list) : int =
  List.fold_left
    (fun acc (_, fr) ->
      if fr.State.barrier then acc
      else begin
        fr.State.barrier <- true;
        acc + 1
      end)
    0 stuck

let clear_barriers vm =
  List.iter
    (fun (t : State.vthread) ->
      State.iter_frames (fun fr -> fr.State.barrier <- false) t)
    vm.State.threads

(* Release every thread parked by a fired return barrier (when the update
   resolves either way). *)
let release_parked vm =
  List.iter
    (fun (t : State.vthread) ->
      if t.State.tstate = State.T_blocked State.B_dsu then
        t.State.tstate <- State.T_runnable)
    vm.State.threads

(* A thread that parked at a barrier but still has restricted frames deeper
   in its stack must keep running (with a fresh barrier) to clear them. *)
let unpark_stuck (stuck : (State.vthread * State.frame) list) =
  List.iter
    (fun ((t : State.vthread), _) ->
      if t.State.tstate = State.T_blocked State.B_dsu then
        t.State.tstate <- State.T_runnable)
    stuck

(* Structured starvation diagnostic: per stuck thread, the topmost
   restricted frame that kept the DSU safe point out of reach.  A timeout
   abort names these instead of reporting a bare timeout. *)
type blocker = {
  b_tid : int;
  b_method : string; (* qualified name of the topmost restricted frame *)
  b_why : string option;
      (* why the frame has no con-freeness proof (timeout diagnostics) *)
}

(* Why a restricted frame could not be proven off the restricted set:
   the analysis's recorded reason, a blacklist override, or the analysis
   being off entirely. *)
let unproven_why vm (r : restricted) (fr : State.frame) : string option =
  let m = Rt.method_by_uid vm.State.reg fr.State.f_method in
  let c = Rt.class_by_id vm.State.reg m.Rt.owner in
  let mref =
    { Diff.r_class = c.Rt.name; r_name = m.Rt.m_name; r_sig = m.Rt.m_sig }
  in
  match r.proofs with
  | None -> Some "con-freeness analysis off"
  | Some t -> (
      match Confree.find t mref with
      | Some res when res.Confree.cr_verdict = Confree.Restricted ->
          Some
            ("no proof: " ^ Confree.reason_to_string res.Confree.cr_reason)
      | Some res ->
          (* proven, yet still blocking: a blacklist pin overrode it *)
          Some
            (Printf.sprintf "blacklisted (overrides its %s proof)"
               (Confree.verdict_to_string res.Confree.cr_verdict))
      | None ->
          if IntSet.mem fr.State.f_method r.stale then
            Some "stale compiled code (indirect update), not OSR-able here"
          else Some "blacklisted"
      )

let blocker_list vm (r : restricted)
    (stuck : (State.vthread * State.frame) list) : blocker list =
  stuck
  |> List.map (fun ((t : State.vthread), (fr : State.frame)) ->
         let m = Rt.method_by_uid vm.State.reg fr.State.f_method in
         let c = Rt.class_by_id vm.State.reg m.Rt.owner in
         {
           b_tid = t.State.tid;
           b_method = Rt.method_qname c m;
           b_why = unproven_why vm r fr;
         })
  |> List.sort_uniq compare

let blocker_to_string b =
  Printf.sprintf "thread %d: %s%s" b.b_tid b.b_method
    (match b.b_why with None -> "" | Some w -> " [" ^ w ^ "]")

(* Human-readable description of what blocks the update (for abort
   messages and the experience tables). *)
let describe_blockers vm (r : restricted)
    (stuck : (State.vthread * State.frame) list) : string =
  blocker_list vm r stuck |> List.map blocker_to_string |> String.concat "; "
