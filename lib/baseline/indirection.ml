(* The lazy, indirection-based baseline, modeled on JDrums and the Dynamic
   Virtual Machine (paper §5).

   Instead of Jvolve's eager stop-the-world GC pass, objects are migrated
   *on first dereference*.  The migration is the updater's lazy update
   window: an [indirection_mode] VM commits every update lazily and
   never sweeps in the background, so an old object is transformed (by
   the update's own object transformers) only when a
   getfield/putfield/invokevirtual reaches it, and later touches chase
   its lazy-forward marker.  What makes it the baseline is the tax:
   every dereference pays a check, update or no update
   ([State.deref_checks]), whereas Jvolve's updated programs run at full
   speed.

   Requires a VM created with [indirection_mode = true]; the [overhead]
   benchmark contrasts the two modes. *)

module State = Jv_vm.State
module J = Jvolve_core

(* Apply an update lazily.  Class metadata is installed at once (that
   part is unavoidable in any design); object migration happens on
   demand.  Lazy systems must still not run old code against new
   signatures, so this uses the same safe-point check as Jvolve, but has
   no barrier machinery to wait for one: a blocked check fails. *)
let apply vm (prepared : J.Transformers.prepared) : (unit, string) result =
  if not vm.State.config.indirection_mode then
    Error "VM was not created with indirection_mode (no dereference checks)"
  else
    let restricted = J.Safepoint.compute vm prepared.J.Transformers.p_spec in
    match J.Safepoint.check vm restricted with
    | J.Safepoint.Blocked stuck ->
        Error
          ("restricted methods on stack: "
          ^ J.Safepoint.describe_blockers vm restricted stuck)
    | J.Safepoint.Safe osr_frames -> (
        match J.Updater.apply vm prepared ~restricted ~osr_frames with
        | Ok _ -> Ok ()
        | Error a -> Error (J.Updater.abort_to_string a))

(* Objects migrated so far by the open update window (0 when none). *)
let migrated vm =
  match vm.State.lazy_info with
  | Some li -> li.State.li_transformed
  | None -> 0

(* Steady-state instrumentation: how many dereference checks has this VM
   paid for?  (Nonzero even with no update in flight — that is the
   baseline's tax.) *)
let deref_checks vm = vm.State.deref_checks
