(** The lazy, indirection-based baseline, modeled on JDrums and the
    Dynamic Virtual Machine (paper §5): objects migrate on first
    dereference, and every dereference pays a check — update or no
    update.  Migration runs on the updater's lazy update window, which
    an [indirection_mode] VM opens for every update and never sweeps in
    the background.  Requires a VM created with
    [indirection_mode = true]. *)

val apply :
  Jv_vm.State.t -> Jvolve_core.Transformers.prepared -> (unit, string) result
(** Commit the update as a lazy window ({!Jvolve_core.Updater.apply}):
    metadata installs at once, objects migrate when touched, and a
    window left open by an earlier update is drained first.  Fails
    (rather than waiting) if restricted methods are on stack — lazy
    systems have no barrier machinery — and reports a rolled-back abort
    as [Error]. *)

val migrated : Jv_vm.State.t -> int
(** Objects the open update window has migrated so far (0 with no
    window open). *)

val deref_checks : Jv_vm.State.t -> int
(** How many dereference checks this VM has paid for (the baseline's
    steady-state tax; counted even with no update in flight). *)
