(** The update transaction: snapshot of everything an update mutates
    (registry shape, per-class/per-method mutable fields, the name table,
    the JTOC statics area), the restore steps of a rollback, and the
    post-rollback audit.  The JTOC snapshot is registered as an extra GC
    root while the transaction is open so its references survive and
    track every collection.  [Updater.rollback] runs the restore
    sequence; see [Updater.apply]. *)

module State = Jv_vm.State

type t

val capture : State.t -> t
(** Open a transaction.  Registers the statics snapshot as an extra GC
    root; every capture must be paired with exactly one {!commit} or
    {!restore_statics}. *)

val commit : State.t -> t -> unit
(** The update applied: drop the snapshot root and the in-flight update
    log ([State.update_log]). *)

val commit_retaining : State.t -> t -> unit
(** Commit, but move the in-flight update log, when it holds any pair,
    to [State.guard_retained] for a post-commit guard window.  Its
    pristine old copies feed the inverse-update replay if the guard
    trips, and the heap verifier's [guard_pending] allowance until
    then.  Pair with {!release_retained}. *)

val release_retained : State.t -> unit
(** Close the guard window: drop the retained log (if any) and run a
    plain collection so the old copies die — unless the log is still in
    flight in a draining lazy window, whose finalize collects instead.
    Idempotent. *)

val restore_statics : State.t -> t -> unit
(** Put the statics back, zero every slot the update appended, and drop
    the snapshot root: the first step of [Updater.rollback]. *)

val restore_metadata : State.t -> t -> (unit, string) result
(** Truncate the appended class and method ids and put back every saved
    field and the name table, then audit: [Error why] names the first
    discrepancy (a half-installed class table). *)
