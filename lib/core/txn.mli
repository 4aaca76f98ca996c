(** The update transaction: snapshot of everything an update mutates
    (registry shape, per-class/per-method mutable fields, the name table,
    the JTOC statics area), exact restoration on abort, and a
    post-rollback audit.  The JTOC snapshot is registered as an extra GC
    root while the transaction is open so its references survive and
    track every collection.  See [Updater.apply]. *)

module State = Jv_vm.State

type t

val capture : State.t -> t
(** Open a transaction.  Registers the statics snapshot as an extra GC
    root; every capture must be paired with exactly one {!commit} or
    {!rollback}. *)

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

val rollback_heap : ?plan:Jv_vm.Gc.transform_plan -> State.t ->
  Jv_vm.Gc.result option
(** Undo the transforming pass with one collection that chases the
    in-flight log's redirect (new object → pristine old copy), plus an
    inverse [plan] for a lazy window.  Takes the log off the VM's roots
    first, so the collection does not redirect the log's own slots.
    [None] when there was no log, or an empty one and no plan: no
    collection ran. *)

val rollback : State.t -> t -> unit
(** Restore metadata and statics, then {!rollback_heap} (a no-op when
    the transforming collection never ran, or a lazy rollback already
    undid the heap). *)

val audit : State.t -> t -> (unit, string) result
(** Is the metadata exactly the snapshot again?  [Error why] names the
    first discrepancy (a half-installed class table). *)
