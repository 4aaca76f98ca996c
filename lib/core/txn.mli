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
(** The update applied: drop the snapshot root. *)

val commit_retaining : State.t -> t -> update_log:int array -> unit
(** Commit, but keep the update log (still registered in [extra_roots] by
    the updater) alive for a post-commit guard window, published as
    [State.guard_retained].  Its pristine old copies feed the
    inverse-update replay if the guard trips, and the heap verifier's
    [guard_pending] allowance until then.  Pair with
    {!release_retained}. *)

val release_retained : State.t -> unit
(** Close the guard window: unroot the retained log (if any) and run a
    plain collection so the old copies die.  Idempotent. *)

val redirect_of_log : int array -> (int, int) Hashtbl.t
(** The new object → pristine old copy addresses of a flattened update
    log: the [redirect] a rollback collection ({!Jv_vm.Gc.collect})
    chases.  The log must hold current addresses. *)

val rollback : ?update_log:int array -> State.t -> t -> unit
(** Restore metadata and statics, then — when [update_log] is non-empty,
    i.e. the transforming collection already ran — undo the heap pass by
    collecting with a redirect built from the log (new object → pristine
    old copy).  The log must hold current addresses: unregister it from
    [extra_roots] immediately before this call, with no collection in
    between. *)

val audit : State.t -> t -> (unit, string) result
(** Is the metadata exactly the snapshot again?  [Error why] names the
    first discrepancy (a half-installed class table). *)
