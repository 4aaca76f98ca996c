(** Applying an update at a DSU safe point (paper §3.3-3.4): metadata
    installation, code invalidation, OSR, and the transforming collection
    with its update log. *)

module State = Jv_vm.State

exception Update_error of string

(** Where the pause went (the split reported in Table 1). *)
type timings = {
  u_load_ms : float;  (** class installation + body swaps + OSR *)
  u_gc_ms : float;  (** the transforming full-heap collection *)
  u_transform_ms : float;  (** running class and object transformers *)
  u_verify_ms : float;  (** post-transform heap integrity walk (0 if off) *)
  u_total_ms : float;
  u_osr : int;  (** frames replaced on stack *)
  u_invalidated_methods : int;  (** compiled bodies thrown away *)
  u_transformed_objects : int;
  u_copied_objects : int;
}

(** Which phase of the update an abort happened in. *)
type phase =
  | P_admit  (** rejected by admission control; the VM never paused *)
  | P_sync  (** never reached [apply]: safe-point timeout, prepare error *)
  | P_load  (** metadata installation, clinits, transformer install *)
  | P_gc  (** the transforming collection *)
  | P_transform  (** class and object transformers *)
  | P_verify  (** the post-transform heap integrity walk *)
  | P_osr  (** on-stack replacement of parked frames *)
  | P_guard
      (** the post-commit guard window: the error budget tripped and the
          automatic inverse-update revert itself failed (the abort wraps
          the revert's own phase; the VM stays on the new version,
          rolled back from the revert attempt) *)

val phase_to_string : phase -> string

(** Where a transformer was executing when it failed. *)
type transformer_site = {
  ts_method : string;  (** qualified transformer method *)
  ts_class : string;  (** class being transformed *)
  ts_object : int;  (** heap address; 0 for class transformers *)
}

val site_desc : transformer_site -> string

(** What, structurally, sank the update (the [a_reason] string renders
    it for humans; this is for policy). *)
type cause =
  | C_generic
  | C_injected of string  (** fault-plan point that fired *)
  | C_transformer_trap of transformer_site * string
  | C_fuel_exhausted of transformer_site * int  (** steps charged *)
  | C_sandbox_violation of transformer_site * string
  | C_heap_verify of string list  (** verifier issues *)
  | C_admission of string list  (** rejecting verdicts *)

val cause_to_string : cause -> string

(** A typed abort: the update did not apply, and — when [a_rolled_back]
    holds — the transaction restored the VM to the pre-update state and
    the post-rollback metadata audit (plus heap verification, when
    enabled) passed. *)
type abort = {
  a_phase : phase;
  a_reason : string;
  a_cause : cause;
  a_rolled_back : bool;
  a_rollback_ms : float;
}

val sync_abort : string -> abort
(** An abort before [apply] ever ran (nothing to roll back). *)

val admission_abort : string list -> abort
(** An update rejected by admission control before the VM paused. *)

val abort_to_string : abort -> string

exception Update_failure of cause * string
(** A failure inside [apply] that carries a typed cause. *)

(** The body-swap steps, exposed for the HotSwap baseline (it reuses
    them without a safe point, a transaction or a heap pass): *)

val swap_method_bodies : State.t -> Spec.t -> unit
(** Method-body updates: replace bytecode in place, invalidate compiled
    code, reset profiles (paper §3.3). *)

val invalidate_stale_code : State.t -> Safepoint.restricted -> int
(** Throw away compiled code with stale offsets (category 2) and opt code
    that inlined any restricted method.  Returns the invalidation count
    and bumps the resolution epoch. *)

val apply :
  ?retain_log:bool ->
  ?replay:Jv_vm.Update_log.t ->
  State.t ->
  Transformers.prepared ->
  restricted:Safepoint.restricted ->
  osr_frames:State.frame list ->
  (timings, abort) result
(** The full update, to be called with all threads stopped at a DSU safe
    point; [osr_frames] are the category-(2) frames {!Safepoint.check}
    found.  Runs inside a {!Txn}: any failure — transformer trap, cyclic
    transformer dependency (paper §3.4), or an injected fault at the
    [updater.load] / [updater.gc] / [updater.transform] / [updater.osr]
    points — rolls the VM back to the pre-update snapshot and returns
    [Error abort].  A [Faults.Killed] injection additionally marks the VM
    killed ([State.killed]) after the rollback.

    With [State.config.lazy_update], or on an [indirection_mode] VM, the
    commit runs no transforming collection: it opens a lazy update
    window in which old objects are transformed on first dereference
    (and, except in [indirection_mode], by a background sweeper), and
    the transaction stays open until the window drains or rolls back.
    A window still open from an earlier update is drained first.

    The update log is the VM's in-flight log ([State.update_log], a GC
    root) from the transforming collection, or for the life of a lazy
    window, until the commit or the rollback.  [retain_log] commits
    through {!Txn.commit_retaining}: the same log moves to
    [State.guard_retained] (a lazy window retains it as it opens) and
    stays rooted there until the guard window closes
    ({!Txn.release_retained}).  [replay] marks this
    application as a guard revert: after the (inverse) transformers run,
    the fields the forward update dropped are restored from the retained
    forward log, and the [guard.revert] fault point is consulted first.

    Class transformers, and object transformers from a custom
    [transformer_src] or an [object_overrides] body, run on the
    interpreter, sandboxed: each invocation gets a fresh fuel budget
    ([State.config.transformer_fuel]) and object transformers may only
    write the objects under transformation plus their own fresh
    allocations.  A class's generated default [jvolveObject] instead runs
    as a copy plan compiled from {!Transformers.default_field_pairs}: a
    plain word copy that still consults the same fault points in the same
    order and charges one fuel step, so it fails exactly where the
    interpreted default would.  The [transformer.loop] /
    [transformer.throw] / [transformer.badwrite] fault points drive each
    failure mode through the corresponding enforcement path.  The
    [phase.transform.done] event reports [planned] and [interpreted]
    pair counts (counters [core.update.planned_pairs] /
    [core.update.interpreted_pairs]); [core.update.transformer_steps]
    counts a step per interpreted instruction and one per planned pair.
    With
    [State.config.verify_heap] set, a full {!Jv_vm.Heapverify} walk runs
    after the transform phase ([P_verify]; failure aborts) and again
    after any rollback (failure clears [a_rolled_back]). *)
