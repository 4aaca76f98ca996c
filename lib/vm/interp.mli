(** The execution engine: runs machine code in time slices that end only
    at VM safe points (yield points, returns, native-call blocking), so
    every parked thread is always at a safe point — the invariant GC,
    scheduling, and DSU all build on. *)

exception Trap of string
(** Runtime faults (null dereference, division by zero, bounds, failed
    casts, Sys.fail) are terminal per-thread, never per-VM. *)

exception Lazy_abort
(** Raised by the lazy-update read barrier when the open window is
    aborting: the current instruction has not executed, so [run_slice]
    parks the thread at its safe point to re-execute it once the
    window's rollback has restored the old version. *)

type slice_end = S_parked | S_blocked | S_finished | S_trapped of string

val run_slice : State.t -> State.vthread -> fuel:int -> slice_end

val guard_write : State.t -> addr:int -> what:string -> unit
(** Raise {!Trap} when a sandbox with the write guard armed forbids a
    store to [addr] (exposed so the updater's fault injection can push a
    simulated bad write through the same gate). *)

val charge_fuel : State.t -> unit
(** Charge one step against the active sandbox's fuel budget; raises
    {!Trap} once the invocation's budget is spent (exposed so the
    updater's copy plans pay through the same gate). *)

val retry_pending : State.t -> State.vthread -> unit
(** Re-run the native call a blocked thread is parked on (called by the
    scheduler once the block reason looks ready). *)

exception Sync_trap of string

val make_carrier : State.t -> State.vthread
(** A registered thread reusable across many synchronous calls (the
    updater makes one transformer call per transformed object). *)

val release_carrier : State.t -> State.vthread -> unit
val call_on : State.t -> State.vthread -> Rt.rt_method -> int array -> int

val call_sync : State.t -> Rt.rt_method -> int array -> int
(** Run a method to completion on a temporary thread; used for [<clinit>]
    at boot and Jvolve transformer functions during updates. *)
