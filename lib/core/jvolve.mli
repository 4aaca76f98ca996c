(** The Jvolve facade: request a dynamic update on a running VM and let
    the scheduler apply it at the next DSU safe point (paper Figure 1).

    {[
      let spec = Jvolve_core.Spec.make ~version_tag:"131"
                   ~old_program ~new_program () in
      let handle = Jvolve_core.Jvolve.update_now vm spec in
      match handle.h_outcome with
      | Applied timings -> ...
      | Reverted verdict -> ...
      | Aborted reason -> ...
      | Pending -> ...
    ]}

    With [?guard] set, a successful apply is a {e guarded commit}: the
    update log stays alive and a {!Guard} window watches the new code
    epoch for a bounded number of rounds.  Tripping the error budget
    automatically applies the inverse update ([Spec.inverse], replaying
    the retained log) and flips the handle to [Reverted]. *)

module State = Jv_vm.State

type outcome =
  | Pending
  | Applied of Updater.timings
  | Reverted of Guard.verdict
      (** Applied, then the post-commit guard window's error budget
          tripped and the automatic inverse update restored the old
          version ([v_revert_ms] holds the revert's pause). *)
  | Aborted of Updater.abort
      (** A typed abort: [a_phase = P_sync] for pre-apply failures (the
          paper's 15 s timeout, here a round budget); later install
          phases mean the transactional installation failed and rolled
          the VM back ([a_rolled_back]); [P_guard] means the guard
          tripped but the revert itself failed and rolled forward — the
          VM stays on the {e new} version — or, for a lazy commit, the
          window's own rollback came back untrusted. *)

type handle = {
  h_prepared : Transformers.prepared;
  h_restricted : Safepoint.restricted;
  h_requested_at : int;  (** tick at request time *)
  h_deadline : int;  (** abort tick *)
  h_timeout_rounds : int;
  h_use_osr : bool;  (** ablation: lift category-2 frames by OSR *)
  h_use_barriers : bool;  (** ablation: install return barriers *)
  h_guard : Guard.config option;  (** guarded commit, if set *)
  h_revert_of : (handle * Guard.verdict) option;
      (** this handle is the guard revert of another update *)
  mutable h_outcome : outcome;
  mutable h_attempts : int;
  mutable h_barriers_installed : int;
  mutable h_blockers : string;  (** last observed blocking methods *)
  mutable h_stuck : Safepoint.blocker list;
      (** the threads/frames that last blocked the safe point — a
          timeout abort names the first of these *)
  mutable h_sync_ms : float;
      (** stack-scan time of the successful attempt (paper: "less than a
          millisecond") *)
  mutable h_guard_state : Guard.t option;  (** open window, if any *)
  mutable h_guard_busy : bool;  (** window open or revert in flight *)
}

exception Busy
(** Raised when another update is already pending on this VM. *)

val default_timeout_rounds : int

val request :
  ?timeout_rounds:int ->
  ?use_osr:bool ->
  ?use_barriers:bool ->
  ?admit_strict:bool ->
  ?guard:Guard.config ->
  State.t ->
  Transformers.prepared ->
  handle
(** Signal the VM: the scheduler will attempt the update at every safe
    point (and immediately whenever a return barrier fires) until it
    applies or times out.

    {!Admission.review} runs first; a rejected update resolves
    immediately as [Aborted] in phase [P_admit] and the VM never pauses.
    [admit_strict] promotes [Warn] verdicts (e.g. a field silently
    changing type) to rejections.

    The static work — the admission report, the con-freeness analysis
    the restricted set subtracts, and a guard revert's inverse bundle —
    is done once per [prepared] value ({!Transformers.memo}), so one
    value requested on many VMs pays for it once.

    [guard] makes the commit guarded: see {!Guard} and
    {!run_to_guard_close}. *)

val request_spec :
  ?timeout_rounds:int ->
  ?use_osr:bool ->
  ?use_barriers:bool ->
  ?admit_strict:bool ->
  ?guard:Guard.config ->
  State.t ->
  Spec.t ->
  handle
(** {!Transformers.prepare} + {!request}. *)

val update_now :
  ?timeout_rounds:int ->
  ?use_osr:bool ->
  ?use_barriers:bool ->
  ?admit_strict:bool ->
  ?guard:Guard.config ->
  ?max_rounds:int ->
  State.t ->
  Spec.t ->
  handle
(** Convenience for tests and benchmarks: request, then drive the
    scheduler until the update resolves (or [max_rounds] elapse).  Note
    this returns at the {e commit}: with [guard] set the window is still
    open — follow with {!run_to_guard_close}. *)

val force_trip : State.t -> handle -> reason:string -> unit
(** Trip an open guard window from outside the budget (a fleet-wide
    coordinated revert): the in-VM revert replays the retained log
    exactly as a budget-driven trip would.  No-op if the window is not
    open. *)

val guard_active : handle -> bool
(** The guard window is open, or a tripped window's revert is still in
    flight. *)

val run_to_guard_close : ?max_rounds:int -> State.t -> handle -> outcome
(** Drive the scheduler until the whole guard cycle resolves: apply (or
    abort), then clean close / trip-and-revert.  Returns the terminal
    outcome ([Applied] with the retained log released, [Reverted], or
    [Aborted]). *)

val outcome_to_string : outcome -> string

(** {1 Attempt outcomes (fleet orchestration)} *)

val resolved : handle -> bool
(** Applied, reverted or aborted (no longer pending). *)

val succeeded : handle -> bool
(** [Applied] — a reverted update does not count as a success. *)

(** A plain-data snapshot of one update attempt, for orchestrators that
    aggregate outcomes across a fleet of VMs. *)
type attempt_report = {
  ar_outcome : outcome;
  ar_attempts : int;
  ar_barriers_installed : int;
  ar_sync_ms : float;
  ar_blockers : string;
  ar_stuck : Safepoint.blocker list;
  ar_waited_rounds : int;  (** ticks from request to resolution (or so far) *)
}

val report : State.t -> handle -> attempt_report
