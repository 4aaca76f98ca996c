(** Public facade over the VM substrate.

    {[
      let vm = Vm.create () in
      Vm.boot vm classes;
      ignore (Vm.spawn_main vm ~main_class:"Main");
      Vm.run vm ~rounds:100;
      print_string (Vm.output vm)
    ]} *)

type t = State.t

val create : ?config:State.config -> unit -> t

val boot : t -> Jv_classfile.Cls.t list -> unit
(** Verify and load a program (builtins injected); raises
    {!Classloader.Load_error}. *)

val spawn_main : t -> main_class:string -> State.vthread
val run : t -> rounds:int -> unit

val run_to_quiescence :
  ?max_rounds:int -> t -> [ `All_done | `Deadlocked | `Max_rounds ]

val output : t -> string
(** Everything the program printed via [Sys.print]/[Sys.println]. *)

val ticks : t -> int
val net : t -> Jv_simnet.Simnet.t

val obs : t -> Jv_obs.Obs.t
(** The VM's observability sink: flight-recorder events and metrics,
    tick-stamped by this VM's logical clock. *)

val gc : t -> Gc.result
(** Force a plain full collection. *)

val add_poller : t -> (State.t -> unit) -> unit
(** Register a harness hook run at the start of every scheduler round
    (workload drivers pumping the simulated network). *)

val clear_pollers : t -> unit
val live_threads : t -> State.vthread list

val set_faults : t -> Jv_faults.Faults.t option -> unit
(** Arm (or disarm, with [None]) a chaos plan on this VM: the updater's
    injection points and this VM's simnet links consult it, and its
    fires are reported to this VM's sink. *)

val faults : t -> Jv_faults.Faults.t option

val killed : t -> string option
(** [Some point] once a [kill] fault fired: the VM is dead (the
    scheduler no-ops), as after a process crash before the update
    transaction committed. *)

val epoch : t -> int
(** The current code epoch (bumped once per applied update or revert). *)

val set_response_classifier : t -> (string -> bool) option -> unit
(** When set, every server-side [Net.send] line is classified; lines the
    predicate rejects count as app-level errors charged to the current
    code epoch (the guard watchdog's 5xx signal). *)

val traps_at_epoch : t -> int -> int
(** Interpreter traps raised while the given epoch's code was installed. *)

val app_errors_at_epoch : t -> int -> int
(** Classifier-rejected responses sent under the given epoch's code. *)

type stats = {
  instr_count : int;
  compile_count : int;
  opt_compile_count : int;
  osr_count : int;
  gc_count : int;
  deref_checks : int;
  heap_used_words : int;
  heap_committed_words : int;
      (** both semi-spaces' lengths: [Heap.floor_words] each until the heap
          needs more, then the [heap_words] cap each *)
  traps : (int * string) list;  (** (thread id, message) *)
}

val stats : t -> stats
