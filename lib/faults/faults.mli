(** Seeded, deterministic fault injection.

    A {e fault plan} arms named injection points spread through the stack
    (updater phases, the simulated network, the fleet orchestrator) to
    raise, kill the VM, drop a message or delay it.  All probabilistic
    decisions draw from one seeded xorshift stream owned by the plan, so
    a (plan, seed) pair replays the same fault schedule on every run.

    Plan syntax ([parse]):
    {v
    PLAN   := RULE { ',' RULE }
    RULE   := POINT '=' ACTION [ '@' RATE ] [ 'x' COUNT ]
    ACTION := 'raise' | 'kill' | 'drop' | 'delay:' TICKS
    v}
    e.g. ["updater.transform=raise@0.2"], ["updater.load=kill x1"],
    ["net.link=delay:3@0.1,net.connect=drop@0.05"].  A POINT with a
    trailing ['*'] matches by prefix. *)

type action =
  | Raise  (** raise {!Injected} at the point *)
  | Kill  (** raise {!Killed}: the VM dies, as in a process crash *)
  | Drop  (** network: discard the message / refuse the connection *)
  | Delay of int  (** network: hold the message for N ticks *)

exception Injected of string  (** payload: the point that fired *)

exception Killed of string

type t

val create : ?seed:int -> unit -> t
val seed : t -> int

val set_obs : t -> Jv_obs.Obs.t -> unit
(** Every fire emits a [fault.fired] event (scope ["faults"]) and bumps
    the [faults.fired] counter on this sink. *)

val points : string list
(** The registry: every injection point the stack consults. *)

val known : string -> bool
(** Whether a rule's point names a registered point, or ends in ['*']
    with a prefix of at least one. *)

val arm : t -> point:string -> ?rate:float -> ?max_fires:int -> action -> unit
(** Append a rule.  [rate] defaults to 1.0 (always), [max_fires] to
    unlimited.  Raises [Invalid_argument] for a point {!known} refuses. *)

val clear : t -> unit

(** {1 The seeded stream}

    Deterministic harness schedules (gossip fanout, partition splits)
    draw from the same xorshift stream the plan's rate checks use, so a
    seed fixes faults and schedules together. *)

val draw : t -> float
(** One draw in [0, 1). *)

val draw_int : t -> int -> int
(** One draw in [0, bound); raises [Invalid_argument] if [bound <= 0]. *)

val parse : ?seed:int -> string -> (t, string) result
(** Parse a plan string (syntax above) into a fresh plan; a rule whose
    point is not {!known} is an error. *)

val to_string : t -> string
(** Round-trip a plan back to its string form. *)

(** {1 Consultation}

    All consultations take a [t option] so call sites need no match on
    "faults configured at all". *)

val check : t option -> string -> action option
(** First matching, non-exhausted rule whose rate check passes fires and
    is recorded; [None] when nothing fires. *)

val point : t option -> string -> unit
(** Execution-path point: [Raise]/[Kill] become {!Injected}/{!Killed};
    network-only actions are ignored. *)

val link : t option -> string -> [ `Ok | `Drop | `Delay of int ]
(** Network point: never raises; [Raise]/[Kill] armed on a link behave
    like a drop. *)

(** {1 Accounting (assertions in chaos tests)} *)

val fired : t -> int
val fired_at : t -> string -> int
