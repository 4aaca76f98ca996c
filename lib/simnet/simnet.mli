(** The in-memory network substrate standing in for the paper's real
    sockets (see DESIGN.md, "Substitutions"): line-oriented bidirectional
    connections between servers running on the VM (via the [Net.*]
    natives) and the line client ({!Client}) in the harness. *)

type t

val create : unit -> t

val set_obs : t -> Jv_obs.Obs.t -> unit
(** Attach an observability sink: per-connection open/close events (scope
    ["net"]), byte counters, and connection lifetime/byte histograms. *)

val set_faults : t -> Jv_faults.Faults.t option -> unit
(** Arm (or disarm) a chaos plan on this network.  Armed points:
    ["net.connect"] — a firing rule refuses the connection ([connect]
    returns [None], as across a partition); ["net.link"] — consulted
    once per sent line in either direction: [drop] discards the line,
    [delay:N] holds it for N ticks of the attached sink's clock;
    ["simnet.partition"] — consulted by {!tick_faults}: a fire splits
    the listening ports into two random islands for a while.
    Delay and timed-partition faults require a sink ({!set_obs}) whose
    clock advances. *)

(** {1 Partitions}

    A partition assigns ports to islands: connections cannot be opened
    across islands ([connect ~from] returns [None]) and lines sent on
    established cross-island connections are silently dropped.  Ports
    not named in any group share the implicit island [-1] — anonymous
    clients ([connect] without [~from]) live there too. *)

val set_partition : t -> groups:int list list -> unit
(** Split the network: each [groups] element is one island of ports.
    Replaces any previous partition; stays until {!heal} (or the timer
    installed by a [simnet.partition] fault fires). *)

val heal : t -> unit
(** Remove the partition. *)

val partitioned : t -> a:int -> b:int -> bool
(** Are ports [a] and [b] currently on different islands? *)

val tick_faults : t -> unit
(** Consult the ["simnet.partition"] chaos point once (call once per
    owner round): a fire installs a seeded random two-way split of the
    listening ports, healing after [delay:N] ticks (other actions use a
    default window).  Also heals any expired timed partition. *)

exception Net_error of string

(** {1 Server side (used by the VM natives)} *)

val listen : t -> port:int -> int
(** Bind a port; returns the listener id.  Raises {!Net_error} if the
    port is taken. *)

val accept : t -> listener_id:int -> int option
(** Non-blocking: [None] means the VM thread must block. *)

val has_pending : t -> listener_id:int -> bool

val pending_count : t -> listener_id:int -> int
(** Accepted-queue depth on a listener (load-balancer backlog pressure). *)

val recv_line : t -> conn_id:int -> [ `Line of string | `Eof | `Wait ]
val send : t -> conn_id:int -> string -> unit
val close_server : t -> conn_id:int -> unit
val can_recv : t -> conn_id:int -> bool

(** {1 Client side (used by {!Client} and the balancer proxy)} *)

val connect : ?from:int -> t -> port:int -> int option
(** [None] if nothing listens on [port] (or a partition separates
    [from] and [port]).  [from] is the client's own port identity for
    partition checks; default [-1] (anonymous). *)

val client_send : t -> conn_id:int -> string -> unit
val client_recv : t -> conn_id:int -> [ `Line of string | `Eof | `Wait ]
val client_close : t -> conn_id:int -> unit
val client_can_recv : t -> conn_id:int -> bool
val server_closed : t -> conn_id:int -> bool

val reap : t -> conn_id:int -> unit
(** Drop a fully-closed connection's storage. *)

(** {1 Accounting (throughput figures)} *)

val stats : t -> int * int
(** (bytes to server, bytes to client), newline included per line. *)

val reset_stats : t -> unit

(** {1 Load-balancer endpoints (fleet orchestration)} *)

val conn_stats : t -> conn_id:int -> (int * int) option
(** Per-connection (bytes to server, bytes to client); [None] once the
    connection has been reaped. *)

val active_conns : t -> int
(** Connections not yet fully closed by both sides — what a draining
    load balancer waits to reach zero. *)

val set_listener_admit : t -> port:int -> bool -> unit
(** Pause/resume admitting new connections on a port ([connect] returns
    [None] while paused; established connections are untouched).  Raises
    {!Net_error} if no listener is bound to [port]. *)

val listener_admits : t -> port:int -> bool
(** Is the port bound and currently admitting? *)

val listening_ports : t -> int list
