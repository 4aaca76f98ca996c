(* An in-memory network substrate.

   The paper evaluates Jvolve on socket servers (Jetty, JavaEmailServer,
   CrossFTP) driven by external clients (httperf).  This repository has no
   real network, so servers running on the VM talk to benchmark-harness
   clients through this module: line-oriented, bidirectional, in-memory
   connections.  See DESIGN.md ("Substitutions").

   The server side is used by the VM's [Net.*] native methods; the client
   side by the OCaml line client ([Client]) and the balancer proxy.
   Everything is single-threaded (the VM scheduler interleaves server
   threads; harness code pumps clients between scheduler rounds), so no
   locking is needed. *)

type conn = {
  conn_id : int;
  c_port : int; (* server port this connection landed on *)
  c_from : int; (* client's claimed source port; -1 = anonymous *)
  mutable to_server : string list; (* queued lines, oldest first *)
  mutable to_server_back : string list;
  mutable to_client : string list;
  mutable to_client_back : string list;
  mutable closed_by_client : bool;
  mutable closed_by_server : bool;
  (* per-connection accounting, for load-balancer endpoints that need to
     bill traffic to individual backends *)
  mutable c_bytes_to_server : int;
  mutable c_bytes_to_client : int;
  c_opened_at : int; (* sink tick at connect, for lifetime histograms *)
  mutable c_close_emitted : bool;
  (* lines held back by a delay fault: (deliver-at tick, line), in send
     order; flushed into the main queue by the receive paths *)
  mutable c_delayed_to_server : (int * string) list;
  mutable c_delayed_to_client : (int * string) list;
}

type listener = {
  port : int;
  mutable backlog : conn list; (* pending, oldest first *)
  mutable backlog_back : conn list;
  mutable open_ : bool;
}

(* Connection and listener ids are small sequential ints: hash them as
   themselves and compare them as ints, with no call into the polymorphic
   hash and compare of a generic [Hashtbl]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

module M = Jv_obs.Metrics

(* An attached sink with handles on the meters bumped per line and per
   connection, each resolved on first use so the sink keeps its
   registration order. *)
type sink = {
  o : Jv_obs.Obs.t;
  m_bytes_to_client : M.counter Lazy.t;
  m_bytes_to_server : M.counter Lazy.t;
  m_conns_opened : M.counter Lazy.t;
  m_conns_closed : M.counter Lazy.t;
  m_conn_lifetime : M.histogram Lazy.t;
  m_conn_bytes : M.histogram Lazy.t;
}

type t = {
  mutable listeners : (int * listener) list; (* port -> listener *)
  conns : conn Itbl.t;
  mutable next_conn : int;
  mutable next_listener : int;
  listener_ids : listener Itbl.t;
  mutable bytes_to_client : int; (* throughput accounting *)
  mutable bytes_to_server : int;
  mutable obs : sink option; (* per-connection events and meters *)
  (* armed chaos plan: the [net.connect], [net.link] and
     [simnet.partition] points live here.  Delay faults are timed on the
     attached sink's clock *)
  mutable faults : Jv_faults.Faults.t option;
  (* network partition: port -> island id.  Ports in different islands
     cannot connect to each other, and lines on established
     cross-island connections are silently dropped (as across a real
     split).  Ports absent from the map share island -1. *)
  mutable islands : (int, int) Hashtbl.t option;
  mutable partition_until : int; (* heal at this sink tick; max_int = manual *)
}

let create () =
  {
    listeners = [];
    conns = Itbl.create 64;
    next_conn = 1;
    next_listener = 1;
    listener_ids = Itbl.create 8;
    bytes_to_client = 0;
    bytes_to_server = 0;
    obs = None;
    faults = None;
    islands = None;
    partition_until = max_int;
  }

(* Attach the owning VM's (or fleet's) sink; connection open/close events
   land in scope "net". *)
let set_obs t o =
  t.obs <-
    Some
      {
        o;
        m_bytes_to_client = lazy (Jv_obs.Obs.counter o "net.bytes_to_client");
        m_bytes_to_server = lazy (Jv_obs.Obs.counter o "net.bytes_to_server");
        m_conns_opened = lazy (Jv_obs.Obs.counter o "net.conns_opened");
        m_conns_closed = lazy (Jv_obs.Obs.counter o "net.conns_closed");
        m_conn_lifetime =
          lazy (Jv_obs.Obs.histogram o "net.conn_lifetime_ticks");
        m_conn_bytes = lazy (Jv_obs.Obs.histogram o "net.conn_bytes");
      }

let set_faults t f = t.faults <- f

let obs_tick t = match t.obs with None -> 0 | Some s -> Jv_obs.Obs.now s.o

let obs_incr t name =
  match t.obs with None -> () | Some s -> Jv_obs.Obs.incr s.o name

(* Bump one of the sink's cached counters. *)
let bump t ?by field =
  match t.obs with None -> () | Some s -> M.incr ?by (Lazy.force (field s))

(* A connection's close event fires once, when the second side closes. *)
let emit_close t c =
  if c.closed_by_client && c.closed_by_server && not c.c_close_emitted then begin
    c.c_close_emitted <- true;
    match t.obs with
    | None -> ()
    | Some s ->
        let o = s.o in
        let life = Jv_obs.Obs.now o - c.c_opened_at in
        M.incr (Lazy.force s.m_conns_closed);
        M.observe_int (Lazy.force s.m_conn_lifetime) life;
        M.observe_int (Lazy.force s.m_conn_bytes)
          (c.c_bytes_to_server + c.c_bytes_to_client);
        Jv_obs.Obs.emit o ~scope:"net" "conn.close"
          [
            ("conn", Jv_obs.Obs.Int c.conn_id);
            ("ticks", Jv_obs.Obs.Int life);
            ("bytes_in", Jv_obs.Obs.Int c.c_bytes_to_server);
            ("bytes_out", Jv_obs.Obs.Int c.c_bytes_to_client);
          ]
  end

(* --- queue helpers (two-list FIFO) --- *)

let push_q front back v = (front, v :: back)

let pop_q front back =
  match front with
  | v :: rest -> Some (v, rest, back)
  | [] -> (
      match List.rev back with
      | [] -> None
      | v :: rest -> Some (v, rest, []))

(* --- partitions -------------------------------------------------------- *)

let heal t =
  t.islands <- None;
  t.partition_until <- max_int

let set_partition t ~groups =
  let m = Hashtbl.create 16 in
  List.iteri
    (fun island ports -> List.iter (fun p -> Hashtbl.replace m p island) ports)
    groups;
  t.islands <- Some m;
  t.partition_until <- max_int;
  obs_incr t "net.partitions";
  match t.obs with
  | None -> ()
  | Some s ->
      Jv_obs.Obs.emit s.o ~scope:"net" "partition.set"
        [ ("islands", Jv_obs.Obs.Int (List.length groups)) ]

(* Lazily heal a timed partition once its deadline passes. *)
let check_heal t =
  if t.islands <> None && obs_tick t >= t.partition_until then begin
    heal t;
    obs_incr t "net.partition_heals";
    match t.obs with
    | None -> ()
    | Some s -> Jv_obs.Obs.emit s.o ~scope:"net" "partition.heal" []
  end

let island t port =
  match t.islands with
  | None -> -1
  | Some m -> Option.value ~default:(-1) (Hashtbl.find_opt m port)

let partitioned t ~a ~b =
  check_heal t;
  t.islands <> None && island t a <> island t b

(* The [simnet.partition] chaos point: consulted once per owner round
   (the fleet's gossip layer ticks it).  A fire splits the currently
   listening ports into two random islands; [delay:N] heals after N
   ticks of the sink's clock, any other action uses a default window.
   The split is drawn from the plan's own xorshift stream, so a seed
   fixes which ports land on which side. *)
let default_partition_ticks = 32

let tick_faults t =
  check_heal t;
  match Jv_faults.Faults.check t.faults "simnet.partition" with
  | None -> ()
  | Some action -> (
      match t.faults with
      | None -> ()
      | Some plan ->
          let ports = List.map fst t.listeners in
          let left, right =
            List.partition (fun _ -> Jv_faults.Faults.draw plan < 0.5) ports
          in
          (* a one-sided draw is no partition at all: force a split *)
          let left, right =
            match (left, right) with
            | [], p :: rest -> ([ p ], rest)
            | p :: rest, [] -> (rest, [ p ])
            | lr -> lr
          in
          set_partition t ~groups:[ left; right ];
          t.partition_until <-
            obs_tick t
            + (match action with
              | Jv_faults.Faults.Delay n -> max 1 n
              | _ -> default_partition_ticks))

(* --- link faults ------------------------------------------------------- *)

(* What a send must do under the armed plan.  One consultation per line. *)
let link_verdict t = Jv_faults.Faults.link t.faults "net.link"

let note_dropped t =
  obs_incr t "net.fault_dropped_lines";
  match t.obs with
  | None -> ()
  | Some s -> Jv_obs.Obs.emit s.o ~scope:"net" "line.dropped" []

(* Move delay-held lines whose deliver-at tick has passed into the real
   queue, preserving hold order. *)
let flush_to_server t c =
  match c.c_delayed_to_server with
  | [] -> ()
  | held ->
      let tick = obs_tick t in
      let ready, still = List.partition (fun (at, _) -> at <= tick) held in
      c.c_delayed_to_server <- still;
      List.iter
        (fun (_, line) ->
          let front, back = push_q c.to_server c.to_server_back line in
          c.to_server <- front;
          c.to_server_back <- back)
        ready

let flush_to_client t c =
  match c.c_delayed_to_client with
  | [] -> ()
  | held ->
      let tick = obs_tick t in
      let ready, still = List.partition (fun (at, _) -> at <= tick) held in
      c.c_delayed_to_client <- still;
      List.iter
        (fun (_, line) ->
          let front, back = push_q c.to_client c.to_client_back line in
          c.to_client <- front;
          c.to_client_back <- back)
        ready

(* --- server side (used by VM natives) --- *)

exception Net_error of string

let listen t ~port =
  if List.mem_assoc port t.listeners then
    raise (Net_error (Printf.sprintf "port %d already bound" port));
  let l = { port; backlog = []; backlog_back = []; open_ = true } in
  t.listeners <- (port, l) :: t.listeners;
  let id = t.next_listener in
  t.next_listener <- id + 1;
  Itbl.replace t.listener_ids id l;
  id

let listener_by_id t id = Itbl.find_opt t.listener_ids id

(* Non-blocking accept: [None] means the VM thread must block. *)
let accept t ~listener_id =
  match listener_by_id t listener_id with
  | None -> raise (Net_error "accept on unknown listener")
  | Some l -> (
      match pop_q l.backlog l.backlog_back with
      | None -> None
      | Some (c, front, back) ->
          l.backlog <- front;
          l.backlog_back <- back;
          Some c.conn_id)

let has_pending t ~listener_id =
  match listener_by_id t listener_id with
  | None -> false
  | Some l -> l.backlog <> [] || l.backlog_back <> []

(* Accepted-queue depth: what an LB reads as backlog pressure. *)
let pending_count t ~listener_id =
  match listener_by_id t listener_id with
  | None -> 0
  | Some l -> List.length l.backlog + List.length l.backlog_back

let conn t id =
  match Itbl.find_opt t.conns id with
  | None -> raise (Net_error (Printf.sprintf "unknown connection %d" id))
  | Some c -> c

(* Non-blocking receive of one line from the client.  [`Line s] for data,
   [`Eof] when the client closed and the queue drained, [`Wait] when the VM
   thread must block. *)
let recv_line t ~conn_id =
  let c = conn t conn_id in
  flush_to_server t c;
  match pop_q c.to_server c.to_server_back with
  | Some (s, front, back) ->
      c.to_server <- front;
      c.to_server_back <- back;
      `Line s
  | None -> if c.closed_by_client then `Eof else `Wait

let can_recv t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> true (* let the native re-run and fail loudly *)
  | Some c ->
      flush_to_server t c;
      c.to_server <> [] || c.to_server_back <> [] || c.closed_by_client

let send t ~conn_id line =
  let c = conn t conn_id in
  if not c.closed_by_server then begin
    (match
       if partitioned t ~a:c.c_port ~b:c.c_from then `Drop
       else link_verdict t
     with
    | `Drop -> note_dropped t
    | `Delay n ->
        c.c_delayed_to_client <-
          c.c_delayed_to_client @ [ (obs_tick t + n, line) ]
    | `Ok ->
        let front, back = push_q c.to_client c.to_client_back line in
        c.to_client <- front;
        c.to_client_back <- back);
    t.bytes_to_client <- t.bytes_to_client + String.length line + 1;
    c.c_bytes_to_client <- c.c_bytes_to_client + String.length line + 1;
    bump t ~by:(String.length line + 1) (fun s -> s.m_bytes_to_client)
  end

let close_server t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> ()
  | Some c ->
      c.closed_by_server <- true;
      emit_close t c

(* --- client side (used by [Client] and the balancer proxy) --- *)

(* Connect to a port; [None] if nothing is listening.  [from] is the
   client's own port identity (a gossip peer's listener), used by the
   partition check; anonymous clients (-1) share island -1. *)
let connect ?(from = -1) t ~port =
  match List.assoc_opt port t.listeners with
  | None -> None
  | Some _ when partitioned t ~a:from ~b:port ->
      (* the split is between us and the server: refused *)
      obs_incr t "net.partition_refused_conns";
      None
  | Some l when not l.open_ -> None
  | Some _
    when Jv_faults.Faults.link t.faults "net.connect" <> `Ok ->
      (* connection refused by an armed fault (partition) *)
      obs_incr t "net.fault_refused_conns";
      None
  | Some l ->
      let id = t.next_conn in
      t.next_conn <- id + 1;
      let c =
        {
          conn_id = id;
          c_port = port;
          c_from = from;
          to_server = [];
          to_server_back = [];
          to_client = [];
          to_client_back = [];
          closed_by_client = false;
          closed_by_server = false;
          c_bytes_to_server = 0;
          c_bytes_to_client = 0;
          c_opened_at = obs_tick t;
          c_close_emitted = false;
          c_delayed_to_server = [];
          c_delayed_to_client = [];
        }
      in
      Itbl.replace t.conns id c;
      let front, back = push_q l.backlog l.backlog_back c in
      l.backlog <- front;
      l.backlog_back <- back;
      bump t (fun s -> s.m_conns_opened);
      (match t.obs with
      | None -> ()
      | Some s ->
          Jv_obs.Obs.emit s.o ~scope:"net" "conn.open"
            [
              ("conn", Jv_obs.Obs.Int id); ("port", Jv_obs.Obs.Int port);
            ]);
      Some id

let client_send t ~conn_id line =
  let c = conn t conn_id in
  if not c.closed_by_client then begin
    (match
       if partitioned t ~a:c.c_from ~b:c.c_port then `Drop
       else link_verdict t
     with
    | `Drop -> note_dropped t
    | `Delay n ->
        c.c_delayed_to_server <-
          c.c_delayed_to_server @ [ (obs_tick t + n, line) ]
    | `Ok ->
        let front, back = push_q c.to_server c.to_server_back line in
        c.to_server <- front;
        c.to_server_back <- back);
    t.bytes_to_server <- t.bytes_to_server + String.length line + 1;
    c.c_bytes_to_server <- c.c_bytes_to_server + String.length line + 1;
    bump t ~by:(String.length line + 1) (fun s -> s.m_bytes_to_server)
  end

let client_recv t ~conn_id =
  let c = conn t conn_id in
  flush_to_client t c;
  match pop_q c.to_client c.to_client_back with
  | Some (s, front, back) ->
      c.to_client <- front;
      c.to_client_back <- back;
      `Line s
  | None -> if c.closed_by_server then `Eof else `Wait

let client_close t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> ()
  | Some c ->
      c.closed_by_client <- true;
      emit_close t c

let client_can_recv t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> true (* let the native re-run and fail loudly *)
  | Some c ->
      flush_to_client t c;
      c.to_client <> [] || c.to_client_back <> [] || c.closed_by_server

let server_closed t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> true
  | Some c -> c.closed_by_server

(* Drop a fully-closed connection's storage. *)
let reap t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | Some c when c.closed_by_client && c.closed_by_server ->
      Itbl.remove t.conns conn_id
  | _ -> ()

let stats t = (t.bytes_to_server, t.bytes_to_client)
let reset_stats t =
  t.bytes_to_server <- 0;
  t.bytes_to_client <- 0

(* --- load-balancer endpoints ------------------------------------------ *)

(* Per-connection byte counts; [None] once the connection is reaped. *)
let conn_stats t ~conn_id =
  match Itbl.find_opt t.conns conn_id with
  | None -> None
  | Some c -> Some (c.c_bytes_to_server, c.c_bytes_to_client)

(* Connections not yet fully closed: the in-flight count a drain waits on. *)
let active_conns t =
  Itbl.fold
    (fun _ c n ->
      if c.closed_by_client && c.closed_by_server then n else n + 1)
    t.conns 0

(* Stop/resume admitting new connections on a port (connection draining at
   the listener: [connect] returns [None] while paused, established
   connections are untouched). *)
let set_listener_admit t ~port admit =
  match List.assoc_opt port t.listeners with
  | None -> raise (Net_error (Printf.sprintf "no listener on port %d" port))
  | Some l -> l.open_ <- admit

let listener_admits t ~port =
  match List.assoc_opt port t.listeners with
  | None -> false
  | Some l -> l.open_

let listening_ports t = List.map fst t.listeners
