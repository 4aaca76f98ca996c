(* The fleet's front door: a load balancer at the simnet level.

   Clients connect to the balancer's own front simnet; every accepted
   connection is proxied line-by-line onto a backend connection into one
   instance's simnet, chosen round-robin or least-connections among the
   backends currently admitting traffic.  Setting a backend to
   non-admitting implements connection draining: established sessions
   keep flowing, new ones go elsewhere, and [in_flight] reports what the
   drain still waits on.

   The balancer also keeps the per-backend health signals the canary
   gate compares (responses, failed responses, request latency in fleet
   rounds) and counts dropped in-flight connections: a backend closing a
   proxied connection while a forwarded request is still unanswered.

   Bookkeeping is incremental so fleets of hundreds of backends spend
   their rounds proxying, not scanning: backends live in an array with a
   by-id index, the admitting count and total in-flight are maintained
   counters, and round-robin picking is a cursor walk that skips
   non-admitting backends (amortised O(1); least-connections stays a
   full scan by nature of the policy). *)

module Simnet = Jv_simnet.Simnet

type policy = Round_robin | Least_conns

type backend = {
  b_id : int;
  b_net : Simnet.t;
  b_port : int;
  mutable b_admit : bool;
  mutable b_active : int; (* live proxied connections *)
  mutable b_sessions : int; (* ever routed *)
  (* observation-window signals, reset by [reset_window] *)
  mutable b_responses : int;
  mutable b_errors : int;
  mutable b_latency_rounds : int; (* summed over responses *)
}

type route = {
  rt_front : int; (* front conn id (balancer is the server side) *)
  rt_back : int; (* backend conn id (balancer is the client side) *)
  rt_backend : backend;
  mutable rt_outstanding : int; (* forwarded requests not yet answered *)
  mutable rt_sent_at : int; (* tick of the oldest outstanding request *)
  mutable rt_front_closed : bool;
  mutable rt_back_closed : bool;
}

module M = Jv_obs.Metrics

(* The sink with handles on the meters bumped per session, per response
   and per pump, each resolved on first use so the sink keeps its
   registration order. *)
type sink = {
  o : Jv_obs.Obs.t;
  m_sessions : M.counter Lazy.t;
  m_responses : M.counter Lazy.t;
  m_errors : M.counter Lazy.t;
  m_latency : M.histogram Lazy.t;
  m_backlog : M.histogram Lazy.t;
}

let sink o =
  {
    o;
    m_sessions = lazy (Jv_obs.Obs.counter o "fleet.lb.sessions");
    m_responses = lazy (Jv_obs.Obs.counter o "fleet.lb.responses");
    m_errors = lazy (Jv_obs.Obs.counter o "fleet.lb.errors");
    m_latency =
      lazy (Jv_obs.Obs.histogram o "fleet.lb.request_latency_rounds");
    m_backlog = lazy (Jv_obs.Obs.histogram o "fleet.lb.backlog");
  }

type t = {
  front : Simnet.t;
  port : int;
  listener : int;
  policy : policy;
  ok : string -> bool;
  mutable backends : backend array; (* registration order *)
  mutable n_backends : int; (* used prefix of [backends] *)
  by_id : (int, backend) Hashtbl.t;
  routes : (int, route) Hashtbl.t; (* front conn id -> route *)
  mutable rr_next : int;
  mutable admit_count : int; (* backends currently admitting *)
  mutable in_flight_count : int; (* sum of b_active, maintained *)
  mutable dropped : int;
  mutable rejected : int; (* accepted with no backend admitting *)
  obs : sink option; (* routing decisions + latency *)
}

let create ?(policy = Round_robin) ?(ok = fun _ -> true) ?obs ~port () =
  let front = Simnet.create () in
  let listener = Simnet.listen front ~port in
  (match obs with Some o -> Simnet.set_obs front o | None -> ());
  {
    front;
    port;
    listener;
    policy;
    ok;
    backends = [||];
    n_backends = 0;
    by_id = Hashtbl.create 64;
    routes = Hashtbl.create 64;
    rr_next = 0;
    admit_count = 0;
    in_flight_count = 0;
    dropped = 0;
    rejected = 0;
    obs = Option.map sink obs;
  }

let obs_incr t name =
  match t.obs with None -> () | Some s -> Jv_obs.Obs.incr s.o name

(* Bump one of the sink's cached counters. *)
let bump t field =
  match t.obs with None -> () | Some s -> M.incr (Lazy.force (field s))

let obs_emit t name fields =
  match t.obs with
  | None -> ()
  | Some s -> Jv_obs.Obs.emit s.o ~scope:"fleet.lb" name fields

let front t = t.front

let register t ~id ~net ~backend_port =
  let b =
    {
      b_id = id;
      b_net = net;
      b_port = backend_port;
      b_admit = true;
      b_active = 0;
      b_sessions = 0;
      b_responses = 0;
      b_errors = 0;
      b_latency_rounds = 0;
    }
  in
  if t.n_backends = Array.length t.backends then begin
    let grown =
      Array.make (max 8 (2 * Array.length t.backends)) b
    in
    Array.blit t.backends 0 grown 0 t.n_backends;
    t.backends <- grown
  end;
  t.backends.(t.n_backends) <- b;
  t.n_backends <- t.n_backends + 1;
  Hashtbl.replace t.by_id id b;
  t.admit_count <- t.admit_count + 1

let backend t id = Hashtbl.find_opt t.by_id id

(* Swap a backend's simnet after a supervisor reboot.  A fresh record is
   installed (not admitting) so the new VM starts with clean counters;
   routes still proxying into the dead VM keep their reference to the
   orphaned record and unwind through the normal EOF/timeout path, which
   keeps the maintained in-flight total balanced. *)
let replace t ~id ~net ~backend_port =
  let idx = ref (-1) in
  for i = 0 to t.n_backends - 1 do
    if t.backends.(i).b_id = id then idx := i
  done;
  if !idx < 0 then invalid_arg "Lb.replace: unknown backend"
  else begin
    let old = t.backends.(!idx) in
    if old.b_admit then begin
      old.b_admit <- false;
      t.admit_count <- t.admit_count - 1
    end;
    let b =
      {
        b_id = id;
        b_net = net;
        b_port = backend_port;
        b_admit = false;
        b_active = 0;
        b_sessions = old.b_sessions;
        b_responses = 0;
        b_errors = 0;
        b_latency_rounds = 0;
      }
    in
    t.backends.(!idx) <- b;
    Hashtbl.replace t.by_id id b
  end

let set_admit t ~id admit =
  match backend t id with
  | None -> invalid_arg "Lb.set_admit: unknown backend"
  | Some b ->
      if b.b_admit <> admit then begin
        b.b_admit <- admit;
        t.admit_count <- t.admit_count + (if admit then 1 else -1)
      end

let admitting t ~id =
  match backend t id with None -> false | Some b -> b.b_admit

let in_flight t ~id =
  match backend t id with None -> 0 | Some b -> b.b_active

let total_in_flight t = t.in_flight_count
let dropped t = t.dropped
let rejected t = t.rejected

type window = {
  w_sessions : int;
  w_responses : int;
  w_errors : int;
  w_latency_rounds : int;
}

let window_of_backends bs =
  List.fold_left
    (fun w b ->
      {
        w_sessions = w.w_sessions + b.b_sessions;
        w_responses = w.w_responses + b.b_responses;
        w_errors = w.w_errors + b.b_errors;
        w_latency_rounds = w.w_latency_rounds + b.b_latency_rounds;
      })
    { w_sessions = 0; w_responses = 0; w_errors = 0; w_latency_rounds = 0 }
    bs

(* O(|ids|): by-id lookups, not a scan of every backend. *)
let window t ~ids = window_of_backends (List.filter_map (backend t) ids)

let error_rate w =
  if w.w_responses = 0 then 0.0
  else float_of_int w.w_errors /. float_of_int w.w_responses

let mean_latency w =
  if w.w_responses = 0 then 0.0
  else float_of_int w.w_latency_rounds /. float_of_int w.w_responses

let reset_window t =
  for i = 0 to t.n_backends - 1 do
    let b = t.backends.(i) in
    b.b_responses <- 0;
    b.b_errors <- 0;
    b.b_latency_rounds <- 0
  done

(* --- routing ---------------------------------------------------------- *)

(* The backend the next connection goes to, with the round-robin cursor
   to keep once that connection is accepted; [None] when nothing admits.
   Pure, so a round that accepts nothing leaves the cursor alone. *)
let pick t : (backend * int) option =
  if t.admit_count = 0 then None
  else
    match t.policy with
    | Round_robin ->
        (* cursor walk skipping drained backends; admit_count > 0
           guarantees a hit within one lap *)
        let n = t.n_backends in
        let rec go i steps =
          let b = t.backends.(i mod n) in
          if b.b_admit then Some (b, (i + 1) mod n)
          else if steps >= n then None
          else go (i + 1) (steps + 1)
        in
        go t.rr_next 1
    | Least_conns ->
        let best = ref None in
        for i = 0 to t.n_backends - 1 do
          let b = t.backends.(i) in
          if b.b_admit then
            match !best with
            | Some c when c.b_active <= b.b_active -> ()
            | _ -> best := Some b
        done;
        Option.map (fun b -> (b, t.rr_next)) !best

let accept_new t =
  let rec go () =
    (* nothing admitting (e.g. the whole fleet drains at once): leave new
       connections in the listener backlog — the accept queue of a real
       balancer — rather than accepting and hanging up on them *)
    match pick t with
    | None -> ()
    | Some (b, rr_next) -> (
        match Simnet.accept t.front ~listener_id:t.listener with
        | None -> ()
        | Some fcid ->
            t.rr_next <- rr_next;
            (match Simnet.connect b.b_net ~port:b.b_port with
            | None ->
                t.rejected <- t.rejected + 1;
                obs_incr t "fleet.lb.rejected";
                obs_emit t "lb.reject" [ ("backend", Jv_obs.Obs.Int b.b_id) ];
                Simnet.close_server t.front ~conn_id:fcid
            | Some bcid ->
                b.b_active <- b.b_active + 1;
                t.in_flight_count <- t.in_flight_count + 1;
                b.b_sessions <- b.b_sessions + 1;
                bump t (fun s -> s.m_sessions);
                Hashtbl.replace t.routes fcid
                  {
                    rt_front = fcid;
                    rt_back = bcid;
                    rt_backend = b;
                    rt_outstanding = 0;
                    rt_sent_at = 0;
                    rt_front_closed = false;
                    rt_back_closed = false;
                  });
            go ())
  in
  go ()

let pump_route t ~tick (r : route) : bool (* keep? *) =
  let b = r.rt_backend in
  (* The driver (the front net's client) reaps once both sides are
     closed, which can remove the connection before we observe its EOF;
     treat a vanished front connection as closed. *)
  if
    (not r.rt_front_closed)
    && Simnet.conn_stats t.front ~conn_id:r.rt_front = None
  then begin
    r.rt_front_closed <- true;
    Simnet.client_close b.b_net ~conn_id:r.rt_back
  end;
  (* client -> backend *)
  let rec fwd () =
    if not r.rt_front_closed then
      match Simnet.recv_line t.front ~conn_id:r.rt_front with
      | `Line l ->
          if r.rt_outstanding = 0 then r.rt_sent_at <- tick;
          r.rt_outstanding <- r.rt_outstanding + 1;
          Simnet.client_send b.b_net ~conn_id:r.rt_back l;
          fwd ()
      | `Eof ->
          r.rt_front_closed <- true;
          Simnet.client_close b.b_net ~conn_id:r.rt_back
      | `Wait -> ()
  in
  fwd ();
  (* backend -> client *)
  let rec bwd () =
    if not r.rt_back_closed then
      match Simnet.client_recv b.b_net ~conn_id:r.rt_back with
      | `Line l ->
          if r.rt_outstanding > 0 then begin
            r.rt_outstanding <- r.rt_outstanding - 1;
            b.b_responses <- b.b_responses + 1;
            b.b_latency_rounds <- b.b_latency_rounds + (tick - r.rt_sent_at);
            bump t (fun s -> s.m_responses);
            (match t.obs with
            | Some s ->
                M.observe_int (Lazy.force s.m_latency) (tick - r.rt_sent_at)
            | None -> ());
            if r.rt_outstanding > 0 then r.rt_sent_at <- tick;
            if not (t.ok l) then begin
              b.b_errors <- b.b_errors + 1;
              bump t (fun s -> s.m_errors)
            end
          end;
          Simnet.send t.front ~conn_id:r.rt_front l;
          bwd ()
      | `Eof ->
          (* backend hung up; a still-unanswered request means the
             connection was dropped in flight — unless the client already
             abandoned the route (request timeout on a lossy link), in
             which case this EOF is just the echo of our own close *)
          r.rt_back_closed <- true;
          if r.rt_outstanding > 0 && not r.rt_front_closed then begin
            t.dropped <- t.dropped + 1;
            obs_incr t "fleet.lb.dropped";
            obs_emit t "lb.drop"
              [
                ("backend", Jv_obs.Obs.Int b.b_id);
                ("outstanding", Jv_obs.Obs.Int r.rt_outstanding);
              ]
          end;
          Simnet.close_server t.front ~conn_id:r.rt_front
      | `Wait -> ()
  in
  bwd ();
  if r.rt_front_closed && r.rt_back_closed then begin
    Simnet.reap b.b_net ~conn_id:r.rt_back;
    Simnet.reap t.front ~conn_id:r.rt_front;
    b.b_active <- b.b_active - 1;
    t.in_flight_count <- t.in_flight_count - 1;
    false
  end
  else true

let pump t ~tick =
  (match t.obs with
  | Some s ->
      M.observe_int (Lazy.force s.m_backlog)
        (Simnet.pending_count t.front ~listener_id:t.listener)
  | None -> ());
  accept_new t;
  let dead = ref [] in
  Hashtbl.iter
    (fun fcid r -> if not (pump_route t ~tick r) then dead := fcid :: !dead)
    t.routes;
  List.iter (Hashtbl.remove t.routes) !dead
