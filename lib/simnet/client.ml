(* The line client: the httperf analogue (paper §4.1) every load
   generator and health prober in lib/ runs on.

   A session connects, sends its script one line at a time -- the next
   line only once the previous one is answered -- and closes after the
   last response.  [step] pumps every open session once (one receive per
   session per call) and then lets new sessions arrive:

   - [Closed]: at most [concurrency] sessions at once and [max_sessions]
     in all, at most one new session per step (a staggered arrival, so
     session lifetimes interleave instead of running in lockstep).  A
     refused connect leaves the slot free, so the next step retries it.
   - [Open]: [rate] arrivals per step accumulate as credit, and every
     whole credit opens a fresh session at once, whether or not earlier
     ones have finished (httperf's open mode), so queueing shows up in
     the latency tail.  A refused connect loses the arrival.
   - [Probe]: one session of one line that reads past lines failing
     [ok] (a banner, a sick reply) and gives up after tick [deadline],
     retrying a refused connect until then.

   Latency is counted in the caller's rounds ([now]) from a request's
   send to its response.  The caller's clock, a per-request [timeout]
   and an [on_reply] hook (a latency histogram, a reply collector) are
   what differs between callers. *)

type arrivals =
  | Closed of { concurrency : int; max_sessions : int }
  | Open of { rate : float }
  | Probe of { deadline : int }

type session = {
  cid : int;
  mutable remaining : string list; (* script lines not yet sent *)
  mutable sent_at : int; (* every open session has a request outstanding *)
}

type t = {
  net : Simnet.t;
  port : int;
  script : string list;
  ok : string -> bool;
  arrivals : arrivals;
  timeout : int; (* rounds an unanswered request may wait *)
  on_reply : int -> string -> unit; (* latency in rounds, response *)
  mutable credit : float; (* open-loop arrivals owed *)
  mutable active : session list; (* newest first *)
  mutable launched : int; (* sessions connected *)
  mutable refused : int; (* connects refused *)
  mutable completed_sessions : int;
  mutable completed_requests : int;
  mutable errors : int; (* responses failing [ok] *)
  mutable dropped_in_flight : int; (* EOF with a request outstanding *)
  mutable severed_sessions : int; (* ... and script lines left to send *)
  mutable timed_out_requests : int; (* closed after [timeout] or [deadline] *)
  mutable latency_rounds : int; (* summed over completed requests *)
  mutable max_in_flight : int; (* open arrivals: high-water mark *)
}

let create ~net ~port ~script ~ok ~arrivals ?(timeout = max_int)
    ?(on_reply = fun _ _ -> ()) () =
  {
    net;
    port;
    script;
    ok;
    arrivals;
    timeout;
    on_reply;
    credit = 0.0;
    active = [];
    launched = 0;
    refused = 0;
    completed_sessions = 0;
    completed_requests = 0;
    errors = 0;
    dropped_in_flight = 0;
    severed_sessions = 0;
    timed_out_requests = 0;
    latency_rounds = 0;
    max_in_flight = 0;
  }

let close t (s : session) =
  Simnet.client_close t.net ~conn_id:s.cid;
  Simnet.reap t.net ~conn_id:s.cid

(* One receive on [s]; [false] once the session is over. *)
let rec pump t ~now (s : session) =
  match Simnet.client_recv t.net ~conn_id:s.cid with
  | `Wait ->
      now - s.sent_at <= t.timeout
      || begin
           (* the request or its response was lost in transit: close,
              so a balancer reaps the wedged route, and move on *)
           t.timed_out_requests <- t.timed_out_requests + 1;
           close t s;
           false
         end
  | `Eof ->
      t.dropped_in_flight <- t.dropped_in_flight + 1;
      if s.remaining <> [] then t.severed_sessions <- t.severed_sessions + 1;
      close t s;
      false
  | `Line resp -> (
      let ok = t.ok resp in
      match t.arrivals with
      | Probe _ when not ok -> pump t ~now s
      | _ -> (
          let rounds = now - s.sent_at in
          t.completed_requests <- t.completed_requests + 1;
          t.latency_rounds <- t.latency_rounds + rounds;
          if not ok then t.errors <- t.errors + 1;
          t.on_reply rounds resp;
          match s.remaining with
          | [] ->
              close t s;
              t.completed_sessions <- t.completed_sessions + 1;
              false
          | line :: rest ->
              Simnet.client_send t.net ~conn_id:s.cid line;
              s.remaining <- rest;
              s.sent_at <- now;
              true))

let launch t ~now =
  match Simnet.connect t.net ~port:t.port with
  | None -> t.refused <- t.refused + 1
  | Some cid -> (
      t.launched <- t.launched + 1;
      match t.script with
      | [] -> Simnet.client_close t.net ~conn_id:cid
      | line :: rest ->
          Simnet.client_send t.net ~conn_id:cid line;
          t.active <- { cid; remaining = rest; sent_at = now } :: t.active)

(* A probe is over once answered, severed or given up. *)
let settled t =
  t.completed_sessions + t.dropped_in_flight + t.timed_out_requests > 0

(* Close whatever is still open (end of an experiment). *)
let detach t =
  List.iter (close t) t.active;
  t.active <- []

let step t ~now =
  match t.arrivals with
  | Probe _ when settled t -> ()
  | _ -> (
      t.active <- List.filter (pump t ~now) t.active;
      match t.arrivals with
      | Closed { concurrency; max_sessions } ->
          if t.launched < max_sessions && List.length t.active < concurrency
          then launch t ~now
      | Open { rate } ->
          t.credit <- t.credit +. rate;
          while t.credit >= 1.0 do
            t.credit <- t.credit -. 1.0;
            launch t ~now
          done;
          t.max_in_flight <- max t.max_in_flight (List.length t.active)
      | Probe { deadline } ->
          if t.launched = 0 then launch t ~now;
          if now > deadline && not (settled t) then begin
            t.timed_out_requests <- t.timed_out_requests + 1;
            detach t
          end)

(* Let the tail drain after arrivals stop: pump without launching until
   quiet or [patience] rounds pass, calling [round] between pumps.
   Returns the number of rounds spent. *)
let drain t ~now ~round ~patience =
  let rec go now spent =
    t.active <- List.filter (pump t ~now) t.active;
    if t.active = [] || spent >= patience then spent
    else begin
      round ();
      go (now + 1) (spent + 1)
    end
  in
  go now 0

let in_flight t = List.length t.active

(* Open loop: every arrival, served or refused. *)
let offered t = t.launched + t.refused

let mean_latency_rounds t =
  if t.completed_requests = 0 then 0.0
  else float_of_int t.latency_rounds /. float_of_int t.completed_requests

(* How a probe ended; [Refused] when it never connected before its
   deadline. *)
type verdict = Pending | Answered | Refused | Severed | Timed_out

let verdict t =
  if t.completed_sessions > 0 then Answered
  else if t.dropped_in_flight > 0 then Severed
  else if t.timed_out_requests = 0 then Pending
  else if t.launched = 0 then Refused
  else Timed_out
