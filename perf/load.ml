(* The benchmark's load generators.  They follow lib/apps/workload.ml
   (closed loop) and lib/fleet/openloop.ml (open loop) but live here, so
   a change to those files cannot change the load the benchmark offers.
   Both add the host clock: a request's latency is the wall time from
   the round that sent it to the round that saw its response, which is
   what a client of the simulated server would wait. *)

module Simnet = Jv_simnet.Simnet
module Vm = Jv_vm.Vm

(* A closed loop: [concurrency] sessions, each sending its next request
   only after the previous response; a finished session is replaced by a
   fresh one, at most one new session per round (a staggered arrival, as
   in httperf).  Runs as a VM poller, once per scheduler round. *)
module Closed = struct
  type conn = {
    cid : int;
    mutable remaining : string list;
    mutable sent_at : float;
    mutable awaiting : bool;
  }

  type t = {
    port : int;
    script : unit -> string list; (* the next session's request lines *)
    ok : string -> bool;
    concurrency : int;
    mutable active : conn list;
    mutable sent : int;
    mutable completed : int;
    mutable errors : int; (* responses failing [ok] *)
    mutable dropped : int; (* EOF with a request outstanding *)
    mutable refused : int; (* connect found no listener *)
    latency_us : Stats.vec;
    mutable recording : bool; (* collect latencies *)
  }

  let close net c =
    Simnet.client_close net ~conn_id:c.cid;
    Simnet.reap net ~conn_id:c.cid

  let send net t c line ~now =
    Simnet.client_send net ~conn_id:c.cid line;
    t.sent <- t.sent + 1;
    c.sent_at <- now;
    c.awaiting <- true

  (* false: the session is over *)
  let pump net t c ~now =
    if not c.awaiting then true
    else
      match Simnet.client_recv net ~conn_id:c.cid with
      | `Wait -> true
      | `Eof ->
          t.dropped <- t.dropped + 1;
          close net c;
          false
      | `Line resp -> (
          c.awaiting <- false;
          t.completed <- t.completed + 1;
          if t.recording then
            Stats.push t.latency_us ((now -. c.sent_at) *. 1e6);
          if not (t.ok resp) then t.errors <- t.errors + 1;
          match c.remaining with
          | [] ->
              close net c;
              false
          | line :: rest ->
              c.remaining <- rest;
              send net t c line ~now;
              true)

  let launch net t ~now =
    match Simnet.connect net ~port:t.port with
    | None -> t.refused <- t.refused + 1
    | Some cid -> (
        match t.script () with
        | [] -> Simnet.client_close net ~conn_id:cid
        | line :: rest ->
            let c = { cid; remaining = rest; sent_at = now; awaiting = false } in
            send net t c line ~now;
            t.active <- c :: t.active)

  let step vm t =
    let net = Vm.net vm in
    let now = Unix.gettimeofday () in
    t.active <- List.filter (pump net t ~now) t.active;
    if List.length t.active < t.concurrency then launch net t ~now

  let attach vm ~port ~script ~ok ~concurrency =
    let t =
      {
        port;
        script;
        ok;
        concurrency;
        active = [];
        sent = 0;
        completed = 0;
        errors = 0;
        dropped = 0;
        refused = 0;
        latency_us = Stats.vec ();
        recording = false;
      }
    in
    Vm.add_poller vm (fun vm -> step vm t);
    t

  (* The benchmark's generators are a VM's only pollers. *)
  let detach vm t =
    Vm.clear_pollers vm;
    List.iter (close (Vm.net vm)) t.active;
    t.active <- []

  let failures t = t.errors + t.dropped + t.refused
end

(* An open loop against a fleet's balancer: [rate] arrivals per fleet
   round whether or not earlier requests finished, each a one-request
   connection.  Latency is kept in rounds (exact, deterministic) and on
   the host clock, from the round the arrival was due, which is the
   round it was sent. *)
module Open = struct
  type pending = { cid : int; sent_tick : int; sent_at : float }

  type t = {
    net : Simnet.t;
    port : int;
    line : unit -> string; (* the next arrival's request *)
    ok : string -> bool;
    rate : float;
    mutable credit : float;
    mutable active : pending list;
    mutable offered : int;
    mutable served : int;
    mutable errors : int;
    mutable dropped : int;
    mutable refused : int;
    latency_rounds : Stats.vec;
    latency_us : Stats.vec;
    mutable recording : bool;
  }

  let create ~net ~port ~line ~ok ~rate =
    {
      net;
      port;
      line;
      ok;
      rate;
      credit = 0.0;
      active = [];
      offered = 0;
      served = 0;
      errors = 0;
      dropped = 0;
      refused = 0;
      latency_rounds = Stats.vec ();
      latency_us = Stats.vec ();
      recording = false;
    }

  let close t p =
    Simnet.client_close t.net ~conn_id:p.cid;
    Simnet.reap t.net ~conn_id:p.cid

  let pump t ~tick ~now p =
    match Simnet.client_recv t.net ~conn_id:p.cid with
    | `Wait -> true
    | `Eof ->
        t.dropped <- t.dropped + 1;
        close t p;
        false
    | `Line resp ->
        t.served <- t.served + 1;
        if t.recording then begin
          Stats.push t.latency_rounds (float_of_int (tick - p.sent_tick));
          Stats.push t.latency_us ((now -. p.sent_at) *. 1e6)
        end;
        if not (t.ok resp) then t.errors <- t.errors + 1;
        close t p;
        false

  let step t ~tick =
    let now = Unix.gettimeofday () in
    t.active <- List.filter (pump t ~tick ~now) t.active;
    t.credit <- t.credit +. t.rate;
    while t.credit >= 1.0 do
      t.credit <- t.credit -. 1.0;
      t.offered <- t.offered + 1;
      match Simnet.connect t.net ~port:t.port with
      | None -> t.refused <- t.refused + 1
      | Some cid ->
          Simnet.client_send t.net ~conn_id:cid (t.line ());
          t.active <- { cid; sent_tick = tick; sent_at = now } :: t.active
    done

  (* Stop arriving and let the tail drain: [round] advances the fleet one
     round; gives up after [patience] rounds. *)
  let drain t ~tick ~round ~patience =
    let rec go tick spent =
      let now = Unix.gettimeofday () in
      t.active <- List.filter (pump t ~tick ~now) t.active;
      if t.active <> [] && spent < patience then begin
        round ();
        go (tick + 1) (spent + 1)
      end
    in
    go tick 0

  (* Still in flight after [drain]: requests that timed out. *)
  let failures t = t.errors + t.dropped + t.refused + List.length t.active
end
