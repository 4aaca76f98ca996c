(* The line client ([Jv_simnet.Client]) on a bare simnet, against a
   listener run from OCaml: every counter the benches print is pinned for
   a fixed rate or concurrency, so a change to how a session connects,
   classifies a reply or gives up shows up as a number here. *)

module N = Jv_simnet.Simnet
module Client = Jv_simnet.Client
module LS = Helpers.Line_server

let port = 7000
let ok_200 resp = String.length resp >= 3 && String.sub resp 0 3 = "200"

(* Answers "200 <line>" one round after the request, except: every
   fourth connection gets "500 busy", every fifth is hung up on. *)
let mixed_answer n line =
  if n mod 5 = 0 then `Hang_up
  else if n mod 4 = 0 then `Reply "500 busy"
  else `Reply ("200 " ^ line)

(* [rounds] rounds of open-loop arrivals at [rate], then a drain; the
   listener (if any) is served before the client steps each round. *)
let run_open ?answer ~rate ~rounds () =
  let net = N.create () in
  let obs = Jv_obs.Obs.create () in
  let tick = ref 0 in
  Jv_obs.Obs.set_clock obs (fun () -> !tick);
  let server =
    Option.map (fun answer -> LS.create ~delay:1 net ~port answer) answer
  in
  let round () =
    incr tick;
    Option.iter (fun s -> LS.serve s ~tick:!tick) server
  in
  let histogram_name = "fleet.openloop.request_rounds" in
  let ol =
    Client.create ~net ~port ~script:[ "GET /" ] ~ok:ok_200
      ~arrivals:(Client.Open { rate })
      ~on_reply:(fun rounds _ ->
        Jv_obs.Obs.observe_int obs histogram_name rounds)
      ()
  in
  for _ = 1 to rounds do
    round ();
    Client.step ol ~now:!tick
  done;
  let drained = Client.drain ol ~now:!tick ~round ~patience:50 in
  let histogram =
    match Jv_obs.Obs.find_histogram obs histogram_name with
    | None -> 0
    | Some h -> Jv_obs.Metrics.count h
  in
  ( [
      ("offered", Client.offered ol);
      ("served", ol.Client.completed_requests);
      ("errors", ol.Client.errors);
      ("refused", ol.Client.refused);
      ("dropped in flight", ol.Client.dropped_in_flight);
      ("max in flight", ol.Client.max_in_flight);
      ("drain rounds", drained);
      ("left in flight", Client.in_flight ol);
      ("histogram count", histogram);
    ],
    Client.mean_latency_rounds ol,
    N.active_conns net )

let check_counts expected got =
  Alcotest.(check (list (pair string int))) "counters" expected got

let open_loop_fixed_rate () =
  let counts, mean, _ =
    run_open ~answer:(fun _ l -> `Reply ("200 " ^ l)) ~rate:1.5 ~rounds:20 ()
  in
  check_counts
    [
      ("offered", 30);
      ("served", 30);
      ("errors", 0);
      ("refused", 0);
      ("dropped in flight", 0);
      ("max in flight", 3);
      ("drain rounds", 2);
      ("left in flight", 0);
      ("histogram count", 30);
    ]
    counts;
  Alcotest.(check (float 1e-9)) "mean latency rounds" 2.0 mean

let open_loop_no_listener () =
  let counts, mean, conns = run_open ~rate:1.5 ~rounds:10 () in
  check_counts
    [
      ("offered", 15);
      ("served", 0);
      ("errors", 0);
      ("refused", 15);
      ("dropped in flight", 0);
      ("max in flight", 0);
      ("drain rounds", 0);
      ("left in flight", 0);
      ("histogram count", 0);
    ]
    counts;
  Alcotest.(check (float 1e-9)) "mean latency rounds" 0.0 mean;
  Alcotest.(check int) "no connection opened" 0 conns

let open_loop_server_closes () =
  let counts, mean, _ =
    run_open ~answer:mixed_answer ~rate:1.5 ~rounds:20 ()
  in
  check_counts
    [
      ("offered", 30);
      ("served", 24);
      ("errors", 6);
      ("refused", 0);
      ("dropped in flight", 6);
      ("max in flight", 3);
      ("drain rounds", 2);
      ("left in flight", 0);
      ("histogram count", 24);
    ]
    counts;
  Alcotest.(check (float 1e-9)) "mean latency rounds" 2.0 mean

(* Closed loop with a request timeout: three-line sessions, two at a
   time; every third connection is hung up on after its first line and
   every seventh never answers its second line. *)
let closed_loop_timeouts () =
  let net = N.create () in
  let tick = ref 0 in
  let server =
    LS.create ~delay:1 net ~port (fun n line ->
        if n mod 3 = 0 then `Hang_up
        else if n mod 7 = 0 && line = "b" then `Silent
        else `Reply ("200 " ^ line))
  in
  let d =
    Client.create ~net ~port ~script:[ "a"; "b"; "c" ] ~ok:ok_200
      ~arrivals:(Client.Closed { concurrency = 2; max_sessions = 12 })
      ~timeout:5 ()
  in
  for _ = 1 to 120 do
    incr tick;
    LS.serve server ~tick:!tick;
    Client.step d ~now:!tick
  done;
  check_counts
    [
      ("launched", 12);
      ("completed sessions", 7);
      ("completed requests", 22);
      ("errors", 0);
      ("dropped in flight", 4);
      ("severed sessions", 4);
      ("timed out", 1);
      ("latency rounds", 44);
      ("in flight", 0);
    ]
    [
      ("launched", d.Client.launched);
      ("completed sessions", d.Client.completed_sessions);
      ("completed requests", d.Client.completed_requests);
      ("errors", d.Client.errors);
      ("dropped in flight", d.Client.dropped_in_flight);
      ("severed sessions", d.Client.severed_sessions);
      ("timed out", d.Client.timed_out_requests);
      ("latency rounds", d.Client.latency_rounds);
      ("in flight", Client.in_flight d);
    ]

(* A request sent at tick 1 with a 5-round budget is still awaited at
   tick 6 (waited 5) and given up at tick 7; [Ministore.wire_session]'s
   500-round budget per line rests on this boundary. *)
let request_timeout_boundary () =
  let net = N.create () in
  let server = LS.create net ~port (fun _ _ -> `Silent) in
  let c =
    Client.create ~net ~port ~script:[ "a" ] ~ok:ok_200
      ~arrivals:(Client.Closed { concurrency = 1; max_sessions = 1 })
      ~timeout:5 ()
  in
  let rec go tick =
    LS.serve server ~tick;
    Client.step c ~now:tick;
    if c.Client.timed_out_requests = 0 && tick < 50 then go (tick + 1)
    else tick
  in
  Alcotest.(check int) "given up at" 7 (go 1);
  Alcotest.(check int) "nothing left open" 0 (Client.in_flight c)

let suite =
  [
    Alcotest.test_case "open loop at a fixed rate" `Quick open_loop_fixed_rate;
    Alcotest.test_case "open loop with no listener" `Quick
      open_loop_no_listener;
    Alcotest.test_case "open loop when the server hangs up" `Quick
      open_loop_server_closes;
    Alcotest.test_case "closed loop sever and timeout" `Quick
      closed_loop_timeouts;
    Alcotest.test_case "request timeout boundary" `Quick
      request_timeout_boundary;
  ]
