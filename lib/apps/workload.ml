(* Scripted workload driver: the httperf analogue (paper §4.1) against
   one VM.  A closed loop of [Jv_simnet.Client] sessions runs as a VM
   poller -- once per scheduler round it pumps every active connection
   -- so client work interleaves with server execution exactly like
   external load against a real server.  Latency is counted in scheduler
   rounds and lands in the VM's ["app.request_rounds"] histogram, which
   the guard window's latency signal reads; rejected responses also
   bump ["app.request_errors"]. *)

module State = Jv_vm.State
module Client = Jv_simnet.Client

type t = { load : Client.t; poller : State.t -> unit }

let default_ok resp =
  String.length resp > 0
  && (match resp.[0] with '2' | '3' | '1' | '+' -> true | _ -> false)

let attach vm ~port ~script ?(ok = default_ok) ~concurrency
    ?(max_sessions = max_int) () : t =
  let obs = vm.State.obs in
  let on_reply rounds resp =
    Jv_obs.Obs.observe_int obs "app.request_rounds" rounds;
    if not (ok resp) then Jv_obs.Obs.incr obs "app.request_errors"
  in
  let load =
    Client.create ~net:vm.State.net ~port ~script ~ok
      ~arrivals:(Client.Closed { concurrency; max_sessions })
      ~on_reply ()
  in
  let poller vm = Client.step load ~now:vm.State.ticks in
  vm.State.pollers <- vm.State.pollers @ [ poller ];
  { load; poller }

let detach vm t =
  vm.State.pollers <- List.filter (fun q -> q != t.poller) vm.State.pollers;
  Client.detach t.load

(* --- canned scripts ----------------------------------------------------- *)

(* 5 serial requests per connection, like the paper's httperf setup *)
let web_script =
  [
    "GET /index.html";
    "GET /hello.txt";
    "GET /big.html";
    "GET /index.html";
    "GET /index.html";
  ]

let web_ok = Common.prefix_ok "HTTP/1.0 200"

let smtp_script =
  [
    "HELO bench-client";
    "MAIL alice@local";
    "RCPT alice@local";
    "BODY hello alice this is a benchmark message";
    "QUIT";
  ]

let pop_script = [ "USER alice"; "PASS pw1"; "STAT"; "LIST"; "QUIT" ]

(* FTP sessions are long-lived (as in the paper: a RequestHandler thread
   per session is "essentially always on stack" under load): log in, then
   a few dozen transfers before QUIT. *)
let ftp_script =
  [ "USER admin"; "PASS ftp" ]
  @ List.concat
      (List.init 8 (fun _ ->
           [
             "LIST";
             "RETR motd.txt";
             "STOR up.txt uploaded by the benchmark client";
             "RETR readme.txt";
           ]))
  @ [ "QUIT" ]

(* A block-explorer-ish session: one batched write, a point write, point
   reads of keys the session itself wrote, a page scan and a stat poll.
   Every response is version-stable ("+OK ...") across the whole schema-
   migration ladder, so the same script drives every rung. *)
let store_script =
  [
    "MPUT 100 8 131072";
    "PUT 5 196613 hello-world";
    "GET 5";
    "GET 103";
    "SCAN 0";
    "STAT";
    "QUIT";
  ]

let store_ok = Common.prefix_ok "+OK"
