(* Workload-driver tests: the scripted client against a MiniJava echo
   server. *)

module VM = Jv_vm
module A = Jv_apps

let echo_server =
  {|
class Handler {
  int conn;
  Handler(int c) { conn = c; }
  void run() {
    while (true) {
      String line = Net.recvLine(conn);
      if (line == null) { Net.close(conn); return; }
      if (line.equals("BAD")) { Net.send(conn, "500 nope"); }
      else { Net.send(conn, "200 " + line); }
    }
  }
}
class Main {
  static void main() {
    int l = Net.listen(9000);
    while (true) {
      int c = Net.accept(l);
      Thread.spawn(new Handler(c));
    }
  }
}
|}

let boot () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program echo_server);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:3;
  vm

let sessions_complete () =
  let vm = boot () in
  let w =
    A.Workload.attach vm ~port:9000 ~script:[ "a"; "b"; "c" ] ~concurrency:2
      ~max_sessions:5 ()
  in
  VM.Vm.run vm ~rounds:80;
  Alcotest.(check int) "sessions" 5 w.A.Workload.load.completed_sessions;
  Alcotest.(check int) "requests" 15 w.A.Workload.load.completed_requests;
  Alcotest.(check int) "errors" 0 w.A.Workload.load.errors;
  Alcotest.(check int) "none left active" 0
    (List.length w.A.Workload.load.active);
  Alcotest.(check bool) "latency measured" true
    (Jv_simnet.Client.mean_latency_rounds w.A.Workload.load > 0.0)

let errors_counted () =
  let vm = boot () in
  let w =
    A.Workload.attach vm ~port:9000 ~script:[ "ok"; "BAD"; "ok" ]
      ~concurrency:1 ~max_sessions:3 ()
  in
  VM.Vm.run vm ~rounds:80;
  Alcotest.(check int) "errors counted" 3 w.A.Workload.load.errors;
  Alcotest.(check int) "requests" 9 w.A.Workload.load.completed_requests

let concurrency_bounded () =
  let vm = boot () in
  let w =
    A.Workload.attach vm ~port:9000
      ~script:(List.init 30 (fun i -> "x" ^ string_of_int i))
      ~concurrency:3 ()
  in
  for _ = 1 to 30 do
    VM.Vm.run vm ~rounds:1;
    Alcotest.(check bool) "never more than 3 active" true
      (List.length w.A.Workload.load.active <= 3)
  done;
  Alcotest.(check bool) "ramped up" true
    (List.length w.A.Workload.load.active >= 2)

let detach_stops_traffic () =
  let vm = boot () in
  let w =
    A.Workload.attach vm ~port:9000
      ~script:(List.init 50 (fun _ -> "ping"))
      ~concurrency:2 ()
  in
  VM.Vm.run vm ~rounds:20;
  let before = w.A.Workload.load.completed_requests in
  Alcotest.(check bool) "made progress" true (before > 0);
  A.Workload.detach vm w;
  VM.Vm.run vm ~rounds:20;
  Alcotest.(check int) "no more requests" before
    w.A.Workload.load.completed_requests

let unserved_port_waits () =
  (* attaching to a port nobody listens on must not crash or spin-fail *)
  let vm = boot () in
  let w =
    A.Workload.attach vm ~port:9999 ~script:[ "x" ] ~concurrency:2 ()
  in
  VM.Vm.run vm ~rounds:20;
  Alcotest.(check int) "nothing completed" 0
    w.A.Workload.load.completed_sessions;
  A.Workload.detach vm w

let suite =
  [
    Alcotest.test_case "sessions complete" `Quick sessions_complete;
    Alcotest.test_case "errors counted" `Quick errors_counted;
    Alcotest.test_case "concurrency bounded" `Quick concurrency_bounded;
    Alcotest.test_case "detach stops traffic" `Quick detach_stops_traffic;
    Alcotest.test_case "unserved port waits" `Quick unserved_port_waits;
  ]
