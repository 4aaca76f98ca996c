(* Simnet substrate tests: the in-memory network the servers run on. *)

module N = Jv_simnet.Simnet

let listen_connect () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  Alcotest.(check (option int)) "nothing pending" None
    (N.accept t ~listener_id:lid);
  (match N.connect t ~port:81 with
  | None -> ()
  | Some _ -> Alcotest.fail "connect to unbound port should fail");
  match N.connect t ~port:80 with
  | None -> Alcotest.fail "connect failed"
  | Some cid -> (
      Alcotest.(check bool) "pending now" true
        (N.has_pending t ~listener_id:lid);
      match N.accept t ~listener_id:lid with
      | Some c -> Alcotest.(check int) "same conn" cid c
      | None -> Alcotest.fail "accept failed")

let double_bind_rejected () =
  let t = N.create () in
  ignore (N.listen t ~port:80);
  Alcotest.check_raises "double bind" (N.Net_error "port 80 already bound")
    (fun () -> ignore (N.listen t ~port:80))

let fifo_order () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  let c = Option.get (N.connect t ~port:80) in
  ignore (N.accept t ~listener_id:lid);
  List.iter (fun s -> N.client_send t ~conn_id:c s) [ "a"; "b"; "c" ];
  let recv () =
    match N.recv_line t ~conn_id:c with
    | `Line s -> s
    | _ -> Alcotest.fail "expected a line"
  in
  Alcotest.(check string) "1st" "a" (recv ());
  (* interleave more sends: order must be globally FIFO *)
  N.client_send t ~conn_id:c "d";
  Alcotest.(check string) "2nd" "b" (recv ());
  Alcotest.(check string) "3rd" "c" (recv ());
  Alcotest.(check string) "4th" "d" (recv ())

let bidirectional_and_eof () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  let c = Option.get (N.connect t ~port:80) in
  ignore (N.accept t ~listener_id:lid);
  N.send t ~conn_id:c "srv1";
  (match N.client_recv t ~conn_id:c with
  | `Line s -> Alcotest.(check string) "to client" "srv1" s
  | _ -> Alcotest.fail "expected line");
  (* wait state when empty *)
  (match N.recv_line t ~conn_id:c with
  | `Wait -> ()
  | _ -> Alcotest.fail "expected Wait");
  (* client closes: server drains queued data, then sees EOF *)
  N.client_send t ~conn_id:c "last";
  N.client_close t ~conn_id:c;
  (match N.recv_line t ~conn_id:c with
  | `Line s -> Alcotest.(check string) "drained" "last" s
  | _ -> Alcotest.fail "expected drained line");
  (match N.recv_line t ~conn_id:c with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected EOF");
  (* server close is visible to the client *)
  N.close_server t ~conn_id:c;
  match N.client_recv t ~conn_id:c with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected client EOF"

let byte_accounting () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  let c = Option.get (N.connect t ~port:80) in
  ignore (N.accept t ~listener_id:lid);
  N.client_send t ~conn_id:c "12345";
  N.send t ~conn_id:c "123";
  let to_server, to_client = N.stats t in
  Alcotest.(check int) "to server (line + newline)" 6 to_server;
  Alcotest.(check int) "to client" 4 to_client;
  N.reset_stats t;
  Alcotest.(check (pair int int)) "reset" (0, 0) (N.stats t)

let reap_frees_storage () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  let c = Option.get (N.connect t ~port:80) in
  ignore (N.accept t ~listener_id:lid);
  N.client_close t ~conn_id:c;
  (* not yet reapable: server half still open *)
  N.reap t ~conn_id:c;
  Alcotest.(check bool) "still known" true
    (match N.recv_line t ~conn_id:c with `Eof -> true | _ -> false);
  N.close_server t ~conn_id:c;
  N.reap t ~conn_id:c;
  Alcotest.check_raises "gone" (N.Net_error "unknown connection 1") (fun () ->
      ignore (N.recv_line t ~conn_id:c))

let send_after_close_dropped () =
  let t = N.create () in
  let lid = N.listen t ~port:80 in
  let c = Option.get (N.connect t ~port:80) in
  ignore (N.accept t ~listener_id:lid);
  N.close_server t ~conn_id:c;
  N.send t ~conn_id:c "into the void";
  match N.client_recv t ~conn_id:c with
  | `Eof -> ()
  | _ -> Alcotest.fail "send after close must be dropped"

(* The sink's per-line and per-connection meters count exactly what the
   substrate does: bytes both ways as [stats] reports them, one open per
   connection made and one close per connection closed on both sides,
   one lifetime and one size sample per close, registered in first-use
   order. *)
let sink_meters_match_stats () =
  let module Obs = Jv_obs.Obs in
  let o = Obs.create () in
  let tick = ref 0 in
  Obs.set_clock o (fun () -> !tick);
  let t = N.create () in
  N.set_obs t o;
  let lid = N.listen t ~port:80 in
  let session i =
    let c = Option.get (N.connect t ~port:80) in
    ignore (N.accept t ~listener_id:lid);
    for k = 1 to i do
      N.client_send t ~conn_id:c (Printf.sprintf "GET /%d/%d" i k);
      tick := !tick + 1;
      (match N.recv_line t ~conn_id:c with
      | `Line l -> N.send t ~conn_id:c ("200 " ^ l)
      | _ -> Alcotest.fail "expected a request");
      ignore (N.client_recv t ~conn_id:c)
    done;
    c
  in
  let closed = List.map session [ 1; 2; 3 ] in
  List.iter
    (fun c ->
      N.client_close t ~conn_id:c;
      N.close_server t ~conn_id:c;
      (* dropped after the close: counted nowhere *)
      N.send t ~conn_id:c "late")
    closed;
  let left_open = session 4 in
  N.client_close t ~conn_id:left_open;
  let to_server, to_client = N.stats t in
  Alcotest.(check int) "bytes to server" to_server
    (Obs.counter_value o "net.bytes_to_server");
  Alcotest.(check int) "bytes to client" to_client
    (Obs.counter_value o "net.bytes_to_client");
  Alcotest.(check int) "connections opened" 4
    (Obs.counter_value o "net.conns_opened");
  Alcotest.(check int) "connections closed" 3
    (Obs.counter_value o "net.conns_closed");
  let samples name =
    Option.fold ~none:0 ~some:Jv_obs.Metrics.count (Obs.find_histogram o name)
  in
  Alcotest.(check int) "a lifetime per close" 3
    (samples "net.conn_lifetime_ticks");
  Alcotest.(check int) "a size per close" 3 (samples "net.conn_bytes");
  let names = ref [] in
  Jv_obs.Metrics.iter (Obs.metrics o) (fun n _ -> names := n :: !names);
  Alcotest.(check (list string)) "first-use order"
    [
      "net.conns_opened";
      "net.bytes_to_server";
      "net.bytes_to_client";
      "net.conns_closed";
      "net.conn_lifetime_ticks";
      "net.conn_bytes";
    ]
    (List.rev !names)

let suite =
  [
    Alcotest.test_case "listen and connect" `Quick listen_connect;
    Alcotest.test_case "double bind rejected" `Quick double_bind_rejected;
    Alcotest.test_case "FIFO order" `Quick fifo_order;
    Alcotest.test_case "bidirectional and EOF" `Quick bidirectional_and_eof;
    Alcotest.test_case "byte accounting" `Quick byte_accounting;
    Alcotest.test_case "reap frees storage" `Quick reap_frees_storage;
    Alcotest.test_case "send after close dropped" `Quick
      send_after_close_dropped;
    Alcotest.test_case "sink meters match stats" `Quick
      sink_meters_match_stats;
  ]
