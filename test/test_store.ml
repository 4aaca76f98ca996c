(* ministore: the stateful workload's schema-migration ladder.

   Every rung is a representation change (field split, index re-key,
   value re-encoding) with a custom forward transformer and a custom
   inverse, so these tests check the property the connection-oriented
   apps never exercise: the *data* survives — migrate-then-inverse must
   restore every record value bit-for-bit, and a guard revert of a
   committed migration must leave the store answering exactly as before
   the update. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module Simnet = Jv_simnet.Simnet

let store = A.Experience.store_desc

let boot ~version = A.Experience.boot_version store ~version

let compile ~version =
  Jv_lang.Compile.compile_program (A.Patching.source A.Ministore.app ~version)

let spec_for ~from_version ~to_version =
  A.Common.spec
    ~overrides:(A.Ministore.overrides ~to_version)
    ~version_tag:(A.Common.version_tag from_version)
    ~old_program:(compile ~version:from_version)
    ~new_program:(compile ~version:to_version)
    ()

let ladder = [ ("1.0", "1.1"); ("1.1", "1.2"); ("1.2", "1.3") ]

(* Drive one client session against the in-VM server: send each line,
   run scheduler rounds until its response arrives, return all responses
   in order. *)
let session vm lines : string list =
  let net = vm.VM.State.net in
  match Simnet.connect net ~port:A.Ministore.port with
  | None -> Alcotest.fail "ministore: connect refused"
  | Some cid ->
      let recv_one sent =
        let resp = ref None in
        let budget = ref 500 in
        while !resp = None && !budget > 0 do
          VM.Vm.run vm ~rounds:1;
          decr budget;
          match Simnet.client_recv net ~conn_id:cid with
          | `Line l -> resp := Some l
          | `Eof -> Alcotest.failf "ministore: EOF awaiting reply to %S" sent
          | `Wait -> ()
        done;
        match !resp with
        | Some l -> l
        | None -> Alcotest.failf "ministore: no reply to %S" sent
      in
      let resps =
        List.map
          (fun line ->
            Simnet.client_send net ~conn_id:cid line;
            recv_one line)
          lines
      in
      Simnet.client_close net ~conn_id:cid;
      Simnet.reap net ~conn_id:cid;
      resps

(* The dropped update log leaves the superseded old copies physically in
   the heap until the next collection reclaims them (gc.ml); collect
   first so the verifier sees the steady state. *)
let verify_green vm label =
  ignore (VM.Gc.collect vm : VM.Gc.result);
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) label true r.VM.Heapverify.hv_ok

let apply vm spec label =
  let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "%s did not apply: %s" label
        (J.Jvolve.outcome_to_string o));
  h

(* --- the ladder applies end to end under load --------------------------- *)

(* Walk 1.0 -> 1.1 -> 1.2 -> 1.3 on ONE VM under continuous load: each
   migration transforms the live store (seed records + index pages), the
   server keeps answering, and the heap verifies between rungs — the
   mixed-schema states the verifier must accept are exactly the renamed
   old copies in each retained update log. *)
let ladder_walks_under_load () =
  let vm = boot ~version:"1.0" in
  let w =
    A.Workload.attach vm ~port:A.Ministore.port
      ~script:A.Workload.store_script ~ok:A.Workload.store_ok ~concurrency:3
      ()
  in
  VM.Vm.run vm ~rounds:60;
  List.iter
    (fun (from_v, to_v) ->
      let before = w.A.Workload.load.completed_requests in
      let h = apply vm (spec_for ~from_version:from_v ~to_version:to_v)
          (Printf.sprintf "ministore %s->%s" from_v to_v) in
      ignore h;
      VM.Vm.run vm ~rounds:120;
      verify_green vm (Printf.sprintf "heap green after %s->%s" from_v to_v);
      Alcotest.(check bool)
        (Printf.sprintf "still serving after %s->%s" from_v to_v)
        true
        (w.A.Workload.load.completed_requests > before))
    ladder;
  (* the whole ladder ran against live traffic without a protocol error
     or a severed session *)
  Alcotest.(check int) "protocol errors" 0 w.A.Workload.load.errors;
  Alcotest.(check int) "dropped connections" 0
    w.A.Workload.load.dropped_in_flight;
  (* and the store now runs the final schema *)
  match session vm [ "STAT"; "GET 1000"; "QUIT" ] with
  | [ stat; g; _ ] ->
      Alcotest.(check bool) "STAT reports 1.3" true
        (Helpers.contains stat "v=1.3");
      Alcotest.(check string) "seed record survived three migrations"
        "+OK rec 1000 m=65536 v=seed-0" g
  | other ->
      Alcotest.failf "unexpected session shape (%d lines)" (List.length other)

(* --- migrate-then-inverse restores values bit-for-bit ------------------- *)

let gen_records =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (triple (int_range 0 99_999)
         (int_range 0 ((1 lsl 30) - 1))
         (string_size (int_range 1 10) ~gen:(char_range 'a' 'z'))))

let arb_records =
  QCheck.make
    ~print:
      (QCheck.Print.list
         (QCheck.Print.triple string_of_int string_of_int Fun.id))
    gen_records

(* For every rung: seed a fresh store over the wire, apply the forward
   migration, then apply its inverse ([Spec.inverse] — the same spec a
   guard trip would use), and check every record's rendered value — key,
   meta word, payload — and the page index come back identical.  The
   inverse transformers recompute the old representation from live state,
   so the values must match exactly, not default-map. *)
let inverse_roundtrip_prop records =
  List.for_all
    (fun (from_v, to_v) ->
      let vm = boot ~version:from_v in
      let puts =
        List.map
          (fun (k, m, p) -> Printf.sprintf "PUT %d %d %s" k m p)
          records
      in
      ignore (session vm (puts @ [ "QUIT" ]));
      let reads =
        List.map (fun (k, _, _) -> Printf.sprintf "GET %d" k) records
        @ [ "SCAN 0"; "STAT"; "QUIT" ]
      in
      let before = session vm reads in
      let spec = spec_for ~from_version:from_v ~to_version:to_v in
      ignore (apply vm spec (Printf.sprintf "forward %s->%s" from_v to_v));
      verify_green vm "heap green after forward migration";
      ignore
        (apply vm (J.Spec.inverse spec)
           (Printf.sprintf "inverse %s->%s" to_v from_v));
      verify_green vm "heap green after inverse migration";
      let after = session vm reads in
      if before <> after then
        Alcotest.failf "%s->%s->%s changed state:\n  before: %s\n  after:  %s"
          from_v to_v from_v
          (String.concat " | " before)
          (String.concat " | " after);
      true)
    ladder

let inverse_roundtrip =
  QCheck.Test.make
    ~name:"migrate-then-inverse restores record values bit-for-bit" ~count:4
    arb_records inverse_roundtrip_prop

(* --- guard auto-revert of a committed migration under load -------------- *)

(* Commit the 1.0 -> 1.1 field split under live traffic with a guard
   window open, trip the window, and check the automatic inverse update
   put every packed meta word back — including the session-written record
   — with zero dropped connections and a green heap. *)
let guard_revert_restores_store () =
  let vm = boot ~version:"1.0" in
  let w =
    A.Workload.attach vm ~port:A.Ministore.port
      ~script:A.Workload.store_script ~ok:A.Workload.store_ok ~concurrency:3
      ()
  in
  VM.Vm.run vm ~rounds:60;
  let reads = [ "GET 1000"; "GET 1013"; "GET 5"; "SCAN 0"; "QUIT" ] in
  let before = session vm reads in
  let spec = spec_for ~from_version:"1.0" ~to_version:"1.1" in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm
      spec
  in
  Alcotest.(check bool) "migration committed" true (J.Jvolve.succeeded h);
  (* mutate the store inside the window: in-window writes go through the
     1.1 schema and must survive the revert via the inverse transformer *)
  let in_window = session vm [ "PUT 77 131075 window-write"; "QUIT" ] in
  Alcotest.(check (list string)) "in-window write accepted" [ "+OK put 77"; "+OK bye" ]
    in_window;
  J.Jvolve.force_trip vm h ~reason:"test: coordinated revert";
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted _ -> ()
  | o ->
      Alcotest.failf "expected a revert, got %s"
        (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:120;
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  verify_green vm "heap green after guard revert";
  Alcotest.(check int) "dropped connections" 0
    w.A.Workload.load.dropped_in_flight;
  let after = session vm reads in
  Alcotest.(check (list string))
    "store answers exactly as before the migration" before after;
  (* the in-window record survived the revert with its 1.1-written value
     re-packed into the 1.0 meta word (131075 = 2<<16 | 3) *)
  match session vm [ "GET 77"; "STAT"; "QUIT" ] with
  | [ g; stat; _ ] ->
      Alcotest.(check string) "in-window record re-packed"
        "+OK rec 77 m=131075 v=window-write" g;
      Alcotest.(check bool) "STAT reports 1.0 again" true
        (Helpers.contains stat "v=1.0")
  | other ->
      Alcotest.failf "unexpected session shape (%d lines)" (List.length other)

let suite =
  [
    Alcotest.test_case "ladder walks under load, heap green" `Quick
      ladder_walks_under_load;
    QCheck_alcotest.to_alcotest inverse_roundtrip;
    Alcotest.test_case "guard revert restores the store" `Quick
      guard_revert_restores_store;
  ]
