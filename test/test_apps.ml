(* Tests for the benchmark applications and the experience harness. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let all_apps =
  [ A.Miniweb.app; A.Minimail.app; A.Miniftp.app; A.Ministore.app ]

(* every version of every app compiles and verifies *)
let all_versions_compile () =
  List.iter
    (fun (v : A.Patching.versioned) ->
      List.iter
        (fun (ver, src) ->
          match Jv_lang.Compile.compile_program src with
          | _ -> ()
          | exception Jv_lang.Compile.Error e ->
              Alcotest.failf "%s %s does not compile: %s"
                v.A.Patching.app_name ver e)
        v.A.Patching.versions)
    all_apps

let expected_version_counts () =
  Alcotest.(check int) "miniweb versions" 12
    (List.length A.Miniweb.app.A.Patching.versions);
  Alcotest.(check int) "minimail versions" 10
    (List.length A.Minimail.app.A.Patching.versions);
  Alcotest.(check int) "miniftp versions" 4
    (List.length A.Miniftp.app.A.Patching.versions);
  Alcotest.(check int) "ministore versions" 4
    (List.length A.Ministore.app.A.Patching.versions)

(* boot each app's base version under load and watch sessions complete *)
let serve_app desc port_script_count () =
  let vm = A.Experience.boot_version desc ~version:(List.hd desc.A.Experience.d_versioned.A.Patching.versions |> fst) in
  let loads = A.Experience.attach_loads vm desc ~concurrency:3 in
  VM.Vm.run vm ~rounds:120;
  let sessions =
    List.fold_left
      (fun acc w -> acc + w.A.Workload.load.completed_sessions)
      0 loads
  in
  let errors =
    List.fold_left (fun acc w -> acc + w.A.Workload.load.errors) 0 loads
  in
  if sessions < port_script_count then
    Alcotest.failf "%s served only %d sessions" desc.A.Experience.d_name
      sessions;
  Alcotest.(check int)
    (desc.A.Experience.d_name ^ " protocol errors")
    0 errors;
  (* no thread may have trapped *)
  Alcotest.(check int)
    (desc.A.Experience.d_name ^ " traps")
    0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

let web_serves () = serve_app A.Experience.web_desc 5 ()
let mail_serves () = serve_app A.Experience.mail_desc 5 ()
let ftp_serves () = serve_app A.Experience.ftp_desc 5 ()
let store_serves () = serve_app A.Experience.store_desc 5 ()

(* the per-update outcomes the paper reports *)

let check_applied (a : A.Experience.attempt) =
  match a.A.Experience.a_outcome with
  | A.Experience.Applied t -> t
  | A.Experience.Aborted e ->
      Alcotest.failf "%s %s->%s should apply, but: %s" a.A.Experience.a_app
        a.A.Experience.a_from a.A.Experience.a_to e

let check_aborted (a : A.Experience.attempt) =
  match a.A.Experience.a_outcome with
  | A.Experience.Aborted _ -> ()
  | A.Experience.Applied _ ->
      Alcotest.failf "%s %s->%s should abort but applied"
        a.A.Experience.a_app a.A.Experience.a_from a.A.Experience.a_to

(* the paper's 5.1.2 -> 5.1.3 update changes the pool threads' run()
   loops, which are always on stack.  Without con-freeness analysis the
   safe point is unreachable; with it (the default) the changed bodies
   are proven backward-compatible and the update lands first attempt. *)
let web_513_applies_with_confree () =
  let a =
    A.Experience.run_one ~timeout_rounds:80 A.Experience.web_desc
      ~from_version:"5.1.2" ~to_version:"5.1.3"
  in
  ignore (check_applied a);
  Alcotest.(check int) "no barriers under a proof" 0 a.A.Experience.a_barriers

let web_513_fails_without_confree () =
  let a =
    A.Experience.run_one
      ~config:{ A.Experience.default_config with VM.State.confree = false }
      ~timeout_rounds:80 A.Experience.web_desc ~from_version:"5.1.2"
      ~to_version:"5.1.3"
  in
  check_aborted a

let web_515_applies_with_osr () =
  let a =
    A.Experience.run_one A.Experience.web_desc ~from_version:"5.1.4"
      ~to_version:"5.1.5"
  in
  let t = check_applied a in
  (* PoolThread.run is category-2 (references HttpConnection) and always
     on stack: OSR must have fired *)
  if t.J.Updater.u_osr < 1 then Alcotest.fail "expected OSR of PoolThread.run";
  (* the server still serves after the update *)
  if a.A.Experience.a_requests_after <= a.A.Experience.a_requests_before then
    Alcotest.fail "server stopped serving after update"

(* mail 1.2.4 -> 1.3 body-updates the three always-on-stack run() loops;
   con-freeness proves them compatible (Main.main stays restricted — it
   references the deleted AdminTool — but it is never on stack) *)
let mail_13_applies_with_confree () =
  let a =
    A.Experience.run_one ~timeout_rounds:80 A.Experience.mail_desc
      ~from_version:"1.2.4" ~to_version:"1.3"
  in
  ignore (check_applied a);
  Alcotest.(check int) "no barriers under a proof" 0 a.A.Experience.a_barriers

let mail_13_fails_without_confree () =
  let a =
    A.Experience.run_one
      ~config:{ A.Experience.default_config with VM.State.confree = false }
      ~timeout_rounds:80 A.Experience.mail_desc ~from_version:"1.2.4"
      ~to_version:"1.3"
  in
  check_aborted a

let mail_132_paper_example () =
  let a =
    A.Experience.run_one A.Experience.mail_desc ~from_version:"1.3.1"
      ~to_version:"1.3.2"
  in
  let t = check_applied a in
  (* the User objects must have been transformed (3 users + arrays), and
     the always-running sender/POP loops OSR'd *)
  if t.J.Updater.u_transformed_objects < 3 then
    Alcotest.failf "expected >=3 transformed objects, got %d"
      t.J.Updater.u_transformed_objects;
  if t.J.Updater.u_osr < 2 then
    Alcotest.failf "expected OSR of SMTPSender.run and Pop3Processor.run, \
                    got %d" t.J.Updater.u_osr;
  if a.A.Experience.a_requests_after <= a.A.Experience.a_requests_before then
    Alcotest.fail "mail server stopped serving after update"

(* a long-lived FTP session: log in, then keep listing — the handler
   thread never leaves RequestHandler.run (paper: "with many active
   sessions, this method is essentially always on stack") *)
let persistent_ftp_script =
  [ "USER admin"; "PASS ftp" ]
  @ List.init 500 (fun _ -> "LIST")

let ftp_108_busy_vs_idle () =
  (* under load with long-lived sessions, RequestHandler.run frames block
     the update *)
  let vm = A.Experience.boot_version A.Experience.ftp_desc ~version:"1.07" in
  let w =
    A.Workload.attach vm ~port:A.Miniftp.port ~script:persistent_ftp_script
      ~concurrency:3 ()
  in
  VM.Vm.run vm ~rounds:40;
  let old_program =
    Jv_lang.Compile.compile_program
      (A.Patching.source A.Miniftp.app ~version:"1.07")
  in
  let new_program =
    Jv_lang.Compile.compile_program
      (A.Patching.source A.Miniftp.app ~version:"1.08")
  in
  let spec =
    J.Spec.make ~version_tag:"107" ~old_program ~new_program ()
  in
  let h = J.Jvolve.update_now ~timeout_rounds:80 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      let e = J.Updater.abort_to_string a in
      if not (Helpers.contains e "RequestHandler.run") then
        Alcotest.failf "abort should blame RequestHandler.run: %s" e
  | o ->
      Alcotest.failf "busy update should abort, got %s"
        (J.Jvolve.outcome_to_string o));
  A.Workload.detach vm w;
  (* idle, it applies *)
  let idle =
    A.Experience.run_one ~loaded:false A.Experience.ftp_desc
      ~from_version:"1.07" ~to_version:"1.08"
  in
  ignore (check_applied idle)

let hotswap_counts () =
  (* which updates a method-body-only system supports, per app *)
  let count desc =
    A.Patching.update_pairs desc.A.Experience.d_versioned
    |> List.filter (fun ((_, s1), (_, s2)) ->
           let d =
             J.Diff.compute
               ~old_program:(Jv_lang.Compile.compile_program s1)
               ~new_program:(Jv_lang.Compile.compile_program s2)
           in
           J.Diff.method_body_only_supported d)
    |> List.length
  in
  (* 5.1.11 (the guard demo's bad release) is body-only too *)
  Alcotest.(check int) "miniweb body-only updates" 6
    (count A.Experience.web_desc);
  Alcotest.(check int) "minimail body-only updates" 4
    (count A.Experience.mail_desc);
  Alcotest.(check int) "miniftp body-only updates" 0
    (count A.Experience.ftp_desc);
  (* every ministore rung is a schema migration *)
  Alcotest.(check int) "ministore body-only updates" 0
    (count A.Experience.store_desc)

let suite =
  [
    Alcotest.test_case "all versions compile" `Quick all_versions_compile;
    Alcotest.test_case "version counts" `Quick expected_version_counts;
    Alcotest.test_case "miniweb serves" `Quick web_serves;
    Alcotest.test_case "minimail serves" `Quick mail_serves;
    Alcotest.test_case "miniftp serves" `Quick ftp_serves;
    Alcotest.test_case "ministore serves" `Quick store_serves;
    Alcotest.test_case "web 5.1.3 applies via con-freeness" `Slow
      web_513_applies_with_confree;
    Alcotest.test_case "web 5.1.3 cannot reach safe point without confree"
      `Slow web_513_fails_without_confree;
    Alcotest.test_case "web 5.1.5 applies with OSR" `Quick
      web_515_applies_with_osr;
    Alcotest.test_case "mail 1.3 applies via con-freeness" `Slow
      mail_13_applies_with_confree;
    Alcotest.test_case "mail 1.3 cannot reach safe point without confree"
      `Slow mail_13_fails_without_confree;
    Alcotest.test_case "mail 1.3.2 paper example" `Quick
      mail_132_paper_example;
    Alcotest.test_case "ftp 1.08 busy vs idle" `Slow ftp_108_busy_vs_idle;
    Alcotest.test_case "hotswap support counts" `Quick hotswap_counts;
  ]
