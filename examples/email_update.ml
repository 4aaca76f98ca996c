(* The paper's running example, end to end (Figures 2 and 3).

     dune exec examples/email_update.exe

   minimail 1.3.1 stores forwarding addresses as raw strings
   ("bob@dest.org"); version 1.3.2 introduces the EmailAddress class and
   changes User.forwardAddresses from String[] to EmailAddress[], plus the
   setter's signature.  The UPT's default transformer would null the
   field; the customized transformer from Figure 3 rebuilds each
   EmailAddress by splitting the old strings on "@".

   We run the mail server under SMTP+POP load, apply the update live, and
   show (a) the custom transformer rebuilt the addresses, (b) the
   always-running SMTPSender.run / Pop3Processor.run loops were carried
   across the update by on-stack replacement, and (c) the server kept
   serving. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let () =
  (* boot minimail 1.3.1 and put it under load *)
  let vm = A.Experience.boot_version A.Experience.mail_desc ~version:"1.3.1" in
  let smtp =
    A.Workload.attach vm ~port:A.Minimail.smtp_port
      ~script:A.Workload.smtp_script ~concurrency:3 ()
  in
  let pop =
    A.Workload.attach vm ~port:A.Minimail.pop_port
      ~script:A.Workload.pop_script ~concurrency:2 ()
  in
  VM.Vm.run vm ~rounds:60;
  Printf.printf "before update: %d SMTP requests, %d POP requests served\n"
    smtp.A.Workload.load.completed_requests
    pop.A.Workload.load.completed_requests;

  (* the update spec with the paper's customized User transformer *)
  let spec =
    J.Spec.make
      ~object_overrides:[ ("User", A.Minimail.user_transformer_132) ]
      ~version_tag:"131"
      ~old_program:
        (Jv_lang.Compile.compile_program
           (A.Patching.source A.Minimail.app ~version:"1.3.1"))
      ~new_program:
        (Jv_lang.Compile.compile_program
           (A.Patching.source A.Minimail.app ~version:"1.3.2"))
      ()
  in
  Printf.printf "\nUPT: %s\n" (J.Diff.summary spec.J.Spec.diff);
  Printf.printf "customized User transformer (paper Figure 3):\n%s\n"
    A.Minimail.user_transformer_132;

  let h = J.Jvolve.update_now vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Printf.printf
        "update applied: %.2f ms pause, %d objects transformed, %d \
         always-running frames replaced by OSR\n"
        t.J.Updater.u_total_ms t.J.Updater.u_transformed_objects
        t.J.Updater.u_osr
  | o -> failwith (J.Jvolve.outcome_to_string o));

  (* keep serving; the delivery path now renders EmailAddress objects that
     only exist because the transformer rebuilt them *)
  vm.VM.State.out |> Buffer.clear;
  let enable_log =
    (* flip minimail's Log.verbose static so the forwarding lines print *)
    let log = VM.Rt.require_class vm.VM.State.reg "Log" in
    match VM.Rt.find_static_info vm.VM.State.reg log "verbose" with
    | Some si -> VM.State.jtoc_set vm si.VM.Rt.si_slot VM.Value.true_w
    | None -> ()
  in
  enable_log;
  VM.Vm.run vm ~rounds:120;
  Printf.printf "\nafter update: %d SMTP requests, %d POP requests served\n"
    smtp.A.Workload.load.completed_requests
    pop.A.Workload.load.completed_requests;
  let out = VM.Vm.output vm in
  print_string "server log (forwarding uses transformed EmailAddress objects):\n";
  String.split_on_char '\n' out
  |> List.filter (fun l -> l <> "")
  |> List.filteri (fun i _ -> i < 8)
  |> List.iter print_endline
