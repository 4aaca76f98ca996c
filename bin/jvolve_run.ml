(* jvolve_run: run a MiniJava program on the VM, optionally applying a
   dynamic update while it executes.

     dune exec bin/jvolve_run.exe -- program.mj
     dune exec bin/jvolve_run.exe -- v1.mj --update v2.mj --at 50 --tag 2 \
       --transformers custom.mj --rounds 500

   Or run a built-in server app's version ladder under load, applying
   every release in [--from, --to] as a dynamic update (with the app's
   own custom transformers, e.g. ministore's schema migrations):

     dune exec bin/jvolve_run.exe -- --app ministore --from 1.0 --to 1.3 *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Common tail: program output, trace/metrics export, stats, exit code.
   --trace prints the update/GC/OSR timeline on stderr. *)
let finish vm (o : Cli.t) ~failed =
  print_string (VM.Vm.output vm);
  let obs = VM.Vm.obs vm in
  Cli.emit_trace o obs ~timeline:(fun () ->
      prerr_string
        (Jv_obs.Export.timeline
           ~scopes:[ "core.update"; "vm.gc"; "vm.osr"; "vm.dsu" ]
           obs));
  if o.metrics then print_string (Jv_obs.Export.prometheus obs);
  let stats = VM.Vm.stats vm in
  if o.verbose then begin
    Printf.eprintf
      "[jvolve] %d instructions, %d base compiles, %d opt compiles, %d \
       GCs, %d OSRs\n"
      stats.VM.Vm.instr_count stats.VM.Vm.compile_count
      stats.VM.Vm.opt_compile_count stats.VM.Vm.gc_count
      stats.VM.Vm.osr_count;
    List.iter
      (fun (tid, msg) ->
        Printf.eprintf "[jvolve] thread %d trapped: %s\n" tid msg)
      stats.VM.Vm.traps
  end;
  if stats.VM.Vm.traps = [] && not failed then 0 else 2

(* --app mode: boot a built-in server app under load and walk its
   version ladder from --from to --to, one dynamic update per release,
   using the app's own transformer overrides (ministore's rungs are all
   schema migrations with custom forward and inverse transformers). *)
let run_app_ladder ~app_name ~from_v ~to_v ~config ~plan ~guard
    (o : Cli.t) =
  let lazy_mode = config.VM.State.lazy_update in
  let d = Cli.app app_name in
  let versions = A.App.versions d in
  let index_of v =
    let rec go i = function
      | [] -> None
      | x :: _ when x = v -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 versions
  in
  let from_v = Option.value from_v ~default:(List.hd versions) in
  let to_v =
    Option.value to_v ~default:(List.nth versions (List.length versions - 1))
  in
  let rungs =
    match (index_of from_v, index_of to_v) with
    | Some i, Some j when i < j ->
        List.init (j - i) (fun k ->
            (List.nth versions (i + k), List.nth versions (i + k + 1)))
    | _ ->
        Printf.eprintf "no ladder from %s to %s (versions: %s)\n" from_v to_v
          (String.concat ", " versions);
        exit 1
  in
  let vm = A.App.boot ~config d (A.App.compile d ~version:from_v) in
  VM.Vm.set_faults vm plan;
  let loads = A.App.attach vm d ~concurrency:4 in
  VM.Vm.run vm ~rounds:60;
  let compile v = A.App.compile d ~version:v in
  let failures = ref 0 in
  List.iter
    (fun (f, t) ->
      let before = A.Experience.total_requests loads in
      let spec =
        A.App.spec d ~from_version:f ~to_version:t ~old_program:(compile f)
          ~new_program:(compile t)
      in
      let h =
        J.Jvolve.update_now ~timeout_rounds:o.timeout_rounds
          ~admit_strict:o.admit_strict ?guard vm spec
      in
      Printf.eprintf "[jvolve] %s %s -> %s: %s\n" app_name f t
        (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
      if not (J.Jvolve.succeeded h) then incr failures
      else
        Option.iter
          (fun _ ->
            match J.Jvolve.run_to_guard_close vm h with
            | J.Jvolve.Applied _ ->
                Printf.eprintf
                  "[jvolve]   guard window closed clean (update kept)\n"
            | o ->
                incr failures;
                Printf.eprintf "[jvolve]   guard window: %s\n"
                  (J.Jvolve.outcome_to_string o))
          guard;
      VM.Vm.run vm ~rounds:80;
      (match vm.VM.State.lazy_info with
      | Some li ->
          Printf.eprintf
            "[jvolve]   lazy window open: %d object(s) migrated so far (%d \
             by barrier, %d by sweeper)\n"
            li.VM.State.li_transformed li.VM.State.li_barrier_hits
            li.VM.State.li_swept
      | None ->
          if lazy_mode then
            Printf.eprintf "[jvolve]   lazy window drained\n");
      (* collect first: the committed update's dropped log leaves
         superseded old copies in the heap until the next collection *)
      ignore (VM.Gc.collect vm : VM.Gc.result);
      let hv = VM.Heapverify.run vm in
      if not hv.VM.Heapverify.hv_ok then incr failures;
      Printf.eprintf "[jvolve]   served %d request(s) during the rung; heap %s\n"
        (A.Experience.total_requests loads - before)
        (if hv.VM.Heapverify.hv_ok then "green" else "DIRTY"))
    rungs;
  VM.Vm.run vm ~rounds:60;
  Printf.eprintf
    "[jvolve] ladder complete: %d rung(s), %d failure(s), %d requests served\n"
    (List.length rungs) !failures
    (A.Experience.total_requests loads);
  finish vm o ~failed:(!failures > 0)

let run app from_v to_v path main_class rounds update_path at tag
    transformers_path lazy_update lazy_sweep_budget (o : Cli.t) =
  try
    let plan = Cli.plan o in
    let guard = Cli.guard o in
    let config base =
      { (Cli.config o base) with VM.State.lazy_update; lazy_sweep_budget }
    in
    match app with
    | Some app_name ->
        run_app_ladder ~app_name ~from_v ~to_v
          ~config:(config A.App.default_config) ~plan ~guard o
    | None ->
    let path =
      match path with
      | Some p -> p
      | None ->
          Printf.eprintf "either FILE or --app is required\n";
          exit 1
    in
    let old_program = Jv_lang.Compile.compile_program (read_file path) in
    let vm = VM.Vm.create ~config:(config VM.State.default_config) () in
    VM.Vm.set_faults vm plan;
    VM.Vm.boot vm old_program;
    ignore (VM.Vm.spawn_main vm ~main_class);
    (match update_path with
    | None -> ignore (VM.Vm.run_to_quiescence ~max_rounds:rounds vm)
    | Some upath ->
        VM.Vm.run vm ~rounds:at;
        let new_program = Jv_lang.Compile.compile_program (read_file upath) in
        let transformer_src = Option.map read_file transformers_path in
        let spec =
          J.Spec.make ~transformer_src ~version_tag:tag ~old_program
            ~new_program ()
        in
        let h =
          J.Jvolve.update_now ~timeout_rounds:o.timeout_rounds
            ~admit_strict:o.admit_strict ?guard vm spec
        in
        Printf.eprintf "[jvolve] update at round %d: %s\n" at
          (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
        (match guard with
        | Some _ when J.Jvolve.succeeded h ->
            let final = J.Jvolve.run_to_guard_close vm h in
            Printf.eprintf "[jvolve] guard window: %s\n"
              (match final with
              | J.Jvolve.Applied _ -> "closed clean (update kept)"
              | o -> J.Jvolve.outcome_to_string o)
        | _ -> ());
        (match VM.Vm.killed vm with
        | Some pt -> Printf.eprintf "[jvolve] VM killed at %s\n" pt
        | None -> ());
        ignore (VM.Vm.run_to_quiescence ~max_rounds:(max 0 (rounds - at)) vm));
    finish vm o ~failed:false
  with
  | Jv_lang.Compile.Error e ->
      Printf.eprintf "compile error: %s\n" e;
      1
  | VM.Classloader.Load_error errs ->
      Printf.eprintf "load error:\n  %s\n" (String.concat "\n  " errs);
      1
  | J.Transformers.Prepare_error e ->
      Printf.eprintf "prepare error: %s\n" e;
      1

open Cmdliner

let path =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"MiniJava program (omit when using --app).")

let app_arg =
  Arg.(value & opt (some string) None & info [ "app" ] ~docv:"APP"
         ~doc:"Walk a built-in server app's version ladder under load \
               instead of running a file: miniweb, minimail, miniftp or \
               ministore.  Each release in [--from, --to] is applied as \
               a dynamic update with the app's own transformers.")

let from_v =
  Arg.(value & opt (some string) None & info [ "from" ] ~docv:"VERSION"
         ~doc:"With --app: version to boot (default: the app's first).")

let to_v =
  Arg.(value & opt (some string) None & info [ "to" ] ~docv:"VERSION"
         ~doc:"With --app: version to end on (default: the app's last).")

let main_class =
  Arg.(value & opt string "Main" & info [ "main" ] ~docv:"CLASS"
         ~doc:"Class whose static main() to run.")

let rounds =
  Arg.(value & opt int 100_000 & info [ "rounds" ] ~docv:"N"
         ~doc:"Maximum scheduler rounds.")

let update_path =
  Arg.(value & opt (some file) None & info [ "update" ] ~docv:"FILE"
         ~doc:"New program version to apply dynamically.")

let at =
  Arg.(value & opt int 50 & info [ "at" ] ~docv:"ROUND"
         ~doc:"Round at which to request the update.")

let tag =
  Arg.(value & opt string "1" & info [ "tag" ] ~docv:"TAG"
         ~doc:"Version tag for renamed old classes.")

let transformers_path =
  Arg.(value & opt (some file) None & info [ "transformers" ] ~docv:"FILE"
         ~doc:"Customized JvolveTransformers source (default: generated).")

let lazy_update =
  Arg.(value & flag & info [ "lazy" ]
         ~doc:"Commit updates lazily: the pause covers only metadata, \
               statics and a heap-epoch flip.  Old-epoch objects are \
               transformed on first access by a read barrier, and a \
               background sweeper migrates a bounded number of objects \
               per scheduler round until the heap converges.")

let lazy_sweep_budget =
  Arg.(value & opt int VM.State.default_config.VM.State.lazy_sweep_budget
         & info [ "lazy-budget" ] ~docv:"N"
             ~doc:"With --lazy: heap objects the background sweeper visits \
                   per scheduler round.")

let options =
  Cli.term ~timeout_default:Jvolve_core.Jvolve.default_timeout_rounds
    ~timeout_doc:
      "Abort the update if no safe point is reached within $(docv) \
       scheduler rounds (the paper's 15s abort timeout)."
    ~verify_heap_doc:
      "Walk the whole heap after the transform phase (and after any \
       rollback) checking headers, reference-field types and statics; a \
       failed verify aborts the update."
    ~fuel_doc:
      "Machine-instruction budget per transformer invocation; a \
       transformer that exceeds it traps and the update aborts."
    ~confree_doc:
      "Run the static con-freeness (backward-compatibility) analysis at \
       admission time: changed methods whose old bodies are proven safe to \
       keep running across the commit are subtracted from the restricted \
       set, so always-on-stack run() loops no longer block the safe point. \
       \ This is the default."
    ~no_confree_doc:
      "Disable the con-freeness analysis: every changed method blocks the \
       safe point wherever it is on stack (the paper's baseline \
       behaviour)."
    ~guard_rounds_doc:
      "Length of the post-commit guard window in scheduler rounds: after a \
       successful update the VM watches trap rate, app errors, probe \
       failures and p99 latency against pre-update baselines, \
       auto-reverting (inverse update, replaying the retained update log) \
       if a budget trips."
    ~guard_budget_doc:
      "Guard error budget, comma-separated key=value pairs: rounds, traps, \
       errors, probes, latency (factor), samples. E.g. \
       'traps=0,errors=2,latency=3'.  Unset keys keep their defaults."
    ~no_guard_doc:
      "Commit updates immediately: no guard window, no retained update \
       log, no automatic revert."
    ~faults_doc:
      "Arm a deterministic fault plan: comma-separated \
       POINT=ACTION[@RATE][xCOUNT] rules, e.g. 'updater.transform=raise', \
       'updater.*=raise@0.2', 'net.link=delay:3@0.1x5'.  Actions: raise, \
       kill, drop, delay:N.  A trailing * in POINT matches by prefix."
    ~trace_doc:
      "Print the update/GC/OSR flight-recorder timeline on stderr; with \
       $(docv), write the full JSON-lines event dump there instead."
    ~metrics_doc:"Print a Prometheus-style snapshot of the VM's metrics."
    ~verbose_doc:"Print VM statistics."

let cmd =
  Cmd.v
    (Cmd.info "jvolve_run" ~doc:"Run MiniJava programs with dynamic updates")
    Term.(
      const run $ app_arg $ from_v $ to_v $ path $ main_class $ rounds
      $ update_path $ at $ tag $ transformers_path $ lazy_update
      $ lazy_sweep_budget $ options)

let () = exit (Cmd.eval' cmd)
