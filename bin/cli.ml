(* The command-line surface [jvolve_run] and [jvolve_fleet] share: the
   update, guard, fault and output options, their parsing, and the
   trace dump.  Each binary passes its own help text for an option, so
   the two [--help] pages stay worded for what each one runs. *)

open Cmdliner
module J = Jvolve_core
module App = Jv_apps.App

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The built-in app called [name]; exit 1 naming the known ones. *)
let app name =
  match App.by_name name with
  | Some a -> a
  | None ->
      Printf.eprintf "unknown app %S (try: %s)\n" name
        (String.concat ", " (List.map (fun a -> a.App.pr_name) App.all));
      exit 1

type t = {
  timeout_rounds : int;
  admit_strict : bool;
  verify_heap : bool;
  transformer_fuel : int;
  confree : bool;
  guard_rounds : int;
  guard_budget : string;
  no_guard : bool;
  faults : string option;
  fault_seed : int;
  trace : string option; (* [Some ""]: the timeline; [Some file]: JSONL *)
  metrics : bool;
  verbose : bool;
}

let term ~timeout_default ~timeout_doc ~verify_heap_doc ~fuel_doc
    ~confree_doc ~no_confree_doc ~guard_rounds_doc ~guard_budget_doc
    ~no_guard_doc ~faults_doc ~trace_doc ~metrics_doc ~verbose_doc =
  let timeout_rounds =
    Arg.(value & opt int timeout_default
         & info [ "timeout-rounds" ] ~docv:"N" ~doc:timeout_doc)
  in
  let admit_strict =
    Arg.(value & flag & info [ "admit-strict" ]
           ~doc:"Promote admission-control warnings (e.g. a field silently \
                 changing type across the update) to rejections.")
  in
  let verify_heap =
    Arg.(value & flag & info [ "verify-heap" ] ~doc:verify_heap_doc)
  in
  let transformer_fuel =
    Arg.(value & opt int Jv_vm.State.default_config.Jv_vm.State.transformer_fuel
         & info [ "transformer-fuel" ] ~docv:"N" ~doc:fuel_doc)
  in
  let confree =
    Arg.(value
         & vflag true
             [ (true, info [ "confree" ] ~doc:confree_doc);
               (false, info [ "no-confree" ] ~doc:no_confree_doc) ])
  in
  let guard_rounds =
    Arg.(value & opt int J.Guard.default_budget.J.Guard.b_rounds
         & info [ "guard-rounds" ] ~docv:"N" ~doc:guard_rounds_doc)
  in
  let guard_budget =
    Arg.(value & opt string ""
         & info [ "guard-budget" ] ~docv:"SPEC" ~doc:guard_budget_doc)
  in
  let no_guard = Arg.(value & flag & info [ "no-guard" ] ~doc:no_guard_doc) in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"PLAN" ~doc:faults_doc)
  in
  let fault_seed =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed for the fault plan's RNG (same seed, same schedule).")
  in
  let trace =
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:trace_doc)
  in
  let metrics = Arg.(value & flag & info [ "metrics" ] ~doc:metrics_doc) in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:verbose_doc) in
  Term.(
    const
      (fun timeout_rounds admit_strict verify_heap transformer_fuel confree
           guard_rounds guard_budget no_guard faults fault_seed trace metrics
           verbose ->
        { timeout_rounds; admit_strict; verify_heap; transformer_fuel;
          confree; guard_rounds; guard_budget; no_guard; faults; fault_seed;
          trace; metrics; verbose })
    $ timeout_rounds $ admit_strict $ verify_heap $ transformer_fuel $ confree
    $ guard_rounds $ guard_budget $ no_guard $ faults $ fault_seed $ trace
    $ metrics $ verbose)

(* [base] with the options' VM settings. *)
let config t base =
  {
    base with
    Jv_vm.State.verify_heap = t.verify_heap;
    transformer_fuel = t.transformer_fuel;
    confree = t.confree;
  }

(* The armed fault plan, if any; exit 1 on a malformed one. *)
let plan t =
  match t.faults with
  | None -> None
  | Some p -> (
      match Jv_faults.Faults.parse ~seed:t.fault_seed p with
      | Ok plan -> Some plan
      | Error e ->
          Printf.eprintf "bad fault plan: %s\n" e;
          exit 1)

(* The guard window config, or [None] under --no-guard; exit 1 on a
   malformed budget. *)
let guard t =
  if t.no_guard then None
  else
    match J.Guard.budget_of_string t.guard_budget with
    | Error e ->
        Printf.eprintf "bad --guard-budget: %s\n" e;
        exit 1
    | Ok b ->
        let budget = { b with J.Guard.b_rounds = t.guard_rounds } in
        Some (J.Guard.config ~budget ())

(* --trace runs [timeline]; --trace=FILE writes [obs]'s JSON-lines dump. *)
let emit_trace t obs ~timeline =
  match t.trace with
  | None -> ()
  | Some "" -> timeline ()
  | Some file -> write_file file (Jv_obs.Export.jsonl obs)
