(* Tables 2-5 and the §4 experience results.

   For every release of miniweb (Jetty), minimail (JavaEmailServer),
   miniftp (CrossFTP) and ministore (the stateful KV store whose ladder
   is all schema migrations) we print the UPT change summary — the paper's
   per-release table row — and the outcome of actually applying the update
   to the running, loaded server.  Aborted updates are retried on an idle
   server, reproducing the paper's observation that CrossFTP 1.07->1.08
   applies only when "relatively idle".  The paper's two permanently
   stuck updates — Jetty 5.1.3 and JavaEmailServer 1.3, whose changed
   methods run in infinite loops regardless of load — now apply on the
   first attempt because the con-freeness analysis (on by default)
   proves those loops backward-compatible; run `bench confree` for the
   on/off contrast, or this bench with --no-confree semantics via
   test/test_apps.ml's off-pair tests. *)

module A = Jv_apps
module J = Jvolve_core

let table_for (desc : A.App.t) ~title =
  Support.section title;
  let attempts =
    A.Experience.run_app ~loaded:true desc
    |> List.map (fun (a : A.Experience.attempt) ->
           match a.A.Experience.a_outcome with
           | A.Experience.Aborted _ ->
               (* retry idle, as the paper did for CrossFTP *)
               let idle =
                 A.Experience.run_one ~loaded:false ~timeout_rounds:120 desc
                   ~from_version:a.A.Experience.a_from
                   ~to_version:a.A.Experience.a_to
               in
               (a, Some idle)
           | _ -> (a, None))
  in
  A.Experience.print_table Fmt.stdout (List.map fst attempts);
  List.iter
    (fun ((a : A.Experience.attempt), idle) ->
      match idle with
      | Some (i : A.Experience.attempt) -> (
          match i.A.Experience.a_outcome with
          | A.Experience.Applied _ ->
              Printf.printf
                "  note: %s -> %s aborted under load but APPLIED when idle \
                 (paper: CrossFTP 1.07->1.08 behaviour)\n"
                a.A.Experience.a_from a.A.Experience.a_to
          | A.Experience.Aborted _ ->
              Printf.printf
                "  note: %s -> %s fails even when idle (always-running \
                 changed loop; paper: Jetty 5.1.3 / JavaEmailServer 1.3)\n"
                a.A.Experience.a_from a.A.Experience.a_to)
      | None -> ())
    attempts;
  attempts

(* What each app stands for in the paper's tables. *)
let analogues =
  [
    ("miniweb", "Jetty analogue");
    ("minimail", "JavaEmailServer analogue");
    ("miniftp", "CrossFTP analogue");
    ("ministore", "stateful KV store, schema-migration ladder");
  ]

let run () =
  let tables =
    List.concat
      (List.mapi
         (fun i (d : A.App.t) ->
           table_for d
             ~title:
               (Printf.sprintf "Table %d: summary of updates to %s (%s)"
                  (i + 2) d.A.App.pr_name
                  (List.assoc d.A.App.pr_name analogues)))
         A.App.all)
  in
  Support.section "Experience summary (paper §4)";
  let all = List.map fst tables in
  let idle_rescued =
    List.concat_map
      (fun (_, i) -> match i with
        | Some ({ A.Experience.a_outcome = A.Experience.Applied _; _ } as x) ->
            [ x ]
        | _ -> [])
      tables
  in
  let applied, hotswap, total = A.Experience.summary all in
  let applied_counting_idle = applied + List.length idle_rescued in
  Printf.printf
    "Jvolve applied %d of %d updates under load; %d more applied when idle \
     -> %d of %d total (paper: 20 of 22).\n"
    applied total (List.length idle_rescued) applied_counting_idle total;
  Printf.printf
    "A method-body-only system (HotSwap / edit-and-continue) supports %d of \
     %d (paper: 9 of 22).\n"
    hotswap total;
  let osr_updates =
    List.filter (fun (a : A.Experience.attempt) -> a.A.Experience.a_osr > 0) all
  in
  Printf.printf "Updates that needed OSR to reach a safe point: %s\n"
    (String.concat ", "
       (List.map
          (fun (a : A.Experience.attempt) ->
            Printf.sprintf "%s %s->%s (%d frames)" a.A.Experience.a_app
              a.A.Experience.a_from a.A.Experience.a_to a.A.Experience.a_osr)
          osr_updates));
  let barriered =
    List.filter (fun (a : A.Experience.attempt) -> a.A.Experience.a_barriers > 0) all
  in
  Printf.printf "Updates that installed return barriers: %d of %d\n"
    (List.length barriered) total
