(* The repository's DSU benchmark.

     dune exec perf/main.exe -- run <workload> --seed N [--seconds S]
                                    [--trace FILE] [--out FILE]
     dune exec perf/main.exe -- all --seed N [--seconds S]
     dune exec perf/main.exe -- --workload W --seed N --seconds S --trace 0|1

   A run makes one untraced pass over the workload, which gives every
   end-to-end metric.  With --trace it makes a second, traced pass over
   the same episodes, which gives the per-layer metrics, the Chrome trace
   and the tracing overhead; end-to-end numbers never come from it.
   Every metric is printed as "workload metric value unit n=...", the
   results go to perf/results/<workload>.json, and the last line of
   output is a JSON summary.  Failed output checks make the exit code 1. *)

module H = Harness

type workload = {
  name : string;
  episode_s : float; (* nominal seconds per episode, set-up included *)
  run : H.pass -> seed:int -> episodes:int -> unit;
}

let workloads =
  [
    { name = "serve"; episode_s = 2.0; run = Serve.run };
    { name = "migrate"; episode_s = 0.5; run = Migrate.run };
    { name = "store-lazy"; episode_s = 1.8; run = Store_lazy.run };
    { name = "fleet-heal"; episode_s = 0.7; run = Fleet_heal.run };
    { name = "fleet-gossip"; episode_s = 1.3; run = Fleet_gossip.run };
  ]

(* The metrics BENCHMARK.json names: every workload reports each of
   them.  End-to-end metrics come from the untraced pass, per-layer
   metrics from the traced pass. *)
let end_to_end = [ "setup_s"; "pause_ms"; "update_ms"; "ops_per_s"; "peak_rss_mb" ]

let per_layer =
  [
    ("lang.compile_ms", "ms");
    ("core.spec_ms", "ms");
    ("core.prepare_ms", "ms");
    ("core.admission_ms", "ms");
    ("core.confree_ms", "ms");
    ("core.update_load_ms", "ms");
    ("core.safepoint_wait_rounds", "count");
    ("core.safepoint_attempts", "count");
    ("core.return_barriers", "count");
    ("core.transformed_objects", "count");
    ("core.lazy_barrier_hits", "count");
    ("core.lazy_swept", "count");
    ("core.lazy_window_rounds", "count");
    ("vm.interp_ns_per_instr", "ns");
    ("vm.instr_per_req", "count");
    ("vm.jit_compiles", "count");
    ("vm.gc_collections", "count");
    ("vm.gc_ns_per_word", "ns");
    ("vm.osr_frames", "count");
    ("vm.heapverify_ms", "ms");
    ("simnet.bytes_per_req", "B");
    ("fleet.restarts", "count");
    ("fleet.quarantined", "count");
    ("fleet.below_capacity_rounds", "count");
    ("fleet.dropped", "count");
    ("gossip.msgs", "count");
    ("gossip.kib", "KiB");
    ("gossip.votes_seen", "count");
    ("perf.trace_overhead_pct", "%");
  ]

(* Per-layer timings read from the traced pass's spans, per call:
   (metric, layer, span key). *)
let span_metrics =
  [
    ("lang.compile_ms", "lang", "lang/Compile.compile_program");
    ("core.spec_ms", "core", "core/Spec.make");
    ("core.prepare_ms", "core", "core/Transformers.prepare");
    ("core.admission_ms", "core", "core/Admission.review");
    ("vm.heapverify_ms", "vm", "vm/Heapverify.run");
    ("fleet.round_ms", "fleet", "fleet/Fleet.round");
    ("gossip.step_ms", "gossip", "gossip/Gossip.step");
  ]

(* Most orchestrator and supervisor steps have nothing to do, so their
   time is reported summed per rollout. *)
let per_rollout_metrics =
  [
    ("fleet.orchestrator_step_ms", "fleet/Orchestrator.step");
    ("fleet.supervisor_step_ms", "fleet/Supervisor.step");
  ]

(* Episodes follow from --seconds, never from the clock, so the same
   seed and seconds always do the same work and every count repeats. *)
let episodes w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds /. w.episode_s)))

let run_pass w ~seed ~episodes ~traced =
  let p = H.new_pass ~traced in
  if traced then Trace.start ();
  (match w.run p ~seed ~episodes with
  | () -> ()
  | exception e ->
      H.check p ("workload raised " ^ Printexc.to_string e) false);
  Trace.stop ();
  H.check p "replays did identical work" (not p.H.best.Stats.Best.ragged);
  p

let end_to_end_extras (p : H.pass) =
  List.iter (H.add p)
    [
      H.of_samples ~layer:"e2e" ~unit_:"s" "setup_s" p.H.setup_s;
      H.scalar ~layer:"e2e" ~unit_:"MB" "peak_rss_mb" (H.peak_rss_mb ());
      H.scalar ~layer:"e2e" ~unit_:"ratio" "fail_ratio" ~n:p.H.attempted
        (float_of_int p.H.failed /. float_of_int (max 1 p.H.attempted));
    ]

let layer_extras (p : H.pass) ~(untraced : H.pass) =
  let spans = Trace.spans () in
  let rows = Trace.summarize ~key:Trace.by_name spans in
  let row key = List.find_opt (fun r -> r.Trace.key = key) rows in
  List.iter
    (fun (name, layer, key) ->
      Option.iter
        (fun r -> H.add p (H.of_samples ~layer ~unit_:"ms" name r.Trace.durations))
        (row key))
    span_metrics;
  (match row "fleet/Orchestrator.create" with
  | Some rollouts ->
      List.iter
        (fun (name, key) ->
          Option.iter
            (fun r ->
              H.add p
                (H.scalar ~layer:"fleet" ~unit_:"ms" ~n:rollouts.Trace.count name
                   (r.Trace.total_ms /. float_of_int rollouts.Trace.count)))
            (row key))
        per_rollout_metrics
  | None -> ());
  (match row "vm/Vm.run" with
  | Some r ->
      List.iter (H.add p)
        (H.percentile_metrics ~scale:1000.0 ~layer:"vm" ~unit_:"us" ~suffix:"_us"
           "vm.round" r.Trace.durations)
  | None -> ());
  (* the timed phases, traced against untraced *)
  H.add p
    (H.scalar ~layer:"perf" ~unit_:"%" "perf.trace_overhead_pct"
       ((H.best_total p "timed" /. H.best_total untraced "timed" -. 1.0) *. 100.0));
  (* counts a workload does not exercise are zero, not missing *)
  List.iter
    (fun (name, unit_) ->
      let have = List.exists (fun m -> m.H.name = name) p.H.metrics in
      match unit_ with
      | ("count" | "B" | "KiB") when not have ->
          H.add p (H.scalar ~layer:(List.hd (String.split_on_char '.' name))
                     ~unit_ ~n:0 name 0.0)
      | _ -> ())
    per_layer;
  (spans, rows)

let metric_json (m : H.metric) =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  Json.Obj
    [
      ("name", Json.Str m.H.name);
      ("layer", Json.Str m.H.layer);
      ("unit", Json.Str m.H.unit_);
      ("value", Json.Float m.H.value);
      ("p50", opt m.H.p50);
      ("p99", opt m.H.p99);
      ("n", Json.Int m.H.n);
    ]

let print_metric w (m : H.metric) =
  Printf.printf "%s %s %s %s n=%d%s\n%!" w m.H.name (Json.float_repr m.H.value)
    m.H.unit_ m.H.n
    (match m.H.p99 with
    | Some v -> " p99=" ^ Json.float_repr v
    | None -> "")

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : string option; (* trace file *)
  out : string option;
}

(* The metrics [names] for the summary line; one the pass did not
   measure is a failed check. *)
let pick (p : H.pass) names =
  List.map
    (fun name ->
      match List.find_opt (fun m -> m.H.name = name) p.H.metrics with
      | Some m when Float.is_finite m.H.value -> (name, m)
      | _ ->
          H.check p ("metric " ^ name ^ " measured") false;
          (name, H.scalar ~layer:"" ~unit_:"" name nan))
    names

let run_one o w =
  let episodes = episodes w ~seconds:o.seconds in
  let untraced = run_pass w ~seed:o.seed ~episodes ~traced:false in
  end_to_end_extras untraced;
  let e2e = List.filter (fun m -> m.H.layer = "e2e") untraced.H.metrics in
  let traced =
    Option.map
      (fun file ->
        let p = run_pass w ~seed:o.seed ~episodes ~traced:true in
        let spans, rows = layer_extras p ~untraced in
        mkdir_p (Filename.dirname file);
        Json.write_file file (Trace.chrome spans);
        Printf.printf "trace: %s (%d spans)\n" file (List.length spans);
        List.iter
          (fun r ->
            let s = Stats.summarize r.Trace.durations in
            Printf.printf
              "layer %-6s count %8d total %10.1f ms self %10.1f ms p50 %.4f ms%s\n"
              r.Trace.key r.Trace.count r.Trace.total_ms r.Trace.self_total_ms
              s.Stats.median
              (match s.Stats.p99 with
              | Some v -> Printf.sprintf " p99 %.4f ms" v
              | None -> ""))
          (Trace.summarize ~key:Trace.by_layer spans);
        (p, rows))
      o.trace
  in
  let layer =
    match traced with
    | Some (p, _) -> List.filter (fun m -> m.H.layer <> "e2e") p.H.metrics
    | None -> []
  in
  let shown = List.sort (fun a b -> compare a.H.name b.H.name) (e2e @ layer) in
  List.iter (print_metric w.name) shown;
  let headline =
    match traced with
    | Some (p, _) -> pick p (List.map fst per_layer)
    | None -> pick untraced end_to_end
  in
  let passes = untraced :: (match traced with Some (p, _) -> [ p ] | None -> []) in
  let sum f = List.fold_left (fun n p -> n + f p) 0 passes in
  let attempted = sum (fun p -> p.H.attempted)
  and failed = sum (fun p -> p.H.failed) in
  let failed_checks = List.concat_map (fun p -> List.rev p.H.failed_checks) passes in
  let correct = failed_checks = [] in
  List.iter (fun c -> Printf.printf "FAILED CHECK: %s\n" c) failed_checks;
  let out =
    Option.value o.out
      ~default:(Filename.concat "perf/results" (w.name ^ ".json"))
  in
  mkdir_p (Filename.dirname out);
  Json.write_file out
    (Json.Obj
       [
         ("schema", Json.Str "perf/1");
         ("workload", Json.Str w.name);
         ("seed", Json.Int o.seed);
         ("seconds", Json.Int o.seconds);
         ("episodes", Json.Int episodes);
         ("traced", Json.Bool (traced <> None));
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("failed_checks", Json.List (List.map (fun c -> Json.Str c) failed_checks));
         ("metrics", Json.List (List.map metric_json shown));
         ( "spans",
           match traced with
           | Some (_, rows) -> Json.List (List.map Trace.row_json rows)
           | None -> Json.List [] );
       ]);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 attempted));
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, m) ->
                     ( name,
                       Json.Obj
                         [
                           ("value", Json.Float m.H.value);
                           ("unit", Json.Str m.H.unit_);
                         ] ))
                   headline) );
          ]));
  if correct then 0 else 1

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* Each workload in its own process, so peak RSS is per workload. *)
let run_all o =
  let failures =
    List.filter
      (fun w ->
        let args =
          [| Sys.executable_name; "run"; w.name; "--seed"; string_of_int o.seed;
             "--seconds"; string_of_int o.seconds |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  List.iter (fun w -> Printf.printf "FAILED: %s\n" w.name) failures;
  if failures = [] then 0 else 1

let usage () =
  prerr_endline
    "usage: main.exe run <workload> [--seed N] [--seconds S] [--trace FILE] \
     [--out FILE]\n\
    \       main.exe all [--seed N] [--seconds S]\n\
    \       main.exe --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args =
    match args with
    | "run" :: w :: rest -> (`Run (Some w), rest)
    | "all" :: rest -> (`All, rest)
    | rest -> (`Run None, rest)
  in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse o = function
    | [] -> o
    | "--workload" :: v :: rest -> parse { o with workload = Some v } rest
    | "--seed" :: v :: rest -> parse { o with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> parse { o with seconds = max 1 (int_arg v) } rest
    | "--trace" :: "0" :: rest -> parse { o with trace = None } rest
    | "--trace" :: "1" :: rest -> parse { o with trace = Some "" } rest
    | "--trace" :: v :: rest -> parse { o with trace = Some v } rest
    | "--out" :: v :: rest -> parse { o with out = Some v } rest
    | _ -> usage ()
  in
  let o =
    parse
      {
        workload = (match cmd with `Run w -> w | `All -> None);
        seed = 1;
        seconds = 10;
        trace = None;
        out = None;
      }
      args
  in
  let code =
    match (cmd, o.workload) with
    | `All, _ -> run_all o
    | `Run _, None -> usage ()
    | `Run _, Some name ->
        let w = find_workload name in
        let trace =
          Option.map
            (fun f ->
              if f = "" then
                Filename.concat "perf/results" (w.name ^ ".trace.json")
              else f)
            o.trace
        in
        run_one { o with trace } w
  in
  exit code
