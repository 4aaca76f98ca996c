(* store-lazy: ministore with 300 000 records takes the 1.0 -> 1.1
   field-split migration in lazy mode (custom transformers, sweeper
   budget 256 objects per round) under a closed loop of 4 sessions.  The
   benchmark drives rounds until the migration window closes, then the
   same number of rounds again as a post-window baseline.

   This uses the transformer layer differently from migrate: custom,
   sandboxed transformers run from the read barrier and the sweeper
   while the server serves, not inside one collection.  A gain on the
   eager or default-transformer path that taxes this one shows here, and
   an optimisation of default transformers alone should not move it. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module H = Harness

let records = 300_000
let concurrency = 4
let sweep_budget = 256

(* Every collection restarts the sweeper's walk; at 18 words per record
   this load collects before a walk can finish and the window never
   closes (README.md). *)
let words_per_record = 24
let sample = 1000
let max_window_rounds = 200_000

type acc = {
  cs : H.core_stats;
  latency_us : Stats.vec;
  gc_ns_per_word : Stats.vec;
  mutable in_window : int; (* requests served while the window was open *)
  mutable in_post : int;
  mutable window_rounds : int;
  mutable transformed : int;
  mutable barrier_hits : int;
  mutable swept : int;
  mutable work : H.vmc; (* executed in the window *)
  mutable bytes : int; (* simnet bytes in the window *)
}

let lazy_counter vm name = Jv_obs.Obs.counter_value (VM.Vm.obs vm) name

(* The replays are identical, so the output checks that take a second
   (1000 wire GETs and a heap walk) run on the last one only. *)
let episode p acc ~seed ~last =
  H.quiesce ();
  let rng = H.rng ~seed ~salt:3 in
  let base = 1_000_000 * (1 + Random.State.int rng 9) in
  let vm, old_program, load =
    H.setup p (fun () ->
        let config =
          {
            A.Experience.default_config with
            VM.State.heap_words = records * words_per_record;
            lazy_update = true;
            lazy_sweep_budget = sweep_budget;
          }
        in
        let vm, program =
          H.boot_app ~config ~ok:A.Workload.store_ok
            (H.compile A.Ministore.app ~version:"1.0")
        in
        VM.Vm.run vm ~rounds:20;
        Heaps.store_populate vm ~base ~n:records;
        H.collect ~into:acc.gc_ns_per_word vm;
        let load =
          Load.Closed.attach vm ~port:A.Ministore.port
            ~script:(fun () -> A.Workload.store_script)
            ~ok:A.Workload.store_ok ~concurrency
        in
        VM.Vm.run vm ~rounds:200;
        (vm, program, load))
  in
  H.quiesce ();
  let drained0 = lazy_counter vm "core.lazy.drained" in
  let served () = load.Load.Closed.completed in
  let result = ref None in
  H.timed_phase p (fun () ->
      let u =
        H.update vm
          ~compile:(H.compile A.Ministore.app ~version:"1.1")
          ~spec:(fun new_program ->
            A.Common.spec
              ~overrides:(A.Ministore.overrides ~to_version:"1.1")
              ~version_tag:"10" ~old_program ~new_program ())
          ~max_rounds:400
      in
      (* Jvolve.report counts rounds up to now: note the update at once *)
      let applied = H.note_update p acc.cs vm u in
      let window = vm.VM.State.lazy_info in
      let c0 = H.vmc vm and b0 = H.net_bytes vm and q0 = served () and n = ref 0 in
      load.Load.Closed.recording <- last;
      while vm.VM.State.lazy_info <> None && !n < max_window_rounds do
        H.timed_round p "window" vm;
        incr n
      done;
      load.Load.Closed.recording <- false;
      acc.work <- H.vmc_add acc.work (H.vmc_sub (H.vmc vm) c0);
      acc.bytes <- acc.bytes + (H.net_bytes vm - b0);
      acc.in_window <- acc.in_window + (served () - q0);
      let q1 = served () in
      for _ = 1 to !n do
        H.timed_round p "post" vm
      done;
      acc.in_post <- acc.in_post + (served () - q1);
      result := Some (applied, window, !n));
  let applied, window, n = Option.get !result in
  H.check p "update applied" applied;
  (match window with
  | Some li ->
      acc.window_rounds <- acc.window_rounds + n;
      acc.transformed <- acc.transformed + li.VM.State.li_transformed;
      acc.barrier_hits <- acc.barrier_hits + li.VM.State.li_barrier_hits;
      acc.swept <- acc.swept + li.VM.State.li_swept
  | None -> H.check p "a lazy window opened" false);
  H.check p "window drained, not rolled back"
    (vm.VM.State.lazy_info = None
    && lazy_counter vm "core.lazy.drained" = drained0 + 1
    && lazy_counter vm "core.lazy.rollbacks" = 0);
  Stats.append ~into:acc.latency_us load.Load.Closed.latency_us;
  H.attempts p ~attempted:load.Load.Closed.sent
    ~failed:(Load.Closed.failures load);
  Load.Closed.detach vm load;
  if last then begin
    let idx = List.init sample (fun _ -> Random.State.int rng records) in
    let gets = List.map (fun i -> Printf.sprintf "GET %d" (base + i)) idx in
    H.check p "sampled keys answer GET with their migrated record"
      (match A.Ministore.wire_session vm gets with
      | replies ->
          List.for_all2
            (fun i r -> r = Heaps.store_expected ~base i)
            idx replies
      | exception A.Ministore.Wire_error _ -> false);
    if p.H.traced then H.collect ~into:acc.gc_ns_per_word vm;
    H.check p "heap verifies" (H.heapverify vm).VM.Heapverify.hv_ok
  end;
  H.end_replay p

let run p ~seed ~episodes =
  let acc =
    {
      cs = H.core_stats ();
      latency_us = Stats.vec ();
      gc_ns_per_word = Stats.vec ();
      in_window = 0;
      in_post = 0;
      window_rounds = 0;
      transformed = 0;
      barrier_hits = 0;
      swept = 0;
      work = H.vmc_zero;
      bytes = 0;
    }
  in
  for e = 1 to episodes do
    episode p acc ~seed ~last:(e = episodes)
  done;
  let per = H.per_replay p in
  let window_s = H.best_total p "window" in
  let rate n key = float_of_int (per n) /. H.best_total p key in
  let per_req n = float_of_int n /. float_of_int (max 1 acc.in_window) in
  H.core_metrics ~tail:"window" p acc.cs;
  H.vm_metrics p ~key:"window" ~work:acc.work;
  List.iter (H.add p)
    (H.scalar ~layer:"e2e" ~unit_:"1/s" "ops_per_s" (rate acc.in_window "window")
     :: H.latency_metrics acc.latency_us
    @ [
        H.scalar ~layer:"e2e" ~unit_:"s" "lazy_window_s" window_s;
        H.scalar ~layer:"e2e" ~unit_:"1/s" "post_window_ops_per_s"
          (rate acc.in_post "post");
        H.raw_ms ~layer:"core" p "core.lazy_commit_ms" "total";
        H.scalar ~layer:"core" ~unit_:"1/s" "core.lazy_objs_per_s"
          (rate acc.transformed "window");
        H.count ~layer:"core" "core.lazy_barrier_hits" (per acc.barrier_hits);
        H.count ~layer:"core" "core.lazy_swept" (per acc.swept);
        H.count ~layer:"core" "core.lazy_window_rounds" (per acc.window_rounds);
        H.of_samples ~layer:"vm" ~unit_:"ns" "vm.gc_ns_per_word"
          acc.gc_ns_per_word;
        H.scalar ~layer:"vm" ~unit_:"count" "vm.instr_per_req"
          (per_req acc.work.H.instr);
        H.scalar ~layer:"simnet" ~unit_:"B" "simnet.bytes_per_req"
          (per_req acc.bytes);
      ])
