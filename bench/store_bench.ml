(* ministore benchmarks: schema-migration transformers against a large
   stateful heap — the stressor the connection-oriented apps never apply
   to the update machinery (their live heaps are a few hundred objects).

   Four sections:
   - the full migration ladder (field split, index re-key, value
     re-encoding) applied end-to-end on one loaded VM, heap verifier
     green between rungs;
   - transformer throughput and update pause vs store size: a heap
     populated up to millions of records, the 1.0 -> 1.1 field-split
     migration timed as (GC ms, transformer ms, objects/sec) — the
     pause-vs-heap baseline the lazy-update roadmap item compares
     against;
   - guard-revert cost vs retained-log size: trip the window after a
     committed migration and time the inverse update that re-packs
     every record;
   - a 16-instance gossip rollout of a schema migration, proving the
     stateful app slots into the decentralized control plane unchanged. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module F = Jv_fleet
module G = Jv_gossip
module Faults = Jv_faults.Faults

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

(* --- section 1: the ladder end-to-end on one loaded VM ------------------- *)

let run_ladder () =
  Support.section
    "STORE: schema-migration ladder (1.0 -> 1.1 -> 1.2 -> 1.3) on one \
     loaded VM";
  let d = A.Experience.store_desc in
  let vm = A.Experience.boot_version d ~version:"1.0" in
  let loads = A.Experience.attach_loads vm d ~concurrency:3 in
  VM.Vm.run vm ~rounds:60;
  Printf.printf "    %-12s %10s %12s %12s %8s %8s\n" "migration" "objects"
    "pause ms" "served" "heap" "drops";
  List.iter
    (fun (from_v, to_v) ->
      let before = A.Experience.total_requests loads in
      let h =
        J.Jvolve.update_now ~timeout_rounds:400 vm
          (spec_for ~from_version:from_v ~to_version:to_v)
      in
      match h.J.Jvolve.h_outcome with
      | J.Jvolve.Applied t ->
          VM.Vm.run vm ~rounds:120;
          (* the dropped log's superseded old copies linger until a
             collection reclaims them; collect so the verifier sees the
             steady state *)
          ignore (VM.Gc.collect vm : VM.Gc.result);
          let hv = VM.Heapverify.run vm in
          let dropped =
            List.fold_left
              (fun n w -> n + w.A.Workload.load.dropped_in_flight)
              0 loads
          in
          Printf.printf "    %-12s %10d %12.3f %12d %8s %8d\n"
            (from_v ^ "->" ^ to_v)
            t.J.Updater.u_transformed_objects t.J.Updater.u_total_ms
            (A.Experience.total_requests loads - before)
            (if hv.VM.Heapverify.hv_ok then "green" else "DIRTY")
            dropped
      | o ->
          Printf.printf "    %-12s !! did not apply: %s\n"
            (from_v ^ "->" ^ to_v)
            (J.Jvolve.outcome_to_string o))
    ladder

(* --- direct population: a store of n records without the wire ------------ *)

(* Records go straight into [Store.buckets] hash chains (how they got
   there is immaterial to the measured pause, exactly as in table1).
   Rec layout: 2 header words, then key, meta, val, next.  All records
   share one interned payload string: the transformer copies the
   reference, so the payload's size does not scale the measurement. *)
let populate vm ~n =
  let reg = vm.VM.State.reg in
  let rec_cls = VM.Rt.require_class reg "Rec" in
  let store_cls = VM.Rt.require_class reg "Store" in
  let slot_of name =
    match VM.Rt.find_static_info reg store_cls name with
    | Some si -> si.VM.Rt.si_slot
    | None -> failwith ("no static Store." ^ name)
  in
  let buckets_slot = slot_of "buckets" in
  let count_slot = slot_of "count" in
  let payload = VM.State.alloc_string vm "bench-payload" in
  let heap = vm.VM.State.heap in
  let buckets = VM.Value.to_ref (VM.State.jtoc_get vm buckets_slot) in
  (* the array length word is a raw count, not a tagged int *)
  let nb = VM.Heap.array_length heap buckets in
  for i = 0 to n - 1 do
    let key = 1_000_000 + i in
    let o = VM.State.alloc_object vm rec_cls in
    VM.Heap.set heap ~addr:o ~off:2 (VM.Value.of_int key);
    (* meta packs flags=i mod 7, size=i mod 65536: the split transformer
       must unpack it, the inverse must re-pack it *)
    VM.Heap.set heap ~addr:o ~off:3
      (VM.Value.of_int (((i mod 7) * 65536) + (i mod 65536)));
    VM.Heap.set heap ~addr:o ~off:4 (VM.Value.of_ref payload);
    let b = key mod nb in
    let head = VM.Heap.get heap ~addr:buckets ~off:(VM.Heap.array_header_words + b) in
    VM.Heap.set heap ~addr:o ~off:5 head;
    VM.Heap.set heap ~addr:buckets
      ~off:(VM.Heap.array_header_words + b)
      (VM.Value.of_ref o)
  done;
  let count = VM.Value.to_int (VM.State.jtoc_get vm count_slot) in
  VM.State.jtoc_set vm count_slot (VM.Value.of_int (count + n));
  (* Store.find looks a key up in chain [key % buckets.length] only:
     every populated record must sit in that chain, or GET misses it *)
  let found = ref 0 in
  for b = 0 to nb - 1 do
    let r =
      ref (VM.Heap.get heap ~addr:buckets ~off:(VM.Heap.array_header_words + b))
    in
    while not (VM.Value.is_null !r) do
      let o = VM.Value.to_ref !r in
      let key = VM.Value.to_int (VM.Heap.get heap ~addr:o ~off:2) in
      if key >= 1_000_000 && key < 1_000_000 + n && key mod nb = b then
        incr found;
      r := VM.Heap.get heap ~addr:o ~off:5
    done
  done;
  if !found <> n then
    failwith
      (Printf.sprintf "store populate: %d of %d keys findable by GET" !found n)

(* Boot a ministore 1.0 sized for [n] records: ~6 words per record in
   from-space, 7 (new layout) + 6 (retained old copy) in to-space, plus
   strings and server headroom.  A guarded update then revert needs
   about double that again — the retained log stays live across the
   inverse update's own transforming collection — so the revert section
   passes a larger [words_per_rec]. *)
let boot_store ?(words_per_rec = 18) ?(lazy_mode = false) ~n () =
  let config =
    {
      A.Experience.default_config with
      VM.State.heap_words = max (1 lsl 18) (n * words_per_rec);
      VM.State.lazy_update = lazy_mode;
      VM.State.lazy_sweep_budget = 256;
    }
  in
  let vm = A.Experience.boot_version ~config A.Experience.store_desc ~version:"1.0" in
  VM.Vm.run vm ~rounds:20;
  populate vm ~n;
  (* warm both semi-spaces and quiesce the host GC so neither pollutes
     the measured pause *)
  ignore (VM.Vm.gc vm);
  Stdlib.Gc.compact ();
  vm

(* --- section 2: transformer throughput and pause vs store size ----------- *)

let scale_sizes =
  if Support.quick then [ 10_000; 50_000 ]
  else [ 100_000; 300_000; 1_000_000 ]

let run_scale () =
  Support.section
    "STORE: transformer throughput and update pause vs store size (1.0 -> \
     1.1 field split, custom transformer per record)";
  Printf.printf "    %10s %10s %12s %12s %14s\n" "records" "gc ms"
    "transform ms" "total ms" "objects/sec";
  List.iter
    (fun n ->
      let vm = boot_store ~n () in
      let h =
        J.Jvolve.update_now ~timeout_rounds:400 vm
          (spec_for ~from_version:"1.0" ~to_version:"1.1")
      in
      match h.J.Jvolve.h_outcome with
      | J.Jvolve.Applied t ->
          let objs = t.J.Updater.u_transformed_objects in
          let per_sec =
            if t.J.Updater.u_transform_ms > 0.0 then
              float_of_int objs /. t.J.Updater.u_transform_ms *. 1000.0
            else 0.0
          in
          Printf.printf "    %10d %10.1f %12.1f %12.1f %14.0f\n" objs
            t.J.Updater.u_gc_ms t.J.Updater.u_transform_ms
            t.J.Updater.u_total_ms per_sec
      | o ->
          Printf.printf "    %10d !! did not apply: %s\n" n
            (J.Jvolve.outcome_to_string o))
    scale_sizes

(* --- section 3: guard-revert cost vs retained-log size ------------------- *)

(* A budget nothing trips: the window closes only via the [guard.trip]
   fault point, so the revert is timed, not provoked by traffic. *)
let lenient ~rounds =
  {
    J.Guard.default_budget with
    J.Guard.b_rounds = rounds;
    b_max_traps = max_int;
    b_max_app_errors = max_int;
    b_max_probe_failures = max_int;
    b_latency_factor = 1e9;
  }

let revert_sizes =
  if Support.quick then [ 2_000; 8_000 ]
  else [ 10_000; 40_000; 160_000 ]

let run_revert () =
  Support.section
    "STORE: guard-revert cost vs retained-log size (committed 1.0 -> 1.1, \
     window tripped, inverse transformer re-packs every record)";
  Printf.printf "    %10s %12s %12s %16s\n" "log pairs" "apply ms"
    "revert ms" "revert / 10k";
  List.iter
    (fun n ->
      let vm = boot_store ~words_per_rec:40 ~n () in
      let guard = J.Guard.config ~budget:(lenient ~rounds:400) () in
      let h =
        J.Jvolve.update_now ~timeout_rounds:400 ~guard vm
          (spec_for ~from_version:"1.0" ~to_version:"1.1")
      in
      let apply_ms =
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t -> t.J.Updater.u_total_ms
        | o ->
            Printf.printf "    !! apply failed: %s\n"
              (J.Jvolve.outcome_to_string o);
            0.0
      in
      let plan = Faults.create ~seed:7 () in
      Faults.arm plan ~point:"guard.trip" ~max_fires:1 Faults.Raise;
      VM.Vm.set_faults vm (Some plan);
      let final = J.Jvolve.run_to_guard_close vm h in
      VM.Vm.set_faults vm None;
      match final with
      | J.Jvolve.Reverted v ->
          Printf.printf "    %10d %12.3f %12.3f %16.4f\n" n apply_ms
            v.J.Guard.v_revert_ms
            (v.J.Guard.v_revert_ms /. float_of_int n *. 10_000.0)
      | o ->
          Printf.printf "    %10d !! expected a revert, got %s\n" n
            (J.Jvolve.outcome_to_string o))
    revert_sizes

(* --- section 4: 16-instance gossip rollout of a schema migration --------- *)

let run_gossip_rollout () =
  let size = 16 in
  Support.section
    (Printf.sprintf
       "STORE: decentralized gossip rollout of a schema migration \
        (ministore 1.0 -> 1.1, %d instances, 10%% control-plane drop)"
       size);
  let profile = F.Profile.ministore in
  let fleet =
    F.Fleet.create ~policy:F.Lb.Round_robin ~profile ~version:"1.0" ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  let d = F.Fleet.attach_load ~concurrency:8 ~request_timeout:60 fleet in
  F.Fleet.run fleet ~rounds:120;
  let chaos =
    match Faults.parse ~seed:11 "net.link=drop@0.10" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let g = G.Gossip.create ~chaos ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"1.1");
  let rounds = G.Gossip.run g ~max_rounds:6000 () in
  F.Fleet.run fleet ~rounds:60;
  let r = G.Gossip.report g ~rounds in
  Printf.printf "    %-28s %s\n" "gossip:" (Fmt.str "%a" G.Gossip.pp_report r);
  Printf.printf "    %-28s %s\n" "fleet version:"
    (match F.Fleet.uniform_version fleet with
    | Some v -> v ^ " (uniform)"
    | None -> "MIXED");
  let greens =
    List.fold_left
      (fun acc (i : F.Instance.t) ->
        let vm = i.F.Instance.i_vm in
        ignore (VM.Gc.collect vm : VM.Gc.result);
        if (VM.Heapverify.run vm).VM.Heapverify.hv_ok then acc + 1 else acc)
      0 (F.Fleet.instances fleet)
  in
  Printf.printf "    %-28s %d of %d instances green\n" "heap verifier:" greens
    size;
  Printf.printf
    "    %-28s %d sessions, %d requests, %d errors, %d dropped in flight, \
     %d timed out\n"
    "closed-loop load:" d.Jv_simnet.Client.completed_sessions
    d.Jv_simnet.Client.completed_requests d.Jv_simnet.Client.errors
    (F.Fleet.dropped_in_flight fleet)
    d.Jv_simnet.Client.timed_out_requests;
  F.Fleet.detach_loads fleet

(* --- section 5: lazy commit pause vs store size --------------------------- *)

(* The roadmap claim the eager scale section sets up: under
   [config.lazy_update] the commit pause stops scaling with the store,
   because commit only swaps metadata, reinitializes statics, and bumps
   the heap epoch — every record migrates later, on first access or by
   the background sweeper.  The drain column prices that deferred work
   (forced synchronously here to time it; in production it amortizes
   over the sweeper's budget per scheduler round). *)

let lazy_sizes = [ 10_000; 1_000_000 ]

let run_lazy () =
  Support.section
    "STORE --lazy: commit pause vs store size (1.0 -> 1.1, metadata-only \
     commit, records transform on access)";
  Printf.printf "    %10s %12s %12s %14s %10s\n" "records" "commit ms"
    "drain ms" "objects/sec" "window";
  let pauses =
    List.map
      (fun n ->
        let vm = boot_store ~lazy_mode:true ~n () in
        let h =
          J.Jvolve.update_now ~timeout_rounds:400 vm
            (spec_for ~from_version:"1.0" ~to_version:"1.1")
        in
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t ->
            let commit_ms = t.J.Updater.u_total_ms in
            (* quick mode (CI) skips draining the big store: the smoke
               criterion is the commit pause, and the window can stay
               open across process exit *)
            if Support.quick && n > 100_000 then begin
              Printf.printf "    %10d %12.3f %12s %14s %10s\n" n commit_ms
                "-" "-" "open";
              commit_ms
            end
            else begin
              let t0 = Unix.gettimeofday () in
              let drained = Result.is_ok (VM.State.drain_window vm) in
              let drain_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              Printf.printf "    %10d %12.3f %12.1f %14.0f %10s\n" n
                commit_ms drain_ms
                (float_of_int n /. Float.max 0.001 drain_ms *. 1000.0)
                (if drained then "drained" else "ROLLBACK");
              commit_ms
            end
        | o ->
            Printf.printf "    %10d !! did not apply: %s\n" n
              (J.Jvolve.outcome_to_string o);
            Float.infinity)
      lazy_sizes
  in
  match pauses with
  | [ small; large ] ->
      (* floor the denominator at 0.1 ms: both pauses are sub-millisecond
         and the ratio must price scaling, not scheduler jitter *)
      let ratio = large /. Float.max 0.1 small in
      Printf.printf "    lazy pause flat: %s (ratio %.2f <= 2)\n"
        (if ratio <= 2.0 then "PASS" else "FAIL")
        ratio
  | _ -> ()

let run () =
  run_ladder ();
  run_scale ();
  run_revert ();
  run_gossip_rollout ()
