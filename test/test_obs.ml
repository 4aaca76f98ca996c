(* lib/obs: the flight recorder ring, geometric histograms (checked
   against a naive sorted-sample reference), and the exporters (golden
   output tests). *)

module Ring = Jv_obs.Ring
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics
module Export = Jv_obs.Export

(* --- ring buffer ------------------------------------------------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  Alcotest.(check int) "empty length" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "partial fill" [ 1; 2 ] (Ring.to_list r);
  Alcotest.(check int) "no drops yet" 0 (Ring.dropped r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "length clamped to capacity" 4 (Ring.length r);
  Alcotest.(check int) "dropped count" 6 (Ring.dropped r);
  Alcotest.(check (list int))
    "survivors are the last pushes, oldest first" [ 6; 7; 8; 9 ]
    (Ring.to_list r);
  let sum = Ring.fold r (fun acc x -> acc + x) 0 in
  Alcotest.(check int) "fold sees the same survivors" 30 sum;
  Ring.clear r;
  Alcotest.(check int) "clear resets length" 0 (Ring.length r);
  Alcotest.(check int) "clear resets drops" 0 (Ring.dropped r)

let test_ring_capacity_clamped () =
  let r = Ring.create ~capacity:0 in
  Ring.push r 41;
  Ring.push r 42;
  Alcotest.(check (list int)) "capacity 0 behaves as 1" [ 42 ] (Ring.to_list r)

(* --- histogram quantiles vs. a naive reference ------------------------- *)

(* Deterministic LCG so the test needs no seed plumbing. *)
let lcg_samples n =
  let state = ref 123456789 in
  List.init n (fun _ ->
      state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
      (float_of_int (!state mod 1_000_000) /. 100.0) +. 0.01)

let naive_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let test_histogram_quantiles () =
  let samples = lcg_samples 5000 in
  let h = Metrics.make_histogram "t" in
  List.iter (Metrics.observe h) samples;
  let sorted = Array.of_list (List.sort compare samples) in
  Alcotest.(check int) "count" 5000 (Metrics.count h);
  List.iter
    (fun q ->
      let want = naive_quantile sorted q in
      let got = Metrics.quantile h q in
      (* the geometric buckets guarantee <= sqrt(gamma)-1 ~ 4.4% relative
         error; allow 6% for boundary effects *)
      let rel = Float.abs (got -. want) /. want in
      if rel > 0.06 then
        Alcotest.failf "q=%.2f: estimate %.4f vs reference %.4f (%.1f%% off)"
          q got want (100.0 *. rel))
    [ 0.5; 0.9; 0.99 ];
  Alcotest.(check (float 1e-6))
    "max is exact"
    (naive_quantile sorted 1.0)
    (Metrics.hist_max h)

let test_histogram_single_sample () =
  let h = Metrics.make_histogram "t" in
  Metrics.observe h 10.0;
  (* clamping into [min, max] makes single-sample quantiles exact *)
  Alcotest.(check (float 1e-9)) "p50" 10.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 10.0 (Metrics.quantile h 0.99)

let test_histogram_merge () =
  let a = Metrics.make_histogram "a" and b = Metrics.make_histogram "b" in
  let samples = lcg_samples 2000 in
  List.iteri
    (fun i v -> Metrics.observe (if i mod 2 = 0 then a else b) v)
    samples;
  Metrics.merge_into ~into:a b;
  let sorted = Array.of_list (List.sort compare samples) in
  Alcotest.(check int) "merged count" 2000 (Metrics.count a);
  Alcotest.(check (float 1e-6))
    "merged max" (naive_quantile sorted 1.0) (Metrics.hist_max a);
  let want = naive_quantile sorted 0.9 and got = Metrics.quantile a 0.9 in
  if Float.abs (got -. want) /. want > 0.06 then
    Alcotest.failf "merged p90: %.4f vs %.4f" got want

(* --- exporters (golden output) ----------------------------------------- *)

let test_prometheus_golden () =
  let sink = Obs.create () in
  Obs.incr ~by:3 sink "vm.reqs";
  Obs.set_gauge sink "lb.depth" 2.5;
  (* one sample: min = max, so even the quantile lines are deterministic *)
  Obs.observe sink "pause.ms" 10.0;
  let want =
    "# TYPE vm_reqs counter\n\
     vm_reqs 3\n\
     # TYPE lb_depth gauge\n\
     lb_depth 2.5\n\
     # TYPE pause_ms summary\n\
     pause_ms{quantile=\"0.5\"} 10\n\
     pause_ms{quantile=\"0.9\"} 10\n\
     pause_ms{quantile=\"0.99\"} 10\n\
     pause_ms_count 1\n\
     pause_ms_sum 10\n\
     pause_ms_min 10\n\
     pause_ms_max 10\n"
  in
  Alcotest.(check string) "prometheus snapshot" want (Export.prometheus sink)

let test_jsonl_golden () =
  let sink = Obs.create () in
  let tick = ref 0 in
  Obs.set_clock sink (fun () -> !tick);
  tick := 5;
  Obs.emit sink ~scope:"vm.gc" "gc.done"
    [ ("ms", Obs.Float 2.5); ("copied", Obs.Int 7) ];
  tick := 9;
  Obs.emit sink ~scope:"core.update" "update.applied"
    [ ("tag", Obs.Str "v\"2\"") ];
  let want =
    "{\"seq\":0,\"tick\":5,\"scope\":\"vm.gc\",\"name\":\"gc.done\",\
     \"fields\":{\"ms\":2.5,\"copied\":7}}\n\
     {\"seq\":1,\"tick\":9,\"scope\":\"core.update\",\
     \"name\":\"update.applied\",\"fields\":{\"tag\":\"v\\\"2\\\"\"}}\n"
  in
  Alcotest.(check string) "jsonl dump" want (Export.jsonl sink)

let test_timeline_filter_and_drops () =
  let sink = Obs.create ~capacity:2 () in
  Obs.emit sink ~scope:"vm.gc" "gc.done" [];
  Obs.emit sink ~scope:"fleet.rollout" "drain.done" [ ("ticks", Obs.Int 8) ];
  Obs.emit sink ~scope:"fleet.lb" "lb.drop" [];
  let out = Export.timeline ~scopes:[ "fleet.rollout" ] sink in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  if not (contains out "1 earlier events dropped") then
    Alcotest.failf "missing drop notice in %S" out;
  if not (contains out "drain.done") then
    Alcotest.failf "missing kept event in %S" out;
  if contains out "lb.drop" then
    Alcotest.failf "filtered scope leaked into %S" out

(* --- spans -------------------------------------------------------------- *)

let test_span () =
  let sink = Obs.create () in
  let tick = ref 100 and wall = ref 1.0 in
  Obs.set_clock sink (fun () -> !tick);
  Obs.set_wall sink (fun () -> !wall);
  let r =
    Obs.span sink ~scope:"core.update" "pause" (fun () ->
        tick := 107;
        wall := 1.25;
        42)
  in
  Alcotest.(check int) "span returns the body's value" 42 r;
  (match Obs.events sink with
  | [ b; e ] ->
      Alcotest.(check string) "begin event" "pause.begin" b.Obs.ev_name;
      Alcotest.(check string) "end event" "pause.end" e.Obs.ev_name;
      Alcotest.(check int) "begin tick" 100 b.Obs.ev_tick;
      assert (List.mem ("ticks", Obs.Int 7) e.Obs.ev_fields)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  match Obs.find_histogram sink "core.update.pause.ms" with
  | Some h ->
      Alcotest.(check int) "duration histogram count" 1 (Metrics.count h);
      Alcotest.(check (float 1e-6)) "duration ms" 250.0 (Metrics.sum h)
  | None -> Alcotest.fail "span did not record its duration histogram"

(* --- the scheduler's and interpreter's own counters ---------------------- *)

(* One thread that yields every iteration runs exactly one slice per
   round.  With [clinit], a static initializer runs a slice at boot,
   before any round: the interpreter's counter then comes before the
   scheduler's, so the sink order shows when each handle was resolved.
   The heap's committed-words gauge comes first: the VM sets it when it
   is created. *)
let yield_vm ~clinit =
  let vm = Jv_vm.Vm.create ~config:Helpers.test_config () in
  Jv_vm.Vm.boot vm
    (Jv_lang.Compile.compile_program
       (Printf.sprintf
          {|
class Main {
  %s
  static void main() {
    for (int i = 0; i < 1000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}
          (if clinit then "static int seed = 7;" else "")));
  vm

let metric_names obs =
  let names = ref [] in
  Metrics.iter (Obs.metrics obs) (fun n _ -> names := n :: !names);
  List.rev !names

let test_vm_round_counters () =
  List.iter
    (fun (clinit, boot_slices, names) ->
      let label = if clinit then "with <clinit>" else "plain" in
      let vm = yield_vm ~clinit in
      let obs = Jv_vm.Vm.obs vm in
      Alcotest.(check int) (label ^ ": no round at boot") 0
        (Obs.counter_value obs "vm.sched.rounds");
      Alcotest.(check int) (label ^ ": boot slices") boot_slices
        (Obs.counter_value obs "vm.interp.slices");
      ignore (Jv_vm.Vm.spawn_main vm ~main_class:"Main");
      let k = 10 in
      Jv_vm.Vm.run vm ~rounds:k;
      Alcotest.(check int) (label ^ ": rounds") k
        (Obs.counter_value obs "vm.sched.rounds");
      Alcotest.(check int) (label ^ ": one slice per round") (boot_slices + k)
        (Obs.counter_value obs "vm.interp.slices");
      Alcotest.(check (float 0.0)) (label ^ ": one runnable thread") 1.0
        (Obs.gauge_value obs "vm.sched.runnable");
      Alcotest.(check (list string)) (label ^ ": sink order") names
        (metric_names obs))
    [
      ( false,
        0,
        [
          "vm.heap.committed_words";
          "vm.jit.base_compiles";
          "vm.sched.rounds";
          "vm.sched.runnable";
          "vm.interp.slices";
        ] );
      ( true,
        1,
        [
          "vm.heap.committed_words";
          "vm.jit.base_compiles";
          "vm.interp.slices";
          "vm.sched.rounds";
          "vm.sched.runnable";
        ] );
    ]

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring capacity clamp" `Quick test_ring_capacity_clamped;
    Alcotest.test_case "histogram quantiles vs reference" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "histogram single sample" `Quick
      test_histogram_single_sample;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
    Alcotest.test_case "timeline filter and drops" `Quick
      test_timeline_filter_and_drops;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "vm round and slice counters" `Quick
      test_vm_round_counters;
  ]
