(* Table 1 / Figure 6: update pause-time microbenchmark.

   Recreates the paper's §4.1 microbenchmark: a heap full of [Change] and
   [NoChange] objects (three int fields, three always-null reference
   fields); the update adds an int field to [Change] and the (default)
   object transformer copies the existing fields and zeroes the new one.

   For each heap size (object count) and each fraction of updated objects
   we report the GC time, the transformer-execution time, and the total
   DSU pause — the three row groups of Table 1.  Figure 6 is the largest
   row printed as three series.

   The paper's absolute numbers came from a 2.4 GHz Core 2 Quad; ours come
   from this machine's OCaml implementation of the same algorithm.  The
   claims that must reproduce are the shapes: GC time linear in live
   objects, transformer time linear in the updated fraction and steeper
   than the GC slope, and the fully-updated total roughly 4x the
   0%-updated total. *)

module VM = Jv_vm
module J = Jvolve_core
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics

let v1_src =
  {|
class Holder { int x; }
class Change {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class NoChange {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class Root {
  static Change[] cs;
  static NoChange[] ns;
}
class Main {
  static void main() {
    while (true) { Thread.sleep(10); }
  }
}
|}

let v2_src =
  Jv_apps.Patching.patch v1_src
    [
      ( {|class Change {
  int a; int b; int c;|},
        {|class Change {
  int a; int b; int c; int d;|} );
    ]

(* Populate the heap directly from the harness (the objects' field values
   are what the update must preserve; how they got allocated is
   immaterial to the measured pause). *)
let populate vm ~n_change ~n_nochange =
  let reg = vm.VM.State.reg in
  let change_cls = VM.Rt.require_class reg "Change" in
  let nochange_cls = VM.Rt.require_class reg "NoChange" in
  let root = VM.Rt.require_class reg "Root" in
  let slot_of name =
    match VM.Rt.find_static_info reg root name with
    | Some si -> si.VM.Rt.si_slot
    | None -> failwith ("no static " ^ name)
  in
  let fill cls slot count =
    let arr = VM.State.alloc_array vm ~len:count in
    VM.State.jtoc_set vm slot (VM.Value.of_ref arr);
    for i = 0 to count - 1 do
      let o = VM.State.alloc_object vm cls in
      (* a=i, b=2i, c=3i; reference fields stay null *)
      VM.Heap.set vm.VM.State.heap ~addr:o ~off:2 (VM.Value.of_int i);
      VM.Heap.set vm.VM.State.heap ~addr:o ~off:3 (VM.Value.of_int (2 * i));
      VM.Heap.set vm.VM.State.heap ~addr:o ~off:4 (VM.Value.of_int (3 * i));
      (* re-read the array address: allocation never collects here because
         the heap is sized for the experiment, but stay defensive *)
      let arr = VM.Value.to_ref (VM.State.jtoc_get vm slot) in
      VM.Heap.set vm.VM.State.heap ~addr:arr
        ~off:(VM.Heap.array_header_words + i)
        (VM.Value.of_ref o)
    done
  in
  fill change_cls (slot_of "cs") n_change;
  fill nochange_cls (slot_of "ns") n_nochange

type cell = { gc_ms : float; transform_ms : float; total_ms : float }

(* --- correctness of each cell ------------------------------------------- *)

(* Failed checks, one line each; [run] exits non-zero if any. *)
let failures = ref []

let check ~objects ~fraction what ok =
  if not ok then
    failures :=
      Printf.sprintf "%d objects, %d%% updated: %s" objects fraction what
      :: !failures

(* Does element [i] of the [Root.static_name] array hold a [cls] object
   whose int fields read [fields]? *)
let holds vm ~static_name ~cls ~fields i =
  let reg = vm.VM.State.reg in
  let heap = vm.VM.State.heap in
  let si =
    Option.get
      (VM.Rt.find_static_info reg (VM.Rt.require_class reg "Root") static_name)
  in
  let arr = VM.Value.to_ref (VM.State.jtoc_get vm si.VM.Rt.si_slot) in
  let o =
    VM.Value.to_ref
      (VM.Heap.get heap ~addr:arr ~off:(VM.Heap.array_header_words + i))
  in
  let c = VM.Rt.require_class reg cls in
  VM.Heap.class_id heap o = c.VM.Rt.cid
  && List.for_all
       (fun (f, v) ->
         match VM.Rt.find_field_info c f with
         | Some fi ->
             VM.Value.to_int (VM.Heap.get heap ~addr:o ~off:fi.VM.Rt.fi_offset)
             = v
         | None -> false)
       fields

(* After a cell's update: sampled [Change] objects hold a=i, b=2i, c=3i,
   d=0; sampled [NoChange] objects are as populated; with [~verify] the
   heap verifies. *)
let check_cell vm ~objects ~fraction ~n_change ~n_nochange ~verify =
  let sample n = List.sort_uniq compare (List.init 64 (fun k -> k * n / 64)) in
  let all_hold ~static_name ~cls ~fields n =
    List.for_all
      (fun i -> holds vm ~static_name ~cls ~fields:(fields i) i)
      (if n = 0 then [] else (n - 1) :: sample n)
  in
  check ~objects ~fraction "sampled Change objects hold a=i b=2i c=3i d=0"
    (all_hold ~static_name:"cs" ~cls:"Change"
       ~fields:(fun i -> [ ("a", i); ("b", 2 * i); ("c", 3 * i); ("d", 0) ])
       n_change);
  check ~objects ~fraction "sampled NoChange objects unchanged"
    (all_hold ~static_name:"ns" ~cls:"NoChange"
       ~fields:(fun i -> [ ("a", i); ("b", 2 * i); ("c", 3 * i) ])
       n_nochange);
  if verify then
    check ~objects ~fraction "heap verifies"
      (VM.Heapverify.run vm).VM.Heapverify.hv_ok

(* One cell: populate, update, check.  With [~lazy_update] the update
   commits lazily and its window is drained at once, so [total_ms] is the
   commit pause plus the drain (every sweep transform and the closing
   collection): the whole migration, done the lazy way. *)
let run_cell ?(lazy_update = false) ~verify ~objects ~fraction () : cell =
  let n_change = objects * fraction / 100 in
  let n_nochange = objects - n_change in
  (* ~8 words per object + holder arrays + headroom for the update's
     temporary duplicates *)
  let heap_words = max (1 lsl 16) (objects * 20) in
  let config =
    { VM.State.default_config with VM.State.heap_words; lazy_update }
  in
  let old_program = Jv_lang.Compile.compile_program v1_src in
  let new_program = Jv_lang.Compile.compile_program v2_src in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm old_program;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:2;
  populate vm ~n_change ~n_nochange;
  (* warm both semi-spaces (a throwaway collection touches every page) and
     quiesce the host-language GC so neither pollutes the measured pause *)
  ignore (VM.Vm.gc vm);
  Stdlib.Gc.compact ();
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program ~new_program ()
  in
  let zeroed_words () =
    match Obs.find_histogram (VM.Vm.obs vm) "vm.gc.zeroed_words" with
    | Some hg -> int_of_float (Metrics.sum hg)
    | None -> 0
  in
  let zeroed_before = zeroed_words () in
  let h = J.Jvolve.update_now ~max_rounds:50 vm spec in
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      let drain_ms =
        match vm.VM.State.lazy_info with
        | Some li ->
            let t0 = Support.now () in
            check ~objects ~fraction "lazy window drained"
              (Result.is_ok (li.VM.State.li_drain vm));
            (Support.now () -. t0) *. 1000.0
        | None ->
            check ~objects ~fraction "every Change object transformed"
              (t.J.Updater.u_transformed_objects = n_change);
            (* the pause pays for the transformed objects' fields, not for
               the garbage in to-space *)
            let change = VM.Rt.require_class vm.VM.State.reg "Change" in
            check ~objects ~fraction
              "the update collection zeroed only the new objects' fields"
              (zeroed_words () - zeroed_before
              = n_change * (change.VM.Rt.size_words - VM.Heap.header_words));
            0.0
      in
      check_cell vm ~objects ~fraction ~n_change ~n_nochange ~verify;
      {
        gc_ms = t.J.Updater.u_gc_ms;
        transform_ms = t.J.Updater.u_transform_ms;
        total_ms = t.J.Updater.u_total_ms +. drain_ms;
      }
  | o -> failwith ("table1 update failed: " ^ J.Jvolve.outcome_to_string o)

(* Print every failed check and exit non-zero, if any failed. *)
let exit_on_failures () =
  match List.rev !failures with
  | [] -> ()
  | fs ->
      List.iter (Printf.printf "CHECK FAILED: %s\n") fs;
      exit 1

(* object counts follow the paper; "heap size" is the label the paper gave
   each count *)
let full_rows =
  [
    (280_000, "160 MB"); (770_000, "320 MB"); (1_760_000, "640 MB");
    (3_670_000, "1280 MB");
  ]

let quick_rows = [ (30_000, "~17 MB"); (120_000, "~70 MB") ]

let fractions = [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]

(* --- con-freeness: restricted-set size and time-to-safe-point ----------- *)

(* The paper's §5.1.3 update (miniweb 5.1.2 -> 5.1.3) body-updates the
   always-on-stack run() loops: without the con-freeness analysis the
   safe point is unreachable and the attempt times out.  Run the same
   update with the analysis on and off and read every figure back from
   the VM's metrics sink — the restricted-set gauge, the safe-point
   rounds histogram, the analysis-time histogram — not from bench-local
   timers. *)
let confree_row ~confree =
  let module A = Jv_apps in
  let config =
    { A.Experience.default_config with VM.State.confree }
  in
  let d = A.Experience.web_desc in
  let vm = A.Experience.boot_version ~config d ~version:"5.1.2" in
  let loads = A.Experience.attach_loads vm d ~concurrency:4 in
  VM.Vm.run vm ~rounds:60;
  let compile v =
    Jv_lang.Compile.compile_program
      (A.Patching.source d.A.Experience.d_versioned ~version:v)
  in
  let spec =
    A.Common.spec
      ~overrides:(d.A.Experience.d_overrides ~to_version:"5.1.3")
      ~version_tag:(A.Common.version_tag "5.1.2")
      ~old_program:(compile "5.1.2") ~new_program:(compile "5.1.3") ()
  in
  let h = J.Jvolve.update_now ~timeout_rounds:150 vm spec in
  VM.Vm.run vm ~rounds:40;
  List.iter (fun w -> A.Workload.detach vm w) loads;
  let obs = VM.Vm.obs vm in
  let restricted = int_of_float (Obs.gauge_value obs "core.restricted_set.size") in
  let proven = int_of_float (Obs.gauge_value obs "core.confree.proven") in
  let analyze_ms =
    match Obs.find_histogram obs "core.confree.analyze_ms" with
    | Some hg when Metrics.count hg > 0 -> Printf.sprintf "%.2f" (Metrics.mean hg)
    | _ -> "-"
  in
  let to_safe =
    match Obs.find_histogram obs "core.safepoint.rounds" with
    | Some hg when Metrics.count hg > 0 ->
        Printf.sprintf "%.0f" (Metrics.mean hg)
    | _ -> "never"
  in
  let first_attempt =
    match h.J.Jvolve.h_outcome with
    | J.Jvolve.Applied _ when h.J.Jvolve.h_attempts = 1 -> "yes"
    | J.Jvolve.Applied _ -> Printf.sprintf "no (%d)" h.J.Jvolve.h_attempts
    | _ -> "no (timeout)"
  in
  Printf.printf "%-12s %12d %10d %12s %14s %15s   %s\n"
    (if confree then "on" else "off")
    restricted proven analyze_ms to_safe first_attempt
    (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome)

let confree_section () =
  Support.section
    "Con-freeness: restricted set and time-to-safe-point, miniweb 5.1.2 -> \
     5.1.3 (always-on-stack update)";
  Printf.printf "%-12s %12s %10s %12s %14s %15s   %s\n" "analysis"
    "restricted" "proven" "analyze_ms" "rounds_to_sp" "first_attempt"
    "outcome";
  confree_row ~confree:true;
  confree_row ~confree:false

let run () =
  Support.section
    "Table 1: Jvolve update pause time (ms) vs heap size and fraction of \
     updated objects";
  let rows = if Support.quick then quick_rows else full_rows in
  let largest = List.fold_left (fun m (o, _) -> max m o) 0 rows in
  let data =
    List.map
      (fun (objects, label) ->
        let cells =
          List.map
            (fun f ->
              (* the quick run also verifies its largest cell's heap; the
                 full run does not, keeping its memory to the VM heaps *)
              let verify = Support.quick && objects = largest && f = 100 in
              (f, run_cell ~verify ~objects ~fraction:f ()))
            fractions
        in
        (objects, label, cells))
      rows
  in
  let print_group title get =
    Printf.printf "\n%s\n" title;
    Printf.printf "%10s %9s |" "# objects" "heap";
    List.iter (fun f -> Printf.printf " %7d%%" f) fractions;
    print_newline ();
    List.iter
      (fun (objects, label, cells) ->
        Printf.printf "%10d %9s |" objects label;
        List.iter (fun (_, c) -> Printf.printf " %8.1f" (get c)) cells;
        print_newline ())
      data
  in
  print_group "Garbage collection time (ms)" (fun c -> c.gc_ms);
  print_group "Running transformation functions (ms)" (fun c ->
      c.transform_ms);
  print_group "Total DSU pause time (ms)" (fun c -> c.total_ms);
  (* Figure 6: the largest heap as three series *)
  let objects, label, cells = List.nth data (List.length data - 1) in
  Support.section
    (Printf.sprintf
       "Figure 6: pause times, %d objects (%s heap), vs fraction updated"
       objects label);
  Printf.printf "%9s %12s %12s %12s\n" "fraction" "gc_ms" "transform_ms"
    "total_ms";
  List.iter
    (fun (f, c) ->
      Printf.printf "%8d%% %12.1f %12.1f %12.1f\n" f c.gc_ms c.transform_ms
        c.total_ms)
    cells;
  (* the shape claims *)
  let c0 = List.assoc 0 cells and c100 = List.assoc 100 cells in
  Printf.printf
    "\nShape check: total(100%%)/total(0%%) = %.2fx (paper: ~4x); transformer \
     slope steeper than GC slope: %b\n"
    (c100.total_ms /. c0.total_ms)
    (c100.transform_ms -. c0.transform_ms
    > c100.gc_ms -. c0.gc_ms);
  exit_on_failures ();
  Printf.printf "Correctness: every cell's sampled objects hold%s\n"
    (if Support.quick then "; the largest cell's heap verifies" else "");
  confree_section ()
