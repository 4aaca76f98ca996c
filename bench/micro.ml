(* Bechamel micro-measurements of the hot kernels behind each table/figure:

   - table1.gc-collect           : a full semi-space collection (Table 1's
                                   GC column kernel);
   - table1.transformer-call     : one synchronous jvolve-style method
                                   invocation (Table 1's transformer column
                                   kernel);
   - fig5.request-roundtrip      : one scheduler round of the loaded web
                                   server (Figure 5's unit of work);
   - tables234.upt-diff          : one UPT diff of two real releases;
   - overhead.interp-checked     : interpreter slice with per-dereference
     / overhead.interp-unchecked   checks on/off (the §5 comparison). *)

open Bechamel
open Toolkit
module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let gc_vm () =
  let config =
    { VM.State.default_config with VM.State.heap_words = 1 lsl 21 }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program Table1.v1_src);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:2;
  Table1.populate vm ~n_change:20_000 ~n_nochange:20_000;
  vm

let loop_vm ~indirection =
  let src =
    {|
class Cell { int v; Cell next; }
class Main {
  static Cell ring;
  static void main() {
    ring = new Cell();
    ring.next = ring;
    Cell c = ring;
    int acc = 0;
    while (true) {
      acc = acc + c.v;
      c = c.next;
    }
  }
}
|}
  in
  let config =
    {
      VM.State.default_config with
      VM.State.indirection_mode = indirection;
      quantum = 20_000;
    }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program src);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  vm

let web_vm () =
  let vm =
    A.App.boot A.App.miniweb (A.App.compile A.App.miniweb ~version:"5.1.6")
  in
  ignore (A.App.attach vm A.App.miniweb ~concurrency:4);
  vm

let transformer_vm () =
  let src =
    {|
class Box { int a; int b; }
class Util {
  static void copy(Box to, Box from) {
    to.a = from.a;
    to.b = from.b;
  }
}
class Main { static void main() { } }
|}
  in
  let vm = VM.Vm.create ~config:{ VM.State.default_config with VM.State.heap_words = 1 lsl 18 } () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program src);
  let box_cls = VM.Rt.require_class vm.VM.State.reg "Box" in
  let a = VM.State.alloc_object vm box_cls in
  let b = VM.State.alloc_object vm box_cls in
  let util = VM.Rt.require_class vm.VM.State.reg "Util" in
  let m = Array.get util.VM.Rt.methods 0 in
  (vm, m, a, b)

let tests () =
  let gc_vm = gc_vm () in
  let vm_checked = loop_vm ~indirection:true in
  let vm_unchecked = loop_vm ~indirection:false in
  let web = web_vm () in
  let tvm, tm, ta, tb = transformer_vm () in
  let web_old = A.App.compile A.App.miniweb ~version:"5.1.4" in
  let web_new = A.App.compile A.App.miniweb ~version:"5.1.5" in
  [
    Test.make ~name:"table1.gc-collect"
      (Staged.stage (fun () -> ignore (VM.Gc.collect gc_vm)));
    Test.make ~name:"table1.transformer-call"
      (Staged.stage (fun () ->
           ignore
             (VM.Interp.call_sync tvm tm
                [| VM.Value.of_ref ta; VM.Value.of_ref tb |])));
    Test.make ~name:"fig5.request-roundtrip"
      (Staged.stage (fun () -> VM.Vm.run web ~rounds:1));
    Test.make ~name:"tables234.upt-diff"
      (Staged.stage (fun () ->
           ignore (J.Diff.compute ~old_program:web_old ~new_program:web_new)));
    Test.make ~name:"overhead.interp-checked"
      (Staged.stage (fun () -> VM.Vm.run vm_checked ~rounds:1));
    Test.make ~name:"overhead.interp-unchecked"
      (Staged.stage (fun () -> VM.Vm.run vm_unchecked ~rounds:1));
  ]

let run () =
  Support.section "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let tests = Test.make_grouped ~name:"jvolve" ~fmt:"%s.%s" (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if Support.quick then 0.25 else 1.0 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, o) ->
         match Analyze.OLS.estimates o with
         | Some [ est ] -> Printf.printf "%-36s %14.1f ns/run\n" name est
         | _ -> Printf.printf "%-36s %14s\n" name "n/a")
