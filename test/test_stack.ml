(* Threads' word stacks: frames are windows over one stack per thread,
   an interpreted call's arguments become the callee's first locals
   where they lie, and natives read their arguments on that stack.
   These tests pin what the collector, OSR, the lazy read barrier and
   the scheduler see of it. *)

module VM = Jv_vm
module J = Jvolve_core

let compile = Jv_lang.Compile.compile_program

(* Run the scheduler until [p] holds, at most [max] rounds. *)
let run_until ?(max = 2_000) vm p =
  let n = ref 0 in
  while (not (p ())) && !n < max do
    VM.Vm.run vm ~rounds:1;
    incr n
  done;
  if not (p ()) then Alcotest.fail "condition never held"

(* --- recursion ------------------------------------------------------------- *)

(* Unbounded recursion traps its own thread with a typed message; the
   echo server beside it keeps serving. *)
let deep_recursion_traps_alone () =
  let src =
    {|
class Deep {
  int down(int n) { return this.down(n + 1) + 1; }
  void run() { Sys.println("unreachable " + this.down(0)); }
}
class Handler {
  int conn;
  Handler(int c) { conn = c; }
  void run() {
    while (true) {
      String line = Net.recvLine(conn);
      if (line == null) { Net.close(conn); return; }
      Net.send(conn, "200 " + line);
    }
  }
}
class Main {
  static void main() {
    int l = Net.listen(9000);
    Thread.spawn(new Deep());
    while (true) {
      int c = Net.accept(l);
      Thread.spawn(new Handler(c));
    }
  }
}
|}
  in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (compile src);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  let w =
    Jv_apps.Workload.attach vm ~port:9000 ~script:[ "a"; "b" ] ~concurrency:2
      ~max_sessions:6 ()
  in
  VM.Vm.run vm ~rounds:200;
  (match (VM.Vm.stats vm).VM.Vm.traps with
  | [ (_, m) ] -> Alcotest.(check string) "typed trap" "stack overflow" m
  | traps -> Alcotest.failf "expected one trap, got %d" (List.length traps));
  Alcotest.(check int) "requests served" 12
    w.Jv_apps.Workload.load.Jv_simnet.Client.completed_requests;
  Alcotest.(check int) "no errors" 0
    w.Jv_apps.Workload.load.Jv_simnet.Client.errors

(* --- the collector --------------------------------------------------------- *)

(* A collection inside a callee keeps the caller's window alive (a Box
   only in its locals, a Box only on its operand stack) and the
   callee's arguments, which are its first locals. *)
let collection_in_callee_keeps_windows () =
  let src =
    {|
class Box { int v; Box(int x) { v = x; } }
class Main {
  static int churn(Box a, Box b) {
    int i = 0;
    while (i < 4000) { Box t = new Box(i); i = i + 1; }
    return a.v + b.v;
  }
  static int add(Box k, int r) { return k.v + r; }
  static void main() {
    Box keep = new Box(400);
    int r = add(new Box(40), churn(new Box(1), new Box(2)));
    Sys.println("" + (keep.v + r));
  }
}
|}
  in
  let config = { Helpers.test_config with VM.State.heap_words = 1 lsl 13 } in
  let vm = Helpers.run_source ~config src in
  Alcotest.(check bool) "collections ran" true
    ((VM.Vm.stats vm).VM.Vm.gc_count > 0);
  Alcotest.(check string) "every window survived" "443\n" (VM.Vm.output vm)

(* A native that blocks keeps its String argument on the thread's stack,
   where a collection finds and moves it; the retry reads the moved
   string. *)
let blocked_native_string_survives_collection () =
  let wait =
    match
      Jv_classfile.Assembler.parse_program
        {|
class Wait extends Object {
  method public static native echo (LString;)LString; locals=1
}
|}
    with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one class"
  in
  let main =
    Jv_lang.Compile.compile ~extra:[ wait ]
      {|
class Main {
  static void main() {
    int i = 7;
    Sys.println(Wait.echo("arg" + i));
  }
}
|}
  in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  (* the first call blocks for two rounds; the retry answers *)
  Hashtbl.replace vm.VM.State.natives "Wait.echo(LString;)LString;"
    (fun vm t args at ->
      let s = VM.State.string_of_obj vm (VM.Value.to_ref args.(at)) in
      if t.VM.State.pending = None then
        VM.State.N_block (VM.State.B_sleep (vm.VM.State.ticks + 2))
      else
        VM.State.N_val
          (VM.Value.of_ref (VM.State.alloc_string vm ("echo " ^ s))));
  VM.Vm.boot vm (wait :: main);
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  run_until vm (fun () -> t.VM.State.pending <> None);
  let fr = VM.State.top_frame t in
  let arg () = t.VM.State.stack.(fr.VM.State.sp - 1) in
  let before = arg () in
  ignore (VM.Vm.gc vm);
  ignore (VM.Vm.gc vm);
  Alcotest.(check bool) "the argument moved" true (arg () <> before);
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "retry read the string" "echo arg7\n"
    (VM.Vm.output vm)

(* A retried native that starts a collection before it reads its
   argument: the argument is still the top frame's top operand while it
   runs, so the collection moves it once and nothing below it.  [get]
   has no parameters and no locals, so its window holds only the
   argument; in [bottom] it is the bottom frame, in [caller] a frame
   above [main]'s reference locals. *)
let retried_native_collects main_src expected () =
  let wait =
    match
      Jv_classfile.Assembler.parse_program
        {|
class Wait extends Object {
  method public static native echo (LString;)LString; locals=1
}
|}
    with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one class"
  in
  let main = Jv_lang.Compile.compile ~extra:[ wait ] main_src in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  let collections = ref 0 in
  Hashtbl.replace vm.VM.State.natives "Wait.echo(LString;)LString;"
    (fun vm t args at ->
      if t.VM.State.pending = None then
        VM.State.N_block (VM.State.B_sleep (vm.VM.State.ticks + 2))
      else begin
        ignore (VM.Vm.gc vm);
        incr collections;
        let s = VM.State.string_of_obj vm (VM.Value.to_ref args.(at)) in
        VM.State.N_val
          (VM.Value.of_ref (VM.State.alloc_string vm ("echo " ^ s)))
      end);
  VM.Vm.boot vm (wait :: main);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check int) "one collection in the retry" 1 !collections;
  Alcotest.(check string) "output" expected (VM.Vm.output vm);
  Alcotest.(check int) "no traps" 0 (List.length (VM.Vm.stats vm).VM.Vm.traps);
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) "heap verifies" true r.VM.Heapverify.hv_ok

let retried_native_collects_bottom =
  retried_native_collects
    {|
class Reg { static String s; }
class Main {
  static void main() {
    Reg.s = "arg" + 7;
    Sys.println(Wait.echo(Reg.s));
  }
}
|}
    "echo arg7\n"

let retried_native_collects_caller =
  retried_native_collects
    {|
class Reg { static String s; }
class Main {
  static String get() { return Wait.echo(Reg.s); }
  static void main() {
    String keep = "keep" + 1;
    Reg.s = "arg" + 7;
    String got = get();
    Sys.println(got + " " + keep);
  }
}
|}
    "echo arg7 keep1\n"

(* A synchronous call that blocks is abandoned: its carrier keeps no
   frame and no held native arguments, so a collection while the
   carrier is still registered scans nothing of it, and the carrier
   takes the next call. *)
let blocked_sync_call_holds_nothing () =
  let vm =
    Helpers.run_source
      {|
class Main {
  static void nap(String s) { Thread.sleep(5); }
  static int seven() { return 7; }
  static void main() { }
}
|}
  in
  let cls = VM.Rt.require_class vm.VM.State.reg "Main" in
  let meth name params ret =
    match
      VM.Rt.resolve_method vm.VM.State.reg cls name
        { Jv_classfile.Types.params; ret }
    with
    | Some m -> m
    | None -> Alcotest.failf "no %s" name
  in
  let carrier = VM.Interp.make_carrier vm in
  let s = VM.Value.of_ref (VM.State.alloc_string vm "held") in
  (match
     VM.Interp.call_on vm carrier
       (meth "nap" [ Jv_classfile.Types.TRef "String" ] Jv_classfile.Types.TVoid)
       [| s |]
   with
  | _ -> Alcotest.fail "expected the call to block"
  | exception VM.Interp.Sync_trap _ -> ());
  Alcotest.(check bool) "no pending native" true
    (carrier.VM.State.pending = None);
  ignore (VM.Vm.gc vm);
  Alcotest.(check int) "the carrier takes the next call" 7
    (VM.Value.to_int
       (VM.Interp.call_on vm carrier
          (meth "seven" [] Jv_classfile.Types.TInt)
          [||]))

(* --- OSR ------------------------------------------------------------------- *)

(* [inner] is too long to inline, so an opt-compiled [work] parks at
   its call, below [inner]'s frame. *)
let osr_src =
  {|
class Data { int x; }
class Reg { static Data d; }
class Main {
  static int inner(Data d, int k) {
    int i = 0;
    int s = 0;
    while (i < 2) {
      Thread.yieldNow();
      s = s + i * 2 + k;
      i = i + 1;
    }
    return d.x + 1 + s - s;
  }
  static void work(Data dd) {
    Data mine = dd;
    mine.x = Main.inner(mine, 7);
  }
  static void main() {
    Reg.d = new Data();
    int n = 0;
    while (n < 40) { work(Reg.d); n = n + 1; }
    Sys.println("x=" + Reg.d.x);
  }
}
|}

let method_name vm (fr : VM.State.frame) =
  (VM.Rt.method_by_uid vm.VM.State.reg fr.VM.State.f_method).VM.Rt.m_name

(* Boot [osr_src] and run until [work] parks opt-compiled below
   [inner]: the main thread and its [work] frame. *)
let park_opt_work ~opt_osr =
  let config =
    { Helpers.test_config with VM.State.opt_threshold = 3; opt_osr }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (compile osr_src);
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  let parked () =
    match Helpers.frame_list t with
    | top :: below :: _ ->
        method_name vm top = "inner"
        && method_name vm below = "work"
        && below.VM.State.code.VM.Machine.level = VM.Machine.Opt
    | _ -> false
  in
  run_until vm parked;
  (vm, t, List.nth (Helpers.frame_list t) 1)

let window (t : VM.State.vthread) (fr : VM.State.frame) =
  Array.sub t.VM.State.stack fr.VM.State.base
    (fr.VM.State.sp - fr.VM.State.base)

let osr_below_top_keeps_window () =
  let vm, t, fr = park_opt_work ~opt_osr:true in
  Alcotest.(check bool) "eligible" true (VM.Osr.eligible vm fr);
  let base = fr.VM.State.base and obase = fr.VM.State.obase in
  let sp = fr.VM.State.sp and words = window t fr in
  let top = VM.State.top_frame t in
  let top_words = window t top in
  VM.Osr.replace_frame vm fr;
  Alcotest.(check string) "now base code" "base"
    (VM.Machine.level_to_string fr.VM.State.code.VM.Machine.level);
  Alcotest.(check (list int)) "same window" [ base; obase; sp ]
    [ fr.VM.State.base; fr.VM.State.obase; fr.VM.State.sp ];
  Alcotest.(check (array int)) "same words" words (window t fr);
  Alcotest.(check (array int)) "top frame untouched" top_words
    (window t top);
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "program result" "x=40\n" (VM.Vm.output vm);
  Alcotest.(check int) "no traps" 0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

(* An update whose OSR phase fails after replacing one frame rolls that
   frame back to its code and pc: here a second, opt-compiled frame
   (not replaceable without [opt_osr]) fails it. *)
let osr_abort_restores_frames () =
  let vm, t, fr = park_opt_work ~opt_osr:false in
  let main_fr = List.nth (Helpers.frame_list t) 2 in
  Alcotest.(check string) "main frame" "main" (method_name vm main_fr);
  let code = main_fr.VM.State.code and pc = main_fr.VM.State.pc in
  let words = window t main_fr in
  let v2 =
    Jv_apps.Patching.patch osr_src
      [ ("class Data { int x; }", "class Data { int pad; int x; }") ]
  in
  let spec =
    J.Spec.make ~version_tag:"osr" ~old_program:(compile osr_src)
      ~new_program:(compile v2) ()
  in
  let prepared = J.Transformers.prepare spec in
  let restricted = J.Safepoint.compute vm spec in
  (match
     J.Updater.apply vm prepared ~restricted ~osr_frames:[ main_fr; fr ]
   with
  | Error a ->
      Alcotest.(check string) "abort phase" "osr"
        (J.Updater.phase_to_string a.J.Updater.a_phase)
  | Ok _ -> Alcotest.fail "expected the OSR phase to fail");
  Alcotest.(check bool) "code restored" true (main_fr.VM.State.code == code);
  Alcotest.(check int) "pc restored" pc main_fr.VM.State.pc;
  Alcotest.(check (array int)) "window untouched" words (window t main_fr);
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "old code ran on" "x=40\n" (VM.Vm.output vm)

(* --- the lazy read barrier ------------------------------------------------- *)

(* The barrier rewrites the slot it is given, at an absolute index into
   the thread's stack: here a local in the middle of the top frame's
   window, two frames up. *)
let lazy_barrier_mid_window () =
  let v1 =
    {|
class Box { int v; Box(int x) { v = x; } }
class Reg { static Box b; }
class Main {
  static int read(int pad, Box b, int pad2) {
    Thread.yieldNow();
    return b.v + pad + pad2;
  }
  static int mid(int a, Box b) { return read(a, b, 3); }
  static void main() {
    Reg.b = new Box(39);
    while (true) { Sys.println("v=" + mid(0, Reg.b)); Thread.yieldNow(); }
  }
}
|}
  in
  let v2 =
    Jv_apps.Patching.patch v1
      [ ("class Box { int v;", "class Box { int w; int v;") ]
  in
  let config =
    {
      Helpers.test_config with
      VM.State.lazy_update = true;
      lazy_sweep_budget = 0 (* only the barrier transforms *);
    }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (compile v1);
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  let in_read () =
    match Helpers.frame_list t with
    | top :: _ -> method_name vm top = "read" && t.VM.State.pending <> None
    | [] -> false
  in
  run_until vm in_read;
  let spec =
    J.Spec.make ~version_tag:"mid" ~old_program:(compile v1)
      ~new_program:(compile v2) ()
  in
  (match (J.Jvolve.update_now vm spec).J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o -> Alcotest.failf "update: %s" (J.Jvolve.outcome_to_string o));
  run_until vm in_read;
  let li =
    match vm.VM.State.lazy_info with
    | Some li -> li
    | None -> Alcotest.fail "no lazy window"
  in
  let top = VM.State.top_frame t in
  let idx = top.VM.State.base + 1 in
  Alcotest.(check bool) "mid-stack" true (idx > 0 && idx < top.VM.State.sp);
  let heap = vm.VM.State.heap in
  let epoch_of w = VM.Heap.get heap ~addr:(VM.Value.to_ref w) ~off:VM.Heap.off_gc in
  let stack = t.VM.State.stack in
  let before = Array.copy stack in
  Alcotest.(check bool) "slot pending" true
    (epoch_of stack.(idx) <> li.VM.State.li_epoch);
  li.VM.State.li_barrier vm stack idx;
  Alcotest.(check bool) "slot rewritten" true (stack.(idx) <> before.(idx));
  Alcotest.(check int) "slot holds a current-epoch object"
    li.VM.State.li_epoch (epoch_of stack.(idx));
  Array.iteri
    (fun i w ->
      if i <> idx then
        Alcotest.(check int) (Printf.sprintf "slot %d untouched" i) before.(i) w)
    (Array.sub stack 0 (Array.length before));
  VM.Vm.run vm ~rounds:20;
  let lines = String.split_on_char '\n' (VM.Vm.output vm) in
  Alcotest.(check bool) "serves 42 after the update" true
    (List.mem "v=42" lines);
  Alcotest.(check bool) "only 42" true
    (List.for_all (fun l -> l = "" || l = "v=42") lines);
  Alcotest.(check int) "no traps" 0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

let suite =
  [
    Alcotest.test_case "deep recursion traps its own thread" `Quick
      deep_recursion_traps_alone;
    Alcotest.test_case "a collection in a callee keeps every window" `Quick
      collection_in_callee_keeps_windows;
    Alcotest.test_case "a blocked native's String argument survives a GC"
      `Quick blocked_native_string_survives_collection;
    Alcotest.test_case "a retried native collects in the bottom frame" `Quick
      retried_native_collects_bottom;
    Alcotest.test_case "a retried native collects above a caller" `Quick
      retried_native_collects_caller;
    Alcotest.test_case "a blocked synchronous call holds nothing" `Quick
      blocked_sync_call_holds_nothing;
    Alcotest.test_case "opt-OSR below the top keeps its window" `Quick
      osr_below_top_keeps_window;
    Alcotest.test_case "an OSR abort restores code and pc" `Quick
      osr_abort_restores_frames;
    Alcotest.test_case "lazy barrier on a mid-window stack slot" `Quick
      lazy_barrier_mid_window;
  ]
