(* The lazy update window (lib/core/updater, lazy section): epoch-tagged
   heap, read-barrier transformation, background sweeper, and the
   whole-window rollback when a residual transformer traps.

   The fixture is a deliberately tiny program: one changed class ([Box])
   with a known instance count, one *unchanged* reader method that
   touches every instance per iteration, so barrier-once and
   chase-vs-retransform behaviour are exactly countable — and so a
   window rollback always finds the running thread parked in an
   unrestricted frame. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module Faults = Jv_faults.Faults
module Obs = Jv_obs.Obs
module Simnet = Jv_simnet.Simnet

let n_boxes = 50

(* the reader only touches the first [hot] boxes: the rest are cold,
   reachable only by the background sweeper *)
let hot_sum hot = hot * (hot - 1) / 2

let boxes_src ~hot ~extra =
  Printf.sprintf
    {|
class Box { int a; %s}
class Keeper { static Box[] all; }
class Reader {
  static int sum() {
    int s = 0;
    for (int i = 0; i < %d; i = i + 1) { s = s + Keeper.all[i].a; }
    return s;
  }
}
class Main {
  static void main() {
    Keeper.all = new Box[%d];
    for (int i = 0; i < %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      Keeper.all[i] = b;
    }
    for (int j = 0; j < 100000; j = j + 1) {
      Sys.println("s=" + Reader.sum());
      Thread.yieldNow();
    }
  }
}
|}
    (if extra then "int b; " else "")
    hot n_boxes n_boxes

let lazy_config ?(budget = 64) () =
  {
    Helpers.test_config with
    VM.State.lazy_update = true;
    VM.State.lazy_sweep_budget = budget;
  }

let boot_boxes ?(hot = n_boxes) ~config () =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm
    (Jv_lang.Compile.compile_program (boxes_src ~hot ~extra:false));
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  vm

let boxes_spec ?(hot = n_boxes) () =
  J.Spec.make ~version_tag:"lz"
    ~old_program:
      (Jv_lang.Compile.compile_program (boxes_src ~hot ~extra:false))
    ~new_program:(Jv_lang.Compile.compile_program (boxes_src ~hot ~extra:true))
    ()

let apply_lazy ?hot vm =
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm (boxes_spec ?hot ()) in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "lazy update did not apply: %s"
        (J.Jvolve.outcome_to_string o));
  h

let lazy_info vm =
  match vm.VM.State.lazy_info with
  | Some li -> li
  | None -> Alcotest.fail "lazy window closed earlier than the test expects"

(* Count heap words whose gc slot still carries lazy machinery: forward
   markers or pristine-copy tags.  Zero residue is the post-drain (and
   post-rollback) steady state. *)
let residue_count vm =
  let heap = vm.VM.State.heap in
  let reg = vm.VM.State.reg in
  let n = ref 0 in
  let scan = ref 1 in
  while !scan < heap.VM.Heap.free do
    let addr = !scan in
    let cls = VM.Rt.class_by_id reg (VM.Heap.class_id heap addr) in
    let size =
      if cls.VM.Rt.is_array then
        VM.Heap.array_header_words + VM.Heap.array_length heap addr
      else cls.VM.Rt.size_words
    in
    let gcw = VM.Heap.get heap ~addr ~off:VM.Heap.off_gc in
    if VM.Heap.is_lazy_fwd gcw || VM.Heap.is_copy_tag gcw then incr n;
    scan := addr + size
  done;
  !n

let drain vm = Result.is_ok (VM.State.drain_window vm)

let check_clean vm label =
  Alcotest.(check int) (label ^ ": zero lazy residue") 0 (residue_count vm);
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) (label ^ ": heap verifies") true r.VM.Heapverify.hv_ok

(* --- the commit is metadata-only; the barrier transforms exactly once --- *)

let barrier_fires_once () =
  (* budget 1: the sweeper crawls, so the reader's accesses dominate and
     the window demonstrably stays open across many iterations *)
  let vm = boot_boxes ~config:(lazy_config ~budget:1 ()) () in
  let h = apply_lazy vm in
  ignore h;
  Alcotest.(check bool) "window open after commit" true
    (vm.VM.State.lazy_info <> None);
  (* several full passes of Reader.sum over all 50 boxes *)
  VM.Vm.run vm ~rounds:30;
  let li = lazy_info vm in
  Alcotest.(check bool) "barrier transformed something" true
    (li.VM.State.li_barrier_hits > 0);
  (* exactly-once: every access after the first chases a forward marker
     instead of re-transforming, so the count never exceeds the number
     of Box instances no matter how often the reader loops *)
  Alcotest.(check bool)
    (Printf.sprintf "transforms (%d) bounded by instances (%d)"
       li.VM.State.li_transformed n_boxes)
    true
    (li.VM.State.li_transformed <= n_boxes);
  let b1 = li.VM.State.li_barrier_hits in
  let t1 = li.VM.State.li_transformed in
  let s1 = li.VM.State.li_swept in
  VM.Vm.run vm ~rounds:30;
  let li = lazy_info vm in
  (* all reader-reachable boxes were transformed in the first passes:
     every later transform is the sweeper's, never a barrier re-fire *)
  Alcotest.(check int) "no barrier re-transform on re-access" b1
    li.VM.State.li_barrier_hits;
  Alcotest.(check int) "later transforms all come from the sweeper"
    (li.VM.State.li_transformed - t1)
    (li.VM.State.li_swept - s1);
  Alcotest.(check bool) "re-accesses chase forward markers" true
    (li.VM.State.li_chases > 0);
  (* the program never observed a torn heap *)
  let out = VM.Vm.output vm in
  String.split_on_char '\n' (String.trim out)
  |> List.iter (fun l ->
         if l <> "" && l <> Printf.sprintf "s=%d" (hot_sum n_boxes) then
           Alcotest.failf "reader saw a wrong sum: %S" l);
  (* drain the remainder synchronously and check steady state *)
  Alcotest.(check bool) "drain completes" true (drain vm);
  Alcotest.(check bool) "window closed" true (vm.VM.State.lazy_info = None);
  check_clean vm "after drain"

(* --- the background sweeper alone reaches quiescence -------------------- *)

let sweeper_converges () =
  let vm = boot_boxes ~config:(lazy_config ~budget:128 ()) () in
  ignore (apply_lazy vm);
  (* no help from the drain hook: scheduler rounds only *)
  let budget = ref 3000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  Alcotest.(check bool) "sweeper drained the window" true
    (vm.VM.State.lazy_info = None);
  Alcotest.(check int) "one window drained" 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.drained");
  Alcotest.(check int) "no rollback" 0
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  (* the finalize collection already chased every marker *)
  check_clean vm "after sweeper quiescence";
  (* every Box instance went through its transformer exactly once *)
  match Obs.find_histogram vm.VM.State.obs "core.lazy.transformed" with
  | None -> Alcotest.fail "core.lazy.transformed not recorded"
  | Some hist ->
      Alcotest.(check int) "all boxes transformed exactly once" n_boxes
        (int_of_float (Jv_obs.Metrics.hist_max hist))

(* --- a residual transformer trap rolls the whole window back ------------ *)

let residual_trap_rolls_back () =
  (* half the boxes are cold: only the crawling sweeper (budget 1)
     reaches them, so arming the trap after the hot set has migrated
     guarantees the failure lands on a genuinely half-transformed heap *)
  let hot = 25 in
  let vm = boot_boxes ~hot ~config:(lazy_config ~budget:1 ()) () in
  ignore (apply_lazy ~hot vm);
  VM.Vm.run vm ~rounds:10;
  let li = lazy_info vm in
  Alcotest.(check bool) "hot set migrated, cold set pending" true
    (li.VM.State.li_transformed >= hot && li.VM.State.li_transformed < n_boxes);
  (* arm a one-shot transformer trap: the next transform — a sweeper
     visit to a cold box — fails, which must abort the whole window *)
  let plan = Faults.create ~seed:11 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let budget = ref 3000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  VM.Vm.set_faults vm None;
  Alcotest.(check bool) "window resolved" true (vm.VM.State.lazy_info = None);
  Alcotest.(check int) "rolled back, not drained" 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  Alcotest.(check int) "no drain" 0
    (Obs.counter_value vm.VM.State.obs "core.lazy.drained");
  check_clean vm "after rollback";
  (* the old version is demonstrably serving again, values intact: let
     the reader run on and require every line (including those printed
     mid-window against the half-transformed heap) to show the seeded
     sum *)
  VM.Vm.run vm ~rounds:40;
  let lines =
    String.split_on_char '\n' (String.trim (VM.Vm.output vm))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "reader kept printing" true (List.length lines > 20);
  List.iter
    (fun l ->
      if l <> Printf.sprintf "s=%d" (hot_sum hot) then
        Alcotest.failf "wrong sum after rollback: %S" l)
    lines;
  (* the metadata snapshot restored exactly: a fresh update of the same
     spec applies cleanly on top *)
  let vm_ok =
    let h = J.Jvolve.update_now ~timeout_rounds:100 vm (boxes_spec ~hot ()) in
    match h.J.Jvolve.h_outcome with
    | J.Jvolve.Applied _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "same spec re-applies after rollback" true vm_ok

(* --- the window's update log across growth, a collection and a pop ------

   The log starts small and grows pair by pair.  The reader transforms
   the hot boxes (one growth), an explicit collection then moves every
   logged address, and the sweeper's further transforms grow the log
   again on top of the forwarded entries.  A trapping transformer then
   takes its pair back off the log: the popped replacement must lose
   write permission at once, and the rollback must restore every box. *)
let log_grows_then_pops () =
  let hot = 12 in
  let vm = boot_boxes ~hot ~config:(lazy_config ~budget:1 ()) () in
  ignore (apply_lazy ~hot vm);
  VM.Vm.run vm ~rounds:2;
  let pairs () = VM.Update_log.pairs (lazy_info vm).VM.State.li_log in
  let first = pairs () in
  Alcotest.(check bool)
    (Printf.sprintf "hot set logged past the initial capacity (%d pairs)" first)
    true
    (first > 8 && first <= 16);
  ignore (VM.Gc.collect vm : VM.Gc.result);
  let budget = ref 3000 in
  while pairs () <= 16 && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  Alcotest.(check bool) "grew again after the collection" true (pairs () > 16);
  (* the fault fires while the window's sandbox is installed: a clock
     reading on the VM's event sink records it and the pair in flight *)
  let seen = ref None in
  Obs.set_clock vm.VM.State.obs (fun () ->
      (match (vm.VM.State.sandbox, vm.VM.State.lazy_info) with
      | Some sb, Some li when VM.Update_log.pairs li.VM.State.li_log > 0 ->
          let log = li.VM.State.li_log in
          let n = VM.Update_log.pairs log in
          seen := Some (sb, VM.Update_log.new_addr log (n - 1), n)
      | _ -> ());
      vm.VM.State.ticks);
  let plan = Faults.create ~seed:13 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let budget = ref 3000 in
  while !seen = None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  VM.Vm.set_faults vm None;
  (match !seen with
  | None -> Alcotest.fail "the armed transformer never ran"
  | Some (sb, popped, n) ->
      Alcotest.(check int) "the failed pair left the log" (n - 1) (pairs ());
      Alcotest.(check bool) "the popped replacement is refused" false
        (VM.State.sandbox_may_write vm sb popped));
  let budget = ref 3000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  Alcotest.(check int) "rolled back" 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  check_clean vm "after the pop and rollback";
  VM.Vm.run vm ~rounds:20;
  String.split_on_char '\n' (String.trim (VM.Vm.output vm))
  |> List.iter (fun l ->
         if l <> "" && l <> Printf.sprintf "s=%d" (hot_sum hot) then
           Alcotest.failf "wrong sum across the window: %S" l)

(* A guarded lazy window whose guard closes clean while the sweeper is
   still working: the log stays the window's until the drain, and after
   it nothing of the update survives a collection. *)
let guard_closes_before_drain () =
  let vm = boot_boxes ~hot:5 ~config:(lazy_config ~budget:1 ()) () in
  let budget = { J.Guard.default_budget with J.Guard.b_rounds = 5 } in
  let h =
    J.Jvolve.update_now ~timeout_rounds:100 ~guard:(J.Guard.config ~budget ())
      vm (boxes_spec ~hot:5 ())
  in
  Alcotest.(check bool) "update applied" true (J.Jvolve.succeeded h);
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "expected a clean close, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check bool) "window still sweeping at the close" true
    (vm.VM.State.lazy_info <> None);
  Alcotest.(check bool) "drain completes" true (drain vm);
  Alcotest.(check bool) "nothing retained" true
    (vm.VM.State.guard_retained = None);
  ignore (VM.Gc.collect vm : VM.Gc.result);
  let r =
    VM.Heapverify.run ~guard_pending:(fun _ -> false) ~collect_stale:false vm
  in
  Alcotest.(check bool) "heap verifies with no allowances" true
    r.VM.Heapverify.hv_ok;
  check_clean vm "after the drain"

(* --- guard revert over a half-transformed ministore heap ---------------- *)

let store = A.App.ministore

let store_config =
  {
    A.App.default_config with
    VM.State.lazy_update = true;
    VM.State.lazy_sweep_budget = 4;
  }

let store_spec ~from_version ~to_version =
  A.App.spec store ~from_version ~to_version
    ~old_program:(A.App.compile store ~version:from_version)
    ~new_program:(A.App.compile store ~version:to_version)

let session vm lines : string list =
  let net = vm.VM.State.net in
  match Simnet.connect net ~port:A.Ministore.port with
  | None -> Alcotest.fail "ministore: connect refused"
  | Some cid ->
      let recv_one sent =
        let resp = ref None in
        let budget = ref 500 in
        while !resp = None && !budget > 0 do
          VM.Vm.run vm ~rounds:1;
          decr budget;
          match Simnet.client_recv net ~conn_id:cid with
          | `Line l -> resp := Some l
          | `Eof -> Alcotest.failf "ministore: EOF awaiting reply to %S" sent
          | `Wait -> ()
        done;
        match !resp with
        | Some l -> l
        | None -> Alcotest.failf "ministore: no reply to %S" sent
      in
      let resps =
        List.map
          (fun line ->
            Simnet.client_send net ~conn_id:cid line;
            recv_one line)
          lines
      in
      Simnet.client_close net ~conn_id:cid;
      Simnet.reap net ~conn_id:cid;
      resps

(* A guarded lazy migration trips while the heap is still mixed-epoch:
   the revert must first force the residual transforms (so the inverse
   update sees a uniformly new-layout heap), then restore every record
   bit-for-bit. *)
let guard_revert_half_transformed () =
  let vm =
    A.App.boot ~config:store_config store (A.App.compile store ~version:"1.0")
  in
  let reads = [ "GET 1000"; "GET 1013"; "GET 5"; "SCAN 0"; "STAT"; "QUIT" ] in
  let before = session vm reads in
  let spec = store_spec ~from_version:"1.0" ~to_version:"1.1" in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm spec
  in
  Alcotest.(check bool) "migration committed" true (J.Jvolve.succeeded h);
  (* touch a couple of records so part of the heap migrates, then trip
     while the sweeper (budget 4) is still far from done *)
  ignore (session vm [ "GET 1000"; "GET 5"; "QUIT" ]);
  Alcotest.(check bool) "window still open at the trip" true
    (vm.VM.State.lazy_info <> None);
  J.Jvolve.force_trip vm h ~reason:"test: trip over mixed-epoch heap";
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted _ -> ()
  | o ->
      Alcotest.failf "expected a revert, got %s"
        (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:120;
  Alcotest.(check bool) "lazy window resolved by the revert" true
    (vm.VM.State.lazy_info = None);
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  ignore (VM.Gc.collect vm : VM.Gc.result);
  check_clean vm "after guard revert";
  let after = session vm reads in
  Alcotest.(check (list string))
    "store answers bit-for-bit as before the migration" before after

(* A guarded lazy migration that drains before its guard window closes:
   the retained log outlives the window it was built in, rides through
   the drain's collection and more traffic, and then feeds the revert. *)
let guard_trips_after_drain () =
  let vm =
    A.App.boot ~config:store_config store (A.App.compile store ~version:"1.0")
  in
  let reads = [ "GET 1000"; "GET 1013"; "GET 5"; "SCAN 0"; "STAT"; "QUIT" ] in
  let before = session vm reads in
  let spec = store_spec ~from_version:"1.0" ~to_version:"1.1" in
  let h =
    J.Jvolve.update_now ~timeout_rounds:400 ~guard:(J.Guard.config ()) vm spec
  in
  Alcotest.(check bool) "migration committed" true (J.Jvolve.succeeded h);
  Alcotest.(check bool) "drain completes" true (drain vm);
  Alcotest.(check bool) "window closed" true (vm.VM.State.lazy_info = None);
  Alcotest.(check bool) "log retained past the window" true
    (vm.VM.State.guard_retained <> None);
  ignore (session vm [ "GET 1000"; "GET 5"; "QUIT" ]);
  ignore (VM.Gc.collect vm : VM.Gc.result);
  J.Jvolve.force_trip vm h ~reason:"test: trip after the drain";
  (match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Reverted _ -> ()
  | o ->
      Alcotest.failf "expected a revert, got %s"
        (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:120;
  Alcotest.(check bool) "retained log freed" true
    (vm.VM.State.guard_retained = None);
  ignore (VM.Gc.collect vm : VM.Gc.result);
  check_clean vm "after the revert";
  let after = session vm reads in
  Alcotest.(check (list string))
    "store answers bit-for-bit as before the migration" before after

(* --- a window rollback copies back only what the default copies ------- *)

(* [Box.s] changes type (String -> Tag) and [Maker.make] stores a fresh
   box in a heap array every iteration: in the window that box is a
   new-layout [Box] holding a Tag.  Rolling the window back turns it into
   an old-layout box; [s] must not come back as a String field holding a
   Tag. *)
let retyped_src ~v2 =
  Printf.sprintf
    {|
class Tag { int t; }
class Box { int a; %s s; }
class Keeper { static Box[] all; static Box[] fresh; }
class Maker {
  static void make(int i) {
    Box b = new Box();
    b.a = i;
    b.s = %s;
    Keeper.fresh[0] = b;
  }
}
class Probe {
  static int freshA() {
    Box b = Keeper.fresh[0];
    if (b.s == null) { return b.a; }
    return -1;
  }
}
class Main {
  static void main() {
    Keeper.all = new Box[%d];
    Keeper.fresh = new Box[1];
    for (int i = 0; i < %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      Keeper.all[i] = b;
    }
    for (int j = 1; j < 100000; j = j + 1) {
      Maker.make(j);
      Thread.yieldNow();
    }
  }
}
|}
    (if v2 then "Tag" else "String")
    (if v2 then "new Tag()" else {|"x"|})
    n_boxes n_boxes

let rollback_drops_retyped_field () =
  let compile v2 = Jv_lang.Compile.compile_program (retyped_src ~v2) in
  let vm = VM.Vm.create ~config:(lazy_config ~budget:1 ()) () in
  VM.Vm.boot vm (compile false);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"rt" ~old_program:(compile false)
      ~new_program:(compile true) ()
  in
  (match (J.Jvolve.update_now ~timeout_rounds:100 vm spec).J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "lazy update did not apply: %s"
        (J.Jvolve.outcome_to_string o));
  (* a few iterations on the new version while the crawling sweeper
     leaves the old boxes pending *)
  VM.Vm.run vm ~rounds:3;
  ignore (lazy_info vm);
  let plan = Faults.create ~seed:5 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let budget = ref 3000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  VM.Vm.set_faults vm None;
  Alcotest.(check int) "rolled back" 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  let r = VM.Heapverify.run vm in
  if not r.VM.Heapverify.hv_ok then
    Alcotest.failf "heap after rollback: %s"
      (String.concat "; "
         (List.map VM.Heapverify.issue_to_string r.VM.Heapverify.hv_issues));
  (* the in-window box kept its [a] and lost its Tag *)
  let probe =
    let cls = VM.Rt.require_class vm.VM.State.reg "Probe" in
    match
      VM.Rt.resolve_method vm.VM.State.reg cls "freshA"
        { Jv_classfile.Types.params = []; ret = Jv_classfile.Types.TInt }
    with
    | Some m -> VM.Value.to_int (VM.Interp.call_sync vm m [||])
    | None -> Alcotest.fail "no Probe.freshA"
  in
  Alcotest.(check bool) "fresh box: a restored, s null" true (probe > 0)

(* --- the write guard under a lazy window ---------------------------------

   A custom [jvolveObject] runs on the interpreter with writes restricted
   to the update log's new-layout objects plus the transformer's own
   fresh allocations.  The chain is built tail first, so the sweeper
   (address order) transforms a box's successor before the box itself:
   [to.next.b] then targets an earlier pair's replacement, which neither
   the allocation watermark nor the pair in flight admits. *)

let guard_boxes = 12

let guard_src ~v2 =
  Printf.sprintf
    {|
class Holder { int h; }
class Box { int a; Box next; %s}
class Keeper { static Box head; static Holder hold; }
%s
class Main {
  static void main() {
    Keeper.hold = new Holder();
    Box prev = null;
    for (int i = 1; i <= %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      b.next = prev;
      prev = b;
    }
    Keeper.head = prev;
    for (int j = 0; j < 100000; j = j + 1) { Thread.yieldNow(); }
  }
}
|}
    (if v2 then "int b; " else "")
    (if v2 then
       {|class Probe {
  static int sumB() {
    int s = 0;
    Box p = Keeper.head;
    while (p != null) { s = s + p.b; p = p.next; }
    return s;
  }
}|}
     else "")
    guard_boxes

(* Every guard test's transformer starts by copying the old fields. *)
let copy_fields = "    to.a = from.a;\n    to.next = from.next;\n"

(* Allocations in a loop that outgrow the test heap's semispace: at
   least one collection runs inside the transformer. *)
let churn =
  {|
    int[] junk = null;
    for (int k = 0; k < 8; k = k + 1) { junk = new int[40000]; }
|}

(* Boot the chain, commit a lazy update whose Box transformer is [body],
   and return the VM with the window open. *)
let guarded_window ~tag ~body =
  let compile v2 = Jv_lang.Compile.compile_program (guard_src ~v2) in
  let vm = VM.Vm.create ~config:(lazy_config ~budget:1 ()) () in
  VM.Vm.boot vm (compile false);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make
      ~object_overrides:[ ("Box", body) ]
      ~version_tag:tag ~old_program:(compile false) ~new_program:(compile true)
      ()
  in
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "lazy update did not apply: %s"
        (J.Jvolve.outcome_to_string o));
  ignore (lazy_info vm);
  vm

let probe_sum_b vm =
  let cls = VM.Rt.require_class vm.VM.State.reg "Probe" in
  match
    VM.Rt.resolve_method vm.VM.State.reg cls "sumB"
      { Jv_classfile.Types.params = []; ret = Jv_classfile.Types.TInt }
  with
  | Some m -> VM.Value.to_int (VM.Interp.call_sync vm m [||])
  | None -> Alcotest.fail "no Probe.sumB"

(* The window drains: every guarded write was admitted. *)
let check_drained vm label ~sum_b =
  Alcotest.(check bool) (label ^ ": drained") true (drain vm);
  Alcotest.(check int) (label ^ ": no rollback") 0
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  check_clean vm label;
  Alcotest.(check int) (label ^ ": transformer writes landed") sum_b
    (probe_sum_b vm)

(* The window rolls back on the guard's refusal, typed as a sandbox
   violation, and the old version's heap verifies. *)
let check_refused vm label =
  let budget = ref 3000 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  Alcotest.(check bool) (label ^ ": window resolved") true
    (vm.VM.State.lazy_info = None);
  Alcotest.(check int) (label ^ ": rolled back") 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  Alcotest.(check int) (label ^ ": not drained") 0
    (Obs.counter_value vm.VM.State.obs "core.lazy.drained");
  let reasons =
    List.filter_map
      (fun (e : Obs.event) ->
        if
          e.Obs.ev_name = "update.rollback"
          && List.assoc_opt "mode" e.Obs.ev_fields = Some (Obs.Str "lazy")
        then
          match List.assoc_opt "reason" e.Obs.ev_fields with
          | Some (Obs.Str r) -> Some r
          | _ -> None
        else None)
      (Obs.events vm.VM.State.obs)
  in
  (match reasons with
  | [ r ] ->
      if not (Helpers.contains r "sandbox:") then
        Alcotest.failf "%s: rollback reason is not a sandbox violation: %S"
          label r
  | rs -> Alcotest.failf "%s: %d lazy rollback events" label (List.length rs));
  check_clean vm label

let sum_1_to n = n * (n + 1) / 2

let guard_admits_own_target () =
  let vm =
    guarded_window ~tag:"g1" ~body:(copy_fields ^ "    to.b = from.a * 2;")
  in
  check_drained vm "own target" ~sum_b:(2 * sum_1_to guard_boxes)

let guard_admits_earlier_replacement () =
  (* each box adds one to its own [b] and one to its successor's, which
     the sweeper transformed first: every box but the head ends at 2 *)
  let vm =
    guarded_window ~tag:"g2"
      ~body:
        (copy_fields
        ^ {|
    to.b = to.b + 1;
    if (to.next != null) { to.next.b = to.next.b + 1; }
|})
  in
  check_drained vm "earlier replacement" ~sum_b:((2 * guard_boxes) - 1)

let guard_refuses_unrelated_object () =
  let vm =
    guarded_window ~tag:"g3" ~body:(copy_fields ^ "    Keeper.hold.h = 5;")
  in
  check_refused vm "unrelated object"

let guard_admits_target_after_collection () =
  let vm =
    guarded_window ~tag:"g4"
      ~body:(copy_fields ^ churn ^ "    to.b = from.a * 2;")
  in
  let gc0 = vm.VM.State.heap.VM.Heap.gc_count in
  check_drained vm "target after a collection"
    ~sum_b:(2 * sum_1_to guard_boxes);
  Alcotest.(check bool) "a collection ran inside every transformer" true
    (vm.VM.State.heap.VM.Heap.gc_count - gc0 >= guard_boxes)

let guard_refuses_temporary_after_collection () =
  (* the documented approximation: a temporary allocated before a
     nested collection is no longer recognised as fresh after it *)
  let vm =
    guarded_window ~tag:"g5"
      ~body:
        (copy_fields ^ "    Holder t = new Holder();\n" ^ churn
       ^ "    t.h = 1;")
  in
  check_refused vm "temporary after a collection"

(* A pair [transform_slot] takes back off the log (its transformer
   failed before anything moved) must leave the guard's index too: the
   index outlives the pair only if it is trimmed with the log. *)
let guard_index_follows_log () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  let obj () = VM.State.alloc_array vm ~len:1 in
  let o1 = obj () and n1 = obj () and o2 = obj () and n2 = obj () in
  let log = VM.Update_log.create () in
  VM.Update_log.push log ~old_copy:o1 ~new_addr:n1;
  VM.Update_log.push log ~old_copy:o2 ~new_addr:n2;
  (* all four predate the sandbox: only the log can admit them *)
  let sb = VM.State.sandbox_create vm ~fuel:100 ~log in
  let may addr = VM.State.sandbox_may_write vm sb addr in
  Alcotest.(check (list bool)) "new halves admitted, old copies not"
    [ false; true; false; true ] [ may o1; may n1; may o2; may n2 ];
  VM.State.sandbox_pop sb;
  Alcotest.(check (list bool)) "the undone pair is refused"
    [ true; false ] [ may n1; may n2 ];
  VM.Update_log.push log ~old_copy:o2 ~new_addr:n2;
  Alcotest.(check bool) "re-appended, admitted again" true (may n2)

(* --- inverse ∘ update = identity on the heap -------------------------------

   An idle VM (main has returned: no mutator runs between the
   snapshots) whose heap mixes changed boxes, an unchanged holder, a
   reference array and strings.  Every rollback, eager or lazy, must
   leave a heap that a plain collection lays out word for word as it did
   before the update.  Gc words are masked: a lazy commit's epoch bump
   is not undone. *)

let identity_src ~v2 =
  Printf.sprintf
    {|
class Box { int a; Box next; String s; %s}
class Holder { Box first; Box[] some; int n; }
class Keeper { static Holder hold; static Box[] all; static String name; }
%s
class Main {
  static void main() {
    Keeper.all = new Box[%d];
    Box prev = null;
    for (int i = 0; i < %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      b.next = prev;
      if (i %% 3 == 0) { b.s = "s" + i; }
      Keeper.all[i] = b;
      prev = b;
    }
    Holder h = new Holder();
    h.first = prev;
    h.some = new Box[3];
    h.some[0] = Keeper.all[7];
    h.some[2] = Keeper.all[11];
    h.n = 42;
    Keeper.hold = h;
    Keeper.name = "idle";
  }
}
|}
    (if v2 then "int b; " else "")
    (if v2 then "class Tag { int t; }" else "")
    n_boxes n_boxes

let identity_spec () =
  let compile v2 = Jv_lang.Compile.compile_program (identity_src ~v2) in
  J.Spec.make ~version_tag:"id" ~old_program:(compile false)
    ~new_program:(compile true) ()

let boot_idle ~config =
  let vm = Helpers.run_source ~config (identity_src ~v2:false) in
  Alcotest.(check bool) "main returned" true
    (List.for_all
       (fun (t : VM.State.vthread) -> t.VM.State.depth = 0)
       vm.VM.State.threads);
  vm

(* The [update.rollback] events so far, as (mode, phase) pairs ("" for
   no phase field). *)
let rollback_events vm =
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.ev_name <> "update.rollback" then None
      else
        let str k =
          match List.assoc_opt k e.Obs.ev_fields with
          | Some (Obs.Str v) -> v
          | _ -> ""
        in
        Some (str "mode", str "phase"))
    (Obs.events vm.VM.State.obs)

(* Collect, then digest the statics and the live heap with every gc
   word zeroed. *)
let live_digest vm =
  ignore (VM.Gc.collect vm : VM.Gc.result);
  let heap = vm.VM.State.heap in
  let words = Array.sub heap.VM.Heap.space 0 heap.VM.Heap.free in
  let scan = ref 1 in
  while !scan < heap.VM.Heap.free do
    words.(!scan + VM.Heap.off_gc) <- 0;
    scan := !scan + VM.Gc.obj_size vm heap.VM.Heap.space !scan
  done;
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (words, Array.sub vm.VM.State.jtoc 0 vm.VM.State.jtoc_n)
          []))

let rollback_is_identity () =
  let one_fault point =
    let plan = Faults.create ~seed:3 () in
    Faults.arm plan ~point ~max_fires:1 Faults.Raise;
    plan
  in
  List.iter
    (fun point ->
      let vm = boot_idle ~config:Helpers.test_config in
      let before = live_digest vm in
      VM.Vm.set_faults vm (Some (one_fault point));
      let h = J.Jvolve.update_now ~timeout_rounds:100 vm (identity_spec ()) in
      VM.Vm.set_faults vm None;
      (match h.J.Jvolve.h_outcome with
      | J.Jvolve.Aborted a ->
          Alcotest.(check bool) (point ^ ": rolled back") true
            a.J.Updater.a_rolled_back
      | o ->
          Alcotest.failf "%s: expected an abort, got %s" point
            (J.Jvolve.outcome_to_string o));
      Alcotest.(check (list (pair string string)))
        (point ^ ": one eager rollback event")
        [ ("eager", String.sub point 8 (String.length point - 8)) ]
        (rollback_events vm);
      Alcotest.(check string) (point ^ ": heap digest") before
        (live_digest vm))
    [ "updater.load"; "updater.gc"; "updater.transform"; "updater.osr" ];
  (* a lazy window rolled back by a residual transformer trap *)
  let vm = boot_idle ~config:(lazy_config ~budget:1 ()) in
  let before = live_digest vm in
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm (identity_spec ()) in
  Alcotest.(check bool) "lazy: applied" true (J.Jvolve.succeeded h);
  (* the crawling sweeper migrates part of the heap first, so the
     rollback has pairs to redirect as well as pending boxes *)
  let li = lazy_info vm in
  let budget = ref 500 in
  while li.VM.State.li_transformed < n_boxes / 2 && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  Alcotest.(check bool) "lazy: window half transformed" true
    (li.VM.State.li_transformed >= n_boxes / 2
    && li.VM.State.li_transformed < n_boxes);
  VM.Vm.set_faults vm (Some (one_fault "transformer.throw"));
  Alcotest.(check bool) "lazy: drain rolls back" false (drain vm);
  VM.Vm.set_faults vm None;
  Alcotest.(check int) "lazy: rolled back" 1
    (Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  Alcotest.(check (list (pair string string)))
    "lazy: one lazy rollback event" [ ("lazy", "") ] (rollback_events vm);
  Alcotest.(check string) "lazy: heap digest" before (live_digest vm)

(* A guard trip whose drain rolls the window back onto a heap the
   verifier rejects: the rollback's verdict is untrusted, so the guard
   cycle must end as an abort without rollback, not as a clean revert
   (which would keep the instance out of the fleet's quarantine). *)
let dirty_rollback_is_not_a_revert () =
  let config =
    { (lazy_config ~budget:1 ()) with VM.State.verify_heap = true }
  in
  let vm = boot_idle ~config in
  let h =
    J.Jvolve.update_now ~timeout_rounds:100 ~guard:(J.Guard.config ()) vm
      (identity_spec ())
  in
  Alcotest.(check bool) "applied" true (J.Jvolve.succeeded h);
  ignore (lazy_info vm);
  (* Holder.first : Box now holds the holder itself *)
  let reg = vm.VM.State.reg in
  let keeper = VM.Rt.require_class reg "Keeper" in
  let hold =
    Array.to_list keeper.VM.Rt.static_fields
    |> List.find (fun (si : VM.Rt.static_info) ->
           String.equal si.VM.Rt.si_name "hold")
  in
  let holder = VM.Value.to_ref (VM.State.jtoc_get vm hold.VM.Rt.si_slot) in
  let first =
    match
      VM.Rt.find_field_info (VM.Rt.require_class reg "Holder") "first"
    with
    | Some fi -> fi.VM.Rt.fi_offset
    | None -> Alcotest.fail "no Holder.first"
  in
  VM.Heap.set vm.VM.State.heap ~addr:holder ~off:first
    (VM.Value.of_ref holder);
  let plan = Faults.create ~seed:3 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  J.Jvolve.force_trip vm h ~reason:"test: trip over a corrupted heap";
  VM.Vm.set_faults vm None;
  match J.Jvolve.run_to_guard_close vm h with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string) "guard phase" "guard"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      Alcotest.(check bool) "rollback untrusted" false
        a.J.Updater.a_rolled_back;
      Alcotest.(check bool) "reason names the post-rollback verify" true
        (Helpers.contains a.J.Updater.a_reason "post-rollback")
  | o ->
      Alcotest.failf "expected an untrusted abort, got %s"
        (J.Jvolve.outcome_to_string o)

(* --- an aborting window waits behind a return barrier -------------------- *)

(* [spin] reads [a], and v2 prepends a field, shifting [a]'s offset: the
   con-freeness analysis cannot prove [spin] and it stays restricted.  The
   main thread spends almost every round inside it, so a window that
   aborts must park behind a return barrier until [spin] returns before
   it may roll back. *)
let spinning_src ~extra =
  Printf.sprintf
    {|
class Box {
  %sint a;
  int spin() {
    int s = 0;
    for (int i = 0; i < 12; i = i + 1) { s = s + a; Thread.yieldNow(); }
    return s;
  }
}
class Keeper { static Box[] all; }
class Main {
  static void main() {
    Keeper.all = new Box[%d];
    for (int i = 0; i < %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      Keeper.all[i] = b;
    }
    for (int j = 0; j < 100000; j = j + 1) {
      Sys.println("s=" + Keeper.all[1].spin());
    }
  }
}
|}
    (if extra then "int pad; " else "")
    n_boxes n_boxes

let aborting_window_waits_behind_barrier () =
  let config = { (lazy_config ~budget:1 ()) with VM.State.confree = true } in
  let vm = VM.Vm.create ~config () in
  let old_program =
    Jv_lang.Compile.compile_program (spinning_src ~extra:false)
  in
  VM.Vm.boot vm old_program;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"spin" ~old_program
      ~new_program:(Jv_lang.Compile.compile_program (spinning_src ~extra:true))
      ()
  in
  (match (J.Jvolve.update_now ~timeout_rounds:100 vm spec).J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "lazy update did not apply: %s"
        (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:3;
  ignore (lazy_info vm);
  (* the next sweeper transform traps: the window must abort *)
  let plan = Faults.create ~seed:5 () in
  Faults.arm plan ~point:"transformer.throw" ~max_fires:1 Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let obs = vm.VM.State.obs in
  let blocked_rounds = ref 0 in
  let budget = ref 300 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    let checks = Obs.counter_value obs "core.safepoint.checks" in
    VM.Vm.run vm ~rounds:1;
    if
      vm.VM.State.lazy_info <> None
      && Obs.counter_value obs "core.safepoint.checks" > checks
    then incr blocked_rounds;
    decr budget
  done;
  VM.Vm.set_faults vm None;
  Alcotest.(check bool) "window resolved" true (vm.VM.State.lazy_info = None);
  Alcotest.(check bool) "waited at least 2 rounds behind the barrier" true
    (!blocked_rounds >= 2);
  Alcotest.(check int) "rolled back, not drained" 1
    (Obs.counter_value obs "core.lazy.rollbacks");
  Alcotest.(check int) "no unsafe frames forced through" 0
    (Obs.counter_value obs "core.lazy.rollback_unsafe_frames");
  check_clean vm "after rollback";
  (* the old code serves on: spin sums twelve reads of box 1's a = 1 *)
  VM.Vm.run vm ~rounds:60;
  Alcotest.(check bool) "old version still printing" true
    (Helpers.contains (VM.Vm.output vm) "s=12\n")

let suite =
  [
    Alcotest.test_case "rollback is the identity on the heap" `Quick
      rollback_is_identity;
    Alcotest.test_case "dirty window rollback under a guard is no revert"
      `Quick dirty_rollback_is_not_a_revert;
    Alcotest.test_case "lazy barrier transforms exactly once" `Quick
      barrier_fires_once;
    Alcotest.test_case "sweeper converges to quiescence" `Quick
      sweeper_converges;
    Alcotest.test_case "residual transformer trap rolls the window back"
      `Quick residual_trap_rolls_back;
    Alcotest.test_case "aborting window waits behind a return barrier"
      `Quick aborting_window_waits_behind_barrier;
    Alcotest.test_case "window log grows across a collection, then pops"
      `Quick log_grows_then_pops;
    Alcotest.test_case "guard closes while the window still sweeps" `Quick
      guard_closes_before_drain;
    Alcotest.test_case "guard revert over a half-transformed heap" `Quick
      guard_revert_half_transformed;
    Alcotest.test_case "guard trips after the window drained" `Quick
      guard_trips_after_drain;
    Alcotest.test_case "rollback drops a retyped field" `Quick
      rollback_drops_retyped_field;
    Alcotest.test_case "guard admits writes to the pair's own target" `Quick
      guard_admits_own_target;
    Alcotest.test_case "guard admits an earlier pair's replacement" `Quick
      guard_admits_earlier_replacement;
    Alcotest.test_case "guard refuses an unrelated object" `Quick
      guard_refuses_unrelated_object;
    Alcotest.test_case "guard admits the target after a collection" `Quick
      guard_admits_target_after_collection;
    Alcotest.test_case "guard refuses a temporary after a collection" `Quick
      guard_refuses_temporary_after_collection;
    Alcotest.test_case "guard index follows the log" `Quick
      guard_index_follows_log;
  ]
