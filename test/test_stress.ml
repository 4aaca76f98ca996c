(* Stress scenarios: many threads, allocation churn, updates under
   pressure, and repeated collections — integrity over endurance. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps

let many_threads () =
  (* 30 workers hammering a shared queue through yields; the scheduler
     must be fair enough for all to finish, and the final tally exact *)
  let vm =
    Helpers.run_source ~rounds:4000
      {|
class Tally {
  static int sum = 0;
  static int done0 = 0;
}
class Worker {
  int id;
  Worker(int i) { id = i; }
  void run() {
    for (int i = 0; i < 40; i = i + 1) {
      Tally.sum = Tally.sum + 1;
      Thread.yieldNow();
    }
    Tally.done0 = Tally.done0 + 1;
    if (Tally.done0 == 30) { Sys.println("sum=" + Tally.sum); }
  }
}
class Main {
  static void main() {
    for (int i = 0; i < 30; i = i + 1) { Thread.spawn(new Worker(i)); }
  }
}
|}
  in
  Alcotest.(check string) "exact tally" "sum=1200\n" (VM.Vm.output vm);
  Alcotest.(check int) "no traps" 0 (List.length (VM.Vm.stats vm).VM.Vm.traps)

let allocation_churn_many_gcs () =
  (* a linked-list builder that repeatedly drops its list: dozens of
     collections, values intact at the end *)
  let config =
    { Helpers.test_config with VM.State.heap_words = 1 lsl 12 }
  in
  let vm =
    Helpers.run_source ~config ~rounds:20_000
      {|
class Node { int v; Node next; }
class Main {
  static int build(int n) {
    Node head = null;
    for (int i = 0; i < n; i = i + 1) {
      Node x = new Node();
      x.v = i;
      x.next = head;
      head = x;
    }
    int sum = 0;
    while (head != null) { sum = sum + head.v; head = head.next; }
    return sum;
  }
  static void main() {
    int total = 0;
    for (int round = 0; round < 200; round = round + 1) {
      total = total + build(100);
    }
    Sys.println("total=" + total);
  }
}
|}
  in
  Alcotest.(check string) "sums intact across GCs" "total=990000\n"
    (VM.Vm.output vm);
  Alcotest.(check bool) "many collections" true
    ((VM.Vm.stats vm).VM.Vm.gc_count > 5)

let update_under_churn () =
  (* the update's transforming GC races with heavy allocation from other
     threads; every Cell must carry its value across the layout change *)
  let v1 =
    {|
class Cell { int v; }
class Store {
  static Cell[] cells;
  static void init(int n) {
    cells = new Cell[n];
    for (int i = 0; i < n; i = i + 1) {
      Cell c = new Cell();
      c.v = i * 3;
      cells[i] = c;
    }
  }
  static int checksum() {
    int s = 0;
    for (int i = 0; i < cells.length; i = i + 1) { s = s + cells[i].v; }
    return s;
  }
}
class Churner {
  void run() {
    while (true) {
      int[] garbage = new int[64];
      garbage[0] = 1;
      Thread.yieldNow();
    }
  }
}
class Main {
  static void main() {
    Store.init(200);
    Thread.spawn(new Churner());
    Thread.spawn(new Churner());
    while (true) {
      Sys.println("sum=" + Store.checksum());
      Thread.sleep(4);
    }
  }
}
|}
  in
  let v2 =
    A.Patching.patch v1
      [ ( "class Cell { int v; }", "class Cell { int pad; int v; int gen; }" ) ]
  in
  let config =
    { Helpers.test_config with VM.State.heap_words = 1 lsl 14 }
  in
  let old_program = Jv_lang.Compile.compile_program v1 in
  let new_program = Jv_lang.Compile.compile_program v2 in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm old_program;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:30;
  let spec = J.Spec.make ~version_tag:"1" ~old_program ~new_program () in
  let h = J.Jvolve.update_now ~timeout_rounds:200 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Alcotest.(check int) "200 cells transformed" 200
        t.J.Updater.u_transformed_objects
  | o -> Alcotest.failf "update: %s" (J.Jvolve.outcome_to_string o));
  VM.Vm.run vm ~rounds:60;
  (* checksum = sum 3i for i<200 = 59700, printed before AND after *)
  let lines =
    String.split_on_char '\n' (VM.Vm.output vm)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "several samples" true (List.length lines > 5);
  List.iter
    (fun l ->
      if l <> "sum=59700" then Alcotest.failf "corrupt checksum line %S" l)
    lines

let web_long_haul () =
  (* miniweb serving thousands of requests with a small heap: sustained
     collections under live connections *)
  let config =
    {
      A.App.default_config with
      VM.State.heap_words = 1 lsl 15;
    }
  in
  let vm =
    A.App.boot ~config A.App.miniweb
      (A.App.compile A.App.miniweb ~version:"5.1.10")
  in
  let w = List.hd (A.App.attach vm A.App.miniweb ~concurrency:6) in
  VM.Vm.run vm ~rounds:2500;
  Alcotest.(check bool) "thousands served" true
    (w.A.Workload.load.completed_requests > 2000);
  Alcotest.(check int) "zero errors" 0 w.A.Workload.load.errors;
  Alcotest.(check bool) "GC exercised" true ((VM.Vm.stats vm).VM.Vm.gc_count > 3);
  Alcotest.(check int) "zero traps" 0 (List.length (VM.Vm.stats vm).VM.Vm.traps)

let repeated_collections_idempotent () =
  let vm =
    Helpers.run_source ~rounds:50
      {|
class Pair { int a; Pair other; }
class K { static Pair p; }
class Main {
  static void main() {
    K.p = new Pair();
    K.p.a = 11;
    Pair q = new Pair();
    q.a = 22;
    K.p.other = q;
    q.other = K.p;
    for (int i = 0; i < 30; i = i + 1) { Thread.yieldNow(); }
    Sys.println("" + K.p.a + " " + K.p.other.a + " " + K.p.other.other.a);
  }
}
|}
  in
  (* hammer the collector directly: a cyclic structure must survive any
     number of collections *)
  for _ = 1 to 25 do
    ignore (VM.Vm.gc vm)
  done;
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "cycle intact" "11 22 11\n" (VM.Vm.output vm)

let suite =
  [
    Alcotest.test_case "30 threads exact tally" `Quick many_threads;
    Alcotest.test_case "allocation churn, many GCs" `Quick
      allocation_churn_many_gcs;
    Alcotest.test_case "update under churn" `Quick update_under_churn;
    Alcotest.test_case "miniweb long haul, small heap" `Slow web_long_haul;
    Alcotest.test_case "repeated collections idempotent" `Quick
      repeated_collections_idempotent;
  ]
