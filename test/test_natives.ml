(* Coverage of the builtin native methods (String, Sys, Net, Thread)
   through MiniJava programs. *)

let out = Helpers.output_of

let t name f = Alcotest.test_case name `Quick f

let string_basics () =
  Helpers.check_output ~expected:"11 HeWorld llo wor 4 -1\n"
    {|
class Main {
  static void main() {
    String s = "hello world";
    Sys.println("" + s.length() + " " + "He".concat("World") + " "
      + s.substring(2, 9) + " " + s.indexOf("o w") + " " + s.indexOf("zzz"));
  }
}
|}

let string_predicates () =
  Helpers.check_output ~expected:"t f t f t f\n"
    {|
class Main {
  static String b(boolean v) { if (v) { return "t"; } return "f"; }
  static void main() {
    String s = "hello world";
    Sys.println(b(s.startsWith("hell")) + " " + b(s.startsWith("world")) + " "
      + b(s.endsWith("rld")) + " " + b(s.endsWith("hello")) + " "
      + b(s.contains("lo w")) + " " + b(s.contains("low")));
  }
}
|}

let string_transformations () =
  Helpers.check_output ~expected:"[abc] HELLO->hello 104 42 0 -17\n"
    {|
class Main {
  static void main() {
    Sys.println("[" + "  abc  ".trim() + "] "
      + "HELLO->" + "HELLO".toLowerCase() + " "
      + "hello".charAt(0) + " "
      + "42".toInt() + " " + "junk".toInt() + " " + " -17 ".toInt());
  }
}
|}

let string_split_variants () =
  Helpers.check_output ~expected:"3:a/b/c 2:a/b,c 1:abc 2:/a\n"
    {|
class Main {
  static String render(String[] p) {
    String out = "" + p.length + ":";
    for (int i = 0; i < p.length; i = i + 1) {
      if (i > 0) { out = out + "/"; }
      out = out + p[i];
    }
    return out;
  }
  static void main() {
    Sys.println(render("a,b,c".split(",", 0)) + " "
      + render("a,b,c".split(",", 2)) + " "
      + render("abc".split(",", 0)) + " "
      + render(",a".split(",", 0)));
  }
}
|}

let string_equals_and_null () =
  Helpers.check_output ~expected:"t f f\n"
    {|
class Main {
  static String b(boolean v) { if (v) { return "t"; } return "f"; }
  static void main() {
    String x = "ab".concat("c");
    String nothing = null;
    Sys.println(b(x.equals("abc")) + " " + b(x.equals("abd")) + " "
      + b(x.equals(nothing)));
  }
}
|}

let string_ofint () =
  Helpers.check_output ~expected:"0 -5 123456789\n"
    {|
class Main {
  static void main() {
    Sys.println(String.ofInt(0) + " " + String.ofInt(-5) + " "
      + String.ofInt(123456789));
  }
}
|}

let substring_bounds_trap () =
  let vm =
    Helpers.run_source
      {|class Main { static void main() { Sys.println("ab".substring(1, 5)); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "substring") then Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected a substring trap"

let charat_bounds_trap () =
  let vm =
    Helpers.run_source
      {|class Main { static void main() { Sys.println("" + "ab".charAt(7)); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "charAt") then Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected a charAt trap"

let sys_time_and_random () =
  let o =
    out
      {|
class Main {
  static void main() {
    int t0 = Sys.time();
    Thread.sleep(5);
    int t1 = Sys.time();
    String later = "no";
    if (t1 > t0) { later = "yes"; }
    int r = Sys.random(10);
    String inRange = "no";
    if (r >= 0 && r < 10) { inRange = "yes"; }
    Sys.println(later + " " + inRange + " " + Sys.random(0));
  }
}
|}
  in
  Alcotest.(check string) "time advances, random in range" "yes yes 0\n" o

let sys_fail_traps () =
  let vm =
    Helpers.run_source
      {|class Main { static void main() { Sys.fail("deliberate"); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "deliberate") then Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected Sys.fail trap"

let spawn_requires_run () =
  let vm =
    Helpers.run_source
      {|class NoRun {} class Main { static void main() { Thread.spawn(new NoRun()); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "has no run()") then
        Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected spawn trap"

let spawn_null_traps () =
  let vm =
    Helpers.run_source
      {|class Main { static void main() { Thread.spawn(null); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "spawn") then Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected spawn(null) trap"

let net_end_to_end () =
  (* a MiniJava client and server talking over simnet inside one VM *)
  Helpers.check_output ~expected:"client got: echo:ping\nserver done\n"
    ~rounds:3000
    {|
class Server {
  void run() {
    int l = Net.listen(7777);
    int c = Net.accept(l);
    String line = Net.recvLine(c);
    Net.send(c, "echo:" + line);
    String next = Net.recvLine(c);
    if (next == null) { Net.close(c); Sys.println("server done"); }
  }
}
class Main {
  static void main() {
    Thread.spawn(new Server());
    Thread.sleep(2);
    int conn = Net.connectLoopback(7777);
    Net.send(conn, "ping");
    String resp = Net.recvLine(conn);
    Sys.println("client got: " + resp);
    Net.close(conn);
  }
}
|}

let double_listen_traps () =
  let vm =
    Helpers.run_source
      {|class Main { static void main() { int a = Net.listen(80); int b = Net.listen(80); } }|}
  in
  match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      if not (Helpers.contains m "already bound") then
        Alcotest.failf "trap: %s" m
  | _ -> Alcotest.fail "expected double-bind trap"

(* Every native method the builtin classes declare is linked to its
   registered implementation when the VM boots: calls dispatch through
   that link by method uid, never by key. *)
let builtin_natives_link_at_boot () =
  let vm = Jv_vm.Vm.create ~config:Helpers.test_config () in
  Jv_vm.Vm.boot vm [];
  let reg = vm.Jv_vm.State.reg in
  let linked = ref 0 in
  List.iter
    (fun (c : Jv_classfile.Cls.t) ->
      let rc = Jv_vm.Rt.require_class reg c.Jv_classfile.Cls.c_name in
      Array.iter
        (fun (m : Jv_vm.Rt.rt_method) ->
          match m.Jv_vm.Rt.native_key with
          | None -> ()
          | Some key -> (
              match
                ( Jv_vm.State.native_fn vm m.Jv_vm.Rt.uid,
                  Hashtbl.find_opt vm.Jv_vm.State.natives key )
              with
              | Some f, Some g when f == g -> incr linked
              | Some _, Some _ -> Alcotest.failf "%s linked to another function" key
              | None, _ -> Alcotest.failf "%s not linked at boot" key
              | Some _, None -> Alcotest.failf "%s linked but not registered" key))
        rc.Jv_vm.Rt.methods)
    Jv_classfile.Builtins.all;
  let declared =
    List.fold_left
      (fun n (c : Jv_classfile.Cls.t) ->
        n
        + List.length
            (List.filter
               (fun (md : Jv_classfile.Cls.meth) ->
                 md.Jv_classfile.Cls.md_access.Jv_classfile.Access.is_native)
               c.Jv_classfile.Cls.c_methods))
      0 Jv_classfile.Builtins.all
  in
  Alcotest.(check bool) "builtins declare natives" true (declared > 0);
  Alcotest.(check int) "every declared native is linked" declared !linked

(* A user class may declare a native method nothing implements: calling
   it traps that thread with a typed message, and the VM keeps running
   its other threads. *)
let unlinked_native_traps_caller_only () =
  let ghost =
    match
      Jv_classfile.Assembler.parse_program
        {|
class Ghost extends Object {
  method public static native boo ()I locals=0
}
|}
    with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one class"
  in
  let main =
    Jv_lang.Compile.compile ~extra:[ ghost ]
      {|
class Worker {
  void run() {
    for (int i = 0; i < 3; i = i + 1) {
      Sys.println("tick " + i);
      Thread.yieldNow();
    }
  }
}
class Main {
  static void main() {
    Thread.spawn(new Worker());
    Thread.yieldNow();
    int x = Ghost.boo();
    Sys.println("unreachable " + x);
  }
}
|}
  in
  let vm = Jv_vm.Vm.create ~config:Helpers.test_config () in
  Jv_vm.Vm.boot vm (ghost :: main);
  ignore (Jv_vm.Vm.spawn_main vm ~main_class:"Main");
  ignore (Jv_vm.Vm.run_to_quiescence vm);
  (match (Jv_vm.Vm.stats vm).Jv_vm.Vm.traps with
  | [ (_, m) ] ->
      Alcotest.(check string) "typed trap" "unlinked native method Ghost.boo()I"
        m
  | traps -> Alcotest.failf "expected one trap, got %d" (List.length traps));
  Alcotest.(check string) "the other thread ran to completion"
    "tick 0\ntick 1\ntick 2\n" (Jv_vm.Vm.output vm)

let suite =
  [
    t "string basics" string_basics;
    t "string predicates" string_predicates;
    t "string transformations" string_transformations;
    t "string split variants" string_split_variants;
    t "string equals and null" string_equals_and_null;
    t "String.ofInt" string_ofint;
    t "substring bounds trap" substring_bounds_trap;
    t "charAt bounds trap" charat_bounds_trap;
    t "Sys.time and Sys.random" sys_time_and_random;
    t "Sys.fail traps" sys_fail_traps;
    t "spawn requires run()" spawn_requires_run;
    t "spawn null traps" spawn_null_traps;
    t "net end to end (in-VM client)" net_end_to_end;
    t "double listen traps" double_listen_traps;
    t "builtin natives link at boot" builtin_natives_link_at_boot;
    t "unlinked native traps its caller only" unlinked_native_traps_caller_only;
  ]
