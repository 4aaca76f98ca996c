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

(* --- String natives called directly ----------------------------------- *)

module VM = Jv_vm

type arg = S of string | Null | I of int

(* A booted VM with no user classes: the String class is installed. *)
let string_vm () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm [];
  vm

(* Call the native [key] on fresh String objects for [args]: everything
   is allocated in one reservation, so no collection moves an argument
   before the call. *)
let call vm key args =
  VM.State.ensure_free vm (List.length args * (VM.Heap.header_words + 1));
  let words =
    List.map
      (function
        | S s -> VM.Value.of_ref (VM.State.alloc_string vm s)
        | Null -> VM.Value.null
        | I i -> VM.Value.of_int i)
      args
  in
  let t = VM.State.new_thread vm in
  (Hashtbl.find vm.VM.State.natives key) vm t (Array.of_list words) 0

let value = function
  | VM.State.N_val w -> w
  | _ -> Alcotest.fail "native did not return a value"

let sid_of vm w = VM.State.sid_of_obj vm (VM.Value.to_ref w)

let string_array vm w =
  let heap = vm.VM.State.heap and arr = VM.Value.to_ref w in
  List.init (VM.Heap.array_length heap arr) (fun i ->
      VM.State.string_of_obj vm
        (VM.Value.to_ref
           (VM.Heap.get heap ~addr:arr ~off:(VM.Heap.array_header_words + i))))

let k_concat = "String.concat(LString;)LString;"
let k_equals = "String.equals(LString;)Z"

(* The concat memo's slot count for a table of [n] strings. *)
let memo_slots n =
  let rec go s = if s >= 2 * n then s else go (2 * s) in
  go 64

type memo_op =
  | Concat of int * int
  (* concat (i, j), then a pair that shares its memo slot, then (i, j)
     again *)
  | Collide of int * int
  | Equals of int * int

let pp_memo_op = function
  | Concat (i, j) -> Printf.sprintf "concat %d %d" i j
  | Collide (i, j) -> Printf.sprintf "collide %d %d" i j
  | Equals (i, j) -> Printf.sprintf "equals %d %d" i j

let memo_op_gen =
  QCheck.Gen.(
    let ix = int_range 0 1000 in
    frequency
      [
        (4, map2 (fun i j -> Concat (i, j)) ix ix);
        (2, map2 (fun i j -> Collide (i, j)) ix ix);
        (2, map2 (fun i j -> Equals (i, j)) ix ix);
      ])

(* Concatenation through the memo returns [a ^ b] and the sid that
   interning [a ^ b] gives, through table growth (the memo is replaced)
   and through pairs that share a memo slot; [equals] agrees with
   [String.equal]. *)
let prop_concat_memo =
  QCheck.Test.make ~name:"concat memo and equals agree with the strings"
    ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_memo_op ops))
        Gen.(list_size (int_range 40 150) memo_op_gen))
    (fun ops ->
      let vm = string_vm () in
      (* operands: short strings, so the table grows by new contents *)
      let pool = ref [| ""; "a"; "b"; "ab"; "ba" |] in
      let nth i = !pool.(i mod Array.length !pool) in
      let sid s = VM.State.intern_string vm s in
      let concat a b =
        let r = sid_of vm (value (call vm k_concat [ S a; S b ])) in
        let want = a ^ b in
        if not (String.equal (VM.State.string_of_sid vm r) want) then
          QCheck.Test.fail_reportf "%S ^ %S gave %S" a b
            (VM.State.string_of_sid vm r);
        if r <> sid want then
          QCheck.Test.fail_reportf "%S ^ %S gave sid %d, interning says %d" a
            b r (sid want);
        if String.length want <= 16 && not (Array.mem want !pool) then
          pool := Array.append !pool [| want |]
      in
      (* an operand [b'] <> [b] whose pair with [a] lands in the slot of
         ([a], [b]) in the current memo *)
      let partner a b =
        let memo = vm.VM.State.concat_memo in
        let slot = VM.State.concat_slot memo (sid a) (sid b) in
        Array.find_opt
          (fun b' ->
            (not (String.equal b' b))
            && VM.State.concat_slot memo (sid a) (sid b') = slot)
          !pool
      in
      List.iter
        (fun op ->
          (match op with
          | Concat (i, j) -> concat (nth i) (nth j)
          | Collide (i, j) -> (
              let a = nth i and b = nth j in
              concat a b;
              match partner a b with
              | Some b' ->
                  concat a b';
                  concat a b
              | None -> ())
          | Equals (i, j) ->
              let a = nth i and b = nth j in
              let got = call vm k_equals [ S a; S b ] in
              if VM.Value.to_bool (value got) <> String.equal a b then
                QCheck.Test.fail_reportf "%S equals %S disagrees" a b;
              if VM.Value.to_bool (value (call vm k_equals [ S a; Null ])) then
                QCheck.Test.fail_reportf "%S equals null" a);
          let n = vm.VM.State.n_strings in
          if Array.length vm.VM.State.concat_memo <> 3 * memo_slots n then
            QCheck.Test.fail_reportf "memo of %d words for %d strings"
              (Array.length vm.VM.State.concat_memo)
              n)
        ops;
      true)

(* The property above exercises what it claims: one fixed run grows the
   memo past its first size and re-probes a slot another pair took. *)
let concat_memo_grows_and_collides () =
  let vm = string_vm () in
  let sid = VM.State.intern_string vm in
  let concat a b =
    VM.State.string_of_sid vm (sid_of vm (value (call vm k_concat [ S a; S b ])))
  in
  let words = List.init 40 (Printf.sprintf "w%d") in
  List.iter (fun w -> ignore (concat w "!")) words;
  Alcotest.(check bool)
    "the memo grew with the table" true
    (Array.length vm.VM.State.concat_memo > 3 * 64);
  let memo = vm.VM.State.concat_memo in
  let slot a = VM.State.concat_slot memo (sid a) (sid "!") in
  let a, a' =
    match
      List.find_map
        (fun a ->
          List.find_opt (fun a' -> a' <> a && slot a' = slot a) words
          |> Option.map (fun a' -> (a, a')))
        words
    with
    | Some p -> p
    | None -> Alcotest.fail "no two pairs share a slot"
  in
  Alcotest.(check string) "first pair" (a ^ "!") (concat a "!");
  Alcotest.(check string) "pair evicting it" (a' ^ "!") (concat a' "!");
  Alcotest.(check string) "first pair again" (a ^ "!") (concat a "!")

(* The scanning natives as they were first written: a [String.sub] at
   every position tested, compared with [=].  The in-place versions must
   agree with them on every input. *)
module Sub_reference = struct
  let index_of s p =
    let n = String.length s and m = String.length p in
    let rec go i =
      if i + m > n then -1 else if String.sub s i m = p then i else go (i + 1)
    in
    go 0

  let contains s p =
    let n = String.length s and m = String.length p in
    let rec go i = if i + m > n then false else String.sub s i m = p || go (i + 1) in
    go 0

  let starts_with s p =
    String.length p <= String.length s && String.sub s 0 (String.length p) = p

  let ends_with s p =
    let n = String.length s and m = String.length p in
    m <= n && String.sub s (n - m) m = p

  let split s sep limit =
    if String.length sep = 0 then [ s ]
    else begin
      let out = ref [] and start = ref 0 and count = ref 1 in
      let n = String.length s and m = String.length sep in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ && !i + m <= n do
        if (limit <= 0 || !count < limit) && String.sub s !i m = sep then begin
          out := String.sub s !start (!i - !start) :: !out;
          incr count;
          start := !i + m;
          i := !i + m
        end
        else incr i;
        if limit > 0 && !count >= limit then continue_ := false
      done;
      List.rev (String.sub s !start (n - !start) :: !out)
    end
end

let k_index_of = "String.indexOf(LString;)I"
let k_contains = "String.contains(LString;)Z"
let k_starts_with = "String.startsWith(LString;)Z"
let k_ends_with = "String.endsWith(LString;)Z"
let k_split = "String.split(LString;I)[LString;"

(* Every scanning native on ([s], [p], [limit]) against its reference;
   [None] when they agree, else what differed. *)
let scan_mismatch vm s p limit =
  let b key = VM.Value.to_bool (value (call vm key [ S s; S p ])) in
  let checks =
    [
      ( "indexOf",
        VM.Value.to_int (value (call vm k_index_of [ S s; S p ]))
        = Sub_reference.index_of s p );
      ("contains", b k_contains = Sub_reference.contains s p);
      ("startsWith", b k_starts_with = Sub_reference.starts_with s p);
      ("endsWith", b k_ends_with = Sub_reference.ends_with s p);
      ( "split",
        string_array vm (value (call vm k_split [ S s; S p; I limit ]))
        = Sub_reference.split s p limit );
    ]
  in
  List.find_map
    (fun (what, ok) ->
      if ok then None else Some (Printf.sprintf "%s %S %S %d" what s p limit))
    checks

let scan_edge_cases () =
  let vm = string_vm () in
  List.iter
    (fun (s, p, limit) ->
      match scan_mismatch vm s p limit with
      | Some m -> Alcotest.failf "disagrees with String.sub: %s" m
      | None -> ())
    [
      (* empty pattern, empty string *)
      ("abc", "", 0);
      ("", "", 0);
      ("", "a", 0);
      (* a pattern longer than the string *)
      ("ab", "abc", 0);
      (* adjacent separators, at both ends, under every limit kind *)
      ("a,,b", ",", 0);
      (",,", ",", 0);
      (",a,", ",", -1);
      ("a,b,c", ",", 1);
      ("a,b,c", ",", 2);
      ("a,,b,,c", ",,", 2);
      ("aaa", "aa", 0);
      ("abab", "ab", 0);
    ];
  (* a null receiver or argument traps with the native's name *)
  List.iter
    (fun (key, what, extra) ->
      List.iter
        (fun args ->
          match call vm key (args @ extra) with
          | exception VM.Interp.Trap m ->
              Alcotest.(check string) key ("null string in " ^ what) m
          | _ -> Alcotest.failf "%s on a null string did not trap" key)
        [ [ Null; S "ab" ]; [ S "ab"; Null ] ])
    [
      (k_index_of, "indexOf", []);
      (k_contains, "contains", []);
      (k_starts_with, "startsWith", []);
      (k_ends_with, "endsWith", []);
      (k_split, "split", [ I 0 ]);
      (k_concat, "concat", []);
    ]

let prop_scan_matches_sub =
  let str n = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ',' ]) (int_range 0 n)) in
  QCheck.Test.make ~name:"scanning natives agree with String.sub" ~count:500
    QCheck.(
      make
        ~print:(fun (s, p, l) -> Printf.sprintf "%S %S %d" s p l)
        Gen.(triple (str 10) (str 3) (int_range (-2) 4)))
    (fun (s, p, limit) ->
      let vm = string_vm () in
      match scan_mismatch vm s p limit with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s" m)

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
    QCheck_alcotest.to_alcotest prop_concat_memo;
    t "concat memo grows and collides" concat_memo_grows_and_collides;
    t "scanning natives: edge cases against String.sub" scan_edge_cases;
    QCheck_alcotest.to_alcotest prop_scan_matches_sub;
  ]
