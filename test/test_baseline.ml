(* Baseline DSU systems: the method-body-only (HotSwap/E&C) updater and the
   lazy indirection-based (JDrums/DVM-style) updater, which runs on the
   updater's lazy update window. *)

module VM = Jv_vm
module J = Jvolve_core
module B = Jv_baseline

let compile = Jv_lang.Compile.compile_program

let boot ?(config = Helpers.test_config) src =
  let classes = compile src in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm classes;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  vm

let greeter v =
  Printf.sprintf
    {|
class Greeter { String greet() { return "%s"; } }
class Main {
  static void main() {
    Greeter g = new Greeter();
    for (int i = 0; i < 30; i = i + 1) { Sys.println(g.greet()); Thread.yieldNow(); }
  }
}
|}
    v

(* --- hotswap ------------------------------------------------------------- *)

let hotswap_applies_body_changes () =
  let vm = boot (greeter "v1") in
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"1"
      ~old_program:(compile (greeter "v1"))
      ~new_program:(compile (greeter "v2"))
      ()
  in
  (match B.Hotswap.apply vm spec with
  | B.Hotswap.Applied n -> Alcotest.(check int) "one body" 1 n
  | B.Hotswap.Unsupported e -> Alcotest.failf "unsupported: %s" e);
  ignore (VM.Vm.run_to_quiescence vm);
  let out = VM.Vm.output vm in
  Alcotest.(check bool) "old ran" true (Helpers.contains out "v1\n");
  Alcotest.(check bool) "new ran" true (Helpers.contains out "v2\n")

let hotswap_rejects_class_updates () =
  let v1 = {|class A { int x; } class Main { static void main() {} }|} in
  let v2 = {|class A { int x; int y; } class Main { static void main() {} }|} in
  let vm = boot v1 in
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program:(compile v1)
      ~new_program:(compile v2) ()
  in
  match B.Hotswap.apply vm spec with
  | B.Hotswap.Unsupported e ->
      if not (Helpers.contains e "class signature changes") then
        Alcotest.failf "wrong reason: %s" e
  | B.Hotswap.Applied _ -> Alcotest.fail "must be unsupported"

let hotswap_rejects_added_classes () =
  let v1 = {|class Main { static void main() {} }|} in
  let v2 = {|class New {} class Main { static void main() {} }|} in
  let vm = boot v1 in
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program:(compile v1)
      ~new_program:(compile v2) ()
  in
  match B.Hotswap.apply vm spec with
  | B.Hotswap.Unsupported e ->
      if not (Helpers.contains e "added classes") then
        Alcotest.failf "wrong reason: %s" e
  | B.Hotswap.Applied _ -> Alcotest.fail "must be unsupported"

(* --- lazy indirection ------------------------------------------------------ *)

let lazy_src_v1 =
  {|
class Box { int a; int b; }
class Store { static Box one; static Box two; }
class Reader {
  static int readOne() { return Store.one.a * 10 + Store.one.b; }
  static int readTwo() { return Store.two.a * 10 + Store.two.b; }
}
class Main {
  static void main() {
    Store.one = new Box();
    Store.one.a = 1; Store.one.b = 2;
    Store.two = new Box();
    Store.two.a = 3; Store.two.b = 4;
    for (int i = 0; i < 200; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let lazy_src_v2 =
  {|
class Box { int a; int b; int c; }
class Store { static Box one; static Box two; }
class Reader {
  static int readOne() { return Store.one.a * 10 + Store.one.b; }
  static int readTwo() { return Store.two.a * 10 + Store.two.b; }
}
class Main {
  static void main() {
    Store.one = new Box();
    Store.one.a = 1; Store.one.b = 2;
    Store.two = new Box();
    Store.two.a = 3; Store.two.b = 4;
    for (int i = 0; i < 200; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let indirection_config =
  { Helpers.test_config with VM.State.indirection_mode = true }

let call_reader vm name =
  let cls = VM.Rt.require_class vm.VM.State.reg "Reader" in
  match
    VM.Rt.resolve_method vm.VM.State.reg cls name
      { Jv_classfile.Types.params = []; ret = Jv_classfile.Types.TInt }
  with
  | Some m -> VM.Value.to_int (VM.Interp.call_sync vm m [||])
  | None -> Alcotest.fail ("no " ^ name)

let lazy_migrates_on_touch () =
  let vm = boot ~config:indirection_config lazy_src_v1 in
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program:(compile lazy_src_v1)
      ~new_program:(compile lazy_src_v2) ()
  in
  let prepared = J.Transformers.prepare spec in
  (match B.Indirection.apply vm prepared with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lazy apply failed: %s" e);
  Alcotest.(check int) "nothing migrated yet" 0 (B.Indirection.migrated vm);
  (* touching Box one migrates it (field values preserved) but not two *)
  Alcotest.(check int) "readOne" 12 (call_reader vm "readOne");
  Alcotest.(check int) "one migrated" 1 (B.Indirection.migrated vm);
  Alcotest.(check int) "readTwo" 34 (call_reader vm "readTwo");
  Alcotest.(check int) "both migrated" 2 (B.Indirection.migrated vm);
  (* subsequent touches chase the lazy-forward marker, no re-migration *)
  Alcotest.(check int) "readOne again" 12 (call_reader vm "readOne");
  Alcotest.(check int) "still two" 2 (B.Indirection.migrated vm);
  (* the tax is real: dereference checks accumulated *)
  Alcotest.(check bool) "deref checks counted" true
    (B.Indirection.deref_checks vm > 0)

let lazy_requires_indirection_mode () =
  let vm = boot lazy_src_v1 in
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program:(compile lazy_src_v1)
      ~new_program:(compile lazy_src_v2) ()
  in
  match B.Indirection.apply vm (J.Transformers.prepare spec) with
  | Error e ->
      if not (Helpers.contains e "indirection_mode") then
        Alcotest.failf "wrong error: %s" e
  | Ok _ -> Alcotest.fail "must require indirection mode"

let lazy_survives_gc () =
  let vm = boot ~config:indirection_config lazy_src_v1 in
  VM.Vm.run vm ~rounds:5;
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program:(compile lazy_src_v1)
      ~new_program:(compile lazy_src_v2) ()
  in
  (match B.Indirection.apply vm (J.Transformers.prepare spec) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply: %s" e);
  Alcotest.(check int) "readOne" 12 (call_reader vm "readOne");
  (* a collection moves both the old object and its migrated copy; the
     original's lazy-forward marker must still lead to the copy *)
  ignore (VM.Vm.gc vm);
  Alcotest.(check int) "readOne after GC" 12 (call_reader vm "readOne");
  Alcotest.(check int) "readTwo after GC" 34 (call_reader vm "readTwo")

(* --- chained hops of one class ---------------------------------------- *)

(* [Box] gains a field in front of the others at every hop, so [a] and
   [b] move each time: a reader that sees a stale layout reads the wrong
   words. *)
let chain_src fields =
  Printf.sprintf
    {|
class Box { %s }
class Store { static Box one; static Box two; }
class Reader {
  static int readOne() { return Store.one.a * 10 + Store.one.b; }
  static int readTwo() { return Store.two.a * 10 + Store.two.b; }
}
class Main {
  static void main() {
    Store.one = new Box();
    Store.one.a = 1; Store.one.b = 2;
    Store.two = new Box();
    Store.two.a = 3; Store.two.b = 4;
    for (int i = 0; i < 200; i = i + 1) { Thread.yieldNow(); }
  }
}
|}
    (String.concat " " (List.map (Printf.sprintf "int %s;") fields))

let chained_hops_read_through () =
  let layouts = [ [ "a"; "b" ]; [ "c"; "a"; "b" ]; [ "d"; "c"; "a"; "b" ] ] in
  let vm = boot ~config:indirection_config (chain_src (List.hd layouts)) in
  VM.Vm.run vm ~rounds:5;
  let hop tag from_fields to_fields =
    let spec =
      J.Spec.make ~version_tag:tag
        ~old_program:(compile (chain_src from_fields))
        ~new_program:(compile (chain_src to_fields))
        ()
    in
    match B.Indirection.apply vm (J.Transformers.prepare spec) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "hop %s: %s" tag e
  in
  (* between the hops only Store.one is touched: Store.two is still on
     the first layout when the second hop commits *)
  hop "1" (List.nth layouts 0) (List.nth layouts 1);
  Alcotest.(check int) "readOne after hop 1" 12 (call_reader vm "readOne");
  hop "2" (List.nth layouts 1) (List.nth layouts 2);
  Alcotest.(check int) "readOne after hop 2" 12 (call_reader vm "readOne");
  Alcotest.(check int) "readTwo after hop 2" 34 (call_reader vm "readTwo");
  ignore (VM.Vm.gc vm);
  Alcotest.(check int) "readTwo after GC" 34 (call_reader vm "readTwo");
  let r = VM.Heapverify.run vm in
  if not r.VM.Heapverify.hv_ok then
    Alcotest.failf "heap after two hops: %d issue(s): %s"
      r.VM.Heapverify.hv_total_issues
      (String.concat "; "
         (List.map VM.Heapverify.issue_to_string r.VM.Heapverify.hv_issues))

(* --- a failed migration rolls the update back ------------------------- *)

let failed_migration_rolls_back () =
  let vm = Test_lazy.boot_boxes ~config:indirection_config () in
  (match B.Indirection.apply vm (J.Transformers.prepare (Test_lazy.boxes_spec ()))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply: %s" e);
  (* the reader's very next touch of a Box runs its transformer, which
     throws: the whole window must roll back to the old version *)
  let plan = Jv_faults.Faults.create ~seed:7 () in
  Jv_faults.Faults.arm plan ~point:"transformer.throw" ~max_fires:1
    Jv_faults.Faults.Raise;
  VM.Vm.set_faults vm (Some plan);
  let budget = ref 200 in
  while vm.VM.State.lazy_info <> None && !budget > 0 do
    VM.Vm.run vm ~rounds:1;
    decr budget
  done;
  VM.Vm.set_faults vm None;
  Alcotest.(check bool) "window closed" true (vm.VM.State.lazy_info = None);
  Alcotest.(check int) "rolled back once" 1
    (Jv_obs.Obs.counter_value vm.VM.State.obs "core.lazy.rollbacks");
  let printed () =
    String.split_on_char '
' (String.trim (VM.Vm.output vm))
    |> List.filter (fun l -> l <> "")
  in
  let before = List.length (printed ()) in
  VM.Vm.run vm ~rounds:20;
  let lines = printed () in
  (* no thread stayed parked behind the aborted window *)
  Alcotest.(check bool) "reader kept printing" true
    (List.length lines > before);
  List.iter
    (fun l ->
      if l <> Printf.sprintf "s=%d" (Test_lazy.hot_sum Test_lazy.n_boxes) then
        Alcotest.failf "wrong sum after rollback: %S" l)
    lines;
  let r = VM.Heapverify.run vm in
  Alcotest.(check bool) "heap verifies" true r.VM.Heapverify.hv_ok

let suite =
  [
    Alcotest.test_case "hotswap applies body changes" `Quick
      hotswap_applies_body_changes;
    Alcotest.test_case "hotswap rejects class updates" `Quick
      hotswap_rejects_class_updates;
    Alcotest.test_case "hotswap rejects added classes" `Quick
      hotswap_rejects_added_classes;
    Alcotest.test_case "lazy migrates on touch" `Quick lazy_migrates_on_touch;
    Alcotest.test_case "lazy requires indirection mode" `Quick
      lazy_requires_indirection_mode;
    Alcotest.test_case "lazy survives GC" `Quick lazy_survives_gc;
    Alcotest.test_case "lazy chained hops read through" `Quick
      chained_hops_read_through;
    Alcotest.test_case "lazy failed migration rolls back" `Quick
      failed_migration_rolls_back;
  ]
