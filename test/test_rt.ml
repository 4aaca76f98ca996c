(* Runtime class metadata tests: field layouts, TIB/vslot inheritance,
   JTOC slots, and renaming — the machinery updates rewire. *)

module VM = Jv_vm
module CF = Jv_classfile

let prog =
  {|
class A {
  int a1;
  String a2;
  static int sa;
  int getA1() { return a1; }
  void setA1(int v) { a1 = v; }
  private int secret() { return 1; }
}
class B extends A {
  int b1;
  static boolean sb;
  int getA1() { return a1 + 100; }
  int getB1() { return b1; }
}
class C extends B {
  int c1;
}
class Main { static void main() { } }
|}

let vm () =
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program prog);
  vm

let layouts () =
  let vm = vm () in
  let a = VM.Rt.require_class vm.VM.State.reg "A" in
  let b = VM.Rt.require_class vm.VM.State.reg "B" in
  let c = VM.Rt.require_class vm.VM.State.reg "C" in
  Alcotest.(check int) "A size" (2 + 2) a.VM.Rt.size_words;
  Alcotest.(check int) "B size" (2 + 3) b.VM.Rt.size_words;
  Alcotest.(check int) "C size" (2 + 4) c.VM.Rt.size_words;
  (* inherited fields keep their offsets in subclasses *)
  let off cls name =
    match VM.Rt.find_field_info cls name with
    | Some fi -> fi.VM.Rt.fi_offset
    | None -> Alcotest.failf "no field %s" name
  in
  Alcotest.(check int) "a1 in A" (off a "a1") (off c "a1");
  Alcotest.(check int) "a2 in B" (off a "a2") (off b "a2");
  Alcotest.(check bool) "b1 after a2" true (off b "b1" > off b "a2");
  Alcotest.(check bool) "c1 last" true (off c "c1" > off c "b1")

let tib_inheritance () =
  let vm = vm () in
  let a = VM.Rt.require_class vm.VM.State.reg "A" in
  let b = VM.Rt.require_class vm.VM.State.reg "B" in
  let c = VM.Rt.require_class vm.VM.State.reg "C" in
  (* private methods never enter the dispatch table *)
  Alcotest.(check (option int)) "secret not virtual" None
    (VM.Rt.find_vslot a "secret()I");
  (* overridden method shares the slot; the TIB entry differs *)
  let slot cls = Option.get (VM.Rt.find_vslot cls "getA1()I") in
  Alcotest.(check int) "same slot A/B" (slot a) (slot b);
  Alcotest.(check int) "same slot B/C" (slot b) (slot c);
  Alcotest.(check bool) "B overrides" true
    (a.VM.Rt.tib.(slot a) <> b.VM.Rt.tib.(slot b));
  (* C inherits B's implementation *)
  Alcotest.(check int) "C inherits B's getA1" b.VM.Rt.tib.(slot b)
    c.VM.Rt.tib.(slot c);
  (* B's new virtual gets a fresh slot beyond A's table *)
  let gb = Option.get (VM.Rt.find_vslot b "getB1()I") in
  Alcotest.(check bool) "new slot appended" true
    (gb >= Array.length a.VM.Rt.tib)

let statics_get_distinct_slots () =
  let vm = vm () in
  let a = VM.Rt.require_class vm.VM.State.reg "A" in
  let b = VM.Rt.require_class vm.VM.State.reg "B" in
  let sa =
    Option.get (VM.Rt.find_static_info vm.VM.State.reg a "sa")
  in
  let sb =
    Option.get (VM.Rt.find_static_info vm.VM.State.reg b "sb")
  in
  Alcotest.(check bool) "distinct JTOC slots" true
    (sa.VM.Rt.si_slot <> sb.VM.Rt.si_slot);
  (* static resolution walks the hierarchy *)
  let via_b = Option.get (VM.Rt.find_static_info vm.VM.State.reg b "sa") in
  Alcotest.(check int) "sa via B" sa.VM.Rt.si_slot via_b.VM.Rt.si_slot

let subtype_ids () =
  let vm = vm () in
  let reg = vm.VM.State.reg in
  let id n = (VM.Rt.require_class reg n).VM.Rt.cid in
  Alcotest.(check bool) "C <: A" true
    (VM.Rt.is_subclass_id reg ~sub:(id "C") ~super:(id "A"));
  Alcotest.(check bool) "A not <: C" false
    (VM.Rt.is_subclass_id reg ~sub:(id "A") ~super:(id "C"));
  Alcotest.(check bool) "A <: Object" true
    (VM.Rt.is_subclass_id reg ~sub:(id "A") ~super:(id "Object"));
  Alcotest.(check bool) "refl" true
    (VM.Rt.is_subclass_id reg ~sub:(id "B") ~super:(id "B"))

let rename_rebinds () =
  let vm = vm () in
  let reg = vm.VM.State.reg in
  let a = VM.Rt.require_class reg "A" in
  Hashtbl.remove reg.VM.Rt.by_name "A";
  a.VM.Rt.name <- "v1_A";
  Hashtbl.replace reg.VM.Rt.by_name "v1_A" a.VM.Rt.cid;
  Alcotest.(check bool) "old name gone" true (VM.Rt.find_class reg "A" = None);
  (match VM.Rt.find_class reg "v1_A" with
  | Some c -> Alcotest.(check int) "same cid" a.VM.Rt.cid c.VM.Rt.cid
  | None -> Alcotest.fail "rename lost the class");
  (* field offsets survive the rename: old-object layout stays readable *)
  match VM.Rt.find_field_info a "a1" with
  | Some fi -> Alcotest.(check int) "offset stable" 2 fi.VM.Rt.fi_offset
  | None -> Alcotest.fail "field lost"

let method_resolution_order () =
  let vm = vm () in
  let reg = vm.VM.State.reg in
  let c = VM.Rt.require_class reg "C" in
  let msig = { CF.Types.params = []; ret = CF.Types.TInt } in
  (* resolving getA1 from C finds B's override, not A's original *)
  match VM.Rt.resolve_method reg c "getA1" msig with
  | Some m ->
      let owner = VM.Rt.class_by_id reg m.VM.Rt.owner in
      Alcotest.(check string) "most-derived wins" "B" owner.VM.Rt.name
  | None -> Alcotest.fail "no getA1"

(* The static layout walks the update analyses reason with
   ([CF.Cls.instance_fields], [Confree.vslot_table]) must agree with the
   classes the VM installs: con-freeness proofs reason about burned field
   offsets and vslots through them, and are sound only while they do. *)
let static_layout_mirrors_installed () =
  List.iter
    (fun (app : Jv_apps.App.t) ->
      List.iter
        (fun version ->
          let classes = Jv_apps.App.compile app ~version in
          let vm = VM.Vm.create ~config:Helpers.test_config () in
          VM.Vm.boot vm classes;
          let p = CF.Builtins.program_with classes in
          List.iter
            (fun (c : CF.Cls.t) ->
              let where =
                Printf.sprintf "%s %s %s" app.Jv_apps.App.pr_name version
                  c.CF.Cls.c_name
              in
              let rt = VM.Rt.require_class vm.VM.State.reg c.CF.Cls.c_name in
              Alcotest.(check (list string))
                (where ^ " instance fields")
                (List.map
                   (fun (f : CF.Cls.field) -> f.CF.Cls.fd_name)
                   (CF.Cls.instance_fields p c))
                (Array.to_list
                   (Array.map (fun fi -> fi.VM.Rt.fi_name)
                      rt.VM.Rt.instance_fields));
              Alcotest.(check (list (pair string int)))
                (where ^ " vslots")
                (Jvolve_core.Confree.vslot_table p c)
                (Array.to_list rt.VM.Rt.vslots))
            classes)
        (Jv_apps.App.versions app))
    Jv_apps.App.all

let suite =
  [
    Alcotest.test_case "field layouts" `Quick layouts;
    Alcotest.test_case "TIB inheritance" `Quick tib_inheritance;
    Alcotest.test_case "static JTOC slots" `Quick statics_get_distinct_slots;
    Alcotest.test_case "runtime subtyping" `Quick subtype_ids;
    Alcotest.test_case "rename rebinds" `Quick rename_rebinds;
    Alcotest.test_case "method resolution order" `Quick
      method_resolution_order;
    Alcotest.test_case "static layout mirrors installed classes" `Quick
      static_layout_mirrors_installed;
  ]
