(* Assembler / disassembler tests, including the round-trip property over
   every class file the compiler produces for the benchmark apps. *)

module CF = Jv_classfile

let eq_field (a : CF.Cls.field) (b : CF.Cls.field) = CF.Cls.equal_field a b

let eq_meth (a : CF.Cls.meth) (b : CF.Cls.meth) =
  CF.Cls.equal_meth_header a b
  && a.CF.Cls.md_max_locals = b.CF.Cls.md_max_locals
  && CF.Cls.equal_meth_code a b

let eq_cls (a : CF.Cls.t) (b : CF.Cls.t) =
  String.equal a.CF.Cls.c_name b.CF.Cls.c_name
  && String.equal a.CF.Cls.c_super b.CF.Cls.c_super
  && List.length a.CF.Cls.c_fields = List.length b.CF.Cls.c_fields
  && List.for_all2 eq_field a.CF.Cls.c_fields b.CF.Cls.c_fields
  && List.length a.CF.Cls.c_methods = List.length b.CF.Cls.c_methods
  && List.for_all2 eq_meth a.CF.Cls.c_methods b.CF.Cls.c_methods

let handwritten =
  {|
# a counter class, written directly in assembly
class Counter extends Object {
  field public value I
  field private static total I

  method public tick ()V locals=1 {
      yield_entry
      load 0
      load 0
      getfield Counter.value I
      const_int 1
      add
      putfield Counter.value I
      return
  }

  method public static sum (I)I locals=2 {
      yield_entry
      const_int 0
      store 1
    top:
      yield_backedge
      load 0
      const_int 0
      icmp_le
      if_true done
      load 1
      load 0
      add
      store 1
      load 0
      const_int 1
      sub
      store 0
      goto top
    done:
      load 1
      return_val
  }
}
|}

let assemble_handwritten () =
  match CF.Assembler.parse_program handwritten with
  | [ c ] ->
      Alcotest.(check string) "name" "Counter" c.CF.Cls.c_name;
      Alcotest.(check int) "fields" 2 (List.length c.CF.Cls.c_fields);
      Alcotest.(check int) "methods" 2 (List.length c.CF.Cls.c_methods);
      (* the assembled class verifies *)
      (match
         CF.Verifier.verify_program
           (CF.Cls.program_of_list (CF.Builtins.all @ [ c ]))
       with
      | [] -> ()
      | errs -> Alcotest.failf "verify: %s" (String.concat "|" errs))
  | _ -> Alcotest.fail "expected one class"

let assembled_code_runs () =
  (* run the hand-assembled sum() on the VM via a compiled driver *)
  let counter =
    match CF.Assembler.parse_program handwritten with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one class"
  in
  let driver =
    Jv_lang.Compile.compile ~extra:[ counter ]
      {|class Main { static void main() { Sys.println("sum=" + Counter.sum(10)); } }|}
  in
  let vm = Jv_vm.Vm.create ~config:Helpers.test_config () in
  Jv_vm.Vm.boot vm (counter :: driver);
  ignore (Jv_vm.Vm.spawn_main vm ~main_class:"Main");
  ignore (Jv_vm.Vm.run_to_quiescence vm);
  Alcotest.(check string) "output" "sum=55\n" (Jv_vm.Vm.output vm)

let roundtrip classes =
  let printed = CF.Assembler.print_program classes in
  let back = CF.Assembler.parse_program printed in
  if List.length back <> List.length classes then
    Alcotest.failf "class count changed: %d -> %d" (List.length classes)
      (List.length back);
  List.iter2
    (fun a b ->
      if not (eq_cls a b) then
        Alcotest.failf "class %s did not round-trip:\n%s" a.CF.Cls.c_name
          printed)
    classes back

let roundtrip_handwritten () =
  roundtrip (CF.Assembler.parse_program handwritten)

let roundtrip_compiler_output () =
  (* every class file of every app version round-trips *)
  List.iter
    (fun app ->
      List.iter
        (fun version -> roundtrip (Jv_apps.App.compile app ~version))
        (Jv_apps.App.versions app))
    Jv_apps.App.all

let roundtrip_builtins () = roundtrip CF.Builtins.all

let error_reporting () =
  let cases =
    [
      ("class A {", "expected: class Name extends Super");
      ("class A extends Object {\n  field x I", "unexpected end");
      ("class A extends Object {\n  zap\n}", "unexpected zap");
      ( "class A extends Object {\n  method f ()V locals=0 {\n  blorp\n  }\n}",
        "unknown instruction blorp" );
      ( "class A extends Object {\n  method f ()V locals=0 {\n  goto nowhere\n\
        \  return\n  }\n}",
        "unknown label nowhere" );
      ("class A extends Object {\n  field x Q\n}", "bad type descriptor Q");
    ]
  in
  List.iter
    (fun (src, substr) ->
      match CF.Assembler.parse_program src with
      | _ -> Alcotest.failf "expected error mentioning %S" substr
      | exception CF.Assembler.Asm_error (m, _) ->
          if not (Helpers.contains m substr) then
            Alcotest.failf "error %S does not mention %S" m substr)
    cases

let descriptor_roundtrip_qcheck =
  let rec gen_ty depth st =
    match QCheck.Gen.int_range 0 (if depth = 0 then 2 else 3) st with
    | 0 -> CF.Types.TInt
    | 1 -> CF.Types.TBool
    | 2 ->
        CF.Types.TRef
          (List.nth [ "A"; "Foo"; "Object"; "String" ]
             (QCheck.Gen.int_range 0 3 st))
    | _ -> CF.Types.TArray (gen_ty (depth - 1) st)
  in
  QCheck.Test.make ~name:"type descriptors round trip" ~count:200
    (QCheck.make (gen_ty 3))
    (fun t ->
      CF.Types.equal_ty t (CF.Types.of_descriptor (CF.Types.descriptor t)))

let msig_roundtrip_qcheck =
  let rec gen_ty depth st =
    match QCheck.Gen.int_range 0 (if depth = 0 then 2 else 3) st with
    | 0 -> CF.Types.TInt
    | 1 -> CF.Types.TBool
    | 2 -> CF.Types.TRef "C"
    | _ -> CF.Types.TArray (gen_ty (depth - 1) st)
  in
  QCheck.Test.make ~name:"method descriptors round trip" ~count:200
    (QCheck.make
       QCheck.Gen.(
         tup2 (list_size (int_range 0 4) (gen_ty 2)) (gen_ty 2)))
    (fun (params, ret) ->
      let s = { CF.Types.params; ret } in
      CF.Types.equal_msig s
        (CF.Types.msig_of_descriptor (CF.Types.msig_descriptor s)))

let suite =
  [
    Alcotest.test_case "assemble handwritten" `Quick assemble_handwritten;
    Alcotest.test_case "assembled code runs" `Quick assembled_code_runs;
    Alcotest.test_case "roundtrip handwritten" `Quick roundtrip_handwritten;
    Alcotest.test_case "roundtrip compiler output" `Quick
      roundtrip_compiler_output;
    Alcotest.test_case "roundtrip builtins" `Quick roundtrip_builtins;
    Alcotest.test_case "error reporting" `Quick error_reporting;
    QCheck_alcotest.to_alcotest descriptor_roundtrip_qcheck;
    QCheck_alcotest.to_alcotest msig_roundtrip_qcheck;
  ]
