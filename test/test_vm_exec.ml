(* Execution-engine tests: JIT resolution, inlining, adaptive
   recompilation, dispatch, OSR mechanics, and interpreter edge cases. *)

module VM = Jv_vm
module CF = Jv_classfile

(* --- adaptive compilation ----------------------------------------------------- *)

let adaptive_recompilation () =
  (* a hot method must cross the opt threshold and be recompiled *)
  let config =
    { Helpers.test_config with VM.State.opt_threshold = 10 }
  in
  let vm =
    Helpers.run_source ~config
      {|
class Math {
  static int sq(int x) { return x * x; }
}
class Main {
  static void main() {
    int acc = 0;
    for (int i = 0; i < 100; i = i + 1) { acc = acc + Math.sq(i); }
    Sys.println("acc=" + acc);
  }
}
|}
  in
  let stats = VM.Vm.stats vm in
  Alcotest.(check bool) "opt compiled something" true
    (stats.VM.Vm.opt_compile_count > 0);
  if not (Helpers.contains (VM.Vm.output vm) "acc=328350") then
    Alcotest.fail "wrong result"

let opt_code_inlines () =
  let config = { Helpers.test_config with VM.State.opt_threshold = 5 } in
  let vm =
    Helpers.run_source ~config
      {|
class Math {
  static int sq(int x) { return x * x; }
  static int poly(int x) { return sq(x) + sq(x + 1); }
}
class Main {
  static void main() {
    int acc = 0;
    for (int i = 0; i < 50; i = i + 1) { acc = acc + Math.poly(i); }
    Sys.println("acc=" + acc);
  }
}
|}
  in
  (* poly's opt code must record sq as inlined *)
  let poly =
    let cls = VM.Rt.require_class vm.VM.State.reg "Math" in
    match VM.Rt.resolve_method vm.VM.State.reg cls "poly"
            { CF.Types.params = [ CF.Types.TInt ]; ret = CF.Types.TInt }
    with
    | Some m -> m
    | None -> Alcotest.fail "no poly"
  in
  match poly.VM.Rt.opt_code with
  | None -> Alcotest.fail "poly was not opt-compiled"
  | Some c ->
      Alcotest.(check int) "one distinct inlinee" 1
        (List.length c.VM.Machine.inlined);
      (* base code is strictly 1:1; opt code is longer (spliced bodies) *)
      let base = Option.get poly.VM.Rt.base_code in
      Alcotest.(check bool) "opt longer than base" true
        (Array.length c.VM.Machine.code > Array.length base.VM.Machine.code)

(* inlined and non-inlined execution agree on random inputs *)
let inlining_equivalence_qcheck =
  QCheck.Test.make ~name:"opt (inlined) code computes like base code"
    ~count:20
    QCheck.(int_range (-50) 50)
    (fun n ->
      let src k thresh =
        Printf.sprintf
          {|
class F {
  static int h(int x) { return x * 3 - 1; }
  static int g(int x) { if (x < 0) { return h(-x); } return h(x) + 7; }
}
class Main {
  static void main() {
    int acc = 0;
    for (int i = 0; i < %d; i = i + 1) { acc = acc + F.g(%d + i); }
    Sys.println("r=" + acc);
  }
}
|}
          thresh k
      in
      (* run once with inlining effectively off (huge threshold) and once
         with aggressive opt *)
      let out1 =
        Helpers.output_of
          ~config:{ Helpers.test_config with VM.State.opt_threshold = 1_000_000 }
          (src n 40)
      in
      let out2 =
        Helpers.output_of
          ~config:{ Helpers.test_config with VM.State.opt_threshold = 2 }
          (src n 40)
      in
      String.equal out1 out2)

(* --- dispatch ------------------------------------------------------------------ *)

let override_dispatch_through_tib () =
  (* calls must dispatch on the dynamic type, through the TIB slot *)
  Helpers.check_output ~expected:"B.m A.n B.m\n"
    {|
class A {
  String m() { return "A.m"; }
  String n() { return "A.n"; }
  String call() { return m(); }
}
class B extends A {
  String m() { return "B.m"; }
}
class Main {
  static void main() {
    A a = new B();
    Sys.println(a.m() + " " + a.n() + " " + a.call());
  }
}
|}

let private_methods_direct () =
  (* private methods do not enter the TIB: same-name privates in a
     subclass are unrelated *)
  Helpers.check_output ~expected:"A.p B.p\n"
    {|
class A {
  private String p() { return "A.p"; }
  String viaA() { return p(); }
}
class B extends A {
  private String p() { return "B.p"; }
  String viaB() { return p(); }
}
class Main {
  static void main() {
    B b = new B();
    Sys.println(b.viaA() + " " + b.viaB());
  }
}
|}

let inherited_fields_share_offsets () =
  Helpers.check_output ~expected:"7 7\n"
    {|
class A { int x; }
class B extends A { int y; }
class Main {
  static void main() {
    B b = new B();
    b.x = 7;
    A a = b;
    Sys.println(a.x + " " + b.x);
  }
}
|}

(* --- traps ------------------------------------------------------------------------ *)

let stack_overflow_traps () =
  let vm =
    Helpers.run_source
      {|
class Main {
  static int inf(int n) { return inf(n + 1); }
  static void main() { Sys.println("" + inf(0)); }
}
|}
  in
  match (VM.Vm.stats vm).VM.Vm.traps with
  | [ (_, msg) ] ->
      if not (Helpers.contains msg "stack overflow") then
        Alcotest.failf "unexpected trap %s" msg
  | l -> Alcotest.failf "expected one trap, got %d" (List.length l)

let checkcast_trap () =
  let vm =
    Helpers.run_source
      {|
class A {}
class B extends A {}
class Main {
  static void main() {
    A a = new A();
    B b = (B) a;
    Sys.println("unreachable");
  }
}
|}
  in
  match (VM.Vm.stats vm).VM.Vm.traps with
  | [ (_, msg) ] ->
      if not (Helpers.contains msg "class cast") then
        Alcotest.failf "unexpected trap %s" msg
  | _ -> Alcotest.fail "expected a class-cast trap"

let null_cast_ok () =
  Helpers.check_output ~expected:"null ok\n"
    {|
class A {}
class B extends A {}
class Main {
  static void main() {
    A a = null;
    B b = (B) a;
    if (b == null) { Sys.println("null ok"); }
  }
}
|}

(* --- OSR mechanics -------------------------------------------------------------- *)

let osr_mid_loop () =
  (* manually OSR a parked frame and check it resumes correctly *)
  let src =
    {|
class Main {
  static void main() {
    int acc = 0;
    for (int i = 0; i < 50; i = i + 1) {
      acc = acc + i;
      Thread.yieldNow();
    }
    Sys.println("acc=" + acc);
  }
}
|}
  in
  let classes = Jv_lang.Compile.compile_program src in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm classes;
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  VM.Vm.run vm ~rounds:10;
  (match Helpers.frame_list t with
  | [ fr ] ->
      let pc_before = fr.VM.State.pc in
      VM.Osr.replace_frame vm fr;
      (* base code is 1:1, so the pc is preserved exactly *)
      Alcotest.(check int) "pc preserved" pc_before fr.VM.State.pc
  | _ -> Alcotest.fail "expected main parked with one frame");
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "result intact" "acc=1225\n" (VM.Vm.output vm);
  Alcotest.(check int) "one OSR recorded" 1 (VM.Vm.stats vm).VM.Vm.osr_count

let osr_rejects_opt_frames () =
  let src =
    {|
class F { static int id(int x) { return x; } }
class Main {
  static void main() {
    int acc = 0;
    for (int i = 0; i < 1000; i = i + 1) {
      acc = acc + F.id(i);
      Thread.yieldNow();
    }
    Sys.println("acc=" + acc);
  }
}
|}
  in
  let classes = Jv_lang.Compile.compile_program src in
  let vm =
    VM.Vm.create
      ~config:{ Helpers.test_config with VM.State.opt_threshold = 5 }
      ()
  in
  VM.Vm.boot vm classes;
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  VM.Vm.run vm ~rounds:10;
  match Helpers.frame_list t with
  | [ fr ] ->
      (* hand the frame opt-compiled code, then try to OSR it *)
      let m = VM.Rt.method_by_uid vm.VM.State.reg fr.VM.State.f_method in
      let opt = VM.Jit.compile vm m VM.Machine.Opt in
      let fake =
        { fr with VM.State.code = opt }
      in
      Alcotest.check_raises "opt frames rejected"
        (VM.Osr.Osr_failed "cannot OSR an opt-compiled frame") (fun () ->
          VM.Osr.replace_frame vm fake)
  | _ -> Alcotest.fail "expected one frame"

(* --- misc -------------------------------------------------------------------------- *)

let max_stack_is_sufficient_qcheck =
  QCheck.Test.make ~name:"computed max stack fits deep expressions" ~count:10
    (QCheck.int_range 2 30)
    (fun depth ->
      (* right-leaning arithmetic: 1 + (2 + (3 + ...)) *)
      let rec expr i =
        if i >= depth then string_of_int i
        else Printf.sprintf "%d + (%s)" i (expr (i + 1))
      in
      let src =
        Printf.sprintf
          {| class Main { static void main() { Sys.println("" + (%s)); } } |}
          (expr 1)
      in
      let vm = Helpers.run_source src in
      (VM.Vm.stats vm).VM.Vm.traps = [])

let deterministic_execution () =
  (* the VM is deterministic: same program, same output, twice *)
  let src =
    {|
class W {
  int id;
  W(int i) { id = i; }
  void run() {
    for (int i = 0; i < 5; i = i + 1) {
      Sys.println("w" + id + ":" + (i * Sys.random(100)));
      Thread.yieldNow();
    }
  }
}
class Main {
  static void main() {
    Thread.spawn(new W(1));
    Thread.spawn(new W(2));
  }
}
|}
  in
  Alcotest.(check string) "deterministic" (Helpers.output_of src)
    (Helpers.output_of src)

let instr_disassembly () =
  (* smoke: machine instructions print *)
  let classes =
    Jv_lang.Compile.compile_program
      {| class Main { static void main() { Sys.println("x"); } } |}
  in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm classes;
  let cls = VM.Rt.require_class vm.VM.State.reg "Main" in
  let m = cls.VM.Rt.methods.(0) in
  let code = VM.Jit.ensure_base vm m in
  Array.iter
    (fun i -> Alcotest.(check bool) "printable" true
        (String.length (VM.Machine.to_string i) > 0))
    code.VM.Machine.code

let suite =
  [
    Alcotest.test_case "adaptive recompilation" `Quick adaptive_recompilation;
    Alcotest.test_case "opt code inlines" `Quick opt_code_inlines;
    QCheck_alcotest.to_alcotest inlining_equivalence_qcheck;
    Alcotest.test_case "override dispatch (TIB)" `Quick
      override_dispatch_through_tib;
    Alcotest.test_case "private methods direct" `Quick private_methods_direct;
    Alcotest.test_case "inherited field offsets" `Quick
      inherited_fields_share_offsets;
    Alcotest.test_case "stack overflow trap" `Quick stack_overflow_traps;
    Alcotest.test_case "checkcast trap" `Quick checkcast_trap;
    Alcotest.test_case "null cast ok" `Quick null_cast_ok;
    Alcotest.test_case "OSR mid loop" `Quick osr_mid_loop;
    Alcotest.test_case "OSR rejects opt frames" `Quick osr_rejects_opt_frames;
    QCheck_alcotest.to_alcotest max_stack_is_sufficient_qcheck;
    Alcotest.test_case "deterministic execution" `Quick
      deterministic_execution;
    Alcotest.test_case "instruction printing" `Quick instr_disassembly;
  ]
