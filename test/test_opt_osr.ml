(* The opt-OSR extension (paper future work, §3.2/§5): on-stack
   replacement of opt-compiled category-(2) frames when they are parked
   outside inlined regions.  Off by default — the paper's Jvolve only OSRs
   base-compiled code — and enabled via [config.opt_osr]. *)

module VM = Jv_vm
module J = Jvolve_core

(* [Main.work] is made hot by 10 warm-up invocations (opt-compiled,
   inlining [Data.bump]), then invoked one final time with [n = 0], where
   it loops forever — an opt-compiled frame permanently on stack.  It
   references Data, which the update widens: a category-(2) method whose
   active frame is opt-compiled, the exact case the paper leaves to
   future work. *)
let v1 =
  {|
class Data {
  int x;
  static int bump(int v) { return v + 1; }
}
class Registry { static Data d; }
class Main {
  static void work(Data dd, int n) {
    if (n == 0) {
      while (true) {
        dd.x = Data.bump(dd.x);
        Sys.println("x=" + dd.x);
        Thread.yieldNow();
      }
    }
    dd.x = Data.bump(dd.x);
  }
  static void main() {
    Registry.d = new Data();
    Data dd = Registry.d;
    for (int i = 0; i < 10; i = i + 1) { work(dd, 1); }
    work(dd, 0);
  }
}
|}

(* pad0/pad1 shift x's offset: stale offsets in work()'s compiled code *)
let v2 =
  Jv_apps.Patching.patch v1
    [
      ( {|class Data {
  int x;|},
        {|class Data {
  int pad0;
  int pad1;
  int x;|} );
    ]

let run_case ~opt_osr =
  let config =
    {
      Helpers.test_config with
      VM.State.opt_threshold = 3 (* work() opt-compiles almost immediately *);
      opt_osr;
    }
  in
  let old_program = Jv_lang.Compile.compile_program v1 in
  let new_program = Jv_lang.Compile.compile_program v2 in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm old_program;
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  VM.Vm.run vm ~rounds:40;
  (* sanity: the parked work() frame must be opt-compiled by now *)
  (match Helpers.frame_list t with
  | fr :: _ ->
      let m = VM.Rt.method_by_uid vm.VM.State.reg fr.VM.State.f_method in
      Alcotest.(check string) "top frame" "work" m.VM.Rt.m_name;
      Alcotest.(check string) "opt-compiled" "opt"
        (VM.Machine.level_to_string fr.VM.State.code.VM.Machine.level)
  | [] -> Alcotest.fail "no frames");
  let spec =
    J.Spec.make ~version_tag:"1" ~old_program ~new_program ()
  in
  (J.Jvolve.update_now ~timeout_rounds:60 vm spec, vm)

let without_extension_blocks () =
  (* paper behaviour: the opt-compiled cat-2 frame cannot be replaced and
     never leaves the stack -> timeout *)
  let h, _ = run_case ~opt_osr:false in
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      let e = J.Updater.abort_to_string a in
      if not (Helpers.contains e "work") then
        Alcotest.failf "abort should blame Main.work: %s" e
  | o -> Alcotest.failf "expected abort, got %s" (J.Jvolve.outcome_to_string o)

let with_extension_applies () =
  let h, vm = run_case ~opt_osr:true in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Alcotest.(check bool) "OSR happened" true (t.J.Updater.u_osr >= 1)
  | o -> Alcotest.failf "expected applied, got %s" (J.Jvolve.outcome_to_string o));
  (* the update shifted x's offset; the OSR'd opt frame must keep reading
     and writing the right slot — x keeps incrementing smoothly *)
  ignore (VM.Vm.run vm ~rounds:60);
  let out = VM.Vm.output vm in
  let xs =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           if String.length l > 2 && String.sub l 0 2 = "x=" then
             int_of_string_opt (String.sub l 2 (String.length l - 2))
           else None)
  in
  let rec monotone = function
    | a :: (b :: _ as r) -> b - a = 1 && monotone r
    | _ -> true
  in
  Alcotest.(check bool) "x increments by 1 per iteration across the update"
    true
    (List.length xs > 5 && monotone xs);
  Alcotest.(check int) "no traps" 0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

(* parked INSIDE an inlined region: even the extension must refuse *)
let inside_inlined_region_blocks () =
  let v1' =
    {|
class Data {
  int x;
  static int slowbump(Data d) {
    for (int i = 0; i < 3; i = i + 1) { Thread.yieldNow(); }
    return d.x + 1;
  }
}
class Registry { static Data d; }
class Main {
  static void work() {
    Data dd = Registry.d;
    dd.x = Data.slowbump(dd);
  }
  static void main() {
    Registry.d = new Data();
    while (true) { work(); }
  }
}
|}
  in
  ignore v1';
  (* slowbump yields inside its loop; if work() inlines it, the parked pc
     sits inside the inlined span.  eligible must be false there. *)
  let config =
    { Helpers.test_config with VM.State.opt_threshold = 3; opt_osr = true }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program v1');
  let t = VM.Vm.spawn_main vm ~main_class:"Main" in
  VM.Vm.run vm ~rounds:50;
  match Helpers.frame_list t with
  | fr :: _ ->
      let m = VM.Rt.method_by_uid vm.VM.State.reg fr.VM.State.f_method in
      if
        m.VM.Rt.m_name = "work"
        && fr.VM.State.code.VM.Machine.level = VM.Machine.Opt
        && VM.Machine.pc_in_inlined_span fr.VM.State.code fr.VM.State.pc
      then
        Alcotest.(check bool) "not eligible inside span" false
          (VM.Osr.eligible vm fr)
      else
        (* parked in slowbump's own (non-inlined) frame or base code: the
           span case did not materialize this round; still fine *)
        ()
  | [] -> Alcotest.fail "no frames"

let spans_recorded () =
  let config = { Helpers.test_config with VM.State.opt_threshold = 1 } in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm
    (Jv_lang.Compile.compile_program
       {|
class F {
  static int tiny(int x) { return x + 1; }
  static int host(int x) { return tiny(x) + tiny(x + 2); }
}
class Main { static void main() { Sys.println("" + F.host(1)); } }
|});
  let cls = VM.Rt.require_class vm.VM.State.reg "F" in
  let host =
    match
      VM.Rt.resolve_method vm.VM.State.reg cls "host"
        { Jv_classfile.Types.params = [ Jv_classfile.Types.TInt ];
          ret = Jv_classfile.Types.TInt }
    with
    | Some m -> m
    | None -> Alcotest.fail "no host"
  in
  let opt = VM.Jit.compile vm host VM.Machine.Opt in
  Alcotest.(check int) "two inline spans" 2
    (List.length opt.VM.Machine.inline_spans);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "span well formed" true (0 <= lo && lo < hi);
      Alcotest.(check bool) "span pc detection" true
        (VM.Machine.pc_in_inlined_span opt lo
        && VM.Machine.pc_in_inlined_span opt (hi - 1)
        && not (VM.Machine.pc_in_inlined_span opt hi)))
    opt.VM.Machine.inline_spans

let suite =
  [
    Alcotest.test_case "spans recorded" `Quick spans_recorded;
    Alcotest.test_case "without extension: blocks" `Quick
      without_extension_blocks;
    Alcotest.test_case "with extension: applies and stays correct" `Quick
      with_extension_applies;
    Alcotest.test_case "inside inlined region: refuses" `Quick
      inside_inlined_region_blocks;
  ]
