(* The update-safety pipeline (admission control, the transformer
   sandbox, the heap integrity verifier).

   - admission: a field silently changing type is a Warn (admitted by
     default, rejected under --admit-strict before the VM ever pauses);
     a transformer bundle missing its entry points is a hard Reject;
   - sandbox: a looping transformer aborts at the fuel budget, a stray
     write outside the transformed object set and a throwing transformer
     both trap — every abort is typed with the transformer site, rolls
     back cleanly and re-verifies;
   - verifier: a deliberately corrupted reference field is caught by a
     standalone walk, sinks an otherwise-benign update in P_verify, and
     (since the corruption predates the update) fails the post-rollback
     verify too, marking the abort unreliable;
   - fleet: that unreliable abort quarantines the corrupted instance in
     a 4-VM rolling rollout while the healthy survivors update. *)

module VM = Jv_vm
module J = Jvolve_core
module F = Jv_fleet
module CF = Jv_classfile
module Faults = Jv_faults.Faults

let compile = Jv_lang.Compile.compile_program

(* --- heap spelunking helpers ------------------------------------------- *)

(* Linear walk (the verifier's pass-1 traversal) to find an instance of
   [cls_name]; tests corrupt its fields in place. *)
let find_instance vm cls_name =
  let reg = vm.VM.State.reg in
  let heap = vm.VM.State.heap in
  let target =
    match VM.Rt.find_class reg cls_name with
    | Some c -> c.VM.Rt.cid
    | None -> Alcotest.failf "class %s not loaded" cls_name
  in
  let rec go addr =
    if addr >= heap.VM.Heap.free then
      Alcotest.failf "no live instance of %s" cls_name
    else
      let cid = VM.Heap.class_id heap addr in
      let cls = reg.VM.Rt.classes.(cid) in
      let size =
        if cls.VM.Rt.is_array then
          VM.Heap.array_header_words + VM.Heap.array_length heap addr
        else cls.VM.Rt.size_words
      in
      if cid = target then addr else go (addr + size)
  in
  go 1

let field_off vm cls_name fname =
  match VM.Rt.find_class vm.VM.State.reg cls_name with
  | None -> Alcotest.failf "class %s not loaded" cls_name
  | Some c -> (
      match
        Array.find_opt
          (fun (fi : VM.Rt.field_info) -> String.equal fi.VM.Rt.fi_name fname)
          c.VM.Rt.instance_fields
      with
      | Some fi -> fi.VM.Rt.fi_offset
      | None -> Alcotest.failf "%s has no field %s" cls_name fname)

let live_count vm = (VM.Gc.collect vm).VM.Gc.copied_objects

(* --- admission control -------------------------------------------------- *)

let payload_v1 =
  {|
class Payload { int x; int y; }
class Keeper { static Payload it; }
class Main {
  static void main() {
    Keeper.it = new Payload();
    Keeper.it.x = 7;
    for (int i = 0; i < 400; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

(* same shape, but Payload.x silently changes type int -> String *)
let payload_retyped =
  {|
class Payload { String x; int y; }
class Keeper { static Payload it; }
class Main {
  static void main() {
    Keeper.it = new Payload();
    Keeper.it.x = "seven";
    for (int i = 0; i < 400; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let boot_payload ?(config = Helpers.test_config) src =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (compile src);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  vm

let retyped_field_warns () =
  let old_program = compile payload_v1 in
  let new_program = compile payload_retyped in
  let spec = J.Spec.make ~version_tag:"a1" ~old_program ~new_program () in
  let p = J.Transformers.prepare spec in
  let rep = J.Admission.review p in
  Alcotest.(check (list string))
    "no rejections by default" []
    (J.Admission.rejections ~strict:false rep);
  (match
     List.filter
       (fun v -> v.J.Admission.v_severity = J.Admission.Warn)
       rep.J.Admission.a_verdicts
   with
  | [ w ] ->
      Alcotest.(check string) "field-map check" "field-map" w.J.Admission.v_check;
      Alcotest.(check bool)
        "warn names the field" true
        (Helpers.contains w.J.Admission.v_detail "Payload.x")
  | ws ->
      Alcotest.failf "expected exactly the field-map warn, got %d warns"
        (List.length ws));
  (* strict mode: the warn sinks the update before the VM pauses *)
  let vm = boot_payload payload_v1 in
  let h = J.Jvolve.request ~admit_strict:true vm p in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string)
        "rejected at admission" "admit"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      Alcotest.(check bool)
        "nothing to roll back" true a.J.Updater.a_rolled_back;
      Alcotest.(check bool)
        "reason names the field" true
        (Helpers.contains a.J.Updater.a_reason "Payload.x");
      (match a.J.Updater.a_cause with
      | J.Updater.C_admission _ -> ()
      | c ->
          Alcotest.failf "expected C_admission, got %s"
            (J.Updater.cause_to_string c))
  | o ->
      Alcotest.failf "strict admission should abort, got %s"
        (J.Jvolve.outcome_to_string o));
  (* the VM never paused: the thread keeps running *)
  let t0 = (VM.Vm.stats vm).VM.Vm.instr_count in
  VM.Vm.run vm ~rounds:20;
  Alcotest.(check bool)
    "VM still running after rejection" true
    ((VM.Vm.stats vm).VM.Vm.instr_count > t0);
  (* without strict, the same prepared update is admitted *)
  let h2 = J.Jvolve.request vm p in
  Alcotest.(check bool) "admitted without strict" false (J.Jvolve.resolved h2)

let gutted_transformer_rejected () =
  let old_program = compile payload_v1 in
  let new_program = compile payload_retyped in
  let spec = J.Spec.make ~version_tag:"a2" ~old_program ~new_program () in
  let p = J.Transformers.prepare spec in
  (* strip the transformer bundle: admission must catch the missing
     jvolveClass/jvolveObject entry points even in non-strict mode *)
  let bad =
    {
      p with
      J.Transformers.p_transformer =
        { p.J.Transformers.p_transformer with CF.Cls.c_methods = [] };
    }
  in
  let rep = J.Admission.review bad in
  let rejected = J.Admission.rejections ~strict:false rep in
  Alcotest.(check bool) "rejected" true (rejected <> []);
  Alcotest.(check bool)
    "rejection names the missing entry point" true
    (Helpers.contains (String.concat "; " rejected) "jvolveObject");
  let vm = boot_payload payload_v1 in
  match (J.Jvolve.request vm bad).J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string)
        "aborted at admission" "admit"
        (J.Updater.phase_to_string a.J.Updater.a_phase)
  | o ->
      Alcotest.failf "gutted transformer should be rejected, got %s"
        (J.Jvolve.outcome_to_string o)

(* --- the transformer sandbox -------------------------------------------- *)

let sandbox_v1 =
  {|
class Payload { int x; }
class Holder { int h; }
class Keeper { static Payload it; static Holder hold; }
class Main {
  static void main() {
    Keeper.it = new Payload();
    Keeper.it.x = 41;
    Keeper.hold = new Holder();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

(* v2 adds a field, so Payload has a layout update and its object
   transformer actually runs *)
let sandbox_v2 =
  {|
class Payload { int x; int y; }
class Holder { int h; }
class Keeper { static Payload it; static Holder hold; }
class Main {
  static void main() {
    Keeper.it = new Payload();
    Keeper.it.x = 41;
    Keeper.hold = new Holder();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

(* Run a v1 -> v2 update whose Payload object transformer has [body];
   return the typed abort plus the VM for post-mortem checks. *)
let bad_transformer ~tag ~body =
  let config =
    {
      Helpers.test_config with
      VM.State.transformer_fuel = 20_000;
      verify_heap = true;
    }
  in
  let vm = boot_payload ~config sandbox_v1 in
  VM.Vm.run vm ~rounds:10;
  let spec =
    J.Spec.make
      ~object_overrides:[ ("Payload", body) ]
      ~version_tag:tag
      ~old_program:(compile sandbox_v1)
      ~new_program:(compile sandbox_v2)
      ()
  in
  let before = live_count vm in
  let h = J.Jvolve.update_now ~timeout_rounds:200 vm spec in
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a -> (vm, before, a)
  | o ->
      Alcotest.failf "transformer %s should abort the update, got %s" tag
        (J.Jvolve.outcome_to_string o)

(* Shared post-mortem: clean rollback, intact heap, VM still running. *)
let check_contained what vm before (a : J.Updater.abort) =
  Alcotest.(check string)
    (what ^ ": aborted in transform") "transform"
    (J.Updater.phase_to_string a.J.Updater.a_phase);
  Alcotest.(check bool) (what ^ ": rolled back") true a.J.Updater.a_rolled_back;
  Alcotest.(check bool)
    (what ^ ": heap verifies after rollback")
    true
    (VM.Heapverify.run vm).VM.Heapverify.hv_ok;
  Alcotest.(check int) (what ^ ": live objects preserved") before (live_count vm);
  let payload = find_instance vm "Payload" in
  Alcotest.(check int)
    (what ^ ": field value preserved") 41
    (VM.Value.to_int
       (VM.Heap.get vm.VM.State.heap ~addr:payload
          ~off:(field_off vm "Payload" "x")));
  let t0 = (VM.Vm.stats vm).VM.Vm.instr_count in
  VM.Vm.run vm ~rounds:30;
  Alcotest.(check bool)
    (what ^ ": VM still running") true
    ((VM.Vm.stats vm).VM.Vm.instr_count > t0);
  Alcotest.(check int)
    (what ^ ": no thread traps") 0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

let looping_transformer_aborts_at_fuel () =
  let vm, before, a =
    bad_transformer ~tag:"s1"
      ~body:"    to.x = from.x;\n    while (true) { to.y = to.y + 1; }"
  in
  Alcotest.(check bool)
    "reason mentions fuel" true
    (Helpers.contains a.J.Updater.a_reason "fuel");
  (match a.J.Updater.a_cause with
  | J.Updater.C_fuel_exhausted (site, steps) ->
      Alcotest.(check string)
        "site names the class" "Payload" site.J.Updater.ts_class;
      Alcotest.(check bool)
        "site names an object" true (site.J.Updater.ts_object > 0);
      Alcotest.(check bool) "steps reached the budget" true (steps >= 20_000)
  | c ->
      Alcotest.failf "expected C_fuel_exhausted, got %s"
        (J.Updater.cause_to_string c));
  check_contained "fuel" vm before a

let stray_write_is_trapped () =
  (* Keeper.hold is live but not part of the update: writing it from the
     transformer violates the sandbox *)
  let vm, before, a =
    bad_transformer ~tag:"s2"
      ~body:"    to.x = from.x;\n    Keeper.hold.h = 5;"
  in
  Alcotest.(check bool)
    "reason mentions the sandbox" true
    (Helpers.contains a.J.Updater.a_reason "sandbox");
  (match a.J.Updater.a_cause with
  | J.Updater.C_sandbox_violation (site, _) ->
      Alcotest.(check string)
        "site names the class" "Payload" site.J.Updater.ts_class
  | c ->
      Alcotest.failf "expected C_sandbox_violation, got %s"
        (J.Updater.cause_to_string c));
  check_contained "stray write" vm before a;
  (* the victim object was never written *)
  let hold = find_instance vm "Holder" in
  Alcotest.(check int) "victim untouched" 0
    (VM.Value.to_int
       (VM.Heap.get vm.VM.State.heap ~addr:hold
          ~off:(field_off vm "Holder" "h")))

let throwing_transformer_aborts () =
  let vm, before, a =
    bad_transformer ~tag:"s3"
      ~body:"    Payload p = null;\n    to.x = p.x;"
  in
  (match a.J.Updater.a_cause with
  | J.Updater.C_transformer_trap (site, _) ->
      Alcotest.(check string)
        "site names the class" "Payload" site.J.Updater.ts_class;
      Alcotest.(check bool)
        "site carries the method" true
        (Helpers.contains site.J.Updater.ts_method "jvolveObject")
  | c ->
      Alcotest.failf "expected C_transformer_trap, got %s"
        (J.Updater.cause_to_string c));
  check_contained "trap" vm before a

(* --- the write guard across a nested collection (eager) ----------------

   Each Node transformer first allocates past the semispace, so a plain
   collection runs inside it and moves every log object.  It then forces
   its successor's pair with [Jvolve.transform] — looked up by new
   address in the index over the update log — and writes its own [to],
   which by then neither the watermark nor the pre-collection pair in
   flight admits. *)

let chain_src ~v2 =
  Printf.sprintf
    {|
class Node { int v; Node next; %s}
class Keeper { static Node head; }
%s
class Main {
  static void main() {
    Node prev = null;
    for (int i = 1; i <= 6; i = i + 1) {
      Node n = new Node();
      n.v = i;
      n.next = prev;
      prev = n;
    }
    Keeper.head = prev;
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}
    (if v2 then "int depth; " else "")
    (if v2 then
       {|class Probe {
  static int sumDepth() {
    int s = 0;
    Node p = Keeper.head;
    while (p != null) { s = s + p.depth; p = p.next; }
    return s;
  }
}|}
     else "")

let nested_collection_keeps_guard () =
  let config =
    { Helpers.test_config with VM.State.verify_heap = true }
  in
  let vm = boot_payload ~config (chain_src ~v2:false) in
  let body =
    {|
    int[] junk = null;
    for (int k = 0; k < 8; k = k + 1) { junk = new int[40000]; }
    junk = null;
    to.v = from.v;
    to.next = from.next;
    if (from.next != null) {
      Jvolve.transform(from.next);
      to.depth = from.next.depth + 1;
    } else {
      to.depth = 1;
    }
|}
  in
  let spec =
    J.Spec.make
      ~object_overrides:[ ("Node", body) ]
      ~version_tag:"n1"
      ~old_program:(compile (chain_src ~v2:false))
      ~new_program:(compile (chain_src ~v2:true))
      ()
  in
  let gc0 = vm.VM.State.heap.VM.Heap.gc_count in
  let h = J.Jvolve.update_now ~timeout_rounds:200 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "update should apply, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check bool) "a collection ran inside every transformer" true
    (vm.VM.State.heap.VM.Heap.gc_count - gc0 > 6);
  let probe =
    let cls = VM.Rt.require_class vm.VM.State.reg "Probe" in
    match
      VM.Rt.resolve_method vm.VM.State.reg cls "sumDepth"
        { CF.Types.params = []; ret = CF.Types.TInt }
    with
    | Some m -> VM.Value.to_int (VM.Interp.call_sync vm m [||])
    | None -> Alcotest.fail "no Probe.sumDepth"
  in
  (* depths 1..6, each computed from an already-forced successor *)
  Alcotest.(check int) "every depth written through the guard" 21 probe;
  Alcotest.(check bool)
    "heap verifies" true (VM.Heapverify.run vm).VM.Heapverify.hv_ok

(* --- the fault gauntlet on the copy path ---------------------------------

   With defaults only, Payload's object transformer runs as a copy plan,
   not on the interpreter.  Each transformer.* fault must still abort
   through the same enforcement path, typed, with the site naming the
   class and the object.  The class transformer consults loop and throw
   once before the object pair does; a rate-0.5 rule under a seed whose
   first draw misses and second hits fires on the pair instead. *)
let copy_path_fault ~point =
  let seed =
    if point = "transformer.badwrite" then 1
    else
      let rec find s =
        let p = Faults.create ~seed:s () in
        let d1 = Faults.draw p in
        let d2 = Faults.draw p in
        if d1 >= 0.5 && d2 < 0.5 then s else find (s + 1)
      in
      find 1
  in
  let plan = Faults.create ~seed () in
  Faults.arm plan ~point
    ~rate:(if point = "transformer.badwrite" then 1.0 else 0.5)
    ~max_fires:1 Faults.Raise;
  plan

let copy_path_gauntlet () =
  List.iteri
    (fun k (point, want) ->
      let config =
        {
          Helpers.test_config with
          VM.State.transformer_fuel = 20_000;
          verify_heap = true;
        }
      in
      let vm = boot_payload ~config sandbox_v1 in
      VM.Vm.run vm ~rounds:10;
      let spec =
        J.Spec.make
          ~version_tag:(Printf.sprintf "c%d" k)
          ~old_program:(compile sandbox_v1) ~new_program:(compile sandbox_v2)
          ()
      in
      let before = live_count vm in
      let plan = copy_path_fault ~point in
      VM.Vm.set_faults vm (Some plan);
      let h = J.Jvolve.update_now ~timeout_rounds:200 vm spec in
      VM.Vm.set_faults vm None;
      Alcotest.(check int) (point ^ ": fired once") 1 (Faults.fired plan);
      match h.J.Jvolve.h_outcome with
      | J.Jvolve.Aborted a ->
          let site =
            match (a.J.Updater.a_cause, want) with
            | J.Updater.C_fuel_exhausted (s, steps), `Fuel ->
                Alcotest.(check bool)
                  (point ^ ": steps passed the budget") true (steps > 20_000);
                s
            | J.Updater.C_transformer_trap (s, _), `Trap
            | J.Updater.C_sandbox_violation (s, _), `Sandbox ->
                s
            | c, _ ->
                Alcotest.failf "%s: wrong cause %s" point
                  (J.Updater.cause_to_string c)
          in
          Alcotest.(check string)
            (point ^ ": site names the class")
            "Payload" site.J.Updater.ts_class;
          Alcotest.(check bool)
            (point ^ ": site names the object") true
            (site.J.Updater.ts_object > 0);
          Alcotest.(check bool)
            (point ^ ": site names jvolveObject") true
            (Helpers.contains site.J.Updater.ts_method "jvolveObject");
          check_contained point vm before a
      | o ->
          Alcotest.failf "%s should abort the update, got %s" point
            (J.Jvolve.outcome_to_string o))
    [
      ("transformer.loop", `Fuel);
      ("transformer.throw", `Trap);
      ("transformer.badwrite", `Sandbox);
    ]

(* --- the heap integrity verifier ----------------------------------------- *)

let boxes_v1 =
  {|
class Node { int v; }
class Other { int o; }
class Box { Node ref; }
class Keeper { static Box box; static Other oth; }
class Main {
  static void main() {
    Keeper.box = new Box();
    Keeper.box.ref = new Node();
    Keeper.oth = new Other();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

(* v2 grows Node so the update is a real layout update *)
let boxes_v2 =
  {|
class Node { int v; int w; }
class Other { int o; }
class Box { Node ref; }
class Keeper { static Box box; static Other oth; }
class Main {
  static void main() {
    Keeper.box = new Box();
    Keeper.box.ref = new Node();
    Keeper.oth = new Other();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let verifier_catches_corruption () =
  let config = { Helpers.test_config with VM.State.verify_heap = true } in
  let vm = boot_payload ~config boxes_v1 in
  VM.Vm.run vm ~rounds:10;
  Alcotest.(check bool)
    "healthy heap verifies" true (VM.Heapverify.run vm).VM.Heapverify.hv_ok;
  (* point Box.ref (declared Node) at an Other instance *)
  let box = find_instance vm "Box" in
  let off = field_off vm "Box" "ref" in
  let other = find_instance vm "Other" in
  VM.Heap.set vm.VM.State.heap ~addr:box ~off (VM.Value.of_ref other);
  let rep = VM.Heapverify.run vm in
  Alcotest.(check bool) "corruption detected" false rep.VM.Heapverify.hv_ok;
  (match rep.VM.Heapverify.hv_issues with
  | i :: _ ->
      Alcotest.(check bool)
        "issue names the field" true
        (Helpers.contains (VM.Heapverify.issue_to_string i) "ref")
  | [] -> Alcotest.fail "no issue reported");
  (* a benign update on the corrupted VM: the post-transform verify sinks
     it, and — the corruption predating the snapshot — the post-rollback
     verify fails too, so the abort is marked unreliable *)
  let spec =
    J.Spec.make ~version_tag:"v1"
      ~old_program:(compile boxes_v1)
      ~new_program:(compile boxes_v2)
      ()
  in
  let h = J.Jvolve.update_now ~timeout_rounds:200 vm spec in
  match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check string)
        "aborted in verify" "verify"
        (J.Updater.phase_to_string a.J.Updater.a_phase);
      (match a.J.Updater.a_cause with
      | J.Updater.C_heap_verify (msg :: _) ->
          Alcotest.(check bool)
            "cause carries the issue" true (Helpers.contains msg "ref")
      | c ->
          Alcotest.failf "expected C_heap_verify, got %s"
            (J.Updater.cause_to_string c));
      Alcotest.(check bool)
        "rollback marked unreliable" false a.J.Updater.a_rolled_back;
      Alcotest.(check bool)
        "reason mentions the post-rollback verify" true
        (Helpers.contains a.J.Updater.a_reason "post-rollback")
  | o ->
      Alcotest.failf "update on a corrupted heap should abort, got %s"
        (J.Jvolve.outcome_to_string o)

(* A String object's one field is its string-table index (sid): the
   verifier reports a sid past the table, once, naming the field's
   word. *)
let verifier_catches_bad_string_id () =
  let vm =
    boot_payload
      {|
class Keeper { static String s; }
class Main {
  static void main() {
    Keeper.s = "k" + Sys.time();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}
  in
  VM.Vm.run vm ~rounds:10;
  Alcotest.(check bool)
    "healthy heap verifies" true (VM.Heapverify.run vm).VM.Heapverify.hv_ok;
  let s = find_instance vm "String" in
  let n = vm.VM.State.n_strings in
  VM.Heap.set vm.VM.State.heap ~addr:s ~off:VM.Heap.header_words
    (VM.Value.of_int n);
  let rep = VM.Heapverify.run vm in
  Alcotest.(check bool) "corruption detected" false rep.VM.Heapverify.hv_ok;
  Alcotest.(check int) "one issue" 1 rep.VM.Heapverify.hv_total_issues;
  match rep.VM.Heapverify.hv_issues with
  | [ i ] ->
      Alcotest.(check string)
        "issue names the sid"
        (Printf.sprintf
           "String@%d: string id %d names no string-table slot (%d strings)" s
           n n)
        (VM.Heapverify.issue_to_string i)
  | _ -> Alcotest.fail "expected one issue"

(* --- quarantine in a fleet ----------------------------------------------- *)

let fleet_quarantines_corrupted_instance () =
  let fleet =
    F.Fleet.create
      ~config:{ F.Instance.default_config with Jv_vm.State.verify_heap = true }
      ~policy:F.Lb.Round_robin ~profile:F.Profile.miniweb ~version:"5.1.1"
      ~size:4 ()
  in
  F.Fleet.run fleet ~rounds:30;
  ignore (F.Fleet.attach_load ~concurrency:8 fleet);
  F.Fleet.run fleet ~rounds:100;
  (* corrupt instance 0: a worker's int-typed id field gets a reference
     word (a field miniweb never reads back, so only the verifier can
     tell) *)
  let i0 = List.hd (F.Fleet.instances fleet) in
  let vm0 = i0.F.Instance.i_vm in
  let worker = find_instance vm0 "PoolThread" in
  VM.Heap.set vm0.VM.State.heap ~addr:worker
    ~off:(field_off vm0 "PoolThread" "id")
    (VM.Value.of_ref worker);
  Alcotest.(check bool)
    "corruption visible to the verifier" false
    (VM.Heapverify.run vm0).VM.Heapverify.hv_ok;
  let params =
    {
      (F.Orchestrator.default_params
         (F.Orchestrator.Rolling { batch_size = 1 }))
      with
      F.Orchestrator.update_timeout = 250;
      max_retries = 2;
      backoff_base = 20;
      on_exhausted = `Quarantine;
    }
  in
  let r = F.Orchestrator.run ~params ~fleet ~to_version:"5.1.2" () in
  Alcotest.(check bool)
    "instance 0 quarantined" true
    (List.mem_assoc 0 r.F.Orchestrator.r_quarantined);
  Alcotest.(check (list int))
    "healthy instances updated" [ 1; 2; 3 ]
    (List.sort compare r.F.Orchestrator.r_updated);
  (match List.assoc_opt 0 r.F.Orchestrator.r_reports with
  | Some ar -> (
      match ar.J.Jvolve.ar_outcome with
      | J.Jvolve.Aborted a ->
          Alcotest.(check string)
            "instance 0 aborted in verify" "verify"
            (J.Updater.phase_to_string a.J.Updater.a_phase);
          Alcotest.(check bool)
            "instance 0's rollback is unreliable" false
            a.J.Updater.a_rolled_back
      | o ->
          Alcotest.failf "instance 0 should have aborted, got %s"
            (J.Jvolve.outcome_to_string o))
  | None -> Alcotest.fail "no attempt report for instance 0");
  List.iter
    (fun (i : F.Instance.t) ->
      if i.F.Instance.i_id = 0 then
        Alcotest.(check string)
          "instance 0 out of service" "out-of-service"
          (F.Instance.status_to_string i.F.Instance.i_status)
      else begin
        Alcotest.(check string)
          (Printf.sprintf "instance %d on 5.1.2" i.F.Instance.i_id)
          "5.1.2" i.F.Instance.i_version;
        Alcotest.(check string)
          (Printf.sprintf "instance %d in service" i.F.Instance.i_id)
          "in-service"
          (F.Instance.status_to_string i.F.Instance.i_status)
      end)
    (F.Fleet.instances fleet)

let suite =
  [
    Alcotest.test_case "admission: retyped field warns, strict rejects" `Quick
      retyped_field_warns;
    Alcotest.test_case "admission: gutted transformer bundle is rejected"
      `Quick gutted_transformer_rejected;
    Alcotest.test_case "sandbox: looping transformer aborts at fuel" `Quick
      looping_transformer_aborts_at_fuel;
    Alcotest.test_case "sandbox: stray write is trapped" `Quick
      stray_write_is_trapped;
    Alcotest.test_case "sandbox: throwing transformer aborts" `Quick
      throwing_transformer_aborts;
    Alcotest.test_case "sandbox: nested collection keeps the guard" `Quick
      nested_collection_keeps_guard;
    Alcotest.test_case "copy path: transformer faults abort typed" `Quick
      copy_path_gauntlet;
    Alcotest.test_case "verifier: corrupted ref field sinks the update"
      `Quick verifier_catches_corruption;
    Alcotest.test_case "verifier: corrupted string id is reported" `Quick
      verifier_catches_bad_string_id;
    Alcotest.test_case "fleet: unreliable rollback is quarantined" `Quick
      fleet_quarantines_corrupted_instance;
  ]
