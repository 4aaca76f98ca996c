(* Long-haul DSU scenarios:
   - chains of sequential updates applied to ONE running VM (the paper
     applies each release to a fresh server; a real deployment would roll
     through many),
   - transformers that allocate enough to force a nested collection while
     the update log is live (exercising the extra-roots protocol),
   - update attempts racing with allocation-triggered collections. *)

module VM = Jv_vm
module J = Jvolve_core

let compile = Jv_lang.Compile.compile_program

(* --- sequential updates on one VM ------------------------------------------- *)

(* Main.main is byte-identical across all versions (it only calls Counter
   methods); each version is a class update of Counter, so main is lifted
   by OSR every time. *)
let counter_version n =
  Printf.sprintf
    {|
class Counter {
  int value;
  %s
  void tick() { value = value + %d; }
  int read() { return value; }
  String label() { return "v%d"; }
}
class Keeper { static Counter c; }
class Main {
  static void main() {
    Keeper.c = new Counter();
    while (true) {
      Keeper.c.tick();
      Sys.println(Keeper.c.label() + ":" + Keeper.c.read());
      Thread.yieldNow();
    }
  }
}
|}
    (* each version adds another field, so every step is a class update *)
    (String.concat " "
       (List.init n (fun i -> Printf.sprintf "int extra%d;" i)))
    (n + 1) n

let sequential_updates () =
  let v0 = counter_version 0 in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (compile v0);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let prev = ref v0 in
  for n = 1 to 5 do
    let next = counter_version n in
    let spec =
      J.Spec.make
        ~version_tag:(string_of_int n)
        ~old_program:(compile !prev) ~new_program:(compile next) ()
    in
    let h = J.Jvolve.update_now ~timeout_rounds:100 vm spec in
    (match h.J.Jvolve.h_outcome with
    | J.Jvolve.Applied t ->
        Alcotest.(check int)
          (Printf.sprintf "update %d transforms the counter" n)
          1 t.J.Updater.u_transformed_objects
    | o ->
        Alcotest.failf "update %d failed: %s" n
          (J.Jvolve.outcome_to_string o));
    VM.Vm.run vm ~rounds:6
  done;
  let out = VM.Vm.output vm in
  (* every version's output style must appear, and the counter value must
     be continuous (preserved across all five layout changes) *)
  for n = 0 to 5 do
    if not (Helpers.contains out (Printf.sprintf "v%d:" n)) then
      Alcotest.failf "no output from version %d: %s" n out
  done;
  let values =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           match String.index_opt l ':' with
           | Some i ->
               int_of_string_opt
                 (String.sub l (i + 1) (String.length l - i - 1))
           | None -> None)
  in
  let rec increasing = function
    | a :: (b :: _ as r) -> a < b && increasing r
    | _ -> true
  in
  Alcotest.(check bool) "counter never reset" true (increasing values);
  Alcotest.(check int) "no traps" 0
    (List.length (VM.Vm.stats vm).VM.Vm.traps)

(* the whole miniweb release history rolled through one living server *)
let miniweb_rolling_upgrade () =
  let module A = Jv_apps in
  let vm = A.Experience.boot_version A.Experience.web_desc ~version:"5.1.0" in
  let w =
    A.Workload.attach vm ~port:A.Miniweb.protocol_port
      ~script:A.Workload.web_script ~ok:A.Workload.web_ok ~concurrency:4 ()
  in
  VM.Vm.run vm ~rounds:30;
  let pairs = A.Patching.update_pairs A.Miniweb.app in
  let applied = ref 0 and skipped = ref [] in
  let current = ref "5.1.0" in
  List.iter
    (fun ((from_v, from_src), (to_v, to_src)) ->
      if String.equal from_v !current then begin
        let spec =
          J.Spec.make
            ~version_tag:(String.concat "" (String.split_on_char '.' from_v))
            ~old_program:(compile from_src) ~new_program:(compile to_src) ()
        in
        match
          (J.Jvolve.update_now ~timeout_rounds:120 vm spec).J.Jvolve.h_outcome
        with
        | J.Jvolve.Applied _ ->
            incr applied;
            current := to_v;
            VM.Vm.run vm ~rounds:20
        | J.Jvolve.Aborted _ | J.Jvolve.Reverted _ | J.Jvolve.Pending ->
            (* a hop that cannot apply would force a restart on a real
               deployment; record it so the assertions below see it *)
            skipped := (from_v, to_v) :: !skipped;
            current := from_v
      end)
    pairs;
  (* with con-freeness on (the default), 5.1.2 -> 5.1.3 is proven
     backward-compatible, so the whole release history rolls through —
     no hop requires a restart *)
  Alcotest.(check int) "every release applied" 11 !applied;
  Alcotest.(check (list (pair string string))) "no hop skipped" [] !skipped;
  Alcotest.(check string) "ends at the newest release" "5.1.11" !current;
  Alcotest.(check bool) "server still serving" true
    (w.A.Workload.load.completed_requests > 50);
  Alcotest.(check int) "no protocol errors" 0 w.A.Workload.load.errors

(* --- allocation inside transformers ------------------------------------------- *)

let nested_gc_in_transformer () =
  (* the transformer builds a big fresh structure per object, forcing
     collections while the update log is the only thing keeping old
     copies alive *)
  let v1 =
    {|
class Item { int seed; String blob; }
class Keeper { static Item[] all; }
class Main {
  static void main() {
    Keeper.all = new Item[40];
    for (int i = 0; i < 40; i = i + 1) {
      Item it = new Item();
      it.seed = i;
      Keeper.all[i] = it;
    }
    while (true) { Thread.yieldNow(); }
  }
}
|}
  in
  let v2 =
    {|
class Item { int seed; String blob; int gen; }
class Keeper { static Item[] all; }
class Main {
  static void main() {
    Keeper.all = new Item[40];
    for (int i = 0; i < 40; i = i + 1) {
      Item it = new Item();
      it.seed = i;
      Keeper.all[i] = it;
    }
    while (true) { Thread.yieldNow(); }
  }
}
|}
  in
  (* each transformer call allocates ~100 strings; with a small heap this
     forces several nested collections during the transform phase *)
  let transformer_body =
    {|
    to.seed = from.seed;
    to.gen = 2;
    String b = "";
    for (int i = 0; i < 100; i = i + 1) {
      int[] scratch = new int[80];
      scratch[0] = i;
      b = b + from.seed;
    }
    to.blob = b;
|}
  in
  let config =
    { VM.State.default_config with VM.State.heap_words = 1 lsl 14 }
  in
  let old_program = compile v1 and new_program = compile v2 in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm old_program;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let gc_before = (VM.Vm.stats vm).VM.Vm.gc_count in
  let spec =
    J.Spec.make
      ~object_overrides:[ ("Item", transformer_body) ]
      ~version_tag:"1" ~old_program ~new_program ()
  in
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      Alcotest.(check int) "all items transformed" 40
        t.J.Updater.u_transformed_objects
  | o -> Alcotest.failf "update failed: %s" (J.Jvolve.outcome_to_string o));
  let gc_after = (VM.Vm.stats vm).VM.Vm.gc_count in
  Alcotest.(check bool)
    (Printf.sprintf "nested collections ran during transform (%d -> %d)"
       gc_before gc_after)
    true
    (gc_after - gc_before >= 3);
  (* every item must have the right blob: seed repeated 100 times *)
  let keeper = VM.Rt.require_class vm.VM.State.reg "Keeper" in
  let slot =
    match VM.Rt.find_static_info vm.VM.State.reg keeper "all" with
    | Some si -> si.VM.Rt.si_slot
    | None -> Alcotest.fail "no static all"
  in
  let arr = VM.Value.to_ref (VM.State.jtoc_get vm slot) in
  for i = 0 to 39 do
    let itw =
      VM.Heap.get vm.VM.State.heap ~addr:arr
        ~off:(VM.Heap.array_header_words + i)
    in
    let it = VM.Value.to_ref itw in
    let blob_w = VM.Heap.get vm.VM.State.heap ~addr:it ~off:3 in
    let blob = VM.State.string_of_obj vm (VM.Value.to_ref blob_w) in
    let expect = String.concat "" (List.init 100 (fun _ -> string_of_int i)) in
    if not (String.equal blob expect) then
      Alcotest.failf "item %d has corrupt blob (len %d)" i
        (String.length blob)
  done

let suite =
  [
    Alcotest.test_case "five sequential class updates" `Quick
      sequential_updates;
    Alcotest.test_case "miniweb rolling upgrade" `Slow
      miniweb_rolling_upgrade;
    Alcotest.test_case "nested GC inside transformers" `Quick
      nested_gc_in_transformer;
  ]
