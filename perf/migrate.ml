(* migrate: the paper's Table 1 heap at 280 000 objects (its "160 MB"
   row), half of them [Change], updated on an idle VM; the default
   transformer copies three fields and zeroes the new one.

   No network and no wait for a safe point: the pause is the
   transforming collection plus default transformers run on the
   interpreter, so this isolates the collector and the updater.  Each
   repeat gets a fresh VM on a compacted host heap, without which host
   memory grew threefold over eight repeats.  The first repeat runs ~35%
   slower; as the fastest repeat is kept, it never counts. *)

module VM = Jv_vm
module J = Jvolve_core
module H = Harness

let objects = 280_000
let n_change = objects / 2
let sample = 1000

type acc = {
  cs : H.core_stats;
  gc_ns_per_word : Stats.vec;
  mutable work : H.vmc;
}

let episode p acc ~seed ~last =
  H.quiesce ();
  let vm, old_program =
    H.setup p (fun () ->
        let config =
          { VM.State.default_config with VM.State.heap_words = objects * 20 }
        in
        let program =
          Trace.span ~layer:"lang" "Compile.compile_program" (fun () ->
              Jv_lang.Compile.compile_program Heaps.table1_v1)
        in
        let vm = VM.Vm.create ~config () in
        VM.Vm.boot vm program;
        ignore (VM.Vm.spawn_main vm ~main_class:"Main");
        VM.Vm.run vm ~rounds:2;
        Heaps.table1_populate vm ~n_change ~n_nochange:(objects - n_change);
        (* touch both semi-spaces before the measured collection *)
        H.collect ~into:acc.gc_ns_per_word vm;
        (vm, program))
  in
  (* nor may the host collector run inside the measured pause *)
  H.quiesce ();
  let c0 = H.vmc vm in
  let u = ref None in
  H.timed_phase p (fun () ->
      u :=
        Some
          (H.update vm
             ~compile:(fun () -> Jv_lang.Compile.compile_program Heaps.table1_v2)
             ~spec:(fun new_program ->
               J.Spec.make ~version_tag:"1" ~old_program ~new_program ())
             ~max_rounds:50));
  let u = Option.get !u in
  acc.work <- H.vmc_add acc.work (H.vmc_sub (H.vmc vm) c0);
  H.check p "update applied" (H.note_update p acc.cs vm u);
  let transformed =
    match u.H.handle.J.Jvolve.h_outcome with
    | J.Jvolve.Applied t -> t.J.Updater.u_transformed_objects
    | _ -> 0
  in
  H.check p "every Change object transformed" (transformed = n_change);
  let rng = H.rng ~seed ~salt:2 in
  let bad = ref 0 in
  for _ = 1 to sample do
    if not (Heaps.table1_holds vm (Random.State.int rng n_change)) then incr bad
  done;
  H.check p "sampled objects hold a=i b=2i c=3i d=0" (!bad = 0);
  if last then H.check p "heap verifies" (H.heapverify vm).VM.Heapverify.hv_ok;
  H.end_replay p

let run p ~seed ~episodes =
  let episodes = max 2 episodes in
  let acc =
    { cs = H.core_stats (); gc_ns_per_word = Stats.vec (); work = H.vmc_zero }
  in
  for e = 1 to episodes do
    episode p acc ~seed ~last:(e = episodes)
  done;
  let per_s key =
    float_of_int n_change /. Stats.Best.total p.H.best key
  in
  H.core_metrics p acc.cs;
  H.vm_metrics p ~key:"timed" ~work:acc.work;
  List.iter (H.add p)
    [
      H.scalar ~layer:"e2e" ~unit_:"1/s" "ops_per_s" (per_s "pause");
      H.scalar ~layer:"core" ~unit_:"1/s" "core.transform_objs_per_s"
        (per_s "transform");
      H.of_samples ~layer:"vm" ~unit_:"ns" "vm.gc_ns_per_word"
        acc.gc_ns_per_word;
    ]
