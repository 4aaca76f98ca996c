(* serve: miniweb walks 5.1.3 -> 5.1.10 on one VM, seven hops, under a
   closed loop of 8 sessions of 5 requests each.

   The interpreter, JIT, scheduler and simnet do nearly all the work;
   each hop is a real release of a different kind (body, class and
   signature changes; 5.1.4 -> 5.1.5 waits for return barriers and OSRs
   the pool threads) but transforms at most a handful of objects, so a
   change to the transformers or heap migration should leave serve
   unmoved.  The walk starts at 5.1.3 because of the ladder trap
   recorded in README.md. *)

module VM = Jv_vm
module A = Jv_apps
module H = Harness

let versions =
  [ "5.1.3"; "5.1.4"; "5.1.5"; "5.1.6"; "5.1.7"; "5.1.8"; "5.1.9"; "5.1.10" ]

let concurrency = 8
let warmup_rounds = 1000
let window_rounds = 5000 (* before each hop, and after the last *)

(* Each session sends the five requests in its own seeded order. *)
let session_script rng () =
  let a = Array.of_list A.Workload.web_script in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type acc = {
  cs : H.core_stats;
  latency_us : Stats.vec;
  gc_ns_per_word : Stats.vec;
  mutable work : H.vmc; (* executed inside the request windows *)
  mutable requests : int; (* served inside the request windows *)
  mutable bytes : int;
}


let episode p acc ~seed ~last =
  H.quiesce ();
  let rng = H.rng ~seed ~salt:1 in
  let vm, program, load =
    H.setup p (fun () ->
        let vm, program =
          H.boot_app ~config:A.Experience.default_config ~ok:A.Workload.web_ok
            (H.compile A.Miniweb.app ~version:(List.hd versions))
        in
        let load =
          Load.Closed.attach vm ~port:A.Miniweb.protocol_port
            ~script:(session_script rng) ~ok:A.Workload.web_ok ~concurrency
        in
        VM.Vm.run vm ~rounds:warmup_rounds;
        (vm, program, load))
  in
  let window label =
    let c0 = H.vmc vm and b0 = H.net_bytes vm and q0 = load.Load.Closed.completed in
    for _ = 1 to window_rounds do
      H.timed_round p "window" vm
    done;
    let served = load.Load.Closed.completed - q0 in
    acc.work <- H.vmc_add acc.work (H.vmc_sub (H.vmc vm) c0);
    acc.requests <- acc.requests + served;
    acc.bytes <- acc.bytes + (H.net_bytes vm - b0);
    H.check p ("requests served " ^ label) (served > 0)
  in
  let rec hops old_program = function
    | from_v :: (to_v :: _ as rest) ->
        window ("before " ^ from_v ^ " -> " ^ to_v);
        let u =
          H.update vm
            ~compile:(H.compile A.Miniweb.app ~version:to_v)
            ~spec:(fun new_program ->
              A.Common.spec ~version_tag:(A.Common.version_tag from_v)
                ~old_program ~new_program ())
            ~max_rounds:2000
        in
        H.check p
          (Printf.sprintf "%s -> %s applied" from_v to_v)
          (H.note_update p acc.cs vm u);
        hops u.H.program rest
    | _ -> window "after the last hop"
  in
  load.Load.Closed.recording <- last;
  H.timed_phase p (fun () -> hops program versions);
  load.Load.Closed.recording <- false;
  Stats.append ~into:acc.latency_us load.Load.Closed.latency_us;
  H.attempts p ~attempted:load.Load.Closed.sent
    ~failed:(Load.Closed.failures load);
  H.check p "no interpreter traps" ((VM.Vm.stats vm).VM.Vm.traps = []);
  Load.Closed.detach vm load;
  if p.H.traced then begin
    H.collect ~into:acc.gc_ns_per_word vm;
    H.check p "heap verifies" (H.heapverify vm).VM.Heapverify.hv_ok
  end;
  H.end_replay p

let run p ~seed ~episodes =
  let acc =
    {
      cs = H.core_stats ();
      latency_us = Stats.vec ();
      gc_ns_per_word = Stats.vec ();
      work = H.vmc_zero;
      requests = 0;
      bytes = 0;
    }
  in
  for e = 1 to episodes do
    episode p acc ~seed ~last:(e = episodes)
  done;
  let requests = H.per_replay p acc.requests in
  let per_req n = float_of_int (H.per_replay p n) /. float_of_int (max 1 requests) in
  H.core_metrics p acc.cs;
  H.vm_metrics p ~key:"window" ~work:acc.work;
  List.iter (H.add p)
    (H.scalar ~layer:"e2e" ~unit_:"1/s" "ops_per_s"
       ~n:(Array.length (Stats.Best.mins p.H.best "window"))
       (float_of_int requests /. H.best_total p "window")
     :: H.latency_metrics acc.latency_us
    @ [
        H.of_samples ~layer:"vm" ~unit_:"ns" "vm.gc_ns_per_word"
          acc.gc_ns_per_word;
        H.scalar ~layer:"vm" ~unit_:"count" "vm.instr_per_req"
          (per_req acc.work.H.instr);
        H.scalar ~layer:"simnet" ~unit_:"B" "simnet.bytes_per_req"
          (per_req acc.bytes);
      ])
