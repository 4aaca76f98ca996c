(* Deterministic chaos suite (lib/faults + the transactional updater).

   For each benchmark app: inject a fault into every update phase (load,
   GC, transform) and check that the abort is typed with the right
   phase, the transaction rolled back with a passing metadata audit, the
   VM keeps serving the old version without protocol errors, and a full
   collection afterwards finds a stable heap.  Then, faults disarmed,
   the same update applies cleanly.

   Plus: a kill fault takes the VM down only after the rollback; the
   plan parser round-trips; and a body-only update chain applied via
   Jvolve, hotswap and lazy indirection yields the same app-visible
   responses when no fault fires. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module B = Jv_baseline
module Faults = Jv_faults.Faults

let compile = Jv_lang.Compile.compile_program

(* --- seeded per-phase aborts on the benchmark apps --------------------- *)

let boot_loaded (d : A.Experience.app_desc) ~version =
  let vm = A.Experience.boot_version d ~version in
  let loads = A.Experience.attach_loads vm d ~concurrency:3 in
  VM.Vm.run vm ~rounds:60;
  (vm, loads)

let spec_of (d : A.Experience.app_desc) ~from_v ~to_v ~tag =
  A.Common.spec
    ~overrides:(d.A.Experience.d_overrides ~to_version:to_v)
    ~version_tag:tag
    ~old_program:
      (compile (A.Patching.source d.A.Experience.d_versioned ~version:from_v))
    ~new_program:
      (compile (A.Patching.source d.A.Experience.d_versioned ~version:to_v))
    ()

let live_count vm = (VM.Gc.collect vm).VM.Gc.copied_objects

let phases =
  [
    ("updater.load", J.Updater.P_load);
    ("updater.gc", J.Updater.P_gc);
    ("updater.transform", J.Updater.P_transform);
  ]

let chaos_app (d : A.Experience.app_desc) ~from_v ~to_v () =
  let vm, loads = boot_loaded d ~version:from_v in
  List.iteri
    (fun k (point, want_phase) ->
      let plan = Faults.create ~seed:(7 + k) () in
      Faults.arm plan ~point ~max_fires:1 Faults.Raise;
      VM.Vm.set_faults vm (Some plan);
      let spec = spec_of d ~from_v ~to_v ~tag:(Printf.sprintf "f%d" k) in
      let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
      (match h.J.Jvolve.h_outcome with
      | J.Jvolve.Aborted a ->
          Alcotest.(check string)
            (point ^ ": abort phase")
            (J.Updater.phase_to_string want_phase)
            (J.Updater.phase_to_string a.J.Updater.a_phase);
          Alcotest.(check bool)
            (point ^ ": rolled back, audit passed")
            true a.J.Updater.a_rolled_back
      | o ->
          Alcotest.failf "%s %s: expected injected abort, got %s"
            d.A.Experience.d_name point
            (J.Jvolve.outcome_to_string o));
      Alcotest.(check int) (point ^ ": fired once") 1 (Faults.fired plan);
      (* the VM still answers requests on the old version *)
      let before = A.Experience.total_requests loads in
      VM.Vm.run vm ~rounds:150;
      if A.Experience.total_requests loads <= before then
        Alcotest.failf "%s %s: server stopped serving after abort"
          d.A.Experience.d_name point;
      Alcotest.(check int)
        (point ^ ": no protocol errors")
        0
        (A.Experience.total_errors loads);
      (* heap intact: two back-to-back full collections agree on the
         number of live objects *)
      let n1 = live_count vm in
      let n2 = live_count vm in
      Alcotest.(check int) (point ^ ": stable live count") n1 n2;
      Alcotest.(check int)
        (point ^ ": no traps")
        0
        (List.length (VM.Vm.stats vm).VM.Vm.traps))
    phases;
  (* faults disarmed: the very update that kept aborting applies *)
  VM.Vm.set_faults vm None;
  let spec =
    spec_of d ~from_v ~to_v
      ~tag:(String.concat "" (String.split_on_char '.' from_v))
  in
  let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Applied _ -> ()
  | o ->
      Alcotest.failf "%s: clean update should apply, got %s"
        d.A.Experience.d_name
        (J.Jvolve.outcome_to_string o));
  let before = A.Experience.total_requests loads in
  VM.Vm.run vm ~rounds:150;
  if A.Experience.total_requests loads <= before then
    Alcotest.failf "%s: server stopped serving after the applied update"
      d.A.Experience.d_name;
  Alcotest.(check int)
    "no protocol errors after applied update" 0
    (A.Experience.total_errors loads);
  List.iter (fun w -> A.Workload.detach vm w) loads

let web_chaos () =
  chaos_app A.Experience.web_desc ~from_v:"5.1.1" ~to_v:"5.1.2" ()

let mail_chaos () =
  chaos_app A.Experience.mail_desc ~from_v:"1.3.1" ~to_v:"1.3.2" ()

(* 1.07 -> 1.08 reworks RequestHandler.run, which is always on stack
   under load (the paper's restricted-method timeout, exercised in
   test_apps); chaos-test the field-adding 1.06 -> 1.07 instead so every
   injection reaches its phase. *)
let ftp_chaos () =
  chaos_app A.Experience.ftp_desc ~from_v:"1.06" ~to_v:"1.07" ()

(* --- kill: rollback first, then the VM dies ---------------------------- *)

let kill_takes_vm_down () =
  let d = A.Experience.web_desc in
  let vm, loads = boot_loaded d ~version:"5.1.1" in
  let plan = Faults.create ~seed:3 () in
  Faults.arm plan ~point:"updater.gc" ~max_fires:1 Faults.Kill;
  VM.Vm.set_faults vm (Some plan);
  let spec = spec_of d ~from_v:"5.1.1" ~to_v:"5.1.2" ~tag:"k1" in
  let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
  (match h.J.Jvolve.h_outcome with
  | J.Jvolve.Aborted a ->
      Alcotest.(check bool)
        "abort mentions the kill" true
        (Helpers.contains a.J.Updater.a_reason "killed");
      Alcotest.(check bool)
        "rolled back before dying" true a.J.Updater.a_rolled_back
  | o ->
      Alcotest.failf "kill should abort the update, got %s"
        (J.Jvolve.outcome_to_string o));
  Alcotest.(check (option string))
    "VM marked killed"
    (Some "updater.gc")
    (VM.Vm.killed vm);
  (* a killed VM makes no progress: the scheduler refuses to run it *)
  let t0 = (VM.Vm.stats vm).VM.Vm.instr_count in
  VM.Vm.run vm ~rounds:50;
  Alcotest.(check int)
    "no instructions after the kill" t0
    (VM.Vm.stats vm).VM.Vm.instr_count;
  List.iter (fun w -> A.Workload.detach vm w) loads

(* --- plan parser ------------------------------------------------------- *)

let parse_roundtrip () =
  let plan_s =
    "updater.transform=raise@0.2,updater.gc=killx1,net.link=delay:3@0.1x5,\
     net.connect=drop"
  in
  match Faults.parse ~seed:99 plan_s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check int) "seed kept" 99 (Faults.seed p);
      Alcotest.(check string) "round-trips" plan_s (Faults.to_string p);
      (match Faults.parse "updater.gc=explode" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad action should not parse");
      (match Faults.parse "nonsense" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "rule without '=' should not parse")

(* deterministic: the same (plan, seed) fires at the same consultations *)
let schedule_is_deterministic () =
  let schedule seed =
    let p = Faults.create ~seed () in
    Faults.arm p ~point:"updater.transform" ~rate:0.3 Faults.Raise;
    List.init 200 (fun _ ->
        match Faults.check (Some p) "updater.transform" with
        | Some _ -> '1'
        | None -> '0')
  in
  Alcotest.(check bool)
    "same seed, same schedule" true
    (schedule 5 = schedule 5);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (schedule 5 <> schedule 6)

(* --- the point registry ---------------------------------------------------- *)

(* A typo used to arm nothing and pass silently; now it is refused by the
   parser and by [arm], while prefix rules over real points still parse. *)
let typo_is_rejected () =
  (match Faults.parse "updater.transfrom=raise" with
  | Ok _ -> Alcotest.fail "a mistyped point parsed"
  | Error e ->
      Alcotest.(check bool)
        "error names the point" true
        (Helpers.contains e "updater.transfrom"));
  (match Faults.parse "updatr.*=raise" with
  | Ok _ -> Alcotest.fail "a prefix matching no point parsed"
  | Error _ -> ());
  (match Faults.parse "updater.*=raise@0.2,net.link=drop" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a valid plan was refused: %s" e);
  match
    Faults.arm (Faults.create ()) ~point:"transformer.lop" Faults.Raise
  with
  | () -> Alcotest.fail "arm accepted a mistyped point"
  | exception Invalid_argument _ -> ()

(* The first string literal after each Faults.point / check / link call
   in lib/: the points the stack consults.  The test stanza's deps copy
   lib/'s sources next to the test binary's directory in the build tree,
   so lib/ is found from the binary, whatever the working directory. *)
let lib_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "lib"

let points_named_in_lib () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" then [ p ]
           else [])
  in
  let rec index_of line sub i =
    if i + String.length sub > String.length line then None
    else if String.sub line i (String.length sub) = sub then Some i
    else index_of line sub (i + 1)
  in
  let point_in line needle =
    match index_of line needle 0 with
    | None -> None
    | Some i -> (
        match String.index_from_opt line i '"' with
        | None -> None
        | Some q ->
            Option.map
              (fun q' -> String.sub line (q + 1) (q' - q - 1))
              (String.index_from_opt line (q + 1) '"'))
  in
  files lib_dir
  |> List.concat_map (fun f ->
         In_channel.with_open_bin f In_channel.input_all
         |> String.split_on_char '\n')
  |> List.concat_map (fun line ->
         List.filter_map (point_in line)
           [ "Faults.point "; "Faults.check "; "Faults.link " ])
  |> List.sort_uniq compare

let registry_covers_lib () =
  let named = points_named_in_lib () in
  Alcotest.(check bool)
    "the scan found the updater's points" true
    (List.mem "updater.transform" named && List.length named >= 10);
  List.iter
    (fun p ->
      if not (List.mem p Faults.points) then
        Alcotest.failf "lib/ consults %S, which is not registered" p)
    named;
  List.iter
    (fun p ->
      if not (List.mem p named) then
        Alcotest.failf "registered point %S is consulted nowhere in lib/" p)
    Faults.points

(* --- differential: Jvolve vs hotswap vs indirection -------------------- *)

(* A body-only update chain: every mechanism supports it, and with no
   fault armed the app-visible responses must agree.  The updates land at
   deterministic scheduler rounds; Jvolve applies at the END of a round
   (all threads parked at safe points), so the synchronous baselines are
   applied after one extra round to align the switch point. *)

let speaker v =
  Printf.sprintf
    {|
class Speaker { String say(int i) { return "" + i + ":%s"; } }
class Main {
  static void main() {
    Speaker s = new Speaker();
    for (int i = 0; i < 30; i = i + 1) {
      Sys.println(s.say(i));
      Thread.yieldNow();
    }
  }
}
|}
    v

let chain = [ ("v1", "v2", 10); ("v2", "v3", 20) ]

let diff_spec ~from_v ~to_v ~tag =
  J.Spec.make ~version_tag:tag ~old_program:(compile (speaker from_v))
    ~new_program:(compile (speaker to_v))
    ()

let boot_speaker ?(config = Helpers.test_config) () =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (compile (speaker "v1"));
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  vm

let run_jvolve () =
  let vm = boot_speaker () in
  let at = ref 0 in
  List.iter
    (fun (from_v, to_v, round) ->
      VM.Vm.run vm ~rounds:(round - !at);
      at := round;
      let h =
        J.Jvolve.update_now ~timeout_rounds:50
          vm (diff_spec ~from_v ~to_v ~tag:to_v)
      in
      incr at;
      (* update_now drove one round before the end-of-round apply *)
      match h.J.Jvolve.h_outcome with
      | J.Jvolve.Applied _ -> ()
      | o ->
          Alcotest.failf "jvolve %s->%s: %s" from_v to_v
            (J.Jvolve.outcome_to_string o))
    chain;
  ignore (VM.Vm.run_to_quiescence vm);
  VM.Vm.output vm

let run_hotswap () =
  let vm = boot_speaker () in
  let at = ref 0 in
  List.iter
    (fun (from_v, to_v, round) ->
      VM.Vm.run vm ~rounds:(round + 1 - !at);
      at := round + 1;
      match B.Hotswap.apply vm (diff_spec ~from_v ~to_v ~tag:to_v) with
      | B.Hotswap.Applied _ -> ()
      | B.Hotswap.Unsupported e ->
          Alcotest.failf "hotswap %s->%s unsupported: %s" from_v to_v e)
    chain;
  ignore (VM.Vm.run_to_quiescence vm);
  VM.Vm.output vm

let run_indirection () =
  let config =
    { Helpers.test_config with VM.State.indirection_mode = true }
  in
  let vm = boot_speaker ~config () in
  let at = ref 0 in
  List.iter
    (fun (from_v, to_v, round) ->
      VM.Vm.run vm ~rounds:(round + 1 - !at);
      at := round + 1;
      match
        B.Indirection.apply vm
          (J.Transformers.prepare (diff_spec ~from_v ~to_v ~tag:to_v))
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "indirection %s->%s: %s" from_v to_v e)
    chain;
  ignore (VM.Vm.run_to_quiescence vm);
  VM.Vm.output vm

let lines s = String.split_on_char '\n' (String.trim s)

(* every mechanism prints 0..29 in order, with version markers moving
   monotonically v1 -> v2 -> v3 along the chain *)
let check_shape name out =
  let ls = lines out in
  Alcotest.(check int) (name ^ ": 30 responses") 30 (List.length ls);
  List.iteri
    (fun i l ->
      match String.index_opt l ':' with
      | None -> Alcotest.failf "%s: malformed line %S" name l
      | Some c ->
          Alcotest.(check string)
            (name ^ ": request order")
            (string_of_int i)
            (String.sub l 0 c))
    ls;
  let rank v =
    match v with
    | "v1" -> 1
    | "v2" -> 2
    | "v3" -> 3
    | _ -> Alcotest.failf "%s: unknown version %S" name v
  in
  ignore
    (List.fold_left
       (fun prev l ->
         let c = String.index l ':' in
         let r = rank (String.sub l (c + 1) (String.length l - c - 1)) in
         if r < prev then
           Alcotest.failf "%s: version went backwards at %S" name l;
         r)
       1 ls)

let differential_no_fault () =
  let j = run_jvolve () in
  let h = run_hotswap () in
  let i = run_indirection () in
  check_shape "jvolve" j;
  check_shape "hotswap" h;
  check_shape "indirection" i;
  (* jvolve and hotswap run identical VM configurations: byte-identical *)
  Alcotest.(check string) "jvolve = hotswap responses" j h;
  (* indirection pays per-dereference checks but must answer the same *)
  Alcotest.(check string) "jvolve = indirection responses" j i

let suite =
  [
    Alcotest.test_case "miniweb: per-phase aborts roll back" `Quick web_chaos;
    Alcotest.test_case "minimail: per-phase aborts roll back" `Quick
      mail_chaos;
    Alcotest.test_case "miniftp: per-phase aborts roll back" `Quick ftp_chaos;
    Alcotest.test_case "kill: rollback, then the VM is down" `Quick
      kill_takes_vm_down;
    Alcotest.test_case "plan parser round-trips" `Quick parse_roundtrip;
    Alcotest.test_case "schedules are seed-deterministic" `Quick
      schedule_is_deterministic;
    Alcotest.test_case "a mistyped fault point is rejected" `Quick
      typo_is_rejected;
    Alcotest.test_case "the point registry covers lib/" `Quick
      registry_covers_lib;
    Alcotest.test_case "differential: jvolve = hotswap = indirection" `Quick
      differential_no_fault;
  ]
