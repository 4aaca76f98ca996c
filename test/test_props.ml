(* Property-based tests (QCheck):

   - compiled arithmetic/boolean expressions agree with a reference
     evaluator (compiler + JIT + interpreter correctness);
   - dynamic updates with default transformers preserve exactly the
     same-name same-type fields, over randomized class shapes;
   - UPT classification matches randomly chosen edit kinds. *)

module VM = Jv_vm
module J = Jvolve_core

(* --- random integer expressions --------------------------------------------- *)

type iexpr =
  | I_const of int
  | I_var of int (* one of 3 variables *)
  | I_add of iexpr * iexpr
  | I_sub of iexpr * iexpr
  | I_mul of iexpr * iexpr
  | I_neg of iexpr

let rec gen_iexpr depth st =
  if depth = 0 then
    if QCheck.Gen.bool st then I_const (QCheck.Gen.int_range (-100) 100 st)
    else I_var (QCheck.Gen.int_range 0 2 st)
  else
    match QCheck.Gen.int_range 0 5 st with
    | 0 -> I_const (QCheck.Gen.int_range (-100) 100 st)
    | 1 -> I_var (QCheck.Gen.int_range 0 2 st)
    | 2 -> I_add (gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
    | 3 -> I_sub (gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
    | 4 -> I_mul (gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
    | _ -> I_neg (gen_iexpr (depth - 1) st)

let rec eval_iexpr env = function
  | I_const k -> k
  | I_var i -> env.(i)
  | I_add (a, b) -> eval_iexpr env a + eval_iexpr env b
  | I_sub (a, b) -> eval_iexpr env a - eval_iexpr env b
  | I_mul (a, b) -> eval_iexpr env a * eval_iexpr env b
  | I_neg a -> -eval_iexpr env a

let rec print_iexpr = function
  | I_const k -> if k < 0 then Printf.sprintf "(0 - %d)" (-k) else string_of_int k
  | I_var i -> Printf.sprintf "v%d" i
  | I_add (a, b) -> Printf.sprintf "(%s + %s)" (print_iexpr a) (print_iexpr b)
  | I_sub (a, b) -> Printf.sprintf "(%s - %s)" (print_iexpr a) (print_iexpr b)
  | I_mul (a, b) -> Printf.sprintf "(%s * %s)" (print_iexpr a) (print_iexpr b)
  | I_neg a -> Printf.sprintf "(-%s)" (print_iexpr a)

let arith_agrees =
  QCheck.Test.make ~name:"compiled arithmetic agrees with reference"
    ~count:40
    QCheck.(
      make
        Gen.(
          tup4 (gen_iexpr 4)
            (int_range (-50) 50)
            (int_range (-50) 50)
            (int_range (-50) 50)))
    (fun (e, v0, v1, v2) ->
      let env = [| v0; v1; v2 |] in
      let expected = eval_iexpr env e in
      let src =
        Printf.sprintf
          {|
class Main {
  static int f(int v0, int v1, int v2) { return %s; }
  static void main() { Sys.println("" + f(%d, %d, %d)); }
}
|}
          (print_iexpr e) v0 v1 v2
      in
      String.equal
        (Printf.sprintf "%d\n" expected)
        (Helpers.output_of src))

(* --- random boolean expressions ------------------------------------------------ *)

type bexpr =
  | B_cmp of string * iexpr * iexpr
  | B_and of bexpr * bexpr
  | B_or of bexpr * bexpr
  | B_not of bexpr

let rec gen_bexpr depth st =
  if depth = 0 then
    B_cmp
      ( List.nth [ "<"; "<="; ">"; ">="; "=="; "!=" ] (QCheck.Gen.int_range 0 5 st),
        gen_iexpr 2 st,
        gen_iexpr 2 st )
  else
    match QCheck.Gen.int_range 0 3 st with
    | 0 ->
        B_cmp
          ( List.nth [ "<"; "<="; ">"; ">="; "=="; "!=" ]
              (QCheck.Gen.int_range 0 5 st),
            gen_iexpr 2 st,
            gen_iexpr 2 st )
    | 1 -> B_and (gen_bexpr (depth - 1) st, gen_bexpr (depth - 1) st)
    | 2 -> B_or (gen_bexpr (depth - 1) st, gen_bexpr (depth - 1) st)
    | _ -> B_not (gen_bexpr (depth - 1) st)

let rec eval_bexpr env = function
  | B_cmp (op, a, b) -> (
      let x = eval_iexpr env a and y = eval_iexpr env b in
      match op with
      | "<" -> x < y
      | "<=" -> x <= y
      | ">" -> x > y
      | ">=" -> x >= y
      | "==" -> x = y
      | _ -> x <> y)
  | B_and (a, b) -> eval_bexpr env a && eval_bexpr env b
  | B_or (a, b) -> eval_bexpr env a || eval_bexpr env b
  | B_not a -> not (eval_bexpr env a)

let rec print_bexpr = function
  | B_cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (print_iexpr a) op (print_iexpr b)
  | B_and (a, b) -> Printf.sprintf "(%s && %s)" (print_bexpr a) (print_bexpr b)
  | B_or (a, b) -> Printf.sprintf "(%s || %s)" (print_bexpr a) (print_bexpr b)
  | B_not a -> Printf.sprintf "(!%s)" (print_bexpr a)

let bool_agrees =
  QCheck.Test.make ~name:"compiled booleans agree with reference" ~count:40
    QCheck.(
      make Gen.(tup3 (gen_bexpr 3) (int_range (-20) 20) (int_range (-20) 20)))
    (fun (e, v0, v1) ->
      let env = [| v0; v1; 0 |] in
      let expected = if eval_bexpr env e then "T" else "F" in
      let src =
        Printf.sprintf
          {|
class Main {
  static void main() {
    int v0 = %d; int v1 = %d; int v2 = 0;
    if (%s) { Sys.println("T"); } else { Sys.println("F"); }
  }
}
|}
          v0 v1 (print_bexpr e)
      in
      String.equal (expected ^ "\n") (Helpers.output_of src))

(* --- randomized update preservation ---------------------------------------------- *)

(* Field universe: names f0..f5, each int or String.  v1 and v2 draw random
   subsets with random types; the default transformer must preserve
   exactly the same-name same-type intersection. *)

let field_names = [| "f0"; "f1"; "f2"; "f3"; "f4"; "f5" |]

type fspec = (int * bool) list (* (field index, is_int) *)

let gen_fspec : fspec QCheck.Gen.t =
  QCheck.Gen.(
    List.init 6 (fun i -> i) |> fun idxs st ->
    List.filter_map
      (fun i -> if bool st then Some (i, bool st) else None)
      idxs)

let class_src name (fs : fspec) =
  Printf.sprintf "class %s {\n%s}\n" name
    (String.concat ""
       (List.map
          (fun (i, is_int) ->
            Printf.sprintf "  %s %s;\n"
              (if is_int then "int" else "String")
              field_names.(i))
          fs))

let setter_src (fs : fspec) =
  String.concat ""
    (List.map
       (fun (i, is_int) ->
         if is_int then
           Printf.sprintf "    Keeper.it.%s = %d;\n" field_names.(i)
             (100 + i)
         else
           Printf.sprintf "    Keeper.it.%s = \"s%d\";\n" field_names.(i) i)
       fs)

let printer_src (fs : fspec) =
  let parts =
    List.map
      (fun (i, is_int) ->
        if is_int then
          Printf.sprintf "\" %s=\" + Keeper.it.%s" field_names.(i)
            field_names.(i)
        else
          Printf.sprintf "\" %s=\" + ns(Keeper.it.%s)" field_names.(i)
            field_names.(i))
      fs
  in
  match parts with [] -> "\"empty\"" | _ -> String.concat " + " parts

let program_src (fs : fspec) ~set =
  class_src "Payload" fs
  ^ Printf.sprintf
      {|
class Keeper { static Payload it; }
class Probe {
  static String ns(String s) { if (s == null) { return "-"; } return s; }
  static String describe() { return %s; }
  static void init() {
    Keeper.it = new Payload();
%s  }
}
class Main {
  static void main() {
    Probe.init();
    for (int i = 0; i < 40; i = i + 1) {
      Sys.println(Probe.describe());
      Thread.yieldNow();
    }
  }
}
|}
      (printer_src fs) (if set then setter_src fs else "")

let expected_line (v1 : fspec) (v2 : fspec) =
  (* after the update, v2's describe prints: common same-type fields keep
     v1's values, everything else is default *)
  let parts =
    List.map
      (fun (i, is_int) ->
        let preserved = List.mem (i, is_int) v1 in
        if is_int then
          Printf.sprintf " %s=%d" field_names.(i)
            (if preserved then 100 + i else 0)
        else
          Printf.sprintf " %s=%s" field_names.(i)
            (if preserved then Printf.sprintf "s%d" i else "-"))
      v2
  in
  match parts with [] -> "empty" | _ -> String.concat "" parts

let default_transformer_preserves =
  QCheck.Test.make
    ~name:"default transformer preserves same-name same-type fields"
    ~count:15
    QCheck.(make Gen.(tup2 gen_fspec gen_fspec))
    (fun (v1, v2) ->
      QCheck.assume (v1 <> v2);
      let old_src = program_src v1 ~set:true in
      let new_src = program_src v2 ~set:true in
      let old_program = Jv_lang.Compile.compile_program old_src in
      let new_program = Jv_lang.Compile.compile_program new_src in
      let vm = VM.Vm.create ~config:Helpers.test_config () in
      VM.Vm.boot vm old_program;
      ignore (VM.Vm.spawn_main vm ~main_class:"Main");
      VM.Vm.run vm ~rounds:5;
      let spec =
        J.Spec.make ~version_tag:"7" ~old_program ~new_program ()
      in
      let h = J.Jvolve.update_now vm spec in
      (match h.J.Jvolve.h_outcome with
      | J.Jvolve.Applied _ -> ()
      | o -> QCheck.Test.fail_reportf "update: %s" (J.Jvolve.outcome_to_string o));
      ignore (VM.Vm.run_to_quiescence ~max_rounds:100 vm);
      let out = VM.Vm.output vm in
      let want = expected_line v1 v2 ^ "\n" in
      if Helpers.contains out want then true
      else
        QCheck.Test.fail_reportf "expected %S in output %S (v1=%s v2=%s)"
          want out
          (String.concat ","
             (List.map (fun (i, b) -> Printf.sprintf "%d%c" i (if b then 'i' else 's')) v1))
          (String.concat ","
             (List.map (fun (i, b) -> Printf.sprintf "%d%c" i (if b then 'i' else 's')) v2)))

(* --- Spec.inverse round-trips ------------------------------------------------------ *)

(* The rollback of a rollback is the forward update again: programs are
   the same values, the recomputed diff matches, and the blacklist rides
   along unchanged.  (The version tag differs — it accumulates "rb"
   suffixes so renamed old classes never collide.) *)
let inverse_roundtrip =
  QCheck.Test.make ~name:"Spec.inverse round-trips" ~count:10
    QCheck.(make Gen.(tup2 gen_fspec gen_fspec))
    (fun (v1, v2) ->
      let old_program = Jv_lang.Compile.compile_program (program_src v1 ~set:true) in
      let new_program = Jv_lang.Compile.compile_program (program_src v2 ~set:true) in
      let blacklist =
        [
          {
            J.Diff.r_class = "Probe";
            r_name = "describe";
            r_sig = { Jv_classfile.Types.params = []; ret = Jv_classfile.Types.TVoid };
          };
        ]
      in
      let s = J.Spec.make ~blacklist ~version_tag:"9" ~old_program ~new_program () in
      let s' = J.Spec.inverse (J.Spec.inverse s) in
      s'.J.Spec.old_program == s.J.Spec.old_program
      && s'.J.Spec.new_program == s.J.Spec.new_program
      && s'.J.Spec.diff = s.J.Spec.diff
      && s'.J.Spec.blacklist = s.J.Spec.blacklist)

(* The inverse is not just a layout flip: tripping a guard window after a
   field-dropping update must restore the dropped fields' {e values} by
   replaying the retained update log (the forward transformer discarded
   them from the live object; only the log's old copies still hold them). *)
let inverse_restores_field_values =
  QCheck.Test.make
    ~name:"guard revert restores old-layout field values from the update log"
    ~count:10
    QCheck.(make Gen.(tup2 gen_fspec gen_fspec))
    (fun (v1, v2) ->
      QCheck.assume (v1 <> v2);
      let line1 = expected_line v1 v1 ^ "\n" in
      let line2 = expected_line v1 v2 ^ "\n" in
      QCheck.assume (line1 <> line2);
      let old_program =
        Jv_lang.Compile.compile_program (program_src v1 ~set:true)
      in
      let new_program =
        Jv_lang.Compile.compile_program (program_src v2 ~set:true)
      in
      let vm = VM.Vm.create ~config:Helpers.test_config () in
      VM.Vm.boot vm old_program;
      ignore (VM.Vm.spawn_main vm ~main_class:"Main");
      VM.Vm.run vm ~rounds:5;
      let spec = J.Spec.make ~version_tag:"8" ~old_program ~new_program () in
      let h = J.Jvolve.update_now ~guard:(J.Guard.config ()) vm spec in
      (match h.J.Jvolve.h_outcome with
      | J.Jvolve.Applied _ -> ()
      | o ->
          QCheck.Test.fail_reportf "update: %s" (J.Jvolve.outcome_to_string o));
      (* let the new version print a few lines, then trip the window *)
      VM.Vm.run vm ~rounds:6;
      let plan = Jv_faults.Faults.create ~seed:17 () in
      Jv_faults.Faults.arm plan ~point:"guard.trip" ~max_fires:1
        Jv_faults.Faults.Raise;
      VM.Vm.set_faults vm (Some plan);
      (match J.Jvolve.run_to_guard_close vm h with
      | J.Jvolve.Reverted _ -> ()
      | o ->
          QCheck.Test.fail_reportf "expected a revert, got %s"
            (J.Jvolve.outcome_to_string o));
      VM.Vm.set_faults vm None;
      ignore (VM.Vm.run_to_quiescence ~max_rounds:200 vm);
      let out = VM.Vm.output vm in
      (* the updated code demonstrably ran ... *)
      if not (Helpers.contains out line2) then
        QCheck.Test.fail_reportf "no post-update line %S in %S" line2 out;
      (* ... and after the revert the last line is the original one,
         dropped-field values included *)
      let last =
        match List.rev (String.split_on_char '\n' (String.trim out)) with
        | l :: _ -> l ^ "\n"
        | [] -> ""
      in
      if last <> line1 then
        QCheck.Test.fail_reportf
          "expected restored line %S at the end, got %S (full output %S)"
          line1 last out;
      true)

(* --- randomized UPT classification ------------------------------------------------- *)

type edit = E_add_field | E_del_field | E_chg_body | E_add_method

let edit_gen = QCheck.Gen.oneofl [ E_add_field; E_del_field; E_chg_body; E_add_method ]

let classification_matches =
  QCheck.Test.make ~name:"UPT classifies random edits correctly" ~count:20
    (QCheck.make edit_gen)
    (fun edit ->
      let v1 =
        {|class A { int kept; int doomed; int f() { return kept; } }|}
      in
      let v2 =
        match edit with
        | E_add_field ->
            {|class A { int kept; int doomed; int added; int f() { return kept; } }|}
        | E_del_field -> {|class A { int kept; int f() { return kept; } }|}
        | E_chg_body ->
            {|class A { int kept; int doomed; int f() { return kept + 1; } }|}
        | E_add_method ->
            {|class A { int kept; int doomed; int f() { return kept; } int g() { return 0; } }|}
      in
      let d =
        J.Diff.compute
          ~old_program:(Jv_lang.Compile.compile_program v1)
          ~new_program:(Jv_lang.Compile.compile_program v2)
      in
      match edit with
      | E_chg_body ->
          d.J.Diff.class_updates = [] && List.length d.J.Diff.body_updates = 1
      | E_add_field ->
          d.J.Diff.class_updates = [ "A" ]
          && d.J.Diff.stats.J.Diff.s_fields_added = 1
      | E_del_field ->
          d.J.Diff.class_updates = [ "A" ]
          && d.J.Diff.stats.J.Diff.s_fields_deleted = 1
      | E_add_method ->
          d.J.Diff.class_updates = [ "A" ]
          && d.J.Diff.stats.J.Diff.s_methods_added = 1)

(* --- admission soundness vs. the heap verifier ------------------------------ *)

(* Over randomized class shapes: a spec that survives admission control
   either applies with a clean post-transform heap walk, or aborts for a
   reason other than heap verification with a trustworthy rollback.
   Admission rejecting the spec is vacuously safe (it never pauses the
   VM, so there is nothing to verify). *)
let admitted_specs_verify =
  QCheck.Test.make
    ~name:"specs surviving admission never fail the heap verifier" ~count:15
    QCheck.(make Gen.(tup2 gen_fspec gen_fspec))
    (fun (v1, v2) ->
      QCheck.assume (v1 <> v2);
      let old_program =
        Jv_lang.Compile.compile_program (program_src v1 ~set:true)
      in
      let new_program =
        Jv_lang.Compile.compile_program (program_src v2 ~set:true)
      in
      let config =
        { Helpers.test_config with VM.State.verify_heap = true }
      in
      let vm = VM.Vm.create ~config () in
      VM.Vm.boot vm old_program;
      ignore (VM.Vm.spawn_main vm ~main_class:"Main");
      VM.Vm.run vm ~rounds:5;
      let spec = J.Spec.make ~version_tag:"13" ~old_program ~new_program () in
      let p = J.Transformers.prepare spec in
      if J.Admission.rejections ~strict:false (J.Admission.review p) <> []
      then true (* rejected: the VM never pauses *)
      else begin
        let h = J.Jvolve.request vm p in
        let budget = ref 300 in
        while (not (J.Jvolve.resolved h)) && !budget > 0 do
          ignore (VM.Sched.round vm);
          decr budget
        done;
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied _ ->
            (* P_verify already passed inside apply with the update log's
               old copies allowed; collect once so the dead copies are
               gone, then the committed heap re-verifies with no
               allowance at all *)
            ignore (VM.Gc.collect vm);
            let rep = VM.Heapverify.run vm in
            if rep.VM.Heapverify.hv_ok then true
            else
              QCheck.Test.fail_reportf "committed heap fails verify: %s"
                (match rep.VM.Heapverify.hv_issues with
                | i :: _ -> VM.Heapverify.issue_to_string i
                | [] -> "?")
        | J.Jvolve.Aborted a ->
            if
              a.J.Updater.a_phase <> J.Updater.P_verify
              && a.J.Updater.a_rolled_back
            then true
            else
              QCheck.Test.fail_reportf "admitted spec aborted: %s"
                (J.Updater.abort_to_string a)
        | J.Jvolve.Reverted v ->
            QCheck.Test.fail_reportf "unguarded update reverted: %s"
              (J.Guard.verdict_to_string v)
        | J.Jvolve.Pending ->
            QCheck.Test.fail_reportf "update never resolved"
      end)

(* --- fault schedules never leave the fleet permanently mixed --------------- *)

(* Arbitrary fault schedule over a rolling rollout with retry/backoff:
   whatever fires, the fleet converges — every in-service instance ends
   on one version (all-old after a coherent halt, all-new after retries
   succeed), with incoherent survivors quarantined, and the dropped
   in-flight connection count stays bounded by the work the rollout
   actually attempted. *)

module A = Jv_apps
module F = Jv_fleet
module Faults = Jv_faults.Faults

let gen_schedule =
  QCheck.Gen.(
    tup4 (int_range 0 30) (int_bound 1000)
      (oneofl [ "updater.transform"; "updater.gc"; "updater.load"; "updater.*" ])
      bool)

let print_schedule (rate_pct, seed, point, quarantine) =
  Printf.sprintf "{rate=%d%%; seed=%d; point=%s; on_exhausted=%s}" rate_pct
    seed point
    (if quarantine then "Quarantine" else "Halt")

let fleet_config =
  { VM.State.default_config with VM.State.heap_words = 1 lsl 18 }

let rollout_converges =
  QCheck.Test.make ~count:6
    ~name:"faulty rollouts converge to one version (or quarantine)"
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun (rate_pct, seed, point, quarantine) ->
      let size = 3 in
      let fleet =
        F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
          ~profile:A.App.miniweb ~version:"5.1.1" ~size ()
      in
      F.Fleet.run fleet ~rounds:30;
      ignore (F.Fleet.attach_load ~concurrency:(2 * size) fleet);
      F.Fleet.run fleet ~rounds:60;
      let plan = Faults.create ~seed () in
      if rate_pct > 0 then
        Faults.arm plan ~point ~rate:(float_of_int rate_pct /. 100.0)
          Faults.Raise;
      F.Fleet.set_faults fleet (Some plan);
      let params =
        {
          (F.Orchestrator.default_params
             (F.Orchestrator.Rolling { batch_size = 1 }))
          with
          F.Orchestrator.update_timeout = 200;
          max_retries = 2;
          backoff_base = 10;
          on_exhausted = (if quarantine then `Quarantine else `Halt);
        }
      in
      let r = F.Orchestrator.run ~params ~fleet ~to_version:"5.1.2" () in
      F.Fleet.set_faults fleet None;
      F.Fleet.run fleet ~rounds:30;
      let in_service =
        List.filter
          (fun (i : F.Instance.t) ->
            i.F.Instance.i_status <> F.Instance.Out_of_service)
          (F.Fleet.instances fleet)
      in
      let converged =
        match F.Fleet.uniform_version fleet with
        | Some ("5.1.1" | "5.1.2") -> true
        | Some v -> QCheck.Test.fail_reportf "stray version %s" v
        | None ->
            if in_service = [] then true (* everything quarantined *)
            else
              QCheck.Test.fail_reportf
                "permanently mixed: %s"
                (String.concat ","
                   (List.map
                      (fun (i : F.Instance.t) -> i.F.Instance.i_version)
                      in_service))
      in
      let attempts =
        List.length r.F.Orchestrator.r_updated
        + List.length r.F.Orchestrator.r_rolled_back
        + List.length r.F.Orchestrator.r_aborted
        + List.length r.F.Orchestrator.r_quarantined
        + r.F.Orchestrator.r_retries
      in
      let dropped = F.Fleet.dropped_in_flight fleet in
      (* each attempt drains at most the instance's in-flight window *)
      let bound = (attempts + size) * 2 * size in
      if dropped > bound then
        QCheck.Test.fail_reportf "dropped %d conns > bound %d" dropped bound;
      converged)

(* --- lazy/eager differential over the app ladders --------------------------

   For every rung of every app's update ladder, two fresh VMs — one
   updating eagerly (stop-the-world transform), one lazily (metadata-only
   commit, read-barrier + sweeper) — are driven through the exact same
   scripted sessions before and after the update.  The transcripts must
   be byte-identical: laziness is an implementation strategy, never an
   observable one.  Afterwards the lazy VM drains its window, collects,
   and must show a verified heap with zero mixed-epoch residue. *)

let diff_session vm ~port lines : string list =
  let module Simnet = Jv_simnet.Simnet in
  let net = vm.VM.State.net in
  match Simnet.connect net ~port with
  | None -> QCheck.Test.fail_reportf "differential: port %d refused" port
  | Some cid ->
      let recv_one sent =
        let resp = ref None in
        let budget = ref 500 in
        while !resp = None && !budget > 0 do
          VM.Vm.run vm ~rounds:1;
          decr budget;
          match Simnet.client_recv net ~conn_id:cid with
          | `Line l -> resp := Some l
          | `Eof -> QCheck.Test.fail_reportf "differential: EOF after %S" sent
          | `Wait -> ()
        done;
        match !resp with
        | Some l -> l
        | None -> QCheck.Test.fail_reportf "differential: no reply to %S" sent
      in
      let resps =
        List.map
          (fun line ->
            Simnet.client_send net ~conn_id:cid line;
            recv_one line)
          lines
      in
      Simnet.client_close net ~conn_id:cid;
      Simnet.reap net ~conn_id:cid;
      resps

let diff_drive vm (d : A.App.t) buf =
  List.iter
    (fun (port, script) ->
      List.iter
        (fun r ->
          Buffer.add_string buf r;
          Buffer.add_char buf '\n')
        (diff_session vm ~port script))
    (A.App.loads d)

(* The spec's own generated transformer source, handed over as a
   complete custom source: the same bundle, but every object transformer
   then runs on the interpreter instead of as a copy plan. *)
let all_interpreted (spec : J.Spec.t) =
  let src = J.Transformers.generate_source spec in
  { spec with J.Spec.transformer_src = Some src }

(* One rung, one mode: boot at [from_version], drive, update, drive.
   [interpret] runs every object transformer on the interpreter
   ([all_interpreted]).  Returns the transcript and the VM. *)
let diff_run ?(confree = true) ?(interpret = false) ~lazy_mode ~warmup
    (d : A.App.t) (from_version, to_version) =
  let config =
    if lazy_mode then
      {
        A.App.default_config with
        VM.State.lazy_update = true;
        VM.State.lazy_sweep_budget = 16;
        confree;
      }
    else { A.App.default_config with VM.State.confree = confree }
  in
  let vm = A.App.boot ~config d (A.App.compile d ~version:from_version) in
  VM.Vm.run vm ~rounds:warmup;
  let buf = Buffer.create 1024 in
  diff_drive vm d buf;
  let spec =
    A.App.spec d ~from_version ~to_version
      ~old_program:(A.App.compile d ~version:from_version)
      ~new_program:(A.App.compile d ~version:to_version)
  in
  let spec = if interpret then all_interpreted spec else spec in
  let h = J.Jvolve.update_now ~timeout_rounds:400 vm spec in
  Buffer.add_string buf
    (if J.Jvolve.succeeded h then "update: applied\n" else "update: refused\n");
  (* these sessions run against the half-transformed heap in lazy mode:
     the barrier must make that invisible *)
  diff_drive vm d buf;
  if lazy_mode then begin
    if Result.is_error (VM.State.drain_window vm) then
      QCheck.Test.fail_reportf "%s %s->%s: lazy drain rolled back"
        d.A.App.pr_name from_version to_version;
    ignore (VM.Gc.collect vm);
    let residue = Test_lazy.residue_count vm in
    if residue <> 0 then
      QCheck.Test.fail_reportf "%s %s->%s: %d lazy-residue objects"
        d.A.App.pr_name from_version to_version residue;
    let rep = VM.Heapverify.run vm in
    if not rep.VM.Heapverify.hv_ok then
      QCheck.Test.fail_reportf "%s %s->%s: lazy heap fails verification"
        d.A.App.pr_name from_version to_version
  end;
  (Buffer.contents buf, vm)

let diff_rung ?confree ~lazy_mode ~warmup d rung =
  fst (diff_run ?confree ~lazy_mode ~warmup d rung)

let ladder_rungs (d : A.App.t) =
  List.map
    (fun ((fv, _), (tv, _)) -> (fv, tv))
    (A.Patching.update_pairs d.A.App.pr_versioned)

(* The live heap, word for word, after a full collection. *)
let heap_words vm =
  ignore (VM.Gc.collect vm);
  let h = vm.VM.State.heap in
  Array.sub h.VM.Heap.space 0 h.VM.Heap.free

let lazy_eager_differential =
  QCheck.Test.make ~name:"lazy and eager updates are indistinguishable"
    ~count:2
    QCheck.(make Gen.(int_range 0 10))
    (fun warmup ->
      List.iter
        (fun d ->
          List.iter
            (fun rung ->
              let eager = diff_rung ~lazy_mode:false ~warmup d rung in
              let lz = diff_rung ~lazy_mode:true ~warmup d rung in
              if not (String.equal eager lz) then
                QCheck.Test.fail_reportf
                  "%s %s->%s: transcripts diverge\n--- eager ---\n%s\n--- lazy ---\n%s"
                  d.A.App.pr_name (fst rung) (snd rung) eager lz)
            (List.map
               (fun ((fv, _), (tv, _)) -> (fv, tv))
               (A.Patching.update_pairs d.A.App.pr_versioned)))
        A.App.all;
      true)

(* --- copy plans vs the interpreter over the app ladders -----------------------

   Every rung of every ladder, updated on two fresh VMs: once with the
   spec as given, so default object transformers run as copy plans, and
   once with the generated source handed over as a complete custom
   source — the same bundle, but every transformer then runs on the
   interpreter.  Transcripts must be byte-identical and the live heaps
   equal word for word, eagerly and lazily. *)

let planned_pairs vm =
  Jv_obs.Obs.counter_value vm.VM.State.obs "core.update.planned_pairs"

let plan_interp_differential =
  QCheck.Test.make ~name:"copy plans and the interpreter agree" ~count:1
    QCheck.(make Gen.(int_range 0 10))
    (fun warmup ->
      let planned = ref 0 in
      List.iter
        (fun (d : A.App.t) ->
          List.iter
            (fun rung ->
              List.iter
                (fun lazy_mode ->
                  let where =
                    Printf.sprintf "%s %s->%s (%s)" d.A.App.pr_name
                      (fst rung) (snd rung)
                      (if lazy_mode then "lazy" else "eager")
                  in
                  let plan, vm_p = diff_run ~lazy_mode ~warmup d rung in
                  let interp, vm_i =
                    diff_run ~interpret:true ~lazy_mode ~warmup d rung
                  in
                  if not (String.equal plan interp) then
                    QCheck.Test.fail_reportf
                      "%s: transcripts diverge\n--- plan ---\n%s\n--- \
                       interpreted ---\n%s"
                      where plan interp;
                  if heap_words vm_p <> heap_words vm_i then
                    QCheck.Test.fail_reportf "%s: heaps differ" where;
                  if planned_pairs vm_i <> 0 then
                    QCheck.Test.fail_reportf "%s: a custom source ran a plan"
                      where;
                  planned := !planned + planned_pairs vm_p)
                [ false; true ])
            (ladder_rungs d))
        A.App.all;
      if !planned = 0 then
        QCheck.Test.fail_reportf "no rung ran a copy plan: nothing compared";
      true)

(* The paper's Table 1 update at small scale: [Change] gains a field and
   its default transformer copies the rest, on both paths. *)
let table1_v1 =
  {|
class Holder { int x; }
class Change { int a; int b; int c; Holder r1; Holder r2; Holder r3; }
class NoChange { int a; int b; int c; Holder r1; Holder r2; Holder r3; }
class Root { static Change[] cs; static NoChange[] ns; }
class Main {
  static void main() { while (true) { Thread.sleep(10); } }
}
|}

let table1_v2 =
  A.Patching.patch table1_v1
    [ ("class Change { int a;", "class Change { int d; int a;") ]

let table1_case ~interpret ~lazy_mode () =
  let n = 1000 in
  let config = { Helpers.test_config with VM.State.lazy_update = lazy_mode } in
  let vm = VM.Vm.create ~config () in
  let old_program = Jv_lang.Compile.compile_program table1_v1 in
  VM.Vm.boot vm old_program;
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:2;
  let reg = vm.VM.State.reg and heap = vm.VM.State.heap in
  let static name =
    match VM.Rt.find_static_info reg (VM.Rt.require_class reg "Root") name with
    | Some si -> si.VM.Rt.si_slot
    | None -> Alcotest.failf "no static Root.%s" name
  in
  let off cls f =
    match VM.Rt.find_field_info (VM.Rt.require_class reg cls) f with
    | Some fi -> fi.VM.Rt.fi_offset
    | None -> Alcotest.failf "no field %s.%s" cls f
  in
  (* object i of each class holds a=i b=2i c=3i, written straight into
     the heap (the heap is large enough that nothing collects here) *)
  List.iter
    (fun (cls, arr) ->
      let slot = static arr in
      VM.State.jtoc_set vm slot
        (VM.Value.of_ref (VM.State.alloc_array vm ~len:n));
      for i = 0 to n - 1 do
        let o = VM.State.alloc_object vm (VM.Rt.require_class reg cls) in
        List.iter
          (fun (f, k) ->
            VM.Heap.set heap ~addr:o ~off:(off cls f) (VM.Value.of_int (k * i)))
          [ ("a", 1); ("b", 2); ("c", 3) ];
        VM.Heap.set heap
          ~addr:(VM.Value.to_ref (VM.State.jtoc_get vm slot))
          ~off:(VM.Heap.array_header_words + i)
          (VM.Value.of_ref o)
      done)
    [ ("Change", "cs"); ("NoChange", "ns") ];
  let spec =
    J.Spec.make ~version_tag:"t1" ~old_program
      ~new_program:(Jv_lang.Compile.compile_program table1_v2)
      ()
  in
  let spec = if interpret then all_interpreted spec else spec in
  let h = J.Jvolve.update_now ~timeout_rounds:50 vm spec in
  if not (J.Jvolve.succeeded h) then
    Alcotest.failf "update refused: %s"
      (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
  if vm.VM.State.lazy_info <> None then
    Alcotest.(check bool) "lazy window drained" true
      (Result.is_ok (VM.State.drain_window vm));
  let obs = vm.VM.State.obs in
  Alcotest.(check (pair int int))
    "(planned, interpreted) pairs"
    (if interpret then (0, n) else (n, 0))
    ( Jv_obs.Obs.counter_value obs "core.update.planned_pairs",
      Jv_obs.Obs.counter_value obs "core.update.interpreted_pairs" );
  List.iter
    (fun (cls, arr, want) ->
      for i = 0 to n - 1 do
        let o =
          VM.Value.to_ref
            (VM.Heap.get heap
               ~addr:(VM.Value.to_ref (VM.State.jtoc_get vm (static arr)))
               ~off:(VM.Heap.array_header_words + i))
        in
        let get (f, _) =
          VM.Value.to_int (VM.Heap.get heap ~addr:o ~off:(off cls f))
        in
        let got = List.map get want in
        if got <> List.map (fun (_, k) -> k * i) want then
          Alcotest.failf "%s %d holds %s" cls i
            (String.concat " "
               (List.map2
                  (fun (f, _) v -> Printf.sprintf "%s=%d" f v)
                  want got))
      done)
    [
      ("Change", "cs", [ ("a", 1); ("b", 2); ("c", 3); ("d", 0) ]);
      ("NoChange", "ns", [ ("a", 1); ("b", 2); ("c", 3) ]);
    ];
  heap_words vm

let table1_both_paths () =
  List.iter
    (fun lazy_mode ->
      let plan = table1_case ~interpret:false ~lazy_mode () in
      let interp = table1_case ~interpret:true ~lazy_mode () in
      Alcotest.(check bool)
        "plan and interpreter heaps equal" true (plan = interp))
    [ false; true ]

(* --- con-freeness differential over the app ladders --------------------------

   For every rung of every app's update ladder, two fresh VMs — one with
   the con-freeness analysis on, one with it off — run the exact same
   scripted sessions before and after the update attempt.  The analysis
   may only *relax* the safe-point condition, never break an update or
   change observable behaviour:

   - if the rung applies with the analysis off, it must also apply with
     it on (the proven set only shrinks the restricted set);
   - when both apply, the transcripts must be byte-identical (a proof
     lets old code keep running, it never changes what that code does);
   - rungs the analysis newly unlocks (off times out, on applies) are
     the win this feature exists for — counted, and at least one must
     appear across the four ladders (miniweb 5.1.3 at minimum). *)

let confree_differential =
  QCheck.Test.make ~name:"con-freeness only relaxes the safe point"
    ~count:1
    QCheck.(make Gen.(int_range 0 10))
    (fun warmup ->
      let unlocked = ref 0 in
      List.iter
        (fun d ->
          List.iter
            (fun rung ->
              let on = diff_rung ~confree:true ~lazy_mode:false ~warmup d rung in
              let off = diff_rung ~confree:false ~lazy_mode:false ~warmup d rung in
              let applied t = Helpers.contains t "update: applied\n" in
              match (applied on, applied off) with
              | false, true ->
                  QCheck.Test.fail_reportf
                    "%s %s->%s: applies without con-freeness but not with it"
                    d.A.App.pr_name (fst rung) (snd rung)
              | true, true ->
                  if not (String.equal on off) then
                    QCheck.Test.fail_reportf
                      "%s %s->%s: transcripts diverge\n--- on ---\n%s\n--- \
                       off ---\n%s"
                      d.A.App.pr_name (fst rung) (snd rung) on off
              | true, false -> incr unlocked
              | false, false -> ())
            (List.map
               (fun ((fv, _), (tv, _)) -> (fv, tv))
               (A.Patching.update_pairs d.A.App.pr_versioned)))
        A.App.all;
      if !unlocked < 1 then
        QCheck.Test.fail_reportf
          "expected at least one rung only the analysis unlocks, found none";
      true)

(* --- the verifier collects stale update-log copies itself -------------------

   Regression for the observability footgun: after an *unguarded* eager
   commit the update log's pristine old copies linger as unreferenced
   garbage until some collection erases them, and [Heapverify.run] used
   to report them as corruption.  It now recognizes the
   all-issues-are-unreferenced-stale-copies shape, collects once, and
   re-verifies. *)
let verifier_autocollects_stale_copies () =
  let vm = Test_lazy.boot_boxes ~config:Helpers.test_config () in
  let h =
    J.Jvolve.update_now ~timeout_rounds:100 vm (Test_lazy.boxes_spec ())
  in
  if not (J.Jvolve.succeeded h) then Alcotest.fail "eager update refused";
  (* no manual Gc.collect here: that was the workaround *)
  let rep = VM.Heapverify.run vm in
  Alcotest.(check bool) "verdict is green" true rep.VM.Heapverify.hv_ok;
  Alcotest.(check bool) "a stale-copy collection ran" true
    rep.VM.Heapverify.hv_collected;
  (* and the collection is not re-run once the heap is actually clean *)
  let rep2 = VM.Heapverify.run vm in
  Alcotest.(check bool) "second verdict green" true rep2.VM.Heapverify.hv_ok;
  Alcotest.(check bool) "no second collection" false
    rep2.VM.Heapverify.hv_collected

let suite =
  [
    QCheck_alcotest.to_alcotest arith_agrees;
    QCheck_alcotest.to_alcotest bool_agrees;
    QCheck_alcotest.to_alcotest default_transformer_preserves;
    QCheck_alcotest.to_alcotest inverse_roundtrip;
    QCheck_alcotest.to_alcotest inverse_restores_field_values;
    QCheck_alcotest.to_alcotest classification_matches;
    QCheck_alcotest.to_alcotest admitted_specs_verify;
    QCheck_alcotest.to_alcotest rollout_converges;
    QCheck_alcotest.to_alcotest lazy_eager_differential;
    QCheck_alcotest.to_alcotest plan_interp_differential;
    Alcotest.test_case "table 1 update: copy plan = interpreter" `Quick
      table1_both_paths;
    QCheck_alcotest.to_alcotest confree_differential;
    Alcotest.test_case "heapverify auto-collects stale copies" `Quick
      verifier_autocollects_stale_copies;
  ]
