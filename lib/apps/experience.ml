(* The experience harness: reproduces the paper's §4 methodology.

   "For each version starting at 5.1.0, we ran Jetty under full load.
   After 30 seconds we tried to apply the update to the next version."

   For every consecutive version pair of every application this boots the
   old version on a fresh VM, attaches the app's workload, warms up,
   requests the dynamic update, and records the outcome alongside the UPT
   statistics (Tables 2-4), OSR/barrier usage, and whether a method-body-
   only system could have applied the same update. *)

module VM = Jv_vm
module J = Jvolve_core

type outcome =
  | Applied of J.Updater.timings
  | Aborted of string

type attempt = {
  a_app : string;
  a_from : string;
  a_to : string;
  a_stats : J.Diff.stats;
  a_outcome : outcome;
  a_hotswap_ok : bool; (* supportable by a method-body-only system? *)
  a_osr : int;
  a_barriers : int;
  a_requests_before : int; (* workload progress before the update *)
  a_requests_after : int; (* and after (proof the server still works) *)
  a_errors : int;
}

(* Application descriptors: how to boot and load each app. *)
type app_desc = {
  d_name : string;
  d_versioned : Patching.versioned;
  d_loads : (int * string list * (string -> bool)) list;
      (* (port, script, ok) — one workload per protocol the app serves *)
  d_overrides : to_version:string -> Common.overrides;
      (* custom transformer bodies (both directions) per update step *)
}

let web_desc =
  {
    d_name = "miniweb";
    d_versioned = Miniweb.app;
    d_loads = [ (Miniweb.protocol_port, Workload.web_script, Workload.web_ok) ];
    d_overrides = (fun ~to_version:_ -> Common.no_overrides);
  }

let mail_desc =
  {
    d_name = "minimail";
    d_versioned = Minimail.app;
    d_loads =
      [
        (Minimail.smtp_port, Workload.smtp_script, Workload.default_ok);
        (Minimail.pop_port, Workload.pop_script, Workload.default_ok);
      ];
    d_overrides = (fun ~to_version -> Minimail.overrides ~to_version);
  }

let ftp_desc =
  {
    d_name = "miniftp";
    d_versioned = Miniftp.app;
    d_loads = [ (Miniftp.port, Workload.ftp_script, Workload.default_ok) ];
    d_overrides = (fun ~to_version:_ -> Common.no_overrides);
  }

let store_desc =
  {
    d_name = "ministore";
    d_versioned = Ministore.app;
    d_loads =
      [ (Ministore.port, Workload.store_script, Workload.store_ok) ];
    d_overrides = (fun ~to_version -> Ministore.overrides ~to_version);
  }

let all_apps = [ web_desc; mail_desc; ftp_desc; store_desc ]

(* High opt threshold keeps the per-session run() methods base-compiled
   (in Jikes RVM they are never sample-hot either); the per-request
   handler methods still cross it and exercise the opt compiler. *)
let default_config =
  {
    VM.State.default_config with
    VM.State.heap_words = 1 lsl 19;
    opt_threshold = 150;
  }

let boot_version ?(config = default_config) (d : app_desc) ~version =
  let src = Patching.source d.d_versioned ~version in
  let classes = Jv_lang.Compile.compile_program src in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm classes;
  (* server responses any of the app's protocols would reject count as
     app-level errors, charged to the code epoch that sent them (the
     guard watchdog's 5xx signal) *)
  VM.Vm.set_response_classifier vm
    (Some (fun s -> List.exists (fun (_, _, ok) -> ok s) d.d_loads));
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  (* let the server boot and open its listeners *)
  VM.Vm.run vm ~rounds:5;
  vm

let attach_loads vm (d : app_desc) ~concurrency =
  List.map
    (fun (port, script, ok) ->
      Workload.attach vm ~port ~script ~ok ~concurrency ())
    d.d_loads

let total_requests loads =
  List.fold_left
    (fun acc w -> acc + w.Workload.load.completed_requests)
    0 loads

let total_errors loads =
  List.fold_left (fun acc w -> acc + w.Workload.load.errors) 0 loads

(* Attempt one dynamic update under load (or idle). *)
let run_one ?(config = default_config) ?(concurrency = 4) ?(warmup = 60)
    ?(cooldown = 200) ?(timeout_rounds = 250) ?(loaded = true) (d : app_desc)
    ~from_version ~to_version : attempt =
  let old_src = Patching.source d.d_versioned ~version:from_version in
  let new_src = Patching.source d.d_versioned ~version:to_version in
  let old_program = Jv_lang.Compile.compile_program old_src in
  let new_program = Jv_lang.Compile.compile_program new_src in
  let vm = boot_version ~config d ~version:from_version in
  let loads = if loaded then attach_loads vm d ~concurrency else [] in
  VM.Vm.run vm ~rounds:warmup;
  let before = total_requests loads in
  let spec =
    Common.spec
      ~overrides:(d.d_overrides ~to_version)
      ~version_tag:(Common.version_tag from_version)
      ~old_program ~new_program ()
  in
  let outcome, osr, barriers =
    match J.Jvolve.update_now ~timeout_rounds vm spec with
    | h -> (
        match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t ->
            (Applied t, t.J.Updater.u_osr, h.J.Jvolve.h_barriers_installed)
        | J.Jvolve.Aborted a ->
            (Aborted (J.Updater.abort_to_string a), 0,
             h.J.Jvolve.h_barriers_installed)
        | J.Jvolve.Reverted v ->
            (Aborted ("reverted: " ^ J.Guard.verdict_to_string v), 0,
             h.J.Jvolve.h_barriers_installed)
        | J.Jvolve.Pending ->
            (Aborted "still pending after max rounds", 0,
             h.J.Jvolve.h_barriers_installed))
    | exception J.Transformers.Prepare_error e ->
        (Aborted ("prepare: " ^ e), 0, 0)
  in
  VM.Vm.run vm ~rounds:cooldown;
  let after = total_requests loads in
  List.iter (fun w -> Workload.detach vm w) loads;
  {
    a_app = d.d_name;
    a_from = from_version;
    a_to = to_version;
    a_stats = spec.J.Spec.diff.J.Diff.stats;
    a_outcome = outcome;
    a_hotswap_ok = Jv_baseline.Hotswap.supported spec.J.Spec.diff;
    a_osr = osr;
    a_barriers = barriers;
    a_requests_before = before;
    a_requests_after = after;
    a_errors = total_errors loads;
  }

(* Walk an app's whole release history. *)
let run_app ?config ?concurrency ?loaded (d : app_desc) : attempt list =
  Patching.update_pairs d.d_versioned
  |> List.map (fun ((from_v, _), (to_v, _)) ->
         run_one ?config ?concurrency ?loaded d ~from_version:from_v
           ~to_version:to_v)

let run_all ?config ?concurrency ?loaded () : attempt list =
  List.concat_map (fun d -> run_app ?config ?concurrency ?loaded d) all_apps

(* --- reporting ----------------------------------------------------------- *)

let outcome_str = function
  | Applied t ->
      Printf.sprintf "applied (%.1f ms, %d objs, %d OSR)"
        t.J.Updater.u_total_ms t.J.Updater.u_transformed_objects
        t.J.Updater.u_osr
  | Aborted e ->
      let e =
        if String.length e > 60 then String.sub e 0 60 ^ "..." else e
      in
      "ABORTED: " ^ e

let stats_row (s : J.Diff.stats) =
  Printf.sprintf "%3d %3d %3d | %3d %3d %4d/%-3d | %3d %3d"
    s.J.Diff.s_classes_added s.J.Diff.s_classes_deleted
    s.J.Diff.s_classes_changed s.J.Diff.s_methods_added
    s.J.Diff.s_methods_deleted s.J.Diff.s_methods_changed_body
    s.J.Diff.s_methods_changed_sig s.J.Diff.s_fields_added
    s.J.Diff.s_fields_deleted

let print_table ppf (attempts : attempt list) =
  Fmt.pf ppf
    "%-9s %-7s -> %-7s | cls +  -  ~ | mth  +   -    chg   | fld +  - | \
     hotswap | result@."
    "app" "from" "to";
  List.iter
    (fun a ->
      Fmt.pf ppf "%-9s %-7s -> %-7s | %s | %-7s | %s@." a.a_app a.a_from
        a.a_to (stats_row a.a_stats)
        (if a.a_hotswap_ok then "yes" else "no")
        (outcome_str a.a_outcome))
    attempts

let summary (attempts : attempt list) =
  let applied =
    List.length
      (List.filter (fun a -> match a.a_outcome with Applied _ -> true | _ -> false)
         attempts)
  in
  let hotswap = List.length (List.filter (fun a -> a.a_hotswap_ok) attempts) in
  (applied, hotswap, List.length attempts)
