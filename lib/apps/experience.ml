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

(* [App.default_config], kept under this name for the benchmark. *)
let default_config = App.default_config

let total_requests loads =
  List.fold_left
    (fun acc w -> acc + w.Workload.load.completed_requests)
    0 loads

let total_errors loads =
  List.fold_left (fun acc w -> acc + w.Workload.load.errors) 0 loads

(* Attempt one dynamic update under load (or idle). *)
let run_one ?(config = default_config) ?(concurrency = 4) ?(warmup = 60)
    ?(cooldown = 200) ?(timeout_rounds = 250) ?(loaded = true) (d : App.t)
    ~from_version ~to_version : attempt =
  let old_program = App.compile d ~version:from_version in
  let new_program = App.compile d ~version:to_version in
  let vm = App.boot ~config d old_program in
  let loads = if loaded then App.attach vm d ~concurrency else [] in
  VM.Vm.run vm ~rounds:warmup;
  let before = total_requests loads in
  let spec = App.spec d ~from_version ~to_version ~old_program ~new_program in
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
    a_app = d.App.pr_name;
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
let run_app ?config ?concurrency ?loaded (d : App.t) : attempt list =
  Patching.update_pairs d.App.pr_versioned
  |> List.map (fun ((from_v, _), (to_v, _)) ->
         run_one ?config ?concurrency ?loaded d ~from_version:from_v
           ~to_version:to_v)

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
