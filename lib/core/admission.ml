(* Admission control: lint a prepared update before the VM pauses.

   Everything here is static — it looks only at the spec, the compiled
   transformer bundle, and the post-update class world, never at the
   running heap — so a rejection costs a few milliseconds of UPT time
   instead of a stop-the-world pause followed by a rollback.  The
   checks mirror the ways an update can sink later:

   - the spec must be inside Jvolve's model at all (no hierarchy
     permutations);
   - the spec's recorded diff must agree with a recomputation from its
     own old/new programs: a stale closure or indirect-update set means
     the safe-point restriction and the transforming collection would
     disagree about which classes change;
   - the new program must verify strictly on its own;
   - the stub set must match the layout closure, and no stub name may
     collide with a real class of either version;
   - the transformer bytecode must verify (Transformer mode) against
     the *post-update* world: new program + stubs + transformer;
   - every closure class needs its jvolveClass/jvolveObject pair;
   - same-name instance fields whose types differ between versions are
     flagged: the default copier skips them silently, which is the
     classic silent-data-loss update bug (Warn; strict mode rejects);
   - blacklist entries that resolve to nothing are typos (Warn);
   - the con-freeness proof set must certify against this very bundle
     (every proof re-validates and the set is closed under the call
     graph), and a blacklist entry shadowing a proof is surfaced so the
     operator sees the pin winning instead of silently losing it.

   Warn verdicts admit the update unless strict mode promotes them. *)

module CF = Jv_classfile

type severity = Reject | Warn

type verdict = {
  v_severity : severity;
  v_check : string; (* which check produced this *)
  v_detail : string;
}

type report = {
  a_verdicts : verdict list;
  a_checks : int; (* checks run, for the report line *)
  a_ms : float;
}

let verdict_to_string v =
  Printf.sprintf "%s[%s] %s"
    (match v.v_severity with Reject -> "reject" | Warn -> "warn")
    v.v_check v.v_detail

(* The reasons that sink the update: Reject always, Warn under strict. *)
let rejections ~strict r =
  List.filter_map
    (fun v ->
      match v.v_severity with
      | Reject -> Some (verdict_to_string v)
      | Warn when strict -> Some (verdict_to_string v)
      | Warn -> None)
    r.a_verdicts

let ok ~strict r = rejections ~strict r = []

let same_names a b =
  List.sort compare a = List.sort compare b

let mref_names l = List.map Diff.mref_to_string l

let run_review ~confree (p : Transformers.prepared) : report =
  let t0 = Unix.gettimeofday () in
  let spec = p.Transformers.p_spec in
  let verdicts = ref [] in
  let checks = ref 0 in
  let flag severity check fmt =
    Printf.ksprintf
      (fun detail ->
        verdicts :=
          { v_severity = severity; v_check = check; v_detail = detail }
          :: !verdicts)
      fmt
  in
  let check name f =
    incr checks;
    f name
  in
  (* 1: inside the update model at all *)
  check "supported" (fun c ->
      match Spec.unsupported_reason spec with
      | Some r -> flag Reject c "%s" r
      | None -> ());
  (* 2: the recorded diff agrees with a recomputation — the safe-point
     restriction, the GC plan and the transformer set are all derived
     from it, so a stale diff desynchronizes the whole pipeline *)
  check "diff" (fun c ->
      let d = spec.Spec.diff in
      let d' =
        Diff.compute ~old_program:spec.Spec.old_program
          ~new_program:spec.Spec.new_program
      in
      let pair what got want =
        if not (same_names got want) then
          flag Reject c "recorded %s {%s} but the programs diff to {%s}" what
            (String.concat ", " got) (String.concat ", " want)
      in
      pair "added classes" d.Diff.added_classes d'.Diff.added_classes;
      pair "deleted classes" d.Diff.deleted_classes d'.Diff.deleted_classes;
      pair "layout closure" d.Diff.class_updates_closure
        d'.Diff.class_updates_closure;
      pair "body updates"
        (mref_names d.Diff.body_updates)
        (mref_names d'.Diff.body_updates);
      pair "indirect methods"
        (mref_names d.Diff.indirect_methods)
        (mref_names d'.Diff.indirect_methods));
  (* 3: the new program verifies strictly on its own *)
  check "new-program" (fun c ->
      List.iter
        (fun e -> flag Reject c "%s" e)
        (Transformers.new_program_errors p));
  (* 4: stubs cover exactly the layout closure + deletions, and collide
     with nothing *)
  check "stubs" (fun c ->
      let want =
        List.map
          (Spec.old_class_name ~tag:spec.Spec.version_tag)
          (spec.Spec.diff.Diff.class_updates_closure
          @ spec.Spec.diff.Diff.deleted_classes)
        |> List.filter (fun stub ->
               (* classes present in the diff but absent from the old
                  program produce no stub *)
               List.exists
                 (fun (cl : CF.Cls.t) ->
                   Spec.old_class_name ~tag:spec.Spec.version_tag
                     cl.CF.Cls.c_name = stub)
                 spec.Spec.old_program)
      in
      let got =
        List.map (fun (s : CF.Cls.t) -> s.CF.Cls.c_name) p.Transformers.p_stubs
      in
      if not (same_names got want) then
        flag Reject c "stub set {%s} does not match the layout closure {%s}"
          (String.concat ", " got) (String.concat ", " want);
      List.iter
        (fun stub ->
          let collides prog =
            List.exists
              (fun (cl : CF.Cls.t) -> String.equal cl.CF.Cls.c_name stub)
              prog
          in
          if collides spec.Spec.old_program || collides spec.Spec.new_program
          then flag Reject c "stub %s collides with a program class" stub)
        got);
  (* 5: the transformer bytecode verifies against the post-update world *)
  check "transformer-verify" (fun c ->
      let world =
        spec.Spec.new_program @ p.Transformers.p_stubs
        @ [ p.Transformers.p_transformer ]
      in
      (* errors inside the new program were already reported by check 3;
         only surface the ones this bundle adds *)
      let base = Transformers.new_program_errors p in
      CF.Verifier.verify_program ~mode:CF.Verifier.Transformer
        (CF.Builtins.program_with world)
      |> List.iter (fun e ->
             if not (List.mem e base) then flag Reject c "%s" e));
  (* 6: every layout-closure class has its transformer pair *)
  check "transformer-methods" (fun c ->
      let has name params =
        List.exists
          (fun (m : CF.Cls.meth) ->
            String.equal m.CF.Cls.md_name name
            && List.length m.CF.Cls.md_sig.CF.Types.params
               = List.length params
            && List.for_all2 CF.Types.equal_ty m.CF.Cls.md_sig.CF.Types.params
                 params)
          p.Transformers.p_transformer.CF.Cls.c_methods
      in
      List.iter
        (fun (name, params) ->
          if not (has name params) then
            flag Reject c "transformer class lacks %s(%s)" name
              (String.concat ", " (List.map CF.Types.to_string params)))
        (Transformers.transformer_method_sigs spec));
  (* 7: same-name fields that silently change type across the update *)
  check "field-map" (fun c ->
      let oldp = CF.Cls.program_of_list spec.Spec.old_program in
      let newp = CF.Cls.program_of_list spec.Spec.new_program in
      List.iter
        (fun cname ->
          match (CF.Cls.find_class oldp cname, CF.Cls.find_class newp cname)
          with
          | Some oc, Some nc ->
              let old_fields =
                List.map
                  (fun (f : CF.Cls.field) ->
                    ( f.CF.Cls.fd_name,
                      Transformers.map_old_ty spec f.CF.Cls.fd_ty ))
                  (Transformers.flattened_fields oldp oc)
              in
              List.iter
                (fun (f : CF.Cls.field) ->
                  match List.assoc_opt f.CF.Cls.fd_name old_fields with
                  | Some oty
                    when not (CF.Types.equal_ty oty f.CF.Cls.fd_ty) ->
                      flag Warn c
                        "%s.%s changes type %s -> %s: the default \
                         transformer drops its value"
                        cname f.CF.Cls.fd_name (CF.Types.to_string oty)
                        (CF.Types.to_string f.CF.Cls.fd_ty)
                  | _ -> ())
                (Transformers.flattened_fields newp nc)
          | _ -> ())
        spec.Spec.diff.Diff.class_updates_closure);
  (* 8: blacklist entries that resolve to nothing are typos *)
  check "blacklist" (fun c ->
      let oldp = CF.Cls.program_of_list spec.Spec.old_program in
      List.iter
        (fun (r : Diff.mref) ->
          let resolves =
            match CF.Cls.find_class oldp r.Diff.r_class with
            | None -> false
            | Some cl ->
                CF.Cls.find_method cl r.Diff.r_name r.Diff.r_sig <> None
          in
          if not resolves then
            flag Warn c "blacklisted %s does not resolve in the old program"
              (Diff.mref_to_string r))
        spec.Spec.blacklist);
  (* 9: the con-freeness proof set [Safepoint.compute] will subtract from
     the restricted set must be sound against this very bundle: every
     proof re-validates its recorded obligations and the proven set is
     closed under the call graph.  A blacklist entry naming a proven
     method is surfaced: the pin wins, the proof is shadowed. *)
  if confree then
    check "confree" (fun c ->
        let proofs = Transformers.proofs p in
        List.iter
          (fun e -> flag Reject c "%s" e)
          (Confree.audit proofs spec);
        List.iter
          (fun (r : Confree.result) ->
            flag Warn c
              "blacklist pins %s, overriding its %s proof (%s)"
              (Diff.mref_to_string r.Confree.cr_ref)
              (Confree.verdict_to_string r.Confree.cr_verdict)
              (Confree.reason_to_string r.Confree.cr_reason))
          (Confree.shadowed_by_blacklist proofs spec));
  {
    a_verdicts = List.rev !verdicts;
    a_checks = !checks;
    a_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
  }

type Transformers.memo += Review of bool * report

(* The report depends only on the bundle and the [confree] flag: built
   once per flag and shared by every request of the same value. *)
let review ?(confree = true) p =
  Transformers.memo p
    ~get:(function Review (c, r) when c = confree -> Some r | _ -> None)
    ~put:(fun r -> Review (confree, r))
    (fun () -> run_review ~confree p)
