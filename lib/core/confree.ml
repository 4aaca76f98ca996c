(* Static con-freeness / backward-compatibility analysis (admission time).

   Under heavy traffic the dominant DSU failure is reachability: a
   restricted method is always on some thread's stack, so the safe point
   never arrives (the paper's §5.1.3 [acceptSocket] story).  Following the
   direction of Shen & Bazzi's formal study of backward-compatible DSU and
   the Lounas et al. bytecode-transformation framework, this module proves
   — per update, before the VM ever pauses — which of the diff's "changed"
   methods may legally remain on stack across the commit.
   [Safepoint.compute] subtracts the proven set from the restricted set.

   The proof obligation comes from what the machine actually burns into
   running frames.  A frame keeps executing its own (old) code after the
   commit; bytecode references are symbolic, but the compiled code the
   frame holds resolved them against the *old* world: instance-field word
   offsets, static JTOC slots, TIB vslot indices, method uids, class ids.
   An old body is safe to keep running iff every such burned resolution is
   still the right answer in the post-update world:

   - [Get_field]/[Put_field]: the field must resolve in both worlds to the
     same word offset with the same type.  Layout is append-only per class
     (inherited fields first, declared fields after, in declaration
     order), so a field *appended* to a class leaves existing offsets
     stable while a deletion or a superclass insertion shifts them.
   - [Get_static]/[Put_static]: the declaring class must be outside the
     update (updated classes get fresh JTOC slots and their old slots are
     zeroed at commit).
   - [Invoke_virtual]: dispatch goes through the receiver's *current* TIB,
     so post-commit it lands on live new-world code — provided the vslot
     index burned for the mangled name+signature is the same in both
     worlds.  Per the con-freeness fixpoint, a target that is itself a
     changed method must also be proven compatible.
   - [Invoke_static]/[Invoke_direct]: the burned uid of a method of an
     updated (layout-closure) or deleted class is invalidated at commit
     and the interpreter traps on invoking it — unconditionally
     restricted.  A body-updated callee keeps its uid (the body is swapped
     in place), so the call stays valid iff the callee is itself proven.
   - [New_obj]/[Check_cast]/[Instance_of]/array ops: a burned class id of
     an updated or deleted class is superseded (allocation traps, subtype
     tests go stale) — restricted.

   Verdicts form the lattice Identical < Compatible < Restricted:
   [Identical] means the old and new bytecode are structurally equal
   (references are symbolic, so equality already quotients out constant
   renumbering and the offset shifts the update causes) *and* every burned
   resolution is stable; [Compatible] means the bodies differ but the old
   body's burned resolutions are stable and every outgoing call lands on
   an unchanged or itself-proven method (a greatest fixpoint over the call
   graph, so mutually recursive clean methods prove each other);
   [Restricted] carries the first failed obligation.  Every verdict comes
   with a machine-checkable reason: [audit] re-validates each proof
   against the programs and checks the proof set is closed under the call
   graph, so admission control can reject a proof set that does not
   certify. *)

module CF = Jv_classfile
module StrSet = Set.Make (String)

type verdict = Identical | Compatible | Restricted

(* The machine-checkable reason attached to every verdict.  For the two
   proof verdicts it records how many burned resolutions were re-checked;
   for [Restricted] it names the first obligation that failed. *)
type reason =
  | R_bytecode_identical of int (* stable resolutions re-checked *)
  | R_body_compatible of int
  | R_class_deleted of string
  | R_method_deleted
  | R_native
  | R_field_unstable of string * string (* field ref, detail *)
  | R_static_unstable of string * string
  | R_class_ref_unstable of string * string (* class, instruction *)
  | R_vslot_moved of string * string (* call ref, detail *)
  | R_callee_restricted of string * string (* call ref, callee *)
  | R_unresolved of string

let reason_to_string = function
  | R_bytecode_identical n ->
      Printf.sprintf "bytecode identical, %d burned resolution(s) stable" n
  | R_body_compatible n ->
      Printf.sprintf
        "body differs, %d burned resolution(s) stable, all calls proven" n
  | R_class_deleted c -> Printf.sprintf "class %s is deleted" c
  | R_method_deleted -> "method absent from the new version"
  | R_native -> "native method: no bytecode to compare"
  | R_field_unstable (f, why) -> Printf.sprintf "field %s: %s" f why
  | R_static_unstable (f, why) -> Printf.sprintf "static %s: %s" f why
  | R_class_ref_unstable (c, instr) ->
      Printf.sprintf "%s names updated/deleted class %s" instr c
  | R_vslot_moved (m, why) -> Printf.sprintf "virtual call %s: %s" m why
  | R_callee_restricted (m, callee) ->
      Printf.sprintf "call %s lands on unproven changed method %s" m callee
  | R_unresolved what -> Printf.sprintf "cannot resolve %s" what

type result = {
  cr_ref : Diff.mref;
  cr_verdict : verdict;
  cr_reason : reason;
}

type t = {
  results : result list; (* every changed method, verdict + reason *)
  analyzed_ms : float;
}

let verdict_to_string = function
  | Identical -> "identical"
  | Compatible -> "compatible"
  | Restricted -> "restricted"

let result_to_string r =
  Printf.sprintf "%s: %s (%s)"
    (Diff.mref_to_string r.cr_ref)
    (verdict_to_string r.cr_verdict)
    (reason_to_string r.cr_reason)

let proven t =
  List.filter_map
    (fun r ->
      match r.cr_verdict with
      | Identical | Compatible -> Some r.cr_ref
      | Restricted -> None)
    t.results

let find t (mref : Diff.mref) =
  List.find_opt (fun r -> Diff.mref_to_string r.cr_ref = Diff.mref_to_string mref) t.results

(* --- static mirrors of the runtime's burned resolutions ------------------- *)

type ctx = {
  oldp : CF.Cls.program; (* old program + builtins *)
  newp : CF.Cls.program; (* new program + builtins *)
  unstable : StrSet.t; (* layout closure + deleted classes *)
  universe : (string, Diff.mref) Hashtbl.t; (* all changed methods, by key *)
}

let mref_key (r : Diff.mref) =
  r.Diff.r_class ^ "." ^ r.Diff.r_name
  ^ CF.Types.msig_descriptor r.Diff.r_sig

let meth_mref cname (m : CF.Cls.meth) =
  { Diff.r_class = cname; r_name = m.CF.Cls.md_name; r_sig = m.CF.Cls.md_sig }

(* Resolve an instance field the way the JIT burns it: position of the
   most-derived declaration in the flattened layout ([CF.Cls.instance_fields],
   the layout [Rt.install_class] builds; the word offset of a field is a
   constant plus its index there). *)
let field_slot p cname fname : (int * CF.Cls.field) option =
  match CF.Cls.find_class p cname with
  | None -> None
  | Some c ->
      let flat = CF.Cls.instance_fields p c in
      let best = ref None in
      List.iteri
        (fun i (f : CF.Cls.field) ->
          if String.equal f.CF.Cls.fd_name fname then best := Some (i, f))
        flat;
      !best

(* Declaring class of a static field (hierarchy walk, most-derived
   declaration wins), mirroring [Rt.find_static_info]. *)
let static_decl p cname fname : string option =
  match CF.Cls.find_class p cname with
  | None -> None
  | Some c ->
      CF.Cls.ancestry p c []
      |> List.find_map (fun (a : CF.Cls.t) ->
             if
               List.exists
                 (fun (f : CF.Cls.field) ->
                   String.equal f.CF.Cls.fd_name fname
                   && f.CF.Cls.fd_access.CF.Access.is_static)
                 a.CF.Cls.c_fields
             then Some a.CF.Cls.c_name
             else None)

(* The vslot table a class would get from [Rt.install_class]: the
   superclass's table, then each declared virtual method either overrides
   an inherited slot or appends a new one.  Superclass tables are prefixes
   of subclass tables, so the slot of a key is the same for every class
   that inherits it — checking the static receiver class suffices. *)
let rec vslot_table p (c : CF.Cls.t) : (string * int) list =
  let base =
    if String.equal c.CF.Cls.c_name CF.Types.object_class then []
    else
      match CF.Cls.find_class p c.CF.Cls.c_super with
      | Some s -> vslot_table p s
      | None -> []
  in
  List.fold_left
    (fun acc (m : CF.Cls.meth) ->
      if CF.Cls.is_virtual m then
        let key = CF.Cls.method_key m.CF.Cls.md_name m.CF.Cls.md_sig in
        if List.mem_assoc key acc then acc
        else acc @ [ (key, List.length acc) ]
      else acc)
    base c.CF.Cls.c_methods

let vslot_of p cname key : int option =
  match CF.Cls.find_class p cname with
  | None -> None
  | Some c -> List.assoc_opt key (vslot_table p c)

(* All old-world override targets a virtual call on static class [cname]
   can dispatch to: the base resolution plus every subclass override. *)
let virtual_targets p cname mname msig : (string * CF.Cls.meth) list =
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  Hashtbl.iter
    (fun _ (c : CF.Cls.t) ->
      if CF.Cls.is_subclass p ~sub:c.CF.Cls.c_name ~super:cname then
        match CF.Cls.resolve_method p c.CF.Cls.c_name mname msig with
        | Some ((d : CF.Cls.t), m) ->
            if not (Hashtbl.mem seen d.CF.Cls.c_name) then begin
              Hashtbl.add seen d.CF.Cls.c_name ();
              out := (d.CF.Cls.c_name, m) :: !out
            end
        | None -> ())
    p;
  !out

(* --- the per-body obligation walk ---------------------------------------- *)

(* Check one old body under [assume] (which changed methods are currently
   assumed proven).  Returns the number of burned resolutions re-checked,
   or the first failed obligation. *)
let check_body ctx ~assume cname (code : CF.Instr.t array) :
    (int, reason) Either.t =
  let stable = ref 0 in
  let fail = ref None in
  let bad r = if !fail = None then fail := Some r in
  let unstable_class c = StrSet.mem c ctx.unstable in
  let changed_callee decl mname msig =
    let r = { Diff.r_class = decl; r_name = mname; r_sig = msig } in
    if Hashtbl.mem ctx.universe (mref_key r) then Some r else None
  in
  let check_call instr_name (m : CF.Instr.method_ref) ~virt =
    let ref_str = CF.Instr.method_ref_to_string m in
    match CF.Cls.resolve_method ctx.oldp m.CF.Instr.m_class m.CF.Instr.m_name
            m.CF.Instr.m_sig
    with
    | None -> bad (R_unresolved (instr_name ^ " " ^ ref_str))
    | Some ((decl : CF.Cls.t), _) ->
        if virt then begin
          (* vslot burned against the static class must keep its index *)
          let key =
            m.CF.Instr.m_name ^ CF.Types.msig_descriptor m.CF.Instr.m_sig
          in
          (match
             ( vslot_of ctx.oldp m.CF.Instr.m_class key,
               vslot_of ctx.newp m.CF.Instr.m_class key )
           with
          | Some o, Some n when o = n -> incr stable
          | Some _, None ->
              bad (R_vslot_moved (ref_str, "no such virtual slot in the new world"))
          | Some o, Some n ->
              bad
                (R_vslot_moved
                   (ref_str, Printf.sprintf "slot %d moved to %d" o n))
          | None, _ -> bad (R_unresolved ("vslot of " ^ ref_str)));
          (* the fixpoint edge: every old-world target that is itself a
             changed method must be proven *)
          List.iter
            (fun (dname, (tm : CF.Cls.meth)) ->
              match
                changed_callee dname tm.CF.Cls.md_name tm.CF.Cls.md_sig
              with
              | Some r when not (assume (mref_key r)) ->
                  bad (R_callee_restricted (ref_str, Diff.mref_to_string r))
              | _ -> ())
            (virtual_targets ctx.oldp m.CF.Instr.m_class m.CF.Instr.m_name
               m.CF.Instr.m_sig)
        end
        else if unstable_class decl.CF.Cls.c_name then
          (* the burned uid is invalidated at commit: invoking it traps *)
          bad
            (R_callee_restricted
               ( ref_str,
                 decl.CF.Cls.c_name ^ " (updated class, uid invalidated)" ))
        else
          match
            changed_callee decl.CF.Cls.c_name m.CF.Instr.m_name
              m.CF.Instr.m_sig
          with
          | Some r when not (assume (mref_key r)) ->
              bad (R_callee_restricted (ref_str, Diff.mref_to_string r))
          | _ -> incr stable
  in
  let check_field (f : CF.Instr.field_ref) =
    let ref_str = CF.Instr.field_ref_to_string f in
    match
      ( field_slot ctx.oldp f.CF.Instr.f_class f.CF.Instr.f_name,
        field_slot ctx.newp f.CF.Instr.f_class f.CF.Instr.f_name )
    with
    | Some (o, of_), Some (n, nf) ->
        if o <> n then
          bad
            (R_field_unstable
               (ref_str, Printf.sprintf "word offset %d moved to %d" o n))
        else if not (CF.Types.equal_ty of_.CF.Cls.fd_ty nf.CF.Cls.fd_ty) then
          bad (R_field_unstable (ref_str, "type changed across the update"))
        else incr stable
    | Some _, None ->
        bad (R_field_unstable (ref_str, "deleted from the new layout"))
    | None, _ -> bad (R_unresolved ("field " ^ ref_str))
  in
  let check_static (f : CF.Instr.field_ref) =
    let ref_str = CF.Instr.field_ref_to_string f in
    match static_decl ctx.oldp f.CF.Instr.f_class f.CF.Instr.f_name with
    | None -> bad (R_unresolved ("static " ^ ref_str))
    | Some decl ->
        if unstable_class decl then
          bad
            (R_static_unstable
               (ref_str, "declared by an updated class: JTOC slot renumbered"))
        else incr stable
  in
  let check_ty instr_name ty =
    List.iter
      (fun c ->
        if unstable_class c then bad (R_class_ref_unstable (c, instr_name)))
      (CF.Types.classes_of_ty [] ty)
  in
  Array.iter
    (fun (i : CF.Instr.t) ->
      if !fail = None then
        match i with
        | CF.Instr.Get_field f | CF.Instr.Put_field f -> check_field f
        | CF.Instr.Get_static f | CF.Instr.Put_static f -> check_static f
        | CF.Instr.Invoke_virtual m -> check_call "invokevirtual" m ~virt:true
        | CF.Instr.Invoke_static m -> check_call "invokestatic" m ~virt:false
        | CF.Instr.Invoke_direct m -> check_call "invokedirect" m ~virt:false
        | CF.Instr.New_obj c ->
            if unstable_class c then bad (R_class_ref_unstable (c, "new"))
            else incr stable
        | CF.Instr.New_array ty -> check_ty "newarray" ty
        | CF.Instr.Array_load ty -> check_ty "aload" ty
        | CF.Instr.Array_store ty -> check_ty "astore" ty
        | CF.Instr.Check_cast ty -> check_ty "checkcast" ty
        | CF.Instr.Instance_of ty -> check_ty "instanceof" ty
        | _ -> ())
    code;
  ignore cname;
  match !fail with Some r -> Either.Right r | None -> Either.Left !stable

(* --- the analysis --------------------------------------------------------- *)

(* Changed-method universe: every body update, plus every method of every
   layout-closure class present in the old program, plus every method of
   every deleted class. *)
let universe_of (spec : Spec.t) :
    (Diff.mref * [ `Body of string * CF.Instr.t array | `Native | `Deleted of string | `Gone ])
    list =
  let oldp = CF.Cls.program_of_list spec.Spec.old_program in
  let newp = CF.Cls.program_of_list spec.Spec.new_program in
  let body_of cname (m : CF.Cls.meth) =
    match m.CF.Cls.md_code with
    | None -> `Native
    | Some code -> `Body (cname, code)
  in
  let of_class kind cname =
    match CF.Cls.find_class oldp cname with
    | None -> []
    | Some c ->
        List.map
          (fun (m : CF.Cls.meth) ->
            let shape =
              match kind with
              | `Deleted -> `Deleted cname
              | `Closure -> (
                  (* a method dropped from a surviving class can never be
                     re-entered or proven: it has no new-world counterpart *)
                  match CF.Cls.find_class newp cname with
                  | Some nc
                    when CF.Cls.find_method nc m.CF.Cls.md_name
                           m.CF.Cls.md_sig
                         = None ->
                      `Gone
                  | _ -> body_of cname m)
            in
            (meth_mref cname m, shape))
          c.CF.Cls.c_methods
  in
  let closure =
    List.concat_map (of_class `Closure)
      spec.Spec.diff.Diff.class_updates_closure
  in
  let deleted =
    List.concat_map (of_class `Deleted) spec.Spec.diff.Diff.deleted_classes
  in
  let bodies =
    List.filter_map
      (fun (r : Diff.mref) ->
        match CF.Cls.find_class oldp r.Diff.r_class with
        | None -> None
        | Some c -> (
            match CF.Cls.find_method c r.Diff.r_name r.Diff.r_sig with
            | None -> None
            | Some m -> Some (r, body_of r.Diff.r_class m)))
      spec.Spec.diff.Diff.body_updates
  in
  closure @ deleted @ bodies

let bytecode_identical (spec : Spec.t) (r : Diff.mref) =
  let newp = CF.Cls.program_of_list spec.Spec.new_program in
  let oldp = CF.Cls.program_of_list spec.Spec.old_program in
  match
    ( CF.Cls.find_class oldp r.Diff.r_class,
      CF.Cls.find_class newp r.Diff.r_class )
  with
  | Some oc, Some nc -> (
      match
        ( CF.Cls.find_method oc r.Diff.r_name r.Diff.r_sig,
          CF.Cls.find_method nc r.Diff.r_name r.Diff.r_sig )
      with
      | Some om, Some nm -> CF.Cls.equal_meth_code om nm
      | _ -> false)
  | _ -> false

let analyze (spec : Spec.t) : t =
  let t0 = Unix.gettimeofday () in
  let entries = universe_of spec in
  let ctx =
    {
      oldp = CF.Builtins.program_with spec.Spec.old_program;
      newp = CF.Builtins.program_with spec.Spec.new_program;
      unstable =
        StrSet.of_list
          (spec.Spec.diff.Diff.class_updates_closure
          @ spec.Spec.diff.Diff.deleted_classes);
      universe = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (r, _) -> Hashtbl.replace ctx.universe (mref_key r) r)
    entries;
  (* Optimistic (greatest) fixpoint: assume every changed method proven,
     demote on a failed local obligation or a demoted callee, iterate to
     stability.  Mutually recursive clean methods stay proven. *)
  let state : (string, reason option) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (r, _) -> Hashtbl.replace state (mref_key r) None) entries;
  let assume key =
    match Hashtbl.find_opt state key with Some None -> true | _ -> false
  in
  let pass () =
    List.fold_left
      (fun demoted (r, shape) ->
        let key = mref_key r in
        if not (assume key) then demoted
        else
          let verdict =
            match shape with
            | `Deleted c -> Either.Right (R_class_deleted c)
            | `Gone -> Either.Right R_method_deleted
            | `Native -> Either.Right R_native
            | `Body (cname, code) -> check_body ctx ~assume cname code
          in
          match verdict with
          | Either.Left _ -> demoted
          | Either.Right why ->
              Hashtbl.replace state key (Some why);
              demoted + 1)
      0 entries
  in
  let rec fix () = if pass () > 0 then fix () in
  fix ();
  let results =
    List.map
      (fun (r, shape) ->
        let key = mref_key r in
        match Hashtbl.find_opt state key with
        | Some (Some why) ->
            { cr_ref = r; cr_verdict = Restricted; cr_reason = why }
        | _ ->
            let stable =
              match shape with
              | `Body (cname, code) -> (
                  match check_body ctx ~assume cname code with
                  | Either.Left n -> n
                  | Either.Right _ -> 0 (* unreachable: proven above *))
              | _ -> 0
            in
            if bytecode_identical spec r then
              {
                cr_ref = r;
                cr_verdict = Identical;
                cr_reason = R_bytecode_identical stable;
              }
            else
              {
                cr_ref = r;
                cr_verdict = Compatible;
                cr_reason = R_body_compatible stable;
              })
      entries
  in
  { results; analyzed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 }

(* --- proof certification --------------------------------------------------- *)

(* Re-validate a proof set against the spec: every [Identical]/[Compatible]
   result must re-pass its local obligations with the proof set itself as
   the assumption (i.e., the set must be closed under the call graph), and
   [Identical] claims must really have structurally equal bytecode.
   Returns the violations (empty = the proof set certifies). *)
let audit (t : t) (spec : Spec.t) : string list =
  let entries = universe_of spec in
  let ctx =
    {
      oldp = CF.Builtins.program_with spec.Spec.old_program;
      newp = CF.Builtins.program_with spec.Spec.new_program;
      unstable =
        StrSet.of_list
          (spec.Spec.diff.Diff.class_updates_closure
          @ spec.Spec.diff.Diff.deleted_classes);
      universe = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (r, _) -> Hashtbl.replace ctx.universe (mref_key r) r)
    entries;
  let proven_keys =
    proven t |> List.map mref_key |> List.fold_left (fun s k -> StrSet.add k s) StrSet.empty
  in
  let assume key = StrSet.mem key proven_keys in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun r ->
      match r.cr_verdict with
      | Restricted -> ()
      | Identical | Compatible -> (
          let key = mref_key r.cr_ref in
          let shape =
            List.find_opt (fun (e, _) -> mref_key e = key) entries
          in
          (match shape with
          | None ->
              err "proof for %s names a method the diff does not mark changed"
                (Diff.mref_to_string r.cr_ref)
          | Some (_, `Body (cname, code)) -> (
              match check_body ctx ~assume cname code with
              | Either.Left _ -> ()
              | Either.Right why ->
                  err "proof for %s does not certify: %s"
                    (Diff.mref_to_string r.cr_ref)
                    (reason_to_string why))
          | Some (_, (`Native | `Deleted _ | `Gone)) ->
              err "proof for %s claims compatibility without a comparable body"
                (Diff.mref_to_string r.cr_ref));
          if
            r.cr_verdict = Identical
            && not (bytecode_identical spec r.cr_ref)
          then
            err "proof for %s claims identical bytecode but the bodies differ"
              (Diff.mref_to_string r.cr_ref)))
    t.results;
  List.rev !errs

(* Blacklist entries that shadow a proof: the pin wins, but the operator
   should see the conflict instead of silently losing the proof. *)
let shadowed_by_blacklist (t : t) (spec : Spec.t) : result list =
  List.filter
    (fun r ->
      r.cr_verdict <> Restricted
      && List.exists
           (fun b -> Diff.mref_to_string b = Diff.mref_to_string r.cr_ref)
           spec.Spec.blacklist)
    t.results

let summary (t : t) =
  let count v =
    List.length (List.filter (fun r -> r.cr_verdict = v) t.results)
  in
  Printf.sprintf
    "confree: %d changed method(s): %d identical, %d compatible, %d \
     restricted (%.2f ms)"
    (List.length t.results) (count Identical) (count Compatible)
    (count Restricted) t.analyzed_ms
