(* Applying an update once a DSU safe point is reached (paper §3.3-3.4):

   1. rename superseded classes and strip their methods;
   2. install the new class versions (and brand-new classes), carrying
      over unchanged static fields;
   3. swap updated method bodies in place and invalidate all compiled code
      whose resolved offsets the update stales;
   4. OSR the base-compiled category-(2) frames against the new metadata;
   5. run a full-heap collection with the transform plan — every instance
      of an updated class is replaced by a zeroed new-layout object, with
      the old copy kept in the update log;
   6. run class transformers, then object transformers over the log;
   7. discard the transformer class and the log.

   All of this happens with application threads stopped at safe points.
   The update log is the VM's in-flight log ([State.update_log]) from the
   collection to the commit, so transformer-phase allocation (which may
   trigger a nested plain collection) stays safe; a guarded commit moves
   it to [State.guard_retained]. *)

module CF = Jv_classfile
module State = Jv_vm.State
module Rt = Jv_vm.Rt
module Heap = Jv_vm.Heap
module Value = Jv_vm.Value
module Gc = Jv_vm.Gc
module Interp = Jv_vm.Interp
module Osr = Jv_vm.Osr
module Classloader = Jv_vm.Classloader
module Update_log = Jv_vm.Update_log
module Faults = Jv_faults.Faults

exception Update_error of string

let uerr fmt = Printf.ksprintf (fun s -> raise (Update_error s)) fmt

type timings = {
  u_load_ms : float; (* class installation + body swaps + OSR *)
  u_gc_ms : float;
  u_transform_ms : float;
  u_verify_ms : float; (* post-transform heap integrity walk (0 if off) *)
  u_total_ms : float;
  u_osr : int;
  u_invalidated_methods : int;
  u_transformed_objects : int;
  u_copied_objects : int;
}

(* --- typed aborts -------------------------------------------------------- *)

type phase =
  | P_admit (* rejected by admission control; the VM never paused *)
  | P_sync (* never reached [apply]: safe-point timeout, prepare error *)
  | P_load (* metadata installation, clinits, transformer install *)
  | P_gc (* the transforming collection *)
  | P_transform (* class and object transformers *)
  | P_verify (* the post-transform heap integrity walk *)
  | P_osr (* on-stack replacement of parked frames *)
  | P_guard (* the post-commit guard window: a failed automatic revert *)

let phase_to_string = function
  | P_admit -> "admit"
  | P_sync -> "sync"
  | P_load -> "load"
  | P_gc -> "gc"
  | P_transform -> "transform"
  | P_verify -> "verify"
  | P_osr -> "osr"
  | P_guard -> "guard"

(* Where a transformer was executing when it failed. *)
type transformer_site = {
  ts_method : string; (* qualified transformer method *)
  ts_class : string; (* class being transformed *)
  ts_object : int; (* heap address of the object; 0 for class transformers *)
}

let site_desc s =
  if s.ts_object = 0 then s.ts_class
  else Printf.sprintf "%s@%d" s.ts_class s.ts_object

type cause =
  | C_generic
  | C_injected of string (* fault-plan point that fired *)
  | C_transformer_trap of transformer_site * string
  | C_fuel_exhausted of transformer_site * int (* steps charged *)
  | C_sandbox_violation of transformer_site * string
  | C_heap_verify of string list (* verifier issues *)
  | C_admission of string list (* rejecting verdicts *)

let cause_to_string = function
  | C_generic -> "error"
  | C_injected pt -> "injected at " ^ pt
  | C_transformer_trap (s, msg) ->
      Printf.sprintf "transformer %s trapped on %s: %s" s.ts_method
        (site_desc s) msg
  | C_fuel_exhausted (s, steps) ->
      Printf.sprintf "transformer %s out of fuel (%d steps) on %s"
        s.ts_method steps (site_desc s)
  | C_sandbox_violation (s, msg) ->
      Printf.sprintf "transformer %s on %s: %s" s.ts_method (site_desc s) msg
  | C_heap_verify issues ->
      Printf.sprintf "heap verify: %d issue(s)" (List.length issues)
  | C_admission verdicts ->
      Printf.sprintf "admission: %d rejection(s)" (List.length verdicts)

type abort = {
  a_phase : phase;
  a_reason : string;
  a_cause : cause;
  a_rolled_back : bool;
      (* the transaction rolled back and the post-rollback audit (and
         heap verification, when enabled) passed: the VM is intact on
         the old version *)
  a_rollback_ms : float;
}

let sync_abort reason =
  { a_phase = P_sync; a_reason = reason; a_cause = C_generic;
    a_rolled_back = true; a_rollback_ms = 0.0 }

(* An update rejected before the VM paused: nothing was mutated, so the
   "transaction" is trivially intact. *)
let admission_abort reasons =
  {
    a_phase = P_admit;
    a_reason = "admission: " ^ String.concat "; " reasons;
    a_cause = C_admission reasons;
    a_rolled_back = true;
    a_rollback_ms = 0.0;
  }

let abort_to_string a =
  match a.a_phase with
  | P_sync | P_admit -> a.a_reason
  | _ ->
      Printf.sprintf "[%s] %s%s" (phase_to_string a.a_phase) a.a_reason
        (if a.a_rolled_back then " (rolled back)" else " (ROLLBACK FAILED)")

(* A transformer failure carrying its typed cause through the abort
   machinery (the bare [Update_error] string keeps serving everything
   that has no structure to preserve). *)
exception Update_failure of cause * string

let now () = Unix.gettimeofday ()

(* --- step helpers ------------------------------------------------------- *)

let rename_old_classes vm (spec : Spec.t) : (string * Rt.rt_class) list =
  let tag = spec.Spec.version_tag in
  List.filter_map
    (fun name ->
      match Rt.find_class vm.State.reg name with
      | None -> None
      | Some rc ->
          Hashtbl.remove vm.State.reg.Rt.by_name name;
          let stub_name = Spec.old_class_name ~tag name in
          rc.Rt.name <- stub_name;
          rc.Rt.valid <- false;
          Hashtbl.replace vm.State.reg.Rt.by_name stub_name rc.Rt.cid;
          Array.iter
            (fun (m : Rt.rt_method) ->
              m.Rt.m_valid <- false;
              m.Rt.base_code <- None;
              m.Rt.opt_code <- None)
            rc.Rt.methods;
          Some (name, rc))
    (spec.Spec.diff.Diff.class_updates_closure
    @ spec.Spec.diff.Diff.deleted_classes)

let install_new_classes vm (spec : Spec.t) : (string * Rt.rt_class) list =
  let wanted =
    spec.Spec.diff.Diff.class_updates_closure
    @ spec.Spec.diff.Diff.added_classes
  in
  let classfiles =
    List.filter
      (fun (c : CF.Cls.t) -> List.mem c.CF.Cls.c_name wanted)
      spec.Spec.new_program
  in
  Classloader.install vm ~replace:true classfiles
  |> List.map (fun (rc : Rt.rt_class) -> (rc.Rt.name, rc))

(* Unchanged statics keep their values across the update; everything else
   starts at its default and is the class transformer's job.  Superseded
   classes' static slots are cleared so their referents can be
   collected. *)
let carry_over_statics vm (spec : Spec.t)
    (olds : (string * Rt.rt_class) list) (news : (string * Rt.rt_class) list)
    =
  List.iter
    (fun (name, (old_rc : Rt.rt_class)) ->
      (match List.assoc_opt name news with
      | None -> () (* deleted class *)
      | Some new_rc ->
          Array.iter
            (fun (osi : Rt.static_info) ->
              let mapped_ty = Transformers.map_old_ty spec osi.Rt.si_ty in
              Array.iter
                (fun (nsi : Rt.static_info) ->
                  if
                    String.equal osi.Rt.si_name nsi.Rt.si_name
                    && CF.Types.equal_ty mapped_ty nsi.Rt.si_ty
                  then
                    State.jtoc_set vm nsi.Rt.si_slot
                      (State.jtoc_get vm osi.Rt.si_slot))
                new_rc.Rt.static_fields)
            old_rc.Rt.static_fields);
      (* clear the superseded slots *)
      Array.iter
        (fun (osi : Rt.static_info) -> State.jtoc_set vm osi.Rt.si_slot 0)
        old_rc.Rt.static_fields)
    olds

let swap_method_bodies vm (spec : Spec.t) =
  let newp = CF.Cls.program_of_list spec.Spec.new_program in
  List.iter
    (fun (r : Diff.mref) ->
      match Rt.find_class vm.State.reg r.Diff.r_class with
      | None -> uerr "body update: class %s not loaded" r.Diff.r_class
      | Some rc -> (
          let rm =
            Array.to_seq rc.Rt.methods
            |> Seq.find (fun (m : Rt.rt_method) ->
                   String.equal m.Rt.m_name r.Diff.r_name
                   && CF.Types.equal_msig m.Rt.m_sig r.Diff.r_sig)
          in
          match
            ( rm,
              Option.bind
                (CF.Cls.find_class newp r.Diff.r_class)
                (fun c -> CF.Cls.find_method c r.Diff.r_name r.Diff.r_sig) )
          with
          | Some rm, Some md ->
              rm.Rt.bytecode <- md.CF.Cls.md_code;
              rm.Rt.max_locals <- md.CF.Cls.md_max_locals;
              rm.Rt.base_code <- None;
              rm.Rt.opt_code <- None;
              (* body updates invalidate execution profiles (paper §3.3) *)
              rm.Rt.invocations <- 0
          | _ -> uerr "body update: cannot resolve %s" (Diff.mref_to_string r)))
    spec.Spec.diff.Diff.body_updates

(* Invalidate compiled code with stale offsets: category (2) methods, plus
   any opt code that inlined a method touched by the update. *)
let invalidate_stale_code vm (r : Safepoint.restricted) : int =
  let count = ref 0 in
  Rt.iter_methods vm.State.reg (fun (m : Rt.rt_method) ->
      let stale_direct = Safepoint.IntSet.mem m.Rt.uid r.Safepoint.stale in
      let stale_inline =
        match m.Rt.opt_code with
        | Some c ->
            List.exists
              (fun u ->
                Safepoint.IntSet.mem u r.Safepoint.stale
                || Safepoint.IntSet.mem u r.Safepoint.changed)
              c.Jv_vm.Machine.inlined
        | None -> false
      in
      if stale_direct && (m.Rt.base_code <> None || m.Rt.opt_code <> None)
      then begin
        m.Rt.base_code <- None;
        m.Rt.opt_code <- None;
        incr count
      end
      else if stale_inline then begin
        m.Rt.opt_code <- None;
        incr count
      end);
  vm.State.reg.Rt.epoch <- vm.State.reg.Rt.epoch + 1;
  !count

(* --- transformer phase --------------------------------------------------- *)

(* The generated default [jvolveObject] of one class pair as flattened
   (old offset, new offset) word pairs: the fields of
   [Transformers.default_field_pairs], resolved the way the JIT resolves
   the default body's getfield/putfield. *)
let copy_plan spec ~(old_cls : Rt.rt_class) ~(new_cls : Rt.rt_class) =
  let offset (cls : Rt.rt_class) f =
    match Rt.find_field_info cls f with
    | Some fi -> fi.Rt.fi_offset
    | None -> uerr "copy plan: no field %s.%s" cls.Rt.name f
  in
  Transformers.default_field_pairs spec new_cls.Rt.name
  |> List.concat_map (fun f -> [ offset old_cls f; offset new_cls f ])
  |> Array.of_list

(* How one (new class, old class) pair is transformed.  A class whose
   [jvolveObject] is the UPT's generated default runs as a [Copy] of its
   [copy_plan]; custom transformers stay [Interpreted], in the sandbox. *)
type obj_transformer = Copy of int array | Interpreted of Rt.rt_method

(* One transformer session: the eager phase, or a lazy window for its
   whole life.  The sandbox holds the update log. *)
type session = {
  ot_spec : Spec.t;
  ot_rc : Rt.rt_class; (* the installed JvolveTransformers class *)
  (* old cid -> (new cid, transformer): the paper's suggested "caching
     the lookup" optimization for the reflective dispatch, indexed by old
     class id like the transform plan and checked against the new *)
  ot_by_old : (int * obj_transformer) option array;
  mutable ot_planned : int; (* pairs run as copy plans *)
  mutable ot_interpreted : int; (* pairs run on the interpreter *)
  carrier : State.vthread; (* reused for every transformer invocation *)
  sandbox : State.sandbox; (* fuel, write restriction, the log *)
  scratch : int array; (* one rooted slot for sweeper/force targets *)
  mutable abort : (cause * string) option; (* a lazy window aborting *)
}

let start_session vm spec transformer_rc ~log =
  let scratch = [| 0 |] in
  vm.State.extra_roots <- scratch :: vm.State.extra_roots;
  {
    ot_spec = spec;
    ot_rc = transformer_rc;
    ot_by_old = Array.make vm.State.reg.Rt.n_classes None;
    ot_planned = 0;
    ot_interpreted = 0;
    carrier = Interp.make_carrier vm;
    sandbox =
      State.sandbox_create vm ~fuel:vm.State.config.transformer_fuel ~log;
    scratch;
    abort = None;
  }

(* Uninstall the session (and the lazy window riding on it), release its
   carrier and scratch root, and unload the transformer class.  The
   update log stays in flight: the commit or the rollback decides its
   fate. *)
let end_session vm (s : session) =
  vm.State.sandbox <- None;
  vm.State.force_transform <- None;
  vm.State.lazy_info <- None;
  Interp.release_carrier vm s.carrier;
  vm.State.extra_roots <-
    List.filter (fun a -> a != s.scratch) vm.State.extra_roots;
  let rc = s.ot_rc in
  Hashtbl.remove vm.State.reg.Rt.by_name rc.Rt.name;
  rc.Rt.valid <- false;
  Array.iter
    (fun (m : Rt.rt_method) ->
      m.Rt.m_valid <- false;
      m.Rt.base_code <- None;
      m.Rt.opt_code <- None)
    rc.Rt.methods

(* The transformer.* fault points simulate the three ways a bad
   transformer misbehaves, each driven through the real enforcement
   path rather than shortcutting to an abort: [transformer.loop] spends
   the invocation's remaining fuel so the very next instruction trips
   the budget; [transformer.throw] raises the trap a failing body
   would; [transformer.badwrite] pushes a store to a non-writable
   object (the old copy) through the sandbox's write gate. *)
let consult_transformer_faults vm (sb : State.sandbox) ~bad_target =
  (match Faults.check vm.State.faults "transformer.loop" with
  | Some _ -> sb.State.sb_steps <- sb.State.sb_fuel
  | None -> ());
  (match Faults.check vm.State.faults "transformer.throw" with
  | Some _ -> raise (Interp.Trap "injected: transformer.throw")
  | None -> ());
  match bad_target with
  | None -> () (* class transformer: no object to mis-target *)
  | Some addr -> (
      match Faults.check vm.State.faults "transformer.badwrite" with
      | Some _ ->
          let saved = sb.State.sb_guard in
          sb.State.sb_guard <- true;
          Fun.protect
            ~finally:(fun () -> sb.State.sb_guard <- saved)
            (fun () ->
              Interp.guard_write vm ~addr ~what:"putfield (injected)")
      | None -> ())

(* Classify a trapped transformer by the trap message the interpreter's
   enforcement produced, and surface the typed cause. *)
let fail_transformer vm (site : transformer_site) msg =
  (* the failure is re-reported through the typed abort below; drop the
     carrier thread's entry from the VM-wide trap log so a contained
     transformer failure does not read as an app-thread crash *)
  (match vm.State.trap_log with
  | (_, m) :: rest when String.equal m msg ->
      vm.State.trap_log <- rest;
      (* ...and from the per-epoch attribution, or a contained transformer
         failure would spend the guard window's trap budget *)
      State.unrecord_trap_count vm
  | _ -> ());
  let cause, reason =
    if String.starts_with ~prefix:"transformer fuel exhausted" msg then
      let steps =
        match vm.State.sandbox with
        | Some sb -> sb.State.sb_steps
        | None -> 0
      in
      ( C_fuel_exhausted (site, steps),
        Printf.sprintf
          "%s exhausted its fuel budget (%d steps) transforming %s"
          site.ts_method steps (site_desc site) )
    else if String.starts_with ~prefix:"sandbox:" msg then
      ( C_sandbox_violation (site, msg),
        Printf.sprintf "%s transforming %s: %s" site.ts_method
          (site_desc site) msg )
    else
      ( C_transformer_trap (site, msg),
        Printf.sprintf "transformer %s trapped on %s: %s" site.ts_method
          (site_desc site) msg )
  in
  raise (Update_failure (cause, reason))

let find_transformer_method (transformer_rc : Rt.rt_class) ~name ~params =
  Array.to_seq transformer_rc.Rt.methods
  |> Seq.find (fun (m : Rt.rt_method) ->
         String.equal m.Rt.m_name name
         && List.length m.Rt.m_sig.CF.Types.params = List.length params
         && List.for_all2 CF.Types.equal_ty m.Rt.m_sig.CF.Types.params params)

let find_object_method vm (s : session) ~new_cid ~old_cid =
  let new_cls = Rt.class_by_id vm.State.reg new_cid in
  let old_cls = Rt.class_by_id vm.State.reg old_cid in
  match
    find_transformer_method s.ot_rc ~name:"jvolveObject"
      ~params:[ CF.Types.TRef new_cls.Rt.name; CF.Types.TRef old_cls.Rt.name ]
  with
  | Some m -> m
  | None ->
      uerr "no jvolveObject(%s, %s) in transformer class" new_cls.Rt.name
        old_cls.Rt.name

let object_transformer vm (s : session) ~new_cid ~old_cid =
  let cached = old_cid < Array.length s.ot_by_old in
  match if cached then s.ot_by_old.(old_cid) else None with
  | Some (n, t) when n = new_cid -> t
  | _ ->
      let new_cls = Rt.class_by_id vm.State.reg new_cid in
      let t =
        if Transformers.object_default s.ot_spec new_cls.Rt.name then
          Copy
            (copy_plan s.ot_spec
               ~old_cls:(Rt.class_by_id vm.State.reg old_cid)
               ~new_cls)
        else Interpreted (find_object_method vm s ~new_cid ~old_cid)
      in
      if cached then s.ot_by_old.(old_cid) <- Some (new_cid, t);
      t

(* Run a transformer method on the session's carrier.  A lazy window's
   carrier outlives the commit pause (transformers keep running at
   barrier hits for the life of the window), and the scheduler reaps it
   as done between invocations: re-register it so its frames are GC
   roots while the transformer runs.  Recursive transforms (via the
   Jvolve.transform native) arrive while the carrier is mid-call and
   take a fresh temporary thread. *)
let invoke vm (s : session) m args =
  if s.carrier.State.depth = 0 then begin
    if not (List.memq s.carrier vm.State.threads) then
      vm.State.threads <- vm.State.threads @ [ s.carrier ];
    Interp.call_on vm s.carrier m args
  end
  else Interp.call_sync vm m args

(* Report a trapped transformer at [site].  Inside an aborting lazy
   window the trap is a nested transform's abort, which the carrier
   surfaced as a generic blocked-call trap: keep its typed cause. *)
let on_trap vm (s : session) site e =
  match s.abort with
  | Some (c, m) -> raise (Update_failure (c, m))
  | None -> fail_transformer vm site e

(* Run [jvolveObject(new, old)] for one pair, with the session's sandbox
   installed as the VM's: a fresh fuel budget, the transformer.* fault
   points, and writes restricted to the update log's new objects,
   [new_addr] first (the pair in flight).  A copy plan takes the same
   checks as the interpreted default would — the fault draws in the same
   order and one step through the interpreter's fuel gate — before its
   word copy. *)
let transform_object vm (s : session) ~new_addr ~old_addr =
  let sb = s.sandbox in
  let heap = vm.State.heap in
  let new_cid = Heap.class_id heap new_addr in
  let old_cid = Heap.class_id heap old_addr in
  let t = object_transformer vm s ~new_cid ~old_cid in
  sb.State.sb_steps <- 0;
  try
    consult_transformer_faults vm sb ~bad_target:(Some old_addr);
    match t with
    | Copy plan ->
        s.ot_planned <- s.ot_planned + 1;
        Interp.charge_fuel vm;
        let space = heap.Heap.space in
        for k = 0 to (Array.length plan / 2) - 1 do
          space.(new_addr + plan.((2 * k) + 1)) <-
            space.(old_addr + plan.(2 * k))
        done
    | Interpreted m ->
        s.ot_interpreted <- s.ot_interpreted + 1;
        (* a forced transform nests here: restore the outer pair's guard
           and target on either exit *)
        let saved_guard = sb.State.sb_guard in
        let saved_target = sb.State.sb_target in
        let saved_target_gc = sb.State.sb_target_gc in
        let restore () =
          sb.State.sb_guard <- saved_guard;
          sb.State.sb_target <- saved_target;
          sb.State.sb_target_gc <- saved_target_gc
        in
        sb.State.sb_guard <- true;
        sb.State.sb_target <- new_addr;
        sb.State.sb_target_gc <- heap.Heap.gc_count;
        (match
           invoke vm s m [| Value.of_ref new_addr; Value.of_ref old_addr |]
         with
        | _ -> restore ()
        | exception e ->
            restore ();
            raise e)
  with Interp.Sync_trap e | Interp.Trap e ->
    let m =
      match t with
      | Interpreted m -> m
      | Copy _ -> find_object_method vm s ~new_cid ~old_cid
    in
    on_trap vm s
      {
        ts_method = Rt.method_qname s.ot_rc m;
        ts_class = (Rt.class_by_id vm.State.reg new_cid).Rt.name;
        ts_object = new_addr;
      }
      e

(* Publish how many pairs ran as copy plans and how many interpreted. *)
let count_pairs obs (s : session) =
  Jv_obs.Obs.incr ~by:s.ot_planned obs "core.update.planned_pairs";
  Jv_obs.Obs.incr ~by:s.ot_interpreted obs "core.update.interpreted_pairs"

(* The eager phase's pair [i]; [status] is 0 pending, 1 in progress, 2
   done. *)
let rec run_pair vm (s : session) status i =
  match status.(i) with
  | 2 -> ()
  | 1 ->
      (* a transformer dereferenced a field whose transformation is already
         on the stack: an ill-defined transformer set (paper §3.4) *)
      uerr "cyclic object-transformer dependency detected; aborting update"
  | _ ->
      status.(i) <- 1;
      let log = s.sandbox.State.sb_log in
      transform_object vm s ~old_addr:(Update_log.old_copy log i)
        ~new_addr:(Update_log.new_addr log i);
      status.(i) <- 2

and force_transform vm s status addr =
  match Hashtbl.find_opt (State.sandbox_index vm s.sandbox) addr with
  | Some i -> run_pair vm s status i
  | None -> () (* not an object under transformation: no-op *)

(* Class transformers run with the session's sandbox installed — a fresh
   fuel budget each, but no write guard: (re)initializing statics
   legitimately reaches arbitrary objects.  In a lazy window the barrier
   is live meanwhile: they dereference old-epoch statics and force
   transforms as they go (the paper's eager islands inside the lazy
   window). *)
let run_class_transformers vm (s : session) =
  let run cname =
    match
      find_transformer_method s.ot_rc ~name:"jvolveClass"
        ~params:[ CF.Types.TRef cname ]
    with
    | None -> uerr "no jvolveClass(%s) in transformer class" cname
    | Some m -> (
        s.sandbox.State.sb_steps <- 0;
        try
          consult_transformer_faults vm s.sandbox ~bad_target:None;
          ignore (invoke vm s m [| Value.null |])
        with Interp.Sync_trap e | Interp.Trap e ->
          on_trap vm s
            { ts_method = Rt.method_qname s.ot_rc m; ts_class = cname;
              ts_object = 0 }
            e)
  in
  let saved_sandbox = vm.State.sandbox in
  vm.State.sandbox <- Some s.sandbox;
  Fun.protect
    ~finally:(fun () -> vm.State.sandbox <- saved_sandbox)
    (fun () -> List.iter run s.ot_spec.Spec.diff.Diff.class_updates_closure)

(* --- inverse-update replay (guard revert) -------------------------------

   When a guard window trips, the revert is the inverse update applied
   through this same pipeline.  Its default transformers restore only the
   fields shared between the two layouts (copied from the pristine copies
   of the version being backed out, so in-window mutations survive).
   Fields the forward update *dropped* exist in neither that layout nor
   its copies — their pre-update values live only in the retained forward
   update log.  This step replays them: for every forward pair, copy
   exactly the dropped fields from the forward old copy into the restored
   object.

   The retained log's slots were rewritten by the revert's transforming
   collection: even slots now hold the (forwarded) pre-update copies, odd
   slots the restored new-layout objects — references to the backed-out
   objects were redirected to their replacements like any other root.
   Reference-typed dropped fields are sound for the same reason: the old
   copies were scanned as live objects through both collections, so their
   referents are current addresses of the restored versions. *)
let replay_retained vm (spec : Spec.t) fwd_log : int =
  (* [spec] is the inverse spec: its [version_tag] renamed the version
     being backed out aside, so the forward-new layout of class N is the
     runtime class [v<tag>_N] *)
  let heap = vm.State.heap in
  let reg = vm.State.reg in
  let replayed = ref 0 in
  let shared_with_forward (fwd_rc : Rt.rt_class) (nfi : Rt.field_info) =
    Array.exists
      (fun (ffi : Rt.field_info) ->
        String.equal ffi.Rt.fi_name nfi.Rt.fi_name
        && CF.Types.equal_ty
             (Transformers.map_old_ty spec ffi.Rt.fi_ty)
             nfi.Rt.fi_ty)
      fwd_rc.Rt.instance_fields
  in
  for i = 0 to Update_log.pairs fwd_log - 1 do
    let a = Update_log.old_copy fwd_log i (* pre-update pristine copy *)
    and c = Update_log.new_addr fwd_log i (* restored object *) in
    let c_cls = Rt.class_by_id reg (Heap.class_id heap c) in
    let a_cls = Rt.class_by_id reg (Heap.class_id heap a) in
    if
      c_cls.Rt.valid
      && List.mem c_cls.Rt.name spec.Spec.diff.Diff.class_updates_closure
      (* a custom inverse transformer recomputes the old representation
         from *live* state (so in-window writes survive); replaying the
         pre-update copies over it would roll those writes back *)
      && not (List.mem_assoc c_cls.Rt.name spec.Spec.object_overrides)
    then
      match
        Rt.find_class reg
          (Spec.old_class_name ~tag:spec.Spec.version_tag c_cls.Rt.name)
      with
      | None -> () (* forward layout gone: nothing was dropped *)
      | Some fwd_rc ->
          Array.iter
            (fun (nfi : Rt.field_info) ->
              if not (shared_with_forward fwd_rc nfi) then
                (* dropped by the forward update: restore from the
                   pre-update copy (same source layout as [c_cls]) *)
                Array.iter
                  (fun (ofi : Rt.field_info) ->
                    if
                      String.equal ofi.Rt.fi_name nfi.Rt.fi_name
                      && CF.Types.equal_ty ofi.Rt.fi_ty nfi.Rt.fi_ty
                    then begin
                      Heap.set heap ~addr:c ~off:nfi.Rt.fi_offset
                        (Heap.get heap ~addr:a ~off:ofi.Rt.fi_offset);
                      incr replayed
                    end)
                  a_cls.Rt.instance_fields)
            c_cls.Rt.instance_fields
  done;
  !replayed

(* --- the lazy update window ----------------------------------------------

   With [config.lazy_update] the commit pause runs no transforming
   collection at all: metadata is installed, statics carried, the heap
   epoch is bumped, and the world resumes.  Old-epoch objects are then
   transformed on first access — the interpreter's read barrier hands
   every dereferenced reference slot to [transform_slot] — while the
   scheduler's incremental sweeper drains the remainder a bounded number
   of objects per round.  An [indirection_mode] VM (the JDrums/DVM
   baseline, lib/baseline) commits every update this way but never
   sweeps: its window stays open until the next update drains it.

   A transformed original is overwritten with a lazy-forward marker
   ([Heap.make_lazy_fwd]) pointing at its new-layout replacement; its
   verbatim pristine copy carries a copy tag ([Heap.make_copy_tag]) so
   neither the barrier nor the sweeper touches it again, and the (copy,
   replacement) pair goes into the window's update log — the same shape
   the eager transforming collection produces, so [rollback] and the
   guard window's inverse-update replay work unchanged.

   The commit's [Txn] stays open for the life of the window.  It commits
   when the last pending object has been transformed ([lazy_finalize]);
   a residual transformer failure instead parks the faulting thread
   (B_dsu) and the next scheduler round rolls the whole window back
   through [rollback], with the inverse plan ([lazy_rollback]). *)

type lazy_via = L_barrier | L_sweep | L_force

type lazy_ctx = {
  lz_txn : Txn.t; (* open until finalize or rollback *)
  lz_s : session; (* its sandbox is active only around invocations *)
  lz_info : State.lazy_info;
  lz_guarded : bool; (* a guard window retains the window's log *)
  lz_proofs : unit -> Confree.t; (* the prepared update's memoised proofs *)
  mutable lz_cursor : int; (* sweeper position in to-space *)
  mutable lz_cursor_gc : int; (* gc_count the cursor belongs to *)
  mutable lz_abort_attempts : int; (* rounds spent waiting to roll back *)
}

(* Run jvolveObject(new, old) for one freshly made pair.  Unlike the
   eager phase the sandbox is installed only for the duration of the
   invocation — app code between barrier hits must not be fuel-charged
   or write-guarded — and the allocation watermark is reset per call so
   the transformer's own temporaries are writable. *)
let lazy_run_transformer vm (ctx : lazy_ctx) ~new_addr ~old_copy =
  let heap = vm.State.heap in
  let sb = ctx.lz_s.sandbox in
  let saved_sandbox = vm.State.sandbox in
  let saved_wm = sb.State.sb_watermark in
  let saved_wm_gc = sb.State.sb_watermark_gc in
  let restore () =
    vm.State.sandbox <- saved_sandbox;
    sb.State.sb_watermark <- saved_wm;
    sb.State.sb_watermark_gc <- saved_wm_gc
  in
  vm.State.sandbox <- Some sb;
  sb.State.sb_watermark <- heap.Heap.free;
  sb.State.sb_watermark_gc <- heap.Heap.gc_count;
  Fun.protect ~finally:restore (fun () ->
      transform_object vm ctx.lz_s ~new_addr ~old_addr:old_copy)

(* Transform the object referenced by [slots.(idx)] if it is still
   pending, chase an already-installed marker, and rewrite the slot.
   [slots] must be a GC root (an operand stack, the scratch root): the
   transformer may allocate and collect. *)
let transform_slot vm (ctx : lazy_ctx) ~via slots idx =
  if ctx.lz_s.abort <> None then raise Interp.Lazy_abort;
  let heap = vm.State.heap in
  let li = ctx.lz_info in
  let addr = Value.to_ref slots.(idx) in
  let gcw = heap.Heap.space.(addr + Heap.off_gc) in
  if Heap.is_lazy_fwd gcw then begin
    let rec chase a =
      let w = heap.Heap.space.(a + Heap.off_gc) in
      if Heap.is_lazy_fwd w then chase (Heap.lazy_fwd_target w) else a
    in
    slots.(idx) <- Value.of_ref (chase (Heap.lazy_fwd_target gcw));
    li.State.li_chases <- li.State.li_chases + 1
  end
  else if Heap.is_copy_tag gcw then () (* pristine update-log copy *)
  else
    let new_cid =
      State.lazy_target li heap.Heap.space.(addr + Heap.off_class)
    in
    if new_cid >= 0 then begin
      let new_cls = Rt.class_by_id vm.State.reg new_cid in
      let old_size = Gc.obj_size vm heap.Heap.space addr in
      (* both allocations must land without an intervening collection,
         so the blit source cannot move between them *)
      State.ensure_free vm (new_cls.Rt.size_words + old_size);
      let addr = Value.to_ref slots.(idx) (* the GC may have moved it *) in
      let old_tag = heap.Heap.space.(addr + Heap.off_gc) in
      let new_addr = State.alloc_object vm new_cls in
      let old_copy = Heap.alloc_raw heap ~nwords:old_size in
      if old_copy = 0 then
        State.fatal "lazy transform: reserved space vanished";
      Array.blit heap.Heap.space addr heap.Heap.space old_copy old_size;
      heap.Heap.space.(old_copy + Heap.off_gc) <- Heap.make_copy_tag old_tag;
      (* marker first: a re-entrant touch of the same object during its
         own transformer (the cyclic case, fatal in the eager path)
         chases the marker and reads the half-written replacement
         instead of recursing *)
      heap.Heap.space.(addr + Heap.off_gc) <- Heap.make_lazy_fwd new_addr;
      Update_log.push li.State.li_log ~old_copy ~new_addr;
      slots.(idx) <- Value.of_ref new_addr;
      li.State.li_transformed <- li.State.li_transformed + 1;
      (match via with
      | L_barrier ->
          li.State.li_barrier_hits <- li.State.li_barrier_hits + 1
      | L_sweep -> li.State.li_swept <- li.State.li_swept + 1
      | L_force -> ());
      let gc_before = heap.Heap.gc_count in
      (try lazy_run_transformer vm ctx ~new_addr ~old_copy
       with Update_failure (cause, msg) ->
         (* undo the pair when nothing moved, so the failed transform
            leaves no marker behind; after a collection the rollback's
            redirect restores it from the copy instead *)
         if heap.Heap.gc_count = gc_before then begin
           heap.Heap.space.(addr + Heap.off_gc) <- old_tag;
           State.sandbox_pop ctx.lz_s.sandbox;
           slots.(idx) <- Value.of_ref addr;
           li.State.li_transformed <- li.State.li_transformed - 1;
           match via with
           | L_barrier ->
               li.State.li_barrier_hits <- li.State.li_barrier_hits - 1
           | L_sweep -> li.State.li_swept <- li.State.li_swept - 1
           | L_force -> ()
         end;
         if ctx.lz_s.abort = None then ctx.lz_s.abort <- Some (cause, msg);
         Jv_obs.Obs.emit vm.State.obs ~scope:"core.lazy" "lazy.abort"
           [ ("reason", Jv_obs.Obs.Str msg) ];
         raise Interp.Lazy_abort)
    end

(* The read barrier ([State.lazy_info.li_barrier]).  Fast path: one
   gc-word load and compare against the window's epoch.  Old-epoch
   objects of unchanged classes are stamped current on first touch so
   they too take the fast path from then on. *)
let lazy_barrier_hook (ctx : lazy_ctx) vm slots idx =
  let w = slots.(idx) in
  if Value.is_ref w then begin
    let heap = vm.State.heap in
    let li = ctx.lz_info in
    let addr = Value.to_ref w in
    let gcw = heap.Heap.space.(addr + Heap.off_gc) in
    if gcw = li.State.li_epoch then ()
    else if
      Heap.is_plain_tag gcw
      && State.lazy_target li heap.Heap.space.(addr + Heap.off_class) < 0
    then heap.Heap.space.(addr + Heap.off_gc) <- li.State.li_epoch
    else transform_slot vm ctx ~via:L_barrier slots idx
  end

(* Transform the object at [addr] through the scratch root: the targets
   of the sweeper and of the Jvolve.transform native sit in no other
   root. *)
let transform_addr vm (ctx : lazy_ctx) ~via addr =
  let scratch = ctx.lz_s.scratch in
  scratch.(0) <- Value.of_ref addr;
  Fun.protect
    ~finally:(fun () -> scratch.(0) <- 0)
    (fun () -> transform_slot vm ctx ~via scratch 0)

(* One bounded sweep over to-space.  Returns true when the walk reached
   the allocation frontier with no pending object left (and no abort and
   no mid-pass collection): the window has drained. *)
let sweep_pass vm (ctx : lazy_ctx) ~budget =
  let heap = vm.State.heap in
  let li = ctx.lz_info in
  if ctx.lz_cursor_gc <> heap.Heap.gc_count then begin
    (* a collection moved everything: restart the walk in new to-space *)
    ctx.lz_cursor <- 1;
    ctx.lz_cursor_gc <- heap.Heap.gc_count
  end;
  let budget = ref budget in
  while
    !budget > 0
    && ctx.lz_cursor < heap.Heap.free
    && ctx.lz_cursor_gc = heap.Heap.gc_count
    && ctx.lz_s.abort = None
  do
    let addr = ctx.lz_cursor in
    let cid = heap.Heap.space.(addr + Heap.off_class) in
    let size = Gc.obj_size vm heap.Heap.space addr in
    let gcw = heap.Heap.space.(addr + Heap.off_gc) in
    if Heap.is_plain_tag gcw && State.lazy_target li cid >= 0 then begin
      try transform_addr vm ctx ~via:L_sweep addr
      with Interp.Lazy_abort -> ()
    end;
    (* the budget bounds objects *visited*, not just transformed: each
       round's sweep work stays O(budget) regardless of heap size *)
    decr budget;
    if ctx.lz_cursor_gc = heap.Heap.gc_count then ctx.lz_cursor <- addr + size
  done;
  ctx.lz_s.abort = None
  && ctx.lz_cursor >= heap.Heap.free
  && ctx.lz_cursor_gc = heap.Heap.gc_count

(* Every pending object has been transformed: commit the transaction
   that has been open since the pause.  The log leaves the in-flight
   slot; a guard window still retaining it keeps it rooted. *)
let lazy_finalize vm (ctx : lazy_ctx) =
  let li = ctx.lz_info in
  end_session vm ctx.lz_s;
  Txn.commit vm ctx.lz_txn;
  (* every pending object is transformed, but interior pointers still
     aiming at lazy-forward markers are only rewritten on dereference —
     and the barrier is gone now.  One collection chases them all (the
     GC does it at [forward] entry), after which the markers (and the
     copies, unless a guard window retains the log) are garbage. *)
  ignore (Gc.collect vm);
  let obs = vm.State.obs in
  Jv_obs.Obs.incr obs "core.lazy.drained";
  Jv_obs.Obs.observe_int obs "core.lazy.transformed" li.State.li_transformed;
  count_pairs obs ctx.lz_s;
  Jv_obs.Obs.emit obs ~scope:"core.lazy" "lazy.drained"
    [
      ("transformed", Jv_obs.Obs.Int li.State.li_transformed);
      ("barrier_hits", Jv_obs.Obs.Int li.State.li_barrier_hits);
      ("swept", Jv_obs.Obs.Int li.State.li_swept);
      ("chases", Jv_obs.Obs.Int li.State.li_chases);
      ("planned", Jv_obs.Obs.Int ctx.lz_s.ot_planned);
      ("interpreted", Jv_obs.Obs.Int ctx.lz_s.ot_interpreted);
    ]

(* The default inverse transformation, applied to objects the app
   allocated as new-version instances during the window (they are in no
   update log, so the rollback's redirect cannot restore them): each
   inverse pair's zeroed old-layout replacement gets back exactly the
   fields the forward default would have copied — the [copy_plan] run in
   reverse, from the new-layout snapshot.  A field whose type changed
   stays at its default. *)
let lazy_untransform_defaults vm spec inv_log =
  let heap = vm.State.heap in
  let reg = vm.State.reg in
  let plans = Hashtbl.create 8 in
  for i = 0 to Update_log.pairs inv_log - 1 do
    let snap = Update_log.old_copy inv_log i
    and restored = Update_log.new_addr inv_log i in
    let key = (Heap.class_id heap snap, Heap.class_id heap restored) in
    let plan =
      match Hashtbl.find_opt plans key with
      | Some p -> p
      | None ->
          let p =
            copy_plan spec
              ~old_cls:(Rt.class_by_id reg (snd key))
              ~new_cls:(Rt.class_by_id reg (fst key))
          in
          Hashtbl.replace plans key p;
          p
    in
    for k = 0 to (Array.length plan / 2) - 1 do
      Heap.set heap ~addr:restored ~off:plan.(2 * k)
        (Heap.get heap ~addr:snap ~off:plan.((2 * k) + 1))
    done
  done

(* A failed walk for an abort reason: the issue count and the first. *)
let found_issues (rep : Jv_vm.Heapverify.report) =
  Printf.sprintf "heap verify found %d issue(s): %s" rep.hv_total_issues
    (match rep.hv_issues with
    | i :: _ -> Jv_vm.Heapverify.issue_to_string i
    | [] -> "?")

(* The post-transform heap integrity walk.  The update log's old copies
   are the one place stale-class instances may legally survive. *)
let verify_transformed vm log =
  let rep = Jv_vm.Heapverify.run ~stale_ok:(Update_log.old_copy_set log) vm in
  Jv_obs.Obs.emit vm.State.obs ~scope:"core.update" "phase.verify.done"
    [
      ("ms", Jv_obs.Obs.Float rep.Jv_vm.Heapverify.hv_ms);
      ("objects", Jv_obs.Obs.Int rep.Jv_vm.Heapverify.hv_objects);
      ("issues", Jv_obs.Obs.Int rep.Jv_vm.Heapverify.hv_total_issues);
    ];
  if not rep.Jv_vm.Heapverify.hv_ok then
    let msgs =
      List.map Jv_vm.Heapverify.issue_to_string rep.Jv_vm.Heapverify.hv_issues
    in
    raise (Update_failure (C_heap_verify msgs, found_issues rep))

(* --- the rollback ------------------------------------------------------------

   One sequence undoes an update, whoever aborts it: [apply]'s failure
   handler, or a lazy window after the app ran on the new version.  The
   statics go back first, so nothing the update allocated stays
   reachable through its appended slots.  One collection on the
   still-installed metadata then chases the log's redirect (new object →
   pristine old copy), with a window's inverse plan for the new-version
   objects the app allocated (they are in no log).  The metadata goes
   back last; the collector reads class tables only for live objects,
   so this one order serves both modes. *)

type rollback_of =
  | Abort of phase (* [apply]'s failure handler, failing in [phase] *)
  | Window of Spec.t * Gc.transform_plan (* a lazy window's spec and plan *)

let rollback vm txn ~reason (of_ : rollback_of) : State.rollback =
  let obs = vm.State.obs in
  let t0 = now () in
  let inverse =
    match of_ with
    | Abort _ -> None
    | Window (spec, plan) ->
        let inv = Array.make vm.State.reg.Rt.n_classes (-1) in
        Array.iteri (fun o n -> if n >= 0 then inv.(n) <- o) plan;
        Some (spec, inv)
  in
  let restored =
    try
      Txn.restore_statics vm txn;
      (* off the roots, or the log's own slots would be redirected *)
      let log = vm.State.update_log in
      vm.State.update_log <- None;
      (match log with
      | Some log when inverse <> None || Update_log.pairs log > 0 ->
          (* the old copies are live objects again: drop the pristine-copy
             tag a lazy window gave them, or a later window would skip
             them (an eager collection's copies keep their originals'
             plain tags) *)
          let space = vm.State.heap.Heap.space in
          for i = 0 to Update_log.pairs log - 1 do
            let gcw = Update_log.old_copy log i + Heap.off_gc in
            if Heap.is_copy_tag space.(gcw) then
              space.(gcw) <- Heap.copy_tag_epoch space.(gcw)
          done;
          let r =
            Gc.collect ?plan:(Option.map snd inverse)
              ~redirect:(Update_log.redirect log) vm
          in
          Option.iter
            (fun (spec, _) -> lazy_untransform_defaults vm spec r.Gc.update_log)
            inverse
      | _ -> ());
      let audit = Txn.restore_metadata vm txn in
      (* the inverse collection's snapshots: their class ids dangle now *)
      if inverse <> None then ignore (Gc.collect vm);
      Result.map_error (fun why -> "; audit: " ^ why) audit
    with ex -> Error ("; rollback raised: " ^ Printexc.to_string ex)
  in
  (* a rollback that leaves ill-typed references standing is no rollback
     at all: its untrusted verdict routes the instance into quarantine *)
  let failure =
    match restored with
    | Ok () when vm.State.config.verify_heap ->
        let rep = Jv_vm.Heapverify.run vm in
        if rep.Jv_vm.Heapverify.hv_ok then None
        else begin
          Jv_obs.Obs.incr obs "core.update.post_rollback_verify_failures";
          Some ("; post-rollback " ^ found_issues rep)
        end
    | Ok () -> None
    | Error note -> Some note
  in
  let ok = failure = None and note = Option.value failure ~default:"" in
  let ms = (now () -. t0) *. 1000.0 in
  let counters, mode =
    match of_ with
    | Abort p ->
        ( "core.update",
          [ ("mode", Jv_obs.Obs.Str "eager");
            ("phase", Jv_obs.Obs.Str (phase_to_string p)) ] )
    | Window _ -> ("core.lazy", [ ("mode", Jv_obs.Obs.Str "lazy") ])
  in
  Jv_obs.Obs.incr obs (counters ^ ".rollbacks");
  Jv_obs.Obs.observe obs (counters ^ ".rollback_ms") ms;
  Jv_obs.Obs.emit obs ~scope:"core.update" "update.rollback"
    (mode
    @ [
        ("reason", Jv_obs.Obs.Str reason);
        ("ok", Jv_obs.Obs.Str (string_of_bool ok));
        ("note", Jv_obs.Obs.Str note);
        ("ms", Jv_obs.Obs.Float ms);
      ]);
  { State.rb_ok = ok; rb_note = note; rb_ms = ms }

(* Roll the whole window back: the VM resumes on the old version as if
   the update never committed.  Unlike the eager failure path the app
   has been RUNNING on the new version, so this needs a DSU-grade [sync]
   against current (new) metadata — a thread inside a changed method
   cannot survive the metadata swap.  A [Blocked] sync the caller forces
   through lifts no frames (counted as unsafe frames).  Stale-code frames
   are lifted onto the restored metadata after [rollback]: the heap
   verifier reads no frames. *)
let lazy_rollback vm (ctx : lazy_ctx) ~reason sync : State.rollback =
  let obs = vm.State.obs in
  let osr_frames =
    match sync with
    | Safepoint.Safe frames -> frames
    | Safepoint.Blocked _ ->
        Jv_obs.Obs.incr obs "core.lazy.rollback_unsafe_frames";
        []
  in
  end_session vm ctx.lz_s;
  (* the guard window (if any) rode on this log and dies with it *)
  if ctx.lz_guarded then begin
    vm.State.guard_retained <- None;
    vm.State.guard_tick <- None
  end;
  let verdict =
    rollback vm ctx.lz_txn ~reason
      (Window (ctx.lz_s.ot_spec, ctx.lz_info.State.li_plan))
  in
  List.iter
    (fun fr ->
      try Osr.replace_frame vm fr
      with Osr.Osr_failed _ ->
        Jv_obs.Obs.incr obs "core.lazy.rollback_osr_failures")
    osr_frames;
  Safepoint.clear_barriers vm;
  Safepoint.release_parked vm;
  verdict

(* The safe-point check a window rollback needs, against the restricted
   set of the update it undoes. *)
let window_sync vm (ctx : lazy_ctx) =
  Safepoint.check vm
    (Safepoint.compute ~proofs:ctx.lz_proofs vm ctx.lz_s.ot_spec)

(* The per-round hook ([State.lazy_info.li_sweep]): roll back if
   aborting — a blocked sync parks behind return barriers and retries
   next round, until the retry budget is spent — else sweep one budget's
   worth and finalize on completion.  An [indirection_mode] VM does not
   sweep: its objects migrate only when dereferenced, and its window
   stays open until the next update drains it. *)
let lazy_round (ctx : lazy_ctx) vm =
  match ctx.lz_s.abort with
  | Some (_, reason) -> (
      ctx.lz_abort_attempts <- ctx.lz_abort_attempts + 1;
      match window_sync vm ctx with
      | Safepoint.Blocked stuck when ctx.lz_abort_attempts <= 200 ->
          ignore (Safepoint.install_barriers stuck : int);
          Safepoint.unpark_stuck stuck
      | sync -> ignore (lazy_rollback vm ctx ~reason sync : State.rollback))
  | None ->
      if not vm.State.config.indirection_mode then begin
        let budget = max 1 vm.State.config.lazy_sweep_budget in
        if sweep_pass vm ctx ~budget then lazy_finalize vm ctx
      end

(* Synchronous drain ([State.lazy_info.li_drain]): force every residual
   transform now — a new update, or the guard's inverse update, needs
   the window resolved before it can install metadata.  [Error] carries
   the verdict when a residual transformer trapped and the window rolled
   back instead, forced through a blocked sync. *)
let rec lazy_drain_now (ctx : lazy_ctx) vm =
  match ctx.lz_s.abort with
  | Some (_, reason) ->
      Error (lazy_rollback vm ctx ~reason (window_sync vm ctx))
  | None ->
      if sweep_pass vm ctx ~budget:max_int then Ok (lazy_finalize vm ctx)
      else lazy_drain_now ctx vm

(* Open the window over session [s]: its hooks ride on the lazy info,
   so installing it installs the barrier, the sweeper and the drain at
   once (and [end_session] removes them all). *)
let open_window vm txn (s : session) ~plan ~guarded ~proofs =
  let rec li =
    {
      State.li_plan = plan;
      li_epoch = vm.State.heap.Heap.epoch;
      li_log = s.sandbox.State.sb_log;
      li_transformed = 0;
      li_barrier_hits = 0;
      li_swept = 0;
      li_chases = 0;
      li_barrier = (fun vm slots idx -> lazy_barrier_hook ctx vm slots idx);
      li_sweep = (fun vm -> lazy_round ctx vm);
      li_drain = (fun vm -> lazy_drain_now ctx vm);
    }
  and ctx =
    {
      lz_txn = txn;
      lz_s = s;
      lz_info = li;
      lz_guarded = guarded;
      lz_proofs = proofs;
      lz_cursor = 1;
      lz_cursor_gc = vm.State.heap.Heap.gc_count;
      lz_abort_attempts = 0;
    }
  in
  vm.State.lazy_info <- Some li;
  (* the Jvolve.transform native: force one object *)
  vm.State.force_transform <-
    Some (fun vm addr -> transform_addr vm ctx ~via:L_force addr);
  ctx

(* --- the driver ----------------------------------------------------------- *)

(* What OSR mutates per frame, for restoration when a later frame's
   replacement (or an injected fault) aborts the update. *)
type frame_snap = { fs_code : Jv_vm.Machine.compiled; fs_pc : int }

let snap_frame (fr : State.frame) =
  { fs_code = fr.State.code; fs_pc = fr.State.pc }

let restore_frame (fr : State.frame) s =
  fr.State.code <- s.fs_code;
  fr.State.pc <- s.fs_pc

(* The whole installation runs inside a [Txn]: any failure in the load /
   GC / transform / OSR phases — including the armed fault plan's
   [updater.*] injection points — rolls the VM back to the pre-update
   snapshot and reports a typed abort instead of leaving a half-installed
   class table (the paper's all-or-nothing claim, §3.3-3.4).

   Step order differs from the paper's presentation in one way: OSR runs
   {e last}, after the transformer phase.  The world is stopped either
   way, so nothing observes the difference — but every failure before
   OSR then needs no frame surgery to undo, and an OSR failure itself
   restores the frames it touched from snapshots. *)
let apply ?(retain_log = false) ?replay vm (p : Transformers.prepared)
    ~(restricted : Safepoint.restricted)
    ~(osr_frames : State.frame list) : (timings, abort) result =
  (* a still-draining lazy window from a previous update must resolve
     before new metadata can install on top of it; proceed either way —
     a drain-time rollback leaves the VM cleanly on the older version *)
  ignore (State.drain_window vm : (unit, State.rollback) result);
  let spec = p.Transformers.p_spec in
  (* a guard revert must be eager: the inverse replay reads restored
     objects immediately after the transforming collection *)
  let lazy_mode =
    (vm.State.config.lazy_update || vm.State.config.indirection_mode)
    && replay = None
  in
  let lazy_ctx_r = ref None in
  let faults = vm.State.faults in
  let obs = vm.State.obs in
  let t0 = now () in
  let txn = Txn.capture vm in
  let phase = ref P_load in
  let frame_snaps = ref [] in
  let run () =
    (* a guard-window revert: give the chaos plan its deterministic shot
       at the revert path itself (a fire rolls the revert back — the VM
       stays on the version being backed out, heap intact) *)
    if replay <> None then Faults.point faults "guard.revert";
    (* 1-3: metadata installation *)
    let olds = rename_old_classes vm spec in
    let news = install_new_classes vm spec in
    carry_over_statics vm spec olds news;
    swap_method_bodies vm spec;
    let invalidated = invalidate_stale_code vm restricted in
    Faults.point faults "updater.load";
    (* static initializers of brand-new classes *)
    List.iter
      (fun name ->
        match List.assoc_opt name news with
        | Some rc -> (
            try Classloader.run_clinit vm rc
            with Interp.Sync_trap e -> uerr "<clinit> of %s trapped: %s" name e)
        | None -> ())
      spec.Spec.diff.Diff.added_classes;
    (* install the transformer class *)
    let transformer_rc =
      match
        Classloader.install vm ~replace:true [ p.Transformers.p_transformer ]
      with
      | [ rc ] -> rc
      | _ -> uerr "failed to install transformer class"
    in
    let t_load = now () in
    Jv_obs.Obs.incr ~by:invalidated obs "core.update.invalidated_methods";
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.metadata.done"
      [
        ("ms", Jv_obs.Obs.Float ((t_load -. t0) *. 1000.0));
        ("invalidated", Jv_obs.Obs.Int invalidated);
        ("osr_frames", Jv_obs.Obs.Int (List.length osr_frames));
      ];
    (* 5: the transforming collection *)
    phase := P_gc;
    Faults.point faults "updater.gc";
    (* the transform plan, indexed by old class id: the eager collection
       reads it, and a lazy window keeps it as [li_plan] *)
    let plan = Array.make vm.State.reg.Rt.n_classes (-1) in
    List.iter
      (fun (name, (old_rc : Rt.rt_class)) ->
        match List.assoc_opt name news with
        | Some (new_rc : Rt.rt_class) -> plan.(old_rc.Rt.cid) <- new_rc.Rt.cid
        | None -> () (* deleted classes: instances survive untransformed *))
      olds;
    (* no transforming collection for a lazy commit: it bumps the heap
       epoch and opens a window instead (read barrier, sweeper, drain) —
       old-epoch objects transform on first access and the scheduler's
       sweeper drains the rest *)
    let gcres = if lazy_mode then None else Some (Gc.collect ~plan vm) in
    let log, transformed, copied =
      match gcres with
      | Some r ->
          (r.Gc.update_log, r.Gc.transformed_objects, r.Gc.copied_objects)
      | None -> (Update_log.create (), 0, 0)
    in
    vm.State.update_log <- Some log;
    let t_gc = now () in
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.gc.done"
      ([
         ("ms", Jv_obs.Obs.Float ((t_gc -. t_load) *. 1000.0));
         ("transformed", Jv_obs.Obs.Int transformed);
         ("copied", Jv_obs.Obs.Int copied);
       ]
      @ if lazy_mode then [ ("lazy", Jv_obs.Obs.Str "true") ] else []);
    (* 6: transformers, sandboxed (fuel + write restriction): every
       new-layout object in the log is a legitimate write target *)
    phase := P_transform;
    let s = start_session vm spec transformer_rc ~log in
    let transformed =
      if lazy_mode then begin
        vm.State.heap.Heap.epoch <- vm.State.heap.Heap.epoch + 1;
        (* idle between invocations: marked done so the scheduler never
           slices it; [invoke] re-registers it per call *)
        State.finish vm s.carrier State.T_done;
        let lctx =
          open_window vm txn s ~plan ~guarded:retain_log ~proofs:(fun () ->
              Transformers.proofs p)
        in
        lazy_ctx_r := Some lctx;
        (* class transformers only — they run eagerly even in a lazy
           update (statics must be coherent when the world resumes),
           forcing through the barrier whatever objects they touch *)
        Faults.point faults "updater.transform";
        run_class_transformers vm s;
        lctx.lz_info.State.li_transformed
      end
      else begin
        let status = Array.make (max 1 (Update_log.pairs log)) 0 in
        vm.State.sandbox <- Some s.sandbox;
        vm.State.force_transform <-
          Some (fun vm addr -> force_transform vm s status addr);
        Fun.protect
          ~finally:(fun () -> end_session vm s) (* 7: drops the transformer *)
          (fun () ->
            Faults.point faults "updater.transform";
            run_class_transformers vm s;
            for i = 0 to Update_log.pairs log - 1 do
              Faults.point faults "updater.transform";
              run_pair vm s status i
            done);
        (* 7.25: guard revert only — restore the fields the forward
           update dropped from the retained forward log (see
           [replay_retained]) *)
        (match replay with
        | Some fwd_log when Update_log.pairs fwd_log > 0 ->
            let n = replay_retained vm spec fwd_log in
            Jv_obs.Obs.incr ~by:n obs "core.guard.replayed_fields";
            Jv_obs.Obs.emit obs ~scope:"core.update" "phase.replay.done"
              [
                ("fields", Jv_obs.Obs.Int n);
                ("pairs", Jv_obs.Obs.Int (Update_log.pairs fwd_log));
              ]
        | _ -> ());
        (* interpreted transformers charge a step per instruction, copy
           plans one step per pair *)
        Jv_obs.Obs.observe_int obs "core.update.transformer_steps"
          s.sandbox.State.sb_total_steps;
        count_pairs obs s;
        transformed
      end
    in
    let t_transform = now () in
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.transform.done"
      [
        ("ms", Jv_obs.Obs.Float ((t_transform -. t_gc) *. 1000.0));
        ("pairs", Jv_obs.Obs.Int (Update_log.pairs log));
        ("planned", Jv_obs.Obs.Int s.ot_planned);
        ("interpreted", Jv_obs.Obs.Int s.ot_interpreted);
        ("steps", Jv_obs.Obs.Int s.sandbox.State.sb_total_steps);
      ];
    (* 7.5: the optional heap integrity walk *)
    if vm.State.config.verify_heap then begin
      phase := P_verify;
      verify_transformed vm log
    end;
    let t_verify = now () in
    (* 4 (run last, see above): OSR of the parked category-(2) frames *)
    phase := P_osr;
    frame_snaps := List.map snap_frame osr_frames;
    Faults.point faults "updater.osr";
    List.iter
      (fun fr ->
        try Osr.replace_frame vm fr
        with Osr.Osr_failed e -> uerr "OSR failed: %s" e)
      osr_frames;
    let t_end = now () in
    {
      u_load_ms = ((t_load -. t0) +. (t_end -. t_verify)) *. 1000.0;
      u_gc_ms = (t_gc -. t_load) *. 1000.0;
      u_transform_ms = (t_transform -. t_gc) *. 1000.0;
      u_verify_ms = (t_verify -. t_transform) *. 1000.0;
      u_total_ms = (t_end -. t0) *. 1000.0;
      u_osr = List.length osr_frames;
      u_invalidated_methods = invalidated;
      u_transformed_objects = transformed;
      u_copied_objects = copied;
    }
  in
  match run () with
  | timings ->
      (match !lazy_ctx_r with
      | Some lctx ->
          (* the window stays open (and the txn with it): the scheduler
             sweeps it and finalize/rollback closes it; a guard window
             retains the log it is still building *)
          if retain_log then
            vm.State.guard_retained <- Some lctx.lz_info.State.li_log;
          Jv_obs.Obs.emit obs ~scope:"core.lazy" "lazy.window.open"
            [ ("epoch", Jv_obs.Obs.Int lctx.lz_info.State.li_epoch) ]
      | None ->
          if retain_log then Txn.commit_retaining vm txn
          else Txn.commit vm txn);
      Ok timings
  | exception e ->
      let reason, cause, killed_at =
        match e with
        | Update_error m -> (m, C_generic, None)
        | Update_failure (cause, m) -> (m, cause, None)
        | Faults.Injected pt -> ("injected fault at " ^ pt, C_injected pt, None)
        | Faults.Killed pt -> ("VM killed at " ^ pt, C_injected pt, Some pt)
        | Interp.Sync_trap m -> ("transformer trap: " ^ m, C_generic, None)
        | Jv_vm.Jit.Compile_error m -> ("jit: " ^ m, C_generic, None)
        | Classloader.Load_error errs ->
            ("load: " ^ String.concat "; " errs, C_generic, None)
        | e ->
            (* unrecoverable VM conditions (e.g. to-space overflow
               mid-collection) are outside the fault model *)
            Txn.commit vm txn;
            raise e
      in
      (* a lazy commit that failed before opening the window: the world
         never resumed, so the pairs made so far roll back exactly like
         an eager log — detach the half-built window first *)
      Option.iter (fun lctx -> end_session vm lctx.lz_s) !lazy_ctx_r;
      (match !frame_snaps with
      | [] -> ()
      | snaps -> List.iter2 restore_frame osr_frames snaps);
      let v = rollback vm txn ~reason (Abort !phase) in
      (match killed_at with
      | Some pt -> vm.State.killed <- Some pt
      | None -> ());
      Error
        {
          a_phase = !phase;
          a_reason = reason ^ v.State.rb_note;
          a_cause = cause;
          a_rolled_back = v.State.rb_ok;
          a_rollback_ms = v.State.rb_ms;
        }
