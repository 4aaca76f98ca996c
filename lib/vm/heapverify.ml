(* The post-update heap integrity verifier.

   A linear walk of the allocated prefix of to-space (the same traversal
   order as the collector's Cheney scan) that re-derives object boundaries
   from class metadata and checks, object by object:

   - every header resolves to an installed class: the class id is in
     range and the object's size keeps the walk aligned with the bump
     allocator;
   - no instance of a *superseded* class (one renamed aside by an update
     that installed a valid replacement under the original name) exists
     outside the caller-supplied allowance — during an update that
     allowance is exactly the update log's old copies, after a rollback
     it is empty;
   - every reference-typed field holds null or a reference to a live
     object whose class is compatible with the declared type, and never
     an int-tagged word (and vice versa for int/bool fields);
   - no reference field reaches a superseded object: the update log must
     be the only path to old-version metadata;
   - array elements that look like references point at object starts;
   - every valid class's static slots are well-typed the same way;
   - every String object's one field is an int-tagged sid naming a slot
     of the string table (below [State.n_strings]).

   Classes that are invalid but have no valid replacement (deleted
   classes, the unloaded transformer class) are tolerated: their
   surviving instances are legal, if unusual, post-update state.

   While a lazy update window is open ([State.lazy_info]) the heap is
   legitimately mixed-epoch: instances of the classes in the window's
   plan are still awaiting transformation, so both they and references
   to them are allowed (and exempt from the declared-type check — their
   layout is the old version's until the barrier or sweeper gets to
   them).  The allowance is keyed by class id, not address, so it needs
   no walk of its own.

   The verifier's checking passes only read; but when every issue found
   is an instance of a superseded class that nothing references — the
   signature of stale update-log copies lingering as garbage after an
   unguarded commit, which no collection has erased yet — [run] collects
   once and re-verifies instead of reporting a false failure
   ([hv_collected] records that it did).  Callers that verify
   mid-update pass [stale_ok] and are never collected under; open guard
   or lazy windows also suppress it. *)

module CF = Jv_classfile

type issue = { i_addr : int; i_class : string; i_what : string }

type report = {
  hv_ok : bool;
  hv_objects : int;
  hv_refs : int; (* reference slots checked (fields, elements, statics) *)
  hv_statics : int;
  hv_issues : issue list; (* first [max_issues] only *)
  hv_total_issues : int;
  hv_ms : float;
  hv_collected : bool; (* a stale-copy collection ran before the verdict *)
}

let max_issues = 16

let issue_to_string i =
  Printf.sprintf "%s@%d: %s" i.i_class i.i_addr i.i_what

(* The [guard_pending] allowance mirrors [stale_ok]: while a post-commit
   guard window holds the update log alive (for a possible inverse-update
   replay), the log's old copies are legitimate superseded objects even
   though the update has committed.  It defaults from the VM's retained
   log so every call site — post-rollback audits, the gauntlet, tests —
   is guard-aware without threading the allowance around. *)
let default_guard_pending (vm : State.t) =
  match vm.State.guard_retained with
  | None -> fun (_ : int) -> false
  | Some log -> Update_log.old_copy_set log

(* One full verification pass.  Returns the report plus the number of
   issues that were unreferenced superseded instances — the only kind a
   plain collection can erase. *)
let run_once ~stale_ok ~guard_pending ~lazy_pending (vm : State.t) :
    report * int =
  let t0 = Unix.gettimeofday () in
  let stale_ok a = stale_ok a || guard_pending a in
  let heap = vm.State.heap in
  let reg = vm.State.reg in
  let issues = ref [] in
  let n_issues = ref 0 in
  let n_stale_instances = ref 0 in
  let objects = ref 0 in
  let refs = ref 0 in
  let statics = ref 0 in
  let flag addr cls fmt =
    Printf.ksprintf
      (fun what ->
        incr n_issues;
        if !n_issues <= max_issues then
          issues := { i_addr = addr; i_class = cls; i_what = what } :: !issues)
      fmt
  in
  (* A renamed-aside class is *superseded* when a valid class owns its
     original (load-time) name: instances of it must only survive inside
     the update log.  Invalid classes whose original name is gone were
     deleted; their instances are tolerated. *)
  let superseded = Array.make (max 1 reg.Rt.n_classes) false in
  for cid = 0 to reg.Rt.n_classes - 1 do
    let c = reg.Rt.classes.(cid) in
    if not c.Rt.valid then
      match c.Rt.defn with
      | Some d -> (
          match Rt.find_class reg d.CF.Cls.c_name with
          | Some r when r.Rt.valid && r.Rt.cid <> cid ->
              superseded.(cid) <- true
          | _ -> ())
      | None -> ()
  done;
  (* pass 1: re-derive object boundaries *)
  let starts = Hashtbl.create 1024 in
  let scan = ref 1 in
  let aligned = ref true in
  while !aligned && !scan < heap.Heap.free do
    let addr = !scan in
    let cid = Heap.class_id heap addr in
    if cid < 0 || cid >= reg.Rt.n_classes then begin
      flag addr "?" "header class id %d out of range (0..%d)" cid
        (reg.Rt.n_classes - 1);
      aligned := false (* cannot size this object; stop the walk *)
    end
    else begin
      let cls = reg.Rt.classes.(cid) in
      let size = Gc.obj_size vm heap.Heap.space addr in
      if size < Heap.header_words || addr + size > heap.Heap.free then begin
        flag addr cls.Rt.name "object size %d words breaks the heap walk"
          size;
        aligned := false
      end
      else begin
        Hashtbl.replace starts addr cid;
        incr objects;
        scan := addr + size
      end
    end
  done;
  (* One typed slot: [declared] is None for erased array elements. *)
  let check_slot ~home ~home_cls ~what ~declared w =
    let ref_expected =
      match declared with
      | None -> true
      | Some ty -> CF.Types.is_reference ty
    in
    if Value.is_null w then ()
    else if not ref_expected then begin
      if Value.is_ref w then
        flag home home_cls "%s holds a reference word %d but is declared %s"
          what (Value.to_ref w)
          (match declared with
          | Some ty -> CF.Types.to_string ty
          | None -> "?")
    end
    else if Value.is_int w then begin
      match declared with
      | None -> () (* erased array slot holding an int: legal *)
      | Some ty ->
          flag home home_cls "%s : %s holds an int-tagged word" what
            (CF.Types.to_string ty)
    end
    else begin
      incr refs;
      let ta = Value.to_ref w in
      match Hashtbl.find_opt starts ta with
      | None ->
          flag home home_cls "%s points at %d, which is not an object start"
            what ta
      | Some tcid ->
          let tcls = reg.Rt.classes.(tcid) in
          if lazy_pending tcid then
            () (* awaiting lazy transformation: old layout, old type *)
          else if superseded.(tcid) && not (stale_ok ta) then
            flag home home_cls
              "%s reaches superseded object %s@%d outside the update log"
              what tcls.Rt.name ta
          else (
            match declared with
            | None -> ()
            | Some (CF.Types.TArray _) ->
                if not tcls.Rt.is_array then
                  flag home home_cls "%s : array field holds a %s" what
                    tcls.Rt.name
            | Some (CF.Types.TRef cname) -> (
                match Rt.find_class reg cname with
                | None -> () (* declared class no longer loaded: erased *)
                | Some dc ->
                    if
                      not
                        (Rt.is_subclass_id reg ~sub:tcid ~super:dc.Rt.cid)
                    then
                      flag home home_cls "%s : %s holds a %s" what cname
                        tcls.Rt.name)
            | Some _ -> ())
    end
  in
  (* pass 2: typed checks per object *)
  if !aligned then
    Hashtbl.iter
      (fun addr cid ->
        let cls = reg.Rt.classes.(cid) in
        if superseded.(cid) && (not (lazy_pending cid)) && not (stale_ok addr)
        then begin
          incr n_stale_instances;
          flag addr cls.Rt.name
            "instance of superseded class outside the update log"
        end;
        if cls.Rt.is_array then begin
          let len = Heap.array_length heap addr in
          for i = 0 to len - 1 do
            check_slot ~home:addr ~home_cls:cls.Rt.name
              ~what:(Printf.sprintf "element %d" i)
              ~declared:None
              (Heap.get heap ~addr ~off:(Heap.array_header_words + i))
          done
        end
        else if cid = vm.State.string_cid then begin
          let w = Heap.get heap ~addr ~off:Heap.header_words in
          if
            not
              (Value.is_int w
              && Value.to_int w >= 0
              && Value.to_int w < vm.State.n_strings)
          then
            flag addr cls.Rt.name
              "string id %s names no string-table slot (%d strings)"
              (Value.to_string w) vm.State.n_strings
        end
        else
          Array.iter
            (fun (fi : Rt.field_info) ->
              check_slot ~home:addr ~home_cls:cls.Rt.name
                ~what:(Printf.sprintf "field %s" fi.Rt.fi_name)
                ~declared:(Some fi.Rt.fi_ty)
                (Heap.get heap ~addr ~off:fi.Rt.fi_offset))
            cls.Rt.instance_fields)
      starts;
  (* pass 3: statics of valid classes *)
  if !aligned then
    Rt.iter_classes reg (fun (c : Rt.rt_class) ->
        if c.Rt.valid then
          Array.iter
            (fun (si : Rt.static_info) ->
              incr statics;
              if si.Rt.si_slot < 0 || si.Rt.si_slot >= vm.State.jtoc_n then
                flag 0 c.Rt.name "static %s has JTOC slot %d out of range"
                  si.Rt.si_name si.Rt.si_slot
              else
                check_slot ~home:0 ~home_cls:c.Rt.name
                  ~what:(Printf.sprintf "static %s" si.Rt.si_name)
                  ~declared:(Some si.Rt.si_ty)
                  (State.jtoc_get vm si.Rt.si_slot))
            c.Rt.static_fields);
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let obs = vm.State.obs in
  Jv_obs.Obs.incr obs "vm.heapverify.runs";
  Jv_obs.Obs.observe obs "vm.heapverify.ms" ms;
  Jv_obs.Obs.incr ~by:!n_issues obs "vm.heapverify.issues";
  if !n_issues > 0 then
    Jv_obs.Obs.emit obs ~scope:"vm.heapverify" "verify.failed"
      [
        ("issues", Jv_obs.Obs.Int !n_issues);
        ( "first",
          Jv_obs.Obs.Str
            (match List.rev !issues with
            | i :: _ -> issue_to_string i
            | [] -> "") );
      ];
  ( {
      hv_ok = !n_issues = 0;
      hv_objects = !objects;
      hv_refs = !refs;
      hv_statics = !statics;
      hv_issues = List.rev !issues;
      hv_total_issues = !n_issues;
      hv_ms = ms;
      hv_collected = false;
    },
    !n_stale_instances )

let run ?stale_ok ?guard_pending ?(collect_stale = true) (vm : State.t) :
    report =
  let explicit_stale = stale_ok <> None in
  let stale_ok =
    match stale_ok with Some f -> f | None -> fun (_ : int) -> false
  in
  let guard_pending =
    match guard_pending with
    | Some f -> f
    | None -> default_guard_pending vm
  in
  let lazy_pending =
    match vm.State.lazy_info with
    | None -> fun (_ : int) -> false
    | Some li -> fun cid -> State.lazy_target li cid >= 0
  in
  let rep, n_stale = run_once ~stale_ok ~guard_pending ~lazy_pending vm in
  if
    rep.hv_ok || (not collect_stale) || explicit_stale
    || vm.State.guard_retained <> None
    || vm.State.lazy_info <> None
    || n_stale <> rep.hv_total_issues
  then rep
  else begin
    (* every issue is an unreferenced stale copy: garbage a collection
       erases, not corruption — collect once and take the second verdict *)
    ignore (Gc.collect vm);
    Jv_obs.Obs.incr vm.State.obs "vm.heapverify.stale_collections";
    let rep, _ = run_once ~stale_ok ~guard_pending ~lazy_pending vm in
    { rep with hv_collected = true }
  end
