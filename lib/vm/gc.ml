(* The semi-space copying collector, with the Jvolve extension (paper §3.4).

   A normal collection is a Cheney scan: forward the roots, then sweep a
   scan pointer through to-space forwarding every reference field.

   During an update the collector additionally receives a *transform plan*
   mapping old class ids to new class ids.  When it first encounters an
   object whose class is in the plan it:

     1. allocates an object of the *new* class in to-space (zeroed fields,
        new TIB/class id — possibly a different size),
     2. allocates a verbatim *copy of the old object* in to-space,
     3. installs the forwarding pointer to the NEW object (so every
        surviving reference lands on the new version), and
     4. appends the (old copy, new object) pair to the update log.

   Both to-space allocations sit ahead of the scan pointer, so the old
   copy's fields are forwarded by the normal sweep ("the collector
   continues scanning the old copy") while the new object's zeroed fields
   contribute nothing.  After the collection, [Jvolve_core.Updater] runs
   the object transformers over the log; dropping the log then makes the
   old copies unreachable, and the next collection reclaims them. *)

type transform_plan = (int, int) Hashtbl.t (* old cid -> new cid *)

type result = {
  gc_ms : float;
  copied_objects : int;
  transformed_objects : int;
  copied_words : int;
  update_log : int array; (* flattened pairs: old-copy addr, new addr *)
}

let obj_size (vm : State.t) space addr =
  let cid = space.(addr + Heap.off_class) in
  let cls = Rt.class_by_id vm.State.reg cid in
  if cls.Rt.is_array then
    Heap.array_header_words + space.(addr + Heap.off_array_len)
  else cls.Rt.size_words

(* [redirect] (new addr -> old-copy addr, decoded from an update log) is
   the updater's transaction-rollback mechanism: forwarding chases the
   redirect first, so every reference that landed on a half-transformed
   new-layout object is moved back to its pristine old copy and the new
   objects die with this collection. *)
let collect ?plan ?redirect (vm : State.t) : result =
  let t0 = Unix.gettimeofday () in
  let heap = vm.State.heap in
  let from = Heap.flip heap in
  let copied = ref 0 in
  let transformed = ref 0 in
  let log_old = ref [] in
  let bump nwords =
    match Heap.alloc_raw heap ~nwords with
    | Some a -> a
    | None ->
        State.fatal
          "to-space overflow during GC (%d words needed, %d free): updates \
           temporarily duplicate transformed objects; grow the heap"
          nwords (Heap.words_free heap)
  in
  let space () = heap.Heap.space in
  let rec forward addr =
    let addr =
      match redirect with
      | None -> addr
      | Some r -> Option.value ~default:addr (Hashtbl.find_opt r addr)
    in
    let gcw = from.(addr + Heap.off_gc) in
    if gcw < 0 then -(gcw + 1) (* already forwarded *)
    else if Heap.is_lazy_fwd gcw then begin
      (* lazily transformed original: every surviving reference lands on
         its new-layout replacement.  [forward] (not a raw chase) so a
         rollback's redirect applies at the hop, and memoized so the
         marker behaves like an ordinary forwarding pointer from here. *)
      let target = forward (Heap.lazy_fwd_target gcw) in
      from.(addr + Heap.off_gc) <- -(target + 1);
      target
    end
    else begin
      let cid = from.(addr + Heap.off_class) in
      let size = obj_size vm from addr in
      match
        match plan with
        | None -> None
        | Some p -> Hashtbl.find_opt p cid
      with
      | Some new_cid ->
          let new_cls = Rt.class_by_id vm.State.reg new_cid in
          let new_addr = bump new_cls.Rt.size_words in
          (space ()).(new_addr + Heap.off_class) <- new_cid;
          (* fields stay zero until the transformer runs; the new object
             carries the current heap epoch tag *)
          (space ()).(new_addr + Heap.off_gc) <- heap.Heap.epoch;
          let old_copy = bump size in
          Array.blit from addr (space ()) old_copy size;
          (* the blit carried the original's epoch tag into the copy *)
          from.(addr + Heap.off_gc) <- -(new_addr + 1);
          incr transformed;
          incr copied;
          log_old := (old_copy, new_addr) :: !log_old;
          new_addr
      | None ->
          let new_addr = bump size in
          Array.blit from addr (space ()) new_addr size;
          (* preserve the gc word: the epoch tag, and the copy marker on
             retained update-log copies (the blit already carried it; the
             explicit store documents that nothing is cleared) *)
          (space ()).(new_addr + Heap.off_gc) <- gcw;
          from.(addr + Heap.off_gc) <- -(new_addr + 1);
          incr copied;
          new_addr
    end
  and forward_word w =
    if Value.is_ref w then Value.of_ref (forward (Value.to_ref w)) else w
  in
  let forward_array (a : int array) lo hi =
    for i = lo to hi - 1 do
      a.(i) <- forward_word a.(i)
    done
  in
  (* --- roots --- *)
  forward_array vm.State.jtoc 0 vm.State.jtoc_n;
  List.iter
    (fun (t : State.vthread) ->
      List.iter
        (fun (fr : State.frame) ->
          forward_array fr.State.locals 0 (Array.length fr.State.locals);
          forward_array fr.State.ostack 0 fr.State.sp)
        t.State.frames;
      match t.State.pending with
      | Some pn ->
          forward_array pn.State.pn_args 0 (Array.length pn.State.pn_args)
      | None -> ())
    vm.State.threads;
  List.iter (fun a -> forward_array a 0 (Array.length a)) vm.State.extra_roots;
  (* --- Cheney scan --- *)
  let scan = ref 1 in
  while !scan < heap.Heap.free do
    let addr = !scan in
    let size = obj_size vm (space ()) addr in
    let cid = (space ()).(addr + Heap.off_class) in
    let cls = Rt.class_by_id vm.State.reg cid in
    let field_lo =
      if cls.Rt.is_array then addr + Heap.array_header_words
      else addr + Heap.header_words
    in
    for i = field_lo to addr + size - 1 do
      (space ()).(i) <- forward_word (space ()).(i)
    done;
    scan := addr + size
  done;
  Heap.scrub_other heap;
  let update_log =
    (* pairs are stored as *encoded reference words* so the log can be
       registered as an ordinary extra-roots array: transformer-phase
       allocation may trigger a nested collection that must relocate
       these (the old copies are reachable from nowhere else) *)
    let pairs = List.rev !log_old in
    let arr = Array.make (2 * List.length pairs) 0 in
    List.iteri
      (fun i (o, n) ->
        arr.(2 * i) <- Value.of_ref o;
        arr.((2 * i) + 1) <- Value.of_ref n)
      pairs;
    arr
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  vm.State.last_gc_ms <- ms;
  let obs = vm.State.obs in
  Jv_obs.Obs.incr obs "vm.gc.collections";
  Jv_obs.Obs.observe obs "vm.gc.ms" ms;
  Jv_obs.Obs.observe_int obs "vm.gc.copied_objects" !copied;
  Jv_obs.Obs.observe_int obs "vm.gc.copied_words" (Heap.words_used heap);
  if plan <> None then begin
    Jv_obs.Obs.incr obs "vm.gc.update_collections";
    Jv_obs.Obs.observe_int obs "vm.gc.transformed_objects" !transformed
  end;
  Jv_obs.Obs.emit obs ~scope:"vm.gc"
    (if plan = None then "gc.done" else "gc.transform.done")
    [
      ("ms", Jv_obs.Obs.Float ms);
      ("copied", Jv_obs.Obs.Int !copied);
      ("transformed", Jv_obs.Obs.Int !transformed);
      ("live_words", Jv_obs.Obs.Int (Heap.words_used heap));
    ];
  {
    gc_ms = ms;
    copied_objects = !copied;
    transformed_objects = !transformed;
    copied_words = Heap.words_used heap;
    update_log;
  }

(* Plain collection for allocation pressure. *)
let () = State.gc_hook := fun vm -> ignore (collect vm)
