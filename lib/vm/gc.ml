(* The semi-space copying collector, with the Jvolve extension (paper §3.4).

   A normal collection is a Cheney scan: forward the roots, then sweep a
   scan pointer through to-space forwarding every reference field.  The
   scan reads one table per class, kept on its [Rt.rt_class]: the size
   (arrays marked apart, sized by their length word) and the offsets of
   the reference-typed fields, like the reference offsets of a Jikes RVM
   TIB.  Int fields are never visited.  The collection zeroes nothing
   but the fields of the new-layout objects a transform plan allocates:
   copies overwrite every word they land on, and the allocator zeroes
   the rest of to-space as it hands it out ([Heap.alloc_raw]), so a
   pause pays for live and transformed objects, never for garbage.

   A to-space may be shorter than the heap's cap (semi-spaces start
   [Heap.floor_words] long).  A copy that runs past its end grows it to
   the cap mid-collection ([Heap.grow_space]: the copied prefix moves to
   a fresh array at the same addresses).  So the collector writes to
   to-space through [heap.space] as it stands after each copy, never
   through an array it read before one.  Only a copy past the cap is
   fatal.

   During an update the collector additionally receives a *transform plan*
   mapping old class ids to new class ids (an array indexed by old class
   id).  When it first encounters an object whose class is in the plan
   it:

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
   old copies unreachable, and the next collection reclaims them.

   Update logs are roots by ownership: the one in flight
   ([State.update_log]) and the one a guard window retains
   ([State.guard_retained]), forwarded once when they are the same. *)

type transform_plan = int array (* old cid -> new cid; -1 = not updated *)

type result = {
  gc_ms : float;
  copied_objects : int;
  transformed_objects : int;
  copied_words : int;
  zeroed_words : int; (* new-layout fields zeroed by a transform plan *)
  update_log : Update_log.t;
}

(* An object's size, read from its class's scan table ([classes] is the
   registry's class array: no registry bound check, as every class id in
   a live object's header is one the registry holds). *)
let size_in (classes : Rt.rt_class array) space addr =
  let cls = classes.(space.(addr + Heap.off_class)) in
  if cls.Rt.is_array then
    Heap.array_header_words + space.(addr + Heap.off_array_len)
  else cls.Rt.size_words

let obj_size (vm : State.t) space addr =
  size_in vm.State.reg.Rt.classes space addr

(* [redirect] (new addr -> old-copy addr, decoded from an update log) is
   the updater's transaction-rollback mechanism: forwarding chases the
   redirect first, so every reference that landed on a half-transformed
   new-layout object is moved back to its pristine old copy and the new
   objects die with this collection. *)
let collect ?plan ?redirect (vm : State.t) : result =
  let t0 = Unix.gettimeofday () in
  let transforming = Option.is_some plan in
  let plan = Option.value plan ~default:[||] in
  let heap = vm.State.heap in
  let classes = vm.State.reg.Rt.classes in
  let from = Heap.flip heap in
  let copied = ref 0 in
  let transformed = ref 0 in
  let zeroed = ref 0 in
  let update_log = Update_log.create () in
  (* a word loop, not [Array.blit]: typed as an int array, it stores
     without the write barrier the polymorphic blit pays per word *)
  let copy_to dst src size =
    let space = heap.Heap.space in
    for j = 0 to size - 1 do
      space.(dst + j) <- from.(src + j)
    done
  in
  let bump nwords =
    let addr = heap.Heap.free in
    let need = addr + nwords in
    if need > Array.length heap.Heap.space then begin
      if need > heap.Heap.size_words then
        State.fatal
          "to-space overflow during GC (%d words needed, %d free of the \
           %d-word heap cap): updates temporarily duplicate transformed \
           objects; raise heap_words"
          nwords (Heap.words_free heap) heap.Heap.size_words;
      Heap.grow_space heap
    end;
    heap.Heap.free <- need;
    addr
  in
  (* Evacuate the from-space object at [addr] (already redirected);
     [fwd] forwards a lazy-forward marker's target. *)
  let evacuate fwd addr =
    let gcw = from.(addr + Heap.off_gc) in
    if gcw < 0 then -(gcw + 1) (* already forwarded *)
    else if Heap.is_lazy_fwd gcw then begin
      (* lazily transformed original: every surviving reference lands on
         its new-layout replacement.  [fwd] (not a raw chase) so a
         rollback's redirect applies at the hop, and memoized so the
         marker behaves like an ordinary forwarding pointer from here. *)
      let target = fwd (Heap.lazy_fwd_target gcw) in
      from.(addr + Heap.off_gc) <- -(target + 1);
      target
    end
    else begin
      let cid = from.(addr + Heap.off_class) in
      let size = size_in classes from addr in
      let new_cid = if cid < Array.length plan then plan.(cid) else -1 in
      if new_cid >= 0 then begin
        let new_size = classes.(new_cid).Rt.size_words in
        let new_addr = bump new_size in
        let space = heap.Heap.space in
        space.(new_addr + Heap.off_class) <- new_cid;
        (* fields stay zero until the transformer runs; the new object
           carries the current heap epoch tag *)
        space.(new_addr + Heap.off_gc) <- heap.Heap.epoch;
        for j = new_addr + Heap.header_words to new_addr + new_size - 1 do
          space.(j) <- 0
        done;
        zeroed := !zeroed + new_size - Heap.header_words;
        let old_copy = bump size in
        copy_to old_copy addr size;
        (* the copy carried the original's epoch tag along *)
        from.(addr + Heap.off_gc) <- -(new_addr + 1);
        incr transformed;
        incr copied;
        Update_log.push update_log ~old_copy ~new_addr;
        new_addr
      end
      else begin
        (* the copy keeps the gc word: the epoch tag, and the copy marker
           on retained update-log copies *)
        let new_addr = bump size in
        copy_to new_addr addr size;
        from.(addr + Heap.off_gc) <- -(new_addr + 1);
        incr copied;
        new_addr
      end
    end
  in
  let forward =
    match redirect with
    | None ->
        let rec fwd addr = evacuate fwd addr in
        fwd
    | Some r ->
        let rec fwd addr =
          evacuate fwd
            (match Hashtbl.find_opt r addr with Some a -> a | None -> addr)
        in
        fwd
  in
  let forward_slot (a : int array) i =
    let w = a.(i) in
    if Value.is_ref w then a.(i) <- Value.of_ref (forward (Value.to_ref w))
  in
  let forward_array (a : int array) lo hi =
    for i = lo to hi - 1 do
      forward_slot a i
    done
  in
  (* a to-space slot: written back through [heap.space], as forwarding
     may grow the to-space *)
  let forward_to_space i =
    let w = heap.Heap.space.(i) in
    if Value.is_ref w then begin
      let a = forward (Value.to_ref w) in
      heap.Heap.space.(i) <- Value.of_ref a
    end
  in
  (* --- roots --- *)
  forward_array vm.State.jtoc 0 vm.State.jtoc_n;
  (* each thread's frames, top first, locals before operands; a blocked
     native's arguments are the top frame's top operands *)
  List.iter
    (fun (t : State.vthread) ->
      let stack = t.State.stack in
      for d = t.State.depth - 1 downto 0 do
        let fr = t.State.frames.(d) in
        forward_array stack fr.State.base fr.State.sp
      done)
    vm.State.threads;
  let forward_log log = Update_log.forward log forward in
  Option.iter forward_log vm.State.update_log;
  (match (vm.State.update_log, vm.State.guard_retained) with
  | Some log, Some r when r == log ->
      () (* a guarded lazy window retains the log it is still building *)
  | _, retained -> Option.iter forward_log retained);
  List.iter (fun a -> forward_array a 0 (Array.length a)) vm.State.extra_roots;
  (* --- Cheney scan: each object's class scan table says which slots to
     forward — an array's elements by tag, a scalar's reference fields
     by offset; int fields are skipped --- *)
  let scan = ref 1 in
  while !scan < heap.Heap.free do
    let addr = !scan in
    let space = heap.Heap.space in
    let cls = classes.(space.(addr + Heap.off_class)) in
    if cls.Rt.is_array then begin
      let hi =
        addr + Heap.array_header_words + space.(addr + Heap.off_array_len)
      in
      for i = addr + Heap.array_header_words to hi - 1 do
        forward_to_space i
      done;
      scan := hi
    end
    else begin
      let offs = cls.Rt.ref_offsets in
      for k = 0 to Array.length offs - 1 do
        forward_to_space (addr + offs.(k))
      done;
      scan := addr + cls.Rt.size_words
    end
  done;
  (* every copy is an allocation in to-space (a transform makes two) *)
  heap.Heap.allocations <- heap.Heap.allocations + !copied + !transformed;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  vm.State.last_gc_ms <- ms;
  let obs = vm.State.obs in
  Jv_obs.Obs.incr obs "vm.gc.collections";
  Jv_obs.Obs.observe obs "vm.gc.ms" ms;
  Jv_obs.Obs.observe_int obs "vm.gc.copied_objects" !copied;
  Jv_obs.Obs.observe_int obs "vm.gc.copied_words" (Heap.words_used heap);
  Jv_obs.Obs.observe_int obs "vm.gc.zeroed_words" !zeroed;
  if transforming then begin
    Jv_obs.Obs.incr obs "vm.gc.update_collections";
    Jv_obs.Obs.observe_int obs "vm.gc.transformed_objects" !transformed
  end;
  Jv_obs.Obs.emit obs ~scope:"vm.gc"
    (if transforming then "gc.transform.done" else "gc.done")
    [
      ("ms", Jv_obs.Obs.Float ms);
      ("copied", Jv_obs.Obs.Int !copied);
      ("transformed", Jv_obs.Obs.Int !transformed);
      ("live_words", Jv_obs.Obs.Int (Heap.words_used heap));
      ("zeroed", Jv_obs.Obs.Int !zeroed);
    ];
  {
    gc_ms = ms;
    copied_objects = !copied;
    transformed_objects = !transformed;
    copied_words = Heap.words_used heap;
    zeroed_words = !zeroed;
    update_log;
  }

(* Plain collection for allocation pressure. *)
let () = State.gc_hook := fun vm -> ignore (collect vm)
