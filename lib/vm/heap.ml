(* The semi-space heap.

   Two spaces of words; allocation bumps a free pointer in the active
   space.  [Gc] flips the spaces and copies live objects (Cheney scan).
   The configured size is a cap, not a commitment: both spaces start
   [floor_words] long, and the first allocation (or collector copy) past
   a space's end grows it straight to the cap, keeping every address.
   Object layout, word-addressed:

     scalar object:  [class id | gc word | field 0 | field 1 | ...]
     array:          [class id | gc word | length  | elem 0  | ...]

   The gc word doubles as the epoch tag.  Encodings, all disjoint:

     gcw < 0                          collection-time forwarding pointer,
                                      [-(new_addr + 1)]
     0 <= gcw < lazy_fwd_flag         live object, epoch tag (0 until the
                                      first lazy update commits)
     lazy_fwd_flag <= gcw < copy_flag lazily-forwarded original: the object
                                      was transformed on first access and
                                      [gcw - lazy_fwd_flag] is the address
                                      of its new-layout replacement
     copy_flag <= gcw                 pristine pre-update copy retained in
                                      the update log (must never be
                                      re-transformed or swept)

   Addresses start at 1 so that address 0 can never be handed out (0
   encodes null). *)

let header_words = 2
let array_header_words = 3 (* class id, gc word, length *)

let off_class = 0
let off_gc = 1
let off_array_len = 2

(* Epoch tags and heap addresses are both far below 2^40, so the flag
   ranges cannot collide with either. *)
let lazy_fwd_flag = 1 lsl 40
let copy_flag = 1 lsl 41

let is_plain_tag gcw = gcw >= 0 && gcw < lazy_fwd_flag
let is_lazy_fwd gcw = gcw >= lazy_fwd_flag && gcw < copy_flag
let lazy_fwd_target gcw = gcw - lazy_fwd_flag
let make_lazy_fwd addr = lazy_fwd_flag + addr
let is_copy_tag gcw = gcw >= copy_flag
let copy_tag_epoch gcw = gcw - copy_flag
let make_copy_tag epoch = copy_flag + epoch

(* Words the allocator zeroes ahead of [free] at a time. *)
let zero_chunk = 8192

(* Words each semi-space starts with, when the cap is larger. *)
let floor_words = zero_chunk

type t = {
  mutable space : int array; (* active (to-)space *)
  mutable other : int array; (* idle (from-)space after a flip *)
  mutable free : int; (* next free word in [space] *)
  mutable zeroed : int; (* [\[free, zeroed)] of [space] is zero *)
  mutable mark : int;
      (* [space]'s high-water mark when it became the to-space: words at
         or past it had not been written since the space was clean *)
  mutable other_mark : int; (* [other]'s high-water mark *)
  size_words : int;
      (* the cap: the most words a semi-space grows to.  Allocation and
         [words_free] reason against it; [Array.length space] is what is
         committed *)
  on_grow : int -> unit; (* told the committed words after a growth *)
  mutable gc_count : int;
  mutable allocations : int; (* objects allocated since creation *)
  mutable zeroed_words : int; (* words the allocator has zeroed *)
  mutable epoch : int;
      (* current heap epoch: stamped into the gc word of fresh
         allocations once nonzero (bumped by each lazy update commit) *)
}

let create ~on_grow ~words =
  if words < 64 then invalid_arg "Heap.create: heap too small";
  let n = min words floor_words in
  {
    space = Array.make n 0;
    other = Array.make n 0;
    free = 1 (* keep address 0 unused: 0 is null *);
    zeroed = n;
    mark = 1;
    other_mark = 1;
    size_words = words;
    on_grow;
    gc_count = 0;
    allocations = 0;
    zeroed_words = 0;
    epoch = 0;
  }

let words_free h = h.size_words - h.free
let words_used h = h.free - 1
let committed_words h = Array.length h.space + Array.length h.other

(* Replace the active space with a fresh one of the cap, holding the
   same [\[0, free)]: no address moves, and everything past [free] is
   zero.  A typed word loop, not [Array.blit], which pays the write
   barrier per word into a major-heap array. *)
let grow_space h =
  let src = h.space in
  let dst = Array.make h.size_words 0 in
  for i = 0 to h.free - 1 do
    dst.(i) <- src.(i)
  done;
  h.space <- dst;
  h.mark <- h.free;
  h.zeroed <- h.size_words;
  h.on_grow (committed_words h)

(* The allocator's growth: both spaces straight to the cap (an idle space
   already there keeps its contents and mark), so every collection for
   allocation pressure still fires exactly when the cap is full. *)
let[@inline never] grow h =
  if Array.length h.other < h.size_words then begin
    h.other <- Array.make h.size_words 0;
    h.other_mark <- 1
  end;
  grow_space h

(* Zero [space] ahead of [free] far enough to hold [need]: one chunk
   past what is already zero, and no further than the mark, past which
   nothing was written.  Once the fill reaches the mark, everything past
   [free] is zero. *)
let zero_ahead h need =
  let len = Array.length h.space in
  let lo = max h.zeroed h.free in
  let hi = min len (max need (lo + zero_chunk)) in
  let dirty = min hi h.mark in
  if lo < dirty then begin
    Array.fill h.space lo (dirty - lo) 0;
    h.zeroed_words <- h.zeroed_words + (dirty - lo)
  end;
  h.zeroed <- (if hi >= h.mark then len else hi)

let take h addr need =
  h.free <- need;
  h.allocations <- h.allocations + 1;
  addr

(* Raw allocation: returns the base address, or 0 (null, never handed
   out) when a collection is needed.  The words handed out are zero,
   giving default field values for free: the fast path bumps [free]
   inside the zeroed stretch; past it, [zero_ahead] extends the stretch
   first, or [grow] commits the cap. *)
let alloc_raw h ~nwords =
  if nwords <= 0 then invalid_arg "Heap.alloc_raw";
  let addr = h.free in
  let need = addr + nwords in
  if need <= h.zeroed then take h addr need
  else if need > h.size_words then 0
  else begin
    if need > Array.length h.space then grow h else zero_ahead h need;
    take h addr need
  end

let get h ~addr ~off = h.space.(addr + off)
let set h ~addr ~off v = h.space.(addr + off) <- v

let class_id h addr = h.space.(addr + off_class)
let array_length h addr = h.space.(addr + off_array_len)

(* The active space's high-water mark: words at or past it have not been
   written since it was last clean.  Below [free] everything may be
   written; past it, words up to the mark stay dirty until the zeroing
   fill reaches them. *)
let high_water h = if h.zeroed >= h.mark then h.free else max h.mark h.free

(* Flip for GC: the current space becomes from-space, the idle one becomes
   the (empty) to-space, and the two swap marks.  Returns the new
   from-space for the collector to read evacuated objects from.  The
   collector's copies overwrite every word they land on; the allocator
   zeroes what lies between the copies and the to-space's mark. *)
let flip h =
  let from = h.space in
  let from_mark = high_water h in
  h.space <- h.other;
  h.other <- from;
  h.mark <- h.other_mark;
  h.other_mark <- from_mark;
  h.free <- 1;
  h.zeroed <- 1;
  h.gc_count <- h.gc_count + 1;
  from
