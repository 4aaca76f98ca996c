(* The semi-space heap.

   Two equal-sized spaces of words; allocation bumps a free pointer in the
   active space.  [Gc] flips the spaces and copies live objects (Cheney
   scan).  Object layout, word-addressed:

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

type t = {
  mutable space : int array; (* active (to-)space *)
  mutable other : int array; (* idle (from-)space after a flip *)
  mutable free : int; (* next free word in [space] *)
  size_words : int; (* per semi-space *)
  mutable gc_count : int;
  mutable allocations : int; (* objects allocated since creation *)
  mutable epoch : int;
      (* current heap epoch: stamped into the gc word of fresh
         allocations once nonzero (bumped by each lazy update commit) *)
}

let create ~words =
  if words < 64 then invalid_arg "Heap.create: heap too small";
  {
    space = Array.make words 0;
    other = Array.make words 0;
    free = 1 (* keep address 0 unused: 0 is null *);
    size_words = words;
    gc_count = 0;
    allocations = 0;
    epoch = 0;
  }

let words_free h = h.size_words - h.free
let words_used h = h.free - 1

(* Raw allocation: returns the base address or [None] when a collection is
   needed.  Words are pre-zeroed (spaces start zeroed and the collector
   re-zeroes the idle space on flip), giving default field values for
   free. *)
let alloc_raw h ~nwords =
  if nwords <= 0 then invalid_arg "Heap.alloc_raw";
  if h.free + nwords > h.size_words then None
  else begin
    let addr = h.free in
    h.free <- h.free + nwords;
    h.allocations <- h.allocations + 1;
    Some addr
  end

let get h ~addr ~off = h.space.(addr + off)
let set h ~addr ~off v = h.space.(addr + off) <- v

let class_id h addr = h.space.(addr + off_class)
let array_length h addr = h.space.(addr + off_array_len)

(* Flip for GC: the current space becomes from-space, the idle one becomes
   the (empty) to-space.  Returns the new from-space for the collector to
   read evacuated objects from. *)
let flip h =
  let from = h.space in
  h.space <- h.other;
  h.other <- from;
  h.free <- 1;
  h.gc_count <- h.gc_count + 1;
  from

(* After a collection the old from-space contents are dead; zero them so
   the next flip starts from a clean space (keeps default-initialization
   guarantees).  Only [\[0, upto)] can be dirty, where [upto] is the free
   pointer the space had before the flip: a space is all zero when it
   becomes the to-space, and allocation writes nothing past [free]. *)
let scrub_other h ~upto = Array.fill h.other 0 upto 0
