(** The semi-space heap: two equal word arrays, bump allocation, flipped
    by the collector.

    Object layout (word-addressed):
    {v
      scalar object:  [class id | gc word | field 0 | field 1 | ...]
      array:          [class id | gc word | length  | elem 0  | ...]
    v}
    The gc word doubles as the epoch tag: negative values are
    collection-time forwarding pointers ([-(new_addr + 1)]); small
    non-negative values are the live object's epoch tag;
    [lazy_fwd_flag]-range values mark lazily-forwarded originals whose
    replacement lives at [lazy_fwd_target gcw]; [copy_flag]-range values
    mark pristine pre-update copies retained in an update log.
    Addresses start at 1 (0 encodes null). *)

val header_words : int
val array_header_words : int
val off_class : int
val off_gc : int
val off_array_len : int

val lazy_fwd_flag : int
val copy_flag : int
val is_plain_tag : int -> bool
val is_lazy_fwd : int -> bool
val lazy_fwd_target : int -> int
val make_lazy_fwd : int -> int
val is_copy_tag : int -> bool
val copy_tag_epoch : int -> int
val make_copy_tag : int -> int

type t = {
  mutable space : int array;  (** active (to-)space *)
  mutable other : int array;  (** idle (from-)space after a flip *)
  mutable free : int;  (** next free word in [space] *)
  size_words : int;  (** per semi-space *)
  mutable gc_count : int;
  mutable allocations : int;
  mutable epoch : int;
      (** stamped into fresh allocations' gc words once nonzero; bumped
          by each lazy update commit *)
}

val create : words:int -> t
val words_free : t -> int
val words_used : t -> int

val alloc_raw : t -> nwords:int -> int option
(** Bump-allocate; [None] means a collection is needed.  Words are
    pre-zeroed, giving default field values for free. *)

val get : t -> addr:int -> off:int -> int
val set : t -> addr:int -> off:int -> int -> unit
val class_id : t -> int -> int
val array_length : t -> int -> int

val flip : t -> int array
(** Swap spaces for a collection; returns the new from-space. *)

val scrub_other : t -> upto:int -> unit
(** Zero the idle space's words [\[0, upto)] after a collection (keeps the
    pre-zeroed allocation guarantee).  [upto] is the space's free pointer
    before the flip: nothing past it was ever written. *)
