(** The semi-space heap: two word arrays, bump allocation, flipped by
    the collector.  The configured size is a cap: both spaces start
    [floor_words] long (or the cap, if smaller), and a space grows
    straight to the cap the first time an allocation or a collector copy
    runs past its end.  Growth copies [\[0, free)] into a fresh array, so
    no address moves; but it replaces [space], so never hold that array
    across an allocation.

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

val zero_chunk : int
(** Words the allocator zeroes ahead of the free pointer at a time. *)

val floor_words : int
(** Words each semi-space starts with when the cap is larger. *)

type t = {
  mutable space : int array;  (** active (to-)space *)
  mutable other : int array;  (** idle (from-)space after a flip *)
  mutable free : int;  (** next free word in [space] *)
  mutable zeroed : int;  (** [\[free, zeroed)] of [space] is zero *)
  mutable mark : int;
      (** [space]'s high-water mark when it became the to-space: words at
          or past it had not been written since the space was clean *)
  mutable other_mark : int;
      (** [other]'s high-water mark: words at or past it are zero *)
  size_words : int;
      (** the cap: the most words a semi-space grows to.  Allocation and
          [words_free] reason against it; [Array.length space] is what is
          committed *)
  on_grow : int -> unit;  (** told [committed_words] after a growth *)
  mutable gc_count : int;
  mutable allocations : int;
  mutable zeroed_words : int;  (** words the allocator has zeroed *)
  mutable epoch : int;
      (** stamped into fresh allocations' gc words once nonzero; bumped
          by each lazy update commit *)
}

val create : on_grow:(int -> unit) -> words:int -> t
(** A heap capped at [words] per semi-space, committing
    [min words floor_words] words per space; [on_grow] hears of each
    growth. *)

val words_free : t -> int
(** Words left below the cap. *)

val words_used : t -> int

val committed_words : t -> int
(** Both spaces' lengths: the words the heap has committed. *)

val grow_space : t -> unit
(** Replace the active space with a zeroed one of the cap holding the same
    [\[0, free)]; its mark becomes [free].  The collector calls it when a
    copy runs past a to-space shorter than the cap. *)

val alloc_raw : t -> nwords:int -> int
(** Bump-allocate; returns the base address, or 0 (null, never handed
    out) when a collection is needed, which happens only when the cap is
    full.  The words handed out are zero, giving default
    field values for free: past the zeroed stretch the allocator zeroes
    the next [zero_chunk] words first, but none at or past the space's
    mark, which were never written.  An allocation past the active
    space's end first grows it to the cap, keeping [\[0, free)], and
    replaces an idle space shorter than the cap with a zeroed one (mark
    1). *)

val get : t -> addr:int -> off:int -> int
val set : t -> addr:int -> off:int -> int -> unit
val class_id : t -> int -> int
val array_length : t -> int -> int

val high_water : t -> int
(** The active space's high-water mark: every word at or past it is zero. *)

val flip : t -> int array
(** Swap spaces, and their marks, for a collection; returns the new
    from-space.  The new to-space is not zeroed: the collector's copies
    overwrite the words they land on, and the allocator zeroes the rest
    up to the mark as it hands it out. *)
