(** The semi-space copying collector with the Jvolve extension (paper
    §3.4).

    A normal collection is a Cheney scan.  It reads each object's class
    {e scan table} ([Rt.rt_class]'s [size_words], [is_array] and
    [ref_offsets], Jikes RVM's TIB reference-offset map): a scalar
    object's reference fields are forwarded by offset and its int fields
    skipped; an array's erased elements are forwarded by tag.  Nothing
    is zeroed but a transform plan's new-layout fields: copies overwrite
    the words they land on, and the allocator zeroes the rest of
    to-space as it hands it out ([Heap.alloc_raw]).

    Given a {e transform plan} (old class id → new class id), each
    first-touched instance of an updated class is replaced by a zeroed
    new-layout object, a verbatim copy of the old object is kept, the
    forwarding pointer targets the NEW object, and the (old copy, new
    object) pair is appended to the update log.  Both land ahead of the
    scan pointer, so the old copy's reference fields are forwarded to
    {e transformed} referents — the invariant Jvolve's transformer model
    relies on. *)

type transform_plan = int array
(** Indexed by old class id: the new class id its instances transform
    into, or -1 when they are not updated.  Class ids past the end are
    not updated.  The updater builds one per update and shares it with
    the lazy window ([State.lazy_info.li_plan]). *)

type result = {
  gc_ms : float;
  copied_objects : int;
  transformed_objects : int;
  copied_words : int;
  zeroed_words : int;
      (** the new-layout objects' field words this collection zeroed:
          [transformed_objects] times their field words, whatever the
          garbage *)
  update_log : Update_log.t;
      (** the (old copy, new object) pairs this collection made, in
          order; empty without a plan.  Not yet rooted: the caller hands
          it to [State.update_log] before anything can collect again *)
}

val obj_size : State.t -> int array -> int -> int
(** [obj_size vm space addr]: the size in words, header included, of the
    object at [addr] in [space] (a semi-space array), read from its
    class's scan table. *)

val collect :
  ?plan:transform_plan -> ?redirect:(int, int) Hashtbl.t -> State.t -> result
(** Roots: the JTOC, every thread frame's locals and live operand stack,
    pending native arguments, the in-flight and guard-retained update
    logs ([State.update_log], [State.guard_retained]; once when they are
    the same log) and [State.extra_roots] arrays, all rewritten in place.
    A lazy-forward marker forwards to its replacement.

    [redirect] (new addr → old-copy addr, decoded from an update log) is
    the updater's transaction rollback: forwarding chases the redirect
    first, so every reference that landed on a half-transformed
    new-layout object moves back to its pristine old copy, and the new
    objects die with this collection. *)
