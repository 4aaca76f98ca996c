(** The update log (paper §3.4): the (old copy, new object) pairs of one
    update, as the transforming collection ({!Gc.collect}) or a lazy
    update window produces them and the object transformers consume
    them.  One value serves the whole update: the VM roots it by
    ownership ([State.update_log] while in flight, [State.guard_retained]
    while a guard window keeps it), the transformer sandbox reads its new
    halves as the allowed write set, and a rollback decodes it into the
    redirect its collection chases. *)

type t

val create : unit -> t

val push : t -> old_copy:int -> new_addr:int -> unit
(** Append a pair (heap addresses), growing the log when full. *)

val pop : t -> unit
(** Take the last pair back off (a lazy transform that failed before
    anything moved), zeroing its words. *)

val pairs : t -> int

val old_copy : t -> int -> int
(** [old_copy log i]: the current address of pair [i]'s pristine old
    copy. *)

val new_addr : t -> int -> int
(** [new_addr log i]: the current address of pair [i]'s new object. *)

val forward : t -> (int -> int) -> unit
(** Rewrite every logged address through a collector's forwarding
    function. *)

val old_copy_set : t -> int -> bool
(** [old_copy_set log] is a membership test for the log's old copies as
    they stand now: build it once per walk and reuse it. *)

val redirect : t -> (int, int) Hashtbl.t
(** New object → pristine old copy, for every pair: the table a rollback
    collection ({!Gc.collect}'s [redirect]) chases. *)
