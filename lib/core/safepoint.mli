(** DSU safe points (paper §3.2): a VM safe point at which no thread's
    stack holds a restricted method. *)

module IntSet : Set.S with type elt = int

module State = Jv_vm.State

(** The restricted sets, resolved to runtime method uids. *)
type restricted = {
  changed : IntSet.t;
      (** categories (1) and (3): changed bytecode, methods of updated or
          deleted classes, user blacklist — blocking wherever on stack.
          With [config.confree] on, changed methods the static analysis
          proves backward-compatible are subtracted (blacklist pins
          always override a proof). *)
  stale : IntSet.t;
      (** category (2): unchanged bytecode with stale compiled code, plus
          unchanged-bytecode inline callers of restricted methods —
          blocking unless OSR can replace the frame *)
  proofs : Confree.t option;
      (** the con-freeness verdicts this computation used ([None] when
          the analysis is off) *)
  proven_off : int;
      (** how many changed methods the proofs subtracted from [changed] *)
}

val resolve_mref : State.t -> Diff.mref -> int option

val compute :
  ?proofs:(unit -> Confree.t) -> State.t -> Spec.t -> restricted
(** Resolve the spec's restricted methods against current metadata.  Must
    run while the old classes are still installed under their original
    names (i.e. at request time).  With [config.confree] on, [proofs]
    supplies the spec's con-freeness analysis (default: run
    {!Confree.analyze} on it). *)

type check_result =
  | Safe of State.frame list
      (** at a DSU safe point; the listed category-(2) frames must be
          OSR'd as part of applying the update *)
  | Blocked of (State.vthread * State.frame) list
      (** per stuck thread, its topmost restricted frame (the return-
          barrier installation site) *)

val check : ?allow_osr:bool -> State.t -> restricted -> check_result
(** Scan all live threads' stacks.  [allow_osr:false] is the ablation
    mode that treats every category-(2) frame as blocking. *)

val install_barriers : (State.vthread * State.frame) list -> int
(** Install return barriers on the given frames; returns how many were
    newly installed. *)

val clear_barriers : State.t -> unit

val release_parked : State.t -> unit
(** Release every thread parked by a fired return barrier (called when
    the update resolves either way). *)

val unpark_stuck : (State.vthread * State.frame) list -> unit
(** A thread that parked at a barrier but still has restricted frames
    deeper in its stack must keep running (with a fresh barrier) to clear
    them. *)

(** Structured starvation diagnostic: per stuck thread, the topmost
    restricted frame that kept the DSU safe point out of reach. *)
type blocker = {
  b_tid : int;
  b_method : string;  (** qualified name of the topmost restricted frame *)
  b_why : string option;
      (** why the frame has no con-freeness proof: the analysis's
          recorded reason, a blacklist override, stale compiled code, or
          the analysis being off *)
}

val unproven_why : State.t -> restricted -> State.frame -> string option
(** Why a restricted frame could not be proven off the restricted set. *)

val blocker_list :
  State.t -> restricted -> (State.vthread * State.frame) list -> blocker list
(** Deduplicated, sorted (thread, topmost restricted frame) pairs — what
    a safe-point timeout abort names instead of a bare timeout. *)

val blocker_to_string : blocker -> string

val describe_blockers :
  State.t -> restricted -> (State.vthread * State.frame) list -> string
