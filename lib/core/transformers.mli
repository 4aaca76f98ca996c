(** Transformer generation and compilation — part 2 of the UPT (paper
    §2.3).

    For every class update the UPT emits an {e old-class stub}
    ([v<tag>_Name]: the old version's flattened instance fields, methods
    stripped) and default transformers: [jvolveClass] (statics; empty by
    default since unchanged statics carry over) and [jvolveObject]
    (copies same-name same-type fields, leaves the rest at default
    values).  The bundle compiles in the MiniJava compiler's Transformer
    mode — the paper's JastAdd extension that ignores access modifiers
    and permits assignment to final fields. *)

module CF = Jv_classfile

val transformer_class_name : string
(** ["JvolveTransformers"]. *)

val map_old_ty : Spec.t -> CF.Types.ty -> CF.Types.ty
(** Map an old-program type into the post-update namespace: updated
    classes keep their (new) name — after the transforming collection,
    old objects' fields point to {e transformed} referents — while
    deleted classes are renamed to their stubs. *)

val stubs_for : Spec.t -> CF.Cls.t list
(** Old-class stubs for every class in the update's layout closure and
    every deleted class.  Field order matches the old runtime layout,
    which is what lets the JIT resolve stub references against the
    renamed old class metadata. *)

val transformer_method_sigs : Spec.t -> (string * CF.Types.ty list) list
(** The (name, parameter types) pairs the transformer class must define
    for this update: a [jvolveClass]/[jvolveObject] pair per
    layout-closure class. *)

val default_field_pairs : Spec.t -> string -> string list
(** The fields the default [jvolveObject] of a class copies, in
    new-layout order: each name [f] is the pair [to.f = from.f], for
    every new field whose old namesake has the same type after
    {!map_old_ty}.  {!generate_source} prints the default body from this
    list and the updater compiles its copy plan from it, so the two
    cannot drift apart.  Empty when the class is missing from either
    program. *)

val object_default : Spec.t -> string -> bool
(** Whether the class's [jvolveObject] is the generated default: no
    complete custom [transformer_src] and no [object_overrides] entry. *)

val generate_source : Spec.t -> string
(** The [JvolveTransformers] MiniJava source: defaults with the spec's
    overrides spliced in. *)

(** Results derived from a prepared update, stored on it by {!memo}.
    Extensible so that a later layer ({!Admission}) can keep its own
    results on the same value. *)
type memo = ..

(** A compiled, ready-to-apply update bundle. *)
type prepared = {
  p_spec : Spec.t;
  p_transformer : CF.Cls.t;  (** the compiled JvolveTransformers class *)
  p_stubs : CF.Cls.t list;
  p_source : string;  (** the transformer source actually compiled *)
  mutable p_memo : (prepared * memo) list;
      (** static results computed from this value, each at most once
          ({!memo}); every request of the value shares them *)
}

exception Prepare_error of string

val prepare : Spec.t -> prepared
(** Verify the new program, generate (or accept) and compile the
    transformer bundle.  Raises {!Prepare_error} for unsupported updates,
    verification failures, or transformer compile errors. *)

val memo :
  prepared -> get:(memo -> 'a option) -> put:('a -> memo) -> (unit -> 'a) -> 'a
(** [memo p ~get ~put make]: the entry of [p] that [get] accepts, or
    [make ()] stored on [p] with [put].  Entries are tagged with the
    value they were computed for, so a record copy of [p] with another
    field replaced computes its own. *)

val new_program_errors : prepared -> string list
(** Strict verification of the new program on its own (empty for a
    value {!prepare} returned: it verified it). *)

val proofs : prepared -> Confree.t
(** The con-freeness analysis of the spec, run at most once: the proof
    set the safe point subtracts is the one admission audits. *)

val inverse : prepared -> (prepared, string) result
(** The prepared {!Spec.inverse}, built at most once and shared by every
    revert of this update.  [Error] carries the {!Prepare_error}
    message. *)
