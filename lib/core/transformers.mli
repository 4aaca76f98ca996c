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

val flattened_fields : CF.Cls.program -> CF.Cls.t -> CF.Cls.field list
(** Instance fields in runtime layout order (superclass fields first). *)

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

(** A compiled, ready-to-apply update bundle. *)
type prepared = {
  p_spec : Spec.t;
  p_transformer : CF.Cls.t;  (** the compiled JvolveTransformers class *)
  p_stubs : CF.Cls.t list;
  p_source : string;  (** the transformer source actually compiled *)
}

exception Prepare_error of string

val prepare : Spec.t -> prepared
(** Verify the new program, generate (or accept) and compile the
    transformer bundle.  Raises {!Prepare_error} for unsupported updates,
    verification failures, or transformer compile errors. *)
