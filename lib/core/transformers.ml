(* The Update Preparation Tool, part 2: transformer generation and
   compilation (paper §2.3).

   For every class update the UPT emits
   - an *old-class stub*, [v<tag>_Name], holding only the old version's
     (flattened) instance fields — "all methods have been removed since the
     updated program may not call them";
   - a default class transformer [jvolveClass] (empty: unchanged statics
     are carried over by the updater) and a default object transformer
     [jvolveObject] that copies same-name same-type fields and leaves new
     or changed fields at their default values (the updater runs an
     unmodified default as a copy plan, see [default_field_pairs]).

   The bundle compiles in the compiler's Transformer mode, which ignores
   access modifiers and allows assignment to final fields — the paper's
   JastAdd extension. *)

module CF = Jv_classfile

let transformer_class_name = "JvolveTransformers"

(* Map an old-program type into the post-update namespace: types of updated
   classes keep their (new) name — after the GC pass, old objects' fields
   point to *transformed* objects; types of deleted classes are renamed to
   their stub. *)
let rec map_old_ty spec (t : CF.Types.ty) : CF.Types.ty =
  match t with
  | CF.Types.TRef c when List.mem c spec.Spec.diff.Diff.deleted_classes ->
      CF.Types.TRef (Spec.old_class_name ~tag:spec.Spec.version_tag c)
  | CF.Types.TArray e -> CF.Types.TArray (map_old_ty spec e)
  | t -> t

(* Flattened instance fields of a class in declaration (= layout) order,
   superclass fields first: exactly the runtime object layout. *)
let flattened_fields (prog : CF.Cls.program) (c : CF.Cls.t) :
    CF.Cls.field list =
  CF.Cls.ancestry prog c [] |> List.rev
  |> List.concat_map (fun (a : CF.Cls.t) ->
         List.filter
           (fun (f : CF.Cls.field) -> not f.CF.Cls.fd_access.CF.Access.is_static)
           a.CF.Cls.c_fields)

(* The stub class file for an old class: fields only, extends Object.  The
   field order matches the old runtime layout, which is what lets the JIT
   resolve stub field references against the renamed old [rt_class]. *)
let old_class_stub spec (oldp : CF.Cls.program) (c : CF.Cls.t) : CF.Cls.t =
  {
    CF.Cls.c_name = Spec.old_class_name ~tag:spec.Spec.version_tag c.CF.Cls.c_name;
    c_super = CF.Types.object_class;
    c_fields =
      List.map
        (fun (f : CF.Cls.field) ->
          { f with CF.Cls.fd_ty = map_old_ty spec f.CF.Cls.fd_ty })
        (flattened_fields oldp c);
    c_methods = [];
  }

let stubs_for spec : CF.Cls.t list =
  let oldp = CF.Cls.program_of_list spec.Spec.old_program in
  spec.Spec.diff.Diff.class_updates_closure
  @ spec.Spec.diff.Diff.deleted_classes
  |> List.filter_map (fun name ->
         Option.map (old_class_stub spec oldp) (CF.Cls.find_class oldp name))

(* --- default transformer source ---------------------------------------- *)

(* The fields the default object transformer copies, in new-layout
   order: every new field whose old namesake has the same type after
   [map_old_ty].  New or changed fields keep their default value.  The
   generated [jvolveObject] source and the updater's copy plan are both
   read off this list. *)
let default_field_pairs spec (cls : string) : string list =
  let oldp = CF.Cls.program_of_list spec.Spec.old_program in
  let newp = CF.Cls.program_of_list spec.Spec.new_program in
  match (CF.Cls.find_class oldp cls, CF.Cls.find_class newp cls) with
  | Some oldc, Some newc ->
      let old_fields =
        List.map
          (fun (f : CF.Cls.field) ->
            (f.CF.Cls.fd_name, map_old_ty spec f.CF.Cls.fd_ty))
          (flattened_fields oldp oldc)
      in
      flattened_fields newp newc
      |> List.filter_map (fun (f : CF.Cls.field) ->
             match List.assoc_opt f.CF.Cls.fd_name old_fields with
             | Some oty when CF.Types.equal_ty oty f.CF.Cls.fd_ty ->
                 Some f.CF.Cls.fd_name
             | _ -> None)
  | _ -> []

let default_object_body spec ~(cls : string) : string =
  default_field_pairs spec cls
  |> List.map (fun f -> Printf.sprintf "    to.%s = from.%s;" f f)
  |> String.concat "\n"

(* Does this class's [jvolveObject] run the generated default body?  Only
   then may the updater execute it as a copy plan instead. *)
let object_default spec (cls : string) : bool =
  spec.Spec.transformer_src = None
  && not (List.mem_assoc cls spec.Spec.object_overrides)

(* The transformer methods an update's layout closure requires: the
   contract [generate_source] fulfils and admission control checks
   against hand-written transformer sources. *)
let transformer_method_sigs spec : (string * CF.Types.ty list) list =
  let tag = spec.Spec.version_tag in
  List.concat_map
    (fun cls ->
      [
        ("jvolveClass", [ CF.Types.TRef cls ]);
        ( "jvolveObject",
          [ CF.Types.TRef cls; CF.Types.TRef (Spec.old_class_name ~tag cls) ]
        );
      ])
    spec.Spec.diff.Diff.class_updates_closure

let generate_source spec : string =
  let tag = spec.Spec.version_tag in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "class %s {\n" transformer_class_name);
  List.iter
    (fun cls ->
      let class_body =
        match List.assoc_opt cls spec.Spec.class_overrides with
        | Some body -> body
        | None -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "  static void jvolveClass(%s unused) {\n%s\n  }\n"
           cls class_body);
      let obj_body =
        match List.assoc_opt cls spec.Spec.object_overrides with
        | Some body -> body
        | None -> default_object_body spec ~cls
      in
      Buffer.add_string b
        (Printf.sprintf
           "  static void jvolveObject(%s to, %s from) {\n%s\n  }\n" cls
           (Spec.old_class_name ~tag cls)
           obj_body))
    spec.Spec.diff.Diff.class_updates_closure;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- compilation --------------------------------------------------------- *)

type memo = ..

type prepared = {
  p_spec : Spec.t;
  p_transformer : CF.Cls.t; (* the compiled JvolveTransformers class *)
  p_stubs : CF.Cls.t list;
  p_source : string;
  mutable p_memo : (prepared * memo) list;
}

exception Prepare_error of string

(* An entry belongs to the value it was computed for: a record copy
   ([{ p with p_transformer = ... }]) starts out with its source's list
   but never reads those entries. *)
let memo p ~get ~put make =
  match
    List.find_map (fun (owner, m) -> if owner == p then get m else None)
      p.p_memo
  with
  | Some v -> v
  | None ->
      let v = make () in
      p.p_memo <- (p, put v) :: p.p_memo;
      v

type memo +=
  | New_program_errors of string list
  | Proofs of Confree.t
  | Inverse of (prepared, string) result

let verify_new_program spec =
  CF.Verifier.verify_program (CF.Builtins.program_with spec.Spec.new_program)

let new_program_errors p =
  memo p
    ~get:(function New_program_errors e -> Some e | _ -> None)
    ~put:(fun e -> New_program_errors e)
    (fun () -> verify_new_program p.p_spec)

let proofs p =
  memo p
    ~get:(function Proofs t -> Some t | _ -> None)
    ~put:(fun t -> Proofs t)
    (fun () -> Confree.analyze p.p_spec)

let rec prepare (spec : Spec.t) : prepared =
  (match Spec.unsupported_reason spec with
  | Some r -> raise (Prepare_error r)
  | None -> ());
  (* the new program must verify on its own, strictly *)
  (match verify_new_program spec with
  | [] -> ()
  | errs ->
      raise
        (Prepare_error
           ("new program does not verify:\n  " ^ String.concat "\n  " errs)));
  let stubs = stubs_for spec in
  let src =
    match spec.Spec.transformer_src with
    | Some s -> s
    | None -> generate_source spec
  in
  let extra = spec.Spec.new_program @ stubs in
  let classes =
    try Jv_lang.Compile.compile_program ~mode:Jv_lang.Compile.Transformer
          ~extra src
    with Jv_lang.Compile.Error e ->
      raise (Prepare_error ("transformer compilation failed: " ^ e))
  in
  let transformer =
    match
      List.find_opt
        (fun c -> String.equal c.CF.Cls.c_name transformer_class_name)
        classes
    with
    | Some c -> c
    | None ->
        raise
          (Prepare_error
             ("transformer source does not define " ^ transformer_class_name))
  in
  let p =
    { p_spec = spec; p_transformer = transformer; p_stubs = stubs;
      p_source = src; p_memo = [] }
  in
  p.p_memo <- [ (p, New_program_errors []) ];
  p

and inverse p =
  memo p
    ~get:(function Inverse r -> Some r | _ -> None)
    ~put:(fun r -> Inverse r)
    (fun () ->
      match prepare (Spec.inverse p.p_spec) with
      | inv -> Ok inv
      | exception Prepare_error e -> Error e)
