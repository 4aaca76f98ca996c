(* Class files: the interchange format between the MiniJava compiler
   ([Jv_lang]), the UPT ([Jvolve_core.Diff]) and the VM class loader. *)

type field = { fd_name : string; fd_ty : Types.ty; fd_access : Access.t }

type meth = {
  md_name : string;
  md_sig : Types.msig;
  md_access : Access.t;
  md_max_locals : int;
  md_code : Instr.t array option; (* [None] for native methods *)
}

type t = {
  c_name : string;
  c_super : string; (* every class except Object has a superclass *)
  c_fields : field list; (* declared fields only, in declaration order *)
  c_methods : meth list;
}

let ctor_name = "<init>"
let clinit_name = "<clinit>"

(* A "program" is a set of class files keyed by name. *)
type program = (string, t) Hashtbl.t

let program_of_list classes : program =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if Hashtbl.mem tbl c.c_name then
        invalid_arg ("duplicate class " ^ c.c_name);
      Hashtbl.add tbl c.c_name c)
    classes;
  tbl

let program_to_list (p : program) =
  Hashtbl.fold (fun _ c acc -> c :: acc) p []
  |> List.sort (fun a b -> compare a.c_name b.c_name)

let find_class (p : program) name = Hashtbl.find_opt p name

(* A method's dispatch key, name plus signature descriptor: what a
   vslot table is keyed by. *)
let method_key name msig = name ^ Types.msig_descriptor msig

(* Dispatched through a vslot: an instance method that is neither a
   constructor nor private. *)
let is_virtual m =
  (not m.md_access.Access.is_static)
  && m.md_name <> ctor_name
  && m.md_access.Access.visibility <> Access.Private

let find_method (c : t) name msig =
  List.find_opt
    (fun m -> String.equal m.md_name name && Types.equal_msig m.md_sig msig)
    c.c_methods

let find_field (c : t) name =
  List.find_opt (fun f -> String.equal f.fd_name name) c.c_fields

(* Walk up the superclass chain, most-derived first.  The built-in Object
   class is its own fixpoint (its [c_super] is itself). *)
let rec ancestry (p : program) (c : t) acc =
  let acc = c :: acc in
  if String.equal c.c_name Types.object_class then List.rev acc
  else
    match find_class p c.c_super with
    | None -> List.rev acc (* dangling super: caught by well-formedness *)
    | Some s -> ancestry p s acc

(* The instance fields of [c] in runtime layout order: inherited fields
   first (root-most ancestor first), then declared fields in declaration
   order.  The VM's class install builds the same layout by appending to
   the superclass's. *)
let instance_fields (p : program) (c : t) =
  ancestry p c [] |> List.rev
  |> List.concat_map (fun a ->
         List.filter (fun f -> not f.fd_access.Access.is_static) a.c_fields)

let is_subclass (p : program) ~sub ~super =
  if String.equal sub super then true
  else
    match find_class p sub with
    | None -> false
    | Some c ->
        List.exists (fun a -> String.equal a.c_name super) (ancestry p c [])

(* Lookup a field / method anywhere in the hierarchy, most-derived
   declaration first (declaration site returned with the declaring
   class). *)
let resolve_field (p : program) cname fname =
  match find_class p cname with
  | None -> None
  | Some c ->
      ancestry p c []
      |> List.find_map (fun a ->
             match find_field a fname with
             | Some f -> Some (a, f)
             | None -> None)

let resolve_method (p : program) cname mname msig =
  match find_class p cname with
  | None -> None
  | Some c ->
      ancestry p c []
      |> List.find_map (fun a ->
             match find_method a mname msig with
             | Some m -> Some (a, m)
             | None -> None)

(* Static type equality used by the UPT: two declarations are "the same
   member" if name, type and access modifiers coincide. *)
let equal_field a b =
  String.equal a.fd_name b.fd_name
  && Types.equal_ty a.fd_ty b.fd_ty
  && Access.equal a.fd_access b.fd_access

let equal_meth_header a b =
  String.equal a.md_name b.md_name
  && Types.equal_msig a.md_sig b.md_sig
  && Access.equal a.md_access b.md_access

let equal_meth_code a b =
  match (a.md_code, b.md_code) with
  | None, None -> true
  | Some x, Some y -> Instr.equal_code x y
  | _ -> false

(* Well-formedness of a program: a cheap structural pass run before
   verification.  Returns a list of error strings (empty = ok). *)
let well_formed (p : program) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Hashtbl.iter
    (fun _ c ->
      (* superclass exists and hierarchy is acyclic *)
      if not (String.equal c.c_name Types.object_class) then begin
        (match find_class p c.c_super with
        | None -> err "class %s: unknown superclass %s" c.c_name c.c_super
        | Some _ ->
            let rec walk seen name =
              if List.mem name seen then
                err "class %s: cyclic superclass chain" c.c_name
              else if not (String.equal name Types.object_class) then
                match find_class p name with
                | None -> ()
                | Some s -> walk (name :: seen) s.c_super
            in
            walk [ c.c_name ] c.c_super);
        ()
      end;
      (* duplicate members *)
      let seen_f = Hashtbl.create 8 in
      List.iter
        (fun f ->
          if Hashtbl.mem seen_f f.fd_name then
            err "class %s: duplicate field %s" c.c_name f.fd_name;
          Hashtbl.add seen_f f.fd_name ())
        c.c_fields;
      let seen_m = Hashtbl.create 8 in
      List.iter
        (fun m ->
          let key = method_key m.md_name m.md_sig in
          if Hashtbl.mem seen_m key then
            err "class %s: duplicate method %s" c.c_name key;
          Hashtbl.add seen_m key ();
          (match m.md_code with
          | None when not m.md_access.Access.is_native ->
              err "class %s: method %s has no code and is not native" c.c_name
                key
          | Some _ when m.md_access.Access.is_native ->
              err "class %s: native method %s has code" c.c_name key
          | _ -> ());
          (* overriding must preserve the signature's return type and not
             reduce visibility; MiniJava requires exact signature match for
             overrides, so only visibility narrowing can go wrong. *)
          if (not m.md_access.Access.is_static) && m.md_name <> ctor_name then
            match find_class p c.c_super with
            | Some _ when not (String.equal c.c_name Types.object_class) -> (
                match resolve_method p c.c_super m.md_name m.md_sig with
                | Some (_, sm) when not sm.md_access.Access.is_static ->
                    let rank = function
                      | Access.Public -> 3
                      | Access.Protected -> 2
                      | Access.Package -> 1
                      | Access.Private -> 0
                    in
                    if
                      rank m.md_access.Access.visibility
                      < rank sm.md_access.Access.visibility
                    then
                      err "class %s: override %s narrows visibility" c.c_name
                        key
                | _ -> ())
            | _ -> ())
        c.c_methods)
    p;
  List.rev !errs

let pp_field ppf f =
  Fmt.pf ppf "%a %a %s" Access.pp f.fd_access Types.pp_ty f.fd_ty f.fd_name

let pp_meth ppf m =
  Fmt.pf ppf "%a %a %s%a (max_locals=%d)@." Access.pp m.md_access Types.pp_ty
    m.md_sig.Types.ret m.md_name
    Fmt.(list ~sep:comma Types.pp_ty)
    m.md_sig.Types.params m.md_max_locals;
  match m.md_code with
  | None -> Fmt.pf ppf "  <native>"
  | Some code ->
      Array.iteri (fun i ins -> Fmt.pf ppf "  %3d: %a@." i Instr.pp ins) code

let pp ppf c =
  Fmt.pf ppf "class %s extends %s {@." c.c_name c.c_super;
  List.iter (fun f -> Fmt.pf ppf "  %a;@." pp_field f) c.c_fields;
  List.iter (fun m -> Fmt.pf ppf "  %a@." pp_meth m) c.c_methods;
  Fmt.pf ppf "}"
