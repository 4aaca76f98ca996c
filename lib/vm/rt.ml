(* Runtime class metadata: the analogue of Jikes RVM's [RVMClass],
   [RVMMethod], TIBs and the JTOC.

   Each loaded class gets an [rt_class] meta-object recording its instance
   field layout (hard word offsets), its static fields' JTOC slots, and its
   TIB — an array mapping virtual-dispatch slot indices to method uids.
   The JIT queries this metadata and hard-codes the answers into machine
   code; the collector reads each class's size and reference-slot
   offsets (its scan table) from it.

   A dynamic update *renames* the old [rt_class] (e.g. [User] becomes
   [v131_User]), strips its methods, and installs a brand-new [rt_class]
   under the original name — so both layouts coexist while object
   transformers run (paper §3.3). *)

module CF = Jv_classfile

type field_info = {
  fi_name : string;
  fi_ty : CF.Types.ty;
  fi_access : CF.Access.t;
  fi_offset : int; (* word offset from object base, header included *)
  fi_decl : string; (* declaring class name at load time *)
}

type static_info = {
  si_name : string;
  si_ty : CF.Types.ty;
  si_access : CF.Access.t;
  si_slot : int; (* JTOC slot *)
}

type rt_class = {
  cid : int;
  mutable name : string; (* mutable: updates rename superseded classes *)
  mutable super : int; (* class id; Object points to itself *)
  mutable instance_fields : field_info array; (* full layout, super first *)
  mutable static_fields : static_info array; (* declared statics only *)
  mutable vslots : (string * int) array; (* mangled key -> TIB slot *)
  mutable tib : int array; (* TIB slot -> method uid *)
  mutable methods : rt_method array; (* declared methods *)
  mutable size_words : int; (* header + instance fields *)
  ref_offsets : int array;
      (* the collector's scan table, Jikes RVM's TIB reference-offset map:
         word offsets of the reference-typed instance fields, ascending.
         Empty for the array class, whose erased elements are scanned by
         their tags *)
  is_array : bool;
  mutable valid : bool; (* false once superseded by an update *)
  mutable defn : CF.Cls.t option; (* class file this was loaded from *)
}

and rt_method = {
  uid : int;
  mutable owner : int; (* class id *)
  m_name : string;
  m_sig : CF.Types.msig;
  m_access : CF.Access.t;
  mutable bytecode : CF.Instr.t array option; (* None = native *)
  native_key : string option; (* dispatch key into the natives table *)
  mutable max_locals : int;
  mutable base_code : Machine.compiled option;
  mutable opt_code : Machine.compiled option;
  mutable invocations : int;
  mutable m_valid : bool; (* false once invalidated by an update *)
}

let method_qname (c : rt_class) (m : rt_method) =
  Printf.sprintf "%s.%s%s" c.name m.m_name (CF.Types.msig_descriptor m.m_sig)

(* The registry: id-indexed stores of classes and methods, plus the name
   table that maps the *current* name of each valid class. *)
type registry = {
  mutable classes : rt_class array;
  mutable n_classes : int;
  mutable methods : rt_method array;
  mutable n_methods : int;
  by_name : (string, int) Hashtbl.t;
  mutable epoch : int;
      (* bumped on every update installation; compiled code records the
         epoch it resolved offsets in *)
}

let dummy_method =
  {
    uid = -1;
    owner = -1;
    m_name = "<dummy>";
    m_sig = { CF.Types.params = []; ret = CF.Types.TVoid };
    m_access = CF.Access.default;
    bytecode = None;
    native_key = None;
    max_locals = 0;
    base_code = None;
    opt_code = None;
    invocations = 0;
    m_valid = false;
  }

let dummy_class =
  {
    cid = -1;
    name = "<dummy>";
    super = -1;
    instance_fields = [||];
    static_fields = [||];
    vslots = [||];
    tib = [||];
    methods = [||];
    size_words = Heap.header_words;
    ref_offsets = [||];
    is_array = false;
    valid = false;
    defn = None;
  }

let create_registry () =
  {
    classes = Array.make 64 dummy_class;
    n_classes = 0;
    methods = Array.make 256 dummy_method;
    n_methods = 0;
    by_name = Hashtbl.create 64;
    epoch = 0;
  }

let grow arr n dummy =
  if n < Array.length arr then arr
  else begin
    let arr' = Array.make (2 * Array.length arr) dummy in
    Array.blit arr 0 arr' 0 (Array.length arr);
    arr'
  end

let class_by_id reg cid =
  if cid < 0 || cid >= reg.n_classes then
    invalid_arg (Printf.sprintf "Rt.class_by_id: bad id %d" cid);
  reg.classes.(cid)

let method_by_uid reg uid =
  if uid < 0 || uid >= reg.n_methods then
    invalid_arg (Printf.sprintf "Rt.method_by_uid: bad uid %d" uid);
  reg.methods.(uid)

let find_class reg name =
  match Hashtbl.find_opt reg.by_name name with
  | None -> None
  | Some cid -> Some reg.classes.(cid)

let require_class reg name =
  match find_class reg name with
  | Some c -> c
  | None -> invalid_arg ("Rt.require_class: unknown class " ^ name)

(* Allocate a fresh method uid.  [cname] is the class name at load time,
   used to form the native dispatch key (stable across later renames). *)
let add_method reg ~owner ~cname ~(md : CF.Cls.meth) =
  let uid = reg.n_methods in
  reg.methods <- grow reg.methods uid dummy_method;
  let m =
    {
      uid;
      owner;
      m_name = md.CF.Cls.md_name;
      m_sig = md.CF.Cls.md_sig;
      m_access = md.CF.Cls.md_access;
      bytecode = md.CF.Cls.md_code;
      native_key =
        (if md.CF.Cls.md_access.CF.Access.is_native then
           Some
             (cname ^ "." ^ md.CF.Cls.md_name
             ^ CF.Types.msig_descriptor md.CF.Cls.md_sig)
         else None);
      max_locals = md.CF.Cls.md_max_locals;
      base_code = None;
      opt_code = None;
      invocations = 0;
      m_valid = true;
    }
  in
  reg.methods.(uid) <- m;
  reg.n_methods <- reg.n_methods + 1;
  m

(* The word offsets of a layout's reference-typed fields: the slots the
   collector forwards.  The test is the one the heap verifier enforces on
   every field ([CF.Types.is_reference]), so on a heap that verifies no
   int field holds a reference word the scan would miss. *)
let ref_offsets (fields : field_info array) =
  Array.to_list fields
  |> List.filter_map (fun fi ->
         if CF.Types.is_reference fi.fi_ty then Some fi.fi_offset else None)
  |> Array.of_list

(* Install a class: builds field layout (superclass fields first, preserving
   their offsets), assigns JTOC slots via [alloc_static], extends the
   superclass's vslot table and TIB for new virtual methods, and registers
   everything.  [replace] controls whether an existing name binding may be
   overwritten (used when installing updated versions). *)
let install_class reg ~(defn : CF.Cls.t) ~alloc_static ~replace : rt_class =
  let name = defn.CF.Cls.c_name in
  (match Hashtbl.find_opt reg.by_name name with
  | Some _ when not replace ->
      invalid_arg ("Rt.install_class: class already loaded: " ^ name)
  | _ -> ());
  let super =
    if String.equal name CF.Types.object_class then None
    else Some (require_class reg defn.CF.Cls.c_super)
  in
  let cid = reg.n_classes in
  reg.classes <- grow reg.classes cid dummy_class;
  (* instance field layout *)
  let inherited =
    match super with Some s -> s.instance_fields | None -> [||]
  in
  let base_off = Heap.header_words + Array.length inherited in
  let declared =
    defn.CF.Cls.c_fields
    |> List.filter (fun f -> not f.CF.Cls.fd_access.CF.Access.is_static)
  in
  let own =
    List.mapi
      (fun i (f : CF.Cls.field) ->
        {
          fi_name = f.CF.Cls.fd_name;
          fi_ty = f.CF.Cls.fd_ty;
          fi_access = f.CF.Cls.fd_access;
          fi_offset = base_off + i;
          fi_decl = name;
        })
      declared
  in
  let instance_fields = Array.append inherited (Array.of_list own) in
  (* statics *)
  let statics =
    defn.CF.Cls.c_fields
    |> List.filter (fun f -> f.CF.Cls.fd_access.CF.Access.is_static)
    |> List.map (fun (f : CF.Cls.field) ->
           {
             si_name = f.CF.Cls.fd_name;
             si_ty = f.CF.Cls.fd_ty;
             si_access = f.CF.Cls.fd_access;
             si_slot = alloc_static ();
           })
    |> Array.of_list
  in
  (* methods *)
  let methods =
    defn.CF.Cls.c_methods
    |> List.map (fun md -> add_method reg ~owner:cid ~cname:name ~md)
    |> Array.of_list
  in
  (* vslots / TIB: copy the superclass dispatch table, then bind declared
     virtual methods — overriding an inherited slot or appending a new one *)
  let vslots =
    ref (match super with Some s -> Array.to_list s.vslots | None -> [])
  in
  let tib =
    ref (match super with Some s -> Array.to_list s.tib | None -> [])
  in
  List.iteri
    (fun i (md : CF.Cls.meth) ->
      if CF.Cls.is_virtual md then begin
        let key = CF.Cls.method_key md.CF.Cls.md_name md.CF.Cls.md_sig in
        let uid = methods.(i).uid in
        match List.assoc_opt key !vslots with
        | Some slot ->
            tib := List.mapi (fun j u -> if j = slot then uid else u) !tib
        | None ->
            let slot = List.length !vslots in
            vslots := !vslots @ [ (key, slot) ];
            tib := !tib @ [ uid ]
      end)
    defn.CF.Cls.c_methods;
  let cls =
    {
      cid;
      name;
      super = (match super with Some s -> s.cid | None -> cid);
      instance_fields;
      static_fields = statics;
      vslots = Array.of_list !vslots;
      tib = Array.of_list !tib;
      methods;
      size_words = Heap.header_words + Array.length instance_fields;
      ref_offsets = ref_offsets instance_fields;
      is_array = false;
      valid = true;
      defn = Some defn;
    }
  in
  reg.classes.(cid) <- cls;
  reg.n_classes <- reg.n_classes + 1;
  Hashtbl.replace reg.by_name name cid;
  cls

(* The one runtime class for arrays (element types are erased at runtime;
   MiniJava's static typing keeps array use sound without covariance). *)
let install_array_class reg =
  let cid = reg.n_classes in
  reg.classes <- grow reg.classes cid dummy_class;
  let obj = require_class reg CF.Types.object_class in
  let cls =
    {
      cid;
      name = "[]";
      super = obj.cid;
      instance_fields = [||];
      static_fields = [||];
      vslots = [||];
      tib = [||];
      methods = [||];
      size_words = Heap.array_header_words;
      ref_offsets = [||];
      is_array = true;
      valid = true;
      defn = None;
    }
  in
  reg.classes.(cid) <- cls;
  reg.n_classes <- reg.n_classes + 1;
  Hashtbl.replace reg.by_name "[]" cid;
  cls

(* Runtime subtype test for checkcast / instanceof. *)
let rec is_subclass_id reg ~sub ~super =
  sub = super
  ||
  let c = class_by_id reg sub in
  c.super <> c.cid && is_subclass_id reg ~sub:c.super ~super

let find_field_info (c : rt_class) fname =
  let n = Array.length c.instance_fields in
  let rec go i =
    if i >= n then None
    else if String.equal c.instance_fields.(i).fi_name fname then
      Some c.instance_fields.(i)
    else go (i + 1)
  in
  go 0

(* Static field resolution walks the hierarchy like instance fields do. *)
let rec find_static_info reg (c : rt_class) fname =
  let n = Array.length c.static_fields in
  let rec go i =
    if i >= n then
      if c.super = c.cid then None
      else find_static_info reg (class_by_id reg c.super) fname
    else if String.equal c.static_fields.(i).si_name fname then
      Some c.static_fields.(i)
    else go (i + 1)
  in
  go 0

let find_vslot (c : rt_class) key =
  let n = Array.length c.vslots in
  let rec go i =
    if i >= n then None
    else
      let k, slot = c.vslots.(i) in
      if String.equal k key then Some slot else go (i + 1)
  in
  go 0

(* Resolve a declared (non-virtual-dispatch) method by name+sig, walking up
   the hierarchy: used for invokestatic and invokedirect. *)
let rec resolve_method reg (c : rt_class) name msig =
  let found =
    Array.to_seq c.methods
    |> Seq.find (fun m ->
           String.equal m.m_name name && CF.Types.equal_msig m.m_sig msig)
  in
  match found with
  | Some m -> Some m
  | None ->
      if c.super = c.cid then None
      else resolve_method reg (class_by_id reg c.super) name msig

(* All valid classes, for iteration by the updater and debugging. *)
let iter_classes reg f =
  for i = 0 to reg.n_classes - 1 do
    f reg.classes.(i)
  done

let iter_methods reg f =
  for i = 0 to reg.n_methods - 1 do
    f reg.methods.(i)
  done
