(* The class loader: verifies class files and installs runtime metadata.

   Boot order: Object first, then the array class, then the remaining
   builtins, then user classes in superclass-topological order.  Static
   initializers (<clinit>) run synchronously after all classes are
   installed, in declaration order — consistent with the facade requiring a
   complete program up front. *)

module CF = Jv_classfile

exception Load_error of string list

(* Sort classes so every superclass precedes its subclasses. *)
let topo_sort (classes : CF.Cls.t list) : CF.Cls.t list =
  let by_name = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace by_name c.CF.Cls.c_name c) classes;
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit (c : CF.Cls.t) =
    if not (Hashtbl.mem visited c.CF.Cls.c_name) then begin
      Hashtbl.add visited c.CF.Cls.c_name ();
      (match Hashtbl.find_opt by_name c.CF.Cls.c_super with
      | Some s when s.CF.Cls.c_name <> c.CF.Cls.c_name -> visit s
      | _ -> ());
      out := c :: !out
    end
  in
  List.iter visit classes;
  List.rev !out

let alloc_static_slot vm () = State.alloc_jtoc_slot vm

(* Install one class file and link its native methods. *)
let install_class vm ~replace defn =
  let rc =
    Rt.install_class vm.State.reg ~defn ~alloc_static:(alloc_static_slot vm)
      ~replace
  in
  State.link_natives vm rc.Rt.methods;
  rc

(* Install class files into the registry (no verification — callers verify
   first).  Returns installed classes in the order given. *)
let install vm ?(replace = false) (classes : CF.Cls.t list) : Rt.rt_class list
    =
  topo_sort classes |> List.map (install_class vm ~replace)

(* Run a class's static initializer if it has one. *)
let run_clinit vm (rc : Rt.rt_class) =
  Array.iter
    (fun (m : Rt.rt_method) ->
      if String.equal m.Rt.m_name CF.Cls.clinit_name then
        ignore (Interp.call_sync vm m [||]))
    rc.Rt.methods

(* Boot a VM with the given user classes: injects builtins, verifies the
   whole program, registers natives, installs everything (linking each
   native method as its class goes in), runs <clinit>s.
   Raises [Load_error] on verification failure. *)
let boot vm (user_classes : CF.Cls.t list) : unit =
  let program = CF.Builtins.program_with user_classes in
  (match CF.Verifier.verify_program program with
  | [] -> ()
  | errs -> raise (Load_error errs));
  Natives.install vm;
  (* Object, then the array class, then everything else *)
  let obj = install_class vm ~replace:false CF.Builtins.object_cls in
  vm.State.object_cid <- obj.Rt.cid;
  let arr = Rt.install_array_class vm.State.reg in
  vm.State.array_cid <- arr.Rt.cid;
  let rest_builtins =
    List.filter
      (fun c -> c.CF.Cls.c_name <> CF.Types.object_class)
      CF.Builtins.all
  in
  let installed = install vm rest_builtins in
  List.iter
    (fun (rc : Rt.rt_class) ->
      if String.equal rc.Rt.name CF.Types.string_class then
        vm.State.string_cid <- rc.Rt.cid)
    installed;
  let user = install vm user_classes in
  (* static initializers, in user declaration order *)
  let order = List.map (fun c -> c.CF.Cls.c_name) user_classes in
  List.iter
    (fun name ->
      match List.find_opt (fun rc -> rc.Rt.name = name) user with
      | Some rc -> run_clinit vm rc
      | None -> ())
    order

(* Spawn the program's main thread: [Main.main()] static void no-args. *)
let spawn_main vm ~main_class : State.vthread =
  let rc = Rt.require_class vm.State.reg main_class in
  let msig = { CF.Types.params = []; ret = CF.Types.TVoid } in
  match Rt.resolve_method vm.State.reg rc "main" msig with
  | None -> State.fatal "class %s has no static void main()" main_class
  | Some m ->
      if not m.Rt.m_access.CF.Access.is_static then
        State.fatal "%s.main() must be static" main_class;
      let code = Jit.ensure_base vm m in
      m.Rt.invocations <- m.Rt.invocations + 1;
      let t = State.new_thread vm in
      State.start_frame t m code [||];
      t
