(* The JIT: translates verified bytecode into resolved machine code.

   Like Jikes RVM, the VM is compile-only — methods never run from
   bytecode.  The *base* compiler is a 1:1 translation that resolves every
   symbolic reference against current class metadata: field names become
   hard word offsets, statics become JTOC slots, virtual calls become TIB
   slot indices, static/direct calls become method uids.  Because the
   translation is 1:1, a base-compiled method's [bc_map] is the identity,
   which is what makes OSR of category-(2) methods trivial to re-locate.

   The *opt* compiler additionally inlines small static/direct callees
   (transitively, up to a depth budget).  Inlined regions map back to the
   call-site bytecode pc and are recorded in [compiled.inlined] so the DSU
   safe-point analysis can restrict inline *callers* of restricted methods
   (paper §3.2).

   Lazy updates: the read barrier lives at the dereference *machine
   instructions* (M_getfield/M_putfield/M_invokevirtual/M_checkcast/
   M_instanceof/M_acmp in [Interp]), and both compilers emit exactly
   those instructions for every dereference — inlining rewrites call
   structure, never field access — so base and opt code participate in
   the barrier identically and no compiled path can reach an old-epoch
   object's fields around it.  Offsets baked into compiled code are
   always current-epoch: an update invalidates every method whose
   resolved offsets it stales before any new-epoch code runs. *)

module CF = Jv_classfile
open Machine

exception Compile_error of string

let cerr fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* growable emission buffer *)
type buf = {
  mutable code : minstr array;
  mutable bc : int array;
  mutable n : int;
}

let new_buf () = { code = Array.make 64 M_return; bc = Array.make 64 0; n = 0 }

let emit b i ~bc =
  if b.n >= Array.length b.code then begin
    let c = Array.make (2 * Array.length b.code) M_return in
    Array.blit b.code 0 c 0 b.n;
    b.code <- c;
    let m = Array.make (2 * Array.length b.bc) 0 in
    Array.blit b.bc 0 m 0 b.n;
    b.bc <- m
  end;
  b.code.(b.n) <- i;
  b.bc.(b.n) <- bc;
  b.n <- b.n + 1

let resolve_class vm name =
  match Rt.find_class vm.State.reg name with
  | Some c -> c
  | None -> cerr "unresolved class %s" name

let resolve_field vm (f : CF.Instr.field_ref) =
  let cls = resolve_class vm f.CF.Instr.f_class in
  match Rt.find_field_info cls f.CF.Instr.f_name with
  | Some fi -> fi
  | None -> cerr "unresolved field %s" (CF.Instr.field_ref_to_string f)

let resolve_static vm (f : CF.Instr.field_ref) =
  let cls = resolve_class vm f.CF.Instr.f_class in
  match Rt.find_static_info vm.State.reg cls f.CF.Instr.f_name with
  | Some si -> si
  | None -> cerr "unresolved static %s" (CF.Instr.field_ref_to_string f)

let resolve_callee vm (m : CF.Instr.method_ref) =
  let cls = resolve_class vm m.CF.Instr.m_class in
  match Rt.resolve_method vm.State.reg cls m.CF.Instr.m_name m.CF.Instr.m_sig with
  | Some rm -> rm
  | None -> cerr "unresolved method %s" (CF.Instr.method_ref_to_string m)

let cid_of_ty vm = function
  | CF.Types.TRef c -> (resolve_class vm c).Rt.cid
  | CF.Types.TArray _ -> vm.State.array_cid
  | t -> cerr "non-reference type in cast: %s" (CF.Types.to_string t)

(* Decide whether a callee may be inlined at this site. *)
let inlinable ~depth ~chain (callee : Rt.rt_method) =
  depth > 0
  && (not (List.mem callee.Rt.uid chain))
  && callee.Rt.m_valid
  &&
  match callee.Rt.bytecode with
  | None -> false
  | Some code -> Array.length code <= State.inline_max_code

(* Emit the body of [code] into [b].

   [base_local]  — slot offset applied to every Load/Store (0 for the outer
                   method, fresh slots for inlined bodies).
   [bc_of]       — maps a local bytecode pc to the pc recorded in [bc_map]
                   (identity for the outer method; the call-site pc,
                   constantly, for inlined bodies).
   [depth]/[chain] — inlining budget and cycle guard.
   [opt]         — whether inlining is enabled at all.
   [ret_patches] — for inlined bodies: indices of placeholder gotos that
                   must be patched to the block end.  [None] for the outer
                   body, where returns are real returns.
   Returns the inlined-method uids encountered. *)
let rec emit_body vm b (code : CF.Instr.t array) ~base_local ~bc_of ~depth
    ~chain ~opt ~next_local ~spans
    ~(ret_patches : int list ref option) : int list =
  let n = Array.length code in
  let bc2mc = Array.make n (-1) in
  let patches = ref [] (* (machine idx, local bytecode target) *) in
  let inlined = ref [] in
  let placeholder_branch idx target =
    patches := (idx, target) :: !patches;
    ignore idx
  in
  let emit_call_or_inline bc_pc (mr : CF.Instr.method_ref) kind =
    let callee = resolve_callee vm mr in
    let argc =
      List.length mr.CF.Instr.m_sig.CF.Types.params
      + match kind with `Static -> 0 | `Direct -> 1
    in
    if opt && callee.Rt.native_key = None && inlinable ~depth ~chain callee
    then begin
      inlined := callee.Rt.uid :: !inlined;
      let callee_code = Option.get callee.Rt.bytecode in
      let span_start = b.n in
      (* give the callee fresh local slots *)
      let base = !next_local in
      next_local := base + max callee.Rt.max_locals argc;
      (* pop arguments into the callee's parameter slots, last arg first *)
      for i = argc - 1 downto 0 do
        emit b (M_store (base + i)) ~bc:(bc_of bc_pc)
      done;
      let inner_rets = ref [] in
      let sub =
        emit_body vm b callee_code ~base_local:base
          ~bc_of:(fun _ -> bc_of bc_pc)
          ~depth:(depth - 1)
          ~chain:(callee.Rt.uid :: chain)
          ~opt ~next_local ~spans ~ret_patches:(Some inner_rets)
      in
      inlined := sub @ !inlined;
      (* patch the inlined body's returns to land here (the block end) *)
      let land_pc = b.n in
      List.iter
        (fun idx ->
          b.code.(idx) <-
            (match b.code.(idx) with
            | M_goto _ -> M_goto land_pc
            | other -> other))
        !inner_rets;
      spans := (span_start, b.n) :: !spans
    end
    else
      let mi =
        match kind with
        | `Static -> M_invokestatic (callee.Rt.uid, argc)
        | `Direct -> M_invokedirect (callee.Rt.uid, argc)
      in
      emit b mi ~bc:(bc_of bc_pc)
  in
  Array.iteri
    (fun bc_pc (ins : CF.Instr.t) ->
      bc2mc.(bc_pc) <- b.n;
      let bc = bc_of bc_pc in
      match ins with
      | Const_int i -> emit b (M_const (Value.of_int i)) ~bc
      | Const_bool v -> emit b (M_const (Value.of_bool v)) ~bc
      | Const_str s -> emit b (M_str (State.intern_string vm s)) ~bc
      | Const_null -> emit b (M_const Value.null) ~bc
      | Load i -> emit b (M_load (base_local + i)) ~bc
      | Store i -> emit b (M_store (base_local + i)) ~bc
      | Dup -> emit b M_dup ~bc
      | Pop -> emit b M_pop ~bc
      | Swap -> emit b M_swap ~bc
      | Binop Add -> emit b M_add ~bc
      | Binop Sub -> emit b M_sub ~bc
      | Binop Mul -> emit b M_mul ~bc
      | Binop Div -> emit b M_div ~bc
      | Binop Rem -> emit b M_rem ~bc
      | Neg -> emit b M_neg ~bc
      | Icmp c -> emit b (M_icmp c) ~bc
      | Bnot -> emit b M_bnot ~bc
      | Acmp_eq -> emit b (M_acmp true) ~bc
      | Acmp_ne -> emit b (M_acmp false) ~bc
      | If_true t ->
          placeholder_branch b.n t;
          emit b (M_if_true (-1)) ~bc
      | If_false t ->
          placeholder_branch b.n t;
          emit b (M_if_false (-1)) ~bc
      | Goto t ->
          placeholder_branch b.n t;
          emit b (M_goto (-1)) ~bc
      | Get_field f -> emit b (M_getfield (resolve_field vm f).Rt.fi_offset) ~bc
      | Put_field f -> emit b (M_putfield (resolve_field vm f).Rt.fi_offset) ~bc
      | Get_static f ->
          emit b (M_getstatic (resolve_static vm f).Rt.si_slot) ~bc
      | Put_static f ->
          emit b (M_putstatic (resolve_static vm f).Rt.si_slot) ~bc
      | Invoke_virtual mr ->
          let cls = resolve_class vm mr.CF.Instr.m_class in
          let key = CF.Cls.method_key mr.CF.Instr.m_name mr.CF.Instr.m_sig in
          let slot =
            match Rt.find_vslot cls key with
            | Some s -> s
            | None -> cerr "no virtual slot for %s in %s" key cls.Rt.name
          in
          let argc = 1 + List.length mr.CF.Instr.m_sig.CF.Types.params in
          emit b (M_invokevirtual (slot, argc)) ~bc
      | Invoke_static mr -> emit_call_or_inline bc_pc mr `Static
      | Invoke_direct mr -> emit_call_or_inline bc_pc mr `Direct
      | New_obj c -> emit b (M_new (resolve_class vm c).Rt.cid) ~bc
      | New_array _ -> emit b (M_newarray vm.State.array_cid) ~bc
      | Array_load _ -> emit b M_aload ~bc
      | Array_store _ -> emit b M_astore ~bc
      | Array_len -> emit b M_alen ~bc
      | Check_cast t -> emit b (M_checkcast (cid_of_ty vm t)) ~bc
      | Instance_of t -> emit b (M_instanceof (cid_of_ty vm t)) ~bc
      | Return -> (
          match ret_patches with
          | None -> emit b M_return ~bc
          | Some acc ->
              acc := b.n :: !acc;
              emit b (M_goto (-1)) ~bc)
      | Return_val -> (
          match ret_patches with
          | None -> emit b M_return_val ~bc
          | Some acc ->
              (* the return value is already on the operand stack; just jump
                 past the inlined block *)
              acc := b.n :: !acc;
              emit b (M_goto (-1)) ~bc)
      | Yield CF.Instr.Y_entry ->
          (* inlined bodies lose their entry yield point, like real
             inlining elides the callee prologue *)
          if ret_patches = None then emit b (M_yield CF.Instr.Y_entry) ~bc
      | Yield CF.Instr.Y_backedge -> emit b (M_yield CF.Instr.Y_backedge) ~bc)
    code;
  (* patch local branches *)
  List.iter
    (fun (idx, target) ->
      if target < 0 || target >= n || bc2mc.(target) < 0 then
        cerr "branch target %d unresolved" target;
      let t = bc2mc.(target) in
      b.code.(idx) <-
        (match b.code.(idx) with
        | M_if_true _ -> M_if_true t
        | M_if_false _ -> M_if_false t
        | M_goto _ -> M_goto t
        | _ -> assert false))
    !patches;
  !inlined

let compile vm (m : Rt.rt_method) (level : level) : compiled =
  match m.Rt.bytecode with
  | None -> cerr "cannot compile native method %s" m.Rt.m_name
  | Some code ->
      let b = new_buf () in
      let next_local = ref m.Rt.max_locals in
      let opt = level = Opt in
      let spans = ref [] in
      let inlined =
        emit_body vm b code ~base_local:0
          ~bc_of:(fun pc -> pc)
          ~depth:(if opt then State.inline_depth else 0)
          ~chain:[ m.Rt.uid ] ~opt ~next_local ~spans ~ret_patches:None
      in
      let mcode = Array.sub b.code 0 b.n in
      let bc_map = Array.sub b.bc 0 b.n in
      if level = Base then begin
        (* the base compiler must be exactly 1:1 — OSR relies on it *)
        assert (Array.length mcode = Array.length code);
        Array.iteri (fun i bcpc -> assert (bcpc = i)) bc_map
      end;
      (match level with
      | Base ->
          vm.State.compile_count <- vm.State.compile_count + 1;
          Jv_obs.Obs.incr vm.State.obs "vm.jit.base_compiles"
      | Opt ->
          vm.State.opt_compile_count <- vm.State.opt_compile_count + 1;
          Jv_obs.Obs.incr vm.State.obs "vm.jit.opt_compiles");
      {
        code = mcode;
        bc_map;
        level;
        inlined = List.sort_uniq compare inlined;
        inline_spans = List.rev !spans;
        owner_uid = m.Rt.uid;
        epoch = vm.State.reg.Rt.epoch;
        max_stack = compute_max_stack mcode;
        frame_locals = !next_local;
      }

(* Compile-on-demand entry points used by the interpreter. *)
let ensure_base vm (m : Rt.rt_method) : compiled =
  match m.Rt.base_code with
  | Some c -> c
  | None ->
      let c = compile vm m Base in
      m.Rt.base_code <- Some c;
      c

let best_code vm (m : Rt.rt_method) : compiled =
  match m.Rt.opt_code with Some c -> c | None -> ensure_base vm m

(* Adaptive recompilation: called by the interpreter when a method crosses
   the hotness threshold. *)
let maybe_opt vm (m : Rt.rt_method) =
  match (m.Rt.opt_code, m.Rt.bytecode) with
  | None, Some _ when m.Rt.invocations >= vm.State.config.opt_threshold ->
      m.Rt.opt_code <- Some (compile vm m Opt)
  | _ -> ()
