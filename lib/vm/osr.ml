(* On-stack replacement.

   Jvolve uses OSR to lift category-(2) restrictions: a method whose
   bytecode is unchanged but whose compiled code hard-codes offsets of an
   updated class is recompiled *while on stack*, and the frame's pc is
   re-located in the fresh code via the bc_map (paper §3.2, "Lifting
   category (2) restrictions").

   As in the paper, only base-compiled frames are eligible: base code is
   1:1 with bytecode, so a machine pc always has a unique bytecode pc and
   the local-variable layout is the bytecode's own.  Opt-compiled frames
   may be parked inside an inlined region whose interior has no bytecode pc
   of its own, so they are not replaceable (the paper leaves opt-OSR to
   future work). *)

exception Osr_failed of string

(* Base-compiled frames are always replaceable.  With the [opt_osr]
   extension enabled, an opt-compiled frame is also replaceable when its
   pc lies outside every inlined region: there the locals and operand
   stack coincide with the base layout for the same bytecode pc (our opt
   compiler is base + inlining).  Inside an inlined region the interior
   has no bytecode pc of its own — exactly why the paper restricts OSR to
   base-compiled code. *)
let eligible vm (fr : State.frame) =
  match fr.State.code.Machine.level with
  | Machine.Base -> true
  | Machine.Opt ->
      vm.State.config.State.opt_osr
      && not (Machine.pc_in_inlined_span fr.State.code fr.State.pc)

(* Replace [fr]'s code with a freshly base-compiled body resolved against
   *current* class metadata.  Must be called after the updated classes are
   installed (paper: "the exact timing of OSR for DSU requires the VM to
   first load modified classes").  The frame's bytecode is unchanged, so
   the new code has the same shape; we still go through the bc_map on both
   sides rather than assuming it. *)
let replace_frame vm (fr : State.frame) =
  if not (eligible vm fr) then
    raise (Osr_failed "cannot OSR an opt-compiled frame");
  let m = Rt.method_by_uid vm.State.reg fr.State.f_method in
  let bc_pc = fr.State.code.Machine.bc_map.(fr.State.pc) in
  let fresh =
    try Jit.compile vm m Machine.Base
    with Jit.Compile_error e -> raise (Osr_failed ("recompile: " ^ e))
  in
  (* recompiled unchanged bytecode keeps its layout, so it fits the
     frame's window: the locals it has, the operand stack reserved for
     the code it replaces *)
  if
    fresh.Machine.frame_locals > fr.State.obase - fr.State.base
    || fresh.Machine.max_stack > fr.State.code.Machine.max_stack
  then raise (Osr_failed "fresh code needs a larger frame window");
  m.Rt.base_code <- Some fresh;
  (* find the machine pc whose bytecode pc matches; base code is 1:1 so
     this is exact *)
  let new_pc =
    let n = Array.length fresh.Machine.bc_map in
    let rec go i =
      if i >= n then raise (Osr_failed "no pc mapping in fresh code")
      else if fresh.Machine.bc_map.(i) = bc_pc then i
      else go (i + 1)
    in
    go 0
  in
  fr.State.code <- fresh;
  fr.State.pc <- new_pc;
  vm.State.osr_count <- vm.State.osr_count + 1;
  Jv_obs.Obs.incr vm.State.obs "vm.osr.replacements";
  Jv_obs.Obs.emit vm.State.obs ~scope:"vm.osr" "osr.replace"
    [
      ( "method",
        Jv_obs.Obs.Str
          (Rt.method_qname (Rt.class_by_id vm.State.reg m.Rt.owner) m) );
      ("bc_pc", Jv_obs.Obs.Int bc_pc);
    ]
