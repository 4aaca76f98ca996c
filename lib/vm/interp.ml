(* The execution engine: runs machine code in time slices.

   A slice ends only at VM safe points — yield points (method entry / loop
   back edge), returns, or native-call blocking — so every parked thread is
   always at a safe point, exactly the invariant Jikes RVM maintains for
   GC, scheduling and (in Jvolve) dynamic updates.

   Runtime faults (null dereference, division by zero, array bounds, failed
   casts) trap: the offending thread dies and the fault is logged.  MiniJava
   has no exception handling, so traps are terminal per-thread, never
   per-VM. *)

module CF = Jv_classfile
open Machine

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type slice_end = S_parked | S_blocked | S_finished | S_trapped of string

let max_frames = 4096

(* The per-dereference check of the JDrums/DVM baseline (paper §5): an
   [indirection_mode] VM counts every getfield/putfield/invokevirtual,
   update or no update.  Migrating objects is the lazy read barrier's
   job below; this is only the tax.  In normal (Jvolve) mode it costs
   one flag test: the point of the paper's eager GC-based update is that
   steady-state execution pays no per-dereference check. *)
let deref_check vm =
  if vm.State.config.indirection_mode then
    vm.State.deref_checks <- vm.State.deref_checks + 1

(* Raised by the lazy-update read barrier when the window is aborting (a
   residual transformer trapped): the current instruction has not
   executed, so the thread parks at its safe point and re-executes it
   once the window's rollback has restored the old version. *)
exception Lazy_abort

(* Lazy-update read barrier.  While a lazy update window is open every
   dereference site consults the hook, which chases lazy-forward markers
   and transforms still-pending old-epoch objects on first access,
   rewriting the stack slot in place (the slot stays a GC root while the
   transformer allocates).  With no window open the cost is a single
   [None] check — steady state still pays no per-dereference tax, unlike
   the JDrums-style [indirection_mode] count above.  [idx] is an absolute
   stack index; one below the frame's operands reads nothing. *)
let lazy_check_slot vm (t : State.vthread) (fr : State.frame) idx =
  match vm.State.lazy_info with
  | None -> ()
  | Some li ->
      if idx >= fr.State.obase && Value.is_ref t.State.stack.(idx) then
        li.State.li_barrier vm t.State.stack idx

let ref_addr what w =
  if Value.is_null w then trap "null dereference in %s" what
  else Value.to_ref w

(* Transformer-sandbox write guard: while the updater runs object
   transformers, heap stores may only target the objects under
   transformation or fresh allocations.  Exposed so the updater's
   [transformer.badwrite] fault point can drive the same gate. *)
let guard_write vm ~addr ~what =
  match vm.State.sandbox with
  | Some sb when sb.State.sb_guard ->
      if not (State.sandbox_may_write vm sb addr) then
        trap "sandbox: %s to object %d outside the transformed object set"
          what addr
  | _ -> ()

(* Charge one instruction against a sandbox's fuel budget. *)
let charge (sb : State.sandbox) =
  sb.State.sb_steps <- sb.State.sb_steps + 1;
  sb.State.sb_total_steps <- sb.State.sb_total_steps + 1;
  if sb.State.sb_steps > sb.State.sb_fuel then
    trap "transformer fuel exhausted after %d steps" sb.State.sb_steps

(* ... against the active sandbox's, if any. *)
let charge_fuel vm =
  match vm.State.sandbox with None -> () | Some sb -> charge sb

(* --- the operand stack ------------------------------------------------ *)

(* [s] is the thread's stack: a frame's window is reserved on entry, so
   a push never checks capacity.  Inlined into the dispatch loop; the
   rare paths stay out of line. *)
let[@inline] push_op (s : int array) (fr : State.frame) v =
  let sp = fr.State.sp in
  s.(sp) <- v;
  fr.State.sp <- sp + 1

let underflow () = State.fatal "operand stack underflow"

let[@inline] pop_op (s : int array) (fr : State.frame) =
  let sp = fr.State.sp - 1 in
  if sp < fr.State.obase then underflow ();
  fr.State.sp <- sp;
  s.(sp)

(* Step past the current instruction. *)
let advance (fr : State.frame) = fr.State.pc <- fr.State.pc + 1

(* Pop two ints, push [f a b] and step past the instruction. *)
let int_binop s fr f =
  let b = Value.to_int (pop_op s fr) in
  let a = Value.to_int (pop_op s fr) in
  push_op s fr (Value.of_int (f a b));
  advance fr

(* Complete a method return: pop the frame, deliver the result [v] when
   [has_value], advance the caller, fire any installed return barrier.
   The result lands in the caller's top operand slot, which is the
   callee's first local. *)
let do_return vm (t : State.vthread) ~has_value v =
  let d = t.State.depth in
  if d = 0 then State.fatal "return on thread %d with no frame" t.State.tid;
  let fr = t.State.frames.(d - 1) in
  let fired = fr.State.barrier in
  t.State.depth <- d - 1;
  if d > 1 then begin
    let caller = t.State.frames.(d - 2) in
    if has_value then push_op t.State.stack caller v;
    advance caller
  end
  else begin
    t.State.last_result <- (if has_value then v else 0);
    State.finish vm t State.T_done
  end;
  if fired then begin
    vm.State.barrier_fired <- true;
    Jv_obs.Obs.incr vm.State.obs "vm.dsu.return_barrier_hits";
    Jv_obs.Obs.emit vm.State.obs ~scope:"vm.dsu" "barrier.fired"
      [ ("tid", Jv_obs.Obs.Int t.State.tid) ]
  end;
  fired

(* Run native [m] on the [argc] words at [base] in [fr]'s operand stack,
   already popped.  While the native runs they sit just above [sp],
   unrooted, as the GC-safety rule in [Natives] expects; a native that
   blocks leaves them on the stack as [fr]'s top operands, rooted, for
   its retry. *)
let run_native vm (t : State.vthread) (fr : State.frame) (m : Rt.rt_method)
    key ~base ~argc : [ `Done | `Blocked ] =
  let fn =
    match State.native_fn vm m.Rt.uid with
    | Some f -> f
    | None -> trap "unlinked native method %s" key
  in
  let has_ret =
    match m.Rt.m_sig.CF.Types.ret with CF.Types.TVoid -> false | _ -> true
  in
  match fn vm t t.State.stack base with
  | State.N_val v ->
      if has_ret then push_op t.State.stack fr v;
      advance fr;
      `Done
  | State.N_void ->
      advance fr;
      `Done
  | State.N_block reason ->
      fr.State.sp <- base + argc;
      t.State.pending <-
        Some { State.pn_fn = fn; pn_argc = argc; pn_ret = has_ret };
      t.State.tstate <- State.T_blocked reason;
      `Blocked
  | State.N_trap msg -> trap "%s" msg

(* Invoke [m] on the top [argc] operands of [fr], the top frame.  The
   caller's pc is left pointing at the invoke instruction; [do_return]
   advances it, which keeps parked caller frames relocatable by OSR.  An
   interpreted callee's window starts at the arguments, which become its
   first locals where they lie. *)
let do_call vm (t : State.vthread) (fr : State.frame) (m : Rt.rt_method) argc :
    [ `Done | `Blocked ] =
  if not m.Rt.m_valid then
    trap "invocation of invalidated method %s" m.Rt.m_name;
  let base = fr.State.sp - argc in
  if base < fr.State.obase then underflow ();
  fr.State.sp <- base;
  match m.Rt.native_key with
  | Some key -> run_native vm t fr m key ~base ~argc
  | None ->
      if t.State.depth >= max_frames then trap "stack overflow";
      m.Rt.invocations <- m.Rt.invocations + 1;
      (try Jit.maybe_opt vm m
       with Jit.Compile_error e -> trap "opt compilation failed: %s" e);
      let code =
        try Jit.best_code vm m
        with Jit.Compile_error e -> trap "compilation failed: %s" e
      in
      ignore (State.enter t m code ~base ~argc : State.frame);
      `Done

(* Execute one thread for up to [fuel] instructions, stopping only at safe
   points.  Returns how the slice ended. *)
let run_slice vm (t : State.vthread) ~fuel : slice_end =
  Jv_obs.Metrics.incr (Lazy.force vm.State.m_slices);
  let heap = vm.State.heap in
  let reg = vm.State.reg in
  (* the updater installs and removes a sandbox only around whole calls,
     so the one current at the slice's start charges all of it *)
  let sandbox = vm.State.sandbox in
  let fuel = ref fuel in
  let result = ref None in
  (try
     while Option.is_none !result do
       if t.State.depth = 0 then begin
         State.finish vm t State.T_done;
         result := Some S_finished
       end
       else begin
           let fr = Array.unsafe_get t.State.frames (t.State.depth - 1) in
           (* valid for this instruction: only a call grows the stack,
              and nothing reads it after one *)
           let s = t.State.stack in
           let code = fr.State.code.code in
           if fr.State.pc < 0 || fr.State.pc >= Array.length code then
             trap "pc %d out of range" fr.State.pc;
           let ins = code.(fr.State.pc) in
           vm.State.instr_count <- vm.State.instr_count + 1;
           decr fuel;
           (match sandbox with None -> () | Some sb -> charge sb);
           match ins with
           | M_const w ->
               push_op s fr w;
               advance fr
           | M_str sid ->
               let addr = State.alloc_string_sid vm sid in
               push_op s fr (Value.of_ref addr);
               advance fr
           | M_load i ->
               push_op s fr s.(fr.State.base + i);
               advance fr
           | M_store i ->
               s.(fr.State.base + i) <- pop_op s fr;
               advance fr
           | M_dup ->
               let v = pop_op s fr in
               push_op s fr v;
               push_op s fr v;
               advance fr
           | M_pop ->
               ignore (pop_op s fr);
               advance fr
           | M_swap ->
               let a = pop_op s fr in
               let b = pop_op s fr in
               push_op s fr a;
               push_op s fr b;
               advance fr
           | M_add -> int_binop s fr ( + )
           | M_sub -> int_binop s fr ( - )
           | M_mul -> int_binop s fr ( * )
           | M_div ->
               int_binop s fr (fun a b ->
                   if b = 0 then trap "division by zero" else a / b)
           | M_rem ->
               int_binop s fr (fun a b ->
                   if b = 0 then trap "division by zero" else a mod b)
           | M_neg ->
               let a = Value.to_int (pop_op s fr) in
               push_op s fr (Value.of_int (-a));
               advance fr
           | M_icmp c ->
               let b = Value.to_int (pop_op s fr) in
               let a = Value.to_int (pop_op s fr) in
               let r =
                 match c with
                 | CF.Instr.Eq -> a = b
                 | CF.Instr.Ne -> a <> b
                 | CF.Instr.Lt -> a < b
                 | CF.Instr.Le -> a <= b
                 | CF.Instr.Gt -> a > b
                 | CF.Instr.Ge -> a >= b
               in
               push_op s fr (Value.of_bool r);
               advance fr
           | M_bnot ->
               let a = Value.to_bool (pop_op s fr) in
               push_op s fr (Value.of_bool (not a));
               advance fr
           | M_acmp eq ->
               (* identity compares must see through lazy-forward
                  markers, or an original and its replacement would
                  compare unequal mid-window *)
               lazy_check_slot vm t fr (fr.State.sp - 1);
               lazy_check_slot vm t fr (fr.State.sp - 2);
               let b = pop_op s fr in
               let a = pop_op s fr in
               push_op s fr (Value.of_bool (if eq then a = b else a <> b));
               advance fr
           | M_if_true target ->
               let c = Value.to_bool (pop_op s fr) in
               fr.State.pc <- (if c then target else fr.State.pc + 1)
           | M_if_false target ->
               let c = Value.to_bool (pop_op s fr) in
               fr.State.pc <- (if c then fr.State.pc + 1 else target)
           | M_goto target -> fr.State.pc <- target
           | M_getfield off ->
               deref_check vm;
               lazy_check_slot vm t fr (fr.State.sp - 1);
               let addr = ref_addr "getfield" (pop_op s fr) in
               push_op s fr (Heap.get heap ~addr ~off);
               advance fr
           | M_putfield off ->
               deref_check vm;
               lazy_check_slot vm t fr (fr.State.sp - 2);
               let v = pop_op s fr in
               let addr = ref_addr "putfield" (pop_op s fr) in
               guard_write vm ~addr ~what:"putfield";
               Heap.set heap ~addr ~off v;
               advance fr
           | M_getstatic slot ->
               push_op s fr (State.jtoc_get vm slot);
               advance fr
           | M_putstatic slot ->
               State.jtoc_set vm slot (pop_op s fr);
               advance fr
           | M_invokevirtual (slot, argc) ->
               let recv_idx = fr.State.sp - argc in
               if recv_idx < fr.State.obase then trap "operand stack underflow at call";
               deref_check vm;
               lazy_check_slot vm t fr recv_idx;
               let addr = ref_addr "virtual call" s.(recv_idx) in
               let cls = Rt.class_by_id reg (Heap.class_id heap addr) in
               if slot >= Array.length cls.Rt.tib then
                 trap "no TIB slot %d in class %s" slot cls.Rt.name;
               let m = Rt.method_by_uid reg cls.Rt.tib.(slot) in
               if do_call vm t fr m argc = `Blocked then
                 result := Some S_blocked
           | M_invokestatic (uid, argc) ->
               let m = Rt.method_by_uid reg uid in
               if do_call vm t fr m argc = `Blocked then
                 result := Some S_blocked
           | M_invokedirect (uid, argc) ->
               let recv_idx = fr.State.sp - argc in
               if recv_idx < fr.State.obase then trap "operand stack underflow at call";
               if Value.is_null s.(recv_idx) then
                 trap "null dereference in direct call";
               let m = Rt.method_by_uid reg uid in
               if do_call vm t fr m argc = `Blocked then
                 result := Some S_blocked
           | M_new cid ->
               let cls = Rt.class_by_id reg cid in
               if not cls.Rt.valid then
                 trap "new of superseded class %s" cls.Rt.name;
               let addr = State.alloc_object vm cls in
               push_op s fr (Value.of_ref addr);
               advance fr
           | M_newarray _ ->
               let len = Value.to_int (pop_op s fr) in
               if len < 0 then trap "negative array size %d" len;
               let addr = State.alloc_array vm ~len in
               push_op s fr (Value.of_ref addr);
               advance fr
           | M_aload ->
               let idx = Value.to_int (pop_op s fr) in
               let addr = ref_addr "array load" (pop_op s fr) in
               let len = Heap.array_length heap addr in
               if idx < 0 || idx >= len then
                 trap "array index %d out of bounds (length %d)" idx len;
               push_op s fr
                 (Heap.get heap ~addr ~off:(Heap.array_header_words + idx));
               advance fr
           | M_astore ->
               let v = pop_op s fr in
               let idx = Value.to_int (pop_op s fr) in
               let addr = ref_addr "array store" (pop_op s fr) in
               let len = Heap.array_length heap addr in
               if idx < 0 || idx >= len then
                 trap "array index %d out of bounds (length %d)" idx len;
               guard_write vm ~addr ~what:"array store";
               Heap.set heap ~addr ~off:(Heap.array_header_words + idx) v;
               advance fr
           | M_alen ->
               let addr = ref_addr "arraylength" (pop_op s fr) in
               push_op s fr (Value.of_int (Heap.array_length heap addr));
               advance fr
           | M_checkcast cid ->
               (* the class-id read below must see the current-epoch
                  object, or a pending old-epoch instance would fail a
                  cast its replacement passes *)
               lazy_check_slot vm t fr (fr.State.sp - 1);
               let w = pop_op s fr in
               if Value.is_null w then push_op s fr w
               else begin
                 let ocid = Heap.class_id heap (Value.to_ref w) in
                 if Rt.is_subclass_id reg ~sub:ocid ~super:cid then
                   push_op s fr w
                 else
                   trap "class cast: %s is not a %s"
                     (Rt.class_by_id reg ocid).Rt.name
                     (Rt.class_by_id reg cid).Rt.name
               end;
               advance fr
           | M_instanceof cid ->
               lazy_check_slot vm t fr (fr.State.sp - 1);
               let w = pop_op s fr in
               let r =
                 (not (Value.is_null w))
                 && Rt.is_subclass_id reg
                      ~sub:(Heap.class_id heap (Value.to_ref w))
                      ~super:cid
               in
               push_op s fr (Value.of_bool r);
               advance fr
           | M_return ->
               let fired = do_return vm t ~has_value:false 0 in
               if State.is_done t then
                 result := Some S_finished
               else if fired then begin
                 (* the thread blocks at its safe point until the pending
                    update resolves (paper §3.2) *)
                 t.State.tstate <- State.T_blocked State.B_dsu;
                 result := Some S_blocked
               end
               else if !fuel <= 0 then result := Some S_parked
           | M_return_val ->
               let v = pop_op s fr in
               let fired = do_return vm t ~has_value:true v in
               if State.is_done t then
                 result := Some S_finished
               else if fired then begin
                 t.State.tstate <- State.T_blocked State.B_dsu;
                 result := Some S_blocked
               end
               else if !fuel <= 0 then result := Some S_parked
           | M_yield _ ->
               advance fr;
               if !fuel <= 0 then result := Some S_parked
       end
     done
   with
  | Lazy_abort ->
      (* the lazy update window is rolling back: the instruction whose
         barrier raised has not executed, so the thread parks at its
         safe point and re-executes it on the restored old version *)
      t.State.tstate <- State.T_blocked State.B_dsu;
      result := Some S_blocked
  | Trap msg ->
      State.finish vm t (State.T_trapped msg);
      State.record_trap vm t msg;
      result := Some (S_trapped msg)
  | Jit.Compile_error msg ->
      let msg = "jit: " ^ msg in
      State.finish vm t (State.T_trapped msg);
      State.record_trap vm t msg;
      result := Some (S_trapped msg));
  match !result with
  | Some r -> r
  | None -> S_finished

(* Re-run the native call a blocked thread is parked on.  Called by the
   scheduler once the block reason looks ready. *)
let retry_pending vm (t : State.vthread) =
  try
    match t.State.pending with
    | Some pn when t.State.depth > 0 -> (
        let fr = State.top_frame t in
        let base = fr.State.sp - pn.State.pn_argc in
        (* the arguments stay below [sp], rooted, while the native runs:
           it may allocate, and [pending] is still set *)
        match pn.State.pn_fn vm t t.State.stack base with
        | State.N_val v ->
            t.State.pending <- None;
            fr.State.sp <- base;
            if pn.State.pn_ret then push_op t.State.stack fr v;
            advance fr;
            t.State.tstate <- State.T_runnable
        | State.N_void ->
            t.State.pending <- None;
            fr.State.sp <- base;
            advance fr;
            t.State.tstate <- State.T_runnable
        | State.N_block reason -> t.State.tstate <- State.T_blocked reason
        | State.N_trap msg ->
            t.State.pending <- None;
            State.finish vm t (State.T_trapped msg);
            State.record_trap vm t msg)
    | _ -> ()
  with Trap msg ->
    t.State.pending <- None;
    State.finish vm t (State.T_trapped msg);
    State.record_trap vm t msg

(* Run a method synchronously to completion on a temporary thread.  Used
   for <clinit> at boot and for Jvolve transformer functions during an
   update (the paper executes transformers "normally, because they are
   otherwise standard Java").  The temporary thread is registered so its
   stack is a GC root. *)
exception Sync_trap of string

(* A carrier thread can be reused across many synchronous calls (the
   updater makes one [jvolveObject] call per transformed object, so the
   per-call thread set-up cost matters — Table 1's transformer column). *)
let make_carrier vm : State.vthread = State.new_thread vm

let release_carrier vm (t : State.vthread) =
  vm.State.threads <- List.filter (fun x -> x != t) vm.State.threads

let call_on vm (t : State.vthread) (m : Rt.rt_method) (args : int array) : int
    =
  let code =
    try Jit.best_code vm m
    with Jit.Compile_error e -> raise (Sync_trap ("jit: " ^ e))
  in
  State.start_frame t m code args;
  t.State.tstate <- State.T_runnable;
  t.State.last_result <- 0;
  let rec loop () =
    match run_slice vm t ~fuel:max_int with
    | S_finished -> t.State.last_result
    | S_parked -> loop ()
    | S_blocked ->
        t.State.depth <- 0;
        t.State.pending <- None;
        State.finish vm t State.T_done;
        raise (Sync_trap "synchronous VM call blocked on I/O")
    | S_trapped msg ->
        t.State.depth <- 0;
        raise (Sync_trap msg)
  in
  loop ()

let call_sync vm (m : Rt.rt_method) (args : int array) : int =
  let t = make_carrier vm in
  Fun.protect
    ~finally:(fun () -> release_carrier vm t)
    (fun () -> call_on vm t m args)
