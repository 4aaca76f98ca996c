(* The VM: central state shared by the class loader, JIT, interpreter,
   scheduler, garbage collector and the DSU machinery.

   One [t] value is one virtual machine.  Green threads are interleaved by
   [Sched]; all state is single-OS-thread. *)

module CF = Jv_classfile
module Simnet = Jv_simnet.Simnet
module Obs = Jv_obs.Obs

type config = {
  heap_words : int;
      (* the cap on each semi-space, in words: a heap commits
         [Heap.floor_words] per space until it needs more *)
  opt_threshold : int; (* invocations before opt recompilation *)
  quantum : int; (* machine instructions per scheduler slice *)
  indirection_mode : bool;
      (* the JDrums/DVM-style baseline: every getfield/putfield/
         invokevirtual pays a check, and every update commits lazily with
         no background sweep, so objects migrate only when touched *)
  opt_osr : bool;
      (* extension (paper future work §3.2/§5, cf. UpStare): allow OSR of
         opt-compiled category-(2) frames when they are parked outside any
         inlined region.  Off by default: the paper's Jvolve only OSRs
         base-compiled frames *)
  transformer_fuel : int;
      (* machine-instruction budget per transformer invocation; a
         transformer that exceeds it traps and the update aborts *)
  verify_heap : bool;
      (* walk the whole heap after the transform phase (and again after a
         rollback) checking headers, reference-field types and statics *)
  lazy_update : bool;
      (* commit updates lazily: no transforming collection at the pause;
         old-epoch objects are transformed on first access by a read
         barrier and drained by the scheduler's incremental sweeper *)
  lazy_sweep_budget : int;
      (* objects the background sweeper may transform per scheduler round
         while a lazy update window is open *)
  confree : bool;
      (* run the static con-freeness / backward-compatibility analysis at
         admission time and let proven-compatible changed methods stay on
         stack across the commit, shrinking the restricted set the DSU
         safe-point check feeds on *)
}

let default_config =
  {
    heap_words = 1 lsl 20;
    opt_threshold = 50;
    quantum = 2000;
    indirection_mode = false;
    opt_osr = false;
    transformer_fuel = 200_000;
    verify_heap = false;
    lazy_update = false;
    lazy_sweep_budget = 64;
    confree = true;
  }

(* The opt compiler inlines callees of at most [inline_max_code]
   bytecodes, nested at most [inline_depth] deep. *)
let inline_max_code = 24
let inline_depth = 3

(* The interned-string index: keys compared by [String.equal], not by the
   polymorphic compare a generic [Hashtbl] uses. *)
module Strtbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* A concat memo for a table of [n] strings: the smallest power of two
   >= 2n slots, at least 64, all empty (sid -1). *)
let concat_memo_for n =
  let rec slots s = if s >= 2 * n then s else slots (2 * s) in
  Array.make (3 * slots 64) (-1)

(* --- threads --- *)

type block_reason =
  | B_accept of int (* listener id *)
  | B_recv of int (* connection id *)
  | B_sleep of int (* wake at tick *)
  | B_dsu
      (* parked by a fired DSU return barrier: the thread stays stopped at
         its safe point until the pending update is applied or aborted
         (paper §3.2: "when a restricted method returns, the thread will
         block and Jvolve will restart the update process") *)

type thread_state =
  | T_runnable
  | T_blocked of block_reason
  | T_done
  | T_trapped of string

type native_result =
  | N_val of int
  | N_void
  | N_block of block_reason
  | N_trap of string

(* The transformer sandbox (installed by the updater while transformers
   run).  While one is active the interpreter charges every executed
   instruction against [sb_fuel] and, when [sb_guard] is set, refuses heap
   writes whose target is not in the allowed set: the new-layout halves of
   the update log plus anything freshly allocated by the transformers
   themselves.  The sandbox keeps no copy of that set; it holds the log
   itself and tries three cheap tests in order:
   - the allocation watermark: anything at or above the first allocation
     of the current GC epoch is fresh;
   - the pair in flight: [sb_target], the new object the running
     transformer was invoked on, trusted while no collection has run
     since it was set;
   - an index of the log's new addresses, built on the first miss,
     extended as the log grows and dropped after a collection (the rebuild
     reads the log's forwarded entries).
   Fresh allocations are not in the log — a root there would retain every
   transformer temporary and defeat nested collections.  The one
   approximation: a temporary allocated before a nested collection loses
   write permission after it (the transformed objects themselves never
   do). *)
type sandbox = {
  mutable sb_fuel : int; (* budget per transformer invocation *)
  mutable sb_steps : int; (* steps charged to the current invocation *)
  mutable sb_total_steps : int; (* accounting across the whole phase *)
  mutable sb_guard : bool; (* writes restricted (object transformers) *)
  sb_log : Update_log.t; (* the update's log, rooted by the VM *)
  mutable sb_target : int; (* new object of the pair in flight *)
  mutable sb_target_gc : int; (* gc_count [sb_target] belongs to *)
  mutable sb_index : (int, int) Hashtbl.t; (* new addr -> pair index *)
  mutable sb_indexed : int; (* leading log pairs in [sb_index] *)
  mutable sb_index_gc : int; (* gc_count the index belongs to *)
  mutable sb_watermark : int; (* first fresh allocation of this epoch *)
  mutable sb_watermark_gc : int; (* gc_count the watermark belongs to *)
}

(* A rollback's verdict: [rb_ok] when the restored metadata audits exact
   and, with [verify_heap], the heap re-verifies; [rb_note] explains a
   failure. *)
type rollback = { rb_ok : bool; rb_note : string; rb_ms : float }

(* Bookkeeping for an open lazy update window: the commit flipped
   metadata and bumped the heap epoch but left old-epoch objects in
   place, to be transformed on first access (read barrier) or by the
   background sweeper.  The verifier and tests key mixed-epoch
   allowances off it; the updater's three hooks ride on it, so setting
   and clearing [t.lazy_info] opens and closes the whole window. *)
type lazy_info = {
  li_plan : int array;
      (* old cid -> new cid, indexed by class id; -1 where instances are
         not pending (classes loaded later fall past the end) *)
  li_epoch : int; (* the heap epoch this window installed *)
  li_log : Update_log.t; (* the window's log, [t.update_log] while open *)
  mutable li_transformed : int; (* objects transformed so far *)
  mutable li_barrier_hits : int; (* barrier-triggered transforms *)
  mutable li_swept : int; (* sweeper-triggered transforms *)
  mutable li_chases : int; (* barrier chases of lazy-forward markers *)
  li_barrier : t -> int array -> int -> unit;
      (* the read barrier on a reference slot of a rooted word array (a
         thread's stack at an absolute index, the scratch root): chases
         lazy-forward markers, transforms a pending old-epoch object,
         rewrites the slot *)
  li_sweep : t -> unit; (* per round: visit [lazy_sweep_budget] objects *)
  li_drain : t -> (unit, rollback) result;
      (* force every residual transform now; [Error] when a residual
         transformer trapped and the window rolled back instead *)
}

(* A frame is a window over its thread's word stack: locals at
   [base, obase), operands at [obase, sp).  A call leaves the arguments
   where the caller pushed them, so the callee's first locals are the
   caller's top operands, and reserves [frame_locals + max_stack] words
   on entry, so a push never checks capacity.  Records are reused by
   depth: one pushed at depth [d] overwrites every field of the last
   one there. *)
and frame = {
  mutable f_method : int; (* uid *)
  mutable code : Machine.compiled;
  mutable pc : int;
  mutable base : int; (* local [i] is [stack.(base + i)] *)
  mutable obase : int; (* first operand slot *)
  mutable sp : int; (* next free operand slot *)
  mutable barrier : bool; (* a DSU return barrier is installed here *)
}

(* A blocked native call: its linked function, re-executed when the
   block reason clears.  Its [pn_argc] argument words stay on the top
   frame's operand stack, as its top operands, until then.  [pn_ret]
   records whether the call pushes a result on completion. *)
and pending_native = {
  pn_fn : native_fn;
  pn_argc : int;
  pn_ret : bool;
}

and vthread = {
  tid : int;
  mutable stack : int array; (* encoded words: every frame's window *)
  mutable frames : frame array;
      (* by depth: [frames.(depth - 1)] is the top; the records past
         [depth] are spare *)
  mutable depth : int; (* live frames *)
  mutable tstate : thread_state;
  mutable pending : pending_native option;
  mutable last_result : int; (* bottom-frame return value, for sync calls *)
}

and t = {
  config : config;
  reg : Rt.registry;
  heap : Heap.t;
  (* JTOC: the statics area (Jikes RVM's Java Table of Contents) *)
  mutable jtoc : int array;
  mutable jtoc_n : int;
  (* interned string table *)
  mutable strings : string array;
  mutable n_strings : int;
  string_ids : int Strtbl.t;
  (* direct-mapped memo of [String.concat]: (sid a, sid b, sid of a ^ b)
     triples, three words per slot, sized from the table
     ([concat_memo_for]) *)
  mutable concat_memo : int array;
  (* native implementations by dispatch key; read only to link a class's
     native methods when it is installed ([link_natives]) *)
  natives : (string, native_fn) Hashtbl.t;
  (* method uid -> the native method's function, linked at install;
     [None] for a method that is not native or has no implementation *)
  mutable native_fns : native_fn option array;
  net : Simnet.t;
  mutable threads : vthread list; (* spawn order *)
  mutable ended : bool;
      (* a thread finished or trapped since [Sched.reap] last dropped
         them ([finish]) *)
  mutable next_tid : int;
  mutable ticks : int; (* logical clock: one tick per scheduler round *)
  mutable rng : int; (* Sys.random state (deterministic) *)
  (* cached well-known class ids, set at boot *)
  mutable object_cid : int;
  mutable string_cid : int;
  mutable array_cid : int;
  (* --- DSU coordination ------------------------------------------- *)
  (* installed by Jvolve_core: called by the scheduler at safe points
     while an update is pending *)
  mutable dsu_attempt : (t -> unit) option;
  mutable barrier_fired : bool;
  (* installed during the transformer phase so the [Jvolve.transform]
     native can force an object's transformer to run *)
  mutable force_transform : (t -> int -> unit) option;
  (* the open lazy update window (epoch-tagged heap), if any *)
  mutable lazy_info : lazy_info option;
  (* the update log in flight: from the transforming collection to the
     commit or rollback, or for the life of a lazy window.  A GC root *)
  mutable update_log : Update_log.t option;
  (* word arrays that the GC must treat as extra roots and rewrite (the
     transaction's statics snapshot, the lazy window's scratch slot) *)
  mutable extra_roots : int array list;
  (* active transformer sandbox, if the updater installed one *)
  mutable sandbox : sandbox option;
  (* --- fault injection --------------------------------------------- *)
  (* armed chaos plan, consulted at the updater's injection points *)
  mutable faults : Jv_faults.Faults.t option;
  (* a [Faults.Kill] fired: the VM is dead, as after a process crash.
     The scheduler stops running rounds; the payload names the point *)
  mutable killed : string option;
  (* --- statistics --------------------------------------------------- *)
  mutable compile_count : int;
  mutable opt_compile_count : int;
  mutable osr_count : int;
  mutable instr_count : int;
  (* dereferences an [indirection_mode] VM has paid its check on: the
     baseline's steady-state tax, counted with or without an update *)
  mutable deref_checks : int;
  mutable trap_log : (int * string) list;
  (* --- per-epoch error attribution (post-commit guard window) ------- *)
  (* every interpreter trap / app-level error response is charged to the
     code epoch current when it was raised.  The world is stopped while an
     update installs code and bumps the epoch, so raise-time epoch equals
     the epoch of the code that raised. *)
  traps_by_epoch : (int, int) Hashtbl.t;
  app_errors_by_epoch : (int, int) Hashtbl.t;
  (* when set, every server-side [Net.send] line is classified; lines the
     predicate rejects (an app-level 5xx) count as app errors *)
  mutable response_classifier : (string -> bool) option;
  (* the update log retained past commit while a guard window is open;
     a GC root (forwarded once when it is also [update_log]) *)
  mutable guard_retained : Update_log.t option;
  (* installed by the guard watchdog: called at the end of every
     scheduler round while a guard window is open *)
  mutable guard_tick : (t -> unit) option;
  out : Buffer.t; (* program output (Sys.print) *)
  mutable last_gc_ms : float;
  (* flight recorder + metrics; clock = this VM's [ticks] *)
  obs : Obs.t;
  (* handles of the metrics bumped on every slice and round, resolved on
     first use so the sink keeps its registration order *)
  m_slices : Jv_obs.Metrics.counter Lazy.t; (* vm.interp.slices *)
  m_rounds : Jv_obs.Metrics.counter Lazy.t; (* vm.sched.rounds *)
  m_runnable : Jv_obs.Metrics.gauge Lazy.t; (* vm.sched.runnable *)
  (* harness hooks run at the start of every scheduler round (workload
     drivers pumping the simulated network) *)
  mutable pollers : (t -> unit) list;
}

(* A native reads its [n] arguments at [args.(base) .. args.(base + n - 1)]:
   called from the interpreter, [args] is the calling thread's stack. *)
and native_fn = t -> vthread -> int array -> int -> native_result

(* The class an open window transforms instances of [cid] into, or -1
   when they are not pending. *)
let lazy_target li cid =
  if cid < Array.length li.li_plan then li.li_plan.(cid) else -1

(* Resolve the open lazy window, if any, by draining it: [Error] with
   the rollback's verdict when a residual transformer trapped and the
   window rolled back instead. *)
let drain_window vm =
  match vm.lazy_info with Some li -> li.li_drain vm | None -> Ok ()

exception Vm_fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Vm_fatal s)) fmt

(* Set by [Gc] at link time: collect with no transform plan.  Breaking the
   recursion between allocation (here) and the collector module. *)
let gc_hook : (t -> unit) ref =
  ref (fun _ -> failwith "Gc not linked")

let create ?(config = default_config) () =
  let obs = Obs.create () in
  let committed = Obs.gauge obs "vm.heap.committed_words" in
  let on_grow words = Jv_obs.Metrics.set committed (float_of_int words) in
  let heap = Heap.create ~on_grow ~words:config.heap_words in
  on_grow (Heap.committed_words heap);
  let vm =
  {
    config;
    reg = Rt.create_registry ();
    heap;
    jtoc = Array.make 256 0;
    jtoc_n = 0;
    strings = Array.make 256 "";
    n_strings = 0;
    string_ids = Strtbl.create 256;
    concat_memo = concat_memo_for 0;
    natives = Hashtbl.create 64;
    native_fns = [||];
    net = Simnet.create ();
    threads = [];
    ended = false;
    next_tid = 1;
    ticks = 0;
    rng = 123456789;
    object_cid = -1;
    string_cid = -1;
    array_cid = -1;
    dsu_attempt = None;
    barrier_fired = false;
    force_transform = None;
    lazy_info = None;
    update_log = None;
    extra_roots = [];
    sandbox = None;
    faults = None;
    killed = None;
    compile_count = 0;
    opt_compile_count = 0;
    osr_count = 0;
    instr_count = 0;
    deref_checks = 0;
    trap_log = [];
    traps_by_epoch = Hashtbl.create 8;
    app_errors_by_epoch = Hashtbl.create 8;
    response_classifier = None;
    guard_retained = None;
    guard_tick = None;
    out = Buffer.create 1024;
    last_gc_ms = 0.0;
    obs;
    m_slices = lazy (Obs.counter obs "vm.interp.slices");
    m_rounds = lazy (Obs.counter obs "vm.sched.rounds");
    m_runnable = lazy (Obs.gauge obs "vm.sched.runnable");
    pollers = [];
  }
  in
  Obs.set_clock vm.obs (fun () -> vm.ticks);
  Obs.set_wall vm.obs Unix.gettimeofday;
  Simnet.set_obs vm.net vm.obs;
  vm

(* --- JTOC ---------------------------------------------------------- *)

let alloc_jtoc_slot vm =
  if vm.jtoc_n >= Array.length vm.jtoc then begin
    let a = Array.make (2 * Array.length vm.jtoc) 0 in
    Array.blit vm.jtoc 0 a 0 vm.jtoc_n;
    vm.jtoc <- a
  end;
  let slot = vm.jtoc_n in
  vm.jtoc_n <- slot + 1;
  slot

let jtoc_get vm slot = vm.jtoc.(slot)
let jtoc_set vm slot v = vm.jtoc.(slot) <- v

(* --- string table -------------------------------------------------- *)

(* Intern [s]: its sid, the slot of [vm.strings] that holds it.  Sids are
   never reused: the table only grows, and nothing else writes a slot.
   So a sid names one string for the life of the VM, which makes equal
   contents equal sids ([String.equals] compares sids) and makes a
   concatenation a pure function of its operands' sids ([concat_sid]
   memoises it). *)
let intern_string vm s =
  match Strtbl.find_opt vm.string_ids s with
  | Some sid -> sid
  | None ->
      if vm.n_strings >= Array.length vm.strings then begin
        let a = Array.make (2 * Array.length vm.strings) "" in
        Array.blit vm.strings 0 a 0 vm.n_strings;
        vm.strings <- a
      end;
      let sid = vm.n_strings in
      vm.strings.(sid) <- s;
      vm.n_strings <- sid + 1;
      Strtbl.replace vm.string_ids s sid;
      if 2 * vm.n_strings > Array.length vm.concat_memo / 3 then
        vm.concat_memo <- concat_memo_for vm.n_strings;
      sid

let string_of_sid vm sid =
  if sid < 0 || sid >= vm.n_strings then fatal "bad string id %d" sid;
  vm.strings.(sid)

(* The memo slot of the pair ([sa], [sb]): the index of its first word. *)
let concat_slot memo sa sb =
  let h = ((sa * 0x9E3779B1) + sb) * 0x2545F491 in
  3 * ((h lxor (h lsr 23)) land ((Array.length memo / 3) - 1))

(* The sid of [string_of_sid sa ^ string_of_sid sb], interning it on a
   memo miss. *)
let concat_sid vm sa sb =
  let memo = vm.concat_memo in
  let i = concat_slot memo sa sb in
  if memo.(i) = sa && memo.(i + 1) = sb then memo.(i + 2)
  else begin
    let sid = intern_string vm (string_of_sid vm sa ^ string_of_sid vm sb) in
    (* interning may have replaced the memo *)
    let memo = vm.concat_memo in
    let i = concat_slot memo sa sb in
    memo.(i) <- sa;
    memo.(i + 1) <- sb;
    memo.(i + 2) <- sid;
    sid
  end

(* --- native dispatch ------------------------------------------------- *)

(* Link each of [methods] to its native implementation, if it has one,
   by uid.  Called for every class as it is installed, so each native
   method's dispatch key is looked up once per VM, not once per call.
   Non-native methods clear their entry: a rolled-back update frees its
   uids for the next install. *)
let link_natives vm (methods : Rt.rt_method array) =
  Array.iter
    (fun (m : Rt.rt_method) ->
      let uid = m.Rt.uid in
      if uid >= Array.length vm.native_fns then begin
        let a = Array.make (max 256 (2 * uid)) None in
        Array.blit vm.native_fns 0 a 0 (Array.length vm.native_fns);
        vm.native_fns <- a
      end;
      vm.native_fns.(uid) <-
        Option.bind m.Rt.native_key (Hashtbl.find_opt vm.natives))
    methods

(* The function linked for native method [uid]; [None] when its key has
   no registered implementation. *)
let native_fn vm uid =
  if uid < Array.length vm.native_fns then vm.native_fns.(uid) else None

(* --- transformer sandbox -------------------------------------------- *)

(* A sandbox over [log]; the caller installs it as [vm.sandbox] around
   the code it confines. *)
let sandbox_create vm ~fuel ~log : sandbox =
  {
    sb_fuel = fuel;
    sb_steps = 0;
    sb_total_steps = 0;
    sb_guard = false;
    sb_log = log;
    sb_target = 0;
    sb_target_gc = -1;
    sb_index = Hashtbl.create 16;
    sb_indexed = 0;
    sb_index_gc = -1;
    sb_watermark = vm.heap.Heap.free;
    sb_watermark_gc = vm.heap.Heap.gc_count;
  }

(* Take the log's last pair back off; it leaves the index with it. *)
let sandbox_pop sb =
  let last = Update_log.pairs sb.sb_log - 1 in
  if sb.sb_indexed > last then begin
    sb.sb_indexed <- last;
    Hashtbl.remove sb.sb_index (Update_log.new_addr sb.sb_log last)
  end;
  Update_log.pop sb.sb_log

(* The log's new-address -> pair index, current for this GC epoch: a
   collection moved every entry, so the index restarts from the log's
   forwarded words; otherwise only pairs appended since are added. *)
let sandbox_index vm sb =
  let n = Update_log.pairs sb.sb_log in
  if sb.sb_index_gc <> vm.heap.Heap.gc_count then begin
    sb.sb_index <- Hashtbl.create (max 16 n);
    sb.sb_indexed <- 0;
    sb.sb_index_gc <- vm.heap.Heap.gc_count
  end;
  for i = sb.sb_indexed to n - 1 do
    Hashtbl.replace sb.sb_index (Update_log.new_addr sb.sb_log i) i
  done;
  if n > sb.sb_indexed then sb.sb_indexed <- n;
  sb.sb_index

(* A fresh allocation: advance the watermark into the current GC epoch
   if a collection has happened since it was set. *)
let sandbox_note_alloc vm sb addr =
  if sb.sb_watermark_gc <> vm.heap.Heap.gc_count then begin
    sb.sb_watermark <- addr;
    sb.sb_watermark_gc <- vm.heap.Heap.gc_count
  end

let sandbox_may_write vm sb addr =
  let gc = vm.heap.Heap.gc_count in
  (sb.sb_watermark_gc = gc && addr >= sb.sb_watermark)
  || (sb.sb_target_gc = gc && addr = sb.sb_target)
  || Hashtbl.mem (sandbox_index vm sb) addr

(* --- allocation ----------------------------------------------------- *)

(* Guarantee [words] of free space below the heap's cap, collecting if
   necessary.  The allocations it reserves for may grow the spaces, which
   moves no address, but cannot collect. *)
let ensure_free vm words =
  if Heap.words_free vm.heap < words then begin
    !gc_hook vm;
    if Heap.words_free vm.heap < words then
      fatal "out of memory: need %d words, %d free after GC" words
        (Heap.words_free vm.heap)
  end

let alloc_object vm (cls : Rt.rt_class) =
  let n = cls.Rt.size_words in
  let addr =
    let a = Heap.alloc_raw vm.heap ~nwords:n in
    if a <> 0 then a
    else begin
      ensure_free vm n;
      let a = Heap.alloc_raw vm.heap ~nwords:n in
      if a = 0 then fatal "allocation failed after GC";
      a
    end
  in
  Heap.set vm.heap ~addr ~off:Heap.off_class cls.Rt.cid;
  (* remaining words are pre-zeroed: gc word 0, fields default; once a
     lazy update has bumped the heap epoch, fresh objects are stamped
     with the current epoch tag *)
  if vm.heap.Heap.epoch <> 0 then
    Heap.set vm.heap ~addr ~off:Heap.off_gc vm.heap.Heap.epoch;
  (match vm.sandbox with
  | Some sb -> sandbox_note_alloc vm sb addr (* fresh allocation: writable *)
  | None -> ());
  addr

let alloc_array vm ~len =
  if len < 0 then fatal "negative array size %d" len;
  let n = Heap.array_header_words + len in
  let addr =
    let a = Heap.alloc_raw vm.heap ~nwords:n in
    if a <> 0 then a
    else begin
      ensure_free vm n;
      let a = Heap.alloc_raw vm.heap ~nwords:n in
      if a = 0 then fatal "allocation failed after GC";
      a
    end
  in
  Heap.set vm.heap ~addr ~off:Heap.off_class vm.array_cid;
  Heap.set vm.heap ~addr ~off:Heap.off_array_len len;
  if vm.heap.Heap.epoch <> 0 then
    Heap.set vm.heap ~addr ~off:Heap.off_gc vm.heap.Heap.epoch;
  (match vm.sandbox with
  | Some sb -> sandbox_note_alloc vm sb addr
  | None -> ());
  addr

(* Strings are ordinary heap objects of class String with one int field:
   the string-table index. *)
let alloc_string_sid vm sid =
  let cls = Rt.class_by_id vm.reg vm.string_cid in
  let addr = alloc_object vm cls in
  Heap.set vm.heap ~addr ~off:Heap.header_words (Value.of_int sid);
  addr

let alloc_string vm s = alloc_string_sid vm (intern_string vm s)

let sid_of_obj vm addr =
  let sid = Value.to_int (Heap.get vm.heap ~addr ~off:Heap.header_words) in
  if sid < 0 || sid >= vm.n_strings then fatal "bad string id %d" sid;
  sid

let string_of_obj vm addr = vm.strings.(sid_of_obj vm addr)

(* --- threads -------------------------------------------------------- *)

(* A frame record to fill: [enter] sets every field. *)
let spare_frame () =
  {
    f_method = -1;
    code = Machine.no_code;
    pc = 0;
    base = 0;
    obase = 0;
    sp = 0;
    barrier = false;
  }

(* A thread with no frames.  Stacks start small (a fleet runs many VMs
   of several threads each) and double as calls need. *)
let new_thread vm =
  let t =
    {
      tid = vm.next_tid;
      stack = Array.make 64 0;
      frames = Array.init 4 (fun _ -> spare_frame ());
      depth = 0;
      tstate = T_runnable;
      pending = None;
      last_result = 0;
    }
  in
  vm.next_tid <- vm.next_tid + 1;
  vm.threads <- vm.threads @ [ t ];
  t

(* End [t] with [st], [T_done] or [T_trapped]: every thread ends here,
   so [Sched.reap] filters the thread list only after one did. *)
let finish vm t st =
  t.tstate <- st;
  vm.ended <- true

let live_threads vm =
  List.filter
    (fun t -> match t.tstate with T_runnable | T_blocked _ -> true | _ -> false)
    vm.threads

let is_done t = match t.tstate with T_done -> true | _ -> false

let runnable_threads vm =
  List.filter
    (fun t -> match t.tstate with T_runnable -> true | _ -> false)
    vm.threads

(* --- frames --------------------------------------------------------- *)

let top_frame t = t.frames.(t.depth - 1)

(* Apply [f] to [t]'s frames, top first. *)
let iter_frames f t =
  for d = t.depth - 1 downto 0 do
    f t.frames.(d)
  done

(* Make [t]'s stack at least [words] long, by doubling: growth moves no
   index, so frames keep their windows. *)
let grow_stack t words =
  let n = ref (2 * Array.length t.stack) in
  while !n < words do
    n := 2 * !n
  done;
  let a = Array.make !n 0 in
  Array.blit t.stack 0 a 0 (Array.length t.stack);
  t.stack <- a

let grow_frames t =
  let n = Array.length t.frames in
  t.frames <-
    Array.init (2 * n) (fun i -> if i < n then t.frames.(i) else spare_frame ())

(* Push a frame running [code] for [m] whose first [argc] locals are the
   words already at [stack.(base) ..]: zero the rest of its locals and
   reserve its operand stack.  Returns the frame. *)
let enter t (m : Rt.rt_method) (code : Machine.compiled) ~base ~argc =
  let d = t.depth in
  if d = Array.length t.frames then grow_frames t;
  let nlocals =
    if code.Machine.frame_locals > argc then code.Machine.frame_locals
    else argc
  in
  let obase = base + nlocals in
  let limit = obase + code.Machine.max_stack in
  if limit > Array.length t.stack then grow_stack t limit;
  let stack = t.stack in
  for i = base + argc to obase - 1 do
    stack.(i) <- 0
  done;
  let fr = t.frames.(d) in
  fr.f_method <- m.Rt.uid;
  fr.code <- code;
  fr.pc <- 0;
  fr.base <- base;
  fr.obase <- obase;
  fr.sp <- obase;
  fr.barrier <- false;
  t.depth <- d + 1;
  fr

(* Make [t]'s only frame one running [code] for [m] on [args]. *)
let start_frame t m code (args : int array) =
  let argc = Array.length args in
  if argc > Array.length t.stack then grow_stack t argc;
  for i = 0 to argc - 1 do
    t.stack.(i) <- args.(i)
  done;
  t.depth <- 0;
  ignore (enter t m code ~base:0 ~argc : frame)

(* --- misc ----------------------------------------------------------- *)

let next_random vm bound =
  (* xorshift; deterministic across runs for reproducible benchmarks *)
  let x = vm.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  vm.rng <- x land max_int;
  if bound <= 0 then 0 else vm.rng mod bound

let output vm = Buffer.contents vm.out

(* --- per-epoch error attribution ------------------------------------ *)

let bump_epoch_count tbl epoch by =
  let v = match Hashtbl.find_opt tbl epoch with Some v -> v | None -> 0 in
  Hashtbl.replace tbl epoch (max 0 (v + by))

let traps_at_epoch vm epoch =
  match Hashtbl.find_opt vm.traps_by_epoch epoch with Some v -> v | None -> 0

let app_errors_at_epoch vm epoch =
  match Hashtbl.find_opt vm.app_errors_by_epoch epoch with
  | Some v -> v
  | None -> 0

let record_trap vm t msg =
  vm.trap_log <- (t.tid, msg) :: vm.trap_log;
  bump_epoch_count vm.traps_by_epoch vm.reg.Rt.epoch 1

(* Used by the updater when it scrubs a sandboxed transformer trap from
   the carrier's log: the typed abort is the report, so the trap must not
   count against the current epoch's error budget either. *)
let unrecord_trap_count vm =
  bump_epoch_count vm.traps_by_epoch vm.reg.Rt.epoch (-1)

let record_app_error vm =
  bump_epoch_count vm.app_errors_by_epoch vm.reg.Rt.epoch 1
