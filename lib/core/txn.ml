(* The update transaction: snapshot everything an update mutates, restore
   it all on abort, and audit that the restoration is exact.

   The paper's safety claim (§3.3-3.4) is all-or-nothing: an update either
   completes atomically at a DSU safe point or the program keeps running
   the old version.  [Updater.apply] brackets the whole installation in
   one of these transactions, so any mid-flight failure (transformer
   trap, cyclic transformer set, injected fault) rolls the VM back
   instead of leaving a half-installed class table.

   What the snapshot covers, exploiting that updates only *append* to the
   registry and mutate a handful of fields in place:

   - registry shape: [n_classes]/[n_methods] (installation appends new
     class and method ids sequentially, so rollback is truncation) and
     the resolution [epoch];
   - per existing class: [name] and [valid] (renaming superseded classes
     is the only per-class mutation);
   - per existing method: bytecode, locals count, compiled code,
     invocation profile and validity (body swaps + code invalidation);
   - the [by_name] table (re-keyed by renames and installs);
   - the JTOC statics area: [jtoc_n] plus a copy of the live slots.  The
     copy is registered as an {e extra GC root} while the transaction is
     open, so every collection (the transforming one, and any nested
     plain collection the transformer phase triggers) forwards the saved
     references — restoring them later always yields live addresses.

   Heap rollback: the transforming collection replaced every instance of
   an updated class with a new-layout object, keeping the old copy in
   the update log.  Old copies are pristine — transformers read the old
   object and write the new one — so aborting after that collection runs
   a plain GC with a {e redirect} (new addr → old copy, decoded from the
   log): every surviving reference moves back to the old copy and the
   new objects become garbage (see [Gc.collect ?redirect]).
   [Updater.rollback] runs that collection between the two restore steps
   here: statics first, metadata after.

   Outside the transaction, by design: program output already printed,
   and heap mutations performed by application-visible code the update
   itself ran (added-class <clinit>s) — the paper's model (§3.4) gives
   the same answer, as class initializers run before the update commits
   its heap pass. *)

module State = Jv_vm.State
module Rt = Jv_vm.Rt
module Gc = Jv_vm.Gc
module Update_log = Jv_vm.Update_log
module Machine = Jv_vm.Machine
module CF = Jv_classfile

type class_snap = { cs_name : string; cs_valid : bool }

type method_snap = {
  ms_bytecode : CF.Instr.t array option;
  ms_max_locals : int;
  ms_base : Machine.compiled option;
  ms_opt : Machine.compiled option;
  ms_invocations : int;
  ms_valid : bool;
}

type t = {
  tx_n_classes : int;
  tx_n_methods : int;
  tx_epoch : int;
  tx_classes : class_snap array; (* index = cid *)
  tx_methods : method_snap array; (* index = uid *)
  tx_by_name : (string, int) Hashtbl.t;
  tx_jtoc : int array; (* live slots; registered as an extra root *)
  tx_jtoc_n : int;
}

let capture (vm : State.t) : t =
  let reg = vm.State.reg in
  let classes =
    Array.init reg.Rt.n_classes (fun cid ->
        let c = reg.Rt.classes.(cid) in
        { cs_name = c.Rt.name; cs_valid = c.Rt.valid })
  in
  let methods =
    Array.init reg.Rt.n_methods (fun uid ->
        let m = reg.Rt.methods.(uid) in
        {
          ms_bytecode = m.Rt.bytecode;
          ms_max_locals = m.Rt.max_locals;
          ms_base = m.Rt.base_code;
          ms_opt = m.Rt.opt_code;
          ms_invocations = m.Rt.invocations;
          ms_valid = m.Rt.m_valid;
        })
  in
  let jtoc = Array.sub vm.State.jtoc 0 vm.State.jtoc_n in
  let txn =
    {
      tx_n_classes = reg.Rt.n_classes;
      tx_n_methods = reg.Rt.n_methods;
      tx_epoch = reg.Rt.epoch;
      tx_classes = classes;
      tx_methods = methods;
      tx_by_name = Hashtbl.copy reg.Rt.by_name;
      tx_jtoc = jtoc;
      tx_jtoc_n = vm.State.jtoc_n;
    }
  in
  (* keep the saved statics' referents alive and their addresses current
     across every collection while the transaction is open *)
  vm.State.extra_roots <- txn.tx_jtoc :: vm.State.extra_roots;
  txn

let release vm txn =
  vm.State.extra_roots <-
    List.filter (fun a -> a != txn.tx_jtoc) vm.State.extra_roots

(* The update applied: the snapshot root goes, and so does the in-flight
   update log (unless a guard window retains it). *)
let commit vm txn =
  release vm txn;
  vm.State.update_log <- None

(* Commit, but move a non-empty in-flight log to [State.guard_retained]
   for a post-commit guard window.  Its pristine old copies are the
   inverse-update replay's source should the guard's error budget trip;
   until the window closes they are also the heap verifier's
   [guard_pending] allowance. *)
let commit_retaining vm txn =
  (match vm.State.update_log with
  | Some log when Update_log.pairs log > 0 ->
      vm.State.guard_retained <- Some log
  | _ -> ());
  commit vm txn

(* Close the guard window: drop the retained log and collect, so the old
   copies finally die and subsequent heap verifications see no
   superseded objects at all.  A lazy window still draining keeps its
   own log in flight — residual transforms still append to it and a late
   abort still replays it — so nothing is collected then; the window's
   finalize does that. *)
let release_retained vm =
  match vm.State.guard_retained with
  | None -> ()
  | Some log -> (
      vm.State.guard_retained <- None;
      match vm.State.update_log with
      | Some l when l == log -> ()
      | _ -> ignore (Gc.collect vm))

(* Restore the statics: the snapshot rode through every collection as an
   extra root, so its slots hold current addresses.  Slots the update
   appended are zeroed, and the snapshot root goes. *)
let restore_statics (vm : State.t) txn =
  Array.blit txn.tx_jtoc 0 vm.State.jtoc 0 txn.tx_jtoc_n;
  for slot = txn.tx_jtoc_n to vm.State.jtoc_n - 1 do
    vm.State.jtoc.(slot) <- 0
  done;
  vm.State.jtoc_n <- txn.tx_jtoc_n;
  release vm txn

(* Is the metadata bit-for-bit the snapshot again?  [Error why] names
   the first discrepancy.  The chaos bench reports this as its "0
   half-installed class tables" criterion. *)
let audit (vm : State.t) txn : (unit, string) result =
  let reg = vm.State.reg in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if reg.Rt.n_classes <> txn.tx_n_classes then
    err "class table: %d classes, expected %d" reg.Rt.n_classes
      txn.tx_n_classes
  else if reg.Rt.n_methods <> txn.tx_n_methods then
    err "method table: %d methods, expected %d" reg.Rt.n_methods
      txn.tx_n_methods
  else if reg.Rt.epoch <> txn.tx_epoch then
    err "epoch %d, expected %d" reg.Rt.epoch txn.tx_epoch
  else if vm.State.jtoc_n <> txn.tx_jtoc_n then
    err "jtoc: %d slots, expected %d" vm.State.jtoc_n txn.tx_jtoc_n
  else begin
    let bad = ref None in
    Array.iteri
      (fun cid cs ->
        if !bad = None then begin
          let c = reg.Rt.classes.(cid) in
          if not (String.equal c.Rt.name cs.cs_name) then
            bad :=
              Some
                (Printf.sprintf "class %d named %s, expected %s" cid c.Rt.name
                   cs.cs_name)
          else if c.Rt.valid <> cs.cs_valid then
            bad := Some (Printf.sprintf "class %s validity flipped" c.Rt.name)
        end)
      txn.tx_classes;
    Array.iteri
      (fun uid ms ->
        if !bad = None then begin
          let m = reg.Rt.methods.(uid) in
          if m.Rt.bytecode != ms.ms_bytecode then
            bad := Some (Printf.sprintf "method %d bytecode differs" uid)
          else if m.Rt.m_valid <> ms.ms_valid then
            bad := Some (Printf.sprintf "method %d validity flipped" uid)
        end)
      txn.tx_methods;
    if !bad = None && Hashtbl.length reg.Rt.by_name <> Hashtbl.length txn.tx_by_name
    then bad := Some "name table size differs";
    if !bad = None then
      Hashtbl.iter
        (fun name cid ->
          if !bad = None && Hashtbl.find_opt reg.Rt.by_name name <> Some cid
          then bad := Some (Printf.sprintf "name table entry %s differs" name))
        txn.tx_by_name;
    match !bad with None -> Ok () | Some why -> Error why
  end

(* Exact metadata restoration: truncate the appended ids, put back every
   saved mutable field, rebuild the name table — then audit the result
   (no later rollback step touches metadata). *)
let restore_metadata (vm : State.t) txn =
  let reg = vm.State.reg in
  for cid = txn.tx_n_classes to reg.Rt.n_classes - 1 do
    reg.Rt.classes.(cid) <- Rt.dummy_class
  done;
  for uid = txn.tx_n_methods to reg.Rt.n_methods - 1 do
    reg.Rt.methods.(uid) <- Rt.dummy_method
  done;
  reg.Rt.n_classes <- txn.tx_n_classes;
  reg.Rt.n_methods <- txn.tx_n_methods;
  Array.iteri
    (fun cid cs ->
      let c = reg.Rt.classes.(cid) in
      c.Rt.name <- cs.cs_name;
      c.Rt.valid <- cs.cs_valid)
    txn.tx_classes;
  Array.iteri
    (fun uid ms ->
      let m = reg.Rt.methods.(uid) in
      m.Rt.bytecode <- ms.ms_bytecode;
      m.Rt.max_locals <- ms.ms_max_locals;
      m.Rt.base_code <- ms.ms_base;
      m.Rt.opt_code <- ms.ms_opt;
      m.Rt.invocations <- ms.ms_invocations;
      m.Rt.m_valid <- ms.ms_valid)
    txn.tx_methods;
  Hashtbl.reset reg.Rt.by_name;
  Hashtbl.iter (Hashtbl.replace reg.Rt.by_name) txn.tx_by_name;
  reg.Rt.epoch <- txn.tx_epoch;
  audit vm txn
