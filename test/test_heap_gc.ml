(* Heap, value encoding, and collector tests — including the property that
   a collection preserves the reachable object graph exactly, and that the
   transforming collection implements the paper's update-log protocol. *)

module VM = Jv_vm
module CF = Jv_classfile

(* --- value encoding -------------------------------------------------------- *)

let encoding_basics () =
  Alcotest.(check bool) "null" true (VM.Value.is_null VM.Value.null);
  Alcotest.(check int) "int round trip" (-42)
    (VM.Value.to_int (VM.Value.of_int (-42)));
  Alcotest.(check bool) "true" true (VM.Value.to_bool (VM.Value.of_bool true));
  Alcotest.(check int) "ref round trip" 17
    (VM.Value.to_ref (VM.Value.of_ref 17));
  Alcotest.(check bool) "ref is not int" false
    (VM.Value.is_int (VM.Value.of_ref 8));
  Alcotest.(check bool) "int is not ref" false
    (VM.Value.is_ref (VM.Value.of_int 8));
  Alcotest.check_raises "ref 0 rejected"
    (Invalid_argument "Value.of_ref: non-positive address") (fun () ->
      ignore (VM.Value.of_ref 0))

let encoding_qcheck =
  QCheck.Test.make ~name:"int encoding is invertible and tagged"
    ~count:1000
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun i ->
      let w = VM.Value.of_int i in
      VM.Value.is_int w
      && (not (VM.Value.is_ref w))
      && VM.Value.to_int w = i)

let ref_qcheck =
  QCheck.Test.make ~name:"ref encoding is invertible and tagged" ~count:1000
    QCheck.(int_range 1 1_000_000_000)
    (fun a ->
      let w = VM.Value.of_ref a in
      VM.Value.is_ref w
      && (not (VM.Value.is_int w))
      && (not (VM.Value.is_null w))
      && VM.Value.to_ref w = a)

(* --- a VM with two tiny classes for heap games ----------------------------- *)

let node_prog =
  {|
class Node {
  int tag;
  Node left;
  Node right;
}
class Main { static void main() { } }
|}

let fresh_vm ?(heap_words = 1 lsl 16) () =
  let vm =
    VM.Vm.create
      ~config:{ VM.State.default_config with VM.State.heap_words }
      ()
  in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program node_prog);
  vm

let node_cls vm = VM.Rt.require_class vm.VM.State.reg "Node"

let set_field vm addr i v = VM.Heap.set vm.VM.State.heap ~addr ~off:(2 + i) v
let get_field vm addr i = VM.Heap.get vm.VM.State.heap ~addr ~off:(2 + i)

(* --- layout ------------------------------------------------------------------ *)

let object_layout () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  Alcotest.(check int) "size" 5 cls.VM.Rt.size_words;
  let a = VM.State.alloc_object vm cls in
  Alcotest.(check int) "class id" cls.VM.Rt.cid
    (VM.Heap.class_id vm.VM.State.heap a);
  (* fields default to null/zero *)
  Alcotest.(check int) "tag default" 0 (get_field vm a 0);
  Alcotest.(check int) "left default" 0 (get_field vm a 1)

let array_layout () =
  let vm = fresh_vm () in
  let a = VM.State.alloc_array vm ~len:7 in
  Alcotest.(check int) "length" 7 (VM.Heap.array_length vm.VM.State.heap a);
  Alcotest.(check int) "array class" vm.VM.State.array_cid
    (VM.Heap.class_id vm.VM.State.heap a)

let string_objects () =
  let vm = fresh_vm () in
  let a = VM.State.alloc_string vm "hello" in
  Alcotest.(check string) "content" "hello" (VM.State.string_of_obj vm a);
  (* interning: same sid for equal strings *)
  let b = VM.State.alloc_string vm "hello" in
  Alcotest.(check int) "same sid"
    (VM.Heap.get vm.VM.State.heap ~addr:a ~off:2)
    (VM.Heap.get vm.VM.State.heap ~addr:b ~off:2)

(* --- plain collection --------------------------------------------------------- *)

(* Build a random object graph from OCaml, collect, and check isomorphism
   by structural walk. *)
let build_graph vm n seed =
  let cls = node_cls vm in
  let rng = ref seed in
  let next m =
    rng := (!rng * 1103515245) + 12345;
    abs !rng mod m
  in
  let addrs = Array.init n (fun _ -> VM.State.alloc_object vm cls) in
  Array.iteri
    (fun i a ->
      set_field vm a 0 (VM.Value.of_int i);
      if next 4 > 0 then
        set_field vm a 1 (VM.Value.of_ref addrs.(next n));
      if next 4 > 0 then
        set_field vm a 2 (VM.Value.of_ref addrs.(next n)))
    addrs;
  (* root: a static slot pointing at node 0, plus an extra-roots array
     covering a few others *)
  let root_arr = Array.map (fun a -> VM.Value.of_ref a) addrs in
  vm.VM.State.extra_roots <- [ root_arr ];
  root_arr

(* structural signature of the reachable graph: DFS with visit order *)
let signature vm root_arr =
  let visited = Hashtbl.create 64 in
  let out = Buffer.create 256 in
  let rec go w =
    if VM.Value.is_null w then Buffer.add_string out "_"
    else begin
      let a = VM.Value.to_ref w in
      match Hashtbl.find_opt visited a with
      | Some id -> Buffer.add_string out (Printf.sprintf "#%d" id)
      | None ->
          let id = Hashtbl.length visited in
          Hashtbl.add visited a id;
          Buffer.add_string out
            (Printf.sprintf "(%d:" (VM.Value.to_int (get_field vm a 0)));
          go (get_field vm a 1);
          Buffer.add_char out ',';
          go (get_field vm a 2);
          Buffer.add_char out ')'
    end
  in
  Array.iter go root_arr;
  Buffer.contents out

let gc_preserves_graph () =
  let vm = fresh_vm () in
  let roots = build_graph vm 200 42 in
  let before = signature vm roots in
  let r1 = VM.Gc.collect vm in
  let mid = signature vm roots in
  Alcotest.(check string) "after one GC" before mid;
  Alcotest.(check int) "no transforms" 0 r1.VM.Gc.transformed_objects;
  ignore (VM.Gc.collect vm);
  Alcotest.(check string) "after two GCs" before (signature vm roots)

let gc_preserves_graph_qcheck =
  QCheck.Test.make ~name:"GC preserves random object graphs" ~count:25
    QCheck.(pair (int_range 1 300) (int_range 0 10_000))
    (fun (n, seed) ->
      let vm = fresh_vm () in
      let roots = build_graph vm n seed in
      let before = signature vm roots in
      ignore (VM.Gc.collect vm);
      String.equal before (signature vm roots))

let gc_reclaims_garbage () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  (* allocate unreachable objects *)
  for _ = 1 to 1000 do
    ignore (VM.State.alloc_object vm cls)
  done;
  let used_before = VM.Heap.words_used vm.VM.State.heap in
  ignore (VM.Gc.collect vm);
  let used_after = VM.Heap.words_used vm.VM.State.heap in
  Alcotest.(check bool) "reclaimed" true (used_after < used_before / 10)

let gc_rewrites_thread_roots () =
  (* a local variable holding a reference must still point at the moved
     object after collection *)
  let vm =
    Helpers.run_source ~rounds:30
      {|
class Box { int v; }
class Main {
  static void main() {
    Box b = new Box();
    b.v = 99;
    int i = 0;
    while (i < 2000) { String s = "x" + i; i = i + 1; }
    Sys.println("v=" + b.v);
  }
}
|}
  in
  let stats = VM.Vm.stats vm in
  Alcotest.(check bool) "collected at least once" true
    (stats.VM.Vm.gc_count >= 0);
  if not (Helpers.contains (VM.Vm.output vm) "v=99") then
    Alcotest.fail "reference broken across GC"

(* --- transforming collection ---------------------------------------------------- *)

let transform_plan_log () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  (* a second class to transmute into, with one extra field *)
  let wide =
    VM.Rt.install_class vm.VM.State.reg
      ~defn:
        {
          CF.Cls.c_name = "WideNode";
          c_super = CF.Types.object_class;
          c_fields =
            [
              { CF.Cls.fd_name = "tag"; fd_ty = CF.Types.TInt;
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "left"; fd_ty = CF.Types.TRef "WideNode";
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "right"; fd_ty = CF.Types.TRef "WideNode";
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "extra"; fd_ty = CF.Types.TInt;
                fd_access = CF.Access.make () };
            ];
          c_methods = [];
        }
      ~alloc_static:(fun () -> VM.State.alloc_jtoc_slot vm)
      ~replace:false
  in
  let roots = build_graph vm 50 7 in
  let plan = Array.make vm.VM.State.reg.VM.Rt.n_classes (-1) in
  plan.(cls.VM.Rt.cid) <- wide.VM.Rt.cid;
  let r = VM.Gc.collect ~plan vm in
  Alcotest.(check int) "all 50 transformed" 50 r.VM.Gc.transformed_objects;
  Alcotest.(check int) "log has 50 pairs" 100
    (2 * VM.Update_log.pairs r.VM.Gc.update_log);
  (* every root now points at a zeroed new-class object; the old copies in
     the log still carry the data *)
  Array.iter
    (fun w ->
      let a = VM.Value.to_ref w in
      Alcotest.(check int) "new class" wide.VM.Rt.cid
        (VM.Heap.class_id vm.VM.State.heap a);
      Alcotest.(check int) "fields zeroed" 0 (get_field vm a 0))
    roots;
  for i = 0 to VM.Update_log.pairs r.VM.Gc.update_log - 1 do
    let old_copy = VM.Update_log.old_copy r.VM.Gc.update_log i in
    let nw = VM.Update_log.new_addr r.VM.Gc.update_log i in
    Alcotest.(check int) "old copy keeps class" cls.VM.Rt.cid
      (VM.Heap.class_id vm.VM.State.heap old_copy);
    Alcotest.(check int) "pair linked" wide.VM.Rt.cid
      (VM.Heap.class_id vm.VM.State.heap nw);
    (* old copies' reference fields were forwarded to the NEW versions *)
    let l = get_field vm old_copy 1 in
    if VM.Value.is_ref l then
      Alcotest.(check int) "old field points at transformed peer"
        wide.VM.Rt.cid
        (VM.Heap.class_id vm.VM.State.heap (VM.Value.to_ref l))
  done

let heap_exhaustion () =
  let vm = fresh_vm ~heap_words:256 () in
  let cls = node_cls vm in
  (* keep everything alive via extra roots so the collection cannot help *)
  let keep = Array.make 64 0 in
  vm.VM.State.extra_roots <- [ keep ];
  match
    for i = 0 to 63 do
      keep.(i) <- VM.Value.of_ref (VM.State.alloc_object vm cls)
    done
  with
  | () -> Alcotest.fail "expected out-of-memory"
  | exception VM.State.Vm_fatal msg ->
      if not (Helpers.contains msg "out of memory") then
        Alcotest.failf "unexpected fatal: %s" msg

(* --- mixed-epoch collection ---------------------------------------------------

   During a lazy update window the heap holds objects of two epochs plus
   the window's own bookkeeping (lazy-forward markers, pristine-copy
   tags), and allocation does not stop.  A collection in that state must
   preserve every epoch tag verbatim, forward objects of both epochs,
   chase lazy-forward markers out of every surviving reference, and keep
   copy tags on retained copies. *)
let mixed_epoch_collection () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  let heap = vm.VM.State.heap in
  let gcw a = VM.Heap.get heap ~addr:a ~off:VM.Heap.off_gc in
  (* two objects born before the epoch bump, one after *)
  let old1 = VM.State.alloc_object vm cls in
  let old2 = VM.State.alloc_object vm cls in
  heap.VM.Heap.epoch <- 7;
  let fresh = VM.State.alloc_object vm cls in
  Alcotest.(check int) "pre-bump tag" 0 (gcw old1);
  Alcotest.(check int) "post-bump tag" 7 (gcw fresh);
  set_field vm old1 0 (VM.Value.of_int 1);
  set_field vm old2 0 (VM.Value.of_int 2);
  set_field vm fresh 0 (VM.Value.of_int 3);
  (* cross-epoch edges both ways *)
  set_field vm fresh 1 (VM.Value.of_ref old1);
  set_field vm old1 1 (VM.Value.of_ref fresh);
  set_field vm old1 2 (VM.Value.of_ref old2);
  (* old2 has been lazily transformed: its replacement is current-epoch,
     the original carries a forward marker, the pristine copy its tag *)
  let repl = VM.State.alloc_object vm cls in
  set_field vm repl 0 (VM.Value.of_int 99);
  let copy = VM.State.alloc_object vm cls in
  set_field vm copy 0 (VM.Value.of_int 2);
  VM.Heap.set heap ~addr:copy ~off:VM.Heap.off_gc
    (VM.Heap.make_copy_tag (gcw old2));
  VM.Heap.set heap ~addr:old2 ~off:VM.Heap.off_gc
    (VM.Heap.make_lazy_fwd repl);
  let roots =
    [|
      VM.Value.of_ref old1;
      VM.Value.of_ref fresh;
      VM.Value.of_ref copy;
      VM.Value.of_ref old2 (* a root that still aims at the marker *);
    |]
  in
  vm.VM.State.extra_roots <- [ roots ];
  ignore (VM.Gc.collect vm);
  let old1' = VM.Value.to_ref roots.(0) in
  let fresh' = VM.Value.to_ref roots.(1) in
  let copy' = VM.Value.to_ref roots.(2) in
  let via_marker = VM.Value.to_ref roots.(3) in
  (* epoch tags survive the copy verbatim, for both epochs *)
  Alcotest.(check int) "old epoch tag preserved" 0 (gcw old1');
  Alcotest.(check int) "new epoch tag preserved" 7 (gcw fresh');
  (* values and cross-epoch edges intact *)
  Alcotest.(check int) "old payload" 1 (VM.Value.to_int (get_field vm old1' 0));
  Alcotest.(check int) "new payload" 3
    (VM.Value.to_int (get_field vm fresh' 0));
  Alcotest.(check int) "new->old edge" old1'
    (VM.Value.to_ref (get_field vm fresh' 1));
  Alcotest.(check int) "old->new edge" fresh'
    (VM.Value.to_ref (get_field vm old1' 1));
  (* every route to the marked object now lands on its replacement: the
     collection chased the marker out of the field and the root alike *)
  Alcotest.(check int) "field chased to replacement" 99
    (VM.Value.to_int (get_field vm (VM.Value.to_ref (get_field vm old1' 2)) 0));
  Alcotest.(check int) "root chased to replacement" 99
    (VM.Value.to_int (get_field vm via_marker 0));
  Alcotest.(check int) "replacement is current-epoch" 7 (gcw via_marker);
  (* the retained pristine copy keeps its tag (and the epoch under it) *)
  Alcotest.(check bool) "copy tag preserved" true
    (VM.Heap.is_copy_tag (gcw copy'));
  Alcotest.(check int) "copy tag epoch" 0
    (VM.Heap.copy_tag_epoch (gcw copy'));
  (* no marker survived the collection anywhere in the heap *)
  let scan = ref 1 in
  let markers = ref 0 in
  while !scan < heap.VM.Heap.free do
    let addr = !scan in
    let c = VM.Rt.class_by_id vm.VM.State.reg (VM.Heap.class_id heap addr) in
    let size =
      if c.VM.Rt.is_array then
        VM.Heap.array_header_words + VM.Heap.array_length heap addr
      else c.VM.Rt.size_words
    in
    if VM.Heap.is_lazy_fwd (gcw addr) then incr markers;
    scan := addr + size
  done;
  Alcotest.(check int) "zero surviving markers" 0 !markers

(* --- collector differential ------------------------------------------------

   A small mixed heap run through the three kinds of collection, with the
   result pinned word for word: a change to how the collector walks the
   heap (scan tables, forwarding, the log's representation) must not move
   a single to-space word, log entry or count.  The heap has classes whose
   int and reference fields interleave (inherited fields first), an
   int-filled and a ref-filled array, a lazily forwarded original, a
   copy-tagged retained copy, and unreachable objects between them. *)

let mixed_prog =
  {|
class Base { int a; Base r; int b; }
class Mid extends Base { Base s; int c; int[] xs; Base[] ys; }
class Leaf extends Mid { int d; Base t; }
class MidV2 extends Base { int c; Base s; int e; Base[] ys; int[] xs; int f; }
class Main { static void main() { } }
|}

let mixed_vm () =
  let vm =
    VM.Vm.create
      ~config:{ VM.State.default_config with VM.State.heap_words = 1 lsl 12 }
      ()
  in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program mixed_prog);
  vm

let cls_of vm name = VM.Rt.require_class vm.VM.State.reg name

(* Set field [f] of the object at [addr] (of class [c]) by name. *)
let setf vm c addr f v =
  match VM.Rt.find_field_info (cls_of vm c) f with
  | Some fi -> VM.Heap.set vm.VM.State.heap ~addr ~off:fi.VM.Rt.fi_offset v
  | None -> Alcotest.failf "no field %s.%s" c f

(* Build the mixed heap; returns the extra-roots array. *)
let build_mixed vm =
  let heap = vm.VM.State.heap in
  let obj c = VM.State.alloc_object vm (cls_of vm c) in
  let i n = VM.Value.of_int n and r a = VM.Value.of_ref a in
  let garbage () = ignore (obj "Leaf") in
  let b1 = obj "Base" in
  garbage ();
  let m1 = obj "Mid" in
  let l1 = obj "Leaf" in
  garbage ();
  let m2 = obj "Mid" (* lazily forwarded below *) in
  let repl = obj "MidV2" in
  let copy = obj "Mid" (* retained update-log copy *) in
  let ints = VM.State.alloc_array vm ~len:5 in
  garbage ();
  let refs = VM.State.alloc_array vm ~len:6 in
  setf vm "Base" b1 "a" (i 1);
  setf vm "Base" b1 "r" (r m1);
  setf vm "Base" b1 "b" (i 2);
  List.iter
    (fun (f, v) -> setf vm "Mid" m1 f v)
    [ ("a", i 3); ("r", r b1); ("b", i 4); ("s", r l1); ("c", i 5);
      ("xs", r ints); ("ys", r refs) ];
  List.iter
    (fun (f, v) -> setf vm "Leaf" l1 f v)
    [ ("a", i 6); ("r", r m2); ("b", i 7); ("c", i 8); ("ys", r refs);
      ("d", i 9); ("t", r copy) ];
  List.iter
    (fun (f, v) -> setf vm "Mid" m2 f v)
    [ ("a", i 10); ("r", r l1); ("c", i 11) ];
  List.iter
    (fun (f, v) -> setf vm "MidV2" repl f v)
    [ ("a", i 10); ("r", r l1); ("c", i 11); ("e", i 12); ("ys", r refs) ];
  List.iter
    (fun (f, v) -> setf vm "Mid" copy f v)
    [ ("a", i 13); ("r", r b1); ("c", i 14); ("xs", r ints) ];
  VM.Heap.set heap ~addr:copy ~off:VM.Heap.off_gc (VM.Heap.make_copy_tag 0);
  VM.Heap.set heap ~addr:m2 ~off:VM.Heap.off_gc (VM.Heap.make_lazy_fwd repl);
  for k = 0 to 4 do
    VM.Heap.set heap ~addr:ints ~off:(VM.Heap.array_header_words + k)
      (i (100 + k))
  done;
  List.iteri
    (fun k v ->
      VM.Heap.set heap ~addr:refs ~off:(VM.Heap.array_header_words + k) v)
    [ r b1; r m1; VM.Value.null; r l1; r m2; r copy ];
  let roots = [| r l1; r b1; r m2; i 77; VM.Value.null |] in
  vm.VM.State.extra_roots <- [ roots ];
  roots

(* The pinned state after a collection: free pointer, a digest of the
   to-space words [1, free), the update log and the two counts. *)
let gc_pin vm (res : VM.Gc.result) =
  let heap = vm.VM.State.heap in
  let words =
    Array.sub heap.VM.Heap.space 1 (heap.VM.Heap.free - 1)
    |> Array.to_list |> List.map string_of_int |> String.concat ","
  in
  Printf.sprintf "free=%d words=%s log=[%s] copied=%d transformed=%d"
    heap.VM.Heap.free
    (Digest.to_hex (Digest.string words))
    (let log = res.VM.Gc.update_log in
     List.init (VM.Update_log.pairs log) (fun k ->
         [ VM.Update_log.old_copy log k; VM.Update_log.new_addr log k ])
     |> List.concat_map (List.map VM.Value.of_ref)
     |> List.map string_of_int |> String.concat ";")
    res.VM.Gc.copied_objects res.VM.Gc.transformed_objects

(* Instances of Mid transform into MidV2. *)
let mixed_plan vm =
  let plan = Array.make vm.VM.State.reg.VM.Rt.n_classes (-1) in
  plan.((cls_of vm "Mid").VM.Rt.cid) <- (cls_of vm "MidV2").VM.Rt.cid;
  plan

let collector_differential () =
  let pin what expected got = Alcotest.(check string) what expected got in
  (* plain collection *)
  let vm = mixed_vm () in
  ignore (build_mixed vm);
  pin "plain"
    "free=63 words=b24f940aad658d82fc0a3607fd08ad91 log=[] copied=7 \
     transformed=0"
    (gc_pin vm (VM.Gc.collect vm));
  (* transforming collection, then the rollback collection that undoes it *)
  let vm = mixed_vm () in
  let roots = build_mixed vm in
  let res = VM.Gc.collect ~plan:(mixed_plan vm) vm in
  pin "transforming"
    "free=85 words=e1b4bd84e17a361bb856e26bc46366db log=[96;74;136;114] \
     copied=7 transformed=2"
    (gc_pin vm res);
  let log = res.VM.Gc.update_log in
  let redirect = VM.Update_log.redirect log in
  (* a lazily forwarded original whose replacement is a transformed
     object: the rollback's redirect applies at the marker's hop *)
  let m3 = VM.State.alloc_object vm (cls_of vm "Mid") in
  VM.Heap.set vm.VM.State.heap ~addr:m3 ~off:VM.Heap.off_gc
    (VM.Heap.make_lazy_fwd (VM.Update_log.new_addr log 0));
  roots.(4) <- VM.Value.of_ref m3;
  pin "rollback"
    "free=63 words=2ef58fa711d8a9445085bac74437389b log=[] copied=7 \
     transformed=0"
    (gc_pin vm (VM.Gc.collect ~redirect vm))

(* --- allocation zeroing and collector invariants ------------------------------

   The allocator hands out zeroed words: it zeroes ahead of the free
   pointer, but no further than the to-space's high-water mark, past which
   nothing was written since the space was clean; a collection zeroes only
   the fields of the new-layout objects a transform plan allocates.  So
   the default-initialization guarantee rests on invariants that must hold
   after every collection and allocation: the active space is zero in
   [free, zeroed) and past its high-water mark, and the idle space is zero
   past its mark.  And the collector forwards only the slots its per-class
   scan table names, so that table must list exactly the reference-typed
   fields of every class. *)

let all_zero (a : int array) lo hi =
  let rec go i = i >= hi || (a.(i) = 0 && go (i + 1)) in
  go lo

let check_zeroing what vm =
  let h = vm.VM.State.heap in
  let space = h.VM.Heap.space and other = h.VM.Heap.other in
  Alcotest.(check bool)
    (what ^ ": [free, zeroed) zero")
    true
    (all_zero space h.VM.Heap.free h.VM.Heap.zeroed);
  Alcotest.(check bool)
    (what ^ ": active space zero past its mark")
    true
    (all_zero space (VM.Heap.high_water h) (Array.length space));
  Alcotest.(check bool)
    (what ^ ": idle space zero past its mark")
    true
    (all_zero other h.VM.Heap.other_mark (Array.length other))

(* Unreachable int arrays full of nonzero words: garbage that dirties
   the space it lands in. *)
let litter vm ~arrays ~len =
  for _ = 1 to arrays do
    let a = VM.State.alloc_array vm ~len in
    for k = 0 to len - 1 do
      VM.Heap.set vm.VM.State.heap ~addr:a
        ~off:(VM.Heap.array_header_words + k)
        (VM.Value.of_int (k + 1))
    done
  done

(* Allocate until the heap is full, in blocks larger than a zeroing chunk,
   then small ones, then single words: every word handed out reads zero,
   and the allocator zeroed exactly the dirty words between the zeroed
   stretch and the mark.  Leaves the heap full, so it ends a VM's test. *)
let check_fill what vm =
  let h = vm.VM.State.heap in
  let dirty_words =
    if h.VM.Heap.zeroed >= h.VM.Heap.mark then 0
    else max 0 (h.VM.Heap.mark - max h.VM.Heap.zeroed h.VM.Heap.free)
  in
  let zeroed_before = h.VM.Heap.zeroed_words in
  let rec fill sizes dirty =
    match sizes with
    | [] -> dirty
    | nwords :: rest -> (
        match VM.Heap.alloc_raw h ~nwords with
        | 0 -> fill rest dirty
        | a ->
            fill sizes (dirty || not (all_zero h.VM.Heap.space a (a + nwords))))
  in
  let dirty = fill [ VM.Heap.zero_chunk + 808; 7; 1 ] false in
  Alcotest.(check int) (what ^ ": heap full") h.VM.Heap.size_words
    h.VM.Heap.free;
  Alcotest.(check bool)
    (what ^ ": words allocated until the heap is full read zero")
    false dirty;
  Alcotest.(check int)
    (what ^ ": the allocator zeroed only dirty words")
    dirty_words
    (h.VM.Heap.zeroed_words - zeroed_before)

(* Every new-layout object of [log] reads all-zero fields. *)
let check_new_objects_zero what vm log =
  let heap = vm.VM.State.heap in
  for k = 0 to VM.Update_log.pairs log - 1 do
    let a = VM.Update_log.new_addr log k in
    let size = VM.Gc.obj_size vm heap.VM.Heap.space a in
    Alcotest.(check bool)
      (Printf.sprintf "%s: new object %d fields zero" what k)
      true
      (all_zero heap.VM.Heap.space (a + VM.Heap.header_words) (a + size))
  done

let zeroing_after_collections () =
  (* the mixed heap through a plain, a transforming and a rollback
     collection, each landing in a space the last one left dirty *)
  let vm = mixed_vm () in
  ignore (build_mixed vm);
  litter vm ~arrays:4 ~len:100;
  ignore (VM.Gc.collect vm);
  check_zeroing "plain" vm;
  litter vm ~arrays:4 ~len:100;
  check_zeroing "allocation after plain" vm;
  let res = VM.Gc.collect ~plan:(mixed_plan vm) vm in
  check_zeroing "transforming" vm;
  check_new_objects_zero "transforming" vm res.VM.Gc.update_log;
  Alcotest.(check int) "transforming: zeroed words are the new fields"
    (res.VM.Gc.transformed_objects
    * ((cls_of vm "MidV2").VM.Rt.size_words - VM.Heap.header_words))
    res.VM.Gc.zeroed_words;
  litter vm ~arrays:4 ~len:100;
  ignore
    (VM.Gc.collect ~redirect:(VM.Update_log.redirect res.VM.Gc.update_log) vm);
  check_zeroing "rollback" vm;
  (* transform again, then undo it by the inverse plan, which allocates
     new-layout objects of the old class *)
  let res = VM.Gc.collect ~plan:(mixed_plan vm) vm in
  check_new_objects_zero "second transforming" vm res.VM.Gc.update_log;
  vm.VM.State.extra_roots <-
    vm.VM.State.extra_roots
    @ [ Array.init (VM.Update_log.pairs res.VM.Gc.update_log) (fun k ->
            VM.Value.of_ref (VM.Update_log.new_addr res.VM.Gc.update_log k))
      ];
  litter vm ~arrays:4 ~len:100;
  let inverse = Array.make vm.VM.State.reg.VM.Rt.n_classes (-1) in
  inverse.((cls_of vm "MidV2").VM.Rt.cid) <- (cls_of vm "Mid").VM.Rt.cid;
  let res = VM.Gc.collect ~plan:inverse vm in
  Alcotest.(check bool) "inverse plan transforms" true
    (res.VM.Gc.transformed_objects > 0);
  check_zeroing "inverse" vm;
  check_new_objects_zero "inverse" vm res.VM.Gc.update_log;
  check_fill "mixed heap" vm;
  (* a heap that shrank: a large live set, then most of it dropped, then
     repeated flips with garbage in between *)
  let vm = fresh_vm () in
  let roots = build_graph vm 2000 3 in
  ignore (VM.Gc.collect vm);
  check_zeroing "large live set" vm;
  vm.VM.State.extra_roots <- [ Array.sub roots 0 10 ];
  ignore (VM.Gc.collect vm);
  check_zeroing "first after shrinking" vm;
  for k = 1 to 6 do
    litter vm ~arrays:(3 * k) ~len:1000;
    check_zeroing (Printf.sprintf "allocation before flip %d" k) vm;
    ignore (VM.Gc.collect vm);
    check_zeroing (Printf.sprintf "flip %d" k) vm
  done;
  check_fill "shrunk heap" vm

let box_src ?(boxes = 3) ~v2 () =
  Printf.sprintf
    {|
class Box { int a; Box next; %s}
class Keeper { static Box head; }
class Main {
  static void main() {
    Box prev = null;
    for (int i = 1; i <= %d; i = i + 1) {
      Box b = new Box();
      b.a = i;
      b.next = prev;
      prev = b;
    }
    Keeper.head = prev;
    for (int j = 0; j < 100000; j = j + 1) { Thread.yieldNow(); }
  }
}
|}
    (if v2 then "int b; " else "")
    boxes

let box_program ?boxes v2 =
  Jv_lang.Compile.compile_program (box_src ?boxes ~v2 ())

let boot_boxes ?boxes ?(rounds = 5) config =
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (box_program ?boxes false);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds;
  vm

let update_boxes ?boxes ?(overrides = []) ~tag vm =
  Jvolve_core.Jvolve.succeeded
    (Jvolve_core.Jvolve.update_now ~timeout_rounds:100 vm
       (Jvolve_core.Spec.make ~object_overrides:overrides ~version_tag:tag
          ~old_program:(box_program ?boxes false)
          ~new_program:(box_program ?boxes true) ()))

(* The boxes from [Keeper.head]: each has [a] = boxes, ..., 2, 1 in
   order and its new field [b] reads zero. *)
let check_boxes ?(boxes = 3) what vm =
  let reg = vm.VM.State.reg in
  let heap = vm.VM.State.heap in
  let box = VM.Rt.require_class reg "Box" in
  let off f = (Option.get (VM.Rt.find_field_info box f)).VM.Rt.fi_offset in
  let si =
    Option.get
      (VM.Rt.find_static_info reg (VM.Rt.require_class reg "Keeper") "head")
  in
  let rec walk w acc =
    if VM.Value.is_null w then List.rev acc
    else
      let a = VM.Value.to_ref w in
      let get f = VM.Heap.get heap ~addr:a ~off:(off f) in
      walk (get "next") ((VM.Value.to_int (get "a"), get "b") :: acc)
  in
  Alcotest.(check (list (pair int int)))
    (what ^ ": boxes keep a, new field b zero")
    (List.init boxes (fun k -> (boxes - k, 0)))
    (walk (VM.State.jtoc_get vm si.VM.Rt.si_slot) [])

(* Each Box transformer allocates more than a semi-space holds, so
   collections run nested inside the transformers; a trapping variant
   makes the update roll back through a redirect collection. *)
let zeroing_through_updates () =
  let vm = boot_boxes Helpers.test_config in
  litter vm ~arrays:20 ~len:2000;
  let churn =
    {|
    to.a = from.a;
    to.next = from.next;
    int[] junk = null;
    for (int k = 0; k < 8; k = k + 1) { junk = new int[40000]; junk[k] = k + 1; }
|}
  in
  let nested = ref 0 in
  let saved = !VM.State.gc_hook in
  VM.State.gc_hook :=
    (fun vm ->
      saved vm;
      incr nested;
      check_zeroing "nested collection" vm);
  Fun.protect
    ~finally:(fun () -> VM.State.gc_hook := saved)
    (fun () ->
      let trap = churn ^ "    int[] z = new int[1];\n    z[5] = 0;\n" in
      Alcotest.(check bool) "trapping transformer rolls back" false
        (update_boxes ~overrides:[ ("Box", trap) ] ~tag:"1" vm);
      check_zeroing "after the rollback" vm;
      let before = !nested in
      Alcotest.(check bool) "update applies" true
        (update_boxes ~overrides:[ ("Box", churn) ] ~tag:"2" vm);
      check_zeroing "after the update" vm;
      check_boxes "after the update" vm;
      Alcotest.(check bool) "collections ran inside transformers" true
        (before > 0 && !nested > before));
  check_fill "after the update" vm

(* Collections while a lazy window is open: the window's transforms
   allocate their new-layout objects through the allocator. *)
let zeroing_in_lazy_window () =
  let vm =
    boot_boxes
      {
        Helpers.test_config with
        VM.State.lazy_update = true;
        VM.State.lazy_sweep_budget = 1;
      }
  in
  litter vm ~arrays:20 ~len:2000;
  ignore (VM.Vm.gc vm);
  litter vm ~arrays:20 ~len:2000;
  Alcotest.(check bool) "lazy update commits" true (update_boxes ~tag:"lz" vm);
  Alcotest.(check bool) "window open" true (vm.VM.State.lazy_info <> None);
  for k = 1 to 3 do
    litter vm ~arrays:10 ~len:2000;
    ignore (VM.Vm.gc vm);
    check_zeroing (Printf.sprintf "window collection %d" k) vm
  done;
  Alcotest.(check bool) "window drains" true
    (Result.is_ok (VM.State.drain_window vm));
  check_zeroing "after the drain" vm;
  check_boxes "after the drain" vm;
  ignore (VM.Vm.gc vm);
  check_zeroing "after the window" vm;
  check_fill "after the window" vm

(* Two VMs with the same live set but different garbage since their last
   collection: their update collections zero the same words, the
   transformed objects' fields, whatever the garbage. *)
let update_zeroes_transformed_only () =
  let update_zeroed ~garbage =
    let vm = boot_boxes Helpers.test_config in
    ignore (VM.Vm.gc vm);
    litter vm ~arrays:garbage ~len:1000;
    Alcotest.(check bool) "update applies" true (update_boxes ~tag:"z" vm);
    check_boxes "after the update" vm;
    let zeroed =
      List.filter_map
        (fun (e : Jv_obs.Obs.event) ->
          if e.Jv_obs.Obs.ev_name <> "gc.transform.done" then None
          else
            match List.assoc_opt "zeroed" e.Jv_obs.Obs.ev_fields with
            | Some (Jv_obs.Obs.Int n) -> Some n
            | _ -> None)
        (Jv_obs.Obs.events (VM.Vm.obs vm))
    in
    (zeroed, vm)
  in
  let clean, vm = update_zeroed ~garbage:0 in
  let dirty, _ = update_zeroed ~garbage:100 in
  let box = VM.Rt.require_class vm.VM.State.reg "Box" in
  Alcotest.(check (list int)) "zeroed: the three boxes' fields"
    [ 3 * (box.VM.Rt.size_words - VM.Heap.header_words) ]
    clean;
  Alcotest.(check (list int)) "same zeroed words with garbage" clean dirty;
  Alcotest.(check bool) "reported as a metric" true
    (match Jv_obs.Obs.find_histogram (VM.Vm.obs vm) "vm.gc.zeroed_words" with
    | Some h -> Jv_obs.Metrics.sum h = float_of_int (List.hd clean)
    | None -> false)

(* --- a heap that commits what it uses --------------------------------------

   [heap_words] is a cap: both semi-spaces start [Heap.floor_words] long
   and grow straight to the cap the first time an allocation, or a
   collector copy, runs past a space's end.  Growth keeps every address,
   and a collection for allocation pressure fires only when the cap is
   full, so collections fall where they did when the cap was committed
   up front. *)

let floor = VM.Heap.floor_words

(* The committed words as [Vm.stats] and the gauge report them; the two
   must agree. *)
let committed what vm =
  let words = (VM.Vm.stats vm).VM.Vm.heap_committed_words in
  Alcotest.(check (float 0.0))
    (what ^ ": gauge matches stats") (float_of_int words)
    (Jv_obs.Obs.gauge_value (VM.Vm.obs vm) "vm.heap.committed_words");
  words

(* Unreachable nodes one at a time through a cap of four floors, until
   it has filled twice over: the heap grows once, at the first allocation
   past the floor, and collects exactly when the cap is full. *)
let heap_grows_once_to_cap () =
  let cap = 4 * floor in
  let vm = fresh_vm ~heap_words:cap () in
  let heap = vm.VM.State.heap in
  let cls = node_cls vm in
  let n = cls.VM.Rt.size_words in
  Alcotest.(check int) "starts at a floor per space" (2 * floor)
    (committed "at create" vm);
  let growths = ref [] and collections = ref [] in
  for _ = 1 to 9 * cap / (4 * n) do
    let before = committed "before" vm in
    let free = heap.VM.Heap.free and gcs = heap.VM.Heap.gc_count in
    ignore (VM.State.alloc_object vm cls);
    if committed "after" vm <> before then growths := free :: !growths;
    if heap.VM.Heap.gc_count <> gcs then collections := free :: !collections
  done;
  (match !growths with
  | [ free ] ->
      Alcotest.(check bool) "grew at the first allocation past the floor"
        true
        (free <= floor && free + n > floor)
  | l -> Alcotest.failf "grew %d times, expected once" (List.length l));
  Alcotest.(check int) "commits the cap per space" (2 * cap)
    (committed "filled" vm);
  Alcotest.(check (list int)) "both spaces at the cap" [ cap; cap ]
    [ Array.length heap.VM.Heap.space; Array.length heap.VM.Heap.other ];
  Alcotest.(check int) "collected twice" 2 (List.length !collections);
  List.iter
    (fun free ->
      Alcotest.(check bool) "collected only with the cap full" true
        (free + n > cap))
    !collections

(* A native that reserves with [State.ensure_free] and then allocates
   across the floor: [String.split]'s array and its 2500 strings need
   10k words, so the space is swapped for the cap mid-sequence, and
   every part must still read back intact. *)
let native_allocates_across_floor () =
  let parts = 2500 in
  let literal = String.concat "," (List.init parts (Printf.sprintf "p%d")) in
  let src =
    Printf.sprintf
      {|
class Main {
  static void main() {
    String[] parts = "%s".split(",", 0);
    int bad = 0;
    for (int i = 0; i < parts.length; i = i + 1) {
      if (!parts[i].equals("p" + i)) { bad = bad + 1; }
    }
    Sys.println("" + parts.length + " parts, " + bad + " bad");
  }
}
|}
      literal
  in
  let vm = VM.Vm.create ~config:Helpers.test_config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program src);
  Alcotest.(check int) "booted at a floor per space" (2 * floor)
    (committed "booted" vm);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  ignore (VM.Vm.run_to_quiescence vm);
  Alcotest.(check string) "every part intact"
    (Printf.sprintf "%d parts, 0 bad\n" parts)
    (VM.Vm.output vm);
  Alcotest.(check int) "no collection" 0 (VM.Vm.stats vm).VM.Vm.gc_count;
  Alcotest.(check int) "grew to the cap"
    (2 * Helpers.test_config.VM.State.heap_words)
    (committed "after the split" vm)

(* A floor-size VM whose update transforms 1200 boxes: their 4.8k live
   words fit the floor, but the update collection's new-layout objects
   and old copies (10.8k words) do not, so the collector grows its
   to-space to the cap mid-collection. *)
let collector_grows_to_space () =
  let boxes = 1200 in
  let vm = boot_boxes ~boxes ~rounds:50 Helpers.test_config in
  let heap = vm.VM.State.heap in
  Alcotest.(check int) "boxes fit the floor" (2 * floor)
    (committed "before the update" vm);
  Alcotest.(check bool) "update applies" true (update_boxes ~boxes ~tag:"g" vm);
  check_boxes ~boxes "after the update" vm;
  Alcotest.(check bool) "heap verifies" true
    (VM.Heapverify.run vm).VM.Heapverify.hv_ok;
  let cap = Helpers.test_config.VM.State.heap_words in
  Alcotest.(check (list int)) "the to-space grew to the cap" [ floor; cap ]
    (List.sort compare
       [ Array.length heap.VM.Heap.space; Array.length heap.VM.Heap.other ]);
  Alcotest.(check int) "commits one floor and one cap" (cap + floor)
    (committed "after the update" vm);
  ignore (VM.Gc.collect vm);
  check_boxes ~boxes "after a later collection" vm;
  check_zeroing "after a later collection" vm

(* Every class the four app ladders load — each rung's old and new
   versions and its transformer class — scans exactly its
   reference-typed fields, and the heap each rung leaves verifies after a
   collection. *)
let ref_offsets_match_types () =
  let module A = Jv_apps in
  let expected (c : VM.Rt.rt_class) =
    Array.to_list c.VM.Rt.instance_fields
    |> List.filter (fun (fi : VM.Rt.field_info) ->
           CF.Types.is_reference fi.VM.Rt.fi_ty)
    |> List.map (fun (fi : VM.Rt.field_info) -> fi.VM.Rt.fi_offset)
  in
  let classes = ref 0 in
  List.iter
    (fun (d : A.App.t) ->
      List.iter
        (fun ((from_version, _), (to_version, _)) ->
          let vm = A.App.boot d (A.App.compile d ~version:from_version) in
          VM.Vm.run vm ~rounds:20;
          let spec =
            A.App.spec d ~from_version ~to_version
              ~old_program:(A.App.compile d ~version:from_version)
              ~new_program:(A.App.compile d ~version:to_version)
          in
          let where =
            Printf.sprintf "%s %s->%s" d.A.App.pr_name from_version
              to_version
          in
          Alcotest.(check bool) (where ^ ": applied") true
            (Jvolve_core.Jvolve.succeeded
               (Jvolve_core.Jvolve.update_now ~timeout_rounds:400 vm spec));
          VM.Rt.iter_classes vm.VM.State.reg (fun c ->
              incr classes;
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s reference offsets" where c.VM.Rt.name)
                (expected c)
                (Array.to_list c.VM.Rt.ref_offsets));
          ignore (VM.Gc.collect vm);
          Alcotest.(check bool) (where ^ ": heap verifies") true
            (VM.Heapverify.run vm).VM.Heapverify.hv_ok)
        (A.Patching.update_pairs d.A.App.pr_versioned))
    A.App.all;
  Alcotest.(check bool) "classes checked" true (!classes > 0)

let suite =
  [
    Alcotest.test_case "value encoding" `Quick encoding_basics;
    QCheck_alcotest.to_alcotest encoding_qcheck;
    QCheck_alcotest.to_alcotest ref_qcheck;
    Alcotest.test_case "object layout" `Quick object_layout;
    Alcotest.test_case "array layout" `Quick array_layout;
    Alcotest.test_case "string objects" `Quick string_objects;
    Alcotest.test_case "gc preserves graph" `Quick gc_preserves_graph;
    QCheck_alcotest.to_alcotest gc_preserves_graph_qcheck;
    Alcotest.test_case "gc reclaims garbage" `Quick gc_reclaims_garbage;
    Alcotest.test_case "gc rewrites thread roots" `Quick
      gc_rewrites_thread_roots;
    Alcotest.test_case "transform plan and update log" `Quick
      transform_plan_log;
    Alcotest.test_case "mixed-epoch collection" `Quick mixed_epoch_collection;
    Alcotest.test_case "heap exhaustion" `Quick heap_exhaustion;
    Alcotest.test_case "collector differential" `Quick collector_differential;
    Alcotest.test_case "allocation zeroed after collections" `Quick
      zeroing_after_collections;
    Alcotest.test_case "allocation zeroed through updates" `Quick
      zeroing_through_updates;
    Alcotest.test_case "allocation zeroed in a lazy window" `Quick
      zeroing_in_lazy_window;
    Alcotest.test_case "update collection zeroes transformed fields only"
      `Quick update_zeroes_transformed_only;
    Alcotest.test_case "scan tables match field types" `Quick
      ref_offsets_match_types;
    Alcotest.test_case "heap grows once to its cap" `Quick
      heap_grows_once_to_cap;
    Alcotest.test_case "native allocates across the floor" `Quick
      native_allocates_across_floor;
    Alcotest.test_case "collector grows a short to-space" `Quick
      collector_grows_to_space;
  ]
