(* Populated heaps, copied from the paper-reproduction benches so that an
   edit to bench/ cannot move this benchmark.  Objects are written
   straight into the VM heap: how they got there is immaterial to the
   update that transforms them. *)

module VM = Jv_vm

(* --- the paper's Table 1 microbenchmark ------------------------------- *)

(* [Change] and [NoChange] objects, three int fields and three
   always-null references each; the update adds an int field to [Change]
   and the default transformer copies the rest. *)
let table1_v1 =
  {|
class Holder { int x; }
class Change {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class NoChange {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class Root {
  static Change[] cs;
  static NoChange[] ns;
}
class Main {
  static void main() {
    while (true) { Thread.sleep(10); }
  }
}
|}

let table1_v2 =
  Jv_apps.Patching.patch table1_v1
    [
      ( {|class Change {
  int a; int b; int c;|},
        {|class Change {
  int a; int b; int c; int d;|} );
    ]

let static_slot vm ~cls name =
  let reg = vm.VM.State.reg in
  match VM.Rt.find_static_info reg (VM.Rt.require_class reg cls) name with
  | Some si -> si.VM.Rt.si_slot
  | None -> failwith (Printf.sprintf "no static %s.%s" cls name)

let field_offset vm ~cls name =
  match VM.Rt.find_field_info (VM.Rt.require_class vm.VM.State.reg cls) name with
  | Some fi -> fi.VM.Rt.fi_offset
  | None -> failwith (Printf.sprintf "no field %s.%s" cls name)

(* Object i of each class holds a=i, b=2i, c=3i. *)
let table1_populate vm ~n_change ~n_nochange =
  let heap = vm.VM.State.heap in
  let fill cls arr_name count =
    let slot = static_slot vm ~cls:"Root" arr_name in
    let rc = VM.Rt.require_class vm.VM.State.reg cls in
    let off f = field_offset vm ~cls f in
    let oa = off "a" and ob = off "b" and oc = off "c" in
    VM.State.jtoc_set vm slot
      (VM.Value.of_ref (VM.State.alloc_array vm ~len:count));
    for i = 0 to count - 1 do
      let o = VM.State.alloc_object vm rc in
      VM.Heap.set heap ~addr:o ~off:oa (VM.Value.of_int i);
      VM.Heap.set heap ~addr:o ~off:ob (VM.Value.of_int (2 * i));
      VM.Heap.set heap ~addr:o ~off:oc (VM.Value.of_int (3 * i));
      (* re-read the array: the heap is sized so allocation never
         collects here, but a collection would move it *)
      let arr = VM.Value.to_ref (VM.State.jtoc_get vm slot) in
      VM.Heap.set heap ~addr:arr
        ~off:(VM.Heap.array_header_words + i)
        (VM.Value.of_ref o)
    done
  in
  fill "Change" "cs" n_change;
  fill "NoChange" "ns" n_nochange

(* After the update: [Change] object i must hold a=i, b=2i, c=3i, d=0. *)
let table1_holds vm i =
  let heap = vm.VM.State.heap in
  let arr =
    VM.Value.to_ref (VM.State.jtoc_get vm (static_slot vm ~cls:"Root" "cs"))
  in
  let o =
    VM.Value.to_ref
      (VM.Heap.get heap ~addr:arr ~off:(VM.Heap.array_header_words + i))
  in
  let get f =
    VM.Value.to_int
      (VM.Heap.get heap ~addr:o ~off:(field_offset vm ~cls:"Change" f))
  in
  get "a" = i && get "b" = 2 * i && get "c" = 3 * i && get "d" = 0

(* --- ministore records ----------------------------------------------- *)

(* [n] records with keys [base .. base+n-1] pushed onto the [Store]
   bucket chains ([key mod buckets], as Store.find hashes).  meta packs
   flags = i mod 7 and size = i mod 65536, which the 1.0 -> 1.1 split
   transformer must unpack.  All records share one payload string: the
   transformer copies the reference, so its size does not scale the
   measurement. *)
let store_populate vm ~base ~n =
  let heap = vm.VM.State.heap in
  let rec_cls = VM.Rt.require_class vm.VM.State.reg "Rec" in
  let off f = field_offset vm ~cls:"Rec" f in
  let okey = off "key" and ometa = off "meta" and oval = off "val"
  and onext = off "next" in
  let buckets_slot = static_slot vm ~cls:"Store" "buckets" in
  let count_slot = static_slot vm ~cls:"Store" "count" in
  let payload = VM.State.alloc_string vm "bench-payload" in
  let buckets = VM.Value.to_ref (VM.State.jtoc_get vm buckets_slot) in
  (* the array length word is a raw count, not a tagged int *)
  let nb = VM.Heap.array_length heap buckets in
  for i = 0 to n - 1 do
    let key = base + i in
    let o = VM.State.alloc_object vm rec_cls in
    VM.Heap.set heap ~addr:o ~off:okey (VM.Value.of_int key);
    VM.Heap.set heap ~addr:o ~off:ometa
      (VM.Value.of_int (((i mod 7) * 65536) + (i mod 65536)));
    VM.Heap.set heap ~addr:o ~off:oval (VM.Value.of_ref payload);
    let slot = VM.Heap.array_header_words + (key mod nb) in
    VM.Heap.set heap ~addr:o ~off:onext (VM.Heap.get heap ~addr:buckets ~off:slot);
    VM.Heap.set heap ~addr:buckets ~off:slot (VM.Value.of_ref o)
  done;
  let count = VM.Value.to_int (VM.State.jtoc_get vm count_slot) in
  VM.State.jtoc_set vm count_slot (VM.Value.of_int (count + n))

(* The GET reply record i must produce after any schema migration. *)
let store_expected ~base i =
  Printf.sprintf "+OK rec %d m=%d v=bench-payload" (base + i)
    (((i mod 7) * 65536) + (i mod 65536))
