(* Native method implementations.

   GC-safety rule for natives: decode every reference argument into OCaml
   data *before* the first heap allocation, and when allocating several
   objects, [State.ensure_free] the total size up front so later
   allocations in the sequence cannot trigger a collection that moves the
   earlier ones.  (A native's arguments lie on the calling thread's stack,
   just above its frame's operands, where the collector does not look
   while the native first runs (a retry of a blocked call finds them
   still rooted as the frame's top operands); what a native holds in OCaml locals is
   invisible to it too, exactly as in a real VM without handle
   support.)  An allocation may still grow the
   heap's semi-spaces to their cap: that keeps every address but swaps
   [heap.space] for a new array, so hold addresses across an allocation,
   never the array; [Heap.get]/[Heap.set] always reach the current one. *)

module Simnet = Jv_simnet.Simnet

(* The sid of a String argument; [str_exn] reads its contents. *)
let sid_exn vm w what =
  if Value.is_null w then
    raise (Interp.Trap (Printf.sprintf "null string in %s" what))
  else State.sid_of_obj vm (Value.to_ref w)

let str_exn vm w what = vm.State.strings.(sid_exn vm w what)

let ret_string vm s = State.N_val (Value.of_ref (State.alloc_string vm s))

(* [p] occurs in [s] at [i]: compared in place, char by char. *)
let matches_at s i p =
  let m = String.length p in
  let rec go k =
    k = m
    || Char.equal (String.unsafe_get s (i + k)) (String.unsafe_get p k)
       && go (k + 1)
  in
  i >= 0 && i + m <= String.length s && go 0

(* The first position >= [i] where [p] occurs in [s], or -1. *)
let find_from s p i =
  let last = String.length s - String.length p in
  let rec go i =
    if i > last then -1 else if matches_at s i p then i else go (i + 1)
  in
  go i

(* --- String ---------------------------------------------------------- *)

let string_natives vm0 =
  ignore vm0;
  [
    ( "String.length()I",
      fun vm _t args at ->
        State.N_val (Value.of_int (String.length (str_exn vm args.(at) "length")))
    );
    ( "String.concat(LString;)LString;",
      fun vm _t args at ->
        let a = sid_exn vm args.(at) "concat" in
        let b = sid_exn vm args.(at + 1) "concat" in
        State.N_val
          (Value.of_ref (State.alloc_string_sid vm (State.concat_sid vm a b)))
    );
    ( "String.equals(LString;)Z",
      fun vm _t args at ->
        let a = sid_exn vm args.(at) "equals" in
        if Value.is_null args.(at + 1) then State.N_val Value.false_w
        else State.N_val (Value.of_bool (a = sid_exn vm args.(at + 1) "equals")) );
    ( "String.substring(II)LString;",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "substring" in
        let a = Value.to_int args.(at + 1) and b = Value.to_int args.(at + 2) in
        if a < 0 || b > String.length s || a > b then
          State.N_trap
            (Printf.sprintf "substring(%d,%d) out of range (length %d)" a b
               (String.length s))
        else ret_string vm (String.sub s a (b - a)) );
    ( "String.indexOf(LString;)I",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "indexOf" in
        let p = str_exn vm args.(at + 1) "indexOf" in
        State.N_val (Value.of_int (find_from s p 0)) );
    ( "String.charAt(I)I",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "charAt" in
        let i = Value.to_int args.(at + 1) in
        if i < 0 || i >= String.length s then
          State.N_trap (Printf.sprintf "charAt(%d) out of range" i)
        else State.N_val (Value.of_int (Char.code s.[i])) );
    ( "String.split(LString;I)[LString;",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "split" in
        let sep = str_exn vm args.(at + 1) "split" in
        let limit = Value.to_int args.(at + 2) in
        let n = String.length s and m = String.length sep in
        (* at most [limit] parts when [limit] > 0; the last part is the
           rest of [s] *)
        let rec parts start count =
          let j =
            if m = 0 || (limit > 0 && count >= limit) then -1
            else find_from s sep start
          in
          if j < 0 then [ String.sub s start (n - start) ]
          else String.sub s start (j - start) :: parts (j + m) (count + 1)
        in
        let parts = parts 0 1 in
        (* reserve everything up front: the array, then one String object
           per part (see the GC-safety rule above) *)
        let nparts = List.length parts in
        let words =
          Heap.array_header_words + nparts
          + (nparts * (Heap.header_words + 1))
        in
        State.ensure_free vm words;
        let arr = State.alloc_array vm ~len:nparts in
        List.iteri
          (fun i p ->
            let sobj = State.alloc_string vm p in
            Heap.set vm.State.heap ~addr:arr
              ~off:(Heap.array_header_words + i)
              (Value.of_ref sobj))
          parts;
        State.N_val (Value.of_ref arr) );
    ( "String.startsWith(LString;)Z",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "startsWith" in
        let p = str_exn vm args.(at + 1) "startsWith" in
        State.N_val (Value.of_bool (matches_at s 0 p)) );
    ( "String.endsWith(LString;)Z",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "endsWith" in
        let p = str_exn vm args.(at + 1) "endsWith" in
        State.N_val
          (Value.of_bool
             (matches_at s (String.length s - String.length p) p)) );
    ( "String.trim()LString;",
      fun vm _t args at -> ret_string vm (String.trim (str_exn vm args.(at) "trim"))
    );
    ( "String.contains(LString;)Z",
      fun vm _t args at ->
        let s = str_exn vm args.(at) "contains" in
        let p = str_exn vm args.(at + 1) "contains" in
        State.N_val (Value.of_bool (find_from s p 0 >= 0)) );
    ( "String.toInt()I",
      fun vm _t args at ->
        let s = String.trim (str_exn vm args.(at) "toInt") in
        match int_of_string_opt s with
        | Some i -> State.N_val (Value.of_int i)
        | None -> State.N_val (Value.of_int 0) );
    ( "String.toLowerCase()LString;",
      fun vm _t args at ->
        ret_string vm
          (String.lowercase_ascii (str_exn vm args.(at) "toLowerCase")) );
    ( "String.ofInt(I)LString;",
      fun vm _t args at -> ret_string vm (string_of_int (Value.to_int args.(at)))
    );
  ]

(* --- Sys -------------------------------------------------------------- *)

let sys_natives =
  [
    ( "Sys.print(LString;)V",
      fun vm _t args at ->
        Buffer.add_string vm.State.out (str_exn vm args.(at) "print");
        State.N_void );
    ( "Sys.println(LString;)V",
      fun vm _t args at ->
        Buffer.add_string vm.State.out (str_exn vm args.(at) "println");
        Buffer.add_char vm.State.out '\n';
        State.N_void );
    ("Sys.time()I", fun vm _t _ _ -> State.N_val (Value.of_int vm.State.ticks));
    ( "Sys.fail(LString;)V",
      fun vm _t args at -> State.N_trap ("Sys.fail: " ^ str_exn vm args.(at) "fail")
    );
    ( "Sys.random(I)I",
      fun vm _t args at ->
        State.N_val (Value.of_int (State.next_random vm (Value.to_int args.(at))))
    );
  ]

(* --- Net -------------------------------------------------------------- *)

(* Connection handles: positive = the server side of a connection (from
   [Net.accept]); negative = the client side (from [Net.connectLoopback],
   an in-VM client talking to another service in the same VM). *)
let net_natives =
  [
    ( "Net.listen(I)I",
      fun vm _t args at ->
        match Simnet.listen vm.State.net ~port:(Value.to_int args.(at)) with
        | id -> State.N_val (Value.of_int id)
        | exception Simnet.Net_error e -> State.N_trap e );
    ( "Net.accept(I)I",
      fun vm _t args at ->
        let lid = Value.to_int args.(at) in
        match Simnet.accept vm.State.net ~listener_id:lid with
        | Some conn -> State.N_val (Value.of_int conn)
        | None -> State.N_block (State.B_accept lid)
        | exception Simnet.Net_error e -> State.N_trap e );
    ( "Net.connectLoopback(I)I",
      fun vm _t args at ->
        match Simnet.connect vm.State.net ~port:(Value.to_int args.(at)) with
        | Some cid -> State.N_val (Value.of_int (-cid))
        | None -> State.N_val (Value.of_int 0) );
    ( "Net.recvLine(I)LString;",
      fun vm _t args at ->
        let cid = Value.to_int args.(at) in
        let r =
          if cid < 0 then Simnet.client_recv vm.State.net ~conn_id:(-cid)
          else Simnet.recv_line vm.State.net ~conn_id:cid
        in
        match r with
        | `Line s -> ret_string vm s
        | `Eof -> State.N_val Value.null
        | `Wait -> State.N_block (State.B_recv cid)
        | exception Simnet.Net_error e -> State.N_trap e );
    ( "Net.send(ILString;)V",
      fun vm _t args at ->
        let cid = Value.to_int args.(at) in
        let s = str_exn vm args.(at + 1) "Net.send" in
        (* server-side responses feed the guard's error budget: a line the
           classifier rejects is an app-level 5xx, charged to the epoch of
           the code that produced it *)
        (match vm.State.response_classifier with
        | Some ok when cid > 0 && not (ok s) -> State.record_app_error vm
        | _ -> ());
        (try
           if cid < 0 then Simnet.client_send vm.State.net ~conn_id:(-cid) s
           else Simnet.send vm.State.net ~conn_id:cid s
         with Simnet.Net_error _ -> ());
        State.N_void );
    ( "Net.close(I)V",
      fun vm _t args at ->
        let cid = Value.to_int args.(at) in
        if cid < 0 then Simnet.client_close vm.State.net ~conn_id:(-cid)
        else Simnet.close_server vm.State.net ~conn_id:cid;
        State.N_void );
  ]

(* --- Thread ------------------------------------------------------------ *)

let thread_natives =
  [
    ( "Thread.spawn(LObject;)V",
      fun vm _t args at ->
        if Value.is_null args.(at) then State.N_trap "Thread.spawn(null)"
        else begin
          let addr = Value.to_ref args.(at) in
          let cls =
            Rt.class_by_id vm.State.reg (Heap.class_id vm.State.heap addr)
          in
          match Rt.find_vslot cls "run()V" with
          | None ->
              State.N_trap
                (Printf.sprintf "Thread.spawn: %s has no run() method"
                   cls.Rt.name)
          | Some slot ->
              let m = Rt.method_by_uid vm.State.reg cls.Rt.tib.(slot) in
              let code =
                try Jit.best_code vm m
                with Jit.Compile_error e ->
                  raise (Interp.Trap ("jit: " ^ e))
              in
              m.Rt.invocations <- m.Rt.invocations + 1;
              State.start_frame (State.new_thread vm) m code [| args.(at) |];
              State.N_void
        end );
    ( "Thread.yieldNow()V",
      fun vm t _ _ ->
        (* yield = sleep until the next scheduler round; on retry
           ([pending] set) the call completes *)
        if t.State.pending <> None then State.N_void
        else State.N_block (State.B_sleep (vm.State.ticks + 1)) );
    ( "Thread.sleep(I)V",
      fun vm t args at ->
        if t.State.pending <> None then State.N_void
        else
          State.N_block
            (State.B_sleep (vm.State.ticks + max 1 (Value.to_int args.(at)))) );
  ]

(* --- Jvolve ------------------------------------------------------------- *)

let jvolve_natives =
  [
    ( "Jvolve.transform(LObject;)V",
      fun vm _t args at ->
        (if not (Value.is_null args.(at)) then
           match vm.State.force_transform with
           | Some f -> f vm (Value.to_ref args.(at))
           | None -> ());
        State.N_void );
  ]

let install vm =
  List.iter
    (fun (k, f) -> Hashtbl.replace vm.State.natives k f)
    (string_natives vm @ sys_natives @ net_natives @ thread_natives
   @ jvolve_natives)
