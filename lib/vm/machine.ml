(* "Machine code": the resolved instruction set produced by the JIT.

   Where bytecode names fields and methods symbolically, machine code has
   hard-coded word offsets, JTOC slots, TIB slot indices and method uids —
   just as Jikes RVM's compilers burn offsets into generated machine code.
   This is what makes the paper's category-(2) updates real in this VM:
   when a class update changes a layout, compiled code of *other* methods
   that mention the class is stale even though their bytecode is not. *)

module Instr = Jv_classfile.Instr

type minstr =
  | M_const of int (* pre-encoded word (int / bool / null) *)
  | M_str of int (* string-table sid: allocates a String object *)
  | M_load of int
  | M_store of int
  | M_dup
  | M_pop
  | M_swap
  | M_add
  | M_sub
  | M_mul
  | M_div
  | M_rem
  | M_neg
  | M_icmp of Instr.icmp
  | M_bnot
  | M_acmp of bool (* true = eq, false = ne *)
  | M_if_true of int
  | M_if_false of int
  | M_goto of int
  | M_getfield of int (* word offset within object *)
  | M_putfield of int
  | M_getstatic of int (* JTOC slot *)
  | M_putstatic of int
  | M_invokevirtual of int * int (* TIB slot, arg count incl. receiver *)
  | M_invokestatic of int * int (* method uid, arg count *)
  | M_invokedirect of int * int (* method uid, arg count incl. receiver *)
  | M_new of int (* class id; size from class metadata *)
  | M_newarray of int (* array class id; length on stack *)
  | M_aload
  | M_astore
  | M_alen
  | M_checkcast of int (* class id *)
  | M_instanceof of int
  | M_return
  | M_return_val
  | M_yield of Instr.yield_kind

type level = Base | Opt

(* A compiled method body.

   [bc_map.(machine_pc)] is the bytecode pc the instruction derives from;
   the OSR machinery uses it to re-locate a parked frame in freshly
   compiled code.  The base compiler is exactly 1:1 with bytecode, so its
   [bc_map] is the identity; the optimizing compiler splices inlined callee
   bodies in, mapping every inlined instruction back to the call site's
   bytecode pc (which is precisely why opt-compiled frames cannot be
   OSR'd across an update: the interior of an inlined region has no
   bytecode pc of its own). *)
type compiled = {
  code : minstr array;
  bc_map : int array;
  level : level;
  inlined : int list; (* uids of methods whose bodies were inlined here *)
  inline_spans : (int * int) list;
      (* [lo, hi) machine-pc ranges covering inlined call sites (the arg
         stores and the spliced body).  Outside these spans an opt frame's
         locals/stack layout coincides with base code at the same bytecode
         pc — the property the opt-OSR extension relies on *)
  owner_uid : int;
  epoch : int; (* class-resolution epoch the offsets were computed in *)
  max_stack : int;
  frame_locals : int; (* local slots needed (method locals + inlined bodies) *)
}

(* A placeholder body for frame records not yet filled. *)
let no_code =
  {
    code = [||];
    bc_map = [||];
    level = Base;
    inlined = [];
    inline_spans = [];
    owner_uid = -1;
    epoch = 0;
    max_stack = 0;
    frame_locals = 0;
  }

let pc_in_inlined_span (c : compiled) pc =
  List.exists (fun (lo, hi) -> pc >= lo && pc < hi) c.inline_spans

let level_to_string = function Base -> "base" | Opt -> "opt"

(* Maximum operand-stack depth of a code array, by forward dataflow over
   instruction stack effects.  Verified bytecode translates to machine code
   with consistent depths, so a simple worklist suffices. *)
let stack_effect = function
  | M_const _ | M_str _ | M_load _ -> (0, 1)
  | M_store _ | M_pop | M_if_true _ | M_if_false _ -> (1, 0)
  | M_dup -> (1, 2)
  | M_swap -> (2, 2)
  | M_add | M_sub | M_mul | M_div | M_rem | M_icmp _ | M_acmp _ -> (2, 1)
  | M_neg | M_bnot | M_alen | M_checkcast _ | M_instanceof _ | M_newarray _ ->
      (1, 1)
  | M_goto _ | M_yield _ | M_return -> (0, 0)
  | M_return_val -> (1, 0)
  | M_getfield _ -> (1, 1)
  | M_putfield _ -> (2, 0)
  | M_getstatic _ -> (0, 1)
  | M_putstatic _ -> (1, 0)
  | M_new _ -> (0, 1)
  | M_aload -> (2, 1)
  | M_astore -> (3, 0)
  | M_invokevirtual (_, n) | M_invokedirect (_, n) -> (n, 1)
  (* conservatively assume a result; void calls just never read it *)
  | M_invokestatic (_, n) -> (n, 1)

let successors pc = function
  | M_goto t -> [ t ]
  | M_if_true t | M_if_false t -> [ t; pc + 1 ]
  | M_return | M_return_val -> []
  | _ -> [ pc + 1 ]

let compute_max_stack (code : minstr array) : int =
  let n = Array.length code in
  let depth = Array.make n (-1) in
  let maxd = ref 0 in
  let work = Queue.create () in
  if n > 0 then begin
    depth.(0) <- 0;
    Queue.add 0 work
  end;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let d = depth.(pc) in
    let pops, pushes = stack_effect code.(pc) in
    let d' = d - pops + pushes in
    if d' > !maxd then maxd := d';
    List.iter
      (fun s ->
        if s >= 0 && s < n && depth.(s) < 0 then begin
          depth.(s) <- d';
          Queue.add s work
        end)
      (successors pc code.(pc))
  done;
  !maxd + 1 (* slack for the invoke-result push convention *)

let to_string = function
  | M_const w -> Printf.sprintf "const %s" (Value.to_string w)
  | M_str sid -> Printf.sprintf "str #%d" sid
  | M_load i -> Printf.sprintf "load %d" i
  | M_store i -> Printf.sprintf "store %d" i
  | M_dup -> "dup"
  | M_pop -> "pop"
  | M_swap -> "swap"
  | M_add -> "add"
  | M_sub -> "sub"
  | M_mul -> "mul"
  | M_div -> "div"
  | M_rem -> "rem"
  | M_neg -> "neg"
  | M_icmp c -> "icmp_" ^ Instr.icmp_to_string c
  | M_bnot -> "bnot"
  | M_acmp true -> "acmp_eq"
  | M_acmp false -> "acmp_ne"
  | M_if_true t -> Printf.sprintf "if_true -> %d" t
  | M_if_false t -> Printf.sprintf "if_false -> %d" t
  | M_goto t -> Printf.sprintf "goto -> %d" t
  | M_getfield o -> Printf.sprintf "getfield +%d" o
  | M_putfield o -> Printf.sprintf "putfield +%d" o
  | M_getstatic s -> Printf.sprintf "getstatic [%d]" s
  | M_putstatic s -> Printf.sprintf "putstatic [%d]" s
  | M_invokevirtual (s, n) -> Printf.sprintf "invokevirtual tib[%d] argc=%d" s n
  | M_invokestatic (u, n) -> Printf.sprintf "invokestatic m%d argc=%d" u n
  | M_invokedirect (u, n) -> Printf.sprintf "invokedirect m%d argc=%d" u n
  | M_new c -> Printf.sprintf "new c%d" c
  | M_newarray c -> Printf.sprintf "newarray c%d" c
  | M_aload -> "aload"
  | M_astore -> "astore"
  | M_alen -> "alen"
  | M_checkcast c -> Printf.sprintf "checkcast c%d" c
  | M_instanceof c -> Printf.sprintf "instanceof c%d" c
  | M_return -> "return"
  | M_return_val -> "return_val"
  | M_yield Instr.Y_entry -> "yield_entry"
  | M_yield Instr.Y_backedge -> "yield_backedge"

let pp ppf i = Fmt.string ppf (to_string i)
