(* Shared helpers for the test suites. *)

module CF = Jv_classfile
module VM = Jv_vm

(* small heap for unit tests: keeps VM creation cheap *)
let test_config =
  { VM.State.default_config with VM.State.heap_words = 1 lsl 18 }

(* Compile MiniJava source, boot a VM on it, run the main class to
   quiescence, and return the VM. *)
let run_source ?(config = test_config) ?(main = "Main") ?(rounds = 100_000)
    src =
  let classes = Jv_lang.Compile.compile_program src in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm classes;
  ignore (VM.Vm.spawn_main vm ~main_class:main);
  ignore (VM.Vm.run_to_quiescence ~max_rounds:rounds vm);
  vm

(* Run and return program output. *)
let output_of ?config ?main ?rounds src =
  VM.Vm.output (run_source ?config ?main ?rounds src)

let check_output ?config ?main ?rounds ~expected src =
  Alcotest.(check string) "program output" expected
    (output_of ?config ?main ?rounds src)

(* [t]'s frames, top first. *)
let frame_list (t : VM.State.vthread) =
  let d = t.VM.State.depth in
  List.init d (fun i -> t.VM.State.frames.(d - 1 - i))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Expect a compile failure whose message contains [substr]. *)
let check_compile_error ~substr src =
  match Jv_lang.Compile.compile_program src with
  | exception Jv_lang.Compile.Error msg ->
      if not (contains msg substr) then
        Alcotest.failf "error %S does not mention %S" msg substr
  | _ -> Alcotest.failf "expected compile error mentioning %S" substr

(* A line server run from OCaml on one simnet port, for client tests
   that need no VM.  [answer n line] decides what happens to [line] on
   the [n]th accepted connection (1-based): [`Reply r] sends [r] [delay]
   rounds after the request was read, [`Hang_up] closes the connection
   instead, [`Silent] never answers.  [banner] is sent on every accept.
   Call [serve] once per round, before the clients step. *)
module Line_server = struct
  module N = Jv_simnet.Simnet

  type t = {
    net : N.t;
    lid : int;
    banner : string option;
    delay : int;
    answer : int -> string -> [ `Reply of string | `Hang_up | `Silent ];
    mutable accepted : int;
    mutable conns : (int * int) list; (* conn id, accept ordinal *)
    mutable due : (int * int * string) list; (* tick, conn id, reply *)
  }

  let create ?banner ?(delay = 0) net ~port answer =
    {
      net;
      lid = N.listen net ~port;
      banner;
      delay;
      answer;
      accepted = 0;
      conns = [];
      due = [];
    }

  let hang_up t c =
    N.close_server t.net ~conn_id:c;
    t.conns <- List.filter (fun (c', _) -> c' <> c) t.conns

  let serve t ~tick =
    let rec accept () =
      match N.accept t.net ~listener_id:t.lid with
      | None -> ()
      | Some c ->
          t.accepted <- t.accepted + 1;
          Option.iter (N.send t.net ~conn_id:c) t.banner;
          t.conns <- t.conns @ [ (c, t.accepted) ];
          accept ()
    in
    accept ();
    List.iter
      (fun (c, n) ->
        let rec read () =
          match N.recv_line t.net ~conn_id:c with
          | `Line l -> (
              match t.answer n l with
              | `Reply r ->
                  t.due <- t.due @ [ (tick + t.delay, c, r) ];
                  read ()
              | `Silent -> read ()
              | `Hang_up -> hang_up t c)
          | `Eof -> hang_up t c
          | `Wait -> ()
        in
        read ())
      t.conns;
    let ready, later = List.partition (fun (at, _, _) -> at <= tick) t.due in
    t.due <- later;
    List.iter
      (fun (_, c, r) ->
        if not (N.server_closed t.net ~conn_id:c) then
          N.send t.net ~conn_id:c r)
      ready
end

(* An [Orchestrator.drive] [on_round] hook that arms a one-shot kill on
   [fleet] the first time [pred] holds after a round: the next VM to
   consult [vm.crash] dies. *)
let kill_when fleet pred =
  let armed = ref false in
  fun _ ->
    if (not !armed) && pred () then begin
      armed := true;
      match Jv_faults.Faults.parse ~seed:5 "vm.crash=kill@1.0x1" with
      | Ok plan -> Jv_fleet.Fleet.set_faults fleet (Some plan)
      | Error e -> failwith e
    end
