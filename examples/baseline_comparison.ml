(* The design-space tour (paper §5): the same update attempted with three
   DSU approaches.

     dune exec examples/baseline_comparison.exe

   The update adds a field and a method to a class with live instances —
   the kind of change that dominates real release histories (Tables 2-4):

   - HotSwap / edit-and-continue: can only swap method bodies; refuses.
   - JDrums/DVM-style lazy indirection: applies, but objects migrate on
     first touch, and *every* dereference pays a check forever — roughly
     the paper's "10% overhead" regime.
   - Jvolve: one GC-based pause migrates everything; steady-state
     execution afterwards is exactly as fast as before. *)

module VM = Jv_vm
module J = Jvolve_core
module B = Jv_baseline

let v1 =
  {|
class Account {
  String owner;
  int balance;
  Account(String o, int b) { owner = o; balance = b; }
  int worth() { return balance; }
}
class Bank {
  static Account[] accounts;
  static int total() {
    int t = 0;
    for (int i = 0; i < accounts.length; i = i + 1) { t = t + accounts[i].worth(); }
    return t;
  }
}
class Main {
  static void main() {
    Bank.accounts = new Account[3];
    Bank.accounts[0] = new Account("alice", 100);
    Bank.accounts[1] = new Account("bob", 250);
    Bank.accounts[2] = new Account("carol", 400);
    while (true) {
      Sys.println("total=" + Bank.total());
      Thread.sleep(3);
    }
  }
}
|}

(* v2 adds interest accrual: a new field and a new method *)
let v2 =
  Jv_apps.Patching.patch v1
    [
      ( {|class Account {
  String owner;
  int balance;
  Account(String o, int b) { owner = o; balance = b; }
  int worth() { return balance; }
}|},
        {|class Account {
  String owner;
  int balance;
  int accrued;
  Account(String o, int b) { owner = o; balance = b; accrued = 0; }
  void accrue() { accrued = accrued + balance / 100; }
  int worth() { return balance + accrued; }
}|}
      );
      ( {|    for (int i = 0; i < accounts.length; i = i + 1) { t = t + accounts[i].worth(); }|},
        {|    for (int i = 0; i < accounts.length; i = i + 1) {
      accounts[i].accrue();
      t = t + accounts[i].worth();
    }|}
      );
    ]

let boot ?(indirection = false) () =
  let config =
    {
      VM.State.default_config with
      VM.State.heap_words = 1 lsl 18;
      indirection_mode = indirection;
    }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program v1);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:10;
  vm

let spec () =
  J.Spec.make ~version_tag:"1"
    ~old_program:(Jv_lang.Compile.compile_program v1)
    ~new_program:(Jv_lang.Compile.compile_program v2)
    ()

let () =
  let spec = spec () in
  Printf.printf "the update: %s\n\n" (J.Diff.summary spec.J.Spec.diff);

  (* 1: HotSwap *)
  let vm = boot () in
  (match B.Hotswap.apply vm spec with
  | B.Hotswap.Unsupported reason ->
      Printf.printf "HotSwap / edit-and-continue: REFUSED — %s\n" reason
  | B.Hotswap.Applied _ -> print_endline "HotSwap: applied (unexpected!)");

  (* 2: lazy indirection *)
  let vm = boot ~indirection:true () in
  (match B.Indirection.apply vm (J.Transformers.prepare spec) with
  | Ok () ->
      VM.Vm.run vm ~rounds:20;
      Printf.printf
        "lazy indirection: applied; %d objects migrated on first touch; %d \
         dereference checks paid so far (and counting, forever)\n"
        (B.Indirection.migrated vm)
        (B.Indirection.deref_checks vm)
  | Error e -> Printf.printf "lazy indirection failed: %s\n" e);

  (* 3: Jvolve *)
  let vm = boot () in
  (match (J.Jvolve.update_now vm spec).J.Jvolve.h_outcome with
  | J.Jvolve.Applied t ->
      VM.Vm.run vm ~rounds:20;
      Printf.printf
        "Jvolve: applied in one %.2f ms pause (%d objects transformed \
         eagerly by the GC);\n        dereference checks afterwards: %d — \
         zero steady-state cost\n"
        t.J.Updater.u_total_ms t.J.Updater.u_transformed_objects
        (VM.Vm.stats vm).VM.Vm.deref_checks
  | o -> Printf.printf "Jvolve failed: %s\n" (J.Jvolve.outcome_to_string o));

  (* prove balances survived the Jvolve path *)
  print_endline "\nserver output across the Jvolve update (balances intact,";
  print_endline "new accrual logic visible in later totals):";
  VM.Vm.output vm |> String.split_on_char '\n'
  |> List.filteri (fun i _ -> i < 8)
  |> List.iter (fun l -> if l <> "" then Printf.printf "  %s\n" l)
