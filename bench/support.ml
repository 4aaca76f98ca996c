(* Shared helpers for the benchmark harness. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let now () = Unix.gettimeofday ()

let hr () = print_endline (String.make 78 '-')

let section title =
  print_newline ();
  hr ();
  Printf.printf "%s\n" title;
  hr ()

(* Scale factor for quick runs: [JVOLVE_BENCH_QUICK=1] shrinks the long
   experiments so the whole suite finishes in well under a minute. *)
let quick = Sys.getenv_opt "JVOLVE_BENCH_QUICK" <> None
