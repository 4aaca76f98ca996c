(* Self-test of the benchmark's kit: order statistics against a naive
   reference, JSON escaping, span self-time arithmetic, and the
   best-of-replays minima. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* --- percentiles ----------------------------------------------------- *)

let insertion_sort a =
  let a = Array.copy a in
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  a

(* The smallest sample with at least 99% of the samples at or below it,
   and how many samples rank above it. *)
let naive_p99 sorted =
  let n = Array.length sorted in
  let rec go i = if (i + 1) * 100 >= 99 * n then i else go (i + 1) in
  let i = go 0 in
  (sorted.(i), n - (i + 1))

let naive_median sorted =
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* a fixed, seedless pseudo-random sequence with ties *)
let scrambled n =
  Array.init n (fun i -> float_of_int ((i * 7919 + 13) mod 1009) /. 4.0)

let check_percentiles name a =
  let s = Stats.summarize (Stats.of_list (Array.to_list a)) in
  let ref_sorted = insertion_sort a in
  let n = Array.length a in
  expect (name ^ ": n") (s.Stats.n = n);
  if n > 0 then begin
    expect (name ^ ": median") (s.Stats.median = naive_median ref_sorted);
    let p99, beyond = naive_p99 ref_sorted in
    (match s.Stats.p99 with
    | Some v -> expect (name ^ ": p99") (beyond >= 10 && v = p99)
    | None -> expect (name ^ ": p99 withheld") (beyond < 10));
    (* the tail: the first of p99, p95, p90, p75 with ten samples beyond *)
    let naive_tail =
      List.find_map
        (fun pct ->
          let rec go i = if (i + 1) * 100 >= pct * n then i else go (i + 1) in
          let i = go 0 in
          if n - (i + 1) >= 10 then Some (pct, ref_sorted.(i)) else None)
        [ 99; 95; 90; 75 ]
    in
    expect (name ^ ": tail") (s.Stats.tail = naive_tail)
  end

let () =
  check_percentiles "empty" [||];
  check_percentiles "one" [| 5.0 |];
  check_percentiles "three" [| 3.0; 1.0; 2.0 |];
  check_percentiles "even" [| 4.0; 1.0; 3.0; 2.0 |];
  check_percentiles "ties" (Array.make 50 7.0);
  check_percentiles "999" (scrambled 999);
  check_percentiles "1000" (scrambled 1000);
  check_percentiles "1001" (scrambled 1001);
  check_percentiles "5000" (scrambled 5000);
  (* the tail rule at its edge: 1000 samples leave exactly 10 beyond the
     99th percentile, 999 leave 9 *)
  let p99 n =
    (Stats.summarize (Stats.of_list (Array.to_list (scrambled n)))).Stats.p99
  in
  expect "p99 at n=1000" (p99 1000 <> None);
  expect "no p99 at n=999" (p99 999 = None);
  expect "rank of 99% of 1000" (Stats.rank ~pct:99 1000 = 990)

(* --- JSON ------------------------------------------------------------ *)

let () =
  expect "escape"
    (Json.to_string (Json.Str "a\"b\\c\nd\te\001f\r\bg\012h\xc3\xa9")
    = "\"a\\\"b\\\\c\\nd\\te\\u0001f\\r\\bg\\fh\xc3\xa9\"");
  expect "object"
    (Json.to_string
       (Json.Obj [ ("k\"", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]) ])
    = "{\"k\\\"\": [1, true, null]}");
  expect "shortest float" (Json.float_repr 0.1 = "0.1");
  expect "every digit"
    (float_of_string (Json.float_repr (1.0 /. 3.0)) = 1.0 /. 3.0);
  expect "integral float" (Json.float_repr 3.0 = "3");
  expect "nan is null" (Json.float_repr nan = "null");
  expect "infinity is null" (Json.float_repr infinity = "null")

(* --- span self time --------------------------------------------------- *)

let span id parent layer t0 t1 =
  { Trace.id; parent; name = "s" ^ string_of_int id; layer; update = 0;
    t0 = t0 /. 1000.0; t1 = t1 /. 1000.0 }

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* 1 [0,10] holds 2 [1,4] and 3 [5,9]; 2 holds 4 [2,3] *)
  let spans =
    [ span 4 2 "vm" 2. 3.; span 2 1 "core" 1. 4.; span 3 1 "vm" 5. 9.;
      span 1 0 "perf" 0. 10. ]
  in
  let self = Trace.self_ms spans in
  let self_of id = snd (List.find (fun (s, _) -> s.Trace.id = id) self) in
  expect "self of the root" (close (self_of 1) 3.0);
  expect "self of a parent" (close (self_of 2) 2.0);
  expect "self of leaves" (close (self_of 3) 4.0 && close (self_of 4) 1.0);
  let vm =
    List.find
      (fun r -> r.Trace.key = "vm")
      (Trace.summarize ~key:Trace.by_layer spans)
  in
  expect "layer rollup"
    (vm.Trace.count = 2 && close vm.Trace.total_ms 5.0
    && close vm.Trace.self_total_ms 5.0)

(* --- best of replays ---------------------------------------------------- *)

let () =
  let b = Stats.Best.create () in
  let replay xs =
    List.iter (Stats.Best.add b "k") xs;
    Stats.Best.end_replay b
  in
  replay [ 3.; 5.; 2. ];
  replay [ 4.; 1.; 2.5 ];
  expect "per-position minima" (Stats.Best.mins b "k" = [| 3.; 1.; 2. |]);
  expect "sum of minima" (close (Stats.Best.total b "k") 6.0);
  expect "identical replays" (not b.Stats.Best.ragged);
  replay [ 1. ];
  expect "a replay of other length" b.Stats.Best.ragged

(* live spans: parent ids and update ids *)
let () =
  Trace.start ();
  Trace.span ~layer:"a" "outer" (fun () ->
      Trace.in_update (fun () -> Trace.span ~layer:"b" "inner" ignore));
  Trace.span ~layer:"a" "after" ignore;
  Trace.stop ();
  Trace.span ~layer:"a" "untraced" ignore;
  match Trace.spans () with
  | [ inner; outer; after ] ->
      expect "nesting"
        (inner.Trace.parent = outer.Trace.id && outer.Trace.parent = 0);
      expect "update ids"
        (inner.Trace.update > 0 && outer.Trace.update = 0
        && after.Trace.update = 0);
      expect "order" (after.Trace.name = "after")
  | l -> expect (Printf.sprintf "span count %d" (List.length l)) false

let () =
  if !failures > 0 then exit 1;
  print_endline "perf selftest: ok"
