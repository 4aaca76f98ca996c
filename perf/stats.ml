(* Sample sets and order statistics for the benchmark's reports.

   A timing is reported as its median, plus the 99th percentile only when
   at least [min_tail] samples lie beyond it: a p99 over 200 samples is
   the second-largest sample, i.e. noise, not a tail. *)

(* A growable float array: per-request latencies run to hundreds of
   thousands per run, too many for lists. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 256 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0.0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

let append ~into v =
  for i = 0 to v.len - 1 do
    push into v.data.(i)
  done

let of_list xs =
  let v = vec () in
  List.iter (push v) xs;
  v

let sum v =
  let s = ref 0.0 in
  for i = 0 to v.len - 1 do
    s := !s +. v.data.(i)
  done;
  !s

let mean v = if v.len = 0 then nan else sum v /. float_of_int v.len

let sorted v =
  let a = to_array v in
  Array.sort Float.compare a;
  a

(* Median of a sorted array: the middle sample, or the mean of the two
   middle samples for an even count. *)
let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank (1-based) of percentile [pct] in [n] samples:
   ceil(pct * n / 100), in integers so 99% of 1000 is exactly 990. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let min_tail = 10

(* Samples ranked above the [pct] percentile. *)
let beyond ~pct n = n - rank ~pct n

let percentile_sorted ~pct a =
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~pct n - 1)

(* The 99th percentile of a sorted array, when [min_tail] samples lie
   beyond it. *)
let p99_sorted a =
  if beyond ~pct:99 (Array.length a) >= min_tail then
    Some (percentile_sorted ~pct:99 a)
  else None

(* The highest of the usual tail percentiles that has [min_tail] samples
   beyond it, as (pct, value). *)
let tail_sorted a =
  List.find_map
    (fun pct ->
      if beyond ~pct (Array.length a) >= min_tail then
        Some (pct, percentile_sorted ~pct a)
      else None)
    [ 99; 95; 90; 75 ]

(* Timings of identical replays.  The k-th sample of a series measures
   the same work in every replay, so each position keeps its fastest
   reading: that strips the host's contention bursts, which slow every
   sample inside them by up to 2x, while work that always costs more
   (a collection, a JIT compile) costs more in every replay and stays. *)
module Best = struct
  type series = { mutable mins : float array; cur : vec; mutable replays : int }
  type t = { series : (string, series) Hashtbl.t; mutable ragged : bool }

  let create () = { series = Hashtbl.create 16; ragged = false }

  let add t key x =
    let s =
      match Hashtbl.find_opt t.series key with
      | Some s -> s
      | None ->
          let s = { mins = [||]; cur = vec (); replays = 0 } in
          Hashtbl.replace t.series key s;
          s
    in
    push s.cur x

  (* Close a replay: fold its samples into the per-position minima.  A
     replay whose series has another length did other work: [ragged]. *)
  let end_replay t =
    Hashtbl.iter
      (fun _ s ->
        let a = to_array s.cur in
        if s.replays = 0 then s.mins <- a
        else if Array.length a <> Array.length s.mins then t.ragged <- true
        else Array.iteri (fun i x -> if x < s.mins.(i) then s.mins.(i) <- x) a;
        s.replays <- s.replays + 1;
        s.cur.len <- 0)
      t.series

  let mins t key =
    match Hashtbl.find_opt t.series key with Some s -> s.mins | None -> [||]

  let total t key = Array.fold_left ( +. ) 0.0 (mins t key)

  let vec t key =
    let v = vec () in
    Array.iter (push v) (mins t key);
    v
end

type summary = {
  n : int;
  median : float;
  p99 : float option;
  tail : (int * float) option;
}

let summarize v =
  let a = sorted v in
  {
    n = Array.length a;
    median = median_sorted a;
    p99 = p99_sorted a;
    tail = tail_sorted a;
  }
