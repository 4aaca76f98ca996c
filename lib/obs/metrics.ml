(* Counters, gauges and histograms.

   Histograms are geometric (HdrHistogram-style): a value lands in bucket
   floor(log_gamma v), so quantile estimates carry a bounded *relative*
   error of sqrt(gamma) - 1 (~4.4% with the default gamma = 2^(1/8))
   regardless of the value range.  Memory is one int per occupied bucket
   band; recording is two float ops and an array increment, cheap enough
   for per-round VM instrumentation.  Same-gamma histograms merge exactly
   (bucket-wise addition), which is how the benches aggregate per-VM
   recordings across trials. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_gamma : float;
  h_log_gamma : float;
  h_offset : int; (* array index of the bucket holding values in [1, gamma) *)
  mutable h_counts : int array;
  mutable h_zero : int; (* values <= 0 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let default_gamma = 1.0905077326652577 (* 2^(1/8): <= ~4.4% relative error *)
let default_offset = 128 (* smallest representable band: gamma^-128 ~ 1.5e-5 *)

let counter_value c = c.c_value
let gauge_value g = g.g_value

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set g v = g.g_value <- v
let add g v = g.g_value <- g.g_value +. v

let make_histogram ?(gamma = default_gamma) name =
  {
    h_name = name;
    h_gamma = gamma;
    h_log_gamma = Float.log gamma;
    h_offset = default_offset;
    h_counts = Array.make 64 0;
    h_zero = 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let bucket_index h v =
  (* v > 0 *)
  h.h_offset + int_of_float (Float.floor (Float.log v /. h.h_log_gamma))

let ensure_bucket h i =
  if i >= Array.length h.h_counts then begin
    let a = Array.make (max (i + 1) (2 * Array.length h.h_counts)) 0 in
    Array.blit h.h_counts 0 a 0 (Array.length h.h_counts);
    h.h_counts <- a
  end

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  if v <= 0.0 then h.h_zero <- h.h_zero + 1
  else begin
    let i = max 0 (bucket_index h v) in
    ensure_bucket h i;
    h.h_counts.(i) <- h.h_counts.(i) + 1
  end

let observe_int h v = observe h (float_of_int v)

let count h = h.h_count
let sum h = h.h_sum
let mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count
let hist_min h = if h.h_count = 0 then 0.0 else h.h_min
let hist_max h = if h.h_count = 0 then 0.0 else h.h_max

(* Geometric midpoint of bucket [i]: gamma^(i - offset) * sqrt(gamma). *)
let representative h i =
  Float.exp (float_of_int (i - h.h_offset) *. h.h_log_gamma)
  *. Float.sqrt h.h_gamma

(* Estimate the [q]-quantile (0 < q <= 1).  The result is clamped into
   [min, max], so single-sample histograms report the sample exactly. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
    in
    let v =
      if rank <= h.h_zero then 0.0
      else begin
        let cum = ref h.h_zero in
        let result = ref h.h_max in
        (try
           for i = 0 to Array.length h.h_counts - 1 do
             cum := !cum + h.h_counts.(i);
             if !cum >= rank then begin
               result := representative h i;
               raise Exit
             end
           done
         with Exit -> ());
        !result
      end
    in
    Float.min (Float.max v h.h_min) h.h_max
  end

(* --- snapshots and windowed quantiles ----------------------------------

   Histograms are cumulative; a guard window needs "p99 since the update
   committed" compared against "p99 before it".  A [snap] freezes the
   bucket counts; [since] rebuilds the delta histogram (observations made
   after the snapshot) by bucket-wise subtraction.  Min/max cannot be
   recovered for a window, so the delta keeps the source's bounds — the
   quantile clamp stays sound, just looser. *)

type snap = {
  s_counts : int array;
  s_zero : int;
  s_count : int;
  s_sum : float;
}

let snapshot h =
  {
    s_counts = Array.copy h.h_counts;
    s_zero = h.h_zero;
    s_count = h.h_count;
    s_sum = h.h_sum;
  }

let since h (s : snap) =
  let d = make_histogram ~gamma:h.h_gamma h.h_name in
  d.h_counts <- Array.copy h.h_counts;
  Array.iteri
    (fun i n -> if i < Array.length d.h_counts then
        d.h_counts.(i) <- max 0 (d.h_counts.(i) - n))
    s.s_counts;
  d.h_zero <- max 0 (h.h_zero - s.s_zero);
  d.h_count <- max 0 (h.h_count - s.s_count);
  d.h_sum <- Float.max 0.0 (h.h_sum -. s.s_sum);
  if d.h_count > 0 then begin
    d.h_min <- h.h_min;
    d.h_max <- h.h_max
  end;
  d

(* Bucket-wise merge; both histograms must share gamma (the default unless
   explicitly overridden). *)
let merge_into ~into src =
  if into.h_gamma <> src.h_gamma then
    invalid_arg "Metrics.merge_into: histograms with different gamma";
  ensure_bucket into (Array.length src.h_counts - 1);
  Array.iteri
    (fun i n -> if n > 0 then into.h_counts.(i) <- into.h_counts.(i) + n)
    src.h_counts;
  into.h_zero <- into.h_zero + src.h_zero;
  into.h_count <- into.h_count + src.h_count;
  into.h_sum <- into.h_sum +. src.h_sum;
  if src.h_count > 0 then begin
    if src.h_min < into.h_min then into.h_min <- src.h_min;
    if src.h_max > into.h_max then into.h_max <- src.h_max
  end

(* --- the registry ------------------------------------------------------ *)

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type registry = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, reversed *)
}

let create_registry () = { tbl = Hashtbl.create 64; order = [] }

let register reg name m =
  Hashtbl.replace reg.tbl name m;
  reg.order <- name :: reg.order

let counter reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (M_counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c_name = name; c_value = 0 } in
      register reg name (M_counter c);
      c

let gauge reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (M_gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      register reg name (M_gauge g);
      g

let histogram ?gamma reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (M_histogram h) -> h
  | Some _ ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let h = make_histogram ?gamma name in
      register reg name (M_histogram h);
      h

let find reg name = Hashtbl.find_opt reg.tbl name

(* Iterate in registration order. *)
let iter reg f =
  List.iter
    (fun name ->
      match Hashtbl.find_opt reg.tbl name with
      | Some m -> f name m
      | None -> ())
    (List.rev reg.order)

let is_empty reg = reg.order = []

(* Fold [src] into [into]: counters add, histograms merge bucket-wise,
   gauges take the source's latest value.  Used to aggregate the sinks of
   many VMs into one report. *)
let merge_registry ~into src =
  iter src (fun name m ->
      match m with
      | M_counter c -> incr ~by:c.c_value (counter into name)
      | M_gauge g -> set (gauge into name) g.g_value
      | M_histogram h ->
          merge_into ~into:(histogram ~gamma:h.h_gamma into name) h)
