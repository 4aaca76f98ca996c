(* Bench-side spans around the calls the benchmark makes into each layer.

   A span records its name, layer, start, end and the id of the span it
   ran inside; every span opened inside [in_update] shares that update's
   id.  Spans stay in memory and are written at exit, so tracing costs
   two clock reads and one record per call.  With tracing off, [span]
   calls its function directly and records nothing. *)

type span = {
  id : int;
  parent : int; (* 0: opened at top level *)
  name : string;
  layer : string;
  update : int; (* 0: not part of an update *)
  t0 : float; (* seconds *)
  t1 : float;
}

type state = {
  mutable on : bool;
  mutable ended : span list; (* most recently ended first *)
  mutable next_id : int;
  mutable open_ids : int list; (* innermost first *)
  mutable update : int;
  mutable next_update : int;
}

let st =
  { on = false; ended = []; next_id = 1; open_ids = []; update = 0;
    next_update = 1 }

let start () =
  st.on <- true;
  st.ended <- [];
  st.next_id <- 1;
  st.open_ids <- [];
  st.update <- 0;
  st.next_update <- 1

let stop () = st.on <- false
let enabled () = st.on

let span ~layer name f =
  if not st.on then f ()
  else begin
    let id = st.next_id in
    st.next_id <- id + 1;
    let parent = match st.open_ids with p :: _ -> p | [] -> 0 in
    st.open_ids <- id :: st.open_ids;
    let update = st.update in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      st.open_ids <- List.tl st.open_ids;
      st.ended <- { id; parent; name; layer; update; t0; t1 } :: st.ended
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Run [f] as one update: the spans it opens share a fresh update id. *)
let in_update f =
  if not st.on then f ()
  else begin
    let saved = st.update in
    st.update <- st.next_update;
    st.next_update <- st.next_update + 1;
    match f () with
    | v ->
        st.update <- saved;
        v
    | exception e ->
        st.update <- saved;
        raise e
  end

let spans () = List.rev st.ended
let dur_ms s = (s.t1 -. s.t0) *. 1000.0

(* Each span's self time: its duration minus the durations of the spans
   opened directly inside it.  Spans nest strictly (one thread), so the
   children's intervals never overlap. *)
let self_ms spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)
        in
        Hashtbl.replace children s.parent (prev +. dur_ms s))
    spans;
  List.map
    (fun s ->
      ( s,
        dur_ms s
        -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) ))
    spans

type row = {
  key : string;
  mutable count : int;
  mutable total_ms : float;
  mutable self_total_ms : float;
  durations : Stats.vec; (* ms *)
}

(* Group spans by [key] (a layer, or "layer/name"): count, total and self
   time, and the per-span durations. *)
let summarize ~key spans =
  let rows = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (s, self) ->
      let k = key s in
      let r =
        match Hashtbl.find_opt rows k with
        | Some r -> r
        | None ->
            let r =
              { key = k; count = 0; total_ms = 0.0; self_total_ms = 0.0;
                durations = Stats.vec () }
            in
            Hashtbl.replace rows k r;
            order := r :: !order;
            r
      in
      Stats.push r.durations (dur_ms s);
      r.count <- r.count + 1;
      r.total_ms <- r.total_ms +. dur_ms s;
      r.self_total_ms <- r.self_total_ms +. self)
    (self_ms spans);
  List.rev !order

let by_layer s = s.layer
let by_name s = s.layer ^ "/" ^ s.name

let row_json r =
  let sm = Stats.summarize r.durations in
  Json.Obj
    [
      ("key", Json.Str r.key);
      ("count", Json.Int r.count);
      ("total_ms", Json.Float r.total_ms);
      ("self_ms", Json.Float r.self_total_ms);
      ("p50_ms", Json.Float sm.Stats.median);
      ( "p99_ms",
        match sm.Stats.p99 with Some p -> Json.Float p | None -> Json.Null );
    ]

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open offline.  Each span name keeps at
   most [per_name] events so a run of 100k scheduler rounds stays a
   loadable file; the summaries are computed over every span. *)
let chrome ?(per_name = 20_000) spans =
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) Float.infinity spans
  in
  let kept = Hashtbl.create 64 in
  let dropped = ref 0 in
  let events =
    List.filter_map
      (fun s ->
        let n = Option.value ~default:0 (Hashtbl.find_opt kept s.name) in
        if n >= per_name then begin
          incr dropped;
          None
        end
        else begin
          Hashtbl.replace kept s.name (n + 1);
          Some
            (Json.Obj
               [
                 ("name", Json.Str s.name);
                 ("cat", Json.Str s.layer);
                 ("ph", Json.Str "X");
                 ("ts", Json.Float ((s.t0 -. origin) *. 1e6));
                 ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
                 ("pid", Json.Int 1);
                 ("tid", Json.Int 1);
                 ( "args",
                   Json.Obj
                     [
                       ("id", Json.Int s.id);
                       ("parent", Json.Int s.parent);
                       ("update", Json.Int s.update);
                     ] );
               ])
        end)
      (List.sort (fun a b -> Float.compare a.t0 b.t0) spans)
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("dropped_events", Json.Int !dropped) ]);
    ]
