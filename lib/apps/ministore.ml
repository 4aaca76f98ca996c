(* ministore: the stateful fourth workload — a keyed record store with a
   page-indexed scan path, shaped after a block-explorer DB: batched
   writes (MPUT), point lookups (GET), and page-at-a-time scans (SCAN)
   over an append-ordered page index.

   Unlike the three connection-oriented servers, ministore's live heap is
   dominated by long-lived data — record chains and index pages — so its
   updates stress the transformer machinery rather than the safe-point
   logic: every version bump is a *data-schema* migration that must
   rewrite (part of) the persistent heap.

   Four versions, each update a representation change with a custom
   forward transformer AND a custom inverse, so a guard window can back a
   committed migration out by recomputing the old representation:

   - 1.0 -> 1.1  field split: the packed [Rec.meta] int becomes
     [flags] + [size] (meta = flags * 65536 + size);
   - 1.1 -> 1.2  index re-key: page size 16 -> 8 and [Page] gains a
     [firstKey] summary field; the jvolveClass(PageDir) transformer
     rebuilds the whole page chain at update time;
   - 1.2 -> 1.3  value re-encoding: the raw [Rec.val] string becomes a
     structured [Blob] record carrying the data and its length.

   The wire protocol is version-stable — GET always renders
   "+OK rec <k> m=<meta> v=<text>" with meta/text *derived* from
   whatever the current schema stores — so one workload script and one
   response classifier drive every rung of the ladder. *)

let port = 7070

let base_version = "1.0"

let base_src =
  {|
class Config {
  static int port = 7070;
  static int poolSize = 4;
}
class Version {
  static String name() { return "1.0"; }
}
class Stats {
  static int puts = 0;
  static int gets = 0;
  static int scans = 0;
  static int misses = 0;
}
class Rec {
  int key;
  int meta;
  String val;
  Rec next;
  Rec(int k, int m, String v) { key = k; meta = m; val = v; next = null; }
  int metaWord() { return meta; }
  String valText() { return val; }
}
class Store {
  static Rec[] buckets;
  static int count;
  static void init(int nb) { buckets = new Rec[nb]; count = 0; }
  static Rec find(int key) {
    Rec r = buckets[key % buckets.length];
    while (r != null) {
      if (r.key == key) { return r; }
      r = r.next;
    }
    return null;
  }
  static void put(int key, int m, String v) {
    Rec r = find(key);
    if (r != null) { r.meta = m; r.val = v; return; }
    Rec nr = new Rec(key, m, v);
    int b = key % buckets.length;
    nr.next = buckets[b];
    buckets[b] = nr;
    count = count + 1;
    PageDir.append(key);
  }
}
class Page {
  int id;
  int[] keys;
  int n;
  Page next;
  Page(int pid, int cap) { id = pid; keys = new int[cap]; n = 0; next = null; }
}
class PageDir {
  static int pageSize = 16;
  static Page head;
  static Page tail;
  static int pages;
  static void init(int psz) { pageSize = psz; head = null; tail = null; pages = 0; }
  static void append(int key) {
    if (tail == null || tail.n >= pageSize) {
      Page p = new Page(pages, pageSize);
      pages = pages + 1;
      if (tail == null) { head = p; } else { tail.next = p; }
      tail = p;
    }
    tail.keys[tail.n] = key;
    tail.n = tail.n + 1;
  }
  static Page find(int pid) {
    Page p = head;
    while (p != null) {
      if (p.id == pid) { return p; }
      p = p.next;
    }
    return null;
  }
}
class Render {
  static String rec(Rec r) {
    return "+OK rec " + r.key + " m=" + r.metaWord() + " v=" + r.valText();
  }
  static String page(Page p) {
    String ks = "";
    for (int i = 0; i < p.n; i = i + 1) {
      if (i > 0) { ks = ks + ","; }
      ks = ks + p.keys[i];
    }
    return "+OK page " + p.id + " n=" + p.n + " keys=" + ks;
  }
}
class Commands {
  static String dispatch(String line) {
    if (line.equals("HLTH")) { return "+OK healthy"; }
    if (line.equals("STAT")) {
      return "+OK stat v=" + Version.name() + " n=" + Store.count
        + " pages=" + PageDir.pages + " psz=" + PageDir.pageSize;
    }
    if (line.startsWith("GET ")) {
      Stats.gets = Stats.gets + 1;
      String[] parts = line.split(" ", 0);
      if (parts.length < 2) { return "-ERR usage: GET <key>"; }
      Rec r = Store.find(parts[1].toInt());
      if (r == null) { Stats.misses = Stats.misses + 1; return "-ERR no such key"; }
      return Render.rec(r);
    }
    if (line.startsWith("PUT ")) {
      Stats.puts = Stats.puts + 1;
      String[] parts = line.split(" ", 0);
      if (parts.length < 4) { return "-ERR usage: PUT <key> <meta> <payload>"; }
      int k = parts[1].toInt();
      Store.put(k, parts[2].toInt(), parts[3]);
      return "+OK put " + k;
    }
    if (line.startsWith("MPUT ")) {
      String[] parts = line.split(" ", 0);
      if (parts.length < 4) { return "-ERR usage: MPUT <base> <count> <meta>"; }
      int base = parts[1].toInt();
      int cnt = parts[2].toInt();
      int m = parts[3].toInt();
      if (cnt > 64) { cnt = 64; }
      for (int i = 0; i < cnt; i = i + 1) {
        Store.put(base + i, m + i, "v" + (base + i));
      }
      return "+OK mput " + cnt;
    }
    if (line.startsWith("SCAN ")) {
      Stats.scans = Stats.scans + 1;
      String[] parts = line.split(" ", 0);
      if (parts.length < 2) { return "-ERR usage: SCAN <page>"; }
      Page p = PageDir.find(parts[1].toInt());
      if (p == null) { return "-ERR no such page"; }
      return Render.page(p);
    }
    return "-ERR unknown command";
  }
}
class ConnQueue {
  static int[] items;
  static int head;
  static int tail;
  static int count;
  static void init(int cap) { items = new int[cap]; head = 0; tail = 0; count = 0; }
  static void put(int c) {
    if (count >= items.length) { Net.close(c); return; }
    items[tail] = c;
    tail = (tail + 1) % items.length;
    count = count + 1;
  }
  static int take() {
    if (count == 0) { return 0; }
    int c = items[head];
    head = (head + 1) % items.length;
    count = count - 1;
    return c;
  }
}
class Acceptor {
  int listener;
  Acceptor(int port) { listener = Net.listen(port); }
  void run() {
    while (true) {
      int conn = Net.accept(listener);
      ConnQueue.put(conn);
    }
  }
}
class StoreConn {
  int conn;
  StoreConn(int c) { conn = c; }
  void serve() {
    while (true) {
      String line = Net.recvLine(conn);
      if (line == null) { Net.close(conn); return; }
      if (line.equals("QUIT")) {
        Net.send(conn, "+OK bye");
        Net.close(conn);
        return;
      }
      Net.send(conn, Commands.dispatch(line));
    }
  }
}
class Worker {
  int id;
  Worker(int n) { id = n; }
  void run() {
    while (true) {
      int conn = ConnQueue.take();
      if (conn == 0) { Thread.yieldNow(); }
      else {
        StoreConn c = new StoreConn(conn);
        c.serve();
      }
    }
  }
}
class Seed {
  static void install() {
    for (int i = 0; i < 40; i = i + 1) {
      Store.put(1000 + i, 65536 + i, "seed-" + i);
    }
  }
}
class StoreServer {
  static void start() {
    Store.init(64);
    PageDir.init(16);
    ConnQueue.init(64);
    Seed.install();
    Thread.spawn(new Acceptor(Config.port));
    for (int i = 0; i < Config.poolSize; i = i + 1) {
      Thread.spawn(new Worker(i));
    }
  }
}
class Main {
  static void main() { StoreServer.start(); }
}
|}

(* --- releases -------------------------------------------------------- *)

let releases =
  [
    (* 1.1: schema migration (a) — split the packed [meta] word into
       [flags] and [size].  The wire format is unchanged: [metaWord]
       re-packs the pair, so GET renders the same integer. *)
    ( "1.1",
      [
        ( {|class Rec {
  int key;
  int meta;
  String val;
  Rec next;
  Rec(int k, int m, String v) { key = k; meta = m; val = v; next = null; }
  int metaWord() { return meta; }
  String valText() { return val; }
}|},
          {|class Rec {
  int key;
  int flags;
  int size;
  String val;
  Rec next;
  Rec(int k, int m, String v) {
    key = k;
    flags = m / 65536;
    size = m - (m / 65536) * 65536;
    val = v;
    next = null;
  }
  int metaWord() { return flags * 65536 + size; }
  String valText() { return val; }
}|}
        );
        ( {|    if (r != null) { r.meta = m; r.val = v; return; }|},
          {|    if (r != null) {
      r.flags = m / 65536;
      r.size = m - (m / 65536) * 65536;
      r.val = v;
      return;
    }|}
        );
        ( {|  static String name() { return "1.0"; }|},
          {|  static String name() { return "1.1"; }|} );
      ] );
    (* 1.2: schema migration (b) — re-key the page index: page size 16
       -> 8 and [Page] gains a [firstKey] summary.  The whole page chain
       is stale after the update; the jvolveClass(PageDir) transformer
       rebuilds it (see [pagedir_rekey_fwd]). *)
    ( "1.2",
      [
        ( {|class Page {
  int id;
  int[] keys;
  int n;
  Page next;
  Page(int pid, int cap) { id = pid; keys = new int[cap]; n = 0; next = null; }
}|},
          {|class Page {
  int id;
  int firstKey;
  int[] keys;
  int n;
  Page next;
  Page(int pid, int cap) {
    id = pid; firstKey = 0 - 1; keys = new int[cap]; n = 0; next = null;
  }
}|}
        );
        ( {|  static void append(int key) {
    if (tail == null || tail.n >= pageSize) {
      Page p = new Page(pages, pageSize);
      pages = pages + 1;
      if (tail == null) { head = p; } else { tail.next = p; }
      tail = p;
    }
    tail.keys[tail.n] = key;
    tail.n = tail.n + 1;
  }|},
          {|  static void append(int key) {
    if (tail == null || tail.n >= pageSize) {
      Page p = new Page(pages, pageSize);
      pages = pages + 1;
      if (tail == null) { head = p; } else { tail.next = p; }
      tail = p;
    }
    if (tail.n == 0) { tail.firstKey = key; }
    tail.keys[tail.n] = key;
    tail.n = tail.n + 1;
  }
  static void rebuild(int psz, Page oldHead) {
    init(psz);
    Page p = oldHead;
    while (p != null) {
      Jvolve.transform(p);
      for (int i = 0; i < p.n; i = i + 1) { append(p.keys[i]); }
      p = p.next;
    }
  }|}
        );
        ( {|  static void init(int psz) { pageSize = psz; head = null; tail = null; pages = 0; }|},
          {|  static void init(int psz) {
    pageSize = psz;
    head = null;
    tail = null;
    pages = 0;
  }|}
        );
        ( {|  static String name() { return "1.1"; }|},
          {|  static String name() { return "1.2"; }|} );
      ] );
    (* 1.3: schema migration (c) — re-encode the value: the raw string
       becomes a structured [Blob] carrying the data and its length.
       [valText] unwraps it, so GET output is unchanged. *)
    ( "1.3",
      [
        ( {|class Rec {
  int key;
  int flags;
  int size;
  String val;
  Rec next;
  Rec(int k, int m, String v) {
    key = k;
    flags = m / 65536;
    size = m - (m / 65536) * 65536;
    val = v;
    next = null;
  }
  int metaWord() { return flags * 65536 + size; }
  String valText() { return val; }
}|},
          {|class Blob {
  String data;
  int len;
  Blob(String d) { data = d; len = d.length(); }
}
class Rec {
  int key;
  int flags;
  int size;
  Blob val;
  Rec next;
  Rec(int k, int m, String v) {
    key = k;
    flags = m / 65536;
    size = m - (m / 65536) * 65536;
    val = new Blob(v);
    next = null;
  }
  int metaWord() { return flags * 65536 + size; }
  String valText() { return val.data; }
}|}
        );
        ( {|    if (r != null) {
      r.flags = m / 65536;
      r.size = m - (m / 65536) * 65536;
      r.val = v;
      return;
    }|},
          {|    if (r != null) {
      r.flags = m / 65536;
      r.size = m - (m / 65536) * 65536;
      r.val = new Blob(v);
      return;
    }|}
        );
        ( {|  static String name() { return "1.2"; }|},
          {|  static String name() { return "1.3"; }|} );
      ] );
  ]

let app : Patching.versioned =
  Patching.build ~app_name:"ministore" ~base_version ~base_src ~releases

(* Health probe (fleet orchestration): answered outside the versioned
   data path in every version. *)
let health_probe = Common.hlth_probe
let health_ok = Common.prefix_ok "+OK healthy"

(* --- custom transformers ---------------------------------------------- *)

(* 1.0 -> 1.1: unpack meta into flags + size (no bit ops in MiniJava, so
   divide/multiply by 2^16). *)
let rec_split_fwd =
  {|
    to.key = from.key;
    to.val = from.val;
    to.next = from.next;
    to.flags = from.meta / 65536;
    to.size = from.meta - (from.meta / 65536) * 65536;
|}

(* ... and its inverse: re-pack from live state, so records written
   during the guard window keep their in-window values across a revert. *)
let rec_split_inv =
  {|
    to.key = from.key;
    to.val = from.val;
    to.next = from.next;
    to.meta = from.flags * 65536 + from.size;
|}

(* 1.1 -> 1.2, per-object: carry a page and summarize its first key.
   (Pages reachable from the rebuilt directory are fresh allocations;
   this covers any old page still referenced elsewhere.) *)
let page_rekey_fwd =
  {|
    to.id = from.id;
    to.keys = from.keys;
    to.n = from.n;
    to.next = from.next;
    if (from.n > 0) { to.firstKey = from.keys[0]; } else { to.firstKey = 0 - 1; }
|}

(* 1.1 -> 1.2, class transformer: the index encoding changed, so carrying
   the static page chain over would leave a stale index.  Walk the old
   chain — forcing each page's object transformer before reading it,
   since class transformers run before the pair loop — and re-append
   every key under the new page size. *)
let pagedir_rekey_fwd =
  {|
    Page oldHead = PageDir.head;
    PageDir.rebuild(8, oldHead);
|}

(* Inverse of the re-key: 1.1's PageDir has no [rebuild], so the walk is
   inlined against the old program's API. *)
let pagedir_rekey_inv =
  {|
    Page oldHead = PageDir.head;
    PageDir.init(16);
    Page p = oldHead;
    while (p != null) {
      Jvolve.transform(p);
      for (int i = 0; i < p.n; i = i + 1) { PageDir.append(p.keys[i]); }
      p = p.next;
    }
|}

(* 1.2 -> 1.3: wrap each value string in a Blob ... *)
let rec_blob_fwd =
  {|
    to.key = from.key;
    to.flags = from.flags;
    to.size = from.size;
    to.next = from.next;
    to.val = new Blob(from.val);
|}

(* ... and unwrap it on revert (the Blob class is gone in 1.2, so [from]
   exposes it as a field-only stub). *)
let rec_blob_inv =
  {|
    to.key = from.key;
    to.flags = from.flags;
    to.size = from.size;
    to.next = from.next;
    to.val = from.val.data;
|}

(* Per-update transformers, keyed by the *target* version.  Every rung
   ships both directions: the forward migration and the inverse the
   guard window applies to back it out. *)
let overrides ~to_version =
  match to_version with
  | "1.1" ->
      {
        Common.no_overrides with
        Common.ov_object = [ ("Rec", rec_split_fwd) ];
        ov_inverse_object = [ ("Rec", rec_split_inv) ];
      }
  | "1.2" ->
      {
        Common.no_overrides with
        Common.ov_object = [ ("Page", page_rekey_fwd) ];
        ov_class = [ ("PageDir", pagedir_rekey_fwd) ];
        ov_inverse_class = [ ("PageDir", pagedir_rekey_inv) ];
      }
  | "1.3" ->
      {
        Common.no_overrides with
        Common.ov_object = [ ("Rec", rec_blob_fwd) ];
        ov_inverse_object = [ ("Rec", rec_blob_inv) ];
      }
  | _ -> Common.no_overrides

(* --- state snapshot / restore ----------------------------------------- *)

(* Durability for the stateful workload: a snapshot is a wire-level
   scrape of the live store — STAT for the shape, SCAN for every page
   (yielding the record set in page-append order), GET for each record —
   serialized with a checksum.  Restoring replays the records as PUTs
   into a freshly booted base-version VM; because the wire protocol is
   version-stable and [Store.put] only appends *new* keys to the page
   index, a replay in snapshot order reconstructs the page directory
   exactly, after which the normal update ladder migrates the recovered
   data forward through any schema hops the dead instance missed. *)

type snapshot = {
  s_version : string; (* schema the store was serving when scraped *)
  s_tick : int; (* VM tick at scrape time *)
  s_records : (int * int * string) list; (* key, meta word, value text *)
}

exception Wire_error of string

(* One synchronous client session against the in-VM server, driving the
   VM's own scheduler until each reply lands (at most 500 rounds per
   line); returns the replies in order. *)
let wire_session vm (lines : string list) : string list =
  let module Client = Jv_simnet.Client in
  let replies = ref [] in
  let c =
    Client.create ~net:vm.Jv_vm.State.net ~port ~script:lines
      ~ok:(fun _ -> true)
      ~arrivals:(Client.Closed { concurrency = 1; max_sessions = 1 })
      ~timeout:499
      ~on_reply:(fun _ reply -> replies := reply :: !replies)
      ()
  in
  (* the session's own clock: a killed VM's ticks stand still *)
  let rounds = ref 0 in
  Client.step c ~now:0;
  if c.Client.launched = 0 then raise (Wire_error "connect refused");
  while c.Client.active <> [] do
    Jv_vm.Vm.run vm ~rounds:1;
    incr rounds;
    Client.step c ~now:!rounds
  done;
  let awaited () = List.nth lines (List.length !replies) in
  if c.Client.dropped_in_flight > 0 then
    raise (Wire_error ("EOF awaiting reply to " ^ awaited ()));
  if c.Client.timed_out_requests > 0 then
    raise (Wire_error ("no reply to " ^ awaited ()));
  List.rev !replies

let field_after ~tag reply =
  let pat = " " ^ tag ^ "=" in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length reply then
      raise (Wire_error ("missing field " ^ tag ^ " in: " ^ reply))
    else if String.sub reply i plen = pat then i + plen
    else find (i + 1)
  in
  let start = find 0 in
  let stop =
    match String.index_from_opt reply start ' ' with
    | Some j -> j
    | None -> String.length reply
  in
  String.sub reply start (stop - start)

let int_field ~tag reply =
  match int_of_string_opt (field_after ~tag reply) with
  | Some n -> n
  | None -> raise (Wire_error ("bad integer field " ^ tag ^ " in: " ^ reply))

(* The value is the *rest of the line* after " v=", so it survives even
   if a payload ever contains '='. *)
let value_field reply =
  let pat = " v=" in
  let rec find i =
    if i + 3 > String.length reply then
      raise (Wire_error ("missing value in: " ^ reply))
    else if String.sub reply i 3 = pat then i + 3
    else find (i + 1)
  in
  let s = find 0 in
  String.sub reply s (String.length reply - s)

let scrape vm : (snapshot, string) result =
  try
    let stat =
      match wire_session vm [ "STAT" ] with
      | [ s ] -> s
      | _ -> raise (Wire_error "STAT: no reply")
    in
    if not (Common.prefix_ok "+OK stat" stat) then
      raise (Wire_error ("STAT failed: " ^ stat));
    let version = field_after ~tag:"v" stat in
    let pages = int_field ~tag:"pages" stat in
    let scans =
      wire_session vm (List.init pages (fun p -> Printf.sprintf "SCAN %d" p))
    in
    let keys =
      List.concat_map
        (fun reply ->
          if not (Common.prefix_ok "+OK page" reply) then
            raise (Wire_error ("SCAN failed: " ^ reply));
          match field_after ~tag:"keys" reply with
          | "" -> []
          | ks -> List.map int_of_string (String.split_on_char ',' ks))
        scans
    in
    let gets =
      wire_session vm (List.map (fun k -> Printf.sprintf "GET %d" k) keys)
    in
    let records =
      List.map2
        (fun k reply ->
          if not (Common.prefix_ok "+OK rec" reply) then
            raise (Wire_error ("GET failed: " ^ reply));
          (k, int_field ~tag:"m" reply, value_field reply))
        keys gets
    in
    Ok { s_version = version; s_tick = vm.Jv_vm.State.ticks;
         s_records = records }
  with
  | Wire_error m -> Error m
  | Failure m -> Error m

(* Serialized form: a header line, one line per record, and a trailing
   MD5 over everything above it.  Same scrape => byte-identical string,
   which is what the heal property tests compare. *)
let snapshot_to_string (s : snapshot) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "jvsnap1 v=%s tick=%d n=%d\n" s.s_version s.s_tick
       (List.length s.s_records));
  List.iter
    (fun (k, m, v) -> Buffer.add_string b (Printf.sprintf "%d %d %s\n" k m v))
    s.s_records;
  let body = Buffer.contents b in
  body ^ "sum=" ^ Digest.to_hex (Digest.string body) ^ "\n"

let snapshot_of_string (str : string) : (snapshot, string) result =
  match String.rindex_opt (String.trim str) '\n' with
  | None -> Error "snapshot: truncated"
  | Some cut -> (
      let body = String.sub str 0 (cut + 1) in
      let sum_line = String.trim (String.sub str (cut + 1)
                                    (String.length str - cut - 1)) in
      if sum_line <> "sum=" ^ Digest.to_hex (Digest.string body) then
        Error "snapshot: checksum mismatch"
      else
        match String.split_on_char '\n' (String.trim body) with
        | [] -> Error "snapshot: empty"
        | header :: rec_lines -> (
            try
              if not (String.length header >= 7
                      && String.sub header 0 7 = "jvsnap1") then
                raise (Wire_error "bad magic");
              let version = field_after ~tag:"v" header in
              let tick = int_field ~tag:"tick" header in
              let n = int_field ~tag:"n" header in
              let records =
                List.map
                  (fun line ->
                    match String.split_on_char ' ' line with
                    | k :: m :: rest when rest <> [] ->
                        (int_of_string k, int_of_string m,
                         String.concat " " rest)
                    | _ -> raise (Wire_error ("bad record line: " ^ line)))
                  rec_lines
              in
              if List.length records <> n then
                raise (Wire_error "record count mismatch");
              Ok { s_version = version; s_tick = tick; s_records = records }
            with
            | Wire_error m -> Error ("snapshot: " ^ m)
            | Failure m -> Error ("snapshot: " ^ m)))

(* Replay a snapshot into a (freshly booted, base-version) VM.  PUT is
   version-stable, so the snapshot restores regardless of which schema
   it was scraped under; catch-up migrations run afterwards. *)
let restore vm (s : snapshot) : (unit, string) result =
  try
    let cmds =
      List.map (fun (k, m, v) -> Printf.sprintf "PUT %d %d %s" k m v)
        s.s_records
    in
    let replies = wire_session vm cmds in
    List.iter
      (fun reply ->
        if not (Common.prefix_ok "+OK put" reply) then
          raise (Wire_error ("PUT failed: " ^ reply)))
      replies;
    Ok ()
  with Wire_error m -> Error m
