(* The per-instance update mempool: every node's local view of the
   update proposals and health votes circulating in the fleet, in the
   shape of cardano-sl's update-system MemState — one shared pool,
   accessed only under its lock, deduplicating everything so gossip can
   re-deliver items any number of times.

   Two item kinds live here:

   - a {e proposal}: one requested epoch transition (spec digest, from-
     and to-version, proposed epoch, originating node);
   - a {e vote}: one node's stance on one proposal.  [Pro] votes feed
     the apply quorum; [Trip] votes are guard-trip verdicts and feed the
     fence quorum; [Con] is any other refusal.

   Votes are per (proposal, voter) and {e sticky}: one voter's stance is
   absent < Pro < Con < Trip and only rises.  A voter may harden Pro ->
   Trip (its guard tripped after it voted to apply), but a later Pro
   never lowers it — a node that saw its guard trip must not be talked
   back into applying by a re-delivered stale vote.  So one proposal's
   votes form a join-semilattice, stored in its canonical form: three
   voter bitmaps, Pro, Con and Trip, each voter's bit set in the map of
   its highest stance only.  The join ORs a received set of maps in and
   masks each map by the ones above it ([merge]); a node's own vote is
   the same join of a one-voter set ([add_vote]).  Reasons are not
   stored: a node reports its own on its VM's obs sink.

   Reads cost what changed, not what the pool holds: every node reads
   its tallies each round, and the runtime compares whole pools once
   the fleet goes quiet.

   - Each proposal id (orphan votes count under the id they name) keeps
     each map's popcount, moved by every bit the join sets or clears;
     [tally] is a lookup.
   - A {e generation} counter moves on every fresh proposal and every
     join that raised a voter, i.e. whenever the key set changes.
     [keys] is built at most once per generation, and a caller that
     remembers a pool's generation knows its contents did not change
     since.

   Digest keys are [P:<id>] and [T:<id>:<pro>[:<con>[:<trip>]]], the
   maps spelled as on a TALLY line, so two pools holding the same votes
   produce the same keys whatever order they learned them in.

   The lock is deliberately crude — a boolean plus [Not_locked] on every
   access outside [with_lock], non-reentrant — because what it checks is
   the discipline, not mutual exclusion: the simulation is single-
   threaded, but every code path must still tolerate the discipline a
   real concurrent pool would impose. *)

type proposal = {
  p_id : string; (* content id: digest of (epoch, versions, spec digest) *)
  p_epoch : int; (* the epoch this proposal advances the fleet to *)
  p_from_version : string;
  p_to_version : string;
  p_digest : string; (* digest of the new version's program source *)
  p_origin : int; (* proposing node *)
}

(* In rising order; a stance indexes its map. *)
type stance = Pro | Con | Trip

let index = function Pro -> 0 | Con -> 1 | Trip -> 2

exception Not_locked

let proposal_id ~epoch ~from_version ~to_version ~digest =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%s|%s" epoch from_version to_version digest))

(* --- voter bitmaps ------------------------------------------------------ *)

(* Voter v is bit [v land 7] of byte [v lsr 3]; on the wire, byte 0
   comes first as two lowercase hex digits, trailing zero bytes
   dropped, and an empty map is "-", so one set of voters has one
   spelling. *)

(* [b] widened to at least [n] bytes *)
let widen b n =
  if Bytes.length b >= n then b
  else begin
    let b' = Bytes.make (max n (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))
let hex_digit = "0123456789abcdef"

let to_hex b =
  let last = ref (Bytes.length b - 1) in
  while !last >= 0 && Bytes.get b !last = '\000' do
    decr last
  done;
  if !last < 0 then "-"
  else
    String.init
      (2 * (!last + 1))
      (fun i ->
        let byte = Bytes.get_uint8 b (i / 2) in
        hex_digit.[if i land 1 = 0 then byte lsr 4 else byte land 15])

let[@inline] hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> invalid_arg "Mempool: bad bitmap hex"

(* byte [i] of a map spelled [s], 0 past its end (so all of "-") *)
let[@inline] hex_byte s i =
  if (2 * i) + 1 >= String.length s then 0
  else (hex_value s.[2 * i] lsl 4) lor hex_value s.[(2 * i) + 1]

(* One map's canonical spelling: "-", or even-length lowercase hex whose
   last byte is not zero. *)
let valid_map s =
  let n = String.length s in
  s = "-"
  || n > 0
     && n land 1 = 0
     && String.for_all
          (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
          s
     && not (s.[n - 2] = '0' && s.[n - 1] = '0')

(* No voter's bit is set in two of [maps]. *)
let disjoint maps =
  let n = List.fold_left (fun n s -> max n (String.length s / 2)) 0 maps in
  let rec from i =
    i >= n
    ||
    let xs = List.map (fun s -> hex_byte s i) maps in
    popcount (List.fold_left ( lor ) 0 xs)
    = List.fold_left (fun sum x -> sum + popcount x) 0 xs
    && from (i + 1)
  in
  from 0

(* A canonical TALLY spelling of a non-empty set of votes: one to three
   maps, the last not empty, no voter in two maps. *)
let valid_maps maps =
  match maps with
  | [ pro ] -> pro <> "-" && valid_map pro
  | [ _; last ] | [ _; _; last ] ->
      last <> "-" && List.for_all valid_map maps && disjoint maps
  | _ -> false

(* --- the pool ----------------------------------------------------------- *)

type tally = {
  maps : Bytes.t array; (* by [index]; a voter's bit in at most one *)
  counts : int array; (* each map's popcount *)
  mutable spelling : string list option; (* [maps] as TALLY fields *)
}

type t = {
  mutable locked : bool;
  mutable proposals : proposal list; (* insertion order, newest last *)
  by_id : (string, proposal) Hashtbl.t;
  tallies : (string, tally) Hashtbl.t; (* by proposal id, never empty *)
  mutable tally_ids : string list; (* first-vote order, newest first *)
  mutable gen : int; (* bumped whenever the key set changes *)
  mutable keys_gen : int; (* the generation [keys_cache] was built at *)
  mutable keys_cache : string list;
}

let create () =
  {
    locked = false;
    proposals = [];
    by_id = Hashtbl.create 8;
    tallies = Hashtbl.create 8;
    tally_ids = [];
    gen = 0;
    keys_gen = 0;
    keys_cache = [];
  }

let with_lock t f =
  if t.locked then invalid_arg "Mempool.with_lock: non-reentrant";
  t.locked <- true;
  Fun.protect ~finally:(fun () -> t.locked <- false) f

let require_lock t = if not t.locked then raise Not_locked

(* --- mutation (lock required) ------------------------------------------ *)

let add_proposal t p : [ `Fresh | `Duplicate ] =
  require_lock t;
  if Hashtbl.mem t.by_id p.p_id then `Duplicate
  else begin
    Hashtbl.replace t.by_id p.p_id p;
    t.proposals <- t.proposals @ [ p ];
    t.gen <- t.gen + 1;
    `Fresh
  end

(* A vote need not find its proposal first — gossip reorders freely —
   so orphan votes are kept, and counted under the id they name. *)
let tally_for t prop =
  match Hashtbl.find_opt t.tallies prop with
  | Some c -> c
  | None ->
      let c =
        {
          maps = Array.make 3 Bytes.empty;
          counts = Array.make 3 0;
          spelling = None;
        }
      in
      Hashtbl.replace t.tallies prop c;
      t.tally_ids <- prop :: t.tally_ids;
      c

(* Byte [i] of map [k], widened past [i], goes from [was] to [now]. *)
let store c k i ~was ~now =
  if now <> was then begin
    Bytes.set_uint8 c.maps.(k) i now;
    c.counts.(k) <- c.counts.(k) + popcount now - popcount was
  end

(* Join a tally, its maps spelled as [valid_maps] accepts, into
   [prop]'s tally.  Returns the voters whose stance rose, lowest first;
   [] when the pool did not change. *)
let merge t ~prop ~maps =
  require_lock t;
  let map k = match List.nth_opt maps k with Some s -> s | None -> "-" in
  let in_pro = map 0 and in_con = map 1 and in_trip = map 2 in
  let c = tally_for t prop in
  let rose = ref [] in
  let len =
    max (String.length in_pro)
      (max (String.length in_con) (String.length in_trip))
    / 2
  in
  Array.iteri (fun k b -> c.maps.(k) <- widen b len) c.maps;
  let pm = c.maps.(0) and cm = c.maps.(1) and tm = c.maps.(2) in
  for i = len - 1 downto 0 do
    let op = Bytes.get_uint8 pm i
    and oc = Bytes.get_uint8 cm i
    and ot = Bytes.get_uint8 tm i in
    let trip = ot lor hex_byte in_trip i in
    let con = (oc lor hex_byte in_con i) land lnot trip in
    let pro = (op lor hex_byte in_pro i) land lnot (con lor trip) in
    (* a bit new to its map is a voter that rose: higher maps never
       lose one *)
    let up =
      (pro land lnot op) lor (con land lnot oc) lor (trip land lnot ot)
    in
    if up <> 0 then begin
      store c 0 i ~was:op ~now:pro;
      store c 1 i ~was:oc ~now:con;
      store c 2 i ~was:ot ~now:trip;
      for b = 7 downto 0 do
        if up land (1 lsl b) <> 0 then rose := ((8 * i) + b) :: !rose
      done
    end
  done;
  if !rose <> [] then begin
    c.spelling <- None;
    t.gen <- t.gen + 1
  end;
  !rose

(* One voter's vote, as the merge of a one-voter tally; [true] iff its
   stance rose. *)
let add_vote t ~prop ~voter stance =
  if voter < 0 then invalid_arg "Mempool.add_vote: negative voter";
  let hex =
    String.make (2 * (voter lsr 3)) '0'
    ^ Printf.sprintf "%02x" (1 lsl (voter land 7))
  in
  let k = index stance in
  merge t ~prop ~maps:(List.init (k + 1) (fun k' -> if k' = k then hex else "-"))
  <> []

(* --- reads (lock required) --------------------------------------------- *)

let find t id =
  require_lock t;
  Hashtbl.find_opt t.by_id id

let proposals t =
  require_lock t;
  t.proposals

(* (pro, con, trip) tallies for one proposal; [con] counts every voter
   against it, trips included. *)
let tally t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.tallies prop with
  | Some c -> (c.counts.(0), c.counts.(1) + c.counts.(2), c.counts.(2))
  | None -> (0, 0, 0)

(* [prop]'s maps as a TALLY line spells them, trailing empty maps
   dropped; [] when no voter voted. *)
let tally_maps t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.tallies prop with
  | None -> []
  | Some c -> (
      match c.spelling with
      | Some s -> s
      | None ->
          let rec trim = function
            | "-" :: rest -> trim rest
            | rest -> rest
          in
          let s =
            List.rev (trim (List.rev_map to_hex (Array.to_list c.maps)))
          in
          c.spelling <- Some s;
          s)

let generation t =
  require_lock t;
  t.gen

(* --- anti-entropy digests ---------------------------------------------- *)

let tally_key t id = String.concat ":" ("T" :: id :: tally_maps t ~prop:id)

(* Stable keys naming every item this pool holds: proposals in insertion
   order, then one tally per proposal id in first-vote order.  A tally's
   key carries its maps, so a tally that gained a voter is a different
   item, and reconciliation must move it. *)
let keys t =
  require_lock t;
  if t.keys_gen <> t.gen then begin
    t.keys_cache <-
      List.map (fun p -> "P:" ^ p.p_id) t.proposals
      @ List.rev_map (tally_key t) t.tally_ids;
    t.keys_gen <- t.gen
  end;
  t.keys_cache

(* Items of [t] whose keys the remote digest lacks (what we should push
   back during reconciliation): proposals and (id, maps) tallies. *)
let missing_from t ~remote_keys =
  require_lock t;
  let remote = Hashtbl.create (List.length remote_keys) in
  List.iter (fun k -> Hashtbl.replace remote k ()) remote_keys;
  let lacks k = not (Hashtbl.mem remote k) in
  ( List.filter (fun p -> lacks ("P:" ^ p.p_id)) t.proposals,
    List.rev t.tally_ids
    |> List.filter_map (fun id ->
           if lacks (tally_key t id) then Some (id, tally_maps t ~prop:id)
           else None) )

(* The number of keys: proposals and tallies. *)
let size t = List.length (keys t)
