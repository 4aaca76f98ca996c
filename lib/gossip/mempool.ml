(* The per-instance update mempool: every node's local view of the
   update proposals and health votes circulating in the fleet, in the
   shape of cardano-sl's update-system MemState — one shared pool,
   accessed only under its lock, deduplicating everything so gossip can
   re-deliver items any number of times.

   Two item kinds live here:

   - a {e proposal}: one requested epoch transition (spec digest, from-
     and to-version, proposed epoch, originating node);
   - a {e vote}: one node's stance on one proposal.  [Pro] votes feed
     the apply quorum; [Con] votes whose reason carries the ["trip:"]
     prefix are guard-trip verdicts and feed the fence quorum.

   Votes are per (proposal, voter) and {e con-sticky}: a voter may
   harden Pro -> Con (its guard tripped after it voted to apply) but a
   later Pro never overwrites a Con — a node that saw its guard trip
   must not be talked back into applying by a re-delivered stale vote.
   So one voter's state is absent < Pro < Con, and one proposal's votes
   form a join-semilattice.  The pool stores them in that lattice's
   canonical form:

   - a {e Pro bitmap} per proposal id: bit v is set iff voter v voted
     Pro and has no Con.  Pro votes carry no reason worth keeping, so
     the bitmap is the whole of them, and it travels as one TALLY line
     ([merge_tally] ORs a received one in, masked by the Con voters);
   - a {e Con table} keyed (proposal, voter), holding each Con vote with
     its reason, which fence decisions and abort reports read.  Each
     voter casts at most one Con per proposal.

   Reads cost what changed, not what the pool holds: every node reads
   its tallies each round, and the runtime compares whole pools once
   the fleet goes quiet.

   - Each proposal id (orphan votes count under the id they name) keeps
     a running (pro, con, trip) count: [pro] is the bitmap's popcount,
     moved by each bit set or cleared; [con] and [trip] move with each
     Con.  [tally] is a lookup.
   - A {e generation} counter moves on every fresh proposal, every Pro
     bit set and every Con added, i.e. whenever the key set changes.
     [keys] is built at most once per generation, and a caller that
     remembers a pool's generation knows its contents did not change
     since.

   Digest keys are [P:<id>], [T:<id>:<bitmap-hex>] (one per proposal id
   with a Pro bit) and [V:<id>:<voter>:C], so two pools holding the same
   votes produce the same keys whatever order they learned them in.

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

type stance = Pro | Con

type vote = {
  v_prop : string; (* proposal id *)
  v_voter : int;
  v_stance : stance;
  v_why : string; (* "trip:<verdict>" marks a guard-trip verdict *)
}

exception Not_locked

let trip_prefix = "trip:"

let is_trip_vote v =
  v.v_stance = Con
  && String.length v.v_why >= String.length trip_prefix
  && String.sub v.v_why 0 (String.length trip_prefix) = trip_prefix

let proposal_id ~epoch ~from_version ~to_version ~digest =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%s|%s" epoch from_version to_version digest))

(* --- voter bitmaps ------------------------------------------------------ *)

(* Voter v is bit [v land 7] of byte [v lsr 3]; on the wire, byte 0
   comes first as two lowercase hex digits, trailing zero bytes
   dropped, so one set of voters has one spelling. *)

let has_bit b v =
  let i = v lsr 3 in
  i < Bytes.length b && Bytes.get_uint8 b i land (1 lsl (v land 7)) <> 0

(* [b] widened to at least [n] bytes *)
let widen b n =
  if Bytes.length b >= n then b
  else begin
    let b' = Bytes.make (max n (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

(* [b] with bit [v] set; widened, so keep the result *)
let set_bit b v =
  let b = widen b ((v lsr 3) + 1) in
  Bytes.set_uint8 b (v lsr 3)
    (Bytes.get_uint8 b (v lsr 3) lor (1 lsl (v land 7)));
  b

(* clear bit [v], which [has_bit] *)
let clear_bit b v =
  Bytes.set_uint8 b (v lsr 3)
    (Bytes.get_uint8 b (v lsr 3) land lnot (1 lsl (v land 7)))

let hex_digit = "0123456789abcdef"

let to_hex b =
  let last = ref (Bytes.length b - 1) in
  while !last >= 0 && Bytes.get b !last = '\000' do
    decr last
  done;
  String.init
    (2 * (!last + 1))
    (fun i ->
      let byte = Bytes.get_uint8 b (i / 2) in
      hex_digit.[if i land 1 = 0 then byte lsr 4 else byte land 15])

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> invalid_arg "Mempool: bad bitmap hex"

(* A well-formed bitmap spelling: non-empty, even length, lowercase hex. *)
let valid_hex s =
  let n = String.length s in
  n > 0
  && n land 1 = 0
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* --- the pool ----------------------------------------------------------- *)

type tally = {
  mutable pro_bits : Bytes.t; (* Pro voters with no Con *)
  mutable con_bits : Bytes.t; (* voters with a Con *)
  mutable pro : int; (* popcount of [pro_bits] *)
  mutable con : int;
  mutable trip : int;
  mutable hex : string option; (* [to_hex pro_bits], until it changes *)
}

type t = {
  mutable locked : bool;
  mutable proposals : proposal list; (* insertion order, newest last *)
  by_id : (string, proposal) Hashtbl.t;
  tallies : (string, tally) Hashtbl.t; (* by proposal id *)
  mutable tally_ids : string list; (* first-vote order, newest first *)
  cons : (string * int, vote) Hashtbl.t; (* (proposal, voter) *)
  mutable con_keys : (string * int) list; (* insertion order, newest first *)
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
    cons = Hashtbl.create 8;
    con_keys = [];
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
          pro_bits = Bytes.empty;
          con_bits = Bytes.empty;
          pro = 0;
          con = 0;
          trip = 0;
          hex = None;
        }
      in
      Hashtbl.replace t.tallies prop c;
      t.tally_ids <- prop :: t.tally_ids;
      c

(* [c.pro] moves by [d]: drop the cached spelling, move the generation. *)
let move_pro t c d =
  c.pro <- c.pro + d;
  c.hex <- None;
  t.gen <- t.gen + 1

let add_vote t v : [ `Fresh | `Hardened | `Stale ] =
  require_lock t;
  if v.v_voter < 0 then invalid_arg "Mempool.add_vote: negative voter";
  let c = tally_for t v.v_prop in
  let voter = v.v_voter in
  if has_bit c.con_bits voter then `Stale (* a second Con, or Pro after Con *)
  else
    match v.v_stance with
    | Pro when has_bit c.pro_bits voter -> `Stale
    | Pro ->
        c.pro_bits <- set_bit c.pro_bits voter;
        move_pro t c 1;
        `Fresh
    | Con ->
        c.con_bits <- set_bit c.con_bits voter;
        Hashtbl.replace t.cons (v.v_prop, voter) v;
        t.con_keys <- (v.v_prop, voter) :: t.con_keys;
        c.con <- c.con + 1;
        if is_trip_vote v then c.trip <- c.trip + 1;
        if has_bit c.pro_bits voter then begin
          clear_bit c.pro_bits voter;
          move_pro t c (-1);
          `Hardened
        end
        else begin
          t.gen <- t.gen + 1;
          `Fresh
        end

(* OR a received Pro bitmap ([valid_hex]) into [prop]'s tally, masked by
   its Con voters.  Returns the voters whose bit this set, lowest
   first; [] when the pool did not change. *)
let merge_tally t ~prop ~hex =
  require_lock t;
  let c = tally_for t prop in
  let fresh = ref [] in
  for i = (String.length hex / 2) - 1 downto 0 do
    let byte b = if i < Bytes.length b then Bytes.get_uint8 b i else 0 in
    let incoming =
      (hex_value hex.[2 * i] lsl 4) lor hex_value hex.[(2 * i) + 1]
    in
    let bits = incoming land lnot (byte c.pro_bits lor byte c.con_bits) in
    if bits <> 0 then begin
      c.pro_bits <- widen c.pro_bits (i + 1);
      Bytes.set_uint8 c.pro_bits i (byte c.pro_bits lor bits);
      for k = 7 downto 0 do
        if bits land (1 lsl k) <> 0 then fresh := ((8 * i) + k) :: !fresh
      done
    end
  done;
  if !fresh <> [] then move_pro t c (List.length !fresh);
  !fresh

(* --- reads (lock required) --------------------------------------------- *)

let find t id =
  require_lock t;
  Hashtbl.find_opt t.by_id id

let proposals t =
  require_lock t;
  t.proposals

(* [voter]'s Con vote on [prop], with its reason. *)
let vote_for t ~prop ~voter =
  require_lock t;
  Hashtbl.find_opt t.cons (prop, voter)

(* (pro, con, trip) tallies for one proposal. *)
let tally t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.tallies prop with
  | Some c -> (c.pro, c.con, c.trip)
  | None -> (0, 0, 0)

(* [prop]'s Pro bitmap as a TALLY line spells it; "" when no voter is
   Pro. *)
let tally_hex t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.tallies prop with
  | None -> ""
  | Some c -> (
      match c.hex with
      | Some h -> h
      | None ->
          let h = to_hex c.pro_bits in
          c.hex <- Some h;
          h)

let generation t =
  require_lock t;
  t.gen

(* --- anti-entropy digests ---------------------------------------------- *)

let tally_key t id = Printf.sprintf "T:%s:%s" id (tally_hex t ~prop:id)
let con_key (prop, voter) = Printf.sprintf "V:%s:%d:C" prop voter

(* Proposal ids with a Pro bit, in first-vote order. *)
let pro_ids t =
  List.rev t.tally_ids
  |> List.filter (fun id -> (Hashtbl.find t.tallies id).pro > 0)

let cons_in_order t = List.rev t.con_keys

(* Stable keys naming every item this pool holds: proposals in insertion
   order, then one tally per proposal id in first-vote order, then Cons
   in insertion order.  A tally's key carries its bitmap, so a tally
   that gained a voter is a different item, and reconciliation must
   move it. *)
let keys t =
  require_lock t;
  if t.keys_gen <> t.gen then begin
    t.keys_cache <-
      List.map (fun p -> "P:" ^ p.p_id) t.proposals
      @ List.map (tally_key t) (pro_ids t)
      @ List.map con_key (cons_in_order t);
    t.keys_gen <- t.gen
  end;
  t.keys_cache

(* Items of [t] whose keys the remote digest lacks (what we should push
   back during reconciliation): proposals, (id, bitmap-hex) tallies and
   Con votes. *)
let missing_from t ~remote_keys =
  require_lock t;
  let remote = Hashtbl.create (List.length remote_keys) in
  List.iter (fun k -> Hashtbl.replace remote k ()) remote_keys;
  let lacks k = not (Hashtbl.mem remote k) in
  ( List.filter (fun p -> lacks ("P:" ^ p.p_id)) t.proposals,
    List.filter_map
      (fun id ->
        if lacks (tally_key t id) then Some (id, tally_hex t ~prop:id)
        else None)
      (pro_ids t),
    List.filter_map
      (fun key ->
        if lacks (con_key key) then Some (Hashtbl.find t.cons key) else None)
      (cons_in_order t) )

(* The number of keys: proposals, tallies with a Pro bit, Cons. *)
let size t = List.length (keys t)
