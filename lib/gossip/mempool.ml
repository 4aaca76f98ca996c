(* The per-instance update mempool: every node's local view of the
   update proposals and health votes circulating in the fleet, in the
   shape of cardano-sl's update-system MemState — one shared pool,
   accessed only under its lock, deduplicating everything so gossip can
   re-deliver items any number of times.

   Two item kinds live here:

   - a {e proposal}: one requested epoch transition (spec digest, from-
     and to-version, proposed epoch, originating node);
   - a {e vote}: one node's signed stance on one proposal.  [Pro] votes
     feed the apply quorum; [Con] votes whose reason carries the
     ["trip:"] prefix are guard-trip verdicts and feed the fence quorum.

   Votes are keyed (proposal, voter) and {e con-sticky}: a voter may
   harden Pro -> Con (its guard tripped after it voted to apply) but a
   later Pro never overwrites a Con — a node that saw its guard trip
   must not be talked back into applying by a re-delivered stale vote.

   Reads cost what changed, not what the pool holds: every node reads
   its tallies each round, and the runtime compares whole pools once
   the fleet goes quiet.

   - Each proposal id (orphan votes count under the id they name) keeps
     a running (pro, con, trip) count, moved by [add_vote]: a fresh vote
     adds one to its stance, a Pro -> Con hardening moves one from pro
     to con (and to trip for a ["trip:"] reason).  [tally] is a lookup.
   - A {e generation} counter moves on every fresh proposal, fresh vote
     and hardening, i.e. whenever the key set changes.  [keys] is built
     at most once per generation, and a caller that remembers a pool's
     generation knows its contents did not change since.

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

type counts = { mutable pro : int; mutable con : int; mutable trip : int }

type t = {
  mutable locked : bool;
  mutable proposals : proposal list; (* insertion order, newest last *)
  by_id : (string, proposal) Hashtbl.t;
  votes : (string * int, vote) Hashtbl.t; (* (proposal, voter) *)
  mutable vote_keys : (string * int) list; (* insertion order, newest first *)
  counts : (string, counts) Hashtbl.t; (* by proposal id *)
  mutable gen : int; (* bumped whenever the key set changes *)
  mutable keys_gen : int; (* the generation [keys_cache] was built at *)
  mutable keys_cache : string list;
}

let create () =
  {
    locked = false;
    proposals = [];
    by_id = Hashtbl.create 8;
    votes = Hashtbl.create 32;
    vote_keys = [];
    counts = Hashtbl.create 8;
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

let counts_for t prop =
  match Hashtbl.find_opt t.counts prop with
  | Some c -> c
  | None ->
      let c = { pro = 0; con = 0; trip = 0 } in
      Hashtbl.replace t.counts prop c;
      c

let count_con c v =
  c.con <- c.con + 1;
  if is_trip_vote v then c.trip <- c.trip + 1

(* A vote need not find its proposal first — gossip reorders freely —
   so orphan votes are kept, and counted under the id they name. *)
let add_vote t v : [ `Fresh | `Hardened | `Stale ] =
  require_lock t;
  let key = (v.v_prop, v.v_voter) in
  match Hashtbl.find_opt t.votes key with
  | None ->
      Hashtbl.replace t.votes key v;
      t.vote_keys <- key :: t.vote_keys;
      let c = counts_for t v.v_prop in
      (match v.v_stance with Pro -> c.pro <- c.pro + 1 | Con -> count_con c v);
      t.gen <- t.gen + 1;
      `Fresh
  | Some old -> (
      match (old.v_stance, v.v_stance) with
      | Pro, Con ->
          Hashtbl.replace t.votes key v;
          let c = counts_for t v.v_prop in
          c.pro <- c.pro - 1;
          count_con c v;
          t.gen <- t.gen + 1;
          `Hardened
      | _ -> `Stale (* same stance, or Pro after Con: con-sticky *))

(* --- reads (lock required) --------------------------------------------- *)

let find t id =
  require_lock t;
  Hashtbl.find_opt t.by_id id

let proposals t =
  require_lock t;
  t.proposals

let vote_for t ~prop ~voter =
  require_lock t;
  Hashtbl.find_opt t.votes (prop, voter)

(* (pro, con, trip) tallies for one proposal. *)
let tally t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.counts prop with
  | Some c -> (c.pro, c.con, c.trip)
  | None -> (0, 0, 0)

let generation t =
  require_lock t;
  t.gen

(* --- anti-entropy digests ---------------------------------------------- *)

let vote_key v =
  Printf.sprintf "V:%s:%d:%s" v.v_prop v.v_voter
    (match v.v_stance with Pro -> "P" | Con -> "C")

(* Every vote, oldest first. *)
let votes_in_order t =
  List.rev_map (fun key -> Hashtbl.find t.votes key) t.vote_keys

(* Stable keys naming every item this pool holds, in insertion order, so
   two pools that saw the same items in the same order produce the same
   digest.  A vote's key carries its stance: a hardened Pro -> Con vote
   is a different item than the Pro it replaced, and reconciliation must
   move it. *)
let keys t =
  require_lock t;
  if t.keys_gen <> t.gen then begin
    t.keys_cache <-
      List.map (fun p -> "P:" ^ p.p_id) t.proposals
      @ List.map vote_key (votes_in_order t);
    t.keys_gen <- t.gen
  end;
  t.keys_cache

(* Items of [t] whose keys the remote digest lacks (what we should push
   back during reconciliation). *)
let missing_from t ~remote_keys =
  require_lock t;
  let remote = Hashtbl.create (List.length remote_keys) in
  List.iter (fun k -> Hashtbl.replace remote k ()) remote_keys;
  let lacks k = not (Hashtbl.mem remote k) in
  ( List.filter (fun p -> lacks ("P:" ^ p.p_id)) t.proposals,
    List.filter (fun v -> lacks (vote_key v)) (votes_in_order t) )

let size t =
  require_lock t;
  Hashtbl.length t.by_id + Hashtbl.length t.votes
