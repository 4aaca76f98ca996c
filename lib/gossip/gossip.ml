(* The gossip runtime: a control plane for decentralized rollouts.

   Every fleet instance gets a [Node] and a listener on a shared control
   simnet (base port + id).  Dissemination is classic push rumor
   mongering plus periodic anti-entropy, both drawing every random
   choice from one [Jv_faults] stream so a (plan, seed) pair replays the
   whole rollout byte-for-byte:

   - {e rumor push}: an item a node just learned stays "hot" for
     [rumor_rounds] rounds; each round the node opens short-lived
     connections to [g_fanout] randomly drawn peers and pushes every hot
     line, fire-and-forget.  A proposal's votes are one hot tally, not
     one line per voter: a tally that grows keeps its entry and
     restarts its rounds, and is encoded from the pool once per push,
     so it always carries every vote the node knows;
   - {e anti-entropy}: every [g_digest_every] rounds (staggered by node
     id) a node sends one random peer a digest of its mempool keys; the
     peer pushes back whatever the digest lacks and ends its answer with
     a WANT for what it is missing itself, which the initiator answers
     and then closes the exchange — this pull half is what drags
     stragglers back after drops, delays and healed partitions.  A tally
     whose maps differ has different keys on both sides, so it moves
     both ways.

   The chaos plan armed on the control net (net.connect / net.link /
   simnet.partition points) is the same [Faults.t] the peer chooser
   draws from, so faults and schedules stay aligned under one seed.

   No component here sees the whole fleet: the runtime moves bytes and
   steps nodes; every halt/fence/apply decision is taken inside a node
   from its own mempool. *)

module J = Jvolve_core
module VM = Jv_vm
module F = Jv_fleet
module Simnet = Jv_simnet.Simnet
module Faults = Jv_faults.Faults
module Obs = Jv_obs.Obs

let default_base_port = 7000

type params = {
  g_fanout : int;
  g_digest_every : int; (* anti-entropy period per node *)
  g_quorum : float; (* apply at ceil(q * N) Pro votes *)
  g_apply_jitter : int; (* max random per-node delay before draining *)
  g_drain_timeout : int;
  g_update_timeout : int;
  g_max_retries : int;
  g_backoff_base : int;
  g_guard : J.Guard.config option; (* probe bound per node if absent *)
  g_seed : int;
}

let default_params =
  {
    g_fanout = 3;
    g_digest_every = 16;
    g_quorum = 0.51;
    g_apply_jitter = 24;
    g_drain_timeout = 120;
    g_update_timeout = 400;
    g_max_retries = 2;
    g_backoff_base = 40;
    g_guard = None;
    g_seed = 42;
  }

(* Rounds a freshly learned item stays hot (pushed to [g_fanout] peers
   each round). *)
let rumor_rounds = 4

(* Trip votes that condemn a proposal: any one guard trip fences. *)
let fence_votes = 1

(* A hot rumor, encoded at push time: a proposal's tally then carries
   every vote the pool holds. *)
type hot = { h_rumor : Node.rumor; mutable h_ttl : int }

let is_settled_phase = function
  | Node.Idle | Node.Stuck _ -> true
  | _ -> false

type peer_state = {
  mutable ps_node : Node.t; (* replaced on supervisor rejoin *)
  ps_port : int;
  ps_listener : int;
  mutable ps_sconns : int list; (* server conns, accept order *)
  mutable ps_hot : hot list; (* newest last *)
  mutable ps_digests : (int * int) list; (* open digest conns: (cid, ttl) *)
}

type t = {
  fleet : F.Fleet.t;
  params : params;
  net : Simnet.t; (* the shared control plane *)
  rng : Faults.t; (* chaos plan AND schedule randomness *)
  mutable peers : peer_state array;
  base_port : int;
  quorum : int;
  epoch_counts : (int, int) Hashtbl.t; (* over live (counted) nodes *)
  counted : bool array; (* node still in the convergence tally *)
  mutable mixed_window : int;
  mutable last_net_bytes : int;
  mutable proposed_epoch : int option; (* highest epoch ever proposed *)
  mutable synced : ((Mempool.t * int) array * bool) option;
      (* the last [same_key_sets] answer, with each peer's pool and its
         generation at the time *)
}

let obs t = F.Fleet.obs t.fleet

(* --- construction ------------------------------------------------------- *)

let count_epoch t ~old_epoch ~new_epoch =
  let get e = Option.value ~default:0 (Hashtbl.find_opt t.epoch_counts e) in
  (match old_epoch with
  | None -> ()
  | Some e ->
      let n = get e - 1 in
      if n <= 0 then Hashtbl.remove t.epoch_counts e
      else Hashtbl.replace t.epoch_counts e n);
  match new_epoch with
  | None -> ()
  | Some e -> Hashtbl.replace t.epoch_counts e (get e + 1)

let spec_digest profile ~to_version =
  Digest.to_hex
    (Digest.string (Jv_apps.App.source profile ~version:to_version))

(* Build the [Node] for instance [id], drawing its backoff jitter from
   the shared schedule stream.  Used by [create] for every instance and
   again by [rejoin] when the supervisor replaces a crashed VM — the
   node and its closures hold the (mutable) [Instance.t] record, not the
   VM, so they stay valid across a reboot. *)
let node_for t ~id ~epoch =
  let profile = t.fleet.F.Fleet.profile in
  let inst = F.Fleet.instance t.fleet id in
  let jitter =
    if t.params.g_apply_jitter > 0 then
      Faults.draw_int t.rng (t.params.g_apply_jitter + 1)
    else 0
  in
  let cfg =
    {
      Node.nc_quorum = t.quorum;
      nc_fence = fence_votes;
      nc_drain_timeout = t.params.g_drain_timeout;
      nc_update_timeout = t.params.g_update_timeout;
      nc_max_retries = t.params.g_max_retries;
      nc_backoff_base = t.params.g_backoff_base + jitter;
      nc_guard =
        F.Lifecycle.guard_for ~probe_deadline:F.Lifecycle.probe_deadline
          profile inst t.params.g_guard;
    }
  in
  Node.create ~epoch ~inst ~cfg ~lb:(F.Fleet.lb t.fleet)
    ~hop_for:(fun (p : Mempool.proposal) ->
      if p.Mempool.p_from_version <> inst.F.Instance.i_version then
        Error "base version mismatch"
      else
        Ok
          (F.Fleet.hop t.fleet ~from_version:p.Mempool.p_from_version
             ~to_version:p.Mempool.p_to_version))
    ~on_epoch:(fun old_e new_e ->
      count_epoch t ~old_epoch:(Some old_e) ~new_epoch:(Some new_e))
    ()

(* [chaos], when given, is armed on the control net (net.connect,
   net.link, simnet.partition) and replaces the plain seeded stream as
   the source of every schedule draw. *)
let create ?chaos ?(params = default_params) ~fleet () =
  let n = F.Fleet.size fleet in
  let net = Simnet.create () in
  Simnet.set_obs net (F.Fleet.obs fleet);
  let rng =
    match chaos with
    | Some p -> p
    | None -> Faults.create ~seed:params.g_seed ()
  in
  (match chaos with
  | Some p ->
      Simnet.set_faults net (Some p);
      Faults.set_obs p (F.Fleet.obs fleet)
  | None -> ());
  let quorum =
    max 1 (int_of_float (ceil (params.g_quorum *. float_of_int n)))
  in
  let t =
    {
      fleet;
      params;
      net;
      rng;
      peers = [||];
      base_port = default_base_port;
      quorum;
      epoch_counts = Hashtbl.create 4;
      counted = Array.make n true;
      mixed_window = 0;
      last_net_bytes = 0;
      proposed_epoch = None;
      synced = None;
    }
  in
  Hashtbl.replace t.epoch_counts 0 n;
  let peers =
    Array.init n (fun id ->
        let port = t.base_port + id in
        let listener = Simnet.listen net ~port in
        {
          ps_node = node_for t ~id ~epoch:0;
          ps_port = port;
          ps_listener = listener;
          ps_sconns = [];
          ps_hot = [];
          ps_digests = [];
        })
  in
  t.peers <- peers;
  t

let node t id = t.peers.(id).ps_node
let size t = Array.length t.peers

(* --- proposing ---------------------------------------------------------- *)

(* Inject a proposal at [origin]'s mempool, exactly as if it had arrived
   over the wire: the node votes and the rumor starts spreading from
   there.  Returns the proposal id. *)
let propose t ~origin ~to_version =
  let profile = t.fleet.F.Fleet.profile in
  let nd = node t origin in
  let inst = t.fleet |> fun f -> F.Fleet.instance f origin in
  let from_version = inst.F.Instance.i_version in
  let epoch = Node.epoch nd + 1 in
  let digest = spec_digest profile ~to_version in
  let id = Mempool.proposal_id ~epoch ~from_version ~to_version ~digest in
  let p =
    {
      Mempool.p_id = id;
      p_epoch = epoch;
      p_from_version = from_version;
      p_to_version = to_version;
      p_digest = digest;
      p_origin = origin;
    }
  in
  t.proposed_epoch <-
    Some (max epoch (Option.value ~default:0 t.proposed_epoch));
  Obs.emit (obs t) ~scope:"gossip" "propose"
    [
      ("origin", Obs.Int origin);
      ("epoch", Obs.Int epoch);
      ("to", Obs.Str to_version);
      ("id", Obs.Str id);
    ];
  Node.learn nd (Wire.Prop p);
  id

(* --- the wire ----------------------------------------------------------- *)

(* [id]'s tally as it stands in [pool]; [None] with no vote. *)
let tally_msg pool id : Wire.msg option =
  match Mempool.tally_maps pool ~prop:id with
  | [] -> None
  | maps -> Some (Wire.Tally { t_prop = id; t_maps = maps })

let key_item pool key : Wire.msg option =
  match String.split_on_char ':' key with
  | [ "P"; id ] ->
      Option.map (fun p -> Wire.Prop p) (Mempool.find pool id)
  | "T" :: id :: _maps -> tally_msg pool id
  | _ -> None

(* The items of a WANT that [ps]'s pool holds. *)
let wanted (ps : peer_state) keys =
  let pool = Node.pool ps.ps_node in
  Mempool.with_lock pool (fun () -> List.filter_map (key_item pool) keys)

(* Server side: ingest every line pending on [ps]'s accepted conns,
   answering digests in place; every answer ends with its WANT. *)
let serve t (ps : peer_state) =
  (* accept everything pending *)
  let rec accept_all () =
    match Simnet.accept t.net ~listener_id:ps.ps_listener with
    | None -> ()
    | Some cid ->
        ps.ps_sconns <- ps.ps_sconns @ [ cid ];
        accept_all ()
  in
  accept_all ();
  let handle_line cid line =
    match Wire.decode line with
    | Error _ -> Obs.incr (obs t) "gossip.bad_lines"
    | Ok ((Wire.Prop _ | Wire.Tally _) as m) -> Node.learn ps.ps_node m
    | Ok (Wire.Digest d_keys) ->
        let props, tallies, want =
          Mempool.with_lock (Node.pool ps.ps_node) (fun () ->
              let pool = Node.pool ps.ps_node in
              let props, tallies =
                Mempool.missing_from pool ~remote_keys:d_keys
              in
              let ours = Mempool.keys pool in
              let mine = Hashtbl.create 32 in
              List.iter (fun k -> Hashtbl.replace mine k ()) ours;
              let want =
                List.filter (fun k -> not (Hashtbl.mem mine k)) d_keys
              in
              (props, tallies, want))
        in
        if props <> [] || tallies <> [] || want <> [] then
          Obs.incr (obs t) "gossip.digest_reconciliations";
        let answer m = Simnet.send t.net ~conn_id:cid (Wire.encode m) in
        List.iter (fun p -> answer (Wire.Prop p)) props;
        List.iter
          (fun (id, maps) -> answer (Wire.Tally { t_prop = id; t_maps = maps }))
          tallies;
        (* the terminal line, "WANT -" when we lack nothing: the
           initiator closes the exchange on it *)
        answer (Wire.Want want)
    | Ok (Wire.Want keys) ->
        List.iter
          (fun m -> Simnet.send t.net ~conn_id:cid (Wire.encode m))
          (wanted ps keys)
    | Ok Wire.Bye -> ()
  in
  ps.ps_sconns <-
    List.filter
      (fun cid ->
        let rec drain () =
          match Simnet.recv_line t.net ~conn_id:cid with
          | `Line l ->
              handle_line cid l;
              drain ()
          | `Wait -> true
          | `Eof ->
              Simnet.close_server t.net ~conn_id:cid;
              Simnet.reap t.net ~conn_id:cid;
              false
        in
        drain ())
      ps.ps_sconns

(* Draw a random peer other than [self]; [None] on a 1-node fleet. *)
let draw_peer t ~self =
  let n = size t in
  if n <= 1 then None
  else
    let j = Faults.draw_int t.rng (n - 1) in
    Some (if j >= self then j + 1 else j)

let bye_line = Wire.encode Wire.Bye

(* The lines of [ps]'s hot rumors, each tally as it stands now. *)
let hot_lines (ps : peer_state) =
  let pool = Node.pool ps.ps_node in
  Mempool.with_lock pool (fun () ->
      List.filter_map
        (fun h ->
          Option.map Wire.encode
            (match h.h_rumor with
            | Node.Prop p -> Some (Wire.Prop p)
            | Node.Tally id -> tally_msg pool id))
        ps.ps_hot)

(* Fire-and-forget rumor push: all hot lines to [g_fanout] random peers.
   A refused connect (partition, net.connect fault) just loses this
   push; anti-entropy repairs later. *)
let push_rumors t ~self (ps : peer_state) =
  if ps.ps_hot <> [] then begin
    let lines = hot_lines ps in
    for _ = 1 to t.params.g_fanout do
      match draw_peer t ~self with
      | None -> ()
      | Some peer -> (
          match
            Simnet.connect ~from:ps.ps_port t.net
              ~port:(t.base_port + peer)
          with
          | None -> Obs.incr (obs t) "gossip.push_refused"
          | Some cid ->
              List.iter (Simnet.client_send t.net ~conn_id:cid) lines;
              Simnet.client_send t.net ~conn_id:cid bye_line;
              Simnet.client_close t.net ~conn_id:cid;
              Obs.incr (obs t) "gossip.pushes")
    done;
    List.iter (fun h -> h.h_ttl <- h.h_ttl - 1) ps.ps_hot;
    ps.ps_hot <- List.filter (fun h -> h.h_ttl > 0) ps.ps_hot
  end

(* Open one anti-entropy exchange: send our digest, keep the connection
   to read the peer's answer (missing items, then its WANT).  The TTL
   only matters when that answer never comes: a peer behind a partition,
   or a dropped DIGEST or WANT line. *)
let start_digest t ~self (ps : peer_state) =
  match draw_peer t ~self with
  | None -> ()
  | Some peer -> (
      match
        Simnet.connect ~from:ps.ps_port t.net ~port:(t.base_port + peer)
      with
      | None -> Obs.incr (obs t) "gossip.digest_refused"
      | Some cid ->
          let keys =
            Mempool.with_lock (Node.pool ps.ps_node) (fun () ->
                Mempool.keys (Node.pool ps.ps_node))
          in
          Simnet.client_send t.net ~conn_id:cid (Wire.encode (Wire.Digest keys));
          ps.ps_digests <-
            ps.ps_digests @ [ (cid, 2 * t.params.g_digest_every) ])

(* Pump open digest exchanges: learn pushed items, answer the terminal
   WANT and close, expire exchanges whose answer never came. *)
let pump_digests t (ps : peer_state) =
  ps.ps_digests <-
    List.filter_map
      (fun (cid, ttl) ->
        let finished = ref false in
        let rec drain () =
          match Simnet.client_recv t.net ~conn_id:cid with
          | `Wait -> ()
          | `Eof -> finished := true
          | `Line l ->
              (match Wire.decode l with
              | Ok ((Wire.Prop _ | Wire.Tally _) as m) ->
                  Node.learn ps.ps_node m
              | Ok (Wire.Want keys) ->
                  List.iter
                    (fun m ->
                      Simnet.client_send t.net ~conn_id:cid (Wire.encode m))
                    (wanted ps keys);
                  Simnet.client_send t.net ~conn_id:cid bye_line;
                  Simnet.client_close t.net ~conn_id:cid;
                  finished := true
              | Ok (Wire.Digest _ | Wire.Bye) | Error _ -> ());
              if not !finished then drain ()
        in
        drain ();
        if !finished then None
        else if ttl <= 1 then begin
          (* peer unreachable (partition?): give up on this exchange *)
          Simnet.client_close t.net ~conn_id:cid;
          None
        end
        else Some (cid, ttl - 1))
      ps.ps_digests

(* --- rejoin ------------------------------------------------------------- *)

(* Rebuild instance [id]'s gossip node after a supervisor restart.  The
   restarted VM carries no mempool and no epoch history, so the node:

   - adopts the {e mode} epoch of the surviving tally (tie -> higher:
     under-claiming would re-count an already-applied hop as progress);
   - is re-entered into the convergence tallies ([note_stuck] removed it
     when the crash wedged the old node);
   - bootstraps its empty mempool by opening an anti-entropy exchange
     immediately: the DIGEST/WANT pull brings back every proposal and
     tally the fleet holds, and the learned trip votes are
     what stop the rejoiner from re-applying a fenced update —
     [Node.actionable] refuses any proposal at or past the fence
     threshold.

   The listener and half-read server connections live on the shared
   control net, not the dead VM, so they survive; only the hot-rumor
   queue and open client exchanges of the old node are discarded. *)
let rejoin t id =
  let ps = t.peers.(id) in
  let epoch =
    let best =
      Hashtbl.fold
        (fun e n best ->
          match best with
          | Some (be, bn) when bn > n || (bn = n && be > e) -> best
          | _ -> Some (e, n))
        t.epoch_counts None
    in
    match best with Some (e, _) -> e | None -> Node.epoch ps.ps_node
  in
  let old_epoch =
    if t.counted.(id) then Some (Node.epoch ps.ps_node) else None
  in
  count_epoch t ~old_epoch ~new_epoch:(Some epoch);
  t.counted.(id) <- true;
  ps.ps_node <- node_for t ~id ~epoch;
  ps.ps_hot <- [];
  List.iter
    (fun (cid, _) -> Simnet.client_close t.net ~conn_id:cid)
    ps.ps_digests;
  ps.ps_digests <- [];
  Obs.incr (obs t) "gossip.rejoins";
  Obs.emit (obs t) ~scope:"gossip" "node.rejoin"
    [ ("node", Obs.Int id); ("epoch", Obs.Int epoch) ];
  start_digest t ~self:id ps

(* --- the round ---------------------------------------------------------- *)

let note_stuck t =
  Array.iteri
    (fun id ps ->
      if t.counted.(id) && not (Node.live ps.ps_node) then begin
        t.counted.(id) <- false;
        count_epoch t
          ~old_epoch:(Some (Node.epoch ps.ps_node))
          ~new_epoch:None;
        Obs.incr (obs t) "gossip.stuck_nodes"
      end)
    t.peers

(* Every mempool holds the same key set. *)
let same_key_sets t =
  let n = Array.length t.peers in
  n = 0
  ||
  let pool0 = Node.pool t.peers.(0).ps_node in
  let size0, keys0 =
    Mempool.with_lock pool0 (fun () -> (Mempool.size pool0, Mempool.keys pool0))
  in
  let set0 = Hashtbl.create (max 16 size0) in
  List.iter (fun k -> Hashtbl.replace set0 k ()) keys0;
  Array.for_all
    (fun ps ->
      let pool = Node.pool ps.ps_node in
      Mempool.with_lock pool (fun () ->
          Mempool.size pool = size0
          && List.for_all (Hashtbl.mem set0) (Mempool.keys pool)))
    t.peers

(* [same_key_sets], exact but memoised: the answer depends only on the
   pools' contents, so it is reused until some pool's generation moves
   or [rejoin] swaps a fresh pool in. *)
let pools_synced t =
  let at =
    Array.map
      (fun ps ->
        let pool = Node.pool ps.ps_node in
        (pool, Mempool.with_lock pool (fun () -> Mempool.generation pool)))
      t.peers
  in
  match t.synced with
  | Some (last, answer)
    when Array.for_all2 (fun (p, g) (p', g') -> p == p' && g = g') at last ->
      answer
  | _ ->
      let answer = same_key_sets t in
      t.synced <- Some (at, answer);
      answer

(* Make a node's fresh rumor hot; a tally already hot restarts its
   rounds in place. *)
let heat (ps : peer_state) r =
  match (r, List.find_opt (fun h -> h.h_rumor = r) ps.ps_hot) with
  | Node.Tally _, Some h -> h.h_ttl <- rumor_rounds
  | _ -> ps.ps_hot <- ps.ps_hot @ [ { h_rumor = r; h_ttl = rumor_rounds } ]

(* Anti-entropy runs only while there is something to reconcile: once
   every node settled on one epoch with no hot rumors left AND every
   mempool holds the same key set, a new digest exchange would carry
   nothing, and stopping them lets [run] detect quiescence instead of
   chasing a perpetually refreshed exchange.  The key-set check is what
   keeps a partitioned minority reachable: its nodes are settled on the
   old epoch with their rumors expired, but their pools lag, so digests
   keep flowing and the pull half rescues them after the heal.  The pool
   comparison only runs once the cheap settled/uniform/no-hot prefix
   holds, and [pools_synced] answers from its memo while no pool
   changed — so the quiet tail, where the last open exchanges close,
   rescans nothing. *)
let quiet t =
  Hashtbl.length t.epoch_counts = 1
  && Array.for_all
       (fun ps -> is_settled_phase (Node.phase ps.ps_node) && ps.ps_hot = [])
       t.peers
  && pools_synced t

let step t =
  F.Fleet.round t.fleet;
  let now = F.Fleet.ticks t.fleet in
  Obs.incr (obs t) "gossip.rounds";
  Simnet.tick_faults t.net;
  (* ingest, decide, then spread what this round produced *)
  Array.iter (fun ps -> serve t ps) t.peers;
  Array.iter (fun ps -> pump_digests t ps) t.peers;
  Array.iter (fun ps -> Node.tick ps.ps_node ~now) t.peers;
  note_stuck t;
  Array.iter
    (fun ps -> List.iter (heat ps) (Node.take_out ps.ps_node))
    t.peers;
  let quiet = quiet t in
  Array.iteri
    (fun id ps ->
      push_rumors t ~self:id ps;
      if (not quiet) && (now + id) mod t.params.g_digest_every = 0 then
        start_digest t ~self:id ps)
    t.peers;
  (* accounting *)
  let to_srv, to_cli = Simnet.stats t.net in
  let total = to_srv + to_cli in
  if total > t.last_net_bytes then begin
    Obs.incr (obs t) ~by:(total - t.last_net_bytes) "gossip.rumor_bytes";
    t.last_net_bytes <- total
  end;
  if Hashtbl.length t.epoch_counts > 1 then begin
    t.mixed_window <- t.mixed_window + 1;
    Obs.incr (obs t) "gossip.mixed_rounds"
  end

(* --- convergence -------------------------------------------------------- *)

(* All counted nodes share one epoch (incrementally maintained). *)
let uniform_epoch t =
  if Hashtbl.length t.epoch_counts = 1 then
    Hashtbl.fold (fun e _ _ -> Some e) t.epoch_counts None
  else None

(* No node is mid-protocol: every live node is Idle or Guarded-closed. *)
let settled t =
  Array.for_all (fun ps -> is_settled_phase (Node.phase ps.ps_node)) t.peers

let converged t = settled t && uniform_epoch t <> None
let mixed_window t = t.mixed_window

let run t ?(on_round = fun _ -> ()) ~max_rounds () =
  let rec go r =
    if r >= max_rounds then r
    else begin
      step t;
      on_round t;
      (* a rollout is done when dissemination has quiesced too: no hot
         rumors left, every pool holding the same keys and every digest
         exchange closed, so convergence is not a lucky instant — nor a
         lull before a healed partition's digests carry the proposal
         across *)
      if quiet t && Array.for_all (fun ps -> ps.ps_digests = []) t.peers
      then r + 1
      else go (r + 1)
    end
  in
  go 0

(* --- reporting ---------------------------------------------------------- *)

type report = {
  gr_rounds : int;
  gr_converged : bool;
  gr_epoch : int option; (* the common epoch, when converged *)
  gr_applied : int; (* live nodes above epoch 0 *)
  gr_stuck : int list;
  gr_fenced : bool; (* any node enforced a fence *)
  gr_mixed_window : int;
  gr_rumor_bytes : int;
  gr_pushes : int;
  gr_digest_recons : int;
  gr_votes_seen : int;
  gr_guard_trips : int;
  gr_reverts : int;
}

let fleet_counter t name = Obs.counter_value (obs t) name

let node_counter_sum t name =
  Array.fold_left
    (fun acc ps ->
      acc
      + Obs.counter_value (VM.Vm.obs ps.ps_node.Node.n_inst.F.Instance.i_vm)
          name)
    0 t.peers

let report t ~rounds =
  let stuck =
    Array.to_list t.peers
    |> List.filteri (fun _ ps -> not (Node.live ps.ps_node))
    |> List.map (fun ps -> ps.ps_node.Node.n_inst.F.Instance.i_id)
  in
  let applied =
    Array.fold_left
      (fun acc ps ->
        if Node.live ps.ps_node && Node.epoch ps.ps_node > 0 then acc + 1
        else acc)
      0 t.peers
  in
  let votes_seen = node_counter_sum t "gossip.votes_seen" in
  let guard_trips = node_counter_sum t "gossip.guard_trips" in
  let reverts = node_counter_sum t "gossip.reverts" in
  let fences = node_counter_sum t "gossip.fences_enforced" in
  (* fleet-sink roll-ups so one export shows the whole story *)
  Obs.set_gauge (obs t) "gossip.fleet.votes_seen" (float_of_int votes_seen);
  Obs.set_gauge (obs t) "gossip.fleet.guard_trips" (float_of_int guard_trips);
  Obs.set_gauge (obs t) "gossip.fleet.reverts" (float_of_int reverts);
  {
    gr_rounds = rounds;
    gr_converged = converged t;
    gr_epoch = uniform_epoch t;
    gr_applied = applied;
    gr_stuck = stuck;
    gr_fenced = fences > 0;
    gr_mixed_window = t.mixed_window;
    gr_rumor_bytes = fleet_counter t "gossip.rumor_bytes";
    gr_pushes = fleet_counter t "gossip.pushes";
    gr_digest_recons = fleet_counter t "gossip.digest_reconciliations";
    gr_votes_seen = votes_seen;
    gr_guard_trips = guard_trips;
    gr_reverts = reverts;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "%s in %d rounds: epoch %s, %d applied, %d stuck%s | mixed window %d \
     rounds | %d pushes, %d reconciliations, %d votes seen, %d KiB gossiped"
    (if r.gr_converged then "CONVERGED" else "NOT CONVERGED")
    r.gr_rounds
    (match r.gr_epoch with None -> "mixed" | Some e -> string_of_int e)
    r.gr_applied
    (List.length r.gr_stuck)
    (if r.gr_fenced then
       Printf.sprintf " | FENCED (%d guard trip(s), %d inverse updates)"
         r.gr_guard_trips r.gr_reverts
     else "")
    r.gr_mixed_window r.gr_pushes r.gr_digest_recons r.gr_votes_seen
    (r.gr_rumor_bytes / 1024)
