(* fleet-gossip: 256 miniweb instances take a 5.1.1 -> 5.1.2 rollout by
   gossip alone, with no orchestrator: one proposal at node 0 spreads by
   rumor and anti-entropy over a control plane that drops 10% of its
   lines, under an open loop of 4 arrivals per round.

   Mempools and the wire dominate the wall time: every node sees every
   other node's vote, so the work is quadratic in fleet size.  The
   round counts are exact, so any change to quorum or drain behaviour
   shows in them.  The drop plan is fixed: across drop seeds the rollout
   took 51 to 69 rounds (README.md); the seed shapes the open-loop
   request mix. *)

module VM = Jv_vm
module F = Jv_fleet
module G = Jv_gossip
module H = Harness

let size = 128
let max_rounds = 6000
let params = { G.Gossip.default_params with G.Gossip.g_apply_jitter = 64 }

(* Gossip.run's stopping rule: converged, with no rumor still hot and no
   digest exchange open anywhere. *)
let quiescent g =
  G.Gossip.converged g
  && Array.for_all
       (fun ps -> ps.G.Gossip.ps_hot = [] && ps.G.Gossip.ps_digests = [])
       g.G.Gossip.peers

type acc = {
  fl : Fleets.acc;
  mutable msgs : int; (* rumor pushes and anti-entropy reconciliations *)
  mutable bytes : int; (* gossiped on the control plane *)
  mutable votes : int;
}

let drop_seed = 11

let episode p acc ~seed ~last =
  H.quiesce ();
  let chaos =
    match Jv_faults.Faults.parse ~seed:drop_seed "net.link=drop@0.10" with
    | Ok plan -> plan
    | Error e -> failwith e
  in
  let fleet, ol, g =
    H.setup p (fun () ->
        let fleet, ol = Fleets.boot ~seed ~size in
        let g =
          Trace.span ~layer:"gossip" "Gossip.create" (fun () ->
              G.Gossip.create ~chaos ~params ~fleet ())
        in
        (fleet, ol, g))
  in
  if p.H.traced then Fleets.probe_update fleet;
  let vms = H.Fleet_vms.create (F.Fleet.instances fleet) in
  let served0 = ol.Load.Open.served and bytes0 = Fleets.front_bytes fleet in
  ol.Load.Open.recording <- last;
  let rounds = ref 0 in
  H.timed_phase p (fun () ->
      Trace.in_update (fun () ->
          H.best p (Fleets.key "start" 0) (fun () ->
              ignore
                (Trace.span ~layer:"gossip" "Gossip.propose" (fun () ->
                     G.Gossip.propose g ~origin:0
                       ~to_version:Fleets.to_version)));
          let stop = ref false in
          while (not !stop) && !rounds < max_rounds do
            H.best p (Fleets.key "round" 0) (fun () ->
                Trace.span ~layer:"gossip" "Gossip.step" (fun () ->
                    G.Gossip.step g);
                Fleets.open_step ol fleet);
            H.Fleet_vms.observe vms (F.Fleet.instances fleet);
            incr rounds;
            stop := quiescent g
          done));
  ol.Load.Open.recording <- false;
  let served = ol.Load.Open.served - served0 in
  let r = G.Gossip.report g ~rounds:!rounds in
  H.check p "converged at epoch 1 with no node stuck"
    (r.G.Gossip.gr_converged && r.G.Gossip.gr_epoch = Some 1
    && r.G.Gossip.gr_stuck = []);
  Fleets.note_rollout p acc.fl vms ~plan:0 ~served
    ~bytes:(Fleets.front_bytes fleet - bytes0)
    ~rounds:r.G.Gossip.gr_rounds ~mixed:r.G.Gossip.gr_mixed_window;
  acc.msgs <- acc.msgs + r.G.Gossip.gr_pushes + r.G.Gossip.gr_digest_recons;
  acc.bytes <- acc.bytes + r.G.Gossip.gr_rumor_bytes;
  acc.votes <- acc.votes + r.G.Gossip.gr_votes_seen;
  Load.Open.drain ol ~tick:(F.Fleet.ticks fleet)
    ~round:(fun () -> F.Fleet.round fleet)
    ~patience:600;
  Fleets.note_load p acc.fl ol;
  acc.fl.Fleets.dropped <-
    acc.fl.Fleets.dropped + ol.Load.Open.dropped + F.Lb.dropped (F.Fleet.lb fleet);
  if last then Fleets.heap_checks p acc.fl fleet;
  H.end_replay p

let run p ~seed ~episodes =
  let acc = { fl = Fleets.acc (); msgs = 0; bytes = 0; votes = 0 } in
  for e = 1 to episodes do
    episode p acc ~seed ~last:(e = episodes)
  done;
  Fleets.metrics p acc.fl;
  List.iter (H.add p)
    [
      H.count ~layer:"gossip" "gossip.msgs" (H.per_replay p acc.msgs);
      H.scalar ~layer:"gossip" ~unit_:"KiB" "gossip.kib"
        (float_of_int (H.per_replay p acc.bytes) /. 1024.0);
      H.count ~layer:"gossip" "gossip.votes_seen" (H.per_replay p acc.votes);
    ]
