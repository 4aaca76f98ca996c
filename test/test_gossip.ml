(* Decentralized update distribution (lib/gossip): the locked update
   mempool, the wire codec, push/pull anti-entropy dissemination, quorum
   epoch agreement, and the peer-to-peer fence wave — no orchestrator
   anywhere in this file. *)

module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core
module A = Jv_apps
module Faults = Jv_faults.Faults

let fleet_config =
  { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 18 }

let boot_fleet ?(size = 4) ?(version = "5.1.1") () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
      ~profile:F.Profile.miniweb ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  fleet

(* fast-converging settings for small test fleets *)
let test_params =
  {
    G.Gossip.default_params with
    G.Gossip.g_digest_every = 8;
    g_apply_jitter = 4;
    g_drain_timeout = 60;
    g_update_timeout = 200;
  }

(* --- mempool: dedup, orphan votes, con-sticky, lock discipline ---------- *)

let prop ?(epoch = 1) ?(origin = 0) id =
  {
    G.Mempool.p_id = id;
    p_epoch = epoch;
    p_from_version = "5.1.1";
    p_to_version = "5.1.2";
    p_digest = "d34db33f";
    p_origin = origin;
  }

let vote ?(stance = G.Mempool.Pro) ?(why = "ok") ~voter prop_id =
  { G.Mempool.v_prop = prop_id; v_voter = voter; v_stance = stance; v_why = why }

let test_mempool_dedup () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      Alcotest.(check bool) "first insert is fresh" true
        (G.Mempool.add_proposal m (prop "a") = `Fresh);
      Alcotest.(check bool) "re-delivery is a duplicate" true
        (G.Mempool.add_proposal m (prop "a") = `Duplicate);
      Alcotest.(check bool) "orphan vote accepted" true
        (G.Mempool.add_vote m (vote ~voter:7 "zzz") = `Fresh);
      Alcotest.(check bool) "same vote re-delivered is stale" true
        (G.Mempool.add_vote m (vote ~voter:7 "zzz") = `Stale);
      ignore (G.Mempool.add_vote m (vote ~voter:1 "a"));
      ignore (G.Mempool.add_vote m (vote ~voter:2 "a"));
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "tally counts voters once"
        (2, 0, 0) (pro, con, trip))

let test_mempool_con_sticky () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      ignore (G.Mempool.add_proposal m (prop "a"));
      ignore (G.Mempool.add_vote m (vote ~voter:1 "a"));
      (* hardening Pro -> Con (a guard trip) replaces the vote *)
      Alcotest.(check bool) "pro hardens to con" true
        (G.Mempool.add_vote m
           (vote ~voter:1 ~stance:G.Mempool.Con ~why:"trip:app-errors" "a")
        = `Hardened);
      (* a stale re-delivered Pro must NOT talk the voter back *)
      Alcotest.(check bool) "con is sticky" true
        (G.Mempool.add_vote m (vote ~voter:1 "a") = `Stale);
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "trip vote counted" (0, 1, 1)
        (pro, con, trip))

let test_mempool_lock_discipline () =
  let m = G.Mempool.create () in
  Alcotest.check_raises "mutation outside the lock" G.Mempool.Not_locked
    (fun () -> ignore (G.Mempool.add_proposal m (prop "a")));
  Alcotest.check_raises "read outside the lock" G.Mempool.Not_locked
    (fun () -> ignore (G.Mempool.proposals m));
  G.Mempool.with_lock m (fun () ->
      Alcotest.check_raises "with_lock is non-reentrant"
        (Invalid_argument "Mempool.with_lock: non-reentrant") (fun () ->
          G.Mempool.with_lock m (fun () -> ())));
  (* the lock is released even when the body raises *)
  (try G.Mempool.with_lock m (fun () -> failwith "boom") with _ -> ());
  G.Mempool.with_lock m (fun () ->
      Alcotest.(check int) "lock released after an exception" 0
        (G.Mempool.size m))

(* The incremental state against a full rebuild: after every
   step of a random add_proposal/add_vote sequence (duplicates, orphan
   votes ahead of their proposal, Pro -> Con hardening, stale Pro after
   Con, trip and non-trip Cons), each tally equals a fold over the
   stored votes, the cached key list equals one built from the stored
   items, and the generation moved iff the pool changed. *)
type pool_op =
  | Add_prop of string
  | Add_vote of string * int * [ `Pro | `Con | `Trip ]

let prop_ids = [ "a"; "b"; "c" ]
let voters = [ 0; 1; 2; 3 ]

let pool_op_gen =
  QCheck.Gen.(
    let id = oneofl prop_ids in
    frequency
      [
        (1, map (fun i -> Add_prop i) id);
        ( 4,
          map3
            (fun i v s -> Add_vote (i, v, s))
            id (oneofl voters)
            (frequencyl [ (3, `Pro); (1, `Con); (1, `Trip) ]) );
      ])

let pp_pool_op = function
  | Add_prop i -> "prop " ^ i
  | Add_vote (i, v, s) ->
      Printf.sprintf "vote %s/%d %s" i v
        (match s with `Pro -> "pro" | `Con -> "con" | `Trip -> "trip")

let prop_incremental_pool_state =
  QCheck.Test.make ~name:"mempool tallies and cached keys match a rebuild"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_pool_op ops))
        Gen.(list_size (int_range 0 40) pool_op_gen))
    (fun ops ->
      let m = G.Mempool.create () in
      (* (prop, voter) in first-insertion order, newest first *)
      let seen = ref [] in
      G.Mempool.with_lock m (fun () ->
          List.for_all
            (fun op ->
              let gen0 = G.Mempool.generation m in
              let changed =
                match op with
                | Add_prop id -> G.Mempool.add_proposal m (prop id) = `Fresh
                | Add_vote (id, voter, s) -> (
                    let v =
                      match s with
                      | `Pro -> vote ~voter id
                      | `Con -> vote ~voter ~stance:G.Mempool.Con ~why:"base" id
                      | `Trip ->
                          vote ~voter ~stance:G.Mempool.Con ~why:"trip:errors"
                            id
                    in
                    match G.Mempool.add_vote m v with
                    | `Fresh ->
                        seen := (id, voter) :: !seen;
                        true
                    | `Hardened -> true
                    | `Stale -> false)
              in
              let stored =
                List.rev_map
                  (fun (prop, voter) ->
                    Option.get (G.Mempool.vote_for m ~prop ~voter))
                  !seen
              in
              let fold id =
                List.fold_left
                  (fun (pro, con, trip) (v : G.Mempool.vote) ->
                    if v.G.Mempool.v_prop <> id then (pro, con, trip)
                    else
                      match v.G.Mempool.v_stance with
                      | G.Mempool.Pro -> (pro + 1, con, trip)
                      | G.Mempool.Con ->
                          ( pro,
                            con + 1,
                            if G.Mempool.is_trip_vote v then trip + 1 else trip ))
                  (0, 0, 0) stored
              in
              let rebuilt =
                List.map (fun p -> "P:" ^ p.G.Mempool.p_id)
                  (G.Mempool.proposals m)
                @ List.map
                    (fun (v : G.Mempool.vote) ->
                      Printf.sprintf "V:%s:%d:%s" v.G.Mempool.v_prop
                        v.G.Mempool.v_voter
                        (if v.G.Mempool.v_stance = G.Mempool.Pro then "P"
                         else "C"))
                    stored
              in
              let ok =
                List.for_all
                  (fun id -> G.Mempool.tally m ~prop:id = fold id)
                  prop_ids
                && G.Mempool.keys m = rebuilt
                && G.Mempool.size m = List.length rebuilt
                && changed = (G.Mempool.generation m <> gen0)
              in
              if not ok then
                QCheck.Test.fail_reportf "state diverged after %s"
                  (pp_pool_op op);
              ok)
            ops))

(* --- wire codec --------------------------------------------------------- *)

let test_wire_roundtrip () =
  let check_rt m =
    match G.Wire.decode (G.Wire.encode m) with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok m' ->
        Alcotest.(check string) "round-trips" (G.Wire.encode m)
          (G.Wire.encode m')
  in
  check_rt (G.Wire.Prop (prop ~epoch:3 ~origin:17 "deadbeef"));
  check_rt
    (G.Wire.Vote
       (vote ~voter:42 ~stance:G.Mempool.Con
          ~why:"trip:app-errors 5% over budget" "deadbeef"));
  check_rt
    (G.Wire.Digest
       { d_sender = 3; d_epoch = 1; d_keys = [ "P:a"; "V:a:1:P"; "V:a:2:C" ] });
  check_rt (G.Wire.Digest { d_sender = 0; d_epoch = 0; d_keys = [] });
  check_rt (G.Wire.Want [ "P:a" ]);
  check_rt G.Wire.Bye;
  (* the escaped why survives with its spaces *)
  (match G.Wire.decode (G.Wire.encode (G.Wire.Vote (vote ~voter:1 ~why:"a b %c" "x"))) with
  | Ok (G.Wire.Vote v) ->
      Alcotest.(check string) "why unescaped" "a b %c" v.G.Mempool.v_why
  | _ -> Alcotest.fail "vote did not round-trip");
  match G.Wire.decode "FROB x y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"

(* --- quorum apply ------------------------------------------------------- *)

let test_quorum_apply_and_convergence () =
  let fleet = boot_fleet ~size:4 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = G.Gossip.run g ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "converged" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "on epoch 1" (Some 1) r.G.Gossip.gr_epoch;
  Alcotest.(check int) "all four applied" 4 r.G.Gossip.gr_applied;
  Alcotest.(check (option string)) "uniform on the new version"
    (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  (* quorum means at least ceil(0.51 * 4) = 3 Pro votes at every node *)
  Array.iter
    (fun id ->
      let pool = G.Node.pool (G.Gossip.node g id) in
      let pro, _, _ =
        G.Mempool.with_lock pool (fun () ->
            match G.Mempool.proposals pool with
            | [ p ] -> G.Mempool.tally pool ~prop:p.G.Mempool.p_id
            | _ -> Alcotest.fail "expected exactly one proposal")
      in
      Alcotest.(check bool) "apply quorum seen locally" true (pro >= 3))
    [| 0; 1; 2; 3 |]

(* A node refuses a proposal that does not start from its own version:
   the Con vote spreads, but quorum still forms among the others. *)
let test_quorum_counts_only_pro () =
  let fleet = boot_fleet ~size:3 () in
  let g =
    G.Gossip.create
      ~params:{ test_params with G.Gossip.g_quorum = 1.0 }
      ~fleet ()
  in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  (* with q = 1.0 every node must vote Pro before anyone applies; run a
     few rounds and check nobody jumped early *)
  for _ = 1 to 40 do
    G.Gossip.step g
  done;
  let any_applied =
    List.exists
      (fun id -> G.Node.epoch (G.Gossip.node g id) > 0)
      [ 0; 1; 2 ]
  in
  let pools_agree =
    List.for_all
      (fun id ->
        let pool = G.Node.pool (G.Gossip.node g id) in
        G.Mempool.with_lock pool (fun () ->
            List.length (G.Mempool.proposals pool) = 1))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "proposal reached every pool" true pools_agree;
  ignore any_applied;
  let rounds = G.Gossip.run g ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "unanimous quorum converges" true
    r.G.Gossip.gr_converged;
  Alcotest.(check int) "all applied" 3 r.G.Gossip.gr_applied

(* --- guard trip -> fence quorum -> inverse wave ------------------------- *)

let test_guard_trip_quorum_revert () =
  let fleet = boot_fleet ~size:4 ~version:"5.1.10" () in
  (* app traffic so the bad version's 404s feed the guard budgets *)
  ignore (F.Fleet.attach_load ~concurrency:6 fleet);
  F.Fleet.run fleet ~rounds:100;
  let params =
    { test_params with G.Gossip.g_guard = Some (J.Guard.config ()) }
  in
  let g = G.Gossip.create ~params ~fleet () in
  ignore (G.Gossip.propose g ~origin:1 ~to_version:A.Miniweb.bad_update);
  let rounds = G.Gossip.run g ~max_rounds:8_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "a guard tripped somewhere" true
    (r.G.Gossip.gr_guard_trips > 0);
  Alcotest.(check bool) "the fence was enforced" true r.G.Gossip.gr_fenced;
  Alcotest.(check bool) "fleet converged" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "back on the old epoch" (Some 0)
    r.G.Gossip.gr_epoch;
  Alcotest.(check (option string)) "back on the old version" (Some "5.1.10")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped connections" 0
    (F.Fleet.dropped_in_flight fleet)

(* --- properties --------------------------------------------------------- *)

(* One full decentralized rollout under a random chaos schedule on the
   control net; returns (report, per-node epochs). *)
let rollout_under_chaos ~seed ~plan ~size ~rounds_budget =
  let fleet = boot_fleet ~size () in
  let chaos =
    match Faults.parse ~seed plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan %S: %s" plan e
  in
  let g = G.Gossip.create ~chaos ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = G.Gossip.run g ~max_rounds:rounds_budget () in
  (g, G.Gossip.report g ~rounds)

let run_under_chaos ~seed ~plan ~size ~rounds_budget =
  let g, r = rollout_under_chaos ~seed ~plan ~size ~rounds_budget in
  (r, List.init size (fun id -> G.Node.epoch (G.Gossip.node g id)))

(* Convergence: under random drop/delay/partition-then-heal schedules the
   fleet still reaches one epoch — never left permanently mixed. *)
let prop_convergence_under_chaos =
  QCheck.Test.make ~name:"gossip converges under drop/delay/partition chaos"
    ~count:6
    QCheck.(
      triple (int_range 1 1_000) (int_range 0 2) (int_range 2 10))
    (fun (seed, kind, pct) ->
      let plan =
        match kind with
        | 0 -> Printf.sprintf "net.link=drop@0.%02d" pct
        | 1 -> Printf.sprintf "net.link=delay:2@0.%02d" pct
        | _ ->
            Printf.sprintf
              "simnet.partition=delay:40@0.%02d x2,net.link=drop@0.05" pct
      in
      let r, epochs = run_under_chaos ~seed ~plan ~size:3 ~rounds_budget:6_000 in
      if not r.G.Gossip.gr_converged then
        QCheck.Test.fail_reportf
          "not converged under %s (seed %d): epochs %s after %d rounds" plan
          seed
          (String.concat "," (List.map string_of_int epochs))
          r.G.Gossip.gr_rounds
      else
        List.for_all (fun e -> e = List.hd epochs) epochs)

(* Determinism: a fixed (plan, seed) pair replays the same rollout —
   same rounds, same pushes, same bytes, same epochs. *)
let prop_seed_determinism =
  QCheck.Test.make ~name:"fixed seed replays the rollout byte-identically"
    ~count:4
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let plan = "net.link=drop@0.05,simnet.partition=delay:30@0.01 x1" in
      let run () = run_under_chaos ~seed ~plan ~size:3 ~rounds_budget:6_000 in
      let r1, e1 = run () in
      let r2, e2 = run () in
      let fp (r : G.Gossip.report) =
        ( r.G.Gossip.gr_rounds,
          r.G.Gossip.gr_pushes,
          r.G.Gossip.gr_rumor_bytes,
          r.G.Gossip.gr_digest_recons,
          r.G.Gossip.gr_votes_seen )
      in
      if fp r1 <> fp r2 || e1 <> e2 then
        QCheck.Test.fail_reportf
          "seed %d diverged: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)" seed
          r1.G.Gossip.gr_rounds r1.G.Gossip.gr_pushes
          r1.G.Gossip.gr_rumor_bytes r1.G.Gossip.gr_digest_recons
          r1.G.Gossip.gr_votes_seen r2.G.Gossip.gr_rounds
          r2.G.Gossip.gr_pushes r2.G.Gossip.gr_rumor_bytes
          r2.G.Gossip.gr_digest_recons r2.G.Gossip.gr_votes_seen
      else true)

(* --- partition then heal (directed) ------------------------------------- *)

let test_partition_heals_and_converges () =
  let fleet = boot_fleet ~size:4 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  (* cut nodes {0,1} off from {2,3} before proposing at 0 *)
  let net = g.G.Gossip.net in
  Jv_simnet.Simnet.set_partition net
    ~groups:
      [
        [ G.Gossip.default_base_port; G.Gossip.default_base_port + 1 ];
        [ G.Gossip.default_base_port + 2; G.Gossip.default_base_port + 3 ];
      ];
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  (* quorum is 3 of 4: the island of two can never apply *)
  for _ = 1 to 300 do
    G.Gossip.step g
  done;
  Alcotest.(check bool) "no apply across the partition" true
    (List.for_all
       (fun id -> G.Node.epoch (G.Gossip.node g id) = 0)
       [ 0; 1; 2; 3 ]);
  Jv_simnet.Simnet.heal net;
  let rounds = G.Gossip.run g ~max_rounds:4_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "converged after heal" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "on the new epoch" (Some 1)
    r.G.Gossip.gr_epoch;
  Alcotest.(check bool) "anti-entropy did real work" true
    (r.G.Gossip.gr_digest_recons > 0)

(* --- rejoin after quiet --------------------------------------------------- *)

(* A supervisor rejoin hands a node a fresh, empty pool after the fleet
   went quiet.  The runtime's memoised pool comparison must notice the
   swap, so anti-entropy restarts and the rejoiner pulls every item back. *)
let test_rejoin_after_quiet_resyncs () =
  let fleet = boot_fleet ~size:8 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let r1 = G.Gossip.report g ~rounds:(G.Gossip.run g ~max_rounds:3_000 ()) in
  Alcotest.(check bool) "converged before the rejoin" true
    r1.G.Gossip.gr_converged;
  Alcotest.(check bool) "pools in sync once quiet" true
    (G.Gossip.pools_synced g);
  let old_pool = G.Node.pool (G.Gossip.node g 3) in
  G.Gossip.rejoin g 3;
  Alcotest.(check bool) "the rejoiner holds a fresh pool" true
    (G.Node.pool (G.Gossip.node g 3) != old_pool);
  Alcotest.(check bool) "an empty pool is out of sync" false
    (G.Gossip.pools_synced g);
  let r2 = G.Gossip.report g ~rounds:(G.Gossip.run g ~max_rounds:3_000 ()) in
  Alcotest.(check bool) "converged after the rejoin" true
    r2.G.Gossip.gr_converged;
  let key_set id =
    let pool = G.Node.pool (G.Gossip.node g id) in
    List.sort compare (G.Mempool.with_lock pool (fun () -> G.Mempool.keys pool))
  in
  Alcotest.(check (list string)) "node 3 holds node 0's key set" (key_set 0)
    (key_set 3);
  Alcotest.(check bool) "anti-entropy reconciled again" true
    (r2.G.Gossip.gr_digest_recons > r1.G.Gossip.gr_digest_recons)

(* --- golden: a 32-node rollout under drops --------------------------------- *)

(* The exact report line and every node's final (epoch, phase) of one
   32-node rollout over a control plane dropping 10% of its lines.  The
   wire lines, the Faults draws and every node decision feed these
   counts, so a change to how a mempool is stored or compared that moved
   any of them shows here. *)
let golden_report =
  "CONVERGED in 32 rounds: epoch 1, 32 applied, 0 stuck | mixed window 2 \
   rounds | 972 pushes, 25 reconciliations, 992 votes seen, 646 KiB gossiped"

let golden_nodes =
  String.concat " " (List.init 32 (fun id -> Printf.sprintf "%d:e1:idle" id))

(* MD5 of every pool's keys, node by node in key order: a DIGEST line
   carries them in this order *)
let golden_pools = "9c25874dabdd6495f5b2e6be928768ad"

let test_golden_32_under_drops () =
  let size = 32 in
  let g, r =
    rollout_under_chaos ~seed:5 ~plan:"net.link=drop@0.10" ~size
      ~rounds_budget:6_000
  in
  Alcotest.(check string) "report line" golden_report
    (Fmt.str "%a" G.Gossip.pp_report r);
  Alcotest.(check string) "every node's epoch and phase" golden_nodes
    (String.concat " "
       (List.init size (fun id ->
            let nd = G.Gossip.node g id in
            Printf.sprintf "%d:e%d:%s" id (G.Node.epoch nd)
              (G.Node.phase_to_string (G.Node.phase nd)))));
  let keys id =
    let pool = G.Node.pool (G.Gossip.node g id) in
    G.Mempool.with_lock pool (fun () -> G.Mempool.keys pool)
  in
  Alcotest.(check string) "every pool's keys, in order" golden_pools
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.init size (fun id -> String.concat " " (keys id))))))

let suite =
  [
    Alcotest.test_case "mempool: dedup of proposals and votes" `Quick
      test_mempool_dedup;
    Alcotest.test_case "mempool: con-sticky vote replacement" `Quick
      test_mempool_con_sticky;
    Alcotest.test_case "mempool: lock discipline" `Quick
      test_mempool_lock_discipline;
    QCheck_alcotest.to_alcotest prop_incremental_pool_state;
    Alcotest.test_case "wire: codec round-trips" `Quick test_wire_roundtrip;
    Alcotest.test_case "quorum: fleet applies at ceil(qN) pro votes" `Slow
      test_quorum_apply_and_convergence;
    Alcotest.test_case "quorum: unanimous threshold still converges" `Slow
      test_quorum_counts_only_pro;
    Alcotest.test_case "fence: guard trip reverts the fleet by quorum" `Slow
      test_guard_trip_quorum_revert;
    Alcotest.test_case "partition: no quorum across, converges after heal"
      `Slow test_partition_heals_and_converges;
    Alcotest.test_case "rejoin: a fresh pool after quiet forces a resync"
      `Slow test_rejoin_after_quiet_resyncs;
    Alcotest.test_case "golden: 32-node rollout under 10% drops" `Quick
      test_golden_32_under_drops;
    QCheck_alcotest.to_alcotest prop_convergence_under_chaos;
    QCheck_alcotest.to_alcotest prop_seed_determinism;
  ]
