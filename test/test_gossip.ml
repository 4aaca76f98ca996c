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
      ~profile:A.App.miniweb ~version ~size ()
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

(* --- mempool: dedup, orphan votes, sticky stances, lock discipline ------- *)

let prop ?(epoch = 1) ?(origin = 0) id =
  {
    G.Mempool.p_id = id;
    p_epoch = epoch;
    p_from_version = "5.1.1";
    p_to_version = "5.1.2";
    p_digest = "d34db33f";
    p_origin = origin;
  }

let test_mempool_dedup () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      Alcotest.(check bool) "first insert is fresh" true
        (G.Mempool.add_proposal m (prop "a") = `Fresh);
      Alcotest.(check bool) "re-delivery is a duplicate" true
        (G.Mempool.add_proposal m (prop "a") = `Duplicate);
      Alcotest.(check bool) "orphan vote accepted" true
        (G.Mempool.add_vote m ~prop:"zzz" ~voter:7 G.Mempool.Pro);
      Alcotest.(check bool) "same vote re-delivered is stale" false
        (G.Mempool.add_vote m ~prop:"zzz" ~voter:7 G.Mempool.Pro);
      ignore (G.Mempool.add_vote m ~prop:"a" ~voter:1 G.Mempool.Pro);
      ignore (G.Mempool.add_vote m ~prop:"a" ~voter:2 G.Mempool.Pro);
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "tally counts voters once"
        (2, 0, 0) (pro, con, trip))

let test_mempool_con_sticky () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      ignore (G.Mempool.add_proposal m (prop "a"));
      ignore (G.Mempool.add_vote m ~prop:"a" ~voter:1 G.Mempool.Pro);
      (* hardening Pro -> Trip (a guard trip) moves the voter's bit *)
      Alcotest.(check bool) "pro hardens to trip" true
        (G.Mempool.add_vote m ~prop:"a" ~voter:1 G.Mempool.Trip);
      (* a stale re-delivered Pro or Con must NOT talk the voter back *)
      Alcotest.(check bool) "trip is sticky against pro" false
        (G.Mempool.add_vote m ~prop:"a" ~voter:1 G.Mempool.Pro);
      Alcotest.(check bool) "trip is sticky against con" false
        (G.Mempool.add_vote m ~prop:"a" ~voter:1 G.Mempool.Con);
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "trip vote counted" (0, 1, 1)
        (pro, con, trip);
      Alcotest.(check (list string)) "voter 1 in the trip map only"
        [ "-"; "-"; "02" ]
        (G.Mempool.tally_maps m ~prop:"a"))

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

(* A reference spelling of a voter bitmap, built apart from the pool's:
   voter v is bit [v mod 8] of byte [v / 8], bytes in order, trailing
   zero bytes dropped, "-" when empty. *)
let ref_hex voters =
  match voters with
  | [] -> "-"
  | _ ->
      let top = List.fold_left max 0 voters in
      let bytes = Array.make ((top / 8) + 1) 0 in
      List.iter
        (fun v -> bytes.(v / 8) <- bytes.(v / 8) lor (1 lsl (v mod 8)))
        voters;
      String.concat ""
        (Array.to_list (Array.map (Printf.sprintf "%02x") bytes))

(* The TALLY fields of a reference state: [stance_of v] is each voter's
   stance, if any; trailing empty maps dropped. *)
let ref_maps stance_of voters =
  let map s = ref_hex (List.filter (fun v -> stance_of v = Some s) voters) in
  let rec trim = function "-" :: rest -> trim rest | rest -> rest in
  List.rev
    (trim [ map G.Mempool.Trip; map G.Mempool.Con; map G.Mempool.Pro ])

(* The incremental state against a full rebuild: after every step of a
   random add_proposal/add_vote/merge sequence (duplicates, orphan votes
   ahead of their proposal, Pro -> Con -> Trip hardening in any order,
   stale votes below a voter's stance, re-delivered maps), each tally
   equals a fold over a reference model of every voter's stance, the
   cached key list equals one built from that model, and the generation
   moved iff the pool changed. *)
type pool_op =
  | Add_prop of string
  | Add_vote of string * int * G.Mempool.stance
  | Merge of string * (int * G.Mempool.stance) list

let prop_ids = [ "a"; "b"; "c" ]

(* voters past 7 and 15 put bits in later bitmap bytes *)
let voters = [ 0; 1; 2; 3; 9; 17 ]

(* a voter's stance only rises: absent < Pro < Con < Trip *)
let rank = function
  | None -> 0
  | Some G.Mempool.Pro -> 1
  | Some G.Mempool.Con -> 2
  | Some G.Mempool.Trip -> 3

let stance_gen pro =
  QCheck.Gen.frequencyl
    [ (pro, G.Mempool.Pro); (1, G.Mempool.Con); (1, G.Mempool.Trip) ]

let pool_op_gen =
  QCheck.Gen.(
    let id = oneofl prop_ids in
    frequency
      [
        (1, map (fun i -> Add_prop i) id);
        ( 4,
          map3 (fun i v s -> Add_vote (i, v, s)) id (oneofl voters)
            (stance_gen 3) );
        ( 2,
          map2
            (fun i vs ->
              (* a voter sits in one map of a tally *)
              Merge
                ( i,
                  List.sort_uniq
                    (fun (a, _) (b, _) -> compare a b)
                    vs ))
            id
            (list_size (int_range 1 3) (pair (oneofl voters) (stance_gen 3)))
        );
      ])

let stance_name = function
  | G.Mempool.Pro -> "pro"
  | G.Mempool.Con -> "con"
  | G.Mempool.Trip -> "trip"

let pp_pool_op = function
  | Add_prop i -> "prop " ^ i
  | Add_vote (i, v, s) -> Printf.sprintf "vote %s/%d %s" i v (stance_name s)
  | Merge (i, vs) ->
      Printf.sprintf "tally %s {%s}" i
        (String.concat ","
           (List.map
              (fun (v, s) -> Printf.sprintf "%d %s" v (stance_name s))
              vs))

(* A reference tally: (pro, con, trip), [con] counting trips too. *)
let fold_tally stance_of =
  List.fold_left
    (fun (pro, con, trip) v ->
      match stance_of v with
      | None -> (pro, con, trip)
      | Some G.Mempool.Pro -> (pro + 1, con, trip)
      | Some G.Mempool.Con -> (pro, con + 1, trip)
      | Some G.Mempool.Trip -> (pro, con + 1, trip + 1))
    (0, 0, 0) voters

let prop_incremental_pool_state =
  QCheck.Test.make ~name:"mempool tallies and cached keys match a rebuild"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_pool_op ops))
        Gen.(list_size (int_range 0 40) pool_op_gen))
    (fun ops ->
      let m = G.Mempool.create () in
      (* the reference model: each (proposal, voter)'s stance, and the
         ids in the order an op first named them *)
      let state = Hashtbl.create 16 in
      let ids = ref [] in
      let name id = if not (List.mem id !ids) then ids := !ids @ [ id ] in
      (* raise (id, v) to [s]; true iff that raised it *)
      let raise_to id v s =
        match Hashtbl.find_opt state (id, v) with
        | old when rank old >= rank (Some s) -> false
        | _ ->
            Hashtbl.replace state (id, v) s;
            true
      in
      G.Mempool.with_lock m (fun () ->
          List.for_all
            (fun op ->
              let gen0 = G.Mempool.generation m in
              let changed =
                match op with
                | Add_prop id -> G.Mempool.add_proposal m (prop id) = `Fresh
                | Add_vote (id, voter, s) ->
                    name id;
                    let expect = raise_to id voter s in
                    if G.Mempool.add_vote m ~prop:id ~voter s <> expect then
                      QCheck.Test.fail_reportf "%s answered wrongly"
                        (pp_pool_op op);
                    expect
                | Merge (id, vs) ->
                    name id;
                    let maps = ref_maps (fun v -> List.assoc_opt v vs) voters in
                    let rose =
                      List.filter_map
                        (fun (v, s) -> if raise_to id v s then Some v else None)
                        vs
                    in
                    if G.Mempool.merge m ~prop:id ~maps <> rose then
                      QCheck.Test.fail_reportf "%s raised the wrong voters"
                        (pp_pool_op op);
                    rose <> []
              in
              let stance_of id v = Hashtbl.find_opt state (id, v) in
              let rebuilt =
                List.map (fun p -> "P:" ^ p.G.Mempool.p_id)
                  (G.Mempool.proposals m)
                @ List.map
                    (fun id ->
                      String.concat ":"
                        ("T" :: id :: ref_maps (stance_of id) voters))
                    !ids
              in
              let ok =
                List.for_all
                  (fun id ->
                    G.Mempool.tally m ~prop:id = fold_tally (stance_of id)
                    && G.Mempool.tally_maps m ~prop:id
                       = (if List.mem id !ids then
                            ref_maps (stance_of id) voters
                          else []))
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

(* Votes form a join-semilattice (absent < Pro < Con < Trip per voter),
   so pools that see one history's votes in any order, any number of
   times, over any path end in one state.  A random history (Pro, Con
   and Trip votes, a voter's stances in any order, votes on proposals no
   pool holds) is cast across 2-4 pools; the pools then swap what they
   hold as PROP/TALLY lines through the codec, in random orders, with
   duplicates, first between random pairs and then all to all twice.
   Every pool must end with the tallies and key set of a from-scratch
   fold of the history; re-delivering every voter's Pro bit after that
   must not raise any [pro] (Con and Trip are sticky); and every
   delivery must move a pool's generation exactly when its key set
   changed. *)
type cast = {
  c_pool : int;
  c_id : string;
  c_voter : int;
  c_what : G.Mempool.stance;
}

(* "orphan" is voted on but never proposed *)
let history_ids = [ "a"; "b"; "orphan" ]

let history_gen =
  QCheck.Gen.(
    int_range 2 4 >>= fun pools ->
    list_size (int_range 1 40)
      (map3
         (fun c_pool c_id (c_voter, c_what) -> { c_pool; c_id; c_voter; c_what })
         (int_bound (pools - 1))
         (oneofl history_ids)
         (pair (oneofl voters) (stance_gen 4)))
    >>= fun casts -> map (fun seed -> (pools, casts, seed)) (int_bound 1_000_000))

let pp_history (pools, casts, seed) =
  Printf.sprintf "%d pools, seed %d: %s" pools seed
    (String.concat "; "
       (List.map
          (fun c ->
            Printf.sprintf "%d:%s/%d %s" c.c_pool c.c_id c.c_voter
              (stance_name c.c_what))
          casts))

let prop_tally_semilattice =
  QCheck.Test.make ~name:"pools that swap tallies in any order agree"
    ~count:200
    (QCheck.make ~print:pp_history history_gen)
    (fun (npools, casts, seed) ->
      let rng = Random.State.make [| seed |] in
      let pools = Array.init npools (fun _ -> G.Mempool.create ()) in
      let locked p f = G.Mempool.with_lock p (fun () -> f p) in
      locked pools.(0) (fun p ->
          ignore (G.Mempool.add_proposal p (prop "a"));
          ignore (G.Mempool.add_proposal p (prop "b")));
      List.iter
        (fun c ->
          locked pools.(c.c_pool) (fun p ->
              ignore
                (G.Mempool.add_vote p ~prop:c.c_id ~voter:c.c_voter c.c_what)))
        casts;
      (* what a pool holds, as the lines a digest answer would carry *)
      let lines p =
        locked p (fun p ->
            let props, tallies = G.Mempool.missing_from p ~remote_keys:[] in
            List.map (fun pr -> G.Wire.Prop pr) props
            @ List.map
                (fun (id, maps) -> G.Wire.Tally { t_prop = id; t_maps = maps })
                tallies
            |> List.map G.Wire.encode)
      in
      let state p =
        locked p (fun p ->
            ( List.sort compare (G.Mempool.keys p),
              List.map (fun id -> G.Mempool.tally p ~prop:id) history_ids ))
      in
      let deliver p line =
        let before = state p and gen0 = locked p G.Mempool.generation in
        locked p (fun p ->
            match G.Wire.decode line with
            | Ok (G.Wire.Prop pr) -> ignore (G.Mempool.add_proposal p pr)
            | Ok (G.Wire.Tally { t_prop; t_maps }) ->
                ignore (G.Mempool.merge p ~prop:t_prop ~maps:t_maps)
            | _ -> QCheck.Test.fail_reportf "line %S did not decode" line);
        let moved = locked p G.Mempool.generation <> gen0 in
        if moved <> (state p <> before) then
          QCheck.Test.fail_reportf "generation %s on %S"
            (if moved then "moved without a change"
             else "stood through a change")
            line
      in
      (* one delivery: the sender's lines shuffled, some sent twice *)
      let send src dst =
        let ls = lines pools.(src) in
        List.map
          (fun l -> (Random.State.bits rng, l))
          (ls @ List.filter (fun _ -> Random.State.bool rng) ls)
        |> List.sort compare
        |> List.iter (fun (_, l) -> deliver pools.(dst) l)
      in
      for _ = 1 to Random.State.int rng (3 * npools) do
        let src = Random.State.int rng npools in
        let dst = Random.State.int rng npools in
        if src <> dst then send src dst
      done;
      for _ = 1 to 2 do
        for src = 0 to npools - 1 do
          for dst = 0 to npools - 1 do
            if src <> dst then send src dst
          done
        done
      done;
      (* the from-scratch fold: per (id, voter), the highest stance cast *)
      let final id v =
        List.fold_left
          (fun top c ->
            if c.c_id = id && c.c_voter = v && rank (Some c.c_what) > rank top
            then
              Some c.c_what
            else top)
          None casts
      in
      let fold_keys id =
        match ref_maps (final id) voters with
        | [] -> []
        | maps -> [ String.concat ":" ("T" :: id :: maps) ]
      in
      let expected =
        ( List.sort compare
            (("P:" ^ (prop "a").G.Mempool.p_id)
            :: ("P:" ^ (prop "b").G.Mempool.p_id)
            :: List.concat_map fold_keys history_ids),
          List.map (fun id -> fold_tally (final id)) history_ids )
      in
      Array.iteri
        (fun i p ->
          if state p <> expected then
            QCheck.Test.fail_reportf "pool %d disagrees with the fold" i;
          (* every voter's Pro bit, re-delivered: a Con voter stays Con *)
          List.iter
            (fun id ->
              deliver p
                (G.Wire.encode
                   (G.Wire.Tally { t_prop = id; t_maps = [ ref_hex voters ] })))
            history_ids;
          List.iter
            (fun id ->
              let pro, _, _ = locked p (fun p -> G.Mempool.tally p ~prop:id) in
              let not_con =
                List.length
                  (List.filter
                     (fun v -> rank (final id v) <= 1)
                     voters)
              in
              if pro <> not_con then
                QCheck.Test.fail_reportf "pool %d: %s has %d Pro votes, not %d"
                  i id pro not_con)
            history_ids)
        pools;
      true)

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
  check_rt (G.Wire.Tally { t_prop = "deadbeef"; t_maps = [ "0f0001" ] });
  check_rt (G.Wire.Tally { t_prop = "deadbeef"; t_maps = [ "0e"; "-"; "01" ] });
  check_rt (G.Wire.Tally { t_prop = "deadbeef"; t_maps = [ "-"; "10" ] });
  check_rt
    (G.Wire.Tally { t_prop = "deadbeef"; t_maps = [ "01"; "0002"; "fc" ] });
  check_rt (G.Wire.Digest [ "P:a"; "T:a:05"; "T:b:-:02:01" ]);
  check_rt (G.Wire.Digest []);
  check_rt (G.Wire.Want [ "P:a" ]);
  check_rt G.Wire.Bye;
  (* a Con and a Trip map decode into their places *)
  (match G.Wire.decode "TALLY x 0e - 01" with
  | Ok (G.Wire.Tally { t_prop = "x"; t_maps }) ->
      Alcotest.(check (list string)) "maps in order" [ "0e"; "-"; "01" ]
        t_maps
  | _ -> Alcotest.fail "tally did not decode");
  List.iter
    (fun line ->
      match G.Wire.decode line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S decoded" line)
    [
      "FROB x y";
      (* votes travel only as tallies *)
      "VOTE x 1 C why";
      "VOTE x 1 P ok";
      (* bad hex, in each map *)
      "TALLY x 0g";
      "TALLY x abc";
      "TALLY x 0F";
      "TALLY x 01 0g";
      "TALLY x 01 - zz";
      "TALLY x 01 - 1";
      (* non-canonical spellings of votes with a canonical line *)
      "TALLY x";
      "TALLY x -";
      "TALLY x 0f -";
      "TALLY x 0f - -";
      "TALLY x - - -";
      "TALLY x 0f00";
      "TALLY x 01 00";
      "TALLY x 01 02 04 08";
      (* a voter set in two maps *)
      "TALLY x 01 01";
      "TALLY x 03 - 02";
      "TALLY x - 0001 0001";
    ]

(* A line [decode] rejects is counted on the fleet sink and changes no
   pool. *)
let test_serve_counts_bad_lines () =
  let fleet = boot_fleet ~size:2 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  let net = g.G.Gossip.net in
  let bad () = Jv_obs.Obs.counter_value (F.Fleet.obs fleet) "gossip.bad_lines" in
  let bad0 = bad () in
  let cid =
    match Jv_simnet.Simnet.connect net ~port:G.Gossip.default_base_port with
    | Some cid -> cid
    | None -> Alcotest.fail "connect refused"
  in
  List.iter
    (Jv_simnet.Simnet.client_send net ~conn_id:cid)
    [ "VOTE x 1 C why"; "TALLY x 01 01"; "TALLY x 0f - -" ];
  Jv_simnet.Simnet.client_close net ~conn_id:cid;
  let ps = g.G.Gossip.peers.(0) in
  G.Gossip.serve g ps;
  Alcotest.(check int) "three rejected lines counted" 3 (bad () - bad0);
  let pool = G.Node.pool ps.G.Gossip.ps_node in
  Alcotest.(check int) "the pool holds nothing" 0
    (G.Mempool.with_lock pool (fun () -> G.Mempool.size pool))

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

(* Each node's final decisions, one token per node: epoch, phase,
   version, and its applies/trips/reverts/fences_enforced counters.
   Recorded before votes travelled as tallies, so a wire change that
   moved any node's outcome shows here. *)
let decisions g =
  String.concat " "
    (List.init (G.Gossip.size g) (fun id ->
         let nd = G.Gossip.node g id in
         let inst = nd.G.Node.n_inst in
         let c name =
           Jv_obs.Obs.counter_value (Jv_vm.Vm.obs inst.F.Instance.i_vm) name
         in
         Printf.sprintf "%d:e%d:%s:%s:a%d:t%d:r%d:f%d" id (G.Node.epoch nd)
           (G.Node.phase_to_string (G.Node.phase nd))
           inst.F.Instance.i_version (c "gossip.applies")
           (c "gossip.guard_trips") (c "gossip.reverts")
           (c "gossip.fences_enforced")))

(* what every node of a healthy 5.1.1 -> 5.1.2 rollout decided *)
let applied_once size =
  String.concat " "
    (List.init size (fun id -> Printf.sprintf "%d:e1:idle:5.1.2:a1:t0:r0:f0" id))

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
    (r.G.Gossip.gr_digest_recons > 0);
  Alcotest.(check string) "every node's decisions" (applied_once 4)
    (decisions g)

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
    (r2.G.Gossip.gr_digest_recons > r1.G.Gossip.gr_digest_recons);
  Alcotest.(check string) "every node's decisions" (applied_once 8)
    (decisions g)

(* --- digest exchanges close when answered ---------------------------------- *)

(* Every DIGEST answer ends with a WANT ("WANT -" when the server lacks
   nothing), and the initiator closes on it.  On a control plane that
   drops nothing, no exchange stays open past the round after it opened,
   and [run] returns within 2 rounds of the fleet going quiet instead of
   waiting out the exchanges' TTL. *)
let test_digest_exchanges_close () =
  let fleet = boot_fleet ~size:16 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let round = ref 0 and first_quiet = ref None in
  let opened = Hashtbl.create 64 and longest = ref 0 and exchanges = ref 0 in
  let on_round g =
    incr round;
    if !first_quiet = None && G.Gossip.quiet g then first_quiet := Some !round;
    let open_now = Hashtbl.create 16 in
    Array.iter
      (fun ps ->
        List.iter
          (fun (cid, _) ->
            Hashtbl.replace open_now cid ();
            if not (Hashtbl.mem opened cid) then begin
              incr exchanges;
              Hashtbl.replace opened cid !round
            end)
          ps.G.Gossip.ps_digests)
      g.G.Gossip.peers;
    Hashtbl.iter
      (fun cid since ->
        if Hashtbl.mem open_now cid then
          longest := max !longest (!round - since + 1))
      opened
  in
  let rounds = G.Gossip.run g ~on_round ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "converged on epoch 1" true
    (r.G.Gossip.gr_converged && r.G.Gossip.gr_epoch = Some 1);
  Alcotest.(check int) "16 x 15 votes seen" 240 r.G.Gossip.gr_votes_seen;
  Alcotest.(check bool) "exchanges were opened" true (!exchanges > 0);
  Alcotest.(check bool)
    (Printf.sprintf "no exchange open longer than 2 rounds (longest %d)" !longest)
    true (!longest <= 2);
  match !first_quiet with
  | None -> Alcotest.fail "the fleet never went quiet"
  | Some q ->
      Alcotest.(check bool)
        (Printf.sprintf "run returned within 2 rounds of quiet (%d, quiet at %d)"
           rounds q)
        true
        (rounds - q <= 2)

(* --- golden: a 32-node rollout under drops --------------------------------- *)

(* The exact report line and every node's final (epoch, phase) of one
   32-node rollout over a control plane dropping 10% of its lines.  The
   wire lines, the Faults draws and every node decision feed these
   counts, so a change to how a mempool is stored or compared that moved
   any of them shows here. *)
let golden_report =
  "CONVERGED in 29 rounds: epoch 1, 32 applied, 0 stuck | mixed window 1 \
   rounds | 915 pushes, 23 reconciliations, 992 votes seen, 85 KiB gossiped"

let golden_nodes =
  String.concat " " (List.init 32 (fun id -> Printf.sprintf "%d:e1:idle" id))

(* MD5 of every pool's keys, node by node in key order: a DIGEST line
   carries them in this order *)
let golden_pools = "87d9e4d05dfd2e59cd868d838dc9463b"

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
  Alcotest.(check string) "every node's decisions" (applied_once size)
    (decisions g);
  let keys id =
    let pool = G.Node.pool (G.Gossip.node g id) in
    G.Mempool.with_lock pool (fun () -> G.Mempool.keys pool)
  in
  Alcotest.(check string) "every pool's keys, in order" golden_pools
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.init size (fun id -> String.concat " " (keys id))))))

(* The 32-node drop rollout, replayed: both runs put the same bytes on the
   control net (each direction's total and every connection and dropped
   line, in order, as the fleet sink logs them), and end with the same
   report and pools. *)
let test_golden_32_replays () =
  let run () =
    let g, r =
      rollout_under_chaos ~seed:5 ~plan:"net.link=drop@0.10" ~size:32
        ~rounds_budget:6_000
    in
    let net_events =
      List.filter_map
        (fun (ev : Jv_obs.Obs.event) ->
          if ev.Jv_obs.Obs.ev_scope = "net" then
            Some
              (ev.Jv_obs.Obs.ev_tick, ev.Jv_obs.Obs.ev_name, ev.Jv_obs.Obs.ev_fields)
          else None)
        (Jv_obs.Obs.events (F.Fleet.obs g.G.Gossip.fleet))
    in
    let keys =
      List.init 32 (fun id ->
          let pool = G.Node.pool (G.Gossip.node g id) in
          G.Mempool.with_lock pool (fun () -> G.Mempool.keys pool))
    in
    ( Jv_simnet.Simnet.stats g.G.Gossip.net,
      net_events,
      Fmt.str "%a" G.Gossip.pp_report r,
      keys,
      decisions g )
  in
  let (bytes1, ev1, report1, keys1, dec1) = run () in
  let (bytes2, ev2, report2, keys2, dec2) = run () in
  Alcotest.(check (pair int int)) "control-net bytes" bytes1 bytes2;
  Alcotest.(check bool) "net events logged" true (ev1 <> []);
  Alcotest.(check bool) "same connections and drops, in order" true (ev1 = ev2);
  Alcotest.(check string) "same report" report1 report2;
  Alcotest.(check bool) "same pools" true (keys1 = keys2);
  Alcotest.(check string) "same decisions" dec1 dec2

let suite =
  [
    Alcotest.test_case "mempool: dedup of proposals and votes" `Quick
      test_mempool_dedup;
    Alcotest.test_case "mempool: con-sticky vote replacement" `Quick
      test_mempool_con_sticky;
    Alcotest.test_case "mempool: lock discipline" `Quick
      test_mempool_lock_discipline;
    QCheck_alcotest.to_alcotest prop_incremental_pool_state;
    QCheck_alcotest.to_alcotest prop_tally_semilattice;
    Alcotest.test_case "wire: codec round-trips" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: serve counts rejected lines" `Quick
      test_serve_counts_bad_lines;
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
    Alcotest.test_case "digest: exchanges close when answered" `Quick
      test_digest_exchanges_close;
    Alcotest.test_case "golden: 32-node rollout under 10% drops" `Quick
      test_golden_32_under_drops;
    Alcotest.test_case "determinism: the 32-node drop rollout replays" `Quick
      test_golden_32_replays;
    QCheck_alcotest.to_alcotest prop_convergence_under_chaos;
    QCheck_alcotest.to_alcotest prop_seed_determinism;
  ]
