(* The green-thread scheduler.

   One [round] = one logical clock tick: harness pollers run (simulated
   network clients), blocked threads whose conditions cleared are resumed,
   then every runnable thread executes one quantum.  Threads park only at
   VM safe points (see [Interp]), so between slices the whole world is
   stopped at safe points — which is when the DSU attempt hook runs
   (paper §3.2: "once application threads on all processors have reached VM
   safe points, Jvolve checks the paused threads' stacks"). *)

module Simnet = Jv_simnet.Simnet

let block_ready vm = function
  | State.B_sleep wake -> vm.State.ticks >= wake
  | State.B_accept lid -> Simnet.has_pending vm.State.net ~listener_id:lid
  | State.B_recv cid ->
      (* negative handles are the client side of a loopback connection *)
      if cid < 0 then Simnet.client_can_recv vm.State.net ~conn_id:(-cid)
      else Simnet.can_recv vm.State.net ~conn_id:cid
  | State.B_dsu -> false (* released explicitly when the update resolves *)

let wake_blocked vm =
  List.iter
    (fun (t : State.vthread) ->
      match t.State.tstate with
      | State.T_blocked reason when block_ready vm reason ->
          Interp.retry_pending vm t
      | _ -> ())
    vm.State.threads

(* Drop finished/trapped threads, to keep root scans and scheduling cheap
   on long runs.  Threads end only through [State.finish], so a round in
   which none did (an idle VM's) leaves the list as it is. *)
let reap vm =
  if vm.State.ended then begin
    vm.State.ended <- false;
    vm.State.threads <-
      List.filter
        (fun (t : State.vthread) ->
          match t.State.tstate with
          | State.T_done | State.T_trapped _ -> false
          | _ -> true)
        vm.State.threads
  end

(* Steady-state crash point: an armed [vm.crash] rule turns this round
   into the VM's last.  The kill is recorded directly (no exception
   escapes into the harness) so a fleet supervisor can observe the corpse
   via [State.killed] and restart it.  Plans without a matching rule
   consume no RNG draws here, so existing seeded schedules are
   unperturbed. *)
let crash_check vm =
  if vm.State.killed = None then
    match Jv_faults.Faults.check vm.State.faults "vm.crash" with
    | Some (Jv_faults.Faults.Kill | Jv_faults.Faults.Raise) ->
        vm.State.killed <- Some "fault injected: vm.crash"
    | Some (Jv_faults.Faults.Drop | Jv_faults.Faults.Delay _) | None -> ()

let round vm =
  crash_check vm;
  if vm.State.killed <> None then ()
  else begin
  vm.State.ticks <- vm.State.ticks + 1;
  List.iter (fun f -> f vm) vm.State.pollers;
  wake_blocked vm;
  let runnable = State.runnable_threads vm in
  Jv_obs.Metrics.incr (Lazy.force vm.State.m_rounds);
  Jv_obs.Metrics.set (Lazy.force vm.State.m_runnable)
    (float_of_int (List.length runnable));
  List.iter
    (fun (t : State.vthread) ->
      match t.State.tstate with
      | State.T_runnable ->
          ignore (Interp.run_slice vm t ~fuel:vm.State.config.quantum);
          (* a return barrier fired: give the DSU machinery a chance to
             re-check for a safe point right away *)
          if vm.State.barrier_fired then begin
            vm.State.barrier_fired <- false;
            match vm.State.dsu_attempt with Some f -> f vm | None -> ()
          end
      | _ -> ())
    runnable;
  (* all threads parked at safe points: attempt any pending update *)
  (match vm.State.dsu_attempt with Some f -> f vm | None -> ());
  (* an open lazy update window sweeps a bounded number of pending
     objects per round (and drives its own rollback when aborting) *)
  (match vm.State.lazy_info with Some li -> li.State.li_sweep vm | None -> ());
  (* the post-commit guard watchdog ticks once per round, after the
     slices it is judging (and after any revert the DSU hook ran) *)
  (match vm.State.guard_tick with Some f -> f vm | None -> ());
  reap vm
  end

let run_rounds vm n =
  for _ = 1 to n do
    round vm
  done

(* Can any thread still make progress without outside help?  True when some
   thread is runnable, or blocked on a condition that is already (or will
   become) ready.  Sleepers always become ready as ticks advance. *)
let progress_possible vm =
  vm.State.killed = None
  && (vm.State.dsu_attempt <> None
  || vm.State.guard_tick <> None (* an open guard window still needs rounds *)
  (* an open lazy window still drains (an indirection-mode one only when
     its objects are touched) *)
  || (vm.State.lazy_info <> None && not vm.State.config.indirection_mode)
  || List.exists
       (fun (t : State.vthread) ->
         match t.State.tstate with
         | State.T_runnable -> true
         | State.T_blocked (State.B_sleep _) -> true
         | State.T_blocked r -> block_ready vm r
         | _ -> false)
       vm.State.threads)

(* Run until no thread can make progress (all done/trapped, or everything
   blocked on I/O with no poller to unblock it), or until [max_rounds]. *)
let run_to_quiescence ?(max_rounds = 100_000) vm =
  let rec go n =
    if n >= max_rounds then `Max_rounds
    else begin
      round vm;
      match State.live_threads vm with
      | [] -> `All_done
      | _ ->
          if (not (progress_possible vm)) && vm.State.pollers = [] then
            `Deadlocked
          else go (n + 1)
    end
  in
  go 0
