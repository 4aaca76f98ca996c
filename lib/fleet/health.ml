(* Asynchronous health probes and the canary health gate.

   A probe is a one-line [Jv_simnet.Client] session run directly against
   one instance's simnet (bypassing the load balancer, like a sidecar
   health checker), stepped once per fleet round: it retries a refused
   connect and reads past lines failing [ok] (some servers greet with a
   banner first) until [deadline_rounds] after its start.

   The canary gate compares load-balancer observation windows between
   the canary pool and the stable pool. *)

module Client = Jv_simnet.Client

type outcome = Pending | Healthy of int (* latency in rounds *) | Unhealthy of string

type probe = {
  p_client : Client.t;
  p_started : int;
  mutable p_outcome : outcome;
}

let start ~net ~port ~line ~ok ~now ~deadline_rounds =
  {
    p_client =
      Client.create ~net ~port ~script:[ line ] ~ok
        ~arrivals:(Client.Probe { deadline = now + deadline_rounds })
        ();
    p_started = now;
    p_outcome = Pending;
  }

let step p ~now =
  if p.p_outcome = Pending then begin
    Client.step p.p_client ~now;
    p.p_outcome <-
      (match Client.verdict p.p_client with
      | Client.Pending -> Pending
      | Client.Answered -> Healthy (now - p.p_started)
      | Client.Severed -> Unhealthy "connection closed by server"
      | Client.Refused -> Unhealthy "not accepting connections"
      | Client.Timed_out -> Unhealthy "no healthy response before deadline")
  end

let outcome p = p.p_outcome

(* --- the canary gate --------------------------------------------------- *)

(* The gate's thresholds: the canaries are judged once they served
   [min_responses] (the latency test needs as many from the stable
   pool), and fail above an absolute error-rate ceiling, an error rate
   this far above the stable pool's, or a mean latency this many times
   the stable pool's. *)
let min_responses = 20
let max_error_rate = 0.05
let max_error_delta = 0.02
let max_latency_factor = 3.0

(* [None] = pass (or not enough signal yet: judged only when called after
   the observation window, so thin traffic counts as a pass with a note),
   [Some reason] = the canaries are sicker than the stable pool. *)
let judge ~(canary : Lb.window) ~(stable : Lb.window) : string option =
  let ce = Lb.error_rate canary and se = Lb.error_rate stable in
  let cl = Lb.mean_latency canary and sl = Lb.mean_latency stable in
  if canary.Lb.w_responses < min_responses then
    if canary.Lb.w_responses = 0 && canary.Lb.w_sessions > 0 then
      Some "canaries answered none of the routed requests"
    else None (* not enough traffic to condemn the canaries *)
  else if ce > max_error_rate then
    Some
      (Printf.sprintf "canary error rate %.1f%% above ceiling %.1f%%"
         (100. *. ce)
         (100. *. max_error_rate))
  else if ce -. se > max_error_delta then
    Some
      (Printf.sprintf "canary error rate %.1f%% vs stable %.1f%%"
         (100. *. ce) (100. *. se))
  else if
    stable.Lb.w_responses >= min_responses
    && sl > 0.0
    && cl > sl *. max_latency_factor
  then
    Some
      (Printf.sprintf "canary latency %.1f rounds vs stable %.1f"
         cl sl)
  else None
