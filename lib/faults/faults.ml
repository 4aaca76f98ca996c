(* Seeded, deterministic fault injection.

   The paper's safety claim (§3.3-3.4) is all-or-nothing: an update either
   completes atomically at a DSU safe point or the program keeps running
   the old version.  Nothing exercises the failure half of that claim
   unless something actually fails, so this module provides the failures:
   a *fault plan* arms named injection points scattered through the stack
   (the updater phases, the simulated network, the fleet orchestrator) to
   raise, kill the VM, drop a message, or delay it.

   Plans are deterministic: every probabilistic decision draws from one
   seeded xorshift stream owned by the plan, so a (plan string, seed) pair
   replays the same fault schedule on every run — chaos tests and the
   chaos bench depend on this.

   Plan syntax (see also README):

     PLAN   := RULE { ',' RULE }
     RULE   := POINT '=' ACTION [ '@' RATE ] [ 'x' COUNT ]
     ACTION := 'raise' | 'kill' | 'drop' | 'delay:' TICKS
     RATE   := probability in [0,1], e.g. 0.2 (default 1.0)
     COUNT  := max times the rule may fire (default unlimited)

   A POINT is matched exactly, or by prefix when the rule's point ends in
   '*' (e.g. "updater.*"); either way it must name a registered point
   ([points]).  Examples:

     updater.transform=raise@0.2       20% of transformer pairs throw
     updater.load=kill x1              first load phase kills the VM
     net.link=delay:3@0.1,net.connect=drop@0.05 *)

type action =
  | Raise (* raise [Injected] at the point *)
  | Kill (* raise [Killed]: the VM is dead, as in a process crash *)
  | Drop (* network: discard the message / refuse the connection *)
  | Delay of int (* network: hold the message for N ticks *)

exception Injected of string (* the point that fired *)
exception Killed of string

type rule = {
  ru_point : string; (* exact name, or prefix when ru_prefix *)
  ru_prefix : bool; (* the plan spelled a trailing '*' *)
  ru_action : action;
  ru_rate : float;
  ru_max_fires : int; (* max_int = unlimited *)
  mutable ru_fired : int;
}

type t = {
  seed : int;
  mutable rng : int;
  mutable rules : rule list; (* in plan order; first match that fires wins *)
  fired_at : (string, int) Hashtbl.t; (* point -> fire count *)
  mutable obs : Jv_obs.Obs.t option;
}

let create ?(seed = 42) () =
  {
    seed;
    rng = (seed lxor 0x2545F49) lor 1;
    rules = [];
    fired_at = Hashtbl.create 8;
    obs = None;
  }

let seed t = t.seed
let set_obs t sink = t.obs <- Some sink

(* Every point the stack consults.  A rule must name one of them, or
   end in '*' with a prefix of at least one, so a mistyped plan is
   refused instead of silently arming nothing. *)
let points =
  [
    "updater.load"; "updater.gc"; "updater.transform"; "updater.osr";
    "transformer.loop"; "transformer.throw"; "transformer.badwrite";
    "guard.trap"; "guard.probe"; "guard.latency"; "guard.trip";
    "guard.revert"; "vm.crash"; "supervisor.restart"; "net.link";
    "net.connect"; "simnet.partition";
  ]

let split_point point =
  let n = String.length point in
  if n > 0 && point.[n - 1] = '*' then (String.sub point 0 (n - 1), true)
  else (point, false)

let known point =
  match split_point point with
  | name, false -> List.mem name points
  | prefix, true -> List.exists (String.starts_with ~prefix) points

let arm t ~point ?(rate = 1.0) ?(max_fires = max_int) action =
  if not (known point) then
    invalid_arg (Printf.sprintf "Faults.arm: unknown fault point %S" point);
  let name, prefix = split_point point in
  t.rules <-
    t.rules
    @ [
        {
          ru_point = name;
          ru_prefix = prefix;
          ru_action = action;
          ru_rate = rate;
          ru_max_fires = max_fires;
          ru_fired = 0;
        };
      ]

let clear t =
  t.rules <- [];
  Hashtbl.reset t.fired_at

(* Deterministic xorshift, same recipe as the VM's [State.next_random]. *)
let next_unit t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x land max_int;
  float_of_int (t.rng mod 1_000_000) /. 1_000_000.0

(* Public draws from the plan's stream: gossip peer selection and the
   simnet partition chooser pull their randomness from here, so one
   (plan, seed) pair fixes the fault schedule AND every schedule built
   on top of it — gossip rounds replay byte-identically. *)
let draw t = next_unit t

let draw_int t bound =
  if bound <= 0 then invalid_arg "Faults.draw_int: bound must be > 0";
  int_of_float (next_unit t *. float_of_int bound) mod bound

let matches r point =
  if r.ru_prefix then
    String.length point >= String.length r.ru_point
    && String.equal (String.sub point 0 (String.length r.ru_point)) r.ru_point
  else String.equal r.ru_point point

let action_to_string = function
  | Raise -> "raise"
  | Kill -> "kill"
  | Drop -> "drop"
  | Delay n -> Printf.sprintf "delay:%d" n

let record_fire t r point =
  r.ru_fired <- r.ru_fired + 1;
  Hashtbl.replace t.fired_at point
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.fired_at point));
  match t.obs with
  | None -> ()
  | Some o ->
      Jv_obs.Obs.incr o "faults.fired";
      Jv_obs.Obs.emit o ~scope:"faults" "fault.fired"
        [
          ("point", Jv_obs.Obs.Str point);
          ("action", Jv_obs.Obs.Str (action_to_string r.ru_action));
          ("nth", Jv_obs.Obs.Int r.ru_fired);
        ]

(* Consult the plan at [point]: the first matching, non-exhausted rule
   whose rate check passes fires.  Every matching rule consumes one draw
   from the stream even when it does not fire, so schedules stay aligned
   across runs regardless of which earlier rules already hit their caps. *)
let check (t : t option) point : action option =
  match t with
  | None -> None
  | Some t ->
      let rec go = function
        | [] -> None
        | r :: rest ->
            if not (matches r point) then go rest
            else
              let draw = next_unit t in
              if r.ru_fired >= r.ru_max_fires then go rest
              else if draw < r.ru_rate then begin
                record_fire t r point;
                Some r.ru_action
              end
              else go rest
      in
      go t.rules

(* Execution-path points: [Raise]/[Kill] become exceptions; network-only
   actions are meaningless here and are ignored. *)
let point (t : t option) name =
  match check t name with
  | Some Raise -> raise (Injected name)
  | Some Kill -> raise (Killed name)
  | Some (Drop | Delay _) | None -> ()

(* Network points: never raise into harness drivers; a [Raise]/[Kill]
   armed on a link behaves like a drop. *)
let link (t : t option) name : [ `Ok | `Drop | `Delay of int ] =
  match check t name with
  | None -> `Ok
  | Some (Drop | Raise | Kill) -> `Drop
  | Some (Delay n) -> `Delay (max 1 n)

let fired t =
  Hashtbl.fold (fun _ n acc -> acc + n) t.fired_at 0

let fired_at t point =
  Option.value ~default:0 (Hashtbl.find_opt t.fired_at point)

(* --- the plan DSL -------------------------------------------------------- *)

let rule_to_string r =
  Printf.sprintf "%s%s=%s%s%s" r.ru_point
    (if r.ru_prefix then "*" else "")
    (action_to_string r.ru_action)
    (if r.ru_rate >= 1.0 then "" else Printf.sprintf "@%g" r.ru_rate)
    (if r.ru_max_fires = max_int then ""
     else Printf.sprintf "x%d" r.ru_max_fires)

let to_string t = String.concat "," (List.map rule_to_string t.rules)

let parse_rule t s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "rule %S: expected POINT=ACTION" s)
  | Some eq -> (
      let point = String.trim (String.sub s 0 eq) in
      let rhs = String.sub s (eq + 1) (String.length s - eq - 1) in
      (* peel xCOUNT, then @RATE, leaving the action *)
      let rhs, max_fires =
        match String.rindex_opt rhs 'x' with
        | Some i
          when i > 0
               && int_of_string_opt
                    (String.sub rhs (i + 1) (String.length rhs - i - 1))
                  <> None ->
            ( String.trim (String.sub rhs 0 i),
              int_of_string (String.sub rhs (i + 1) (String.length rhs - i - 1))
            )
        | _ -> (String.trim rhs, max_int)
      in
      let rhs, rate =
        match String.rindex_opt rhs '@' with
        | Some i -> (
            let r = String.sub rhs (i + 1) (String.length rhs - i - 1) in
            match float_of_string_opt r with
            | Some f when f >= 0.0 && f <= 1.0 ->
                (String.trim (String.sub rhs 0 i), f)
            | _ -> ("", -1.0))
        | None -> (rhs, 1.0)
      in
      if rate < 0.0 then Error (Printf.sprintf "rule %S: bad rate" s)
      else if point = "" then Error (Printf.sprintf "rule %S: empty point" s)
      else if not (known point) then
        Error (Printf.sprintf "rule %S: unknown fault point %S" s point)
      else
        let action =
          match String.trim rhs with
          | "raise" -> Some Raise
          | "kill" -> Some Kill
          | "drop" -> Some Drop
          | a when String.length a > 6 && String.sub a 0 6 = "delay:" -> (
              match
                int_of_string_opt (String.sub a 6 (String.length a - 6))
              with
              | Some n when n > 0 -> Some (Delay n)
              | _ -> None)
          | _ -> None
        in
        match action with
        | None -> Error (Printf.sprintf "rule %S: unknown action %S" s rhs)
        | Some a ->
            arm t ~point ~rate ~max_fires a;
            Ok ())

let parse ?seed plan : (t, string) result =
  let t = create ?seed () in
  let rules =
    String.split_on_char ',' plan
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if rules = [] then Error "empty fault plan"
  else
    let rec go = function
      | [] -> Ok t
      | r :: rest -> (
          match parse_rule t r with Ok () -> go rest | Error e -> Error e)
    in
    go rules
