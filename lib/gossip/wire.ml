(* Line codec for the gossip control plane.  One message per simnet
   line, space-separated fields, first token the message kind:

     PROP   <id> <epoch> <from-version> <to-version> <digest> <origin>
     TALLY  <proposal-id> <pro-bitmap-hex>
     VOTE   <proposal-id> <voter> C <why>
     DIGEST <sender> <epoch> <key,key,...>      (or "-" when empty)
     WANT   <key,key,...>                        (or "-")
     BYE

   PROP, TALLY and VOTE are rumor payloads.  A TALLY carries every Pro
   vote a node holds for one proposal as a voter bitmap (voter v is bit
   [v mod 8] of byte [v / 8], bytes in order as lowercase hex, trailing
   zero bytes dropped); the receiver ORs it into its own.  Only Con
   votes travel as VOTE lines, one per voter, because fence decisions
   and abort reports read their reason.

   DIGEST opens an anti-entropy reconciliation: the receiver answers
   with the full items the sender's key set lacks, then always ends its
   answer with a WANT for the keys it lacks itself ("WANT -" when it
   lacks none).  That WANT is the answer's terminal line: the initiator
   sends what it names, then BYE, and closes, so an exchange whose lines
   all arrive closes the round after it opened.  BYE ends an exchange or
   a rumor push.  The free-text [why] of a vote is percent-escaped so it
   can carry spaces without breaking the token structure. *)

type msg =
  | Prop of Mempool.proposal
  | Tally of { t_prop : string; t_bits : string (* bitmap hex *) }
  | Vote of Mempool.vote (* a Con *)
  | Digest of { d_sender : int; d_epoch : int; d_keys : string list }
  | Want of string list
  | Bye

(* why-field escaping: '%' and ' ' only, enough for verdict strings *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | ' ' -> Buffer.add_string b "%20"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       (match String.sub s (!i + 1) 2 with
       | "20" -> Buffer.add_char b ' '
       | "25" -> Buffer.add_char b '%'
       | other ->
           Buffer.add_char b '%';
           Buffer.add_string b other);
       i := !i + 2
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let keys_field = function [] -> "-" | ks -> String.concat "," ks
let parse_keys = function "-" -> [] | s -> String.split_on_char ',' s

let encode = function
  | Prop p ->
      Printf.sprintf "PROP %s %d %s %s %s %d" p.Mempool.p_id p.Mempool.p_epoch
        p.Mempool.p_from_version p.Mempool.p_to_version p.Mempool.p_digest
        p.Mempool.p_origin
  | Tally { t_prop; t_bits } -> String.concat " " [ "TALLY"; t_prop; t_bits ]
  | Vote v ->
      if v.Mempool.v_stance <> Mempool.Con then
        invalid_arg "Wire.encode: Pro votes travel as TALLY lines";
      Printf.sprintf "VOTE %s %d C %s" v.Mempool.v_prop v.Mempool.v_voter
        (escape v.Mempool.v_why)
  | Digest { d_sender; d_epoch; d_keys } ->
      Printf.sprintf "DIGEST %d %d %s" d_sender d_epoch (keys_field d_keys)
  | Want ks -> Printf.sprintf "WANT %s" (keys_field ks)
  | Bye -> "BYE"

let decode line : (msg, string) result =
  match String.split_on_char ' ' line with
  | [ "PROP"; id; epoch; from_v; to_v; digest; origin ] -> (
      match (int_of_string_opt epoch, int_of_string_opt origin) with
      | Some e, Some o ->
          Ok
            (Prop
               {
                 Mempool.p_id = id;
                 p_epoch = e;
                 p_from_version = from_v;
                 p_to_version = to_v;
                 p_digest = digest;
                 p_origin = o;
               })
      | _ -> Error ("bad PROP: " ^ line))
  | [ "TALLY"; prop; bits ] when Mempool.valid_hex bits ->
      Ok (Tally { t_prop = prop; t_bits = bits })
  | [ "VOTE"; prop; voter; "C"; why ] -> (
      match int_of_string_opt voter with
      | Some voter when voter >= 0 ->
          Ok
            (Vote
               {
                 Mempool.v_prop = prop;
                 v_voter = voter;
                 v_stance = Mempool.Con;
                 v_why = unescape why;
               })
      | _ -> Error ("bad VOTE: " ^ line))
  | [ "DIGEST"; sender; epoch; keys ] -> (
      match (int_of_string_opt sender, int_of_string_opt epoch) with
      | Some s, Some e ->
          Ok (Digest { d_sender = s; d_epoch = e; d_keys = parse_keys keys })
      | _ -> Error ("bad DIGEST: " ^ line))
  | [ "WANT"; keys ] -> Ok (Want (parse_keys keys))
  | [ "BYE" ] -> Ok Bye
  | _ -> Error ("unparseable gossip line: " ^ line)
