(* Line codec for the gossip control plane.  One message per simnet
   line, space-separated fields, first token the message kind:

     PROP   <id> <epoch> <from-version> <to-version> <digest> <origin>
     TALLY  <proposal-id> <pro> [<con> [<trip>]]
     DIGEST <key,key,...>                       (or "-" when empty)
     WANT   <key,key,...>                       (or "-")
     BYE

   PROP and TALLY are rumor payloads.  A TALLY carries every vote a node
   holds for one proposal as three voter bitmaps, Pro, Con and Trip
   (voter v is bit [v mod 8] of byte [v / 8], bytes in order as
   lowercase hex, trailing zero bytes dropped, an empty map "-", and
   trailing empty maps dropped); each voter sits in the map of its
   highest stance, and the receiver joins the maps into its own
   ([Mempool.merge]).  [decode] accepts only that canonical spelling, so
   one set of votes has one line.  No vote carries a reason: a node
   reports its own on its VM's obs sink.

   DIGEST opens an anti-entropy reconciliation: the receiver answers
   with the full items the sender's key set lacks, then always ends its
   answer with a WANT for the keys it lacks itself ("WANT -" when it
   lacks none).  That WANT is the answer's terminal line: the initiator
   sends what it names, then BYE, and closes, so an exchange whose lines
   all arrive closes the round after it opened.  BYE ends an exchange or
   a rumor push. *)

type msg =
  | Prop of Mempool.proposal
  | Tally of { t_prop : string; t_maps : string list (* [Mempool.tally_maps] *) }
  | Digest of string list
  | Want of string list
  | Bye

let keys_field = function [] -> "-" | ks -> String.concat "," ks
let parse_keys = function "-" -> [] | s -> String.split_on_char ',' s

let encode = function
  | Prop p ->
      Printf.sprintf "PROP %s %d %s %s %s %d" p.Mempool.p_id p.Mempool.p_epoch
        p.Mempool.p_from_version p.Mempool.p_to_version p.Mempool.p_digest
        p.Mempool.p_origin
  | Tally { t_prop; t_maps } -> String.concat " " ("TALLY" :: t_prop :: t_maps)
  | Digest ks -> Printf.sprintf "DIGEST %s" (keys_field ks)
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
  | "TALLY" :: prop :: maps when Mempool.valid_maps maps ->
      Ok (Tally { t_prop = prop; t_maps = maps })
  | [ "DIGEST"; keys ] -> Ok (Digest (parse_keys keys))
  | [ "WANT"; keys ] -> Ok (Want (parse_keys keys))
  | [ "BYE" ] -> Ok Bye
  | _ -> Error ("unparseable gossip line: " ^ line)
