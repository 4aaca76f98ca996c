(* The update log (paper §3.4): the (old copy, new object) pairs of one
   update, in the order the transforming collection or a lazy window made
   them.  Pairs are stored as encoded reference words, two per pair, in
   one array that doubles when full; the words past [len] are zero. *)

type t = { mutable words : int array; mutable len : int (* valid words *) }

let create () = { words = [||]; len = 0 }
let pairs log = log.len / 2

let push log ~old_copy ~new_addr =
  if log.len = Array.length log.words then begin
    let grown = Array.make (max 16 (2 * log.len)) 0 in
    Array.blit log.words 0 grown 0 log.len;
    log.words <- grown
  end;
  log.words.(log.len) <- Value.of_ref old_copy;
  log.words.(log.len + 1) <- Value.of_ref new_addr;
  log.len <- log.len + 2

let pop log =
  log.len <- log.len - 2;
  log.words.(log.len) <- 0;
  log.words.(log.len + 1) <- 0

let old_copy log i = Value.to_ref log.words.(2 * i)
let new_addr log i = Value.to_ref log.words.((2 * i) + 1)

let forward log f =
  let w = log.words in
  for i = 0 to log.len - 1 do
    w.(i) <- Value.of_ref (f (Value.to_ref w.(i)))
  done

let old_copy_set log =
  let olds = Hashtbl.create (max 16 (pairs log)) in
  for i = 0 to pairs log - 1 do
    Hashtbl.replace olds (old_copy log i) ()
  done;
  Hashtbl.mem olds

let redirect log =
  let r = Hashtbl.create (max 16 log.len) in
  for i = 0 to pairs log - 1 do
    Hashtbl.replace r (new_addr log i) (old_copy log i)
  done;
  r
