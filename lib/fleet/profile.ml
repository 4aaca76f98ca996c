(* The fleet's name for [Jv_apps.App], the one app descriptor. *)

include Jv_apps.App

(* A hop's version tag; [instance_id] is ignored (one tag per hop, see
   [Jv_apps.App.spec]).  Kept for the benchmark's fleet builds. *)
let version_tag ~from_version ~instance_id:_ =
  Jv_apps.Common.version_tag from_version
