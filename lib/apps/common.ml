(* Shared helpers for the benchmark server apps. *)

module J = Jvolve_core

(* Health/protocol reply check: does [resp] start with [prefix]?  Every
   app's health probe ("/healthz", "HLTH") succeeds iff the reply begins
   with the protocol's success code, so the four servers and the
   workload driver share this one implementation. *)
let prefix_ok prefix resp =
  let n = String.length prefix in
  String.length resp >= n && String.sub resp 0 n = prefix

(* Version tag for renamed old classes: "5.1.4" -> "514".  Dots are
   illegal in class names, so every harness that builds a spec from an
   app version strips them the same way. *)
let version_tag version = String.concat "" (String.split_on_char '.' version)

(* The line-protocol health convention shared by the non-HTTP apps
   (minimail, miniftp, ministore): the probe line is "HLTH" and every
   version answers it outside the versioned handler path, so it works
   across an update. *)
let hlth_probe = "HLTH"

(* Transformer overrides an app ships for one update step: custom
   [jvolveObject]/[jvolveClass] bodies for the forward migration, plus
   the rollback direction's bodies so a guard revert recomputes the old
   representation instead of default-mapping it. *)
type overrides = {
  ov_object : (string * string) list;
  ov_class : (string * string) list;
  ov_inverse_object : (string * string) list;
  ov_inverse_class : (string * string) list;
}

let no_overrides =
  { ov_object = []; ov_class = []; ov_inverse_object = []; ov_inverse_class = [] }

(* Build an update spec carrying all four override directions.  App
   harnesses reach it through [App.spec]; it stays apart for callers that
   pick their own version tag. *)
let spec ?blacklist ?(overrides = no_overrides) ~version_tag ~old_program
    ~new_program () =
  J.Spec.make ?blacklist ~object_overrides:overrides.ov_object
    ~class_overrides:overrides.ov_class
    ~inverse_object_overrides:overrides.ov_inverse_object
    ~inverse_class_overrides:overrides.ov_inverse_class ~version_tag
    ~old_program ~new_program ()
