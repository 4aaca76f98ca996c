(* Access modifiers for fields and methods. *)

type visibility = Public | Protected | Private | Package

type t = {
  visibility : visibility;
  is_static : bool;
  is_final : bool;
  is_native : bool;
}

let make ?(visibility = Public) ?(static = false) ?(final = false)
    ?(native = false) () =
  { visibility; is_static = static; is_final = final; is_native = native }

let default = make ()

let equal a b =
  a.visibility = b.visibility
  && a.is_static = b.is_static
  && a.is_final = b.is_final
  && a.is_native = b.is_native

let visibility_to_string = function
  | Public -> "public"
  | Protected -> "protected"
  | Private -> "private"
  | Package -> ""

let to_string a =
  String.concat " "
    (List.filter
       (fun s -> s <> "")
       [
         visibility_to_string a.visibility;
         (if a.is_static then "static" else "");
         (if a.is_final then "final" else "");
         (if a.is_native then "native" else "");
       ])

let pp ppf a = Fmt.string ppf (to_string a)

(* Visibility check: may code in [from_class] access a member of [in_class]
   with visibility [vis]?  [same_hierarchy] tells whether [from_class] is a
   subclass of [in_class] (for [Protected]).  Package visibility is treated
   as program-global since MiniJava has a single package. *)
let accessible vis ~same_class ~same_hierarchy =
  match vis with
  | Public | Package -> true
  | Protected -> same_class || same_hierarchy
  | Private -> same_class
