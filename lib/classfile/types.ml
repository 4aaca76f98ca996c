(* Type descriptors for the MiniJava class-file format.

   The type language mirrors the subset of Java that Jvolve updates operate
   over: machine integers, booleans, reference types naming a class, and
   (invariant) array types.  [TVoid] appears only in method return
   positions. *)

type ty =
  | TInt
  | TBool
  | TRef of string (* class name *)
  | TArray of ty
  | TVoid

(* A method signature.  Two methods with the same name and signature override
   one another; signatures are compared structurally. *)
type msig = { params : ty list; ret : ty }

let rec equal_ty a b =
  match (a, b) with
  | TInt, TInt | TBool, TBool | TVoid, TVoid -> true
  | TRef x, TRef y -> String.equal x y
  | TArray x, TArray y -> equal_ty x y
  | _ -> false

let equal_msig a b =
  List.length a.params = List.length b.params
  && List.for_all2 equal_ty a.params b.params
  && equal_ty a.ret b.ret

(* JVM-style descriptor strings, used for method mangling and diffing. *)
let rec descriptor = function
  | TInt -> "I"
  | TBool -> "Z"
  | TVoid -> "V"
  | TRef c -> "L" ^ c ^ ";"
  | TArray t -> "[" ^ descriptor t

let msig_descriptor { params; ret } =
  "(" ^ String.concat "" (List.map descriptor params) ^ ")" ^ descriptor ret

(* Parse a descriptor back into a type: the inverse of [descriptor].
   Returns the type and the number of characters consumed. *)
exception Bad_descriptor of string

let rec parse_descriptor (s : string) (i : int) : ty * int =
  if i >= String.length s then raise (Bad_descriptor s);
  match s.[i] with
  | 'I' -> (TInt, i + 1)
  | 'Z' -> (TBool, i + 1)
  | 'V' -> (TVoid, i + 1)
  | '[' ->
      let t, j = parse_descriptor s (i + 1) in
      (TArray t, j)
  | 'L' -> (
      match String.index_from_opt s i ';' with
      | None -> raise (Bad_descriptor s)
      | Some j -> (TRef (String.sub s (i + 1) (j - i - 1)), j + 1))
  | _ -> raise (Bad_descriptor s)

let of_descriptor s =
  let t, n = parse_descriptor s 0 in
  if n <> String.length s then raise (Bad_descriptor s);
  t

(* "(ILString;)V" -> msig *)
let msig_of_descriptor s =
  let n = String.length s in
  if n < 3 || s.[0] <> '(' then raise (Bad_descriptor s);
  let close =
    match String.index_opt s ')' with
    | Some c -> c
    | None -> raise (Bad_descriptor s)
  in
  let rec params i acc =
    if i >= close then List.rev acc
    else
      let t, j = parse_descriptor s i in
      if j > close then raise (Bad_descriptor s);
      params j (t :: acc)
  in
  let ps = params 1 [] in
  let ret, fin = parse_descriptor s (close + 1) in
  if fin <> n then raise (Bad_descriptor s);
  { params = ps; ret }

(* Human-readable form, used by the disassembler and error messages. *)
let rec to_string = function
  | TInt -> "int"
  | TBool -> "boolean"
  | TVoid -> "void"
  | TRef c -> c
  | TArray t -> to_string t ^ "[]"

let msig_to_string { params; ret } =
  Printf.sprintf "(%s)%s"
    (String.concat ", " (List.map to_string params))
    (to_string ret)

let pp_ty ppf t = Fmt.string ppf (to_string t)

let is_reference = function TRef _ | TArray _ -> true | _ -> false

(* Every class implicitly extends [object_class]; [string_class] is the
   built-in string type with native methods. *)
let object_class = "Object"
let string_class = "String"
let t_string = TRef string_class
let t_object = TRef object_class

(* Classes mentioned by a type: used by the UPT to compute which methods
   refer to updated classes. *)
let rec classes_of_ty acc = function
  | TInt | TBool | TVoid -> acc
  | TRef c -> c :: acc
  | TArray t -> classes_of_ty acc t

let classes_of_msig { params; ret } =
  List.fold_left classes_of_ty (classes_of_ty [] ret) params
