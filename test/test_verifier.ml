(* Bytecode verifier tests: hand-built class files with deliberately broken
   code, plus the key soundness property that everything the compiler emits
   verifies. *)

module CF = Jv_classfile
open CF

let meth ?(access = Access.make ~static:true ()) ?(max_locals = 4)
    ?(params = []) ?(ret = Types.TVoid) name code : Cls.meth =
  {
    Cls.md_name = name;
    md_sig = { Types.params; ret };
    md_access = access;
    md_max_locals = max_locals;
    md_code = Some (Array.of_list code);
  }

let cls ?(fields = []) name methods : Cls.t =
  { Cls.c_name = name; c_super = Types.object_class; c_fields = fields;
    c_methods = methods }

let program classes = Cls.program_of_list (Builtins.all @ classes)

let expect_error ~substr classes =
  match Verifier.verify_program (program classes) with
  | [] -> Alcotest.failf "expected verification error mentioning %S" substr
  | errs ->
      if not (List.exists (fun e -> Helpers.contains e substr) errs) then
        Alcotest.failf "errors %s do not mention %S"
          (String.concat " | " errs)
          substr

let expect_ok classes =
  match Verifier.verify_program (program classes) with
  | [] -> ()
  | errs -> Alcotest.failf "unexpected errors: %s" (String.concat " | " errs)

let field ?(access = Access.make ()) name ty : Cls.field =
  { Cls.fd_name = name; fd_ty = ty; fd_access = access }

(* --- stack discipline --------------------------------------------------- *)

let stack_underflow () =
  expect_error ~substr:"pop from empty"
    [ cls "A" [ meth "f" [ Instr.Pop; Instr.Return ] ] ]

let unbalanced_merge () =
  (* one branch pushes, the other does not: depths disagree at the join *)
  expect_error ~substr:"depth mismatch"
    [
      cls "A"
        [
          meth "f"
            [
              Instr.Const_bool true (* 0 *);
              Instr.If_true 3 (* 1 *);
              Instr.Const_int 1 (* 2 *);
              Instr.Return (* 3: reached with depth 0 and depth 1 *);
            ];
        ];
    ]

let type_confusion () =
  expect_error ~substr:"expects int"
    [ cls "A" [ meth "f" [ Instr.Const_null; Instr.Neg; Instr.Return ] ] ];
  expect_error ~substr:"expects a reference"
    [ cls "A" [ meth "f" [ Instr.Const_int 1; Instr.Const_int 2; Instr.Acmp_eq;
                           Instr.Pop; Instr.Return ] ] ];
  expect_error ~substr:"conditional branch"
    [ cls "A" [ meth "f" [ Instr.Const_int 1; Instr.If_true 0; Instr.Return ] ] ]

let branch_targets () =
  expect_error ~substr:"out of range"
    [ cls "A" [ meth "f" [ Instr.Goto 99 ] ] ];
  expect_error ~substr:"falls off the end"
    [ cls "A" [ meth "f" [ Instr.Const_int 1; Instr.Pop ] ] ]

let locals_checks () =
  expect_error ~substr:"out of range"
    [ cls "A" [ meth ~max_locals:1 "f" [ Instr.Load 5; Instr.Pop; Instr.Return ] ] ];
  expect_error ~substr:"uninitialized local"
    [ cls "A" [ meth "f" [ Instr.Load 0; Instr.Pop; Instr.Return ] ] ];
  (* a local only initialized on one path may not be read after the join *)
  expect_ok
    [
      cls "A"
        [
          meth ~params:[ Types.TBool ] "f"
            [
              Instr.Load 0;
              Instr.If_false 4;
              Instr.Const_int 7;
              Instr.Store 1;
              Instr.Return;
            ];
        ];
    ]

let return_checks () =
  expect_error ~substr:"void return from non-void"
    [ cls "A" [ meth ~ret:Types.TInt "f" [ Instr.Return ] ] ];
  expect_error ~substr:"value return from void"
    [ cls "A" [ meth "f" [ Instr.Const_int 1; Instr.Return_val ] ] ];
  expect_error ~substr:"return value"
    [
      cls "A"
        [ meth ~ret:Types.TInt "f" [ Instr.Const_null; Instr.Return_val ] ];
    ]

(* --- member resolution and access ----------------------------------------- *)

let fref c n ty = { Instr.f_class = c; f_name = n; f_ty = ty }

let member_resolution () =
  expect_error ~substr:"unresolved field"
    [
      cls "A"
        [
          meth "f"
            [ Instr.Get_static (fref "A" "nope" Types.TInt); Instr.Pop;
              Instr.Return ];
        ];
    ];
  expect_error ~substr:"reference says"
    [
      cls ~fields:[ field ~access:(Access.make ~static:true ()) "x" Types.TInt ]
        "A"
        [
          meth "f"
            [ Instr.Get_static (fref "A" "x" Types.TBool); Instr.Pop;
              Instr.Return ];
        ];
    ];
  expect_error ~substr:"static-ness mismatch"
    [
      cls ~fields:[ field "x" Types.TInt ] "A"
        [
          meth "f"
            [ Instr.Get_static (fref "A" "x" Types.TInt); Instr.Pop;
              Instr.Return ];
        ];
    ];
  expect_error ~substr:"unresolved method"
    [
      cls "A"
        [
          meth "f"
            [
              Instr.Invoke_static
                { Instr.m_class = "A"; m_name = "nope";
                  m_sig = { Types.params = []; ret = Types.TVoid } };
              Instr.Return;
            ];
        ];
    ]

let access_enforcement () =
  let priv =
    cls
      ~fields:
        [ field ~access:(Access.make ~visibility:Access.Private ~static:true ())
            "secret" Types.TInt ]
      "B" []
  in
  let snoop =
    cls "A"
      [
        meth "f"
          [ Instr.Get_static (fref "B" "secret" Types.TInt); Instr.Pop;
            Instr.Return ];
      ]
  in
  expect_error ~substr:"illegal access" [ priv; snoop ];
  (* the same bytecode passes in Transformer mode: the paper's JastAdd
     hack, accepted by the VM "in this special circumstance" *)
  match
    Verifier.verify_program ~mode:Verifier.Transformer (program [ priv; snoop ])
  with
  | [] -> ()
  | errs -> Alcotest.failf "transformer mode rejected: %s" (String.concat "|" errs)

let final_enforcement () =
  let classes =
    [
      cls
        ~fields:
          [ field ~access:(Access.make ~static:true ~final:true ()) "k"
              Types.TInt ]
        "B" [];
      cls "A"
        [
          meth "f"
            [ Instr.Const_int 3; Instr.Put_static (fref "B" "k" Types.TInt);
              Instr.Return ];
        ];
    ]
  in
  expect_error ~substr:"final" classes;
  (match
     Verifier.verify_program ~mode:Verifier.Transformer (program classes)
   with
  | [] -> ()
  | errs -> Alcotest.failf "transformer mode rejected: %s" (String.concat "|" errs))

(* --- structural well-formedness -------------------------------------------- *)

let structure () =
  expect_error ~substr:"unknown superclass"
    [ { Cls.c_name = "A"; c_super = "Nope"; c_fields = []; c_methods = [] } ];
  expect_error ~substr:"narrows visibility"
    [
      cls "B" [ meth ~access:(Access.make ()) ~max_locals:1 "m" [ Instr.Return ] ];
      {
        Cls.c_name = "A";
        c_super = "B";
        c_fields = [];
        c_methods =
          [
            meth ~access:(Access.make ~visibility:Access.Private ())
              ~max_locals:1 "m" [ Instr.Return ];
          ];
      };
    ]

(* --- the soundness anchor: compiled code always verifies ------------------- *)

let compiler_output_verifies () =
  (* every test app version must verify — several hundred methods across
     30 program versions *)
  List.iter
    (fun app ->
      List.iter
        (fun version ->
          (* compile_program itself verifies; also re-verify explicitly *)
          let classes = Jv_apps.App.compile app ~version in
          match
            Verifier.verify_program (Cls.program_of_list (Builtins.all @ classes))
          with
          | [] -> ()
          | errs -> Alcotest.failf "verifier: %s" (String.concat "|" errs))
        (Jv_apps.App.versions app))
    Jv_apps.App.all

let suite =
  [
    Alcotest.test_case "stack underflow" `Quick stack_underflow;
    Alcotest.test_case "unbalanced merge" `Quick unbalanced_merge;
    Alcotest.test_case "type confusion" `Quick type_confusion;
    Alcotest.test_case "branch targets" `Quick branch_targets;
    Alcotest.test_case "locals checks" `Quick locals_checks;
    Alcotest.test_case "return checks" `Quick return_checks;
    Alcotest.test_case "member resolution" `Quick member_resolution;
    Alcotest.test_case "access enforcement" `Quick access_enforcement;
    Alcotest.test_case "final enforcement" `Quick final_enforcement;
    Alcotest.test_case "structural checks" `Quick structure;
    Alcotest.test_case "compiler output verifies" `Quick
      compiler_output_verifies;
  ]
