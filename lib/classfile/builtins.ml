(* Built-in classes: Object, String, and the native-method facades the VM
   provides to MiniJava programs (Sys, Net, Thread, Jvolve).

   These class files are injected by the class loader at boot and are known
   to the MiniJava typechecker.  All their methods are [native]: the VM
   dispatches them to OCaml implementations in [Jv_vm.Natives]. *)

open Types

let native_meth ?(static = false) name params ret : Cls.meth =
  {
    Cls.md_name = name;
    md_sig = { params; ret };
    md_access = Access.make ~static ~native:true ();
    md_max_locals = 0;
    md_code = None;
  }

let object_cls : Cls.t =
  {
    Cls.c_name = object_class;
    c_super = object_class;
    c_fields = [];
    c_methods = [];
  }

let string_cls : Cls.t =
  {
    Cls.c_name = string_class;
    c_super = object_class;
    c_fields =
      [
        (* the interned string-table index; hidden from MiniJava source *)
        {
          Cls.fd_name = "sid#";
          fd_ty = TInt;
          fd_access = Access.make ~visibility:Access.Private ~final:true ();
        };
      ];
    c_methods =
      [
        native_meth "length" [] TInt;
        native_meth "concat" [ t_string ] t_string;
        native_meth "equals" [ t_string ] TBool;
        native_meth "substring" [ TInt; TInt ] t_string;
        native_meth "indexOf" [ t_string ] TInt;
        native_meth "charAt" [ TInt ] TInt;
        native_meth "split" [ t_string; TInt ] (TArray t_string);
        native_meth "startsWith" [ t_string ] TBool;
        native_meth "endsWith" [ t_string ] TBool;
        native_meth "trim" [] t_string;
        native_meth "contains" [ t_string ] TBool;
        native_meth "toInt" [] TInt;
        native_meth "toLowerCase" [] t_string;
        native_meth ~static:true "ofInt" [ TInt ] t_string;
      ];
  }

let sys_cls : Cls.t =
  {
    Cls.c_name = "Sys";
    c_super = object_class;
    c_fields = [];
    c_methods =
      [
        native_meth ~static:true "print" [ t_string ] TVoid;
        native_meth ~static:true "println" [ t_string ] TVoid;
        native_meth ~static:true "time" [] TInt;
        native_meth ~static:true "fail" [ t_string ] TVoid;
        native_meth ~static:true "random" [ TInt ] TInt;
      ];
  }

let net_cls : Cls.t =
  {
    Cls.c_name = "Net";
    c_super = object_class;
    c_fields = [];
    c_methods =
      [
        native_meth ~static:true "listen" [ TInt ] TInt;
        native_meth ~static:true "accept" [ TInt ] TInt;
        native_meth ~static:true "recvLine" [ TInt ] t_string;
        native_meth ~static:true "send" [ TInt; t_string ] TVoid;
        native_meth ~static:true "close" [ TInt ] TVoid;
        (* open a client connection to another service in the same VM;
           returns a negative handle whose send/recvLine/close act on the
           client side of the connection, or 0 if nothing listens *)
        native_meth ~static:true "connectLoopback" [ TInt ] TInt;
      ];
  }

let thread_cls : Cls.t =
  {
    Cls.c_name = "Thread";
    c_super = object_class;
    c_fields = [];
    c_methods =
      [
        native_meth ~static:true "spawn" [ t_object ] TVoid;
        native_meth ~static:true "yieldNow" [] TVoid;
        native_meth ~static:true "sleep" [ TInt ] TVoid;
      ];
  }

let jvolve_cls : Cls.t =
  {
    Cls.c_name = "Jvolve";
    c_super = object_class;
    c_fields = [];
    c_methods =
      [
        (* force an object's transformer to run (paper §3.4); a no-op
           outside the transformer phase *)
        native_meth ~static:true "transform" [ t_object ] TVoid;
      ];
  }

let all = [ object_cls; string_cls; sys_cls; net_cls; thread_cls; jvolve_cls ]

(* A program combining the builtins with user classes. *)
let program_with classes = Cls.program_of_list (all @ classes)
