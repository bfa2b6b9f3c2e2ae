(* qcs_lint's own tests: one positive fixture and one suppressed (or
   otherwise clean) twin per rule, the suppression and allowlist
   mechanics, exit semantics, the qcs_lint/v1 document, and the
   parse-error path. Fixtures are tiny inline sources pushed through
   Lint.lint_source — no temp files or subprocesses. *)

let lint ?(allow = []) ?(path = "lib/fixture.ml") text =
  Lint.lint_source ~rules:Lint_rules.all ~allow ~path text

let rules_of fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs

let severity_of rule fs =
  List.find_map
    (fun (f : Lint.finding) ->
       if f.Lint.rule = rule then Some f.Lint.severity else None)
    fs

let check_flagged name ?path ~rule text =
  Alcotest.(check bool) (name ^ ": flagged") true
    (List.mem rule (rules_of (lint ?path text)))

let check_clean name ?path ?allow text =
  Alcotest.(check (list string)) (name ^ ": clean") []
    (rules_of (lint ?allow ?path text))

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* Built by concatenation so the scanner never sees the word in this
   file's own text. *)
let todo_word = "TO" ^ "DO"

(* ---- one fixture pair per rule -------------------------------------- *)

let test_float_eq () =
  check_flagged "literal rhs" ~rule:"float-eq" "let f x = x = 1.0\n";
  check_flagged "literal lhs" ~rule:"float-eq" "let f x = 0.0 <> x\n";
  check_flagged "negated literal" ~rule:"float-eq" "let f x = x = -1.0\n";
  check_flagged "physical eq" ~rule:"float-eq" "let f x = x == 0.5\n";
  check_clean "Float.equal is fine" "let f x = Float.equal x 1.0\n";
  check_clean "int equality is fine" "let f x = x = 1\n";
  check_clean "suppressed" "(* qcs-lint: allow float-eq *)\nlet f x = x = 1.0\n"

let test_obj_magic () =
  check_flagged "direct" ~rule:"obj-magic" "let f x = Obj.magic x\n";
  check_flagged "qualified" ~rule:"obj-magic" "let f x = Stdlib.Obj.magic x\n";
  check_clean "suppressed" "(* qcs-lint: allow obj-magic *)\nlet f x = Obj.magic x\n"

let test_unsafe_array () =
  check_flagged "unsafe_get" ~rule:"unsafe-array" "let f a = Array.unsafe_get a 0\n";
  check_flagged "unsafe_set" ~rule:"unsafe-array"
    "let f a = Bytes.unsafe_set a 0 'x'\n";
  check_clean "checked access is fine" "let f a = a.(0)\n";
  check_clean "suppressed"
    "(* qcs-lint: allow unsafe-array *)\nlet f a = Array.unsafe_get a 0\n"

let test_catchall_exn () =
  let fs = lint "let f g = try g () with _ -> 0\n" in
  Alcotest.(check bool) "wildcard handler flagged" true
    (List.mem "catchall-exn" (rules_of fs));
  Alcotest.(check bool) "warning severity" true
    (severity_of "catchall-exn" fs = Some Lint.Warning);
  Alcotest.(check bool) "warnings alone do not fail the gate" false
    (Lint.has_errors fs);
  check_flagged "exception case in match" ~rule:"catchall-exn"
    "let f g = match g () with x -> x | exception _ -> 0\n";
  check_clean "re-raising wildcard is fine"
    "let f g = try g () with _ as e -> raise e\n";
  check_clean "named specific exception is fine"
    "let f g = try g () with Not_found -> 0\n";
  check_clean "suppressed"
    "(* qcs-lint: allow catchall-exn *)\nlet f g = try g () with _ -> 0\n"

let test_mutex_discipline () =
  let leak = lint "let f m g = Mutex.lock m; g ()\n" in
  Alcotest.(check bool) "lock without unlock flagged" true
    (List.mem "mutex-discipline" (rules_of leak));
  Alcotest.(check bool) "lock without unlock is an error" true
    (severity_of "mutex-discipline" leak = Some Lint.Error);
  let bare = lint "let f m g = Mutex.lock m; g (); Mutex.unlock m\n" in
  Alcotest.(check bool) "bare lock/unlock pair flagged" true
    (List.mem "mutex-discipline" (rules_of bare));
  Alcotest.(check bool) "bare pair is only a warning" true
    (severity_of "mutex-discipline" bare = Some Lint.Warning);
  check_clean "Fun.protect is fine"
    "let f m g = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) g\n";
  check_clean "locked-style combinator is fine"
    "let f m g = Mutex.lock m; with_lock m g\n";
  check_clean "suppressed"
    "(* qcs-lint: allow mutex-discipline *)\nlet f m g = Mutex.lock m; g ()\n"

let test_naked_hashtbl () =
  check_flagged "captured table mutated" ~rule:"naked-hashtbl-in-parallel"
    "let f pool h = Pool.parallel_for pool ~lo:0 ~hi:4 (fun i -> Hashtbl.replace h i i)\n";
  check_clean "closure-local table is fine"
    "let f pool = Pool.run pool (fun _ -> let h = Hashtbl.create 4 in Hashtbl.replace h 0 0)\n";
  check_clean "reads are fine"
    "let f pool h = Pool.run pool (fun i -> ignore (Hashtbl.find_opt h i))\n";
  check_clean "suppressed"
    "(* qcs-lint: allow naked-hashtbl-in-parallel *)\n\
     let f pool h = Pool.run pool (fun i -> Hashtbl.replace h i i)\n"

let test_printf_in_lib () =
  check_flagged "print_endline in lib" ~rule:"printf-in-lib"
    "let f () = print_endline \"x\"\n";
  check_flagged "output_string stdout in lib" ~rule:"printf-in-lib"
    "let f () = output_string stdout \"x\"\n";
  check_clean "bin code may print" ~path:"bin/fixture.ml"
    "let f () = print_endline \"x\"\n";
  check_clean "test code may print" ~path:"test/fixture.ml"
    "let f () = print_endline \"x\"\n";
  check_clean "lib/obs owns rendering" ~path:"lib/obs/fixture.ml"
    "let f () = print_endline \"x\"\n";
  check_clean "stderr is fine" "let f () = prerr_endline \"x\"\n"

let test_node_alloc_outside_arena () =
  check_flagged "Node_store call outside lib/dd" ~path:"lib/engine/fixture.ml"
    ~rule:"node-alloc-outside-arena"
    "let f a = Node_store.alloc2 a ~level:1 0 0\n";
  check_flagged "even a Node_store read is a layering leak"
    ~path:"lib/fusion/fixture.ml" ~rule:"node-alloc-outside-arena"
    "let f a = Node_store.capacity a\n";
  check_flagged "raw edge packing, shift on the left" ~path:"bench/fixture.ml"
    ~rule:"node-alloc-outside-arena" "let f w t = (w lsl 31) lor t\n";
  check_flagged "raw edge packing, shift on the right" ~path:"bench/fixture.ml"
    ~rule:"node-alloc-outside-arena" "let f w t = t lor (w lsl 31)\n";
  check_flagged "packing via tgt_bits" ~path:"lib/convert/fixture.ml"
    ~rule:"node-alloc-outside-arena"
    "let f w t = (w lsl Node_store.tgt_bits) lor t\n";
  check_clean "lib/dd owns the arena" ~path:"lib/dd/fixture.ml"
    "let f a = Node_store.alloc2 a ~level:1 0 0\n";
  check_clean "Dd API construction is the sanctioned path"
    ~path:"lib/engine/fixture.ml" "let f p e = Dd.make_vnode p 0 e Dd.vzero\n";
  check_clean "other shift amounts are fine" ~path:"lib/util/fixture.ml"
    "let f h x = (h lsl 5) lor x\n";
  check_clean "suppressed"
    ~path:"lib/engine/fixture.ml"
    "(* qcs-lint: allow node-alloc-outside-arena *)\n\
     let f w t = (w lsl 31) lor t\n"

let test_boxed_cnum_in_hot_loop () =
  check_flagged "Cnum.mul in a for loop" ~path:"lib/dmav/fixture.ml"
    ~rule:"boxed-cnum-in-hot-loop"
    "let f w v = for i = 0 to 3 do ignore (Cnum.mul w v.(i)) done\n";
  check_flagged "Buf.get in a while loop" ~path:"lib/convert/fixture.ml"
    ~rule:"boxed-cnum-in-hot-loop"
    "let f b = let i = ref 0 in while !i < 4 do ignore (Buf.get b !i); incr i done\n";
  check_flagged "Buf.set in a nested loop" ~path:"lib/statevec/fixture.ml"
    ~rule:"boxed-cnum-in-hot-loop"
    "let f b = for i = 0 to 1 do for j = 0 to 1 do Buf.set b (2*i+j) Cnum.zero done done\n";
  (* Nested-loop dedup: the Cnum.make is inside both bodies but must
     report exactly once. *)
  Alcotest.(check int) "nested loop reports once" 1
    (List.length
       (rules_of
          (lint ~path:"lib/dmav/fixture.ml"
             "let f a = for i = 0 to 1 do for j = 0 to 1 do a.(i+j) <- Cnum.make 0.0 0.0 done done\n")));
  check_clean "boxed call outside a loop is per-gate, fine"
    ~path:"lib/dmav/fixture.ml" "let f w x = Cnum.mul w x\n";
  check_clean "unboxed primitives are the point" ~path:"lib/dmav/fixture.ml"
    "let f b = for i = 0 to 3 do Buf.set2 b i (Buf.get_re b i) 0.0 done\n";
  check_clean "cold libraries are out of scope" ~path:"lib/engine/fixture.ml"
    "let f w v = for i = 0 to 3 do ignore (Cnum.mul w v.(i)) done\n";
  check_clean "suppressed" ~path:"lib/dmav/fixture.ml"
    "(* qcs-lint: allow boxed-cnum-in-hot-loop *)\n\
     let f w v = for i = 0 to 3 do ignore (Cnum.mul w v.(i)) done\n"

let test_hot_external_alloc () =
  check_flagged "missing noalloc" ~path:"lib/complexnum/fixture.ml"
    ~rule:"hot-external-alloc"
    "external f : int -> int -> unit = \"qcs_f\"\n";
  check_flagged "six arguments, native name only" ~path:"lib/dmav/fixture.ml"
    ~rule:"hot-external-alloc"
    "external f : int -> int -> int -> int -> int -> int -> unit = \"qcs_f\" \
     [@@noalloc]\n";
  check_flagged "inside a module, statevec" ~path:"lib/statevec/fixture.ml"
    ~rule:"hot-external-alloc"
    "module M = struct external f : int -> unit = \"qcs_f\" end\n";
  check_clean "noalloc, five arguments" ~path:"lib/convert/fixture.ml"
    "external f : int -> int -> int -> int -> int -> unit = \"qcs_f\" [@@noalloc]\n";
  check_clean "noalloc with a byte-code stub" ~path:"lib/complexnum/fixture.ml"
    "external f : int -> int -> int -> int -> int -> (float[@unboxed]) -> unit\n\
    \  = \"qcs_f_byte\" \"qcs_f\" [@@noalloc]\n";
  check_clean "cold libraries are out of scope" ~path:"lib/serve/fixture.ml"
    "external f : int -> unit = \"qcs_f\"\n";
  check_clean "plain vals are not externals" ~path:"lib/complexnum/fixture.ml"
    "module type S = sig val f : int -> int -> int -> int -> int -> int -> unit end\n";
  check_clean "suppressed" ~path:"lib/complexnum/fixture.ml"
    "(* qcs-lint: allow hot-external-alloc *)\n\
     external f : int -> unit = \"qcs_f\"\n"

let test_todo_marker () =
  let fs = lint ("let x = 1 (* " ^ todo_word ^ ": later *)\n") in
  Alcotest.(check bool) "marker flagged" true (List.mem "todo-marker" (rules_of fs));
  Alcotest.(check bool) "info severity" true
    (severity_of "todo-marker" fs = Some Lint.Info);
  check_clean "suppressed on the same line"
    ("let x = 1 (* " ^ todo_word ^ " *) (* qcs-lint: allow todo-marker *)\n")

(* ---- framework mechanics --------------------------------------------- *)

let test_suppress_all () =
  check_clean "allow all suppresses everything"
    "(* qcs-lint: allow all *)\nlet f x = x = 1.0 && Obj.magic x\n"

let test_allowlist () =
  let allow = [ ("float-eq", "lib/dd/") ] in
  check_clean "allowlisted prefix" ~allow ~path:"lib/dd/fixture.ml"
    "let f x = x = 1.0\n";
  check_flagged "other paths still flagged" ~path:"lib/util/fixture.ml"
    ~rule:"float-eq" "let f x = x = 1.0\n";
  check_clean "wildcard rule" ~allow:[ ("*", "lib/") ] "let f x = Obj.magic x\n"

let test_load_allow () =
  let path = Filename.temp_file "qcs_lint" ".allow" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# header comment\nfloat-eq lib/dd/\n\n* bench/ # trailing\n");
  let allow = Lint.load_allow path in
  Sys.remove path;
  Alcotest.(check (list (pair string string)))
    "parsed pairs"
    [ ("float-eq", "lib/dd/"); ("*", "bench/") ]
    allow;
  let bad = Filename.temp_file "qcs_lint" ".allow" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "just-one-word\n");
  let raised = try ignore (Lint.load_allow bad); false with Invalid_argument _ -> true in
  Sys.remove bad;
  Alcotest.(check bool) "malformed line rejected" true raised

let test_parse_error () =
  let fs = lint "let let = 3\n" in
  Alcotest.(check (list string)) "parse failure is a finding" [ "parse-error" ]
    (rules_of fs);
  Alcotest.(check bool) "parse failure fails the gate" true (Lint.has_errors fs)

let test_has_errors_gate () =
  Alcotest.(check bool) "error finding trips the gate" true
    (Lint.has_errors (lint "let f x = x = 1.0\n"));
  Alcotest.(check bool) "clean source passes" false
    (Lint.has_errors (lint "let f x = x + 1\n"))

let test_json_document () =
  let fs = lint "let f x = x = 1.0\n" in
  let j = Lint.to_json ~files:1 fs in
  Alcotest.(check bool) "schema tag" true (contains j "\"schema\": \"qcs_lint/v1\"");
  Alcotest.(check bool) "error count" true (contains j "\"errors\": 1");
  Alcotest.(check bool) "finding rule" true (contains j "\"rule\": \"float-eq\"");
  Alcotest.(check bool) "finding file" true (contains j "\"file\": \"lib/fixture.ml\"");
  let empty = Lint.to_json ~files:0 [] in
  Alcotest.(check bool) "empty findings array" true (contains empty "\"findings\": []")

let test_render () =
  match lint "let f x = x = 1.0\n" with
  | [ f ] ->
    let r = Lint.render f in
    Alcotest.(check bool) "file:line:col prefix" true
      (String.starts_with ~prefix:"lib/fixture.ml:1:" r);
    Alcotest.(check bool) "names the rule" true (contains r "[float-eq]")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ---- suppression lexing corner cases ---------------------------------- *)

let test_suppress_in_string () =
  (* A marker inside a string literal is data, not a suppression. *)
  Alcotest.(check (list (pair int string))) "marker in string ignored" []
    (Lint.suppressions "let s = \"qcs-lint: allow float-eq\"\n");
  check_flagged "string marker does not suppress" ~rule:"float-eq"
    "let s = \"qcs-lint: allow float-eq\"\nlet f x = x = 1.0\n";
  (* Comments survive nested comments; the rule list stops at the close. *)
  Alcotest.(check (list (pair int string))) "nested comment"
    [ (1, "float-eq") ]
    (Lint.suppressions "(* qcs-lint: allow float-eq (* why *) *)\n");
  (* OCaml's backslash-newline string continuation must not desync the
     line counter: the suppression below sits one line above the finding. *)
  check_clean "string line-continuation keeps line numbers honest"
    "let s = \"a \\\n   b\"\n(* qcs-lint: allow float-eq *)\nlet f x = x = 1.0\n"

(* ---- whole-program mode ----------------------------------------------- *)

let pool_stub = ("lib/parallel/pool.ml", "let run pool f = f ()\n")

let program ?allow sources =
  Program.analyze ?allow (Callgraph.build sources)

let program_keys ?allow sources =
  List.map
    (fun ((f : Lint.finding), sym) -> (f.Lint.rule, f.Lint.file, sym))
    (program ?allow sources).Program.r_findings

let test_program_cross_module () =
  (* The injected unguarded-Hashtbl fixture: a module-level table mutated
     by a helper that another module hands to Pool.run. *)
  let sources =
    [ pool_stub;
      ( "lib/fix_state.ml",
        "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         let bump k = Hashtbl.replace tbl k k\n" );
      ( "lib/fix_user.ml",
        "let record pool k = Pool.run pool (fun () -> Fix_state.bump k)\n" ) ]
  in
  let res = program sources in
  Alcotest.(check bool) "cross-module unguarded mutation flagged" true
    (List.mem
       ("unguarded-shared-state", "lib/fix_state.ml", "Fix_state.bump")
       (program_keys sources));
  Alcotest.(check bool) "helper is parallel-reachable" true
    (List.mem "Fix_state.bump" res.Program.r_par);
  Alcotest.(check bool) "inline suppression honored"
    true
    (program_keys
       [ pool_stub;
         ( "lib/fix_state.ml",
           "let tbl = Hashtbl.create 16\n\
            (* qcs-lint: allow unguarded-shared-state *)\n\
            let bump k = Hashtbl.replace tbl k k\n" );
         ( "lib/fix_user.ml",
           "let record pool k = Pool.run pool (fun () -> Fix_state.bump k)\n" ) ]
     = [])

let test_program_guarded_helper () =
  (* Same helper, but every parallel path reaches it through Mutex.protect:
     the lock identity travels the call graph and the helper stays clean. *)
  let keys =
    program_keys
      [ pool_stub;
        ( "lib/fix_state.ml",
          "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
           let mu = Mutex.create ()\n\
           let bump k = Hashtbl.replace tbl k k\n" );
        ( "lib/fix_user.ml",
          "let record pool k =\n\
          \  Pool.run pool\n\
          \    (fun () -> Mutex.protect Fix_state.mu (fun () -> Fix_state.bump k))\n" ) ]
  in
  Alcotest.(check (list (triple string string string)))
    "guarded helper is clean" [] keys

(* A non-recursive [let x = ... x ...] calls the outer [x]: a wrapper
   module's [bump] that forwards to the file-level [bump] must carry the
   parallel path through to the table it mutates, while a [let rec]
   wrapper of the same name calls only itself. *)
let test_program_shadowing () =
  let wrapper rec_ body =
    [ pool_stub;
      ( "lib/fix_state.ml",
        "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         let bump k = Hashtbl.replace tbl k k\n\
         module Wrap = struct\n\
        \  let " ^ rec_ ^ "bump k = " ^ body ^ "\n\
         end\n" );
      ( "lib/fix_user.ml",
        "let record pool k = Pool.run pool (fun () -> Fix_state.Wrap.bump k)\n" ) ]
  in
  let forward = wrapper "" "bump k" in
  Alcotest.(check bool) "the forwarded-to helper is parallel-reachable" true
    (List.mem "Fix_state.bump" (program forward).Program.r_par);
  Alcotest.(check bool) "its unguarded mutation is flagged" true
    (List.mem ("unguarded-shared-state", "lib/fix_state.ml", "Fix_state.bump")
       (program_keys forward));
  Alcotest.(check bool) "a let rec wrapper reaches only itself" false
    (List.mem "Fix_state.bump"
       (program (wrapper "rec " "if k > 0 then bump (k - 1)")).Program.r_par)

(* Code inside a functor body is walked like any other: a [Pool.run]
   closure there that mutates a module-level table is flagged under the
   functor's path. *)
let test_program_functor_body () =
  Alcotest.(check bool) "unguarded mutation in a functor body flagged" true
    (List.mem ("unguarded-shared-state", "lib/fix_kernel.ml", "Fix_kernel.Make.run")
       (program_keys
          [ pool_stub;
            ( "lib/fix_kernel.ml",
              "let seen : (int, int) Hashtbl.t = Hashtbl.create 16\n\
               module Make (P : sig val n : int end) = struct\n\
              \  let run pool k = Pool.run pool (fun () -> Hashtbl.replace seen k P.n)\n\
               end\n" ) ]))

(* A functor's instance, made by an application or brought in by an
   [include], stands for the functor's body, and the body's parameter for
   the argument: [F.f] reaches [Make.f], and its [X.bump] the argument's
   [bump]. *)
let test_program_functor_instances () =
  let sources instance call =
    [ pool_stub;
      ( "lib/fix_kernel.ml",
        "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         module Arg = struct let bump k = Hashtbl.replace tbl k k end\n\
         module Make (X : sig val bump : int -> unit end) = struct\n\
        \  let f k = X.bump k\n\
         end\n" ^ instance );
      ("lib/fix_user.ml", "let go pool k = Pool.run pool (fun () -> " ^ call ^ " k)\n") ]
  in
  List.iter
    (fun (what, instance, call) ->
       let srcs = sources instance call in
       let par = (program srcs).Program.r_par in
       Alcotest.(check bool) (what ^ ": the body's f is parallel-reachable") true
         (List.mem "Fix_kernel.Make.f" par);
       Alcotest.(check bool) (what ^ ": so is the argument's bump") true
         (List.mem "Fix_kernel.Arg.bump" par);
       Alcotest.(check bool) (what ^ ": and its mutation is flagged") true
         (List.mem ("unguarded-shared-state", "lib/fix_kernel.ml", "Fix_kernel.Arg.bump")
            (program_keys srcs)))
    [ ("application", "module F = Make (Arg)\n", "Fix_kernel.F.f");
      ("include", "include Make (Arg)\n", "Fix_kernel.f") ]

(* A member of a first-class module parameter stands for that member of
   every module the program packs. *)
let test_program_first_class () =
  let sources =
    [ pool_stub;
      ( "lib/fix_engine.ml",
        "module type S = sig val step : int -> unit end\n\
         let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         module M = struct let step k = Hashtbl.replace tbl k k end\n\
         let drive pool (module E : S) k = Pool.run pool (fun () -> E.step k)\n\
         let main pool = drive pool (module M) 1\n" ) ]
  in
  Alcotest.(check bool) "the packed module's step is parallel-reachable" true
    (List.mem "Fix_engine.M.step" (program sources).Program.r_par);
  Alcotest.(check bool) "its unguarded mutation is flagged" true
    (List.mem ("unguarded-shared-state", "lib/fix_engine.ml", "Fix_engine.M.step")
       (program_keys sources))

let test_program_lock_order () =
  let cyclic =
    [ ( "lib/fix_locks.ml",
        "let m1 = Mutex.create ()\n\
         let m2 = Mutex.create ()\n\
         let a g = Mutex.lock m1; Mutex.lock m2; g (); Mutex.unlock m2; Mutex.unlock m1\n\
         let b g = Mutex.lock m2; Mutex.lock m1; g (); Mutex.unlock m1; Mutex.unlock m2\n" ) ]
  in
  Alcotest.(check bool) "inverted acquisition order flagged" true
    (List.exists (fun (r, _, _) -> r = "lock-order") (program_keys cyclic));
  let consistent =
    [ ( "lib/fix_locks.ml",
        "let m1 = Mutex.create ()\n\
         let m2 = Mutex.create ()\n\
         let a g = Mutex.lock m1; Mutex.lock m2; g (); Mutex.unlock m2; Mutex.unlock m1\n\
         let b g = Mutex.lock m1; Mutex.lock m2; g (); Mutex.unlock m2; Mutex.unlock m1\n" ) ]
  in
  Alcotest.(check bool) "one global order is fine" false
    (List.exists (fun (r, _, _) -> r = "lock-order") (program_keys consistent))

let test_program_epoch () =
  let stale =
    [ ( "lib/fix_engine.ml",
        "let f p a b =\n\
        \  let e = Dd.vadd p a b in\n\
        \  Dd.compact p;\n\
        \  Dd.vadd p e e\n" ) ]
  in
  Alcotest.(check bool) "cached edge used across compact flagged" true
    (List.exists (fun (r, _, _) -> r = "arena-epoch") (program_keys stale));
  let refreshed =
    [ ( "lib/fix_engine.ml",
        "let f p a b =\n\
        \  let e = Dd.vadd p a b in\n\
        \  Dd.compact p;\n\
        \  let e2 = Dd.vadd p a b in\n\
        \  ignore e;\n\
        \  Dd.vadd p e2 e2\n" ) ]
  in
  Alcotest.(check bool) "re-reading after compact would be flagged anyway" true
    (List.exists (fun (r, _, _) -> r = "arena-epoch") (program_keys refreshed));
  let rebuilt =
    [ ( "lib/fix_engine.ml",
        "let f p a b =\n\
        \  let e = Dd.vadd p a b in\n\
        \  ignore e;\n\
        \  Dd.compact p;\n\
        \  let e2 = Dd.vadd p a b in\n\
        \  Dd.vadd p e2 e2\n" ) ]
  in
  Alcotest.(check bool) "edges rebuilt after compact are clean" false
    (List.exists (fun (r, _, _) -> r = "arena-epoch") (program_keys rebuilt));
  let in_dd =
    [ ( "lib/dd/fix_engine.ml",
        "let f p a b =\n\
        \  let e = Dd.vadd p a b in\n\
        \  Dd.compact p;\n\
        \  Dd.vadd p e e\n" ) ]
  in
  Alcotest.(check bool) "lib/dd owns its own epochs" false
    (List.exists (fun (r, _, _) -> r = "arena-epoch") (program_keys in_dd))

(* Against the real tree: the parallel-reachable set must cover the DD→flat
   conversion's pool task body (the closures inside [Convert.parallel]),
   the serve connection threads, and the flat phase's kernels: the flat
   engine's [apply_op], reached through [Driver.step]'s first-class
   engine, and what the DMAV and local-leg pool bodies call inside the
   functors. Skips silently when the test binary runs outside a source
   checkout. *)
let test_program_par_regression () =
  let rec find_root d =
    if Sys.file_exists (Filename.concat d "lib/dd/dd.ml") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
    let roots =
      List.filter Sys.file_exists
        (List.map (Filename.concat root) [ "lib"; "bin"; "tools" ])
    in
    let res = Program.analyze (Callgraph.build (Callgraph.load roots)) in
    List.iter
      (fun name ->
         Alcotest.(check bool) (name ^ " is parallel-reachable") true
           (List.mem name res.Program.r_par))
      [ "Convert.parallel"; "Serve.writer"; "Serve.reader"; "Dmav_engine.Make.apply_op";
        "Dmav_generic.Make.run_pieces"; "Dmav_generic.Make.local_run";
        "Dense_kernel.Make.local_part"; "Storage.Extend.dmav_run"; "Storage.Extend.local_apply" ]

(* ---- reachability guard ------------------------------------------------ *)

(* The programs the project ships. Every lib definition must be reached
   from their code, or stand on [reach_allow]. *)
let reach_roots = [ "bin"; "bench"; "perfbench"; "tools"; "examples" ]

(* Lib definitions that no shipped program reaches but that stay, with
   the reason each one does. An entry ending in '.' covers a module. *)
let reach_allow =
  [ (* oracles: what the tests compare the simulator against *)
    ("Apply.", "dense state-vector reference of the oracle and engine tests");
    ("Qpp_kernel.run", "Quantum++-style reference of the statevec and cross-engine tests");
    ("Mat_dd.to_dense", "dense form of a gate DD, the DD and fusion tests' product oracle");
    ("Mat_dd.is_identity", "the DD tests' U·U† = I check");
    ("Gate.mul2", "dense 2×2 product, oracle of the gate and DD tests");
    ("Gate.mul4", "dense 4×4 product, oracle of the gate, DD and fusion tests");
    ("Gate.is_unitary", "unitarity oracle of the gate tests");
    ("Gate.is_unitary4", "unitarity oracle of the gate tests");
    ("Adder.expected", "the adder's operands and sum, oracle of the generator tests");
    ("Adder.expected_basis_index", "where the adder's sum lands, oracle of the generator tests");
    ("Qpe.expected_estimate", "QPE's expected phase estimate, oracle of the QPE tests");
    ("Obs.Metrics.of_json", "parser of the metrics JSON writer's round-trip test");
    ("Order.score", "the static order's objective, pinned by the order tests");
    ("Order.of_array", "builds the orders the order tests apply");
    ("Order.apply", "maps a qubit through an order in the order tests");
    ("Dd.mentry", "matrix entry by path walk, oracle of the DD tests and test/fusion_ref.ml");
    ("Vec_dd.norm2", "the DD-side norm the DD tests check");
    ("State.norm2", "norm of the dense reference's state");
    ("State.amplitude", "reads the dense reference's state");
    (* fixtures: test inputs and probes of internal state *)
    ("Check.", "the ownership checker's test API: mode override, counts, reset");
    ("Dd.Testing.", "arena high-water marks and the kernel reference's arena view");
    ("Dd.ctable", "the weight table the DD tests count");
    ("Dd.mnode_count", "matrix DD size, checked by the DD tests");
    ("Dd.mwid", "a matrix edge's weight id, compared by the fusion tests");
    ("Dd.vterm_edge", "builds hand-made vector DDs in the DD tests");
    ("Vec_dd.basis_state", "basis-state DDs of the DD and conversion tests");
    ("Vec_dd.of_buf", "builds the DD tests' vector DDs from arrays");
    ("Storage.Extend.of_array", "builds the buf, DD and kernel tests' vectors from Cnum.t values");
    ("Storage.Extend.to_array", "reads the buf and DD tests' vectors as Cnum.t values");
    ("State.basis_state", "basis states of the statevec and circuit tests");
    ("Ctable.canon", "the canonical representative the ctable tests compare");
    ("Ctable.zero_id", "the zero weight's id the ctable tests expect");
    ("Cnum.scale", "arithmetic of the tests' expected values");
    ("Cnum.sub", "arithmetic of the tests' expected values");
    ("Cnum.sqrt2_inv", "a constant of the cnum tests");
    ("Gate.cz2", "a two-qubit fixture gate of the gate, DD and kernel tests");
    ("Gate.pp", "prints the matrices of a failing gate check");
    ("Circuit.pp", "prints the oracle's counterexample when it has no QASM form");
    ("Qft.on_basis", "QFT of a basis state, a generator test with a closed-form answer");
    ("Journal.size", "journal probe of the serve tests");
    ("Journal.done_results", "journal probe of the serve tests");
    ("Obs.value", "metric reader of the obs and serve tests");
    ("Obs.fvalue", "metric reader of the obs tests");
    ("Obs.gauge_value", "metric reader of the obs tests");
    ("Obs.span_count", "metric reader of the obs tests");
    ("Obs.span_seconds", "metric reader of the obs tests");
    ("Obs.Metrics.all_zero", "checks that a metrics reset zeroed everything");
    ("Rng.shuffle", "random operand orders of the DD gate-builder test");
    ("Bits.clear_bit", "basis-index arithmetic of the circuit tests") ]

let covers entry name =
  if String.ends_with ~suffix:"." entry then String.starts_with ~prefix:entry name
  else entry = name

(* The lib definitions no shipped program reaches, as
   (name, "path:line"), and the allowlist entries that cover none of
   them. A definition reaches every definition its body names, as
   [Callgraph.resolve] answers with its local opens in force; module-level
   code and the shipped programs' definitions are the roots. What an
   allowlisted definition references is kept with it. *)
let reach_check root =
  let prefix = root ^ "/" in
  let sources =
    Callgraph.load (List.map (Filename.concat root) ("lib" :: reach_roots))
    |> List.map (fun (p, text) ->
           if String.starts_with ~prefix p then
             (String.sub p (String.length prefix) (String.length p - String.length prefix), text)
           else (p, text))
  in
  let model = Callgraph.build sources in
  let opens_of = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace opens_of f.Callgraph.f_path f.Callgraph.f_opens) model.Callgraph.files;
  let refs (d : Callgraph.def) =
    let out = ref [] and opens = ref (Hashtbl.find opens_of d.Callgraph.d_path) in
    let default = Ast_iterator.default_iterator in
    let it =
      { default with
        Ast_iterator.expr =
          (fun self e ->
             match e.Parsetree.pexp_desc with
             | Parsetree.Pexp_ident { txt; _ } ->
               Option.iter
                 (fun n ->
                    out := Callgraph.resolve model ~self:d ~modpath:d.Callgraph.d_modpath ~opens:!opens n @ !out)
                 (Callgraph.lid_to_string txt)
             | Parsetree.Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body) ->
               let outer = !opens in
               Option.iter (fun o -> opens := o :: outer) (Callgraph.lid_to_string txt);
               self.Ast_iterator.expr self body;
               opens := outer
             | _ -> default.Ast_iterator.expr self e) }
    in
    it.Ast_iterator.expr it d.Callgraph.d_body;
    !out
  in
  let in_lib (d : Callgraph.def) = String.starts_with ~prefix:"lib/" d.Callgraph.d_path in
  let is_init (d : Callgraph.def) =
    String.starts_with ~prefix:"(init:" (Callgraph.last_component d.Callgraph.d_name)
  in
  let reached = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let reach (d : Callgraph.def) =
    if not (Hashtbl.mem reached d.Callgraph.d_name) then begin
      Hashtbl.replace reached d.Callgraph.d_name ();
      Queue.add d queue
    end
  in
  let drain () =
    while not (Queue.is_empty queue) do
      List.iter reach (refs (Queue.pop queue))
    done
  in
  let unreached () =
    List.filter
      (fun (d : Callgraph.def) -> in_lib d && not (Hashtbl.mem reached d.Callgraph.d_name))
      model.Callgraph.order
  in
  List.iter (fun d -> if (not (in_lib d)) || is_init d then reach d) model.Callgraph.order;
  drain ();
  let shipped_unreached = unreached () in
  let stale =
    List.filter_map
      (fun (entry, _) ->
         if List.exists (fun (d : Callgraph.def) -> covers entry d.Callgraph.d_name) shipped_unreached
         then None
         else Some entry)
      reach_allow
  in
  List.iter
    (fun (d : Callgraph.def) ->
       if List.exists (fun (entry, _) -> covers entry d.Callgraph.d_name) reach_allow then reach d)
    shipped_unreached;
  drain ();
  ( stale,
    List.map
      (fun (d : Callgraph.def) ->
         (d.Callgraph.d_name, Printf.sprintf "%s:%d" d.Callgraph.d_path d.Callgraph.d_line))
      (unreached ()) )

(* Against the real tree, whose sources the test stanza depends on: no
   lib definition is left that neither a shipped program nor an
   allowlisted oracle or fixture reaches, and every allowlist entry
   still covers one. *)
let test_reachability () =
  let rec find_root d =
    if List.for_all (fun r -> Sys.file_exists (Filename.concat d r)) ("lib/dd/dd.ml" :: reach_roots)
    then d
    else
      let parent = Filename.dirname d in
      if parent = d then Alcotest.fail "no source tree above the test's directory" else find_root parent
  in
  let stale, unreached = reach_check (find_root (Sys.getcwd ())) in
  Alcotest.(check (list string)) "allowlist entries that cover nothing unreached" [] stale;
  Alcotest.(check (list string)) "lib definitions no shipped program reaches" []
    (List.map (fun (name, loc) -> name ^ " (" ^ loc ^ ")") unreached)

(* ---- baseline ratchet -------------------------------------------------- *)

let mkf ?(rule = "unguarded-shared-state") ?(sev = Lint.Error)
    ?(file = "lib/a.ml") ?(line = 1) ?(col = 0) msg =
  { Lint.rule; severity = sev; file; line; col; message = msg }

let test_baseline () =
  let f1 = (mkf "m1", "A.f") and f2 = (mkf ~line:9 "m2", "A.f") in
  let f3 = (mkf ~rule:"lock-order" ~file:"lib/b.ml" "m3", "B.g") in
  Alcotest.(check string) "key shape"
    "unguarded-shared-state lib/a.ml A.f" (Program.baseline_key f1);
  (* Multiset semantics: two same-key findings against a budget of one. *)
  let base = [ Program.baseline_key f1; Program.baseline_key f3 ] in
  Alcotest.(check int) "one same-key finding over budget survives" 1
    (List.length (Program.new_against_baseline ~baseline:base [ f1; f2; f3 ]));
  Alcotest.(check int) "fully covered set is quiet" 0
    (List.length (Program.new_against_baseline ~baseline:base [ f2; f3 ]));
  (* Render/load round-trip through a real file. *)
  let path = Filename.temp_file "qcs_lint" ".baseline" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Program.render_baseline [ f1; f2; f3 ]));
  let loaded = Program.load_baseline path in
  Sys.remove path;
  Alcotest.(check (list string)) "round-trip"
    (List.sort compare
       (List.map Program.baseline_key [ f1; f2; f3 ]))
    (List.sort compare loaded);
  Alcotest.(check (list string)) "missing baseline is empty" []
    (Program.load_baseline "/nonexistent/qcs_lint.baseline")

(* ---- output determinism ------------------------------------------------ *)

let test_sort_findings () =
  let fs =
    [ mkf ~file:"lib/b.ml" "x";
      mkf ~file:"lib/a.ml" ~line:2 "x";
      mkf ~file:"lib/a.ml" ~line:1 ~col:4 "x";
      mkf ~file:"lib/a.ml" ~line:1 ~col:4 ~rule:"lock-order" "x";
      mkf ~file:"lib/a.ml" ~line:1 "x" ]
  in
  let sorted = Lint.sort_findings fs in
  Alcotest.(check (list (pair string int)))
    "ordered by (file, line, col, rule)"
    [ ("lib/a.ml", 1); ("lib/a.ml", 1); ("lib/a.ml", 1); ("lib/a.ml", 2);
      ("lib/b.ml", 1) ]
    (List.map (fun (f : Lint.finding) -> (f.Lint.file, f.Lint.line)) sorted);
  (match sorted with
   | _ :: a :: b :: _ ->
     Alcotest.(check string) "rule breaks the col tie" "lock-order" a.Lint.rule;
     Alcotest.(check string) "rule breaks the col tie (2)" "unguarded-shared-state"
       b.Lint.rule
   | _ -> Alcotest.fail "unexpected sort shape");
  Alcotest.(check (list int)) "sort is a permutation-stable total order"
    (List.map (fun (f : Lint.finding) -> f.Lint.line) sorted)
    (List.map (fun (f : Lint.finding) -> f.Lint.line)
       (Lint.sort_findings (List.rev fs)))

let test_json_v2 () =
  let j =
    Lint.to_json_v2 ~files:68
      ~extra:[ ("parallel_reachable", 446); ("new_findings", 0) ]
      [ mkf "shared table mutated off-lock" ]
  in
  Alcotest.(check bool) "schema tag" true (contains j "\"schema\": \"qcs_lint/v2\"");
  Alcotest.(check bool) "stats carried" true
    (contains j "\"parallel_reachable\": 446");
  Alcotest.(check bool) "ratchet count carried" true
    (contains j "\"new_findings\": 0");
  Alcotest.(check bool) "finding present" true
    (contains j "\"rule\": \"unguarded-shared-state\"")

let suite =
  [ ( "lint",
      [ Alcotest.test_case "float-eq" `Quick test_float_eq;
        Alcotest.test_case "obj-magic" `Quick test_obj_magic;
        Alcotest.test_case "unsafe-array" `Quick test_unsafe_array;
        Alcotest.test_case "catchall-exn" `Quick test_catchall_exn;
        Alcotest.test_case "mutex-discipline" `Quick test_mutex_discipline;
        Alcotest.test_case "naked-hashtbl-in-parallel" `Quick test_naked_hashtbl;
        Alcotest.test_case "printf-in-lib" `Quick test_printf_in_lib;
        Alcotest.test_case "node-alloc-outside-arena" `Quick
          test_node_alloc_outside_arena;
        Alcotest.test_case "boxed-cnum-in-hot-loop" `Quick test_boxed_cnum_in_hot_loop;
        Alcotest.test_case "hot-external-alloc" `Quick test_hot_external_alloc;
        Alcotest.test_case "todo-marker" `Quick test_todo_marker;
        Alcotest.test_case "allow-all suppression" `Quick test_suppress_all;
        Alcotest.test_case "allowlist prefixes" `Quick test_allowlist;
        Alcotest.test_case "lint.allow parsing" `Quick test_load_allow;
        Alcotest.test_case "parse errors are findings" `Quick test_parse_error;
        Alcotest.test_case "has_errors gate" `Quick test_has_errors_gate;
        Alcotest.test_case "qcs_lint/v1 JSON" `Quick test_json_document;
        Alcotest.test_case "human rendering" `Quick test_render;
        Alcotest.test_case "suppression lexing" `Quick test_suppress_in_string;
        Alcotest.test_case "sorted findings" `Quick test_sort_findings;
        Alcotest.test_case "qcs_lint/v2 JSON" `Quick test_json_v2 ] );
    ( "program",
      [ Alcotest.test_case "cross-module unguarded state" `Quick
          test_program_cross_module;
        Alcotest.test_case "guarded helper stays clean" `Quick
          test_program_guarded_helper;
        Alcotest.test_case "shadowing binding resolves outward" `Quick test_program_shadowing;
        Alcotest.test_case "functor body" `Quick test_program_functor_body;
        Alcotest.test_case "functor instances" `Quick test_program_functor_instances;
        Alcotest.test_case "first-class module members" `Quick test_program_first_class;
        Alcotest.test_case "lock-order cycles" `Quick test_program_lock_order;
        Alcotest.test_case "arena-epoch staleness" `Quick test_program_epoch;
        Alcotest.test_case "parallel-reachable regression" `Quick
          test_program_par_regression;
        Alcotest.test_case "baseline ratchet" `Quick test_baseline;
        Alcotest.test_case "reachability" `Quick test_reachability ] ) ]

(* Own binary: the linter's compiler-libs dependency cannot be linked
   next to the simulator's Config (see test/dune). *)
let () = Alcotest.run "qcs_lint" suite
