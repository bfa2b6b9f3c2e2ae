(* Manifest parsing, seed derivation, result-stream determinism and the
   atomic snapshot write used by --metrics-json. *)

let expect_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Manifest.Error" name
  | exception Manifest.Error _ -> ()

let test_parse_full_line () =
  let r =
    Manifest.parse_line ~index:0
      {|{"id":"qft-a","circuit":"qft","n":9,"seed":5,"priority":3,"deadline_s":2.5,"max_retries":2}|}
  in
  let j = r.Manifest.job in
  Alcotest.(check string) "id" "qft-a" j.Sched.id;
  Alcotest.(check int) "n" 9 j.Sched.circuit.Circuit.n;
  Alcotest.(check int) "seed echoed" 5 r.Manifest.seed;
  Alcotest.(check int) "priority" 3 j.Sched.priority;
  Alcotest.(check (float 1e-9)) "deadline" 2.5 j.Sched.deadline_s;
  Alcotest.(check int) "max_retries" 2 j.Sched.max_retries

let test_defaults_and_derived_seed () =
  let r = Manifest.parse_line ~base_seed:99 ~index:4 {|{"circuit":"ghz","n":6}|} in
  let j = r.Manifest.job in
  Alcotest.(check string) "default id names the line" "job-4" j.Sched.id;
  Alcotest.(check int) "seed = Rng.derive base index" (Rng.derive 99 4) r.Manifest.seed;
  Alcotest.(check int) "priority defaults to 0" 0 j.Sched.priority;
  Alcotest.(check int) "max_retries defaults to 0" 0 j.Sched.max_retries;
  Alcotest.(check bool) "no deadline" true (Float.equal j.Sched.deadline_s 0.0);
  (* Same base seed and line -> same circuit, different line -> different seed. *)
  let r2 = Manifest.parse_line ~base_seed:99 ~index:4 {|{"circuit":"ghz","n":6}|} in
  Alcotest.(check int) "reproducible" r.Manifest.seed r2.Manifest.seed;
  let r3 = Manifest.parse_line ~base_seed:99 ~index:5 {|{"circuit":"ghz","n":6}|} in
  Alcotest.(check bool) "per-line seeds differ" true
    (r.Manifest.seed <> r3.Manifest.seed)

let test_config_overrides () =
  let r =
    Manifest.parse_line ~index:0
      {|{"circuit":"supremacy","n":7,"gates":50,"policy":"never","fusion":"dmav","epsilon":1.25}|}
  in
  let cfg = r.Manifest.job.Sched.config in
  Alcotest.(check bool) "policy never" true (cfg.Config.policy = Config.Never_convert);
  Alcotest.(check (float 1e-9)) "epsilon" 1.25 cfg.Config.epsilon;
  let r2 = Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":5,"policy":0}|} in
  Alcotest.(check bool) "numeric policy = convert at gate" true
    (r2.Manifest.job.Sched.config.Config.policy = Config.Convert_at 0)

let test_order_field () =
  List.iter
    (fun (name, expected) ->
       let r =
         Manifest.parse_line ~index:0
           (Printf.sprintf {|{"circuit":"qft","n":5,"order":"%s"}|} name)
       in
       Alcotest.(check bool) (Printf.sprintf "order %S parses" name) true
         (r.Manifest.job.Sched.config.Config.order = expected))
    [ ("none", Config.No_order); ("static", Config.Static_order);
      (* Lines written before dynamic sifting was deleted replay static. *)
      ("sift", Config.Static_order) ];
  Alcotest.(check bool) "flags reject sift" true (Config.order_of_name "sift" = None);
  (* Absent field falls back to the batch-level default config. *)
  let default_config = { Config.default with Config.order = Config.Static_order } in
  let r = Manifest.parse_line ~default_config ~index:0 {|{"circuit":"qft","n":5}|} in
  Alcotest.(check bool) "default config order inherited" true
    (r.Manifest.job.Sched.config.Config.order = Config.Static_order);
  expect_error "unknown order value" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"qft","n":5,"order":"bogus"}|});
  expect_error "non-string order" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"qft","n":5,"order":1}|})

(* Journals written before the DD phase became single-domain pin
   "dd_domains":1 into every line; that value must keep parsing, as a
   no-op, while a request for more domains is a located error. *)
let test_dd_domains_compat () =
  let plain = {|{"id":"j","circuit":"qft","n":5,"seed":3}|} in
  let pinned = {|{"id":"j","circuit":"qft","n":5,"seed":3,"dd_domains":1}|} in
  Alcotest.(check bool) "dd_domains 1 is the same job as no field" true
    (Manifest.parse_line ~index:0 pinned = Manifest.parse_line ~index:0 plain);
  match
    Manifest.parse_line ~index:4 {|{"id":"j","circuit":"qft","n":5,"dd_domains":2}|}
  with
  | _ -> Alcotest.fail "dd_domains 2 must be rejected"
  | exception Manifest.Error m ->
    Alcotest.(check string) "located error"
      "manifest line 5: dd_domains > 1 is no longer supported (the DD phase is \
       single-domain)"
      m

let test_parse_errors () =
  expect_error "no circuit source" (fun () ->
      Manifest.parse_line ~index:0 {|{"id":"x","n":4}|});
  expect_error "both circuit and qasm" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"ghz","qasm":"a.qasm","n":4}|});
  expect_error "circuit without n" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"ghz"}|});
  expect_error "unknown field" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":4,"bogus":1}|});
  expect_error "unknown family" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"nonesuch","n":4}|});
  expect_error "not an object" (fun () -> Manifest.parse_line ~index:0 {|[1,2]|})

(* A gate budget below 1 or above [Suite.max_gates] (a circuit that
   size would exhaust memory before it ran) and EWMA parameters outside
   [Ewma.create]'s domain are located manifest errors; [Suite.generate]
   refuses the budget too. *)
let test_budget_and_ewma_bounds () =
  List.iter
    (fun (fields, want) ->
       match Manifest.parse_line ~index:2 ("{" ^ fields ^ "}") with
       | _ -> Alcotest.failf "expected Manifest.Error for %s" fields
       | exception Manifest.Error m -> Alcotest.(check string) fields ("manifest line 3: " ^ want) m)
    [ ({|"circuit":"dnn","n":8,"gates":0|}, "gates must be >= 1 (got 0)");
      ({|"circuit":"dnn","n":8,"gates":-5|}, "gates must be >= 1 (got -5)");
      ({|"circuit":"dnn","n":4,"gates":100000000000|}, "gates must be <= 100000 (got 100000000000)");
      ({|"circuit":"qft","n":4,"gates":100001|}, "gates must be <= 100000 (got 100001)");
      ({|"circuit":"ghz","n":4,"beta":1.0|}, "beta must be in [0, 1) (got 1)");
      ({|"circuit":"ghz","n":4,"beta":-0.1|}, "beta must be in [0, 1) (got -0.1)");
      ({|"circuit":"ghz","n":4,"epsilon":0|}, "epsilon must be > 0 (got 0)");
      ({|"circuit":"ghz","n":4,"epsilon":-2|}, "epsilon must be > 0 (got -2)") ];
  let r = Manifest.parse_line ~index:0 {|{"circuit":"dnn","n":8,"gates":1,"beta":0,"epsilon":0.5}|} in
  Alcotest.(check (float 0.0)) "beta 0 accepted" 0.0 r.Manifest.job.Sched.config.Config.beta;
  Alcotest.check_raises "Suite.generate gates 0"
    (Invalid_argument "Suite.generate: gates must be >= 1 (got 0)") (fun () ->
      ignore (Suite.generate ~gates:0 Suite.Dnn ~n:8));
  Alcotest.check_raises "Suite.generate gates past the cap"
    (Invalid_argument "Suite.generate: gates must be <= 100000 (got 100000000000)") (fun () ->
      ignore (Suite.generate ~gates:100_000_000_000 Suite.Dnn ~n:4))

(* A family's qubit count past [Circuit.max_qubits] is a located
   manifest error, as is one below 1; the CLI and QASM paths share the
   bound ([Circuit.check_qubits]). *)
let test_qubit_bound () =
  List.iter
    (fun (fields, want) ->
       match Manifest.parse_line ~index:4 ("{" ^ fields ^ "}") with
       | _ -> Alcotest.failf "expected Manifest.Error for %s" fields
       | exception Manifest.Error m -> Alcotest.(check string) fields ("manifest line 5: " ^ want) m)
    [ ({|"circuit":"ghz","n":70|}, "n: 70 qubits: a register holds 1 to 61");
      ({|"circuit":"ghz","n":62|}, "n: 62 qubits: a register holds 1 to 61");
      ({|"circuit":"ghz","n":0|}, "n must be >= 1 (got 0)") ];
  let r = Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":61}|} in
  Alcotest.(check int) "61 qubits accepted" 61 r.Manifest.job.Sched.circuit.Circuit.n;
  Alcotest.check_raises "Builder.create 62"
    (Invalid_argument "62 qubits: a register holds 1 to 61") (fun () ->
      ignore (Circuit.Builder.create 62))

let test_load_file () =
  let path = Filename.temp_file "qcs_manifest" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out path in
       output_string oc
         "# header comment\n\
          {\"id\":\"a\",\"circuit\":\"ghz\",\"n\":5}\n\
          \n\
          {\"circuit\":\"qft\",\"n\":6}\n";
       close_out oc;
       let rs = List.map fst (Manifest.load ~base_seed:1 path) in
       Alcotest.(check int) "two jobs" 2 (List.length rs);
       Alcotest.(check (list string)) "each job with its line"
         [ {|{"id":"a","circuit":"ghz","n":5}|}; {|{"circuit":"qft","n":6}|} ]
         (List.map snd (Manifest.load ~base_seed:1 path));
       Alcotest.(check (list string)) "ids count physical lines"
         [ "a"; "job-3" ]
         (List.map (fun r -> r.Manifest.job.Sched.id) rs))

let test_load_duplicate_ids () =
  let path = Filename.temp_file "qcs_manifest" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out path in
       output_string oc
         "{\"id\":\"same\",\"circuit\":\"ghz\",\"n\":5}\n\
          {\"id\":\"same\",\"circuit\":\"qft\",\"n\":5}\n";
       close_out oc;
       expect_error "duplicate ids rejected" (fun () -> Manifest.load path))

let run_batch pool lines =
  let resolved = List.mapi (fun i l -> Manifest.parse_line ~base_seed:7 ~index:i l) lines in
  let jobs = List.map (fun r -> r.Manifest.job) resolved in
  let results = Sched.run_jobs ~pool ~slots:2 jobs in
  Manifest.result_lines ~timings:false (List.combine resolved results)

let test_result_stream_deterministic () =
  (* Two scheduler runs of the same manifest over the same pool must give
     byte-identical result streams once timings are stripped. *)
  let lines =
    [ {|{"id":"g","circuit":"ghz","n":7}|};
      {|{"id":"q","circuit":"qft","n":6,"priority":2}|};
      {|{"id":"s","circuit":"supremacy","n":7,"gates":60,"policy":0}|} ]
  in
  Pool.with_pool 2 (fun pool ->
      let a = run_batch pool lines in
      let b = run_batch pool lines in
      Alcotest.(check string) "byte-identical" a b;
      Alcotest.(check int) "one line per job" 3
        (List.length (String.split_on_char '\n' (String.trim a))))

let test_result_line_fields () =
  Pool.with_pool 1 (fun pool ->
      let r = Manifest.parse_line ~base_seed:1 ~index:0 {|{"id":"g","circuit":"ghz","n":5}|} in
      let results = Sched.run_jobs ~pool ~slots:1 [ r.Manifest.job ] in
      let jr = List.hd results in
      let bare = Manifest.result_line ~timings:false ~seed:r.Manifest.seed jr in
      let timed = Manifest.result_line ~seed:r.Manifest.seed jr in
      let has needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "schema tag" true (has {|"schema":"qcs_sched/v1"|} bare);
      Alcotest.(check bool) "outcome" true (has {|"outcome":"completed"|} bare);
      (* GHZ: |⟨0…0|ψ⟩|² = 1/2 (up to float rounding in the H gate). *)
      let p0 =
        let key = {|"p0":|} in
        let rec find i =
          if String.sub bare i (String.length key) = key then i + String.length key
          else find (i + 1)
        in
        let start = find 0 in
        let stop = String.index_from bare start ',' in
        float_of_string (String.sub bare start (stop - start))
      in
      Alcotest.(check (float 1e-12)) "p0 fingerprint" 0.5 p0;
      Alcotest.(check bool) "no timing keys without timings" false (has "_s\":" bare);
      Alcotest.(check bool) "timing keys by default" true (has {|"run_s":|} timed))

let test_atomic_write_file () =
  let dir = Filename.temp_file "qcs_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
    (fun () ->
       let path = Filename.concat dir "snap.json" in
       Obs.atomic_write_file path "{\"a\":1}";
       Obs.atomic_write_file path "{\"a\":2}";
       let ic = open_in_bin path in
       let len = in_channel_length ic in
       let body = really_input_string ic len in
       close_in ic;
       Alcotest.(check string) "last write wins" "{\"a\":2}" body;
       (* No stray temp files left behind. *)
       Alcotest.(check (list string)) "directory holds only the target"
         [ "snap.json" ]
         (Array.to_list (Sys.readdir dir)))

(* Version-strict schema handling: v1 is accepted (tag optional), any
   other qcs_sched version or foreign schema is rejected with the line
   number, and unknown-field rejection is gated on [strict]. *)
let test_schema_versioning () =
  let r =
    Manifest.parse_line ~index:0 {|{"schema":"qcs_sched/v1","circuit":"ghz","n":4}|}
  in
  Alcotest.(check int) "v1 tag accepted" 4 r.Manifest.job.Sched.circuit.Circuit.n;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let expect_msg name needle f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Manifest.Error" name
    | exception Manifest.Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name m needle) true
        (contains m needle)
  in
  expect_msg "future version rejected" "unsupported manifest schema version"
    (fun () ->
       Manifest.parse_line ~index:6 {|{"schema":"qcs_sched/v2","circuit":"ghz","n":4}|});
  expect_msg "error names the line" "line 7" (fun () ->
      Manifest.parse_line ~index:6 {|{"schema":"qcs_sched/v2","circuit":"ghz","n":4}|});
  expect_msg "foreign schema rejected" "unknown schema" (fun () ->
      Manifest.parse_line ~index:0 {|{"schema":"qcs_obs/v1","circuit":"ghz","n":4}|})

let test_strict_gates_unknown_fields () =
  (* Default (strict) rejects; a tolerant daemon-style parse skips. *)
  expect_error "strict rejects unknown field" (fun () ->
      Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":4,"wavelength":7}|});
  let r =
    Manifest.parse_line ~strict:false ~index:0 {|{"circuit":"ghz","n":4,"wavelength":7}|}
  in
  Alcotest.(check int) "tolerant parse skips it" 4 r.Manifest.job.Sched.circuit.Circuit.n;
  (* explicit_seed distinguishes pinned from derived identity. *)
  let pinned = Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":4,"seed":5}|} in
  Alcotest.(check bool) "explicit seed flagged" true pinned.Manifest.explicit_seed;
  let derived = Manifest.parse_line ~index:0 {|{"circuit":"ghz","n":4}|} in
  Alcotest.(check bool) "derived seed flagged" false derived.Manifest.explicit_seed

(* A negative compaction interval is a located error, not a silent
   "never compact"; 0 (never) and a positive interval are taken. *)
let test_compact_every_bound () =
  List.iter
    (fun (fields, want) ->
       match Manifest.parse_line ~index:6 ("{" ^ fields ^ "}") with
       | _ -> Alcotest.failf "expected Manifest.Error for %s" fields
       | exception Manifest.Error m -> Alcotest.(check string) fields ("manifest line 7: " ^ want) m)
    [ ({|"circuit":"ghz","n":4,"compact_every":-5|}, "compact_every must be >= 0 (got -5)");
      ({|"circuit":"ghz","n":4,"compact_every":-1|}, "compact_every must be >= 0 (got -1)") ];
  List.iter
    (fun k ->
       let r =
         Manifest.parse_line ~index:0
           (Printf.sprintf {|{"circuit":"ghz","n":4,"compact_every":%d}|} k)
       in
       Alcotest.(check int) (Printf.sprintf "compact_every %d accepted" k) k
         r.Manifest.job.Sched.config.Config.compact_every)
    [ 0; 1; 64 ]

let suite =
  [ ( "manifest",
      [ Alcotest.test_case "parse full line" `Quick test_parse_full_line;
        Alcotest.test_case "defaults and derived seed" `Quick
          test_defaults_and_derived_seed;
        Alcotest.test_case "config overrides" `Quick test_config_overrides;
        Alcotest.test_case "order field" `Quick test_order_field;
        Alcotest.test_case "dd_domains compatibility" `Quick test_dd_domains_compat;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "gate budget and EWMA bounds" `Quick test_budget_and_ewma_bounds;
        Alcotest.test_case "qubit count bound" `Quick test_qubit_bound;
        Alcotest.test_case "schema versioning" `Quick test_schema_versioning;
        Alcotest.test_case "strict gates unknown fields" `Quick
          test_strict_gates_unknown_fields;
        Alcotest.test_case "load file with comments" `Quick test_load_file;
        Alcotest.test_case "duplicate ids rejected" `Quick test_load_duplicate_ids;
        Alcotest.test_case "result stream deterministic" `Quick
          test_result_stream_deterministic;
        Alcotest.test_case "result line fields" `Quick test_result_line_fields;
        Alcotest.test_case "atomic snapshot write" `Quick test_atomic_write_file;
        Alcotest.test_case "compact_every bound" `Quick test_compact_every_bound ] ) ]
