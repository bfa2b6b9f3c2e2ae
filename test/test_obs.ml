(* Invariants of the qcs_obs instrumentation layer: counter monotonicity,
   gating on the enabled flag, snapshot JSON round-trips, and the end-to-end
   counter semantics of the simulator (DD-only runs carry no DMAV counts;
   forced-conversion runs carry cache statistics).

   The registry is process-global and other suites run in the same binary,
   so every test starts from [Obs.Metrics.reset] and restores the disabled
   state on exit. *)

let with_metrics f =
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter_exn snap name =
  match Obs.Metrics.counter_value snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not registered" name

let span_exn snap name =
  match Obs.Metrics.span_value snap name with
  | Some v -> v
  | None -> Alcotest.failf "span %s not registered" name

(* ---- instrument primitives --------------------------------------- *)

let test_counters_monotone () =
  with_metrics (fun () ->
      let c = Obs.counter "test.monotone" in
      let last = ref (Obs.value c) in
      for i = 1 to 100 do
        if i mod 3 = 0 then Obs.add c 5 else Obs.incr c;
        let v = Obs.value c in
        if v < !last then Alcotest.failf "counter decreased: %d -> %d" !last v;
        last := v
      done;
      Alcotest.(check int) "final value" (67 + (33 * 5)) (Obs.value c))

let test_disabled_updates_are_noops () =
  Obs.set_enabled false;
  Obs.Metrics.reset ();
  let c = Obs.counter "test.disabled" in
  let fc = Obs.fcounter "test.disabled_f" in
  let g = Obs.gauge "test.disabled_g" in
  let s = Obs.span "test.disabled_span" in
  Obs.incr c;
  Obs.add c 10;
  Obs.fadd fc 3.5;
  Obs.set_gauge g 7;
  Obs.max_gauge g 9;
  Obs.with_span s (fun () -> ());
  let r, dt = Obs.timed s (fun () -> 42) in
  Alcotest.(check int) "timed returns result" 42 r;
  Alcotest.(check bool) "timed measures even when disabled" true (dt >= 0.0);
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check (float 0.0)) "fcounter untouched" 0.0 (Obs.fvalue fc);
  Alcotest.(check int) "gauge untouched" 0 (Obs.gauge_value g);
  Alcotest.(check int) "span untouched" 0 (Obs.span_count s)

let test_enabled_updates () =
  with_metrics (fun () ->
      let fc = Obs.fcounter "test.enabled_f" in
      let g = Obs.gauge "test.enabled_g" in
      let s = Obs.span "test.enabled_span" in
      Obs.fadd fc 1.25;
      Obs.fadd fc 0.75;
      Obs.set_gauge g 3;
      Obs.max_gauge g 10;
      Obs.max_gauge g 5;
      Obs.with_span s (fun () -> ignore (Sys.opaque_identity 1));
      Alcotest.(check (float 1e-12)) "fcounter accumulates" 2.0 (Obs.fvalue fc);
      Alcotest.(check int) "max gauge keeps max" 10 (Obs.gauge_value g);
      Alcotest.(check int) "span counted" 1 (Obs.span_count s);
      Alcotest.(check bool) "span time non-negative" true (Obs.span_seconds s >= 0.0))

let test_registration_idempotent () =
  let a = Obs.counter "test.same_name" in
  let b = Obs.counter "test.same_name" in
  with_metrics (fun () ->
      Obs.incr a;
      Alcotest.(check int) "same instrument" 1 (Obs.value b))

let test_concurrent_increments () =
  (* Pool workers bump one counter concurrently; nothing may be lost. *)
  with_metrics (fun () ->
      let c = Obs.counter "test.concurrent" in
      Pool.with_pool 4 (fun pool ->
          Pool.run pool (fun _ ->
              for _ = 1 to 10_000 do
                Obs.incr c
              done));
      (* run itself bumps pool.jobs, not test.concurrent *)
      Alcotest.(check int) "40k increments survive" 40_000 (Obs.value c))

(* ---- snapshots and JSON ------------------------------------------- *)

let test_json_round_trip () =
  with_metrics (fun () ->
      let c = Obs.counter "test.rt_counter" in
      let fc = Obs.fcounter "test.rt_fcounter" in
      let g = Obs.gauge "test.rt_gauge" in
      let s = Obs.span "test.rt_span" in
      Obs.add c 12345;
      Obs.fadd fc 0.1;
      Obs.fadd fc 1e9;
      Obs.set_gauge g 77;
      Obs.with_span s (fun () -> ());
      let snap = Obs.Metrics.snapshot () in
      let json = Obs.Metrics.to_json snap in
      let back = Obs.Metrics.of_json json in
      Alcotest.(check bool) "snapshot round-trips through JSON" true (snap = back))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let test_json_schema_fields () =
  with_metrics (fun () ->
      let snap = Obs.Metrics.snapshot () in
      let json = Obs.Metrics.to_json snap in
      List.iter
        (fun needle ->
           if not (contains_substring json needle) then
             Alcotest.failf "JSON missing %s" needle)
        [ "\"schema\": \"qcs_obs/v1\"";
          "\"counters\"";
          "\"fcounters\"";
          "\"gauges\"";
          "\"spans\"" ])

let test_json_rejects_garbage () =
  List.iter
    (fun bad ->
       match Obs.Metrics.of_json bad with
       | _ -> Alcotest.failf "accepted malformed JSON %S" bad
       | exception Obs.Metrics.Parse_error _ -> ())
    [ ""; "42"; "{"; "{\"schema\": \"nope\"}"; "{\"schema\": \"qcs_obs/v1\"}" ]

let test_reset_zeroes () =
  with_metrics (fun () ->
      let c = Obs.counter "test.reset" in
      Obs.add c 9;
      Obs.Metrics.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Obs.value c);
      Alcotest.(check bool) "snapshot all zero after reset" true
        (Obs.Metrics.all_zero (Obs.Metrics.snapshot ())))

(* ---- end-to-end semantics ----------------------------------------- *)

let test_disabled_run_snapshot_all_zero () =
  Obs.set_enabled false;
  Obs.Metrics.reset ();
  let c = Suite.generate ~seed:1 Suite.Ghz ~n:8 in
  let r = Driver.run Config.default c in
  ignore (Driver.amplitudes r);
  Alcotest.(check bool) "disabled run leaves every metric at zero" true
    (Obs.Metrics.all_zero (Obs.Metrics.snapshot ()))

let test_dd_only_run_has_zero_dmav_counters () =
  with_metrics (fun () ->
      let c = Suite.generate ~seed:1 Suite.Ghz ~n:10 in
      let r = Driver.run Config.default c in
      Alcotest.(check bool) "GHZ stays in DD form" true (r.Driver.converted_at = None);
      let snap = Obs.Metrics.snapshot () in
      List.iter
        (fun name -> Alcotest.(check int) name 0 (counter_exn snap name))
        [ "dmav.kernel.cached"; "dmav.kernel.uncached"; "dmav.cache.hits";
          "sim.conversions"; "sim.gates_dmav"; "convert.runs" ];
      Alcotest.(check int) "no conversion span" 0 (span_exn snap "sim.convert").Obs.Metrics.count;
      Alcotest.(check bool) "DD gates counted" true (counter_exn snap "sim.gates_dd" > 0);
      Alcotest.(check bool) "unique table fed" true
        (counter_exn snap "dd.unique.vnodes.created" > 0);
      Alcotest.(check bool) "ctable fed" true (counter_exn snap "ctable.lookups" > 0);
      (* The snapshot JSON must carry the zero DMAV counters explicitly. *)
      let back = Obs.Metrics.of_json (Obs.Metrics.to_json snap) in
      Alcotest.(check (option int)) "zero counter serialized" (Some 0)
        (Obs.Metrics.counter_value back "dmav.kernel.cached"))

let test_forced_conversion_has_cache_stats () =
  with_metrics (fun () ->
      let c = Suite.generate ~seed:1 Suite.Supremacy ~n:12 in
      let cfg =
        { Config.default with Config.threads = 2; policy = Config.Convert_at 40 }
      in
      let r = Driver.run cfg c in
      Alcotest.(check bool) "conversion happened" true (r.Driver.converted_at <> None);
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "one conversion" 1 (counter_exn snap "sim.conversions");
      let conv_span = span_exn snap "sim.convert" in
      Alcotest.(check int) "conversion span recorded" 1 conv_span.Obs.Metrics.count;
      Alcotest.(check bool) "DD compute-cache hits nonzero" true
        (counter_exn snap "dd.cache.mv.hits" > 0);
      let cached = counter_exn snap "dmav.kernel.cached" in
      let uncached = counter_exn snap "dmav.kernel.uncached" in
      Alcotest.(check bool) "DMAV kernels ran" true (cached + uncached > 0);
      Alcotest.(check int) "kernel counts match simulator view"
        (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached)
        (cached + uncached);
      Alcotest.(check int) "no dmav.cost span: every unfused gate is its form" 0
        (span_exn snap "dmav.cost").Obs.Metrics.count;
      Alcotest.(check int) "cache hits match simulator view"
        r.Driver.dmav_cache_hits
        (counter_exn snap "dmav.cache.hits");
      let fc name = Option.value ~default:(-1.0) (Obs.Metrics.fcounter_value snap name) in
      let modeled = fc "dmav.macs.modeled" and identity = fc "dmav.macs.modeled_identity" in
      Alcotest.(check bool) "modeled MACs accumulated" true (modeled > 0.0);
      (* Unfused single gates keep identity blocks beside their target. *)
      Alcotest.(check bool) "identity MACs are a part of the modeled MACs" true
        (identity > 0.0 && identity <= modeled))

let test_span_seconds_track_simulator_view () =
  with_metrics (fun () ->
      let c = Suite.generate ~seed:2 Suite.Supremacy ~n:10 in
      let cfg = { Config.default with Config.policy = Config.Convert_at 20 } in
      let r = Driver.run cfg c in
      let snap = Obs.Metrics.snapshot () in
      let close a b = Float.abs (a -. b) <= 0.05 +. (0.25 *. Float.max a b) in
      Alcotest.(check bool) "dd span ~ seconds_dd" true
        (close (span_exn snap "sim.dd_phase").Obs.Metrics.seconds r.Driver.seconds_dd);
      Alcotest.(check bool) "dmav span ~ seconds_dmav" true
        (close (span_exn snap "sim.dmav_phase").Obs.Metrics.seconds r.Driver.seconds_dmav);
      let plan = span_exn snap "sim.flat_plan" in
      Alcotest.(check int) "one flat plan" 1 plan.Obs.Metrics.count;
      Alcotest.(check bool) "flat plan inside the flat phase" true
        (plan.Obs.Metrics.seconds <= (span_exn snap "sim.dmav_phase").Obs.Metrics.seconds))

(* Every instance of the DMAV kernel functor feeds the same [dmav.*]
   instruments, so an f32 flat phase is counted like an f64 one. *)
let test_f32_flat_run_counts_dmav_gates () =
  with_metrics (fun () ->
      let c = Suite.generate ~seed:3 Suite.Supremacy ~n:10 ~gates:60 in
      let cfg =
        { Config.default with
          Config.threads = 2; policy = Config.Convert_at (-1); precision = Config.F32 }
      in
      let r = Driver.run cfg c in
      let gates = Circuit.num_gates c in
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "every gate ran a DMAV kernel" gates
        (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached);
      Alcotest.(check int) "dmav.kernel.* counts every f32 gate" gates
        (counter_exn snap "dmav.kernel.cached" + counter_exn snap "dmav.kernel.uncached");
      Alcotest.(check int) "one dmav.apply span per gate" gates
        (span_exn snap "dmav.apply").Obs.Metrics.count;
      Alcotest.(check int) "no dmav.cost span: every unfused gate is its form" 0
        (span_exn snap "dmav.cost").Obs.Metrics.count;
      let modeled =
        Option.value ~default:(-1.0) (Obs.Metrics.fcounter_value snap "dmav.macs.modeled")
      in
      Alcotest.(check bool) "dmav.macs.modeled matches the run's modeled MACs" true
        (modeled > 0.0
         && Float.abs (modeled -. r.Driver.modeled_macs) <= 1e-9 *. r.Driver.modeled_macs))

let suite =
  [ ( "obs",
      [ Alcotest.test_case "counters monotone" `Quick test_counters_monotone;
        Alcotest.test_case "disabled updates are no-ops" `Quick
          test_disabled_updates_are_noops;
        Alcotest.test_case "enabled primitives" `Quick test_enabled_updates;
        Alcotest.test_case "registration idempotent" `Quick test_registration_idempotent;
        Alcotest.test_case "concurrent increments" `Quick test_concurrent_increments;
        Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "JSON schema fields" `Quick test_json_schema_fields;
        Alcotest.test_case "JSON rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "reset zeroes everything" `Quick test_reset_zeroes;
        Alcotest.test_case "disabled run is metric-free" `Quick
          test_disabled_run_snapshot_all_zero;
        Alcotest.test_case "DD-only run has zero DMAV counters" `Quick
          test_dd_only_run_has_zero_dmav_counters;
        Alcotest.test_case "forced conversion has cache stats" `Quick
          test_forced_conversion_has_cache_stats;
        Alcotest.test_case "spans track the simulator view" `Quick
          test_span_seconds_track_simulator_view;
        Alcotest.test_case "f32 flat run counts its DMAV gates" `Quick
          test_f32_flat_run_counts_dmav_gates ] ) ]
