(* The stepwise engine layer (lib/engine): the three ENGINE
   implementations must agree amplitude-for-amplitude when driven through
   the driver's unified gate loop, the hybrid run must agree at every
   possible conversion index, the flat phase's per-gate kernel dispatch
   must pick the dense kernel exactly where the cost model says and stay
   observable through the trace and the dmav.dispatch.* counters, and the
   scratch buffer must flow back to the shared workspace. *)

let with_metrics f =
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter_exn snap name =
  match Obs.Metrics.counter_value snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not registered" name

let dense_reference (c : Circuit.t) = (Apply.run c).State.amps

(* A circuit of alternating single-qubit layers and entangling gates,
   dense enough that the DD phase would not stay tiny. *)
let layered n depth =
  let b = Circuit.Builder.create n in
  for l = 0 to depth - 1 do
    for q = 0 to n - 1 do
      if l mod 2 = 0 then Circuit.Builder.h b q else Circuit.Builder.t b q
    done;
    for q = 0 to n - 2 do
      if (q + l) mod 2 = 0 then Circuit.Builder.cx b ~control:q ~target:(q + 1)
    done
  done;
  Circuit.Builder.finish b

(* ---- run_engine: each engine through the same driver loop ---------- *)

let test_three_engine_differential () =
  List.iter
    (fun (name, c) ->
       let expect = dense_reference c in
       let cfg = { Config.default with Config.threads = 2; trace = true } in
       let check ?(tol = 1e-9) ename r =
         Test_util.check_close ~tol
           (Printf.sprintf "%s: %s vs dense reference" name ename)
           (Driver.amplitudes r) expect;
         Alcotest.(check int)
           (Printf.sprintf "%s: %s records every gate" name ename)
           (Circuit.num_gates c)
           (List.length r.Driver.trace);
         Alcotest.(check bool)
           (Printf.sprintf "%s: %s never converts" name ename)
           true (r.Driver.converted_at = None)
       in
       check "dd" (Driver.run_engine (module Dd_engine) cfg c);
       check "dmav" (Driver.run_engine (module Dmav_engine) cfg c);
       check "dense" (Driver.run_engine (module Dense_engine) cfg c);
       check ~tol:1e-4 "dmav f32" (Driver.run_engine (module Dmav_engine.F32) cfg c);
       check ~tol:1e-4 "dense f32" (Driver.run_engine (module Dense_engine.F32) cfg c))
    [ ("random-5", Test_util.random_circuit ~seed:21 ~gates:40 5);
      ("random-6", Test_util.random_circuit ~seed:22 ~gates:60 6);
      ("layered", layered 5 4);
      ("ghz", Suite.generate ~seed:1 Suite.Ghz ~n:6) ]

let test_run_engine_phase_accounting () =
  let c = Test_util.random_circuit ~seed:23 ~gates:20 4 in
  let cfg = { Config.default with Config.trace = true } in
  let dd = Driver.run_engine (module Dd_engine) cfg c in
  Alcotest.(check bool) "dd time in seconds_dd" true
    (Float.equal dd.Driver.seconds_dmav 0.0
     && Float.equal dd.Driver.seconds_total dd.Driver.seconds_dd);
  List.iter
    (fun (r : Engine.gate_record) ->
       Alcotest.(check bool) "dd records carry Dd_phase" true
         (r.Engine.phase = Engine.Dd_phase))
    dd.Driver.trace;
  let flat name (r : Driver.result) =
    Alcotest.(check bool) (name ^ " time in seconds_dmav") true
      (Float.equal r.Driver.seconds_dd 0.0
       && Float.equal r.Driver.seconds_total r.Driver.seconds_dmav);
    List.iter
      (fun (g : Engine.gate_record) ->
         Alcotest.(check bool) (name ^ " records carry Dmav_phase") true
           (g.Engine.phase = Engine.Dmav_phase))
      r.Driver.trace
  in
  List.iter
    (fun (name, r) ->
       flat name r;
       Alcotest.(check int) (name ^ ": every gate picked a kernel")
         (Circuit.num_gates c)
         (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached))
    [ ("dmav", Driver.run_engine (module Dmav_engine) cfg c);
      ("dmav f32", Driver.run_engine (module Dmav_engine.F32) cfg c) ];
  flat "dense" (Driver.run_engine (module Dense_engine) cfg c);
  flat "dense f32" (Driver.run_engine (module Dense_engine.F32) cfg c)

(* The DD engine alone and the hybrid run that never converts step the
   same gates through the same loop: their traces must agree record for
   record, down to the EWMA's bits (the value after each gate). *)
let test_run_engine_dd_matches_never_convert () =
  List.iter
    (fun (name, c) ->
       let cfg = { Config.default with Config.trace = true; compact_every = 5 } in
       let a = Driver.run_engine (module Dd_engine) cfg c in
       let b = Driver.run { cfg with Config.policy = Config.Never_convert } c in
       let key (g : Engine.gate_record) =
         (g.Engine.index, g.Engine.name, g.Engine.phase, g.Engine.dd_size,
          Int64.bits_of_float g.Engine.ewma)
       in
       Alcotest.(check int) (name ^ ": same record count")
         (List.length b.Driver.trace) (List.length a.Driver.trace);
       List.iter2
         (fun ga gb ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: gate %d record" name gb.Engine.index)
              true (key ga = key gb))
         a.Driver.trace b.Driver.trace)
    [ ("random-6", Test_util.random_circuit ~seed:24 ~gates:50 6);
      ("supremacy-8", Suite.generate ~seed:2 ~gates:80 Suite.Supremacy ~n:8) ]

(* ---- hybrid run: conversion forced at every gate index ------------- *)

let test_convert_at_every_index () =
  let c = Test_util.random_circuit ~seed:11 ~gates:24 5 in
  let gates = Circuit.num_gates c in
  let expect = dense_reference c in
  let pure_dd =
    Driver.amplitudes
      (Driver.run { Config.default with Config.policy = Config.Never_convert } c)
  in
  Test_util.check_close ~tol:1e-9 "pure dd vs dense reference" pure_dd expect;
  for k = -1 to gates - 1 do
    let cfg =
      { Config.default with Config.policy = Config.Convert_at k; threads = 2 }
    in
    let r = Driver.run cfg c in
    Alcotest.(check bool)
      (Printf.sprintf "converted_at reported for k=%d" k)
      true
      (r.Driver.converted_at = Some k);
    Test_util.check_close ~tol:1e-9
      (Printf.sprintf "hybrid convert-at-%d vs dense reference" k)
      (Driver.amplitudes r) expect
  done

(* ---- per-gate kernel dispatch -------------------------------------- *)

let is_dense (g : Engine.gate_record) =
  match g.Engine.dispatch with Some Engine.Dense_direct -> true | _ -> false

let flat_records r =
  List.filter
    (fun (g : Engine.gate_record) -> g.Engine.phase = Engine.Dmav_phase)
    r.Driver.trace

let test_dispatch_dense_for_unfused_single_qubit () =
  (* Unfused single-qubit gates: dense direct costs 2ⁿ⁺¹/(d·t) against a
     DD traversal of at least 2ⁿ scalar MACs, so with the model's SIMD
     width every one of them must dispatch dense — in the hybrid run's
     flat phase and on the DMAV engine run alone, at both precisions. *)
  let n = 6 in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do Circuit.Builder.h b q done;
  for q = 0 to n - 1 do Circuit.Builder.t b q done;
  for q = 0 to n - 1 do Circuit.Builder.ry b 0.3 q done;
  let c = Circuit.Builder.finish b in
  let expect = dense_reference c in
  let cfg =
    { Config.default with
      Config.policy = Config.Convert_at (-1);
      trace = true;
      dense_dispatch = true }
  in
  List.iter
    (fun (name, tol, r) ->
       let flat = flat_records r in
       Alcotest.(check int) (name ^ ": all gates in the flat phase") (Circuit.num_gates c)
         (List.length flat);
       Alcotest.(check bool) (name ^ ": every unfused 1q gate dispatched dense") true
         (List.for_all is_dense flat);
       Alcotest.(check int) (name ^ ": dense gates are neither cached nor uncached") 0
         (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached);
       Test_util.check_close ~tol (name ^ ": dispatched run vs dense reference")
         (Driver.amplitudes r) expect)
    [ ("run", 1e-9, Driver.run cfg c);
      ("run_engine dmav", 1e-9, Driver.run_engine (module Dmav_engine) cfg c);
      ("run_engine dmav f32", 1e-4, Driver.run_engine (module Dmav_engine.F32) cfg c) ]

let test_dispatch_mixed_kernels () =
  (* Single-qubit gates model strictly cheaper dense (2ⁿ⁺¹/d < K₁ ≥ 2ⁿ),
     but a two-qubit permutation like iswap ties the dense kernel's
     2ⁿ⁺²/d = 2ⁿ against K₁ = 2ⁿ and a tie goes to DMAV — so an h/iswap
     mix must use both kernels, and still match the reference. *)
  let n = 6 in
  let b = Circuit.Builder.create n in
  for l = 0 to 2 do
    for q = 0 to n - 1 do Circuit.Builder.h b q done;
    for q = 0 to n - 2 do
      if (q + l) mod 2 = 0 then Circuit.Builder.iswap b q (q + 1)
    done
  done;
  let c = Circuit.Builder.finish b in
  let expect = dense_reference c in
  let cfg =
    { Config.default with
      Config.policy = Config.Convert_at (-1);
      trace = true;
      dense_dispatch = true }
  in
  let r = Driver.run cfg c in
  let flat = flat_records r in
  let dense = List.length (List.filter is_dense flat) in
  Alcotest.(check bool) "some gates dispatched dense" true (dense > 0);
  Alcotest.(check bool) "some gates dispatched to dmav" true
    (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached > 0);
  Alcotest.(check int) "every flat gate accounted"
    (List.length flat)
    (dense + r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached);
  Test_util.check_close ~tol:1e-9 "mixed dispatch vs dense reference"
    (Driver.amplitudes r) expect

let test_dispatch_never_dense_when_fused () =
  (* Fusion replaces ops with synthetic matrices; those have no circuit op
     left, so the dense kernel is ineligible no matter the model. *)
  let c = layered 5 4 in
  let cfg =
    { Config.default with
      Config.policy = Config.Convert_at (-1);
      fusion = Config.Dmav_aware;
      trace = true;
      dense_dispatch = true }
  in
  let r = Driver.run cfg c in
  let flat = flat_records r in
  Alcotest.(check bool) "fused run has flat gates" true (flat <> []);
  Alcotest.(check bool) "no fused gate dispatched dense" true
    (not (List.exists is_dense flat));
  Test_util.check_close ~tol:1e-9 "fused dispatch run vs dense reference"
    (Driver.amplitudes r) (dense_reference c)

let test_dispatch_off_is_default_path () =
  (* With dense_dispatch off the trace must never show Dense_direct and
     the kernel split must equal the pre-dispatch accounting. *)
  let c = layered 5 3 in
  let cfg =
    { Config.default with Config.policy = Config.Convert_at (-1); trace = true }
  in
  let r = Driver.run cfg c in
  let flat = flat_records r in
  Alcotest.(check bool) "no dense dispatch by default" true
    (not (List.exists is_dense flat));
  Alcotest.(check int) "kernel split covers every flat gate"
    (List.length flat)
    (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached)

let test_dispatch_counters () =
  with_metrics (fun () ->
      let c = layered 6 3 in
      let cfg =
        { Config.default with
          Config.policy = Config.Convert_at (-1);
          trace = true;
          dense_dispatch = true }
      in
      let r = Driver.run cfg c in
      let snap = Obs.Metrics.snapshot () in
      let cached = counter_exn snap "dmav.dispatch.cached" in
      let uncached = counter_exn snap "dmav.dispatch.uncached" in
      let dense = counter_exn snap "dmav.dispatch.dense" in
      Alcotest.(check int) "dispatch.cached mirrors result"
        r.Driver.dmav_gates_cached cached;
      Alcotest.(check int) "dispatch.uncached mirrors result"
        r.Driver.dmav_gates_uncached uncached;
      Alcotest.(check bool) "dense counter counts dense gates" true (dense > 0);
      Alcotest.(check int) "three-way split covers the flat phase"
        (List.length (flat_records r))
        (cached + uncached + dense);
      Alcotest.(check int) "one dmav.cost span per flat gate"
        (cached + uncached + dense)
        (match Obs.Metrics.span_value snap "dmav.cost" with
         | Some s -> s.Obs.Metrics.count
         | None -> -1);
      (* Default mode: the dense counter must not move. *)
      Obs.Metrics.reset ();
      let r0 =
        Driver.run
          { Config.default with Config.policy = Config.Convert_at (-1) } c
      in
      let snap0 = Obs.Metrics.snapshot () in
      Alcotest.(check int) "no dense dispatch without the flag" 0
        (counter_exn snap0 "dmav.dispatch.dense");
      Alcotest.(check int) "dispatch split mirrors kernel split"
        (r0.Driver.dmav_gates_cached + r0.Driver.dmav_gates_uncached)
        (counter_exn snap0 "dmav.dispatch.cached"
         + counter_exn snap0 "dmav.dispatch.uncached"))

(* ---- workspace flow ------------------------------------------------ *)

let test_workspace_returned_and_reused () =
  let n = 5 in
  let c = Test_util.random_circuit ~seed:31 ~gates:30 n in
  let expect = dense_reference c in
  let ws = Dmav.workspace ~n in
  Pool.with_pool 2 (fun pool ->
      let cfg =
        { Config.default with Config.policy = Config.Convert_at 3; threads = 2 }
      in
      let r1 = Driver.run ~pool ~workspace:ws cfg c in
      let free1 = Dmav.free_buffers ws in
      Alcotest.(check bool) "scratch buffer returned after the run" true (free1 >= 1);
      let r2 = Driver.run ~pool ~workspace:ws cfg c in
      Alcotest.(check int) "free list stable across runs" free1
        (Dmav.free_buffers ws);
      (* The first result's buffer must not have been recycled into the
         second run: both must still hold the right amplitudes. *)
      Test_util.check_close ~tol:1e-9 "run 1 amplitudes intact"
        (Driver.amplitudes r1) expect;
      Test_util.check_close ~tol:1e-9 "run 2 amplitudes intact"
        (Driver.amplitudes r2) expect)

let test_workspace_mismatched_n_ignored () =
  let c = Test_util.random_circuit ~seed:32 ~gates:12 4 in
  let ws = Dmav.workspace ~n:9 in
  let cfg = { Config.default with Config.policy = Config.Convert_at 2 } in
  let r = Driver.run ~workspace:ws cfg c in
  Alcotest.(check int) "mismatched workspace untouched" 0 (Dmav.free_buffers ws);
  Test_util.check_close ~tol:1e-9 "run correct with mismatched workspace"
    (Driver.amplitudes r) (dense_reference c)

(* ---- the bench's pure-DD baseline under a time budget ------------- *)

let test_bench_dd_time_limit () =
  let c = Suite.generate ~seed:1 ~gates:300 Suite.Supremacy ~n:8 in
  let gates = Circuit.num_gates c in
  let cut = Workloads.run_dd ~time_limit:1e-4 c in
  Alcotest.(check bool) "tiny budget times out" true cut.Workloads.dd_timed_out;
  Alcotest.(check bool) "stopped before the last gate" true
    (cut.Workloads.dd_gates_done < gates);
  Alcotest.(check bool) "no peak nodes for a cut run" true
    (cut.Workloads.dd_peak_nodes = None);
  let full = Workloads.run_dd ~time_limit:600.0 c in
  Alcotest.(check bool) "generous budget finishes" false full.Workloads.dd_timed_out;
  Alcotest.(check int) "every gate done" gates full.Workloads.dd_gates_done;
  let cum = full.Workloads.dd_cum in
  Alcotest.(check bool) "cumulative times never decrease" true
    (Array.for_all Fun.id (Array.mapi (fun i t -> i = 0 || t >= cum.(i - 1)) cum));
  let r = Driver.run { Workloads.dd_config with Config.trace = true } c in
  Alcotest.(check (option int)) "peak nodes from the trace"
    (Some
       (List.fold_left
          (fun m (g : Engine.gate_record) -> max m g.Engine.dd_size)
          c.Circuit.n r.Driver.trace))
    full.Workloads.dd_peak_nodes;
  Alcotest.(check int) "peak memory of an untimed run" r.Driver.peak_memory_bytes
    full.Workloads.dd_peak_memory_bytes

let suite =
  [ ( "engine",
      [ Alcotest.test_case "three-engine differential" `Quick
          test_three_engine_differential;
        Alcotest.test_case "run_engine phase accounting" `Quick
          test_run_engine_phase_accounting;
        Alcotest.test_case "conversion at every gate index" `Quick
          test_convert_at_every_index;
        Alcotest.test_case "dispatch: unfused 1q gates go dense" `Quick
          test_dispatch_dense_for_unfused_single_qubit;
        Alcotest.test_case "dispatch: mixed kernels" `Quick test_dispatch_mixed_kernels;
        Alcotest.test_case "dispatch: fused gates never dense" `Quick
          test_dispatch_never_dense_when_fused;
        Alcotest.test_case "dispatch: off by default" `Quick
          test_dispatch_off_is_default_path;
        Alcotest.test_case "dispatch: obs counters" `Quick test_dispatch_counters;
        Alcotest.test_case "workspace returned and reused" `Quick
          test_workspace_returned_and_reused;
        Alcotest.test_case "workspace n mismatch ignored" `Quick
          test_workspace_mismatched_n_ignored;
        Alcotest.test_case "bench DD baseline honours its time limit" `Quick
          test_bench_dd_time_limit;
        Alcotest.test_case "run_engine dd trace matches never-convert run" `Quick
          test_run_engine_dd_matches_never_convert ] ) ]
