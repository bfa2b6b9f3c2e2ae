(* The stepwise engine layer (lib/engine): DD alone (Driver.run that never
   converts), DMAV alone (Driver.run converting before the first gate) and
   the dense engine (run_engine) must agree amplitude-for-amplitude, and
   the flat phase's per-gate kernel dispatch must pick the
   dense kernel exactly where the cost model says and stay observable
   through the trace and the dmav.dispatch.* counters. Driver.run at every
   conversion index is test_oracle.ml's policy axis. *)

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

(* ---- each engine alone, through the same driver loop ---------------- *)

(* DD alone never converts; DMAV alone converts the |0…0⟩ DD before the
   first gate. *)
let dd_only cfg c = Driver.run { cfg with Config.policy = Config.Never_convert } c

let dmav_only ?(precision = Config.F64) cfg c =
  Driver.run { cfg with Config.policy = Config.Convert_at (-1); precision } c

let test_three_engine_differential () =
  List.iter
    (fun (name, c) ->
       let expect = dense_reference c in
       let cfg = { Config.default with Config.threads = 2; trace = true } in
       let check ?(tol = 1e-9) ?converted_at ename r =
         Test_util.check_close ~tol
           (Printf.sprintf "%s: %s vs dense reference" name ename)
           (Driver.amplitudes r) expect;
         Alcotest.(check int)
           (Printf.sprintf "%s: %s records every gate" name ename)
           (Circuit.num_gates c)
           (List.length
              (List.filter (fun (g : Engine.gate_record) -> g.Engine.phase <> Engine.Conversion)
                 r.Driver.trace));
         Alcotest.(check (option int))
           (Printf.sprintf "%s: %s conversion index" name ename)
           converted_at r.Driver.converted_at
       in
       check "dd" (dd_only cfg c);
       check ~converted_at:(-1) "dmav" (dmav_only cfg c);
       check "dense" (Driver.run_engine (module Dense_engine) cfg c);
       check ~tol:1e-4 ~converted_at:(-1) "dmav f32" (dmav_only ~precision:Config.F32 cfg c);
       check ~tol:1e-4 "dense f32" (Driver.run_engine (module Dense_engine.F32) cfg c))
    [ ("random-5", Test_util.random_circuit ~seed:21 ~gates:40 5);
      ("random-6", Test_util.random_circuit ~seed:22 ~gates:60 6);
      ("layered", layered 5 4);
      ("ghz", Suite.generate ~seed:1 Suite.Ghz ~n:6) ]

let test_run_engine_phase_accounting () =
  let c = Test_util.random_circuit ~seed:23 ~gates:20 4 in
  let cfg = { Config.default with Config.trace = true } in
  let dd = dd_only cfg c in
  Alcotest.(check bool) "dd time in seconds_dd" true
    (Float.equal dd.Driver.seconds_dmav 0.0
     && Float.equal dd.Driver.seconds_total dd.Driver.seconds_dd);
  List.iter
    (fun (r : Engine.gate_record) ->
       Alcotest.(check bool) "dd records carry Dd_phase" true
         (r.Engine.phase = Engine.Dd_phase))
    dd.Driver.trace;
  let gate_records name (r : Driver.result) =
    List.iter
      (fun (g : Engine.gate_record) ->
         Alcotest.(check bool) (name ^ " records carry Dmav_phase") true
           (g.Engine.phase = Engine.Dmav_phase || g.Engine.phase = Engine.Conversion))
      r.Driver.trace
  in
  List.iter
    (fun (name, r) ->
       gate_records name r;
       Alcotest.(check int) (name ^ ": every gate picked a kernel")
         (Circuit.num_gates c)
         (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached))
    [ ("dmav", dmav_only cfg c); ("dmav f32", dmav_only ~precision:Config.F32 cfg c) ];
  let dense name (r : Driver.result) =
    Alcotest.(check bool) (name ^ " time in seconds_dmav") true
      (Float.equal r.Driver.seconds_dd 0.0
       && Float.equal r.Driver.seconds_total r.Driver.seconds_dmav);
    gate_records name r
  in
  dense "dense" (Driver.run_engine (module Dense_engine) cfg c);
  dense "dense f32" (Driver.run_engine (module Dense_engine.F32) cfg c)

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
     flat phase of a run that converts before the first gate, at both
     precisions. *)
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
      ("run f32", 1e-4, Driver.run { cfg with Config.precision = Config.F32 } c) ]

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
      Alcotest.(check int) "no dmav.cost span: every gate has a narrow form" 0
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

(* ---- the streamed flat phase ------------------------------------- *)

(* A cancel poll that turns true at the caller's [trigger]-th call and
   counts every call answered true, by any domain. With [Convert_at k]
   the caller polls k + 1 times in the DD phase, once before the
   conversion, then once per remaining op in the DMAV-aware fusion scan
   (which builds no gate DD before it starts), so [trigger] picks a
   point in the scan. Each side raises at its first true poll, so a run that
   stops within one gate answers at most one true poll per side. *)
let cancelling_poll ~trigger =
  let caller = Domain.self () in
  let calls = ref 0 and fired = Atomic.make false and answered = Atomic.make 0 in
  let poll () =
    if Domain.self () = caller then begin
      incr calls;
      if !calls = trigger then Atomic.set fired true
    end;
    let v = Atomic.get fired in
    if v then Atomic.incr answered;
    v
  in
  (poll, answered)

let test_cancel_while_planning () =
  let n = 10 and k = 10 in
  let c = Suite.generate ~seed:4 ~gates:200 Suite.Dnn ~n in
  let g = Circuit.num_gates c in
  let cfg =
    { Config.default with Config.policy = Config.Convert_at k; fusion = Config.Dmav_aware }
  in
  List.iter
    (fun threads ->
       Pool.with_pool threads (fun pool ->
           let cancel, answered = cancelling_poll ~trigger:((k + 1) + 1 + (g - k - 1) - 40) in
           Alcotest.check_raises "cancelled mid-fusion" Driver.Cancelled (fun () ->
               ignore (Driver.run ~cancel ~pool cfg c));
           if Atomic.get answered > Int.min 2 threads then
             Alcotest.failf "pool %d: %d polls answered after the cancel" threads
               (Atomic.get answered);
           (* The pool is reusable and the next run is whole. *)
           let r = Driver.run ~pool cfg c in
           Test_util.check_close ~tol:1e-9 "run after the cancel" (Driver.amplitudes r)
             (dense_reference c)))
    [ 1; 2 ]

let test_cancel_at_every_poll () =
  (* Cancel a streamed run at its k-th poll, from whichever domain polls,
     for every k: in the DD phase, at the conversion, while the planner
     builds gate DDs and fuses, while the executor runs, and after the
     plan. Each run raises Cancelled (or completes when k is past the
     last poll), and the next run on the same pool gives the same bytes. *)
  let n = 8 in
  let c = Suite.generate ~seed:5 ~gates:90 Suite.Dnn ~n in
  let cfg =
    { Config.default with Config.policy = Config.Convert_at 6; fusion = Config.Dmav_aware }
  in
  Pool.with_pool 2 (fun pool ->
      let expect = Driver.amplitudes (Driver.run ~pool cfg c) in
      let polls = Atomic.make 0 in
      ignore (Driver.run ~pool ~cancel:(fun () -> Atomic.incr polls; false) cfg c);
      let total = Atomic.get polls in
      for k = 0 to total do
        let calls = Atomic.make 0 in
        let cancel () = Atomic.fetch_and_add calls 1 >= k in
        (match Driver.run ~pool ~cancel cfg c with
         | _ -> if k < total then Alcotest.failf "poll %d of %d: not cancelled" k total
         | exception Driver.Cancelled ->
           if k >= total then Alcotest.failf "cancelled with no poll answered true");
        let again = Driver.amplitudes (Driver.run ~pool cfg c) in
        if Buf.max_abs_diff again expect > 0.0 then
          Alcotest.failf "run after a cancel at poll %d differs" k
      done)

let test_streamed_trace () =
  (* The executor's gates and the pool's are traced in order, with one
     record and one kernel count per fused gate. *)
  let n = 10 and k = 12 in
  let c = Suite.generate ~seed:6 ~gates:220 Suite.Supremacy ~n in
  let cfg =
    { Config.default with
      Config.policy = Config.Convert_at k; fusion = Config.Dmav_aware; trace = true }
  in
  Pool.with_pool 2 (fun pool ->
      let r = Driver.run ~pool cfg c in
      let flat = List.filter (fun g -> g.Engine.phase = Engine.Dmav_phase) r.Driver.trace in
      let fused =
        match r.Driver.fusion_stats with Some st -> st.Fusion.gates_out | None -> -1
      in
      Alcotest.(check int) "one record per fused gate" fused (List.length flat);
      Alcotest.(check int) "one kernel count per fused gate" fused
        (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached);
      List.iteri
        (fun j g -> Alcotest.(check int) "records in stream order" (k + 1 + j) g.Engine.index)
        flat;
      Test_util.check_close ~tol:1e-9 "streamed amplitudes" (Driver.amplitudes r)
        (dense_reference c))

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

(* Exact bits of jobs the gate price leaves alone: unfused jobs with no
   cached pick (flat from the first gate under dense dispatch, at f64 and
   f32, and EWMA-converted on one thread) and DD-only jobs. The digests
   are those of the build before the local leg was priced, where the
   same jobs ran the same kernels; a change to the dense/local/Run split
   of unfused gates or to the DD phase moves them. vqe-10's is that of
   the first build whose unfused local gates carry their ops' entries
   rather than their DDs' weights (max |Δ| against [Apply.run] 1.37e-16
   before, 8.09e-17 after). *)
let test_unfused_bytes_pinned () =
  let digest (b : Buf.t) =
    let len = Buf.length b in
    let by = Bytes.create (16 * len) in
    for i = 0 to len - 1 do
      Bytes.set_int64_le by (16 * i) (Int64.bits_of_float (Buf.get_re b i));
      Bytes.set_int64_le by ((16 * i) + 8) (Int64.bits_of_float (Buf.get_im b i))
    done;
    Digest.to_hex (Digest.bytes by)
  in
  let flat = { Config.default with Config.policy = Config.Convert_at (-1); dense_dispatch = true } in
  let never = { Config.default with Config.policy = Config.Never_convert } in
  List.iter
    (fun (label, cfg, threads, fam, n, gates, seed, want) ->
       let c = Suite.generate ~seed ?gates fam ~n in
       Pool.with_pool threads (fun pool ->
           let r = Driver.run ~pool { cfg with Config.threads } c in
           Alcotest.(check int) (label ^ ": no cached pick") 0 r.Driver.dmav_gates_cached;
           Alcotest.(check string) label want (digest (Driver.amplitudes r))))
    [ ("supremacy-10 flat, dense dispatch", flat, 2, Suite.Supremacy, 10, Some 80, 5,
       "5c9e90c97cc2b5c81471d15e59012574");
      ("dnn-10 flat, dense dispatch", flat, 2, Suite.Dnn, 10, Some 80, 6,
       "32a37f3b2a805aae615ae463dc007f5c");
      ("supremacy-10 flat, dense dispatch, f32", { flat with Config.precision = Config.F32 }, 2,
       Suite.Supremacy, 10, Some 80, 5, "3f0837f8167b6f4cd9753051dd63281c");
      ("vqe-10 EWMA", Config.default, 1, Suite.Vqe, 10, Some 100, 7,
       "d6e85829839290fc23eec44704cf5cc5");
      ("supremacy-10 EWMA", Config.default, 1, Suite.Supremacy, 10, Some 120, 9,
       "e2f9db29f7681b8d5ccd3e2eec20a363");
      ("dnn-9 DD only", never, 1, Suite.Dnn, 9, Some 100, 8, "80db45ea69048ce17f8cf8147abc7cfc");
      ("grover-8 DD only", never, 1, Suite.Grover, 8, None, 3, "2a64c5121e9aacc58384c0b7a65516da") ]

(* The unfused flat phase builds a gate DD ([plan.gate_dd]) and prices
   it with Algorithm 2's breakdown ([dmav.cost]) only for an op with no
   narrow form, a gate with two or more controls here; every other op
   compiles from its matrix. *)
let test_unfused_plan_builds_wide_dds_only () =
  List.iter
    (fun (fam, n, threads, dense_dispatch) ->
       let c = Suite.generate ~seed:4 ~gates:80 fam ~n in
       let wide =
         Array.fold_left
           (fun k op -> if Flat_gate.local_of_op ~n op = None then k + 1 else k)
           0 c.Circuit.ops
       in
       let what = Printf.sprintf "%s-%d t=%d" (Suite.family_name fam) n threads in
       if fam <> Suite.Dnn && wide = 0 then Alcotest.failf "%s: no op without a narrow form" what;
       with_metrics (fun () ->
           let cfg =
             { Config.default with
               Config.threads; policy = Config.Convert_at (-1); dense_dispatch }
           in
           ignore (Driver.run cfg c);
           let snap = Obs.Metrics.snapshot () in
           let count name =
             match Obs.Metrics.span_value snap name with Some s -> s.Obs.Metrics.count | None -> 0
           in
           Alcotest.(check int) (what ^ ": gate DDs") wide (count "plan.gate_dd");
           Alcotest.(check int) (what ^ ": dmav.cost spans") wide (count "dmav.cost");
           Alcotest.(check int) (what ^ ": every gate compiled") (Circuit.num_gates c)
             (count "plan.compile")))
    [ (Suite.Grover, 7, 1, false); (Suite.Adder, 8, 2, true); (Suite.Dnn, 8, 2, false);
      (Suite.Grover, 9, 2, true) ]

(* A [Config] with no threads is refused before any domain starts, by
   both entry points, with or without a pool, not run on one domain. *)
let test_zero_threads_refused () =
  let c = Suite.generate ~seed:1 ~gates:10 Suite.Ghz ~n:3 in
  List.iter
    (fun threads ->
       let cfg = Config.with_threads threads Config.default in
       let expect =
         Invalid_argument (Printf.sprintf "Driver: Config.threads must be >= 1 (got %d)" threads)
       in
       Alcotest.check_raises "run" expect (fun () -> ignore (Driver.run cfg c));
       Alcotest.check_raises "run on a pool" expect (fun () ->
           Pool.with_pool 1 (fun pool -> ignore (Driver.run ~pool cfg c)));
       Alcotest.check_raises "run_engine" expect (fun () ->
           ignore (Driver.run_engine (module Dense_engine) cfg c)))
    [ 0; -2 ]

(* A converted run's peak memory is the flat phase's two state buffers
   plus the DD package as the plan left it: on one domain Algorithm 2
   never wins, so there are no partial-output buffers, and within a run
   the package's bytes never fall, so the last sample is the peak. Read
   the package after the run, at both precisions, fused and unfused. *)
let test_flat_peak_memory () =
  let c = Suite.generate ~seed:3 ~gates:120 Suite.Supremacy ~n:9 in
  let n = c.Circuit.n in
  List.iter
    (fun (precision, buffer_bytes) ->
       List.iter
         (fun fusion ->
            let what =
              Printf.sprintf "%s %s" (Config.precision_name precision)
                (match fusion with Config.No_fusion -> "unfused" | _ -> "fused")
            in
            let package = Dd.create () in
            let cfg =
              { Config.default with
                Config.threads = 1; policy = Config.Convert_at 20; fusion; precision }
            in
            let r = Pool.with_pool 1 (fun pool -> Driver.run ~pool ~package cfg c) in
            Alcotest.(check (option int)) (what ^ ": converted") (Some 20) r.Driver.converted_at;
            Alcotest.(check int) (what ^ ": peak memory")
              ((2 * (buffer_bytes ~len:(1 lsl n) + 24)) + Dd.memory_bytes package)
              r.Driver.peak_memory_bytes)
         [ Config.Dmav_aware; Config.No_fusion ])
    [ (Config.F64, Storage.F64.buffer_bytes); (Config.F32, Storage.F32.buffer_bytes) ]

let suite =
  [ ( "engine",
      [ Alcotest.test_case "three-engine differential" `Quick
          test_three_engine_differential;
        Alcotest.test_case "run_engine phase accounting" `Quick
          test_run_engine_phase_accounting;
        Alcotest.test_case "dispatch: unfused 1q gates go dense" `Quick
          test_dispatch_dense_for_unfused_single_qubit;
        Alcotest.test_case "dispatch: mixed kernels" `Quick test_dispatch_mixed_kernels;
        Alcotest.test_case "dispatch: fused gates never dense" `Quick
          test_dispatch_never_dense_when_fused;
        Alcotest.test_case "dispatch: off by default" `Quick
          test_dispatch_off_is_default_path;
        Alcotest.test_case "dispatch: obs counters" `Quick test_dispatch_counters;
        Alcotest.test_case "cancel while the planner fuses" `Quick test_cancel_while_planning;
        Alcotest.test_case "cancel at every poll leaves the pool whole" `Quick
          test_cancel_at_every_poll;
        Alcotest.test_case "streamed flat phase traces every gate" `Quick test_streamed_trace;
        Alcotest.test_case "bench DD baseline honours its time limit" `Quick
          test_bench_dd_time_limit;
        Alcotest.test_case "unfused and DD-only jobs: exact bits pinned" `Quick
          test_unfused_bytes_pinned;
        Alcotest.test_case "unfused plan builds DDs for wide ops only" `Quick
          test_unfused_plan_builds_wide_dds_only;
        Alcotest.test_case "zero threads refused" `Quick test_zero_threads_refused;
        Alcotest.test_case "flat peak memory: two buffers and the package" `Quick
          test_flat_peak_memory ] ) ]
