(* The stepwise engine layer (lib/engine): DD alone (Driver.run that never
   converts), DMAV alone (Driver.run converting before the first gate) and
   the dense engine (run_engine) must agree amplitude-for-amplitude, and
   the flat phase must run every unfused gate on the local leg without a
   gate DD, observable through the trace and the dmav.dispatch.*
   counters. Driver.run at every conversion index is test_oracle.ml's
   policy axis. *)

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

let flat_records r =
  List.filter
    (fun (g : Engine.gate_record) -> g.Engine.phase = Engine.Dmav_phase)
    r.Driver.trace

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
   cached pick (flat from the first gate, at f64 and f32, and
   EWMA-converted on one thread) and DD-only jobs; a change to the
   local leg's arithmetic, to the local/Run split of unfused gates or to
   the DD phase moves them. vqe-10's is that of the first build whose
   unfused local gates carry their ops' entries rather than their DDs'
   weights (max |Δ| against [Apply.run] 1.37e-16 before, 8.09e-17
   after). supremacy-10 flat's is that of the first build without the
   dense kernel in the flat phase, its single-qubit gates on the local
   leg (max |Δ| 7.06e-17 before, 7.84e-17 after); its f32 digest did not
   move (2.33e-8), the local leg rounding once per output. *)
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
  let flat = { Config.default with Config.policy = Config.Convert_at (-1) } in
  let never = { Config.default with Config.policy = Config.Never_convert } in
  List.iter
    (fun (label, cfg, threads, fam, n, gates, seed, want) ->
       let c = Suite.generate ~seed ?gates fam ~n in
       Pool.with_pool threads (fun pool ->
           let r = Driver.run ~pool { cfg with Config.threads } c in
           Alcotest.(check int) (label ^ ": no cached pick") 0 r.Driver.dmav_gates_cached;
           Alcotest.(check string) label want (digest (Driver.amplitudes r))))
    [ ("supremacy-10 flat", flat, 2, Suite.Supremacy, 10, Some 80, 5,
       "a68201507de1459ec6022ff683bb8ae4");
      ("dnn-10 flat", flat, 2, Suite.Dnn, 10, Some 80, 6,
       "32a37f3b2a805aae615ae463dc007f5c");
      ("supremacy-10 flat, f32", { flat with Config.precision = Config.F32 }, 2,
       Suite.Supremacy, 10, Some 80, 5, "3f0837f8167b6f4cd9753051dd63281c");
      ("vqe-10 EWMA", Config.default, 1, Suite.Vqe, 10, Some 100, 7,
       "d6e85829839290fc23eec44704cf5cc5");
      ("supremacy-10 EWMA", Config.default, 1, Suite.Supremacy, 10, Some 120, 9,
       "e2f9db29f7681b8d5ccd3e2eec20a363");
      ("dnn-9 DD only", never, 1, Suite.Dnn, 9, Some 100, 8, "80db45ea69048ce17f8cf8147abc7cfc");
      ("grover-8 DD only", never, 1, Suite.Grover, 8, None, 3, "2a64c5121e9aacc58384c0b7a65516da") ]

(* The unfused flat phase builds no gate DD ([plan.gate_dd]) and prices
   nothing with Algorithm 2's breakdown ([dmav.cost]): every op, those
   on more than two levels (two or more controls, here) included,
   compiles from its form to the local leg. *)
let test_unfused_plan_builds_wide_dds_only () =
  List.iter
    (fun (fam, n, threads) ->
       let c = Suite.generate ~seed:4 ~gates:80 fam ~n in
       let wide =
         Array.fold_left
           (fun k op -> if Flat_gate.narrow ~n (Flat_gate.local_of_op ~n op) = None then k + 1 else k)
           0 c.Circuit.ops
       in
       let what = Printf.sprintf "%s-%d t=%d" (Suite.family_name fam) n threads in
       if fam <> Suite.Dnn && wide = 0 then Alcotest.failf "%s: no op on more than two levels" what;
       with_metrics (fun () ->
           let cfg = { Config.default with Config.threads; policy = Config.Convert_at (-1) } in
           ignore (Driver.run cfg c);
           let snap = Obs.Metrics.snapshot () in
           let count name =
             match Obs.Metrics.span_value snap name with Some s -> s.Obs.Metrics.count | None -> 0
           in
           Alcotest.(check int) (what ^ ": gate DDs") 0 (count "plan.gate_dd");
           Alcotest.(check int) (what ^ ": dmav.cost spans") 0 (count "dmav.cost");
           Alcotest.(check int) (what ^ ": every gate compiled") (Circuit.num_gates c)
             (count "plan.compile")))
    [ (Suite.Grover, 7, 1); (Suite.Adder, 8, 2); (Suite.Dnn, 8, 2); (Suite.Grover, 9, 2) ]

(* Without fusion every flat gate is its op's form on the local leg,
   whatever its control count: a converted run over uncontrolled (h, t,
   ry), singly controlled (cx), multi-controlled (ccx, mcz, mcx) and
   two-qubit (iswap) ops builds no gate DD ([plan.gate_dd] and
   [dmav.cost] never open), so a supplied package's matrix nodes do not
   move; every gate traces [Dmav_local], and the dmav.dispatch.*
   counters mirror the result (all local, so all uncached; no cached or
   dense gate). An x layer first sets the controls, so the controlled
   ops move the state; checked against [Apply.run]. At f64 and f32, on
   pools of 1 and 2. *)
let test_dispatch_local_builds_no_dd () =
  let n = 7 in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    if q <> 2 then Circuit.Builder.x b q
  done;
  for l = 0 to 5 do
    Circuit.Builder.h b (l mod n);
    Circuit.Builder.t b ((l + 1) mod n);
    Circuit.Builder.ry b 0.3 ((l + 5) mod n);
    Circuit.Builder.cx b ~control:((l + 1) mod n) ~target:((l + 6) mod n);
    Circuit.Builder.single b ~controls:(List.init (n - 1) Fun.id) "mcz" Gate.z (n - 1);
    Circuit.Builder.ccx b ~c1:((l + 3) mod n) ~c2:((l + 4) mod n) ~target:((l + 2) mod n);
    Circuit.Builder.single b ~controls:[ 0; 1; 4; 5 ] "mcx" Gate.x ((l mod 2) + 2);
    Circuit.Builder.iswap b (l mod n) ((l + 3) mod n)
  done;
  let c = Circuit.Builder.finish b in
  let gates = Circuit.num_gates c in
  let expect = dense_reference c in
  List.iter
    (fun (precision, tol) ->
       List.iter
         (fun threads ->
            Pool.with_pool threads (fun pool ->
                with_metrics (fun () ->
                    let package = Dd.create () in
                    let before = Dd.live_mnodes package in
                    let cfg =
                      { Config.default with
                        Config.policy = Config.Convert_at (-1); precision; trace = true }
                    in
                    let r = Driver.run ~pool ~package cfg c in
                    let what = Printf.sprintf "%s t=%d" (Config.precision_name precision) threads in
                    let snap = Obs.Metrics.snapshot () in
                    let spans name =
                      match Obs.Metrics.span_value snap name with
                      | Some s -> s.Obs.Metrics.count
                      | None -> 0
                    in
                    Alcotest.(check int) (what ^ ": live matrix nodes") before
                      (Dd.live_mnodes package);
                    Alcotest.(check int) (what ^ ": plan.gate_dd spans") 0 (spans "plan.gate_dd");
                    Alcotest.(check int) (what ^ ": dmav.cost spans") 0 (spans "dmav.cost");
                    let flat = flat_records r in
                    Alcotest.(check int) (what ^ ": every gate in the flat phase") gates
                      (List.length flat);
                    Alcotest.(check bool) (what ^ ": every gate on the local leg") true
                      (List.for_all
                         (fun (g : Engine.gate_record) -> g.Engine.dispatch = Some Engine.Dmav_local)
                         flat);
                    Alcotest.(check int) (what ^ ": local gates") gates r.Driver.dmav_gates_local;
                    List.iter
                      (fun (name, want) ->
                         Alcotest.(check int) (what ^ ": " ^ name) want (counter_exn snap name))
                      [ ("dmav.dispatch.local", gates); ("dmav.dispatch.uncached", gates);
                        ("dmav.dispatch.cached", 0); ("dmav.dispatch.dense", 0) ];
                    Test_util.check_close ~tol (what ^ ": vs Apply.run") (Driver.amplitudes r)
                      expect)))
         [ 1; 2 ])
    [ (Config.F64, 1e-12); (Config.F32, 1e-6) ]

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

(* A converted run's peak memory is the buffers the flat phase holds plus
   the DD package as the plan left it: the state V, the scratch vector W
   only when fused (an unfused plan never emits a Run gate, which alone
   writes W), and at f32 the converted f64 buffer the result is widened
   into. On one domain Algorithm 2 never wins, so there are no
   partial-output buffers, and within a run the package's bytes never
   fall, so the last sample is the peak. Read the package after the
   run, at both precisions, fused and unfused; [dmav.scratch.taken]
   counts W. *)
let test_flat_peak_memory () =
  let c = Suite.generate ~seed:3 ~gates:120 Suite.Supremacy ~n:9 in
  let n = c.Circuit.n in
  let state_bytes buffer_bytes = buffer_bytes ~len:(1 lsl n) + 24 in
  List.iter
    (fun (precision, buffer_bytes, staging) ->
       List.iter
         (fun (fusion, buffers) ->
            let what =
              Printf.sprintf "%s %s" (Config.precision_name precision)
                (match fusion with Config.No_fusion -> "unfused" | _ -> "fused")
            in
            let package = Dd.create () in
            let cfg =
              { Config.default with
                Config.threads = 1; policy = Config.Convert_at 20; fusion; precision }
            in
            with_metrics (fun () ->
                let r = Pool.with_pool 1 (fun pool -> Driver.run ~pool ~package cfg c) in
                Alcotest.(check (option int)) (what ^ ": converted") (Some 20)
                  r.Driver.converted_at;
                Alcotest.(check int) (what ^ ": scratch vectors taken") (buffers - 1)
                  (counter_exn (Obs.Metrics.snapshot ()) "dmav.scratch.taken");
                Alcotest.(check int) (what ^ ": peak memory")
                  ((buffers * state_bytes buffer_bytes) + staging + Dd.memory_bytes package)
                  r.Driver.peak_memory_bytes))
         [ (Config.Dmav_aware, 2); (Config.No_fusion, 1) ])
    [ (Config.F64, Storage.F64.buffer_bytes, 0);
      (Config.F32, Storage.F32.buffer_bytes, state_bytes Storage.F64.buffer_bytes) ]

let exact_bits (a : Buf.t) (b : Buf.t) =
  Buf.length a = Buf.length b
  && List.for_all
       (fun i ->
          Int64.bits_of_float (Buf.get_re a i) = Int64.bits_of_float (Buf.get_re b i)
          && Int64.bits_of_float (Buf.get_im a i) = Int64.bits_of_float (Buf.get_im b i))
       (List.init (Buf.length a) Fun.id)

(* An engine seated without W (an unfused phase's seat) takes one when a
   Run gate arrives, and gives the bytes of an engine seated with it, at
   both precisions and on the Run and Algorithm 2. *)
let test_run_gate_takes_scratch () =
  let n = 8 in
  let c = Suite.generate ~seed:5 ~gates:24 Suite.Supremacy ~n in
  let p = Dd.create () in
  let root =
    Array.fold_left (fun m op -> Dd.mm p (Mat_dd.of_op p ~n op) m) (Mat_dd.identity p n)
      c.Circuit.ops
  in
  let v0 = Test_util.random_state ~seed:11 n in
  let seated (type s) (module E : Engine.FLAT with type state = s) (seat : scratch:bool -> s)
      label ~scratch (g : Flat_gate.t) =
    with_metrics (fun () ->
        let st = seat ~scratch in
        let taken () = counter_exn (Obs.Metrics.snapshot ()) "dmav.scratch.taken" in
        Alcotest.(check int) (label ^ ": taken at seating") (Bool.to_int scratch) (taken ());
        Pool.with_pool 2 (fun pool ->
            E.apply_op st ~pool
              { Engine.xo_index = 0; xo_name = "run"; xo_op = None; xo_gate = Some g });
        Alcotest.(check int) (label ^ ": taken once") 1 (taken ());
        match E.extract st with
        | Engine.Flat_state b -> b
        | Engine.Dd_state _ -> Alcotest.fail "a flat engine gave a DD state")
  in
  List.iter
    (fun cached ->
       let g =
         let g = Flat_gate.compile p ~n ~threads:2 root in
         match g.Flat_gate.body with
         | Flat_gate.Dmav prog when prog.Flat_gate.cached = cached -> g
         | Flat_gate.Dmav _ ->
           let b = Cost.breakdown p ~n ~threads:2 root in
           { g with Flat_gate.body = Flat_gate.Dmav (Flat_gate.program p ~n ~cached b) }
         | Flat_gate.Local _ -> Alcotest.fail "compile gave a local gate"
       in
       List.iter
         (fun (label, run) ->
            let label = Printf.sprintf "%s %s" label (if cached then "cached" else "Run") in
            let without = run (label ^ " without W") ~scratch:false g in
            let with_w = run (label ^ " with W") ~scratch:true g in
            if not (exact_bits without with_w) then
              Alcotest.failf "%s: seated without W, the bytes differ" label)
         [ ("f64",
            seated (module Dmav_engine) (fun ~scratch -> Dmav_engine.of_buf ~n ~scratch (Buf.copy v0)));
           ("f32",
            seated (module Dmav_engine.F32) (fun ~scratch ->
                Dmav_engine.F32.of_buf ~n ~scratch (Buf.copy v0))) ])
    [ false; true ]

(* At f32 the result is the converted buffer itself, V widened into it,
   with the bytes of a fresh [Storage.promote] of V. *)
let test_f32_result_is_converted_buffer () =
  let n = 9 in
  let c = Suite.generate ~seed:6 ~gates:40 Suite.Dnn ~n in
  let buf = Test_util.random_state ~seed:12 n in
  let st = Dmav_engine.F32.of_buf ~n ~scratch:false buf in
  Pool.with_pool 2 (fun pool ->
      Array.iteri
        (fun i op ->
           let g = Flat_gate.of_local ~n ~threads:2 (Flat_gate.local_of_op ~n op) in
           Dmav_engine.F32.apply_op st ~pool
             { Engine.xo_index = i; xo_name = Circuit.op_name op; xo_op = None; xo_gate = Some g })
        c.Circuit.ops);
  let want = Storage.promote st.Dmav_engine.F32.v in
  match Dmav_engine.F32.extract st with
  | Engine.Dd_state _ -> Alcotest.fail "a flat engine gave a DD state"
  | Engine.Flat_state got ->
    Alcotest.(check bool) "the result is the converted buffer" true (got == buf);
    Alcotest.(check bool) "the bytes of Storage.promote of V" true (exact_bits got want)

let test_cancel_inside_a_run () =
  (* Flat from the first gate, unfused, at n = 14, where a run of local
     gates cuts the state into parts on a pool of 2 or 3: the caller
     polls once at the conversion, once per op in the plan, then once
     before each gate of the runs after it. The executor's first poll
     waits for the plan's last, so it runs at most one gate and the
     runs hold the rest. A cancel at the caller's third poll after the
     plan raises Cancelled out of a run, every domain having stopped,
     and the pool runs the next job to the same bytes. *)
  let n = 14 in
  let c = Suite.generate ~seed:9 ~gates:80 Suite.Dnn ~n in
  let planned = 1 + Circuit.num_gates c in
  let cfg = { Config.default with Config.policy = Config.Convert_at (-1) } in
  List.iter
    (fun threads ->
       Pool.with_pool threads (fun pool ->
           let expect = Driver.amplitudes (Driver.run ~pool cfg c) in
           let caller = Domain.self () in
           let calls = Atomic.make 0 and answered = Atomic.make 0 in
           let cancel () =
             if Domain.self () = caller then begin
               let k = Atomic.fetch_and_add calls 1 + 1 in
               let v = k >= planned + 3 in
               if v then Atomic.incr answered;
               v
             end
             else begin
               while Atomic.get calls < planned do
                 Domain.cpu_relax ()
               done;
               false
             end
           in
           Alcotest.check_raises "cancelled inside a run" Driver.Cancelled (fun () ->
               ignore (Driver.run ~cancel ~pool cfg c));
           if Atomic.get answered <> 1 then
             Alcotest.failf "pool %d: %d polls answered after the cancel" threads
               (Atomic.get answered);
           let again = Driver.amplitudes (Driver.run ~pool cfg c) in
           if Buf.max_abs_diff again expect > 0.0 then
             Alcotest.failf "pool %d: run after the cancel differs" threads))
    [ 2; 3 ]

let suite =
  [ ( "engine",
      [ Alcotest.test_case "three-engine differential" `Quick
          test_three_engine_differential;
        Alcotest.test_case "run_engine phase accounting" `Quick
          test_run_engine_phase_accounting;
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
        Alcotest.test_case
          "flat peak memory: two buffers fused, one unfused, f32's staging, the package" `Quick
          test_flat_peak_memory;
        Alcotest.test_case "a Run gate on an engine seated without W takes one, same bytes"
          `Quick test_run_gate_takes_scratch;
        Alcotest.test_case "f32: the result is the converted buffer, V widened into it" `Quick
          test_f32_result_is_converted_buffer;
        Alcotest.test_case
          "dispatch: multi-controlled ops take the local leg like every unfused op, no DD built"
          `Quick test_dispatch_local_builds_no_dd;
        Alcotest.test_case "cancel inside a run of local gates" `Quick test_cancel_inside_a_run ] ) ]
