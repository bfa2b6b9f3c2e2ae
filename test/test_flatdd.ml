let cfg ?(threads = 2) ?(fusion = Config.No_fusion) ?(policy = Config.Ewma_policy)
    ?(trace = false) () =
  { Config.default with Config.threads; fusion; policy; trace }

let check_against_statevec ?tol name config c =
  let r = Driver.run config c in
  let got = Driver.amplitudes r in
  let expect = Apply.run c in
  Test_util.check_close ?tol name got expect.State.amps;
  r

let test_regular_circuits_stay_dd () =
  List.iter
    (fun c ->
       let r = check_against_statevec c.Circuit.name (cfg ()) c in
       Alcotest.(check bool) (c.Circuit.name ^ " stayed DD") true
         (r.Driver.converted_at = None);
       (match r.Driver.final with
        | Engine.Dd_state _ -> ()
        | Engine.Flat_state _ -> Alcotest.fail "expected DD final state"))
    [ Ghz.circuit 12; Adder.circuit 12; Bv.circuit 10 ]

let test_irregular_circuits_convert () =
  List.iter
    (fun c ->
       let r = check_against_statevec ~tol:1e-8 c.Circuit.name (cfg ~threads:4 ()) c in
       Alcotest.(check bool) (c.Circuit.name ^ " converted") true
         (r.Driver.converted_at <> None);
       (match r.Driver.final with
        | Engine.Flat_state _ -> ()
        | Engine.Dd_state _ -> Alcotest.fail "expected flat final state"))
    [ Dnn.circuit ~layers:5 10;
      Vqe.circuit ~layers:3 10;
      Supremacy.circuit ~cycles:8 10;
      Swaptest.knn 9 ]

let test_thread_counts_agree () =
  let c = Supremacy.circuit ~seed:3 ~cycles:6 9 in
  let reference = Driver.amplitudes (Driver.run (cfg ~threads:1 ()) c) in
  List.iter
    (fun threads ->
       let r = Driver.run (cfg ~threads ()) c in
       Test_util.check_close ~tol:1e-9
         (Printf.sprintf "%d threads" threads) reference (Driver.amplitudes r))
    [ 2; 3; 4; 8 ]

let test_policies () =
  let c = Dnn.circuit ~layers:4 8 in
  (* Never convert: result must still be right, final state DD. *)
  let r = check_against_statevec "never-convert" (cfg ~policy:Config.Never_convert ()) c in
  Alcotest.(check bool) "no conversion" true (r.Driver.converted_at = None);
  (* Convert immediately: everything runs through DMAV. *)
  let r = check_against_statevec "convert-at-0" (cfg ~policy:(Config.Convert_at (-1)) ()) c in
  Alcotest.(check bool) "converted before gate 0" true
    (r.Driver.converted_at <> None);
  Alcotest.(check int) "all gates in dmav" (Circuit.num_gates c)
    (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached);
  (* Convert at a fixed index. *)
  let r = check_against_statevec "convert-at-20" (cfg ~policy:(Config.Convert_at 20) ()) c in
  (match r.Driver.converted_at with
   | Some i -> Alcotest.(check int) "index honored" 20 i
   | None -> Alcotest.fail "expected conversion")

let test_fusion_modes_preserve_results () =
  let c = Dnn.circuit ~seed:7 ~layers:5 9 in
  List.iter
    (fun (name, fusion) ->
       let r = check_against_statevec ~tol:1e-8 name (cfg ~threads:2 ~fusion ()) c in
       match fusion with
       | Config.No_fusion -> Alcotest.(check bool) "no stats" true (r.Driver.fusion_stats = None)
       | _ ->
         (match r.Driver.fusion_stats with
          | Some s ->
            Alcotest.(check bool) (name ^ " reduced gate count") true
              (s.Fusion.gates_out <= s.Fusion.gates_in)
          | None -> Alcotest.fail "expected fusion stats"))
    [ ("none", Config.No_fusion);
      ("dmav-aware", Config.Dmav_aware);
      ("kops-4", Config.K_operations 4) ]

let test_trace_structure () =
  let c = Supremacy.circuit ~seed:5 ~cycles:6 9 in
  let r = Driver.run (cfg ~threads:2 ~trace:true ()) c in
  Alcotest.(check bool) "trace nonempty" true (List.length r.Driver.trace > 0);
  (* Phases must be ordered: Dd_phase*, Conversion?, Dmav_phase*. *)
  let phase_rank = function
    | Engine.Dd_phase -> 0
    | Engine.Conversion -> 1
    | Engine.Dmav_phase -> 2
  in
  let ranks = List.map (fun g -> phase_rank g.Engine.phase) r.Driver.trace in
  let sorted = List.sort compare ranks in
  Alcotest.(check (list int)) "phases are monotone" sorted ranks;
  (* DD-phase records must carry sizes; DMAV records must carry kernel
     choices. *)
  List.iter
    (fun g ->
       match g.Engine.phase with
       | Engine.Dd_phase ->
         Alcotest.(check bool) "dd size recorded" true (g.Engine.dd_size > 0)
       | Engine.Dmav_phase ->
         Alcotest.(check bool) "kernel recorded" true (g.Engine.dispatch <> None)
       | Engine.Conversion -> ())
    r.Driver.trace;
  (* Without trace requested the list is empty. *)
  let r2 = Driver.run (cfg ~threads:2 ()) c in
  Alcotest.(check int) "no trace by default" 0 (List.length r2.Driver.trace)

let test_deterministic () =
  let c = Vqe.circuit ~seed:9 ~layers:3 9 in
  let a = Driver.amplitudes (Driver.run (cfg ~threads:4 ()) c) in
  let b = Driver.amplitudes (Driver.run (cfg ~threads:4 ()) c) in
  Test_util.check_close ~tol:0.0 "bitwise deterministic" a b

let test_timing_fields () =
  let c = Dnn.circuit ~layers:4 9 in
  let r = Driver.run (cfg ~threads:2 ()) c in
  Alcotest.(check bool) "total >= parts" true
    (r.Driver.seconds_total
     >= r.Driver.seconds_dd +. r.Driver.seconds_convert
        +. r.Driver.seconds_dmav -. 1e-6);
  Alcotest.(check bool) "dd phase took time" true (r.Driver.seconds_dd > 0.0);
  Alcotest.(check bool) "conversion stats present" true
    (r.Driver.conversion_stats <> None);
  Alcotest.(check bool) "peak memory positive" true (r.Driver.peak_memory_bytes > 0)

let test_modeled_macs_positive_after_conversion () =
  let c = Supremacy.circuit ~cycles:8 9 in
  let r = Driver.run (cfg ~threads:4 ()) c in
  Alcotest.(check bool) "macs accumulated" true (r.Driver.modeled_macs > 0.0);
  Alcotest.(check bool) "kernel counts fill the dmav phase" true
    (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached > 0)

let test_epsilon_extremes () =
  let c = Dnn.circuit ~layers:4 8 in
  (* Huge epsilon: effectively never converts. *)
  let r =
    Driver.run
      { (cfg ()) with Config.epsilon = 1e9 }
      c
  in
  Alcotest.(check bool) "huge epsilon stays DD" true (r.Driver.converted_at = None);
  (* Tiny epsilon: converts at the first size increase. *)
  let r2 =
    check_against_statevec ~tol:1e-8 "tiny epsilon"
      { (cfg ()) with Config.epsilon = 1.01 }
      c
  in
  (* DNN-8's DD size cannot grow before the first CX ladder (gate 24), so
     "early" means within the first layer. *)
  (match r2.Driver.converted_at with
   | Some i -> Alcotest.(check bool) "within the first layer" true (i < Dnn.gates_per_layer 8)
   | None -> Alcotest.fail "tiny epsilon must convert")

let test_qft_and_grover_end_to_end () =
  (* Structured but not trivially regular circuits. *)
  ignore (check_against_statevec "qft" (cfg ~threads:2 ()) (Qft.circuit 10));
  ignore
    (check_against_statevec "grover" (cfg ~threads:2 ())
       (Grover.circuit ~marked:37 ~iterations:5 9))

let test_amplitudes_of_dd_final () =
  let c = Ghz.circuit 8 in
  let r = Driver.run (cfg ()) c in
  let amps = Driver.amplitudes r in
  Alcotest.(check (float 1e-12)) "|0...0|" 0.5 (Cnum.norm2 (Buf.get amps 0));
  Alcotest.(check (float 1e-12)) "|1...1|" 0.5 (Cnum.norm2 (Buf.get amps 255))

let test_shared_pool () =
  Pool.with_pool 4 (fun pool ->
      let c = Supremacy.circuit ~cycles:5 8 in
      let r = Driver.run ~pool (cfg ~threads:1 ()) c in
      let expect = Apply.run c in
      Test_util.check_close ~tol:1e-9 "external pool" (Driver.amplitudes r)
        expect.State.amps;
      (* Pool still alive for further use. *)
      let acc = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr acc);
      Alcotest.(check int) "pool survives simulate" 4 (Atomic.get acc))

let prop_flatdd_equals_statevec =
  QCheck.Test.make ~name:"flatdd equals statevec on random circuits" ~count:15
    QCheck.(pair (int_range 1 500) (int_range 1 4))
    (fun (seed, threads) ->
       let n = 7 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let r = Driver.run (cfg ~threads ()) c in
       let expect = Apply.run c in
       Buf.max_abs_diff (Driver.amplitudes r) expect.State.amps < 1e-8)

let suite =
  [ ( "flatdd",
      [ Alcotest.test_case "regular circuits stay in DD" `Quick
          test_regular_circuits_stay_dd;
        Alcotest.test_case "irregular circuits convert" `Quick
          test_irregular_circuits_convert;
        Alcotest.test_case "thread counts agree" `Quick test_thread_counts_agree;
        Alcotest.test_case "conversion policies" `Quick test_policies;
        Alcotest.test_case "fusion modes preserve results" `Quick
          test_fusion_modes_preserve_results;
        Alcotest.test_case "trace structure" `Quick test_trace_structure;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "timing fields" `Quick test_timing_fields;
        Alcotest.test_case "modeled macs" `Quick test_modeled_macs_positive_after_conversion;
        Alcotest.test_case "epsilon extremes" `Quick test_epsilon_extremes;
        Alcotest.test_case "qft and grover end to end" `Quick
          test_qft_and_grover_end_to_end;
        Alcotest.test_case "amplitudes of DD final state" `Quick
          test_amplitudes_of_dd_final;
        Alcotest.test_case "shared pool" `Quick test_shared_pool;
        QCheck_alcotest.to_alcotest prop_flatdd_equals_statevec ] ) ]
