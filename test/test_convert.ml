let dd_of_circuit c =
  Test_util.dd_state (Test_util.run_dd c)

let test_sequential_matches_statevec () =
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let p, e = dd_of_circuit c in
       let buf = Convert.sequential p ~n e in
       let sv = Apply.run c in
       Test_util.check_close ~tol:1e-9
         (Printf.sprintf "sequential conversion (seed %d)" seed) buf sv.State.amps)
    [ 1; 2; 3 ]

let test_parallel_matches_sequential_families () =
  (* Every circuit family exercises a different DD shape. *)
  let cases =
    [ Ghz.circuit 10;
      Adder.circuit 10;
      Qft.circuit 8;
      Dnn.circuit ~layers:4 8;
      Vqe.circuit ~layers:3 8;
      Supremacy.circuit ~cycles:6 9;
      Swaptest.knn 9;
      Grover.circuit ~iterations:3 8 ]
  in
  Pool.with_pool 4 (fun pool ->
      List.iter
        (fun c ->
           let n = c.Circuit.n in
           let p, e = dd_of_circuit c in
           let seq = Convert.sequential p ~n e in
           let par = Convert.parallel_ p ~pool ~n e in
           Test_util.check_close ~tol:1e-12 c.Circuit.name seq par)
        cases)

let test_parallel_thread_counts () =
  let c = Supremacy.circuit ~cycles:8 10 in
  let n = 10 in
  let p, e = dd_of_circuit c in
  let seq = Convert.sequential p ~n e in
  List.iter
    (fun threads ->
       Pool.with_pool threads (fun pool ->
           let par = Convert.parallel_ p ~pool ~n e in
           Test_util.check_close ~tol:1e-12
             (Printf.sprintf "%d threads" threads) seq par))
    [ 1; 2; 3; 4; 8 ]

let test_fills_exercised () =
  (* H^⊗n: every node has identical children, so the scalar-multiplication
     optimization must fire and fill most of the array. *)
  let n = 10 in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Circuit.Builder.h b q
  done;
  let c = Circuit.Builder.finish b in
  let p, e = dd_of_circuit c in
  Pool.with_pool 4 (fun pool ->
      let buf, stats = Convert.parallel p ~pool ~n e in
      Alcotest.(check bool) "fills occurred" true (stats.Convert.fills > 0);
      Alcotest.(check bool) "most amplitudes filled by scaling" true
        (stats.Convert.filled_amplitudes >= (1 lsl n) / 2);
      let expected = Buf.init (1 lsl n) (fun _ -> Cnum.of_float (1.0 /. 32.0)) in
      Test_util.check_close ~tol:1e-12 "uniform state correct" expected buf)

let test_fills_with_phases () =
  (* Alternating phases: children are scalar multiples with weight -1 or i;
     the fill factors must carry the phase. *)
  let n = 8 in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Circuit.Builder.h b q;
    Circuit.Builder.phase b (Float.pi /. float_of_int (q + 1)) q
  done;
  let c = Circuit.Builder.finish b in
  let p, e = dd_of_circuit c in
  let seq = Convert.sequential p ~n e in
  Pool.with_pool 4 (fun pool ->
      let par, stats = Convert.parallel p ~pool ~n e in
      Alcotest.(check bool) "fills occurred" true (stats.Convert.fills > 0);
      Test_util.check_close ~tol:1e-12 "phases preserved" seq par)

let test_zero_and_basis_edges () =
  let p = Dd.create () in
  Pool.with_pool 2 (fun pool ->
      let buf = Convert.parallel_ p ~pool ~n:5 Dd.vzero in
      Alcotest.(check (float 0.0)) "zero edge converts to zero vector" 0.0 (Buf.norm2 buf);
      let basis = Vec_dd.basis_state p 5 19 in
      let buf = Convert.parallel_ p ~pool ~n:5 basis in
      Alcotest.(check (float 1e-12)) "basis state" 1.0 (Cnum.norm2 (Buf.get buf 19));
      Alcotest.(check (float 1e-12)) "nothing else" 1.0 (Buf.norm2 buf))

let test_load_balancing_skewed_dd () =
  (* A state whose mass is entirely in one half: the zero-edge rule must
     route all tasks into the populated half and still convert exactly. *)
  let n = 9 in
  let b = Circuit.Builder.create n in
  (* qubit n-1 stays |0>; lower qubits get a dense random state. *)
  let rng = Rng.create 3 in
  for q = 0 to n - 2 do
    Circuit.Builder.u3 b (Rng.angle rng) (Rng.angle rng) (Rng.angle rng) q
  done;
  for q = 0 to n - 3 do
    Circuit.Builder.cx b ~control:q ~target:(q + 1)
  done;
  let c = Circuit.Builder.finish b in
  let p, e = dd_of_circuit c in
  let seq = Convert.sequential p ~n e in
  Pool.with_pool 8 (fun pool ->
      let par, stats = Convert.parallel p ~pool ~n e in
      Test_util.check_close ~tol:1e-12 "skewed DD" seq par;
      Alcotest.(check bool) "split produced parallel tasks" true
        (stats.Convert.tasks > 1))

let test_stats_sane () =
  let c = Supremacy.circuit ~cycles:6 10 in
  let p, e = dd_of_circuit c in
  Pool.with_pool 4 (fun pool ->
      let _, stats = Convert.parallel p ~pool ~n:10 e in
      Alcotest.(check bool) "tasks positive" true (stats.Convert.tasks > 0);
      Alcotest.(check bool) "fills nonneg" true (stats.Convert.fills >= 0))

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel conversion equals sequential (random)" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 1 6))
    (fun (seed, threads) ->
       let n = 7 in
       let c = Test_util.random_circuit ~seed ~gates:25 n in
       let p, e = dd_of_circuit c in
       let seq = Convert.sequential p ~n e in
       Pool.with_pool threads (fun pool ->
           let par = Convert.parallel_ p ~pool ~n e in
           Buf.max_abs_diff seq par < 1e-12))

let suite =
  [ ( "convert",
      [ Alcotest.test_case "sequential matches statevec" `Quick
          test_sequential_matches_statevec;
        Alcotest.test_case "parallel matches sequential (families)" `Quick
          test_parallel_matches_sequential_families;
        Alcotest.test_case "thread count sweep" `Quick test_parallel_thread_counts;
        Alcotest.test_case "scalar-multiplication fills" `Quick test_fills_exercised;
        Alcotest.test_case "fills carry phases" `Quick test_fills_with_phases;
        Alcotest.test_case "zero and basis edges" `Quick test_zero_and_basis_edges;
        Alcotest.test_case "load balancing on skewed DDs" `Quick
          test_load_balancing_skewed_dd;
        Alcotest.test_case "stats sanity" `Quick test_stats_sane;
        QCheck_alcotest.to_alcotest prop_parallel_equals_sequential ] ) ]
