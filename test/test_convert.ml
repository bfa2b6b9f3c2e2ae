(* Both converters run one C walk ([Storage.convert]); every case here
   pins its output bit for bit against the OCaml walks it replaced
   ([Kernel_ref.to_buf] for the sequential one, [Kernel_ref.convert] for
   the parallel one with its fills) at pools of 1, 2 and 3, and checks
   the conversion against the dense reference or the sequential one. *)

let dd_of_circuit c =
  Test_util.dd_state (Test_util.run_dd c)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let exact msg (want : Buf.t) (got : Buf.t) =
  if Buf.length want <> Buf.length got then Alcotest.failf "%s: lengths differ" msg;
  for i = 0 to Buf.length want - 1 do
    if not (same_bits (Buf.get_re want i) (Buf.get_re got i)
            && same_bits (Buf.get_im want i) (Buf.get_im got i))
    then
      Alcotest.failf "%s: amplitude %d is (%h, %h), reference (%h, %h)" msg i
        (Buf.get_re got i) (Buf.get_im got i) (Buf.get_re want i) (Buf.get_im want i)
  done

(* The sequential conversion and the parallel one at pools 1-3, each
   against its reference walk; returns the sequential buffer. *)
let check_bits msg p ~n e =
  let seq = Convert.sequential p ~n e in
  exact (msg ^ ", sequential") (Kernel_ref.to_buf p n e) seq;
  List.iter
    (fun threads ->
       Pool.with_pool threads (fun pool ->
           exact
             (Printf.sprintf "%s, parallel on %d" msg threads)
             (Kernel_ref.convert p ~pool ~n e)
             (fst (Convert.parallel p ~pool ~n e))))
    [ 1; 2; 3 ];
  seq

let test_sequential_matches_statevec () =
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let p, e = dd_of_circuit c in
       let buf = check_bits (Printf.sprintf "seed %d" seed) p ~n e in
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
           let seq = check_bits c.Circuit.name p ~n e in
           let par = fst (Convert.parallel p ~pool ~n e) in
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
           let par = fst (Convert.parallel p ~pool ~n e) in
           exact (Printf.sprintf "%d threads = reference" threads)
             (Kernel_ref.convert p ~pool ~n e) par;
           Test_util.check_close ~tol:1e-12
             (Printf.sprintf "%d threads" threads) seq par))
    [ 1; 2; 3; 4; 8 ]

(* H, then a phase, on every qubit: every node has identical children. *)
let hadamard_phases ?(phases = true) n =
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Circuit.Builder.h b q;
    if phases then Circuit.Builder.phase b (Float.pi /. float_of_int (q + 1)) q
  done;
  Circuit.Builder.finish b

let test_fills_exercised () =
  (* H^⊗n: every node has identical children, so the scalar-multiplication
     optimization must fire and fill most of the array. *)
  let n = 10 in
  let p, e = dd_of_circuit (hadamard_phases ~phases:false n) in
  ignore (check_bits "uniform" p ~n e);
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
  let p, e = dd_of_circuit (hadamard_phases n) in
  let seq = check_bits "phases" p ~n e in
  Pool.with_pool 4 (fun pool ->
      let par, stats = Convert.parallel p ~pool ~n e in
      Alcotest.(check bool) "fills occurred" true (stats.Convert.fills > 0);
      Test_util.check_close ~tol:1e-12 "phases preserved" seq par)

let test_zero_and_basis_edges () =
  let p = Dd.create () in
  Pool.with_pool 2 (fun pool ->
      let buf = fst @@ Convert.parallel p ~pool ~n:5 Dd.vzero in
      Alcotest.(check (float 0.0)) "zero edge converts to zero vector" 0.0 (Buf.norm2 buf);
      ignore (check_bits "zero edge" p ~n:5 Dd.vzero);
      let basis = Vec_dd.basis_state p 5 19 in
      let buf = fst @@ Convert.parallel p ~pool ~n:5 basis in
      Alcotest.(check (float 1e-12)) "basis state" 1.0 (Cnum.norm2 (Buf.get buf 19));
      Alcotest.(check (float 1e-12)) "nothing else" 1.0 (Buf.norm2 buf);
      List.iter
        (fun i -> ignore (check_bits (Printf.sprintf "basis %d" i) p ~n:5 (Vec_dd.basis_state p 5 i)))
        [ 0; 1; 19; 31 ];
      let scaled = Dd.vscale p basis (Cnum.make (-0.0) (-0.5)) in
      ignore (check_bits "scaled basis, signed-zero weight" p ~n:5 scaled);
      ignore (check_bits "one qubit" p ~n:1 (Vec_dd.basis_state p 1 1)))

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
  let seq = check_bits "skewed" p ~n e in
  Pool.with_pool 8 (fun pool ->
      let par, stats = Convert.parallel p ~pool ~n e in
      Test_util.check_close ~tol:1e-12 "skewed DD" seq par;
      Alcotest.(check bool) "split produced parallel tasks" true
        (stats.Convert.tasks > 1))

(* A state whose top [k] qubits are entangled by random rotations and a
   CNOT ladder and whose others are uniform: at n = 19 the split of a
   size-1 pool spends its budget above level 15 and goes on below it. *)
let entangled_top ~k n =
  let b = Circuit.Builder.create ~name:(Printf.sprintf "top-%d-of-%d" k n) n in
  let rng = Rng.create 11 in
  for q = n - k to n - 1 do
    Circuit.Builder.u3 b (Rng.angle rng) (Rng.angle rng) (Rng.angle rng) q
  done;
  for q = n - k to n - 2 do
    Circuit.Builder.cx b ~control:q ~target:(q + 1)
  done;
  for q = 0 to n - k - 1 do
    Circuit.Builder.h b q
  done;
  Circuit.Builder.finish b

(* No task's walk covers more than 2^16 amplitudes: the split goes on
   below the task budget where it must, and the bytes stay the
   reference's, whose split stops at the budget. *)
let test_deep_split () =
  let n = 19 in
  List.iter
    (fun c ->
       let p, e = dd_of_circuit c in
       ignore (check_bits c.Circuit.name p ~n e);
       Pool.with_pool 1 (fun pool ->
           let _, stats = Convert.parallel p ~pool ~n e in
           if stats.Convert.tasks <= 4 then
             Alcotest.failf "%s: %d tasks on one thread, the budget's 4" c.Circuit.name
               stats.Convert.tasks))
    [ entangled_top ~k:5 n; entangled_top ~k:n n ]

(* The walk allocates nothing per amplitude: a conversion at n = 14 on a
   size-1 pool (everything inline, so every word is seen) costs its
   tasks, fills and buffer header, under 2^14/16 minor words, where the
   OCaml walk it replaced took about 16 per amplitude. *)
let test_allocation () =
  let n = 14 in
  let p, e = dd_of_circuit (Supremacy.circuit ~cycles:8 n) in
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let budget = float_of_int ((1 lsl n) / 16) in
  Pool.with_pool 1 (fun pool ->
      let par = words (fun () -> Convert.parallel p ~pool ~n e) in
      let seq = words (fun () -> Convert.sequential p ~n e) in
      if par >= budget then Alcotest.failf "parallel conversion: %.0f minor words at n = %d" par n;
      if seq >= budget then Alcotest.failf "sequential conversion: %.0f minor words at n = %d" seq n)

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
           let par = fst (Convert.parallel p ~pool ~n e) in
           exact "random" (Kernel_ref.convert p ~pool ~n e) par;
           exact "random, sequential" (Kernel_ref.to_buf p n e) seq;
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
        Alcotest.test_case "tasks split past 2^16 amplitudes (bits)" `Quick test_deep_split;
        Alcotest.test_case "conversion allocates O(tasks), not O(2^n)" `Quick test_allocation;
        Alcotest.test_case "stats sanity" `Quick test_stats_sane;
        QCheck_alcotest.to_alcotest prop_parallel_equals_sequential ] ) ]
