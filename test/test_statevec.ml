let rng = Rng.create 404

let test_zero_state () =
  let st = State.zero_state 4 in
  Alcotest.(check (float 0.0)) "P(0)" 1.0 (State.probability st 0);
  Alcotest.(check (float 0.0)) "norm" 1.0 (State.norm2 st);
  Alcotest.(check int) "dim" 16 (State.dim st)

let test_single_gate_hand_computed () =
  (* H on qubit 1 of |00>: (|00> + |10>)/sqrt2 with qubit 1 the high bit. *)
  let st = State.zero_state 2 in
  Apply.single st Gate.h ~target:1 ~controls:[];
  Alcotest.(check (float 1e-12)) "amp 0" (1.0 /. sqrt 2.0) (State.amplitude st 0).Cnum.re;
  Alcotest.(check (float 1e-12)) "amp 2" (1.0 /. sqrt 2.0) (State.amplitude st 2).Cnum.re;
  Alcotest.(check (float 1e-12)) "amp 1" 0.0 (Cnum.norm (State.amplitude st 1));
  (* X on qubit 0. *)
  let st2 = State.zero_state 2 in
  Apply.single st2 Gate.x ~target:0 ~controls:[];
  Alcotest.(check (float 0.0)) "bit flip" 1.0 (State.probability st2 1)

let test_controlled_gate () =
  (* CX with control 0: |01> -> |11>, |00> unchanged. *)
  let st = State.basis_state 2 1 in
  Apply.single st Gate.x ~target:1 ~controls:[ 0 ];
  Alcotest.(check (float 0.0)) "controlled fires" 1.0 (State.probability st 3);
  let st2 = State.basis_state 2 0 in
  Apply.single st2 Gate.x ~target:1 ~controls:[ 0 ];
  Alcotest.(check (float 0.0)) "control blocks" 1.0 (State.probability st2 0)

let test_multi_controlled () =
  (* CCX fires only on |11x>. *)
  for basis = 0 to 7 do
    let st = State.basis_state 3 basis in
    Apply.single st Gate.x ~target:2 ~controls:[ 0; 1 ];
    let expected = if basis land 3 = 3 then basis lxor 4 else basis in
    Alcotest.(check (float 0.0)) (Printf.sprintf "ccx on %d" basis) 1.0
      (State.probability st expected)
  done

let test_two_qubit_matrix () =
  (* iSWAP on |01> (q_hi=1, q_lo=0): basis 2·b1+b0; |01> means q_hi=0,q_lo=1
     -> maps to i|10>. *)
  let st = State.basis_state 2 1 in
  Apply.two st Gate.iswap ~q_hi:1 ~q_lo:0;
  let a = State.amplitude st 2 in
  Alcotest.(check (float 1e-12)) "iswap phase re" 0.0 a.Cnum.re;
  Alcotest.(check (float 1e-12)) "iswap phase im" 1.0 a.Cnum.im

let test_parallel_matches_sequential () =
  let c = Test_util.random_circuit ~seed:5 ~gates:60 8 in
  let seq = Apply.run c in
  Pool.with_pool 4 (fun pool ->
      let par = Apply.run ~pool c in
      Alcotest.(check bool) "parallel = sequential" true
        (Buf.max_abs_diff seq.State.amps par.State.amps < 1e-12))

let test_qpp_kernel_matches () =
  List.iter
    (fun seed ->
       let c = Test_util.random_circuit ~seed ~gates:50 7 in
       let fast = Apply.run c in
       let generic = Qpp_kernel.run c in
       Alcotest.(check bool)
         (Printf.sprintf "qpp kernel matches (seed %d)" seed) true
         (Buf.max_abs_diff fast.State.amps generic.State.amps < 1e-10))
    [ 1; 2; 3 ]

let test_qpp_kernel_parallel () =
  let c = Test_util.random_circuit ~seed:9 ~gates:40 8 in
  let seq = Qpp_kernel.run c in
  Pool.with_pool 3 (fun pool ->
      let par = Qpp_kernel.run ~pool c in
      Alcotest.(check bool) "qpp parallel = sequential" true
        (Buf.max_abs_diff seq.State.amps par.State.amps < 1e-12))

let test_norm_preservation () =
  let c = Test_util.random_circuit ~seed:7 ~gates:120 9 in
  let st = Apply.run c in
  Alcotest.(check (float 1e-9)) "unitary evolution preserves norm" 1.0
    (State.norm2 st)

(* ⟨Z_q1 ⋯ Z_qk⟩ as a one-term Pauli string. *)
let z st qs = State.expectation_pauli st [ (1.0, List.map (fun q -> (q, State.Z)) qs) ]

let test_expectations () =
  let st = State.zero_state 2 in
  Alcotest.(check (float 1e-12)) "<Z> on |0>" 1.0 (z st [ 0 ]);
  Apply.single st Gate.x ~target:0 ~controls:[];
  Alcotest.(check (float 1e-12)) "<Z> on |1>" (-1.0) (z st [ 0 ]);
  Alcotest.(check (float 1e-12)) "<ZZ> anti-aligned" (-1.0) (z st [ 0; 1 ]);
  let plus = State.zero_state 1 in
  Apply.single plus Gate.h ~target:0 ~controls:[];
  Alcotest.(check (float 1e-12)) "<Z> on |+>" 0.0 (z plus [ 0 ]);
  Alcotest.(check (float 1e-12)) "<X> on |+>" 1.0
    (State.expectation_pauli plus [ (1.0, [ (0, State.X) ]) ]);
  Alcotest.(check (float 1e-12)) "<Y> on |+>" 0.0
    (State.expectation_pauli plus [ (1.0, [ (0, State.Y) ]) ])

(* H Z H = X: ⟨Z_q⟩ of a state is ⟨X_q⟩ of the state with H applied to
   qubit q. *)
let test_expectation_pauli_matches_z () =
  let c = Test_util.random_circuit ~seed:11 ~gates:30 5 in
  let st = Apply.run c in
  for q = 0 to 4 do
    let rotated = State.copy st in
    Apply.single rotated Gate.h ~target:q ~controls:[];
    Alcotest.(check (float 1e-9)) (Printf.sprintf "Z_%d consistency" q)
      (State.expectation_pauli rotated [ (1.0, [ (q, State.X) ]) ])
      (State.expectation_pauli st [ (1.0, [ (q, State.Z) ]) ])
  done

let test_sampler () =
  let c = Test_util.random_circuit ~seed:13 ~gates:30 6 in
  let st = Apply.run c in
  let sampler = State.Sampler.create st in
  (* Empirical frequencies must approximate probabilities. *)
  let shots = 20000 in
  let counts = State.Sampler.counts sampler rng ~shots in
  List.iter
    (fun (basis, count) ->
       let p_emp = float_of_int count /. float_of_int shots in
       let p = State.probability st basis in
       if Float.abs (p_emp -. p) > 0.02 +. (3.0 *. sqrt (p /. float_of_int shots)) then
         Alcotest.failf "sampler bias at %d: emp %f vs %f" basis p_emp p)
    counts;
  (* Counts sum to shots. *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check int) "total" shots total

let test_most_likely () =
  let st = State.basis_state 4 9 in
  let basis, p = State.most_likely st in
  Alcotest.(check int) "basis" 9 basis;
  Alcotest.(check (float 0.0)) "prob" 1.0 p

let prop_single_qubit_unitary_preserves_norm =
  QCheck.Test.make ~name:"random u3 on random qubit preserves norm" ~count:100
    QCheck.(triple (float_range 0.0 6.3) (float_range 0.0 6.3) (int_bound 5))
    (fun (a, b, q) ->
       let c = Test_util.random_circuit ~seed:17 ~gates:10 6 in
       let st = Apply.run c in
       Apply.single st (Gate.u3 a b 0.4) ~target:q ~controls:[];
       Float.abs (State.norm2 st -. 1.0) < 1e-9)

let suite =
  [ ( "statevec",
      [ Alcotest.test_case "zero state" `Quick test_zero_state;
        Alcotest.test_case "single gate hand computed" `Quick test_single_gate_hand_computed;
        Alcotest.test_case "controlled gates" `Quick test_controlled_gate;
        Alcotest.test_case "multi-controlled" `Quick test_multi_controlled;
        Alcotest.test_case "two-qubit matrix" `Quick test_two_qubit_matrix;
        Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
        Alcotest.test_case "qpp kernel matches fast kernel" `Quick test_qpp_kernel_matches;
        Alcotest.test_case "qpp kernel parallel" `Quick test_qpp_kernel_parallel;
        Alcotest.test_case "norm preservation" `Quick test_norm_preservation;
        Alcotest.test_case "expectations" `Quick test_expectations;
        Alcotest.test_case "pauli expectation consistency" `Quick
          test_expectation_pauli_matches_z;
        Alcotest.test_case "sampler statistics" `Quick test_sampler;
        Alcotest.test_case "most likely" `Quick test_most_likely;
        QCheck_alcotest.to_alcotest prop_single_qubit_unitary_preserves_norm ] ) ]
