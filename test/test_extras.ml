(* Tests for the capabilities layered on top of the core reproduction:
   circuit utilities, equivalence checking, QASM export, and phase
   estimation. *)

(* ------------------------------------------------------------------ *)
(* Circuit utilities                                                   *)
(* ------------------------------------------------------------------ *)

let test_adjoint_inverts () =
  List.iter
    (fun seed ->
       let c = Test_util.random_circuit ~seed ~gates:25 5 in
       let round_trip = Circuit.append c (Circuit.adjoint c) in
       let st = Apply.run round_trip in
       Alcotest.(check bool) (Printf.sprintf "c·c† = id (seed %d)" seed) true
         (State.probability st 0 > 1.0 -. 1e-9))
    [ 1; 2; 3 ]

let test_depth () =
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.h b 0;
  Circuit.Builder.h b 1;       (* parallel with the first H *)
  Circuit.Builder.cx b ~control:0 ~target:1;
  Circuit.Builder.h b 2;       (* parallel with everything *)
  Circuit.Builder.cx b ~control:1 ~target:2;
  let c = Circuit.Builder.finish b in
  Alcotest.(check int) "depth" 3 (Circuit.depth c);
  Alcotest.(check int) "empty depth" 0 (Circuit.depth (Circuit.make 2 []))

let test_histogram_and_usage () =
  let c = Ghz.circuit 5 in
  let hist = Circuit.gate_histogram c in
  Alcotest.(check (list (pair string int))) "ghz histogram" [ ("cx", 4); ("h", 1) ] hist;
  let usage = Circuit.qubit_usage c in
  Alcotest.(check int) "qubit 0 usage" 2 usage.(0);
  Alcotest.(check int) "qubit 4 usage" 1 usage.(4)

(* ------------------------------------------------------------------ *)
(* Equivalence checking                                                *)
(* ------------------------------------------------------------------ *)

let test_equiv_identical () =
  let c = Test_util.random_circuit ~seed:31 ~gates:20 4 in
  Alcotest.(check bool) "c ≡ c" true (Equiv.check c c = Equiv.Equivalent)

let test_equiv_rewrites () =
  (* HH = id; swap decomposition = direct two-qubit swap. *)
  let b1 = Circuit.Builder.create 3 in
  Circuit.Builder.h b1 1;
  Circuit.Builder.h b1 1;
  let c1 = Circuit.Builder.finish b1 in
  let empty = Circuit.make 3 [] in
  Alcotest.(check bool) "HH = id" true (Equiv.check c1 empty = Equiv.Equivalent);
  let b2 = Circuit.Builder.create 3 in
  Circuit.Builder.swap b2 0 2;
  let c2 = Circuit.Builder.finish b2 in
  let c3 =
    Circuit.make 3 [ Circuit.Two { name = "swap"; matrix = Gate.swap2; q_hi = 2; q_lo = 0 } ]
  in
  Alcotest.(check bool) "swap decomposition" true (Equiv.check c2 c3 = Equiv.Equivalent)

let test_equiv_global_phase () =
  (* rz(θ) and u1(θ) differ exactly by the global phase e^{-iθ/2}. *)
  let theta = 0.7 in
  let mk g =
    Circuit.make 2 [ Circuit.Single { name = "g"; matrix = g; target = 0; controls = [] } ]
  in
  match Equiv.check (mk (Gate.rz theta)) (mk (Gate.phase theta)) with
  | Equiv.Equivalent_up_to_phase w ->
    Alcotest.(check bool) "phase value" true
      (Cnum.equal ~tol:1e-9 w (Cnum.polar 1.0 (-.theta /. 2.0)))
  | Equiv.Equivalent -> Alcotest.fail "should differ by a phase"
  | Equiv.Not_equivalent -> Alcotest.fail "should be phase-equivalent"

let test_equiv_detects_difference () =
  let c1 = Test_util.random_circuit ~seed:41 ~gates:15 4 in
  let c2 = Test_util.random_circuit ~seed:42 ~gates:15 4 in
  Alcotest.(check bool) "different circuits" true
    (Equiv.check c1 c2 = Equiv.Not_equivalent);
  (* A single dropped gate must be caught. *)
  let shorter =
    Circuit.make 4 (Array.to_list (Array.sub c1.Circuit.ops 0 14))
  in
  Alcotest.(check bool) "dropped gate caught" true
    (Equiv.check c1 shorter <> Equiv.Equivalent)

let test_equiv_fused () =
  (* Gate fusion must preserve the circuit unitary: verify through the
     checker by expressing fused matrices back... here simply compare the
     circuit against itself after appending id-pairs. *)
  let c = Test_util.random_circuit ~seed:51 ~gates:12 4 in
  let b = Circuit.Builder.create 4 in
  Circuit.Builder.x b 2;
  Circuit.Builder.x b 2;
  let padded = Circuit.append c (Circuit.Builder.finish b) in
  Alcotest.(check bool) "XX padding is identity" true
    (Equiv.check c padded = Equiv.Equivalent)

let test_equiv_width_mismatch () =
  Alcotest.(check bool) "width mismatch" true
    (try ignore (Equiv.check (Ghz.circuit 3) (Ghz.circuit 4)); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* QASM export                                                         *)
(* ------------------------------------------------------------------ *)

let test_zyz_reconstruction () =
  let rng = Rng.create 61 in
  for _ = 1 to 50 do
    let u = Gate.u3 (Rng.angle rng) (Rng.angle rng) (Rng.angle rng) in
    let alpha, theta, phi, lambda = Qasm_export.zyz u in
    let rebuilt =
      Array.map (Array.map (Cnum.mul (Cnum.polar 1.0 alpha))) (Gate.u3 theta phi lambda)
    in
    if not (Gate.equal ~tol:1e-9 u rebuilt) then
      Alcotest.failf "zyz reconstruction failed:\n%s"
        (Format.asprintf "%a" Gate.pp u)
  done

let exportable_circuit ?(seed = 1) ?(gates = 30) n =
  (* Random circuit restricted to ops the exporter guarantees. *)
  let rng = Rng.create seed in
  let b = Circuit.Builder.create n in
  for _ = 1 to gates do
    match Rng.int rng 7 with
    | 0 -> Circuit.Builder.h b (Rng.int rng n)
    | 1 ->
      Circuit.Builder.u3 b (Rng.angle rng) (Rng.angle rng) (Rng.angle rng) (Rng.int rng n)
    | 2 ->
      let c = Rng.int rng n in
      let t = (c + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.cx b ~control:c ~target:t
    | 3 ->
      let c = Rng.int rng n in
      let t = (c + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.crz b (Rng.angle rng) ~control:c ~target:t
    | 4 when n >= 3 ->
      let q = Rng.int rng (n - 2) in
      Circuit.Builder.ccx b ~c1:q ~c2:(q + 1) ~target:(q + 2)
    | 5 ->
      let q1 = Rng.int rng n in
      let q2 = (q1 + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.iswap b q1 q2
    | _ -> Circuit.Builder.rz b (Rng.angle rng) (Rng.int rng n)
  done;
  Circuit.Builder.finish b

let test_export_roundtrip () =
  List.iter
    (fun seed ->
       let c = exportable_circuit ~seed ~gates:30 5 in
       let text = Qasm_export.to_string c in
       let parsed = (Qasm.of_string text).Qasm.circuit in
       (* The reparsed circuit must implement the same unitary (global
          phase allowed: rz-style gates re-enter as u3/u1). *)
       match Equiv.check c parsed with
       | Equiv.Equivalent | Equiv.Equivalent_up_to_phase _ -> ()
       | Equiv.Not_equivalent ->
         Alcotest.failf "roundtrip broke circuit (seed %d):\n%s" seed text)
    [ 1; 2; 3; 4 ]

let test_export_named_gates () =
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.ccx b ~c1:0 ~c2:1 ~target:2;
  Circuit.Builder.cp b 0.5 ~control:0 ~target:1;
  let c = Circuit.Builder.finish b in
  let text = Qasm_export.to_string c in
  Alcotest.(check bool) "ccx spelled natively" true
    (String.length text > 0
     && (let found = ref false in
         String.iteri
           (fun i _ ->
              if i + 3 <= String.length text && String.sub text i 3 = "ccx" then
                found := true)
           text;
         !found));
  match Equiv.check c (Qasm.of_string text).Qasm.circuit with
  | Equiv.Equivalent | Equiv.Equivalent_up_to_phase _ -> ()
  | Equiv.Not_equivalent -> Alcotest.fail "named-gate roundtrip"

let test_export_unsupported () =
  let c = Grover.circuit ~iterations:1 5 in
  Alcotest.(check bool) "multi-controlled rejected with clear error" true
    (try ignore (Qasm_export.to_string c); false with Qasm_export.Unsupported _ -> true)

(* ------------------------------------------------------------------ *)
(* Remap                                                               *)
(* ------------------------------------------------------------------ *)

let test_remap_embedding () =
  (* A GHZ on 3 qubits embedded into qubits {1, 3, 4} of a 6-qubit
     register must entangle exactly those wires. *)
  let small = Ghz.circuit 3 in
  let big = Circuit.remap small ~n:6 [| 1; 3; 4 |] in
  Alcotest.(check int) "width" 6 big.Circuit.n;
  let st = Apply.run big in
  let expect_hi = Bits.all_masks [ 1; 3; 4 ] in
  Alcotest.(check (float 1e-12)) "P(0)" 0.5 (State.probability st 0);
  Alcotest.(check (float 1e-12)) "P(embedded 111)" 0.5 (State.probability st expect_hi)

let test_remap_validation () =
  let c = Ghz.circuit 3 in
  Alcotest.(check bool) "non-injective rejected" true
    (try ignore (Circuit.remap c ~n:6 [| 1; 1; 2 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range rejected" true
    (try ignore (Circuit.remap c ~n:4 [| 1; 2; 4 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong width rejected" true
    (try ignore (Circuit.remap c ~n:6 [| 1; 2 |]); false
     with Invalid_argument _ -> true)

let test_remap_identity_permutation () =
  let c = Test_util.random_circuit ~seed:71 ~gates:20 4 in
  let same = Circuit.remap c ~n:4 [| 0; 1; 2; 3 |] in
  Alcotest.(check bool) "identity remap is equivalent" true
    (Equiv.check c same = Equiv.Equivalent)

(* ------------------------------------------------------------------ *)
(* Phase estimation                                                    *)
(* ------------------------------------------------------------------ *)

let test_qpe_exact_phase () =
  (* φ = k/2^bits is represented exactly: the estimate is certain. *)
  let bits = 4 in
  let phi = 5.0 /. 16.0 in
  let c = Qpe.circuit ~bits phi in
  let st = Apply.run c in
  let est = Qpe.expected_estimate ~bits phi in
  Alcotest.(check int) "expected estimate" 5 est;
  let p = ref 0.0 in
  for eigen_bit = 0 to 1 do
    p := !p +. State.probability st ((eigen_bit lsl bits) lor est)
  done;
  Alcotest.(check (float 1e-9)) "certain estimate" 1.0 !p

let test_qpe_inexact_phase () =
  (* A generic φ peaks at the nearest fraction with probability > 4/π². *)
  let bits = 5 in
  let phi = 0.3183 in
  let c = Qpe.circuit ~bits phi in
  let st = Apply.run c in
  let est = Qpe.expected_estimate ~bits phi in
  let p = ref 0.0 in
  for eigen_bit = 0 to 1 do
    p := !p +. State.probability st ((eigen_bit lsl bits) lor est)
  done;
  Alcotest.(check bool) (Printf.sprintf "peak at %d (p=%f)" est !p) true (!p > 0.4)

let test_qpe_through_flatdd () =
  let bits = 6 in
  let phi = 0.7071 in
  let c = Qpe.circuit ~bits phi in
  let cfg = { Config.default with Config.threads = 2 } in
  let r = Driver.run cfg c in
  let expect = Apply.run c in
  Test_util.check_close ~tol:1e-9 "qpe flatdd = statevec"
    (Driver.amplitudes r) expect.State.amps

let suite =
  [ ( "extras",
      [ Alcotest.test_case "adjoint inverts" `Quick test_adjoint_inverts;
        Alcotest.test_case "depth" `Quick test_depth;
        Alcotest.test_case "histogram and usage" `Quick test_histogram_and_usage;
        Alcotest.test_case "equiv: identical" `Quick test_equiv_identical;
        Alcotest.test_case "equiv: rewrites" `Quick test_equiv_rewrites;
        Alcotest.test_case "equiv: global phase" `Quick test_equiv_global_phase;
        Alcotest.test_case "equiv: detects difference" `Quick test_equiv_detects_difference;
        Alcotest.test_case "equiv: identity padding" `Quick test_equiv_fused;
        Alcotest.test_case "equiv: width mismatch" `Quick test_equiv_width_mismatch;
        Alcotest.test_case "zyz reconstruction" `Quick test_zyz_reconstruction;
        Alcotest.test_case "QASM export roundtrip" `Quick test_export_roundtrip;
        Alcotest.test_case "QASM export named gates" `Quick test_export_named_gates;
        Alcotest.test_case "QASM export unsupported" `Quick test_export_unsupported;
        Alcotest.test_case "remap embedding" `Quick test_remap_embedding;
        Alcotest.test_case "remap validation" `Quick test_remap_validation;
        Alcotest.test_case "remap identity" `Quick test_remap_identity_permutation;
        Alcotest.test_case "QPE exact phase" `Quick test_qpe_exact_phase;
        Alcotest.test_case "QPE inexact phase" `Quick test_qpe_inexact_phase;
        Alcotest.test_case "QPE through FlatDD" `Quick test_qpe_through_flatdd ] ) ]
