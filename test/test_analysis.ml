(* Tests for state analysis (density matrices, entanglement). *)

let bell_state () =
  let st = State.zero_state 2 in
  Apply.single st Gate.h ~target:0 ~controls:[];
  Apply.single st Gate.x ~target:1 ~controls:[ 0 ];
  st

(* ------------------------------------------------------------------ *)
(* Reduced density matrices                                            *)
(* ------------------------------------------------------------------ *)

let test_rdm_product_state () =
  (* |+⟩|0⟩: qubit 0 reduces to |+⟩⟨+|. *)
  let st = State.zero_state 2 in
  Apply.single st Gate.h ~target:0 ~controls:[];
  let rho = Analysis.reduced_density_matrix st [ 0 ] in
  List.iter
    (fun (r, c) ->
       if not (Cnum.equal ~tol:1e-12 rho.(r).(c) (Cnum.of_float 0.5)) then
         Alcotest.failf "rho[%d][%d] = %s" r c (Cnum.to_string rho.(r).(c)))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_rdm_bell () =
  (* Bell pair: each half is maximally mixed. *)
  let st = bell_state () in
  let rho = Analysis.reduced_density_matrix st [ 0 ] in
  Alcotest.(check (float 1e-12)) "diag 0" 0.5 rho.(0).(0).Cnum.re;
  Alcotest.(check (float 1e-12)) "diag 1" 0.5 rho.(1).(1).Cnum.re;
  Alcotest.(check (float 1e-12)) "offdiag" 0.0 (Cnum.norm rho.(0).(1))

let test_rdm_trace_one () =
  let st = State.of_buf 5 (Test_util.random_state ~seed:3 5) in
  let rho = Analysis.reduced_density_matrix st [ 1; 3 ] in
  let tr = ref Cnum.zero in
  for i = 0 to 3 do
    tr := Cnum.add !tr rho.(i).(i)
  done;
  Alcotest.(check (float 1e-9)) "trace 1" 1.0 !tr.Cnum.re;
  Alcotest.(check (float 1e-9)) "trace imag 0" 0.0 !tr.Cnum.im;
  (* Hermiticity. *)
  for r = 0 to 3 do
    for c = 0 to 3 do
      if not (Cnum.equal ~tol:1e-12 rho.(r).(c) (Cnum.conj rho.(c).(r))) then
        Alcotest.fail "not hermitian"
    done
  done

let test_rdm_validation () =
  let st = State.zero_state 3 in
  Alcotest.(check bool) "duplicate" true
    (try ignore (Analysis.reduced_density_matrix st [ 0; 0 ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "range" true
    (try ignore (Analysis.reduced_density_matrix st [ 5 ]); false
     with Invalid_argument _ -> true)

let test_purity () =
  let st = bell_state () in
  Alcotest.(check (float 1e-12)) "bell half purity" 0.5
    (Analysis.purity (Analysis.reduced_density_matrix st [ 0 ]));
  Alcotest.(check (float 1e-12)) "whole state pure" 1.0
    (Analysis.purity (Analysis.reduced_density_matrix st [ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* Eigenvalues and entropy                                             *)
(* ------------------------------------------------------------------ *)

let test_hermitian_eigenvalues_known () =
  (* Pauli X: eigenvalues ±1. *)
  let eig = Analysis.hermitian_eigenvalues Gate.x in
  Alcotest.(check (float 1e-9)) "X high" 1.0 eig.(0);
  Alcotest.(check (float 1e-9)) "X low" (-1.0) eig.(1);
  (* A complex Hermitian 2×2 with known spectrum: [[2, i],[-i, 2]]
     has eigenvalues 3 and 1. *)
  let m = [| [| Cnum.of_float 2.0; Cnum.i |]; [| Cnum.neg Cnum.i; Cnum.of_float 2.0 |] |] in
  let eig = Analysis.hermitian_eigenvalues m in
  Alcotest.(check (float 1e-9)) "3" 3.0 eig.(0);
  Alcotest.(check (float 1e-9)) "1" 1.0 eig.(1)

let test_hermitian_eigenvalues_random () =
  (* Eigenvalues of ρ: nonnegative (within tolerance) and summing to 1. *)
  let st = State.of_buf 6 (Test_util.random_state ~seed:9 6) in
  let rho = Analysis.reduced_density_matrix st [ 0; 2; 4 ] in
  let eig = Analysis.hermitian_eigenvalues rho in
  let sum = Array.fold_left ( +. ) 0.0 eig in
  Alcotest.(check (float 1e-8)) "sum 1" 1.0 sum;
  Array.iter (fun l -> if l < -1e-9 then Alcotest.failf "negative eigenvalue %g" l) eig;
  (* Purity cross-check: Tr ρ² = Σ λ². *)
  let p1 = Analysis.purity rho in
  let p2 = Array.fold_left (fun acc l -> acc +. (l *. l)) 0.0 eig in
  Alcotest.(check (float 1e-8)) "purity consistency" p1 p2

let test_entropy_known_states () =
  (* Product state: 0 bits; Bell: 1 bit; GHZ-n across any cut: 1 bit. *)
  let prod = State.zero_state 4 in
  Apply.single prod Gate.h ~target:2 ~controls:[];
  Alcotest.(check (float 1e-9)) "product" 0.0
    (Analysis.entanglement_entropy prod [ 0; 1 ]);
  Alcotest.(check (float 1e-9)) "bell" 1.0
    (Analysis.entanglement_entropy (bell_state ()) [ 0 ]);
  let ghz = Apply.run (Ghz.circuit 6) in
  Alcotest.(check (float 1e-9)) "ghz half" 1.0
    (Analysis.entanglement_entropy ghz [ 0; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "ghz single" 1.0
    (Analysis.entanglement_entropy ghz [ 4 ])

let test_entropy_bounds () =
  let st = State.of_buf 6 (Test_util.random_state ~seed:21 6) in
  let s = Analysis.entanglement_entropy st [ 0; 1; 2 ] in
  Alcotest.(check bool) "0 <= S <= 3 bits" true (s >= 0.0 && s <= 3.0 +. 1e-9);
  (* Deep random circuits approach near-maximal entanglement. *)
  let deep = Apply.run (Test_util.random_circuit ~seed:22 ~gates:200 6) in
  let s_deep = Analysis.entanglement_entropy deep [ 0; 1; 2 ] in
  Alcotest.(check bool) (Printf.sprintf "deep circuit entangles (%f)" s_deep) true
    (s_deep > 1.5)

let test_schmidt_matches_dd_width () =
  (* The Schmidt rank across {0..k-1}|{k..n-1} lower-bounds the DD width:
     for GHZ it is 2, for a product state 1. *)
  let ghz = Apply.run (Ghz.circuit 6) in
  let coeffs = Analysis.schmidt_coefficients ghz 3 in
  let rank = Array.fold_left (fun acc l -> if l > 1e-9 then acc + 1 else acc) 0 coeffs in
  Alcotest.(check int) "ghz schmidt rank" 2 rank;
  let prod = State.zero_state 6 in
  let coeffs = Analysis.schmidt_coefficients prod 3 in
  let rank = Array.fold_left (fun acc l -> if l > 1e-9 then acc + 1 else acc) 0 coeffs in
  Alcotest.(check int) "product schmidt rank" 1 rank

let test_bloch_vector () =
  let plus = State.zero_state 1 in
  Apply.single plus Gate.h ~target:0 ~controls:[];
  let x, y, z = Analysis.pauli_expectations plus 0 in
  Alcotest.(check (float 1e-9)) "+x" 1.0 x;
  Alcotest.(check (float 1e-9)) "y 0" 0.0 y;
  Alcotest.(check (float 1e-9)) "z 0" 0.0 z

let suite =
  [ ( "analysis",
      [ Alcotest.test_case "rdm of product state" `Quick test_rdm_product_state;
        Alcotest.test_case "rdm of bell pair" `Quick test_rdm_bell;
        Alcotest.test_case "rdm trace and hermiticity" `Quick test_rdm_trace_one;
        Alcotest.test_case "rdm validation" `Quick test_rdm_validation;
        Alcotest.test_case "purity" `Quick test_purity;
        Alcotest.test_case "hermitian eigenvalues (known)" `Quick
          test_hermitian_eigenvalues_known;
        Alcotest.test_case "hermitian eigenvalues (density)" `Quick
          test_hermitian_eigenvalues_random;
        Alcotest.test_case "entropy of known states" `Quick test_entropy_known_states;
        Alcotest.test_case "entropy bounds" `Quick test_entropy_bounds;
        Alcotest.test_case "schmidt rank" `Quick test_schmidt_matches_dd_width;
        Alcotest.test_case "bloch vector" `Quick test_bloch_vector ] ) ]
