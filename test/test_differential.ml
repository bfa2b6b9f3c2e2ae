(* Differential sweep: many seeded random circuits pushed through the three
   independent engines — pure DD simulation, the hybrid forced into its DMAV
   phase from gate zero, and the dense statevector kernel — must agree
   amplitude-for-amplitude to 1e-10. The engines share almost no code past
   the gate matrices, so agreement at that tolerance across a wide seed
   sweep is strong evidence against kernel-level index or phase bugs.

   A second sweep checks that DMAV-aware fusion is semantics-preserving:
   the fused and unfused hybrid runs must agree on the same circuits.

   A third sweep turns the qubit-order layer on: under static scoring and
   dynamic sifting alike, every engine and DD domain count must still
   report the same logical amplitudes as the dense reference — the
   physical order is an internal detail that must never leak into
   results. *)

let tol = 1e-10

let seeds = List.init 50 (fun i -> i + 1)

(* Cycle the width with the seed so the sweep covers the degenerate small
   dimensions as well as states wide enough for multi-level DD splits. *)
let qubits_for seed = 3 + (seed mod 4)

let circuit_for seed =
  Test_util.random_circuit ~seed ~gates:30 (qubits_for seed)

let forced_dmav = { Config.default with Config.threads = 2; policy = Config.Convert_at (-1) }

let test_three_engine_sweep () =
  List.iter
    (fun seed ->
       let n = qubits_for seed in
       let c = circuit_for seed in
       let dense = (Apply.run c).State.amps in
       let dd = Driver.amplitudes (Test_util.run_dd c) in
       let dmav = Driver.amplitudes (Driver.run forced_dmav c) in
       Test_util.check_close ~tol
         (Printf.sprintf "seed %d (n=%d): dd vs dense" seed n)
         dd dense;
       Test_util.check_close ~tol
         (Printf.sprintf "seed %d (n=%d): forced dmav vs dense" seed n)
         dmav dense;
       Test_util.check_close ~tol
         (Printf.sprintf "seed %d (n=%d): dd vs forced dmav" seed n)
         dd dmav)
    seeds

let test_hybrid_policy_sweep () =
  (* The adaptive policy must land on the same state as the dense engine no
     matter where (or whether) it converts. *)
  List.iter
    (fun seed ->
       let c = circuit_for seed in
       let dense = (Apply.run c).State.amps in
       let hybrid =
         Driver.amplitudes
           (Driver.run { Config.default with Config.threads = 2 } c)
       in
       Test_util.check_close ~tol
         (Printf.sprintf "seed %d: ewma hybrid vs dense" seed)
         hybrid dense)
    seeds

let test_fusion_agrees_with_unfused () =
  List.iter
    (fun seed ->
       let c = circuit_for seed in
       let plain = Driver.amplitudes (Driver.run forced_dmav c) in
       List.iter
         (fun (label, fusion) ->
            let fused =
              Driver.amplitudes
                (Driver.run { forced_dmav with Config.fusion } c)
            in
            Test_util.check_close ~tol
              (Printf.sprintf "seed %d: %s fusion vs unfused" seed label)
              fused plain)
         [ ("dmav-aware", Config.Dmav_aware); ("k=3", Config.K_operations 3) ])
    (List.filteri (fun i _ -> i mod 3 = 0) seeds)

let test_order_sweep () =
  (* For every seed and both non-trivial order modes: the EWMA hybrid,
     the pure-DD path (order-aware extraction), and
     the forced-DMAV path (buffers logicalized before conversion results
     surface) all match the dense reference in the logical basis. *)
  List.iter
    (fun seed ->
       let n = qubits_for seed in
       let c = circuit_for seed in
       let dense = (Apply.run c).State.amps in
       List.iter
         (fun order ->
            let name = Config.order_name order in
            Test_util.check_close ~tol
              (Printf.sprintf "seed %d (n=%d): %s ewma vs dense" seed n name)
              (Driver.amplitudes
                 (Driver.run { Config.default with Config.threads = 2; order } c))
              dense;
            Test_util.check_close ~tol
              (Printf.sprintf "seed %d (n=%d): %s pure-dd vs dense" seed n name)
              (Driver.amplitudes
                 (Driver.run
                    { Config.default with Config.policy = Config.Never_convert; order }
                    c))
              dense;
            Test_util.check_close ~tol
              (Printf.sprintf "seed %d (n=%d): %s forced dmav vs dense" seed n name)
              (Driver.amplitudes (Driver.run { forced_dmav with Config.order } c))
              dense)
         [ Config.Static_order; Config.Sift_order ])
    seeds

let suite =
  [ ( "differential",
      [ Alcotest.test_case "50-seed three-engine sweep" `Quick test_three_engine_sweep;
        Alcotest.test_case "50-seed adaptive hybrid sweep" `Quick
          test_hybrid_policy_sweep;
        Alcotest.test_case "fusion is semantics-preserving" `Quick
          test_fusion_agrees_with_unfused;
        Alcotest.test_case "50-seed qubit-order sweep" `Quick test_order_sweep ] ) ]
