(* Random-circuit sampling in the style of the quantum-supremacy
   experiments: simulate a random 2-D circuit, draw bitstrings, and check
   that the output probabilities follow the Porter–Thomas distribution
   (the statistical signature such experiments test for). Also
   cross-validates the three engines on the same circuit.

     dune exec examples/supremacy_sampling.exe *)

let () =
  let n = 14 in
  let c = Supremacy.circuit ~seed:5 ~cycles:12 n in
  Printf.printf "supremacy-style circuit: %d qubits, %d gates\n" n (Circuit.num_gates c);

  (* FlatDD vs the two baselines on identical input. *)
  let cfg = { Config.default with Config.threads = 4 } in
  let r, t_flat = Timer.time (fun () -> Driver.run cfg c) in
  let flat = Driver.amplitudes r in
  let st_arr, t_arr = Timer.time (fun () -> Apply.run c) in
  Printf.printf "flatdd: %.3f s   array engine: %.3f s   (max amplitude diff %.2e)\n"
    t_flat t_arr (Buf.max_abs_diff flat st_arr.State.amps);

  (* Porter–Thomas check: for Haar-random states, P(N·p > x) ≈ e^{-x};
     equivalently the mean of (N·p)² is ≈ 2. *)
  let dim = 1 lsl n in
  let sum_sq = ref 0.0 in
  for i = 0 to dim - 1 do
    let np = float_of_int dim *. Cnum.norm2 (Buf.get flat i) in
    sum_sq := !sum_sq +. (np *. np)
  done;
  let m2 = !sum_sq /. float_of_int dim in
  Printf.printf "Porter-Thomas second moment: %.3f (ideal 2.000)\n" m2;

  (* Linear cross-entropy benchmark of our own samples: ideal sampling of
     the true distribution gives XEB ≈ 1. *)
  let st = State.of_buf n flat in
  let sampler = State.Sampler.create st in
  let rng = Rng.create 99 in
  let shots = 4000 in
  let acc = ref 0.0 in
  for _ = 1 to shots do
    let b = State.Sampler.sample sampler rng in
    acc := !acc +. (float_of_int dim *. State.probability st b)
  done;
  let xeb = (!acc /. float_of_int shots) -. 1.0 in
  Printf.printf "linear XEB over %d shots: %.3f (ideal ~1, uniform sampler ~0)\n"
    shots xeb
