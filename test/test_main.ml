(* Aggregates every module's suite into one alcotest binary:
   `dune runtest` runs them all. *)

let () =
  Alcotest.run "flatdd"
    (List.concat
       [ Test_bits.suite;
         Test_rng.suite;
         Test_stats.suite;
         Test_pool.suite;
         Test_cnum.suite;
         Test_ctable.suite;
         Test_buf.suite;
         Test_gates.suite;
         Test_circuit.suite;
         Test_qasm.suite;
         Test_generators.suite;
         Test_statevec.suite;
         Test_dd.suite;
         Test_convert.suite;
         Test_dmav.suite;
         Test_fusion.suite;
         Test_ewma.suite;
         Test_engine.suite;
         Test_flatdd.suite;
         Test_extras.suite;
         Test_cross_engine.suite;
         Test_differential.suite;
         Test_obs.suite;
         Test_sched.suite;
         Test_manifest.suite;
         Test_serve.suite;
         Test_order.suite;
         Test_precision.suite;
         Test_kernels.suite ])
