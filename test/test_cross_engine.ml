(* Cross-engine differential tests: the DD engine, both array kernels
   (Qpp_kernel among them) and the FlatDD hybrid must agree on every
   circuit family, at degenerate dimensions (1-2 qubits, more threads than
   amplitudes), on a deep narrow circuit and under FLATDD_CHECK. Random
   configurations are test_oracle.ml's. *)

let engines_agree ?(tol = 1e-9) name (c : Circuit.t) =
  let dd_amps = Driver.amplitudes (Test_util.run_dd c) in
  let fast = Apply.run c in
  let generic = Qpp_kernel.run c in
  let flat =
    Driver.amplitudes
      (Driver.run { Config.default with Config.threads = 3 } c)
  in
  Test_util.check_close ~tol (name ^ ": dd vs fast") dd_amps fast.State.amps;
  Test_util.check_close ~tol (name ^ ": generic vs fast") generic.State.amps
    fast.State.amps;
  Test_util.check_close ~tol (name ^ ": flatdd vs fast") flat fast.State.amps

let test_all_families_small () =
  List.iter
    (fun fam ->
       let n =
         match fam with
         | Suite.Knn | Suite.Swap_test -> 7
         | Suite.Adder -> 8
         | _ -> 6
       in
       let c = Suite.generate ~seed:3 fam ~n in
       engines_agree (Suite.family_name fam) c)
    Suite.all_families

let test_one_qubit () =
  let b = Circuit.Builder.create 1 in
  Circuit.Builder.h b 0;
  Circuit.Builder.t b 0;
  Circuit.Builder.sx b 0;
  Circuit.Builder.rz b 0.37 0;
  engines_agree "one qubit" (Circuit.Builder.finish b)

let test_two_qubits () =
  let b = Circuit.Builder.create 2 in
  Circuit.Builder.h b 0;
  Circuit.Builder.cx b ~control:0 ~target:1;
  Circuit.Builder.iswap b 0 1;
  Circuit.Builder.fsim b ~theta:0.5 ~phi:0.25 1 0;
  engines_agree "two qubits" (Circuit.Builder.finish b)

let test_more_threads_than_amplitudes () =
  (* t is clamped to 2^n; with n = 2 and a 16-worker pool the border level
     degenerates to the terminal. *)
  let b = Circuit.Builder.create 2 in
  Circuit.Builder.h b 0;
  Circuit.Builder.h b 1;
  Circuit.Builder.cp b 0.7 ~control:0 ~target:1;
  let c = Circuit.Builder.finish b in
  let expect = Apply.run c in
  Pool.with_pool 16 (fun pool ->
      let cfg =
        { Config.default with
          Config.threads = 16;
          policy = Config.Convert_at (-1) }
      in
      let r = Driver.run ~pool cfg c in
      Test_util.check_close ~tol:1e-12 "16 threads on 4 amplitudes"
        (Driver.amplitudes r) expect.State.amps)

let test_deep_narrow () =
  (* Many gates on few qubits: exercises cache reuse and compaction under
     churn. *)
  let c = Test_util.random_circuit ~seed:5 ~gates:400 3 in
  engines_agree "deep narrow" c

let test_check_mode_differential_sweep () =
  (* A reduced version of the CI check-smoke sweep: run the hybrid across
     random circuits under FLATDD_CHECK semantics (abort mode) and assert
     the checker stayed silent — every chunk claim disjoint, no re-entrant
     admission — while the results still match the dense reference. *)
  Check.set_mode Check.Abort;
  Fun.protect
    ~finally:(fun () ->
        Check.set_mode Check.Off;
        Check.reset ())
    (fun () ->
       for seed = 1 to 8 do
         let c = Test_util.random_circuit ~seed ~gates:25 5 in
         let fast = Apply.run c in
         let cfg =
           { Config.default with
             Config.threads = 3;
             policy = Config.Convert_at 5 }
         in
         let flat = Driver.amplitudes (Driver.run cfg c) in
         Test_util.check_close ~tol:1e-9
           (Printf.sprintf "seed %d under check mode" seed)
           flat fast.State.amps
       done;
       Alcotest.(check int) "no races across the sweep" 0 (Check.races ());
       Alcotest.(check int) "no re-entrant admissions" 0 (Check.reentries ());
       Alcotest.(check bool) "the checker actually ran" true (Check.claims () > 0))

let suite =
  [ ( "cross-engine",
      [ Alcotest.test_case "all families agree" `Quick test_all_families_small;
        Alcotest.test_case "one qubit" `Quick test_one_qubit;
        Alcotest.test_case "two qubits" `Quick test_two_qubits;
        Alcotest.test_case "more threads than amplitudes" `Quick
          test_more_threads_than_amplitudes;
        Alcotest.test_case "deep narrow circuit" `Quick test_deep_narrow;
        Alcotest.test_case "differential sweep under FLATDD_CHECK" `Quick
          test_check_mode_differential_sweep ] ) ]
