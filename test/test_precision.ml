(* The PR-10 precision layer.

   Three claims, each tested where it can actually fail:

   - the f64 entry points ([Apply], [Dmav]) produce the bits of the
     precision-generic functor kernels at F64 (the C stubs behind both
     are pinned against the OCaml reference in test_kernels);
   - the f32 amplitude plane is the f64 result plus rounding, bounded by
     a documented tolerance (1e-4 at up to 13 qubits — generous: gate
     counts here keep the observed error well under 1e-5, but depth
     accumulates f32 ulps ~ 6e-8 per store);
   - the f64 hot paths allocate nothing per element (the tentpole's
     whole point): one DMAV kernel call's minor-heap footprint is a
     small constant, not O(2ⁿ). *)

module DK64 = Dense_kernel.Make (Storage.F64)
module DG64 = Dmav_generic.Make (Storage.F64)

(* Bit-level equality: Buf.t = Storage.F64.t by construction, so both
   sides expose the same interleaved bigarray. *)
let check_bits_equal name (a : Buf.t) (b : Buf.t) =
  let da = a.Buf.data and db = b.Buf.data in
  let dim = Bigarray.Array1.dim da in
  Alcotest.(check int) (name ^ ": length") dim (Bigarray.Array1.dim db);
  for i = 0 to dim - 1 do
    if Int64.bits_of_float da.{i} <> Int64.bits_of_float db.{i} then
      Alcotest.failf "%s: word %d differs (%h vs %h)" name i da.{i} db.{i}
  done

(* --- the f64 entry points are the generic kernels at F64 -------------- *)

let test_dense64_pins_apply () =
  let c = Suite.generate ~seed:3 ~gates:200 Suite.Supremacy ~n:10 in
  Pool.with_pool 2 (fun pool ->
      let st = Apply.run ~pool c in
      let amps = DK64.run ~pool c in
      check_bits_equal "Dense_kernel.Make(F64) vs Apply" st.State.amps amps)

let test_dmav64_pins_dmav () =
  let n = 9 in
  let c = Suite.generate ~seed:1 Suite.Qft ~n in
  Pool.with_pool 2 (fun pool ->
      let p = Dd.create () in
      let ws = Dmav.workspace ~n in
      let gws = DG64.workspace ~n in
      let dim = 1 lsl n in
      let v1 = ref (Buf.create dim) and w1 = ref (Buf.create dim) in
      let v2 = ref (Buf.create dim) and w2 = ref (Buf.create dim) in
      Buf.set2 !v1 0 1.0 0.0;
      Buf.set2 !v2 0 1.0 0.0;
      Array.iter
        (fun op ->
           let m = Mat_dd.of_op p ~n op in
           ignore
             (Dmav.apply ~workspace:ws p ~pool ~n m ~v:!v1 ~w:!w1);
           ignore
             (DG64.apply ~workspace:gws p ~pool ~n m ~v:!v2 ~w:!w2);
           let t = !v1 in v1 := !w1; w1 := t;
           let t = !v2 in v2 := !w2; w2 := t)
        c.Circuit.ops;
      check_bits_equal "Dmav_generic.Make(F64) vs Dmav" !v1 !v2)

(* --- f32 differential sweep ------------------------------------------- *)

(* test_oracle.ml draws f32 up to 10 qubits and ~80 gates; these cases
   run 12-13 qubits and 300-400 gates, and epsilon = 0.01. *)

let tol = 1e-4
let sweep_n = 13

(* Forced flat phase so every gate actually runs on the precision-sized
   kernels; families whose generators need a gate budget get a deep one,
   and adder drops to 12 qubits (its generator requires an even count). *)
let sweep_cases =
  [ ("ghz", None, sweep_n); ("qft", None, sweep_n); ("adder", None, 12);
    ("bv", None, sweep_n); ("grover", None, sweep_n); ("knn", None, sweep_n);
    ("swaptest", None, sweep_n); ("qpe", None, sweep_n); ("dnn", Some 300, sweep_n);
    ("vqe", Some 300, sweep_n); ("supremacy", Some 300, sweep_n) ]

let run_both ~pool cfg c =
  let r64 = Driver.run ~pool { cfg with Config.precision = Config.F64 } c in
  let r32 = Driver.run ~pool { cfg with Config.precision = Config.F32 } c in
  (r64, r32)

let test_f32_differential () =
  Pool.with_pool 2 (fun pool ->
      List.iter
        (fun (name, gates, n) ->
           let fam =
             match Suite.family_of_name name with
             | Some f -> f
             | None -> Alcotest.failf "unknown family %s" name
           in
           let c = Suite.generate ~seed:1 ?gates fam ~n in
           let cfg =
             { Config.default with
               Config.threads = 2;
               policy = Config.Convert_at (-1) }
           in
           let r64, r32 = run_both ~pool cfg c in
           let d = Buf.max_abs_diff (Driver.amplitudes r64) (Driver.amplitudes r32) in
           if d > tol then
             Alcotest.failf "%s: f32 deviates by %g (> %g)" c.Circuit.name d tol;
           (* And both are still states: f32 norm drift stays tiny. *)
           let n2 = Buf.norm2 (Driver.amplitudes r32) in
           if Float.abs (n2 -. 1.0) > 1e-3 then
             Alcotest.failf "%s: f32 norm drifted to %g" c.Circuit.name n2)
        sweep_cases)

(* The hybrid path (EWMA policy, dispatch on) through the driver: the p0
   fingerprint source must agree across precisions. *)
let test_f32_hybrid_p0 () =
  Pool.with_pool 2 (fun pool ->
      let c = Suite.generate ~seed:1 ~gates:400 Suite.Supremacy ~n:12 in
      let cfg =
        { Config.default with
          Config.threads = 2; epsilon = 0.01; dense_dispatch = true }
      in
      let r64, r32 = run_both ~pool cfg c in
      Alcotest.(check bool) "both converted" true
        (r64.Driver.converted_at <> None && r32.Driver.converted_at <> None);
      let a64 = Driver.amplitude r64 0 and a32 = Driver.amplitude r32 0 in
      if Cnum.norm (Cnum.sub a64 a32) > tol then
        Alcotest.failf "p0 differs: %s vs %s" (Cnum.to_string a64)
          (Cnum.to_string a32))

(* --- allocation discipline -------------------------------------------- *)

(* A size-1 pool runs fork-join jobs inline on the calling domain, so
   Gc.minor_words sees every word the kernel allocates. Per-element
   boxing at n = 14 would cost >= 2^14 · 4 words ≈ 65k; the real kernel
   allocates only the task assignment and the job closure — a small
   constant. *)
let test_dmav_allocation_free () =
  let n = 14 in
  Pool.with_pool 1 (fun pool ->
      let p = Dd.create () in
      let c = Suite.generate ~seed:1 Suite.Qft ~n in
      let m = Mat_dd.of_op p ~n c.Circuit.ops.(1) in
      let v = Buf.create (1 lsl n) and w = Buf.create (1 lsl n) in
      Buf.set2 v 0 1.0 0.0;
      Dmav.apply_nocache p ~pool ~n m ~v ~w;
      let before = Gc.minor_words () in
      Dmav.apply_nocache p ~pool ~n m ~v ~w;
      let delta = Gc.minor_words () -. before in
      if delta > 8192.0 then
        Alcotest.failf
          "apply_nocache allocated %.0f minor words for 2^%d amplitudes — the \
           inner loop is boxing"
          delta n)

let suite =
  [ ( "precision",
      [ Alcotest.test_case "Dense_kernel.Make(F64) = Apply (bits)" `Quick
          test_dense64_pins_apply;
        Alcotest.test_case "Dmav_generic.Make(F64) = Dmav (bits)" `Quick
          test_dmav64_pins_dmav;
        Alcotest.test_case "f32 differential sweep (all families)" `Slow
          test_f32_differential;
        Alcotest.test_case "f32 hybrid p0 agreement" `Quick test_f32_hybrid_p0;
        Alcotest.test_case "DMAV kernel allocates O(1)" `Quick
          test_dmav_allocation_free ] ) ]
