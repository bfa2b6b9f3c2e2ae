(* Applying the fused gate list must equal applying the original gates in
   order. We verify through DMAV on a random vector. *)
let apply_all pool p n mats v0 =
  let v = ref (Buf.copy v0) in
  let w = ref (Buf.create (1 lsl n)) in
  List.iter
    (fun m ->
       Dmav.apply_nocache p ~pool ~n m ~v:!v ~w:!w;
       let tmp = !v in
       v := !w;
       w := tmp)
    mats;
  !v

let circuit_mats p n c =
  Array.to_list (Array.map (fun op -> Mat_dd.of_op p ~n op) c.Circuit.ops)

let test_dmav_aware_preserves_semantics () =
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       let fused, stats = Fusion.dmav_aware p mats in
       Alcotest.(check int) "gates_in" 30 stats.Fusion.gates_in;
       Alcotest.(check int) "gates_out" (List.length fused) stats.Fusion.gates_out;
       let v0 = Test_util.random_state ~seed:(seed * 7) n in
       Pool.with_pool 2 (fun pool ->
           let direct = apply_all pool p n mats v0 in
           let via_fused = apply_all pool p n fused v0 in
           Test_util.check_close ~tol:1e-8
             (Printf.sprintf "fusion semantics (seed %d)" seed) direct via_fused))
    [ 1; 2; 3 ]

let test_dmav_aware_fuses_rotation_chains () =
  (* Consecutive rotations on one qubit are the canonical win: many gates
     must collapse into few. *)
  let n = 8 in
  let b = Circuit.Builder.create n in
  for _ = 1 to 20 do
    Circuit.Builder.rz b 0.1 3;
    Circuit.Builder.ry b 0.2 3
  done;
  let c = Circuit.Builder.finish b in
  let p = Dd.create () in
  let fused, stats = Fusion.dmav_aware p (circuit_mats p n c) in
  Alcotest.(check bool) "collapses heavily" true (List.length fused <= 3);
  Alcotest.(check bool) "cost reduced" true
    (stats.Fusion.macs_after < stats.Fusion.macs_before)

let test_dmav_aware_never_increases_cost_much () =
  (* The greedy rule only fuses when the product's priced cost is no more
     than its parts' priced costs, so the summed priced cost of the output
     can never exceed the input's. The plain Eq. 5 MAC sum carries no such
     guarantee: a product can trade stripe MACs for recursion MACs. *)
  let priced p ms = List.fold_left (fun acc m -> acc +. Cost.priced_macs p m) 0.0 ms in
  List.iter
    (fun seed ->
       let n = 7 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       let fused, _ = Fusion.dmav_aware p mats in
       Alcotest.(check bool)
         (Printf.sprintf "priced after <= priced before (seed %d)" seed) true
         (priced p fused <= priced p mats))
    [ 5; 6; 7 ]

let test_empty_and_singleton () =
  let p = Dd.create () in
  let fused, stats = Fusion.dmav_aware p [] in
  Alcotest.(check int) "empty in" 0 stats.Fusion.gates_in;
  Alcotest.(check int) "empty out" 0 (List.length fused);
  let m = Mat_dd.of_single p ~n:4 ~target:1 ~controls:[] Gate.h in
  let fused, _ = Fusion.dmav_aware p [ m ] in
  (match fused with
   | [ only ] -> Alcotest.(check bool) "singleton passthrough" true (Dd.mtgt only = Dd.mtgt m && Dd.mwid only = Dd.mwid m)
   | _ -> Alcotest.fail "expected one gate")

let test_k_operations_grouping () =
  let n = 5 in
  let p = Dd.create () in
  let c = Test_util.random_circuit ~seed:9 ~gates:10 n in
  let mats = circuit_mats p n c in
  let fused, stats = Fusion.k_operations p ~k:4 mats in
  Alcotest.(check int) "ceil(10/4) groups" 3 (List.length fused);
  Alcotest.(check int) "ddmm calls" 7 stats.Fusion.ddmm_calls;
  let v0 = Test_util.random_state ~seed:10 n in
  Pool.with_pool 2 (fun pool ->
      let direct = apply_all pool p n mats v0 in
      let via = apply_all pool p n fused v0 in
      Test_util.check_close ~tol:1e-8 "k-operations semantics" direct via)

let test_k_operations_k1_identity_transform () =
  let n = 4 in
  let p = Dd.create () in
  let mats = circuit_mats p n (Test_util.random_circuit ~seed:11 ~gates:6 n) in
  let fused, stats = Fusion.k_operations p ~k:1 mats in
  Alcotest.(check int) "k=1 keeps every gate" 6 (List.length fused);
  Alcotest.(check int) "no ddmm" 0 stats.Fusion.ddmm_calls;
  Alcotest.(check bool) "k must be positive" true
    (try ignore (Fusion.k_operations p ~k:0 mats); false
     with Invalid_argument _ -> true)

let test_gate_order () =
  (* X then H on one qubit: fused must be H·X (apply X first). On |0> that
     gives H|1> = (|0> - |1>)/sqrt2. *)
  let n = 1 in
  let p = Dd.create () in
  let mx = Mat_dd.of_single p ~n ~target:0 ~controls:[] Gate.x in
  let mh = Mat_dd.of_single p ~n ~target:0 ~controls:[] Gate.h in
  let fused, _ = Fusion.k_operations p ~k:2 [ mx; mh ] in
  match fused with
  | [ m ] ->
    let s = 1.0 /. sqrt 2.0 in
    if not (Cnum.equal ~tol:1e-12 (Dd.mentry p m 0 0) (Cnum.of_float s)) then
      Alcotest.fail "entry (0,0)";
    if not (Cnum.equal ~tol:1e-12 (Dd.mentry p m 1 0) (Cnum.of_float (-.s))) then
      Alcotest.fail "entry (1,0): wrong fusion order";
    if not (Cnum.equal ~tol:1e-12 (Dd.mentry p m 0 1) (Cnum.of_float s)) then
      Alcotest.fail "entry (0,1)"
  | _ -> Alcotest.fail "expected a single fused gate"

let test_fusion_beats_kops_on_cost () =
  (* On a deep rotation-heavy circuit the cost-aware strategy must reach
     at most the cost of blind k-grouping (the paper's Table 2 shape). *)
  let n = 8 in
  let c = Dnn.circuit ~seed:5 ~layers:6 n in
  let p = Dd.create () in
  let mats = circuit_mats p n c in
  let _, aware = Fusion.dmav_aware p mats in
  let _, kops = Fusion.k_operations p ~k:4 mats in
  Alcotest.(check bool) "aware cost <= kops cost" true
    (aware.Fusion.macs_after <= kops.Fusion.macs_after +. 1e-6)

(* The stats' MAC sums are the input and output gates' Cost.mac_count
   folded in list order, to the bit. *)
let test_stats_sums_exact () =
  let sum p ms = List.fold_left (fun acc m -> acc +. Cost.mac_count p m) 0.0 ms in
  let same = Int64.equal in
  List.iter
    (fun (fam, n, gates) ->
       let c = Suite.generate ~seed:3 ~gates fam ~n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       List.iter
         (fun (what, (out, st)) ->
            let name = Printf.sprintf "%s %s" what (Suite.family_name fam) in
            Alcotest.(check bool) (name ^ " macs_before") true
              (same (Int64.bits_of_float st.Fusion.macs_before) (Int64.bits_of_float (sum p mats)));
            Alcotest.(check bool) (name ^ " macs_after") true
              (same (Int64.bits_of_float st.Fusion.macs_after) (Int64.bits_of_float (sum p out))))
         [ ("dmav-aware", Fusion.dmav_aware p mats); ("k-operations", Fusion.k_operations p ~k:4 mats) ])
    [ (Suite.Dnn, 10, 200); (Suite.Vqe, 10, 200); (Suite.Supremacy, 10, 150) ]

(* dnn's layer shape at n = 10: a rotation on every qubit, then a
   9-CNOT ladder. The ladder is a permutation (2ⁿ MACs), and so is its
   product with anything that costs 2ⁿ or more: with every path priced
   1, the rotations' last product absorbs the ladder, since 4·2ⁿ ≤ 4·2ⁿ
   + 2ⁿ. That product runs slower in the Run stub than its parts, whose
   low rotations sit above identity stripes. The priced cost keeps the
   ladder a product of its own. *)
let test_cnot_ladder_not_fused_into_rotations () =
  let n = 10 in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Circuit.Builder.ry b (0.1 +. (0.2 *. float_of_int q)) q
  done;
  for q = 0 to n - 2 do
    Circuit.Builder.cx b ~control:q ~target:(q + 1)
  done;
  let c = Circuit.Builder.finish b in
  let p = Dd.create () in
  let mats = circuit_mats p n c in
  let fused, _ = Fusion.dmav_aware p mats in
  let ladder = List.filteri (fun i _ -> i >= n) mats in
  let ladder_product =
    List.fold_left (fun acc m -> Dd.mm p m acc) (List.hd ladder) (List.tl ladder)
  in
  let last = List.nth fused (List.length fused - 1) in
  Alcotest.(check bool) "the ladder is the last product, alone" true (last = ladder_product);
  Alcotest.(check (float 0.0)) "a permutation: 2^n MACs" (float_of_int (1 lsl n))
    (Cost.mac_count p last)

(* Dense product of a gate list applied in order: M_k ⋯ M_1. *)
let dense_product p ~n mats =
  let dim = 1 lsl n in
  let mul a b =
    Array.init dim (fun i ->
        Array.init dim (fun j ->
            let acc = ref Cnum.zero in
            for k = 0 to dim - 1 do
              acc := Cnum.add !acc (Cnum.mul a.(i).(k) b.(k).(j))
            done;
            !acc))
  in
  List.fold_left
    (fun acc m -> mul (Mat_dd.to_dense p ~n m) acc)
    (Mat_dd.to_dense p ~n (Mat_dd.identity p n))
    mats

let test_dmav_aware_product_preserved () =
  List.iter
    (fun seed ->
       let n = 5 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       let fused, _ = Fusion.dmav_aware p mats in
       let priced ms = List.fold_left (fun acc m -> acc +. Cost.priced_macs p m) 0.0 ms in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: priced cost does not grow" seed) true
         (priced fused <= priced mats);
       let expect = dense_product p ~n mats and got = dense_product p ~n fused in
       Array.iteri
         (fun i row ->
            Array.iteri
              (fun j e ->
                 if not (Cnum.equal ~tol:1e-12 e got.(i).(j)) then
                   Alcotest.failf "seed %d: product entry (%d, %d) differs" seed i j)
              row)
         expect)
    [ 21; 22; 23; 24; 25 ]

let suite =
  [ ( "fusion",
      [ Alcotest.test_case "dmav-aware preserves semantics" `Quick
          test_dmav_aware_preserves_semantics;
        Alcotest.test_case "fuses rotation chains" `Quick
          test_dmav_aware_fuses_rotation_chains;
        Alcotest.test_case "never increases cost" `Quick
          test_dmav_aware_never_increases_cost_much;
        Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
        Alcotest.test_case "k-operations grouping" `Quick test_k_operations_grouping;
        Alcotest.test_case "k=1 is identity transform" `Quick
          test_k_operations_k1_identity_transform;
        Alcotest.test_case "fusion order is right-to-left product" `Quick test_gate_order;
        Alcotest.test_case "aware beats blind grouping on cost" `Quick
          test_fusion_beats_kops_on_cost;
        Alcotest.test_case "stats MAC sums are exact" `Quick test_stats_sums_exact;
        Alcotest.test_case "CNOT ladder is not fused into rotations" `Quick
          test_cnot_ladder_not_fused_into_rotations;
        Alcotest.test_case "dmav-aware keeps the dense product" `Quick
          test_dmav_aware_product_preserved ] ) ]
