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

let circuit_ops c = Array.to_list c.Circuit.ops

(* DMAV-aware fusion of a circuit, its output gates as matrix DDs. *)
let fuse ?local_rate p n ops =
  let fused, stats = Fusion.dmav_aware ?local_rate p ~n ops in
  (List.map (Fusion.to_dd p ~n) fused, stats)

(* The price the scan compares, on one thread: a narrow gate's local leg
   or Run, whichever is cheaper, a wide gate's Run. *)
let gate_price p ~n = function
  | Fusion.Narrow l ->
    Cost.local_price ~n ~support:l.Flat_gate.support
      (Flat_gate.local_paths ~n ~terminal:1.0 ~identity:Cost.identity_price
         ~visit:Cost.visit_price l)
  | Fusion.Wide m -> Cost.priced_macs p m

(* The summed price of a circuit's ops as the scan's input gates and of
   the scan's output gates. *)
let priced_before_after p ~n ops =
  let sum gs = List.fold_left (fun acc g -> acc +. gate_price p ~n g) 0.0 gs in
  (sum (List.map (Fusion.of_op p ~n) ops), sum (fst (Fusion.dmav_aware p ~n ops)))

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

let test_dmav_aware_preserves_semantics () =
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       let fused, stats = fuse p n (circuit_ops c) in
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
  let fused, stats = fuse p n (circuit_ops c) in
  Alcotest.(check bool) "collapses heavily" true (List.length fused <= 3);
  Alcotest.(check bool) "cost reduced" true
    (stats.Fusion.macs_after < stats.Fusion.macs_before)

let test_dmav_aware_never_increases_cost_much () =
  (* The greedy rule only fuses when the product's price ([gate_price])
     is no more than its parts' prices, so the summed price of the output
     can never exceed the input's. The plain Eq. 5 MAC sum carries no such
     guarantee: a product can trade stripe MACs for recursion MACs. *)
  List.iter
    (fun seed ->
       let n = 7 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       let before, after = priced_before_after p ~n (circuit_ops c) in
       Alcotest.(check bool)
         (Printf.sprintf "priced after <= priced before (seed %d)" seed) true (after <= before))
    [ 5; 6; 7 ]

let test_empty_and_singleton () =
  let p = Dd.create () in
  let fused, stats = Fusion.dmav_aware p ~n:4 [] in
  Alcotest.(check int) "empty in" 0 stats.Fusion.gates_in;
  Alcotest.(check int) "empty out" 0 (List.length fused);
  let op = Circuit.Single { name = "h"; matrix = Gate.h; target = 1; controls = [] } in
  let m = Mat_dd.of_op p ~n:4 op in
  let fused, _ = Fusion.dmav_aware p ~n:4 [ op ] in
  (match fused with
   | [ only ] ->
     let dd = Fusion.to_dd p ~n:4 only in
     Alcotest.(check bool) "singleton passthrough" true (Dd.mtgt dd = Dd.mtgt m && Dd.mwid dd = Dd.mwid m)
   | _ -> Alcotest.fail "expected one gate")

(* Every entry of [got] within [tol] of [want]'s. *)
let check_dense_product what ~tol want got =
  Array.iteri
    (fun i row ->
       Array.iteri
         (fun j e ->
            if not (Cnum.equal ~tol e got.(i).(j)) then
              Alcotest.failf "%s: product entry (%d, %d) differs" what i j)
         row)
    want

(* The k-operations scan's output gates, collected. *)
let kops p ~n ~k ops =
  let out = ref [] in
  let stats = Fusion.k_operations_iter p ~n ~k ~emit:(fun g -> out := g :: !out) ops in
  (List.rev !out, stats)

let k_operations p ~n ~k ops =
  let fused, stats = kops p ~n ~k ops in
  (List.map (Fusion.to_dd p ~n) fused, stats)

(* k-operations takes ops: every group of up to [k] ops multiplies into
   one gate, as matrices or by DDMM, and the fused gates' product is the
   circuit's within 1e-12. *)
let test_k_operations_grouping () =
  let n = 5 in
  let p = Dd.create () in
  let c = Test_util.random_circuit ~seed:9 ~gates:10 n in
  let mats = circuit_mats p n c in
  let fused, stats = k_operations p ~n ~k:4 (circuit_ops c) in
  Alcotest.(check int) "ceil(10/4) groups" 3 (List.length fused);
  Alcotest.(check int) "gates in" 10 stats.Fusion.gates_in;
  check_dense_product "k-operations" ~tol:1e-12 (dense_product p ~n mats) (dense_product p ~n fused);
  let v0 = Test_util.random_state ~seed:10 n in
  Pool.with_pool 2 (fun pool ->
      let direct = apply_all pool p n mats v0 in
      let via = apply_all pool p n fused v0 in
      Test_util.check_close ~tol:1e-8 "k-operations semantics" direct via)

(* Groups of several sizes, on grover's multi-controlled gates too, so
   narrow products, products priced wide and DDMMs all occur. *)
let test_k_operations_dense_product () =
  List.iter
    (fun (fam, n, gates, seed) ->
       let c = Suite.generate ~seed ~gates fam ~n in
       let p = Dd.create () in
       let want = dense_product p ~n (circuit_mats p n c) in
       List.iter
         (fun k ->
            let fused, stats = k_operations p ~n ~k (circuit_ops c) in
            Alcotest.(check int) "groups" ((Circuit.num_gates c + k - 1) / k) stats.Fusion.gates_out;
            check_dense_product
              (Printf.sprintf "%s-%d k = %d" (Suite.family_name fam) n k)
              ~tol:1e-12 want (dense_product p ~n fused))
         [ 2; 3; 4; 7 ])
    [ (Suite.Dnn, 5, 40, 1); (Suite.Supremacy, 5, 40, 2); (Suite.Grover, 5, 40, 3);
      (Suite.Vqe, 6, 40, 4) ]

let test_k_operations_k1_identity_transform () =
  let n = 4 in
  let p = Dd.create () in
  let ops = circuit_ops (Test_util.random_circuit ~seed:11 ~gates:6 n) in
  let fused, stats = kops p ~n ~k:1 ops in
  Alcotest.(check int) "k=1 keeps every gate" 6 (List.length fused);
  Alcotest.(check int) "no ddmm" 0 stats.Fusion.ddmm_calls;
  Alcotest.(check int) "no matrix product" 0 stats.Fusion.narrow_products;
  Alcotest.(check bool) "k must be positive" true
    (try ignore (kops p ~n ~k:0 ops); false
     with Invalid_argument _ -> true)

let test_gate_order () =
  (* X then H on one qubit: fused must be H·X (apply X first). On |0> that
     gives H|1> = (|0> - |1>)/sqrt2. *)
  let n = 1 in
  let p = Dd.create () in
  let single name matrix = Circuit.Single { name; matrix; target = 0; controls = [] } in
  let fused, _ = k_operations p ~n ~k:2 [ single "x" Gate.x; single "h" Gate.h ] in
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
  let _, aware = fuse p n (circuit_ops c) in
  let _, kops = kops p ~n ~k:4 (circuit_ops c) in
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
         [ ("dmav-aware", fuse p n (circuit_ops c)); ("k-operations", k_operations p ~n ~k:4 (circuit_ops c)) ])
    [ (Suite.Dnn, 10, 200); (Suite.Vqe, 10, 200); (Suite.Supremacy, 10, 150) ]

(* dnn's layer shape at n = 10: a rotation on every qubit, then a
   9-CNOT ladder. The ladder is a permutation (2ⁿ MACs), and so is its
   product with anything that costs 2ⁿ or more: with every path priced
   1, the rotations' last product absorbs the ladder, since 4·2ⁿ ≤ 4·2ⁿ
   + 2ⁿ. That product runs slower in the Run stub than its parts, whose
   low rotations sit above identity stripes. The priced cost keeps the
   ladder out of the rotation products: the stream fuses as the
   rotations and the ladder would each alone, and the ladder's products
   stay permutations. *)
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
  let ops = circuit_ops c in
  let fused, _ = fuse p n ops in
  let alone ops = fst (fuse p n ops) in
  let rotations = List.filteri (fun i _ -> i < n) ops in
  let ladder = alone (List.filteri (fun i _ -> i >= n) ops) in
  Alcotest.(check bool) "rotations and ladder fuse apart" true (fused = alone rotations @ ladder);
  List.iter
    (fun m ->
       Alcotest.(check (float 0.0)) "a ladder product: a permutation, 2^n MACs"
         (float_of_int (1 lsl n)) (Cost.mac_count p m))
    ladder

let test_dmav_aware_product_preserved () =
  List.iter
    (fun seed ->
       let n = 5 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       let mats = circuit_mats p n c in
       let fused, _ = fuse p n (circuit_ops c) in
       let before, after = priced_before_after p ~n (circuit_ops c) in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: priced cost does not grow" seed) true (after <= before);
       check_dense_product (Printf.sprintf "seed %d" seed) ~tol:1e-12 (dense_product p ~n mats)
         (dense_product p ~n fused))
    [ 21; 22; 23; 24; 25 ]

(* A stream whose grouping the local leg's price changes: three pairs,
   each a gate and a CNOT on its own two qubits. Priced by their Run MACs
   alone, the pairs' products (permutations and near-permutations, no
   identity stripe under their low levels) cost no more together than
   apart, so they fuse into one wide gate; priced at the local leg's
   rate, each pair is a cheap two-level gate and a wider product is not.
   Either grouping keeps the dense product. *)
let test_local_price_regroups () =
  let n = 6 in
  let b = Circuit.Builder.create n in
  Circuit.Builder.h b 0;
  Circuit.Builder.cx b ~control:0 ~target:1;
  Circuit.Builder.rz b 0.3 2;
  Circuit.Builder.cx b ~control:2 ~target:3;
  Circuit.Builder.ry b 0.7 4;
  Circuit.Builder.cx b ~control:4 ~target:5;
  Circuit.Builder.t b 1;
  let c = Circuit.Builder.finish b in
  let p = Dd.create () in
  let mats = circuit_mats p n c in
  let priced, _ = fuse p n (circuit_ops c) in
  let unpriced, _ = fuse ~local_rate:infinity p n (circuit_ops c) in
  Alcotest.(check bool) "the local price changes the grouping" true
    (List.length priced <> List.length unpriced);
  Alcotest.(check bool) "every priced product is narrow" true
    (List.for_all
       (function Fusion.Narrow _ -> true | Fusion.Wide _ -> false)
       (fst (Fusion.dmav_aware p ~n (circuit_ops c))));
  let expect = dense_product p ~n mats in
  List.iter
    (fun (what, fused) -> check_dense_product what ~tol:1e-12 expect (dense_product p ~n fused))
    [ ("local leg priced", priced); ("local leg unpriced", unpriced) ]

(* ---- narrow forms: matrices without a DD ---------------------------- *)

let kron (a : Gate.single) (b : Gate.single) : Gate.two =
  Array.init 4 (fun r -> Array.init 4 (fun c -> Cnum.mul a.(r / 2).(c / 2) b.(r mod 2).(c mod 2)))

let random_single rng = Gate.u3 (Rng.angle rng) (Rng.angle rng) (Rng.angle rng)

let random_two rng =
  Gate.mul4 (Gate.fsim (Rng.angle rng) (Rng.angle rng)) (kron (random_single rng) (random_single rng))

let other rng n q = (q + 1 + Rng.int rng (n - 1)) mod n

(* One op of every kind a narrow form covers, on random levels, plus
   gates with exact zeros and gates that act on fewer levels than they
   name (a controlled identity, a product form). *)
let narrow_ops rng n =
  let t = Rng.int rng n in
  let c = other rng n t in
  let q = other rng n t in
  let single ?(controls = []) matrix target = Circuit.Single { name = "u"; matrix; target; controls } in
  let two matrix q_hi q_lo = Circuit.Two { name = "u2"; matrix; q_hi; q_lo } in
  [ single (random_single rng) t;
    single ~controls:[ Int.max t c ] (random_single rng) (Int.min t c);
    single ~controls:[ Int.min t c ] (random_single rng) (Int.max t c);
    two (random_two rng) (Int.max t c) (Int.min t c);
    two (random_two rng) (Int.min t c) (Int.max t c);
    single Gate.x t; single ~controls:[ c ] Gate.z t; single ~controls:[ c ] Gate.x t;
    two Gate.iswap t c; two Gate.swap2 c t; single (Gate.rz 0.0) t;
    single ~controls:[ c ] Gate.id2 t;
    two (kron (random_single rng) Gate.id2) t c;
    two (kron Gate.h (random_single rng)) t q ]

(* Bit [r·d + c] set where entry (r, c) of a [d × d] dense matrix is not
   0: the paths a form on its levels has. *)
let nonzero_paths (b : Cnum.t array array) =
  let d = Array.length b and paths = ref 0 in
  Array.iteri
    (fun r row ->
       Array.iteri
         (fun c (z : Cnum.t) ->
            if not (Float.equal z.re 0.0 && Float.equal z.im 0.0) then
              paths := !paths lor (1 lsl ((r * d) + c)))
         row)
    b;
  !paths

(* A narrow form against the dense matrix of a DD [m] that acts on no
   level outside [mask] ([Fusion_ref.block]): the form's support is the
   levels that matrix is not block-identity on ([Fusion_ref.support]),
   and on those levels its entries are the matrix's within [tol] and its
   paths the matrix's nonzero entries. *)
let check_form what p ~n ~tol ~mask m (l : Flat_gate.local) =
  let s = Fusion_ref.support ~n ~mask (Fusion_ref.block p ~mask m) in
  Alcotest.(check int) (what ^ ": support") s l.Flat_gate.support;
  let b = Fusion_ref.block p ~mask:s m in
  let d = Array.length b in
  Array.iteri
    (fun r row ->
       Array.iteri
         (fun c (z : Cnum.t) ->
            let o = 2 * ((r * d) + c) in
            if Float.abs (z.re -. l.Flat_gate.u.(o)) > tol
            || Float.abs (z.im -. l.Flat_gate.u.(o + 1)) > tol
            then Alcotest.failf "%s: entry (%d, %d) differs" what r c)
         row)
    b;
  Alcotest.(check int) (what ^ ": paths") (nonzero_paths b) l.Flat_gate.paths

(* A narrow form against its op's DD as a dense matrix
   ([Mat_dd.to_dense], every level): support, entries within 1e-15 and
   paths, and every priced path count (so the price) the DD's
   [Dd.priced_paths], exactly. *)
let test_narrow_forms_match_dd () =
  let rng = Rng.create 41 in
  for n = 3 to 8 do
    for _ = 1 to 6 do
      let p = Dd.create () in
      List.iter
        (fun op ->
           let what = Printf.sprintf "n = %d, %s on %s" n (Circuit.op_name op)
               (String.concat "," (List.map string_of_int (Circuit.op_qubits op))) in
           let m = Mat_dd.of_op p ~n op in
           match Flat_gate.local_of_op ~n op with
           | Some l ->
             check_form what p ~n ~tol:1e-15 ~mask:((1 lsl n) - 1) m l;
             List.iter
               (fun (terminal, identity, visit) ->
                  Alcotest.(check (float 0.0)) (what ^ ": priced paths")
                    (Dd.priced_paths p ~terminal ~identity ~visit m)
                    (Flat_gate.local_paths ~n ~terminal ~identity ~visit l))
               [ (1.0, 1.0, 0.0); (1.0, Cost.identity_price, 0.0); (0.0, 1.0, 0.0);
                 (1.0, 0.05, 0.0); (0.0, 0.0, 1.0); (1.0, 0.05, 3.0);
                 (1.0, Cost.identity_price, Cost.visit_price) ]
           | None -> Alcotest.failf "%s: no narrow form" what)
        (narrow_ops rng n)
    done
  done;
  let ccx = Circuit.Single { name = "ccx"; matrix = Gate.x; target = 0; controls = [ 1; 2 ] } in
  Alcotest.(check bool) "two controls: no narrow form" true (Flat_gate.local_of_op ~n:4 ccx = None)

(* A product of two narrow gates against the dense matrix of their DDMM
   on the levels their ops act on: narrow exactly when that matrix acts
   on at most two of them, then a form of it within 1e-12 ([check_form]);
   otherwise priced at the DD's priced path count, exactly. *)
let test_narrow_products_match_ddmm () =
  let rng = Rng.create 43 in
  let inverse = function
    | Circuit.Single s -> Circuit.Single { s with matrix = Gate.adjoint s.matrix }
    | Circuit.Two t -> Circuit.Two { t with matrix = Gate.adjoint4 t.matrix }
  in
  for n = 3 to 8 do
    for _ = 1 to 4 do
      let p = Dd.create () in
      let ops = Array.of_list (narrow_ops rng n) in
      let w = random_single rng in
      let product_form a b = (* w ⊗ a on (t, q), then w† ⊗ b on (t, q') *)
        let t = Rng.int rng n in
        let q = other rng n t in
        let q' = other rng n t in
        ( t,
          Circuit.Two { name = "wa"; matrix = kron w a; q_hi = t; q_lo = q },
          Circuit.Two { name = "wb"; matrix = kron (Gate.adjoint w) b; q_hi = t; q_lo = q' } )
      in
      (* (w ⊗ a)·(w† ⊗ b) does nothing on w's level; its DD may act on
         it, as its two equal blocks can normalize by different ones of
         their equal-magnitude entries. Its dense matrix does not, and
         neither does the narrow product. *)
      let t, a, b = product_form (random_single rng) (random_single rng) in
      let pairs =
        ((a, b)
         :: List.init 12 (fun _ ->
             (ops.(Rng.int rng (Array.length ops)), ops.(Rng.int rng (Array.length ops)))))
        @ List.map (fun op -> (inverse op, op)) (Array.to_list ops)
      in
      List.iter
        (fun (a, b) ->
           let what = Printf.sprintf "n = %d, %s · %s" n (Circuit.op_name a) (Circuit.op_name b) in
           let la = Option.get (Flat_gate.local_of_op ~n a)
           and lb = Option.get (Flat_gate.local_of_op ~n b) in
           let m = Dd.mm p (Mat_dd.of_op p ~n a) (Mat_dd.of_op p ~n b) in
           let mask = Fusion_ref.qubit_mask a lor Fusion_ref.qubit_mask b in
           let narrow = Bits.popcount (Fusion_ref.support ~n ~mask (Fusion_ref.block p ~mask m)) <= 2 in
           match Flat_gate.local_product ~n ~identity:Cost.identity_price la lb with
           | Flat_gate.Narrow_product l when narrow ->
             check_form what p ~n ~tol:1e-12 ~mask m l;
             if Circuit.op_name a = "wa" && l.Flat_gate.support land (1 lsl t) <> 0 then
               Alcotest.failf "%s: product form on w's level" what
           | Flat_gate.Wide_product run when not narrow ->
             Alcotest.(check (float 0.0)) (what ^ ": priced paths") (Cost.priced_macs p m) run
           | Flat_gate.Narrow_product _ -> Alcotest.failf "%s: narrow, the dense product is wide" what
           | Flat_gate.Wide_product _ -> Alcotest.failf "%s: wide, the dense product is narrow" what)
        pairs
    done
  done

(* Every op compiles through [Fusion.of_op] and [Fusion.compile] to the
   kernel its DD prices. An op on at most two qubits takes the local
   leg, priced at [Cost.local_rate] of the levels the dense matrix of its
   DD acts on, or the dense kernel when that is eligible and priced no
   higher; its modeled MACs are the DD's plain count, and a local gate's
   paths the dense matrix's nonzero entries. Any other op takes
   [Cost.dispatch]'s pick on its DD, never the local leg. For every
   family at n = 6-12, pools of 1 and 2, with the dense kernel eligible
   or not. *)
let test_unfused_gates_keep_dd_kernel () =
  let check p ~n ~threads ~dense what op =
    let what = Printf.sprintf "%s t=%d%s" what threads (if dense then " dense" else "") in
    let op' = if dense then Some op else None in
    let got = Fusion.compile p ~n ~threads ?op:op' (Fusion.of_op p ~n op) in
    let dg = got.Flat_gate.dispatch in
    let m = Mat_dd.of_op p ~n op in
    let mask = Fusion_ref.qubit_mask op in
    let kernel, price, support, macs =
      if Bits.popcount mask <= 2 then begin
        let s = Fusion_ref.support ~n ~mask (Fusion_ref.block p ~mask m) in
        let t = float_of_int (Cost.pow2_threads ~n threads) in
        let local = Cost.local_rate ~support:s *. Float.ldexp 1.0 n /. t in
        match Option.bind op' (Cost.dense_price ~n) with
        | Some d when d /. t <= local -> (Cost.Dense, d /. t, Some s, d)
        | _ -> (Cost.Local, local, Some s, Cost.mac_count p m)
      end
      else begin
        let dw = Cost.dispatch p ~n ~threads ?op:op' m in
        (dw.Cost.kernel, dw.Cost.price, None, Cost.dispatch_modeled_macs dw)
      end
    in
    if dg.Cost.kernel <> kernel then Alcotest.failf "%s: kernel" what;
    Alcotest.(check (float 0.0)) (what ^ ": price") price dg.Cost.price;
    Alcotest.(check (option int)) (what ^ ": support") support dg.Cost.support;
    Alcotest.(check (float 0.0)) (what ^ ": modeled MACs") macs (Cost.dispatch_modeled_macs dg);
    match got.Flat_gate.body, kernel with
    | Flat_gate.Local l, Cost.Local ->
      Alcotest.(check int) (what ^ ": paths")
        (nonzero_paths (Fusion_ref.block p ~mask:l.Flat_gate.support m)) l.Flat_gate.paths
    | Flat_gate.Dense _, Cost.Dense | Flat_gate.Dmav _, (Cost.Run | Cost.Cached) -> ()
    | _ -> Alcotest.failf "%s: body" what
  in
  List.iter
    (fun fam ->
       (* adder registers are even, swap tests odd. *)
       let fits n =
         match fam with
         | Suite.Adder -> n mod 2 = 0
         | Suite.Swap_test | Suite.Knn -> n mod 2 = 1
         | _ -> true
       in
       List.iter
         (fun n ->
            let c = Suite.generate ~seed:n ~gates:60 fam ~n in
            let p = Dd.create () in
            Array.iteri
              (fun i op ->
                 let what = Printf.sprintf "%s-%d op %d (%s)" (Suite.family_name fam) n i (Circuit.op_name op) in
                 List.iter
                   (fun (threads, dense) -> check p ~n ~threads ~dense what op)
                   [ (1, false); (1, true); (2, false); (2, true) ])
              c.Circuit.ops)
         (List.filter fits [ 6; 7; 8; 9; 10; 11; 12 ]))
    Suite.all_families

(* Random circuits of one- and two-qubit gates with some Toffolis (whose
   products take DDMM) at n ≤ 10: the scan emits a narrow gate of the
   same support wherever the DD-only Algorithm 3 ([Fusion_ref], which
   reads supports off dense matrices) emits one, and a wide gate
   wherever it emits a wide one, and their product is the circuit's within 1e-12, checked on a random
   vector, beyond the error the reference's own DDMM products carry
   (their weights snap to representatives within the 1e-10 DD
   tolerance, up to ~1e-11 here). The circuits hold no gate followed by
   its inverse: on such a pair a DD can act on a level the product is
   trivial on, which moves the DD's priced path count away from the
   product's matrix ("narrow products match DDMM"). *)
let prop_scan_matches_dd_reference =
  QCheck.Test.make ~name:"scan = DD reference; fused product = dense product" ~count:150
    QCheck.(pair (int_range 3 10) (int_bound 1_000_000))
    (fun (n, seed) ->
       (* The shrinker may step out of the range. *)
       let n = Int.max 3 (Int.min 10 n) in
       let rng = Rng.create seed in
       let b = Circuit.Builder.create n in
       for _ = 1 to 10 + Rng.int rng 40 do
         let op =
           match Rng.int rng 10 with
           | 1 ->
             let q = Rng.int rng (n - 2) in
             Circuit.Single { name = "ccx"; matrix = Gate.x; target = q + 2; controls = [ q; q + 1 ] }
           | 2 | 3 ->
             let t = Rng.int rng n in
             Circuit.Two { name = "u2"; matrix = random_two rng; q_hi = t; q_lo = other rng n t }
           | 4 | 5 ->
             let t = Rng.int rng n in
             Circuit.Single { name = "cu"; matrix = random_single rng; target = t; controls = [ other rng n t ] }
           | 6 -> Circuit.Single { name = "h"; matrix = Gate.h; target = Rng.int rng n; controls = [] }
           | _ -> Circuit.Single { name = "u"; matrix = random_single rng; target = Rng.int rng n; controls = [] }
         in
         Circuit.Builder.add b op
       done;
       let c = Circuit.Builder.finish b in
       let ops = circuit_ops c in
       let p = Dd.create () and p_ref = Dd.create () in
       let fused, _ = Fusion.dmav_aware p ~n ops in
       let reference = Fusion_ref.dmav_aware p_ref ~n ops in
       let supports =
         List.map (function Fusion.Narrow l -> Some l.Flat_gate.support | Fusion.Wide _ -> None) fused
       and ref_supports = List.map (fun g -> g.Fusion_ref.narrow) reference in
       let show ss =
         String.concat " " (List.map (function Some s -> string_of_int s | None -> "w") ss)
       in
       if supports <> ref_supports then
         QCheck.Test.fail_reportf "n = %d seed %d: supports %s, the reference %s" n seed
           (show supports) (show ref_supports);
       let v0 = Test_util.random_state ~seed n in
       let want = State.of_buf n (Buf.copy v0) in
       Apply.circuit want c;
       let via = Pool.with_pool 1 (fun pool -> apply_all pool p n (List.map (Fusion.to_dd p ~n) fused) v0) in
       let via_ref =
         Pool.with_pool 1 (fun pool ->
             apply_all pool p_ref n (List.map (fun g -> g.Fusion_ref.dd) reference) v0)
       in
       let d = Buf.max_abs_diff via want.State.amps
       and d_ref = Buf.max_abs_diff via_ref want.State.amps in
       if d > 1e-12 +. d_ref then
         QCheck.Test.fail_reportf "n = %d seed %d: fused product off by %.3g, the reference by %.3g" n
           seed d d_ref;
       true)

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
        Alcotest.test_case "k-operations keeps the dense product" `Quick
          test_k_operations_dense_product;
        Alcotest.test_case "k=1 is identity transform" `Quick
          test_k_operations_k1_identity_transform;
        Alcotest.test_case "fusion order is right-to-left product" `Quick test_gate_order;
        Alcotest.test_case "aware beats blind grouping on cost" `Quick
          test_fusion_beats_kops_on_cost;
        Alcotest.test_case "stats MAC sums are exact" `Quick test_stats_sums_exact;
        Alcotest.test_case "CNOT ladder is not fused into rotations" `Quick
          test_cnot_ladder_not_fused_into_rotations;
        Alcotest.test_case "local leg pricing regroups, keeps the dense product" `Quick
          test_local_price_regroups;
        Alcotest.test_case "dmav-aware keeps the dense product" `Quick
          test_dmav_aware_product_preserved;
        Alcotest.test_case "narrow forms match their DDs" `Quick test_narrow_forms_match_dd;
        Alcotest.test_case "narrow products match DDMM" `Quick test_narrow_products_match_ddmm;
        Alcotest.test_case "unfused gates keep their DD's kernel" `Quick
          test_unfused_gates_keep_dd_kernel;
        QCheck_alcotest.to_alcotest prop_scan_matches_dd_reference ] ) ]
