(* Units for the qubit-order layer (ISSUE 8): the Order permutation
   algebra and scoring pass, the in-arena adjacent-level swap, the
   bounded sifting pass, and the driver's logical-basis extraction
   across every order mode. The heavier cross-engine battery lives in
   test_differential.ml; this file pins the primitives. *)

let tol = 1e-10

(* --- helpers ----------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let random_perm rng n =
  let a = Array.init n (fun i -> i) in
  shuffle rng a;
  a

(* Logical index [i] rendered in the physical basis of [ord]. *)
let phys_index ord i =
  let k = ref 0 in
  Array.iteri (fun q p -> k := !k lor (((i lsr q) land 1) lsl p)) ord;
  !k

let swap_bits u i =
  let a = (i lsr u) land 1 and b = (i lsr (u - 1)) land 1 in
  if a = b then i else i lxor ((1 lsl u) lor (1 lsl (u - 1)))

(* A run that ends in DD form, so tests can drive the arena directly. *)
let dd_state_of ?(gates = 25) ~seed n =
  let c = Test_util.random_circuit ~seed ~gates n in
  let r =
    Driver.run
      { Config.default with Config.policy = Config.Never_convert; compact_every = 0 }
      c
  in
  match r.Driver.final with
  | Engine.Dd_state { package; edge } -> (package, edge)
  | Engine.Flat_state _ -> Alcotest.fail "expected a DD final state"

let snapshot p e n = Array.init (1 lsl n) (fun i -> Dd.vamplitude p e i)

let check_amp msg a b =
  if Cnum.norm2 (Cnum.sub a b) > tol *. tol then
    Alcotest.failf "%s: %s vs %s" msg (Cnum.to_string a) (Cnum.to_string b)

(* --- Order algebra ------------------------------------------------ *)

let test_order_algebra () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let n = 1 + Rng.int rng 10 in
    let a = Order.of_array (random_perm rng n) in
    let b = Order.of_array (random_perm rng n) in
    let q = Rng.int rng n in
    Alcotest.(check int) "compose"
      (Order.apply b (Order.apply a q))
      (Order.apply (Order.compose a b) q);
    Alcotest.(check int) "invert" q (Order.apply (Order.invert a) (Order.apply a q));
    let i = Rng.int rng (1 lsl n) in
    (* permute_index moves bit q to position (apply a q). *)
    let j = Order.permute_index a i in
    for q = 0 to n - 1 do
      Alcotest.(check int) "bit map"
        ((i lsr q) land 1)
        ((j lsr Order.apply a q) land 1)
    done;
    Alcotest.(check int) "index roundtrip" i
      (Order.permute_index (Order.invert a) j);
    Alcotest.(check int) "index 0 fixed" 0 (Order.permute_index a 0)
  done;
  Alcotest.(check bool) "identity" true (Order.is_identity (Order.identity 5));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Order.of_array: not a permutation") (fun () ->
        ignore (Order.of_array [| 0; 0; 1 |]))

let test_static_order () =
  (* Valid permutation, deterministic, and never worse than identity. *)
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let o = Order.static_order c in
       let o' = Order.static_order c in
       Alcotest.(check (array int)) "deterministic" (Order.to_array o)
         (Order.to_array o');
       ignore (Order.of_array (Order.to_array o));
       Alcotest.(check bool) "no worse than identity" true
         (Order.score c o <= Order.score c (Order.identity n)))
    [ 1; 2; 3; 4; 5 ];
  (* A nearest-neighbor chain is already optimally local: identity. *)
  let ghz = Suite.generate Suite.Ghz ~n:8 in
  Alcotest.(check bool) "ghz keeps identity" true
    (Order.is_identity (Order.static_order ghz));
  (* A circuit whose only interaction couples the two extremes must
     pull them together. *)
  let far =
    Circuit.make 6
      [ Circuit.Single { name = "cx"; matrix = Gate.x; target = 5; controls = [ 0 ] } ]
  in
  let o = Order.static_order far in
  let t = Order.to_array o in
  Alcotest.(check int) "extremes adjacent" 1 (abs (t.(0) - t.(5)))

(* --- swap_levels -------------------------------------------------- *)

let test_swap_levels () =
  List.iter
    (fun seed ->
       let n = 3 + (seed mod 3) in
       let p, e = dd_state_of ~seed n in
       let before = snapshot p e n in
       for upper = 1 to n - 1 do
         Dd.swap_levels p ~upper;
         let after = snapshot p e n in
         for i = 0 to (1 lsl n) - 1 do
           check_amp
             (Printf.sprintf "seed %d swap %d amp %d" seed upper i)
             after.(i)
             before.(swap_bits upper i)
         done;
         (* Swapping back restores the function exactly. *)
         Dd.swap_levels p ~upper;
         let restored = snapshot p e n in
         for i = 0 to (1 lsl n) - 1 do
           check_amp
             (Printf.sprintf "seed %d unswap %d amp %d" seed upper i)
             restored.(i) before.(i)
         done
       done;
       (* The arena stays internally consistent: a compact over the root
          keeps every amplitude. *)
       Dd.compact p ~vroots:[ e ] ~mroots:[];
       let swept = snapshot p e n in
       for i = 0 to (1 lsl n) - 1 do
         check_amp (Printf.sprintf "seed %d post-compact amp %d" seed i)
           swept.(i) before.(i)
       done)
    [ 1; 2; 3; 4; 5; 6 ];
  let p, _ = dd_state_of ~seed:1 4 in
  Alcotest.check_raises "upper 0 rejected"
    (Invalid_argument "Dd.swap_levels: upper must be >= 1") (fun () ->
        Dd.swap_levels p ~upper:0)

let test_sift_pass () =
  List.iter
    (fun seed ->
       let n = 4 + (seed mod 3) in
       let p, e = dd_state_of ~gates:35 ~seed n in
       let before_amps = snapshot p e n in
       let before_count = Dd.vnode_count p e in
       let perm, before, after = Dd.sift_pass p ~root:e ~levels:n in
       Alcotest.(check int) "before count" before_count before;
       ignore (Order.of_array perm);
       Alcotest.(check bool) "never grows past start" true (after <= before);
       (* The sifted DD holds the same function with levels moved by
          [perm]: logical amplitude i now lives at the permuted path. *)
       for i = 0 to (1 lsl n) - 1 do
         check_amp
           (Printf.sprintf "seed %d sift amp %d" seed i)
           (Dd.vamplitude p e (phys_index perm i))
           before_amps.(i)
       done)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- driver-level order modes ------------------------------------- *)

let modes = [ ("static", Config.Static_order); ("sift", Config.Sift_order) ]

let test_driver_logical_results () =
  (* Whatever the internal order, results must come back logical —
     against the dense reference, for each order mode, each policy
     extreme, and through both amplitudes and the single-amplitude
     walk. *)
  List.iter
    (fun seed ->
       let n = 3 + (seed mod 4) in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let dense = (Apply.run c).State.amps in
       List.iter
         (fun (label, order) ->
            List.iter
              (fun (plabel, policy) ->
                 let r =
                   Driver.run
                     { Config.default with Config.order; policy } c
                 in
                 let amps = Driver.amplitudes r in
                 Test_util.check_close ~tol
                   (Printf.sprintf "seed %d %s/%s vs dense" seed label plabel)
                   amps dense;
                 List.iter
                   (fun i ->
                      check_amp
                        (Printf.sprintf "seed %d %s/%s amplitude %d" seed label
                           plabel i)
                        (Driver.amplitude r i) (Buf.get dense i))
                   [ 0; 1; (1 lsl n) - 1 ])
              [ ("ewma", Config.Ewma_policy);
                ("dd", Config.Never_convert);
                ("flat", Config.Convert_at (-1)) ])
         modes)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_order_none_unchanged () =
  (* --order none must not even consult the scoring pass: the result
     record carries no order and equals the legacy path bit-for-bit. *)
  List.iter
    (fun seed ->
       let c = Test_util.random_circuit ~seed ~gates:25 (3 + (seed mod 3)) in
       let r = Driver.run Config.default c in
       Alcotest.(check bool) "no order recorded" true (r.Driver.order = None))
    [ 1; 2; 3 ]

let suite =
  [ ( "order",
      [ Alcotest.test_case "permutation algebra" `Quick test_order_algebra;
        Alcotest.test_case "static scoring pass" `Quick test_static_order;
        Alcotest.test_case "swap_levels preserves the function" `Quick
          test_swap_levels;
        Alcotest.test_case "sift_pass preserves the function" `Quick
          test_sift_pass;
        Alcotest.test_case "driver reports logical results" `Quick
          test_driver_logical_results;
        Alcotest.test_case "order none is untouched" `Quick
          test_order_none_unchanged ] ) ]
