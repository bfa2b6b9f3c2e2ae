(* Units for the qubit-order layer (ISSUE 8): the Order basis-index map
   and scoring pass, and the driver's logical-basis extraction under the
   static order. The heavier cross-engine battery lives in
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

let check_amp msg a b =
  if Cnum.norm2 (Cnum.sub a b) > tol *. tol then
    Alcotest.failf "%s: %s vs %s" msg (Cnum.to_string a) (Cnum.to_string b)

(* --- Order basis-index map ---------------------------------------- *)

let test_order_algebra () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let n = 1 + Rng.int rng 10 in
    let a = Order.of_array (random_perm rng n) in
    let i = Rng.int rng (1 lsl n) in
    (* permute_index moves bit q to position (apply a q). *)
    let j = Order.permute_index a i in
    for q = 0 to n - 1 do
      Alcotest.(check int) "bit map"
        ((i lsr q) land 1)
        ((j lsr Order.apply a q) land 1)
    done;
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

(* --- driver-level logical results --------------------------------- *)

let test_driver_logical_results () =
  (* Whatever the internal order, results must come back logical —
     against the dense reference, under the static order at each policy
     extreme, and through both amplitudes and the single-amplitude
     walk. *)
  List.iter
    (fun seed ->
       let n = 3 + (seed mod 4) in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let dense = (Apply.run c).State.amps in
       List.iter
         (fun (plabel, policy) ->
            let r =
              Driver.run
                { Config.default with Config.order = Config.Static_order; policy } c
            in
            let amps = Driver.amplitudes r in
            Test_util.check_close ~tol
              (Printf.sprintf "seed %d static/%s vs dense" seed plabel)
              amps dense;
            List.iter
              (fun i ->
                 check_amp
                   (Printf.sprintf "seed %d static/%s amplitude %d" seed plabel i)
                   (Driver.amplitude r i) (Buf.get dense i))
              [ 0; 1; (1 lsl n) - 1 ])
         [ ("ewma", Config.Ewma_policy);
           ("dd", Config.Never_convert);
           ("flat", Config.Convert_at (-1)) ])
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
        Alcotest.test_case "driver reports logical results" `Quick
          test_driver_logical_results;
        Alcotest.test_case "order none is untouched" `Quick
          test_order_none_unchanged ] ) ]
