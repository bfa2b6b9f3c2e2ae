(* Units for the qubit-order layer: the Order basis-index map and the
   scoring pass. The driver's logical-basis results under the static
   order are test_oracle.ml's; this file pins the primitives. *)

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

(* The driver's logicalize maps indices through per-byte tables; they
   must agree with permute_index at every register size, including ones
   that end mid-byte, and on the highest index. *)
let test_byte_tables () =
  let rng = Rng.create 11 in
  for n = 1 to 20 do
    let a = Order.of_array (random_perm rng n) in
    let tables = Order.byte_tables a in
    Alcotest.(check int) "one table per byte" ((n + 7) / 8) (Array.length tables);
    for k = 0 to 99 do
      let i = if k = 0 then (1 lsl n) - 1 else Rng.int rng (1 lsl n) in
      let j = ref 0 in
      Array.iteri (fun b t -> j := !j lor t.((i lsr (8 * b)) land 255)) tables;
      Alcotest.(check int) "table lookup = permute_index" (Order.permute_index a i) !j
    done
  done

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

let suite =
  [ ( "order",
      [ Alcotest.test_case "permutation algebra" `Quick test_order_algebra;
        Alcotest.test_case "per-byte index tables" `Quick test_byte_tables;
        Alcotest.test_case "static scoring pass" `Quick test_static_order ] ) ]
