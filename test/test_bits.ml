let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_is_pow2 () =
  List.iter (fun x -> check_bool (string_of_int x) true (Bits.is_pow2 x))
    [ 1; 2; 4; 8; 1024; 1 lsl 40 ];
  List.iter (fun x -> check_bool (string_of_int x) false (Bits.is_pow2 x))
    [ 0; -1; -4; 3; 6; 12; 1023 ]

let test_log2 () =
  check "log2 1" 0 (Bits.log2_exact 1);
  check "log2 1024" 10 (Bits.log2_exact 1024);
  Alcotest.check_raises "log2 of non-power" (Invalid_argument "Bits.log2_exact")
    (fun () -> ignore (Bits.log2_exact 12));
  check "floor_log2 1" 0 (Bits.floor_log2 1);
  check "floor_log2 5" 2 (Bits.floor_log2 5);
  check "floor_log2 1023" 9 (Bits.floor_log2 1023)

let test_bit_ops () =
  check "bit 0 of 5" 1 (Bits.bit 5 0);
  check "bit 1 of 5" 0 (Bits.bit 5 1);
  check "bit 2 of 5" 1 (Bits.bit 5 2);
  check "set" 0b1101 (Bits.set_bit 0b0101 3);
  check "set idempotent" 0b0101 (Bits.set_bit 0b0101 0);
  check "clear" 0b0100 (Bits.clear_bit 0b0101 0);
  check "clear idempotent" 0b0101 (Bits.clear_bit 0b0101 1)

let test_insert_bit () =
  (* Inserting at position k shifts higher bits up. *)
  check "insert 0 at 0" 0b1010 (Bits.insert_bit 0b101 0 0);
  check "insert 1 at 0" 0b1011 (Bits.insert_bit 0b101 0 1);
  check "insert 1 at 2" 0b10101 (Bits.insert_bit 0b1001 2 1);
  check "insert 0 high" 0b101 (Bits.insert_bit 0b101 5 0)

let test_insert_bit_enumerates () =
  (* For fixed k, i -> insert_bit i k 0 enumerates exactly the indices
     with bit k clear, in order. *)
  let n = 5 and k = 2 in
  let seen = Hashtbl.create 16 in
  for i = 0 to (1 lsl (n - 1)) - 1 do
    let j = Bits.insert_bit i k 0 in
    Alcotest.(check int) "bit k clear" 0 (Bits.bit j k);
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen j);
    Hashtbl.replace seen j ()
  done;
  Alcotest.(check int) "covers half the space" (1 lsl (n - 1)) (Hashtbl.length seen)

let test_popcount_masks () =
  check "popcount 0" 0 (Bits.popcount 0);
  check "popcount 0b1011" 3 (Bits.popcount 0b1011);
  check "masks" 0b10101 (Bits.all_masks [ 0; 2; 4 ]);
  check "masks empty" 0 (Bits.all_masks [])

let prop_insert_roundtrip =
  QCheck.Test.make ~name:"insert_bit then removing the bit restores the index"
    ~count:500
    QCheck.(pair (int_bound ((1 lsl 20) - 1)) (int_bound 19))
    (fun (i, k) ->
       let with0 = Bits.insert_bit i k 0 in
       let with1 = Bits.insert_bit i k 1 in
       (* Remove bit k again. *)
       let remove j =
         let low = j land ((1 lsl k) - 1) in
         let high = (j lsr (k + 1)) lsl k in
         high lor low
       in
       remove with0 = i && remove with1 = i
       && Bits.bit with0 k = 0 && Bits.bit with1 k = 1)

let prop_popcount_additive =
  QCheck.Test.make ~name:"popcount of disjoint or is additive" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
       let b = b lsl 16 in
       Bits.popcount (a lor b) = Bits.popcount a + Bits.popcount b)

let suite =
  [ ( "bits",
      [ Alcotest.test_case "is_pow2" `Quick test_is_pow2;
        Alcotest.test_case "log2" `Quick test_log2;
        Alcotest.test_case "bit set/clear" `Quick test_bit_ops;
        Alcotest.test_case "insert_bit" `Quick test_insert_bit;
        Alcotest.test_case "insert_bit enumeration" `Quick test_insert_bit_enumerates;
        Alcotest.test_case "popcount/masks" `Quick test_popcount_masks;
        QCheck_alcotest.to_alcotest prop_insert_roundtrip;
        QCheck_alcotest.to_alcotest prop_popcount_additive ] ) ]
