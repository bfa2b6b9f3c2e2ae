let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound must be positive" (Invalid_argument "Rng.int")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers () =
  let rng = Rng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_float_range () =
  let rng = Rng.create 11 in
  let acc = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Rng.float rng 2.0 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.0);
    acc := !acc +. v
  done;
  let mean = !acc /. 2000.0 in
  Alcotest.(check bool) "mean near 1" true (Float.abs (mean -. 1.0) < 0.1)

let test_angle () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let a = Rng.angle rng in
    Alcotest.(check bool) "angle in [0,2pi)" true (a >= 0.0 && a < 2.0 *. Float.pi)
  done

let test_shuffle_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

let test_derive () =
  Alcotest.(check int) "deterministic" (Rng.derive 42 7) (Rng.derive 42 7);
  let seen = Hashtbl.create 256 in
  for base = 0 to 3 do
    for i = 0 to 63 do
      let s = Rng.derive base i in
      Alcotest.(check bool) "nonnegative" true (s >= 0);
      Hashtbl.replace seen s ()
    done
  done;
  Alcotest.(check int) "all (base, index) pairs distinct" 256 (Hashtbl.length seen);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be >= 0") (fun () ->
      ignore (Rng.derive 1 (-1)))

let test_derive_streams_differ () =
  (* Streams seeded from adjacent derived seeds must decorrelate. *)
  let a = Rng.create (Rng.derive 5 0) and b = Rng.create (Rng.derive 5 1) in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "derived streams differ" true (!same < 4)

let suite =
  [ ( "rng",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "int covers all values" `Quick test_int_covers;
        Alcotest.test_case "float range and mean" `Quick test_float_range;
        Alcotest.test_case "angle range" `Quick test_angle;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "derive sub-seeds" `Quick test_derive;
        Alcotest.test_case "derived streams decorrelate" `Quick
          test_derive_streams_differ ] ) ]
