let feq = Alcotest.(check (float 1e-9))

let test_mean () =
  feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  feq "singleton" 5.0 (Stats.mean [ 5.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []))

let test_geomean () =
  feq "geomean of 1,4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  feq "geomean of equal" 3.0 (Stats.geomean [ 3.0; 3.0; 3.0 ]);
  feq "geomean 2,8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check_raises "nonpositive" (Invalid_argument "Stats.geomean: nonpositive")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 2.0 ] in
  feq "min" (-1.0) lo;
  feq "max" 3.0 hi

let prop_geomean_scale =
  QCheck.Test.make ~name:"geomean scales linearly" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.1 100.0))
    (fun xs ->
       let g = Stats.geomean xs in
       let g2 = Stats.geomean (List.map (fun x -> 2.0 *. x) xs) in
       Float.abs (g2 -. (2.0 *. g)) < 1e-6 *. g)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies within min/max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-50.0) 50.0))
    (fun xs ->
       let m = Stats.mean xs in
       let lo, hi = Stats.min_max xs in
       m >= lo -. 1e-9 && m <= hi +. 1e-9)

let suite =
  [ ( "stats",
      [ Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "min_max" `Quick test_min_max;
        QCheck_alcotest.to_alcotest prop_geomean_scale;
        QCheck_alcotest.to_alcotest prop_mean_bounds ] ) ]
