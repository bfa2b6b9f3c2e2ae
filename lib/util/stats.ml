let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty"
  | xs ->
    List.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive") xs;
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int (List.length xs))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs
