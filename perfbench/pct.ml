(* Order statistics for the benchmark's timings. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank of the p-quantile among n samples, 1-based; the epsilon
   keeps p·n from rounding up past an exact integer. *)
let rank p n = Int.max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let quantile p xs =
  let a = sorted xs in
  a.(rank p (Array.length a) - 1)

(* A percentile reported only when at least [min_beyond] samples lie
   strictly above it: a tail read from fewer samples is one or two
   outliers, not a distribution. p95 therefore needs >= 200. *)
let tail ?(min_beyond = 10) p xs =
  let n = List.length xs in
  if n = 0 || n - rank p n < min_beyond then None else Some (quantile p xs)
